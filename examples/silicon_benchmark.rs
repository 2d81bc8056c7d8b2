//! The paper's silicon benchmark in miniature: compare the Ref, Opt-D, Opt-S
//! and Opt-M execution modes (Sec. V-E) on the same crystalline-silicon
//! workload and report ns/day plus the speedup over Ref, i.e. a reduced-size
//! version of Fig. 4 — each run built through the `SimulationBuilder` API.
//!
//! ```bash
//! cargo run --release --example silicon_benchmark [n_atoms] [n_steps]
//! ```

use lammps_tersoff_vector::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_atoms: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let n_steps: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);

    let lattice = Lattice::silicon_with_atoms(n_atoms);
    println!(
        "silicon benchmark: {} atoms ({}×{}×{} cells), {} steps per mode\n",
        lattice.n_atoms(),
        lattice.cells[0],
        lattice.cells[1],
        lattice.cells[2],
        n_steps
    );

    let modes = [
        ("Ref", ExecutionMode::Ref, Scheme::Scalar),
        (
            "Opt-D (scheme 1a, 4×f64)",
            ExecutionMode::OptD,
            Scheme::JLanes,
        ),
        (
            "Opt-S (scheme 1b, 16×f32)",
            ExecutionMode::OptS,
            Scheme::FusedLanes,
        ),
        (
            "Opt-M (scheme 1b, 16×f32/f64)",
            ExecutionMode::OptM,
            Scheme::FusedLanes,
        ),
    ];

    let mut reference_time = None;
    println!(
        "{:<32} {:>12} {:>12} {:>10}",
        "mode", "s/step", "ns/day", "speedup"
    );
    for (label, mode, scheme) in modes {
        let (sim_box, atoms) = lattice.build_perturbed(0.05, 11);
        let potential = make_potential(
            TersoffParams::silicon(),
            TersoffOptions {
                mode,
                scheme,
                width: 0,
                threads: 1,
                backend: None,
            },
        );
        let mut sim = Simulation::builder(atoms, sim_box, potential)
            .masses(vec![units::mass::SI])
            .temperature(1000.0, 3)
            .build()
            .expect("valid simulation setup");
        let report = sim.run(n_steps);
        let per_step = report.seconds_per_step();
        let speedup = reference_time.map(|r: f64| r / per_step).unwrap_or(1.0);
        if reference_time.is_none() {
            reference_time = Some(per_step);
        }
        println!(
            "{label:<32} {per_step:>12.5} {:>12.4} {speedup:>9.2}x",
            report.ns_per_day
        );
    }

    println!("\nEvery mode x scheme, one force evaluation at a time on 32 768 atoms:");
    println!("`cargo run --release -p bench --bin fig4_single_thread`.");
}
