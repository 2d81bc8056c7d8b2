//! Cross-crate integration tests: full simulations driven through the public
//! API, exercising every execution mode the paper evaluates, the domain
//! decomposition, and the energy-conservation / precision claims.

#![allow(clippy::needless_range_loop)] // stencil-style 0..3 loops are intentional

use lammps_tersoff_vector::prelude::*;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::ComputeOutput;

fn silicon_simulation(
    mode: ExecutionMode,
    scheme: Scheme,
    steps: u64,
) -> (Simulation<Box<dyn Potential>>, RunReport) {
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.03, 17);
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
        .temperature(600.0, 5)
        .thermo_every(10)
        .build()
        .expect("valid simulation setup");
    let report = sim.run(steps);
    (sim, report)
}

#[test]
fn nve_energy_is_conserved_with_the_reference_solver() {
    let (sim, report) = silicon_simulation(ExecutionMode::Ref, Scheme::Scalar, 100);
    assert!(report.max_drift < 5e-5, "Ref drift {}", report.max_drift);
    assert!(sim.current_thermo().temperature > 100.0);
    assert_eq!(report.total_steps, 100);
}

#[test]
fn nve_energy_is_conserved_with_every_optimized_mode() {
    for (mode, scheme) in [
        (ExecutionMode::OptD, Scheme::JLanes),
        (ExecutionMode::OptD, Scheme::FusedLanes),
        (ExecutionMode::OptS, Scheme::FusedLanes),
        (ExecutionMode::OptM, Scheme::FusedLanes),
        (ExecutionMode::OptM, Scheme::ILanes),
    ] {
        let (_, report) = silicon_simulation(mode, scheme, 100);
        // Single precision drifts more than double but must stay small; the
        // paper's Fig. 3 bound for a *million* steps is 2e-5 on a much larger
        // system, so a short run must be far tighter than 1e-3.
        let bound = if mode == ExecutionMode::OptD {
            5e-5
        } else {
            1e-3
        };
        assert!(
            report.max_drift < bound,
            "{mode:?}/{scheme:?} drift {}",
            report.max_drift
        );
    }
}

#[test]
fn all_execution_modes_agree_on_the_trajectory_start() {
    // One force evaluation on identical coordinates: Opt-D matches Ref to
    // double precision, Opt-S/M to single precision.
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.06, 23);
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));

    let mut out_ref = ComputeOutput::zeros(atoms.n_total());
    make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode: ExecutionMode::Ref,
            scheme: Scheme::Scalar,
            width: 0,
            threads: 1,
            backend: None,
        },
    )
    .compute(&atoms, &sim_box, &list, &mut out_ref);

    for mode in [
        ExecutionMode::OptD,
        ExecutionMode::OptS,
        ExecutionMode::OptM,
    ] {
        for scheme in [
            Scheme::Scalar,
            Scheme::JLanes,
            Scheme::FusedLanes,
            Scheme::ILanes,
        ] {
            let mut out = ComputeOutput::zeros(atoms.n_total());
            make_potential(
                TersoffParams::silicon(),
                TersoffOptions {
                    mode,
                    scheme,
                    width: 0,
                    threads: 1,
                    backend: None,
                },
            )
            .compute(&atoms, &sim_box, &list, &mut out);
            let tol = if mode == ExecutionMode::OptD {
                1e-9
            } else {
                3e-5
            };
            let rel = ((out.energy - out_ref.energy) / out_ref.energy).abs();
            assert!(rel < tol, "{mode:?}/{scheme:?} energy off by {rel}");
            let force_tol = if mode == ExecutionMode::OptD {
                1e-8
            } else {
                5e-3
            };
            assert!(
                out.max_force_difference(&out_ref) < force_tol,
                "{mode:?}/{scheme:?} force diff {}",
                out.max_force_difference(&out_ref)
            );
        }
    }
}

/// Silicon setup shared by the decomposed-run tests: hot enough to migrate
/// atoms and rebuild neighbor lists within a short run.
fn decomposed_setup<P: Potential>(potential: P) -> SimulationBuilder<P> {
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.04, 31);
    Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(1200.0, 5)
        .thermo_every(10)
        .skin(0.7)
}

fn force_bits(sim: &Simulation<impl Potential>) -> Vec<[u64; 3]> {
    sim.atoms.f[..sim.atoms.n_local]
        .iter()
        .map(|f| [f[0].to_bits(), f[1].to_bits(), f[2].to_bits()])
        .collect()
}

#[test]
fn decomposed_tersoff_run_is_bitwise_identical_to_single_domain() {
    let params = TersoffParams::silicon();
    let mut single = decomposed_setup(TersoffRef::new(params.clone()))
        .build()
        .expect("valid setup");
    let reference = single.run(40);

    let mut dom = DomainSimulation::new(decomposed_setup(TersoffRef::new(params)), [2, 2, 2])
        .expect("valid grid");
    let report = dom.run(40);

    assert_eq!(
        report.final_thermo.total.to_bits(),
        reference.final_thermo.total.to_bits(),
        "decomposed energy {} vs {}",
        report.final_thermo.total,
        reference.final_thermo.total
    );
    assert_eq!(report.total_rebuilds, reference.total_rebuilds);
    assert_eq!(
        force_bits(dom.sim()),
        force_bits(&single),
        "decomposed forces are not bitwise identical"
    );
}

#[test]
fn decomposed_vectorized_tersoff_matches_too() {
    // The vectorized kernel runs on the canonical arrays inside the
    // decomposed timestep, so the conflict-handled scatter of scheme 1b must
    // also reproduce the single-domain trajectory bit for bit.
    let params = TersoffParams::silicon();
    let mut single = decomposed_setup(TersoffSchemeB::<f64, f64, 8>::new(params.clone()))
        .build()
        .expect("valid setup");
    let reference = single.run(40);

    let mut dom = DomainSimulation::new(
        decomposed_setup(TersoffSchemeB::<f64, f64, 8>::new(params)),
        [2, 1, 2],
    )
    .expect("valid grid");
    let report = dom.run(40);

    assert_eq!(
        report.final_thermo.total.to_bits(),
        reference.final_thermo.total.to_bits()
    );
    assert_eq!(force_bits(dom.sim()), force_bits(&single));

    // The decomposition must be live machinery, not a pass-through.
    assert!(dom.ghost_fraction() > 0.0, "ranks must hold ghost atoms");
    let mut collected = Vec::new();
    dom.collect_forces_into(&mut collected);
    assert_eq!(collected.len(), dom.sim().atoms.n_local);
}

#[test]
fn sic_simulation_with_mixed_precision_runs_stably() {
    let (sim_box, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.02, 3);
    let potential = make_potential(TersoffParams::silicon_carbide(), TersoffOptions::default());
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI, units::mass::C])
        .temperature(300.0, 9)
        .thermo_every(10)
        .build()
        .expect("valid SiC setup");
    let report = sim.run(60);
    assert!(report.max_drift < 1e-3);
    assert!(sim.current_thermo().potential < 0.0);
    assert!(sim.atoms.x.iter().all(|&p| sim.sim_box.contains(p)));
}

#[test]
fn fused_scheme_fills_its_pair_lanes_on_silicon() {
    // Scheme 1b packs (i, j) pairs across lanes, so on crystalline silicon
    // the pair vectors stay more than 90% full.
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build();
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
    let mut pot = TersoffSchemeB::<f32, f64, 16>::new(TersoffParams::silicon()).with_stats();
    let mut out = ComputeOutput::zeros(atoms.n_total());
    pot.compute(&atoms, &sim_box, &list, &mut out);
    assert!(pot.stats.pair_occupancy() > 0.9);
}
