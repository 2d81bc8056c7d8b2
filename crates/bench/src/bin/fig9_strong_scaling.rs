//! Figure 9: strong scalability — the same system spread over more and more
//! ranks. The paper runs 2 million Si atoms on 1–8 SuperMIC nodes (196 MPI
//! ranks at the top end) and reports 2.5× (CPU only) / 6.5× (with
//! accelerators) over Ref at 8 nodes, with the communication share of the
//! timestep growing as the per-rank subdomain shrinks.
//!
//! This reproduction measures the **real distributed timestep** — the
//! in-process rank-parallel [`DomainSimulation`] (per-rank integration and
//! neighbor builds, atom migration, ghost exchange as halo messages) — over
//! a grid sweep of the committed `scenarios/fig9_strong_scaling.json`
//! workload, verifying every decomposition is **bitwise identical** to the
//! single-domain driver and reporting the measured communication fraction
//! from the per-stage timers. It prints a table and writes nothing; the
//! decomposed step's cost is the ledger's `domain.step_overhead_ratio`
//! (`benchmark/`). Pass a cell count to scale up (e.g.
//! `fig9_strong_scaling 40` ≈ 512 000 atoms).

use bench::{figure_header, ns_per_day, row, row_header};
use lammps_tersoff_vector::scenario::{Scenario, Variant};
use md_core::domain::DomainSimulation;
use md_core::timer::Stage;
use std::time::Instant;

/// The spec is embedded so the binary runs from any working directory; the
/// file in `scenarios/` stays the single source of truth.
const SPEC: &str = include_str!("../../../../scenarios/fig9_strong_scaling.json");

/// The rank grids swept, smallest first. Grids whose subdomain cells would
/// be thinner than the neighbor build cutoff for the chosen system are
/// skipped (reported, not failed) — the same validation `tersoff-run`
/// applies to a declared `decomposition`.
const GRIDS: [[usize; 3]; 4] = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]];

fn main() {
    let mut scenario = Scenario::from_json(SPEC).expect("embedded scenario is valid");
    if let Some(cells) = std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        let cells: usize = std::cmp::max(cells, 1);
        scenario.system.cells = [cells, cells, cells];
    }
    // The sweep below sets the grid per run; the declared decomposition only
    // picks the default grid `tersoff-run` executes.
    scenario.decomposition = None;
    let cells = scenario.system.cells;
    let n_atoms = scenario.n_atoms();
    let steps = scenario.run.steps;
    let variant = Variant {
        mode: scenario.potential.mode,
        threads: scenario.potential.threads,
    };

    figure_header(
        "Figure 9",
        "strong scaling over the rank-parallel domain decomposition (measured)",
        &format!(
            "{}x{}x{} cells = {n_atoms} perturbed Si atoms, {} mode, \
             {} engine thread(s), {steps} steps per run",
            cells[0],
            cells[1],
            cells[2],
            variant.mode.label(),
            variant.threads
        ),
    );

    // Single-domain reference trajectory: the bitwise anchor every grid must
    // reproduce, and the denominator of the efficiency column.
    let mut single = scenario
        .simulation_builder(variant)
        .expect("embedded scenario builds")
        .build()
        .expect("embedded scenario builds");
    let start = Instant::now();
    let reference = single.run(steps);
    let single_seconds = start.elapsed().as_secs_f64();
    let ref_bits = reference.final_thermo.total.to_bits();
    println!(
        "single-domain reference: E = {:.6} eV, {:.3} s wall\n",
        reference.final_thermo.total, single_seconds
    );

    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>10} {:>10} {:>9} {:>8}",
        "grid", "ranks", "s/step", "ns/day", "comm %", "ghost", "migrated", "bitwise"
    );
    println!("{:-<82}", "");

    for grid in GRIDS {
        let builder = scenario
            .simulation_builder(variant)
            .expect("embedded scenario builds");
        let mut dom = match DomainSimulation::new(builder, grid) {
            Ok(dom) => dom,
            Err(e) => {
                println!(
                    "{:<8} skipped: {e}",
                    format!("{}x{}x{}", grid[0], grid[1], grid[2])
                );
                continue;
            }
        };
        let start = Instant::now();
        let report = dom.run(steps);
        let wall = start.elapsed().as_secs_f64();
        let seconds_per_step = wall / steps.max(1) as f64;

        let timers = &dom.sim().timers;
        let total: f64 = Stage::ALL.iter().map(|&s| timers.seconds(s)).sum();
        let comm = timers.seconds(Stage::Comm) + timers.seconds(Stage::Migrate);
        let comm_fraction = comm / total.max(1e-12);
        let ghost_fraction = dom.ghost_fraction();
        let migrations = dom.migrations();
        let bitwise = report.final_thermo.total.to_bits() == ref_bits;

        println!(
            "{:<8} {:>6} {:>12.6} {:>12.3} {:>10.2} {:>10.3} {:>9} {:>8}",
            format!("{}x{}x{}", grid[0], grid[1], grid[2]),
            dom.n_ranks(),
            seconds_per_step,
            ns_per_day(seconds_per_step),
            100.0 * comm_fraction,
            ghost_fraction,
            migrations,
            if bitwise { "yes" } else { "NO" },
        );
        assert!(
            bitwise,
            "grid {grid:?} diverged from the single-domain trajectory"
        );
    }

    println!();
    row_header();
    row(
        "trajectory across ranks",
        "one physical answer",
        "bitwise identical (asserted)",
    );
    row(
        "comm share as ranks grow",
        "rises (surface/volume)",
        "see measured comm % column",
    );
    println!("\nNote: in-process ranks share one host, so s/step measures decomposition");
    println!("overhead rather than cluster speedup.");
}
