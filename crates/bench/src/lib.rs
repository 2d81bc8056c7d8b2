//! Shared helpers for the figure binaries: workload construction, kernel
//! timing, and the small formatting utilities they print their tables with.

use md_core::atom::AtomData;
use md_core::lattice::Lattice;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::{ComputeOutput, Potential};
use md_core::simbox::SimBox;
use md_core::units;
use std::time::Instant;

/// A prepared silicon workload: atoms, box and a skin-extended neighbor list.
pub struct SiliconWorkload {
    /// The simulation box.
    pub sim_box: SimBox,
    /// Atom data.
    pub atoms: AtomData,
    /// Neighbor list built with the Tersoff cutoff + 1 Å skin.
    pub neighbors: NeighborList,
}

impl SiliconWorkload {
    /// Build a perturbed crystalline-silicon workload with roughly `n_atoms`
    /// atoms (the lattice builder rounds up to whole unit cells).
    pub fn new(n_atoms: usize) -> Self {
        let lattice = Lattice::silicon_with_atoms(n_atoms);
        let (sim_box, atoms) = lattice.build_perturbed(0.05, 2024);
        let neighbors =
            NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
        SiliconWorkload {
            sim_box,
            atoms,
            neighbors,
        }
    }

    /// Number of atoms actually generated.
    pub fn n_atoms(&self) -> usize {
        self.atoms.n_local
    }

    /// Run one force computation with the given potential, returning the
    /// output (for correctness cross-checks).
    pub fn compute(&self, potential: &mut dyn Potential) -> ComputeOutput {
        let mut out = ComputeOutput::zeros(self.atoms.n_total());
        potential.compute(&self.atoms, &self.sim_box, &self.neighbors, &mut out);
        out
    }

    /// Measure the wall-clock seconds per force evaluation for a potential,
    /// averaged over `reps` evaluations after one warm-up evaluation.
    pub fn time_kernel(&self, potential: &mut dyn Potential, reps: usize) -> f64 {
        let mut out = ComputeOutput::zeros(self.atoms.n_total());
        potential.compute(&self.atoms, &self.sim_box, &self.neighbors, &mut out);
        let start = Instant::now();
        for _ in 0..reps.max(1) {
            potential.compute(&self.atoms, &self.sim_box, &self.neighbors, &mut out);
        }
        start.elapsed().as_secs_f64() / reps.max(1) as f64
    }
}

/// Write a machine-readable benchmark report to `BENCH_<name>.json` in the
/// directory named by `BENCH_JSON_DIR` (default: current directory). The
/// `body` must already be valid JSON; this helper only frames and writes it.
pub fn write_bench_json(name: &str, body: &str) -> std::io::Result<String> {
    use std::io::Write as _;
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = format!("{dir}/BENCH_{name}.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    Ok(path)
}

/// Convert seconds-per-step into the paper's ns/day metric (1 fs timestep).
pub fn ns_per_day(seconds_per_step: f64) -> f64 {
    units::ns_per_day(units::DEFAULT_TIMESTEP, seconds_per_step)
}

/// Print a standard figure header.
pub fn figure_header(figure: &str, caption: &str, workload: &str) {
    println!("==============================================================");
    println!("{figure}: {caption}");
    println!("workload: {workload}");
    println!("==============================================================");
}

/// Print one row of a paper-vs-reproduction table.
pub fn row(label: &str, paper: &str, repro: &str) {
    println!("{label:<28} {paper:>22} {repro:>22}");
}

/// Print the table header used by [`row`].
pub fn row_header() {
    println!(
        "{:<28} {:>22} {:>22}",
        "series", "paper", "this reproduction"
    );
    println!("{:-<74}", "");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tersoff::driver::{make_potential, ExecutionMode, TersoffOptions};
    use tersoff::params::TersoffParams;

    #[test]
    fn workload_builds_and_times() {
        let w = SiliconWorkload::new(64);
        assert!(w.n_atoms() >= 64);
        for mode in [ExecutionMode::Ref, ExecutionMode::OptM] {
            let options = TersoffOptions {
                mode,
                ..TersoffOptions::default()
            };
            let mut pot = make_potential(TersoffParams::silicon(), options);
            let t = w.time_kernel(pot.as_mut(), 1);
            assert!(t > 0.0 && ns_per_day(t).is_finite());
        }
    }

    #[test]
    fn compute_gives_bound_crystal() {
        let w = SiliconWorkload::new(64);
        let mut pot = make_potential(TersoffParams::silicon(), TersoffOptions::default());
        let out = w.compute(pot.as_mut());
        assert!(out.energy < 0.0);
    }
}
