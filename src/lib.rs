//! # lammps-tersoff-vector
//!
//! A from-scratch Rust reproduction of *The Vectorization of the Tersoff
//! Multi-Body Potential: An Exercise in Performance Portability*
//! (Höhnerbach, Ismail, Bientinesi — SC'16).
//!
//! The workspace is organized as three library crates plus a benchmark
//! harness; this facade crate re-exports their public APIs, adds the
//! declarative [`scenario`] layer, and hosts the runnable examples and the
//! cross-crate integration tests:
//!
//! * [`vektor`] — the portable vector abstraction (the paper's "building
//!   blocks": vector-wide conditionals, in-register reductions, conflict
//!   write handling, adjacent gathers).
//! * [`md_core`] — the molecular-dynamics substrate standing in for LAMMPS
//!   (atoms, box, lattices, neighbor lists, velocity-Verlet, thermo, timers,
//!   the observer-driven simulation loop behind
//!   [`md_core::SimulationBuilder`], and the rank-parallel
//!   [`md_core::domain`] decomposition whose distributed timestep is
//!   bitwise identical to the single-domain driver). Its
//!   [`md_core::runtime`] module is
//!   the one thread owner in the system: the whole timestep — the
//!   allocation-free [`md_core::force_engine`], neighbor rebuilds, ghost
//!   exchange, integration, reductions — dispatches through one shared
//!   `ParallelRuntime`, with results bitwise identical across thread
//!   counts.
//! * [`tersoff`] — the Tersoff potential: reference, scalar-optimized
//!   (Algorithm 3) and the three vectorization schemes (1a/1b/1c), in double,
//!   single and mixed precision.
//! * [`scenario`] — serializable experiment descriptions: the specs in
//!   `scenarios/` that the `tersoff-run` binary executes (including an
//!   optional `decomposition` rank grid and `dump.format` selection).
//! * [`server`] — the `tersoff-serve` HTTP front end: scenario submission
//!   over the wire, typed job status, streamed NDJSON events, and
//!   Prometheus `/metrics`, all on the long-running
//!   [`md_core::jobs::JobEngine`].
//!
//! ## Quickstart
//!
//! Build a simulation declaratively with [`md_core::SimulationBuilder`];
//! `run` drives the registered observers and returns a
//! [`md_core::RunReport`]:
//!
//! ```
//! use lammps_tersoff_vector::prelude::*;
//!
//! // A small perturbed silicon crystal under the paper's Opt-M kernel
//! // (scheme 1b, 16 f32 lanes), threaded across 2 workers by the
//! // allocation-free force engine.
//! let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.05, 42);
//! let potential = make_potential(
//!     TersoffParams::silicon(),
//!     TersoffOptions::default().with_threads(2),
//! );
//!
//! let mut sim = Simulation::builder(atoms, sim_box, potential)
//!     .masses(vec![units::mass::SI])
//!     .temperature(300.0, 1)     // Maxwell–Boltzmann velocities
//!     .thermo_every(5)
//!     .build()                    // typed BuildError instead of panics
//!     .expect("valid setup");
//!
//! let report = sim.run(10);
//! assert_eq!(report.steps, 10);
//! assert!(report.max_drift < 1e-3);
//! assert!(!sim.thermo_history().is_empty());
//! ```
//!
//! The same experiment as *data* — a [`scenario::Scenario`] spec that can
//! live in a JSON file under `scenarios/` and run via
//! `cargo run -p bench --bin tersoff-run -- scenarios/`:
//!
//! ```
//! use lammps_tersoff_vector::scenario::Scenario;
//!
//! let spec = r#"{
//!   "name": "doc_example",
//!   "system":    {"lattice": "silicon", "cells": [2, 2, 2], "temperature": 300.0},
//!   "potential": {"params": "silicon", "mode": "Opt-M", "scheme": "1b", "threads": 2},
//!   "run":       {"steps": 10, "thermo_every": 5},
//!   "max_drift": 1e-3
//! }"#;
//! let scenario = Scenario::from_json(spec).expect("valid spec");
//! let outcome = scenario.execute(None).expect("runs");
//! assert!(outcome.drift_violations().is_empty());
//! ```

#![forbid(unsafe_code)]

pub use md_core;
pub use tersoff;
pub use vektor;

pub mod json;
pub mod scenario;
pub mod server;

/// One-stop prelude for the examples and downstream users.
pub mod prelude {
    pub use crate::scenario::{Scenario, ScenarioError, ScenarioReport};
    pub use md_core::prelude::*;
    pub use tersoff::prelude::*;
    pub use vektor::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_pulls_in_all_crates() {
        let params = TersoffParams::silicon();
        assert_eq!(params.n_elements(), 1);
        let v: SimdF<f64, 4> = SimdF::splat(1.0);
        assert_eq!(v.horizontal_sum(), 4.0);
        let lattice = Lattice::silicon([1, 1, 1]);
        assert_eq!(lattice.n_atoms(), 8);
    }
}
