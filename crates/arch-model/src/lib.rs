//! # arch-model — architecture descriptors and the analytic cost model
//!
//! The paper evaluates the same kernels on eleven machines (Tables I–III):
//! an ARM board, five x86 server generations, two Kepler GPUs and two Xeon
//! Phi generations, plus multi-node clusters of Phi-augmented nodes. That
//! hardware is not available here, so the cross-architecture figures are
//! *projected*: the algorithmic quantities are measured from the real kernels
//! in the `tersoff` crate (lane occupancy, pair counts, precision mode) and
//! combined with a per-machine throughput model whose inputs are public
//! hardware characteristics (core count, frequency, vector width, ISA
//! features). DESIGN.md documents this substitution; EXPERIMENTS.md reports
//! paper-vs-projected values side by side.

#![forbid(unsafe_code)]

pub mod cost;
pub mod machines;

pub use cost::{ClusterConfig, CostModel, Projection, WorkloadShape};
pub use machines::{Accelerator, Machine, MachineKind};

/// Commonly used items.
pub mod prelude {
    pub use crate::cost::{ClusterConfig, CostModel, Projection, WorkloadShape};
    pub use crate::machines::{Accelerator, Machine, MachineKind};
}
