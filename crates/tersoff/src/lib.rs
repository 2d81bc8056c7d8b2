//! # tersoff — the paper's core contribution
//!
//! A performance-portable implementation of the Tersoff multi-body potential,
//! reproducing *The Vectorization of the Tersoff Multi-Body Potential: An
//! Exercise in Performance Portability* (Höhnerbach, Ismail, Bientinesi,
//! SC'16):
//!
//! * [`params`] — published parameter sets (Si, C, Ge, SiC), LAMMPS-format
//!   parsing, and the derived constants the kernels pre-compute.
//! * [`functions`] — the potential functions f_C, f_R, f_A, g, b_ij, ζ and
//!   their analytic derivatives, generic over the compute precision.
//! * [`reference`] — the `Ref` baseline: LAMMPS' Algorithm-2 structure in
//!   double precision.
//! * [`scalar_opt`] — the scalar optimizations of Sec. IV (Algorithm 3):
//!   pre-computed ζ derivatives with a `kmax` scratch + fallback, reduced
//!   parameter indirection, neighbor-list filtering.
//! * [`filter`] — the "filter" component that feeds the vector kernels.
//! * [`vector_kernel`] — the vectorized potential functions over
//!   `vektor::SimdF` lanes.
//! * [`kernel`] — the one vector-kernel shell the three schemes share.
//! * [`scheme_a`], [`scheme_b`], [`scheme_c`] — the three I/J mappings of
//!   Fig. 1 as loop bodies of that shell: J-across-lanes,
//!   fused-IJ-across-lanes (with the fast-forward K loop of Sec. IV-C and
//!   conflict-handled force scatter), and I-across-lanes (the GPU/warp
//!   analog).
//! * [`stats`] — lane-occupancy and operation instrumentation used to
//!   regenerate Fig. 2.
//! * [`driver`] — the `Ref` / `Opt-D` / `Opt-S` / `Opt-M` execution modes of
//!   Sec. V-E as ready-made [`md_core::potential::Potential`] objects.

// Kernel code indexes spatial components and lanes with explicit
// `for d in 0..3` / `for lane in 0..W` loops to mirror the paper's
// pseudocode; clippy's iterator rewrites are deliberately not applied.
#![allow(clippy::needless_range_loop)]

pub mod accumulate;
pub mod driver;
pub mod filter;
pub mod functions;
pub mod kernel;
pub mod pair_kernel;
pub mod params;
pub mod reference;
pub mod scalar_opt;
pub mod scheme_a;
pub mod scheme_b;
pub mod scheme_c;
pub mod stats;
pub mod vector_kernel;

pub use driver::{make_potential, ExecutionMode, Scheme, TersoffOptions};
pub use params::{TersoffParam, TersoffParams};
pub use reference::TersoffRef;
pub use scalar_opt::{TersoffOptD, TersoffOptM, TersoffOptS, TersoffScalarOpt};
pub use scheme_a::TersoffSchemeA;
pub use scheme_b::TersoffSchemeB;
pub use scheme_c::TersoffSchemeC;
pub use stats::KernelStats;

/// Commonly used items.
pub mod prelude {
    pub use crate::driver::{make_potential, ExecutionMode, Scheme, TersoffOptions};
    pub use crate::params::{TersoffParam, TersoffParams};
    pub use crate::reference::TersoffRef;
    pub use crate::scalar_opt::{TersoffOptD, TersoffOptM, TersoffOptS};
    pub use crate::scheme_a::TersoffSchemeA;
    pub use crate::scheme_b::TersoffSchemeB;
    pub use crate::scheme_c::TersoffSchemeC;
    pub use crate::stats::KernelStats;
}
