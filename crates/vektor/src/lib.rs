//! # vektor — portable vector abstraction for the Tersoff vectorization
//!
//! This crate implements the "building blocks" described in Section V of
//! *The Vectorization of the Tersoff Multi-Body Potential: An Exercise in
//! Performance Portability* (Höhnerbach, Ismail, Bientinesi, SC'16):
//!
//! 1. **Vector-wide conditionals** — [`SimdM::all`], [`SimdM::any`]
//!    allow a kernel to branch only when the condition holds for every lane,
//!    preventing excessive masking.
//! 2. **In-register reductions** — [`SimdF::horizontal_sum`] and the masked
//!    variants reduce a whole vector to a scalar before touching memory.
//! 3. **Conflict-write handling** — [`conflict::scatter_add3`] serializes
//!    accumulation when several lanes target the same memory location, the
//!    situation that arises in vectorization scheme (1b) of the paper.
//! 4. **Adjacent-gather** — [`gather::adjacent_gather3`] and friends load
//!    short contiguous runs (positions, per-type parameters) for a vector of
//!    indices, the pattern that dominates parameter lookup in the kernel.
//!
//! The abstraction is *width-oblivious*: algorithms are written once, generic
//! over the element type `T: Real` and the lane count `W`, and the same code
//! instantiates the scalar backend (`W = 1`), short-vector backends
//! (`W = 2, 4` — SSE/AVX-class), long-vector backends (`W = 8, 16` —
//! IMCI/AVX-512-class) and a warp-like backend (`W = 32` — the GPU analog).
//! On stable Rust the lanes are expressed as fixed-size arrays; the per-lane
//! loops are trivially unrollable and auto-vectorizable by LLVM, which plays
//! the role the hand-written intrinsics back-ends play in the paper. Every
//! operation has that one implementation — a method of [`SimdF`], [`SimdM`]
//! or [`SimdI`], or a free function of [`gather`], [`conflict`] or [`math`]
//! — and [`multiversion_entries!`] compiles a kernel written against it once
//! per ISA instance ([`BackendImpl`]). The crate contains no `std::arch`
//! intrinsic: per-op wrappers measured 3–14× slower than the inlined lane
//! loops (`src/README.md`).

// Lane loops are written as explicit `for i in 0..W { out[i] = ... }` —
// mirroring the SIMD semantics the code models and keeping the pattern LLVM
// recognizes for vectorization — so the iterator-style rewrite clippy
// suggests is deliberately not applied.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conflict;
pub mod dispatch;
pub mod gather;
pub mod index;
pub mod mask;
pub mod math;
pub mod real;
pub mod vector;

pub use dispatch::BackendImpl;
pub use index::SimdI;
pub use mask::SimdM;
pub use real::Real;
pub use vector::SimdF;

/// Commonly used items, for `use vektor::prelude::*`.
pub mod prelude {
    pub use crate::dispatch::BackendImpl;
    pub use crate::index::SimdI;
    pub use crate::mask::SimdM;
    pub use crate::real::Real;
    pub use crate::vector::SimdF;
    pub use crate::{conflict, dispatch, gather, math};
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn prelude_reexports_compile() {
        let v: SimdF<f64, 4> = SimdF::splat(1.0);
        let m: SimdM<4> = v.simd_gt(SimdF::splat(0.0));
        assert!(m.all());
    }
}
