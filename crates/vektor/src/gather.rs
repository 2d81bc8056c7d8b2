//! Adjacent-gather operations (building block 4).
//!
//! In the Tersoff kernel the two dominant irregular access patterns are:
//!
//! * loading the x/y/z coordinates of a vector of atoms, i.e. three adjacent
//!   values per lane from an `[x, y, z, x, y, z, ...]` (AoS) buffer, and
//! * loading a small record of potential parameters for a vector of type
//!   triplets.
//!
//! The paper calls these *adjacent gathers* (Sec. V-A, item 4): instead of
//! issuing one hardware gather per field, the backend may load contiguous
//! chunks and transpose in registers. Here the transposition is expressed
//! directly; LLVM lowers it to shuffles when profitable, and on machines
//! without fast native gathers this is exactly the code one wants.

use crate::mask::SimdM;
use crate::real::Real;
use crate::simd_backend::{PortableBackend, SimdBackend};
use crate::vector::SimdF;

/// Gather three adjacent values (e.g. x, y, z of a position) per lane from an
/// AoS buffer with a compile-time stride.
///
/// `buffer` is indexed as `buffer[idx[lane] * STRIDE + component]`. Returns
/// one vector per component. Inactive lanes produce zeros.
///
/// Portable form of [`adjacent_gather3_in`], which kernel bodies call with
/// their own instance.
#[inline(always)]
pub fn adjacent_gather3<T: Real, const W: usize, const STRIDE: usize>(
    buffer: &[T],
    idx: &[usize; W],
    mask: SimdM<W>,
) -> [SimdF<T, W>; 3] {
    adjacent_gather3_in::<PortableBackend, T, W, STRIDE>(buffer, idx, mask)
}

/// [`adjacent_gather3`] on an explicit backend — what the kernel bodies
/// call.
#[inline(always)]
pub fn adjacent_gather3_in<B: SimdBackend, T: Real, const W: usize, const STRIDE: usize>(
    buffer: &[T],
    idx: &[usize; W],
    mask: SimdM<W>,
) -> [SimdF<T, W>; 3] {
    B::adjacent_gather3::<T, W, STRIDE>(buffer, idx, mask)
}

/// Scatter-*accumulate* three per-lane values into an AoS buffer, assuming
/// the active lanes target distinct records. Debug builds assert the
/// distinctness precondition; use [`crate::conflict::scatter_add3`] when the
/// guarantee does not hold (scheme 1b). Portable form of
/// [`adjacent_scatter_add3_distinct_in`].
#[inline(always)]
pub fn adjacent_scatter_add3_distinct<T: Real, const W: usize, const STRIDE: usize>(
    buffer: &mut [T],
    idx: &[usize; W],
    mask: SimdM<W>,
    values: [SimdF<T, W>; 3],
) {
    adjacent_scatter_add3_distinct_in::<PortableBackend, T, W, STRIDE>(buffer, idx, mask, values)
}

/// [`adjacent_scatter_add3_distinct`] on an explicit backend: distinct
/// targets let the AVX-512 implementation use hardware scatter (gather,
/// add, scatter — no ordering constraints). The debug-build distinctness
/// assertion guards every backend.
#[inline(always)]
pub fn adjacent_scatter_add3_distinct_in<
    B: SimdBackend,
    T: Real,
    const W: usize,
    const STRIDE: usize,
>(
    buffer: &mut [T],
    idx: &[usize; W],
    mask: SimdM<W>,
    values: [SimdF<T, W>; 3],
) {
    // Allocation-free distinctness check (the hot path must not allocate
    // even in debug builds, where the allocation-audit tests run).
    #[cfg(debug_assertions)]
    for a in 0..W {
        for b in (a + 1)..W {
            debug_assert!(
                !(mask.lane(a) && mask.lane(b) && idx[a] == idx[b]),
                "adjacent_scatter_add3_distinct called with conflicting lane targets"
            );
        }
    }
    B::scatter_add3_distinct::<T, W, STRIDE>(buffer, idx, mask, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aos_buffer(n: usize) -> Vec<f64> {
        // atom i -> (100 i, 100 i + 1, 100 i + 2)
        (0..n)
            .flat_map(|i| {
                [
                    100.0 * i as f64,
                    100.0 * i as f64 + 1.0,
                    100.0 * i as f64 + 2.0,
                ]
            })
            .collect()
    }

    #[test]
    fn gather3_reads_components() {
        let buf = aos_buffer(6);
        let idx = [5usize, 0, 3, 3];
        let [x, y, z] = adjacent_gather3::<f64, 4, 3>(&buf, &idx, SimdM::all_true());
        assert_eq!(x.to_array(), [500.0, 0.0, 300.0, 300.0]);
        assert_eq!(y.to_array(), [501.0, 1.0, 301.0, 301.0]);
        assert_eq!(z.to_array(), [502.0, 2.0, 302.0, 302.0]);
    }

    #[test]
    fn gather3_masks_inactive_lanes() {
        let buf = aos_buffer(2);
        // Lane 1 points far out of range but is inactive, so it must not be
        // dereferenced.
        let idx = [1usize, usize::MAX / 8, 0, 0];
        let mask = SimdM::from_array([true, false, true, false]);
        let [x, _, _] = adjacent_gather3::<f64, 4, 3>(&buf, &idx, mask);
        assert_eq!(x.to_array(), [100.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_add_distinct_accumulates() {
        let mut buf = vec![1.0f64; 9];
        let idx = [0usize, 1, 2, 0];
        let mask = SimdM::from_array([true, true, true, false]); // lane 3 (dup) inactive
        let vals = [SimdF::splat(1.0), SimdF::splat(2.0), SimdF::splat(3.0)];
        adjacent_scatter_add3_distinct::<f64, 4, 3>(&mut buf, &idx, mask, vals);
        assert_eq!(buf, vec![2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "conflicting lane targets")]
    #[cfg(debug_assertions)]
    fn scatter_add_distinct_panics_on_conflict_in_debug() {
        let mut buf = vec![0.0f64; 6];
        let idx = [0usize, 0, 1, 1];
        adjacent_scatter_add3_distinct::<f64, 4, 3>(
            &mut buf,
            &idx,
            SimdM::all_true(),
            [SimdF::splat(1.0); 3],
        );
    }

    #[test]
    fn gather_with_wider_stride() {
        // Stride-4 AoS layout (x, y, z, padding) as used by padded position
        // buffers for alignment.
        let buf: Vec<f64> = (0..4)
            .flat_map(|i| [i as f64, i as f64 + 0.1, i as f64 + 0.2, -1.0])
            .collect();
        let idx = [3usize, 1];
        let [x, y, z] = adjacent_gather3::<f64, 2, 4>(&buf, &idx, SimdM::all_true());
        assert_eq!(x.to_array(), [3.0, 1.0]);
        assert_eq!(y.to_array(), [3.1, 1.1]);
        assert_eq!(z.to_array(), [3.2, 1.2]);
    }
}
