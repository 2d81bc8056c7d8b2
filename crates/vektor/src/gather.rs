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
//! directly as a lane loop; LLVM lowers it to shuffles when profitable, and
//! on machines without fast native gathers this is exactly the code one
//! wants. Both functions are bounds-checked: an active out-of-range index
//! panics, an inactive lane's index is never looked at.

use crate::mask::SimdM;
use crate::real::Real;
use crate::vector::SimdF;

/// Gather three adjacent values (e.g. x, y, z of a position) per lane from an
/// AoS buffer with a compile-time stride.
///
/// `buffer` is indexed as `buffer[idx[lane] * STRIDE + component]`. Returns
/// one vector per component. Inactive lanes produce zeros and their indices
/// are not dereferenced.
#[inline(always)]
pub fn adjacent_gather3<T: Real, const W: usize, const STRIDE: usize>(
    buffer: &[T],
    idx: &[usize; W],
    mask: SimdM<W>,
) -> [SimdF<T, W>; 3] {
    let mut x = [T::ZERO; W];
    let mut y = [T::ZERO; W];
    let mut z = [T::ZERO; W];
    for lane in 0..W {
        if mask.lane(lane) {
            let base = idx[lane] * STRIDE;
            x[lane] = buffer[base];
            y[lane] = buffer[base + 1];
            z[lane] = buffer[base + 2];
        }
    }
    [SimdF(x), SimdF(y), SimdF(z)]
}

/// Scatter-*accumulate* three per-lane values into an AoS buffer, assuming
/// the active lanes target distinct records (scheme 1a's j-force update).
/// Debug builds assert the distinctness precondition; use
/// [`crate::conflict::scatter_add3`] when the guarantee does not hold
/// (scheme 1b).
#[inline(always)]
pub fn adjacent_scatter_add3_distinct<T: Real, const W: usize, const STRIDE: usize>(
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
    // With distinct targets every cell receives one `+=`, so the lane-order
    // loop is also the unordered scatter.
    crate::conflict::scatter_add3::<T, W, STRIDE>(buffer, idx, mask, values)
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
    fn scatter_add_distinct_checks_active_indices_only() {
        let idx = [0usize, usize::MAX, 1, 2];
        let vals = [SimdF::splat(1.0); 3];
        // An inactive lane's garbage index is never looked at ...
        let mut buf = vec![0.0f64; 9];
        let mask = SimdM::from_array([true, false, true, true]);
        adjacent_scatter_add3_distinct::<f64, 4, 3>(&mut buf, &idx, mask, vals);
        assert_eq!(buf, vec![1.0; 9]);
        // ... an active one past the end panics, its `+2` component included.
        for len in [6, 8] {
            let mut buf = vec![0.0f64; len];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                adjacent_scatter_add3_distinct::<f64, 4, 3>(&mut buf, &idx, mask, vals)
            }));
            assert!(result.is_err(), "len {len}");
        }
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
