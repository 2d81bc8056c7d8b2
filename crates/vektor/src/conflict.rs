//! Conflict-write handling (building block 3).
//!
//! In vectorization scheme (1b) the lanes of one vector hold *different*
//! central atoms i, so nothing guarantees that force updates from different
//! lanes target distinct atoms — the classic scatter conflict. The paper
//! resolves this by serializing the accumulation (the semantics of OpenMP's
//! `ordered simd`), noting that AVX-512CD conflict detection could avoid the
//! serialization in the future. This module provides both:
//!
//! * [`scatter_add3`] — unconditionally serialized, always correct.
//! * [`scatter_add3_conflict_detect`] — the CD-style variant: lanes with
//!   distinct targets are written "in parallel" (a single pass), conflicting
//!   lanes are folded into their first occurrence beforehand, mirroring what
//!   a `vpconflictd`-based loop does in hardware.
//!
//! Both have identical results; property tests in `tests/` assert this.

use crate::index::SimdI;
use crate::mask::SimdM;
use crate::real::Real;
use crate::vector::SimdF;

/// Serialized scatter-accumulate of a 3-component record per lane into an
/// AoS buffer with the given stride, in lane order: the per-atom force update
/// of scheme 1b.
#[inline(always)]
pub fn scatter_add3<T: Real, const W: usize, const STRIDE: usize>(
    target: &mut [T],
    idx: &[usize; W],
    mask: SimdM<W>,
    values: [SimdF<T, W>; 3],
) {
    for lane in 0..W {
        if mask.lane(lane) {
            let base = idx[lane] * STRIDE;
            target[base] += values[0].lane(lane);
            target[base + 1] += values[1].lane(lane);
            target[base + 2] += values[2].lane(lane);
        }
    }
}

/// Conflict-detecting scatter-accumulate (the AVX-512CD analogue).
///
/// Conflicting lanes are first combined *in register* into the earliest lane
/// holding each target index; afterwards each surviving lane performs exactly
/// one read-modify-write. The result is bitwise identical to [`scatter_add3`]
/// when the addition order per target matches lane order, which it does
/// because combination proceeds in increasing lane order.
#[inline(always)]
pub fn scatter_add3_conflict_detect<T: Real, const W: usize, const STRIDE: usize>(
    target: &mut [T],
    idx_vec: SimdI<W>,
    mask: SimdM<W>,
    values: [SimdF<T, W>; 3],
) {
    let conflicts = idx_vec.conflict_mask(mask);
    let mut combined = values;
    let mut write_mask = mask;
    let idx = idx_vec.to_array();

    // Fold each conflicting lane into the first lane with the same target.
    for lane in 0..W {
        if conflicts.lane(lane) {
            // Find the representative (first active lane with same index).
            let mut rep = lane;
            for j in 0..lane {
                if mask.lane(j) && idx[j] == idx[lane] {
                    rep = j;
                    break;
                }
            }
            for c in 0..3 {
                let sum = combined[c].lane(rep) + combined[c].lane(lane);
                combined[c].set_lane(rep, sum);
            }
            write_mask.set_lane(lane, false);
        }
    }

    // Now all active lanes are distinct: one pass, no ordering constraints.
    for lane in 0..W {
        if write_mask.lane(lane) {
            let base = (idx[lane].max(0) as usize) * STRIDE;
            target[base] += combined[0].lane(lane);
            target[base + 1] += combined[1].lane(lane);
            target[base + 2] += combined[2].lane(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_add3_matches_manual_accumulation() {
        let mut t = vec![0.0f64; 9];
        let idx = [2usize, 0, 2, 1];
        let vals = [
            SimdF::from_array([1.0, 2.0, 3.0, 4.0]),
            SimdF::from_array([0.1, 0.2, 0.3, 0.4]),
            SimdF::from_array([10.0, 20.0, 30.0, 40.0]),
        ];
        scatter_add3::<f64, 4, 3>(&mut t, &idx, SimdM::all_true(), vals);
        assert_eq!(t[6], 4.0); // atom 2 x: 1 + 3
        assert_eq!(t[0], 2.0); // atom 0 x
        assert_eq!(t[3], 4.0); // atom 1 x
        assert!((t[7] - 0.4).abs() < 1e-12); // atom 2 y: 0.1 + 0.3
        assert_eq!(t[8], 40.0); // atom 2 z: 10 + 30
    }

    #[test]
    fn conflict_detect_equals_serialized() {
        let idx_arr = [2i64, 0, 2, 2];
        let idx = SimdI::from_array(idx_arr);
        let mask = SimdM::all_true();
        let vals = [
            SimdF::from_array([1.0, 2.0, 3.0, 4.0]),
            SimdF::from_array([5.0, 6.0, 7.0, 8.0]),
            SimdF::from_array([9.0, 10.0, 11.0, 12.0]),
        ];

        let mut serial = vec![0.0f64; 9];
        let idx_usize = [2usize, 0, 2, 2];
        scatter_add3::<f64, 4, 3>(&mut serial, &idx_usize, mask, vals);

        let mut cd = vec![0.0f64; 9];
        scatter_add3_conflict_detect::<f64, 4, 3>(&mut cd, idx, mask, vals);

        for (a, b) in serial.iter().zip(cd.iter()) {
            assert!((a - b).abs() < 1e-12, "serial={a} cd={b}");
        }
    }

    #[test]
    fn conflict_detect_ignores_inactive_conflicts() {
        let idx = SimdI::from_array([0, 0, 1, 1]);
        let mask = SimdM::from_array([true, false, true, false]);
        let vals = [SimdF::splat(1.0), SimdF::splat(2.0), SimdF::splat(3.0)];
        let mut t = vec![0.0f64; 6];
        scatter_add3_conflict_detect::<f64, 4, 3>(&mut t, idx, mask, vals);
        assert_eq!(t, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}
