//! Conflict-write handling (building block 3).
//!
//! In vectorization scheme (1b) the lanes of one vector hold *different*
//! central atoms i, so nothing guarantees that force updates from different
//! lanes target distinct atoms — the classic scatter conflict. The paper
//! resolves this by serializing the accumulation (the semantics of OpenMP's
//! `ordered simd`), noting that AVX-512CD conflict detection could avoid the
//! serialization in the future. [`scatter_add3`] is that serialized
//! accumulation: lane order, always correct.

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
}
