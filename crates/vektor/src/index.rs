//! Integer index vectors.
//!
//! The fused vectorization scheme (1b) and the GPU-style scheme (1c) advance
//! a *different* neighbor-list position in every lane ("fast-forwarding",
//! Sec. IV-C of the paper). [`SimdI`] is that per-lane cursor: compared
//! against per-lane bounds and advanced by masked increments.

use crate::mask::SimdM;

/// A vector of `W` lanes of `i64` indices.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(align(64))]
pub struct SimdI<const W: usize>(pub [i64; W]);

impl<const W: usize> SimdI<W> {
    /// Construct from an array.
    #[inline(always)]
    pub fn from_array(a: [i64; W]) -> Self {
        SimdI(a)
    }

    /// Read one lane.
    #[inline(always)]
    pub fn lane(&self, i: usize) -> i64 {
        self.0[i]
    }

    /// Add 1 to the lanes selected by the mask — the "advance this lane"
    /// primitive of the fast-forward loop.
    #[inline(always)]
    pub fn masked_increment(self, mask: SimdM<W>) -> Self {
        let mut out = self.0;
        for i in 0..W {
            if mask.lane(i) {
                out[i] += 1;
            }
        }
        SimdI(out)
    }

    /// Lane-wise `self < o`.
    #[inline(always)]
    pub fn simd_lt(self, o: Self) -> SimdM<W> {
        let mut m = [false; W];
        for i in 0..W {
            m[i] = self.0[i] < o.0[i];
        }
        SimdM::from_array(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type I4 = SimdI<4>;

    #[test]
    fn masked_increment_only_touches_active_lanes() {
        let v = I4::from_array([0, 5, 0, -1]);
        let m = SimdM::from_array([true, false, true, false]);
        assert_eq!(v.masked_increment(m).0, [1, 5, 1, -1]);
        assert_eq!(v.masked_increment(m).lane(2), 1);
    }

    #[test]
    fn comparisons() {
        let a = I4::from_array([0, 5, 2, 7]);
        let b = I4::from_array([3; 4]);
        assert_eq!(a.simd_lt(b).to_array(), [true, false, true, false]);
        assert!(a.simd_lt(a).none());
    }
}
