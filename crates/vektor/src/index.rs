//! Integer index vectors.
//!
//! The fused vectorization scheme (1b) and the GPU-style scheme (1c) advance
//! a *different* neighbor-list position in every lane ("fast-forwarding",
//! Sec. IV-C of the paper). [`SimdI`] is the per-lane integer state those
//! schemes manipulate: it supports lane-wise arithmetic, comparisons against
//! per-lane bounds and masked increments.

use crate::mask::SimdM;
use std::ops::{Add, AddAssign, Sub};

/// A vector of `W` lanes of `i64` indices.
///
/// `i64` is wide enough for any atom or neighbor index that occurs in
/// practice, and using a signed type lets `-1` serve as the conventional
/// "no index" sentinel, exactly like the padding value used by the
/// USER-INTEL neighbor-list layout.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(align(64))]
pub struct SimdI<const W: usize>(pub [i64; W]);

impl<const W: usize> SimdI<W> {
    /// Sentinel value for an inactive / padded lane.
    pub const INVALID: i64 = -1;

    /// Broadcast one index to all lanes.
    #[inline(always)]
    pub fn splat(x: i64) -> Self {
        SimdI([x; W])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(0)
    }

    /// All lanes set to the invalid sentinel.
    #[inline(always)]
    pub fn invalid() -> Self {
        Self::splat(Self::INVALID)
    }

    /// Construct from an array.
    #[inline(always)]
    pub fn from_array(a: [i64; W]) -> Self {
        SimdI(a)
    }

    /// Construct from a `usize` array (e.g. packed pair indices).
    #[inline(always)]
    pub fn from_usize_array(a: [usize; W]) -> Self {
        let mut out = [0i64; W];
        for i in 0..W {
            out[i] = a[i] as i64;
        }
        SimdI(out)
    }

    /// Lane values as an array.
    #[inline(always)]
    pub fn to_array(self) -> [i64; W] {
        self.0
    }

    /// Read one lane.
    #[inline(always)]
    pub fn lane(&self, i: usize) -> i64 {
        self.0[i]
    }

    /// Write one lane.
    #[inline(always)]
    pub fn set_lane(&mut self, i: usize, x: i64) {
        self.0[i] = x;
    }

    /// Build from a function of the lane number.
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> i64) -> Self {
        let mut out = [0i64; W];
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = f(i);
        }
        SimdI(out)
    }

    /// Lane-wise select.
    #[inline(always)]
    pub fn select(mask: SimdM<W>, if_true: Self, if_false: Self) -> Self {
        let mut out = if_false.0;
        for i in 0..W {
            if mask.lane(i) {
                out[i] = if_true.0[i];
            }
        }
        SimdI(out)
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

    /// Lane-wise `self >= o`.
    #[inline(always)]
    pub fn simd_ge(self, o: Self) -> SimdM<W> {
        !self.simd_lt(o)
    }

    /// Lane-wise equality.
    #[inline(always)]
    pub fn simd_eq(self, o: Self) -> SimdM<W> {
        let mut m = [false; W];
        for i in 0..W {
            m[i] = self.0[i] == o.0[i];
        }
        SimdM::from_array(m)
    }

    /// Detect write conflicts: for every lane, is there an *earlier* lane
    /// holding the same index? This mirrors the AVX-512CD `vpconflictd`
    /// use-case discussed in Sec. IV-B / V-A of the paper. Lanes flagged
    /// `true` cannot be scattered blindly and must be serialized.
    #[inline(always)]
    pub fn conflict_mask(self, active: SimdM<W>) -> SimdM<W> {
        let mut m = [false; W];
        for i in 1..W {
            if !active.lane(i) {
                continue;
            }
            for j in 0..i {
                if active.lane(j) && self.0[j] == self.0[i] {
                    m[i] = true;
                    break;
                }
            }
        }
        SimdM::from_array(m)
    }

    /// Gather `i64` values from a slice (used for neighbor-list lookups where
    /// the list itself holds integers).
    #[inline(always)]
    pub fn gather(slice: &[i64], idx: &[usize; W]) -> Self {
        let mut out = [0i64; W];
        for i in 0..W {
            out[i] = slice[idx[i]];
        }
        SimdI(out)
    }

    /// Horizontal maximum.
    #[inline(always)]
    pub fn horizontal_max(self) -> i64 {
        let mut m = self.0[0];
        for i in 1..W {
            m = m.max(self.0[i]);
        }
        m
    }

    /// Horizontal minimum.
    #[inline(always)]
    pub fn horizontal_min(self) -> i64 {
        let mut m = self.0[0];
        for i in 1..W {
            m = m.min(self.0[i]);
        }
        m
    }
}

impl<const W: usize> Default for SimdI<W> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const W: usize> Add for SimdI<W> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..W {
            out[i] += rhs.0[i];
        }
        SimdI(out)
    }
}

impl<const W: usize> Add<i64> for SimdI<W> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: i64) -> Self {
        let mut out = self.0;
        for lane in out.iter_mut() {
            *lane += rhs;
        }
        SimdI(out)
    }
}

impl<const W: usize> Sub for SimdI<W> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..W {
            out[i] -= rhs.0[i];
        }
        SimdI(out)
    }
}

impl<const W: usize> AddAssign for SimdI<W> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..W {
            self.0[i] += rhs.0[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type I4 = SimdI<4>;

    #[test]
    fn splat_lane_access() {
        let mut v = I4::splat(7);
        assert_eq!(v.to_array(), [7; 4]);
        v.set_lane(2, -1);
        assert_eq!(v.lane(2), -1);
    }

    #[test]
    fn from_fn_indexes_lanes() {
        assert_eq!(I4::from_fn(|i| (i * i) as i64).to_array(), [0, 1, 4, 9]);
    }

    #[test]
    fn arithmetic() {
        let a = I4::from_array([1, 2, 3, 4]);
        let b = I4::splat(10);
        assert_eq!((a + b).to_array(), [11, 12, 13, 14]);
        assert_eq!((b - a).to_array(), [9, 8, 7, 6]);
        assert_eq!((a + 1).to_array(), [2, 3, 4, 5]);
        let mut c = a;
        c += a;
        assert_eq!(c.to_array(), [2, 4, 6, 8]);
    }

    #[test]
    fn masked_increment_only_touches_active_lanes() {
        let v = I4::zero();
        let m = SimdM::from_array([true, false, true, false]);
        assert_eq!(v.masked_increment(m).to_array(), [1, 0, 1, 0]);
    }

    #[test]
    fn comparisons() {
        let a = I4::from_array([0, 5, 2, 7]);
        let b = I4::splat(3);
        assert_eq!(a.simd_lt(b).to_array(), [true, false, true, false]);
        assert_eq!(a.simd_ge(b).to_array(), [false, true, false, true]);
        assert_eq!(a.simd_eq(a).count(), 4);
    }

    #[test]
    fn conflict_detection() {
        let idx = I4::from_array([3, 5, 3, 5]);
        let all = SimdM::all_true();
        let conflicts = idx.conflict_mask(all);
        assert_eq!(conflicts.to_array(), [false, false, true, true]);

        // Deactivating the duplicate lanes removes the conflict.
        let m = SimdM::from_array([true, true, false, false]);
        assert!(idx.conflict_mask(m).none());

        let distinct = I4::from_array([0, 1, 2, 3]);
        assert!(distinct.conflict_mask(all).none());
    }

    #[test]
    fn usize_conversion() {
        assert_eq!(I4::from_usize_array([1, 2, 3, 4]).to_array(), [1, 2, 3, 4]);
    }

    #[test]
    fn gather_and_reductions() {
        let data = [10i64, 20, 30, 40];
        let v = I4::gather(&data, &[3, 2, 1, 0]);
        assert_eq!(v.to_array(), [40, 30, 20, 10]);
        assert_eq!(v.horizontal_max(), 40);
        assert_eq!(v.horizontal_min(), 10);
    }

    #[test]
    fn select_behaves_lanewise() {
        let m = SimdM::from_array([true, false, false, true]);
        let out = I4::select(m, I4::splat(1), I4::splat(9));
        assert_eq!(out.to_array(), [1, 9, 9, 1]);
    }
}
