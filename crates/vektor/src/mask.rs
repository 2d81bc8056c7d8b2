//! Vector masks and vector-wide conditionals (building block 1).
//!
//! A [`SimdM<W>`] holds one boolean per lane. The Tersoff kernels use
//! vector-wide conditionals ([`SimdM::all`], [`SimdM::any`], [`SimdM::none`])
//! to decide whether a whole vector can take a branch together — this is what
//! the paper relies on to avoid "excessive masking" (Sec. V-A), and on the
//! GPU back-end the same operation is a warp vote.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

/// A per-lane boolean mask of width `W`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SimdM<const W: usize>(pub [bool; W]);

impl<const W: usize> SimdM<W> {
    /// All lanes set.
    #[inline(always)]
    pub fn splat(b: bool) -> Self {
        SimdM([b; W])
    }

    /// All lanes true.
    #[inline(always)]
    pub fn all_true() -> Self {
        Self::splat(true)
    }

    /// All lanes false.
    #[inline(always)]
    pub fn all_false() -> Self {
        Self::splat(false)
    }

    /// Construct from an array of lane flags.
    #[inline(always)]
    pub fn from_array(a: [bool; W]) -> Self {
        SimdM(a)
    }

    /// Lane values as an array.
    #[inline(always)]
    pub fn to_array(self) -> [bool; W] {
        self.0
    }

    /// Read one lane.
    #[inline(always)]
    pub fn lane(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Set one lane.
    #[inline(always)]
    pub fn set_lane(&mut self, i: usize, b: bool) {
        self.0[i] = b;
    }

    /// Vector-wide conditional: true if the condition holds in **every** lane.
    #[inline(always)]
    pub fn all(&self) -> bool {
        self.0.iter().all(|&b| b)
    }

    /// Vector-wide conditional: true if the condition holds in **any** lane.
    #[inline(always)]
    pub fn any(&self) -> bool {
        self.0.iter().any(|&b| b)
    }

    /// True if no lane is set.
    #[inline(always)]
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// Number of active lanes (used by the lane-occupancy instrumentation
    /// that reproduces Fig. 2 of the paper).
    #[inline(always)]
    pub fn count(&self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }

    /// A mask with the first `n` lanes active — the standard tail mask used
    /// when a loop trip count is not a multiple of the vector width.
    #[inline(always)]
    pub fn prefix(n: usize) -> Self {
        let mut m = [false; W];
        for (i, lane) in m.iter_mut().enumerate() {
            *lane = i < n;
        }
        SimdM(m)
    }

    /// `self & !other`.
    #[inline(always)]
    pub fn and_not(self, other: Self) -> Self {
        self & !other
    }
}

impl<const W: usize> BitAnd for SimdM<W> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = [false; W];
        for i in 0..W {
            out[i] = self.0[i] & rhs.0[i];
        }
        SimdM(out)
    }
}

impl<const W: usize> BitOr for SimdM<W> {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = [false; W];
        for i in 0..W {
            out[i] = self.0[i] | rhs.0[i];
        }
        SimdM(out)
    }
}

impl<const W: usize> Not for SimdM<W> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        let mut out = [false; W];
        for i in 0..W {
            out[i] = !self.0[i];
        }
        SimdM(out)
    }
}

impl<const W: usize> BitAndAssign for SimdM<W> {
    #[inline(always)]
    fn bitand_assign(&mut self, rhs: Self) {
        *self = *self & rhs;
    }
}

impl<const W: usize> BitOrAssign for SimdM<W> {
    #[inline(always)]
    fn bitor_assign(&mut self, rhs: Self) {
        *self = *self | rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_queries() {
        let t = SimdM::<8>::all_true();
        let f = SimdM::<8>::all_false();
        assert!(t.all() && t.any() && !t.none());
        assert!(!f.all() && !f.any() && f.none());
        assert_eq!(t.count(), 8);
        assert_eq!(f.count(), 0);
    }

    #[test]
    fn prefix_masks() {
        let m = SimdM::<4>::prefix(2);
        assert_eq!(m.to_array(), [true, true, false, false]);
        assert_eq!(SimdM::<4>::prefix(0).count(), 0);
        assert_eq!(SimdM::<4>::prefix(4).count(), 4);
        assert_eq!(SimdM::<4>::prefix(99).count(), 4);
    }

    #[test]
    fn boolean_algebra() {
        let a = SimdM::<4>::from_array([true, true, false, false]);
        let b = SimdM::<4>::from_array([true, false, true, false]);
        assert_eq!((a & b).to_array(), [true, false, false, false]);
        assert_eq!((a | b).to_array(), [true, true, true, false]);
        assert_eq!((!a).to_array(), [false, false, true, true]);
        assert_eq!(a.and_not(b).to_array(), [false, true, false, false]);
    }

    #[test]
    fn lane_set_and_get() {
        let mut m = SimdM::<4>::all_false();
        m.set_lane(2, true);
        assert!(m.lane(2));
        assert!(!m.lane(0));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn assign_ops() {
        let mut a = SimdM::<4>::from_array([true, true, false, false]);
        let b = SimdM::<4>::from_array([true, false, true, false]);
        a &= b;
        assert_eq!(a.to_array(), [true, false, false, false]);
        a |= b;
        assert_eq!(a.to_array(), [true, false, true, false]);
    }

    #[test]
    fn width_one_behaves_like_bool() {
        let t = SimdM::<1>::splat(true);
        assert!(t.all() && t.any());
        assert_eq!(t.count(), 1);
    }
}
