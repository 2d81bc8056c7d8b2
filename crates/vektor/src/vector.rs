//! The real-valued vector type `SimdF<T, W>`.
//!
//! One value per lane, `W` lanes, element type `T: Real`. All arithmetic is
//! lane-wise. Comparisons produce a [`SimdM`] mask; `select` combines two
//! vectors under a mask. This is the type the Tersoff computational kernels
//! are written against; instantiating `W = 1` yields the scalar back-end and
//! larger widths yield the SSE/AVX/IMCI/AVX-512/warp analogues.
//!
//! The inherent methods here are the lane loops at the caller's own codegen
//! (the [`crate::PortableBackend`] instance). Kernel bodies call the same
//! operations through a `B: SimdBackend` type parameter (`B::gather`,
//! `B::select`, ...) and are launched via [`crate::multiversion_entries!`],
//! which monomorphizes the whole body once per ISA instance — there is no
//! per-op runtime routing.

use crate::mask::SimdM;
use crate::real::Real;
use crate::simd_backend::{PortableBackend, SimdBackend};
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A vector of `W` lanes of the floating-point type `T`.
#[derive(Copy, Clone, Debug, PartialEq)]
#[repr(align(64))]
pub struct SimdF<T: Real, const W: usize>(pub [T; W]);

impl<T: Real, const W: usize> SimdF<T, W> {
    /// Number of lanes.
    pub const WIDTH: usize = W;

    /// Broadcast a scalar to all lanes.
    #[inline(always)]
    pub fn splat(x: T) -> Self {
        SimdF([x; W])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(T::ZERO)
    }

    /// All lanes one.
    #[inline(always)]
    pub fn one() -> Self {
        Self::splat(T::ONE)
    }

    /// Construct from an array of lane values.
    #[inline(always)]
    pub fn from_array(a: [T; W]) -> Self {
        SimdF(a)
    }

    /// Lane values as an array.
    #[inline(always)]
    pub fn to_array(self) -> [T; W] {
        self.0
    }

    /// Build a vector by calling `f(lane)` for each lane index.
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> T) -> Self {
        let mut out = [T::ZERO; W];
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = f(i);
        }
        SimdF(out)
    }

    /// Read one lane.
    #[inline(always)]
    pub fn lane(&self, i: usize) -> T {
        self.0[i]
    }

    /// Write one lane.
    #[inline(always)]
    pub fn set_lane(&mut self, i: usize, x: T) {
        self.0[i] = x;
    }

    /// Contiguous (aligned or unaligned) load of `W` consecutive elements
    /// starting at `slice[offset]`.
    ///
    /// Panics if the slice is too short; the caller (the "filter" component
    /// in the paper's terminology) is responsible for padding its buffers to
    /// a multiple of the vector width.
    #[inline(always)]
    pub fn load(slice: &[T], offset: usize) -> Self {
        let mut out = [T::ZERO; W];
        out.copy_from_slice(&slice[offset..offset + W]);
        SimdF(out)
    }

    /// Contiguous load that tolerates a short tail: missing lanes are filled
    /// with `fill` and the returned mask marks the lanes actually loaded.
    #[inline(always)]
    pub fn load_partial(slice: &[T], offset: usize, fill: T) -> (Self, SimdM<W>) {
        let avail = slice.len().saturating_sub(offset).min(W);
        let mut out = [fill; W];
        if avail > 0 {
            out[..avail].copy_from_slice(&slice[offset..offset + avail]);
        }
        (SimdF(out), SimdM::prefix(avail))
    }

    /// Contiguous store of all lanes into `slice[offset..offset + W]`.
    #[inline(always)]
    pub fn store(self, slice: &mut [T], offset: usize) {
        slice[offset..offset + W].copy_from_slice(&self.0);
    }

    /// Store only the lanes whose mask bit is set.
    #[inline(always)]
    pub fn store_masked(self, slice: &mut [T], offset: usize, mask: SimdM<W>) {
        for i in 0..W {
            if mask.lane(i) {
                slice[offset + i] = self.0[i];
            }
        }
    }

    /// Gather `slice[idx[lane]]` into each lane. Out-of-use lanes should be
    /// masked by the caller; indices must be in bounds.
    #[inline(always)]
    pub fn gather(slice: &[T], idx: &[usize; W]) -> Self {
        PortableBackend::gather(slice, idx)
    }

    /// Masked gather: inactive lanes receive `fill` and their indices are not
    /// dereferenced (so they may be out of range).
    #[inline(always)]
    pub fn gather_masked(slice: &[T], idx: &[usize; W], mask: SimdM<W>, fill: T) -> Self {
        PortableBackend::gather_masked(slice, idx, mask, fill)
    }

    /// Lane-wise map with an arbitrary scalar function. The math wrappers in
    /// [`crate::math`] are built on this.
    #[inline(always)]
    pub fn map(self, mut f: impl FnMut(T) -> T) -> Self {
        let mut out = self.0;
        for lane in out.iter_mut() {
            *lane = f(*lane);
        }
        SimdF(out)
    }

    /// Lane-wise zip-map of two vectors.
    #[inline(always)]
    pub fn zip_map(self, other: Self, mut f: impl FnMut(T, T) -> T) -> Self {
        let mut out = self.0;
        for i in 0..W {
            out[i] = f(out[i], other.0[i]);
        }
        SimdF(out)
    }

    /// Lane-wise select: `mask ? if_true : if_false`.
    #[inline(always)]
    pub fn select(mask: SimdM<W>, if_true: Self, if_false: Self) -> Self {
        PortableBackend::select(mask, if_true, if_false)
    }

    /// Zero the lanes where the mask is not set.
    #[inline(always)]
    pub fn masked(self, mask: SimdM<W>) -> Self {
        Self::select(mask, self, Self::zero())
    }

    /// Fused multiply-add: `self * a + b` per lane (always fused: one
    /// rounding on every instance and target).
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        PortableBackend::mul_add(self, a, b)
    }

    /// Lane-wise square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        self.map(|x| x.sqrt())
    }

    /// Lane-wise reciprocal.
    #[inline(always)]
    pub fn recip(self) -> Self {
        self.map(|x| x.recip())
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        self.map(|x| x.abs())
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        self.zip_map(o, |a, b| a.min(b))
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        self.zip_map(o, |a, b| a.max(b))
    }

    /// Clamp every lane to `[lo, hi]`.
    #[inline(always)]
    pub fn clamp(self, lo: T, hi: T) -> Self {
        self.map(|x| x.max(lo).min(hi))
    }

    /// Lane-wise comparison: `self < o`.
    #[inline(always)]
    pub fn simd_lt(self, o: Self) -> SimdM<W> {
        let mut m = [false; W];
        for i in 0..W {
            m[i] = self.0[i] < o.0[i];
        }
        SimdM::from_array(m)
    }

    /// Lane-wise comparison: `self <= o`.
    #[inline(always)]
    pub fn simd_le(self, o: Self) -> SimdM<W> {
        let mut m = [false; W];
        for i in 0..W {
            m[i] = self.0[i] <= o.0[i];
        }
        SimdM::from_array(m)
    }

    /// Lane-wise comparison: `self > o`.
    #[inline(always)]
    pub fn simd_gt(self, o: Self) -> SimdM<W> {
        o.simd_lt(self)
    }

    /// Lane-wise comparison: `self >= o`.
    #[inline(always)]
    pub fn simd_ge(self, o: Self) -> SimdM<W> {
        o.simd_le(self)
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

    /// Horizontal sum of all lanes (in-register reduction, building block 2).
    ///
    /// The reduction is a pairwise tree (`buf[i] += buf[n-1-i]`, halving):
    /// better rounding behaviour than a straight left-to-right sum. Every
    /// instance runs this one association, so the result is bitwise
    /// independent of the backend a kernel runs.
    #[inline(always)]
    pub fn horizontal_sum(self) -> T {
        PortableBackend::horizontal_sum(self)
    }

    /// Horizontal sum of the active lanes only.
    #[inline(always)]
    pub fn masked_sum(self, mask: SimdM<W>) -> T {
        self.masked(mask).horizontal_sum()
    }

    /// Horizontal maximum of all lanes.
    #[inline(always)]
    pub fn horizontal_max(self) -> T {
        let mut m = self.0[0];
        for i in 1..W {
            m = m.max(self.0[i]);
        }
        m
    }

    /// Horizontal minimum of all lanes.
    #[inline(always)]
    pub fn horizontal_min(self) -> T {
        let mut m = self.0[0];
        for i in 1..W {
            m = m.min(self.0[i]);
        }
        m
    }

    /// Convert every lane to `f64` (used when a reduced-precision kernel
    /// hands its results to a double-precision accumulator — the mixed
    /// precision mode `Opt-M`).
    #[inline(always)]
    pub fn to_f64_array(self) -> [f64; W] {
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = self.0[i].to_f64();
        }
        out
    }

    /// Convert a vector of one precision into another lane by lane.
    #[inline(always)]
    pub fn convert<U: Real>(self) -> SimdF<U, W> {
        let mut out = [U::ZERO; W];
        for i in 0..W {
            out[i] = U::from_f64(self.0[i].to_f64());
        }
        SimdF(out)
    }

    /// True if every lane is finite.
    #[inline(always)]
    pub fn all_finite(self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

impl<T: Real, const W: usize> Default for SimdF<T, W> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<T: Real, const W: usize> Index<usize> for SimdF<T, W> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.0[i]
    }
}

impl<T: Real, const W: usize> IndexMut<usize> for SimdF<T, W> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.0[i]
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<T: Real, const W: usize> $trait for SimdF<T, W> {
            type Output = Self;
            #[inline(always)]
            #[allow(clippy::assign_op_pattern)] // $op is generic over the four operators
            fn $method(self, rhs: Self) -> Self {
                let mut out = self.0;
                for i in 0..W {
                    out[i] = out[i] $op rhs.0[i];
                }
                SimdF(out)
            }
        }
        impl<T: Real, const W: usize> $trait<T> for SimdF<T, W> {
            type Output = Self;
            #[inline(always)]
            #[allow(clippy::assign_op_pattern)]
            fn $method(self, rhs: T) -> Self {
                let mut out = self.0;
                for lane in out.iter_mut() {
                    *lane = *lane $op rhs;
                }
                SimdF(out)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

macro_rules! impl_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<T: Real, const W: usize> $trait for SimdF<T, W> {
            #[inline(always)]
            fn $method(&mut self, rhs: Self) {
                for i in 0..W {
                    self.0[i] $op rhs.0[i];
                }
            }
        }
        impl<T: Real, const W: usize> $trait<T> for SimdF<T, W> {
            #[inline(always)]
            fn $method(&mut self, rhs: T) {
                for lane in self.0.iter_mut() {
                    *lane $op rhs;
                }
            }
        }
    };
}

impl_assign!(AddAssign, add_assign, +=);
impl_assign!(SubAssign, sub_assign, -=);
impl_assign!(MulAssign, mul_assign, *=);
impl_assign!(DivAssign, div_assign, /=);

impl<T: Real, const W: usize> Neg for SimdF<T, W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = self.0;
        for lane in out.iter_mut() {
            *lane = -*lane;
        }
        SimdF(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V4 = SimdF<f64, 4>;

    #[test]
    fn splat_and_lanes() {
        let v = V4::splat(2.5);
        assert_eq!(v.to_array(), [2.5; 4]);
        assert_eq!(v.lane(3), 2.5);
        let mut v = v;
        v.set_lane(1, -1.0);
        assert_eq!(v.lane(1), -1.0);
    }

    #[test]
    fn arithmetic_is_lanewise() {
        let a = V4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = V4::from_array([4.0, 3.0, 2.0, 1.0]);
        assert_eq!((a + b).to_array(), [5.0; 4]);
        assert_eq!((a - b).to_array(), [-3.0, -1.0, 1.0, 3.0]);
        assert_eq!((a * b).to_array(), [4.0, 6.0, 6.0, 4.0]);
        assert_eq!((a / b).to_array(), [0.25, 2.0 / 3.0, 1.5, 4.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!((a + 1.0).to_array(), [2.0, 3.0, 4.0, 5.0]);
        assert_eq!((a * 2.0).to_array(), [2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn assign_ops() {
        let mut a = V4::splat(1.0);
        a += V4::splat(2.0);
        a *= 3.0;
        a -= V4::splat(1.0);
        a /= 2.0;
        assert_eq!(a.to_array(), [4.0; 4]);
    }

    #[test]
    fn load_store_roundtrip() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let v = V4::load(&data, 3);
        assert_eq!(v.to_array(), [3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 10];
        v.store(&mut out, 2);
        assert_eq!(&out[2..6], &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn load_partial_fills_and_masks() {
        let data = [1.0, 2.0];
        let (v, m) = V4::load_partial(&data, 0, 9.0);
        assert_eq!(v.to_array(), [1.0, 2.0, 9.0, 9.0]);
        assert_eq!(m.count(), 2);
        let (v2, m2) = V4::load_partial(&data, 5, 7.0);
        assert_eq!(v2.to_array(), [7.0; 4]);
        assert!(m2.none());
    }

    #[test]
    fn masked_store_leaves_inactive_lanes() {
        let v = V4::splat(5.0);
        let mut out = vec![1.0; 4];
        v.store_masked(&mut out, 0, SimdM::from_array([true, false, true, false]));
        assert_eq!(out, vec![5.0, 1.0, 5.0, 1.0]);
    }

    #[test]
    fn gather_and_masked_gather() {
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        let v = V4::gather(&data, &[4, 0, 2, 2]);
        assert_eq!(v.to_array(), [50.0, 10.0, 30.0, 30.0]);
        let m = SimdM::from_array([true, false, true, false]);
        let v = V4::gather_masked(&data, &[1, 999, 3, 999], m, -1.0);
        assert_eq!(v.to_array(), [20.0, -1.0, 40.0, -1.0]);
    }

    #[test]
    fn comparisons_and_select() {
        let a = V4::from_array([1.0, 5.0, 3.0, 0.0]);
        let b = V4::splat(2.5);
        let m = a.simd_lt(b);
        assert_eq!(m.to_array(), [true, false, false, true]);
        assert_eq!(a.simd_ge(b).to_array(), [false, true, true, false]);
        let sel = V4::select(m, V4::splat(1.0), V4::splat(-1.0));
        assert_eq!(sel.to_array(), [1.0, -1.0, -1.0, 1.0]);
        assert_eq!(a.simd_eq(a).count(), 4);
    }

    #[test]
    fn horizontal_reductions() {
        let a = V4::from_array([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.horizontal_sum(), 10.0);
        assert_eq!(a.horizontal_max(), 4.0);
        assert_eq!(a.horizontal_min(), 1.0);
        let m = SimdM::from_array([true, false, true, false]);
        assert_eq!(a.masked_sum(m), 4.0);
    }

    #[test]
    fn horizontal_sum_odd_width() {
        let a = SimdF::<f64, 3>::from_array([1.0, 2.0, 4.0]);
        assert_eq!(a.horizontal_sum(), 7.0);
        let b = SimdF::<f64, 1>::from_array([5.0]);
        assert_eq!(b.horizontal_sum(), 5.0);
    }

    #[test]
    fn fma_matches_scalar() {
        let a = V4::splat(2.0);
        let b = V4::splat(3.0);
        let c = V4::splat(1.0);
        assert_eq!(a.mul_add(b, c).to_array(), [7.0; 4]);
    }

    #[test]
    fn math_helpers() {
        let a = V4::from_array([4.0, 9.0, 16.0, 25.0]);
        assert_eq!(a.sqrt().to_array(), [2.0, 3.0, 4.0, 5.0]);
        assert_eq!(V4::splat(2.0).recip().to_array(), [0.5; 4]);
        assert_eq!(V4::splat(-3.0).abs().to_array(), [3.0; 4]);
        assert_eq!(a.clamp(5.0, 20.0).to_array(), [5.0, 9.0, 16.0, 20.0]);
    }

    #[test]
    fn precision_conversion() {
        let a = SimdF::<f32, 4>::from_array([1.5, 2.5, 3.5, 4.5]);
        let d: SimdF<f64, 4> = a.convert();
        assert_eq!(d.to_array(), [1.5, 2.5, 3.5, 4.5]);
        assert_eq!(a.to_f64_array(), [1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = V4::splat(1.0);
        assert!(a.all_finite());
        a.set_lane(2, f64::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn from_fn_indexes_lanes() {
        let v = V4::from_fn(|i| i as f64 * 2.0);
        assert_eq!(v.to_array(), [0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn width_one_scalar_backend() {
        let a = SimdF::<f64, 1>::splat(3.0);
        let b = SimdF::<f64, 1>::splat(4.0);
        assert_eq!((a * b).horizontal_sum(), 12.0);
        assert!(a.simd_lt(b).all());
    }
}
