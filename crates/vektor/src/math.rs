//! Vectorized transcendental functions.
//!
//! The Tersoff kernel spends most of its flops in `exp`, `sin`/`cos` (the
//! smooth cutoff) and `pow` (the bond-order term). This module provides
//! the lane-wise wrappers around the scalar libm calls that the Tersoff
//! kernels call in every precision mode ([`exp`], [`sin`], [`cos`],
//! [`powf`]) — the one place to swap in a vector math implementation, such
//! as the "lower accuracy math functions" the paper credits for part of the
//! single-precision speedup on ARM/x86 (Sec. VI-A). [`powf_uniform`] and
//! [`rsqrt`] are timed by the benchmark's `vektor.*_ns_per_lane` rows.

use crate::real::Real;
use crate::vector::SimdF;

/// Lane-wise natural exponential (full accuracy).
#[inline(always)]
pub fn exp<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(|x| x.exp())
}

/// Lane-wise sine (full accuracy).
#[inline(always)]
pub fn sin<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(|x| x.sin())
}

/// Lane-wise cosine (full accuracy).
#[inline(always)]
pub fn cos<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(|x| x.cos())
}

/// Lane-wise power with per-lane exponents (the bond-order term, whose
/// exponent `n` is a per-species parameter).
#[inline(always)]
pub fn powf<T: Real, const W: usize>(v: SimdF<T, W>, e: SimdF<T, W>) -> SimdF<T, W> {
    v.zip_map(e, |x, e| x.powf(e))
}

/// Lane-wise power with a uniform exponent.
#[inline(always)]
pub fn powf_uniform<T: Real, const W: usize>(v: SimdF<T, W>, e: T) -> SimdF<T, W> {
    v.map(|x| x.powf(e))
}

/// Inverse square root: `1/sqrt(x)` per lane. On hardware this is the rsqrt +
/// Newton-Raphson idiom; here the scalar sqrt is accurate enough and LLVM
/// picks the best lowering.
#[inline(always)]
pub fn rsqrt<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(|x| x.sqrt().recip())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_sin_cos_match_std_per_lane() {
        let v = SimdF::<f64, 4>::from_array([0.0, 1.0, -2.0, 0.5]);
        let (e, s, c) = (exp(v), sin(v), cos(v));
        for i in 0..4 {
            assert_eq!(e.lane(i), v.lane(i).exp());
            assert_eq!(s.lane(i), v.lane(i).sin());
            assert_eq!(c.lane(i), v.lane(i).cos());
        }
    }

    #[test]
    fn powf_per_lane_and_uniform() {
        let p = powf_uniform(SimdF::<f64, 2>::from_array([4.0, 9.0]), 0.5);
        assert_eq!(p.to_array(), [2.0, 3.0]);
        let base = SimdF::<f64, 2>::from_array([4.0, 2.0]);
        let p = powf(base, SimdF::from_array([0.5, 3.0]));
        assert_eq!(p.to_array(), [2.0, 8.0]);
    }

    #[test]
    fn rsqrt_matches_definition() {
        let v = SimdF::<f64, 4>::from_array([1.0, 4.0, 16.0, 0.25]);
        let r = rsqrt(v);
        assert_eq!(r.to_array(), [1.0, 0.5, 0.25, 2.0]);
    }
}
