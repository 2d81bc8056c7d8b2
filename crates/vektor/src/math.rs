//! Vectorized transcendental functions.
//!
//! The Tersoff kernel spends most of its flops in `exp`, `sin`/`cos` (the
//! smooth cutoff) and `pow` (the bond-order term). This module provides
//! the lane-wise wrappers around the scalar libm calls that the Tersoff
//! kernels call in every precision mode ([`exp`], [`sin`], [`cos`],
//! [`powf`]) — the one place to swap in a vector math implementation — plus
//! *reduced accuracy* polynomial variants (`fast_*`), mirroring the "lower
//! accuracy math functions" the paper credits for part of the
//! single-precision speedup on ARM/x86 (Sec. VI-A). No kernel calls the
//! `fast_*` variants yet; they are kept for the single-precision pipeline's
//! math swap (ROADMAP 1(4)).

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

/// Lane-wise cube (`x³`), the exponent that appears in the Tersoff
/// `exp(λ₃³ (r_ij − r_ik)³)` term.
#[inline(always)]
pub fn cube<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v * v * v
}

/// Reduced-accuracy exponential: a degree-6 polynomial on a range-reduced
/// argument. Relative error is below 3e-6 over the argument range that occurs
/// in the Tersoff kernel (|x| ≲ 70 after clamping), which is ample for the
/// single-precision pipeline whose inputs carry ~1e-7 relative error anyway.
#[inline(always)]
pub fn fast_exp<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(fast_exp_scalar)
}

/// Scalar reduced-accuracy exponential used by [`fast_exp`].
///
/// Algorithm: write `x = k·ln2 + r` with `|r| ≤ ln2/2`, evaluate a degree-6
/// Taylor/minimax hybrid for `exp(r)` and scale by `2^k` via exponent
/// manipulation in `f64` (then round to the lane type).
#[inline(always)]
pub fn fast_exp_scalar<T: Real>(x: T) -> T {
    let xf = x.to_f64();
    // Clamp to the same range the kernel clamps to (LAMMPS uses ±69.0776).
    let xf = xf.clamp(-87.0, 88.0);
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    const LN2: f64 = std::f64::consts::LN_2;
    let k = (xf * LOG2E).round();
    let r = xf - k * LN2;
    // exp(r) for |r| <= ln2/2 ~= 0.3466: degree-6 polynomial.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0))))));
    let scale = f64::from_bits((((k as i64) + 1023) as u64) << 52);
    T::from_f64(p * scale)
}

/// Reduced-accuracy sine for arguments in `[-π/2, π/2]` (the only range the
/// cutoff function needs): degree-7 odd polynomial, max abs error ≈ 6e-7.
#[inline(always)]
pub fn fast_sin_halfpi<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(fast_sin_halfpi_scalar)
}

/// Scalar reduced-accuracy sine on `[-π/2, π/2]`.
#[inline(always)]
pub fn fast_sin_halfpi_scalar<T: Real>(x: T) -> T {
    let xf = x.to_f64();
    let x2 = xf * xf;
    // sin(x) ≈ x (1 - x²/6 + x⁴/120 - x⁶/5040 + x⁸/362880)
    let p =
        xf * (1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 / 362_880.0))));
    T::from_f64(p)
}

/// Reduced-accuracy cosine for arguments in `[-π/2, π/2]`: degree-8 even
/// polynomial.
#[inline(always)]
pub fn fast_cos_halfpi<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(fast_cos_halfpi_scalar)
}

/// Scalar reduced-accuracy cosine on `[-π/2, π/2]`.
#[inline(always)]
pub fn fast_cos_halfpi_scalar<T: Real>(x: T) -> T {
    let xf = x.to_f64();
    let x2 = xf * xf;
    let p = 1.0
        + x2 * (-0.5
            + x2 * (1.0 / 24.0 + x2 * (-1.0 / 720.0 + x2 * (1.0 / 40_320.0 - x2 / 3_628_800.0))));
    T::from_f64(p)
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
    fn exp_matches_std_per_lane() {
        let v = SimdF::<f64, 4>::from_array([0.0, 1.0, -2.0, 0.5]);
        let e = exp(v);
        for i in 0..4 {
            assert_eq!(e.lane(i), v.lane(i).exp());
        }
    }

    #[test]
    fn fast_exp_accuracy_over_kernel_range() {
        // The kernel's exponential arguments: -λ₁·r (≈ -10..0) and the
        // clamped ±69 range of the ζ exponential.
        let mut worst = 0.0f64;
        let mut x = -69.0;
        while x <= 69.0 {
            let approx = fast_exp_scalar::<f64>(x);
            let exact = x.exp();
            let rel = ((approx - exact) / exact).abs();
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 3e-6, "worst relative error {worst}");
    }

    #[test]
    fn fast_exp_of_zero_and_one() {
        assert!((fast_exp_scalar::<f64>(0.0) - 1.0).abs() < 1e-12);
        assert!((fast_exp_scalar::<f64>(1.0) - std::f64::consts::E).abs() < 1e-5);
    }

    #[test]
    fn fast_exp_clamps_extremes() {
        assert!(fast_exp_scalar::<f64>(1000.0).is_finite());
        assert!(fast_exp_scalar::<f64>(-1000.0) >= 0.0);
        assert!(fast_exp_scalar::<f64>(-1000.0) < 1e-30);
    }

    #[test]
    fn fast_sin_cos_accuracy_on_halfpi_range() {
        let mut x = -std::f64::consts::FRAC_PI_2;
        let mut worst_s = 0.0f64;
        let mut worst_c = 0.0f64;
        while x <= std::f64::consts::FRAC_PI_2 {
            worst_s = worst_s.max((fast_sin_halfpi_scalar::<f64>(x) - x.sin()).abs());
            worst_c = worst_c.max((fast_cos_halfpi_scalar::<f64>(x) - x.cos()).abs());
            x += 0.01;
        }
        assert!(worst_s < 1e-5, "sin error {worst_s}");
        assert!(worst_c < 1e-5, "cos error {worst_c}");
    }

    #[test]
    fn cube_and_powf() {
        let v = SimdF::<f64, 4>::from_array([1.0, 2.0, 3.0, -2.0]);
        assert_eq!(cube(v).to_array(), [1.0, 8.0, 27.0, -8.0]);
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

    #[test]
    fn fast_variants_work_in_f32() {
        let x = 0.3f32;
        assert!((fast_exp_scalar::<f32>(x) - x.exp()).abs() < 1e-5);
        assert!((fast_sin_halfpi_scalar::<f32>(x) - x.sin()).abs() < 1e-5);
        assert!((fast_cos_halfpi_scalar::<f32>(x) - x.cos()).abs() < 1e-5);
    }
}
