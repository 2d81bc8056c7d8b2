//! Scalar floating-point abstraction.
//!
//! The paper's vector library is instantiated for single, double and mixed
//! precision. The [`Real`] trait is the scalar element type of a vector lane;
//! it is implemented for `f32` and `f64`. Mixed precision (the paper's
//! `Opt-M`) pairs an `f32` compute type with an `f64` accumulator type, and
//! is expressed in kernels as two independent `Real` parameters.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar floating-point type usable as a vector lane element.
///
/// The operation set is exactly what the Tersoff kernels need: basic
/// arithmetic, `sqrt`, `recip`, `min`/`max`, `exp`, trigonometric functions
/// for the cutoff, and `powf` for the bond-order term.
pub trait Real:
    Copy
    + Clone
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Two.
    const TWO: Self;
    /// Machine epsilon of the type.
    const EPSILON: Self;
    /// Number of significant decimal digits (used to pick test tolerances).
    const DIGITS: u32;

    /// Convert from `f64`, rounding to the nearest representable value.
    fn from_f64(x: f64) -> Self;
    /// Convert to `f64` exactly (both supported types embed into `f64`).
    fn to_f64(self) -> f64;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Power with a real exponent.
    fn powf(self, e: Self) -> Self;
    /// Lane-wise minimum (NaN-propagating behaviour of `f32::min`).
    fn min(self, o: Self) -> Self;
    /// Lane-wise maximum.
    fn max(self, o: Self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $digits:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;
            const DIGITS: u32 = $digits;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline(always)]
            fn min(self, o: Self) -> Self {
                <$t>::min(self, o)
            }
            #[inline(always)]
            fn max(self, o: Self) -> Self {
                <$t>::max(self, o)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                <$t>::recip(self)
            }
        }
    };
}

impl_real!(f32, 6);
impl_real!(f64, 15);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        let x = T::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::HALF.to_f64(), 0.5);
        assert_eq!(T::TWO.to_f64(), 2.0);
    }

    #[test]
    fn roundtrip_f32_f64() {
        roundtrip::<f32>();
        roundtrip::<f64>();
    }

    #[test]
    fn math_ops_match_std() {
        let x = 0.7_f64;
        assert_eq!(Real::sqrt(x), x.sqrt());
        assert_eq!(Real::exp(x), x.exp());
        assert_eq!(Real::sin(x), x.sin());
        assert_eq!(Real::cos(x), x.cos());
        assert_eq!(Real::powf(x, 2.3), x.powf(2.3));
        assert_eq!(Real::recip(x), x.recip());
    }

    #[test]
    fn min_max() {
        assert_eq!(Real::min(3.0_f64, -1.0), -1.0);
        assert_eq!(Real::max(3.0_f32, -1.0), 3.0);
    }
}
