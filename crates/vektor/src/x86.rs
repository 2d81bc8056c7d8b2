//! The one `std::arch` override that measurement kept: the AVX-512 hardware
//! scatter behind [`crate::Avx512Kernel`]'s `scatter_add3_distinct` (~1.5×
//! the lane loop under the same features, see `tests/perf_probe.rs`).
//! Bitwise contract: active targets are pairwise distinct, so each cell
//! receives exactly one `+=` in any lane order — the result equals the lane
//! loop bit for bit (`tests/backend_equivalence.rs`).

use crate::mask::SimdM;
use crate::real::Real;
use crate::vector::SimdF;
use core::arch::x86_64::*;
use std::any::TypeId;

macro_rules! scatter_add {
    ($name:ident, $T:ty, $N:literal, $vec:ty, $offsets:ty, $kmask:ty, $scale:literal,
     $gather:ident, $zero:ident, $add:ident, $scatter:ident) => {
        /// `dst[idx[lane]] += v[lane]` for the active lanes, as one masked
        /// gather, add and scatter.
        ///
        /// # Safety
        /// The CPU must support `avx512f`, `avx2` and `fma`, and every
        /// active `idx[lane]` must be `< dst.len()` and `<= i32::MAX`.
        #[inline]
        #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
        unsafe fn $name(dst: &mut [$T], idx: &[usize; $N], mask: &[bool; $N], v: &[$T; $N]) {
            let mut off = [0i32; $N];
            let mut k: $kmask = 0;
            for lane in 0..$N {
                if mask[lane] {
                    off[lane] = idx[lane] as i32;
                }
                k |= (mask[lane] as $kmask) << lane;
            }
            // SAFETY: the transmutes are between same-size plain-data lane
            // arrays and vector registers. The gather and the scatter access
            // `dst[off[lane]]` for the lanes set in `k` only; those offsets
            // are in bounds and were not truncated by the `as i32` above,
            // both by the caller's guarantee.
            unsafe {
                let offsets = core::mem::transmute::<[i32; $N], $offsets>(off);
                let cur = $gather::<$scale>($zero(), k, offsets, dst.as_ptr());
                let sum = $add(cur, core::mem::transmute::<[$T; $N], $vec>(*v));
                $scatter::<$scale>(dst.as_mut_ptr(), k, offsets, sum);
            }
        }
    };
}

scatter_add! { scatter_add_f64x8, f64, 8, __m512d, __m256i, __mmask8, 8,
_mm512_mask_i32gather_pd, _mm512_setzero_pd, _mm512_add_pd, _mm512_mask_i32scatter_pd }
scatter_add! { scatter_add_f32x16, f32, 16, __m512, __m512i, __mmask16, 4,
_mm512_mask_i32gather_ps, _mm512_setzero_ps, _mm512_add_ps, _mm512_mask_i32scatter_ps }

#[inline(always)]
fn sub<const N: usize, X: Copy>(a: &[X], start: usize) -> [X; N] {
    a[start..start + N].try_into().expect("chunk in range")
}

/// Hardware path of the conflict-free 3-component scatter-add: one chunked
/// gather/add/scatter pass per component `d` over `idx * STRIDE + d`.
/// Returns `false` **without having written anything** when the lanes have
/// no hardware coverage (`f64` needs `W % 8 == 0`, `f32` `W % 16 == 0`) or an
/// active target is out of bounds or not an `i32` offset — checked in release
/// builds too, so the caller's lane-loop fallback panics on a bad index and
/// no intrinsic gets it (UB) or a truncation of it (silently wrong element).
///
/// # Safety
/// The CPU must support `avx512f`, `avx2` and `fma`.
pub(crate) unsafe fn scatter_add3_distinct<T: Real, const W: usize, const STRIDE: usize>(
    buffer: &mut [T],
    idx: &[usize; W],
    mask: SimdM<W>,
    values: [SimdF<T, W>; 3],
) -> bool {
    let m = mask.to_array();
    let mut scaled = [0usize; W];
    for lane in 0..W {
        if m[lane] {
            scaled[lane] = idx[lane] * STRIDE;
        }
    }
    // The highest component offset (`scaled + 2`) bounds all three passes.
    let in_range = (0..W).all(|lane| {
        !m[lane] || (scaled[lane] + 2 < buffer.len() && scaled[lane] + 2 <= i32::MAX as usize)
    });
    if !in_range {
        return false;
    }
    macro_rules! passes {
        ($U:ty, $N:literal, $scatter:ident) => {{
            // SAFETY: `T` is `$U` (the `TypeId` test selecting this arm), so
            // the slice and the lane arrays are reinterpreted as themselves.
            let dst = unsafe { &mut *(buffer as *mut [T] as *mut [$U]) };
            for (d, v) in values.iter().enumerate() {
                // SAFETY: as above.
                let vv = unsafe { core::ptr::read(&v.0 as *const [T; W] as *const [$U; W]) };
                let mut comp = scaled;
                for lane in 0..W {
                    if m[lane] {
                        comp[lane] += d;
                    }
                }
                for c in 0..W / $N {
                    let lo = c * $N;
                    // SAFETY: CPU features by this function's contract; `in_range`
                    // proved every active `comp` entry in bounds and `i32`-sized.
                    unsafe { $scatter(dst, &sub(&comp, lo), &sub(&m, lo), &sub(&vv, lo)) };
                }
            }
            true
        }};
    }
    if TypeId::of::<T>() == TypeId::of::<f64>() && W.is_multiple_of(8) {
        passes!(f64, 8, scatter_add_f64x8)
    } else if TypeId::of::<T>() == TypeId::of::<f32>() && W.is_multiple_of(16) {
        passes!(f32, 16, scatter_add_f32x16)
    } else {
        false
    }
}
