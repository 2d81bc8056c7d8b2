//! The [`SimdBackend`] trait: the operations a kernel body calls through its
//! `B: SimdBackend` type parameter, implemented **once** as lane loops in the
//! trait defaults.
//!
//! Three types implement the trait — one per kernel *instance* that
//! [`crate::multiversion_entries!`] compiles:
//!
//! | type | entry it is monomorphized in | overrides |
//! |---|---|---|
//! | [`PortableBackend`] | baseline codegen, every target | — |
//! | [`Avx2Kernel`] | `#[target_feature(enable = "avx2,fma")]` | — |
//! | [`Avx512Kernel`] | `#[target_feature(enable = "avx2,fma,avx512f")]` | `scatter_add3_distinct` |
//!
//! The wide instances run the *same* lane loops: inlined into a
//! `#[target_feature]` entry, LLVM auto-vectorizes them with that entry's
//! registers, blends and FMA directly on the kernel's live values. There are
//! no per-op `std::arch` wrappers because they measure 3–14× slower than
//! that (each call marshals `SimdM` bool arrays and lane arrays into
//! registers); the one intrinsic that beats auto-vectorization is the
//! AVX-512 hardware scatter of scheme (1a)'s conflict-free force update
//! (`x86.rs`, ~1.5×, reproducible with `tests/perf_probe.rs`). Auto-
//! vectorization preserves semantics and the scatter's targets are distinct,
//! so every instance is bit-for-bit equal to the portable one and the choice
//! is invisible to physics.

use crate::dispatch::BackendImpl;
use crate::mask::SimdM;
use crate::real::Real;
use crate::vector::SimdF;

/// A backend implementing the dispatched vector operations.
///
/// All methods are associated functions (instances are stateless tags) and
/// the defaults are the lane loops every instance runs. An instance that
/// overrides an operation with `std::arch` code may only be *invoked* when
/// the matching CPU features are present: [`crate::multiversion_entries!`]
/// guarantees this for launched kernels (its `backend` field is clamped to
/// host support), and tests gate direct calls on
/// [`crate::dispatch::supported`].
pub trait SimdBackend {
    /// The dispatch tag of this backend.
    const KIND: BackendImpl;

    /// Stable human-readable name.
    fn name() -> &'static str {
        Self::KIND.name()
    }

    /// Gather `slice[idx[lane]]` into each lane; all indices must be in
    /// bounds.
    #[inline(always)]
    fn gather<T: Real, const W: usize>(slice: &[T], idx: &[usize; W]) -> SimdF<T, W> {
        let mut out = [T::ZERO; W];
        for i in 0..W {
            out[i] = slice[idx[i]];
        }
        SimdF(out)
    }

    /// Masked gather: inactive lanes receive `fill`; their indices are not
    /// dereferenced.
    #[inline(always)]
    fn gather_masked<T: Real, const W: usize>(
        slice: &[T],
        idx: &[usize; W],
        mask: SimdM<W>,
        fill: T,
    ) -> SimdF<T, W> {
        let mut out = [fill; W];
        for i in 0..W {
            if mask.lane(i) {
                out[i] = slice[idx[i]];
            }
        }
        SimdF(out)
    }

    /// Fused blend: `mask ? if_true : if_false` per lane.
    #[inline(always)]
    fn select<T: Real, const W: usize>(
        mask: SimdM<W>,
        if_true: SimdF<T, W>,
        if_false: SimdF<T, W>,
    ) -> SimdF<T, W> {
        let mut out = if_false.0;
        for i in 0..W {
            if mask.lane(i) {
                out[i] = if_true.0[i];
            }
        }
        SimdF(out)
    }

    /// Zero the lanes where the mask is not set (derived from [`select`]).
    ///
    /// [`select`]: SimdBackend::select
    #[inline(always)]
    fn masked<T: Real, const W: usize>(v: SimdF<T, W>, mask: SimdM<W>) -> SimdF<T, W> {
        Self::select(mask, v, SimdF::zero())
    }

    /// Horizontal sum of the active lanes only (mask, then the pairwise
    /// in-register reduction).
    #[inline(always)]
    fn masked_sum<T: Real, const W: usize>(v: SimdF<T, W>, mask: SimdM<W>) -> T {
        Self::horizontal_sum(Self::masked(v, mask))
    }

    /// Fused multiply-add `a * b + c` per lane (always fused: one rounding
    /// on every instance and every target).
    #[inline(always)]
    fn mul_add<T: Real, const W: usize>(
        a: SimdF<T, W>,
        b: SimdF<T, W>,
        c: SimdF<T, W>,
    ) -> SimdF<T, W> {
        let mut out = [T::ZERO; W];
        for i in 0..W {
            out[i] = a.0[i].mul_add(b.0[i], c.0[i]);
        }
        SimdF(out)
    }

    /// In-register horizontal sum with the pairwise association
    /// `buf[i] += buf[n-1-i]`, halving until one lane remains.
    #[inline(always)]
    fn horizontal_sum<T: Real, const W: usize>(v: SimdF<T, W>) -> T {
        let mut buf = v.0;
        let mut n = W;
        while n > 1 {
            let half = n / 2;
            for i in 0..half {
                buf[i] += buf[n - 1 - i];
            }
            n = n.div_ceil(2);
        }
        buf[0]
    }

    /// Adjacent gather of three consecutive fields per lane from an AoS
    /// buffer (`buffer[idx[lane] * STRIDE + component]`); inactive lanes
    /// yield zero.
    #[inline(always)]
    fn adjacent_gather3<T: Real, const W: usize, const STRIDE: usize>(
        buffer: &[T],
        idx: &[usize; W],
        mask: SimdM<W>,
    ) -> [SimdF<T, W>; 3] {
        let mut x = [T::ZERO; W];
        let mut y = [T::ZERO; W];
        let mut z = [T::ZERO; W];
        for lane in 0..W {
            if mask.lane(lane) {
                let base = idx[lane] * STRIDE;
                x[lane] = buffer[base];
                y[lane] = buffer[base + 1];
                z[lane] = buffer[base + 2];
            }
        }
        [SimdF(x), SimdF(y), SimdF(z)]
    }

    /// Conflict-free scatter-accumulate of a 3-component record per lane,
    /// assuming active lanes target pairwise-distinct records (scheme 1a's
    /// j-force update).
    #[inline(always)]
    fn scatter_add3_distinct<T: Real, const W: usize, const STRIDE: usize>(
        buffer: &mut [T],
        idx: &[usize; W],
        mask: SimdM<W>,
        values: [SimdF<T, W>; 3],
    ) {
        for lane in 0..W {
            if mask.lane(lane) {
                let base = idx[lane] * STRIDE;
                buffer[base] += values[0].lane(lane);
                buffer[base + 1] += values[1].lane(lane);
                buffer[base + 2] += values[2].lane(lane);
            }
        }
    }
}

/// The portable instance — the trait defaults at the crate's own codegen,
/// available on every target.
pub struct PortableBackend;

impl SimdBackend for PortableBackend {
    const KIND: BackendImpl = BackendImpl::Portable;
}

/// The AVX2+FMA kernel instance: the trait's lane loops, auto-vectorized to
/// 256-bit (`vblendv`, `vfmadd`) inside the
/// `#[target_feature(enable = "avx2,fma")]` entry that monomorphizes it.
#[cfg(target_arch = "x86_64")]
pub struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl SimdBackend for Avx2Kernel {
    const KIND: BackendImpl = BackendImpl::Avx2;
}

/// The AVX-512F kernel instance: the trait's lane loops, auto-vectorized to
/// 512-bit inside the `#[target_feature(enable = "avx2,fma,avx512f")]`
/// entry, plus the hardware scatter for the conflict-free force update.
///
/// Invoke only when `avx512f`, `avx2` and `fma` are detected
/// ([`crate::dispatch::supported`]).
#[cfg(target_arch = "x86_64")]
pub struct Avx512Kernel;

#[cfg(target_arch = "x86_64")]
impl SimdBackend for Avx512Kernel {
    const KIND: BackendImpl = BackendImpl::Avx512;

    #[inline(always)]
    fn scatter_add3_distinct<T: Real, const W: usize, const STRIDE: usize>(
        buffer: &mut [T],
        idx: &[usize; W],
        mask: SimdM<W>,
        values: [SimdF<T, W>; 3],
    ) {
        // SAFETY: this instance is only invoked on a host with avx512f, avx2
        // and fma (the trait contract, upheld by `multiversion_entries!`).
        let done =
            unsafe { crate::x86::scatter_add3_distinct::<T, W, STRIDE>(buffer, idx, mask, values) };
        // Uncovered lane configuration or a bad index: nothing was written,
        // and the lane loop panics on the bad index like every instance.
        if !done {
            PortableBackend::scatter_add3_distinct::<T, W, STRIDE>(buffer, idx, mask, values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_report_their_kind() {
        assert_eq!(PortableBackend::KIND, BackendImpl::Portable);
        assert_eq!(PortableBackend::name(), "portable");
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(Avx2Kernel::name(), "avx2");
            assert_eq!(Avx512Kernel::name(), "avx512");
        }
    }

    #[test]
    fn portable_defaults_match_legacy_behaviour() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let g: SimdF<f64, 4> = PortableBackend::gather(&data, &[11, 0, 5, 5]);
        assert_eq!(g.to_array(), [11.0, 0.0, 5.0, 5.0]);
        assert_eq!(PortableBackend::horizontal_sum(g), 21.0);
        let s = PortableBackend::select(
            SimdM::from_array([true, false, true, false]),
            SimdF::<f64, 4>::splat(1.0),
            SimdF::splat(-1.0),
        );
        assert_eq!(s.to_array(), [1.0, -1.0, 1.0, -1.0]);
    }
}
