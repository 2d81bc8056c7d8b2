//! Randomized bit-for-bit equivalence of the wide kernel instances against
//! the portable one.
//!
//! Two layers:
//!
//! 1. **Direct trait calls** — every [`SimdBackend`] operation of
//!    [`vektor::Avx2Kernel`] and [`vektor::Avx512Kernel`] is compared
//!    lane-by-lane against [`PortableBackend`] for both element types at
//!    widths 1–32. For the one override — the AVX-512 hardware scatter —
//!    this is the intrinsic-vs-lane-loop check, including the widths with
//!    no hardware coverage, which must fall back identically.
//! 2. **Launched kernel instances** — a full module-surface pass (the
//!    `gather.rs` `_in` functions, `conflict.rs`, `reduce.rs`, the trait ops
//!    a real kernel uses) written generically over `B: SimdBackend`,
//!    launched through [`vektor::multiversion_entries!`] exactly like the
//!    Tersoff kernels, and compared bitwise against the portable instance.
//!    This is what per-op tests cannot see: the whole body compiled inside
//!    the `#[target_feature]` entry point.
//!
//! Equivalence is **bit-for-bit** for every operation: auto-vectorization
//! preserves semantics, `mul_add` fuses everywhere, the horizontal sum has
//! one association, and the hardware scatter's targets are distinct. (No
//! approximate rsqrt/exp instructions are used by any instance, so no
//! ULP-bound carve-outs are needed; `math.rs`'s `fast_*` functions are
//! backend-independent scalar polynomials.)

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use std::sync::Mutex;
use vektor::conflict::{scatter_add3, scatter_add3_conflict_detect};
use vektor::dispatch::{self, BackendImpl};
use vektor::gather::{adjacent_gather3_in, adjacent_scatter_add3_distinct_in};
use vektor::reduce::sum_slice;
use vektor::{PortableBackend, Real, SimdBackend, SimdF, SimdI, SimdM};

const CASES: usize = 96;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn buffer<T: Real>(rng: &mut ChaCha8Rng, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| T::from_f64(rng.gen_range(-1.0e3..1.0e3)))
        .collect()
}

fn lanes<T: Real, const W: usize>(rng: &mut ChaCha8Rng) -> SimdF<T, W> {
    SimdF::from_fn(|_| T::from_f64(rng.gen_range(-1.0e3..1.0e3)))
}

fn indices<const W: usize>(rng: &mut ChaCha8Rng, n: usize) -> [usize; W] {
    std::array::from_fn(|_| rng.gen_range(0..n as i64) as usize)
}

/// Pairwise-distinct indices (one slot per lane), as the conflict-free
/// scatter requires.
fn distinct_indices<const W: usize>(rng: &mut ChaCha8Rng, n: usize) -> [usize; W] {
    let slot = (n / W).max(1);
    std::array::from_fn(|lane| lane * slot + rng.gen_range(0..slot as i64) as usize)
}

fn mask<const W: usize>(rng: &mut ChaCha8Rng) -> SimdM<W> {
    SimdM::from_array(std::array::from_fn(|_| rng.gen_bool(0.5)))
}

#[track_caller]
fn assert_lane_bits<T: Real, const W: usize>(a: SimdF<T, W>, b: SimdF<T, W>, what: &str) {
    for lane in 0..W {
        assert_eq!(
            a.lane(lane).to_f64().to_bits(),
            b.lane(lane).to_f64().to_bits(),
            "{what}: lane {lane} differs: {} vs {}",
            a.lane(lane),
            b.lane(lane)
        );
    }
}

#[track_caller]
fn assert_slice_bits<T: Real>(a: &[T], b: &[T], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

// ---------------------------------------------------------------------------
// Layer 1: direct trait calls, instance vs portable
// ---------------------------------------------------------------------------

fn check_trait_ops<B: SimdBackend, T: Real, const W: usize>(seed: u64) {
    let mut r = rng(seed ^ (W as u64) << 8);
    let n = 192usize;
    for _ in 0..CASES {
        let buf: Vec<T> = buffer(&mut r, n);
        let m: SimdM<W> = mask(&mut r);
        let fill = T::from_f64(r.gen_range(-10.0..10.0));

        // gather; masked gather with wild inactive indices.
        let id: [usize; W] = indices(&mut r, n);
        assert_lane_bits(
            B::gather(&buf, &id),
            PortableBackend::gather(&buf, &id),
            "gather",
        );
        let mut wild = id;
        for (lane, w) in wild.iter_mut().enumerate() {
            if !m.lane(lane) {
                *w = usize::MAX / 2;
            }
        }
        assert_lane_bits(
            B::gather_masked(&buf, &wild, m, fill),
            PortableBackend::gather_masked(&buf, &wild, m, fill),
            "gather_masked",
        );

        // select / mul_add / horizontal_sum.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        let c: SimdF<T, W> = lanes(&mut r);
        assert_lane_bits(
            B::select(m, a, b),
            PortableBackend::select(m, a, b),
            "select",
        );
        assert_lane_bits(
            B::mul_add(a, b, c),
            PortableBackend::mul_add(a, b, c),
            "mul_add",
        );
        assert_eq!(
            B::horizontal_sum(a).to_f64().to_bits(),
            PortableBackend::horizontal_sum(a).to_f64().to_bits(),
            "horizontal_sum differs"
        );

        // Adjacent gather (position stride 4).
        let id4: [usize; W] = indices(&mut r, n / 4);
        let ga = B::adjacent_gather3::<T, W, 4>(&buf, &id4, m);
        let gb = PortableBackend::adjacent_gather3::<T, W, 4>(&buf, &id4, m);
        for d in 0..3 {
            assert_lane_bits(ga[d], gb[d], "adjacent_gather3");
        }

        // Conflict-free scatter (distinct targets).
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        let mut sa = buf.clone();
        let mut sb = buf.clone();
        B::scatter_add3_distinct::<T, W, 3>(&mut sa, &idd, m, vals);
        PortableBackend::scatter_add3_distinct::<T, W, 3>(&mut sb, &idd, m, vals);
        assert_slice_bits(&sa, &sb, "scatter_add3_distinct");
    }
}

fn check_trait_ops_all_widths<B: SimdBackend>(seed: u64) {
    check_trait_ops::<B, f64, 1>(seed);
    check_trait_ops::<B, f64, 2>(seed);
    check_trait_ops::<B, f64, 3>(seed);
    check_trait_ops::<B, f64, 4>(seed);
    check_trait_ops::<B, f64, 8>(seed);
    check_trait_ops::<B, f64, 16>(seed);
    check_trait_ops::<B, f64, 32>(seed);
    check_trait_ops::<B, f32, 1>(seed);
    check_trait_ops::<B, f32, 2>(seed);
    check_trait_ops::<B, f32, 4>(seed);
    check_trait_ops::<B, f32, 8>(seed);
    check_trait_ops::<B, f32, 16>(seed);
    check_trait_ops::<B, f32, 32>(seed);
}

#[test]
fn portable_trait_is_self_consistent() {
    check_trait_ops_all_widths::<PortableBackend>(11);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_matches_portable_bit_for_bit() {
    if !dispatch::supported(BackendImpl::Avx2) {
        eprintln!("skipping: avx2+fma not available on this host");
        return;
    }
    check_trait_ops_all_widths::<vektor::Avx2Kernel>(23);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_matches_portable_bit_for_bit() {
    if !dispatch::supported(BackendImpl::Avx512) {
        eprintln!("skipping: avx512f not available on this host");
        return;
    }
    check_trait_ops_all_widths::<vektor::Avx512Kernel>(37);
}

// ---------------------------------------------------------------------------
// The one `unsafe` path: the hardware scatter validates indices in release
// builds too, before any intrinsic runs
// ---------------------------------------------------------------------------

/// `B::scatter_add3_distinct` (stride 3) on a `len`-element buffer: the
/// panic message, if it panicked, and the buffer it left behind.
#[cfg(target_arch = "x86_64")]
fn scatter_outcome<B: SimdBackend, T: Real, const W: usize>(
    len: usize,
    idx: &[usize; W],
    mask: SimdM<W>,
) -> (Option<String>, Vec<f64>) {
    let mut buf: Vec<T> = (0..len).map(|i| T::from_f64(i as f64)).collect();
    let vals = [1.0, 2.0, 4.0].map(|v| SimdF::splat(T::from_f64(v)));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        B::scatter_add3_distinct::<T, W, 3>(&mut buf, idx, mask, vals)
    }));
    let message = result
        .err()
        .map(|e| e.downcast_ref::<String>().cloned().unwrap_or_default());
    (message, buf.iter().map(|v| v.to_f64()).collect())
}

#[cfg(target_arch = "x86_64")]
fn check_scatter_index_validation<T: Real, const W: usize>() {
    use vektor::Avx512Kernel;
    let records = 2 * W;
    let len = 3 * records;
    let in_range: [usize; W] = std::array::from_fn(|lane| 2 * lane);
    let both = |len, idx: &[usize; W], mask| {
        let hw = scatter_outcome::<Avx512Kernel, T, W>(len, idx, mask);
        let portable = scatter_outcome::<PortableBackend, T, W>(len, idx, mask);
        // Same panic (or none) and the same buffer: the lane loop wrote the
        // lanes before the bad one, and the intrinsic wrote nothing first.
        assert_eq!(hw, portable);
        hw
    };

    // An active index past the end, and one that a 32-bit truncation of its
    // offset would bring back in bounds (3 * (2^32 + 1) wraps to 3).
    for bad in [records, (1usize << 32) + 1] {
        let mut idx = in_range;
        idx[W / 2] = bad;
        let (panic, buf) = both(len, &idx, SimdM::all_true());
        assert!(panic.is_some_and(|m| m.contains("index out of bounds")));
        assert_eq!(buf[0], 1.0, "lanes before the bad one were written");
        assert_eq!(buf[3 * in_range[W - 1]], (3 * in_range[W - 1]) as f64);
    }

    // The record's first two components fit, its `+2` component does not.
    let mut idx = in_range;
    idx[W / 2] = records - 1;
    let (panic, buf) = both(len - 1, &idx, SimdM::all_true());
    assert!(panic.is_some_and(|m| m.contains("index out of bounds")));
    assert_eq!(buf[len - 3], (len - 3) as f64 + 1.0);
    assert_eq!(buf[3 * in_range[W - 1]], (3 * in_range[W - 1]) as f64);

    // An inactive lane's garbage index is never looked at.
    let mut idx = in_range;
    idx[W / 2] = usize::MAX;
    let mut mask = SimdM::all_true();
    mask.set_lane(W / 2, false);
    let (panic, buf) = both(len, &idx, mask);
    assert_eq!(panic, None);
    assert_eq!(
        buf[3 * in_range[W - 1] + 2],
        (3 * in_range[W - 1] + 2) as f64 + 4.0
    );
    assert_eq!(buf[3 * in_range[W / 2]], (3 * in_range[W / 2]) as f64);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn hardware_scatter_rejects_bad_indices_like_portable() {
    if !dispatch::supported(BackendImpl::Avx512) {
        eprintln!("skipping: avx512f not available on this host");
        return;
    }
    check_scatter_index_validation::<f64, 8>();
    check_scatter_index_validation::<f32, 16>();
}

// ---------------------------------------------------------------------------
// Layer 2: launched kernel instances — the whole module surface as one
// kernel body, monomorphized per instance by multiversion_entries!
// ---------------------------------------------------------------------------

fn supported_backends() -> Vec<BackendImpl> {
    BackendImpl::ALL
        .into_iter()
        .filter(|&b| dispatch::supported(b))
        .collect()
}

/// One full pass over the kernel-facing module surface with an explicit
/// backend, returning every produced number so instances monomorphized for
/// different backends can be compared bitwise. `#[inline(always)]` so the
/// pass genuinely compiles inside the trampoline's `#[target_feature]`
/// entry function, exactly like a production kernel body.
#[inline(always)]
fn kernel_instance_pass<B: SimdBackend, T: Real, const W: usize>(seed: u64, trace: &mut Vec<f64>) {
    let mut r = rng(seed);
    let n = 120usize;
    for _ in 0..CASES / 2 {
        let buf: Vec<T> = buffer(&mut r, n);
        let m: SimdM<W> = mask(&mut r);

        // gather.rs surface (the `_in` forms the kernels call).
        let id4: [usize; W] = indices(&mut r, n / 4);
        let [x, y, z] = adjacent_gather3_in::<B, T, W, 4>(&buf, &id4, m);
        trace.extend(x.to_f64_array());
        trace.extend(y.to_f64_array());
        trace.extend(z.to_f64_array());
        let mut scatter_buf = buf.clone();
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        adjacent_scatter_add3_distinct_in::<B, T, W, 3>(&mut scatter_buf, &idd, m, vals);
        trace.extend(scatter_buf.iter().map(|v| v.to_f64()));

        // conflict.rs surface (conflicting indices allowed; serialized
        // accumulation is ordering-defined, hence backend-independent, but
        // it compiles inside the same target_feature body as everything
        // else and must stay bitwise).
        let idc: [usize; W] = indices(&mut r, n / 3);
        let mut target = buf.clone();
        scatter_add3::<T, W, 3>(&mut target, &idc, m, vals);
        let idc_vec = SimdI::from_usize_array(idc);
        scatter_add3_conflict_detect::<T, W, 3>(&mut target, idc_vec, m, vals);
        trace.extend(target.iter().map(|v| v.to_f64()));

        // reduce.rs surface.
        trace.push(sum_slice::<T, W>(&buf).to_f64());

        // Backend trait ops the way a kernel body calls them.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        let c: SimdF<T, W> = lanes(&mut r);
        trace.push(B::horizontal_sum(a).to_f64());
        trace.push(B::masked_sum(a, m).to_f64());
        trace.extend(B::select(m, a, b).to_f64_array());
        trace.extend(B::mul_add(a, b, c).to_f64_array());
        trace.extend(B::masked(a, m).to_f64_array());
        let id: [usize; W] = indices(&mut r, n);
        trace.extend(B::gather(&buf, &id).to_f64_array());
        trace.extend(B::gather_masked(&buf, &id, m, T::ONE).to_f64_array());

        // mask.rs surface: scalar bool semantics, backend-independent by
        // construction but part of the audited module set.
        let m2: SimdM<W> = mask(&mut r);
        for v in [
            m.all() as u64,
            m.any() as u64,
            m.none() as u64,
            m.count() as u64,
            (m & m2).count() as u64,
            (m | m2).count() as u64,
            (m ^ m2).count() as u64,
            (!m).count() as u64,
            m.and_not(m2).count() as u64,
            m.first_set().map_or(u64::MAX, |x| x as u64),
        ] {
            trace.push(v as f64);
        }
    }
}

/// The synthetic pass launched the way the Tersoff kernels launch their atom
/// loops: a `backend` field clamped at construction, a generic
/// `#[inline(always)]` body, and the macro-generated per-ISA entries.
struct ModulePass<T: Real, const W: usize> {
    backend: BackendImpl,
    _elem: PhantomData<T>,
}

impl<T: Real, const W: usize> ModulePass<T, W> {
    fn new(request: BackendImpl) -> Self {
        ModulePass {
            backend: dispatch::clamp(request),
            _elem: PhantomData,
        }
    }

    #[inline(always)]
    fn body<B: SimdBackend>(&self, seed: u64, ran: &mut &'static str, trace: &mut Vec<f64>) {
        *ran = B::name();
        kernel_instance_pass::<B, T, W>(seed, trace);
    }

    vektor::multiversion_entries! {
        /// Launch `body` on the instance selected at construction.
        fn launch / launch_avx2 / launch_avx512 = body(
            &self,
            seed: u64,
            ran: &mut &'static str,
            trace: &mut Vec<f64>,
        );
    }
}

/// Run the pass on the (clamped) requested instance; returns the name of the
/// instance that actually ran and everything it computed.
fn pass_instance<T: Real, const W: usize>(
    request: BackendImpl,
    seed: u64,
) -> (&'static str, Vec<f64>) {
    let (mut ran, mut trace) = ("", Vec::new());
    ModulePass::<T, W>::new(request).launch(seed, &mut ran, &mut trace);
    (ran, trace)
}

fn check_kernel_instance_equivalence<T: Real, const W: usize>(seed: u64) {
    let (_, reference) = pass_instance::<T, W>(BackendImpl::Portable, seed);
    for backend in supported_backends() {
        let (ran, got) = pass_instance::<T, W>(backend, seed);
        assert_eq!(ran, backend.name());
        assert_eq!(reference.len(), got.len());
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "kernel instance trace diverges under {backend} at position {i}: {a} vs {b} \
                 (T = {}, W = {W})",
                std::any::type_name::<T>()
            );
        }
    }
}

#[test]
fn kernel_instances_are_backend_invariant_f64() {
    check_kernel_instance_equivalence::<f64, 1>(41);
    check_kernel_instance_equivalence::<f64, 4>(42);
    check_kernel_instance_equivalence::<f64, 8>(43);
    check_kernel_instance_equivalence::<f64, 16>(44);
    check_kernel_instance_equivalence::<f64, 32>(45);
}

#[test]
fn kernel_instances_are_backend_invariant_f32() {
    check_kernel_instance_equivalence::<f32, 1>(51);
    check_kernel_instance_equivalence::<f32, 4>(52);
    check_kernel_instance_equivalence::<f32, 8>(53);
    check_kernel_instance_equivalence::<f32, 16>(54);
    check_kernel_instance_equivalence::<f32, 32>(55);
}

// ---------------------------------------------------------------------------
// Dispatch selection: VEKTOR_BACKEND → kernel instance
// ---------------------------------------------------------------------------

/// Serializes the tests that mutate the process environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env_backend<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let previous = std::env::var("VEKTOR_BACKEND").ok();
    match value {
        Some(v) => std::env::set_var("VEKTOR_BACKEND", v),
        None => std::env::remove_var("VEKTOR_BACKEND"),
    }
    let result = f();
    match previous {
        Some(v) => std::env::set_var("VEKTOR_BACKEND", v),
        None => std::env::remove_var("VEKTOR_BACKEND"),
    }
    drop(guard);
    result
}

#[test]
fn env_request_selects_the_kernel_instance() {
    // A recognized value picks that implementation (clamped to host
    // support) — verified end-to-end: the selected instance actually runs.
    let observed = |backend| pass_instance::<f64, 1>(backend, 0).0;
    for (value, expected) in [
        ("portable", BackendImpl::Portable),
        ("avx2", dispatch::clamp(BackendImpl::Avx2)),
        ("avx512", dispatch::clamp(BackendImpl::Avx512)),
    ] {
        let selected = with_env_backend(Some(value), dispatch::default_backend);
        assert_eq!(
            selected,
            dispatch::clamp(expected),
            "VEKTOR_BACKEND={value}"
        );
        assert_eq!(observed(selected), selected.name());
    }
    // "auto", empty, and unset all mean: detect the widest supported.
    for value in [Some("auto"), Some(""), None] {
        let selected = with_env_backend(value, dispatch::default_backend);
        assert_eq!(
            selected,
            dispatch::detect_best(),
            "VEKTOR_BACKEND={value:?}"
        );
    }
    // Unknown values warn (once, on stderr) and fall back to detection.
    let selected = with_env_backend(Some("definitely-not-an-isa"), dispatch::default_backend);
    assert_eq!(selected, dispatch::detect_best());
    // Driver-level requests override the environment.
    let forced = with_env_backend(Some("avx512"), || {
        dispatch::resolve(Some(BackendImpl::Portable))
    });
    assert_eq!(forced, BackendImpl::Portable);
}

#[test]
fn constructor_clamps_unsupported_requests() {
    for b in BackendImpl::ALL {
        let ran = pass_instance::<f64, 1>(b, 0).0;
        assert_eq!(ran, dispatch::clamp(b).name());
        assert!(dispatch::supported(BackendImpl::parse(ran).unwrap()));
    }
}
