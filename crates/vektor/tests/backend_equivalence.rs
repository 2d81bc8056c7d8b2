//! Randomized bit-for-bit equivalence of the wide kernel instances against
//! the portable one.
//!
//! A full module-surface pass (`gather.rs`, `conflict.rs`, `reduce.rs`,
//! `mask.rs` and the `SimdF` operations a real kernel uses) is launched
//! through [`vektor::multiversion_entries!`] exactly like the Tersoff
//! kernels, and everything it computes is compared bitwise across every
//! entry the host supports. This is what calling the operations directly
//! cannot see: the whole body compiled inside the `#[target_feature]` entry
//! point, where LLVM picks different instructions for the same lane loops.
//!
//! Equivalence is **bit-for-bit** for every operation: auto-vectorization
//! preserves semantics, `mul_add` fuses everywhere and the horizontal sum
//! has one association. (No approximate rsqrt/exp instructions are used by
//! any instance, so no ULP-bound carve-outs are needed; `math.rs`'s `fast_*`
//! functions are scalar polynomials.)

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use std::sync::Mutex;
use vektor::conflict::{scatter_add3, scatter_add3_conflict_detect};
use vektor::dispatch::{self, BackendImpl};
use vektor::gather::{adjacent_gather3, adjacent_scatter_add3_distinct};
use vektor::reduce::sum_slice;
use vektor::{Real, SimdF, SimdI, SimdM};

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

// ---------------------------------------------------------------------------
// Launched kernel instances — the whole module surface as one kernel body,
// compiled once per ISA entry by multiversion_entries!
// ---------------------------------------------------------------------------

fn supported_backends() -> Vec<BackendImpl> {
    BackendImpl::ALL
        .into_iter()
        .filter(|&b| dispatch::supported(b))
        .collect()
}

/// One full pass over the kernel-facing module surface, returning every
/// produced number so the per-ISA entries can be compared bitwise.
/// `#[inline(always)]` so the pass genuinely compiles inside the
/// trampoline's `#[target_feature]` entry function, exactly like a
/// production kernel body.
#[inline(always)]
fn kernel_instance_pass<T: Real, const W: usize>(seed: u64, trace: &mut Vec<f64>) {
    let mut r = rng(seed);
    let n = 120usize;
    for _ in 0..CASES / 2 {
        let buf: Vec<T> = buffer(&mut r, n);
        let m: SimdM<W> = mask(&mut r);

        // gather.rs surface.
        let id4: [usize; W] = indices(&mut r, n / 4);
        let [x, y, z] = adjacent_gather3::<T, W, 4>(&buf, &id4, m);
        trace.extend(x.to_f64_array());
        trace.extend(y.to_f64_array());
        trace.extend(z.to_f64_array());
        let mut scatter_buf = buf.clone();
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        adjacent_scatter_add3_distinct::<T, W, 3>(&mut scatter_buf, &idd, m, vals);
        trace.extend(scatter_buf.iter().map(|v| v.to_f64()));

        // conflict.rs surface (conflicting indices allowed; serialized
        // accumulation is ordering-defined, but it compiles inside the same
        // target_feature body as everything else and must stay bitwise).
        let idc: [usize; W] = indices(&mut r, n / 3);
        let mut target = buf.clone();
        scatter_add3::<T, W, 3>(&mut target, &idc, m, vals);
        let idc_vec = SimdI::from_usize_array(idc);
        scatter_add3_conflict_detect::<T, W, 3>(&mut target, idc_vec, m, vals);
        trace.extend(target.iter().map(|v| v.to_f64()));

        // reduce.rs surface.
        trace.push(sum_slice::<T, W>(&buf).to_f64());

        // `SimdF` operations the way a kernel body calls them.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        let c: SimdF<T, W> = lanes(&mut r);
        trace.push(a.horizontal_sum().to_f64());
        trace.push(a.masked_sum(m).to_f64());
        trace.extend(SimdF::select(m, a, b).to_f64_array());
        trace.extend(a.mul_add(b, c).to_f64_array());
        trace.extend(a.masked(m).to_f64_array());
        let mut id: [usize; W] = indices(&mut r, n);
        trace.extend(SimdF::gather(&buf, &id).to_f64_array());
        // Inactive lanes hold out-of-range indices: they must not be
        // dereferenced under any entry's codegen.
        for (lane, i) in id.iter_mut().enumerate() {
            if !m.lane(lane) {
                *i = usize::MAX / 2;
            }
        }
        trace.extend(SimdF::gather_masked(&buf, &id, m, T::ONE).to_f64_array());

        // mask.rs surface: scalar bool semantics, ISA-independent by
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
/// loops: a `backend` field clamped at construction, an `#[inline(always)]`
/// body, and the macro-generated per-ISA entries.
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
    fn body(&self, seed: u64, ran: &mut &'static str, trace: &mut Vec<f64>) {
        *ran = self.backend.name();
        kernel_instance_pass::<T, W>(seed, trace);
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
    check_kernel_instance_equivalence::<f64, 2>(46);
    check_kernel_instance_equivalence::<f64, 3>(47);
    check_kernel_instance_equivalence::<f64, 4>(42);
    check_kernel_instance_equivalence::<f64, 8>(43);
    check_kernel_instance_equivalence::<f64, 16>(44);
    check_kernel_instance_equivalence::<f64, 32>(45);
}

#[test]
fn kernel_instances_are_backend_invariant_f32() {
    check_kernel_instance_equivalence::<f32, 1>(51);
    check_kernel_instance_equivalence::<f32, 2>(56);
    check_kernel_instance_equivalence::<f32, 3>(57);
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
