//! Randomized bit-for-bit equivalence of the wide kernel instances against
//! the portable one.
//!
//! One pass over the operations the Tersoff kernels call (`vector_kernel.rs`,
//! `pair_kernel.rs`, the scheme loops: `gather.rs`, `conflict.rs`, `math.rs`,
//! `mask.rs`, the `SimdI` K cursor and the `SimdF` arithmetic, comparisons,
//! selects and reductions) is launched through
//! [`vektor::multiversion_entries!`] exactly like the Tersoff kernels, and
//! everything it computes is compared bitwise across every entry the host
//! supports. This is what calling the operations directly cannot see: the
//! whole body compiled inside the `#[target_feature]` entry point, where
//! LLVM picks different instructions for the same lane loops.
//!
//! Equivalence is **bit-for-bit** for every operation: auto-vectorization
//! preserves semantics, `sqrt` is correctly rounded everywhere, the `math`
//! functions are the same libm call per lane and the horizontal sum has one
//! association. No approximate rsqrt/exp instruction is used by any
//! instance, so no ULP-bound carve-outs are needed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use std::sync::Mutex;
use vektor::conflict::scatter_add3;
use vektor::dispatch::{self, BackendImpl};
use vektor::gather::{adjacent_gather3, adjacent_scatter_add3_distinct};
use vektor::{math, Real, SimdF, SimdI, SimdM};

const CASES: usize = 96;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn buffer<T: Real>(rng: &mut ChaCha8Rng, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| T::from_f64(rng.gen_range(-1.0e3..1.0e3)))
        .collect()
}

fn lanes_in<T: Real, const W: usize>(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> SimdF<T, W> {
    SimdF::from_array(std::array::from_fn(|_| T::from_f64(rng.gen_range(lo..hi))))
}

fn lanes<T: Real, const W: usize>(rng: &mut ChaCha8Rng) -> SimdF<T, W> {
    lanes_in(rng, -1.0e3, 1.0e3)
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

fn push<T: Real, const W: usize>(trace: &mut Vec<f64>, v: SimdF<T, W>) {
    trace.extend(v.to_array().map(|x| x.to_f64()));
}

fn push_mask<const W: usize>(trace: &mut Vec<f64>, m: SimdM<W>) {
    trace.extend(m.to_array().map(|b| b as u8 as f64));
}

// ---------------------------------------------------------------------------
// Launched kernel instances — the kernel-facing operations as one kernel
// body, compiled once per ISA entry by multiversion_entries!
// ---------------------------------------------------------------------------

fn supported_backends() -> Vec<BackendImpl> {
    BackendImpl::ALL
        .into_iter()
        .filter(|&b| dispatch::supported(b))
        .collect()
}

/// One full pass over the operations the kernels call, returning every
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

        // gather.rs: positions are stride-4 records, forces stride 3.
        let id4: [usize; W] = indices(&mut r, n / 4);
        for v in adjacent_gather3::<T, W, 4>(&buf, &id4, m) {
            push(trace, v);
        }
        let mut scatter_buf = buf.clone();
        let idd: [usize; W] = distinct_indices(&mut r, n / 3);
        let vals = [lanes::<T, W>(&mut r), lanes(&mut r), lanes(&mut r)];
        adjacent_scatter_add3_distinct::<T, W, 3>(&mut scatter_buf, &idd, m, vals);
        trace.extend(scatter_buf.iter().map(|v| v.to_f64()));

        // conflict.rs (conflicting indices allowed; serialized
        // accumulation is ordering-defined, but it compiles inside the same
        // target_feature body as everything else and must stay bitwise).
        let idc: [usize; W] = indices(&mut r, n / 3);
        let mut target = buf.clone();
        scatter_add3::<T, W, 3>(&mut target, &idc, m, vals);
        trace.extend(target.iter().map(|v| v.to_f64()));

        // `SimdF` operations the way a kernel body calls them.
        let a: SimdF<T, W> = lanes(&mut r);
        let b: SimdF<T, W> = lanes(&mut r);
        trace.push(a.horizontal_sum().to_f64());
        trace.push(a.masked_sum(m).to_f64());
        push(trace, SimdF::select(m, a, b));
        push(trace, a.masked(m));
        push(trace, (a * b + a) / b - (-a));
        push(trace, a.min(b));
        push(trace, a.max(b));
        push(trace, a.clamp(T::from_f64(-5.0e2), T::from_f64(5.0e2)));
        let positive = SimdF::select(a.simd_gt(SimdF::zero()), a, -a) + T::ONE;
        push(trace, positive.sqrt());
        push(trace, positive.recip());
        push(trace, a.convert::<f64>());
        push(trace, a.convert::<f32>());
        for cmp in [a.simd_lt(b), a.simd_le(b), a.simd_gt(b), a.simd_ge(b)] {
            push_mask(trace, cmp);
        }
        // Inactive lanes hold out-of-range indices: they must not be
        // dereferenced under any entry's codegen.
        let mut id: [usize; W] = indices(&mut r, n);
        for (lane, i) in id.iter_mut().enumerate() {
            if !m.lane(lane) {
                *i = usize::MAX / 2;
            }
        }
        push(trace, SimdF::gather_masked(&buf, &id, m, T::ONE));

        // math.rs on the argument ranges the kernel feeds it.
        push(trace, math::exp(lanes_in::<T, W>(&mut r, -70.0, 10.0)));
        let angle = lanes_in::<T, W>(&mut r, -1.6, 1.6);
        push(trace, math::sin(angle));
        push(trace, math::cos(angle));
        let base = lanes_in::<T, W>(&mut r, 1.0e-3, 1.0e3);
        push(trace, math::powf(base, lanes_in(&mut r, -3.0, 3.0)));

        // The K cursor: per-lane bounds, masked increments until done.
        let start: [i64; W] = std::array::from_fn(|_| r.gen_range(0..8));
        let end = SimdI::from_array(start.map(|s| s + r.gen_range(0..6)));
        let mut k = SimdI::from_array(start);
        loop {
            let iterating = m & k.simd_lt(end);
            if iterating.none() {
                break;
            }
            let advance = iterating & mask(&mut r);
            push_mask(trace, advance);
            k = k.masked_increment(advance);
        }
        trace.extend((0..W).map(|lane| k.lane(lane) as f64));

        // mask.rs: scalar bool semantics, ISA-independent by construction
        // but part of the audited operation set.
        let mut m2: SimdM<W> = mask(&mut r);
        m2.set_lane(r.gen_range(0..W as i64) as usize, true);
        push_mask(
            trace,
            SimdM::<W>::prefix(r.gen_range(0..W as i64 + 2) as usize),
        );
        push_mask(trace, m.and_not(m2));
        for v in [
            m.all(),
            m.any(),
            m.none(),
            (m & m2).any(),
            (m | m2).all(),
            (!m).none(),
        ] {
            trace.push(v as u8 as f64);
        }
        trace.push(m.count() as f64);
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
