//! Dispatch-selection semantics at kernel granularity.
//!
//! Who decides which per-ISA kernel instance a potential executes, and in
//! which order:
//!
//! 1. `TersoffOptions::backend = Some(_)` — an explicit driver-level
//!    request, clamped to host support; overrides everything.
//! 2. `VEKTOR_BACKEND` — the environment override consulted when the
//!    options leave the choice open (`None`); unknown values warn once and
//!    fall through to detection.
//! 3. `is_x86_feature_detected!` — the widest supported implementation, in
//!    **every** build flavor (kernel-granularity dispatch compiles the
//!    whole kernel inside a `#[target_feature]` entry, so baseline builds
//!    do not demote to portable).
//!
//! Non-x86 targets always resolve to the portable instance — that path is
//! compile-checked by the `cross-check (aarch64)` CI job; the cfg-gated
//! test at the bottom runs wherever such a target actually executes tests.
//!
//! The env-mutating tests serialize on a local mutex; nothing here is
//! process-global anymore, but the environment itself is.

use lammps_tersoff_vector::prelude::*;
use std::sync::Mutex;
use tersoff::driver::make_range_potential;

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

fn options(mode: ExecutionMode, scheme: Scheme, backend: Option<BackendImpl>) -> TersoffOptions {
    TersoffOptions {
        mode,
        scheme,
        width: 0,
        threads: 1,
        backend,
    }
}

/// Every optimized kernel type (scalar-opt and schemes 1a/1b/1c, each
/// precision mode) honors an explicit `TersoffOptions::backend` request at
/// kernel granularity: the built instance reports exactly the clamped
/// request.
#[test]
fn options_backend_picks_the_kernel_instance() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [
        ExecutionMode::OptD,
        ExecutionMode::OptS,
        ExecutionMode::OptM,
    ] {
        for scheme in [
            Scheme::Scalar,
            Scheme::JLanes,
            Scheme::FusedLanes,
            Scheme::ILanes,
        ] {
            for request in BackendImpl::ALL {
                let opts = options(mode, scheme, Some(request));
                let pot = make_range_potential(TersoffParams::silicon(), opts);
                assert_eq!(
                    pot.executed_backend(),
                    Some(dispatch::clamp(request).name()),
                    "{mode:?}/{scheme:?} requested {request}"
                );
            }
        }
    }
    // The reference implementation is not backend-dispatched.
    let reference = make_range_potential(
        TersoffParams::silicon(),
        options(ExecutionMode::Ref, Scheme::Scalar, Some(BackendImpl::Avx2)),
    );
    assert_eq!(reference.executed_backend(), None);
}

/// `VEKTOR_BACKEND` selects the instance when the options leave the choice
/// open, and loses to an explicit options-level request.
#[test]
fn env_var_picks_the_kernel_instance() {
    for (value, expected) in [
        ("portable", BackendImpl::Portable),
        ("avx2", dispatch::clamp(BackendImpl::Avx2)),
        ("avx512", dispatch::clamp(BackendImpl::Avx512)),
    ] {
        let executed = with_env_backend(Some(value), || {
            make_range_potential(
                TersoffParams::silicon(),
                options(ExecutionMode::OptM, Scheme::FusedLanes, None),
            )
            .executed_backend()
        });
        assert_eq!(executed, Some(expected.name()), "VEKTOR_BACKEND={value}");
    }
    // Options-level request wins over the environment.
    let executed = with_env_backend(Some("avx512"), || {
        make_range_potential(
            TersoffParams::silicon(),
            options(
                ExecutionMode::OptM,
                Scheme::FusedLanes,
                Some(BackendImpl::Portable),
            ),
        )
        .executed_backend()
    });
    assert_eq!(executed, Some("portable"));
}

/// Unknown `VEKTOR_BACKEND` values warn (once, on stderr) and fall back to
/// detection; `auto`/empty/unset mean "detect the widest supported".
#[test]
fn unknown_env_values_fall_back_to_detection() {
    let detected = dispatch::detect_best().name();
    for value in [Some("definitely-not-an-isa"), Some("auto"), Some(""), None] {
        let executed = with_env_backend(value, || {
            make_range_potential(
                TersoffParams::silicon(),
                options(ExecutionMode::OptM, Scheme::FusedLanes, None),
            )
            .executed_backend()
        });
        assert_eq!(executed, Some(detected), "VEKTOR_BACKEND={value:?}");
    }
}

/// The whole point of the tentpole: in *any* build of this test (baseline
/// RUSTFLAGS included), auto-detection on an AVX2+FMA host selects a
/// wide instance — the fast path needs no compile-time features.
#[cfg(target_arch = "x86_64")]
#[test]
fn default_build_engages_the_widest_supported_instance() {
    if !dispatch::supported(BackendImpl::Avx2) {
        eprintln!("skipping: avx2+fma not available on this host");
        return;
    }
    let executed = with_env_backend(None, || {
        make_range_potential(
            TersoffParams::silicon(),
            options(ExecutionMode::OptM, Scheme::FusedLanes, None),
        )
        .executed_backend()
    });
    assert_ne!(executed, Some("portable"));
    assert_eq!(executed, Some(dispatch::detect_best().name()));
}

/// Off x86_64 every request — explicit or detected — resolves to the
/// portable instance (compiled everywhere; executed by the aarch64
/// cross-check target when tests run there).
#[cfg(not(target_arch = "x86_64"))]
#[test]
fn non_x86_targets_always_run_portable() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(dispatch::detect_best(), BackendImpl::Portable);
    for request in BackendImpl::ALL {
        assert_eq!(dispatch::clamp(request), BackendImpl::Portable);
        let pot = make_range_potential(
            TersoffParams::silicon(),
            options(ExecutionMode::OptM, Scheme::FusedLanes, Some(request)),
        );
        assert_eq!(pot.executed_backend(), Some("portable"));
    }
}
