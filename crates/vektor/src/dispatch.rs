//! Kernel-granularity back-end dispatch.
//!
//! The library carries three kernel *instances* per algorithm:
//!
//! 1. **portable** — the array lane loops at baseline codegen (always
//!    available, every target);
//! 2. **avx2** — the same lane loops inlined into a
//!    `#[target_feature(enable = "avx2,fma")]` entry, where LLVM
//!    auto-vectorizes them with 256-bit registers, `vblendv` and `vfmadd`;
//!    used when the CPU reports `avx2` **and** `fma`;
//! 3. **avx512** — the same again under `avx2,fma,avx512f` (512-bit
//!    codegen); used when the CPU additionally reports `avx512f`.
//!
//! Selection happens **once per kernel instance**, not once per operation:
//! a kernel body is an `#[inline(always)]` method, and
//! [`multiversion_entries!`] — the only launch path — generates one entry
//! function per instance around it. The wide entries carry
//! `#[target_feature(enable = ...)]`, so every vektor operation — and the
//! surrounding loop arithmetic — compiles with the wide ISA enabled and
//! **inlines**, regardless of the crate's baseline `-C target-feature`
//! flags: a plain `cargo build --release` runs the wide-ISA path at full
//! speed. (Routing each *operation* instead cannot do this: a
//! `#[target_feature]` function does not inline into a baseline caller.)
//!
//! There is **no process-global dispatch state**: each kernel instance owns
//! its backend choice (the Tersoff driver stores it per potential), two
//! coexisting kernels can run different implementations, and nothing is
//! resolved behind an atomic. The selection inputs are:
//!
//! * the `VEKTOR_BACKEND` environment variable (`portable`, `avx2`,
//!   `avx512`, `auto`) — consulted by [`default_backend`]; requesting an
//!   implementation the CPU cannot run clamps down to the best supported
//!   one; unknown values warn once and fall through;
//! * otherwise `is_x86_feature_detected!` picks the widest supported
//!   implementation ([`detect_best`]) — in **every** build flavor, since
//!   inlining does not depend on compile-time features;
//! * a driver-level request (e.g. `TersoffOptions::backend`) overrides the
//!   default per kernel, again clamped to host support.
//!
//! All implementations are **bit-for-bit equivalent** (enforced by
//! `tests/backend_equivalence.rs`), so the backend choice — per kernel or
//! per process — changes execution speed, never results.

use std::fmt;

/// The kernel instance executing vektor's dispatched operations on this
/// host.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BackendImpl {
    /// The lane loops at the crate's own (baseline) codegen.
    Portable,
    /// The lane loops auto-vectorized under `avx2,fma` (256-bit).
    Avx2,
    /// The lane loops auto-vectorized under `avx2,fma,avx512f` (512-bit).
    Avx512,
}

impl BackendImpl {
    /// All implementations, narrowest first.
    pub const ALL: [BackendImpl; 3] = [
        BackendImpl::Portable,
        BackendImpl::Avx2,
        BackendImpl::Avx512,
    ];

    /// Stable lower-case name (the value accepted by `VEKTOR_BACKEND`).
    pub fn name(self) -> &'static str {
        match self {
            BackendImpl::Portable => "portable",
            BackendImpl::Avx2 => "avx2",
            BackendImpl::Avx512 => "avx512",
        }
    }

    /// Parse a concrete backend name; `None` for unknown strings. For the
    /// full request grammar including `auto`, see [`parse_request`].
    pub fn parse(s: &str) -> Option<BackendImpl> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" | "array" => Some(BackendImpl::Portable),
            "avx2" => Some(BackendImpl::Avx2),
            "avx512" | "avx-512" | "avx512f" => Some(BackendImpl::Avx512),
            _ => None,
        }
    }
}

impl fmt::Display for BackendImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error from `BackendImpl::from_str`: the rejected input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError(pub String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown vektor backend {:?} (expected portable, avx2 or avx512)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for BackendImpl {
    type Err = ParseBackendError;

    /// Strict form of [`BackendImpl::parse`] with a typed error ("auto" is
    /// not a concrete backend — resolve it via [`parse_request`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendImpl::parse(s).ok_or_else(|| ParseBackendError(s.to_string()))
    }
}

/// Parse a backend *request*: `Some(None)` means "auto" (detect),
/// `Some(Some(_))` a concrete implementation, `None` an unrecognized string.
#[allow(clippy::option_option)] // request = "auto" | backend; both layers carry meaning
pub fn parse_request(s: &str) -> Option<Option<BackendImpl>> {
    let t = s.trim().to_ascii_lowercase();
    if t.is_empty() || t == "auto" || t == "detect" {
        return Some(None);
    }
    BackendImpl::parse(&t).map(Some)
}

/// Is `backend` runnable on this host?
pub fn supported(backend: BackendImpl) -> bool {
    match backend {
        BackendImpl::Portable => true,
        #[cfg(target_arch = "x86_64")]
        BackendImpl::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        BackendImpl::Avx512 => {
            supported(BackendImpl::Avx2) && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The widest implementation this host supports.
pub fn detect_best() -> BackendImpl {
    if supported(BackendImpl::Avx512) {
        BackendImpl::Avx512
    } else if supported(BackendImpl::Avx2) {
        BackendImpl::Avx2
    } else {
        BackendImpl::Portable
    }
}

/// Clamp a request to what the host supports (`avx512` → `avx2` → portable).
pub fn clamp(request: BackendImpl) -> BackendImpl {
    match request {
        BackendImpl::Avx512 if !supported(BackendImpl::Avx512) => clamp(BackendImpl::Avx2),
        BackendImpl::Avx2 if !supported(BackendImpl::Avx2) => BackendImpl::Portable,
        other => other,
    }
}

/// The backend named by `VEKTOR_BACKEND`, if set and recognized. Unknown
/// values are reported once per process on stderr and ignored.
pub fn env_request() -> Option<BackendImpl> {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    let value = std::env::var("VEKTOR_BACKEND").ok()?;
    match parse_request(&value) {
        Some(req) => req,
        None => {
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "vektor: ignoring unrecognized VEKTOR_BACKEND={value:?} \
                     (expected portable, avx2, avx512 or auto)"
                );
            });
            None
        }
    }
}

/// The default choice for a new kernel instance: environment override, else
/// runtime detection of the widest supported implementation.
///
/// Not build-aware: [`multiversion_entries!`] compiles each kernel body
/// inside a `#[target_feature]` entry function, so the wide path runs at
/// full speed in baseline builds too. `VEKTOR_BACKEND` or a driver-level
/// request can still force any supported implementation.
pub fn default_backend() -> BackendImpl {
    match env_request() {
        Some(request) => clamp(request),
        None => detect_best(),
    }
}

/// Resolve a driver-level backend request: `Some(b)` forces `b` (clamped to
/// host support), `None` applies the environment/detection default. Pure —
/// no global state is touched; the caller stores the result in its kernel.
pub fn resolve(request: Option<BackendImpl>) -> BackendImpl {
    match request {
        Some(b) => clamp(b),
        None => default_backend(),
    }
}

/// Granularity at which this build of the library binds an ISA: `"kernel"`
/// — one backend choice per kernel instance, compiled per ISA by
/// [`multiversion_entries!`]. (The first design dispatched `"op"`-granular
/// through process-global state; benchmark reports record this constant so
/// the two eras stay distinguishable.)
pub const DISPATCH_GRANULARITY: &str = "kernel";

/// The widest vector ISA the **build itself** enables (`-C target-feature`
/// / `-C target-cpu`): `"avx512"`, `"avx2"` or `"baseline"`. Purely
/// informational — with kernel-granularity dispatch the executed backend no
/// longer depends on it — and recorded in benchmark reports next to
/// `executed_backend` so a report always says both what ran and how the
/// binary was compiled.
pub fn compiled_isa() -> &'static str {
    if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
        "avx512"
    } else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
        "avx2"
    } else {
        "baseline"
    }
}

// ---------------------------------------------------------------------------
// The kernel trampoline
// ---------------------------------------------------------------------------

/// Generate a kernel's per-ISA trampoline: a dispatching method plus one
/// `#[target_feature]` entry per wide instance, each repeating the
/// kernel's **full parameter list** (so every slice keeps its `noalias`
/// parameter attribute — hiding the arguments behind an adapter struct
/// costs LLVM those aliasing facts, measured ~2.7× on the Tersoff loops).
/// This is the **only** place where an ISA decision is made: one branch per
/// kernel launch, with the entire body compiled per instance behind it.
///
/// Invoke inside an inherent `impl` block of a type with a
/// `backend: BackendImpl` field **clamped to host support** (that
/// invariant is the safety argument for the `unsafe` entry calls; clamp
/// in the constructor via [`clamp`] / [`default_backend`]). The kernel
/// body must be an `#[inline(always)]` method `fn body(&self, args...)`
/// whose callees down to the vektor operations are `#[inline(always)]` too
/// — each generated entry inlines it, compiling the whole loop under the
/// entry's ISA:
///
/// ```ignore
/// impl MyKernel {
///     vektor::multiversion_entries! {
///         /// Launch `loop_body` on the instance selected at construction.
///         fn loop_dispatch / loop_avx2 / loop_avx512 = loop_body(
///             &self,
///             positions: &[f64],
///             forces: &mut [f64],
///         );
///     }
/// }
/// ```
#[macro_export]
macro_rules! multiversion_entries {
    (
        $(#[$meta:meta])*
        fn $dispatch:ident / $avx2:ident / $avx512:ident = $body:ident (
            &self $(, $arg:ident : $ty:ty)* $(,)?
        );
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        fn $dispatch(&self $(, $arg: $ty)*) {
            match self.backend {
                // SAFETY: the `backend` field is clamped to host support
                // at construction (the macro contract), so the CPU
                // features each entry enables are present.
                #[cfg(target_arch = "x86_64")]
                $crate::BackendImpl::Avx2 => unsafe { self.$avx2($($arg),*) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                $crate::BackendImpl::Avx512 => unsafe { self.$avx512($($arg),*) },
                _ => self.$body($($arg),*),
            }
        }

        /// # Safety
        /// The CPU must support `avx2` and `fma`.
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2(&self $(, $arg: $ty)*) {
            self.$body($($arg),*);
        }

        /// # Safety
        /// The CPU must support `avx2`, `fma` and `avx512f`.
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2,fma,avx512f")]
        unsafe fn $avx512(&self $(, $arg: $ty)*) {
            self.$body($($arg),*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::SimdF;

    #[test]
    fn portable_is_always_supported() {
        assert!(supported(BackendImpl::Portable));
        assert_eq!(clamp(BackendImpl::Portable), BackendImpl::Portable);
    }

    #[test]
    fn detect_best_is_supported_and_default_resolves() {
        let best = detect_best();
        assert!(supported(best));
        assert_eq!(resolve(Some(BackendImpl::Portable)), BackendImpl::Portable);
        assert_eq!(resolve(None), default_backend());
        assert!(supported(resolve(Some(BackendImpl::Avx512))));
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(BackendImpl::parse("AVX2"), Some(BackendImpl::Avx2));
        assert_eq!(BackendImpl::parse("avx-512"), Some(BackendImpl::Avx512));
        assert_eq!(BackendImpl::parse("scalar"), Some(BackendImpl::Portable));
        assert_eq!(BackendImpl::parse("gpu"), None);
        assert_eq!(parse_request("auto"), Some(None));
        assert_eq!(parse_request(""), Some(None));
        assert_eq!(parse_request("portable"), Some(Some(BackendImpl::Portable)));
        assert!(parse_request("nonsense").is_none());
    }

    #[test]
    fn names_round_trip() {
        for b in BackendImpl::ALL {
            assert_eq!(BackendImpl::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
    }

    #[test]
    fn clamp_never_selects_unsupported() {
        for b in BackendImpl::ALL {
            assert!(supported(clamp(b)));
        }
    }

    #[test]
    fn compiled_isa_names_a_known_level() {
        assert!(["baseline", "avx2", "avx512"].contains(&compiled_isa()));
        assert_eq!(DISPATCH_GRANULARITY, "kernel");
    }

    /// A kernel using the `multiversion_entries!` trampoline: sums a slice
    /// through `horizontal_sum`, recording which instance it was launched as.
    struct MacroKernel {
        backend: BackendImpl,
    }

    impl MacroKernel {
        #[inline(always)]
        fn body(&self, data: &[f64], out: &mut (f64, &'static str)) {
            let v: SimdF<f64, 4> = SimdF::load(data, 0);
            *out = (v.horizontal_sum(), self.backend.name());
        }

        crate::multiversion_entries! {
            /// Dispatching entry generated by the macro.
            fn body_dispatch / body_avx2 / body_avx512 = body(
                &self,
                data: &[f64],
                out: &mut (f64, &'static str),
            );
        }
    }

    #[test]
    fn multiversion_entries_dispatch_on_the_clamped_field() {
        let data = [1.0, 2.0, 4.0, 8.0, 0.0];
        let reference = {
            let mut out = (0.0, "");
            MacroKernel {
                backend: BackendImpl::Portable,
            }
            .body_dispatch(&data, &mut out);
            out
        };
        assert_eq!(reference.1, "portable");
        assert_eq!(reference.0, 15.0);
        for b in BackendImpl::ALL {
            let mut out = (0.0, "");
            MacroKernel { backend: clamp(b) }.body_dispatch(&data, &mut out);
            assert_eq!(out.1, clamp(b).name());
            assert_eq!(out.0.to_bits(), reference.0.to_bits());
        }
    }
}
