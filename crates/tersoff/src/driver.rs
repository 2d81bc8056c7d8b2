//! Execution-mode driver: the paper's `Ref` / `Opt-D` / `Opt-S` / `Opt-M`
//! codes (Sec. V-E) as ready-made [`Potential`] trait objects.
//!
//! The driver maps an [`ExecutionMode`] × [`Scheme`] × width choice onto a
//! row of one instance table: the precision mode fixes the compute/accumulate
//! types and the scheme + ISA class fix the vector widths, following the
//! paper's own choices (scheme 1a for short vectors, 1b for 8/16-lane
//! vectors, 1c with a 32-lane warp for the GPU). The table lists exactly the
//! kernels this build contains; anything else is an [`UnsupportedWidth`].

use crate::params::TersoffParams;
use crate::reference::TersoffRef;
use crate::scalar_opt::TersoffScalarOpt;
use crate::scheme_a::TersoffSchemeA;
use crate::scheme_b::TersoffSchemeB;
use crate::scheme_c::TersoffSchemeC;
use md_core::force_engine::{ForceEngine, RangePotential};
use md_core::potential::Potential;
use std::fmt;
use std::str::FromStr;
pub use vektor::dispatch::BackendImpl;

/// Error from parsing an [`ExecutionMode`] or [`Scheme`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseEnumError {
    /// What kind of value was being parsed ("execution mode", "scheme").
    pub what: &'static str,
    /// The rejected input.
    pub input: String,
    /// The accepted canonical names.
    pub expected: &'static str,
}

impl fmt::Display for ParseEnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} {:?} (expected one of: {})",
            self.what, self.input, self.expected
        )
    }
}

impl std::error::Error for ParseEnumError {}

/// The four codes evaluated in the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// The LAMMPS-equivalent reference (double precision, Algorithm 2).
    Ref,
    /// Optimized, double precision.
    OptD,
    /// Optimized, single precision.
    OptS,
    /// Optimized, mixed precision (single compute, double accumulate).
    OptM,
}

impl ExecutionMode {
    /// All modes in reporting order.
    pub const ALL: [ExecutionMode; 4] = [
        ExecutionMode::Ref,
        ExecutionMode::OptD,
        ExecutionMode::OptS,
        ExecutionMode::OptM,
    ];

    /// Display label matching the paper ("Ref", "Opt-D", ...). Equal to the
    /// `Display` rendering; `label().parse()` round-trips.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Ref => "Ref",
            ExecutionMode::OptD => "Opt-D",
            ExecutionMode::OptS => "Opt-S",
            ExecutionMode::OptM => "Opt-M",
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ExecutionMode {
    type Err = ParseEnumError;

    /// Case-insensitive; accepts the paper labels ("Ref", "Opt-M") and the
    /// punctuation-free forms ("optm", "opt_m").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .trim()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match norm.as_str() {
            "ref" | "reference" => Ok(ExecutionMode::Ref),
            "optd" => Ok(ExecutionMode::OptD),
            "opts" => Ok(ExecutionMode::OptS),
            "optm" => Ok(ExecutionMode::OptM),
            _ => Err(ParseEnumError {
                what: "execution mode",
                input: s.to_string(),
                expected: "Ref, Opt-D, Opt-S, Opt-M",
            }),
        }
    }
}

/// The mapping of the iteration space onto lanes (Fig. 1), plus the
/// scalar-optimized variant that does not vectorize at all.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Optimized scalar code (Algorithm 3, no vectorization) — what `Opt-D`
    /// falls back to on ISAs without suitable vectors (NEON double, SSE
    /// double).
    Scalar,
    /// Scheme (1a): J across lanes.
    JLanes,
    /// Scheme (1b): fused I·J across lanes.
    FusedLanes,
    /// Scheme (1c): I across lanes (warp model).
    ILanes,
}

impl Scheme {
    /// All schemes in reporting order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Scalar,
        Scheme::JLanes,
        Scheme::FusedLanes,
        Scheme::ILanes,
    ];

    /// Display label ("scalar", "1a", "1b", "1c"). Equal to the `Display`
    /// rendering; `label().parse()` round-trips.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Scalar => "scalar",
            Scheme::JLanes => "1a",
            Scheme::FusedLanes => "1b",
            Scheme::ILanes => "1c",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Scheme {
    type Err = ParseEnumError;

    /// Case-insensitive; accepts the figure labels ("1a"/"1b"/"1c"),
    /// "scalar", and the descriptive names ("jlanes", "fused", "ilanes",
    /// "warp").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Scheme::Scalar),
            "1a" | "a" | "j" | "jlanes" | "j-lanes" => Ok(Scheme::JLanes),
            "1b" | "b" | "ij" | "fused" | "fusedlanes" | "fused-lanes" => Ok(Scheme::FusedLanes),
            "1c" | "c" | "i" | "ilanes" | "i-lanes" | "warp" => Ok(Scheme::ILanes),
            _ => Err(ParseEnumError {
                what: "scheme",
                input: s.to_string(),
                expected: "scalar, 1a, 1b, 1c",
            }),
        }
    }
}

/// Options describing which Tersoff implementation to build.
#[derive(Copy, Clone, Debug)]
pub struct TersoffOptions {
    /// Execution mode (precision + optimized or reference).
    pub mode: ExecutionMode,
    /// Vectorization scheme (ignored for `Ref`).
    pub scheme: Scheme,
    /// Vector width; 0 selects the paper's default width for the
    /// scheme/precision combination (the first one listed). Supported
    /// widths — the rows of the instance table, anything else is an
    /// [`UnsupportedWidth`]:
    ///
    /// - scalar: Opt-D 1; Opt-S 1; Opt-M 1
    /// - 1a: Opt-D 4; Opt-S 8; Opt-M 8
    /// - 1b: Opt-D 8; Opt-S 16; Opt-M 16
    /// - 1c: Opt-D 32; Opt-S 32; Opt-M 32
    ///
    /// `Ref` ignores scheme and width.
    pub width: usize,
    /// Worker threads for the force engine: 1 runs single-threaded (no
    /// engine overhead), 0 uses one thread per available CPU, any other
    /// value is taken literally — the OpenMP-threads axis of the paper's
    /// single-node runs (Fig. 5).
    pub threads: usize,
    /// The `vektor` implementation executing the kernel: `None` resolves
    /// automatically (the `VEKTOR_BACKEND` environment variable, else
    /// runtime detection of the widest supported ISA — see
    /// `vektor::dispatch::default_backend`); `Some(_)` forces an
    /// implementation, clamped to what the host supports.
    ///
    /// Dispatch is **kernel-granular**: [`make_range_potential`] resolves
    /// the request once and stores it in the kernel instance, which then
    /// executes its whole `compute_range` body through the matching
    /// `#[target_feature]` entry (`vektor::multiversion_entries!`) — the
    /// same source for every value, compiled once per ISA. Two coexisting
    /// potentials can run different backends; there is no process-global
    /// state. Since all implementations are bitwise-equivalent, the choice
    /// changes speed only, never results.
    pub backend: Option<BackendImpl>,
}

impl Default for TersoffOptions {
    fn default() -> Self {
        TersoffOptions {
            mode: ExecutionMode::OptM,
            scheme: Scheme::FusedLanes,
            width: 0,
            threads: 1,
            backend: None,
        }
    }
}

impl TersoffOptions {
    /// The table rows of this mode and scheme, default width first. `Ref`
    /// is outside the table (it ignores scheme and width) and reads the
    /// double-precision rows.
    fn rows(&self) -> impl Iterator<Item = &'static Instance> {
        let mode = match self.mode {
            ExecutionMode::Ref => ExecutionMode::OptD,
            mode => mode,
        };
        let scheme = self.scheme;
        INSTANCES
            .iter()
            .filter(move |row| row.mode == mode && row.scheme == scheme)
    }

    /// The explicit width, or for `width: 0` the paper's default for this
    /// scheme and precision: 4 f64 / 8 f32 lanes for scheme (1a)
    /// (AVX/AVX2-class), 8 f64 / 16 f32 for scheme (1b) (AVX-512-class), 32
    /// for the warp scheme.
    pub fn effective_width(&self) -> usize {
        if self.width != 0 {
            return self.width;
        }
        self.rows()
            .next()
            .expect("every mode × scheme has a table row")
            .width
    }

    /// The table row these options select.
    fn instance(&self) -> Result<&'static Instance, UnsupportedWidth> {
        let width = self.effective_width();
        self.rows()
            .find(|row| row.width == width)
            .ok_or_else(|| UnsupportedWidth {
                mode: self.mode,
                scheme: self.scheme,
                width,
                supported: self.rows().map(|row| row.width).collect(),
            })
    }

    /// Whether this build has a kernel for the requested `width` — what a
    /// caller holding outside input checks before [`make_potential`], which
    /// panics on the same condition.
    pub fn check_width(&self) -> Result<(), UnsupportedWidth> {
        if self.mode == ExecutionMode::Ref {
            return Ok(());
        }
        self.instance().map(|_| ())
    }

    /// A short human-readable description ("Opt-M/1b/w16", with a "/tN"
    /// suffix when the threaded engine is enabled).
    pub fn label(&self) -> String {
        let base = match self.mode {
            ExecutionMode::Ref => "Ref".to_string(),
            _ => format!(
                "{}/{}/w{}",
                self.mode.label(),
                self.scheme.label(),
                self.effective_width()
            ),
        };
        if self.threads == 1 {
            base
        } else {
            format!("{base}/t{}", self.threads)
        }
    }

    /// Convenience: the same options with a different thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Convenience: the same options with a forced vektor backend (stored
    /// per kernel instance — see [`TersoffOptions::backend`]).
    pub fn with_backend(mut self, backend: BackendImpl) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The vektor implementation these options resolve to on this host
    /// (the instance [`make_potential`] will build): the explicit request
    /// if supported, else the `VEKTOR_BACKEND`/auto-detected default.
    pub fn resolved_backend(&self) -> BackendImpl {
        vektor::dispatch::resolve(self.backend)
    }
}

/// A requested vector width no kernel instance of this build has.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedWidth {
    /// The requested execution mode.
    pub mode: ExecutionMode,
    /// The requested scheme.
    pub scheme: Scheme,
    /// The rejected width.
    pub width: usize,
    /// The widths that exist for this mode and scheme; `width: 0` selects
    /// the first.
    pub supported: Vec<usize>,
}

impl fmt::Display for UnsupportedWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let supported: Vec<String> = self.supported.iter().map(usize::to_string).collect();
        write!(
            f,
            "unsupported vector width {} for {}/{} (supported: {}; 0 selects the first)",
            self.width,
            self.mode,
            self.scheme,
            supported.join(", ")
        )
    }
}

impl std::error::Error for UnsupportedWidth {}

/// One kernel instance of this build.
struct Instance {
    mode: ExecutionMode,
    scheme: Scheme,
    width: usize,
    build: fn(TersoffParams, BackendImpl) -> Box<dyn RangePotential>,
}

/// One table row; the mode fixes the compute/accumulate precisions.
macro_rules! instance {
    (OptD, $($row:tt)+) => { instance!(@ OptD, f64, f64, $($row)+) };
    (OptS, $($row:tt)+) => { instance!(@ OptS, f32, f32, $($row)+) };
    (OptM, $($row:tt)+) => { instance!(@ OptM, f32, f64, $($row)+) };
    (@ $mode:ident, $t:ty, $a:ty, Scalar, $kernel:ident) => {
        instance!(@row $mode, Scalar, 1, $kernel::<$t, $a>)
    };
    (@ $mode:ident, $t:ty, $a:ty, $scheme:ident, $kernel:ident, $w:literal) => {
        instance!(@row $mode, $scheme, $w, $kernel::<$t, $a, $w>)
    };
    (@row $mode:ident, $scheme:ident, $w:literal, $kernel:ty) => {
        Instance {
            mode: ExecutionMode::$mode,
            scheme: Scheme::$scheme,
            width: $w,
            build: |params, backend| Box::new(<$kernel>::new(params).with_backend(backend)),
        }
    };
}

/// Every optimized kernel this build contains — the (scheme, precision,
/// width) combinations a shipped scenario, test, bench or benchmark workload
/// reaches. Per mode × scheme the first row is the default (`width: 0`).
/// This is the only list: construction, [`TersoffOptions::effective_width`]
/// and [`UnsupportedWidth`] all read it, and each row costs three per-ISA
/// copies of a whole kernel, so add a row only with its caller.
static INSTANCES: [Instance; 12] = [
    instance!(OptD, Scalar, TersoffScalarOpt),
    instance!(OptS, Scalar, TersoffScalarOpt),
    instance!(OptM, Scalar, TersoffScalarOpt),
    instance!(OptD, JLanes, TersoffSchemeA, 4),
    instance!(OptS, JLanes, TersoffSchemeA, 8),
    instance!(OptM, JLanes, TersoffSchemeA, 8),
    instance!(OptD, FusedLanes, TersoffSchemeB, 8),
    instance!(OptS, FusedLanes, TersoffSchemeB, 16),
    instance!(OptM, FusedLanes, TersoffSchemeB, 16),
    instance!(OptD, ILanes, TersoffSchemeC, 32),
    instance!(OptS, ILanes, TersoffSchemeC, 32),
    instance!(OptM, ILanes, TersoffSchemeC, 32),
];

/// Build the Tersoff implementation described by `options`.
///
/// The kernel is always wrapped in a [`ForceEngine`] over a
/// [`md_core::runtime::ParallelRuntime`] of `options.threads` participants:
/// the engine's fixed-chunk partition and ordered merges make the forces
/// **bitwise identical for every thread count**, so a single-threaded build
/// runs exactly the same summation order as an 8-thread one. The
/// `SimulationBuilder` can later re-bind the engine onto its own runtime so
/// the whole timestep shares one worker team.
pub fn make_potential(params: TersoffParams, options: TersoffOptions) -> Box<dyn Potential> {
    let inner = make_range_potential(params, options);
    Box::new(ForceEngine::new(inner, options.threads))
}

/// Build the kernel described by `options` as a range-computable potential
/// (the form the [`ForceEngine`] drives; also usable directly).
///
/// # Panics
/// With the [`UnsupportedWidth`] message if `options.width` names no kernel
/// instance; check outside input with [`TersoffOptions::check_width`] first.
pub fn make_range_potential(
    params: TersoffParams,
    options: TersoffOptions,
) -> Box<dyn RangePotential> {
    // The reference implementation is deliberately left out of the table
    // and the multiversioning — it is the unoptimized yardstick the paper
    // compares against.
    if options.mode == ExecutionMode::Ref {
        return Box::new(TersoffRef::new(params));
    }
    // Resolve the vektor implementation once and hand it to the kernel
    // instance: dispatch is kernel-granular, so the choice lives in the
    // potential being built (no process-global state, and coexisting
    // potentials may run different backends).
    match options.instance() {
        Ok(row) => (row.build)(params, options.resolved_backend()),
        Err(unsupported) => panic!("{unsupported}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::lattice::Lattice;
    use md_core::neighbor::{NeighborList, NeighborSettings};
    use md_core::potential::ComputeOutput;

    #[test]
    fn default_widths_follow_the_paper() {
        let mk = |mode, scheme| TersoffOptions {
            mode,
            scheme,
            width: 0,
            threads: 1,
            backend: None,
        };
        assert_eq!(mk(ExecutionMode::OptD, Scheme::JLanes).effective_width(), 4);
        assert_eq!(mk(ExecutionMode::OptS, Scheme::JLanes).effective_width(), 8);
        assert_eq!(
            mk(ExecutionMode::OptD, Scheme::FusedLanes).effective_width(),
            8
        );
        assert_eq!(
            mk(ExecutionMode::OptM, Scheme::FusedLanes).effective_width(),
            16
        );
        assert_eq!(
            mk(ExecutionMode::OptM, Scheme::ILanes).effective_width(),
            32
        );
        assert_eq!(mk(ExecutionMode::OptD, Scheme::Scalar).effective_width(), 1);
        let explicit = TersoffOptions {
            mode: ExecutionMode::OptM,
            scheme: Scheme::JLanes,
            width: 8,
            threads: 1,
            backend: None,
        };
        assert_eq!(explicit.effective_width(), 8);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            TersoffOptions {
                mode: ExecutionMode::Ref,
                scheme: Scheme::FusedLanes,
                width: 0,
                threads: 1,
                backend: None,
            }
            .label(),
            "Ref"
        );
        assert_eq!(TersoffOptions::default().label(), "Opt-M/1b/w16");
        assert_eq!(ExecutionMode::OptS.label(), "Opt-S");
        assert_eq!(Scheme::ILanes.label(), "1c");
    }

    const OPTIMIZED: [ExecutionMode; 3] = [
        ExecutionMode::OptD,
        ExecutionMode::OptS,
        ExecutionMode::OptM,
    ];

    fn options(mode: ExecutionMode, scheme: Scheme, width: usize) -> TersoffOptions {
        TersoffOptions {
            mode,
            scheme,
            width,
            threads: 1,
            backend: None,
        }
    }

    #[test]
    fn every_mode_scheme_combination_builds_and_agrees() {
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.05, 77);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));

        let mut reference = make_potential(
            TersoffParams::silicon(),
            options(ExecutionMode::Ref, Scheme::Scalar, 0),
        );
        let mut out_ref = ComputeOutput::zeros(atoms.n_total());
        reference.compute(&atoms, &b, &list, &mut out_ref);

        let agrees = |pot: &mut dyn Potential, what: &str, mode: ExecutionMode| {
            let mut out = ComputeOutput::zeros(atoms.n_total());
            pot.compute(&atoms, &b, &list, &mut out);
            let tol = if mode == ExecutionMode::OptD {
                1e-9
            } else {
                2e-5
            };
            let rel = ((out.energy - out_ref.energy) / out_ref.energy).abs();
            assert!(rel < tol, "{what}: relative energy error {rel}");
        };

        // Every row of the table builds the instance it names.
        for row in &INSTANCES {
            let opts = options(row.mode, row.scheme, row.width);
            assert_eq!(opts.check_width(), Ok(()));
            let mut pot = make_range_potential(TersoffParams::silicon(), opts);
            let name = match (row.scheme, row.mode) {
                (Scheme::Scalar, ExecutionMode::OptD) => "tersoff/opt-scalar/double".to_string(),
                (Scheme::Scalar, ExecutionMode::OptS) => "tersoff/opt-scalar/single".to_string(),
                (Scheme::Scalar, _) => "tersoff/opt-scalar/mixed".to_string(),
                (Scheme::JLanes, _) => format!("tersoff/scheme-a/w{}", row.width),
                (Scheme::FusedLanes, _) => format!("tersoff/scheme-b/w{}", row.width),
                (Scheme::ILanes, _) => format!("tersoff/scheme-c/w{}", row.width),
            };
            assert_eq!(pot.name(), name);
            agrees(&mut pot, &opts.label(), row.mode);
        }

        // Every mode × scheme has a default row, reached through the engine.
        for mode in OPTIMIZED {
            for scheme in Scheme::ALL {
                let opts = options(mode, scheme, 0);
                assert_eq!(opts.check_width(), Ok(()));
                let mut pot = make_potential(TersoffParams::silicon(), opts);
                agrees(pot.as_mut(), &opts.label(), mode);
            }
        }
    }

    #[test]
    fn widths_off_the_table_are_a_typed_error() {
        for mode in OPTIMIZED {
            for scheme in Scheme::ALL {
                let on_table: Vec<usize> = options(mode, scheme, 0)
                    .rows()
                    .map(|row| row.width)
                    .collect();
                for width in [1, 2, 4, 7, 8, 16, 32, 64] {
                    let opts = options(mode, scheme, width);
                    if on_table.contains(&width) {
                        assert_eq!(opts.instance().map(|row| row.width), Ok(width));
                        continue;
                    }
                    let err = opts.check_width().unwrap_err();
                    assert_eq!(
                        err,
                        UnsupportedWidth {
                            mode,
                            scheme,
                            width,
                            supported: on_table.clone(),
                        }
                    );
                    let text = err.to_string();
                    assert!(text.starts_with(&format!("unsupported vector width {width} ")));
                    for w in &on_table {
                        assert!(text.contains(&w.to_string()), "{text}");
                    }
                }
            }
        }
        // Ref ignores scheme and width.
        assert_eq!(
            options(ExecutionMode::Ref, Scheme::FusedLanes, 7).check_width(),
            Ok(())
        );
    }

    /// One line per scheme, "1a: Opt-D 4; Opt-S 8; Opt-M 8".
    fn supported_width_lines() -> Vec<String> {
        Scheme::ALL
            .iter()
            .map(|&scheme| {
                let per_mode: Vec<String> = OPTIMIZED
                    .iter()
                    .map(|&mode| {
                        let widths: Vec<String> = options(mode, scheme, 0)
                            .rows()
                            .map(|row| row.width.to_string())
                            .collect();
                        format!("{mode} {}", widths.join(", "))
                    })
                    .collect();
                format!("{scheme}: {}", per_mode.join("; "))
            })
            .collect()
    }

    #[test]
    fn docs_state_the_widths_of_the_table() {
        for (doc, text) in [
            ("driver.rs", include_str!("driver.rs")),
            ("README.md", include_str!("../../../README.md")),
            (
                "scenarios/README.md",
                include_str!("../../../scenarios/README.md"),
            ),
        ] {
            for line in supported_width_lines() {
                assert!(text.contains(&line), "{doc} does not state `{line}`");
            }
        }
    }

    #[test]
    fn mode_and_scheme_labels_round_trip_through_from_str() {
        for mode in ExecutionMode::ALL {
            assert_eq!(mode.label().parse::<ExecutionMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.label());
        }
        for scheme in Scheme::ALL {
            assert_eq!(scheme.label().parse::<Scheme>().unwrap(), scheme);
            assert_eq!(scheme.to_string(), scheme.label());
        }
        // Forgiving spellings.
        assert_eq!(
            "opt_m".parse::<ExecutionMode>().unwrap(),
            ExecutionMode::OptM
        );
        assert_eq!(
            "OPTD".parse::<ExecutionMode>().unwrap(),
            ExecutionMode::OptD
        );
        assert_eq!("warp".parse::<Scheme>().unwrap(), Scheme::ILanes);
        // Rejections carry a useful message.
        let err = "opt-x".parse::<ExecutionMode>().unwrap_err();
        assert!(err.to_string().contains("execution mode"));
        assert!("1d".parse::<Scheme>().is_err());
    }

    #[test]
    #[should_panic(expected = "unsupported vector width")]
    fn unsupported_width_panics() {
        make_potential(
            TersoffParams::silicon(),
            TersoffOptions {
                mode: ExecutionMode::OptD,
                scheme: Scheme::FusedLanes,
                width: 7,
                threads: 1,
                backend: None,
            },
        );
    }
}
