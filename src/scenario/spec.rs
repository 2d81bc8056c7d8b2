//! The declarative half of the scenario layer: the serializable spec types
//! and their strict JSON parsing.
//!
//! Everything in this module is *data*: what to simulate (lattice,
//! perturbation, temperature, seeds), how (parameter set, execution
//! mode/scheme/width/threads, backend request), for how long (timestep,
//! skin, steps, sampling), and the optional extras (trajectory dump,
//! mode×threads matrix, drift bound, health guard, checkpointing, fault
//! injection). Execution lives in [`super::exec`], which turns these specs
//! into jobs on the [`md_core::jobs::JobEngine`].
//!
//! Specs are plain JSON read by [`Scenario::from_json`] through one strict
//! section reader: every object's keys are checked against its list before
//! any field is read, so a typo in a spec file fails loudly instead of
//! silently running defaults. An absent key and `null` both mean "not
//! given".

use crate::json::{parse, Json};
use md_core::fault::{FaultKind, FaultPlan};
use md_core::health::HealthSettings;
use md_core::lattice::Lattice;
use md_core::simulation::BuildError;
use md_core::units;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tersoff::driver::{BackendImpl, ExecutionMode, Scheme, TersoffOptions};
use tersoff::params::TersoffParams;

/// Errors from loading, validating or executing a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read (or the directory not listed).
    Io {
        /// The offending path.
        path: String,
        /// The OS error text.
        error: String,
    },
    /// The JSON was malformed or the spec invalid; the string names the
    /// scenario file context and the offending field.
    Parse(String),
    /// The described simulation failed validation in the builder.
    Build(BuildError),
    /// The declared decomposition grid does not fit the scenario's box
    /// (a rank cell thinner than the interaction cutoff + skin).
    Decomposition(String),
    /// A variant's execution did not complete cleanly (diverged, panicked
    /// or timed out) — produced by the compatibility wrapper
    /// [`Scenario::execute`]; [`Scenario::execute_with`] reports the same
    /// condition per-variant instead of failing the batch.
    Run {
        /// The variant's options label.
        label: String,
        /// How the variant ended.
        status: VariantStatus,
        /// Human-readable detail.
        message: String,
    },
    /// The job engine refused a submission (queue closed, or a full queue
    /// under [`md_core::jobs::JobEngine::try_submit`]).
    Engine(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, error } => write!(f, "{path}: {error}"),
            ScenarioError::Parse(msg) => write!(f, "{msg}"),
            ScenarioError::Build(e) => write!(f, "invalid simulation: {e}"),
            ScenarioError::Decomposition(msg) => write!(f, "invalid decomposition: {msg}"),
            ScenarioError::Run {
                label,
                status,
                message,
            } => write!(f, "{label}: {status}: {message}"),
            ScenarioError::Engine(msg) => write!(f, "job engine: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<BuildError> for ScenarioError {
    fn from(e: BuildError) -> Self {
        ScenarioError::Build(e)
    }
}

/// The crystal the scenario builds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LatticeSpec {
    /// Diamond-cubic silicon (the paper's benchmark system).
    Silicon,
    /// Zincblende SiC (two species).
    SiliconCarbide,
    /// Diamond-cubic carbon (the diamond crystal).
    Carbon,
    /// Diamond-cubic germanium.
    Germanium,
    /// Si₀.₅Ge₀.₅ random alloy on the Vegard-average diamond lattice; the
    /// species draw is seeded by the scenario's `lattice_seed`.
    SiliconGermanium,
    /// AB-stacked graphite at the experimental bond length (1.42 Å).
    Graphite,
}

impl LatticeSpec {
    /// Stable lower-case name used in spec files.
    pub fn name(self) -> &'static str {
        match self {
            LatticeSpec::Silicon => "silicon",
            LatticeSpec::SiliconCarbide => "silicon_carbide",
            LatticeSpec::Carbon => "carbon",
            LatticeSpec::Germanium => "germanium",
            LatticeSpec::SiliconGermanium => "silicon_germanium",
            LatticeSpec::Graphite => "graphite",
        }
    }

    /// The lattice builder for `cells` conventional cells. `species_seed`
    /// seeds the alloy species draw (ignored by the ordered structures).
    pub fn lattice(self, cells: [usize; 3], species_seed: u64) -> Lattice {
        match self {
            LatticeSpec::Silicon => Lattice::silicon(cells),
            LatticeSpec::SiliconCarbide => Lattice::silicon_carbide(cells),
            LatticeSpec::Carbon => Lattice::carbon_diamond(cells),
            LatticeSpec::Germanium => Lattice::germanium(cells),
            LatticeSpec::SiliconGermanium => Lattice::silicon_germanium(cells, species_seed),
            LatticeSpec::Graphite => Lattice::graphite_ab(1.42, cells),
        }
    }
}

impl fmt::Display for LatticeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for LatticeSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "silicon" | "si" | "diamond" => Ok(LatticeSpec::Silicon),
            "silicon_carbide" | "sic" | "zincblende" => Ok(LatticeSpec::SiliconCarbide),
            "carbon" | "c" => Ok(LatticeSpec::Carbon),
            "germanium" | "ge" => Ok(LatticeSpec::Germanium),
            "silicon_germanium" | "sige" => Ok(LatticeSpec::SiliconGermanium),
            "graphite" => Ok(LatticeSpec::Graphite),
            other => Err(format!(
                "unknown lattice {other:?} (expected silicon, silicon_carbide, \
                 carbon, germanium, silicon_germanium or graphite)"
            )),
        }
    }
}

/// Which published Tersoff parameter set to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParamSet {
    /// Si(C) 1988 — the paper's silicon benchmark parameterization.
    Silicon,
    /// Si(B) 1988 (the alternative silicon set).
    SiliconB,
    /// Carbon.
    Carbon,
    /// Germanium.
    Germanium,
    /// The Tersoff-1989 Si/C mixed set.
    SiliconCarbide,
    /// The Tersoff-1989 Si/Ge mixed set.
    SiliconGermanium,
}

impl ParamSet {
    /// Stable lower-case name used in spec files.
    pub fn name(self) -> &'static str {
        match self {
            ParamSet::Silicon => "silicon",
            ParamSet::SiliconB => "silicon_b",
            ParamSet::Carbon => "carbon",
            ParamSet::Germanium => "germanium",
            ParamSet::SiliconCarbide => "silicon_carbide",
            ParamSet::SiliconGermanium => "silicon_germanium",
        }
    }

    /// The parameter table.
    pub fn params(self) -> TersoffParams {
        match self {
            ParamSet::Silicon => TersoffParams::silicon(),
            ParamSet::SiliconB => TersoffParams::silicon_b(),
            ParamSet::Carbon => TersoffParams::carbon(),
            ParamSet::Germanium => TersoffParams::germanium(),
            ParamSet::SiliconCarbide => TersoffParams::silicon_carbide(),
            ParamSet::SiliconGermanium => TersoffParams::silicon_germanium(),
        }
    }

    /// Per-type masses (g/mol) matching the parameter table's species order.
    pub fn masses(self) -> Vec<f64> {
        match self {
            ParamSet::Silicon | ParamSet::SiliconB => vec![units::mass::SI],
            ParamSet::Carbon => vec![units::mass::C],
            ParamSet::Germanium => vec![units::mass::GE],
            ParamSet::SiliconCarbide => vec![units::mass::SI, units::mass::C],
            ParamSet::SiliconGermanium => vec![units::mass::SI, units::mass::GE],
        }
    }

    /// Element symbols matching the parameter table's species order (used by
    /// the trajectory dump when a spec does not override them).
    pub fn elements(self) -> Vec<String> {
        match self {
            ParamSet::Silicon | ParamSet::SiliconB => vec!["Si".to_string()],
            ParamSet::Carbon => vec!["C".to_string()],
            ParamSet::Germanium => vec!["Ge".to_string()],
            ParamSet::SiliconCarbide => vec!["Si".to_string(), "C".to_string()],
            ParamSet::SiliconGermanium => vec!["Si".to_string(), "Ge".to_string()],
        }
    }
}

impl fmt::Display for ParamSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ParamSet {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "silicon" | "si" | "si_c" | "si(c)" => Ok(ParamSet::Silicon),
            "silicon_b" | "si_b" | "si(b)" => Ok(ParamSet::SiliconB),
            "carbon" | "c" => Ok(ParamSet::Carbon),
            "germanium" | "ge" => Ok(ParamSet::Germanium),
            "silicon_carbide" | "sic" => Ok(ParamSet::SiliconCarbide),
            "silicon_germanium" | "sige" => Ok(ParamSet::SiliconGermanium),
            other => Err(format!(
                "unknown parameter set {other:?} (expected silicon, silicon_b, \
                 carbon, germanium, silicon_carbide or silicon_germanium)"
            )),
        }
    }
}

/// The physical system: lattice + size + perturbation + initial temperature.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    /// Crystal structure.
    pub lattice: LatticeSpec,
    /// Conventional cells in x, y, z.
    pub cells: [usize; 3],
    /// Uniform random displacement amplitude (Å).
    pub perturbation: f64,
    /// Seed of the lattice perturbation.
    pub lattice_seed: u64,
    /// Initial temperature (K).
    pub temperature: f64,
    /// Seed of the Maxwell–Boltzmann velocity draw.
    pub velocity_seed: u64,
}

/// The force field: parameter set + execution mode/scheme/width/threads and
/// the vektor backend request.
#[derive(Clone, Debug, PartialEq)]
pub struct PotentialSpec {
    /// Parameter set.
    pub params: ParamSet,
    /// Execution mode (Ref / Opt-D / Opt-S / Opt-M).
    pub mode: ExecutionMode,
    /// Vectorization scheme (ignored for Ref).
    pub scheme: Scheme,
    /// Vector width (0 = the paper's default for the scheme/precision).
    pub width: usize,
    /// Force-engine threads (1 = direct, 0 = all CPUs).
    pub threads: usize,
    /// Requested vektor implementation (`None` = auto-detect).
    pub backend: Option<BackendImpl>,
}

/// The integration run: timestep, skin, length and sampling cadence.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Timestep (ps).
    pub timestep: f64,
    /// Neighbor skin (Å).
    pub skin: f64,
    /// Number of timesteps.
    pub steps: u64,
    /// Thermo sampling interval (0 = initial/final only).
    pub thermo_every: u64,
}

/// Trajectory file format of a [`DumpSpec`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum DumpFormat {
    /// Plain XYZ frames ([`md_core::XyzDump`]).
    #[default]
    Xyz,
    /// LAMMPS text dump with box bounds ([`md_core::LammpsDump`]), readable
    /// by OVITO/VMD and LAMMPS' `read_dump`.
    Lammps,
}

impl DumpFormat {
    /// Stable lower-case name used in spec files.
    pub fn name(self) -> &'static str {
        match self {
            DumpFormat::Xyz => "xyz",
            DumpFormat::Lammps => "lammps",
        }
    }
}

impl fmt::Display for DumpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DumpFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "xyz" => Ok(DumpFormat::Xyz),
            "lammps" | "lammpstrj" | "dump" => Ok(DumpFormat::Lammps),
            other => Err(format!(
                "unknown dump format {other:?} (expected xyz or lammps)"
            )),
        }
    }
}

/// Optional trajectory dump: an [`md_core::XyzDump`] or
/// [`md_core::LammpsDump`] observer writing one frame every `every` steps of
/// each variant's run.
#[derive(Clone, Debug, PartialEq)]
pub struct DumpSpec {
    /// Output file. When the scenario declares a matrix, each variant writes
    /// `<stem>_<mode>_t<threads>.<ext>` so runs do not clobber each other.
    pub path: String,
    /// Dump interval in steps (must be positive).
    pub every: u64,
    /// Per-type element symbols; defaults to the parameter set's species.
    pub elements: Option<Vec<String>>,
    /// File format (default `xyz`).
    pub format: DumpFormat,
}

/// Optional rank-parallel domain decomposition: the scenario runs through
/// [`md_core::DomainSimulation`] on a grid of ranks — the in-process analog
/// of LAMMPS' MPI decomposition behind the paper's Fig. 9 strong-scaling
/// study — instead of the single-domain driver. The trajectory is **bitwise
/// identical** either way; the decomposed run additionally reports
/// per-rank/communication statistics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DecompositionSpec {
    /// Ranks along x, y, z. Every entry must be ≥ 1 and each rank cell must
    /// stay wider than the interaction cutoff + skin (validated against the
    /// actual box when the run is built; violations fail with a grid error).
    pub grid: [usize; 3],
}

impl DecompositionSpec {
    /// Total rank count (the grid product).
    pub fn n_ranks(&self) -> usize {
        self.grid.iter().product()
    }

    /// `"XxYxZ"` — the label used in tables and report JSON.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.grid[0], self.grid[1], self.grid[2])
    }
}

/// Optional mode × threads expansion: `tersoff-run` executes the cartesian
/// product instead of the single base variant.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSpec {
    /// Execution modes to run (empty = just the base mode).
    pub modes: Vec<ExecutionMode>,
    /// Thread counts to run (empty = just the base thread count).
    pub threads: Vec<usize>,
}

/// Optional numerical health guard: a [`md_core::HealthGuard`] observer
/// aborting the run on non-finite state or violated temperature/displacement
/// bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSpec {
    /// Check cadence in steps (default 1; 0 disables the per-step scans but
    /// keeps the thermo-sample checks).
    pub every: u64,
    /// Abort when the sampled temperature exceeds this bound (K).
    pub max_temperature: Option<f64>,
    /// Abort when any atom moves further than this between two checks (Å).
    pub max_displacement: Option<f64>,
}

impl HealthSpec {
    /// The md-core settings this spec describes.
    pub fn settings(&self) -> HealthSettings {
        HealthSettings {
            every: self.every,
            max_temperature: self.max_temperature,
            max_displacement: self.max_displacement,
        }
    }
}

/// Optional checkpointing: a [`md_core::CheckpointWriter`] observer saving a
/// bit-exact [`md_core::Checkpoint`] every `every` steps, and the file
/// [`super::RunPolicy::resume`] restarts from.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointSpec {
    /// Checkpoint file. Matrix variants write
    /// `<stem>_<mode>_t<threads>.<ext>` (like `dump.path`).
    pub path: String,
    /// Checkpoint interval in steps (must be positive).
    pub every: u64,
}

/// Test-only fault injection (see [`md_core::fault`]): makes a chosen step
/// of matching variants panic or go NaN so CI can prove batch isolation.
/// The `TERSOFF_FAULT` environment variable (`kind@step[@variant]`)
/// overrides this field from the `tersoff-run` CLI.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// What to inject (`panic` or `nan`).
    pub kind: FaultKind,
    /// The step at whose start the fault fires.
    pub step: u64,
    /// Only inject into variants whose options label contains this
    /// substring (e.g. `"Ref"` or `"t4"`); `None` = every variant.
    pub variant: Option<String>,
}

impl FaultSpec {
    /// Parse the `TERSOFF_FAULT` environment override:
    /// `kind@step[@variant-substring]`, e.g. `panic@5` or `nan@3@Ref`.
    pub fn parse_env(text: &str) -> Result<FaultSpec, String> {
        let mut parts = text.splitn(3, '@');
        let kind: FaultKind = parts.next().unwrap_or("").parse()?;
        let step = parts
            .next()
            .ok_or_else(|| format!("missing step in fault spec {text:?} (kind@step[@variant])"))?
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("invalid step in fault spec {text:?}: {e}"))?;
        let variant = parts
            .next()
            .map(|s| s.to_string())
            .filter(|s| !s.is_empty());
        Ok(FaultSpec {
            kind,
            step,
            variant,
        })
    }

    /// Does this fault apply to the variant with the given options label?
    pub fn applies_to(&self, label: &str) -> bool {
        self.variant
            .as_deref()
            .is_none_or(|needle| label.contains(needle))
    }

    /// The md-core injection plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.kind, self.step)
    }
}

/// Stress-tensor sampling: attaches a [`md_core::StressTensor`] observer and
/// reports the time-averaged and final 6-component pressure tensor (bar).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StressSpec {
    /// Sampling cadence in steps (must be positive).
    pub every: u64,
}

/// Radial-distribution sampling: attaches a [`md_core::RadialDistribution`]
/// observer and reports the normalized g(r) histogram.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RdfSpec {
    /// Sampling cadence in steps (must be positive).
    pub every: u64,
    /// Histogram bin count (must be positive).
    pub bins: usize,
    /// Histogram range (Å). `0` = automatic: the interaction cutoff + skin
    /// (the reach of the neighbor list, which is also the hard upper bound —
    /// larger requests are clamped to it).
    pub r_max: f64,
}

/// Elastic-constants driver: after the run, [`md_core::elastic`] relaxes the
/// cell, refines the lattice constant, and measures C11/C12/C44 from
/// finite-strain energy differences (strained replicas run as parallel jobs
/// on a nested engine). Cubic (diamond-kind) lattices only; for the random
/// alloy the shear/uniaxial stage is skipped and only the lattice constant
/// and cohesive energy are reported.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ElasticSpec {
    /// Finite-strain amplitude δ (default 5·10⁻³).
    pub strain: f64,
    /// FIRE relaxation step budget for the internally-relaxed (C44)
    /// evaluations (default 1000).
    pub minimize_steps: u64,
}

impl ElasticSpec {
    /// The md-core driver settings this spec describes.
    pub fn settings(&self) -> md_core::ElasticSettings {
        md_core::ElasticSettings {
            strain: self.strain,
            minimize_steps: self.minimize_steps,
        }
    }
}

/// Published reference values the measured properties are checked against.
/// Each declared value produces one pass/fail entry in the report's
/// `properties.checks` array; `tersoff-run` fails when any check fails.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ExpectedProperties {
    /// Cohesive energy per atom (eV, negative).
    pub cohesive_ev: Option<f64>,
    /// Equilibrium lattice constant (Å).
    pub lattice_a: Option<f64>,
    /// Elastic constant C11 (GPa).
    pub c11_gpa: Option<f64>,
    /// Elastic constant C12 (GPa).
    pub c12_gpa: Option<f64>,
    /// Elastic constant C44 (GPa).
    pub c44_gpa: Option<f64>,
    /// Allowed relative deviation in percent (default 2).
    pub tolerance_pct: f64,
}

/// Optional materials-property block: observers sampled during the run
/// (stress tensor, g(r)), the post-run elastic-constants driver, and the
/// published values to check the measurements against.
#[derive(Clone, Debug, PartialEq)]
pub struct PropertiesSpec {
    /// Stress-tensor sampling.
    pub stress: Option<StressSpec>,
    /// Radial-distribution sampling.
    pub rdf: Option<RdfSpec>,
    /// Elastic-constants driver.
    pub elastic: Option<ElasticSpec>,
    /// Published reference values to check against.
    pub expected: Option<ExpectedProperties>,
}

/// A complete, serializable experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Short identifier (also names the output report).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// The physical system.
    pub system: SystemSpec,
    /// The force field.
    pub potential: PotentialSpec,
    /// The integration run.
    pub run: RunSpec,
    /// Optional trajectory dump.
    pub dump: Option<DumpSpec>,
    /// Optional rank-parallel domain decomposition.
    pub decomposition: Option<DecompositionSpec>,
    /// Optional mode×threads matrix.
    pub matrix: Option<MatrixSpec>,
    /// Declared bound on |ΔE/E₀|; violations fail `tersoff-run`.
    pub max_drift: Option<f64>,
    /// Optional numerical health guard.
    pub health: Option<HealthSpec>,
    /// Optional periodic checkpointing.
    pub checkpoint: Option<CheckpointSpec>,
    /// Test-only fault injection.
    pub fault: Option<FaultSpec>,
    /// Optional materials-property observers, elastic driver and checks.
    pub properties: Option<PropertiesSpec>,
}

/// One (mode, threads) point of a scenario's matrix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Variant {
    /// Execution mode of this run.
    pub mode: ExecutionMode,
    /// Requested engine threads (0 = all CPUs).
    pub threads: usize,
}

/// How one variant of a batch ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VariantStatus {
    /// Ran to completion within bounds.
    Ok,
    /// A health guard aborted the run (deterministic step and reason).
    Diverged,
    /// A panic unwound out of the run; the shared runtime self-healed and
    /// was reused by later variants.
    Panicked,
    /// The wall-clock timeout expired (the worker thread is abandoned and
    /// its runtime handle discarded).
    Timeout,
    /// The variant could not be set up (build or IO error).
    Failed,
}

impl VariantStatus {
    /// Stable lower-case name used in report JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            VariantStatus::Ok => "ok",
            VariantStatus::Diverged => "diverged",
            VariantStatus::Panicked => "panicked",
            VariantStatus::Timeout => "timeout",
            VariantStatus::Failed => "failed",
        }
    }
}

impl fmt::Display for VariantStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Scenario {
    // -- construction ------------------------------------------------------

    /// Parse a scenario from JSON text (strict: unknown keys are errors;
    /// an absent key and `null` both mean "not given").
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let root = parse(text).map_err(ScenarioError::Parse)?;
        let top = Section::new(
            &root,
            Section::TOP.to_string(),
            &[
                "name",
                "description",
                "system",
                "potential",
                "run",
                "dump",
                "decomposition",
                "matrix",
                "max_drift",
                "health",
                "checkpoint",
                "fault",
                "properties",
            ],
        )?;
        let name: String = top.req("name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ScenarioError::Parse(format!(
                "scenario name {name:?} must be non-empty [A-Za-z0-9_-] (it names the report file)"
            )));
        }
        let description = top.opt("description")?.unwrap_or_default();

        let system_keys = [
            "lattice",
            "cells",
            "perturbation",
            "lattice_seed",
            "temperature",
            "velocity_seed",
        ];
        let system = top.section("system", &system_keys, |s| {
            let lattice: LatticeSpec = s.name("lattice", None)?;
            let cells = s.triple("cells")?;
            let per_cell = lattice.lattice([1, 1, 1], 0).atoms_per_cell();
            if cells
                .iter()
                .try_fold(per_cell, |n, &c| n.checked_mul(c))
                .is_none()
            {
                let rule = format!("small enough to count the atoms, got {cells:?}");
                return Err(s.invalid("cells", rule));
            }
            Ok(SystemSpec {
                lattice,
                cells,
                perturbation: s.opt("perturbation")?.unwrap_or(0.05),
                lattice_seed: s.opt("lattice_seed")?.unwrap_or(2024),
                temperature: s.opt("temperature")?.unwrap_or(300.0),
                velocity_seed: s.opt("velocity_seed")?.unwrap_or(7),
            })
        })?;
        let system = system.ok_or_else(|| top.missing("system"))?;

        let potential_keys = ["params", "mode", "scheme", "width", "threads", "backend"];
        let potential = top.section("potential", &potential_keys, |p| {
            Ok(PotentialSpec {
                params: p.name("params", None)?,
                mode: p.name("mode", None)?,
                scheme: p.name("scheme", None)?,
                width: p.opt("width")?.unwrap_or(0),
                threads: p.opt("threads")?.unwrap_or(1),
                backend: match p.opt::<String>("backend")? {
                    None => None,
                    Some(s) => vektor::dispatch::parse_request(&s).ok_or_else(|| {
                        ScenarioError::Parse(format!(
                            "potential.backend: unknown backend {s:?} \
                             (expected portable, avx2, avx512 or auto)"
                        ))
                    })?,
                },
            })
        })?;
        let potential = potential.ok_or_else(|| top.missing("potential"))?;

        let run_keys = ["timestep", "skin", "steps", "thermo_every"];
        let run = top.section("run", &run_keys, |r| {
            Ok(RunSpec {
                timestep: r.opt("timestep")?.unwrap_or(units::DEFAULT_TIMESTEP),
                skin: r.opt("skin")?.unwrap_or(1.0),
                steps: r.req("steps")?,
                thermo_every: r.opt("thermo_every")?.unwrap_or(10),
            })
        })?;
        let run = run.ok_or_else(|| top.missing("run"))?;

        let dump = top.section("dump", &["path", "every", "elements", "format"], |d| {
            let path: String = d.req("path")?;
            if path.is_empty() {
                return Err(d.invalid("path", "non-empty"));
            }
            Ok(DumpSpec {
                path,
                every: d.every(None)?,
                elements: d.opt("elements")?,
                format: d.name("format", Some(DumpFormat::Xyz))?,
            })
        })?;

        let decomposition = top.section("decomposition", &["grid"], |d| {
            Ok(DecompositionSpec {
                grid: d.triple("grid")?,
            })
        })?;

        let matrix = top.section("matrix", &["modes", "threads"], |m| {
            let modes: Vec<String> = m.opt("modes")?.unwrap_or_default();
            Ok(MatrixSpec {
                modes: modes
                    .iter()
                    .map(|s| parse_name(s, "matrix.modes"))
                    .collect::<Result<_, _>>()?,
                threads: m.opt("threads")?.unwrap_or_default(),
            })
        })?;

        let health_keys = ["every", "max_temperature", "max_displacement"];
        let health = top.section("health", &health_keys, |h| {
            Ok(HealthSpec {
                every: h.every(Some(1))?,
                max_temperature: h.bound("max_temperature")?,
                max_displacement: h.bound("max_displacement")?,
            })
        })?;

        let checkpoint = top.section("checkpoint", &["path", "every"], |c| {
            let path: String = c.req("path")?;
            if path.is_empty() {
                return Err(c.invalid("path", "non-empty"));
            }
            Ok(CheckpointSpec {
                path,
                every: c.every(None)?,
            })
        })?;

        let fault = top.section("fault", &["kind", "step", "variant"], |f| {
            Ok(FaultSpec {
                kind: f.name("kind", None)?,
                step: f.req("step")?,
                variant: f.opt("variant")?,
            })
        })?;

        let properties_keys = ["stress", "rdf", "elastic", "expected"];
        let properties = top.section("properties", &properties_keys, |p| {
            let stress = p.section("stress", &["every"], |s| {
                Ok(StressSpec {
                    every: s.every(Some(10))?,
                })
            })?;
            let rdf = p.section("rdf", &["every", "bins", "r_max"], |r| {
                let every = r.every(Some(10))?;
                let bins = r.opt("bins")?.unwrap_or(200);
                if bins == 0 {
                    return Err(r.invalid("bins", "positive"));
                }
                let r_max = r.opt("r_max")?.unwrap_or(0.0);
                if !r_max.is_finite() || r_max < 0.0 {
                    return Err(r.invalid(
                        "r_max",
                        format!("a non-negative length (0 = cutoff + skin), got {r_max}"),
                    ));
                }
                Ok(RdfSpec { every, bins, r_max })
            })?;
            let elastic = p.section("elastic", &["strain", "minimize_steps"], |e| {
                let strain = e.opt("strain")?.unwrap_or(5.0e-3);
                if !strain.is_finite() || strain <= 0.0 || strain >= 0.1 {
                    return Err(e.invalid("strain", format!("in (0, 0.1), got {strain}")));
                }
                Ok(ElasticSpec {
                    strain,
                    minimize_steps: e.opt("minimize_steps")?.unwrap_or(1000),
                })
            })?;
            let expected_keys = [
                "cohesive_ev",
                "lattice_a",
                "c11_gpa",
                "c12_gpa",
                "c44_gpa",
                "tolerance_pct",
            ];
            let expected = p.section("expected", &expected_keys, |x| {
                let value = |key: &str| -> Result<Option<f64>, ScenarioError> {
                    match x.opt::<f64>(key)? {
                        Some(v) if !v.is_finite() => Err(x.invalid(key, "finite")),
                        v => Ok(v),
                    }
                };
                let tolerance_pct = x.opt("tolerance_pct")?.unwrap_or(2.0);
                if !tolerance_pct.is_finite() || tolerance_pct <= 0.0 {
                    return Err(
                        x.invalid("tolerance_pct", format!("positive, got {tolerance_pct}"))
                    );
                }
                Ok(ExpectedProperties {
                    cohesive_ev: value("cohesive_ev")?,
                    lattice_a: value("lattice_a")?,
                    c11_gpa: value("c11_gpa")?,
                    c12_gpa: value("c12_gpa")?,
                    c44_gpa: value("c44_gpa")?,
                    tolerance_pct,
                })
            })?;
            Ok(PropertiesSpec {
                stress,
                rdf,
                elastic,
                expected,
            })
        })?;

        let scenario = Scenario {
            name,
            description,
            system,
            potential,
            run,
            dump,
            decomposition,
            matrix,
            max_drift: top.opt("max_drift")?,
            health,
            checkpoint,
            fault,
            properties,
        };
        // The widths a build contains differ by mode, so the base potential
        // (what `--no-matrix` runs) and each expanded variant are checked
        // against the kernel instance table.
        let base = Variant {
            mode: scenario.potential.mode,
            threads: scenario.potential.threads,
        };
        for variant in std::iter::once(base).chain(scenario.variants()) {
            scenario
                .options_for(variant)
                .check_width()
                .map_err(|e| ScenarioError::Parse(format!("potential.width: {e}")))?;
        }
        Ok(scenario)
    }

    /// Load one scenario from a `.json` file.
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        Scenario::from_json(&text)
            .map_err(|e| ScenarioError::Parse(format!("{}: {e}", path.display())))
    }

    /// Load every `*.json` scenario in a directory (sorted by file name).
    pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Scenario)>, ScenarioError> {
        let entries = std::fs::read_dir(dir).map_err(|e| ScenarioError::Io {
            path: dir.display().to_string(),
            error: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| Scenario::load(&p).map(|s| (p, s)))
            .collect()
    }

    /// Load a scenario file, or all scenarios of a directory.
    pub fn discover(path: &Path) -> Result<Vec<(PathBuf, Scenario)>, ScenarioError> {
        if path.is_dir() {
            Scenario::load_dir(path)
        } else {
            Scenario::load(path).map(|s| vec![(path.to_path_buf(), s)])
        }
    }

    // -- matrix expansion and derived paths --------------------------------

    /// The variants this scenario runs: the declared matrix expansion, or
    /// the single base (mode, threads) when no matrix is declared.
    pub fn variants(&self) -> Vec<Variant> {
        let (modes, threads) = match &self.matrix {
            None => (vec![self.potential.mode], vec![self.potential.threads]),
            Some(m) => (
                if m.modes.is_empty() {
                    vec![self.potential.mode]
                } else {
                    m.modes.clone()
                },
                if m.threads.is_empty() {
                    vec![self.potential.threads]
                } else {
                    m.threads.clone()
                },
            ),
        };
        let mut out = Vec::with_capacity(modes.len() * threads.len());
        for &mode in &modes {
            for &t in &threads {
                out.push(Variant { mode, threads: t });
            }
        }
        out
    }

    /// The [`TersoffOptions`] of one variant.
    pub fn options_for(&self, variant: Variant) -> TersoffOptions {
        TersoffOptions {
            mode: variant.mode,
            scheme: self.potential.scheme,
            width: self.potential.width,
            threads: variant.threads,
            backend: self.potential.backend,
        }
    }

    /// The trajectory file one variant writes: the declared `dump.path`,
    /// suffixed with the mode and thread count when a matrix makes the
    /// scenario multi-variant (so variants do not clobber each other).
    pub fn dump_path_for(&self, variant: Variant) -> Option<PathBuf> {
        let dump = self.dump.as_ref()?;
        Some(self.variant_path(&dump.path, variant, "dump", "xyz"))
    }

    /// The checkpoint file one variant writes (and resumes from), suffixed
    /// per-variant exactly like [`Scenario::dump_path_for`].
    pub fn checkpoint_path_for(&self, variant: Variant) -> Option<PathBuf> {
        let checkpoint = self.checkpoint.as_ref()?;
        Some(self.variant_path(&checkpoint.path, variant, "checkpoint", "json"))
    }

    fn variant_path(
        &self,
        base: &str,
        variant: Variant,
        default_stem: &str,
        default_ext: &str,
    ) -> PathBuf {
        let base = Path::new(base);
        if self.matrix.is_none() {
            return base.to_path_buf();
        }
        let stem = base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(default_stem);
        let ext = base
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or(default_ext);
        let file = format!("{stem}_{}_t{}.{ext}", variant.mode.label(), variant.threads);
        base.with_file_name(file)
    }

    /// Number of atoms the scenario's lattice generates.
    pub fn n_atoms(&self) -> usize {
        self.system
            .lattice
            .lattice(self.system.cells, self.system.lattice_seed)
            .n_atoms()
    }
}

// ---------------------------------------------------------------------------
// The strict section reader
// ---------------------------------------------------------------------------

/// One JSON object of a spec — the top level or a section such as
/// `properties.rdf` — read strictly. Creating it rejects any key outside the
/// section's list, so a typo (even of a required key) is reported before a
/// missing key is; the getters then name each field by its dotted path.
struct Section<'a> {
    map: &'a BTreeMap<String, Json>,
    /// Dotted path of this object ([`Section::TOP`] for the top level).
    ctx: String,
}

/// A JSON value type a spec field can hold, and how a type error names it.
trait Field: Sized {
    const EXPECTED: &'static str;
    fn read(v: &Json) -> Option<Self>;
}

impl Field for String {
    const EXPECTED: &'static str = "a string";
    fn read(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Field for u64 {
    const EXPECTED: &'static str = "an integer in 0..2^53";
    fn read(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for usize {
    const EXPECTED: &'static str = "an integer in 0..2^53";
    fn read(v: &Json) -> Option<Self> {
        v.as_usize()
    }
}

impl Field for f64 {
    const EXPECTED: &'static str = "a number";
    fn read(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for Vec<String> {
    const EXPECTED: &'static str = "an array of strings";
    fn read(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(String::read).collect()
    }
}

impl Field for Vec<usize> {
    const EXPECTED: &'static str = "an array of non-negative integers";
    fn read(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(usize::read).collect()
    }
}

impl<'a> Section<'a> {
    /// How errors name the top level, whose fields have no prefix.
    const TOP: &'static str = "scenario";

    fn new(value: &'a Json, ctx: String, keys: &[&str]) -> Result<Self, ScenarioError> {
        let map = value
            .as_obj()
            .ok_or_else(|| ScenarioError::Parse(format!("{ctx} must be a JSON object")))?;
        if let Some(key) = map.keys().find(|key| !keys.contains(&key.as_str())) {
            return Err(ScenarioError::Parse(format!(
                "{ctx}: unknown key {key:?} (allowed: {})",
                keys.join(", ")
            )));
        }
        Ok(Section { map, ctx })
    }

    /// The dotted path of `key`.
    fn field(&self, key: &str) -> String {
        if self.ctx == Self::TOP {
            key.to_string()
        } else {
            format!("{}.{key}", self.ctx)
        }
    }

    /// The value at `key`; `None` when it is absent or `null`.
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.map.get(key).filter(|v| !v.is_null())
    }

    fn missing(&self, key: &str) -> ScenarioError {
        ScenarioError::Parse(format!("{}: missing required key {key:?}", self.ctx))
    }

    /// "`<field>` must be `<rule>`".
    fn invalid(&self, key: &str, rule: impl fmt::Display) -> ScenarioError {
        ScenarioError::Parse(format!("{} must be {rule}", self.field(key)))
    }

    /// An optional field: `None` when the key is absent or `null`.
    fn opt<T: Field>(&self, key: &str) -> Result<Option<T>, ScenarioError> {
        self.get(key)
            .map(|v| T::read(v).ok_or_else(|| self.invalid(key, T::EXPECTED)))
            .transpose()
    }

    fn req<T: Field>(&self, key: &str) -> Result<T, ScenarioError> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// An enum name parsed with `FromStr`; required when `default` is `None`.
    fn name<T>(&self, key: &str, default: Option<T>) -> Result<T, ScenarioError>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        match self.opt::<String>(key)? {
            Some(s) => parse_name(&s, &self.field(key)),
            None => default.ok_or_else(|| self.missing(key)),
        }
    }

    /// A step cadence `every`, which must be positive; required when
    /// `default` is `None`.
    fn every(&self, default: Option<u64>) -> Result<u64, ScenarioError> {
        let every = self.opt("every")?.or(default);
        match every.ok_or_else(|| self.missing("every"))? {
            0 => Err(self.invalid("every", "a positive number of steps")),
            every => Ok(every),
        }
    }

    /// An optional positive finite bound.
    fn bound(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.opt::<f64>(key)? {
            Some(x) if !x.is_finite() || x <= 0.0 => {
                Err(self.invalid(key, format!("a positive finite bound, got {x}")))
            }
            x => Ok(x),
        }
    }

    /// A required `[x, y, z]` of positive integers.
    fn triple(&self, key: &str) -> Result<[usize; 3], ScenarioError> {
        let value = self.get(key).ok_or_else(|| self.missing(key))?;
        let Some(entries) = value.as_arr() else {
            return Err(self.invalid(key, "an array of 3 integers"));
        };
        let [x, y, z] = entries else {
            return Err(ScenarioError::Parse(format!(
                "{} must have exactly 3 entries",
                self.field(key)
            )));
        };
        let positive = |v: &Json| v.as_usize().filter(|&n| n > 0);
        match (positive(x), positive(y), positive(z)) {
            (Some(x), Some(y), Some(z)) => Ok([x, y, z]),
            _ => Err(ScenarioError::Parse(format!(
                "{} entries must be positive integers",
                self.field(key)
            ))),
        }
    }

    /// An optional sub-section, read by `read` when the key is present and
    /// not `null`.
    fn section<T>(
        &self,
        key: &str,
        keys: &[&str],
        read: impl FnOnce(&Section<'a>) -> Result<T, ScenarioError>,
    ) -> Result<Option<T>, ScenarioError> {
        self.get(key)
            .map(|v| read(&Section::new(v, self.field(key), keys)?))
            .transpose()
    }
}

fn parse_name<T>(s: &str, ctx: &str) -> Result<T, ScenarioError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    s.parse()
        .map_err(|e: T::Err| ScenarioError::Parse(format!("{ctx}: {e}")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample() -> Scenario {
        Scenario {
            name: "unit_test".into(),
            description: "round-trip sample".into(),
            system: SystemSpec {
                lattice: LatticeSpec::Silicon,
                cells: [2, 2, 2],
                perturbation: 0.03,
                lattice_seed: 17,
                temperature: 600.0,
                velocity_seed: 5,
            },
            potential: PotentialSpec {
                params: ParamSet::Silicon,
                mode: ExecutionMode::OptM,
                scheme: Scheme::FusedLanes,
                width: 0,
                threads: 1,
                backend: None,
            },
            run: RunSpec {
                timestep: 0.001,
                skin: 1.0,
                steps: 20,
                thermo_every: 5,
            },
            dump: None,
            decomposition: None,
            matrix: Some(MatrixSpec {
                modes: vec![ExecutionMode::Ref, ExecutionMode::OptM],
                threads: vec![1, 2],
            }),
            max_drift: Some(1e-3),
            health: None,
            checkpoint: None,
            fault: None,
            properties: None,
        }
    }

    /// Every key of every section, each away from its default.
    const FULL: &str = r#"{
  "name": "full",
  "description": "every field set",
  "system": {"lattice": "sige", "cells": [3, 2, 1], "perturbation": 0.02,
             "lattice_seed": 9, "temperature": 450.5, "velocity_seed": 3},
  "potential": {"params": "silicon_germanium", "mode": "Opt-D", "scheme": "1a",
                "width": 4, "threads": 2, "backend": "portable"},
  "run": {"timestep": 0.0005, "skin": 0.8, "steps": 40, "thermo_every": 4},
  "dump": {"path": "traj.lammpstrj", "every": 8, "elements": ["Si", "Ge"],
           "format": "lammps"},
  "decomposition": {"grid": [2, 1, 1]},
  "matrix": {"modes": ["Ref", "Opt-D"], "threads": [1, 2]},
  "max_drift": 0.002,
  "health": {"every": 10, "max_temperature": 1e5, "max_displacement": 0.5},
  "checkpoint": {"path": "state.ckpt", "every": 50},
  "fault": {"kind": "panic", "step": 5, "variant": "Ref"},
  "properties": {
    "stress": {"every": 5},
    "rdf": {"every": 6, "bins": 150, "r_max": 4.5},
    "elastic": {"strain": 0.001, "minimize_steps": 500},
    "expected": {"cohesive_ev": -4.63, "lattice_a": 5.432, "c11_gpa": 142.0,
                 "c12_gpa": 75.0, "c44_gpa": 69.0, "tolerance_pct": 5.0}
  }
}"#;

    /// The required keys only.
    const MINIMAL: &str = r#"{
  "name": "minimal",
  "system": {"lattice": "silicon", "cells": [2, 2, 2]},
  "potential": {"params": "silicon", "mode": "Ref", "scheme": "scalar"},
  "run": {"steps": 10}
}"#;

    /// [`MINIMAL`] with every optional key of the top level and of the
    /// required sections given as `null`.
    const NULLS: &str = r#"{
  "name": "minimal", "description": null,
  "system": {"lattice": "silicon", "cells": [2, 2, 2], "perturbation": null,
             "lattice_seed": null, "temperature": null, "velocity_seed": null},
  "potential": {"params": "silicon", "mode": "Ref", "scheme": "scalar",
                "width": null, "threads": null, "backend": null},
  "run": {"timestep": null, "skin": null, "steps": 10, "thermo_every": null},
  "dump": null, "decomposition": null, "matrix": null, "max_drift": null,
  "health": null, "checkpoint": null, "fault": null, "properties": null
}"#;

    /// [`MINIMAL`] with every optional section present, its required keys
    /// set and its optional keys `null`.
    const SECTIONS_AT_DEFAULTS: &str = r#"{
  "name": "minimal",
  "system": {"lattice": "silicon", "cells": [2, 2, 2]},
  "potential": {"params": "silicon", "mode": "Ref", "scheme": "scalar"},
  "run": {"steps": 10},
  "dump": {"path": "traj.xyz", "every": 2, "elements": null, "format": null},
  "decomposition": {"grid": [1, 1, 1]},
  "matrix": {"modes": null, "threads": null},
  "health": {"every": null, "max_temperature": null, "max_displacement": null},
  "checkpoint": {"path": "state.ckpt", "every": 1},
  "fault": {"kind": "nan", "step": 0, "variant": null},
  "properties": {
    "stress": {"every": null},
    "rdf": {"every": null, "bins": null, "r_max": null},
    "elastic": {"strain": null, "minimize_steps": null},
    "expected": {"cohesive_ev": null, "lattice_a": null, "c11_gpa": null,
                 "c12_gpa": null, "c44_gpa": null, "tolerance_pct": null}
  }
}"#;

    fn full() -> Scenario {
        Scenario {
            name: "full".into(),
            description: "every field set".into(),
            system: SystemSpec {
                lattice: LatticeSpec::SiliconGermanium,
                cells: [3, 2, 1],
                perturbation: 0.02,
                lattice_seed: 9,
                temperature: 450.5,
                velocity_seed: 3,
            },
            potential: PotentialSpec {
                params: ParamSet::SiliconGermanium,
                mode: ExecutionMode::OptD,
                scheme: Scheme::JLanes,
                width: 4,
                threads: 2,
                backend: Some(BackendImpl::Portable),
            },
            run: RunSpec {
                timestep: 0.0005,
                skin: 0.8,
                steps: 40,
                thermo_every: 4,
            },
            dump: Some(DumpSpec {
                path: "traj.lammpstrj".into(),
                every: 8,
                elements: Some(vec!["Si".into(), "Ge".into()]),
                format: DumpFormat::Lammps,
            }),
            decomposition: Some(DecompositionSpec { grid: [2, 1, 1] }),
            matrix: Some(MatrixSpec {
                modes: vec![ExecutionMode::Ref, ExecutionMode::OptD],
                threads: vec![1, 2],
            }),
            max_drift: Some(0.002),
            health: Some(HealthSpec {
                every: 10,
                max_temperature: Some(1e5),
                max_displacement: Some(0.5),
            }),
            checkpoint: Some(CheckpointSpec {
                path: "state.ckpt".into(),
                every: 50,
            }),
            fault: Some(FaultSpec {
                kind: FaultKind::Panic,
                step: 5,
                variant: Some("Ref".into()),
            }),
            properties: Some(PropertiesSpec {
                stress: Some(StressSpec { every: 5 }),
                rdf: Some(RdfSpec {
                    every: 6,
                    bins: 150,
                    r_max: 4.5,
                }),
                elastic: Some(ElasticSpec {
                    strain: 0.001,
                    minimize_steps: 500,
                }),
                expected: Some(ExpectedProperties {
                    cohesive_ev: Some(-4.63),
                    lattice_a: Some(5.432),
                    c11_gpa: Some(142.0),
                    c12_gpa: Some(75.0),
                    c44_gpa: Some(69.0),
                    tolerance_pct: 5.0,
                }),
            }),
        }
    }

    fn minimal() -> Scenario {
        Scenario {
            name: "minimal".into(),
            description: String::new(),
            system: SystemSpec {
                lattice: LatticeSpec::Silicon,
                cells: [2, 2, 2],
                perturbation: 0.05,
                lattice_seed: 2024,
                temperature: 300.0,
                velocity_seed: 7,
            },
            potential: PotentialSpec {
                params: ParamSet::Silicon,
                mode: ExecutionMode::Ref,
                scheme: Scheme::Scalar,
                width: 0,
                threads: 1,
                backend: None,
            },
            run: RunSpec {
                timestep: units::DEFAULT_TIMESTEP,
                skin: 1.0,
                steps: 10,
                thermo_every: 10,
            },
            dump: None,
            decomposition: None,
            matrix: None,
            max_drift: None,
            health: None,
            checkpoint: None,
            fault: None,
            properties: None,
        }
    }

    /// Parse `text` after `edit` has changed the object at `path` in it.
    fn parse_edited(
        text: &str,
        path: &[&str],
        edit: impl FnOnce(&mut BTreeMap<String, Json>),
    ) -> Result<Scenario, ScenarioError> {
        let mut root = parse(text).unwrap();
        let mut value = &mut root;
        for key in path {
            value = match value {
                Json::Obj(map) => map.get_mut(*key).unwrap(),
                other => panic!("{key}: not an object: {other:?}"),
            };
        }
        let Json::Obj(map) = value else {
            panic!("{path:?} is not an object");
        };
        edit(map);
        Scenario::from_json(&root.pretty())
    }

    /// `text` with `value` set at `section.key`.
    fn with(text: &str, section: &str, key: &str, value: Json) -> Result<Scenario, ScenarioError> {
        parse_edited(text, &[section], |map| {
            map.insert(key.to_string(), value);
        })
    }

    fn rename(map: &mut BTreeMap<String, Json>, from: &str, to: &str) {
        let value = map.remove(from).unwrap();
        map.insert(to.to_string(), value);
    }

    /// Read `text`, check that the same JSON printed back reads the same,
    /// and return what it read.
    fn round_trip(text: &str) -> Scenario {
        let read = Scenario::from_json(text).unwrap();
        let printed = parse(text).unwrap().pretty();
        assert_eq!(Scenario::from_json(&printed).unwrap(), read, "{printed}");
        read
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        assert_eq!(round_trip(FULL), full());
        assert_eq!(round_trip(MINIMAL), minimal());
        assert_eq!(round_trip(NULLS), minimal());

        // Optional sections with only their required keys take the defaults.
        let mut defaults = minimal();
        defaults.dump = Some(DumpSpec {
            path: "traj.xyz".into(),
            every: 2,
            elements: None,
            format: DumpFormat::Xyz,
        });
        defaults.decomposition = Some(DecompositionSpec { grid: [1, 1, 1] });
        defaults.matrix = Some(MatrixSpec {
            modes: Vec::new(),
            threads: Vec::new(),
        });
        defaults.health = Some(HealthSpec {
            every: 1,
            max_temperature: None,
            max_displacement: None,
        });
        defaults.checkpoint = Some(CheckpointSpec {
            path: "state.ckpt".into(),
            every: 1,
        });
        defaults.fault = Some(FaultSpec {
            kind: FaultKind::Nan,
            step: 0,
            variant: None,
        });
        defaults.properties = Some(PropertiesSpec {
            stress: Some(StressSpec { every: 10 }),
            rdf: Some(RdfSpec {
                every: 10,
                bins: 200,
                r_max: 0.0,
            }),
            elastic: Some(ElasticSpec {
                strain: 5.0e-3,
                minimize_steps: 1000,
            }),
            expected: Some(ExpectedProperties {
                cohesive_ev: None,
                lattice_a: None,
                c11_gpa: None,
                c12_gpa: None,
                c44_gpa: None,
                tolerance_pct: 2.0,
            }),
        });
        assert_eq!(round_trip(SECTIONS_AT_DEFAULTS), defaults);

        // `null` sub-sections of `properties` are absent too.
        let parsed = parse_edited(SECTIONS_AT_DEFAULTS, &["properties"], |map| {
            map.values_mut().for_each(|v| *v = Json::Null);
        });
        defaults.properties = Some(PropertiesSpec {
            stress: None,
            rdf: None,
            elastic: None,
            expected: None,
        });
        assert_eq!(parsed.unwrap(), defaults);
    }

    #[test]
    fn fault_tolerance_fields_round_trip() {
        let s = round_trip(FULL);
        assert_eq!(
            s.health,
            Some(HealthSpec {
                every: 10,
                max_temperature: Some(1e5),
                max_displacement: Some(0.5),
            })
        );
        assert_eq!(
            s.checkpoint,
            Some(CheckpointSpec {
                path: "state.ckpt".into(),
                every: 50,
            })
        );
        assert_eq!(
            s.fault,
            Some(FaultSpec {
                kind: FaultKind::Panic,
                step: 5,
                variant: Some("Ref".into()),
            })
        );

        // Bounds and a variant left out read as absent, not as defaults.
        let health = parse_edited(FULL, &["health"], |map| {
            map.remove("max_temperature");
            map.remove("max_displacement");
        });
        assert_eq!(
            health.unwrap().health,
            Some(HealthSpec {
                every: 10,
                max_temperature: None,
                max_displacement: None,
            })
        );
        let fault = parse_edited(FULL, &["fault"], |map| {
            map.remove("variant");
        });
        assert_eq!(
            fault.unwrap().fault,
            Some(FaultSpec {
                kind: FaultKind::Panic,
                step: 5,
                variant: None,
            })
        );

        // Sections left out are absent, and nothing else changes.
        let bare = parse_edited(FULL, &[], |map| {
            for key in ["health", "checkpoint", "fault"] {
                map.remove(key);
            }
        })
        .unwrap();
        let mut expected = full();
        expected.health = None;
        expected.checkpoint = None;
        expected.fault = None;
        assert_eq!(bare, expected);
    }

    #[test]
    fn every_section_rejects_an_unknown_key_and_lists_its_own() {
        let sections: [&[&str]; 15] = [
            &[],
            &["system"],
            &["potential"],
            &["run"],
            &["dump"],
            &["decomposition"],
            &["matrix"],
            &["health"],
            &["checkpoint"],
            &["fault"],
            &["properties"],
            &["properties", "stress"],
            &["properties", "rdf"],
            &["properties", "elastic"],
            &["properties", "expected"],
        ];
        for path in sections {
            let ctx = if path.is_empty() {
                "scenario".to_string()
            } else {
                path.join(".")
            };
            // FULL sets every key, so its keys are the section's whole list.
            let mut keys = Vec::new();
            let err = parse_edited(FULL, path, |map| {
                keys = map.keys().cloned().collect();
                map.insert("bogus".into(), Json::Null);
            })
            .unwrap_err()
            .to_string();
            let allowed = err
                .strip_prefix(&format!("{ctx}: unknown key \"bogus\" (allowed: "))
                .and_then(|rest| rest.strip_suffix(')'))
                .unwrap_or_else(|| panic!("{ctx}: {err}"));
            let mut allowed: Vec<&str> = allowed.split(", ").collect();
            allowed.sort_unstable();
            assert_eq!(allowed, keys, "{ctx}");
        }

        // A typo in a required key is an unknown key, not a missing one.
        for (section, key, typo) in [
            ("decomposition", "grid", "ranks"),
            ("run", "steps", "stepz"),
        ] {
            let err = parse_edited(FULL, &[section], |map| rename(map, key, typo)).unwrap_err();
            let expected = format!("{section}: unknown key {typo:?} (allowed: ");
            assert!(err.to_string().starts_with(&expected), "{err}");
        }
    }

    #[test]
    fn invalid_fault_tolerance_fields_are_rejected() {
        // Non-positive / non-finite health bounds fail loudly.
        let err = with(FULL, "health", "max_temperature", Json::Num(-5.0)).unwrap_err();
        assert!(err.to_string().contains("max_temperature"), "{err}");
        let err = with(FULL, "health", "every", Json::Num(0.0)).unwrap_err();
        assert!(err.to_string().contains("every"), "{err}");
        let err = with(FULL, "checkpoint", "every", Json::Num(0.0)).unwrap_err();
        assert!(err.to_string().contains("every"), "{err}");
        let err = with(FULL, "fault", "kind", Json::Str("segfault".into())).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        // Unknown keys inside the nested specs are typos, not extensions.
        let err = with(FULL, "health", "max_temp", Json::Num(10.0)).unwrap_err();
        assert!(err.to_string().contains("max_temp"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = parse_edited(FULL, &["run"], |map| rename(map, "skin", "skinn")).unwrap_err();
        assert!(err.to_string().contains("skinn"), "{err}");
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        let err = Scenario::from_json(r#"{"name": "x"}"#).unwrap_err();
        assert!(err.to_string().contains("system"), "{err}");
    }

    #[test]
    fn cells_that_overflow_the_atom_count_are_a_parse_error() {
        let huge = Json::Arr(vec![Json::Num(2_097_152.0); 3]);
        match with(MINIMAL, "system", "cells", huge) {
            Err(ScenarioError::Parse(msg)) => assert!(msg.contains("system.cells"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn matrix_expansion_is_the_cartesian_product() {
        let s = sample();
        let variants = s.variants();
        assert_eq!(variants.len(), 4);
        assert_eq!(
            variants[0],
            Variant {
                mode: ExecutionMode::Ref,
                threads: 1
            }
        );
        assert_eq!(
            variants[3],
            Variant {
                mode: ExecutionMode::OptM,
                threads: 2
            }
        );
        let mut bare = s;
        bare.matrix = None;
        assert_eq!(bare.variants().len(), 1);
    }

    #[test]
    fn dump_paths_are_suffixed_per_variant() {
        let mut s = sample();
        s.dump = Some(DumpSpec {
            path: "traj.xyz".into(),
            every: 2,
            elements: None,
            format: DumpFormat::Xyz,
        });

        // Matrix variants write distinct suffixed files.
        let v = Variant {
            mode: ExecutionMode::OptM,
            threads: 2,
        };
        let suffixed = s.dump_path_for(v).unwrap();
        assert!(suffixed
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .ends_with("_Opt-M_t2.xyz"));

        // Without a matrix the declared path is used untouched.
        s.matrix = None;
        assert_eq!(s.dump_path_for(v).unwrap(), PathBuf::from("traj.xyz"));
    }

    #[test]
    fn invalid_dump_specs_are_rejected() {
        let zero = with(FULL, "dump", "every", Json::Num(0.0));
        assert!(zero.unwrap_err().to_string().contains("dump.every"));
        let unknown = parse_edited(FULL, &["dump"], |map| rename(map, "every", "cadence"));
        assert!(unknown.unwrap_err().to_string().contains("cadence"));
        let bad_format = with(FULL, "dump", "format", Json::Str("pdb".into()));
        assert!(bad_format.unwrap_err().to_string().contains("dump.format"));
    }

    #[test]
    fn properties_spec_defaults_and_validates() {
        // Defaults fill unspecified observer fields.
        let text = r#"{
            "name": "p", "system": {"lattice": "silicon", "cells": [2,2,2]},
            "potential": {"params": "silicon", "mode": "ref", "scheme": "scalar"},
            "run": {"steps": 10},
            "properties": {"stress": {}, "rdf": {}, "elastic": {}}
        }"#;
        let parsed = Scenario::from_json(text).unwrap();
        let props = parsed.properties.unwrap();
        assert_eq!(props.stress.unwrap().every, 10);
        let rdf = props.rdf.unwrap();
        assert_eq!((rdf.every, rdf.bins), (10, 200));
        assert_eq!(rdf.r_max, 0.0);
        let elastic = props.elastic.unwrap();
        assert_eq!(elastic.strain, 5.0e-3);
        assert_eq!(elastic.minimize_steps, 1000);
        assert!(props.expected.is_none());

        // Invalid values and unknown keys fail loudly.
        for (body, needle) in [
            (r#"{"stress": {"every": 0}}"#, "properties.stress.every"),
            (r#"{"rdf": {"bins": 0}}"#, "properties.rdf.bins"),
            (r#"{"rdf": {"r_max": -1.0}}"#, "properties.rdf.r_max"),
            (
                r#"{"elastic": {"strain": 0.5}}"#,
                "properties.elastic.strain",
            ),
            (r#"{"expected": {"tolerance_pct": -2}}"#, "tolerance_pct"),
            (r#"{"expected": {"c99_gpa": 1.0}}"#, "c99_gpa"),
            (r#"{"viscosity": {}}"#, "viscosity"),
        ] {
            let text = format!(
                r#"{{
                    "name": "p", "system": {{"lattice": "silicon", "cells": [2,2,2]}},
                    "potential": {{"params": "silicon", "mode": "ref", "scheme": "scalar"}},
                    "run": {{"steps": 10}},
                    "properties": {body}
                }}"#
            );
            let err = Scenario::from_json(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn decomposition_spec_validates() {
        let grid = Scenario::from_json(FULL).unwrap().decomposition.unwrap();
        assert_eq!(grid.n_ranks(), 2);
        assert_eq!(grid.label(), "2x1x1");

        // Zero entries, wrong arity and unknown keys fail loudly.
        let grid = |entries: &[f64]| {
            let value = Json::Arr(entries.iter().map(|&g| Json::Num(g)).collect());
            with(FULL, "decomposition", "grid", value)
                .unwrap_err()
                .to_string()
        };
        assert!(grid(&[2.0, 0.0, 1.0]).contains("positive"));
        assert!(grid(&[2.0, 2.0]).contains("3 entries"));
        let unknown = parse_edited(FULL, &["decomposition"], |map| rename(map, "grid", "ranks"));
        assert!(unknown.unwrap_err().to_string().contains("ranks"));
    }

    #[test]
    fn lattice_and_param_names_round_trip() {
        for l in [
            LatticeSpec::Silicon,
            LatticeSpec::SiliconCarbide,
            LatticeSpec::Carbon,
            LatticeSpec::Germanium,
            LatticeSpec::SiliconGermanium,
            LatticeSpec::Graphite,
        ] {
            assert_eq!(l.name().parse::<LatticeSpec>().unwrap(), l);
        }
        for p in [
            ParamSet::Silicon,
            ParamSet::SiliconB,
            ParamSet::Carbon,
            ParamSet::Germanium,
            ParamSet::SiliconCarbide,
            ParamSet::SiliconGermanium,
        ] {
            assert_eq!(p.name().parse::<ParamSet>().unwrap(), p);
        }
        assert!("unobtanium".parse::<ParamSet>().is_err());
    }
}
