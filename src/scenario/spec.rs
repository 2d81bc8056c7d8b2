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
//! Serialization is plain JSON via [`crate::json`]:
//! [`Scenario::from_json`] / [`Scenario::to_json`] do the work. Parsing is
//! strict: unknown keys are rejected so a typo in a spec file fails loudly
//! instead of silently running defaults.

use crate::json::{obj, parse, Json};
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

    /// Parse a scenario from JSON text (strict: unknown keys are errors).
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let root = parse(text).map_err(ScenarioError::Parse)?;
        let top = expect_obj(&root, "scenario")?;
        check_keys(
            top,
            "scenario",
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
        let name = req_str(top, "name", "scenario")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ScenarioError::Parse(format!(
                "scenario name {name:?} must be non-empty [A-Za-z0-9_-] (it names the report file)"
            )));
        }
        let description = opt_str(top, "description", "")?;

        let sys = expect_obj(req(top, "system", "scenario")?, "system")?;
        check_keys(
            sys,
            "system",
            &[
                "lattice",
                "cells",
                "perturbation",
                "lattice_seed",
                "temperature",
                "velocity_seed",
            ],
        )?;
        let system = SystemSpec {
            lattice: parse_name(&req_str(sys, "lattice", "system")?, "system.lattice")?,
            cells: req_cells(sys)?,
            perturbation: opt_f64(sys, "perturbation", 0.05, "system")?,
            lattice_seed: opt_u64(sys, "lattice_seed", 2024, "system")?,
            temperature: opt_f64(sys, "temperature", 300.0, "system")?,
            velocity_seed: opt_u64(sys, "velocity_seed", 7, "system")?,
        };

        let pot = expect_obj(req(top, "potential", "scenario")?, "potential")?;
        check_keys(
            pot,
            "potential",
            &["params", "mode", "scheme", "width", "threads", "backend"],
        )?;
        let backend = match pot.get("backend") {
            None => None,
            Some(Json::Null) => None,
            Some(v) => {
                let s = v.as_str().ok_or_else(|| {
                    ScenarioError::Parse("potential.backend must be a string".into())
                })?;
                match vektor::dispatch::parse_request(s) {
                    Some(req) => req,
                    None => {
                        return Err(ScenarioError::Parse(format!(
                            "potential.backend: unknown backend {s:?} \
                             (expected portable, avx2, avx512 or auto)"
                        )))
                    }
                }
            }
        };
        let potential = PotentialSpec {
            params: parse_name(&req_str(pot, "params", "potential")?, "potential.params")?,
            mode: parse_name(&req_str(pot, "mode", "potential")?, "potential.mode")?,
            scheme: parse_name(&req_str(pot, "scheme", "potential")?, "potential.scheme")?,
            width: opt_u64(pot, "width", 0, "potential")? as usize,
            threads: opt_u64(pot, "threads", 1, "potential")? as usize,
            backend,
        };

        let run_obj = expect_obj(req(top, "run", "scenario")?, "run")?;
        check_keys(
            run_obj,
            "run",
            &["timestep", "skin", "steps", "thermo_every"],
        )?;
        let run = RunSpec {
            timestep: opt_f64(run_obj, "timestep", units::DEFAULT_TIMESTEP, "run")?,
            skin: opt_f64(run_obj, "skin", 1.0, "run")?,
            steps: req_u64(run_obj, "steps", "run")?,
            thermo_every: opt_u64(run_obj, "thermo_every", 10, "run")?,
        };

        let dump = match top.get("dump") {
            None | Some(Json::Null) => None,
            Some(d) => {
                let d = expect_obj(d, "dump")?;
                check_keys(d, "dump", &["path", "every", "elements", "format"])?;
                let path = req_str(d, "path", "dump")?;
                if path.is_empty() {
                    return Err(ScenarioError::Parse("dump.path must be non-empty".into()));
                }
                let every = req_u64(d, "every", "dump")?;
                if every == 0 {
                    return Err(ScenarioError::Parse(
                        "dump.every must be a positive number of steps".into(),
                    ));
                }
                let elements = match d.get("elements") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_arr()
                            .ok_or_else(|| {
                                ScenarioError::Parse("dump.elements must be an array".into())
                            })?
                            .iter()
                            .map(|j| {
                                j.as_str().map(|s| s.to_string()).ok_or_else(|| {
                                    ScenarioError::Parse(
                                        "dump.elements entries must be strings".into(),
                                    )
                                })
                            })
                            .collect::<Result<Vec<String>, _>>()?,
                    ),
                };
                let format = match d.get("format") {
                    None | Some(Json::Null) => DumpFormat::Xyz,
                    Some(v) => {
                        let s = v.as_str().ok_or_else(|| {
                            ScenarioError::Parse("dump.format must be a string".into())
                        })?;
                        parse_name(s, "dump.format")?
                    }
                };
                Some(DumpSpec {
                    path,
                    every,
                    elements,
                    format,
                })
            }
        };

        let decomposition = match top.get("decomposition") {
            None | Some(Json::Null) => None,
            Some(d) => {
                let d = expect_obj(d, "decomposition")?;
                check_keys(d, "decomposition", &["grid"])?;
                let arr = req(d, "grid", "decomposition")?.as_arr().ok_or_else(|| {
                    ScenarioError::Parse("decomposition.grid must be an array of 3 integers".into())
                })?;
                if arr.len() != 3 {
                    return Err(ScenarioError::Parse(
                        "decomposition.grid must have exactly 3 entries".into(),
                    ));
                }
                let mut grid = [0usize; 3];
                for (dim, v) in arr.iter().enumerate() {
                    grid[dim] = v.as_usize().filter(|&g| g > 0).ok_or_else(|| {
                        ScenarioError::Parse(
                            "decomposition.grid entries must be positive integers".into(),
                        )
                    })?;
                }
                Some(DecompositionSpec { grid })
            }
        };

        let matrix = match top.get("matrix") {
            None | Some(Json::Null) => None,
            Some(m) => {
                let m = expect_obj(m, "matrix")?;
                check_keys(m, "matrix", &["modes", "threads"])?;
                let modes = match m.get("modes") {
                    None => Vec::new(),
                    Some(v) => v
                        .as_arr()
                        .ok_or_else(|| {
                            ScenarioError::Parse("matrix.modes must be an array".into())
                        })?
                        .iter()
                        .map(|j| {
                            j.as_str()
                                .ok_or_else(|| {
                                    ScenarioError::Parse(
                                        "matrix.modes entries must be strings".into(),
                                    )
                                })
                                .and_then(|s| parse_name(s, "matrix.modes"))
                        })
                        .collect::<Result<Vec<ExecutionMode>, _>>()?,
                };
                let threads = match m.get("threads") {
                    None => Vec::new(),
                    Some(v) => v
                        .as_arr()
                        .ok_or_else(|| {
                            ScenarioError::Parse("matrix.threads must be an array".into())
                        })?
                        .iter()
                        .map(|j| {
                            j.as_usize().ok_or_else(|| {
                                ScenarioError::Parse(
                                    "matrix.threads entries must be non-negative integers".into(),
                                )
                            })
                        })
                        .collect::<Result<Vec<usize>, _>>()?,
                };
                Some(MatrixSpec { modes, threads })
            }
        };

        let max_drift = match top.get("max_drift") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| ScenarioError::Parse("max_drift must be a number".into()))?,
            ),
        };

        let health = match top.get("health") {
            None | Some(Json::Null) => None,
            Some(h) => {
                let h = expect_obj(h, "health")?;
                check_keys(
                    h,
                    "health",
                    &["every", "max_temperature", "max_displacement"],
                )?;
                let opt_bound = |key: &str| -> Result<Option<f64>, ScenarioError> {
                    match h.get(key) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => {
                            let x = v.as_f64().ok_or_else(|| {
                                ScenarioError::Parse(format!("health.{key} must be a number"))
                            })?;
                            if !x.is_finite() || x <= 0.0 {
                                return Err(ScenarioError::Parse(format!(
                                    "health.{key} must be a positive finite bound, got {x}"
                                )));
                            }
                            Ok(Some(x))
                        }
                    }
                };
                let every = opt_u64(h, "every", 1, "health")?;
                if every == 0 {
                    return Err(ScenarioError::Parse(
                        "health.every must be a positive number of steps".into(),
                    ));
                }
                Some(HealthSpec {
                    every,
                    max_temperature: opt_bound("max_temperature")?,
                    max_displacement: opt_bound("max_displacement")?,
                })
            }
        };

        let checkpoint = match top.get("checkpoint") {
            None | Some(Json::Null) => None,
            Some(c) => {
                let c = expect_obj(c, "checkpoint")?;
                check_keys(c, "checkpoint", &["path", "every"])?;
                let path = req_str(c, "path", "checkpoint")?;
                if path.is_empty() {
                    return Err(ScenarioError::Parse(
                        "checkpoint.path must be non-empty".into(),
                    ));
                }
                let every = req_u64(c, "every", "checkpoint")?;
                if every == 0 {
                    return Err(ScenarioError::Parse(
                        "checkpoint.every must be a positive number of steps".into(),
                    ));
                }
                Some(CheckpointSpec { path, every })
            }
        };

        let fault = match top.get("fault") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let v = expect_obj(v, "fault")?;
                check_keys(v, "fault", &["kind", "step", "variant"])?;
                let kind = parse_name(&req_str(v, "kind", "fault")?, "fault.kind")?;
                let step = req_u64(v, "step", "fault")?;
                let variant = match v.get("variant") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(s.as_str().map(|s| s.to_string()).ok_or_else(|| {
                        ScenarioError::Parse("fault.variant must be a string".into())
                    })?),
                };
                Some(FaultSpec {
                    kind,
                    step,
                    variant,
                })
            }
        };

        let properties = match top.get("properties") {
            None | Some(Json::Null) => None,
            Some(p) => {
                let p = expect_obj(p, "properties")?;
                check_keys(p, "properties", &["stress", "rdf", "elastic", "expected"])?;
                let stress = match p.get("stress") {
                    None | Some(Json::Null) => None,
                    Some(s) => {
                        let s = expect_obj(s, "properties.stress")?;
                        check_keys(s, "properties.stress", &["every"])?;
                        let every = opt_u64(s, "every", 10, "properties.stress")?;
                        if every == 0 {
                            return Err(ScenarioError::Parse(
                                "properties.stress.every must be a positive number of steps".into(),
                            ));
                        }
                        Some(StressSpec { every })
                    }
                };
                let rdf = match p.get("rdf") {
                    None | Some(Json::Null) => None,
                    Some(r) => {
                        let r = expect_obj(r, "properties.rdf")?;
                        check_keys(r, "properties.rdf", &["every", "bins", "r_max"])?;
                        let every = opt_u64(r, "every", 10, "properties.rdf")?;
                        if every == 0 {
                            return Err(ScenarioError::Parse(
                                "properties.rdf.every must be a positive number of steps".into(),
                            ));
                        }
                        let bins = opt_u64(r, "bins", 200, "properties.rdf")? as usize;
                        if bins == 0 {
                            return Err(ScenarioError::Parse(
                                "properties.rdf.bins must be positive".into(),
                            ));
                        }
                        let r_max = opt_f64(r, "r_max", 0.0, "properties.rdf")?;
                        if !r_max.is_finite() || r_max < 0.0 {
                            return Err(ScenarioError::Parse(format!(
                                "properties.rdf.r_max must be a non-negative length \
                                 (0 = cutoff + skin), got {r_max}"
                            )));
                        }
                        Some(RdfSpec { every, bins, r_max })
                    }
                };
                let elastic = match p.get("elastic") {
                    None | Some(Json::Null) => None,
                    Some(e) => {
                        let e = expect_obj(e, "properties.elastic")?;
                        check_keys(e, "properties.elastic", &["strain", "minimize_steps"])?;
                        let strain = opt_f64(e, "strain", 5.0e-3, "properties.elastic")?;
                        if !strain.is_finite() || strain <= 0.0 || strain >= 0.1 {
                            return Err(ScenarioError::Parse(format!(
                                "properties.elastic.strain must be in (0, 0.1), got {strain}"
                            )));
                        }
                        let minimize_steps =
                            opt_u64(e, "minimize_steps", 1000, "properties.elastic")?;
                        Some(ElasticSpec {
                            strain,
                            minimize_steps,
                        })
                    }
                };
                let expected = match p.get("expected") {
                    None | Some(Json::Null) => None,
                    Some(x) => {
                        let x = expect_obj(x, "properties.expected")?;
                        check_keys(
                            x,
                            "properties.expected",
                            &[
                                "cohesive_ev",
                                "lattice_a",
                                "c11_gpa",
                                "c12_gpa",
                                "c44_gpa",
                                "tolerance_pct",
                            ],
                        )?;
                        let opt_val = |key: &str| -> Result<Option<f64>, ScenarioError> {
                            match x.get(key) {
                                None | Some(Json::Null) => Ok(None),
                                Some(v) => {
                                    let val = v.as_f64().ok_or_else(|| {
                                        ScenarioError::Parse(format!(
                                            "properties.expected.{key} must be a number"
                                        ))
                                    })?;
                                    if !val.is_finite() {
                                        return Err(ScenarioError::Parse(format!(
                                            "properties.expected.{key} must be finite"
                                        )));
                                    }
                                    Ok(Some(val))
                                }
                            }
                        };
                        let tolerance_pct =
                            opt_f64(x, "tolerance_pct", 2.0, "properties.expected")?;
                        if !tolerance_pct.is_finite() || tolerance_pct <= 0.0 {
                            return Err(ScenarioError::Parse(format!(
                                "properties.expected.tolerance_pct must be positive, \
                                 got {tolerance_pct}"
                            )));
                        }
                        Some(ExpectedProperties {
                            cohesive_ev: opt_val("cohesive_ev")?,
                            lattice_a: opt_val("lattice_a")?,
                            c11_gpa: opt_val("c11_gpa")?,
                            c12_gpa: opt_val("c12_gpa")?,
                            c44_gpa: opt_val("c44_gpa")?,
                            tolerance_pct,
                        })
                    }
                };
                Some(PropertiesSpec {
                    stress,
                    rdf,
                    elastic,
                    expected,
                })
            }
        };

        let scenario = Scenario {
            name,
            description,
            system,
            potential,
            run,
            dump,
            decomposition,
            matrix,
            max_drift,
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

    /// Serialize to pretty JSON (round-trips through
    /// [`Scenario::from_json`]).
    pub fn to_json(&self) -> String {
        let mut top = vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            (
                "system",
                obj([
                    ("lattice", Json::Str(self.system.lattice.to_string())),
                    (
                        "cells",
                        Json::Arr(
                            self.system
                                .cells
                                .iter()
                                .map(|&c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                    ("perturbation", Json::Num(self.system.perturbation)),
                    ("lattice_seed", Json::Num(self.system.lattice_seed as f64)),
                    ("temperature", Json::Num(self.system.temperature)),
                    ("velocity_seed", Json::Num(self.system.velocity_seed as f64)),
                ]),
            ),
            (
                "potential",
                obj([
                    ("params", Json::Str(self.potential.params.to_string())),
                    ("mode", Json::Str(self.potential.mode.to_string())),
                    ("scheme", Json::Str(self.potential.scheme.to_string())),
                    ("width", Json::Num(self.potential.width as f64)),
                    ("threads", Json::Num(self.potential.threads as f64)),
                    (
                        "backend",
                        match self.potential.backend {
                            None => Json::Str("auto".into()),
                            Some(b) => Json::Str(b.to_string()),
                        },
                    ),
                ]),
            ),
            (
                "run",
                obj([
                    ("timestep", Json::Num(self.run.timestep)),
                    ("skin", Json::Num(self.run.skin)),
                    ("steps", Json::Num(self.run.steps as f64)),
                    ("thermo_every", Json::Num(self.run.thermo_every as f64)),
                ]),
            ),
        ];
        if let Some(dump) = &self.dump {
            let mut entry = vec![
                ("path", Json::Str(dump.path.clone())),
                ("every", Json::Num(dump.every as f64)),
            ];
            if let Some(elements) = &dump.elements {
                entry.push((
                    "elements",
                    Json::Arr(elements.iter().map(|e| Json::Str(e.clone())).collect()),
                ));
            }
            if dump.format != DumpFormat::Xyz {
                entry.push(("format", Json::Str(dump.format.to_string())));
            }
            top.push(("dump", obj(entry)));
        }
        if let Some(dec) = &self.decomposition {
            top.push((
                "decomposition",
                obj([(
                    "grid",
                    Json::Arr(dec.grid.iter().map(|&g| Json::Num(g as f64)).collect()),
                )]),
            ));
        }
        if let Some(matrix) = &self.matrix {
            top.push((
                "matrix",
                obj([
                    (
                        "modes",
                        Json::Arr(
                            matrix
                                .modes
                                .iter()
                                .map(|m| Json::Str(m.to_string()))
                                .collect(),
                        ),
                    ),
                    (
                        "threads",
                        Json::Arr(
                            matrix
                                .threads
                                .iter()
                                .map(|&t| Json::Num(t as f64))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(bound) = self.max_drift {
            top.push(("max_drift", Json::Num(bound)));
        }
        if let Some(health) = &self.health {
            let mut entry = vec![("every", Json::Num(health.every as f64))];
            if let Some(t) = health.max_temperature {
                entry.push(("max_temperature", Json::Num(t)));
            }
            if let Some(d) = health.max_displacement {
                entry.push(("max_displacement", Json::Num(d)));
            }
            top.push(("health", obj(entry)));
        }
        if let Some(checkpoint) = &self.checkpoint {
            top.push((
                "checkpoint",
                obj([
                    ("path", Json::Str(checkpoint.path.clone())),
                    ("every", Json::Num(checkpoint.every as f64)),
                ]),
            ));
        }
        if let Some(fault) = &self.fault {
            let mut entry = vec![
                ("kind", Json::Str(fault.kind.to_string())),
                ("step", Json::Num(fault.step as f64)),
            ];
            if let Some(variant) = &fault.variant {
                entry.push(("variant", Json::Str(variant.clone())));
            }
            top.push(("fault", obj(entry)));
        }
        if let Some(props) = &self.properties {
            let mut entry = Vec::new();
            if let Some(stress) = &props.stress {
                entry.push(("stress", obj([("every", Json::Num(stress.every as f64))])));
            }
            if let Some(rdf) = &props.rdf {
                entry.push((
                    "rdf",
                    obj([
                        ("every", Json::Num(rdf.every as f64)),
                        ("bins", Json::Num(rdf.bins as f64)),
                        ("r_max", Json::Num(rdf.r_max)),
                    ]),
                ));
            }
            if let Some(elastic) = &props.elastic {
                entry.push((
                    "elastic",
                    obj([
                        ("strain", Json::Num(elastic.strain)),
                        ("minimize_steps", Json::Num(elastic.minimize_steps as f64)),
                    ]),
                ));
            }
            if let Some(expected) = &props.expected {
                let mut x = Vec::new();
                for (key, val) in [
                    ("cohesive_ev", expected.cohesive_ev),
                    ("lattice_a", expected.lattice_a),
                    ("c11_gpa", expected.c11_gpa),
                    ("c12_gpa", expected.c12_gpa),
                    ("c44_gpa", expected.c44_gpa),
                ] {
                    if let Some(v) = val {
                        x.push((key, Json::Num(v)));
                    }
                }
                x.push(("tolerance_pct", Json::Num(expected.tolerance_pct)));
                entry.push(("expected", obj(x)));
            }
            top.push(("properties", obj(entry)));
        }
        obj(top).pretty()
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
// Strict-parsing helpers
// ---------------------------------------------------------------------------

fn expect_obj<'a>(v: &'a Json, ctx: &str) -> Result<&'a BTreeMap<String, Json>, ScenarioError> {
    v.as_obj()
        .ok_or_else(|| ScenarioError::Parse(format!("{ctx} must be a JSON object")))
}

fn check_keys(
    map: &BTreeMap<String, Json>,
    ctx: &str,
    allowed: &[&str],
) -> Result<(), ScenarioError> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::Parse(format!(
                "{ctx}: unknown key {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req<'a>(
    map: &'a BTreeMap<String, Json>,
    key: &str,
    ctx: &str,
) -> Result<&'a Json, ScenarioError> {
    map.get(key)
        .ok_or_else(|| ScenarioError::Parse(format!("{ctx}: missing required key {key:?}")))
}

fn req_str(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<String, ScenarioError> {
    req(map, key, ctx)?
        .as_str()
        .map(|s| s.to_string())
        .ok_or_else(|| ScenarioError::Parse(format!("{ctx}.{key} must be a string")))
}

fn opt_str(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: &str,
) -> Result<String, ScenarioError> {
    match map.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| ScenarioError::Parse(format!("{key} must be a string"))),
    }
}

fn req_u64(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<u64, ScenarioError> {
    req(map, key, ctx)?
        .as_u64()
        .ok_or_else(|| ScenarioError::Parse(format!("{ctx}.{key} must be an integer in 0..2^53")))
}

fn opt_u64(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: u64,
    ctx: &str,
) -> Result<u64, ScenarioError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ScenarioError::Parse(format!("{ctx}.{key} must be an integer in 0..2^53"))
        }),
    }
}

fn opt_f64(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: f64,
    ctx: &str,
) -> Result<f64, ScenarioError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ScenarioError::Parse(format!("{ctx}.{key} must be a number"))),
    }
}

fn req_cells(map: &BTreeMap<String, Json>) -> Result<[usize; 3], ScenarioError> {
    let arr = req(map, "cells", "system")?.as_arr().ok_or_else(|| {
        ScenarioError::Parse("system.cells must be an array of 3 integers".into())
    })?;
    if arr.len() != 3 {
        return Err(ScenarioError::Parse(
            "system.cells must have exactly 3 entries".into(),
        ));
    }
    let mut cells = [0usize; 3];
    for (d, v) in arr.iter().enumerate() {
        cells[d] = v
            .as_usize()
            .filter(|&c| c > 0)
            .ok_or_else(|| ScenarioError::Parse("system.cells entries must be positive".into()))?;
    }
    Ok(cells)
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

    #[test]
    fn json_round_trip_preserves_every_field() {
        let s = sample();
        let text = s.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, s);
        // And without the optional parts.
        let mut bare = s;
        bare.matrix = None;
        bare.max_drift = None;
        assert_eq!(Scenario::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn fault_tolerance_fields_round_trip() {
        let mut s = sample();
        s.health = Some(HealthSpec {
            every: 10,
            max_temperature: Some(1e5),
            max_displacement: Some(0.5),
        });
        s.checkpoint = Some(CheckpointSpec {
            path: "state.ckpt".into(),
            every: 50,
        });
        s.fault = Some(FaultSpec {
            kind: FaultKind::Panic,
            step: 5,
            variant: Some("Ref".into()),
        });
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        // Bounds left out round-trip as absent, not as defaults.
        s.health = Some(HealthSpec {
            every: 1,
            max_temperature: None,
            max_displacement: None,
        });
        s.fault = Some(FaultSpec {
            kind: FaultKind::Nan,
            step: 0,
            variant: None,
        });
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn invalid_fault_tolerance_fields_are_rejected() {
        let with = |patch: &str| {
            let text = sample().to_json();
            let insert = format!("{patch},\n  \"max_drift\"");
            Scenario::from_json(&text.replace("\"max_drift\"", &insert))
        };
        // Non-positive / non-finite health bounds fail loudly.
        let err = with("\"health\": {\"max_temperature\": -5.0}").unwrap_err();
        assert!(err.to_string().contains("max_temperature"), "{err}");
        let err = with("\"health\": {\"every\": 0}").unwrap_err();
        assert!(err.to_string().contains("every"), "{err}");
        let err = with("\"checkpoint\": {\"path\": \"x\", \"every\": 0}").unwrap_err();
        assert!(err.to_string().contains("every"), "{err}");
        let err = with("\"fault\": {\"kind\": \"segfault\", \"step\": 1}").unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        // Unknown keys inside the nested specs are typos, not extensions.
        let err = with("\"health\": {\"max_temp\": 10.0}").unwrap_err();
        assert!(err.to_string().contains("max_temp"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let text = sample().to_json().replace("\"skin\"", "\"skinn\"");
        let err = Scenario::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("skinn"), "{err}");
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        let err = Scenario::from_json(r#"{"name": "x"}"#).unwrap_err();
        assert!(err.to_string().contains("system"), "{err}");
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
    fn dump_spec_round_trips_and_suffixes_variants() {
        let mut s = sample();
        s.dump = Some(DumpSpec {
            path: "traj.xyz".into(),
            every: 2,
            elements: None,
            format: DumpFormat::Xyz,
        });
        // Round-trips through JSON (with and without explicit elements).
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        s.dump.as_mut().unwrap().elements = Some(vec!["Si".into()]);
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        // The non-default format round-trips too.
        s.dump.as_mut().unwrap().format = DumpFormat::Lammps;
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        s.dump.as_mut().unwrap().format = DumpFormat::Xyz;

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
        let mut s = sample();
        s.dump = Some(DumpSpec {
            path: "traj.xyz".into(),
            every: 2,
            elements: None,
            format: DumpFormat::Lammps,
        });
        let zero = s.to_json().replace("\"every\": 2", "\"every\": 0");
        assert!(Scenario::from_json(&zero)
            .unwrap_err()
            .to_string()
            .contains("dump.every"));
        let unknown = s.to_json().replace("\"every\"", "\"cadence\"");
        assert!(Scenario::from_json(&unknown)
            .unwrap_err()
            .to_string()
            .contains("cadence"));
        let bad_format = s.to_json().replace("\"lammps\"", "\"pdb\"");
        assert!(Scenario::from_json(&bad_format)
            .unwrap_err()
            .to_string()
            .contains("dump.format"));
    }

    #[test]
    fn properties_spec_round_trips_and_validates() {
        let mut s = sample();
        s.properties = Some(PropertiesSpec {
            stress: Some(StressSpec { every: 5 }),
            rdf: Some(RdfSpec {
                every: 10,
                bins: 150,
                r_max: 0.0,
            }),
            elastic: Some(ElasticSpec {
                strain: 5.0e-3,
                minimize_steps: 500,
            }),
            expected: Some(ExpectedProperties {
                cohesive_ev: Some(-4.63),
                lattice_a: Some(5.432),
                c11_gpa: Some(142.0),
                c12_gpa: Some(75.0),
                c44_gpa: Some(69.0),
                tolerance_pct: 2.0,
            }),
        });
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);

        // Partial blocks round-trip too (only some observers / some expected
        // values declared).
        s.properties = Some(PropertiesSpec {
            stress: None,
            rdf: None,
            elastic: Some(ElasticSpec {
                strain: 1.0e-3,
                minimize_steps: 1000,
            }),
            expected: Some(ExpectedProperties {
                cohesive_ev: Some(-7.37),
                lattice_a: None,
                c11_gpa: None,
                c12_gpa: None,
                c44_gpa: None,
                tolerance_pct: 5.0,
            }),
        });
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);

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
    fn decomposition_spec_round_trips_and_validates() {
        let mut s = sample();
        s.decomposition = Some(DecompositionSpec { grid: [2, 2, 1] });
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        assert_eq!(s.decomposition.unwrap().n_ranks(), 4);
        assert_eq!(s.decomposition.unwrap().label(), "2x2x1");

        // Zero entries, wrong arity and unknown keys fail loudly.
        let zero = s.to_json().replace("[2, 2, 1]", "[2, 0, 1]");
        assert!(Scenario::from_json(&zero)
            .unwrap_err()
            .to_string()
            .contains("positive"));
        let arity = s.to_json().replace("[2, 2, 1]", "[2, 2]");
        assert!(Scenario::from_json(&arity)
            .unwrap_err()
            .to_string()
            .contains("3 entries"));
        let unknown = s.to_json().replace("\"grid\"", "\"ranks\"");
        assert!(Scenario::from_json(&unknown)
            .unwrap_err()
            .to_string()
            .contains("ranks"));
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
