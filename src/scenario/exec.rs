//! The execution half of the scenario layer: submission-first, through the
//! job engine.
//!
//! A scenario's variants become [`md_core::jobs::JobSpec`]s submitted to a
//! [`JobEngine`]: 1-thread variants pack many-per-runtime on shared leases,
//! multi-thread variants claim a whole runtime exclusively, and every
//! lifecycle transition is published on the engine's event bus (a
//! [`JobEventTap`](self) observer forwards in-run thermo samples and
//! checkpoint writes into the stream). Deterministic setup work — the
//! perturbed lattice, the packed parameter table, the neighbor-list
//! capacity the system settles at — is memoized in the engine's
//! [`ArtifactCache`] keyed by spec hash, so repeat variants skip it; every
//! cached value is the output of a deterministic builder, which keeps a
//! cache hit bit-identical to a rebuild.
//!
//! [`Scenario::execute`] / [`Scenario::execute_with`] are thin synchronous
//! wrappers: they spin up an engine sized by [`RunPolicy::jobs`], submit,
//! and drain. [`Scenario::submit`] + [`Scenario::execute_on`] are the
//! underlying submission API for callers that share one engine across
//! scenarios (`tersoff-run`, `tersoff-serve`). Results are bitwise
//! identical at every `--jobs` count: a job's bits depend only on its own
//! inputs and its leased runtime, and runtimes are bitwise identical across
//! thread counts (see `crates/md-core/src/jobs/README.md`).

use super::spec::{DumpFormat, FaultSpec, Scenario, ScenarioError, Variant, VariantStatus};
use crate::json::{obj, Json};
use md_core::atom::AtomData;
use md_core::checkpoint::{Checkpoint, CheckpointWriter};
use md_core::domain::{DomainBuildError, DomainSimulation};
use md_core::dump::{LammpsDump, XyzDump};
use md_core::elastic::{self, ElasticReport};
use md_core::fault::FaultPlan;
use md_core::health::HealthGuard;
use md_core::jobs::{
    ArtifactCache, ArtifactKey, EngineConfig, EngineStats, EventBus, JobContext, JobEngine,
    JobEvent, JobHandle, JobId, JobOutcome, JobSpec, SubmitError,
};
use md_core::observer::{Observer, RunReport, StepContext};
use md_core::potential::Potential;
use md_core::properties::{RadialDistribution, StressTensor};
use md_core::runtime::{panic_payload_string, resolve_threads, ParallelRuntime};
use md_core::simbox::SimBox;
use md_core::simulation::{RunError, Simulation, SimulationBuilder};
use md_core::thermo::ThermoState;
use md_core::timer::Stage;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tersoff::driver::{make_potential, ExecutionMode};
use tersoff::params::TersoffParams;

/// How [`Scenario::execute_with`] runs a batch: engine width, per-variant
/// isolation, retries, timeout and resume.
#[derive(Clone, Debug, Default)]
pub struct RunPolicy {
    /// Worker lanes of the engine `execute_with` spins up (`tersoff-run
    /// --jobs`): how many variants run concurrently. 0 or 1 = one lane (the
    /// serial drain). Results are bitwise independent of this knob.
    pub jobs: usize,
    /// Cap on the number of steps (e.g. `tersoff-run --steps-cap`).
    pub steps_cap: Option<u64>,
    /// Re-run a panicked / timed-out / failed variant up to this many extra
    /// times from fresh seed-deterministic state (divergence is
    /// deterministic, so diverged variants are not retried).
    pub retries: u32,
    /// Continue with the remaining variants after a failure instead of
    /// stopping the batch. Also what allows the batch to be submitted
    /// eagerly: without it, variants are submitted one at a time so the
    /// stop-after-first-failure contract stays exact.
    pub keep_going: bool,
    /// Wall-clock budget per attempt; on expiry the attempt's thread is
    /// abandoned and the variant reports [`VariantStatus::Timeout`].
    pub timeout: Option<Duration>,
    /// Fault injection override (the `TERSOFF_FAULT` environment variable
    /// parsed by the CLI); wins over the scenario's `fault` field.
    pub fault_override: Option<FaultSpec>,
    /// Resume each variant from its checkpoint file if one exists.
    pub resume: bool,
}

/// The outcome of one executed variant.
#[derive(Clone, Debug)]
pub struct VariantReport {
    /// The variant that ran.
    pub variant: Variant,
    /// Threads actually used (0 resolved to the CPU count; the
    /// `TERSOFF_THREADS` environment override wins over both).
    pub resolved_threads: usize,
    /// The options label ("Opt-M/1b/w16/t2").
    pub label: String,
    /// How the variant ended.
    pub status: VariantStatus,
    /// Attempts used (1 = first try; > 1 means retries happened).
    pub attempts: u32,
    /// The typed failure for non-`ok` statuses.
    pub error: Option<ScenarioError>,
    /// The run report (steps, rebuilds, ns/day, drift, per-phase timers).
    /// Present for `ok` and `diverged` (partial) outcomes.
    pub report: Option<RunReport>,
    /// The recorded thermo trace.
    pub trace: Vec<ThermoState>,
    /// Trajectory dump written by this variant: `(path, frames)`.
    pub dump: Option<(PathBuf, u64)>,
    /// Observer warnings (e.g. a disarmed trajectory dump).
    pub warnings: Vec<String>,
    /// The checkpoint step this run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Rank-parallel statistics, when the scenario declares a
    /// `decomposition` grid.
    pub decomposition: Option<DomainStats>,
    /// Measured materials properties, when the scenario declares a
    /// `properties` block (only produced for `ok` runs).
    pub properties: Option<PropertiesReport>,
}

/// Measured materials properties of one variant: the in-run observers'
/// read-back, the post-run elastic driver, and the expected-value checks.
#[derive(Clone, Debug)]
pub struct PropertiesReport {
    /// Time-averaged and final pressure tensor (bar).
    pub stress: Option<StressReport>,
    /// Binned radial distribution function.
    pub rdf: Option<RdfReport>,
    /// Equilibrium lattice constant, cohesive energy and elastic constants.
    pub elastic: Option<ElasticReport>,
    /// One entry per declared expected value that could be measured.
    pub checks: Vec<PropertyCheck>,
}

/// Read-back of the [`StressTensor`] observer. Voigt order: xx yy zz xy xz
/// yz; units are bar.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Sampling cadence (steps).
    pub every: u64,
    /// Samples folded into the average.
    pub samples: u64,
    /// Time-averaged pressure tensor (bar).
    pub time_averaged: [f64; 6],
    /// Final sampled pressure tensor (bar).
    pub last: [f64; 6],
}

/// Read-back of the [`RadialDistribution`] observer.
#[derive(Clone, Debug)]
pub struct RdfReport {
    /// Sampling cadence (steps).
    pub every: u64,
    /// Histogram bins.
    pub bins: usize,
    /// Histogram range actually used (Å) — the declared `r_max` clamped to
    /// the neighbor-list reach.
    pub r_max: f64,
    /// Samples folded into the histogram.
    pub samples: u64,
    /// Normalized g(r) per bin (bin centers at `(i + ½)·r_max/bins`).
    pub g: Vec<f64>,
}

/// One measured-vs-published comparison from the scenario's
/// `properties.expected` block.
#[derive(Clone, Debug)]
pub struct PropertyCheck {
    /// Which quantity (`lattice_a`, `cohesive_ev`, `c11_gpa`, ...).
    pub name: &'static str,
    /// The declared published value.
    pub expected: f64,
    /// What this run measured.
    pub measured: f64,
    /// |measured − expected| / |expected| in percent.
    pub rel_err_pct: f64,
    /// Within the declared `tolerance_pct`?
    pub ok: bool,
}

/// Per-variant statistics of a decomposed run: how the box was split, how
/// much state crossed rank boundaries, and what share of the step the
/// communication phases took — the quantity the paper's Fig. 9
/// strong-scaling study tracks.
#[derive(Clone, Debug)]
pub struct DomainStats {
    /// Ranks along x, y, z.
    pub grid: [usize; 3],
    /// Total rank count (the grid product).
    pub ranks: usize,
    /// Atoms handed between ranks over the whole run.
    pub migrations: u64,
    /// Owned atoms per rank at the end of the run.
    pub atoms_per_rank: Vec<usize>,
    /// Ghost (halo) atoms as a fraction of owned atoms at the end of the
    /// run — the surface-to-volume communication cost of the grid.
    pub ghost_fraction: f64,
    /// Seconds spent in halo/ghost exchange (the `comm` timer).
    pub comm_seconds: f64,
    /// Seconds spent migrating atoms between ranks (the `migrate` timer).
    pub migrate_seconds: f64,
    /// (comm + migrate) seconds over the total timed step — the
    /// communication share of the run.
    pub comm_fraction: f64,
}

/// The driver one attempt steps: the single-domain [`Simulation`] or the
/// rank-parallel [`DomainSimulation`], behind one dispatch surface. Both
/// produce bitwise identical trajectories; the decomposed runner
/// additionally reports [`DomainStats`].
enum Runner {
    Single(Box<Simulation<Box<dyn Potential>>>),
    Domain(Box<DomainSimulation<Box<dyn Potential>>>),
}

impl Runner {
    fn sim(&self) -> &Simulation<Box<dyn Potential>> {
        match self {
            Runner::Single(sim) => sim,
            Runner::Domain(dom) => dom.sim(),
        }
    }

    fn try_run(&mut self, steps: u64) -> Result<RunReport, RunError> {
        match self {
            Runner::Single(sim) => sim.try_run(steps),
            Runner::Domain(dom) => dom.try_run(steps),
        }
    }

    fn domain_stats(&self) -> Option<DomainStats> {
        let Runner::Domain(dom) = self else {
            return None;
        };
        let timers = &dom.sim().timers;
        let total: f64 = Stage::ALL.iter().map(|&stage| timers.seconds(stage)).sum();
        let comm = timers.seconds(Stage::Comm);
        let migrate = timers.seconds(Stage::Migrate);
        Some(DomainStats {
            grid: dom.grid().dims,
            ranks: dom.n_ranks(),
            migrations: dom.migrations(),
            atoms_per_rank: dom.atoms_per_rank(),
            ghost_fraction: dom.ghost_fraction(),
            comm_seconds: comm,
            migrate_seconds: migrate,
            comm_fraction: (comm + migrate) / total.max(1e-12),
        })
    }
}

impl VariantReport {
    /// The run report, for callers that require a completed variant.
    pub fn report(&self) -> &RunReport {
        self.report
            .as_ref()
            .expect("variant did not produce a report")
    }

    /// The fields both renderings of a variant share: the report file's
    /// `series` entry and `tersoff-serve`'s `/v1/jobs/{id}` result each add
    /// their own keys to these. Metrics appear only for variants that
    /// produced a run report (ok, or the partial report of a diverged run);
    /// a reader keys on `status` before trusting them.
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("label", Json::Str(self.label.clone())),
            ("status", Json::Str(self.status.to_string())),
            ("attempts", Json::Num(self.attempts as f64)),
        ];
        if let Some(error) = &self.error {
            fields.push(("error", Json::Str(error.to_string())));
        }
        if !self.warnings.is_empty() {
            let warnings = self.warnings.iter().map(|w| Json::Str(w.clone()));
            fields.push(("warnings", Json::Arr(warnings.collect())));
        }
        if let Some(step) = self.resumed_from {
            fields.push(("resumed_from", Json::Num(step as f64)));
        }
        if let Some(p) = &self.properties {
            fields.push(("properties", properties_json(p)));
        }
        if let Some(run) = &self.report {
            fields.extend([
                ("seconds_per_step", Json::Num(run.seconds_per_step())),
                ("ns_per_day", Json::Num(run.ns_per_day)),
                ("max_drift", Json::Num(run.max_drift)),
                ("final_total_energy", Json::Num(run.final_thermo.total)),
            ]);
        }
        fields
    }
}

/// The outcome of a whole scenario: every variant plus host facts and the
/// engine configuration that executed the batch.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Steps actually run (after any cap).
    pub steps: u64,
    /// Per-variant outcomes, in matrix order.
    pub variants: Vec<VariantReport>,
    /// The vektor implementation that executed the runs.
    pub executed_backend: String,
    /// Granularity at which that implementation was bound (`"kernel"`:
    /// one per-ISA monomorphized instance per potential).
    pub dispatch_granularity: &'static str,
    /// The widest vector ISA the binary itself was compiled with
    /// (`"baseline"`, `"avx2"`, `"avx512"`) — informational; the executed
    /// backend no longer depends on it.
    pub compiled_isa: &'static str,
    /// Host CPU count.
    pub available_parallelism: usize,
    /// Snapshot of the executing engine at report time: runtime-pool size,
    /// queue depth, cache hits/misses. With a shared engine (`tersoff-run`)
    /// the counters are cumulative across the invocation's scenarios.
    pub engine: EngineStats,
}

/// Worst-wins failure accumulator behind `tersoff-run`'s exit codes.
///
/// Exit codes distinguish the failure classes (the worst one wins, in the
/// order panic > timeout > health/drift > load):
///
/// * `0` every variant ok and within its drift bound
/// * `3` a scenario failed to load or a variant failed to build
/// * `4` a health guard aborted a variant or a drift bound was exceeded
/// * `5` a variant panicked (crash)
/// * `6` a variant exceeded its wall-clock budget
///
/// (`2` — usage error — is the CLI's own, raised before any batch exists.)
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSeverity {
    load: bool,
    health: bool,
    panic: bool,
    timeout: bool,
}

impl BatchSeverity {
    /// A clean accumulator (exit code 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one variant outcome.
    pub fn record(&mut self, status: VariantStatus) {
        match status {
            VariantStatus::Ok => {}
            VariantStatus::Diverged => self.health = true,
            VariantStatus::Panicked => self.panic = true,
            VariantStatus::Timeout => self.timeout = true,
            VariantStatus::Failed => self.load = true,
        }
    }

    /// Fold in a failure outside variant execution (a scenario that did not
    /// load, a report that could not be written).
    pub fn record_load_failure(&mut self) {
        self.load = true;
    }

    /// Fold in a violated `max_drift` bound (same class as a health abort).
    pub fn record_drift_violation(&mut self) {
        self.health = true;
    }

    /// Did anything fail?
    pub fn any(&self) -> bool {
        self.load || self.health || self.panic || self.timeout
    }

    /// The process exit code for the worst recorded class.
    pub fn exit_code(&self) -> u8 {
        if self.panic {
            5
        } else if self.timeout {
            6
        } else if self.health {
            4
        } else if self.load {
            3
        } else {
            0
        }
    }
}

/// What one attempt runs with when executed as an engine job: the leased
/// runtime, the engine's artifact cache, and the event stream to feed.
/// `Default` (all `None`) is the standalone path [`Scenario::build_simulation`]
/// uses — construction then matches the hand-built golden test exactly.
#[derive(Clone, Default)]
struct AttemptEnv {
    runtime: Option<ParallelRuntime>,
    cache: Option<Arc<ArtifactCache>>,
    events: Option<(Arc<EventBus>, JobId)>,
}

/// The prepared, perturbed system cached under the scenario's system key.
/// Both fields clone bit-exactly, so a hit is indistinguishable from a
/// rebuild.
struct PreparedSystem {
    sim_box: SimBox,
    atoms: AtomData,
}

/// An [`Observer`] that forwards in-run callbacks into the engine's event
/// stream: every thermo sample becomes [`JobEvent::Thermo`], every
/// checkpoint-cadence step becomes [`JobEvent::Checkpoint`].
struct JobEventTap {
    events: Arc<EventBus>,
    job: JobId,
    checkpoint_every: u64,
}

impl Observer for JobEventTap {
    fn on_step(&mut self, ctx: &StepContext<'_>) {
        if self.checkpoint_every > 0
            && ctx.step > 0
            && ctx.step.is_multiple_of(self.checkpoint_every)
        {
            self.events.emit(JobEvent::Checkpoint {
                job: self.job,
                step: ctx.step,
            });
        }
    }

    fn on_thermo(&mut self, state: &ThermoState) {
        self.events.emit(JobEvent::Thermo {
            job: self.job,
            step: state.step,
            total_energy: state.total,
            temperature: state.temperature,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Scenario {
    // -- artifact-cache keys -----------------------------------------------

    /// Key of the prepared (perturbed) system: lattice name, cells, the
    /// perturbation amplitude's exact bits, and the lattice seed.
    fn system_key(&self) -> ArtifactKey {
        ArtifactKey::of(&["lattice", self.system.lattice.name()])
            .and(&format!(
                "{}x{}x{}",
                self.system.cells[0], self.system.cells[1], self.system.cells[2]
            ))
            .and(&format!("{:016x}", self.system.perturbation.to_bits()))
            .and(&self.system.lattice_seed.to_string())
    }

    /// Key of the packed parameter table.
    fn params_key(&self) -> ArtifactKey {
        ArtifactKey::of(&["params", self.potential.params.name()])
    }

    /// Key of the neighbor-list capacity hint: the system plus everything
    /// that shapes the list (skin, parameter set's cutoffs). The hint only
    /// pre-reserves allocations, so a stale or missing hint cannot change
    /// results.
    fn neighbor_hint_key(&self) -> ArtifactKey {
        self.system_key()
            .and("neighbor-hint")
            .and(&format!("{:016x}", self.run.skin.to_bits()))
            .and(self.potential.params.name())
    }

    // -- building one simulation -------------------------------------------

    /// The fault (if any) that applies to `variant` under `policy`: the
    /// policy's override (the `TERSOFF_FAULT` environment variable) wins
    /// over the scenario's declared `fault` field.
    fn fault_for(&self, label: &str, policy: &RunPolicy) -> Option<FaultPlan> {
        let spec = policy.fault_override.as_ref().or(self.fault.as_ref())?;
        spec.applies_to(label).then(|| spec.plan())
    }

    /// Build the simulation of one variant through
    /// [`md_core::SimulationBuilder`] — exactly the construction a user
    /// would write by hand (the golden equivalence test in
    /// `tests/scenario.rs` holds this path to bitwise agreement with a
    /// hand-built run). Always single-domain; batch execution wraps the
    /// same builder in a [`DomainSimulation`] when the scenario declares a
    /// `decomposition` grid (bitwise identical either way).
    pub fn build_simulation(
        &self,
        variant: Variant,
    ) -> Result<Simulation<Box<dyn Potential>>, ScenarioError> {
        let builder = self.variant_builder(variant, &AttemptEnv::default(), None, None)?;
        Ok(builder.build()?)
    }

    /// The configured [`md_core::SimulationBuilder`] of one variant, not yet
    /// built — the entry point for callers that wrap the scenario's system
    /// in their own driver (the fig9 bench sweeps
    /// [`DomainSimulation`] grids over this builder).
    pub fn simulation_builder(
        &self,
        variant: Variant,
    ) -> Result<SimulationBuilder<Box<dyn Potential>>, ScenarioError> {
        self.variant_builder(variant, &AttemptEnv::default(), None, None)
    }

    /// The driver one attempt steps: the plain [`Simulation`], or a
    /// [`DomainSimulation`] over the declared rank grid. Grid violations
    /// (a rank cell thinner than cutoff + skin) surface as the typed
    /// [`ScenarioError::Decomposition`].
    fn build_runner_with(
        &self,
        variant: Variant,
        env: &AttemptEnv,
        fault: Option<FaultPlan>,
        resume: Option<Checkpoint>,
    ) -> Result<Runner, ScenarioError> {
        let builder = self.variant_builder(variant, env, fault, resume)?;
        match &self.decomposition {
            None => Ok(Runner::Single(Box::new(builder.build()?))),
            Some(dec) => DomainSimulation::new(builder, dec.grid)
                .map(|dom| Runner::Domain(Box::new(dom)))
                .map_err(|e| match e {
                    DomainBuildError::Simulation(b) => ScenarioError::Build(b),
                    DomainBuildError::Grid(g) => ScenarioError::Decomposition(g.to_string()),
                }),
        }
    }

    /// The configured builder of one variant, with batch-execution extras:
    /// run on the leased runtime, reuse cached artifacts, feed the event
    /// stream, inject `fault`, or restore a `resume` checkpoint.
    fn variant_builder(
        &self,
        variant: Variant,
        env: &AttemptEnv,
        fault: Option<FaultPlan>,
        resume: Option<Checkpoint>,
    ) -> Result<SimulationBuilder<Box<dyn Potential>>, ScenarioError> {
        let build_system = || {
            let (sim_box, atoms) = self
                .system
                .lattice
                .lattice(self.system.cells, self.system.lattice_seed)
                .build_perturbed(self.system.perturbation, self.system.lattice_seed);
            PreparedSystem { sim_box, atoms }
        };
        let (sim_box, atoms) = match &env.cache {
            Some(cache) => {
                // Measured insertion: the atom arrays dominate a prepared
                // system's footprint, so the cache's byte budget (and the
                // resident_bytes counter in /metrics) sees their real size.
                let prepared = cache.get_or_insert_measured(self.system_key(), build_system, |p| {
                    std::mem::size_of::<PreparedSystem>()
                        + p.atoms.x.len() * (3 * std::mem::size_of::<[f64; 3]>())
                        + p.atoms.type_.len() * std::mem::size_of::<usize>()
                        + p.atoms.id.len() * std::mem::size_of::<u64>()
                });
                (prepared.sim_box, prepared.atoms.clone())
            }
            None => {
                let prepared = build_system();
                (prepared.sim_box, prepared.atoms)
            }
        };
        let params: TersoffParams = match &env.cache {
            Some(cache) => (*cache
                .get_or_insert_with(self.params_key(), || self.potential.params.params()))
            .clone(),
            None => self.potential.params.params(),
        };
        let potential = make_potential(params, self.options_for(variant));
        let reach = potential.cutoff() + self.run.skin;
        let mut builder = Simulation::builder(atoms, sim_box, potential)
            .timestep(self.run.timestep)
            .skin(self.run.skin)
            .masses(self.potential.params.masses())
            .temperature(self.system.temperature, self.system.velocity_seed)
            .thermo_every(self.run.thermo_every);
        if let Some(rt) = &env.runtime {
            builder = builder.runtime(rt);
        }
        if let Some(cache) = &env.cache {
            if let Some(hint) = cache.get::<usize>(self.neighbor_hint_key()) {
                builder = builder.neighbor_capacity(*hint);
            }
        }
        if let Some(plan) = fault {
            builder = builder.inject_fault(plan);
        }
        if let Some(checkpoint) = resume {
            builder = builder.resume_from(checkpoint);
        }
        if let Some(health) = &self.health {
            builder = builder.observe(HealthGuard::new(health.settings()));
        }
        if let Some(checkpoint) = &self.checkpoint {
            let path = self
                .checkpoint_path_for(variant)
                .expect("checkpoint path exists when checkpointing is declared");
            builder = builder.observe(CheckpointWriter::new(path, checkpoint.every));
        }
        if let Some(dump) = &self.dump {
            let path = self
                .dump_path_for(variant)
                .expect("dump path exists when dump is declared");
            let elements = dump
                .elements
                .clone()
                .unwrap_or_else(|| self.potential.params.elements());
            let io_err = |e: std::io::Error| ScenarioError::Io {
                path: path.display().to_string(),
                error: e.to_string(),
            };
            builder = match dump.format {
                DumpFormat::Xyz => {
                    builder.observe(XyzDump::create(&path, dump.every, elements).map_err(io_err)?)
                }
                DumpFormat::Lammps => builder
                    .observe(LammpsDump::create(&path, dump.every, elements).map_err(io_err)?),
            };
        }
        if let Some(props) = &self.properties {
            if let Some(stress) = &props.stress {
                builder = builder.observe(StressTensor::new(stress.every));
            }
            if let Some(rdf) = &props.rdf {
                // The neighbor list is the distance oracle, so its reach is
                // the hard upper bound of the histogram (0 = use the reach).
                let r_max = if rdf.r_max > 0.0 {
                    rdf.r_max.min(reach)
                } else {
                    reach
                };
                builder = builder.observe(RadialDistribution::new(rdf.every, rdf.bins, r_max));
            }
        }
        if let Some((events, job)) = &env.events {
            builder = builder.observe(JobEventTap {
                events: events.clone(),
                job: *job,
                checkpoint_every: self.checkpoint.as_ref().map(|c| c.every).unwrap_or(0),
            });
        }
        Ok(builder)
    }

    // -- one attempt, one variant ------------------------------------------

    /// An unexecuted [`VariantReport`] skeleton (status `failed` until an
    /// attempt overwrites it).
    fn blank_report(&self, variant: Variant) -> VariantReport {
        VariantReport {
            variant,
            resolved_threads: resolve_threads(variant.threads),
            label: self.options_for(variant).label(),
            status: VariantStatus::Failed,
            attempts: 1,
            error: None,
            report: None,
            trace: Vec::new(),
            dump: None,
            warnings: Vec::new(),
            resumed_from: None,
            decomposition: None,
            properties: None,
        }
    }

    /// The measured `properties` block of one finished variant: observer
    /// read-back plus the post-run elastic driver, whose strained replicas
    /// run as parallel jobs on a nested engine.
    fn measure_properties(
        &self,
        sim: &Simulation<Box<dyn Potential>>,
        variant: Variant,
    ) -> Result<Option<PropertiesReport>, ScenarioError> {
        let Some(props) = &self.properties else {
            return Ok(None);
        };
        let stress = props.stress.as_ref().and_then(|spec| {
            sim.observer::<StressTensor>().map(|s| StressReport {
                every: spec.every,
                samples: s.samples(),
                time_averaged: s.time_averaged(),
                last: s.last(),
            })
        });
        let rdf = props.rdf.as_ref().and_then(|spec| {
            sim.observer::<RadialDistribution>().map(|r| RdfReport {
                every: spec.every,
                bins: r.bins(),
                r_max: r.r_max(),
                samples: r.samples(),
                g: r.g(),
            })
        });
        let elastic = match &props.elastic {
            None => None,
            Some(spec) => {
                let lattice = self
                    .system
                    .lattice
                    .lattice(self.system.cells, self.system.lattice_seed);
                let params = self.potential.params.params();
                let mut options = self.options_for(variant);
                // The strained replicas are small static cells — parallelism
                // comes from running them as concurrent jobs, each
                // single-threaded.
                options.threads = 1;
                let factory: elastic::PotentialFactory =
                    Arc::new(move || make_potential(params.clone(), options));
                let engine = JobEngine::new(EngineConfig {
                    workers: resolve_threads(0).min(8),
                    ..EngineConfig::default()
                });
                let report = elastic::measure_cubic(&engine, factory, &lattice, spec.settings())
                    .map_err(|message| ScenarioError::Run {
                        label: self.options_for(variant).label(),
                        status: VariantStatus::Failed,
                        message,
                    })?;
                Some(report)
            }
        };
        let mut checks = Vec::new();
        if let Some(exp) = &props.expected {
            let tol = exp.tolerance_pct;
            let mut check = |name: &'static str, expected: Option<f64>, measured: Option<f64>| {
                if let (Some(e), Some(m)) = (expected, measured) {
                    let rel_err_pct = ((m - e) / e).abs() * 100.0;
                    checks.push(PropertyCheck {
                        name,
                        expected: e,
                        measured: m,
                        rel_err_pct,
                        ok: rel_err_pct <= tol,
                    });
                }
            };
            match &elastic {
                Some(r) => {
                    check("lattice_a", exp.lattice_a, Some(r.lattice_a));
                    check("cohesive_ev", exp.cohesive_ev, Some(r.cohesive_ev));
                    check("c11_gpa", exp.c11_gpa, r.c11_gpa);
                    check("c12_gpa", exp.c12_gpa, r.c12_gpa);
                    check("c44_gpa", exp.c44_gpa, r.c44_gpa);
                }
                None => {
                    // No elastic driver: the cohesive energy falls back to
                    // the initial (step-0) potential energy per atom of the
                    // as-built cell.
                    let measured = sim
                        .thermo_history()
                        .first()
                        .map(|t| t.potential / sim.atoms.n_local as f64);
                    check("cohesive_ev", exp.cohesive_ev, measured);
                }
            }
        }
        Ok(Some(PropertiesReport {
            stress,
            rdf,
            elastic,
            checks,
        }))
    }

    /// One attempt at one variant, run to a [`VariantReport`] whatever
    /// happens: build errors, panics and health aborts all land in
    /// `status`/`error` instead of unwinding into the batch.
    fn attempt_variant(
        &self,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
        env: &AttemptEnv,
    ) -> VariantReport {
        let mut out = self.blank_report(variant);
        let label = out.label.clone();

        let resume = if policy.resume {
            match self.checkpoint_path_for(variant) {
                Some(path) if path.exists() => match Checkpoint::load(&path) {
                    Ok(cp) => {
                        out.resumed_from = Some(cp.step);
                        Some(cp)
                    }
                    Err(e) => {
                        out.error = Some(ScenarioError::Io {
                            path: path.display().to_string(),
                            error: e.to_string(),
                        });
                        return out;
                    }
                },
                _ => None,
            }
        } else {
            None
        };
        let fault = self.fault_for(&label, policy);

        // The whole attempt runs under catch_unwind: try_run already
        // contains per-step panics, this contains everything else (e.g. a
        // build-time panic) so one variant can never abort the batch.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut runner = self.build_runner_with(variant, env, fault, resume)?;
            let remaining = steps.saturating_sub(runner.sim().step);
            let run_result = runner.try_run(remaining);
            if let Some(cache) = &env.cache {
                // The capacity this system settled at; the next build of the
                // same system pre-reserves it and skips the growth
                // reallocations.
                cache.put(
                    self.neighbor_hint_key(),
                    runner.sim().neighbors.neighbors.len(),
                );
            }
            let sim = runner.sim();
            let dump = match self.dump.as_ref().map(|d| d.format) {
                Some(DumpFormat::Lammps) => sim
                    .observer::<LammpsDump>()
                    .map(|d| (d.path().to_path_buf(), d.frames_written())),
                _ => sim
                    .observer::<XyzDump>()
                    .map(|d| (d.path().to_path_buf(), d.frames_written())),
            };
            let trace = sim.thermo_history().to_vec();
            let stats = runner.domain_stats();
            // Properties are only meaningful for a run that finished: a
            // diverged/panicked trajectory has no steady state to report,
            // and the elastic driver would just burn time. A step-capped
            // run (`--steps-cap` smoke) skips them too — the capped trace
            // is not the declared experiment, and the smoke jobs must not
            // pay for FIRE relaxations.
            let properties = if run_result.is_ok() && steps >= self.run.steps {
                self.measure_properties(sim, variant)?
            } else {
                None
            };
            Ok::<_, ScenarioError>((run_result, trace, dump, stats, properties))
        }));
        match attempt {
            Err(payload) => {
                out.status = VariantStatus::Panicked;
                out.error = Some(ScenarioError::Run {
                    label,
                    status: VariantStatus::Panicked,
                    message: panic_payload_string(payload.as_ref()),
                });
            }
            Ok(Err(e)) => {
                out.status = VariantStatus::Failed;
                out.error = Some(e);
            }
            Ok(Ok((run_result, trace, dump, stats, properties))) => {
                out.trace = trace;
                out.dump = dump;
                out.decomposition = stats;
                out.properties = properties;
                match run_result {
                    Ok(report) => {
                        out.status = VariantStatus::Ok;
                        out.warnings = report.warnings.clone();
                        out.report = Some(report);
                    }
                    Err(RunError::Diverged {
                        step,
                        reason,
                        report,
                    }) => {
                        out.status = VariantStatus::Diverged;
                        out.warnings = report.warnings.clone();
                        out.report = Some(*report);
                        out.error = Some(ScenarioError::Run {
                            label,
                            status: VariantStatus::Diverged,
                            message: format!("step {step}: {reason}"),
                        });
                    }
                    Err(RunError::Panicked { step, message }) => {
                        out.status = VariantStatus::Panicked;
                        out.error = Some(ScenarioError::Run {
                            label,
                            status: VariantStatus::Panicked,
                            message: format!("step {step}: {message}"),
                        });
                    }
                    Err(RunError::AlreadyFaulted) => {
                        out.status = VariantStatus::Failed;
                        out.error = Some(ScenarioError::Run {
                            label,
                            status: VariantStatus::Failed,
                            message: RunError::AlreadyFaulted.to_string(),
                        });
                    }
                }
            }
        }
        out
    }

    /// [`Scenario::attempt_variant`] under the policy's wall-clock budget:
    /// the attempt runs on a worker thread and an expired budget abandons
    /// that thread (documented leak — the detached worker may finish later,
    /// its results discarded) and reports [`VariantStatus::Timeout`].
    fn attempt_with_timeout(
        &self,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
        env: AttemptEnv,
    ) -> VariantReport {
        let Some(limit) = policy.timeout else {
            return self.attempt_variant(variant, steps, policy, &env);
        };
        let (tx, rx) = mpsc::channel();
        let scenario = self.clone();
        let policy = policy.clone();
        std::thread::spawn(move || {
            let report = scenario.attempt_variant(variant, steps, &policy, &env);
            let _ = tx.send(report);
        });
        match rx.recv_timeout(limit) {
            Ok(report) => report,
            Err(_) => {
                let mut out = self.blank_report(variant);
                out.status = VariantStatus::Timeout;
                out.error = Some(ScenarioError::Run {
                    label: out.label.clone(),
                    status: VariantStatus::Timeout,
                    message: format!(
                        "exceeded the wall-clock budget of {:.1} s",
                        limit.as_secs_f64()
                    ),
                });
                out
            }
        }
    }

    /// The retry loop of one variant, running as an engine job: attempts
    /// execute on the job's leased runtime; a timeout poisons that lease
    /// (the abandoned worker thread may still hold its pool) and retries on
    /// a fresh one.
    fn run_variant_on(
        &self,
        ctx: &mut JobContext<'_>,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
    ) -> VariantReport {
        let mut last = None;
        for attempt in 0..=policy.retries {
            let env = AttemptEnv {
                runtime: Some(ctx.runtime().clone()),
                cache: Some(ctx.cache_handle()),
                events: Some((ctx.events(), ctx.id())),
            };
            let mut report = self.attempt_with_timeout(variant, steps, policy, env);
            report.attempts = attempt + 1;
            match report.status {
                // Divergence is deterministic — a retry would reproduce it
                // bit for bit, so don't waste the attempts.
                VariantStatus::Ok | VariantStatus::Diverged => return report,
                VariantStatus::Timeout => ctx.refresh_runtime(),
                VariantStatus::Panicked | VariantStatus::Failed => {}
            }
            last = Some(report);
        }
        last.expect("at least one attempt ran")
    }

    // -- submission --------------------------------------------------------

    /// The [`JobSpec`] of one variant: named `<scenario>/<label>`, packing
    /// 1-thread variants onto shared runtimes and claiming a whole runtime
    /// for multi-thread ones.
    fn variant_job(
        &self,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
    ) -> JobSpec<VariantReport> {
        let scenario = self.clone();
        let policy = policy.clone();
        JobSpec::new(
            format!("{}/{}", self.name, self.options_for(variant).label()),
            move |ctx: &mut JobContext<'_>| scenario.run_variant_on(ctx, variant, steps, &policy),
        )
        .threads(variant.threads)
        .exclusive(resolve_threads(variant.threads) > 1)
    }

    /// Submit one variant to `engine` and get its typed handle — the
    /// primitive everything else (execute, the cancellation tests) is built
    /// from. Blocks while the engine's queue is full.
    pub fn submit(
        &self,
        engine: &JobEngine,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
    ) -> Result<JobHandle<VariantReport>, ScenarioError> {
        engine
            .submit(self.variant_job(variant, steps, policy))
            .map_err(|e| ScenarioError::Engine(e.to_string()))
    }

    /// [`Scenario::submit`] without the backpressure block: a full queue
    /// returns [`SubmitError::Full`] instead of waiting for a slot. The
    /// load-shedding primitive `tersoff-serve` maps to HTTP 429.
    pub fn try_submit(
        &self,
        engine: &JobEngine,
        variant: Variant,
        steps: u64,
        policy: &RunPolicy,
    ) -> Result<JobHandle<VariantReport>, SubmitError> {
        engine.try_submit(self.variant_job(variant, steps, policy))
    }

    /// A drained handle's outcome as a [`VariantReport`]. `Faulted` can only
    /// mean a panic that escaped the attempt's own isolation (it is caught
    /// by the engine's `catch_unwind` instead); `Cancelled` means the job
    /// never ran.
    pub(crate) fn resolve(
        &self,
        variant: Variant,
        outcome: JobOutcome<VariantReport>,
    ) -> VariantReport {
        match outcome {
            JobOutcome::Finished(report) => report,
            JobOutcome::Faulted(message) => {
                let mut out = self.blank_report(variant);
                out.status = VariantStatus::Panicked;
                out.error = Some(ScenarioError::Run {
                    label: out.label.clone(),
                    status: VariantStatus::Panicked,
                    message,
                });
                out
            }
            JobOutcome::Cancelled => {
                let mut out = self.blank_report(variant);
                out.error = Some(ScenarioError::Run {
                    label: out.label.clone(),
                    status: VariantStatus::Failed,
                    message: "cancelled before it ran".into(),
                });
                out
            }
        }
    }

    /// A [`ScenarioReport`] over drained variant outcomes plus host facts
    /// and the executing engine's counters.
    fn assemble_report(
        &self,
        steps: u64,
        variants: Vec<VariantReport>,
        engine: EngineStats,
    ) -> ScenarioReport {
        ScenarioReport {
            scenario: self.clone(),
            steps,
            executed_backend: self
                .options_for(Variant {
                    mode: self.potential.mode,
                    threads: self.potential.threads,
                })
                .resolved_backend()
                .to_string(),
            dispatch_granularity: vektor::dispatch::DISPATCH_GRANULARITY,
            compiled_isa: vektor::dispatch::compiled_isa(),
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            variants,
            engine,
        }
    }

    /// Steps to run under `policy` (the declared length after any cap).
    pub(crate) fn capped_steps(&self, policy: &RunPolicy) -> u64 {
        match policy.steps_cap {
            Some(cap) => self.run.steps.min(cap),
            None => self.run.steps,
        }
    }

    // -- execution ---------------------------------------------------------

    /// Run one variant for `steps` (normally `self.run.steps`, possibly
    /// capped by the caller). Compatibility wrapper over the submission
    /// path: any non-`ok` outcome is returned as the typed error.
    pub fn run_variant(
        &self,
        variant: Variant,
        steps: u64,
    ) -> Result<VariantReport, ScenarioError> {
        let engine = JobEngine::with_workers(1);
        let handle = self.submit(&engine, variant, steps, &RunPolicy::default())?;
        let report = self.resolve(variant, handle.wait());
        match report.status {
            VariantStatus::Ok => Ok(report),
            status => Err(report.error.clone().unwrap_or(ScenarioError::Run {
                label: report.label.clone(),
                status,
                message: "variant did not complete".into(),
            })),
        }
    }

    /// Execute every variant. `steps_cap` (e.g. from `tersoff-run
    /// --steps-cap`) limits the run length for smoke testing.
    /// Compatibility wrapper over [`Scenario::execute_with`]: the first
    /// non-`ok` variant fails the whole scenario with its typed error.
    pub fn execute(&self, steps_cap: Option<u64>) -> Result<ScenarioReport, ScenarioError> {
        let report = self.execute_with(&RunPolicy {
            steps_cap,
            ..RunPolicy::default()
        })?;
        if let Some(v) = report
            .variants
            .iter()
            .find(|v| v.status != VariantStatus::Ok)
        {
            return Err(v.error.clone().unwrap_or(ScenarioError::Run {
                label: v.label.clone(),
                status: v.status,
                message: "variant did not complete".into(),
            }));
        }
        Ok(report)
    }

    /// Execute every variant under a [`RunPolicy`]: per-variant panic
    /// isolation, retries, optional wall-clock timeout, checkpoint resume,
    /// `keep_going` and `jobs`-wide parallelism. A thin synchronous wrapper
    /// over submit-and-drain: spins up a [`JobEngine`] with
    /// [`RunPolicy::jobs`] lanes and calls [`Scenario::execute_on`]. Never
    /// fails the batch — each variant's outcome is its `status` in the
    /// returned report. Without `keep_going`, the batch stops after the
    /// first non-`ok` variant (already-run variants are reported either
    /// way).
    pub fn execute_with(&self, policy: &RunPolicy) -> Result<ScenarioReport, ScenarioError> {
        let engine = JobEngine::new(EngineConfig {
            workers: policy.jobs.max(1),
            ..EngineConfig::default()
        });
        self.execute_on(&engine, policy)
    }

    /// Execute every variant on a caller-owned engine (what `tersoff-run`
    /// does, sharing one engine — one runtime pool, one artifact cache —
    /// across every scenario of the invocation). With `keep_going` the
    /// whole matrix is submitted eagerly and drained in matrix order;
    /// without it, variants are submitted one at a time so the batch stops
    /// exactly at the first non-`ok` variant.
    pub fn execute_on(
        &self,
        engine: &JobEngine,
        policy: &RunPolicy,
    ) -> Result<ScenarioReport, ScenarioError> {
        let steps = self.capped_steps(policy);
        let mut variants = Vec::new();
        if policy.keep_going {
            let mut handles = Vec::new();
            for v in self.variants() {
                handles.push((v, self.submit(engine, v, steps, policy)?));
            }
            for (v, handle) in handles {
                variants.push(self.resolve(v, handle.wait()));
            }
        } else {
            for v in self.variants() {
                let handle = self.submit(engine, v, steps, policy)?;
                let report = self.resolve(v, handle.wait());
                let stop = report.status != VariantStatus::Ok;
                variants.push(report);
                if stop {
                    break;
                }
            }
        }
        Ok(self.assemble_report(steps, variants, engine.stats()))
    }
}

impl ScenarioReport {
    /// Variants whose measured drift exceeds the scenario's declared
    /// `max_drift` bound (empty when no bound is declared).
    pub fn drift_violations(&self) -> Vec<String> {
        let Some(bound) = self.scenario.max_drift else {
            return Vec::new();
        };
        self.variants
            .iter()
            .filter_map(|v| v.report.as_ref().map(|r| (v, r)))
            .filter(|(_, r)| r.max_drift > bound)
            .map(|(v, r)| {
                format!(
                    "{}: |ΔE/E₀| = {:.3e} exceeds declared bound {bound:.3e}",
                    v.label, r.max_drift
                )
            })
            .collect()
    }

    /// Failed property checks across all variants (empty when the scenario
    /// declares no `properties.expected` values).
    pub fn property_violations(&self) -> Vec<String> {
        self.variants
            .iter()
            .filter_map(|v| v.properties.as_ref().map(|p| (v, p)))
            .flat_map(|(v, p)| {
                p.checks.iter().filter(|c| !c.ok).map(move |c| {
                    format!(
                        "{}: {} = {:.4} deviates {:.2}% from published {:.4}",
                        v.label, c.name, c.measured, c.rel_err_pct, c.expected
                    )
                })
            })
            .collect()
    }

    /// The report as JSON: run metadata at the top level and a `series`
    /// array with one entry per variant, keyed by (mode, threads), carrying
    /// its status and metrics.
    pub fn to_report_json(&self) -> String {
        let s = &self.scenario;
        // seconds-per-step of the Ref variant at each thread count, for the
        // speedup_vs_ref column (mirrors fig5's reporting).
        let ref_seconds: BTreeMap<usize, f64> = self
            .variants
            .iter()
            .filter(|v| v.variant.mode == ExecutionMode::Ref && v.status == VariantStatus::Ok)
            .filter_map(|v| {
                v.report
                    .as_ref()
                    .map(|r| (v.resolved_threads, r.seconds_per_step()))
            })
            .collect();
        let series: Vec<Json> = self
            .variants
            .iter()
            .map(|v| {
                let mut entry = v.json_fields();
                entry.extend([
                    ("mode", Json::Str(v.variant.mode.to_string())),
                    ("scheme", Json::Str(s.potential.scheme.to_string())),
                    ("threads", Json::Num(v.resolved_threads as f64)),
                ]);
                if let Some(report) = &v.report {
                    entry.extend([
                        ("rebuilds", Json::Num(report.total_rebuilds as f64)),
                        (
                            // Per-phase breakdown (force / neighbor / comm /
                            // integrate / other) so the runtime-parallel
                            // phases are measurable from the report alone.
                            "timers",
                            obj(Stage::ALL
                                .iter()
                                .map(|&stage| {
                                    (stage.name(), Json::Num(report.timers.seconds(stage)))
                                })
                                .collect::<Vec<_>>()),
                        ),
                    ]);
                    let seconds = report.seconds_per_step();
                    if let Some(&r) = ref_seconds.get(&v.resolved_threads) {
                        if seconds > 0.0 && v.status == VariantStatus::Ok {
                            entry.push(("speedup_vs_ref", Json::Num(r / seconds)));
                        }
                    }
                }
                if let Some(d) = &v.decomposition {
                    entry.push((
                        "decomposition",
                        obj([
                            (
                                "grid",
                                Json::Arr(d.grid.iter().map(|&g| Json::Num(g as f64)).collect()),
                            ),
                            ("ranks", Json::Num(d.ranks as f64)),
                            ("migrations", Json::Num(d.migrations as f64)),
                            (
                                "atoms_per_rank",
                                Json::Arr(
                                    d.atoms_per_rank
                                        .iter()
                                        .map(|&n| Json::Num(n as f64))
                                        .collect(),
                                ),
                            ),
                            ("ghost_fraction", Json::Num(d.ghost_fraction)),
                            ("comm_seconds", Json::Num(d.comm_seconds)),
                            ("migrate_seconds", Json::Num(d.migrate_seconds)),
                            ("comm_fraction", Json::Num(d.comm_fraction)),
                        ]),
                    ));
                }
                obj(entry)
            })
            .collect();
        let mut top = vec![
            ("figure", Json::Str(format!("scenario_{}", s.name))),
            ("scenario", Json::Str(s.name.clone())),
            ("description", Json::Str(s.description.clone())),
            (
                "workload",
                obj([
                    ("lattice", Json::Str(s.system.lattice.to_string())),
                    (
                        "cells",
                        Json::Arr(
                            s.system
                                .cells
                                .iter()
                                .map(|&c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                    ("atoms", Json::Num(s.n_atoms() as f64)),
                    ("perturbation", Json::Num(s.system.perturbation)),
                    ("temperature", Json::Num(s.system.temperature)),
                ]),
            ),
            ("steps", Json::Num(self.steps as f64)),
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("executed_backend", Json::Str(self.executed_backend.clone())),
            (
                "dispatch_granularity",
                Json::Str(self.dispatch_granularity.to_string()),
            ),
            ("compiled_isa", Json::Str(self.compiled_isa.to_string())),
            (
                // The engine configuration that executed this batch, next
                // to the backend facts: how wide, how deep, how warm.
                "engine",
                obj([
                    ("workers", Json::Num(self.engine.workers as f64)),
                    ("queue_depth", Json::Num(self.engine.queue_depth as f64)),
                    ("submitted", Json::Num(self.engine.submitted as f64)),
                    (
                        "runtimes_created",
                        Json::Num(self.engine.runtimes_created as f64),
                    ),
                    ("cache_hits", Json::Num(self.engine.cache.hits as f64)),
                    ("cache_misses", Json::Num(self.engine.cache.misses as f64)),
                    (
                        "cache_evictions",
                        Json::Num(self.engine.cache.evictions as f64),
                    ),
                    (
                        "cache_resident_bytes",
                        Json::Num(self.engine.cache.resident_bytes as f64),
                    ),
                ]),
            ),
            ("series", Json::Arr(series)),
        ];
        if let Some(dec) = &s.decomposition {
            top.push((
                "decomposition",
                obj([
                    (
                        "grid",
                        Json::Arr(dec.grid.iter().map(|&g| Json::Num(g as f64)).collect()),
                    ),
                    ("ranks", Json::Num(dec.n_ranks() as f64)),
                ]),
            ));
        }
        obj(top).pretty()
    }
}

/// A symmetric 3×3 tensor in Voigt order as a named JSON object.
fn voigt_json(t: &[f64; 6]) -> Json {
    obj([
        ("xx", Json::Num(t[0])),
        ("yy", Json::Num(t[1])),
        ("zz", Json::Num(t[2])),
        ("xy", Json::Num(t[3])),
        ("xz", Json::Num(t[4])),
        ("yz", Json::Num(t[5])),
    ])
}

/// The `properties` section of one variant's report entry (also what
/// `/v1/jobs/{id}` serves in its `result`).
fn properties_json(p: &PropertiesReport) -> Json {
    let mut entry = Vec::new();
    if let Some(s) = &p.stress {
        entry.push((
            "stress_bar",
            obj([
                ("every", Json::Num(s.every as f64)),
                ("samples", Json::Num(s.samples as f64)),
                ("time_averaged", voigt_json(&s.time_averaged)),
                ("last", voigt_json(&s.last)),
            ]),
        ));
    }
    if let Some(r) = &p.rdf {
        entry.push((
            "rdf",
            obj([
                ("every", Json::Num(r.every as f64)),
                ("bins", Json::Num(r.bins as f64)),
                ("r_max", Json::Num(r.r_max)),
                ("samples", Json::Num(r.samples as f64)),
                ("g", Json::Arr(r.g.iter().map(|&g| Json::Num(g)).collect())),
            ]),
        ));
    }
    if let Some(e) = &p.elastic {
        let mut x = vec![
            ("lattice_a", Json::Num(e.lattice_a)),
            ("cohesive_ev", Json::Num(e.cohesive_ev)),
        ];
        for (key, val) in [
            ("c11_gpa", e.c11_gpa),
            ("c12_gpa", e.c12_gpa),
            ("c44_gpa", e.c44_gpa),
        ] {
            if let Some(v) = val {
                x.push((key, Json::Num(v)));
            }
        }
        x.push(("energy_evals", Json::Num(e.energy_evals as f64)));
        entry.push(("elastic", obj(x)));
    }
    entry.push((
        "checks",
        Json::Arr(
            p.checks
                .iter()
                .map(|c| {
                    obj([
                        ("name", Json::Str(c.name.to_string())),
                        ("expected", Json::Num(c.expected)),
                        ("measured", Json::Num(c.measured)),
                        ("rel_err_pct", Json::Num(c.rel_err_pct)),
                        ("ok", Json::Bool(c.ok)),
                    ])
                })
                .collect(),
        ),
    ));
    obj(entry)
}

#[cfg(test)]
mod tests {
    use super::super::spec::tests::sample;
    use super::super::spec::MatrixSpec;
    use super::*;
    use crate::json::parse;
    use md_core::simulation::BuildError;

    #[test]
    fn executes_and_reports_one_series_entry_per_variant() {
        let mut s = sample();
        s.matrix = Some(MatrixSpec {
            modes: vec![ExecutionMode::Ref, ExecutionMode::OptM],
            threads: vec![1],
        });
        s.run.steps = 4;
        let report = s.execute(None).unwrap();
        assert_eq!(report.variants.len(), 2);
        assert!(report.drift_violations().is_empty());
        let json = report.to_report_json();
        let parsed = parse(&json).unwrap();
        let series = parsed.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].get("mode").unwrap().as_str(), Some("Ref"));
        assert!(series[0].get("seconds_per_step").unwrap().as_f64().unwrap() > 0.0);
        // Opt-M row carries the speedup against the Ref row.
        assert!(series[1].get("speedup_vs_ref").is_some());
    }

    #[test]
    fn report_json_records_engine_configuration() {
        let mut s = sample();
        s.matrix = Some(MatrixSpec {
            modes: vec![ExecutionMode::Ref, ExecutionMode::OptM],
            threads: vec![1],
        });
        s.run.steps = 4;
        let report = s
            .execute_with(&RunPolicy {
                jobs: 2,
                keep_going: true,
                ..RunPolicy::default()
            })
            .unwrap();
        assert_eq!(report.engine.workers, 2);
        assert_eq!(report.engine.submitted, 2);
        // The second variant reuses the first's cached lattice (the
        // build-once lock guarantees this even with both lanes racing).
        assert!(report.engine.cache.hits >= 1, "{:?}", report.engine.cache);
        let json = parse(&report.to_report_json()).unwrap();
        let engine = json.get("engine").unwrap();
        assert_eq!(engine.get("workers").unwrap().as_f64(), Some(2.0));
        assert!(engine.get("queue_depth").unwrap().as_f64().unwrap() >= 1.0);
        assert!(engine.get("cache_hits").unwrap().as_f64().unwrap() >= 1.0);
        assert!(engine.get("cache_misses").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn dump_writes_frames_through_the_engine() {
        let mut s = sample();
        let mut path = std::env::temp_dir();
        path.push(format!("scenario_exec_dump_{}.xyz", std::process::id()));
        s.dump = Some(super::super::spec::DumpSpec {
            path: path.display().to_string(),
            every: 2,
            elements: None,
            format: DumpFormat::Xyz,
        });
        s.matrix = None;
        s.run.steps = 6;
        let report = s.execute(None).unwrap();
        let (written, frames) = report.variants[0].dump.clone().unwrap();
        assert_eq!(written, path);
        assert_eq!(frames, 3); // steps 2, 4, 6
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&format!("{}\n", s.n_atoms())));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_json_carries_per_phase_timers() {
        let mut s = sample();
        s.matrix = None;
        s.run.steps = 4;
        let report = s.execute(None).unwrap();
        let json = parse(&report.to_report_json()).unwrap();
        let series = json.get("series").unwrap().as_arr().unwrap();
        let timers = series[0].get("timers").unwrap();
        for stage in Stage::ALL {
            let v = timers.get(stage.name()).and_then(|t| t.as_f64());
            assert!(v.is_some(), "missing timer for {}", stage.name());
        }
        assert!(
            timers.get("integrate").unwrap().as_f64().unwrap() > 0.0,
            "integration must be timed separately"
        );
    }

    #[test]
    fn decomposed_execution_is_bitwise_identical_and_reports_stats() {
        let mut s = sample();
        s.matrix = None;
        s.run.steps = 6;
        let single = s.execute(None).unwrap();
        s.decomposition = Some(super::super::spec::DecompositionSpec { grid: [2, 1, 1] });
        let dec = s.execute(None).unwrap();

        let e = |r: &ScenarioReport| r.variants[0].report().final_thermo.total.to_bits();
        assert_eq!(
            e(&single),
            e(&dec),
            "decomposed run must match the single-domain energy bit for bit"
        );

        let stats = dec.variants[0].decomposition.as_ref().unwrap();
        assert_eq!(stats.grid, [2, 1, 1]);
        assert_eq!(stats.ranks, 2);
        assert!(stats.ghost_fraction > 0.0);
        assert_eq!(
            stats.atoms_per_rank.iter().sum::<usize>(),
            s.n_atoms(),
            "ranks must partition the system: {:?}",
            stats.atoms_per_rank
        );
        assert!(stats.comm_fraction > 0.0 && stats.comm_fraction < 1.0);

        let json = parse(&dec.to_report_json()).unwrap();
        let top = json.get("decomposition").unwrap();
        assert_eq!(top.get("ranks").unwrap().as_f64(), Some(2.0));
        let series = json.get("series").unwrap().as_arr().unwrap();
        let entry = series[0].get("decomposition").unwrap();
        assert!(entry.get("comm_fraction").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            entry.get("grid").unwrap().as_arr().unwrap().len(),
            3,
            "per-variant entry must carry the grid"
        );

        // An infeasible grid surfaces as the typed decomposition error.
        s.decomposition = Some(super::super::spec::DecompositionSpec { grid: [64, 1, 1] });
        match s.execute(None) {
            Err(ScenarioError::Decomposition(msg)) => {
                assert!(msg.contains("cutoff"), "{msg}");
            }
            other => panic!("expected a decomposition error, got {other:?}"),
        }
    }

    #[test]
    fn drift_violations_are_detected() {
        let mut s = sample();
        s.matrix = None;
        s.run.steps = 10;
        s.max_drift = Some(1e-30); // unattainably tight
        let report = s.execute(None).unwrap();
        assert_eq!(report.drift_violations().len(), 1);
    }

    #[test]
    fn steps_cap_limits_the_run() {
        let mut s = sample();
        s.matrix = None;
        let report = s.execute(Some(3)).unwrap();
        assert_eq!(report.steps, 3);
        assert_eq!(report.variants[0].report().total_steps, 3);
    }

    #[test]
    fn invalid_physical_setup_surfaces_the_build_error() {
        let mut s = sample();
        s.matrix = None;
        s.run.timestep = -1.0;
        match s.execute(None) {
            Err(ScenarioError::Build(BuildError::NonPositiveTimestep(_))) => {}
            other => panic!("expected build error, got {other:?}"),
        }
    }

    #[test]
    fn batch_severity_maps_each_status_to_its_exit_code() {
        let code = |status| {
            let mut sev = BatchSeverity::new();
            sev.record(status);
            sev.exit_code()
        };
        assert_eq!(code(VariantStatus::Ok), 0);
        assert_eq!(code(VariantStatus::Failed), 3);
        assert_eq!(code(VariantStatus::Diverged), 4);
        assert_eq!(code(VariantStatus::Panicked), 5);
        assert_eq!(code(VariantStatus::Timeout), 6);
        assert!(!BatchSeverity::new().any());
    }

    #[test]
    fn batch_severity_is_worst_wins() {
        // panic > timeout > health > load, regardless of recording order.
        let mut sev = BatchSeverity::new();
        sev.record_load_failure();
        assert_eq!(sev.exit_code(), 3);
        sev.record_drift_violation();
        assert_eq!(sev.exit_code(), 4);
        sev.record(VariantStatus::Timeout);
        assert_eq!(sev.exit_code(), 6);
        sev.record(VariantStatus::Panicked);
        assert_eq!(sev.exit_code(), 5);
        // Recording a milder class never lowers the code.
        sev.record(VariantStatus::Diverged);
        assert_eq!(sev.exit_code(), 5);
        assert!(sev.any());
    }
}
