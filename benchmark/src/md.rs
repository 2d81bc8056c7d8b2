//! The four molecular-dynamics workloads: set-up, the timed run of
//! `run(1)` calls, the correctness checks, and — on a traced run — the
//! layer probes on the state the run ended in.

use crate::probes;
use crate::spec;
use crate::stats::{self, median, percentile};
use crate::trace::Recorder;
use crate::{BenchArgs, Outcome};
use md_core::prelude::*;
use std::time::Instant;
use tersoff::prelude::*;

/// Untimed steps before the timed section; on the decomposed workload
/// they double as the window over which the trajectory must equal the
/// single-domain one bit for bit.
const WARMUP_STEPS: usize = 10;
/// The timed section never ends before this many steps: ten blocks,
/// which leave `op_ms_p90` its ten samples beyond.
const MIN_TIMED_STEPS: usize = 10 * stats::BLOCK;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Uniform displacement of every coordinate off the perfect lattice (Å).
const PERTURBATION: f64 = 0.05;

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Crystal {
    Silicon,
    SiliconCarbide,
}

#[derive(Copy, Clone, Debug)]
pub struct MdSpec {
    pub crystal: Crystal,
    pub cells: usize,
    pub temperature: f64,
    pub timestep: f64,
    pub skin: f64,
    pub mode: ExecutionMode,
    pub scheme: Scheme,
    pub grid: Option<[usize; 3]>,
    /// Largest accepted `|E_end - E_start| / |E_start|` over the timed run.
    pub drift_tol: f64,
}

impl MdSpec {
    pub fn lattice(&self) -> Lattice {
        let cells = [self.cells; 3];
        match self.crystal {
            Crystal::Silicon => Lattice::silicon(cells),
            Crystal::SiliconCarbide => Lattice::silicon_carbide(cells),
        }
    }

    pub fn params(&self) -> TersoffParams {
        match self.crystal {
            Crystal::Silicon => TersoffParams::silicon(),
            Crystal::SiliconCarbide => TersoffParams::silicon_carbide(),
        }
    }

    fn masses(&self) -> Vec<f64> {
        match self.crystal {
            Crystal::Silicon => vec![units::mass::SI],
            Crystal::SiliconCarbide => vec![units::mass::SI, units::mass::C],
        }
    }

    pub fn potential(&self) -> Box<dyn Potential> {
        make_potential(self.params(), kernel_options(self.mode, self.scheme))
    }
}

/// One thread, the paper's default width for the mode and scheme, the
/// host's best vector back end.
pub fn kernel_options(mode: ExecutionMode, scheme: Scheme) -> TersoffOptions {
    TersoffOptions {
        mode,
        scheme,
        width: 0,
        threads: 1,
        backend: None,
    }
}

/// The spec of an MD workload; `smoke` shrinks the system to 2³ cells.
pub fn spec_for(workload: &str, smoke: bool) -> Option<MdSpec> {
    let si32k = MdSpec {
        crystal: Crystal::Silicon,
        cells: if smoke { 2 } else { 16 },
        temperature: 300.0,
        timestep: units::DEFAULT_TIMESTEP,
        skin: 1.0,
        mode: ExecutionMode::OptM,
        scheme: Scheme::FusedLanes,
        grid: None,
        drift_tol: 1e-3,
    };
    match workload {
        spec::SI32K_OPTM => Some(si32k),
        spec::SI32K_REF => Some(MdSpec {
            mode: ExecutionMode::Ref,
            scheme: Scheme::Scalar,
            ..si32k
        }),
        spec::SI32K_DOM4 => Some(MdSpec {
            grid: Some([2, 2, 1]),
            ..si32k
        }),
        // The skin was tuned once on the reference host (0.3 -> 0.15 Å)
        // until the list is rebuilt at least every five steps and
        // rebuilding takes >= 8% of the run, then frozen: 3.6-3.9 steps per
        // rebuild, 8-9% of the run.
        spec::SIC8K_HOT => Some(MdSpec {
            crystal: Crystal::SiliconCarbide,
            cells: if smoke { 2 } else { 10 },
            temperature: 2500.0,
            timestep: 0.0005,
            skin: 0.15,
            mode: ExecutionMode::OptD,
            scheme: Scheme::JLanes,
            grid: None,
            drift_tol: 1e-2,
        }),
        _ => None,
    }
}

type Sim = Simulation<Box<dyn Potential>>;

pub enum Runner {
    Single(Box<Sim>),
    Domain(Box<DomainSimulation<Box<dyn Potential>>>),
}

impl Runner {
    fn run(&mut self, steps: u64) -> RunReport {
        match self {
            Runner::Single(sim) => sim.run(steps),
            Runner::Domain(dom) => dom.run(steps),
        }
    }

    pub fn sim(&self) -> &Sim {
        match self {
            Runner::Single(sim) => sim,
            Runner::Domain(dom) => dom.sim(),
        }
    }
}

/// One set-up as a user pays it: lattice, potential, then the builder's
/// `build()` — velocities, the first neighbor list and the first force
/// evaluation (and, on a rank grid, the decomposition's priming).
fn set_up(spec: &MdSpec, seed: u64, rec: &mut Recorder) -> Runner {
    rec.span("setup", |rec| {
        let (sim_box, atoms) = rec.span("lattice", |_| {
            spec.lattice().build_perturbed(PERTURBATION, seed)
        });
        let potential = rec.span("potential.make", |_| spec.potential());
        let builder = Simulation::builder(atoms, sim_box, potential)
            .masses(spec.masses())
            .temperature(spec.temperature, seed.wrapping_add(1))
            .timestep(spec.timestep)
            .skin(spec.skin);
        rec.span("simulation.build", |_| match spec.grid {
            None => Runner::Single(Box::new(builder.build().expect("valid workload"))),
            Some(grid) => Runner::Domain(Box::new(
                DomainSimulation::new(builder, grid).expect("valid rank grid"),
            )),
        })
    })
}

/// What the timed section saw.
pub struct Timed {
    /// Wall seconds of each `run(1)` call.
    pub step_s: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    pub thermo_after_warmup: ThermoState,
    pub thermo_end: ThermoState,
    pub rebuilds: u64,
    /// Seconds per `Stage::ALL` entry accumulated by the simulation's own
    /// timers over the timed section.
    pub stage_s: [f64; 6],
}

impl Timed {
    pub fn steps(&self) -> usize {
        self.step_s.len()
    }

    fn shape(&self) -> probes::RunShape {
        probes::RunShape {
            steps: self.steps() as f64,
            wall_s: self.wall_s,
            rebuilds: self.rebuilds as f64,
            stage_s: self.stage_s,
        }
    }

    pub fn drift_rel(&self) -> f64 {
        let start = self.thermo_after_warmup.total;
        ((self.thermo_end.total - start) / start).abs()
    }
}

fn stage_seconds(timers: &Timers) -> [f64; 6] {
    Stage::ALL.map(|s| timers.seconds(s))
}

/// Warm up, then call `run(1)` until both `seconds` and the minimum step
/// count are reached.
fn timed_run(runner: &mut Runner, seconds: f64, rec: &mut Recorder) -> Timed {
    for _ in 0..WARMUP_STEPS {
        runner.run(1);
    }
    let thermo_after_warmup = *runner.sim().current_thermo();
    let stage_before = stage_seconds(&runner.sim().timers);
    let rebuilds_before = runner.sim().n_rebuilds;
    let mut step_s = Vec::with_capacity(4096);
    let mut failed = 0;
    rec.begin("run");
    let start = Instant::now();
    while step_s.len() < MIN_TIMED_STEPS || start.elapsed().as_secs_f64() < seconds {
        rec.set_paused(!stats::in_recorded_block(step_s.len()));
        rec.begin_indexed("step", step_s.len());
        let t = Instant::now();
        let report = runner.run(1);
        step_s.push(t.elapsed().as_secs_f64());
        rec.end();
        if report.steps != 1 || report.status != RunStatus::Completed {
            failed += 1;
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    rec.set_paused(false);
    rec.end();
    let sim = runner.sim();
    let stage_after = stage_seconds(&sim.timers);
    Timed {
        step_s,
        wall_s,
        failed,
        thermo_after_warmup,
        thermo_end: *sim.current_thermo(),
        rebuilds: sim.n_rebuilds - rebuilds_before,
        stage_s: std::array::from_fn(|k| stage_after[k] - stage_before[k]),
    }
}

/// Whether an error is inside its tolerance; a NaN never is.
fn within(error: f64, tolerance: f64) -> bool {
    error <= tolerance
}

fn thermo_bits(t: &ThermoState) -> [u64; 6] {
    [
        t.step,
        t.temperature.to_bits(),
        t.kinetic.to_bits(),
        t.potential.to_bits(),
        t.total.to_bits(),
        t.pressure.to_bits(),
    ]
}

/// Energy and force error of `spec`'s kernel against `Ref` on the step-0
/// state, with the tolerances `tests/integration.rs` holds the kernels to.
/// Returns the largest force difference relative to the largest reference
/// force component.
fn check_forces_against_ref(spec: &MdSpec, sim: &Sim, failures: &mut Vec<String>) -> f64 {
    let compute = |mode, scheme| {
        let mut out = ComputeOutput::zeros(sim.atoms.n_total());
        make_potential(spec.params(), kernel_options(mode, scheme)).compute(
            &sim.atoms,
            &sim.sim_box,
            &sim.neighbors,
            &mut out,
        );
        out
    };
    let reference = compute(ExecutionMode::Ref, Scheme::Scalar);
    let out = compute(spec.mode, spec.scheme);
    let (energy_tol, force_tol) = match spec.mode {
        ExecutionMode::Ref | ExecutionMode::OptD => (1e-9, 1e-8),
        ExecutionMode::OptS | ExecutionMode::OptM => (3e-5, 5e-3),
    };
    let energy_err = ((out.energy - reference.energy) / reference.energy).abs();
    let force_err = out.max_force_difference(&reference);
    if !within(energy_err, energy_tol) {
        failures.push(format!(
            "step-0 energy off Ref by {energy_err:e} (tolerance {energy_tol:e})"
        ));
    }
    if !within(force_err, force_tol) {
        failures.push(format!(
            "step-0 forces off Ref by {force_err:e} eV/A (tolerance {force_tol:e})"
        ));
    }
    force_err / reference.max_force_component()
}

/// The single-domain twin of a decomposed workload, advanced through the
/// same warm-up: its thermo must equal the decomposed run's bit for bit.
/// On a traced run it is also timed for a few steps, which gives
/// `domain.step_overhead_ratio` its base, and its set-up time is
/// subtracted from the decomposed set-up.
struct SingleDomainTwin {
    thermo_after_warmup: ThermoState,
    setup_s: f64,
    step_s_p50: Option<f64>,
}

fn single_domain_twin(spec: &MdSpec, seed: u64, time_steps: bool) -> SingleDomainTwin {
    let single = MdSpec {
        grid: None,
        ..*spec
    };
    let t = Instant::now();
    let mut runner = set_up(&single, seed, &mut Recorder::new(false));
    let setup_s = t.elapsed().as_secs_f64();
    for _ in 0..WARMUP_STEPS {
        runner.run(1);
    }
    let thermo_after_warmup = *runner.sim().current_thermo();
    let step_s_p50 = time_steps.then(|| {
        let steps: Vec<f64> = (0..2 * stats::BLOCK)
            .map(|_| {
                let t = Instant::now();
                runner.run(1);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&steps)
    });
    SingleDomainTwin {
        thermo_after_warmup,
        setup_s,
        step_s_p50,
    }
}

pub fn run(workload: &str, spec: &MdSpec, args: &BenchArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.trace);

    let t = Instant::now();
    let mut runner = set_up(spec, args.seed, &mut rec);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let n_atoms = runner.sim().atoms.n_local;

    let timed = timed_run(&mut runner, args.seconds, &mut rec);
    // Before the checks and probes allocate anything of their own.
    let peak_rss_mb = stats::peak_rss_mb();
    let domain_stats = match &runner {
        Runner::Domain(dom) => Some(probes::DomainStats::of(dom)),
        Runner::Single(_) => None,
    };

    // The remaining set-ups; the last one stays as the step-0 state the
    // force check works on. The probes work on the state the run ended
    // in: a hot system's step-0 lattice has far fewer atoms inside the
    // cutoff than the run sees.
    let mut untraced = Recorder::new(false);
    let mut step0 = None;
    while setup_s.len() < SETUP_REPS {
        drop(step0.take());
        let t = Instant::now();
        step0 = Some(set_up(spec, args.seed, &mut untraced));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let step0 = step0.expect("SETUP_REPS > 1");

    let steps = timed.steps();
    out.attempted = steps as u64;
    out.failed = timed.failed;
    let step_ms: Vec<f64> = timed.step_s.iter().map(|s| s * 1e3).collect();
    out.put(
        spec::ATOM_STEPS_PER_S,
        n_atoms as f64 * stats::median_block_rate(&timed.step_s),
    );
    out.put(spec::OP_MS_P50, median(&step_ms));
    out.put(
        spec::OP_MS_P90,
        stats::median_block_p90(&step_ms).expect("MIN_TIMED_STEPS is ten blocks"),
    );
    out.put(spec::SETUP_S, median(&setup_s));
    if let Some(mb) = peak_rss_mb {
        out.put(spec::PEAK_RSS_MB, mb);
    }

    // Correctness.
    let drift = timed.drift_rel();
    if !within(drift, spec.drift_tol) {
        out.check_failures.push(format!(
            "relative energy drift {drift:e} over {steps} steps exceeds {:e}",
            spec.drift_tol
        ));
    }
    let force_rel_err = check_forces_against_ref(spec, step0.sim(), &mut out.check_failures);
    let twin = spec
        .grid
        .map(|_| single_domain_twin(spec, args.seed, args.trace));
    if let Some(twin) = &twin {
        if thermo_bits(&twin.thermo_after_warmup) != thermo_bits(&timed.thermo_after_warmup) {
            out.check_failures.push(format!(
                "decomposed thermo after {WARMUP_STEPS} steps differs from single-domain: {:?} vs {:?}",
                timed.thermo_after_warmup, twin.thermo_after_warmup
            ));
        }
    }

    if args.trace {
        let spans = rec.spans();
        let build_s = spans
            .iter()
            .find(|s| s.name == "simulation.build")
            .map_or(0.0, |s| s.duration());
        out.put("simulation.build_ms", build_s * 1e3);
        out.put("simulation.steps", steps as f64);
        out.put("simulation.energy_drift_rel", drift);
        if let Some(p95) = percentile(&step_ms, 95.0) {
            out.put("simulation.step_ms_p95", p95);
        }
        out.put("tersoff.force_max_rel_err_vs_ref", force_rel_err);
        out.put("trace.overhead_ratio", overhead_ratio(&timed));
        probes::vektor(&mut out);
        probes::md_layers(workload, spec, runner.sim(), &timed.shape(), &mut out);
        if let (Some(stats), Some(twin)) = (&domain_stats, &twin) {
            stats.put(&mut out);
            out.put("domain.build_ms", (median(&setup_s) - twin.setup_s) * 1e3);
            if let Some(single_p50) = twin.step_s_p50 {
                out.put(
                    "domain.step_overhead_ratio",
                    median(&timed.step_s) / single_p50,
                );
            }
        }
        out.spans = rec.into_spans();
    }
    out
}

/// Traced over untraced throughput, from the interleaved blocks of one
/// run: the median unrecorded step over the median recorded step.
fn overhead_ratio(timed: &Timed) -> f64 {
    let pick = |recorded: bool| -> Vec<f64> {
        timed
            .step_s
            .iter()
            .enumerate()
            .filter(|(index, _)| stats::in_recorded_block(*index) == recorded)
            .map(|(_, s)| *s)
            .collect()
    };
    median(&pick(false)) / median(&pick(true))
}
