//! The fault-tolerance contract, end to end:
//!
//! * an injected panic surfaces as a typed [`RunError::Panicked`], the
//!   simulation refuses further runs, and the shared [`ParallelRuntime`]
//!   stays healthy — a fresh simulation on the *same* runtime is bitwise
//!   identical to one on a fresh runtime,
//! * an injected NaN is caught by the [`HealthGuard`] as a typed
//!   [`RunError::Diverged`] at a step and reason that are identical across
//!   thread counts and kernel modes (the abort is deterministic),
//! * checkpoint → resume continues a run **bitwise identically** — same
//!   thermo samples, same final state bits,
//! * the scenario batch runner isolates a fault to the targeted variant:
//!   with `--keep-going` semantics the other variants still run on the
//!   reused runtime and match the fault-free run bit for bit,
//! * the builder rejects non-finite configuration with typed errors, and
//! * a disarmed trajectory writer surfaces as a [`RunReport`] warning
//!   instead of silently truncating the file.

use lammps_tersoff_vector::prelude::*;
use lammps_tersoff_vector::scenario::{
    FaultSpec, LatticeSpec, MatrixSpec, ParamSet, PotentialSpec, RunPolicy, RunSpec, Scenario,
    SystemSpec, VariantStatus,
};

fn silicon_setup() -> (SimBox, AtomData) {
    Lattice::silicon([2, 2, 2]).build_perturbed(0.04, 11)
}

fn silicon_potential(mode: ExecutionMode, threads: usize) -> Box<dyn Potential> {
    make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode,
            threads,
            ..TersoffOptions::default()
        },
    )
}

fn trace_bits(sim: &Simulation<Box<dyn Potential>>) -> Vec<(u64, u64, u64)> {
    sim.thermo_history()
        .iter()
        .map(|t| (t.step, t.potential.to_bits(), t.total.to_bits()))
        .collect()
}

// ---------------------------------------------------------------------------
// Typed panics + runtime reuse
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_is_typed_and_the_runtime_survives() {
    let runtime = ParallelRuntime::new(2);

    // A simulation that panics inside a worker at step 3.
    let (sim_box, atoms) = silicon_setup();
    let mut faulty = Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::OptM, 2))
        .runtime(&runtime)
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .thermo_every(2)
        .inject_fault(FaultPlan::new(FaultKind::Panic, 3))
        .build()
        .expect("valid setup");
    match faulty.try_run(10) {
        Err(RunError::Panicked { step, message }) => {
            assert_eq!(step, 3);
            assert!(message.contains("injected fault"), "message: {message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The faulted simulation refuses to continue...
    assert!(matches!(faulty.try_run(1), Err(RunError::AlreadyFaulted)));
    drop(faulty);

    // ...but the runtime it panicked on is still healthy: a fresh run on the
    // *same* runtime is bitwise identical to one on a fresh runtime.
    let run_on = |rt: &ParallelRuntime| {
        let (sim_box, atoms) = silicon_setup();
        let mut sim =
            Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::OptM, 2))
                .runtime(rt)
                .masses(vec![units::mass::SI])
                .temperature(300.0, 7)
                .thermo_every(2)
                .build()
                .expect("valid setup");
        sim.run(10);
        trace_bits(&sim)
    };
    let reused = run_on(&runtime);
    let fresh = run_on(&ParallelRuntime::new(2));
    assert!(!reused.is_empty());
    assert_eq!(
        reused, fresh,
        "a worker panic must not perturb later runs on the same runtime"
    );
}

// ---------------------------------------------------------------------------
// Health-guard divergence: typed and deterministic
// ---------------------------------------------------------------------------

fn diverge_with(mode: ExecutionMode, threads: usize) -> (u64, String) {
    let (sim_box, atoms) = silicon_setup();
    let mut sim = Simulation::builder(atoms, sim_box, silicon_potential(mode, threads))
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .thermo_every(5)
        .inject_fault(FaultPlan::new(FaultKind::Nan, 4))
        .observe(HealthGuard::new(HealthSettings::default()))
        .build()
        .expect("valid setup");
    match sim.try_run(20) {
        Err(RunError::Diverged {
            step,
            reason,
            report,
        }) => {
            assert!(
                matches!(report.status, RunStatus::Diverged { .. }),
                "partial report must record the abort"
            );
            assert!(report.steps < 20, "the run must stop early");
            (step, reason)
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn health_abort_is_deterministic_across_threads_and_modes() {
    let (step, reason) = diverge_with(ExecutionMode::Ref, 1);
    assert_eq!(step, 4, "NaN injected at step 4 must be caught at step 4");
    assert!(
        reason.contains("non-finite"),
        "reason should name the violation: {reason}"
    );
    // Bitwise identical across thread counts (same kernel): the health
    // checks read only deterministic state.
    assert_eq!((step, reason.clone()), diverge_with(ExecutionMode::Ref, 4));
    // Across kernels the embedded float digits differ (mixed vs double
    // precision trajectories), but the abort step and the named violation
    // are the same.
    let (m_step, m_reason) = diverge_with(ExecutionMode::OptM, 2);
    assert_eq!(m_step, step);
    let violation = |r: &str| r.split(':').next().unwrap().to_string();
    assert_eq!(violation(&m_reason), violation(&reason));
    // `run` (the infallible form) reports the same abort via the status.
    let (sim_box, atoms) = silicon_setup();
    let mut sim = Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::Ref, 1))
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .inject_fault(FaultPlan::new(FaultKind::Nan, 4))
        .observe(HealthGuard::new(HealthSettings::default()))
        .build()
        .expect("valid setup");
    let report = sim.run(20);
    assert_eq!(
        report.status,
        RunStatus::Diverged {
            step,
            reason: reason.clone()
        }
    );
}

// ---------------------------------------------------------------------------
// Checkpoint → resume, bitwise
// ---------------------------------------------------------------------------

#[test]
fn resumed_run_is_bitwise_identical_to_an_uninterrupted_one() {
    let build = |resume: Option<Checkpoint>| {
        let (sim_box, atoms) = silicon_setup();
        let mut b = Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::OptM, 2))
            .masses(vec![units::mass::SI])
            .thermo_every(5);
        b = match resume {
            None => b.temperature(500.0, 3),
            Some(cp) => b.resume_from(cp),
        };
        b.build().expect("valid setup")
    };

    // The uninterrupted reference: 40 steps in one go.
    let mut whole = build(None);
    whole.run(40);
    let whole_trace = trace_bits(&whole);

    // The interrupted run: 20 steps, checkpoint, rebuild, 20 more.
    let mut first = build(None);
    first.run(20);
    let checkpoint = first.checkpoint();
    let serialized = checkpoint.to_json();
    let restored = Checkpoint::from_json(&serialized).expect("checkpoint round-trips");
    drop(first);
    let mut second = build(Some(restored));
    assert_eq!(second.step, 20);
    second.run(20);

    // Every thermo sample from the resume point on matches bit for bit, and
    // the final microstates serialize to identical bytes.
    let resumed_trace = trace_bits(&second);
    let whole_tail: Vec<_> = whole_trace.iter().filter(|t| t.0 >= 20).collect();
    let resumed_tail: Vec<_> = resumed_trace.iter().filter(|t| t.0 >= 20).collect();
    assert!(!whole_tail.is_empty());
    assert_eq!(
        whole_tail, resumed_tail,
        "thermo traces diverged after resume"
    );
    assert_eq!(
        whole.checkpoint().to_json(),
        second.checkpoint().to_json(),
        "final microstates differ after resume"
    );
}

// ---------------------------------------------------------------------------
// Scenario batch isolation
// ---------------------------------------------------------------------------

fn two_variant_scenario() -> Scenario {
    Scenario {
        name: "fault_isolation".into(),
        description: "batch-isolation fixture".into(),
        system: SystemSpec {
            lattice: LatticeSpec::Silicon,
            cells: [2, 2, 2],
            perturbation: 0.04,
            lattice_seed: 21,
            temperature: 400.0,
            velocity_seed: 5,
        },
        potential: PotentialSpec {
            params: ParamSet::Silicon,
            mode: ExecutionMode::OptM,
            scheme: Scheme::FusedLanes,
            width: 0,
            threads: 2,
            backend: None,
        },
        run: RunSpec {
            timestep: 0.001,
            skin: 1.0,
            steps: 12,
            thermo_every: 4,
        },
        dump: None,
        decomposition: None,
        matrix: Some(MatrixSpec {
            modes: vec![ExecutionMode::Ref, ExecutionMode::OptD],
            threads: vec![2],
        }),
        max_drift: Some(1e-3),
        health: None,
        checkpoint: None,
        fault: None,
        properties: None,
    }
}

#[test]
fn batch_isolates_an_injected_panic_to_the_targeted_variant() {
    let scenario = two_variant_scenario();

    // Fault-free baseline.
    let clean = scenario
        .execute_with(&RunPolicy::default())
        .expect("baseline runs");
    assert!(clean.variants.iter().all(|v| v.status == VariantStatus::Ok));

    // Inject a panic into the Ref variant only; keep going past it.
    let policy = RunPolicy {
        keep_going: true,
        fault_override: Some(FaultSpec {
            kind: FaultKind::Panic,
            step: 2,
            variant: Some("Ref".into()),
        }),
        ..RunPolicy::default()
    };
    let faulted = scenario.execute_with(&policy).expect("batch completes");
    assert_eq!(faulted.variants.len(), clean.variants.len());

    for (f, c) in faulted.variants.iter().zip(clean.variants.iter()) {
        assert_eq!(f.label, c.label);
        if f.label.contains("Ref") {
            assert_eq!(f.status, VariantStatus::Panicked, "{}", f.label);
            assert!(f.report.is_none());
            assert!(f.error.is_some());
        } else {
            // The surviving variant ran after the crash, on the same shared
            // runtime (both variants resolve to 2 threads) — and its results
            // are bit-for-bit what the fault-free batch produced.
            assert_eq!(f.status, VariantStatus::Ok, "{}", f.label);
            let bits = |v: &lammps_tersoff_vector::scenario::VariantReport| {
                v.trace
                    .iter()
                    .map(|t| (t.step, t.potential.to_bits(), t.total.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert!(!f.trace.is_empty());
            assert_eq!(
                bits(f),
                bits(c),
                "{}: surviving variant perturbed by the crash",
                f.label
            );
        }
    }
}

#[test]
fn deterministic_divergence_is_not_retried_but_a_panic_is() {
    let mut scenario = two_variant_scenario();
    scenario.matrix = None; // single Opt-M variant
    let policy = RunPolicy {
        retries: 2,
        keep_going: true,
        fault_override: Some(FaultSpec {
            kind: FaultKind::Nan,
            step: 3,
            variant: None,
        }),
        ..RunPolicy::default()
    };
    // Without a health guard the NaN just propagates and the run ends "ok":
    // the declared drift bound must catch it, in a report that is still JSON.
    let unguarded = scenario.execute_with(&policy).expect("batch completes");
    assert_eq!(unguarded.variants[0].status, VariantStatus::Ok);
    assert_eq!(unguarded.drift_violations().len(), 1);
    let json = lammps_tersoff_vector::json::parse(&unguarded.to_report_json()).expect("valid JSON");
    let entry = &json.get("series").unwrap().as_arr().unwrap()[0];
    assert!(entry.get("final_total_energy").unwrap().is_null());
    // With one (added via the spec) it is a typed divergence.
    scenario.health = Some(lammps_tersoff_vector::scenario::HealthSpec {
        every: 1,
        max_temperature: None,
        max_displacement: None,
    });
    let outcome = scenario.execute_with(&policy).expect("batch completes");
    let v = &outcome.variants[0];
    assert_eq!(v.status, VariantStatus::Diverged);
    assert_eq!(v.attempts, 1, "divergence is deterministic — never retried");
    // The partial report is preserved alongside the typed error.
    assert!(v.report.is_some());
    assert!(matches!(
        v.report.as_ref().unwrap().status,
        RunStatus::Diverged { step: 3, .. }
    ));

    // A panic, by contrast, consumes every retry.
    let policy = RunPolicy {
        retries: 2,
        keep_going: true,
        fault_override: Some(FaultSpec {
            kind: FaultKind::Panic,
            step: 3,
            variant: None,
        }),
        ..RunPolicy::default()
    };
    let outcome = scenario.execute_with(&policy).expect("batch completes");
    let v = &outcome.variants[0];
    assert_eq!(v.status, VariantStatus::Panicked);
    assert_eq!(v.attempts, 3, "1 attempt + 2 retries");
}

#[test]
fn fault_spec_env_syntax_round_trips() {
    let spec = FaultSpec::parse_env("panic@5@Ref").expect("valid spec");
    assert_eq!(spec.kind, FaultKind::Panic);
    assert_eq!(spec.step, 5);
    assert_eq!(spec.variant.as_deref(), Some("Ref"));
    assert!(spec.applies_to("Ref/1b/w8/t2"));
    assert!(!spec.applies_to("Opt-D/1b/w8/t2"));

    let spec = FaultSpec::parse_env(" nan@12 ").expect("valid spec");
    assert_eq!(spec.kind, FaultKind::Nan);
    assert_eq!(spec.step, 12);
    assert!(spec.variant.is_none());
    assert!(spec.applies_to("anything"));

    assert!(FaultSpec::parse_env("panic").is_err());
    assert!(FaultSpec::parse_env("segfault@3").is_err());
    assert!(FaultSpec::parse_env("panic@notanumber").is_err());
}

// ---------------------------------------------------------------------------
// Builder validation + warning propagation
// ---------------------------------------------------------------------------

type SiBuilder = SimulationBuilder<Box<dyn Potential>>;

#[test]
fn builder_rejects_non_finite_configuration() {
    let build = |f: fn(SiBuilder) -> SiBuilder| {
        let (sim_box, atoms) = silicon_setup();
        let b = Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::Ref, 1))
            .masses(vec![units::mass::SI]);
        f(b).build().err()
    };
    assert!(matches!(
        build(|b| b.timestep(f64::INFINITY)),
        Some(BuildError::NonFiniteTimestep(_))
    ));
    assert!(matches!(
        build(|b| b.timestep(f64::NAN)),
        Some(BuildError::NonFiniteTimestep(_))
    ));
    assert!(matches!(
        build(|b| b.skin(f64::NAN)),
        Some(BuildError::NonFiniteSkin(_))
    ));
    assert!(matches!(
        build(|b| b.temperature(f64::NAN, 1)),
        Some(BuildError::InvalidTemperature(_))
    ));
    assert!(matches!(
        build(|b| b.temperature(-10.0, 1)),
        Some(BuildError::InvalidTemperature(_))
    ));
    assert!(matches!(
        build(|b| b.masses(vec![f64::NAN])),
        Some(BuildError::NonFiniteMass { atom_type: 0, .. })
    ));
}

#[test]
fn disarmed_dump_surfaces_as_a_report_warning() {
    // /dev/full accepts opens but fails every write flush — the dump must
    // disarm itself and surface the truncation in the report warnings.
    let Ok(dump) = XyzDump::create("/dev/full", 1, vec!["Si".into()]) else {
        eprintln!("skipping: /dev/full not available");
        return;
    };
    let (sim_box, atoms) = silicon_setup();
    let mut sim = Simulation::builder(atoms, sim_box, silicon_potential(ExecutionMode::Ref, 1))
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .observe(dump)
        .build()
        .expect("valid setup");
    let report = sim.run(20);
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("xyz dump disarmed")),
        "warnings: {:?}",
        report.warnings
    );
    let dump = sim.observer::<XyzDump>().expect("dump registered");
    assert!(dump.error().is_some());
}
