//! The scenario layer's cross-crate guarantees:
//!
//! * spec files round-trip through JSON without loss,
//! * the enum names (`ExecutionMode`, `Scheme`, `BackendImpl`) round-trip
//!   through `Display`/`FromStr` (they are the vocabulary of the spec files),
//! * **golden equivalence** — executing a scenario produces a thermo trace
//!   bitwise identical to the equivalent hand-built `SimulationBuilder` run,
//!   so the declarative layer can never drift from the programmatic API,
//! * the shipped `scenarios/` specs all load, declare drift bounds, and
//!   (briefly) run — the same contract the CI smoke job enforces at longer
//!   step counts via `tersoff-run`.

use lammps_tersoff_vector::prelude::*;
use lammps_tersoff_vector::scenario::{
    LatticeSpec, MatrixSpec, ParamSet, PotentialSpec, RunSpec, Scenario, SystemSpec, Variant,
};
use std::path::Path;
use tersoff::driver::BackendImpl;

fn sample_scenario() -> Scenario {
    Scenario {
        name: "golden".into(),
        description: "builder-equivalence fixture".into(),
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
            steps: 30,
            thermo_every: 5,
        },
        dump: None,
        decomposition: None,
        matrix: None,
        max_drift: Some(1e-3),
        health: None,
        checkpoint: None,
        fault: None,
        properties: None,
    }
}

#[test]
fn scenario_round_trips_through_serde_json() {
    let s = sample_scenario();
    let text = s.to_json();
    assert_eq!(Scenario::from_json(&text).unwrap(), s);

    // With matrix and without optional fields.
    let mut with_matrix = s.clone();
    with_matrix.matrix = Some(MatrixSpec {
        modes: vec![ExecutionMode::Ref, ExecutionMode::OptD],
        threads: vec![1, 4],
    });
    with_matrix.max_drift = None;
    let back = Scenario::from_json(&with_matrix.to_json()).unwrap();
    assert_eq!(back, with_matrix);
    assert_eq!(back.variants().len(), 4);
}

#[test]
fn enum_labels_round_trip_through_from_str() {
    for mode in ExecutionMode::ALL {
        assert_eq!(mode.label().parse::<ExecutionMode>().unwrap(), mode);
        assert_eq!(format!("{mode}"), mode.label());
    }
    for scheme in Scheme::ALL {
        assert_eq!(scheme.label().parse::<Scheme>().unwrap(), scheme);
        assert_eq!(format!("{scheme}"), scheme.label());
    }
    for backend in BackendImpl::ALL {
        assert_eq!(backend.name().parse::<BackendImpl>().unwrap(), backend);
        assert_eq!(format!("{backend}"), backend.name());
    }
    assert!("nope".parse::<ExecutionMode>().is_err());
    assert!("nope".parse::<Scheme>().is_err());
    assert!("nope".parse::<BackendImpl>().is_err());
}

/// The golden test: a `tersoff-run` scenario execution must be bitwise
/// identical to the equivalent hand-built `SimulationBuilder` run — same
/// lattice, same seeds, same kernel, same threaded engine.
#[test]
fn scenario_execution_is_bitwise_identical_to_hand_built_run() {
    let scenario = sample_scenario();

    // The declarative path (what `tersoff-run` does).
    let outcome = scenario.execute(None).expect("scenario runs");
    let scenario_trace: Vec<(u64, u64, u64)> = outcome.variants[0]
        .trace
        .iter()
        .map(|t| (t.step, t.potential.to_bits(), t.total.to_bits()))
        .collect();

    // The hand-built path: everything assembled explicitly.
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.04, 21);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode: ExecutionMode::OptM,
            scheme: Scheme::FusedLanes,
            width: 0,
            threads: 2,
            backend: None,
        },
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .timestep(0.001)
        .skin(1.0)
        .masses(vec![units::mass::SI])
        .temperature(400.0, 5)
        .thermo_every(5)
        .build()
        .expect("valid hand-built setup");
    sim.run(30);
    let hand_trace: Vec<(u64, u64, u64)> = sim
        .thermo_history()
        .iter()
        .map(|t| (t.step, t.potential.to_bits(), t.total.to_bits()))
        .collect();

    assert!(!scenario_trace.is_empty());
    assert_eq!(
        scenario_trace, hand_trace,
        "scenario execution diverged from the equivalent hand-built run"
    );
}

#[test]
fn shipped_scenarios_load_and_run_briefly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let scenarios = Scenario::discover(&dir).expect("scenarios/ loads");
    assert!(
        scenarios.len() >= 4,
        "expected the shipped scenario set, found {}",
        scenarios.len()
    );
    for (path, scenario) in scenarios {
        assert!(
            scenario.max_drift.is_some(),
            "{}: shipped scenarios must declare a drift bound for the CI smoke job",
            path.display()
        );
        // A couple of steps only — the CI smoke job runs them longer.
        let outcome = scenario
            .execute(Some(2))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(outcome.steps, 2);
        for v in &outcome.variants {
            assert!(
                v.report().final_thermo.potential < 0.0,
                "{}: {} ended unbound",
                path.display(),
                v.label
            );
        }
    }
}

/// A `properties` block rides a declarative run end to end: the observers
/// attach, the expected-value checks land in the report, and the report
/// JSON (the shape `tersoff-run` writes and `tersoff-serve` returns)
/// carries the `properties` object. Elastic constants are exercised by the
/// release-mode CI materials job; here the cheap observer + fallback
/// cohesive path keeps the debug suite fast.
#[test]
fn properties_block_attaches_observers_and_reports() {
    use lammps_tersoff_vector::scenario::{
        ExpectedProperties, PropertiesSpec, RdfSpec, StressSpec,
    };

    let mut scenario = sample_scenario();
    scenario.name = "props".into();
    scenario.max_drift = None;
    scenario.properties = Some(PropertiesSpec {
        stress: Some(StressSpec { every: 5 }),
        rdf: Some(RdfSpec {
            every: 5,
            bins: 64,
            r_max: 0.0,
        }),
        elastic: None,
        // Perturbed 400 K silicon sits near the cohesive minimum; a loose
        // tolerance keeps the check deterministic-pass without pinning a
        // thermalized energy too tightly.
        expected: Some(ExpectedProperties {
            cohesive_ev: Some(-4.63),
            lattice_a: None,
            c11_gpa: None,
            c12_gpa: None,
            c44_gpa: None,
            tolerance_pct: 5.0,
        }),
    });

    let outcome = scenario.execute(None).expect("scenario runs");
    let report = &outcome.variants[0];
    let props = report
        .properties
        .as_ref()
        .expect("full-length run measures properties");

    let stress = props.stress.as_ref().expect("stress observer attached");
    assert_eq!(stress.every, 5);
    assert!(stress.samples > 0);
    assert!(stress.time_averaged.iter().any(|&v| v != 0.0));

    let rdf = props.rdf.as_ref().expect("rdf observer attached");
    assert_eq!(rdf.bins, 64);
    assert!(rdf.r_max > 0.0, "r_max = 0 must resolve to cutoff + skin");
    assert!(rdf.samples > 0);
    assert!(rdf.g.iter().any(|&g| g > 0.0), "g(r) must see neighbors");

    assert!(props.elastic.is_none());
    let check = props
        .checks
        .iter()
        .find(|c| c.name == "cohesive_ev")
        .expect("expected block generates a cohesive check");
    assert!(check.ok, "cohesive check failed: {check:?}");
    assert!(outcome.property_violations().is_empty());

    let json = outcome.to_report_json();
    for key in ["\"properties\"", "\"stress_bar\"", "\"rdf\"", "\"checks\""] {
        assert!(json.contains(key), "report JSON missing {key}");
    }

    // A step-capped smoke run of the same spec must SKIP the measurement:
    // the capped trace is not the declared experiment.
    let capped = scenario.execute(Some(5)).expect("capped run");
    assert!(capped.variants[0].properties.is_none());
}

#[test]
fn integers_the_json_number_has_rounded_are_a_parse_error_naming_the_key() {
    // 2^53 + 1 reaches the spec as the f64 2^53: seed …992 would run for a
    // file that says …993.
    let (small, rounded) = ("_seed\": 5\n", "_seed\": 9007199254740993\n");
    let text = sample_scenario().to_json().replace(small, rounded);
    let err = Scenario::from_json(&text).unwrap_err().to_string();
    assert!(
        err.contains("system.velocity_seed must be an integer"),
        "{err}"
    );
}

#[test]
fn scenario_variant_options_match_the_spec() {
    let scenario = sample_scenario();
    let options = scenario.options_for(Variant {
        mode: ExecutionMode::OptD,
        threads: 4,
    });
    assert_eq!(options.mode, ExecutionMode::OptD);
    assert_eq!(options.scheme, Scheme::FusedLanes);
    assert_eq!(options.threads, 4);
    assert_eq!(options.label(), "Opt-D/1b/w8/t4");
}

#[test]
fn unsupported_width_is_a_load_error_naming_the_supported_widths() {
    let load = |edit: &dyn Fn(&mut Scenario)| {
        let mut scenario = sample_scenario();
        edit(&mut scenario);
        Scenario::from_json(&scenario.to_json())
    };

    // Opt-M/1b exists at 16 lanes only.
    let err = load(&|s| s.potential.width = 7).unwrap_err().to_string();
    assert!(
        err.contains("potential.width: unsupported vector width 7 for Opt-M/1b")
            && err.contains("supported: 16"),
        "{err}"
    );
    assert!(load(&|s| s.potential.width = 16).is_ok());

    // Opt-M/1a exists at 8 lanes only.
    let err = load(&|s| {
        s.potential.scheme = Scheme::JLanes;
        s.potential.width = 16;
    })
    .unwrap_err()
    .to_string();
    assert!(
        err.contains(
            "potential.width: unsupported vector width 16 for Opt-M/1a (supported: 8; 0 selects"
        ),
        "{err}"
    );

    // The supported widths differ by mode, so every matrix variant is
    // checked: 1a has 4 lanes in double precision and 8 in mixed, so no
    // explicit width fits the whole matrix.
    let matrix = |s: &mut Scenario| {
        s.potential.mode = ExecutionMode::OptD;
        s.potential.scheme = Scheme::JLanes;
        s.matrix = Some(MatrixSpec {
            modes: vec![ExecutionMode::Ref, ExecutionMode::OptD, ExecutionMode::OptM],
            threads: vec![1, 2],
        });
    };
    let err = load(&|s| {
        matrix(s);
        s.potential.width = 4;
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("width 4 for Opt-M/1a (supported: 8;"), "{err}");
    for width in [8, 16] {
        let err = load(&|s| {
            matrix(s);
            s.potential.width = width;
        })
        .unwrap_err()
        .to_string();
        assert!(
            err.contains(&format!("width {width} for Opt-D/1a (supported: 4;")),
            "{err}"
        );
    }
    assert!(load(&|s| {
        matrix(s);
        s.potential.width = 0;
    })
    .is_ok());
}
