//! The benchmark's contract as data: the workloads and why each exists,
//! the end-to-end metrics with their regression bounds, the per-layer
//! metrics, and the interaction table that says which end-to-end metric
//! each layer should move on which workload. `BENCHMARK.json` at the repo
//! root is this module rendered by `perf manifest`; a unit test holds the
//! two equal.

use lammps_tersoff_vector::json::{obj, Json};

/// How long one contract run (`perf bench`) measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The driver's command: it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "perf",
    "--",
    "bench",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters: the layer mix that makes this
    /// workload worth its run time.
    pub why: &'static str,
}

pub const SI32K_OPTM: &str = "si32k_optm_1t";
pub const SI32K_REF: &str = "si32k_ref_1t";
pub const SIC8K_HOT: &str = "sic8k_hot_optd_1t";
pub const SI32K_DOM4: &str = "si32k_dom4_optm_1t";
pub const SERVE: &str = "serve_small_jobs";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: SI32K_OPTM,
        why: "Paper headline: 32768 Si atoms, Opt-M scheme 1b f32x16, 1 thread; the vector kernel and vektor math are >=90% of the step, so kernel work must show here.",
    },
    Workload {
        name: SI32K_REF,
        why: "Same system in Ref mode, the plain single-thread baseline: kernel vectorisation predicts no change here, md_core changes move both.",
    },
    Workload {
        name: SIC8K_HOT,
        why: "8000 SiC atoms at 2500 K, Opt-D scheme 1a f64, 0.15 A skin: multi-species parameter gather, double precision and a neighbor rebuild every few steps.",
    },
    Workload {
        name: SI32K_DOM4,
        why: "si32k_optm_1t on a 2x2x1 rank grid on one thread: the only workload where md_core.domain (halo refresh, migration, per-rank lists) does work.",
    },
    Workload {
        name: SERVE,
        why: "Closed loop, 2 clients, 64-atom 20-step jobs over loopback HTTP: server, json, scenario and job-engine overhead dominate the ~2 ms of kernel time.",
    },
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const ATOM_STEPS_PER_S: &str = "atom_steps_per_s";
pub const OP_MS_P50: &str = "op_ms_p50";
pub const OP_MS_P90: &str = "op_ms_p90";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every workload reports every one of these. One *operation* is a
/// timestep on the MD workloads and a job (submit sent to report body
/// received) on `serve_small_jobs`; `atom_steps_per_s` counts the
/// atom-steps of completed jobs there, so it is `jobs/s x 64 x 20`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: ATOM_STEPS_PER_S,
        unit: "atom-steps/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: OP_MS_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: OP_MS_P90,
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const MD: [&str; 4] = [SI32K_OPTM, SI32K_REF, SIC8K_HOT, SI32K_DOM4];
const THROUGHPUT: [&str; 2] = [ATOM_STEPS_PER_S, OP_MS_P50];

/// One row of the interaction table: the repo module a metric prefix
/// measures, which end-to-end metrics it should move and on which
/// workloads. On every other workload the prediction is *no change*.
pub struct Layer {
    /// Metric-name prefix (`tersoff` owns `tersoff.*`).
    pub prefix: &'static str,
    /// The repo module measured.
    pub module: &'static str,
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
}

pub const LAYERS: [Layer; 14] = [
    Layer {
        prefix: "vektor",
        module: "vektor",
        moves: &THROUGHPUT,
        on: &[SI32K_OPTM, SI32K_DOM4, SIC8K_HOT],
    },
    Layer {
        prefix: "tersoff",
        module: "tersoff",
        moves: &THROUGHPUT,
        on: &MD,
    },
    Layer {
        prefix: "neighbor",
        module: "md_core.neighbor",
        moves: &[ATOM_STEPS_PER_S, OP_MS_P90, SETUP_S],
        on: &[SIC8K_HOT],
    },
    Layer {
        prefix: "force_engine",
        module: "md_core.force_engine",
        moves: &THROUGHPUT,
        on: &MD,
    },
    Layer {
        prefix: "integrate",
        module: "md_core.integrate",
        moves: &THROUGHPUT,
        on: &MD,
    },
    Layer {
        prefix: "simulation",
        module: "md_core.simulation",
        moves: &[ATOM_STEPS_PER_S, OP_MS_P50, SETUP_S],
        on: &MD,
    },
    Layer {
        prefix: "domain",
        module: "md_core.domain",
        moves: &[ATOM_STEPS_PER_S, OP_MS_P50, SETUP_S],
        on: &[SI32K_DOM4],
    },
    Layer {
        prefix: "checkpoint",
        module: "md_core.checkpoint",
        moves: &[],
        on: &[],
    },
    Layer {
        prefix: "jobs",
        module: "md_core.jobs",
        moves: &[ATOM_STEPS_PER_S, OP_MS_P90],
        on: &[SERVE],
    },
    Layer {
        prefix: "scenario",
        module: "scenario",
        moves: &THROUGHPUT,
        on: &[SERVE],
    },
    Layer {
        prefix: "json",
        module: "json",
        moves: &[OP_MS_P50],
        on: &[SERVE],
    },
    Layer {
        prefix: "server",
        module: "server",
        moves: &[ATOM_STEPS_PER_S, OP_MS_P50, OP_MS_P90, SETUP_S],
        on: &[SERVE],
    },
    // The benchmark's own two rows: what tracing costs and how quiet the
    // host was. Neither is a layer of the repo; neither moves anything.
    Layer {
        prefix: "trace",
        module: "benchmark",
        moves: &[],
        on: &[],
    },
    Layer {
        prefix: "host",
        module: "benchmark",
        moves: &[],
        on: &[],
    },
];

/// The interaction-table row of a per-layer metric: the layer whose
/// prefix is the part of the name before the first dot.
pub fn layer_of(metric: &str) -> Option<&'static Layer> {
    let prefix = metric.split('.').next()?;
    LAYERS.iter().find(|l| l.prefix == prefix)
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The mode x scheme kernels timed on `si32k_optm_1t`'s step-0 state,
/// as the suffix of `tersoff.force_ms.<suffix>`.
pub const KERNEL_ROW: [&str; 6] = ["ref", "optd_1a", "opts_1b", "optm_1a", "optm_1b", "optm_1c"];

/// Every traced run reports every one of these; a metric whose layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [LayerMetric; 81] = [
    lower("vektor.exp_ns_per_lane.f32x16", "ns/lane"),
    lower("vektor.exp_ns_per_lane.f64x4", "ns/lane"),
    lower("vektor.sincos_ns_per_lane.f32x16", "ns/lane"),
    lower("vektor.sincos_ns_per_lane.f64x4", "ns/lane"),
    lower("vektor.powf_ns_per_lane.f32x16", "ns/lane"),
    lower("vektor.powf_ns_per_lane.f64x4", "ns/lane"),
    lower("vektor.rsqrt_ns_per_lane.f32x16", "ns/lane"),
    lower("vektor.gather_ns_per_lane.f32x16", "ns/lane"),
    lower("vektor.scatter_add_ns_per_lane.f32x16", "ns/lane"),
    lower("tersoff.force_ms", "ms"),
    lower("tersoff.ns_per_pair", "ns"),
    lower("tersoff.ns_per_triple", "ns"),
    lower("tersoff.pairs", "count"),
    lower("tersoff.triples", "count"),
    higher("tersoff.list_useful_ratio", "ratio"),
    higher("tersoff.pair_lane_occupancy", "ratio"),
    higher("tersoff.k_lane_occupancy", "ratio"),
    lower("tersoff.force_share", "ratio"),
    lower("tersoff.force_max_rel_err_vs_ref", "ratio"),
    lower("tersoff.force_ms.ref", "ms"),
    lower("tersoff.force_ms.optd_1a", "ms"),
    lower("tersoff.force_ms.opts_1b", "ms"),
    lower("tersoff.force_ms.optm_1a", "ms"),
    lower("tersoff.force_ms.optm_1b", "ms"),
    lower("tersoff.force_ms.optm_1c", "ms"),
    higher("tersoff.optm_over_ref", "ratio"),
    lower("neighbor.build_ms", "ms"),
    lower("neighbor.check_us", "us"),
    lower("neighbor.entries_per_atom", "count"),
    lower("neighbor.rebuilds", "count"),
    higher("neighbor.steps_per_rebuild", "count"),
    lower("neighbor.time_share", "ratio"),
    lower("force_engine.tax_ratio", "ratio"),
    higher("force_engine.speedup_2t", "ratio"),
    lower("integrate.ns_per_atom", "ns/atom"),
    lower("integrate.time_share", "ratio"),
    lower("simulation.steps", "count"),
    lower("simulation.step_ms_p95", "ms"),
    lower("simulation.build_ms", "ms"),
    lower("simulation.stage_share.force", "ratio"),
    lower("simulation.stage_share.neighbor", "ratio"),
    lower("simulation.stage_share.integrate", "ratio"),
    lower("simulation.stage_share.comm", "ratio"),
    lower("simulation.stage_share.other", "ratio"),
    lower("simulation.unattributed_share", "ratio"),
    lower("simulation.energy_drift_rel", "ratio"),
    lower("domain.step_overhead_ratio", "ratio"),
    lower("domain.build_ms", "ms"),
    lower("domain.ghost_fraction", "ratio"),
    lower("domain.migrations", "count"),
    lower("domain.rank_imbalance", "ratio"),
    lower("domain.halo_bytes_per_step_computed", "bytes"),
    lower("checkpoint.to_json_ms", "ms"),
    lower("checkpoint.from_json_ms", "ms"),
    lower("checkpoint.bytes", "bytes"),
    lower("jobs.completed", "count"),
    lower("jobs.noop_us_per_job", "us"),
    lower("jobs.queue_wait_ms_p50", "ms"),
    higher("jobs.cache_hit_ratio", "ratio"),
    lower("jobs.runtimes_created", "count"),
    lower("jobs.faulted", "count"),
    lower("jobs.cancelled", "count"),
    lower("scenario.parse_us", "us"),
    lower("scenario.build_ms", "ms"),
    lower("scenario.report_json_us", "us"),
    lower("scenario.execute_over_bare_ratio", "ratio"),
    higher("json.parse_mb_per_s", "MB/s"),
    higher("json.write_mb_per_s", "MB/s"),
    lower("server.healthz_ms_p50", "ms"),
    lower("server.healthz_ms_p95", "ms"),
    lower("server.submit_ms_p50", "ms"),
    lower("server.first_event_ms_p50", "ms"),
    lower("server.events_to_done_ms_p50", "ms"),
    lower("server.report_get_ms_p50", "ms"),
    lower("server.metrics_scrape_ms_p50", "ms"),
    lower("server.http_requests", "count"),
    lower("server.rejected", "count"),
    lower("server.overhead_ms_per_job", "ms"),
    higher("trace.overhead_ratio", "ratio"),
    lower("host.calib_ms", "ms"),
    lower("host.calib_shift", "ratio"),
];

/// `BENCHMARK.json` as the driver reads it.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.name().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.name().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn every_layer_metric_has_an_interaction_table_row() {
        for m in &PER_LAYER {
            let layer = layer_of(m.name).unwrap_or_else(|| panic!("{} has no layer", m.name));
            for moved in layer.moves {
                assert!(END_TO_END.iter().any(|e| e.name == *moved), "{moved}");
            }
            for on in layer.on {
                assert!(WORKLOADS.iter().any(|w| w.name == *on), "{on}");
            }
            assert_eq!(layer.moves.is_empty(), layer.on.is_empty(), "{}", m.name);
        }
        for layer in &LAYERS {
            assert!(
                PER_LAYER.iter().any(|m| m.name.starts_with(layer.prefix)),
                "layer {} has no metric",
                layer.prefix
            );
        }
        for suffix in KERNEL_ROW {
            let name = format!("tersoff.force_ms.{suffix}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_is_this_module_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = lammps_tersoff_vector::json::parse(&text).expect("valid JSON");
        // Not assert_eq: the two documents would fill the screen.
        assert!(
            on_disk == manifest(),
            "BENCHMARK.json is stale: regenerate it with `perf manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
