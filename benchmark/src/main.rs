//! `perf`: the layered performance ledger of lammps-tersoff-vector.
//!
//! ```text
//! perf bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object the driver reads (see BENCHMARK.json)
//! perf run [--seed <n>] [--seconds <s>] [--smoke]
//!     every workload in a child process of its own, untraced then traced;
//!     prints the end-to-end and per-layer tables
//! perf aa [--seed <n>] [--seconds <s>]
//!     the untraced set twice; fails if any metric moved past its bound
//! perf manifest
//!     BENCHMARK.json, rendered from `spec.rs`
//! ```
//!
//! Nothing here instruments the product: every layer is timed from
//! outside, through its public functions.

mod ledger;
mod md;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;

use lammps_tersoff_vector::json::{obj, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The arguments of one workload run.
pub struct BenchArgs {
    pub workload: String,
    pub seed: u64,
    /// The timed section lasts at least this long (and at least the
    /// workload's minimum operation count).
    pub seconds: f64,
    pub trace: bool,
    /// 2³-cell systems, minimum operation counts only: a check that the
    /// benchmark runs, not a measurement.
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations started: steps, or jobs.
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty when every output was right.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// What a traced run recorded.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// The host facts every output carries: results from different hosts,
/// toolchains or vector back ends are not comparable.
pub fn fingerprint() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "vektor_backend",
            Json::Str(vektor::dispatch::default_backend().name().into()),
        ),
        (
            "compiled_isa",
            Json::Str(vektor::dispatch::compiled_isa().into()),
        ),
        ("rustc", Json::Str(rustc)),
    ])
}

/// Where trace files go, relative to the working directory (the root of
/// the checkout).
const OUT_DIR: &str = "benchmark/out";

/// Write a traced run's spans to `trace_<workload>.json` in [`OUT_DIR`].
fn write_trace(args: &BenchArgs, spans: &[trace::Span]) {
    let workload = &args.workload;
    let Json::Obj(mut doc) = trace::to_json(workload, args.seed, spans) else {
        unreachable!("a trace document is an object");
    };
    doc.insert("host".into(), fingerprint());
    doc.insert("smoke".into(), Json::Bool(args.smoke));
    let path = format!("{}/trace_{workload}.json", OUT_DIR);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).pretty()));
    if let Err(e) = written {
        eprintln!("perf: warning: could not write {path}: {e}");
    }
}

/// The result object of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics` (plus `smoke` on a smoke run, which no driver reads).
/// An untraced run reports every end-to-end metric, a traced run every
/// per-layer metric; a layer the workload does not exercise reads 0.
fn result_line(outcome: &Outcome, args: &BenchArgs) -> Result<String, String> {
    // A layer metric must be declared and have its interaction-table row.
    let known = |name: &str| {
        spec::END_TO_END.iter().any(|m| m.name == name)
            || (spec::PER_LAYER.iter().any(|m| m.name == name) && spec::layer_of(name).is_some())
    };
    if let Some(stray) = outcome.metrics.keys().find(|name| !known(name)) {
        return Err(format!("metric {stray:?} is not in the spec tables"));
    }
    let entry = |name: &str, unit: &str, value: f64| {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let metric = obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]);
        Ok((name.to_string(), metric))
    };
    let metrics: BTreeMap<String, Json> = if args.trace {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
                entry(m.name, m.unit, value)
            })
            .collect::<Result<_, _>>()?
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let value = outcome
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                entry(m.name, m.unit, *value)
            })
            .collect::<Result<_, _>>()?
    };
    let correct = outcome.check_failures.is_empty() && outcome.failed == 0;
    let mut fields = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        // A failed check fails the whole workload.
        (
            "failed",
            Json::Num(if outcome.check_failures.is_empty() {
                outcome.failed
            } else {
                outcome.attempted.max(1)
            } as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ];
    if args.smoke {
        fields.push(("smoke", Json::Bool(true)));
    }
    Ok(obj(fields).compact())
}

fn run_workload(args: &BenchArgs) -> Result<Outcome, String> {
    if let Some(md_spec) = md::spec_for(&args.workload, args.smoke) {
        Ok(md::run(&args.workload, &md_spec, args))
    } else if args.workload == spec::SERVE {
        Ok(serve::run(args))
    } else {
        Err(format!("unknown workload {:?}", args.workload))
    }
}

fn bench(args: &BenchArgs) -> Result<ExitCode, String> {
    // The calibration pair brackets the workload. If it moved, the host
    // was disturbed while the workload ran: run it again, once, and keep
    // the second run whatever its pair says. Peak RSS stays the first
    // run's: a disturbed host does not change it, and the process's
    // watermark cannot be taken back down for the second.
    let measure = || -> Result<_, String> {
        let before = stats::calibrate();
        let outcome = run_workload(args)?;
        Ok((outcome, before, stats::calibrate()))
    };
    let (mut outcome, mut before, mut after) = measure()?;
    if stats::calibration_shift(before, after) > stats::DISTURBED_SHIFT {
        eprintln!(
            "perf: {}: calibration moved {before:.2} -> {after:.2} ms, the host was disturbed: running it again",
            args.workload
        );
        let first_peak_rss = outcome.metrics.get(spec::PEAK_RSS_MB).copied();
        (outcome, before, after) = measure()?;
        if let Some(mb) = first_peak_rss {
            outcome.put(spec::PEAK_RSS_MB, mb);
        }
    }
    if args.trace {
        outcome.put("host.calib_ms", 0.5 * (before + after));
        outcome.put("host.calib_shift", stats::calibration_shift(before, after));
        write_trace(args, &outcome.spans);
    }
    for failure in &outcome.check_failures {
        eprintln!("perf: {}: CHECK FAILED: {failure}", args.workload);
    }
    println!("{}", result_line(&outcome, args)?);
    Ok(
        if outcome.check_failures.is_empty() && outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.value(key)?
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot read {v:?}")))
            .transpose()
    }

    fn flag(&mut self, key: &str) -> bool {
        let at = self.0.iter().position(|a| a == key);
        at.map(|at| self.0.remove(at)).is_some()
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn dispatch(mut argv: Vec<String>) -> Result<ExitCode, String> {
    if argv.is_empty() {
        return Err("expected a subcommand: bench, run, aa or manifest".into());
    }
    let command = argv.remove(0);
    let mut flags = Flags(argv);
    let seed = flags.parsed("--seed")?;
    let seconds: Option<f64> = flags.parsed("--seconds")?;
    if seconds.is_some_and(|s| !(0.0..=600.0).contains(&s)) {
        return Err("--seconds must be between 0 and 600".into());
    }
    match command.as_str() {
        "bench" => {
            let args = BenchArgs {
                workload: flags.value("--workload")?.ok_or("bench needs --workload")?,
                seed: seed.ok_or("bench needs --seed")?,
                seconds: seconds.ok_or("bench needs --seconds")?,
                trace: match flags.value("--trace")?.as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("bench needs --trace 0 or --trace 1".into()),
                },
                smoke: flags.flag("--smoke"),
            };
            flags.finish()?;
            bench(&args)
        }
        "run" => {
            let smoke = flags.flag("--smoke");
            flags.finish()?;
            let seconds = seconds.unwrap_or(if smoke { 0.0 } else { spec::RUN_SECONDS as f64 });
            ledger::run(seed.unwrap_or(ledger::DEFAULT_SEED), seconds, smoke)
        }
        "aa" => {
            flags.finish()?;
            ledger::aa(
                seed.unwrap_or(ledger::DEFAULT_SEED),
                seconds.unwrap_or(spec::RUN_SECONDS as f64),
            )
        }
        "manifest" => {
            flags.finish()?;
            print!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        // No result was printed: a usage error, or a run that could not
        // produce every metric of its pass.
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_matches_root() {
        // A path dependency's profile tables are ignored, so the benchmark
        // carries a copy of the root's; they must never drift apart.
        fn release_profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let root = include_str!("../../Cargo.toml");
        let own = include_str!("../Cargo.toml");
        assert!(!release_profile(root).is_empty());
        assert_eq!(release_profile(own), release_profile(root));
    }

    #[test]
    fn result_line_reports_every_metric_of_its_pass_and_rejects_strays() {
        let mut args = BenchArgs {
            workload: spec::SI32K_OPTM.into(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: false,
        };
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.put("tersoff.force_ms", 1.5);
        let line = result_line(&outcome, &args).expect("traced line");
        let json = lammps_tersoff_vector::json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = json.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        assert_eq!(
            metrics["tersoff.force_ms"].get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            metrics["domain.migrations"].get("value").unwrap().as_f64(),
            Some(0.0)
        );

        args.trace = false;
        assert!(
            result_line(&outcome, &args).is_err(),
            "end-to-end metrics are required"
        );

        outcome.put("tersoff.not_in_the_table", 1.0);
        args.trace = true;
        assert!(result_line(&outcome, &args).is_err());
    }

    #[test]
    fn a_failed_check_fails_every_attempted_operation() {
        let args = BenchArgs {
            workload: spec::SI32K_OPTM.into(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let outcome = Outcome {
            attempted: 7,
            check_failures: vec!["drift".into()],
            ..Outcome::default()
        };
        let json =
            lammps_tersoff_vector::json::parse(&result_line(&outcome, &args).unwrap()).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").unwrap().as_f64(), Some(7.0));
        assert_eq!(json.get("smoke"), Some(&Json::Bool(true)));
    }
}
