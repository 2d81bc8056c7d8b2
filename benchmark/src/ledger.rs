//! `perf run` and `perf aa`: every workload in a child process of its
//! own, bracketed by the calibration spin, and the tables of what they
//! reported.

use crate::spec::{self, Better};
use crate::stats::{calibrate, calibration_shift, DISTURBED_SHIFT};
use lammps_tersoff_vector::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

pub const DEFAULT_SEED: u64 = 2024;

/// One child run as the parent keeps it.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    /// The parent's calibration pair around the whole child.
    calib_ms: (f64, f64),
}

impl ChildRun {
    fn disturbed(&self) -> bool {
        calibration_shift(self.calib_ms.0, self.calib_ms.1) > DISTURBED_SHIFT
    }
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["bench", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let before = calibrate();
    let output = command
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let after = calibrate();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: no result ({})", output.status))?;
    let result = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{workload}: result without {key:?}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or_else(|| format!("{workload}: metrics is not an object"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        correct: field("correct")? == &Json::Bool(true) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
        calib_ms: (before, after),
    })
}

/// One pass over every workload. (A child that finds its own calibration
/// pair moved runs its workload again itself; the parent's pair around
/// the whole child is what the tables show.)
fn pass(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Vec<ChildRun>, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| {
            eprintln!(
                "perf: {} ({})",
                w.name,
                if trace { "traced" } else { "untraced" }
            );
            run_child(w.name, seed, seconds, trace, smoke)
        })
        .collect()
}

/// `| metric | unit | <workload>... |` rows for the given metric names.
fn table<'a>(rows: impl Iterator<Item = (&'a str, &'a str)>, runs: &[ChildRun]) -> String {
    let mut out = String::from("| metric | unit |");
    for w in &spec::WORKLOADS {
        out.push_str(&format!(" {} |", w.name));
    }
    out.push_str("\n|---|---|");
    out.push_str(&"---:|".repeat(spec::WORKLOADS.len()));
    out.push('\n');
    for (name, unit) in rows {
        out.push_str(&format!("| `{name}` | {unit} |"));
        for run in runs {
            match run.metrics.get(name) {
                Some(v) => out.push_str(&format!(" {} |", short(*v))),
                None => out.push_str(" - |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Four significant digits: enough to read, short enough for a table.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 {
        format!("{v}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    }
}

fn status_rows(runs: &[ChildRun]) -> String {
    let mut out = String::new();
    for (label, cell) in [
        (
            "correct",
            &(|r: &ChildRun| r.correct.to_string()) as &dyn Fn(&ChildRun) -> String,
        ),
        ("attempted", &|r| short(r.attempted)),
        ("failed", &|r| short(r.failed)),
        ("failed_share", &|r| short(r.failed / r.attempted.max(1.0))),
        ("host.calib_ms before", &|r| short(r.calib_ms.0)),
        ("host.calib_ms after", &|r| short(r.calib_ms.1)),
        ("disturbed", &|r| r.disturbed().to_string()),
    ] {
        out.push_str(&format!("| {label} | |"));
        for run in runs {
            out.push_str(&format!(" {} |", cell(run)));
        }
        out.push('\n');
    }
    out
}

pub fn run(seed: u64, seconds: f64, smoke: bool) -> Result<ExitCode, String> {
    let host = crate::fingerprint();
    let untraced = pass(seed, seconds, false, smoke)?;
    let traced = pass(seed, seconds, true, smoke)?;

    println!(
        "# Tersoff ledger: seed {seed}, {seconds} s per run{}\n",
        if smoke { ", SMOKE" } else { "" }
    );
    println!("host: {}\n", host.compact());
    println!("## End to end (untraced pass)\n");
    print!(
        "{}",
        table(spec::END_TO_END.iter().map(|m| (m.name, m.unit)), &untraced)
    );
    print!("{}", status_rows(&untraced));
    println!("\n## Per layer (traced pass; 0 = the workload does not exercise the layer)\n");
    print!(
        "{}",
        table(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)), &traced)
    );
    print!("{}", status_rows(&traced));
    println!("\n## Interaction table (everywhere else the prediction is no change)\n");
    println!("| metrics | repo module | should move | on |");
    println!("|---|---|---|---|");
    for layer in &spec::LAYERS {
        let list = |items: &[&str]| match items {
            [] => "nothing (recorded as a baseline)".to_string(),
            _ => items.join(", "),
        };
        println!(
            "| `{}.*` | {} | {} | {} |",
            layer.prefix,
            layer.module,
            list(layer.moves),
            list(layer.on)
        );
    }

    let all_correct = untraced.iter().chain(&traced).all(|r| r.correct);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// By how much of `first` the metric got worse in `second` (negative:
/// better), in the direction the metric is judged in.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn aa(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let host = crate::fingerprint();
    let first = pass(seed, seconds, false, false)?;
    let second = pass(seed, seconds, false, false)?;
    println!("# A/A: the untraced set twice on one commit (seed {seed}, {seconds} s per run)\n");
    println!("host: {}\n", host.compact());
    println!("Worsening is the second run against the first, in the direction the metric is judged in (negative: better). A metric breaches when the two differ, in either direction, by more than its bound.\n");
    println!("| workload | metric | first | second | worsening | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut breaches = 0;
    for ((w, a), b) in spec::WORKLOADS.iter().zip(&first).zip(&second) {
        for m in &spec::END_TO_END {
            let (Some(&x), Some(&y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                return Err(format!("{}: {} missing from a run", w.name, m.name));
            };
            let change = worsening(m.better, x, y);
            let breach = change.abs() > m.bound;
            breaches += usize::from(breach);
            println!(
                "| {} | `{}` | {} | {} | {:+.1}% | {:.0}% | {} |",
                w.name,
                m.name,
                short(x),
                short(y),
                100.0 * change,
                100.0 * m.bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
        if !(a.correct && b.correct) {
            breaches += 1;
            println!(
                "| {} | correct | {} | {} | | | BREACH |",
                w.name, a.correct, b.correct
            );
        }
    }
    println!("\n{breaches} breach(es).");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn short_keeps_four_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(12.3456), "12.35");
        assert_eq!(short(0.75012), "0.7501");
        assert_eq!(short(32768.0), "32768");
        assert_eq!(short(2.5e7), "2.500e7");
    }
}
