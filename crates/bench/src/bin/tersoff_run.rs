//! `tersoff-run` — the scenario batch runner, as a job-engine client.
//!
//! Loads one scenario file or every `*.json` in a directory, optionally
//! expands each scenario's declared mode×threads matrix, submits every
//! variant to one shared `JobEngine` (one runtime pool, one artifact cache
//! for the whole invocation), prints a per-variant table, and writes one
//! `BENCH_scenario_<name>.json` report per scenario (a `series` array with
//! one entry per variant).
//!
//! ```text
//! tersoff-run <scenario.json | scenarios-dir>... [--steps-cap N]
//!             [--no-matrix] [--grid X,Y,Z] [--list] [--quiet]
//!             [--keep-going] [--retries N] [--timeout-secs S] [--resume]
//!             [--jobs N] [--throughput]
//! ```
//!
//! * `--steps-cap N`    run at most N steps per variant (CI smoke runs)
//! * `--no-matrix`      ignore declared matrices, run only the base variant
//! * `--grid X,Y,Z`     run every scenario domain-decomposed over this rank
//!   grid (overrides any declared `decomposition`; `1,1,1` forces
//!   single-domain). Results are bitwise identical for any feasible grid.
//! * `--list`           print the discovered scenarios and exit
//! * `--quiet`          suppress the per-variant tables
//! * `--keep-going`     keep running the remaining variants after a failure
//! * `--retries N`      retry panicked/timed-out variants up to N extra times
//! * `--timeout-secs S` wall-clock budget per variant attempt
//! * `--resume`         resume each variant from its checkpoint file, if any
//! * `--jobs N`         engine worker lanes: how many variants run
//!   concurrently (results are bitwise independent of N)
//! * `--throughput`     submit every variant of every scenario up front,
//!   measure scenarios/hour at engine saturation, and write
//!   `BENCH_throughput.json` (implies `--keep-going`)
//!
//! Every variant runs isolated: a panic or divergence in one job is caught,
//! typed, and reported per-variant (`ok | diverged | panicked | timeout |
//! failed` in the table and report JSON) without poisoning the shared
//! worker runtime. The `TERSOFF_FAULT` environment variable
//! (`kind@step[@variant]`, e.g. `panic@5@Ref`) injects a test fault into
//! matching variants, overriding any `fault` field in the scenario files.
//!
//! Exit codes distinguish the failure classes (worst one wins, in the order
//! panic > timeout > health/drift > load) — the mapping lives in the
//! library's `BatchSeverity`:
//!
//! * `0` every variant ok, within its drift bound and property tolerances
//! * `2` usage error
//! * `3` a scenario failed to load or a variant failed to build
//! * `4` a health guard aborted a variant, a drift bound was exceeded or a
//!   measured property missed its published value
//! * `5` a variant panicked (crash)
//! * `6` a variant exceeded its wall-clock budget

use bench::write_bench_json;
use lammps_tersoff_vector::scenario::{
    measure_throughput, BatchSeverity, DecompositionSpec, FaultSpec, RunPolicy, Scenario,
    ScenarioReport, VariantStatus,
};
use md_core::jobs::{EngineConfig, JobEngine};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    paths: Vec<PathBuf>,
    steps_cap: Option<u64>,
    no_matrix: bool,
    grid: Option<[usize; 3]>,
    list: bool,
    quiet: bool,
    keep_going: bool,
    retries: u32,
    timeout_secs: Option<f64>,
    resume: bool,
    jobs: usize,
    throughput: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tersoff-run <scenario.json | dir>... [--steps-cap N] \
         [--no-matrix] [--grid X,Y,Z] [--list] [--quiet] [--keep-going] \
         [--retries N] [--timeout-secs S] [--resume] [--jobs N] \
         [--throughput]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        paths: Vec::new(),
        steps_cap: None,
        no_matrix: false,
        grid: None,
        list: false,
        quiet: false,
        keep_going: false,
        retries: 0,
        timeout_secs: None,
        resume: false,
        jobs: 1,
        throughput: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--steps-cap" => {
                out.steps_cap = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--retries" => {
                out.retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--timeout-secs" => {
                out.timeout_secs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--jobs" => {
                out.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--grid" => {
                out.grid = Some(
                    args.next()
                        .and_then(|v| parse_grid(&v))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--no-matrix" => out.no_matrix = true,
            "--list" => out.list = true,
            "--quiet" => out.quiet = true,
            "--keep-going" => out.keep_going = true,
            "--resume" => out.resume = true,
            "--throughput" => out.throughput = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            other => out.paths.push(PathBuf::from(other)),
        }
    }
    if out.paths.is_empty() {
        usage();
    }
    out
}

/// Parse `--grid X,Y,Z` (each entry a positive rank count).
fn parse_grid(text: &str) -> Option<[usize; 3]> {
    let parts: Vec<usize> = text
        .split(',')
        .map(|t| t.trim().parse().ok().filter(|&g: &usize| g > 0))
        .collect::<Option<_>>()?;
    let [x, y, z] = parts.as_slice() else {
        return None;
    };
    Some([*x, *y, *z])
}

/// Print the per-variant table plus the engine/backend facts for one
/// executed scenario.
fn print_report(outcome: &ScenarioReport) {
    println!(
        "    vektor backend: {} ({}-granular dispatch, {} build)",
        outcome.executed_backend, outcome.dispatch_granularity, outcome.compiled_isa
    );
    println!(
        "    {:<20} {:>8} {:>9} {:>14} {:>12} {:>10} {:>10}",
        "variant", "threads", "status", "s/step", "ns/day", "rebuilds", "drift"
    );
    for v in &outcome.variants {
        match &v.report {
            Some(report) => println!(
                "    {:<20} {:>8} {:>9} {:>14.6} {:>12.3} {:>10} {:>10.2e}",
                v.label,
                v.resolved_threads,
                v.status.name(),
                report.seconds_per_step(),
                report.ns_per_day,
                report.total_rebuilds,
                report.max_drift
            ),
            None => println!(
                "    {:<20} {:>8} {:>9} {:>14} {:>12} {:>10} {:>10}",
                v.label,
                v.resolved_threads,
                v.status.name(),
                "-",
                "-",
                "-",
                "-"
            ),
        }
        if let Some(step) = v.resumed_from {
            println!("    {:<20}   resumed from checkpoint step {step}", "");
        }
        if let Some(d) = &v.decomposition {
            println!(
                "    {:<20}   {}x{}x{} ranks: {} migrated, ghost {:.3}, comm {:.1}%",
                "",
                d.grid[0],
                d.grid[1],
                d.grid[2],
                d.migrations,
                d.ghost_fraction,
                100.0 * d.comm_fraction
            );
        }
        for w in &v.warnings {
            println!("    {:<20}   warning: {w}", "");
        }
        if let Some(p) = &v.properties {
            if let Some(e) = &p.elastic {
                let fmt = |c: Option<f64>| match c {
                    Some(v) => format!("{v:.1}"),
                    None => "-".to_string(),
                };
                println!(
                    "    {:<20}   a0 {:.4} A, E_coh {:.4} eV, C11 {} C12 {} C44 {} GPa",
                    "",
                    e.lattice_a,
                    e.cohesive_ev,
                    fmt(e.c11_gpa),
                    fmt(e.c12_gpa),
                    fmt(e.c44_gpa)
                );
            }
            for c in &p.checks {
                println!(
                    "    {:<20}   check {}: measured {:.4} vs published {:.4} ({:.2}% off) {}",
                    "",
                    c.name,
                    c.measured,
                    c.expected,
                    c.rel_err_pct,
                    if c.ok { "ok" } else { "FAIL" }
                );
            }
        }
    }
}

/// Fold one executed scenario into the invocation's severity and failure
/// count, surface its errors and drift violations, and write its
/// `BENCH_scenario_<name>.json` report.
fn account_and_write(
    outcome: &ScenarioReport,
    quiet: bool,
    severity: &mut BatchSeverity,
    failures: &mut usize,
) {
    let name = &outcome.scenario.name;
    for v in &outcome.variants {
        severity.record(v.status);
        if v.status != VariantStatus::Ok {
            *failures += 1;
            if let Some(error) = &v.error {
                eprintln!("tersoff-run: {name}: {error}");
            }
        }
    }
    for violation in outcome.drift_violations() {
        eprintln!("tersoff-run: {name}: DRIFT VIOLATION: {violation}");
        severity.record_drift_violation();
        *failures += 1;
    }
    for violation in outcome.property_violations() {
        eprintln!("tersoff-run: {name}: PROPERTY CHECK FAILED: {violation}");
        severity.record_drift_violation();
        *failures += 1;
    }
    let report_name = format!("scenario_{name}");
    match write_bench_json(&report_name, &outcome.to_report_json()) {
        Ok(out_path) => {
            if !quiet {
                println!("    wrote {out_path}");
            }
        }
        Err(e) => {
            eprintln!("tersoff-run: {name}: cannot write report: {e}");
            severity.record_load_failure();
            *failures += 1;
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let fault_override = match std::env::var("TERSOFF_FAULT") {
        Err(_) => None,
        Ok(text) => match FaultSpec::parse_env(&text) {
            Ok(spec) => {
                eprintln!("tersoff-run: TERSOFF_FAULT injecting {text}");
                Some(spec)
            }
            Err(e) => {
                eprintln!("tersoff-run: invalid TERSOFF_FAULT: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let policy = RunPolicy {
        jobs: args.jobs,
        steps_cap: args.steps_cap,
        retries: args.retries,
        // Throughput measurement is a whole-batch rate: one failed variant
        // must not starve the rest of the queue.
        keep_going: args.keep_going || args.throughput,
        timeout: args.timeout_secs.map(Duration::from_secs_f64),
        fault_override,
        resume: args.resume,
    };

    let mut severity = BatchSeverity::new();
    let mut failures = 0usize;

    let mut scenarios: Vec<(PathBuf, Scenario)> = Vec::new();
    for path in &args.paths {
        match Scenario::discover(path) {
            Ok(found) if found.is_empty() => {
                eprintln!("tersoff-run: {}: no *.json scenarios found", path.display());
                severity.record_load_failure();
                failures += 1;
            }
            Ok(found) => scenarios.extend(found),
            Err(e) => {
                eprintln!("tersoff-run: {e}");
                severity.record_load_failure();
                failures += 1;
            }
        }
    }
    if args.no_matrix {
        for (_, s) in &mut scenarios {
            s.matrix = None;
        }
    }
    if let Some(grid) = args.grid {
        // `--grid 1,1,1` strips declared decompositions (single-domain);
        // anything else decomposes every scenario over that rank grid.
        let spec = (grid != [1, 1, 1]).then_some(DecompositionSpec { grid });
        for (_, s) in &mut scenarios {
            s.decomposition = spec;
        }
    }

    if args.list {
        for (path, s) in &scenarios {
            println!(
                "{:<28} {:>7} atoms {:>8} steps {:>3} variants  {}  [{}]",
                s.name,
                s.n_atoms(),
                s.run.steps,
                s.variants().len(),
                s.description,
                path.display()
            );
        }
        return ExitCode::from(severity.exit_code());
    }

    // One engine for the whole invocation: the runtime pool and artifact
    // cache are shared across scenarios, so a repeated lattice or parameter
    // set is only prepared once.
    let engine = JobEngine::new(EngineConfig {
        workers: args.jobs,
        ..EngineConfig::default()
    });

    if args.throughput {
        let (summary, reports) = match measure_throughput(&scenarios, &engine, &policy) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("tersoff-run: {e}");
                severity.record_load_failure();
                return ExitCode::from(severity.exit_code());
            }
        };
        for (path, outcome) in &reports {
            if !args.quiet {
                println!("=== {} ({}) ===", outcome.scenario.name, path.display());
                print_report(outcome);
            }
            account_and_write(outcome, args.quiet, &mut severity, &mut failures);
            if !args.quiet {
                println!();
            }
        }
        match write_bench_json("throughput", &summary.to_report_json()) {
            Ok(out_path) => println!("wrote {out_path}"),
            Err(e) => {
                eprintln!("tersoff-run: cannot write throughput report: {e}");
                severity.record_load_failure();
                failures += 1;
            }
        }
        println!(
            "{} scenario(s), {} variant(s) in {:.2} s at --jobs {}: \
             {:.1} scenarios/hour, {:.1} variants/hour \
             ({} cache hits, {} misses), {failures} failure(s).",
            summary.scenarios,
            summary.variants,
            summary.wall_seconds,
            summary.jobs,
            summary.scenarios_per_hour,
            summary.variants_per_hour,
            summary.engine.cache.hits,
            summary.engine.cache.misses,
        );
        return ExitCode::from(severity.exit_code());
    }

    for (path, scenario) in &scenarios {
        if !args.quiet {
            println!("=== {} ({}) ===", scenario.name, path.display());
            if !scenario.description.is_empty() {
                println!("    {}", scenario.description);
            }
            println!(
                "    {} atoms, {} steps{}, {} variant(s)",
                scenario.n_atoms(),
                scenario.run.steps,
                match args.steps_cap {
                    Some(cap) if cap < scenario.run.steps => format!(" (capped to {cap})"),
                    _ => String::new(),
                },
                scenario.variants().len()
            );
        }

        let outcome = match scenario.execute_on(&engine, &policy) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tersoff-run: {}: {e}", scenario.name);
                severity.record_load_failure();
                failures += 1;
                continue;
            }
        };

        if !args.quiet {
            print_report(&outcome);
        }
        account_and_write(&outcome, args.quiet, &mut severity, &mut failures);
        if !args.quiet {
            println!();
        }
    }

    let stats = engine.stats_snapshot();
    println!(
        "{} scenario(s) executed at --jobs {} ({} runtime(s) pooled, \
         {} cache hits, {} misses), {failures} failure(s).",
        scenarios.len(),
        stats.workers,
        stats.runtimes_created,
        stats.cache.hits,
        stats.cache.misses,
    );
    ExitCode::from(severity.exit_code())
}
