//! `serve_small_jobs`: an in-process `tersoff-serve` on a loopback port,
//! driven by a closed loop of two clients. Each job is submitted, followed
//! on its event stream to the terminal event and fetched, so `server`,
//! `json`, `scenario` and `md_core.jobs` see three requests and one tiny
//! run per job.

use crate::probes;
use crate::spec;
use crate::stats::{self, median, percentile};
use crate::trace::Recorder;
use crate::{BenchArgs, Outcome};
use lammps_tersoff_vector::json::{self, Json};
use lammps_tersoff_vector::scenario::Scenario;
use lammps_tersoff_vector::server::{Server, ServerConfig};
use md_core::jobs::{EngineStats, JobEngine, JobEvent};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// The timed section never ends before this many jobs: ten blocks,
/// which leave `op_ms_p90` its ten samples beyond.
const MIN_JOBS: usize = 10 * stats::BLOCK;
/// Server starts per run; `setup_s` is their median. A start takes a
/// fraction of a millisecond, so it takes this many for a steady median.
const SETUP_REPS: usize = 21;
const JOB_CELLS: usize = 2;
const JOB_STEPS: u64 = 20;
/// Served jobs re-executed in process to compare energies bit for bit.
const BIT_CHECKS: usize = 16;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The spec of job `index`: the same 64-atom crystal, its own velocities.
/// Every fourth job repeats its predecessor's body verbatim.
fn job_body(seed: u64, index: usize) -> String {
    let distinct = if index % 4 == 3 { index - 1 } else { index };
    let velocity_seed = (seed % 1_000_000) * 1_000_000 + distinct as u64;
    format!(
        r#"{{"name": "bench_job_{distinct}",
  "system": {{"lattice": "silicon", "cells": [{JOB_CELLS}, {JOB_CELLS}, {JOB_CELLS}], "perturbation": 0.05,
             "lattice_seed": {lattice_seed}, "temperature": 300.0, "velocity_seed": {velocity_seed}}},
  "potential": {{"params": "silicon", "mode": "Opt-M", "scheme": "1b", "threads": 1}},
  "run": {{"timestep": 0.001, "skin": 1.0, "steps": {JOB_STEPS}, "thermo_every": 10}}}}"#,
        lattice_seed = seed % 1_000_000,
    )
}

// ---------------------------------------------------------------------------
// A minimal HTTP/1.1 client (the server answers `Connection: close`, so
// every exchange ends at EOF)
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    body: Vec<u8>,
    /// When the first body byte arrived.
    first_body_byte: Option<Instant>,
}

impl Response {
    fn json(&self) -> Option<Json> {
        json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut head_end = None;
    let mut first_body_byte = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            head_end = raw.windows(4).position(|w| w == b"\r\n\r\n");
        }
        if first_body_byte.is_none() && head_end.is_some_and(|end| raw.len() > end + 4) {
            first_body_byte = Some(Instant::now());
        }
    }
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = head_end.ok_or_else(|| bad("response without a head"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let body = &raw[head_end + 4..];
    Ok(Response {
        status,
        body: if chunked {
            decode_chunked(body).ok_or_else(|| bad("truncated chunked body"))?
        } else {
            body.to_vec()
        },
        first_body_byte,
    })
}

/// A complete chunked body: `size\r\ndata\r\n` frames up to the zero chunk.
fn decode_chunked(mut data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = data.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(std::str::from_utf8(&data[..line_end]).ok()?.trim(), 16).ok()?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Some(out);
        }
        out.extend_from_slice(data.get(..size)?);
        data = data.get(size + 2..)?;
    }
}

// ---------------------------------------------------------------------------
// One job as a client sees it
// ---------------------------------------------------------------------------

/// Timestamps of one job's three requests, and what came back.
struct JobSample {
    index: usize,
    submit_sent: Instant,
    submit_done: Instant,
    first_event: Instant,
    events_done: Instant,
    report_done: Instant,
    final_energy_bits: String,
}

impl JobSample {
    fn latency_s(&self) -> f64 {
        (self.report_done - self.submit_sent).as_secs_f64()
    }
}

/// Why a job did not complete as documented.
enum JobFailure {
    /// 429 or 503 on submit: the server shed the job.
    Rejected,
    Other(String),
}

fn run_job(addr: SocketAddr, index: usize, body: &str) -> Result<JobSample, JobFailure> {
    let io = |e: io::Error| JobFailure::Other(format!("job {index}: {e}"));
    let wrong = |what: &str, r: &Response| {
        JobFailure::Other(format!(
            "job {index}: {what} answered {} {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ))
    };
    let submit_sent = Instant::now();
    let submit = request(addr, "POST", "/v1/jobs", body.as_bytes()).map_err(io)?;
    let submit_done = Instant::now();
    match submit.status {
        202 => {}
        429 | 503 => return Err(JobFailure::Rejected),
        _ => return Err(wrong("submit", &submit)),
    }
    let id = submit
        .json()
        .as_ref()
        .and_then(|j| j.get("jobs")?.as_arr()?.first()?.get("id")?.as_u64())
        .ok_or_else(|| wrong("submit (no job id)", &submit))?;

    let events = request(addr, "GET", &format!("/v1/jobs/{id}/events"), b"").map_err(io)?;
    let events_done = Instant::now();
    let last_event = std::str::from_utf8(&events.body)
        .ok()
        .and_then(|text| json::parse(text.lines().last()?).ok());
    let finished = last_event
        .as_ref()
        .and_then(|e| e.get("event")?.as_str())
        .is_some_and(|kind| kind == "finished");
    if events.status != 200 || !finished {
        return Err(wrong("event stream", &events));
    }

    let report = request(addr, "GET", &format!("/v1/jobs/{id}"), b"").map_err(io)?;
    let report_done = Instant::now();
    let report_json = report.json();
    let result = report_json.as_ref().and_then(|j| j.get("result"));
    let ok = report.status == 200
        && result
            .and_then(|r| r.get("status")?.as_str())
            .is_some_and(|s| s == "ok");
    let bits = result.and_then(|r| r.get("final_total_energy_bits")?.as_str());
    let (true, Some(bits)) = (ok, bits) else {
        return Err(wrong("report", &report));
    };
    Ok(JobSample {
        index,
        submit_sent,
        submit_done,
        first_event: events.first_body_byte.unwrap_or(events_done),
        events_done,
        report_done,
        final_energy_bits: bits.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Set-up, the closed loop, the checks
// ---------------------------------------------------------------------------

/// Bind a one-lane server and wait for its first `200` on `/healthz`.
fn start_server() -> Result<Server, String> {
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind loopback: {e}"))?;
    match request(server.local_addr(), "GET", "/healthz", b"") {
        Ok(r) if r.status == 200 => Ok(server),
        Ok(r) => Err(format!("/healthz answered {}", r.status)),
        Err(e) => Err(format!("/healthz: {e}")),
    }
}

fn stop_server(server: Server) -> EngineStats {
    server.request_shutdown();
    server.join()
}

struct Loop {
    /// Completed jobs, in submission order.
    samples: Vec<JobSample>,
    failures: Vec<JobFailure>,
    start: Instant,
    wall_s: f64,
}

/// `CLIENTS` threads, each submitting its next job when the previous one's
/// report has arrived, until both `seconds` and `MIN_JOBS` are reached.
fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64) -> Loop {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut samples, mut failures) = (Vec::new(), Vec::new());
                    while !stop.load(Ordering::SeqCst) {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        match run_job(addr, index, &job_body(seed, index)) {
                            Ok(sample) => samples.push(sample),
                            Err(failure) => failures.push(failure),
                        }
                        if index + 1 >= MIN_JOBS && start.elapsed().as_secs_f64() >= seconds {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    (samples, failures)
                })
            })
            .collect();
        for client in clients {
            let (s, f) = client.join().expect("client thread");
            samples.extend(s);
            failures.extend(f);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    Loop {
        samples,
        failures,
        start,
        wall_s,
    }
}

/// The error contract, one request per documented failure status.
fn check_error_statuses(addr: SocketAddr, failures: &mut Vec<String>) {
    let cases: [(&str, &str, &[u8], u16); 4] = [
        ("POST", "/v1/jobs", b"{\"name\": \"x\", \"bogus\": 1}", 400),
        ("GET", "/v1/jobs/999999999", b"", 404),
        ("DELETE", "/healthz", b"", 405),
        ("GET", "/no/such/route", b"", 404),
    ];
    for (method, path, body, expected) in cases {
        match request(addr, method, path, body) {
            Ok(r) if r.status == expected => {}
            Ok(r) => failures.push(format!(
                "{method} {path} answered {}, documented {expected}",
                r.status
            )),
            Err(e) => failures.push(format!("{method} {path}: {e}")),
        }
    }
}

/// Final total energy of `body` executed in process, as the served hex.
fn in_process_bits(body: &str) -> Result<String, String> {
    let scenario = Scenario::from_json(body).map_err(|e| e.to_string())?;
    let report = scenario.execute(None).map_err(|e| e.to_string())?;
    let total = report.variants[0].report().final_thermo.total;
    Ok(format!("{:016x}", total.to_bits()))
}

fn ms_p50(samples: &[JobSample], span: impl Fn(&JobSample) -> Duration) -> f64 {
    median(
        &samples
            .iter()
            .map(|s| span(s).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

pub fn run(args: &BenchArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.trace);

    // Set-up: bind to the first healthy answer. The first server carries
    // the run; the others only repeat the measurement.
    let mut setup_s = Vec::new();
    let mut timed_server = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let server = match start_server() {
            Ok(server) => server,
            Err(e) => {
                out.check_failures.push(e);
                out.attempted = 1;
                return out;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            rec.push_measured("setup", None, 0.0, rec.epoch().elapsed().as_secs_f64());
            timed_server = Some(server);
        } else {
            stop_server(server);
        }
    }
    let server = timed_server.expect("SETUP_REPS > 0");
    let addr = server.local_addr();

    let run_start = rec.epoch().elapsed().as_secs_f64();
    let looped = closed_loop(addr, args.seed, args.seconds);
    let peak_rss_mb = stats::peak_rss_mb();
    let Loop {
        samples,
        failures,
        start: loop_start,
        wall_s,
    } = looped;

    out.attempted = (samples.len() + failures.len()) as u64;
    out.failed = failures.len() as u64;
    let mut rejected = 0;
    for failure in failures {
        match failure {
            JobFailure::Rejected => rejected += 1,
            JobFailure::Other(what) => out.check_failures.push(what),
        }
    }
    if samples.len() < MIN_JOBS {
        out.check_failures.push(format!(
            "only {} of at least {MIN_JOBS} jobs completed",
            samples.len()
        ));
        stop_server(server);
        return out;
    }

    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_s() * 1e3).collect();
    // What each completion added to the wall time, in completion order.
    let mut done_at: Vec<Instant> = samples.iter().map(|s| s.report_done).collect();
    done_at.sort();
    let between: Vec<f64> = std::iter::once(loop_start)
        .chain(done_at.iter().copied())
        .zip(&done_at)
        .map(|(prev, &done)| (done - prev).as_secs_f64())
        .collect();
    let atom_steps_per_job = (8 * JOB_CELLS.pow(3)) as f64 * JOB_STEPS as f64;
    out.put(
        spec::ATOM_STEPS_PER_S,
        atom_steps_per_job * stats::median_block_rate(&between),
    );
    out.put(spec::OP_MS_P50, median(&latency_ms));
    out.put(
        spec::OP_MS_P90,
        stats::median_block_p90(&latency_ms).expect("MIN_JOBS is ten blocks"),
    );
    out.put(spec::SETUP_S, median(&setup_s));
    if let Some(mb) = peak_rss_mb {
        out.put(spec::PEAK_RSS_MB, mb);
    }

    // Correctness: served bits equal in-process bits on a spread of jobs,
    // and the documented error statuses.
    let stride = (samples.len() / BIT_CHECKS).max(1);
    for sample in samples.iter().step_by(stride) {
        match in_process_bits(&job_body(args.seed, sample.index)) {
            Ok(bits) if bits == sample.final_energy_bits => {}
            Ok(bits) => out.check_failures.push(format!(
                "job {}: served final energy {} but in-process {bits}",
                sample.index, sample.final_energy_bits
            )),
            Err(e) => out
                .check_failures
                .push(format!("job {}: in-process run: {e}", sample.index)),
        }
    }
    check_error_statuses(addr, &mut out.check_failures);

    if args.trace {
        let epoch = rec.epoch();
        let to_epoch = |t: Instant| (t - epoch).as_secs_f64();
        let run_span = rec.push_measured("run", None, run_start, run_start + wall_s);
        for s in samples.iter().filter(|s| stats::in_recorded_block(s.index)) {
            let job = rec.push_measured(
                &format!("job[{}]", s.index),
                run_span,
                to_epoch(s.submit_sent),
                to_epoch(s.report_done),
            );
            for (name, from, to) in [
                ("http.submit", s.submit_sent, s.submit_done),
                ("http.events", s.submit_done, s.events_done),
                ("http.report", s.events_done, s.report_done),
            ] {
                rec.push_measured(name, job, to_epoch(from), to_epoch(to));
            }
        }
        // The spans are assembled from timestamps every job takes anyway,
        // so recorded and unrecorded blocks ran the same code.
        let block_p50 = |recorded: bool| {
            median(
                &samples
                    .iter()
                    .filter(|s| stats::in_recorded_block(s.index) == recorded)
                    .map(JobSample::latency_s)
                    .collect::<Vec<_>>(),
            )
        };
        out.put("trace.overhead_ratio", block_p50(false) / block_p50(true));

        out.put("jobs.completed", samples.len() as f64);
        out.put("server.rejected", rejected as f64);
        out.put(
            "server.submit_ms_p50",
            ms_p50(&samples, |s| s.submit_done - s.submit_sent),
        );
        out.put(
            "server.first_event_ms_p50",
            ms_p50(&samples, |s| s.first_event - s.submit_sent),
        );
        out.put(
            "server.events_to_done_ms_p50",
            ms_p50(&samples, |s| s.events_done - s.submit_done),
        );
        out.put(
            "server.report_get_ms_p50",
            ms_p50(&samples, |s| s.report_done - s.events_done),
        );
        server_probes(addr, &mut out);

        let job = job_body(args.seed, 0);
        probes::vektor(&mut out);
        let execute_s = probes::job_layers(&job, &mut out);
        out.put(
            "server.overhead_ms_per_job",
            median(&latency_ms) - execute_s * 1e3,
        );
        queue_wait_probe(args.seed, &mut out);
        job_md_layers(&job, median(&latency_ms) * 1e-3, &mut out);
    }

    let engine = stop_server(server);
    if args.trace {
        let lookups = (engine.cache.hits + engine.cache.misses).max(1);
        out.put(
            "jobs.cache_hit_ratio",
            engine.cache.hits as f64 / lookups as f64,
        );
        out.put("jobs.runtimes_created", engine.runtimes_created as f64);
        out.put("jobs.faulted", engine.faulted as f64);
        out.put("jobs.cancelled", engine.cancelled as f64);
        out.spans = rec.into_spans();
    }
    out
}

/// Requests against the now idle server: `/healthz` costs the accept loop
/// and the request parser and nothing else, so it is the floor under each
/// of a job's three requests.
fn server_probes(addr: SocketAddr, out: &mut Outcome) {
    let time_gets = |path: &str, n: usize| -> Vec<f64> {
        (0..n)
            .filter_map(|_| {
                let t = Instant::now();
                let r = request(addr, "GET", path, b"").ok()?;
                (r.status == 200).then(|| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    };
    let healthz = time_gets("/healthz", 200);
    if let (Some(p50), Some(p95)) = (percentile(&healthz, 50.0), percentile(&healthz, 95.0)) {
        out.put("server.healthz_ms_p50", p50);
        out.put("server.healthz_ms_p95", p95);
    }
    let scrapes = time_gets("/metrics", 21);
    if !scrapes.is_empty() {
        out.put("server.metrics_scrape_ms_p50", median(&scrapes));
    }
    let requests = request(addr, "GET", "/metrics", b"").ok().and_then(|r| {
        String::from_utf8(r.body).ok()?.lines().find_map(|l| {
            l.strip_prefix("tersoff_http_requests_total ")?
                .parse::<f64>()
                .ok()
        })
    });
    if let Some(requests) = requests {
        out.put("server.http_requests", requests);
    }
}

/// Queue wait at the jobs layer alone: the same two-client closed loop and
/// job mix on a bare one-lane `JobEngine` (the server keeps its engine
/// private), with an `EventBus` subscriber timing `Queued -> Started`.
fn queue_wait_probe(seed: u64, out: &mut Outcome) {
    const JOBS: usize = 200;
    let engine = JobEngine::with_workers(1);
    let events = engine.subscribe_with_capacity(16 * JOBS);
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= JOBS {
                    break;
                }
                let scenario = Scenario::from_json(&job_body(seed, index)).expect("parses");
                let variant = scenario.variants()[0];
                let handle = scenario
                    .submit(&engine, variant, JOB_STEPS, &Default::default())
                    .expect("open engine");
                std::hint::black_box(handle.wait());
            });
        }
        // The subscriber stamps events as they arrive, on this thread.
        let mut queued = std::collections::HashMap::new();
        let mut waits_ms = Vec::new();
        while waits_ms.len() < JOBS {
            match events.recv_timeout(IO_TIMEOUT) {
                Ok(JobEvent::Queued { job, .. }) => {
                    queued.insert(job, Instant::now());
                }
                Ok(JobEvent::Started { job, .. }) => {
                    if let Some(at) = queued.remove(&job) {
                        waits_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        if !waits_ms.is_empty() {
            out.put("jobs.queue_wait_ms_p50", median(&waits_ms));
        }
    });
    engine.shutdown();
}

/// The MD layers under one served job: the `tersoff`, `neighbor`,
/// `integrate` and `simulation` rows on the job's 64-atom system, with
/// shares taken of what the client waits for, not of the bare run.
fn job_md_layers(job: &str, latency_s: f64, out: &mut Outcome) {
    use md_core::prelude::*;
    let scenario = Scenario::from_json(job).expect("parses");
    let variant = scenario.variants()[0];
    let mut sim = scenario.build_simulation(variant).expect("builds");
    let energy_start = sim.current_thermo().total;
    let stage_before = Stage::ALL.map(|s| sim.timers.seconds(s));
    let report = sim.run(JOB_STEPS);
    let shape = probes::RunShape {
        steps: JOB_STEPS as f64,
        wall_s: latency_s,
        rebuilds: report.rebuilds as f64,
        stage_s: std::array::from_fn(|k| sim.timers.seconds(Stage::ALL[k]) - stage_before[k]),
    };
    // The smoke-sized Opt-M spec is the job's: 2³ cells, 300 K, 1 fs,
    // scheme 1b.
    let job_spec = crate::md::spec_for(spec::SI32K_OPTM, true).expect("an MD workload");
    probes::md_layers(spec::SERVE, &job_spec, &sim, &shape, out);
    out.put("simulation.steps", JOB_STEPS as f64);
    out.put(
        "simulation.energy_drift_rel",
        ((report.final_thermo.total - energy_start) / energy_start).abs(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fourth_job_repeats_its_predecessor_verbatim() {
        assert_eq!(job_body(9, 3), job_body(9, 2));
        assert_ne!(job_body(9, 4), job_body(9, 3));
        assert_ne!(job_body(9, 2), job_body(9, 1));
        let scenario = Scenario::from_json(&job_body(2024, 5)).expect("strict parser accepts");
        assert_eq!(scenario.n_atoms(), 8 * JOB_CELLS.pow(3));
        assert_eq!(scenario.run.steps, JOB_STEPS);
    }

    #[test]
    fn chunked_bodies_decode_and_truncation_is_an_error() {
        assert_eq!(
            decode_chunked(b"4\r\nabcd\r\n2\r\nef\r\n0\r\n\r\n"),
            Some(b"abcdef".to_vec())
        );
        assert_eq!(decode_chunked(b"4\r\nab"), None);
    }
}
