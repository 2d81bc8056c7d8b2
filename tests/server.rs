//! End-to-end tests of `tersoff-serve`'s wire API over real loopback
//! sockets: scenario submission, status polling, NDJSON event streaming,
//! cancellation, the 4xx/429 error contract, and graceful shutdown — with
//! the load-bearing assertion that results served over HTTP are bitwise
//! identical to the same scenario executed by the `tersoff-run` batch
//! path (`Scenario::execute_with`).

use lammps_tersoff_vector::json::{parse, Json};
use lammps_tersoff_vector::scenario::{RunPolicy, Scenario};
use lammps_tersoff_vector::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// A minimal raw-socket HTTP/1.1 client (the server speaks
// `Connection: close`, so reading to EOF terminates every exchange)
// ---------------------------------------------------------------------------

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        parse(std::str::from_utf8(&self.body).expect("UTF-8 body")).expect("JSON body")
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> HttpResponse {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&raw[..end]).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = raw[end + 4..].to_vec();
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        body = decode_chunked(&body);
    }
    HttpResponse {
        status,
        headers,
        body,
    }
}

/// Decode a complete chunked-transfer body (`len\r\ndata\r\n` frames up to
/// the zero chunk).
fn decode_chunked(mut data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(pos) = data.windows(2).position(|w| w == b"\r\n") {
        let size_text = std::str::from_utf8(&data[..pos]).expect("chunk size line");
        let size = usize::from_str_radix(size_text.trim(), 16).expect("hex chunk size");
        data = &data[pos + 2..];
        if size == 0 {
            break;
        }
        assert!(data.len() >= size + 2, "truncated chunk");
        out.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
    out
}

// ---------------------------------------------------------------------------
// JSON accessors for response bodies
// ---------------------------------------------------------------------------

fn field<'a>(json: &'a Json, name: &str) -> &'a Json {
    match json {
        Json::Obj(map) => map
            .get(name)
            .unwrap_or_else(|| panic!("missing field {name:?} in {json:?}")),
        other => panic!("expected object with {name:?}, got {other:?}"),
    }
}

fn num(json: &Json, name: &str) -> f64 {
    match field(json, name) {
        Json::Num(n) => *n,
        other => panic!("field {name:?} is not a number: {other:?}"),
    }
}

fn text<'a>(json: &'a Json, name: &str) -> &'a str {
    field(json, name).as_str().unwrap_or_else(|| {
        panic!("field {name:?} is not a string");
    })
}

fn arr<'a>(json: &'a Json, name: &str) -> &'a [Json] {
    match field(json, name) {
        Json::Arr(items) => items,
        other => panic!("field {name:?} is not an array: {other:?}"),
    }
}

fn boolean(json: &Json, name: &str) -> bool {
    match field(json, name) {
        Json::Bool(b) => *b,
        other => panic!("field {name:?} is not a bool: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Fixtures and helpers
// ---------------------------------------------------------------------------

/// The e2e scenario: the same 2×2×2 perturbed silicon crystal the
/// job-engine equivalence tests use, as the strict JSON the wire accepts.
fn fixture_json(name: &str, steps: u64, matrix: bool) -> String {
    let matrix_part = if matrix {
        ",\n  \"matrix\": {\"modes\": [\"Ref\", \"Opt-M\"], \"threads\": [1, 2]}"
    } else {
        ""
    };
    format!(
        r#"{{
  "name": "{name}",
  "system": {{"lattice": "silicon", "cells": [2, 2, 2], "perturbation": 0.04,
              "lattice_seed": 21, "temperature": 400.0, "velocity_seed": 5}},
  "potential": {{"params": "silicon", "mode": "Opt-M", "scheme": "1b", "threads": 1}},
  "run": {{"timestep": 0.001, "skin": 1.0, "steps": {steps}, "thermo_every": 2}}{matrix_part}
}}"#
    )
}

fn boot(workers: usize, queue_depth: usize) -> Server {
    Server::bind(ServerConfig {
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Poll `GET /v1/jobs/{id}` until `done`.
fn wait_done(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let response = request(addr, "GET", &format!("/v1/jobs/{id}"), b"");
        assert_eq!(response.status, 200, "status poll of job {id}");
        let json = response.json();
        if boolean(&json, "done") {
            return json;
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        thread::sleep(Duration::from_millis(50));
    }
}

/// Per-label `(step, potential_bits, total_bits)` triples — the bitwise
/// identity currency, matching `tests/job_engine.rs`.
type TraceBits = Vec<(u64, String, String)>;

/// Execute the scenario locally through the batch path (`tersoff-run`'s
/// code path) and collect each variant's trace bits.
fn local_trace_bits(scenario_json: &str) -> BTreeMap<String, TraceBits> {
    let scenario = Scenario::from_json(scenario_json).expect("fixture parses");
    let report = scenario
        .execute_with(&RunPolicy {
            keep_going: true,
            ..RunPolicy::default()
        })
        .expect("local execution");
    report
        .variants
        .iter()
        .map(|v| {
            let bits = v
                .trace
                .iter()
                .map(|t| {
                    (
                        t.step,
                        format!("{:016x}", t.potential.to_bits()),
                        format!("{:016x}", t.total.to_bits()),
                    )
                })
                .collect();
            (v.label.clone(), bits)
        })
        .collect()
}

/// Extract the trace bits from a served `result` object.
fn served_trace_bits(result: &Json) -> TraceBits {
    arr(result, "trace")
        .iter()
        .map(|entry| {
            (
                num(entry, "step") as u64,
                text(entry, "potential_bits").to_string(),
                text(entry, "total_bits").to_string(),
            )
        })
        .collect()
}

/// Submit a scenario and return `(label, id)` per accepted job.
fn submit(addr: SocketAddr, body: &str) -> Vec<(String, u64)> {
    let response = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(
        response.status,
        202,
        "submit: {}",
        String::from_utf8_lossy(&response.body)
    );
    let json = response.json();
    arr(&json, "jobs")
        .iter()
        .map(|job| (text(job, "label").to_string(), num(job, "id") as u64))
        .collect()
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

#[test]
fn served_results_are_bitwise_identical_to_the_batch_runner() {
    let body = fixture_json("server_bitwise", 10, true);
    let baseline = local_trace_bits(&body);

    let server = boot(2, 64);
    let addr = server.local_addr();
    let jobs = submit(addr, &body);
    assert_eq!(jobs.len(), 4, "2 modes × 2 thread counts");

    let mut served = BTreeMap::new();
    for (label, id) in &jobs {
        let status = wait_done(addr, *id);
        assert_eq!(text(&status, "status"), "ok", "variant {label}");
        assert_eq!(text(&status, "label"), label);
        let result = field(&status, "result");
        assert_eq!(text(result, "status"), "ok");
        served.insert(label.clone(), served_trace_bits(result));
    }

    assert_eq!(
        served, baseline,
        "every energy bit served over HTTP must equal the batch runner's"
    );

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.finished, 4);
    assert_eq!(stats.queue_len, 0);
}

#[test]
fn concurrent_clients_all_receive_the_same_bits() {
    let body = fixture_json("server_concurrent", 10, true);
    let baseline = local_trace_bits(&body);

    let server = boot(2, 64);
    let addr = server.local_addr();

    const CLIENTS: usize = 3;
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let body = body.clone();
        handles.push(thread::spawn(move || {
            let jobs = submit(addr, &body);
            let mut served = BTreeMap::new();
            for (label, id) in jobs {
                let status = wait_done(addr, id);
                assert_eq!(text(&status, "status"), "ok");
                served.insert(label, served_trace_bits(field(&status, "result")));
            }
            served
        }));
    }
    for handle in handles {
        let served = handle.join().expect("client thread");
        assert_eq!(served, baseline, "per-client bitwise identity");
    }

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.submitted, (CLIENTS * 4) as u64);
    assert_eq!(stats.finished, (CLIENTS * 4) as u64);
    // The prepared system is shared through the artifact cache across all
    // clients' jobs: at least one build, the rest hits.
    assert!(stats.cache.hits > 0, "repeated system must hit the cache");
}

#[test]
fn the_error_contract_covers_400_404_and_405() {
    let server = boot(1, 8);
    let addr = server.local_addr();

    // Malformed JSON → 400 with the strict parser's own message.
    let response = request(addr, "POST", "/v1/jobs", b"this is not json");
    assert_eq!(response.status, 400);
    let error = text(&response.json(), "error").to_string();
    assert!(
        error.contains("JSON parse error"),
        "parser text surfaced: {error}"
    );

    // Valid JSON with an unknown key → 400 naming the key.
    let body = fixture_json("bad_key", 4, false).replace("\"skin\"", "\"skinn\"");
    let response = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(response.status, 400);
    let error = text(&response.json(), "error").to_string();
    assert!(error.contains("skinn"), "offending key named: {error}");

    // A vector width this build has no kernel for → 400 listing the
    // supported ones, checked per matrix variant (Opt-M/1b has 16 lanes
    // only); no job is registered and the job gauges do not move.
    let job_metrics = || -> Vec<String> {
        let response = request(addr, "GET", "/metrics", b"");
        String::from_utf8(response.body.clone())
            .expect("UTF-8 metrics")
            .lines()
            .filter(|line| line.starts_with("tersoff_jobs"))
            .map(str::to_string)
            .collect()
    };
    let before = job_metrics();
    let body = fixture_json("bad_width", 4, true)
        .replace("\"threads\": 1}", "\"threads\": 1, \"width\": 7}");
    assert!(body.contains("\"width\": 7"));
    let response = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(response.status, 400);
    let error = text(&response.json(), "error").to_string();
    assert!(
        error.contains("unsupported vector width 7 for Opt-M/1b")
            && error.contains("supported: 16"),
        "supported widths named: {error}"
    );
    // Scheme 1a exists at 8 lanes only under Opt-M.
    let body = fixture_json("bad_width_1a", 4, false).replace(
        "\"scheme\": \"1b\", \"threads\": 1}",
        "\"scheme\": \"1a\", \"threads\": 1, \"width\": 16}",
    );
    assert!(body.contains("\"width\": 16"));
    let response = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(response.status, 400);
    let error = text(&response.json(), "error").to_string();
    assert!(
        error.contains("unsupported vector width 16 for Opt-M/1a (supported: 8;"),
        "supported widths named: {error}"
    );
    assert_eq!(request(addr, "GET", "/v1/jobs/1", b"").status, 404);
    assert_eq!(job_metrics(), before);

    // Unknown job ids and unknown routes → 404.
    assert_eq!(request(addr, "GET", "/v1/jobs/424242", b"").status, 404);
    assert_eq!(request(addr, "DELETE", "/v1/jobs/424242", b"").status, 404);
    assert_eq!(
        request(addr, "GET", "/v1/jobs/424242/events", b"").status,
        404
    );
    assert_eq!(request(addr, "GET", "/nope", b"").status, 404);
    assert_eq!(
        request(addr, "GET", "/v1/jobs/not-a-number", b"").status,
        404
    );

    // Known route, wrong method → 405 with Allow.
    let response = request(addr, "GET", "/v1/jobs", b"");
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("POST"));
    assert_eq!(request(addr, "POST", "/healthz", b"").status, 405);
    assert_eq!(request(addr, "DELETE", "/metrics", b"").status, 405);

    server.request_shutdown();
    server.join();
}

#[test]
fn a_saturated_queue_answers_429_and_rolls_the_batch_back() {
    // One lane, one queue slot: the 4-variant matrix cannot fit — at the
    // latest the third variant hits SubmitError::Full while the lane is
    // busy with the first.
    let server = boot(1, 1);
    let addr = server.local_addr();

    let body = fixture_json("server_saturated", 300, true);
    let response = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(response.status, 429);
    assert_eq!(response.header("retry-after"), Some("1"));
    let error = text(&response.json(), "error").to_string();
    assert!(error.contains("queue is full"), "{error}");

    // All-or-nothing: nothing was registered, so every id is unknown.
    for id in 1..=4u64 {
        assert_eq!(
            request(addr, "GET", &format!("/v1/jobs/{id}"), b"").status,
            404
        );
    }

    server.request_shutdown();
    let stats = server.join();
    // Every accepted-then-rolled-back job reached a terminal state. The
    // sum can exceed `submitted`: the rejected variant's balancing
    // `Cancelled` event counts without a matching accepted submit.
    assert!(
        stats.finished + stats.faulted + stats.cancelled >= stats.submitted,
        "terminal states must cover every accepted job: {stats:?}"
    );
    assert!(stats.cancelled > 0, "the rollback cancelled queued jobs");
}

#[test]
fn the_event_stream_is_live_replayable_ndjson() {
    let server = boot(1, 16);
    let addr = server.local_addr();

    let body = fixture_json("server_events", 10, false);
    let jobs = submit(addr, &body);
    let (label, id) = jobs[0].clone();

    // Follow the stream live, starting while the job runs: read_to_end
    // returns only once the server writes the terminal chunk.
    let live = request(addr, "GET", &format!("/v1/jobs/{id}/events"), b"");
    assert_eq!(live.status, 200);
    assert_eq!(
        live.header("content-type"),
        Some("application/x-ndjson"),
        "NDJSON content type"
    );
    assert_eq!(live.header("transfer-encoding"), Some("chunked"));

    let status = wait_done(addr, id);
    assert_eq!(text(&status, "status"), "ok");
    let trace = served_trace_bits(field(&status, "result"));

    // A second, late-joining stream replays the identical history.
    let replay = request(addr, "GET", &format!("/v1/jobs/{id}/events"), b"");
    assert_eq!(live.body, replay.body, "late join replays the full log");

    let lines: Vec<Json> = std::str::from_utf8(&live.body)
        .expect("UTF-8 stream")
        .lines()
        .map(|line| parse(line).expect("each line is one JSON event"))
        .collect();
    let kinds: Vec<&str> = lines.iter().map(|l| text(l, "event")).collect();
    assert_eq!(kinds.first(), Some(&"queued"));
    assert_eq!(kinds.get(1), Some(&"started"));
    assert_eq!(kinds.last(), Some(&"finished"));
    for line in &lines {
        assert_eq!(num(line, "job") as u64, id, "stream is single-job");
    }
    assert!(
        text(&lines[0], "name").ends_with(&label),
        "queued event names the variant"
    );

    // The streamed thermo samples carry the exact bits of the served
    // (and therefore batch-identical) trace.
    let streamed: Vec<(u64, String)> = lines
        .iter()
        .filter(|l| text(l, "event") == "thermo")
        .map(|l| {
            (
                num(l, "step") as u64,
                text(l, "total_energy_bits").to_string(),
            )
        })
        .collect();
    let expected: Vec<(u64, String)> = trace
        .into_iter()
        .map(|(step, _potential, total)| (step, total))
        .collect();
    assert_eq!(streamed, expected, "streamed energies are bit-exact");

    server.request_shutdown();
    server.join();
}

#[test]
fn cancel_is_queue_level_exact_over_http() {
    // One lane: the first variant starts running, the rest sit queued.
    let server = boot(1, 64);
    let addr = server.local_addr();

    let body = fixture_json("server_cancel", 150, true);
    let jobs = submit(addr, &body);
    assert_eq!(jobs.len(), 4);
    let last = jobs.last().expect("four jobs").1;

    // The last job cannot have reached the single lane yet.
    let response = request(addr, "DELETE", &format!("/v1/jobs/{last}"), b"");
    assert_eq!(response.status, 200);
    let json = response.json();
    assert!(boolean(&json, "cancelled"), "queued job must cancel");

    let status = wait_done(addr, last);
    assert_eq!(text(&status, "status"), "cancelled");
    assert_eq!(
        text(field(&status, "result"), "status"),
        "failed",
        "a cancelled variant resolves to the failed report status"
    );

    // Cancelling a terminal job is a no-op.
    let response = request(addr, "DELETE", &format!("/v1/jobs/{last}"), b"");
    assert!(!boolean(&response.json(), "cancelled"));

    // Shed the remaining queued work to keep the drain short.
    for (_, id) in &jobs[1..3] {
        request(addr, "DELETE", &format!("/v1/jobs/{id}"), b"");
    }

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.submitted, 4);
    assert!(stats.cancelled >= 1);
    assert_eq!(
        stats.submitted,
        stats.finished + stats.faulted + stats.cancelled
    );
}

#[test]
fn shutdown_drains_in_flight_jobs_and_refuses_intake() {
    let server = boot(1, 64);
    let addr = server.local_addr();

    let body = fixture_json("server_drain", 150, false);
    let jobs = submit(addr, &body);
    assert_eq!(jobs.len(), 1);
    let id = jobs[0].1;

    let response = request(addr, "POST", "/v1/shutdown", b"");
    assert_eq!(response.status, 200);
    assert_eq!(text(&response.json(), "status"), "draining");

    // Intake is closed while the drain serves existing clients.
    let refused = request(addr, "POST", "/v1/jobs", body.as_bytes());
    assert_eq!(refused.status, 503);
    let health = request(addr, "GET", "/healthz", b"");
    assert!(boolean(&health.json(), "draining"));

    // The in-flight job still completes and is still pollable mid-drain.
    let status = wait_done(addr, id);
    assert_eq!(text(&status, "status"), "ok");

    let stats = server.join();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.queue_len, 0);

    // After join the listener is closed.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after join"
    );
}

#[test]
fn metrics_report_engine_and_registry_state() {
    let server = boot(1, 16);
    let addr = server.local_addr();

    let body = fixture_json("server_metrics", 10, false);
    let jobs = submit(addr, &body);
    wait_done(addr, jobs[0].1);

    let response = request(addr, "GET", "/metrics", b"");
    assert_eq!(response.status, 200);
    assert!(response
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain")));
    let metrics = String::from_utf8(response.body.clone()).expect("UTF-8 metrics");

    let value = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|line| line.starts_with(name) && line.as_bytes().get(name.len()) == Some(&b' '))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .expect("numeric sample")
    };
    assert_eq!(value("tersoff_engine_workers"), 1.0);
    assert_eq!(value("tersoff_engine_queue_depth"), 16.0);
    assert_eq!(value("tersoff_jobs_submitted_total"), 1.0);
    assert_eq!(value("tersoff_jobs_finished_total"), 1.0);
    assert!(value("tersoff_cache_misses_total") >= 1.0);
    assert!(value("tersoff_cache_resident_bytes") > 0.0);
    assert!(value("tersoff_uptime_seconds") > 0.0);
    assert!(value("tersoff_http_requests_total") >= 2.0);
    assert!(metrics.contains("tersoff_jobs{status=\"ok\"} 1"));

    server.request_shutdown();
    server.join();
}
