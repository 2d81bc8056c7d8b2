//! Request routing and response emission: the `tersoff-serve` wire API.
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/jobs` | POST | submit a strict [`Scenario`] JSON spec (matrix expanded) |
//! | `/v1/jobs/{id}` | GET | typed status, resolved report once terminal |
//! | `/v1/jobs/{id}` | DELETE | queue-level cancel |
//! | `/v1/jobs/{id}/events` | GET | chunked NDJSON [`JobEvent`] stream |
//! | `/v1/shutdown` | POST | begin graceful drain |
//! | `/metrics` | GET | [`EngineStats`](md_core::jobs::EngineStats) in Prometheus text format |
//! | `/healthz` | GET | liveness |
//!
//! Error mapping is part of the contract: a malformed or unknown-key body
//! is `400` carrying the strict parser's own error text, as is a scenario
//! above [`MAX_SERVED_ATOMS`], one whose `potential.threads` or
//! `matrix.threads` asks for more than [`MAX_CHUNKS`] threads, or one whose
//! `dump.path` / `checkpoint.path` is absolute or climbs out with `..`;
//! an unknown job id, or one of a finished job no longer retained (the
//! server keeps the newest [`RETAINED_FINISHED`] finished jobs), is `404`,
//! a wrong method on a known route is `405`, a full engine queue
//! is `429` (the whole batch is rolled back — submission is all-or-nothing
//! per scenario), and a draining server refuses intake with `503`.

use super::http::{ChunkedStream, ReadError, Request, Response};
use super::state::{JobRecord, JobView, Missing, ServerState, RETAINED_FINISHED};
use crate::json::{obj, Json};
use crate::scenario::{RunPolicy, Scenario, VariantReport};
use md_core::jobs::{JobId, SubmitError};
use md_core::runtime::MAX_CHUNKS;
use std::net::TcpStream;
use std::path::{Component, Path};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long the event stream waits for news before re-checking the log.
const STREAM_POLL: Duration = Duration::from_millis(250);

/// The most atoms one served scenario may build: 128× the 32,768-atom
/// benchmark system. The box is allocated inside the server process, where
/// an allocation failure aborts every job the server holds.
const MAX_SERVED_ATOMS: usize = 1 << 22;

/// How long a client has to send its whole request, head and body.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Serve one connection: read a single request, route it, respond, close.
pub(crate) fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    // A peer that connects and never finishes its request, or trickles it
    // a byte at a time, must not pin the drain: the request read has one
    // deadline.
    let request = match super::http::read_request(&mut stream, REQUEST_TIMEOUT) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(ReadError::Io(_)) => return,
        Err(ReadError::BadRequest(msg)) => {
            let _ = error_response(400, &msg).write_to(&mut stream);
            return;
        }
        Err(ReadError::TooLarge(msg)) => {
            let _ = error_response(413, &msg).write_to(&mut stream);
            return;
        }
    };
    state.http_requests.fetch_add(1, Ordering::Relaxed);
    // The event stream writes its own (chunked) response; everything else
    // produces a fixed Response.
    if request.method == "GET" {
        if let Some(id) = request
            .path
            .strip_prefix("/v1/jobs/")
            .and_then(|rest| rest.strip_suffix("/events"))
        {
            stream_events(state, id, &mut stream);
            return;
        }
    }
    let response = route(state, &request);
    let _ = response.write_to(&mut stream);
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, &obj([("error", Json::Str(message.to_string()))]))
}

fn method_not_allowed(allow: &str) -> Response {
    error_response(405, &format!("method not allowed; allowed: {allow}")).header("Allow", allow)
}

fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &obj([
                ("status", Json::Str("ok".into())),
                (
                    "uptime_seconds",
                    Json::Num(state.started.elapsed().as_secs_f64()),
                ),
                ("draining", Json::Bool(state.draining())),
            ]),
        ),
        (_, "/healthz") => method_not_allowed("GET"),
        ("GET", "/metrics") => metrics(state),
        (_, "/metrics") => method_not_allowed("GET"),
        ("POST", "/v1/jobs") => submit(state, request),
        (_, "/v1/jobs") => method_not_allowed("POST"),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            Response::json(
                200,
                &obj([
                    ("status", Json::Str("draining".into())),
                    ("jobs_accepted", Json::Num(state.registry.accepted() as f64)),
                ]),
            )
        }
        (_, "/v1/shutdown") => method_not_allowed("POST"),
        (method, path) => match path.strip_prefix("/v1/jobs/") {
            Some(rest) if !rest.is_empty() && !rest.contains('/') => {
                let Some(id) = parse_job_id(rest) else {
                    return error_response(404, &format!("no such job {rest:?}"));
                };
                match (method, state.registry.get(id)) {
                    ("GET" | "DELETE", Err(missing)) => job_not_found(id, missing),
                    ("GET", Ok(record)) => job_status(&record),
                    ("DELETE", Ok(record)) => job_cancel(&record),
                    _ => method_not_allowed("GET, DELETE"),
                }
            }
            Some(rest) if rest.ends_with("/events") => {
                // GET was intercepted in handle_connection; any other
                // method lands here.
                method_not_allowed("GET")
            }
            _ => error_response(404, &format!("no route for {path:?}")),
        },
    }
}

fn parse_job_id(text: &str) -> Option<JobId> {
    text.parse::<JobId>().ok()
}

fn job_not_found(id: JobId, missing: Missing) -> Response {
    let message = match missing {
        Missing::Unknown => format!("no such job {id}"),
        Missing::Evicted => format!(
            "job {id} is no longer retained; this server keeps the newest \
             {RETAINED_FINISHED} finished jobs"
        ),
    };
    error_response(404, &message)
}

// ---------------------------------------------------------------------------
// POST /v1/jobs
// ---------------------------------------------------------------------------

fn submit(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.draining() {
        return error_response(503, "server is draining; intake is closed");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "request body is not UTF-8"),
    };
    // Strict parse: unknown keys, duplicate keys and type mismatches all
    // surface the parser's own message on the 400.
    let scenario = match Scenario::from_json(body) {
        Ok(scenario) => Arc::new(scenario),
        Err(e) => return error_response(400, &e.to_string()),
    };
    if let Some(message) = intake_error(&scenario) {
        return error_response(400, &message);
    }
    let policy = RunPolicy {
        keep_going: true,
        ..RunPolicy::default()
    };
    let steps = scenario.capped_steps(&policy);
    // Submit under the registry lock, so that each job's record is in
    // before the recorder can retire the job.
    let mut intake = state.registry.intake();
    // All-or-nothing intake: either every variant of the matrix is
    // accepted, or the batch is rolled back and the client retries whole.
    let mut accepted = Vec::new();
    for variant in scenario.variants() {
        match scenario.try_submit(&state.engine, variant, steps, &policy) {
            Ok(handle) => accepted.push((variant, handle)),
            Err(SubmitError::Full) => {
                for (_, handle) in &accepted {
                    handle.cancel();
                }
                return error_response(
                    429,
                    &format!(
                        "engine queue is full ({} slots); {} variant(s) rolled back — retry later",
                        state.engine.config().queue_depth,
                        accepted.len(),
                    ),
                )
                .header("Retry-After", "1");
            }
            Err(SubmitError::Closed) => {
                return error_response(503, "engine is shut down");
            }
        }
    }
    let jobs: Vec<Json> = accepted
        .iter()
        .map(|(variant, handle)| {
            obj([
                ("id", Json::Num(handle.id() as f64)),
                ("label", Json::Str(scenario.options_for(*variant).label())),
                ("threads", Json::Num(variant.threads as f64)),
                ("mode", Json::Str(variant.mode.to_string())),
            ])
        })
        .collect();
    for (variant, handle) in accepted {
        let label = scenario.options_for(variant).label();
        intake.insert(scenario.clone(), variant, label, steps, handle);
    }
    drop(intake);
    Response::json(
        202,
        &obj([
            ("scenario", Json::Str(scenario.name.clone())),
            ("steps", Json::Num(steps as f64)),
            ("jobs", Json::Arr(jobs)),
        ]),
    )
}

/// What the server refuses that `tersoff-run` accepts: a box above
/// [`MAX_SERVED_ATOMS`], a thread count above [`MAX_CHUNKS`], and an output
/// path outside the server's working directory — a client must not choose
/// how many threads the server spawns, nor which of the server user's files
/// get replaced. No phase splits into more than [`MAX_CHUNKS`] chunks, so
/// extra threads would only idle; `0` (all CPUs) stays valid.
fn intake_error(scenario: &Scenario) -> Option<String> {
    let atoms = scenario.n_atoms();
    if atoms > MAX_SERVED_ATOMS {
        return Some(format!(
            "system.cells: {atoms} atoms exceed this server's limit of {MAX_SERVED_ATOMS}"
        ));
    }
    let matrix_threads = scenario.matrix.iter().flat_map(|m| &m.threads);
    let threads = std::iter::once(("potential.threads", &scenario.potential.threads))
        .chain(matrix_threads.map(|t| ("matrix.threads", t)));
    for (key, &n) in threads {
        if n > MAX_CHUNKS {
            return Some(format!(
                "{key}: {n} threads exceed this server's limit of {MAX_CHUNKS}"
            ));
        }
    }
    let paths = [
        (
            "checkpoint.path",
            scenario.checkpoint.as_ref().map(|c| &c.path),
        ),
        ("dump.path", scenario.dump.as_ref().map(|d| &d.path)),
    ];
    paths.into_iter().find_map(|(key, path)| {
        let path = Path::new(path?);
        let escapes = path.is_absolute() || path.components().any(|c| c == Component::ParentDir);
        escapes.then(|| format!("{key} {path:?} must be relative and free of `..`"))
    })
}

// ---------------------------------------------------------------------------
// GET / DELETE /v1/jobs/{id}
// ---------------------------------------------------------------------------

fn job_status(record: &JobRecord) -> Response {
    let view = record.view();
    let mut fields = vec![
        ("id", Json::Num(record.id as f64)),
        ("scenario", Json::Str(record.scenario.name.clone())),
        ("label", Json::Str(record.label.clone())),
        ("steps", Json::Num(record.steps as f64)),
        ("status", Json::Str(view.status_name().to_string())),
        ("done", Json::Bool(view.is_terminal())),
    ];
    if let JobView::Done { report, .. } = &view {
        fields.push(("result", result_json(report)));
    }
    Response::json(200, &obj(fields))
}

fn job_cancel(record: &JobRecord) -> Response {
    let cancelled = record.cancel();
    Response::json(
        200,
        &obj([
            ("id", Json::Num(record.id as f64)),
            ("cancelled", Json::Bool(cancelled)),
            ("status", Json::Str(record.view().status_name().to_string())),
        ]),
    )
}

/// A resolved [`VariantReport`] on the wire. Thermo samples carry the
/// exact bits of their energies next to the decimal rendering: the
/// bitwise-identity contract (HTTP submission ≡ `tersoff-run`) is checked
/// against these fields by `tests/server.rs`.
fn result_json(report: &VariantReport) -> Json {
    let mut fields = report.json_fields();
    fields.push((
        "resolved_threads",
        Json::Num(report.resolved_threads as f64),
    ));
    if let Some(run) = &report.report {
        fields.push((
            "final_total_energy_bits",
            Json::Str(format!("{:016x}", run.final_thermo.total.to_bits())),
        ));
    }
    fields.push((
        "trace",
        Json::Arr(
            report
                .trace
                .iter()
                .map(|t| {
                    obj([
                        ("step", Json::Num(t.step as f64)),
                        ("potential", Json::Num(t.potential)),
                        (
                            "potential_bits",
                            Json::Str(format!("{:016x}", t.potential.to_bits())),
                        ),
                        ("total", Json::Num(t.total)),
                        (
                            "total_bits",
                            Json::Str(format!("{:016x}", t.total.to_bits())),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    obj(fields)
}

// ---------------------------------------------------------------------------
// GET /v1/jobs/{id}/events — chunked NDJSON
// ---------------------------------------------------------------------------

fn stream_events(state: &Arc<ServerState>, id_text: &str, stream: &mut TcpStream) {
    let Some(id) = parse_job_id(id_text) else {
        let _ = error_response(404, &format!("no such job {id_text:?}")).write_to(stream);
        return;
    };
    let log = match state.registry.get(id) {
        Ok(record) => record.events.clone(),
        Err(missing) => {
            let _ = job_not_found(id, missing).write_to(stream);
            return;
        }
    };
    let Ok(mut chunked) = ChunkedStream::start(stream, 200, "application/x-ndjson") else {
        return;
    };
    let mut from = 0usize;
    loop {
        let (lines, terminal) = log.wait_lines(from, STREAM_POLL);
        from += lines.len();
        if !lines.is_empty() {
            let mut buf = String::new();
            for line in &lines {
                buf.push_str(line);
                buf.push('\n');
            }
            if chunked.write_chunk(buf.as_bytes()).is_err() {
                return; // client went away mid-stream
            }
        }
        if terminal {
            break;
        }
    }
    let _ = chunked.finish();
}

// ---------------------------------------------------------------------------
// GET /metrics — Prometheus text exposition
// ---------------------------------------------------------------------------

fn metrics(state: &Arc<ServerState>) -> Response {
    let stats = state.engine.stats_snapshot();
    let mut out = String::new();
    let mut metric = |name: &str, kind: &str, help: &str, value: f64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!("{name} {}\n", value as i64));
        } else {
            out.push_str(&format!("{name} {value}\n"));
        }
    };
    metric(
        "tersoff_engine_workers",
        "gauge",
        "Lane threads draining the job queue.",
        stats.workers as f64,
    );
    metric(
        "tersoff_engine_queue_depth",
        "gauge",
        "Bounded queue capacity.",
        stats.queue_depth as f64,
    );
    metric(
        "tersoff_engine_queue_len",
        "gauge",
        "Jobs waiting in the queue right now.",
        stats.queue_len as f64,
    );
    metric(
        "tersoff_jobs_submitted_total",
        "counter",
        "Jobs accepted by the engine.",
        stats.submitted as f64,
    );
    metric(
        "tersoff_jobs_finished_total",
        "counter",
        "Jobs whose closure returned normally.",
        stats.finished as f64,
    );
    metric(
        "tersoff_jobs_faulted_total",
        "counter",
        "Jobs whose closure panicked.",
        stats.faulted as f64,
    );
    metric(
        "tersoff_jobs_cancelled_total",
        "counter",
        "Jobs cancelled while queued.",
        stats.cancelled as f64,
    );
    metric(
        "tersoff_runtimes_created_total",
        "counter",
        "ParallelRuntimes ever constructed by the pool.",
        stats.runtimes_created as f64,
    );
    metric(
        "tersoff_runtimes_live",
        "gauge",
        "ParallelRuntimes currently pooled.",
        stats.live_runtimes as f64,
    );
    metric(
        "tersoff_cache_entries",
        "gauge",
        "Live artifact-cache entries.",
        stats.cache.entries as f64,
    );
    metric(
        "tersoff_cache_hits_total",
        "counter",
        "Artifact-cache lookups that found a prepared artifact.",
        stats.cache.hits as f64,
    );
    metric(
        "tersoff_cache_misses_total",
        "counter",
        "Artifact-cache lookups that had to build.",
        stats.cache.misses as f64,
    );
    metric(
        "tersoff_cache_evictions_total",
        "counter",
        "Artifact-cache entries shed by the LRU budget.",
        stats.cache.evictions as f64,
    );
    metric(
        "tersoff_cache_resident_bytes",
        "gauge",
        "Approximate bytes held by live artifact-cache entries.",
        stats.cache.resident_bytes as f64,
    );
    metric(
        "tersoff_uptime_seconds",
        "gauge",
        "Seconds since the engine started.",
        stats.uptime.as_secs_f64(),
    );
    metric(
        "tersoff_http_requests_total",
        "counter",
        "HTTP requests parsed off the wire.",
        state.http_requests.load(Ordering::Relaxed) as f64,
    );
    // Per-status counts over the retained jobs: every live one and the
    // newest finished ones.
    out.push_str(
        "# HELP tersoff_jobs Retained jobs accepted over HTTP (every live job and the newest finished ones), by current status.\n# TYPE tersoff_jobs gauge\n",
    );
    for (status, count) in state.registry.status_counts() {
        out.push_str(&format!("tersoff_jobs{{status=\"{status}\"}} {count}\n"));
    }
    Response::new(200)
        .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        .body(out.into_bytes())
}
