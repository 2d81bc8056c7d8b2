//! Shared server state: the [`JobEngine`], the job registry, and the
//! per-job event logs the NDJSON streaming endpoint replays.
//!
//! The registry is the bridge between the engine's consume-on-wait
//! [`JobHandle`]s and HTTP's poll-any-number-of-times model: a
//! [`JobRecord`] keeps the typed handle until the job turns terminal, then
//! resolves it exactly once into a [`VariantReport`] that every later
//! `GET` re-reads. Event logs are append-only (fed by a single recorder
//! thread subscribed to the engine's [`EventBus`](md_core::jobs::EventBus)
//! before any submission), so a streaming client can join late and still
//! replay a job's full history before following it live.
//!
//! Retention is bounded: the registry keeps every live job and the newest
//! [`RETAINED_FINISHED`] finished ones. When the recorder appends a job's
//! terminal event the job joins a FIFO, and the oldest finished job beyond
//! the bound loses its record and its event log.

use crate::json::{obj, Json};
use crate::scenario::{Scenario, Variant, VariantReport};
use md_core::jobs::{
    EventSub, JobEngine, JobEvent, JobHandle, JobId, JobOutcome, JobStatus, RecvError,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// One submitted job
// ---------------------------------------------------------------------------

enum Slot {
    /// Not yet terminal (or terminal but not yet resolved).
    Pending(JobHandle<VariantReport>),
    /// Transient while one reader resolves the handle (never observed —
    /// the slot lock is held across resolution).
    Resolving,
    /// Resolved once; shared by every later read.
    Done {
        report: Arc<VariantReport>,
        cancelled: bool,
    },
}

/// Where a job is on the queued → running → done arc, plus its resolved
/// report once done.
pub(crate) enum JobView {
    Queued,
    Running,
    Done {
        report: Arc<VariantReport>,
        cancelled: bool,
    },
}

impl JobView {
    /// The wire name of the job's state: `queued`, `running`, or — once
    /// done — the variant's terminal status (`ok`, `diverged`, `panicked`,
    /// `timeout`, `failed`) or `cancelled`.
    pub(crate) fn status_name(&self) -> &'static str {
        match self {
            JobView::Queued => "queued",
            JobView::Running => "running",
            JobView::Done {
                cancelled: true, ..
            } => "cancelled",
            JobView::Done { report, .. } => report.status.name(),
        }
    }

    /// Whether the job can make no further progress.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobView::Done { .. })
    }
}

/// One job accepted over the wire: which scenario variant it is, its event
/// log, and the handle-or-report lifecycle described on [`Slot`].
pub(crate) struct JobRecord {
    pub(crate) id: JobId,
    pub(crate) scenario: Arc<Scenario>,
    pub(crate) variant: Variant,
    pub(crate) label: String,
    pub(crate) steps: u64,
    /// Held here so a stream that found the record keeps its log even if
    /// the job is evicted meanwhile.
    pub(crate) events: Arc<EventLog>,
    slot: Mutex<Slot>,
}

impl JobRecord {
    /// The job's current state. The first read after the job turns
    /// terminal consumes the handle (an immediate `wait`) and pins the
    /// resolved report; every later read shares it.
    pub(crate) fn view(&self) -> JobView {
        let mut slot = lock(&self.slot);
        let terminal = match &*slot {
            Slot::Pending(handle) => match handle.poll() {
                JobStatus::Queued => return JobView::Queued,
                JobStatus::Running => return JobView::Running,
                JobStatus::Finished | JobStatus::Faulted | JobStatus::Cancelled => true,
            },
            Slot::Resolving => unreachable!("resolution happens under the slot lock"),
            Slot::Done { report, cancelled } => {
                return JobView::Done {
                    report: report.clone(),
                    cancelled: *cancelled,
                }
            }
        };
        debug_assert!(terminal);
        let Slot::Pending(handle) = std::mem::replace(&mut *slot, Slot::Resolving) else {
            unreachable!("checked Pending above");
        };
        let outcome = handle.wait(); // immediate: the job is terminal
        let cancelled = matches!(outcome, JobOutcome::Cancelled);
        let report = Arc::new(self.scenario.resolve(self.variant, outcome));
        *slot = Slot::Done {
            report: report.clone(),
            cancelled,
        };
        JobView::Done { report, cancelled }
    }

    /// Cancel if still queued (exact queue-level semantics of
    /// [`JobHandle::cancel`]). `false` once running or terminal.
    pub(crate) fn cancel(&self) -> bool {
        match &*lock(&self.slot) {
            Slot::Pending(handle) => handle.cancel(),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-job event logs
// ---------------------------------------------------------------------------

struct EventLogState {
    /// NDJSON lines (each one serialized [`JobEvent`]), in arrival order.
    lines: Vec<Arc<str>>,
    /// A terminal event landed; no further lines will ever be appended.
    terminal: bool,
}

/// The append-only event history of one job.
pub(crate) struct EventLog {
    state: Mutex<EventLogState>,
    grown: Condvar,
}

impl EventLog {
    fn new() -> Arc<Self> {
        Arc::new(EventLog {
            state: Mutex::new(EventLogState {
                lines: Vec::new(),
                terminal: false,
            }),
            grown: Condvar::new(),
        })
    }

    fn append(&self, line: Arc<str>, terminal: bool) {
        let mut state = lock(&self.state);
        state.lines.push(line);
        state.terminal |= terminal;
        drop(state);
        self.grown.notify_all();
    }

    fn mark_terminal(&self) {
        lock(&self.state).terminal = true;
        self.grown.notify_all();
    }

    /// Lines `from..` plus whether the log is complete. Blocks up to
    /// `timeout` when nothing new is available yet.
    pub(crate) fn wait_lines(&self, from: usize, timeout: Duration) -> (Vec<Arc<str>>, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        loop {
            if state.lines.len() > from || state.terminal {
                return (
                    state.lines[from.min(state.lines.len())..].to_vec(),
                    state.terminal,
                );
            }
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), false);
            }
            let (guard, _) = self
                .grown
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// How many finished jobs the registry keeps, newest first. A record and
/// its event log take about 3 KB, so an unbounded registry grows with
/// every job a long-running server ever served.
pub(crate) const RETAINED_FINISHED: usize = 64;

/// Why [`Registry::get`] found no record.
pub(crate) enum Missing {
    /// No job this server accepted has the id.
    Unknown,
    /// The id is at or below the newest accepted one: the job finished and
    /// was evicted, or it was rolled back and never accepted.
    Evicted,
}

#[derive(Default)]
struct Jobs {
    records: HashMap<JobId, Arc<JobRecord>>,
    logs: HashMap<JobId, Arc<EventLog>>,
    /// Jobs whose terminal event was recorded, oldest first.
    finished: VecDeque<JobId>,
    /// Jobs ever accepted.
    accepted: u64,
    /// The largest id ever accepted.
    newest: JobId,
}

/// The live jobs and the newest finished ones this server accepted, plus
/// their event logs. Shared between connection threads and the single
/// recorder thread.
#[derive(Default)]
pub(crate) struct Registry {
    jobs: Mutex<Jobs>,
}

/// The registry, locked for one batch of submissions (see
/// [`Registry::intake`]).
pub(crate) struct Intake<'a>(MutexGuard<'a, Jobs>);

impl Intake<'_> {
    /// Register an accepted job.
    pub(crate) fn insert(
        &mut self,
        scenario: Arc<Scenario>,
        variant: Variant,
        label: String,
        steps: u64,
        handle: JobHandle<VariantReport>,
    ) {
        let jobs = &mut *self.0;
        let id = handle.id();
        let events = jobs.logs.entry(id).or_insert_with(EventLog::new).clone();
        let record = Arc::new(JobRecord {
            id,
            scenario,
            variant,
            label,
            steps,
            events,
            slot: Mutex::new(Slot::Pending(handle)),
        });
        jobs.records.insert(id, record);
        jobs.accepted += 1;
        jobs.newest = jobs.newest.max(id);
    }
}

impl Registry {
    /// Lock the registry for a batch of submissions. Submit while holding
    /// it: the recorder cannot retire a job that finishes before its
    /// record is in, so no record is inserted after its job was evicted.
    pub(crate) fn intake(&self) -> Intake<'_> {
        Intake(lock(&self.jobs))
    }

    /// The record of job `id`, if it is live or among the retained
    /// finished jobs.
    pub(crate) fn get(&self, id: JobId) -> Result<Arc<JobRecord>, Missing> {
        let jobs = lock(&self.jobs);
        match jobs.records.get(&id) {
            Some(record) => Ok(record.clone()),
            None if id <= jobs.newest => Err(Missing::Evicted),
            None => Err(Missing::Unknown),
        }
    }

    fn records(&self) -> Vec<Arc<JobRecord>> {
        lock(&self.jobs).records.values().cloned().collect()
    }

    /// Retained job counts keyed by wire status name (for `/metrics`).
    pub(crate) fn status_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for record in self.records() {
            *counts.entry(record.view().status_name()).or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    /// Jobs ever accepted, retained or not.
    pub(crate) fn accepted(&self) -> u64 {
        lock(&self.jobs).accepted
    }

    /// Whether every retained job has reached a terminal state (an evicted
    /// one did long ago) — the drain condition of
    /// [`Server::join`](super::Server::join). (Engine counters cannot
    /// express this: a rejected submit's balancing `Cancelled` bumps
    /// `cancelled` without bumping `submitted`.)
    pub(crate) fn all_terminal(&self) -> bool {
        self.records()
            .iter()
            .all(|record| record.view().is_terminal())
    }

    /// Append `event` to its job's log (recorder thread only). A terminal
    /// event retires the job: it joins the finished FIFO, and the oldest
    /// finished job beyond [`RETAINED_FINISHED`] is evicted. The engine
    /// turns a job's status terminal before it emits the terminal event,
    /// so an evicted record is never a live job.
    fn record(&self, event: &JobEvent) {
        let id = event.job();
        let terminal = matches!(event.kind(), "finished" | "faulted" | "cancelled");
        let log = {
            let mut jobs = lock(&self.jobs);
            let log = jobs.logs.entry(id).or_insert_with(EventLog::new).clone();
            if terminal {
                jobs.finished.push_back(id);
                while jobs.finished.len() > RETAINED_FINISHED {
                    let oldest = jobs.finished.pop_front().expect("longer than the bound");
                    jobs.records.remove(&oldest);
                    jobs.logs.remove(&oldest);
                }
            }
            log
        };
        log.append(event_json(event).compact().into(), terminal);
    }

    /// Mark every log terminal — the bus closed, nothing more can arrive.
    fn close_all(&self) {
        for log in lock(&self.jobs).logs.values() {
            log.mark_terminal();
        }
    }
}

/// One [`JobEvent`] as the NDJSON object the `/v1/jobs/{id}/events` stream
/// emits: always `event` (the kind) and `job` (the id), plus the kind's
/// own fields. Energies carry their exact bits alongside the decimal
/// rendering, keeping the wire format as bitwise-faithful as the report
/// artifacts.
pub(crate) fn event_json(event: &JobEvent) -> Json {
    let mut fields = vec![
        ("event", Json::Str(event.kind().to_string())),
        ("job", Json::Num(event.job() as f64)),
    ];
    match event {
        JobEvent::Queued { name, .. } | JobEvent::Cancelled { name, .. } => {
            fields.push(("name", Json::Str(name.clone())));
        }
        JobEvent::Started {
            name,
            threads,
            exclusive,
            ..
        } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("threads", Json::Num(*threads as f64)));
            fields.push(("exclusive", Json::Bool(*exclusive)));
        }
        JobEvent::Thermo {
            step,
            total_energy,
            temperature,
            ..
        } => {
            fields.push(("step", Json::Num(*step as f64)));
            fields.push(("total_energy", Json::Num(*total_energy)));
            fields.push((
                "total_energy_bits",
                Json::Str(format!("{:016x}", total_energy.to_bits())),
            ));
            fields.push(("temperature", Json::Num(*temperature)));
        }
        JobEvent::Checkpoint { step, .. } => {
            fields.push(("step", Json::Num(*step as f64)));
        }
        JobEvent::Finished { name, seconds, .. } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("seconds", Json::Num(*seconds)));
        }
        JobEvent::Faulted { name, message, .. } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("message", Json::Str(message.clone())));
        }
    }
    obj(fields)
}

// ---------------------------------------------------------------------------
// Server state and the recorder
// ---------------------------------------------------------------------------

/// Everything a connection thread can reach: the engine, the registry,
/// the shutdown flag, and the wire counters.
pub(crate) struct ServerState {
    pub(crate) engine: JobEngine,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) started: Instant,
    pub(crate) http_requests: AtomicU64,
}

impl ServerState {
    /// Whether graceful shutdown was requested (signal or
    /// `POST /v1/shutdown`): intake is closed, the drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The recorder loop: drain the engine's event stream into the registry's
/// per-job logs until the bus closes (engine shutdown). Runs on its own
/// thread, subscribed before the server accepts its first connection, so
/// no job's `queued` event can be missed.
pub(crate) fn run_recorder(sub: EventSub, registry: Arc<Registry>) {
    loop {
        match sub.recv() {
            Ok(event) => registry.record(&event),
            Err(RecvError::Closed) => break,
            Err(RecvError::Empty) => unreachable!("recv only returns events or Closed"),
        }
    }
    registry.close_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::jobs::{EngineConfig, JobSpec};
    use std::sync::mpsc;

    const TINY: &str = r#"{
  "name": "retention",
  "system": {"lattice": "silicon", "cells": [2, 2, 2]},
  "potential": {"params": "silicon", "mode": "Ref", "scheme": "1b", "threads": 1},
  "run": {"timestep": 0.001, "skin": 1.0, "steps": 1}
}"#;

    #[test]
    fn the_registry_keeps_every_live_job_and_the_newest_finished_ones() {
        let scenario = Arc::new(Scenario::from_json(TINY).expect("fixture parses"));
        let variant = scenario.variants()[0];
        // One lane holds the live job, the other finishes the rest in
        // submission order. The jobs never build the system: each returns
        // the report of a cancelled variant.
        let engine = JobEngine::new(EngineConfig {
            workers: 2,
            queue_depth: 128,
            ..EngineConfig::default()
        });
        let events = engine.subscribe();
        let registry = Registry::default();
        let job = |gate: Option<mpsc::Receiver<()>>| {
            let scenario = scenario.clone();
            JobSpec::new("retention", move |_ctx| {
                if let Some(gate) = gate {
                    let _ = gate.recv();
                }
                scenario.resolve(variant, JobOutcome::Cancelled)
            })
        };
        let (gate, gate_rx) = mpsc::channel();
        let live = engine.submit(job(Some(gate_rx))).unwrap();
        let live_id = live.id();
        while live.poll() != JobStatus::Running {
            std::thread::yield_now();
        }
        let mut finished = Vec::new();
        {
            let mut intake = registry.intake();
            intake.insert(scenario.clone(), variant, "live".into(), 1, live);
            for _ in 0..100 {
                let handle = engine.submit(job(None)).unwrap();
                finished.push(handle.id());
                intake.insert(scenario.clone(), variant, "done".into(), 1, handle);
            }
        }
        while engine.stats().finished < 100 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for event in events.try_iter() {
            registry.record(&event);
        }

        assert_eq!(registry.records().len(), 1 + RETAINED_FINISHED);
        assert_eq!(registry.accepted(), 101);
        let (evicted, kept) = finished.split_at(100 - RETAINED_FINISHED);
        for &id in evicted {
            assert!(
                matches!(registry.get(id), Err(Missing::Evicted)),
                "job {id}"
            );
            assert!(!lock(&registry.jobs).logs.contains_key(&id), "log of {id}");
        }
        for &id in kept {
            assert!(registry.get(id).is_ok_and(|r| r.view().is_terminal()));
        }
        let live = registry.get(live_id).ok().expect("the live job stays");
        assert!(matches!(live.view(), JobView::Running));
        assert!(!registry.all_terminal());
        assert!(matches!(registry.get(1_000), Err(Missing::Unknown)));

        gate.send(()).unwrap();
        engine.shutdown();
    }
}
