//! The job engine: pooled runtimes draining a bounded queue of jobs.
//!
//! A [`JobEngine`] owns `workers` lane threads and a [`RuntimePool`] of
//! [`ParallelRuntime`]s. Submitting a [`JobSpec`] enqueues a closure onto
//! the engine's backpressured [`JobQueue`] and returns a typed
//! [`JobHandle`] to await, poll or cancel it. Each lane pops jobs in FIFO
//! order, leases a runtime sized to the job's thread request — *shared*
//! leases pack many small jobs onto one runtime per thread count, an
//! *exclusive* lease claims a whole runtime for one big job — and runs the
//! closure under `catch_unwind`, so one job's panic is a typed
//! [`JobOutcome::Faulted`] for its own handle and nothing else.
//!
//! Determinism: a job's result depends only on its own inputs and the
//! runtime it leases. Runtimes produce bitwise-identical results across
//! thread counts (fixed chunk boundaries, ordered merges — see
//! [`crate::runtime`]), concurrent dispatches on a shared runtime
//! serialize on the worker pool's own lock, and the [`ArtifactCache`] only
//! holds outputs of deterministic builders. Engine scheduling therefore
//! cannot change any job's bits — only the order jobs finish in. The
//! bitwise-equivalence suite (`tests/job_engine.rs` at the workspace root)
//! pins this.

use super::cache::{ArtifactCache, CacheBudget, CacheStats};
use super::events::{EventBus, EventSub, JobEvent, JobId};
use super::queue::{JobQueue, SubmitError};
use crate::runtime::{
    lock_recover, panic_payload_string, resolve_threads, wait_recover, ParallelRuntime,
};
use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------------

/// How a [`JobEngine`] is sized.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Lane threads draining the queue — the number of jobs in flight at
    /// once, and the cap on pooled runtimes per thread count (min 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue blocks [`JobEngine::submit`]
    /// (backpressure) and fails [`JobEngine::try_submit`] (min 1).
    pub queue_depth: usize,
    /// Retention budget of the engine's [`ArtifactCache`]. Effectively
    /// unbounded by default (right for one-shot batches); a long-running
    /// server sets real bounds so the cache cannot leak.
    pub cache_budget: CacheBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            queue_depth: 64,
            cache_budget: CacheBudget::default(),
        }
    }
}

impl EngineConfig {
    fn normalized(self) -> Self {
        EngineConfig {
            workers: self.workers.max(1),
            queue_depth: self.queue_depth.max(1),
            cache_budget: self.cache_budget,
        }
    }
}

/// A point-in-time snapshot of the engine's counters, embedded in
/// `ScenarioReport` JSON and exposed by `tersoff-serve`'s `/metrics`. Take one with
/// [`JobEngine::stats_snapshot`] — a single consistent read, cheap enough
/// for a metrics endpoint to call per scrape.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Lane threads (pool size).
    pub workers: usize,
    /// Queue capacity.
    pub queue_depth: usize,
    /// Jobs waiting in the queue right now.
    pub queue_len: usize,
    /// Jobs accepted by `submit`/`try_submit`.
    pub submitted: u64,
    /// Jobs whose closure returned normally.
    pub finished: u64,
    /// Jobs whose closure panicked.
    pub faulted: u64,
    /// Jobs cancelled while still queued.
    pub cancelled: u64,
    /// Runtimes ever constructed by the pool (pooling works when this
    /// stays far below `submitted`).
    pub runtimes_created: u64,
    /// Runtimes currently pooled.
    pub live_runtimes: usize,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Wall-clock time since the engine started.
    pub uptime: Duration,
}

// ---------------------------------------------------------------------------
// Job specification and handle
// ---------------------------------------------------------------------------

/// A unit of work: a name, a runtime request, and a closure producing `T`.
pub struct JobSpec<T> {
    name: String,
    threads: usize,
    exclusive: bool,
    run: Box<dyn FnOnce(&mut JobContext<'_>) -> T + Send>,
}

impl<T: Send + 'static> JobSpec<T> {
    /// A job running `run` on a shared single-slot lease (the packing
    /// default for small jobs).
    pub fn new<F>(name: impl Into<String>, run: F) -> Self
    where
        F: FnOnce(&mut JobContext<'_>) -> T + Send + 'static,
    {
        JobSpec {
            name: name.into(),
            threads: 1,
            exclusive: false,
            run: Box::new(run),
        }
    }

    /// Request a runtime of `threads` (0 = all CPUs, like everywhere else).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Claim the leased runtime exclusively: no other job shares it while
    /// this one runs. The right call for big multi-threaded jobs, where
    /// sharing would serialize two whole simulations on one worker team.
    pub fn exclusive(mut self, exclusive: bool) -> Self {
        self.exclusive = exclusive;
        self
    }
}

/// How a job ended, from the consumer's side.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet popped by a lane.
    Queued,
    /// A lane is executing it.
    Running,
    /// The closure returned; [`JobHandle::wait`] yields the value.
    Finished,
    /// The closure panicked; [`JobHandle::wait`] yields the message.
    Faulted,
    /// Cancelled while queued; the closure never ran.
    Cancelled,
}

/// A finished job's result.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The closure's return value.
    Finished(T),
    /// The stringified panic that unwound out of the closure.
    Faulted(String),
    /// The job was cancelled before a lane picked it up.
    Cancelled,
}

enum RawOutcome {
    Value(Box<dyn Any + Send>),
    Fault(String),
    Cancelled,
}

struct HandleState {
    status: JobStatus,
    outcome: Option<RawOutcome>,
}

struct HandleShared {
    state: Mutex<HandleState>,
    done: Condvar,
    cancel_requested: AtomicBool,
}

impl HandleShared {
    fn new() -> Self {
        HandleShared {
            state: Mutex::new(HandleState {
                status: JobStatus::Queued,
                outcome: None,
            }),
            done: Condvar::new(),
            cancel_requested: AtomicBool::new(false),
        }
    }

    /// Publish the terminal `status` to [`JobHandle::poll`]. Comes before
    /// the terminal event, so whoever sees the event sees the status.
    fn set_status(&self, status: JobStatus) {
        lock_recover(&self.state).status = status;
    }

    /// Store the outcome and wake [`JobHandle::wait`]. Comes after the
    /// terminal event, so whoever `wait` returns to has seen the event.
    fn resolve(&self, outcome: RawOutcome) {
        lock_recover(&self.state).outcome = Some(outcome);
        self.done.notify_all();
    }
}

/// The typed ticket for one submitted job.
pub struct JobHandle<T> {
    id: JobId,
    name: String,
    shared: Arc<HandleShared>,
    engine: Arc<EngineShared>,
    _result: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> JobHandle<T> {
    /// The engine-unique job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's current status, without blocking.
    pub fn poll(&self) -> JobStatus {
        lock_recover(&self.shared.state).status
    }

    /// Block until the job reaches a terminal state and return its outcome.
    pub fn wait(self) -> JobOutcome<T> {
        let mut state = lock_recover(&self.shared.state);
        while state.outcome.is_none() {
            state = wait_recover(&self.shared.done, state);
        }
        match state.outcome.take().expect("loop exits with an outcome") {
            RawOutcome::Value(value) => JobOutcome::Finished(
                *value
                    .downcast::<T>()
                    .expect("submit() pins the handle type to the closure's return type"),
            ),
            RawOutcome::Fault(message) => JobOutcome::Faulted(message),
            RawOutcome::Cancelled => JobOutcome::Cancelled,
        }
    }

    /// Cancel the job if it is still queued. Returns `true` when this call
    /// removed it from the queue (the closure will never run and
    /// [`JobHandle::wait`] yields [`JobOutcome::Cancelled`]); `false` when
    /// the job already reached a lane — a running job is never interrupted,
    /// but the cancellation flag stays visible to the closure through
    /// [`JobContext::cancel_requested`] for cooperative early exit.
    pub fn cancel(&self) -> bool {
        self.shared.cancel_requested.store(true, Ordering::SeqCst);
        match self.engine.queue.cancel(self.id) {
            Some(job) => {
                self.engine
                    .finish_cancelled(self.id, &job.name, &job.handle);
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime pool
// ---------------------------------------------------------------------------

struct Slot {
    resolved: usize,
    runtime: ParallelRuntime,
    users: usize,
    exclusive: bool,
    poisoned: bool,
}

struct PoolState {
    slots: HashMap<u64, Slot>,
    next_slot: u64,
    created: u64,
}

/// Pooled [`ParallelRuntime`]s keyed by resolved thread count.
///
/// Shared leases all land on the *same* slot per thread count — that is
/// the packing: worker-pool dispatches already serialize on the runtime's
/// internal lock, and a 1-thread runtime never even spawns a pool, so
/// sharing is free and correct. Exclusive leases take a slot with no other
/// users and fence everyone else out until released. At most
/// `max_per_count` live slots exist per thread count (one per lane —
/// beyond that a lease waits for a release). A poisoned slot (its runtime
/// possibly wedged by an abandoned timeout thread) is never leased again
/// and is dropped once its last user releases.
struct RuntimePool {
    state: Mutex<PoolState>,
    freed: Condvar,
    max_per_count: usize,
}

struct Lease {
    slot: u64,
    requested: usize,
    resolved: usize,
    exclusive: bool,
    runtime: ParallelRuntime,
}

impl RuntimePool {
    fn new(max_per_count: usize) -> Self {
        RuntimePool {
            state: Mutex::new(PoolState {
                slots: HashMap::new(),
                next_slot: 0,
                created: 0,
            }),
            freed: Condvar::new(),
            max_per_count: max_per_count.max(1),
        }
    }

    fn acquire(&self, requested: usize, exclusive: bool) -> Lease {
        let resolved = resolve_threads(requested);
        let mut state = lock_recover(&self.state);
        loop {
            let found = state
                .slots
                .iter_mut()
                .find(|(_, s)| {
                    s.resolved == resolved
                        && !s.poisoned
                        && !s.exclusive
                        && (!exclusive || s.users == 0)
                })
                .map(|(&id, slot)| {
                    if exclusive {
                        slot.exclusive = true;
                    } else {
                        slot.users += 1;
                    }
                    Lease {
                        slot: id,
                        requested,
                        resolved,
                        exclusive,
                        runtime: slot.runtime.clone(),
                    }
                });
            if let Some(lease) = found {
                return lease;
            }
            let live = state
                .slots
                .values()
                .filter(|s| s.resolved == resolved && !s.poisoned)
                .count();
            if live < self.max_per_count {
                let id = state.next_slot;
                state.next_slot += 1;
                state.created += 1;
                let runtime = ParallelRuntime::new(requested);
                state.slots.insert(
                    id,
                    Slot {
                        resolved,
                        runtime: runtime.clone(),
                        users: usize::from(!exclusive),
                        exclusive,
                        poisoned: false,
                    },
                );
                return Lease {
                    slot: id,
                    requested,
                    resolved,
                    exclusive,
                    runtime,
                };
            }
            state = wait_recover(&self.freed, state);
        }
    }

    fn release(&self, lease: Lease) {
        let mut state = lock_recover(&self.state);
        if let Some(slot) = state.slots.get_mut(&lease.slot) {
            if lease.exclusive {
                slot.exclusive = false;
            } else {
                slot.users = slot.users.saturating_sub(1);
            }
            if slot.poisoned && slot.users == 0 && !slot.exclusive {
                state.slots.remove(&lease.slot);
            }
        }
        drop(state);
        self.freed.notify_all();
    }

    /// Mark a slot as never-lease-again (dropped on last release).
    fn poison(&self, slot: u64) {
        let mut state = lock_recover(&self.state);
        if let Some(s) = state.slots.get_mut(&slot) {
            s.poisoned = true;
        }
    }

    /// `(runtimes_created, live_runtimes)` under one lock acquisition.
    fn counters(&self) -> (u64, usize) {
        let state = lock_recover(&self.state);
        (state.created, state.slots.len())
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The type-erased job closure a lane executes: takes the job's context,
/// returns the boxed result the typed handle downcasts.
type JobClosure = Box<dyn FnOnce(&mut JobContext<'_>) -> Box<dyn Any + Send> + Send>;

struct QueuedJob {
    name: String,
    threads: usize,
    exclusive: bool,
    run: JobClosure,
    handle: Arc<HandleShared>,
}

struct EngineShared {
    config: EngineConfig,
    queue: JobQueue<QueuedJob>,
    events: Arc<EventBus>,
    cache: Arc<ArtifactCache>,
    pool: RuntimePool,
    next_id: AtomicU64,
    submitted: AtomicU64,
    finished: AtomicU64,
    faulted: AtomicU64,
    cancelled: AtomicU64,
    started: Instant,
}

impl EngineShared {
    // Every terminal path runs in one order: the handle's status turns
    // terminal *first*, so a subscriber that sees the terminal event sees
    // `poll()` terminal too; the outcome resolves *last*, so a consumer
    // whose wait() returned already sees the counters bumped and the event
    // emitted.
    fn finish_cancelled(&self, id: JobId, name: &str, handle: &HandleShared) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
        handle.set_status(JobStatus::Cancelled);
        self.events.emit(JobEvent::Cancelled {
            job: id,
            name: name.to_string(),
        });
        handle.resolve(RawOutcome::Cancelled);
    }

    fn run_job(self: &Arc<Self>, id: JobId, job: QueuedJob) {
        if job.handle.cancel_requested.load(Ordering::SeqCst) {
            // Cancelled after the handle's queue.cancel() lost the race
            // with our pop: honor the intent, never start the closure.
            self.finish_cancelled(id, &job.name, &job.handle);
            return;
        }
        job.handle.set_status(JobStatus::Running);
        let lease = self.pool.acquire(job.threads, job.exclusive);
        self.events.emit(JobEvent::Started {
            job: id,
            name: job.name.clone(),
            threads: lease.resolved,
            exclusive: lease.exclusive,
        });
        let started = Instant::now();
        let mut ctx = JobContext {
            id,
            name: job.name.clone(),
            engine: self,
            handle: job.handle.clone(),
            lease,
        };
        let run = job.run;
        let result = catch_unwind(AssertUnwindSafe(|| run(&mut ctx)));
        let JobContext { lease, .. } = ctx;
        self.pool.release(lease);
        match result {
            Ok(value) => {
                self.finished.fetch_add(1, Ordering::Relaxed);
                job.handle.set_status(JobStatus::Finished);
                self.events.emit(JobEvent::Finished {
                    job: id,
                    name: job.name,
                    seconds: started.elapsed().as_secs_f64(),
                });
                job.handle.resolve(RawOutcome::Value(value));
            }
            Err(payload) => {
                let message = panic_payload_string(payload.as_ref());
                self.faulted.fetch_add(1, Ordering::Relaxed);
                job.handle.set_status(JobStatus::Faulted);
                self.events.emit(JobEvent::Faulted {
                    job: id,
                    name: job.name,
                    message: message.clone(),
                });
                job.handle.resolve(RawOutcome::Fault(message));
            }
        }
    }
}

/// What a running job sees of its engine: the leased runtime, the shared
/// artifact cache, the event stream, and its own cancellation flag.
pub struct JobContext<'e> {
    id: JobId,
    name: String,
    engine: &'e Arc<EngineShared>,
    handle: Arc<HandleShared>,
    lease: Lease,
}

impl JobContext<'_> {
    /// This job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// This job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The leased runtime — hand it to `SimulationBuilder::runtime`.
    pub fn runtime(&self) -> &ParallelRuntime {
        &self.lease.runtime
    }

    /// Resolved thread count of the leased runtime.
    pub fn resolved_threads(&self) -> usize {
        self.lease.resolved
    }

    /// The engine's shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.engine.cache
    }

    /// An owning handle to the cache, for attempts that hop threads (the
    /// timeout path runs the attempt on its own worker thread).
    pub fn cache_handle(&self) -> Arc<ArtifactCache> {
        self.engine.cache.clone()
    }

    /// An owning handle to the event bus, same reason as
    /// [`JobContext::cache_handle`].
    pub fn events(&self) -> Arc<EventBus> {
        self.engine.events.clone()
    }

    /// Whether [`JobHandle::cancel`] was called after this job already
    /// started — cooperative-cancellation poll point.
    pub fn cancel_requested(&self) -> bool {
        self.handle.cancel_requested.load(Ordering::SeqCst)
    }

    /// Publish a thermo sample on the engine's event stream.
    pub fn emit_thermo(&self, step: u64, total_energy: f64, temperature: f64) {
        self.engine.events.emit(JobEvent::Thermo {
            job: self.id,
            step,
            total_energy,
            temperature,
        });
    }

    /// Publish a checkpoint notification on the engine's event stream.
    pub fn emit_checkpoint(&self, step: u64) {
        self.engine
            .events
            .emit(JobEvent::Checkpoint { job: self.id, step });
    }

    /// Swap the current lease for a fresh runtime and poison the old slot
    /// so no later job leases it. For when the job abandoned a worker
    /// thread that may still hold the old runtime (the scenario layer's
    /// wall-clock timeout does exactly this before a retry).
    pub fn refresh_runtime(&mut self) {
        self.engine.pool.poison(self.lease.slot);
        let fresh = self
            .engine
            .pool
            .acquire(self.lease.requested, self.lease.exclusive);
        let old = std::mem::replace(&mut self.lease, fresh);
        self.engine.pool.release(old);
    }
}

/// The engine: see the module docs for the architecture.
pub struct JobEngine {
    shared: Arc<EngineShared>,
    lanes: Vec<JoinHandle<()>>,
}

impl JobEngine {
    /// Start an engine with `config.workers` lanes (and runtimes-per-count
    /// cap) and a `config.queue_depth`-deep queue.
    pub fn new(config: EngineConfig) -> Self {
        let config = config.normalized();
        let shared = Arc::new(EngineShared {
            config,
            queue: JobQueue::bounded(config.queue_depth),
            events: Arc::new(EventBus::new()),
            cache: Arc::new(ArtifactCache::with_budget(config.cache_budget)),
            pool: RuntimePool::new(config.workers),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            started: Instant::now(),
        });
        let lanes = (0..config.workers)
            .map(|lane| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("job-lane-{lane}"))
                    .spawn(move || {
                        while let Some((id, job)) = shared.queue.pop() {
                            shared.run_job(id, job);
                        }
                    })
                    .expect("spawn job lane")
            })
            .collect();
        JobEngine { shared, lanes }
    }

    /// An engine with `workers` lanes and the default queue depth.
    pub fn with_workers(workers: usize) -> Self {
        JobEngine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// Submit a job, blocking while the queue is full (backpressure).
    pub fn submit<T: Send + 'static>(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, SubmitError> {
        self.submit_inner(spec, false)
    }

    /// Submit without blocking: [`SubmitError::Full`] when the queue is at
    /// capacity (the spec is consumed either way).
    pub fn try_submit<T: Send + 'static>(
        &self,
        spec: JobSpec<T>,
    ) -> Result<JobHandle<T>, SubmitError> {
        self.submit_inner(spec, true)
    }

    fn submit_inner<T: Send + 'static>(
        &self,
        spec: JobSpec<T>,
        non_blocking: bool,
    ) -> Result<JobHandle<T>, SubmitError> {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let handle = Arc::new(HandleShared::new());
        let run = spec.run;
        let job = QueuedJob {
            name: spec.name.clone(),
            threads: spec.threads,
            exclusive: spec.exclusive,
            run: Box::new(move |ctx| Box::new(run(ctx)) as Box<dyn Any + Send>),
            handle: handle.clone(),
        };
        // Queued is emitted before the push so a lane's Started can never
        // precede it in the stream.
        shared.events.emit(JobEvent::Queued {
            job: id,
            name: spec.name.clone(),
        });
        let pushed = if non_blocking {
            shared.queue.try_push(id, job)
        } else {
            shared.queue.push(id, job)
        };
        match pushed {
            Ok(()) => {
                shared.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle {
                    id,
                    name: spec.name,
                    shared: handle,
                    engine: shared.clone(),
                    _result: PhantomData,
                })
            }
            Err((err, job)) => {
                // Balance the Queued event so subscribers see a terminal
                // state for every id they ever heard of.
                shared.finish_cancelled(id, &job.name, &job.handle);
                Err(err)
            }
        }
    }

    /// Subscribe to the engine's [`JobEvent`] stream with the default
    /// per-subscriber buffer bound (see
    /// [`EventSub`](super::events::EventSub): drop-oldest on overflow, so a
    /// stalled subscriber never blocks job progress).
    pub fn subscribe(&self) -> EventSub {
        self.shared.events.subscribe()
    }

    /// Subscribe with an explicit buffer capacity — larger for recorders
    /// that must not miss events, smaller for best-effort tails.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> EventSub {
        self.shared.events.subscribe_with_capacity(capacity)
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.shared.cache
    }

    /// The engine's (normalized) configuration.
    pub fn config(&self) -> EngineConfig {
        self.shared.config
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Counter snapshot. Alias of [`JobEngine::stats_snapshot`].
    pub fn stats(&self) -> EngineStats {
        self.stats_snapshot()
    }

    /// A single consistent snapshot of every engine counter: one pool-lock
    /// read, one cache-lock read, the atomics, the live queue length and
    /// the uptime — no lock juggling at call sites. What the `tersoff-run`
    /// footer and `tersoff-serve`'s `/metrics` report.
    pub fn stats_snapshot(&self) -> EngineStats {
        let s = &self.shared;
        let (runtimes_created, live_runtimes) = s.pool.counters();
        EngineStats {
            workers: s.config.workers,
            queue_depth: s.config.queue_depth,
            queue_len: s.queue.len(),
            submitted: s.submitted.load(Ordering::Relaxed),
            finished: s.finished.load(Ordering::Relaxed),
            faulted: s.faulted.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            runtimes_created,
            live_runtimes,
            cache: s.cache.stats(),
            uptime: s.started.elapsed(),
        }
    }

    /// Stop accepting jobs, drain the backlog, join the lanes, and return
    /// the final counter snapshot (what a server's drain footer reports).
    /// `Drop` does the same minus the snapshot; this form names the intent.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats_snapshot()
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
        // Every job is terminal and every event emitted: close the bus so
        // blocked subscribers (a server's event recorder, a streaming
        // client's tail) see a definitive end-of-stream.
        self.shared.events.close();
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::super::events::RecvError;
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn submit_and_wait_returns_the_value() {
        let engine = JobEngine::with_workers(2);
        let handle = engine
            .submit(JobSpec::new("answer", |_ctx| 41 + 1))
            .unwrap();
        match handle.wait() {
            JobOutcome::Finished(v) => assert_eq!(v, 42),
            other => panic!("expected Finished, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.submitted, stats.finished), (1, 1));
    }

    #[test]
    fn one_lane_runs_jobs_in_submission_order() {
        let engine = JobEngine::with_workers(1);
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..5)
            .map(|i| {
                let tx = tx.clone();
                engine
                    .submit(JobSpec::new(format!("job-{i}"), move |_ctx| {
                        tx.send(i).unwrap();
                        i
                    }))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let _ = handle.wait();
        }
        let order: Vec<i32> = rx.try_iter().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shared_jobs_pack_onto_one_runtime_per_thread_count() {
        let engine = JobEngine::with_workers(4);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("small-{i}"), |ctx| {
                        ctx.resolved_threads()
                    }))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert!(matches!(handle.wait(), JobOutcome::Finished(_)));
        }
        // All 8 shared their thread-count's single slot.
        assert_eq!(engine.stats().runtimes_created, 1);
    }

    #[test]
    fn exclusive_jobs_get_their_own_runtime() {
        let engine = JobEngine::with_workers(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let gate_rx = Arc::new(gate_rx);
        let slow = {
            let gate = gate_rx.clone();
            engine
                .submit(
                    JobSpec::new("slow", move |_ctx| {
                        let _ = lock_recover(&gate).recv();
                    })
                    .exclusive(true),
                )
                .unwrap()
        };
        // While "slow" holds its slot exclusively, a second exclusive job
        // must get a second runtime.
        let fast = engine
            .submit(JobSpec::new("fast", |_ctx| ()).exclusive(true))
            .unwrap();
        assert!(matches!(fast.wait(), JobOutcome::Finished(())));
        assert_eq!(engine.stats().runtimes_created, 2);
        gate_tx.send(()).unwrap();
        assert!(matches!(slow.wait(), JobOutcome::Finished(())));
    }

    #[test]
    fn a_panicking_job_faults_alone() {
        let engine = JobEngine::with_workers(1);
        let bad = engine
            .submit(JobSpec::new("bad", |_ctx| -> u32 {
                panic!("injected fault")
            }))
            .unwrap();
        let good = engine.submit(JobSpec::new("good", |_ctx| 7u32)).unwrap();
        match bad.wait() {
            JobOutcome::Faulted(msg) => assert!(msg.contains("injected fault"), "{msg}"),
            other => panic!("expected Faulted, got {other:?}"),
        }
        match good.wait() {
            JobOutcome::Finished(v) => assert_eq!(v, 7),
            other => panic!("expected Finished, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.finished, stats.faulted), (1, 1));
    }

    #[test]
    fn cancel_dequeues_pending_jobs_only() {
        let engine = JobEngine::with_workers(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = engine
            .submit(JobSpec::new("blocker", move |_ctx| {
                let _ = gate_rx.recv();
            }))
            .unwrap();
        // Only once the blocker is provably running is "pending" the next
        // queued job (and the blocker past the point of being dequeued).
        while blocker.poll() != JobStatus::Running {
            std::thread::yield_now();
        }
        let pending = engine.submit(JobSpec::new("pending", |_ctx| 1)).unwrap();
        assert!(pending.cancel(), "a queued job must be cancellable");
        assert!(matches!(pending.wait(), JobOutcome::Cancelled));
        gate_tx.send(()).unwrap();
        assert!(!blocker.cancel(), "a running job is not dequeued");
        assert!(matches!(blocker.wait(), JobOutcome::Finished(())));
        assert_eq!(engine.stats().cancelled, 1);
    }

    #[test]
    fn try_submit_reports_backpressure() {
        let engine = JobEngine::new(EngineConfig {
            workers: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        });
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = engine
            .submit(JobSpec::new("blocker", move |_ctx| {
                let _ = gate_rx.recv();
            }))
            .unwrap();
        // Wait until the lane has popped the blocker, so the queue slot is
        // provably free for the filler and the third submission hits a
        // full queue rather than a race.
        while engine.stats().submitted == 0 || engine.queue_len() > 0 {
            std::thread::yield_now();
        }
        let filler = engine.submit(JobSpec::new("filler", |_ctx| ())).unwrap();
        let overflow = engine.try_submit(JobSpec::new("overflow", |_ctx| ()));
        assert!(matches!(overflow, Err(SubmitError::Full)));
        gate_tx.send(()).unwrap();
        assert!(matches!(blocker.wait(), JobOutcome::Finished(())));
        assert!(matches!(filler.wait(), JobOutcome::Finished(())));
    }

    #[test]
    fn events_arrive_in_lifecycle_order_per_job() {
        let engine = JobEngine::with_workers(1);
        let events = engine.subscribe();
        let handle = engine
            .submit(JobSpec::new("observed", |ctx| {
                ctx.emit_thermo(5, -4.2, 300.0);
                ctx.emit_checkpoint(5);
            }))
            .unwrap();
        let id = handle.id();
        assert!(matches!(handle.wait(), JobOutcome::Finished(())));
        let kinds: Vec<&'static str> = events
            .try_iter()
            .filter(|e| e.job() == id)
            .map(|e| e.kind())
            .collect();
        assert_eq!(
            kinds,
            vec!["queued", "started", "thermo", "checkpoint", "finished"]
        );
    }

    #[test]
    fn a_terminal_event_is_never_ahead_of_poll() {
        // The subscriber spins on its buffer, so it sees each terminal
        // event as soon as the lane emits it: `poll()` must already be
        // terminal then, or a client that follows the stream to its end
        // and asks for the status could read `running`.
        let engine = JobEngine::with_workers(1);
        let events = engine.subscribe();
        for i in 0..60u32 {
            let fault = i % 6 == 5;
            let handle = engine
                .submit(JobSpec::new(format!("order-{i}"), move |_ctx| {
                    assert!(!fault, "injected fault");
                    i
                }))
                .unwrap();
            let kind = loop {
                match events.try_recv() {
                    Ok(event)
                        if event.job() == handle.id()
                            && matches!(event.kind(), "finished" | "faulted") =>
                    {
                        break event.kind()
                    }
                    Ok(_) | Err(RecvError::Empty) => std::hint::spin_loop(),
                    Err(RecvError::Closed) => panic!("the bus closed early"),
                }
            };
            let expected = if fault {
                ("faulted", JobStatus::Faulted)
            } else {
                ("finished", JobStatus::Finished)
            };
            assert_eq!((kind, handle.poll()), expected, "job {i}");
        }
        let stats = engine.stats();
        assert_eq!((stats.finished, stats.faulted), (50, 10));
    }

    #[test]
    fn a_stalled_subscriber_never_blocks_job_progress() {
        // A subscriber with a 2-event buffer that never drains: if
        // emission could block on it, the batch below would wedge. It
        // must instead finish completely, with the stalled subscriber
        // holding only the newest 2 events and an honest lag count.
        let engine = JobEngine::with_workers(2);
        let stalled = engine.subscribe_with_capacity(2);
        let handles: Vec<_> = (0..10)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("burst-{i}"), |ctx| {
                        ctx.emit_thermo(0, -1.0, 300.0);
                    }))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert!(matches!(handle.wait(), JobOutcome::Finished(())));
        }
        let stats = engine.stats();
        assert_eq!(stats.finished, 10, "every job finished despite the stall");
        // 10 jobs x (queued + started + thermo + finished) = 40 events
        // were emitted; the stalled subscriber kept 2 and lagged the rest.
        let kept = stalled.try_iter().count();
        assert_eq!(kept, 2);
        assert_eq!(stalled.lagged(), 38);
    }

    #[test]
    fn shutdown_returns_final_stats_and_closes_the_event_stream() {
        let engine = JobEngine::with_workers(1);
        let events = engine.subscribe();
        let handle = engine.submit(JobSpec::new("only", |_ctx| 3u8)).unwrap();
        assert!(matches!(handle.wait(), JobOutcome::Finished(3)));
        let stats = engine.shutdown();
        assert_eq!((stats.submitted, stats.finished), (1, 1));
        assert_eq!(stats.queue_len, 0);
        // Buffered events drain, then the closed bus is definitive.
        let kinds: Vec<_> = events.try_iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["queued", "started", "finished"]);
        assert_eq!(events.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn refresh_runtime_retires_the_old_slot() {
        let engine = JobEngine::with_workers(1);
        let handle = engine
            .submit(JobSpec::new("refresh", |ctx| {
                let before = ctx.resolved_threads();
                ctx.refresh_runtime();
                assert_eq!(ctx.resolved_threads(), before);
            }))
            .unwrap();
        assert!(matches!(handle.wait(), JobOutcome::Finished(())));
        let stats = engine.stats();
        assert_eq!(stats.runtimes_created, 2);
        // The poisoned original was dropped on release.
        assert_eq!(stats.live_runtimes, 1);
    }

    #[test]
    fn drop_drains_the_backlog() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let engine = JobEngine::with_workers(2);
            for i in 0..6 {
                let counter = counter.clone();
                engine
                    .submit(JobSpec::new(format!("drain-{i}"), move |_ctx| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }))
                    .unwrap();
            }
            // Handles dropped without wait(); Drop must still run them all.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }
}
