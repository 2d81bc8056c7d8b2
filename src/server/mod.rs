//! `tersoff-serve`: a long-running HTTP front end for the
//! [`JobEngine`](md_core::jobs::JobEngine).
//!
//! The module family splits along the same seams as the engine itself:
//!
//! - [`http`] — a hand-rolled HTTP/1.1 wire layer over
//!   [`std::net::TcpListener`] (no new crates): bounded request parsing,
//!   fixed-length responses, chunked transfer encoding for streams.
//! - `api` — routing and handlers: strict-JSON scenario intake, typed job
//!   status, queue-level cancel, NDJSON event streaming, Prometheus
//!   `/metrics`.
//! - `state` — the shared [`JobEngine`] plus the job registry that turns
//!   consume-on-wait job handles into poll-forever HTTP resources, and the
//!   per-job event logs fed by a single recorder thread.
//!
//! # Threading model
//!
//! One accept loop blocks in `accept` and spawns a thread per connection
//! (each serves exactly one request — `Connection: close`), so a request
//! waits for nothing but its own work. One recorder thread drains the
//! engine's [`EventBus`](md_core::jobs::EventBus) into per-job append-only
//! logs; it subscribes with a deep buffer *before* the first connection is
//! accepted so no `queued` event can be missed, and a stalled streaming
//! client can never block job progress (subscriptions are bounded,
//! drop-oldest). The registry keeps every live job and the newest
//! `RETAINED_FINISHED` (64) finished ones, so a long-running server holds
//! a bounded amount of job state.
//!
//! Connections are not kept alive across requests. One request per
//! connection keeps joining the connection threads equal to joining the
//! in-flight requests, and clients that read each response to EOF (the
//! ledger's does) would hang on a connection the server kept open.
//!
//! # Graceful shutdown
//!
//! SIGTERM / ctrl-c (wired up by the binary) or `POST /v1/shutdown` set one
//! flag. From that point intake answers `503`, but the server keeps
//! serving: clients can still poll job status and follow event streams
//! while the engine's lanes drain the queue. Once every accepted job is
//! terminal, [`Server::join`] sets the accept loop's stop flag and wakes
//! the blocked `accept` by connecting to the server's own address (the
//! loopback address of the same family when bound to `0.0.0.0` or `[::]`).
//! The loop then drops the listener and joins the in-flight connections,
//! and `join` runs
//! [`JobEngine::shutdown`](md_core::jobs::JobEngine::shutdown), which
//! closes the event bus (ending the recorder) and returns the final
//! [`EngineStats`] for the drain footer.

pub mod http;

mod api;
mod state;

use md_core::jobs::{CacheBudget, EngineConfig, EngineStats, JobEngine};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use state::{run_recorder, Registry, ServerState};

/// How often [`Server::join`] re-checks the shutdown flag and the drain.
/// Requests never wait on it.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// How long the accept loop backs off after a failed `accept` (say, out of
/// file descriptors), and how long [`Server::join`] waits between wake-up
/// connections.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// The recorder's subscription depth. Deep because the recorder is the
/// server's source of truth for event replay; it drains continuously, so
/// this bound only matters under extreme thermo rates.
const RECORDER_SUB_CAPACITY: usize = 1 << 16;

/// How a [`Server`] is sized.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Engine lane threads (0 → [`EngineConfig`] default).
    pub workers: usize,
    /// Engine queue capacity — the backpressure bound behind `429`
    /// (0 → [`EngineConfig`] default).
    pub queue_depth: usize,
    /// Artifact-cache retention budget. Unlike the one-shot CLI, a server
    /// defaults to real bounds so the cache cannot grow without limit.
    pub cache_budget: CacheBudget,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 0,
            cache_budget: CacheBudget {
                max_entries: 256,
                max_bytes: 256 * 1024 * 1024,
            },
        }
    }
}

/// A running `tersoff-serve` instance: listener bound, accept loop and
/// recorder spawned, engine live. Dropping without [`Server::join`] still
/// shuts the engine down (its own `Drop`), but skips the graceful drain
/// ordering — call `join`.
pub struct Server {
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    stop_accepting: Arc<AtomicBool>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    recorder: JoinHandle<()>,
}

impl Server {
    /// Bind `config.addr`, start the engine, the recorder and the accept
    /// loop, and return the running server.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let defaults = EngineConfig::default();
        let engine = JobEngine::new(EngineConfig {
            workers: if config.workers == 0 {
                defaults.workers
            } else {
                config.workers
            },
            queue_depth: if config.queue_depth == 0 {
                defaults.queue_depth
            } else {
                config.queue_depth
            },
            cache_budget: config.cache_budget,
        });

        // Subscribe before any connection can submit: the recorder must
        // see every job's `queued` event.
        let registry = Arc::new(Registry::default());
        let sub = engine.subscribe_with_capacity(RECORDER_SUB_CAPACITY);
        let recorder_registry = registry.clone();
        let recorder = thread::Builder::new()
            .name("serve-recorder".to_string())
            .spawn(move || run_recorder(sub, recorder_registry))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(ServerState {
            engine,
            registry,
            shutdown: shutdown.clone(),
            started: Instant::now(),
            http_requests: AtomicU64::new(0),
        });
        let stop_accepting = Arc::new(AtomicBool::new(false));
        let accept_state = state.clone();
        let accept_stop = stop_accepting.clone();
        let accept = thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state, accept_stop))?;

        Ok(Server {
            state,
            shutdown,
            stop_accepting,
            addr,
            accept,
            recorder,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle the binary's signal bridge can set to begin the drain —
    /// identical in effect to `POST /v1/shutdown`.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Begin graceful shutdown from the owning thread.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until shutdown is requested, then drain: keep serving (intake
    /// answers `503`, status polls and event streams still work) until
    /// every accepted job is terminal, then close the listener, join the
    /// in-flight connections, and return the engine's final counters from
    /// [`JobEngine::shutdown`](md_core::jobs::JobEngine::shutdown).
    pub fn join(self) -> EngineStats {
        while !self.shutdown.load(Ordering::SeqCst) {
            thread::sleep(DRAIN_POLL);
        }
        // Drain while still serving: clients can poll results and follow
        // streams to their terminal events, and the `503` intake answer is
        // actually observable. Unregistered work (a 429 rollback's
        // still-running first variant, a submit racing the flag) is
        // invisible to clients and covered by the engine shutdown below,
        // which drains its queue before joining.
        while self.state.engine.stats_snapshot().queue_len > 0
            || !self.state.registry.all_terminal()
        {
            thread::sleep(DRAIN_POLL);
        }
        self.stop_accepting.store(true, Ordering::SeqCst);
        // The accept loop checks the stop flag each time `accept` returns:
        // connect until it has seen the flag and exited. It joins every
        // connection thread before returning.
        let wake = wake_addr(self.addr);
        while !self.accept.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            thread::sleep(ACCEPT_RETRY);
        }
        let _ = self.accept.join();
        // Connection threads are gone — this Arc is now sole (the recorder
        // holds only the registry). Spin defensively anyway.
        let mut state = self.state;
        let state = loop {
            match Arc::try_unwrap(state) {
                Ok(state) => break state,
                Err(shared) => {
                    state = shared;
                    thread::sleep(Duration::from_millis(5));
                }
            }
        };
        // Drains queued + running jobs, then closes the event bus, which
        // ends the recorder loop.
        let stats = state.engine.shutdown();
        let _ = self.recorder.join();
        stats
    }
}

/// Where [`Server::join`] connects to wake the accept loop: the bound
/// address, or loopback in the same family when bound to every interface.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Accept until the stop flag is set (after the drain — the server keeps
/// serving while draining), one thread per connection; then join the
/// in-flight connections and drop (close) the listener. `accept` blocks;
/// [`Server::join`] wakes it with a connection of its own.
fn accept_loop(listener: TcpListener, state: Arc<ServerState>, stop: Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_state = state.clone();
                if let Ok(handle) = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || api::handle_connection(&conn_state, stream))
                {
                    connections.push(handle);
                }
                connections.retain(|handle| !handle.is_finished());
            }
            Err(_) => thread::sleep(ACCEPT_RETRY),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}
