//! The hardened query server.
//!
//! One acceptor thread, one reader thread per connection, and a fixed
//! pool of worker threads around a bounded queue:
//!
//! ```text
//! accept ─▶ reader ──(admit)──▶ bounded queue ──▶ worker pool ──▶ writer
//!              │                     │                              (per-conn
//!              └── inline: Introspect, BadRequest, Overloaded,       mutex)
//!                  ShuttingDown — never needs worker capacity
//! ```
//!
//! Robustness is the load-bearing feature:
//!
//! * **Deadlines.** Every request carries a monotonic budget fixed at
//!   admission ([`crate::deadline::Deadline`]); workers check it before
//!   dispatch and at analysis-loop safepoints, so an expired request is
//!   a typed `Timeout`, never a hang.
//! * **Backpressure.** Admission is a bounded queue; at capacity the
//!   *reader* answers `Overloaded` (with the observed depth) directly —
//!   load-shedding must not consume the resource that is exhausted.
//! * **Panic containment.** Each request body runs under
//!   `catch_unwind`; a poisoned query becomes a typed `Internal` error
//!   and the worker, the connection, and the shared [`Igdb`] /
//!   corridor-cache state all keep serving.
//! * **Graceful drain.** [`Server::drain`] stops admissions (typed
//!   `ShuttingDown`), lets workers finish everything already queued,
//!   then closes connections and joins every thread — no response is
//!   abandoned in the queue.
//!
//! # Metric classes
//!
//! Deterministic counters (in the gated snapshot): `serve.requests{kind}`
//! and `serve.bytes_in{kind}` at admission, `serve.ok{kind}` and
//! `serve.bytes_out{kind}` on success — pure functions of the accepted
//! workload, worker-count invariant. Everything timing- or
//! scheduling-shaped is perf-class: `serve.rejects{shed|shutting_down|
//! bad_request}` (reader-side refusals), `serve.err{name}` (worker-side
//! failures), `serve.bytes_out_err{kind}` (error-response bytes — which
//! requests fail depends on timing), `serve.conns{…}` lifecycle tallies,
//! `serve.write_errors`, and the `serve.queue_depth` /
//! `serve.queue_wait_us` / `serve.request_us{kind}` histograms.
//!
//! # Request-scoped tracing
//!
//! The reader opens an [`igdb_obs::TraceContext`] per admitted request
//! (trace id = connection id + frame correlation id) and ships it through
//! the queue in the [`Job`]. The worker installs it for the request's
//! lifetime, so the analyses' free spans build the request's own tree —
//! `request → queue.wait / execute / encode` — instead of being gagged:
//! the registry's serial span list (determinism rule 2) never sees a pool
//! thread, and completed traces land in the [`FlightRecorder`] (ring,
//! slow-query log, per-client accounting, epoch-pin visibility).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use igdb_core::analysis::{footprint, risk};
use igdb_core::serving::panic_detail;
use igdb_core::{EpochHandle, Igdb, SpWorkspace};
use igdb_fault::ServeError;
use igdb_geo::{GeoPoint, Polygon};
use igdb_obs::{Registry, TraceContext};

use crate::deadline::Deadline;
use crate::proto::{
    read_frame, write_frame, FrameError, Introspection, Request, Response, DEFAULT_MAX_FRAME,
    HEADER_LEN,
};
use crate::recorder::{FlightRecorder, RecorderConfig, RequestTrace};

/// Server tuning knobs. The defaults suit an interactive deployment;
/// the chaos tests shrink the timeouts and the queue to make every
/// failure mode reachable in milliseconds.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; 0 means [`igdb_par::num_threads`].
    pub workers: usize,
    /// Bounded queue capacity; admissions beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied when a request's `deadline_ms` field is 0.
    pub default_deadline: Duration,
    /// Socket read/write timeout: a peer stalled mid-frame longer than
    /// this is cut off with a typed error (slow-loris defense).
    pub io_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame: u32,
    /// Whether the chaos instruments (`Sleep`, `Panic`) decode.
    pub enable_test_ops: bool,
    /// Flight-recorder ring capacity (completed request traces kept).
    pub trace_ring: usize,
    /// Requests whose wall time is at or above this go to the slow-query
    /// log; 0 disables slow classification.
    pub slow_ms: u64,
    /// Where slow-query traces are appended as span JSONL; `None` keeps
    /// them in the ring only.
    pub slow_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 32,
            default_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            max_frame: DEFAULT_MAX_FRAME,
            enable_test_ops: false,
            trace_ring: 256,
            slow_ms: 0,
            slow_log: None,
        }
    }
}

/// Where a server listens / a client connects.
#[derive(Clone, Debug)]
pub enum ServerAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp://{a}"),
            ServerAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

impl ServerAddr {
    /// Opens a client-side stream to this address.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            ServerAddr::Tcp(a) => TcpStream::connect(a).map(Stream::Tcp),
            ServerAddr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
        }
    }
}

/// A connected byte stream, TCP or unix-domain.
#[derive(Debug)]
pub enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    pub fn set_timeouts(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Half-close the write side (the read side keeps draining — lets a
    /// chaos client stop sending yet still collect the typed error).
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket. Unix listeners own their socket file and
/// remove it on drop.
pub enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a TCP listener (use port 0 for an ephemeral port).
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// Binds a unix-domain listener, replacing a stale socket file.
    pub fn bind_unix(path: &Path) -> io::Result<Listener> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        UnixListener::bind(path).map(|l| Listener::Unix(l, path.to_path_buf()))
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> io::Result<ServerAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().map(ServerAddr::Tcp),
            Listener::Unix(_, p) => Ok(ServerAddr::Unix(p.clone())),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// One admitted request waiting for (or holding) a worker.
struct Job {
    writer: Arc<ConnWriter>,
    id: u64,
    req: Request,
    deadline: Deadline,
    enqueued: Instant,
    /// The request's own span tree, opened by the reader at admission
    /// and installed by whichever worker picks the job up.
    trace: TraceContext,
    /// Server-assigned connection id (per-client accounting key).
    conn: u64,
    /// Full frame bytes (header + payload) this request arrived as.
    bytes_in: u64,
}

/// The per-connection response writer. Workers and the reader share it;
/// the mutex makes each frame write atomic, so interleaved responses
/// from concurrent requests on one connection never tear.
struct ConnWriter {
    stream: Mutex<Stream>,
}

impl ConnWriter {
    fn send(&self, id: u64, resp: &Response) -> io::Result<()> {
        self.send_raw(id, resp.tag(), &resp.encode_payload())
    }

    /// Frame-write a pre-encoded payload (workers encode under the
    /// request's `encode` span, then hand the bytes here).
    fn send_raw(&self, id: u64, tag: u8, payload: &[u8]) -> io::Result<()> {
        let mut s = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *s, id, 0, tag, payload)
    }
}

struct Shared {
    /// Epoch-versioned world: a request pins the current epoch once at
    /// dispatch and uses that world for its whole lifetime, so a delta
    /// published mid-request never tears it. See [`igdb_core::epoch`].
    epochs: Arc<EpochHandle>,
    cfg: ServerConfig,
    reg: Registry,
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that the queue (or drain flag) changed.
    data: Condvar,
    draining: AtomicBool,
    busy: AtomicUsize,
    /// Clones of every live connection, for shutdown during drain.
    conns: Mutex<Vec<Stream>>,
    /// Reader threads spawned so far (joined by drain).
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Completed-request traces, slow-query log, per-client ledger.
    recorder: FlightRecorder,
    /// When the server came up (introspection uptime).
    started: Instant,
    /// Next connection id (1-based; 0 means "no connection").
    next_conn: AtomicU64,
    /// Resolved worker-thread count (introspection).
    workers_n: usize,
}

impl Shared {
    /// Admission control. `Ok` means a worker will answer; `Err` is
    /// written back by the *reader* — shedding never waits on a worker.
    fn admit(&self, job: Job) -> Result<(), ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            self.reg.perf_add("serve.rejects", "shutting_down", 1);
            return Err(ServeError::ShuttingDown);
        }
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cfg.queue_capacity {
            let depth = q.len() as u32;
            drop(q);
            self.reg.perf_add("serve.rejects", "shed", 1);
            return Err(ServeError::Overloaded { queue_depth: depth });
        }
        self.reg.counter_add("serve.requests", job.req.kind(), 1);
        self.reg
            .counter_add("serve.bytes_in", job.req.kind(), job.bytes_in);
        self.recorder.on_admit(job.conn, job.bytes_in);
        q.push_back(job);
        let depth = q.len() as u64;
        drop(q);
        self.reg.observe("serve.queue_depth", "", depth);
        self.data.notify_one();
        Ok(())
    }

    /// Blocks until a job is available; `None` once draining *and* the
    /// queue is empty (drain finishes queued work before stopping).
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(j) = q.pop_front() {
                return Some(j);
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            q = self.data.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// One live introspection snapshot: liveness gauges plus the flight
    /// recorder's ledger, client table, ring summary and epoch pins, plus
    /// the registry's deterministic counter text (so `igdb top` can show
    /// the gated stream without a second op).
    fn introspect(&self) -> Introspection {
        let epoch = self.epochs.current();
        Introspection {
            epoch: epoch.number,
            uptime_us: self.started.elapsed().as_micros() as u64,
            workers: self.workers_n as u32,
            busy_workers: self.busy.load(Ordering::SeqCst) as u32,
            queue_depth: self.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as u32,
            queue_capacity: self.cfg.queue_capacity as u32,
            n_metros: epoch.igdb.metros.len() as u32,
            draining: self.draining.load(Ordering::SeqCst),
            recorder: self.recorder.snapshot(),
            counters: self.reg.counter_snapshot(),
        }
    }
}

/// What [`Server::drain`] hands back once every thread has joined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Successful responses, summed over request kinds (`serve.ok`).
    pub served: u64,
    /// Worker-side typed errors (`serve.err`, all labels).
    pub errors: u64,
    /// Reader-side refusals (`serve.rejects`, all labels).
    pub rejects: u64,
}

/// A running server; dropping it without [`drain`](Self::drain) aborts
/// the process-local threads unconditionally (prefer drain).
pub struct Server {
    shared: Arc<Shared>,
    addr: ServerAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// All request kinds, for summing per-kind counters.
pub const KINDS: [&str; 8] = [
    "ping",
    "sp_query",
    "sp_batch",
    "risk",
    "footprint",
    "sleep",
    "panic",
    "introspect",
];

impl Server {
    /// Starts serving on `listener`. The shared [`Igdb`]'s physical
    /// graph is built *here*, serially, under `reg` — a serving deployment
    /// pays for it once at startup, and the warm-up span lands in the
    /// deterministic stream in a fixed shape.
    pub fn start(
        igdb: Arc<Igdb>,
        listener: Listener,
        cfg: ServerConfig,
        reg: Registry,
    ) -> io::Result<Server> {
        let addr = listener.addr()?;
        {
            let _g = reg.install();
            let _span = igdb_obs::span("serve.prepare");
            igdb.phys_graph();
        }
        let workers = if cfg.workers == 0 {
            igdb_par::num_threads()
        } else {
            cfg.workers
        };
        let recorder = FlightRecorder::new(RecorderConfig {
            ring: cfg.trace_ring,
            slow_ms: cfg.slow_ms,
            slow_log: cfg.slow_log.clone(),
        })?;
        let shared = Arc::new(Shared {
            epochs: Arc::new(EpochHandle::new_shared(igdb)),
            cfg,
            reg,
            queue: Mutex::new(VecDeque::new()),
            data: Condvar::new(),
            draining: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            recorder,
            started: Instant::now(),
            next_conn: AtomicU64::new(0),
            workers_n: workers,
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("igdb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("igdb-serve-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The address clients should connect to (resolved, so an ephemeral
    /// TCP port is concrete here).
    pub fn addr(&self) -> ServerAddr {
        self.addr.clone()
    }

    /// The registry the server records into.
    pub fn registry(&self) -> Registry {
        self.shared.reg.clone()
    }

    /// The epoch handle the workers pin from. A writer (delta-ingestion
    /// loop, test harness) builds the next world on its own time and
    /// publishes here; in-flight requests finish on the epoch they
    /// pinned, new requests see the new one.
    pub fn epochs(&self) -> Arc<EpochHandle> {
        Arc::clone(&self.shared.epochs)
    }

    /// The flight recorder's current ring contents, oldest first
    /// (tests and in-process tooling; the wire gets [`Self::introspection`]).
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.shared.recorder.traces()
    }

    /// The same snapshot the `Introspect` op answers with.
    pub fn introspection(&self) -> Introspection {
        self.shared.introspect()
    }

    /// Graceful shutdown: stop admitting (new requests get a typed
    /// `ShuttingDown`), finish everything already queued, write every
    /// response, then close connections and join all threads.
    pub fn drain(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.data.notify_all();
        // Workers first: the queue must be empty and every in-flight
        // response written before any connection is torn down.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unblock the acceptor with a wake-up connection, then close
        // every live connection so blocked readers return.
        let _ = self.addr.connect();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for c in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = c.shutdown();
        }
        let readers: Vec<_> = self
            .shared
            .readers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for r in readers {
            let _ = r.join();
        }
        self.shared.recorder.flush();
        let reg = &self.shared.reg;
        let served = KINDS.iter().map(|k| reg.counter_value("serve.ok", k)).sum();
        let errors = ServeError::NAMES
            .iter()
            .map(|n| reg.perf_value("serve.err", n))
            .sum();
        let rejects = ["shed", "shutting_down", "bad_request"]
            .iter()
            .map(|n| reg.perf_value("serve.rejects", n))
            .sum();
        DrainReport {
            served,
            errors,
            rejects,
        }
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The drain wake-up (or a late client): close and exit.
            let _ = stream.shutdown();
            return;
        }
        let _ = stream.set_timeouts(Some(shared.cfg.io_timeout));
        shared.reg.perf_add("serve.conns", "opened", 1);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(clone);
        }
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("igdb-serve-reader".into())
            .spawn(move || reader_loop(&shared2, stream))
            .expect("spawn reader");
        shared
            .readers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

/// Per-connection read loop: decode, admit, and answer everything that
/// must not depend on worker capacity (control ops and refusals).
fn reader_loop(shared: &Arc<Shared>, stream: Stream) {
    let _ins = shared.reg.install();
    let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst) + 1;
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
        }),
        Err(_) => {
            shared.reg.perf_add("serve.conns", "closed_error", 1);
            return;
        }
    };
    let mut reader = stream;
    let close_label = loop {
        match read_frame(&mut reader, shared.cfg.max_frame) {
            Ok(frame) => {
                let bytes_in = (HEADER_LEN + frame.payload.len()) as u64;
                match Request::decode(frame.op, &frame.payload) {
                    Ok(req) => {
                        // Control plane: answered inline, never queued.
                        if matches!(req, Request::Introspect) {
                            shared.reg.perf_add("serve.control", "introspect", 1);
                            let resp = Response::Introspect(Box::new(shared.introspect()));
                            if writer.send(frame.id, &resp).is_err() {
                                shared.reg.perf_add("serve.write_errors", "", 1);
                                break "closed_error";
                            }
                            continue;
                        }
                        if matches!(req, Request::Sleep { .. } | Request::Panic)
                            && !shared.cfg.enable_test_ops
                        {
                            shared.reg.perf_add("serve.rejects", "bad_request", 1);
                            let e = ServeError::BadRequest {
                                detail: "test op on a production server".into(),
                            };
                            shared.recorder.on_reject(conn, &e);
                            if writer.send(frame.id, &Response::Error(e)).is_err() {
                                shared.reg.perf_add("serve.write_errors", "", 1);
                                break "closed_error";
                            }
                            continue;
                        }
                        let budget = if frame.deadline_ms == 0 {
                            shared.cfg.default_deadline
                        } else {
                            Duration::from_millis(frame.deadline_ms as u64)
                        };
                        let job = Job {
                            trace: TraceContext::new(conn, frame.id, req.kind()),
                            writer: Arc::clone(&writer),
                            id: frame.id,
                            req,
                            deadline: Deadline::after(budget),
                            enqueued: Instant::now(),
                            conn,
                            bytes_in,
                        };
                        if let Err(e) = shared.admit(job) {
                            // Refusal (shed / shutting down): typed, inline.
                            shared.recorder.on_reject(conn, &e);
                            if writer.send(frame.id, &Response::Error(e)).is_err() {
                                shared.reg.perf_add("serve.write_errors", "", 1);
                                break "closed_error";
                            }
                        }
                    }
                    Err(pe) => {
                        // The frame parsed but its payload didn't: answer
                        // typed, then close — the stream may be
                        // desynchronized past this point.
                        shared.reg.perf_add("serve.rejects", "bad_request", 1);
                        let e = ServeError::BadRequest {
                            detail: pe.to_string(),
                        };
                        shared.recorder.on_reject(conn, &e);
                        let _ = writer.send(frame.id, &Response::Error(e));
                        break "closed_proto";
                    }
                }
            }
            Err(FrameError::CleanEof) => break "closed_eof",
            Err(FrameError::IdleTimeout) => {
                // Idle between frames: harmless, but a natural moment to
                // notice a drain and stop holding the socket open.
                if shared.draining.load(Ordering::SeqCst) {
                    break "closed_drain";
                }
                continue;
            }
            Err(e) if e.is_stall() => {
                // Slow-loris: the peer stalled mid-frame past io_timeout.
                shared.reg.perf_add("serve.rejects", "bad_request", 1);
                let err = ServeError::BadRequest {
                    detail: "stalled mid-frame past the io timeout".into(),
                };
                shared.recorder.on_reject(conn, &err);
                let _ = writer.send(0, &Response::Error(err));
                break "closed_stall";
            }
            Err(FrameError::Proto(pe)) => {
                // Unframeable bytes: one typed error, then hang up.
                shared.reg.perf_add("serve.rejects", "bad_request", 1);
                let e = ServeError::BadRequest {
                    detail: pe.to_string(),
                };
                shared.recorder.on_reject(conn, &e);
                let _ = writer.send(0, &Response::Error(e));
                break "closed_proto";
            }
            Err(FrameError::Io(_)) => break "closed_error",
        }
    };
    // On a drain-notice exit the socket stays open: responses for this
    // connection's admitted requests may still be in flight, and drain
    // closes every connection itself once the workers have joined.
    // Every other exit reason means the stream is dead or desynchronized.
    if close_label != "closed_drain" {
        let _ = reader.shutdown();
    }
    shared.reg.perf_add("serve.conns", close_label, 1);
}

fn worker_loop(shared: &Arc<Shared>) {
    let _ins = shared.reg.install();
    let mut ws = SpWorkspace::new();
    while let Some(job) = shared.next_job() {
        shared.busy.fetch_add(1, Ordering::SeqCst);
        let wait_us = job.enqueued.elapsed().as_micros() as u64;
        shared.reg.observe("serve.queue_wait_us", "", wait_us);
        let kind = job.req.kind();
        // Install the request's trace for this job's lifetime: the
        // analyses' free spans route here (never to the registry's
        // serial span list), and the cross-thread queue wait — which
        // this thread never *observed* as an open span — is backfilled
        // as a closed child of the root.
        let trace = job.trace.clone();
        let _t = trace.install();
        trace.record("queue.wait", trace.offset_us(job.enqueued), wait_us);
        let (resp, pinned_no, pinned_at) = if let Err(e) = job.deadline.check() {
            // Expired while queued: don't burn a worker on a dead
            // request. No epoch is pinned; account against the current
            // one so the trace still says what world it *would* have
            // seen.
            let cur = shared.epochs.current();
            (Response::Error(e), cur.number, cur.published_at)
        } else {
            // Pin once per request: everything this request touches —
            // graph, corridors, tables — comes from one epoch, even if a
            // delta is published while it runs.
            let epoch = shared.epochs.current();
            let resp = {
                let _exec = igdb_obs::span("execute");
                let timer = igdb_obs::hist_timer("serve.request_us", kind);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    execute(&epoch.igdb, &mut ws, &job.req, &job.deadline)
                }));
                drop(timer);
                match outcome {
                    Ok(Ok(resp)) => {
                        igdb_obs::counter("serve.ok", kind, 1);
                        resp
                    }
                    Ok(Err(e)) => Response::Error(e),
                    Err(payload) => {
                        // Containment boundary: the panic stops here; the
                        // worker, its workspace (generation-stamped, safe
                        // to reuse), and the shared caches all keep
                        // serving. (`&*payload`: the box must deref
                        // before the unsize, or the Box itself becomes
                        // the `dyn Any` and every downcast misses.)
                        Response::Error(ServeError::Internal {
                            detail: panic_detail(&*payload),
                        })
                    }
                }
            };
            (resp, epoch.number, epoch.published_at)
        };
        let err_code = match &resp {
            Response::Error(e) => {
                igdb_obs::perf("serve.err", e.name(), 1);
                Some(e.code())
            }
            _ => None,
        };
        let bytes_out;
        {
            let _enc = igdb_obs::span("encode");
            let payload = resp.encode_payload();
            bytes_out = (HEADER_LEN + payload.len()) as u64;
            if job.writer.send_raw(job.id, resp.tag(), &payload).is_err() {
                // The peer vanished mid-request; the response is still
                // accounted (ok/err above), this only tallies the lost
                // write.
                igdb_obs::perf("serve.write_errors", "", 1);
            }
        }
        if err_code.is_none() {
            // Success payloads are deterministic (SP-equivalence makes
            // them bit-identical across modes), so their bytes gate.
            igdb_obs::counter("serve.bytes_out", kind, bytes_out);
        } else {
            // Which requests fail is timing-shaped: perf-class.
            igdb_obs::perf("serve.bytes_out_err", kind, bytes_out);
        }
        drop(_t);
        let newest = shared.epochs.current();
        let start_offset_us = trace
            .started()
            .saturating_duration_since(shared.recorder.started())
            .as_micros() as u64;
        let record = trace.finish();
        shared.recorder.on_done(
            RequestTrace {
                conn: job.conn,
                corr: job.id,
                kind,
                epoch: pinned_no,
                err_code,
                queue_wait_us: wait_us,
                bytes_in: job.bytes_in,
                bytes_out,
                start_offset_us,
                record,
            },
            pinned_at,
            (newest.number, newest.published_at),
        );
        shared.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executes one request body. Everything here runs under the worker's
/// `catch_unwind`; `Err` is a typed refusal, a panic is contained above.
fn execute(
    igdb: &Igdb,
    ws: &mut SpWorkspace,
    req: &Request,
    deadline: &Deadline,
) -> Result<Response, ServeError> {
    deadline.check()?;
    let n_metros = igdb.metros.len();
    let check_metro = |m: u32| -> Result<usize, ServeError> {
        if (m as usize) < n_metros {
            Ok(m as usize)
        } else {
            Err(ServeError::BadRequest {
                detail: format!("metro id {m} out of range (database has {n_metros})"),
            })
        }
    };
    match req {
        Request::Ping => Ok(Response::Pong),
        Request::SpQuery { from, to } => {
            let (from, to) = (check_metro(*from)?, check_metro(*to)?);
            let pg = igdb.phys_graph();
            match pg.shortest_path_cached(ws, from, to) {
                Some((path, km)) => Ok(Response::Path {
                    hops: path.len().saturating_sub(1) as u32,
                    km,
                }),
                None => Ok(Response::NoRoute),
            }
        }
        Request::SpBatch { pairs } => {
            let pg = igdb.phys_graph();
            let (mut routed, mut unreachable, mut total_km) = (0u32, 0u32, 0.0f64);
            for &(a, b) in pairs {
                // The batch safepoint: a deadline storm expires here,
                // mid-batch, instead of hanging to completion.
                deadline.check()?;
                let (a, b) = (check_metro(a)?, check_metro(b)?);
                match pg.shortest_path_cached(ws, a, b) {
                    Some((_, km)) => {
                        routed += 1;
                        total_km += km;
                    }
                    None => unreachable += 1,
                }
            }
            Ok(Response::Batch {
                routed,
                unreachable,
                total_km,
            })
        }
        Request::RiskExposure {
            west,
            south,
            east,
            north,
        } => {
            let finite = [west, south, east, north].iter().all(|v| v.is_finite());
            if !finite || west >= east || south >= north {
                return Err(ServeError::BadRequest {
                    detail: "risk bbox wants finite west<east, south<north".into(),
                });
            }
            let region = Polygon::new(
                vec![
                    GeoPoint::raw(*west, *south),
                    GeoPoint::raw(*east, *south),
                    GeoPoint::raw(*east, *north),
                    GeoPoint::raw(*west, *north),
                ],
                vec![],
            );
            let report = risk::exposure(igdb, &region);
            Ok(Response::Risk {
                paths: report.paths_at_risk.len() as u32,
                cables: report.cables_at_risk.len() as u32,
                metros: report.metros_in_region.len() as u32,
                ases: report.ases_exposed.len() as u32,
            })
        }
        Request::Footprint { top_n } => {
            if *top_n == 0 || *top_n > 1000 {
                return Err(ServeError::BadRequest {
                    detail: "footprint top_n wants 1..=1000".into(),
                });
            }
            let rows = footprint::top_by_countries(igdb, *top_n as usize);
            Ok(Response::Footprint {
                rows: rows.len() as u32,
            })
        }
        Request::Sleep { ms } => {
            // 1 ms slices with a deadline check between each: the
            // archetypal safepointed long-running analysis.
            for _ in 0..*ms {
                deadline.check()?;
                std::thread::sleep(Duration::from_millis(1));
            }
            deadline.check()?;
            Ok(Response::Slept)
        }
        Request::Panic => panic!("injected analysis panic (chaos harness)"),
        Request::Introspect => {
            // The control op is answered inline by the reader; reaching a
            // worker is a dispatch bug.
            Err(ServeError::Internal {
                detail: "control op reached a worker".into(),
            })
        }
    }
}
