//! Blocking client and the seeded load generator.
//!
//! The loadgen replays a seeded, interleaved query stream against a
//! server and reports sustained throughput and latency quantiles through
//! the same [`igdb_obs`] machinery the server uses, so one merged
//! JSON-lines stream carries both sides and `igdb metrics diff` can gate
//! it. Client-side metric classes mirror the server's: `loadgen.sent{kind}`
//! and `loadgen.ok{kind}` are deterministic counters (pure functions of
//! seed × request count on a clean run), per-error tallies are perf, and
//! round-trip latencies are histograms.
//!
//! Two driving modes:
//!
//! * **closed loop** (`qps == 0`): each connection waits for every
//!   response before sending the next request — deterministic, the mode
//!   the golden stream is recorded in;
//! * **open loop** (`qps > 0`): a sender thread paces requests against a
//!   fixed schedule while a receiver thread collects responses, so
//!   arrival rate keeps pressing even when the server slows — the mode
//!   that makes saturation and shedding measurable. Each request is timed
//!   from the instant it was *due*, so time it spent waiting for a late
//!   sender counts against its round trip, and the sender's own lateness
//!   is recorded per send in the `loadgen.late_us` histogram.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use igdb_fault::ServeError;
use igdb_obs::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::{
    read_frame, write_frame, FrameError, ProtoError, Request, Response, DEFAULT_MAX_FRAME,
};
use crate::server::{ServerAddr, Stream};

/// Client-side failure (server-side failures arrive as
/// [`Response::Error`] values, not as `Err`).
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Proto(ProtoError),
    /// The server closed the connection.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Closed => f.write_str("connection closed by server"),
        }
    }
}

/// A blocking protocol client over one connection.
pub struct Client {
    stream: Stream,
    next_id: u64,
}

impl Client {
    /// Connects with the given socket timeout (also the per-read wait
    /// while collecting responses).
    pub fn connect(addr: &ServerAddr, io_timeout: Duration) -> io::Result<Client> {
        let stream = addr.connect()?;
        stream.set_timeouts(Some(io_timeout))?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Sends one request without waiting; returns its correlation id.
    /// `deadline_ms` of 0 asks for the server default.
    /// The id the next `send` will use (for pre-registering in-flight
    /// bookkeeping before the frame is on the wire).
    pub fn peek_id(&self) -> u64 {
        self.next_id
    }

    pub fn send(&mut self, req: &Request, deadline_ms: u32) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, id, deadline_ms, req.op(), &req.encode_payload())?;
        Ok(id)
    }

    /// Receives the next response frame (any id). Blocks through idle
    /// timeouts until a frame arrives or the connection drops.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        loop {
            match read_frame(&mut self.stream, DEFAULT_MAX_FRAME) {
                Ok(frame) => {
                    let resp = Response::decode(frame.op, &frame.payload)
                        .map_err(ClientError::Proto)?;
                    return Ok((frame.id, resp));
                }
                Err(FrameError::IdleTimeout) => continue,
                Err(FrameError::CleanEof) => return Err(ClientError::Closed),
                Err(FrameError::Proto(e)) => return Err(ClientError::Proto(e)),
                Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One blocking round trip.
    pub fn call(&mut self, req: &Request, deadline_ms: u32) -> Result<Response, ClientError> {
        let id = self.send(req, deadline_ms).map_err(ClientError::Io)?;
        loop {
            let (got, resp) = self.recv()?;
            if got == id {
                return Ok(resp);
            }
            // A response to an earlier pipelined request: not ours, drop.
        }
    }

    /// The underlying stream (chaos injections need raw socket control).
    pub fn stream(&mut self) -> &mut Stream {
        &mut self.stream
    }
}

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections (requests are split round-robin).
    pub conns: usize,
    /// Seed for the request mix (same seed ⇒ same stream).
    pub seed: u64,
    /// Target offered load in requests/second; 0 = closed loop.
    pub qps: f64,
    /// Per-request deadline sent on the wire; 0 = server default.
    pub deadline_ms: u32,
    /// Socket timeout.
    pub io_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            requests: 400,
            conns: 2,
            seed: 7,
            qps: 0.0,
            deadline_ms: 0,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// What one loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadgenSummary {
    pub sent: u64,
    pub ok: u64,
    /// Typed error responses, by [`ServeError::name`].
    pub errors: Vec<(&'static str, u64)>,
    /// Typed error responses broken out by request kind: `(kind, error
    /// name, count)`, nonzero rows only. A saturation run that sheds
    /// batches but serves pings is visible here, not just as one number.
    pub errors_by_kind: Vec<(&'static str, &'static str, u64)>,
    /// Transport-level losses (closed connections, decode failures) —
    /// zero on every clean and overload run; non-zero means the server
    /// dropped a response, which the chaos harness treats as a failure.
    pub lost: u64,
    pub wall: Duration,
    /// Served responses per second of wall time.
    pub throughput: f64,
    /// Round-trip latency quantiles over successful requests, µs.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Open loop only: p99 of how far behind its schedule the generator
    /// sent, µs (`loadgen.late_us`).
    pub late_p99_us: Option<f64>,
}

impl LoadgenSummary {
    /// Typed errors of one kind.
    pub fn error_count(&self, name: &str) -> u64 {
        self.errors.iter().find(|(n, _)| *n == name).map(|&(_, c)| c).unwrap_or(0)
    }

    /// All typed errors.
    pub fn error_total(&self) -> u64 {
        self.errors.iter().map(|&(_, c)| c).sum()
    }

    /// One-line human rendering, plus a per-kind error breakdown when
    /// any request failed (attributing a storm to the kinds it hit).
    pub fn render(&self) -> String {
        let mut errs = String::new();
        for (n, c) in &self.errors {
            if *c > 0 {
                errs.push_str(&format!(" {n}={c}"));
            }
        }
        let mut out = format!(
            "sent {} ok {} lost {}{} | {:.1} req/s | p50 {:.0} µs p99 {:.0} µs",
            self.sent, self.ok, self.lost, errs, self.throughput, self.p50_us, self.p99_us
        );
        if let Some(late) = self.late_p99_us {
            out.push_str(&format!(" | generator late p99 {late:.0} µs"));
        }
        if !self.errors_by_kind.is_empty() {
            out.push_str("\nerrors by kind:");
            for (kind, name, c) in &self.errors_by_kind {
                out.push_str(&format!(" {kind}:{name}={c}"));
            }
        }
        out
    }
}

/// SplitMix64: derives independent per-connection seeds from one run
/// seed (same construction the synth world uses for stream splitting).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E9B5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The seeded request mix: shortest-path heavy, with batches and the
/// heavier analyses sprinkled in — the serving profile the paper's
/// repeated cross-layer queries imply.
fn gen_request(rng: &mut StdRng, n_metros: usize) -> Request {
    let n = n_metros.max(2) as u32;
    match rng.gen_range(0u32..100) {
        0..=54 => Request::SpQuery { from: rng.gen_range(0..n), to: rng.gen_range(0..n) },
        55..=69 => {
            let len = rng.gen_range(2usize..=6);
            let pairs =
                (0..len).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
            Request::SpBatch { pairs }
        }
        70..=79 => {
            // A random bbox over the synthetic world's populated band.
            let west = rng.gen_range(-120.0f64..-70.0);
            let south = rng.gen_range(25.0f64..45.0);
            Request::RiskExposure {
                west,
                south,
                east: west + rng.gen_range(2.0f64..15.0),
                north: south + rng.gen_range(2.0f64..10.0),
            }
        }
        80..=89 => Request::Footprint { top_n: rng.gen_range(3u16..=12) },
        _ => Request::Ping,
    }
}

/// Runs the load generator against `addr`. `n_metros` bounds the metro
/// ids in the mix (ask the server via `Request::Introspect` when remote).
/// Metrics land in `reg` (installed per worker thread).
pub fn run_loadgen(addr: &ServerAddr, n_metros: usize, cfg: &LoadgenConfig, reg: &Registry) -> LoadgenSummary {
    let conns = cfg.conns.max(1);
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let addr = addr.clone();
        let cfg = cfg.clone();
        let reg = reg.clone();
        let share = cfg.requests / conns + usize::from(c < cfg.requests % conns);
        let seed = splitmix64(cfg.seed ^ (c as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        handles.push(std::thread::spawn(move || {
            conn_loop(&addr, n_metros, &cfg, seed, share, c, &reg)
        }));
    }
    let mut lost = 0u64;
    for h in handles {
        lost += h.join().unwrap_or(0);
    }
    let wall = start.elapsed();
    let sent: u64 = KIND_LABELS.iter().map(|k| reg.counter_value("loadgen.sent", k)).sum();
    let ok: u64 = KIND_LABELS.iter().map(|k| reg.counter_value("loadgen.ok", k)).sum();
    let errors: Vec<(&'static str, u64)> = ServeError::NAMES
        .iter()
        .map(|&n| (n, reg.perf_value("loadgen.err", n)))
        .collect();
    let mut errors_by_kind = Vec::new();
    for &kind in &KIND_LABELS {
        for &name in &ServeError::NAMES {
            let c = reg.perf_value("loadgen.err_kind", &format!("{kind}:{name}"));
            if c > 0 {
                errors_by_kind.push((kind, name, c));
            }
        }
    }
    let (p50_us, p99_us) = match reg.histogram("loadgen.rtt_us", "all") {
        Some(h) => (h.quantile(0.5), h.quantile(0.99)),
        None => (0.0, 0.0),
    };
    LoadgenSummary {
        sent,
        ok,
        errors,
        errors_by_kind,
        lost,
        wall,
        throughput: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us,
        p99_us,
        late_p99_us: reg.histogram("loadgen.late_us", "").map(|h| h.quantile(0.99)),
    }
}

const KIND_LABELS: [&str; 5] = ["ping", "sp_query", "sp_batch", "risk", "footprint"];

/// Drives one connection; returns the number of lost responses.
fn conn_loop(
    addr: &ServerAddr,
    n_metros: usize,
    cfg: &LoadgenConfig,
    seed: u64,
    share: usize,
    conn_index: usize,
    reg: &Registry,
) -> u64 {
    let _ins = reg.install();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = match Client::connect(addr, cfg.io_timeout) {
        Ok(c) => c,
        Err(_) => {
            igdb_obs::perf("loadgen.connect_errors", "", 1);
            return share as u64;
        }
    };
    if cfg.qps <= 0.0 {
        closed_loop(&mut client, &mut rng, n_metros, cfg, share)
    } else {
        open_loop(client, rng, n_metros, cfg, share, conn_index, reg)
    }
}

fn record_response(kind: &'static str, rtt_us: u64, resp: &Response) {
    match resp {
        Response::Error(e) => {
            igdb_obs::perf("loadgen.err", e.name(), 1);
            igdb_obs::perf("loadgen.err_kind", format!("{kind}:{}", e.name()), 1);
        }
        _ => {
            igdb_obs::counter("loadgen.ok", kind, 1);
            igdb_obs::observe("loadgen.rtt_us", kind, rtt_us);
            igdb_obs::observe("loadgen.rtt_us", "all", rtt_us);
        }
    }
}

fn closed_loop(
    client: &mut Client,
    rng: &mut StdRng,
    n_metros: usize,
    cfg: &LoadgenConfig,
    share: usize,
) -> u64 {
    let mut lost = 0;
    for _ in 0..share {
        let req = gen_request(rng, n_metros);
        let kind = req.kind();
        igdb_obs::counter("loadgen.sent", kind, 1);
        let t0 = Instant::now();
        match client.call(&req, cfg.deadline_ms) {
            Ok(resp) => record_response(kind, t0.elapsed().as_micros() as u64, &resp),
            Err(_) => {
                igdb_obs::perf("loadgen.lost", "", 1);
                lost += 1;
            }
        }
    }
    lost
}

/// Open loop: the sender paces against the schedule `start + i/qps`
/// regardless of response progress; the receiver matches responses to
/// their due instants by correlation id. One lock-per-request on a plain
/// map is far below the rates this workload reaches.
fn open_loop(
    mut client: Client,
    mut rng: StdRng,
    n_metros: usize,
    cfg: &LoadgenConfig,
    share: usize,
    conn_index: usize,
    reg: &Registry,
) -> u64 {
    let per_conn_qps = cfg.qps / cfg.conns.max(1) as f64;
    let interval = Duration::from_secs_f64(1.0 / per_conn_qps.max(1e-9));
    let in_flight: Arc<Mutex<HashMap<u64, (&'static str, Instant)>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let mut recv_stream = match client.stream().try_clone() {
        Ok(s) => s,
        Err(_) => {
            igdb_obs::perf("loadgen.connect_errors", "", 1);
            return share as u64;
        }
    };
    let receiver = {
        let in_flight = Arc::clone(&in_flight);
        let reg = reg.clone();
        std::thread::Builder::new()
            .name(format!("loadgen-recv-{conn_index}"))
            .spawn(move || {
                let _ins = reg.install();
                let mut got = 0usize;
                let mut lost = 0u64;
                while got < share {
                    match read_frame(&mut recv_stream, DEFAULT_MAX_FRAME) {
                        Ok(frame) => {
                            let Ok(resp) = Response::decode(frame.op, &frame.payload) else {
                                igdb_obs::perf("loadgen.lost", "", 1);
                                lost += 1;
                                got += 1;
                                continue;
                            };
                            let sent = in_flight
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&frame.id);
                            if let Some((kind, t0)) = sent {
                                record_response(
                                    kind,
                                    t0.elapsed().as_micros() as u64,
                                    &resp,
                                );
                                got += 1;
                            }
                        }
                        Err(FrameError::IdleTimeout) => {
                            // Sender may have failed mid-run; stop once
                            // nothing is in flight and the share arrived.
                            if in_flight
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .is_empty()
                            {
                                break;
                            }
                        }
                        Err(_) => {
                            let pending = in_flight
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .len() as u64;
                            igdb_obs::perf("loadgen.lost", "", pending);
                            lost += pending;
                            break;
                        }
                    }
                }
                lost
            })
            .expect("spawn loadgen receiver")
    };
    let start = Instant::now();
    let mut send_failures = 0u64;
    for i in 0..share {
        let due = start + interval.mul_f64(i as f64);
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        let req = gen_request(&mut rng, n_metros);
        let kind = req.kind();
        igdb_obs::counter("loadgen.sent", kind, 1);
        // A request is never sent early, so whatever the sender is behind
        // by (sleep overshoot, a blocked `send`, a starved thread) is time
        // the request has already waited: its clock starts at `due`.
        igdb_obs::observe("loadgen.late_us", "", due.elapsed().as_micros() as u64);
        // Register the id *before* the frame hits the wire: the response
        // can come back (and the receiver run) before `send` returns, and
        // a response with no in-flight entry would never be counted.
        let id = client.peek_id();
        in_flight.lock().unwrap_or_else(|e| e.into_inner()).insert(id, (kind, due));
        if client.send(&req, cfg.deadline_ms).is_err() {
            in_flight.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
            igdb_obs::perf("loadgen.lost", "", 1);
            send_failures += 1;
        }
    }
    let recv_lost = receiver.join().unwrap_or(0);
    send_failures + recv_lost
}
