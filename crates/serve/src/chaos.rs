//! Seeded serving-path chaos harness.
//!
//! The PR 2 discipline — seeded fault classes, a ledger, exact
//! accounting — applied to the server instead of the ingest pipeline.
//! Each [`FaultClass`] is one way a client or a query can misbehave;
//! [`run_chaos`] injects them in seeded shuffled order, interleaved with
//! clean probes on a long-lived control connection, and records what the
//! server actually did. The invariant under test:
//!
//! > every injected fault maps to **exactly one typed error** (or, for
//! > the disconnect class, to server-side accounting), the server never
//! > panics, hangs, or silently drops a response, and clean traffic
//! > keeps getting byte-identical answers throughout.
//!
//! `MidRequestDisconnect` is the one class with nothing to observe
//! client-side (we hung up). Its ledger entry is the server's
//! conservation law, checked by the caller after drain:
//! `Σ serve.requests{kind} == Σ serve.ok{kind} + Σ serve.err{name}` —
//! the response was still produced and accounted exactly once even when
//! its write went to a dead socket.

use std::io::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use igdb_fault::ServeError;

use crate::client::Client;
use crate::proto::{
    read_frame, write_frame, FrameError, Introspection, Request, Response, HEADER_LEN, MAGIC,
};
use crate::server::ServerAddr;

/// The seeded serving-fault classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A frame header whose magic is not the protocol's.
    MalformedMagic,
    /// A well-formed frame with an opcode outside the protocol.
    UnknownOpcode,
    /// A frame whose payload ends before its claimed length.
    TruncatedFrame,
    /// A frame claiming a payload larger than the server's cap.
    OversizedFrame,
    /// Hang up after sending a valid request, before the response.
    MidRequestDisconnect,
    /// Stall mid-frame longer than the server's io timeout.
    SlowLoris,
    /// A query that panics inside the analysis.
    PanickingAnalysis,
    /// Requests whose deadline is far shorter than their work.
    DeadlineStorm,
    /// Fill every worker and the whole queue, then one more request.
    Saturation,
}

impl FaultClass {
    pub const ALL: [FaultClass; 9] = [
        FaultClass::MalformedMagic,
        FaultClass::UnknownOpcode,
        FaultClass::TruncatedFrame,
        FaultClass::OversizedFrame,
        FaultClass::MidRequestDisconnect,
        FaultClass::SlowLoris,
        FaultClass::PanickingAnalysis,
        FaultClass::DeadlineStorm,
        FaultClass::Saturation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::MalformedMagic => "malformed_magic",
            FaultClass::UnknownOpcode => "unknown_opcode",
            FaultClass::TruncatedFrame => "truncated_frame",
            FaultClass::OversizedFrame => "oversized_frame",
            FaultClass::MidRequestDisconnect => "mid_request_disconnect",
            FaultClass::SlowLoris => "slow_loris",
            FaultClass::PanickingAnalysis => "panicking_analysis",
            FaultClass::DeadlineStorm => "deadline_storm",
            FaultClass::Saturation => "saturation",
        }
    }
}

/// What the harness needs to know about the server under test.
#[derive(Clone, Debug)]
pub struct ChaosEnv {
    pub addr: ServerAddr,
    /// The server's io timeout (slow-loris stalls must exceed it).
    pub io_timeout: Duration,
    pub workers: usize,
    pub queue_capacity: usize,
    /// Metro-id bound for valid probe queries.
    pub n_metros: usize,
}

impl ChaosEnv {
    /// Client socket timeout: comfortably past the server's stall cutoff
    /// so the typed error always arrives before the client gives up.
    fn client_timeout(&self) -> Duration {
        self.io_timeout + Duration::from_secs(2)
    }
}

/// What one injection observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observed {
    /// Exactly the expected typed error(s), nothing else.
    TypedError { name: &'static str, count: usize },
    /// Nothing client-side by construction (disconnect class).
    ServerSideOnly,
}

/// One ledger row.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    pub class: FaultClass,
    pub round: usize,
    /// `Ok` when the server met the class's contract; `Err` describes
    /// the violation.
    pub result: Result<Observed, String>,
}

/// The chaos run's ledger.
#[derive(Clone, Debug, Default)]
pub struct ChaosLedger {
    pub outcomes: Vec<ChaosOutcome>,
    /// Clean probes answered byte-identically between injections.
    pub clean_probes_ok: usize,
    /// Clean probes that failed (must be 0).
    pub clean_probes_failed: usize,
    /// `MidRequestDisconnect` injections (for the caller's conservation
    /// check against server counters).
    pub disconnects: usize,
}

impl ChaosLedger {
    /// Human-readable contract violations; empty means the matrix is
    /// green.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .outcomes
            .iter()
            .filter_map(|o| {
                o.result.as_ref().err().map(|e| {
                    format!("round {} {}: {e}", o.round, o.class.name())
                })
            })
            .collect();
        if self.clean_probes_failed > 0 {
            out.push(format!(
                "{} of {} clean probes failed between injections",
                self.clean_probes_failed,
                self.clean_probes_failed + self.clean_probes_ok
            ));
        }
        out
    }
}

/// Runs `rounds` shuffled passes over every fault class, with a clean
/// probe after each injection.
pub fn run_chaos(env: &ChaosEnv, seed: u64, rounds: usize) -> ChaosLedger {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ledger = ChaosLedger::default();

    // The control connection stays open across all injections: faults on
    // *other* connections must never perturb it. Its reference answer is
    // the byte-level contract for every later probe.
    let mut control = Client::connect(&env.addr, env.client_timeout())
        .expect("chaos control connection");
    let reference = control
        .call(&Request::SpQuery { from: 0, to: (env.n_metros - 1) as u32 }, 0)
        .expect("chaos reference query");

    for round in 0..rounds {
        // Seeded Fisher–Yates over the class list.
        let mut order = FaultClass::ALL.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for class in order {
            let result = inject(class, env, &mut rng);
            if class == FaultClass::MidRequestDisconnect {
                ledger.disconnects += 1;
            }
            ledger.outcomes.push(ChaosOutcome { class, round, result });
            // Clean probe: the control connection still gets the exact
            // reference answer, plus a queued liveness round trip.
            let probe_ok = control
                .call(&Request::SpQuery { from: 0, to: (env.n_metros - 1) as u32 }, 0)
                .map(|r| r == reference)
                .unwrap_or(false)
                && matches!(control.call(&Request::Ping, 0), Ok(Response::Pong));
            if probe_ok {
                ledger.clean_probes_ok += 1;
            } else {
                ledger.clean_probes_failed += 1;
            }
        }
    }
    ledger
}

/// Injects one fault and checks the class contract.
fn inject(class: FaultClass, env: &ChaosEnv, rng: &mut StdRng) -> Result<Observed, String> {
    match class {
        FaultClass::MalformedMagic => expect_reader_error(env, |stream, rng| {
            // A full header's worth of noise whose magic can't match.
            let mut junk = [0u8; HEADER_LEN];
            for b in junk.iter_mut() {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            junk[0..4].copy_from_slice(&(!MAGIC).to_le_bytes());
            stream.write_all(&junk).map_err(|e| format!("inject write: {e}"))
        }, rng),
        FaultClass::UnknownOpcode => expect_reader_error(env, |stream, _| {
            write_frame(stream, 99, 0, 0x7F, &[]).map_err(|e| format!("inject write: {e}"))
        }, rng),
        FaultClass::TruncatedFrame => expect_reader_error(env, |stream, _| {
            // Claim 64 payload bytes, deliver 5, then half-close: the
            // server hits EOF mid-payload.
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC.to_le_bytes());
            buf.extend_from_slice(&7u64.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.push(0x02);
            buf.extend_from_slice(&64u32.to_le_bytes());
            buf.extend_from_slice(&[1, 2, 3, 4, 5]);
            stream.write_all(&buf).map_err(|e| format!("inject write: {e}"))?;
            stream.shutdown_write().map_err(|e| format!("half-close: {e}"))
        }, rng),
        FaultClass::OversizedFrame => expect_reader_error(env, |stream, _| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC.to_le_bytes());
            buf.extend_from_slice(&8u64.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.push(0x02);
            buf.extend_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&buf).map_err(|e| format!("inject write: {e}"))
        }, rng),
        FaultClass::SlowLoris => expect_reader_error(env, |stream, _| {
            // Ten header bytes, then silence past the server's cutoff.
            stream
                .write_all(&MAGIC.to_le_bytes())
                .and_then(|_| stream.write_all(&[0u8; 6]))
                .map_err(|e| format!("inject write: {e}"))?;
            std::thread::sleep(env.io_timeout + Duration::from_millis(300));
            Ok(())
        }, rng),
        FaultClass::MidRequestDisconnect => {
            let mut client = Client::connect(&env.addr, env.client_timeout())
                .map_err(|e| format!("connect: {e}"))?;
            client
                .send(&Request::Sleep { ms: 30 }, 2_000)
                .map_err(|e| format!("send: {e}"))?;
            // Give the reader a beat to admit it, then vanish.
            std::thread::sleep(Duration::from_millis(5));
            let _ = client.stream().shutdown();
            drop(client);
            Ok(Observed::ServerSideOnly)
        }
        FaultClass::PanickingAnalysis => {
            let mut client = Client::connect(&env.addr, env.client_timeout())
                .map_err(|e| format!("connect: {e}"))?;
            match client.call(&Request::Panic, 0) {
                Ok(Response::Error(ServeError::Internal { detail })) => {
                    if !detail.contains("injected analysis panic") {
                        return Err(format!("unexpected panic detail: {detail:?}"));
                    }
                }
                other => return Err(format!("expected Internal, got {other:?}")),
            }
            // Containment proof: the same connection, worker pool, and
            // shared caches still answer a real query correctly.
            match client.call(
                &Request::SpQuery { from: 0, to: (env.n_metros - 1) as u32 },
                0,
            ) {
                Ok(Response::Path { .. }) | Ok(Response::NoRoute) => {}
                other => {
                    return Err(format!("connection dead after contained panic: {other:?}"))
                }
            }
            Ok(Observed::TypedError { name: "internal", count: 1 })
        }
        FaultClass::DeadlineStorm => {
            let mut client = Client::connect(&env.addr, env.client_timeout())
                .map_err(|e| format!("connect: {e}"))?;
            // Three pipelined requests whose work (500 ms) dwarfs their
            // budget (40 ms): each must expire at a safepoint into its
            // own typed Timeout — three faults, three errors, no hang.
            const STORM: usize = 3;
            for _ in 0..STORM {
                client
                    .send(&Request::Sleep { ms: 500 }, 40)
                    .map_err(|e| format!("send: {e}"))?;
            }
            let mut timeouts = 0;
            for _ in 0..STORM {
                match client.recv() {
                    Ok((_, Response::Error(ServeError::Timeout { budget_ms }))) => {
                        if budget_ms != 40 {
                            return Err(format!("timeout echoed budget {budget_ms}, sent 40"));
                        }
                        timeouts += 1;
                    }
                    other => return Err(format!("expected Timeout, got {other:?}")),
                }
            }
            Ok(Observed::TypedError { name: "timeout", count: timeouts })
        }
        FaultClass::Saturation => saturate(env),
    }
}

/// Raw-socket fault classes: perform the injection, then require exactly
/// one `BadRequest` followed by connection close.
fn expect_reader_error(
    env: &ChaosEnv,
    inject: impl FnOnce(&mut crate::server::Stream, &mut StdRng) -> Result<(), String>,
    rng: &mut StdRng,
) -> Result<Observed, String> {
    let mut stream = env.addr.connect().map_err(|e| format!("connect: {e}"))?;
    stream
        .set_timeouts(Some(env.client_timeout()))
        .map_err(|e| format!("timeouts: {e}"))?;
    inject(&mut stream, rng)?;
    // Exactly one typed error…
    match read_frame(&mut stream, crate::proto::DEFAULT_MAX_FRAME) {
        Ok(frame) => match Response::decode(frame.op, &frame.payload) {
            Ok(Response::Error(ServeError::BadRequest { .. })) => {}
            Ok(other) => return Err(format!("expected BadRequest, got {other:?}")),
            Err(e) => return Err(format!("undecodable response: {e}")),
        },
        Err(e) => return Err(format!("no typed error before close: {e:?}")),
    }
    // …then the connection closes (the stream can't be trusted further).
    match read_frame(&mut stream, crate::proto::DEFAULT_MAX_FRAME) {
        Err(FrameError::CleanEof) | Err(FrameError::Io(_)) => {}
        Ok(f) => return Err(format!("server kept talking after bad frame: {f:?}")),
        Err(FrameError::IdleTimeout) => {
            return Err("connection left open after bad frame".into())
        }
        Err(FrameError::Proto(e)) => return Err(format!("garbage after error: {e}")),
    }
    Ok(Observed::TypedError { name: "bad_request", count: 1 })
}

/// Saturation: occupy every worker and every queue slot with slow
/// requests, confirm the state via inline `Introspect`, then require one
/// probe to shed with `Overloaded{queue_depth == capacity}` — and the
/// occupiers to all still finish.
///
/// The fill is **phased**: first the workers (wait until all are busy),
/// then the queue (wait until it is full). Blind pipelining would race —
/// a job sits in the queue for a moment before a free worker pops it, so
/// a burst of `workers + capacity` sends can shed spuriously.
fn saturate(env: &ChaosEnv) -> Result<Observed, String> {
    let occupancy = env.workers + env.queue_capacity;
    let mut occupier = Client::connect(&env.addr, env.client_timeout() + Duration::from_secs(5))
        .map_err(|e| format!("connect occupier: {e}"))?;
    let mut control = Client::connect(&env.addr, env.client_timeout())
        .map_err(|e| format!("connect control: {e}"))?;
    // Introspect bypasses the queue, so the control connection answers
    // even with the server saturated.
    let mut wait_for = |what: &str, pred: &dyn Fn(u32, u32) -> bool| -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match control.call(&Request::Introspect, 0) {
                Ok(Response::Introspect(Introspection { queue_depth, busy_workers, .. })) => {
                    if pred(busy_workers, queue_depth) {
                        return Ok(());
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "{what} never reached (busy {busy_workers}, depth {queue_depth})"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return Err(format!("introspect failed during saturation: {other:?}")),
            }
        }
    };
    // A previous fault can leave an orphaned request still executing (a
    // disconnected client's sleep, say) — start from a quiescent pool so
    // the occupancy arithmetic below is exact.
    wait_for("idle server before saturation", &|busy, depth| busy == 0 && depth == 0)?;
    // One at a time: a pipelined burst of `workers` sleeps passes
    // *through* the queue, and when `workers > capacity` the transit
    // alone overflows it and sheds an occupier. `depth == 0` confirms
    // each sleep was popped by a worker, not parked in the queue.
    for i in 0..env.workers {
        occupier
            .send(&Request::Sleep { ms: 600 }, 10_000)
            .map_err(|e| format!("send worker occupier: {e}"))?;
        wait_for("worker occupancy", &move |busy, depth| busy as usize > i && depth == 0)?;
    }
    for _ in 0..env.queue_capacity {
        occupier
            .send(&Request::Sleep { ms: 600 }, 10_000)
            .map_err(|e| format!("send queue occupier: {e}"))?;
    }
    wait_for("queue fill", &|_, depth| depth as usize == env.queue_capacity)?;
    // The probe must shed, typed, with the observed depth.
    let mut probe = Client::connect(&env.addr, env.client_timeout())
        .map_err(|e| format!("connect probe: {e}"))?;
    match probe.call(&Request::SpQuery { from: 0, to: 1 }, 0) {
        Ok(Response::Error(ServeError::Overloaded { queue_depth })) => {
            if queue_depth as usize != env.queue_capacity {
                return Err(format!(
                    "shed at depth {queue_depth}, capacity is {}",
                    env.queue_capacity
                ));
            }
        }
        other => return Err(format!("expected Overloaded, got {other:?}")),
    }
    // Backpressure, not collapse: every occupier still completes.
    for i in 0..occupancy {
        match occupier.recv() {
            Ok((_, Response::Slept)) => {}
            other => return Err(format!("occupier {i} lost under saturation: {other:?}")),
        }
    }
    Ok(Observed::TypedError { name: "overloaded", count: 1 })
}
