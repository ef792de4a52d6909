//! Serving-path robustness: the chaos matrix and the hardened-server
//! contract.
//!
//! What must hold (ISSUE acceptance):
//!
//! * every chaos fault class maps to **exactly one typed error** (or, for
//!   mid-request disconnects, to exact server-side accounting) — no
//!   panics, no deadlocks, no silent drops;
//! * the ledger balances: `Σ serve.requests == Σ serve.ok + Σ serve.err`
//!   after drain, even with disconnected peers in the mix;
//! * the deterministic counter stream from a clean loadgen run is
//!   byte-identical at 1 and 4 workers, and matches the committed golden
//!   (`tests/golden/serve.jsonl`, bless with `IGDB_BLESS=1`);
//! * saturation sheds with a typed `Overloaded` carrying the queue depth
//!   while already-admitted work still completes;
//! * drain finishes in-flight requests and writes their responses.
//!
//! Tests default to unix-domain sockets (TCP loopback may be blocked in
//! sandboxes); one TCP smoke test skips gracefully when it is.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use igdb_core::Igdb;
use igdb_fault::ServeError;
use igdb_obs::{JsonMode, Registry};
use igdb_serve::{
    loadgen_session, run_chaos, ChaosEnv, Client, Listener, LoadgenConfig, Request, Response,
    Server, ServerConfig, KINDS,
};
use igdb_synth::{emit_snapshots, World, WorldConfig};

/// A fresh tiny-world database. Fresh per server run where counter
/// streams are compared: the `Igdb` caches its physical graph (and the
/// corridor cache memoizes pairs) in `OnceLock`s, so reusing one across
/// runs would zero the second run's `spath.*` counters.
fn fresh_igdb() -> Arc<Igdb> {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 120);
    Arc::new(Igdb::build(&snaps))
}

/// Unique socket path per test (tests share one temp dir and a process).
fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("igdb-serve-{tag}-{}.sock", std::process::id()))
}

fn start_unix(igdb: Arc<Igdb>, tag: &str, cfg: ServerConfig) -> Server {
    let listener = Listener::bind_unix(&sock(tag)).expect("bind unix listener");
    Server::start(igdb, listener, cfg, Registry::new()).expect("start server")
}

/// The chaos server: small timeouts and a tiny queue so every failure
/// mode is reachable in milliseconds, test ops enabled.
fn chaos_cfg(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 3,
        default_deadline: Duration::from_millis(2_000),
        io_timeout: Duration::from_millis(250),
        enable_test_ops: true,
        ..ServerConfig::default()
    }
}

/// Seeds from `IGDB_CHAOS_SEED` (comma-separated, the CI matrix passes
/// one per job) or the local defaults.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("IGDB_CHAOS_SEED") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("IGDB_CHAOS_SEED wants u64s"))
            .collect(),
        Err(_) => vec![11, 42],
    }
}

// ---------------------------------------------------------------------------
// The chaos matrix
// ---------------------------------------------------------------------------

#[test]
fn chaos_matrix_every_fault_is_typed_and_accounted() {
    let igdb = fresh_igdb();
    let seeds = chaos_seeds();
    for workers in [1usize, 4] {
        let server = start_unix(Arc::clone(&igdb), &format!("chaos{workers}"), chaos_cfg(workers));
        let reg = server.registry();
        let env = ChaosEnv {
            addr: server.addr(),
            io_timeout: Duration::from_millis(250),
            workers,
            queue_capacity: 3,
            n_metros: igdb.metros.len(),
        };
        let mut disconnects = 0u64;
        for &seed in &seeds {
            let ledger = run_chaos(&env, seed, 1);
            assert_eq!(
                ledger.failures(),
                Vec::<String>::new(),
                "chaos contract violated (workers={workers} seed={seed})"
            );
            // Every injection was followed by a healthy clean probe.
            assert_eq!(ledger.clean_probes_failed, 0);
            assert_eq!(ledger.outcomes.len(), ledger.clean_probes_ok);
            disconnects += ledger.disconnects as u64;
        }
        let report = server.drain();

        // The conservation law: every admitted request produced exactly
        // one accounted response — including the ones whose peer hung up
        // (their write went to a dead socket, but ok/err still tallied).
        let admitted: u64 = KINDS.iter().map(|k| reg.counter_value("serve.requests", k)).sum();
        let ok: u64 = KINDS.iter().map(|k| reg.counter_value("serve.ok", k)).sum();
        let errs: u64 =
            ServeError::NAMES.iter().map(|n| reg.perf_value("serve.err", n)).sum();
        assert_eq!(
            admitted,
            ok + errs,
            "lost responses at workers={workers}: admitted {admitted}, ok {ok}, err {errs}"
        );
        assert!(disconnects > 0, "the matrix must exercise disconnects");
        assert_eq!(report.served, ok);
        // The typed-error taxonomy was actually exercised end to end:
        // worker-side timeouts and contained panics, reader-side sheds
        // and protocol refusals.
        for name in ["timeout", "internal"] {
            assert!(
                reg.perf_value("serve.err", name) > 0,
                "error class {name} never observed (workers={workers})"
            );
        }
        assert!(reg.perf_value("serve.rejects", "shed") > 0);
        assert!(reg.perf_value("serve.rejects", "bad_request") > 0);
    }
}

/// Opcode 0x08 was `Stats` until `Introspect` took over its fields: a
/// client still sending it gets what any out-of-protocol opcode gets — one
/// typed `BadRequest` — nothing is admitted, and the ledger balances.
#[test]
fn retired_stats_opcode_is_refused_typed_and_the_ledger_balances() {
    use igdb_serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
    let igdb = fresh_igdb();
    let server = start_unix(Arc::clone(&igdb), "op08", chaos_cfg(1));
    let reg = server.registry();
    let mut stream = server.addr().connect().expect("connect");
    stream.set_timeouts(Some(Duration::from_secs(5))).expect("timeouts");
    write_frame(&mut stream, 7, 0, 0x08, &[]).expect("send 0x08");
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("one typed response");
    match Response::decode(frame.op, &frame.payload).expect("decodable") {
        Response::Error(ServeError::BadRequest { detail }) => {
            assert!(detail.contains("unknown opcode 0x08"), "detail: {detail:?}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err(), "then the connection closes");

    // The one control op answers what `Stats` did, metro count included.
    let mut client = Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
    assert_eq!(client.call(&Request::Ping, 0).expect("ping"), Response::Pong);
    match client.call(&Request::Introspect, 0).expect("introspect") {
        Response::Introspect(i) => assert_eq!(i.n_metros as usize, igdb.metros.len()),
        other => panic!("expected Introspect, got {other:?}"),
    }
    let report = server.drain();
    assert_eq!((report.served, report.errors, report.rejects), (1, 0, 1));
    let admitted: u64 = KINDS.iter().map(|k| reg.counter_value("serve.requests", k)).sum();
    assert_eq!(admitted, report.served + report.errors, "only the ping was admitted");
}

// ---------------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------------

#[test]
fn panics_are_contained_and_the_pool_survives() {
    let igdb = fresh_igdb();
    let server = start_unix(Arc::clone(&igdb), "panic", chaos_cfg(2));
    let reg = server.registry();
    let mut client =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
    let reference = client
        .call(&Request::SpQuery { from: 0, to: (igdb.metros.len() - 1) as u32 }, 0)
        .expect("reference query");

    // More panics than workers: if containment leaked, the pool would be
    // dead after the first two.
    for _ in 0..6 {
        match client.call(&Request::Panic, 0) {
            Ok(Response::Error(ServeError::Internal { detail })) => {
                assert!(detail.contains("injected analysis panic"), "detail: {detail:?}")
            }
            other => panic!("expected a typed Internal, got {other:?}"),
        }
    }
    // Same connection, same shared caches: the answer is unchanged.
    let after = client
        .call(&Request::SpQuery { from: 0, to: (igdb.metros.len() - 1) as u32 }, 0)
        .expect("query after panics");
    assert_eq!(after, reference);
    assert_eq!(reg.perf_value("serve.err", "internal"), 6);

    let report = server.drain();
    assert_eq!(report.errors, 6);
    assert!(report.served >= 2);
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

#[test]
fn full_queue_sheds_typed_overloaded_and_admitted_work_completes() {
    let igdb = fresh_igdb();
    let cfg = ServerConfig { queue_capacity: 1, ..chaos_cfg(1) };
    let server = start_unix(igdb, "overload", cfg);
    let reg = server.registry();

    // One worker, one queue slot — filled in phases (a blind two-send
    // burst can race the worker's pop and shed early): occupy the
    // worker, confirm via inline Introspect, then fill the queue slot.
    let mut occupier =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect occupier");
    let mut control =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect control");
    let mut wait_for = |what: &str, want_busy: u32, want_depth: u32| {
        let t0 = std::time::Instant::now();
        loop {
            match control.call(&Request::Introspect, 0).expect("introspect") {
                Response::Introspect(i)
                    if i.busy_workers == want_busy && i.queue_depth == want_depth =>
                {
                    break
                }
                Response::Introspect(_) if t0.elapsed() < Duration::from_secs(5) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                other => panic!("{what} never reached: {other:?}"),
            }
        }
    };
    occupier.send(&Request::Sleep { ms: 600 }, 10_000).expect("send worker sleep");
    wait_for("worker occupancy", 1, 0);
    occupier.send(&Request::Sleep { ms: 600 }, 10_000).expect("send queue sleep");
    wait_for("queue fill", 1, 1);
    // The probe sheds — typed, with the observed depth, answered by the
    // reader without touching worker capacity.
    match control.call(&Request::SpQuery { from: 0, to: 1 }, 0).expect("probe") {
        Response::Error(ServeError::Overloaded { queue_depth }) => {
            assert_eq!(queue_depth, 1)
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Backpressure is not collapse: both admitted sleeps still finish.
    for _ in 0..2 {
        let (_, resp) = occupier.recv().expect("occupier response");
        assert_eq!(resp, Response::Slept);
    }
    assert_eq!(reg.perf_value("serve.rejects", "shed"), 1);
    let report = server.drain();
    assert_eq!(report.served, 2);
    assert_eq!(report.rejects, 1);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn drain_finishes_in_flight_requests_before_closing() {
    let igdb = fresh_igdb();
    let server = start_unix(igdb, "drain", chaos_cfg(1));
    let mut client =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
    client.send(&Request::Sleep { ms: 200 }, 5_000).expect("send sleep");
    // Let the reader admit it and a worker pick it up…
    std::thread::sleep(Duration::from_millis(40));
    // …then drain while it is still sleeping. The response must be
    // written before the connection is torn down.
    let waiter = std::thread::spawn(move || client.recv());
    let report = server.drain();
    let (_, resp) = waiter.join().expect("join").expect("in-flight response lost by drain");
    assert_eq!(resp, Response::Slept);
    assert_eq!(report.served, 1);
    assert_eq!(report.errors, 0);
}

#[test]
fn draining_server_rejects_new_requests_typed() {
    let igdb = fresh_igdb();
    let server = start_unix(igdb, "drainrej", chaos_cfg(1));
    let mut holder =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect holder");
    let mut prober =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect prober");
    // Hold the worker so drain has something in flight to wait for.
    holder.send(&Request::Sleep { ms: 400 }, 5_000).expect("send sleep");
    std::thread::sleep(Duration::from_millis(40));
    let drainer = std::thread::spawn(move || server.drain());
    std::thread::sleep(Duration::from_millis(40));
    // The drain flag is up but the reader is still alive: a new request
    // gets the typed refusal (until the connection is shut down).
    match prober.call(&Request::Ping, 0) {
        Ok(Response::Error(ServeError::ShuttingDown)) => {}
        // Acceptable race: drain already severed the connection.
        Err(_) => {}
        Ok(other) => panic!("expected ShuttingDown, got {other:?}"),
    }
    let (_, resp) = holder.recv().expect("held response");
    assert_eq!(resp, Response::Slept);
    let report = drainer.join().expect("join drain");
    assert_eq!(report.served, 1);
}

// ---------------------------------------------------------------------------
// Deterministic counter stream and the golden
// ---------------------------------------------------------------------------

/// The exact session the committed golden was recorded from; `igdb
/// loadgen --requests 300 --conns 2 --seed 7 --scale tiny --mesh 120
/// --deterministic` goes through the same [`loadgen_session`].
fn golden_session(tag: &str) -> (igdb_serve::LoadgenSummary, Registry) {
    let cfg = ServerConfig {
        workers: if tag.ends_with('1') { 1 } else { 4 },
        default_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let loadgen = LoadgenConfig { requests: 300, conns: 2, seed: 7, ..LoadgenConfig::default() };
    let (summary, report, reg) =
        loadgen_session(fresh_igdb(), &sock(tag), cfg, &loadgen).expect("loadgen session");
    assert_eq!(report.rejects, 0, "clean run shed requests");
    (summary, reg)
}

#[test]
fn serve_counter_stream_is_worker_count_invariant_and_matches_golden() {
    let golden_path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve.jsonl"
    ));
    let (summary1, reg1) = golden_session("golden1");
    let (summary4, reg4) = golden_session("golden4");
    for s in [&summary1, &summary4] {
        assert_eq!(s.sent, 300);
        assert_eq!(s.lost, 0, "clean closed-loop run lost responses");
        assert_eq!(s.error_total(), 0, "clean run saw typed errors: {:?}", s.errors);
        assert_eq!(s.ok, 300);
    }
    // Counters are data-derived: 1 worker and 4 workers produce the same
    // deterministic stream, byte for byte.
    let got = reg1.json_lines(JsonMode::Deterministic);
    assert_eq!(
        got,
        reg4.json_lines(JsonMode::Deterministic),
        "serve counter stream depends on worker count"
    );
    assert_eq!(reg1.counter_snapshot(), reg4.counter_snapshot());

    if std::env::var_os("IGDB_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{}: {e} (run with IGDB_BLESS=1 to create)", golden_path.display())
    });
    assert_eq!(
        got, want,
        "deterministic serve stream drifted from tests/golden/serve.jsonl \
         (if intentional, re-bless with IGDB_BLESS=1)"
    );
    // The stream round-trips and gates cleanly against itself, exactly as
    // the CI metrics-gate job consumes it (perf and histogram metrics are
    // outside the deterministic stream and outside the gate).
    let back = Registry::from_json_lines(&got).unwrap();
    assert!(igdb_obs::diff_registries(&back, &reg1).is_clean());
}

// ---------------------------------------------------------------------------
// Live introspection: the flight recorder over the wire
// ---------------------------------------------------------------------------

/// Mid-storm, every `Introspect` snapshot must satisfy the exact ledger
/// law `requests == ok + Σerr + live` (the recorder takes it under one
/// lock), and after the storm the wire totals must equal the registry's
/// own accounting — the stats op reports the same truth the counters do.
#[test]
fn introspection_ledger_is_exact_mid_storm_and_matches_registry() {
    let igdb = fresh_igdb();
    let server = start_unix(Arc::clone(&igdb), "intro", chaos_cfg(2));
    let reg = server.registry();
    let addr = server.addr();
    let n = igdb.metros.len() as u32;

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut storm = Vec::new();
    for t in 0..3u32 {
        let addr = addr.clone();
        storm.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            for i in 0..25u32 {
                match (t + i) % 4 {
                    // A sleep that outlives its deadline: a typed Timeout.
                    0 => {
                        let _ = c.call(&Request::Sleep { ms: 20 }, 5);
                    }
                    1 => {
                        let _ = c.call(&Request::SpQuery { from: 0, to: (n - 1) % n }, 0);
                    }
                    2 => {
                        let _ = c.call(&Request::Footprint { top_n: 5 }, 0);
                    }
                    _ => {
                        let _ = c.call(&Request::Ping, 0);
                    }
                }
            }
        }));
    }
    let prober = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            let mut probes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match c.call(&Request::Introspect, 0).expect("introspect") {
                    Response::Introspect(i) => {
                        let r = &i.recorder;
                        assert_eq!(
                            r.requests,
                            r.ok + r.err_total() + r.live,
                            "ledger law broken mid-storm: {r:?}"
                        );
                        assert_eq!(i.workers, 2);
                        assert_eq!(i.queue_capacity, 3);
                        probes += 1;
                    }
                    other => panic!("expected Introspect, got {other:?}"),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            probes
        })
    };
    for h in storm {
        h.join().expect("storm thread");
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let probes = prober.join().expect("prober");
    assert!(probes > 0, "the prober never sampled mid-storm");

    // Quiesce: every admitted request completes (workers drain the queue).
    let t0 = std::time::Instant::now();
    let intro = loop {
        let i = server.introspection();
        if i.recorder.live == 0 {
            break i;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "requests stuck live");
        std::thread::sleep(Duration::from_millis(5));
    };
    let r = &intro.recorder;
    assert_eq!(r.requests, r.ok + r.err_total(), "post-storm ledger unbalanced");
    assert_eq!(r.requests, 75, "3 threads x 25 admitted requests");

    // The wire totals equal the registry's exact accounting.
    let admitted: u64 = KINDS.iter().map(|k| reg.counter_value("serve.requests", k)).sum();
    let ok: u64 = KINDS.iter().map(|k| reg.counter_value("serve.ok", k)).sum();
    let errs: u64 = ServeError::NAMES.iter().map(|n| reg.perf_value("serve.err", n)).sum();
    assert_eq!(r.requests, admitted);
    assert_eq!(r.ok, ok);
    assert_eq!(r.err_total(), errs);
    assert!(r.err[1] > 0, "the storm's tight deadlines never timed out");
    let bytes_in: u64 = KINDS.iter().map(|k| reg.counter_value("serve.bytes_in", k)).sum();
    assert_eq!(r.bytes_in, bytes_in);

    // Per-client rows: one per storm connection (the prober only issued
    // control ops, which are never admitted), each summing to the totals.
    assert_eq!(r.clients.len(), 3, "clients: {:?}", r.clients);
    assert_eq!(r.clients.iter().map(|c| c.requests).sum::<u64>(), r.requests);
    assert_eq!(r.clients.iter().map(|c| c.ok).sum::<u64>(), r.ok);
    for c in &r.clients {
        assert_eq!(c.requests, 25);
        assert!(c.bytes_in > 0 && c.bytes_out > 0);
        assert_eq!(c.queue_wait.count, c.ok + c.err.iter().sum::<u64>());
    }
    // Every completed request pinned an epoch; one epoch, no churn.
    let pinned: u64 = r.epoch_pins.iter().map(|&(_, n)| n).sum();
    assert_eq!(pinned + r.pins_evicted, r.requests);
    assert_eq!(r.epoch_lag.count, 0, "no churn, no lag samples");

    server.drain();
}

// ---------------------------------------------------------------------------
// Trace structure: deterministic across worker counts
// ---------------------------------------------------------------------------

/// The sorted multiset of (kind, span shape, per-request counters) over a
/// fixed 300-request mix — the structural fingerprint of every request's
/// trace. Timings vary run to run; this must not.
fn trace_profile(server: &Server) -> Vec<(String, Vec<(usize, String)>, Vec<(String, String, u64)>)> {
    let mut v: Vec<_> = server
        .traces()
        .iter()
        .map(|rt| {
            rt.record.check_nesting().expect("trace nesting");
            assert_eq!(rt.record.root().unwrap().name, rt.kind, "root carries the kind");
            (
                rt.kind.to_string(),
                rt.record.shape(),
                rt.record
                    .counters
                    .iter()
                    .map(|(n, l, c)| (n.to_string(), l.to_string(), *c))
                    .collect(),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn trace_structure_is_worker_count_invariant() {
    let mut profiles = Vec::new();
    for workers in [1usize, 4] {
        let cfg = ServerConfig {
            workers,
            trace_ring: 512,
            default_deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = start_unix(fresh_igdb(), &format!("traces{workers}"), cfg);
        let loadgen =
            LoadgenConfig { requests: 300, conns: 2, seed: 7, ..LoadgenConfig::default() };
        let n_metros = {
            let mut c =
                Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
            match c.call(&Request::Introspect, 0).expect("introspect") {
                Response::Introspect(i) => i.n_metros as usize,
                other => panic!("introspect probe: {other:?}"),
            }
        };
        let reg = Registry::new();
        let summary = igdb_serve::run_loadgen(&server.addr(), n_metros, &loadgen, &reg);
        assert_eq!(summary.ok, 300, "clean run required for the fingerprint");
        // The client can see the last response before its worker files the
        // trace (the recorder hook runs after the response write): wait
        // for the ring to quiesce.
        let t0 = std::time::Instant::now();
        while server.traces().len() < 300 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let profile = trace_profile(&server);
        assert_eq!(profile.len(), 300, "every request leaves exactly one trace");
        // Structure sanity on one sample: root → queue.wait / execute /
        // encode, with any analysis spans nested under execute.
        let sample = &profile[0].1;
        let names: Vec<&str> = sample.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"queue.wait"), "shape: {names:?}");
        assert!(names.contains(&"execute"), "shape: {names:?}");
        assert!(names.contains(&"encode"), "shape: {names:?}");
        profiles.push(profile);
        server.drain();
    }
    assert_eq!(
        profiles[0], profiles[1],
        "trace structure (names, nesting, counters) depends on worker count"
    );
}

// ---------------------------------------------------------------------------
// Slow-query flight recorder under a deadline storm
// ---------------------------------------------------------------------------

/// A deadline storm must leave slow-log entries whose span breakdown
/// accounts for >= 95% of each request's wall time (queue wait +
/// execution + encode), parseable by the standard JSON-lines reader.
#[test]
fn slow_log_spans_account_for_request_wall_time() {
    let path = std::env::temp_dir()
        .join(format!("igdb-slowlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        slow_ms: 1,
        slow_log: Some(path.clone()),
        queue_capacity: 8,
        ..chaos_cfg(2)
    };
    let igdb = fresh_igdb();
    let server = start_unix(Arc::clone(&igdb), "slowlog", cfg);

    // The storm: pipelined sleeps against a tight budget — some time out
    // mid-execution, some expire while queued (their trace is queue.wait
    // + encode only), interleaved with real queries slow enough to cross
    // the 1 ms threshold.
    let mut c = Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
    for round in 0..10u64 {
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(c.send(&Request::Sleep { ms: 40 }, 8).expect("send"));
        }
        if round % 2 == 0 {
            ids.push(c.send(&Request::Footprint { top_n: 8 }, 0).expect("send"));
        }
        for _ in &ids {
            let _ = c.recv().expect("typed response, not a hang");
        }
    }
    let timeouts = server.registry().perf_value("serve.err", "timeout");
    assert!(timeouts > 0, "the storm never produced a timeout");
    server.drain();

    let text = std::fs::read_to_string(&path).expect("slow log written");
    let parsed = Registry::from_json_lines(&text).expect("slow log parses");
    let spans = parsed.spans();
    // Regroup the file into entries: roots carry the request metadata.
    let mut entries = 0u64;
    for (i, root) in spans.iter().enumerate() {
        if root.parent.is_some() {
            continue;
        }
        entries += 1;
        assert!(
            root.name.starts_with("slow."),
            "root name carries metadata: {}",
            root.name
        );
        assert!(root.name.contains("conn=") && root.name.contains("status="));
        let wall = root.dur_us.unwrap_or(0).max(1);
        let direct: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.dur_us.unwrap_or(0))
            .sum();
        assert!(
            direct as f64 >= 0.95 * wall as f64,
            "span breakdown covers {direct} of {wall} us (< 95%) for {}",
            root.name
        );
    }
    assert!(entries >= 30, "expected the storm's requests in the slow log, got {entries}");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Loadgen attribution: typed errors broken out by request kind
// ---------------------------------------------------------------------------

/// With the single worker pinned and the queue at capacity 1, every
/// loadgen request fails typed — and the summary must attribute each
/// failure to its request kind, not just report one failure total.
#[test]
fn loadgen_summary_attributes_typed_errors_by_kind() {
    let igdb = fresh_igdb();
    let cfg = ServerConfig { queue_capacity: 1, ..chaos_cfg(1) };
    let server = start_unix(Arc::clone(&igdb), "lgerr", cfg);

    // Pin the worker, confirmed via inline Introspect.
    let mut occupier =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect occupier");
    let mut control =
        Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect control");
    occupier.send(&Request::Sleep { ms: 700 }, 10_000).expect("send sleep");
    let t0 = std::time::Instant::now();
    loop {
        match control.call(&Request::Introspect, 0).expect("introspect") {
            Response::Introspect(i) if i.busy_workers == 1 => break,
            _ if t0.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(2))
            }
            other => panic!("worker never pinned: {other:?}"),
        }
    }

    // Open-loop load against a stuck server: everything admitted expires
    // in the queue (Timeout), everything else sheds (Overloaded).
    let loadgen = LoadgenConfig {
        requests: 40,
        conns: 2,
        seed: 7,
        qps: 200.0,
        deadline_ms: 5,
        ..LoadgenConfig::default()
    };
    let reg = Registry::new();
    let summary = igdb_serve::run_loadgen(&server.addr(), igdb.metros.len(), &loadgen, &reg);
    let (_, resp) = occupier.recv().expect("occupier response");
    assert_eq!(resp, Response::Slept);

    assert_eq!(summary.lost, 0, "typed errors, not lost responses");
    assert_eq!(summary.ok, 0, "nothing can succeed against a pinned worker");
    assert_eq!(summary.error_total(), 40);
    // The breakout attributes every failure to a (kind, error) pair and
    // sums back to the total — a storm is attributable, not one number.
    let by_kind_total: u64 = summary.errors_by_kind.iter().map(|&(_, _, c)| c).sum();
    assert_eq!(by_kind_total, summary.error_total());
    for &(kind, name, count) in &summary.errors_by_kind {
        assert!(["ping", "sp_query", "sp_batch", "risk", "footprint"].contains(&kind));
        assert!(["timeout", "overloaded"].contains(&name), "unexpected error {name}");
        assert!(count > 0);
    }
    assert!(summary.error_count("overloaded") > 0, "queue never shed: {summary:?}");
    // The render carries the attribution for the CLI/chaos artifacts.
    if summary.error_total() > 0 {
        assert!(summary.render().contains("errors by kind:"));
    }
    server.drain();
}

// ---------------------------------------------------------------------------
// Open-loop loadgen: requests are timed from when they were due
// ---------------------------------------------------------------------------

/// Paced far beyond what one sender can keep (5 µs apart), every request
/// is sent late. Its clock starts when it was *due*, so the wait for its
/// own generator is part of its round trip, and the generator's lateness
/// is recorded once per send.
#[test]
fn open_loop_times_requests_from_their_due_instant() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 512, // the whole run fits: nothing sheds
        default_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let loadgen = LoadgenConfig {
        requests: 300,
        conns: 1,
        seed: 7,
        qps: 200_000.0,
        ..LoadgenConfig::default()
    };
    let (summary, report, reg) =
        loadgen_session(fresh_igdb(), &sock("openloop"), cfg, &loadgen).expect("session");
    assert_eq!((summary.sent, summary.ok, summary.lost), (300, 300, 0), "{summary:?}");
    assert_eq!(report.rejects, 0);

    let late = reg.histogram("loadgen.late_us", "").expect("lateness recorded per send");
    let rtt = reg.histogram("loadgen.rtt_us", "all").expect("round trips recorded");
    assert_eq!((late.count, rtt.count), (300, 300));
    // A response cannot arrive before its request was sent, and a request
    // is sent `late` after it was due: rtt >= late, request by request.
    assert!(rtt.sum >= late.sum, "rtt Σ {} µs < late Σ {} µs", rtt.sum, late.sum);
    assert_eq!(summary.late_p99_us, Some(late.quantile(0.99)));
    assert!(summary.render().contains("generator late p99"), "{}", summary.render());
    // Lateness is timing: perf-class, never in the gated stream.
    assert!(!reg.json_lines(JsonMode::Deterministic).contains("loadgen.late_us"));
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

#[test]
fn tcp_transport_smoke() {
    // Loopback sockets may be denied in sandboxes; that's a skip, not a
    // failure — every other test covers the same logic over unix sockets.
    let listener = match Listener::bind_tcp("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skipping tcp smoke test: bind denied ({e})");
            return;
        }
    };
    let igdb = fresh_igdb();
    let server = Server::start(Arc::clone(&igdb), listener, chaos_cfg(2), Registry::new())
        .expect("start tcp server");
    let mut client = match Client::connect(&server.addr(), Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("skipping tcp smoke test: connect denied ({e})");
            let _ = server.drain();
            return;
        }
    };
    assert_eq!(client.call(&Request::Ping, 0).expect("ping"), Response::Pong);
    match client
        .call(&Request::SpQuery { from: 0, to: (igdb.metros.len() - 1) as u32 }, 0)
        .expect("sp query")
    {
        Response::Path { .. } | Response::NoRoute => {}
        other => panic!("unexpected response: {other:?}"),
    }
    let report = server.drain();
    assert!(report.served >= 2);
}
