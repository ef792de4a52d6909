//! The five workloads. Each body takes a time budget: the workload named
//! on the command line gets `--seconds`, and in a traced run every other
//! body then runs once at probe size so that any single traced run
//! carries a number for every layer.
//!
//! Everything is measured from outside: `Instant` around calls into the
//! crates' `pub` functions, plus what the program already exposes
//! (`Registry` counters and spans, `Server::traces()`/`introspection()`).
//! The `bench.*` spans are inert unless a registry is installed, so the
//! traced and untraced passes run the same code.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use igdb_core::analysis::beliefprop::{consistency_check, propagate, BeliefPropParams};
use igdb_core::{
    run_query_mix, BuildPolicy, EpochHandle, Igdb, QueryMixSummary, SnapshotDelta, Stage,
};
use igdb_obs::{span, Profile, Registry, SpanRecord};
use igdb_serve::{Client, Listener, Request, RequestTrace, Response, Server, ServerConfig};
use igdb_synth::{generate_delta, DeltaClass};

use crate::affinity::{self, Placement};
use crate::requests::{answers, RequestGen, KINDS};
use crate::stats::{median, quantile, quiet, quiet_rate, timed, windows, Metrics, Rng, Tally};
use crate::world::Inputs;

pub const WORKLOADS: [&str; 5] = ["build", "refresh", "analyze", "serve", "serve_churn"];

/// Requests sent before the timed section of a serving workload, so the
/// corridor cache holds the Zipf head and every lazy structure exists.
const WARMUP_REQUESTS: usize = 2000;
/// The churn writer publishes one epoch per this many completed requests.
/// A request count, not a timer: churn stays proportional to the load.
const REQUESTS_PER_EPOCH: u64 = 1000;
/// Every this-many-th `SpQuery` answer is recomputed in process.
const VERIFY_EVERY: u64 = 100;
/// A serving run is summarised per window of this many requests (half a
/// second; 10 samples beyond a window's p99, one epoch under churn) and
/// reports the quiet window (see [`quiet`]).
const REQUEST_WINDOW: usize = 1000;
/// A window's rate follows how many of its requests fall in the dear
/// tenth of the mix (risk, 3 ms each): ±10 % from one window of 1,000 to
/// the next, so the highest of them is the luckiest draw. Rates are taken
/// over windows of this many requests instead, about two seconds.
const RATE_WINDOW: usize = 4 * REQUEST_WINDOW;
/// The same for warm analysis repetitions: about a second.
const ANALYZE_WINDOW: usize = 8;

const FEED: &[DeltaClass] = &[DeltaClass::AtlasChurn, DeltaClass::LogicalChurn];
/// One refresh cycle: three feed-churn deltas ride the clean-prefix copy
/// and warm corridors, a traceroute delta re-runs IP resolution, a road
/// delta invalidates the road graph — 21 / 7 / 7 applies in an 18 s run.
const CYCLE: [(&str, &[DeltaClass]); 5] = [
    ("feed", FEED),
    ("feed", FEED),
    ("feed", FEED),
    ("trace", &[DeltaClass::TracerouteChurn]),
    ("road", &[DeltaClass::RoadChurn]),
];

/// What a run shares across bodies.
pub struct Ctx {
    pub inputs: Inputs,
    /// `igdb-par`'s own thread count (`nproc` or `IGDB_THREADS`), read
    /// before the run narrows itself to one thread; the `par` probe
    /// builds once with it.
    pub par_threads: usize,
    pub seed: u64,
    pub policy: BuildPolicy,
    pub placement: Placement,
    /// Wall (ms) of each base build set-up has made.
    pub base_build_ms: Vec<f64>,
    /// Sockets, the db save/load probe and trace files go here.
    pub out_dir: PathBuf,
    /// Installed for the whole run in the traced pass.
    pub reg: Option<Registry>,
    pub tally: Tally,
    pub layers: Metrics,
    /// Server-side span trees of the traced pass's timed requests.
    pub request_traces: Vec<RequestTrace>,
}

/// The end-to-end summary of one body's operations.
#[derive(Clone, Copy, Default)]
pub struct Ops {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Operations completed per second spent inside operations (checks
    /// and input generation excluded).
    pub per_s: f64,
    /// Operations completed.
    pub n: usize,
    /// Median over all of them, spells included (ms): printed beside the
    /// quiet window's, never reported.
    pub run_p50_ms: f64,
    /// Median wall (ms) of producing a database version in the body, for
    /// those that produce one.
    pub epoch_ms: Option<f64>,
}

/// Operations per second over operations that took `ms` each.
fn rate(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9)
}

impl Ops {
    /// Of operations that ran one after another, `ms` each: per window of
    /// `window` of them the median, the upper quartile and the rate, and
    /// of each the quiet window's.
    fn of_batch(ms: &[f64], window: usize) -> Ops {
        Ops {
            p50_ms: quiet(&windows(ms, window, median)),
            tail_ms: quiet(&windows(ms, window, |w| quantile(w, 0.75))),
            per_s: quiet_rate(&windows(ms, window, rate)),
            n: ms.len(),
            run_p50_ms: median(ms),
            epoch_ms: None,
        }
    }
}

impl Ctx {
    /// Corridor-cache hits and misses on the physical graph so far.
    fn corridor(&self) -> (u64, u64) {
        let perf = |name| self.reg.as_ref().map_or(0, |r| r.perf_value(name, "phys"));
        (perf("corridor.cache_hits"), perf("corridor.cache_misses"))
    }

    fn put_corridor(&mut self, workload: &str, before: (u64, u64)) {
        let (hits, misses) = self.corridor();
        let (hits, misses) = (hits - before.0, misses - before.1);
        let ratio = hits as f64 / (hits + misses).max(1) as f64;
        self.layers
            .put(format!("corridor.hit_ratio.{workload}"), ratio, "ratio");
        // The cache never evicts, so misses are entries created.
        self.layers.put(
            format!("corridor.misses.{workload}"),
            misses as f64,
            "count",
        );
    }
}

/// Aggregates the registry's spans from index `start` on.
fn profile_since(reg: &Registry, start: usize) -> Profile {
    let spans: Vec<SpanRecord> = reg.spans()[start..]
        .iter()
        .map(|s| SpanRecord {
            parent: s.parent.and_then(|p| p.checked_sub(start)),
            ..s.clone()
        })
        .collect();
    Profile::from_spans(&spans)
}

pub fn build_base(ctx: &mut Ctx) -> Arc<Igdb> {
    let _s = span("bench.core.build.base");
    let (built, ms) = timed(|| Igdb::try_build(&ctx.inputs.snaps, &ctx.policy));
    let (igdb, report) = built.expect("generated snapshots build");
    ctx.base_build_ms.push(ms);
    ctx.tally
        .check(report.is_clean(), "base build reports clean");
    Arc::new(igdb)
}

// --------------------------------------------------------------------------
// build
// --------------------------------------------------------------------------

/// Build-pipeline stages as `(metric suffix, span name)`; each is reported
/// as self time of one build.
const BUILD_STAGES: [(&str, &str); 14] = [
    ("validate", "validate"),
    ("metros", "build.metros"),
    ("roads", "build.roads"),
    ("city_tables", "build.city_tables"),
    ("physical.spatial_join", "physical.spatial_join"),
    ("physical.routing", "physical.routing"),
    ("telegeo", "build.telegeo"),
    ("logical", "build.logical"),
    ("asn_loc", "build.asn_loc"),
    ("traceroutes", "build.traceroutes"),
    ("ip_resolution.bdrmap", "ip_resolution.bdrmap"),
    ("ip_resolution.hoiho", "ip_resolution.hoiho"),
    ("ip_resolution.resolve", "ip_resolution.resolve"),
    ("index", "build.index"),
];

/// Per-stage self times and exact work counts of one build, from the
/// registry's spans since `mark` and the database built.
fn build_layers(ctx: &mut Ctx, igdb: &Igdb, mark: Option<(usize, u64)>) {
    if let (Some(reg), Some((first_span, queries))) = (&ctx.reg, mark) {
        let profile = profile_since(reg, first_span);
        for (suffix, name) in BUILD_STAGES {
            let self_us = profile
                .rows
                .iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.self_us);
            ctx.layers.put(
                format!("build.stage_ms.{suffix}"),
                self_us as f64 / 1e3,
                "ms",
            );
        }
        let q = reg.counter_value("spath.queries", "") - queries;
        ctx.layers.put("build.spath_queries", q as f64, "count");
    }
    let db = &igdb.db;
    let rows: usize = db
        .table_names()
        .iter()
        .map(|t| db.row_count(t).unwrap_or(0))
        .sum();
    ctx.layers.put("build.rows", rows as f64, "count");
}

/// Scratch builds of the snapshot set, each checked for a clean report
/// and the same fingerprint as the first.
pub fn build(ctx: &mut Ctx, budget: Duration) -> Ops {
    let _root = span("bench.build");
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut first_fp: Option<String> = None;
    loop {
        // The left edge of this build's window over the registry.
        let mark = ctx
            .reg
            .as_ref()
            .map(|r| (r.spans().len(), r.counter_value("spath.queries", "")));
        let (res, t) = {
            let _s = span("bench.core.build.try_build");
            timed(|| Igdb::try_build(&ctx.inputs.snaps, &ctx.policy))
        };
        match res {
            Ok((igdb, report)) => {
                ms.push(t);
                if ms.len() == 1 {
                    build_layers(ctx, &igdb, mark);
                }
                let fp = igdb.db.fingerprint();
                let same = *first_fp.get_or_insert_with(|| fp.clone()) == fp;
                ctx.tally.check(
                    report.is_clean() && same,
                    "build: clean report, same fingerprint",
                );
            }
            Err(e) => ctx.tally.check(false, &format!("build: {e}")),
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    Ops {
        epoch_ms: Some(quiet(&ms)),
        // Every build does the same work, so each is a window of its own:
        // what spread there is among them is the box's.
        ..Ops::of_batch(&ms, 1)
    }
}

// --------------------------------------------------------------------------
// refresh
// --------------------------------------------------------------------------

/// Stages a delta apply actually re-ran: the dirty suffix minus the two
/// stages whose narrowed inputs were clean.
fn stages_rerun(d: &SnapshotDelta) -> usize {
    let Some(first) = d.first_dirty else { return 0 };
    Stage::ALL
        .iter()
        .filter(|&&s| s >= first)
        .filter(|&&s| !(s == Stage::Traceroutes && d.traceroute_rows_clean))
        .filter(|&&s| !(s == Stage::IpResolution && d.ip_inputs_clean))
        .count()
}

/// A seeded chain of deltas from the base epoch, each applied to the
/// current epoch's own snapshots and published. Afterwards the final
/// epoch must fingerprint equal to a from-scratch build of its snapshots.
pub fn refresh(ctx: &mut Ctx, base: Arc<Igdb>, budget: Duration) -> Ops {
    let _root = span("bench.refresh");
    let epochs = EpochHandle::new_shared(base);
    let mut rng = Rng::new(ctx.seed ^ 0xDE17A);
    let start = Instant::now();
    let (mut feed, mut trace, mut road, mut publish_us) = (vec![], vec![], vec![], vec![]);
    // Apply + publish of every operation, in order.
    let mut op_ms = Vec::new();
    let (mut rerun_feed, mut rerun_road, mut diff_ms) = (0, 0, None);
    loop {
        for (class, classes) in CYCLE {
            let cur = epochs.current();
            let (snaps, _) = generate_delta(cur.igdb.source_snapshots(), rng.next_u64(), classes);
            if diff_ms.is_none() {
                let _s = span("bench.core.delta.diff_snapshots");
                let (d, t) =
                    timed(|| igdb_core::diff_snapshots(cur.igdb.source_snapshots(), &snaps));
                ctx.tally
                    .check(!d.is_empty(), "refresh: a churn delta is not empty");
                diff_ms = Some(t);
            }
            let (res, t) = {
                let _s = span(format!("bench.core.delta.apply.{class}"));
                timed(|| cur.igdb.apply_delta(&snaps, &ctx.policy))
            };
            match res {
                Ok((next, report, delta)) => {
                    ctx.tally
                        .check(report.is_clean(), "refresh: apply reports clean");
                    match class {
                        "feed" => {
                            feed.push(t);
                            rerun_feed = stages_rerun(&delta);
                        }
                        "trace" => trace.push(t),
                        _ => {
                            road.push(t);
                            rerun_road = stages_rerun(&delta);
                        }
                    }
                    let _s = span("bench.core.epoch.publish");
                    let published_ms = timed(|| epochs.publish(next)).1;
                    publish_us.push(published_ms * 1e3);
                    op_ms.push(t + published_ms);
                }
                Err(e) => ctx
                    .tally
                    .check(false, &format!("refresh: apply {class}: {e}")),
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let last = epochs.current();
    {
        let _s = span("bench.check.rebuild");
        let same = Igdb::try_build(last.igdb.source_snapshots(), &ctx.policy)
            .is_ok_and(|(rebuilt, _)| rebuilt.db.fingerprint() == last.igdb.db.fingerprint());
        ctx.tally
            .check(same, "refresh: final epoch equals a from-scratch build");
    }
    ctx.layers
        .put("delta.diff_ms", diff_ms.unwrap_or(0.0), "ms");
    ctx.layers.put("delta.apply_ms.feed", median(&feed), "ms");
    ctx.layers.put("delta.apply_ms.trace", median(&trace), "ms");
    ctx.layers.put("delta.apply_ms.road", median(&road), "ms");
    ctx.layers
        .put("delta.stages_rerun.feed", rerun_feed as f64, "count");
    ctx.layers
        .put("delta.stages_rerun.road", rerun_road as f64, "count");
    ctx.layers
        .put("epoch.publish_us", median(&publish_us), "us");
    Ops {
        p50_ms: quiet(&feed),
        tail_ms: quiet(&road),
        // Per cycle: each has the same mix of classes.
        per_s: quiet_rate(&windows(&op_ms, CYCLE.len(), rate)),
        n: op_ms.len(),
        run_p50_ms: median(&feed),
        epoch_ms: Some(quiet(&feed)),
    }
}

// --------------------------------------------------------------------------
// analyze
// --------------------------------------------------------------------------

/// What the cold pass over a fresh database answered; every warm
/// repetition must answer the same.
pub struct Cold {
    summary: QueryMixSummary,
    bp_assignments: usize,
    pub ms: f64,
}

/// One cold pass of the §4 query mix, belief propagation and its
/// consistency check (part of set-up).
pub fn analyze_cold(ctx: &mut Ctx, igdb: &Igdb) -> Cold {
    let _s = span("bench.core.analysis.cold_mix");
    let params = BeliefPropParams::default();
    let ((summary, bp, cons), ms) = timed(|| {
        (
            run_query_mix(ctx.inputs.world(), igdb),
            propagate(igdb, &params),
            consistency_check(igdb, &params),
        )
    });
    ctx.tally.check(
        summary.failures.is_empty(),
        "analyze: no leg of the cold mix failed",
    );
    ctx.tally.check(
        cons.comparable > 0,
        "analyze: consistency check compared something",
    );
    Cold {
        summary,
        bp_assignments: bp.assignments.len(),
        ms,
    }
}

/// Warm repetitions of the query mix plus belief propagation on one
/// built database.
pub fn analyze(ctx: &mut Ctx, igdb: &Igdb, cold: &Cold, budget: Duration) -> Ops {
    let _root = span("bench.analyze");
    let params = BeliefPropParams::default();
    let corridor = ctx.corridor();
    let start = Instant::now();
    let mut ms = Vec::new();
    loop {
        let ((summary, bp), t) = {
            let _s = span("bench.core.analysis.warm_mix");
            timed(|| {
                (
                    run_query_mix(ctx.inputs.world(), igdb),
                    propagate(igdb, &params),
                )
            })
        };
        ms.push(t);
        ctx.tally.check(
            summary == cold.summary && bp.assignments.len() == cold.bp_assignments,
            "analyze: warm repetition answers as the cold pass did",
        );
        if start.elapsed() >= budget {
            break;
        }
    }
    ctx.put_corridor("analyze", corridor);
    ctx.layers.put("analysis.cold_mix_ms", cold.ms, "ms");
    Ops::of_batch(&ms, ANALYZE_WINDOW)
}

// --------------------------------------------------------------------------
// serve, serve_churn
// --------------------------------------------------------------------------

/// A started, warmed-up server with its one client.
pub struct Serving {
    server: Server,
    client: Client,
    requests: RequestGen,
    /// Keeps this (client) thread on the server threads' CPU until the
    /// timed section is over.
    _pin: affinity::Pin,
}

impl Serving {
    /// Drains a server whose timed section will not run.
    pub fn stop(self) {
        self.server.drain();
    }
}

/// Starts a one-worker server on a unix socket over `base` and warms it
/// up. One worker and one closed-loop connection alternate on one CPU
/// (see [`affinity`]), so with the churn writer on the other no workload
/// has more than two runnable threads.
pub fn serve_start(ctx: &mut Ctx, base: Arc<Igdb>) -> Serving {
    let _s = span("bench.serve.start");
    let requests = RequestGen::new(&base, ctx.seed);
    let sock = ctx
        .out_dir
        .join(format!("bench-{}.sock", std::process::id()));
    let listener = Listener::bind_unix(&sock).expect("bind unix socket in the out dir");
    let cfg = ServerConfig {
        workers: 1,
        // The traced pass reads every request's span tree back.
        trace_ring: if ctx.reg.is_some() {
            1 << 20
        } else {
            ServerConfig::default().trace_ring
        },
        ..ServerConfig::default()
    };
    let reg = ctx.reg.clone().unwrap_or_default();
    // Before the server spawns its threads, which inherit the placement.
    let pin = affinity::pin_current_thread(ctx.placement.serve_cpu)
        .expect("the placement was pinned once when it was chosen");
    let server = Server::start(base, listener, cfg, reg).expect("start server");
    let client = Client::connect(&server.addr(), Duration::from_secs(5)).expect("connect");
    let mut serving = Serving {
        server,
        client,
        requests,
        _pin: pin,
    };
    let mut failed = 0;
    for _ in 0..WARMUP_REQUESTS {
        let req = serving.requests.next();
        let ok = serving
            .client
            .call(&req, 0)
            .is_ok_and(|resp| answers(&req, &resp));
        failed += u64::from(!ok);
    }
    ctx.tally.attempted += WARMUP_REQUESTS as u64;
    ctx.tally.failed += failed;
    serving
}

/// The churn writer: on each trigger, one feed-churn delta against the
/// current epoch, applied and published. Returns the apply times (ms)
/// and how many applies failed.
fn churn_writer(
    epochs: Arc<EpochHandle>,
    triggers: mpsc::Receiver<()>,
    reg: Option<Registry>,
    policy: BuildPolicy,
    seed: u64,
    cpu: usize,
) -> (Vec<f64>, u64) {
    let _g = reg.as_ref().map(|r| r.install());
    // Spawned by the pinned client, so this thread starts on its CPU.
    let _pin =
        affinity::pin_current_thread(cpu).expect("the placement was pinned once when chosen");
    let mut rng = Rng::new(seed ^ 0xC4_0421);
    let (mut ms, mut failed) = (Vec::new(), 0);
    // Pinned to one thread: the reader pair already keeps a core busy.
    igdb_par::with_threads(1, || {
        while triggers.recv().is_ok() {
            let cur = epochs.current();
            let (snaps, _) = generate_delta(cur.igdb.source_snapshots(), rng.next_u64(), FEED);
            let _s = span("bench.core.delta.apply_under_load");
            let (res, t) = timed(|| cur.igdb.apply_delta(&snaps, &policy));
            match res {
                Ok((next, report, _)) if report.is_clean() => {
                    ms.push(t);
                    epochs.publish(next);
                }
                _ => failed += 1,
            }
        }
    });
    (ms, failed)
}

/// One timed, well-answered request.
struct Sample {
    /// Index into [`KINDS`].
    kind: usize,
    /// The frame id the client sent it under.
    corr: u64,
    /// Round trip, µs.
    us: f64,
    /// From the previous request's completion (or the start) to this
    /// one's, ms: the round trip plus drawing the request, output checks
    /// taken out.
    wall_ms: f64,
}

/// `(hops, km bits)` of the in-process answer on `igdb`, routed in the
/// corridor cache's own orientation (smaller metro id first).
fn route_in_process(igdb: &Igdb, from: u32, to: u32) -> Option<(u32, u64)> {
    let (lo, hi) = (from.min(to) as usize, from.max(to) as usize);
    igdb.phys_graph()
        .shortest_path(lo, hi)
        .map(|(path, km)| (path.len().saturating_sub(1) as u32, km.to_bits()))
}

/// The closed-loop request stream against a warmed server; with `churn`,
/// beside a writer that publishes an epoch every [`REQUESTS_PER_EPOCH`]
/// completed requests.
pub fn serve(ctx: &mut Ctx, serving: Serving, budget: Duration, churn: bool) -> Ops {
    let workload = if churn { "serve_churn" } else { "serve" };
    let _root = span(format!("bench.{workload}"));
    let Serving {
        server,
        mut client,
        mut requests,
        _pin,
    } = serving;
    let epochs = server.epochs();
    let corridor = ctx.corridor();
    let rss_before = igdb_obs::current_rss_kb().unwrap_or(0);
    // The ring already holds the warm-up's traces.
    let traces_before = server.introspection().recorder.ring_len as usize;
    let (trigger, triggers) = mpsc::channel();
    let writer = churn.then(|| {
        let (epochs, reg, policy, seed, cpu) = (
            Arc::clone(&epochs),
            ctx.reg.clone(),
            ctx.policy.clone(),
            ctx.seed,
            ctx.placement.churn_cpu,
        );
        std::thread::spawn(move || churn_writer(epochs, triggers, reg, policy, seed, cpu))
    });

    let mut samples: Vec<Sample> = Vec::new();
    let (mut sent, mut failed, mut sp_queries, mut verified) = (0u64, 0u64, 0u64, 0u64);
    let mut checking = Duration::ZERO;
    let mut previous_done = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() < budget {
        let req = requests.next();
        let verify = match req {
            Request::SpQuery { from, to } => {
                sp_queries += 1;
                (sp_queries % VERIFY_EVERY == 0).then(|| (from, to, epochs.current()))
            }
            _ => None,
        };
        let corr = client.peek_id();
        let t = Instant::now();
        let resp = client.call(&req, 0);
        let us = t.elapsed().as_secs_f64() * 1e6;
        sent += 1;
        match &resp {
            Ok(resp) if answers(&req, resp) => {
                let done = start.elapsed() - checking;
                samples.push(Sample {
                    kind: KINDS
                        .iter()
                        .position(|k| *k == req.kind())
                        .expect("a mix kind"),
                    corr,
                    us,
                    wall_ms: (done - previous_done).as_secs_f64() * 1e3,
                });
                previous_done = done;
            }
            _ => failed += 1,
        }
        if let (Some((from, to, before)), Ok(resp)) = (verify, &resp) {
            // The request pinned the epoch current when it was dispatched:
            // the one before the send or, if the writer published during
            // the round trip, the one after.
            let t = Instant::now();
            let got = match resp {
                Response::Path { hops, km } => Some((*hops, km.to_bits())),
                _ => None,
            };
            let same = [before, epochs.current()]
                .iter()
                .any(|e| route_in_process(&e.igdb, from, to) == got);
            failed += u64::from(!same);
            verified += 1;
            checking += t.elapsed();
        }
        if churn && sent % REQUESTS_PER_EPOCH == 0 {
            let _ = trigger.send(());
        }
    }
    drop(trigger);
    let applies = writer.map(|w| w.join().expect("churn writer"));

    // The worker records a request as done just after writing its
    // response, so the last one may still be live for a moment.
    let mut intro = server.introspection();
    for _ in 0..200 {
        if intro.recorder.live == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        intro = server.introspection();
    }
    let rec = &intro.recorder;
    let ledger_ok = rec.requests == rec.ok + rec.err_total() + rec.live && rec.live == 0;
    ctx.tally.attempted += sent + verified + 1;
    ctx.tally.failed += failed + u64::from(!ledger_ok);
    let l = &mut ctx.layers;
    if let Some((ms, apply_failed)) = &applies {
        ctx.tally.attempted += ms.len() as u64 + apply_failed;
        ctx.tally.failed += apply_failed;
        ctx.tally.check(
            intro.epoch == sent / REQUESTS_PER_EPOCH,
            "serve_churn: one epoch per thousand completed requests",
        );
        let growth = igdb_obs::current_rss_kb()
            .unwrap_or(0)
            .saturating_sub(rss_before);
        l.put("churn.apply_ms", median(ms), "ms");
        l.put("epoch.published", intro.epoch as f64, "count");
        l.put("epoch.lag_us_p99", rec.epoch_lag.p99_us as f64, "us");
        l.put("epoch.stale_reads", rec.epoch_lag.count as f64, "count");
        l.put("serve.rss_growth_mb", growth as f64 / 1024.0, "MB");
    } else {
        l.put("serve.ledger_ok", f64::from(u8::from(ledger_ok)), "count");
        for (k, kind) in KINDS.iter().enumerate() {
            let of_kind: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.us)
                .collect();
            l.put(format!("serve.rtt_p50_us.{kind}"), median(&of_kind), "us");
            l.put(
                format!("serve.rtt_p99_us.{kind}"),
                quantile(&of_kind, 0.99),
                "us",
            );
        }
    }
    ctx.put_corridor(workload, corridor);
    if ctx.reg.is_some() {
        let traces = server.traces().split_off(traces_before);
        if !churn {
            server_side_layers(ctx, &traces, &samples);
        }
        // Kept in memory until the run ends.
        ctx.request_traces.extend(traces);
    }
    let report = server.drain();
    ctx.tally.check(
        report.errors == 0 && report.rejects == 0,
        "serve: drained without errors",
    );

    let rtt_ms = |w: &[Sample]| -> Vec<f64> { w.iter().map(|s| s.us / 1e3).collect() };
    let walls_ms = |w: &[Sample]| -> Vec<f64> { w.iter().map(|s| s.wall_ms).collect() };
    Ops {
        p50_ms: quiet(&windows(&samples, REQUEST_WINDOW, |w| median(&rtt_ms(w)))),
        tail_ms: quiet(&windows(&samples, REQUEST_WINDOW, |w| {
            quantile(&rtt_ms(w), 0.99)
        })),
        per_s: quiet_rate(&windows(&samples, RATE_WINDOW, |w| rate(&walls_ms(w)))),
        n: samples.len(),
        run_p50_ms: median(&rtt_ms(&samples)),
        epoch_ms: applies.as_ref().map(|(ms, _)| quiet(ms)),
    }
}

/// Queue wait, execute and encode times from the server's own request
/// traces, and what is left of each ping's round trip once its own queue
/// wait and execute are taken out: sockets, framing and wake-ups, both
/// ways. Encode stays in: the worker's encode span ends with the write
/// that wakes the client, which on a shared CPU reads the reply (and ends
/// the round trip) before the span closes, so the server's root span
/// overlaps the client and cannot be subtracted.
fn server_side_layers(ctx: &mut Ctx, traces: &[RequestTrace], samples: &[Sample]) {
    let stage_us = |t: &RequestTrace, name: &str| -> f64 {
        t.record
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us.unwrap_or(0) as f64)
            .sum()
    };
    let stage = |name: &str| -> Vec<f64> { traces.iter().map(|t| stage_us(t, name)).collect() };
    let (wait, execute, encode) = (stage("queue.wait"), stage("execute"), stage("encode"));
    // One connection, so the correlation id names the request.
    let rtt_of: std::collections::HashMap<u64, f64> = samples
        .iter()
        .filter(|s| KINDS[s.kind] == "ping")
        .map(|s| (s.corr, s.us))
        .collect();
    let transport: Vec<f64> = traces
        .iter()
        .filter_map(|t| {
            let served = stage_us(t, "queue.wait") + stage_us(t, "execute");
            rtt_of.get(&t.corr).map(|rtt| (rtt - served).max(0.0))
        })
        .collect();
    ctx.tally.check(
        transport.len() == rtt_of.len(),
        "serve: every timed ping has its server-side trace",
    );
    let l = &mut ctx.layers;
    l.put("serve.queue_wait_us_p50", median(&wait), "us");
    l.put("serve.queue_wait_us_p99", quantile(&wait, 0.99), "us");
    l.put("serve.execute_us_p50", median(&execute), "us");
    l.put("serve.execute_us_p99", quantile(&execute, 0.99), "us");
    l.put("serve.encode_us_p50", median(&encode), "us");
    l.put("serve.transport_us_p50", median(&transport), "us");
}
