//! Flight recorder: a fixed-size ring of completed request traces plus
//! the accounting a live operator needs — per-client tallies, a
//! slow-query log, and epoch-churn visibility.
//!
//! The recorder is the server-side sink for [`igdb_obs::TraceContext`]
//! records: the reader opens a trace per admitted request, the pool
//! worker fills it (queue wait → execute → encode), and the completed
//! record lands here. Everything is behind one mutex so a snapshot is
//! *exactly consistent*: `requests == ok + err + live` holds in every
//! snapshot, mid-storm included — that invariant is what the chaos
//! harness probes over the wire.
//!
//! Three views come out of it:
//!
//! * **Ring** — the last N completed traces, for post-hoc inspection and
//!   the trace-determinism tests.
//! * **Slow log** (`--slow-ms` + `--slow-log FILE.jsonl`) — every request
//!   whose wall time crossed the threshold is appended as standard
//!   `span`-type JSON lines (file-absolute parent indices), so the
//!   existing `Registry::from_json_lines` / `igdb metrics --in` tooling
//!   reads it with no new parser. Entries are ordered by *completion*;
//!   the root span name carries the request metadata
//!   (`slow.<kind> conn=<c> id=<r> epoch=<e> status=<s>`).
//! * **Snapshot** — the versioned introspection payload: ledger totals,
//!   per-client table, ring/slow summary, pinned-epoch distribution and
//!   the `epoch.lag` histogram summary.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use igdb_fault::ServeError;
use igdb_obs::{Histogram, TraceRecord};

/// How many distinct epochs the pin distribution keeps before evicting
/// the oldest rows (their pins roll into `pins_evicted`).
const EPOCH_HISTORY: usize = 64;

/// Recorder knobs, set from `igdb serve --slow-ms/--slow-log` flags.
#[derive(Debug)]
pub struct RecorderConfig {
    /// Completed traces retained in the ring (0 disables the ring).
    pub ring: usize,
    /// Wall-time threshold in milliseconds for the slow classification
    /// (0 disables slow accounting and the slow log).
    pub slow_ms: u64,
    /// Where to append slow-request span trees as JSON lines.
    pub slow_log: Option<PathBuf>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            ring: 256,
            slow_ms: 0,
            slow_log: None,
        }
    }
}

/// One completed, admitted request: identity, outcome, byte accounting
/// and the full span tree.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Server-assigned connection id (1-based, accept order).
    pub conn: u64,
    /// Client-chosen correlation id (the frame id).
    pub corr: u64,
    pub kind: &'static str,
    /// The epoch the request pinned at dispatch.
    pub epoch: u64,
    /// `None` on success, `Some(ServeError::code())` otherwise.
    pub err_code: Option<u8>,
    /// Time spent in the admission queue, microseconds.
    pub queue_wait_us: u64,
    /// Request frame bytes (header + payload).
    pub bytes_in: u64,
    /// Response frame bytes (header + payload).
    pub bytes_out: u64,
    /// Trace start relative to the recorder's start, microseconds.
    pub start_offset_us: u64,
    pub record: TraceRecord,
}

impl RequestTrace {
    /// `"ok"` or the [`ServeError`] variant name.
    pub fn status_name(&self) -> &'static str {
        match self.err_code {
            None => "ok",
            Some(c) => ServeError::NAMES
                .get(c as usize - 1)
                .copied()
                .unwrap_or("unknown"),
        }
    }
}

/// Per-connection accounting: the substrate for fairness decisions.
#[derive(Clone, Debug)]
pub struct ClientStats {
    /// Admitted requests (reader-side refusals are in `rejected`).
    pub requests: u64,
    pub ok: u64,
    /// Worker-side errors by `ServeError::code() - 1`.
    pub err: [u64; 5],
    /// Reader-side refusals by `ServeError::code() - 1` (shed, draining,
    /// bad request) — these never entered the queue.
    pub rejected: [u64; 5],
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub queue_wait: Histogram,
}

impl ClientStats {
    fn new() -> Self {
        Self {
            requests: 0,
            ok: 0,
            err: [0; 5],
            rejected: [0; 5],
            bytes_in: 0,
            bytes_out: 0,
            queue_wait: Histogram::new(),
        }
    }
}

/// Compact histogram digest for the wire (quantiles are derived fields,
/// computed server-side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistDigest {
    pub count: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl HistDigest {
    fn of(h: &Histogram) -> Self {
        if h.count == 0 {
            return Self::default();
        }
        Self {
            count: h.count,
            p50_us: h.quantile(0.50) as u64,
            p99_us: h.quantile(0.99) as u64,
            max_us: h.max,
        }
    }
}

/// One row of the per-client table as it goes over the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientRow {
    pub conn: u64,
    pub requests: u64,
    pub ok: u64,
    pub err: [u64; 5],
    pub rejected: [u64; 5],
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub queue_wait: HistDigest,
}

/// Exactly consistent view of the recorder, taken under one lock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Admitted requests ever.
    pub requests: u64,
    pub ok: u64,
    pub err: [u64; 5],
    /// Admitted but not yet completed. `requests == ok + Σerr + live`
    /// holds in every snapshot by construction.
    pub live: u64,
    /// Reader-side refusals by variant (never admitted, not in
    /// `requests`).
    pub rejected: [u64; 5],
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub ring_len: u32,
    pub ring_cap: u32,
    pub slow_count: u64,
    pub slow_ms: u64,
    pub clients: Vec<ClientRow>,
    /// `(epoch, completed requests pinned to it)`, oldest retained first.
    pub epoch_pins: Vec<(u64, u64)>,
    /// Pins on epochs evicted from the bounded history.
    pub pins_evicted: u64,
    /// How long after a newer epoch was published older epochs were
    /// still being released by in-flight readers.
    pub epoch_lag: HistDigest,
}

impl RecorderSnapshot {
    /// The mid-storm conservation law the chaos probe asserts.
    pub fn err_total(&self) -> u64 {
        self.err.iter().sum()
    }
}

struct RecInner {
    requests: u64,
    ok: u64,
    err: [u64; 5],
    live: u64,
    rejected: [u64; 5],
    bytes_in: u64,
    bytes_out: u64,
    clients: BTreeMap<u64, ClientStats>,
    ring: VecDeque<RequestTrace>,
    slow_count: u64,
    /// Span lines written to the slow log so far — the file-absolute
    /// index base for the next entry's parent pointers.
    slow_spans_written: u64,
    epoch_pins: BTreeMap<u64, u64>,
    pins_evicted: u64,
    /// First known publish instant per epoch (fed by workers from
    /// `Epoch::published_at`), the reference for `epoch.lag`.
    epoch_published: BTreeMap<u64, Instant>,
    epoch_lag: Histogram,
}

/// The flight recorder. One per server; shared by readers and workers.
pub struct FlightRecorder {
    epoch: Instant,
    ring_cap: usize,
    slow_ms: u64,
    inner: Mutex<RecInner>,
    slow_log: Option<Mutex<BufWriter<File>>>,
}

impl FlightRecorder {
    pub fn new(cfg: RecorderConfig) -> io::Result<Self> {
        let slow_log = match &cfg.slow_log {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(Self {
            epoch: Instant::now(),
            ring_cap: cfg.ring,
            slow_ms: cfg.slow_ms,
            inner: Mutex::new(RecInner {
                requests: 0,
                ok: 0,
                err: [0; 5],
                live: 0,
                rejected: [0; 5],
                bytes_in: 0,
                bytes_out: 0,
                clients: BTreeMap::new(),
                ring: VecDeque::new(),
                slow_count: 0,
                slow_spans_written: 0,
                epoch_pins: BTreeMap::new(),
                pins_evicted: 0,
                epoch_published: BTreeMap::new(),
                epoch_lag: Histogram::new(),
            }),
            slow_log,
        })
    }

    /// The recorder's time origin (slow-log `start_us` offsets are
    /// relative to it).
    pub fn started(&self) -> Instant {
        self.epoch
    }

    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }

    /// A request was admitted to the queue.
    pub fn on_admit(&self, conn: u64, bytes_in: u64) {
        let mut g = self.inner.lock().unwrap();
        g.requests += 1;
        g.live += 1;
        g.bytes_in += bytes_in;
        let c = g.clients.entry(conn).or_insert_with(ClientStats::new);
        c.requests += 1;
        c.bytes_in += bytes_in;
    }

    /// The reader refused a request before admission (shed, draining,
    /// undecodable).
    pub fn on_reject(&self, conn: u64, err: &ServeError) {
        let i = err.code() as usize - 1;
        let mut g = self.inner.lock().unwrap();
        g.rejected[i] += 1;
        g.clients.entry(conn).or_insert_with(ClientStats::new).rejected[i] += 1;
    }

    /// A worker completed an admitted request. `pinned_published_at` is
    /// the publish instant of the epoch the request pinned; `newest` is
    /// the epoch current at completion (number + publish instant), used
    /// as the lag reference when the pinned epoch has been superseded.
    pub fn on_done(
        &self,
        rt: RequestTrace,
        pinned_published_at: Instant,
        newest: (u64, Instant),
    ) {
        let now = Instant::now();
        let mut g = self.inner.lock().unwrap();
        g.live = g.live.saturating_sub(1);
        g.bytes_out += rt.bytes_out;
        match rt.err_code {
            None => g.ok += 1,
            Some(c) => g.err[c as usize - 1] += 1,
        }
        {
            let c = g.clients.entry(rt.conn).or_insert_with(ClientStats::new);
            match rt.err_code {
                None => c.ok += 1,
                Some(code) => c.err[code as usize - 1] += 1,
            }
            c.bytes_out += rt.bytes_out;
            c.queue_wait.record(rt.queue_wait_us);
        }

        // Epoch-churn visibility: which epoch the request pinned, and —
        // when that epoch was already superseded at release — how long
        // past the successor's publish it was still held. The successor's
        // publish instant is used when known, else the newest epoch's (a
        // lower bound on the true lag).
        *g.epoch_pins.entry(rt.epoch).or_insert(0) += 1;
        g.epoch_published.entry(rt.epoch).or_insert(pinned_published_at);
        g.epoch_published.entry(newest.0).or_insert(newest.1);
        if rt.epoch < newest.0 {
            if let Some((_, &published)) = g.epoch_published.range(rt.epoch + 1..).next() {
                let lag_us = now.saturating_duration_since(published).as_micros() as u64;
                g.epoch_lag.record(lag_us);
            }
        }
        while g.epoch_pins.len() > EPOCH_HISTORY {
            let oldest = *g.epoch_pins.keys().next().unwrap();
            let evicted = g.epoch_pins.remove(&oldest).unwrap_or(0);
            g.pins_evicted += evicted;
            g.epoch_published.remove(&oldest);
        }

        // Slow classification before the ring consumes the trace. Compared
        // in whole milliseconds: `slow_ms * 1000` overflows for a large
        // `--slow-ms`.
        let is_slow = self.slow_ms > 0 && rt.record.wall_us() / 1000 >= self.slow_ms;
        if is_slow {
            g.slow_count += 1;
            if let Some(w) = &self.slow_log {
                let base = g.slow_spans_written;
                let (text, lines) = render_slow_entry(&rt, base);
                g.slow_spans_written += lines;
                // Write under the recorder lock so concurrent workers
                // can't interleave entries (parent indices are
                // file-absolute).
                let mut w = w.lock().unwrap();
                let _ = w.write_all(text.as_bytes());
                let _ = w.flush();
            }
        }

        if self.ring_cap > 0 {
            if g.ring.len() >= self.ring_cap {
                g.ring.pop_front();
            }
            g.ring.push_back(rt);
        }
    }

    /// Clones the ring (oldest first).
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// One-lock consistent snapshot for the introspection payload.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let g = self.inner.lock().unwrap();
        RecorderSnapshot {
            requests: g.requests,
            ok: g.ok,
            err: g.err,
            live: g.live,
            rejected: g.rejected,
            bytes_in: g.bytes_in,
            bytes_out: g.bytes_out,
            ring_len: g.ring.len() as u32,
            ring_cap: self.ring_cap as u32,
            slow_count: g.slow_count,
            slow_ms: self.slow_ms,
            clients: g
                .clients
                .iter()
                .map(|(&conn, c)| ClientRow {
                    conn,
                    requests: c.requests,
                    ok: c.ok,
                    err: c.err,
                    rejected: c.rejected,
                    bytes_in: c.bytes_in,
                    bytes_out: c.bytes_out,
                    queue_wait: HistDigest::of(&c.queue_wait),
                })
                .collect(),
            epoch_pins: g.epoch_pins.iter().map(|(&e, &n)| (e, n)).collect(),
            pins_evicted: g.pins_evicted,
            epoch_lag: HistDigest::of(&g.epoch_lag),
        }
    }

    /// Flushes the slow log (drain path).
    pub fn flush(&self) {
        if let Some(w) = &self.slow_log {
            let _ = w.lock().unwrap().flush();
        }
    }
}

/// Renders one slow request as `span`-type JSON lines compatible with
/// `Registry::from_json_lines`. Returns the text and the number of span
/// lines it contains. Parent indices are rebased to file-absolute
/// positions; `start_us` is rebased to the recorder's time origin. The
/// root span's name is rewritten to carry the request metadata.
fn render_slow_entry(rt: &RequestTrace, base: u64) -> (String, u64) {
    let mut out = String::new();
    let mut lines = 0u64;
    for (i, s) in rt.record.spans.iter().enumerate() {
        let name = if i == 0 {
            format!(
                "slow.{} conn={} id={} epoch={} status={}",
                rt.kind,
                rt.conn,
                rt.corr,
                rt.epoch,
                rt.status_name()
            )
        } else {
            s.name.to_string()
        };
        let parent = match s.parent {
            Some(p) => (base + p as u64).to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"parent\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}\n",
            igdb_obs::json_escape(&name),
            parent,
            s.depth,
            rt.start_offset_us + s.start_us,
            s.dur_us.unwrap_or(0),
        ));
        lines += 1;
    }
    (out, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_obs::TraceContext;

    fn completed(conn: u64, corr: u64, wall_sleep_ms: u64) -> RequestTrace {
        let trace = TraceContext::new(conn, corr, "request");
        {
            let _t = trace.install();
            trace.record("queue.wait", 0, 5);
            let _e = trace.span("execute");
            std::thread::sleep(std::time::Duration::from_millis(wall_sleep_ms));
        }
        RequestTrace {
            conn,
            corr,
            kind: "sp_query",
            epoch: 0,
            err_code: None,
            queue_wait_us: 5,
            bytes_in: 40,
            bytes_out: 60,
            start_offset_us: 0,
            record: trace.finish(),
        }
    }

    #[test]
    fn ledger_is_exact_in_every_snapshot() {
        let rec = FlightRecorder::new(RecorderConfig::default()).unwrap();
        let t0 = Instant::now();
        rec.on_admit(1, 40);
        rec.on_admit(1, 40);
        rec.on_admit(2, 40);
        let snap = rec.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.live, 3);
        assert_eq!(snap.requests, snap.ok + snap.err_total() + snap.live);

        rec.on_done(completed(1, 1, 0), t0, (0, t0));
        let mut err = completed(1, 2, 0);
        err.err_code = Some(2); // timeout
        rec.on_done(err, t0, (0, t0));
        rec.on_reject(2, &ServeError::Overloaded { queue_depth: 3 });
        let snap = rec.snapshot();
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.err[1], 1);
        assert_eq!(snap.live, 1);
        assert_eq!(snap.requests, snap.ok + snap.err_total() + snap.live);
        assert_eq!(snap.rejected[2], 1);
        // Per-client rows add up to the totals.
        let c1 = snap.clients.iter().find(|c| c.conn == 1).unwrap();
        assert_eq!(c1.requests, 2);
        assert_eq!(c1.ok, 1);
        assert_eq!(c1.err[1], 1);
        assert_eq!(c1.queue_wait.count, 2);
        assert_eq!(snap.epoch_pins, vec![(0, 2)]);
    }

    #[test]
    fn ring_evicts_oldest_and_slow_log_is_parseable() {
        let dir = std::env::temp_dir().join(format!("igdb-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let rec = FlightRecorder::new(RecorderConfig {
            ring: 2,
            slow_ms: 1,
            slow_log: Some(path.clone()),
        })
        .unwrap();
        let t0 = Instant::now();
        for corr in 0..3 {
            rec.on_admit(7, 40);
            rec.on_done(completed(7, corr, 2), t0, (0, t0));
        }
        let traces = rec.traces();
        assert_eq!(traces.len(), 2, "ring capacity 2 keeps the newest 2");
        assert_eq!(traces[0].corr, 1);
        let snap = rec.snapshot();
        assert_eq!(snap.slow_count, 3);
        rec.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        // Three entries of three spans each, parent indices
        // file-absolute: roots at lines 0, 3 and 6.
        let parsed = igdb_obs::Registry::from_json_lines(&text).unwrap();
        let spans = parsed.spans();
        assert_eq!(spans.len(), 9);
        for (i, s) in spans.iter().enumerate() {
            match i % 3 {
                0 => {
                    assert!(s.name.starts_with("slow.sp_query conn=7"), "root: {}", s.name);
                    assert_eq!(s.parent, None);
                }
                _ => assert_eq!(s.parent, Some(i - i % 3), "child of its own root"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The largest `--slow-ms` whose microsecond value no longer fits a
    /// `u64` classifies nothing as slow (it used to overflow: a panic
    /// under the recorder lock in a debug build, a 384 µs threshold in
    /// release).
    #[test]
    fn huge_slow_threshold_classifies_nothing_as_slow() {
        let rec = FlightRecorder::new(RecorderConfig {
            slow_ms: 18_446_744_073_709_552,
            ..RecorderConfig::default()
        })
        .unwrap();
        let t0 = Instant::now();
        rec.on_admit(1, 40);
        rec.on_done(completed(1, 1, 1), t0, (0, t0));
        assert_eq!(rec.snapshot().slow_count, 0);
    }

    #[test]
    fn slow_log_span_names_round_trip_through_the_parser() {
        let name = "quote\" backslash\\ newline\n tab\t";
        let trace = TraceContext::new(3, 9, "request");
        trace.record(name, 0, 5);
        let rt = RequestTrace { record: trace.finish(), ..completed(3, 9, 0) };
        let (text, lines) = render_slow_entry(&rt, 0);
        assert_eq!(lines, 2);
        let parsed = igdb_obs::Registry::from_json_lines(&text).unwrap();
        assert_eq!(parsed.spans()[1].name, name);
    }

    #[test]
    fn epoch_lag_records_only_superseded_pins() {
        let rec = FlightRecorder::new(RecorderConfig::default()).unwrap();
        let t0 = Instant::now();
        rec.on_admit(1, 40);
        // Pinned epoch 0, released while epoch 1 is current → lag.
        let mut rt = completed(1, 1, 0);
        rt.epoch = 0;
        rec.on_done(rt, t0, (1, t0));
        let snap = rec.snapshot();
        assert_eq!(snap.epoch_lag.count, 1);
        // A pin on the newest epoch records no lag.
        rec.on_admit(1, 40);
        let mut rt = completed(1, 2, 0);
        rt.epoch = 1;
        rec.on_done(rt, t0, (1, t0));
        assert_eq!(rec.snapshot().epoch_lag.count, 1);
    }
}
