//! `igdb-obs` — deterministic observability for the iGDB pipeline.
//!
//! The build pipeline is a multi-stage integration job (standardize →
//! Voronoi join → right-of-way routing → relational load → cross-layer
//! analyses), and per-stage accounting of how many records survive each
//! filter is what makes its output trustworthy. This crate provides that
//! accounting as a *tested contract* rather than println debugging:
//!
//! * [`Registry`] — a thread-safe sink for metrics and spans. Cheap to
//!   clone (`Arc` inside); one registry typically covers one build.
//! * **Counters** ([`Registry::counter_add`]) — monotonic `u64` totals
//!   that are **scheduling invariant**: the same work must produce the
//!   same counter values at any number of server workers. These form the
//!   [`Registry::counter_snapshot`] determinism contract and carry the
//!   per-source ingestion accounting that cross-checks `BuildReport`.
//! * **Perf counters** ([`Registry::perf_add`]) — totals that legitimately
//!   depend on scheduling (corridor-cache hits per worker, resumable
//!   Dijkstra workspace resets). Excluded from the deterministic snapshot.
//! * **Histograms** ([`Registry::observe`]) — power-of-two bucketed value
//!   distributions (span durations, nodes settled per Dijkstra run).
//! * **Spans** ([`Registry::span`]) — hierarchical stage → sub-stage
//!   timing on a monotonic clock. Guards nest via one thread-local open
//!   stack shared by every span tree; [`Registry::check_span_nesting`]
//!   asserts the tree is well-formed (children contained in parents,
//!   opens monotone, everything closed).
//! * **Traces** ([`TraceContext`]) — request-scoped span trees for
//!   concurrent handlers. A reader creates a trace (id = connection id +
//!   correlation id) and hands it to the pool worker; while the worker has
//!   it [installed](TraceContext::install), the free [`span`] routes into
//!   the trace instead of the registry, so every request gets a complete
//!   reader → queue → worker → analysis → encode tree with deterministic
//!   *structure* and perf-classed timings, checked per thread and per
//!   request by [`TraceRecord::check_nesting`].
//! * **Tallies** ([`Tally`]) — a thread-scoped counter sink beside the
//!   registry and the trace: what one scope of the calling thread ticked,
//!   zero ticks included, registry or none, and nothing another thread
//!   ticked (the build's per-stage counter ledger, validation's
//!   accounting cross-check).
//! * **Sinks** — [`Registry::render_table`] (human) and
//!   [`Registry::json_lines`] (machine, one JSON object per line), with
//!   [`Registry::from_json_lines`] parsing the latter back so `igdb
//!   metrics --in file.jsonl` can re-render a saved run. Histograms carry
//!   p50/p90/p99 columns via [`Histogram::quantile`] (deterministic
//!   within-bucket interpolation; derived fields, recomputed on re-emit).
//! * **Profiles** ([`Registry::profile`]) — flame-style aggregation of the
//!   span tree: per-span-name total/self time and call counts, plus the
//!   critical root-to-leaf path (`igdb metrics --profile`).
//!
//! # Propagation
//!
//! Instrumented code does not thread a handle through every signature.
//! A registry is made *current* for a scope with [`Registry::install`]
//! (thread-local, stacked, restored on drop); the free functions
//! [`counter`], [`perf`], [`observe`] and [`span`] write to the current
//! registry and are no-ops — one thread-local read — when none is
//! installed, so un-instrumented runs pay nothing. [`counter`] also
//! reads the thread's innermost open [`Tally`], one thread-local read
//! more. A thread spawned
//! inside the scope (a server worker) installs a clone of the registry
//! itself.
//!
//! # Determinism rules
//!
//! 1. A **counter** may only be incremented by amounts derived from the
//!    input data, never from scheduling (chunk sizes, worker ids, timing).
//! 2. **Registry spans** may only be opened from serial pipeline code, so
//!    the registry's span list order is deterministic. Concurrent request
//!    handlers do not gag their spans — they install a [`TraceContext`]
//!    instead: each request gets its own span tree, a span's parent is
//!    only ever sought among the spans its own thread has open in its own
//!    tree, and the registry's serial list is never touched from a pool
//!    worker.
//! 3. Timing lives in span durations and histograms only; the
//!    [`JsonMode::Deterministic`] sink redacts it, which is what makes
//!    golden-file tests of the metrics stream possible. Trace *structure*
//!    (names, nesting, per-trace counters) is deterministic; trace
//!    timings are perf-class.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Metric and span names: `&'static str` at instrumentation sites (no
/// allocation), owned when parsed back from JSON-lines.
pub type Name = Cow<'static, str>;

const BUCKETS: usize = 40;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Power-of-two bucketed `u64` distribution: bucket `i` counts values `v`
/// with `bucket_of(v) == i`, i.e. `2^(i-1) <= v < 2^i` (bucket 0 holds 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. Public so sinks outside the registry (the
    /// serve flight recorder's per-client queue-wait accounting) can
    /// aggregate with the same bucketing and quantile semantics.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        // Saturate rather than wrap: a pegged sum keeps mean() an honest
        // lower bound instead of a small garbage number.
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Bucket index of a value (top buckets saturate).
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Mean of the recorded values; 0.0 on an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive value range a bucket covers: bucket 0 holds exactly 0,
    /// bucket `i` holds `2^(i-1) ..= 2^i - 1`. The saturated top bucket's
    /// upper bound is clamped to the observed `max` by [`quantile`].
    ///
    /// [`quantile`]: Self::quantile
    fn bucket_bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 0.0)
        } else {
            let lo = (1u128 << (i - 1)) as f64;
            let hi = ((1u128 << i) - 1) as f64;
            (lo, hi)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`, clamped) of the recorded
    /// distribution, estimated by deterministic linear interpolation:
    /// the fractional rank `q * (count - 1)` is located in the bucket
    /// cumulative counts place it in, then interpolated across that
    /// bucket's value range (clamped to the observed `min`/`max`, which
    /// also bounds the saturated top bucket). A pure function of
    /// (`buckets`, `count`, `min`, `max`), so parsed-back histograms
    /// report identical quantiles. Returns 0.0 on an empty histogram
    /// (like [`mean`](Self::mean)).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (self.count - 1) as f64;
        // The extreme ranks are known exactly — no interpolation error at
        // the endpoints the regression gate cares most about.
        if rank <= 0.0 {
            return self.min as f64;
        }
        if rank >= (self.count - 1) as f64 {
            return self.max as f64;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            // Ranks `seen ..= seen + c - 1` fall in this bucket.
            if rank < (seen + c) as f64 {
                let (lo, hi) = Self::bucket_bounds(i);
                let lo = lo.max(self.min as f64);
                let hi = hi.min(self.max as f64);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Sparse `"bucket:count"` rendering (and JSON payload).
    fn buckets_compact(&self) -> String {
        let mut out = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                let _ = write!(out, "{i}:{c}");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// `name{label}`, or bare `name` when the label is empty: how every sink
/// (snapshot, table, diff) renders a metric key.
struct Key<'a>(&'a str, &'a str);

impl std::fmt::Display for Key<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Key(name, "") => f.write_str(name),
            Key(name, label) => write!(f, "{name}{{{label}}}"),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Metric {
    Counter(u64),
    Perf(u64),
    /// Boxed: a histogram is 44 words, and every counter in the map would
    /// otherwise be as large.
    Hist(Box<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Perf(_) => "perf",
            Metric::Hist(_) => "hist",
        }
    }
}

/// One recorded span. `start_us` is relative to the registry's creation on
/// a monotonic clock; `dur_us` is `None` while the span is open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: Name,
    /// Index of the enclosing span within the registry's span list.
    pub parent: Option<usize>,
    pub depth: usize,
    pub start_us: u64,
    pub dur_us: Option<u64>,
}

/// One span list on one monotonic clock — the storage and the nesting
/// rule behind both sinks. A [`Registry`] holds one as its serial list, a
/// [`TraceContext`] one per request; they differ in data only (the parent
/// a span gets when its thread has nothing open in the tree, and whether
/// opens must be monotone), never in how a span is opened, closed or
/// checked.
#[derive(Debug)]
struct SpanTree {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl SpanTree {
    fn new(spans: Vec<SpanRecord>) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(spans),
        }
    }

    /// Identity on the thread-local open stack. The address is stable:
    /// both owners keep their tree inside an `Arc`.
    fn id(&self) -> usize {
        self as *const Self as usize
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends a span whose parent is the innermost span this thread has
    /// open *in this tree*, else `default_parent`. `closed` is an
    /// already-measured `(start_us, dur_us)`; `None` starts the span now.
    fn push(&self, name: Name, default_parent: Option<usize>, closed: Option<(u64, u64)>) -> usize {
        let parent = OPEN_SPANS
            .with(|s| {
                let open = s.borrow();
                open.iter().rev().find(|e| e.0 == self.id()).map(|e| e.1)
            })
            .or(default_parent);
        let mut spans = self.spans.lock().unwrap();
        // Timestamp under the lock so records are start-ordered.
        let (start_us, dur_us) = match closed {
            Some((start, dur)) => (start, Some(dur)),
            None => (self.now_us(), None),
        };
        let depth = parent.map_or(0, |p| spans[p].depth + 1);
        spans.push(SpanRecord {
            name,
            parent,
            depth,
            start_us,
            dur_us,
        });
        spans.len() - 1
    }

    /// Opens a span and makes it this thread's innermost in this tree.
    fn open(&self, name: Name, default_parent: Option<usize>) -> usize {
        let idx = self.push(name, default_parent, None);
        OPEN_SPANS.with(|s| s.borrow_mut().push((self.id(), idx)));
        idx
    }

    /// Closes span `idx` at the current instant and takes it off this
    /// thread's open stack; returns its name and duration.
    fn close(&self, idx: usize) -> (Name, u64) {
        let end = self.now_us();
        let closed = {
            let mut spans = self.spans.lock().unwrap();
            let rec = &mut spans[idx];
            let dur = end.saturating_sub(rec.start_us);
            rec.dur_us = Some(dur);
            (rec.name.clone(), dur)
        };
        OPEN_SPANS.with(|s| {
            let mut open = s.borrow_mut();
            if open.last() == Some(&(self.id(), idx)) {
                open.pop();
            } else {
                // Out-of-order drop (e.g. guards dropped by unwind in
                // declaration order): remove wherever it sits.
                open.retain(|&e| e != (self.id(), idx));
            }
        });
        closed
    }

    /// The structural invariant of a span list: every span closed,
    /// parents point backwards with consistent depth, every child's
    /// interval contained in its parent's. `monotone_opens` additionally
    /// requires records in start order — true of a list built by `open`
    /// alone, not of one carrying backfilled intervals.
    fn check(spans: &[SpanRecord], monotone_opens: bool) -> Result<(), String> {
        for (i, s) in spans.iter().enumerate() {
            let dur = s
                .dur_us
                .ok_or_else(|| format!("span {i} ({}) never closed", s.name))?;
            if monotone_opens && i > 0 && s.start_us < spans[i - 1].start_us {
                return Err(format!(
                    "span {i} ({}) opened before span {} ({})",
                    s.name,
                    i - 1,
                    spans[i - 1].name
                ));
            }
            match s.parent {
                None => {
                    if s.depth != 0 {
                        return Err(format!("root span {i} ({}) has depth {}", s.name, s.depth));
                    }
                }
                Some(p) => {
                    if p >= i {
                        return Err(format!("span {i} ({}) has forward parent {p}", s.name));
                    }
                    let ps = &spans[p];
                    if s.depth != ps.depth + 1 {
                        return Err(format!(
                            "span {i} ({}) depth {} under parent depth {}",
                            s.name, s.depth, ps.depth
                        ));
                    }
                    let pdur = ps
                        .dur_us
                        .ok_or_else(|| format!("parent span {p} ({}) never closed", ps.name))?;
                    if s.start_us < ps.start_us || s.start_us + dur > ps.start_us + pdur {
                        return Err(format!(
                            "span {i} ({}) [{}..{}] escapes parent {} ({}) [{}..{}]",
                            s.name,
                            s.start_us,
                            s.start_us + dur,
                            p,
                            ps.name,
                            ps.start_us,
                            ps.start_us + pdur
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    metrics: Mutex<BTreeMap<(Name, Name), Metric>>,
    tree: SpanTree,
}

/// Thread-safe metric + span sink. Clones share the same storage.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
    /// Spans this thread has open, innermost last: `(tree id, span
    /// index)`. One stack serves every tree — entries of other trees are
    /// skipped when a parent is sought — so nesting is tracked per thread
    /// *and* per tree, and pool workers never share a parent.
    static OPEN_SPANS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    /// Installed request traces on this thread, innermost last: which
    /// trace the free [`span`] and [`counter`] route to.
    static TRACE_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
    /// Open [`Tally`] sums on this thread, innermost last. A tick lands in
    /// the innermost; closing one adds its sums to the next one out.
    static TALLIES: RefCell<Vec<TallySums>> = const { RefCell::new(Vec::new()) };
}

/// Identity of one request trace: the connection it arrived on plus the
/// client-chosen correlation id (the frame id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceId {
    pub conn: u64,
    pub corr: u64,
}

#[derive(Debug)]
struct TraceInner {
    id: TraceId,
    /// Sink traces discard spans instead of recording them: a scope that
    /// runs instrumented code concurrently but has no request to attribute
    /// it to (e.g. a background churn thread) installs one so free spans
    /// stay off the registry's serial list without a suppression switch.
    sink: bool,
    tree: SpanTree,
    counters: Mutex<BTreeMap<(Name, Name), u64>>,
}

/// A request-scoped span tree, safe to hand across threads (reader →
/// queue → pool worker). Clones share the same storage.
///
/// Registry spans stay serial (determinism rule 2); a `TraceContext` is
/// how concurrent handlers get spans anyway: while a trace is
/// [installed](Self::install) on a thread, the free [`span`] function
/// routes into the trace's own tree. Span 0 is
/// the root, opened at creation and closed by [`finish`](Self::finish),
/// so the root duration is the request's wall time.
#[derive(Clone, Debug)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl TraceContext {
    /// Starts a trace for request `corr` on connection `conn`; the root
    /// span `root` opens immediately at offset 0.
    pub fn new(conn: u64, corr: u64, root: impl Into<Name>) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                id: TraceId { conn, corr },
                sink: false,
                tree: SpanTree::new(vec![SpanRecord {
                    name: root.into(),
                    parent: None,
                    depth: 0,
                    start_us: 0,
                    dur_us: None,
                }]),
                counters: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A trace that records nothing: spans opened under it are inert.
    /// Install one around concurrent instrumented work that belongs to no
    /// request (background epoch churn); counters, perf counters and
    /// histograms keep flowing to the installed registry.
    pub fn sink() -> Self {
        Self {
            inner: Arc::new(TraceInner {
                id: TraceId { conn: 0, corr: 0 },
                sink: true,
                tree: SpanTree::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    pub fn id(&self) -> TraceId {
        self.inner.id
    }

    pub fn is_sink(&self) -> bool {
        self.inner.sink
    }

    /// The instant the trace started (root span offset 0).
    pub fn started(&self) -> Instant {
        self.inner.tree.epoch
    }

    /// Microseconds from trace start to `t` (0 if `t` precedes it).
    pub fn offset_us(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.inner.tree.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// Makes this trace the routing target for the free [`span`] function
    /// on the calling thread until the guard drops. Installs stack; the
    /// innermost wins.
    #[must_use = "the trace only receives spans until the guard drops"]
    pub fn install(&self) -> TraceInstalled {
        TRACE_STACK.with(|s| s.borrow_mut().push(self.clone()));
        TraceInstalled { _priv: () }
    }

    /// Opens a span in this trace. The parent is the innermost span this
    /// thread has open in this trace, or the root. Safe from any thread.
    pub fn span(&self, name: impl Into<Name>) -> Span {
        if self.inner.sink {
            return Span { open: None };
        }
        let idx = self.inner.tree.open(name.into(), Some(0));
        Span {
            open: Some((SpanOwner::Trace(self.clone()), idx)),
        }
    }

    /// Records an already-measured interval as a closed span (child of the
    /// innermost open span on this thread, or the root). This is how a
    /// worker backfills an interval that *started* on another thread —
    /// e.g. queue wait, measured from the reader's enqueue instant.
    pub fn record(&self, name: impl Into<Name>, start_us: u64, dur_us: u64) {
        if !self.inner.sink {
            self.inner
                .tree
                .push(name.into(), Some(0), Some((start_us, dur_us)));
        }
    }

    /// Adds to a deterministic per-request counter (data-derived tallies:
    /// bytes in/out, rows touched — never timing).
    pub fn counter(&self, name: impl Into<Name>, label: impl Into<Name>, delta: u64) {
        if self.inner.sink {
            return;
        }
        *self
            .inner
            .counters
            .lock()
            .unwrap()
            .entry((name.into(), label.into()))
            .or_insert(0) += delta;
    }

    /// Current value of a per-request counter (0 if never incremented).
    pub fn counter_value(&self, name: &str, label: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .unwrap()
            .get(&(
                Name::Owned(name.to_string()),
                Name::Owned(label.to_string()),
            ))
            .copied()
            .unwrap_or(0)
    }

    /// Closes the root span at the current instant (idempotent — the
    /// first call wins) and snapshots the trace. Spans other than the
    /// root that are still open stay open in the snapshot, which
    /// [`TraceRecord::check_nesting`] reports as an error.
    pub fn finish(&self) -> TraceRecord {
        let end = self.inner.tree.now_us();
        let mut spans = self.inner.tree.spans.lock().unwrap();
        if let Some(root) = spans.first_mut() {
            if root.dur_us.is_none() {
                root.dur_us = Some(end);
            }
        }
        let snapshot = spans.clone();
        drop(spans);
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|((n, l), v)| (n.clone(), l.clone(), *v))
            .collect();
        TraceRecord {
            id: self.inner.id,
            spans: snapshot,
            counters,
        }
    }
}

/// Guard returned by [`TraceContext::install`]; pops the thread's trace
/// stack on drop (including unwind).
pub struct TraceInstalled {
    _priv: (),
}

impl Drop for TraceInstalled {
    fn drop(&mut self) {
        TRACE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The innermost trace installed on this thread, if any.
pub fn current_trace() -> Option<TraceContext> {
    TRACE_STACK.with(|s| s.borrow().last().cloned())
}

/// Finished snapshot of one request trace: the span tree (span 0 is the
/// root whose duration is the request's wall time) plus the per-request
/// deterministic counters, sorted by key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub id: TraceId,
    pub spans: Vec<SpanRecord>,
    pub counters: Vec<(Name, Name, u64)>,
}

impl TraceRecord {
    /// The root span (`None` only for an empty/sink record).
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.first()
    }

    /// Request wall time: the root span's duration.
    pub fn wall_us(&self) -> u64 {
        self.root().and_then(|r| r.dur_us).unwrap_or(0)
    }

    /// The deterministic structural shape of the tree: `(depth, name)` in
    /// record order. Two runs of the same request must produce identical
    /// shapes regardless of worker count or shortest-path mode.
    pub fn shape(&self) -> Vec<(usize, String)> {
        self.spans
            .iter()
            .map(|s| (s.depth, s.name.to_string()))
            .collect()
    }

    /// Per-trace structural checker: every span closed, parents point
    /// backwards with consistent depth, every child's interval contained
    /// in its parent's. Unlike [`Registry::check_span_nesting`] this does
    /// *not* require globally monotone opens — a trace legally carries
    /// explicitly [recorded](TraceContext::record) cross-thread intervals
    /// (queue wait) that backfill earlier time.
    pub fn check_nesting(&self) -> Result<(), String> {
        SpanTree::check(&self.spans, false).map_err(|e| format!("trace {e}"))
    }
}

/// Guard returned by [`Registry::install`]; pops the current-registry
/// stack on drop (including unwind).
pub struct Installed {
    _priv: (),
}

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The innermost registry installed on this thread, if any.
pub fn current() -> Option<Registry> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

impl Registry {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                tree: SpanTree::new(Vec::new()),
            }),
        }
    }

    /// Makes this registry the current sink for the free functions on the
    /// calling thread, until the guard drops. Installs stack.
    #[must_use = "the registry is only current until the guard drops"]
    pub fn install(&self) -> Installed {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        Installed { _priv: () }
    }

    fn add(&self, name: Name, label: Name, delta: u64, perf: bool) {
        let mut m = self.inner.metrics.lock().unwrap();
        let e = m.entry((name, label)).or_insert_with(|| {
            if perf {
                Metric::Perf(0)
            } else {
                Metric::Counter(0)
            }
        });
        match (e, perf) {
            (Metric::Counter(v), false) | (Metric::Perf(v), true) => *v += delta,
            (e, _) => panic!(
                "metric registered as {} cannot be used as a {}",
                e.kind(),
                if perf { "perf counter" } else { "counter" }
            ),
        }
    }

    /// Adds to a deterministic counter. Counter values must be
    /// worker-count invariant — derived from the data, never from
    /// scheduling.
    pub fn counter_add(&self, name: impl Into<Name>, label: impl Into<Name>, delta: u64) {
        self.add(name.into(), label.into(), delta, false);
    }

    /// Adds to a perf counter (scheduling-dependent totals: cache hits
    /// per worker, workspace resets). Excluded from
    /// [`counter_snapshot`](Self::counter_snapshot).
    pub fn perf_add(&self, name: impl Into<Name>, label: impl Into<Name>, delta: u64) {
        self.add(name.into(), label.into(), delta, true);
    }

    /// Records one value into a histogram (perf class).
    pub fn observe(&self, name: impl Into<Name>, label: impl Into<Name>, value: u64) {
        let mut m = self.inner.metrics.lock().unwrap();
        let e = m
            .entry((name.into(), label.into()))
            .or_insert_with(|| Metric::Hist(Box::default()));
        match e {
            Metric::Hist(h) => h.record(value),
            e => panic!(
                "metric registered as {} cannot be used as a histogram",
                e.kind()
            ),
        }
    }

    /// Current value of a deterministic counter (0 if never incremented).
    pub fn counter_value(&self, name: &str, label: &str) -> u64 {
        match self.lookup(name, label) {
            Some(Metric::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Current value of a perf counter (0 if never incremented).
    pub fn perf_value(&self, name: &str, label: &str) -> u64 {
        match self.lookup(name, label) {
            Some(Metric::Perf(v)) => v,
            _ => 0,
        }
    }

    /// Snapshot of one histogram, if recorded.
    pub fn histogram(&self, name: &str, label: &str) -> Option<Histogram> {
        match self.lookup(name, label) {
            Some(Metric::Hist(h)) => Some(*h),
            _ => None,
        }
    }

    fn lookup(&self, name: &str, label: &str) -> Option<Metric> {
        let m = self.inner.metrics.lock().unwrap();
        m.get(&(
            Name::Owned(name.to_string()),
            Name::Owned(label.to_string()),
        ))
        .cloned()
    }

    /// Opens a hierarchical span. The parent is the innermost span this
    /// thread currently has open *in this registry*. Only call from serial
    /// pipeline code (determinism rule 2).
    pub fn span(&self, name: impl Into<Name>) -> Span {
        let idx = self.inner.tree.open(name.into(), None);
        Span {
            open: Some((SpanOwner::Registry(self.clone()), idx)),
        }
    }

    /// All spans recorded so far, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.tree.spans.lock().unwrap().clone()
    }

    /// Asserts the span tree is well-formed: every span closed, opens
    /// monotone, depths consistent, every child interval contained in its
    /// parent's. The test harness's structural invariant.
    pub fn check_span_nesting(&self) -> Result<(), String> {
        SpanTree::check(&self.spans(), true)
    }

    // -- Sinks --------------------------------------------------------------

    /// Deterministic counters only, sorted by key, one `name{label} value`
    /// line each. Byte-identical across worker counts by contract.
    pub fn counter_snapshot(&self) -> String {
        let m = self.inner.metrics.lock().unwrap();
        let mut out = String::new();
        for ((name, label), v) in m.iter() {
            if let Metric::Counter(v) = v {
                let _ = writeln!(out, "{} {v}", Key(name, label));
            }
        }
        out
    }

    /// Human-readable rendering: counters, perf counters, histograms, and
    /// the span tree.
    pub fn render_table(&self) -> String {
        let m = self.inner.metrics.lock().unwrap();
        let key = |name: &Name, label: &Name| Key(name, label).to_string();
        let mut out = String::new();
        for (title, want) in [("counters", "counter"), ("perf", "perf")] {
            let rows: Vec<(String, u64)> = m
                .iter()
                .filter_map(|((n, l), v)| match v {
                    Metric::Counter(v) if want == "counter" => Some((key(n, l), *v)),
                    Metric::Perf(v) if want == "perf" => Some((key(n, l), *v)),
                    _ => None,
                })
                .collect();
            if !rows.is_empty() {
                let _ = writeln!(out, "{title}:");
                for (k, v) in rows {
                    let _ = writeln!(out, "  {k:<44} {v:>12}");
                }
            }
        }
        let hists: Vec<(String, &Histogram)> = m
            .iter()
            .filter_map(|((n, l), v)| match v {
                Metric::Hist(h) => Some((key(n, l), &**h)),
                _ => None,
            })
            .collect();
        if !hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in hists {
                let _ = writeln!(
                    out,
                    "  {k:<44} count {:>8}  mean {:>10.1}  p50 {:>10.1}  p90 {:>10.1}  p99 {:>10.1}  min {:>8}  max {:>8}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    if h.count == 0 { 0 } else { h.min },
                    h.max
                );
            }
        }
        drop(m);
        let spans = self.spans();
        if !spans.is_empty() {
            let _ = writeln!(out, "spans:");
            for s in &spans {
                let indent = "  ".repeat(s.depth + 1);
                match s.dur_us {
                    Some(d) => {
                        let _ = writeln!(
                            out,
                            "{indent}{:<width$} {:>10.3} ms",
                            s.name,
                            d as f64 / 1000.0,
                            width = 46usize.saturating_sub(indent.len())
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{indent}{} (open)", s.name);
                    }
                }
            }
        }
        out
    }

    /// JSON-lines sink: one object per line. [`JsonMode::Full`] emits
    /// everything; [`JsonMode::Deterministic`] emits only the
    /// worker-count-invariant stream (counters, spans with timing
    /// redacted) — the golden-test format.
    pub fn json_lines(&self, mode: JsonMode) -> String {
        let m = self.inner.metrics.lock().unwrap();
        let mut out = String::new();
        for ((name, label), v) in m.iter() {
            match v {
                Metric::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"counter\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{v}}}",
                        json_escape(name),
                        json_escape(label)
                    );
                }
                Metric::Perf(v) if mode == JsonMode::Full => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"perf\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{v}}}",
                        json_escape(name),
                        json_escape(label)
                    );
                }
                Metric::Hist(h) if mode == JsonMode::Full => {
                    // p50/p90/p99 are derived from (buckets, count, min,
                    // max); the parser ignores them and recomputes, so
                    // round-trips stay byte-identical.
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"hist\",\"name\":\"{}\",\"label\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":\"{}\"}}",
                        json_escape(name),
                        json_escape(label),
                        h.count,
                        h.sum,
                        if h.count == 0 { 0 } else { h.min },
                        h.max,
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.buckets_compact()
                    );
                }
                _ => {}
            }
        }
        drop(m);
        for s in self.spans() {
            let (start, dur) = match mode {
                JsonMode::Full => (s.start_us, s.dur_us),
                JsonMode::Deterministic => (0, Some(0)),
            };
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let dur = match dur {
                Some(d) => d.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",\"parent\":{parent},\"depth\":{},\"start_us\":{start},\"dur_us\":{dur}}}",
                json_escape(&s.name),
                s.depth
            );
        }
        out
    }

    /// Parses a [`json_lines`](Self::json_lines) document back into a
    /// registry (for `igdb metrics --in file.jsonl`). Unknown line types
    /// are an error; blank lines are skipped.
    pub fn from_json_lines(doc: &str) -> Result<Registry, String> {
        let reg = Registry::new();
        {
            let mut metrics = reg.inner.metrics.lock().unwrap();
            let mut spans = reg.inner.tree.spans.lock().unwrap();
            for (lineno, line) in doc.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let ctx = |what: &str| format!("line {}: {what}", lineno + 1);
                let ty = json_str(line, "type").ok_or_else(|| ctx("missing \"type\""))?;
                match ty.as_str() {
                    "counter" | "perf" => {
                        let name = json_str(line, "name").ok_or_else(|| ctx("missing name"))?;
                        let label = json_str(line, "label").unwrap_or_default();
                        let value = json_u64(line, "value").ok_or_else(|| ctx("missing value"))?;
                        let v = if ty == "counter" {
                            Metric::Counter(value)
                        } else {
                            Metric::Perf(value)
                        };
                        metrics.insert((Name::Owned(name), Name::Owned(label)), v);
                    }
                    "hist" => {
                        let name = json_str(line, "name").ok_or_else(|| ctx("missing name"))?;
                        let label = json_str(line, "label").unwrap_or_default();
                        let mut h = Histogram::new();
                        h.count = json_u64(line, "count").ok_or_else(|| ctx("missing count"))?;
                        h.sum = json_u64(line, "sum").ok_or_else(|| ctx("missing sum"))?;
                        h.min = json_u64(line, "min").unwrap_or(0);
                        h.max = json_u64(line, "max").unwrap_or(0);
                        if h.count == 0 {
                            h.min = u64::MAX;
                        }
                        for pair in json_str(line, "buckets")
                            .unwrap_or_default()
                            .split_whitespace()
                        {
                            let (i, c) = pair
                                .split_once(':')
                                .ok_or_else(|| ctx("malformed bucket"))?;
                            let i: usize = i.parse().map_err(|_| ctx("malformed bucket index"))?;
                            let c: u64 = c.parse().map_err(|_| ctx("malformed bucket count"))?;
                            if i >= BUCKETS {
                                return Err(ctx("bucket index out of range"));
                            }
                            h.buckets[i] = c;
                        }
                        metrics.insert(
                            (Name::Owned(name), Name::Owned(label)),
                            Metric::Hist(Box::new(h)),
                        );
                    }
                    "span" => {
                        let name = json_str(line, "name").ok_or_else(|| ctx("missing name"))?;
                        let parent = json_u64(line, "parent").map(|p| p as usize);
                        let depth =
                            json_u64(line, "depth").ok_or_else(|| ctx("missing depth"))? as usize;
                        let start_us =
                            json_u64(line, "start_us").ok_or_else(|| ctx("missing start_us"))?;
                        let dur_us = json_u64(line, "dur_us");
                        spans.push(SpanRecord {
                            name: Name::Owned(name),
                            parent,
                            depth,
                            start_us,
                            dur_us,
                        });
                    }
                    // Profile lines are *derived* from the span lines by
                    // [`Registry::profile`]; a parsed registry regenerates
                    // them on demand, so streams that carry a profile
                    // section still round-trip.
                    "profile" | "critical_path" => {}
                    other => return Err(ctx(&format!("unknown line type '{other}'"))),
                }
            }
        }
        Ok(reg)
    }

    /// Aggregates the span tree into a [`Profile`] (per-name totals, self
    /// time, call counts, critical path).
    pub fn profile(&self) -> Profile {
        Profile::from_spans(&self.spans())
    }
}

// ---------------------------------------------------------------------------
// Span-tree profile
// ---------------------------------------------------------------------------

/// One aggregated row of a [`Profile`]: every span sharing `name`, summed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    pub name: Name,
    /// How many spans carried this name.
    pub calls: u64,
    /// Summed wall time of those spans (children included).
    pub total_us: u64,
    /// Summed wall time *minus* time spent in child spans.
    pub self_us: u64,
}

/// Flame-style aggregation over a recorded span tree: per-span-name total
/// time, self time and call count, plus the **critical path** — the
/// root-to-leaf chain obtained by starting at the longest root span and
/// descending into the longest child at every step. Rows are sorted by
/// total time (descending), name as the tie-breaker, so the rendering is
/// deterministic for a given span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    pub rows: Vec<ProfileRow>,
    /// `(name, dur_us)` along the critical path, root first.
    pub critical_path: Vec<(Name, u64)>,
}

impl Profile {
    /// Builds the aggregation from a span list (open spans count as zero
    /// duration; run [`Registry::check_span_nesting`] first if you need
    /// them to be an error instead).
    pub fn from_spans(spans: &[SpanRecord]) -> Profile {
        let mut child_us = vec![0u64; spans.len()];
        for s in spans {
            if let (Some(p), Some(d)) = (s.parent, s.dur_us) {
                child_us[p] += d;
            }
        }
        let mut agg: BTreeMap<Name, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let d = s.dur_us.unwrap_or(0);
            let e = agg.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += d;
            // Nesting guarantees children fit inside their parent, but be
            // defensive about clock granularity.
            e.2 += d.saturating_sub(child_us[i]);
        }
        let mut rows: Vec<ProfileRow> = agg
            .into_iter()
            .map(|(name, (calls, total_us, self_us))| ProfileRow {
                name,
                calls,
                total_us,
                self_us,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.name.cmp(&b.name))
        });

        // Critical path: longest root, then longest child, to a leaf.
        // Strict `>` keeps the earliest span on ties — deterministic.
        let heaviest = |parent: Option<usize>| -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, s) in spans.iter().enumerate() {
                if s.parent == parent
                    && best
                        .is_none_or(|b: usize| s.dur_us.unwrap_or(0) > spans[b].dur_us.unwrap_or(0))
                {
                    best = Some(i);
                }
            }
            best
        };
        let mut critical_path = Vec::new();
        let mut cur = heaviest(None);
        while let Some(i) = cur {
            critical_path.push((spans[i].name.clone(), spans[i].dur_us.unwrap_or(0)));
            cur = heaviest(Some(i));
        }
        Profile {
            rows,
            critical_path,
        }
    }

    /// Total profiled wall time (the denominator for the percentage
    /// column): the sum of self times, which equals the sum of root span
    /// durations since every span's duration partitions into the self
    /// times of its subtree.
    fn root_total_us(&self) -> u64 {
        self.rows.iter().map(|r| r.self_us).sum()
    }

    /// Human-readable flame-style table: one row per span name plus the
    /// critical path chain.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            let _ = writeln!(out, "profile: (no spans)");
            return out;
        }
        let denom = self.root_total_us().max(1) as f64;
        let _ = writeln!(
            out,
            "profile:\n  {:<44} {:>6} {:>12} {:>12} {:>7}",
            "span", "calls", "total ms", "self ms", "self%"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<44} {:>6} {:>12.3} {:>12.3} {:>6.1}%",
                r.name,
                r.calls,
                r.total_us as f64 / 1000.0,
                r.self_us as f64 / 1000.0,
                100.0 * r.self_us as f64 / denom
            );
        }
        let _ = writeln!(out, "critical path:");
        for (depth, (name, dur)) in self.critical_path.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}{} {:.3} ms",
                "  ".repeat(depth),
                name,
                *dur as f64 / 1000.0
            );
        }
        out
    }

    /// JSON-lines section: one `profile` object per row, one
    /// `critical_path` object per step. [`Registry::from_json_lines`]
    /// skips these (they are derived from the span lines).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{{\"type\":\"profile\",\"name\":\"{}\",\"calls\":{},\"total_us\":{},\"self_us\":{}}}",
                json_escape(&r.name),
                r.calls,
                r.total_us,
                r.self_us
            );
        }
        for (depth, (name, dur)) in self.critical_path.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"type\":\"critical_path\",\"depth\":{depth},\"name\":\"{}\",\"dur_us\":{dur}}}",
                json_escape(name)
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Metrics diff (regression gate)
// ---------------------------------------------------------------------------

/// One divergence between a baseline and a current metric stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRow {
    /// Metric class: `counter` or `span`.
    pub class: &'static str,
    /// `name{label}` key (or a span position for span divergences).
    pub key: String,
    /// Baseline-side value, `-` when absent.
    pub baseline: String,
    /// Current-side value, `-` when absent.
    pub current: String,
    /// What went wrong, e.g. `value changed` or `missing in current`.
    pub note: String,
}

/// Result of [`diff_registries`]: empty means the streams agree under the
/// gate's policy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    pub fn is_clean(&self) -> bool {
        self.rows.is_empty()
    }

    /// Per-metric delta table, one row per divergence.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            let _ = writeln!(out, "metrics diff: clean");
            return out;
        }
        let _ = writeln!(
            out,
            "metrics diff: {} divergence{}",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            out,
            "  {:<8} {:<44} {:>14} {:>14}  note",
            "class", "metric", "baseline", "current"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<8} {:<44} {:>14} {:>14}  {}",
                r.class, r.key, r.baseline, r.current, r.note
            );
        }
        out
    }
}

/// Compares a current metric stream against a baseline under the
/// regression-gate policy:
///
/// - **counters** must match *exactly* — they are deterministic by
///   contract, so any missing, extra, or changed counter is a divergence;
/// - **spans** are compared structurally by `(depth, name)` sequence,
///   ignoring timing — a [`JsonMode::Full`] current stream can be gated
///   against a committed [`JsonMode::Deterministic`] baseline;
/// - **perf counters and histograms** are scheduling-dependent and never
///   compared: one run against another inside a flat band is not a
///   timing verdict. Timings are gated by the benchmark's paired runs
///   (`bench compare`).
pub fn diff_registries(baseline: &Registry, current: &Registry) -> DiffReport {
    let mut rows = Vec::new();
    let base = baseline.inner.metrics.lock().unwrap().clone();
    let cur = current.inner.metrics.lock().unwrap().clone();

    let keys: BTreeSet<&(Name, Name)> = base.keys().chain(cur.keys()).collect();
    for k in keys {
        let key = Key(&k.0, &k.1).to_string();
        match (base.get(k), cur.get(k)) {
            (Some(Metric::Counter(b)), Some(Metric::Counter(c))) => {
                rows.extend((b != c).then(|| DiffRow {
                    class: "counter",
                    key,
                    baseline: b.to_string(),
                    current: c.to_string(),
                    note: format!("value changed ({:+})", *c as i128 - *b as i128),
                }))
            }
            (Some(Metric::Counter(b)), None) => rows.push(DiffRow {
                class: "counter",
                key,
                baseline: b.to_string(),
                current: "-".into(),
                note: "missing in current".into(),
            }),
            (None, Some(Metric::Counter(c))) => rows.push(DiffRow {
                class: "counter",
                key,
                baseline: "-".into(),
                current: c.to_string(),
                note: "not in baseline".into(),
            }),
            (Some(Metric::Counter(b)), Some(other)) => rows.push(DiffRow {
                class: "counter",
                key,
                baseline: b.to_string(),
                current: other.kind().into(),
                note: "metric class changed".into(),
            }),
            (Some(other), Some(Metric::Counter(c))) => rows.push(DiffRow {
                class: "counter",
                key,
                baseline: other.kind().into(),
                current: c.to_string(),
                note: "metric class changed".into(),
            }),
            // Neither side is a counter: perf-class, out of the gate's scope.
            _ => {}
        }
    }
    // Counter rows in rendered-key order; the span row, if any, follows.
    rows.sort_by(|a, b| a.key.cmp(&b.key));

    // Span shape: (depth, name) sequence, timing ignored. One row per
    // structural divergence keeps the table bounded on length mismatches.
    let shape = |r: &Registry| -> Vec<(usize, Name)> {
        r.spans().into_iter().map(|s| (s.depth, s.name)).collect()
    };
    let (bs, cs) = (shape(baseline), shape(current));
    if bs != cs {
        let fmt = |s: Option<&(usize, Name)>| match s {
            Some((d, n)) => format!("{n}@{d}"),
            None => "-".into(),
        };
        let first = bs
            .iter()
            .zip(&cs)
            .position(|(a, b)| a != b)
            .unwrap_or(bs.len().min(cs.len()));
        rows.push(DiffRow {
            class: "span",
            key: format!("span tree (index {first})"),
            baseline: fmt(bs.get(first)),
            current: fmt(cs.get(first)),
            note: format!("span shape diverged ({} vs {} spans)", bs.len(), cs.len()),
        });
    }
    DiffReport { rows }
}

/// Which metric classes [`Registry::json_lines`] emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonMode {
    /// Everything, including perf counters, histograms and real timings.
    Full,
    /// Only the worker-count-invariant stream: counters plus the span
    /// tree with timings redacted to 0. Byte-identical across runs of the
    /// same input — the golden-test format.
    Deterministic,
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

/// What keeps an open span's tree alive until its guard drops.
enum SpanOwner {
    Registry(Registry),
    Trace(TraceContext),
}

impl SpanOwner {
    fn tree(&self) -> &SpanTree {
        match self {
            SpanOwner::Registry(reg) => &reg.inner.tree,
            SpanOwner::Trace(trace) => &trace.inner.tree,
        }
    }
}

/// RAII span guard: records the duration and leaves the thread-local
/// open stack on drop, so it must drop on the thread that opened it. A
/// guard from the free [`span`] function with no current trace or
/// registry is inert.
pub struct Span {
    /// The owner of the tree the span lives in and its index there.
    open: Option<(SpanOwner, usize)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((owner, idx)) = self.open.take() else {
            return;
        };
        let (name, dur) = owner.tree().close(idx);
        // Only a registry keeps the per-name duration histogram.
        if let SpanOwner::Registry(reg) = owner {
            reg.observe("span_us", name, dur);
        }
    }
}

// ---------------------------------------------------------------------------
// Free functions against the current registry
// ---------------------------------------------------------------------------

/// Adds to a deterministic counter on the current registry (no-op without
/// one) and to the thread's innermost open [`Tally`].
pub fn counter(name: impl Into<Name>, label: impl Into<Name>, delta: u64) {
    let key = (name.into(), label.into());
    TALLIES.with(|t| {
        if let Some(sums) = t.borrow_mut().last_mut() {
            *sums.entry(key.clone()).or_default() += delta;
        }
    });
    // Tee into the installed trace (if any): a request's deterministic
    // counters become part of its TraceRecord, while the registry keeps
    // the global stream. Sink traces drop their copy.
    if let Some(t) = current_trace() {
        t.counter(key.0.clone(), key.1.clone(), delta);
    }
    if let Some(r) = current() {
        r.counter_add(key.0, key.1, delta);
    }
}

/// Adds to a perf counter on the current registry (no-op without one).
pub fn perf(name: impl Into<Name>, label: impl Into<Name>, delta: u64) {
    if let Some(r) = current() {
        r.perf_add(name, label, delta);
    }
}

/// Records a histogram value on the current registry (no-op without one).
pub fn observe(name: impl Into<Name>, label: impl Into<Name>, value: u64) {
    if let Some(r) = current() {
        r.observe(name, label, value);
    }
}

/// Opens a span. Routing order: the innermost [`TraceContext`] installed
/// on this thread wins (request-scoped tree, safe in pool workers); with
/// no trace, the current registry's serial span list (determinism rule
/// 2); with neither, the guard is inert.
pub fn span(name: impl Into<Name>) -> Span {
    if let Some(t) = current_trace() {
        return t.span(name);
    }
    match current() {
        Some(r) => r.span(name),
        None => Span { open: None },
    }
}

type TallySums = BTreeMap<(Name, Name), u64>;

/// A thread-scoped counter sink. Until it is finished or dropped (unwind
/// included), every [`counter`] tick the opening thread makes is summed
/// into it, zero ticks included, registry or none; other threads' ticks,
/// perf counters, histograms and spans never reach it. Tallies nest and
/// close innermost first, like a [`Span`]: closing one adds its sums to
/// the next one out, so a tick reaches every tally open on the thread.
#[must_use = "the tally only sums ticks until it is finished or dropped"]
pub struct Tally {
    /// This tally's height on the thread's stack; 0 once closed.
    depth: usize,
}

impl Tally {
    /// Opens a tally on the calling thread.
    pub fn open() -> Tally {
        TALLIES.with(|t| {
            let mut t = t.borrow_mut();
            t.push(TallySums::new());
            Tally { depth: t.len() }
        })
    }

    /// Closes the tally: what its thread ticked, `(name, label, sum)`
    /// sorted by key.
    pub fn finish(mut self) -> Vec<(Name, Name, u64)> {
        let sums = self.close();
        sums.into_iter().map(|((n, l), v)| (n, l, v)).collect()
    }

    /// Pops this tally's sums, with any a leaked inner tally left above
    /// them, and adds them to the next one out.
    fn close(&mut self) -> TallySums {
        let depth = std::mem::take(&mut self.depth);
        TALLIES.with(|t| {
            let mut t = t.borrow_mut();
            let mut sums = TallySums::new();
            while depth > 0 && t.len() >= depth {
                for (key, v) in t.pop().expect("len >= depth > 0") {
                    *sums.entry(key).or_default() += v;
                }
            }
            if let Some(outer) = t.last_mut() {
                for (key, v) in &sums {
                    *outer.entry(key.clone()).or_default() += v;
                }
            }
            sums
        })
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.close();
    }
}

/// RAII latency probe from [`hist_timer`]: records the elapsed
/// microseconds into a histogram on drop. Inert (and clock-free) when no
/// registry was current at construction, so un-instrumented hot paths pay
/// one thread-local read and nothing else.
pub struct HistTimer {
    armed: Option<(Registry, Name, Name, Instant)>,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((reg, name, label, t0)) = self.armed.take() {
            reg.observe(name, label, t0.elapsed().as_micros() as u64);
        }
    }
}

/// Starts timing one operation into histogram `name{label}` on the current
/// registry. Unlike [`span`], this is safe inside parallel workers: a
/// histogram observation is commutative, where spans must stay serial
/// (determinism rule 2).
pub fn hist_timer(name: impl Into<Name>, label: impl Into<Name>) -> HistTimer {
    HistTimer {
        armed: current().map(|r| (r, name.into(), label.into(), Instant::now())),
    }
}

// ---------------------------------------------------------------------------
// Process memory probe
// ---------------------------------------------------------------------------

/// One `<field>: <n> kB` line of `/proc/self/status`. `None` off Linux
/// (or if procfs is unreadable); callers treat memory reporting as
/// best-effort.
fn proc_status_kb(field: &str) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|line| line.strip_prefix(field))?;
    rest.trim().trim_end_matches(" kB").trim().parse().ok()
}

/// Peak resident set size of this process in kibibytes (`VmHWM`); `None`
/// off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// Current resident set size in kibibytes (`VmRSS`); `None` off Linux.
pub fn current_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS:")
}

/// Returns freed heap pages to the operating system (glibc `malloc_trim`);
/// no-op on other allocator runtimes.
///
/// Phase-structured pipelines (generate → emit → build) free multi-megabyte
/// working sets between phases, but glibc keeps those pages resident for
/// reuse, so the next phase's peak stacks on top of the residue. Trimming at
/// a phase boundary makes later `VmHWM` readings reflect live data instead
/// of allocator retention.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free chunks; it does not touch
        // live allocations.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Tunes glibc malloc for batch pipelines that allocate and free large
/// buffers phase by phase: allocations of `threshold` bytes and up are
/// served by `mmap`, so freeing them returns pages to the OS immediately
/// instead of fragmenting the main arena under later phases' live data.
/// Peak RSS then tracks the live set, not allocator history. No-op off
/// glibc.
pub fn use_mmap_for_large_allocs(threshold: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt only adjusts allocator policy.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, threshold.min(i32::MAX as usize) as i32);
            // Worker threads otherwise get private arenas whose freed pages
            // `malloc_trim` cannot reclaim; two shared arenas keep the
            // fan-out stages' scratch reclaimable at negligible contention.
            mallopt(M_ARENA_MAX, 2);
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = threshold;
}

/// Records the process peak RSS as the perf metric `mem.peak_rss_kb{label}`
/// on the current registry. Perf-class (timing-like, machine-dependent), so
/// it never enters the deterministic counter stream. No-op when memory
/// introspection is unavailable or no registry is installed.
pub fn record_peak_rss(label: impl Into<Name>) {
    if let (Some(r), Some(kb)) = (current(), peak_rss_kb()) {
        let name: Name = label.into();
        // perf metrics accumulate; record the high-water mark by topping up.
        let prev = r.perf_value("mem.peak_rss_kb", name.as_ref());
        if kb > prev {
            r.perf_add("mem.peak_rss_kb", name, kb - prev);
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON helpers (our own emitted subset only)
// ---------------------------------------------------------------------------

/// Escapes `s` for a JSON string literal (quote, backslash, newline and
/// every other control character); `Registry::from_json_lines` reads it
/// back.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Raw value text of `"key":<value>` within one JSON-lines object.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, c) in inner.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Some(&inner[..i]);
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_raw(line, key)?;
    Some(unescape(raw))
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_raw(line, key)?.parse().ok()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_probe_reports_on_linux() {
        // Current before peak: sibling tests allocate concurrently, and a
        // peak read first can be overtaken by the time RSS is read.
        let cur = current_rss_kb();
        let kb = peak_rss_kb();
        if cfg!(target_os = "linux") {
            let kb = kb.expect("VmHWM should parse on Linux");
            assert!(kb > 0, "a running process has nonzero peak RSS");
            let cur = cur.expect("VmRSS should parse on Linux");
            assert!(cur <= kb, "current RSS cannot exceed the high-water mark");
        } else {
            assert!(kb.is_none());
        }
    }

    #[test]
    fn record_peak_rss_is_perf_class_and_monotone() {
        let reg = Registry::new();
        let _g = reg.install();
        record_peak_rss("test");
        if cfg!(target_os = "linux") {
            let first = reg.perf_value("mem.peak_rss_kb", "test");
            assert!(first > 0);
            // re-recording tops up to the (non-decreasing) high-water mark
            record_peak_rss("test");
            let second = reg.perf_value("mem.peak_rss_kb", "test");
            assert!(second >= first);
            assert!(
                !reg.counter_snapshot().contains("mem.peak_rss_kb"),
                "memory is perf-class, never a deterministic counter"
            );
        }
    }

    #[test]
    fn counters_aggregate_and_snapshot_sorts() {
        let reg = Registry::new();
        reg.counter_add("z.last", "", 1);
        reg.counter_add("a.first", "beta", 2);
        reg.counter_add("a.first", "alpha", 3);
        reg.counter_add("a.first", "alpha", 4);
        reg.perf_add("p.tasks", "worker0", 9); // excluded from the snapshot
        assert_eq!(reg.counter_value("a.first", "alpha"), 7);
        assert_eq!(
            reg.counter_snapshot(),
            "a.first{alpha} 7\na.first{beta} 2\nz.last 1\n"
        );
    }

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter_add("hits", "", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value("hits", ""), 4000);
    }

    #[test]
    #[should_panic(expected = "metric registered as counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter_add("x", "", 1);
        reg.perf_add("x", "", 1);
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(current().is_none());
        let a = Registry::new();
        let b = Registry::new();
        {
            let _ga = a.install();
            counter("k", "", 1);
            {
                let _gb = b.install();
                counter("k", "", 10);
            }
            counter("k", "", 2);
        }
        counter("k", "", 100); // no registry: dropped
        assert_eq!(a.counter_value("k", ""), 3);
        assert_eq!(b.counter_value("k", ""), 10);
        assert!(current().is_none());
    }

    /// A tally's sums as `name{label} value` lines, like a snapshot.
    fn render(ticks: &[(Name, Name, u64)]) -> String {
        ticks
            .iter()
            .map(|(n, l, v)| format!("{} {v}\n", Key(n, l)))
            .collect()
    }

    #[test]
    fn tally_sees_only_its_own_threads_ticks() {
        let reg = Registry::new();
        let _g = reg.install();
        let ticking = std::sync::atomic::AtomicBool::new(true);
        let other = std::sync::atomic::AtomicU64::new(0);
        let ticks = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = reg.install();
                while ticking.load(std::sync::atomic::Ordering::Relaxed) {
                    counter("other", "", 1);
                    other.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
            // Hold the tally open until the other thread has ticked into
            // the same registry during it, so the case is never vacuous.
            let tally = Tally::open();
            counter("mine", "", 2);
            let at_open = other.load(std::sync::atomic::Ordering::Relaxed);
            while other.load(std::sync::atomic::Ordering::Relaxed) < at_open + 100 {
                std::thread::yield_now();
            }
            counter("mine", "", 3);
            let ticks = tally.finish();
            ticking.store(false, std::sync::atomic::Ordering::Relaxed);
            ticks
        });
        assert_eq!(render(&ticks), "mine 5\n");
        assert!(reg.counter_value("other", "") >= 100);
        assert_eq!(reg.counter_value("mine", ""), 5);
    }

    #[test]
    fn tally_works_without_a_registry() {
        assert!(current().is_none());
        let tally = Tally::open();
        counter("k", "a", 1);
        counter("k", "a", 2);
        counter("k", "b", 4);
        assert_eq!(render(&tally.finish()), "k{a} 3\nk{b} 4\n");
    }

    #[test]
    fn tally_keeps_a_zero_tick() {
        let tally = Tally::open();
        counter("zero", "", 0);
        assert_eq!(tally.finish(), vec![("zero".into(), "".into(), 0)]);
    }

    #[test]
    fn nested_tallies_both_see_an_inner_tick() {
        let outer = Tally::open();
        counter("before", "", 1);
        let inner = Tally::open();
        counter("inner", "", 7);
        counter("zero", "", 0);
        assert_eq!(render(&inner.finish()), "inner 7\nzero 0\n");
        counter("after", "", 1);
        assert_eq!(
            render(&outer.finish()),
            "after 1\nbefore 1\ninner 7\nzero 0\n"
        );
    }

    #[test]
    fn tally_ignores_perf_counters_histograms_and_spans() {
        let reg = Registry::new();
        let _g = reg.install();
        let tally = Tally::open();
        perf("p", "", 3);
        observe("h", "", 9);
        drop(span("s"));
        drop(hist_timer("t", ""));
        record_peak_rss("tally");
        counter("c", "", 1);
        assert_eq!(render(&tally.finish()), "c 1\n");
        assert_eq!(reg.perf_value("p", ""), 3);
        assert!(reg.histogram("h", "").is_some());
    }

    #[test]
    fn tally_guard_pops_on_unwind() {
        let outer = Tally::open();
        let caught = std::panic::catch_unwind(|| {
            let _inner = Tally::open();
            counter("unwound", "", 2);
            panic!("stage failed");
        });
        assert!(caught.is_err());
        // The inner tally is gone: this tick lands in the outer one, which
        // also kept what the inner one summed before the unwind.
        counter("after", "", 1);
        assert_eq!(render(&outer.finish()), "after 1\nunwound 2\n");
        TALLIES.with(|t| assert!(t.borrow().is_empty()));
    }

    #[test]
    fn spans_nest_and_close() {
        let reg = Registry::new();
        {
            let _root = reg.span("root");
            {
                let _child = reg.span("child");
                let _grand = reg.span("grandchild");
            }
            let _second = reg.span("second_child");
        }
        let spans = reg.spans();
        let shape: Vec<(&str, Option<usize>, usize)> = spans
            .iter()
            .map(|s| (s.name.as_ref(), s.parent, s.depth))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("root", None, 0),
                ("child", Some(0), 1),
                ("grandchild", Some(1), 2),
                ("second_child", Some(0), 1),
            ]
        );
        reg.check_span_nesting().unwrap();
        // Span durations feed the span_us histogram.
        assert_eq!(reg.histogram("span_us", "root").unwrap().count, 1);
    }

    #[test]
    fn nesting_check_rejects_open_spans() {
        let reg = Registry::new();
        let guard = reg.span("never_closed");
        assert!(reg
            .check_span_nesting()
            .unwrap_err()
            .contains("never closed"));
        drop(guard);
        reg.check_span_nesting().unwrap();
    }

    #[test]
    fn free_span_without_registry_is_inert() {
        let g = span("nothing");
        drop(g);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        let reg = Registry::new();
        for v in [0, 1, 3, 3, 900] {
            reg.observe("h", "", v);
        }
        let h = reg.histogram("h", "").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (5, 907, 0, 900));
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets_compact(), "0:1 1:1 2:2 10:1");
    }

    #[test]
    fn quantile_empty_histogram_is_zero_like_mean() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
    }

    #[test]
    fn quantile_single_bucket_interpolates_min_to_max() {
        // All values land in bucket 10 (512..=1023).
        let reg = Registry::new();
        for v in [600, 700, 800, 900] {
            reg.observe("h", "", v);
        }
        let h = reg.histogram("h", "").unwrap();
        assert_eq!(h.quantile(0.0), 600.0);
        assert_eq!(h.quantile(1.0), 900.0);
        let p50 = h.quantile(0.5);
        assert!((600.0..=900.0).contains(&p50), "p50 {p50}");
        // One recorded value: every quantile is that value.
        let reg = Registry::new();
        reg.observe("one", "", 42);
        let h = reg.histogram("one", "").unwrap();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 42.0);
        }
    }

    #[test]
    fn quantile_saturated_bucket_clamps_to_observed_max() {
        let reg = Registry::new();
        reg.observe("h", "", u64::MAX);
        reg.observe("h", "", u64::MAX - 7);
        let h = reg.histogram("h", "").unwrap();
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(h.buckets()[BUCKETS - 1], 2);
        assert_eq!(h.quantile(1.0), u64::MAX as f64);
        assert!(h.quantile(0.0) >= (u64::MAX - 7) as f64);
    }

    #[test]
    fn quantile_zero_values_stay_in_bucket_zero() {
        assert_eq!(Histogram::bucket_of(0), 0);
        let reg = Registry::new();
        for _ in 0..5 {
            reg.observe("h", "", 0);
        }
        reg.observe("h", "", 1000);
        let h = reg.histogram("h", "").unwrap();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let reg = Registry::new();
        for v in [0, 1, 2, 5, 9, 33, 70, 1500, 1501, 90000] {
            reg.observe("h", "", v);
        }
        let h = reg.histogram("h", "").unwrap();
        let qs: Vec<f64> = (0..=10).map(|i| h.quantile(i as f64 / 10.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 90000.0);
    }

    #[test]
    fn hist_timer_records_and_is_inert_without_registry() {
        drop(hist_timer("lat", "none")); // no registry: nothing to assert, must not panic
        let reg = Registry::new();
        {
            let _g = reg.install();
            let _t = hist_timer("lat", "op");
        }
        assert_eq!(reg.histogram("lat", "op").unwrap().count, 1);
    }

    #[test]
    fn profile_aggregates_totals_self_and_critical_path() {
        let spans = vec![
            SpanRecord {
                name: "root".into(),
                parent: None,
                depth: 0,
                start_us: 0,
                dur_us: Some(100),
            },
            SpanRecord {
                name: "a".into(),
                parent: Some(0),
                depth: 1,
                start_us: 5,
                dur_us: Some(60),
            },
            SpanRecord {
                name: "leaf".into(),
                parent: Some(1),
                depth: 2,
                start_us: 10,
                dur_us: Some(40),
            },
            SpanRecord {
                name: "a".into(),
                parent: Some(0),
                depth: 1,
                start_us: 70,
                dur_us: Some(20),
            },
        ];
        let p = Profile::from_spans(&spans);
        let row = |n: &str| p.rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(
            (row("root").calls, row("root").total_us, row("root").self_us),
            (1, 100, 20)
        );
        assert_eq!(
            (row("a").calls, row("a").total_us, row("a").self_us),
            (2, 80, 40)
        );
        assert_eq!(
            (row("leaf").calls, row("leaf").total_us, row("leaf").self_us),
            (1, 40, 40)
        );
        // Rows sorted by total desc: root, a, leaf.
        let order: Vec<&str> = p.rows.iter().map(|r| r.name.as_ref()).collect();
        assert_eq!(order, vec!["root", "a", "leaf"]);
        // Critical path descends into the *longest* "a" (60us), then leaf.
        let path: Vec<(&str, u64)> = p
            .critical_path
            .iter()
            .map(|(n, d)| (n.as_ref(), *d))
            .collect();
        assert_eq!(path, vec![("root", 100), ("a", 60), ("leaf", 40)]);
        let table = p.render_table();
        for needle in ["profile:", "critical path:", "root", "self%"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        // Profile JSONL parses back as a no-op section.
        let doc = p.json_lines();
        assert!(doc.contains("\"type\":\"profile\""));
        assert!(doc.contains("\"type\":\"critical_path\""));
        Registry::from_json_lines(&doc).unwrap();
    }

    #[test]
    fn profile_of_empty_registry_renders() {
        let p = Registry::new().profile();
        assert!(p.rows.is_empty() && p.critical_path.is_empty());
        assert!(p.render_table().contains("no spans"));
        assert!(p.json_lines().is_empty());
    }

    #[test]
    fn deterministic_roundtrip_is_byte_identical() {
        let reg = Registry::new();
        reg.counter_add("ingest.rows_in", "atlas_nodes", 400);
        reg.perf_add("par.tasks", "worker1", 37); // filtered out
        reg.observe("lat", "", 9); // filtered out
        {
            let _root = reg.span("pipeline");
            let _child = reg.span("validate");
        }
        let doc = reg.json_lines(JsonMode::Deterministic);
        let back = Registry::from_json_lines(&doc).unwrap();
        assert_eq!(back.json_lines(JsonMode::Deterministic), doc);
    }

    #[test]
    fn full_roundtrip_preserves_quantile_fields() {
        let reg = Registry::new();
        for v in [3, 3, 900, 0, 12_000] {
            reg.observe("spath.query_us", "ch", v);
        }
        let doc = reg.json_lines(JsonMode::Full);
        assert!(doc.contains("\"p50\":"), "{doc}");
        let back = Registry::from_json_lines(&doc).unwrap();
        let (h0, h1) = (
            reg.histogram("spath.query_us", "ch").unwrap(),
            back.histogram("spath.query_us", "ch").unwrap(),
        );
        assert_eq!(h0, h1);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h0.quantile(q), h1.quantile(q), "q={q}");
        }
        assert_eq!(back.json_lines(JsonMode::Full), doc);
    }

    #[test]
    fn diff_is_clean_on_identical_streams_and_flags_perturbations() {
        let mk = || {
            let reg = Registry::new();
            reg.counter_add("spath.queries", "", 100);
            reg.counter_add("analysis.queries", "risk", 2);
            reg.perf_add("par.tasks", "", 9);
            {
                let _root = reg.span("serving.query_mix");
                let _child = reg.span("analysis.risk");
            }
            reg
        };
        let base = mk();
        assert!(diff_registries(&base, &mk()).is_clean());

        // A perturbed counter diverges with a delta row; perf is never in
        // the gate's scope.
        let cur = mk();
        cur.counter_add("spath.queries", "", 1);
        cur.perf_add("par.tasks", "", 1000);
        let report = diff_registries(&base, &cur);
        assert_eq!(report.rows.len(), 1, "{report:?}");
        assert_eq!(report.rows[0].class, "counter");
        assert!(report.render_table().contains("spath.queries"));
        assert!(report.render_table().contains("value changed"));

        // Missing and extra counters both diverge.
        let cur = mk();
        cur.counter_add("analysis.queries", "footprint", 1);
        let report = diff_registries(&base, &cur);
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].note.contains("not in baseline"));
    }

    #[test]
    fn diff_compares_span_shape_not_timing() {
        let mk = |extra: bool| {
            let reg = Registry::new();
            {
                let _root = reg.span("pipeline");
                let _child = reg.span("validate");
            }
            if extra {
                let _tail = reg.span("extra");
            }
            reg
        };
        // A Full current stream gates cleanly against a Deterministic
        // baseline of the same run: timings differ, shape does not.
        let run = mk(false);
        let base = Registry::from_json_lines(&run.json_lines(JsonMode::Deterministic)).unwrap();
        let cur = Registry::from_json_lines(&run.json_lines(JsonMode::Full)).unwrap();
        assert!(diff_registries(&base, &cur).is_clean());

        let report = diff_registries(&base, &mk(true));
        assert_eq!(report.rows.len(), 1, "{report:?}");
        assert_eq!(report.rows[0].class, "span");
        assert!(report.rows[0].note.contains("span shape diverged"));
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let reg = Registry::new();
        reg.counter_add("ingest.rows_in", "atlas_nodes", 400);
        reg.counter_add("weird \"name\"", "with\\slash", 1);
        reg.perf_add("par.tasks", "worker1", 37);
        reg.observe("span_us", "build", 1500);
        {
            let _root = reg.span("pipeline");
            let _child = reg.span("validate");
        }
        let doc = reg.json_lines(JsonMode::Full);
        let back = Registry::from_json_lines(&doc).unwrap();
        assert_eq!(back.counter_value("ingest.rows_in", "atlas_nodes"), 400);
        assert_eq!(back.counter_value("weird \"name\"", "with\\slash"), 1);
        assert_eq!(back.perf_value("par.tasks", "worker1"), 37);
        assert_eq!(
            back.histogram("span_us", "build").unwrap(),
            reg.histogram("span_us", "build").unwrap()
        );
        assert_eq!(back.spans().len(), 2);
        assert_eq!(back.spans()[1].parent, Some(0));
        // Re-emitting parses to the same table rendering.
        assert_eq!(back.json_lines(JsonMode::Full), doc);
    }

    #[test]
    fn deterministic_mode_redacts_and_filters() {
        let reg = Registry::new();
        reg.counter_add("c", "", 5);
        reg.perf_add("p", "", 9);
        reg.observe("h", "", 3);
        {
            let _s = reg.span("stage");
        }
        let doc = reg.json_lines(JsonMode::Deterministic);
        assert!(doc.contains("\"type\":\"counter\""));
        assert!(!doc.contains("\"type\":\"perf\""));
        assert!(!doc.contains("\"type\":\"hist\""));
        assert!(doc.contains("\"start_us\":0"));
        assert!(doc.contains("\"dur_us\":0"));
    }

    #[test]
    fn malformed_json_lines_are_typed_errors() {
        assert!(Registry::from_json_lines("{\"no\":\"type\"}")
            .unwrap_err()
            .contains("line 1"));
        assert!(Registry::from_json_lines("{\"type\":\"martian\"}")
            .unwrap_err()
            .contains("martian"));
    }

    #[test]
    fn render_table_sections() {
        let reg = Registry::new();
        reg.counter_add("ingest.rows_in", "roads", 12);
        reg.perf_add("par.steals", "", 3);
        reg.observe("lat", "", 7);
        {
            let _s = reg.span("pipeline");
        }
        let t = reg.render_table();
        for needle in [
            "counters:",
            "perf:",
            "histograms:",
            "spans:",
            "ingest.rows_in{roads}",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn free_spans_route_to_installed_trace_not_registry() {
        let reg = Registry::new();
        let _g = reg.install();
        let trace = TraceContext::new(3, 17, "request");
        {
            let _t = trace.install();
            {
                let _outer = span("execute");
                drop(span("analysis.risk"));
            }
            // Counters, perf and histograms keep flowing to the registry
            // — only span routing changes while a trace is installed.
            counter("serve.ok", "ping", 1);
            perf("serve.shed", "", 1);
            observe("serve.queue_depth", "", 3);
            // An explicit Registry::span still goes to the registry (the
            // caller named it, so it owns the serial-context decision).
            drop(reg.span("explicit"));
        }
        drop(span("after"));
        let names: Vec<String> = reg.spans().iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names, ["explicit", "after"]);
        assert_eq!(reg.counter_value("serve.ok", "ping"), 1);
        assert_eq!(reg.perf_value("serve.shed", ""), 1);
        assert_eq!(reg.histogram("serve.queue_depth", "").unwrap().count, 1);
        reg.check_span_nesting().unwrap();

        let rec = trace.finish();
        assert_eq!(rec.id, TraceId { conn: 3, corr: 17 });
        assert_eq!(
            rec.shape(),
            vec![
                (0, "request".to_string()),
                (1, "execute".to_string()),
                (2, "analysis.risk".to_string()),
            ]
        );
        rec.check_nesting().unwrap();
    }

    #[test]
    fn interleaved_trees_on_one_thread_keep_their_own_parents() {
        // Both trees share this thread's one open stack: a span's parent
        // is the innermost open span *of its own tree*, whatever the other
        // tree has open in between, and a guard need not be the top of
        // the shared stack when it drops.
        let reg = Registry::new();
        let _g = reg.install();
        let a = reg.span("A");
        let trace = TraceContext::new(1, 1, "request");
        let installed = trace.install();
        let b = span("B"); // free → the trace, under its root
        let c = reg.span("C"); // by method → the registry, under A
        let d = span("D"); // free → the trace, under B (C is skipped)
        drop(c); // D sits above it on the shared stack
        drop(reg.span("E")); // the registry is back under A
        drop(d);
        drop(a); // the trace's B is still open
        drop(span("F")); // the trace is still under B
        drop(b);
        drop(installed);
        drop(reg.span("G")); // nothing open: a registry root

        let columns = |spans: &[SpanRecord]| -> Vec<(String, Option<usize>, usize)> {
            spans
                .iter()
                .map(|s| (s.name.to_string(), s.parent, s.depth))
                .collect()
        };
        let want = |rows: &[(&str, Option<usize>, usize)]| -> Vec<(String, Option<usize>, usize)> {
            rows.iter()
                .map(|&(n, p, d)| (n.to_string(), p, d))
                .collect()
        };
        let reg_rows = [
            ("A", None, 0),
            ("C", Some(0), 1),
            ("E", Some(0), 1),
            ("G", None, 0),
        ];
        assert_eq!(columns(&reg.spans()), want(&reg_rows));
        reg.check_span_nesting().unwrap();
        let rec = trace.finish();
        let trace_rows = [
            ("request", None, 0),
            ("B", Some(0), 1),
            ("D", Some(1), 2),
            ("F", Some(1), 2),
        ];
        assert_eq!(columns(&rec.spans), want(&trace_rows));
        rec.check_nesting().unwrap();
    }

    #[test]
    fn pool_thread_spans_nest_per_thread_and_never_panic() {
        // Regression for the old serial-only checker: concurrent pool
        // workers opening nested free spans used to corrupt the shared
        // LIFO/containment invariant (hence the suppress_spans gag). With
        // per-thread, per-request trace stacks the registry span list
        // stays untouched and every trace tree is well-formed.
        let reg = Registry::new();
        drop(reg.span("serve.prepare"));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let _g = reg.install();
                let mut recs = Vec::new();
                for r in 0..8u64 {
                    let trace = TraceContext::new(w, r, "request");
                    {
                        let _t = trace.install();
                        trace.record("queue.wait", 0, 1);
                        let _e = span("execute");
                        drop(span("analysis.footprint"));
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    recs.push(trace.finish());
                }
                recs
            }));
        }
        for h in handles {
            for rec in h.join().expect("pool thread panicked") {
                rec.check_nesting().unwrap();
                assert_eq!(
                    rec.shape(),
                    vec![
                        (0, "request".to_string()),
                        (1, "queue.wait".to_string()),
                        (1, "execute".to_string()),
                        (2, "analysis.footprint".to_string()),
                    ]
                );
            }
        }
        // The registry's serial span list never saw the pool threads.
        let names: Vec<String> = reg.spans().iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names, ["serve.prepare"]);
        reg.check_span_nesting().unwrap();
    }

    #[test]
    fn trace_records_cross_thread_intervals_and_counters() {
        let trace = TraceContext::new(1, 2, "request");
        let enqueued = trace.started();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // A worker backfills queue wait measured from the reader's enqueue
        // instant — earlier than anything the worker itself opened.
        let t2 = trace.clone();
        std::thread::spawn(move || {
            let _t = t2.install();
            let wait = t2.offset_us(std::time::Instant::now());
            t2.record("queue.wait", t2.offset_us(enqueued), wait);
            drop(t2.span("encode"));
            t2.counter("bytes", "out", 21);
        })
        .join()
        .unwrap();
        let rec = trace.finish();
        rec.check_nesting().unwrap();
        assert_eq!(trace.counter_value("bytes", "out"), 21);
        assert_eq!(
            rec.counters,
            vec![(Name::from("bytes"), Name::from("out"), 21)]
        );
        let shapes = rec.shape();
        assert_eq!(shapes[1], (1, "queue.wait".to_string()));
        assert!(rec.wall_us() >= 2000, "root must cover the queue wait");
    }

    #[test]
    fn sink_trace_discards_spans_but_metrics_flow() {
        let reg = Registry::new();
        let _g = reg.install();
        let sink = TraceContext::sink();
        {
            let _t = sink.install();
            drop(span("delta.apply"));
            counter("epoch.published", "", 1);
        }
        assert!(sink.is_sink());
        let rec = sink.finish();
        assert!(rec.spans.is_empty(), "sink trace must record nothing");
        assert!(
            reg.spans().is_empty(),
            "sink trace must shield the registry"
        );
        assert_eq!(reg.counter_value("epoch.published", ""), 1);
    }

    #[test]
    fn diff_handles_empty_and_single_observation_histograms() {
        // A parsed-back histogram with zero observations is legal (a
        // serve stream can carry a never-hit latency hist) and must diff
        // cleanly against itself, with all quantiles pinned to 0.
        let empty_line = "{\"type\":\"hist\",\"name\":\"serve.request_us\",\"label\":\"ping\",\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":\"\"}\n";
        let base = Registry::from_json_lines(empty_line).unwrap();
        let cur = Registry::from_json_lines(empty_line).unwrap();
        assert!(diff_registries(&base, &cur).is_clean());
        let h = base.histogram("serve.request_us", "ping").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.99), 0.0);

        // Empty → one observation is invisible to the gate: histograms
        // are perf-class.
        let one = Registry::new();
        one.observe("serve.request_us", "ping", 42);
        assert!(diff_registries(&base, &one).is_clean());

        // Single observation: the parsed-back quantiles all sit on the
        // one value.
        let one_rt = Registry::from_json_lines(&one.json_lines(JsonMode::Full)).unwrap();
        assert!(diff_registries(&one, &one_rt).is_clean());
        let h = one_rt.histogram("serve.request_us", "ping").unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0, "q={q}");
        }
    }

    #[test]
    fn diff_gate_is_forward_compatible_with_serve_counters() {
        // A serving-era baseline (pre-server counters only).
        let old = Registry::new();
        old.counter_add("serving.mix_runs", "", 1);
        old.counter_add("spath.queries", "", 100);

        // A current stream from the hardened server: same serving
        // counters plus the serve.* families (deterministic request
        // tallies, perf shed/timeout counts, queue-depth hist).
        let cur = Registry::new();
        cur.counter_add("serving.mix_runs", "", 1);
        cur.counter_add("spath.queries", "", 100);
        cur.counter_add("serve.requests", "sp_query", 60);
        cur.counter_add("serve.ok", "sp_query", 60);
        cur.perf_add("serve.shed", "", 4);
        cur.observe("serve.queue_depth", "", 2);

        // Against the old baseline the new counters surface as explicit
        // "not in baseline" rows — the gate fails loudly until the
        // baseline is re-blessed, never silently.
        let report = diff_registries(&old, &cur);
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            // Perf/hist serve metrics never gate: only counters surface.
            assert_eq!(r.class, "counter");
            assert_eq!(r.note, "not in baseline");
            assert!(r.key.starts_with("serve."), "unexpected row {r:?}");
        }

        // Re-blessed baseline: the deterministic stream round-trips
        // byte-identically and gates clean, including the serve counters.
        let det = cur.json_lines(JsonMode::Deterministic);
        let reparsed = Registry::from_json_lines(&det).unwrap();
        assert_eq!(reparsed.json_lines(JsonMode::Deterministic), det);
        assert!(diff_registries(&reparsed, &cur).is_clean());
    }
}
