//! Shared shortest-path engine for the right-of-way and physical graphs.
//!
//! Both `RoadGraph` (§3.1 right-of-way routing) and `PhysGraph` (§4.2
//! physical-path inference) previously carried their own hand-rolled
//! Dijkstra that allocated fresh `dist`/`prev` vectors and a fresh heap on
//! every query. Both hot paths issue *many* queries against an immutable
//! graph — atlas-link routing asks for every deduped metro pair, the bench
//! traceroute mesh asks for thousands of leg pairs — so this module
//! centralizes the algorithm with three structural optimizations:
//!
//! * **CSR adjacency** (`offsets`/`targets`/`weights` flat arrays) instead
//!   of `Vec<Vec<…>>`, for locality and zero per-node allocation.
//! * **Generation-stamped workspaces** ([`SpWorkspace`]): `dist`/`prev`/
//!   settled state is validated by a generation counter, so starting a new
//!   query is O(1) instead of O(n) clearing, and repeated queries reuse the
//!   same allocations.
//! * **Resumable per-source search**: a workspace retains the frontier heap
//!   between queries. Asking for a second target from the *same* source
//!   continues the partially-run Dijkstra instead of restarting it, so a
//!   loop over targets grouped by source amortizes to a single full SSSP
//!   per source.
//!
//! Every production path runs that resumable Dijkstra. A second
//! algorithm, **contraction hierarchies** ([`ch`]: edge-difference node
//! ordering, shortcut insertion, upward CSR, two tiny upward searches per
//! point query), answers only inside an explicit [`with_mode`] override —
//! the equivalence suite and the benchmark's `spath.query_us.*` probes.
//! Its preprocessing never paid for itself end to end: the graphs here are
//! used for one batch of source-grouped queries, or sit behind the
//! corridor cache.
//!
//! # Determinism and the canonical-path contract
//!
//! Queries are fully deterministic given (graph, source, target) and — by
//! construction — **mode-independent**: the CH path and the Dijkstra path
//! are bit-identical, including which of several equal-weight paths is
//! returned and the exact `f64` total.
//!
//! This works because both algorithms minimize one shared lexicographic
//! key per path: `(weight, hop count, tie)`, where `tie` is the exact
//! `u128` sum of a per-arc pseudo-random perturbation
//! (`splitmix64(arc index)`, identical on both directions of an arc).
//! Distinct paths get distinct keys, so *the* shortest path is unique and
//! both algorithms must agree on it. The reported weight is recomputed by
//! left-to-right summation along the unpacked original-edge sequence, which
//! is exactly how Dijkstra accumulates it, so even the floating-point total
//! matches byte-for-byte. Tie sums are accumulated exactly (`u128`, no
//! wrapping) because a wrapping sum is not monotone under extension and
//! would break Dijkstra's prefix-optimality.
//!
//! Parallel callers hand each worker its own workspace; the engine itself
//! is immutable and shared by reference.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

mod ch;

/// Heap entry: lexicographic path key `(weight bits, hops, tie)` plus the
/// node index as the final tie-breaker. Weights are non-negative finite, so
/// `f64::to_bits` orders them correctly as integers.
type HeapKey = (u64, u32, u128, u32);

/// Query algorithm used by [`ShortestPathEngine`]. Both modes return
/// bit-identical results (see the module docs); they differ only in cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpMode {
    /// Resumable generation-stamped Dijkstra, no preprocessing: what every
    /// query runs unless [`with_mode`] says otherwise.
    Dijkstra,
    /// Bidirectional contraction-hierarchy query over a lazily built
    /// preprocessing layer. Reached only through [`with_mode`].
    Ch,
}

impl SpMode {
    /// Stable lowercase label used for metric labels.
    pub fn label(self) -> &'static str {
        match self {
            SpMode::Dijkstra => "dijkstra",
            SpMode::Ch => "ch",
        }
    }
}

thread_local! {
    static MODE_OVERRIDE: Cell<Option<SpMode>> = const { Cell::new(None) };
}

/// Runs `f` with the shortest-path mode forced to `mode` on this thread,
/// restoring the previous override afterwards. The override does not
/// propagate into threads spawned inside `f`.
pub fn with_mode<R>(mode: SpMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SpMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE_OVERRIDE.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(MODE_OVERRIDE.with(|m| m.replace(Some(mode))));
    f()
}

/// Exact lexicographic path key. `w` and `hops` grow left-to-right along a
/// path; `tie` is the exact sum of per-arc perturbations. Distinct paths
/// have distinct keys (with overwhelming probability on `tie`), making the
/// shortest path unique — the foundation of the CH/Dijkstra bit-identity
/// contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Key {
    pub w: f64,
    pub hops: u32,
    pub tie: u128,
}

impl Key {
    #[inline]
    pub(crate) fn bits(self) -> (u64, u32, u128) {
        (self.w.to_bits(), self.hops, self.tie)
    }

    #[inline]
    pub(crate) fn lt(self, other: Key) -> bool {
        self.bits() < other.bits()
    }

    /// Path extension: `self` then `other`. `w` uses f64 addition in
    /// left-to-right order; `hops`/`tie` are exact integer sums.
    #[inline]
    pub(crate) fn add(self, other: Key) -> Key {
        Key { w: self.w + other.w, hops: self.hops + other.hops, tie: self.tie + other.tie }
    }
}

/// Deterministic per-arc tie perturbation; both CSR slots of one undirected
/// arc share the value.
pub(crate) fn arc_tie(arc_index: u64) -> u64 {
    let mut x = arc_index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// Immutable CSR graph + Dijkstra + optional contraction hierarchy.
/// Weights must be non-negative and finite (asserted at build time).
pub struct ShortestPathEngine {
    /// Process-unique id; lets workspaces detect cross-engine reuse instead
    /// of resuming a stale search that happens to share a source index.
    id: u64,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Per-CSR-slot tie perturbation (same value on both slots of an arc).
    ties: Vec<u64>,
    /// Original undirected arcs `(a, b, w, tie)` in insertion order; the CH
    /// builder consumes these so duplicate arcs keep distinct ties.
    arcs: Vec<(u32, u32, f64, u64)>,
    hierarchy: OnceLock<ch::Hierarchy>,
}

/// Reusable per-caller state for [`ShortestPathEngine`] queries. One
/// workspace serves any number of sequential queries; parallel callers use
/// one workspace per worker. Holds both the Dijkstra search state and the
/// two CH search scratches, so a workspace works under either mode.
pub struct SpWorkspace {
    generation: u32,
    /// Stamp equal to `generation` ⇔ `dist`/`hops`/`tie`/`prev` are valid.
    reached: Vec<u32>,
    /// Stamp equal to `generation` ⇔ node is settled (final key).
    settled: Vec<u32>,
    dist: Vec<f64>,
    hops: Vec<u32>,
    tie: Vec<u128>,
    prev: Vec<u32>,
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// Source of the search currently held in the workspace.
    source: usize,
    /// True once the frontier drained: every reachable node is settled.
    exhausted: bool,
    /// Engine the current search state belongs to (0 = none).
    engine_id: u64,
    ch_fwd: ch::ChSearch,
    ch_bwd: ch::ChSearch,
    /// Scratch for CH path unpacking.
    unpack: Vec<u32>,
}

/// Reused workspaces shrink back to the live graph's size once their
/// buffers exceed it by this factor (and the [`SHRINK_MIN`] floor), so a
/// long-lived worker that once served a huge graph does not pin its memory
/// forever.
const SHRINK_FACTOR: usize = 4;
const SHRINK_MIN: usize = 1 << 12;

impl SpWorkspace {
    pub fn new() -> Self {
        Self {
            generation: 0,
            reached: Vec::new(),
            settled: Vec::new(),
            dist: Vec::new(),
            hops: Vec::new(),
            tie: Vec::new(),
            prev: Vec::new(),
            heap: BinaryHeap::new(),
            source: usize::MAX,
            exhausted: false,
            engine_id: 0,
            ch_fwd: ch::ChSearch::new(),
            ch_bwd: ch::ChSearch::new(),
            unpack: Vec::new(),
        }
    }

    /// A workspace right-sized for `engine` up front: the first query pays
    /// no incremental growth, and the stale-state guards are primed for
    /// that engine.
    pub fn for_engine(engine: &ShortestPathEngine) -> Self {
        let mut ws = Self::new();
        ws.size_to(engine.node_count());
        ws.engine_id = engine.id;
        ws
    }

    /// Bytes of buffer capacity currently held (diagnostic; used by the
    /// shrink tests).
    pub fn buffer_len(&self) -> usize {
        self.reached.len()
    }

    fn size_to(&mut self, n: usize) {
        if self.reached.len() < n {
            self.reached.resize(n, 0);
            self.settled.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.hops.resize(n, 0);
            self.tie.resize(n, 0);
            self.prev.resize(n, u32::MAX);
        }
    }

    /// Drops buffer tails (and capacity) when this workspace was last used
    /// against a much larger graph.
    fn maybe_shrink(&mut self, n: usize) {
        if self.reached.len() > SHRINK_MIN && self.reached.len() / SHRINK_FACTOR >= n.max(1) {
            self.reached.truncate(n);
            self.settled.truncate(n);
            self.dist.truncate(n);
            self.hops.truncate(n);
            self.tie.truncate(n);
            self.prev.truncate(n);
            self.reached.shrink_to_fit();
            self.settled.shrink_to_fit();
            self.dist.shrink_to_fit();
            self.hops.shrink_to_fit();
            self.tie.shrink_to_fit();
            self.prev.shrink_to_fit();
            self.heap = BinaryHeap::new();
        }
    }

    fn reset_for(&mut self, n: usize, source: usize, engine_id: u64) {
        // Perf class: reset counts depend on how callers group queries by
        // source (resume amortization), so they are not in the
        // deterministic counter snapshot.
        igdb_obs::perf("spath.resets", "", 1);
        self.maybe_shrink(n);
        self.size_to(n);
        // Generation wrap: stamps from 4 billion queries ago could alias,
        // so clear them once per wrap.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.reached.fill(0);
            self.settled.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
        self.source = source;
        self.engine_id = engine_id;
        self.exhausted = false;
        self.reached[source] = self.generation;
        self.dist[source] = 0.0;
        self.hops[source] = 0;
        self.tie[source] = 0;
        self.prev[source] = u32::MAX;
        self.heap.push(Reverse((0u64, 0u32, 0u128, source as u32)));
    }
}

impl Default for SpWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ShortestPathEngine {
    /// Builds the CSR form of an undirected graph from `(a, b, weight)`
    /// arcs in a single pass (arcs are collected once, so consuming
    /// iterators work). Per-node neighbor order equals arc insertion order
    /// (each arc contributes `a→b` and `b→a` in sequence), matching the
    /// neighbor order of the `Vec<Vec<…>>` adjacency it replaced.
    pub fn from_undirected<I>(n: usize, arcs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut collected: Vec<(u32, u32, f64, u64)> = Vec::new();
        let mut degree = vec![0u32; n];
        for (k, (a, b, w)) in arcs.into_iter().enumerate() {
            assert!(a < n && b < n, "arc ({a}, {b}) out of range for {n} nodes");
            assert!(w >= 0.0 && w.is_finite(), "negative or non-finite weight {w}");
            // `w + 0.0` normalizes -0.0 so equal weights share one bit
            // pattern in the lexicographic heap key.
            collected.push((a as u32, b as u32, w + 0.0, arc_tie(k as u64)));
            degree[a] += 1;
            degree[b] += 1;
        }
        let m = collected.len() * 2;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; m];
        let mut weights = vec![0.0f64; m];
        let mut ties = vec![0u64; m];
        for &(a, b, w, tie) in &collected {
            let ca = cursor[a as usize] as usize;
            targets[ca] = b;
            weights[ca] = w;
            ties[ca] = tie;
            cursor[a as usize] += 1;
            let cb = cursor[b as usize] as usize;
            targets[cb] = a;
            weights[cb] = w;
            ties[cb] = tie;
            cursor[b as usize] += 1;
        }
        Self {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            offsets,
            targets,
            weights,
            ties,
            arcs: collected,
            hierarchy: OnceLock::new(),
        }
    }

    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    pub(crate) fn arcs(&self) -> &[(u32, u32, f64, u64)] {
        &self.arcs
    }

    pub fn degree(&self, node: usize) -> usize {
        debug_assert!(
            node < self.node_count(),
            "node {node} out of range for {} nodes",
            self.node_count()
        );
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    fn neighbors(&self, node: usize) -> impl Iterator<Item = (usize, f64, u64)> + '_ {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .zip(&self.ties[lo..hi])
            .map(|((&t, &w), &tie)| (t as usize, w, tie))
    }

    /// Shared bounds check for every query entry point: out-of-range
    /// endpoints make the query unanswerable (`None`), not a panic — the
    /// callers pass metro ids straight from snapshot joins.
    #[inline]
    fn pair_in_range(&self, from: usize, to: usize) -> bool {
        let n = self.node_count();
        from < n && to < n
    }

    /// Mode this engine resolves to right now: the [`with_mode`] override
    /// on this thread, else Dijkstra.
    pub fn resolved_mode(&self) -> SpMode {
        MODE_OVERRIDE.with(|m| m.get()).unwrap_or(SpMode::Dijkstra)
    }

    /// Forces the contraction hierarchy to exist (it is otherwise built
    /// lazily on the first CH-mode query). Useful for benches that must
    /// keep preprocessing out of the timed region.
    pub fn prepare_ch(&self) {
        self.hierarchy();
    }

    pub(crate) fn hierarchy(&self) -> &ch::Hierarchy {
        self.hierarchy.get_or_init(|| ch::Hierarchy::build(self))
    }

    /// Shortest path `from → to` as `(node sequence, total weight)`, using
    /// (and advancing) `ws`. Consecutive queries from the same `from`
    /// resume the retained search; a new source restarts it in O(1).
    /// Results are identical under both [`SpMode`]s.
    pub fn shortest_path_with(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        igdb_obs::counter("spath.queries", "", 1);
        // Latency is a perf-class histogram labeled by the resolved mode,
        // so Dijkstra-vs-CH quantiles fall out of one registry without
        // touching the deterministic counter stream.
        let _t = igdb_obs::hist_timer("spath.query_us", self.resolved_mode().label());
        self.shortest_path_inner(ws, from, to)
    }

    fn shortest_path_inner(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        if !self.pair_in_range(from, to) {
            return None;
        }
        if from == to {
            return Some((vec![from], 0.0));
        }
        if self.resolved_mode() == SpMode::Ch {
            return self.hierarchy().shortest_path(self, ws, from, to);
        }
        self.ensure_settled(ws, from, to)?;
        // Reconstruct by walking prev back to the source.
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = ws.prev[cur] as usize;
            path.push(cur);
        }
        path.reverse();
        Some((path, ws.dist[to]))
    }

    /// Dijkstra-mode core: makes `ws` hold a search from `from` with `to`
    /// settled, or returns `None` if `to` is unreachable.
    fn ensure_settled(&self, ws: &mut SpWorkspace, from: usize, to: usize) -> Option<()> {
        let n = self.node_count();
        if ws.engine_id != self.id || ws.source != from || ws.generation == 0 || ws.reached.len() < n
        {
            ws.reset_for(n, from, self.id);
        }
        if ws.settled[to] != ws.generation && !ws.exhausted {
            self.run_until_settled(ws, to);
        }
        (ws.settled[to] == ws.generation).then_some(())
    }

    /// Advances the workspace's Dijkstra until `target` settles or the
    /// frontier drains. Relaxation minimizes the full lexicographic key
    /// `(weight, hops, tie)` — see the module docs.
    fn run_until_settled(&self, ws: &mut SpWorkspace, target: usize) {
        let generation = ws.generation;
        let mut settled_now = 0u64;
        let mut hit = false;
        while let Some(Reverse((_, _, _, u32u))) = ws.heap.pop() {
            let u = u32u as usize;
            // Stale heap entry: the node settled earlier at a smaller key.
            if ws.settled[u] == generation {
                continue;
            }
            ws.settled[u] = generation;
            settled_now += 1;
            let (d, h, t) = (ws.dist[u], ws.hops[u], ws.tie[u]);
            for (v, w, tie) in self.neighbors(u) {
                let nd = d + w;
                let nh = h + 1;
                let nt = t + tie as u128;
                let better = ws.reached[v] != generation
                    || (nd.to_bits(), nh, nt) < (ws.dist[v].to_bits(), ws.hops[v], ws.tie[v]);
                if better {
                    ws.reached[v] = generation;
                    ws.dist[v] = nd;
                    ws.hops[v] = nh;
                    ws.tie[v] = nt;
                    ws.prev[v] = u as u32;
                    ws.heap.push(Reverse((nd.to_bits(), nh, nt, v as u32)));
                }
            }
            if u == target {
                hit = true;
                break;
            }
        }
        if !hit {
            ws.exhausted = true;
        }
        // Perf class: how much of the graph each run explores depends on
        // resume amortization, i.e. on how callers group queries.
        igdb_obs::perf("spath.nodes_settled", "", settled_now);
        igdb_obs::observe("spath.settled_per_run", "", settled_now);
    }

    /// Total shortest-path weight `from → to` (no path reconstruction).
    pub fn distance_with(&self, ws: &mut SpWorkspace, from: usize, to: usize) -> Option<f64> {
        igdb_obs::counter("spath.queries", "", 1);
        let _t = igdb_obs::hist_timer("spath.query_us", self.resolved_mode().label());
        self.distance_inner(ws, from, to)
    }

    fn distance_inner(&self, ws: &mut SpWorkspace, from: usize, to: usize) -> Option<f64> {
        if !self.pair_in_range(from, to) {
            return None;
        }
        if from == to {
            return Some(0.0);
        }
        if self.resolved_mode() == SpMode::Ch {
            // CH distances are recomputed along the unpacked path so the
            // f64 total matches Dijkstra's left-to-right accumulation.
            return self.hierarchy().shortest_path(self, ws, from, to).map(|(_, w)| w);
        }
        self.ensure_settled(ws, from, to)?;
        Some(ws.dist[to])
    }

    /// Batched one-to-many distances: one query stream from `from` to each
    /// of `targets`, sharing the forward search across the whole batch
    /// (resumable Dijkstra in [`SpMode::Dijkstra`], one upward search plus
    /// a per-target backward search in [`SpMode::Ch`]). Entry `i` is the
    /// distance to `targets[i]`, `None` when unreachable or out of range.
    pub fn distances_from(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        targets: &[usize],
    ) -> Vec<Option<f64>> {
        igdb_obs::counter("spath.queries", "", targets.len() as u64);
        // One timer for the whole batch (not per target) so batched and
        // point queries stay distinguishable in the latency tables.
        let _t = igdb_obs::hist_timer("spath.batch_us", self.resolved_mode().label());
        targets.iter().map(|&to| self.distance_inner(ws, from, to)).collect()
    }

    /// Batched many-to-many distances; row `i` is
    /// `distances_from(sources[i], targets)`.
    pub fn many_to_many(
        &self,
        ws: &mut SpWorkspace,
        sources: &[usize],
        targets: &[usize],
    ) -> Vec<Vec<Option<f64>>> {
        sources.iter().map(|&from| self.distances_from(ws, from, targets)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(n: usize, arcs: &[(usize, usize, f64)]) -> ShortestPathEngine {
        ShortestPathEngine::from_undirected(n, arcs.iter().copied())
    }

    #[test]
    fn chain_beats_long_shortcut() {
        let e = engine(5, &[(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (0, 3, 50.0)]);
        let mut ws = SpWorkspace::new();
        let (path, km) = e.shortest_path_with(&mut ws, 0, 3).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert!((km - 30.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_is_none_and_self_is_zero() {
        let e = engine(4, &[(0, 1, 1.0)]);
        let mut ws = SpWorkspace::new();
        assert!(e.shortest_path_with(&mut ws, 0, 3).is_none());
        assert_eq!(e.shortest_path_with(&mut ws, 3, 3), Some((vec![3], 0.0)));
        assert!(e.shortest_path_with(&mut ws, 0, 99).is_none());
    }

    #[test]
    fn resumed_queries_match_fresh_queries() {
        // A lattice with enough structure that different targets settle at
        // different times.
        let mut arcs = Vec::new();
        for i in 0..20usize {
            arcs.push((i, (i + 1) % 20, 1.0 + (i % 3) as f64));
            if i % 4 == 0 {
                arcs.push((i, (i + 7) % 20, 2.5));
            }
        }
        let e = engine(20, &arcs);
        let mut resumed = SpWorkspace::new();
        for to in 0..20 {
            let mut fresh = SpWorkspace::new();
            let a = e.shortest_path_with(&mut resumed, 3, to);
            let b = e.shortest_path_with(&mut fresh, 3, to);
            assert_eq!(a, b, "target {to}");
        }
    }

    #[test]
    fn workspace_survives_source_switches() {
        let e = engine(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
        let mut ws = SpWorkspace::new();
        assert_eq!(e.distance_with(&mut ws, 0, 5), Some(5.0));
        assert_eq!(e.distance_with(&mut ws, 5, 0), Some(5.0));
        assert_eq!(e.distance_with(&mut ws, 2, 4), Some(2.0));
        assert_eq!(e.distance_with(&mut ws, 2, 0), Some(2.0));
    }

    #[test]
    fn workspace_survives_engine_switches() {
        // Same source index, different engine: the workspace must not
        // resume the stale search.
        let a = engine(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let b = engine(4, &[(0, 1, 5.0), (1, 3, 5.0)]);
        let mut ws = SpWorkspace::new();
        assert_eq!(a.distance_with(&mut ws, 0, 3), Some(3.0));
        assert_eq!(b.distance_with(&mut ws, 0, 3), Some(10.0));
        assert_eq!(a.distance_with(&mut ws, 0, 3), Some(3.0));
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let e = engine(3, &[(0, 1, 0.0), (1, 2, 0.0)]);
        let mut ws = SpWorkspace::new();
        let (path, km) = e.shortest_path_with(&mut ws, 0, 2).unwrap();
        assert_eq!(path, vec![0, 1, 2]);
        assert_eq!(km, 0.0);
    }

    #[test]
    fn single_pass_construction_accepts_consuming_iterators() {
        // A non-Clone iterator (mutable state captured by move).
        let mut produced = 0usize;
        let arcs = std::iter::from_fn(move || {
            if produced < 3 {
                let a = produced;
                produced += 1;
                Some((a, a + 1, 1.0))
            } else {
                None
            }
        });
        let e = ShortestPathEngine::from_undirected(4, arcs);
        let mut ws = SpWorkspace::for_engine(&e);
        assert_eq!(e.distance_with(&mut ws, 0, 3), Some(3.0));
    }

    #[test]
    fn distances_from_matches_individual_queries() {
        let mut arcs = Vec::new();
        for i in 0..12usize {
            arcs.push((i, (i + 1) % 12, 1.0 + (i % 4) as f64));
        }
        arcs.push((0, 6, 2.25));
        let e = engine(12, &arcs);
        let targets: Vec<usize> = (0..12).rev().collect();
        let mut ws = SpWorkspace::for_engine(&e);
        let batch = e.distances_from(&mut ws, 4, &targets);
        for (i, &to) in targets.iter().enumerate() {
            let mut fresh = SpWorkspace::new();
            assert_eq!(batch[i], e.distance_with(&mut fresh, 4, to), "target {to}");
        }
        let rows = e.many_to_many(&mut ws, &[0, 5], &targets);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], e.distances_from(&mut SpWorkspace::new(), 0, &targets));
    }

    #[test]
    fn workspace_shrinks_after_large_graph() {
        let big_n = (SHRINK_MIN * SHRINK_FACTOR) + 8;
        let arcs: Vec<(usize, usize, f64)> = (0..big_n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let big = ShortestPathEngine::from_undirected(big_n, arcs);
        let small = engine(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut ws = SpWorkspace::new();
        assert_eq!(big.distance_with(&mut ws, 0, 4), Some(4.0));
        assert_eq!(ws.buffer_len(), big_n);
        assert_eq!(small.distance_with(&mut ws, 0, 3), Some(3.0));
        assert_eq!(ws.buffer_len(), 4, "buffers shrink back to the live graph");
        // And the shrunken workspace still answers correctly.
        assert_eq!(small.distance_with(&mut ws, 3, 0), Some(3.0));
    }

    #[test]
    fn mode_override_round_trips() {
        assert_eq!(
            with_mode(SpMode::Ch, || MODE_OVERRIDE.with(|m| m.get())),
            Some(SpMode::Ch)
        );
        assert_eq!(MODE_OVERRIDE.with(|m| m.get()), None);
        let e = engine(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let (d_path, c_path) = (
            with_mode(SpMode::Dijkstra, || {
                e.shortest_path_with(&mut SpWorkspace::new(), 0, 2)
            }),
            with_mode(SpMode::Ch, || e.shortest_path_with(&mut SpWorkspace::new(), 0, 2)),
        );
        assert_eq!(d_path, c_path);
        assert_eq!(d_path, Some((vec![0, 1, 2], 2.0)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_out_of_range_asserts() {
        engine(2, &[(0, 1, 1.0)]).degree(7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arc_panics() {
        engine(2, &[(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn negative_weight_panics() {
        engine(2, &[(0, 1, -1.0)]);
    }
}
