//! Contraction-hierarchy preprocessing and queries for
//! [`ShortestPathEngine`].
//!
//! # Construction
//!
//! Nodes are contracted one at a time in ascending *priority* order, where
//! priority is the classic edge-difference heuristic
//! `shortcuts_needed − live_degree + contracted_neighbor_count`, with the
//! node index as the deterministic tie-breaker. Contracting node `v`
//! inserts a shortcut `x—y` for every pair of live neighbors whose unique
//! shortest `x→y` path is (as far as a budgeted witness search can tell)
//! exactly `x→v→y`; a shortcut is skipped only when the witness search
//! proves a strictly smaller path avoiding `v`, so budget exhaustion adds
//! redundant-but-harmless shortcuts rather than dropping necessary ones.
//!
//! Priorities are maintained lazily: the heap may hold stale entries, each
//! pop re-evaluates the node against the current overlay graph and
//! re-queues it if something better surfaced. Initial priorities are one
//! simulated contraction per node against the untouched input graph; the
//! contraction loop then runs in rank order.
//!
//! # Query
//!
//! A query runs two *upward* Dijkstras (edges only lead to higher-ranked
//! endpoints) from source and target — the graph is undirected, so the
//! backward search uses the same upward adjacency — to exhaustion, then
//! picks the meeting node minimizing the combined lexicographic key, and
//! unpacks shortcuts back to original edges. Both searches are tiny
//! compared to the full graph, and a workspace caches them by
//! (engine, endpoint), so batched queries from one source reuse the
//! forward search just like resumable Dijkstra does.
//!
//! # Determinism contract
//!
//! All searches here minimize the same `(weight, hops, tie)` key as
//! `spath.rs` Dijkstra, under which shortest paths are unique, so the CH
//! answer is the *same path*; the reported weight is re-accumulated
//! left-to-right over the unpacked original edges, so the `f64` total is
//! bit-identical too (see the `spath` module docs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{Key, ShortestPathEngine, SpWorkspace, SHRINK_FACTOR, SHRINK_MIN};

const SENTINEL: u32 = u32::MAX;

/// Settle budget for one witness search. Exhausting it conservatively adds
/// the shortcut, so the budget trades preprocessing time against a few
/// redundant edges — never correctness.
const WITNESS_BUDGET: usize = 64;

/// Overlay edge store: original arcs first, shortcuts appended during
/// contraction. `mid` is `[SENTINEL; 2]` for originals, else the two child
/// edge ids (`x—v`, `v—y`) a shortcut expands to.
struct Edges {
    a: Vec<u32>,
    b: Vec<u32>,
    w: Vec<f64>,
    hops: Vec<u32>,
    tie: Vec<u128>,
    mid: Vec<[u32; 2]>,
}

impl Edges {
    fn len(&self) -> usize {
        self.a.len()
    }

    #[inline]
    fn key(&self, e: usize) -> Key {
        Key {
            w: self.w[e],
            hops: self.hops[e],
            tie: self.tie[e],
        }
    }

    #[inline]
    fn other(&self, e: usize, x: u32) -> u32 {
        if self.a[e] == x {
            self.b[e]
        } else {
            debug_assert_eq!(self.b[e], x);
            self.a[e]
        }
    }

    fn push(&mut self, a: u32, b: u32, key: Key, mid: [u32; 2]) -> u32 {
        let id = self.a.len() as u32;
        self.a.push(a);
        self.b.push(b);
        self.w.push(key.w);
        self.hops.push(key.hops);
        self.tie.push(key.tie);
        self.mid.push(mid);
        id
    }
}

/// A shortcut planned while (actually or hypothetically) contracting a
/// node: connects neighbors `x` and `y` through child edges `ex` (`x—v`)
/// and `ey` (`v—y`).
struct Shortcut {
    x: u32,
    y: u32,
    ex: u32,
    ey: u32,
    key: Key,
}

/// Generation-stamped scratch for budgeted witness Dijkstras over the
/// overlay graph.
struct WitnessScratch {
    generation: u32,
    reached: Vec<u32>,
    settled: Vec<u32>,
    w: Vec<f64>,
    hops: Vec<u32>,
    tie: Vec<u128>,
    heap: BinaryHeap<Reverse<(u64, u32, u128, u32)>>,
}

impl WitnessScratch {
    fn new(n: usize) -> Self {
        Self {
            generation: 0,
            reached: vec![0; n],
            settled: vec![0; n],
            w: vec![f64::INFINITY; n],
            hops: vec![0; n],
            tie: vec![0; n],
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self, source: u32) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.reached.fill(0);
            self.settled.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
        let s = source as usize;
        self.reached[s] = self.generation;
        self.w[s] = 0.0;
        self.hops[s] = 0;
        self.tie[s] = 0;
        self.heap.push(Reverse((0, 0, 0, source)));
        self.generation
    }
}

/// Live (uncontracted) neighbors of `v`, one entry per distinct neighbor
/// carrying the minimum-key edge to it, sorted by neighbor index. The sort
/// plus min-key dedup make every downstream pair loop deterministic and
/// give duplicate arcs the same winner the Dijkstra relaxation picks.
fn live_neighbors(edges: &Edges, adj_v: &[u32], contracted: &[bool], v: u32) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &e in adj_v {
        let o = edges.other(e as usize, v);
        if !contracted[o as usize] {
            out.push((o, e));
        }
    }
    out.sort_by_key(|&(o, e)| (o, edges.key(e as usize).bits(), e));
    out.dedup_by_key(|entry| entry.0);
    out
}

/// Budgeted multi-target witness search from `x`, avoiding `skip`. Sets
/// `witnessed[j]` iff a path `x→targets[j].0` *strictly* smaller than the
/// candidate key `targets[j].1` exists without going through `skip`.
fn witness_scan(
    edges: &Edges,
    adj: &[Vec<u32>],
    contracted: &[bool],
    scratch: &mut WitnessScratch,
    skip: u32,
    x: u32,
    targets: &[(u32, Key)],
    witnessed: &mut [bool],
) {
    let max_cand = targets
        .iter()
        .map(|t| t.1.bits())
        .max()
        .expect("targets non-empty");
    let generation = scratch.begin(x);
    let mut remaining = targets.len();
    let mut settles = 0usize;
    while let Some(Reverse((wb, h, t, u))) = scratch.heap.pop() {
        let un = u as usize;
        if scratch.settled[un] == generation {
            continue;
        }
        let key = Key {
            w: f64::from_bits(wb),
            hops: h,
            tie: t,
        };
        if key.bits() > max_cand {
            break;
        }
        scratch.settled[un] = generation;
        settles += 1;
        if let Some(j) = targets.iter().position(|&(y, _)| y == u) {
            if key.lt(targets[j].1) {
                witnessed[j] = true;
            }
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        if settles >= WITNESS_BUDGET {
            break;
        }
        for &e in &adj[un] {
            let o = edges.other(e as usize, u);
            let on = o as usize;
            if o == skip || contracted[on] {
                continue;
            }
            let nk = key.add(edges.key(e as usize));
            if nk.bits() > max_cand {
                continue;
            }
            let better = scratch.reached[on] != generation
                || nk.bits() < (scratch.w[on].to_bits(), scratch.hops[on], scratch.tie[on]);
            if better {
                scratch.reached[on] = generation;
                scratch.w[on] = nk.w;
                scratch.hops[on] = nk.hops;
                scratch.tie[on] = nk.tie;
                scratch
                    .heap
                    .push(Reverse((nk.w.to_bits(), nk.hops, nk.tie, o)));
            }
        }
    }
}

/// Simulated (or real) contraction of `v`: the shortcuts it would require
/// and its current live degree.
fn plan_shortcuts(
    edges: &Edges,
    adj: &[Vec<u32>],
    contracted: &[bool],
    scratch: &mut WitnessScratch,
    v: u32,
) -> (Vec<Shortcut>, usize) {
    let nbrs = live_neighbors(edges, &adj[v as usize], contracted, v);
    let mut plan = Vec::new();
    let mut witnessed = Vec::new();
    for i in 0..nbrs.len() {
        let (x, ex) = nbrs[i];
        let targets: Vec<(u32, Key)> = nbrs[i + 1..]
            .iter()
            .map(|&(y, ey)| (y, edges.key(ex as usize).add(edges.key(ey as usize))))
            .collect();
        if targets.is_empty() {
            continue;
        }
        witnessed.clear();
        witnessed.resize(targets.len(), false);
        witness_scan(
            edges,
            adj,
            contracted,
            scratch,
            v,
            x,
            &targets,
            &mut witnessed,
        );
        for (j, &(y, key)) in targets.iter().enumerate() {
            if !witnessed[j] {
                plan.push(Shortcut {
                    x,
                    y,
                    ex,
                    ey: nbrs[i + 1 + j].1,
                    key,
                });
            }
        }
    }
    (plan, nbrs.len())
}

/// The preprocessed hierarchy: final overlay edge set (originals +
/// shortcuts), contraction ranks, and the upward adjacency (each edge filed
/// under its lower-ranked endpoint).
pub(crate) struct Hierarchy {
    nodes: usize,
    edges: Edges,
    up_offsets: Vec<u32>,
    up_edges: Vec<u32>,
}

/// Fresh overlay (originals only) + adjacency for `engine`.
fn overlay_init(engine: &ShortestPathEngine) -> (Edges, Vec<Vec<u32>>) {
    let n = engine.node_count();
    let mut edges = Edges {
        a: Vec::new(),
        b: Vec::new(),
        w: Vec::new(),
        hops: Vec::new(),
        tie: Vec::new(),
        mid: Vec::new(),
    };
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b, w, tie) in engine.arcs() {
        // Self-loops can never lie on a shortest path (hops strictly
        // grow the key), so the overlay drops them.
        if a == b {
            continue;
        }
        let id = edges.push(
            a,
            b,
            Key {
                w,
                hops: 1,
                tie: tie as u128,
            },
            [SENTINEL; 2],
        );
        adj[a as usize].push(id);
        adj[b as usize].push(id);
    }
    (edges, adj)
}

impl Hierarchy {
    pub(crate) fn build(engine: &ShortestPathEngine) -> Self {
        // No span here: the build is triggered lazily through a OnceLock,
        // so *which thread* (serial pipeline or pool worker) runs it is
        // scheduling-dependent — a span's parent would be too. Perf
        // metrics carry the cost instead; spans stay serial-only (§11).
        igdb_obs::perf("ch.builds", "", 1);
        let n = engine.node_count();
        let (mut edges, mut adj) = overlay_init(engine);
        let original_edges = edges.len();

        let mut contracted = vec![false; n];
        let mut deleted = vec![0u32; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);

        // Initial priorities: one simulated contraction per node against
        // the untouched graph.
        let mut scratch = WitnessScratch::new(n);
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = (0..n as u32)
            .map(|v| {
                let (plan, degree) = plan_shortcuts(&edges, &adj, &contracted, &mut scratch, v);
                Reverse((plan.len() as i64 - degree as i64, v))
            })
            .collect();

        // Lazy-heap contraction in rank order.
        while let Some(Reverse((_, v))) = heap.pop() {
            if contracted[v as usize] {
                continue;
            }
            let (plan, degree) = plan_shortcuts(&edges, &adj, &contracted, &mut scratch, v);
            let prio = plan.len() as i64 - degree as i64 + deleted[v as usize] as i64;
            if let Some(&Reverse(top)) = heap.peek() {
                if (prio, v) > top {
                    heap.push(Reverse((prio, v)));
                    continue;
                }
            }
            order.push(v);
            contracted[v as usize] = true;
            for &e in &adj[v as usize] {
                let o = edges.other(e as usize, v);
                if !contracted[o as usize] {
                    deleted[o as usize] += 1;
                }
            }
            for sc in plan {
                let id = edges.push(sc.x, sc.y, sc.key, [sc.ex, sc.ey]);
                adj[sc.x as usize].push(id);
                adj[sc.y as usize].push(id);
            }
        }
        debug_assert_eq!(order.len(), n);
        // Perf class per the observability contract: shortcut totals are
        // data-determined but reported alongside the other preprocessing
        // costs, outside the deterministic counter snapshot.
        igdb_obs::perf(
            "ch.shortcuts_added",
            "",
            (edges.len() - original_edges) as u64,
        );
        Self::finish(n, edges, &order)
    }

    /// Ranks from the contraction order, then the upward CSR (every
    /// overlay edge filed under its lower-ranked endpoint, in edge-id
    /// order).
    fn finish(n: usize, edges: Edges, order: &[u32]) -> Self {
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let mut up_degree = vec![0u32; n];
        for e in 0..edges.len() {
            let (a, b) = (edges.a[e] as usize, edges.b[e] as usize);
            let lower = if rank[a] < rank[b] { a } else { b };
            up_degree[lower] += 1;
        }
        let mut up_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        up_offsets.push(0);
        for d in &up_degree {
            acc += d;
            up_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = up_offsets[..n].to_vec();
        let mut up_edges = vec![0u32; edges.len()];
        for e in 0..edges.len() {
            let (a, b) = (edges.a[e] as usize, edges.b[e] as usize);
            let lower = if rank[a] < rank[b] { a } else { b };
            up_edges[cursor[lower] as usize] = e as u32;
            cursor[lower] += 1;
        }
        Self {
            nodes: n,
            edges,
            up_offsets,
            up_edges,
        }
    }

    /// Total number of shortcut edges the preprocessing added (diagnostic).
    #[cfg(test)]
    pub(crate) fn shortcut_count(&self) -> usize {
        self.edges.mid.iter().filter(|m| m[0] != SENTINEL).count()
    }

    /// CH point query. Same `(path, weight)` as the Dijkstra mode, or
    /// `None` when unreachable. `from != to` and both in range (the engine
    /// entry points already handled the trivial cases).
    pub(crate) fn shortest_path(
        &self,
        engine: &ShortestPathEngine,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        let SpWorkspace {
            ch_fwd,
            ch_bwd,
            unpack,
            ..
        } = ws;
        if ch_fwd.prepare(self, engine.id, from) {
            igdb_obs::perf("ch.up_settled", "", ch_fwd.settled_list.len() as u64);
            igdb_obs::observe(
                "ch.settled_per_search",
                "up",
                ch_fwd.settled_list.len() as u64,
            );
        }
        if ch_bwd.prepare(self, engine.id, to) {
            igdb_obs::perf("ch.down_settled", "", ch_bwd.settled_list.len() as u64);
            igdb_obs::observe(
                "ch.settled_per_search",
                "down",
                ch_bwd.settled_list.len() as u64,
            );
        }

        // Meeting node: minimum combined key over nodes settled by both
        // searches, node index as the final tie-breaker.
        let mut best: Option<(u64, u32, u128, u32)> = None;
        for &u in &ch_fwd.settled_list {
            let un = u as usize;
            if ch_bwd.settled[un] != ch_bwd.generation {
                continue;
            }
            let cand = (
                (ch_fwd.w[un] + ch_bwd.w[un]).to_bits(),
                ch_fwd.hops[un] + ch_bwd.hops[un],
                ch_fwd.tie[un] + ch_bwd.tie[un],
                u,
            );
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let (_, _, _, meet) = best?;

        // Hierarchy-edge chain from→meet (parent walk reversed), then
        // meet→to (backward parent walk reads off in forward order).
        let mut chain: Vec<u32> = Vec::new();
        let mut cur = meet as usize;
        while ch_fwd.parent[cur] != SENTINEL {
            chain.push(ch_fwd.parent[cur]);
            cur = ch_fwd.parent_node[cur] as usize;
        }
        chain.reverse();
        cur = meet as usize;
        while ch_bwd.parent[cur] != SENTINEL {
            chain.push(ch_bwd.parent[cur]);
            cur = ch_bwd.parent_node[cur] as usize;
        }

        // Unpack shortcuts depth-first; accumulate the total left-to-right
        // over original edges exactly as Dijkstra would.
        let mut nodes = vec![from];
        let mut total = 0.0f64;
        let mut at = from as u32;
        unpack.clear();
        for &eid in &chain {
            unpack.push(eid);
            while let Some(e) = unpack.pop() {
                let en = e as usize;
                let [c1, c2] = self.edges.mid[en];
                if c1 == SENTINEL {
                    let next = self.edges.other(en, at);
                    total += self.edges.w[en];
                    nodes.push(next as usize);
                    at = next;
                } else {
                    // The child touching the current endpoint expands
                    // first; endpoint sets make the choice unambiguous.
                    let c1n = c1 as usize;
                    let (first, second) = if self.edges.a[c1n] == at || self.edges.b[c1n] == at {
                        (c1, c2)
                    } else {
                        (c2, c1)
                    };
                    unpack.push(second);
                    unpack.push(first);
                }
            }
        }
        debug_assert_eq!(at as usize, to);
        Some((nodes, total))
    }
}

/// One cached upward search (forward or backward) inside a workspace.
/// Generation-stamped like `SpWorkspace`; a search keyed by the same
/// (engine, endpoint) is reused across queries, which is what makes
/// batched `distances_from` share its forward search.
pub(crate) struct ChSearch {
    generation: u32,
    reached: Vec<u32>,
    settled: Vec<u32>,
    w: Vec<f64>,
    hops: Vec<u32>,
    tie: Vec<u128>,
    parent: Vec<u32>,
    parent_node: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32, u128, u32)>>,
    settled_list: Vec<u32>,
    source: usize,
    engine_id: u64,
}

impl ChSearch {
    pub(crate) fn new() -> Self {
        Self {
            generation: 0,
            reached: Vec::new(),
            settled: Vec::new(),
            w: Vec::new(),
            hops: Vec::new(),
            tie: Vec::new(),
            parent: Vec::new(),
            parent_node: Vec::new(),
            heap: BinaryHeap::new(),
            settled_list: Vec::new(),
            source: usize::MAX,
            engine_id: 0,
        }
    }

    fn size_to(&mut self, n: usize) {
        if self.reached.len() > SHRINK_MIN && self.reached.len() / SHRINK_FACTOR >= n.max(1) {
            self.reached.truncate(n);
            self.settled.truncate(n);
            self.w.truncate(n);
            self.hops.truncate(n);
            self.tie.truncate(n);
            self.parent.truncate(n);
            self.parent_node.truncate(n);
            self.reached.shrink_to_fit();
            self.settled.shrink_to_fit();
            self.w.shrink_to_fit();
            self.hops.shrink_to_fit();
            self.tie.shrink_to_fit();
            self.parent.shrink_to_fit();
            self.parent_node.shrink_to_fit();
            self.heap = BinaryHeap::new();
            self.settled_list = Vec::new();
        }
        if self.reached.len() < n {
            self.reached.resize(n, 0);
            self.settled.resize(n, 0);
            self.w.resize(n, f64::INFINITY);
            self.hops.resize(n, 0);
            self.tie.resize(n, 0);
            self.parent.resize(n, SENTINEL);
            self.parent_node.resize(n, SENTINEL);
        }
    }

    /// Ensures this scratch holds the exhaustive upward search from
    /// `source` on `hier`. Returns `true` when the search actually ran
    /// (`false` = cache hit on the same engine + endpoint).
    fn prepare(&mut self, hier: &Hierarchy, engine_id: u64, source: usize) -> bool {
        if self.engine_id == engine_id
            && self.source == source
            && self.generation != 0
            && self.reached.len() >= hier.nodes
        {
            return false;
        }
        self.size_to(hier.nodes);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.reached.fill(0);
            self.settled.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
        self.settled_list.clear();
        self.source = source;
        self.engine_id = engine_id;
        let generation = self.generation;
        let s = source;
        self.reached[s] = generation;
        self.w[s] = 0.0;
        self.hops[s] = 0;
        self.tie[s] = 0;
        self.parent[s] = SENTINEL;
        self.parent_node[s] = SENTINEL;
        self.heap.push(Reverse((0, 0, 0, s as u32)));
        while let Some(Reverse((_, _, _, u))) = self.heap.pop() {
            let un = u as usize;
            if self.settled[un] == generation {
                continue;
            }
            self.settled[un] = generation;
            self.settled_list.push(u);
            let key = Key {
                w: self.w[un],
                hops: self.hops[un],
                tie: self.tie[un],
            };
            let lo = hier.up_offsets[un] as usize;
            let hi = hier.up_offsets[un + 1] as usize;
            for &e in &hier.up_edges[lo..hi] {
                let en = e as usize;
                let v = hier.edges.other(en, u);
                let vn = v as usize;
                let nk = key.add(hier.edges.key(en));
                let better = self.reached[vn] != generation
                    || nk.bits() < (self.w[vn].to_bits(), self.hops[vn], self.tie[vn]);
                if better {
                    self.reached[vn] = generation;
                    self.w[vn] = nk.w;
                    self.hops[vn] = nk.hops;
                    self.tie[vn] = nk.tie;
                    self.parent[vn] = e;
                    self.parent_node[vn] = u;
                    self.heap
                        .push(Reverse((nk.w.to_bits(), nk.hops, nk.tie, v)));
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ShortestPathEngine, SpMode, SpWorkspace};

    fn engine(n: usize, arcs: &[(usize, usize, f64)]) -> ShortestPathEngine {
        ShortestPathEngine::from_undirected(n, arcs.iter().copied())
    }

    fn all_pairs_agree(e: &ShortestPathEngine) {
        e.prepare_ch();
        let n = e.node_count();
        for from in 0..n {
            for to in 0..n {
                let d = super::super::with_mode(SpMode::Dijkstra, || {
                    e.shortest_path_with(&mut SpWorkspace::new(), from, to)
                });
                let c = super::super::with_mode(SpMode::Ch, || {
                    e.shortest_path_with(&mut SpWorkspace::new(), from, to)
                });
                assert_eq!(d, c, "pair ({from}, {to})");
            }
        }
    }

    #[test]
    fn ch_matches_dijkstra_on_grid() {
        // 5x5 grid with dyadic weights: plenty of equal-weight paths, so
        // this exercises the tie-breaking contract, not just distances.
        let mut arcs = Vec::new();
        let id = |r: usize, c: usize| r * 5 + c;
        for r in 0..5 {
            for c in 0..5 {
                if c + 1 < 5 {
                    arcs.push((id(r, c), id(r, c + 1), 1.0));
                }
                if r + 1 < 5 {
                    arcs.push((id(r, c), id(r + 1, c), 1.0));
                }
            }
        }
        all_pairs_agree(&engine(25, &arcs));
    }

    #[test]
    fn ch_handles_disconnected_zero_weight_and_duplicates() {
        let arcs = vec![
            (0, 1, 0.0),
            (1, 2, 0.0),
            (0, 2, 0.0), // equal-weight triangle, broken by ties
            (2, 3, 1.5),
            (2, 3, 1.5), // duplicate arc
            (3, 4, 0.25),
            (5, 6, 2.0), // separate component
            (6, 6, 0.0), // self loop
        ];
        all_pairs_agree(&engine(7, &arcs));
    }

    #[test]
    fn hierarchy_adds_shortcuts_on_a_chain_free_graph() {
        // A star forces shortcuts between the leaves once the hub
        // contracts first (it has the highest edge difference, so it
        // contracts last; the leaves go first and need no shortcuts —
        // instead check a path graph where middles contract away).
        let e = engine(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        );
        e.prepare_ch();
        let h = e.hierarchy();
        assert!(
            h.shortcut_count() > 0,
            "path contraction must add shortcuts"
        );
        assert_eq!(h.nodes, 6);
        all_pairs_agree(&e);
    }
}
