//! Optimized engines against their executable specifications. (Named for
//! the worker-count checks it also held while the build was parallel.)
//!
//! * Property tests drive [`ShortestPathEngine`] against a naive reference
//!   Dijkstra on random connected graphs, including resumed same-source
//!   queries (weights are dyadic so distances compare exactly).
//! * The refactored hidden-node search (bitsets + cached `metros_of_asn`)
//!   must produce the same candidate sets as a straight port of the
//!   original `Vec::contains` implementation.
//! * The incremental, frontier-sparsified belief propagation must assign
//!   exactly what the original rescan-every-round formulation assigns.

use igdb_core::analysis::physpath::{
    physical_path_report_with, PhysGraph, HIDDEN_NODE_BUFFER_KM,
};
use igdb_core::{Igdb, ShortestPathEngine, SpWorkspace};
use igdb_net::{Asn, Ip4};
use igdb_synth::{emit_snapshots, World, WorldConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Engine vs naive reference Dijkstra
// ---------------------------------------------------------------------

/// O(n²) textbook Dijkstra, no heap, no reuse — the reference.
fn naive_dijkstra(
    n: usize,
    arcs: &[(usize, usize, f64)],
    from: usize,
    to: usize,
) -> Option<f64> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b, w) in arcs {
        adj[a].push((b, w));
        adj[b].push((a, w));
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[from] = 0.0;
    loop {
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for v in 0..n {
            if !done[v] && dist[v] < best {
                best = dist[v];
                u = v;
            }
        }
        if u == usize::MAX {
            break;
        }
        done[u] = true;
        for &(v, w) in &adj[u] {
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
            }
        }
    }
    dist[to].is_finite().then(|| dist[to])
}

/// A connected graph: a random spanning tree plus random extra edges.
/// Weights are multiples of 0.25 so path sums are exact in f64 and the
/// engine/reference distances must match bit-for-bit.
fn build_arcs(
    n: usize,
    parents: &[(u64, u32)],
    extras: &[(u32, u32, u32)],
) -> Vec<(usize, usize, f64)> {
    let mut arcs = Vec::with_capacity(parents.len() + extras.len());
    for (i, &(pick, w)) in parents.iter().enumerate() {
        let child = i + 1;
        let parent = (pick % child as u64) as usize;
        arcs.push((child, parent, w as f64 / 4.0));
    }
    for &(a, b, w) in extras {
        arcs.push(((a as usize) % n, (b as usize) % n, w as f64 / 4.0));
    }
    arcs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_naive_reference(
        n in 2usize..32,
        parents in proptest::collection::vec((any::<u64>(), 1u32..=16), 31),
        extras in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..=16), 0..48),
    ) {
        let parents = &parents[..n - 1];
        let arcs = build_arcs(n, parents, &extras);
        let engine = ShortestPathEngine::from_undirected(n, arcs.iter().copied());
        for from in [0usize, n / 2, n - 1] {
            // One workspace across all targets: exercises the resumable
            // per-source search against per-query fresh references.
            let mut ws = SpWorkspace::new();
            for to in 0..n {
                let got = engine.shortest_path_with(&mut ws, from, to);
                let want = naive_dijkstra(n, &arcs, from, to);
                match (got, want) {
                    (Some((path, km)), Some(ref_km)) => {
                        prop_assert_eq!(km, ref_km, "distance {} -> {}", from, to);
                        prop_assert_eq!(*path.first().unwrap(), from);
                        prop_assert_eq!(*path.last().unwrap(), to);
                        // The returned path must be real: consecutive
                        // nodes adjacent, edge weights summing to km.
                        let mut sum = 0.0;
                        for w in path.windows(2) {
                            let weight = arcs
                                .iter()
                                .filter(|&&(a, b, _)| {
                                    (a, b) == (w[0], w[1]) || (a, b) == (w[1], w[0])
                                })
                                .map(|&(_, _, wt)| wt)
                                .fold(f64::INFINITY, f64::min);
                            prop_assert!(weight.is_finite(), "non-edge {:?}", w);
                            sum += weight;
                        }
                        prop_assert_eq!(sum, km, "path weights must sum to the distance");
                    }
                    (None, None) => {}
                    (got, want) => {
                        return Err(proptest::test_runner::TestCaseError::Fail(format!(
                            "reachability mismatch {from} -> {to}: engine {got:?}, naive {want:?}"
                        )));
                    }
                }
            }
        }
    }

    #[test]
    fn engine_is_workspace_independent(
        n in 2usize..24,
        parents in proptest::collection::vec((any::<u64>(), 1u32..=16), 23),
        extras in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..=16), 0..24),
        from in any::<u32>(),
        to in any::<u32>(),
    ) {
        let parents = &parents[..n - 1];
        let arcs = build_arcs(n, parents, &extras);
        let engine = ShortestPathEngine::from_undirected(n, arcs.iter().copied());
        let (from, to) = ((from as usize) % n, (to as usize) % n);
        // A workspace polluted by unrelated queries must answer exactly
        // like a fresh one.
        let mut dirty = SpWorkspace::new();
        for probe in 0..n {
            engine.shortest_path_with(&mut dirty, probe, (probe + 1) % n);
        }
        let mut fresh = SpWorkspace::new();
        prop_assert_eq!(
            engine.shortest_path_with(&mut dirty, from, to),
            engine.shortest_path_with(&mut fresh, from, to)
        );
    }

    #[test]
    fn engine_resume_survives_interleaved_sources(
        n in 2usize..24,
        parents in proptest::collection::vec((any::<u64>(), 1u32..=16), 23),
        extras in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..=16), 0..24),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let parents = &parents[..n - 1];
        let arcs = build_arcs(n, parents, &extras);
        let engine = ShortestPathEngine::from_undirected(n, arcs.iter().copied());
        // One long-lived workspace fields queries whose sources alternate
        // arbitrarily — the worst case for the resumable search, which
        // must reset exactly when the source changes and resume (never
        // recompute wrongly) when it doesn't. Every answer must match a
        // fresh workspace, and asking again must be stable.
        let mut shared = SpWorkspace::new();
        for &(from, to) in &queries {
            let (from, to) = ((from as usize) % n, (to as usize) % n);
            let got = engine.shortest_path_with(&mut shared, from, to);
            let mut fresh = SpWorkspace::new();
            let want = engine.shortest_path_with(&mut fresh, from, to);
            prop_assert_eq!(&got, &want, "interleaved {} -> {}", from, to);
            let again = engine.shortest_path_with(&mut shared, from, to);
            prop_assert_eq!(&again, &want, "repeat {} -> {}", from, to);
            prop_assert_eq!(
                engine.distance_with(&mut shared, from, to),
                want.as_ref().map(|(_, km)| *km),
                "distance {} -> {}", from, to
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hidden-node candidates vs straight port of the original algorithm
// ---------------------------------------------------------------------

/// Reimplements the original O(n)-scan hidden-candidate search (before the
/// bitset/caching refactor) from public APIs only.
fn naive_hidden_candidates(
    igdb: &Igdb,
    graph: &PhysGraph,
    observed: &[usize],
    leg_asns: &[Asn],
    a: usize,
    b: usize,
    via: &[usize],
) -> Vec<usize> {
    let corridor: Vec<igdb_geo::GeoPoint> =
        via.iter().map(|&m| igdb.metros.metro(m).loc).collect();
    let mut hidden: Vec<usize> = Vec::new();
    for &asn in leg_asns {
        for m in igdb.metros_of_asn(asn) {
            if m == a || m == b || observed.contains(&m) || hidden.contains(&m) {
                continue;
            }
            if graph.degree(m) == 0 {
                continue;
            }
            let loc = igdb.metros.metro(m).loc;
            if igdb_geo::point_polyline_distance_km(&loc, &corridor) <= HIDDEN_NODE_BUFFER_KM {
                hidden.push(m);
            }
        }
    }
    hidden.sort_unstable();
    hidden
}

#[test]
fn hidden_candidate_sets_match_naive_reference() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 400);
    let igdb = Igdb::build(&snaps);
    let graph = PhysGraph::from_igdb(&igdb);

    let mut reports = 0;
    let mut legs_checked = 0;
    for trace in igdb.traces().iter().take(120) {
        let hops: Vec<Ip4> = trace.hops.iter().filter_map(|h| h.ip).collect();
        let Some(report) = physical_path_report_with(&igdb, &graph, &hops) else {
            continue;
        };
        reports += 1;
        // Recover per-leg AS sets exactly as the pipeline does: ASes seen
        // since the previous observed metro, in first-seen order.
        let mut observed: Vec<usize> = Vec::new();
        let mut leg_asns: Vec<Vec<Asn>> = Vec::new();
        let mut current: Vec<Asn> = Vec::new();
        for &ip in &hops {
            let info = igdb.ip_info.get(&ip);
            if let Some(asn) = info.and_then(|i| i.asn) {
                if !current.contains(&asn) {
                    current.push(asn);
                }
            }
            if let Some(m) = info.and_then(|i| i.metro) {
                if observed.last() != Some(&m) {
                    if !observed.is_empty() {
                        leg_asns.push(std::mem::take(&mut current));
                    }
                    observed.push(m);
                }
            }
        }
        while leg_asns.len() < observed.len().saturating_sub(1) {
            leg_asns.push(current.clone());
        }
        assert_eq!(report.observed_metros, observed);
        for (leg, asns) in report.legs.iter().zip(&leg_asns) {
            let naive = naive_hidden_candidates(
                &igdb,
                &graph,
                &observed,
                asns,
                leg.from_metro,
                leg.to_metro,
                &leg.via,
            );
            assert_eq!(
                leg.hidden_candidates, naive,
                "candidate set diverged on leg {} -> {}",
                leg.from_metro, leg.to_metro
            );
            legs_checked += 1;
        }
    }
    assert!(reports > 10, "too few reports exercised: {reports}");
    assert!(legs_checked > 20, "too few legs exercised: {legs_checked}");
}

// ---------------------------------------------------------------------------
// Belief propagation vs the original per-round rescan
// ---------------------------------------------------------------------------

use igdb_core::analysis::beliefprop::{propagate, BeliefPropParams};
use std::collections::{BTreeMap, HashMap};

/// The original O(rounds x traces) formulation of `propagate`: every round
/// rescans all traces and rebuilds the vote map against the current located
/// set. Kept as the executable specification for the incremental
/// frontier-sparsified engine.
fn naive_propagate(igdb: &Igdb, params: &BeliefPropParams) -> HashMap<Ip4, usize> {
    let mut located: HashMap<Ip4, usize> = igdb
        .ip_info
        .iter()
        .filter_map(|(&ip, info)| Some((ip, info.metro?)))
        .collect();
    let mut assignments: HashMap<Ip4, usize> = HashMap::new();
    for _ in 0..params.max_iterations {
        let mut votes: HashMap<Ip4, HashMap<usize, usize>> = HashMap::new();
        for tr in igdb.traces() {
            let hops: Vec<(Ip4, f64, u8)> = tr
                .hops
                .iter()
                .filter_map(|h| h.ip.map(|ip| (ip, h.rtt_ms, h.ttl)))
                .collect();
            for w in hops.windows(2) {
                let ((ip_a, rtt_a, ttl_a), (ip_b, rtt_b, ttl_b)) = (w[0], w[1]);
                let gap = ttl_b.saturating_sub(ttl_a);
                if gap > 2 || (gap == 2 && (rtt_a - rtt_b).abs() >= params.metro_threshold_ms / 2.0)
                {
                    continue;
                }
                if (rtt_a - rtt_b).abs() >= params.metro_threshold_ms {
                    continue;
                }
                if rtt_a >= params.probe_rtt_max_ms || rtt_b >= params.probe_rtt_max_ms {
                    continue;
                }
                let is_anycast =
                    |ip: &Ip4| igdb.ip_info.get(ip).map(|i| i.anycast).unwrap_or(false);
                match (located.get(&ip_a).copied(), located.get(&ip_b).copied()) {
                    (None, Some(m)) if !is_anycast(&ip_a) => {
                        *votes.entry(ip_a).or_default().entry(m).or_default() += 1;
                    }
                    (Some(m), None) if !is_anycast(&ip_b) => {
                        *votes.entry(ip_b).or_default().entry(m).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut committed = 0usize;
        for (ip, ms) in votes {
            let total: usize = ms.values().sum();
            if let Some((&metro, &n)) = ms.iter().max_by_key(|&(m, n)| (*n, std::cmp::Reverse(*m)))
            {
                if 3 * n >= 2 * total {
                    located.insert(ip, metro);
                    assignments.insert(ip, metro);
                    committed += 1;
                }
            }
        }
        if committed == 0 {
            break;
        }
    }
    assignments
}

#[test]
fn beliefprop_matches_naive_reference() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 1200);
    let igdb = Igdb::build(&snaps);
    for params in [
        BeliefPropParams::default(),
        BeliefPropParams {
            metro_threshold_ms: 1.0,
            ..BeliefPropParams::default()
        },
        BeliefPropParams {
            max_iterations: 1,
            ..BeliefPropParams::default()
        },
    ] {
        let fast = propagate(&igdb, &params);
        let naive = naive_propagate(&igdb, &params);
        let ma: BTreeMap<_, _> = fast.assignments.iter().collect();
        let mb: BTreeMap<_, _> = naive.iter().collect();
        assert_eq!(ma, mb, "fast engine diverged from the naive rescan");
    }
}
