//! The transportation right-of-way graph iGDB routes fiber paths along.
//!
//! Paper §3.1: "We use information on existing road networks to generate an
//! approximation of the physical path the fiber optic cable connecting the
//! two nodes follows. This is accomplished by determining the shortest
//! route connecting city pairs along the right-of-way network." The road
//! dataset arrives as [`RoadSegment`] records (a public GIS layer);
//! endpoints are metro ids.
//!
//! The graph holds the snapshot's segment list by reference (a shared
//! [`Source`]), so building it copies no polyline. Routing delegates to the
//! shared [`ShortestPathEngine`], and a hop's geometry is the first-loaded
//! segment joining its two metros, found in the engine's adjacency (whose
//! per-metro order is load order). What a `phys_conn` row needs of a routed
//! pair — its length and its WKT cell — is made once per graph
//! ([`RoadGraph::roadway`]), so every epoch that shares the graph shares
//! the cells too, and a road delta carries every one the changed segments
//! cannot have moved ([`RoadGraph::for_next_epoch`]).

use std::sync::Arc;
use std::sync::Mutex;

use igdb_db::Value;
use igdb_geo::{to_wkt, GeoPoint, Geometry, LineString};
use igdb_synth::sources::{RoadSegment, Source};

use crate::corridor::CorridorCache;
use crate::spath::{ShortestPathEngine, SpWorkspace};

/// A roadway `phys_conn` row's payload for one metro pair: the road
/// route's length and its geometry as a WKT cell, running from the smaller
/// metro id to the larger, as `phys_conn` stores the pair.
#[derive(Clone, Debug)]
pub(crate) struct Roadway {
    pub km: f64,
    pub wkt: Value,
    /// The route's metros, from the smaller id to the larger: what decides
    /// whether the payload survives a road delta.
    pub path: Arc<[u32]>,
}

/// An unordered metro pair that segments join, smaller id first.
type Adjacency = (u32, u32);

fn adjacency(a: usize, b: usize) -> Adjacency {
    (a.min(b) as u32, a.max(b) as u32)
}

/// The right-of-way graph over the standard metros.
pub struct RoadGraph {
    /// The snapshot's segments, in load order; arc `k` of the engine is
    /// segment `k`.
    segments: Source<RoadSegment>,
    engine: ShortestPathEngine,
    /// Workspace backing the plain [`shortest_path`](Self::shortest_path)
    /// convenience API; parallel callers bring their own workspace via the
    /// `_with` variants.
    workspace: Mutex<SpWorkspace>,
    /// Memoized roadway payloads by normalized metro pair: a delta apply
    /// re-asks the pairs the prior epoch routed (see
    /// [`roadway`](Self::roadway)).
    corridors: CorridorCache<Roadway>,
}

impl RoadGraph {
    /// Loads the road dataset, sharing its records. `n_metros` sizes the
    /// adjacency table; segments referencing out-of-range metros are
    /// rejected.
    pub fn build(n_metros: usize, segments: &Source<RoadSegment>) -> Self {
        for s in segments.iter() {
            assert!(
                s.a < n_metros && s.b < n_metros,
                "road segment references unknown metro ({}, {})",
                s.a,
                s.b
            );
        }
        let engine = ShortestPathEngine::from_undirected(
            n_metros,
            segments.iter().map(|s| (s.a, s.b, s.length_km)),
        );
        Self {
            segments: segments.clone(),
            engine,
            workspace: Mutex::new(SpWorkspace::new()),
            corridors: CorridorCache::new("roads"),
        }
    }

    /// The graph over `segments` that succeeds `prior` in a delta apply
    /// over an unchanged metro registry, starting with every memoized
    /// roadway payload of `prior` the change cannot have moved. The carry
    /// rule lives here and nowhere else.
    ///
    /// The two segment lists are diffed adjacency by adjacency (the
    /// unordered metro pair a segment joins), comparing each adjacency's
    /// segments by value, bit for bit, in load order. If an adjacency was
    /// added, or its shortest segment got shorter, any route could have
    /// shortened, and the memo starts cold. Otherwise no path got shorter,
    /// and a path that crosses no changed adjacency kept its weight, its
    /// hops and the first-loaded segment of each hop (its geometry), so
    /// every settled payload whose path avoids the changed adjacencies
    /// carries. So does every unreachable (`None`) one: removing or
    /// lengthening segments joins no metros.
    ///
    /// Exactness premise: the engine breaks ties between equal
    /// `(weight, hops)` paths by per-arc perturbations indexed by load
    /// position (`arc_tie(k)`), and removing a segment re-indexes every
    /// later arc. A carried route therefore equals a cold graph's unless
    /// another path has a bit-identical `(weight, hops)` — the premise
    /// `PhysGraph::for_next_epoch` rests on too. Answers are held to a cold
    /// [`build`](Self::build) on random continuous-weight graphs and on
    /// every delta the byte-identity suite applies.
    pub(crate) fn for_next_epoch(
        prior: &RoadGraph,
        n_metros: usize,
        segments: &Source<RoadSegment>,
    ) -> Self {
        let next = Self::build(n_metros, segments);
        if prior.engine.node_count() != n_metros {
            return next;
        }
        let Some(changed) = changed_adjacencies(&prior.segments, segments) else {
            return next;
        };
        next.corridors.seed_from(&prior.corridors, |_, roadway| {
            roadway.is_none_or(|r| {
                r.path.windows(2).all(|w| {
                    let hop = adjacency(w[0] as usize, w[1] as usize);
                    changed.binary_search(&hop).is_err()
                })
            })
        });
        next
    }

    pub fn edge_count(&self) -> usize {
        self.segments.len()
    }

    /// The shared routing engine (for callers that batch queries with
    /// their own [`SpWorkspace`]).
    pub fn engine(&self) -> &ShortestPathEngine {
        &self.engine
    }

    /// Shortest road route between two metros: `(metro sequence, km)`.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<(Vec<usize>, f64)> {
        let mut ws = self.workspace.lock().unwrap_or_else(|e| e.into_inner());
        self.engine.shortest_path_with(&mut ws, from, to)
    }

    /// [`shortest_path`](Self::shortest_path) with a caller-owned
    /// workspace: queries grouped by `from` amortize to one search per
    /// source, without taking the shared lock.
    pub fn shortest_path_with(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        self.engine.shortest_path_with(ws, from, to)
    }

    /// The concatenated road geometry along a metro sequence, each hop the
    /// first-loaded segment joining its metros. Returns `None` if
    /// consecutive metros are not road-adjacent.
    pub fn path_geometry(&self, metro_path: &[usize]) -> Option<Vec<GeoPoint>> {
        let hops = metro_path
            .windows(2)
            .map(|w| {
                let s = &self.segments[self.engine.first_arc(w[0], w[1])?];
                Some((s, s.a == w[0]))
            })
            .collect::<Option<Vec<_>>>()?;
        // Pre-size: segment point counts (the shared junction points make
        // this a slight over-estimate).
        let total = hops.iter().map(|(s, _)| s.path.len()).sum();
        let mut out: Vec<GeoPoint> = Vec::with_capacity(total);
        for (s, forward) in hops {
            let skip = usize::from(!out.is_empty());
            if forward {
                out.extend(s.path.iter().skip(skip).copied());
            } else {
                out.extend(s.path.iter().rev().skip(skip).copied());
            }
        }
        Some(out)
    }

    /// Shortest road route with its full geometry.
    pub fn route_with_geometry(
        &self,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64, Vec<GeoPoint>)> {
        let (path, km) = self.shortest_path(from, to)?;
        let geom = self.path_geometry(&path)?;
        Some((path, km, geom))
    }

    /// Normalized pairs whose roadway payload (route or unreachability) is
    /// memoized. Nothing in the build reads it — `Physical` counts its memo
    /// hits from [`roadway`](Self::roadway)'s flag — it is kept for the
    /// benchmark's `roads.cached_routes` probe.
    pub fn cached_route_keys(&self) -> std::collections::BTreeSet<(usize, usize)> {
        self.corridors.settled_keys()
    }

    /// The roadway payload of the unordered pair `{from, to}`, routed with
    /// a caller-owned workspace and memoized: each pair is routed, and its
    /// WKT written, at most once per graph, no matter how many callers or
    /// epochs ask. A pair without a route whose geometry concatenates
    /// cleanly is `None`, and is memoized too. The flag is true when this
    /// call ran the engine.
    pub(crate) fn roadway(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> (Option<Roadway>, bool) {
        self.corridors.get_or_compute(from, to, |lo, hi| {
            let (path, km) = self.engine.shortest_path_with(ws, lo, hi)?;
            let geom = self.path_geometry(&path)?;
            let wkt = to_wkt(&Geometry::LineString(LineString::new(geom)));
            Some(Roadway {
                km,
                wkt: Value::text(wkt),
                path: path.iter().map(|&m| m as u32).collect(),
            })
        })
    }
}

/// Whether two segments are the same record, bit for bit (so `-0.0` and
/// `0.0` differ, as their WKT does).
fn same_segment(x: &RoadSegment, y: &RoadSegment) -> bool {
    let bits = |p: &GeoPoint| (p.lon.to_bits(), p.lat.to_bits());
    x.a == y.a
        && x.b == y.b
        && x.length_km.to_bits() == y.length_km.to_bits()
        && x.path.len() == y.path.len()
        && x.path.iter().zip(&y.path).all(|(p, q)| bits(p) == bits(q))
}

/// Segment indexes ordered by `(adjacency, load index)`.
fn by_adjacency(segments: &[RoadSegment]) -> Vec<(Adjacency, u32)> {
    let mut order: Vec<(Adjacency, u32)> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| (adjacency(s.a, s.b), i as u32))
        .collect();
    order.sort_unstable();
    order
}

/// The adjacencies whose segments differ between `old` and `new`, sorted,
/// or `None` when one was added or its shortest segment got shorter (a
/// change that can shorten routes). A sort-merge of the two lists by
/// adjacency: one sort each and one walk, with no per-adjacency allocation.
fn changed_adjacencies(old: &[RoadSegment], new: &[RoadSegment]) -> Option<Vec<Adjacency>> {
    let (old_order, new_order) = (by_adjacency(old), by_adjacency(new));
    // The entries of adjacency `key` at the front of `order`.
    fn run(order: &[(Adjacency, u32)], key: Adjacency) -> &[(Adjacency, u32)] {
        &order[..order.iter().take_while(|(k, _)| *k == key).count()]
    }
    fn shortest(segments: &[RoadSegment], run: &[(Adjacency, u32)]) -> f64 {
        run.iter()
            .map(|&(_, i)| segments[i as usize].length_km)
            .fold(f64::INFINITY, f64::min)
    }
    let mut changed = Vec::new();
    let (mut i, mut j) = (0, 0);
    loop {
        let key = match (old_order.get(i), new_order.get(j)) {
            (Some(&(x, _)), Some(&(y, _))) => x.min(y),
            (Some(&(x, _)), None) => x,
            (None, Some(&(y, _))) => y,
            (None, None) => return Some(changed),
        };
        let (old_run, new_run) = (run(&old_order[i..], key), run(&new_order[j..], key));
        i += old_run.len();
        j += new_run.len();
        let same = old_run.len() == new_run.len()
            && old_run
                .iter()
                .zip(new_run)
                .all(|(&(_, x), &(_, y))| same_segment(&old[x as usize], &new[y as usize]));
        if same {
            continue;
        }
        // An added adjacency's prior shortest segment is +∞.
        if shortest(new, new_run) < shortest(old, old_run) {
            return None;
        }
        changed.push(key);
    }
}

/// [`RoadGraph::for_next_epoch`]'s rule restated by grouping, for tests:
/// the adjacencies whose segments differ, or `None` when one was added or
/// got a shorter minimum.
#[cfg(test)]
pub(crate) fn changed_by_grouping(
    old: &[RoadSegment],
    new: &[RoadSegment],
) -> Option<std::collections::BTreeSet<(usize, usize)>> {
    use std::collections::BTreeMap;
    let group = |segs: &[RoadSegment]| {
        let mut by: BTreeMap<(usize, usize), Vec<RoadSegment>> = BTreeMap::new();
        for s in segs {
            by.entry((s.a.min(s.b), s.a.max(s.b)))
                .or_default()
                .push(s.clone());
        }
        by
    };
    let (old, new) = (group(old), group(new));
    let min = |v: &[RoadSegment]| v.iter().map(|s| s.length_km).fold(f64::INFINITY, f64::min);
    let mut changed = std::collections::BTreeSet::new();
    for (k, segs) in &new {
        let before = old.get(k)?;
        if min(segs) < min(before) {
            return None;
        }
    }
    for (k, segs) in &old {
        if new.get(k) != Some(segs) {
            changed.insert(*k);
        }
    }
    Some(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(a: usize, b: usize, km: f64) -> RoadSegment {
        RoadSegment {
            a,
            b,
            length_km: km,
            path: vec![GeoPoint::new(a as f64, 0.0), GeoPoint::new(b as f64, 0.0)],
        }
    }

    /// 0—1—2—3 chain plus a long 0—3 shortcut that is NOT shorter.
    fn graph() -> RoadGraph {
        RoadGraph::build(
            5,
            &Source::from(vec![
                seg(0, 1, 10.0),
                seg(1, 2, 10.0),
                seg(2, 3, 10.0),
                seg(0, 3, 50.0),
            ]),
        )
    }

    #[test]
    fn shortest_prefers_chain_over_long_edge() {
        let g = graph();
        let (path, km) = g.shortest_path(0, 3).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert!((km - 30.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_metro_unreachable() {
        let g = graph();
        assert!(g.shortest_path(0, 4).is_none());
        assert!(g.shortest_path(4, 4).is_some());
    }

    #[test]
    fn geometry_concatenation_dedupes_junctions() {
        let g = graph();
        let (path, _, geom) = g.route_with_geometry(0, 2).unwrap();
        assert_eq!(path, vec![0, 1, 2]);
        // Two 2-point segments sharing one junction → 3 points.
        assert_eq!(geom.len(), 3);
    }

    #[test]
    fn geometry_respects_edge_direction() {
        let g = graph();
        let geom = g.path_geometry(&[2, 1, 0]).unwrap();
        assert_eq!(geom[0], GeoPoint::new(2.0, 0.0));
        assert_eq!(geom[2], GeoPoint::new(0.0, 0.0));
    }

    #[test]
    fn geometry_of_nonadjacent_pair_is_none() {
        let g = graph();
        assert!(g.path_geometry(&[0, 2]).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown metro")]
    fn out_of_range_segment_panics() {
        RoadGraph::build(2, &Source::from(vec![seg(0, 5, 1.0)]));
    }

    #[test]
    fn caller_workspace_matches_shared_lock_path() {
        let g = graph();
        let mut ws = SpWorkspace::new();
        for from in 0..5 {
            for to in 0..5 {
                assert_eq!(
                    g.shortest_path_with(&mut ws, from, to),
                    g.shortest_path(from, to),
                    "({from}, {to})"
                );
            }
        }
    }

    #[test]
    fn cached_routes_match_uncached_in_both_directions() {
        let g = graph();
        let mut ws = SpWorkspace::new();
        let (_, direct_km, direct_geom) = g.route_with_geometry(0, 2).unwrap();
        let direct_wkt = to_wkt(&Geometry::LineString(LineString::new(direct_geom)));
        let (first, ran) = g.roadway(&mut ws, 0, 2);
        let first = first.unwrap();
        assert!(ran);
        assert_eq!(first.km, direct_km);
        assert_eq!(first.wkt.as_text(), Some(direct_wkt.as_str()));
        // Either orientation reads the one memo cell, geometry from the
        // smaller id, without running the engine.
        let (again, ran) = g.roadway(&mut ws, 2, 0);
        let again = again.unwrap();
        assert!(!ran);
        assert_eq!(again.km, direct_km);
        assert_eq!(again.wkt, first.wkt);
        assert_eq!(
            g.cached_route_keys().into_iter().collect::<Vec<_>>(),
            [(0, 2)]
        );
        // Unreachable pairs memoize as `None` too.
        assert!(matches!(g.roadway(&mut ws, 0, 4), (None, true)));
        assert!(matches!(g.roadway(&mut ws, 4, 0), (None, false)));
    }

    #[test]
    fn parallel_edges_use_first_loaded_geometry() {
        // Two edges between the same metros: a hop draws the first-loaded
        // one's geometry, whichever the route runs on.
        let mut s1 = seg(0, 1, 10.0);
        s1.path = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)];
        let s2 = seg(0, 1, 7.0);
        let g = RoadGraph::build(2, &Source::from(vec![s1, s2]));
        let geom = g.path_geometry(&[0, 1]).unwrap();
        assert_eq!(geom[1], GeoPoint::new(1.0, 1.0));
    }

    /// Every pair of `0..n`, normalized.
    fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)))
    }

    /// The memo of `g` settled for every pair.
    fn settle(g: &RoadGraph, n: usize) {
        let mut ws = SpWorkspace::new();
        for (a, b) in pairs(n) {
            g.roadway(&mut ws, a, b);
        }
    }

    /// What a `phys_conn` row reads of a payload, bit for bit.
    fn row_of(r: Option<Roadway>) -> Option<(u64, Option<String>, Vec<u32>)> {
        r.map(|r| {
            let wkt = r.wkt.as_text().map(str::to_string);
            (r.km.to_bits(), wkt, r.path.to_vec())
        })
    }

    /// Asks `next` for every pair of `0..n` and holds each answer to a
    /// cold graph over the same segments; returns the pairs `next`
    /// answered from its carried memo.
    fn carried_and_exact(
        next: &RoadGraph,
        segments: &Source<RoadSegment>,
        n: usize,
    ) -> Vec<(usize, usize)> {
        let cold = RoadGraph::build(n, segments);
        let (mut ws, mut cold_ws) = (SpWorkspace::new(), SpWorkspace::new());
        let mut carried = Vec::new();
        for (a, b) in pairs(n) {
            let (got, ran) = next.roadway(&mut ws, a, b);
            let (want, _) = cold.roadway(&mut cold_ws, a, b);
            assert_eq!(row_of(got), row_of(want), "({a}, {b})");
            if !ran {
                carried.push((a, b));
            }
        }
        carried
    }

    /// 0—1—2—3 chain, a 3—4 spur, a 0—3 bypass, and metro 5 alone.
    fn chain() -> Vec<RoadSegment> {
        vec![
            seg(0, 1, 10.0),
            seg(1, 2, 10.0),
            seg(2, 3, 10.0),
            seg(3, 4, 10.0),
            seg(0, 3, 45.0),
        ]
    }

    #[test]
    fn next_epoch_carries_the_pairs_a_removal_or_lengthening_missed() {
        let old = Source::from(chain());
        let prior = RoadGraph::build(6, &old);
        settle(&prior, 6);
        // Lengthen 2—3: the routes crossing it re-route (0—3 takes the
        // bypass), every other pair and every unreachable one carries.
        let mut new = old.clone();
        new[2].length_km = 40.0;
        let next = RoadGraph::for_next_epoch(&prior, 6, &new);
        let crossing = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)];
        let carried = carried_and_exact(&next, &new, 6);
        let want: Vec<_> = pairs(6).filter(|p| !crossing.contains(p)).collect();
        assert_eq!(carried, want);
        // Removing the bypass too: only pairs whose route used it move.
        let prior = next;
        let mut newer = new.clone();
        newer.remove(4);
        let next = RoadGraph::for_next_epoch(&prior, 6, &newer);
        let carried = carried_and_exact(&next, &newer, 6);
        let moved = [(0, 3), (0, 4)];
        let want: Vec<_> = pairs(6).filter(|p| !moved.contains(p)).collect();
        assert_eq!(carried, want);
    }

    #[test]
    fn next_epoch_starts_cold_when_a_route_could_shorten() {
        let old = Source::from(chain());
        let prior = RoadGraph::build(6, &old);
        settle(&prior, 6);
        let mut added = old.clone();
        added.push(seg(4, 5, 99.0));
        let mut shortened = old.clone();
        shortened[4].length_km = 44.0;
        let mut shorter_parallel = old.clone();
        shorter_parallel.push(seg(1, 2, 9.0));
        for (name, new) in [
            ("added adjacency", added),
            ("shortened segment", shortened),
            ("shorter parallel segment", shorter_parallel),
        ] {
            let next = RoadGraph::for_next_epoch(&prior, 6, &new);
            assert!(next.cached_route_keys().is_empty(), "{name}");
            assert!(carried_and_exact(&next, &new, 6).is_empty(), "{name}");
        }
        // A wider metro registry is a different graph.
        let next = RoadGraph::for_next_epoch(&prior, 7, &old);
        assert!(next.cached_route_keys().is_empty());
    }

    #[test]
    fn next_epoch_drops_pairs_whose_first_loaded_geometry_moved() {
        // Two parallel 1—2 segments, the first-loaded one longer: routes
        // run on the shorter arc but draw the first-loaded geometry.
        let mut detour = seg(1, 2, 12.0);
        detour.path.insert(1, GeoPoint::new(1.5, 1.0));
        let mut segs = chain();
        segs.insert(1, detour);
        let old = Source::from(segs);
        let prior = RoadGraph::build(6, &old);
        settle(&prior, 6);
        // Removing the longer one keeps every route's path and length, and
        // moves the geometry of every route crossing 1—2.
        let mut new = old.clone();
        new.remove(1);
        let next = RoadGraph::for_next_epoch(&prior, 6, &new);
        let carried = carried_and_exact(&next, &new, 6);
        assert!(carried.iter().all(|&(a, b)| !(a <= 1 && b >= 2 && b != 5)));
        assert!(carried.contains(&(0, 1)) && carried.contains(&(2, 4)));
        // A reshaped segment at equal length moves geometry alone, too.
        let mut reshaped = new.clone();
        reshaped[0].path.insert(1, GeoPoint::new(0.5, -1.0));
        let prior = next;
        let next = RoadGraph::for_next_epoch(&prior, 6, &reshaped);
        let carried = carried_and_exact(&next, &reshaped, 6);
        assert!(carried.iter().all(|&(a, b)| a != 0 || b == 5));
        assert!(carried.contains(&(1, 4)));
    }

    /// One edit of a segment list.
    #[derive(Clone, Debug)]
    enum Edit {
        Remove(usize),
        Lengthen(usize, f64),
        Reshape(usize, f64),
        Add(usize, usize, f64),
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// On random graphs with continuous weights (so no two paths tie
        /// on `(weight, hops)`), the successor graph answers every pair as
        /// a cold graph does, and carries exactly the pairs the rule
        /// names: all of them unless a route could shorten, else the
        /// unreachable ones and the ones crossing no changed adjacency.
        #[test]
        fn next_epoch_roadways_equal_a_cold_graph(
            n in 2usize..10,
            raw in proptest::collection::vec((0usize..64, 0usize..64, 1.0f64..100.0), 1..24),
            asked in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
            edits in proptest::collection::vec(
                prop_oneof![
                    (0usize..64).prop_map(Edit::Remove),
                    (0usize..64, 1.0f64..2.0).prop_map(|(i, f)| Edit::Lengthen(i, f)),
                    (0usize..64, -1.0f64..1.0).prop_map(|(i, d)| Edit::Reshape(i, d)),
                    (0usize..64, 0usize..64, 1.0f64..100.0).prop_map(|(a, b, km)| Edit::Add(a, b, km)),
                ],
                0..5,
            ),
        ) {
            let segs: Vec<RoadSegment> = raw
                .iter()
                .map(|&(a, b, km)| (a % n, b % n, km))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, km)| seg(a, b, km))
                .collect();
            let old = Source::from(segs);
            let prior = RoadGraph::build(n, &old);
            let mut ws = SpWorkspace::new();
            for &(a, b) in &asked {
                prior.roadway(&mut ws, a % n, b % n);
            }
            let mut new = old.clone();
            for edit in edits {
                let len = new.len();
                match edit {
                    Edit::Remove(i) if len > 0 => {
                        new.remove(i % len);
                    }
                    Edit::Lengthen(i, f) if len > 0 => new[i % len].length_km *= f,
                    Edit::Reshape(i, d) if len > 0 => {
                        let s = &mut new[i % len];
                        let mid = GeoPoint::new((s.a + s.b) as f64 / 2.0, d);
                        s.path.insert(1, mid);
                    }
                    Edit::Add(a, b, km) if a % n != b % n => new.push(seg(a % n, b % n, km)),
                    _ => {}
                }
            }
            let rule = changed_by_grouping(&old, &new);
            let next = RoadGraph::for_next_epoch(&prior, n, &new);
            let carried = carried_and_exact(&next, &new, n);
            let mut ws = SpWorkspace::new();
            let want: Vec<(usize, usize)> = pairs(n)
                .filter(|&(a, b)| prior.cached_route_keys().contains(&(a, b)))
                .filter(|&(a, b)| {
                    let Some(changed) = &rule else { return false };
                    let (r, _) = prior.roadway(&mut ws, a, b);
                    r.is_none_or(|r| {
                        r.path
                            .windows(2)
                            .all(|w| !changed.contains(&(w[0].min(w[1]) as usize, w[0].max(w[1]) as usize)))
                    })
                })
                .collect();
            prop_assert_eq!(carried, want);
        }
    }
}
