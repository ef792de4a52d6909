//! The transportation right-of-way graph iGDB routes fiber paths along.
//!
//! Paper §3.1: "We use information on existing road networks to generate an
//! approximation of the physical path the fiber optic cable connecting the
//! two nodes follows. This is accomplished by determining the shortest
//! route connecting city pairs along the right-of-way network." The road
//! dataset arrives as [`RoadSegment`] records (a public GIS layer);
//! endpoints are metro ids.
//!
//! Routing delegates to the shared [`ShortestPathEngine`]; geometry lookup
//! uses a `(u, v) → edge` map instead of scanning adjacency lists, and
//! segment polylines are stored behind `Arc` so loading never copies them.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use igdb_geo::GeoPoint;
use igdb_synth::sources::RoadSegment;

use crate::corridor::CorridorCache;
use crate::spath::{ShortestPathEngine, SpWorkspace};

/// One loaded road edge.
#[derive(Clone, Debug)]
pub struct RoadEdge {
    pub a: usize,
    pub b: usize,
    pub length_km: f64,
    pub path: Arc<[GeoPoint]>,
}

/// The right-of-way graph over the standard metros.
pub struct RoadGraph {
    edges: Vec<RoadEdge>,
    engine: ShortestPathEngine,
    /// `(u, v) → edge index`, both orientations; on parallel edges the
    /// first-loaded edge wins (matching the old adjacency-scan behavior).
    edge_of: HashMap<(usize, usize), usize>,
    /// Workspace backing the plain [`shortest_path`](Self::shortest_path)
    /// convenience API; parallel callers bring their own workspace via the
    /// `_with` variants.
    workspace: Mutex<SpWorkspace>,
    /// Memoized corridors by normalized metro pair: delta applies and
    /// repeated atlas links re-route the same pairs. Only the metro path
    /// and length are kept; geometry is re-concatenated on demand (see
    /// [`route_cached`](Self::route_cached)).
    corridors: CorridorCache,
}

impl RoadGraph {
    /// Loads the road dataset. `n_metros` sizes the adjacency table;
    /// segments referencing out-of-range metros are rejected.
    pub fn build(n_metros: usize, segments: &[RoadSegment]) -> Self {
        let mut edges = Vec::with_capacity(segments.len());
        let mut edge_of = HashMap::with_capacity(segments.len() * 2);
        for s in segments {
            assert!(
                s.a < n_metros && s.b < n_metros,
                "road segment references unknown metro ({}, {})",
                s.a,
                s.b
            );
            let idx = edges.len();
            edges.push(RoadEdge {
                a: s.a,
                b: s.b,
                length_km: s.length_km,
                path: s.path.clone().into(),
            });
            edge_of.entry((s.a, s.b)).or_insert(idx);
            edge_of.entry((s.b, s.a)).or_insert(idx);
        }
        let engine = ShortestPathEngine::from_undirected(
            n_metros,
            edges.iter().map(|e| (e.a, e.b, e.length_km)),
        );
        Self {
            edges,
            engine,
            edge_of,
            workspace: Mutex::new(SpWorkspace::new()),
            corridors: CorridorCache::new("roads"),
        }
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
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

    /// The concatenated road geometry along a metro sequence. Returns
    /// `None` if consecutive metros are not road-adjacent.
    pub fn path_geometry(&self, metro_path: &[usize]) -> Option<Vec<GeoPoint>> {
        // Pre-size: segment point counts minus the shared junction points.
        let mut total = 0usize;
        for w in metro_path.windows(2) {
            let &e = self.edge_of.get(&(w[0], w[1]))?;
            total += self.edges[e].path.len();
        }
        let mut out: Vec<GeoPoint> = Vec::with_capacity(total);
        for w in metro_path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let &e = self.edge_of.get(&(u, v))?;
            let edge = &self.edges[e];
            let skip = usize::from(!out.is_empty());
            if edge.a == u {
                out.extend(edge.path.iter().skip(skip).copied());
            } else {
                out.extend(edge.path.iter().rev().skip(skip).copied());
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

    /// Normalized pairs whose route (hit or miss) is already memoized.
    /// Delta applies reusing a warm graph count these to replay the
    /// `spath.queries` ticks a cold rebuild would have emitted.
    pub fn cached_route_keys(&self) -> std::collections::BTreeSet<(usize, usize)> {
        self.corridors.settled_keys()
    }

    /// [`route_with_geometry`](Self::route_with_geometry) with a
    /// caller-owned workspace, memoized by normalized metro pair: each
    /// unordered pair is routed at most once per graph, no matter how many
    /// callers ask.
    pub fn route_cached(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64, Vec<GeoPoint>)> {
        let (path, km) = self.corridors.shortest_path(from, to, |lo, hi| {
            // Only routes whose geometry concatenates cleanly are cached,
            // mirroring `route_with_geometry`'s contract.
            self.engine
                .shortest_path_with(ws, lo, hi)
                .filter(|(path, _)| self.path_geometry(path).is_some())
        })?;
        // Geometry is re-concatenated per call instead of memoized: the
        // cached polylines dominated the road graph's resident footprint,
        // and the concat is a linear walk over already-resident edges.
        let geometry = self.path_geometry(&path).expect("validated at insert");
        Some((path, km, geometry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(a: usize, b: usize, km: f64) -> RoadSegment {
        RoadSegment {
            a,
            b,
            length_km: km,
            path: vec![
                GeoPoint::new(a as f64, 0.0),
                GeoPoint::new(b as f64, 0.0),
            ],
        }
    }

    /// 0—1—2—3 chain plus a long 0—3 shortcut that is NOT shorter.
    fn graph() -> RoadGraph {
        RoadGraph::build(
            5,
            &[seg(0, 1, 10.0), seg(1, 2, 10.0), seg(2, 3, 10.0), seg(0, 3, 50.0)],
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
        RoadGraph::build(2, &[seg(0, 5, 1.0)]);
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
        let direct = g.route_with_geometry(0, 2).unwrap();
        assert_eq!(g.route_cached(&mut ws, 0, 2).unwrap(), direct);
        // Reverse orientation comes from the same cache entry, reversed.
        let (p, km, geom) = g.route_cached(&mut ws, 2, 0).unwrap();
        assert_eq!(p, vec![2, 1, 0]);
        assert_eq!(km, direct.1);
        assert_eq!(geom.first(), direct.2.last());
        assert_eq!(geom.last(), direct.2.first());
        // Unreachable pairs cache as misses too.
        assert!(g.route_cached(&mut ws, 0, 4).is_none());
        assert!(g.route_cached(&mut ws, 4, 0).is_none());
    }

    #[test]
    fn parallel_edges_use_first_loaded_geometry() {
        // Two edges between the same metros; the old adjacency scan found
        // the first-loaded one, and the edge map must too.
        let mut s1 = seg(0, 1, 10.0);
        s1.path = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)];
        let s2 = seg(0, 1, 7.0);
        let g = RoadGraph::build(2, &[s1, s2]);
        let geom = g.path_geometry(&[0, 1]).unwrap();
        assert_eq!(geom[1], GeoPoint::new(1.0, 1.0));
    }
}
