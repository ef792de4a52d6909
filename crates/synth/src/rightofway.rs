//! The synthetic right-of-way (road/rail) network.
//!
//! Paper §3.1: long-haul fiber "follows rights-of-way along existing
//! networks such as roadways, rail, and power lines", so iGDB approximates
//! unknown cable paths as shortest paths along a transportation graph. Our
//! synthetic transportation graph is the Delaunay triangulation of the
//! urban areas with over-long edges removed (roads connect neighbouring
//! cities, not across oceans), each edge carrying a gently jittered
//! polyline so paths look like roads rather than geodesics.

use igdb_geo::{
    delaunay::triangulate, destination, haversine_km, initial_bearing_deg, intermediate_point,
    polyline_length_km, GeoPoint,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::cities::City;

/// Roads meander: ratio of road length to great-circle distance.
pub const ROAD_CURVATURE: f64 = 1.15;

/// Maximum single road segment between adjacent cities, km. Longer Delaunay
/// edges (across oceans or empty interiors) are discarded.
pub const MAX_SEGMENT_KM: f64 = 1500.0;

/// One road/rail segment between two cities.
#[derive(Clone, Debug)]
pub struct RowEdge {
    pub a: usize,
    pub b: usize,
    /// Road length in km (great-circle × curvature).
    pub length_km: f64,
    /// The polyline geometry the road follows (a → b).
    pub path: Vec<GeoPoint>,
}

/// The right-of-way graph over the city set.
pub struct RowNetwork {
    pub edges: Vec<RowEdge>,
    /// city -> [(neighbor city, edge index)]
    adj: Vec<Vec<(usize, usize)>>,
}

impl RowNetwork {
    /// Builds the network from the city catalogue.
    pub fn build(cities: &[City], rng: &mut StdRng) -> Self {
        let sites: Vec<GeoPoint> = cities.iter().map(|c| c.loc).collect();
        let tri = triangulate(&sites);
        let mut edges = Vec::new();
        let mut adj = vec![Vec::new(); cities.len()];
        let mut seen = std::collections::HashSet::new();
        for (a, nbs) in tri.neighbors.iter().enumerate() {
            for &b in nbs {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if !seen.insert((lo, hi)) {
                    continue;
                }
                let gc = haversine_km(&sites[lo], &sites[hi]);
                if gc > MAX_SEGMENT_KM || gc < 1e-9 {
                    continue;
                }
                let path = jittered_path(&sites[lo], &sites[hi], rng);
                let length_km = polyline_length_km(&path);
                let idx = edges.len();
                edges.push(RowEdge {
                    a: lo,
                    b: hi,
                    length_km,
                    path,
                });
                adj[lo].push((hi, idx));
                adj[hi].push((lo, idx));
            }
        }
        Self { edges, adj }
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn neighbors(&self, city: usize) -> &[(usize, usize)] {
        &self.adj[city]
    }

    /// Dijkstra shortest path between two cities along the road network.
    /// Returns `(city sequence, total km)`, or `None` if disconnected
    /// (e.g. across an ocean).
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<(Vec<usize>, f64)> {
        if from == to {
            return Some((vec![from], 0.0));
        }
        let n = self.adj.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[from] = 0.0;
        heap.push((std::cmp::Reverse(ordered(0.0)), from));
        while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
            let d = unordered(d);
            if d > dist[u] {
                continue;
            }
            if u == to {
                break;
            }
            for &(v, e) in &self.adj[u] {
                let nd = d + self.edges[e].length_km;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push((std::cmp::Reverse(ordered(nd)), v));
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some((path, dist[to]))
    }

    /// Concatenated road geometry for a city sequence (vertices deduped at
    /// junctions). Panics if consecutive cities are not adjacent.
    pub fn path_geometry(&self, city_path: &[usize]) -> Vec<GeoPoint> {
        let mut out: Vec<GeoPoint> = Vec::new();
        for w in city_path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let &(_, e) = self.adj[u]
                .iter()
                .find(|(nb, _)| *nb == v)
                .unwrap_or_else(|| panic!("cities {u} and {v} not road-adjacent"));
            let edge = &self.edges[e];
            let mut seg = edge.path.clone();
            if edge.a != u {
                seg.reverse();
            }
            if !out.is_empty() {
                seg.remove(0); // junction vertex already present
            }
            out.extend(seg);
        }
        out
    }
}

/// Sortable f64 bits (values are non-negative distances).
fn ordered(v: f64) -> u64 {
    v.to_bits()
}
fn unordered(v: u64) -> f64 {
    f64::from_bits(v)
}

/// A road-like polyline: the great circle sampled at ~100 km intervals
/// with small perpendicular jitter, scaled so total length ≈ great circle
/// × [`ROAD_CURVATURE`].
fn jittered_path(a: &GeoPoint, b: &GeoPoint, rng: &mut StdRng) -> Vec<GeoPoint> {
    let gc = haversine_km(a, b);
    let n_seg = ((gc / 100.0).ceil() as usize).clamp(1, 12);
    let mut pts = Vec::with_capacity(n_seg + 1);
    pts.push(*a);
    for i in 1..n_seg {
        let f = i as f64 / n_seg as f64;
        let on_line = intermediate_point(a, b, f);
        // Perpendicular offset: up to ~6% of the leg length each way.
        let bearing = initial_bearing_deg(a, b);
        let side = if rng.gen_bool(0.5) { 90.0 } else { 270.0 };
        let off_km = rng.gen_range(0.0..(gc * 0.06).max(1.0)).min(60.0);
        pts.push(destination(&on_line, (bearing + side) % 360.0, off_km));
    }
    pts.push(*b);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::build_cities;
    use rand::SeedableRng;

    fn small_world() -> (Vec<City>, RowNetwork) {
        let mut rng = StdRng::seed_from_u64(11);
        let cities = build_cities(crate::cities::REAL_CITIES.len(), &mut rng);
        let net = RowNetwork::build(&cities, &mut rng);
        (cities, net)
    }

    #[test]
    fn network_has_edges_and_respects_max_length() {
        let (_, net) = small_world();
        assert!(net.edge_count() > 300, "got {}", net.edge_count());
        for e in &net.edges {
            assert!(e.length_km <= MAX_SEGMENT_KM * ROAD_CURVATURE * 1.3);
            assert!(e.length_km > 0.0);
            assert!(e.path.len() >= 2);
        }
    }

    #[test]
    fn edge_lengths_exceed_great_circle() {
        let (cities, net) = small_world();
        for e in net.edges.iter().take(200) {
            let gc = haversine_km(&cities[e.a].loc, &cities[e.b].loc);
            assert!(
                e.length_km >= gc * 0.999,
                "road shorter than geodesic: {} vs {gc}",
                e.length_km
            );
        }
    }

    #[test]
    fn us_interior_is_connected() {
        let (cities, net) = small_world();
        let find = |name: &str| cities.iter().find(|c| c.name == name).unwrap().id;
        let (path, km) = net
            .shortest_path(find("Kansas City"), find("Atlanta"))
            .expect("KC and Atlanta must be road-connected");
        assert!(path.len() >= 2);
        // Great circle KC–Atlanta ≈ 1,100 km; road path should be between
        // 1.0× and 2.0× that.
        assert!(km > 1000.0 && km < 2300.0, "got {km}");
    }

    #[test]
    fn europe_interior_is_connected() {
        let (cities, net) = small_world();
        let find = |name: &str| cities.iter().find(|c| c.name == name).unwrap().id;
        let (path, km) = net
            .shortest_path(find("Madrid"), find("Berlin"))
            .expect("Madrid and Berlin must be road-connected");
        assert!(km > 1800.0 && km < 3500.0, "got {km}");
        assert!(path.len() >= 3);
    }

    #[test]
    fn oceans_disconnect_continents() {
        let (cities, net) = small_world();
        let find = |name: &str| cities.iter().find(|c| c.name == name).unwrap().id;
        assert!(
            net.shortest_path(find("New York"), find("London"))
                .is_none(),
            "no road across the Atlantic"
        );
        assert!(net.shortest_path(find("Sydney"), find("Tokyo")).is_none());
    }

    #[test]
    fn shortest_path_is_optimal_vs_bellman_ford() {
        let (cities, net) = small_world();
        let find = |name: &str| cities.iter().find(|c| c.name == name).unwrap().id;
        let (src, dst) = (find("Seattle"), find("Miami"));
        let (_, dij) = net.shortest_path(src, dst).unwrap();
        // Bellman–Ford reference.
        let n = cities.len();
        let mut dist = vec![f64::INFINITY; n];
        dist[src] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for e in &net.edges {
                if dist[e.a] + e.length_km < dist[e.b] {
                    dist[e.b] = dist[e.a] + e.length_km;
                    changed = true;
                }
                if dist[e.b] + e.length_km < dist[e.a] {
                    dist[e.a] = dist[e.b] + e.length_km;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        assert!(
            (dij - dist[dst]).abs() < 1e-6,
            "dijkstra {dij} vs bf {}",
            dist[dst]
        );
    }

    #[test]
    fn path_geometry_concatenates() {
        let (cities, net) = small_world();
        let find = |name: &str| cities.iter().find(|c| c.name == name).unwrap().id;
        let (path, km) = net.shortest_path(find("Dallas"), find("Houston")).unwrap();
        let geom = net.path_geometry(&path);
        assert!(geom.len() >= 2);
        let geom_km = polyline_length_km(&geom);
        assert!(
            (geom_km - km).abs() < 1.0,
            "geometry {geom_km} vs dist {km}"
        );
        // Endpoints are the city locations.
        assert!(haversine_km(&geom[0], &cities[find("Dallas")].loc) < 1.0);
        assert!(haversine_km(geom.last().unwrap(), &cities[find("Houston")].loc) < 1.0);
    }

    #[test]
    fn trivial_same_city_path() {
        let (_, net) = small_world();
        let (p, km) = net.shortest_path(3, 3).unwrap();
        assert_eq!(p, vec![3]);
        assert_eq!(km, 0.0);
    }
}
