//! Property-based tests for the geometry substrate.

use proptest::prelude::*;

use igdb_geo::rtree::point_tree;
use igdb_geo::{
    haversine_km, parse_wkt, point_polyline_distance_km, to_wkt, voronoi_cells, BoundingBox,
    GeoPoint, Geometry, LineString, Polygon,
};

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-180.0f64..180.0, -85.0f64..85.0).prop_map(|(lon, lat)| GeoPoint::new(lon, lat))
}

fn arb_linestring() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..12).prop_map(LineString::new)
}

fn arb_polygon() -> impl Strategy<Value = Polygon> {
    // A star-shaped polygon around a centre: always simple and non-empty.
    (arb_point(), 3usize..10, 0.5f64..5.0).prop_map(|(c, n, r)| {
        let ring: Vec<GeoPoint> = (0..n)
            .map(|i| {
                let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                GeoPoint::raw(c.lon + r * ang.cos(), c.lat + r * ang.sin())
            })
            .collect();
        Polygon::new(ring, vec![])
    })
}

proptest! {
    #[test]
    fn haversine_symmetric_nonnegative(a in arb_point(), b in arb_point()) {
        let d1 = haversine_km(&a, &b);
        let d2 = haversine_km(&b, &a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
        // Bounded by half the circumference.
        prop_assert!(d1 <= std::f64::consts::PI * igdb_geo::EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        let ab = haversine_km(&a, &b);
        let bc = haversine_km(&b, &c);
        let ac = haversine_km(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn wkt_roundtrip_point(p in arb_point()) {
        let g = Geometry::Point(p);
        let back = parse_wkt(&to_wkt(&g)).unwrap();
        match back {
            Geometry::Point(q) => {
                // Six decimals of precision ≈ 1e-6 degrees.
                prop_assert!((p.lon - q.lon).abs() < 1e-5);
                prop_assert!((p.lat - q.lat).abs() < 1e-5);
            }
            other => prop_assert!(false, "wrong type {other:?}"),
        }
    }

    #[test]
    fn wkt_roundtrip_linestring(ls in arb_linestring()) {
        let g = Geometry::LineString(ls.clone());
        let back = parse_wkt(&to_wkt(&g)).unwrap();
        match back {
            Geometry::LineString(l2) => {
                prop_assert_eq!(l2.0.len(), ls.0.len());
                for (a, b) in ls.0.iter().zip(&l2.0) {
                    prop_assert!((a.lon - b.lon).abs() < 1e-5);
                    prop_assert!((a.lat - b.lat).abs() < 1e-5);
                }
            }
            other => prop_assert!(false, "wrong type {other:?}"),
        }
    }

    #[test]
    fn wkt_roundtrip_polygon(poly in arb_polygon()) {
        let g = Geometry::Polygon(poly.clone());
        let back = parse_wkt(&to_wkt(&g)).unwrap();
        match back {
            Geometry::Polygon(p2) => {
                prop_assert_eq!(p2.exterior.len(), poly.exterior.len());
            }
            other => prop_assert!(false, "wrong type {other:?}"),
        }
    }

    #[test]
    fn polygon_centroid_inside_convex_star(poly in arb_polygon()) {
        // Star polygons around a centre are convex-ish enough that the
        // centroid lies inside.
        let c = poly.centroid();
        prop_assert!(poly.contains(&c), "centroid {c:?} outside polygon");
    }

    #[test]
    fn bbox_contains_all_inputs(pts in proptest::collection::vec(arb_point(), 1..30)) {
        let b = BoundingBox::from_points(pts.iter());
        for p in &pts {
            prop_assert!(b.contains(p));
        }
    }

    #[test]
    fn point_polyline_distance_bounded_by_vertex_distance(
        p in arb_point(),
        ls in arb_linestring(),
    ) {
        let d = point_polyline_distance_km(&p, &ls.0);
        let min_vertex = ls
            .0
            .iter()
            .map(|v| haversine_km(&p, v))
            .fold(f64::INFINITY, f64::min);
        // The segment distance can be smaller than any vertex distance but
        // never (much) larger.
        prop_assert!(d <= min_vertex + 1.0, "{d} > min vertex {min_vertex}");
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn voronoi_cells_respect_nearest_site(
        sites in proptest::collection::vec(
            (-50.0f64..50.0, -40.0f64..40.0).prop_map(|(x, y)| GeoPoint::raw(x, y)),
            3..25,
        ),
        probe in (-45.0f64..45.0, -35.0f64..35.0).prop_map(|(x, y)| GeoPoint::raw(x, y)),
    ) {
        let clip = BoundingBox { min_lon: -60.0, min_lat: -50.0, max_lon: 60.0, max_lat: 50.0 };
        let cells = voronoi_cells(&sites, &clip);
        // Nearest site by planar distance.
        let mut dists: Vec<(usize, f64)> = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.planar_dist2(&probe)))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        // Skip ties (probe near a bisector) — containment may go either way.
        prop_assume!(dists.len() < 2 || dists[1].1 - dists[0].1 > 1e-6);
        let nearest = dists[0].0;
        for cell in &cells {
            if cell.site == nearest {
                prop_assert!(cell.polygon.contains(&probe), "probe missing from nearest cell");
            } else {
                prop_assert!(!cell.polygon.contains(&probe), "probe inside wrong cell {}", cell.site);
            }
        }
    }

    #[test]
    fn rtree_bbox_query_matches_linear_scan(
        pts in proptest::collection::vec(arb_point(), 1..200),
        q in (arb_point(), arb_point()),
    ) {
        let query = BoundingBox {
            min_lon: q.0.lon.min(q.1.lon),
            min_lat: q.0.lat.min(q.1.lat),
            max_lon: q.0.lon.max(q.1.lon),
            max_lat: q.0.lat.max(q.1.lat),
        };
        let entries: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = point_tree(entries);
        let mut got: Vec<usize> = tree.query_bbox(&query).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| query.contains(p))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_nearest_matches_linear_scan(
        pts in proptest::collection::vec(arb_point(), 1..200),
        probe in arb_point(),
    ) {
        let entries: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = point_tree(entries);
        let (_, got_d2) = tree.nearest_by_center(&probe).unwrap();
        let want_d2 = pts
            .iter()
            .map(|p| p.planar_dist2(&probe))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((got_d2 - want_d2).abs() < 1e-9, "{got_d2} vs {want_d2}");
    }
}

// ---------------------------------------------------------------------------
// Prefiltered spatial joins vs exhaustive references
//
// `Polygon::contains` gates on a cached bounding box and `NearestSiteIndex`
// prunes candidates by an exact latitude-band lower bound. Neither may
// change a single answer: the references below redo the raw even-odd ray
// cast / plain scalar haversine with no index, no bbox and no prune.
// ---------------------------------------------------------------------------

use igdb_geo::NearestSiteIndex;

/// Raw even–odd ray cast (ray toward +lon), no bounding-box gate — the
/// textbook form `Polygon::contains` must agree with everywhere.
fn raw_ring_contains(ring: &[GeoPoint], p: &GeoPoint) -> bool {
    let mut inside = false;
    for w in ring.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if (a.lat > p.lat) != (b.lat > p.lat) {
            let t = (p.lat - a.lat) / (b.lat - a.lat);
            if a.lon + t * (b.lon - a.lon) > p.lon {
                inside = !inside;
            }
        }
    }
    inside
}

fn raw_contains(poly: &Polygon, p: &GeoPoint) -> bool {
    raw_ring_contains(&poly.exterior, p) && !poly.holes.iter().any(|h| raw_ring_contains(h, p))
}

fn arb_sites(max: usize) -> impl Strategy<Value = Vec<GeoPoint>> {
    proptest::collection::vec(arb_point(), 1..max)
}

proptest! {
    #[test]
    fn bboxed_polygon_contains_matches_raw_ray_cast(
        poly in arb_polygon(),
        probes in proptest::collection::vec(arb_point(), 1..50),
    ) {
        // Probe both far points and points near/inside the polygon (the
        // global probes rarely land inside a small star).
        let c = poly.centroid();
        let near: Vec<GeoPoint> = probes
            .iter()
            .map(|p| GeoPoint::raw(c.lon + (p.lon % 7.0), c.lat + (p.lat % 7.0)))
            .collect();
        for p in probes.iter().chain(&near) {
            prop_assert_eq!(poly.contains(p), raw_contains(&poly, p), "{:?}", p);
        }
    }

    #[test]
    fn prefiltered_within_km_matches_exhaustive_scan(
        sites in arb_sites(120),
        probe in arb_point(),
        radius in 1.0f64..3000.0,
    ) {
        let idx = NearestSiteIndex::new(sites.clone());
        let got = idx.within_km(&probe, radius);
        let mut want: Vec<(usize, f64)> = sites
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let d = haversine_km(&probe, s);
                (d <= radius).then_some((i, d))
            })
            .collect();
        want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn prefiltered_nearest_matches_exhaustive_scan(
        sites in arb_sites(120),
        probe in arb_point(),
    ) {
        let idx = NearestSiteIndex::new(sites.clone());
        let (_, got_d) = idx.nearest(&probe).unwrap();
        let want_d = sites
            .iter()
            .map(|s| haversine_km(&probe, s))
            .fold(f64::INFINITY, f64::min);
        // The index may return a different equidistant site, but never a
        // farther one (the lat-band prune cannot drop the winner).
        prop_assert!((got_d - want_d).abs() < 1e-9, "{got_d} vs {want_d}");
    }
}

// ---------------------------------------------------------------------------
// The corridor-join window vs the distance it prunes for
// ---------------------------------------------------------------------------

use igdb_geo::geodesy::point_segment_distance_km;
use igdb_geo::spatial::{exact_window, segment_bbox, segment_window};

/// A segment near `p`: one end a few degrees away, the other up to 25° of
/// latitude further, so high-latitude draws include the long meridional
/// segments whose mid-latitude cosine is far from `p`'s.
fn arb_nearby_segment() -> impl Strategy<Value = (GeoPoint, GeoPoint, GeoPoint)> {
    (
        (-180.0f64..180.0, -85.0f64..85.0),
        (-8.0f64..8.0, -3.0f64..3.0),
        (-10.0f64..10.0, -25.0f64..25.0),
    )
        .prop_map(|(p, da, db)| {
            let a = GeoPoint::new(p.0 + da.0, (p.1 + da.1).clamp(-89.0, 89.0));
            let b = GeoPoint::new(a.lon + db.0, (a.lat + db.1).clamp(-89.0, 89.0));
            (GeoPoint::new(p.0, p.1), a, b)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The soundness of the Figure 4 join's prune: a segment the distance
    /// function accepts is never outside the window. This is the test that
    /// fails if `segment_window` is "simplified" to [`exact_window`] alone
    /// — `point_segment_distance_km` is not a metric, and its interior
    /// estimate accepts segments no great-circle window reaches (see
    /// `exact_window_alone_misses_an_accepted_segment`).
    #[test]
    fn segment_window_meets_every_accepted_segment(
        segment in arb_nearby_segment(),
        radius in 1.0f64..200.0,
    ) {
        let (p, a, b) = segment;
        if point_segment_distance_km(&p, &a, &b) <= radius {
            let max_abs_lat = a.lat.abs().max(b.lat.abs());
            if let Some(window) = segment_window(&p, radius, max_abs_lat) {
                prop_assert!(
                    window.intersects(&segment_bbox(&a, &b)),
                    "p {:?} segment {:?}–{:?} r {} window {:?}", p, a, b, radius, window
                );
            }
        }
    }
}

/// Why the window is a union: at 70°N a near-meridional segment reaching
/// 89°N scales longitudes by the cosine of ≈ 79.5°, so a point 5° of
/// longitude off its southern stretch reads ≈ 100 km away where the great
/// circle says ≈ 185 km.
#[test]
fn exact_window_alone_misses_an_accepted_segment() {
    let (a, b) = (GeoPoint::new(0.0, 70.0), GeoPoint::new(0.2, 89.0));
    let p = GeoPoint::new(5.0, 70.5);
    let radius = 110.0;
    assert!(point_segment_distance_km(&p, &a, &b) <= radius);
    let bbox = segment_bbox(&a, &b);
    assert!(!exact_window(&p, radius).unwrap().intersects(&bbox));
    assert!(segment_window(&p, radius, 89.0).unwrap().intersects(&bbox));
}

// ---------------------------------------------------------------------------
// The Figure 7 corridor predicate vs the distance it stands for
// ---------------------------------------------------------------------------

use igdb_geo::geodesy::destination;
use igdb_geo::spatial::polyline_within_km;

/// Coordinates a hand-drawn corridor is made of: signed zeros, the poles
/// and their neighbours, and both sides of the antimeridian.
const EDGE_LONS: [f64; 6] = [-180.0, -0.0, 0.0, 0.5, 179.5, 180.0];
const EDGE_LATS: [f64; 7] = [-90.0, -89.9, -0.0, 0.0, 1.0, 89.9, 90.0];

/// Polylines of 0–7 vertices. Bands 0–2 are the intertubes proptest's
/// (mid-latitude, up to ±85°, within 2° of the antimeridian), with steps of
/// up to 1.5° or 18°; band 3 snaps that walk to whole degrees; band 4
/// draws every vertex from the edge coordinates. About every other
/// polyline repeats one vertex.
fn arb_corridor() -> impl Strategy<Value = Vec<GeoPoint>> {
    (
        0usize..5,
        (-1.0f64..1.0, -1.0f64..1.0),
        proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 0..7),
        prop_oneof![Just(1.0), Just(12.0)],
        0usize..12,
    )
        .prop_map(|(band, (x, y), steps, scale, dup)| {
            let (mut lon, mut lat) = match band {
                0 | 3 => (-95.0 + 10.0 * x, 38.0 + 8.0 * y),
                1 => (20.0 + 10.0 * x, 85.0 * y.signum() - 6.0 * y),
                _ => (180.0 * x.signum() - 2.0 * x, 50.0 * y),
            };
            let mut line: Vec<GeoPoint> = steps
                .iter()
                .map(|&(dx, dy)| match band {
                    4 => {
                        let pick = |v: f64, n: usize| ((v + 1.5) / 3.0 * n as f64) as usize % n;
                        GeoPoint::raw(
                            EDGE_LONS[pick(dx, EDGE_LONS.len())],
                            EDGE_LATS[pick(dy, EDGE_LATS.len())],
                        )
                    }
                    _ => {
                        lon += dx * scale;
                        lat = (lat + dy * scale).clamp(-85.0, 85.0);
                        match band {
                            3 => GeoPoint::new(lon.round(), lat.round()),
                            _ => GeoPoint::new(lon, lat),
                        }
                    }
                })
                .collect();
            if dup < line.len() {
                line.insert(dup, line[dup]);
            }
            line
        })
}

/// A corridor, a radius (0, 60 km, or up to 5,000 km) and a point within
/// 1.5 radii (at least 1.5 km) of one of its vertices — or exactly on it,
/// or due north or south of it, where only the latitude band can decide.
/// About half the cases are hits. One case in eight takes the point's
/// exact distance as its radius, so the answer sits on the boundary the
/// predicate's slacks protect.
fn arb_corridor_case() -> impl Strategy<Value = (Vec<GeoPoint>, GeoPoint, f64)> {
    (
        arb_corridor(),
        prop_oneof![Just(0.0), Just(60.0), 0.0f64..5_000.0],
        (0usize..6, 0usize..8, 0.0f64..360.0, 0.0f64..1.5),
        0usize..8,
    )
        .prop_map(|(line, radius, (vi, bearing_kind, bearing, frac), edge)| {
            let anchor = line
                .get(vi % line.len().max(1))
                .copied()
                .unwrap_or(GeoPoint::new(10.0, 45.0));
            let reach = radius.max(1.0);
            let p = match bearing_kind {
                0 => anchor,
                1 => destination(&anchor, 0.0, frac * reach),
                2 => destination(&anchor, 180.0, frac * reach),
                _ => destination(&anchor, bearing, frac * reach),
            };
            let d = point_polyline_distance_km(&p, &line);
            let radius = if edge == 0 && d.is_finite() {
                d
            } else {
                radius
            };
            (line, p, radius)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// The Figure 7 join's predicate answers exactly what the scan of
    /// `point_polyline_distance_km` answers. It fails if the latitude band
    /// loses its slack (on the due-north and due-south boundary cases) or
    /// if a segment the window reaches goes unmeasured.
    #[test]
    fn polyline_within_km_equals_the_scan(case in arb_corridor_case()) {
        let (line, p, radius) = case;
        prop_assert_eq!(
            polyline_within_km(&p, &line, radius),
            point_polyline_distance_km(&p, &line) <= radius,
            "p {:?} r {} line {:?}", p, radius, line
        );
    }
}

#[test]
fn polyline_within_km_degenerate_corridors() {
    let p = GeoPoint::new(-0.0, 90.0);
    let twice = [GeoPoint::new(5.0, 89.9); 2];
    assert!(!polyline_within_km(&p, &[], f64::MAX));
    assert!(polyline_within_km(&p, &[GeoPoint::new(0.0, 90.0)], 0.0));
    assert!(polyline_within_km(&p, &twice, 12.0));
    assert!(!polyline_within_km(&p, &twice, 11.0));
    assert!(!polyline_within_km(&p, &twice, f64::NAN));
    // Past the pole, latitude 100° at 0° is latitude 80° at 180°: 20° of
    // latitude from the corridor and 10 km from its end, so the band must
    // stand aside.
    let over = GeoPoint::raw(0.0, 100.0);
    let line = [GeoPoint::new(179.0, 80.0), GeoPoint::new(179.5, 80.0)];
    assert!(point_polyline_distance_km(&over, &line) <= 20.0);
    assert!(polyline_within_km(&over, &line, 20.0));
}

/// Soup ingredients; the first five are the geometry keywords a soup opens
/// with.
const WKT_TOKENS: [&str; 17] = [
    "POINT",
    "LINESTRING",
    "MULTILINESTRING",
    "POLYGON",
    "MULTIPOLYGON",
    "EMPTY",
    "empty",
    "EMP",
    "(",
    ")",
    ",",
    " ",
    "-2.5",
    "1e3",
    "0",
    "é",
    "日",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Token soup — a geometry keyword, then `EMPTY`, brackets, numbers and
    /// multi-byte characters in any order — is parsed or refused, never a
    /// panic.
    #[test]
    fn wkt_parser_never_panics_on_token_soup(
        keyword in 0..5usize,
        rest in proptest::collection::vec(0..WKT_TOKENS.len(), 0..12),
    ) {
        let soup: String = std::iter::once(keyword).chain(rest).map(|i| WKT_TOKENS[i]).collect();
        let _ = parse_wkt(&soup);
    }
}
