//! Products derived from the tables the stage driver wrote.
//!
//! Each is a pure function of a finished world's `phys_conn` rows and metro
//! catalogue, built on first use and shared by every analysis after that:
//! the routing graph, the parsed path geometries, and the segment index
//! the Figure 4 corridor join asks. A table write takes `&mut Igdb`, never
//! the `&Igdb` these are read through, and the one write after the build
//! ([`Igdb::add_inferred_location`]) touches `asn_loc`, not `phys_conn`,
//! so a filled product stays valid for the life of its [`Igdb`].
//!
//! The holder is `Physical`'s product, like that stage's tables. A delta
//! apply that shares `Physical` hands the successor the prior's holder
//! itself, filled slots and all: both worlds then hold the same
//! `phys_conn` and metro catalogue. One that re-runs `Physical` starts
//! empty, and carries over only the graph's still-canonical corridors
//! ([`Derived::succeed`]).

use std::sync::OnceLock;
use std::time::Instant;

use igdb_db::Database;
use igdb_geo::geodesy::point_segment_distance_km;
use igdb_geo::spatial::{segment_bbox, segment_window, window_abs_lat};
use igdb_geo::{parse_wkt, point_polyline_distance_km, GeoPoint, Geometry, RTree};

use crate::analysis::physpath::PhysGraph;
use crate::build::Igdb;

/// The lazily built products of one [`Igdb`].
#[derive(Default)]
pub(crate) struct Derived {
    /// Shared physical-path graph over `phys_pairs`; analyses that used to
    /// each build their own copy (physpath, risk, rocketfuel) share this
    /// one, and with it one corridor cache.
    phys_graph: OnceLock<PhysGraph>,
    /// `phys_conn` WKT linestring geometries, in row order.
    phys_geoms: OnceLock<Vec<Vec<GeoPoint>>>,
    /// Index over every segment of `phys_geoms`.
    phys_segments: OnceLock<SegmentIndex>,
}

impl Derived {
    pub(crate) fn phys_graph(&self, igdb: &Igdb) -> &PhysGraph {
        self.phys_graph.get_or_init(|| PhysGraph::from_igdb(igdb))
    }

    pub(crate) fn phys_geoms(&self, db: &Database) -> &[Vec<GeoPoint>] {
        self.phys_geoms.get_or_init(|| {
            db.with_table("phys_conn", |t| {
                t.rows()
                    .iter()
                    .filter_map(|r| match parse_wkt(r[7].as_text()?) {
                        Ok(Geometry::LineString(ls)) => Some(ls.0),
                        _ => None,
                    })
                    .collect()
            })
            .expect("phys_conn exists")
        })
    }

    /// The segment index over [`Self::phys_geoms`]. A fill is timed by the
    /// perf counter `derived.fill_us{segments}` and opens no span: it runs
    /// inside whichever analysis asked first, whose span tree is gated.
    pub(crate) fn phys_segments(&self, db: &Database) -> &SegmentIndex {
        self.phys_segments.get_or_init(|| {
            let start = Instant::now();
            let index = SegmentIndex::new(self.phys_geoms(db));
            igdb_obs::perf(
                "derived.fill_us",
                "segments",
                start.elapsed().as_micros() as u64,
            );
            index
        })
    }

    /// Carries `prior`'s graph into `self`, the products of the world that
    /// succeeds it in a delta apply that re-ran `Physical`: if the prior
    /// world had built its graph, the new one is built here with the
    /// memoized corridors the change left canonical (see
    /// [`PhysGraph::for_next_epoch`]). The geometries and their index are
    /// refilled on first use — a fill costs a few milliseconds.
    pub(crate) fn succeed(
        &self,
        prior: &Derived,
        old_pairs: &[(usize, usize, f64)],
        n_metros: usize,
        new_pairs: &[(usize, usize, f64)],
    ) {
        if let Some(old) = prior.phys_graph.get() {
            let _ = self
                .phys_graph
                .set(old.for_next_epoch(old_pairs, n_metros, new_pairs));
        }
    }
}

/// An R-tree over the segments of a set of polylines, answering "is any
/// segment within `r` km of this point?" with the same arithmetic as a scan
/// of [`point_polyline_distance_km`] — the tree only chooses which segments
/// are tested.
pub(crate) struct SegmentIndex {
    /// `(polyline, first vertex of the segment)`. A one-vertex polyline is
    /// the degenerate segment `(i, 0)`, whose distance is the point
    /// distance the scan takes; an empty polyline has no entry, and is at
    /// distance ∞ in the scan.
    tree: RTree<(u32, u32)>,
    /// Largest `|lat|` indexed (∞ if a longitude is outside ±180°, which
    /// only [`GeoPoint::raw`] makes and no planar window covers): the
    /// distance scales longitudes by the cosine of a segment's
    /// mid-latitude, so this bounds how wide a window must be.
    max_abs_lat: f64,
}

/// The ends of the segment starting at vertex `i`; both are the vertex
/// itself for a one-vertex polyline.
fn segment_ends(polyline: &[GeoPoint], i: usize) -> (&GeoPoint, &GeoPoint) {
    (&polyline[i], &polyline[(i + 1).min(polyline.len() - 1)])
}

/// Segments a polyline of `vertices` is indexed as.
fn segment_count(vertices: usize) -> usize {
    match vertices {
        1 => 1,
        n => n.saturating_sub(1),
    }
}

impl SegmentIndex {
    pub(crate) fn new<P: AsRef<[GeoPoint]>>(polylines: &[P]) -> Self {
        // Sized exactly: the tree keeps this vector.
        let total = polylines
            .iter()
            .map(|p| segment_count(p.as_ref().len()))
            .sum();
        let mut entries = Vec::with_capacity(total);
        let mut max_abs_lat = 0.0f64;
        for (pi, polyline) in polylines.iter().enumerate() {
            let polyline = polyline.as_ref();
            for p in polyline {
                max_abs_lat = max_abs_lat.max(window_abs_lat(p));
            }
            for si in 0..segment_count(polyline.len()) {
                let (a, b) = segment_ends(polyline, si);
                entries.push((segment_bbox(a, b), (pi as u32, si as u32)));
            }
        }
        Self {
            tree: RTree::bulk_load(entries),
            max_abs_lat,
        }
    }

    /// True if some polyline `i` with `keep(i)` has
    /// `point_polyline_distance_km(v, polylines[i]) <= radius_km`.
    /// `polylines` must be the set the index was built over. Where no
    /// planar window exists for `v` (see [`segment_window`]) every kept
    /// polyline is scanned.
    pub(crate) fn any_within<P: AsRef<[GeoPoint]>>(
        &self,
        polylines: &[P],
        v: &GeoPoint,
        radius_km: f64,
        keep: impl Fn(usize) -> bool,
    ) -> bool {
        match segment_window(v, radius_km, self.max_abs_lat) {
            Some(window) => self.tree.any_in_bbox(&window, |&(pi, si)| {
                keep(pi as usize) && {
                    let (a, b) = segment_ends(polylines[pi as usize].as_ref(), si as usize);
                    point_segment_distance_km(v, a, b) <= radius_km
                }
            }),
            None => polylines.iter().enumerate().any(|(pi, polyline)| {
                keep(pi) && point_polyline_distance_km(v, polyline.as_ref()) <= radius_km
            }),
        }
    }
}
