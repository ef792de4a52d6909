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
use igdb_geo::{parse_wkt, GeoPoint, Geometry, SegmentIndex};

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
