//! `igdb-geo` — the geographic substrate of iGDB.
//!
//! The iGDB paper (IMC '22) relies on ArcGIS for all spatial operations:
//! Thiessen (Voronoi) tessellation of the Earth around urban areas, spatial
//! joins of network nodes to the nearest urban area, buffered corridors
//! around inferred fiber paths, and shortest-path routing along right-of-way
//! networks. ArcGIS is proprietary, so this crate implements the required
//! GIS machinery from scratch:
//!
//! * [`point`] — geographic points ([`GeoPoint`]) and bounding boxes.
//! * [`geodesy`] — great-circle math: haversine distance, bearings,
//!   destination points, path lengths, and the point-to-polyline distance
//!   that answers corridor membership (Figures 4 and 7) without
//!   materializing a buffer polygon.
//! * [`geometry`] — linestrings, polygons, point-in-polygon tests and
//!   point-to-polyline distances.
//! * [`wkt`] — a parser and writer for the Well-Known Text format the paper
//!   stores all geometries in.
//! * [`delaunay`] / [`voronoi`] — Bowyer–Watson Delaunay triangulation and
//!   its Voronoi dual, used to build the 7,342 Thiessen polygons of
//!   Figure 3.
//! * [`spatial`] — the spatial joins over one fixed 1° bucket grid, the
//!   crate's only window index: exact great-circle nearest-site assignment
//!   ([`NearestSiteIndex`]), the Figure 4 corridor join's segment index
//!   ([`SegmentIndex`]), the candidate windows both prune with, and the
//!   Figure 7 corridor test that those bounds settle before any distance
//!   is computed.
//! * [`batch`] — struct-of-arrays columns ([`GeoColumns`]) with batched
//!   great-circle kernels, bit-identical to the scalar path.
//!
//! All coordinates are WGS-84 longitude/latitude degrees. Distances are in
//! kilometres unless a function says otherwise.

pub mod batch;
pub mod delaunay;
pub mod geodesy;
pub mod geometry;
pub mod hull;
pub mod point;
pub mod spatial;
pub mod voronoi;
pub mod wkt;

pub use batch::{GeoColumns, RefPoint};
pub use geodesy::{
    destination, great_circle_arc, haversine_km, initial_bearing_deg, intermediate_point,
    point_polyline_distance_km, polyline_length_km, spherical_area_km2,
};
pub use geometry::{Geometry, LineString, MultiLineString, MultiPolygon, Polygon};
pub use hull::convex_hull;
pub use point::{BoundingBox, GeoPoint};
pub use spatial::{NearestSiteIndex, SegmentIndex};
pub use voronoi::{voronoi_cells, VoronoiCell};
pub use wkt::{parse_wkt, to_wkt, WktError};

/// Mean Earth radius in kilometres (IUGG value), used by all great-circle math.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Kilometres per statute mile; the paper's Figure 4 uses a 25-mile corridor.
pub const KM_PER_MILE: f64 = 1.609_344;
