//! Vector geometry types mirroring the WKT geometries iGDB stores.
//!
//! The paper's relations keep physical paths as `LINESTRING` /
//! `MULTILINESTRING` WKT and Thiessen cells as `POLYGON` WKT. These types are
//! the in-memory counterparts, with the predicates the use cases need:
//! point-in-polygon (spatial join of nodes to Thiessen cells), polyline
//! length, and point-to-polyline distance (corridor membership).

use crate::geodesy::{haversine_km, point_polyline_distance_km, polyline_length_km};
use crate::point::{BoundingBox, GeoPoint};

/// An open polyline (two or more points in the non-degenerate case).
#[derive(Clone, Debug, PartialEq)]
pub struct LineString(pub Vec<GeoPoint>);

impl LineString {
    pub fn new(points: Vec<GeoPoint>) -> Self {
        Self(points)
    }

    pub fn points(&self) -> &[GeoPoint] {
        &self.0
    }

    /// Great-circle length in kilometres.
    pub fn length_km(&self) -> f64 {
        polyline_length_km(&self.0)
    }

    /// Minimum distance from `p` to the polyline, kilometres.
    pub fn distance_to_point_km(&self, p: &GeoPoint) -> f64 {
        point_polyline_distance_km(p, &self.0)
    }

    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_points(self.0.iter())
    }

    /// Reversed copy (paths are stored once per direction-agnostic edge).
    pub fn reversed(&self) -> Self {
        let mut v = self.0.clone();
        v.reverse();
        Self(v)
    }
}

/// A set of polylines, e.g. a submarine cable with multiple segments.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiLineString(pub Vec<LineString>);

impl MultiLineString {
    pub fn new(lines: Vec<LineString>) -> Self {
        Self(lines)
    }

    pub fn length_km(&self) -> f64 {
        self.0.iter().map(LineString::length_km).sum()
    }

    pub fn distance_to_point_km(&self, p: &GeoPoint) -> f64 {
        self.0
            .iter()
            .map(|l| l.distance_to_point_km(p))
            .fold(f64::INFINITY, f64::min)
    }

    pub fn bbox(&self) -> BoundingBox {
        let mut b = BoundingBox::empty();
        for l in &self.0 {
            b.union(&l.bbox());
        }
        b
    }
}

/// A polygon with an exterior ring and zero or more interior rings (holes).
///
/// Rings are stored *closed* (first point repeated last) to match WKT
/// convention; [`Polygon::new`] closes them if needed.
///
/// The exterior ring's bounding box is cached at construction and consulted
/// by [`Polygon::contains`] before the exact winding test, so callers that
/// probe many points against one polygon (hazard regions, Thiessen cells)
/// pay the ray casting only for candidates inside the box. Mutating
/// `exterior` in place after construction is unsupported — build a new
/// polygon instead (nothing in the workspace mutates rings).
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    pub exterior: Vec<GeoPoint>,
    pub holes: Vec<Vec<GeoPoint>>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Builds a polygon, closing any unclosed ring.
    pub fn new(mut exterior: Vec<GeoPoint>, mut holes: Vec<Vec<GeoPoint>>) -> Self {
        close_ring(&mut exterior);
        for h in &mut holes {
            close_ring(h);
        }
        let bbox = BoundingBox::from_points(exterior.iter());
        Self {
            exterior,
            holes,
            bbox,
        }
    }

    /// Point-in-polygon via the even–odd (ray casting) rule in planar
    /// lon/lat space; holes subtract. Points exactly on an edge may land on
    /// either side — acceptable for Thiessen-cell assignment, where ties are
    /// measure-zero and broken consistently by the nearest-site index.
    ///
    /// A point outside the cached exterior bounding box is rejected without
    /// touching the ring: a horizontal ray from such a point crosses the
    /// closed exterior an even number of times (zero when the latitude band
    /// misses entirely), so the winding test would return `false` anyway.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        if !ring_contains(&self.exterior, p) {
            return false;
        }
        !self.holes.iter().any(|h| ring_contains(h, p))
    }

    /// Signed planar area in square degrees (positive = counter-clockwise
    /// exterior). Used only for orientation/degeneracy checks, never for
    /// physical area.
    pub fn signed_area_deg2(&self) -> f64 {
        shoelace(&self.exterior) - self.holes.iter().map(|h| shoelace(h).abs()).sum::<f64>()
    }

    /// Planar centroid of the exterior ring (degree space).
    pub fn centroid(&self) -> GeoPoint {
        let ring = &self.exterior;
        let n = ring.len().saturating_sub(1); // last repeats first
        if n == 0 {
            return GeoPoint::raw(0.0, 0.0);
        }
        let a = shoelace(ring);
        if a.abs() < 1e-12 {
            // Degenerate: average the vertices.
            let (sx, sy) = ring[..n]
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.lon, sy + p.lat));
            return GeoPoint::raw(sx / n as f64, sy / n as f64);
        }
        let (mut cx, mut cy) = (0.0, 0.0);
        for w in ring.windows(2) {
            let cross = w[0].lon * w[1].lat - w[1].lon * w[0].lat;
            cx += (w[0].lon + w[1].lon) * cross;
            cy += (w[0].lat + w[1].lat) * cross;
        }
        GeoPoint::raw(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// The exterior ring's bounding box, cached at construction.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }
}

/// A set of polygons (e.g. the spatial extent of an AS across metros).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiPolygon(pub Vec<Polygon>);

impl MultiPolygon {
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.0.iter().any(|poly| poly.contains(p))
    }

    pub fn bbox(&self) -> BoundingBox {
        let mut b = BoundingBox::empty();
        for poly in &self.0 {
            b.union(&poly.bbox());
        }
        b
    }
}

/// Any geometry iGDB stores in a WKT column.
#[derive(Clone, Debug, PartialEq)]
pub enum Geometry {
    Point(GeoPoint),
    LineString(LineString),
    MultiLineString(MultiLineString),
    Polygon(Polygon),
    MultiPolygon(MultiPolygon),
}

impl Geometry {
    pub fn bbox(&self) -> BoundingBox {
        match self {
            Geometry::Point(p) => BoundingBox::from_points(std::iter::once(p)),
            Geometry::LineString(l) => l.bbox(),
            Geometry::MultiLineString(m) => m.bbox(),
            Geometry::Polygon(p) => p.bbox(),
            Geometry::MultiPolygon(m) => m.bbox(),
        }
    }

    /// Minimum distance from this geometry to a point, kilometres. For
    /// polygons, a contained point has distance zero; otherwise the distance
    /// to the boundary ring is returned.
    pub fn distance_to_point_km(&self, p: &GeoPoint) -> f64 {
        match self {
            Geometry::Point(q) => haversine_km(p, q),
            Geometry::LineString(l) => l.distance_to_point_km(p),
            Geometry::MultiLineString(m) => m.distance_to_point_km(p),
            Geometry::Polygon(poly) => {
                if poly.contains(p) {
                    0.0
                } else {
                    point_polyline_distance_km(p, &poly.exterior)
                }
            }
            Geometry::MultiPolygon(mp) => {
                mp.0.iter()
                    .map(|poly| Geometry::Polygon(poly.clone()).distance_to_point_km(p))
                    .fold(f64::INFINITY, f64::min)
            }
        }
    }
}

fn close_ring(ring: &mut Vec<GeoPoint>) {
    if ring.len() >= 2 && ring.first() != ring.last() {
        let first = ring[0];
        ring.push(first);
    }
}

fn shoelace(ring: &[GeoPoint]) -> f64 {
    ring.windows(2)
        .map(|w| w[0].lon * w[1].lat - w[1].lon * w[0].lat)
        .sum::<f64>()
        / 2.0
}

fn ring_contains(ring: &[GeoPoint], p: &GeoPoint) -> bool {
    // Even–odd ray casting, ray toward +lon.
    let mut inside = false;
    for w in ring.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let crosses = (a.lat > p.lat) != (b.lat > p.lat);
        if crosses {
            let t = (p.lat - a.lat) / (b.lat - a.lat);
            let x = a.lon + t * (b.lon - a.lon);
            if x > p.lon {
                inside = !inside;
            }
        }
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(
            vec![
                GeoPoint::raw(0.0, 0.0),
                GeoPoint::raw(10.0, 0.0),
                GeoPoint::raw(10.0, 10.0),
                GeoPoint::raw(0.0, 10.0),
            ],
            vec![],
        )
    }

    #[test]
    fn polygon_new_closes_ring() {
        let p = unit_square();
        assert_eq!(p.exterior.first(), p.exterior.last());
        assert_eq!(p.exterior.len(), 5);
    }

    #[test]
    fn point_in_polygon_basic() {
        let p = unit_square();
        assert!(p.contains(&GeoPoint::raw(5.0, 5.0)));
        assert!(!p.contains(&GeoPoint::raw(15.0, 5.0)));
        assert!(!p.contains(&GeoPoint::raw(-1.0, 5.0)));
        assert!(!p.contains(&GeoPoint::raw(5.0, 11.0)));
    }

    #[test]
    fn point_in_polygon_respects_holes() {
        let poly = Polygon::new(
            vec![
                GeoPoint::raw(0.0, 0.0),
                GeoPoint::raw(10.0, 0.0),
                GeoPoint::raw(10.0, 10.0),
                GeoPoint::raw(0.0, 10.0),
            ],
            vec![vec![
                GeoPoint::raw(4.0, 4.0),
                GeoPoint::raw(6.0, 4.0),
                GeoPoint::raw(6.0, 6.0),
                GeoPoint::raw(4.0, 6.0),
            ]],
        );
        assert!(poly.contains(&GeoPoint::raw(1.0, 1.0)));
        assert!(!poly.contains(&GeoPoint::raw(5.0, 5.0)));
    }

    #[test]
    fn point_in_concave_polygon() {
        // L-shaped polygon.
        let poly = Polygon::new(
            vec![
                GeoPoint::raw(0.0, 0.0),
                GeoPoint::raw(10.0, 0.0),
                GeoPoint::raw(10.0, 4.0),
                GeoPoint::raw(4.0, 4.0),
                GeoPoint::raw(4.0, 10.0),
                GeoPoint::raw(0.0, 10.0),
            ],
            vec![],
        );
        assert!(poly.contains(&GeoPoint::raw(2.0, 8.0)));
        assert!(poly.contains(&GeoPoint::raw(8.0, 2.0)));
        assert!(!poly.contains(&GeoPoint::raw(8.0, 8.0)));
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!((c.lon - 5.0).abs() < 1e-9);
        assert!((c.lat - 5.0).abs() < 1e-9);
    }

    #[test]
    fn signed_area_orientation() {
        let ccw = unit_square();
        assert!(ccw.signed_area_deg2() > 0.0);
        let mut rev = ccw.exterior.clone();
        rev.reverse();
        let cw = Polygon::new(rev, vec![]);
        assert!(cw.signed_area_deg2() < 0.0);
    }

    #[test]
    fn linestring_length_and_reverse() {
        let l = LineString::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 0.0),
            GeoPoint::new(1.0, 1.0),
        ]);
        let len = l.length_km();
        assert!(len > 200.0 && len < 250.0, "got {len}"); // ~2 degrees
        assert!((l.reversed().length_km() - len).abs() < 1e-9);
        assert_eq!(l.reversed().points()[0], GeoPoint::new(1.0, 1.0));
    }

    #[test]
    fn geometry_distance_polygon_inside_is_zero() {
        let g = Geometry::Polygon(unit_square());
        assert_eq!(g.distance_to_point_km(&GeoPoint::raw(5.0, 5.0)), 0.0);
        assert!(g.distance_to_point_km(&GeoPoint::raw(12.0, 5.0)) > 100.0);
    }

    #[test]
    fn multipolygon_contains_any() {
        let a = unit_square();
        let b = Polygon::new(
            vec![
                GeoPoint::raw(20.0, 20.0),
                GeoPoint::raw(30.0, 20.0),
                GeoPoint::raw(30.0, 30.0),
                GeoPoint::raw(20.0, 30.0),
            ],
            vec![],
        );
        let mp = MultiPolygon(vec![a, b]);
        assert!(mp.contains(&GeoPoint::raw(25.0, 25.0)));
        assert!(mp.contains(&GeoPoint::raw(5.0, 5.0)));
        assert!(!mp.contains(&GeoPoint::raw(15.0, 15.0)));
    }
}
