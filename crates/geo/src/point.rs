//! Geographic points and bounding boxes.

use std::fmt;

/// A point on the Earth's surface in WGS-84 longitude/latitude degrees.
///
/// Longitude is in `[-180, 180]`, latitude in `[-90, 90]`. Construction via
/// [`GeoPoint::new`] normalizes longitude into range and clamps latitude, so
/// downstream spatial code can assume canonical coordinates.
#[derive(Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Longitude in degrees east of the prime meridian.
    pub lon: f64,
    /// Latitude in degrees north of the equator.
    pub lat: f64,
}

impl GeoPoint {
    /// Creates a point, normalizing longitude into `[-180, 180]` and
    /// clamping latitude into `[-90, 90]`.
    pub fn new(lon: f64, lat: f64) -> Self {
        Self {
            lon: normalize_lon(lon),
            lat: lat.clamp(-90.0, 90.0),
        }
    }

    /// Creates a point without normalization. Useful for planar geometry
    /// (e.g. Voronoi construction) where out-of-range coordinates are
    /// intentional intermediate values.
    pub const fn raw(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// True if both coordinates are finite numbers.
    pub fn is_finite(&self) -> bool {
        self.lon.is_finite() && self.lat.is_finite()
    }

    /// Squared Euclidean distance in degree space. Only meaningful for
    /// planar algorithms (Delaunay, R-tree ordering); use
    /// [`crate::geodesy::haversine_km`] for real distances.
    pub fn planar_dist2(&self, other: &GeoPoint) -> f64 {
        let dx = self.lon - other.lon;
        let dy = self.lat - other.lat;
        dx * dx + dy * dy
    }
}

impl fmt::Debug for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lon, self.lat)
    }
}

/// Normalizes a longitude into `[-180, 180]`.
pub fn normalize_lon(lon: f64) -> f64 {
    if !lon.is_finite() {
        return lon;
    }
    let mut l = (lon + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

/// An axis-aligned bounding box in lon/lat degree space.
///
/// Boxes never wrap the antimeridian: geometry that crosses it is handled
/// upstream by splitting (see `igdb-synth` cable generation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundingBox {
    pub min_lon: f64,
    pub min_lat: f64,
    pub max_lon: f64,
    pub max_lat: f64,
}

impl BoundingBox {
    /// The whole-world box used to clip Voronoi cells.
    pub const WORLD: BoundingBox = BoundingBox {
        min_lon: -180.0,
        min_lat: -90.0,
        max_lon: 180.0,
        max_lat: 90.0,
    };

    /// An empty (inverted) box; union with any point yields that point.
    pub fn empty() -> Self {
        Self {
            min_lon: f64::INFINITY,
            min_lat: f64::INFINITY,
            max_lon: f64::NEG_INFINITY,
            max_lat: f64::NEG_INFINITY,
        }
    }

    /// Builds the tight box around a set of points. Returns [`Self::empty`]
    /// for an empty iterator.
    pub fn from_points<'a, I: IntoIterator<Item = &'a GeoPoint>>(points: I) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.expand(p);
        }
        b
    }

    /// True if no point has been added.
    pub fn is_empty(&self) -> bool {
        self.min_lon > self.max_lon || self.min_lat > self.max_lat
    }

    /// Grows the box to include `p`.
    pub fn expand(&mut self, p: &GeoPoint) {
        self.min_lon = self.min_lon.min(p.lon);
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lon = self.max_lon.max(p.lon);
        self.max_lat = self.max_lat.max(p.lat);
    }

    /// Grows the box to include all of `other`.
    pub fn union(&mut self, other: &BoundingBox) {
        self.min_lon = self.min_lon.min(other.min_lon);
        self.min_lat = self.min_lat.min(other.min_lat);
        self.max_lon = self.max_lon.max(other.max_lon);
        self.max_lat = self.max_lat.max(other.max_lat);
    }

    /// Grows the box outward by `margin` degrees on every side.
    pub fn inflated(&self, margin: f64) -> Self {
        Self {
            min_lon: self.min_lon - margin,
            min_lat: self.min_lat - margin,
            max_lon: self.max_lon + margin,
            max_lat: self.max_lat + margin,
        }
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lon >= self.min_lon && p.lon <= self.max_lon && p.lat >= self.min_lat && p.lat <= self.max_lat
    }

    /// True if the two boxes overlap (boundary contact counts).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
            && self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
    }

    /// Center point of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::raw(
            (self.min_lon + self.max_lon) / 2.0,
            (self.min_lat + self.max_lat) / 2.0,
        )
    }

    /// Minimum planar (degree-space) squared distance from `p` to the box;
    /// zero if `p` is inside. Used for R-tree nearest-neighbour pruning.
    pub fn planar_dist2_to(&self, p: &GeoPoint) -> f64 {
        let dx = if p.lon < self.min_lon {
            self.min_lon - p.lon
        } else if p.lon > self.max_lon {
            p.lon - self.max_lon
        } else {
            0.0
        };
        let dy = if p.lat < self.min_lat {
            self.min_lat - p.lat
        } else if p.lat > self.max_lat {
            p.lat - self.max_lat
        } else {
            0.0
        };
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lon_wraps_both_directions() {
        assert!((normalize_lon(190.0) - -170.0).abs() < 1e-12);
        assert!((normalize_lon(-190.0) - 170.0).abs() < 1e-12);
        assert!((normalize_lon(360.0) - 0.0).abs() < 1e-12);
        assert!((normalize_lon(-180.0) - -180.0).abs() < 1e-12);
        assert!((normalize_lon(540.0) - 180.0).abs() < 1e-12 || (normalize_lon(540.0) - -180.0).abs() < 1e-12);
    }

    #[test]
    fn new_clamps_latitude() {
        let p = GeoPoint::new(0.0, 95.0);
        assert_eq!(p.lat, 90.0);
        let q = GeoPoint::new(0.0, -95.0);
        assert_eq!(q.lat, -90.0);
    }

    #[test]
    fn bbox_from_points_and_contains() {
        let pts = [
            GeoPoint::new(-3.7, 40.4),  // Madrid
            GeoPoint::new(13.4, 52.5),  // Berlin
            GeoPoint::new(2.35, 48.85), // Paris
        ];
        let b = BoundingBox::from_points(pts.iter());
        assert!(b.contains(&GeoPoint::new(2.0, 48.0)));
        assert!(!b.contains(&GeoPoint::new(-10.0, 48.0)));
        assert!((b.min_lon - -3.7).abs() < 1e-12);
        assert!((b.max_lat - 52.5).abs() < 1e-12);
    }

    #[test]
    fn bbox_empty_behaviour() {
        let b = BoundingBox::empty();
        assert!(b.is_empty());
        assert!(!b.contains(&GeoPoint::new(0.0, 0.0)));
        let mut b2 = b;
        b2.expand(&GeoPoint::new(1.0, 2.0));
        assert!(!b2.is_empty());
        assert!(b2.contains(&GeoPoint::new(1.0, 2.0)));
    }

    #[test]
    fn bbox_intersects_is_symmetric_and_handles_touching() {
        let a = BoundingBox {
            min_lon: 0.0,
            min_lat: 0.0,
            max_lon: 10.0,
            max_lat: 10.0,
        };
        let b = BoundingBox {
            min_lon: 10.0,
            min_lat: 5.0,
            max_lon: 20.0,
            max_lat: 15.0,
        };
        let c = BoundingBox {
            min_lon: 11.0,
            min_lat: 0.0,
            max_lon: 12.0,
            max_lat: 1.0,
        };
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn bbox_planar_distance_zero_inside() {
        let a = BoundingBox {
            min_lon: 0.0,
            min_lat: 0.0,
            max_lon: 10.0,
            max_lat: 10.0,
        };
        assert_eq!(a.planar_dist2_to(&GeoPoint::new(5.0, 5.0)), 0.0);
        assert_eq!(a.planar_dist2_to(&GeoPoint::new(13.0, 14.0)), 9.0 + 16.0);
    }
}
