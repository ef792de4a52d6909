//! Batched great-circle kernels over struct-of-arrays columns.
//!
//! The scalar [`haversine_km`](crate::geodesy::haversine_km) spends most of
//! its time in the two `cos(lat)` calls, and hot callers (nearest-site
//! scans, radius queries, repeated polyline measurement) evaluate it
//! against a *fixed* point set. [`GeoColumns`] precomputes the per-point
//! trigonometry once into flat parallel arrays so the inner loop touches
//! only multiplies, one `sin` pair and one `asin` per candidate, with the
//! query-side trigonometry hoisted into a [`RefPoint`].
//!
//! # Bit-identity contract
//!
//! Every kernel here performs *exactly* the floating-point operation
//! sequence of its scalar counterpart — latitude/longitude deltas are taken
//! in degrees before conversion, `cos(lat)` is `lat.to_radians().cos()`,
//! and products associate left-to-right — so results are bit-identical to
//! the scalar path at any batch size. The deterministic golden streams
//! (tests/golden/*.jsonl) rely on this: batching is a layout change, never
//! a numeric one. `crates/geo/tests/proptests.rs` pins the equivalence.

use crate::point::GeoPoint;
use crate::EARTH_RADIUS_KM;

/// Precomputed query-side trigonometry for one fixed reference point.
#[derive(Clone, Copy, Debug)]
pub struct RefPoint {
    /// Longitude in degrees (as the scalar path reads it).
    pub lon_deg: f64,
    /// Latitude in degrees.
    pub lat_deg: f64,
    /// `lat_deg.to_radians().cos()` — the exact value the scalar kernel
    /// computes per call.
    pub cos_lat: f64,
}

impl RefPoint {
    pub fn new(p: &GeoPoint) -> Self {
        Self {
            lon_deg: p.lon,
            lat_deg: p.lat,
            cos_lat: p.lat.to_radians().cos(),
        }
    }
}

/// Struct-of-arrays columns over a fixed point set: degree coordinates plus
/// the cached `cos(lat)` column.
#[derive(Clone, Debug, Default)]
pub struct GeoColumns {
    lon_deg: Vec<f64>,
    lat_deg: Vec<f64>,
    cos_lat: Vec<f64>,
}

impl GeoColumns {
    /// Builds the columns, paying the per-point trigonometry once.
    pub fn from_points(points: &[GeoPoint]) -> Self {
        let mut cols = Self {
            lon_deg: Vec::with_capacity(points.len()),
            lat_deg: Vec::with_capacity(points.len()),
            cos_lat: Vec::with_capacity(points.len()),
        };
        for p in points {
            cols.push(p);
        }
        cols
    }

    /// Appends one point.
    pub fn push(&mut self, p: &GeoPoint) {
        self.lon_deg.push(p.lon);
        self.lat_deg.push(p.lat);
        self.cos_lat.push(p.lat.to_radians().cos());
    }

    pub fn len(&self) -> usize {
        self.lat_deg.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lat_deg.is_empty()
    }

    /// The stored point `i` (reconstructed; columns are the storage).
    pub fn point(&self, i: usize) -> GeoPoint {
        GeoPoint::raw(self.lon_deg[i], self.lat_deg[i])
    }

    /// Latitude of point `i` in degrees — exposed for cheap latitude-band
    /// prefilters that want to skip the full kernel.
    #[inline]
    pub fn lat_deg(&self, i: usize) -> f64 {
        self.lat_deg[i]
    }

    /// Great-circle distance from the reference point to column point `i`,
    /// bit-identical to `haversine_km(&q_point, &self.point(i))`.
    #[inline]
    pub fn haversine_km_from(&self, q: &RefPoint, i: usize) -> f64 {
        // Same operation sequence as the scalar kernel: deltas in degrees,
        // then to_radians; cos(lat) values are the cached columns.
        let dlat = (self.lat_deg[i] - q.lat_deg).to_radians();
        let dlon = (self.lon_deg[i] - q.lon_deg).to_radians();
        let s =
            (dlat / 2.0).sin().powi(2) + q.cos_lat * self.cos_lat[i] * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * s.sqrt().min(1.0).asin()
    }

    /// Total great-circle length of the column points read as a polyline,
    /// bit-identical to [`crate::geodesy::polyline_length_km`] over the
    /// same points (same window order, same left-to-right summation).
    pub fn polyline_length_km(&self) -> f64 {
        let mut sum = 0.0;
        for i in 1..self.len() {
            let dlat = (self.lat_deg[i] - self.lat_deg[i - 1]).to_radians();
            let dlon = (self.lon_deg[i] - self.lon_deg[i - 1]).to_radians();
            let s = (dlat / 2.0).sin().powi(2)
                + self.cos_lat[i - 1] * self.cos_lat[i] * (dlon / 2.0).sin().powi(2);
            sum += 2.0 * EARTH_RADIUS_KM * s.sqrt().min(1.0).asin();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geodesy::{haversine_km, polyline_length_km};

    fn scatter(n: usize) -> Vec<GeoPoint> {
        let mut x = 0.37_f64;
        (0..n)
            .map(|_| {
                x = (x * 997.0 + 0.123).fract();
                let y = (x * 631.0 + 0.71).fract();
                GeoPoint::new(x * 360.0 - 180.0, y * 170.0 - 85.0)
            })
            .collect()
    }

    #[test]
    fn refpoint_kernel_bit_identical_to_scalar() {
        let pts = scatter(200);
        let cols = GeoColumns::from_points(&pts);
        let q = GeoPoint::new(-3.7038, 40.4168);
        let r = RefPoint::new(&q);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(
                cols.haversine_km_from(&r, i).to_bits(),
                haversine_km(&q, p).to_bits()
            );
        }
    }

    #[test]
    fn polyline_length_bit_identical_to_scalar() {
        let pts = scatter(300);
        let cols = GeoColumns::from_points(&pts);
        assert_eq!(
            cols.polyline_length_km().to_bits(),
            polyline_length_km(&pts).to_bits()
        );
        assert_eq!(GeoColumns::from_points(&[]).polyline_length_km(), 0.0);
        assert_eq!(GeoColumns::from_points(&pts[..1]).polyline_length_km(), 0.0);
    }

    #[test]
    fn columns_round_trip_points() {
        let pts = scatter(50);
        let cols = GeoColumns::from_points(&pts);
        assert_eq!(cols.len(), 50);
        assert!(!cols.is_empty());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(cols.point(i), *p);
            assert_eq!(cols.lat_deg(i), p.lat);
        }
        assert!(GeoColumns::from_points(&[]).is_empty());
    }
}
