//! Great-circle mathematics on the WGS-84 sphere.
//!
//! iGDB measures every inferred fiber path, submarine cable and traceroute
//! detour in kilometres of great-circle length (e.g. the 2,518 km vs
//! 1,282 km comparison behind the Figure 7 "distance cost"). These routines
//! provide that arithmetic on the mean-radius sphere, which is accurate to
//! ~0.5% — far tighter than the uncertainty of the underlying topology data.

use crate::point::GeoPoint;
use crate::EARTH_RADIUS_KM;

/// Great-circle distance between two points in kilometres (haversine form,
/// numerically stable for nearby points).
pub fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let s = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * s.sqrt().min(1.0).asin()
}

/// Initial bearing from `a` to `b` in degrees clockwise from true north,
/// normalized to `[0, 360)`.
pub fn initial_bearing_deg(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlon = (b.lon - a.lon).to_radians();
    let y = dlon.sin() * lat2.cos();
    let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
    let deg = y.atan2(x).to_degrees();
    (deg + 360.0) % 360.0
}

/// Destination point starting at `origin`, travelling `distance_km` along
/// `bearing_deg` (degrees clockwise from north) on a great circle.
pub fn destination(origin: &GeoPoint, bearing_deg: f64, distance_km: f64) -> GeoPoint {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let lat1 = origin.lat.to_radians();
    let lon1 = origin.lon.to_radians();
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    GeoPoint::new(lon2.to_degrees(), lat2.to_degrees())
}

/// Interpolates the point a fraction `f` (0..=1) of the way along the great
/// circle from `a` to `b` (spherical linear interpolation).
pub fn intermediate_point(a: &GeoPoint, b: &GeoPoint, f: f64) -> GeoPoint {
    let d = haversine_km(a, b) / EARTH_RADIUS_KM; // angular distance
    if d < 1e-12 {
        return *a;
    }
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let sa = ((1.0 - f) * d).sin() / d.sin();
    let sb = (f * d).sin() / d.sin();
    let x = sa * lat1.cos() * lon1.cos() + sb * lat2.cos() * lon2.cos();
    let y = sa * lat1.cos() * lon1.sin() + sb * lat2.cos() * lon2.sin();
    let z = sa * lat1.sin() + sb * lat2.sin();
    GeoPoint::new(
        y.atan2(x).to_degrees(),
        z.atan2((x * x + y * y).sqrt()).to_degrees(),
    )
}

/// Samples `n_segments + 1` points evenly along the great circle from `a`
/// to `b`, inclusive of both endpoints. Used to draw submarine cable paths
/// as curved WKT linestrings rather than straight chords.
pub fn great_circle_arc(a: &GeoPoint, b: &GeoPoint, n_segments: usize) -> Vec<GeoPoint> {
    let n = n_segments.max(1);
    (0..=n)
        .map(|i| intermediate_point(a, b, i as f64 / n as f64))
        .collect()
}

/// Total great-circle length of a polyline in kilometres.
///
/// Each interior vertex is shared by two segments, so its `cos(lat)` is
/// computed once and carried across the window boundary; every other
/// operation matches [`haversine_km`] exactly, keeping the sum bit-identical
/// to `points.windows(2).map(|w| haversine_km(&w[0], &w[1])).sum()`.
pub fn polyline_length_km(points: &[GeoPoint]) -> f64 {
    let mut sum = 0.0;
    let Some(first) = points.first() else {
        return sum;
    };
    let mut prev_cos = first.lat.to_radians().cos();
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let cur_cos = b.lat.to_radians().cos();
        let dlat = (b.lat - a.lat).to_radians();
        let dlon = (b.lon - a.lon).to_radians();
        let s = (dlat / 2.0).sin().powi(2) + prev_cos * cur_cos * (dlon / 2.0).sin().powi(2);
        sum += 2.0 * EARTH_RADIUS_KM * s.sqrt().min(1.0).asin();
        prev_cos = cur_cos;
    }
    sum
}

/// Area of a polygon on the sphere in square kilometres, by the
/// Chamberlain–Duquette formula (the standard GIS spherical-excess
/// estimator; exact as vertex spacing shrinks, and far more accurate than
/// planar degree-space area at any latitude).
///
/// `ring` may be open or closed; orientation does not matter (the result
/// is absolute). Fewer than three distinct vertices yield 0.
pub fn spherical_area_km2(ring: &[GeoPoint]) -> f64 {
    let mut pts: Vec<&GeoPoint> = ring.iter().collect();
    if pts.len() >= 2 && pts.first() == pts.last() {
        pts.pop();
    }
    if pts.len() < 3 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..pts.len() {
        let p1 = pts[i];
        let p2 = pts[(i + 1) % pts.len()];
        let mut dlon = p2.lon - p1.lon;
        if dlon > 180.0 {
            dlon -= 360.0;
        } else if dlon < -180.0 {
            dlon += 360.0;
        }
        sum += dlon.to_radians() * (2.0 + p1.lat.to_radians().sin() + p2.lat.to_radians().sin());
    }
    (sum * EARTH_RADIUS_KM * EARTH_RADIUS_KM / 2.0).abs()
}

/// Great-circle distance from point `p` to the segment `a`–`b`, in
/// kilometres, using a local equirectangular projection centred on the
/// segment. Accurate for the sub-100 km corridor tests iGDB performs
/// (25-mile InterTubes corridors, metro-scale buffers).
pub fn point_segment_distance_km(p: &GeoPoint, a: &GeoPoint, b: &GeoPoint) -> f64 {
    // Project into a plane tangent near the segment midpoint.
    let lat0 = ((a.lat + b.lat) / 2.0).to_radians();
    let k = lat0.cos();
    let to_xy = |g: &GeoPoint| -> (f64, f64) {
        // Unwrap longitudes near `a` to avoid antimeridian artifacts.
        let mut dlon = g.lon - a.lon;
        if dlon > 180.0 {
            dlon -= 360.0;
        } else if dlon < -180.0 {
            dlon += 360.0;
        }
        (dlon * k, g.lat - a.lat)
    };
    let (px, py) = to_xy(p);
    let (ax, ay) = (0.0, 0.0);
    let (bx, by) = to_xy(b);
    let (dx, dy) = (bx - ax, by - ay);
    let len2 = dx * dx + dy * dy;
    let t = if len2 <= f64::EPSILON {
        0.0
    } else {
        ((px - ax) * dx + (py - ay) * dy) / len2
    };
    // Exact great-circle distances to the endpoints always bound the
    // result: off the segment's span the nearest point IS an endpoint, and
    // at global range the planar projection can even misjudge *which*
    // endpoint is nearer, so both are taken.
    let endpoint_min = haversine_km(p, a).min(haversine_km(p, b));
    if t <= 0.0 || t >= 1.0 {
        return endpoint_min;
    }
    let (cx, cy) = (ax + t * dx, ay + t * dy);
    let ex = px - cx;
    let ey = py - cy;
    // Convert degrees back to kilometres; the interior estimate is only
    // ever *closer* than the endpoints, never farther.
    let deg = (ex * ex + ey * ey).sqrt();
    (deg.to_radians() * EARTH_RADIUS_KM).min(endpoint_min)
}

/// Minimum great-circle distance from `p` to any segment of `polyline`.
/// Returns `f64::INFINITY` for an empty polyline and point distance for a
/// single-point polyline.
pub fn point_polyline_distance_km(p: &GeoPoint, polyline: &[GeoPoint]) -> f64 {
    match polyline.len() {
        0 => f64::INFINITY,
        1 => haversine_km(p, &polyline[0]),
        _ => polyline
            .windows(2)
            .map(|w| point_segment_distance_km(p, &w[0], &w[1]))
            .fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn madrid() -> GeoPoint {
        GeoPoint::new(-3.7038, 40.4168)
    }
    fn berlin() -> GeoPoint {
        GeoPoint::new(13.4050, 52.5200)
    }

    #[test]
    fn haversine_known_city_pair() {
        // Madrid–Berlin is ~1,869 km.
        let d = haversine_km(&madrid(), &berlin());
        assert!((d - 1869.0).abs() < 25.0, "got {d}");
    }

    #[test]
    fn haversine_zero_and_symmetry() {
        let m = madrid();
        assert_eq!(haversine_km(&m, &m), 0.0);
        assert!((haversine_km(&m, &berlin()) - haversine_km(&berlin(), &m)).abs() < 1e-9);
    }

    #[test]
    fn haversine_antipodal_near_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(180.0, 0.0);
        let d = haversine_km(&a, &b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let o = GeoPoint::new(0.0, 0.0);
        assert!((initial_bearing_deg(&o, &GeoPoint::new(0.0, 10.0)) - 0.0).abs() < 1e-9);
        assert!((initial_bearing_deg(&o, &GeoPoint::new(10.0, 0.0)) - 90.0).abs() < 1e-9);
        assert!((initial_bearing_deg(&o, &GeoPoint::new(0.0, -10.0)) - 180.0).abs() < 1e-9);
        assert!((initial_bearing_deg(&o, &GeoPoint::new(-10.0, 0.0)) - 270.0).abs() < 1e-9);
    }

    #[test]
    fn destination_round_trip() {
        let o = madrid();
        let d = destination(&o, 45.0, 500.0);
        assert!((haversine_km(&o, &d) - 500.0).abs() < 0.5);
    }

    #[test]
    fn intermediate_point_endpoints_and_midpoint() {
        let (a, b) = (madrid(), berlin());
        let p0 = intermediate_point(&a, &b, 0.0);
        let p1 = intermediate_point(&a, &b, 1.0);
        assert!(haversine_km(&a, &p0) < 1e-6);
        assert!(haversine_km(&b, &p1) < 1e-6);
        let mid = intermediate_point(&a, &b, 0.5);
        let d = haversine_km(&a, &b);
        assert!((haversine_km(&a, &mid) - d / 2.0).abs() < 0.5);
    }

    #[test]
    fn arc_length_matches_direct_distance() {
        let (a, b) = (madrid(), berlin());
        let arc = great_circle_arc(&a, &b, 32);
        assert_eq!(arc.len(), 33);
        let d = haversine_km(&a, &b);
        assert!((polyline_length_km(&arc) - d).abs() < 0.1);
    }

    #[test]
    fn spherical_area_of_equatorial_degree_box() {
        // A 1°×1° box straddling the equator: ~111.19 km × ~111.19 km.
        let ring = [
            GeoPoint::new(0.0, -0.5),
            GeoPoint::new(1.0, -0.5),
            GeoPoint::new(1.0, 0.5),
            GeoPoint::new(0.0, 0.5),
        ];
        let a = spherical_area_km2(&ring);
        let expect = 111.19_f64 * 111.19;
        assert!(
            (a - expect).abs() < expect * 0.01,
            "got {a}, want ~{expect}"
        );
    }

    #[test]
    fn spherical_area_shrinks_with_latitude() {
        let box_at = |lat: f64| {
            spherical_area_km2(&[
                GeoPoint::new(0.0, lat),
                GeoPoint::new(1.0, lat),
                GeoPoint::new(1.0, lat + 1.0),
                GeoPoint::new(0.0, lat + 1.0),
            ])
        };
        let equator = box_at(0.0);
        let mid = box_at(45.0);
        let high = box_at(70.0);
        assert!(equator > mid && mid > high);
        // cos(45°) ≈ 0.707 compression.
        assert!((mid / equator - 0.707).abs() < 0.03, "{}", mid / equator);
    }

    #[test]
    fn spherical_area_degenerate_and_closed_ring() {
        assert_eq!(spherical_area_km2(&[]), 0.0);
        assert_eq!(spherical_area_km2(&[GeoPoint::new(0.0, 0.0)]), 0.0);
        let open = [
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(2.0, 0.0),
            GeoPoint::new(1.0, 1.0),
        ];
        let closed = [
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(2.0, 0.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(0.0, 0.0),
        ];
        let (a, b) = (spherical_area_km2(&open), spherical_area_km2(&closed));
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn point_segment_distance_perpendicular_case() {
        // Segment along the equator, point 1 degree north: distance is
        // ~111.2 km (one degree of latitude).
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(10.0, 0.0);
        let p = GeoPoint::new(5.0, 1.0);
        let d = point_segment_distance_km(&p, &a, &b);
        assert!((d - 111.19).abs() < 1.0, "got {d}");
    }

    #[test]
    fn point_segment_distance_clamps_to_endpoints() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(1.0, 0.0);
        let p = GeoPoint::new(5.0, 0.0);
        let d = point_segment_distance_km(&p, &a, &b);
        assert!((d - haversine_km(&p, &b)).abs() < 2.0, "got {d}");
    }

    #[test]
    fn point_polyline_distance_empty_and_single() {
        let p = GeoPoint::new(0.0, 0.0);
        assert_eq!(point_polyline_distance_km(&p, &[]), f64::INFINITY);
        let q = GeoPoint::new(1.0, 0.0);
        let d = point_polyline_distance_km(&p, &[q]);
        assert!((d - haversine_km(&p, &q)).abs() < 1e-9);
    }
}
