//! Convex hulls — the "spatial extent" polygons of Figures 6 and 9.
//!
//! The paper draws each AS's European peering footprint as a translucent
//! polygon ("the spatial extent of the European peering locations is shown
//! as the translucent polygons", §4.5). That polygon is the convex hull of
//! the AS's metro points; this module implements Andrew's monotone-chain
//! hull in planar lon/lat space.

use crate::geometry::Polygon;
use crate::point::GeoPoint;

/// Computes the convex hull of a point set as a counter-clockwise closed
/// [`Polygon`].
///
/// Degenerate inputs degrade gracefully: fewer than three distinct
/// non-collinear points yield `None` (no area to draw).
pub fn convex_hull(points: &[GeoPoint]) -> Option<Polygon> {
    let mut pts: Vec<GeoPoint> = points.iter().filter(|p| p.is_finite()).copied().collect();
    pts.sort_by(|a, b| {
        a.lon
            .partial_cmp(&b.lon)
            .unwrap()
            .then(a.lat.partial_cmp(&b.lat).unwrap())
    });
    pts.dedup_by(|a, b| a.lon == b.lon && a.lat == b.lat);
    if pts.len() < 3 {
        return None;
    }
    let cross = |o: &GeoPoint, a: &GeoPoint, b: &GeoPoint| -> f64 {
        (a.lon - o.lon) * (b.lat - o.lat) - (a.lat - o.lat) * (b.lon - o.lon)
    };
    // Lower hull.
    let mut lower: Vec<GeoPoint> = Vec::new();
    for p in &pts {
        while lower.len() >= 2 && cross(&lower[lower.len() - 2], &lower[lower.len() - 1], p) <= 0.0
        {
            lower.pop();
        }
        lower.push(*p);
    }
    // Upper hull.
    let mut upper: Vec<GeoPoint> = Vec::new();
    for p in pts.iter().rev() {
        while upper.len() >= 2 && cross(&upper[upper.len() - 2], &upper[upper.len() - 1], p) <= 0.0
        {
            upper.pop();
        }
        upper.push(*p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    if lower.len() < 3 {
        return None; // all collinear
    }
    Some(Polygon::new(lower, vec![]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_of_square_with_interior_point() {
        let pts = vec![
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(10.0, 0.0),
            GeoPoint::raw(10.0, 10.0),
            GeoPoint::raw(0.0, 10.0),
            GeoPoint::raw(5.0, 5.0), // interior: must not appear on hull
        ];
        let hull = convex_hull(&pts).unwrap();
        assert_eq!(hull.exterior.len(), 5); // 4 corners + closing point
        assert!(hull.contains(&GeoPoint::raw(5.0, 5.0)));
        assert!(!hull.contains(&GeoPoint::raw(11.0, 5.0)));
        assert!(hull.signed_area_deg2() > 0.0, "hull must be CCW");
    }

    #[test]
    fn hull_contains_every_input_point_strictly_or_on_boundary() {
        let pts: Vec<GeoPoint> = (0..40)
            .map(|i| {
                let x = ((i * 37) % 17) as f64;
                let y = ((i * 23) % 13) as f64;
                GeoPoint::raw(x, y)
            })
            .collect();
        let hull = convex_hull(&pts).unwrap();
        // Interior points must be contained; hull vertices sit on the
        // boundary, where ray casting may go either way, so test a point
        // nudged toward the centroid.
        let c = hull.centroid();
        for p in &pts {
            let nudged = GeoPoint::raw(
                p.lon + (c.lon - p.lon) * 0.01,
                p.lat + (c.lat - p.lat) * 0.01,
            );
            assert!(hull.contains(&nudged), "{p:?} escaped the hull");
        }
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        assert!(convex_hull(&[]).is_none());
        assert!(convex_hull(&[GeoPoint::raw(1.0, 1.0)]).is_none());
        assert!(convex_hull(&[GeoPoint::raw(1.0, 1.0), GeoPoint::raw(2.0, 2.0)]).is_none());
        // Collinear.
        let line: Vec<GeoPoint> = (0..5).map(|i| GeoPoint::raw(i as f64, i as f64)).collect();
        assert!(convex_hull(&line).is_none());
        // Duplicates of one point.
        let dup = vec![GeoPoint::raw(3.0, 3.0); 6];
        assert!(convex_hull(&dup).is_none());
    }

    #[test]
    fn hull_is_convex() {
        let pts: Vec<GeoPoint> = (0..25)
            .map(|i| {
                let x = ((i * 7919) % 100) as f64 / 10.0;
                let y = ((i * 104729) % 100) as f64 / 10.0;
                GeoPoint::raw(x, y)
            })
            .collect();
        let hull = convex_hull(&pts).unwrap();
        let ring = &hull.exterior;
        for i in 0..ring.len() - 1 {
            let o = &ring[i];
            let a = &ring[(i + 1) % (ring.len() - 1)];
            let b = &ring[(i + 2) % (ring.len() - 1)];
            let cross = (a.lon - o.lon) * (b.lat - o.lat) - (a.lat - o.lat) * (b.lon - o.lon);
            assert!(cross >= -1e-9, "reflex vertex at {i}");
        }
    }
}
