//! Voronoi (Thiessen) cells by half-plane clipping of Delaunay neighbours.
//!
//! Paper §3.1: "we use ArcGIS to divide the entire Earth into a set of 7,342
//! Thiessen polygons that enclose the urban areas … Any point inside each of
//! these Thiessen polygons is geographically closest to the single urban
//! area used to create the polygon."
//!
//! A site's Voronoi cell equals the clip region bounded by the perpendicular
//! bisectors toward its Delaunay neighbours, intersected with the world
//! bounding box. We clip with Sutherland–Hodgman against each bisector
//! half-plane. When a site has no Delaunay neighbours (degenerate inputs) we
//! fall back to clipping against every other site, which is always correct,
//! just slower.

use crate::delaunay::{site_key, triangulate};
use crate::geometry::Polygon;
use crate::point::{BoundingBox, GeoPoint};

/// One Thiessen cell: the site index it belongs to and its polygon.
#[derive(Clone, Debug)]
pub struct VoronoiCell {
    /// Index into the input site slice.
    pub site: usize,
    /// The cell polygon, clipped to the supplied bounding box. Closed ring.
    pub polygon: Polygon,
}

/// Computes the Voronoi cell of every *distinct* site, clipped to `clip`.
///
/// Duplicate sites (`-0.0` equals `0.0`) yield a cell only for the first
/// occurrence (the others would have empty cells). Cells partition the clip
/// box up to boundary measure zero.
pub fn voronoi_cells(sites: &[GeoPoint], clip: &BoundingBox) -> Vec<VoronoiCell> {
    let tri = triangulate(sites);
    let mut seen = std::collections::HashSet::new();
    sites
        .iter()
        .enumerate()
        .filter(|(_, p)| seen.insert(site_key(p)))
        .filter_map(|(i, _)| {
            let ring = if tri.neighbors[i].is_empty() && sites.len() > 1 {
                cell_against_all(sites, i, clip)
            } else {
                cell_from_neighbors(sites, i, &tri.neighbors[i], clip)
            };
            (ring.len() >= 3).then(|| VoronoiCell {
                site: i,
                polygon: Polygon::new(ring, vec![]),
            })
        })
        .collect()
}

/// Cell for `site` using only its Delaunay neighbour set (exact for a
/// correct triangulation).
fn cell_from_neighbors(
    sites: &[GeoPoint],
    site: usize,
    neighbors: &[usize],
    clip: &BoundingBox,
) -> Vec<GeoPoint> {
    clip_all(clip, &sites[site], neighbors.iter().map(|&j| &sites[j]))
}

/// Brute-force cell: clip against every other distinct site.
fn cell_against_all(sites: &[GeoPoint], site: usize, clip: &BoundingBox) -> Vec<GeoPoint> {
    let p = &sites[site];
    let key = site_key(p);
    clip_all(clip, p, sites.iter().filter(|q| site_key(q) != key))
}

/// Clips the box `clip` by the bisector toward each of `others`, in order,
/// ping-ponging between two buffers; stops once the ring is degenerate.
fn clip_all<'a>(
    clip: &BoundingBox,
    keep: &GeoPoint,
    others: impl Iterator<Item = &'a GeoPoint>,
) -> Vec<GeoPoint> {
    let mut ring = bbox_ring(clip);
    let mut next = Vec::with_capacity(8);
    for q in others {
        clip_halfplane(&ring, &mut next, keep, q);
        std::mem::swap(&mut ring, &mut next);
        if ring.len() < 3 {
            break;
        }
    }
    ring
}

fn bbox_ring(b: &BoundingBox) -> Vec<GeoPoint> {
    vec![
        GeoPoint::raw(b.min_lon, b.min_lat),
        GeoPoint::raw(b.max_lon, b.min_lat),
        GeoPoint::raw(b.max_lon, b.max_lat),
        GeoPoint::raw(b.min_lon, b.max_lat),
    ]
}

/// Sutherland–Hodgman clip of `ring` against the half-plane of points
/// closer to `keep` than to `other` (the perpendicular bisector), written
/// over `out`.
fn clip_halfplane(ring: &[GeoPoint], out: &mut Vec<GeoPoint>, keep: &GeoPoint, other: &GeoPoint) {
    // Half-plane: { x : (x - m) · d <= 0 } where m is the midpoint and
    // d = other - keep. Points with s(x) <= 0 are closer to `keep`.
    let mx = (keep.lon + other.lon) / 2.0;
    let my = (keep.lat + other.lat) / 2.0;
    let dx = other.lon - keep.lon;
    let dy = other.lat - keep.lat;
    let s = |p: &GeoPoint| (p.lon - mx) * dx + (p.lat - my) * dy;

    out.clear();
    let n = ring.len();
    for i in 0..n {
        let cur = &ring[i];
        let nxt = &ring[(i + 1) % n];
        let sc = s(cur);
        let sn = s(nxt);
        if sc <= 0.0 {
            out.push(*cur);
            if sn > 0.0 {
                out.push(intersect(cur, nxt, sc, sn));
            }
        } else if sn <= 0.0 {
            out.push(intersect(cur, nxt, sc, sn));
        }
    }
}

fn intersect(a: &GeoPoint, b: &GeoPoint, sa: f64, sb: f64) -> GeoPoint {
    let t = sa / (sa - sb);
    GeoPoint::raw(a.lon + t * (b.lon - a.lon), a.lat + t * (b.lat - a.lat))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sites_split_box_at_bisector() {
        let sites = [GeoPoint::raw(-10.0, 0.0), GeoPoint::raw(10.0, 0.0)];
        let clip = BoundingBox {
            min_lon: -20.0,
            min_lat: -20.0,
            max_lon: 20.0,
            max_lat: 20.0,
        };
        let cells = voronoi_cells(&sites, &clip);
        assert_eq!(cells.len(), 2);
        // Left cell contains points left of lon 0, not right of it.
        let left = &cells[0].polygon;
        assert!(left.contains(&GeoPoint::raw(-5.0, 3.0)));
        assert!(!left.contains(&GeoPoint::raw(5.0, 3.0)));
        let right = &cells[1].polygon;
        assert!(right.contains(&GeoPoint::raw(5.0, -3.0)));
        assert!(!right.contains(&GeoPoint::raw(-5.0, -3.0)));
    }

    #[test]
    fn single_site_owns_whole_box() {
        let sites = [GeoPoint::raw(1.0, 2.0)];
        let cells = voronoi_cells(&sites, &BoundingBox::WORLD);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].polygon.contains(&GeoPoint::raw(-170.0, 80.0)));
        assert!(cells[0].polygon.contains(&GeoPoint::raw(170.0, -80.0)));
    }

    #[test]
    fn duplicates_get_single_cell() {
        let sites = [
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(10.0, 0.0),
        ];
        let cells = voronoi_cells(&sites, &BoundingBox::WORLD);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| c.site == 0));
        assert!(cells.iter().all(|c| c.site != 1));
    }

    /// `-0.0` and `0.0` are one site: a second cell would overlap the first.
    #[test]
    fn negative_zero_site_is_a_duplicate() {
        let sites = [
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(-0.0, 0.0),
            GeoPoint::raw(10.0, 0.0),
            GeoPoint::raw(5.0, 8.0),
        ];
        let cells = voronoi_cells(&sites, &BoundingBox::WORLD);
        let owners: Vec<usize> = cells.iter().map(|c| c.site).collect();
        assert_eq!(owners, vec![0, 2, 3]);
        let probe = GeoPoint::raw(-50.0, 3.0);
        assert_eq!(
            cells.iter().filter(|c| c.polygon.contains(&probe)).count(),
            1
        );
    }

    /// The defining property: every cell contains exactly the points
    /// nearest to its own site.
    #[test]
    fn cells_agree_with_nearest_site_rule() {
        let mut sites = Vec::new();
        let mut x = 0.4321_f64;
        for _ in 0..40 {
            x = (x * 887.0 + 0.123).fract();
            let y = (x * 509.0 + 0.81).fract();
            sites.push(GeoPoint::raw(x * 80.0 - 40.0, y * 60.0 - 30.0));
        }
        let clip = BoundingBox {
            min_lon: -50.0,
            min_lat: -40.0,
            max_lon: 50.0,
            max_lat: 40.0,
        };
        let cells = voronoi_cells(&sites, &clip);
        assert_eq!(cells.len(), sites.len());

        // Probe a grid of points; each must fall in the cell of its
        // planar-nearest site (skip near-tie probes).
        let mut checked = 0;
        for gi in 0..20 {
            for gj in 0..16 {
                let p = GeoPoint::raw(-48.0 + gi as f64 * 5.0, -38.0 + gj as f64 * 5.0);
                let mut dists: Vec<(usize, f64)> = sites
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, s.planar_dist2(&p)))
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                if dists[1].1 - dists[0].1 < 1e-6 {
                    continue; // tie: boundary point, either side acceptable
                }
                let nearest = dists[0].0;
                for c in &cells {
                    let inside = c.polygon.contains(&p);
                    if c.site == nearest {
                        assert!(inside, "probe {p:?} missing from cell of its nearest site");
                    } else {
                        assert!(!inside, "probe {p:?} wrongly inside cell {}", c.site);
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 200, "too few probes checked: {checked}");
    }

    /// Cell areas must tile the clip box (sum of areas == box area).
    #[test]
    fn cell_areas_partition_clip_box() {
        let mut sites = Vec::new();
        let mut x = 0.9_f64;
        for _ in 0..25 {
            x = (x * 777.0 + 0.321).fract();
            let y = (x * 333.0 + 0.57).fract();
            sites.push(GeoPoint::raw(x * 10.0, y * 10.0));
        }
        let clip = BoundingBox {
            min_lon: -5.0,
            min_lat: -5.0,
            max_lon: 15.0,
            max_lat: 15.0,
        };
        let cells = voronoi_cells(&sites, &clip);
        let total: f64 = cells
            .iter()
            .map(|c| c.polygon.signed_area_deg2().abs())
            .sum();
        let box_area = 20.0 * 20.0;
        assert!(
            (total - box_area).abs() < 1e-6 * box_area,
            "total {total} vs {box_area}"
        );
    }

    #[test]
    fn collinear_sites_still_produce_cells() {
        let sites: Vec<GeoPoint> = (0..5)
            .map(|i| GeoPoint::raw(i as f64 * 10.0, 0.0))
            .collect();
        let clip = BoundingBox {
            min_lon: -10.0,
            min_lat: -10.0,
            max_lon: 50.0,
            max_lat: 10.0,
        };
        let cells = voronoi_cells(&sites, &clip);
        assert_eq!(cells.len(), 5);
        // Middle site's cell is the vertical strip around lon 20.
        let mid = cells.iter().find(|c| c.site == 2).unwrap();
        assert!(mid.polygon.contains(&GeoPoint::raw(20.0, 5.0)));
        assert!(!mid.polygon.contains(&GeoPoint::raw(33.0, 5.0)));
    }
}
