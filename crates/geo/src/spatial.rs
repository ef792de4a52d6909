//! The spatial join: nearest-site assignment.
//!
//! This is the one ArcGIS operation at the heart of iGDB's standardization
//! pipeline (paper §3.1): every coordinate of every source is spatially
//! joined to its nearest urban area — equivalently, to the Thiessen cell
//! containing it, so the join never needs the cell geometry.

use crate::batch::{GeoColumns, RefPoint};
use crate::geodesy::{point_polyline_distance_km, point_segment_distance_km};
use crate::point::{BoundingBox, GeoPoint};
use crate::rtree::{point_tree, RTree};
use crate::EARTH_RADIUS_KM;

/// Degrees of latitude per kilometre of meridional great-circle distance —
/// used to convert a kilometre bound into an *exact* latitude-band
/// prefilter (`|Δlat| · π/180 · R` never exceeds the great-circle
/// distance).
const KM_PER_LAT_RAD: f64 = EARTH_RADIUS_KM;

/// Safety slack for the latitude-band prune: the meridional lower bound is
/// mathematically ≤ the haversine distance, but both are rounded, so prune
/// only when the bound clears the target by more than any accumulated ulp
/// error (1 µm in kilometres — far below any data precision here).
const PRUNE_SLACK_KM: f64 = 1e-9;

#[inline]
fn lat_band_lower_bound_km(dlat_deg: f64) -> f64 {
    dlat_deg.abs().to_radians() * KM_PER_LAT_RAD
}

/// Degrees of latitude spanned by one kilometre of meridional distance.
const DEG_PER_KM_LAT: f64 = 180.0 / (std::f64::consts::PI * EARTH_RADIUS_KM);

/// An *exact* planar candidate window: every point within `radius_km`
/// great-circle of `p` lies inside the returned box. `None` means no planar
/// box suffices (the window would cross a pole or the antimeridian, or the
/// radius covers most of the sphere) and the caller must scan every site.
///
/// Latitude: `|Δφ| · R ≤ d` for any great-circle distance `d`, so the band
/// is `radius · 180/(πR)` degrees. Longitude: from the haversine identity,
/// `cos φ_p · cos φ_s · sin²(Δλ/2) ≤ sin²(d / 2R)`, and `cos φ_s` over the
/// reachable band is at least the cosine at the band's extreme latitude —
/// giving `|Δλ| ≤ 2 asin(sin(d/2R) / √(cos φ_p · cos_band))`. Small slacks
/// widen the window so floating-point rounding can only admit extra
/// candidates, never drop a true one.
pub fn exact_window(p: &GeoPoint, radius_km: f64) -> Option<BoundingBox> {
    let lat_pad = radius_km * DEG_PER_KM_LAT + 1e-9;
    let band_extreme = (p.lat.abs() + lat_pad).min(90.0);
    let prod = p.lat.to_radians().cos() * band_extreme.to_radians().cos();
    let s = (radius_km / (2.0 * EARTH_RADIUS_KM))
        .min(std::f64::consts::FRAC_PI_2)
        .sin();
    if prod <= s * s * (1.0 + 1e-9) {
        // The longitude bound degenerates to the full circle.
        return None;
    }
    // The identity bounds |Δλ|/2, so the box half-width is twice the asin.
    let half_lon = 2.0
        * ((s / prod.sqrt()) * (1.0 + 1e-12))
            .min(1.0)
            .asin()
            .to_degrees()
        + 1e-9;
    if half_lon >= 180.0 {
        return None;
    }
    if p.lon - half_lon < -180.0 || p.lon + half_lon > 180.0 {
        // Antimeridian wrap: a planar box cannot express the window.
        return None;
    }
    Some(BoundingBox {
        min_lon: p.lon - half_lon,
        min_lat: p.lat - lat_pad,
        max_lon: p.lon + half_lon,
        max_lat: p.lat + lat_pad,
    })
}

/// The box a segment occupies as
/// [`point_segment_distance_km`](crate::geodesy::point_segment_distance_km)
/// sees it. That function unwraps longitudes, so a segment whose ends lie
/// more than 180° apart runs through the antimeridian and takes the whole
/// longitude range; any other segment takes the tight box of its two ends.
pub fn segment_bbox(a: &GeoPoint, b: &GeoPoint) -> BoundingBox {
    let mut bbox = BoundingBox::from_points([a, b]);
    if (b.lon - a.lon).abs() > 180.0 {
        bbox.min_lon = -180.0;
        bbox.max_lon = 180.0;
    }
    bbox
}

/// A candidate window for
/// [`point_segment_distance_km`](crate::geodesy::point_segment_distance_km)
/// over normalized coordinates: every segment `a`–`b` with both latitudes
/// within `±max_abs_lat` and `point_segment_distance_km(p, a, b) <=
/// radius_km` has a [`segment_bbox`] that meets the returned box. `None`
/// means no planar box suffices and the caller must test every segment.
///
/// That distance is not a metric, so [`exact_window`] alone is too small.
/// Its two haversine endpoint terms are great-circle distances, which
/// `exact_window` covers. Its interior term is an equirectangular estimate
/// whose longitudes are scaled by the cosine of the *segment's*
/// mid-latitude, not of `p`'s: the closest point `c` lies in the segment's
/// box with `|Δlat| ≤ r°` and `|Δlon| · cos(lat₀) ≤ r°` (`r°` the radius
/// in degrees of arc), and `cos(lat₀) ≥ cos(max_abs_lat)`, which gives the
/// second box. The window is the union of the two, or `None` when either
/// is missing, the cosine degenerates, or the box would reach ±180° (where
/// the unwrapping makes far longitudes near).
pub fn segment_window(p: &GeoPoint, radius_km: f64, max_abs_lat: f64) -> Option<BoundingBox> {
    let mut window = exact_window(p, radius_km)?;
    let min_cos = max_abs_lat.to_radians().cos();
    // Stated positively so a NaN bound fails it too.
    let scalable = min_cos > 1e-6 && max_abs_lat <= 90.0;
    if !scalable {
        return None;
    }
    let pad = segment_lat_pad(radius_km);
    window.union(&BoundingBox {
        min_lon: p.lon - pad / min_cos,
        min_lat: p.lat - pad,
        max_lon: p.lon + pad / min_cos,
        max_lat: p.lat + pad,
    });
    (window.min_lon > -180.0 && window.max_lon < 180.0).then_some(window)
}

/// [`segment_window`]'s latitude half-height in degrees: `radius_km` of
/// meridional arc, widened so rounding can only admit.
fn segment_lat_pad(radius_km: f64) -> f64 {
    radius_km * DEG_PER_KM_LAT * (1.0 + 1e-9) + 1e-9
}

/// What a vertex adds to [`segment_window`]'s `max_abs_lat`: its `|lat|`,
/// or ∞ for a longitude outside ±180° (only [`GeoPoint::raw`] makes one),
/// which no planar window covers.
pub fn window_abs_lat(v: &GeoPoint) -> f64 {
    if v.lon.abs() <= 180.0 {
        v.lat.abs()
    } else {
        f64::INFINITY
    }
}

/// Exactly `point_polyline_distance_km(p, polyline) <= radius_km`, with the
/// distance computed only where no bound settles it.
///
/// 1. **Latitude band.** Every term of
///    [`point_segment_distance_km`](crate::geodesy::point_segment_distance_km)
///    is at least `|Δφ| · R` from the polyline's latitude span: a haversine
///    endpoint term by the meridional bound, the interior estimate because
///    its `deg ≥ |ey|` and the closest point's latitude lies in the
///    segment's span. So a `p` farther from the span than [`segment_window`]'s
///    own latitude pad is out, at no trigonometry. The band needs
///    latitudes within ±90° (else a cosine in the haversine turns negative)
///    and a pad under 90° (else the boundary nears the antipode, where
///    `asin` loses the slack).
/// 2. **Segment window.** Only a segment whose [`segment_bbox`] meets
///    [`segment_window`] can be within the radius, so only those are
///    measured, with the scan's own arithmetic, and the first within it
///    answers. `min ≤ r` holds exactly when some segment is `≤ r`, and a
///    NaN distance fails both forms.
/// 3. **Fallback.** With fewer than two vertices, or no window (pole,
///    antimeridian, longitudes outside ±180°), the scan answers.
pub fn polyline_within_km(p: &GeoPoint, polyline: &[GeoPoint], radius_km: f64) -> bool {
    if polyline.len() < 2 {
        return point_polyline_distance_km(p, polyline) <= radius_km;
    }
    let (mut min_lat, mut max_lat, mut max_abs_lat) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for v in polyline {
        min_lat = min_lat.min(v.lat);
        max_lat = max_lat.max(v.lat);
        max_abs_lat = max_abs_lat.max(window_abs_lat(v));
    }
    let pad = segment_lat_pad(radius_km);
    let band_exact = max_abs_lat <= 90.0 && p.lat.abs() <= 90.0 && pad < 90.0;
    if band_exact && (p.lat < min_lat - pad || p.lat > max_lat + pad) {
        return false;
    }
    match segment_window(p, radius_km, max_abs_lat) {
        Some(window) => polyline.windows(2).any(|w| {
            segment_bbox(&w[0], &w[1]).intersects(&window)
                && point_segment_distance_km(p, &w[0], &w[1]) <= radius_km
        }),
        None => point_polyline_distance_km(p, polyline) <= radius_km,
    }
}

/// Nearest-site index over a fixed set of sites (e.g. the 7,342 urban
/// areas). Queries return the site whose *great-circle* distance is
/// minimal, which by construction is the Thiessen cell the query point
/// falls in — so assignment never needs the polygon geometry at all.
///
/// Site coordinates live in struct-of-arrays [`GeoColumns`], so the
/// candidate scans run the batched haversine kernel (cached `cos(lat)`
/// columns, hoisted query-side trig) — bit-identical to the scalar path —
/// and candidates are pruned by an exact latitude-band lower bound before
/// the kernel runs at all.
pub struct NearestSiteIndex {
    tree: RTree<usize>,
    cols: GeoColumns,
    sites: Vec<GeoPoint>,
}

impl NearestSiteIndex {
    /// Builds the index. Sites may contain duplicates; ties resolve to the
    /// lowest index deterministically.
    pub fn new(sites: Vec<GeoPoint>) -> Self {
        let entries = sites.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        Self {
            tree: point_tree(entries),
            cols: GeoColumns::from_points(&sites),
            sites,
        }
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn site(&self, i: usize) -> &GeoPoint {
        &self.sites[i]
    }

    /// Returns `(site_index, great_circle_km)` of the nearest site, or
    /// `None` for an empty index.
    ///
    /// Strategy: use the planar R-tree nearest as a seed (any site works as
    /// a seed; the planar pick is merely a good one), then gather every
    /// site inside the [`exact_window`] for the seed distance and scan
    /// those exactly — skipping any candidate whose meridional lower bound
    /// already exceeds the current best (the bound is exact, so pruned
    /// candidates can neither win nor tie). When no planar window exists
    /// (polar / antimeridian / near-global seed distance) every column is
    /// scanned with the same prune.
    pub fn nearest(&self, p: &GeoPoint) -> Option<(usize, f64)> {
        let (seed, _) = self.tree.nearest_by_center(p)?;
        let seed_idx = *seed;
        let q = RefPoint::new(p);
        let seed_km = self.cols.haversine_km_from(&q, seed_idx);
        let mut best = (seed_idx, seed_km);
        let consider = |idx: usize, best: &mut (usize, f64)| {
            if lat_band_lower_bound_km(self.cols.lat_deg(idx) - p.lat) > best.1 + PRUNE_SLACK_KM {
                return;
            }
            let d = self.cols.haversine_km_from(&q, idx);
            if d < best.1 || (d == best.1 && idx < best.0) {
                *best = (idx, d);
            }
        };
        match exact_window(p, seed_km) {
            Some(window) => {
                for idx in self.tree.query_bbox(&window) {
                    consider(*idx, &mut best);
                }
            }
            None => {
                for idx in 0..self.cols.len() {
                    consider(idx, &mut best);
                }
            }
        }
        Some(best)
    }

    /// All site indexes within `radius_km` great-circle of `p`, sorted by
    /// distance (ties by index). Candidates come from the [`exact_window`]
    /// R-tree pass (or a full column scan when no planar window exists) and
    /// are pruned by the exact latitude-band lower bound before the
    /// haversine kernel runs.
    pub fn within_km(&self, p: &GeoPoint, radius_km: f64) -> Vec<(usize, f64)> {
        let q = RefPoint::new(p);
        let mut out: Vec<(usize, f64)> = Vec::new();
        let consider = |idx: usize, out: &mut Vec<(usize, f64)>| {
            if lat_band_lower_bound_km(self.cols.lat_deg(idx) - p.lat)
                > radius_km + PRUNE_SLACK_KM
            {
                return;
            }
            let d = self.cols.haversine_km_from(&q, idx);
            if d <= radius_km {
                out.push((idx, d));
            }
        };
        match exact_window(p, radius_km) {
            Some(window) => {
                for idx in self.tree.query_bbox(&window) {
                    consider(*idx, &mut out);
                }
            }
            None => {
                for idx in 0..self.cols.len() {
                    consider(idx, &mut out);
                }
            }
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geodesy::haversine_km;

    #[test]
    fn nearest_site_simple() {
        let sites = vec![
            GeoPoint::new(-3.70, 40.42), // Madrid
            GeoPoint::new(2.35, 48.85),  // Paris
            GeoPoint::new(13.40, 52.52), // Berlin
        ];
        let idx = NearestSiteIndex::new(sites);
        let (i, d) = idx.nearest(&GeoPoint::new(2.0, 48.0)).unwrap();
        assert_eq!(i, 1, "should pick Paris");
        assert!(d < 120.0);
    }

    #[test]
    fn nearest_empty_index() {
        let idx = NearestSiteIndex::new(vec![]);
        assert!(idx.nearest(&GeoPoint::new(0.0, 0.0)).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn nearest_handles_high_latitude_compression() {
        // At 80°N a degree of longitude is only ~19 km. Planar nearest in
        // degree space would wrongly prefer a site 3° away in latitude over
        // a site 5° away in longitude; great-circle nearest must not.
        let sites = vec![
            GeoPoint::new(5.0, 80.0), // ~96 km east of probe (at 80°N)
            GeoPoint::new(0.0, 77.0), // ~334 km south of probe
        ];
        let idx = NearestSiteIndex::new(sites);
        let (i, _) = idx.nearest(&GeoPoint::new(0.0, 80.0)).unwrap();
        assert_eq!(i, 0, "must pick the longitudinally-near site");
    }

    #[test]
    fn nearest_matches_exhaustive_scan() {
        let mut sites = Vec::new();
        let mut x = 0.5_f64;
        for _ in 0..300 {
            x = (x * 911.0 + 0.37).fract();
            let y = (x * 477.0 + 0.11).fract();
            sites.push(GeoPoint::new(x * 360.0 - 180.0, y * 170.0 - 85.0));
        }
        let idx = NearestSiteIndex::new(sites.clone());
        for k in 0..40 {
            let probe = GeoPoint::new(
                ((k * 37) % 360) as f64 - 180.0,
                ((k * 23) % 170) as f64 - 85.0,
            );
            let (got, gd) = idx.nearest(&probe).unwrap();
            let (want, wd) = sites
                .iter()
                .enumerate()
                .map(|(i, s)| (i, haversine_km(&probe, s)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                (gd - wd).abs() < 1e-9,
                "probe {probe:?}: got site {got} at {gd}, want {want} at {wd}"
            );
        }
    }

    #[test]
    fn within_km_sorted_and_complete() {
        let sites = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.5, 0.0),  // ~56 km
            GeoPoint::new(0.0, 1.0),  // ~111 km
            GeoPoint::new(3.0, 0.0),  // ~334 km
        ];
        let idx = NearestSiteIndex::new(sites);
        let hits = idx.within_km(&GeoPoint::new(0.0, 0.0), 150.0);
        let ids: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
