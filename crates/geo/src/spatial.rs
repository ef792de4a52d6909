//! The spatial joins: nearest-site assignment and the corridor join.
//!
//! Nearest-site assignment is the one ArcGIS operation at the heart of
//! iGDB's standardization pipeline (paper §3.1): every coordinate of every
//! source is spatially joined to its nearest urban area — equivalently, to
//! the Thiessen cell containing it, so the join never needs the cell
//! geometry. The corridor join (Figure 4) asks whether any segment of a
//! set of polylines lies within a buffer of a point. Both read their
//! candidates from one fixed 1° bucket grid.

use crate::batch::{GeoColumns, RefPoint};
use crate::geodesy::{point_polyline_distance_km, point_segment_distance_km};
use crate::point::{BoundingBox, GeoPoint};
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
/// Sites are bucketed in the fixed 1° [`Grid`], which with a per-cell seed
/// table hands each query a seed and a candidate window. Site coordinates
/// live in struct-of-arrays [`GeoColumns`], so the candidate scans run the
/// batched haversine kernel (cached `cos(lat)` columns, hoisted query-side
/// trig) — bit-identical to the scalar path — and candidates are pruned by
/// an exact latitude-band lower bound before the kernel runs at all.
pub struct NearestSiteIndex {
    grid: Grid,
    /// Per cell, a site in it or in the nearest non-empty cell (in grid
    /// steps), so that a seed costs one lookup however sparse the sites.
    seeds: Vec<u32>,
    cols: GeoColumns,
    sites: Vec<GeoPoint>,
}

impl NearestSiteIndex {
    /// Builds the index. Sites may contain duplicates; ties resolve to the
    /// lowest index deterministically.
    pub fn new(sites: Vec<GeoPoint>) -> Self {
        // A site's box is its own point, NaN and all, so every site lies
        // in exactly one cell (a NaN coordinate clamps to row or column 0).
        let grid = Grid::new(sites.len(), |i| {
            let p = &sites[i];
            BoundingBox {
                min_lon: p.lon,
                min_lat: p.lat,
                max_lon: p.lon,
                max_lat: p.lat,
            }
        });
        Self {
            seeds: seed_table(&grid),
            grid,
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
    /// `None` for an empty index or a query with a non-finite coordinate.
    ///
    /// The answer is the least `(distance, index)` over all sites, found
    /// in three steps:
    ///
    /// 1. **Seed.** The site of `p`'s grid cell planar-nearest to `p`, or
    ///    the cell's seed when the cell is empty. Any site would do; a near
    ///    one keeps the window small.
    /// 2. **Window.** Every site within the seed's distance lies inside
    ///    the [`exact_window`] for that distance, so the grid cells the
    ///    window spans hold the winner. Each candidate is skipped when its
    ///    meridional lower bound already exceeds the current best (the
    ///    bound is exact, so a pruned candidate can neither win nor tie).
    /// 3. **Fallback.** When no planar window exists (polar, antimeridian,
    ///    near-global seed distance) every column is scanned with the same
    ///    prune.
    ///
    /// Neither the seed nor the visiting order changes the least
    /// `(distance, index)`, so the answer does not depend on either.
    pub fn nearest(&self, p: &GeoPoint) -> Option<(usize, f64)> {
        if self.is_empty() || !p.is_finite() {
            return None;
        }
        let seed_idx = self.seed(p);
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
                for idx in self.grid.window(&window) {
                    consider(idx, &mut best);
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

    /// A seed site for `p` (the index must not be empty): the site of `p`'s
    /// cell planar-nearest to it, or the cell's seed when the cell is
    /// empty.
    fn seed(&self, p: &GeoPoint) -> usize {
        let c = cell_index(grid_cell(p.lat, p.lon));
        let mut best = (self.seeds[c] as usize, f64::INFINITY);
        for &i in self.grid.cell(c) {
            let d2 = self.sites[i as usize].planar_dist2(p);
            if d2 < best.1 {
                best = (i as usize, d2);
            }
        }
        best.0
    }

    /// All site indexes within `radius_km` great-circle of `p`, sorted by
    /// distance (ties by index); empty for a query with a non-finite
    /// coordinate. Candidates come from the grid cells the
    /// [`exact_window`] spans (or a full column scan when no planar window
    /// exists) and are pruned by the exact latitude-band lower bound
    /// before the haversine kernel runs.
    pub fn within_km(&self, p: &GeoPoint, radius_km: f64) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::new();
        if !p.is_finite() {
            return out;
        }
        let q = RefPoint::new(p);
        let consider = |idx: usize, out: &mut Vec<(usize, f64)>| {
            if lat_band_lower_bound_km(self.cols.lat_deg(idx) - p.lat) > radius_km + PRUNE_SLACK_KM
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
                for idx in self.grid.window(&window) {
                    consider(idx, &mut out);
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

/// Per cell of a site grid, the first site of the cell or, for an empty
/// cell, the seed of the non-empty cell a breadth-first pass from every
/// non-empty cell reaches it from first.
fn seed_table(grid: &Grid) -> Vec<u32> {
    let cells = GRID_ROWS * GRID_COLS;
    let mut seeds = vec![u32::MAX; cells];
    let mut queue: Vec<u32> = Vec::with_capacity(cells);
    for (c, seed) in seeds.iter_mut().enumerate() {
        if let Some(&first) = grid.cell(c).first() {
            *seed = first;
            queue.push(c as u32);
        }
    }
    let mut head = 0;
    while let Some(&c) = queue.get(head) {
        head += 1;
        let c = c as usize;
        let (row, col) = (c / GRID_COLS, c % GRID_COLS);
        let neighbours = [
            (row > 0).then(|| c - GRID_COLS),
            (row + 1 < GRID_ROWS).then(|| c + GRID_COLS),
            (col > 0).then(|| c - 1),
            (col + 1 < GRID_COLS).then(|| c + 1),
        ];
        for n in neighbours.into_iter().flatten() {
            if seeds[n] == u32::MAX {
                seeds[n] = seeds[c];
                queue.push(n as u32);
            }
        }
    }
    seeds
}

/// The segments of a set of polylines in the 1° [`Grid`], answering "is
/// any segment within `r` km of this point?" with the same arithmetic as a
/// scan of [`point_polyline_distance_km`] — the grid only chooses which
/// segments are tested. This is the Figure 4 corridor join: a long-haul
/// vertex against every inferred conduit, and a conduit vertex against
/// every long-haul link.
pub struct SegmentIndex {
    /// Each segment listed under every cell its [`segment_bbox`] covers.
    grid: Grid,
    /// `(polyline, first vertex of the segment)`, the grid's item ids. A
    /// one-vertex polyline is the degenerate segment `(i, 0)`, whose
    /// distance is the point distance the scan takes; an empty polyline
    /// has no entry, and is at distance ∞ in the scan.
    segments: Vec<(u32, u32)>,
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
    /// Indexes every segment of `polylines`.
    pub fn new<P: AsRef<[GeoPoint]>>(polylines: &[P]) -> Self {
        // Sized exactly: the index keeps this vector.
        let total = polylines
            .iter()
            .map(|p| segment_count(p.as_ref().len()))
            .sum();
        let mut segments = Vec::with_capacity(total);
        let mut max_abs_lat = 0.0f64;
        for (pi, polyline) in polylines.iter().enumerate() {
            let polyline = polyline.as_ref();
            for p in polyline {
                max_abs_lat = max_abs_lat.max(window_abs_lat(p));
            }
            for si in 0..segment_count(polyline.len()) {
                segments.push((pi as u32, si as u32));
            }
        }
        let bbox_of = |i: usize| {
            let (pi, si) = segments[i];
            let (a, b) = segment_ends(polylines[pi as usize].as_ref(), si as usize);
            segment_bbox(a, b)
        };
        Self {
            grid: Grid::new(segments.len(), bbox_of),
            segments,
            max_abs_lat,
        }
    }

    /// True if some polyline `i` with `keep(i)` has
    /// `point_polyline_distance_km(v, polylines[i]) <= radius_km`.
    /// `polylines` must be the set the index was built over. Where no
    /// planar window exists for `v` (see [`segment_window`]) every kept
    /// polyline is scanned.
    pub fn any_within<P: AsRef<[GeoPoint]>>(
        &self,
        polylines: &[P],
        v: &GeoPoint,
        radius_km: f64,
        keep: impl Fn(usize) -> bool,
    ) -> bool {
        match segment_window(v, radius_km, self.max_abs_lat) {
            Some(window) => self.grid.window(&window).any(|i| {
                let (pi, si) = self.segments[i];
                let (a, b) = segment_ends(polylines[pi as usize].as_ref(), si as usize);
                segment_bbox(a, b).intersects(&window)
                    && keep(pi as usize)
                    && point_segment_distance_km(v, a, b) <= radius_km
            }),
            None => polylines.iter().enumerate().any(|(pi, polyline)| {
                keep(pi) && point_polyline_distance_km(v, polyline.as_ref()) <= radius_km
            }),
        }
    }
}

/// Grid rows (1° of latitude each, from the south pole) and columns (1° of
/// longitude each, from the antimeridian). The cell size is fixed. On the
/// benchmark world (8,000 sites) 2° cells read the nearest-site join slower
/// and 0.5° cells about a fifth faster, but 0.5° quadruples the per-cell
/// tables, which are 253 KB each at 1°.
const GRID_ROWS: usize = 180;
const GRID_COLS: usize = 360;

/// The grid cell of a coordinate, `(row, col)`, clamped into the grid (a
/// NaN lands in row or column 0). Item boxes and window corners both go
/// through it, and it is monotone in each coordinate, so every box that
/// meets a window has a cell between the cells of the window's corners.
#[inline]
fn grid_cell(lat: f64, lon: f64) -> (usize, usize) {
    let row = (lat + 90.0).clamp(0.0, (GRID_ROWS - 1) as f64) as usize;
    let col = (lon + 180.0).clamp(0.0, (GRID_COLS - 1) as f64) as usize;
    (row, col)
}

#[inline]
fn cell_index((row, col): (usize, usize)) -> usize {
    row * GRID_COLS + col
}

/// The one window index: items listed under every [`grid_cell`] their
/// boxes cover, in compressed rows. The items of cell `c` are
/// `ids[offsets[c]..offsets[c + 1]]`, ascending. A row's cells are
/// contiguous, so a window reads one slice per row it spans.
struct Grid {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Grid {
    /// Lists each item `i` of `0..n` under every cell from the cell of
    /// `bbox_of(i)`'s south-west corner to that of its north-east one; an
    /// inverted box is listed nowhere.
    fn new(n: usize, bbox_of: impl Fn(usize) -> BoundingBox) -> Self {
        let cells = GRID_ROWS * GRID_COLS;
        let mut offsets = vec![0u32; cells + 1];
        for i in 0..n {
            for c in covered_cells(&bbox_of(i)) {
                offsets[c + 1] += 1;
            }
        }
        for c in 0..cells {
            offsets[c + 1] += offsets[c];
        }
        // Filling in item order keeps each cell's ids ascending.
        let mut next = offsets.clone();
        let mut ids = vec![0u32; offsets[cells] as usize];
        for i in 0..n {
            for c in covered_cells(&bbox_of(i)) {
                ids[next[c] as usize] = i as u32;
                next[c] += 1;
            }
        }
        Self { offsets, ids }
    }

    /// The items of one cell.
    fn cell(&self, c: usize) -> &[u32] {
        &self.ids[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Every item listed in the cells from `window`'s south-west corner
    /// cell to its north-east one: a superset of the items whose boxes meet
    /// it, an item once per cell it shares with the window. A window
    /// inverted by more than a cell (only a negative radius makes one)
    /// yields none rather than a reversed slice.
    fn window<'a>(&'a self, window: &BoundingBox) -> impl Iterator<Item = usize> + 'a {
        let (row0, col0) = grid_cell(window.min_lat, window.min_lon);
        let (row1, col1) = grid_cell(window.max_lat, window.max_lon);
        (row0..=row1).flat_map(move |row| {
            let base = row * GRID_COLS;
            let start = self.offsets[base + col0] as usize;
            let end = self.offsets[base + col1 + 1] as usize;
            self.ids[start..end.max(start)].iter().map(|&i| i as usize)
        })
    }
}

/// The cells a box covers, row by row.
fn covered_cells(bbox: &BoundingBox) -> impl Iterator<Item = usize> {
    let (row0, col0) = grid_cell(bbox.min_lat, bbox.min_lon);
    let (row1, col1) = grid_cell(bbox.max_lat, bbox.max_lon);
    (row0..=row1).flat_map(move |row| (col0..=col1).map(move |col| cell_index((row, col))))
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
    fn non_finite_queries_find_nothing() {
        let idx = NearestSiteIndex::new(vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(10.0, 10.0)]);
        for p in [
            GeoPoint::raw(f64::NAN, 0.0),
            GeoPoint::raw(0.0, f64::NAN),
            GeoPoint::raw(f64::INFINITY, 0.0),
            GeoPoint::raw(0.0, f64::NEG_INFINITY),
        ] {
            assert_eq!(idx.nearest(&p), None, "{p:?}");
            assert!(idx.within_km(&p, f64::INFINITY).is_empty(), "{p:?}");
        }
    }

    /// An item is listed in every cell its box covers, so a window that
    /// meets only the box's interior cells still yields it, once per cell
    /// it shares; an inverted window yields nothing.
    #[test]
    fn grid_window_yields_a_multi_cell_item() {
        let boxes = [
            BoundingBox {
                min_lon: 10.5,
                min_lat: 20.5,
                max_lon: 14.5,
                max_lat: 23.5,
            },
            BoundingBox {
                min_lon: -40.0,
                min_lat: -10.0,
                max_lon: -40.0,
                max_lat: -10.0,
            },
        ];
        let grid = Grid::new(boxes.len(), |i| boxes[i]);
        assert_eq!(grid.ids.len(), 5 * 4 + 1);
        let inner = BoundingBox {
            min_lon: 12.2,
            min_lat: 21.2,
            max_lon: 13.8,
            max_lat: 21.8,
        };
        assert_eq!(grid.window(&inner).collect::<Vec<_>>(), vec![0, 0]);
        assert_eq!(
            grid.window(&BoundingBox::WORLD).filter(|&i| i == 1).count(),
            1
        );
        let inverted = BoundingBox {
            min_lon: 14.5,
            min_lat: 23.5,
            max_lon: 10.5,
            max_lat: 20.5,
        };
        assert_eq!(grid.window(&inverted).count(), 0);
        assert_eq!(grid.window(&BoundingBox::empty()).count(), 0);
    }

    #[test]
    fn within_km_sorted_and_complete() {
        let sites = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.5, 0.0), // ~56 km
            GeoPoint::new(0.0, 1.0), // ~111 km
            GeoPoint::new(3.0, 0.0), // ~334 km
        ];
        let idx = NearestSiteIndex::new(sites);
        let hits = idx.within_km(&GeoPoint::new(0.0, 0.0), 150.0);
        let ids: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
