//! Bowyer–Watson Delaunay triangulation in planar lon/lat space.
//!
//! iGDB's name-standardization step needs the Thiessen (Voronoi) diagram of
//! 7,342 urban areas (paper §3.1). We obtain it by dualizing a Delaunay
//! triangulation: a site's Voronoi cell is exactly the intersection of the
//! half-planes toward its Delaunay neighbours, so [`crate::voronoi`] only
//! needs the neighbour sets this module produces.
//!
//! The implementation is the classic incremental Bowyer–Watson algorithm
//! with triangle adjacency and walk-based point location. Sites go in a
//! fixed-stride order, so consecutive sites lie far apart: a walk started
//! at the last triangle made took 706,191 steps over 8,000 synthetic urban
//! areas and 2,695,550 over 20,000, i.e. `O(n^1.5)`. The walk instead
//! starts from a 64×64 grid over the sites' box, whose cells remember a
//! triangle made by their last insertion: 155,520 and 346,890 steps, 19
//! and 17 per site. Per-insertion sets are stamp vectors and reused
//! buffers, so an insertion allocates only the triangles it makes.
//! Coordinates are treated as planar; that matches the paper, whose ArcGIS
//! tessellation is likewise a projected planar construction.

use crate::point::GeoPoint;

/// A triangle as three site indexes (counter-clockwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tri(pub usize, pub usize, pub usize);

/// Result of triangulating a site set.
pub struct Triangulation {
    /// The input sites (deduplicated view is internal; indexes here refer to
    /// the original slice passed to [`triangulate`]).
    pub triangles: Vec<Tri>,
    /// For each input site, the sorted, deduplicated list of Delaunay
    /// neighbour site indexes. Duplicated input points get the neighbours of
    /// their representative.
    pub neighbors: Vec<Vec<usize>>,
}

/// No neighbour across an edge (the super-triangle's outer edges).
const NONE: u32 = u32::MAX;

/// Side of the coarse grid the point-location walk starts from.
const GRID: usize = 64;

#[derive(Clone, Copy)]
struct Triangle {
    /// Vertex indexes into the working point array (sites + 3 super
    /// vertices at the end).
    v: [u32; 3],
    /// Neighbour across edge i, where edge i joins `v[i]` and `v[(i+1)%3]`;
    /// [`NONE`] on the hull of the super-triangle.
    n: [u32; 3],
    alive: bool,
}

impl Triangle {
    fn vertex<'a>(&self, pts: &'a [GeoPoint], i: usize) -> &'a GeoPoint {
        &pts[self.v[i] as usize]
    }
}

/// The bit pattern two sites must share to be duplicates: `-0.0` and `0.0`
/// are the same coordinate.
pub(crate) fn site_key(p: &GeoPoint) -> (u64, u64) {
    ((p.lon + 0.0).to_bits(), (p.lat + 0.0).to_bits())
}

/// Computes the Delaunay triangulation of `sites`.
///
/// Exact duplicate points are collapsed (the first occurrence wins, later
/// duplicates inherit its neighbours; `-0.0` equals `0.0`). Fewer than 3
/// distinct sites yield an empty triangle list but still-correct (empty or
/// single) neighbour sets.
pub fn triangulate(sites: &[GeoPoint]) -> Triangulation {
    triangulate_with(sites, |pts, sv| Insertion::new(pts, sv).run())
}

/// [`triangulate`] around an insertion kernel: `insert_all(pts, sv)` gets
/// `sv` distinct sites followed by the 3 super-triangle vertices and returns
/// the vertex indexes of every triangle alive at the end.
fn triangulate_with(
    sites: &[GeoPoint],
    insert_all: impl FnOnce(&[GeoPoint], usize) -> Vec<[usize; 3]>,
) -> Triangulation {
    let n = sites.len();
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Deduplicate exactly-coincident sites.
    let mut rep: Vec<usize> = (0..n).collect();
    {
        let mut seen: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::new();
        for (i, p) in sites.iter().enumerate() {
            match seen.entry(site_key(p)) {
                std::collections::hash_map::Entry::Occupied(e) => rep[i] = *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }
    let distinct: Vec<usize> = (0..n).filter(|&i| rep[i] == i).collect();
    if distinct.len() < 3 {
        // No triangles; neighbours are the other distinct site, if any.
        if distinct.len() == 2 {
            let (a, b) = (distinct[0], distinct[1]);
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        propagate_duplicate_neighbors(&rep, &mut neighbors);
        return Triangulation {
            triangles: Vec::new(),
            neighbors,
        };
    }

    let sv = distinct.len();
    let alive = insert_all(&with_super_triangle(sites, &distinct), sv);

    // Harvest: triangles with no super vertex; neighbour sets from all
    // alive triangles (including super ones, whose site-site edges still
    // encode hull adjacency).
    let mut triangles = Vec::new();
    for v in alive {
        for e in 0..3 {
            let (a, bv) = (v[e], v[(e + 1) % 3]);
            if a < sv && bv < sv {
                let (oa, ob) = (distinct[a], distinct[bv]);
                neighbors[oa].push(ob);
                neighbors[ob].push(oa);
            }
        }
        if v.iter().all(|&x| x < sv) {
            triangles.push(Tri(distinct[v[0]], distinct[v[1]], distinct[v[2]]));
        }
    }
    for v in neighbors.iter_mut() {
        v.sort_unstable();
        v.dedup();
    }
    propagate_duplicate_neighbors(&rep, &mut neighbors);
    Triangulation {
        triangles,
        neighbors,
    }
}

/// Working point array: the distinct sites, then 3 super-triangle vertices.
fn with_super_triangle(sites: &[GeoPoint], distinct: &[usize]) -> Vec<GeoPoint> {
    let mut pts: Vec<GeoPoint> = distinct.iter().map(|&i| sites[i]).collect();
    let b = crate::point::BoundingBox::from_points(pts.iter());
    let span = ((b.max_lon - b.min_lon).max(b.max_lat - b.min_lat)).max(1.0);
    let c = b.center();
    let m = 64.0 * span;
    pts.push(GeoPoint::raw(c.lon - m, c.lat - m * 0.6));
    pts.push(GeoPoint::raw(c.lon + m, c.lat - m * 0.6));
    pts.push(GeoPoint::raw(c.lon, c.lat + m));
    pts
}

/// Bowyer–Watson insertion state. Every per-insertion set is a stamp
/// vector or a reused buffer, so an insertion allocates only the
/// triangles it creates.
struct Insertion<'a> {
    pts: &'a [GeoPoint],
    tris: Vec<Triangle>,
    /// `seen[t] == stamp`: triangle `t` was queued by this insertion's
    /// cavity search; `cavity[t] == stamp`: it is in the cavity.
    seen: Vec<u32>,
    cavity: Vec<u32>,
    stamp: u32,
    /// Per working vertex: (stamp, the new triangle whose edge `(p, v)` /
    /// `(v, p)` this insertion created), for stitching the fan.
    fan_from: Vec<(u32, u32)>,
    fan_to: Vec<(u32, u32)>,
    queue: Vec<u32>,
    bad: Vec<u32>,
    /// Cavity boundary edges `(a, b, outer neighbour)`.
    boundary: Vec<(u32, u32, u32)>,
    /// A triangle made by the last insertion into each grid cell (or
    /// [`NONE`]): the walk to the next point in that cell starts there.
    grid: Vec<u32>,
    origin: GeoPoint,
    scale: (f64, f64),
    /// First triangle made by the last insertion; always alive.
    last: u32,
}

impl<'a> Insertion<'a> {
    /// `pts` holds `sv` sites followed by the 3 super-triangle vertices.
    fn new(pts: &'a [GeoPoint], sv: usize) -> Self {
        let b = crate::point::BoundingBox::from_points(pts[..sv].iter());
        let per = |w: f64| if w > 0.0 { GRID as f64 / w } else { 0.0 };
        Self {
            pts,
            tris: vec![Triangle {
                v: ccw(pts, [sv, sv + 1, sv + 2]).map(|x| x as u32),
                n: [NONE; 3],
                alive: true,
            }],
            seen: vec![0],
            cavity: vec![0],
            stamp: 0,
            fan_from: vec![(0, NONE); pts.len()],
            fan_to: vec![(0, NONE); pts.len()],
            queue: Vec::new(),
            bad: Vec::new(),
            boundary: Vec::new(),
            grid: vec![NONE; GRID * GRID],
            origin: GeoPoint::raw(b.min_lon, b.min_lat),
            scale: (per(b.max_lon - b.min_lon), per(b.max_lat - b.min_lat)),
            last: 0,
        }
    }

    fn grid_cell(&self, p: &GeoPoint) -> usize {
        let x = (((p.lon - self.origin.lon) * self.scale.0) as usize).min(GRID - 1);
        let y = (((p.lat - self.origin.lat) * self.scale.1) as usize).min(GRID - 1);
        y * GRID + x
    }

    /// Inserts every site in stride order; returns the vertexes of every
    /// alive triangle.
    fn run(mut self) -> Vec<[usize; 3]> {
        // Shuffle-free deterministic insertion order that still avoids the
        // adversarial sorted-input case: a fixed-stride permutation.
        let sv = self.pts.len() - 3;
        for pi in stride_permutation(sv) {
            self.insert(pi as u32);
        }
        let alive = self.tris.iter().filter(|t| t.alive);
        alive.map(|t| t.v.map(|x| x as usize)).collect()
    }

    fn insert(&mut self, pi: u32) {
        let p = self.pts[pi as usize];
        self.stamp += 1;
        let stamp = self.stamp;
        let cell = self.grid_cell(&p);
        let hint = self.grid[cell];
        let from = if hint != NONE && self.tris[hint as usize].alive {
            hint
        } else {
            self.last
        };
        // Collect the cavity: all triangles whose circumcircle contains p,
        // searched depth-first from the triangle the walk ends in.
        let start = walk_to_containing(self.pts, &self.tris, from, &p);
        self.bad.clear();
        self.queue.clear();
        self.queue.push(start);
        self.seen[start as usize] = stamp;
        while let Some(t) = self.queue.pop() {
            let tri = self.tris[t as usize];
            if !tri.alive {
                continue;
            }
            if in_circumcircle(self.pts, &tri, &p) {
                self.bad.push(t);
                for nb in tri.n {
                    if nb != NONE && self.seen[nb as usize] != stamp {
                        self.seen[nb as usize] = stamp;
                        self.queue.push(nb);
                    }
                }
            }
        }
        if self.bad.is_empty() {
            // Numerically degenerate (p on an edge/vertex); fall back to a
            // global scan to stay correct.
            for (ti, t) in self.tris.iter().enumerate() {
                if t.alive && in_circumcircle(self.pts, t, &p) {
                    self.bad.push(ti as u32);
                }
            }
            if self.bad.is_empty() {
                return; // effectively a duplicate; skip
            }
        }
        for &ti in &self.bad {
            self.cavity[ti as usize] = stamp;
        }
        // Boundary edges of the cavity.
        self.boundary.clear();
        for &ti in &self.bad {
            let t = &mut self.tris[ti as usize];
            for e in 0..3 {
                let nb = t.n[e];
                if nb == NONE || self.cavity[nb as usize] != stamp {
                    self.boundary.push((t.v[e], t.v[(e + 1) % 3], nb));
                }
            }
            t.alive = false;
        }
        // Create new triangles (p, a, b) per boundary edge.
        assert!(
            self.tris.len() + self.boundary.len() < NONE as usize,
            "triangle ids overflow u32"
        );
        let first = self.tris.len() as u32;
        for &(a, bv, outer) in &self.boundary {
            let idx = self.tris.len() as u32;
            self.tris.push(Triangle {
                v: [pi, a, bv],
                n: [NONE, outer, NONE], // edge1 = (a,b) faces outer
                alive: true,
            });
            self.seen.push(0);
            self.cavity.push(0);
            // Fix the outer neighbour's back-pointer.
            if outer != NONE {
                let on = &mut self.tris[outer as usize];
                for e in 0..3 {
                    if (on.v[e] == bv && on.v[(e + 1) % 3] == a)
                        || (on.v[e] == a && on.v[(e + 1) % 3] == bv)
                    {
                        on.n[e] = idx;
                    }
                }
            }
            self.fan_from[a as usize] = (stamp, idx); // edge0 = (p,a)
            self.fan_to[bv as usize] = (stamp, idx); // edge2 = (b,p)
        }
        // Stitch new triangles to each other: edge (p,a) of one matches
        // edge (a,p) of the triangle whose boundary edge ends at a.
        let end = self.tris.len() as u32;
        for idx in first..end {
            let [_, a, bv] = self.tris[idx as usize].v;
            let (s, other) = self.fan_to[a as usize];
            if s == stamp {
                self.tris[idx as usize].n[0] = other; // across (p,a)
            }
            let (s, other) = self.fan_from[bv as usize];
            if s == stamp {
                self.tris[idx as usize].n[2] = other; // across (b,p)
            }
        }
        if first < end {
            self.last = first;
            self.grid[cell] = first;
        }
    }
}

fn propagate_duplicate_neighbors(rep: &[usize], neighbors: &mut [Vec<usize>]) {
    for i in 0..rep.len() {
        if rep[i] != i {
            neighbors[i] = neighbors[rep[i]].clone();
        }
    }
}

/// Deterministic pseudo-shuffle: visits indexes with a stride coprime to n.
fn stride_permutation(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut stride = (n as f64 * 0.618_033_9).round() as usize; // golden ratio
    stride = stride.max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..n).map(|i| (i * stride) % n).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn ccw(pts: &[GeoPoint], v: [usize; 3]) -> [usize; 3] {
    if orient(&pts[v[0]], &pts[v[1]], &pts[v[2]]) < 0.0 {
        [v[0], v[2], v[1]]
    } else {
        v
    }
}

/// Twice the signed area of triangle abc (positive = counter-clockwise).
fn orient(a: &GeoPoint, b: &GeoPoint, c: &GeoPoint) -> f64 {
    (b.lon - a.lon) * (c.lat - a.lat) - (b.lat - a.lat) * (c.lon - a.lon)
}

/// True if `p` lies strictly inside the circumcircle of (ccw) triangle `t`.
fn in_circumcircle(pts: &[GeoPoint], t: &Triangle, p: &GeoPoint) -> bool {
    in_circle(t.vertex(pts, 0), t.vertex(pts, 1), t.vertex(pts, 2), p)
}

fn in_circle(a: &GeoPoint, b: &GeoPoint, c: &GeoPoint, p: &GeoPoint) -> bool {
    let (ax, ay) = (a.lon - p.lon, a.lat - p.lat);
    let (bx, by) = (b.lon - p.lon, b.lat - p.lat);
    let (cx, cy) = (c.lon - p.lon, c.lat - p.lat);
    let det = (ax * ax + ay * ay) * (bx * cy - cx * by) - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay);
    det > 0.0
}

/// Walks from the alive triangle `start` toward the triangle containing `p`.
fn walk_to_containing(pts: &[GeoPoint], tris: &[Triangle], start: u32, p: &GeoPoint) -> u32 {
    let mut cur = start;
    let mut steps = 0usize;
    let max_steps = tris.len() * 4 + 16;
    'walk: loop {
        let t = &tris[cur as usize];
        for e in 0..3 {
            if orient(t.vertex(pts, e), t.vertex(pts, (e + 1) % 3), p) < -1e-13 {
                let nb = t.n[e];
                if nb != NONE && tris[nb as usize].alive {
                    cur = nb;
                    steps += 1;
                    if steps > max_steps {
                        break 'walk;
                    }
                    continue 'walk;
                }
            }
        }
        return cur;
    }
    // Fallback: linear scan for any alive triangle containing p.
    let found = tris
        .iter()
        .position(|t| t.alive && triangle_contains(pts, t, p))
        .or_else(|| tris.iter().position(|t| t.alive))
        .expect("alive triangle");
    found as u32
}

fn triangle_contains(pts: &[GeoPoint], t: &Triangle, p: &GeoPoint) -> bool {
    (0..3).all(|e| orient(t.vertex(pts, e), t.vertex(pts, (e + 1) % 3), p) >= -1e-13)
}

/// The plain insertion loop: hash-set cavities, `usize` ids, every walk
/// starting at the last triangle made. The equivalence tests hold
/// [`Insertion`] to its neighbour lists and triangle sets.
#[cfg(test)]
mod reference {
    use super::{ccw, in_circle, orient, stride_permutation, GeoPoint};
    use std::collections::{HashMap, HashSet};

    #[derive(Clone)]
    struct Triangle {
        v: [usize; 3],
        n: [Option<usize>; 3],
        alive: bool,
    }

    fn in_circumcircle(pts: &[GeoPoint], t: &Triangle, p: &GeoPoint) -> bool {
        in_circle(&pts[t.v[0]], &pts[t.v[1]], &pts[t.v[2]], p)
    }

    pub(super) fn insert_all(pts: &[GeoPoint], sv: usize) -> Vec<[usize; 3]> {
        let mut tris: Vec<Triangle> = vec![Triangle {
            v: ccw(pts, [sv, sv + 1, sv + 2]),
            n: [None, None, None],
            alive: true,
        }];
        let mut last_alive = 0usize;
        for pi in stride_permutation(sv) {
            let p = pts[pi];
            let start = walk_to_containing(pts, &tris, last_alive, &p);
            let mut bad = Vec::new();
            let mut seen = HashSet::new();
            let mut queue = vec![start];
            seen.insert(start);
            while let Some(t) = queue.pop() {
                if !tris[t].alive {
                    continue;
                }
                if in_circumcircle(pts, &tris[t], &p) {
                    bad.push(t);
                    for nb in tris[t].n.iter().flatten() {
                        if seen.insert(*nb) {
                            queue.push(*nb);
                        }
                    }
                }
            }
            if bad.is_empty() {
                for (ti, t) in tris.iter().enumerate() {
                    if t.alive && in_circumcircle(pts, t, &p) {
                        bad.push(ti);
                    }
                }
                if bad.is_empty() {
                    continue;
                }
            }
            let bad_set: HashSet<usize> = bad.iter().copied().collect();
            let mut boundary: Vec<(usize, usize, Option<usize>)> = Vec::new();
            for &ti in &bad {
                let t = tris[ti].clone();
                for e in 0..3 {
                    let nb = t.n[e];
                    if !nb.is_some_and(|x| bad_set.contains(&x)) {
                        boundary.push((t.v[e], t.v[(e + 1) % 3], nb));
                    }
                }
                tris[ti].alive = false;
            }
            let mut edge_to_tri: HashMap<(usize, usize), usize> = HashMap::new();
            let mut created = Vec::with_capacity(boundary.len());
            for &(a, bv, outer) in &boundary {
                let idx = tris.len();
                tris.push(Triangle {
                    v: [pi, a, bv],
                    n: [None, outer, None],
                    alive: true,
                });
                if let Some(o) = outer {
                    let on = &mut tris[o];
                    for e in 0..3 {
                        if (on.v[e] == bv && on.v[(e + 1) % 3] == a)
                            || (on.v[e] == a && on.v[(e + 1) % 3] == bv)
                        {
                            on.n[e] = Some(idx);
                        }
                    }
                }
                edge_to_tri.insert((pi, a), idx);
                edge_to_tri.insert((bv, pi), idx);
                created.push(idx);
            }
            for &idx in &created {
                let (a, bv) = (tris[idx].v[1], tris[idx].v[2]);
                if let Some(&other) = edge_to_tri.get(&(a, pi)) {
                    tris[idx].n[0] = Some(other);
                }
                if let Some(&other) = edge_to_tri.get(&(pi, bv)) {
                    tris[idx].n[2] = Some(other);
                }
            }
            if let Some(&first) = created.first() {
                last_alive = first;
            }
        }
        tris.iter().filter(|t| t.alive).map(|t| t.v).collect()
    }

    fn walk_to_containing(
        pts: &[GeoPoint],
        tris: &[Triangle],
        start: usize,
        p: &GeoPoint,
    ) -> usize {
        let mut cur = start;
        if !tris[cur].alive {
            cur = tris.iter().rposition(|t| t.alive).expect("alive triangle");
        }
        let mut steps = 0usize;
        let max_steps = tris.len() * 4 + 16;
        'walk: loop {
            let t = &tris[cur];
            for e in 0..3 {
                if orient(&pts[t.v[e]], &pts[t.v[(e + 1) % 3]], p) < -1e-13 {
                    if let Some(nb) = t.n[e] {
                        if tris[nb].alive {
                            cur = nb;
                            steps += 1;
                            if steps > max_steps {
                                break 'walk;
                            }
                            continue 'walk;
                        }
                    }
                }
            }
            return cur;
        }
        let contains = |t: &Triangle| {
            (0..3).all(|e| orient(&pts[t.v[e]], &pts[t.v[(e + 1) % 3]], p) >= -1e-13)
        };
        tris.iter()
            .position(|t| t.alive && contains(t))
            .or_else(|| tris.iter().position(|t| t.alive))
            .expect("alive triangle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Triangles as a set: each rotated to start at its smallest index
    /// (orientation kept), then sorted.
    fn triangle_set(t: &Triangulation) -> Vec<[usize; 3]> {
        let mut set: Vec<[usize; 3]> = t
            .triangles
            .iter()
            .map(|&Tri(a, b, c)| {
                let mut v = [a, b, c];
                let lo = (0..3).min_by_key(|&i| v[i]).expect("three vertices");
                v.rotate_left(lo);
                v
            })
            .collect();
        set.sort_unstable();
        set
    }

    fn assert_matches_reference(sites: &[GeoPoint]) {
        let got = triangulate(sites);
        let want = triangulate_with(sites, reference::insert_all);
        assert_eq!(got.neighbors, want.neighbors, "neighbour lists differ");
        assert_eq!(
            triangle_set(&got),
            triangle_set(&want),
            "triangle sets differ"
        );
    }

    fn lcg_points(n: usize, mut seed: u64, w: f64, h: f64) -> Vec<GeoPoint> {
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| GeoPoint::raw(next() * w - w / 2.0, next() * h - h / 2.0))
            .collect()
    }

    /// Sizes where the 64×64 start grid holds several sites per cell, so
    /// most walks start from a grid hint rather than the last triangle.
    #[test]
    fn matches_reference_at_grid_scale() {
        assert_matches_reference(&lcg_points(6_000, 42, 360.0, 170.0));
        assert_matches_reference(&lcg_points(3_000, 7, 1.0, 1e-3));
        // A cocircular integer grid: every cell of it is a degenerate quad.
        let grid: Vec<GeoPoint> = (0..3_600)
            .map(|i| GeoPoint::raw((i % 60) as f64, (i / 60) as f64))
            .collect();
        assert_matches_reference(&grid);
    }

    fn arb_coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => -180.0f64..180.0,
            1 => (-20i32..20).prop_map(f64::from),
            1 => Just(0.0),
            1 => Just(-0.0),
        ]
    }

    fn arb_site_set() -> impl Strategy<Value = Vec<GeoPoint>> {
        prop_oneof![
            // Random scatter, with integer, zero and negative-zero coordinates.
            proptest::collection::vec((arb_coord(), arb_coord()), 0..160)
                .prop_map(|v| v.into_iter().map(|(x, y)| GeoPoint::raw(x, y)).collect()),
            // Integer grids, offset and scaled: cocircular everywhere.
            (1usize..24, 1usize..24, -50.0f64..50.0, 0.01f64..10.0).prop_map(|(w, h, o, k)| {
                (0..w * h)
                    .map(|i| GeoPoint::raw(o + k * (i % w) as f64, o + k * (i / w) as f64))
                    .collect()
            }),
            // Tight clusters around a few centres.
            (
                proptest::collection::vec((-90.0f64..90.0, -60.0f64..60.0), 1..5),
                3usize..120,
                any::<u64>()
            )
                .prop_map(|(centres, n, seed)| {
                    let jitter = lcg_points(n, seed, 1e-4, 1e-4);
                    jitter
                        .iter()
                        .enumerate()
                        .map(|(i, j)| {
                            let (cx, cy) = centres[i % centres.len()];
                            GeoPoint::raw(cx + j.lon, cy + j.lat)
                        })
                        .collect()
                }),
            // Collinear and collinear-ish sets.
            (
                2usize..60,
                -3.0f64..3.0,
                -10.0f64..10.0,
                prop_oneof![Just(0.0), Just(1e-9), Just(1e-3)]
            )
                .prop_map(|(n, slope, icpt, wobble)| {
                    (0..n)
                        .map(|i| {
                            let x = i as f64 - 20.0;
                            let w = if i % 3 == 1 { wobble } else { 0.0 };
                            GeoPoint::raw(x, slope * x + icpt + w)
                        })
                        .collect()
                }),
        ]
        .prop_flat_map(|sites: Vec<GeoPoint>| {
            // Duplicate a few sites at arbitrary positions.
            let n = sites.len();
            (
                Just(sites),
                proptest::collection::vec((0..n.max(1), 0..n + 1), 0..4),
            )
        })
        .prop_map(|(mut sites, dups)| {
            for (from, to) in dups {
                if let Some(&p) = sites.get(from) {
                    sites.insert(to.min(sites.len()), p);
                }
            }
            sites
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn insertion_matches_reference(sites in arb_site_set()) {
            assert_matches_reference(&sites);
        }
    }

    #[test]
    fn negative_zero_is_a_duplicate() {
        let sites = [
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(-0.0, 0.0),
            GeoPoint::raw(10.0, 0.0),
            GeoPoint::raw(5.0, 8.0),
        ];
        let t = triangulate(&sites);
        assert_eq!(t.triangles.len(), 1);
        assert_eq!(t.neighbors[1], t.neighbors[0]);
        assert_eq!(t.neighbors[0], vec![2, 3]);
    }

    #[test]
    fn square_yields_two_triangles() {
        let sites = vec![
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(1.0, 0.0),
            GeoPoint::raw(1.0, 1.0),
            GeoPoint::raw(0.0, 1.0),
        ];
        let t = triangulate(&sites);
        assert_eq!(t.triangles.len(), 2);
        // Every site neighbours at least the two adjacent corners.
        for nb in &t.neighbors {
            assert!(nb.len() >= 2, "{nb:?}");
        }
    }

    #[test]
    fn fewer_than_three_sites() {
        let t0 = triangulate(&[]);
        assert!(t0.triangles.is_empty());
        let t1 = triangulate(&[GeoPoint::raw(0.0, 0.0)]);
        assert!(t1.triangles.is_empty());
        assert!(t1.neighbors[0].is_empty());
        let t2 = triangulate(&[GeoPoint::raw(0.0, 0.0), GeoPoint::raw(1.0, 0.0)]);
        assert!(t2.triangles.is_empty());
        assert_eq!(t2.neighbors[0], vec![1]);
        assert_eq!(t2.neighbors[1], vec![0]);
    }

    #[test]
    fn duplicate_sites_share_neighbors() {
        let sites = vec![
            GeoPoint::raw(0.0, 0.0),
            GeoPoint::raw(1.0, 0.0),
            GeoPoint::raw(0.5, 1.0),
            GeoPoint::raw(0.0, 0.0), // duplicate of site 0
        ];
        let t = triangulate(&sites);
        assert_eq!(t.triangles.len(), 1);
        assert_eq!(t.neighbors[3], t.neighbors[0]);
    }

    /// The empty-circumcircle property is the defining Delaunay invariant.
    #[test]
    fn delaunay_empty_circumcircle_property() {
        // Deterministic scattered points.
        let mut sites = Vec::new();
        let mut x = 0.12345_f64;
        for _ in 0..60 {
            x = (x * 997.0 + 0.171).fract();
            let y = (x * 613.0 + 0.377).fract();
            sites.push(GeoPoint::raw(x * 100.0, y * 60.0));
        }
        let t = triangulate(&sites);
        assert!(!t.triangles.is_empty());
        for tri in &t.triangles {
            let v = ccw(&sites, [tri.0, tri.1, tri.2]);
            for (si, s) in sites.iter().enumerate() {
                if si == tri.0 || si == tri.1 || si == tri.2 {
                    continue;
                }
                // Allow a whisker of tolerance for near-cocircular quads.
                let a = &sites[v[0]];
                let b = &sites[v[1]];
                let c = &sites[v[2]];
                let (ax, ay) = (a.lon - s.lon, a.lat - s.lat);
                let (bx, by) = (b.lon - s.lon, b.lat - s.lat);
                let (cx, cy) = (c.lon - s.lon, c.lat - s.lat);
                let det = (ax * ax + ay * ay) * (bx * cy - cx * by)
                    - (bx * bx + by * by) * (ax * cy - cx * ay)
                    + (cx * cx + cy * cy) * (ax * by - bx * ay);
                assert!(
                    det <= 1e-6,
                    "site {si} strictly inside circumcircle of {tri:?} (det={det})"
                );
            }
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let mut sites = Vec::new();
        let mut x = 0.77_f64;
        for _ in 0..120 {
            x = (x * 823.0 + 0.29).fract();
            let y = (x * 401.0 + 0.53).fract();
            sites.push(GeoPoint::raw(x * 360.0 - 180.0, y * 160.0 - 80.0));
        }
        let t = triangulate(&sites);
        for (i, nbs) in t.neighbors.iter().enumerate() {
            for &j in nbs {
                assert!(t.neighbors[j].contains(&i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn collinear_sites_do_not_panic() {
        let sites: Vec<GeoPoint> = (0..10).map(|i| GeoPoint::raw(i as f64, 0.0)).collect();
        let t = triangulate(&sites);
        // Collinear points have no triangles, but adjacency along the line
        // may still be picked up via super-triangle fans.
        assert!(t.triangles.is_empty());
    }

    #[test]
    fn triangle_count_matches_euler_bound() {
        // For n sites with h on the hull: triangles = 2n - h - 2.
        let mut sites = Vec::new();
        let mut x = 0.31_f64;
        for _ in 0..200 {
            x = (x * 991.0 + 0.7).fract();
            let y = (x * 577.0 + 0.19).fract();
            sites.push(GeoPoint::raw(x * 50.0, y * 50.0));
        }
        let t = triangulate(&sites);
        let n = sites.len();
        // Hull size is unknown; just check bounds 2n-h-2 where 3<=h<=n.
        assert!(t.triangles.len() <= 2 * n - 5);
        assert!(t.triangles.len() >= n - 2);
    }
}
