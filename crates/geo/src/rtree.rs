//! An R-tree over bounding boxes, built once by STR bulk load.
//!
//! iGDB's spatial join resolves tens of thousands of physical nodes
//! against 7,342 urban-area sites; the naive all-pairs scan ArcGIS avoids
//! internally is avoided here with an R-tree over bounding boxes. A tree
//! is packed by [`RTree::bulk_load`] (Sort-Tile-Recursive) and never
//! mutated: a changed catalogue gets a new tree (≈ 2 ms at 8,000 sites,
//! beside the ≈ 40 ms its Thiessen cells cost whichever way the tree is
//! made).

use std::ops::Range;

use crate::point::{BoundingBox, GeoPoint};

const NODE_CAPACITY: usize = 16;

/// An R-tree over items with bounding boxes.
///
/// `T` is the payload (e.g. a row id, a site index). Query results
/// reference payloads by shared slice.
pub struct RTree<T> {
    nodes: Vec<Node>,
    items: Vec<(BoundingBox, T)>,
    root: Option<usize>,
}

struct Node {
    bbox: BoundingBox,
    kind: NodeKind,
}

/// Packing lays every node's members out as one contiguous run, so a
/// node names them by range instead of owning a list.
enum NodeKind {
    /// Child node indexes.
    Inner(Range<usize>),
    /// Item slot indexes.
    Leaf(Range<usize>),
}

impl<T> RTree<T> {
    /// Bulk-loads the tree from `(bbox, payload)` pairs using STR packing.
    pub fn bulk_load(mut items: Vec<(BoundingBox, T)>) -> Self {
        if items.is_empty() {
            return Self {
                nodes: Vec::new(),
                items: Vec::new(),
                root: None,
            };
        }
        // STR: sort by center lon, slice into vertical strips, sort each
        // strip by center lat, pack runs of NODE_CAPACITY into leaves.
        let n = items.len();
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let strip_size = n.div_ceil(strip_count);

        items.sort_by(|a, b| {
            a.0.center()
                .lon
                .partial_cmp(&b.0.center().lon)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for strip in items.chunks_mut(strip_size.max(1)) {
            strip.sort_by(|a, b| {
                a.0.center()
                    .lat
                    .partial_cmp(&b.0.center().lat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        let mut nodes: Vec<Node> = Vec::new();
        // Build leaves over item runs.
        let mut level: Vec<usize> = Vec::new();
        let mut start = 0;
        while start < items.len() {
            let end = (start + NODE_CAPACITY).min(items.len());
            let mut bbox = BoundingBox::empty();
            for (b, _) in &items[start..end] {
                bbox.union(b);
            }
            nodes.push(Node {
                bbox,
                kind: NodeKind::Leaf(start..end),
            });
            level.push(nodes.len() - 1);
            start = end;
        }
        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(NODE_CAPACITY) {
                let mut bbox = BoundingBox::empty();
                for &c in chunk {
                    bbox.union(&nodes[c].bbox);
                }
                nodes.push(Node {
                    bbox,
                    kind: NodeKind::Inner(chunk[0]..chunk[0] + chunk.len()),
                });
                next.push(nodes.len() - 1);
            }
            level = next;
        }
        let root = level.first().copied();
        Self { nodes, items, root }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All payloads whose bbox intersects `query`.
    pub fn query_bbox(&self, query: &BoundingBox) -> Vec<&T> {
        let mut out = Vec::new();
        self.any_in_bbox(query, |t| {
            out.push(t);
            false
        });
        out
    }

    /// True if `accept` holds for some payload whose bbox intersects
    /// `query`. Stops at the first such payload, so a join that only asks
    /// "is anything here?" neither visits the rest nor collects a `Vec`.
    pub fn any_in_bbox<'a>(
        &'a self,
        query: &BoundingBox,
        mut accept: impl FnMut(&'a T) -> bool,
    ) -> bool {
        self.root
            .is_some_and(|root| self.any_below(root, query, &mut accept))
    }

    fn any_below<'a>(
        &'a self,
        ni: usize,
        query: &BoundingBox,
        accept: &mut impl FnMut(&'a T) -> bool,
    ) -> bool {
        let node = &self.nodes[ni];
        if !node.bbox.intersects(query) {
            return false;
        }
        match &node.kind {
            NodeKind::Inner(children) => children
                .clone()
                .any(|c| self.any_below(c, query, accept)),
            NodeKind::Leaf(slots) => self.items[slots.clone()]
                .iter()
                .any(|(b, t)| b.intersects(query) && accept(t)),
        }
    }

    /// The payload whose bbox center is planar-nearest to `p`, with its
    /// squared degree-space distance. Branch-and-bound over node boxes.
    ///
    /// For point items (bbox == point) this is exact nearest-point search in
    /// degree space; callers needing great-circle nearest use
    /// [`crate::spatial::NearestSiteIndex`], which corrects for latitude.
    pub fn nearest_by_center(&self, p: &GeoPoint) -> Option<(&T, f64)> {
        let root = self.root?;
        let mut best: Option<(usize, f64)> = None; // item slot, dist2
        let mut heap: std::collections::BinaryHeap<HeapEntry> = std::collections::BinaryHeap::new();
        heap.push(HeapEntry {
            dist2: self.nodes[root].bbox.planar_dist2_to(p),
            node: root,
        });
        while let Some(HeapEntry { dist2, node }) = heap.pop() {
            if let Some((_, bd)) = best {
                if dist2 > bd {
                    break;
                }
            }
            match &self.nodes[node].kind {
                NodeKind::Inner(children) => {
                    for c in children.clone() {
                        heap.push(HeapEntry {
                            dist2: self.nodes[c].bbox.planar_dist2_to(p),
                            node: c,
                        });
                    }
                }
                NodeKind::Leaf(slots) => {
                    for s in slots.clone() {
                        let d2 = self.items[s].0.center().planar_dist2(p);
                        if best.map_or(true, |(_, bd)| d2 < bd) {
                            best = Some((s, d2));
                        }
                    }
                }
            }
        }
        best.map(|(i, d2)| (&self.items[i].1, d2))
    }
}

struct HeapEntry {
    dist2: f64,
    node: usize,
}

// Min-heap ordering on dist2 (BinaryHeap is a max-heap, so reverse).
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist2
            .partial_cmp(&self.dist2)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Convenience constructor: a tree over bare points.
pub fn point_tree<T>(points: Vec<(GeoPoint, T)>) -> RTree<T> {
    RTree::bulk_load(
        points
            .into_iter()
            .map(|(p, t)| {
                (
                    BoundingBox {
                        min_lon: p.lon,
                        min_lat: p.lat,
                        max_lon: p.lon,
                        max_lat: p.lat,
                    },
                    t,
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: i32) -> Vec<(GeoPoint, usize)> {
        let mut v = Vec::new();
        let mut id = 0;
        for i in 0..n {
            for j in 0..n {
                v.push((GeoPoint::raw(i as f64, j as f64), id));
                id += 1;
            }
        }
        v
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<usize> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert!(t.query_bbox(&BoundingBox::WORLD).is_empty());
        assert!(t.nearest_by_center(&GeoPoint::raw(0.0, 0.0)).is_none());
    }

    #[test]
    fn bbox_query_matches_linear_scan() {
        let pts = grid_points(20); // 400 points
        let tree = point_tree(pts.clone());
        let q = BoundingBox {
            min_lon: 3.5,
            min_lat: 3.5,
            max_lon: 7.5,
            max_lat: 9.5,
        };
        let mut got: Vec<usize> = tree.query_bbox(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| q.contains(p))
            .map(|&(_, id)| id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len(), 4 * 6);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let pts = grid_points(15);
        let tree = point_tree(pts.clone());
        for probe in [
            GeoPoint::raw(3.2, 7.9),
            GeoPoint::raw(-5.0, -5.0),
            GeoPoint::raw(14.9, 0.1),
            GeoPoint::raw(7.5, 7.49),
        ] {
            let (got, d2) = tree.nearest_by_center(&probe).unwrap();
            let want = pts
                .iter()
                .min_by(|a, b| {
                    a.0.planar_dist2(&probe)
                        .partial_cmp(&b.0.planar_dist2(&probe))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(
                pts[*got].0.planar_dist2(&probe),
                want.0.planar_dist2(&probe),
                "probe {probe:?}"
            );
            assert!((d2 - want.0.planar_dist2(&probe)).abs() < 1e-12);
        }
    }

    #[test]
    fn any_in_bbox_stops_at_the_first_accepted_payload() {
        let tree = point_tree(grid_points(60));
        let q = BoundingBox {
            min_lon: 10.0,
            min_lat: 10.0,
            max_lon: 12.0,
            max_lat: 12.0,
        };
        let mut seen = 0;
        assert!(tree.any_in_bbox(&q, |_| {
            seen += 1;
            seen == 2
        }));
        assert_eq!(seen, 2);
        assert!(!tree.any_in_bbox(&q, |_| false));
        assert!(!tree.any_in_bbox(&BoundingBox::empty(), |_| true));
    }

    #[test]
    fn single_item_tree() {
        let tree = point_tree(vec![(GeoPoint::raw(1.0, 1.0), 42usize)]);
        assert_eq!(tree.len(), 1);
        let (v, _) = tree.nearest_by_center(&GeoPoint::raw(100.0, 0.0)).unwrap();
        assert_eq!(*v, 42);
    }

    #[test]
    fn handles_large_item_count() {
        let pts = grid_points(60); // 3600 points, multiple tree levels
        let tree = point_tree(pts.clone());
        assert_eq!(tree.len(), 3600);
        let q = BoundingBox {
            min_lon: 10.0,
            min_lat: 10.0,
            max_lon: 12.0,
            max_lat: 12.0,
        };
        assert_eq!(tree.query_bbox(&q).len(), 9);
    }
}
