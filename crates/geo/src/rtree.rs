//! An R-tree over bounding boxes, built once by STR bulk load.
//!
//! The Figure 4 corridor join asks whether any of thousands of polyline
//! segments lies near a point; the tree holds each segment's box, so only
//! the segments whose boxes meet a candidate window are measured. A tree is
//! packed by [`RTree::bulk_load`] (Sort-Tile-Recursive) and never mutated:
//! a changed segment set gets a new tree. Nearest-site search over point
//! sites does not use it: [`crate::spatial::NearestSiteIndex`] buckets its
//! sites in a fixed grid.

use std::ops::Range;

use crate::point::BoundingBox;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GeoPoint;

    fn point_tree(points: Vec<(GeoPoint, usize)>) -> RTree<usize> {
        RTree::bulk_load(
            points
                .into_iter()
                .map(|(p, t)| (BoundingBox::from_points([&p]), t))
                .collect(),
        )
    }

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

    /// Every payload whose bbox meets `q`, sorted.
    fn hits(tree: &RTree<usize>, q: &BoundingBox) -> Vec<usize> {
        let mut out = Vec::new();
        tree.any_in_bbox(q, |&t| {
            out.push(t);
            false
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<usize> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert!(hits(&t, &BoundingBox::WORLD).is_empty());
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
        let got = hits(&tree, &q);
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
        assert_eq!(hits(&tree, &BoundingBox::WORLD), vec![42]);
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
        assert_eq!(hits(&tree, &q).len(), 9);
    }
}
