//! Route collectors and AS-graph aggregation (the AS Rank pipeline).
//!
//! CAIDA AS Rank, the paper's source for `asn_conn`, aggregates BGP paths
//! observed at RouteViews and RIPE RIS collector peers into "a graph with
//! undirected edges between two ASes if two ASes were adjacent in an
//! observed AS Path" (§2). This module does the same over simulated
//! announcements: pick vantage ASes (collector peers), record the AS path
//! each vantage selects toward every origin, and aggregate adjacent pairs.
//! It also computes customer cones, AS Rank's ranking metric.

use std::collections::{BTreeSet, HashMap};

use crate::asn::{AsGraph, AsRelationship, Asn};
use crate::bgp::Propagator;

/// The paths observed at a set of vantage points.
pub struct CollectedPaths {
    /// Each observed AS path, vantage first, origin last.
    pub paths: Vec<Vec<Asn>>,
}

impl CollectedPaths {
    /// Simulates collection: for every origin AS, each vantage records its
    /// best path. Paths of length 1 (vantage == origin) are kept — real
    /// collectors see those too as locally-originated prefixes.
    pub fn collect(graph: &AsGraph, vantages: &[Asn], origins: &[Asn]) -> Self {
        let prop = Propagator::new(graph);
        let mut paths = Vec::new();
        for &origin in origins {
            if !graph.contains(origin) {
                continue;
            }
            let table = prop.propagate(origin);
            for &v in vantages {
                if let Some(route) = table.route(v) {
                    paths.push(route.path);
                }
            }
        }
        Self { paths }
    }

    /// Number of observed paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Aggregates observed paths into the undirected adjacency set: one edge
/// per AS pair that appeared adjacent in any path, normalized `(low,
/// high)`, sorted.
pub fn aggregate_paths(paths: &[Vec<Asn>]) -> Vec<(Asn, Asn)> {
    let mut edges: BTreeSet<(Asn, Asn)> = BTreeSet::new();
    for path in paths {
        for w in path.windows(2) {
            let (a, b) = if w[0] <= w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            if a != b {
                edges.insert((a, b));
            }
        }
    }
    edges.into_iter().collect()
}

/// Infers business relationships from observed AS paths (Gao's classic
/// algorithm, the machinery behind CAIDA's AS-relationship dataset that
/// accompanies AS Rank).
///
/// For every path, the highest-degree AS on it is taken as the "top
/// provider"; edges before it point uphill (customer→provider) and edges
/// after it point downhill. Votes are tallied over all paths:
///
/// * one-sided transit votes → customer/provider,
/// * materially split votes → peer.
///
/// Returns, for each observed pair `(a, b)` with `a < b`, the relationship
/// *from `a`'s perspective*.
pub fn infer_relationships(paths: &[Vec<Asn>]) -> HashMap<(Asn, Asn), AsRelationship> {
    use std::collections::hash_map::Entry;
    // Degree over the observed adjacency graph.
    let mut degree: HashMap<Asn, usize> = HashMap::new();
    for &(a, b) in &aggregate_paths(paths) {
        *degree.entry(a).or_default() += 1;
        *degree.entry(b).or_default() += 1;
    }
    // Votes: (low, high) → (low_is_customer, high_is_customer).
    let mut votes: HashMap<(Asn, Asn), (usize, usize)> = HashMap::new();
    for path in paths {
        if path.len() < 2 {
            continue;
        }
        // Index of the top provider (max degree, leftmost on ties).
        let top = path
            .iter()
            .enumerate()
            .max_by_key(|(i, asn)| (degree.get(asn).copied().unwrap_or(0), std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, w) in path.windows(2).enumerate() {
            let (x, y) = (w[0], w[1]);
            if x == y {
                continue;
            }
            let key = (x.min(y), x.max(y));
            let entry = votes.entry(key).or_default();
            // Paths are observer-first: hops left of `top` climb toward
            // it, so the RIGHT element of the window (closer to top) is
            // the provider; right of `top`, the LEFT element is.
            let customer = if i < top { x } else { y };
            if customer == key.0 {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    let mut out = HashMap::new();
    for (pair, (low_cust, high_cust)) in votes {
        let rel = if low_cust > 0 && high_cust > 0 {
            // Disagreement: transit seen in both directions → peer-like.
            let (maj, min) = if low_cust >= high_cust {
                (low_cust, high_cust)
            } else {
                (high_cust, low_cust)
            };
            if maj >= 3 * min {
                if low_cust >= high_cust {
                    AsRelationship::CustomerOf
                } else {
                    AsRelationship::ProviderOf
                }
            } else {
                AsRelationship::Peer
            }
        } else if low_cust > 0 {
            AsRelationship::CustomerOf
        } else {
            AsRelationship::ProviderOf
        };
        match out.entry(pair) {
            Entry::Vacant(e) => {
                e.insert(rel);
            }
            Entry::Occupied(_) => unreachable!("one vote bucket per pair"),
        }
    }
    out
}

/// Customer cone sizes: for each AS, the number of distinct ASes reachable
/// by only following provider→customer edges, *including itself* (CAIDA's
/// definition). Computed by DFS with memoized visited sets per query —
/// cycle-safe even if the relationship data is dirty.
pub fn customer_cones(graph: &AsGraph) -> HashMap<Asn, usize> {
    let mut cones = HashMap::new();
    for asn in graph.asns() {
        let mut visited: BTreeSet<Asn> = BTreeSet::new();
        let mut stack = vec![asn];
        while let Some(x) = stack.pop() {
            if !visited.insert(x) {
                continue;
            }
            for c in graph.customers(x) {
                if !visited.contains(&c) {
                    stack.push(c);
                }
            }
        }
        cones.insert(asn, visited.len());
    }
    cones
}

/// ASes ranked by descending customer cone (ties broken by ascending
/// ASN) — the AS Rank ordering.
pub fn rank_by_cone(graph: &AsGraph) -> Vec<(Asn, usize)> {
    let cones = customer_cones(graph);
    let mut v: Vec<(Asn, usize)> = cones.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsRelationship, Tier};

    fn sample() -> AsGraph {
        let mut g = AsGraph::new();
        for (asn, tier) in [
            (1, Tier::Tier1),
            (2, Tier::Tier1),
            (10, Tier::Tier2),
            (11, Tier::Tier2),
            (12, Tier::Tier2),
            (13, Tier::Tier2),
            (100, Tier::Stub),
            (101, Tier::Stub),
            (102, Tier::Stub),
        ] {
            g.add_as(Asn(asn), tier);
        }
        g.add_edge(Asn(1), Asn(2), AsRelationship::Peer);
        for (c, p) in [(10, 1), (11, 1), (12, 2), (13, 2)] {
            g.add_edge(Asn(c), Asn(p), AsRelationship::CustomerOf);
        }
        g.add_edge(Asn(11), Asn(12), AsRelationship::Peer);
        for (c, p) in [(100, 10), (101, 11), (101, 12), (102, 13)] {
            g.add_edge(Asn(c), Asn(p), AsRelationship::CustomerOf);
        }
        g
    }

    #[test]
    fn collection_produces_paths_for_each_vantage_origin_pair() {
        let g = sample();
        let all = g.asns();
        let collected = CollectedPaths::collect(&g, &[Asn(100), Asn(102)], &all);
        // Fully connected topology: every (origin, vantage) pair yields a path.
        assert_eq!(collected.len(), all.len() * 2);
        // Every path starts at a vantage and ends at an origin.
        for p in &collected.paths {
            assert!(matches!(p[0], Asn(100) | Asn(102)));
        }
    }

    #[test]
    fn aggregation_yields_subset_of_true_edges() {
        let g = sample();
        let all = g.asns();
        let collected = CollectedPaths::collect(&g, &all, &all);
        let edges = aggregate_paths(&collected.paths);
        // Observed adjacencies must be real adjacencies.
        for &(a, b) in &edges {
            assert!(
                g.relationship(a, b).is_some(),
                "observed edge {a}-{b} not in graph"
            );
            assert!(a < b, "edges must be normalized");
        }
        // With all-AS vantage coverage we should see most of the graph; at
        // minimum every customer-provider edge is traversed by someone.
        assert!(edges.len() >= 8, "only {} edges observed", edges.len());
    }

    #[test]
    fn sparse_vantages_see_fewer_edges() {
        let g = sample();
        let all = g.asns();
        let dense = aggregate_paths(&CollectedPaths::collect(&g, &all, &all).paths);
        let sparse = aggregate_paths(&CollectedPaths::collect(&g, &[Asn(100)], &all).paths);
        assert!(sparse.len() <= dense.len());
        for e in &sparse {
            assert!(dense.contains(e));
        }
    }

    #[test]
    fn aggregate_dedupes_and_normalizes() {
        let paths = vec![
            vec![Asn(3), Asn(2), Asn(1)],
            vec![Asn(1), Asn(2), Asn(3)],
            vec![Asn(2), Asn(2)], // self-adjacency ignored
        ];
        let edges = aggregate_paths(&paths);
        assert_eq!(edges, vec![(Asn(1), Asn(2)), (Asn(2), Asn(3))]);
    }

    #[test]
    fn customer_cones_match_hierarchy() {
        let g = sample();
        let cones = customer_cones(&g);
        assert_eq!(cones[&Asn(100)], 1, "stubs have cone 1 (self)");
        assert_eq!(cones[&Asn(10)], 2); // self + 100
        assert_eq!(cones[&Asn(11)], 2); // self + 101
        assert_eq!(cones[&Asn(1)], 5); // 1, 10, 11, 100, 101
        assert_eq!(cones[&Asn(2)], 5); // 2, 12, 13, 101, 102
    }

    #[test]
    fn cone_handles_relationship_cycles() {
        // Dirty data: a customer cycle must not hang or double-count.
        let mut g = AsGraph::new();
        for a in [1, 2, 3] {
            g.add_as(Asn(a), Tier::Tier2);
        }
        g.add_edge(Asn(2), Asn(1), AsRelationship::CustomerOf);
        g.add_edge(Asn(3), Asn(2), AsRelationship::CustomerOf);
        g.add_edge(Asn(1), Asn(3), AsRelationship::CustomerOf);
        let cones = customer_cones(&g);
        assert_eq!(cones[&Asn(1)], 3);
        assert_eq!(cones[&Asn(2)], 3);
        assert_eq!(cones[&Asn(3)], 3);
    }

    #[test]
    fn rank_orders_by_cone_then_asn() {
        let g = sample();
        let ranked = rank_by_cone(&g);
        assert_eq!(ranked[0], (Asn(1), 5));
        assert_eq!(ranked[1], (Asn(2), 5));
        let cone_values: Vec<usize> = ranked.iter().map(|r| r.1).collect();
        let mut sorted = cone_values.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(cone_values, sorted);
    }

    #[test]
    fn relationship_inference_mostly_matches_ground_truth() {
        let g = sample();
        let all = g.asns();
        let collected = CollectedPaths::collect(&g, &all, &all);
        let inferred = infer_relationships(&collected.paths);
        assert!(!inferred.is_empty());
        let mut checked = 0;
        let mut correct = 0;
        for (&(a, b), &rel) in &inferred {
            let truth = g.relationship(a, b).expect("observed pairs are real edges");
            checked += 1;
            if truth == rel {
                correct += 1;
            }
        }
        // Gao's heuristic is not exact (esp. peer vs sibling), but must
        // recover the bulk of the hierarchy.
        assert!(
            correct * 10 >= checked * 7,
            "only {correct}/{checked} relationships recovered"
        );
        // The unambiguous stub-provider edges must all be right.
        for (c, p) in [(100u32, 10u32), (102, 13)] {
            let key = (Asn(c.min(p)), Asn(c.max(p)));
            let rel = inferred.get(&key).copied().expect("edge observed");
            let want = g.relationship(key.0, key.1).unwrap();
            assert_eq!(rel, want, "stub edge {key:?}");
        }
    }

    #[test]
    fn relationship_inference_empty_paths() {
        assert!(infer_relationships(&[]).is_empty());
        assert!(infer_relationships(&[vec![Asn(1)]]).is_empty());
    }

    #[test]
    fn collect_skips_unknown_origins() {
        let g = sample();
        let collected = CollectedPaths::collect(&g, &[Asn(1)], &[Asn(9999)]);
        assert!(collected.is_empty());
    }
}
