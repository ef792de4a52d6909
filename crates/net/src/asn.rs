//! Autonomous systems and their business-relationship graph.

use std::collections::HashMap;
use std::fmt;

/// An AS number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The Gao–Rexford relationship between two adjacent ASes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsRelationship {
    /// First AS is a customer of the second (pays for transit).
    CustomerOf,
    /// Settlement-free peers.
    Peer,
    /// First AS is a provider of the second.
    ProviderOf,
}

impl AsRelationship {
    /// The relationship as seen from the other endpoint.
    pub fn reversed(&self) -> Self {
        match self {
            AsRelationship::CustomerOf => AsRelationship::ProviderOf,
            AsRelationship::Peer => AsRelationship::Peer,
            AsRelationship::ProviderOf => AsRelationship::CustomerOf,
        }
    }
}

/// Coarse role of an AS in the routing ecosystem, used by the synthetic
/// topology generator and useful for analyses (e.g. picking transit ASes
/// for the Table 3 / Figure 7 experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Global transit-free backbone (peers with all other tier-1s).
    Tier1,
    /// Regional transit provider.
    Tier2,
    /// Stub: access/content/enterprise network that buys all transit.
    Stub,
}

/// An AS graph with typed edges.
///
/// Edges are stored per-AS as adjacency lists annotated with the
/// relationship *from this AS's point of view*; the reverse entry is kept
/// in sync by [`AsGraph::add_edge`].
#[derive(Debug)]
pub struct AsGraph {
    /// ASN → tier.
    tiers: HashMap<Asn, Tier>,
    /// ASN → (neighbor, relationship from the keyed AS's perspective).
    adj: HashMap<Asn, Vec<(Asn, AsRelationship)>>,
}

impl Default for AsGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl AsGraph {
    pub fn new() -> Self {
        Self {
            tiers: HashMap::new(),
            adj: HashMap::new(),
        }
    }

    /// Registers an AS with its tier. Idempotent (tier may be updated).
    pub fn add_as(&mut self, asn: Asn, tier: Tier) {
        self.tiers.insert(asn, tier);
        self.adj.entry(asn).or_default();
    }

    /// Adds the edge `a —rel→ b` (e.g. `rel = CustomerOf` means `a` buys
    /// transit from `b`), keeping both adjacency lists in sync. Duplicate
    /// edges are ignored.
    pub fn add_edge(&mut self, a: Asn, b: Asn, rel: AsRelationship) {
        if a == b {
            return;
        }
        self.adj.entry(a).or_default();
        self.adj.entry(b).or_default();
        let fwd = self.adj.get_mut(&a).unwrap();
        if fwd.iter().any(|(n, _)| *n == b) {
            return;
        }
        fwd.push((b, rel));
        self.adj.get_mut(&b).unwrap().push((a, rel.reversed()));
    }

    pub fn contains(&self, asn: Asn) -> bool {
        self.adj.contains_key(&asn)
    }

    pub fn tier(&self, asn: Asn) -> Option<Tier> {
        self.tiers.get(&asn).copied()
    }

    /// All registered ASNs, sorted for determinism.
    pub fn asns(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.adj.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn len(&self) -> usize {
        self.adj.len()
    }

    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbours with relationships from `asn`'s perspective.
    pub fn neighbors(&self, asn: Asn) -> &[(Asn, AsRelationship)] {
        self.adj.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Neighbours that are customers of `asn`.
    pub fn customers(&self, asn: Asn) -> Vec<Asn> {
        self.filtered(asn, AsRelationship::ProviderOf)
    }

    /// Neighbours that are providers of `asn`.
    pub fn providers(&self, asn: Asn) -> Vec<Asn> {
        self.filtered(asn, AsRelationship::CustomerOf)
    }

    /// Settlement-free peers of `asn`.
    pub fn peers(&self, asn: Asn) -> Vec<Asn> {
        self.filtered(asn, AsRelationship::Peer)
    }

    fn filtered(&self, asn: Asn, rel: AsRelationship) -> Vec<Asn> {
        let mut v: Vec<Asn> = self
            .neighbors(asn)
            .iter()
            .filter(|(_, r)| *r == rel)
            .map(|(n, _)| *n)
            .collect();
        v.sort_unstable();
        v
    }

    /// The relationship from `a` to `b`, if adjacent.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<AsRelationship> {
        self.neighbors(a)
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, r)| *r)
    }
}

/// True if `path` (origin last) is valley-free under the graph's
/// relationships: once a path goes "down" (provider→customer) or "across"
/// (peer), it may never go "up" or "across" again. Unknown adjacencies
/// make the path invalid.
pub fn is_valley_free(graph: &AsGraph, path: &[Asn]) -> bool {
    if path.len() < 2 {
        return true;
    }
    // Follow the announcement in propagation order: it starts at the
    // origin (path's last element) and travels toward the observer
    // (path's first element).
    #[derive(PartialEq)]
    enum Phase {
        Up,
        Down,
    }
    let mut phase = Phase::Up;
    for w in path.windows(2).rev() {
        // This step: w[1] (origin side) announces to w[0].
        let rel = match graph.relationship(w[1], w[0]) {
            Some(r) => r,
            None => return false,
        };
        match rel {
            // w[1] is a customer of w[0]: the announcement travelled up,
            // which is only legal before any peer/provider step.
            AsRelationship::CustomerOf => {
                if phase != Phase::Up {
                    return false;
                }
            }
            // At most one peer crossing, at the apex; afterwards only down.
            AsRelationship::Peer => {
                if phase != Phase::Up {
                    return false;
                }
                phase = Phase::Down;
            }
            // Provider → customer: always exportable, and locks the path
            // into the downhill phase.
            AsRelationship::ProviderOf => {
                phase = Phase::Down;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed hierarchy:
    ///
    /// ```text
    ///    1 ===== 2        (tier-1 peers)
    ///   / \     / \
    ///  10  11  12  13     (tier-2 customers; 11 -- 12 peer)
    ///  |    \  /    |
    /// 100    101   102    (stubs; 101 multihomed to 11 and 12)
    /// ```
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
    fn edges_symmetric_with_reversed_rel() {
        let g = sample();
        assert_eq!(
            g.relationship(Asn(10), Asn(1)),
            Some(AsRelationship::CustomerOf)
        );
        assert_eq!(
            g.relationship(Asn(1), Asn(10)),
            Some(AsRelationship::ProviderOf)
        );
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(AsRelationship::Peer));
        assert_eq!(g.relationship(Asn(2), Asn(1)), Some(AsRelationship::Peer));
        assert_eq!(g.relationship(Asn(1), Asn(101)), None);
    }

    #[test]
    fn customer_provider_peer_views() {
        let g = sample();
        assert_eq!(g.customers(Asn(1)), vec![Asn(10), Asn(11)]);
        assert_eq!(g.providers(Asn(101)), vec![Asn(11), Asn(12)]);
        assert_eq!(g.peers(Asn(11)), vec![Asn(12)]);
        assert!(g.customers(Asn(100)).is_empty());
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = sample();
        let edges_before = g.edge_count();
        g.add_edge(Asn(10), Asn(1), AsRelationship::CustomerOf);
        g.add_edge(Asn(1), Asn(1), AsRelationship::Peer);
        assert_eq!(g.edge_count(), edges_before);
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.len(), 9);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.tier(Asn(1)), Some(Tier::Tier1));
        assert_eq!(g.tier(Asn(101)), Some(Tier::Stub));
    }

    #[test]
    fn valley_free_accepts_valid_paths() {
        let g = sample();
        // Observer 100, origin 102: 100←10←1←2←13←102 (up, up, across, down, down
        // read origin-side; as stored path [100,10,1,2,13,102]).
        assert!(is_valley_free(
            &g,
            &[Asn(100), Asn(10), Asn(1), Asn(2), Asn(13), Asn(102)]
        ));
        // Pure uphill: [1, 10, 100] means 100 announced up through 10 to 1.
        assert!(is_valley_free(&g, &[Asn(1), Asn(10), Asn(100)]));
        // Peer step then down: [11, 12, 101].
        assert!(is_valley_free(&g, &[Asn(11), Asn(12), Asn(101)]));
    }

    #[test]
    fn valley_free_rejects_valleys_and_unknown_edges() {
        let g = sample();
        // 11 heard 101's route from its peer 12 and must not export it to
        // its provider 1 (peer route leaked upward).
        assert!(!is_valley_free(
            &g,
            &[Asn(10), Asn(1), Asn(11), Asn(12), Asn(101)]
        ));
        // Peer crossing followed by another upward step (2 heard from peer
        // 1 a route 1 had heard from customer... the step 11→... wait:
        // here 12 announces to 11 across a peer link, then 11 announces
        // upward to 1 — the same leak one AS earlier in the path.
        assert!(!is_valley_free(
            &g,
            &[Asn(2), Asn(1), Asn(11), Asn(12), Asn(101)]
        ));
        // A legal across-at-the-apex path for contrast: up, up, across, down.
        assert!(is_valley_free(
            &g,
            &[Asn(11), Asn(1), Asn(2), Asn(12), Asn(101)]
        ));
        // Unknown adjacency.
        assert!(!is_valley_free(&g, &[Asn(100), Asn(102)]));
    }

    #[test]
    fn valley_free_trivial_paths() {
        let g = sample();
        assert!(is_valley_free(&g, &[]));
        assert!(is_valley_free(&g, &[Asn(1)]));
    }
}
