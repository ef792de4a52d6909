//! Valley-free (Gao–Rexford) BGP route propagation.
//!
//! iGDB's `asn_conn` relation is built from "the aggregation of all the
//! RouteViews and RIPE RIS BGP announcements" (paper §2). To simulate those
//! announcements we implement the standard Gao–Rexford model:
//!
//! * **Preferences** — customer routes over peer routes over provider
//!   routes, then shortest AS path, then lowest next-hop ASN.
//! * **Export rules** — customer-learned (and self-originated) routes go to
//!   everyone; peer- and provider-learned routes go to customers only.
//!
//! Propagation for one origin runs in three phases that encode exactly
//! those rules: customer routes flow *up* provider links (BFS), cross *at
//! most one* peer link, then provider routes flow *down* customer links
//! (Dijkstra over the already-routed set). The result is, per AS, its best
//! path to the origin — or no path if the origin is unreachable.

use std::collections::{BinaryHeap, HashMap};

use crate::asn::{AsGraph, Asn};

/// How an AS learned its best route to the origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// This AS is the origin.
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider (least preferred).
    Provider,
}

/// A selected route: how it was learned and the full AS path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    pub kind: RouteKind,
    /// AS path, `path[0]` = the route's owner, `path.last()` = origin.
    pub path: Vec<Asn>,
}

/// Reusable propagation engine: pre-indexes the graph once so thousands of
/// per-origin propagations (one per announced prefix) stay cheap.
pub struct Propagator {
    asns: Vec<Asn>,
    index: HashMap<Asn, u32>,
    customers: Vec<Vec<u32>>,
    peers: Vec<Vec<u32>>,
    providers: Vec<Vec<u32>>,
}

/// Result of propagating one origin: per-AS selected route, stored
/// compactly as (kind, next hop, length); full paths are reconstructed on
/// demand by walking next hops.
pub struct RouteTable<'p> {
    propagator: &'p Propagator,
    origin: u32,
    kind: Vec<Option<RouteKind>>,
    next: Vec<u32>,
    len: Vec<u32>,
}

const NO_NEXT: u32 = u32::MAX;

impl Propagator {
    pub fn new(graph: &AsGraph) -> Self {
        let asns = graph.asns();
        let index: HashMap<Asn, u32> = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        let n = asns.len();
        let mut customers = vec![Vec::new(); n];
        let mut peers = vec![Vec::new(); n];
        let mut providers = vec![Vec::new(); n];
        for (i, &a) in asns.iter().enumerate() {
            for c in graph.customers(a) {
                customers[i].push(index[&c]);
            }
            for p in graph.peers(a) {
                peers[i].push(index[&p]);
            }
            for p in graph.providers(a) {
                providers[i].push(index[&p]);
            }
        }
        Self {
            asns,
            index,
            customers,
            peers,
            providers,
        }
    }

    pub fn len(&self) -> usize {
        self.asns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Runs the three-phase Gao–Rexford propagation from `origin`.
    ///
    /// # Panics
    /// Panics if `origin` is not in the graph.
    pub fn propagate(&self, origin: Asn) -> RouteTable<'_> {
        let o = *self
            .index
            .get(&origin)
            .unwrap_or_else(|| panic!("{origin} not in graph"));
        let n = self.asns.len();
        let mut kind: Vec<Option<RouteKind>> = vec![None; n];
        let mut next: Vec<u32> = vec![NO_NEXT; n];
        let mut len: Vec<u32> = vec![0; n];
        kind[o as usize] = Some(RouteKind::Origin);

        // Phase 1 — customer routes travel up provider links, level
        // (path-length) synchronous BFS with lowest-next-hop tie-break.
        let mut level = vec![o];
        while !level.is_empty() {
            // target -> best next hop (by ASN) at this level
            let mut adopt: HashMap<u32, u32> = HashMap::new();
            for &x in &level {
                for &p in &self.providers[x as usize] {
                    if kind[p as usize].is_some() {
                        continue;
                    }
                    let e = adopt.entry(p).or_insert(x);
                    if self.asns[x as usize] < self.asns[*e as usize] {
                        *e = x;
                    }
                }
            }
            let mut next_level: Vec<u32> = adopt.keys().copied().collect();
            next_level.sort_unstable();
            for (&p, &x) in &adopt {
                kind[p as usize] = Some(RouteKind::Customer);
                next[p as usize] = x;
                len[p as usize] = len[x as usize] + 1;
            }
            level = next_level;
        }

        // Phase 2 — one peer crossing. Every AS holding a customer/origin
        // route offers it to its peers; peers without a route adopt the
        // best offer (shortest, then lowest next-hop ASN).
        let mut offers: HashMap<u32, (u32, u32)> = HashMap::new(); // target -> (len, next)
        for x in 0..n as u32 {
            if !matches!(
                kind[x as usize],
                Some(RouteKind::Origin) | Some(RouteKind::Customer)
            ) {
                continue;
            }
            for &q in &self.peers[x as usize] {
                if kind[q as usize].is_some() {
                    continue;
                }
                let cand = (len[x as usize] + 1, x);
                let e = offers.entry(q).or_insert(cand);
                if (cand.0, self.asns[cand.1 as usize]) < (e.0, self.asns[e.1 as usize]) {
                    *e = cand;
                }
            }
        }
        for (&q, &(l, x)) in &offers {
            kind[q as usize] = Some(RouteKind::Peer);
            next[q as usize] = x;
            len[q as usize] = l;
        }

        // Phase 3 — provider routes travel down customer links. Dijkstra
        // (unit weights) from every routed AS simultaneously; tie-break on
        // lowest next-hop ASN, then lowest target ASN, for determinism.
        #[derive(PartialEq, Eq)]
        struct Entry {
            len: u32,
            next_asn: u32,
            target: u32,
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // BinaryHeap is a max-heap: reverse for min-first.
                (other.len, other.next_asn, other.target).cmp(&(
                    self.len,
                    self.next_asn,
                    self.target,
                ))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        let mut via: HashMap<(u32, u32), ()> = HashMap::new(); // (target, next) pushed
        for x in 0..n as u32 {
            if kind[x as usize].is_none() {
                continue;
            }
            for &c in &self.customers[x as usize] {
                if kind[c as usize].is_none() && via.insert((c, x), ()).is_none() {
                    heap.push(Entry {
                        len: len[x as usize] + 1,
                        next_asn: self.asns[x as usize].0,
                        target: c,
                    });
                }
            }
        }
        while let Some(Entry {
            len: l,
            next_asn,
            target,
        }) = heap.pop()
        {
            if kind[target as usize].is_some() {
                continue;
            }
            kind[target as usize] = Some(RouteKind::Provider);
            next[target as usize] = self.index[&Asn(next_asn)];
            len[target as usize] = l;
            for &c in &self.customers[target as usize] {
                if kind[c as usize].is_none() && via.insert((c, target), ()).is_none() {
                    heap.push(Entry {
                        len: l + 1,
                        next_asn: self.asns[target as usize].0,
                        target: c,
                    });
                }
            }
        }

        RouteTable {
            propagator: self,
            origin: o,
            kind,
            next,
            len,
        }
    }
}

impl RouteTable<'_> {
    pub fn origin(&self) -> Asn {
        self.propagator.asns[self.origin as usize]
    }

    /// The selected route from `from` to the origin.
    pub fn route(&self, from: Asn) -> Option<Route> {
        let &i = self.propagator.index.get(&from)?;
        let kind = self.kind[i as usize]?;
        let mut path = Vec::with_capacity(self.len[i as usize] as usize + 1);
        let mut cur = i;
        loop {
            path.push(self.propagator.asns[cur as usize]);
            if cur == self.origin {
                break;
            }
            cur = self.next[cur as usize];
            debug_assert_ne!(cur, NO_NEXT, "routed AS must have a next hop");
        }
        Some(Route { kind, path })
    }

    /// Number of ASes with a route to the origin (including the origin).
    pub fn reachable_count(&self) -> usize {
        self.kind.iter().filter(|k| k.is_some()).count()
    }
}

/// One-shot convenience for tests and small tasks; production callers use
/// [`Propagator`] to amortize graph indexing.
pub fn propagate_routes(graph: &AsGraph, origin: Asn) -> Vec<(Asn, Route)> {
    let prop = Propagator::new(graph);
    let table = prop.propagate(origin);
    graph
        .asns()
        .into_iter()
        .filter_map(|a| table.route(a).map(|r| (a, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{is_valley_free, AsRelationship, Tier};

    /// Same topology as `asn::tests::sample`.
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
    fn origin_has_origin_route() {
        let g = sample();
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(102)).into_iter().collect();
        let r = &routes[&Asn(102)];
        assert_eq!(r.kind, RouteKind::Origin);
        assert_eq!(r.path, vec![Asn(102)]);
    }

    #[test]
    fn all_ases_reach_stub_origin() {
        let g = sample();
        let routes = propagate_routes(&g, Asn(102));
        assert_eq!(routes.len(), 9, "everyone should reach AS102");
    }

    #[test]
    fn all_paths_are_valley_free() {
        let g = sample();
        for origin in [102u32, 100, 101, 1, 12] {
            for (_, r) in propagate_routes(&g, Asn(origin)) {
                assert!(
                    is_valley_free(&g, &r.path),
                    "path {:?} to {origin} not valley-free",
                    r.path
                );
            }
        }
    }

    #[test]
    fn customer_route_preferred_over_peer() {
        let g = sample();
        // From 11 to origin 101: 101 is a customer of 11, so the direct
        // customer route wins over anything via peer 12.
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(101)).into_iter().collect();
        let r = &routes[&Asn(11)];
        assert_eq!(r.kind, RouteKind::Customer);
        assert_eq!(r.path, vec![Asn(11), Asn(101)]);
    }

    #[test]
    fn peer_route_taken_when_no_customer_route() {
        let g = sample();
        // From 11 to origin 102: 102 sits under 13 under 2. 11 has no
        // customer path; its peer 12 has no customer path to 102 either
        // (102 is not in 12's customer cone), so 11 must use its provider
        // 1 (1 peers with 2). Check kind is Provider and path valley-free.
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(102)).into_iter().collect();
        let r = &routes[&Asn(11)];
        assert_eq!(r.kind, RouteKind::Provider);
        assert_eq!(r.path, vec![Asn(11), Asn(1), Asn(2), Asn(13), Asn(102)]);

        // From 12 to origin 101: 101 IS a customer of 12 → customer route;
        // but from 10 to 101 there is no customer/peer option: 10's only
        // route is via provider 1, then down? 1 can reach 101 via customer
        // 11. So 10's path: 10, 1, 11, 101 (provider route).
        let routes2: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(101)).into_iter().collect();
        let r10 = &routes2[&Asn(10)];
        assert_eq!(r10.kind, RouteKind::Provider);
        assert_eq!(r10.path, vec![Asn(10), Asn(1), Asn(11), Asn(101)]);
    }

    #[test]
    fn peer_kind_assigned_at_apex() {
        let g = sample();
        // From 1 to origin 102: 1 has no customer path to 102; its peer 2
        // has a customer path (2→13→102). So 1's route kind is Peer.
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(102)).into_iter().collect();
        let r = &routes[&Asn(1)];
        assert_eq!(r.kind, RouteKind::Peer);
        assert_eq!(r.path, vec![Asn(1), Asn(2), Asn(13), Asn(102)]);
    }

    #[test]
    fn multihomed_stub_tie_breaks_deterministically() {
        let g = sample();
        // 101 is a customer of both 11 and 12. From origin 101, AS 1
        // reaches it via customer 11 (path len 2); AS 2 via customer 12.
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(101)).into_iter().collect();
        assert_eq!(routes[&Asn(1)].path, vec![Asn(1), Asn(11), Asn(101)]);
        assert_eq!(routes[&Asn(2)].path, vec![Asn(2), Asn(12), Asn(101)]);
    }

    #[test]
    fn disconnected_as_unreachable() {
        let mut g = sample();
        g.add_as(Asn(999), Tier::Stub); // island
        let routes: std::collections::HashMap<Asn, Route> =
            propagate_routes(&g, Asn(102)).into_iter().collect();
        assert!(!routes.contains_key(&Asn(999)));
        // And propagating FROM the island reaches only itself.
        let from_island = propagate_routes(&g, Asn(999));
        assert_eq!(from_island.len(), 1);
    }

    #[test]
    fn propagator_reuse_matches_one_shot() {
        let g = sample();
        let prop = Propagator::new(&g);
        for origin in [100u32, 101, 102] {
            let table = prop.propagate(Asn(origin));
            let one_shot: std::collections::HashMap<Asn, Route> =
                propagate_routes(&g, Asn(origin)).into_iter().collect();
            for asn in g.asns() {
                assert_eq!(table.route(asn), one_shot.get(&asn).cloned());
            }
            assert_eq!(table.reachable_count(), one_shot.len());
        }
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn propagate_unknown_origin_panics() {
        let g = sample();
        Propagator::new(&g).propagate(Asn(424242));
    }
}
