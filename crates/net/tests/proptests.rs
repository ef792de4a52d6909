//! Property-based tests for the logical-layer substrate.

use proptest::prelude::*;

use igdb_net::asn::is_valley_free;
use igdb_net::{
    AsGraph, AsRelationship, Asn, Ip4, Prefix, PrefixTrie, Propagator, RouteKind, Tier,
};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ip4(addr), len))
}

proptest! {
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_own_network_and_children(p in arb_prefix()) {
        prop_assert!(p.contains(p.network()));
        if let Some((lo, hi)) = p.split() {
            prop_assert!(p.covers(&lo));
            prop_assert!(p.covers(&hi));
            prop_assert!(!lo.covers(&hi));
            prop_assert!(!hi.covers(&lo));
        }
    }

    #[test]
    fn trie_lpm_matches_linear_scan(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 1..80),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut trie = PrefixTrie::new();
        let mut map: std::collections::HashMap<Prefix, u32> = std::collections::HashMap::new();
        for &(p, v) in &entries {
            trie.insert(p, v);
            map.insert(p, v);
        }
        for &raw in &probes {
            let ip = Ip4(raw);
            let got = trie.lookup(ip).map(|(pre, &v)| (pre.prefix_len(), v));
            let want = map
                .iter()
                .filter(|(pre, _)| pre.contains(ip))
                .max_by_key(|(pre, _)| pre.prefix_len())
                .map(|(pre, &v)| (pre.prefix_len(), v));
            // Compare lengths always; values only when unambiguous (two
            // different prefixes cannot share a length AND contain the
            // same ip, so length equality implies the same prefix).
            prop_assert_eq!(got.map(|g| g.0), want.map(|w| w.0));
            prop_assert_eq!(got.map(|g| g.1), want.map(|w| w.1));
        }
    }

    #[test]
    fn trie_iter_returns_exactly_inserted(
        entries in proptest::collection::vec(arb_prefix(), 1..60),
    ) {
        let mut trie = PrefixTrie::new();
        let mut set = std::collections::HashSet::new();
        for &p in &entries {
            trie.insert(p, ());
            set.insert(p);
        }
        let got: std::collections::HashSet<Prefix> =
            trie.iter().into_iter().map(|(p, _)| p).collect();
        prop_assert_eq!(got, set);
    }
}

/// Builds a random but well-formed AS hierarchy: node 0.. are added in
/// order; every non-first node picks a provider among earlier nodes, and
/// random peer edges connect nodes at similar depth.
fn arb_as_graph() -> impl Strategy<Value = AsGraph> {
    (
        2usize..40,
        proptest::collection::vec(any::<u32>(), 0..60),
        any::<u64>(),
    )
        .prop_map(|(n, peer_seed, salt)| {
            let mut g = AsGraph::new();
            for i in 0..n {
                g.add_as(
                    Asn(i as u32 + 1),
                    if i == 0 { Tier::Tier1 } else { Tier::Stub },
                );
                if i > 0 {
                    let provider = (salt
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64)
                        % i as u64) as u32
                        + 1;
                    g.add_edge(Asn(i as u32 + 1), Asn(provider), AsRelationship::CustomerOf);
                }
            }
            for (k, raw) in peer_seed.iter().enumerate() {
                let a = (raw % n as u32) + 1;
                let b = ((raw.wrapping_mul(31).wrapping_add(k as u32)) % n as u32) + 1;
                if a != b && g.relationship(Asn(a), Asn(b)).is_none() {
                    g.add_edge(Asn(a), Asn(b), AsRelationship::Peer);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn propagated_routes_always_valley_free(g in arb_as_graph(), origin_raw in any::<u32>()) {
        let asns = g.asns();
        let origin = asns[(origin_raw as usize) % asns.len()];
        let prop = Propagator::new(&g);
        let table = prop.propagate(origin);
        for asn in &asns {
            if let Some(route) = table.route(*asn) {
                prop_assert!(
                    is_valley_free(&g, &route.path),
                    "path {:?} to {origin} violates valley-free",
                    route.path
                );
                prop_assert_eq!(*route.path.first().unwrap(), *asn);
                prop_assert_eq!(*route.path.last().unwrap(), origin);
            }
        }
    }

    #[test]
    fn provider_chains_guarantee_reachability(g in arb_as_graph(), origin_raw in any::<u32>()) {
        // Every AS has a provider chain to AS1 by construction, so every
        // AS can reach every origin (up to the apex, then down).
        let asns = g.asns();
        let origin = asns[(origin_raw as usize) % asns.len()];
        let prop = Propagator::new(&g);
        let table = prop.propagate(origin);
        prop_assert_eq!(table.reachable_count(), asns.len());
    }

    #[test]
    fn route_kind_matches_first_step(g in arb_as_graph(), origin_raw in any::<u32>()) {
        // A route's kind must agree with the relationship toward its next
        // hop: Customer ⇔ next hop is a customer, etc.
        let asns = g.asns();
        let origin = asns[(origin_raw as usize) % asns.len()];
        let prop = Propagator::new(&g);
        let table = prop.propagate(origin);
        for asn in &asns {
            let Some(route) = table.route(*asn) else { continue };
            if route.path.len() < 2 {
                prop_assert_eq!(route.kind, RouteKind::Origin);
                continue;
            }
            let next = route.path[1];
            let rel = g.relationship(*asn, next).expect("adjacent");
            let expected = match rel {
                AsRelationship::ProviderOf => RouteKind::Customer,
                AsRelationship::Peer => RouteKind::Peer,
                AsRelationship::CustomerOf => RouteKind::Provider,
            };
            prop_assert_eq!(route.kind, expected, "AS {} toward {}", asn, next);
        }
    }
}
