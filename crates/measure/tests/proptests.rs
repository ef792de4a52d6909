//! Property-based tests for the measurement substrate: random chain and
//! grid topologies, checking traceroute invariants.

use proptest::prelude::*;

use igdb_geo::GeoPoint;
use igdb_measure::{trace_route, RouterId, RouterNet};
use igdb_net::{Asn, Ip4};

/// A random linear chain of routers across one or two ASes, with random
/// responsiveness/MPLS flags (destination excluded — a dark destination
/// still answers the probe itself).
#[derive(Clone, Debug)]
struct Chain {
    delays: Vec<f64>,
    as_split: usize,
    dark: Vec<bool>,
    hidden: Vec<bool>,
}

fn arb_chain() -> impl Strategy<Value = Chain> {
    (3usize..12)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0.05f64..3.0, n - 1),
                0..n,
                proptest::collection::vec(any::<bool>(), n),
                proptest::collection::vec(proptest::bool::weighted(0.25), n),
            )
        })
        .prop_map(|(delays, as_split, dark, hidden)| Chain {
            delays,
            as_split,
            dark,
            hidden,
        })
}

fn build_chain(c: &Chain) -> (RouterNet, Vec<RouterId>, Vec<Asn>) {
    let n = c.delays.len() + 1;
    let mut net = RouterNet::new();
    let mut routers = Vec::new();
    for i in 0..n {
        let asn = if i < c.as_split { Asn(1) } else { Asn(2) };
        let r = net.add_router(asn, i, GeoPoint::new(i as f64, 0.0));
        routers.push(r);
    }
    for (i, &d) in c.delays.iter().enumerate() {
        let base = (10u32 << 24) | ((i as u32) << 8);
        net.add_link(
            routers[i],
            routers[i + 1],
            Ip4(base + 1),
            Ip4(base + 2),
            d,
            d * 200.0,
        );
    }
    // Flags: keep the source and destination responsive/visible so the
    // trace always completes.
    for (i, &r) in routers.iter().enumerate().take(n - 1).skip(1) {
        net.set_responds(r, !c.dark[i]);
        net.set_mpls_hidden(r, c.hidden[i]);
    }
    let as_path: Vec<Asn> = if c.as_split == 0 {
        vec![Asn(2)]
    } else if c.as_split >= n {
        vec![Asn(1)]
    } else {
        vec![Asn(1), Asn(2)]
    };
    (net, routers, as_path)
}

proptest! {
    #[test]
    fn chain_traceroute_invariants(c in arb_chain()) {
        let (net, routers, as_path) = build_chain(&c);
        let src = routers[0];
        let dst = *routers.last().unwrap();
        // The source must be in the first AS of the path for the
        // constraint to hold; adjust when the split makes AS2 start at 0.
        let src_asn = net.router(src).asn;
        prop_assume!(as_path.first() == Some(&src_asn));
        let tr = trace_route(&net, src, dst, Some(&as_path)).expect("chain is connected");

        // 1. The destination is the last hop and always answers.
        let last = tr.hops.last().expect("at least one hop");
        prop_assert_eq!(last.truth_router, dst);
        prop_assert!(last.ip.is_some());

        // 2. TTLs are strictly increasing.
        for w in tr.hops.windows(2) {
            prop_assert!(w[1].ttl > w[0].ttl);
        }

        // 3. RTTs of responding hops increase along the chain, modulo the
        // bounded per-hop processing jitter (±0.55 ms).
        let rtts: Vec<f64> = tr.hops.iter().filter(|h| h.ip.is_some()).map(|h| h.rtt_ms).collect();
        for w in rtts.windows(2) {
            prop_assert!(w[1] > w[0] - 1.2, "rtt regression: {rtts:?}");
        }

        // 4. Hidden (MPLS) routers never appear among hops; dark routers
        // appear as stars (ip = None); everything else responds.
        let hop_routers: Vec<RouterId> = tr.hops.iter().map(|h| h.truth_router).collect();
        for (i, &r) in routers.iter().enumerate().skip(1) {
            let is_dst = r == dst;
            if c.hidden[i] && !is_dst {
                prop_assert!(!hop_routers.contains(&r), "hidden router {i} surfaced");
            } else if c.dark[i] && !is_dst {
                let hop = tr.hops.iter().find(|h| h.truth_router == r).expect("dark hop present");
                prop_assert!(hop.ip.is_none(), "dark router {i} answered");
            }
        }

        // 5. The ground-truth path is the whole chain.
        prop_assert_eq!(tr.truth_path.len(), routers.len());

        // 6. Total RTT at the destination ≈ 2 × sum of link delays.
        let total: f64 = c.delays.iter().sum();
        prop_assert!((last.rtt_ms - 2.0 * total).abs() < 1.0, "{} vs {}", last.rtt_ms, 2.0 * total);
    }

    #[test]
    fn responding_ips_are_resolvable_interfaces(c in arb_chain()) {
        let (net, routers, as_path) = build_chain(&c);
        let src_asn = net.router(routers[0]).asn;
        prop_assume!(as_path.first() == Some(&src_asn));
        let tr = trace_route(&net, routers[0], *routers.last().unwrap(), Some(&as_path)).unwrap();
        for ip in tr.responding_ips() {
            let owner = net.owner_of(ip).expect("responding address owned by a router");
            prop_assert!(tr.truth_path.contains(&owner));
        }
    }
}
