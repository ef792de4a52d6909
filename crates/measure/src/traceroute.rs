//! Traceroute simulation with TTL semantics, MPLS hiding and unresponsive
//! hops.
//!
//! Forwarding follows a supplied BGP AS path (inter-domain hops may only
//! advance along it) with latency-shortest routing inside each AS — the
//! hot-potato-ish behaviour real traceroutes reflect. Hop emission then
//! models the measurement artefacts the paper's §4.2/§4.4 pipelines must
//! cope with:
//!
//! * each responding hop answers from the *ingress interface* of the link
//!   the probe arrived on (so border links answer from whichever AS owns
//!   the link subnet — the IP→AS mapping pitfall of §3.3);
//! * MPLS-interior routers are skipped entirely ("hidden");
//! * unresponsive routers consume a TTL but reply nothing (`*`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use igdb_net::{Asn, Ip4};

use crate::latency::processing_delay_ms;
use crate::net::{LinkId, RouterId, RouterNet};

/// One traceroute hop as an external observer sees it, plus ground truth.
#[derive(Clone, Debug)]
pub struct TracerouteHop {
    /// Probe TTL that expired at this hop (1-based).
    pub ttl: u8,
    /// Responding interface address; `None` renders as `*`.
    pub ip: Option<Ip4>,
    /// Observed round-trip time in milliseconds (0 when unresponsive).
    pub rtt_ms: f64,
    /// Ground-truth router — for simulator validation only; iGDB analyses
    /// must never read it.
    pub truth_router: RouterId,
}

/// A completed traceroute.
#[derive(Clone, Debug)]
pub struct Traceroute {
    pub src: RouterId,
    pub dst: RouterId,
    /// Hops in order; the destination, if reached, is the last hop.
    pub hops: Vec<TracerouteHop>,
    pub reached: bool,
    /// Ground-truth routers traversed (including hidden ones), src first.
    pub truth_path: Vec<RouterId>,
}

impl Traceroute {
    /// The responding IP addresses in hop order (skipping `*` hops).
    pub fn responding_ips(&self) -> Vec<Ip4> {
        self.hops.iter().filter_map(|h| h.ip).collect()
    }
}

/// f64 wrapper with total order for the Dijkstra heap.
#[derive(PartialEq)]
struct Cost(f64);
impl Eq for Cost {}
impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0) // reversed: min-heap
    }
}

/// Computes the latency-shortest router path from `src` to `dst`.
///
/// With `as_path = Some(p)`, forwarding is constrained to follow the AS
/// path: a hop may stay inside the current AS or advance to the next AS in
/// `p`; it may never leave the sequence. `src` must be in `p[0]` and `dst`
/// in `p.last()`. With `None`, plain shortest path over the whole graph.
///
/// Returns the router sequence and, per step, the link taken to arrive.
pub fn router_path(
    net: &RouterNet,
    src: RouterId,
    dst: RouterId,
    as_path: Option<&[Asn]>,
) -> Option<Vec<(RouterId, Option<LinkId>)>> {
    let n = net.router_count();
    let layers = as_path.map(|p| p.len()).unwrap_or(1);
    if let Some(p) = as_path {
        if p.is_empty() || net.router(src).asn != p[0] || net.router(dst).asn != *p.last().unwrap()
        {
            return None;
        }
    }
    // State = router * layers + layer.
    let state = |r: RouterId, layer: usize| r.0 as usize * layers + layer;
    let mut dist = vec![f64::INFINITY; n * layers];
    let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n * layers];
    let mut heap: BinaryHeap<(Cost, usize)> = BinaryHeap::new();
    let s0 = state(src, 0);
    dist[s0] = 0.0;
    heap.push((Cost(0.0), s0));
    let goal = state(dst, layers - 1);
    while let Some((Cost(d), st)) = heap.pop() {
        if d > dist[st] {
            continue;
        }
        if st == goal {
            break;
        }
        let r = RouterId((st / layers) as u32);
        let layer = st % layers;
        for &(nb, link) in net.neighbors(r) {
            let nb_asn = net.router(nb).asn;
            // Layer delta: stay in the current AS (0) or advance to the
            // next AS on the BGP path (1); anything else is not forwarded.
            let delta = match as_path {
                None => 0,
                Some(p) if nb_asn == p[layer] => 0,
                Some(p) if layer + 1 < p.len() && nb_asn == p[layer + 1] => 1,
                Some(_) => continue,
            };
            let next_layer = layer + delta;
            let nst = state(nb, next_layer);
            let nd = d + net.link(link).delay_ms;
            if nd < dist[nst] {
                dist[nst] = nd;
                prev[nst] = Some((st, link));
                heap.push((Cost(nd), nst));
            }
        }
    }
    if dist[goal].is_infinite() {
        return None;
    }
    // Reconstruct.
    let mut path = Vec::new();
    let mut cur = goal;
    loop {
        let r = RouterId((cur / layers) as u32);
        match prev[cur] {
            Some((p, link)) => {
                path.push((r, Some(link)));
                cur = p;
            }
            None => {
                path.push((r, None));
                break;
            }
        }
    }
    path.reverse();
    Some(path)
}

/// Runs a traceroute from `src` to `dst` along the given AS path (or
/// unconstrained when `None`). Returns `None` if no forwarding path
/// exists.
pub fn trace_route(
    net: &RouterNet,
    src: RouterId,
    dst: RouterId,
    as_path: Option<&[Asn]>,
) -> Option<Traceroute> {
    let path = router_path(net, src, dst, as_path)?;
    let mut hops = Vec::new();
    let mut one_way_ms = 0.0;
    let mut ttl: u8 = 0;
    let truth_path: Vec<RouterId> = path.iter().map(|(r, _)| *r).collect();
    for (r, link) in path.iter().skip(1) {
        let router = net.router(*r);
        one_way_ms += link.map(|l| net.link(l).delay_ms).unwrap_or(0.0);
        let is_dst = *r == dst;
        // MPLS-interior routers neither decrement TTL nor respond — unless
        // they are the destination itself.
        if router.mpls_hidden && !is_dst {
            continue;
        }
        ttl = ttl.saturating_add(1);
        if router.responds || is_dst {
            let ip = link.map(|l| net.iface_on(l, *r));
            hops.push(TracerouteHop {
                ttl,
                ip,
                rtt_ms: 2.0 * one_way_ms + processing_delay_ms(r.0),
                truth_router: *r,
            });
        } else {
            hops.push(TracerouteHop {
                ttl,
                ip: None,
                rtt_ms: 0.0,
                truth_router: *r,
            });
        }
    }
    Some(Traceroute {
        src,
        dst,
        hops,
        reached: true,
        truth_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_geo::GeoPoint;

    fn ip(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    /// A linear 4-router chain across two ASes:
    /// a(AS1,city0) — b(AS1,city1) — c(AS2,city2) — d(AS2,city3)
    fn chain() -> (RouterNet, Vec<RouterId>) {
        let mut net = RouterNet::new();
        let a = net.add_router(Asn(1), 0, GeoPoint::new(0.0, 0.0));
        let b = net.add_router(Asn(1), 1, GeoPoint::new(1.0, 0.0));
        let c = net.add_router(Asn(2), 2, GeoPoint::new(2.0, 0.0));
        let d = net.add_router(Asn(2), 3, GeoPoint::new(3.0, 0.0));
        net.add_link(a, b, ip("10.0.0.1"), ip("10.0.0.2"), 0.5, 100.0);
        net.add_link(b, c, ip("10.0.1.1"), ip("10.0.1.2"), 0.6, 120.0);
        net.add_link(c, d, ip("10.0.2.1"), ip("10.0.2.2"), 0.7, 140.0);
        (net, vec![a, b, c, d])
    }

    #[test]
    fn unconstrained_path_found() {
        let (net, r) = chain();
        let path = router_path(&net, r[0], r[3], None).unwrap();
        let routers: Vec<RouterId> = path.iter().map(|(x, _)| *x).collect();
        assert_eq!(routers, vec![r[0], r[1], r[2], r[3]]);
        assert!(path[0].1.is_none());
        assert!(path[1..].iter().all(|(_, l)| l.is_some()));
    }

    #[test]
    fn as_path_constraint_respected() {
        let (mut net, r) = chain();
        // Add a shortcut a—d that violates the AS path [1, 2] only in the
        // sense of skipping AS1's egress; it is AS1→AS2 so actually legal.
        // Instead add a detour through a third AS that must be avoided:
        let e = net.add_router(Asn(3), 4, GeoPoint::new(1.5, 1.0));
        net.add_link(r[0], e, ip("10.9.0.1"), ip("10.9.0.2"), 0.01, 10.0);
        net.add_link(e, r[3], ip("10.9.1.1"), ip("10.9.1.2"), 0.01, 10.0);
        // Unconstrained routing takes the cheap AS3 detour…
        let free = router_path(&net, r[0], r[3], None).unwrap();
        assert!(free.iter().any(|(x, _)| *x == e));
        // …but the BGP path [AS1, AS2] forbids it.
        let constrained = router_path(&net, r[0], r[3], Some(&[Asn(1), Asn(2)])).unwrap();
        assert!(constrained.iter().all(|(x, _)| *x != e));
    }

    #[test]
    fn as_path_mismatched_endpoints_rejected() {
        let (net, r) = chain();
        assert!(router_path(&net, r[0], r[3], Some(&[Asn(2), Asn(1)])).is_none());
        assert!(router_path(&net, r[0], r[3], Some(&[])).is_none());
    }

    #[test]
    fn disconnected_returns_none() {
        let (mut net, r) = chain();
        let island = net.add_router(Asn(9), 9, GeoPoint::new(9.0, 9.0));
        assert!(router_path(&net, r[0], island, None).is_none());
    }

    #[test]
    fn traceroute_hops_use_ingress_interfaces() {
        let (net, r) = chain();
        let tr = trace_route(&net, r[0], r[3], Some(&[Asn(1), Asn(2)])).unwrap();
        assert!(tr.reached);
        assert_eq!(tr.hops.len(), 3);
        // Hop 1: router b's interface on link a—b.
        assert_eq!(tr.hops[0].ip, Some(ip("10.0.0.2")));
        // Hop 2: router c's interface on link b—c (allocated from AS1
        // space — the border-ownership pitfall).
        assert_eq!(tr.hops[1].ip, Some(ip("10.0.1.2")));
        assert_eq!(tr.hops[2].ip, Some(ip("10.0.2.2")));
        assert_eq!(
            tr.hops.iter().map(|h| h.ttl).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn rtt_monotone_nondecreasing_modulo_processing() {
        let (net, r) = chain();
        let tr = trace_route(&net, r[0], r[3], None).unwrap();
        // Propagation dominates (links are ≥0.5 ms): RTTs must increase.
        let rtts: Vec<f64> = tr.hops.iter().map(|h| h.rtt_ms).collect();
        assert!(rtts.windows(2).all(|w| w[1] > w[0] - 0.6), "{rtts:?}");
    }

    #[test]
    fn mpls_hidden_router_skipped_but_latency_kept() {
        let (mut net, r) = chain();
        net.set_mpls_hidden(r[1], true); // b vanishes
        let tr = trace_route(&net, r[0], r[3], None).unwrap();
        assert_eq!(tr.hops.len(), 2);
        assert_eq!(tr.hops[0].ip, Some(ip("10.0.1.2"))); // c, TTL 1 now
        assert_eq!(tr.hops[0].ttl, 1);
        // Latency through the hidden hop is still accumulated: c's RTT
        // covers both links (≥ 2*(0.5+0.6)).
        assert!(tr.hops[0].rtt_ms >= 2.0 * 1.1);
        // Ground truth still lists b.
        assert!(tr.truth_path.contains(&r[1]));
    }

    #[test]
    fn unresponsive_router_yields_star() {
        let (mut net, r) = chain();
        net.set_responds(r[2], false); // c goes dark
        let tr = trace_route(&net, r[0], r[3], None).unwrap();
        assert_eq!(tr.hops.len(), 3);
        assert_eq!(tr.hops[1].ip, None);
        assert_eq!(tr.hops[1].ttl, 2); // TTL still consumed
        assert_eq!(tr.hops[2].ip, Some(ip("10.0.2.2")));
        assert_eq!(tr.responding_ips().len(), 2);
    }

    #[test]
    fn destination_always_answers_even_if_marked_dark() {
        let (mut net, r) = chain();
        net.set_responds(r[3], false);
        net.set_mpls_hidden(r[3], true);
        let tr = trace_route(&net, r[0], r[3], None).unwrap();
        let last = tr.hops.last().unwrap();
        assert_eq!(last.truth_router, r[3]);
        assert!(last.ip.is_some(), "destination replies to the probe itself");
    }

    #[test]
    fn intra_as_traceroute_single_as_path() {
        let (net, r) = chain();
        let tr = trace_route(&net, r[0], r[1], Some(&[Asn(1)])).unwrap();
        assert_eq!(tr.hops.len(), 1);
        assert_eq!(tr.hops[0].ip, Some(ip("10.0.0.2")));
    }
}
