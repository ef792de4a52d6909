//! IP→AS mapping with border correction (the bdrmapIT role).
//!
//! Paper §3.3: "IP to AS mapping is problematic because a link between two
//! ASes is usually assigned IP addresses from one of the ASes. As a result,
//! mapping the IP address to the AS announcing the smallest subprefix can
//! result in wrongly inferred ownership of links. … we leverage bdrmapIT, a
//! state of the art technique to map network borders."
//!
//! Our implementation performs the two bdrmapIT moves that matter for
//! iGDB's use of it (AS *path* identification from traceroutes, §5):
//!
//! 1. **Longest-prefix match** against the BGP RIB (origin prefixes).
//! 2. **Border reassignment**: when an address whose covering prefix
//!    belongs to AS *A* is consistently observed with *A*-owned hops
//!    before it and *B*-owned hops after it, the interface is the far end
//!    of an A–B link, operated by *B* — so it is reassigned to *B*.
//!
//! IXP LAN addresses (known from `ixp_prefixes`) are handled
//! traIXroute-style: the hop belongs to the AS of the *next* resolved hop
//! (the member router that answered from the LAN).

use std::collections::HashMap;

use igdb_net::{Asn, Ip4, Prefix, PrefixTrie};

/// How an address was mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpOrigin {
    /// Straight longest-prefix match.
    PrefixMatch(Asn),
    /// Reassigned across a border by the traceroute heuristic.
    BorderReassigned(Asn),
    /// An IXP LAN address, attributed to the following member AS.
    IxpLan(Asn),
    /// No covering prefix and no usable context.
    Unknown,
}

impl IpOrigin {
    pub fn asn(&self) -> Option<Asn> {
        match self {
            IpOrigin::PrefixMatch(a) | IpOrigin::BorderReassigned(a) | IpOrigin::IxpLan(a) => {
                Some(*a)
            }
            IpOrigin::Unknown => None,
        }
    }
}

/// The mapper: build once from RIB + IXP prefixes, refine with traceroutes.
pub struct BdrMap {
    rib: PrefixTrie<Asn>,
    ixp_lans: Vec<Prefix>,
    /// Final per-address decisions after refinement.
    assignments: HashMap<Ip4, IpOrigin>,
}

impl BdrMap {
    /// Builds the initial mapper from BGP RIB entries and IXP LAN prefixes.
    pub fn new(rib_entries: &[(Prefix, Asn)], ixp_lans: &[Prefix]) -> Self {
        let mut rib = PrefixTrie::new();
        for &(p, a) in rib_entries {
            rib.insert(p, a);
        }
        Self {
            rib,
            ixp_lans: ixp_lans.to_vec(),
            assignments: HashMap::new(),
        }
    }

    /// True if `ip` lies on a known IXP peering LAN.
    pub fn is_ixp_address(&self, ip: Ip4) -> bool {
        self.ixp_lans.iter().any(|p| p.contains(ip))
    }

    /// Raw longest-prefix match (no border logic).
    pub fn prefix_owner(&self, ip: Ip4) -> Option<Asn> {
        self.rib.lookup(ip).map(|(_, &a)| a)
    }

    /// Refines the map over a corpus of traceroutes (each a sequence of
    /// responding addresses in hop order). Call once after construction;
    /// subsequent [`BdrMap::resolve`] calls use the refined assignments.
    pub fn refine(&mut self, traces: &[Vec<Ip4>]) {
        // Pass 1: votes. For every observed address, tally the prefix-owner
        // of its nearest resolved predecessor and successor hops.
        #[derive(Default)]
        struct Votes {
            pred: HashMap<Asn, usize>,
            succ: HashMap<Asn, usize>,
        }
        let mut votes: HashMap<Ip4, Votes> = HashMap::new();
        for trace in traces {
            for (i, &ip) in trace.iter().enumerate() {
                let v = votes.entry(ip).or_default();
                if i > 0 {
                    if let Some(a) = self.prefix_owner(trace[i - 1]) {
                        *v.pred.entry(a).or_default() += 1;
                    }
                }
                if i + 1 < trace.len() {
                    if let Some(a) = self.prefix_owner(trace[i + 1]) {
                        *v.succ.entry(a).or_default() += 1;
                    }
                }
            }
        }
        // Pass 2: decisions.
        for (&ip, v) in &votes {
            let decision = if self.is_ixp_address(ip) {
                // traIXroute rule: the IXP hop is the entering member —
                // attribute to the majority successor AS.
                match majority(&v.succ) {
                    Some(b) => IpOrigin::IxpLan(b),
                    None => match majority(&v.pred) {
                        Some(a) => IpOrigin::IxpLan(a),
                        None => IpOrigin::Unknown,
                    },
                }
            } else {
                match self.prefix_owner(ip) {
                    Some(lpm) => {
                        let pred = majority(&v.pred);
                        let succ = majority(&v.succ);
                        match (pred, succ) {
                            // A-owned space, A behind, B ahead: the far end
                            // of the A→B border link — operated by B.
                            (Some(a), Some(b)) if a == lpm && b != lpm => {
                                IpOrigin::BorderReassigned(b)
                            }
                            _ => IpOrigin::PrefixMatch(lpm),
                        }
                    }
                    None => match majority(&v.succ) {
                        // Unannounced space mid-path: trust the successor.
                        Some(b) => IpOrigin::BorderReassigned(b),
                        None => IpOrigin::Unknown,
                    },
                }
            };
            self.assignments.insert(ip, decision);
        }
    }

    /// Resolves an address: refined assignment if available, else LPM.
    pub fn resolve(&self, ip: Ip4) -> IpOrigin {
        if let Some(&d) = self.assignments.get(&ip) {
            return d;
        }
        match self.prefix_owner(ip) {
            Some(a) => IpOrigin::PrefixMatch(a),
            None => IpOrigin::Unknown,
        }
    }

    /// The AS path of a traceroute: resolved per hop, deduplicated runs.
    pub fn as_path(&self, trace: &[Ip4]) -> Vec<Asn> {
        let mut path = Vec::new();
        for &ip in trace {
            if let Some(a) = self.resolve(ip).asn() {
                if path.last() != Some(&a) {
                    path.push(a);
                }
            }
        }
        path
    }
}

fn majority(m: &HashMap<Asn, usize>) -> Option<Asn> {
    let total: usize = m.values().sum();
    m.iter()
        .max_by_key(|&(asn, n)| (*n, std::cmp::Reverse(asn.0)))
        .filter(|&(_, n)| 2 * n > total)
        .map(|(&a, _)| a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ip4 {
        s.parse().unwrap()
    }
    fn pre(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// AS 1 owns 10.1.0.0/16, AS 2 owns 10.2.0.0/16; the 1–2 border link is
    /// numbered from AS 1's space (10.1.9.0/30): 10.1.9.1 on AS1's router,
    /// 10.1.9.2 on AS2's router.
    fn mapper() -> BdrMap {
        BdrMap::new(
            &[(pre("10.1.0.0/16"), Asn(1)), (pre("10.2.0.0/16"), Asn(2))],
            &[pre("192.0.2.0/24")],
        )
    }

    #[test]
    fn lpm_without_refinement() {
        let m = mapper();
        assert_eq!(m.resolve(ip("10.1.5.5")), IpOrigin::PrefixMatch(Asn(1)));
        assert_eq!(m.resolve(ip("10.2.5.5")), IpOrigin::PrefixMatch(Asn(2)));
        assert_eq!(m.resolve(ip("44.0.0.1")), IpOrigin::Unknown);
    }

    #[test]
    fn border_interface_reassigned() {
        let mut m = mapper();
        // Traceroute: A-internal, A-side of border, B-side of border
        // (from A's space!), B-internal.
        let traces = vec![
            vec![
                ip("10.1.0.1"),
                ip("10.1.9.1"),
                ip("10.1.9.2"),
                ip("10.2.0.1"),
            ],
            vec![
                ip("10.1.0.2"),
                ip("10.1.9.1"),
                ip("10.1.9.2"),
                ip("10.2.0.9"),
            ],
        ];
        m.refine(&traces);
        assert_eq!(
            m.resolve(ip("10.1.9.2")),
            IpOrigin::BorderReassigned(Asn(2))
        );
        // The near side stays with A.
        assert_eq!(m.resolve(ip("10.1.9.1")).asn(), Some(Asn(1)));
        // AS path is clean: [1, 2].
        assert_eq!(m.as_path(&traces[0]), vec![Asn(1), Asn(2)]);
    }

    #[test]
    fn ixp_hop_attributed_to_next_member() {
        let mut m = mapper();
        // A → IXP LAN → B.
        let traces = vec![
            vec![ip("10.1.0.1"), ip("192.0.2.7"), ip("10.2.0.1")],
            vec![ip("10.1.0.3"), ip("192.0.2.7"), ip("10.2.0.2")],
        ];
        m.refine(&traces);
        assert_eq!(m.resolve(ip("192.0.2.7")), IpOrigin::IxpLan(Asn(2)));
        assert_eq!(m.as_path(&traces[0]), vec![Asn(1), Asn(2)]);
    }

    #[test]
    fn ixp_hop_at_path_end_uses_predecessor() {
        let mut m = mapper();
        let traces = vec![vec![ip("10.1.0.1"), ip("192.0.2.9")]];
        m.refine(&traces);
        assert_eq!(m.resolve(ip("192.0.2.9")), IpOrigin::IxpLan(Asn(1)));
    }

    #[test]
    fn interior_addresses_not_reassigned() {
        let mut m = mapper();
        // Pure intra-AS trace: everything stays PrefixMatch.
        let traces = vec![vec![ip("10.1.0.1"), ip("10.1.0.2"), ip("10.1.0.3")]];
        m.refine(&traces);
        for s in ["10.1.0.1", "10.1.0.2", "10.1.0.3"] {
            assert_eq!(m.resolve(ip(s)), IpOrigin::PrefixMatch(Asn(1)), "{s}");
        }
    }

    #[test]
    fn conflicting_votes_fall_back_to_lpm() {
        let mut m = mapper();
        // 10.1.9.2 appears once A→B and once B→A: no majority successor.
        let traces = vec![
            vec![ip("10.1.0.1"), ip("10.1.9.2"), ip("10.2.0.1")],
            vec![ip("10.2.0.1"), ip("10.1.9.2"), ip("10.1.0.1")],
        ];
        m.refine(&traces);
        assert_eq!(m.resolve(ip("10.1.9.2")), IpOrigin::PrefixMatch(Asn(1)));
    }

    #[test]
    fn unannounced_midpath_takes_successor() {
        let mut m = mapper();
        let traces = vec![
            vec![ip("10.1.0.1"), ip("44.0.0.1"), ip("10.2.0.1")],
            vec![ip("10.1.0.2"), ip("44.0.0.1"), ip("10.2.0.3")],
        ];
        m.refine(&traces);
        assert_eq!(
            m.resolve(ip("44.0.0.1")),
            IpOrigin::BorderReassigned(Asn(2))
        );
    }

    #[test]
    fn as_path_dedupes_runs() {
        let m = mapper();
        let path = m.as_path(&[
            ip("10.1.0.1"),
            ip("10.1.0.2"),
            ip("10.2.0.1"),
            ip("10.2.0.2"),
        ]);
        assert_eq!(path, vec![Asn(1), Asn(2)]);
    }
}
