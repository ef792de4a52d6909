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
//!
//! # Vote tallies, and the carry across a corpus change
//!
//! A decision reads only its own address's state: its prefix owner,
//! whether it sits on an IXP LAN, and the majorities of two tallies — the
//! prefix owners of the hop right before each of its occurrences, and of
//! the hop right after. The map keeps that state per observed address: the
//! owner (one longest-prefix match per distinct address, not two per hop),
//! the address's occurrence count, both tallies, and the decision they
//! give. A trace's votes are a function of the trace and the RIB alone, so
//! taking a trace away takes back exactly the votes it added.
//!
//! [`BdrMap::for_next_epoch`] carries a map across a change of the corpus
//! (same RIB, same IXP LANs): it takes back the votes of the traces that
//! left, adds those of the traces that came, and re-decides only the
//! addresses those traces hold. An address whose last occurrence left is
//! forgotten, tallies and decision, and resolves by plain LPM, as in a map
//! that never saw it. The majority rule is order-free (more than half the
//! votes; the tie-break among equal counts is total), so the carried map
//! resolves every address as a cold [`BdrMap::refine`] over the new corpus
//! does — and a cold refine is this same update, from an empty map.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

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
#[derive(Clone)]
pub struct BdrMap {
    /// Shared by every map carried from this one.
    rib: Arc<PrefixTrie<Asn>>,
    ixp_lans: Vec<Prefix>,
    /// Every address the corpus holds, with what decides it.
    addresses: HashMap<Ip4, Address>,
}

/// What the map knows of one observed address.
#[derive(Clone)]
struct Address {
    /// Its longest-prefix-match owner.
    owner: Option<Asn>,
    /// Its hops in the corpus, repeats within a trace included.
    occurrences: u32,
    /// Per AS, how many of its occurrences have a hop owned by that AS
    /// right before them, and right after: the first ASes in place (an
    /// entry with no votes is a free slot), any further ones in `more`,
    /// where no entry is empty. Most addresses see one or two neighbour
    /// ASes, so most allocate nothing of their own: thousands of small
    /// allocations that live as long as the world pin heap pages apart
    /// (a `Vec` per address read 1–3 MB more peak RSS in the benchmark's
    /// `build` workload).
    votes: [Votes; 2],
    more: Vec<Votes>,
    /// What `votes` and `owner` decide; stale while `dirty`.
    decision: IpOrigin,
    /// A trace holding the address came or left since the last decision.
    dirty: bool,
}

/// One AS's votes for one address.
#[derive(Clone, Copy)]
struct Votes {
    asn: Asn,
    /// As the owner of the hop before.
    pred: u32,
    /// As the owner of the hop after.
    succ: u32,
}

/// Which neighbour of an occurrence a vote is for.
#[derive(Clone, Copy)]
enum Side {
    Pred,
    Succ,
}

impl Votes {
    const NONE: Votes = Votes {
        asn: Asn(0),
        pred: 0,
        succ: 0,
    };

    fn is_empty(&self) -> bool {
        (self.pred, self.succ) == (0, 0)
    }

    fn on(&mut self, side: Side) -> &mut u32 {
        match side {
            Side::Pred => &mut self.pred,
            Side::Succ => &mut self.succ,
        }
    }
}

impl Address {
    /// The index of `asn`'s entry among `votes` then `more`.
    fn find(&self, asn: Asn) -> Option<usize> {
        self.votes
            .iter()
            .chain(&self.more)
            .position(|v| !v.is_empty() && v.asn == asn)
    }

    fn entry(&mut self, i: usize) -> &mut Votes {
        match i.checked_sub(self.votes.len()) {
            Some(j) => &mut self.more[j],
            None => &mut self.votes[i],
        }
    }

    fn add(&mut self, asn: Asn, side: Side) {
        let i = self.find(asn).unwrap_or_else(|| {
            let fresh = Votes { asn, ..Votes::NONE };
            match self.votes.iter().position(Votes::is_empty) {
                Some(free) => {
                    self.votes[free] = fresh;
                    free
                }
                None => {
                    self.more.push(fresh);
                    self.votes.len() + self.more.len() - 1
                }
            }
        });
        *self.entry(i).on(side) += 1;
    }

    fn take_back(&mut self, asn: Asn, side: Side) {
        let i = self.find(asn).expect("a vote this address counted");
        let entry = self.entry(i);
        *entry.on(side) -= 1;
        if entry.is_empty() {
            if let Some(j) = i.checked_sub(self.votes.len()) {
                self.more.swap_remove(j);
            }
        }
    }

    /// The AS holding more than half the votes on `side`, if one does.
    fn majority(&self, side: Side) -> Option<Asn> {
        let count = |v: &&Votes| match side {
            Side::Pred => v.pred,
            Side::Succ => v.succ,
        };
        let entries = || self.votes.iter().chain(&self.more);
        let total: u32 = entries().map(|v| count(&v)).sum();
        entries()
            .max_by_key(|v| (count(v), Reverse(v.asn.0)))
            .filter(|v| 2 * count(v) > total)
            .map(|v| v.asn)
    }

    fn decide(&self, on_ixp_lan: bool) -> IpOrigin {
        if on_ixp_lan {
            // traIXroute rule: the IXP hop is the entering member —
            // attribute to the majority successor AS.
            return match self
                .majority(Side::Succ)
                .or_else(|| self.majority(Side::Pred))
            {
                Some(member) => IpOrigin::IxpLan(member),
                None => IpOrigin::Unknown,
            };
        }
        match self.owner {
            Some(lpm) => match (self.majority(Side::Pred), self.majority(Side::Succ)) {
                // A-owned space, A behind, B ahead: the far end of the
                // A→B border link — operated by B.
                (Some(a), Some(b)) if a == lpm && b != lpm => IpOrigin::BorderReassigned(b),
                _ => IpOrigin::PrefixMatch(lpm),
            },
            // Unannounced space mid-path: trust the successor.
            None => match self.majority(Side::Succ) {
                Some(b) => IpOrigin::BorderReassigned(b),
                None => IpOrigin::Unknown,
            },
        }
    }
}

impl BdrMap {
    /// Builds the initial mapper from BGP RIB entries and IXP LAN prefixes.
    pub fn new(rib_entries: &[(Prefix, Asn)], ixp_lans: &[Prefix]) -> Self {
        let mut rib = PrefixTrie::new();
        for &(p, a) in rib_entries {
            rib.insert(p, a);
        }
        Self {
            rib: Arc::new(rib),
            ixp_lans: ixp_lans.to_vec(),
            addresses: HashMap::new(),
        }
    }

    /// True if `ip` lies on a known IXP peering LAN.
    pub fn is_ixp_address(&self, ip: Ip4) -> bool {
        on_ixp_lan(&self.ixp_lans, ip)
    }

    /// Raw longest-prefix match (no border logic).
    pub fn prefix_owner(&self, ip: Ip4) -> Option<Asn> {
        self.rib.lookup(ip).map(|(_, &a)| a)
    }

    /// Refines the map over a corpus of traceroutes (each a sequence of
    /// responding addresses in hop order), adding to whatever corpus it
    /// holds; [`BdrMap::resolve`] then uses the refined assignments.
    pub fn refine(&mut self, traces: &[Vec<Ip4>]) {
        self.update(
            Vec::<Vec<Ip4>>::new(),
            traces.iter().map(|t| t.iter().copied()),
        );
    }

    /// `prior`'s map over its corpus with the traces `removed` taken out
    /// and `added` put in: equal, on every address, to a cold
    /// [`BdrMap::refine`] over the new corpus under the same RIB and IXP
    /// LANs. Each removed trace must be one `prior` counted.
    pub fn for_next_epoch<R, A>(prior: &BdrMap, removed: R, added: A) -> BdrMap
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = Ip4>,
        A: IntoIterator,
        A::Item: IntoIterator<Item = Ip4>,
    {
        let mut next = prior.clone();
        next.update(removed, added);
        next
    }

    /// Counts the traces `added` and takes back the traces `removed`, then
    /// re-decides the addresses they hold and forgets those no trace
    /// holds any more.
    fn update<R, A>(&mut self, removed: R, added: A)
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = Ip4>,
        A: IntoIterator,
        A::Item: IntoIterator<Item = Ip4>,
    {
        let mut scratch = (Vec::new(), Vec::new());
        for trace in added {
            self.count(trace, true, &mut scratch);
        }
        for trace in removed {
            self.count(trace, false, &mut scratch);
        }
        let lans = &self.ixp_lans;
        self.addresses.retain(|&ip, a| {
            if a.dirty {
                a.decision = a.decide(on_ixp_lan(lans, ip));
                a.dirty = false;
            }
            a.occurrences > 0
        });
        // The map lives as long as its world: return the growth slack.
        self.addresses.shrink_to_fit();
    }

    /// Adds one trace's occurrences and votes, or takes them back.
    fn count(
        &mut self,
        trace: impl IntoIterator<Item = Ip4>,
        add: bool,
        (hops, owners): &mut (Vec<Ip4>, Vec<Option<Asn>>),
    ) {
        hops.clear();
        hops.extend(trace);
        owners.clear();
        let rib = &self.rib;
        for &ip in hops.iter() {
            let a = self.addresses.entry(ip).or_insert_with(|| Address {
                owner: rib.lookup(ip).map(|(_, &asn)| asn),
                occurrences: 0,
                votes: [Votes::NONE; 2],
                more: Vec::new(),
                decision: IpOrigin::Unknown,
                dirty: true,
            });
            a.occurrences = if add {
                a.occurrences + 1
            } else {
                a.occurrences
                    .checked_sub(1)
                    .expect("a removed trace is one the map counted")
            };
            a.dirty = true;
            owners.push(a.owner);
        }
        for (i, ip) in hops.iter().enumerate() {
            let a = self.addresses.get_mut(ip).expect("counted above");
            let before = i.checked_sub(1).and_then(|j| owners[j]);
            let after = owners.get(i + 1).copied().flatten();
            for (side, owner) in [(Side::Pred, before), (Side::Succ, after)] {
                match owner {
                    Some(owner) if add => a.add(owner, side),
                    Some(owner) => a.take_back(owner, side),
                    None => {}
                }
            }
        }
    }

    /// Every address the corpus holds, in address order.
    pub fn observed(&self) -> Vec<Ip4> {
        let mut ips: Vec<Ip4> = self.addresses.keys().copied().collect();
        ips.sort_unstable();
        ips
    }

    /// Resolves an address: refined assignment if available, else LPM.
    pub fn resolve(&self, ip: Ip4) -> IpOrigin {
        if let Some(a) = self.addresses.get(&ip) {
            return a.decision;
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

    /// Whether both maps look addresses up in the same RIB allocation.
    #[cfg(test)]
    pub(crate) fn shares_rib(&self, other: &BdrMap) -> bool {
        Arc::ptr_eq(&self.rib, &other.rib)
    }
}

fn on_ixp_lan(lans: &[Prefix], ip: Ip4) -> bool {
    lans.iter().any(|p| p.contains(ip))
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

    /// Carrying a map across a corpus change: `for_next_epoch` takes the
    /// removed traces' votes back, and an address that loses its last
    /// occurrence falls back to plain LPM.
    #[test]
    fn carried_map_forgets_an_address_whose_last_trace_left() {
        let border = vec![
            ip("10.1.0.1"),
            ip("10.1.9.1"),
            ip("10.1.9.2"),
            ip("10.2.0.1"),
        ];
        let inner = vec![ip("10.1.0.1"), ip("10.1.0.2")];
        let mut m = mapper();
        m.refine(&[border.clone(), inner.clone()]);
        assert_eq!(
            m.resolve(ip("10.1.9.2")),
            IpOrigin::BorderReassigned(Asn(2))
        );
        let next = BdrMap::for_next_epoch(&m, [border.iter().copied()], Vec::<Vec<Ip4>>::new());
        assert_eq!(next.resolve(ip("10.1.9.2")), IpOrigin::PrefixMatch(Asn(1)));
        assert_eq!(next.observed(), [ip("10.1.0.1"), ip("10.1.0.2")]);
        assert!(next.shares_rib(&m));
        // The prior map is untouched.
        assert_eq!(
            m.resolve(ip("10.1.9.2")),
            IpOrigin::BorderReassigned(Asn(2))
        );
    }

    /// The address pool of the property test: announced space of three
    /// ASes (one a more-specific inside another's), an IXP LAN that is
    /// also announced, one that is not, and unannounced space.
    const POOL: [&str; 14] = [
        "10.1.0.1",
        "10.1.0.2",
        "10.1.9.1",
        "10.1.9.2",
        "10.1.7.1",
        "10.2.0.1",
        "10.2.0.2",
        "10.3.0.1",
        "10.3.0.2",
        "192.0.2.7",
        "192.0.2.8",
        "198.51.100.1",
        "44.0.0.1",
        "44.0.0.2",
    ];

    fn pool_mapper() -> BdrMap {
        BdrMap::new(
            &[
                (pre("10.1.0.0/16"), Asn(1)),
                (pre("10.1.7.0/24"), Asn(3)),
                (pre("10.2.0.0/16"), Asn(2)),
                (pre("10.3.0.0/16"), Asn(3)),
                (pre("198.51.100.0/24"), Asn(4)),
            ],
            &[pre("192.0.2.0/24"), pre("198.51.100.0/25")],
        )
    }

    fn cold(corpus: &[Vec<Ip4>]) -> BdrMap {
        let mut m = pool_mapper();
        m.refine(corpus);
        m
    }

    /// The traces of `from` that `to` does not hold, as a multiset.
    fn minus(from: &[Vec<Ip4>], to: &[Vec<Ip4>]) -> Vec<Vec<Ip4>> {
        let mut left = to.to_vec();
        from.iter()
            .filter(|t| match left.iter().position(|u| u == *t) {
                Some(i) => {
                    left.swap_remove(i);
                    false
                }
                None => true,
            })
            .cloned()
            .collect()
    }

    /// One edit of a corpus.
    #[derive(Clone, Debug)]
    enum Edit {
        Remove(usize),
        Add(Vec<usize>),
        Duplicate(usize),
        Reverse,
        Rotate(usize),
    }

    fn arb_trace() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0..POOL.len(), 1..7)
    }

    fn arb_edit() -> impl proptest::strategy::Strategy<Value = Edit> {
        use proptest::prelude::*;
        prop_oneof![
            any::<usize>().prop_map(Edit::Remove),
            arb_trace().prop_map(Edit::Add),
            any::<usize>().prop_map(Edit::Duplicate),
            Just(Edit::Reverse),
            any::<usize>().prop_map(Edit::Rotate),
        ]
    }

    fn trace_of(picks: &[usize]) -> Vec<Ip4> {
        picks.iter().map(|&i| ip(POOL[i])).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A map carried across any edit of its corpus — traces removed,
        /// added, duplicated, the list reordered — resolves every address
        /// as a cold refine over the edited corpus, and holds the same
        /// addresses.
        #[test]
        fn carried_map_equals_a_cold_refine(
            corpus in proptest::collection::vec(arb_trace(), 0..10),
            edits in proptest::collection::vec(arb_edit(), 1..6),
        ) {
            let old: Vec<Vec<Ip4>> = corpus.iter().map(|t| trace_of(t)).collect();
            let mut new = old.clone();
            for edit in edits {
                match edit {
                    Edit::Remove(i) if !new.is_empty() => {
                        new.remove(i % new.len());
                    }
                    Edit::Duplicate(i) if !new.is_empty() => {
                        let t = new[i % new.len()].clone();
                        new.push(t);
                    }
                    Edit::Rotate(i) if !new.is_empty() => {
                        let n = new.len();
                        new.rotate_left(i % n);
                    }
                    Edit::Add(t) => new.push(trace_of(&t)),
                    Edit::Reverse => new.reverse(),
                    _ => {}
                }
            }
            let (removed, added) = (minus(&old, &new), minus(&new, &old));
            let carried = BdrMap::for_next_epoch(
                &cold(&old),
                removed.iter().map(|t| t.iter().copied()),
                added.iter().map(|t| t.iter().copied()),
            );
            let cold = cold(&new);
            for s in POOL {
                proptest::prop_assert_eq!(carried.resolve(ip(s)), cold.resolve(ip(s)), "{}", s);
            }
            proptest::prop_assert_eq!(carried.observed(), cold.observed());
        }
    }
}
