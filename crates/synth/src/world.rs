//! World orchestration: cities → roads → ASes → routers → addresses →
//! anchors → measurements.
//!
//! `World::generate` assembles the complete synthetic Internet that stands
//! in for the paper's external data universe. Everything downstream —
//! source snapshots, the iGDB build, every figure and table — derives from
//! this one deterministic object.

use std::collections::{HashMap, HashSet};

use igdb_geo::haversine_km;
use igdb_measure::{trace_route, Anchor, RouterId, RouterNet, Traceroute};
use igdb_net::ip::PrefixAllocator;
use igdb_net::{Asn, Ip4, Prefix, PrefixTrie, Propagator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ases::{build_ecosystem, AsClass, AsCounts, AsEcosystem};
use crate::cables::{build_cables, Cable};
use crate::cities::{build_cities, City};
use crate::naming::{hoiho_rules, hostname_for, GeoCodebook, HoihoRule};
use crate::rightofway::RowNetwork;
use crate::scenarios::{self, Scenarios};

/// World size and behaviour knobs.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    pub seed: u64,
    /// Total urban areas (paper: 7,342).
    pub n_cities: usize,
    pub as_counts: AsCounts,
    /// IXPs, placed in the most-populated cities.
    pub n_ixps: usize,
    /// RIPE-Atlas-style anchors (on top of the four scenario anchors).
    pub n_anchors: usize,
    /// Submarine cable systems (paper: 511).
    pub n_cables: usize,
    /// Fraction of routers that never answer traceroute probes.
    pub unresponsive_frac: f64,
}

impl WorldConfig {
    /// Unit-test scale: real cities only, a handful of ASes. Builds in
    /// tens of milliseconds.
    pub fn tiny() -> Self {
        Self {
            seed: 42,
            n_cities: 700,
            as_counts: AsCounts {
                tier1: 4,
                tier2: 18,
                stub: 90,
                content: 5,
            },
            n_ixps: 15,
            n_anchors: 30,
            n_cables: 40,
            unresponsive_frac: 0.08,
        }
    }

    /// Default working scale for examples and benches: statistically
    /// faithful, builds in a few seconds.
    pub fn medium() -> Self {
        Self {
            seed: 42,
            n_cities: 2000,
            as_counts: AsCounts {
                tier1: 9,
                tier2: 70,
                stub: 700,
                content: 12,
            },
            n_ixps: 60,
            n_anchors: 48,
            n_cables: 150,
            unresponsive_frac: 0.08,
        }
    }

    /// Paper scale: 7,342 urban areas, ~102k ASNs, 511 cables. Building the
    /// logical side stays fast, but anchor meshes and full BGP collection
    /// are sampled (see `igdb-bench`'s Table 1 report for details).
    pub fn paper() -> Self {
        Self {
            seed: 42,
            n_cities: 7342,
            as_counts: AsCounts {
                tier1: 12,
                tier2: 500,
                stub: 101_631,
                content: 60,
            },
            n_ixps: 250,
            n_anchors: 120,
            n_cables: 511,
            unresponsive_frac: 0.08,
        }
    }

    /// Planet-scale CI tier: ~20K metros and >10⁵ ASes — well past paper
    /// scale on the physical side, sized so a build still fits a CI
    /// runner. The scale-smoke job builds this and records its
    /// fingerprint.
    pub fn large() -> Self {
        Self {
            seed: 42,
            n_cities: 20_000,
            as_counts: AsCounts {
                tier1: 14,
                tier2: 650,
                stub: 110_000,
                content: 80,
            },
            n_ixps: 300,
            n_anchors: 140,
            n_cables: 600,
            unresponsive_frac: 0.08,
        }
    }

    /// The largest tier: ~40K metros, ~1.6×10⁵ ASes, ~10⁶-record sources.
    /// Exercised locally by the `scaling_curve` bench; the memory-layout
    /// work (interning, flat tables) exists so this fits.
    pub fn planet() -> Self {
        Self {
            seed: 42,
            n_cities: 40_000,
            as_counts: AsCounts {
                tier1: 16,
                tier2: 900,
                stub: 160_000,
                content: 120,
            },
            n_ixps: 400,
            n_anchors: 160,
            n_cables: 700,
            unresponsive_frac: 0.08,
        }
    }
}

/// An Internet exchange point.
#[derive(Clone, Debug)]
pub struct Ixp {
    pub id: usize,
    pub name: String,
    pub city: usize,
    /// The IXP peering LAN prefix; addresses on it geolocate exactly.
    pub prefix: Prefix,
    pub members: Vec<IxpMember>,
}

/// An AS's presence at an IXP.
#[derive(Clone, Copy, Debug)]
pub struct IxpMember {
    pub asn: Asn,
    /// Remote peering: virtual presence without local infrastructure
    /// (paper §3.3's ambiguity flag).
    pub remote: bool,
}

/// Number of scenario anchors pinned before random anchor sampling.
pub const PINNED_ANCHORS: usize = 6;

/// The assembled synthetic world.
pub struct World {
    pub config: WorldConfig,
    pub cities: Vec<City>,
    pub row: RowNetwork,
    pub eco: AsEcosystem,
    pub scenarios: Scenarios,
    pub net: RouterNet,
    /// (ASN, city) → router.
    pub router_of: HashMap<(Asn, usize), RouterId>,
    /// Announced address block per AS (ground truth for IP→AS).
    pub prefix_of: HashMap<Asn, Prefix>,
    /// Ground-truth longest-prefix table of every announced block.
    pub origin_trie: PrefixTrie<Asn>,
    pub ixps: Vec<Ixp>,
    pub anchors: Vec<Anchor>,
    pub cables: Vec<Cable>,
    /// PTR records: interface address → hostname.
    pub hostnames: HashMap<Ip4, String>,
    pub codebook: GeoCodebook,
    pub hoiho: Vec<HoihoRule>,
    /// Anycast prefixes: one shared /24 per anycast operator, with
    /// interfaces spread across cities (paper §5's anycast hazard).
    pub anycast_prefixes: Vec<(Asn, Prefix)>,
}

impl World {
    /// Builds the whole world from a config. Deterministic in `config`.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cities = build_cities(config.n_cities, &mut rng);
        let row = RowNetwork::build(&cities, &mut rng);
        let mut eco = build_ecosystem(&cities, config.as_counts, &mut rng);
        let scenarios = scenarios::install(&cities, &mut eco);
        let codebook = GeoCodebook::build(&cities);
        let hoiho = hoiho_rules(&eco.ases);

        // --- Address plan. ---
        // Big networks get a /16, stubs a /21, out of 0.0.0.0/2.
        let mut alloc = PrefixAllocator::new("0.0.0.0/2".parse().unwrap());
        let mut prefix_of = HashMap::new();
        let mut origin_trie = PrefixTrie::new();
        for a in &eco.ases {
            let len = match a.class {
                AsClass::Tier1 | AsClass::Tier2 | AsClass::Content => 16,
                AsClass::Stub => 21,
            };
            let p = alloc.alloc(len).expect("address space exhausted");
            prefix_of.insert(a.asn, p);
            origin_trie.insert(p, a.asn);
        }

        // --- Routers: one per (AS, footprint city). ---
        let mut net = RouterNet::new();
        let mut router_of = HashMap::new();
        for a in &eco.ases {
            for &cid in &a.footprint {
                let r = net.add_router(a.asn, cid, cities[cid].loc);
                router_of.insert((a.asn, cid), r);
            }
        }

        // Per-AS interface allocators.
        let mut iface_alloc: HashMap<Asn, PrefixAllocator> = prefix_of
            .iter()
            .map(|(&asn, &p)| {
                let mut a = PrefixAllocator::new(p);
                // Skip the first /24: reserved for anchors and loopbacks.
                a.alloc(24);
                (asn, a)
            })
            .collect();
        // Anycast operators (paper §5's anycast discussion): a few content
        // networks number many inter-AS interfaces across *different
        // cities* from one shared /24 — the prefix a geolocation database
        // must annotate rather than pin to one place.
        let mut anycast_prefixes: Vec<(Asn, Prefix)> = Vec::new();
        let mut anycast_counter: HashMap<Asn, u32> = HashMap::new();
        {
            let mut content_asns: Vec<Asn> = eco
                .ases
                .iter()
                .filter(|a| a.class == AsClass::Content)
                .map(|a| a.asn)
                .collect();
            content_asns.truncate(3);
            for asn in content_asns {
                if let Some(p) = iface_alloc.get_mut(&asn).and_then(|a| a.alloc(24)) {
                    anycast_prefixes.push((asn, p));
                    anycast_counter.insert(asn, 0);
                }
            }
        }
        let anycast_lookup: HashMap<Asn, Prefix> =
            anycast_prefixes.iter().copied().collect();
        let mut link_subnet = |asn: Asn| -> (Ip4, Ip4) {
            // Anycast operators burn their shared /24 first (up to 30
            // /30s), then fall back to ordinary space.
            if let (Some(p), Some(count)) =
                (anycast_lookup.get(&asn), anycast_counter.get_mut(&asn))
            {
                if *count < 30 {
                    let base = p.network().0 + *count * 4;
                    *count += 1;
                    return (Ip4(base + 1), Ip4(base + 2));
                }
            }
            let p = iface_alloc
                .get_mut(&asn)
                .and_then(|a| a.alloc(30))
                .unwrap_or_else(|| panic!("interface space exhausted for {asn}"));
            (p.nth(1).unwrap(), p.nth(2).unwrap())
        };

        // --- Internal links along each AS's physical edges. ---
        for a in &eco.ases {
            for e in &a.internal_edges {
                let (ra, rb) = (router_of[&(a.asn, e.a)], router_of[&(a.asn, e.b)]);
                let (length_km, submarine) = match row.shortest_path(e.a, e.b) {
                    Some((_, km)) if !e.submarine => (km, false),
                    _ => (
                        haversine_km(&cities[e.a].loc, &cities[e.b].loc) * 1.3,
                        true,
                    ),
                };
                let _ = submarine;
                let (ip_a, ip_b) = link_subnet(a.asn);
                net.add_link(
                    ra,
                    rb,
                    ip_a,
                    ip_b,
                    igdb_measure::propagation_delay_ms(length_km),
                    length_km,
                );
            }
        }

        // --- Inter-AS links: in shared cities, else closest city pair. ---
        // Track which routers host a border link (MPLS never hides those).
        let mut border_routers: HashSet<RouterId> = HashSet::new();
        let as_edges: Vec<(Asn, Asn)> = {
            let mut v = Vec::new();
            for a in eco.graph.asns() {
                for &(b, _) in eco.graph.neighbors(a) {
                    if a < b {
                        v.push((a, b));
                    }
                }
            }
            v
        };
        for (a, b) in as_edges {
            let fa = &eco.get(a).expect("AS in graph").footprint;
            let fb = &eco.get(b).expect("AS in graph").footprint;
            let shared: Vec<usize> = {
                let sb: HashSet<usize> = fb.iter().copied().collect();
                let mut s: Vec<usize> = fa.iter().copied().filter(|c| sb.contains(c)).collect();
                // Interconnect in the largest shared metros first.
                s.sort_by_key(|&c| std::cmp::Reverse(cities[c].population));
                s
            };
            let owner = if rng.gen_bool(0.5) { a } else { b };
            if shared.is_empty() {
                // Backhaul link between the closest pair of PoP cities.
                let mut best = (f64::INFINITY, fa[0], fb[0]);
                for &ca in fa {
                    for &cb in fb {
                        let d = haversine_km(&cities[ca].loc, &cities[cb].loc);
                        if d < best.0 {
                            best = (d, ca, cb);
                        }
                    }
                }
                let (ra, rb) = (router_of[&(a, best.1)], router_of[&(b, best.2)]);
                let (ip_a, ip_b) = link_subnet(owner);
                let km = best.0 * 1.2;
                net.add_link(ra, rb, ip_a, ip_b, igdb_measure::propagation_delay_ms(km), km);
                border_routers.insert(ra);
                border_routers.insert(rb);
            } else {
                for &cid in shared.iter().take(2) {
                    let (ra, rb) = (router_of[&(a, cid)], router_of[&(b, cid)]);
                    let (ip_a, ip_b) = link_subnet(owner);
                    // Metro-internal cross-connect.
                    let km = rng.gen_range(1.0..40.0);
                    net.add_link(ra, rb, ip_a, ip_b, igdb_measure::propagation_delay_ms(km) + 0.05, km);
                    border_routers.insert(ra);
                    border_routers.insert(rb);
                }
            }
        }

        // --- IXPs in the biggest cities. ---
        let mut by_pop: Vec<usize> = (0..cities.len()).collect();
        by_pop.sort_by_key(|&c| std::cmp::Reverse(cities[c].population));
        let mut ixp_alloc = PrefixAllocator::new("192.0.0.0/10".parse().unwrap());
        let mut ixps = Vec::new();
        for (k, &cid) in by_pop.iter().take(config.n_ixps).enumerate() {
            let prefix = ixp_alloc.alloc(24).expect("IXP prefix space exhausted");
            let mut members = Vec::new();
            for a in &eco.ases {
                let local = a.footprint.contains(&cid);
                let p_join = match (a.class, local) {
                    (AsClass::Tier1, true) => 0.9,
                    (AsClass::Content, true) => 0.9,
                    (AsClass::Tier2, true) => 0.6,
                    (AsClass::Stub, true) => 0.25,
                    // Remote peering: rare, and only for nearby-region ASes.
                    (AsClass::Tier2, false) | (AsClass::Stub, false) => 0.005,
                    _ => 0.0,
                };
                if p_join > 0.0 && rng.gen_bool(p_join) {
                    members.push(IxpMember {
                        asn: a.asn,
                        remote: !local,
                    });
                }
            }
            ixps.push(Ixp {
                id: k,
                name: format!("{}-IX", cities[cid].name.replace(' ', "")),
                city: cid,
                prefix,
                members,
            });
        }
        // Route-server peering: IXPs make bilateral/multilateral peering
        // cheap, so co-located members pick up peer edges they would never
        // provision privately (the "peering at peerings" fabric that
        // dominates real AS-link counts). Bounded sampling keeps the
        // fabric realistic at every scale. Scenario ASes are excluded so
        // the named experiments keep their hand-built routing.
        for ixp in &ixps {
            let locals: Vec<Asn> = ixp
                .members
                .iter()
                .filter(|m| !m.remote && !(64_100..=65_100).contains(&m.asn.0))
                .map(|m| m.asn)
                .collect();
            if locals.len() < 2 {
                continue;
            }
            let attempts = (locals.len() * 2).min(800);
            for _ in 0..attempts {
                let a = locals[rng.gen_range(0..locals.len())];
                let b = locals[rng.gen_range(0..locals.len())];
                if a != b && eco.graph.relationship(a, b).is_none() {
                    eco.graph.add_edge(a, b, igdb_net::AsRelationship::Peer);
                }
            }
        }

        // Re-address peer links at IXP cities from the IXP LAN, so some
        // traceroute hops carry IXP addresses (the §4.4 ground-truth class).
        // We add a *parallel* IXP-LAN link between local members that
        // already peer; the LAN has lower delay so routing prefers it.
        for ixp in &ixps {
            let local_members: Vec<Asn> = ixp
                .members
                .iter()
                .filter(|m| !m.remote)
                .map(|m| m.asn)
                .collect();
            let mut lan_host = 1u32;
            for i in 0..local_members.len() {
                for j in i + 1..local_members.len() {
                    let (a, b) = (local_members[i], local_members[j]);
                    if eco.graph.relationship(a, b) != Some(igdb_net::AsRelationship::Peer) {
                        continue;
                    }
                    let (Some(&ra), Some(&rb)) =
                        (router_of.get(&(a, ixp.city)), router_of.get(&(b, ixp.city)))
                    else {
                        continue;
                    };
                    if lan_host + 2 >= ixp.prefix.size() {
                        break;
                    }
                    let ip_a = ixp.prefix.nth(lan_host).unwrap();
                    let ip_b = ixp.prefix.nth(lan_host + 1).unwrap();
                    lan_host += 2;
                    net.add_link(ra, rb, ip_a, ip_b, 0.05, 1.0);
                    border_routers.insert(ra);
                    border_routers.insert(rb);
                }
            }
        }

        // --- MPLS interiors and unresponsive routers. ---
        for a in &eco.ases {
            if !a.mpls {
                continue;
            }
            for &cid in &a.footprint {
                let r = router_of[&(a.asn, cid)];
                if !border_routers.contains(&r) {
                    net.set_mpls_hidden(r, true);
                }
            }
        }
        for r in 0..net.router_count() {
            let asn = net.router(RouterId(r as u32)).asn;
            // Scenario networks (reserved 64100–65100) stay responsive so
            // the named experiments observe their headline hops.
            if (64_100..=65_100).contains(&asn.0) {
                continue;
            }
            if rng.gen_bool(config.unresponsive_frac) {
                net.set_responds(RouterId(r as u32), false);
            }
        }

        // --- Anchors: the four scenario anchors plus random (AS, city). ---
        let mut anchors = Vec::new();
        let mut anchor_serial = 6000u32;
        let add_anchor = |anchors: &mut Vec<Anchor>,
                              asn: Asn,
                              cid: usize,
                              serial: &mut u32,
                              prefix_of: &HashMap<Asn, Prefix>| {
            let router = router_of[&(asn, cid)];
            // Anchor address from the AS's reserved first /24.
            let ip = prefix_of[&asn]
                .nth(10 + (*serial - 6000))
                .expect("anchor address");
            anchors.push(Anchor {
                id: *serial,
                ip,
                asn,
                city: cid,
                loc: cities[cid].loc,
                router,
            });
            *serial += 1;
        };
        for (asn, cid) in [
            scenarios.anchor_kansas_city,
            scenarios.anchor_atlanta,
            scenarios.anchor_madrid,
            scenarios.anchor_berlin,
            scenarios.anchor_globetrans_a,
            scenarios.anchor_globetrans_b,
        ] {
            add_anchor(&mut anchors, asn, cid, &mut anchor_serial, &prefix_of);
        }
        // Random anchors hosted by stubs and content networks.
        let candidates: Vec<(Asn, usize)> = eco
            .ases
            .iter()
            .filter(|a| matches!(a.class, AsClass::Stub | AsClass::Content))
            .flat_map(|a| a.footprint.iter().map(move |&c| (a.asn, c)))
            .collect();
        let mut used: HashSet<(Asn, usize)> = anchors.iter().map(|a| (a.asn, a.city)).collect();
        let mut guard = 0;
        while anchors.len() < PINNED_ANCHORS + config.n_anchors && guard < config.n_anchors * 50 + 100 {
            guard += 1;
            let pick = candidates[rng.gen_range(0..candidates.len())];
            if used.insert(pick) {
                add_anchor(&mut anchors, pick.0, pick.1, &mut anchor_serial, &prefix_of);
            }
        }

        // --- rDNS hostnames for every link interface. ---
        let mut hostnames = HashMap::new();
        let mut serial_of: HashMap<RouterId, u32> = HashMap::new();
        for link in net.links() {
            for (r, ip) in [(link.a, link.a_ip), (link.b, link.b_ip)] {
                let router = net.router(r);
                let a = eco.get(router.asn).expect("router AS exists");
                let serial = serial_of.entry(r).or_insert(0);
                *serial += 1;
                if let Some(h) =
                    hostname_for(a, &cities[router.city], &codebook, ip, *serial)
                {
                    hostnames.insert(ip, h);
                }
            }
        }

        // --- Submarine cables (owners drawn from transit orgs). ---
        let owner_pool: Vec<String> = eco
            .ases
            .iter()
            .filter(|a| matches!(a.class, AsClass::Tier1 | AsClass::Tier2))
            .map(|a| a.names.asrank_org.clone())
            .collect();
        let cables = build_cables(&cities, &owner_pool, config.n_cables, &mut rng);

        World {
            config,
            cities,
            row,
            eco,
            scenarios,
            net,
            router_of,
            prefix_of,
            origin_trie,
            ixps,
            anchors,
            cables,
            hostnames,
            codebook,
            hoiho,
            anycast_prefixes,
        }
    }

    /// A BGP propagation engine over the world's AS graph.
    pub fn propagator(&self) -> Propagator {
        Propagator::new(&self.eco.graph)
    }

    /// Ground truth: the router (and thus AS + city) *operating* an
    /// interface address. Note this can differ from the address block's
    /// owner — the §3.3 border-ownership pitfall.
    pub fn truth_router_of_ip(&self, ip: Ip4) -> Option<RouterId> {
        self.net.owner_of(ip)
    }

    /// Ground truth: city of the router operating `ip` (interfaces), or of
    /// the anchor bound to `ip`.
    pub fn truth_city_of_ip(&self, ip: Ip4) -> Option<usize> {
        if let Some(r) = self.net.owner_of(ip) {
            return Some(self.net.router(r).city);
        }
        self.anchors.iter().find(|a| a.ip == ip).map(|a| a.city)
    }

    /// Ground truth: the AS operating `ip`.
    pub fn truth_asn_of_ip(&self, ip: Ip4) -> Option<Asn> {
        if let Some(r) = self.net.owner_of(ip) {
            return Some(self.net.router(r).asn);
        }
        self.anchors.iter().find(|a| a.ip == ip).map(|a| a.asn)
    }

    /// The IXP whose LAN contains `ip`, if any.
    pub fn ixp_of_ip(&self, ip: Ip4) -> Option<&Ixp> {
        self.ixps.iter().find(|x| x.prefix.contains(ip))
    }

    /// Runs the anchor mesh: traceroutes between up to `max_pairs` ordered
    /// anchor pairs (propagating BGP once per destination AS).
    pub fn anchor_mesh(&self, max_pairs: usize) -> Vec<(u32, u32, Traceroute)> {
        let prop = self.propagator();
        let mut tables: HashMap<Asn, igdb_net::bgp::RouteTable<'_>> = HashMap::new();
        let mut out = Vec::new();
        'outer: for dst in &self.anchors {
            let table = tables
                .entry(dst.asn)
                .or_insert_with(|| prop.propagate(dst.asn));
            for src in &self.anchors {
                if src.id == dst.id {
                    continue;
                }
                if out.len() >= max_pairs {
                    break 'outer;
                }
                let Some(route) = table.route(src.asn) else {
                    continue;
                };
                if let Some(tr) = trace_route(&self.net, src.router, dst.router, Some(&route.path))
                {
                    out.push((src.id, dst.id, tr));
                }
            }
        }
        out
    }

    /// The traceroute between two specific anchors (by scenario handle).
    pub fn traceroute_between(&self, src: (Asn, usize), dst: (Asn, usize)) -> Option<Traceroute> {
        let s = self.anchors.iter().find(|a| (a.asn, a.city) == src)?;
        let d = self.anchors.iter().find(|a| (a.asn, a.city) == dst)?;
        let prop = self.propagator();
        let table = prop.propagate(d.asn);
        let route = table.route(s.asn)?;
        trace_route(&self.net, s.router, d.router, Some(&route.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.net.router_count(), b.net.router_count());
        assert_eq!(a.net.link_count(), b.net.link_count());
        assert_eq!(a.anchors.len(), b.anchors.len());
        assert_eq!(a.hostnames.len(), b.hostnames.len());
        assert_eq!(
            a.anchors.iter().map(|x| x.ip).collect::<Vec<_>>(),
            b.anchors.iter().map(|x| x.ip).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_as_has_routers_and_prefix() {
        let w = tiny();
        for a in &w.eco.ases {
            assert!(w.prefix_of.contains_key(&a.asn));
            for &c in &a.footprint {
                assert!(w.router_of.contains_key(&(a.asn, c)), "{} city {c}", a.asn);
            }
        }
    }

    #[test]
    fn prefixes_disjoint_and_trie_consistent() {
        let w = tiny();
        let ps: Vec<(Asn, Prefix)> = w.prefix_of.iter().map(|(&a, &p)| (a, p)).collect();
        for (i, (_, a)) in ps.iter().enumerate() {
            for (_, b) in &ps[i + 1..] {
                assert!(!a.covers(b) && !b.covers(a), "{a} overlaps {b}");
            }
        }
        for (asn, p) in &ps {
            let (_, got) = w.origin_trie.lookup(p.nth(5).unwrap()).unwrap();
            assert_eq!(got, asn);
        }
    }

    #[test]
    fn scenario_anchors_exist() {
        let w = tiny();
        for handle in [
            w.scenarios.anchor_kansas_city,
            w.scenarios.anchor_atlanta,
            w.scenarios.anchor_madrid,
            w.scenarios.anchor_berlin,
        ] {
            assert!(
                w.anchors.iter().any(|a| (a.asn, a.city) == handle),
                "missing anchor {handle:?}"
            );
        }
        assert_eq!(w.anchors.len(), PINNED_ANCHORS + w.config.n_anchors);
    }

    #[test]
    fn fig7_traceroute_hides_tulsa_or_okc() {
        let w = tiny();
        let tr = w
            .traceroute_between(w.scenarios.anchor_kansas_city, w.scenarios.anchor_atlanta)
            .expect("KC→Atlanta traceroute must exist");
        // Ground truth passes through Tulsa or Oklahoma City…
        let truth_cities: Vec<usize> = tr
            .truth_path
            .iter()
            .map(|&r| w.net.router(r).city)
            .collect();
        let tulsa = w.cities.iter().find(|c| c.name == "Tulsa").unwrap().id;
        let okc = w
            .cities
            .iter()
            .find(|c| c.name == "Oklahoma City")
            .unwrap()
            .id;
        assert!(
            truth_cities.contains(&tulsa) || truth_cities.contains(&okc),
            "truth path avoids the Midwest corridor: {truth_cities:?}"
        );
        // …but no *observed* hop is there (MPLS hides the interior).
        let observed_cities: Vec<usize> = tr
            .hops
            .iter()
            .filter(|h| h.ip.is_some())
            .map(|h| w.net.router(h.truth_router).city)
            .collect();
        assert!(
            !observed_cities.contains(&tulsa) && !observed_cities.contains(&okc),
            "MPLS interior leaked into observed hops: {observed_cities:?}"
        );
        // Dallas and Houston are observed.
        let dallas = w.cities.iter().find(|c| c.name == "Dallas").unwrap().id;
        let houston = w.cities.iter().find(|c| c.name == "Houston").unwrap().id;
        assert!(observed_cities.contains(&dallas), "{observed_cities:?}");
        assert!(observed_cities.contains(&houston), "{observed_cities:?}");
    }

    #[test]
    fn fig9_traceroute_spans_three_countries() {
        let w = tiny();
        let tr = w
            .traceroute_between(w.scenarios.anchor_madrid, w.scenarios.anchor_berlin)
            .expect("Madrid→Berlin traceroute must exist");
        let countries: HashSet<&str> = tr
            .truth_path
            .iter()
            .map(|&r| w.cities[w.net.router(r).city].country.as_str())
            .collect();
        assert!(countries.contains("ES"));
        assert!(countries.contains("DE"));
        assert!(countries.contains("FR"));
    }

    #[test]
    fn mesh_produces_traceroutes_with_rdns_coverage() {
        let w = tiny();
        let mesh = w.anchor_mesh(200);
        assert!(mesh.len() >= 100, "got {}", mesh.len());
        let mut ips = 0;
        let mut resolved = 0;
        for (_, _, tr) in &mesh {
            for ip in tr.responding_ips() {
                ips += 1;
                if w.hostnames.contains_key(&ip) {
                    resolved += 1;
                }
            }
        }
        assert!(ips > 300, "too few observed addresses: {ips}");
        let frac = resolved as f64 / ips as f64;
        assert!(
            (0.3..0.95).contains(&frac),
            "rDNS resolve rate {frac} out of the plausible band"
        );
    }

    #[test]
    fn ixps_have_local_members_and_lan_addresses_resolve() {
        let w = tiny();
        assert_eq!(w.ixps.len(), w.config.n_ixps);
        let mut lan_links = 0;
        for ixp in &w.ixps {
            assert!(ixp.members.iter().any(|m| !m.remote) || ixp.members.is_empty());
            for link in w.net.links() {
                if ixp.prefix.contains(link.a_ip) {
                    lan_links += 1;
                    assert_eq!(w.ixp_of_ip(link.a_ip).unwrap().id, ixp.id);
                }
            }
        }
        assert!(lan_links > 0, "no IXP LAN links were created");
    }

    #[test]
    fn truth_lookups_cover_interfaces_and_anchors() {
        let w = tiny();
        let link = &w.net.links()[0];
        assert_eq!(w.truth_router_of_ip(link.a_ip), Some(link.a));
        let anchor = &w.anchors[0];
        assert_eq!(w.truth_asn_of_ip(anchor.ip), Some(anchor.asn));
        assert_eq!(w.truth_city_of_ip(anchor.ip), Some(anchor.city));
    }

    #[test]
    fn anycast_prefixes_span_multiple_cities() {
        // The §5 hazard must actually exist: interfaces of one anycast
        // /24 sit in several different cities.
        let w = tiny();
        assert!(!w.anycast_prefixes.is_empty());
        for &(asn, prefix) in &w.anycast_prefixes {
            let mut cities_seen = std::collections::HashSet::new();
            for link in w.net.links() {
                for (r, ip) in [(link.a, link.a_ip), (link.b, link.b_ip)] {
                    if prefix.contains(ip) {
                        cities_seen.insert(w.net.router(r).city);
                    }
                }
            }
            assert!(
                cities_seen.len() >= 2,
                "{asn}'s anycast {prefix} spans only {cities_seen:?}"
            );
        }
    }

    #[test]
    fn border_interfaces_can_carry_neighbor_address_space() {
        // The §3.3 pitfall must actually occur: some interface is operated
        // by AS X but numbered from AS Y's block.
        let w = tiny();
        let mut mismatches = 0;
        for link in w.net.links() {
            for (r, ip) in [(link.a, link.a_ip), (link.b, link.b_ip)] {
                let operator = w.net.router(r).asn;
                if let Some((_, &block_owner)) = w.origin_trie.lookup(ip) {
                    if block_owner != operator {
                        mismatches += 1;
                    }
                }
            }
        }
        assert!(mismatches > 50, "only {mismatches} borrowed interfaces");
    }
}
