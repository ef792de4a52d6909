//! The synthetic AS ecosystem: tiers, relationships, footprints, names.
//!
//! Mirrors the structure the paper's data reflects: a small clique of
//! transit-free tier-1 backbones, regional tier-2 transit providers,
//! access/enterprise stubs, and globally-deployed content networks (the
//! Cloudflare/Microsoft/Google class that tops Table 2). Every AS carries
//! *inconsistent names across sources* by construction, reproducing the
//! paper's AS2686 example ("ATGS-MMD-AS" from WHOIS vs "as-ignemea" from
//! PeeringDB vs three different organization spellings, §3.2).

use std::collections::{BTreeMap, HashMap};

use igdb_net::{AsGraph, AsRelationship, Asn, Tier};
use rand::rngs::StdRng;
use rand::Rng;

use crate::cities::{continent_of, City, Continent};

/// Reverse-DNS naming convention an AS applies to its router interfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RdnsStyle {
    /// Hostnames embed a 3-letter geocode (`…rcr21.kcy01.atlas.example.com`)
    /// — the Hoiho-extractable class.
    GeoCode,
    /// Hostnames embed the full city name with dashes
    /// (`xe0.kansas-city.example.net`).
    CityName,
    /// Hostnames carry no location information (`ip-10-1-2-3.example.net`).
    Opaque,
    /// The AS publishes no PTR records at all.
    None,
}

/// Business class of a synthetic AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsClass {
    Tier1,
    Tier2,
    Stub,
    /// Content/cloud network: stub economics, global footprint.
    Content,
}

impl AsClass {
    pub fn tier(&self) -> Tier {
        match self {
            AsClass::Tier1 => Tier::Tier1,
            AsClass::Tier2 => Tier::Tier2,
            AsClass::Stub | AsClass::Content => Tier::Stub,
        }
    }
}

/// Per-source name variants for one AS.
#[derive(Clone, Debug)]
pub struct AsNames {
    /// Marketing name, e.g. "Veralink".
    pub brand: String,
    /// AS name as WHOIS/ASRank reports it: "VERALINK-174".
    pub asrank_as_name: String,
    /// AS name as PeeringDB (IRR-derived) reports it: "as-veralink".
    pub peeringdb_as_name: String,
    /// Organization per ASRank (WHOIS): "Veralink Communications, LLC".
    pub asrank_org: String,
    /// Organization per PeeringDB: "Veralink - AS174".
    pub peeringdb_org: String,
    /// Organization per PCH: "Veralink Networks B.V.".
    pub pch_org: String,
}

/// An internal physical edge between two footprint cities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternalEdge {
    pub a: usize,
    pub b: usize,
    /// True when the edge crosses an ocean (rides a submarine cable rather
    /// than a terrestrial right-of-way).
    pub submarine: bool,
}

/// One synthetic autonomous system.
#[derive(Clone, Debug)]
pub struct SynthAs {
    pub asn: Asn,
    pub class: AsClass,
    pub names: AsNames,
    /// Home continent; `None` for global networks (tier-1, content).
    pub region: Option<Continent>,
    /// City ids where the AS has PoPs.
    pub footprint: Vec<usize>,
    /// The subset of the footprint the AS *declares* in public sources
    /// (PeeringDB presence, Internet Atlas maps). Undeclared PoPs are what
    /// the paper's rDNS/latency inference recovers ("more than 80% of the
    /// locations identified through reverse DNS do not appear in the
    /// initial version of iGDB", §4.4).
    pub declared_footprint: Vec<usize>,
    /// Internal physical connectivity between footprint cities.
    pub internal_edges: Vec<InternalEdge>,
    pub rdns_style: RdnsStyle,
    /// Whether the AS runs MPLS (interior routers hidden from traceroute).
    pub mpls: bool,
    /// Whether Internet Atlas documents this network (the real Atlas covers
    /// ~1.5K networks — transit and content, rarely stubs).
    pub in_atlas: bool,
}

/// The whole ecosystem.
pub struct AsEcosystem {
    pub ases: Vec<SynthAs>,
    pub graph: AsGraph,
    by_asn: HashMap<Asn, usize>,
}

impl AsEcosystem {
    pub fn get(&self, asn: Asn) -> Option<&SynthAs> {
        self.by_asn.get(&asn).map(|&i| &self.ases[i])
    }

    pub fn len(&self) -> usize {
        self.ases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// Registers a hand-built AS (scenario injection). The caller wires its
    /// relationships through [`AsEcosystem::graph`] afterwards. Panics on a
    /// duplicate ASN — scenario ASNs are reserved ranges.
    pub fn register(&mut self, a: SynthAs) {
        assert!(
            !self.by_asn.contains_key(&a.asn),
            "duplicate scenario ASN {}",
            a.asn
        );
        self.graph.add_as(a.asn, a.class.tier());
        self.by_asn.insert(a.asn, self.ases.len());
        self.ases.push(a);
    }
}

/// Ecosystem size knobs.
#[derive(Clone, Copy, Debug)]
pub struct AsCounts {
    pub tier1: usize,
    pub tier2: usize,
    pub stub: usize,
    pub content: usize,
}

const SYLLABLES: &[&str] = &[
    "ver", "lum", "cog", "atla", "pace", "eura", "zen", "nova", "tele", "net", "glo", "byte",
    "fib", "axi", "ora", "quan", "stra", "heli", "arc", "cirr", "volt", "mira", "sky", "terra",
];
const ORG_SUFFIX_WHOIS: &[&str] = &[
    "Communications, LLC",
    "Networks, Inc.",
    "Holdings Ltd",
    "Group LLC",
];
const ORG_SUFFIX_PCH: &[&str] = &["Networks B.V.", "Telecom GmbH", "Services S.A.", "Ltd"];

fn brand_name(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2..=3);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    let mut chars: Vec<char> = s.chars().collect();
    chars[0] = chars[0].to_ascii_uppercase();
    chars.into_iter().take(12).collect()
}

/// Draws a brand name no other AS uses yet (brand collisions would merge
/// rDNS domains and Atlas network names of unrelated ASes).
fn unique_brand(used: &mut std::collections::HashSet<String>, rng: &mut StdRng) -> String {
    for _ in 0..200 {
        let b = brand_name(rng);
        if used.insert(b.clone()) {
            return b;
        }
    }
    // Syllable space exhausted: suffix a counter.
    let mut k = used.len();
    loop {
        let b = format!("{}{}", brand_name(rng), k);
        if used.insert(b.clone()) {
            return b;
        }
        k += 1;
    }
}

fn make_names(brand: &str, asn: Asn, rng: &mut StdRng) -> AsNames {
    AsNames {
        brand: brand.to_string(),
        asrank_as_name: format!("{}-{}", brand.to_ascii_uppercase(), asn.0),
        peeringdb_as_name: format!("as-{}", brand.to_ascii_lowercase()),
        asrank_org: format!(
            "{brand} {}",
            ORG_SUFFIX_WHOIS[rng.gen_range(0..ORG_SUFFIX_WHOIS.len())]
        ),
        peeringdb_org: format!("{brand} - AS{}", asn.0),
        pch_org: format!(
            "{brand} {}",
            ORG_SUFFIX_PCH[rng.gen_range(0..ORG_SUFFIX_PCH.len())]
        ),
    }
}

/// Population-weighted sample of `k` distinct cities from `pool`.
fn weighted_cities(pool: &[&City], k: usize, rng: &mut StdRng) -> Vec<usize> {
    if pool.is_empty() || k == 0 {
        return Vec::new();
    }
    let total: u64 = pool.iter().map(|c| c.population as u64 + 1).sum();
    let mut chosen = std::collections::BTreeSet::new();
    let mut guard = 0;
    while chosen.len() < k.min(pool.len()) && guard < k * 40 + 100 {
        guard += 1;
        let mut pick = rng.gen_range(0..total);
        for c in pool {
            let w = c.population as u64 + 1;
            if pick < w {
                chosen.insert(c.id);
                break;
            }
            pick -= w;
        }
    }
    chosen.into_iter().collect()
}

/// Builds internal physical connectivity over a footprint: a Prim-style
/// nearest-neighbour tree plus ~20% extra shortcut edges. Edges between
/// cities on different continents are flagged submarine.
fn internal_edges(cities: &[City], footprint: &[usize], rng: &mut StdRng) -> Vec<InternalEdge> {
    if footprint.len() < 2 {
        return Vec::new();
    }
    let dist = |a: usize, b: usize| igdb_geo::haversine_km(&cities[a].loc, &cities[b].loc);
    let mut edges = Vec::new();
    let mut connected = vec![footprint[0]];
    let mut remaining: Vec<usize> = footprint[1..].to_vec();
    while !remaining.is_empty() {
        // Closest (remaining, connected) pair.
        let mut best = (f64::INFINITY, 0usize, 0usize); // (d, rem_idx, conn_city)
        for (ri, &r) in remaining.iter().enumerate() {
            for &c in &connected {
                let d = dist(r, c);
                if d < best.0 {
                    best = (d, ri, c);
                }
            }
        }
        let r = remaining.swap_remove(best.1);
        edges.push(make_edge(cities, r, best.2));
        connected.push(r);
    }
    // Extra shortcuts for redundancy.
    let extra = footprint.len() / 5;
    let mut guard = 0;
    let mut added = 0;
    while added < extra && guard < extra * 20 + 20 {
        guard += 1;
        let a = footprint[rng.gen_range(0..footprint.len())];
        let b = footprint[rng.gen_range(0..footprint.len())];
        if a == b {
            continue;
        }
        let e = make_edge(cities, a, b);
        if !edges.iter().any(|x| (x.a, x.b) == (e.a, e.b)) {
            edges.push(e);
            added += 1;
        }
    }
    edges
}

fn make_edge(cities: &[City], x: usize, y: usize) -> InternalEdge {
    let (a, b) = if x < y { (x, y) } else { (y, x) };
    let submarine = continent_of(&cities[a].country) != continent_of(&cities[b].country)
        || igdb_geo::haversine_km(&cities[a].loc, &cities[b].loc)
            > crate::rightofway::MAX_SEGMENT_KM;
    InternalEdge { a, b, submarine }
}

/// Random 60–90% subset of a footprint (what the AS declares publicly).
/// Always keeps at least one city.
fn declared_subset(footprint: &[usize], rng: &mut StdRng) -> Vec<usize> {
    if footprint.len() <= 1 {
        return footprint.to_vec();
    }
    let frac = rng.gen_range(0.6..0.9);
    let keep = ((footprint.len() as f64 * frac).round() as usize).max(1);
    let mut v = footprint.to_vec();
    // Deterministic partial shuffle.
    for i in 0..keep {
        let j = rng.gen_range(i..v.len());
        v.swap(i, j);
    }
    v.truncate(keep);
    v.sort_unstable();
    v
}

/// Generates the ecosystem.
pub fn build_ecosystem(cities: &[City], counts: AsCounts, rng: &mut StdRng) -> AsEcosystem {
    let mut ases: Vec<SynthAs> = Vec::new();
    let mut graph = AsGraph::new();
    let by_continent: BTreeMap<Continent, Vec<&City>> = {
        let mut m: BTreeMap<Continent, Vec<&City>> = BTreeMap::new();
        for c in cities {
            m.entry(continent_of(&c.country)).or_default().push(c);
        }
        m
    };
    let all_refs: Vec<&City> = cities.iter().collect();
    let continents: Vec<Continent> = {
        let mut v: Vec<Continent> = by_continent.keys().copied().collect();
        v.sort();
        v
    };

    let mut used_brands: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut next_asn_t1 = 100u32;
    let mut next_asn_t2 = 1_000u32;
    let mut next_asn_stub = 20_000u32;
    let mut next_asn_content = 13_000u32;

    // --- Tier-1 backbones: global footprints, peer clique. ---
    let mut tier1_asns = Vec::new();
    for _ in 0..counts.tier1 {
        let asn = Asn(next_asn_t1);
        next_asn_t1 += rng.gen_range(7..40);
        let brand = unique_brand(&mut used_brands, rng);
        let size = rng.gen_range(30..55);
        let footprint = weighted_cities(&all_refs, size, rng);
        let internal = internal_edges(cities, &footprint, rng);
        graph.add_as(asn, Tier::Tier1);
        tier1_asns.push(asn);
        let declared_footprint = declared_subset(&footprint, rng);
        ases.push(SynthAs {
            asn,
            class: AsClass::Tier1,
            names: make_names(&brand, asn, rng),
            region: None,
            footprint,
            declared_footprint,
            internal_edges: internal,
            rdns_style: match rng.gen_range(0..20) {
                0..=2 => RdnsStyle::GeoCode,
                3..=4 => RdnsStyle::CityName,
                5..=13 => RdnsStyle::Opaque,
                _ => RdnsStyle::None,
            },
            mpls: rng.gen_bool(0.5),
            in_atlas: true,
        });
    }
    for i in 0..tier1_asns.len() {
        for j in i + 1..tier1_asns.len() {
            graph.add_edge(tier1_asns[i], tier1_asns[j], AsRelationship::Peer);
        }
    }

    // --- Tier-2 regionals. ---
    let mut tier2_by_continent: BTreeMap<Continent, Vec<Asn>> = BTreeMap::new();
    for k in 0..counts.tier2 {
        let region = continents[k % continents.len()];
        let pool = &by_continent[&region];
        let asn = Asn(next_asn_t2);
        next_asn_t2 += rng.gen_range(3..25);
        let brand = unique_brand(&mut used_brands, rng);
        let size = rng.gen_range(6..20).min(pool.len().max(1));
        let mut footprint = weighted_cities(pool, size, rng);
        // Providers: 1–3 tier-1s; ensure a shared interconnection city.
        let n_prov = rng.gen_range(1..=3.min(tier1_asns.len().max(1)));
        let mut providers = Vec::new();
        for _ in 0..n_prov {
            let p = tier1_asns[rng.gen_range(0..tier1_asns.len())];
            if !providers.contains(&p) {
                providers.push(p);
            }
        }
        for &p in &providers {
            let p_as = ases.iter().find(|a| a.asn == p).unwrap();
            if !footprint.iter().any(|c| p_as.footprint.contains(c)) {
                // Adopt the provider's footprint city nearest to our region.
                if let Some(&share) = p_as
                    .footprint
                    .iter()
                    .find(|&&c| continent_of(&cities[c].country) == region)
                    .or_else(|| p_as.footprint.first())
                {
                    footprint.push(share);
                    footprint.sort_unstable();
                    footprint.dedup();
                }
            }
        }
        let internal = internal_edges(cities, &footprint, rng);
        graph.add_as(asn, Tier::Tier2);
        for &p in &providers {
            graph.add_edge(asn, p, AsRelationship::CustomerOf);
        }
        tier2_by_continent.entry(region).or_default().push(asn);
        let declared_footprint = declared_subset(&footprint, rng);
        ases.push(SynthAs {
            asn,
            class: AsClass::Tier2,
            names: make_names(&brand, asn, rng),
            region: Some(region),
            footprint,
            declared_footprint,
            internal_edges: internal,
            rdns_style: match rng.gen_range(0..20) {
                0..=1 => RdnsStyle::GeoCode,
                2 => RdnsStyle::CityName,
                3..=12 => RdnsStyle::Opaque,
                _ => RdnsStyle::None,
            },
            mpls: rng.gen_bool(0.35),
            in_atlas: true,
        });
    }
    // Peer tier-2s within a continent (sparse).
    for asns in tier2_by_continent.values() {
        for i in 0..asns.len() {
            for j in i + 1..asns.len() {
                if rng.gen_bool(0.3) {
                    graph.add_edge(asns[i], asns[j], AsRelationship::Peer);
                }
            }
        }
    }

    // --- Content/cloud networks: global footprint, stub economics. ---
    for _ in 0..counts.content {
        let asn = Asn(next_asn_content);
        next_asn_content += rng.gen_range(11..90);
        let brand = unique_brand(&mut used_brands, rng);
        let size = rng.gen_range(35..70);
        let footprint = weighted_cities(&all_refs, size, rng);
        let internal = internal_edges(cities, &footprint, rng);
        graph.add_as(asn, Tier::Stub);
        // Transit from 2–3 tier-1s; peering with many tier-2s.
        for _ in 0..rng.gen_range(2..=3.min(tier1_asns.len().max(1))) {
            let p = tier1_asns[rng.gen_range(0..tier1_asns.len())];
            graph.add_edge(asn, p, AsRelationship::CustomerOf);
        }
        for asns in tier2_by_continent.values() {
            for &t2 in asns {
                if rng.gen_bool(0.25) {
                    graph.add_edge(asn, t2, AsRelationship::Peer);
                }
            }
        }
        let declared_footprint = declared_subset(&footprint, rng);
        ases.push(SynthAs {
            asn,
            class: AsClass::Content,
            names: make_names(&brand, asn, rng),
            region: None,
            footprint,
            declared_footprint,
            internal_edges: internal,
            rdns_style: if rng.gen_bool(0.5) {
                RdnsStyle::Opaque
            } else {
                RdnsStyle::None
            },
            mpls: false,
            in_atlas: true,
        });
    }

    // --- Stubs: 1–3 cities inside a provider's footprint. ---
    // A quarter of stubs belong to shared holding organizations (sibling
    // ASNs under one WHOIS org — why the paper counts fewer organizations
    // than ASes).
    let mut holding_orgs: Vec<String> = Vec::new();
    for k in 0..counts.stub {
        let region = continents[k % continents.len()];
        let t2s = tier2_by_continent.get(&region);
        // Skip the reserved scenario window (64000–66000).
        if (64_000..66_000).contains(&next_asn_stub) {
            next_asn_stub = 66_000;
        }
        let asn = Asn(next_asn_stub);
        next_asn_stub += rng.gen_range(1..15);
        let brand = unique_brand(&mut used_brands, rng);
        // Pick providers: 1–2 tier-2s in region (fallback: a tier-1).
        let mut providers: Vec<Asn> = Vec::new();
        if let Some(t2s) = t2s {
            if !t2s.is_empty() {
                providers.push(t2s[rng.gen_range(0..t2s.len())]);
                // Multihoming: most stubs buy from more than one upstream
                // (drives the real AS graph's ~4 links per AS).
                for p_extra in [0.55, 0.30] {
                    if t2s.len() > providers.len() && rng.gen_bool(p_extra) {
                        let extra = t2s[rng.gen_range(0..t2s.len())];
                        if !providers.contains(&extra) {
                            providers.push(extra);
                        }
                    }
                }
            }
        }
        if providers.is_empty() {
            providers.push(tier1_asns[rng.gen_range(0..tier1_asns.len())]);
        }
        // Footprint ⊂ first provider's footprint.
        let prov_fp: Vec<usize> = ases
            .iter()
            .find(|a| a.asn == providers[0])
            .map(|a| a.footprint.clone())
            .unwrap_or_default();
        let n_cities = rng.gen_range(1..=3usize).min(prov_fp.len().max(1));
        let mut footprint = Vec::new();
        let mut guard = 0;
        while footprint.len() < n_cities && guard < 50 {
            guard += 1;
            if prov_fp.is_empty() {
                break;
            }
            let c = prov_fp[rng.gen_range(0..prov_fp.len())];
            if !footprint.contains(&c) {
                footprint.push(c);
            }
        }
        if footprint.is_empty() {
            footprint.push(rng.gen_range(0..cities.len()));
        }
        footprint.sort_unstable();
        let internal = internal_edges(cities, &footprint, rng);
        graph.add_as(asn, Tier::Stub);
        for &p in &providers {
            graph.add_edge(asn, p, AsRelationship::CustomerOf);
        }
        let declared_footprint = footprint.clone();
        let mut stub_names = make_names(&brand, asn, rng);
        if rng.gen_bool(0.25) {
            // Join (or found) a holding organization.
            if !holding_orgs.is_empty() && rng.gen_bool(0.8) {
                let org = holding_orgs[rng.gen_range(0..holding_orgs.len())].clone();
                stub_names.asrank_org = org;
            } else {
                holding_orgs.push(stub_names.asrank_org.clone());
            }
        }
        ases.push(SynthAs {
            asn,
            class: AsClass::Stub,
            names: stub_names,
            region: Some(region),
            footprint,
            declared_footprint,
            internal_edges: internal,
            rdns_style: match rng.gen_range(0..20) {
                0 => RdnsStyle::CityName,
                1..=8 => RdnsStyle::Opaque,
                _ => RdnsStyle::None,
            },
            mpls: false,
            in_atlas: rng.gen_bool(0.04),
        });
    }

    let by_asn = ases.iter().enumerate().map(|(i, a)| (a.asn, i)).collect();
    AsEcosystem {
        ases,
        graph,
        by_asn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::build_cities;
    use rand::SeedableRng;

    fn ecosystem() -> (Vec<City>, AsEcosystem) {
        let mut rng = StdRng::seed_from_u64(5);
        let cities = build_cities(400, &mut rng);
        let eco = build_ecosystem(
            &cities,
            AsCounts {
                tier1: 6,
                tier2: 24,
                stub: 80,
                content: 6,
            },
            &mut rng,
        );
        (cities, eco)
    }

    #[test]
    fn counts_match_request() {
        let (_, eco) = ecosystem();
        assert_eq!(eco.len(), 6 + 24 + 80 + 6);
        assert_eq!(
            eco.ases
                .iter()
                .filter(|a| a.class == AsClass::Tier1)
                .count(),
            6
        );
        assert_eq!(
            eco.ases
                .iter()
                .filter(|a| a.class == AsClass::Content)
                .count(),
            6
        );
        assert_eq!(eco.graph.len(), eco.len());
    }

    #[test]
    fn asns_unique() {
        let (_, eco) = ecosystem();
        let set: std::collections::HashSet<Asn> = eco.ases.iter().map(|a| a.asn).collect();
        assert_eq!(set.len(), eco.len());
    }

    #[test]
    fn tier1_clique_peers() {
        let (_, eco) = ecosystem();
        let t1: Vec<Asn> = eco
            .ases
            .iter()
            .filter(|a| a.class == AsClass::Tier1)
            .map(|a| a.asn)
            .collect();
        for i in 0..t1.len() {
            for j in i + 1..t1.len() {
                assert_eq!(
                    eco.graph.relationship(t1[i], t1[j]),
                    Some(AsRelationship::Peer)
                );
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let (_, eco) = ecosystem();
        for a in &eco.ases {
            if a.class != AsClass::Tier1 {
                assert!(
                    !eco.graph.providers(a.asn).is_empty(),
                    "{} ({:?}) has no provider",
                    a.asn,
                    a.class
                );
            }
        }
    }

    #[test]
    fn stub_shares_a_city_with_its_provider() {
        let (_, eco) = ecosystem();
        for a in eco.ases.iter().filter(|a| a.class == AsClass::Stub) {
            let provs = eco.graph.providers(a.asn);
            let any_shared = provs.iter().any(|p| {
                eco.get(*p)
                    .map(|pa| a.footprint.iter().any(|c| pa.footprint.contains(c)))
                    .unwrap_or(false)
            });
            assert!(any_shared, "{} shares no city with any provider", a.asn);
        }
    }

    #[test]
    fn footprints_nonempty_and_internal_edges_span() {
        let (_, eco) = ecosystem();
        for a in &eco.ases {
            assert!(!a.footprint.is_empty(), "{}", a.asn);
            if a.footprint.len() >= 2 {
                // Internal edges must form a connected graph over footprint.
                let mut reach = std::collections::HashSet::new();
                reach.insert(a.footprint[0]);
                let mut changed = true;
                while changed {
                    changed = false;
                    for e in &a.internal_edges {
                        if reach.contains(&e.a) && reach.insert(e.b) {
                            changed = true;
                        }
                        if reach.contains(&e.b) && reach.insert(e.a) {
                            changed = true;
                        }
                    }
                }
                for c in &a.footprint {
                    assert!(reach.contains(c), "{}: city {c} disconnected", a.asn);
                }
            }
        }
    }

    #[test]
    fn content_networks_span_many_cities() {
        let (_, eco) = ecosystem();
        for a in eco.ases.iter().filter(|a| a.class == AsClass::Content) {
            assert!(a.footprint.len() >= 30, "{}: {}", a.asn, a.footprint.len());
        }
    }

    #[test]
    fn name_variants_differ_across_sources() {
        let (_, eco) = ecosystem();
        for a in &eco.ases {
            assert_ne!(a.names.asrank_as_name, a.names.peeringdb_as_name);
            assert_ne!(a.names.asrank_org, a.names.peeringdb_org);
            assert_ne!(a.names.pch_org, a.names.peeringdb_org);
            // But all share the brand stem (case-insensitively).
            let stem = a.names.brand.to_ascii_lowercase();
            assert!(a.names.peeringdb_as_name.contains(&stem));
        }
    }

    #[test]
    fn submarine_flag_set_for_intercontinental_edges() {
        let (cities, eco) = ecosystem();
        for a in &eco.ases {
            for e in &a.internal_edges {
                let cross =
                    continent_of(&cities[e.a].country) != continent_of(&cities[e.b].country);
                if cross {
                    assert!(e.submarine, "{}: {:?} should be submarine", a.asn, e);
                }
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let cities = build_cities(300, &mut rng);
            let eco = build_ecosystem(
                &cities,
                AsCounts {
                    tier1: 3,
                    tier2: 8,
                    stub: 20,
                    content: 2,
                },
                &mut rng,
            );
            eco.ases
                .iter()
                .map(|a| (a.asn, a.footprint.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(77), gen(77));
    }
}
