//! Per-source snapshot emission.
//!
//! iGDB ingests timestamped snapshots from nine public sources (paper §2).
//! This module renders the synthetic world *as those sources would publish
//! it* — each with its own slice of the truth, its own naming conventions,
//! and its own blind spots:
//!
//! * Internet Atlas sees only documented networks' declared PoPs and edges,
//!   with messy free-text city labels.
//! * PeeringDB lists facilities, networks and presence records; IXP LANs.
//! * PCH/HE/EuroIX describe IXPs from three more angles.
//! * Rapid7 rDNS dumps PTR records.
//! * AS Rank publishes the collector-observed AS graph with WHOIS names.
//! * RIPE Atlas exposes anchors and their traceroute meshes.
//!
//! Records are plain structs; `igdb-core`'s ingest layer turns them into
//! relations. A `SnapshotSet` carries them all plus the `as_of_date`.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use igdb_geo::GeoPoint;
use igdb_net::{Asn, Ip4, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ases::AsClass;
use igdb_db::Str;

use crate::world::World;

/// One Internet Atlas PoP entry.
#[derive(Clone, Debug, PartialEq)]
pub struct AtlasNode {
    /// Owning network's name as Atlas records it (search-derived).
    pub network: Str,
    /// Node label, e.g. "Veralink Kansas City PoP 2".
    pub node_name: Str,
    /// Free-text city label with inconsistent formatting.
    pub city_label: Str,
    pub country: Str,
    pub loc: GeoPoint,
}

/// Right-of-way class of a documented link (paper §5: "a new column to
/// explicitly annotate the type of link or right-of-way network used").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkType {
    /// Fiber along roads/rail — iGDB infers the path.
    Roadway,
    /// Line-of-sight microwave — the physical path IS the straight line
    /// ("the physical paths (which would be straight lines from node to
    /// node) could be added", §5).
    Microwave,
}

/// One Internet Atlas PoP-to-PoP connection (no path geometry — the paper
/// stresses exact paths are withheld for security).
#[derive(Clone, Debug, PartialEq)]
pub struct AtlasLink {
    pub network: Str,
    pub from_node: Str,
    pub to_node: Str,
    pub link_type: LinkType,
}

/// One PeeringDB facility.
#[derive(Clone, Debug, PartialEq)]
pub struct PdbFacility {
    pub fac_id: u32,
    pub name: Str,
    pub city_label: Str,
    pub country: Str,
    pub loc: GeoPoint,
}

/// One PeeringDB network record.
#[derive(Clone, Debug, PartialEq)]
pub struct PdbNetwork {
    pub net_id: u32,
    pub asn: Asn,
    pub as_name: String,
    pub org: String,
}

/// AS presence at a facility (netfac).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PdbNetFac {
    pub net_id: u32,
    pub fac_id: u32,
}

/// One PeeringDB IXP with its peering LAN.
#[derive(Clone, Debug, PartialEq)]
pub struct PdbIx {
    pub ix_id: u32,
    pub name: String,
    pub city_label: String,
    pub country: String,
    pub prefix: Prefix,
}

/// AS membership at an IXP (netixlan).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PdbNetIx {
    pub net_id: u32,
    pub ix_id: u32,
}

/// PCH IXP directory entry.
#[derive(Clone, Debug, PartialEq)]
pub struct PchIxp {
    pub name: String,
    pub city_label: String,
    pub country: String,
    pub member_asns: Vec<Asn>,
    /// PCH's organization name for each member (its own spelling).
    pub member_orgs: Vec<String>,
}

/// Hurricane Electric exchange report row.
#[derive(Clone, Debug, PartialEq)]
pub struct HeExchange {
    pub name: String,
    pub participant_count: usize,
}

/// EuroIX IXP feed entry (European IXPs only).
#[derive(Clone, Debug, PartialEq)]
pub struct EuroIxEntry {
    pub ix_name: String,
    pub country: String,
    pub member_asns: Vec<Asn>,
}

/// A Rapid7-style PTR record.
#[derive(Clone, Debug, PartialEq)]
pub struct RdnsRecord {
    pub ip: Ip4,
    pub hostname: Str,
}

/// AS Rank per-AS row.
#[derive(Clone, Debug, PartialEq)]
pub struct AsRankEntry {
    pub asn: Asn,
    pub as_name: String,
    pub org: String,
    pub cone: usize,
}

/// RIPE anchor registration.
#[derive(Clone, Debug, PartialEq)]
pub struct RipeAnchorRecord {
    pub id: u32,
    pub ip: Ip4,
    pub asn: Asn,
    pub city_label: String,
    pub country: String,
    pub loc: GeoPoint,
}

/// One hop of a published traceroute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RipeHop {
    pub ttl: u8,
    pub ip: Option<Ip4>,
    pub rtt_ms: f64,
}

/// One anchor-mesh traceroute.
#[derive(Clone, Debug, PartialEq)]
pub struct RipeTraceroute {
    pub src_anchor: u32,
    pub dst_anchor: u32,
    pub hops: Vec<RipeHop>,
}

/// Natural-Earth-style populated place (the standardization input).
#[derive(Clone, Debug, PartialEq)]
pub struct NaturalEarthPlace {
    pub name: String,
    pub state: String,
    pub country: String,
    pub loc: GeoPoint,
    pub population: u32,
}

/// One segment of the public transportation (right-of-way) dataset.
/// Endpoint indexes refer to the `natural_earth` list.
#[derive(Clone, Debug, PartialEq)]
pub struct RoadSegment {
    pub a: usize,
    pub b: usize,
    pub length_km: f64,
    pub path: Vec<GeoPoint>,
}

/// Telegeography-style cable record.
#[derive(Clone, Debug, PartialEq)]
pub struct TelegeoCableRecord {
    pub cable_id: usize,
    pub name: String,
    pub owners: Vec<String>,
    /// (landing name, city label, location) in chain order.
    pub landings: Vec<(String, String, GeoPoint)>,
    pub segments: Vec<Vec<GeoPoint>>,
}

/// BGP RIB entry: announced prefix and its origin AS (what RouteViews/RIS
/// dumps provide and bdrmapIT consumes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BgpPrefixRecord {
    pub prefix: Prefix,
    pub origin: Asn,
}

/// One source's records as a shared value. Cloning bumps a count instead of
/// copying records, a write copies the records only while another handle
/// still holds them, and two handles on one allocation compare equal
/// without reading a record — so sets keep one copy of each source that
/// did not change, however many of them hold it.
#[derive(Clone, Debug)]
pub struct Source<T>(Arc<Vec<T>>);

impl<T> Source<T> {
    /// Whether both handles hold the same allocation.
    pub fn shares(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Returns the records' growth slack first (up to 2x after push-based
/// emission): a source outlives the build that reads it, as part of the
/// baseline each world keeps for the next delta.
impl<T> From<Vec<T>> for Source<T> {
    fn from(mut records: Vec<T>) -> Self {
        records.shrink_to_fit();
        Source(Arc::new(records))
    }
}

impl<T> FromIterator<T> for Source<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<T> Deref for Source<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Clone> DerefMut for Source<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }
}

impl<T: PartialEq> PartialEq for Source<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shares(other) || self.0 == other.0
    }
}

impl<'a, T> IntoIterator for &'a Source<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a, T: Clone> IntoIterator for &'a mut Source<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        Arc::make_mut(&mut self.0).iter_mut()
    }
}

/// All snapshots for one `as_of_date`. Every source is a [`Source`], so a
/// clone of the set shares every record with the original.
#[derive(Clone, Debug)]
pub struct SnapshotSet {
    pub as_of_date: String,
    pub atlas_nodes: Source<AtlasNode>,
    pub atlas_links: Source<AtlasLink>,
    pub pdb_facilities: Source<PdbFacility>,
    pub pdb_networks: Source<PdbNetwork>,
    pub pdb_netfac: Source<PdbNetFac>,
    pub pdb_ix: Source<PdbIx>,
    pub pdb_netix: Source<PdbNetIx>,
    pub pch_ixps: Source<PchIxp>,
    pub he_exchanges: Source<HeExchange>,
    pub euroix: Source<EuroIxEntry>,
    pub rdns: Source<RdnsRecord>,
    pub asrank_entries: Source<AsRankEntry>,
    pub asrank_links: Source<(Asn, Asn)>,
    pub ripe_anchors: Source<RipeAnchorRecord>,
    pub ripe_traceroutes: Source<RipeTraceroute>,
    /// Natural Earth populated places (standardization source, §3.1).
    pub natural_earth: Source<NaturalEarthPlace>,
    /// Public road/rail rights-of-way (the GIS transportation layer).
    pub roads: Source<RoadSegment>,
    /// Telegeography submarine cables.
    pub telegeo: Source<TelegeoCableRecord>,
    /// BGP RIB prefix→origin entries.
    pub bgp_prefixes: Source<BgpPrefixRecord>,
    /// Known anycast prefixes (the public list the paper's §5 would
    /// annotate from).
    pub anycast_prefixes: Source<Prefix>,
    /// The Hoiho rule file (regex + token semantics).
    pub hoiho_rules: Source<crate::naming::HoihoRule>,
    /// Public geocode dictionary (IATA-style code → city index in
    /// `natural_earth`).
    pub geo_codes: Source<(String, usize)>,
}

/// Renders a city label the way sloppy human-entered datasets do.
fn messy_label(world: &World, city: usize, style: u8) -> String {
    let c = &world.cities[city];
    match style % 4 {
        0 => c.name.clone(),
        1 => c.name.to_ascii_uppercase(),
        2 => format!(
            "{}, {}",
            c.name,
            if c.state.is_empty() {
                &c.country
            } else {
                &c.state
            }
        ),
        _ => world.codebook.code(city).to_ascii_uppercase(),
    }
}

/// Emits every source snapshot from the world.
///
/// `mesh_pairs` caps the traceroute mesh size (the full mesh is quadratic
/// in anchors). `as_of_date` stamps every derived relation.
pub fn emit_snapshots(world: &World, as_of_date: &str, mesh_pairs: usize) -> SnapshotSet {
    let mut rng = StdRng::seed_from_u64(world.config.seed ^ 0x5eed_50a9);

    // --- Internet Atlas: documented networks, declared PoPs/edges. ---
    let mut atlas_nodes = Vec::new();
    let mut atlas_links = Vec::new();
    for a in world.eco.ases.iter().filter(|a| a.in_atlas) {
        let declared: std::collections::HashSet<usize> =
            a.declared_footprint.iter().copied().collect();
        let node_name = |cid: usize| format!("{} {} PoP", a.names.brand, world.cities[cid].name);
        for &cid in &a.declared_footprint {
            atlas_nodes.push(AtlasNode {
                network: a.names.brand.clone().into(),
                node_name: node_name(cid).into(),
                city_label: messy_label(world, cid, rng.gen()).into(),
                country: world.cities[cid].country.clone().into(),
                loc: jitter(world.cities[cid].loc, 0.05, &mut rng),
            });
        }
        // A sliver of documented networks run line-of-sight microwave
        // (latency-arbitrage style); their links skip road rights-of-way.
        let microwave_operator = a.class == crate::ases::AsClass::Tier2 && rng.gen_bool(0.04);
        for e in &a.internal_edges {
            if declared.contains(&e.a) && declared.contains(&e.b) && !e.submarine {
                let short_enough =
                    igdb_geo::haversine_km(&world.cities[e.a].loc, &world.cities[e.b].loc) < 1500.0;
                atlas_links.push(AtlasLink {
                    network: a.names.brand.clone().into(),
                    from_node: node_name(e.a).into(),
                    to_node: node_name(e.b).into(),
                    link_type: if microwave_operator && short_enough {
                        LinkType::Microwave
                    } else {
                        LinkType::Roadway
                    },
                });
            }
        }
    }

    // --- PeeringDB. ---
    let mut pdb_facilities = Vec::new();
    let mut fac_of_city: std::collections::HashMap<usize, Vec<u32>> =
        std::collections::HashMap::new();
    let mut fac_id = 0u32;
    // Facilities exist in cities where anyone declares presence.
    let mut cities_with_presence: Vec<usize> = world
        .eco
        .ases
        .iter()
        .flat_map(|a| a.declared_footprint.iter().copied())
        .collect::<std::collections::BTreeSet<usize>>()
        .into_iter()
        .collect();
    cities_with_presence.sort_unstable();
    for cid in cities_with_presence {
        let n_fac = 1
            + (world.cities[cid].population > 800) as u32
            + (world.cities[cid].population > 3000) as u32
            + (world.cities[cid].population > 8000) as u32;
        for k in 0..n_fac {
            pdb_facilities.push(PdbFacility {
                fac_id,
                name: format!("{} DC{}", world.cities[cid].name, k + 1).into(),
                city_label: messy_label(world, cid, rng.gen()).into(),
                country: world.cities[cid].country.clone().into(),
                loc: jitter(world.cities[cid].loc, 0.08, &mut rng),
            });
            fac_of_city.entry(cid).or_default().push(fac_id);
            fac_id += 1;
        }
    }
    let mut pdb_networks = Vec::new();
    let mut pdb_netfac = Vec::new();
    for (i, a) in world.eco.ases.iter().enumerate() {
        // PeeringDB coverage: most transit/content, many stubs.
        // Scenario ASes (reserved 64100–65100 range) always register, so
        // the named experiments have deterministic declared footprints.
        let scenario = (64_100..=65_100).contains(&a.asn.0);
        let joins = match a.class {
            AsClass::Tier1 | AsClass::Tier2 | AsClass::Content => true,
            AsClass::Stub => scenario || rng.gen_bool(0.55),
        };
        if !joins {
            continue;
        }
        let net_id = i as u32 + 1;
        pdb_networks.push(PdbNetwork {
            net_id,
            asn: a.asn,
            as_name: a.names.peeringdb_as_name.clone(),
            org: a.names.peeringdb_org.clone(),
        });
        for &cid in &a.declared_footprint {
            if let Some(fs) = fac_of_city.get(&cid) {
                let f = fs[rng.gen_range(0..fs.len())];
                pdb_netfac.push(PdbNetFac { net_id, fac_id: f });
            }
        }
    }
    let net_id_of_asn: std::collections::HashMap<Asn, u32> =
        pdb_networks.iter().map(|n| (n.asn, n.net_id)).collect();
    let mut pdb_ix = Vec::new();
    let mut pdb_netix = Vec::new();
    for ixp in &world.ixps {
        pdb_ix.push(PdbIx {
            ix_id: ixp.id as u32,
            name: ixp.name.clone(),
            city_label: messy_label(world, ixp.city, rng.gen()),
            country: world.cities[ixp.city].country.clone(),
            prefix: ixp.prefix,
        });
        for m in &ixp.members {
            if let Some(&net_id) = net_id_of_asn.get(&m.asn) {
                pdb_netix.push(PdbNetIx {
                    net_id,
                    ix_id: ixp.id as u32,
                });
            }
        }
    }

    // --- PCH: IXP directory with PCH's own org spellings. ---
    let pch_ixps = world
        .ixps
        .iter()
        .map(|ixp| {
            let members: Vec<Asn> = ixp.members.iter().map(|m| m.asn).collect();
            let orgs = members
                .iter()
                .map(|&asn| {
                    world
                        .eco
                        .get(asn)
                        .map(|a| a.names.pch_org.clone())
                        .unwrap_or_default()
                })
                .collect();
            PchIxp {
                name: ixp.name.clone(),
                city_label: messy_label(world, ixp.city, rng.gen()),
                country: world.cities[ixp.city].country.clone(),
                member_asns: members,
                member_orgs: orgs,
            }
        })
        .collect();

    // --- Hurricane Electric & EuroIX. ---
    let he_exchanges = world
        .ixps
        .iter()
        .map(|ixp| HeExchange {
            name: ixp.name.clone(),
            participant_count: ixp.members.len(),
        })
        .collect();
    let euroix = world
        .ixps
        .iter()
        .filter(|ixp| {
            crate::cities::continent_of(&world.cities[ixp.city].country)
                == crate::cities::Continent::Europe
        })
        .map(|ixp| EuroIxEntry {
            ix_name: ixp.name.clone(),
            country: world.cities[ixp.city].country.clone(),
            member_asns: ixp.members.iter().map(|m| m.asn).collect(),
        })
        .collect();

    // --- Rapid7 rDNS. ---
    let rdns = {
        let mut v: Vec<RdnsRecord> = world
            .hostnames
            .iter()
            .map(|(&ip, h)| RdnsRecord {
                ip,
                hostname: h.clone().into(),
            })
            .collect();
        v.sort_by_key(|r| r.ip);
        v
    };

    // --- AS Rank: collector aggregation + cones + WHOIS names. ---
    let cones = igdb_net::collector::customer_cones(&world.eco.graph);
    let asrank_entries = world
        .eco
        .ases
        .iter()
        .map(|a| AsRankEntry {
            asn: a.asn,
            as_name: a.names.asrank_as_name.clone(),
            org: a.names.asrank_org.clone(),
            cone: cones.get(&a.asn).copied().unwrap_or(1),
        })
        .collect();
    let asrank_links = collect_as_links(world);

    // --- RIPE Atlas. ---
    let ripe_anchors = world
        .anchors
        .iter()
        .map(|a| RipeAnchorRecord {
            id: a.id,
            ip: a.ip,
            asn: a.asn,
            city_label: world.cities[a.city].name.clone(),
            country: world.cities[a.city].country.clone(),
            loc: a.loc,
        })
        .collect();
    let ripe_traceroutes = world
        .anchor_mesh(mesh_pairs)
        .into_iter()
        .map(|(src, dst, tr)| RipeTraceroute {
            src_anchor: src,
            dst_anchor: dst,
            hops: tr
                .hops
                .iter()
                .map(|h| RipeHop {
                    ttl: h.ttl,
                    ip: h.ip,
                    rtt_ms: h.rtt_ms,
                })
                .collect(),
        })
        .collect();

    // --- Public datasets: places, roads, cables, BGP RIBs, Hoiho. ---
    let natural_earth = world
        .cities
        .iter()
        .map(|c| NaturalEarthPlace {
            name: c.name.clone(),
            state: c.state.clone(),
            country: c.country.clone(),
            loc: c.loc,
            population: c.population,
        })
        .collect();
    let roads = world
        .row
        .edges
        .iter()
        .map(|e| RoadSegment {
            a: e.a,
            b: e.b,
            length_km: e.length_km,
            path: e.path.clone(),
        })
        .collect();
    let telegeo = world
        .cables
        .iter()
        .map(|c| TelegeoCableRecord {
            cable_id: c.id,
            name: c.name.clone(),
            owners: c.owners.clone(),
            landings: c
                .landings
                .iter()
                .map(|lp| (lp.name.clone(), world.cities[lp.city].name.clone(), lp.loc))
                .collect(),
            segments: c.segments.clone(),
        })
        .collect();
    let bgp_prefixes = {
        let mut v: Vec<BgpPrefixRecord> = world
            .prefix_of
            .iter()
            .map(|(&origin, &prefix)| BgpPrefixRecord { prefix, origin })
            .collect();
        v.sort_by_key(|r| (r.prefix, r.origin));
        v
    };
    let anycast_prefixes = world.anycast_prefixes.iter().map(|&(_, p)| p).collect();
    let geo_codes = (0..world.cities.len())
        .map(|cid| (world.codebook.code(cid).to_string(), cid))
        .collect();

    SnapshotSet {
        as_of_date: as_of_date.to_string(),
        atlas_nodes: atlas_nodes.into(),
        atlas_links: atlas_links.into(),
        pdb_facilities: pdb_facilities.into(),
        pdb_networks: pdb_networks.into(),
        pdb_netfac: pdb_netfac.into(),
        pdb_ix: pdb_ix.into(),
        pdb_netix: pdb_netix.into(),
        pch_ixps,
        he_exchanges,
        euroix,
        rdns: rdns.into(),
        asrank_entries,
        asrank_links: asrank_links.into(),
        ripe_anchors,
        ripe_traceroutes,
        natural_earth,
        roads,
        telegeo,
        bgp_prefixes: bgp_prefixes.into(),
        anycast_prefixes,
        hoiho_rules: world.hoiho.clone().into(),
        geo_codes,
    }
}

/// The AS-adjacency set as route collectors observe it. For worlds up to a
/// few thousand ASes we run honest BGP collection from ~20 vantages over
/// every origin. Beyond that we use the Gao–Rexford visibility rule
/// (customer-provider edges are visible from anywhere; peer edges only
/// from inside either endpoint's customer cone), which matches honest
/// collection closely at a fraction of the cost — validated in tests.
pub fn collect_as_links(world: &World) -> Vec<(Asn, Asn)> {
    let graph = &world.eco.graph;
    let asns = graph.asns();
    if asns.len() <= 4000 {
        let vantages = pick_vantages(world, 20);
        let collected = igdb_net::collector::CollectedPaths::collect(graph, &vantages, &asns);
        igdb_net::collector::aggregate_paths(&collected.paths)
    } else {
        visible_edges_approximation(world, &pick_vantages(world, 20))
    }
}

/// ~20 vantage ASes the way RouteViews/RIS peers look: mostly large
/// transit networks plus a few stubs.
fn pick_vantages(world: &World, k: usize) -> Vec<Asn> {
    let mut v: Vec<Asn> = world
        .eco
        .ases
        .iter()
        .filter(|a| matches!(a.class, AsClass::Tier1 | AsClass::Tier2))
        .map(|a| a.asn)
        .take(k.saturating_sub(3))
        .collect();
    v.extend(
        world
            .eco
            .ases
            .iter()
            .filter(|a| a.class == AsClass::Stub)
            .map(|a| a.asn)
            .take(3),
    );
    v
}

/// The visibility approximation used at paper scale.
fn visible_edges_approximation(world: &World, vantages: &[Asn]) -> Vec<(Asn, Asn)> {
    let graph = &world.eco.graph;
    // Membership of each vantage's "upstream closure": v sees peer edge
    // (a,b) if v is inside cone(a) or cone(b). Equivalently: walk up from
    // each vantage along provider links, marking every AS whose cone
    // contains a vantage.
    let mut cone_has_vantage: std::collections::HashSet<Asn> = std::collections::HashSet::new();
    for &v in vantages {
        let mut stack = vec![v];
        let mut seen = std::collections::HashSet::new();
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            cone_has_vantage.insert(x);
            for p in graph.providers(x) {
                stack.push(p);
            }
        }
    }
    let mut edges = std::collections::BTreeSet::new();
    for a in graph.asns() {
        for &(b, rel) in graph.neighbors(a) {
            if a >= b {
                continue;
            }
            let visible = match rel {
                igdb_net::AsRelationship::CustomerOf | igdb_net::AsRelationship::ProviderOf => true,
                igdb_net::AsRelationship::Peer => {
                    cone_has_vantage.contains(&a) || cone_has_vantage.contains(&b)
                }
            };
            if visible {
                edges.insert((a, b));
            }
        }
    }
    edges.into_iter().collect()
}

fn jitter(p: GeoPoint, spread_deg: f64, rng: &mut StdRng) -> GeoPoint {
    GeoPoint::new(
        p.lon + rng.gen_range(-spread_deg..spread_deg),
        p.lat + rng.gen_range(-spread_deg..spread_deg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    fn snapshots() -> (World, SnapshotSet) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 300);
        (world, snaps)
    }

    #[test]
    fn atlas_covers_documented_networks_only() {
        let (world, s) = snapshots();
        assert!(!s.atlas_nodes.is_empty());
        let atlas_networks: std::collections::HashSet<&str> =
            s.atlas_nodes.iter().map(|n| n.network.as_str()).collect();
        for a in &world.eco.ases {
            if a.in_atlas {
                assert!(
                    atlas_networks.contains(a.names.brand.as_str()),
                    "{} documented but missing",
                    a.names.brand
                );
            }
        }
        // Undocumented stubs must not appear.
        for a in world.eco.ases.iter().filter(|a| !a.in_atlas) {
            assert!(!atlas_networks.contains(a.names.brand.as_str()));
        }
    }

    #[test]
    fn atlas_links_reference_existing_nodes() {
        let (_, s) = snapshots();
        let names: std::collections::HashSet<&str> =
            s.atlas_nodes.iter().map(|n| n.node_name.as_str()).collect();
        assert!(!s.atlas_links.is_empty());
        for l in &s.atlas_links {
            assert!(names.contains(l.from_node.as_str()), "{l:?}");
            assert!(names.contains(l.to_node.as_str()), "{l:?}");
        }
    }

    #[test]
    fn peeringdb_netfac_references_valid_ids() {
        let (_, s) = snapshots();
        let net_ids: std::collections::HashSet<u32> =
            s.pdb_networks.iter().map(|n| n.net_id).collect();
        let fac_ids: std::collections::HashSet<u32> =
            s.pdb_facilities.iter().map(|f| f.fac_id).collect();
        assert!(!s.pdb_netfac.is_empty());
        for nf in &s.pdb_netfac {
            assert!(net_ids.contains(&nf.net_id));
            assert!(fac_ids.contains(&nf.fac_id));
        }
    }

    #[test]
    fn ixp_sources_agree_on_names() {
        let (world, s) = snapshots();
        assert_eq!(s.pdb_ix.len(), world.ixps.len());
        assert_eq!(s.pch_ixps.len(), world.ixps.len());
        assert_eq!(s.he_exchanges.len(), world.ixps.len());
        for ((p, h), x) in s.pdb_ix.iter().zip(&s.he_exchanges).zip(&s.pch_ixps) {
            assert_eq!(p.name, h.name);
            assert_eq!(p.name, x.name);
        }
        // EuroIX only lists European IXPs.
        assert!(s.euroix.len() < world.ixps.len());
    }

    #[test]
    fn rdns_records_match_world_hostnames() {
        let (world, s) = snapshots();
        assert_eq!(s.rdns.len(), world.hostnames.len());
        for r in s.rdns.iter().take(50) {
            assert_eq!(
                world.hostnames.get(&r.ip).map(String::as_str),
                Some(r.hostname.as_str())
            );
        }
    }

    #[test]
    fn asrank_links_subset_of_graph_and_substantial() {
        let (world, s) = snapshots();
        let total = world.eco.graph.edge_count();
        assert!(
            s.asrank_links.len() * 10 >= total * 8,
            "collectors saw {} of {total} edges",
            s.asrank_links.len()
        );
        for &(a, b) in &s.asrank_links {
            assert!(world.eco.graph.relationship(a, b).is_some());
            assert!(a < b);
        }
    }

    #[test]
    fn visibility_approximation_close_to_honest_collection() {
        let world = World::generate(WorldConfig::tiny());
        let honest = {
            let asns = world.eco.graph.asns();
            let vantages = pick_vantages(&world, 20);
            let collected =
                igdb_net::collector::CollectedPaths::collect(&world.eco.graph, &vantages, &asns);
            igdb_net::collector::aggregate_paths(&collected.paths)
        };
        let approx = visible_edges_approximation(&world, &pick_vantages(&world, 20));
        let honest_set: std::collections::HashSet<_> = honest.iter().copied().collect();
        let approx_set: std::collections::HashSet<_> = approx.iter().copied().collect();
        // The approximation must cover everything honest collection saw…
        let missed = honest_set.difference(&approx_set).count();
        assert!(
            missed * 50 <= honest_set.len(),
            "approximation missed {missed}/{}",
            honest_set.len()
        );
        // …and not wildly overestimate.
        assert!(approx_set.len() <= honest_set.len() * 13 / 10 + 10);
    }

    #[test]
    fn ripe_traceroutes_have_hops() {
        let (_, s) = snapshots();
        assert!(s.ripe_traceroutes.len() >= 100);
        assert!(s
            .ripe_traceroutes
            .iter()
            .all(|t| !t.hops.is_empty() && t.src_anchor != t.dst_anchor));
    }

    /// One step on a pair of handles: `Share` makes handle `h` take the
    /// other's records; the rest write through `h`.
    #[derive(Clone, Debug)]
    enum Op {
        Share(usize),
        Push(usize, u32),
        Set(usize, usize, u32),
        BumpAll(usize),
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0usize..2).prop_map(Op::Share),
            (0usize..2, any::<u32>()).prop_map(|(h, v)| Op::Push(h, v)),
            (0usize..2, 0usize..6, any::<u32>()).prop_map(|(h, i, v)| Op::Set(h, i, v)),
            (0usize..2).prop_map(Op::BumpAll),
        ]
    }

    proptest::proptest! {
        /// Shared sources behave as copies: whatever is written through
        /// either handle, each reads as a plain `Vec` model does, and the
        /// two compare equal exactly when the models do.
        #[test]
        fn shared_sources_behave_as_copies(ops in proptest::collection::vec(arb_op(), 1..40)) {
            let mut real: [Source<u32>; 2] = [vec![1, 2, 3].into(), Vec::new().into()];
            let mut model: [Vec<u32>; 2] = [vec![1, 2, 3], Vec::new()];
            for op in &ops {
                match *op {
                    Op::Share(h) => {
                        real[h] = real[1 - h].clone();
                        model[h] = model[1 - h].clone();
                    }
                    Op::Push(h, v) => {
                        real[h].push(v);
                        model[h].push(v);
                    }
                    Op::Set(h, i, v) => {
                        if i < model[h].len() {
                            real[h][i] = v;
                            model[h][i] = v;
                        }
                    }
                    Op::BumpAll(h) => {
                        for r in &mut real[h] {
                            *r = r.wrapping_add(1);
                        }
                        for m in &mut model[h] {
                            *m = m.wrapping_add(1);
                        }
                    }
                }
                for h in 0..2 {
                    proptest::prop_assert_eq!(&*real[h], &model[h], "{:?}", op);
                }
                proptest::prop_assert_eq!(real[0] == real[1], model[0] == model[1], "{:?}", op);
            }
        }
    }

    #[test]
    fn snapshot_emission_deterministic() {
        let world = World::generate(WorldConfig::tiny());
        let a = emit_snapshots(&world, "2022-05-03", 100);
        let b = emit_snapshots(&world, "2022-05-03", 100);
        assert_eq!(a.atlas_nodes.len(), b.atlas_nodes.len());
        assert_eq!(a.pdb_netfac.len(), b.pdb_netfac.len());
        assert_eq!(a.asrank_links, b.asrank_links);
    }
}
