//! Ingest + standardize + load: snapshots in, the iGDB database out.
//!
//! This is the §2–§3 pipeline. Every source record is parsed, its location
//! standardized against the metro registry (spatial join where coordinates
//! exist, label resolution where only free text exists), and loaded into
//! the Figure 2 relations with `source`/`as_of_date` provenance. The
//! logical side is then bridged: traceroute addresses are mapped to ASes
//! (bdrmapIT role), to hostnames (Rapid7 rDNS), and to metros (Hoiho + IXP
//! prefixes), filling `ip_asn_dns`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use igdb_db::{Database, Table, Value};
use igdb_fault::{BuildError, BuildPolicy, BuildReport, SourceId};
use igdb_geo::{to_wkt, GeoPoint, Geometry, LineString, MultiLineString, SegmentIndex};
use igdb_net::{Asn, Ip4, Prefix};
use igdb_synth::sources::{RipeTraceroute, SnapshotSet};

use crate::bdrmap::BdrMap;
use crate::carry::{write_named, write_sites, NameCarry, RowCopier, SiteCarry, TraceCarry};
use crate::delta::{diff_snapshots, SnapshotDelta, Stage};
use crate::derived::Derived;
use crate::hoiho::HoihoEngine;
use crate::metros::MetroRegistry;
use crate::roads::{RoadGraph, Roadway};
use crate::schema;
use crate::validate::validate_against;

/// Where a metro assignment for an IP came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocationSource {
    /// Hoiho hostname geohint.
    Hoiho,
    /// The address sits on a known IXP peering LAN.
    IxpPrefix,
    /// Latency belief propagation (§4.4), added after the base build.
    BeliefProp,
}

impl LocationSource {
    pub fn tag(&self) -> &'static str {
        match self {
            LocationSource::Hoiho => "hoiho",
            LocationSource::IxpPrefix => "ixp_prefix",
            LocationSource::BeliefProp => "belief_prop",
        }
    }
}

/// Everything iGDB knows about one observed address.
#[derive(Clone, Debug, Default)]
pub struct IpInfo {
    pub asn: Option<Asn>,
    pub fqdn: Option<igdb_db::Str>,
    pub metro: Option<usize>,
    pub geo_source: Option<LocationSource>,
    /// The address sits inside a known anycast prefix: any single
    /// location is suspect, and inference must not assign one (§5).
    pub anycast: bool,
}

/// A registered probe (anchor).
#[derive(Clone, Copy, Debug)]
pub struct ProbeInfo {
    pub ip: Ip4,
    pub asn: Asn,
    pub metro: usize,
}

/// The built database plus the typed indices analyses use.
///
/// Every product of a stage — its tables, and the fields below that name
/// the stage — is computed once, in the stage's run, and held behind an
/// `Arc`. A delta apply that shares the stage ([`SnapshotDelta::shares`])
/// hands all of them to the successor by reference.
///
/// A shared world is read-only by type: every table write takes `&mut`, so
/// through `&Igdb` — or the `Arc<Epoch>` a server hands each request — the
/// tables can be read
///
/// ```
/// fn rows(w: &igdb_core::Igdb) -> usize {
///     w.db.row_count("asn_loc").unwrap()
/// }
/// ```
///
/// but not written:
///
/// ```compile_fail,E0596
/// fn f(w: &igdb_core::Igdb) {
///     w.db.insert("asn_loc", vec![]).unwrap();
/// }
/// ```
pub struct Igdb {
    pub db: Database,
    /// `Metros`' product: the registry and its spatial index.
    pub metros: Arc<MetroRegistry>,
    /// `Roads`' product. Handing it on keeps its memoized roadway payloads
    /// warm, so unchanged atlas links never re-route, and their
    /// `phys_conn` rows take the WKT cells already made; a road delta
    /// carries every payload the changed segments did not reach
    /// ([`RoadGraph::for_next_epoch`]).
    pub roads: Arc<RoadGraph>,
    /// `IpResolution`'s product: the trained border map. It keeps the
    /// per-address vote state a trace delta carries
    /// ([`BdrMap::for_next_epoch`]).
    pub bdrmap: Arc<BdrMap>,
    /// Made in `IpResolution`, from the metro registry, `geo_codes` and
    /// `hoiho_rules`: an apply that leaves all three unchanged hands it
    /// on, even when `IpResolution` re-runs.
    pub hoiho: Arc<HoihoEngine>,
    pub as_of_date: String,
    /// `IpResolution`'s product: per-address knowledge (mirrors
    /// `ip_asn_dns`).
    pub ip_info: Arc<HashMap<Ip4, IpInfo>>,
    /// `IpResolution`'s product: the PTR record of each address the
    /// build observed (every responding traceroute hop), and of no other
    /// address — the snapshot's records for addresses no traceroute
    /// reached are not kept. Where the snapshot holds several records for
    /// one address, the last one wins. Hostnames are the snapshot's own
    /// [`igdb_db::Str`]s, cloned — the same values the `ip_asn_dns` cells
    /// hold, so this map adds handles, not string copies.
    pub rdns: Arc<HashMap<Ip4, igdb_db::Str>>,
    /// `AsnLoc`'s product: declared footprint per ASN (from `asn_loc`);
    /// [`Igdb::add_inferred_location`] adds to it copy-on-write.
    pub asn_metros: Arc<HashMap<Asn, BTreeSet<usize>>>,
    /// `Physical`'s product: distinct inferred physical paths
    /// (from_metro, to_metro, km), normalized from < to, in `phys_conn`
    /// row order.
    pub phys_pairs: Arc<Vec<(usize, usize, f64)>>,
    /// `Probes`' product: the probe registry.
    pub probes: Arc<HashMap<u32, ProbeInfo>>,
    /// `Physical`'s product: each PeeringDB facility's metro.
    pub(crate) fac_metro: Arc<HashMap<u32, usize>>,
    /// `Physical`'s spatial join: the metro of each Atlas node and of each
    /// facility, per record (`None`: no `phys_nodes` row).
    pub(crate) atlas_metros: Arc<Vec<Option<usize>>>,
    pub(crate) fac_metros: Arc<Vec<Option<usize>>>,
    /// `Logical`'s product: the label resolver, network→ASN and IXP maps.
    logical: Arc<LogicalMaps>,
    /// `Physical`'s product: everything built lazily from `phys_conn` and
    /// the metro catalogue (routing graph, path geometries, segment index).
    derived: Arc<Derived>,
    /// The validated record set this world was built from — the baseline
    /// [`crate::delta::diff_snapshots`] diffs a replacement against. Its
    /// sources are shared with the caller's input and with every epoch
    /// that did not change them.
    snapshots: SnapshotSet,
    /// Per stage, the deterministic counters its run ticked on the build
    /// thread. A delta apply replays a shared stage's entry instead of
    /// re-running the stage, keeping the counter stream byte-identical to
    /// a from-scratch rebuild.
    stage_ledger: Vec<LedgerEntry>,
    /// [`Igdb::add_inferred_location`] added a row the stage driver did not
    /// write, so [`Igdb::apply_delta`] may not share this world's tables.
    rows_added_since_build: bool,
}

/// Releases the cell-arena growth slack of the tables a stage that ran
/// just wrote, so their doubling headroom is returned before later stages
/// stack their own working set on top — the build's peak RSS then tracks
/// real rows, not growth history. A shared stage's tables, and a table a
/// re-run stage carried whole, are already tight (and writing to one would
/// copy it out of the prior world).
fn compact_tables<'a>(db: &mut Database, names: impl IntoIterator<Item = &'a str>) {
    for name in names {
        db.with_table_mut(name, |t| t.shrink_to_fit())
            .expect("table exists");
    }
    // Also hand the stage's freed scratch back to the OS, so the next
    // stage's working set doesn't stack on retained-but-dead pages.
    igdb_obs::trim_heap();
}

/// What one stage ticked: `(name, label, sum)` sorted by key, zero ticks
/// included. Static names replay without allocating.
type LedgerEntry = Arc<Vec<(igdb_obs::Name, igdb_obs::Name, u64)>>;

/// A side product of an earlier stage.
fn made<T>(product: &Option<Arc<T>>) -> &T {
    product.as_deref().expect("stages run in Stage::ALL order")
}

/// Runs `rows` on the build's table `name`: a stage loop takes its table
/// once, not once per row.
fn fill(db: &mut Database, name: &str, rows: impl FnOnce(&mut Table)) {
    db.with_table_mut(name, rows).expect("table exists");
}

/// How far (km) an IX member's nearest declared facility must be for the
/// membership to count as remote peering (§3.3).
const REMOTE_PEERING_KM: f64 = 1000.0;

/// Remote peering: no declared facility within [`REMOTE_PEERING_KM`],
/// given the distances to all of them. It settles at the first near one;
/// a NaN distance is never near, and no distances at all is remote —
/// exactly `nearest > REMOTE_PEERING_KM` with `nearest` the
/// `fold(∞, f64::min)` of the distances, which skips a NaN.
fn remote_peering(distances_km: impl IntoIterator<Item = f64>) -> bool {
    !distances_km.into_iter().any(|d| d <= REMOTE_PEERING_KM)
}

/// Label resolver for sources that publish only text locations.
#[derive(Default)]
struct Labels {
    name_to_metro: HashMap<String, usize>,
    code_to_metro: HashMap<String, usize>,
}

impl Labels {
    fn new(metros: &MetroRegistry, geo_codes: &[(String, usize)]) -> Self {
        Labels {
            name_to_metro: metros
                .metros()
                .iter()
                .map(|m| (m.name.to_ascii_lowercase(), m.id))
                .collect(),
            code_to_metro: geo_codes.iter().cloned().collect(),
        }
    }

    fn resolve(&self, label: &str) -> Option<usize> {
        let lower = label.to_ascii_lowercase();
        if let Some(&m) = self.name_to_metro.get(&lower) {
            return Some(m);
        }
        if let Some(head) = lower.split(',').next() {
            if let Some(&m) = self.name_to_metro.get(head.trim()) {
                return Some(m);
            }
        }
        self.code_to_metro.get(&lower).copied()
    }
}

/// What `Logical` hands later stages beyond its tables.
#[derive(Default)]
struct LogicalMaps {
    /// Resolves the text locations of `pch_ixps` (and `pdb_ix`). Its
    /// inputs are the metro registry and `geo_codes` only, so a re-run
    /// `Logical` takes the prior's when both are unchanged.
    labels: Arc<Labels>,
    /// From `pdb_networks` only.
    net_asn: Arc<HashMap<u32, Asn>>,
    /// From `pdb_ix` and the label resolver, with `ixp_prefixes`.
    ixps: Arc<IxpMaps>,
}

/// Where each PeeringDB IXP is, by its label.
#[derive(Default)]
struct IxpMaps {
    /// IXP id → metro, for `AsnLoc`.
    metro: HashMap<u32, usize>,
    /// Peering LAN → metro, for IP resolution, in `pdb_ix` order.
    prefix_metro: Vec<(Prefix, usize)>,
}

/// One build in flight: the database being filled plus the side products
/// stages hand to later stages, or to the finished [`Igdb`], beyond what
/// their tables carry. Each stage contributes a `run_*` body (it is dirty,
/// or there is no prior) that computes its products, and, where it has
/// any, an arm of [`Pipeline::share`] that takes the prior's by reference.
/// A product whose own inputs are narrower than its stage's is taken from
/// the prior by [`Pipeline::carry`] even when the stage re-runs.
#[derive(Default)]
struct Pipeline {
    date: String,
    db: Database,
    metros: Option<Arc<MetroRegistry>>,
    roads: Option<Arc<RoadGraph>>,
    fac_metro: Arc<HashMap<u32, usize>>,
    atlas_metros: Arc<Vec<Option<usize>>>,
    fac_metros: Arc<Vec<Option<usize>>>,
    phys_pairs: Arc<Vec<(usize, usize, f64)>>,
    /// Empty until first use when `Physical` ran.
    derived: Arc<Derived>,
    logical: Arc<LogicalMaps>,
    asn_metros: Arc<HashMap<Asn, BTreeSet<usize>>>,
    probes: Arc<HashMap<u32, ProbeInfo>>,
    bdrmap: Option<Arc<BdrMap>>,
    hoiho: Option<Arc<HoihoEngine>>,
    rdns: Arc<HashMap<Ip4, igdb_db::Str>>,
    ip_info: Arc<HashMap<Ip4, IpInfo>>,
    /// The tables a re-run stage took from the prior whole
    /// ([`Pipeline::carry_table`]), and so does not write.
    carried_tables: Vec<&'static str>,
    /// The prior's label resolver, when [`Pipeline::carry`] found its
    /// inputs unchanged; `run_logical` takes it instead of building one.
    carried_labels: Option<Arc<Labels>>,
    /// The prior's network→ASN map and IXP maps, likewise.
    carried_net_asn: Option<Arc<HashMap<u32, Asn>>>,
    carried_ixps: Option<Arc<IxpMaps>>,
    /// The prior's spatial join, when `Physical` re-runs over the prior's
    /// metro registry.
    carried_sites: Option<SiteCarry>,
    /// The prior's name and AS-link rows, when `Logical` re-runs over the
    /// prior's date.
    carried_names: Option<NameCarry>,
    /// The prior's road graph, when `Roads` re-runs over the prior's metro
    /// registry: the new graph starts with the memoized roadway payloads
    /// the road change left exact ([`RoadGraph::for_next_epoch`]).
    carried_roads: Option<Arc<RoadGraph>>,
    /// The prior's traceroute products, when the trace list is the one
    /// input of `Traceroutes` and `IpResolution` that changed.
    carried_traces: Option<TraceCarry>,
}

/// A trace's responding addresses, in hop order.
fn hop_ips(t: &RipeTraceroute) -> impl Iterator<Item = Ip4> + '_ {
    t.hops.iter().filter_map(|h| h.ip)
}

impl Pipeline {
    fn new(date: &str) -> Self {
        let mut db = Database::new();
        for (name, sch) in schema::all_relations() {
            db.create_table(name, sch).expect("fresh database");
        }
        Pipeline {
            date: date.to_string(),
            db,
            ..Default::default()
        }
    }

    /// Re-runs `stage` on the new sources — exactly the code a full build
    /// runs, so on identical inputs it reproduces identical rows and
    /// counters.
    fn run(&mut self, stage: Stage, snaps: &SnapshotSet) {
        match stage {
            Stage::Metros => self.run_metros(snaps),
            Stage::Roads => {
                let n_metros = made(&self.metros).len();
                let roads = match self.carried_roads.take() {
                    Some(prior) => RoadGraph::for_next_epoch(&prior, n_metros, &snaps.roads),
                    None => RoadGraph::build(n_metros, &snaps.roads),
                };
                self.roads = Some(Arc::new(roads));
            }
            Stage::CityTables => self.run_city_tables(),
            Stage::Physical => self.run_physical(snaps),
            Stage::Telegeo => self.run_telegeo(snaps),
            Stage::Logical => self.run_logical(snaps),
            Stage::AsnLoc => self.run_asn_loc(snaps),
            Stage::Probes => self.run_probes(snaps),
            Stage::Traceroutes => self.run_traceroutes(snaps),
            Stage::IpResolution => self.run_ip_resolution(snaps),
        }
    }

    /// Takes from `world` what `stage` made beyond its tables (the stage
    /// driver has shared those and replayed the ledger), by reference.
    fn share(&mut self, stage: Stage, world: &Igdb) {
        match stage {
            Stage::Metros => self.metros = Some(Arc::clone(&world.metros)),
            Stage::Roads => self.roads = Some(Arc::clone(&world.roads)),
            // `Derived` reads only `phys_conn` and the metro catalogue, and
            // a shared `Physical` means both are the prior's.
            Stage::Physical => {
                self.fac_metro = Arc::clone(&world.fac_metro);
                self.atlas_metros = Arc::clone(&world.atlas_metros);
                self.fac_metros = Arc::clone(&world.fac_metros);
                self.phys_pairs = Arc::clone(&world.phys_pairs);
                self.derived = Arc::clone(&world.derived);
            }
            Stage::Logical => self.logical = Arc::clone(&world.logical),
            Stage::AsnLoc => self.asn_metros = Arc::clone(&world.asn_metros),
            Stage::Probes => self.probes = Arc::clone(&world.probes),
            Stage::IpResolution => {
                self.bdrmap = Some(Arc::clone(&world.bdrmap));
                self.hoiho = Some(Arc::clone(&world.hoiho));
                self.rdns = Arc::clone(&world.rdns);
                self.ip_info = Arc::clone(&world.ip_info);
            }
            Stage::CityTables | Stage::Telegeo | Stage::Traceroutes => {}
        }
    }

    /// Takes from `world` each product whose own inputs `delta` left
    /// unchanged, for a re-run stage to use instead of making it again.
    /// None of them emits a counter, so taking one changes no ledger. Over
    /// the prior's metro registry (and so the prior's date):
    ///
    /// - a re-run `Roads` takes the prior's road graph, to carry the
    ///   roadway payloads its memo settled (`run_physical` replays the
    ///   `spath.queries` tick of every payload it finds settled);
    /// - a re-run `Physical` takes each Atlas node's and facility's metro
    ///   and row from the prior's spatial join ([`SiteCarry`]), and
    ///   `phys_nodes` whole when neither site list changed;
    /// - a re-run `Logical` takes the `asn_name`, `asn_org` and `asn_conn`
    ///   rows of each record the prior had ([`NameCarry`]), each table
    ///   whole when none of its sources changed, and the network→ASN map
    ///   when `pdb_networks` did not;
    /// - when the trace list is the one input of `IpResolution` that
    ///   changed (so also the one of `Traceroutes`, besides the date), both
    ///   stages take the prior's traceroute products ([`TraceCarry`]);
    /// - with `geo_codes` unchanged too, the label resolver; with `pdb_ix`
    ///   also unchanged, the IXP maps and `ixp_prefixes` whole; and with
    ///   `hoiho_rules` also unchanged, the Hoiho engine.
    fn carry(&mut self, world: &Igdb, delta: &SnapshotDelta, snaps: &SnapshotSet) {
        if !delta.shares(Stage::Metros) {
            return;
        }
        let unchanged = |sources: &[&str]| !sources.iter().any(|s| delta.changed(s));
        if !delta.shares(Stage::Roads) {
            self.carried_roads = Some(Arc::clone(&world.roads));
        }
        if !delta.shares(Stage::Physical) {
            if unchanged(&["atlas_nodes", "pdb_facilities"]) {
                self.carry_table(world, "phys_nodes");
            }
            self.carried_sites = Some(SiteCarry::new(world, delta, snaps));
        }
        let relogical = !delta.shares(Stage::Logical);
        if relogical {
            let names = ["asrank_entries", "pdb_networks"];
            for (table, carried) in [
                ("asn_name", unchanged(&names)),
                ("asn_org", unchanged(&names) && unchanged(&["pch_ixps"])),
                ("asn_conn", unchanged(&["asrank_links"])),
            ] {
                if carried {
                    self.carry_table(world, table);
                }
            }
            self.carried_names = Some(NameCarry::new(world, delta, snaps));
            if unchanged(&["pdb_networks"]) {
                self.carried_net_asn = Some(Arc::clone(&world.logical.net_asn));
            }
        }
        if delta.changes_only(Stage::IpResolution, "ripe_traceroutes") {
            self.carried_traces = Some(TraceCarry::new(world, snaps));
        }
        if delta.changed("geo_codes") {
            return;
        }
        self.carried_labels = Some(Arc::clone(&world.logical.labels));
        if relogical && unchanged(&["pdb_ix"]) {
            self.carry_table(world, "ixp_prefixes");
            self.carried_ixps = Some(Arc::clone(&world.logical.ixps));
        }
        if !delta.changed("hoiho_rules") {
            self.hoiho = Some(Arc::clone(&world.hoiho));
        }
    }

    /// Takes the prior's table `name` whole into the re-run stage that
    /// writes it: its rows and index are the prior's, and the stage leaves
    /// it as it is.
    fn carry_table(&mut self, world: &Igdb, name: &'static str) {
        self.db
            .share_table_from(&world.db, name)
            .expect("table exists");
        self.carried_tables.push(name);
    }

    fn run_metros(&mut self, snaps: &SnapshotSet) {
        let metros = MetroRegistry::build(&snaps.natural_earth);
        // Thiessen cells materialize lazily; forcing them here charges
        // their cost to this stage's span rather than to whichever stage
        // asks first, and wastes nothing: `city_polygons` needs every
        // cell anyway.
        metros.polygons();
        self.metros = Some(Arc::new(metros));
    }

    /// `city_points` / `city_polygons`. Each metro's name, state and
    /// country cells are made once and serve both tables.
    fn run_city_tables(&mut self) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let date = Value::text(&self.date);
        let names: Vec<[Value; 3]> = metros
            .metros()
            .iter()
            .map(|m| {
                [
                    Value::text(&m.name),
                    Value::text(&m.state),
                    metros.country_value(m.id),
                ]
            })
            .collect();
        fill(db, "city_points", |t| {
            t.reserve(names.len());
            let source = Value::text("natural_earth");
            for (m, [name, state, country]) in metros.metros().iter().zip(&names) {
                t.insert([
                    Value::from(m.id),
                    name.clone(),
                    state.clone(),
                    country.clone(),
                    Value::Float(m.loc.lat),
                    Value::Float(m.loc.lon),
                    Value::from(m.population as i64),
                    source.clone(),
                    date.clone(),
                ])
                .expect("city_points row");
            }
        });
        fill(db, "city_polygons", |t| {
            t.reserve(names.len());
            let source = Value::text("igdb_thiessen");
            let rows = metros.metros().iter().zip(metros.polygons()).zip(names);
            for ((m, poly), [name, state, country]) in rows {
                let wkt = if poly.exterior.is_empty() {
                    "POLYGON EMPTY".to_string()
                } else {
                    to_wkt(&Geometry::Polygon(poly.clone()))
                };
                t.insert([
                    Value::from(m.id),
                    name,
                    state,
                    country,
                    Value::text(wkt),
                    source.clone(),
                    date.clone(),
                ])
                .expect("city_polygons row");
            }
        });
    }

    /// `phys_nodes` / `phys_conn`: Internet Atlas nodes and PeeringDB
    /// facilities standardized by spatial join, Atlas edges routed along
    /// rights-of-way. Makes the facility→metro map `AsnLoc` needs and the
    /// path pairs.
    fn run_physical(&mut self, snaps: &SnapshotSet) {
        let db = &mut self.db;
        let (metros, roads) = (made(&self.metros), made(&self.roads));
        let date = Value::text(&self.date);
        // Each source is joined as a batch and then inserted: the site index
        // stays cache-resident across the batch (joining row by row between
        // inserts read ≈ 2 ms slower on the benchmark world's 18). A site
        // the prior joined takes its metro and row ([`SiteCarry`]).
        let join_span = igdb_obs::span("physical.spatial_join");
        let sites = self.carried_sites.take();
        let join = |loc: &GeoPoint| metros.metro_of(loc);
        let atlas_metros = match &sites {
            Some(c) => c.atlas.metros(&snaps.atlas_nodes, |n| join(&n.loc)),
            None => Arc::new(snaps.atlas_nodes.iter().map(|n| join(&n.loc)).collect()),
        };
        let fac_metros = match &sites {
            Some(c) => c.facilities.metros(&snaps.pdb_facilities, |f| join(&f.loc)),
            None => Arc::new(snaps.pdb_facilities.iter().map(|f| join(&f.loc)).collect()),
        };
        self.fac_metro = match &sites {
            Some(c) if c.facilities.unchanged => Arc::clone(&c.fac_metro),
            _ => {
                let fac_metro = snaps.pdb_facilities.iter().zip(fac_metros.iter());
                Arc::new(
                    fac_metro
                        .filter_map(|(f, m)| Some((f.fac_id, (*m)?)))
                        .collect(),
                )
            }
        };
        if !self.carried_tables.contains(&"phys_nodes") {
            let site_metros = (&atlas_metros[..], &fac_metros[..]);
            fill(db, "phys_nodes", |t| {
                write_sites(t, snaps, metros, site_metros, sites.as_ref(), &date)
            });
        }
        drop(join_span);
        let atlas_node_metro: HashMap<&str, usize> = snaps
            .atlas_nodes
            .iter()
            .zip(atlas_metros.iter())
            .filter_map(|(n, m)| Some((n.node_name.as_str(), (*m)?)))
            .collect();

        // Atlas edges → shortest right-of-way paths, deduped per metro pair
        // (first-seen order defines the output). Roadway routing — the
        // expensive part — visits pairs grouped by source metro, so the
        // resumable Dijkstra amortizes to roughly one full search per source;
        // rows are then inserted in first-seen order.
        let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut link_work: Vec<(usize, usize, igdb_synth::sources::LinkType)> = Vec::new();
        for l in snaps.atlas_links.iter() {
            let (Some(&ma), Some(&mb)) = (
                atlas_node_metro.get(l.from_node.as_str()),
                atlas_node_metro.get(l.to_node.as_str()),
            ) else {
                continue;
            };
            if ma == mb {
                continue;
            }
            let key = (ma.min(mb), ma.max(mb));
            if !seen_pairs.insert(key) {
                continue;
            }
            link_work.push((key.0, key.1, l.link_type));
        }
        let mut roadway_order: Vec<usize> = (0..link_work.len())
            .filter(|&i| matches!(link_work[i].2, igdb_synth::sources::LinkType::Roadway))
            .collect();
        roadway_order.sort_by_key(|&i| link_work[i].0);
        // A delta apply reuses the prior road graph with its memoized
        // roadway payloads; every pair already settled there skips its
        // engine query, so the `spath.queries` ticks a cold rebuild would
        // emit are replayed after routing to keep the deterministic counter
        // stream byte-identical. A fresh build's memo is cold and replays
        // nothing.
        let routing_span = igdb_obs::span("physical.routing");
        let mut routed: Vec<Option<Roadway>> = vec![None; link_work.len()];
        let mut ws = crate::spath::SpWorkspace::new();
        let mut warm_hits = 0;
        for &i in &roadway_order {
            let (a, b, _) = link_work[i];
            let (roadway, ran) = roads.roadway(&mut ws, a, b);
            routed[i] = roadway;
            warm_hits += u64::from(!ran);
        }
        drop(routing_span);
        if warm_hits > 0 {
            igdb_obs::counter("spath.queries", "", warm_hits);
        }
        let mut phys_pairs = Vec::new();
        fill(db, "phys_conn", |t| {
            let source = Value::text("internet_atlas+row");
            for (i, &(ka, kb, link_type)) in link_work.iter().enumerate() {
                let key = (ka, kb);
                // Right-of-way class decides the path model (paper §5):
                // roadway links follow the transportation network;
                // microwave links ARE straight lines between the nodes.
                let (km, wkt, row_type) = match link_type {
                    igdb_synth::sources::LinkType::Roadway => {
                        let Some(Roadway { km, wkt, .. }) = routed[i].take() else {
                            // no terrestrial right-of-way (e.g. across an ocean)
                            igdb_obs::counter("build.route_misses", "", 1);
                            continue;
                        };
                        (km, wkt, "roadway")
                    }
                    igdb_synth::sources::LinkType::Microwave => {
                        let (a, b) = (metros.metro(key.0).loc, metros.metro(key.1).loc);
                        let arc = igdb_geo::great_circle_arc(&a, &b, 8);
                        let km = igdb_geo::polyline_length_km(&arc);
                        let wkt = to_wkt(&Geometry::LineString(LineString::new(arc)));
                        (km, Value::text(wkt), "microwave")
                    }
                };
                igdb_obs::counter("build.phys_conn", row_type, 1);
                phys_pairs.push((key.0, key.1, km));
                t.insert([
                    Value::from(key.0),
                    metros.label_value(key.0),
                    metros.country_value(key.0),
                    Value::from(key.1),
                    metros.label_value(key.1),
                    metros.country_value(key.1),
                    Value::Float(km),
                    wkt,
                    Value::text(row_type),
                    source.clone(),
                    date.clone(),
                ])
                .expect("phys_conn row");
            }
        });
        self.atlas_metros = atlas_metros;
        self.fac_metros = fac_metros;
        self.phys_pairs = Arc::new(phys_pairs);
    }

    /// `land_points` / `sub_cables` from Telegeography.
    fn run_telegeo(&mut self, snaps: &SnapshotSet) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let date = Value::text(&self.date);
        let source = Value::text("telegeography");
        fill(db, "land_points", |t| {
            for c in snaps.telegeo.iter() {
                for (lname, _, loc) in &c.landings {
                    let Some(mid) = metros.metro_of(loc) else {
                        continue;
                    };
                    t.insert([
                        Value::from(c.cable_id),
                        Value::text(lname),
                        Value::from(mid),
                        metros.label_value(mid),
                        metros.country_value(mid),
                        Value::Float(loc.lat),
                        Value::Float(loc.lon),
                        source.clone(),
                        date.clone(),
                    ])
                    .expect("land_points row");
                }
            }
        });
        fill(db, "sub_cables", |t| {
            for c in snaps.telegeo.iter() {
                let mls =
                    MultiLineString::new(c.segments.iter().cloned().map(LineString::new).collect());
                t.insert([
                    Value::from(c.cable_id),
                    Value::text(&c.name),
                    Value::text(c.owners.join("; ")),
                    Value::Float(mls.length_km()),
                    Value::text(to_wkt(&Geometry::MultiLineString(mls))),
                    source.clone(),
                    date.clone(),
                ])
                .expect("sub_cables row");
            }
        });
    }

    /// Logical names `asn_name` / `asn_org` (inconsistencies kept),
    /// `asn_conn`, and the IXP prefixes. Makes the label resolver, the
    /// network→ASN map and the IXP maps. A record the prior had takes its
    /// rows ([`NameCarry`]).
    fn run_logical(&mut self, snaps: &SnapshotSet) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let date = Value::text(&self.date);
        let peeringdb = Value::text("peeringdb");
        let labels = (self.carried_labels.take())
            .unwrap_or_else(|| Arc::new(Labels::new(metros, &snaps.geo_codes)));
        let net_asn = self.carried_net_asn.take().unwrap_or_else(|| {
            Arc::new(
                snaps
                    .pdb_networks
                    .iter()
                    .map(|n| (n.net_id, n.asn))
                    .collect(),
            )
        });
        let carry = self.carried_names.take();
        let carried = &self.carried_tables;
        let named = |t: &mut Table, copier: &mut RowCopier, org: bool| {
            write_named(t, copier, snaps, carry.as_ref(), org, &date)
        };
        if !carried.contains(&"asn_name") {
            fill(db, "asn_name", |t| {
                let mut copier = RowCopier::new(carry.as_ref().map(|c| &*c.names));
                named(t, &mut copier, false);
                copier.flush(t);
            });
        }
        if !carried.contains(&"asn_org") {
            fill(db, "asn_org", |t| {
                let mut copier = RowCopier::new(carry.as_ref().map(|c| &*c.orgs));
                named(t, &mut copier, true);
                if let Some(rows) = carry.as_ref().and_then(|c| c.pch.clone()) {
                    copier.copy(t, rows);
                } else {
                    copier.flush(t);
                    // PCH's spellings, deduplicated per (ASN, org),
                    // borrowed from the snapshot.
                    let mut pch_orgs: BTreeSet<(u32, &str)> = BTreeSet::new();
                    for x in snaps.pch_ixps.iter() {
                        for (asn, org) in x.member_asns.iter().zip(&x.member_orgs) {
                            pch_orgs.insert((asn.0, org.as_str()));
                        }
                    }
                    let pch = Value::text("pch");
                    for (asn, org) in pch_orgs {
                        t.insert([
                            Value::from(asn),
                            Value::text(org),
                            pch.clone(),
                            date.clone(),
                        ])
                        .expect("asn_org row");
                    }
                }
                copier.flush(t);
            });
        }
        if !carried.contains(&"asn_conn") {
            fill(db, "asn_conn", |t| {
                t.reserve(snaps.asrank_links.len());
                let mut copier = RowCopier::new(carry.as_ref().map(|c| &*c.links_rows));
                let links = carry.as_ref().map(|c| &c.links);
                for (j, &(a, b)) in snaps.asrank_links.iter().enumerate() {
                    if copier.carried(t, links, j) {
                        continue;
                    }
                    let asrank = Value::text("asrank");
                    t.insert([Value::from(a.0), Value::from(b.0), asrank, date.clone()])
                        .expect("asn_conn row");
                }
                copier.flush(t);
            });
        }
        let ixps = self.carried_ixps.take().unwrap_or_else(|| {
            let mut ixps = IxpMaps::default();
            fill(db, "ixp_prefixes", |t| {
                for ix in snaps.pdb_ix.iter() {
                    let Some(mid) = labels.resolve(&ix.city_label) else {
                        continue;
                    };
                    ixps.metro.insert(ix.ix_id, mid);
                    ixps.prefix_metro.push((ix.prefix, mid));
                    t.insert([
                        Value::text(&ix.name),
                        Value::text(ix.prefix.to_string()),
                        Value::from(mid),
                        metros.label_value(mid),
                        peeringdb.clone(),
                        date.clone(),
                    ])
                    .expect("ixp_prefixes row");
                }
            });
            Arc::new(ixps)
        });
        self.logical = Arc::new(LogicalMaps {
            labels,
            net_asn,
            ixps,
        });
    }

    /// `asn_loc`: facilities, IXP memberships, PCH echoes —
    /// (asn, metro, source) → remote flag, deduped.
    fn run_asn_loc(&mut self, snaps: &SnapshotSet) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let logical = &self.logical;
        let mut netfac_metros: HashMap<Asn, BTreeSet<usize>> = HashMap::new();
        for nf in snaps.pdb_netfac.iter() {
            let (Some(&asn), Some(&mid)) = (
                logical.net_asn.get(&nf.net_id),
                self.fac_metro.get(&nf.fac_id),
            ) else {
                continue;
            };
            netfac_metros.entry(asn).or_default().insert(mid);
        }
        let mut asn_loc_rows: BTreeMap<(u32, usize, &'static str), bool> = BTreeMap::new();
        for (&asn, mids) in &netfac_metros {
            for &mid in mids {
                asn_loc_rows.insert((asn.0, mid, "peeringdb_fac"), false);
            }
        }
        // Remote-peering inference (§3.3): an IX member with no declared
        // facility in the metro, whose nearest declared facility is far.
        // The answer depends on (asn, metro) only, and PeeringDB and PCH
        // repeat most pairs, so each is computed once.
        let mut remote_memo: HashMap<(Asn, usize), bool> = HashMap::new();
        let mut is_remote = |asn: Asn, mid: usize| -> bool {
            *remote_memo
                .entry((asn, mid))
                .or_insert_with(|| match netfac_metros.get(&asn) {
                    Some(mids) if mids.contains(&mid) => false,
                    Some(mids) => {
                        let here = metros.metro(mid).loc;
                        remote_peering(
                            mids.iter()
                                .map(|&m| igdb_geo::haversine_km(&here, &metros.metro(m).loc)),
                        )
                    }
                    None => false, // nothing declared anywhere: cannot say
                })
        };
        for nix in snaps.pdb_netix.iter() {
            let (Some(&asn), Some(&mid)) = (
                logical.net_asn.get(&nix.net_id),
                logical.ixps.metro.get(&nix.ix_id),
            ) else {
                continue;
            };
            let remote = is_remote(asn, mid);
            asn_loc_rows
                .entry((asn.0, mid, "peeringdb_ix"))
                .and_modify(|r| *r = *r && remote)
                .or_insert(remote);
        }
        for x in snaps.pch_ixps.iter() {
            let Some(mid) = logical.labels.resolve(&x.city_label) else {
                continue;
            };
            for &asn in &x.member_asns {
                let remote = is_remote(asn, mid);
                asn_loc_rows
                    .entry((asn.0, mid, "pch"))
                    .and_modify(|r| *r = *r && remote)
                    .or_insert(remote);
            }
        }
        let date = Value::text(&self.date);
        let sources = ["peeringdb_fac", "peeringdb_ix", "pch"].map(|s| (s, Value::text(s)));
        fill(db, "asn_loc", |t| {
            t.reserve(asn_loc_rows.len());
            for (&(asn, mid, source), &remote) in &asn_loc_rows {
                let (_, source) = sources
                    .iter()
                    .find(|(s, _)| *s == source)
                    .expect("an asn_loc source tag");
                t.insert([
                    Value::from(asn),
                    Value::from(mid),
                    metros.label_value(mid),
                    metros.country_value(mid),
                    Value::Bool(remote),
                    Value::Bool(false),
                    source.clone(),
                    date.clone(),
                ])
                .expect("asn_loc row");
            }
        });
        let mut asn_metros: HashMap<Asn, BTreeSet<usize>> = HashMap::new();
        for (asn, mid, _) in asn_loc_rows.keys() {
            asn_metros.entry(Asn(*asn)).or_default().insert(*mid);
        }
        self.asn_metros = Arc::new(asn_metros);
    }

    /// `probes`.
    fn run_probes(&mut self, snaps: &SnapshotSet) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let date = Value::text(&self.date);
        let mut probes = HashMap::new();
        fill(db, "probes", |t| {
            let source = Value::text("ripe_atlas");
            for a in snaps.ripe_anchors.iter() {
                let Some(mid) = metros.metro_of(&a.loc) else {
                    continue;
                };
                probes.insert(
                    a.id,
                    ProbeInfo {
                        ip: a.ip,
                        asn: a.asn,
                        metro: mid,
                    },
                );
                t.insert([
                    Value::from(a.id),
                    Value::text(a.ip.to_string()),
                    Value::from(a.asn.0),
                    Value::from(mid),
                    metros.label_value(mid),
                    Value::Float(a.loc.lat),
                    Value::Float(a.loc.lon),
                    source.clone(),
                    date.clone(),
                ])
                .expect("probes row");
            }
        });
        self.probes = Arc::new(probes);
    }

    /// `traceroutes`: one row per hop, in trace order. A trace matched to
    /// a prior one ([`TraceCarry`]) takes the prior's rows for it — the
    /// same cells, as the date and the hops are the same — one copy per run
    /// of traces that are consecutive in both lists. Every other trace's
    /// rows are built; a mesh revisits the same few thousand routers, so
    /// each address's text cell is made once.
    fn run_traceroutes(&mut self, snaps: &SnapshotSet) {
        let date = Value::text(&self.date);
        let carry = self.carried_traces.as_ref();
        let traces = carry.map(|c| &c.traces);
        fill(&mut self.db, "traceroutes", |t| {
            t.reserve(snaps.ripe_traceroutes.iter().map(|tr| tr.hops.len()).sum());
            let source = Value::text("ripe_atlas");
            let mut ip_text: HashMap<Ip4, Value> = HashMap::new();
            let mut copier = RowCopier::new(carry.map(|c| &*c.rows));
            for (j, tr) in snaps.ripe_traceroutes.iter().enumerate() {
                if copier.carried(t, traces, j) {
                    continue;
                }
                for h in &tr.hops {
                    let ip = match h.ip {
                        Some(ip) => ip_text
                            .entry(ip)
                            .or_insert_with(|| Value::text(ip.to_string()))
                            .clone(),
                        None => Value::Null,
                    };
                    t.insert([
                        Value::from(tr.src_anchor),
                        Value::from(tr.dst_anchor),
                        Value::from(h.ttl as i64),
                        ip,
                        Value::Float(h.rtt_ms),
                        source.clone(),
                        date.clone(),
                    ])
                    .expect("traceroutes row");
                }
            }
            copier.flush(t);
        });
    }

    /// `ip_asn_dns`: IP → AS (bdrmap), → FQDN (rDNS), → metro (Hoiho /
    /// IXP prefix). With a [`TraceCarry`], the border map is the prior's
    /// with the votes of the traces that left taken back and those of the
    /// traces that came added, and an address the prior observed keeps
    /// everything but its AS: its PTR record, anycast flag and location
    /// are read off sources the carry requires unchanged. Without one, the
    /// same update runs from an empty map and every address is new.
    fn run_ip_resolution(&mut self, snaps: &SnapshotSet) {
        let (db, metros) = (&mut self.db, made(&self.metros));
        let carry = self.carried_traces.take();
        let ixp_prefix_metro = &self.logical.ixps.prefix_metro;
        let bdr_span = igdb_obs::span("ip_resolution.bdrmap");
        let empty;
        let (prior_map, prior_traces, removed): (&BdrMap, &[RipeTraceroute], &[usize]) =
            match &carry {
                Some(c) => (&c.bdrmap, &c.prior, c.traces.removed()),
                None => {
                    let rib: Vec<(Prefix, Asn)> = snaps
                        .bgp_prefixes
                        .iter()
                        .map(|r| (r.prefix, r.origin))
                        .collect();
                    let ixp_lans: Vec<Prefix> = ixp_prefix_metro.iter().map(|&(p, _)| p).collect();
                    empty = BdrMap::new(&rib, &ixp_lans);
                    (&empty, &[], &[])
                }
            };
        let added = snaps
            .ripe_traceroutes
            .iter()
            .enumerate()
            .filter(|&(j, _)| carry.as_ref().and_then(|c| c.traces.prior_of(j)).is_none())
            .map(|(_, t)| hop_ips(t));
        let bdrmap = BdrMap::for_next_epoch(
            prior_map,
            removed.iter().map(|&i| hop_ips(&prior_traces[i])),
            added,
        );
        drop(bdr_span);

        let observed = bdrmap.observed();
        let no_prior = HashMap::new();
        let prior_info = carry.as_ref().map_or(&no_prior, |c| &*c.ip_info);
        // PTR records of the addresses the prior did not observe only: a
        // carried address keeps its own, and nothing reads the rest. A
        // later record for an address replaces an earlier one.
        let mut ptr: HashMap<Ip4, Option<igdb_db::Str>> = observed
            .iter()
            .filter(|ip| !prior_info.contains_key(ip))
            .map(|&ip| (ip, None))
            .collect();
        if !ptr.is_empty() {
            for r in snaps.rdns.iter() {
                if let Some(slot) = ptr.get_mut(&r.ip) {
                    *slot = Some(r.hostname.clone());
                }
            }
        }
        let hoiho_span = igdb_obs::span("ip_resolution.hoiho");
        let hoiho = self.hoiho.take().unwrap_or_else(|| {
            let (hoiho, skipped) = HoihoEngine::build(&snaps.hoiho_rules, &snaps.geo_codes, metros);
            debug_assert_eq!(skipped, 0, "validate quarantines uncompilable rules");
            Arc::new(hoiho)
        });
        drop(hoiho_span);

        // Per-address resolution (bdrmap, and for a new address rDNS,
        // anycast scan, IXP prefix scan, Hoiho geolocation) runs under its
        // own span, apart from the row inserts, in sorted-address order.
        // The prior's rows are in its observed order: an address it
        // resolved to the same AS keeps its row.
        let prior_observed = carry.as_ref().map(|c| c.bdrmap.observed());
        let prior_row = |ip: Ip4| prior_observed.as_ref()?.binary_search(&ip).ok();
        igdb_obs::counter("build.observed_ips", "", observed.len() as u64);
        let resolve_span = igdb_obs::span("ip_resolution.resolve");
        let resolved = observed.iter().map(|&ip| {
            let asn = bdrmap.resolve(ip).asn();
            if let Some(prior) = prior_info.get(&ip) {
                let row = prior_row(ip).filter(|_| prior.asn == asn);
                return (
                    ip,
                    IpInfo {
                        asn,
                        ..prior.clone()
                    },
                    row,
                );
            }
            let fqdn = ptr[&ip].clone();
            let anycast = snaps.anycast_prefixes.iter().any(|p| p.contains(ip));
            let ixp_hit = ixp_prefix_metro
                .iter()
                .find(|(p, _)| p.contains(ip))
                .map(|&(_, m)| m);
            let (metro, geo_source) = if let Some(mid) = ixp_hit {
                (Some(mid), Some(LocationSource::IxpPrefix))
            } else if anycast {
                // An anycast address has no single location; per §5 it is
                // annotated instead of pinned (Hoiho would see just one
                // of its instances).
                (None, None)
            } else if let Some(h) = fqdn.as_deref() {
                match hoiho.geolocate(h) {
                    Some(m) => (Some(m), Some(LocationSource::Hoiho)),
                    None => (None, None),
                }
            } else {
                (None, None)
            };
            let info = IpInfo {
                asn,
                fqdn,
                metro,
                geo_source,
                anycast,
            };
            (ip, info, None)
        });
        let resolved: Vec<(Ip4, IpInfo, Option<usize>)> = resolved.collect();
        drop(resolve_span);
        let mut ip_info = HashMap::with_capacity(resolved.len());
        let mut rdns = HashMap::with_capacity(resolved.len());
        // Geolocated addresses per source, ticked once per source.
        let mut geolocated: BTreeMap<&'static str, u64> = BTreeMap::new();
        let date = Value::text(&self.date);
        fill(db, "ip_asn_dns", |t| {
            t.reserve(resolved.len());
            let source = Value::text("igdb_pipeline");
            let mut copier = RowCopier::new(carry.as_ref().map(|c| &*c.ip_rows));
            for (ip, info, prior_row) in resolved {
                let tag = info.geo_source.map(|g| g.tag());
                if let Some(tag) = tag {
                    *geolocated.entry(tag).or_default() += 1;
                }
                if let Some(fqdn) = &info.fqdn {
                    rdns.insert(ip, fqdn.clone());
                }
                if let Some(row) = prior_row {
                    copier.copy(t, row..row + 1);
                    ip_info.insert(ip, info);
                    continue;
                }
                copier.flush(t);
                t.insert([
                    Value::text(ip.to_string()),
                    info.asn.map(|a| Value::from(a.0)).unwrap_or(Value::Null),
                    info.fqdn.clone().map(Value::Text).unwrap_or(Value::Null),
                    info.metro.map(Value::from).unwrap_or(Value::Null),
                    info.metro
                        .map(|m| metros.label_value(m))
                        .unwrap_or(Value::Null),
                    Value::text(tag.unwrap_or("none")),
                    Value::Bool(info.anycast),
                    source.clone(),
                    date.clone(),
                ])
                .expect("ip_asn_dns row");
                ip_info.insert(ip, info);
            }
            copier.flush(t);
        });
        for (tag, n) in geolocated {
            igdb_obs::counter("build.ip_geolocated", tag, n);
        }
        self.bdrmap = Some(Arc::new(bdrmap));
        self.hoiho = Some(hoiho);
        self.rdns = Arc::new(rdns);
        self.ip_info = Arc::new(ip_info);
    }

    /// Indexes the hot keys, emits the row totals, and assembles the world
    /// around `snapshots`, its baseline. A table shared from the prior
    /// already carries its index, built over the same rows.
    fn finish(self, snapshots: SnapshotSet, stage_ledger: Vec<LedgerEntry>) -> Igdb {
        let mut db = self.db;
        {
            let _s = igdb_obs::span("build.index");
            for (table, col) in [
                ("asn_loc", "asn"),
                ("asn_name", "asn"),
                ("asn_org", "asn"),
                ("asn_conn", "from_asn"),
                ("phys_nodes", "metro_id"),
                ("ip_asn_dns", "ip"),
            ] {
                if !db
                    .with_table(table, |t| t.has_index(col))
                    .expect("table exists")
                {
                    db.with_table_mut(table, |t| t.create_index(col))
                        .expect("table exists")
                        .expect("column exists");
                }
            }
        }

        // Final per-relation row totals: these are exactly what `igdb
        // tables` / the BuildReport consumer sees, so the CLI can assert
        // the metrics stream agrees with the database it just wrote.
        for table in db.table_names() {
            let rows = db.row_count(&table).unwrap_or(0);
            igdb_obs::counter("build.rows", table, rows as u64);
        }

        // Perf-class (machine-dependent), so the deterministic stream is
        // untouched; `igdb metrics` and benches read it back.
        igdb_obs::record_peak_rss("build");

        Igdb {
            db,
            metros: self.metros.expect("Metros ran"),
            roads: self.roads.expect("Roads ran"),
            bdrmap: self.bdrmap.expect("IpResolution ran"),
            hoiho: self.hoiho.expect("IpResolution ran"),
            as_of_date: self.date,
            ip_info: self.ip_info,
            rdns: self.rdns,
            asn_metros: self.asn_metros,
            phys_pairs: self.phys_pairs,
            probes: self.probes,
            fac_metro: self.fac_metro,
            atlas_metros: self.atlas_metros,
            fac_metros: self.fac_metros,
            logical: self.logical,
            derived: self.derived,
            snapshots,
            stage_ledger,
            rows_added_since_build: false,
        }
    }
}

/// Tops up the perf metric `mem.rss_kb{stage}` to the resident set, read
/// only when a registry is installed: the one case it is observable.
fn sample_rss(stage: Stage) {
    let Some(r) = igdb_obs::current() else {
        return;
    };
    if let Some(kb) = igdb_obs::current_rss_kb() {
        let prev = r.perf_value("mem.rss_kb", stage.name());
        if kb > prev {
            r.perf_add("mem.rss_kb", stage.name(), kb - prev);
        }
    }
}

impl Igdb {
    /// Runs the full pipeline over one snapshot set, requiring it to be
    /// pristine. Equivalent to [`Igdb::try_build`] under
    /// [`BuildPolicy::strict`], except that faults panic — the legacy
    /// contract existing callers rely on. Anything ingesting real-world
    /// (or possibly corrupted) snapshots should use `try_build`.
    ///
    /// # Panics
    /// Panics on the first faulty record or missing required source.
    pub fn build(snaps: &SnapshotSet) -> Self {
        match Self::try_build(snaps, &BuildPolicy::strict()) {
            Ok((igdb, _)) => igdb,
            Err(e) => panic!("Igdb::build on faulty input (use try_build): {e}"),
        }
    }

    /// Runs the full pipeline with fault tolerance. Snapshots are screened
    /// against `policy` first (see [`crate::validate`]): bad records land
    /// in the report's quarantine with source/index/reason provenance,
    /// optional sources degrade (or are dropped past the policy's bad-row
    /// threshold), and only an unusable *required* source — the metro
    /// catalogue or the road network — or any fault under a fail-fast
    /// policy aborts the build, with a typed error rather than a panic.
    ///
    /// On clean input the output database is byte-identical to
    /// [`Igdb::build`]'s, and the report [`BuildReport::is_clean`].
    pub fn try_build(
        snaps: &SnapshotSet,
        policy: &BuildPolicy,
    ) -> Result<(Igdb, BuildReport), BuildError> {
        let _span = igdb_obs::span("pipeline");
        let (screened, report) = Self::screen(snaps, policy, None)?;
        Ok((Self::build_staged(screened, None), report))
    }

    /// Validation + the two accounting cross-checks shared by
    /// [`Igdb::try_build`] and [`Igdb::apply_delta`] (which passes its
    /// baseline: see [`validate_against`]).
    fn screen(
        snaps: &SnapshotSet,
        policy: &BuildPolicy,
        baseline: Option<&SnapshotSet>,
    ) -> Result<(SnapshotSet, BuildReport), BuildError> {
        // The ingestion counters validation ticks on this thread, registry
        // or none.
        let tally = igdb_obs::Tally::open();
        let (screened, report) = validate_against(snaps, policy, baseline)?;
        let ticks = tally.finish();
        let ticked = |name: &str, s: SourceId| {
            ticks
                .iter()
                .find(|(n, l, _)| n == name && l == s.name())
                .map_or(0, |t| t.2)
        };
        // Two independent views of the same accounting — the quarantine
        // ledger inside the report, and the observability counters — must
        // agree exactly; divergence is a pipeline bug, typed, never silent.
        report.crosscheck()?;
        for s in SourceId::ALL {
            let h = report.health(s);
            for (name, want, what) in [
                ("ingest.rows_in", h.rows_in, "rows_in counter"),
                (
                    "ingest.rows_accepted",
                    h.rows_accepted,
                    "rows_accepted counter",
                ),
                (
                    "ingest.rows_quarantined",
                    h.rows_quarantined,
                    "rows_quarantined counter",
                ),
            ] {
                let got = ticked(name, s);
                if got != want as u64 {
                    return Err(BuildError::InternalAccounting {
                        source: s,
                        what,
                        expected: want,
                        actual: got as usize,
                    });
                }
            }
        }
        Ok((screened, report))
    }

    /// One pass of the stage driver — every build is this function. For each
    /// stage in [`Stage::ALL`] order it writes the per-stage protocol once:
    /// open the `build.<stage>` span; if an apply's diff proves the stage
    /// shared ([`SnapshotDelta::shares`]) take its tables from the prior
    /// world by reference, replay the prior's ledger entry and take it and
    /// the stage's other products by reference ([`Pipeline::share`]),
    /// otherwise run it inside an [`igdb_obs::Tally`], which becomes its
    /// ledger entry ([`Pipeline::run`] — the only case when `prior` is
    /// `None`, a full build); close the span; if it ran, compact the
    /// tables it wrote (which also returns what was just freed). The world
    /// keeps `snaps` as its baseline.
    ///
    /// Shared or re-run, a stage ends with the same rows, the same side
    /// products and the same counter ticks, so the result is byte-identical
    /// to a from-scratch build of `snaps` whatever `prior` was.
    fn build_staged(snaps: SnapshotSet, prior: Option<(&Igdb, &SnapshotDelta)>) -> Self {
        let _span = igdb_obs::span("build");
        let mut ledger = Vec::with_capacity(Stage::ALL.len());
        let mut pipeline = Pipeline::new(&snaps.as_of_date);
        if let Some((world, delta)) = prior {
            pipeline.carry(world, delta, &snaps);
        }
        for stage in Stage::ALL {
            let span = igdb_obs::span(format!("build.{}", stage.name()));
            let shared_from = prior.filter(|(_, delta)| delta.shares(stage));
            let entry = match shared_from {
                Some((world, _)) => {
                    for name in stage.tables() {
                        pipeline
                            .db
                            .share_table_from(&world.db, name)
                            .expect("table exists");
                    }
                    let entry = Arc::clone(&world.stage_ledger[stage as usize]);
                    for (name, label, v) in entry.iter() {
                        igdb_obs::counter(name.clone(), label.clone(), *v);
                    }
                    pipeline.share(stage, world);
                    entry
                }
                None => {
                    let tally = igdb_obs::Tally::open();
                    pipeline.run(stage, &snaps);
                    Arc::new(tally.finish())
                }
            };
            drop(span);
            if shared_from.is_none() && !stage.tables().is_empty() {
                let carried = &pipeline.carried_tables;
                let written = stage.tables().iter().filter(|t| !carried.contains(t));
                compact_tables(&mut pipeline.db, written.copied());
            }
            sample_rss(stage);
            ledger.push(entry);
        }
        pipeline.finish(snaps, ledger)
    }

    /// The validated record set this world was built from.
    pub fn source_snapshots(&self) -> &SnapshotSet {
        &self.snapshots
    }

    /// The raw traceroute corpus (kept out of the DB for §2's practical
    /// reason; the `traceroutes` relation holds the hop rows). Borrowed
    /// from the retained snapshot set — it used to be a second owned copy.
    pub fn traces(&self) -> &[RipeTraceroute] {
        &self.snapshots.ripe_traceroutes
    }

    /// Applies a replacement snapshot set incrementally, at the cost of the
    /// records it changed: screen the sources it changed and those whose
    /// checks read a changed one, carrying every other source's screen
    /// from this world's baseline ([`validate_against`]; quarantine and
    /// ingestion accounting are identical to a rebuild's); diff it against
    /// that baseline; re-run the stages the changed sources reach, where a
    /// re-run stage copies the rows of each record this world already had
    /// and takes a table none of whose inputs changed whole
    /// ([`crate::carry`]); and share everything every other stage made by
    /// reference. A shared `Physical` hands on
    /// the prior's lazily built products (routing graph with its corridor
    /// cache, path geometries, segment index) as they are. A re-run one
    /// starts them empty, except that if the prior had built its graph,
    /// the new one is built here with the memoized corridors the change
    /// left canonical (see
    /// [`PhysGraph::for_next_epoch`](crate::analysis::physpath::PhysGraph::for_next_epoch)).
    ///
    /// The contract, enforced by the delta-determinism suite and CI: the
    /// returned world is **byte-identical** to `try_build(snaps, policy)`
    /// — database fingerprint, quarantine, and deterministic counter
    /// stream.
    ///
    /// A prior holding a row its tables were not built with (see
    /// [`Igdb::add_inferred_location`]) cannot be shared from, and makes
    /// this a full rebuild — the same bytes by that contract.
    pub fn apply_delta(
        &self,
        snaps: &SnapshotSet,
        policy: &BuildPolicy,
    ) -> Result<(Igdb, BuildReport, SnapshotDelta), BuildError> {
        let _span = igdb_obs::span("delta.apply");
        if self.rows_added_since_build {
            let (igdb, report) = Self::try_build(snaps, policy)?;
            let delta = diff_snapshots(&self.snapshots, &igdb.snapshots);
            return Ok((igdb, report, delta));
        }
        let (new_set, report) = Self::screen(snaps, policy, Some(&self.snapshots))?;
        let diff_span = igdb_obs::span("delta.diff");
        let delta = diff_snapshots(&self.snapshots, &new_set);
        drop(diff_span);
        let igdb = Self::build_staged(new_set, Some((self, &delta)));
        if !delta.shares(Stage::Physical) {
            igdb.derived.succeed(
                &self.derived,
                &self.phys_pairs,
                igdb.metros.len(),
                &igdb.phys_pairs,
            );
        }
        Ok((igdb, report, delta))
    }

    /// The shared physical-path graph over the current snapshot's
    /// inferred corridors, built once on first use. Analyses route over
    /// this instance so its memoized corridors are shared too.
    pub fn phys_graph(&self) -> &crate::analysis::physpath::PhysGraph {
        self.derived.phys_graph(self)
    }

    /// Every inferred physical-path geometry (`phys_conn` WKT linestring
    /// rows, in row order), parsed once.
    pub fn phys_path_geometries(&self) -> &[Vec<GeoPoint>] {
        self.derived.phys_geoms(&self.db)
    }

    /// The index over every segment of [`Self::phys_path_geometries`],
    /// loaded once.
    pub(crate) fn phys_segments(&self) -> &SegmentIndex {
        self.derived.phys_segments(&self.db)
    }

    /// Declared metros of an ASN (from `asn_loc`, non-inferred).
    pub fn metros_of_asn(&self, asn: Asn) -> Vec<usize> {
        self.asn_metros
            .get(&asn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All ASNs carrying an organization name containing `needle`
    /// (case-insensitive), across all org sources.
    pub fn asns_of_org(&self, needle: &str) -> Vec<Asn> {
        let needle = needle.to_ascii_lowercase();
        self.db
            .with_table("asn_org", |t| {
                let mut asns: Vec<Asn> = t
                    .rows()
                    .iter()
                    .filter(|r| {
                        r[1].as_text()
                            .map(|s| s.to_ascii_lowercase().contains(&needle))
                            .unwrap_or(false)
                    })
                    .filter_map(|r| r[0].as_int().map(|i| Asn(i as u32)))
                    .collect();
                asns.sort_unstable();
                asns.dedup();
                asns
            })
            .expect("asn_org exists")
    }

    /// Geolocated metro of an observed IP, if known.
    pub fn metro_of_ip(&self, ip: Ip4) -> Option<usize> {
        self.ip_info.get(&ip).and_then(|i| i.metro)
    }

    /// Registers a §4.4 inference: a new (ASN, metro) presence discovered
    /// by belief propagation, tagged `inferred = true` so users can discard
    /// it ("We clearly tag each inference in iGDB"). The row is not
    /// source-derived, so a later [`Igdb::apply_delta`] onto this world
    /// rebuilds instead of sharing tables that now hold it. The write
    /// copies `asn_loc` and `asn_metros` first if another epoch shares
    /// them, so that epoch never sees the row.
    pub fn add_inferred_location(&mut self, asn: Asn, metro: usize) {
        self.db
            .insert(
                "asn_loc",
                [
                    Value::from(asn.0),
                    Value::from(metro),
                    self.metros.label_value(metro),
                    self.metros.country_value(metro),
                    Value::Bool(false),
                    Value::Bool(true),
                    Value::text("belief_prop"),
                    Value::text(&self.as_of_date),
                ],
            )
            .expect("asn_loc row");
        Arc::make_mut(&mut self.asn_metros)
            .entry(asn)
            .or_default()
            .insert(metro);
        self.rows_added_since_build = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::sources::Source;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn built() -> (World, Igdb) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 400);
        let igdb = Igdb::build(&snaps);
        (world, igdb)
    }

    #[test]
    fn all_relations_populated() {
        let (_, igdb) = built();
        for table in [
            "city_points",
            "city_polygons",
            "phys_nodes",
            "phys_conn",
            "land_points",
            "sub_cables",
            "asn_loc",
            "asn_name",
            "asn_org",
            "asn_conn",
            "ip_asn_dns",
            "ixp_prefixes",
            "probes",
            "traceroutes",
        ] {
            let n = igdb.db.row_count(table).unwrap();
            assert!(n > 0, "{table} is empty");
        }
    }

    #[test]
    fn standardization_matches_ground_truth() {
        // Every Atlas node was generated at a (jittered) city location;
        // the spatial join must recover that city almost always (jitter is
        // 0.05°, far below intercity spacing for real cities).
        let (world, igdb) = built();
        let snaps = emit_snapshots(&world, "2022-05-03", 0);
        let mut checked = 0;
        let mut correct = 0;
        for n in snaps.atlas_nodes.iter().take(400) {
            let Some(mid) = igdb.metros.metro_of(&n.loc) else {
                continue;
            };
            // Ground truth: the nearest city to the *unjittered* label
            // can't be recovered directly here, but the node's network +
            // city must be a footprint city of that AS.
            let brand = &n.network;
            let a = world
                .eco
                .ases
                .iter()
                .find(|a| *brand == a.names.brand)
                .unwrap();
            checked += 1;
            if a.footprint.contains(&mid) {
                correct += 1;
            }
        }
        assert!(checked > 100);
        assert!(
            correct * 10 >= checked * 9,
            "standardization recovered {correct}/{checked}"
        );
    }

    #[test]
    fn phys_conn_paths_follow_roads_and_have_length() {
        let (_, igdb) = built();
        igdb.db
            .with_table("phys_conn", |t| {
                assert!(t.len() > 50, "too few inferred paths: {}", t.len());
                for (_, row) in t.iter().take(100) {
                    let km = row[6].as_float().unwrap();
                    assert!(km > 0.0);
                    let wkt = row[7].as_text().unwrap();
                    let geom = igdb_geo::parse_wkt(wkt).unwrap();
                    match geom {
                        igdb_geo::Geometry::LineString(ls) => {
                            // Stored distance equals geometry length.
                            assert!(
                                (ls.length_km() - km).abs() < 1.0,
                                "wkt length {} vs stored {km}",
                                ls.length_km()
                            );
                        }
                        other => panic!("phys_conn geometry not a linestring: {other:?}"),
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn anycast_addresses_annotated_and_never_located() {
        let (world, igdb) = built();
        let mut flagged = 0;
        for (&ip, info) in igdb.ip_info.iter() {
            let truth_anycast = world.anycast_prefixes.iter().any(|&(_, p)| p.contains(ip));
            assert_eq!(info.anycast, truth_anycast, "{ip} flag mismatch");
            if info.anycast {
                flagged += 1;
                assert!(
                    info.metro.is_none(),
                    "anycast {ip} was pinned to a single metro"
                );
            }
        }
        assert!(flagged > 0, "no anycast addresses observed in the mesh");
        // The relation carries the annotation column.
        igdb.db
            .with_table("ip_asn_dns", |t| {
                let col = t.schema().index_of("anycast").unwrap();
                let n = t
                    .rows()
                    .iter()
                    .filter(|r| r[col] == Value::Bool(true))
                    .count();
                assert_eq!(n, flagged);
            })
            .unwrap();
    }

    #[test]
    fn belief_prop_respects_anycast() {
        use crate::analysis::beliefprop::{propagate, BeliefPropParams};
        let (_, igdb) = built();
        let report = propagate(&igdb, &BeliefPropParams::default());
        for ip in report.assignments.keys() {
            assert!(
                !igdb.ip_info.get(ip).map(|i| i.anycast).unwrap_or(false),
                "belief propagation located anycast {ip}"
            );
        }
    }

    #[test]
    fn microwave_links_stored_as_straight_lines() {
        // §5 future work realized: microwave links carry row_type
        // "microwave" and their path IS the geodesic.
        let (_, igdb) = built();
        let mut microwave = 0;
        igdb.db
            .with_table("phys_conn", |t| {
                for (_, row) in t.iter() {
                    if row[8].as_text() != Some("microwave") {
                        assert_eq!(row[8].as_text(), Some("roadway"));
                        continue;
                    }
                    microwave += 1;
                    let km = row[6].as_float().unwrap();
                    let gc = igdb_geo::haversine_km(
                        &igdb.metros.metro(row[0].as_int().unwrap() as usize).loc,
                        &igdb.metros.metro(row[3].as_int().unwrap() as usize).loc,
                    );
                    assert!(
                        (km - gc).abs() < gc * 0.01 + 1.0,
                        "microwave path {km} km vs geodesic {gc} km"
                    );
                }
            })
            .unwrap();
        assert!(microwave > 0, "no microwave links in the tiny world");
    }

    #[test]
    fn ip_to_as_mapping_mostly_correct() {
        // Score bdrmap against the world's ground truth (operator AS).
        let (world, igdb) = built();
        let mut checked = 0;
        let mut correct = 0;
        for (&ip, info) in igdb.ip_info.iter() {
            let Some(got) = info.asn else { continue };
            let Some(truth) = world.truth_asn_of_ip(ip) else {
                continue;
            };
            checked += 1;
            if got == truth {
                correct += 1;
            }
        }
        assert!(checked > 200, "only {checked} scored addresses");
        assert!(
            correct * 100 >= checked * 85,
            "IP→AS accuracy {correct}/{checked}"
        );
    }

    #[test]
    fn hoiho_geolocations_match_ground_truth() {
        let (world, igdb) = built();
        let mut checked = 0;
        let mut correct = 0;
        for (&ip, info) in igdb.ip_info.iter() {
            if info.geo_source != Some(LocationSource::Hoiho) {
                continue;
            }
            let Some(truth_city) = world.truth_city_of_ip(ip) else {
                continue;
            };
            checked += 1;
            if info.metro == Some(truth_city) {
                correct += 1;
            }
        }
        assert!(checked > 20, "only {checked} hoiho-geolocated addresses");
        assert!(
            correct * 100 >= checked * 95,
            "Hoiho accuracy {correct}/{checked}"
        );
    }

    #[test]
    fn rdns_funnel_shape() {
        // §4.4: a substantial fraction of observed IPs don't resolve, and
        // most resolving hostnames carry no geohint.
        let (_, igdb) = built();
        let total = igdb.ip_info.len() as f64;
        let resolved = igdb.ip_info.values().filter(|i| i.fqdn.is_some()).count() as f64;
        let hinted = igdb
            .ip_info
            .values()
            .filter(|i| i.geo_source == Some(LocationSource::Hoiho))
            .count() as f64;
        assert!(total > 300.0);
        let unresolved_frac = 1.0 - resolved / total;
        assert!(
            (0.1..0.7).contains(&unresolved_frac),
            "unresolved fraction {unresolved_frac}"
        );
        assert!(hinted < resolved, "geohints must be a strict subset");
    }

    /// `Igdb.rdns` is the snapshot's PTR records restricted to the
    /// addresses the build observed; a later record for an address
    /// replaces an earlier one.
    #[test]
    fn rdns_keeps_the_observed_addresses_last_record_winning() {
        let world = World::generate(WorldConfig::tiny());
        let mut snaps = emit_snapshots(&world, "2022-05-03", 400);
        let observed: BTreeSet<Ip4> = snaps
            .ripe_traceroutes
            .iter()
            .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
            .collect();
        assert!(
            snaps.rdns.iter().any(|r| !observed.contains(&r.ip)),
            "every record is observed, so the restriction goes untested"
        );
        let dup = snaps
            .rdns
            .iter()
            .find(|r| observed.contains(&r.ip))
            .expect("an observed address with a PTR record")
            .ip;
        snaps.rdns.push(igdb_synth::sources::RdnsRecord {
            ip: dup,
            hostname: "later.example.net".into(),
        });
        let igdb = Igdb::build(&snaps);
        let mut want = HashMap::new();
        for r in snaps.rdns.iter().filter(|r| observed.contains(&r.ip)) {
            want.insert(r.ip, r.hostname.as_str());
        }
        let got: HashMap<Ip4, &str> = igdb.rdns.iter().map(|(&ip, h)| (ip, h.as_str())).collect();
        assert_eq!(got, want);
        assert_eq!(got[&dup], "later.example.net");
    }

    /// The remote-peering rule answers as the nearest-distance fold it
    /// replaced on every edge of `f64`: NaN (which `f64::min` skips),
    /// both infinities, exactly the threshold, and no facility at all.
    #[test]
    fn remote_peering_equals_the_nearest_distance_fold() {
        let fold = |d: &[f64]| d.iter().copied().fold(f64::INFINITY, f64::min) > REMOTE_PEERING_KM;
        let nan = f64::NAN;
        let lists: [&[f64]; 12] = [
            &[],
            &[nan],
            &[nan, nan],
            &[nan, 999.0],
            &[2000.0, nan],
            &[f64::INFINITY],
            &[f64::NEG_INFINITY],
            &[f64::INFINITY, nan],
            &[REMOTE_PEERING_KM],
            &[nan, REMOTE_PEERING_KM],
            &[REMOTE_PEERING_KM.next_up()],
            &[3000.0, REMOTE_PEERING_KM.next_up(), -0.0],
        ];
        for d in lists {
            assert_eq!(remote_peering(d.iter().copied()), fold(d), "{d:?}");
        }
        assert!(remote_peering([]));
        assert!(remote_peering([nan]));
        assert!(!remote_peering([REMOTE_PEERING_KM]));
        assert!(!remote_peering([f64::NEG_INFINITY]));
    }

    #[test]
    fn asn_loc_has_remote_flags_and_inference_column() {
        let (_, igdb) = built();
        igdb.db
            .with_table("asn_loc", |t| {
                let remote = t
                    .rows()
                    .iter()
                    .filter(|r| r[4] == Value::Bool(true))
                    .count();
                let inferred = t
                    .rows()
                    .iter()
                    .filter(|r| r[5] == Value::Bool(true))
                    .count();
                assert!(remote > 0, "no remote-peering flags set");
                assert_eq!(inferred, 0, "base build must not contain inferences");
            })
            .unwrap();
    }

    /// The roadway rows of `phys_conn` whose WKT cell is a heap string
    /// (so its address is an allocation, not an interned symbol's), by
    /// metro pair, with that cell.
    fn roadway_cells(w: &Igdb) -> HashMap<(i64, i64), igdb_db::Str> {
        w.db.with_table("phys_conn", |t| {
            t.iter()
                .filter(|(_, r)| r[8].as_text() == Some("roadway"))
                .filter_map(|(_, r)| {
                    let Value::Text(wkt) = &r[7] else {
                        panic!("a WKT cell is text")
                    };
                    let pair = (r[0].as_int().unwrap(), r[3].as_int().unwrap());
                    wkt.sym().is_none().then(|| (pair, wkt.clone()))
                })
                .collect()
        })
        .unwrap()
    }

    /// Moves one field of every record to the next record.
    fn rotate<T: Clone, F: Clone>(records: &mut Source<T>, field: impl Fn(&mut T) -> &mut F) {
        let values: Vec<F> = records.iter_mut().map(|r| field(r).clone()).collect();
        for (r, v) in records.iter_mut().zip(values.iter().cycle().skip(1)) {
            *field(r) = v.clone();
        }
    }

    /// Every product of an apply is the prior's own allocation exactly
    /// when the inputs it is made from are unchanged — for every delta
    /// class, for a hand-edited `geo_codes` and `hoiho_rules` (which no
    /// class churns), and for a date change, which shares nothing. For most
    /// products those inputs are their stage's, so the rule reads "shared
    /// exactly when the delta shares the stage". The label resolver, the
    /// Hoiho engine and the roadway WKT cells read less than their stage
    /// does, and are handed on whenever what they read is the prior's: a
    /// pair's cell is the prior's exactly when the metro registry is, and
    /// either the road list is too or the pair's route crosses no
    /// adjacency the road change touched (and the change cannot shorten a
    /// route). The border map's RIB is handed on with the rest of the
    /// traceroute products when the trace list is the one input of
    /// `IpResolution` that changed. The rows a re-run `Physical` or
    /// `Logical` copies, and the tables it takes whole, follow the same
    /// rule per record (`carry::tests::assert_rows_carried`, over a prior
    /// whose rows are marked), a `FacilityChurn` delta copying some
    /// facility rows and making others.
    #[test]
    fn a_shared_stage_hands_on_every_product_by_reference() {
        use igdb_synth::{generate_delta, DeltaClass};
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 400);
        let mut prior = Igdb::build(&snaps);
        crate::carry::tests::mark_rows(&mut prior);
        let prior_roadways = roadway_cells(&prior);
        let mut redated = snaps.clone();
        redated.as_of_date = "2022-06-01".into();
        let mut geo_codes = snaps.clone();
        rotate(&mut geo_codes.geo_codes, |c| &mut c.1);
        let mut hoiho_rules = snaps.clone();
        rotate(&mut hoiho_rules.hoiho_rules, |r| &mut r.pattern);
        // A road edit on a routed pair's first hop, so that both outcomes
        // of the roadway rule occur under a re-run `Roads`.
        let mut ws = crate::spath::SpWorkspace::new();
        let mut roads = snaps.clone();
        let &(a, b) = prior_roadways.keys().min().expect("a roadway row");
        let (route, _) = prior.roads.roadway(&mut ws, a as usize, b as usize);
        let hop = route.expect("a roadway row has a route").path[..2].to_vec();
        for r in &mut roads.roads {
            if [r.a, r.b] == [hop[0] as usize, hop[1] as usize]
                || [r.b, r.a] == [hop[0] as usize, hop[1] as usize]
            {
                r.length_km *= 1.05;
            }
        }
        let nexts = DeltaClass::ALL
            .into_iter()
            .map(|class| (format!("{class:?}"), generate_delta(&snaps, 7, &[class]).0))
            .chain([
                ("date change".to_string(), redated),
                ("geo_codes edit".to_string(), geo_codes),
                ("hoiho_rules edit".to_string(), hoiho_rules),
                ("roads edit".to_string(), roads),
            ]);
        // Roadway cells taken from the prior, and made again, by an apply
        // that re-runs `Roads`.
        let (mut carried, mut remade) = (0, 0);
        for (ctx, next) in nexts {
            let (w, _, delta) = prior.apply_delta(&next, &BuildPolicy::lenient()).unwrap();
            let p = &prior;
            let stage = |stage: Stage| delta.shares(stage);
            let labels_inputs = stage(Stage::Metros) && !delta.changed("geo_codes");
            let traces_only = !delta.date_changed
                && crate::delta::SOURCE_USES
                    .iter()
                    .filter(|u| u.reaches.contains(&Stage::IpResolution))
                    .all(|u| (u.name == "ripe_traceroutes") == delta.changed(u.name));
            // The roadway rows of a pair both worlds hold, each held to
            // the rule on whether it carries the prior's WKT allocation.
            let changed_roads =
                crate::roads::changed_by_grouping(&p.snapshots.roads, &w.snapshots.roads);
            let roadways = roadway_cells(&w);
            let mut common = 0;
            for (&(a, b), old) in &prior_roadways {
                let Some(new) = roadways.get(&(a, b)) else {
                    continue;
                };
                common += 1;
                let (route, _) = p.roads.roadway(&mut ws, a as usize, b as usize);
                let path = route.expect("a roadway row has a route").path;
                let crosses_no_change = changed_roads.as_ref().is_some_and(|changed| {
                    path.windows(2).all(|h| {
                        let hop = (h[0].min(h[1]) as usize, h[0].max(h[1]) as usize);
                        !changed.contains(&hop)
                    })
                });
                let inputs_unchanged =
                    stage(Stage::Metros) && (stage(Stage::Roads) || crosses_no_change);
                let same = old.as_str().as_ptr() == new.as_str().as_ptr();
                assert_eq!(same, inputs_unchanged, "{ctx}: roadway WKT cell {a}–{b}");
                if stage(Stage::Metros) && !stage(Stage::Roads) {
                    *if same { &mut carried } else { &mut remade } += 1;
                }
            }
            assert!(common > 0, "{ctx}: no roadway pair survived");
            let sites = crate::carry::tests::assert_rows_carried(p, &w, &delta, &ctx);
            if ctx == "FacilityChurn" {
                assert!(sites.0 > 0 && sites.1 > 0, "{ctx}: facility rows {sites:?}");
            }
            let ixps = labels_inputs && !delta.changed("pdb_ix");
            let net_asn = stage(Stage::Metros) && !delta.changed("pdb_networks");
            let products = [
                (
                    "metros",
                    stage(Stage::Metros),
                    Arc::ptr_eq(&p.metros, &w.metros),
                ),
                (
                    "roads",
                    stage(Stage::Roads),
                    Arc::ptr_eq(&p.roads, &w.roads),
                ),
                (
                    "phys_pairs",
                    stage(Stage::Physical),
                    Arc::ptr_eq(&p.phys_pairs, &w.phys_pairs),
                ),
                (
                    "derived",
                    stage(Stage::Physical),
                    Arc::ptr_eq(&p.derived, &w.derived),
                ),
                (
                    "logical",
                    stage(Stage::Logical),
                    Arc::ptr_eq(&p.logical, &w.logical),
                ),
                (
                    "ixps",
                    stage(Stage::Logical) || ixps,
                    Arc::ptr_eq(&p.logical.ixps, &w.logical.ixps),
                ),
                (
                    "net_asn",
                    stage(Stage::Logical) || net_asn,
                    Arc::ptr_eq(&p.logical.net_asn, &w.logical.net_asn),
                ),
                (
                    "labels",
                    labels_inputs,
                    Arc::ptr_eq(&p.logical.labels, &w.logical.labels),
                ),
                (
                    "asn_metros",
                    stage(Stage::AsnLoc),
                    Arc::ptr_eq(&p.asn_metros, &w.asn_metros),
                ),
                (
                    "probes",
                    stage(Stage::Probes),
                    Arc::ptr_eq(&p.probes, &w.probes),
                ),
                (
                    "bdrmap",
                    stage(Stage::IpResolution),
                    Arc::ptr_eq(&p.bdrmap, &w.bdrmap),
                ),
                (
                    "bdrmap rib",
                    stage(Stage::IpResolution) || traces_only,
                    p.bdrmap.shares_rib(&w.bdrmap),
                ),
                (
                    "hoiho",
                    labels_inputs && !delta.changed("hoiho_rules"),
                    Arc::ptr_eq(&p.hoiho, &w.hoiho),
                ),
                (
                    "rdns",
                    stage(Stage::IpResolution),
                    Arc::ptr_eq(&p.rdns, &w.rdns),
                ),
                (
                    "ip_info",
                    stage(Stage::IpResolution),
                    Arc::ptr_eq(&p.ip_info, &w.ip_info),
                ),
            ];
            for (name, inputs_unchanged, same) in products {
                assert_eq!(same, inputs_unchanged, "{ctx}: {name}");
            }
        }
        assert!(
            carried > 0 && remade > 0,
            "{carried} carried, {remade} remade"
        );
    }

    #[test]
    fn org_lookup_and_footprints() {
        let (world, igdb) = built();
        // The Figure 6 scenario org must resolve to its four ASNs.
        let asns = igdb.asns_of_org("Spectra Holdings");
        assert_eq!(asns.len(), 4, "{asns:?}");
        for asn in asns {
            assert!(world.scenarios.spectra.contains(&asn));
        }
    }
}
