//! Snapshot deltas: what changed between two validated snapshot sets, and
//! which build stages the change reaches.
//!
//! [`diff_snapshots`] compares two *screened* record sets (what
//! [`crate::validate::validate`] returns) source by source. Because the
//! inputs are post-validation, FK cascades are already closed: a removed
//! atlas node takes its links with it either in the generator or in
//! quarantine, so the diff never sees a dangling reference.
//!
//! A stage's output is a function of the date and of the sources it
//! depends on — the ones it reads, and the ones behind every side product
//! it takes from an earlier stage (the metro registry, the road graph,
//! the facility→metro map, the label resolver, the network→ASN map, the
//! IXP maps). The `sources!` table lists those stages per source, so the
//! diff knows exactly which stages a changed source reaches: an apply
//! re-runs those, and shares every other stage from the prior world —
//! tables by reference, recorded counter deltas replayed — wherever it
//! sits in [`Stage::ALL`]. A road delta re-runs `Roads` and `Physical`
//! and nothing else.
//!
//! Two decisions live here and nowhere else: which stages depend on which
//! source (the `sources!` table — the diff is generated from it); and
//! whether a stage is shared from the prior world
//! ([`SnapshotDelta::shares`]).

use igdb_geo::GeoPoint;
use igdb_synth::sources::{
    AtlasNode, NaturalEarthPlace, PdbFacility, RipeAnchorRecord, RipeHop, RipeTraceroute,
    RoadSegment, SnapshotSet, Source, TelegeoCableRecord,
};

/// One pipeline stage of the build, in execution order. The discriminants
/// index the per-stage counter ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Metro registry from Natural Earth (spatial index + Thiessen cells).
    Metros,
    /// Right-of-way road graph.
    Roads,
    /// `city_points` / `city_polygons`.
    CityTables,
    /// `phys_nodes` / `phys_conn` — spatial joins plus roadway routing.
    Physical,
    /// `land_points` / `sub_cables` from Telegeography.
    Telegeo,
    /// `asn_name` / `asn_org` / `asn_conn` / `ixp_prefixes`.
    Logical,
    /// `asn_loc` (facility + IXP presence, remote-peering inference).
    AsnLoc,
    /// `probes`.
    Probes,
    /// `traceroutes`.
    Traceroutes,
    /// `ip_asn_dns` — bdrmap, rDNS, Hoiho, anycast annotation.
    IpResolution,
}

impl Stage {
    /// All stages in build order.
    pub const ALL: [Stage; 10] = [
        Stage::Metros,
        Stage::Roads,
        Stage::CityTables,
        Stage::Physical,
        Stage::Telegeo,
        Stage::Logical,
        Stage::AsnLoc,
        Stage::Probes,
        Stage::Traceroutes,
        Stage::IpResolution,
    ];

    /// Stable lowercase label, used for per-stage perf metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Metros => "metros",
            Stage::Roads => "roads",
            Stage::CityTables => "city_tables",
            Stage::Physical => "physical",
            Stage::Telegeo => "telegeo",
            Stage::Logical => "logical",
            Stage::AsnLoc => "asn_loc",
            Stage::Probes => "probes",
            Stage::Traceroutes => "traceroutes",
            Stage::IpResolution => "ip_resolution",
        }
    }

    /// This stage's bit in a [`SnapshotDelta`]'s re-run set.
    fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Tables this stage writes (shared by reference when an apply shares
    /// the stage).
    pub fn tables(self) -> &'static [&'static str] {
        match self {
            Stage::Metros | Stage::Roads => &[],
            Stage::CityTables => &["city_points", "city_polygons"],
            Stage::Physical => &["phys_nodes", "phys_conn"],
            Stage::Telegeo => &["land_points", "sub_cables"],
            Stage::Logical => &["asn_name", "asn_org", "asn_conn", "ixp_prefixes"],
            Stage::AsnLoc => &["asn_loc"],
            Stage::Probes => &["probes"],
            Stage::Traceroutes => &["traceroutes"],
            Stage::IpResolution => &["ip_asn_dns"],
        }
    }
}

/// Which stages the build reaches from one source.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SourceUse {
    pub name: &'static str,
    /// Every stage whose output depends on the source, by reading it or
    /// through a side product of an earlier stage, in build order: exactly
    /// the stages a change to the source makes an apply re-run. The first
    /// is the first stage that reads the records.
    pub reaches: &'static [Stage],
}

impl SourceUse {
    /// First stage that reads the records.
    pub fn first(&self) -> Stage {
        self.reaches[0]
    }
}

/// The source→stage map, one row per [`SnapshotSet`] source: every stage
/// it reaches, its first reader first. Rows are in first-reader order,
/// which is the order [`SnapshotDelta::sources`] reports them in.
/// Everything that walks the sources is generated from it —
/// [`SOURCE_USES`] and the per-source diff, which names every
/// [`SnapshotSet`] field — so a source without a row does not compile.
macro_rules! sources {
    ($($source:ident => $($reach:ident)|+;)*) => {
        pub(crate) const SOURCE_USES: &[SourceUse] = &[$(SourceUse {
            name: stringify!($source),
            reaches: &[$(Stage::$reach),+],
        }),*];

        /// Compares every source, in table order.
        fn diff_sources(old: &SnapshotSet, new: &SnapshotSet) -> Vec<SourceDiff> {
            let SnapshotSet { as_of_date: _, $($source),* } = old;
            let mut out = Vec::new();
            $(diff_source(source_use(stringify!($source)), $source, &new.$source, &mut out);)*
            out
        }

        /// Reverses the named source in place; true when that changed it
        /// (the records are not a palindrome).
        #[cfg(test)]
        fn reverse_source(set: &mut SnapshotSet, name: &str) -> bool {
            $(if name == stringify!($source) {
                set.$source.reverse();
                return set.$source.iter().ne(set.$source.iter().rev());
            })*
            panic!("no source named {name}")
        }

        /// The sources `a` holds as the very records `b` holds, in table
        /// order.
        #[cfg(test)]
        pub(crate) fn shared_sources(a: &SnapshotSet, b: &SnapshotSet) -> Vec<&'static str> {
            let mut out = Vec::new();
            $(if a.$source.shares(&b.$source) {
                out.push(stringify!($source));
            })*
            out
        }
    };
}

sources! {
    // The metro registry: every stage but the hop relation takes it (ids,
    // labels, nearest-site joins, the road graph's node count, Hoiho).
    natural_earth
        => Metros | Roads | CityTables | Physical | Telegeo | Logical | AsnLoc | Probes | IpResolution;
    // The road graph Physical routes on.
    roads => Roads | Physical;
    atlas_nodes => Physical;
    atlas_links => Physical;
    // The facility→metro map AsnLoc joins presences through.
    pdb_facilities => Physical | AsnLoc;
    telegeo => Telegeo;
    asrank_entries => Logical;
    asrank_links => Logical;
    // The network→ASN map.
    pdb_networks => Logical | AsnLoc;
    // The IXP maps: `ixp_metro` for AsnLoc, `ixp_prefix_metro` for the
    // peering-LAN match in IP resolution.
    pdb_ix => Logical | AsnLoc | IpResolution;
    pch_ixps => Logical | AsnLoc;
    // The label resolver (and through it the IXP maps), and Hoiho's
    // geocode dictionary.
    geo_codes => Logical | AsnLoc | IpResolution;
    // Screened and counted but not loaded into relations — Logical is
    // their conservative home.
    he_exchanges => Logical;
    euroix => Logical;
    pdb_netfac => AsnLoc;
    pdb_netix => AsnLoc;
    ripe_anchors => Probes;
    // Hop rows, then the hop sequences bdrmap refines on.
    ripe_traceroutes => Traceroutes | IpResolution;
    rdns => IpResolution;
    bgp_prefixes => IpResolution;
    anycast_prefixes => IpResolution;
    hoiho_rules => IpResolution;
}

fn source_use(name: &str) -> &'static SourceUse {
    SOURCE_USES
        .iter()
        .find(|u| u.name == name)
        .expect("every source has a row in the sources! table")
}

/// One source the build would read differently: its records are not the
/// prior's, element by element and in order.
#[derive(Clone, Debug)]
pub struct SourceDiff {
    pub source: &'static str,
    /// The first stage that reads this source.
    pub stage: Stage,
    /// Records in the prior's copy of the source.
    pub old_len: usize,
    /// Records in the replacement; equal to `old_len` when the source was
    /// edited in place or came back rearranged.
    pub new_len: usize,
}

/// A typed diff between the snapshot set an [`crate::Igdb`] was built from
/// and a candidate replacement.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDelta {
    /// Sources whose record sequences differ, in pipeline-stage order.
    pub sources: Vec<SourceDiff>,
    /// Earliest stage an apply re-runs; `None` means the sets are
    /// identical and every stage is shared.
    pub first_dirty: Option<Stage>,
    /// The `as_of_date` changed — every dated row changes, so the delta
    /// degenerates to a full rebuild.
    pub date_changed: bool,
    /// An apply shares IP resolution: no source it depends on changed.
    pub ip_inputs_clean: bool,
    /// An apply shares the traceroute relation: `ripe_traceroutes` and the
    /// date are unchanged.
    pub traceroute_rows_clean: bool,
    /// The stages an apply re-runs, one bit per [`Stage`] discriminant.
    dirty: u16,
}

impl SnapshotDelta {
    /// True when the two sets were record-identical.
    pub fn is_empty(&self) -> bool {
        self.dirty == 0
    }

    /// Whether an apply takes `stage` from the prior world — tables shared,
    /// counter ledger replayed — instead of re-running it: no changed
    /// source reaches it.
    pub fn shares(&self, stage: Stage) -> bool {
        self.dirty & stage.bit() == 0
    }

    /// Whether the named source's records differ from the prior's.
    pub(crate) fn changed(&self, source: &str) -> bool {
        self.sources.iter().any(|s| s.source == source)
    }

    /// Whether `source` is the one input of `stage` this delta changed: the
    /// date is the prior's, and so is every other source that reaches the
    /// stage.
    pub(crate) fn changes_only(&self, stage: Stage, source: &str) -> bool {
        !self.date_changed
            && self.changed(source)
            && SOURCE_USES
                .iter()
                .filter(|u| u.name != source && u.reaches.contains(&stage))
                .all(|u| !self.changed(u.name))
    }

    /// The stages an apply re-runs, in build order.
    fn reruns(&self) -> impl Iterator<Item = Stage> + '_ {
        Stage::ALL.into_iter().filter(|&s| !self.shares(s))
    }

    /// The changed sources with their record counts and the stages they
    /// re-run, for operator output: `"pdb_facilities 633→633, pdb_netfac
    /// 832→830; re-ran physical, asn_loc"`.
    pub fn summary(&self) -> String {
        let sources: Vec<String> = self
            .sources
            .iter()
            .map(|s| format!("{} {}→{}", s.source, s.old_len, s.new_len))
            .collect();
        let reran: Vec<&str> = self.reruns().map(Stage::name).collect();
        match (sources.is_empty(), reran.is_empty()) {
            (_, true) => sources.join(", "),
            (true, false) => format!("re-ran {}", reran.join(", ")),
            (false, false) => format!("{}; re-ran {}", sources.join(", "), reran.join(", ")),
        }
    }
}

/// Record equality as the build reads a record: every float by its bit
/// pattern, as the database fingerprint renders it. `PartialEq` on a float
/// says `0.0 == -0.0` (and `NaN != NaN`), so a diff by it would share the
/// prior's rows across a sign-of-zero edit that changes them. A record
/// type without a float compares by `PartialEq`.
pub(crate) trait SameRecord {
    fn same(&self, other: &Self) -> bool;
}

/// Float-free records: `PartialEq` is already bitwise.
macro_rules! same_by_eq {
    ($($t:ty),* $(,)?) => {$(
        impl SameRecord for $t {
            fn same(&self, other: &Self) -> bool {
                self == other
            }
        }
    )*};
}

same_by_eq!(
    igdb_synth::sources::AtlasLink,
    igdb_synth::sources::PdbNetwork,
    igdb_synth::sources::PdbNetFac,
    igdb_synth::sources::PdbIx,
    igdb_synth::sources::PdbNetIx,
    igdb_synth::sources::PchIxp,
    igdb_synth::sources::HeExchange,
    igdb_synth::sources::EuroIxEntry,
    igdb_synth::sources::RdnsRecord,
    igdb_synth::sources::AsRankEntry,
    igdb_synth::sources::BgpPrefixRecord,
    igdb_synth::naming::HoihoRule,
    igdb_net::Prefix,
    (igdb_net::Asn, igdb_net::Asn),
    (String, usize),
    String,
);

impl SameRecord for f64 {
    fn same(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl SameRecord for GeoPoint {
    fn same(&self, other: &Self) -> bool {
        self.lon.same(&other.lon) && self.lat.same(&other.lat)
    }
}

impl<T: SameRecord> SameRecord for [T] {
    fn same(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same(b))
    }
}

impl<T: SameRecord> SameRecord for Vec<T> {
    fn same(&self, other: &Self) -> bool {
        self[..].same(&other[..])
    }
}

impl<A: SameRecord, B: SameRecord, C: SameRecord> SameRecord for (A, B, C) {
    fn same(&self, other: &Self) -> bool {
        self.0.same(&other.0) && self.1.same(&other.1) && self.2.same(&other.2)
    }
}

// The records that hold a float, compared field by field: the
// destructuring names every field, so a new one does not compile until it
// is compared here too.

impl SameRecord for AtlasNode {
    fn same(&self, o: &Self) -> bool {
        let AtlasNode {
            network,
            node_name,
            city_label,
            country,
            loc,
        } = self;
        *network == o.network
            && *node_name == o.node_name
            && *city_label == o.city_label
            && *country == o.country
            && loc.same(&o.loc)
    }
}

impl SameRecord for PdbFacility {
    fn same(&self, o: &Self) -> bool {
        let PdbFacility {
            fac_id,
            name,
            city_label,
            country,
            loc,
        } = self;
        *fac_id == o.fac_id
            && *name == o.name
            && *city_label == o.city_label
            && *country == o.country
            && loc.same(&o.loc)
    }
}

impl SameRecord for RipeAnchorRecord {
    fn same(&self, o: &Self) -> bool {
        let RipeAnchorRecord {
            id,
            ip,
            asn,
            city_label,
            country,
            loc,
        } = self;
        *id == o.id
            && *ip == o.ip
            && *asn == o.asn
            && *city_label == o.city_label
            && *country == o.country
            && loc.same(&o.loc)
    }
}

impl SameRecord for RipeHop {
    fn same(&self, o: &Self) -> bool {
        let RipeHop { ttl, ip, rtt_ms } = self;
        *ttl == o.ttl && *ip == o.ip && rtt_ms.same(&o.rtt_ms)
    }
}

impl SameRecord for RipeTraceroute {
    fn same(&self, o: &Self) -> bool {
        let RipeTraceroute {
            src_anchor,
            dst_anchor,
            hops,
        } = self;
        *src_anchor == o.src_anchor && *dst_anchor == o.dst_anchor && hops.same(&o.hops)
    }
}

impl SameRecord for NaturalEarthPlace {
    fn same(&self, o: &Self) -> bool {
        let NaturalEarthPlace {
            name,
            state,
            country,
            loc,
            population,
        } = self;
        *name == o.name
            && *state == o.state
            && *country == o.country
            && loc.same(&o.loc)
            && *population == o.population
    }
}

impl SameRecord for RoadSegment {
    fn same(&self, o: &Self) -> bool {
        let RoadSegment {
            a,
            b,
            length_km,
            path,
        } = self;
        *a == o.a && *b == o.b && length_km.same(&o.length_km) && path.same(&o.path)
    }
}

impl SameRecord for TelegeoCableRecord {
    fn same(&self, o: &Self) -> bool {
        let TelegeoCableRecord {
            cable_id,
            name,
            owners,
            landings,
            segments,
        } = self;
        *cable_id == o.cable_id
            && *name == o.name
            && *owners == o.owners
            && landings.same(&o.landings)
            && segments.same(&o.segments)
    }
}

/// A source changed when the build would read it differently. Every stage
/// consumes its source as an ordered slice and inserts rows in that order,
/// so the comparison is ordered too: a source that comes back rearranged
/// has changed, and a stage is shared only when each source it depends on
/// is equal record for record ([`SameRecord`]: floats by bit pattern). A
/// source both sets share is equal without reading a record.
fn diff_source<T: SameRecord>(
    source: &SourceUse,
    old: &Source<T>,
    new: &Source<T>,
    out: &mut Vec<SourceDiff>,
) {
    if !(old.shares(new) || old[..].same(&new[..])) {
        out.push(SourceDiff {
            source: source.name,
            stage: source.first(),
            old_len: old.len(),
            new_len: new.len(),
        });
    }
}

/// The traces two lists hold in common, matched one to one by content.
#[derive(Debug, PartialEq)]
pub(crate) struct TraceMatch {
    /// Per trace of the new list, the prior trace it is matched to: one
    /// equal to it record for record ([`SameRecord`], RTTs by bit
    /// pattern), and matched to no other new trace.
    pub matched: Vec<Option<usize>>,
    /// The prior traces no new trace is matched to, in prior order.
    pub removed: Vec<usize>,
}

/// How far past the prior trace after the last match the aligned pass
/// looks for the next one: the traces removed between two kept ones.
const MATCH_WINDOW: usize = 8;

/// Matches each trace of `new` to an unused equal trace of `prior`,
/// whatever order either list is in: a new trace is left unmatched only
/// when every prior trace equal to it is matched to another, so traces
/// with equal content are matched as many times as the shorter side holds
/// them. A churned mesh keeps most traces in order, so an aligned pass
/// first compares each new trace with the few prior traces after the last
/// match; the traces it leaves are matched by content, through a hash
/// index over the prior traces still unused, each hit confirmed by a full
/// [`SameRecord`] compare.
pub(crate) fn match_traces(prior: &[RipeTraceroute], new: &[RipeTraceroute]) -> TraceMatch {
    let mut used = vec![false; prior.len()];
    let mut matched = vec![None; new.len()];
    let mut next = 0;
    for (j, t) in new.iter().enumerate() {
        let window = next..prior.len().min(next + MATCH_WINDOW);
        if let Some(i) = window.into_iter().find(|&i| !used[i] && prior[i].same(t)) {
            used[i] = true;
            matched[j] = Some(i);
            next = i + 1;
        }
    }
    if matched.contains(&None) {
        let mut by_key: Vec<(u64, usize)> = (0..prior.len())
            .filter(|&i| !used[i])
            .map(|i| (trace_key(&prior[i]), i))
            .collect();
        by_key.sort_unstable();
        for (t, slot) in new.iter().zip(&mut matched).filter(|(_, m)| m.is_none()) {
            let key = trace_key(t);
            let from = by_key.partition_point(|&(k, _)| k < key);
            let hit = by_key[from..]
                .iter()
                .take_while(|&&(k, _)| k == key)
                .map(|&(_, i)| i)
                .find(|&i| !used[i] && prior[i].same(t));
            if let Some(i) = hit {
                used[i] = true;
                *slot = Some(i);
            }
        }
    }
    let removed = (0..prior.len()).filter(|&i| !used[i]).collect();
    TraceMatch { matched, removed }
}

/// A hash of everything [`SameRecord`] compares in a trace.
fn trace_key(t: &RipeTraceroute) -> u64 {
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut h = mix(mix(0, t.src_anchor.into()), t.dst_anchor.into());
    for hop in &t.hops {
        let ip = hop.ip.map_or(0, |ip| (1 << 32) | u64::from(ip.0));
        h = mix(mix(h, ip << 8 | u64::from(hop.ttl)), hop.rtt_ms.to_bits());
    }
    h
}

/// Diffs two validated snapshot sets. `old` is the set the current world
/// was built from; `new` is the validated candidate.
pub fn diff_snapshots(old: &SnapshotSet, new: &SnapshotSet) -> SnapshotDelta {
    let sources = diff_sources(old, new);
    let date_changed = old.as_of_date != new.as_of_date;
    // Every row carries the date, so a new one reaches every stage.
    let reached: Vec<Stage> = if date_changed {
        Stage::ALL.to_vec()
    } else {
        sources
            .iter()
            .flat_map(|s| source_use(s.source).reaches)
            .copied()
            .collect()
    };
    let dirty = reached.iter().fold(0, |set, s| set | s.bit());
    let shares = |stage: Stage| dirty & stage.bit() == 0;
    SnapshotDelta {
        sources,
        first_dirty: Stage::ALL.into_iter().find(|&s| !shares(s)),
        date_changed,
        ip_inputs_clean: shares(Stage::IpResolution),
        traceroute_rows_clean: shares(Stage::Traceroutes),
        dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, generate_delta, DeltaClass, World, WorldConfig};

    fn base() -> SnapshotSet {
        let world = World::generate(WorldConfig::tiny());
        emit_snapshots(&world, "2022-05-03", 400)
    }

    fn reruns(d: &SnapshotDelta) -> Vec<Stage> {
        d.reruns().collect()
    }

    /// Every stage but the hop relation: what a metro-catalogue change
    /// reaches.
    fn all_but_traceroutes() -> Vec<Stage> {
        Stage::ALL
            .into_iter()
            .filter(|&s| s != Stage::Traceroutes)
            .collect()
    }

    #[test]
    fn identical_sets_diff_empty() {
        let snaps = base();
        let d = diff_snapshots(&snaps, &snaps.clone());
        assert!(d.is_empty());
        assert!(d.sources.is_empty());
        assert_eq!(d.first_dirty, None);
        assert!(Stage::ALL.iter().all(|&s| d.shares(s)));
        assert_eq!(d.summary(), "");
    }

    /// The `sources!` table against the ground truth it encodes. The
    /// compiler already holds it against `SnapshotSet`'s fields (the
    /// generated diff names every one); here it is held against the
    /// sources the validator screens, the order the diff reports them in,
    /// and the stages each source reaches. Whether each cross-stage edge is
    /// needed is `delta_determinism`'s `cross_stage_edges_*` test.
    #[test]
    fn source_table_covers_every_source_once() {
        let names: Vec<&str> = SOURCE_USES.iter().map(|u| u.name).collect();
        let mut screened: Vec<&str> = igdb_fault::SourceId::ALL.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        screened.sort_unstable();
        assert_eq!(sorted, screened, "one row per screened source, no more");
        for u in SOURCE_USES {
            // Nothing before its first reader can depend on a source.
            assert!(
                u.reaches.windows(2).all(|w| w[0] < w[1]),
                "{}: reach out of order",
                u.name
            );
        }
        assert!(
            SOURCE_USES.windows(2).all(|w| w[0].first() <= w[1].first()),
            "rows must be in first-reader order"
        );
        let reaching = |stage: Stage| -> Vec<&str> {
            SOURCE_USES
                .iter()
                .filter(|u| u.reaches.contains(&stage))
                .map(|u| u.name)
                .collect()
        };
        assert_eq!(
            reaching(Stage::IpResolution),
            [
                "natural_earth",
                "pdb_ix",
                "geo_codes",
                "ripe_traceroutes",
                "rdns",
                "bgp_prefixes",
                "anycast_prefixes",
                "hoiho_rules",
            ]
        );
        assert_eq!(reaching(Stage::Traceroutes), ["ripe_traceroutes"]);
        assert_eq!(source_use("natural_earth").reaches, all_but_traceroutes());
    }

    /// A source that comes back rearranged is a changed source: every
    /// stage it reaches would insert its rows in another order.
    #[test]
    fn reordered_source_reruns_exactly_what_it_reaches() {
        let snaps = base();
        let mut reordered = 0;
        for u in SOURCE_USES {
            let mut new = snaps.clone();
            if !reverse_source(&mut new, u.name) {
                continue;
            }
            reordered += 1;
            let d = diff_snapshots(&snaps, &new);
            let named: Vec<&str> = d.sources.iter().map(|s| s.source).collect();
            assert_eq!(named, [u.name]);
            assert_eq!(d.sources[0].old_len, d.sources[0].new_len, "{}", u.name);
            assert_eq!(d.first_dirty, Some(u.first()), "{}", u.name);
            assert_eq!(reruns(&d), u.reaches, "{}", u.name);
        }
        assert!(
            reordered > SOURCE_USES.len() / 2,
            "the tiny world left most sources trivial"
        );
    }

    /// The exact stages each generated delta class re-runs, and the first
    /// of them.
    #[test]
    fn every_delta_class_maps_to_its_stage() {
        use Stage::*;
        let snaps = base();
        let expectations = [
            (DeltaClass::AtlasChurn, vec![Physical]),
            (DeltaClass::AtlasPrune, vec![Physical]),
            (DeltaClass::FacilityChurn, vec![Physical, AsnLoc]),
            (DeltaClass::LogicalChurn, vec![Logical]),
            (DeltaClass::RoadChurn, vec![Roads, Physical]),
            (DeltaClass::TracerouteChurn, vec![Traceroutes, IpResolution]),
            (DeltaClass::MetroAdd, all_but_traceroutes()),
            (DeltaClass::MetroRemove, all_but_traceroutes()),
            (DeltaClass::EveryMetro, all_but_traceroutes()),
        ];
        for (class, stages) in expectations {
            let (new, ops) = generate_delta(&snaps, 7, &[class]);
            assert!(!ops.is_empty(), "{class:?} generated no ops");
            let d = diff_snapshots(&snaps, &new);
            assert_eq!(reruns(&d), stages, "{class:?}");
            assert_eq!(d.first_dirty, stages.first().copied(), "{class:?}");
        }
        let (new, _) = generate_delta(&snaps, 7, &[DeltaClass::RoadChurn]);
        let summary = diff_snapshots(&snaps, &new).summary();
        assert!(
            summary.starts_with("roads ") && summary.ends_with("; re-ran roads, physical"),
            "{summary}"
        );
    }

    /// The two `*_clean` fields read off the re-run set, held against
    /// explicit per-class expectations.
    #[test]
    fn input_narrowing_flags_track_their_sources() {
        let snaps = base();
        // (class, ip_inputs_clean, traceroute_rows_clean)
        let expectations = [
            // Physical/logical feed churn reaches neither narrowed stage.
            (DeltaClass::AtlasChurn, true, true),
            (DeltaClass::AtlasPrune, true, true),
            (DeltaClass::FacilityChurn, true, true),
            (DeltaClass::RoadChurn, true, true),
            (DeltaClass::LogicalChurn, true, true),
            // New measurements feed both bdrmap and the hop relation.
            (DeltaClass::TracerouteChurn, false, false),
            // Metro changes reshape Hoiho's slug table and row labels,
            // but no traceroute row mentions a metro.
            (DeltaClass::MetroAdd, false, true),
            (DeltaClass::MetroRemove, false, true),
            (DeltaClass::EveryMetro, false, true),
        ];
        for (class, ip_clean, tr_clean) in expectations {
            let (new, ops) = generate_delta(&snaps, 7, &[class]);
            assert!(!ops.is_empty(), "{class:?} generated no ops");
            let d = diff_snapshots(&snaps, &new);
            assert_eq!(d.ip_inputs_clean, ip_clean, "{class:?} ip_inputs_clean");
            assert_eq!(
                d.traceroute_rows_clean, tr_clean,
                "{class:?} traceroute_rows_clean"
            );
            assert_eq!(
                d.ip_inputs_clean,
                d.shares(Stage::IpResolution),
                "{class:?}"
            );
            assert_eq!(
                d.traceroute_rows_clean,
                d.shares(Stage::Traceroutes),
                "{class:?}"
            );
        }
        // A date change re-stamps every dated row: nothing can be shared.
        let mut redated = snaps.clone();
        redated.as_of_date = "2022-06-01".into();
        let d = diff_snapshots(&snaps, &redated);
        assert!(!d.ip_inputs_clean);
        assert!(!d.traceroute_rows_clean);
    }

    #[test]
    fn metro_add_detected_as_append_only() {
        let snaps = base();
        let (new, _) = generate_delta(&snaps, 3, &[DeltaClass::MetroAdd]);
        // Even a pure append moves Thiessen cells globally, so it dirties
        // the pipeline from its first stage like any other catalogue change.
        assert_eq!(
            diff_snapshots(&snaps, &new).first_dirty,
            Some(Stage::Metros)
        );
    }

    /// A float edited to the other zero, or to the same NaN, is seen by
    /// its bits: `-0.0` is a change (`PartialEq` says it is not), and an
    /// identical NaN is none (`PartialEq` says it is).
    #[test]
    fn float_fields_compare_by_bits() {
        let snaps = base();
        let mut zero = snaps.clone();
        zero.ripe_traceroutes[0].hops[0].rtt_ms = 0.0;
        let mut negative = zero.clone();
        negative.ripe_traceroutes[0].hops[0].rtt_ms = -0.0;
        assert_eq!(zero.ripe_traceroutes, negative.ripe_traceroutes);
        let d = diff_snapshots(&zero, &negative);
        let named: Vec<&str> = d.sources.iter().map(|s| s.source).collect();
        assert_eq!(named, ["ripe_traceroutes"]);
        let mut nan = snaps.clone();
        nan.roads[0].length_km = f64::NAN;
        let mut same_nan = nan.clone();
        same_nan.roads = nan.roads.to_vec().into();
        assert!(!same_nan.roads.shares(&nan.roads));
        assert!(diff_snapshots(&nan, &same_nan).is_empty());
    }

    fn trace(src: u32, rtts: &[f64]) -> RipeTraceroute {
        RipeTraceroute {
            src_anchor: src,
            dst_anchor: 0,
            hops: rtts
                .iter()
                .enumerate()
                .map(|(i, &rtt_ms)| RipeHop {
                    ttl: i as u8 + 1,
                    ip: Some(igdb_net::Ip4(i as u32)),
                    rtt_ms,
                })
                .collect(),
        }
    }

    /// Traces match by content, one to one, whatever the order: duplicates
    /// pair off as far as both sides hold them, and a trace whose RTT went
    /// from `0.0` to `-0.0` is a different trace.
    #[test]
    fn traces_match_one_to_one_by_content() {
        let (a, b, c) = (trace(1, &[1.0, 2.0]), trace(2, &[3.0]), trace(3, &[0.0]));
        let prior = [a.clone(), b.clone(), a.clone(), c.clone()];
        let new = [
            b.clone(),
            a.clone(),
            trace(3, &[-0.0]),
            a.clone(),
            a.clone(),
        ];
        let m = match_traces(&prior, &new);
        assert_eq!(m.matched[0], Some(1));
        assert_eq!(m.matched[2], None, "-0.0 is not 0.0");
        let mut a_matches = vec![m.matched[1], m.matched[3], m.matched[4]];
        a_matches.sort();
        assert_eq!(a_matches, [None, Some(0), Some(2)], "two copies to pair");
        assert_eq!(m.removed, [3]);
        // A reversed list matches every trace.
        let reversed: Vec<RipeTraceroute> = prior.iter().rev().cloned().collect();
        let m = match_traces(&prior, &reversed);
        assert!(m.removed.is_empty() && m.matched.iter().all(Option::is_some));
        for (j, i) in m.matched.iter().enumerate() {
            assert!(prior[i.unwrap()].same(&reversed[j]));
        }
    }

    #[test]
    fn date_change_forces_full_rebuild() {
        let snaps = base();
        let mut new = snaps.clone();
        new.as_of_date = "2022-06-01".into();
        let d = diff_snapshots(&snaps, &new);
        assert!(d.date_changed);
        assert!(d.sources.is_empty());
        assert_eq!(reruns(&d), Stage::ALL);
        assert_eq!(d.first_dirty, Some(Stage::Metros));
        assert!(!d.is_empty());
        assert!(
            d.summary().starts_with("re-ran metros, roads, "),
            "{}",
            d.summary()
        );
    }
}
