//! What a re-run stage takes from the prior world, record by record.
//!
//! A delta apply re-runs every stage a changed source reaches
//! ([`crate::delta`]), but most of a re-run stage's records are usually the
//! prior's: a feed delta edits a handful of Atlas nodes and AS Rank
//! entries, a trace delta a handful of traces. [`match_records`] lines a
//! source's new records up with the prior's, one to one by content
//! ([`SameRecord`]: floats by bit pattern), and a [`RecordCarry`] knows
//! where each prior record's rows sit in the prior's table. A stage copies
//! the rows of every matched record ([`RowCopier`], one
//! [`Table::extend_from`] per run of consecutive prior rows) and makes only
//! the rows of the records that came. The carries per stage:
//!
//! - `Physical`: [`SiteCarry`], the spatial join's rows and metros per
//!   Atlas node and per facility;
//! - `Logical`: [`NameCarry`], the `asn_name` / `asn_org` / `asn_conn` rows
//!   per AS Rank entry, PeeringDB network and AS Rank link;
//! - `Traceroutes` and `IpResolution`: [`TraceCarry`], the hop rows per
//!   trace, the border map's votes and the per-address resolution.
//!
//! A table whose every input is unchanged is not copied at all: the stage
//! takes the prior's whole (`Pipeline::carry_table` in `build.rs`).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use igdb_db::{Str, Table, Value};
use igdb_net::{Asn, Ip4};
use igdb_synth::sources::{
    AsRankEntry, AtlasNode, PdbFacility, PdbNetwork, RipeTraceroute, SnapshotSet, Source,
};

use crate::bdrmap::BdrMap;
use crate::build::{Igdb, IpInfo};
use crate::delta::{SameRecord, SnapshotDelta};
use crate::metros::MetroRegistry;

/// A hash of everything [`SameRecord`] compares: two records that are the
/// same have the same key.
pub(crate) trait RecordKey: SameRecord {
    fn key(&self) -> u64;
}

/// Folds words into a record key.
#[derive(Clone, Copy, Default)]
struct Key(u64);

impl Key {
    fn word(self, x: u64) -> Self {
        Key((self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95))
    }

    fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }

    fn text(self, s: &str) -> Self {
        let k = s.as_bytes().chunks(8).fold(self, |k, chunk| {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            k.word(u64::from_le_bytes(w))
        });
        k.word(s.len() as u64)
    }

    /// An interned string by its symbol: equal content is always the same
    /// symbol, or always on the heap.
    fn str(self, s: &Str) -> Self {
        match s.sym() {
            Some(id) => self.word(u64::from(id)),
            None => self.text(s),
        }
    }
}

impl RecordKey for RipeTraceroute {
    fn key(&self) -> u64 {
        let k = Key::default()
            .word(self.src_anchor.into())
            .word(self.dst_anchor.into());
        let k = self.hops.iter().fold(k, |k, hop| {
            let ip = hop.ip.map_or(0, |ip| (1 << 32) | u64::from(ip.0));
            k.word(ip << 8 | u64::from(hop.ttl)).float(hop.rtt_ms)
        });
        k.0
    }
}

impl RecordKey for AtlasNode {
    fn key(&self) -> u64 {
        Key::default()
            .str(&self.network)
            .str(&self.node_name)
            .str(&self.city_label)
            .str(&self.country)
            .float(self.loc.lon)
            .float(self.loc.lat)
            .0
    }
}

impl RecordKey for PdbFacility {
    fn key(&self) -> u64 {
        Key::default()
            .word(self.fac_id.into())
            .str(&self.name)
            .str(&self.city_label)
            .str(&self.country)
            .float(self.loc.lon)
            .float(self.loc.lat)
            .0
    }
}

impl RecordKey for PdbNetwork {
    fn key(&self) -> u64 {
        Key::default()
            .word(self.net_id.into())
            .word(self.asn.0.into())
            .text(&self.as_name)
            .text(&self.org)
            .0
    }
}

impl RecordKey for AsRankEntry {
    fn key(&self) -> u64 {
        Key::default()
            .word(self.asn.0.into())
            .text(&self.as_name)
            .text(&self.org)
            .word(self.cone as u64)
            .0
    }
}

impl RecordKey for (Asn, Asn) {
    fn key(&self) -> u64 {
        Key::default()
            .word(self.0 .0.into())
            .word(self.1 .0.into())
            .0
    }
}

/// The records two lists hold in common, matched one to one by content.
#[derive(Debug, PartialEq)]
pub(crate) struct RecordMatch {
    /// Per record of the new list, the prior record it is matched to: one
    /// equal to it ([`SameRecord`], floats by bit pattern), and matched to
    /// no other new record.
    pub matched: Vec<Option<usize>>,
    /// The prior records no new record is matched to, in prior order.
    pub removed: Vec<usize>,
}

/// How far past the prior record after the last match the aligned pass
/// looks for the next one: the records removed between two kept ones.
const MATCH_WINDOW: usize = 8;

/// Matches each record of `new` to an unused equal record of `prior`,
/// whatever order either list is in: a new record is left unmatched only
/// when every prior record equal to it is matched to another, so records
/// with equal content are matched as many times as the shorter side holds
/// them. A churned source keeps most records in order, so an aligned pass
/// first compares each new record with the few prior records after the
/// last match; the records it leaves are matched by content, through an
/// index of [`RecordKey`]s over the prior records still unused, each hit
/// confirmed by a full [`SameRecord`] compare.
pub(crate) fn match_records<T: RecordKey>(prior: &[T], new: &[T]) -> RecordMatch {
    let mut used = vec![false; prior.len()];
    let mut matched = vec![None; new.len()];
    let mut next = 0;
    for (j, r) in new.iter().enumerate() {
        let window = next..prior.len().min(next + MATCH_WINDOW);
        if let Some(i) = window.into_iter().find(|&i| !used[i] && prior[i].same(r)) {
            used[i] = true;
            matched[j] = Some(i);
            next = i + 1;
        }
    }
    if matched.contains(&None) {
        let mut by_key: Vec<(u64, usize)> = (0..prior.len())
            .filter(|&i| !used[i])
            .map(|i| (prior[i].key(), i))
            .collect();
        by_key.sort_unstable();
        for (r, slot) in new.iter().zip(&mut matched).filter(|(_, m)| m.is_none()) {
            let key = r.key();
            let from = by_key.partition_point(|&(k, _)| k < key);
            let hit = by_key[from..]
                .iter()
                .take_while(|&&(k, _)| k == key)
                .map(|&(_, i)| i)
                .find(|&i| !used[i] && prior[i].same(r));
            if let Some(i) = hit {
                used[i] = true;
                *slot = Some(i);
            }
        }
    }
    let removed = (0..prior.len()).filter(|&i| !used[i]).collect();
    RecordMatch { matched, removed }
}

/// One source's new records matched against the prior's, with where each
/// prior record's rows sit in the prior's table.
pub(crate) struct RecordCarry {
    matched: RecordMatch,
    /// Where each prior record's rows start, and (last) where they end.
    first_row: Vec<usize>,
}

impl RecordCarry {
    /// Matches `new` against `prior` — the identity, without reading a
    /// record, when both hold the same records — and adds the matched count
    /// to the perf counter `delta.records_carried{source}`. The prior's
    /// records wrote `rows_of(i)` rows each, in order, from row `start` on.
    pub fn new<T: RecordKey>(
        source: &'static str,
        prior: &Source<T>,
        new: &Source<T>,
        start: usize,
        rows_of: impl Fn(usize) -> usize,
    ) -> Self {
        let matched = if prior.shares(new) {
            RecordMatch {
                matched: (0..new.len()).map(Some).collect(),
                removed: Vec::new(),
            }
        } else {
            match_records(prior, new)
        };
        let carried = matched.matched.iter().flatten().count();
        igdb_obs::perf("delta.records_carried", source, carried as u64);
        let first_row = std::iter::once(start)
            .chain((0..prior.len()).scan(start, |row, i| {
                *row += rows_of(i);
                Some(*row)
            }))
            .collect();
        RecordCarry { matched, first_row }
    }

    /// The prior record new record `j` is matched to, if any.
    pub fn prior_of(&self, j: usize) -> Option<usize> {
        self.matched.matched[j]
    }

    /// The prior's rows of that record.
    pub fn prior_rows(&self, j: usize) -> Option<Range<usize>> {
        let i = self.prior_of(j)?;
        Some(self.first_row[i]..self.first_row[i + 1])
    }

    /// The prior records no new one is matched to, in prior order.
    pub fn removed(&self) -> &[usize] {
        &self.matched.removed
    }

    /// The row after the prior's rows of this source.
    pub fn end(&self) -> usize {
        *self
            .first_row
            .last()
            .expect("first_row starts with the start")
    }
}

/// Fills a table partly with copies of a prior table's rows, one
/// [`Table::extend_from`] per run of consecutive prior rows.
pub(crate) struct RowCopier<'a> {
    prior: Option<&'a Table>,
    /// The prior rows of the current run, not yet copied.
    run: Range<usize>,
}

impl<'a> RowCopier<'a> {
    pub fn new(prior: Option<&'a Table>) -> Self {
        RowCopier { prior, run: 0..0 }
    }

    /// Appends the prior's `rows` to `t`, after every row appended before.
    pub fn copy(&mut self, t: &mut Table, rows: Range<usize>) {
        if self.run.end == rows.start {
            self.run.end = rows.end;
        } else {
            self.flush(t);
            self.run = rows;
        }
    }

    /// Copies the rows of new record `j` when `carry` matched it, and
    /// otherwise writes out the pending run, so the caller can insert the
    /// record's own rows: true when the rows were copied.
    pub fn carried(&mut self, t: &mut Table, carry: Option<&RecordCarry>, j: usize) -> bool {
        match carry.and_then(|c| c.prior_rows(j)) {
            Some(rows) => {
                self.copy(t, rows);
                true
            }
            None => {
                self.flush(t);
                false
            }
        }
    }

    /// Writes out the pending run: call before inserting a row of one's
    /// own, and once at the end.
    pub fn flush(&mut self, t: &mut Table) {
        let run = std::mem::replace(&mut self.run, 0..0);
        if !run.is_empty() {
            let prior = self.prior.expect("rows copied from a prior table");
            t.extend_from(prior, run).expect("the prior's rows");
        }
    }
}

/// One site source of `phys_nodes` (Atlas nodes or facilities) matched to
/// the prior's, with the prior's metro per record.
pub(crate) struct SiteSource {
    pub records: RecordCarry,
    /// The prior's metro per record (`None`: no row).
    pub metros: Arc<Vec<Option<usize>>>,
    /// The source is the prior's, record for record.
    pub unchanged: bool,
}

impl SiteSource {
    fn new<T: RecordKey>(
        source: &'static str,
        delta: &SnapshotDelta,
        (prior, new): (&Source<T>, &Source<T>),
        metros: &Arc<Vec<Option<usize>>>,
        start: usize,
    ) -> Self {
        SiteSource {
            records: RecordCarry::new(source, prior, new, start, |i| {
                usize::from(metros[i].is_some())
            }),
            metros: Arc::clone(metros),
            unchanged: !delta.changed(source),
        }
    }

    /// Each new record's metro: the prior's list when the source is
    /// unchanged, else a matched record's prior metro, and `join` for the
    /// rest.
    pub fn metros<T>(
        &self,
        records: &[T],
        join: impl Fn(&T) -> Option<usize>,
    ) -> Arc<Vec<Option<usize>>> {
        if self.unchanged {
            return Arc::clone(&self.metros);
        }
        let metros = records.iter().enumerate().map(|(j, r)| {
            self.records
                .prior_of(j)
                .map_or_else(|| join(r), |i| self.metros[i])
        });
        Arc::new(metros.collect())
    }
}

/// What a re-run `Physical` takes from the prior's spatial join, when the
/// metro registry and the date are the prior's: each Atlas node and
/// facility equal to a prior one takes that one's metro and `phys_nodes`
/// row, and only the others are joined. An unchanged facility list also
/// keeps the facility→metro map.
pub(crate) struct SiteCarry {
    /// The prior's `phys_nodes`: its Atlas rows, then its facility rows.
    pub rows: Arc<Table>,
    pub atlas: SiteSource,
    pub facilities: SiteSource,
    pub fac_metro: Arc<HashMap<u32, usize>>,
}

impl SiteCarry {
    pub fn new(world: &Igdb, delta: &SnapshotDelta, snaps: &SnapshotSet) -> Self {
        let prior = world.source_snapshots();
        let atlas = SiteSource::new(
            "atlas_nodes",
            delta,
            (&prior.atlas_nodes, &snaps.atlas_nodes),
            &world.atlas_metros,
            0,
        );
        let facilities = SiteSource::new(
            "pdb_facilities",
            delta,
            (&prior.pdb_facilities, &snaps.pdb_facilities),
            &world.fac_metros,
            atlas.records.end(),
        );
        let rows = world.db.shared_table("phys_nodes").expect("table exists");
        assert_eq!(rows.len(), facilities.records.end(), "one row per site");
        SiteCarry {
            rows,
            atlas,
            facilities,
            fac_metro: Arc::clone(&world.fac_metro),
        }
    }
}

/// What a re-run `Logical` takes from the prior's `asn_name`, `asn_org`
/// and `asn_conn`, when the date is the prior's: each AS Rank entry,
/// PeeringDB network and AS Rank link equal to a prior one takes that
/// one's rows, and `asn_org`'s PCH section is the prior's when `pch_ixps`
/// is unchanged.
pub(crate) struct NameCarry {
    pub names: Arc<Table>,
    pub orgs: Arc<Table>,
    pub links_rows: Arc<Table>,
    /// The AS Rank section of `asn_name` and `asn_org` (one row per entry),
    /// then the PeeringDB one (one row per network).
    pub asrank: RecordCarry,
    pub networks: RecordCarry,
    /// `asn_org`'s PCH rows, after the PeeringDB section, when `pch_ixps`
    /// is unchanged.
    pub pch: Option<Range<usize>>,
    /// `asn_conn`, one row per link.
    pub links: RecordCarry,
}

impl NameCarry {
    pub fn new(world: &Igdb, delta: &SnapshotDelta, snaps: &SnapshotSet) -> Self {
        let prior = world.source_snapshots();
        let one = |_| 1;
        let asrank = RecordCarry::new(
            "asrank_entries",
            &prior.asrank_entries,
            &snaps.asrank_entries,
            0,
            one,
        );
        let networks = RecordCarry::new(
            "pdb_networks",
            &prior.pdb_networks,
            &snaps.pdb_networks,
            asrank.end(),
            one,
        );
        let links = RecordCarry::new(
            "asrank_links",
            &prior.asrank_links,
            &snaps.asrank_links,
            0,
            one,
        );
        let table = |name| world.db.shared_table(name).expect("table exists");
        let (names, orgs) = (table("asn_name"), table("asn_org"));
        assert_eq!(names.len(), networks.end(), "one row per record");
        let pch = (!delta.changed("pch_ixps")).then(|| {
            igdb_obs::perf(
                "delta.records_carried",
                "pch_ixps",
                snaps.pch_ixps.len() as u64,
            );
            networks.end()..orgs.len()
        });
        NameCarry {
            names,
            orgs,
            links_rows: table("asn_conn"),
            asrank,
            networks,
            pch,
            links,
        }
    }
}

/// `phys_nodes`: a row per Atlas node, then per facility, that the
/// spatial join placed in a metro (`site_metros`, per record of each).
/// With a [`SiteCarry`], a site the prior had takes its row.
pub(crate) fn write_sites(
    t: &mut Table,
    snaps: &SnapshotSet,
    metros: &MetroRegistry,
    (atlas_metros, fac_metros): (&[Option<usize>], &[Option<usize>]),
    sites: Option<&SiteCarry>,
    date: &Value,
) {
    let mut copier = RowCopier::new(sites.map(|c| &*c.rows));
    let carry = sites.map(|c| &c.atlas.records);
    let source = Value::text("internet_atlas");
    for (j, (n, mid)) in snaps.atlas_nodes.iter().zip(atlas_metros).enumerate() {
        let Some(mid) = *mid else {
            continue;
        };
        if copier.carried(t, carry, j) {
            continue;
        }
        t.insert([
            Value::Text(n.node_name.clone()),
            Value::Text(n.network.clone()),
            Value::Text(n.city_label.clone()),
            Value::from(mid),
            metros.label_value(mid),
            Value::Text(n.country.clone()),
            Value::Float(n.loc.lat),
            Value::Float(n.loc.lon),
            source.clone(),
            date.clone(),
        ])
        .expect("phys_nodes row");
    }
    let carry = sites.map(|c| &c.facilities.records);
    let source = Value::text("peeringdb");
    for (j, (f, mid)) in snaps.pdb_facilities.iter().zip(fac_metros).enumerate() {
        let Some(mid) = *mid else {
            continue;
        };
        if copier.carried(t, carry, j) {
            continue;
        }
        let name = Value::Text(f.name.clone());
        t.insert([
            name.clone(),
            name,
            Value::Text(f.city_label.clone()),
            Value::from(mid),
            metros.label_value(mid),
            Value::Text(f.country.clone()),
            Value::Float(f.loc.lat),
            Value::Float(f.loc.lon),
            source.clone(),
            date.clone(),
        ])
        .expect("phys_nodes row");
    }
    copier.flush(t);
}

/// The AS Rank and PeeringDB sections of `asn_name` (or, with `org`,
/// `asn_org`): (asn, name or org, source) of every AS Rank entry, then of
/// every PeeringDB network. With a [`NameCarry`], a record the prior had
/// takes its row through `copier`.
pub(crate) fn write_named(
    t: &mut Table,
    copier: &mut RowCopier,
    snaps: &SnapshotSet,
    carry: Option<&NameCarry>,
    org: bool,
    date: &Value,
) {
    let cell = |name: &str, o: &str| Value::text(if org { o } else { name });
    let asrank = Value::text("asrank");
    for (j, e) in snaps.asrank_entries.iter().enumerate() {
        if copier.carried(t, carry.map(|c| &c.asrank), j) {
            continue;
        }
        let name = cell(&e.as_name, &e.org);
        t.insert([Value::from(e.asn.0), name, asrank.clone(), date.clone()])
            .expect("asn name row");
    }
    let peeringdb = Value::text("peeringdb");
    for (j, n) in snaps.pdb_networks.iter().enumerate() {
        if copier.carried(t, carry.map(|c| &c.networks), j) {
            continue;
        }
        let name = cell(&n.as_name, &n.org);
        t.insert([Value::from(n.asn.0), name, peeringdb.clone(), date.clone()])
            .expect("asn name row");
    }
}

/// What a re-run `Traceroutes` and `IpResolution` take from the prior
/// world when only the trace list changed among their inputs: each new
/// trace equal to a prior one takes that trace's hop rows, its votes stay
/// counted in the border map, and each address the prior observed keeps
/// its rDNS name, anycast flag and location. Only the traces that left or
/// came are read again. A build without a prior runs the same code with
/// no trace matched, from an empty border map.
pub(crate) struct TraceCarry {
    /// How the new trace list matches the prior's, over the prior's
    /// `traceroutes` rows (the hop rows of each trace, in order).
    pub traces: RecordCarry,
    /// The prior's trace list.
    pub prior: Source<RipeTraceroute>,
    pub rows: Arc<Table>,
    pub bdrmap: Arc<BdrMap>,
    pub ip_info: Arc<HashMap<Ip4, IpInfo>>,
    /// The prior's `ip_asn_dns` table: one row per address of
    /// `bdrmap.observed()`, in that order.
    pub ip_rows: Arc<Table>,
}

impl TraceCarry {
    pub fn new(world: &Igdb, snaps: &SnapshotSet) -> Self {
        let prior = world.source_snapshots().ripe_traceroutes.clone();
        let traces = RecordCarry::new(
            "ripe_traceroutes",
            &prior,
            &snaps.ripe_traceroutes,
            0,
            |i| prior[i].hops.len(),
        );
        let table = |name| world.db.shared_table(name).expect("table exists");
        let (rows, ip_rows) = (table("traceroutes"), table("ip_asn_dns"));
        assert_eq!(rows.len(), traces.end(), "one row per hop");
        assert_eq!(ip_rows.len(), world.ip_info.len(), "one row per address");
        TraceCarry {
            traces,
            prior,
            rows,
            bdrmap: Arc::clone(&world.bdrmap),
            ip_info: Arc::clone(&world.ip_info),
            ip_rows,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::delta::Stage;
    use igdb_geo::GeoPoint;
    use igdb_synth::sources::RipeHop;

    /// The date cell of a row copied from a world [`mark_rows`] marked.
    const MARK: &str = "marked";

    /// The tables a re-run stage copies rows of, with the sources their
    /// rows are made from.
    const CARRIED: [(&str, &[&str]); 4] = [
        ("phys_nodes", &["atlas_nodes", "pdb_facilities"]),
        ("asn_name", &["asrank_entries", "pdb_networks"]),
        ("asn_org", &["asrank_entries", "pdb_networks", "pch_ixps"]),
        ("asn_conn", &["asrank_links"]),
    ];

    /// Replaces the date cell of every row of the tables a re-run stage
    /// copies rows of with a marker, keeping their indexes: a row of an
    /// apply onto `w` holds the marker exactly when it was copied from `w`.
    pub(crate) fn mark_rows(w: &mut Igdb) {
        for (name, _) in CARRIED {
            let old = w.db.shared_table(name).unwrap();
            let mut t = Table::new(old.schema().clone());
            let date = old.schema().index_of("as_of_date").unwrap();
            for row in old.rows() {
                let mut row = row.to_vec();
                row[date] = Value::text(MARK);
                t.insert(row).unwrap();
            }
            for c in old.schema().columns() {
                if old.has_index(&c.name) {
                    t.create_index(&c.name).unwrap();
                }
            }
            w.db.replace_table(name, t);
        }
    }

    /// Per record of `new`, whether a prior record is the same, each prior
    /// record taken once.
    fn kept<T: RecordKey>(prior: &[T], new: &[T]) -> Vec<bool> {
        let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in prior.iter().enumerate().rev() {
            by_key.entry(r.key()).or_default().push(i);
        }
        let mut taken = vec![false; prior.len()];
        let mut take = |r: &T| {
            let same = by_key.get(&r.key())?.iter().rev();
            let i = *same.filter(|&&i| !taken[i]).find(|&&i| prior[i].same(r))?;
            taken[i] = true;
            Some(())
        };
        new.iter().map(|r| take(r).is_some()).collect()
    }

    /// Holds an apply `w` of `delta` onto the marked world `p` to the row
    /// rule: each of [`CARRIED`]'s tables is `p`'s own allocation exactly
    /// when its stage is shared or the metro registry is and none of its
    /// sources changed; a row is copied from `p` exactly when the metro
    /// registry is shared and its record is one `p` had (the PCH section
    /// of `asn_org`: when `pch_ixps` is unchanged); and the site metros
    /// and facility→metro map are `p`'s exactly when their source and the
    /// metro registry are. Returns the copied and made facility rows.
    pub(crate) fn assert_rows_carried(
        p: &Igdb,
        w: &Igdb,
        delta: &SnapshotDelta,
        ctx: &str,
    ) -> (usize, usize) {
        let metros = delta.shares(Stage::Metros);
        let unchanged = |sources: &[&str]| metros && !sources.iter().any(|s| delta.changed(s));
        for (name, sources) in CARRIED {
            let (old, new) = (p.db.shared_table(name), w.db.shared_table(name));
            assert_eq!(
                Arc::ptr_eq(&old.unwrap(), &new.unwrap()),
                unchanged(sources),
                "{ctx}: {name} whole"
            );
        }
        for (name, same, source) in [
            (
                "atlas_metros",
                Arc::ptr_eq(&p.atlas_metros, &w.atlas_metros),
                "atlas_nodes",
            ),
            (
                "fac_metros",
                Arc::ptr_eq(&p.fac_metros, &w.fac_metros),
                "pdb_facilities",
            ),
            (
                "fac_metro",
                Arc::ptr_eq(&p.fac_metro, &w.fac_metro),
                "pdb_facilities",
            ),
        ] {
            assert_eq!(same, unchanged(&[source]), "{ctx}: {name}");
        }
        let (old, new) = (p.source_snapshots(), w.source_snapshots());
        fn placed(kept: Vec<bool>, metros: &[Option<usize>]) -> impl Iterator<Item = bool> + '_ {
            kept.into_iter()
                .zip(metros)
                .filter(|(_, m)| m.is_some())
                .map(|(k, _)| k)
        }
        let atlas = placed(kept(&old.atlas_nodes, &new.atlas_nodes), &w.atlas_metros);
        let facilities: Vec<bool> = placed(
            kept(&old.pdb_facilities, &new.pdb_facilities),
            &w.fac_metros,
        )
        .collect();
        let names = || {
            let asrank = kept(&old.asrank_entries, &new.asrank_entries);
            asrank
                .into_iter()
                .chain(kept(&old.pdb_networks, &new.pdb_networks))
        };
        let orgs: Vec<bool> = names().collect();
        let pch = w.db.row_count("asn_org").unwrap() - orgs.len();
        let pch = std::iter::repeat_n(!delta.changed("pch_ixps"), pch);
        let want: [Vec<bool>; 4] = [
            atlas.chain(facilities.iter().copied()).collect(),
            names().collect(),
            orgs.into_iter().chain(pch).collect(),
            kept(&old.asrank_links, &new.asrank_links),
        ];
        for ((name, _), want) in CARRIED.into_iter().zip(want) {
            let copied: Vec<bool> =
                w.db.with_table(name, |t| {
                    let date = t.schema().index_of("as_of_date").unwrap();
                    t.rows()
                        .iter()
                        .map(|r| r[date].as_text() == Some(MARK))
                        .collect()
                })
                .unwrap();
            let want: Vec<bool> = want.into_iter().map(|k| k && metros).collect();
            assert_eq!(copied.len(), want.len(), "{ctx}: {name} rows");
            let wrong = copied.iter().zip(&want).position(|(c, w)| c != w);
            assert_eq!(wrong, None, "{ctx}: {name} row copied against the rule");
        }
        let copied = facilities.iter().filter(|&&k| k && metros).count();
        (copied, facilities.len() - copied)
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
                    ip: Some(Ip4(i as u32)),
                    rtt_ms,
                })
                .collect(),
        }
    }

    fn node(name: &str, lat: f64) -> AtlasNode {
        AtlasNode {
            network: "Net".into(),
            node_name: name.into(),
            city_label: "Kansas City".into(),
            country: "US".into(),
            loc: GeoPoint { lon: -94.5, lat },
        }
    }

    fn facility(id: u32, lon: f64) -> PdbFacility {
        PdbFacility {
            fac_id: id,
            name: format!("Facility {id}").into(),
            city_label: "Ashburn".into(),
            country: "US".into(),
            loc: GeoPoint { lon, lat: 39.0 },
        }
    }

    fn entry(asn: u32, org: &str) -> AsRankEntry {
        AsRankEntry {
            asn: Asn(asn),
            as_name: format!("AS{asn}"),
            org: org.into(),
            cone: 3,
        }
    }

    fn network(id: u32, asn: u32) -> PdbNetwork {
        PdbNetwork {
            net_id: id,
            asn: Asn(asn),
            as_name: format!("AS{asn}"),
            org: "Org".into(),
        }
    }

    /// Every match is one to one and to an equal record; a new record is
    /// unmatched only when every prior record equal to it is taken; and
    /// `removed` is exactly the prior records no match took.
    fn assert_sound<T: RecordKey + Clone>(prior: &[T], new: &[T]) -> RecordMatch {
        let m = match_records(prior, new);
        let mut taken = vec![false; prior.len()];
        for (j, i) in m.matched.iter().enumerate() {
            if let Some(i) = *i {
                assert!(prior[i].same(&new[j]), "record {j} matched to another");
                assert!(!std::mem::replace(&mut taken[i], true), "{i} twice");
            }
        }
        for (j, _) in m.matched.iter().enumerate().filter(|(_, i)| i.is_none()) {
            let free = (0..prior.len()).find(|&i| !taken[i] && prior[i].same(&new[j]));
            assert_eq!(free, None, "record {j} left with an equal prior free");
        }
        let removed: Vec<usize> = (0..prior.len()).filter(|&i| !taken[i]).collect();
        assert_eq!(m.removed, removed);
        m
    }

    /// Per record type: duplicates pair off as far as both sides hold
    /// them, a reversed list matches every record, a removal leaves its
    /// prior record in `removed`, and a record whose float went from `0.0`
    /// to `-0.0` is a different record.
    fn duplicates_reorders_removals<T: RecordKey + Clone>(a: T, b: T, c: T, c_edited: T) {
        let prior = [a.clone(), b.clone(), a.clone(), c.clone()];
        let new = [b.clone(), a.clone(), c_edited, a.clone(), a.clone()];
        let m = assert_sound(&prior, &new);
        assert_eq!(m.matched[0], Some(1));
        assert_eq!(m.matched[2], None, "the edited record is new");
        let mut a_matches = vec![m.matched[1], m.matched[3], m.matched[4]];
        a_matches.sort();
        assert_eq!(a_matches, [None, Some(0), Some(2)], "two copies to pair");
        assert_eq!(m.removed, [3]);
        let reversed: Vec<T> = prior.iter().rev().cloned().collect();
        let m = assert_sound(&prior, &reversed);
        assert!(m.removed.is_empty() && m.matched.iter().all(Option::is_some));
        let m = assert_sound(&prior, &prior[1..]);
        assert_eq!(m.removed, [0]);
        assert_sound(&prior, &[]);
        assert_sound(&[], &prior);
    }

    #[test]
    fn traces_match_one_to_one_by_content() {
        duplicates_reorders_removals(
            trace(1, &[1.0, 2.0]),
            trace(2, &[3.0]),
            trace(3, &[0.0]),
            trace(3, &[-0.0]),
        );
    }

    #[test]
    fn atlas_nodes_match_one_to_one_by_content() {
        duplicates_reorders_removals(
            node("a", 1.0),
            node("b", 2.0),
            node("c", 0.0),
            node("c", -0.0),
        );
    }

    /// A re-surveyed facility keeps its id, and is another record.
    #[test]
    fn facilities_match_one_to_one_by_content() {
        duplicates_reorders_removals(
            facility(1, 1.0),
            facility(2, 2.0),
            facility(3, 0.0),
            facility(3, -0.0),
        );
        let m = match_records(&[facility(1, 1.0)], &[facility(1, 1.03)]);
        assert_eq!(m.matched, [None]);
    }

    #[test]
    fn asrank_records_match_one_to_one_by_content() {
        duplicates_reorders_removals(
            entry(1, "A"),
            entry(2, "B"),
            entry(3, "C"),
            entry(3, "C Holdings"),
        );
        duplicates_reorders_removals(
            (Asn(1), Asn(2)),
            (Asn(2), Asn(3)),
            (Asn(3), Asn(4)),
            (Asn(4), Asn(3)),
        );
        duplicates_reorders_removals(network(1, 1), network(2, 2), network(3, 3), network(3, 4));
    }

    /// Records far from their prior place are matched by the key index,
    /// past the aligned pass's window.
    #[test]
    fn records_past_the_window_match_by_key() {
        let prior: Vec<(Asn, Asn)> = (0..100).map(|i| (Asn(i), Asn(i + 1))).collect();
        let mut new = prior.clone();
        new.rotate_left(50);
        new.remove(10);
        let m = assert_sound(&prior, &new);
        assert_eq!(m.removed, [60]);
        assert_eq!(m.matched[0], Some(50));
        assert_eq!(m.matched[50], Some(1), "the front, matched in line");
    }

    /// Rows per prior record are counted from the section's start; a
    /// record that wrote none has an empty range.
    #[test]
    fn a_record_carry_finds_each_matched_records_rows() {
        let prior: Source<AtlasNode> = vec![node("a", 1.0), node("b", 2.0), node("c", 3.0)].into();
        let new: Source<AtlasNode> = vec![node("c", 3.0), node("b", 2.0), node("d", 4.0)].into();
        let rows = [2, 0, 3];
        let carry = RecordCarry::new("atlas_nodes", &prior, &new, 10, |i| rows[i]);
        assert_eq!(carry.prior_rows(0), Some(12..15));
        assert_eq!(carry.prior_rows(1), Some(12..12));
        assert_eq!(carry.prior_rows(2), None);
        assert_eq!(carry.removed(), [0]);
        assert_eq!(carry.end(), 15);
        let same = RecordCarry::new("atlas_nodes", &prior, &prior.clone(), 0, |_| 1);
        assert_eq!(same.prior_rows(2), Some(2..3));
        assert!(same.removed().is_empty());
    }
}
