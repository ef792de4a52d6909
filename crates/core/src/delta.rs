//! Snapshot deltas: what changed between two validated snapshot sets, and
//! how far into the build pipeline the change reaches.
//!
//! [`diff_snapshots`] compares two *screened* record sets (see
//! [`CleanSnapshots::into_snapshot_set`]) source by source. Because the
//! inputs are post-validation, FK cascades are already closed: a removed
//! atlas node takes its links with it either in the generator or in
//! quarantine, so the diff never sees a dangling reference.
//!
//! The pipeline stages form a fixed order ([`Stage::ALL`], the order the
//! build driver runs them in), and dirtiness is **monotone**: if stage *k*
//! must re-run, every later stage must too, because each stage reads tables
//! and intermediates the earlier ones wrote. The clean stages therefore
//! form a prefix of the build, and `apply_delta` copies their tables
//! verbatim and replays their recorded counter deltas instead of
//! recomputing them.
//!
//! Two decisions live here and nowhere else: which stage reads which
//! source first and last (the `sources!` table — the diff, the narrowing
//! flags and the build driver's release step are generated from it or
//! read it), and whether a stage is shared from the prior world
//! ([`SnapshotDelta::shares`]).

use std::borrow::Cow;

use igdb_synth::sources::SnapshotSet;

use crate::validate::CleanSnapshots;

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

    /// Tables this stage writes (used to copy a clean prefix verbatim).
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

/// Where the build reads one source.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SourceUse {
    pub name: &'static str,
    /// First stage that reads the records. A change to the source dirties
    /// that stage and, by monotonicity, everything after it.
    pub first: Stage,
    /// Last stage that reads the records; once it has finished, a build
    /// that keeps no baseline lets the source go.
    pub last: Stage,
    /// IP resolution depends on the source, by reading it or through a
    /// side product it takes (the metro registry, the IXP maps). A change
    /// to any other source cannot alter a single `ip_asn_dns` row.
    pub ip_input: bool,
}

/// The source→stage map, one row per [`SnapshotSet`] source: `first ..=
/// last` are its first and last consumer, a trailing `ip` marks an input
/// of IP resolution. Rows are in first-consumer order, which is the order
/// [`SnapshotDelta::sources`] reports them in. Everything that walks the
/// sources is generated from it — [`SOURCE_USES`], the per-source diff,
/// and the [`CleanSnapshots`] conversions and release step — so a source
/// without a row does not compile.
macro_rules! sources {
    ($($source:ident: $first:ident ..= $last:ident $($ip:ident)?;)*) => {
        pub(crate) const SOURCE_USES: &[SourceUse] = &[$(SourceUse {
            name: stringify!($source),
            first: Stage::$first,
            last: Stage::$last,
            ip_input: sources!(@flag $($ip)?),
        }),*];

        /// Compares every source, in table order.
        fn diff_sources(old: &SnapshotSet, new: &SnapshotSet) -> Vec<SourceDiff> {
            let mut out = Vec::new();
            $(diff_source(source_use(stringify!($source)), &old.$source, &new.$source, &mut out);)*
            out
        }

        impl CleanSnapshots<'_> {
            /// A set that already passed screening, taken by value: every
            /// source is owned, so a build that keeps no baseline frees
            /// each one as its last consumer finishes, and one that keeps
            /// it moves instead of copying.
            pub fn from_owned(set: SnapshotSet) -> CleanSnapshots<'static> {
                CleanSnapshots {
                    as_of_date: Cow::Owned(set.as_of_date),
                    $($source: Cow::Owned(set.$source),)*
                }
            }

            /// Materializes the screened view as an owned [`SnapshotSet`]
            /// — the exact record set the build consumed, with every
            /// quarantined record already removed; borrowed sources are
            /// copied, owned ones moved. [`diff_snapshots`] diffs against
            /// this, so FK cascades (links whose endpoints were screened
            /// out, memberships of dropped sources) are resolved by the
            /// validator before any delta math runs.
            pub fn into_snapshot_set(self) -> SnapshotSet {
                SnapshotSet {
                    as_of_date: self.as_of_date.into_owned(),
                    $($source: self.$source.into_owned(),)*
                }
            }

            /// Hands back every source whose last consumer is `stage`.
            /// For owned sources (scratch builds) this frees the records
            /// mid-build, so peak RSS tracks the stages still running
            /// rather than the whole input set; for borrowed ones it is
            /// free.
            pub(crate) fn release_consumed(&mut self, stage: Stage) {
                $(if source_use(stringify!($source)).last == stage {
                    self.$source = Cow::Borrowed(&[]);
                })*
            }
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
    };
    (@flag ip) => { true };
    (@flag) => { false };
}

sources! {
    // Metros hands the registry to every later stage, IP resolution
    // included (Hoiho slugs, row labels).
    natural_earth: Metros ..= Metros ip;
    roads: Roads ..= Roads;
    atlas_nodes: Physical ..= Physical;
    atlas_links: Physical ..= Physical;
    pdb_facilities: Physical ..= Physical;
    telegeo: Telegeo ..= Telegeo;
    asrank_entries: Logical ..= Logical;
    asrank_links: Logical ..= Logical;
    pdb_networks: Logical ..= Logical;
    // Logical derives the IXP maps (`ixp_metro`, `ixp_prefix_metro`) IP
    // resolution matches peering-LAN addresses against.
    pdb_ix: Logical ..= Logical ip;
    pch_ixps: Logical ..= AsnLoc;
    // Feeds the label resolver, whose first consumer is the IXP join, and
    // Hoiho's geocode dictionary.
    geo_codes: Logical ..= IpResolution ip;
    // Screened and counted but not loaded into relations — Logical is
    // their conservative home.
    he_exchanges: Logical ..= Logical;
    euroix: Logical ..= Logical;
    pdb_netfac: AsnLoc ..= AsnLoc;
    pdb_netix: AsnLoc ..= AsnLoc;
    ripe_anchors: Probes ..= Probes;
    // Hop rows, then the hop sequences bdrmap refines on.
    ripe_traceroutes: Traceroutes ..= IpResolution ip;
    rdns: IpResolution ..= IpResolution ip;
    bgp_prefixes: IpResolution ..= IpResolution ip;
    anycast_prefixes: IpResolution ..= IpResolution ip;
    hoiho_rules: IpResolution ..= IpResolution ip;
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
    /// The earliest pipeline stage this source feeds.
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
    /// Earliest dirty stage; `None` means the sets are identical and the
    /// whole table prefix can be copied.
    pub first_dirty: Option<Stage>,
    /// The `as_of_date` changed — every dated row changes, so the delta
    /// degenerates to a full rebuild.
    pub date_changed: bool,
    /// None of the sources the IP-resolution stage depends on changed (the
    /// `ip` rows of the `sources!` table). IP resolution sits last in the
    /// pipeline, so monotone prefix dirtiness would re-run it for *every*
    /// non-empty delta — but its input set is narrower than "everything":
    /// atlas, facility, road, telegeo, and AS-Rank churn never reaches it.
    /// When true, `apply_delta` shares the prior's resolution products
    /// (`bdrmap`, `hoiho`, `ip_asn_dns`) instead of recomputing them.
    pub ip_inputs_clean: bool,
    /// The traceroute relation's only inputs — the `ripe_traceroutes`
    /// records and the snapshot date — are unchanged. Like
    /// [`ip_inputs_clean`](Self::ip_inputs_clean) this narrows monotone
    /// prefix dirtiness: atlas or logical churn dirties every stage from
    /// `Physical` on, but re-inserting tens of thousands of identical hop
    /// rows is the single most expensive table load in the suffix. When
    /// true, the stage's table is copied from the prior instead.
    pub traceroute_rows_clean: bool,
}

impl SnapshotDelta {
    /// True when the two sets were record-identical.
    pub fn is_empty(&self) -> bool {
        self.first_dirty.is_none() && !self.date_changed
    }

    /// The changed sources with their record counts, for operator output:
    /// `"atlas_nodes 5012→5009, atlas_links 9100→9094"`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .sources
            .iter()
            .map(|s| format!("{} {}→{}", s.source, s.old_len, s.new_len))
            .collect();
        parts.join(", ")
    }

    /// Whether an apply takes `stage` from the prior world — tables copied,
    /// counter ledger replayed — instead of re-running it: the stage sits
    /// in the clean prefix, or it is one of the two deep stages whose true
    /// input set is narrower than "every stage before it" and the diff
    /// proved those inputs untouched.
    pub fn shares(&self, stage: Stage) -> bool {
        let narrowed_inputs_clean = match stage {
            Stage::Traceroutes => self.traceroute_rows_clean,
            Stage::IpResolution => self.ip_inputs_clean,
            _ => false,
        };
        narrowed_inputs_clean || self.first_dirty.is_none_or(|fd| stage < fd)
    }
}

/// A source changed when the build would read it differently. Every stage
/// consumes its source as an ordered slice and inserts rows in that order,
/// so the comparison is ordered too: a source that comes back rearranged
/// has changed, and a stage is shared only when each source it reads is
/// equal record for record.
fn diff_source<T: PartialEq>(source: &SourceUse, old: &[T], new: &[T], out: &mut Vec<SourceDiff>) {
    if old != new {
        out.push(SourceDiff {
            source: source.name,
            stage: source.first,
            old_len: old.len(),
            new_len: new.len(),
        });
    }
}

/// Diffs two validated snapshot sets. `old` is the set the current world
/// was built from; `new` is the validated candidate.
pub fn diff_snapshots(old: &SnapshotSet, new: &SnapshotSet) -> SnapshotDelta {
    let sources = diff_sources(old, new);

    let date_changed = old.as_of_date != new.as_of_date;
    let first_dirty = if date_changed {
        Some(Stage::Metros)
    } else {
        sources.first().map(|s| s.stage)
    };
    let ip_inputs_clean =
        !date_changed && sources.iter().all(|s| !source_use(s.source).ip_input);
    // The hop relation reads nothing but the source it is first to consume.
    let traceroute_rows_clean =
        !date_changed && sources.iter().all(|s| s.stage != Stage::Traceroutes);
    SnapshotDelta {
        sources,
        first_dirty,
        date_changed,
        ip_inputs_clean,
        traceroute_rows_clean,
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

    #[test]
    fn identical_sets_diff_empty() {
        let snaps = base();
        let d = diff_snapshots(&snaps, &snaps.clone());
        assert!(d.is_empty());
        assert!(d.sources.is_empty());
        assert_eq!(d.first_dirty, None);
    }

    /// The `sources!` table against the ground truth it encodes. The
    /// compiler already holds it against `SnapshotSet`'s fields (the
    /// generated conversions name every one); here it is held against the
    /// sources the validator screens, the order the diff reports them in,
    /// and the documented narrowing inputs and stage assignments.
    #[test]
    fn source_table_covers_every_source_once() {
        let names: Vec<&str> = SOURCE_USES.iter().map(|u| u.name).collect();
        let mut screened: Vec<&str> = igdb_fault::SourceId::ALL.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        screened.sort_unstable();
        assert_eq!(sorted, screened, "one row per screened source, no more");
        for u in SOURCE_USES {
            assert!(u.first <= u.last, "{}: first consumer after last", u.name);
            // Reading a source is depending on it.
            assert!(u.last != Stage::IpResolution || u.ip_input, "{}", u.name);
        }
        assert!(
            SOURCE_USES.windows(2).all(|w| w[0].first <= w[1].first),
            "rows must be in first-consumer order"
        );
        let ip_inputs: Vec<&str> =
            SOURCE_USES.iter().filter(|u| u.ip_input).map(|u| u.name).collect();
        assert_eq!(
            ip_inputs,
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
        // The traceroute narrowing flag keys on this.
        let first_read_by_traceroutes: Vec<&str> = SOURCE_USES
            .iter()
            .filter(|u| u.first == Stage::Traceroutes)
            .map(|u| u.name)
            .collect();
        assert_eq!(first_read_by_traceroutes, ["ripe_traceroutes"]);
        // The sources each delta class churns, and the stage that dirties
        // (`every_delta_class_maps_to_its_stage` checks the generator
        // against the same expectations).
        for (source, stage) in [
            ("roads", Stage::Roads),
            ("atlas_nodes", Stage::Physical),
            ("atlas_links", Stage::Physical),
            ("pdb_facilities", Stage::Physical),
            ("asrank_links", Stage::Logical),
            ("ripe_traceroutes", Stage::Traceroutes),
            ("natural_earth", Stage::Metros),
        ] {
            assert_eq!(source_use(source).first, stage, "{source}");
        }
        // Every record is released by the end of a baseline-free build.
        let snaps = base();
        let (_, report) =
            crate::validate::validate(&snaps, &igdb_fault::BuildPolicy::strict()).unwrap();
        let records: usize =
            igdb_fault::SourceId::ALL.iter().map(|s| report.health(*s).rows_in).sum();
        let mut owned = CleanSnapshots::from_owned(snaps.clone());
        for stage in Stage::ALL {
            owned.release_consumed(stage);
        }
        let d = diff_snapshots(&snaps, &owned.into_snapshot_set());
        assert!(d.sources.iter().all(|s| s.new_len == 0), "a source outlived its last consumer");
        assert_eq!(d.sources.iter().map(|s| s.old_len).sum::<usize>(), records);
    }

    /// A source that comes back rearranged is a changed source: the stage
    /// that reads it first would insert its rows in another order.
    #[test]
    fn reordered_source_dirties_exactly_its_first_stage() {
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
            assert_eq!(d.first_dirty, Some(u.first), "{}", u.name);
        }
        assert!(reordered > SOURCE_USES.len() / 2, "the tiny world left most sources trivial");
    }

    #[test]
    fn every_delta_class_maps_to_its_stage() {
        let snaps = base();
        let expectations = [
            (DeltaClass::RoadChurn, Stage::Roads),
            (DeltaClass::AtlasChurn, Stage::Physical),
            (DeltaClass::AtlasPrune, Stage::Physical),
            (DeltaClass::FacilityChurn, Stage::Physical),
            (DeltaClass::LogicalChurn, Stage::Logical),
            (DeltaClass::TracerouteChurn, Stage::Traceroutes),
            (DeltaClass::MetroAdd, Stage::Metros),
            (DeltaClass::MetroRemove, Stage::Metros),
            (DeltaClass::EveryMetro, Stage::Metros),
        ];
        for (class, stage) in expectations {
            let (new, ops) = generate_delta(&snaps, 7, &[class]);
            assert!(!ops.is_empty(), "{class:?} generated no ops");
            let d = diff_snapshots(&snaps, &new);
            assert_eq!(d.first_dirty, Some(stage), "{class:?}");
        }
    }

    #[test]
    fn metro_add_detected_as_append_only() {
        let snaps = base();
        let (new, _) = generate_delta(&snaps, 3, &[DeltaClass::MetroAdd]);
        // Even a pure append moves Thiessen cells globally, so it dirties
        // the pipeline from its first stage like any other catalogue change.
        assert_eq!(diff_snapshots(&snaps, &new).first_dirty, Some(Stage::Metros));
    }

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
        }
        // A date change re-stamps every dated row: nothing can be shared.
        let mut redated = snaps.clone();
        redated.as_of_date = "2022-06-01".into();
        let d = diff_snapshots(&snaps, &redated);
        assert!(!d.ip_inputs_clean);
        assert!(!d.traceroute_rows_clean);
    }

    #[test]
    fn date_change_forces_full_rebuild() {
        let snaps = base();
        let mut new = snaps.clone();
        new.as_of_date = "2022-06-01".into();
        let d = diff_snapshots(&snaps, &new);
        assert!(d.date_changed);
        assert_eq!(d.first_dirty, Some(Stage::Metros));
        assert!(!d.is_empty());
    }
}
