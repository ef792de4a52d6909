//! The delta-ingestion contract: applying a churned snapshot set to a
//! built world with [`Igdb::apply_delta`] is **byte-identical** to
//! rebuilding from scratch with [`Igdb::try_build`] on the same inputs —
//! database fingerprint (every row, float bit patterns, index contents),
//! quarantine and per-source health, and the deterministic counter
//! stream — for every replacement set: each generated delta class, the
//! same records handed back in another order, and an in-place edit along
//! every edge by which a source reaches a stage after its first reader.
//!
//! Also covered here: epoch-versioned reads (a reader pinned on one
//! epoch never observes a mixture of two worlds), and the golden
//! JSON-lines baseline for the apply path (`tests/golden/delta.jsonl`,
//! bless with `IGDB_BLESS=1`; CI regenerates it via `igdb delta` and
//! gates with `metrics diff`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use igdb_core::igdb_obs::{JsonMode, Registry};
use igdb_core::{BuildPolicy, BuildReport, EpochHandle, Igdb, SnapshotDelta, Stage};
use igdb_net::Ip4;
use igdb_synth::sources::SnapshotSet;
use igdb_synth::{emit_snapshots, generate_delta, DeltaClass, World, WorldConfig};

fn base_snaps() -> SnapshotSet {
    let world = World::generate(WorldConfig::tiny());
    emit_snapshots(&world, "2022-05-03", 400)
}

/// Everything a reader could tell two worlds apart by.
#[derive(Clone, PartialEq)]
struct Capture {
    fingerprint: String,
    report: BuildReport,
    counters: String,
}

impl std::fmt::Debug for Capture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // On mismatch, show the first diverging fingerprint line instead
        // of megabytes of rows.
        f.debug_struct("Capture")
            .field("fingerprint_len", &self.fingerprint.len())
            .field("counters", &self.counters)
            .finish()
    }
}

/// First line where two captures' fingerprints diverge, for assertions.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {i}: {la:?} != {lb:?}");
        }
    }
    format!(
        "lengths differ: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// Applies `next` onto `prior` incrementally under an isolated registry,
/// returning the new world too so applies can chain.
fn apply_onto(prior: &Igdb, next: &SnapshotSet) -> (Igdb, Capture, SnapshotDelta) {
    let reg = Registry::new();
    let (igdb, report, delta) = {
        let _g = reg.install();
        prior
            .apply_delta(next, &BuildPolicy::lenient())
            .expect("delta applies")
    };
    let capture = Capture {
        fingerprint: igdb.db.fingerprint(),
        report,
        counters: reg.counter_snapshot(),
    };
    (igdb, capture, delta)
}

/// Builds `base` outside any registry, then applies `next` onto it.
fn apply_capture(base: &SnapshotSet, next: &SnapshotSet) -> (Capture, SnapshotDelta) {
    let (prior, _) = Igdb::try_build(base, &BuildPolicy::lenient()).expect("base builds");
    let (_, capture, delta) = apply_onto(&prior, next);
    (capture, delta)
}

/// Rebuilds `next` from scratch under an isolated registry.
fn rebuild(next: &SnapshotSet) -> (Igdb, Capture) {
    let reg = Registry::new();
    let (igdb, report) = {
        let _g = reg.install();
        Igdb::try_build(next, &BuildPolicy::lenient()).expect("rebuild builds")
    };
    let capture = Capture {
        fingerprint: igdb.db.fingerprint(),
        report,
        counters: reg.counter_snapshot(),
    };
    (igdb, capture)
}

fn rebuild_capture(next: &SnapshotSet) -> Capture {
    rebuild(next).1
}

fn assert_identical(apply: &Capture, rebuild: &Capture, ctx: &str) {
    assert_eq!(
        apply.fingerprint,
        rebuild.fingerprint,
        "{ctx}: table bytes diverged — {}",
        first_diff(&apply.fingerprint, &rebuild.fingerprint)
    );
    assert_eq!(apply.report, rebuild.report, "{ctx}: report diverged");
    assert_eq!(apply.counters, rebuild.counters, "{ctx}: counters diverged");
}

// ---------------------------------------------------------------------------
// Apply ≡ rebuild, per delta class
// ---------------------------------------------------------------------------

#[test]
fn every_delta_class_applies_byte_identical_to_rebuild() {
    let base = base_snaps();
    for class in DeltaClass::ALL {
        for seed in [3u64, 17] {
            let (next, ops) = generate_delta(&base, seed, &[class]);
            let (apply, delta) = apply_capture(&base, &next);
            let rebuild = rebuild_capture(&next);
            assert_identical(&apply, &rebuild, &format!("{class:?} seed {seed}"));
            if class == DeltaClass::Empty {
                assert!(
                    ops.is_empty() && delta.is_empty(),
                    "empty delta must diff empty"
                );
                assert_eq!(delta.first_dirty, None);
            } else {
                assert!(!ops.is_empty(), "{class:?} generated no ops");
                assert!(!delta.is_empty(), "{class:?} diffed empty");
            }
        }
    }
}

/// Every class at once. (Named for the worker axis it had while the
/// build was parallel.)
#[test]
fn composite_delta_is_worker_count_invariant() {
    let base = base_snaps();
    let classes = [
        DeltaClass::AtlasChurn,
        DeltaClass::FacilityChurn,
        DeltaClass::LogicalChurn,
        DeltaClass::TracerouteChurn,
        DeltaClass::RoadChurn,
    ];
    let (next, _) = generate_delta(&base, 11, &classes);
    let (apply, delta) = apply_capture(&base, &next);
    assert_identical(&apply, &rebuild_capture(&next), "composite");
    // Road churn dirties from the Roads stage on.
    assert_eq!(delta.first_dirty, Some(Stage::Roads));
}

// ---------------------------------------------------------------------------
// The stage ledger holds what the build thread ticked, and all of it
// ---------------------------------------------------------------------------

/// Raises a flag when dropped, unwinding included, so a scoped helper
/// thread that polls it stops even when the test body panics.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// An apply running beside a thread that ticks counters on the same
/// registry (a serving worker beside the churn writer) records only its
/// own ticks: a later apply onto that world replays none of the other
/// thread's.
#[test]
fn another_threads_ticks_stay_out_of_the_ledger() {
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
    let (mid, _) = generate_delta(&base, 3, &[DeltaClass::AtlasChurn]);
    let reg = Registry::new();
    let stop = AtomicBool::new(false);
    let world = std::thread::scope(|s| {
        s.spawn(|| {
            let _g = reg.install();
            while !stop.load(Ordering::Relaxed) {
                igdb_core::igdb_obs::counter("serve.ok", "ping", 1);
                std::thread::yield_now();
            }
        });
        let _stop = RaiseOnDrop(&stop);
        let _g = reg.install();
        // Retry until the other thread is seen ticking during an apply, so
        // the case is never vacuous.
        for _ in 0..20 {
            let before = reg.counter_value("serve.ok", "ping");
            let (world, _, _) = prior
                .apply_delta(&mid, &BuildPolicy::lenient())
                .expect("delta applies");
            if reg.counter_value("serve.ok", "ping") > before {
                return world;
            }
        }
        panic!("the ticking thread never ran during an apply");
    });
    let (next, _) = generate_delta(world.source_snapshots(), 5, &[DeltaClass::TracerouteChurn]);
    let (_, apply, delta) = apply_onto(&world, &next);
    assert!(
        delta.shares(Stage::Metros),
        "the lone apply replays a ledger"
    );
    assert_identical(
        &apply,
        &rebuild_capture(&next),
        "apply after a shared-registry apply",
    );
}

/// A counter a stage ticks with 0 is part of the stream (the key exists),
/// so the ledger keeps it: with no traceroutes, `IpResolution` ticks
/// `build.observed_ips 0`, and an apply that shares the stage replays it.
#[test]
fn zero_ticks_replay_from_the_ledger() {
    let mut base = base_snaps();
    base.ripe_traceroutes = Vec::new().into();
    let (next, _) = generate_delta(&base, 3, &[DeltaClass::AtlasChurn]);
    let (apply, delta) = apply_capture(&base, &next);
    assert!(delta.shares(Stage::IpResolution));
    let rebuild = rebuild_capture(&next);
    assert!(rebuild.counters.contains("build.observed_ips 0\n"));
    assert_identical(
        &apply,
        &rebuild,
        "AtlasChurn onto an empty traceroute corpus",
    );
}

// ---------------------------------------------------------------------------
// Apply ≡ rebuild when the prior is itself an applied or extended world
// ---------------------------------------------------------------------------

/// The sources `a` does not hold as the very records `b` holds, sorted.
fn unshared_sources(a: &SnapshotSet, b: &SnapshotSet) -> Vec<&'static str> {
    macro_rules! unshared {
        ($($source:ident),*) => {{
            // Names every field, so a new source must be listed here.
            let SnapshotSet { as_of_date: _, $($source),* } = a;
            let mut out = Vec::new();
            $(if !$source.shares(&b.$source) {
                out.push(stringify!($source));
            })*
            out.sort_unstable();
            out
        }};
    }
    unshared!(
        atlas_nodes,
        atlas_links,
        pdb_facilities,
        pdb_networks,
        pdb_netfac,
        pdb_ix,
        pdb_netix,
        pch_ixps,
        he_exchanges,
        euroix,
        rdns,
        asrank_entries,
        asrank_links,
        ripe_anchors,
        ripe_traceroutes,
        natural_earth,
        roads,
        telegeo,
        bgp_prefixes,
        anycast_prefixes,
        hoiho_rules,
        geo_codes
    )
}

/// Feed → reorder → traceroute → road, each applied onto the previous
/// apply's output: a stage shared twice replays a ledger entry that was
/// itself replayed, and every epoch must still equal a fresh build. The
/// reorder step (`None`) hands two sources back rearranged, so the
/// traceroute step after it shares `Physical` and `Probes` from a prior
/// that was itself a reordered epoch. Each epoch's baseline holds one copy
/// of what did not change: every source the delta did not name is the
/// prior's own, and every one it named is new.
#[test]
fn chained_applies_stay_byte_identical_to_rebuild() {
    let feed = [
        DeltaClass::AtlasChurn,
        DeltaClass::FacilityChurn,
        DeltaClass::LogicalChurn,
    ];
    let chain: [Option<&[DeltaClass]>; 4] = [
        Some(&feed),
        None,
        Some(&[DeltaClass::TracerouteChurn]),
        Some(&[DeltaClass::RoadChurn]),
    ];
    let (mut cur, _) = Igdb::try_build(&base_snaps(), &BuildPolicy::lenient()).unwrap();
    for (epoch, classes) in chain.into_iter().enumerate() {
        let next = match classes {
            Some(classes) => {
                let (next, ops) =
                    generate_delta(cur.source_snapshots(), 41 + epoch as u64, classes);
                assert!(!ops.is_empty(), "epoch {epoch} generated no ops");
                next
            }
            None => {
                let mut next = cur.source_snapshots().clone();
                next.atlas_nodes.reverse();
                next.ripe_anchors.rotate_left(1);
                next
            }
        };
        let (igdb, apply, delta) = apply_onto(&cur, &next);
        assert!(!delta.is_empty(), "epoch {epoch} diffed empty");
        assert_identical(
            &apply,
            &rebuild_capture(&next),
            &format!("epoch {epoch} {classes:?}"),
        );
        let mut named: Vec<&str> = delta.sources.iter().map(|s| s.source).collect();
        named.sort_unstable();
        assert_eq!(
            unshared_sources(igdb.source_snapshots(), cur.source_snapshots()),
            named,
            "epoch {epoch}: the new baseline shares exactly the sources the delta left alone"
        );
        cur = igdb;
    }
}

// ---------------------------------------------------------------------------
// Apply ≡ rebuild when a source comes back in another order
// ---------------------------------------------------------------------------

/// Three ways a re-pulled dump hands back the same records rearranged.
#[derive(Clone, Copy, Debug)]
enum Reorder {
    Reverse,
    SwapEnds,
    RotateByOne,
}

impl Reorder {
    fn apply<T>(self, records: &mut [T]) {
        match self {
            Reorder::Reverse => records.reverse(),
            Reorder::SwapEnds => records.swap(0, records.len() - 1),
            Reorder::RotateByOne => records.rotate_left(1),
        }
    }
}

/// Every stage consumes its source as an ordered slice and inserts rows in
/// that order, so a rearranged source is a changed one: it must dirty the
/// stage that reads it first, and the applied world must be the rebuilt
/// one.
#[test]
fn reordered_source_applies_byte_identical_to_rebuild() {
    macro_rules! reorderable {
        ($($source:ident: $first:ident,)*) => {
            [$((
                stringify!($source),
                Stage::$first,
                (|set, how| how.apply(&mut set.$source)) as fn(&mut SnapshotSet, Reorder),
            )),*]
        };
    }
    let sources = reorderable! {
        roads: Roads,
        atlas_nodes: Physical,
        atlas_links: Physical,
        pdb_facilities: Physical,
        telegeo: Telegeo,
        asrank_links: Logical,
        pdb_networks: Logical,
        pdb_netix: AsnLoc,
        ripe_anchors: Probes,
        ripe_traceroutes: Traceroutes,
        rdns: IpResolution,
        bgp_prefixes: IpResolution,
    };
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
    for (source, first, reorder) in sources {
        for how in [Reorder::Reverse, Reorder::SwapEnds, Reorder::RotateByOne] {
            let mut next = base.clone();
            reorder(&mut next, how);
            let (_, apply, delta) = apply_onto(&prior, &next);
            let ctx = format!("{source} {how:?}");
            assert!(!delta.is_empty(), "{ctx}: diffed empty");
            assert_eq!(delta.first_dirty, Some(first), "{ctx}");
            assert_identical(&apply, &rebuild_capture(&next), &ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// Apply ≡ rebuild along every cross-stage edge of the source→stage map
// ---------------------------------------------------------------------------

/// What a stage's output is read off: a table it writes, or — for
/// `Roads`, which writes none — the node count of its road graph.
#[derive(Clone, Copy, Debug)]
enum Output {
    Table(&'static str),
    RoadNodes,
}

impl Output {
    fn read(self, igdb: &Igdb) -> String {
        match self {
            Output::Table(name) => igdb
                .db
                .with_table(name, |t| {
                    let mut out = String::new();
                    t.fingerprint_into(&mut out);
                    out
                })
                .expect("table exists"),
            Output::RoadNodes => igdb.roads.engine().node_count().to_string(),
        }
    }
}

/// Moves one field of every record to the next record, in place.
fn rotate<T, F: Clone>(records: &mut [T], field: impl Fn(&mut T) -> &mut F) {
    let values: Vec<F> = records.iter_mut().map(|r| field(r).clone()).collect();
    for (r, v) in records.iter_mut().zip(values.iter().cycle().skip(1)) {
        *field(r) = v.clone();
    }
}

fn rename_metros(s: &mut SnapshotSet) {
    for p in &mut s.natural_earth {
        p.name.push_str(" Heights");
    }
}

/// A stage's output can depend on a source an earlier stage reads first:
/// through a side product of that stage (the metro registry, the road
/// graph, the facility→metro map, the network→ASN map, the label resolver,
/// the IXP maps), or by reading it too. Each case edits one source in place
/// so that such a stage's output changes — where the stage reads no other
/// changed source — and an edge missing from the `sources!` table would
/// make the apply share the stage and keep the prior's rows. The same
/// cases hold the products an apply carries into a re-run stage (the label
/// resolver, the Hoiho engine) to every input they are made from: the
/// `geo_codes` cases and the `hoiho_rules` one fail if either is taken
/// from the prior across a change to one. The road and trace edits below
/// hold the road memo and the trace carry to theirs.
#[test]
fn cross_stage_edges_apply_byte_identical_to_rebuild() {
    type Edit = fn(&mut SnapshotSet);
    let cases: [(&str, Stage, Edit, Output); 18] = [
        (
            "natural_earth",
            Stage::Roads,
            |s| {
                // A metro no road reaches still widens the graph.
                let mut p = s.natural_earth[0].clone();
                p.name = "Edgeville".into();
                p.loc = igdb_geo::GeoPoint::new(p.loc.lon + 2.5, p.loc.lat - 1.5);
                s.natural_earth.push(p);
            },
            Output::RoadNodes,
        ),
        (
            "natural_earth",
            Stage::CityTables,
            |s| {
                for p in &mut s.natural_earth {
                    p.population += 1;
                }
            },
            Output::Table("city_points"),
        ),
        (
            "natural_earth",
            Stage::Physical,
            rename_metros,
            Output::Table("phys_nodes"),
        ),
        (
            "natural_earth",
            Stage::Telegeo,
            rename_metros,
            Output::Table("land_points"),
        ),
        (
            "natural_earth",
            Stage::Logical,
            rename_metros,
            Output::Table("ixp_prefixes"),
        ),
        (
            "natural_earth",
            Stage::AsnLoc,
            rename_metros,
            Output::Table("asn_loc"),
        ),
        (
            "natural_earth",
            Stage::Probes,
            rename_metros,
            Output::Table("probes"),
        ),
        (
            "natural_earth",
            Stage::IpResolution,
            rename_metros,
            Output::Table("ip_asn_dns"),
        ),
        (
            "roads",
            Stage::Physical,
            |s| {
                for r in &mut s.roads {
                    r.length_km *= 1.01;
                }
            },
            Output::Table("phys_conn"),
        ),
        (
            "pdb_facilities",
            Stage::AsnLoc,
            |s| rotate(&mut s.pdb_facilities, |f| &mut f.loc),
            Output::Table("asn_loc"),
        ),
        (
            "pdb_networks",
            Stage::AsnLoc,
            |s| rotate(&mut s.pdb_networks, |n| &mut n.asn),
            Output::Table("asn_loc"),
        ),
        (
            "pdb_ix",
            Stage::AsnLoc,
            |s| rotate(&mut s.pdb_ix, |ix| &mut ix.city_label),
            Output::Table("asn_loc"),
        ),
        (
            "pdb_ix",
            Stage::IpResolution,
            |s| rotate(&mut s.pdb_ix, |ix| &mut ix.city_label),
            Output::Table("ip_asn_dns"),
        ),
        (
            "pch_ixps",
            Stage::AsnLoc,
            |s| rotate(&mut s.pch_ixps, |x| &mut x.city_label),
            Output::Table("asn_loc"),
        ),
        (
            "geo_codes",
            Stage::AsnLoc,
            |s| rotate(&mut s.geo_codes, |c| &mut c.1),
            Output::Table("asn_loc"),
        ),
        (
            "geo_codes",
            Stage::IpResolution,
            |s| rotate(&mut s.geo_codes, |c| &mut c.1),
            Output::Table("ip_asn_dns"),
        ),
        (
            // The Hoiho engine is made from the rules, the geocodes and
            // the metro registry: an apply may take the prior's only when
            // all three are unchanged.
            "hoiho_rules",
            Stage::IpResolution,
            |s| rotate(&mut s.hoiho_rules, |r| &mut r.pattern),
            Output::Table("ip_asn_dns"),
        ),
        (
            "ripe_traceroutes",
            Stage::IpResolution,
            |s| {
                for t in &mut s.ripe_traceroutes {
                    t.hops.truncate(t.hops.len() / 2);
                }
            },
            Output::Table("ip_asn_dns"),
        ),
    ];
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
    for (source, stage, edit, output) in cases {
        let ctx = format!("{source} → {stage:?}");
        let mut next = base.clone();
        edit(&mut next);
        let (applied, apply, delta) = apply_onto(&prior, &next);
        let named: Vec<&str> = delta.sources.iter().map(|s| s.source).collect();
        assert_eq!(named, [source], "{ctx}: the edit touched another source");
        let (rebuilt, rebuild) = rebuild(&next);
        assert_identical(&apply, &rebuild, &ctx);
        assert_eq!(output.read(&applied), output.read(&rebuilt), "{ctx}");
        assert_ne!(
            output.read(&applied),
            output.read(&prior),
            "{ctx}: the edit left {output:?} as it was"
        );
    }
    road_edits_apply_byte_identical_to_rebuild(&base, &prior);
    trace_edits_apply_byte_identical_to_rebuild(&base, &prior);
    sign_of_zero_edits_apply_byte_identical_to_rebuild(&base, &prior);
}

type Edit = Box<dyn Fn(&mut SnapshotSet)>;

/// An edit no generated delta makes, checked like a cross-stage case, and
/// for whether the apply carried a memo across it.
struct Case {
    name: &'static str,
    sources: &'static [&'static str],
    /// An edit of the base the prior is built from.
    base_edit: Option<Edit>,
    edit: Edit,
    /// A table the edit changes.
    output: Output,
    /// Whether the apply carries the memo across the edit.
    carries: bool,
}

/// Applies each case onto `prior` (or onto a prior built from the case's
/// edited base): the delta names exactly the case's sources, the apply is
/// byte-identical to a rebuild and changed the case's output, and the perf
/// counter `carried` (name, label) is non-zero exactly when the case says
/// the memo carries.
fn run_cases(base: &SnapshotSet, prior: &Igdb, cases: Vec<Case>, carried: (&str, &str)) {
    for Case {
        name,
        sources,
        base_edit,
        edit,
        output,
        carries,
    } in cases
    {
        let (mut from_base, mut next) = (base.clone(), base.clone());
        let edited_prior;
        let prior = match base_edit {
            Some(base_edit) => {
                base_edit(&mut from_base);
                base_edit(&mut next);
                edited_prior = Igdb::try_build(&from_base, &BuildPolicy::lenient())
                    .expect("edited base builds")
                    .0;
                &edited_prior
            }
            None => prior,
        };
        edit(&mut next);
        let (applied, apply, delta) = apply_onto(prior, &next);
        let named: BTreeSet<&str> = delta.sources.iter().map(|s| s.source).collect();
        assert_eq!(named, sources.iter().copied().collect(), "{name}: sources");
        let (rebuilt, rebuild) = rebuild(&next);
        assert_identical(&apply, &rebuild, name);
        assert_eq!(output.read(&applied), output.read(&rebuilt), "{name}");
        assert_ne!(
            output.read(&applied),
            output.read(prior),
            "{name}: the edit left {output:?} as it was"
        );
        let reg = Registry::new();
        {
            let _g = reg.install();
            prior.apply_delta(&next, &BuildPolicy::lenient()).unwrap();
        }
        let hits = reg.perf_value(carried.0, carried.1);
        assert_eq!(hits > 0, carries, "{name}: {hits} {carried:?}");
    }
}

/// The trace edits no generated delta makes. Where the trace list is the
/// one input of IP resolution that changed, the apply carries the prior's
/// hop rows, border-map votes and per-address resolution
/// (`delta.records_carried{ripe_traceroutes}` counts the traces it matched): an address no
/// prior trace held must be resolved in full — its PTR record read from
/// `rdns` — and an address whose last trace left must leave `ip_asn_dns`
/// and fall back to plain LPM. With `rdns` or `bgp_prefixes` changed too,
/// nothing carries.
fn trace_edits_apply_byte_identical_to_rebuild(base: &SnapshotSet, prior: &Igdb) {
    let mut traces_of: BTreeMap<Ip4, BTreeSet<usize>> = BTreeMap::new();
    for (i, t) in base.ripe_traceroutes.iter().enumerate() {
        for ip in t.hops.iter().filter_map(|h| h.ip) {
            traces_of.entry(ip).or_default().insert(i);
        }
    }
    // An address no trace reaches, with a PTR record.
    let unseen = base
        .rdns
        .iter()
        .find(|r| !traces_of.contains_key(&r.ip))
        .expect("an rDNS record of an address no trace reaches")
        .ip;
    // The one trace that holds some address.
    let lone = traces_of
        .values()
        .find(|ts| ts.len() == 1)
        .and_then(|ts| ts.first().copied())
        .expect("an address only one trace holds");
    let drop_first = |s: &mut SnapshotSet| {
        s.ripe_traceroutes.remove(0);
    };
    let hops = Output::Table("traceroutes");
    let ips = Output::Table("ip_asn_dns");
    let cases = vec![
        Case {
            name: "traces: a trace through an address no trace reached",
            sources: &["ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(move |s| {
                let mut t = s.ripe_traceroutes[0].clone();
                let mid = t.hops.len() / 2;
                t.hops[mid].ip = Some(unseen);
                s.ripe_traceroutes.push(t);
            }),
            output: ips,
            carries: true,
        },
        Case {
            name: "traces: the only trace holding an address removed",
            sources: &["ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(move |s| {
                s.ripe_traceroutes.remove(lone);
            }),
            output: ips,
            carries: true,
        },
        Case {
            name: "traces: list reversed",
            sources: &["ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(|s| s.ripe_traceroutes.reverse()),
            output: hops,
            carries: true,
        },
        Case {
            name: "traces: a trace duplicated",
            sources: &["ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(|s| {
                let t = s.ripe_traceroutes[1].clone();
                s.ripe_traceroutes.insert(0, t);
            }),
            output: hops,
            carries: true,
        },
        Case {
            name: "traces and rdns",
            sources: &["rdns", "ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(move |s| {
                drop_first(s);
                rotate(&mut s.rdns, |r| &mut r.hostname);
            }),
            output: ips,
            carries: false,
        },
        Case {
            name: "traces and bgp_prefixes",
            sources: &["bgp_prefixes", "ripe_traceroutes"],
            base_edit: None,
            edit: Box::new(move |s| {
                drop_first(s);
                rotate(&mut s.bgp_prefixes, |r| &mut r.origin);
            }),
            output: ips,
            carries: false,
        },
    ];
    run_cases(
        base,
        prior,
        cases,
        ("delta.records_carried", "ripe_traceroutes"),
    );
}

/// `0.0` and `-0.0` are equal as floats but not as cells: the fingerprint
/// renders a float by its bits. Flipping the sign of one zero is a change
/// the diff must see — here an RTT (which the trace carry then does not
/// match, so the trace's rows are rebuilt) and a metro's latitude.
fn sign_of_zero_edits_apply_byte_identical_to_rebuild(base: &SnapshotSet, prior: &Igdb) {
    let cases = vec![
        Case {
            name: "sign of zero: an RTT",
            sources: &["ripe_traceroutes"],
            base_edit: Some(Box::new(|s| s.ripe_traceroutes[0].hops[0].rtt_ms = 0.0)),
            edit: Box::new(|s| s.ripe_traceroutes[0].hops[0].rtt_ms = -0.0),
            output: Output::Table("traceroutes"),
            carries: true,
        },
        Case {
            name: "sign of zero: a metro's latitude",
            sources: &["natural_earth"],
            base_edit: Some(Box::new(|s| s.natural_earth[0].loc.lat = 0.0)),
            edit: Box::new(|s| s.natural_earth[0].loc.lat = -0.0),
            output: Output::Table("city_points"),
            carries: false,
        },
    ];
    run_cases(
        base,
        prior,
        cases,
        ("delta.records_carried", "ripe_traceroutes"),
    );
}

/// A roadway pair of `world` whose route has an intermediate metro and no
/// segment joining its ends, with that route.
fn routed_pair(world: &Igdb) -> Vec<usize> {
    let pairs: BTreeSet<(usize, usize)> = world
        .db
        .with_table("phys_conn", |t| {
            t.iter()
                .filter(|(_, r)| r[8].as_text() == Some("roadway"))
                .map(|(_, r)| {
                    (
                        r[0].as_int().unwrap() as usize,
                        r[3].as_int().unwrap() as usize,
                    )
                })
                .collect()
        })
        .expect("phys_conn exists");
    let adjacent = |a: usize, b: usize| {
        let roads = &world.source_snapshots().roads;
        roads
            .iter()
            .any(|r| (r.a, r.b) == (a, b) || (r.a, r.b) == (b, a))
    };
    pairs
        .into_iter()
        .filter(|&(a, b)| !adjacent(a, b))
        .find_map(|(a, b)| {
            let (path, _) = world.roads.shortest_path(a, b)?;
            (path.len() >= 3).then_some(path)
        })
        .expect("a roadway route with an intermediate metro")
}

/// The load index of the first segment joining `a` and `b`.
fn first_segment(s: &SnapshotSet, a: usize, b: usize) -> usize {
    s.roads
        .iter()
        .position(|r| (r.a, r.b) == (a, b) || (r.a, r.b) == (b, a))
        .expect("adjacent metros")
}

/// The road edits no generated delta makes, each applied both ways a road
/// delta can go — the road memo carried across the change, or started
/// cold because a route could have shortened — and with `natural_earth`
/// beside it, where `Metros` re-runs and nothing carries. Each edit moves
/// the `phys_conn` row of one routed pair, so a memo that kept a payload
/// the change made stale diverges from the rebuild.
fn road_edits_apply_byte_identical_to_rebuild(base: &SnapshotSet, prior: &Igdb) {
    let path = routed_pair(prior);
    let (from, to, hop) = (path[0], path[path.len() - 1], (path[0], path[1]));
    let (_, route_km) = prior.roads.shortest_path(from, to).unwrap();
    let first = first_segment(base, hop.0, hop.1);
    let hop_max_km = base
        .roads
        .iter()
        .filter(|r| [(r.a, r.b), (r.b, r.a)].contains(&hop))
        .map(|r| r.length_km)
        .fold(0.0, f64::max);
    // A longer parallel segment loaded ahead of the hop's own: routes run
    // on the shorter one and draw this one's geometry.
    let detour = move |s: &mut SnapshotSet| {
        let mut d = s.roads[first].clone();
        d.length_km = hop_max_km * 1.5;
        let mid = d.path[0];
        d.path
            .insert(1, igdb_geo::GeoPoint::new(mid.lon + 0.25, mid.lat + 0.25));
        s.roads.insert(first, d);
    };
    let reshape = move |s: &mut SnapshotSet| {
        let i = first_segment(s, hop.0, hop.1);
        let p = s.roads[i].path[0];
        s.roads[i]
            .path
            .insert(1, igdb_geo::GeoPoint::new(p.lon - 0.25, p.lat));
    };
    let output = Output::Table("phys_conn");
    let cases = vec![
        Case {
            name: "roads: added segment",
            sources: &["roads"],
            base_edit: None,
            edit: Box::new(move |s| {
                let mut shortcut = s.roads[first].clone();
                (shortcut.a, shortcut.b, shortcut.length_km) = (from, to, route_km / 2.0);
                s.roads.push(shortcut);
            }),
            output,
            carries: false,
        },
        Case {
            name: "roads: shortened segment",
            sources: &["roads"],
            base_edit: None,
            edit: Box::new(move |s| s.roads[first].length_km /= 2.0),
            output,
            carries: false,
        },
        Case {
            name: "roads: first-loaded of two parallel segments removed",
            sources: &["roads"],
            base_edit: Some(Box::new(detour)),
            edit: Box::new(move |s| {
                s.roads.remove(first);
            }),
            output,
            carries: true,
        },
        Case {
            name: "roads: geometry-only mutation at equal length",
            sources: &["roads"],
            base_edit: None,
            edit: Box::new(reshape),
            output,
            carries: true,
        },
        Case {
            name: "roads: roads and natural_earth together",
            sources: &["natural_earth", "roads"],
            base_edit: None,
            edit: Box::new(move |s| {
                rename_metros(s);
                reshape(s);
            }),
            output,
            carries: false,
        },
    ];
    // A carried payload is a memo hit, and a cold build asks each pair once.
    run_cases(base, prior, cases, ("corridor.cache_hits", "roads"));
}

/// An apply shares the untouched stages' tables with the prior by
/// reference. A §4.4 row added to either world afterwards copies `asn_loc`
/// first, so the other world's bytes do not move.
#[test]
fn inferred_row_on_either_world_leaves_the_other_untouched() {
    let base = base_snaps();
    let (next, _) = generate_delta(&base, 3, &[DeltaClass::TracerouteChurn]);
    for write_prior in [true, false] {
        let (mut prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
        let (mut applied, _, delta) = prior.apply_delta(&next, &BuildPolicy::lenient()).unwrap();
        assert!(delta.shares(Stage::AsnLoc));
        let (writer, reader) = if write_prior {
            (&mut prior, &applied)
        } else {
            (&mut applied, &prior)
        };
        let (before, rows) = (
            reader.db.fingerprint(),
            writer.db.row_count("asn_loc").unwrap(),
        );
        writer.add_inferred_location(igdb_net::Asn(64_512), 0);
        assert_eq!(writer.db.row_count("asn_loc").unwrap(), rows + 1);
        assert!(
            reader.db.fingerprint() == before,
            "write_prior {write_prior}: the row leaked"
        );
    }
}

/// `apply_inferences` adds `asn_loc` rows the stage driver never wrote.
/// A prior holding them may not be copied from — not even by a delta that
/// would otherwise share `AsnLoc` — or the inferred rows leak into a world
/// whose sources never produced them.
#[test]
fn apply_onto_world_with_registered_inferences_is_byte_identical_to_rebuild() {
    use igdb_core::analysis::beliefprop::{apply_inferences, propagate, BeliefPropParams};
    let base = base_snaps();
    for class in [
        DeltaClass::Empty,
        DeltaClass::TracerouteChurn,
        DeltaClass::AtlasChurn,
    ] {
        let (mut prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
        let report = propagate(&prior, &BeliefPropParams::default());
        assert!(
            apply_inferences(&mut prior, &report) > 0,
            "no inference to register"
        );
        let (next, _) = generate_delta(prior.source_snapshots(), 29, &[class]);
        let (_, apply, _) = apply_onto(&prior, &next);
        assert_identical(
            &apply,
            &rebuild_capture(&next),
            &format!("inferences + {class:?}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Warm-graph repair: migrated corridors answer identically
// ---------------------------------------------------------------------------

/// The pair multiset as a set of `(from, to, km bits)`, for the checks
/// below (no pair repeats within one world).
fn pair_set(igdb: &Igdb) -> BTreeSet<(usize, usize, u64)> {
    igdb.phys_pairs
        .iter()
        .map(|&(a, b, km)| (a, b, km.to_bits()))
        .collect()
}

#[test]
fn repaired_phys_graph_answers_match_cold_rebuild() {
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
    // Warm the prior graph the way a serving deployment would: corridors
    // populated.
    let g = prior.phys_graph();
    let mut ws = igdb_core::SpWorkspace::new();
    let n = prior.metros.len();
    let warmed: Vec<(usize, usize)> = (0..n)
        .step_by(3)
        .map(|from| (from, (from + 7) % n))
        .collect();
    for &(from, to) in &warmed {
        let _ = g.shortest_path_cached(&mut ws, from, to);
    }
    // Removal-only churn: the corridor-migration fast path. (Seed 39 drops
    // three pairs on the tiny world; many seeds only thin parallel links.)
    let (next, _) = generate_delta(&base, 39, &[DeltaClass::AtlasPrune]);
    let (applied, _, _) = prior
        .apply_delta(&next, &BuildPolicy::lenient())
        .expect("apply");
    let (old_pairs, pruned_pairs) = (pair_set(&prior), pair_set(&applied));
    assert!(
        pruned_pairs.is_subset(&old_pairs) && pruned_pairs.len() < old_pairs.len(),
        "AtlasPrune must only remove pairs"
    );
    let ga = applied.phys_graph();
    let mut wa = igdb_core::SpWorkspace::new();

    // Which corridors were carried is read off the miss counter, not off
    // the delta: a pair routed before the prune, whose path avoids every
    // metro that lost a pair, answers from the migrated entry.
    let touched: BTreeSet<usize> = old_pairs
        .difference(&pruned_pairs)
        .flat_map(|&(a, b, _)| [a, b])
        .collect();
    let (from, to, route) = warmed
        .iter()
        .find_map(|&(from, to)| {
            let route = g.shortest_path_cached(&mut ws, from, to)?;
            (route.0.len() > 2 && route.0.iter().all(|m| !touched.contains(m)))
                .then_some((from, to, route))
        })
        .expect("a warmed multi-hop corridor avoids the pruned metros");
    let reg = Registry::new();
    let _g = reg.install();
    let misses = || reg.perf_value("corridor.cache_misses", "phys");
    assert_eq!(
        ga.shortest_path_cached(&mut wa, from, to),
        Some(route.clone())
    );
    assert_eq!(
        misses(),
        0,
        "a corridor the prune left intact was not carried"
    );
    // A delta whose pair multiset gains or re-weights an entry could have
    // shortened any route: the same pair starts cold. (Atlas churn never
    // adds a pair on the tiny world; a re-measured road re-weights some.)
    let (road_snaps, _) = generate_delta(&base, 5, &[DeltaClass::RoadChurn]);
    let (reweighted, _, _) = prior
        .apply_delta(&road_snaps, &BuildPolicy::lenient())
        .expect("apply");
    assert!(
        !pair_set(&reweighted).is_subset(&old_pairs),
        "RoadChurn seed 5 must re-weight a pair"
    );
    let _ = reweighted
        .phys_graph()
        .shortest_path_cached(&mut wa, from, to);
    assert_eq!(misses(), 1, "a corridor was carried across a re-weight");

    let (rebuilt, _) = Igdb::try_build(&next, &BuildPolicy::lenient()).unwrap();
    assert_same_answers(&applied, &rebuilt, "AtlasPrune seed 39");
}

/// Every pair answers on `warm`'s graph as on `cold`'s.
fn assert_same_answers(warm: &Igdb, cold: &Igdb, ctx: &str) {
    let (ga, gb) = (warm.phys_graph(), cold.phys_graph());
    let mut wa = igdb_core::SpWorkspace::new();
    let mut wb = igdb_core::SpWorkspace::new();
    let n = cold.metros.len();
    assert_eq!(warm.metros.len(), n, "{ctx}");
    for from in 0..n {
        for to in (from..n).step_by(2) {
            assert_eq!(
                ga.shortest_path_cached(&mut wa, from, to),
                gb.shortest_path_cached(&mut wb, from, to),
                "{ctx}: ({from}, {to})"
            );
        }
    }
}

/// The routing graph, the parsed geometries and the segment index are
/// `Physical`'s products: an apply that shares `Physical` hands on the
/// prior's, filled, and one that re-runs it fills its own once.
#[test]
fn derived_products_ride_with_physical() {
    use igdb_core::analysis::intertubes::compare;
    let world = World::generate(WorldConfig::tiny());
    let base = emit_snapshots(&world, "2022-05-03", 400);
    let links = igdb_synth::intertubes::intertubes_recreation(&world.cities, &world.row);
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
    let n = prior.metros.len();
    let warmed: Vec<(usize, usize)> = (0..n)
        .step_by(3)
        .map(|from| (from, (from + 7) % n))
        .collect();
    let mut ws = igdb_core::SpWorkspace::new();
    for &(from, to) in &warmed {
        let _ = prior.phys_graph().shortest_path_cached(&mut ws, from, to);
    }
    let report = compare(&prior, &links);
    let traced = |f: &dyn Fn()| {
        let reg = Registry::new();
        let _g = reg.install();
        f();
        reg
    };
    let segment_fill = |reg: &Registry| reg.json_lines(JsonMode::Full).contains("derived.fill_us");

    for class in [DeltaClass::TracerouteChurn, DeltaClass::LogicalChurn] {
        let (next, _) = generate_delta(&base, 3, &[class]);
        let (applied, _, delta) = prior.apply_delta(&next, &BuildPolicy::lenient()).unwrap();
        assert!(delta.shares(Stage::Physical), "{class:?}");
        assert!(
            std::ptr::eq(applied.phys_path_geometries(), prior.phys_path_geometries()),
            "{class:?}: the geometries were parsed again"
        );
        let reg = traced(&|| {
            assert_eq!(compare(&applied, &links), report, "{class:?}");
            let mut ws = igdb_core::SpWorkspace::new();
            for &(from, to) in &warmed {
                let _ = applied.phys_graph().shortest_path_cached(&mut ws, from, to);
            }
        });
        assert!(
            !segment_fill(&reg),
            "{class:?}: the segment index was refilled"
        );
        assert_eq!(
            reg.perf_value("corridor.cache_misses", "phys"),
            0,
            "{class:?}"
        );
        let (rebuilt, _) = rebuild(&next);
        assert_same_answers(&applied, &rebuilt, &format!("{class:?}"));
    }

    let (next, _) = generate_delta(&base, 3, &[DeltaClass::AtlasChurn]);
    let (applied, _, delta) = prior.apply_delta(&next, &BuildPolicy::lenient()).unwrap();
    assert!(!delta.shares(Stage::Physical));
    let fills: Vec<bool> = (0..2)
        .map(|_| segment_fill(&traced(&|| drop(compare(&applied, &links)))))
        .collect();
    assert_eq!(
        fills,
        [true, false],
        "AtlasChurn: the segment index fills exactly once"
    );
}

// ---------------------------------------------------------------------------
// Epoch-versioned reads: old-or-new, never torn
// ---------------------------------------------------------------------------

/// A cross-table consistency tuple: any mixture of two worlds breaks it.
fn world_signature(igdb: &Igdb) -> (usize, usize, usize, String) {
    (
        igdb.db.row_count("phys_conn").unwrap(),
        igdb.db.row_count("asn_conn").unwrap(),
        igdb.db.row_count("traceroutes").unwrap(),
        igdb.as_of_date.clone(),
    )
}

#[test]
fn epoch_readers_see_old_or_new_never_torn() {
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
    let (next_snaps, _) = generate_delta(
        prior.source_snapshots(),
        31,
        &[
            DeltaClass::AtlasChurn,
            DeltaClass::LogicalChurn,
            DeltaClass::TracerouteChurn,
        ],
    );
    let (next, _, _) = prior
        .apply_delta(&next_snaps, &BuildPolicy::lenient())
        .unwrap();
    let signatures = vec![world_signature(&prior), world_signature(&next)];
    let handle = Arc::new(EpochHandle::new(prior));
    let stop = Arc::new(AtomicBool::new(false));
    let iterations = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            let iterations = Arc::clone(&iterations);
            let signatures = signatures.clone();
            std::thread::spawn(move || {
                let mut seen: BTreeSet<u64> = BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let epoch = handle.current();
                    let got = world_signature(&epoch.igdb);
                    assert_eq!(
                        got, signatures[epoch.number as usize],
                        "epoch {} observed torn",
                        epoch.number
                    );
                    seen.insert(epoch.number);
                    iterations.fetch_add(1, Ordering::Relaxed);
                }
                seen
            })
        })
        .collect();
    // Let every reader observe epoch 0, publish mid-flight, then let them
    // observe epoch 1. Iteration counts instead of sleeps: no flaky
    // timing assumptions.
    while iterations.load(Ordering::Relaxed) < 64 {
        std::thread::yield_now();
    }
    assert_eq!(handle.publish(next), 1);
    let after = iterations.load(Ordering::Relaxed);
    while iterations.load(Ordering::Relaxed) < after + 64 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let mut seen = BTreeSet::new();
    for r in readers {
        seen.extend(r.join().expect("reader clean"));
    }
    assert!(seen.contains(&1), "no reader ever saw the published epoch");
}

// ---------------------------------------------------------------------------
// Apply ≡ rebuild over faulty input, and the carries an apply takes
// ---------------------------------------------------------------------------

/// Applies `next` onto `prior` and rebuilds it, under `lenient` (both
/// succeed, byte-identical in rows, report, quarantine order and counters)
/// and under `strict` (both return the same typed error, or both succeed
/// with the same rows). Returns the lenient apply's perf registry.
fn assert_apply_is_rebuild(prior: &Igdb, next: &SnapshotSet, ctx: &str) -> Registry {
    let (_, apply, _) = apply_onto(prior, next);
    assert_identical(&apply, &rebuild_capture(next), ctx);
    let strict = BuildPolicy::strict();
    match (
        prior.apply_delta(next, &strict),
        Igdb::try_build(next, &strict),
    ) {
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: strict errors"),
        (Ok((a, _, _)), Ok((b, _))) => {
            assert_eq!(a.db.fingerprint(), b.db.fingerprint(), "{ctx}: strict")
        }
        (a, b) => panic!("{ctx}: strict apply {:?}, rebuild {:?}", a.err(), b.err()),
    }
    let reg = Registry::new();
    {
        let _g = reg.install();
        prior.apply_delta(next, &BuildPolicy::lenient()).unwrap();
    }
    reg
}

/// Faults injected on both sides: into the set the prior is built from,
/// and into a delta of the prior's screened set. Every record-level fault
/// class appears on each side, with every delta class.
#[test]
fn faulty_inputs_apply_as_they_rebuild() {
    use igdb_synth::faults::{inject_faults, FaultClass};
    let classes = FaultClass::ALL_RECORD_CLASSES;
    for (k, faults) in classes.chunks(3).enumerate() {
        let mut base = base_snaps();
        inject_faults(&mut base, k as u64, faults);
        let (prior, report) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
        assert!(!report.is_clean(), "case {k}: the base holds faults");
        let deltas = [DeltaClass::ALL[k % 10], DeltaClass::ALL[(k + 3) % 10]];
        let (mut next, _) = generate_delta(prior.source_snapshots(), k as u64, &deltas);
        let next_faults: Vec<FaultClass> = (0..3).map(|i| classes[(3 * k + 7 + i) % 19]).collect();
        inject_faults(&mut next, k as u64 + 100, &next_faults);
        let ctx = format!("case {k}: {faults:?} then {deltas:?} with {next_faults:?}");
        assert_apply_is_rebuild(&prior, &next, &ctx);
    }
}

/// A source the candidate shares with the baseline is screened again when
/// its check reads a source that changed: each edit below leaves the
/// dependent source's records the baseline's own, and makes some of them
/// dangle. Its screen must not be carried, every screen that reads nothing
/// changed must be (`validate.screens_carried`), and the apply must equal
/// the rebuild, which quarantines the dangling records.
#[test]
fn a_kept_source_whose_check_reads_a_changed_one_is_screened_again() {
    type Edit = fn(&mut SnapshotSet);
    let cases: [(&str, &[&str], Edit); 4] = [
        ("atlas_links", &["atlas_nodes"], |s| {
            // A node leaves without the cascade.
            let gone = s.atlas_links[0].from_node.clone();
            s.atlas_nodes.retain(|n| n.node_name != gone);
        }),
        ("pdb_netfac", &["pdb_facilities"], |s| {
            // A facility closes, its presences kept.
            let gone = s.pdb_netfac[0].fac_id;
            s.pdb_facilities.retain(|f| f.fac_id != gone);
        }),
        ("ripe_traceroutes", &["ripe_anchors"], |s| {
            // An anchor leaves, its traces kept.
            let gone = s.ripe_traceroutes[0].src_anchor;
            s.ripe_anchors.retain(|a| a.id != gone);
        }),
        ("roads", &["natural_earth"], |s| {
            // A place every road and geocode id past it is renumbered
            // around is quarantined.
            let place = s.roads[0].a;
            s.natural_earth[place].loc.lat = f64::NAN;
        }),
    ];
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
    for (dependent, changed, edit) in cases {
        let mut next = prior.source_snapshots().clone();
        edit(&mut next);
        let reg = assert_apply_is_rebuild(&prior, &next, dependent);
        let (_, report) = Igdb::try_build(&next, &BuildPolicy::lenient()).unwrap();
        let quarantined = |name: &str| {
            (report.sources().iter())
                .find(|h| h.source.name() == name)
                .map_or(0, |h| h.rows_quarantined)
        };
        assert!(quarantined(dependent) > 0, "{dependent}: nothing dangles");
        let carried = |name: &str| reg.perf_value("validate.screens_carried", name) > 0;
        assert!(!carried(dependent), "{dependent}: screen carried");
        for source in changed {
            assert!(!carried(source), "{dependent}: {source} carried");
        }
        assert!(carried("hoiho_rules"), "{dependent}: no screen carried");
        if dependent == "roads" {
            assert!(!carried("geo_codes"), "geo_codes carried");
            assert!(quarantined("natural_earth") > 0);
        }
    }
}

/// Each carry a generated delta reaches takes its carry path: a fall-back
/// to the cold path (nothing matched, a source re-screened for no reason)
/// fails here, though the bytes would still agree.
#[test]
fn applies_take_their_carry_paths() {
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).expect("base builds");
    let cases: [(DeltaClass, &[&str]); 5] = [
        (DeltaClass::AtlasChurn, &["atlas_nodes", "pdb_facilities"]),
        (DeltaClass::AtlasPrune, &["atlas_nodes", "pdb_facilities"]),
        (
            DeltaClass::FacilityChurn,
            &["atlas_nodes", "pdb_facilities"],
        ),
        (
            DeltaClass::LogicalChurn,
            &["asrank_entries", "pdb_networks", "asrank_links", "pch_ixps"],
        ),
        (DeltaClass::RoadChurn, &["atlas_nodes", "pdb_facilities"]),
    ];
    for (class, sources) in cases {
        let (next, _) = generate_delta(prior.source_snapshots(), 7, &[class]);
        let reg = assert_apply_is_rebuild(&prior, &next, &format!("{class:?}"));
        for source in sources {
            let carried = reg.perf_value("delta.records_carried", source);
            assert!(carried > 0, "{class:?}: no {source} record carried");
        }
        // Every screen that reads no changed source is carried.
        let delta = igdb_core::diff_snapshots(prior.source_snapshots(), &next);
        for source in ["pdb_networks", "pdb_ix", "ripe_anchors", "hoiho_rules"] {
            let carried = reg.perf_value("validate.screens_carried", source) > 0;
            assert_eq!(
                carried,
                !delta.sources.iter().any(|d| d.source == source),
                "{class:?}: {source}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden apply stream
// ---------------------------------------------------------------------------

/// Mirrors `igdb delta --scale tiny --mesh 400 --seed 7` (keep the
/// parameters in sync with `cmd_delta` in `crates/serve/src/bin/igdb/main.rs`
/// and the CI `delta-determinism` gate) so local `cargo test` catches
/// drift before CI does.
#[test]
fn apply_stream_matches_golden() {
    let golden_path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/delta.jsonl"
    ));
    let base = base_snaps();
    let (prior, _) = Igdb::try_build(&base, &BuildPolicy::lenient()).unwrap();
    let classes = [
        DeltaClass::AtlasChurn,
        DeltaClass::AtlasPrune,
        DeltaClass::FacilityChurn,
        DeltaClass::TracerouteChurn,
        DeltaClass::LogicalChurn,
        DeltaClass::RoadChurn,
    ];
    let (next, _) = generate_delta(prior.source_snapshots(), 7, &classes);
    let reg = Registry::new();
    {
        let _g = reg.install();
        prior
            .apply_delta(&next, &BuildPolicy::lenient())
            .expect("apply");
    }
    let got = reg.json_lines(JsonMode::Deterministic);
    if std::env::var_os("IGDB_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with IGDB_BLESS=1 to create)",
            golden_path.display()
        )
    });
    assert_eq!(
        got, want,
        "delta-apply stream drifted from tests/golden/delta.jsonl \
         (if intentional, re-bless with IGDB_BLESS=1)"
    );
}
