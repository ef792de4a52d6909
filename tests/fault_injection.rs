//! The fault-tolerance contract of `Igdb::try_build`, driven by the
//! deterministic corruption harness in `igdb_synth::faults`.
//!
//! Invariants under test:
//!
//! * **Never panics.** For any seeded combination of fault classes,
//!   `try_build` returns `Ok` with a report or a typed `BuildError`.
//! * **Exact accounting.** Every injected record-level fault is either in
//!   the quarantine (at its exact source/index) or covered by its source
//!   having been dropped; every emptied source shows zero input rows.
//! * **Monotone degradation.** Quarantining input can only remove derived
//!   database rows relative to the clean build — never invent them. The
//!   one exception is a table a quarantined metro can grow by moving
//!   nodes to another metro; it is held to the clean input under the
//!   same metro catalogue instead.
//! * **Deterministic.** The quarantine, the report, and every table are
//!   identical from one build to the next, faults included.
//! * **Clean input unchanged.** On pristine snapshots `try_build` is
//!   byte-identical to the legacy `Igdb::build` and the report is clean.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use igdb_core::{BuildError, BuildPolicy, Igdb, RecordError, SourceId};
use igdb_net::{Asn, Ip4};
use igdb_synth::faults::{inject_faults, FaultClass, InjectedFault};
use igdb_synth::naming::{HoihoRule, TokenKind};
use igdb_synth::sources::SnapshotSet;
use igdb_synth::{emit_snapshots, World, WorldConfig};
use proptest::prelude::*;

fn clean_snaps() -> &'static SnapshotSet {
    static SNAPS: OnceLock<SnapshotSet> = OnceLock::new();
    SNAPS.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny());
        emit_snapshots(&world, "2022-05-03", 200)
    })
}

/// Per-table row counts of the clean build — the ceiling for monotone
/// degradation checks.
fn clean_counts() -> &'static BTreeMap<String, usize> {
    static COUNTS: OnceLock<BTreeMap<String, usize>> = OnceLock::new();
    COUNTS.get_or_init(|| {
        let igdb = Igdb::build(clean_snaps());
        igdb.db
            .table_names()
            .into_iter()
            .map(|name| {
                let n = igdb.db.row_count(&name).unwrap();
                (name, n)
            })
            .collect()
    })
}

/// Tables a quarantined metro can grow. A quarantined place moves the
/// atlas nodes that stood in it onto their next-nearest metros, which can
/// split one metro-to-metro corridor into two (`PROPTEST_SEED=3`:
/// `NanMetroCoord` on Houston, Pittsburgh and Cali took `phys_conn` from
/// 260 rows to 261). Their ceiling is the clean input's count under the
/// faulty input's metro catalogue ([`catalogue_ceiling`]); every other
/// table stays under the clean build's.
const MOVED_BY_METRO_QUARANTINE: [&str; 1] = ["phys_conn"];

/// Row count of `table` in the clean input built under `faulty`'s
/// metro catalogue.
fn catalogue_ceiling(faulty: &SnapshotSet, table: &str) -> usize {
    let mut base = clean_snaps().clone();
    base.natural_earth = faulty.natural_earth.clone();
    let (igdb, _) = Igdb::try_build(&base, &BuildPolicy::lenient())
        .expect("the faulty build took the same catalogue");
    igdb.db.row_count(table).unwrap()
}

fn assert_tables_identical(a: &Igdb, b: &Igdb) {
    let mut names_a = a.db.table_names();
    let mut names_b = b.db.table_names();
    names_a.sort();
    names_b.sort();
    assert_eq!(names_a, names_b, "table sets differ");
    for name in &names_a {
        let rows_a = a.db.with_table(name, |t| t.rows().to_vec()).unwrap();
        let rows_b = b.db.with_table(name, |t| t.rows().to_vec()).unwrap();
        assert_eq!(rows_a, rows_b, "table {name} differs");
    }
    assert_eq!(a.phys_pairs, b.phys_pairs, "phys_pairs differ");
}

/// Maps a property-generated bitmask to a fault-class subset: low bits
/// select record-level classes, high bits whole-source removals (including
/// one *required* source, so the typed-error path gets exercised too).
fn classes_from_mask(mask: u32) -> Vec<FaultClass> {
    let mut classes: Vec<FaultClass> = FaultClass::ALL_RECORD_CLASSES
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, &c)| c)
        .collect();
    for (bit, source) in [
        (19u32, SourceId::PchIxps),
        (20, SourceId::RipeAnchors),
        (21, SourceId::PdbNetworks),
        (22, SourceId::Roads),
    ] {
        if mask & (1 << bit) != 0 {
            classes.push(FaultClass::EmptySource(source));
        }
    }
    classes
}

/// The accounting invariant: every ledger entry is visible in the report.
fn assert_ledger_accounted(report: &igdb_core::BuildReport, ledger: &[InjectedFault]) {
    for f in ledger {
        match f.index {
            Some(i) => {
                let covered = report.quarantine().contains(f.source, i)
                    || report.health(f.source).dropped;
                assert!(
                    covered,
                    "injected fault unaccounted: {f:?}\nreport:\n{report}"
                );
            }
            None => assert_eq!(
                report.health(f.source).rows_in,
                0,
                "emptied source shows rows: {f:?}"
            ),
        }
    }
}

fn assert_report_consistent(report: &igdb_core::BuildReport) {
    for h in report.sources() {
        if h.dropped {
            assert_eq!(h.rows_accepted, 0, "dropped source kept rows: {h:?}");
        } else {
            assert_eq!(
                h.rows_accepted + h.rows_quarantined,
                h.rows_in,
                "accounting leak in {h:?}"
            );
        }
    }
    let quarantined_total: usize = report
        .sources()
        .iter()
        .map(|h| h.rows_quarantined)
        .sum();
    assert_eq!(quarantined_total, report.total_quarantined());
}

#[test]
fn clean_try_build_matches_build_and_reports_clean() {
    let snaps = clean_snaps();
    let legacy = Igdb::build(snaps);
    let (lenient, report) = Igdb::try_build(snaps, &BuildPolicy::lenient()).unwrap();
    assert!(report.is_clean(), "clean input quarantined:\n{report}");
    assert_report_consistent(&report);
    assert_tables_identical(&legacy, &lenient);
    let (strict, strict_report) = Igdb::try_build(snaps, &BuildPolicy::strict()).unwrap();
    assert!(strict_report.is_clean());
    assert_tables_identical(&legacy, &strict);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: any seeded corruption either builds with an
    /// exact report or fails with a typed error — and never panics.
    #[test]
    fn try_build_survives_any_injected_fault(seed in any::<u64>(), mask in 1u32..(1 << 23)) {
        let classes = classes_from_mask(mask);
        let mut faulty = clean_snaps().clone();
        let ledger = inject_faults(&mut faulty, seed, &classes);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Igdb::try_build(&faulty, &BuildPolicy::lenient())
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(_) => {
                return Err(proptest::test_runner::TestCaseError::Fail(format!(
                    "try_build panicked under classes {classes:?} seed {seed}"
                )))
            }
        };
        match result {
            Ok((igdb, report)) => {
                assert_ledger_accounted(&report, &ledger);
                assert_report_consistent(&report);
                // Monotone degradation: a degraded build may only lose
                // derived rows, never invent them.
                let catalogue_moved = faulty.natural_earth != clean_snaps().natural_earth;
                for (table, &clean) in clean_counts() {
                    let ceiling = if catalogue_moved
                        && MOVED_BY_METRO_QUARANTINE.contains(&table.as_str())
                    {
                        catalogue_ceiling(&faulty, table)
                    } else {
                        clean
                    };
                    let n = igdb.db.row_count(table).unwrap();
                    prop_assert!(
                        n <= ceiling,
                        "table {} grew under faults: {} > {}",
                        table, n, ceiling
                    );
                }
            }
            Err(e) => {
                // Lenient policy only refuses unusable *required* sources.
                prop_assert!(
                    matches!(e, BuildError::RequiredSourceUnusable { source, .. }
                        if source.required()),
                    "unexpected error class: {}", e
                );
            }
        }
    }
}

/// Two builds of one faulty input agree. (Named for the worker axis it
/// had while the build was parallel.)
#[test]
fn quarantine_and_tables_identical_across_worker_counts_under_faults() {
    let mut faulty = clean_snaps().clone();
    inject_faults(&mut faulty, 5, &FaultClass::ALL_RECORD_CLASSES);
    let (a, report_a) = Igdb::try_build(&faulty, &BuildPolicy::lenient()).unwrap();
    let (b, report_b) = Igdb::try_build(&faulty, &BuildPolicy::lenient()).unwrap();
    // Reports compare structurally: same health rows, same quarantined
    // records in the same order.
    assert_eq!(report_a, report_b, "quarantine differs between two builds");
    assert!(!report_a.quarantine().is_empty());
    assert_tables_identical(&a, &b);
}

#[test]
fn degraded_build_lookups_return_cleanly() {
    let mut faulty = clean_snaps().clone();
    inject_faults(
        &mut faulty,
        11,
        &[
            FaultClass::EmptySource(SourceId::PdbNetworks),
            FaultClass::NanMetroCoord,
            FaultClass::DanglingTraceAnchor,
            FaultClass::TruncatedTraceHops,
        ],
    );
    let (igdb, report) = Igdb::try_build(&faulty, &BuildPolicy::lenient()).unwrap();
    assert!(!report.is_clean());
    // Keys that cannot exist in the degraded build must miss, not panic.
    assert_eq!(igdb.metro_of_ip(Ip4(0xCB00_71FA)), None); // 203.0.113.250, TEST-NET-3
    assert!(igdb.metros_of_asn(Asn(4_294_000_000)).is_empty());
    assert!(igdb.metros.try_metro(usize::MAX).is_none());
    assert!(igdb.metros.try_metro(igdb.metros.len()).is_none());
    // And the surviving data still answers.
    assert!(igdb.metros.try_metro(0).is_some());
    assert!(igdb.db.row_count("city_points").unwrap() > 0);
}

#[test]
fn strict_policy_turns_first_fault_into_typed_error() {
    let mut faulty = clean_snaps().clone();
    inject_faults(&mut faulty, 2, &[FaultClass::NanAtlasCoord]);
    let Err(err) = Igdb::try_build(&faulty, &BuildPolicy::strict()) else {
        panic!("strict build accepted a NaN coordinate");
    };
    assert!(matches!(
        err,
        BuildError::FaultUnderStrictPolicy {
            source: SourceId::AtlasNodes,
            ..
        }
    ));
}

/// A rule the regex engine refuses — unparsable, or compiling past its
/// program-size limit — is a bad record like any other: quarantined with
/// its index and pattern, and the build is the build without it.
#[test]
fn hostile_hoiho_rules_are_quarantined_not_silently_dropped() {
    const HOSTILE: [&str; 2] = ["(((", "(a{2000}){2000}$"];
    let clean = clean_snaps();
    let mut hostile = clean.clone();
    hostile.hoiho_rules.extend(HOSTILE.map(|pattern| HoihoRule {
        pattern: pattern.to_string(),
        token_kind: TokenKind::GeoCode,
        domain: "hostile.example".to_string(),
    }));

    let (igdb, report) = Igdb::try_build(&hostile, &BuildPolicy::lenient()).unwrap();
    assert_report_consistent(&report);
    let quarantined: Vec<_> = report
        .quarantine()
        .records()
        .iter()
        .map(|r| {
            let RecordError::MalformedValue { field, .. } = &r.error else {
                panic!("{r:?}");
            };
            assert_eq!(*field, "pattern");
            (r.source, r.index, r.key.as_deref())
        })
        .collect();
    let first = clean.hoiho_rules.len();
    assert_eq!(
        quarantined,
        [
            (SourceId::HoihoRules, first, Some(HOSTILE[0])),
            (SourceId::HoihoRules, first + 1, Some(HOSTILE[1])),
        ]
    );
    assert_eq!(igdb.db.fingerprint(), Igdb::build(clean).db.fingerprint());

    let Err(err) = Igdb::try_build(&hostile, &BuildPolicy::strict()) else {
        panic!("strict build accepted an uncompilable rule");
    };
    assert!(
        matches!(
            err,
            BuildError::FaultUnderStrictPolicy { source: SourceId::HoihoRules, index, .. }
                if index == first
        ),
        "got {err}"
    );
}

#[test]
fn missing_required_sources_are_typed_errors() {
    for source in [SourceId::NaturalEarth, SourceId::Roads] {
        let mut faulty = clean_snaps().clone();
        inject_faults(&mut faulty, 1, &[FaultClass::EmptySource(source)]);
        let Err(err) = Igdb::try_build(&faulty, &BuildPolicy::lenient()) else {
            panic!("{source}: build succeeded without its required source");
        };
        assert!(
            matches!(err, BuildError::RequiredSourceUnusable { source: s, .. } if s == source),
            "{source}: got {err}"
        );
    }
}

#[test]
fn per_source_threshold_overrides_apply() {
    let mut faulty = clean_snaps().clone();
    // Dangle a handful of netfac rows: far below the 50% default, so the
    // source degrades; a zero threshold override drops it outright.
    inject_faults(&mut faulty, 9, &[FaultClass::DanglingNetfacFacility]);
    let (_, degraded) = Igdb::try_build(&faulty, &BuildPolicy::lenient()).unwrap();
    assert!(!degraded.health(SourceId::PdbNetfac).dropped);
    assert!(degraded.health(SourceId::PdbNetfac).rows_quarantined > 0);
    let policy = BuildPolicy::lenient().with_threshold(SourceId::PdbNetfac, 0.0);
    let (igdb, dropped) = Igdb::try_build(&faulty, &policy).unwrap();
    assert!(dropped.health(SourceId::PdbNetfac).dropped);
    assert_eq!(dropped.health(SourceId::PdbNetfac).rows_accepted, 0);
    // peeringdb_fac rows disappear with the source, but the build stands.
    assert!(igdb.db.row_count("city_points").unwrap() > 0);
}
