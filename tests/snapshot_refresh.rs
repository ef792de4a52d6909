//! Snapshot-refresh integration: two dated snapshots of an evolving data
//! universe side by side in one history database, queried by `as_of_date`
//! (paper §2–§3). Each date is one build; the history is the union of
//! their tables ([`Database::append_from`]).

use igdb_core::Igdb;
use igdb_db::{Aggregate, Database, Predicate, Query, Value};
use igdb_synth::sources::SnapshotSet;
use igdb_synth::{emit_snapshots, generate_delta, DeltaClass, World, WorldConfig};

const FIRST: &str = "2022-05-03";
const SECOND: &str = "2022-11-01";

/// Six months later: the Internet Atlas churned (PoPs decayed, new ones
/// appeared, one was re-surveyed) and the sources were re-pulled.
fn six_months_later(first: &SnapshotSet) -> SnapshotSet {
    let (mut later, ops) = generate_delta(first, 26, &[DeltaClass::AtlasChurn]);
    assert!(!ops.is_empty());
    later.as_of_date = SECOND.into();
    later
}

#[test]
fn second_snapshot_appends_without_touching_the_first() {
    let world = World::generate(WorldConfig::tiny());
    let snaps1 = emit_snapshots(&world, FIRST, 100);
    let (first, second) = (
        Igdb::build(&snaps1),
        Igdb::build(&six_months_later(&snaps1)),
    );
    let mut history = Database::new();
    history.append_from(&first.db).unwrap();
    history.append_from(&second.db).unwrap();

    // Both dates coexist in every relation, each with exactly its build's
    // rows, and pinning the first date reads back the first build.
    assert_eq!(history.table_names(), first.db.table_names());
    for table in history.table_names() {
        let by_date = history
            .with_table(&table, |t| {
                Query::new(t).group_by(vec!["as_of_date"], vec![Aggregate::Count])
            })
            .unwrap()
            .unwrap();
        let want = |igdb: &Igdb, date: &str| {
            vec![
                Value::text(date),
                Value::Int(igdb.db.row_count(&table).unwrap() as i64),
            ]
        };
        assert_eq!(
            by_date,
            vec![want(&first, FIRST), want(&second, SECOND)],
            "{table}"
        );
        let pinned = history
            .with_table(&table, |t| {
                Query::new(t)
                    .filter(Predicate::Eq("as_of_date".into(), Value::text(FIRST)))
                    .rows()
            })
            .unwrap()
            .unwrap();
        let built = first.db.with_table(&table, |t| t.rows().to_vec()).unwrap();
        assert_eq!(pinned, built, "{table}: first snapshot must be untouched");
    }
    // The churn is visible on the date axis.
    assert_ne!(
        first.db.row_count("phys_conn").unwrap(),
        second.db.row_count("phys_conn").unwrap(),
        "the second Atlas snapshot lost corridors"
    );
}

#[test]
fn analyses_survive_a_refresh() {
    // The distance-cost analysis must still work on the second
    // snapshot's phys_conn graph.
    let world = World::generate(WorldConfig::tiny());
    let snaps1 = emit_snapshots(&world, FIRST, 450);
    let trace = world
        .traceroute_between(
            world.scenarios.anchor_kansas_city,
            world.scenarios.anchor_atlanta,
        )
        .unwrap();
    let report = |igdb: &Igdb| {
        igdb_core::analysis::physpath::physical_path_report(igdb, &trace.responding_ips())
    };
    let before = report(&Igdb::build(&snaps1)).expect("report before refresh");
    let refreshed = Igdb::build(&six_months_later(&snaps1));
    assert_eq!(refreshed.as_of_date, SECOND);
    let after = report(&refreshed).expect("report after refresh");
    // The corridor structure barely changed; the cost stays in band.
    assert!((after.distance_cost - before.distance_cost).abs() < 0.8);
}
