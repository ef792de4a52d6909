//! Statistical shape checks across the scale tiers: the distributions the
//! paper's tables/figures rest on must keep their shape as the synthetic
//! world grows from `medium` through `large` (the CI scale tier) to
//! `planet`. The large/planet builds are `#[ignore]`d by default — the
//! `scale-smoke` CI job and local scaling runs opt in with
//! `cargo test -- --ignored`.

use igdb_core::{BuildPolicy, Igdb};
use igdb_synth::{emit_snapshots, World, WorldConfig};

struct Shape {
    nodes: usize,
    paths: usize,
    cables: usize,
    metros: usize,
    occupied_frac: f64,
    km_p50: f64,
    km_p90: f64,
    km_p99: f64,
    asns_with_presence: usize,
}

fn shape_at(config: WorldConfig, mesh: usize) -> Shape {
    let world = World::generate(config);
    let snaps = emit_snapshots(&world, "2022-05-03", mesh);
    drop(world);
    let (igdb, report) =
        Igdb::try_build(&snaps, &BuildPolicy::strict()).expect("clean synthetic input");
    assert!(report.is_clean());

    let nodes = igdb.db.row_count("phys_nodes").unwrap();
    let paths = igdb.db.row_count("phys_conn").unwrap();
    let cables = igdb.db.row_count("sub_cables").unwrap();

    // Corridor length distribution (Fig 7/8 substrate): pull the km
    // column and take quantiles.
    let mut kms: Vec<f64> = igdb
        .db
        .with_table("phys_conn", |t| {
            t.rows().iter().filter_map(|r| r[6].as_float()).collect()
        })
        .unwrap();
    kms.sort_by(f64::total_cmp);
    let q = |p: f64| kms[((kms.len() - 1) as f64 * p) as usize];

    // Occupancy (Fig 10 substrate): fraction of metros holding at least
    // one physical node.
    let mut occupied: Vec<i64> = igdb
        .db
        .with_table("phys_nodes", |t| {
            t.rows().iter().filter_map(|r| r[3].as_int()).collect()
        })
        .unwrap();
    occupied.sort_unstable();
    occupied.dedup();

    // Logical presence (Table 2 substrate): distinct ASNs in asn_loc.
    let mut asns: Vec<i64> = igdb
        .db
        .with_table("asn_loc", |t| {
            t.rows().iter().filter_map(|r| r[0].as_int()).collect()
        })
        .unwrap();
    asns.sort_unstable();
    asns.dedup();

    Shape {
        nodes,
        paths,
        cables,
        metros: igdb.metros.len(),
        occupied_frac: occupied.len() as f64 / igdb.metros.len() as f64,
        km_p50: q(0.50),
        km_p90: q(0.90),
        km_p99: q(0.99),
        asns_with_presence: asns.len(),
    }
}

fn assert_shape(s: &Shape, tier: &str) {
    // Table 1 ordering: nodes > inferred paths > cables, at every tier.
    assert!(s.nodes > s.paths, "{tier}: {} nodes vs {} paths", s.nodes, s.paths);
    assert!(s.paths > s.cables, "{tier}: {} paths vs {} cables", s.paths, s.cables);
    // Corridor lengths form a proper right-skewed distribution.
    assert!(s.km_p50 > 0.0, "{tier}: p50 {}", s.km_p50);
    assert!(
        s.km_p50 < s.km_p90 && s.km_p90 <= s.km_p99,
        "{tier}: quantiles not ordered ({}, {}, {})",
        s.km_p50,
        s.km_p90,
        s.km_p99
    );
    // Fig 10: physical presence is sparse but not degenerate.
    assert!(
        s.occupied_frac > 0.01 && s.occupied_frac < 1.0,
        "{tier}: occupancy {}",
        s.occupied_frac
    );
    assert!(s.asns_with_presence > 50, "{tier}: only {} located ASes", s.asns_with_presence);
}

#[test]
fn medium_tier_shape() {
    let s = shape_at(WorldConfig::medium(), 400);
    assert_shape(&s, "medium");
}

/// The CI scale tier: ~20K metros and >10⁵ ASes. Slow — run with
/// `cargo test --release -- --ignored`; CI's scale-smoke job does.
#[test]
#[ignore = "large tier: minutes-scale build"]
fn large_tier_shape() {
    let config = WorldConfig::large();
    let s = shape_at(config, 1500);
    assert_shape(&s, "large");
    assert!(s.metros >= 15_000, "large tier shrank to {} metros", s.metros);
    assert!(s.asns_with_presence > 1000);
}

/// The largest tier (~40K metros): existence proof that the layout work
/// holds the build together well past paper scale.
#[test]
#[ignore = "planet tier: local scaling runs only"]
fn planet_tier_shape() {
    let s = shape_at(WorldConfig::planet(), 2000);
    assert_shape(&s, "planet");
    assert!(s.metros >= 30_000, "planet tier shrank to {} metros", s.metros);
}
