//! `igdb report <id>...` — the paper's evaluation, one report per table
//! and figure. Each prints the same rows/series the paper reports, side by
//! side with its published values where absolute numbers exist;
//! EXPERIMENTS.md records a captured run. Timings are not taken here: the
//! repo's one measurement path is `benchmark/` (see `BENCHMARK.json`).

use igdb_core::analysis::beliefprop::{
    consistency_check, missing_locations, propagate, BeliefPropParams,
};
use igdb_core::analysis::density::node_density;
use igdb_core::analysis::export::export_physical_map;
use igdb_core::analysis::footprint::{org_overlap, top_by_countries};
use igdb_core::analysis::fusion::fuse;
use igdb_core::analysis::intertubes::{self, compare};
use igdb_core::analysis::physpath::physical_path_report;
use igdb_core::analysis::rocketfuel::remap;
use igdb_core::{Igdb, LocationSource};
use igdb_db::Query;
use igdb_synth::intertubes::{intertubes_recreation, rocketfuel_recreation};
use igdb_synth::World;

/// Every report id, in the order `igdb report` lists them, with its body:
/// it reads the `--scale` tier (for its title), the world, and the
/// database built from that world.
pub const REPORTS: &[(&str, fn(&str, &World, &Igdb))] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("sec44", sec44),
    ("ablation", ablation),
];

/// Renders a two-column "paper vs measured" comparison row.
fn compare_row(label: &str, paper: &str, measured: impl std::fmt::Display) -> String {
    format!("{label:<44} {paper:>16} {measured:>16}")
}

/// Report header with the standard three columns.
fn header(title: &str) -> String {
    format!(
        "== {title} ==\n{}\n{}",
        compare_row("metric", "paper", "measured"),
        "-".repeat(78)
    )
}

/// Table 1 — "Select database characteristics": the headline row counts of
/// the assembled database, next to the paper's published values.
fn table1(scale: &str, _world: &World, igdb: &Igdb) {
    let db = &igdb.db;
    let distinct = |table: &str, col: &str| -> usize {
        db.with_table(table, |t| {
            Query::new(t).select(vec![col]).distinct().count().unwrap()
        })
        .unwrap()
    };
    // Organizations are WHOIS org entities (the ASRank source), matching
    // how CAIDA counts them; other sources' spellings are aliases.
    let org_entities = db
        .with_table("asn_org", |t| {
            igdb_db::Query::new(t)
                .filter(igdb_db::Predicate::Eq(
                    "source".into(),
                    igdb_db::Value::text("asrank"),
                ))
                .select(vec!["organization"])
                .distinct()
                .count()
                .unwrap()
        })
        .unwrap();
    println!("{}", header(&format!("Table 1 (scale: {scale})")));
    println!(
        "{}",
        compare_row("Number of ASes", "102,216", distinct("asn_name", "asn"))
    );
    println!(
        "{}",
        compare_row("Number of organizations", "81,879", org_entities)
    );
    println!(
        "{}",
        compare_row(
            "Number of physical nodes",
            "29,220",
            db.row_count("phys_nodes").unwrap()
        )
    );
    println!(
        "{}",
        compare_row(
            "Number of countries with nodes",
            "210",
            distinct("phys_nodes", "country")
        )
    );
    println!(
        "{}",
        compare_row(
            "Number of inferred physical paths",
            "8,323",
            db.row_count("phys_conn").unwrap()
        )
    );
    println!(
        "{}",
        compare_row(
            "Number of submarine cables",
            "511",
            db.row_count("sub_cables").unwrap()
        )
    );
    println!(
        "{}",
        compare_row(
            "City locations (7,342 in §2)",
            "7,342",
            db.row_count("city_points").unwrap()
        )
    );
    println!(
        "{}",
        compare_row(
            "Links between ASNs (420,913 in §1)",
            "420,913",
            db.row_count("asn_conn").unwrap()
        )
    );
}

/// Table 2 — "ASes with physical presence in the most countries".
fn table2(scale: &str, _world: &World, igdb: &Igdb) {
    println!("== Table 2 (scale: {scale}) ==");
    println!(
        "(paper's top entries: CLOUDFLARENET 52, HURRICANE 50, MICROSOFT-CORP 50, COGENT-174 45 …)"
    );
    println!(
        "{:<10} {:<24} {:<36} {:>9}",
        "ASNumber", "ASName", "Organization", "Countries"
    );
    println!("{}", "-".repeat(82));
    for row in top_by_countries(igdb, 11) {
        println!(
            "{:<10} {:<24} {:<36} {:>9}",
            row.asn.0, row.as_name, row.organization, row.countries
        );
    }
}

/// Table 3 — "Missing locations in Internet Atlas and PeeringDB" for the
/// Cogent-like transit AS, recovered from reverse-DNS hostnames.
fn table3(scale: &str, world: &World, igdb: &Igdb) {
    let asn = world.scenarios.globetrans;
    let missing = missing_locations(igdb, asn);
    println!("== Table 3 (scale: {scale}) ==");
    println!("(paper: >104 missing cities for AS174; sample rows below mirror its format)");
    println!(
        "AS under study: {asn} ({} missing metros recovered)",
        missing.len()
    );
    println!("{:<28} {}", "Metro", "Reverse Hostname");
    println!("{}", "-".repeat(78));
    for (metro, host) in missing.iter().take(12) {
        println!("{:<28} {}", igdb.metros.metro(*metro).label(), host);
    }
}

/// Figure 3 — the Thiessen tessellation of the world around urban areas.
fn fig3(scale: &str, _world: &World, igdb: &Igdb) {
    let polys = igdb.metros.polygons();
    let nonempty = polys.iter().filter(|p| !p.exterior.is_empty()).count();
    let area: f64 = polys.iter().map(|p| p.signed_area_deg2().abs()).sum();
    let world_area = 360.0 * 180.0;
    let avg_vertices: f64 = polys
        .iter()
        .filter(|p| !p.exterior.is_empty())
        .map(|p| p.exterior.len() as f64)
        .sum::<f64>()
        / nonempty.max(1) as f64;
    println!("{}", header(&format!("Figure 3 (scale: {scale})")));
    println!("{}", compare_row("Thiessen polygons", "7,342", nonempty));
    println!(
        "{}",
        compare_row(
            "Coverage of world bbox",
            "100%",
            format!("{:.2}%", 100.0 * area / world_area)
        )
    );
    println!(
        "{}",
        compare_row("Mean vertices per cell", "~6", format!("{avg_vertices:.1}"))
    );
    // Print one sample cell as WKT, as the map layer would consume it.
    if let Some(p) = polys.iter().find(|p| !p.exterior.is_empty()) {
        let wkt = igdb_geo::to_wkt(&igdb_geo::Geometry::Polygon(p.clone()));
        println!("sample cell: {}…", &wkt[..wkt.len().min(96)]);
    }
}

/// Figure 4 — InterTubes long-haul links vs iGDB shortest-path routes.
fn fig4(scale: &str, world: &World, igdb: &Igdb) {
    let links = intertubes_recreation(&world.cities, &world.row);
    let report = compare(igdb, &links);
    println!("{}", header(&format!("Figure 4 (scale: {scale})")));
    println!(
        "{}",
        compare_row(
            "Long-haul links within 25 mi of iGDB",
            "most",
            format!("{}/{}", report.covered, report.verdicts.len())
        )
    );
    println!(
        "{}",
        compare_row("Links NOT approximated", "≥1 (pipeline)", report.missed)
    );
    println!(
        "{}",
        compare_row(
            "iGDB alternate corridors (purple)",
            "many",
            report.alternate_paths
        )
    );
    for v in report.verdicts.iter().filter(|v| !v.covered) {
        println!(
            "  missed: {} — {} (coverage {:.0}%{})",
            igdb.metros.metro(v.from_city).label(),
            igdb.metros.metro(v.to_city).label(),
            v.coverage * 100.0,
            if v.off_road {
                ", follows a pipeline right-of-way"
            } else {
                ""
            }
        );
    }
}

/// Figure 5 — the world physical map (nodes, right-of-way paths, cables);
/// `igdb export` writes its layers as GeoJSON for any GIS.
fn fig5(scale: &str, _world: &World, igdb: &Igdb) {
    let map = export_physical_map(igdb);
    println!("{}", header(&format!("Figure 5 (scale: {scale})")));
    println!(
        "{}",
        compare_row(
            "Node layer (orange points)",
            "29,220",
            map.node_points.len()
        )
    );
    println!(
        "{}",
        compare_row("ROW path layer (green lines)", "8,323", map.row_paths.len())
    );
    println!(
        "{}",
        compare_row("Cable layer (purple lines)", "511", map.cable_paths.len())
    );
    println!("GeoJSON: igdb build --out DIR, then igdb export --db DIR --out FILE.geojson");
}

/// Figure 6 — metro footprints and overlap of two US access ISPs.
fn fig6(scale: &str, _world: &World, igdb: &Igdb) {
    let r = org_overlap(igdb, "Spectra Holdings", "CoastCable");
    println!("{}", header(&format!("Figure 6 (scale: {scale})")));
    println!("{}", compare_row("Charter-like ASNs", "4", r.asns_a.len()));
    println!("{}", compare_row("Cox-like ASNs", "1", r.asns_b.len()));
    println!(
        "{}",
        compare_row("Charter-like metros (green)", "71", r.metros_a.len())
    );
    println!(
        "{}",
        compare_row("Cox-like metros (orange)", "30", r.metros_b.len())
    );
    println!(
        "{}",
        compare_row("Overlapping metros (red)", "10", r.shared.len())
    );
    println!("shared metros:");
    for &m in &r.shared {
        println!("  {}", igdb.metros.metro(m).label());
    }
}

/// Figure 7 — Kansas City → Atlanta: logical path, hidden hops, shortest
/// practical physical path and distance cost.
fn fig7(scale: &str, world: &World, igdb: &Igdb) {
    let trace = world
        .traceroute_between(
            world.scenarios.anchor_kansas_city,
            world.scenarios.anchor_atlanta,
        )
        .expect("scenario traceroute");
    let report = physical_path_report(igdb, &trace.responding_ips()).expect("report");
    let label = |m: &usize| igdb.metros.metro(*m).name.clone();
    println!("{}", header(&format!("Figure 7 (scale: {scale})")));
    println!(
        "observed (blue):  {}",
        report
            .observed_metros
            .iter()
            .map(|m| label(m))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    let hidden: Vec<String> = report
        .legs
        .iter()
        .flat_map(|l| l.hidden_candidates.iter().map(|m| label(m)))
        .collect();
    println!("hidden candidates (green): {}", hidden.join(", "));
    println!(
        "practical (orange): {}",
        report
            .practical_path
            .iter()
            .map(|m| label(m))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "{}",
        compare_row(
            "Inferred physical path length",
            "2,518 km",
            format!("{:.0} km", report.inferred_km)
        )
    );
    println!(
        "{}",
        compare_row(
            "Shortest practical path length",
            "1,282 km",
            format!("{:.0} km", report.practical_km)
        )
    );
    println!(
        "{}",
        compare_row(
            "Distance cost",
            "1.96",
            format!("{:.2}", report.distance_cost)
        )
    );
}

/// Figure 8 — the Rocketfuel map remapped onto right-of-way corridors.
fn fig8(scale: &str, world: &World, igdb: &Igdb) {
    let map = rocketfuel_recreation(world);
    let r = remap(igdb, &map);
    println!("{}", header(&format!("Figure 8 (scale: {scale})")));
    println!("{}", compare_row("Rocketfuel metros", "n/a", r.metros));
    println!(
        "{}",
        compare_row("Logical (straight-line) edges", "many", r.logical_edges)
    );
    println!(
        "{}",
        compare_row("Edges mapped onto phys corridors", "most", r.mapped_edges)
    );
    println!(
        "{}",
        compare_row(
            "Distinct corridor segments",
            "fewer",
            r.distinct_corridor_segments
        )
    );
    println!(
        "{}",
        compare_row(
            "Collapse factor (edges/segment)",
            "> 1",
            format!("{:.2}", r.collapse_factor)
        )
    );
}

/// Figures 1 & 9 — Madrid → Berlin fusion: the paper's motivating
/// theoretical picture (Figure 1: 4 ASes, 10 cities, 6 countries) against
/// the realized measurement (3 ASes, 5 cities, 3 countries).
fn fig9(scale: &str, world: &World, igdb: &Igdb) {
    let trace = world
        .traceroute_between(world.scenarios.anchor_madrid, world.scenarios.anchor_berlin)
        .expect("scenario traceroute");
    let r = fuse(igdb, &trace.responding_ips());
    println!("{}", header(&format!("Figures 1 & 9 (scale: {scale})")));
    println!(
        "(Figure 1 theorized 4 ASes / 10 cities / 6 countries; the measurement collapses that)"
    );
    println!(
        "{}",
        compare_row("ASes on the path", "3 (was 4)", r.ases.len())
    );
    println!(
        "{}",
        compare_row("Cities on the path", "5 (was 10)", r.metros.len())
    );
    println!(
        "{}",
        compare_row("Countries on the path", "3 (was 6)", r.countries.len())
    );
    println!(
        "{}",
        compare_row(
            "Hops geolocated (Hoiho + CBG)",
            "7 + 4",
            format!("{} (+{} CBG)", r.hops_geolocated, r.hops_geolocated_by_cbg)
        )
    );
    println!(
        "path cities: {}",
        r.metros
            .iter()
            .map(|&m| igdb.metros.metro(m).label())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!("AS spatial extents (metros / countries):");
    for (asn, metros, countries) in &r.as_extents {
        println!("  {asn}: {metros} metros, {countries} countries");
    }
    for (asn, hull) in &r.as_extent_hulls {
        if let Some(wkt) = hull {
            println!("  {asn} extent polygon: {}…", &wkt[..wkt.len().min(72)]);
        }
    }
}

/// Figure 10 — physical node density per Thiessen cell (map + CDF).
fn fig10(scale: &str, _world: &World, igdb: &Igdb) {
    let r = node_density(igdb);
    println!("{}", header(&format!("Figure 10 (scale: {scale})")));
    println!(
        "{}",
        compare_row("Total Thiessen cells", "7,342", r.total_cells)
    );
    println!(
        "{}",
        compare_row("Cells with ≥1 physical node", "3,130", r.occupied_cells)
    );
    println!(
        "{}",
        compare_row(
            "Occupied cells under 10 nodes",
            "most",
            format!("{:.0}%", 100.0 * r.under_ten_frac)
        )
    );
    println!("CDF (nodes → fraction of occupied cells ≤ nodes):");
    let step = (r.cdf.len() / 10).max(1);
    for (i, (n, frac)) in r.cdf.iter().enumerate() {
        if i % step == 0 || i + 1 == r.cdf.len() {
            println!("  {n:>5} -> {:.3}", frac);
        }
    }
    println!("densest cells:");
    for &(m, n) in r.per_cell.iter().take(5) {
        println!("  {:<28} {n}", igdb.metros.metro(m).label());
    }
}

/// §4.4 — belief-propagation geolocation: new tuples, consistency, and the
/// rDNS resolution funnel.
fn sec44(scale: &str, world: &World, igdb: &Igdb) {
    let params = BeliefPropParams::default();
    let bp = propagate(igdb, &params);
    let cons = consistency_check(igdb, &params);

    let total = igdb.ip_info.len() as f64;
    let resolved = igdb.ip_info.values().filter(|i| i.fqdn.is_some()).count() as f64;
    let hinted = igdb
        .ip_info
        .values()
        .filter(|i| i.geo_source == Some(LocationSource::Hoiho))
        .count() as f64;

    println!("{}", header(&format!("Section 4.4 (scale: {scale})")));
    println!(
        "{}",
        compare_row(
            "Observed IPs without rDNS",
            "36%",
            format!("{:.0}%", 100.0 * (1.0 - resolved / total))
        )
    );
    println!(
        "{}",
        compare_row(
            "Resolving IPs without geohints",
            "86%",
            format!("{:.0}%", 100.0 * (1.0 - hinted / resolved.max(1.0)))
        )
    );
    println!(
        "{}",
        compare_row("New (city, AS) tuples", "2,231", bp.new_tuples.len())
    );
    println!(
        "{}",
        compare_row("Metros gaining entries", "124", bp.new_metros)
    );
    println!(
        "{}",
        compare_row("ASes gaining entries", "240", bp.new_ases)
    );
    println!(
        "{}",
        compare_row(
            "ASes gaining first location",
            "177",
            bp.ases_gaining_first_location
        )
    );
    println!(
        "{}",
        compare_row(
            "BP vs Hoiho/IXP agreement",
            "86%",
            format!(
                "{:.0}% ({}/{})",
                100.0 * cons.agreement(),
                cons.agreeing,
                cons.comparable
            )
        )
    );
    let missing = missing_locations(igdb, world.scenarios.globetrans);
    println!(
        "{}",
        compare_row("Missing metros for the AS174-like", ">104", missing.len())
    );
}

/// Ablation sweeps over the design choices DESIGN.md calls out:
///
/// * the §4.4 latency threshold (the paper: "different latency boundaries
///   could be chosen to be more or less restrictive"),
/// * the Figure 4 corridor width (the paper fixes 25 miles),
/// * the right-of-way detour factor (how much longer inferred fiber paths
///   are than geodesics — the cost of refusing straight lines).
fn ablation(scale: &str, world: &World, igdb: &Igdb) {
    println!("== Ablation 1: belief-propagation latency threshold (scale: {scale}) ==");
    println!(
        "{:>12} {:>14} {:>12} {:>10}",
        "threshold", "new addresses", "new tuples", "exact-acc"
    );
    for threshold in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let params = BeliefPropParams {
            metro_threshold_ms: threshold,
            ..Default::default()
        };
        let report = propagate(igdb, &params);
        // Score against ground truth (possible only because the world is
        // synthetic — the ablation the paper could not run).
        let mut checked = 0;
        let mut exact = 0;
        for (&ip, &metro) in &report.assignments {
            if let Some(truth) = world.truth_city_of_ip(ip) {
                checked += 1;
                if truth == metro {
                    exact += 1;
                }
            }
        }
        let acc = if checked > 0 {
            format!("{:.0}%", 100.0 * exact as f64 / checked as f64)
        } else {
            "n/a".to_string()
        };
        println!(
            "{:>10} ms {:>14} {:>12} {:>10}",
            threshold,
            report.assignments.len(),
            report.new_tuples.len(),
            acc
        );
    }
    println!(
        "(looser thresholds locate more addresses at lower precision — the paper's §4.4 trade-off)"
    );

    println!("\n== Ablation 2: InterTubes corridor width ==");
    let links = intertubes_recreation(&world.cities, &world.row);
    println!(
        "{:>12} {:>10} {:>8} {:>12}",
        "width", "covered", "missed", "alternates"
    );
    for miles in [5.0, 10.0, 25.0, 50.0, 100.0] {
        let report = intertubes::compare_with_width(igdb, &links, miles * igdb_geo::KM_PER_MILE);
        println!(
            "{:>9} mi {:>10} {:>8} {:>12}",
            miles, report.covered, report.missed, report.alternate_paths
        );
    }
    println!("(wider corridors cover more links but blur the alternate-corridor signal)");

    println!("\n== Ablation 3: right-of-way detour factor ==");
    // Distribution of path_km / geodesic_km over all inferred paths.
    let mut stretches: Vec<f64> = igdb
        .phys_pairs
        .iter()
        .filter_map(|&(a, b, km)| {
            let gc = igdb_geo::haversine_km(&igdb.metros.metro(a).loc, &igdb.metros.metro(b).loc);
            (gc > 1.0).then_some(km / gc)
        })
        .collect();
    stretches.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let pct = |p: f64| stretches[(p * (stretches.len() - 1) as f64) as usize];
    println!("paths: {}", stretches.len());
    println!(
        "stretch p10 {:.2}  p50 {:.2}  p90 {:.2}  max {:.2}",
        pct(0.1),
        pct(0.5),
        pct(0.9),
        pct(1.0)
    );
    println!("(straight-line baselines would sit at 1.00 — the Figure 8 overstatement)");
}
