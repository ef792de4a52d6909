//! Disaster-risk assessment over the fused map (the RiskRoute use case
//! the paper's §4.2 motivates): what does a Gulf-coast hurricane touch,
//! and what does rerouting around it cost?
//!
//! ```text
//! cargo run --release --example risk_assessment
//! ```

use igdb_core::analysis::risk::{exposure, reroute, Reroute};
use igdb_core::Igdb;
use igdb_geo::{GeoPoint, Polygon};
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 100);
    let igdb = Igdb::build(&snaps);

    // Hazard: a hurricane landfall box over the US Gulf coast.
    let hazard = Polygon::new(
        vec![
            GeoPoint::raw(-98.0, 27.0),
            GeoPoint::raw(-88.0, 27.0),
            GeoPoint::raw(-88.0, 31.5),
            GeoPoint::raw(-98.0, 31.5),
        ],
        vec![],
    );

    let report = exposure(&igdb, &hazard);
    println!("hazard region: US Gulf coast (27°–31.5°N, 98°–88°W)\n");
    println!(
        "metros inside the region ({}):",
        report.metros_in_region.len()
    );
    for &m in report.metros_in_region.iter().take(8) {
        println!("  {}", igdb.metros.metro(m).label());
    }
    println!(
        "\nphysical paths crossing the region: {}",
        report.paths_at_risk.len()
    );
    for &(a, b) in report.paths_at_risk.iter().take(6) {
        println!(
            "  {} — {}",
            igdb.metros.metro(a).label(),
            igdb.metros.metro(b).label()
        );
    }
    println!(
        "\nsubmarine cables with segments in the region: {}",
        report.cables_at_risk.len()
    );
    println!(
        "ASes with peering presence in the region: {}",
        report.ases_exposed.len()
    );

    // Reroute cost for a metro pair whose traffic normally crosses the Gulf.
    let dallas = igdb.metros.by_name("Dallas").unwrap();
    let atlanta = igdb.metros.by_name("Atlanta").unwrap();
    println!("\nDallas → Atlanta if the region's paths fail:");
    match reroute(&igdb, &hazard, dallas, atlanta) {
        Some(Reroute::Unaffected { km }) => {
            println!("  unaffected — current route ({km:.0} km) avoids the region")
        }
        Some(Reroute::Detour {
            before_km,
            after_km,
        }) => println!(
            "  detour: {before_km:.0} km -> {after_km:.0} km (×{:.2})",
            after_km / before_km
        ),
        Some(Reroute::Partitioned { before_km }) => {
            println!("  PARTITIONED (was {before_km:.0} km)")
        }
        None => println!("  pair not physically connected in iGDB"),
    }
}
