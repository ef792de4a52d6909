//! Fusing traceroutes with the physical layer (paper §4.2 and §4.5):
//! the Kansas City→Atlanta hidden-hop analysis and the Madrid→Berlin
//! cross-layer picture.
//!
//! ```text
//! cargo run --release --example traceroute_fusion
//! ```

use igdb_core::analysis::fusion::fuse;
use igdb_core::analysis::physpath::physical_path_report;
use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 400);
    let igdb = Igdb::build(&snaps);
    let label = |m: usize| igdb.metros.metro(m).label();

    // --- Kansas City → Atlanta (Figure 7). ---
    let trace = world
        .traceroute_between(
            world.scenarios.anchor_kansas_city,
            world.scenarios.anchor_atlanta,
        )
        .expect("scenario traceroute");
    println!(
        "Kansas City → Atlanta traceroute ({} hops):",
        trace.hops.len()
    );
    for h in &trace.hops {
        match h.ip {
            Some(ip) => {
                let host = igdb.rdns.get(&ip).map(igdb_db::Str::as_str).unwrap_or("-");
                println!(
                    "  ttl {:>2}  {:<16} {:>7.2} ms  {}",
                    h.ttl,
                    ip.to_string(),
                    h.rtt_ms,
                    host
                );
            }
            None => println!("  ttl {:>2}  *", h.ttl),
        }
    }
    let report = physical_path_report(&igdb, &trace.responding_ips()).expect("fusable");
    println!(
        "\nobserved metros:  {}",
        report
            .observed_metros
            .iter()
            .map(|&m| label(m))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    for leg in &report.legs {
        if !leg.hidden_candidates.is_empty() {
            println!(
                "leg {} -> {}: candidate hidden hops {}",
                label(leg.from_metro),
                label(leg.to_metro),
                leg.hidden_candidates
                    .iter()
                    .map(|&m| label(m))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    println!(
        "inferred {:.0} km vs practical {:.0} km → distance cost {:.2}",
        report.inferred_km, report.practical_km, report.distance_cost
    );

    // --- Madrid → Berlin (Figures 1 & 9). ---
    let trace = world
        .traceroute_between(world.scenarios.anchor_madrid, world.scenarios.anchor_berlin)
        .expect("scenario traceroute");
    let fused = fuse(&igdb, &trace.responding_ips());
    println!(
        "\nMadrid → Berlin: {} ASes, {} cities, {} countries",
        fused.ases.len(),
        fused.metros.len(),
        fused.countries.len()
    );
    println!(
        "cities: {}",
        fused
            .metros
            .iter()
            .map(|&m| label(m))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    for (asn, metros, countries) in &fused.as_extents {
        println!("  {asn}: footprint spans {metros} metros in {countries} countries");
    }
}
