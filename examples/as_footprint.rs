//! AS spatial extent (paper §4.1): who is present where, and where do two
//! access ISPs overlap?
//!
//! ```text
//! cargo run --release --example as_footprint
//! ```

use igdb_core::analysis::footprint::{org_overlap, top_by_countries};
use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 200);
    let igdb = Igdb::build(&snaps);

    // The Table 2 query: ASes with presence in the most countries.
    println!("ASes with physical presence in the most countries:");
    println!(
        "{:<10} {:<24} {:<34} {:>9}",
        "ASN", "AS name", "Organization", "Countries"
    );
    for row in top_by_countries(&igdb, 10) {
        println!(
            "{:<10} {:<24} {:<34} {:>9}",
            row.asn.0, row.as_name, row.organization, row.countries
        );
    }

    // The Figure 6 query: footprint overlap of two access ISPs.
    let r = org_overlap(&igdb, "Spectra Holdings", "CoastCable");
    println!(
        "\n{} ({} ASNs) vs {} ({} ASN): {} vs {} metros, {} shared:",
        r.org_a,
        r.asns_a.len(),
        r.org_b,
        r.asns_b.len(),
        r.metros_a.len(),
        r.metros_b.len(),
        r.shared.len()
    );
    for &m in &r.shared {
        println!("  {}", igdb.metros.metro(m).label());
    }

    // Free-form footprint inspection for any organization substring.
    let rows = igdb.asns_of_org("Heartland");
    for asn in rows {
        let metros = igdb.metros_of_asn(asn);
        println!(
            "\n{asn} (Heartland) peers in {} metros: {}",
            metros.len(),
            metros
                .iter()
                .map(|&m| igdb.metros.metro(m).name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
