//! Quickstart: build an iGDB database and poke at it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Mirrors the paper's pipeline end to end: generate the (synthetic) data
//! universe, emit per-source snapshots, ingest + standardize into the
//! Figure 2 relations, then run a couple of cross-layer queries.

use igdb_core::Igdb;
use igdb_db::{Predicate, Query, Value};
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn main() {
    // 1. The data universe (stands in for Internet Atlas, PeeringDB,
    //    Telegeography, AS Rank, RIPE Atlas, Rapid7, …).
    println!("generating world…");
    let world = World::generate(WorldConfig::tiny());

    // 2. Timestamped snapshots, as the sources would publish them.
    let snaps = emit_snapshots(&world, "2022-05-03", 400);
    println!(
        "snapshots: {} atlas nodes, {} facilities, {} PTR records, {} AS links, {} traceroutes",
        snaps.atlas_nodes.len(),
        snaps.pdb_facilities.len(),
        snaps.rdns.len(),
        snaps.asrank_links.len(),
        snaps.ripe_traceroutes.len()
    );

    // 3. The iGDB build: ingest → standardize → load.
    let igdb = Igdb::build(&snaps);
    println!("\niGDB relations:");
    for table in igdb.db.table_names() {
        println!(
            "  {table:<16} {:>7} rows",
            igdb.db.row_count(&table).unwrap()
        );
    }

    // 4a. A physical-layer query: the longest inferred fiber paths.
    println!("\nlongest inferred right-of-way paths:");
    let rows = igdb
        .db
        .with_table("phys_conn", |t| {
            Query::new(t)
                .order_by("distance_km", false)
                .limit(5)
                .select(vec!["from_metro", "to_metro", "distance_km"])
                .rows()
        })
        .unwrap()
        .unwrap();
    for r in rows {
        println!(
            "  {} — {}  ({:.0} km)",
            r[0],
            r[1],
            r[2].as_float().unwrap()
        );
    }

    // 4b. A logical-layer query: where does one AS peer?
    let asn = world.scenarios.globetrans;
    let metros = igdb
        .db
        .with_table("asn_loc", |t| {
            Query::new(t)
                .filter(Predicate::Eq("asn".into(), Value::from(asn.0)))
                .select(vec!["metro"])
                .distinct()
                .rows()
        })
        .unwrap()
        .unwrap();
    println!("\n{asn} declares peering in {} metros, e.g.:", metros.len());
    for m in metros.iter().take(5) {
        println!("  {}", m[0]);
    }
}
