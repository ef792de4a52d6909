//! Scaling curve: build time and peak RSS (VmHWM) vs world size — the
//! evidence row behind the planet tier (EXPERIMENTS.md records a captured
//! run).
//!
//! One tier per process so peak-RSS numbers aren't contaminated by earlier
//! tiers (the allocator rarely returns freed pages to the OS):
//!
//! ```text
//! cargo run --release -p igdb-bench --bin scaling_curve -- --scale medium
//! ```
//!
//! `--phases` additionally prints the per-phase resident-set walk
//! (world gen → snapshot emit → build → index), which is how the layout
//! work's wins were attributed.

use igdb_bench::Scale;
use igdb_core::igdb_obs;
use igdb_core::{BuildPolicy, Igdb};
use igdb_synth::{emit_snapshots, World};
use std::time::Instant;

fn rss() -> u64 {
    igdb_obs::current_rss_kb().unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::parse(&args);
    let phases = args.iter().any(|a| a == "--phases");
    let cfg = scale.config();
    let n_cities = cfg.n_cities;
    let n_ases = cfg.as_counts.tier1 + cfg.as_counts.tier2 + cfg.as_counts.stub + cfg.as_counts.content;

    let t_total = Instant::now();
    let t0 = Instant::now();
    let world = World::generate(cfg);
    let gen_ms = t0.elapsed().as_millis();
    let rss_world = rss();

    let t0 = Instant::now();
    let snaps = emit_snapshots(&world, "2022-05-03", scale.mesh_pairs());
    let emit_ms = t0.elapsed().as_millis();
    let rss_snaps = rss();
    let n_records = snaps.atlas_nodes.len()
        + snaps.atlas_links.len()
        + snaps.rdns.len()
        + snaps.ripe_traceroutes.iter().map(|t| t.hops.len()).sum::<usize>()
        + snaps.natural_earth.len()
        + snaps.roads.len()
        + snaps.bgp_prefixes.len();
    drop(world);

    let t0 = Instant::now();
    let (igdb, report) = Igdb::try_build_scratch(snaps, &BuildPolicy::strict())
        .expect("synthetic snapshots build cleanly");
    assert!(report.is_clean());
    let build_ms = t0.elapsed().as_millis();
    let rss_build = rss();
    let peak = igdb_obs::peak_rss_kb().unwrap_or(0);
    let total_ms = t_total.elapsed().as_millis();

    if phases {
        println!("== phase RSS walk (scale {scale:?}) ==");
        println!("{:<22} {:>10} {:>10}", "phase", "ms", "rss KB");
        println!("{:<22} {:>10} {:>10}", "world_gen", gen_ms, rss_world);
        println!("{:<22} {:>10} {:>10}", "emit_snapshots", emit_ms, rss_snaps);
        println!("{:<22} {:>10} {:>10}", "build", build_ms, rss_build);
        println!("{:<22} {:>10} {:>10}", "peak (VmHWM)", total_ms, peak);
        println!();
    }

    // The markdown row EXPERIMENTS.md's scaling-curve table is built from.
    println!(
        "| {scale:?} | {n_cities} | {n_ases} | {n_records} | {} | {build_ms} | {:.1} |",
        igdb.db.table_names().iter().map(|t| igdb.db.row_count(t).unwrap_or(0)).sum::<usize>(),
        peak as f64 / 1024.0,
    );
}
