//! Criterion benchmarks — one group per paper table/figure, timing the
//! code path that regenerates it, plus the end-to-end build stages.
//!
//! All analysis benchmarks run against the process-cached `tiny` fixture
//! (per-iteration work is the analysis itself, not world generation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use igdb_bench::{fixture, Scale};
use igdb_core::analysis;
use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn bench_build(c: &mut Criterion) {
    // Table 1: the end-to-end pipeline (world → snapshots → database).
    let mut g = c.benchmark_group("table1_build");
    g.sample_size(10);
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 300);
    g.bench_function("igdb_build_tiny", |b| {
        b.iter(|| black_box(Igdb::build(&snaps)))
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    c.bench_function("table2_top_by_countries", |b| {
        b.iter(|| black_box(analysis::footprint::top_by_countries(&f.igdb, 11)))
    });
}

fn bench_table3(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    c.bench_function("table3_missing_locations", |b| {
        b.iter(|| {
            black_box(analysis::beliefprop::missing_locations(
                &f.igdb,
                f.world.scenarios.globetrans,
            ))
        })
    });
}

fn bench_fig3_voronoi(c: &mut Criterion) {
    // Figure 3: the Thiessen tessellation itself.
    let f = fixture(Scale::Tiny);
    let sites: Vec<igdb_geo::GeoPoint> =
        f.igdb.metros.metros().iter().map(|m| m.loc).collect();
    let mut g = c.benchmark_group("fig3_voronoi");
    g.sample_size(10);
    g.bench_function("voronoi_700_cities", |b| {
        b.iter(|| {
            black_box(igdb_geo::voronoi_cells(
                &sites,
                &igdb_geo::BoundingBox::WORLD,
            ))
        })
    });
    g.finish();
}

fn bench_fig4_intertubes(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    let links = igdb_synth::intertubes::intertubes_recreation(&f.world.cities, &f.world.row);
    let mut g = c.benchmark_group("fig4_intertubes");
    g.sample_size(10);
    g.bench_function("corridor_comparison", |b| {
        b.iter(|| black_box(analysis::intertubes::compare(&f.igdb, &links)))
    });
    g.finish();
}

fn bench_fig5_export(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    c.bench_function("fig5_export_map", |b| {
        b.iter(|| black_box(analysis::export::export_physical_map(&f.igdb)))
    });
}

fn bench_fig6_overlap(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    c.bench_function("fig6_org_overlap", |b| {
        b.iter(|| {
            black_box(analysis::footprint::org_overlap(
                &f.igdb,
                "Spectra Holdings",
                "CoastCable",
            ))
        })
    });
}

fn bench_fig7_physpath(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    let trace = f
        .world
        .traceroute_between(
            f.world.scenarios.anchor_kansas_city,
            f.world.scenarios.anchor_atlanta,
        )
        .expect("scenario traceroute")
        .responding_ips();
    let graph = analysis::physpath::PhysGraph::from_igdb(&f.igdb);
    c.bench_function("fig7_physical_path_report", |b| {
        b.iter(|| {
            black_box(analysis::physpath::physical_path_report_with(
                &f.igdb, &graph, &trace,
            ))
        })
    });
}

fn bench_phys_routing_mesh(c: &mut Criterion) {
    // The §4.2 analysis over the whole traceroute corpus: thousands of
    // shortest-path queries against one immutable physical graph. The
    // 1-thread row isolates the engine win (workspace reuse + resumable
    // per-source search); the all-threads row adds the parallel fan-out.
    let f = fixture(Scale::Tiny);
    let graph = analysis::physpath::PhysGraph::from_igdb(&f.igdb);
    let traces: Vec<Vec<igdb_net::Ip4>> = f
        .igdb
        .traces()
        .iter()
        .map(|t| t.hops.iter().filter_map(|h| h.ip).collect())
        .collect();
    let mut g = c.benchmark_group("phys_routing_mesh");
    g.sample_size(10);
    g.bench_function("reports_1_thread", |b| {
        b.iter(|| {
            igdb_par::with_threads(1, || {
                black_box(analysis::physpath::physical_path_reports_with(
                    &f.igdb, &graph, &traces,
                ))
            })
        })
    });
    g.bench_function("reports_all_threads", |b| {
        b.iter(|| {
            black_box(analysis::physpath::physical_path_reports_with(
                &f.igdb, &graph, &traces,
            ))
        })
    });
    // Engine-level rows over one deterministic query stream (all ordered
    // pairs of the first k metros, grouped by source). The fresh-workspace
    // row reallocates per query — the pre-engine cost model — while the
    // reused row settles each source once and resumes for later targets.
    let k = graph.engine().node_count().min(40);
    g.bench_function("sp_queries_fresh_workspace", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for s in 0..k {
                for t in 0..k {
                    if s == t {
                        continue;
                    }
                    let mut ws = igdb_core::SpWorkspace::new();
                    if let Some((_, d)) = graph.shortest_path_with(&mut ws, s, t) {
                        total += d;
                    }
                }
            }
            black_box(total)
        })
    });
    g.bench_function("sp_queries_reused_workspace", |b| {
        let mut ws = igdb_core::SpWorkspace::new();
        b.iter(|| black_box(all_ordered_pairs(graph.engine(), &mut ws, k)))
    });
    g.finish();
}

/// The reused-workspace query stream: every ordered pair of the first `k`
/// nodes, grouped by source (the layout the resumable search amortizes).
fn all_ordered_pairs(
    engine: &igdb_core::ShortestPathEngine,
    ws: &mut igdb_core::SpWorkspace,
    k: usize,
) -> f64 {
    let mut total = 0.0;
    for s in 0..k {
        for t in 0..k {
            if s == t {
                continue;
            }
            if let Some((_, d)) = engine.shortest_path_with(ws, s, t) {
                total += d;
            }
        }
    }
    total
}

fn bench_fig8_rocketfuel(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    let map = igdb_synth::intertubes::rocketfuel_recreation(&f.world);
    c.bench_function("fig8_rocketfuel_remap", |b| {
        b.iter(|| black_box(analysis::rocketfuel::remap(&f.igdb, &map)))
    });
}

fn bench_fig9_fusion(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    let trace = f
        .world
        .traceroute_between(f.world.scenarios.anchor_madrid, f.world.scenarios.anchor_berlin)
        .expect("scenario traceroute")
        .responding_ips();
    c.bench_function("fig9_fusion", |b| {
        b.iter(|| black_box(analysis::fusion::fuse(&f.igdb, &trace)))
    });
}

fn bench_fig10_density(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    c.bench_function("fig10_node_density", |b| {
        b.iter(|| black_box(analysis::density::node_density(&f.igdb)))
    });
}

fn bench_sec44_beliefprop(c: &mut Criterion) {
    let f = fixture(Scale::Tiny);
    let params = analysis::beliefprop::BeliefPropParams::default();
    let mut g = c.benchmark_group("sec44_beliefprop");
    g.sample_size(20);
    g.bench_function("propagate", |b| {
        b.iter(|| black_box(analysis::beliefprop::propagate(&f.igdb, &params)))
    });
    g.bench_function("consistency_check", |b| {
        b.iter(|| black_box(analysis::beliefprop::consistency_check(&f.igdb, &params)))
    });
    g.finish();
}

criterion_group!(
    paper,
    bench_build,
    bench_table2,
    bench_table3,
    bench_fig3_voronoi,
    bench_fig4_intertubes,
    bench_fig5_export,
    bench_fig6_overlap,
    bench_fig7_physpath,
    bench_phys_routing_mesh,
    bench_fig8_rocketfuel,
    bench_fig9_fusion,
    bench_fig10_density,
    bench_sec44_beliefprop,
);
criterion_main!(paper);
