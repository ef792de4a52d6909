//! Per-layer probes of the traced pass: outside timers around each
//! crate's `pub` functions, over the data of the seeded world and its
//! base build. Each probe sits in a `bench.<layer>.<call>` span.

use std::collections::BTreeSet;
use std::io::Cursor;

use igdb_core::analysis::beliefprop::{consistency_check, propagate, BeliefPropParams};
use igdb_core::analysis::physpath::PhysGraph;
use igdb_core::analysis::{
    cbg, density, export, footprint, fusion, intertubes, physpath, risk, rocketfuel,
};
use igdb_core::serving::gulf_hazard;
use igdb_core::{
    validate, with_mode, BdrMap, HoihoEngine, Igdb, MetroRegistry, RoadGraph, SpMode, SpWorkspace,
};
use igdb_db::{query::hash_join, Database, Predicate, Query, Table, Value};
use igdb_geo::{parse_wkt, GeoPoint};
use igdb_net::{Asn, Ip4, Prefix, PrefixTrie};
use igdb_obs::span;
use igdb_serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use igdb_serve::Request;
use igdb_synth::intertubes::{intertubes_recreation, rocketfuel_recreation};

use crate::requests::RequestGen;
use crate::stats::{median, timed, Rng};
use crate::workloads::Ctx;

/// Shortest-path probe queries per mode.
const SP_QUERIES: usize = 20_000;
/// Items timed at most, sized so that no probe takes much more than half
/// a second: WKT strings and protocol frames (~1 µs each), rDNS names
/// (~270 µs each) and cold road routes (~4 ms each).
const SAMPLE_CAP: usize = 1000;
const NAME_CAP: usize = 2000;
const ROUTE_CAP: usize = 100;

/// Mean time per item of one pass of `f` over `items`, in units of
/// `1 / per_ms` milliseconds (1e6 for ns, 1e3 for µs).
fn per_item<T>(items: &[T], per_ms: f64, f: impl FnMut(&T)) -> f64 {
    let ((), ms) = timed(|| items.iter().for_each(f));
    ms * per_ms / items.len().max(1) as f64
}

/// Runs every probe and records its metrics in `ctx.layers`.
pub fn run(ctx: &mut Ctx, igdb: &Igdb) {
    let _root = span("bench.probes");
    ingest(ctx, igdb);
    routing(ctx, igdb);
    ip_resolution(ctx, igdb);
    tables(ctx, igdb);
    analyses(ctx, igdb);
    protocol(ctx, igdb);
}

/// `core.validate`, `core.metros` / `geo`.
fn ingest(ctx: &mut Ctx, igdb: &Igdb) {
    let snaps = &ctx.inputs.snaps;
    let validate_ms = {
        let _s = span("bench.core.validate.validate");
        timed(|| validate::validate(snaps, &ctx.policy).is_ok()).1
    };
    let (metros, metros_ms) = {
        let _s = span("bench.core.metros.build");
        timed(|| MetroRegistry::build(&snaps.natural_earth))
    };
    let points: Vec<GeoPoint> = snaps
        .atlas_nodes
        .iter()
        .map(|n| n.loc)
        .chain(snaps.pdb_facilities.iter().map(|f| f.loc))
        .collect();
    let nearest_ns = {
        let _s = span("bench.geo.nearest");
        per_item(&points, 1e6, |p| {
            std::hint::black_box(metros.metro_of(p));
        })
    };
    let mut wkt: Vec<String> = Vec::new();
    for (table, column) in [("phys_conn", "path_wkt"), ("sub_cables", "cable_wkt")] {
        let _ = igdb.db.with_table(table, |t| {
            let col = t.schema().index_of(column).expect("geometry column");
            wkt.extend(
                t.rows()
                    .iter()
                    .filter_map(|r| r[col].as_text().map(str::to_owned)),
            );
        });
    }
    wkt.truncate(SAMPLE_CAP);
    let wkt_us = {
        let _s = span("bench.geo.parse_wkt");
        per_item(&wkt, 1e3, |w| {
            std::hint::black_box(parse_wkt(w).is_ok());
        })
    };
    // Each Thiessen cell against its own site (inside) and the next
    // metro's (outside, usually rejected by the bounding box).
    let cells = metros.polygons();
    let sites: Vec<GeoPoint> = metros.metros().iter().map(|m| m.loc).collect();
    let contains_ns = {
        let _s = span("bench.geo.contains");
        let idx: Vec<usize> = (0..cells.len()).collect();
        per_item(&idx, 1e6 / 2.0, |&i| {
            std::hint::black_box(cells[i].contains(&sites[i]));
            std::hint::black_box(cells[i].contains(&sites[(i + 1) % sites.len()]));
        })
    };
    let l = &mut ctx.layers;
    l.put("validate.ms", validate_ms, "ms");
    l.put("metros.build_ms", metros_ms, "ms");
    l.put("geo.nearest_ns", nearest_ns, "ns");
    l.put("geo.wkt_parse_us", wkt_us, "us");
    l.put("geo.contains_ns", contains_ns, "ns");
}

/// `core.roads`, `core.spath`.
fn routing(ctx: &mut Ctx, igdb: &Igdb) {
    let snaps = &ctx.inputs.snaps;
    let (roads, roads_ms) = {
        let _s = span("bench.core.roads.build");
        timed(|| RoadGraph::build(igdb.metros.len(), &snaps.roads))
    };
    // The routed atlas link pairs, on a cold graph (not memoized).
    let links: Vec<(usize, usize)> = igdb
        .phys_pairs
        .iter()
        .take(ROUTE_CAP)
        .map(|&(a, b, _)| (a, b))
        .collect();
    let route_us = {
        let _s = span("bench.core.roads.route_with_geometry");
        per_item(&links, 1e3, |&(a, b)| {
            std::hint::black_box(roads.route_with_geometry(a, b));
        })
    };
    let cached_routes = igdb.roads.cached_route_keys().len();

    // A fresh physical graph, so preparing its hierarchy is timed cold.
    let graph = PhysGraph::from_igdb(igdb);
    let connected: Vec<usize> = (0..graph.engine().node_count())
        .filter(|&m| graph.degree(m) > 0)
        .collect();
    let mut rng = Rng::new(ctx.seed ^ 0x5_9A7);
    // The source changes every query, so a resumable search cannot
    // amortize across them.
    let pairs: Vec<(usize, usize)> = (0..SP_QUERIES)
        .map(|_| {
            (
                connected[rng.below(connected.len())],
                connected[rng.below(connected.len())],
            )
        })
        .collect();
    let prepare_ms = {
        let _s = span("bench.core.spath.prepare_ch");
        timed(|| graph.engine().prepare_ch()).1
    };
    let mut routed = 0usize;
    let mut query_us = |mode: Option<SpMode>, name: &'static str| {
        let _s = span(format!("bench.core.spath.query.{name}"));
        let mut ws = SpWorkspace::new();
        let mut pass = || {
            routed = 0;
            per_item(&pairs, 1e3, |&(a, b)| {
                routed += usize::from(graph.engine().shortest_path_with(&mut ws, a, b).is_some());
            })
        };
        match mode {
            Some(mode) => with_mode(mode, &mut pass),
            None => pass(),
        }
    };
    let dijkstra_us = query_us(Some(SpMode::Dijkstra), "dijkstra");
    let ch_us = query_us(Some(SpMode::Ch), "ch");
    let auto_us = query_us(None, "auto");
    let l = &mut ctx.layers;
    l.put("roads.build_ms", roads_ms, "ms");
    l.put("roads.route_us", route_us, "us");
    l.put("roads.cached_routes", cached_routes as f64, "count");
    l.put("spath.prepare_ch_ms", prepare_ms, "ms");
    l.put("spath.query_us.dijkstra", dijkstra_us, "us");
    l.put("spath.query_us.ch", ch_us, "us");
    l.put("spath.query_us.auto", auto_us, "us");
    l.put(
        "spath.routed_ratio",
        routed as f64 / pairs.len() as f64,
        "ratio",
    );
}

/// `net` / `core.bdrmap`, `regex` / `core.hoiho`.
fn ip_resolution(ctx: &mut Ctx, igdb: &Igdb) {
    let snaps = &ctx.inputs.snaps;
    let observed: Vec<Ip4> = snaps
        .ripe_traceroutes
        .iter()
        .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
        .collect::<BTreeSet<Ip4>>()
        .into_iter()
        .collect();
    let rib: Vec<(Prefix, Asn)> = snaps
        .bgp_prefixes
        .iter()
        .map(|r| (r.prefix, r.origin))
        .collect();
    let mut trie = PrefixTrie::new();
    for &(prefix, origin) in &rib {
        trie.insert(prefix, origin);
    }
    let trie_ns = {
        let _s = span("bench.net.trie.lookup");
        per_item(&observed, 1e6, |&ip| {
            std::hint::black_box(trie.lookup(ip));
        })
    };
    let ixp_lans: Vec<Prefix> = snaps.pdb_ix.iter().map(|ix| ix.prefix).collect();
    let bdrmap_ms = {
        let _s = span("bench.core.bdrmap.new");
        timed(|| std::hint::black_box(BdrMap::new(&rib, &ixp_lans))).1
    };
    let resolve_ns = {
        let _s = span("bench.core.bdrmap.resolve");
        per_item(&observed, 1e6, |&ip| {
            std::hint::black_box(igdb.bdrmap.resolve(ip));
        })
    };
    let ((hoiho, _skipped), hoiho_ms) = {
        let _s = span("bench.core.hoiho.build");
        timed(|| HoihoEngine::build(&snaps.hoiho_rules, &snaps.geo_codes, &igdb.metros))
    };
    let names = &snaps.rdns[..snaps.rdns.len().min(NAME_CAP)];
    let mut matched = 0usize;
    let geolocate_us = {
        let _s = span("bench.core.hoiho.geolocate");
        per_item(names, 1e3, |r| {
            matched += usize::from(hoiho.geolocate(&r.hostname).is_some());
        })
    };
    let l = &mut ctx.layers;
    l.put("net.trie_lookup_ns", trie_ns, "ns");
    l.put("bdrmap.new_ms", bdrmap_ms, "ms");
    l.put("bdrmap.resolve_ns", resolve_ns, "ns");
    l.put("hoiho.build_ms", hoiho_ms, "ms");
    l.put("hoiho.geolocate_us", geolocate_us, "us");
    l.put(
        "hoiho.match_ratio",
        matched as f64 / names.len().max(1) as f64,
        "ratio",
    );
}

/// `db`: insert, indexed lookup, scan, join, save and load.
fn tables(ctx: &mut Ctx, igdb: &Igdb) {
    let db = &igdb.db;
    let (hops, schema) = db
        .with_table("traceroutes", |t| (t.rows().to_vec(), t.schema().clone()))
        .expect("traceroutes");
    let insert_ms = {
        let _s = span("bench.db.table.insert_all");
        let mut fresh = Table::new(schema);
        timed(|| {
            fresh
                .insert_all(hops.iter().cloned())
                .expect("rows fit their own schema")
        })
        .1
    };
    let asns: Vec<Value> = igdb
        .asn_metros
        .keys()
        .map(|a| Value::Int(a.0 as i64))
        .collect();
    let lookup_ns = {
        let _s = span("bench.db.table.lookup");
        db.with_table("asn_loc", |t| {
            per_item(&asns, 1e6, |asn| {
                std::hint::black_box(t.lookup_ids("asn", asn).map(<[u32]>::len).ok());
            })
        })
        .expect("asn_loc")
    };
    let scan_ms = {
        let _s = span("bench.db.query.scan");
        db.with_table("traceroutes", |t| {
            timed(|| {
                Query::new(t)
                    .filter(Predicate::Gt("rtt_ms".into(), Value::Float(50.0)))
                    .count()
            })
            .1
        })
        .expect("traceroutes")
    };
    let join_ms = {
        let _s = span("bench.db.query.hash_join");
        db.with_table("asn_loc", |loc| {
            db.with_table("asn_org", |org| {
                timed(|| hash_join(loc, "asn", org, "asn").map(|j| j.len())).1
            })
        })
        .expect("asn_loc")
        .expect("asn_org")
    };
    let dir = ctx.out_dir.join(format!("db-probe-{}", std::process::id()));
    let save_ms = {
        let _s = span("bench.db.database.save_dir");
        timed(|| {
            db.save_dir(&dir)
                .expect("save the database under the out dir")
        })
        .1
    };
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let (loaded, load_ms) = {
        let _s = span("bench.db.database.load_dir");
        timed(|| Database::load_dir(&dir))
    };
    let _ = std::fs::remove_dir_all(&dir);
    let counts = |d: &Database| -> Vec<(String, usize)> {
        d.table_names()
            .into_iter()
            .map(|t| {
                let n = d.row_count(&t).unwrap_or(0);
                (t, n)
            })
            .collect()
    };
    let rows: usize = counts(db).iter().map(|(_, n)| n).sum();
    // Indexes are not persisted, so fingerprints differ by design.
    ctx.tally.check(
        loaded.is_ok_and(|l| counts(&l) == counts(db)),
        "db: a saved database loads back with the same tables and row counts",
    );
    let l = &mut ctx.layers;
    l.put(
        "db.insert_rows_per_s",
        hops.len() as f64 / (insert_ms / 1e3).max(1e-9),
        "1/s",
    );
    l.put("db.lookup_ns", lookup_ns, "ns");
    l.put("db.scan_ms", scan_ms, "ms");
    l.put("db.join_ms", join_ms, "ms");
    l.put("db.save_ms", save_ms, "ms");
    l.put("db.load_ms", load_ms, "ms");
    l.put("db.bytes_per_row", bytes as f64 / rows.max(1) as f64, "B");
}

/// `core.analysis`: every public entry point on its own.
fn analyses(ctx: &mut Ctx, igdb: &Igdb) {
    let world = ctx.inputs.world();
    let traces: Vec<Vec<Ip4>> = igdb
        .traces()
        .iter()
        .map(|t| t.hops.iter().filter_map(|h| h.ip).collect())
        .collect();
    let longhaul = intertubes_recreation(&world.cities, &world.row);
    let rocketfuel_map = rocketfuel_recreation(world);
    let hazard = gulf_hazard();
    let endpoints = igdb
        .metros
        .by_name("Dallas")
        .zip(igdb.metros.by_name("Atlanta"));
    let top = footprint::top_by_countries(igdb, 11);
    let params = BeliefPropParams::default();
    let first_trace = traces.first().cloned().unwrap_or_default();
    // Median of three calls; the two analyses that take seconds (fusion
    // falls back to CBG, and CBG scans every trace) are called once.
    let mut put = |name: &str, f: &mut dyn FnMut()| {
        let _s = span(format!("bench.core.analysis.{name}"));
        let reps = if matches!(name, "fusion" | "cbg") {
            1
        } else {
            3
        };
        let ms: Vec<f64> = (0..reps).map(|_| timed(&mut *f).1).collect();
        ctx.layers
            .put(format!("analysis.ms.{name}"), median(&ms), "ms");
    };
    put("physpath_batch", &mut || {
        std::hint::black_box(physpath::physical_path_reports_with(
            igdb,
            igdb.phys_graph(),
            &traces,
        ));
    });
    put("intertubes", &mut || {
        std::hint::black_box(intertubes::compare(igdb, &longhaul));
    });
    put("rocketfuel", &mut || {
        std::hint::black_box(rocketfuel::remap(igdb, &rocketfuel_map));
    });
    put("risk_exposure", &mut || {
        std::hint::black_box(risk::exposure(igdb, &hazard));
    });
    put("risk_reroute", &mut || {
        // Absent in a world without both metros; then this times nothing.
        if let Some((a, b)) = endpoints {
            std::hint::black_box(risk::reroute(igdb, &hazard, a, b));
        }
    });
    put("footprint_top", &mut || {
        std::hint::black_box(footprint::top_by_countries(igdb, 11));
    });
    put("footprint_overlap", &mut || {
        if let [a, b, ..] = top.as_slice() {
            std::hint::black_box(footprint::org_overlap(
                igdb,
                &a.organization,
                &b.organization,
            ));
        }
    });
    put("beliefprop", &mut || {
        std::hint::black_box(propagate(igdb, &params));
    });
    put("bp_consistency", &mut || {
        std::hint::black_box(consistency_check(igdb, &params));
    });
    put("density", &mut || {
        std::hint::black_box(density::node_density(igdb));
    });
    put("fusion", &mut || {
        std::hint::black_box(fusion::fuse(igdb, &first_trace));
    });
    put("cbg", &mut || {
        std::hint::black_box(cbg::geolocate_unlocated(igdb, 3));
    });
    put("export", &mut || {
        std::hint::black_box(export::export_physical_map(igdb).to_geojson());
    });
}

/// `serve.proto`: one frame per request of the seeded stream.
fn protocol(ctx: &mut Ctx, igdb: &Igdb) {
    let mut stream = RequestGen::new(igdb, ctx.seed);
    let requests: Vec<Request> = (0..SAMPLE_CAP).map(|_| stream.next()).collect();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let encode_ns = {
        let _s = span("bench.serve.proto.encode");
        per_item(&requests, 1e6, |req| {
            let mut buf = Vec::new();
            write_frame(&mut buf, 1, 0, req.op(), &req.encode_payload()).expect("write to a Vec");
            frames.push(buf);
        })
    };
    let mut decoded = 0usize;
    let decode_ns = {
        let _s = span("bench.serve.proto.decode");
        per_item(&frames, 1e6, |bytes| {
            let frame = read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME).expect("own frame");
            decoded += usize::from(Request::decode(frame.op, &frame.payload).is_ok());
        })
    };
    ctx.tally.check(
        decoded == requests.len(),
        "proto: every encoded request decodes",
    );
    ctx.layers.put("proto.encode_ns", encode_ns, "ns");
    ctx.layers.put("proto.decode_ns", decode_ns, "ns");
}
