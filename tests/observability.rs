//! The observability contract: deterministic counters, monotone span
//! trees, and the cross-check between the metrics stream and the
//! `BuildReport` the pipeline prints.
//!
//! Invariants under test:
//!
//! * **Conservation.** For every source, `ingest.rows_in` equals
//!   `ingest.rows_accepted + ingest.rows_quarantined` (unless the source
//!   was dropped), and each counter equals the corresponding
//!   `SourceHealth` field — the numbers in `--metrics` are the numbers in
//!   `--report`, by construction and by test.
//! * **Monotone nesting.** Spans close in LIFO order, children start no
//!   earlier than their parents, and sibling spans don't overlap.
//! * **Run-to-run invariance.** The counter snapshot is byte-identical
//!   across two builds; only `perf` metrics may differ.
//! * **Golden stream.** `JsonMode::Deterministic` over the synthetic tiny
//!   world matches a checked-in golden file (bless with `IGDB_BLESS=1`).
//! * **CLI parity.** `igdb build --report F --metrics G` writes two views
//!   of the same accounting; unwritable paths fail fast and non-zero.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use igdb_core::analysis::beliefprop::{consistency_check, propagate, BeliefPropParams};
use igdb_core::analysis::risk::{self, Reroute};
use igdb_core::igdb_obs::{JsonMode, Registry};
use igdb_core::serving::gulf_hazard;
use igdb_core::{run_query_mix, BuildPolicy, Igdb, SourceId};
use igdb_serve::{Client, Listener, Request, Response, Server, ServerConfig};
use igdb_synth::faults::FaultClass;
use igdb_synth::sources::SnapshotSet;
use igdb_synth::{emit_snapshots, generate_delta, inject_faults, DeltaClass, World, WorldConfig};

fn snaps() -> SnapshotSet {
    let world = World::generate(WorldConfig::tiny());
    emit_snapshots(&world, "2022-05-03", 100)
}

fn faulty_snaps(seed: u64) -> SnapshotSet {
    let mut s = snaps();
    inject_faults(&mut s, seed, &FaultClass::ALL_RECORD_CLASSES);
    s
}

// ---------------------------------------------------------------------------
// Conservation: counters ↔ report
// ---------------------------------------------------------------------------

#[test]
fn ingestion_counters_conserve_rows_per_source() {
    let s = faulty_snaps(7);
    let reg = Registry::new();
    let report = {
        let _g = reg.install();
        let (_igdb, report) =
            Igdb::try_build(&s, &BuildPolicy::lenient()).expect("lenient build succeeds");
        report
    };
    for src in SourceId::ALL {
        let name = src.name();
        let rows_in = reg.counter_value("ingest.rows_in", name);
        let accepted = reg.counter_value("ingest.rows_accepted", name);
        let quarantined = reg.counter_value("ingest.rows_quarantined", name);
        let h = report.health(src);
        assert_eq!(rows_in, h.rows_in as u64, "{name}: rows_in");
        assert_eq!(accepted, h.rows_accepted as u64, "{name}: rows_accepted");
        assert_eq!(
            quarantined, h.rows_quarantined as u64,
            "{name}: rows_quarantined"
        );
        if h.dropped {
            assert_eq!(accepted, 0, "{name}: dropped source accepted rows");
        } else {
            assert_eq!(
                rows_in,
                accepted + quarantined,
                "{name}: conservation violated"
            );
        }
    }
    // The report agrees with itself, too (satellite: crosscheck is wired).
    report.crosscheck().expect("report internally consistent");
}

#[test]
fn clean_build_quarantines_nothing() {
    let s = snaps();
    let reg = Registry::new();
    {
        let _g = reg.install();
        Igdb::try_build(&s, &BuildPolicy::strict()).expect("clean strict build");
    }
    for src in SourceId::ALL {
        assert_eq!(reg.counter_value("ingest.rows_quarantined", src.name()), 0);
    }
    assert_eq!(reg.counter_value("ingest.sources_dropped", ""), 0);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[test]
fn span_tree_is_monotone_and_covers_the_pipeline() {
    let s = snaps();
    let reg = Registry::new();
    {
        let _g = reg.install();
        Igdb::try_build(&s, &BuildPolicy::lenient()).unwrap();
    }
    reg.check_span_nesting().expect("span nesting invariants");

    let spans = reg.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_ref()).collect();
    for expected in [
        "pipeline",
        "validate",
        "build",
        "build.physical",
        "physical.spatial_join",
        "physical.routing",
        "build.metros",
        "build.ip_resolution",
        "build.index",
    ] {
        assert!(
            names.contains(&expected),
            "missing span '{expected}' in {names:?}"
        );
    }
    // Every span closed, and durations are consistent with the hierarchy:
    // a child's duration never exceeds its parent's.
    for (i, s) in spans.iter().enumerate() {
        let dur = s
            .dur_us
            .unwrap_or_else(|| panic!("span '{}' never closed", s.name));
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(parent.depth + 1 == s.depth, "span {i} depth");
            assert!(
                parent.start_us <= s.start_us,
                "child '{}' started before parent '{}'",
                s.name,
                parent.name
            );
            let pdur = parent.dur_us.unwrap();
            assert!(
                s.start_us + dur <= parent.start_us + pdur,
                "child '{}' outlived parent '{}'",
                s.name,
                parent.name
            );
        }
    }
    // "validate" and "build" are both children of "pipeline".
    let pipeline_idx = spans.iter().position(|s| s.name == "pipeline").unwrap();
    for child in ["validate", "build"] {
        let c = spans.iter().find(|s| s.name == child).unwrap();
        assert_eq!(c.parent, Some(pipeline_idx), "'{child}' parent");
    }
}

// ---------------------------------------------------------------------------
// Run-to-run invariance
// ---------------------------------------------------------------------------

/// (Named for the worker axis it had while the build was parallel.)
#[test]
fn counter_snapshot_is_identical_at_1_and_4_workers() {
    let s = faulty_snaps(11);
    let snapshot = || {
        let reg = Registry::new();
        let _g = reg.install();
        Igdb::try_build(&s, &BuildPolicy::lenient()).unwrap();
        reg.counter_snapshot()
    };
    let first = snapshot();
    assert!(!first.is_empty());
    assert_eq!(
        first,
        snapshot(),
        "counters must derive from the data alone"
    );
}

// ---------------------------------------------------------------------------
// Golden JSON-lines stream
// ---------------------------------------------------------------------------

#[test]
fn deterministic_json_lines_match_golden() {
    let golden_path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/observability.jsonl"
    ));
    let s = snaps();
    let reg = Registry::new();
    {
        let _g = reg.install();
        Igdb::try_build(&s, &BuildPolicy::lenient()).unwrap();
    }
    let got = reg.json_lines(JsonMode::Deterministic);
    if std::env::var_os("IGDB_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with IGDB_BLESS=1 to create)",
            golden_path.display()
        )
    });
    assert_eq!(
        got, want,
        "deterministic metrics stream drifted from tests/golden/observability.jsonl \
         (if intentional, re-bless with IGDB_BLESS=1)"
    );
    // Round-trips through the parser.
    let back = Registry::from_json_lines(&got).unwrap();
    assert_eq!(back.counter_snapshot(), reg.counter_snapshot());
}

// ---------------------------------------------------------------------------
// Serving telemetry: query mix, quantiles, profile, regression gate
// ---------------------------------------------------------------------------

/// Builds a fresh database (cold corridor caches) and runs what `igdb
/// queries` runs — the fixed query mix, then the §4.4 belief-propagation
/// pass — returning the registry. The build runs outside the registry so
/// the stream holds analysis telemetry only.
fn serve_mix(world: &World) -> Registry {
    let snaps = emit_snapshots(world, "2022-05-03", 100);
    let igdb = Igdb::build(&snaps);
    let reg = Registry::new();
    {
        let _g = reg.install();
        run_query_mix(world, &igdb);
        let params = BeliefPropParams::default();
        propagate(&igdb, &params);
        consistency_check(&igdb, &params);
    }
    reg
}

/// Every production path answers with resumable Dijkstra: nothing between
/// a build and a served request may contract a hierarchy, whatever the
/// graph's size. A lazy or eager prepare on any of those paths shows up
/// here as a `ch.builds` tick.
#[test]
fn no_production_path_builds_a_contraction_hierarchy() {
    let world = World::generate(WorldConfig::tiny());
    let snaps = emit_snapshots(&world, "2022-05-03", 100);
    let lenient = BuildPolicy::lenient();
    let reg = Registry::new();
    {
        let _g = reg.install();
        let (igdb, _) = Igdb::try_build(&snaps, &lenient).unwrap();
        // The mix leaves `phys_graph()` warm, so both applies below take
        // the repair path rather than the lazy rebuild.
        run_query_mix(&world, &igdb);
        let (road, _) = generate_delta(&snaps, 5, &[DeltaClass::RoadChurn]);
        igdb.apply_delta(&road, &lenient)
            .expect("road churn applies");
        let (prune, _) = generate_delta(&snaps, 23, &[DeltaClass::AtlasPrune]);
        let (pruned, _, _) = igdb.apply_delta(&prune, &lenient).expect("prune applies");

        // A pair inside the hazard: its route fails, so the reroute builds
        // and queries the one-shot degraded graph.
        let (a, b) = (
            igdb.metros.by_name("Houston").unwrap(),
            igdb.metros.by_name("New Orleans").unwrap(),
        );
        let rerouted = risk::reroute(&igdb, &gulf_hazard(), a, b).expect("connected");
        assert!(
            !matches!(rerouted, Reroute::Unaffected { .. }),
            "{rerouted:?}"
        );

        let sock = tempdir("nochbuild").join("s.sock");
        let listener = Listener::bind_unix(&sock).expect("bind unix listener");
        let pairs: Vec<(usize, usize)> = pruned
            .phys_pairs
            .iter()
            .step_by(7)
            .take(6)
            .map(|&(a, b, _)| (a, b))
            .collect();
        let server = Server::start(
            Arc::new(pruned),
            listener,
            ServerConfig::default(),
            reg.clone(),
        )
        .expect("start server");
        let mut client = Client::connect(&server.addr(), Duration::from_secs(5)).unwrap();
        for w in pairs.windows(2) {
            let req = Request::SpQuery {
                from: w[0].0 as u32,
                to: w[1].1 as u32,
            };
            let resp = client.call(&req, 0).expect("sp_query answered");
            assert!(
                matches!(resp, Response::Path { .. } | Response::NoRoute),
                "{resp:?}"
            );
        }
        drop(client);
        server.drain();
    }
    assert!(
        reg.counter_value("spath.queries", "") > 0,
        "the scenario routed nothing"
    );
    assert_eq!(reg.perf_value("ch.builds", ""), 0);
    assert!(
        !reg.json_lines(JsonMode::Full).contains("\"ch.builds\""),
        "a hierarchy was contracted under some label"
    );
}

/// Two servings of the mix over fresh builds agree. (Named for the
/// worker axis it had while the build was parallel.)
#[test]
fn serving_counters_invariant_across_workers() {
    let world = World::generate(WorldConfig::tiny());
    let baseline = serve_mix(&world).json_lines(JsonMode::Deterministic);
    // The stream actually carries the serving counters.
    for needle in ["serving.mix_runs", "analysis.queries", "spath.queries"] {
        assert!(
            baseline.contains(needle),
            "missing {needle} in:\n{baseline}"
        );
    }
    let got = serve_mix(&world).json_lines(JsonMode::Deterministic);
    assert_eq!(
        baseline, got,
        "serving counter stream diverged between two runs"
    );
}

#[test]
fn serving_stream_matches_golden() {
    let golden_path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serving.jsonl"
    ));
    let world = World::generate(WorldConfig::tiny());
    let got = serve_mix(&world).json_lines(JsonMode::Deterministic);
    if std::env::var_os("IGDB_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with IGDB_BLESS=1 to create)",
            golden_path.display()
        )
    });
    assert_eq!(
        got, want,
        "deterministic serving stream drifted from tests/golden/serving.jsonl \
         (if intentional, re-bless with IGDB_BLESS=1)"
    );
    // The committed baseline also gates cleanly against itself through the
    // diff the CI metrics-gate job runs.
    let base = Registry::from_json_lines(&want).unwrap();
    let cur = Registry::from_json_lines(&got).unwrap();
    assert!(igdb_core::igdb_obs::diff_registries(&base, &cur).is_clean());
}

#[test]
fn serving_quantiles_and_profile_are_coherent() {
    let world = World::generate(WorldConfig::tiny());
    let reg = serve_mix(&world);

    // The per-trace latency histogram exists, with monotone quantiles
    // bounded by the observed extremes.
    let h = reg
        .histogram("analysis.query_us", "physpath")
        .expect("physpath latency histogram recorded");
    assert!(h.count > 10, "too few physpath queries: {}", h.count);
    let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
    assert!(
        p50 <= p90 && p90 <= p99,
        "quantiles not monotone: {p50} {p90} {p99}"
    );
    assert!(h.quantile(0.0) <= p50 && p99 <= h.quantile(1.0));

    // The profile aggregates the serving span tree: the mix root carries
    // every analysis span, and the critical path starts at the root.
    let profile = reg.profile();
    let names: Vec<&str> = profile.rows.iter().map(|r| r.name.as_ref()).collect();
    for expected in [
        "serving.query_mix",
        "analysis.intertubes",
        "analysis.rocketfuel",
    ] {
        assert!(
            names.contains(&expected),
            "missing profile row '{expected}' in {names:?}"
        );
    }
    let root = profile
        .rows
        .iter()
        .find(|r| r.name == "serving.query_mix")
        .unwrap();
    assert_eq!(root.calls, 1);
    assert!(root.self_us <= root.total_us);
    assert_eq!(
        profile.critical_path.first().map(|(n, _)| n.as_ref()),
        Some("serving.query_mix")
    );
    // The rendered forms carry the new columns/sections.
    assert!(reg.render_table().contains("p99"));
    assert!(profile.render_table().contains("critical path:"));
}

// ---------------------------------------------------------------------------
// CLI parity and fail-fast IO
// ---------------------------------------------------------------------------

fn igdb_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_igdb"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igdb_obs_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cli_metrics_and_report_tell_the_same_story() {
    let dir = tempdir("parity");
    let rpt = dir.join("report.txt");
    let jsonl = dir.join("metrics.jsonl");
    let out = igdb_bin()
        .args(["build", "--out"])
        .arg(dir.join("db"))
        .args([
            "--scale",
            "tiny",
            "--mesh",
            "100",
            "--corrupt",
            "7",
            "--report",
        ])
        .arg(&rpt)
        .arg("--metrics")
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Parse the per-source table out of the report file.
    let report = std::fs::read_to_string(&rpt).unwrap();
    let reg = Registry::from_json_lines(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
    let mut sources_seen = 0;
    for line in report.lines().skip(1) {
        if line.starts_with("quarantined records:") {
            break;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [name, rows_in, accepted, quarantined, _status] = cols[..] else {
            panic!("unparseable report line: {line}");
        };
        assert_eq!(
            reg.counter_value("ingest.rows_in", name),
            rows_in.parse::<u64>().unwrap(),
            "{name}: rows_in mismatch between --report and --metrics"
        );
        assert_eq!(
            reg.counter_value("ingest.rows_accepted", name),
            accepted.parse::<u64>().unwrap(),
            "{name}: accepted mismatch"
        );
        assert_eq!(
            reg.counter_value("ingest.rows_quarantined", name),
            quarantined.parse::<u64>().unwrap(),
            "{name}: quarantined mismatch"
        );
        sources_seen += 1;
    }
    assert_eq!(
        sources_seen,
        SourceId::ALL.len(),
        "report lists every source"
    );

    // `igdb metrics --in` renders the stream back as the same table the
    // registry renders.
    let out = igdb_bin()
        .args(["metrics", "--in"])
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table, reg.render_table());
    assert!(table.contains("ingest.rows_in"), "{table}");
}

#[test]
fn unwritable_metrics_path_fails_fast_and_nonzero() {
    let dir = tempdir("badmetrics");
    let bad = dir.join("no_such_subdir").join("metrics.jsonl");
    let out = igdb_bin()
        .args(["build", "--out"])
        .arg(dir.join("db"))
        .args(["--scale", "tiny", "--mesh", "10", "--metrics"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create metrics file") && stderr.contains("no_such_subdir"),
        "stderr should carry the typed IO error with the path:\n{stderr}"
    );
    // Fail-fast: the build never started, so no world generation banner.
    assert!(!stderr.contains("generating world"), "{stderr}");
}

#[test]
fn unwritable_report_path_fails_fast_and_nonzero() {
    let dir = tempdir("badreport");
    let bad = dir.join("no_such_subdir").join("report.txt");
    let out = igdb_bin()
        .args(["build", "--out"])
        .arg(dir.join("db"))
        .args(["--scale", "tiny", "--mesh", "10", "--report"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create report file") && stderr.contains("no_such_subdir"),
        "stderr should carry the typed IO error with the path:\n{stderr}"
    );
    assert!(!stderr.contains("generating world"), "{stderr}");
}
