//! Integration tests for the `igdb` command-line toolkit, driving the real
//! binary end to end (build → tables → query → metro → export).

use std::path::PathBuf;
use std::process::Command;

use igdb_core::analysis::export::export_physical_map;
use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, World, WorldConfig};

fn igdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_igdb"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igdb_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds one shared database for all CLI tests (the build step dominates
/// runtime).
fn built_db() -> PathBuf {
    static ONCE: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        let dir = tempdir("shared");
        let db = dir.join("db");
        let out = igdb()
            .args(["build", "--out"])
            .arg(&db)
            .args(["--scale", "tiny", "--mesh", "100"])
            .output()
            .expect("run igdb build");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        db
    })
    .clone()
}

#[test]
fn tables_lists_all_relations() {
    let db = built_db();
    let out = igdb().args(["tables", "--db"]).arg(&db).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for table in [
        "phys_nodes",
        "phys_conn",
        "asn_loc",
        "ip_asn_dns",
        "city_polygons",
    ] {
        assert!(text.contains(table), "missing {table} in:\n{text}");
    }
}

#[test]
fn query_filters_and_projects() {
    let db = built_db();
    let out = igdb()
        .args(["query", "--db"])
        .arg(&db)
        .args([
            "--table",
            "asn_loc",
            "--where",
            "asn=64174",
            "--select",
            "asn,metro",
            "--limit",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("asn\tmetro"));
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty() && rows.len() <= 5, "{rows:?}");
    for row in rows {
        assert!(row.starts_with("64174\t"), "{row}");
    }
}

#[test]
fn query_order_desc() {
    let db = built_db();
    let out = igdb()
        .args(["query", "--db"])
        .arg(&db)
        .args([
            "--table",
            "phys_conn",
            "--select",
            "distance_km",
            "--order",
            "distance_km:desc",
            "--limit",
            "10",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let values: Vec<f64> = text
        .lines()
        .skip(1)
        .map(|l| l.trim().parse().unwrap())
        .collect();
    assert!(values.len() >= 2);
    for w in values.windows(2) {
        assert!(w[0] >= w[1], "{values:?}");
    }
}

#[test]
fn metro_standardizes_a_coordinate() {
    let db = built_db();
    // A point in suburban Kansas City.
    let out = igdb()
        .args(["metro", "--db"])
        .arg(&db)
        .args(["--lon", "-94.65", "--lat", "39.05"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("-US") && text.contains("km from the city point"),
        "{text}"
    );
}

/// The CLI refuses the coordinates the pipeline quarantines instead of
/// wrapping and clamping them into a confident answer.
#[test]
fn metro_refuses_non_finite_and_out_of_range_coordinates() {
    let db = built_db();
    let metro = |lon: &str, lat: &str| {
        igdb()
            .args(["metro", "--db"])
            .arg(&db)
            .args(["--lon", lon, "--lat", lat])
            .output()
            .unwrap()
    };
    for (lon, lat, flag) in [
        ("NaN", "10", "--lon"),
        ("inf", "10", "--lon"),
        ("1e400", "10", "--lon"),
        ("10", "NaN", "--lat"),
        ("10", "91", "--lat"),
    ] {
        let out = metro(lon, lat);
        assert!(
            !out.status.success(),
            "--lon {lon} --lat {lat} was accepted"
        );
        assert!(
            out.stdout.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("bad {flag}")), "{err}");
    }
    let out = metro("2.35", "48.85");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Paris-FR"));
}

#[test]
fn export_writes_geojson() {
    let db = built_db();
    let file = db.parent().unwrap().join("map.geojson");
    let out = igdb()
        .args(["export", "--db"])
        .arg(&db)
        .args(["--out"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&file).unwrap();
    assert!(doc.starts_with("{\"type\":\"FeatureCollection\""));
    assert!(doc.contains("\"layer\":\"nodes\""));
    assert!(doc.contains("\"layer\":\"cables\""));
    // One GeoJSON writer: the CLI's file over the saved-and-reloaded
    // database is the library's rendering of the same world, byte for byte
    // (layer order, coordinate formatting, geometry types).
    let world = World::generate(WorldConfig::tiny());
    let igdb = Igdb::build(&emit_snapshots(&world, "2022-05-03", 100));
    assert!(
        doc == export_physical_map(&igdb).to_geojson(),
        "CLI export differs from the library's"
    );
}

#[test]
fn metrics_rejects_malformed_jsonl_with_line_number() {
    let dir = tempdir("badjsonl");
    let bad = dir.join("broken.jsonl");
    std::fs::write(
        &bad,
        "{\"type\":\"counter\",\"name\":\"ok\",\"label\":\"\",\"value\":1}\n\
         {\"type\":\"wombat\",\"name\":\"x\"}\n",
    )
    .unwrap();
    let out = igdb().args(["metrics", "--in"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malformed metrics file")
            && stderr.contains("line 2")
            && stderr.contains("broken.jsonl"),
        "stderr should carry the path and offending line:\n{stderr}"
    );
}

/// Writes a small handcrafted metric stream for the diff-gate tests.
fn write_stream(path: &std::path::Path, spath_queries: u64, par_tasks: u64) {
    std::fs::write(
        path,
        format!(
            "{{\"type\":\"counter\",\"name\":\"spath.queries\",\"label\":\"\",\"value\":{spath_queries}}}\n\
             {{\"type\":\"perf\",\"name\":\"par.tasks\",\"label\":\"\",\"value\":{par_tasks}}}\n\
             {{\"type\":\"span\",\"name\":\"serving.query_mix\",\"parent\":null,\"depth\":0,\"start_us\":0,\"dur_us\":0}}\n"
        ),
    )
    .unwrap();
}

#[test]
fn metrics_diff_gates_counters_exactly_and_never_perf() {
    let dir = tempdir("diffgate");
    let base = dir.join("base.jsonl");
    let same = dir.join("same.jsonl");
    let drifted = dir.join("drifted.jsonl");
    write_stream(&base, 100, 40);
    write_stream(&same, 100, 47); // perf drift only
    write_stream(&drifted, 101, 40); // counter perturbed

    // Identical counters, perf drifted 17.5%: clean, exit 0 — perf-class
    // metrics are not this gate's business.
    let out = igdb()
        .arg("metrics")
        .arg("diff")
        .arg(&base)
        .arg(&same)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // A perturbed counter: exit 2 with a per-metric delta table.
    let out = igdb()
        .arg("metrics")
        .arg("diff")
        .arg(&base)
        .arg(&drifted)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("spath.queries") && table.contains("100") && table.contains("101"),
        "delta table should name the counter and both values:\n{table}"
    );
    assert!(table.contains("value changed"), "{table}");

    // Wrong operand count is a usage error (exit 1), not a divergence —
    // and so is the retired single-run perf band, whose value now reads
    // as a third file.
    let one_file = igdb()
        .arg("metrics")
        .arg("diff")
        .arg(&base)
        .output()
        .unwrap();
    let retired_flag = igdb()
        .arg("metrics")
        .arg("diff")
        .arg(&base)
        .arg(&same)
        .args(["--perf-tolerance", "5"])
        .output()
        .unwrap();
    for out in [one_file, retired_flag] {
        assert_eq!(out.status.code(), Some(1));
        assert!(String::from_utf8_lossy(&out.stderr).contains("exactly two files"));
    }
}

#[test]
fn usage_documents_profile_and_diff() {
    let out = igdb().arg("--help").output().unwrap();
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    for needle in ["--profile", "metrics diff", "queries"] {
        assert!(usage.contains(needle), "usage missing {needle}:\n{usage}");
    }
}

/// Every report of the paper's evaluation over one tiny world, in one
/// process and in the order given.
#[test]
fn report_runs_every_paper_report_over_one_world() {
    let titles = [
        ("table1", "Table 1"),
        ("table2", "Table 2"),
        ("table3", "Table 3"),
        ("fig3", "Figure 3"),
        ("fig4", "Figure 4"),
        ("fig5", "Figure 5"),
        ("fig6", "Figure 6"),
        ("fig7", "Figure 7"),
        ("fig8", "Figure 8"),
        ("fig9", "Figures 1 & 9"),
        ("fig10", "Figure 10"),
        ("sec44", "Section 4.4"),
        (
            "ablation",
            "Ablation 1: belief-propagation latency threshold",
        ),
    ];
    let out = igdb()
        .arg("report")
        .args(titles.iter().map(|&(id, _)| id))
        .args(["--scale", "tiny", "--mesh", "100"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut from = 0;
    for (id, title) in titles {
        let header = format!("== {title} (scale: tiny) ==\n");
        let at = text[from..].find(&header);
        from +=
            at.unwrap_or_else(|| panic!("{id}: no {header:?} in order in:\n{text}")) + header.len();
    }
}

/// An unknown report id or tier is a usage error that lists the valid
/// values, not a panic.
#[test]
fn report_refuses_unknown_ids_and_tiers() {
    let ids = "table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|sec44|ablation";
    for (args, valid) in [
        (["report", "table4", "--scale", "tiny"], ids),
        (
            ["report", "table1", "--scale", "huge"],
            "tiny|medium|paper|large|planet",
        ),
    ] {
        let out = igdb().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(valid) && !err.contains("panicked"),
            "{args:?}:\n{err}"
        );
    }
}

/// The database a tiny build writes, pinned: clean, and with seeded
/// corruption that quarantines Natural Earth places, roads and geocodes —
/// so validation copies the sources it edits and rewrites metro ids.
#[test]
fn build_fingerprints_are_pinned() {
    let dir = tempdir("fingerprint");
    for (i, (corrupt, want)) in [
        (&[][..], "fingerprint 7ae89547c0ae0038"),
        (&["--corrupt", "7"][..], "fingerprint 14384ed64df0f343"),
    ]
    .into_iter()
    .enumerate()
    {
        let out = igdb()
            .args(["build", "--out"])
            .arg(dir.join(format!("db{i}")))
            .args(["--scale", "tiny", "--fingerprint"])
            .args(corrupt)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.lines().any(|l| l == want),
            "{corrupt:?}: want {want}, got:\n{stdout}"
        );
    }
}

/// An `igdb top` poll interval no `Duration` can hold is a usage error
/// before any connection is tried, not a panic after the first poll.
#[test]
fn top_refuses_an_interval_it_cannot_sleep() {
    for interval in ["inf", "1e300", "NaN", "-1", "0"] {
        let out = igdb()
            .args(["top", "--addr", "unix:/nonexistent", "--interval", interval])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--interval {interval}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--interval") && !err.contains("connect"),
            "{interval}: {err}"
        );
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = igdb().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = igdb()
        .args(["query", "--db", "/nonexistent", "--table", "x"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let db = built_db();
    let out = igdb()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--table", "no_such_table"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no such table"));
}
