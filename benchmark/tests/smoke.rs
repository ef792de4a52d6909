//! Smoke test on the unit-test world (`--quick`): every workload of the
//! package, both passes, checked against what `BENCHMARK.json` declares. Quick numbers
//! are never recorded; this only checks names, units and correctness.

#[path = "../src/json.rs"]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

/// The package's workloads: those `BENCHMARK.json` lists for a driver, and
/// `serve`, which only `run.sh` runs.
const WORKLOADS: [&str; 5] = ["build", "refresh", "analyze", "serve", "serve_churn"];

fn declaration() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(decl: &Json, key: &str) -> Vec<(String, String)> {
    decl.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn declaration_stays_within_the_contract() {
    let decl = declaration();
    let workloads = decl.get("workloads").expect("workloads").items();
    let (e2e, layers) = (
        names_and_units(&decl, "end_to_end"),
        names_and_units(&decl, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!(
        workloads
            .iter()
            .all(|w| WORKLOADS.contains(&w.get("name").and_then(Json::as_str).expect("name"))),
        "a declared workload is not one of the package's"
    );
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<String> = workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .chain(e2e.iter().chain(&layers).map(|(n, _)| n.clone()))
        .collect();
    assert!(
        names.iter().all(|n| well_formed(n)),
        "a name falls outside [A-Za-z0-9_.-]{{1,64}}"
    );
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(
        e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"),
        "setup_s [s] must be declared"
    );
}

#[test]
fn every_workload_prints_exactly_what_is_declared() {
    let decl = declaration();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_bench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                ])
                // A world other than the recorded one: the checks hold there too.
                .args(["--world-seed", "1337", "--quick", "--out"])
                .arg(&out)
                .output()
                .expect("run the bench binary");
            let ctx = format!("{workload} --trace {trace}");
            assert!(
                run.status.success(),
                "{ctx}: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            let stdout = String::from_utf8_lossy(&run.stdout);
            let result =
                Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{ctx}");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{ctx}: {stdout}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{ctx}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0,
                "{ctx}"
            );

            let printed = result.get("metrics").expect("metrics").members();
            let declared = names_and_units(&decl, key);
            for (name, unit) in &declared {
                let hits: Vec<&Json> = printed
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, m)| m)
                    .collect();
                assert_eq!(hits.len(), 1, "{ctx}: {name} printed {} times", hits.len());
                assert_eq!(
                    hits[0].get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{ctx}: {name}"
                );
                let value = hits[0].get("value").and_then(Json::as_f64).expect("value");
                assert!(value.is_finite(), "{ctx}: {name} is {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{ctx}: end-to-end {name} must never be 0");
                }
            }
            for (name, _) in printed {
                assert!(
                    declared.iter().any(|(n, _)| n == name),
                    "{ctx}: {name} is not declared"
                );
            }
            if trace == "1" {
                let file = out.join(format!("{workload}.trace.jsonl"));
                let text = std::fs::read_to_string(&file).expect("trace file written");
                assert!(
                    text.lines()
                        .any(|l| l.contains(&format!("\"name\":\"bench.{workload}\""))),
                    "{ctx}"
                );
            }
        }
    }
}
