//! §4 analysis profiles as JSONL — the driver behind the profile-driven
//! speed pass (DESIGN.md §14) and the CI `profile-gate` job.
//!
//! Builds a fixture, then runs the fixed serving query mix (all five §4
//! analyses) plus the §4.4 belief-propagation pass under an installed
//! registry, and reports `Registry::profile()` (per-span calls / total /
//! self time and the critical path). The deterministic counter stream can
//! be written out and diffed against the committed baseline
//! (`tests/golden/analysis_profiles.jsonl`) with `igdb metrics diff` — any
//! delta is a real behaviour change.
//!
//! ```text
//! cargo run --release -p igdb-bench --bin analysis_profiles -- \
//!     [--scale tiny|medium|paper] [--out FILE.jsonl] [--deterministic]
//! ```

use std::io::Write as _;

use igdb_bench::{fixture, Scale};
use igdb_core::analysis::beliefprop::{consistency_check, propagate, BeliefPropParams};
use igdb_core::igdb_obs;
use igdb_core::serving::run_query_mix;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::parse(&args);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    let deterministic = args.iter().any(|a| a == "--deterministic");

    // The fixture build stays outside the registry: the profile covers the
    // repeated-query regime (the paper's value is in re-querying a built
    // database), and the build's own counters are already gated by
    // `tests/golden/observability.jsonl`.
    let f = fixture(scale);

    let reg = igdb_obs::Registry::new();
    {
        let _g = reg.install();
        let summary = run_query_mix(&f.world, &f.igdb);
        let params = BeliefPropParams::default();
        let bp = propagate(&f.igdb, &params);
        let cons = consistency_check(&f.igdb, &params);
        igdb_obs::counter("beliefprop.assignments", "", bp.assignments.len() as u64);
        igdb_obs::counter("beliefprop.new_tuples", "", bp.new_tuples.len() as u64);
        igdb_obs::counter("beliefprop.comparable", "", cons.comparable as u64);
        eprintln!(
            "scale {scale:?}: physpath {} / intertubes {} / rocketfuel {} / risk {} / footprint {} / bp {} addrs, {} tuples, consistency {:.2}",
            summary.physpath_reports,
            summary.intertubes_covered,
            summary.rocketfuel_mapped,
            summary.risk_paths,
            summary.footprint_rows,
            bp.assignments.len(),
            bp.new_tuples.len(),
            cons.agreement(),
        );
    }

    println!("{}", reg.profile().render_table());

    if let Some(path) = out {
        let mode = if deterministic {
            igdb_obs::JsonMode::Deterministic
        } else {
            igdb_obs::JsonMode::Full
        };
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(reg.json_lines(mode).as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {} stream to {path}", if deterministic { "deterministic" } else { "full" });
    }
}
