//! Fixed synthetic serving workload for telemetry and the regression gate.
//!
//! The paper's value is in *repeated* cross-layer queries over a built
//! database, so the telemetry layer needs a workload that exercises every
//! analysis entry point the same way on every run: the query mix below is
//! a pure function of the built world (no randomness, no environment), so
//! its deterministic counter stream is byte-identical run to run and across
//! shortest-path modes — exactly what `igdb metrics diff` gates on in
//! CI against the committed `tests/golden/serving.jsonl` baseline.
//!
//! The mix covers all five §4 analyses:
//!
//! 1. **physpath** — the Figure 7 batch over the full traceroute mesh;
//! 2. **intertubes** — the Figure 4 long-haul comparison;
//! 3. **rocketfuel** — the Figure 8 logical-map remap;
//! 4. **risk** — Gulf-coast hurricane exposure plus a Dallas→Atlanta
//!    reroute (the RiskRoute scenario from `examples/risk_assessment.rs`);
//! 5. **footprint** — Table 2 country presence plus the Figure 6 overlap
//!    of the top two organizations.

use igdb_geo::{GeoPoint, Polygon};
use igdb_net::Ip4;
use igdb_synth::intertubes::{intertubes_recreation, rocketfuel_recreation};
use igdb_synth::World;

use crate::analysis::{footprint, intertubes, physpath, risk, rocketfuel};
use crate::build::Igdb;

/// Deterministic, data-derived summary of one query-mix run. Every field
/// is a function of the built database, never of scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryMixSummary {
    /// Traceroutes that produced a physical-path report.
    pub physpath_reports: usize,
    /// Long-haul links the InterTubes comparison covered.
    pub intertubes_covered: usize,
    /// Rocketfuel logical edges mapped onto physical corridors.
    pub rocketfuel_mapped: usize,
    /// Physical paths crossing the hazard region.
    pub risk_paths: usize,
    /// Table 2 rows returned by the footprint query.
    pub footprint_rows: usize,
    /// Legs that failed instead of reporting. Empty on a healthy run; a
    /// non-empty list means the matching count fields are zero because
    /// the query died, **not** because the data was empty — callers used
    /// to have no way to tell those apart.
    pub failures: Vec<MixFailure>,
}

/// One failed leg of the serving mix: which query died and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixFailure {
    /// The analysis leg (`physpath`, `intertubes`, …).
    pub query: &'static str,
    /// The rendered panic payload.
    pub detail: String,
}

/// Runs one mix leg under panic containment (the same discipline as the
/// serve worker's `catch_unwind`): a leg that dies yields `None` plus a
/// [`MixFailure`], tallied under the perf counter `serving.mix_failures`
/// so the deterministic gated stream is unaffected, and the remaining
/// legs still run.
fn guarded<T>(
    failures: &mut Vec<MixFailure>,
    query: &'static str,
    f: impl FnOnce() -> T,
) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            igdb_obs::perf("serving.mix_failures", query, 1);
            failures.push(MixFailure { query, detail: panic_detail(&*payload) });
            None
        }
    }
}

/// Renders a caught panic payload: its text when it has one.
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The hazard polygon used by the risk leg of the mix: a hurricane
/// landfall box over the US Gulf coast (27°–31.5°N, 98°–88°W).
pub fn gulf_hazard() -> Polygon {
    Polygon::new(
        vec![
            GeoPoint::raw(-98.0, 27.0),
            GeoPoint::raw(-88.0, 27.0),
            GeoPoint::raw(-88.0, 31.5),
            GeoPoint::raw(-98.0, 31.5),
        ],
        vec![],
    )
}

/// Runs the fixed serving mix against a built database, emitting the
/// serving counters, latency histograms and analysis spans into the
/// currently installed [`igdb_obs::Registry`] (if any).
///
/// Span routing: this entry point is serial, so its spans land on the
/// registry's deterministic span list. The same analyses, when invoked by
/// `igdb-serve` pool workers, run under a per-request
/// [`igdb_obs::TraceContext`] instead — their free spans then build the
/// request's own tree and never touch the registry, which is what keeps
/// the gated counter stream identical between `igdb queries` and a
/// loaded server.
pub fn run_query_mix(world: &World, igdb: &Igdb) -> QueryMixSummary {
    let _span = igdb_obs::span("serving.query_mix");

    let mut failures = Vec::new();

    // 1. Physical paths for the whole anchor-mesh traceroute set, one
    //    report per trace in input order, on this thread.
    let physpath_reports = guarded(&mut failures, "physpath", || {
        let traces: Vec<Vec<Ip4>> = igdb
            .traces()
            .iter()
            .map(|t| t.hops.iter().filter_map(|h| h.ip).collect())
            .collect();
        let reports = physpath::physical_path_reports_with(igdb, igdb.phys_graph(), &traces);
        reports.iter().flatten().count()
    })
    .unwrap_or(0);

    // 2. InterTubes long-haul comparison.
    let intertubes_covered = guarded(&mut failures, "intertubes", || {
        let links = intertubes_recreation(&world.cities, &world.row);
        intertubes::compare(igdb, &links).covered
    })
    .unwrap_or(0);

    // 3. Rocketfuel logical-map remap.
    let rocketfuel_mapped = guarded(&mut failures, "rocketfuel", || {
        let map = rocketfuel_recreation(world);
        rocketfuel::remap(igdb, &map).mapped_edges
    })
    .unwrap_or(0);

    // 4. Hazard exposure + reroute of a pair whose traffic crosses the
    //    Gulf (skipped quietly at scales where the metros don't exist).
    let risk_paths = guarded(&mut failures, "risk", || {
        let hazard = gulf_hazard();
        let exposure = risk::exposure(igdb, &hazard);
        if let (Some(a), Some(b)) =
            (igdb.metros.by_name("Dallas"), igdb.metros.by_name("Atlanta"))
        {
            let _ = risk::reroute(igdb, &hazard, a, b);
        }
        exposure.paths_at_risk.len()
    })
    .unwrap_or(0);

    // 5. AS footprints: Table 2 plus the overlap of the top two orgs.
    let footprint_rows = guarded(&mut failures, "footprint", || {
        let rows = footprint::top_by_countries(igdb, 11);
        if let [a, b, ..] = rows.as_slice() {
            let _ = footprint::org_overlap(igdb, &a.organization, &b.organization);
        }
        rows.len()
    })
    .unwrap_or(0);

    igdb_obs::counter("serving.mix_runs", "", 1);
    QueryMixSummary {
        physpath_reports,
        intertubes_covered,
        rocketfuel_mapped,
        risk_paths,
        footprint_rows,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, WorldConfig};

    #[test]
    fn query_mix_covers_every_analysis() {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 120);
        let igdb = Igdb::build(&snaps);
        let reg = igdb_obs::Registry::new();
        let summary = {
            let _g = reg.install();
            run_query_mix(&world, &igdb)
        };
        assert!(summary.physpath_reports > 0);
        assert!(summary.footprint_rows > 0);
        assert_eq!(summary.failures, vec![], "healthy run reported failures");
        assert_eq!(reg.counter_value("serving.mix_runs", ""), 1);
        // Every analysis entry point fired at least once.
        for label in ["physpath", "intertubes", "rocketfuel", "risk", "footprint"] {
            assert!(
                reg.counter_value("analysis.queries", label) > 0,
                "analysis.queries{{{label}}} never incremented"
            );
        }
        // Latency histograms are perf-class: present in the full stream,
        // absent from the deterministic one.
        let full = reg.json_lines(igdb_obs::JsonMode::Full);
        assert!(full.contains("analysis.query_us"));
        let det = reg.json_lines(igdb_obs::JsonMode::Deterministic);
        assert!(!det.contains("analysis.query_us"));
    }

    #[test]
    fn failed_legs_are_surfaced_not_swallowed() {
        let reg = igdb_obs::Registry::new();
        let _g = reg.install();
        let mut failures = Vec::new();
        // A healthy leg passes its value through and records nothing.
        assert_eq!(guarded(&mut failures, "physpath", || 42usize), Some(42));
        assert!(failures.is_empty());
        // A dead leg yields None plus a failure row with the panic text.
        let got: Option<usize> =
            guarded(&mut failures, "risk", || panic!("hazard polygon inverted"));
        assert_eq!(got, None);
        assert_eq!(
            failures,
            vec![MixFailure { query: "risk", detail: "hazard polygon inverted".into() }]
        );
        // A formatted (`String`) payload renders its text too; any other
        // payload type renders as such.
        let n = 3;
        guarded(&mut failures, "risk", || panic!("{n} legs inverted"));
        guarded(&mut failures, "risk", || std::panic::panic_any(7u32));
        let details: Vec<&str> = failures[1..].iter().map(|f| f.detail.as_str()).collect();
        assert_eq!(details, ["3 legs inverted", "non-string panic payload"]);
        // The tally is perf-class: visible in the full stream, absent
        // from the deterministic one (goldens must not re-bless).
        assert_eq!(reg.perf_value("serving.mix_failures", "risk"), 3);
        assert!(reg.json_lines(igdb_obs::JsonMode::Full).contains("serving.mix_failures"));
        assert!(!reg
            .json_lines(igdb_obs::JsonMode::Deterministic)
            .contains("serving.mix_failures"));
    }
}
