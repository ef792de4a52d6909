//! §4.2 — Generating physical paths from logical measurements (Figure 7).
//!
//! Given a traceroute's addresses, iGDB (1) geolocates the hops, (2) maps
//! consecutive metro pairs onto inferred physical paths, (3) hunts for
//! *hidden intermediate nodes* (MPLS) by buffering each physical route and
//! spatially joining AS peering locations into the corridor, and (4)
//! compares the inferred route against the *shortest practical physical
//! path* — the geographically shortest route along inferred physical
//! infrastructure — yielding the **distance cost** (paper example: 2,518 km
//! ÷ 1,282 km = 1.96).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use igdb_geo::spatial::polyline_within_km;
use igdb_geo::GeoPoint;
use igdb_net::{Asn, Ip4};

use crate::build::Igdb;
use crate::corridor::CorridorCache;
use crate::spath::{ShortestPathEngine, SpWorkspace};

/// The metro-level graph of inferred physical paths (`phys_conn`),
/// backed by the shared [`ShortestPathEngine`].
pub struct PhysGraph {
    engine: ShortestPathEngine,
    /// Workspace backing the plain [`shortest_path`](Self::shortest_path)
    /// convenience API; batch callers bring their own via
    /// [`shortest_path_with`](Self::shortest_path_with).
    workspace: Mutex<SpWorkspace>,
    /// Memoized corridors by normalized metro pair: traceroute legs repeat
    /// across a mesh and Rocketfuel logical edges share corridors, so the
    /// same pair is asked for over and over.
    corridors: CorridorCache,
}

impl PhysGraph {
    /// Builds the graph from the database's distinct physical path pairs.
    pub fn from_igdb(igdb: &Igdb) -> Self {
        Self::from_pairs(igdb.metros.len(), &igdb.phys_pairs)
    }

    /// Builds the graph from explicit `(from, to, km)` pairs (used by the
    /// risk analysis to model infrastructure failures).
    pub fn from_pairs(n_metros: usize, pairs: &[(usize, usize, f64)]) -> Self {
        Self {
            engine: ShortestPathEngine::from_undirected(n_metros, pairs.iter().copied()),
            workspace: Mutex::new(SpWorkspace::new()),
            corridors: CorridorCache::new("phys"),
        }
    }

    /// The graph over `new_pairs` that succeeds `self` (built over
    /// `old_pairs`) in a delta apply. The corridor carry rule lives here
    /// and nowhere else: the two lists are diffed as one signed multiset
    /// of `(from, to, km bits)`, and if nothing was added or re-weighted
    /// (a re-weight is a removal plus an addition) the settled corridors
    /// avoiding every metro of a removed pair migrate — removing edges can
    /// never shorten a route, while any addition could shorten any, so
    /// then the graph starts cold. Latency only: answers are pinned
    /// identical to a cold [`from_pairs`](Self::from_pairs) graph.
    pub fn for_next_epoch(
        &self,
        old_pairs: &[(usize, usize, f64)],
        n_metros: usize,
        new_pairs: &[(usize, usize, f64)],
    ) -> Self {
        let next = Self::from_pairs(n_metros, new_pairs);
        let mut counts: BTreeMap<(usize, usize, u64), i64> = BTreeMap::new();
        for &(a, b, km) in old_pairs {
            *counts.entry((a, b, km.to_bits())).or_default() -= 1;
        }
        for &(a, b, km) in new_pairs {
            *counts.entry((a, b, km.to_bits())).or_default() += 1;
        }
        if counts.values().all(|&c| c <= 0) {
            let touched: BTreeSet<usize> = counts
                .iter()
                .filter(|(_, &c)| c != 0)
                .flat_map(|(&(a, b, _), _)| [a, b])
                .collect();
            next.corridors.seed_surviving_from(&self.corridors, &touched);
        }
        next
    }

    pub fn edge_count(&self) -> usize {
        self.engine.edge_count()
    }

    /// Number of physical links touching `metro`.
    pub fn degree(&self, metro: usize) -> usize {
        self.engine.degree(metro)
    }

    /// The routing engine (for callers that batch queries with their own
    /// [`SpWorkspace`]).
    pub fn engine(&self) -> &ShortestPathEngine {
        &self.engine
    }

    /// Shortest path along inferred physical infrastructure:
    /// `(metro sequence, km)`.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<(Vec<usize>, f64)> {
        let mut ws = self.workspace.lock().unwrap_or_else(|e| e.into_inner());
        self.engine.shortest_path_with(&mut ws, from, to)
    }

    /// [`shortest_path`](Self::shortest_path) with a caller-owned
    /// workspace: queries grouped by source amortize to one search per
    /// source, and server workers don't contend on the shared lock.
    pub fn shortest_path_with(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        self.engine.shortest_path_with(ws, from, to)
    }

    /// [`shortest_path_with`](Self::shortest_path_with), memoized by
    /// normalized metro pair: each unordered pair is routed at most once
    /// per graph across all callers and workers.
    pub fn shortest_path_cached(
        &self,
        ws: &mut SpWorkspace,
        from: usize,
        to: usize,
    ) -> Option<(Vec<usize>, f64)> {
        self.corridors
            .shortest_path(from, to, |lo, hi| self.engine.shortest_path_with(ws, lo, hi))
    }
}

/// One leg of the inferred physical route (between two observed metros).
#[derive(Clone, Debug)]
pub struct InferredLeg {
    pub from_metro: usize,
    pub to_metro: usize,
    /// Metro sequence along inferred physical paths (may pass through
    /// intermediate metros).
    pub via: Vec<usize>,
    pub km: f64,
    /// Candidate hidden intermediate metros: inside the corridor, hosting
    /// a peering location of one of the leg's ASes, with physical links.
    pub hidden_candidates: Vec<usize>,
}

/// The full §4.2 analysis result.
#[derive(Clone, Debug)]
pub struct PhysicalPathReport {
    /// Metro sequence as observed at the IP layer (consecutive dupes
    /// collapsed).
    pub observed_metros: Vec<usize>,
    pub legs: Vec<InferredLeg>,
    /// Total length of the inferred physical route, km.
    pub inferred_km: f64,
    /// The shortest practical physical path between the endpoints.
    pub practical_path: Vec<usize>,
    pub practical_km: f64,
    /// `inferred_km / practical_km` (1.0 = geographically optimal).
    pub distance_cost: f64,
}

/// Corridor half-width for hidden-node search, km (a metro-scale buffer).
pub const HIDDEN_NODE_BUFFER_KM: f64 = 60.0;

/// Scratch shared by the reports of one batch over one `&Igdb`. Every
/// report leaves the masks all-false again by walking what it set — on the
/// paths that return `None` too — so a 4,000-trace mesh zeroes two metro
/// bitsets once, not 4,000 times.
struct ReportScratch {
    /// Metros visible at the IP layer in the current report.
    observed_mask: Vec<bool>,
    /// Metros the current leg already tested, and the list to unset them by.
    tested_mask: Vec<bool>,
    tested: Vec<usize>,
    /// `metros_of_asn` copies an ASN's set out of the `asn_metros` map
    /// into a new `Vec`; legs and traces share ASes (a trace stays within a
    /// few networks), so each ASN is copied once per batch.
    asn_metros: HashMap<Asn, Vec<usize>>,
    /// Legs re-query from the same source only when a trace revisits a
    /// metro, but the practical path shares the first leg's source, so one
    /// workspace serves a whole report — and, routes being canonical
    /// whatever the workspace last held, the whole batch.
    ws: SpWorkspace,
}

impl ReportScratch {
    fn new(igdb: &Igdb) -> Self {
        let n_metros = igdb.metros.len();
        Self {
            observed_mask: vec![false; n_metros],
            tested_mask: vec![false; n_metros],
            tested: Vec::new(),
            asn_metros: HashMap::new(),
            ws: SpWorkspace::new(),
        }
    }
}

/// Runs the Figure 7 analysis over a traceroute's responding addresses.
/// Returns `None` when fewer than two hops geolocate or the endpoints are
/// not connected by inferred physical paths.
pub fn physical_path_report(igdb: &Igdb, hop_ips: &[Ip4]) -> Option<PhysicalPathReport> {
    physical_path_report_with(igdb, igdb.phys_graph(), hop_ips)
}

/// Same as [`physical_path_report`] but reusing a prebuilt [`PhysGraph`].
pub fn physical_path_report_with(
    igdb: &Igdb,
    graph: &PhysGraph,
    hop_ips: &[Ip4],
) -> Option<PhysicalPathReport> {
    report_in(igdb, graph, hop_ips, &mut ReportScratch::new(igdb))
}

fn report_in(
    igdb: &Igdb,
    graph: &PhysGraph,
    hop_ips: &[Ip4],
    scratch: &mut ReportScratch,
) -> Option<PhysicalPathReport> {
    igdb_obs::counter("analysis.queries", "physpath", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "physpath");
    let (observed, leg_asns) = observed_legs(igdb, hop_ips);
    if observed.len() < 2 {
        return None;
    }

    // Membership tests in `route_legs` run once per (leg, candidate);
    // bitsets over the metro space replace O(n) `Vec::contains` scans. The
    // observed set is fixed for the whole report.
    for &m in &observed {
        scratch.observed_mask[m] = true;
    }
    let routed = route_legs(igdb, graph, &observed, &leg_asns, scratch);
    for &m in &observed {
        scratch.observed_mask[m] = false;
    }
    let (legs, inferred_km, practical_path, practical_km) = routed?;
    let distance_cost = if practical_km > 0.0 {
        inferred_km / practical_km
    } else {
        1.0
    };
    Some(PhysicalPathReport {
        observed_metros: observed,
        legs,
        inferred_km,
        practical_path,
        practical_km,
        distance_cost,
    })
}

/// Step 1 of a report: geolocate the hops, collapsing consecutive
/// same-metro runs, and remember the ASes active around each leg — one
/// list per leg once two metros are observed.
fn observed_legs(igdb: &Igdb, hop_ips: &[Ip4]) -> (Vec<usize>, Vec<Vec<Asn>>) {
    let mut observed: Vec<usize> = Vec::new();
    let mut leg_asns: Vec<Vec<Asn>> = Vec::new();
    let mut current_asns: Vec<Asn> = Vec::new();
    for &ip in hop_ips {
        let info = igdb.ip_info.get(&ip);
        if let Some(asn) = info.and_then(|i| i.asn) {
            if !current_asns.contains(&asn) {
                current_asns.push(asn);
            }
        }
        if let Some(m) = info.and_then(|i| i.metro) {
            if observed.last() != Some(&m) {
                if !observed.is_empty() {
                    leg_asns.push(std::mem::take(&mut current_asns));
                }
                observed.push(m);
            }
        }
    }
    while leg_asns.len() + 1 < observed.len() {
        leg_asns.push(current_asns.clone());
    }
    (observed, leg_asns)
}

/// Steps 2–4 of a report: `(legs, inferred km, practical path, its km)`,
/// or `None` when a leg or the endpoints are not connected. Leaves
/// `scratch.tested_mask` clean on every return: a leg routes before it
/// tests anything and unsets what it tested before the next leg routes.
fn route_legs(
    igdb: &Igdb,
    graph: &PhysGraph,
    observed: &[usize],
    leg_asns: &[Vec<Asn>],
    scratch: &mut ReportScratch,
) -> Option<(Vec<InferredLeg>, f64, Vec<usize>, f64)> {
    let ReportScratch {
        observed_mask,
        tested_mask,
        tested,
        asn_metros,
        ws,
    } = scratch;
    // 2. Map each leg onto inferred physical paths.
    let mut legs = Vec::new();
    let mut inferred_km = 0.0;
    for (w, asns) in observed.windows(2).zip(leg_asns) {
        let (a, b) = (w[0], w[1]);
        let (via, km) = graph.shortest_path_cached(ws, a, b)?;
        // 3. Hidden-node inference: corridor buffer + spatial join against
        //    the leg ASes' peering locations, restricted to metros with
        //    physical links (paper: "a physical peering location inside
        //    the buffer that also has a physical link in iGDB").
        let corridor = leg_corridor_geometry(igdb, &via);
        let mut hidden: Vec<usize> = Vec::new();
        for &asn in asns {
            let metros = asn_metros
                .entry(asn)
                .or_insert_with(|| igdb.metros_of_asn(asn));
            for &m in metros.iter() {
                // Skip metros already visible at the IP layer and metros
                // this leg already tested (under another of its ASes);
                // what's left inside the corridor is a candidate hidden
                // node.
                if m == a || m == b || observed_mask[m] || tested_mask[m] {
                    continue;
                }
                tested_mask[m] = true;
                tested.push(m);
                if graph.degree(m) == 0 {
                    continue;
                }
                let loc = igdb.metros.metro(m).loc;
                if polyline_within_km(&loc, &corridor, HIDDEN_NODE_BUFFER_KM) {
                    hidden.push(m);
                }
            }
        }
        for m in tested.drain(..) {
            tested_mask[m] = false;
        }
        hidden.sort_unstable();
        inferred_km += km;
        legs.push(InferredLeg {
            from_metro: a,
            to_metro: b,
            via,
            km,
            hidden_candidates: hidden,
        });
    }

    // 4. Shortest practical physical path between endpoints.
    let (practical_path, practical_km) =
        graph.shortest_path_cached(ws, observed[0], observed[observed.len() - 1])?;
    Some((legs, inferred_km, practical_path, practical_km))
}

/// Runs [`physical_path_report_with`] over a whole traceroute mesh, one
/// report per input trace, in input order.
pub fn physical_path_reports_with(
    igdb: &Igdb,
    graph: &PhysGraph,
    traces: &[Vec<Ip4>],
) -> Vec<Option<PhysicalPathReport>> {
    let _span = igdb_obs::span("analysis.physpath.batch");
    igdb_obs::counter("physpath.traces", "", traces.len() as u64);
    let mut scratch = ReportScratch::new(igdb);
    traces
        .iter()
        .map(|hops| report_in(igdb, graph, hops, &mut scratch))
        .collect()
}

/// The leg's route geometry: the concatenated metro-centre polyline (the
/// corridor axis for the buffer test).
fn leg_corridor_geometry(igdb: &Igdb, via: &[usize]) -> Vec<GeoPoint> {
    via.iter().map(|&m| igdb.metros.metro(m).loc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn built() -> (World, Igdb) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 400);
        (world, Igdb::build(&snaps))
    }

    fn fig7_trace(world: &World) -> Vec<Ip4> {
        world
            .traceroute_between(world.scenarios.anchor_kansas_city, world.scenarios.anchor_atlanta)
            .expect("scenario traceroute")
            .responding_ips()
    }

    #[test]
    fn phys_graph_connects_scenario_corridors() {
        let (_, igdb) = built();
        let g = PhysGraph::from_igdb(&igdb);
        assert!(g.edge_count() > 40);
        let kc = igdb.metros.by_name("Kansas City").unwrap();
        let atl = igdb.metros.by_name("Atlanta").unwrap();
        let (path, km) = g.shortest_path(kc, atl).expect("KC–Atlanta physically connected");
        assert!(path.len() >= 3);
        assert!(km > 900.0 && km < 2500.0, "practical km {km}");
    }

    #[test]
    fn fig7_report_shape() {
        let (world, igdb) = built();
        let report = physical_path_report(&igdb, &fig7_trace(&world)).expect("report");
        // Observed at the IP layer: KC … Dallas, Houston … Atlanta, never
        // Tulsa/OKC (MPLS-hidden).
        let names: Vec<&str> = report
            .observed_metros
            .iter()
            .map(|&m| igdb.metros.metro(m).name.as_str())
            .collect();
        assert!(names.contains(&"Dallas"), "{names:?}");
        assert!(names.contains(&"Houston"), "{names:?}");
        assert!(!names.contains(&"Tulsa") && !names.contains(&"Oklahoma City"), "{names:?}");
        assert_eq!(names.first(), Some(&"Kansas City"));
        assert_eq!(names.last(), Some(&"Atlanta"));
    }

    #[test]
    fn fig7_hidden_node_recovered() {
        let (world, igdb) = built();
        let report = physical_path_report(&igdb, &fig7_trace(&world)).expect("report");
        // The KC→Dallas leg's physical route passes Tulsa or OKC; the
        // hidden-candidate join must surface at least one of them.
        let mut all_hidden: Vec<&str> = report
            .legs
            .iter()
            .flat_map(|l| l.hidden_candidates.iter())
            .map(|&m| igdb.metros.metro(m).name.as_str())
            .collect();
        all_hidden.sort_unstable();
        assert!(
            all_hidden.contains(&"Tulsa") || all_hidden.contains(&"Oklahoma City"),
            "hidden candidates: {all_hidden:?}"
        );
    }

    #[test]
    fn fig7_distance_cost_in_paper_band() {
        let (world, igdb) = built();
        let report = physical_path_report(&igdb, &fig7_trace(&world)).expect("report");
        // The paper's example: 2518/1282 = 1.96. Our synthetic corridors
        // reproduce the shape: a clear detour, cost well above 1.
        assert!(
            report.distance_cost > 1.2 && report.distance_cost < 3.0,
            "distance cost {}",
            report.distance_cost
        );
        assert!(report.inferred_km > report.practical_km);
        // The practical path should use the inland corridor (St Louis or
        // Nashville).
        let names: Vec<&str> = report
            .practical_path
            .iter()
            .map(|&m| igdb.metros.metro(m).name.as_str())
            .collect();
        assert!(
            names.contains(&"St Louis") || names.contains(&"Nashville"),
            "practical path {names:?}"
        );
    }

    #[test]
    fn degenerate_traces_return_none() {
        let (_, igdb) = built();
        assert!(physical_path_report(&igdb, &[]).is_none());
        // A single resolvable hop can't form a leg.
        let one = igdb.ip_info.keys().next().copied().unwrap();
        assert!(physical_path_report(&igdb, &[one]).is_none());
    }

    #[test]
    fn shared_scratch_reports_equal_fresh_scratch_reports() {
        let (_, igdb) = built();
        let graph = igdb.phys_graph();
        // No edges: every multi-metro trace fails at its first leg, after
        // its observed metros were marked.
        let cut = PhysGraph::from_pairs(igdb.metros.len(), &[]);
        let mut traces: Vec<Vec<Ip4>> = igdb
            .traces()
            .iter()
            .map(|t| t.hops.iter().filter_map(|h| h.ip).collect())
            .collect();
        traces.push(Vec::new());
        let mut scratch = ReportScratch::new(&igdb);
        let mut reported = 0;
        for hops in &traces {
            assert!(report_in(&igdb, &cut, hops, &mut scratch).is_none());
            let shared = report_in(&igdb, graph, hops, &mut scratch);
            let fresh = physical_path_report_with(&igdb, graph, hops);
            assert_eq!(format!("{shared:?}"), format!("{fresh:?}"));
            assert!(!scratch.observed_mask.contains(&true));
            assert!(!scratch.tested_mask.contains(&true) && scratch.tested.is_empty());
            reported += usize::from(shared.is_some());
        }
        assert!(reported > 10, "only {reported} reports");
    }

    /// Every leg's hidden set equals a direct distance scan over the same
    /// candidates: the leg's ASes' metros, minus its ends, the observed
    /// metros and metros without physical links.
    #[test]
    fn hidden_candidates_equal_a_distance_scan_on_the_mesh() {
        let (_, igdb) = built();
        let graph = igdb.phys_graph();
        let traces: Vec<Vec<Ip4>> = igdb
            .traces()
            .iter()
            .map(|t| t.hops.iter().filter_map(|h| h.ip).collect())
            .collect();
        let reports = physical_path_reports_with(&igdb, graph, &traces);
        let (mut tested, mut hidden) = (0, 0);
        for (hops, report) in traces.iter().zip(&reports) {
            let Some(report) = report else { continue };
            let (observed, leg_asns) = observed_legs(&igdb, hops);
            assert_eq!(observed, report.observed_metros);
            assert_eq!(leg_asns.len(), report.legs.len());
            for (leg, asns) in report.legs.iter().zip(&leg_asns) {
                let corridor: Vec<GeoPoint> =
                    leg.via.iter().map(|&m| igdb.metros.metro(m).loc).collect();
                let candidates: BTreeSet<usize> = asns
                    .iter()
                    .flat_map(|&asn| igdb.metros_of_asn(asn))
                    .filter(|&m| {
                        m != leg.from_metro
                            && m != leg.to_metro
                            && !observed.contains(&m)
                            && graph.degree(m) > 0
                    })
                    .collect();
                let want: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&m| {
                        let loc = igdb.metros.metro(m).loc;
                        igdb_geo::point_polyline_distance_km(&loc, &corridor)
                            <= HIDDEN_NODE_BUFFER_KM
                    })
                    .collect();
                assert_eq!(leg.hidden_candidates, want, "leg {:?}", leg.via);
                tested += candidates.len();
                hidden += want.len();
            }
        }
        assert!(
            hidden > 0 && tested > 2 * hidden,
            "{hidden} hidden of {tested}"
        );
    }

    #[test]
    fn next_epoch_carries_corridors_only_across_removal_only_changes() {
        let old = [(0, 1, 10.0), (1, 2, 5.0), (2, 3, 7.0), (4, 5, 1.0)];
        let g = PhysGraph::from_pairs(6, &old);
        let mut ws = SpWorkspace::new();
        for (a, b) in [(0, 1), (0, 3), (4, 5), (0, 5)] {
            g.shortest_path_cached(&mut ws, a, b);
        }
        // Dropping (1, 2) touches metros 1 and 2: (0, 1) ends at one and
        // (0, 3) passes both; (4, 5) and the unreachable (0, 5) carry.
        let removed = [(0, 1, 10.0), (2, 3, 7.0), (4, 5, 1.0)];
        assert_eq!(g.for_next_epoch(&old, 6, &removed).corridors.len(), 2);
        // A re-weight is a removal plus an addition: the graph starts cold.
        let reweighted = [(0, 1, 10.0), (1, 2, 5.5), (2, 3, 7.0), (4, 5, 1.0)];
        assert!(g.for_next_epoch(&old, 6, &reweighted).corridors.is_empty());
        assert_eq!(g.for_next_epoch(&old, 6, &old).corridors.len(), 4);
    }

    #[test]
    fn same_metro_endpoints_cost_one() {
        let (_, igdb) = built();
        let g = PhysGraph::from_igdb(&igdb);
        let kc = igdb.metros.by_name("Kansas City").unwrap();
        let (p, km) = g.shortest_path(kc, kc).unwrap();
        assert_eq!(p, vec![kc]);
        assert_eq!(km, 0.0);
    }
}
