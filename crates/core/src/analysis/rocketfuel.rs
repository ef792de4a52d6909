//! Figure 8 — improving the Rocketfuel representation with right-of-way
//! constraints.
//!
//! Rocketfuel drew logical connectivity as straight lines, overstating
//! physical path diversity. iGDB maps each logical metro pair onto inferred
//! physical paths and measures the *corridor collapse*: how many distinct
//! physical corridors actually carry the many logical edges ("the implied
//! diversity of paths from central California to the east actually proceed
//! along a single physical path").

use std::collections::BTreeSet;

use igdb_synth::intertubes::RocketfuelMap;

use crate::build::Igdb;

/// One logical edge mapped onto physical infrastructure.
#[derive(Clone, Debug)]
pub struct MappedEdge {
    pub from_metro: usize,
    pub to_metro: usize,
    /// The physical corridor (metro sequence), if the endpoints are
    /// physically connected in iGDB.
    pub corridor: Option<Vec<usize>>,
    /// Straight-line length vs corridor length (≥ 1 when mapped).
    pub stretch: Option<f64>,
}

/// The Figure 8 report.
#[derive(Clone, Debug)]
pub struct RocketfuelReport {
    pub asn: igdb_net::Asn,
    pub metros: usize,
    pub logical_edges: usize,
    pub mapped_edges: usize,
    /// Distinct physical corridor segments (metro pairs) used by all
    /// mapped edges.
    pub distinct_corridor_segments: usize,
    /// logical edges per distinct corridor segment — > 1 means the
    /// straight-line map overstated diversity.
    pub collapse_factor: f64,
    pub edges: Vec<MappedEdge>,
}

/// Maps a Rocketfuel-style logical map onto iGDB physical corridors.
pub fn remap(igdb: &Igdb, map: &RocketfuelMap) -> RocketfuelReport {
    let _span = igdb_obs::span("analysis.rocketfuel");
    igdb_obs::counter("analysis.queries", "rocketfuel", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "rocketfuel");
    // Shared graph + corridor cache: logical edges repeat metro pairs, and
    // other analyses (physpath, risk) route over the same corridors.
    let graph = igdb.phys_graph();
    let mut ws = crate::spath::SpWorkspace::for_engine(graph.engine());
    let mut edges = Vec::with_capacity(map.edges.len());
    let mut segments: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut mapped = 0usize;
    for e in &map.edges {
        let corridor = graph.shortest_path_cached(&mut ws, e.from_city, e.to_city);
        let mapped_edge = match corridor {
            Some((path, km)) => {
                mapped += 1;
                for w in path.windows(2) {
                    segments.insert((w[0].min(w[1]), w[0].max(w[1])));
                }
                let straight = igdb_geo::haversine_km(
                    &igdb.metros.metro(e.from_city).loc,
                    &igdb.metros.metro(e.to_city).loc,
                );
                MappedEdge {
                    from_metro: e.from_city,
                    to_metro: e.to_city,
                    stretch: if straight > 0.0 {
                        Some(km / straight)
                    } else {
                        None
                    },
                    corridor: Some(path),
                }
            }
            None => MappedEdge {
                from_metro: e.from_city,
                to_metro: e.to_city,
                corridor: None,
                stretch: None,
            },
        };
        edges.push(mapped_edge);
    }
    let collapse_factor = if segments.is_empty() {
        0.0
    } else {
        mapped as f64 / segments.len() as f64
    };
    RocketfuelReport {
        asn: map.asn,
        metros: map.metros.len(),
        logical_edges: map.edges.len(),
        mapped_edges: mapped,
        distinct_corridor_segments: segments.len(),
        collapse_factor,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::intertubes::rocketfuel_recreation;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn setup() -> (Igdb, RocketfuelReport) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 100);
        let igdb = Igdb::build(&snaps);
        let map = rocketfuel_recreation(&world);
        let report = remap(&igdb, &map);
        (igdb, report)
    }

    #[test]
    fn most_logical_edges_map_onto_corridors() {
        let (_, report) = setup();
        assert!(report.logical_edges > 10);
        assert!(
            report.mapped_edges * 10 >= report.logical_edges * 7,
            "{}/{} mapped",
            report.mapped_edges,
            report.logical_edges
        );
    }

    #[test]
    fn corridors_collapse_diversity() {
        let (_, report) = setup();
        // The whole point of Figure 8: more logical edges than physical
        // corridors.
        assert!(
            report.collapse_factor > 1.0,
            "collapse factor {} (segments {}, mapped {})",
            report.collapse_factor,
            report.distinct_corridor_segments,
            report.mapped_edges
        );
    }

    #[test]
    fn stretch_at_least_one() {
        let (_, report) = setup();
        for e in &report.edges {
            if let Some(s) = e.stretch {
                assert!(s >= 0.99, "physical corridor shorter than geodesic: {s}");
            }
        }
    }

    #[test]
    fn corridors_connect_the_right_endpoints() {
        let (_, report) = setup();
        for e in &report.edges {
            if let Some(c) = &e.corridor {
                assert_eq!(c.first(), Some(&e.from_metro));
                assert_eq!(c.last(), Some(&e.to_metro));
            }
        }
    }
}
