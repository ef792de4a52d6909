//! Disaster-risk analysis over the fused map (the RiskRoute use case).
//!
//! §4.2: "This technique could also be used by researchers … to identify
//! long-haul cable infrastructure used by ASes of interest at risk from
//! environmental damage (e.g., through a technique like RiskRoute)."
//! Given a hazard region, this module finds the physical paths and
//! submarine cables crossing it, the metros and ASes exposed, and — for a
//! metro pair of interest — the reroute penalty if the region's
//! infrastructure fails.

use igdb_geo::{parse_wkt, Geometry, Polygon};

use crate::analysis::physpath::PhysGraph;
use crate::build::Igdb;

/// What a hazard region touches.
#[derive(Clone, Debug)]
pub struct RiskReport {
    /// phys_conn pairs whose path enters the region.
    pub paths_at_risk: Vec<(usize, usize)>,
    /// Submarine cable ids whose path enters the region.
    pub cables_at_risk: Vec<i64>,
    /// Metros inside the region.
    pub metros_in_region: Vec<usize>,
    /// ASes with a declared peering presence inside the region.
    pub ases_exposed: Vec<igdb_net::Asn>,
}

/// Computes exposure of the physical layer to a hazard polygon.
pub fn exposure(igdb: &Igdb, region: &Polygon) -> RiskReport {
    let _span = igdb_obs::span("analysis.risk");
    igdb_obs::counter("analysis.queries", "risk", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "risk");
    let mut paths_at_risk = Vec::new();
    igdb.db
        .with_table("phys_conn", |t| {
            for (_, row) in t.iter() {
                let Some(Ok(Geometry::LineString(ls))) = row[7].as_text().map(parse_wkt) else {
                    continue;
                };
                if ls.0.iter().any(|p| region.contains(p)) {
                    paths_at_risk.push((
                        row[0].as_int().unwrap() as usize,
                        row[3].as_int().unwrap() as usize,
                    ));
                }
            }
        })
        .expect("phys_conn exists");
    let mut cables_at_risk = Vec::new();
    igdb.db
        .with_table("sub_cables", |t| {
            for (_, row) in t.iter() {
                let Some(Ok(Geometry::MultiLineString(mls))) = row[4].as_text().map(parse_wkt)
                else {
                    continue;
                };
                if mls
                    .0
                    .iter()
                    .any(|ls| ls.0.iter().any(|p| region.contains(p)))
                {
                    cables_at_risk.push(row[0].as_int().unwrap());
                }
            }
        })
        .expect("sub_cables exists");
    let metros_in_region: Vec<usize> = igdb
        .metros
        .metros()
        .iter()
        .filter(|m| region.contains(&m.loc))
        .map(|m| m.id)
        .collect();
    let mut ases_exposed: Vec<igdb_net::Asn> = igdb
        .asn_metros
        .iter()
        .filter(|(_, metros)| metros.iter().any(|m| metros_in_region.contains(m)))
        .map(|(&asn, _)| asn)
        .collect();
    ases_exposed.sort_unstable();
    RiskReport {
        paths_at_risk,
        cables_at_risk,
        metros_in_region,
        ases_exposed,
    }
}

/// The reroute penalty for one metro pair when the hazard region's
/// infrastructure fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reroute {
    /// Route unaffected: it never entered the region.
    Unaffected { km: f64 },
    /// A detour exists: the surviving-path length and its cost factor
    /// relative to the pre-disaster route.
    Detour { before_km: f64, after_km: f64 },
    /// The pair is disconnected once the region fails.
    Partitioned { before_km: f64 },
}

/// Computes the reroute outcome for `(from, to)` when every physical path
/// crossing `region` fails.
pub fn reroute(igdb: &Igdb, region: &Polygon, from: usize, to: usize) -> Option<Reroute> {
    let _span = igdb_obs::span("analysis.risk.reroute");
    igdb_obs::counter("analysis.queries", "risk.reroute", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "risk.reroute");
    let report = exposure(igdb, region);
    let failed: std::collections::HashSet<(usize, usize)> = report
        .paths_at_risk
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    // The intact-graph route comes from the shared graph (and its
    // corridor cache); only the degraded graph is built per call.
    let full = igdb.phys_graph();
    let mut ws = crate::spath::SpWorkspace::for_engine(full.engine());
    let (before_path, before_km) = full.shortest_path_cached(&mut ws, from, to)?;
    let used_failed = before_path
        .windows(2)
        .any(|w| failed.contains(&(w[0].min(w[1]), w[0].max(w[1]))));
    if !used_failed {
        return Some(Reroute::Unaffected { km: before_km });
    }
    // Rebuild the graph without the failed pairs.
    let surviving: Vec<(usize, usize, f64)> = igdb
        .phys_pairs
        .iter()
        .copied()
        .filter(|&(a, b, _)| !failed.contains(&(a.min(b), a.max(b))))
        .collect();
    let degraded = PhysGraph::from_pairs(igdb.metros.len(), &surviving);
    Some(match degraded.shortest_path(from, to) {
        Some((_, after_km)) => Reroute::Detour {
            before_km,
            after_km,
        },
        None => Reroute::Partitioned { before_km },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_geo::GeoPoint;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn built() -> (World, Igdb) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 100);
        (world, Igdb::build(&snaps))
    }

    /// A hazard box over the US Gulf coast (hurricane scenario).
    fn gulf() -> Polygon {
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

    #[test]
    fn gulf_hazard_exposes_gulf_infrastructure() {
        let (_, igdb) = built();
        let report = exposure(&igdb, &gulf());
        // Houston / New Orleans / San Antonio sit inside the box.
        let names: Vec<&str> = report
            .metros_in_region
            .iter()
            .map(|&m| igdb.metros.metro(m).name.as_str())
            .collect();
        assert!(names.contains(&"Houston"), "{names:?}");
        assert!(names.contains(&"New Orleans"), "{names:?}");
        assert!(!report.paths_at_risk.is_empty());
        assert!(!report.ases_exposed.is_empty());
        // The GulfEast scenario AS peers in Houston and New Orleans.
        let (world, _) = built();
        assert!(report.ases_exposed.contains(&world.scenarios.gulfeast));
    }

    #[test]
    fn reroute_detour_costs_more() {
        let (_, igdb) = built();
        let dallas = igdb.metros.by_name("Dallas").unwrap();
        let atlanta = igdb.metros.by_name("Atlanta").unwrap();
        match reroute(&igdb, &gulf(), dallas, atlanta).expect("connected") {
            Reroute::Detour {
                before_km,
                after_km,
            } => {
                assert!(
                    after_km > before_km,
                    "detour {after_km} not longer than {before_km}"
                );
            }
            Reroute::Unaffected { .. } => {
                // Acceptable when the pre-disaster route already avoids the
                // Gulf (corridor via Memphis/Nashville).
            }
            Reroute::Partitioned { .. } => panic!("US east-west must survive a Gulf hurricane"),
        }
    }

    #[test]
    fn unaffected_pair_reports_unaffected() {
        let (_, igdb) = built();
        let madrid = igdb.metros.by_name("Madrid").unwrap();
        let berlin = igdb.metros.by_name("Berlin").unwrap();
        match reroute(&igdb, &gulf(), madrid, berlin) {
            Some(Reroute::Unaffected { km }) => assert!(km > 1000.0),
            other => panic!("Gulf hurricane must not touch Europe: {other:?}"),
        }
    }

    #[test]
    fn empty_region_exposes_nothing() {
        let (_, igdb) = built();
        // A box in the mid-Atlantic with no metros.
        let empty = Polygon::new(
            vec![
                GeoPoint::raw(-40.0, 30.0),
                GeoPoint::raw(-35.0, 30.0),
                GeoPoint::raw(-35.0, 35.0),
                GeoPoint::raw(-40.0, 35.0),
            ],
            vec![],
        );
        let report = exposure(&igdb, &empty);
        assert!(report.metros_in_region.is_empty());
        assert!(report.paths_at_risk.is_empty());
        assert!(report.ases_exposed.is_empty());
        // Cables MAY cross the Atlantic box — that is the point of the
        // layer separation.
    }
}
