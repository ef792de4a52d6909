//! §4.5 / Figures 1 & 9 — fusing a real traceroute with physical context.
//!
//! The paper closes the loop on its motivating Madrid→Berlin example: take
//! an anchor-to-anchor traceroute, identify the ASes it crosses, geolocate
//! its hops, and contrast the realized path (3 ASes, 5 cities, 3 countries
//! in the paper's measurement) with each AS's wider peering footprint.

use std::collections::BTreeSet;

use igdb_net::{Asn, Ip4};

use crate::analysis::cbg;
use crate::build::Igdb;

/// The Figure 9 fusion report.
#[derive(Clone, Debug)]
pub struct FusionReport {
    /// Hop addresses observed (responding hops only).
    pub hops_total: usize,
    /// How many geolocated.
    pub hops_geolocated: usize,
    /// Distinct ASes on the path, in first-appearance order.
    pub ases: Vec<Asn>,
    /// Distinct metros along the path, in first-appearance order.
    pub metros: Vec<usize>,
    /// Distinct countries along the path.
    pub countries: Vec<String>,
    /// Per-AS peering footprint size (metros) and country count — the
    /// "spatial extent" polygons' underlying data.
    pub as_extents: Vec<(Asn, usize, usize)>,
    /// Per-AS spatial-extent polygon (convex hull of its peering metros)
    /// as WKT — the translucent polygons of Figures 6 and 9. ASes with
    /// fewer than three non-collinear metros have no polygon.
    pub as_extent_hulls: Vec<(Asn, Option<String>)>,
    /// How many hops were geolocated by the CBG latency fallback (the
    /// paper's "RIPE geolocation services" for the 4 Hoiho-less hops).
    pub hops_geolocated_by_cbg: usize,
}

/// Fuses one traceroute (responding hop addresses, in order) with iGDB,
/// backfilling Hoiho-less hops with CBG latency geolocation exactly as the
/// paper backfills with "RIPE geolocation services" (§4.5).
pub fn fuse(igdb: &Igdb, hop_ips: &[Ip4]) -> FusionReport {
    let _span = igdb_obs::span("analysis.fusion");
    // CBG estimates for this path's unlocated hops.
    let cbg_map: std::collections::HashMap<Ip4, usize> = cbg::geolocate(igdb, hop_ips, 2)
        .into_iter()
        .map(|e| (e.ip, e.metro))
        .collect();
    let mut ases: Vec<Asn> = Vec::new();
    let mut metros: Vec<usize> = Vec::new();
    let mut countries: Vec<String> = Vec::new();
    let mut hops_geolocated = 0usize;
    let mut hops_geolocated_by_cbg = 0usize;
    for &ip in hop_ips {
        let Some(info) = igdb.ip_info.get(&ip) else {
            continue;
        };
        if let Some(a) = info.asn {
            if !ases.contains(&a) {
                ases.push(a);
            }
        }
        let located = info.metro.or_else(|| {
            let m = cbg_map.get(&ip).copied();
            if m.is_some() {
                hops_geolocated_by_cbg += 1;
            }
            m
        });
        if let Some(m) = located {
            hops_geolocated += 1;
            if !metros.contains(&m) {
                metros.push(m);
                let c = igdb.metros.metro(m).country.clone();
                if !countries.contains(&c) {
                    countries.push(c);
                }
            }
        }
    }
    let as_extents = ases
        .iter()
        .map(|&a| {
            let ms = igdb.metros_of_asn(a);
            let cs: BTreeSet<&str> = ms
                .iter()
                .map(|&m| igdb.metros.metro(m).country.as_str())
                .collect();
            (a, ms.len(), cs.len())
        })
        .collect();
    let as_extent_hulls = ases
        .iter()
        .map(|&a| {
            let pts: Vec<igdb_geo::GeoPoint> = igdb
                .metros_of_asn(a)
                .into_iter()
                .map(|m| igdb.metros.metro(m).loc)
                .collect();
            let wkt = igdb_geo::convex_hull(&pts)
                .map(|h| igdb_geo::to_wkt(&igdb_geo::Geometry::Polygon(h)));
            (a, wkt)
        })
        .collect();
    FusionReport {
        hops_total: hop_ips.len(),
        hops_geolocated,
        ases,
        metros,
        countries,
        as_extents,
        as_extent_hulls,
        hops_geolocated_by_cbg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn setup() -> (World, Igdb, FusionReport) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 300);
        let igdb = Igdb::build(&snaps);
        let ips = world
            .traceroute_between(world.scenarios.anchor_madrid, world.scenarios.anchor_berlin)
            .expect("Madrid→Berlin traceroute")
            .responding_ips();
        let report = fuse(&igdb, &ips);
        (world, igdb, report)
    }

    #[test]
    fn fig9_as_count_small() {
        let (world, _, report) = setup();
        // The paper saw 3 ASes; our scenario path crosses the two transits
        // plus possibly the destination stub: 2–4.
        assert!((2..=4).contains(&report.ases.len()), "{:?}", report.ases);
        assert!(report.ases.contains(&world.scenarios.paneu));
        assert!(report.ases.contains(&world.scenarios.germanet));
    }

    #[test]
    fn fig9_cities_and_countries() {
        let (_, igdb, report) = setup();
        let names: Vec<&str> = report
            .metros
            .iter()
            .map(|&m| igdb.metros.metro(m).name.as_str())
            .collect();
        // The realized path: Madrid→Paris→Frankfurt→Düsseldorf→Berlin
        // (some hops may not geolocate; at least 3 cities must).
        assert!(names.len() >= 3, "{names:?}");
        assert!(
            names.contains(&"Frankfurt") || names.contains(&"Paris"),
            "{names:?}"
        );
        // Three countries, like the paper's measurement.
        assert!(
            (2..=4).contains(&report.countries.len()),
            "{:?}",
            report.countries
        );
    }

    #[test]
    fn fig9_extent_broader_than_path() {
        let (_, _, report) = setup();
        // Each transit AS's peering footprint is wider than its slice of
        // this one path ("the AS spatial extent is far more broad").
        let max_extent = report.as_extents.iter().map(|&(_, m, _)| m).max().unwrap();
        assert!(
            max_extent > report.metros.len(),
            "extent {max_extent} vs path metros {}",
            report.metros.len()
        );
    }

    #[test]
    fn extent_hulls_present_for_transit_ases() {
        let (world, igdb, report) = setup();
        let hull = report
            .as_extent_hulls
            .iter()
            .find(|(a, _)| *a == world.scenarios.paneu)
            .and_then(|(_, h)| h.clone())
            .expect("pan-EU transit must have an extent polygon");
        // The hull parses and contains the AS's own peering metros
        // (nudged toward the centroid — vertices sit on the boundary).
        let geom = igdb_geo::parse_wkt(&hull).unwrap();
        let igdb_geo::Geometry::Polygon(poly) = geom else {
            panic!("hull is not a polygon");
        };
        let c = poly.centroid();
        for m in igdb.metros_of_asn(world.scenarios.paneu) {
            let p = igdb.metros.metro(m).loc;
            let nudged = igdb_geo::GeoPoint::new(
                p.lon + (c.lon - p.lon) * 0.01,
                p.lat + (c.lat - p.lat) * 0.01,
            );
            assert!(poly.contains(&nudged), "metro {m} outside its AS hull");
        }
    }

    #[test]
    fn fusion_of_empty_trace_is_empty() {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 10);
        let igdb = Igdb::build(&snaps);
        let r = fuse(&igdb, &[]);
        assert_eq!(r.hops_total, 0);
        assert!(r.ases.is_empty());
        assert!(r.countries.is_empty());
    }
}
