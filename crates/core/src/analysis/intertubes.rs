//! Figure 4 — comparing iGDB shortest-path routes with the recreated
//! InterTubes US long-haul map.
//!
//! Paper: "most of the InterTubes fiber optic cables are closely
//! approximated by the iGDB shortest-path links … the long haul link in the
//! southeast US from Atlanta, GA to Houston, TX … most likely follows a
//! natural gas pipeline … iGDB includes many potential alternate paths
//! along transportation networks that did not have long-haul links".
//!
//! We quantify all three observations: per long-haul link, the fraction of
//! its vertices within 25 miles of any iGDB inferred physical path
//! (covered / missed), and the number of iGDB corridors with no nearby
//! long-haul link (alternates).

use igdb_geo::{GeoPoint, KM_PER_MILE};
use igdb_synth::intertubes::LongHaulLink;

use crate::build::Igdb;
use crate::derived::SegmentIndex;

/// The paper's corridor width: 25 miles.
pub const CORRIDOR_KM: f64 = 25.0 * KM_PER_MILE;

/// A long-haul link must have this fraction of its vertices inside a
/// corridor to count as approximated.
pub const COVERAGE_THRESHOLD: f64 = 0.9;

/// Per-link verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkVerdict {
    pub from_city: usize,
    pub to_city: usize,
    /// Fraction of link vertices within [`CORRIDOR_KM`] of iGDB paths.
    pub coverage: f64,
    pub covered: bool,
    /// Whether the source marked this link as following a non-road
    /// right-of-way (the pipeline analogue).
    pub off_road: bool,
}

/// The Figure 4 comparison report.
#[derive(Clone, Debug, PartialEq)]
pub struct IntertubesReport {
    pub verdicts: Vec<LinkVerdict>,
    pub covered: usize,
    pub missed: usize,
    /// iGDB inferred paths with no long-haul link nearby — the "potential
    /// alternate paths" plotted purple in the paper.
    pub alternate_paths: usize,
    pub total_igdb_paths: usize,
}

/// Runs the comparison at the paper's 25-mile corridor width. iGDB paths
/// are restricted to those within the bounding box of the long-haul map
/// (continental comparison, as the paper's Figure 4 is US-only).
pub fn compare(igdb: &Igdb, longhaul: &[LongHaulLink]) -> IntertubesReport {
    compare_with_width(igdb, longhaul, CORRIDOR_KM)
}

/// [`compare`] with a configurable corridor half-width (ablation knob).
pub fn compare_with_width(
    igdb: &Igdb,
    longhaul: &[LongHaulLink],
    corridor_km: f64,
) -> IntertubesReport {
    let _span = igdb_obs::span("analysis.intertubes");
    igdb_obs::counter("analysis.queries", "intertubes", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "intertubes");
    // iGDB inferred path geometries and the index over their segments,
    // parsed and loaded once per database and shared across repeated
    // comparisons (e.g. corridor-width ablations).
    compare_paths(
        igdb.phys_path_geometries(),
        igdb.phys_segments(),
        longhaul,
        corridor_km,
    )
}

/// The comparison over explicit path geometries and the index built over
/// them. The index only chooses which segments a vertex is tested against;
/// the test is `point_polyline_distance_km`'s, so the report equals an
/// all-pairs scan's bit for bit.
fn compare_paths(
    igdb_paths: &[Vec<GeoPoint>],
    igdb_segments: &SegmentIndex,
    longhaul: &[LongHaulLink],
    corridor_km: f64,
) -> IntertubesReport {
    // Restrict to the long-haul map's region (inflated bounding box).
    let mut bbox = igdb_geo::BoundingBox::empty();
    for l in longhaul {
        for p in &l.path {
            bbox.expand(p);
        }
    }
    let bbox = bbox.inflated(2.0);
    let regional: Vec<bool> = igdb_paths
        .iter()
        .map(|path| path.iter().all(|p| bbox.contains(p)))
        .collect();

    let mut verdicts = Vec::with_capacity(longhaul.len());
    for link in longhaul {
        let hit = link
            .path
            .iter()
            .filter(|v| igdb_segments.any_within(igdb_paths, v, corridor_km, |i| regional[i]))
            .count();
        let coverage = if link.path.is_empty() {
            0.0
        } else {
            hit as f64 / link.path.len() as f64
        };
        verdicts.push(LinkVerdict {
            from_city: link.from_city,
            to_city: link.to_city,
            coverage,
            covered: coverage >= COVERAGE_THRESHOLD,
            off_road: link.off_road,
        });
    }
    let covered = verdicts.iter().filter(|v| v.covered).count();
    let missed = verdicts.len() - covered;

    // Alternates: iGDB paths that mostly run OUTSIDE every long-haul
    // corridor (the paper's purple class). A path is an alternate when
    // under half of its vertices lie within 25 miles of any long-haul
    // link. The long-haul map is the caller's, so its few hundred
    // segments are indexed per call.
    let link_paths: Vec<&[GeoPoint]> = longhaul.iter().map(|l| l.path.as_slice()).collect();
    let link_segments = SegmentIndex::new(&link_paths);
    let mut alternate_paths = 0usize;
    for (path, _) in igdb_paths.iter().zip(&regional).filter(|(_, &r)| r) {
        if path.is_empty() {
            continue;
        }
        let near = path
            .iter()
            .filter(|v| link_segments.any_within(&link_paths, v, corridor_km, |_| true))
            .count();
        if near * 2 < path.len() {
            alternate_paths += 1;
        }
    }
    IntertubesReport {
        verdicts,
        covered,
        missed,
        alternate_paths,
        total_igdb_paths: regional.iter().filter(|&&r| r).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_geo::point_polyline_distance_km;
    use igdb_obs::{JsonMode, Registry};
    use igdb_synth::intertubes::intertubes_recreation;
    use igdb_synth::{emit_snapshots, World, WorldConfig};
    use proptest::prelude::*;

    /// The all-pairs comparison `compare_paths` replaced, kept as the
    /// reference the indexed join must equal: every long-haul vertex
    /// against every segment of every regional path, and every path vertex
    /// against every long-haul segment.
    fn compare_scan(
        igdb_paths: &[Vec<GeoPoint>],
        longhaul: &[LongHaulLink],
        corridor_km: f64,
    ) -> IntertubesReport {
        let mut bbox = igdb_geo::BoundingBox::empty();
        for l in longhaul {
            for p in &l.path {
                bbox.expand(p);
            }
        }
        let bbox = bbox.inflated(2.0);
        let regional: Vec<&Vec<GeoPoint>> = igdb_paths
            .iter()
            .filter(|path| path.iter().all(|p| bbox.contains(p)))
            .collect();

        let mut verdicts = Vec::with_capacity(longhaul.len());
        for link in longhaul {
            let mut hit = 0usize;
            for v in &link.path {
                let near = regional
                    .iter()
                    .any(|path| point_polyline_distance_km(v, path) <= corridor_km);
                if near {
                    hit += 1;
                }
            }
            let coverage = if link.path.is_empty() {
                0.0
            } else {
                hit as f64 / link.path.len() as f64
            };
            verdicts.push(LinkVerdict {
                from_city: link.from_city,
                to_city: link.to_city,
                coverage,
                covered: coverage >= COVERAGE_THRESHOLD,
                off_road: link.off_road,
            });
        }
        let covered = verdicts.iter().filter(|v| v.covered).count();
        let missed = verdicts.len() - covered;

        let mut alternate_paths = 0usize;
        for path in &regional {
            if path.is_empty() {
                continue;
            }
            let near = path
                .iter()
                .filter(|v| {
                    longhaul
                        .iter()
                        .any(|l| point_polyline_distance_km(v, &l.path) <= corridor_km)
                })
                .count();
            if near * 2 < path.len() {
                alternate_paths += 1;
            }
        }
        IntertubesReport {
            verdicts,
            covered,
            missed,
            alternate_paths,
            total_igdb_paths: regional.len(),
        }
    }

    /// Polylines of 0–6 vertices that wander a few degrees from a start
    /// point in one of three bands: mid-latitude, up to ±85°, and within 2°
    /// of the antimeridian (where `GeoPoint::new` wraps a step across it).
    fn arb_polyline() -> impl Strategy<Value = Vec<GeoPoint>> {
        (
            0usize..3,
            (-1.0f64..1.0, -1.0f64..1.0),
            proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 0..7),
        )
            .prop_map(|(band, (x, y), steps)| {
                let (mut lon, mut lat) = match band {
                    0 => (-95.0 + 10.0 * x, 38.0 + 8.0 * y),
                    1 => (20.0 + 10.0 * x, 85.0 * y.signum() - 6.0 * y),
                    _ => (180.0 * x.signum() - 2.0 * x, 50.0 * y),
                };
                steps
                    .iter()
                    .map(|(dx, dy)| {
                        lon += dx;
                        lat = (lat + dy).clamp(-85.0, 85.0);
                        GeoPoint::new(lon, lat)
                    })
                    .collect()
            })
    }

    fn links_of(paths: Vec<Vec<GeoPoint>>) -> Vec<LongHaulLink> {
        paths
            .into_iter()
            .enumerate()
            .map(|(i, path)| LongHaulLink {
                from_city: i,
                to_city: i + 1,
                path,
                off_road: i % 5 == 0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Indexed ≡ scan on the whole report. The generator reaches empty
        /// and one-vertex polylines on both sides, an empty link set, link
        /// sets whose box holds no path (a single band drawn for the links,
        /// another for the paths), high latitudes and the antimeridian —
        /// where the window gives way to the scan.
        #[test]
        fn indexed_report_equals_scan(
            paths in proptest::collection::vec(arb_polyline(), 0..40),
            links in proptest::collection::vec(arb_polyline(), 0..8),
            corridor_km in 1.0f64..200.0,
        ) {
            let links = links_of(links);
            let got = compare_paths(&paths, &SegmentIndex::new(&paths), &links, corridor_km);
            prop_assert_eq!(got, compare_scan(&paths, &links, corridor_km));
        }
    }

    #[test]
    fn indexed_report_equals_scan_on_the_tiny_world_at_every_ablation_width() {
        let (world, mut igdb, at_25_miles) = setup();
        let links = intertubes_recreation(&world.cities, &world.row);
        for miles in [5.0, 10.0, 25.0, 50.0, 100.0] {
            let km = miles * KM_PER_MILE;
            assert_eq!(
                compare_with_width(&igdb, &links, km),
                compare_scan(igdb.phys_path_geometries(), &links, km),
                "{miles} mi"
            );
        }
        // The one post-build writer touches `asn_loc`, which none of the
        // derived products read: the filled index still answers.
        igdb.add_inferred_location(world.scenarios.paneu, 0);
        assert_eq!(compare(&igdb, &links), at_25_miles);
        assert_eq!(
            at_25_miles,
            compare_scan(igdb.phys_path_geometries(), &links, CORRIDOR_KM)
        );
        // No link, no region: every path falls outside the empty box.
        let none = compare(&igdb, &[]);
        assert_eq!(none, compare_scan(igdb.phys_path_geometries(), &[], CORRIDOR_KM));
        assert_eq!(none.total_igdb_paths, 0);
    }

    #[test]
    fn index_fill_is_invisible_to_the_deterministic_stream() {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 100);
        let igdb = Igdb::build(&snaps);
        let links = intertubes_recreation(&world.cities, &world.row);
        let run = || {
            let reg = Registry::new();
            let _g = reg.install();
            compare(&igdb, &links);
            reg
        };
        let (filling, warm) = (run(), run());
        assert_eq!(
            filling.json_lines(JsonMode::Deterministic),
            warm.json_lines(JsonMode::Deterministic)
        );
        let spans: Vec<String> = filling.spans().into_iter().map(|s| s.name.to_string()).collect();
        assert_eq!(spans, ["analysis.intertubes"]);
        assert!(filling.json_lines(JsonMode::Full).contains("derived.fill_us"));
        assert!(!warm.json_lines(JsonMode::Full).contains("derived.fill_us"));
    }

    fn setup() -> (World, Igdb, IntertubesReport) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 100);
        let igdb = Igdb::build(&snaps);
        let links = intertubes_recreation(&world.cities, &world.row);
        let report = compare(&igdb, &links);
        (world, igdb, report)
    }

    #[test]
    fn majority_of_longhaul_links_covered() {
        let (_, _, report) = setup();
        assert!(
            report.covered * 3 >= report.verdicts.len() * 2,
            "only {}/{} covered",
            report.covered,
            report.verdicts.len()
        );
    }

    #[test]
    fn pipeline_link_among_missed() {
        let (_, _, report) = setup();
        let off = report.verdicts.iter().find(|v| v.off_road).unwrap();
        // The geodesic pipeline link cuts across the corridor-free
        // interior; it must not be fully approximated.
        assert!(
            !off.covered,
            "off-road link unexpectedly covered ({} coverage)",
            off.coverage
        );
        assert!(report.missed >= 1);
    }

    #[test]
    fn alternates_exist() {
        let (_, _, report) = setup();
        // iGDB infers paths for every documented Atlas edge in the US —
        // many more corridors than the curated long-haul subset.
        assert!(
            report.alternate_paths > 0,
            "no alternate corridors found among {}",
            report.total_igdb_paths
        );
    }

    #[test]
    fn coverage_fractions_bounded() {
        let (_, _, report) = setup();
        for v in &report.verdicts {
            assert!((0.0..=1.0).contains(&v.coverage));
        }
    }
}
