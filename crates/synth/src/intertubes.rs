//! Recreations of the two published map datasets the paper compares
//! against: the InterTubes US long-haul fiber map (Figure 4) and the
//! Rocketfuel AS7018 map (Figure 8).

use igdb_geo::{great_circle_arc, GeoPoint};

use crate::cities::City;
use crate::rightofway::RowNetwork;
use crate::world::World;

/// One long-haul link from the recreated InterTubes map.
#[derive(Clone, Debug)]
pub struct LongHaulLink {
    pub from_city: usize,
    pub to_city: usize,
    /// The link's actual geometry.
    pub path: Vec<GeoPoint>,
    /// True for the deliberately non-road link (the Atlanta–Houston
    /// pipeline analogue the paper could not approximate).
    pub off_road: bool,
}

/// A representative subset of the InterTubes corridor structure, shared
/// with the scenario backbone network (InterTubes itself was compiled from
/// Internet Atlas data, so the corridors legitimately appear in both).
pub const US_CORRIDORS: &[(&str, &str)] = &[
    ("New York", "Philadelphia"),
    ("Philadelphia", "Washington"),
    ("Washington", "Atlanta"),
    ("New York", "Boston"),
    ("New York", "Chicago"),
    ("Chicago", "Minneapolis"),
    ("Chicago", "St Louis"),
    ("St Louis", "Kansas City"),
    ("Kansas City", "Denver"),
    ("Denver", "Salt Lake City"),
    ("Salt Lake City", "Sacramento"),
    ("Sacramento", "San Francisco"),
    ("Los Angeles", "Phoenix"),
    ("Phoenix", "El Paso"),
    ("El Paso", "San Antonio"),
    ("San Antonio", "Houston"),
    ("Houston", "Dallas"),
    ("Dallas", "Atlanta"),
    ("Atlanta", "Miami"),
    ("Seattle", "Portland"),
    ("Portland", "Sacramento"),
    ("Chicago", "Cleveland"),
    ("Cleveland", "Pittsburgh"),
    ("Pittsburgh", "Philadelphia"),
    ("Kansas City", "Dallas"),
    ("Nashville", "Atlanta"),
    ("St Louis", "Nashville"),
    ("Los Angeles", "San Diego"),
    ("San Diego", "Phoenix"),
    ("Denver", "Albuquerque"),
    ("Albuquerque", "El Paso"),
    ("Seattle", "Spokane"),
    ("Spokane", "Billings"),
    ("Billings", "Minneapolis"),
];

/// Recreates an InterTubes-style US long-haul map: real long-haul links
/// follow road rights-of-way between major US metros, except one that
/// follows a gas pipeline (straight geodesic), reproducing the documented
/// Figure 4 miss.
pub fn intertubes_recreation(cities: &[City], row: &RowNetwork) -> Vec<LongHaulLink> {
    let id = |name: &str| -> usize {
        cities
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("city {name} missing"))
            .id
    };
    let corridors = US_CORRIDORS;
    let mut links: Vec<LongHaulLink> = corridors
        .iter()
        .filter_map(|&(a, b)| {
            let (ca, cb) = (id(a), id(b));
            let (city_path, _) = row.shortest_path(ca, cb)?;
            Some(LongHaulLink {
                from_city: ca,
                to_city: cb,
                path: row.path_geometry(&city_path),
                off_road: false,
            })
        })
        .collect();
    // The pipeline link: Atlanta–Houston directly, not along any road.
    let (atl, hou) = (id("Atlanta"), id("Houston"));
    links.push(LongHaulLink {
        from_city: atl,
        to_city: hou,
        path: great_circle_arc(&cities[atl].loc, &cities[hou].loc, 16),
        off_road: true,
    });
    links
}

/// One edge of the recreated Rocketfuel map: straight-line logical
/// connectivity between metros (how Rocketfuel drew AS7018).
#[derive(Clone, Debug)]
pub struct RocketfuelEdge {
    pub from_city: usize,
    pub to_city: usize,
}

/// A Rocketfuel-style map for a large synthetic US transit AS: its metro
/// nodes plus straight-line edges, *including* redundant diagonal pairs
/// that in physical reality collapse onto shared corridors — the
/// overstated path diversity Figure 8 corrects.
pub struct RocketfuelMap {
    pub asn: igdb_net::Asn,
    pub metros: Vec<usize>,
    pub edges: Vec<RocketfuelEdge>,
}

/// Builds the map from the world's Figure 7 transit ASes (their combined
/// US footprint plays the role of AT&T's).
pub fn rocketfuel_recreation(world: &World) -> RocketfuelMap {
    let heart = world
        .eco
        .get(world.scenarios.heartland)
        .expect("scenario AS");
    let east = world
        .eco
        .get(world.scenarios.eastcore)
        .expect("scenario AS");
    let gulf = world
        .eco
        .get(world.scenarios.gulfeast)
        .expect("scenario AS");
    let mut metros: Vec<usize> = heart
        .footprint
        .iter()
        .chain(&east.footprint)
        .chain(&gulf.footprint)
        .copied()
        .collect();
    metros.sort_unstable();
    metros.dedup();
    // Logical edges: every physical edge of the three ASes, plus inferred
    // traceroute shortcuts between non-adjacent metros (what Rocketfuel's
    // alias resolution produced).
    let mut edges: Vec<RocketfuelEdge> = heart
        .internal_edges
        .iter()
        .chain(&east.internal_edges)
        .chain(&gulf.internal_edges)
        .map(|e| RocketfuelEdge {
            from_city: e.a,
            to_city: e.b,
        })
        .collect();
    // Shortcut edges: metro pairs two physical hops apart appear directly
    // connected when the middle hop is invisible (MPLS or non-responding).
    let phys: std::collections::HashSet<(usize, usize)> = edges
        .iter()
        .map(|e| (e.from_city.min(e.to_city), e.from_city.max(e.to_city)))
        .collect();
    let mut adj: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for &(a, b) in &phys {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let mut shortcuts = Vec::new();
    for (&m, nbs) in &adj {
        for i in 0..nbs.len() {
            for j in i + 1..nbs.len() {
                let (a, b) = (nbs[i].min(nbs[j]), nbs[i].max(nbs[j]));
                if !phys.contains(&(a, b)) {
                    shortcuts.push(RocketfuelEdge {
                        from_city: a,
                        to_city: b,
                    });
                    let _ = m;
                }
            }
        }
    }
    shortcuts.sort_by_key(|e| (e.from_city, e.to_city));
    shortcuts.dedup_by_key(|e| (e.from_city, e.to_city));
    edges.extend(shortcuts);
    RocketfuelMap {
        asn: world.scenarios.heartland,
        metros,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    #[test]
    fn intertubes_links_built_with_single_off_road() {
        let w = World::generate(WorldConfig::tiny());
        let links = intertubes_recreation(&w.cities, &w.row);
        assert!(links.len() >= 30, "got {}", links.len());
        assert_eq!(links.iter().filter(|l| l.off_road).count(), 1);
        for l in links.iter().filter(|l| !l.off_road) {
            assert!(l.path.len() >= 2);
        }
    }

    #[test]
    fn off_road_link_is_atlanta_houston_geodesic() {
        let w = World::generate(WorldConfig::tiny());
        let links = intertubes_recreation(&w.cities, &w.row);
        let off = links.iter().find(|l| l.off_road).unwrap();
        let names: Vec<&str> = [off.from_city, off.to_city]
            .iter()
            .map(|&c| w.cities[c].name.as_str())
            .collect();
        assert!(names.contains(&"Atlanta") && names.contains(&"Houston"));
        // Geodesic ≈ great-circle length, far below any road detour.
        let gc = igdb_geo::haversine_km(&w.cities[off.from_city].loc, &w.cities[off.to_city].loc);
        let plen = igdb_geo::polyline_length_km(&off.path);
        assert!((plen - gc).abs() < gc * 0.01);
    }

    #[test]
    fn rocketfuel_map_overstates_diversity() {
        let w = World::generate(WorldConfig::tiny());
        let map = rocketfuel_recreation(&w);
        assert!(map.metros.len() >= 10);
        // The logical map must contain more edges than the physical edges
        // of the underlying ASes (the added shortcuts).
        let phys_edges: usize = [
            w.scenarios.heartland,
            w.scenarios.eastcore,
            w.scenarios.gulfeast,
        ]
        .iter()
        .map(|&a| w.eco.get(a).unwrap().internal_edges.len())
        .sum();
        assert!(
            map.edges.len() > phys_edges,
            "{} vs {phys_edges}",
            map.edges.len()
        );
    }
}
