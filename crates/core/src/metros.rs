//! Standard metros: the urban-area registry and spatial standardization.
//!
//! Paper §3.1: "we developed a name standardization process that spatially
//! maps each node to the closest urban area from a single data source of
//! urban areas … Any point inside each of these Thiessen polygons is
//! geographically closest to the single urban area used to create the
//! polygon." Assignment therefore reduces to nearest-site search, which
//! [`igdb_geo::NearestSiteIndex`] answers exactly; the polygons themselves
//! are materialized (lazily — they are pure output geometry) for the
//! `city_polygons` relation, Figure 3, and the Figure 10 density map.

use igdb_geo::{voronoi_cells, BoundingBox, GeoPoint, NearestSiteIndex, Polygon};
use igdb_synth::sources::NaturalEarthPlace;

/// One standard metro.
#[derive(Clone, Debug)]
pub struct Metro {
    /// Index in the registry — the standard metro id used across all
    /// relations.
    pub id: usize,
    pub name: String,
    pub state: String,
    pub country: String,
    pub loc: GeoPoint,
    pub population: u32,
}

impl Metro {
    /// The `City-ST-CC` standard label.
    pub fn label(&self) -> String {
        if self.state.is_empty() {
            format!("{}-{}", self.name, self.country)
        } else {
            format!("{}-{}-{}", self.name, self.state, self.country)
        }
    }
}

/// The registry: metros plus the nearest-site index that implements
/// Thiessen-cell assignment.
pub struct MetroRegistry {
    metros: Vec<Metro>,
    index: NearestSiteIndex,
    polygons: std::sync::OnceLock<Vec<Polygon>>,
}

impl MetroRegistry {
    /// Builds the registry from the populated-places dataset.
    pub fn build(places: &[NaturalEarthPlace]) -> Self {
        let metros: Vec<Metro> = places
            .iter()
            .enumerate()
            .map(|(id, p)| Metro {
                id,
                name: p.name.clone(),
                state: p.state.clone(),
                country: p.country.clone(),
                loc: p.loc,
                population: p.population,
            })
            .collect();
        let index = NearestSiteIndex::new(metros.iter().map(|m| m.loc).collect());
        Self {
            metros,
            index,
            polygons: std::sync::OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.metros.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metros.is_empty()
    }

    /// The metro with this id.
    ///
    /// # Panics
    /// Panics on an out-of-range id; ids from a different (e.g. degraded)
    /// build are not interchangeable — use [`MetroRegistry::try_metro`]
    /// when the id's provenance is uncertain.
    pub fn metro(&self, id: usize) -> &Metro {
        &self.metros[id]
    }

    /// The metro with this id, or `None` when the id is not in the
    /// registry (ids shift when a degraded build quarantines part of the
    /// catalogue, so foreign ids must be looked up fallibly).
    pub fn try_metro(&self, id: usize) -> Option<&Metro> {
        self.metros.get(id)
    }

    pub fn metros(&self) -> &[Metro] {
        &self.metros
    }

    /// Standardizes a point: the metro whose Thiessen cell contains it.
    pub fn metro_of(&self, p: &GeoPoint) -> Option<usize> {
        self.index.nearest(p).map(|(id, _)| id)
    }

    /// Metros within `radius_km` of a point (used by buffer joins).
    pub fn metros_within(&self, p: &GeoPoint, radius_km: f64) -> Vec<(usize, f64)> {
        self.index.within_km(p, radius_km)
    }

    /// Finds a metro by exact name (convenience for examples/benches).
    pub fn by_name(&self, name: &str) -> Option<usize> {
        self.metros.iter().position(|m| m.name == name)
    }

    /// The Thiessen polygons, one per metro, clipped to the world box.
    /// Computed on first use (Figure 3 / `city_polygons`).
    pub fn polygons(&self) -> &[Polygon] {
        self.polygons.get_or_init(|| {
            let sites: Vec<GeoPoint> = self.metros.iter().map(|m| m.loc).collect();
            let cells = voronoi_cells(&sites, &BoundingBox::WORLD);
            // voronoi_cells skips duplicate sites; rebuild a dense vector
            // (duplicates get a degenerate empty polygon).
            let mut polys = vec![Polygon::new(vec![], vec![]); sites.len()];
            for cell in cells {
                polys[cell.site] = cell.polygon;
            }
            polys
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn places() -> Vec<NaturalEarthPlace> {
        [
            ("Madrid", "", "ES", -3.704, 40.417, 6700u32),
            ("Paris", "", "FR", 2.352, 48.857, 11000),
            ("Berlin", "", "DE", 13.405, 52.520, 3700),
            ("Kansas City", "MO", "US", -94.579, 39.100, 2200),
        ]
        .into_iter()
        .map(|(n, s, c, lon, lat, pop)| NaturalEarthPlace {
            name: n.to_string(),
            state: s.to_string(),
            country: c.to_string(),
            loc: GeoPoint::new(lon, lat),
            population: pop,
        })
        .collect()
    }

    #[test]
    fn assignment_picks_nearest_metro() {
        let reg = MetroRegistry::build(&places());
        // A point in Lyon standardizes to Paris (nearest of the four).
        let lyon = GeoPoint::new(4.835, 45.764);
        assert_eq!(reg.metro_of(&lyon), reg.by_name("Paris"));
        // Toledo, ES → Madrid.
        let toledo = GeoPoint::new(-4.027, 39.863);
        assert_eq!(reg.metro_of(&toledo), reg.by_name("Madrid"));
    }

    #[test]
    fn labels_follow_convention() {
        let reg = MetroRegistry::build(&places());
        assert_eq!(reg.metro(reg.by_name("Madrid").unwrap()).label(), "Madrid-ES");
        assert_eq!(
            reg.metro(reg.by_name("Kansas City").unwrap()).label(),
            "Kansas City-MO-US"
        );
    }

    #[test]
    fn polygons_agree_with_assignment() {
        let reg = MetroRegistry::build(&places());
        let polys = reg.polygons();
        assert_eq!(polys.len(), 4);
        // Probe points: the polygon containing each probe must be the
        // assigned metro's.
        for probe in [
            GeoPoint::new(4.8, 45.8),
            GeoPoint::new(-3.0, 41.0),
            GeoPoint::new(10.0, 51.0),
            GeoPoint::new(-90.0, 40.0),
        ] {
            let assigned = reg.metro_of(&probe).unwrap();
            for (i, poly) in polys.iter().enumerate() {
                let inside = poly.contains(&probe);
                assert_eq!(
                    inside,
                    i == assigned,
                    "probe {probe:?} polygon {i} vs assigned {assigned}"
                );
            }
        }
    }

    #[test]
    fn empty_registry() {
        let reg = MetroRegistry::build(&[]);
        assert!(reg.is_empty());
        assert_eq!(reg.metro_of(&GeoPoint::new(0.0, 0.0)), None);
    }

    #[test]
    fn metros_within_radius() {
        let reg = MetroRegistry::build(&places());
        // 1,100 km around Paris: Paris itself and Berlin (~880 km).
        let hits = reg.metros_within(&GeoPoint::new(2.352, 48.857), 1100.0);
        let names: Vec<&str> = hits
            .iter()
            .map(|&(id, _)| reg.metro(id).name.as_str())
            .collect();
        assert!(names.contains(&"Paris"));
        assert!(names.contains(&"Berlin"));
        assert!(!names.contains(&"Kansas City"));
    }
}
