//! Figure 5 — exporting the physical layer for GIS rendering.
//!
//! The paper renders nodes (orange), inferred right-of-way paths (green)
//! and submarine cables (purple) in ArcGIS. We export the same three layers
//! as WKT collections plus a minimal GeoJSON FeatureCollection writer, so
//! any GIS (QGIS, ArcGIS, kepler.gl) can draw Figure 5 from iGDB output.

use igdb_db::{Database, DbError};

use crate::build::Igdb;

/// The three layers of the Figure 5 map.
#[derive(Clone, Debug)]
pub struct MapExport {
    /// `POINT` WKT per physical node.
    pub node_points: Vec<String>,
    /// `LINESTRING` WKT per inferred right-of-way path.
    pub row_paths: Vec<String>,
    /// `MULTILINESTRING` WKT per submarine cable.
    pub cable_paths: Vec<String>,
}

/// Extracts the three layers from a built database.
pub fn export_physical_map(igdb: &Igdb) -> MapExport {
    let _span = igdb_obs::span("analysis.export");
    MapExport::from_db(&igdb.db).expect("a built database has the three map relations")
}

impl MapExport {
    /// Extracts the three layers from any database holding `phys_nodes`,
    /// `phys_conn` and `sub_cables` — a built one, or one loaded back
    /// from disk (`igdb export`).
    pub fn from_db(db: &Database) -> Result<MapExport, DbError> {
        let wkt_column = |table: &str, col: usize| {
            db.with_table(table, |t| {
                t.rows()
                    .iter()
                    .filter_map(|r| r[col].as_text().map(str::to_string))
                    .collect()
            })
        };
        let node_points = db.with_table("phys_nodes", |t| {
            t.rows()
                .iter()
                .filter_map(|r| {
                    let lat = r[6].as_float()?;
                    let lon = r[7].as_float()?;
                    Some(format!("POINT ({lon} {lat})"))
                })
                .collect()
        })?;
        Ok(MapExport {
            node_points,
            row_paths: wkt_column("phys_conn", 7)?,
            cable_paths: wkt_column("sub_cables", 4)?,
        })
    }

    /// Renders the layers as a GeoJSON FeatureCollection with a `layer`
    /// property per feature (`nodes` / `row_paths` / `cables`).
    pub fn to_geojson(&self) -> String {
        let mut features = Vec::new();
        for (layer, wkts) in [
            ("nodes", &self.node_points),
            ("row_paths", &self.row_paths),
            ("cables", &self.cable_paths),
        ] {
            for wkt in wkts {
                if let Ok(geom) = igdb_geo::parse_wkt(wkt) {
                    features.push(feature_json(layer, &geom));
                }
            }
        }
        format!(
            "{{\"type\":\"FeatureCollection\",\"features\":[{}]}}",
            features.join(",")
        )
    }
}

fn feature_json(layer: &str, geom: &igdb_geo::Geometry) -> String {
    format!(
        "{{\"type\":\"Feature\",\"properties\":{{\"layer\":\"{layer}\"}},\"geometry\":{}}}",
        geometry_json(geom)
    )
}

fn coords(p: &igdb_geo::GeoPoint) -> String {
    format!("[{},{}]", p.lon, p.lat)
}

fn geometry_json(geom: &igdb_geo::Geometry) -> String {
    use igdb_geo::Geometry as G;
    match geom {
        G::Point(p) => format!("{{\"type\":\"Point\",\"coordinates\":{}}}", coords(p)),
        G::LineString(ls) => format!(
            "{{\"type\":\"LineString\",\"coordinates\":[{}]}}",
            ls.0.iter().map(coords).collect::<Vec<_>>().join(",")
        ),
        G::MultiLineString(mls) => format!(
            "{{\"type\":\"MultiLineString\",\"coordinates\":[{}]}}",
            mls.0
                .iter()
                .map(|ls| format!(
                    "[{}]",
                    ls.0.iter().map(coords).collect::<Vec<_>>().join(",")
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
        G::Polygon(poly) => format!(
            "{{\"type\":\"Polygon\",\"coordinates\":[{}]}}",
            std::iter::once(&poly.exterior)
                .chain(poly.holes.iter())
                .map(|ring| format!(
                    "[{}]",
                    ring.iter().map(coords).collect::<Vec<_>>().join(",")
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
        G::MultiPolygon(mp) => format!(
            "{{\"type\":\"MultiPolygon\",\"coordinates\":[{}]}}",
            mp.0.iter()
                .map(|poly| format!(
                    "[{}]",
                    std::iter::once(&poly.exterior)
                        .chain(poly.holes.iter())
                        .map(|ring| format!(
                            "[{}]",
                            ring.iter().map(coords).collect::<Vec<_>>().join(",")
                        ))
                        .collect::<Vec<_>>()
                        .join(",")
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn export() -> MapExport {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 0);
        export_physical_map(&Igdb::build(&snaps))
    }

    #[test]
    fn three_layers_populated() {
        let e = export();
        assert!(e.node_points.len() > 100);
        assert!(e.row_paths.len() > 50);
        assert!(e.cable_paths.len() > 10);
    }

    #[test]
    fn all_wkt_parses() {
        let e = export();
        for wkt in e
            .node_points
            .iter()
            .take(50)
            .chain(e.row_paths.iter().take(50))
            .chain(e.cable_paths.iter().take(50))
        {
            igdb_geo::parse_wkt(wkt).unwrap_or_else(|err| panic!("{wkt}: {err}"));
        }
    }

    #[test]
    fn geojson_structurally_sound() {
        let e = export();
        let gj = e.to_geojson();
        assert!(gj.starts_with("{\"type\":\"FeatureCollection\""));
        assert!(gj.contains("\"layer\":\"nodes\""));
        assert!(gj.contains("\"layer\":\"row_paths\""));
        assert!(gj.contains("\"layer\":\"cables\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = gj.chars().filter(|&c| c == '{').count();
        let closes = gj.chars().filter(|&c| c == '}').count();
        assert_eq!(opens, closes);
        let ob = gj.chars().filter(|&c| c == '[').count();
        let cb = gj.chars().filter(|&c| c == ']').count();
        assert_eq!(ob, cb);
    }
}
