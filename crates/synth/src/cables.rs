//! Synthetic submarine cable systems (the Telegeography substitute).
//!
//! "Submarine cables are conduits for international data transfer … we
//! collected data from an alternate, openly available source,
//! Telegeography. The data we imported includes the consortium of companies
//! overseeing each cable, the cable segment physical paths, and their
//! associated landing points" (paper §2). We generate cable systems between
//! coastal cities — mostly intercontinental, some coastal-hugging regional
//! systems — with multi-segment great-circle paths and named landing
//! points.

use igdb_geo::{great_circle_arc, haversine_km, polyline_length_km, GeoPoint};
use rand::rngs::StdRng;
use rand::Rng;

use crate::cities::{continent_of, City};

/// A cable landing site.
#[derive(Clone, Debug)]
pub struct LandingPoint {
    /// City the landing station serves.
    pub city: usize,
    /// Telegeography-style name, e.g. "Marseille Landing Station".
    pub name: String,
    pub loc: GeoPoint,
}

/// One cable system.
#[derive(Clone, Debug)]
pub struct Cable {
    pub id: usize,
    pub name: String,
    /// Consortium member organizations.
    pub owners: Vec<String>,
    /// Landing points in chain order.
    pub landings: Vec<LandingPoint>,
    /// One polyline per consecutive landing pair.
    pub segments: Vec<Vec<GeoPoint>>,
}

impl Cable {
    pub fn total_length_km(&self) -> f64 {
        self.segments.iter().map(|s| polyline_length_km(s)).sum()
    }
}

const CABLE_ADJECTIVES: &[&str] = &[
    "Express", "Connect", "Gateway", "Bridge", "Link", "Crossing", "Light", "Wave", "Reach",
];
const OCEAN_NAMES: &[&str] = &[
    "Atlantic",
    "Pacific",
    "Meridian",
    "Austral",
    "Boreal",
    "Equatorial",
    "Azure",
    "Coral",
    "Polar",
];

/// Generates `count` cable systems over the coastal cities. `owner_pool`
/// supplies consortium member names (AS organizations).
pub fn build_cables(
    cities: &[City],
    owner_pool: &[String],
    count: usize,
    rng: &mut StdRng,
) -> Vec<Cable> {
    let coastal: Vec<&City> = cities.iter().filter(|c| c.coastal).collect();
    if coastal.len() < 2 {
        return Vec::new();
    }
    let mut cables = Vec::with_capacity(count);
    let mut used_pairs = std::collections::HashSet::new();
    let mut guard = 0;
    while cables.len() < count && guard < count * 60 + 100 {
        guard += 1;
        let a = coastal[rng.gen_range(0..coastal.len())];
        let b = coastal[rng.gen_range(0..coastal.len())];
        if a.id == b.id {
            continue;
        }
        // ~75% of systems must cross continents; the rest hug a coast.
        let cross = continent_of(&a.country) != continent_of(&b.country);
        if !cross && rng.gen_bool(0.75) {
            continue;
        }
        let gc = haversine_km(&a.loc, &b.loc);
        if !(150.0..=16_000.0).contains(&gc) {
            continue;
        }
        let key = (a.id.min(b.id), a.id.max(b.id));
        if !used_pairs.insert(key) {
            continue;
        }
        // Optional intermediate landing (branching systems).
        let mut chain = vec![a.id];
        if gc > 4000.0 && rng.gen_bool(0.45) {
            // Pick a coastal city roughly between the two endpoints.
            let mid = igdb_geo::geodesy::intermediate_point(&a.loc, &b.loc, 0.5);
            if let Some(via) = coastal
                .iter()
                .filter(|c| c.id != a.id && c.id != b.id)
                .min_by(|x, y| {
                    haversine_km(&x.loc, &mid)
                        .partial_cmp(&haversine_km(&y.loc, &mid))
                        .unwrap()
                })
            {
                if haversine_km(&via.loc, &mid) < gc * 0.35 {
                    chain.push(via.id);
                }
            }
        }
        chain.push(b.id);

        let landings: Vec<LandingPoint> = chain
            .iter()
            .map(|&cid| LandingPoint {
                city: cid,
                name: format!("{} Landing Station", cities[cid].name),
                loc: cities[cid].loc,
            })
            .collect();
        let segments: Vec<Vec<GeoPoint>> = chain
            .windows(2)
            .map(|w| {
                let (p, q) = (&cities[w[0]].loc, &cities[w[1]].loc);
                let n = ((haversine_km(p, q) / 400.0).ceil() as usize).clamp(2, 48);
                great_circle_arc(p, q, n)
            })
            .collect();
        let n_owners = rng.gen_range(1..=4.min(owner_pool.len().max(1)));
        let mut owners = Vec::new();
        for _ in 0..n_owners {
            if owner_pool.is_empty() {
                break;
            }
            let o = owner_pool[rng.gen_range(0..owner_pool.len())].clone();
            if !owners.contains(&o) {
                owners.push(o);
            }
        }
        let id = cables.len();
        cables.push(Cable {
            id,
            name: format!(
                "{} {} {}",
                OCEAN_NAMES[rng.gen_range(0..OCEAN_NAMES.len())],
                CABLE_ADJECTIVES[rng.gen_range(0..CABLE_ADJECTIVES.len())],
                id + 1
            ),
            owners,
            landings,
            segments,
        });
    }
    cables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::build_cities;
    use rand::SeedableRng;

    fn cables() -> (Vec<City>, Vec<Cable>) {
        let mut rng = StdRng::seed_from_u64(21);
        let cities = build_cities(400, &mut rng);
        let owners: Vec<String> = (0..20).map(|i| format!("Owner {i}")).collect();
        let cs = build_cables(&cities, &owners, 60, &mut rng);
        (cities, cs)
    }

    #[test]
    fn requested_count_reached() {
        let (_, cs) = cables();
        assert_eq!(cs.len(), 60);
    }

    #[test]
    fn landings_are_coastal_cities() {
        let (cities, cs) = cables();
        for c in &cs {
            assert!(c.landings.len() >= 2);
            for lp in &c.landings {
                assert!(cities[lp.city].coastal, "{}: {}", c.name, lp.name);
                assert!(lp.name.ends_with("Landing Station"));
            }
        }
    }

    #[test]
    fn segments_connect_landings_in_order() {
        let (_, cs) = cables();
        for c in &cs {
            assert_eq!(c.segments.len(), c.landings.len() - 1);
            for (seg, w) in c.segments.iter().zip(c.landings.windows(2)) {
                assert!(haversine_km(&seg[0], &w[0].loc) < 1.0);
                assert!(haversine_km(seg.last().unwrap(), &w[1].loc) < 1.0);
            }
        }
    }

    #[test]
    fn lengths_reasonable_and_mostly_intercontinental() {
        let (cities, cs) = cables();
        let mut cross = 0;
        for c in &cs {
            let len = c.total_length_km();
            assert!(len > 100.0 && len < 40_000.0, "{}: {len}", c.name);
            let a = &cities[c.landings[0].city];
            let b = &cities[c.landings.last().unwrap().city];
            if continent_of(&a.country) != continent_of(&b.country) {
                cross += 1;
            }
        }
        assert!(
            cross * 2 > cs.len(),
            "most cables should cross continents: {cross}/{}",
            cs.len()
        );
    }

    #[test]
    fn owners_nonempty_unique() {
        let (_, cs) = cables();
        for c in &cs {
            assert!(!c.owners.is_empty());
            let set: std::collections::HashSet<&String> = c.owners.iter().collect();
            assert_eq!(set.len(), c.owners.len());
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(5);
            let cities = build_cities(300, &mut rng);
            let owners = vec!["A".to_string(), "B".to_string()];
            build_cables(&cities, &owners, 25, &mut rng)
                .iter()
                .map(|c| (c.name.clone(), c.landings.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
