//! Deterministic scenario networks for the paper's named experiments.
//!
//! The random ecosystem gives the right statistics, but several figures
//! describe *specific* situations: a Kansas City→Atlanta traceroute with an
//! MPLS-hidden hop in Tulsa/Oklahoma City (Figure 7), a Madrid→Berlin
//! traceroute through Paris/Frankfurt/Düsseldorf (Figures 1 and 9), two
//! overlapping US access ISPs (Figure 6), and a transit AS whose rDNS
//! reveals undeclared metros (Table 3). This module injects hand-built ASes
//! that realize those situations on top of the random world, in reserved
//! ASN ranges (64496–64999, the IANA documentation range, plus 65000+ for
//! scenario stubs).

use igdb_net::{AsRelationship, Asn};

use crate::ases::{AsClass, AsEcosystem, AsNames, InternalEdge, RdnsStyle, SynthAs};
use crate::cities::{City, Continent};

/// Handles to the injected scenario ASes, consumed by benches and tests.
#[derive(Clone, Debug)]
pub struct Scenarios {
    /// Fig 7: transit across the US Midwest (KC—Tulsa/OKC—Dallas), MPLS on.
    pub heartland: Asn,
    /// Fig 7: transit across the US Gulf/Southeast (Dallas—Houston—Atlanta).
    pub gulfeast: Asn,
    /// Fig 7: transit along the shorter inland corridor (KC—StL—Nashville—Atlanta).
    pub eastcore: Asn,
    /// Fig 7/9 anchor hosts: (stub ASN, city id).
    pub anchor_kansas_city: (Asn, usize),
    pub anchor_atlanta: (Asn, usize),
    /// Fig 9: pan-European transit (Madrid—Paris—Frankfurt…).
    pub paneu: Asn,
    /// Fig 9: German regional ISP (Frankfurt—Düsseldorf—Berlin…).
    pub germanet: Asn,
    pub anchor_madrid: (Asn, usize),
    pub anchor_berlin: (Asn, usize),
    /// Fig 6: the single-ASN access ISP ("Cox-like", 30 metros).
    pub coastcable: Asn,
    /// Fig 6: the four ASNs of the multi-ASN access ISP ("Charter-like",
    /// 71 metros split across them).
    pub spectra: [Asn; 4],
    /// Table 3: GeoCode-style transit with many undeclared metros.
    pub globetrans: Asn,
    /// Table 3 traffic sources: stubs single-homed behind GlobeTrans.
    pub anchor_globetrans_a: (Asn, usize),
    pub anchor_globetrans_b: (Asn, usize),
    /// Figure 4: the Atlas-documented US backbone whose edges realize the
    /// InterTubes corridors (InterTubes was compiled from Atlas data).
    pub continental: Asn,
}

fn city_id(cities: &[City], name: &str) -> usize {
    cities
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("city '{name}' missing from catalogue"))
        .id
}

fn names(brand: &str, asn: Asn) -> AsNames {
    AsNames {
        brand: brand.to_string(),
        asrank_as_name: format!("{}-{}", brand.to_ascii_uppercase(), asn.0),
        peeringdb_as_name: format!("as-{}", brand.to_ascii_lowercase()),
        asrank_org: format!("{brand} Communications, LLC"),
        peeringdb_org: format!("{brand} - AS{}", asn.0),
        pch_org: format!("{brand} Networks B.V."),
    }
}

fn chain_edges(path: &[usize]) -> Vec<InternalEdge> {
    path.windows(2)
        .map(|w| InternalEdge {
            a: w[0].min(w[1]),
            b: w[0].max(w[1]),
            submarine: false,
        })
        .collect()
}

/// Installs every scenario AS into the ecosystem. Call after
/// `build_ecosystem` and before router construction. Scenario providers are
/// tier-1s from the random ecosystem (the first two by ASN).
pub fn install(cities: &[City], eco: &mut AsEcosystem) -> Scenarios {
    let tier1s: Vec<Asn> = eco
        .ases
        .iter()
        .filter(|a| a.class == AsClass::Tier1)
        .map(|a| a.asn)
        .collect();
    assert!(tier1s.len() >= 2, "scenarios need at least two tier-1s");
    let c = |n: &str| city_id(cities, n);

    // ---------------- Figure 7: Kansas City → Atlanta ----------------
    // Heartland: KC—Tulsa—Dallas and KC—OKC—Dallas; MPLS hides Tulsa/OKC.
    let heartland = Asn(64511);
    {
        let footprint = vec![
            c("Kansas City"),
            c("Tulsa"),
            c("Oklahoma City"),
            c("Dallas"),
            c("Omaha"),
            c("Denver"),
        ];
        let mut edges = chain_edges(&[c("Kansas City"), c("Tulsa"), c("Dallas")]);
        edges.extend(chain_edges(&[
            c("Kansas City"),
            c("Oklahoma City"),
            c("Dallas"),
        ]));
        edges.extend(chain_edges(&[c("Kansas City"), c("Omaha"), c("Denver")]));
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: heartland,
            class: AsClass::Tier2,
            names: names("Heartland", heartland),
            region: Some(Continent::NorthAmerica),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: true,
            in_atlas: true,
        });
        eco.graph
            .add_edge(heartland, tier1s[0], AsRelationship::CustomerOf);
    }

    // GulfEast: Dallas—Houston—Atlanta, no MPLS (Houston stays visible).
    let gulfeast = Asn(64512);
    {
        let footprint = vec![
            c("Dallas"),
            c("Houston"),
            c("Atlanta"),
            c("New Orleans"),
            c("Jacksonville"),
        ];
        let mut edges = chain_edges(&[c("Dallas"), c("Houston"), c("Atlanta")]);
        edges.extend(chain_edges(&[
            c("Houston"),
            c("New Orleans"),
            c("Jacksonville"),
            c("Atlanta"),
        ]));
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: gulfeast,
            class: AsClass::Tier2,
            names: names("GulfEast", gulfeast),
            region: Some(Continent::NorthAmerica),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(gulfeast, tier1s[1], AsRelationship::CustomerOf);
        // Heartland and GulfEast peer in Dallas.
        eco.graph
            .add_edge(heartland, gulfeast, AsRelationship::Peer);
    }

    // EastCore: the shorter inland corridor whose phys paths make the
    // "shortest practical physical path" (KC—StL—Nashville—Atlanta).
    let eastcore = Asn(64513);
    {
        let footprint = vec![
            c("Kansas City"),
            c("St Louis"),
            c("Nashville"),
            c("Atlanta"),
            c("Memphis"),
            c("Chicago"),
        ];
        let mut edges = chain_edges(&[
            c("Kansas City"),
            c("St Louis"),
            c("Nashville"),
            c("Atlanta"),
        ]);
        edges.extend(chain_edges(&[c("St Louis"), c("Chicago")]));
        edges.extend(chain_edges(&[c("Nashville"), c("Memphis")]));
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: eastcore,
            class: AsClass::Tier2,
            names: names("EastCore", eastcore),
            region: Some(Continent::NorthAmerica),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::CityName,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(eastcore, tier1s[0], AsRelationship::CustomerOf);
    }

    // Anchor stubs. The KC anchor buys from Heartland ONLY and the Atlanta
    // anchor from GulfEast ONLY, so the best path crosses the Dallas
    // peering — the Figure 7 detour (KC→Tulsa*→Dallas→Houston→Atlanta)
    // rather than the short inland corridor.
    let anchor_kc = Asn(65001);
    let anchor_atl = Asn(65002);
    for (asn, city, provider, brand) in [
        (anchor_kc, c("Kansas City"), heartland, "PrairieHost"),
        (anchor_atl, c("Atlanta"), gulfeast, "PeachServe"),
    ] {
        eco.register(SynthAs {
            asn,
            class: AsClass::Stub,
            names: names(brand, asn),
            region: Some(Continent::NorthAmerica),
            footprint: vec![city],
            declared_footprint: vec![city],
            internal_edges: Vec::new(),
            rdns_style: RdnsStyle::Opaque,
            mpls: false,
            in_atlas: false,
        });
        eco.graph
            .add_edge(asn, provider, AsRelationship::CustomerOf);
    }

    // ---------------- Figure 9: Madrid → Berlin ----------------
    let paneu = Asn(64521);
    {
        let footprint = vec![
            c("Madrid"),
            c("Paris"),
            c("Frankfurt"),
            c("Barcelona"),
            c("Lyon"),
            c("Milan"),
            c("Amsterdam"),
            c("London"),
        ];
        let mut edges = chain_edges(&[c("Madrid"), c("Paris"), c("Frankfurt")]);
        edges.extend(chain_edges(&[
            c("Madrid"),
            c("Barcelona"),
            c("Lyon"),
            c("Paris"),
        ]));
        edges.extend(chain_edges(&[c("Paris"), c("London")]));
        edges.extend(chain_edges(&[c("Frankfurt"), c("Amsterdam")]));
        edges.extend(chain_edges(&[c("Lyon"), c("Milan")]));
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: paneu,
            class: AsClass::Tier2,
            names: names("IberRhine", paneu),
            region: Some(Continent::Europe),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(paneu, tier1s[0], AsRelationship::CustomerOf);
    }
    let germanet = Asn(64522);
    {
        let footprint = vec![
            c("Frankfurt"),
            c("Dusseldorf"),
            c("Berlin"),
            c("Hamburg"),
            c("Cologne"),
            c("Amsterdam"),
            c("Brussels"),
        ];
        let mut edges = chain_edges(&[c("Frankfurt"), c("Dusseldorf"), c("Berlin")]);
        edges.extend(chain_edges(&[
            c("Dusseldorf"),
            c("Cologne"),
            c("Frankfurt"),
        ]));
        edges.extend(chain_edges(&[
            c("Dusseldorf"),
            c("Amsterdam"),
            c("Brussels"),
        ]));
        edges.extend(chain_edges(&[c("Berlin"), c("Hamburg")]));
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: germanet,
            class: AsClass::Tier2,
            names: names("GermaNet", germanet),
            region: Some(Continent::Europe),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(germanet, tier1s[1], AsRelationship::CustomerOf);
        eco.graph.add_edge(paneu, germanet, AsRelationship::Peer); // in Frankfurt
    }
    let anchor_mad = Asn(65003);
    let anchor_ber = Asn(65004);
    for (asn, city, provider, brand) in [
        (anchor_mad, c("Madrid"), paneu, "MesetaData"),
        (anchor_ber, c("Berlin"), germanet, "SpreeHost"),
    ] {
        eco.register(SynthAs {
            asn,
            class: AsClass::Stub,
            names: names(brand, asn),
            region: Some(Continent::Europe),
            footprint: vec![city],
            declared_footprint: vec![city],
            internal_edges: Vec::new(),
            rdns_style: RdnsStyle::Opaque,
            mpls: false,
            in_atlas: false,
        });
        eco.graph
            .add_edge(asn, provider, AsRelationship::CustomerOf);
    }

    // ---------------- Figure 6: overlapping US access ISPs ----------------
    // CoastCable (one ASN, 30 US metros) and Spectra (four ASNs, 71 US
    // metros total) with exactly 10 shared metros.
    let us_cities: Vec<usize> = cities
        .iter()
        .filter(|x| x.country == "US")
        .map(|x| x.id)
        .collect();
    assert!(
        us_cities.len() >= 101,
        "need ≥101 US urban areas for Figure 6"
    );
    let shared: Vec<usize> = us_cities[..10].to_vec();
    let cox_only: Vec<usize> = us_cities[10..30].to_vec();
    let charter_only: Vec<usize> = us_cities[30..91].to_vec();

    let coastcable = Asn(64531);
    {
        let mut footprint = shared.clone();
        footprint.extend(&cox_only);
        footprint.sort_unstable();
        eco.register(SynthAs {
            asn: coastcable,
            class: AsClass::Stub,
            names: names("CoastCable", coastcable),
            region: Some(Continent::NorthAmerica),
            footprint: footprint.clone(),
            declared_footprint: footprint,
            internal_edges: Vec::new(),
            rdns_style: RdnsStyle::Opaque,
            mpls: false,
            in_atlas: false,
        });
        eco.graph
            .add_edge(coastcable, tier1s[0], AsRelationship::CustomerOf);
    }
    let spectra = [Asn(64541), Asn(64542), Asn(64543), Asn(64544)];
    {
        // Split 71 metros across the four ASNs: shared 10 on the first,
        // the rest split round-robin.
        let mut buckets: [Vec<usize>; 4] = Default::default();
        buckets[0].extend(&shared);
        for (i, &cid) in charter_only.iter().enumerate() {
            buckets[i % 4].push(cid);
        }
        for (k, asn) in spectra.into_iter().enumerate() {
            let mut footprint = buckets[k].clone();
            footprint.sort_unstable();
            let mut nm = names("Spectra", asn);
            // All four ASNs share one organization (the Figure 6 query
            // groups by organization, not ASN).
            nm.asrank_org = "Spectra Holdings Ltd".to_string();
            nm.pch_org = "Spectra Holdings Ltd".to_string();
            eco.register(SynthAs {
                asn,
                class: AsClass::Stub,
                names: nm,
                region: Some(Continent::NorthAmerica),
                footprint: footprint.clone(),
                declared_footprint: footprint,
                internal_edges: Vec::new(),
                rdns_style: RdnsStyle::None,
                mpls: false,
                in_atlas: false,
            });
            eco.graph
                .add_edge(asn, tier1s[1], AsRelationship::CustomerOf);
        }
    }

    // ---------------- Table 3: undeclared metros via rDNS ----------------
    // GlobeTrans declares only a third of its metros; its GeoCode hostnames
    // give the rest away.
    let globetrans = Asn(64174);
    {
        // A worldwide footprint biased toward real cities.
        let footprint: Vec<usize> = cities
            .iter()
            .filter(|x| !x.synthetic && x.population > 1500)
            .map(|x| x.id)
            .take(60)
            .collect();
        let declared: Vec<usize> = footprint.iter().copied().take(20).collect();
        let edges = {
            let mut e = Vec::new();
            for w in footprint.windows(2) {
                e.push(InternalEdge {
                    a: w[0].min(w[1]),
                    b: w[0].max(w[1]),
                    submarine: true, // conservatively let world.rs re-derive
                });
            }
            e
        };
        eco.register(SynthAs {
            asn: globetrans,
            class: AsClass::Tier2,
            names: names("GlobeTrans", globetrans),
            region: None,
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(globetrans, tier1s[0], AsRelationship::CustomerOf);
        eco.graph
            .add_edge(globetrans, tier1s[1], AsRelationship::CustomerOf);
    }

    // ---------------- Table 3 traffic + Figure 4 backbone ----------------
    // Two stubs single-homed behind GlobeTrans, pinned as anchors by
    // world.rs, so mesh traceroutes traverse its (mostly undeclared) chain.
    let gt_fp = eco
        .get(globetrans)
        .expect("globetrans registered")
        .footprint
        .clone();
    let gt_city_a = gt_fp[gt_fp.len() / 2];
    let gt_city_b = gt_fp[gt_fp.len() - 2];
    let anchor_gt_a = Asn(65005);
    let anchor_gt_b = Asn(65006);
    for (asn, city, brand) in [
        (anchor_gt_a, gt_city_a, "OrbitHost"),
        (anchor_gt_b, gt_city_b, "NimbusServe"),
    ] {
        eco.register(SynthAs {
            asn,
            class: AsClass::Stub,
            names: names(brand, asn),
            region: None,
            footprint: vec![city],
            declared_footprint: vec![city],
            internal_edges: Vec::new(),
            rdns_style: RdnsStyle::Opaque,
            mpls: false,
            in_atlas: false,
        });
        eco.graph
            .add_edge(asn, globetrans, AsRelationship::CustomerOf);
    }

    // ContinentalFiber: footprint and edges are exactly the InterTubes
    // corridor structure, fully declared in Internet Atlas.
    let continental = Asn(64600);
    {
        let mut footprint: Vec<usize> = Vec::new();
        let mut edges: Vec<InternalEdge> = Vec::new();
        for &(a, b) in crate::intertubes::US_CORRIDORS {
            let (ca, cb) = (c(a), c(b));
            for x in [ca, cb] {
                if !footprint.contains(&x) {
                    footprint.push(x);
                }
            }
            edges.push(InternalEdge {
                a: ca.min(cb),
                b: ca.max(cb),
                submarine: false,
            });
        }
        footprint.sort_unstable();
        let declared = footprint.clone();
        eco.register(SynthAs {
            asn: continental,
            class: AsClass::Tier2,
            names: names("ContinentalFiber", continental),
            region: Some(Continent::NorthAmerica),
            footprint,
            declared_footprint: declared,
            internal_edges: edges,
            rdns_style: RdnsStyle::GeoCode,
            mpls: false,
            in_atlas: true,
        });
        eco.graph
            .add_edge(continental, tier1s[0], AsRelationship::CustomerOf);
        eco.graph
            .add_edge(continental, tier1s[1], AsRelationship::CustomerOf);
    }

    Scenarios {
        heartland,
        gulfeast,
        eastcore,
        anchor_kansas_city: (anchor_kc, c("Kansas City")),
        anchor_atlanta: (anchor_atl, c("Atlanta")),
        paneu,
        germanet,
        anchor_madrid: (anchor_mad, c("Madrid")),
        anchor_berlin: (anchor_ber, c("Berlin")),
        coastcable,
        spectra,
        globetrans,
        anchor_globetrans_a: (anchor_gt_a, gt_city_a),
        anchor_globetrans_b: (anchor_gt_b, gt_city_b),
        continental,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ases::{build_ecosystem, AsCounts};
    use crate::cities::build_cities;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (Vec<City>, AsEcosystem, Scenarios) {
        let mut rng = StdRng::seed_from_u64(13);
        let cities = build_cities(700, &mut rng);
        let mut eco = build_ecosystem(
            &cities,
            AsCounts {
                tier1: 4,
                tier2: 10,
                stub: 30,
                content: 3,
            },
            &mut rng,
        );
        let sc = install(&cities, &mut eco);
        (cities, eco, sc)
    }

    #[test]
    fn scenario_ases_registered_with_relationships() {
        let (_, eco, sc) = world();
        for asn in [
            sc.heartland,
            sc.gulfeast,
            sc.eastcore,
            sc.paneu,
            sc.germanet,
            sc.coastcable,
            sc.globetrans,
        ] {
            assert!(eco.get(asn).is_some(), "{asn} not registered");
            assert!(
                !eco.graph.providers(asn).is_empty() || !eco.graph.peers(asn).is_empty(),
                "{asn} unconnected"
            );
        }
    }

    #[test]
    fn fig7_peering_in_dallas() {
        let (cities, eco, sc) = world();
        assert_eq!(
            eco.graph.relationship(sc.heartland, sc.gulfeast),
            Some(AsRelationship::Peer)
        );
        let dallas = city_id(&cities, "Dallas");
        assert!(eco.get(sc.heartland).unwrap().footprint.contains(&dallas));
        assert!(eco.get(sc.gulfeast).unwrap().footprint.contains(&dallas));
        assert!(eco.get(sc.heartland).unwrap().mpls);
        assert!(!eco.get(sc.gulfeast).unwrap().mpls);
    }

    #[test]
    fn fig6_overlap_is_exactly_ten() {
        let (_, eco, sc) = world();
        let cox: std::collections::HashSet<usize> = eco
            .get(sc.coastcable)
            .unwrap()
            .footprint
            .iter()
            .copied()
            .collect();
        let mut charter: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for asn in sc.spectra {
            charter.extend(eco.get(asn).unwrap().footprint.iter().copied());
        }
        assert_eq!(cox.len(), 30);
        assert_eq!(charter.len(), 71);
        assert_eq!(cox.intersection(&charter).count(), 10);
    }

    #[test]
    fn spectra_asns_share_one_org() {
        let (_, eco, sc) = world();
        let orgs: std::collections::HashSet<String> = sc
            .spectra
            .iter()
            .map(|&a| eco.get(a).unwrap().names.asrank_org.clone())
            .collect();
        assert_eq!(orgs.len(), 1);
    }

    #[test]
    fn table3_as_underdeclares() {
        let (_, eco, sc) = world();
        let gt = eco.get(sc.globetrans).unwrap();
        assert!(gt.declared_footprint.len() * 2 < gt.footprint.len());
        assert_eq!(gt.rdns_style, RdnsStyle::GeoCode);
    }

    #[test]
    fn fig9_chain_exists() {
        let (cities, eco, sc) = world();
        let pe = eco.get(sc.paneu).unwrap();
        let ge = eco.get(sc.germanet).unwrap();
        let ff = city_id(&cities, "Frankfurt");
        assert!(pe.footprint.contains(&ff));
        assert!(ge.footprint.contains(&ff));
        assert_eq!(
            eco.graph.relationship(sc.paneu, sc.germanet),
            Some(AsRelationship::Peer)
        );
    }
}
