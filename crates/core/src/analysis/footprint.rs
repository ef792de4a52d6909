//! §4.1 — Identifying AS spatial extent.
//!
//! Two queries: the Table 2 ranking (ASes with physical presence in the
//! most countries) and the Figure 6 overlap of two access ISPs' metro
//! footprints, resolved through organization names exactly as the paper
//! does ("We first execute a SQL query in iGDB to identify the ASNs
//! associated with the two organizations").

use igdb_db::{Aggregate, Predicate, Query, Value};
use igdb_net::Asn;

use crate::build::Igdb;

/// One row of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct CountryPresenceRow {
    pub asn: Asn,
    pub as_name: String,
    pub organization: String,
    pub countries: usize,
}

/// ASes with physical presence in the most countries (Table 2).
/// `limit` bounds the rows returned (the paper prints 11).
pub fn top_by_countries(igdb: &Igdb, limit: usize) -> Vec<CountryPresenceRow> {
    let _span = igdb_obs::span("analysis.footprint");
    igdb_obs::counter("analysis.queries", "footprint", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "footprint");
    // GROUP BY asn, COUNT(DISTINCT country) over asn_loc — non-inferred
    // rows only, matching the paper's baseline footprints.
    let groups = igdb
        .db
        .with_table("asn_loc", |t| {
            Query::new(t)
                .filter(Predicate::Eq("inferred".into(), Value::Bool(false)))
                .group_by(
                    vec!["asn"],
                    vec![Aggregate::CountDistinct("country".into())],
                )
        })
        .expect("asn_loc exists")
        .expect("valid group-by");
    let mut ranked: Vec<(Asn, usize)> = groups
        .into_iter()
        .filter_map(|row| Some((Asn(row[0].as_int()? as u32), row[1].as_int()? as usize)))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(limit)
        .map(|(asn, countries)| CountryPresenceRow {
            asn,
            as_name: first_name(igdb, asn, "asn_name"),
            organization: first_name(igdb, asn, "asn_org"),
            countries,
        })
        .collect()
}

fn first_name(igdb: &Igdb, asn: Asn, table: &str) -> String {
    igdb.db
        .with_table(table, |t| {
            // Prefer the ASRank (WHOIS) spelling, else any. The asn
            // column is indexed at build time, so this borrows the
            // posting list instead of materializing id vectors per probe.
            let ids = t.lookup_ids("asn", &Value::from(asn.0)).unwrap_or_default();
            let mut any = String::new();
            for &id in ids {
                let row = t.row(id as usize).unwrap();
                let name = row[1].as_text().unwrap_or("").to_string();
                let source = row[2].as_text().unwrap_or("");
                if source == "asrank" {
                    return name;
                }
                if any.is_empty() {
                    any = name;
                }
            }
            any
        })
        .unwrap_or_default()
}

/// The Figure 6 overlap report.
#[derive(Clone, Debug)]
pub struct OverlapReport {
    pub org_a: String,
    pub org_b: String,
    pub asns_a: Vec<Asn>,
    pub asns_b: Vec<Asn>,
    /// Distinct metro ids where each org peers, and the intersection.
    pub metros_a: Vec<usize>,
    pub metros_b: Vec<usize>,
    pub shared: Vec<usize>,
}

/// Computes the geographic overlap of two organizations (Figure 6).
pub fn org_overlap(igdb: &Igdb, org_a: &str, org_b: &str) -> OverlapReport {
    let _span = igdb_obs::span("analysis.footprint.overlap");
    igdb_obs::counter("analysis.queries", "footprint.overlap", 1);
    let _t = igdb_obs::hist_timer("analysis.query_us", "footprint.overlap");
    let asns_a = igdb.asns_of_org(org_a);
    let asns_b = igdb.asns_of_org(org_b);
    let metros = |asns: &[Asn]| -> Vec<usize> {
        let mut v: Vec<usize> = asns.iter().flat_map(|&a| igdb.metros_of_asn(a)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let metros_a = metros(&asns_a);
    let metros_b = metros(&asns_b);
    let set_b: std::collections::HashSet<usize> = metros_b.iter().copied().collect();
    let shared: Vec<usize> = metros_a
        .iter()
        .copied()
        .filter(|m| set_b.contains(m))
        .collect();
    OverlapReport {
        org_a: org_a.to_string(),
        org_b: org_b.to_string(),
        asns_a,
        asns_b,
        metros_a,
        metros_b,
        shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn built() -> (World, Igdb) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 200);
        let igdb = Igdb::build(&snaps);
        (world, igdb)
    }

    #[test]
    fn table2_ranking_descends_and_resolves_names() {
        let (_, igdb) = built();
        let rows = top_by_countries(&igdb, 11);
        assert_eq!(rows.len(), 11);
        for w in rows.windows(2) {
            assert!(w[0].countries >= w[1].countries);
        }
        assert!(
            rows[0].countries >= 5,
            "top AS in only {} countries",
            rows[0].countries
        );
        assert!(!rows[0].as_name.is_empty());
        assert!(!rows[0].organization.is_empty());
    }

    #[test]
    fn table2_topped_by_global_footprint_classes() {
        let (world, igdb) = built();
        let rows = top_by_countries(&igdb, 8);
        // Most of the top-8 should be tier-1 or content networks (the
        // Cloudflare/Microsoft class of the real Table 2).
        let global = rows
            .iter()
            .filter(|r| {
                world
                    .eco
                    .get(r.asn)
                    .map(|a| {
                        matches!(
                            a.class,
                            igdb_synth::AsClass::Tier1 | igdb_synth::AsClass::Content
                        ) || a.region.is_none()
                    })
                    .unwrap_or(false)
            })
            .count();
        assert!(global * 2 >= rows.len(), "{global}/{} global", rows.len());
    }

    #[test]
    fn fig6_overlap_counts_match_scenario() {
        let (_, igdb) = built();
        let report = org_overlap(&igdb, "CoastCable", "Spectra Holdings");
        assert_eq!(report.asns_a.len(), 1);
        assert_eq!(report.asns_b.len(), 4);
        // Declared presence flows through PeeringDB netfac. Facility
        // coordinates carry source jitter, so a footprint city can
        // occasionally standardize to an adjacent town's cell — the
        // counts sit in a ±2 band around the scenario's 30/71/10.
        assert!(
            (29..=32).contains(&report.metros_a.len()),
            "{}",
            report.metros_a.len()
        );
        assert!(
            (70..=74).contains(&report.metros_b.len()),
            "{}",
            report.metros_b.len()
        );
        assert!(
            (9..=13).contains(&report.shared.len()),
            "{}",
            report.shared.len()
        );
    }

    #[test]
    fn overlap_is_symmetric() {
        let (_, igdb) = built();
        let ab = org_overlap(&igdb, "CoastCable", "Spectra Holdings");
        let ba = org_overlap(&igdb, "Spectra Holdings", "CoastCable");
        assert_eq!(ab.shared, ba.shared);
    }

    #[test]
    fn unknown_org_yields_empty_report() {
        let (_, igdb) = built();
        let r = org_overlap(&igdb, "No Such Operator", "CoastCable");
        assert!(r.asns_a.is_empty());
        assert!(r.metros_a.is_empty());
        assert!(r.shared.is_empty());
    }
}
