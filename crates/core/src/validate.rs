//! Snapshot validation: the pre-pass between raw source snapshots and the
//! build pipeline.
//!
//! Real snapshots of the paper's nine sources are routinely broken —
//! truncated rows, NaN coordinates, dangling foreign keys, duplicate ids,
//! whole feeds missing. [`validate`] screens a [`SnapshotSet`] against a
//! [`BuildPolicy`] *before* any table is loaded, so the build proper
//! ([`crate::build`]) only ever sees records that satisfy its invariants
//! (road endpoints in range, parallel arrays aligned, coordinates finite).
//!
//! Design constraints, in priority order:
//!
//! 1. **Clean input is the caller's records, shared.** [`validate`] hands
//!    back a clone of the set it was given, and every source of a
//!    [`SnapshotSet`] is a shared value, so a clean build reads the exact
//!    same records the caller holds and copies nothing. A removal or a
//!    metro-id rewrite copies only the source it edits.
//! 2. **Deterministic.** Screening is a serial pass in a fixed source
//!    order; quarantine order is input order.
//! 3. **Conservative.** A record is quarantined only for defects that
//!    cannot occur in well-formed data (verified against the synthetic
//!    emitters and the real sources' schemas) — never for conditions the
//!    build already tolerates, like a city label that fails to resolve.
//!
//! Quarantining a Natural Earth place is special: metro ids are indexes
//! into that list, so every survivor shifts down and the road-segment
//! endpoints and geocode entries that reference them are rewritten through
//! an old→new remap (references to a quarantined place are themselves
//! quarantined as dangling).

use std::collections::HashSet;

use igdb_db::Str;
use igdb_fault::{
    BuildError, BuildPolicy, BuildReport, Quarantine, RecordError, SourceFailure, SourceHealth,
    SourceId,
};
use igdb_geo::GeoPoint;
use igdb_regex::Regex;
use igdb_synth::sources::{SnapshotSet, Source};

/// Rejects non-finite and out-of-WGS-84 coordinates. Clean emitters go
/// through `GeoPoint::new`, which normalizes into exactly these ranges, so
/// this never fires on well-formed data.
fn screen_point(
    p: &GeoPoint,
    lat_field: &'static str,
    lon_field: &'static str,
) -> Result<(), RecordError> {
    if !p.lat.is_finite() {
        return Err(RecordError::NonFiniteCoordinate { field: lat_field });
    }
    if !p.lon.is_finite() {
        return Err(RecordError::NonFiniteCoordinate { field: lon_field });
    }
    if !(-90.0..=90.0).contains(&p.lat) {
        return Err(RecordError::OutOfRangeCoordinate {
            field: lat_field,
            value: p.lat,
        });
    }
    if !(-180.0..=180.0).contains(&p.lon) {
        return Err(RecordError::OutOfRangeCoordinate {
            field: lon_field,
            value: p.lon,
        });
    }
    Ok(())
}

/// Accumulates per-source health and the quarantine while applying policy,
/// and the screened set: a clone of the caller's, whose sources stay
/// shared with the caller's until a removal edits one.
struct Screener<'p> {
    policy: &'p BuildPolicy,
    quarantine: Quarantine,
    healths: Vec<SourceHealth>,
    out: SnapshotSet,
}

impl<'p> Screener<'p> {
    fn new(snaps: &SnapshotSet, policy: &'p BuildPolicy) -> Self {
        Self {
            policy,
            quarantine: Quarantine::new(),
            healths: Vec::with_capacity(SourceId::ALL.len()),
            out: snaps.clone(),
        }
    }

    /// Screens one source: runs `check` over every record of `rows` (the
    /// caller's copy of the source `field` selects) in input order,
    /// quarantines failures, applies the policy (fail fast / drop source /
    /// required-source errors), records health, and removes what failed
    /// from the screened set. Returns the quarantined indexes, ascending.
    fn screen<T: Clone>(
        &mut self,
        source: SourceId,
        rows: &[T],
        field: fn(&mut SnapshotSet) -> &mut Source<T>,
        key_of: impl Fn(&T) -> Option<String>,
        mut check: impl FnMut(&T) -> Result<(), RecordError>,
    ) -> Result<Vec<usize>, BuildError> {
        let mut bad: Vec<(usize, RecordError)> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            if let Err(error) = check(r) {
                if self.policy.fail_fast {
                    return Err(BuildError::FaultUnderStrictPolicy {
                        source,
                        index: i,
                        error,
                    });
                }
                bad.push((i, error));
            }
        }
        if source.required() && rows.is_empty() {
            return Err(BuildError::RequiredSourceUnusable {
                source,
                failure: SourceFailure::Empty,
            });
        }
        let threshold = self.policy.threshold_for(source);
        let over = !rows.is_empty() && bad.len() as f64 / rows.len() as f64 > threshold;
        if over && source.required() {
            return Err(BuildError::RequiredSourceUnusable {
                source,
                failure: SourceFailure::ExcessiveBadRows {
                    bad: bad.len(),
                    rows: rows.len(),
                    threshold,
                },
            });
        }
        let bad_idx: Vec<usize> = bad.iter().map(|&(i, _)| i).collect();
        let n_bad = bad.len();
        for (i, error) in bad {
            self.quarantine.push(source, i, key_of(&rows[i]), error);
        }
        // Per-source conservation counters: rows_in = accepted + quarantined
        // for every non-dropped source, asserted end-to-end by
        // tests/observability.rs and `BuildReport::crosscheck`.
        igdb_obs::counter("ingest.rows_in", source.name(), rows.len() as u64);
        igdb_obs::counter("ingest.rows_quarantined", source.name(), n_bad as u64);
        if over {
            igdb_obs::counter("ingest.rows_accepted", source.name(), 0);
            igdb_obs::counter("ingest.sources_dropped", "", 1);
            self.healths.push(SourceHealth {
                source,
                rows_in: rows.len(),
                rows_accepted: 0,
                rows_quarantined: n_bad,
                dropped: true,
            });
            *field(&mut self.out) = Vec::new().into();
            return Ok(bad_idx);
        }
        igdb_obs::counter(
            "ingest.rows_accepted",
            source.name(),
            (rows.len() - n_bad) as u64,
        );
        self.healths.push(SourceHealth {
            source,
            rows_in: rows.len(),
            rows_accepted: rows.len() - n_bad,
            rows_quarantined: n_bad,
            dropped: false,
        });
        if n_bad > 0 {
            let (mut i, mut next_bad) = (0, bad_idx.iter().peekable());
            field(&mut self.out).retain(|_| {
                let quarantined = next_bad.next_if_eq(&&i).is_some();
                i += 1;
                !quarantined
            });
        }
        Ok(bad_idx)
    }
}

/// Screens every source of `snaps` in the fixed [`SourceId::ALL`] order.
/// Returns the surviving records plus the per-source accounting, or a
/// typed error when a required source is unusable (or, under a fail-fast
/// policy, on the first fault anywhere). A source shares its records with
/// `snaps` unless screening removed or rewrote one of them.
pub fn validate(
    snaps: &SnapshotSet,
    policy: &BuildPolicy,
) -> Result<(SnapshotSet, BuildReport), BuildError> {
    let _span = igdb_obs::span("validate");
    let mut s = Screener::new(snaps, policy);

    // Natural Earth first: everything else stands on metro ids, which are
    // indexes into this list.
    let bad_places = s.screen(
        SourceId::NaturalEarth,
        &snaps.natural_earth,
        |o| &mut o.natural_earth,
        |p| Some(p.name.clone()),
        |p| screen_point(&p.loc, "lat", "lon"),
    )?;
    // Old→new metro-id remap across the quarantined places. Clean input
    // yields the identity, and the rewrite below is skipped entirely.
    let mut remap: Vec<Option<usize>> = vec![Some(0); snaps.natural_earth.len()];
    for &i in &bad_places {
        remap[i] = None;
    }
    for (new, id) in remap.iter_mut().flatten().enumerate() {
        *id = new;
    }
    let lookup = |idx: usize| remap.get(idx).copied().flatten();

    s.screen(
        SourceId::Roads,
        &snaps.roads,
        |o| &mut o.roads,
        |seg| Some(format!("{}-{}", seg.a, seg.b)),
        |seg| {
            if lookup(seg.a).is_none() {
                return Err(RecordError::DanglingRef {
                    field: "a",
                    key: seg.a.to_string(),
                });
            }
            if lookup(seg.b).is_none() {
                return Err(RecordError::DanglingRef {
                    field: "b",
                    key: seg.b.to_string(),
                });
            }
            if !seg.length_km.is_finite() || seg.length_km <= 0.0 {
                return Err(RecordError::MalformedValue {
                    field: "length_km",
                    detail: seg.length_km.to_string(),
                });
            }
            for p in &seg.path {
                screen_point(p, "path.lat", "path.lon")?;
            }
            Ok(())
        },
    )?;
    s.screen(
        SourceId::GeoCodes,
        &snaps.geo_codes,
        |o| &mut o.geo_codes,
        |(code, _)| Some(code.clone()),
        |&(_, cid)| {
            if lookup(cid).is_none() {
                return Err(RecordError::DanglingRef {
                    field: "city",
                    key: cid.to_string(),
                });
            }
            Ok(())
        },
    )?;
    if !bad_places.is_empty() {
        for seg in &mut s.out.roads {
            seg.a = lookup(seg.a).expect("screened endpoint");
            seg.b = lookup(seg.b).expect("screened endpoint");
        }
        for (_, cid) in &mut s.out.geo_codes {
            *cid = lookup(*cid).expect("screened geocode");
        }
    }

    s.screen(
        SourceId::AtlasNodes,
        &snaps.atlas_nodes,
        |o| &mut o.atlas_nodes,
        |n| Some(n.node_name.to_string()),
        |n| screen_point(&n.loc, "lat", "lon"),
    )?;
    let node_names: HashSet<Str> = s
        .out
        .atlas_nodes
        .iter()
        .map(|n| n.node_name.clone())
        .collect();
    s.screen(
        SourceId::AtlasLinks,
        &snaps.atlas_links,
        |o| &mut o.atlas_links,
        |l| Some(format!("{}→{}", l.from_node, l.to_node)),
        |l| {
            for name in [&l.from_node, &l.to_node] {
                if !node_names.contains(name) {
                    return Err(RecordError::DanglingRef {
                        field: "node",
                        key: name.to_string(),
                    });
                }
            }
            Ok(())
        },
    )?;

    let mut seen_fac: HashSet<u32> = HashSet::new();
    s.screen(
        SourceId::PdbFacilities,
        &snaps.pdb_facilities,
        |o| &mut o.pdb_facilities,
        |f| Some(f.fac_id.to_string()),
        |f| {
            screen_point(&f.loc, "lat", "lon")?;
            if !seen_fac.insert(f.fac_id) {
                return Err(RecordError::DuplicateId {
                    field: "fac_id",
                    key: f.fac_id.to_string(),
                });
            }
            Ok(())
        },
    )?;
    let fac_ids: HashSet<u32> = s.out.pdb_facilities.iter().map(|f| f.fac_id).collect();

    let mut seen_net: HashSet<u32> = HashSet::new();
    s.screen(
        SourceId::PdbNetworks,
        &snaps.pdb_networks,
        |o| &mut o.pdb_networks,
        |n| Some(n.net_id.to_string()),
        |n| {
            if !seen_net.insert(n.net_id) {
                return Err(RecordError::DuplicateId {
                    field: "net_id",
                    key: n.net_id.to_string(),
                });
            }
            Ok(())
        },
    )?;
    let net_ids: HashSet<u32> = s.out.pdb_networks.iter().map(|n| n.net_id).collect();

    s.screen(
        SourceId::PdbNetfac,
        &snaps.pdb_netfac,
        |o| &mut o.pdb_netfac,
        |nf| Some(format!("net {} @ fac {}", nf.net_id, nf.fac_id)),
        |nf| {
            if !net_ids.contains(&nf.net_id) {
                return Err(RecordError::DanglingRef {
                    field: "net_id",
                    key: nf.net_id.to_string(),
                });
            }
            if !fac_ids.contains(&nf.fac_id) {
                return Err(RecordError::DanglingRef {
                    field: "fac_id",
                    key: nf.fac_id.to_string(),
                });
            }
            Ok(())
        },
    )?;

    let mut seen_ix: HashSet<u32> = HashSet::new();
    s.screen(
        SourceId::PdbIx,
        &snaps.pdb_ix,
        |o| &mut o.pdb_ix,
        |ix| Some(ix.ix_id.to_string()),
        |ix| {
            if !seen_ix.insert(ix.ix_id) {
                return Err(RecordError::DuplicateId {
                    field: "ix_id",
                    key: ix.ix_id.to_string(),
                });
            }
            Ok(())
        },
    )?;
    let ix_ids: HashSet<u32> = s.out.pdb_ix.iter().map(|ix| ix.ix_id).collect();

    s.screen(
        SourceId::PdbNetix,
        &snaps.pdb_netix,
        |o| &mut o.pdb_netix,
        |nix| Some(format!("net {} @ ix {}", nix.net_id, nix.ix_id)),
        |nix| {
            if !net_ids.contains(&nix.net_id) {
                return Err(RecordError::DanglingRef {
                    field: "net_id",
                    key: nix.net_id.to_string(),
                });
            }
            if !ix_ids.contains(&nix.ix_id) {
                return Err(RecordError::DanglingRef {
                    field: "ix_id",
                    key: nix.ix_id.to_string(),
                });
            }
            Ok(())
        },
    )?;

    s.screen(
        SourceId::PchIxps,
        &snaps.pch_ixps,
        |o| &mut o.pch_ixps,
        |x| Some(x.name.clone()),
        |x| {
            if x.member_asns.len() != x.member_orgs.len() {
                return Err(RecordError::Truncated {
                    detail: format!(
                        "{} member ASNs vs {} member orgs",
                        x.member_asns.len(),
                        x.member_orgs.len()
                    ),
                });
            }
            Ok(())
        },
    )?;

    // Sources with self-contained typed records: nothing to screen beyond
    // presence (an empty optional source degrades, never errors).
    s.screen(
        SourceId::HeExchanges,
        &snaps.he_exchanges,
        |o| &mut o.he_exchanges,
        |x| Some(x.name.clone()),
        |_| Ok(()),
    )?;
    s.screen(
        SourceId::EuroIx,
        &snaps.euroix,
        |o| &mut o.euroix,
        |x| Some(x.ix_name.clone()),
        |_| Ok(()),
    )?;
    s.screen(
        SourceId::Rdns,
        &snaps.rdns,
        |o| &mut o.rdns,
        |r| Some(r.ip.to_string()),
        |_| Ok(()),
    )?;
    s.screen(
        SourceId::AsRankEntries,
        &snaps.asrank_entries,
        |o| &mut o.asrank_entries,
        |e| Some(e.asn.to_string()),
        |_| Ok(()),
    )?;
    s.screen(
        SourceId::AsRankLinks,
        &snaps.asrank_links,
        |o| &mut o.asrank_links,
        |&(a, b)| Some(format!("{a}→{b}")),
        |_| Ok(()),
    )?;

    let mut seen_anchor: HashSet<u32> = HashSet::new();
    s.screen(
        SourceId::RipeAnchors,
        &snaps.ripe_anchors,
        |o| &mut o.ripe_anchors,
        |a| Some(a.id.to_string()),
        |a| {
            screen_point(&a.loc, "lat", "lon")?;
            if !seen_anchor.insert(a.id) {
                return Err(RecordError::DuplicateId {
                    field: "id",
                    key: a.id.to_string(),
                });
            }
            Ok(())
        },
    )?;
    let anchor_ids: HashSet<u32> = s.out.ripe_anchors.iter().map(|a| a.id).collect();

    s.screen(
        SourceId::RipeTraceroutes,
        &snaps.ripe_traceroutes,
        |o| &mut o.ripe_traceroutes,
        |t| Some(format!("{}→{}", t.src_anchor, t.dst_anchor)),
        |t| {
            if t.hops.is_empty() {
                return Err(RecordError::Truncated {
                    detail: "no hops".to_string(),
                });
            }
            for anchor in [t.src_anchor, t.dst_anchor] {
                if !anchor_ids.contains(&anchor) {
                    return Err(RecordError::DanglingRef {
                        field: "anchor",
                        key: anchor.to_string(),
                    });
                }
            }
            for h in &t.hops {
                if !h.rtt_ms.is_finite() || h.rtt_ms < 0.0 {
                    return Err(RecordError::MalformedValue {
                        field: "rtt_ms",
                        detail: h.rtt_ms.to_string(),
                    });
                }
            }
            Ok(())
        },
    )?;

    let mut seen_cable: HashSet<usize> = HashSet::new();
    s.screen(
        SourceId::Telegeo,
        &snaps.telegeo,
        |o| &mut o.telegeo,
        |c| Some(c.cable_id.to_string()),
        |c| {
            if !seen_cable.insert(c.cable_id) {
                return Err(RecordError::DuplicateId {
                    field: "cable_id",
                    key: c.cable_id.to_string(),
                });
            }
            for (_, _, loc) in &c.landings {
                screen_point(loc, "landing.lat", "landing.lon")?;
            }
            for seg in &c.segments {
                for p in seg {
                    screen_point(p, "segment.lat", "segment.lon")?;
                }
            }
            Ok(())
        },
    )?;

    s.screen(
        SourceId::BgpPrefixes,
        &snaps.bgp_prefixes,
        |o| &mut o.bgp_prefixes,
        |r| Some(r.prefix.to_string()),
        |_| Ok(()),
    )?;
    s.screen(
        SourceId::AnycastPrefixes,
        &snaps.anycast_prefixes,
        |o| &mut o.anycast_prefixes,
        |p| Some(p.to_string()),
        |_| Ok(()),
    )?;
    // A rule the engine cannot compile (or refuses as oversized) would be
    // skipped by `HoihoEngine::build` with no trace; quarantine it here so
    // it carries its index and pattern like any other bad record.
    s.screen(
        SourceId::HoihoRules,
        &snaps.hoiho_rules,
        |o| &mut o.hoiho_rules,
        |r| Some(r.pattern.clone()),
        |r| {
            Regex::new(&r.pattern)
                .map(drop)
                .map_err(|e| RecordError::MalformedValue {
                    field: "pattern",
                    detail: e.to_string(),
                })
        },
    )?;

    Ok((s.out, BuildReport::new(s.healths, s.quarantine)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{shared_sources, SOURCE_USES};
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn snaps() -> SnapshotSet {
        let world = World::generate(WorldConfig::tiny());
        emit_snapshots(&world, "2022-05-03", 50)
    }

    /// Every source but `edited`, in table order.
    fn all_but(edited: &[&str]) -> Vec<&'static str> {
        SOURCE_USES
            .iter()
            .map(|u| u.name)
            .filter(|n| !edited.contains(n))
            .collect()
    }

    #[test]
    fn clean_input_is_borrowed_and_clean() {
        let raw = snaps();
        let (clean, report) = validate(&raw, &BuildPolicy::lenient()).unwrap();
        assert!(report.is_clean(), "clean snapshots quarantined:\n{report}");
        // The caller's own records come back: nothing was copied.
        assert_eq!(shared_sources(&clean, &raw), all_but(&[]));
        for h in report.sources() {
            assert_eq!(h.rows_accepted + h.rows_quarantined, h.rows_in);
        }
        // Strict policy accepts the same clean input.
        validate(&raw, &BuildPolicy::strict()).unwrap();
    }

    #[test]
    fn nan_coordinate_is_quarantined_with_provenance() {
        let mut raw = snaps();
        raw.atlas_nodes[3].loc.lat = f64::NAN;
        let (clean, report) = validate(&raw, &BuildPolicy::lenient()).unwrap();
        assert_eq!(clean.atlas_nodes.len(), raw.atlas_nodes.len() - 1);
        assert!(report.quarantine().contains(SourceId::AtlasNodes, 3));
        assert_eq!(report.health(SourceId::AtlasNodes).rows_quarantined, 1);
        // Strict policy turns the same fault into a typed error.
        let err = validate(&raw, &BuildPolicy::strict()).unwrap_err();
        assert!(matches!(
            err,
            BuildError::FaultUnderStrictPolicy {
                source: SourceId::AtlasNodes,
                index: 3,
                ..
            }
        ));
    }

    #[test]
    fn quarantined_metro_remaps_roads_and_geocodes() {
        let mut raw = snaps();
        raw.natural_earth[0].loc.lon = f64::INFINITY;
        let (clean, report) = validate(&raw, &BuildPolicy::lenient()).unwrap();
        // The remap copies exactly the sources it edits.
        assert_eq!(
            shared_sources(&clean, &raw),
            all_but(&["natural_earth", "roads", "geo_codes"])
        );
        assert_eq!(clean.natural_earth.len(), raw.natural_earth.len() - 1);
        assert!(report.quarantine().contains(SourceId::NaturalEarth, 0));
        // Every surviving road endpoint and geocode is in range after the
        // remap, and references the same place it did before.
        for seg in clean.roads.iter() {
            assert!(seg.a < clean.natural_earth.len());
            assert!(seg.b < clean.natural_earth.len());
        }
        for &(_, cid) in clean.geo_codes.iter() {
            assert!(cid < clean.natural_earth.len());
        }
        let raw_cid: std::collections::HashMap<&str, usize> = raw
            .geo_codes
            .iter()
            .map(|(c, i)| (c.as_str(), *i))
            .collect();
        for (code, new_cid) in clean.geo_codes.iter() {
            let old_cid = raw_cid[code.as_str()];
            assert_eq!(
                raw.natural_earth[old_cid].name,
                clean.natural_earth[*new_cid].name
            );
        }
    }

    #[test]
    fn empty_required_source_is_a_typed_error() {
        let mut raw = snaps();
        raw.natural_earth.clear();
        let err = validate(&raw, &BuildPolicy::lenient()).unwrap_err();
        assert_eq!(
            err,
            BuildError::RequiredSourceUnusable {
                source: SourceId::NaturalEarth,
                failure: SourceFailure::Empty,
            }
        );
    }

    #[test]
    fn excessively_bad_optional_source_is_dropped() {
        let mut raw = snaps();
        for nf in raw.pdb_netfac.iter_mut() {
            nf.fac_id = 9_000_000; // dangle almost every row
        }
        let (clean, report) = validate(&raw, &BuildPolicy::lenient()).unwrap();
        assert!(clean.pdb_netfac.is_empty());
        let h = report.health(SourceId::PdbNetfac);
        assert!(h.dropped);
        assert_eq!(h.rows_accepted, 0);
        assert!(report.dropped_sources().contains(&SourceId::PdbNetfac));
    }

    #[test]
    fn mismatched_pch_member_arrays_are_truncated_records() {
        let mut raw = snaps();
        raw.pch_ixps[0].member_orgs.pop();
        let (_, report) = validate(&raw, &BuildPolicy::lenient()).unwrap();
        assert!(report.quarantine().contains(SourceId::PchIxps, 0));
        assert!(matches!(
            report.quarantine().records()[0].error,
            RecordError::Truncated { .. }
        ));
    }
}
