//! Deterministic fault injection for emitted snapshots.
//!
//! The ingestion layer's robustness claims are only testable if we can
//! corrupt a snapshot the way real feeds break — NaN and out-of-range
//! coordinates, dangling foreign keys, duplicate identifiers, truncated
//! parallel arrays, empty feeds — *reproducibly*. [`inject_faults`] takes
//! a seed and a list of [`FaultClass`]es, mutates the snapshot in place,
//! and returns a ledger of exactly what was broken where, in
//! [`igdb_fault::SourceId`] vocabulary, so a property test can demand that
//! the build's quarantine accounts for every entry.
//!
//! Guarantees:
//! * Same seed + same classes ⇒ identical corruption (the only RNG is a
//!   seeded `StdRng`; classes are applied in the order given).
//! * Each record-level class corrupts 1–3 distinct records of its source;
//!   a class whose source has no corruptible records (e.g. emptied by a
//!   preceding [`FaultClass::EmptySource`]) is skipped *without* a ledger
//!   entry, so the ledger never over-claims.
//! * Duplicate-id classes copy record 0's id into a later record, and no
//!   other class touches record 0 of those sources — the *later* record is
//!   the invalid one, matching the validator's first-wins rule.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

use igdb_fault::SourceId;

use crate::sources::SnapshotSet;

/// One way a snapshot can be broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// NaN latitude on a Natural Earth place — exercises the metro-id
    /// remap, since every later metro shifts down one slot.
    NanMetroCoord,
    /// NaN latitude on an Internet Atlas node.
    NanAtlasCoord,
    /// Out-of-range longitude on a PeeringDB facility.
    RangeFacilityCoord,
    /// NaN longitude on a RIPE anchor.
    NanAnchorCoord,
    /// Out-of-range latitude on a cable landing point.
    RangeLandingCoord,
    /// netfac row pointing at a facility id that does not exist.
    DanglingNetfacFacility,
    /// netix row pointing at a network id that does not exist.
    DanglingNetixNetwork,
    /// Atlas link naming a node that does not exist.
    DanglingAtlasLink,
    /// Traceroute claiming a source anchor that does not exist.
    DanglingTraceAnchor,
    /// Road segment with an endpoint beyond the place catalogue.
    DanglingRoadEndpoint,
    /// Geocode entry pointing beyond the place catalogue.
    DanglingGeoCode,
    /// A later facility reusing facility 0's id.
    DuplicateFacilityId,
    /// A later network reusing network 0's id.
    DuplicateNetworkId,
    /// A later anchor reusing anchor 0's id.
    DuplicateAnchorId,
    /// A later cable reusing cable 0's id.
    DuplicateCableId,
    /// PCH member ASN / member org parallel arrays out of step.
    TruncatedPchMembers,
    /// Traceroute with its hop list torn off entirely.
    TruncatedTraceHops,
    /// A hop with a negative RTT.
    NegativeRtt,
    /// Road segment with a NaN length.
    GarbledRoadLength,
    /// The whole source is missing from the snapshot.
    EmptySource(SourceId),
}

impl FaultClass {
    /// Every record-level class (everything except [`FaultClass::EmptySource`]).
    pub const ALL_RECORD_CLASSES: [FaultClass; 19] = [
        FaultClass::NanMetroCoord,
        FaultClass::NanAtlasCoord,
        FaultClass::RangeFacilityCoord,
        FaultClass::NanAnchorCoord,
        FaultClass::RangeLandingCoord,
        FaultClass::DanglingNetfacFacility,
        FaultClass::DanglingNetixNetwork,
        FaultClass::DanglingAtlasLink,
        FaultClass::DanglingTraceAnchor,
        FaultClass::DanglingRoadEndpoint,
        FaultClass::DanglingGeoCode,
        FaultClass::DuplicateFacilityId,
        FaultClass::DuplicateNetworkId,
        FaultClass::DuplicateAnchorId,
        FaultClass::DuplicateCableId,
        FaultClass::TruncatedPchMembers,
        FaultClass::TruncatedTraceHops,
        FaultClass::NegativeRtt,
        FaultClass::GarbledRoadLength,
    ];

    /// The source this class corrupts.
    pub fn source(&self) -> SourceId {
        match self {
            FaultClass::NanMetroCoord => SourceId::NaturalEarth,
            FaultClass::NanAtlasCoord => SourceId::AtlasNodes,
            FaultClass::RangeFacilityCoord | FaultClass::DuplicateFacilityId => {
                SourceId::PdbFacilities
            }
            FaultClass::NanAnchorCoord | FaultClass::DuplicateAnchorId => SourceId::RipeAnchors,
            FaultClass::RangeLandingCoord | FaultClass::DuplicateCableId => SourceId::Telegeo,
            FaultClass::DanglingNetfacFacility => SourceId::PdbNetfac,
            FaultClass::DanglingNetixNetwork => SourceId::PdbNetix,
            FaultClass::DanglingAtlasLink => SourceId::AtlasLinks,
            FaultClass::DanglingTraceAnchor
            | FaultClass::TruncatedTraceHops
            | FaultClass::NegativeRtt => SourceId::RipeTraceroutes,
            FaultClass::DanglingRoadEndpoint | FaultClass::GarbledRoadLength => SourceId::Roads,
            FaultClass::DanglingGeoCode => SourceId::GeoCodes,
            FaultClass::DuplicateNetworkId => SourceId::PdbNetworks,
            FaultClass::TruncatedPchMembers => SourceId::PchIxps,
            FaultClass::EmptySource(s) => *s,
        }
    }
}

/// One ledger entry: what was broken, where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    pub class: FaultClass,
    pub source: SourceId,
    /// Record index within the source; `None` for whole-source faults.
    pub index: Option<usize>,
}

/// Picks 1–3 distinct indices in `lo..len`, sorted. Empty when the range
/// has no room.
fn pick_indices(rng: &mut StdRng, lo: usize, len: usize) -> Vec<usize> {
    if len <= lo {
        return Vec::new();
    }
    let n = rng.gen_range(1..=3usize).min(len - lo);
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    while picked.len() < n {
        picked.insert(rng.gen_range(lo..len));
    }
    picked.into_iter().collect()
}

/// Applies the given fault classes to `snaps` in order, driven by `seed`.
/// Returns the ledger of injected faults. [`FaultClass::EmptySource`]
/// entries are applied before record-level classes so index selection sees
/// the final vector lengths.
pub fn inject_faults(
    snaps: &mut SnapshotSet,
    seed: u64,
    classes: &[FaultClass],
) -> Vec<InjectedFault> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ledger: Vec<InjectedFault> = Vec::new();

    for class in classes {
        let FaultClass::EmptySource(source) = class else {
            continue;
        };
        match source {
            SourceId::NaturalEarth => snaps.natural_earth.clear(),
            SourceId::Roads => snaps.roads.clear(),
            SourceId::GeoCodes => snaps.geo_codes.clear(),
            SourceId::AtlasNodes => snaps.atlas_nodes.clear(),
            SourceId::AtlasLinks => snaps.atlas_links.clear(),
            SourceId::PdbFacilities => snaps.pdb_facilities.clear(),
            SourceId::PdbNetworks => snaps.pdb_networks.clear(),
            SourceId::PdbNetfac => snaps.pdb_netfac.clear(),
            SourceId::PdbIx => snaps.pdb_ix.clear(),
            SourceId::PdbNetix => snaps.pdb_netix.clear(),
            SourceId::PchIxps => snaps.pch_ixps.clear(),
            SourceId::HeExchanges => snaps.he_exchanges.clear(),
            SourceId::EuroIx => snaps.euroix.clear(),
            SourceId::Rdns => snaps.rdns.clear(),
            SourceId::AsRankEntries => snaps.asrank_entries.clear(),
            SourceId::AsRankLinks => snaps.asrank_links.clear(),
            SourceId::RipeAnchors => snaps.ripe_anchors.clear(),
            SourceId::RipeTraceroutes => snaps.ripe_traceroutes.clear(),
            SourceId::Telegeo => snaps.telegeo.clear(),
            SourceId::BgpPrefixes => snaps.bgp_prefixes.clear(),
            SourceId::AnycastPrefixes => snaps.anycast_prefixes.clear(),
            SourceId::HoihoRules => snaps.hoiho_rules.clear(),
        }
        ledger.push(InjectedFault {
            class: *class,
            source: *source,
            index: None,
        });
    }

    for &class in classes {
        let source = class.source();
        let hit = |ledger: &mut Vec<InjectedFault>, index: usize| {
            ledger.push(InjectedFault {
                class,
                source,
                index: Some(index),
            });
        };
        match class {
            FaultClass::EmptySource(_) => {}
            FaultClass::NanMetroCoord => {
                for i in pick_indices(&mut rng, 0, snaps.natural_earth.len()) {
                    snaps.natural_earth[i].loc.lat = f64::NAN;
                    hit(&mut ledger, i);
                }
            }
            FaultClass::NanAtlasCoord => {
                for i in pick_indices(&mut rng, 0, snaps.atlas_nodes.len()) {
                    snaps.atlas_nodes[i].loc.lat = f64::NAN;
                    hit(&mut ledger, i);
                }
            }
            FaultClass::RangeFacilityCoord => {
                // Record 0 is reserved for DuplicateFacilityId's id donor.
                for i in pick_indices(&mut rng, 1, snaps.pdb_facilities.len()) {
                    snaps.pdb_facilities[i].loc.lon = 180.0 + rng.gen_range(1.0..360.0);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::NanAnchorCoord => {
                for i in pick_indices(&mut rng, 1, snaps.ripe_anchors.len()) {
                    snaps.ripe_anchors[i].loc.lon = f64::NAN;
                    hit(&mut ledger, i);
                }
            }
            FaultClass::RangeLandingCoord => {
                for i in pick_indices(&mut rng, 1, snaps.telegeo.len()) {
                    let n_landings = snaps.telegeo[i].landings.len();
                    if n_landings == 0 {
                        continue;
                    }
                    let k = rng.gen_range(0..n_landings);
                    snaps.telegeo[i].landings[k].2.lat = 90.0 + rng.gen_range(1.0..90.0);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingNetfacFacility => {
                for i in pick_indices(&mut rng, 0, snaps.pdb_netfac.len()) {
                    snaps.pdb_netfac[i].fac_id = 9_000_000 + rng.gen_range(0..1000u32);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingNetixNetwork => {
                for i in pick_indices(&mut rng, 0, snaps.pdb_netix.len()) {
                    snaps.pdb_netix[i].net_id = 9_000_000 + rng.gen_range(0..1000u32);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingAtlasLink => {
                for i in pick_indices(&mut rng, 0, snaps.atlas_links.len()) {
                    snaps.atlas_links[i].from_node = format!("ghost-pop-{seed}-{i}").into();
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingTraceAnchor => {
                for i in pick_indices(&mut rng, 0, snaps.ripe_traceroutes.len()) {
                    snaps.ripe_traceroutes[i].src_anchor = 9_000_000 + rng.gen_range(0..1000u32);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingRoadEndpoint => {
                let beyond = snaps.natural_earth.len();
                for i in pick_indices(&mut rng, 0, snaps.roads.len()) {
                    snaps.roads[i].a = beyond + rng.gen_range(0..1000usize);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DanglingGeoCode => {
                let beyond = snaps.natural_earth.len();
                for i in pick_indices(&mut rng, 0, snaps.geo_codes.len()) {
                    snaps.geo_codes[i].1 = beyond + rng.gen_range(0..1000usize);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::DuplicateFacilityId => {
                let donor = snaps.pdb_facilities.first().map(|f| f.fac_id);
                if let Some(id) = donor {
                    for i in pick_indices(&mut rng, 1, snaps.pdb_facilities.len()) {
                        snaps.pdb_facilities[i].fac_id = id;
                        hit(&mut ledger, i);
                    }
                }
            }
            FaultClass::DuplicateNetworkId => {
                let donor = snaps.pdb_networks.first().map(|n| n.net_id);
                if let Some(id) = donor {
                    for i in pick_indices(&mut rng, 1, snaps.pdb_networks.len()) {
                        snaps.pdb_networks[i].net_id = id;
                        hit(&mut ledger, i);
                    }
                }
            }
            FaultClass::DuplicateAnchorId => {
                let donor = snaps.ripe_anchors.first().map(|a| a.id);
                if let Some(id) = donor {
                    for i in pick_indices(&mut rng, 1, snaps.ripe_anchors.len()) {
                        snaps.ripe_anchors[i].id = id;
                        hit(&mut ledger, i);
                    }
                }
            }
            FaultClass::DuplicateCableId => {
                let donor = snaps.telegeo.first().map(|c| c.cable_id);
                if let Some(id) = donor {
                    for i in pick_indices(&mut rng, 1, snaps.telegeo.len()) {
                        snaps.telegeo[i].cable_id = id;
                        hit(&mut ledger, i);
                    }
                }
            }
            FaultClass::TruncatedPchMembers => {
                for i in pick_indices(&mut rng, 0, snaps.pch_ixps.len()) {
                    let x = &mut snaps.pch_ixps[i];
                    if x.member_orgs.pop().is_none() && x.member_asns.pop().is_none() {
                        continue; // both empty: lengths still match
                    }
                    hit(&mut ledger, i);
                }
            }
            FaultClass::TruncatedTraceHops => {
                for i in pick_indices(&mut rng, 0, snaps.ripe_traceroutes.len()) {
                    snaps.ripe_traceroutes[i].hops.clear();
                    hit(&mut ledger, i);
                }
            }
            FaultClass::NegativeRtt => {
                let candidates: Vec<usize> = snaps
                    .ripe_traceroutes
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.hops.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let n = rng.gen_range(1..=3usize).min(candidates.len());
                let mut picked: BTreeSet<usize> = BTreeSet::new();
                while picked.len() < n {
                    picked.insert(candidates[rng.gen_range(0..candidates.len())]);
                }
                for i in picked {
                    let hops = &mut snaps.ripe_traceroutes[i].hops;
                    let k = rng.gen_range(0..hops.len());
                    hops[k].rtt_ms = -1.0 - rng.gen_range(0.0..100.0);
                    hit(&mut ledger, i);
                }
            }
            FaultClass::GarbledRoadLength => {
                for i in pick_indices(&mut rng, 0, snaps.roads.len()) {
                    snaps.roads[i].length_km = f64::NAN;
                    hit(&mut ledger, i);
                }
            }
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit_snapshots, World, WorldConfig};

    fn snaps() -> SnapshotSet {
        let world = World::generate(WorldConfig::tiny());
        emit_snapshots(&world, "2022-05-03", 40)
    }

    #[test]
    fn same_seed_same_faults() {
        let classes = FaultClass::ALL_RECORD_CLASSES;
        let mut a = snaps();
        let mut b = snaps();
        let la = inject_faults(&mut a, 7, &classes);
        let lb = inject_faults(&mut b, 7, &classes);
        assert_eq!(la, lb);
        assert!(!la.is_empty());
        // Spot-check actual corruption equality, not just the ledger.
        for (x, y) in a.roads.iter().zip(b.roads.iter()) {
            assert_eq!(x.a, y.a);
            assert!(x.length_km == y.length_km || (x.length_km.is_nan() && y.length_km.is_nan()));
        }
        let mut c = snaps();
        let lc = inject_faults(&mut c, 8, &classes);
        assert_ne!(la, lc, "different seeds must differ somewhere");
    }

    #[test]
    fn ledger_matches_corruption() {
        let mut s = snaps();
        let before_traces = s.ripe_traceroutes.len();
        let ledger = inject_faults(&mut s, 42, &FaultClass::ALL_RECORD_CLASSES);
        assert_eq!(
            s.ripe_traceroutes.len(),
            before_traces,
            "faults mutate, never resize"
        );
        for f in &ledger {
            assert_eq!(f.source, f.class.source());
            let i = f.index.expect("record classes carry an index");
            match f.class {
                FaultClass::NanMetroCoord => assert!(s.natural_earth[i].loc.lat.is_nan()),
                FaultClass::DanglingRoadEndpoint => assert!(s.roads[i].a >= s.natural_earth.len()),
                FaultClass::TruncatedTraceHops => assert!(s.ripe_traceroutes[i].hops.is_empty()),
                FaultClass::DuplicateFacilityId => {
                    assert_eq!(s.pdb_facilities[i].fac_id, s.pdb_facilities[0].fac_id);
                    assert!(i > 0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn empty_source_applies_before_record_classes() {
        let mut s = snaps();
        let ledger = inject_faults(
            &mut s,
            3,
            &[
                FaultClass::NanAnchorCoord,
                FaultClass::EmptySource(SourceId::RipeAnchors),
            ],
        );
        assert!(s.ripe_anchors.is_empty());
        // The record-level class had nothing to corrupt, so the ledger
        // holds only the whole-source entry.
        assert_eq!(
            ledger,
            vec![InjectedFault {
                class: FaultClass::EmptySource(SourceId::RipeAnchors),
                source: SourceId::RipeAnchors,
                index: None,
            }]
        );
    }
}
