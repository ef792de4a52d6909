//! Deterministic snapshot *deltas* — the churn feeds look like in the wild.
//!
//! Delta ingestion (ROADMAP item 2) is only testable if we can mutate a
//! snapshot the way real feeds churn — nodes appearing and decaying in the
//! Internet Atlas, facilities opening and closing in PeeringDB, traceroute
//! meshes refreshing, whole metros entering or leaving the standardization
//! catalogue — *reproducibly*. [`generate_delta`] takes a seed and a list
//! of [`DeltaClass`]es, derives a **new** snapshot set from a base one (the
//! base is untouched — an old epoch keeps reading it), and returns a ledger
//! of exactly what changed where, in [`igdb_fault::SourceId`] vocabulary,
//! so a property test can demand that diffing the two sets accounts for
//! every entry. The pattern deliberately mirrors `faults.rs`: seeded
//! `StdRng`, classes applied in the order given, never over-claiming.
//!
//! Guarantees:
//! * Same seed + same classes ⇒ identical delta.
//! * All record references stay internally consistent: removing an Atlas
//!   node drops its links, removing a facility drops its netfac rows, and
//!   removing a metro cascades through every index-based reference
//!   (`roads`, `geo_codes`) exactly the way the validator's remap expects.
//! * A class whose source has too few records to operate on is skipped
//!   *without* a ledger entry.

use rand::{rngs::StdRng, Rng, SeedableRng};

use igdb_fault::SourceId;
use igdb_geo::GeoPoint;

use crate::sources::{
    AtlasLink, AtlasNode, NaturalEarthPlace, PdbFacility, RipeTraceroute, SnapshotSet,
};

/// One flavor of feed churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaClass {
    /// No change at all — the apply path must still produce a new epoch
    /// byte-identical to a rebuild of the same inputs.
    Empty,
    /// Internet Atlas churn: PoPs decay out, new PoPs appear, one node's
    /// surveyed coordinates shift.
    AtlasChurn,
    /// Removal-only Atlas link decay — the case where cached corridors
    /// avoiding the touched metros remain provably canonical.
    AtlasPrune,
    /// PeeringDB facility churn: one opens, one closes (cascading its
    /// netfac presences), one is re-surveyed.
    FacilityChurn,
    /// RIPE mesh refresh: measurements age out, new pairs appear, RTTs
    /// jitter.
    TracerouteChurn,
    /// Logical-layer churn: AS Rank org renames, peering links appearing
    /// and disappearing.
    LogicalChurn,
    /// Right-of-way edits: segments close, one is re-measured.
    RoadChurn,
    /// New metros appended to the standardization catalogue (existing
    /// metro ids keep their slots).
    MetroAdd,
    /// A metro leaves the catalogue: every later index shifts down one,
    /// cascading through `roads` endpoints and `geo_codes` (the full
    /// FK-remap path; forces rebuilding from the metros stage).
    MetroRemove,
    /// A field bump on *every* populated place — the delta that touches
    /// every metro at once.
    EveryMetro,
}

impl DeltaClass {
    /// Every class, in a fixed order (for exhaustive property tests).
    pub const ALL: [DeltaClass; 10] = [
        DeltaClass::Empty,
        DeltaClass::AtlasChurn,
        DeltaClass::AtlasPrune,
        DeltaClass::FacilityChurn,
        DeltaClass::TracerouteChurn,
        DeltaClass::LogicalChurn,
        DeltaClass::RoadChurn,
        DeltaClass::MetroAdd,
        DeltaClass::MetroRemove,
        DeltaClass::EveryMetro,
    ];
}

/// What one ledger entry did to a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    Added,
    Removed,
    Mutated,
}

/// One ledger entry: what changed, where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaOp {
    pub class: DeltaClass,
    pub source: SourceId,
    pub kind: DeltaKind,
    /// Natural key or index of the touched record, for the accounting
    /// tests (`fac:17`, `metro:42`, `trace:3->9`, …).
    pub key: String,
}

fn op(
    ledger: &mut Vec<DeltaOp>,
    class: DeltaClass,
    source: SourceId,
    kind: DeltaKind,
    key: impl Into<String>,
) {
    ledger.push(DeltaOp {
        class,
        source,
        kind,
        key: key.into(),
    });
}

/// Picks 1–3 distinct indices in `0..len`, sorted descending (safe to
/// `Vec::remove` in order). Empty when the source has no records.
fn pick_desc(rng: &mut StdRng, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let n = rng.gen_range(1..=3usize).min(len);
    let mut picked: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    while picked.len() < n {
        picked.insert(rng.gen_range(0..len));
    }
    picked.into_iter().rev().collect()
}

/// Derives a churned snapshot set from `base` by applying `classes` in
/// order, driven by `seed`. The base set is untouched. The returned ledger
/// records every change made. The `as_of_date` is preserved: a delta
/// models source-side churn/corrections within one collection epoch, so
/// the rebuild target for the determinism contract is simply a full build
/// of the returned set.
pub fn generate_delta(
    base: &SnapshotSet,
    seed: u64,
    classes: &[DeltaClass],
) -> (SnapshotSet, Vec<DeltaOp>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snaps = base.clone();
    let mut ledger: Vec<DeltaOp> = Vec::new();

    for &class in classes {
        match class {
            DeltaClass::Empty => {}
            DeltaClass::AtlasChurn => atlas_churn(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::AtlasPrune => atlas_prune(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::FacilityChurn => facility_churn(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::TracerouteChurn => traceroute_churn(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::LogicalChurn => logical_churn(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::RoadChurn => road_churn(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::MetroAdd => metro_add(&mut snaps, &mut rng, &mut ledger, seed),
            DeltaClass::MetroRemove => metro_remove(&mut snaps, &mut rng, &mut ledger),
            DeltaClass::EveryMetro => every_metro(&mut snaps, &mut ledger),
        }
    }
    (snaps, ledger)
}

fn atlas_churn(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::AtlasChurn;
    // Decay: remove nodes and their links.
    for i in pick_desc(rng, snaps.atlas_nodes.len()) {
        let gone = snaps.atlas_nodes.remove(i);
        let before = snaps.atlas_links.len();
        snaps
            .atlas_links
            .retain(|l| l.from_node != gone.node_name && l.to_node != gone.node_name);
        for _ in 0..before - snaps.atlas_links.len() {
            op(
                ledger,
                class,
                SourceId::AtlasLinks,
                DeltaKind::Removed,
                &gone.node_name,
            );
        }
        op(
            ledger,
            class,
            SourceId::AtlasNodes,
            DeltaKind::Removed,
            &gone.node_name,
        );
    }
    // Re-survey: shift one surviving node's coordinates slightly.
    if !snaps.atlas_nodes.is_empty() {
        let i = rng.gen_range(0..snaps.atlas_nodes.len());
        let n = &mut snaps.atlas_nodes[i];
        n.loc = GeoPoint::new(n.loc.lon + 0.02, n.loc.lat - 0.015);
        op(
            ledger,
            class,
            SourceId::AtlasNodes,
            DeltaKind::Mutated,
            &n.node_name,
        );
    }
    // Growth: a new PoP near an existing one, linked to it.
    if let Some(anchor) = snaps.atlas_nodes.first().cloned() {
        let name = format!("{} delta-PoP {}", anchor.network, snaps.atlas_nodes.len());
        snaps.atlas_nodes.push(AtlasNode {
            network: anchor.network.clone(),
            node_name: name.clone().into(),
            city_label: anchor.city_label.clone(),
            country: anchor.country.clone(),
            loc: GeoPoint::new(anchor.loc.lon + 0.05, anchor.loc.lat + 0.05),
        });
        op(ledger, class, SourceId::AtlasNodes, DeltaKind::Added, &name);
        if let Some(link_type) = snaps.atlas_links.first().map(|l| l.link_type) {
            snaps.atlas_links.push(AtlasLink {
                network: anchor.network,
                from_node: anchor.node_name,
                to_node: name.clone().into(),
                link_type,
            });
            op(ledger, class, SourceId::AtlasLinks, DeltaKind::Added, &name);
        }
    }
}

fn atlas_prune(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    for i in pick_desc(rng, snaps.atlas_links.len()) {
        let gone = snaps.atlas_links.remove(i);
        op(
            ledger,
            DeltaClass::AtlasPrune,
            SourceId::AtlasLinks,
            DeltaKind::Removed,
            format!("{}->{}", gone.from_node, gone.to_node),
        );
    }
}

fn facility_churn(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::FacilityChurn;
    // Closure: remove one facility and cascade its presences.
    if !snaps.pdb_facilities.is_empty() {
        let i = rng.gen_range(0..snaps.pdb_facilities.len());
        let gone = snaps.pdb_facilities.remove(i);
        let before = snaps.pdb_netfac.len();
        snaps.pdb_netfac.retain(|nf| nf.fac_id != gone.fac_id);
        for _ in 0..before - snaps.pdb_netfac.len() {
            op(
                ledger,
                class,
                SourceId::PdbNetfac,
                DeltaKind::Removed,
                format!("fac:{}", gone.fac_id),
            );
        }
        op(
            ledger,
            class,
            SourceId::PdbFacilities,
            DeltaKind::Removed,
            format!("fac:{}", gone.fac_id),
        );
    }
    // Re-survey.
    if !snaps.pdb_facilities.is_empty() {
        let i = rng.gen_range(0..snaps.pdb_facilities.len());
        let f = &mut snaps.pdb_facilities[i];
        f.loc = GeoPoint::new(f.loc.lon - 0.03, f.loc.lat + 0.01);
        op(
            ledger,
            class,
            SourceId::PdbFacilities,
            DeltaKind::Mutated,
            format!("fac:{}", f.fac_id),
        );
    }
    // Opening: a new facility next to an existing one.
    if let Some(anchor) = snaps.pdb_facilities.first().cloned() {
        let new_id = snaps
            .pdb_facilities
            .iter()
            .map(|f| f.fac_id)
            .max()
            .unwrap_or(0)
            + 1;
        snaps.pdb_facilities.push(PdbFacility {
            fac_id: new_id,
            name: format!("{} Annex", anchor.name),
            city_label: anchor.city_label,
            country: anchor.country,
            loc: GeoPoint::new(anchor.loc.lon + 0.01, anchor.loc.lat + 0.02),
        });
        op(
            ledger,
            class,
            SourceId::PdbFacilities,
            DeltaKind::Added,
            format!("fac:{new_id}"),
        );
    }
}

fn traceroute_churn(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::TracerouteChurn;
    for i in pick_desc(rng, snaps.ripe_traceroutes.len()) {
        let gone = snaps.ripe_traceroutes.remove(i);
        op(
            ledger,
            class,
            SourceId::RipeTraceroutes,
            DeltaKind::Removed,
            format!("trace:{}->{}", gone.src_anchor, gone.dst_anchor),
        );
    }
    // RTT jitter on a surviving measurement.
    if !snaps.ripe_traceroutes.is_empty() {
        let i = rng.gen_range(0..snaps.ripe_traceroutes.len());
        let t = &mut snaps.ripe_traceroutes[i];
        for hop in &mut t.hops {
            hop.rtt_ms += 0.125;
        }
        op(
            ledger,
            class,
            SourceId::RipeTraceroutes,
            DeltaKind::Mutated,
            format!("trace:{}->{}", t.src_anchor, t.dst_anchor),
        );
    }
    // A fresh measurement: reverse of an existing one (anchors stay valid).
    if let Some(t) = snaps.ripe_traceroutes.first().cloned() {
        let rev = RipeTraceroute {
            src_anchor: t.dst_anchor,
            dst_anchor: t.src_anchor,
            hops: t.hops.iter().rev().copied().collect(),
        };
        let key = format!("trace:{}->{}", rev.src_anchor, rev.dst_anchor);
        snaps.ripe_traceroutes.push(rev);
        op(
            ledger,
            class,
            SourceId::RipeTraceroutes,
            DeltaKind::Added,
            key,
        );
    }
}

fn logical_churn(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::LogicalChurn;
    // WHOIS org rename.
    if !snaps.asrank_entries.is_empty() {
        let i = rng.gen_range(0..snaps.asrank_entries.len());
        let e = &mut snaps.asrank_entries[i];
        e.org = format!("{} Holdings", e.org);
        op(
            ledger,
            class,
            SourceId::AsRankEntries,
            DeltaKind::Mutated,
            format!("as:{}", e.asn),
        );
    }
    // A peering link disappears from the collectors…
    if !snaps.asrank_links.is_empty() {
        let i = rng.gen_range(0..snaps.asrank_links.len());
        let (a, b) = snaps.asrank_links.remove(i);
        op(
            ledger,
            class,
            SourceId::AsRankLinks,
            DeltaKind::Removed,
            format!("{a}-{b}"),
        );
    }
    // …and a new one appears between known ASes.
    if snaps.asrank_entries.len() >= 2 {
        let a = snaps.asrank_entries[0].asn;
        let b = snaps.asrank_entries[snaps.asrank_entries.len() - 1].asn;
        if a != b
            && !snaps
                .asrank_links
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        {
            snaps.asrank_links.push((a, b));
            op(
                ledger,
                class,
                SourceId::AsRankLinks,
                DeltaKind::Added,
                format!("{a}-{b}"),
            );
        }
    }
}

fn road_churn(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::RoadChurn;
    for i in pick_desc(rng, snaps.roads.len().saturating_sub(1)) {
        let gone = snaps.roads.remove(i);
        op(
            ledger,
            class,
            SourceId::Roads,
            DeltaKind::Removed,
            format!("road:{}-{}", gone.a, gone.b),
        );
    }
    // Re-measured segment (stays positive).
    if !snaps.roads.is_empty() {
        let i = rng.gen_range(0..snaps.roads.len());
        let r = &mut snaps.roads[i];
        r.length_km *= 1.05;
        op(
            ledger,
            class,
            SourceId::Roads,
            DeltaKind::Mutated,
            format!("road:{}-{}", r.a, r.b),
        );
    }
}

fn metro_add(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>, seed: u64) {
    let class = DeltaClass::MetroAdd;
    let Some(anchor) = snaps.natural_earth.first().cloned() else {
        return;
    };
    let n_new = rng.gen_range(1..=2usize);
    for k in 0..n_new {
        let id = snaps.natural_earth.len();
        let name = format!("Deltaville{seed}x{k}");
        snaps.natural_earth.push(NaturalEarthPlace {
            name: name.clone(),
            state: anchor.state.clone(),
            country: anchor.country.clone(),
            // Offset enough that the new site wins its own Thiessen cell
            // without stealing an existing metro's anchor points.
            loc: GeoPoint::new(anchor.loc.lon + 1.5 + k as f64 * 0.7, anchor.loc.lat - 1.1),
            population: 10_000 + k as u32,
        });
        op(
            ledger,
            class,
            SourceId::NaturalEarth,
            DeltaKind::Added,
            &name,
        );
        snaps.geo_codes.push((format!("D{seed}{k}"), id));
        op(
            ledger,
            class,
            SourceId::GeoCodes,
            DeltaKind::Added,
            format!("D{seed}{k}"),
        );
    }
}

fn metro_remove(snaps: &mut SnapshotSet, rng: &mut StdRng, ledger: &mut Vec<DeltaOp>) {
    let class = DeltaClass::MetroRemove;
    if snaps.natural_earth.len() < 3 {
        return;
    }
    let m = rng.gen_range(0..snaps.natural_earth.len());
    let gone = snaps.natural_earth.remove(m);
    op(
        ledger,
        class,
        SourceId::NaturalEarth,
        DeltaKind::Removed,
        &gone.name,
    );
    // Cascade through index-based references, the same shape the
    // validator's metro-id remap handles: drop records touching `m`,
    // shift every index above it down one.
    let before = snaps.roads.len();
    snaps.roads.retain(|r| r.a != m && r.b != m);
    for _ in 0..before - snaps.roads.len() {
        op(
            ledger,
            class,
            SourceId::Roads,
            DeltaKind::Removed,
            format!("metro:{m}"),
        );
    }
    for r in &mut snaps.roads {
        if r.a > m {
            r.a -= 1;
        }
        if r.b > m {
            r.b -= 1;
        }
    }
    let before = snaps.geo_codes.len();
    snaps.geo_codes.retain(|(_, idx)| *idx != m);
    for _ in 0..before - snaps.geo_codes.len() {
        op(
            ledger,
            class,
            SourceId::GeoCodes,
            DeltaKind::Removed,
            format!("metro:{m}"),
        );
    }
    for (_, idx) in &mut snaps.geo_codes {
        if *idx > m {
            *idx -= 1;
        }
    }
}

fn every_metro(snaps: &mut SnapshotSet, ledger: &mut Vec<DeltaOp>) {
    for p in &mut snaps.natural_earth {
        p.population = p.population.saturating_add(1);
        op(
            ledger,
            DeltaClass::EveryMetro,
            SourceId::NaturalEarth,
            DeltaKind::Mutated,
            &p.name,
        );
    }
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
    fn same_seed_same_delta() {
        let base = snaps();
        let (a, la) = generate_delta(&base, 11, &DeltaClass::ALL);
        let (b, lb) = generate_delta(&base, 11, &DeltaClass::ALL);
        assert_eq!(la, lb);
        assert!(!la.is_empty());
        assert_eq!(a.natural_earth.len(), b.natural_earth.len());
        assert_eq!(a.atlas_nodes.len(), b.atlas_nodes.len());
        for (x, y) in a.roads.iter().zip(b.roads.iter()) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(x.length_km, y.length_km);
        }
        let (_, lc) = generate_delta(&base, 12, &DeltaClass::ALL);
        assert_ne!(la, lc, "different seeds must differ somewhere");
    }

    #[test]
    fn base_set_is_untouched() {
        let base = snaps();
        let n_nodes = base.atlas_nodes.len();
        let n_metros = base.natural_earth.len();
        let _ = generate_delta(&base, 5, &DeltaClass::ALL);
        assert_eq!(base.atlas_nodes.len(), n_nodes);
        assert_eq!(base.natural_earth.len(), n_metros);
    }

    #[test]
    fn empty_class_changes_nothing() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 7, &[DeltaClass::Empty]);
        assert!(ledger.is_empty());
        assert_eq!(d.atlas_nodes.len(), base.atlas_nodes.len());
        assert_eq!(d.roads.len(), base.roads.len());
        assert_eq!(d.natural_earth.len(), base.natural_earth.len());
    }

    #[test]
    fn atlas_churn_keeps_links_consistent() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 3, &[DeltaClass::AtlasChurn]);
        let names: std::collections::BTreeSet<&str> =
            d.atlas_nodes.iter().map(|n| n.node_name.as_str()).collect();
        for l in &d.atlas_links {
            assert!(
                names.contains(l.from_node.as_str()),
                "dangling from_node {}",
                l.from_node
            );
            assert!(
                names.contains(l.to_node.as_str()),
                "dangling to_node {}",
                l.to_node
            );
        }
        assert!(ledger.iter().any(|o| o.kind == DeltaKind::Removed));
        assert!(ledger.iter().any(|o| o.kind == DeltaKind::Added));
    }

    #[test]
    fn atlas_prune_is_removal_only() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 9, &[DeltaClass::AtlasPrune]);
        assert!(ledger.iter().all(|o| o.kind == DeltaKind::Removed));
        assert!(d.atlas_links.len() < base.atlas_links.len());
        assert_eq!(d.atlas_nodes.len(), base.atlas_nodes.len());
    }

    #[test]
    fn facility_removal_cascades_netfac() {
        let base = snaps();
        let (d, _) = generate_delta(&base, 21, &[DeltaClass::FacilityChurn]);
        let ids: std::collections::BTreeSet<u32> =
            d.pdb_facilities.iter().map(|f| f.fac_id).collect();
        for nf in &d.pdb_netfac {
            assert!(
                ids.contains(&nf.fac_id),
                "netfac points at missing fac {}",
                nf.fac_id
            );
        }
    }

    #[test]
    fn metro_remove_cascades_indexes() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 13, &[DeltaClass::MetroRemove]);
        assert_eq!(d.natural_earth.len(), base.natural_earth.len() - 1);
        let n = d.natural_earth.len();
        for r in &d.roads {
            assert!(
                r.a < n && r.b < n,
                "road endpoint out of range after cascade"
            );
        }
        for (_, idx) in &d.geo_codes {
            assert!(*idx < n, "geo code out of range after cascade");
        }
        assert!(ledger
            .iter()
            .any(|o| o.source == SourceId::NaturalEarth && o.kind == DeltaKind::Removed));
    }

    #[test]
    fn metro_add_appends_without_shifting() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 17, &[DeltaClass::MetroAdd]);
        assert!(d.natural_earth.len() > base.natural_earth.len());
        // Existing slots untouched.
        for (old, new) in base.natural_earth.iter().zip(d.natural_earth.iter()) {
            assert_eq!(old.name, new.name);
        }
        assert!(ledger.iter().all(|o| o.kind == DeltaKind::Added));
    }

    #[test]
    fn every_metro_touches_all() {
        let base = snaps();
        let (d, ledger) = generate_delta(&base, 1, &[DeltaClass::EveryMetro]);
        let touched = ledger
            .iter()
            .filter(|o| o.class == DeltaClass::EveryMetro && o.kind == DeltaKind::Mutated)
            .count();
        assert_eq!(touched, base.natural_earth.len());
        for (old, new) in base.natural_earth.iter().zip(d.natural_earth.iter()) {
            assert_eq!(new.population, old.population + 1);
        }
    }
}
