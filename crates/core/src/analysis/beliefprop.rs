//! §4.4 — Inferring geographic information from logical measurements.
//!
//! "We use a simple approach inspired from belief propagation … If the
//! observed differential latency between IP_A and IP_B is less than 2 ms
//! and both IP_A and IP_B are within 30 ms of the host that initiated the
//! traceroute, we infer that IP_A is in the same location as IP_B. … we
//! repeat these inferences in a series of iterations."
//!
//! Seeds are the Hoiho- and IXP-prefix-geolocated addresses from the base
//! build. Each round scans every adjacent responding hop pair, collects
//! same-location votes for unlocated addresses, and commits majority
//! locations. The module also reproduces the paper's two §4.4 evaluations:
//! the count of new `(city, AS)` tuples pushed into `asn_loc`, and the
//! consistency check against Hoiho/IXP locations.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use igdb_net::{Asn, Ip4};

use crate::build::{Igdb, LocationSource};

/// Tunables (paper values as defaults).
#[derive(Clone, Copy, Debug)]
pub struct BeliefPropParams {
    /// Same-metro differential-RTT bound, ms ("2 ms as the boundary
    /// between metropolitan locations").
    pub metro_threshold_ms: f64,
    /// Both hops must be within this RTT of the probe, ms.
    pub probe_rtt_max_ms: f64,
    /// Maximum propagation rounds.
    pub max_iterations: usize,
}

impl Default for BeliefPropParams {
    fn default() -> Self {
        Self {
            metro_threshold_ms: 2.0,
            probe_rtt_max_ms: 30.0,
            max_iterations: 4,
        }
    }
}

/// Result of the propagation.
#[derive(Clone, Debug)]
pub struct BeliefPropReport {
    /// Newly located addresses with their inferred metro, per round.
    pub located_per_round: Vec<usize>,
    /// All new address → metro assignments.
    pub assignments: HashMap<Ip4, usize>,
    /// New `(asn, metro)` tuples not present in the declared `asn_loc`.
    pub new_tuples: Vec<(Asn, usize)>,
    /// Distinct metros among the new tuples.
    pub new_metros: usize,
    /// Distinct ASes among the new tuples.
    pub new_ases: usize,
    /// ASes that previously had *no* location at all.
    pub ases_gaining_first_location: usize,
}

/// Address marker for "not located".
const UNLOCATED: u32 = u32::MAX;

/// The round-invariant structure of the propagation, built once per call:
/// every qualifying adjacent-responding-hop pair occurrence (as indices
/// into an interned address table) plus a CSR incidence index from each
/// address to the pairs it participates in.
///
/// All pair-qualification filters (TTL gap, differential latency, probe
/// RTT, anycast) depend only on the traces and `ip_info`, never on the
/// evolving located set — so the round loop reduces to scanning an *active*
/// subset of this list against the current location array.
struct PairIndex {
    /// Interned addresses, in deterministic first-seen (trace) order.
    addrs: Vec<Ip4>,
    /// Qualifying pair occurrences as `(addr_idx, addr_idx)`; duplicates
    /// preserved (each occurrence is one vote).
    pairs: Vec<(u32, u32)>,
    /// CSR incidence: pair ids incident to address `i` live in
    /// `inc_pairs[inc_off[i]..inc_off[i + 1]]`.
    inc_off: Vec<u32>,
    inc_pairs: Vec<u32>,
    /// Per-address: may this address ever receive a vote? (`!anycast`; a
    /// seed-located address is additionally excluded via the location
    /// array.)
    can_receive: Vec<bool>,
    /// Per-address seed metro (or [`UNLOCATED`]).
    seed_loc: Vec<u32>,
}

impl PairIndex {
    fn build(igdb: &Igdb, params: &BeliefPropParams) -> PairIndex {
        // One pass in trace order: intern each qualifying pair's
        // endpoints as it is found.
        let mut index_of: HashMap<Ip4, u32> = HashMap::new();
        let mut addrs: Vec<Ip4> = Vec::new();
        let mut can_receive: Vec<bool> = Vec::new();
        let mut seed_loc: Vec<u32> = Vec::new();
        // Interns `ip`; also says whether it can ever be voted for
        // (neither anycast nor seeded).
        let mut intern = |ip: Ip4| -> (u32, bool) {
            let i = *index_of.entry(ip).or_insert_with(|| {
                let info = igdb.ip_info.get(&ip);
                addrs.push(ip);
                // Anycast addresses have no single location to infer (§5).
                can_receive.push(!info.map(|i| i.anycast).unwrap_or(false));
                seed_loc.push(
                    info.and_then(|i| i.metro)
                        .map(|m| m as u32)
                        .unwrap_or(UNLOCATED),
                );
                (addrs.len() - 1) as u32
            });
            (i, can_receive[i as usize] && seed_loc[i as usize] == UNLOCATED)
        };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for tr in igdb.traces() {
            // Only TTL-adjacent responding pairs qualify: a gap (star
            // or hidden hop) means the two addresses need not be
            // colocated.
            let mut prev: Option<(Ip4, f64, u8)> = None;
            for h in &tr.hops {
                let Some(ip) = h.ip else { continue };
                let cur = (ip, h.rtt_ms, h.ttl);
                if let Some((ip_a, rtt_a, ttl_a)) = prev {
                    let (ip_b, rtt_b, ttl_b) = cur;
                    // Adjacent, or separated by a single silent hop —
                    // the differential-latency bound still pins them to
                    // one metro, but the gapped form needs a tighter
                    // bound (the hidden router adds its own processing
                    // delay).
                    let gap = ttl_b.saturating_sub(ttl_a);
                    let diff = (rtt_a - rtt_b).abs();
                    if !(gap > 2 || (gap == 2 && diff >= params.metro_threshold_ms / 2.0))
                        && diff < params.metro_threshold_ms
                        && rtt_a < params.probe_rtt_max_ms
                        && rtt_b < params.probe_rtt_max_ms
                    {
                        let (ia, a_recv) = intern(ip_a);
                        let (ib, b_recv) = intern(ip_b);
                        // A pair neither of whose endpoints can ever be
                        // voted for never contributes; drop it so the
                        // round scans stay tight.
                        if a_recv || b_recv {
                            pairs.push((ia, ib));
                        }
                    }
                }
                prev = Some(cur);
            }
        }

        // CSR incidence (counting sort over endpoint addresses).
        let n = addrs.len();
        let mut counts = vec![0u32; n + 1];
        for &(a, b) in &pairs {
            counts[a as usize + 1] += 1;
            if b != a {
                counts[b as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let inc_off = counts.clone();
        let mut cursor = counts;
        let mut inc_pairs = vec![0u32; inc_off[n] as usize];
        for (pid, &(a, b)) in pairs.iter().enumerate() {
            inc_pairs[cursor[a as usize] as usize] = pid as u32;
            cursor[a as usize] += 1;
            if b != a {
                inc_pairs[cursor[b as usize] as usize] = pid as u32;
                cursor[b as usize] += 1;
            }
        }

        PairIndex {
            addrs,
            pairs,
            inc_off,
            inc_pairs,
            can_receive,
            seed_loc,
        }
    }
}

/// Runs the belief propagation. Does not mutate `igdb`; call
/// [`apply_inferences`] to push the tuples into `asn_loc`.
///
/// # Algorithm (output-identical to the per-round rescan)
///
/// The original formulation rescans every trace each round and rebuilds
/// the vote map from scratch against the current located set. Because the
/// located set only grows, round `r`'s vote count for an unlocated address
/// equals the number of qualifying pair occurrences whose partner is
/// located at the start of round `r` — so votes can be accumulated
/// *incrementally*: scan all pairs once against the seeds, then each later
/// round revisit only pairs incident to addresses located in the previous
/// round (the frontier), adding each occurrence's vote exactly when its
/// partner becomes located. Tallies persist across rounds in
/// capacity-retaining buffers; an address whose tally did not change since
/// a failed majority check would fail it again, so only touched addresses
/// are rechecked. Commits walk addresses in ascending interned order.
pub fn propagate(igdb: &Igdb, params: &BeliefPropParams) -> BeliefPropReport {
    let _span = igdb_obs::span("analysis.beliefprop");
    let idx = {
        let _s = igdb_obs::span("analysis.beliefprop.pair_index");
        PairIndex::build(igdb, params)
    };
    let n = idx.addrs.len();

    // Current location per interned address (seeds to start).
    let mut loc: Vec<u32> = idx.seed_loc.clone();
    // Persistent vote tallies: per-address sorted-by-metro (metro, count)
    // pairs. Small per address, so a sorted vec beats a map.
    let mut tally: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    // Round-scoped scratch, cleared (capacity retained) between rounds.
    let mut touched: Vec<bool> = vec![false; n];
    let mut dirty: Vec<u32> = Vec::new();
    let mut frontier_pairs: Vec<u32> = Vec::new();

    let mut assignments: HashMap<Ip4, usize> = HashMap::new();
    let mut located_per_round = Vec::new();

    for round in 0..params.max_iterations {
        let _t = igdb_obs::hist_timer("beliefprop.round_us", "");
        // Round 0 scans every pair against the seeds; later rounds only
        // the pairs incident to the previous round's commits.
        let active: &[u32] = if round == 0 {
            frontier_pairs = (0..idx.pairs.len() as u32).collect();
            &frontier_pairs
        } else {
            &frontier_pairs
        };
        igdb_obs::counter("beliefprop.pairs_scanned", "", active.len() as u64);

        // Vote collection: a located endpoint votes its metro onto an
        // unlocated partner that may receive one.
        dirty.clear();
        for &pid in active {
            let (a, b) = idx.pairs[pid as usize];
            let (la, lb) = (loc[a as usize], loc[b as usize]);
            let (addr, metro) =
                if la != UNLOCATED && lb == UNLOCATED && idx.can_receive[b as usize] {
                    (b, la)
                } else if lb != UNLOCATED && la == UNLOCATED && idx.can_receive[a as usize] {
                    (a, lb)
                } else {
                    continue;
                };
            let t = &mut tally[addr as usize];
            match t.binary_search_by_key(&metro, |&(m, _)| m) {
                Ok(i) => t[i].1 += 1,
                Err(i) => t.insert(i, (metro, 1)),
            }
            if !touched[addr as usize] {
                touched[addr as usize] = true;
                dirty.push(addr);
            }
        }

        // Commit locations with a strict two-thirds majority — single
        // noisy observations must not seed further propagation. Walk the
        // touched addresses in ascending interned order (deterministic;
        // commits are independent, so order affects nothing but is pinned
        // anyway).
        dirty.sort_unstable();
        let mut committed_addrs: Vec<u32> = Vec::new();
        for &addr in &dirty {
            touched[addr as usize] = false;
            let t = &tally[addr as usize];
            let total: u32 = t.iter().map(|&(_, c)| c).sum();
            // Max count, ties to the smallest metro: the tally is sorted
            // by metro, so the first strict maximum wins.
            let Some(&(metro, best)) = t.iter().max_by_key(|&&(m, c)| (c, std::cmp::Reverse(m)))
            else {
                continue;
            };
            if 3 * best >= 2 * total {
                committed_addrs.push(addr);
                loc[addr as usize] = metro;
                assignments.insert(idx.addrs[addr as usize], metro as usize);
            }
        }
        // Located addresses stop tallying; release their buffers.
        for &addr in &committed_addrs {
            tally[addr as usize] = Vec::new();
        }

        located_per_round.push(committed_addrs.len());
        if committed_addrs.is_empty() {
            break;
        }

        // Next round's frontier: pairs incident to this round's commits,
        // deduplicated (a pair may touch two newly located addresses).
        frontier_pairs = committed_addrs
            .iter()
            .flat_map(|&addr| {
                let (s, e) = (
                    idx.inc_off[addr as usize] as usize,
                    idx.inc_off[addr as usize + 1] as usize,
                );
                idx.inc_pairs[s..e].iter().copied()
            })
            .collect();
        frontier_pairs.sort_unstable();
        frontier_pairs.dedup();
    }

    // New (asn, metro) tuples.
    let mut new_tuples: BTreeSet<(Asn, usize)> = BTreeSet::new();
    for (&ip, &metro) in &assignments {
        let Some(asn) = igdb.ip_info.get(&ip).and_then(|i| i.asn) else {
            continue;
        };
        if !igdb.metros_of_asn(asn).contains(&metro) {
            new_tuples.insert((asn, metro));
        }
    }
    let new_metros = new_tuples
        .iter()
        .map(|&(_, m)| m)
        .collect::<BTreeSet<_>>()
        .len();
    let involved: BTreeSet<Asn> = new_tuples.iter().map(|&(a, _)| a).collect();
    let new_ases = involved.len();
    let ases_gaining_first_location = involved
        .iter()
        .filter(|&&a| igdb.metros_of_asn(a).is_empty())
        .count();
    igdb_obs::counter("beliefprop.assignments", "", assignments.len() as u64);
    igdb_obs::counter("beliefprop.new_tuples", "", new_tuples.len() as u64);
    BeliefPropReport {
        located_per_round,
        assignments,
        new_tuples: new_tuples.into_iter().collect(),
        new_metros,
        new_ases,
        ases_gaining_first_location,
    }
}

/// Pushes the report's tuples into `asn_loc`, tagged `inferred = true`.
pub fn apply_inferences(igdb: &mut Igdb, report: &BeliefPropReport) -> usize {
    for &(asn, metro) in &report.new_tuples {
        igdb.add_inferred_location(asn, metro);
    }
    report.new_tuples.len()
}

/// The §4.4 consistency check: for every *seeded* address, what would its
/// neighbours have concluded? Compares the neighbour-majority metro with
/// the seed's own (Hoiho or IXP) metro. Paper: "86% of the output from
/// belief propagation results in recovering the same metro area."
#[derive(Clone, Copy, Debug)]
pub struct ConsistencyReport {
    pub comparable: usize,
    pub agreeing: usize,
}

impl ConsistencyReport {
    pub fn agreement(&self) -> f64 {
        if self.comparable == 0 {
            0.0
        } else {
            self.agreeing as f64 / self.comparable as f64
        }
    }
}

/// Runs the hold-one-out consistency evaluation over seeded addresses.
pub fn consistency_check(igdb: &Igdb, params: &BeliefPropParams) -> ConsistencyReport {
    let _span = igdb_obs::span("analysis.beliefprop.consistency");
    // Final located set (seeds only — one round of neighbour votes tells
    // us what propagation *would* say about each seed).
    let located: HashMap<Ip4, usize> = igdb
        .ip_info
        .iter()
        .filter_map(|(&ip, info)| Some((ip, info.metro?)))
        .collect();
    // Neighbour votes for every address, excluding its own seed
    // (rolling previous-hop, no per-trace allocation).
    let mut votes: HashMap<Ip4, HashMap<usize, usize>> = HashMap::new();
    for tr in igdb.traces() {
        let mut prev: Option<(Ip4, f64, u8)> = None;
        for h in &tr.hops {
            let Some(ip) = h.ip else { continue };
            let cur = (ip, h.rtt_ms, h.ttl);
            if let Some((ip_a, rtt_a, ttl_a)) = prev {
                let (ip_b, rtt_b, ttl_b) = cur;
                if ttl_b == ttl_a + 1
                    && (rtt_a - rtt_b).abs() < params.metro_threshold_ms
                    && rtt_a < params.probe_rtt_max_ms
                    && rtt_b < params.probe_rtt_max_ms
                {
                    if let Some(&m) = located.get(&ip_b) {
                        *votes.entry(ip_a).or_default().entry(m).or_default() += 1;
                    }
                    if let Some(&m) = located.get(&ip_a) {
                        *votes.entry(ip_b).or_default().entry(m).or_default() += 1;
                    }
                }
            }
            prev = Some(cur);
        }
    }
    let mut comparable = 0usize;
    let mut agreeing = 0usize;
    for (ip, info) in igdb.ip_info.iter() {
        let (Some(seed_metro), Some(source)) = (info.metro, info.geo_source) else {
            continue;
        };
        if !matches!(source, LocationSource::Hoiho | LocationSource::IxpPrefix) {
            continue;
        }
        let Some(ms) = votes.get(ip) else { continue };
        let total: usize = ms.values().sum();
        let Some((&bp_metro, &n)) = ms.iter().max_by_key(|&(m, n)| (*n, std::cmp::Reverse(*m)))
        else {
            continue;
        };
        if 2 * n <= total {
            continue;
        }
        comparable += 1;
        if bp_metro == seed_metro {
            agreeing += 1;
        }
    }
    igdb_obs::counter("beliefprop.comparable", "", comparable as u64);
    ConsistencyReport {
        comparable,
        agreeing,
    }
}

/// Table 3 — metros an AS provably operates in (via rDNS geohints) that are
/// missing from its declared `asn_loc` footprint. Returns
/// `(metro, example hostname)` pairs in metro order; the example is the
/// metro's lexicographically first hostname, so it does not depend on the
/// order `ip_info` iterates in.
pub fn missing_locations(igdb: &Igdb, asn: Asn) -> Vec<(usize, String)> {
    let declared: BTreeSet<usize> = igdb.metros_of_asn(asn).into_iter().collect();
    let mut found: BTreeMap<usize, &str> = BTreeMap::new();
    for info in igdb.ip_info.values() {
        if info.asn != Some(asn) || info.geo_source != Some(LocationSource::Hoiho) {
            continue;
        }
        let (Some(metro), Some(fqdn)) = (info.metro, info.fqdn.as_ref()) else {
            continue;
        };
        if !declared.contains(&metro) {
            let example = found.entry(metro).or_insert(fqdn.as_str());
            *example = (*example).min(fqdn.as_str());
        }
    }
    found.into_iter().map(|(m, host)| (m, host.to_owned())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    fn built() -> (World, Igdb) {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 1200);
        (world, Igdb::build(&snaps))
    }

    #[test]
    fn propagation_locates_new_addresses() {
        let (_, igdb) = built();
        let report = propagate(&igdb, &BeliefPropParams::default());
        let total: usize = report.located_per_round.iter().sum();
        assert!(total > 10, "only {total} addresses newly located");
        assert_eq!(total, report.assignments.len());
    }

    #[test]
    fn propagation_accuracy_against_ground_truth() {
        // The 2 ms differential bound resolves location to ~200 km (the
        // distance light covers in fiber in 1 ms each way), so the method
        // is scored at metro-area granularity: an inference is correct
        // when it lands within 150 km of the true city — and most should
        // be exactly right.
        let (world, igdb) = built();
        let report = propagate(&igdb, &BeliefPropParams::default());
        let mut checked = 0;
        let mut exact = 0;
        let mut near = 0;
        for (&ip, &metro) in &report.assignments {
            let Some(truth) = world.truth_city_of_ip(ip) else {
                continue;
            };
            checked += 1;
            if truth == metro {
                exact += 1;
                near += 1;
            } else {
                let d = igdb_geo::haversine_km(
                    &world.cities[truth].loc,
                    &world.cities[metro].loc,
                );
                if d <= 150.0 {
                    near += 1;
                }
            }
        }
        assert!(checked > 10);
        assert!(
            near * 100 >= checked * 85,
            "belief prop within-150km accuracy {near}/{checked}"
        );
        assert!(
            exact * 2 >= checked,
            "belief prop exact accuracy {exact}/{checked}"
        );
    }

    #[test]
    fn new_tuples_found_and_applied() {
        let (_, mut igdb) = built();
        let report = propagate(&igdb, &BeliefPropParams::default());
        assert!(
            !report.new_tuples.is_empty(),
            "no undeclared (asn, metro) tuples discovered"
        );
        assert!(report.new_metros > 0);
        assert!(report.new_ases > 0);
        let before = igdb.db.row_count("asn_loc").unwrap();
        let applied = apply_inferences(&mut igdb, &report);
        assert_eq!(igdb.db.row_count("asn_loc").unwrap(), before + applied);
        // Applied rows carry the inferred flag.
        igdb.db
            .with_table("asn_loc", |t| {
                let inferred = t
                    .rows()
                    .iter()
                    .filter(|r| r[5] == igdb_db::Value::Bool(true))
                    .count();
                assert_eq!(inferred, applied);
            })
            .unwrap();
    }

    #[test]
    fn consistency_above_paper_floor() {
        let (_, igdb) = built();
        let report = consistency_check(&igdb, &BeliefPropParams::default());
        assert!(report.comparable > 10, "only {} comparable", report.comparable);
        assert!(
            report.agreement() >= 0.7,
            "agreement {} below the paper's ~0.86 band",
            report.agreement()
        );
    }

    #[test]
    fn table3_missing_locations_for_underdeclared_as() {
        let (world, igdb) = built();
        let missing = missing_locations(&igdb, world.scenarios.globetrans);
        // GlobeTrans declares 20 of 60 metros; GeoCode rDNS reveals many of
        // the rest wherever its routers were traversed.
        assert!(
            !missing.is_empty(),
            "no missing metros recovered for the Table 3 scenario AS"
        );
        for (metro, host) in &missing {
            assert!(!igdb.metros_of_asn(world.scenarios.globetrans).contains(metro));
            assert!(host.contains("globetrans"), "{host}");
            // The example is the metro's first hostname, whatever order
            // `ip_info` iterates in.
            let first = igdb
                .ip_info
                .values()
                .filter(|i| i.asn == Some(world.scenarios.globetrans) && i.metro == Some(*metro))
                .filter(|i| i.geo_source == Some(LocationSource::Hoiho))
                .filter_map(|i| i.fqdn.as_ref().map(|f| f.as_str()))
                .min();
            assert_eq!(first, Some(host.as_str()));
        }
    }

    #[test]
    fn propagation_rounds_monotone_decreasing_eventually_stop() {
        let (_, igdb) = built();
        let report = propagate(
            &igdb,
            &BeliefPropParams {
                max_iterations: 10,
                ..Default::default()
            },
        );
        // Rounds end with a zero (fixpoint) or hit the cap.
        if report.located_per_round.len() < 10 {
            assert_eq!(*report.located_per_round.last().unwrap(), 0);
        }
    }

    #[test]
    fn stricter_threshold_locates_fewer() {
        let (_, igdb) = built();
        let loose = propagate(&igdb, &BeliefPropParams::default());
        let strict = propagate(
            &igdb,
            &BeliefPropParams {
                metro_threshold_ms: 0.2,
                ..Default::default()
            },
        );
        assert!(strict.assignments.len() <= loose.assignments.len());
    }
}
