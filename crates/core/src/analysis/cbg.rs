//! Constraint-based latency geolocation (the "RIPE geolocation services"
//! role of §4.5).
//!
//! The paper geolocates 7 of the Madrid→Berlin hops with Hoiho "and the
//! other 4 IP addresses with RIPE geolocation services" — latency-based
//! multilateration. We implement the classic CBG idea over the anchor
//! mesh: every observation of an address at RTT *r* from a probe with a
//! known location constrains the address to a disk of radius
//! `r/2 × fiber-speed` around that probe; the address's metro is the
//! candidate satisfying every constraint with the least total slack.

use std::collections::{HashMap, HashSet};

use igdb_measure::FIBER_KM_PER_MS;
use igdb_net::Ip4;

use crate::build::Igdb;

/// One latency constraint: observed RTT from a probe at a known metro.
#[derive(Clone, Copy, Debug)]
struct Constraint {
    probe_metro: usize,
    rtt_ms: f64,
}

/// A CBG estimate for one address.
#[derive(Clone, Debug)]
pub struct CbgEstimate {
    pub ip: Ip4,
    pub metro: usize,
    /// Number of probes constraining the estimate.
    pub constraints: usize,
    /// Radius of the tightest constraint disk, km (the estimate cannot be
    /// more precise than this).
    pub tightest_km: f64,
}

/// Runs CBG over every observed address that lacks a metro. Returns
/// estimates sorted by address. Only addresses with at least
/// `min_constraints` observing probes are estimated.
pub fn geolocate_unlocated(igdb: &Igdb, min_constraints: usize) -> Vec<CbgEstimate> {
    estimate(igdb, None, min_constraints)
}

/// [`geolocate_unlocated`] restricted to `ips`: constraints are gathered
/// and candidates scored for those addresses only, so locating one
/// traceroute's hops does not pay for the whole corpus. Equals the
/// all-addresses result filtered to `ips`.
pub fn geolocate(igdb: &Igdb, ips: &[Ip4], min_constraints: usize) -> Vec<CbgEstimate> {
    estimate(igdb, Some(&ips.iter().copied().collect()), min_constraints)
}

/// The estimator behind both entry points; `only` limits it to a set of
/// addresses.
fn estimate(
    igdb: &Igdb,
    only: Option<&HashSet<Ip4>>,
    min_constraints: usize,
) -> Vec<CbgEstimate> {
    let _span = igdb_obs::span("analysis.cbg");
    // Gather constraints: for each (src probe, hop) pair the hop's RTT
    // bounds its distance from the probe.
    let mut constraints: HashMap<Ip4, Vec<Constraint>> = HashMap::new();
    for tr in igdb.traces() {
        let Some(src) = igdb.probes.get(&tr.src_anchor) else {
            continue;
        };
        for h in &tr.hops {
            let Some(ip) = h.ip else { continue };
            if h.rtt_ms <= 0.0 || only.is_some_and(|set| !set.contains(&ip)) {
                continue;
            }
            // Keep the *minimum* observed RTT per (probe metro, ip): real
            // CBG uses min-RTT to shed queueing noise.
            let list = constraints.entry(ip).or_default();
            match list.iter_mut().find(|c| c.probe_metro == src.metro) {
                Some(c) => c.rtt_ms = c.rtt_ms.min(h.rtt_ms),
                None => list.push(Constraint {
                    probe_metro: src.metro,
                    rtt_ms: h.rtt_ms,
                }),
            }
        }
    }

    let mut out = Vec::new();
    for (&ip, cons) in &constraints {
        // Skip already-located addresses (Hoiho / IXP prefix wins) and
        // anycast addresses (no single location exists, §5).
        if igdb
            .ip_info
            .get(&ip)
            .map(|i| i.metro.is_some() || i.anycast)
            .unwrap_or(false)
        {
            continue;
        }
        if cons.len() < min_constraints {
            continue;
        }
        // Candidate metros: those inside the tightest disk.
        let tightest = cons
            .iter()
            .min_by(|a, b| a.rtt_ms.partial_cmp(&b.rtt_ms).unwrap())
            .expect("non-empty constraints");
        let tight_km = tightest.rtt_ms / 2.0 * FIBER_KM_PER_MS;
        let centre = igdb.metros.metro(tightest.probe_metro).loc;
        let candidates = igdb.metros.metros_within(&centre, tight_km);
        if candidates.is_empty() {
            continue;
        }
        // Score each candidate: total violation across all constraint
        // disks (0 = inside every disk), then total slack as tiebreak.
        let mut best: Option<(usize, f64, f64)> = None; // (metro, violation, slack)
        for &(metro, _) in &candidates {
            let mloc = igdb.metros.metro(metro).loc;
            let mut violation = 0.0;
            let mut slack = 0.0;
            for c in cons {
                let limit = c.rtt_ms / 2.0 * FIBER_KM_PER_MS;
                let d = igdb_geo::haversine_km(&mloc, &igdb.metros.metro(c.probe_metro).loc);
                if d > limit {
                    violation += d - limit;
                } else {
                    slack += limit - d;
                }
            }
            let better = match best {
                None => true,
                Some((_, bv, bs)) => {
                    violation < bv - 1e-9 || (violation <= bv + 1e-9 && slack < bs)
                }
            };
            if better {
                best = Some((metro, violation, slack));
            }
        }
        if let Some((metro, _, _)) = best {
            out.push(CbgEstimate {
                ip,
                metro,
                constraints: cons.len(),
                tightest_km: tight_km,
            });
        }
    }
    out.sort_by_key(|e| e.ip);
    out
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
    fn cbg_estimates_exist_for_multiply_observed_addresses() {
        let (_, igdb) = built();
        let estimates = geolocate_unlocated(&igdb, 2);
        assert!(
            estimates.len() > 20,
            "only {} CBG estimates",
            estimates.len()
        );
        for e in &estimates {
            assert!(e.constraints >= 2);
            assert!(e.tightest_km > 0.0);
        }
    }

    #[test]
    fn cbg_accuracy_scales_with_constraint_tightness() {
        // CBG's error is bounded by its tightest constraint disk — check
        // that the estimate respects that bound against ground truth.
        let (world, igdb) = built();
        let estimates = geolocate_unlocated(&igdb, 2);
        let mut checked = 0;
        let mut within_bound = 0;
        for e in &estimates {
            let Some(truth) = world.truth_city_of_ip(e.ip) else {
                continue;
            };
            checked += 1;
            let err = igdb_geo::haversine_km(
                &world.cities[truth].loc,
                &igdb.metros.metro(e.metro).loc,
            );
            // The true location is inside the tightest disk (RTT includes
            // the full return path plus processing, so the bound is
            // generous); the estimate should be too, putting the error
            // within two disk radii.
            if err <= 2.0 * e.tightest_km + 50.0 {
                within_bound += 1;
            }
        }
        assert!(checked > 20);
        assert!(
            within_bound * 100 >= checked * 90,
            "{within_bound}/{checked} within the CBG bound"
        );
    }

    #[test]
    fn cbg_never_overrides_existing_locations() {
        let (_, igdb) = built();
        let estimates = geolocate_unlocated(&igdb, 2);
        for e in &estimates {
            let info = igdb.ip_info.get(&e.ip).expect("observed address");
            assert!(info.metro.is_none(), "CBG re-located a seeded address");
        }
    }

    #[test]
    fn scoped_estimates_equal_the_all_addresses_estimates_filtered() {
        let (_, igdb) = built();
        // Every third observed address, located or not, some twice.
        let mut ips: Vec<Ip4> = igdb.ip_info.keys().copied().collect();
        ips.sort_unstable();
        let mut ips: Vec<Ip4> = ips.into_iter().step_by(3).collect();
        ips.extend_from_within(..10);
        let row = |e: &CbgEstimate| (e.ip, e.metro, e.constraints, e.tightest_km.to_bits());
        for min_constraints in 1..=4 {
            let scoped: Vec<_> = geolocate(&igdb, &ips, min_constraints).iter().map(row).collect();
            let filtered: Vec<_> = geolocate_unlocated(&igdb, min_constraints)
                .iter()
                .filter(|e| ips.contains(&e.ip))
                .map(row)
                .collect();
            assert!(!scoped.is_empty());
            assert_eq!(scoped, filtered, "min_constraints {min_constraints}");
        }
        assert!(geolocate(&igdb, &[], 1).is_empty());
    }

    #[test]
    fn min_constraints_filter_applies() {
        let (_, igdb) = built();
        let loose = geolocate_unlocated(&igdb, 1);
        let strict = geolocate_unlocated(&igdb, 4);
        assert!(strict.len() <= loose.len());
        for e in &strict {
            assert!(e.constraints >= 4);
        }
    }
}
