//! Shared memoized corridor cache.
//!
//! Every cross-layer analysis reduces to shortest-path queries over the
//! same immutable graphs, and they keep asking for the same metro pairs:
//! traceroute legs repeat across a mesh, Rocketfuel logical edges share
//! corridors, and a delta apply re-asks the pairs the prior epoch already
//! routed. This module memoizes corridors keyed by the *normalized*
//! (min, max) metro pair, storing the path oriented from the smaller
//! endpoint and reversing on demand — an undirected corridor is one fact,
//! not two.
//!
//! # Determinism under concurrent callers
//!
//! A naive "check map, else compute, then insert" cache would let two
//! racing server workers both run the underlying engine query, making the
//! deterministic `spath.queries` counter depend on scheduling. Instead the
//! map stores one `Arc<OnceLock<…>>` per key (created under a short-lived
//! mutex), and the computation runs inside `OnceLock::get_or_init`: exactly
//! one caller computes per distinct key, everyone else blocks and reads, so
//! the registry's engine-query total is scheduling-free. *Which* caller
//! fills a pair is not, so the fill runs under a sink trace: its ticks
//! reach the registry and no request's trace. Cache hit/miss tallies are
//! scheduling-dependent in *which worker* reports them, so they are perf
//! metrics, outside the deterministic counter snapshot.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One cached corridor: the canonical shortest path oriented from the
/// smaller endpoint, plus its length.
#[derive(Debug)]
struct Corridor {
    path: Vec<usize>,
    km: f64,
}

/// One memo cell per normalized pair; `None` records an unreachable pair,
/// so misses are cached too.
type Cell = Arc<OnceLock<Option<Corridor>>>;

/// Memoized shortest-path corridors over one immutable graph, with
/// compute-once semantics per unordered pair. `name` labels the hit/miss
/// perf metrics (`corridor.cache_hits{name}` /
/// `corridor.cache_misses{name}`).
pub struct CorridorCache {
    name: &'static str,
    entries: Mutex<HashMap<(usize, usize), Cell>>,
}

impl CorridorCache {
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The map, whatever a panicking holder left behind: cells are filled
    /// outside this lock, so a poisoned map is still a consistent one.
    fn map(&self) -> MutexGuard<'_, HashMap<(usize, usize), Cell>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of distinct pairs cached so far (computed or in flight).
    pub fn len(&self) -> usize {
        self.map().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every normalized pair whose corridor (or unreachability) is settled.
    /// Entries still in flight (cell allocated but not yet filled) are
    /// skipped.
    pub(crate) fn settled_keys(&self) -> BTreeSet<(usize, usize)> {
        self.map().iter().filter(|(_, cell)| cell.get().is_some()).map(|(k, _)| *k).collect()
    }

    /// Seeds this (typically fresh) cache with every settled entry of `old`
    /// that avoids `touched` — the corridor-migration half of a delta
    /// apply. An entry survives only if both endpoints *and* every stored
    /// path node avoid the touched set; cached-unreachable (`None`) entries
    /// survive on the endpoint test alone. Seeding counts as neither a hit
    /// nor a miss, and an existing entry for a key is left untouched.
    ///
    /// Sound only when the graph lost edges and gained none;
    /// `PhysGraph::for_next_epoch` decides that, and says why.
    pub fn seed_surviving_from(&self, old: &CorridorCache, touched: &BTreeSet<usize>) {
        let old_map = old.map();
        let mut map = self.map();
        for (k, cell) in old_map.iter() {
            // In-flight cells are skipped: their eventual value can't be
            // vetted.
            let Some(v) = cell.get() else { continue };
            let survives = !touched.contains(&k.0)
                && !touched.contains(&k.1)
                && v.as_ref().map_or(true, |c| c.path.iter().all(|m| !touched.contains(m)));
            if survives {
                // A settled cell never changes, so the two caches share it.
                map.entry(*k).or_insert_with(|| Arc::clone(cell));
            }
        }
    }

    /// The corridor `from → to`, computing it via `compute` (called with
    /// the normalized `(min, max)` pair) at most once per unordered pair
    /// process-wide: concurrent callers for the same pair block on the
    /// first computation instead of repeating it. The canonical path is
    /// direction-independent (shortest paths are unique under the engine's
    /// lexicographic key), so the reverse orientation is served by
    /// reversing the stored path.
    pub fn shortest_path(
        &self,
        from: usize,
        to: usize,
        compute: impl FnOnce(usize, usize) -> Option<(Vec<usize>, f64)>,
    ) -> Option<(Vec<usize>, f64)> {
        let key = (from.min(to), from.max(to));
        let cell = Arc::clone(self.map().entry(key).or_default());
        let mut miss = false;
        let cached = cell.get_or_init(|| {
            miss = true;
            let _unattributed = igdb_obs::TraceContext::sink().install();
            compute(key.0, key.1).map(|(path, km)| Corridor { path, km })
        });
        if miss {
            igdb_obs::perf("corridor.cache_misses", self.name, 1);
            // Occupancy sampled on each miss gives a growth curve of the
            // cache (hist of sizes seen), without a hot-path lock on hits.
            igdb_obs::observe("corridor.occupancy", self.name, self.len() as u64);
        } else {
            igdb_obs::perf("corridor.cache_hits", self.name, 1);
        }
        let corridor = cached.as_ref()?;
        let mut path = corridor.path.clone();
        if from > to {
            path.reverse();
        }
        Some((path, corridor.km))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_per_unordered_pair() {
        let cache = CorridorCache::new("test");
        let calls = AtomicUsize::new(0);
        let compute = |lo: usize, hi: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some((vec![lo, 99, hi], 7.5))
        };
        assert_eq!(cache.shortest_path(2, 5, compute), Some((vec![2, 99, 5], 7.5)));
        assert_eq!(cache.shortest_path(5, 2, compute), Some((vec![5, 99, 2], 7.5)));
        assert_eq!(cache.shortest_path(2, 5, compute), Some((vec![2, 99, 5], 7.5)));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unreachable_pairs_are_cached_as_none() {
        let cache = CorridorCache::new("test");
        let calls = AtomicUsize::new(0);
        let compute = |_: usize, _: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            None
        };
        assert_eq!(cache.shortest_path(1, 9, compute), None);
        assert_eq!(cache.shortest_path(9, 1, compute), None);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_fill_does_not_claim_the_entry() {
        // The serve worker pool runs analyses under catch_unwind, so a
        // compute closure *can* unwind mid-fill. `OnceLock::get_or_init`
        // must leave the cell uninitialized in that case — the entry may
        // stay allocated in the map, but it must never read as "computed
        // and empty". A later caller recomputes, and only then is the
        // value cached.
        let cache = CorridorCache::new("test");
        let calls = AtomicUsize::new(0);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.shortest_path(3, 8, |_, _| -> Option<(Vec<usize>, f64)> {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("engine died mid-corridor");
            })
        }));
        assert!(poisoned.is_err(), "the panic must propagate to the caller");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // The second caller recomputes instead of seeing a phantom miss…
        let compute = |lo: usize, hi: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some((vec![lo, hi], 4.0))
        };
        assert_eq!(cache.shortest_path(3, 8, compute), Some((vec![3, 8], 4.0)));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // …and the recomputed value is now cached like any other.
        assert_eq!(cache.shortest_path(8, 3, compute), Some((vec![8, 3], 4.0)));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn migration_seeds_only_survivors() {
        let old = CorridorCache::new("test");
        let calls = AtomicUsize::new(0);
        old.shortest_path(1, 2, |lo, hi| Some((vec![lo, hi], 1.0)));
        old.shortest_path(3, 8, |lo, hi| Some((vec![lo, 8, hi], 2.0)));
        old.shortest_path(4, 5, |lo, hi| Some((vec![lo, 6, hi], 3.0)));
        old.shortest_path(6, 9, |lo, hi| Some((vec![lo, hi], 4.0)));
        old.shortest_path(2, 7, |_, _| None);
        old.shortest_path(6, 7, |_, _| None);
        let fresh = CorridorCache::new("test");
        let touched: BTreeSet<usize> = [6].into_iter().collect();
        fresh.seed_surviving_from(&old, &touched);
        assert_eq!(
            fresh.len(),
            3,
            "(4,5) routes through touched metro 6; (6,9) and (6,7) end at it"
        );
        let compute = |lo: usize, hi: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some((vec![lo, hi], 9.9))
        };
        // Migrated entries answer without recompute, with the old value —
        // a cached-unreachable pair included.
        assert_eq!(fresh.shortest_path(2, 1, compute), Some((vec![2, 1], 1.0)));
        assert_eq!(fresh.shortest_path(7, 2, compute), None);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // The dropped pair recomputes fresh.
        assert_eq!(fresh.shortest_path(4, 5, compute), Some((vec![4, 5], 9.9)));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn racing_workers_compute_each_pair_once() {
        let cache = CorridorCache::new("test");
        let calls = AtomicUsize::new(0);
        let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i / 8, 10 + i % 4)).collect();
        // Four threads, released together, each ask for every pair, so
        // every pair is contended.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for &(a, b) in &pairs {
                        let r = cache.shortest_path(a, b, |lo, hi| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            Some((vec![lo, hi], (lo + hi) as f64))
                        });
                        assert_eq!(r.unwrap().0, vec![a, b]);
                    }
                });
            }
        });
        // 8 × 4 distinct normalized pairs, each computed exactly once no
        // matter how the 256 requests raced.
        assert_eq!(calls.load(Ordering::Relaxed), 32);
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn fill_ticks_reach_the_registry_and_no_request_trace() {
        // Which request first touches a pair is scheduling; a per-request
        // counter may not depend on it.
        let reg = igdb_obs::Registry::new();
        let _g = reg.install();
        let trace = igdb_obs::TraceContext::new(1, 1, "request");
        let _t = trace.install();
        let cache = CorridorCache::new("test");
        let compute = |lo: usize, hi: usize| {
            igdb_obs::counter("spath.queries", "", 1);
            Some((vec![lo, hi], 1.0))
        };
        cache.shortest_path(1, 2, compute);
        cache.shortest_path(2, 1, compute);
        assert_eq!(reg.counter_value("spath.queries", ""), 1);
        assert!(trace.finish().counters.is_empty(), "a fill's ticks belong to the pair");
    }
}
