//! Epoch-versioned reads: a pointer-swap publication protocol that lets a
//! delta apply land while in-flight readers finish against the old world.
//!
//! A reader pins an [`Epoch`] once at request start (`Arc` clone under a
//! short read lock) and uses that world for its whole lifetime; the writer
//! builds the next world entirely outside the lock and swaps one pointer.
//! Torn reads are impossible by construction — a request either sees the
//! old epoch everywhere or the new epoch everywhere, and the old world
//! stays alive (and fully queryable) until its last reader drops it.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::build::Igdb;

/// One immutable published world: a fully built [`Igdb`] plus its
/// monotonically increasing epoch number and the instant it was swapped
/// in (the reference point for `epoch.lag` — how long after a publish an
/// older epoch was still pinned by in-flight readers).
pub struct Epoch {
    pub igdb: Arc<Igdb>,
    pub number: u64,
    pub published_at: Instant,
}

/// The swap point. Readers call [`current`](Self::current); the (single)
/// writer calls [`publish`](Self::publish). Readers never block behind an
/// apply: the write lock is held only for the pointer swap itself.
pub struct EpochHandle {
    inner: RwLock<Arc<Epoch>>,
}

impl EpochHandle {
    /// Wraps the initial world as epoch 0.
    pub fn new(igdb: Igdb) -> Self {
        Self::new_shared(Arc::new(igdb))
    }

    /// [`new`](Self::new) for a world the caller already shares (servers
    /// hand the same `Arc` to their warm-up path).
    pub fn new_shared(igdb: Arc<Igdb>) -> Self {
        Self {
            inner: RwLock::new(Arc::new(Epoch {
                igdb,
                number: 0,
                published_at: Instant::now(),
            })),
        }
    }

    /// Pins the current epoch. The returned `Arc` keeps the whole world
    /// alive for as long as the caller holds it, regardless of how many
    /// publishes happen meanwhile.
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publishes `igdb` as the next epoch and returns its number. The
    /// build happened entirely on the caller's side; this only swaps the
    /// pointer, so readers observe either the old or the new epoch —
    /// never a mixture.
    pub fn publish(&self, igdb: Igdb) -> u64 {
        let igdb = Arc::new(igdb);
        let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let number = slot.number + 1;
        *slot = Arc::new(Epoch {
            igdb,
            number,
            published_at: Instant::now(),
        });
        drop(slot);
        // Deterministic: one tick per successful publish, independent of
        // readers, worker counts, and timing.
        igdb_obs::counter("epoch.published", "", 1);
        number
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_synth::{emit_snapshots, World, WorldConfig};

    #[test]
    fn publish_increments_and_old_pin_survives() {
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 400);
        let handle = EpochHandle::new(Igdb::build(&snaps));
        let pinned = handle.current();
        assert_eq!(pinned.number, 0);
        let n = handle.publish(Igdb::build(&snaps));
        assert_eq!(n, 1);
        assert_eq!(handle.current().number, 1);
        // The pinned epoch still answers from the old world.
        assert_eq!(pinned.number, 0);
        assert!(pinned.igdb.db.row_count("city_points").unwrap() > 0);
    }
}
