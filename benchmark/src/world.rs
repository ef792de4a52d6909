//! The one seeded world every workload runs on, and the snapshot set
//! emitted from it.

use std::time::Instant;

use igdb_synth::{emit_snapshots, AsCounts, SnapshotSet, World, WorldConfig};

/// Collection date stamped on every snapshot.
pub const AS_OF_DATE: &str = "2022-05-03";

/// The benchmark world. Sized on a 2-core box so that no layer vanishes
/// under syscall cost (as at 2,000 cities) and no single operation
/// outlasts a run (as at 20,000): ~112 K rows, ~1,500 connected metros,
/// a 2 s build. `quick` swaps in the unit-test world for the smoke test
/// only; quick numbers are never recorded.
pub fn world_config(seed: u64, quick: bool) -> WorldConfig {
    if quick {
        return WorldConfig {
            seed,
            ..WorldConfig::tiny()
        };
    }
    WorldConfig {
        seed,
        n_cities: 8000,
        as_counts: AsCounts {
            tier1: 9,
            tier2: 280,
            stub: 2800,
            content: 12,
        },
        n_ixps: 60,
        n_anchors: 100,
        n_cables: 150,
        unresponsive_frac: 0.08,
    }
}

/// Generated inputs: the world (ground truth the §4 query mix reads) and
/// the snapshot set the program ingests.
pub struct Inputs {
    pub world: Option<World>,
    pub snaps: SnapshotSet,
    /// Wall seconds spent generating both.
    pub gen_s: f64,
}

impl Inputs {
    pub fn generate(seed: u64, quick: bool) -> Inputs {
        let t = Instant::now();
        let world = World::generate(world_config(seed, quick));
        let snaps = emit_snapshots(&world, AS_OF_DATE, if quick { 500 } else { 4000 });
        Inputs {
            world: Some(world),
            snaps,
            gen_s: t.elapsed().as_secs_f64(),
        }
    }

    pub fn world(&self) -> &World {
        self.world
            .as_ref()
            .expect("the build workload, which drops the world, never reads it")
    }
}
