//! `igdb-core` — the Internet Geographic Database.
//!
//! This crate is the paper's primary contribution: a system that collects
//! Internet topology snapshots from public sources, standardizes their
//! geography against a single urban-area catalogue via Thiessen polygons,
//! infers physical paths along transportation rights-of-way, organizes
//! everything into the relational schema of the paper's Figure 2, and
//! answers the cross-layer questions of §4.
//!
//! Pipeline (mirroring §2–§3):
//!
//! 1. [`metros`] — build the standard-metro registry from the populated
//!    places dataset; every lat/lon in every source is *spatially joined*
//!    to its nearest urban area (equivalently: to the Thiessen cell
//!    containing it).
//! 2. [`roads`] — the public transportation network; unknown fiber paths
//!    between connected PoPs become shortest road paths (§3.1).
//! 3. [`bdrmap`] — IP→AS mapping: longest-prefix match over BGP RIBs with
//!    bdrmapIT-style border reassignment and traIXroute-style IXP hop
//!    handling (§3.2–§3.3).
//! 4. [`hoiho`] — hostname geolocation: the Hoiho rule file compiled with
//!    `igdb-regex`, tokens resolved through the public geocode dictionary
//!    or city-name slugs (§4.2).
//! 5. [`build`] — ingest + standardize + load: produces an [`Igdb`]
//!    database with every relation of Figure 2.
//! 6. [`analysis`] — the use cases: AS spatial extent (§4.1, Table 2,
//!    Fig 6), physical paths from logical measurements (§4.2, Fig 7),
//!    InterTubes and Rocketfuel comparisons (Figs 4 and 8), belief
//!    propagation geolocation (§4.4, Table 3), node density (Fig 10), and
//!    the Madrid→Berlin fusion (§4.5, Figs 1/9).

pub mod analysis;
pub mod bdrmap;
pub mod build;
pub mod corridor;
pub mod delta;
mod derived;
pub mod epoch;
pub mod hoiho;
pub mod metros;
pub mod roads;
pub mod schema;
pub mod serving;
pub mod spath;
pub mod validate;

pub use bdrmap::{BdrMap, IpOrigin};
pub use build::{Igdb, IpInfo, LocationSource};
pub use igdb_fault::{
    BuildError, BuildPolicy, BuildReport, Quarantine, QuarantinedRecord, RecordError,
    SourceFailure, SourceHealth, SourceId,
};
pub use delta::{diff_snapshots, SnapshotDelta, SourceDiff, Stage};
pub use epoch::{Epoch, EpochHandle};
/// Observability layer (re-exported): install a [`igdb_obs::Registry`] to
/// capture per-stage spans and the ingestion/build counters the pipeline
/// emits.
pub use igdb_obs;
pub use hoiho::HoihoEngine;
pub use metros::{Metro, MetroRegistry};
pub use corridor::CorridorCache;
pub use roads::RoadGraph;
pub use serving::{run_query_mix, MixFailure, QueryMixSummary};
pub use spath::{with_mode, ShortestPathEngine, SpMode, SpWorkspace};
