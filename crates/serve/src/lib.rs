//! igdb-serve: a hardened query front end for the iGDB corpus.
//!
//! A std-only TCP / unix-socket server speaking a compact length-prefixed
//! binary protocol ([`proto`]), multiplexing client connections onto a
//! bounded worker pool over the shared [`igdb_core::Igdb`] corpus and its
//! corridor cache. The robustness contract:
//!
//! - **Deadlines** ([`deadline`]): every request carries a monotonic
//!   budget, checked at analysis-loop safepoints; overruns become a typed
//!   `Timeout`, never a hang.
//! - **Backpressure** ([`server`]): a bounded admission queue; when full,
//!   requests shed with a typed `Overloaded { queue_depth }` answered by
//!   the connection reader — shedding never consumes worker capacity.
//! - **Panic containment**: each request executes under `catch_unwind`;
//!   a panicking analysis becomes a typed `Internal` and the worker,
//!   connection, and shared caches all survive.
//! - **Graceful drain**: in-flight requests finish, new ones are rejected
//!   with `ShuttingDown`, and the metrics registry is flushed.
//! - **Chaos harness** ([`chaos`]): seeded fault injection with a ledger
//!   asserting every fault maps to exactly one typed error and zero
//!   responses are lost.
//! - **Flight recorder** ([`recorder`]): a ring of completed request
//!   traces (request-scoped [`igdb_obs::TraceContext`] span trees), a
//!   slow-query log, per-client accounting and epoch-churn visibility,
//!   exposed live over the wire via the versioned `Introspect` op and
//!   `igdb top`.
//!
//! The [`client`] module holds the matching client plus the seeded
//! loadgen used by `igdb loadgen` and the sustained-load experiments.

pub mod chaos;
pub mod client;
pub mod deadline;
pub mod proto;
pub mod recorder;
pub mod server;

pub use chaos::{run_chaos, ChaosEnv, ChaosLedger, FaultClass, Observed};
pub use client::{run_loadgen, Client, ClientError, LoadgenConfig, LoadgenSummary};
pub use deadline::Deadline;
pub use proto::{Introspection, ProtoError, Request, Response, INTROSPECT_VERSION};
pub use recorder::{
    ClientRow, FlightRecorder, HistDigest, RecorderConfig, RecorderSnapshot, RequestTrace,
};
pub use server::{
    DrainReport, Listener, Server, ServerAddr, ServerConfig, Stream, KINDS,
};

/// One full in-process loadgen session: start a server over `igdb` on a
/// unix socket, drive the seeded loadgen against it with **one shared
/// registry** (so the server- and client-side telemetry land in a single
/// stream), drain, and hand everything back.
///
/// Both `igdb loadgen` (without `--addr`) and the golden-stream test run
/// through here, which is what makes the committed deterministic stream
/// and the CLI's output byte-comparable.
pub fn loadgen_session(
    igdb: std::sync::Arc<igdb_core::Igdb>,
    socket: &std::path::Path,
    server_cfg: ServerConfig,
    loadgen_cfg: &LoadgenConfig,
) -> std::io::Result<(LoadgenSummary, DrainReport, igdb_obs::Registry)> {
    let reg = igdb_obs::Registry::new();
    let listener = Listener::bind_unix(socket)?;
    let n_metros = igdb.metros.len();
    let server = Server::start(igdb, listener, server_cfg, reg.clone())?;
    let summary = run_loadgen(&server.addr(), n_metros, loadgen_cfg, &reg);
    let report = server.drain();
    Ok((summary, report, reg))
}
