//! `igdb-synth` — the deterministic synthetic Internet.
//!
//! The iGDB paper is a data-integration system over nine external sources
//! (Internet Atlas, Telegeography, PeeringDB, PCH, Hurricane Electric,
//! EuroIX, Rapid7 rDNS, CAIDA AS Rank, RIPE Atlas). None of them is
//! reachable or redistributable in this environment, so this crate builds a
//! self-consistent synthetic world with the same statistical shape and
//! renders it *as each source would publish it* — each with its own slice
//! of the truth, naming conventions and blind spots. Because the world's
//! ground truth is retained, every iGDB inference (name standardization,
//! right-of-way paths, hidden-hop recovery, belief-propagation geolocation)
//! can be *scored*, which the real paper could not do.
//!
//! Structure:
//! * [`cities`] — ~250 embedded real cities + procedural towns (the
//!   Natural Earth substitute).
//! * [`rightofway`] — the road/rail graph fiber follows (Delaunay over
//!   cities, ocean edges removed).
//! * [`ases`] — tiered AS ecosystem with Gao–Rexford relationships and
//!   per-source name inconsistencies.
//! * [`scenarios`] — hand-built networks realizing the paper's named
//!   situations (Figures 6, 7, 9; Table 3).
//! * [`world`] — routers, addressing, IXPs, anchors, MPLS, rDNS.
//! * [`cables`] — submarine cable systems (Telegeography substitute).
//! * [`sources`] — per-source snapshot records (what iGDB ingests).
//! * [`intertubes`] — the InterTubes and Rocketfuel map recreations
//!   (Figures 4 and 8).

pub mod ases;
pub mod cables;
pub mod cities;
pub mod deltas;
pub mod faults;
pub mod intertubes;
pub mod naming;
pub mod rightofway;
pub mod scenarios;
pub mod sources;
pub mod world;

pub use ases::{AsClass, AsCounts, AsEcosystem, RdnsStyle, SynthAs};
pub use cables::Cable;
pub use cities::{City, Continent, REAL_CITIES};
pub use deltas::{generate_delta, DeltaClass, DeltaKind, DeltaOp};
pub use faults::{inject_faults, FaultClass, InjectedFault};
pub use naming::{GeoCodebook, HoihoRule, TokenKind};
pub use rightofway::RowNetwork;
pub use scenarios::Scenarios;
pub use sources::{emit_snapshots, SnapshotSet, Source};
pub use world::{Ixp, World, WorldConfig};
