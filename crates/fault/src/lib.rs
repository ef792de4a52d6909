//! `igdb-fault` — the typed ingestion-fault layer.
//!
//! iGDB's value is integration across ~nine heterogeneous public sources,
//! and real snapshots of those sources are routinely broken: truncated CSV
//! rows, NaN coordinates, dangling foreign keys, duplicate identifiers,
//! whole feeds missing for a collection date. The paper's pipeline must
//! degrade gracefully rather than abort (§2's "automatically processes and
//! loads the data" is only automatic if one bad row cannot take the build
//! down). This crate defines the vocabulary that the ingest layer speaks:
//!
//! * [`SourceId`] — the fixed catalogue of ingested sources, with the
//!   *required* subset (Natural Earth metros, the road network) that the
//!   whole build stands on.
//! * [`RecordError`] — why one record was rejected.
//! * [`Quarantine`] — the sink that captures every rejected record with
//!   source/index/reason provenance, in deterministic input order.
//! * [`BuildPolicy`] — per-source tolerance: how bad a source may get
//!   before it is dropped entirely, and whether any fault at all is fatal
//!   (strict mode, the legacy `Igdb::build` contract).
//! * [`BuildReport`] — per-source health accounting (rows in / accepted /
//!   quarantined / dropped) that exactly partitions every input row.
//! * [`BuildError`] — the typed top-level failure when a required source
//!   is unusable or strict policy is violated.
//!
//! The crate is a leaf: no dependencies, no knowledge of the record types
//! themselves. `igdb-core::validate` applies it to a `SnapshotSet`;
//! `igdb-synth::faults` uses the same [`SourceId`] vocabulary to label
//! injected corruptions so tests can demand exact accounting.

use std::fmt;

// ---------------------------------------------------------------------------
// Source catalogue
// ---------------------------------------------------------------------------

/// Identifies one ingested snapshot source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceId {
    /// Natural Earth populated places — the standardization substrate.
    NaturalEarth,
    /// Public road/rail rights-of-way.
    Roads,
    /// IATA-style geocode dictionary.
    GeoCodes,
    /// Internet Atlas PoP entries.
    AtlasNodes,
    /// Internet Atlas PoP-to-PoP links.
    AtlasLinks,
    /// PeeringDB facilities.
    PdbFacilities,
    /// PeeringDB network records.
    PdbNetworks,
    /// PeeringDB network-at-facility records.
    PdbNetfac,
    /// PeeringDB IXPs with peering LANs.
    PdbIx,
    /// PeeringDB network-at-IXP records.
    PdbNetix,
    /// PCH IXP directory.
    PchIxps,
    /// Hurricane Electric exchange report.
    HeExchanges,
    /// EuroIX IXP feed.
    EuroIx,
    /// Rapid7-style rDNS PTR records.
    Rdns,
    /// CAIDA AS Rank per-AS rows.
    AsRankEntries,
    /// CAIDA AS Rank adjacency list.
    AsRankLinks,
    /// RIPE Atlas anchor registrations.
    RipeAnchors,
    /// RIPE Atlas anchor-mesh traceroutes.
    RipeTraceroutes,
    /// Telegeography submarine cables.
    Telegeo,
    /// BGP RIB prefix→origin entries.
    BgpPrefixes,
    /// Known anycast prefixes.
    AnycastPrefixes,
    /// Hoiho hostname-geolocation rules.
    HoihoRules,
}

impl SourceId {
    /// Every source, in the fixed order reports are rendered in.
    pub const ALL: [SourceId; 22] = [
        SourceId::NaturalEarth,
        SourceId::Roads,
        SourceId::GeoCodes,
        SourceId::AtlasNodes,
        SourceId::AtlasLinks,
        SourceId::PdbFacilities,
        SourceId::PdbNetworks,
        SourceId::PdbNetfac,
        SourceId::PdbIx,
        SourceId::PdbNetix,
        SourceId::PchIxps,
        SourceId::HeExchanges,
        SourceId::EuroIx,
        SourceId::Rdns,
        SourceId::AsRankEntries,
        SourceId::AsRankLinks,
        SourceId::RipeAnchors,
        SourceId::RipeTraceroutes,
        SourceId::Telegeo,
        SourceId::BgpPrefixes,
        SourceId::AnycastPrefixes,
        SourceId::HoihoRules,
    ];

    /// Stable machine-readable name (snake case, used in reports and CLI
    /// output).
    pub fn name(&self) -> &'static str {
        match self {
            SourceId::NaturalEarth => "natural_earth",
            SourceId::Roads => "roads",
            SourceId::GeoCodes => "geo_codes",
            SourceId::AtlasNodes => "atlas_nodes",
            SourceId::AtlasLinks => "atlas_links",
            SourceId::PdbFacilities => "pdb_facilities",
            SourceId::PdbNetworks => "pdb_networks",
            SourceId::PdbNetfac => "pdb_netfac",
            SourceId::PdbIx => "pdb_ix",
            SourceId::PdbNetix => "pdb_netix",
            SourceId::PchIxps => "pch_ixps",
            SourceId::HeExchanges => "he_exchanges",
            SourceId::EuroIx => "euroix",
            SourceId::Rdns => "rdns",
            SourceId::AsRankEntries => "asrank_entries",
            SourceId::AsRankLinks => "asrank_links",
            SourceId::RipeAnchors => "ripe_anchors",
            SourceId::RipeTraceroutes => "ripe_traceroutes",
            SourceId::Telegeo => "telegeo",
            SourceId::BgpPrefixes => "bgp_prefixes",
            SourceId::AnycastPrefixes => "anycast_prefixes",
            SourceId::HoihoRules => "hoiho_rules",
        }
    }

    /// True for sources the build cannot proceed without. Everything else
    /// degrades gracefully (fewer confirmations, fewer inferences — never
    /// a panic).
    pub fn required(&self) -> bool {
        matches!(self, SourceId::NaturalEarth | SourceId::Roads)
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Record- and source-level errors
// ---------------------------------------------------------------------------

/// Why a single record was quarantined.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordError {
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate { field: &'static str },
    /// A coordinate is finite but outside WGS-84 bounds.
    OutOfRangeCoordinate { field: &'static str, value: f64 },
    /// A foreign key references a record that does not exist (or was
    /// itself quarantined).
    DanglingRef { field: &'static str, key: String },
    /// A declared-unique identifier was already seen earlier in the
    /// source; the later record loses.
    DuplicateId { field: &'static str, key: String },
    /// The record is structurally incomplete (truncated row, mismatched
    /// parallel arrays, empty required payload).
    Truncated { detail: String },
    /// A field value is malformed for its domain (negative RTT, NaN
    /// length, …).
    MalformedValue { field: &'static str, detail: String },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::NonFiniteCoordinate { field } => {
                write!(f, "non-finite coordinate in '{field}'")
            }
            RecordError::OutOfRangeCoordinate { field, value } => {
                write!(f, "coordinate '{field}' = {value} outside WGS-84 bounds")
            }
            RecordError::DanglingRef { field, key } => {
                write!(f, "dangling reference '{field}' = {key}")
            }
            RecordError::DuplicateId { field, key } => {
                write!(f, "duplicate id '{field}' = {key}")
            }
            RecordError::Truncated { detail } => write!(f, "truncated record: {detail}"),
            RecordError::MalformedValue { field, detail } => {
                write!(f, "malformed '{field}': {detail}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Why an entire source was unusable.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceFailure {
    /// The source published no rows at all.
    Empty,
    /// Bad rows exceeded the policy threshold.
    ExcessiveBadRows {
        bad: usize,
        rows: usize,
        threshold: f64,
    },
}

impl fmt::Display for SourceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceFailure::Empty => write!(f, "source is empty"),
            SourceFailure::ExcessiveBadRows {
                bad,
                rows,
                threshold,
            } => write!(
                f,
                "{bad}/{rows} rows bad, above the {:.0}% drop threshold",
                threshold * 100.0
            ),
        }
    }
}

/// Top-level build failure. `try_build` returns this instead of panicking.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// A source the whole build stands on is missing or too corrupt.
    RequiredSourceUnusable {
        source: SourceId,
        failure: SourceFailure,
    },
    /// Strict policy: the first fault encountered aborts the build.
    FaultUnderStrictPolicy {
        source: SourceId,
        index: usize,
        error: RecordError,
    },
    /// Internal accounting diverged: two views of the same quantity (the
    /// quarantine ledger, the per-source health rows, the observability
    /// counters) disagree. Always a bug in the pipeline, never in the
    /// input data — surfaced as a typed error instead of silently shipping
    /// numbers that don't add up.
    InternalAccounting {
        source: SourceId,
        /// Which quantity diverged (e.g. `"rows_quarantined"`).
        what: &'static str,
        expected: usize,
        actual: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::RequiredSourceUnusable { source, failure } => {
                write!(f, "required source '{source}' unusable: {failure}")
            }
            BuildError::FaultUnderStrictPolicy {
                source,
                index,
                error,
            } => write!(
                f,
                "strict policy: fault in '{source}' record {index}: {error}"
            ),
            BuildError::InternalAccounting {
                source,
                what,
                expected,
                actual,
            } => write!(
                f,
                "internal accounting error: '{source}' {what} expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

/// One captured bad record: full provenance, no payload (the payload stays
/// in the snapshot; the index is enough to find it).
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedRecord {
    pub source: SourceId,
    /// Position of the record within its source, 0-based.
    pub index: usize,
    /// The record's own identifier where it has one (fac_id, node name…).
    pub key: Option<String>,
    pub error: RecordError,
}

/// The quarantine sink. Records arrive in source-catalogue order, then
/// input order within a source — deterministic regardless of worker count
/// (validation is a serial pre-pass by design).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Quarantine {
    records: Vec<QuarantinedRecord>,
}

impl Quarantine {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(
        &mut self,
        source: SourceId,
        index: usize,
        key: Option<String>,
        error: RecordError,
    ) {
        self.records.push(QuarantinedRecord {
            source,
            index,
            key,
            error,
        });
    }

    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of quarantined records from one source.
    pub fn count_for(&self, source: SourceId) -> usize {
        self.records.iter().filter(|r| r.source == source).count()
    }

    /// True if the record at `index` of `source` was quarantined.
    pub fn contains(&self, source: SourceId, index: usize) -> bool {
        self.records
            .iter()
            .any(|r| r.source == source && r.index == index)
    }
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Per-source tolerance for bad rows.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildPolicy {
    /// Any quarantined record at all aborts the build with
    /// [`BuildError::FaultUnderStrictPolicy`]. The legacy `Igdb::build`
    /// contract.
    pub fail_fast: bool,
    /// Fraction of bad rows above which a source is dropped entirely
    /// (optional sources) or the build fails (required sources).
    pub drop_source_above: f64,
    /// Per-source threshold overrides.
    overrides: Vec<(SourceId, f64)>,
}

impl BuildPolicy {
    /// Zero tolerance: the first bad record is a typed error.
    pub fn strict() -> Self {
        Self {
            fail_fast: true,
            drop_source_above: 0.0,
            overrides: Vec::new(),
        }
    }

    /// Production default: quarantine bad rows, drop a source once more
    /// than half of it is bad, fail only on unusable required sources.
    pub fn lenient() -> Self {
        Self {
            fail_fast: false,
            drop_source_above: 0.5,
            overrides: Vec::new(),
        }
    }

    /// Replaces the default drop threshold (per-source overrides keep
    /// precedence).
    pub fn with_drop_above(mut self, threshold: f64) -> Self {
        self.drop_source_above = threshold;
        self
    }

    /// Overrides the drop threshold for one source.
    pub fn with_threshold(mut self, source: SourceId, threshold: f64) -> Self {
        self.overrides.retain(|(s, _)| *s != source);
        self.overrides.push((source, threshold));
        self
    }

    /// The effective drop threshold for a source.
    pub fn threshold_for(&self, source: SourceId) -> f64 {
        self.overrides
            .iter()
            .find(|(s, _)| *s == source)
            .map(|&(_, t)| t)
            .unwrap_or(self.drop_source_above)
    }
}

impl Default for BuildPolicy {
    fn default() -> Self {
        Self::lenient()
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Per-source accounting. Invariant (checked by the fault-injection
/// suite): `accepted + quarantined == rows_in` unless the source was
/// dropped, in which case `accepted == 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct SourceHealth {
    pub source: SourceId,
    /// Rows the source published.
    pub rows_in: usize,
    /// Rows that passed validation and fed the build.
    pub rows_accepted: usize,
    /// Rows individually rejected (each has a [`QuarantinedRecord`]).
    pub rows_quarantined: usize,
    /// The whole source was discarded (bad-row fraction above policy).
    pub dropped: bool,
}

impl SourceHealth {
    fn status(&self) -> String {
        if self.dropped {
            "DROPPED".to_string()
        } else if self.rows_in == 0 {
            "missing".to_string()
        } else if self.rows_quarantined > 0 {
            "degraded".to_string()
        } else {
            "ok".to_string()
        }
    }
}

/// Summary of one validated ingestion: per-source health plus the full
/// quarantine. Rendered by `igdb build --report`.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildReport {
    sources: Vec<SourceHealth>,
    quarantine: Quarantine,
}

impl BuildReport {
    /// Builds a report; `sources` must follow [`SourceId::ALL`] order.
    pub fn new(sources: Vec<SourceHealth>, quarantine: Quarantine) -> Self {
        debug_assert_eq!(sources.len(), SourceId::ALL.len());
        Self {
            sources,
            quarantine,
        }
    }

    pub fn sources(&self) -> &[SourceHealth] {
        &self.sources
    }

    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Health entry for one source.
    pub fn health(&self, source: SourceId) -> &SourceHealth {
        self.sources
            .iter()
            .find(|h| h.source == source)
            .expect("report covers every source")
    }

    /// Total quarantined records across all sources.
    pub fn total_quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// True when every row of every source was accepted.
    pub fn is_clean(&self) -> bool {
        self.quarantine.is_empty() && self.sources.iter().all(|h| !h.dropped)
    }

    /// Verifies the report's internal accounting: per source, the
    /// quarantine ledger must carry exactly `rows_quarantined` records,
    /// dropped sources must have accepted nothing, and every non-dropped
    /// source must partition its input (`accepted + quarantined ==
    /// rows_in`). A failure is a pipeline bug, reported as
    /// [`BuildError::InternalAccounting`].
    pub fn crosscheck(&self) -> Result<(), BuildError> {
        for h in &self.sources {
            let ledger = self.quarantine.count_for(h.source);
            if ledger != h.rows_quarantined {
                return Err(BuildError::InternalAccounting {
                    source: h.source,
                    what: "quarantine ledger vs rows_quarantined",
                    expected: h.rows_quarantined,
                    actual: ledger,
                });
            }
            if h.dropped {
                if h.rows_accepted != 0 {
                    return Err(BuildError::InternalAccounting {
                        source: h.source,
                        what: "rows_accepted from a dropped source",
                        expected: 0,
                        actual: h.rows_accepted,
                    });
                }
            } else if h.rows_accepted + h.rows_quarantined != h.rows_in {
                return Err(BuildError::InternalAccounting {
                    source: h.source,
                    what: "accepted + quarantined vs rows_in",
                    expected: h.rows_in,
                    actual: h.rows_accepted + h.rows_quarantined,
                });
            }
        }
        Ok(())
    }

    /// Sources that were dropped entirely.
    pub fn dropped_sources(&self) -> Vec<SourceId> {
        self.sources
            .iter()
            .filter(|h| h.dropped)
            .map(|h| h.source)
            .collect()
    }
}

impl fmt::Display for BuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>8} {:>9} {:>12}  status",
            "source", "rows", "accepted", "quarantined"
        )?;
        for h in &self.sources {
            writeln!(
                f,
                "{:<18} {:>8} {:>9} {:>12}  {}",
                h.source.name(),
                h.rows_in,
                h.rows_accepted,
                h.rows_quarantined,
                h.status()
            )?;
        }
        if !self.quarantine.is_empty() {
            writeln!(f, "quarantined records:")?;
            for r in self.quarantine.records().iter().take(20) {
                match &r.key {
                    Some(k) => writeln!(f, "  {}[{}] ({k}): {}", r.source, r.index, r.error)?,
                    None => writeln!(f, "  {}[{}]: {}", r.source, r.index, r.error)?,
                }
            }
            if self.quarantine.len() > 20 {
                writeln!(f, "  … and {} more", self.quarantine.len() - 20)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serving-path errors
// ---------------------------------------------------------------------------

/// Why a serving-path request failed. This is the *complete* error
/// taxonomy of the query server: every request admitted by `igdb-serve`
/// resolves to either a typed result or exactly one of these variants —
/// the chaos harness's ledger accounting depends on there being no other
/// failure channel (no hangs, no silent drops, no panics escaping a
/// worker).
///
/// Each variant has a stable one-byte wire code (see [`ServeError::code`])
/// so the binary protocol can round-trip the taxonomy without stringly
/// matching, and a stable [`name`](ServeError::name) used as the metric
/// label on the server's shed/timeout/internal perf counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The frame or its payload did not decode to a valid request:
    /// bad magic, truncated or oversized frame, unknown opcode, trailing
    /// bytes, out-of-range parameters, or a write stall mid-frame.
    BadRequest {
        /// Human-readable decode failure (carried on the wire).
        detail: String,
    },
    /// The request's monotonic deadline expired before (or while) the
    /// analysis ran. The budget it was admitted with is echoed back so
    /// clients can distinguish "server slow" from "I asked for too
    /// little".
    Timeout {
        /// The deadline the request was admitted with, in milliseconds.
        budget_ms: u64,
    },
    /// Admission control shed the request: the bounded queue was full.
    /// Carries the queue depth observed at rejection so load generators
    /// can see the backpressure point.
    Overloaded {
        /// Queue occupancy when the request was rejected.
        queue_depth: u32,
    },
    /// The analysis panicked; the worker caught it at the request
    /// boundary and the server kept running. The payload's panic message
    /// (when it was a string) is carried for diagnosis.
    Internal {
        /// Panic payload rendered to text, or a placeholder.
        detail: String,
    },
    /// The server is draining: in-flight requests finish, new ones are
    /// refused with this.
    ShuttingDown,
}

impl ServeError {
    /// All variant names, in wire-code order (metric labels, ledger keys).
    pub const NAMES: [&'static str; 5] = [
        "bad_request",
        "timeout",
        "overloaded",
        "internal",
        "shutting_down",
    ];

    /// Stable one-byte wire code for the variant.
    pub fn code(&self) -> u8 {
        match self {
            ServeError::BadRequest { .. } => 1,
            ServeError::Timeout { .. } => 2,
            ServeError::Overloaded { .. } => 3,
            ServeError::Internal { .. } => 4,
            ServeError::ShuttingDown => 5,
        }
    }

    /// Stable variant name: the metric label on serve-side perf counters
    /// and the key the chaos ledger matches observed outcomes against.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.code() as usize - 1]
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Timeout { budget_ms } => {
                write!(f, "deadline expired (budget {budget_ms} ms)")
            }
            ServeError::Overloaded { queue_depth } => {
                write!(f, "overloaded (queue depth {queue_depth})")
            }
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_healths() -> Vec<SourceHealth> {
        SourceId::ALL
            .iter()
            .map(|&source| SourceHealth {
                source,
                rows_in: 0,
                rows_accepted: 0,
                rows_quarantined: 0,
                dropped: false,
            })
            .collect()
    }

    #[test]
    fn source_catalogue_is_complete_and_unique() {
        let mut names: Vec<&str> = SourceId::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate source names");
        assert!(SourceId::NaturalEarth.required());
        assert!(SourceId::Roads.required());
        assert!(!SourceId::PchIxps.required());
        assert_eq!(
            SourceId::ALL.iter().filter(|s| s.required()).count(),
            2,
            "only the metro registry and road network are load-bearing"
        );
    }

    #[test]
    fn policy_thresholds_and_overrides() {
        let p = BuildPolicy::lenient().with_threshold(SourceId::PchIxps, 0.1);
        assert_eq!(p.threshold_for(SourceId::PchIxps), 0.1);
        assert_eq!(p.threshold_for(SourceId::Rdns), 0.5);
        // A second override for the same source replaces the first.
        let p = p.with_threshold(SourceId::PchIxps, 0.2);
        assert_eq!(p.threshold_for(SourceId::PchIxps), 0.2);
        assert!(BuildPolicy::strict().fail_fast);
        assert!(!BuildPolicy::default().fail_fast);
    }

    #[test]
    fn quarantine_provenance_queries() {
        let mut q = Quarantine::new();
        q.push(
            SourceId::PdbNetfac,
            7,
            Some("net 3 → fac 9000000".into()),
            RecordError::DanglingRef {
                field: "fac_id",
                key: "9000000".into(),
            },
        );
        q.push(
            SourceId::AtlasNodes,
            2,
            None,
            RecordError::NonFiniteCoordinate { field: "lat" },
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.count_for(SourceId::PdbNetfac), 1);
        assert!(q.contains(SourceId::AtlasNodes, 2));
        assert!(!q.contains(SourceId::AtlasNodes, 3));
        assert!(!q.contains(SourceId::Rdns, 2));
    }

    #[test]
    fn report_accounting_and_rendering() {
        let mut sources = empty_healths();
        {
            let h = sources
                .iter_mut()
                .find(|h| h.source == SourceId::AtlasNodes)
                .unwrap();
            h.rows_in = 10;
            h.rows_accepted = 8;
            h.rows_quarantined = 2;
        }
        {
            let h = sources
                .iter_mut()
                .find(|h| h.source == SourceId::PchIxps)
                .unwrap();
            h.rows_in = 4;
            h.rows_quarantined = 4;
            h.dropped = true;
        }
        let mut q = Quarantine::new();
        q.push(
            SourceId::AtlasNodes,
            0,
            None,
            RecordError::NonFiniteCoordinate { field: "lon" },
        );
        let report = BuildReport::new(sources, q);
        assert!(!report.is_clean());
        assert_eq!(report.total_quarantined(), 1);
        assert_eq!(report.dropped_sources(), vec![SourceId::PchIxps]);
        assert_eq!(report.health(SourceId::AtlasNodes).rows_accepted, 8);
        let rendered = report.to_string();
        assert!(rendered.contains("atlas_nodes"));
        assert!(rendered.contains("DROPPED"));
        assert!(rendered.contains("degraded"));
        assert!(rendered.contains("non-finite coordinate"));
    }

    #[test]
    fn crosscheck_accepts_consistent_and_rejects_divergent_reports() {
        let mut sources = empty_healths();
        {
            let h = sources
                .iter_mut()
                .find(|h| h.source == SourceId::AtlasNodes)
                .unwrap();
            h.rows_in = 5;
            h.rows_accepted = 4;
            h.rows_quarantined = 1;
        }
        let mut q = Quarantine::new();
        q.push(
            SourceId::AtlasNodes,
            3,
            None,
            RecordError::NonFiniteCoordinate { field: "lat" },
        );
        let report = BuildReport::new(sources.clone(), q.clone());
        report.crosscheck().unwrap();

        // Ledger vs health divergence.
        let report = BuildReport::new(sources.clone(), Quarantine::new());
        let err = report.crosscheck().unwrap_err();
        assert!(matches!(
            err,
            BuildError::InternalAccounting {
                source: SourceId::AtlasNodes,
                expected: 1,
                actual: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("atlas_nodes"));

        // Non-partitioning health row.
        sources
            .iter_mut()
            .find(|h| h.source == SourceId::AtlasNodes)
            .unwrap()
            .rows_accepted = 3;
        let err = BuildReport::new(sources.clone(), q.clone())
            .crosscheck()
            .unwrap_err();
        assert!(err.to_string().contains("accepted + quarantined"));

        // Dropped source that still claims accepted rows.
        let h = sources
            .iter_mut()
            .find(|h| h.source == SourceId::AtlasNodes)
            .unwrap();
        h.dropped = true;
        h.rows_accepted = 2;
        let err = BuildReport::new(sources, q).crosscheck().unwrap_err();
        assert!(err.to_string().contains("dropped source"));
    }

    #[test]
    fn errors_render_with_context() {
        let e = BuildError::RequiredSourceUnusable {
            source: SourceId::NaturalEarth,
            failure: SourceFailure::ExcessiveBadRows {
                bad: 9,
                rows: 10,
                threshold: 0.5,
            },
        };
        let s = e.to_string();
        assert!(s.contains("natural_earth"));
        assert!(s.contains("9/10"));
        let e = BuildError::FaultUnderStrictPolicy {
            source: SourceId::Roads,
            index: 4,
            error: RecordError::MalformedValue {
                field: "length_km",
                detail: "NaN".into(),
            },
        };
        assert!(e.to_string().contains("record 4"));
    }

    #[test]
    fn serve_error_codes_and_names_are_stable() {
        let all = [
            ServeError::BadRequest { detail: "x".into() },
            ServeError::Timeout { budget_ms: 250 },
            ServeError::Overloaded { queue_depth: 8 },
            ServeError::Internal {
                detail: "boom".into(),
            },
            ServeError::ShuttingDown,
        ];
        // Wire codes are 1-based, dense, and in NAMES order — the binary
        // protocol and the chaos ledger both key on this.
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.code() as usize, i + 1);
            assert_eq!(e.name(), ServeError::NAMES[i]);
        }
        assert!(all[1].to_string().contains("250 ms"));
        assert!(all[2].to_string().contains("queue depth 8"));
        assert!(all[3].to_string().contains("boom"));
    }
}
