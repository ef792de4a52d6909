//! `igdb-bench` — the evaluation harness.
//!
//! One report binary per table and figure of the paper (see `src/bin/`).
//! The binaries print the same rows/series the paper reports, side by side
//! with the paper's published values where absolute numbers exist;
//! EXPERIMENTS.md records a captured run. Timings are not taken here: the
//! repo's one measurement path is `benchmark/` (see `BENCHMARK.json`).
//!
//! All reports share one world fixture per scale, built lazily and cached
//! for the process lifetime, so running several reports in one shell stays
//! cheap.

use std::sync::OnceLock;

use igdb_core::Igdb;
use igdb_synth::{emit_snapshots, SnapshotSet, World, WorldConfig};

/// Fixture scale selection (CLI flag `--scale tiny|medium|paper`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Medium,
    Paper,
    Large,
    Planet,
}

impl Scale {
    pub fn parse(args: &[String]) -> Scale {
        match args.iter().position(|a| a == "--scale") {
            Some(i) => match args.get(i + 1).map(String::as_str) {
                Some("tiny") => Scale::Tiny,
                Some("medium") => Scale::Medium,
                Some("paper") => Scale::Paper,
                Some("large") => Scale::Large,
                Some("planet") => Scale::Planet,
                other => panic!("unknown --scale {other:?} (tiny|medium|paper|large|planet)"),
            },
            None => Scale::Medium,
        }
    }

    pub fn config(&self) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(),
            Scale::Medium => WorldConfig::medium(),
            Scale::Paper => WorldConfig::paper(),
            Scale::Large => WorldConfig::large(),
            Scale::Planet => WorldConfig::planet(),
        }
    }

    /// Traceroute mesh cap per scale (full mesh is quadratic in anchors).
    pub fn mesh_pairs(&self) -> usize {
        match self {
            Scale::Tiny => 500,
            Scale::Medium => 2500,
            Scale::Paper => 4000,
            Scale::Large => 4000,
            Scale::Planet => 4000,
        }
    }
}

/// A fully built fixture: the world, its snapshots, and the iGDB database.
pub struct Fixture {
    pub world: World,
    pub snaps: SnapshotSet,
    pub igdb: Igdb,
}

impl Fixture {
    pub fn build(scale: Scale) -> Fixture {
        let world = World::generate(scale.config());
        let snaps = emit_snapshots(&world, "2022-05-03", scale.mesh_pairs());
        let igdb = Igdb::build(&snaps);
        Fixture { world, snaps, igdb }
    }
}

static TINY: OnceLock<Fixture> = OnceLock::new();
static MEDIUM: OnceLock<Fixture> = OnceLock::new();
static PAPER: OnceLock<Fixture> = OnceLock::new();
static LARGE: OnceLock<Fixture> = OnceLock::new();
static PLANET: OnceLock<Fixture> = OnceLock::new();

/// Process-cached fixture for a scale.
pub fn fixture(scale: Scale) -> &'static Fixture {
    let cell = match scale {
        Scale::Tiny => &TINY,
        Scale::Medium => &MEDIUM,
        Scale::Paper => &PAPER,
        Scale::Large => &LARGE,
        Scale::Planet => &PLANET,
    };
    cell.get_or_init(|| Fixture::build(scale))
}

/// Renders a two-column "paper vs measured" comparison row.
pub fn compare_row(label: &str, paper: &str, measured: impl std::fmt::Display) -> String {
    format!("{label:<44} {paper:>16} {measured:>16}")
}

/// Report header with the standard three columns.
pub fn header(title: &str) -> String {
    format!(
        "== {title} ==\n{}\n{}",
        compare_row("metric", "paper", "measured"),
        "-".repeat(78)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &str| vec!["--scale".to_string(), s.to_string()];
        assert_eq!(Scale::parse(&args("tiny")), Scale::Tiny);
        assert_eq!(Scale::parse(&args("medium")), Scale::Medium);
        assert_eq!(Scale::parse(&args("paper")), Scale::Paper);
        assert_eq!(Scale::parse(&[]), Scale::Medium);
    }

    #[test]
    fn tiny_fixture_builds_once_and_caches() {
        let a = fixture(Scale::Tiny) as *const _;
        let b = fixture(Scale::Tiny) as *const _;
        assert_eq!(a, b);
        assert!(fixture(Scale::Tiny).igdb.db.row_count("phys_nodes").unwrap() > 0);
    }
}
