//! `igdb` — the command-line face of the toolkit.
//!
//! The paper ships iGDB as "a system designed to automate the process of
//! collecting Internet topology and measurement data from public sources,
//! organize the collected data into a database, and enable visualization
//! and analysis". This binary covers that loop:
//!
//! ```text
//! igdb build --scale medium --out ./igdb-db        # collect + load + save
//! igdb tables --db ./igdb-db                       # inventory
//! igdb query  --db ./igdb-db --table asn_loc --where asn=64174 --limit 10
//! igdb metro  --db ./igdb-db --lon -94.58 --lat 39.1   # spatial join
//! igdb export --db ./igdb-db --out map.geojson     # the Figure 5 layers
//! igdb report table1 fig7 --scale medium           # the paper's evaluation
//! ```

mod report;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::time::Duration;

use igdb_core::analysis::beliefprop::{consistency_check, propagate, BeliefPropParams};
use igdb_core::analysis::export::MapExport;
use igdb_core::{BuildError, BuildPolicy, Igdb};
use igdb_db::{Database, Predicate, Query, Value};
use igdb_fault::ServeError;
use igdb_geo::{GeoPoint, NearestSiteIndex};
use igdb_serve::{
    loadgen_session, run_loadgen, Client, Introspection, Listener, LoadgenConfig, Request,
    Response, Server, ServerAddr, ServerConfig,
};
use igdb_synth::faults::FaultClass;
use igdb_synth::{emit_snapshots, generate_delta, inject_faults, DeltaClass, World, WorldConfig};

/// Typed CLI failure: every exit path renders through this, so file-IO
/// errors carry the path and action instead of a bare `io::Error` string.
enum CliError {
    /// Bad arguments or a domain-level complaint.
    Usage(String),
    /// The pipeline refused the input (or caught an internal accounting
    /// bug).
    Build(BuildError),
    /// A file operation failed; `path` and `action` say which one.
    Io {
        path: PathBuf,
        action: &'static str,
        source: std::io::Error,
    },
    /// `metrics diff` found divergences (the delta table is already on
    /// stdout). Reserved exit code 2 so CI can tell "regression" from
    /// "broken invocation".
    Diverged { divergences: usize },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Build(e) => write!(f, "build failed: {e}"),
            CliError::Io {
                path,
                action,
                source,
            } => write!(f, "cannot {action} {}: {source}", path.display()),
            CliError::Diverged { divergences } => write!(
                f,
                "metrics diverged from baseline ({divergences} divergence{})",
                if *divergences == 1 { "" } else { "s" }
            ),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<BuildError> for CliError {
    fn from(e: BuildError) -> Self {
        CliError::Build(e)
    }
}

/// Wraps a file operation with path/action provenance.
fn io_ctx<T>(
    r: Result<T, std::io::Error>,
    action: &'static str,
    path: &Path,
) -> Result<T, CliError> {
    r.map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        action,
        source,
    })
}

fn main() -> ExitCode {
    // Batch pipeline: keep peak RSS at the live set, not allocator history.
    igdb_core::igdb_obs::use_mmap_for_large_allocs(128 * 1024);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd {
        "build" => cmd_build(&args[1..]),
        "tables" => cmd_tables(&args[1..]).map_err(CliError::from),
        "query" => cmd_query(&args[1..]).map_err(CliError::from),
        "metro" => cmd_metro(&args[1..]).map_err(CliError::from),
        "export" => cmd_export(&args[1..]).map_err(CliError::from),
        "metrics" => cmd_metrics(&args[1..]),
        "queries" => cmd_queries(&args[1..]),
        "delta" => cmd_delta(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e @ CliError::Diverged { .. }) => {
            eprintln!("igdb: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("igdb: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: igdb <command> [options]

A synthetic world's TIER is tiny (the default), medium, paper, large or
planet.

commands:
  build   --out DIR [--scale TIER] [--date YYYY-MM-DD] [--mesh N]
          [--policy strict|lenient] [--drop-above FRAC] [--report [FILE]]
          [--corrupt SEED] [--metrics FILE.jsonl] [--trace]
          [--counters FILE] [--fingerprint]
          generate source snapshots, run the pipeline, save the database;
          --report prints per-source ingestion health (or writes it to
          FILE), --corrupt injects seeded faults into every source (a
          fault-tolerance demo), --metrics writes pipeline counters and
          spans as JSON-lines, --trace prints the span tree to stderr;
          --counters writes the deterministic counter stream and
          --fingerprint prints `fingerprint <16 hex>` of the database:
          diff both between the parent commit's binary and a change's.
          Prints `built <rows> rows in <ms> ms, peak RSS <MB> MB (VmHWM)`
          to stderr
  tables  --db DIR
          list relations and row counts
  metrics --in FILE.jsonl [--profile]
          render a saved --metrics JSON-lines stream as a table;
          --profile appends the flame-style span profile (per-span total
          and self time, call counts, critical path)
  metrics diff BASELINE.jsonl CURRENT.jsonl
          regression gate: counters must match exactly and the span tree
          structurally (timing ignored); perf counters and histograms are
          never compared (timings are gated by `bench compare` over the
          benchmark's paired runs). Exits 2 with a per-metric delta table
          on divergence
  queries --out FILE.jsonl [--scale TIER] [--date YYYY-MM-DD]
          [--mesh N] [--deterministic]
          build a database and serve the fixed synthetic query mix (all
          five analyses) plus the §4.4 belief-propagation pass, writing
          the telemetry as JSON-lines; --deterministic redacts timing
          (the committed-baseline format)
  delta   --out FILE.jsonl [--scale TIER] [--date YYYY-MM-DD]
          [--mesh N] [--seed N]
          build a database, derive a seeded churn delta from its sources,
          and apply it incrementally, writing the apply's deterministic
          counter/span stream as JSON-lines (the committed-baseline
          format gated by `metrics diff` in CI)
  serve   (--listen HOST:PORT | --unix PATH) [--scale TIER]
          [--date YYYY-MM-DD] [--mesh N] [--workers N] [--queue N]
          [--deadline-ms N] [--metrics FILE.jsonl]
          [--churn-ms N [--churn-seed N]]
          [--slow-ms N] [--slow-log FILE.jsonl] [--trace-ring N]
          build a database and serve it over the binary protocol with
          per-request deadlines, bounded-queue backpressure, and panic
          containment; runs until stdin closes, then drains gracefully
          (finishes in-flight work, rejects new requests typed) and
          flushes metrics. --churn-ms applies a seeded source delta
          every N ms and publishes it as a new epoch while serving —
          in-flight requests finish on the epoch they started on.
          --slow-ms sends every request at/over the threshold to the
          flight recorder's slow-query log; --slow-log appends those
          span trees as JSON-lines readable by `igdb metrics --in`;
          --trace-ring sizes the in-memory ring of completed traces
  top     --addr HOST:PORT|unix:PATH [--interval SECS] [--once] [--counters]
          poll a live server's versioned Introspect op and render the
          liveness gauges (epoch, metros, busy workers, queue) and the
          flight recorder: ledger totals, per-client rows (requests,
          ok/err by kind, bytes, queue-wait quantiles), pinned-epoch
          distribution and epoch.lag; --once prints one snapshot and
          exits, --counters appends the deterministic counter stream
  loadgen [--addr HOST:PORT|unix:PATH] [--requests N] [--conns N]
          [--seed N] [--qps Q] [--deadline-ms N] [--scale TIER]
          [--mesh N] [--workers N] [--queue N] [--out FILE.jsonl]
          [--deterministic]
          replay a seeded query mix and report throughput and latency
          quantiles (p50/p99); --qps>0 paces an open loop (measures
          shedding under saturation), otherwise a deterministic closed
          loop. Without --addr an in-process server is started and the
          merged server+client telemetry is written to --out
          (--deterministic gives the committed-baseline format)
  report  ID... [--scale TIER] [--date YYYY-MM-DD] [--mesh N]
          build one world and print the named reports of the paper's
          evaluation over it, in order; ID is one of
          {ids}
  query   --db DIR --table NAME [--where col=value ...] [--select a,b,c]
          [--limit N] [--order col[:desc]]
  metro   --db DIR --lon X --lat Y
          standardize a coordinate (Thiessen spatial join)
  export  --db DIR --out FILE.geojson
          export the physical map layers (Figure 5)";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flags(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 1;
        }
        i += 1;
    }
    out
}

/// The usage text, listing the report ids from their dispatch table.
fn usage() -> String {
    USAGE.replace("{ids}", &report_ids())
}

/// Shared `--scale` parser; every subcommand accepts the same tiers.
fn parse_scale(scale: &str) -> Result<WorldConfig, String> {
    match scale {
        "tiny" => Ok(WorldConfig::tiny()),
        "medium" => Ok(WorldConfig::medium()),
        "paper" => Ok(WorldConfig::paper()),
        "large" => Ok(WorldConfig::large()),
        "planet" => Ok(WorldConfig::planet()),
        other => Err(format!(
            "unknown --scale '{other}' (tiny|medium|paper|large|planet)"
        )),
    }
}

fn require(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("missing required option {name}"))
}

/// The synthetic world a building subcommand asks for.
struct WorldFlags {
    scale: String,
    config: WorldConfig,
    date: String,
    mesh: usize,
}

/// Parses the shared `--scale` (default tiny), `--date` and `--mesh`
/// flags; only the default traceroute mesh differs between subcommands.
fn world_flags(args: &[String], default_mesh: usize) -> Result<WorldFlags, String> {
    let scale = flag(args, "--scale").unwrap_or_else(|| "tiny".into());
    let date = flag(args, "--date").unwrap_or_else(|| "2022-05-03".into());
    let mesh = flag(args, "--mesh")
        .map(|m| m.parse().map_err(|e| format!("bad --mesh: {e}")))
        .transpose()?
        .unwrap_or(default_mesh);
    let config = parse_scale(&scale)?;
    Ok(WorldFlags {
        scale,
        config,
        date,
        mesh,
    })
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let out = PathBuf::from(require(args, "--out")?);
    let WorldFlags {
        scale,
        config,
        date,
        mesh,
    } = world_flags(args, 500)?;
    let policy = match flag(args, "--policy").as_deref() {
        None | Some("lenient") => BuildPolicy::lenient(),
        Some("strict") => BuildPolicy::strict(),
        Some(other) => return Err(format!("unknown --policy '{other}' (strict|lenient)").into()),
    };
    let policy = match flag(args, "--drop-above") {
        Some(frac) => {
            let frac: f64 = frac.parse().map_err(|e| format!("bad --drop-above: {e}"))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err("--drop-above wants a fraction in [0, 1]".into());
            }
            policy.with_drop_above(frac)
        }
        None => policy,
    };
    // --report takes an optional FILE operand: bare prints to stdout.
    let report_dest: Option<Option<PathBuf>> = args.iter().position(|a| a == "--report").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(PathBuf::from)
    });
    let metrics_path = flag(args, "--metrics").map(PathBuf::from);
    let want_trace = args.iter().any(|a| a == "--trace");

    // Open output destinations *before* paying for the build, so an
    // unwritable --metrics/--report path fails fast with a typed error.
    use std::io::Write as _;
    let mut metrics_file = match &metrics_path {
        Some(p) => Some(io_ctx(std::fs::File::create(p), "create metrics file", p)?),
        None => None,
    };
    let mut report_file = match &report_dest {
        Some(Some(p)) => Some(io_ctx(std::fs::File::create(p), "create report file", p)?),
        _ => None,
    };

    eprintln!("generating world ({scale})…");
    let world = World::generate(config);
    eprintln!("emitting snapshots for {date}…");
    let mut snaps = emit_snapshots(&world, &date, mesh);
    // The world is only needed to emit sources; at planet scale keeping its
    // routing tables alive through the build costs more RSS than the build.
    drop(world);
    // Return the generator's freed pages before the build stacks its own
    // working set on top of them (keeps peak RSS ≈ live data).
    igdb_core::igdb_obs::trim_heap();
    if let Some(seed) = flag(args, "--corrupt") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad --corrupt: {e}"))?;
        let ledger = inject_faults(&mut snaps, seed, &FaultClass::ALL_RECORD_CLASSES);
        eprintln!("injected {} faults (seed {seed})…", ledger.len());
    }
    eprintln!("building database…");
    let registry = igdb_obs::Registry::new();
    let started = std::time::Instant::now();
    let (igdb, report) = {
        let _g = registry.install();
        Igdb::try_build(&snaps, &policy)?
    };
    // The scaling row: pipeline time only, and the whole process's
    // high-water mark (at the big tiers the world generator sets it).
    eprintln!(
        "built {} rows in {} ms, peak RSS {:.1} MB (VmHWM)",
        total_rows(&igdb.db),
        started.elapsed().as_millis(),
        igdb_obs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
    );
    match &report_dest {
        Some(None) => println!("{report}"),
        Some(Some(p)) => {
            let f = report_file.as_mut().expect("opened above");
            io_ctx(write!(f, "{report}"), "write report file", p)?;
        }
        None if !report.is_clean() => eprintln!(
            "warning: {} records quarantined, {} sources dropped (rerun with --report)",
            report.total_quarantined(),
            report.dropped_sources().len()
        ),
        None => {}
    }
    if let Some(f) = &mut metrics_file {
        let p = metrics_path.as_ref().expect("path implies file");
        io_ctx(
            f.write_all(registry.json_lines(igdb_obs::JsonMode::Full).as_bytes()),
            "write metrics file",
            p,
        )?;
        eprintln!("wrote metrics to {}", p.display());
    }
    if want_trace {
        eprint!("{}", render_spans(&registry));
    }
    if let Some(p) = flag(args, "--counters").map(PathBuf::from) {
        // The deterministic counter stream only (no perf-class metrics):
        // byte-diffable between the parent commit's binary and a change's.
        io_ctx(
            std::fs::write(&p, registry.counter_snapshot()),
            "write counters file",
            &p,
        )?;
        eprintln!("wrote counter stream to {}", p.display());
    }
    igdb.db.save_dir(&out).map_err(|e| e.to_string())?;
    eprintln!(
        "saved {} relations to {}",
        igdb.db.table_names().len(),
        out.display()
    );
    if args.iter().any(|a| a == "--fingerprint") {
        println!(
            "fingerprint {:016x}",
            fingerprint_hash(&igdb.db.fingerprint())
        );
    }
    Ok(())
}

fn total_rows(db: &Database) -> usize {
    db.table_names()
        .iter()
        .map(|t| db.row_count(t).unwrap_or(0))
        .sum()
}

/// FNV-1a 64 over the canonical database fingerprint: a short,
/// platform-stable digest to compare between two binaries' builds
/// without shipping the multi-megabyte fingerprint itself.
fn fingerprint_hash(fp: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in fp.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The span tree, indented by depth, durations in ms.
fn render_spans(reg: &igdb_obs::Registry) -> String {
    let mut out = String::new();
    for s in reg.spans() {
        let dur = s
            .dur_us
            .map(|d| format!("{:.3} ms", d as f64 / 1000.0))
            .unwrap_or_else(|| "(open)".to_string());
        out.push_str(&format!("{}{} {}\n", "  ".repeat(s.depth), s.name, dur));
    }
    out
}

/// Reads and parses a JSON-lines metrics stream; parse errors carry the
/// path and the offending line number (the parser prefixes `line N:`).
fn load_metrics(path: &Path) -> Result<igdb_obs::Registry, CliError> {
    let doc = io_ctx(std::fs::read_to_string(path), "read metrics file", path)?;
    igdb_obs::Registry::from_json_lines(&doc)
        .map_err(|e| CliError::Usage(format!("malformed metrics file {}: {e}", path.display())))
}

fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("diff") {
        return cmd_metrics_diff(&args[1..]);
    }
    let input = PathBuf::from(require(args, "--in")?);
    let reg = load_metrics(&input)?;
    print!("{}", reg.render_table());
    if args.iter().any(|a| a == "--profile") {
        print!("{}", reg.profile().render_table());
    }
    Ok(())
}

/// `igdb metrics diff BASELINE.jsonl CURRENT.jsonl` — the regression gate.
/// Exit 0 when clean, exit 2 with a per-metric delta table on divergence.
fn cmd_metrics_diff(args: &[String]) -> Result<(), CliError> {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [baseline, current] = files.as_slice() else {
        return Err("metrics diff wants exactly two files: BASELINE.jsonl CURRENT.jsonl".into());
    };
    let base = load_metrics(Path::new(baseline))?;
    let cur = load_metrics(Path::new(current))?;
    let report = igdb_obs::diff_registries(&base, &cur);
    print!("{}", report.render_table());
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::Diverged {
            divergences: report.rows.len(),
        })
    }
}

/// `igdb queries` — build a database at the given scale and serve the
/// fixed synthetic query mix plus the §4.4 belief-propagation pass,
/// writing their telemetry as JSON-lines. The build runs *outside* the
/// registry so the stream holds only the analysis telemetry the metrics
/// gate compares.
fn cmd_queries(args: &[String]) -> Result<(), CliError> {
    let out = PathBuf::from(require(args, "--out")?);
    let mode = if args.iter().any(|a| a == "--deterministic") {
        igdb_obs::JsonMode::Deterministic
    } else {
        igdb_obs::JsonMode::Full
    };
    use std::io::Write as _;
    let mut out_file = io_ctx(std::fs::File::create(&out), "create metrics file", &out)?;

    let (_, world, igdb) = synth_world(args)?;
    eprintln!("serving query mix…");
    let registry = igdb_obs::Registry::new();
    let (summary, bp, cons) = {
        let _g = registry.install();
        let summary = igdb_core::run_query_mix(&world, &igdb);
        let params = BeliefPropParams::default();
        (
            summary,
            propagate(&igdb, &params),
            consistency_check(&igdb, &params),
        )
    };
    eprintln!(
        "served: {} physpath reports, {} intertubes links covered, {} rocketfuel edges, \
         {} paths at risk, {} footprint rows; belief propagation {} addrs, {} tuples, \
         consistency {:.2}",
        summary.physpath_reports,
        summary.intertubes_covered,
        summary.rocketfuel_mapped,
        summary.risk_paths,
        summary.footprint_rows,
        bp.assignments.len(),
        bp.new_tuples.len(),
        cons.agreement()
    );
    let mut doc = registry.json_lines(mode);
    if mode == igdb_obs::JsonMode::Full {
        // The profile section is derived from the span lines; the parser
        // skips it, so the stream still round-trips and diffs.
        doc.push_str(&registry.profile().json_lines());
    }
    io_ctx(
        out_file.write_all(doc.as_bytes()),
        "write metrics file",
        &out,
    )?;
    eprintln!("wrote analysis telemetry to {}", out.display());
    Ok(())
}

/// `igdb delta` — the delta-ingestion determinism baseline. Builds a base
/// database (outside the registry), derives a seeded churn delta spanning
/// every delta class except the catalogue rebuilds, and applies it
/// incrementally; only the *apply* lands in the stream, so the committed
/// golden pins exactly the incremental path's counters and span shape.
/// CI regenerates the stream and gates it with `metrics diff`.
fn cmd_delta(args: &[String]) -> Result<(), CliError> {
    let out = PathBuf::from(require(args, "--out")?);
    let WorldFlags {
        scale,
        config,
        date,
        mesh,
    } = world_flags(args, 400)?;
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(7);
    use std::io::Write as _;
    let mut out_file = io_ctx(std::fs::File::create(&out), "create metrics file", &out)?;

    eprintln!("generating world ({scale})…");
    let world = World::generate(config);
    let snaps = emit_snapshots(&world, &date, mesh);
    eprintln!("building base database…");
    let (base, _) = Igdb::try_build(&snaps, &BuildPolicy::lenient())?;
    let classes = [
        DeltaClass::AtlasChurn,
        DeltaClass::AtlasPrune,
        DeltaClass::FacilityChurn,
        DeltaClass::TracerouteChurn,
        DeltaClass::LogicalChurn,
        DeltaClass::RoadChurn,
    ];
    let (churned, ops) = generate_delta(base.source_snapshots(), seed, &classes);
    eprintln!("applying delta ({} ops, seed {seed})…", ops.len());
    let registry = igdb_obs::Registry::new();
    let (next, _, delta) = {
        let _g = registry.install();
        base.apply_delta(&churned, &BuildPolicy::lenient())?
    };
    eprintln!(
        "applied: {}; {} rows",
        delta.summary(),
        total_rows(&next.db)
    );
    io_ctx(
        out_file.write_all(
            registry
                .json_lines(igdb_obs::JsonMode::Deterministic)
                .as_bytes(),
        ),
        "write metrics file",
        &out,
    )?;
    eprintln!("wrote delta-apply telemetry to {}", out.display());
    Ok(())
}

/// Builds a synthetic world and its database from the shared `--scale`,
/// `--date` and `--mesh` flags, returning the tier name with both.
fn synth_world(args: &[String]) -> Result<(String, World, Igdb), CliError> {
    let WorldFlags {
        scale,
        config,
        date,
        mesh,
    } = world_flags(args, 500)?;
    eprintln!("generating world ({scale})…");
    let world = World::generate(config);
    eprintln!("emitting snapshots for {date}…");
    let snaps = emit_snapshots(&world, &date, mesh);
    eprintln!("building database…");
    let igdb = Igdb::build(&snaps);
    Ok((scale, world, igdb))
}

/// `igdb report <id>...` — build one world and print the named reports of
/// the paper's evaluation over it, in the order given.
fn cmd_report(args: &[String]) -> Result<(), CliError> {
    // Every option `report` takes has a value, so the other words are ids.
    let mut ids = Vec::new();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if word.starts_with("--") {
            words.next();
        } else {
            ids.push(word);
        }
    }
    let runs = ids
        .iter()
        .map(|&id| {
            report::REPORTS
                .iter()
                .find(|(name, _)| name == id)
                .map(|&(_, run)| run)
                .ok_or_else(|| format!("unknown report '{id}' ({})", report_ids()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if runs.is_empty() {
        return Err(format!("report wants at least one id ({})", report_ids()).into());
    }
    let (scale, world, igdb) = synth_world(args)?;
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(&scale, &world, &igdb);
    }
    Ok(())
}

/// The report ids, in dispatch order, as `table1|table2|…`.
fn report_ids() -> String {
    report::REPORTS
        .iter()
        .map(|&(id, _)| id)
        .collect::<Vec<_>>()
        .join("|")
}

/// Parses the serving knobs shared by `serve` and in-process `loadgen`.
fn server_config(args: &[String], enable_test_ops: bool) -> Result<ServerConfig, CliError> {
    let mut cfg = ServerConfig {
        enable_test_ops,
        ..ServerConfig::default()
    };
    if let Some(w) = flag(args, "--workers") {
        cfg.workers = w.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    if let Some(q) = flag(args, "--queue") {
        cfg.queue_capacity = q.parse().map_err(|e| format!("bad --queue: {e}"))?;
        if cfg.queue_capacity == 0 {
            return Err("--queue wants a capacity >= 1".into());
        }
    }
    if let Some(d) = flag(args, "--deadline-ms") {
        let ms: u64 = d.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
        cfg.default_deadline = Duration::from_millis(ms.max(1));
    }
    if let Some(s) = flag(args, "--slow-ms") {
        cfg.slow_ms = s.parse().map_err(|e| format!("bad --slow-ms: {e}"))?;
    }
    cfg.slow_log = flag(args, "--slow-log").map(PathBuf::from);
    if let Some(r) = flag(args, "--trace-ring") {
        cfg.trace_ring = r.parse().map_err(|e| format!("bad --trace-ring: {e}"))?;
    }
    Ok(cfg)
}

/// `igdb serve` — build a database and serve it until stdin closes, then
/// drain gracefully and flush metrics.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let listener = match (flag(args, "--listen"), flag(args, "--unix")) {
        (Some(addr), None) => io_ctx(
            Listener::bind_tcp(&addr),
            "bind tcp listener",
            Path::new(&addr),
        )?,
        (None, Some(path)) => {
            let p = PathBuf::from(path);
            io_ctx(Listener::bind_unix(&p), "bind unix listener", &p)?
        }
        _ => return Err("serve wants exactly one of --listen ADDR or --unix PATH".into()),
    };
    let cfg = server_config(args, false)?;
    let metrics_path = flag(args, "--metrics").map(PathBuf::from);
    // Fail fast on an unwritable metrics path, before paying for the build.
    use std::io::Write as _;
    let mut metrics_file = match &metrics_path {
        Some(p) => Some(io_ctx(std::fs::File::create(p), "create metrics file", p)?),
        None => None,
    };
    let (_, _, igdb) = synth_world(args)?;
    let reg = igdb_obs::Registry::new();
    let server = io_ctx(
        Server::start(std::sync::Arc::new(igdb), listener, cfg, reg.clone()),
        "start server",
        Path::new("<listener>"),
    )?;
    eprintln!(
        "serving on {} — close stdin (ctrl-d) to drain",
        server.addr()
    );
    // Optional live churn: a single writer thread periodically derives a
    // seeded delta from the current epoch's sources, applies it
    // incrementally, and publishes the result. The swap is one pointer:
    // requests in flight keep answering from the epoch they pinned.
    let churn_ms: Option<u64> = flag(args, "--churn-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --churn-ms: {e}")))
        .transpose()?;
    let churn_seed: u64 = flag(args, "--churn-seed")
        .map(|v| v.parse().map_err(|e| format!("bad --churn-seed: {e}")))
        .transpose()?
        .unwrap_or(7);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = churn_ms.map(|ms| {
        let epochs = server.epochs();
        let reg = server.registry();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::Builder::new()
            .name("igdb-churn".into())
            .spawn(move || {
                use std::sync::atomic::Ordering;
                let _g = reg.install();
                // The apply's spans are serial-only shapes; this writer
                // runs beside the serving threads, so route its spans
                // into a sink trace (discarded) and let the
                // deterministic counters flow to the registry.
                let sink = igdb_obs::TraceContext::sink();
                let _t = sink.install();
                let classes = [
                    DeltaClass::AtlasChurn,
                    DeltaClass::TracerouteChurn,
                    DeltaClass::LogicalChurn,
                    DeltaClass::FacilityChurn,
                ];
                let mut round = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let mut slept = 0;
                    while slept < ms && !stop.load(Ordering::SeqCst) {
                        let step = (ms - slept).min(25);
                        std::thread::sleep(Duration::from_millis(step));
                        slept += step;
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let cur = epochs.current();
                    let class = classes[(round as usize) % classes.len()];
                    let (churned, ops) = generate_delta(
                        cur.igdb.source_snapshots(),
                        churn_seed.wrapping_add(round),
                        &[class],
                    );
                    match cur.igdb.apply_delta(&churned, &BuildPolicy::lenient()) {
                        Ok((next, _, delta)) => {
                            let n = epochs.publish(next);
                            eprintln!(
                                "epoch {n}: applied {class:?} ({} ops: {})",
                                ops.len(),
                                delta.summary()
                            );
                        }
                        Err(e) => eprintln!("churn apply failed (epoch kept): {e}"),
                    }
                    round += 1;
                }
            })
            .expect("spawn churn thread")
    });
    // Block until the operator closes stdin; every byte before EOF is
    // ignored, so `igdb serve … < /dev/null` drains immediately.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    while matches!(std::io::Read::read(&mut stdin, &mut sink), Ok(n) if n > 0) {}
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(h) = churn {
        let _ = h.join();
    }
    eprintln!("draining…");
    let report = server.drain();
    eprintln!(
        "drained: {} served, {} errors, {} rejects",
        report.served, report.errors, report.rejects
    );
    if let Some(f) = &mut metrics_file {
        let p = metrics_path.as_ref().expect("path implies file");
        io_ctx(
            f.write_all(reg.json_lines(igdb_obs::JsonMode::Full).as_bytes()),
            "write metrics file",
            p,
        )?;
        eprintln!("wrote metrics to {}", p.display());
    }
    Ok(())
}

/// `igdb loadgen` — replay a seeded query mix against a server (an
/// in-process one unless `--addr` points elsewhere) and report sustained
/// throughput plus latency quantiles.
fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let mut cfg = LoadgenConfig::default();
    if let Some(r) = flag(args, "--requests") {
        cfg.requests = r.parse().map_err(|e| format!("bad --requests: {e}"))?;
    }
    if let Some(c) = flag(args, "--conns") {
        let conns: usize = c.parse().map_err(|e| format!("bad --conns: {e}"))?;
        if conns == 0 {
            return Err("--conns wants at least 1".into());
        }
        cfg.conns = conns;
    }
    if let Some(s) = flag(args, "--seed") {
        cfg.seed = s.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    if let Some(q) = flag(args, "--qps") {
        cfg.qps = q.parse().map_err(|e| format!("bad --qps: {e}"))?;
        if !(cfg.qps >= 0.0) {
            return Err("--qps wants a rate >= 0".into());
        }
    }
    if let Some(d) = flag(args, "--deadline-ms") {
        cfg.deadline_ms = d.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
    }
    let out = flag(args, "--out").map(PathBuf::from);
    let mode = if args.iter().any(|a| a == "--deterministic") {
        igdb_obs::JsonMode::Deterministic
    } else {
        igdb_obs::JsonMode::Full
    };
    use std::io::Write as _;
    let mut out_file = match &out {
        Some(p) => Some(io_ctx(std::fs::File::create(p), "create metrics file", p)?),
        None => None,
    };

    let (summary, reg) = match flag(args, "--addr") {
        Some(addr) => {
            // Remote mode: the mix needs the metro-id bound, which the
            // server's inline Introspect op reports.
            let addr = parse_addr(&addr)?;
            let reg = igdb_obs::Registry::new();
            let mut probe = io_ctx(
                Client::connect(&addr, cfg.io_timeout),
                "connect to server",
                Path::new("<addr>"),
            )?;
            let n_metros = match probe.call(&Request::Introspect, 0) {
                Ok(Response::Introspect(i)) => i.n_metros as usize,
                other => return Err(format!("server introspect probe failed: {other:?}").into()),
            };
            drop(probe);
            let summary = run_loadgen(&addr, n_metros, &cfg, &reg);
            (summary, reg)
        }
        None => {
            // In-process mode: server + client share one registry so the
            // stream carries both sides (the metrics-gate format).
            let (_, _, igdb) = synth_world(args)?;
            let server_cfg = ServerConfig {
                // Closed-loop baselines must never time out on their own.
                default_deadline: Duration::from_secs(30),
                ..server_config(args, false)?
            };
            let socket =
                std::env::temp_dir().join(format!("igdb-loadgen-{}.sock", std::process::id()));
            let (summary, report, reg) = io_ctx(
                loadgen_session(std::sync::Arc::new(igdb), &socket, server_cfg, &cfg),
                "run loadgen session",
                &socket,
            )?;
            eprintln!(
                "server drained: {} served, {} errors, {} rejects",
                report.served, report.errors, report.rejects
            );
            (summary, reg)
        }
    };
    println!("{}", summary.render());
    if let Some(f) = &mut out_file {
        let p = out.as_ref().expect("path implies file");
        io_ctx(
            f.write_all(reg.json_lines(mode).as_bytes()),
            "write metrics file",
            p,
        )?;
        eprintln!("wrote telemetry to {}", p.display());
    }
    Ok(())
}

/// Parses `--addr`: `unix:PATH` or a `HOST:PORT` socket address.
fn parse_addr(raw: &str) -> Result<ServerAddr, CliError> {
    if let Some(path) = raw.strip_prefix("unix:") {
        return Ok(ServerAddr::Unix(PathBuf::from(path)));
    }
    use std::net::ToSocketAddrs as _;
    let mut addrs = raw
        .to_socket_addrs()
        .map_err(|e| format!("bad --addr '{raw}': {e}"))?;
    addrs
        .next()
        .map(ServerAddr::Tcp)
        .ok_or_else(|| "bad --addr: resolved to nothing".into())
}

/// `igdb top` — poll a live server's versioned `Introspect` op and render
/// the flight recorder: ledger, per-client table, epoch-pin distribution.
/// Read-only: the op is answered inline by the reader and records only a
/// perf-class control tally, so watching never perturbs the deterministic
/// counter stream.
fn cmd_top(args: &[String]) -> Result<(), CliError> {
    let addr = flag(args, "--addr").ok_or("top wants --addr HOST:PORT or --addr unix:PATH")?;
    let addr = parse_addr(&addr)?;
    let once = args.iter().any(|a| a == "--once");
    let show_counters = args.iter().any(|a| a == "--counters");
    let interval: f64 = flag(args, "--interval")
        .map(|v| v.parse().map_err(|e| format!("bad --interval: {e}")))
        .transpose()?
        .unwrap_or(2.0);
    // Refuses NaN, negatives and what a `Duration` cannot hold (`inf`,
    // `1e300`), which `Duration::from_secs_f64` panics on.
    let interval = Duration::try_from_secs_f64(interval)
        .ok()
        .filter(|d| !d.is_zero())
        .ok_or("--interval wants a finite number of seconds > 0")?;
    let mut client = io_ctx(
        Client::connect(&addr, Duration::from_secs(5)),
        "connect to server",
        Path::new("<addr>"),
    )?;
    loop {
        let intro = match client.call(&Request::Introspect, 0) {
            Ok(Response::Introspect(i)) => i,
            other => return Err(format!("introspect failed: {other:?}").into()),
        };
        println!("{}", render_top(&intro, show_counters));
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Renders one introspection snapshot as the `igdb top` text view.
fn render_top(i: &Introspection, show_counters: bool) -> String {
    use std::fmt::Write as _;
    let r = &i.recorder;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "igdb top — epoch {}  metros {}  uptime {:.1}s  workers {}/{} busy  queue {}/{}{}",
        i.epoch,
        i.n_metros,
        i.uptime_us as f64 / 1e6,
        i.busy_workers,
        i.workers,
        i.queue_depth,
        i.queue_capacity,
        if i.draining { "  DRAINING" } else { "" }
    );
    let _ = writeln!(
        out,
        "requests {}  ok {}  err {}  live {}  bytes in/out {}/{}",
        r.requests,
        r.ok,
        r.err_total(),
        r.live,
        r.bytes_in,
        r.bytes_out
    );
    let named = |row: &[u64; 5]| -> String {
        let mut s = String::new();
        for (n, &v) in ServeError::NAMES.iter().zip(row.iter()) {
            if v > 0 {
                let _ = write!(s, " {n}={v}");
            }
        }
        if s.is_empty() {
            s.push_str(" none");
        }
        s
    };
    let _ = writeln!(
        out,
        "errors:{}  rejects:{}",
        named(&r.err),
        named(&r.rejected)
    );
    let _ = write!(
        out,
        "ring {}/{}  slow {}",
        r.ring_len, r.ring_cap, r.slow_count
    );
    if r.slow_ms > 0 {
        let _ = write!(out, " (>= {} ms)", r.slow_ms);
    }
    let _ = writeln!(out);
    if !r.epoch_pins.is_empty() || r.pins_evicted > 0 {
        let _ = write!(out, "epoch pins:");
        for &(e, n) in &r.epoch_pins {
            let _ = write!(out, " {e}:{n}");
        }
        if r.pins_evicted > 0 {
            let _ = write!(out, " (+{} on evicted epochs)", r.pins_evicted);
        }
        if r.epoch_lag.count > 0 {
            let _ = write!(
                out,
                "  lag p50/p99/max {}/{}/{} us ({} samples)",
                r.epoch_lag.p50_us, r.epoch_lag.p99_us, r.epoch_lag.max_us, r.epoch_lag.count
            );
        }
        let _ = writeln!(out);
    }
    if !r.clients.is_empty() {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>6} {:>6} {:>10} {:>10}  {}",
            "conn", "requests", "ok", "err", "rej", "bytes-in", "bytes-out", "wait p50/p99/max us"
        );
        for c in &r.clients {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>6} {:>6} {:>10} {:>10}  {}/{}/{}",
                c.conn,
                c.requests,
                c.ok,
                c.err.iter().sum::<u64>(),
                c.rejected.iter().sum::<u64>(),
                c.bytes_in,
                c.bytes_out,
                c.queue_wait.p50_us,
                c.queue_wait.p99_us,
                c.queue_wait.max_us
            );
        }
    }
    if show_counters && !i.counters.is_empty() {
        let _ = writeln!(out, "deterministic counters:");
        for line in i.counters.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

fn open_db(args: &[String]) -> Result<Database, String> {
    let dir = require(args, "--db")?;
    Database::load_dir(Path::new(&dir)).map_err(|e| format!("cannot open {dir}: {e}"))
}

fn cmd_tables(args: &[String]) -> Result<(), String> {
    let db = open_db(args)?;
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for name in db.table_names() {
        // Ignore broken pipes (e.g. `igdb tables | head`).
        if writeln!(
            out,
            "{name:<16} {:>8} rows",
            db.row_count(&name).unwrap_or(0)
        )
        .is_err()
        {
            break;
        }
    }
    Ok(())
}

/// Parses `col=value` into a typed equality predicate against the table's
/// schema.
fn parse_where(db: &Database, table: &str, clause: &str) -> Result<Predicate, String> {
    let (col, raw) = clause
        .split_once('=')
        .ok_or_else(|| format!("--where wants col=value, got '{clause}'"))?;
    let value = db
        .with_table(table, |t| -> Result<Value, String> {
            let idx = t.schema().index_of(col).map_err(|e| e.to_string())?;
            let ty = t.schema().columns()[idx].ty;
            Ok(match ty {
                igdb_db::ColumnType::Int => {
                    Value::Int(raw.parse::<i64>().map_err(|e| format!("bad int: {e}"))?)
                }
                igdb_db::ColumnType::Float => {
                    Value::Float(raw.parse::<f64>().map_err(|e| format!("bad float: {e}"))?)
                }
                igdb_db::ColumnType::Bool => {
                    Value::Bool(raw.parse::<bool>().map_err(|e| format!("bad bool: {e}"))?)
                }
                _ => Value::text(raw),
            })
        })
        .map_err(|e| e.to_string())??;
    Ok(Predicate::Eq(col.to_string(), value))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let db = open_db(args)?;
    let table = require(args, "--table")?;
    if !db.has_table(&table) {
        return Err(format!("no such table '{table}'"));
    }
    let mut predicate = Predicate::True;
    for clause in flags(args, "--where") {
        predicate = predicate.and(parse_where(&db, &table, &clause)?);
    }
    let limit: usize = flag(args, "--limit")
        .map(|l| l.parse().map_err(|e| format!("bad --limit: {e}")))
        .transpose()?
        .unwrap_or(25);
    let select: Option<Vec<String>> =
        flag(args, "--select").map(|s| s.split(',').map(str::to_string).collect());
    let order = flag(args, "--order");

    db.with_table(&table, |t| -> Result<(), String> {
        let mut q = Query::new(t).filter(predicate.clone()).limit(limit);
        if let Some(o) = &order {
            // "--order col" ascends; "--order col:desc" descends.
            let (col, asc) = match o.split_once(':') {
                Some((c, dir)) => (c.to_string(), dir != "desc"),
                None => (o.clone(), true),
            };
            q = q.order_by(col, asc);
        }
        let names: Vec<String> = match &select {
            Some(cols) => {
                q = q.select(cols.iter().map(String::as_str).collect());
                cols.clone()
            }
            None => t
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        };
        println!("{}", names.join("\t"));
        for row in q.rows().map_err(|e| e.to_string())? {
            let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("{}", rendered.join("\t"));
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?
}

fn cmd_metro(args: &[String]) -> Result<(), String> {
    // The pipeline quarantines non-finite and out-of-range coordinates
    // (`validate.rs`); refuse them here too, since `GeoPoint::new` would
    // wrap and clamp them into an answer.
    let coord = |name: &str, limit: f64| -> Result<f64, String> {
        let v: f64 = require(args, name)?
            .parse()
            .map_err(|e| format!("bad {name}: {e}"))?;
        // Negated so that NaN is refused as well.
        if !(-limit..=limit).contains(&v) {
            return Err(format!("bad {name}: {v} is not within ±{limit}"));
        }
        Ok(v)
    };
    let lon = coord("--lon", 180.0)?;
    let lat = coord("--lat", 90.0)?;
    let db = open_db(args)?;
    // Rebuild the nearest-site index from city_points.
    let (sites, labels): (Vec<GeoPoint>, Vec<String>) = db
        .with_table("city_points", |t| {
            let mut sites = Vec::new();
            let mut labels = Vec::new();
            for (_, row) in t.iter() {
                let lat = row[4].as_float().unwrap_or(0.0);
                let lon = row[5].as_float().unwrap_or(0.0);
                sites.push(GeoPoint::new(lon, lat));
                let city = row[1].as_text().unwrap_or("");
                let state = row[2].as_text().unwrap_or("");
                let cc = row[3].as_text().unwrap_or("");
                labels.push(if state.is_empty() {
                    format!("{city}-{cc}")
                } else {
                    format!("{city}-{state}-{cc}")
                });
            }
            (sites, labels)
        })
        .map_err(|e| e.to_string())?;
    let index = NearestSiteIndex::new(sites);
    match index.nearest(&GeoPoint::new(lon, lat)) {
        Some((id, km)) => {
            println!("{} ({km:.1} km from the city point)", labels[id]);
            Ok(())
        }
        None => Err("database has no city points".into()),
    }
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let db = open_db(args)?;
    let out = PathBuf::from(require(args, "--out")?);
    let map = MapExport::from_db(&db).map_err(|e| e.to_string())?;
    std::fs::write(&out, map.to_geojson()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} paths, {} cables)",
        out.display(),
        map.node_points.len(),
        map.row_paths.len(),
        map.cable_paths.len()
    );
    Ok(())
}
