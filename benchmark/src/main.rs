//! The repo's benchmark (see `../README.md`).
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--quick] [--world-seed N] [--out DIR]
//! bench all [--seed N] [--seconds S] [--runs K] [--quick] [--self-check] [--out DIR]
//! bench compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, one JSON object as the last line of standard output.

mod affinity;
mod json;
mod probes;
mod report;
mod requests;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use igdb_core::{BuildPolicy, Igdb};
use igdb_obs::{span, Registry};

use stats::{median, quiet, timed, Metrics, Tally};
use workloads::{Cold, Ctx, Ops, Serving, WORKLOADS};
use world::Inputs;

/// The world a driver's runs are measured on, whatever their `--seed`:
/// that drives what the benchmark draws on top of the world (delta chain,
/// request stream, probe pairs), because ten worlds from ten seeds differ
/// by 7 % in build time alone. `bench all --seed N` passes
/// `--world-seed N` too, so its one seed moves both.
pub const WORLD_SEED: u64 = 42;
/// What `BENCHMARK.json` declares as `run_seconds`, for a run that is not
/// told otherwise.
pub const RUN_SECONDS: f64 = 18.0;
/// How often the untraced pass sets up; `setup_s` reports the median. A
/// later change is judged on `setup_s` like on any other metric, and one
/// set-up per run is one sample of a 2–3 s build on a box that stalls.
const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub world_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// `--name value` anywhere in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value")),
        None => Ok(default),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds wants a value in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: parsed(args, "--seed", 42)?,
        world_seed: parsed(args, "--world-seed", WORLD_SEED)?,
        seconds,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        quick: args.iter().any(|a| a == "--quick"),
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or("benchmark/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What set-up leaves for a workload's body.
enum Ready {
    Build,
    Refresh(Arc<Igdb>),
    Analyze(Arc<Igdb>, Cold),
    Serve(Box<Serving>),
}

impl Ready {
    /// Everything from the generated inputs to the first timed operation.
    /// The traced pass shares one base build between the bodies.
    fn set_up(ctx: &mut Ctx, workload: &str, shared: Option<&Arc<Igdb>>) -> Ready {
        let _s = span(format!("bench.setup.{workload}"));
        if workload == "build" {
            return Ready::Build;
        }
        let base = shared
            .cloned()
            .unwrap_or_else(|| workloads::build_base(ctx));
        match workload {
            "refresh" => Ready::Refresh(base),
            "analyze" => {
                let cold = workloads::analyze_cold(ctx, &base);
                Ready::Analyze(base, cold)
            }
            _ => Ready::Serve(Box::new(workloads::serve_start(ctx, base))),
        }
    }

    fn run(self, ctx: &mut Ctx, workload: &str, budget: Duration) -> Ops {
        match self {
            Ready::Build => workloads::build(ctx, budget),
            Ready::Refresh(base) => workloads::refresh(ctx, base, budget),
            Ready::Analyze(base, cold) => workloads::analyze(ctx, &base, &cold, budget),
            Ready::Serve(serving) => {
                workloads::serve(ctx, *serving, budget, workload == "serve_churn")
            }
        }
    }

    /// Ends a set-up that will not run.
    fn discard(self) {
        if let Ready::Serve(serving) = self {
            serving.stop();
        }
    }
}

fn run(a: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", a.out_dir.display()))?;
    // Before any thread is pinned or spawned.
    let placement = affinity::Placement::of_process()?;
    let reg = a.trace.then(Registry::new);
    let installed = reg.as_ref().map(Registry::install);
    let root = span(format!("bench.run.{}", a.workload));
    let inputs = {
        let _s = span("bench.synth.generate");
        Inputs::generate(a.world_seed, a.quick)
    };
    let mut ctx = Ctx {
        inputs,
        par_threads: igdb_par::num_threads(),
        seed: a.seed,
        policy: BuildPolicy::lenient(),
        placement,
        base_build_ms: Vec::new(),
        out_dir: a.out_dir.clone(),
        reg,
        tally: Tally::default(),
        layers: Metrics::default(),
        request_traces: Vec::new(),
    };
    // Both passes on one igdb-par thread (see the README's *Threads*).
    let metrics = igdb_par::with_threads(1, || {
        if a.trace {
            traced(&mut ctx, a);
            std::mem::take(&mut ctx.layers)
        } else {
            untraced(&mut ctx, a)
        }
    });
    drop(root);
    drop(installed);
    if let Some(reg) = &ctx.reg {
        let path = a.out_dir.join(format!("{}.trace.jsonl", a.workload));
        trace::write(&path, reg, &ctx.request_traces)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (name, value, unit) in &metrics.0 {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    eprintln!(
        "attempted {} failed {}",
        ctx.tally.attempted, ctx.tally.failed
    );
    println!("{}", report::result_line(&ctx.tally, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// The end-to-end pass: nothing installed, nothing recorded.
fn untraced(ctx: &mut Ctx, a: &Args) -> Metrics {
    if a.workload == "build" {
        // As a batch ingest would: only the snapshots stay resident.
        ctx.inputs.world = None;
    }
    let mut ready: Option<Ready> = None;
    let mut setup_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(previous) = ready.take() {
            previous.discard();
        }
        let (r, ms) = timed(|| Ready::set_up(ctx, &a.workload, None));
        setup_ms.push(ms);
        ready = Some(r);
    }
    let setup_s = ctx.inputs.gen_s + median(&setup_ms) / 1e3;
    let ops =
        ready
            .expect("SETUP_REPS > 0")
            .run(ctx, &a.workload, Duration::from_secs_f64(a.seconds));
    eprintln!(
        "{} operations timed, median over all of them {:.4} ms",
        ops.n, ops.run_p50_ms
    );
    let mut m = Metrics::default();
    m.put("op_p50_ms", ops.p50_ms, "ms");
    m.put("op_tail_ms", ops.tail_ms, "ms");
    m.put("ops_per_s", ops.per_s, "1/s");
    // Where the body produces no database version, the one it ran on.
    m.put(
        "epoch_build_ms",
        ops.epoch_ms.unwrap_or_else(|| quiet(&ctx.base_build_ms)),
        "ms",
    );
    m.put(
        "peak_rss_mb",
        igdb_obs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    m.put("setup_s", setup_s, "s");
    m
}

/// The per-layer pass: the named workload at `--seconds` first, then
/// every other body at probe size, then the layer probes, all under one
/// installed registry. Leaves its metrics in `ctx.layers`.
fn traced(ctx: &mut Ctx, a: &Args) {
    let probe = Duration::from_secs_f64(if a.quick { 0.2 } else { 1.5 });
    let base = workloads::build_base(ctx);
    let mut ops = std::collections::BTreeMap::new();
    let others = WORKLOADS.iter().filter(|w| **w != a.workload);
    for workload in std::iter::once(&a.workload.as_str()).chain(others) {
        let budget = if *workload == a.workload {
            Duration::from_secs_f64(a.seconds)
        } else {
            probe
        };
        let ready = Ready::set_up(ctx, workload, Some(&base));
        ops.insert(*workload, ready.run(ctx, workload, budget));
    }
    probes::run(ctx, &base);
    // What the threads the program would use by default buy a build.
    let all_threads_ms = {
        let _s = span("bench.par.build_all_threads");
        timed(|| {
            igdb_par::with_threads(ctx.par_threads, || {
                Igdb::try_build(&ctx.inputs.snaps, &ctx.policy).is_ok()
            })
        })
        .1
    };
    let l = &mut ctx.layers;
    l.put("par.threads", ctx.par_threads as f64, "count");
    l.put("par.build_ms_1t", ops["build"].p50_ms, "ms");
    l.put("par.build_ms_nt", all_threads_ms, "ms");
    l.put("par.speedup", ops["build"].p50_ms / all_threads_ms, "x");
    l.put(
        "delta.speedup_vs_rebuild.feed",
        ops["build"].p50_ms / ops["refresh"].p50_ms,
        "x",
    );
    // Against the untraced pass's `op_p50_ms`, this is what tracing costs.
    l.put(
        "obs.traced_op_p50_ms",
        ops[a.workload.as_str()].p50_ms,
        "ms",
    );
}
