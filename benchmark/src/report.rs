//! The one-command run (`bench all`), its `result.json`, and the
//! comparison of two such files (`bench compare`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::affinity::Placement;
use crate::json::{quote, Json};
use crate::stats::{median, Metrics, Tally};
use crate::workloads::WORKLOADS;
use crate::{flag, parsed, RUN_SECONDS, WORLD_SEED};

/// No single run may outlast this (the driver's own limit).
const RUN_LIMIT: Duration = Duration::from_secs(180);

/// The last line of a run's standard output.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// One declared metric of `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Absent on per-layer metrics.
    bound: Option<f64>,
}

struct Declaration {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn declaration(path: &Path) -> Result<Declaration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    let text_of = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("BENCHMARK.json: no {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        json.get(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better: text_of(m, "better")? == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Declaration {
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// One finished run: its result line, parsed.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a process of its own (so `VmHWM` is that
/// workload's) and checks what it printed against the declaration.
fn run_one(
    common: &[String],
    workload: &str,
    trace: bool,
    declared: &[Declared],
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(common)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let started = Instant::now();
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if started.elapsed() > RUN_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{workload} (trace {trace}) exceeded its {RUN_LIMIT:?} budget"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    // The run repeats its metrics on stderr for a reader; here only its
    // sample count and a failed check (or a failed run) are worth passing
    // on.
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}:\n{stderr}",
            out.status
        ));
    }
    for line in stderr
        .lines()
        .filter(|l| l.starts_with("FAILED") || l.contains("operations timed"))
    {
        eprintln!("{workload} (trace {}): {line}", u8::from(trace));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: printed no result"))?;
    let json = Json::parse(line)?;
    let metrics: Vec<(String, f64, String)> = json
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            (name.clone(), value, unit)
        })
        .collect();
    // Every declared name exactly once with its unit, nothing undeclared.
    for d in declared {
        let hits: Vec<_> = metrics.iter().filter(|(n, ..)| *n == d.name).collect();
        match hits.as_slice() {
            [(_, value, unit)] if *unit == d.unit && value.is_finite() => {}
            _ => {
                return Err(format!(
                    "{workload}: {} [{}] printed {} times or wrongly",
                    d.name,
                    d.unit,
                    hits.len()
                ))
            }
        }
    }
    if let Some((name, ..)) = metrics
        .iter()
        .find(|(n, ..)| !declared.iter().any(|d| d.name == *n))
    {
        return Err(format!("{workload}: printed undeclared metric {name}"));
    }
    Ok(RunResult {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        attempted: json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: json.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// `runs` untraced runs of `workload` for each of `sides` result files,
/// taking turns, so that what the box does meanwhile lands on every side.
fn untraced_runs(
    decl: &Declaration,
    common: &[String],
    workload: &str,
    runs: usize,
    sides: usize,
) -> Result<Vec<Vec<RunResult>>, String> {
    let mut by_side: Vec<Vec<RunResult>> = (0..sides).map(|_| Vec::new()).collect();
    for _ in 0..runs {
        for side in &mut by_side {
            side.push(run_one(common, workload, false, &decl.end_to_end)?);
        }
    }
    Ok(by_side)
}

/// Prints one workload's metrics — the medians of its untraced runs, then
/// its traced run's — and returns its entry of the result file and
/// whether every run was correct.
fn workload_entry(
    decl: &Declaration,
    workload: &str,
    results: &[RunResult],
    traced: Option<&RunResult>,
) -> (String, bool) {
    let (attempted, failed): (f64, f64) = results
        .iter()
        .fold((0.0, 0.0), |(a, f), r| (a + r.attempted, f + r.failed));
    let mut correct = results.iter().all(|r| r.correct);
    let mut entry = format!("\n    {}: {{\"end_to_end\": {{", quote(workload));
    let mut untraced_p50 = f64::NAN;
    for (i, d) in decl.end_to_end.iter().enumerate() {
        let values: Vec<f64> = results
            .iter()
            .map(|r| {
                r.metrics
                    .iter()
                    .find(|(n, ..)| *n == d.name)
                    .expect("checked")
                    .1
            })
            .collect();
        let mid = median(&values);
        if d.name == "op_p50_ms" {
            untraced_p50 = mid;
        }
        println!(
            "{:<40} {mid:>16.4} {:<6} n={}",
            d.name,
            d.unit,
            values.len()
        );
        let list: Vec<String> = values.iter().map(f64::to_string).collect();
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            entry,
            "{sep}{}: {{\"unit\": {}, \"values\": [{}]}}",
            quote(&d.name),
            quote(&d.unit),
            list.join(", ")
        );
    }
    println!(
        "{:<40} {:>16.4} {:<6} failed {failed} of {attempted}",
        "fail_ratio",
        failed / attempted.max(1.0),
        "ratio"
    );
    entry.push_str("}, \"per_layer\": {");
    if let Some(r) = traced {
        correct &= r.correct;
        for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
            println!("{name:<40} {value:>16.4} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                entry,
                "{sep}{}: {{\"unit\": {}, \"value\": {value}}}",
                quote(name),
                quote(unit)
            );
        }
        // No end-to-end number comes from the traced run; it only says
        // what tracing cost.
        let traced_p50 = r
            .metrics
            .iter()
            .find(|(n, ..)| n == "obs.traced_op_p50_ms")
            .map_or(f64::NAN, |m| m.1);
        let overhead = (traced_p50 / untraced_p50 - 1.0) * 100.0;
        println!(
            "{:<40} {overhead:>16.4} %",
            format!("obs.trace_overhead_pct.{workload}")
        );
        let _ = write!(
            entry,
            ", \"obs.trace_overhead_pct\": {{\"unit\": \"%\", \"value\": {overhead}}}"
        );
    }
    let _ = write!(
        entry,
        "}}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}}}"
    );
    (entry, correct)
}

/// `bench all`: every workload of the package — those `BENCHMARK.json`
/// lists for a driver, and `serve`, which the driver's time limit leaves
/// no room for — each run in a process of its own, its untraced runs, then
/// its traced run, and `result.json` under the out dir. With
/// `--self-check`, no traced run but two result files from interleaved
/// untraced runs, compared to each other. `--seed` moves the world as
/// well as what is drawn on it, so `--seed 1337` is the held-out run.
pub fn all(args: &[String]) -> Result<ExitCode, String> {
    let decl = declaration(Path::new("BENCHMARK.json"))?;
    let seed: u64 = parsed(args, "--seed", WORLD_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let quick = args.iter().any(|a| a == "--quick");
    let self_check = args.iter().any(|a| a == "--self-check");
    // Medians are compared, and a spread needs more than one value.
    let runs: usize = parsed(args, "--runs", 3)?;
    if runs == 0 {
        return Err("--runs wants at least 1".into());
    }
    let out_dir = PathBuf::from(flag(args, "--out").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut common: Vec<String> = [
        ("--seed", seed.to_string()),
        ("--world-seed", seed.to_string()),
        ("--seconds", seconds.to_string()),
        ("--out", out_dir.display().to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect();
    if quick {
        common.push("--quick".into());
    }
    // The runs are this process's children: they may use the same CPUs
    // and so choose the same placement.
    let placement = Placement::of_process()?;
    let meta = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \"runs\": {runs}, \
         \"nproc\": {}, \"threads\": 1, \"par_probe_threads\": {}, \"serve_cpu\": {}, \"churn_cpu\": {}, \
         \"git_commit\": {}, \"rustc\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        igdb_par::num_threads(),
        placement.serve_cpu,
        placement.churn_cpu,
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&command_line("rustc", &["-V"])),
    );
    let files: Vec<PathBuf> = if self_check {
        vec![
            out_dir.join("self-check.a.json"),
            out_dir.join("self-check.b.json"),
        ]
    } else {
        vec![out_dir.join("result.json")]
    };
    let mut bodies = vec![Vec::new(); files.len()];
    let mut all_correct = true;
    for workload in WORKLOADS {
        let by_side = untraced_runs(&decl, &common, workload, runs, files.len())?;
        let traced = if self_check {
            None
        } else {
            Some(run_one(&common, workload, true, &decl.per_layer)?)
        };
        for ((results, body), file) in by_side.iter().zip(&mut bodies).zip(&files) {
            println!("== {workload} -> {} ==", file.display());
            let (entry, correct) = workload_entry(&decl, workload, results, traced.as_ref());
            body.push(entry);
            all_correct &= correct;
        }
    }
    for (file, body) in files.iter().zip(&bodies) {
        let doc = format!(
            "{{\n  \"meta\": {meta},\n  \"workloads\": {{{}\n  }}\n}}\n",
            body.join(",")
        );
        std::fs::write(file, doc).map_err(|e| format!("{}: {e}", file.display()))?;
        println!("wrote {}", file.display());
    }
    let same = match files.as_slice() {
        [a, b] => compare_files(&decl, a, b, true)?,
        _ => true,
    };
    Ok(if all_correct && same {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// B's runs `vb` against A's `va`: how much worse B's median is as a share
/// of A's (negative: better), the wider of the two sides' quartile spreads
/// as a share of its median (infinite for a single run, which has none),
/// and the verdict.
fn judge(va: &[f64], vb: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, &'static str) {
    let (ma, mb) = (median(va), median(vb));
    let change = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = [(va, ma), (vb, mb)]
        .iter()
        .map(|(v, m)| {
            if v.len() < 2 {
                return f64::INFINITY;
            }
            let (q1, q3) = quartiles(v);
            (q3 - q1) / m
        })
        .fold(0.0, f64::max);
    let verdict = if spread > bound {
        "unresolved"
    } else if change > bound {
        "worse"
    } else {
        "ok"
    };
    (change, spread, verdict)
}

/// One row per end-to-end metric × workload. `worse`: B's median is worse
/// than A's by more than the bound. `unresolved`: either side's quartile
/// spread is wider than the bound — or unknown, the side being a single
/// run — so the medians cannot tell.
fn compare_files(decl: &Declaration, a: &Path, b: &Path, strict: bool) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let values = |j: &Json, workload: &str, metric: &str| -> Vec<f64> {
        j.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values"))
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in WORKLOADS {
        for d in &decl.end_to_end {
            let (va, vb) = (
                values(&ja, workload, &d.name),
                values(&jb, workload, &d.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{}: missing from one file", d.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = d.bound.unwrap_or(0.0);
            let (change, spread, verdict) = judge(&va, &vb, d.higher_is_better, bound);
            worse += usize::from(verdict == "worse");
            unresolved += usize::from(verdict == "unresolved");
            println!("{workload:<12} {:<14} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>6.1}%  {verdict}", d.name, change * 100.0, spread * 100.0, bound * 100.0);
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0 && (!strict || unresolved == 0))
}

/// `bench compare A.json B.json`; non-zero exit on any `worse` row.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare wants exactly two files: A.json B.json".into());
    };
    let decl = declaration(Path::new("BENCHMARK.json"))?;
    let ok = compare_files(&decl, Path::new(a), Path::new(b), false)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn a_verdict_needs_a_spread_narrower_than_the_bound() {
        let a = [100.0, 101.0, 102.0];
        assert_eq!(judge(&a, &[104.0, 105.0, 106.0], false, 0.1).2, "ok");
        assert_eq!(judge(&a, &[120.0, 121.0, 122.0], false, 0.1).2, "worse");
        // Higher is better: the same rise is a gain.
        assert_eq!(judge(&a, &[120.0, 121.0, 122.0], true, 0.1).2, "ok");
        assert_eq!(judge(&a, &[80.0, 81.0, 82.0], true, 0.1).2, "worse");
        // Too noisy to tell, or a single run with no spread at all.
        assert_eq!(
            judge(&a, &[100.0, 121.0, 140.0], false, 0.1).2,
            "unresolved"
        );
        assert_eq!(judge(&a, &[121.0], false, 0.1).2, "unresolved");
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let mut m = Metrics::default();
        m.put("op_p50_ms", 1.25, "ms");
        let line = result_line(
            &Tally {
                attempted: 3,
                failed: 1,
            },
            &m,
        );
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("op_p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
    }
}
