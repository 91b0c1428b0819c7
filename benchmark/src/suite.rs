//! The measurement protocol. Every repetition of a workload is a fresh
//! child process of this binary, run one at a time: users pay a cold
//! start on every run of the tools, and the child's `VmHWM` is then the
//! workload's own peak. The parent only starts children and does
//! arithmetic on what they print.

use crate::json::Json;
use crate::metrics::{self, Clock};
use crate::span;
use crate::stats::Summary;
use crate::workloads::{self, Ctx, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How many timed repetitions a workload gets.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    Count(usize),
    /// As many as fit in this long, and at least [`MIN_TIMED_REPS`].
    Seconds(f64),
}

/// A median needs three samples to outvote one disturbed repetition.
const MIN_TIMED_REPS: usize = 3;

pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    pub out: PathBuf,
    pub warmups: usize,
    pub reps: Reps,
    pub traced: bool,
}

/// What one child printed.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    work: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    metrics: Json,
    facts: Json,
    unattributed_share: f64,
}

/// Run one repetition in this process and print its result as the last
/// line of standard output. This is the hidden `child` subcommand.
pub fn child(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    traced: bool,
    out: &Path,
) -> Result<(), String> {
    let mut ctx = Ctx::new(seed, smoke, traced);
    workloads::run_repetition(workload, &mut ctx);
    if traced {
        std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let path = out.join(format!("{}.trace.json", workload.name));
        std::fs::write(&path, span::to_chrome_trace(&ctx.tr.spans).compact())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", rep_line(&ctx).compact());
    Ok(())
}

/// What a finished repetition reports to the parent.
fn rep_line(ctx: &Ctx) -> Json {
    let facts = ctx
        .facts
        .iter()
        .fold(Json::obj(), |doc, (name, value)| doc.set(name, *value));
    Json::obj()
        .set("setup_ns", ctx.setup_ns)
        .set("wall_ns", ctx.wall_ns)
        .set("work", ctx.work)
        .set("peak_rss_kb", workloads::proc_status_kb("VmHWM"))
        .set("attempted", ctx.attempted)
        .set("failed", ctx.failed)
        .set(
            "unattributed_share",
            span::unattributed_share(&ctx.tr.spans),
        )
        .set("metrics", ctx.metrics.to_json())
        .set("facts", facts)
}

fn parse_rep(doc: &Json) -> Result<Rep, String> {
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::num)
            .ok_or(format!("child result lacks `{key}`"))
    };
    Ok(Rep {
        setup_s: num("setup_ns")? / 1e9,
        wall_s: num("wall_ns")? / 1e9,
        work: num("work")?,
        peak_rss_mb: num("peak_rss_kb")? / 1024.0,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        unattributed_share: num("unattributed_share")?,
        metrics: doc
            .get("metrics")
            .cloned()
            .ok_or("child result lacks `metrics`")?,
        facts: doc
            .get("facts")
            .cloned()
            .ok_or("child result lacks `facts`")?,
    })
}

fn spawn_child(workload: &Workload, opts: &Options, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name,
        "--seed",
        &opts.seed.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--out")
    .arg(&opts.out)
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    parse_rep(&Json::parse(line)?)
}

fn summary_json(values: &[f64], unit: &str) -> Json {
    let s = Summary::of(values);
    Json::obj()
        .set("unit", unit)
        .set("median", s.median)
        .set("q1", s.q1)
        .set("q3", s.q3)
        .set("n", s.n)
        .set(
            "samples",
            values.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>(),
        )
}

/// Names under `metrics` (and every fact) whose values must repeat
/// exactly; returns those of `rep` that differ from `first`.
fn exact_mismatches(first: &Rep, rep: &Rep) -> Vec<String> {
    let mut out = Vec::new();
    for (name, value) in first.metrics.fields() {
        let is_exact = metrics::def(name).map(|d| d.clock) == Some(Clock::Exact);
        if is_exact && rep.metrics.get(name) != Some(value) {
            out.push(format!("`{name}` is not the same in every repetition"));
        }
    }
    for (name, value) in first.facts.fields() {
        if rep.facts.get(name) != Some(value) {
            out.push(format!("fact `{name}` is not the same in every repetition"));
        }
    }
    out
}

/// Measure one workload: warm-ups, timed repetitions with every tracing
/// flag off, then (if asked) one traced repetition.
pub fn measure(workload: &Workload, opts: &Options) -> Json {
    let mut failures: Vec<String> = Vec::new();
    for _ in 0..opts.warmups {
        // Discarded, failures and all: it only warms the page cache.
        let _ = spawn_child(workload, opts, false);
    }
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut tried = 0;
    loop {
        match spawn_child(workload, opts, false) {
            Ok(rep) => reps.push(rep),
            Err(why) => failures.push(why),
        }
        tried += 1;
        let done = match opts.reps {
            Reps::Count(n) => tried >= n,
            Reps::Seconds(limit) => {
                // Stop when one more repetition of average length would
                // end after the limit.
                let per_rep = started.elapsed().div_f64(tried as f64);
                tried >= MIN_TIMED_REPS
                    && started.elapsed() + per_rep > Duration::from_secs_f64(limit)
            }
        };
        if done {
            break;
        }
    }
    let traced = opts
        .traced
        .then(|| {
            spawn_child(workload, opts, true)
                .map_err(|why| failures.push(why))
                .ok()
        })
        .flatten();
    assemble(workload, &reps, traced.as_ref(), failures)
}

/// One workload's entry in the result document. `failures` holds one
/// message per child that died; each counts as a failed operation.
fn assemble(
    workload: &Workload,
    reps: &[Rep],
    traced: Option<&Rep>,
    mut failures: Vec<String>,
) -> Json {
    let all = || reps.iter().chain(traced);
    let attempted = all().map(|r| r.attempted).sum::<u64>() + failures.len() as u64;
    let mut failed = all().map(|r| r.failed).sum::<u64>() + failures.len() as u64;
    let mut result = Json::obj()
        .set("repetitions", reps.len())
        .set("work_unit", workload.work_unit);
    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let wall = column(|r| r.wall_s);
    if let Some(first) = reps.first() {
        for rep in all().skip(1) {
            for why in exact_mismatches(first, rep) {
                if !failures.contains(&why) {
                    failures.push(why);
                    failed += 1;
                }
            }
        }
        let end_to_end = Json::obj()
            .set("wall_s", summary_json(&wall, "s"))
            .set(
                "work_per_s",
                summary_json(&column(|r| r.work / r.wall_s), "1/s"),
            )
            .set(
                "peak_rss_mb",
                summary_json(&column(|r| r.peak_rss_mb), "MB"),
            )
            .set("setup_s", summary_json(&column(|r| r.setup_s), "s"));
        let exact =
            first.metrics.fields().iter().fold(
                Json::obj(),
                |doc, (name, value)| match metrics::def(name).map(|d| d.clock) {
                    Some(Clock::Exact) => doc.set(name, value.clone()),
                    _ => doc,
                },
            );
        result = result
            .set("end_to_end", end_to_end)
            .set("exact", exact)
            .set("facts", first.facts.clone());
    }
    if let Some(rep) = traced {
        let mut layers = rep.metrics.clone();
        if !wall.is_empty() {
            layers.insert(
                "trace.overhead_ratio",
                rep.wall_s / Summary::of(&wall).median,
            );
        }
        layers.insert("trace.unattributed_share", rep.unattributed_share);
        // The traced repetition knows every fact the timed ones know.
        result = result.set("layers", layers).set("facts", rep.facts.clone());
    }
    result
        .set("attempted", attempted)
        .set("failed", failed)
        .set(
            "failures",
            failures.into_iter().map(Json::Str).collect::<Vec<_>>(),
        )
}

/// Where and on what the numbers were measured.
pub fn environment() -> Json {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj()
        .set("git_commit", command("git", &["rev-parse", "HEAD"]))
        .set("rustc", command("rustc", &["-V"]))
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .set("cpu_model", cpu_model)
}

/// A per-layer metric of one workload's result: host-clock values are
/// under `layers` (traced repetition), simulated times and counters
/// under `exact`.
pub fn layer_value(workload: &Json, name: &str) -> Option<f64> {
    ["layers", "exact"]
        .iter()
        .find_map(|section| workload.get(section)?.get(name)?.num())
}

/// The line the driver reads: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run;
/// a layer the workload never enters reads 0).
pub fn contract_line(workload: &Json, traced: bool) -> Json {
    let num = |key: &str| workload.get(key).and_then(Json::num).unwrap_or(0.0);
    let mut out = Json::obj();
    if traced {
        for def in metrics::per_layer() {
            let value = layer_value(workload, &def.name).unwrap_or(0.0);
            out.insert(
                &def.name,
                Json::obj()
                    .set("value", value)
                    .set("unit", def.unit.as_str()),
            );
        }
    } else {
        for def in metrics::end_to_end() {
            let value = workload
                .at(&format!("end_to_end/{}/median", def.name))
                .and_then(Json::num);
            // A metric that could not be measured is printed as null,
            // which the driver refuses, rather than as a made-up number.
            let value = value.map_or(Json::Null, Json::Num);
            out.insert(
                &def.name,
                Json::obj()
                    .set("value", value)
                    .set("unit", def.unit.as_str()),
            );
        }
    }
    Json::obj()
        .set("correct", num("failed") == 0.0)
        .set("attempted", num("attempted").max(1.0))
        .set("failed", num("failed"))
        .set("metrics", out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// One smoke repetition of `workload`, run in this process.
    fn smoke_rep(workload: &Workload, traced: bool) -> Rep {
        let mut ctx = Ctx::new(0x11, true, traced);
        workloads::run_repetition(workload, &mut ctx);
        parse_rep(&rep_line(&ctx)).expect("a repetition reports every field")
    }

    /// Two smoke runs agree exactly on every simulated time, counter and
    /// fact, pass every correctness rule, and print exactly the metrics
    /// `BENCHMARK.json` declares: all of them, and no other.
    #[test]
    fn smoke_runs_are_deterministic_correct_and_print_the_declared_metrics() {
        let spec = metrics::benchmark_json();
        let declared = |section: &str| -> BTreeSet<String> {
            let names = spec.at(section).expect("section").arr().iter();
            names
                .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
                .collect()
        };
        let mut workloads_doc = Json::obj();
        let mut emitted = BTreeSet::new();
        for workload in &workloads::WORKLOADS {
            let (a, b, traced) = (
                smoke_rep(workload, false),
                smoke_rep(workload, false),
                smoke_rep(workload, true),
            );
            assert_eq!(
                exact_mismatches(&a, &b),
                Vec::<String>::new(),
                "{}",
                workload.name
            );
            assert_eq!(
                exact_mismatches(&a, &traced),
                Vec::<String>::new(),
                "{}",
                workload.name
            );
            assert!(!a.metrics.fields().is_empty() && !a.facts.fields().is_empty());

            let result = assemble(workload, &[a, b], Some(&traced), Vec::new());
            for section in ["layers", "exact"] {
                let names = result.get(section).expect("section").fields().iter();
                emitted.extend(names.map(|(name, _)| name.clone()));
            }
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{}",
                workload.name
            );
            for (is_traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let line = contract_line(&result, is_traced);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                let metrics = line.get("metrics").expect("metrics").fields();
                let printed: BTreeSet<String> =
                    metrics.iter().map(|(name, _)| name.clone()).collect();
                assert_eq!(printed, declared(section), "{} {section}", workload.name);
                assert!(metrics
                    .iter()
                    .all(|(_, m)| m.get("value").and_then(Json::num).is_some()));
                // an end-to-end metric is never 0
                assert!(
                    is_traced
                        || metrics
                            .iter()
                            .all(|(_, m)| m.get("value").and_then(Json::num) > Some(0.0))
                );
            }
            workloads_doc.insert(workload.name, result);
        }
        // no declared layer metric is only ever printed as a filled-in 0
        assert_eq!(emitted, declared("per_layer"));
        let result = Json::obj().set("workloads", workloads_doc);
        let rules = Json::parse(crate::rules::RULES_JSON).expect("rules.json parses");
        let failures = crate::rules::evaluate(&rules, &result, true);
        assert!(failures.is_empty(), "{failures:?}");
        let names: Vec<&str> = spec
            .at("workloads")
            .expect("workloads")
            .arr()
            .iter()
            .filter_map(|w| w.get("name")?.str())
            .collect();
        assert_eq!(
            names,
            workloads::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_repetition_that_disagrees_or_dies_fails_the_workload() {
        let rep = |makespan: f64| Rep {
            setup_s: 0.1,
            wall_s: 1.0,
            work: 10.0,
            peak_rss_mb: 5.0,
            attempted: 1,
            failed: 0,
            metrics: Json::obj()
                .set("sim.makespan_ms", makespan)
                .set("runtime.execute_ns", makespan * 7.0),
            facts: Json::obj().set("tasks", 10.0),
            unattributed_share: 0.0,
        };
        let w = &workloads::WORKLOADS[0];
        let same = assemble(w, &[rep(1.0), rep(1.0), rep(1.0)], None, Vec::new());
        assert_eq!(same.at("failed").and_then(Json::num), Some(0.0));
        assert_eq!(same.at("attempted").and_then(Json::num), Some(3.0));
        assert_eq!(
            same.at("end_to_end/work_per_s/median").and_then(Json::num),
            Some(10.0)
        );
        // host-clock values may differ between repetitions; exact ones may not
        let differs = assemble(w, &[rep(1.0), rep(2.0)], None, Vec::new());
        assert_eq!(differs.at("failed").and_then(Json::num), Some(1.0));
        assert!(differs
            .at("failures/0")
            .and_then(Json::str)
            .is_some_and(|f| f.contains("sim.makespan_ms")));
        let died = assemble(
            w,
            &[rep(1.0)],
            None,
            vec!["child exited with signal 9".into()],
        );
        assert_eq!(
            (
                died.at("attempted").and_then(Json::num),
                died.at("failed").and_then(Json::num)
            ),
            (Some(2.0), Some(1.0))
        );
        assert_eq!(
            contract_line(&died, false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
