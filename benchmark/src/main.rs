//! The repo's benchmark: eight workloads, host and simulated clocks,
//! and a per-layer trace recorded from outside the library.
//!
//! ```text
//! benchmark run  [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
//!                [--smoke] [--out DIR]
//! benchmark diff OLD NEW
//! ```
//!
//! `run` with no `--workload` measures the whole suite (one warm-up,
//! seven timed repetitions and one traced repetition per workload) and
//! writes `<out>/result.json`. With one `--workload` it also prints, as
//! its last line, the result object the driver of `BENCHMARK.json`
//! reads. See `benchmark/README.md`.

mod diff;
mod json;
mod metrics;
mod rules;
mod span;
mod stats;
mod suite;
mod workloads;

use json::Json;
use metrics::Clock;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use suite::{Options, Reps};

const DEFAULT_SEED: u64 = 0x11;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("child") => child(&args[1..]),
        Some("diff") => diff_files(&args[1..]),
        _ => Err(
            "usage: benchmark run [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1] \
                  [--smoke] [--out DIR]\n       benchmark diff OLD NEW"
                .to_string(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// Options common to `run` and `child`, checked where they enter.
struct Args {
    workloads: Vec<&'static workloads::Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed `{text}` is not a whole number"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
                out.workloads.push(known);
            }
            "--seed" => out.seed = parse_seed(value()?)?,
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text
                    .parse()
                    .map_err(|_| format!("--seconds `{text}` is not a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                out.seconds = Some(seconds);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace `{other}` is neither 0 nor 1")),
                })
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(out)
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    let [workload] = args.workloads[..] else {
        return Err("child needs exactly one --workload".into());
    };
    let out = args.out.ok_or("child needs --out")?;
    suite::child(
        workload,
        args.seed,
        args.smoke,
        args.trace.unwrap_or(false),
        &out,
    )?;
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".into());
    }
    let args = parse_args(args)?;
    let single = args.workloads.len() == 1;
    let full_suite = args.workloads.is_empty();
    let selected: Vec<&workloads::Workload> = if full_suite {
        workloads::WORKLOADS.iter().collect()
    } else {
        args.workloads
    };
    // A smoke run leaves nothing in the tree.
    let out = args.out.unwrap_or_else(|| {
        if args.smoke {
            std::env::temp_dir().join(format!("il-benchmark-smoke-{}", std::process::id()))
        } else {
            PathBuf::from("benchmark/out")
        }
    });
    let traced = args.trace.unwrap_or(true);
    let reps = match args.seconds {
        // A traced run under a time limit spends the time on the traced
        // repetition; two timed ones give its overhead ratio a base.
        Some(_) if traced => Reps::Count(2),
        Some(t) => Reps::Seconds(t),
        None => Reps::Count(if args.smoke { 2 } else { 7 }),
    };
    let opts = Options {
        seed: args.seed,
        smoke: args.smoke,
        out: out.clone(),
        // Under a time limit a warm-up would cost a timed repetition, and
        // the median already sets a cold first repetition aside.
        warmups: usize::from(args.seconds.is_none() && !args.smoke),
        reps,
        traced,
    };

    let mut measured = Json::obj();
    for workload in &selected {
        eprintln!("measuring {} ...", workload.name);
        measured.insert(workload.name, suite::measure(workload, &opts));
    }
    let mut result = suite::environment()
        .set("schema", "il-benchmark-v1")
        .set("seed", opts.seed)
        .set("smoke", opts.smoke)
        .set("workloads", measured);

    // The correctness rules; a failed row fails its workload.
    let rules = Json::parse(rules::RULES_JSON)?;
    let mut suite_failures = Vec::new();
    for (scope, why) in rules::evaluate(&rules, &result, full_suite) {
        eprintln!("FAILED [{scope}] {why}");
        let workload = result.get_mut("workloads").and_then(|w| w.get_mut(&scope));
        match workload {
            Some(w) => {
                let failed = w.get("failed").and_then(Json::num).unwrap_or(0.0).max(1.0);
                let mut failures = w
                    .get("failures")
                    .map(|f| f.arr().to_vec())
                    .unwrap_or_default();
                failures.push(Json::Str(why));
                w.insert("failed", failed);
                w.insert("failures", failures);
            }
            None => suite_failures.push(Json::Str(why)),
        }
    }
    let suite_failed = !suite_failures.is_empty();
    result.insert("suite_failures", suite_failures);

    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join("result.json");
    std::fs::write(&path, result.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut all_correct = !suite_failed;
    for (name, workload) in result
        .get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
    {
        print_workload(name, workload);
        all_correct &= workload.get("failed").and_then(Json::num) == Some(0.0);
    }
    println!("result written to {}", path.display());
    if single {
        let (_, workload) = &result
            .get("workloads")
            .map(Json::fields)
            .unwrap_or_default()[0];
        println!("{}", suite::contract_line(workload, traced).compact());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every metric of one workload, by name and unit.
fn print_workload(name: &str, w: &Json) {
    let num = |path: &str| w.at(path).and_then(Json::num).unwrap_or(f64::NAN);
    println!(
        "== {name}: {} timed repetitions, {} of {} operations failed",
        num("repetitions"),
        num("failed"),
        num("attempted")
    );
    for failure in w.get("failures").map(Json::arr).unwrap_or_default() {
        println!("   FAILED: {}", failure.str().unwrap_or("?"));
    }
    for def in metrics::end_to_end() {
        let at = |field: &str| num(&format!("end_to_end/{}/{field}", def.name));
        println!(
            "   {:<40} {:>16.6} {:<6} median of n={} (q1 {:.6}, q3 {:.6})",
            def.name,
            at("median"),
            def.unit,
            at("n"),
            at("q1"),
            at("q3")
        );
    }
    if name == "service-skewed" {
        let panicked = num("exact/runtime.service.panicked_mixes");
        if panicked > 0.0 {
            println!(
                "   WARNING: Service::run panicked on {panicked} mix(es) derived from the seed; \
                 the numbers are those of the next mix it could run"
            );
        }
        let samples = num("facts/latency_samples") as usize;
        println!(
            "   session latency: highest percentile with ten samples beyond it is p{} (n={samples})",
            stats::highest_percentile(samples)
        );
    }
    for def in metrics::per_layer() {
        if let Some(value) = suite::layer_value(w, &def.name) {
            let clock = if def.clock == Clock::Exact {
                "exact"
            } else {
                "n=1"
            };
            println!("   {:<40} {value:>16.4} {:<6} {clock}", def.name, def.unit);
        }
    }
}

fn load_result(path: &str) -> Result<Json, String> {
    let path = Path::new(path);
    let file = if path.is_dir() {
        path.join("result.json")
    } else {
        path.to_path_buf()
    };
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

fn diff_files(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("diff needs two result files or directories: OLD NEW".into());
    };
    let report = diff::diff(
        &metrics::benchmark_json(),
        &load_result(old)?,
        &load_result(new)?,
    )?;
    print!("{}", report.text);
    Ok(match (report.worse, report.unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    })
}
