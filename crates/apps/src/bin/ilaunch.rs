//! `ilaunch` — run any of the paper's applications from the command line.
//!
//! ```text
//! cargo run -p il-apps --release --bin ilaunch -- circuit --nodes 8 --validate
//! cargo run -p il-apps --release --bin ilaunch -- stencil --nodes 64
//! cargo run -p il-apps --release --bin ilaunch -- soleil --nodes 16 --fluid-only
//! cargo run -p il-apps --release --bin ilaunch -- circuit --nodes 256 --no-idx
//! cargo run -p il-apps --release --bin ilaunch -- amr --nodes 16 --validate
//! cargo run -p il-apps --release --bin ilaunch -- pagerank --pieces 100000
//! ```
//!
//! Scale mode (default) runs the cost-modeled simulation and reports
//! throughput; `--validate` runs real kernels on a small problem and
//! checks the result against the sequential reference.
//!
//! `--trace FILE` collects the structured per-stage event log and writes
//! it as Chrome `about:tracing` JSON to FILE (open in `chrome://tracing`
//! or Perfetto), along with a per-stage busy/traffic summary on stdout.
//! `--audit` forces the pipeline audits on (they default to debug-only).
//!
//! `--faults SEED` runs the app under the seeded survivable fault
//! schedule (message drops/duplication, one node crash, one slow node)
//! and prints the recovery counters; `--validate --faults SEED` also
//! checks that the faulted run still matches the sequential reference.
//!
//! `ilaunch serve --policy P [--sessions N] [--tenants T] [--slots S]
//! [--slot-nodes K] [--seed SEED] [--mean-gap-us G] [--skewed] [--heavy H]
//! [--light L] [--queue-cap C] [--faults SEED] [--per-session]` runs the
//! multi-tenant service scheduler instead of a single application: a
//! seeded workload mix (golden apps + fuzzer programs, Poisson-like
//! arrivals) streams through the shared simulated machine under the
//! chosen scheduling policy (`fifo`, `fair`, `aged-priority`, or `all`
//! to compare the three), printing per-policy throughput and latency
//! percentiles — `--per-session` adds one line per session.
//!
//! `ilaunch fuzz --cases N --seed S [--nodes K] [--threads T] [--inject]`
//! runs the differential fuzzer instead of an application: N seeded random
//! launch programs through both the fast path and the desugared-launch
//! oracle, printing verdict-class coverage and, on any divergence, the
//! single seed that reproduces it (exit code 1). Cases fan out across a
//! thread pool (`--threads`, default one worker per hardware thread) with
//! results folded in case order, so the report is identical at any width.
//! `--inject` perturbs the oracle of every case and demands the
//! divergence is caught (self test). `fuzz --faults SEED` adds a chaos
//! leg to every case: the program re-executes under a survivable fault
//! schedule derived from SEED and the case seed, and must run the same
//! tasks, no faster than fault-free, with a byte-identical replay.
//! `fuzz --corrupt SEED` adds a silent-data-corruption leg: the program
//! re-executes in validation mode under a seeded bit-flip schedule with
//! replicate-2 defense, and every flip must be caught (zero escapes)
//! with the final store converging byte-for-byte to the fault-free run.

use il_apps::service_mix::{generate_mix, skewed_mix, MixConfig};
use il_apps::{amr, circuit, pagerank, soleil, stencil};
use il_machine::SimTime;
use il_oracle::{run_case, run_differential, DiffConfig};
use il_runtime::{
    execute, policy_by_name, CloseStats, FaultConfig, RunReport, RuntimeConfig, Service,
    ServiceConfig,
};

struct Args {
    app: String,
    nodes: usize,
    validate: bool,
    dcr: bool,
    idx: bool,
    tracing: bool,
    trace_replay: bool,
    checks: bool,
    fluid_only: bool,
    overdecompose: usize,
    strong: bool,
    trace_out: Option<String>,
    audit: bool,
    faults: Option<u64>,
    pieces: usize,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        app: String::new(),
        nodes: 4,
        validate: false,
        dcr: true,
        idx: true,
        tracing: true,
        trace_replay: true,
        checks: true,
        fluid_only: false,
        overdecompose: 1,
        strong: false,
        trace_out: None,
        audit: false,
        faults: None,
        pieces: 0,
    };
    let mut it = argv.into_iter();
    args.app = it
        .next()
        .ok_or("usage: ilaunch <circuit|stencil|soleil|amr|pagerank> [flags]")?;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--nodes" => {
                args.nodes = it
                    .next()
                    .ok_or("--nodes takes a value")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--pieces" => {
                args.pieces = it
                    .next()
                    .ok_or("--pieces takes a value")?
                    .parse()
                    .map_err(|e| format!("--pieces: {e}"))?;
            }
            "--overdecompose" => {
                args.overdecompose = it
                    .next()
                    .ok_or("--overdecompose takes a value")?
                    .parse()
                    .map_err(|e| format!("--overdecompose: {e}"))?;
            }
            "--trace" => {
                args.trace_out = Some(it.next().ok_or("--trace takes an output path")?);
            }
            "--audit" => args.audit = true,
            "--faults" => {
                args.faults = Some(parse_seed(&it.next().ok_or("--faults takes a seed")?)?);
            }
            "--validate" => args.validate = true,
            "--strong" => args.strong = true,
            "--no-dcr" => args.dcr = false,
            "--no-idx" => args.idx = false,
            "--no-tracing" => args.tracing = false,
            "--no-trace-replay" => args.trace_replay = false,
            "--no-checks" => args.checks = false,
            "--fluid-only" => args.fluid_only = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn runtime_config(a: &Args) -> RuntimeConfig {
    let base = if a.validate {
        RuntimeConfig::validate(a.nodes)
    } else {
        RuntimeConfig::scale(a.nodes)
    };
    let mut config = base
        .with_axes(a.dcr, a.idx)
        .with_tracing(a.tracing)
        .with_trace_replay(a.trace_replay)
        .with_dynamic_checks(a.checks)
        .with_trace(a.trace_out.is_some());
    if a.audit {
        config = config.with_audit(true);
    }
    if let Some(seed) = a.faults {
        config = config.with_faults(seed);
    }
    config
}

fn report_line(args: &Args, report: &RunReport) {
    println!(
        "tasks: {}   makespan: {}   elapsed(timed): {}   messages: {}   bytes: {}   dyn-checks: {}",
        report.tasks,
        report.makespan,
        report.elapsed,
        report.messages,
        report.bytes,
        report.dynamic_check_time
    );
    let tr = &report.trace_replay;
    if tr.enabled && tr.captured + tr.abandoned > 0 {
        println!(
            "trace replay: {} captured, {} replayed, {} invalidated, {} abandoned, {} analyses skipped",
            tr.captured, tr.replayed, tr.invalidated, tr.abandoned, tr.analyses_skipped
        );
    }
    if let Some(rec) = &report.recovery {
        println!(
            "faults (seed {:#x}): {} crash(es), {} slow node(s), {} dropped, {} duplicated, \
             {} crash-dropped",
            rec.seed, rec.crashes, rec.slow_nodes, rec.dropped, rec.duplicated, rec.crash_dropped
        );
        println!(
            "recovery: {} checks, {} retried tasks, {} re-sharded groups, {} re-analyses",
            rec.recovery_checks, rec.retried_tasks, rec.resharded_groups, rec.reanalyses
        );
    }
    if let Some(audit) = &report.audit {
        println!(
            "audits: OK ({} credits conserved, {} slices covered)",
            audit.credits_paid, audit.slices_covered
        );
    }
    if let Some(path) = &args.trace_out {
        println!("per-stage breakdown (busy time | messages | bytes):");
        for (stage, busy) in report.stage_busy.iter() {
            let i = stage.index();
            if busy.as_ns() == 0 && report.stage_messages[i] == 0 {
                continue;
            }
            println!(
                "  {:<14} {:>14}   {:>8} msgs   {:>12} B",
                stage.name(),
                busy.to_string(),
                report.stage_messages[i],
                report.stage_bytes[i]
            );
        }
        let trace = report.trace.as_ref().expect("--trace requested");
        std::fs::write(path, trace.to_chrome_trace())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({} events)", trace.len());
    }
}

fn parse_seed(v: &str) -> Result<u64, String> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("seed: {e}"))
    } else {
        v.parse().map_err(|e| format!("seed: {e}"))
    }
}

fn parse_fuzz(argv: &[String]) -> Result<(DiffConfig, Option<u64>), String> {
    let mut cfg = DiffConfig::default();
    let mut repro = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cases" => {
                cfg.cases = it
                    .next()
                    .ok_or("--cases takes a value")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                cfg.seed = parse_seed(it.next().ok_or("--seed takes a value")?)?;
            }
            "--repro" => {
                repro = Some(parse_seed(it.next().ok_or("--repro takes a case seed")?)?);
            }
            "--nodes" => {
                cfg.nodes = it
                    .next()
                    .ok_or("--nodes takes a value")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--threads" => {
                cfg.threads = it
                    .next()
                    .ok_or("--threads takes a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--inject" => cfg.inject = true,
            "--faults" => {
                cfg.faults = Some(parse_seed(it.next().ok_or("--faults takes a seed")?)?);
            }
            "--corrupt" => {
                cfg.corrupt = Some(parse_seed(it.next().ok_or("--corrupt takes a seed")?)?);
            }
            other => return Err(format!("unknown fuzz flag {other:?}")),
        }
    }
    Ok((cfg, repro))
}

/// The dependence oracle's close count, as the fuzz driver prints it.
fn closes_line(c: &CloseStats) -> String {
    format!("oracle closes: {} retired {} reader field bits", c.closes, c.reader_bits)
}

fn fuzz_main(argv: &[String]) -> ! {
    let (cfg, repro) = match parse_fuzz(argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: ilaunch fuzz [--cases N] [--seed S] [--nodes K] [--threads T] \
                 [--inject] [--faults SEED] [--corrupt SEED] [--repro CASE_SEED]"
            );
            std::process::exit(2);
        }
    };
    if let Some(seed) = repro {
        println!(
            "differential repro: case seed {seed:#018x}, {} nodes{}",
            cfg.nodes,
            if cfg.inject { ", divergence injection ON" } else { "" }
        );
        let result = run_case(seed, cfg.nodes, cfg.inject, cfg.faults, cfg.corrupt);
        println!("{} point tasks", result.tasks);
        println!("verdict-class coverage:\n{}", result.coverage);
        println!("{}", closes_line(&result.closes));
        match result.error {
            Some(detail) => {
                eprintln!("DIVERGENCE (seed {seed:#018x}): {detail}");
                std::process::exit(1);
            }
            None => {
                println!("no divergence");
                std::process::exit(0);
            }
        }
    }
    println!(
        "differential fuzz: {} cases, base seed {:#018x}, {} nodes{}{}{}",
        cfg.cases,
        cfg.seed,
        cfg.nodes,
        if cfg.inject { ", divergence injection ON" } else { "" },
        match cfg.faults {
            Some(s) => format!(", chaos leg ON (fault seed {s:#x})"),
            None => String::new(),
        },
        match cfg.corrupt {
            Some(s) => format!(", corruption leg ON (corrupt seed {s:#x})"),
            None => String::new(),
        }
    );
    let report = run_differential(&cfg);
    println!("{} point tasks across {} programs", report.tasks, report.cases);
    println!("verdict-class coverage:\n{}", report.coverage);
    println!("{}", closes_line(&report.closes));
    if cfg.inject {
        if report.divergences.len() == report.cases as usize {
            println!(
                "self test OK: all {} injected divergences were caught",
                report.cases
            );
            std::process::exit(0);
        }
        eprintln!(
            "SELF TEST FAILED: only {} of {} injected divergences caught",
            report.divergences.len(),
            report.cases
        );
        std::process::exit(1);
    }
    if report.divergences.is_empty() {
        if !report.coverage.complete() {
            println!("note: classes not exercised: {:?}", report.coverage.missing());
        }
        println!("no divergences");
        std::process::exit(0);
    }
    for d in &report.divergences {
        eprintln!("DIVERGENCE {d}");
        eprintln!("  reproduce: ilaunch fuzz --repro {:#x}", d.seed);
    }
    std::process::exit(1);
}

struct ServeArgs {
    policies: Vec<String>,
    sessions: usize,
    tenants: u32,
    slots: usize,
    slot_nodes: usize,
    seed: u64,
    mean_gap_us: u64,
    skewed: bool,
    heavy: usize,
    light: usize,
    queue_cap: usize,
    faults: Option<u64>,
    per_session: bool,
}

/// The names `policy_by_name` accepts.
const SERVE_POLICIES: [&str; 3] = ["fifo", "fair", "aged-priority"];

fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
    let mut a = ServeArgs {
        policies: vec!["fifo".into()],
        sessions: 32,
        tenants: 8,
        slots: 2,
        slot_nodes: 2,
        seed: 0x5E8E,
        mean_gap_us: 50,
        skewed: false,
        heavy: 10,
        light: 1500,
        queue_cap: 0,
        faults: None,
        per_session: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{name} takes a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--policy" => {
                let v = it.next().ok_or("--policy takes a value")?;
                a.policies = if v == "all" {
                    SERVE_POLICIES.iter().map(|p| p.to_string()).collect()
                } else {
                    vec![v.clone()]
                };
            }
            "--sessions" => a.sessions = num("--sessions")? as usize,
            "--tenants" => a.tenants = num("--tenants")? as u32,
            "--slots" => a.slots = num("--slots")? as usize,
            "--slot-nodes" => a.slot_nodes = num("--slot-nodes")? as usize,
            "--seed" => a.seed = parse_seed(it.next().ok_or("--seed takes a value")?)?,
            "--mean-gap-us" => a.mean_gap_us = num("--mean-gap-us")?,
            "--skewed" => a.skewed = true,
            "--heavy" => a.heavy = num("--heavy")? as usize,
            "--light" => a.light = num("--light")? as usize,
            "--queue-cap" => a.queue_cap = num("--queue-cap")? as usize,
            "--faults" => {
                a.faults = Some(parse_seed(it.next().ok_or("--faults takes a seed")?)?);
            }
            "--per-session" => a.per_session = true,
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    // Everything the library below asserts on is refused here, where it
    // is still user input.
    if let Some(p) = a.policies.iter().find(|p| !SERVE_POLICIES.contains(&p.as_str())) {
        return Err(format!("--policy: unknown policy {p:?}"));
    }
    if a.slots == 0 || a.slot_nodes == 0 {
        return Err("--slots and --slot-nodes must be at least 1".into());
    }
    if a.mean_gap_us == 0 {
        return Err("--mean-gap-us must be at least 1".into());
    }
    if a.skewed {
        if a.tenants < 2 {
            return Err("--skewed needs --tenants of at least 2 (one heavy, one light)".into());
        }
        if a.heavy + a.light == 0 {
            return Err("--skewed needs at least one session (--heavy + --light)".into());
        }
    } else if a.sessions == 0 || a.tenants == 0 {
        return Err("--sessions and --tenants must be at least 1".into());
    }
    Ok(a)
}

fn serve_main(argv: &[String]) -> ! {
    let a = match parse_serve(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: ilaunch serve [--policy fifo|fair|aged-priority|all] [--sessions N] \
                 [--tenants T] [--slots S] [--slot-nodes K] [--seed SEED] [--mean-gap-us G] \
                 [--skewed] [--heavy H] [--light L] [--queue-cap C] [--faults SEED] \
                 [--per-session]"
            );
            std::process::exit(2);
        }
    };
    let cfg = MixConfig {
        seed: a.seed,
        tenants: a.tenants,
        sessions: a.sessions,
        slot_nodes: a.slot_nodes,
        mean_gap: SimTime::us(a.mean_gap_us),
        fuzz_per_mille: 500,
    };
    let sessions = if a.skewed {
        skewed_mix(&cfg, a.heavy, a.light)
    } else {
        generate_mix(&cfg)
    };
    println!(
        "service mix: {} sessions, {} tenants, {} slots x {} nodes, seed {:#x}{}",
        sessions.len(),
        a.tenants,
        a.slots,
        a.slot_nodes,
        a.seed,
        if a.skewed {
            format!(" (skewed: {} heavy + {} light)", a.heavy, a.light)
        } else {
            String::new()
        }
    );
    for policy in &a.policies {
        let mut svc = Service::new(
            ServiceConfig {
                slots: a.slots,
                slot_nodes: a.slot_nodes,
                queue_cap: if a.queue_cap == 0 { sessions.len().max(1) } else { a.queue_cap },
                faults: a.faults.map(FaultConfig::from_seed),
                replication_overrides: vec![],
            },
            policy_by_name(policy),
        );
        let out = svc.run(&sessions);
        let mut latencies: Vec<u64> =
            out.sessions.iter().map(|s| s.latency().as_ns()).collect();
        latencies.sort_unstable();
        let pct = |p: f64| -> SimTime {
            let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
            SimTime::ns(latencies[rank.clamp(1, latencies.len()) - 1])
        };
        let secs = out.makespan.as_ns() as f64 / 1e9;
        println!(
            "{:>13}: {} finished, {} rejected, {} rounds, makespan {}   \
             {:.1} sessions/s   p50 {}  p95 {}  p99 {}",
            out.policy,
            out.sessions.len(),
            out.rejected.len(),
            out.rounds,
            out.makespan,
            if secs > 0.0 { out.sessions.len() as f64 / secs } else { 0.0 },
            pct(50.0),
            pct(95.0),
            pct(99.0),
        );
        if a.per_session {
            let mut by_finish: Vec<_> = out.sessions.iter().collect();
            by_finish.sort_by_key(|s| (s.finished, s.submit_idx));
            for s in by_finish {
                println!(
                    "    #{:<3} tenant {:<2} prio {}  slot {}  arrival {:>12}  admitted {:>12}  \
                     finished {:>12}  latency {:>12}  waited {} rounds  tasks {}",
                    s.submit_idx,
                    s.tenant,
                    s.priority,
                    s.slot,
                    s.arrival,
                    s.admitted,
                    s.finished,
                    s.latency(),
                    s.wait_rounds,
                    s.report.tasks,
                );
            }
        }
    }
    std::process::exit(0);
}

/// Print the largest absolute difference between `got` and the app's
/// sequential reference `want` as `validation: max |<label>| = <err>`,
/// and fail unless it is below `tol`.
fn check_result(label: &str, got: &[f64], want: &[f64], tol: f64) {
    let err = got.iter().zip(want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("validation: max |{label}| = {err:.2e}");
    assert!(err < tol, "validation failed");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("fuzz") {
        fuzz_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        serve_main(&argv[1..]);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let rt = runtime_config(&args);
    println!(
        "{} on {} simulated nodes [dcr={} idx={} tracing={} replay={} checks={} mode={}]",
        args.app,
        args.nodes,
        args.dcr,
        args.idx,
        args.tracing,
        args.trace_replay,
        args.checks,
        if args.validate { "validate" } else { "scale" }
    );

    match args.app.as_str() {
        "circuit" => {
            let config = if args.validate {
                circuit::CircuitConfig::tiny(args.nodes.max(2))
            } else if args.strong {
                circuit::CircuitConfig::strong(args.nodes)
            } else {
                circuit::CircuitConfig::weak(args.nodes, args.overdecompose)
            };
            let app = circuit::build(&config);
            let report = execute(&app.program, &rt);
            report_line(&args, &report);
            println!(
                "throughput: {:.3e} wires/s ({:.3e} per node)",
                circuit::throughput(&config, &report),
                circuit::throughput(&config, &report) / args.nodes as f64
            );
            if args.validate {
                let got = circuit::extract_voltages(&app, &report);
                let want = circuit::reference(&config, &app.wires);
                check_result("voltage error", &got, &want, 1e-9);
            }
        }
        "stencil" => {
            let config = if args.validate {
                stencil::StencilConfig::tiny((2, 2))
            } else if args.strong {
                stencil::StencilConfig::strong(args.nodes)
            } else {
                stencil::StencilConfig::weak(args.nodes)
            };
            let app = stencil::build(&config);
            let report = execute(&app.program, &rt);
            report_line(&args, &report);
            println!(
                "throughput: {:.3e} cells/s ({:.3e} per node)",
                stencil::throughput(&config, &report),
                stencil::throughput(&config, &report) / args.nodes as f64
            );
            if args.validate {
                let got = stencil::extract_fout(&app, &report);
                let want = stencil::reference(&config);
                check_result("error", &got, &want, 1e-9);
            }
        }
        "soleil" => {
            let config = if args.validate {
                let mut c = soleil::SoleilConfig::tiny((2, 2, 2));
                if args.fluid_only {
                    c.dom = false;
                    c.particles = false;
                }
                c
            } else if args.fluid_only {
                soleil::SoleilConfig::fluid_weak(args.nodes)
            } else {
                soleil::SoleilConfig::full_weak(args.nodes)
            };
            let app = soleil::build(&config);
            let report = execute(&app.program, &rt);
            report_line(&args, &report);
            println!(
                "throughput: {:.3} iter/s per node",
                soleil::throughput(&config, &report)
            );
            if args.validate {
                let got = soleil::extract_u(&app, &report);
                let want = soleil::reference(&config);
                check_result("u error", &got, &want, 1e-12);
            }
        }
        "amr" => {
            let config = if args.validate {
                amr::AmrConfig::tiny()
            } else if args.strong {
                amr::AmrConfig::strong(args.nodes)
            } else {
                amr::AmrConfig::weak(args.nodes)
            };
            let app = amr::build(&config);
            let report = execute(&app.program, &rt);
            report_line(&args, &report);
            println!(
                "throughput: {:.3e} cells/s ({:.3e} per node)",
                amr::throughput(&config, &report),
                amr::throughput(&config, &report) / args.nodes as f64
            );
            if args.validate {
                let got = amr::extract_u(&app, &report);
                let want = amr::reference(&config);
                check_result("u error", &got, &want, 1e-9);
            }
        }
        "pagerank" => {
            let config = if args.validate {
                pagerank::PagerankConfig::tiny(if args.pieces == 0 { 6 } else { args.pieces })
            } else {
                let pieces = if args.pieces == 0 { args.nodes * 1024 } else { args.pieces };
                pagerank::PagerankConfig::scale(pieces)
            };
            println!(
                "pagerank: {} pieces, {} vertices, {} edges",
                config.pieces,
                config.total_nodes(),
                config.total_edges()
            );
            let app = pagerank::build(&config);
            let report = execute(&app.program, &rt);
            report_line(&args, &report);
            println!(
                "throughput: {:.3e} edges/s ({:.3e} per node)",
                pagerank::throughput(&config, &report),
                pagerank::throughput(&config, &report) / args.nodes as f64
            );
            if args.validate {
                let got = pagerank::extract_ranks(&app, &report);
                let want = pagerank::reference(&config, &app.edges);
                check_result("rank error", &got, &want, 1e-12);
            }
        }
        other => {
            eprintln!(
                "unknown app {other:?} (expected circuit, stencil, soleil, amr, or pagerank)"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(args: &[&str]) -> Result<ServeArgs, String> {
        parse_serve(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn rejected(args: &[&str]) -> String {
        serve(args).err().unwrap_or_else(|| panic!("{args:?} was accepted"))
    }

    #[test]
    fn serve_accepts_the_defaults() {
        let a = serve(&[]).expect("defaults are valid");
        assert_eq!(a.policies, ["fifo"]);
        assert_eq!((a.sessions, a.tenants, a.slots, a.slot_nodes), (32, 8, 2, 2));
        let all = serve(&["--policy", "all", "--skewed"]).expect("default skew is valid");
        assert_eq!(all.policies, SERVE_POLICIES);
    }

    #[test]
    fn serve_rejects_an_unknown_policy() {
        assert!(rejected(&["--policy", "nope"]).contains("nope"));
    }

    #[test]
    fn serve_rejects_zero_slots() {
        assert!(rejected(&["--slots", "0"]).contains("--slots"));
    }

    #[test]
    fn serve_rejects_zero_slot_nodes() {
        assert!(rejected(&["--slot-nodes", "0"]).contains("--slot-nodes"));
    }

    #[test]
    fn serve_rejects_zero_sessions() {
        assert!(rejected(&["--sessions", "0"]).contains("--sessions"));
        // ... but a skewed mix does not read --sessions.
        assert!(serve(&["--sessions", "0", "--skewed"]).is_ok());
    }

    #[test]
    fn serve_rejects_zero_tenants() {
        assert!(rejected(&["--tenants", "0"]).contains("--tenants"));
    }

    #[test]
    fn serve_rejects_a_skew_without_a_light_tenant() {
        assert!(rejected(&["--tenants", "1", "--skewed"]).contains("--tenants"));
        assert!(serve(&["--tenants", "1"]).is_ok());
    }

    #[test]
    fn serve_rejects_an_empty_skewed_mix() {
        assert!(rejected(&["--skewed", "--heavy", "0", "--light", "0"]).contains("--heavy"));
        assert!(serve(&["--skewed", "--heavy", "0", "--light", "1"]).is_ok());
    }

    #[test]
    fn serve_rejects_a_zero_mean_gap() {
        assert!(rejected(&["--mean-gap-us", "0"]).contains("--mean-gap-us"));
    }
}
