//! End-to-end checks of the per-stage runtime tracing and the pipeline
//! audits (credit conservation + slice-tree coverage).
//!
//! Three properties are pinned down here:
//!
//! 1. **Determinism** — two independent builds + runs of the same
//!    program produce byte-identical Chrome `about:tracing` JSON, and
//!    collecting the trace never changes the simulated result.
//! 2. **Accounting** — per-stage busy times are consistent with the
//!    makespan: each node's runtime-thread stages fit inside it,
//!    processor time is bounded by makespan × processor count, and the
//!    trace's own per-stage totals agree exactly with the report's for
//!    every stage the trace covers.
//! 3. **Audits** — the credit-conservation and slice-coverage audits
//!    pass on all four safety-matrix apps, under DCR and non-DCR.

use index_launch::apps::{circuit, soleil, stencil};
use index_launch::geometry::{Domain, DomainPoint};
use index_launch::machine::{FaultSpec, MachineDesc, SimTime, Stage};
use index_launch::region::{equal_partition_1d, FieldKind, FieldSpaceDesc, Privilege};
use index_launch::analysis::ProjExpr;
use index_launch::runtime::{
    execute, CostSpec, FaultConfig, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RunReport, RuntimeConfig,
};

fn tiny_stencil() -> Program {
    stencil::build(&stencil::StencilConfig {
        iterations: 2,
        ..stencil::StencilConfig::tiny((2, 2))
    })
    .program
}

/// The safety-matrix program whose second launch needs a dynamic check
/// (same construction as `safety_matrix.rs`), so the audits also run
/// over an op that went through the dynamic-check path.
fn opaque_program() -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let domain = Domain::range(8);
    let task = b.task("reverse_write", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, f, p, p.x() as f64);
        }
    });
    for functor in [
        b.identity_functor(),
        b.functor(ProjExpr::opaque(|p| DomainPoint::new1(7 - p.x()))),
    ] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: domain.clone(),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    b.build()
}

/// Minimal structural JSON validator: delimiters balance outside string
/// literals and the document is a single object.
fn assert_well_formed_json(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth.push(c),
            '}' => assert_eq!(depth.pop(), Some('{'), "unbalanced '}}'"),
            ']' => assert_eq!(depth.pop(), Some('['), "unbalanced ']'"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string literal");
    assert!(depth.is_empty(), "unclosed delimiters: {depth:?}");
    assert!(s.trim_start().starts_with('{') && s.trim_end().ends_with('}'));
}

#[test]
fn chrome_trace_is_deterministic_and_well_formed() {
    let run = || {
        let program = tiny_stencil();
        let config = RuntimeConfig::validate(4).with_trace(true).with_audit(true);
        let report = execute(&program, &config);
        let trace = report.trace.as_ref().expect("trace requested");
        assert!(!trace.is_empty(), "trace collected no events");
        (report.makespan, report.messages, trace.to_chrome_trace())
    };
    let (mk1, msg1, json1) = run();
    let (mk2, msg2, json2) = run();
    assert_eq!(json1, json2, "chrome trace must be deterministic across identical runs");
    assert_eq!((mk1, msg1), (mk2, msg2));
    assert_well_formed_json(&json1);
    assert!(json1.contains("\"traceEvents\""));
    assert!(json1.contains("\"ph\"") && json1.contains("\"X\""));
    assert!(json1.contains("\"thread_name\""));

    // Observability is free: the identical run without the trace (and
    // without audits) reaches the same makespan and message count.
    let plain = execute(&tiny_stencil(), &RuntimeConfig::validate(4).with_audit(false));
    assert!(plain.trace.is_none());
    assert_eq!(plain.makespan, mk1, "trace collection changed simulated time");
    assert_eq!(plain.messages, msg1, "trace collection changed traffic");
}

fn check_stage_accounting(report: &RunReport, nodes: usize) {
    let makespan = report.makespan;
    let machine = MachineDesc::piz_daint(nodes);
    let procs = machine.cpus_per_node + machine.gpus_per_node;
    // Sparse rows: sorted by node id, in range, and only nonzero totals.
    assert!(report.node_stage_busy.len() <= nodes);
    assert!(report.node_stage_busy.windows(2).all(|w| w[0].0 < w[1].0));
    for &(n, ref totals) in report.node_stage_busy.iter() {
        assert!(n < nodes, "sparse row for out-of-range node {n}");
        assert!(totals.sum() > SimTime::ZERO, "node {n}: zero row should be omitted");
        // Runtime-thread stages share one thread per node.
        let thread: SimTime = Stage::ALL
            .into_iter()
            .filter(|s| *s != Stage::Exec)
            .map(|s| totals.get(s))
            .sum();
        assert!(thread <= makespan, "node {n}: runtime stages {thread} > makespan {makespan}");
        // Processor time is bounded by makespan × processors.
        assert!(totals.get(Stage::Exec) <= makespan * procs as u64, "node {n}: exec overflow");
    }
    // The analytic issuance timeline also fits inside the run: the last
    // op clears logical analysis before its tasks can run.
    let issuance_side = report.stage_busy.get(Stage::Issuance)
        + report.stage_busy.get(Stage::Logical)
        + report.stage_busy.get(Stage::DynamicChecks);
    assert!(issuance_side <= makespan, "issuance timeline {issuance_side} > makespan {makespan}");
    assert!(report.issuance_span <= makespan);
    // Nothing ran untagged.
    assert_eq!(report.stage_busy.get(Stage::Other), SimTime::ZERO);

    // The trace's per-stage totals agree exactly with the report for
    // every stage the trace covers (network handler charges carry no
    // per-event attribution, so Network is excluded).
    let trace_totals = report.trace.as_ref().expect("trace requested").stage_totals();
    for stage in [
        Stage::Issuance,
        Stage::Logical,
        Stage::Distribution,
        Stage::Physical,
        Stage::Exec,
        Stage::DynamicChecks,
    ] {
        assert_eq!(
            trace_totals.get(stage),
            report.stage_busy.get(stage),
            "trace and report disagree on {}",
            stage.name()
        );
    }
}

#[test]
fn stage_times_fit_makespan_with_dcr() {
    let nodes = 4;
    let report = execute(
        &tiny_stencil(),
        &RuntimeConfig::validate(nodes).with_trace(true).with_audit(true),
    );
    check_stage_accounting(&report, nodes);
    assert!(report.audit.expect("audit requested").credits_paid > 0);
}

#[test]
fn stage_times_fit_makespan_without_dcr() {
    let nodes = 4;
    let report = execute(
        &tiny_stencil(),
        &RuntimeConfig::validate(nodes)
            .with_axes(false, true)
            .with_trace(true)
            .with_audit(true),
    );
    check_stage_accounting(&report, nodes);
    // Non-DCR distribution is explicit messages; some must be tagged.
    let dist_msgs = report.stage_messages[Stage::Distribution.index()]
        + report.stage_messages[Stage::Network.index()];
    assert!(dist_msgs > 0, "non-DCR run sent no tagged messages");
}

/// Per node, the traced `Exec` events add up to the node's `Exec` busy
/// time under a slow-node schedule (no replication, so every processor
/// run is traced as `Exec`): an event spans what the processor ran, the
/// slow factor included. Also under seed 7's full schedule (crash, drops,
/// duplicates, a slow node).
#[test]
fn exec_events_add_up_to_exec_busy_time_on_slow_nodes() {
    let slow = FaultConfig {
        seed: 3,
        spec: FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            max_crashes: 0,
            slow_nodes: 1,
            slow_factor: 4,
            ..FaultSpec::default()
        },
    };
    let circuit = circuit::build(&circuit::CircuitConfig::tiny(4)).program;
    for (name, program) in [("stencil", tiny_stencil()), ("circuit", circuit)] {
        for faults in [slow.clone(), FaultConfig::from_seed(7)] {
            let seed = faults.seed;
            let config = RuntimeConfig::validate(4).with_fault_config(faults).with_trace(true);
            let report = execute(&program, &config);
            assert_eq!(report.recovery.as_ref().expect("recovery stats").slow_nodes, 1);
            let events = report.trace.as_ref().expect("trace requested").events();
            for &(node, ref totals) in &report.node_stage_busy {
                let traced: SimTime = events
                    .iter()
                    .filter(|e| e.node == node && e.stage == Stage::Exec)
                    .map(|e| e.duration)
                    .sum();
                assert_eq!(traced, totals.get(Stage::Exec), "{name}, seed {seed}, node {node}");
            }
        }
    }
}

#[test]
fn audits_pass_on_all_safety_matrix_apps() {
    let apps: Vec<(&str, Program)> = vec![
        (
            "stencil",
            tiny_stencil(),
        ),
        (
            "circuit",
            circuit::build(&circuit::CircuitConfig {
                iterations: 2,
                ..circuit::CircuitConfig::tiny(4)
            })
            .program,
        ),
        (
            "soleil",
            soleil::build(&soleil::SoleilConfig {
                iterations: 2,
                ..soleil::SoleilConfig::tiny((2, 1, 1))
            })
            .program,
        ),
        ("opaque", opaque_program()),
    ];
    for (name, program) in &apps {
        for dcr in [true, false] {
            for tracing in [true, false] {
                let config = RuntimeConfig::validate(2)
                    .with_axes(dcr, true)
                    .with_tracing(tracing)
                    .with_audit(true);
                let report = execute(program, &config);
                let audit = report
                    .audit
                    .unwrap_or_else(|| panic!("{name}: audit report missing"));
                assert!(audit.credits_paid > 0 || report.tasks <= 1, "{name}: no credits audited");
                if !dcr && !tracing {
                    // Compact slices actually scattered: the coverage
                    // audit must have verified them.
                    assert!(audit.slices_covered > 0, "{name}: dcr={dcr} tracing={tracing}");
                }
            }
        }
    }
}
