//! The retry rule: an acknowledgement probe re-sends an unjournaled task
//! only on news — the task was never retried, its group was re-sharded to
//! a new destination, or one of its producers was journaled since its
//! last retry. Three legs:
//!
//! 1. **Bound.** Each task is retried at most once for never having been
//!    retried, once per producer and once for its move, so a run's
//!    retries are at most `Σ_t (1 + |deps(t)|)` plus the tasks that live
//!    on nodes the schedule crashes.
//! 2. **No news, no retry.** A consumer waiting on a slow producer is
//!    retried at its op's first probe and again at the first probe after
//!    the producer is journaled, not at the probes in between.
//! 3. **Liveness.** A dropped launch message is still re-injected by the
//!    first retry, and the run ends at the fault-free store.

use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::geometry::Domain;
use index_launch::machine::{FaultPlan, FaultSpec, SimTime, Stage};
use index_launch::region::{equal_partition_1d, FieldKind, FieldSpaceDesc, Privilege};
use index_launch::runtime::{
    execute, CostSpec, FaultConfig, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RuntimeConfig, ShardingFn, TaskTable,
};
use std::sync::Arc;

/// `Σ_t (1 + |deps(t)|)` plus the tasks owned by a node the plan crashes
/// (the only tasks a re-shard can move, each at most once: survivors
/// never crash).
fn news_bound(program: &Program, config: &RuntimeConfig) -> u64 {
    let fc = config.faults.as_ref().expect("a faulted config");
    let plan = FaultPlan::generate(fc.seed, config.nodes, &fc.spec);
    let table = TaskTable::expand(program, config);
    (0..table.len() as u32)
        .map(|t| {
            let movable = plan.ever_crashes(table.owner(t));
            1 + table.deps(t).len() as u64 + u64::from(movable)
        })
        .sum()
}

fn assert_bounded(name: &str, program: &Program, config: &RuntimeConfig) -> u64 {
    let report = execute(program, config);
    let rec = report.recovery.expect("faulted run reports recovery");
    let bound = news_bound(program, config);
    assert!(
        rec.retried_tasks <= bound,
        "{name}: {} retries exceed the news bound {bound} ({rec:?})",
        rec.retried_tasks
    );
    rec.retried_tasks
}

/// Leg 1 over the five tiny apps (every axis corner, three seeds) and
/// the scale-mode stencil and circuit shapes `recovery_pins.rs` pins.
#[test]
fn retries_are_bounded_by_news() {
    let apps = [
        ("stencil", stencil::build(&stencil::StencilConfig::tiny((2, 2))).program),
        ("circuit", circuit::build(&circuit::CircuitConfig::tiny(4)).program),
        ("soleil", soleil::build(&soleil::SoleilConfig::tiny((2, 2, 1))).program),
        ("amr", amr::build(&amr::AmrConfig::tiny()).program),
        ("pagerank", pagerank::build(&pagerank::PagerankConfig::tiny(4)).program),
    ];
    let mut retried = 0;
    for (name, program) in &apps {
        for seed in [1, 7, 0xBAD5EED] {
            for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
                let config = RuntimeConfig::validate(4).with_axes(dcr, idx).with_faults(seed);
                retried += assert_bounded(name, program, &config);
            }
        }
    }
    for (name, nodes) in [("stencil", 64), ("stencil", 256), ("circuit", 64), ("circuit", 256)] {
        let program = match name {
            "stencil" => stencil::build(&stencil::StencilConfig::weak(nodes)).program,
            _ => circuit::build(&circuit::CircuitConfig::weak(nodes, 1)).program,
        };
        for seed in [1, 2, 3] {
            retried += assert_bounded(name, &program, &RuntimeConfig::scale(nodes).with_faults(seed));
        }
    }
    assert!(retried > 0, "no schedule retried anything: the bound was never exercised");
}

/// A producer and a consumer of one region, both on node 1: two
/// one-point launches, the second reading what the first wrote.
fn producer_consumer(produce: SimTime, consume: SimTime) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fs = FieldSpaceDesc::new();
    let f = fs.add("v", FieldKind::F64);
    let fs = b.forest.create_field_space(fs);
    let r = b.forest.create_region(Domain::range(1), fs);
    let p = equal_partition_1d(&mut b.forest, r.space, 1);
    let ident = b.identity_functor();
    let on_node_1: ShardingFn = Arc::new(|_, _, _| 1);
    for (name, privilege, cost) in
        [("produce", Privilege::Write, produce), ("consume", Privilege::Read, consume)]
    {
        let task = b.task_modeled(name);
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(1),
            reqs: vec![RegionReq {
                partition: p,
                functor: ident,
                privilege,
                fields: vec![f],
                tree: r.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(cost),
            shard: Some(on_node_1.clone()),
        });
    }
    b.build()
}

/// Leg 2: node 1 runs 4× slow, so the producer outlasts its own op's
/// probes at 5, 10, 20 and 40 ms, and the consumer's op is probed five
/// times before the consumer is journaled. The producer is retried once
/// (never retried); the consumer twice: at its op's first probe (never
/// retried) and once the producer is journaled (news). Every probe in
/// between sends nothing — re-sending at every probe would make it 4 + 5.
#[test]
fn a_consumer_of_a_slow_producer_is_retried_only_on_news() {
    let program = producer_consumer(SimTime::ms(12), SimTime::ms(10));
    let faults = FaultConfig {
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
    let config = RuntimeConfig::validate(2).with_fault_config(faults).with_trace(true);
    let table = TaskTable::expand(&program, &config);
    assert_eq!((table.len(), table.owner(0), table.owner(1)), (2, 1, 1));
    assert_eq!(table.deps(1), [0], "the consumer depends on the producer");

    let report = execute(&program, &config);
    let trace = report.trace.as_ref().expect("traced run keeps its log");
    // An `Exec` event spans the processor's run, node 1's 4× included.
    let exec = |task| {
        let e = trace.events().iter().find(|e| e.task == Some(task) && e.stage == Stage::Exec);
        e.expect("the task ran")
    };
    let done = |task| exec(task).start + exec(task).duration;
    let probes_before = |op, at| {
        let probes = trace.events().iter().filter(|e| e.op == op && e.stage == Stage::Recovery);
        probes.filter(|e| e.node == 0 && e.start < at).count()
    };
    assert_eq!(probes_before(0, done(0)), 4, "the producer outlasts four probes");
    assert_eq!(probes_before(1, done(1)), 5, "the consumer is unjournaled at five probes");
    let rec = report.recovery.expect("recovery stats");
    assert_eq!(rec.slow_nodes, 1);
    assert_eq!(rec.retried_tasks, 1 + 2, "retries beyond the news: {rec:?}");
    // Node 1 records a `Recovery` event only for a retry batch that
    // charged time. Both of the consumer's batches (one task each) find
    // it injected; the first finds its producer unjournaled, the second
    // finds it already running on the producer's local credit. Neither
    // charges anything, so neither leaves an event.
    let probes = trace.events().iter().filter(|e| e.op == 1 && e.stage == Stage::Recovery);
    let probes = probes.filter(|e| e.node == 0).map(|e| e.start);
    let first_probe_after_producer = probes.filter(|&t| t >= done(0)).min();
    assert!(exec(1).start <= first_probe_after_producer.expect("a probe after the producer"));
    let batches = rec.retried_tasks - 1;
    let events = trace.events().iter().filter(|e| e.node == 1 && e.stage == Stage::Recovery);
    assert_eq!((batches, events.filter(|e| e.op == 1).count()), (2, 0));
}

/// Leg 3: centralized distribution (DCR off) over a drop-only schedule.
/// A task injected after its op's first probe lost its launch message
/// and was injected by a retry (launches that arrive do so within
/// microseconds, the first probe comes 5 ms after issuance); the run
/// still finishes every task at the fault-free store.
#[test]
fn a_dropped_launch_is_reinjected_by_a_retry() {
    let program = circuit::build(&circuit::CircuitConfig::tiny(4)).program;
    let config = RuntimeConfig::validate(4).with_axes(false, true);
    let clean = execute(&program, &config);
    let faults = FaultConfig {
        seed: 5,
        spec: FaultSpec {
            drop_per_mille: 300,
            dup_per_mille: 0,
            max_crashes: 0,
            slow_nodes: 0,
            ..FaultSpec::default()
        },
    };
    let faulted = execute(&program, &config.with_fault_config(faults).with_trace(true));
    let events = faulted.trace.as_ref().expect("traced run keeps its log").events();
    let first_probe = |op| {
        let probes = events.iter().filter(|e| e.op == op && e.stage == Stage::Recovery);
        probes.map(|e| e.start).min().expect("every op is probed")
    };
    let reinjected = events
        .iter()
        .filter(|e| e.task.is_some() && e.stage == Stage::Distribution)
        .filter(|e| e.start >= first_probe(e.op))
        .count();
    assert!(reinjected > 0, "the schedule must drop at least one launch message");
    let rec = faulted.recovery.as_ref().expect("recovery stats");
    assert!(rec.dropped > 0 && rec.crashes == 0, "{rec:?}");
    assert_eq!(faulted.tasks, clean.tasks, "every task still runs");
    assert_eq!(faulted.store, clean.store, "the retried run ends at the fault-free store");
}
