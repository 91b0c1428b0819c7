//! Corruption-schedule property tests.
//!
//! The silent-data-corruption schedule added to [`FaultPlan`] must obey
//! the same determinism contract as the crash/slow/drop schedules it
//! rides beside:
//!
//! * a plan is a pure function of `(seed, nodes, spec)` — byte-identical
//!   no matter how many threads generate it concurrently;
//! * the O(1) per-node tables agree with a linear scan of the plan's
//!   public fault lists on every node and nonce;
//! * a full simulation whose messages draw from the corruption schedule
//!   dispatches identically on `QueueKind::BinaryHeap` and
//!   `QueueKind::Calendar`.

use il_machine::{
    FaultPlan, FaultSpec, MachineDesc, Network, NodeBehavior, NodeCtx, QueueKind, SimTime,
    Simulator, Stage,
};
use il_testkit::prop::{check, i64s, usizes, vec_of};
use il_testkit::prop_assert_eq;

/// A spec that schedules every fault class at once, so corruption draws
/// are checked in the presence of the schedules they must not perturb.
fn corrupting_spec(nodes: usize) -> FaultSpec {
    FaultSpec {
        drop_per_mille: 20,
        dup_per_mille: 20,
        max_crashes: nodes / 8,
        slow_nodes: nodes / 8,
        crash_window: (SimTime::us(5), SimTime::us(500)),
        slow_factor: 3,
        corrupt_nodes: (nodes / 4).max(1),
        corrupt_per_mille: 300,
        corrupt_payload_per_mille: 150,
    }
}

/// Everything the corruption schedule can be asked, flattened to one
/// comparable value: the corrupt-node set plus a dense sample of the
/// output and payload draws.
fn corruption_observations(plan: &FaultPlan, nodes: usize) -> Vec<(usize, bool, Vec<Option<u64>>, Vec<bool>)> {
    (0..nodes)
        .map(|node| {
            (
                node,
                plan.is_corrupt_node(node),
                (0..64).map(|nonce| plan.corrupt_task_output(node, nonce)).collect(),
                (0..64).map(|nonce| plan.corrupt_message(node, nonce)).collect(),
            )
        })
        .collect()
}

/// Purity across pool widths: `w` worker threads generating the same 50
/// seeded plans concurrently observe exactly what a serial generator
/// observes — there is no hidden global state in plan generation.
#[test]
fn corrupt_plans_are_byte_identical_across_pool_widths() {
    const NODES: usize = 24;
    let serial: Vec<_> = (0..50u64)
        .map(|seed| {
            let plan = FaultPlan::generate(seed, NODES, &corrupting_spec(NODES));
            (plan.corrupt_nodes().to_vec(), corruption_observations(&plan, NODES))
        })
        .collect();
    for width in [1usize, 2, 4, 8] {
        let results = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        (0..50u64)
                            .map(|seed| {
                                let plan =
                                    FaultPlan::generate(seed, NODES, &corrupting_spec(NODES));
                                (
                                    plan.corrupt_nodes().to_vec(),
                                    corruption_observations(&plan, NODES),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect::<Vec<_>>()
        });
        for observed in results {
            assert_eq!(observed, serial, "pool width {width} perturbed plan generation");
        }
    }
}

/// The O(1) per-node tables must agree with a linear scan of the public
/// fault lists on every node, out-of-range ones included, over 50 seeds
/// and several machine sizes. The scan decides membership: an honest node
/// never flips an output, and a payload draw depends on the nonce alone,
/// so every corrupt node flips the same payloads.
#[test]
fn table_lookups_agree_with_scan_oracle() {
    for nodes in [2usize, 5, 16, 64] {
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, nodes, &corrupting_spec(nodes));
            let first_corrupt = plan.corrupt_nodes().first().copied();
            for node in 0..nodes + 8 {
                let at = format!("nodes={nodes} seed={seed} node={node}");
                let crash = plan.crashes().iter().find(|&&(n, _)| n == node).map(|&(_, t)| t);
                assert_eq!(plan.crash_time(node), crash, "{at}");
                let slow =
                    plan.slow_nodes().iter().find(|&&(n, _)| n == node).map_or(1, |&(_, f)| f);
                assert_eq!(plan.slow_factor(node), slow, "{at}");
                let corrupt = plan.corrupt_nodes().contains(&node);
                assert_eq!(plan.is_corrupt_node(node), corrupt, "{at}");
                for nonce in 0..64 {
                    let output = plan.corrupt_task_output(node, nonce);
                    assert!(corrupt || output.is_none(), "{at} nonce={nonce}");
                    let payload =
                        corrupt && first_corrupt.is_some_and(|c| plan.corrupt_message(c, nonce));
                    assert_eq!(plan.corrupt_message(node, nonce), payload, "{at} nonce={nonce}");
                }
            }
        }
    }
}

/// Relay that ships every hop through the corruption-aware data channel
/// and logs what arrived — so any divergence in the corruption draws or
/// the dispatch order between queue kinds is observable.
struct Relay {
    log: Vec<(u64, u32, bool)>,
}

#[derive(Clone, Debug)]
struct Hop {
    ttl: u32,
    stride: usize,
    corrupt: bool,
}

impl NodeBehavior<Hop> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hop>, msg: Hop) {
        self.log.push((ctx.arrival().as_ns(), msg.ttl, msg.corrupt));
        ctx.set_stage(Stage::Network);
        ctx.charge(SimTime::us(1));
        if msg.ttl > 0 {
            let dst = (ctx.node() + msg.stride) % ctx.nodes();
            let ttl = msg.ttl - 1;
            let stride = msg.stride;
            ctx.send_data(dst, |corrupt| Hop { ttl, stride, corrupt }, 256);
        }
    }
}

type Storm = Vec<(i64, i64, i64, i64)>;

fn run_with(kind: QueueKind, nodes: usize, storm: &Storm) -> impl Eq + std::fmt::Debug {
    let behaviors = (0..nodes).map(|_| Relay { log: Vec::new() }).collect();
    let mut sim = Simulator::new(MachineDesc::piz_daint(nodes), Network::aries(), behaviors)
        .with_queue(kind);
    sim.set_fault_plan(FaultPlan::generate(0x5DC0, nodes, &corrupting_spec(nodes)));
    for &(dst, ttl, stride, at) in storm {
        sim.inject(
            SimTime::ns((at as u64 % 8) * 1_000),
            dst as usize % nodes,
            Hop { ttl: ttl as u32, stride: stride as usize % nodes + 1, corrupt: false },
        );
    }
    sim.run(1_000_000);
    let logs: Vec<Vec<(u64, u32, bool)>> = (0..nodes).map(|n| sim.node(n).log.clone()).collect();
    (
        sim.stats().events,
        sim.stats().messages,
        sim.stats().bytes,
        sim.stats().faults,
        sim.makespan(),
        logs,
    )
}

/// Full-simulation equivalence under a corrupting schedule: the heap and
/// calendar queues must deliver the same hops with the same corruption
/// flags in the same order.
#[test]
fn queue_kinds_agree_under_corruption_schedules() {
    let gen = (
        usizes(2..12),
        vec_of((i64s(0..12), i64s(0..25), i64s(0..12), i64s(0..8)), 1..8),
    );
    check("queue_kinds_agree_under_corruption_schedules", &gen, |(nodes, storm)| {
        prop_assert_eq!(
            run_with(QueueKind::BinaryHeap, *nodes, storm),
            run_with(QueueKind::Calendar, *nodes, storm)
        );
        Ok(())
    });
}
