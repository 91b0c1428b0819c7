//! Property tests for the machine simulator: determinism, causality, and
//! NIC serialization under randomized inputs. Runs on the hermetic
//! `il-testkit` harness; failures print a rerunnable `IL_TESTKIT_SEED`.

use il_machine::{MachineDesc, Network, NodeBehavior, NodeCtx, SimTime, Simulator};
use il_testkit::prop::{check, i64s, usizes, vec_of};
use il_testkit::{prop_assert, prop_assert_eq};

/// A behavior that relays each message a random-but-deterministic number
/// of hops and records everything it sees.
struct Relay {
    hops_seen: Vec<(u64, u32)>, // (arrival ns, ttl)
}

#[derive(Clone, Debug)]
struct Hop {
    ttl: u32,
    stride: usize,
    bytes: u64,
}

impl NodeBehavior<Hop> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hop>, msg: Hop) {
        self.hops_seen.push((ctx.arrival().as_ns(), msg.ttl));
        ctx.charge(SimTime::us(1));
        if msg.ttl > 0 {
            let dst = (ctx.node() + msg.stride) % ctx.nodes();
            ctx.send(dst, Hop { ttl: msg.ttl - 1, ..msg }, msg.bytes);
        }
    }
}

/// One injected message, generated as plain integers: (dst, ttl, stride,
/// bytes) — kept as i64 so tuple shrinking applies, narrowed in `run`.
type Seed = (i64, i64, i64, i64);

fn seeds_gen() -> il_testkit::prop::VecGen<(
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
)> {
    vec_of((i64s(0..10), i64s(0..20), i64s(0..10), i64s(0..10_000)), 1..6)
}

fn run(nodes: usize, seeds: &[Seed]) -> (u64, u64, u64, Vec<Vec<(u64, u32)>>) {
    let behaviors = (0..nodes).map(|_| Relay { hops_seen: Vec::new() }).collect();
    let mut sim = Simulator::new(MachineDesc::piz_daint(nodes), Network::aries(), behaviors);
    for &(dst, ttl, stride, bytes) in seeds {
        let (dst, ttl, stride, bytes) = (dst as usize, ttl as u32, stride as usize, bytes as u64);
        sim.inject(
            SimTime::ZERO,
            dst % nodes,
            Hop { ttl, stride: stride % nodes.max(1) + 1, bytes: bytes % 10_000 },
        );
    }
    sim.run(1_000_000);
    let makespan = sim.makespan().as_ns();
    let stats = sim.stats().clone();
    let logs = (0..nodes).map(|n| sim.node(n).hops_seen.clone()).collect();
    (makespan, stats.messages, stats.bytes, logs)
}

/// Two runs of the same schedule are bit-identical.
#[test]
fn simulation_is_deterministic() {
    check("simulation_is_deterministic", &(usizes(1..10), seeds_gen()), |(nodes, seeds)| {
        prop_assert_eq!(run(*nodes, seeds), run(*nodes, seeds));
        Ok(())
    });
}

/// Causality: every node observes non-decreasing arrival times in its
/// own processing order, and total hops match the injected TTLs.
#[test]
fn causality_and_conservation() {
    let gen = (
        usizes(1..8),
        vec_of((i64s(0..8), i64s(0..15), i64s(0..8), i64s(0..5_000)), 1..5),
    );
    check("causality_and_conservation", &gen, |(nodes, seeds)| {
        let (makespan, _msgs, _bytes, logs) = run(*nodes, seeds);
        let mut total_hops = 0usize;
        for log in &logs {
            total_hops += log.len();
            for (t, _) in log {
                prop_assert!(*t <= makespan);
            }
        }
        let expected: usize = seeds.iter().map(|(_, ttl, _, _)| *ttl as usize + 1).sum();
        prop_assert_eq!(total_hops, expected);
        Ok(())
    });
}

/// NIC serialization: sending k messages back-to-back occupies the
/// NIC for at least k × occupancy(bytes).
#[test]
fn nic_occupancy_accumulates() {
    struct Burst {
        k: u64,
        bytes: u64,
    }
    impl NodeBehavior<u8> for Burst {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, msg: u8) {
            if msg == 0 && ctx.node() == 0 {
                for _ in 0..self.k {
                    ctx.send(1, 1, self.bytes);
                }
            }
        }
    }
    check("nic_occupancy_accumulates", &(i64s(1..20), i64s(0..50_000)), |&(k, bytes)| {
        let (k, bytes) = (k as u64, bytes as u64);
        let net = Network::aries();
        let per_msg = net.occupancy(bytes);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            net,
            vec![Burst { k, bytes }, Burst { k: 0, bytes: 0 }],
        );
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(10_000);
        prop_assert_eq!(sim.clock(0).nic_free, per_msg * k);
        Ok(())
    });
}
