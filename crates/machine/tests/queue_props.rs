//! Event-queue equivalence property tests: the calendar queue and the
//! binary heap must produce the *identical* dispatch sequence — same
//! `(time, seq)` pop order, including the same-timestamp sequence-number
//! tie-break — over seeded random event storms, both as bare queues and
//! under a full simulation. This is the lock that makes `QueueKind::Auto`
//! safe: switching data structures at 4096+ nodes cannot change results.
//! The simulator's same-timestamp batching is shared by both kinds, so
//! each kind also gets its own strict `(time, seq)` dispatch-order
//! property.

use il_machine::{
    BinaryHeapQueue, CalendarQueue, Event, EventQueue, FaultPlan, FaultSpec, MachineDesc,
    Network, NodeBehavior, NodeCtx, QueueKind, SimTime, Simulator, Stage,
};
use il_testkit::prop::{check, i64s, usizes, vec_of, I64Range, UsizeRange, VecGen};
use il_testkit::{prop_assert, prop_assert_eq};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Both bare queues fed the same pushes; every pop is compared.
struct Pair {
    heap: BinaryHeapQueue<u64>,
    cal: CalendarQueue<u64>,
    seq: u64,
    /// Timestamp of the last pop (stale pushes go behind it).
    last: u64,
}

impl Pair {
    fn push(&mut self, t: u64) {
        let ev = |seq| Event { time: SimTime::ns(t), seq, dst: 0, msg: seq };
        self.heap.push(ev(self.seq));
        self.cal.push(ev(self.seq));
        self.seq += 1;
    }

    fn pop(&mut self) -> Result<(), String> {
        let (a, b) = (self.heap.pop(), self.cal.pop());
        match (&a, &b) {
            (Some(x), Some(y)) => {
                prop_assert_eq!((x.time, x.seq), (y.time, y.seq));
                self.last = x.time.as_ns();
            }
            (None, None) => {}
            _ => prop_assert!(false, "queue lengths diverged"),
        }
        Ok(())
    }
}

/// Interleaved storm on the bare queues: each `(t, burst, pops)` entry
/// pushes a burst of events (several sharing timestamp `t`, to exercise
/// the tie-break) then pops a few from both queues, comparing order.
/// The trailing `shape` picks how a burst's timestamps are laid out;
/// shapes 1–5 aim at a sorted bucket's slow paths.
#[test]
fn bare_queues_pop_identically() {
    let gen = (vec_of((i64s(0..200), i64s(1..5), i64s(0..5)), 1..40), i64s(0..6));
    check("bare_queues_pop_identically", &gen, |(ops, shape)| {
        let mut q = Pair {
            heap: BinaryHeapQueue::new(),
            cal: CalendarQueue::new(),
            seq: 0,
            last: 0,
        };
        for (i, &(t_raw, burst, pops)) in ops.iter().enumerate() {
            let (i, t_raw, burst) = (i as u64, t_raw as u64, burst as u64);
            let mut pops = pops as usize;
            match shape {
                // Strictly decreasing timestamps over the whole storm,
                // inside one bucket of the initial 1024 ns geometry until
                // a resize narrows the buckets and the run wraps years.
                1 => (0..burst).for_each(|b| q.push(100_000 - 4 * i - b)),
                // Same bucket, exactly k years apart in the initial
                // geometry (4 buckets × 1024 ns), the later year first.
                2 => (0..burst).rev().for_each(|k| q.push(t_raw * 500 + k * 4_096)),
                // A stale push behind the last popped timestamp, with a
                // burst pending ahead of it.
                3 => {
                    (0..burst).for_each(|b| q.push(q.last + 600 * (b + 1)));
                    q.push(q.last.saturating_sub(1 + t_raw * 50));
                }
                // A 65 536-event burst at one timestamp, popped as it fills.
                4 if i == 0 => {
                    for j in 0..65_536u32 {
                        q.push(t_raw * 500);
                        if j % 1_024 == 1_023 {
                            for _ in 0..pops * 100 {
                                q.pop()?;
                            }
                        }
                    }
                    pops = 0;
                }
                // Resize cycles: even entries grow the queue by hundreds
                // of spread events, odd ones drain it to a handful.
                5 if i % 2 == 0 => {
                    (0..burst * 200).for_each(|j| q.push(t_raw * 500 + (j * 7_919) % 60_000))
                }
                5 => pops = q.heap.len().saturating_sub(burst as usize),
                // Mostly clustered timestamps (heavy ties, shared buckets),
                // occasionally a far-future jump (direct-search fallback).
                _ => {
                    let t = if t_raw < 180 { t_raw * 500 } else { t_raw * 50_000_000 };
                    (0..burst).for_each(|_| q.push(t));
                }
            }
            for _ in 0..pops {
                q.pop()?;
            }
            prop_assert_eq!(q.heap.len(), q.cal.len());
        }
        // Drain: the remaining sequences must match exactly.
        while !q.heap.is_empty() {
            q.pop()?;
        }
        prop_assert!(q.cal.pop().is_none());
        Ok(())
    });
}

/// A relay that records every `(arrival, ttl)` it sees — any divergence
/// in dispatch order between queue kinds shows up in some node's log.
struct Relay {
    log: Vec<(u64, u32)>,
}

#[derive(Clone, Debug)]
struct Hop {
    ttl: u32,
    stride: usize,
    bytes: u64,
}

impl NodeBehavior<Hop> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hop>, msg: Hop) {
        self.log.push((ctx.arrival().as_ns(), msg.ttl));
        ctx.set_stage(Stage::Network);
        ctx.charge(SimTime::us(1));
        if msg.ttl > 0 {
            let dst = (ctx.node() + msg.stride) % ctx.nodes();
            ctx.send(dst, Hop { ttl: msg.ttl - 1, ..msg }, msg.bytes);
        }
    }
}

type Storm = Vec<(i64, i64, i64, i64)>;

/// Crashes, slow nodes, drops and duplicates (duplicates create
/// same-timestamp collisions).
fn storm_plan(nodes: usize) -> FaultPlan {
    let spec = FaultSpec {
        max_crashes: 2,
        slow_nodes: 2,
        crash_window: (SimTime::us(5), SimTime::us(500)),
        ..FaultSpec::default()
    };
    FaultPlan::generate(0xF00D, nodes, &spec)
}

fn storm_gen() -> (UsizeRange, VecGen<(I64Range, I64Range, I64Range, I64Range)>) {
    (
        usizes(2..12),
        vec_of((i64s(0..12), i64s(0..25), i64s(0..12), i64s(0..8)), 1..8),
    )
}

fn run_with(kind: QueueKind, nodes: usize, storm: &Storm, faults: bool) -> impl Eq + std::fmt::Debug {
    let behaviors = (0..nodes).map(|_| Relay { log: Vec::new() }).collect();
    let mut sim = Simulator::new(MachineDesc::piz_daint(nodes), Network::aries(), behaviors)
        .with_queue(kind);
    if faults {
        sim.set_fault_plan(storm_plan(nodes));
    }
    for &(dst, ttl, stride, at) in storm {
        // Injections at assorted absolute times, many colliding.
        sim.inject(
            SimTime::ns((at as u64 % 8) * 1_000),
            dst as usize % nodes,
            Hop { ttl: ttl as u32, stride: stride as usize % nodes + 1, bytes: 256 },
        );
    }
    sim.run(1_000_000);
    let logs: Vec<Vec<(u64, u32)>> = (0..nodes).map(|n| sim.node(n).log.clone()).collect();
    (
        sim.stats().events,
        sim.stats().messages,
        sim.stats().bytes,
        sim.stats().faults,
        sim.makespan(),
        sim.stage_totals(),
        sim.node_stage_busy(),
        logs,
    )
}

/// Full-simulation equivalence: calendar vs. heap over random relay
/// storms, fault-free and under [`storm_plan`].
#[test]
fn simulations_dispatch_identically_across_queue_kinds() {
    check("simulations_dispatch_identically_across_queue_kinds", &storm_gen(), |(nodes, storm)| {
        for faults in [false, true] {
            prop_assert_eq!(
                run_with(QueueKind::BinaryHeap, *nodes, storm, faults),
                run_with(QueueKind::Calendar, *nodes, storm, faults)
            );
        }
        Ok(())
    });
}

/// What every node of one simulation shares: a stamp counter that numbers
/// injections and handler sends in the order the simulator assigns
/// `seq`, and the `(arrival, stamp)` log of every handled event.
#[derive(Default)]
struct Ledger {
    next: Cell<u64>,
    log: RefCell<Vec<(u64, u64)>>,
}

impl Ledger {
    fn stamp(&self) -> u64 {
        let s = self.next.get();
        self.next.set(s + 1);
        s
    }
}

#[derive(Clone, Debug)]
struct Tick {
    stamp: u64,
    ttl: u32,
    stride: usize,
}

/// A relay that logs each dispatch and, on some hops, first sends itself
/// a message at its current instant: when its runtime thread is idle that
/// event lands on the timestamp being dispatched, behind the held run.
struct Stamper(Rc<Ledger>);

impl NodeBehavior<Tick> for Stamper {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Tick>, msg: Tick) {
        let ledger = &self.0;
        ledger.log.borrow_mut().push((ctx.arrival().as_ns(), msg.stamp));
        if msg.ttl == 0 {
            return;
        }
        let next = |ledger: &Ledger| Tick { stamp: ledger.stamp(), ttl: msg.ttl - 1, ..msg };
        if msg.ttl % 3 == 0 {
            let now = ctx.now();
            ctx.send_self_at(now, next(ledger));
        }
        ctx.charge(SimTime::ns(200 * u64::from(msg.ttl % 2)));
        let dst = (ctx.node() + msg.stride) % ctx.nodes();
        ctx.send(dst, next(ledger), 256);
    }
}

/// Run the storm, a same-timestamp burst of `burst.1` events and the
/// mid-run `injects` (`(after step, delay, dst, ttl)`, due `delay − 1 000`
/// ns after the current time, floored at zero so a third land at the
/// current time) on `kind`, step by step; the dispatch log must be
/// strictly increasing in `(arrival, stamp)`, which is `(time, seq)`
/// order.
fn check_dispatch_order(
    kind: QueueKind,
    nodes: usize,
    storm: &Storm,
    burst: (i64, i64, i64),
    injects: &[(i64, i64, i64, i64)],
    faults: bool,
) -> Result<(), String> {
    let ledger = Rc::new(Ledger::default());
    let behaviors = (0..nodes).map(|_| Stamper(ledger.clone())).collect();
    let mut sim = Simulator::new(MachineDesc::piz_daint(nodes), Network::aries(), behaviors)
        .with_queue(kind);
    if faults {
        sim.set_fault_plan(storm_plan(nodes));
    }
    let tick = |ttl: i64, stride: i64| Tick {
        stamp: ledger.stamp(),
        ttl: ttl as u32,
        stride: stride as usize % nodes + 1,
    };
    for &(dst, ttl, stride, at) in storm {
        sim.inject(SimTime::ns((at as u64 % 8) * 1_000), dst as usize % nodes, tick(ttl, stride));
    }
    let (at, len, ttl) = burst;
    for k in 0..len {
        sim.inject(SimTime::ns(at as u64 * 1_000), k as usize % nodes, tick(ttl, k));
    }
    let mut injects = injects.to_vec();
    injects.sort_by_key(|&(step, ..)| step);
    let mut injects = injects.into_iter().peekable();
    let mut steps = 0i64;
    loop {
        while let Some((_, delay, dst, ttl)) = injects.next_if(|&(step, ..)| step <= steps) {
            let at = sim.now() + SimTime::ns((delay - 1_000).max(0) as u64);
            sim.inject(at, dst as usize % nodes, tick(ttl, dst));
        }
        match sim.try_step().map_err(|e| e.to_string())? {
            true => steps += 1,
            // Drained: the next injection comes due now.
            false => match injects.peek() {
                Some(&(step, ..)) => steps = step,
                None => break,
            },
        }
    }
    let log = ledger.log.borrow();
    if let Some(w) = log.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("dispatch {:?} came after {:?}", w[1], w[0]));
    }
    let stats = sim.stats();
    prop_assert_eq!(log.len() as u64, stats.events - stats.faults.crash_dropped);
    Ok(())
}

/// The held run is shared code, so the heap and the calendar can no
/// longer catch each other's batching bugs: each must dispatch in strict
/// `(time, seq)` order on its own, over the relay storms plus a
/// ≥ 1 000-event same-timestamp burst and injections mid-run, at the
/// current time and in the future, fault-free and under [`storm_plan`].
fn dispatch_order_property(kind: QueueKind, name: &str) {
    let gen = (
        storm_gen(),
        (i64s(0..8), i64s(1_000..1_200), i64s(0..3)),
        vec_of((i64s(0..1_500), i64s(0..3_000), i64s(0..12), i64s(0..6)), 0..8),
    );
    check(name, &gen, |((nodes, storm), burst, injects)| {
        for faults in [false, true] {
            check_dispatch_order(kind, *nodes, storm, *burst, injects, faults)?;
        }
        Ok(())
    });
}

#[test]
fn heap_dispatches_in_strict_time_seq_order() {
    dispatch_order_property(QueueKind::BinaryHeap, "heap_dispatches_in_strict_time_seq_order");
}

#[test]
fn calendar_dispatches_in_strict_time_seq_order() {
    dispatch_order_property(QueueKind::Calendar, "calendar_dispatches_in_strict_time_seq_order");
}
