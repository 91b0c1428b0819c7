//! The discrete-event simulation core.
//!
//! A [`Simulator`] owns one behavior object per node plus a per-node clock
//! tracking when the node's runtime thread, NIC, and processors become free.
//! Events (messages) are processed in deterministic `(time, sequence)`
//! order: ties in time break by the sequence number assigned at enqueue, so
//! same-timestamp events (common under injected faults) always pop in the
//! order they were sent, regardless of queue internals or host parallelism.
//! A node handles a message no earlier than both its arrival time and
//! the time the node's runtime thread frees up, which is what makes a
//! centralized control node processing O(|D|) messages an honest bottleneck
//! in the simulation.
//!
//! The simulator is built for machines far beyond the paper's 1024 nodes:
//!
//! - the pending-event queue is pluggable ([`QueueKind`]): a binary heap at
//!   paper scale, a calendar queue ([`crate::queue`]) at 10⁵–10⁶ nodes,
//!   both producing the identical dispatch sequence;
//! - per-node clocks live in a slot arena (`ClockArena`): a node gets
//!   mutable state the first time an event reaches it, so stepping, the
//!   makespan, and report assembly cost O(active nodes), not O(machine),
//!   and an idle node costs 4 bytes; an active node's clocks, busy totals
//!   and cached fault schedule share one cache-aligned record;
//! - events are taken from the queue one *held run* at a time: every
//!   queued event sharing the front timestamp, in dispatch order. Before
//!   the first of them dispatches the simulator walks a run of two or
//!   more once and reads each destination's slot, both cache lines of its
//!   record and its processor clocks; those loads are independent, so at
//!   10⁶ nodes their cache misses overlap instead of stalling one handler
//!   each. The events then dispatch one per [`Simulator::try_step`]. The
//!   order is the queue's: a handler's sends carry a `seq` above every
//!   queued event and a time no earlier than the run's, so they sort
//!   after it, and a [`Simulator::inject`] into the past returns the run
//!   to the queue first.
//!
//! An optional [`FaultPlan`] (see [`crate::fault`]) makes the machine
//! adversarial: crashed nodes silently discard every event addressed to
//! them, the network drops or duplicates data-plane messages, and slow
//! nodes pay a multiplier on all charged work. With no plan installed every
//! fault hook is a no-op and the simulation is byte-identical to one built
//! before faults existed. A node's crash time and slow factor are read
//! from the plan once, at its first event, so a dense fault schedule does
//! not slow the per-event hot path.

use crate::fault::{FaultCounters, FaultPlan};
use crate::machine::MachineDesc;
use crate::network::Network;
use crate::queue::{BinaryHeapQueue, CalendarQueue, Event, EventQueue, QueueKind};
use crate::stage::{Stage, StageTotals, StageTraffic};
use crate::time::SimTime;
use crate::NodeId;
use std::collections::VecDeque;
use std::fmt;

/// Behavior of one simulated node: a message handler invoked by the
/// simulator whenever a message addressed to this node comes due.
pub trait NodeBehavior<M> {
    /// Handle `msg`. Use `ctx` to charge simulated time, send messages, and
    /// run work on processors.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, M>, msg: M);
}

/// The queue implementation actually in force, dispatched statically.
enum ActiveQueue<M> {
    Heap(BinaryHeapQueue<M>),
    Calendar(CalendarQueue<M>),
}

impl<M> ActiveQueue<M> {
    fn new(kind: QueueKind, nodes: usize) -> Self {
        match kind.resolve(nodes) {
            QueueKind::Calendar => ActiveQueue::Calendar(CalendarQueue::new()),
            _ => ActiveQueue::Heap(BinaryHeapQueue::new()),
        }
    }

    fn kind(&self) -> QueueKind {
        match self {
            ActiveQueue::Heap(_) => QueueKind::BinaryHeap,
            ActiveQueue::Calendar(_) => QueueKind::Calendar,
        }
    }
}

impl<M> EventQueue<M> for ActiveQueue<M> {
    fn push(&mut self, ev: Event<M>) {
        match self {
            ActiveQueue::Heap(q) => q.push(ev),
            ActiveQueue::Calendar(q) => q.push(ev),
        }
    }

    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            ActiveQueue::Heap(q) => q.pop(),
            ActiveQueue::Calendar(q) => q.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            ActiveQueue::Heap(q) => q.len(),
            ActiveQueue::Calendar(q) => q.len(),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            ActiveQueue::Heap(q) => q.peek_time(),
            ActiveQueue::Calendar(q) => q.peek_time(),
        }
    }
}

/// Per-node availability clocks (a by-value snapshot; see
/// [`Simulator::clock`]).
#[derive(Clone, Debug, Default)]
pub struct NodeClock {
    /// When the node's (single) runtime/analysis thread is next free.
    pub runtime_free: SimTime,
    /// When the node's NIC finishes injecting its last message.
    pub nic_free: SimTime,
    /// When each local processor is next free.
    pub proc_free: Vec<SimTime>,
    /// Total busy time accumulated by the runtime thread.
    pub runtime_busy: SimTime,
    /// Busy time by pipeline stage: runtime-thread charges land in the
    /// stage the handler declared ([`NodeCtx::set_stage`]); processor
    /// work accrues under [`Stage::Exec`].
    pub stage_busy: StageTotals,
}

/// Sentinel slot meaning "node never touched".
const UNTRACKED: u32 = u32::MAX;

/// Everything a dispatch touches of one active node, in one cache-aligned
/// record; the fault fields are copied from the [`FaultPlan`] when the
/// node is first touched.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct NodeHot {
    runtime_free: SimTime,
    nic_free: SimTime,
    runtime_busy: SimTime,
    /// When the node crashes; `SimTime::MAX` = never.
    crash_at: SimTime,
    /// Charge multiplier (1 unless the plan marks the node slow).
    slow: u64,
    stage_busy: StageTotals,
}

// Two cache lines; `ClockArena::warm` reads one field on each.
const _: () = assert!(std::mem::size_of::<NodeHot>() == 128);

/// Storage for per-node clocks, allocated per *active* node rather than
/// per node.
///
/// `slot[node]` maps a node to its arena slot (4 bytes per node, the only
/// O(machine) allocation); the hot records and processor clocks are
/// indexed by slot and grow only when an event first reaches a node. A
/// 1M-node machine where 10k nodes participate carries 10k clock records,
/// and every full-machine aggregate (makespan, stage totals, per-node
/// report rows) walks the active list — O(active), not O(nodes).
struct ClockArena {
    procs_per_node: usize,
    /// Node → arena slot, `UNTRACKED` when the node was never dispatched.
    slot: Vec<u32>,
    /// Slot → node, in first-touch order.
    active: Vec<NodeId>,
    hot: Vec<NodeHot>,
    /// Flat `active × procs_per_node` arena.
    proc_free: Vec<SimTime>,
}

impl ClockArena {
    fn new(nodes: usize, procs_per_node: usize) -> Self {
        ClockArena {
            procs_per_node,
            slot: vec![UNTRACKED; nodes],
            active: Vec::new(),
            hot: Vec::new(),
            proc_free: Vec::new(),
        }
    }

    /// The node's slot, allocating one on first touch and caching the
    /// node's crash time and slow factor from `plan`.
    fn touch(&mut self, node: NodeId, plan: Option<&FaultPlan>) -> usize {
        let s = self.slot[node];
        if s != UNTRACKED {
            return s as usize;
        }
        let s = self.active.len();
        assert!(s < UNTRACKED as usize, "active-node slot space exhausted");
        self.slot[node] = s as u32;
        self.active.push(node);
        self.hot.push(NodeHot {
            runtime_free: SimTime::ZERO,
            nic_free: SimTime::ZERO,
            runtime_busy: SimTime::ZERO,
            crash_at: plan.and_then(|p| p.crash_time(node)).unwrap_or(SimTime::MAX),
            slow: plan.map_or(1, |p| p.slow_factor(node)),
            stage_busy: StageTotals::new(),
        });
        self.proc_free
            .resize(self.proc_free.len() + self.procs_per_node, SimTime::ZERO);
        s
    }

    /// [`touch`](ClockArena::touch) the node, then read both cache lines
    /// of its record and both ends of its processor clocks so the
    /// dispatch that follows finds them cached. Returns the values read
    /// folded together, for the caller to keep alive.
    fn warm(&mut self, node: NodeId, plan: Option<&FaultPlan>) -> u64 {
        let s = self.touch(node, plan);
        let hot = &self.hot[s];
        let procs = self.procs(s);
        // `crash_at` sits on the record's first line; `stage_busy` ends
        // on its second, which `charge` writes.
        let ends = procs.first().map_or(0, |p| p.0) ^ procs.last().map_or(0, |p| p.0);
        hot.crash_at.0 ^ hot.stage_busy.get(Stage::Other).0 ^ ends
    }

    fn procs(&self, slot: usize) -> &[SimTime] {
        &self.proc_free[slot * self.procs_per_node..(slot + 1) * self.procs_per_node]
    }

    fn snapshot(&self, node: NodeId) -> NodeClock {
        assert!(node < self.slot.len(), "node {node} out of range");
        match self.slot[node] {
            UNTRACKED => NodeClock {
                proc_free: vec![SimTime::ZERO; self.procs_per_node],
                ..NodeClock::default()
            },
            s => {
                let s = s as usize;
                let hot = &self.hot[s];
                NodeClock {
                    runtime_free: hot.runtime_free,
                    nic_free: hot.nic_free,
                    proc_free: self.procs(s).to_vec(),
                    runtime_busy: hot.runtime_busy,
                    stage_busy: hot.stage_busy,
                }
            }
        }
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Events dispatched.
    pub events: u64,
    /// Cross-node messages sent.
    pub messages: u64,
    /// Total bytes injected into the network.
    pub bytes: u64,
    /// Messages/bytes broken down by the sending handler's stage.
    pub traffic: StageTraffic,
    /// Fault activity (all zero when no [`FaultPlan`] is installed).
    pub faults: FaultCounters,
}

/// Per-lane aggregate counters: the slice of [`SimStats`] attributable to
/// one group of nodes (a service-mode session slot). Maintained only when
/// [`Simulator::enable_lanes`] was called; with a single lane covering the
/// whole machine the lane counters equal the global ones field for field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Cross-node messages sent by nodes of this lane.
    pub messages: u64,
    /// Bytes injected by nodes of this lane.
    pub bytes: u64,
    /// Messages/bytes by the sending handler's stage.
    pub traffic: StageTraffic,
    /// Fault activity charged to this lane (drops/dups by the sending
    /// node's lane, crash-discards by the dead destination's lane).
    pub faults: FaultCounters,
}

/// Lane bookkeeping: the node→lane map, per-lane counters, and the number
/// of pending events addressed to each lane's nodes (`outstanding`). A
/// lane with zero outstanding events has fully drained — nothing in the
/// queue can ever reach its nodes again without a new injection.
struct LaneTable {
    of_node: Vec<u32>,
    stats: Vec<LaneStats>,
    outstanding: Vec<u64>,
}

/// A structural invariant violation detected by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An event came due earlier than the current simulation time: the
    /// `(time, seq)` queue invariant was violated. This can only happen if
    /// an event was enqueued in the past (e.g. [`Simulator::inject`] called
    /// mid-run with a stale timestamp) — handlers cannot produce one.
    TimeRegression {
        /// The offending event's timestamp.
        event: SimTime,
        /// The simulation clock when it popped.
        now: SimTime,
        /// The event's destination node.
        dst: NodeId,
        /// The event's enqueue sequence number.
        seq: u64,
    },
    /// The run dispatched more events than its runaway guard allows —
    /// almost always a livelocked protocol (a handler re-sending to
    /// itself without progress). Reported as data instead of a panic so
    /// large sweeps can size caps from the machine
    /// ([`Simulator::default_event_cap`]) and fail cleanly.
    RunawayGuard {
        /// The event cap that was exceeded.
        limit: u64,
        /// Events still pending when the guard tripped.
        pending: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TimeRegression { event, now, dst, seq } => write!(
                f,
                "time went backwards: event seq {seq} for node {dst} due at {event} \
                 popped at simulation time {now}"
            ),
            SimError::RunawayGuard { limit, pending } => write!(
                f,
                "simulation exceeded {limit} events ({pending} still pending): \
                 runaway guard tripped"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Handle given to a node's message handler.
///
/// The `cursor` is the node-local current time: it starts at
/// `max(arrival, runtime_free)` and advances as the handler charges work.
/// All sends are injected at the cursor (serialized through the NIC).
pub struct NodeCtx<'a, M> {
    node: NodeId,
    arrival: SimTime,
    cursor: SimTime,
    stage: Stage,
    /// The node's clock record (touched before dispatch).
    hot: &'a mut NodeHot,
    /// The node's processor clocks.
    procs: &'a mut [SimTime],
    net: &'a Network,
    nodes: usize,
    /// The simulator's outbox, drained after the handler returns.
    outbox: &'a mut Vec<(SimTime, NodeId, M)>,
    stats: &'a mut SimStats,
    /// This node's lane counters, when lanes are enabled.
    lane: Option<&'a mut LaneStats>,
    /// The fault plan, if one is installed (None → every hook is a no-op).
    plan: Option<&'a FaultPlan>,
    /// Counter indexing the plan's per-message drop/duplication draws.
    fault_nonce: &'a mut u64,
}

impl<'a, M> NodeCtx<'a, M> {
    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The time the message arrived at the node.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Node-local current time (arrival, plus queueing behind earlier work,
    /// plus work charged so far in this handler).
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// The stage subsequent charges/sends are attributed to.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Declare the pipeline stage for subsequent charges and sends.
    /// Handlers start each dispatch in [`Stage::Other`].
    pub fn set_stage(&mut self, stage: Stage) {
        self.stage = stage;
    }

    /// Charge `duration` of sequential runtime work (advances the cursor).
    /// On a fault-plan slow node the charge is inflated by the plan's
    /// multiplier.
    pub fn charge(&mut self, duration: SimTime) {
        let duration = duration * self.hot.slow;
        self.cursor += duration;
        self.hot.runtime_busy += duration;
        self.hot.stage_busy.add(self.stage, duration);
    }

    /// Send `msg` to another node through the network; `bytes` sets the
    /// transfer cost. Sending to self delivers after loopback latency
    /// without touching the NIC.
    ///
    /// This is the *data-plane* path: when a fault plan is installed the
    /// network may drop the message (NIC occupancy is still paid — the
    /// message was injected, then lost) or deliver a duplicate copy one
    /// extra wire latency later. Use
    /// [`send_control`](NodeCtx::send_control) for messages that must not
    /// be faulted.
    pub fn send(&mut self, dst: NodeId, msg: M, bytes: u64)
    where
        M: Clone,
    {
        self.send_data(dst, |_| msg, bytes);
    }

    /// Data-plane send whose payload a corrupt sender may silently flip.
    ///
    /// [`send`](NodeCtx::send) is this with `make` ignoring its flag: the
    /// same NIC charging, drop/duplication draws and single fault nonce
    /// per remote send. The message is built by `make(corrupted)`, where
    /// `corrupted` is true when the installed fault plan marks this node
    /// as corrupt *and* its payload-corruption draw fires for this nonce.
    /// Self-sends bypass the NIC and are never corrupted (no wire, no
    /// flip).
    ///
    /// Returns whether the payload was corrupted.
    pub fn send_data(&mut self, dst: NodeId, make: impl FnOnce(bool) -> M, bytes: u64) -> bool
    where
        M: Clone,
    {
        assert!(dst < self.nodes, "destination {dst} out of range");
        if dst == self.node {
            let msg = make(false);
            self.outbox.push((self.cursor, dst, msg));
            return false;
        }
        let arrival = self.inject_to_nic(bytes) + self.net.latency;
        if let Some(plan) = self.plan {
            let nonce = *self.fault_nonce;
            *self.fault_nonce += 1;
            let corrupted = plan.corrupt_message(self.node, nonce);
            let msg = make(corrupted);
            if plan.drop_message(nonce) {
                self.stats.faults.dropped += 1;
                if let Some(lane) = self.lane.as_deref_mut() {
                    lane.faults.dropped += 1;
                }
                return corrupted;
            }
            if plan.duplicate_message(nonce) {
                self.stats.faults.duplicated += 1;
                if let Some(lane) = self.lane.as_deref_mut() {
                    lane.faults.duplicated += 1;
                }
                self.outbox.push((arrival + self.net.latency, dst, msg.clone()));
            }
            self.outbox.push((arrival, dst, msg));
            return corrupted;
        }
        self.outbox.push((arrival, dst, make(false)));
        false
    }

    /// Send `msg` to another node over the *control channel*: identical
    /// charging and accounting to [`send`](NodeCtx::send), but exempt from
    /// fault-plan drop/duplication. The runtime's recovery protocol
    /// (completion reports, retry directives) rides on this channel — the
    /// standard reliable-control-transport assumption (see
    /// [`crate::fault`]). With no fault plan installed the two paths are
    /// indistinguishable.
    pub fn send_control(&mut self, dst: NodeId, msg: M, bytes: u64) {
        assert!(dst < self.nodes, "destination {dst} out of range");
        if dst == self.node {
            self.outbox.push((self.cursor, dst, msg));
            return;
        }
        let arrival = self.inject_to_nic(bytes) + self.net.latency;
        self.outbox.push((arrival, dst, msg));
    }

    /// Serialize a `bytes`-byte message through the NIC: advances
    /// `nic_free`, records stats, returns the time injection completes
    /// (the message arrives one wire latency later).
    fn inject_to_nic(&mut self, bytes: u64) -> SimTime {
        let start = self.cursor.max(self.hot.nic_free);
        let occupancy = self.net.occupancy(bytes);
        self.hot.nic_free = start + occupancy;
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.traffic.record(self.stage, bytes);
        if let Some(lane) = self.lane.as_deref_mut() {
            lane.messages += 1;
            lane.bytes += bytes;
            lane.traffic.record(self.stage, bytes);
        }
        start + occupancy
    }

    /// Schedule a message to this node at an absolute future time (used for
    /// completion notifications of processor work).
    pub fn send_self_at(&mut self, time: SimTime, msg: M) {
        let t = time.max(self.cursor);
        self.outbox.push((t, self.node, msg));
    }

    /// Run `duration` of work on local processor `local`, starting no
    /// earlier than the cursor. Returns the completion time. Does not
    /// advance the cursor: processors run asynchronously beside the runtime
    /// thread; pair with [`send_self_at`](NodeCtx::send_self_at) to observe
    /// completion.
    pub fn exec_on_proc(&mut self, local: usize, duration: SimTime) -> SimTime {
        assert!(local < self.procs.len(), "processor {local} out of range");
        let duration = duration * self.hot.slow;
        let start = self.cursor.max(self.procs[local]);
        let done = start + duration;
        self.procs[local] = done;
        self.hot.stage_busy.add(Stage::Exec, duration);
        done
    }

    /// When processor `local` is next free.
    pub fn proc_free(&self, local: usize) -> SimTime {
        assert!(local < self.procs.len(), "processor {local} out of range");
        self.procs[local]
    }
}

/// The deterministic discrete-event simulator.
pub struct Simulator<M, B> {
    machine: MachineDesc,
    net: Network,
    nodes: Vec<B>,
    clocks: ClockArena,
    queue: ActiveQueue<M>,
    /// The held run: the undispatched rest of the events that shared the
    /// front timestamp when it was gathered, in dispatch order; they still
    /// count as pending.
    held: VecDeque<Event<M>>,
    /// `(time, seq)` of the last dispatched event, for the debug-build
    /// order check.
    last_dispatched: Option<(SimTime, u64)>,
    now: SimTime,
    seq: u64,
    stats: SimStats,
    fault_plan: Option<FaultPlan>,
    fault_nonce: u64,
    lanes: Option<LaneTable>,
    /// Sends of the handler being dispatched; empty between dispatches.
    outbox: Vec<(SimTime, NodeId, M)>,
}

impl<M, B: NodeBehavior<M>> Simulator<M, B> {
    /// Build a simulator over `machine` with one behavior per node, the
    /// flat α–β `network`, and the [`QueueKind::Auto`] event queue.
    ///
    /// # Panics
    /// Panics if `behaviors.len() != machine.nodes`.
    pub fn new(machine: MachineDesc, network: Network, behaviors: Vec<B>) -> Self {
        assert_eq!(behaviors.len(), machine.nodes, "one behavior per node required");
        let clocks = ClockArena::new(machine.nodes, machine.procs_per_node());
        let queue = ActiveQueue::new(QueueKind::Auto, machine.nodes);
        Simulator {
            machine,
            net: network,
            nodes: behaviors,
            clocks,
            queue,
            held: VecDeque::new(),
            last_dispatched: None,
            now: SimTime::ZERO,
            seq: 0,
            stats: SimStats::default(),
            fault_plan: None,
            fault_nonce: 0,
            lanes: None,
            outbox: Vec::new(),
        }
    }

    /// Partition the machine into `lanes` groups of nodes (`of_node[n]` =
    /// the lane node `n` belongs to) and start maintaining per-lane
    /// counters ([`LaneStats`]) plus per-lane outstanding-event counts.
    /// Service mode uses one lane per session slot so each session's
    /// report carries exactly its own traffic and fault slice, and drains
    /// (`lane_outstanding` = 0) signal a slot can be reused.
    ///
    /// # Panics
    /// Panics if events were already injected, `of_node` is not one entry
    /// per node, or an entry names a lane `>= lanes`.
    pub fn enable_lanes(&mut self, of_node: Vec<u32>, lanes: usize) {
        assert_eq!(self.seq, 0, "enable lanes before injecting events");
        assert_eq!(of_node.len(), self.nodes.len(), "one lane entry per node required");
        assert!(
            of_node.iter().all(|&l| (l as usize) < lanes),
            "lane id out of range"
        );
        self.lanes = Some(LaneTable {
            of_node,
            stats: vec![LaneStats::default(); lanes],
            outstanding: vec![0; lanes],
        });
    }

    /// Aggregate counters of `lane` so far.
    ///
    /// # Panics
    /// Panics if lanes were not enabled or `lane` is out of range.
    pub fn lane_stats(&self, lane: usize) -> LaneStats {
        self.lanes.as_ref().expect("lanes not enabled").stats[lane]
    }

    /// Events still pending for `lane`'s nodes. Zero means the lane has
    /// fully drained: no queued event can reach its nodes again.
    ///
    /// # Panics
    /// Panics if lanes were not enabled or `lane` is out of range.
    pub fn lane_outstanding(&self, lane: usize) -> u64 {
        self.lanes.as_ref().expect("lanes not enabled").outstanding[lane]
    }

    /// Replace the event queue implementation. Both kinds dispatch in the
    /// identical `(time, seq)` order; this only selects the data structure.
    ///
    /// # Panics
    /// Panics if events were already injected.
    pub fn with_queue(mut self, kind: QueueKind) -> Self {
        assert_eq!(self.seq, 0, "select the event queue before injecting events");
        self.queue = ActiveQueue::new(kind, self.machine.nodes);
        self
    }

    /// The event-queue implementation in force (`Auto` already resolved).
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Install a fault plan. Every dispatch consults it; with no plan
    /// installed (the default) the fault hooks are no-ops.
    ///
    /// # Panics
    /// Panics if events were already injected (nodes cache their faults).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(self.seq, 0, "install the fault plan before injecting events");
        self.fault_plan = Some(plan);
    }

    /// Inject an initial message for `dst` at absolute time `time`.
    pub fn inject(&mut self, time: SimTime, dst: NodeId, msg: M) {
        assert!(dst < self.nodes.len(), "destination out of range");
        if let Some(lanes) = &mut self.lanes {
            lanes.outstanding[lanes.of_node[dst] as usize] += 1;
        }
        if self.held.front().is_some_and(|ev| time < ev.time) {
            // An injection into the past sorts ahead of the held run:
            // return the run to the queue so the stale event pops first.
            for ev in self.held.drain(..) {
                self.queue.push(ev);
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, dst, msg });
    }

    /// Timestamp of the next due event without dispatching it, or `None`
    /// when the queue is empty. Nothing is dequeued, so dispatch order and
    /// lane outstanding counts are unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self.held.front() {
            Some(ev) => Some(ev.time),
            None => self.queue.peek_time(),
        }
    }

    /// Pop the next event and move every queued event with its timestamp
    /// into `held`, then warm the destinations' clocks; returns the
    /// first event, to dispatch now. `Ok(None)` when the queue is empty;
    /// a first event older than the clock is reported as
    /// [`SimError::TimeRegression`] and nothing is gathered.
    fn gather(&mut self) -> Result<Option<Event<M>>, SimError> {
        let Some(first) = self.queue.pop() else {
            return Ok(None);
        };
        if first.time < self.now {
            if let Some(lanes) = &mut self.lanes {
                lanes.outstanding[lanes.of_node[first.dst] as usize] -= 1;
            }
            return Err(SimError::TimeRegression {
                event: first.time,
                now: self.now,
                dst: first.dst,
                seq: first.seq,
            });
        }
        while self.queue.peek_time() == Some(first.time) {
            self.held.push_back(self.queue.pop().expect("peeked event"));
        }
        // A run of one has no misses to overlap. Slots are allocated in
        // dispatch order, as dispatch itself would.
        if !self.held.is_empty() {
            let plan = self.fault_plan.as_ref();
            let mut folded = self.clocks.warm(first.dst, plan);
            for ev in &self.held {
                folded ^= self.clocks.warm(ev.dst, plan);
            }
            std::hint::black_box(folded);
        }
        Ok(Some(first))
    }

    /// Dispatch the next event. `Ok(false)` when the queue is empty;
    /// [`SimError::TimeRegression`] if the due event predates the clock.
    pub fn try_step(&mut self) -> Result<bool, SimError> {
        let ev = match self.held.pop_front() {
            Some(ev) => ev,
            None => match self.gather()? {
                Some(ev) => ev,
                None => return Ok(false),
            },
        };
        if let Some(lanes) = &mut self.lanes {
            lanes.outstanding[lanes.of_node[ev.dst] as usize] -= 1;
        }
        // `None` sorts below every dispatch.
        debug_assert!(
            self.last_dispatched < Some((ev.time, ev.seq)),
            "dispatch order broken: event ({}, seq {}) after {:?}",
            ev.time,
            ev.seq,
            self.last_dispatched
        );
        self.last_dispatched = Some((ev.time, ev.seq));
        self.now = ev.time;
        self.stats.events += 1;
        let slot = self.clocks.touch(ev.dst, self.fault_plan.as_ref());
        let n = self.clocks.procs_per_node;
        let hot = &mut self.clocks.hot[slot];
        let procs = &mut self.clocks.proc_free[slot * n..(slot + 1) * n];
        if hot.crash_at != SimTime::MAX && ev.time >= hot.crash_at {
            // A dead node silently discards everything addressed to it
            // (`FaultPlan::is_crashed`: no crash time never drops).
            self.stats.faults.crash_dropped += 1;
            if let Some(lanes) = &mut self.lanes {
                lanes.stats[lanes.of_node[ev.dst] as usize].faults.crash_dropped += 1;
            }
            return Ok(true);
        }
        let start = ev.time.max(hot.runtime_free);
        let lane = self
            .lanes
            .as_mut()
            .map(|lanes| &mut lanes.stats[lanes.of_node[ev.dst] as usize]);
        let mut ctx = NodeCtx {
            node: ev.dst,
            arrival: ev.time,
            cursor: start,
            stage: Stage::Other,
            hot,
            procs,
            net: &self.net,
            nodes: self.nodes.len(),
            outbox: &mut self.outbox,
            stats: &mut self.stats,
            lane,
            plan: self.fault_plan.as_ref(),
            fault_nonce: &mut self.fault_nonce,
        };
        self.nodes[ev.dst].on_message(&mut ctx, ev.msg);
        ctx.hot.runtime_free = ctx.cursor;
        for (time, dst, msg) in self.outbox.drain(..) {
            if let Some(lanes) = &mut self.lanes {
                lanes.outstanding[lanes.of_node[dst] as usize] += 1;
            }
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Event { time, seq, dst, msg });
        }
        Ok(true)
    }

    /// Dispatch the next event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    /// Panics with the [`SimError`] if the queue invariant is violated.
    pub fn step(&mut self) -> bool {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run until the event queue drains, dispatching at most `max_events`
    /// events. Returns the number dispatched, or
    /// [`SimError::RunawayGuard`] once the cap is exceeded (use
    /// [`default_event_cap`](Simulator::default_event_cap) for a
    /// machine-sized cap).
    pub fn try_run(&mut self, max_events: u64) -> Result<u64, SimError> {
        let mut dispatched = 0u64;
        while self.try_step()? {
            dispatched += 1;
            if dispatched > max_events {
                return Err(SimError::RunawayGuard {
                    limit: max_events,
                    pending: self.pending_events() as u64,
                });
            }
        }
        Ok(dispatched)
    }

    /// Run until the event queue drains.
    ///
    /// # Panics
    /// Panics with the [`SimError`] after `max_events` dispatches (runaway
    /// guard) or if the queue invariant is violated. Use
    /// [`try_run`](Simulator::try_run) to handle either as data.
    pub fn run(&mut self, max_events: u64) {
        if let Err(e) = self.try_run(max_events) {
            panic!("{e}");
        }
    }

    /// A runaway-guard cap proportional to the machine: 4096 events per
    /// node, at least 2²⁰. Callers with a tighter estimate of their
    /// protocol's event count should take the max of the two — a fixed
    /// constant tuned at paper scale will trip spuriously at 65k+ nodes.
    pub fn default_event_cap(&self) -> u64 {
        (self.machine.nodes as u64)
            .saturating_mul(4_096)
            .max(1 << 20)
    }

    /// Current simulated time (time of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events currently pending, the held run included.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.held.len()
    }

    /// The makespan: the latest time any runtime thread, NIC, or processor
    /// is busy until. A crashed node's contribution is clamped to its crash
    /// time — work it had booked past that instant died with it. O(active
    /// nodes): untouched nodes hold no clock state and contribute zero.
    pub fn makespan(&self) -> SimTime {
        let plan = self.fault_plan.as_ref();
        self.clocks
            .active
            .iter()
            .map(|&id| {
                let busy_until = self.node_busy_until(id);
                match plan.and_then(|pl| pl.crash_time(id)) {
                    Some(crash) => busy_until.min(crash),
                    None => busy_until,
                }
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The raw time `node`'s runtime thread, NIC, and processors are all
    /// free — *unclamped* by any crash schedule (use [`makespan`]'s clamp
    /// semantics for "work that actually happened"). Untouched nodes
    /// report zero. Service mode uses the per-range maximum both for
    /// per-session makespans and to decide when a slot's clocks have gone
    /// quiet enough to admit the next session without cross-session
    /// queueing.
    ///
    /// [`makespan`]: Simulator::makespan
    pub fn node_busy_until(&self, node: NodeId) -> SimTime {
        match self.clocks.slot.get(node) {
            Some(&s) if s != UNTRACKED => {
                let slot = s as usize;
                let p = self
                    .clocks
                    .procs(slot)
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(SimTime::ZERO);
                let hot = &self.clocks.hot[slot];
                hot.runtime_free.max(hot.nic_free).max(p)
            }
            _ => SimTime::ZERO,
        }
    }

    /// Per-stage busy time of one node (all-zero for untouched nodes).
    /// Cheaper than [`clock`](Simulator::clock) — no `proc_free`
    /// allocation — for walking a node range during report assembly.
    pub fn node_stage(&self, node: NodeId) -> StageTotals {
        match self.clocks.slot.get(node) {
            Some(&s) if s != UNTRACKED => self.clocks.hot[s as usize].stage_busy,
            _ => StageTotals::new(),
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Per-stage busy time summed across every node (runtime threads plus
    /// [`Stage::Exec`] processor work). O(active nodes).
    pub fn stage_totals(&self) -> StageTotals {
        let mut totals = StageTotals::new();
        for hot in &self.clocks.hot {
            totals.merge(&hot.stage_busy);
        }
        totals
    }

    /// Per-node stage attribution, sparse: `(node, totals)` for exactly
    /// the nodes with nonzero accumulated stage time, sorted by node.
    /// O(active nodes) to assemble — a 1M-node run where 10k nodes worked
    /// yields 10k rows, not 1M.
    pub fn node_stage_busy(&self) -> Vec<(NodeId, StageTotals)> {
        let mut rows: Vec<(NodeId, StageTotals)> = self
            .clocks
            .active
            .iter()
            .zip(&self.clocks.hot)
            .filter(|(_, hot)| hot.stage_busy.sum() != SimTime::ZERO)
            .map(|(&id, hot)| (id, hot.stage_busy))
            .collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        rows
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    /// Immutable access to a node's behavior.
    pub fn node(&self, id: NodeId) -> &B {
        &self.nodes[id]
    }

    /// Mutable access to a node's behavior (for seeding state before a run
    /// or collecting results afterwards).
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        &mut self.nodes[id]
    }

    /// A snapshot of a node's clocks. Nodes no event ever reached report
    /// all-zero clocks (they hold no arena slot).
    pub fn clock(&self, id: NodeId) -> NodeClock {
        self.clocks.snapshot(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct PingPong {
        seen: Vec<u32>,
    }

    impl NodeBehavior<Msg> for PingPong {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, Msg>, msg: Msg) {
            match msg {
                Msg::Ping(k) => {
                    self.seen.push(k);
                    ctx.charge(SimTime::us(1));
                    if ctx.node() == 0 && k < 3 {
                        ctx.send(1, Msg::Ping(k), 100);
                    } else if ctx.node() == 1 {
                        ctx.send(0, Msg::Pong(k), 100);
                    }
                }
                Msg::Pong(k) => {
                    self.seen.push(1000 + k);
                    ctx.charge(SimTime::us(1));
                    if k + 1 < 3 {
                        ctx.send(0, Msg::Ping(k + 1), 100);
                    }
                }
            }
        }
    }

    fn sim2() -> Simulator<Msg, PingPong> {
        Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![PingPong::default(), PingPong::default()],
        )
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = sim2();
        sim.inject(SimTime::ZERO, 0, Msg::Ping(0));
        sim.run(1_000);
        assert_eq!(sim.node(0).seen, vec![0, 1000, 1, 1001, 2, 1002]);
        assert_eq!(sim.node(1).seen, vec![0, 1, 2]);
        // 6 cross-node messages of 100 bytes each.
        assert_eq!(sim.stats().messages, 6);
        assert_eq!(sim.stats().bytes, 600);
        assert!(sim.makespan() > SimTime::us(6));
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = sim2();
            sim.inject(SimTime::ZERO, 0, Msg::Ping(0));
            sim.run(1_000);
            (sim.makespan(), sim.stats().events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn runtime_thread_serializes_handlers() {
        // Two messages arriving simultaneously are processed back-to-back.
        let mut sim = sim2();
        sim.inject(SimTime::ZERO, 1, Msg::Ping(7));
        sim.inject(SimTime::ZERO, 1, Msg::Ping(8));
        sim.run(100);
        // Each handler charges 1us and replies; replies are injected at
        // 1us and 2us respectively (plus NIC costs), so node 1's runtime
        // was busy 2us total.
        assert_eq!(sim.clock(1).runtime_busy, SimTime::us(2));
        assert_eq!(sim.node(1).seen, vec![7, 8]);
    }

    #[test]
    fn nic_serialization_orders_sends() {
        struct Burst;
        impl NodeBehavior<u64> for Burst {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, msg: u64) {
                if msg == 0 && ctx.node() == 0 {
                    // Inject 10 large messages back-to-back.
                    for _ in 0..10 {
                        ctx.send(1, 1, 10_000); // 1us occupancy each + 0.4us overhead
                    }
                }
            }
        }
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![Burst, Burst],
        );
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(100);
        // NIC occupancy: 10 * (1us + 0.4us) = 14us; last arrival adds latency.
        assert_eq!(sim.clock(0).nic_free, SimTime::ns(14_000));
        assert_eq!(sim.makespan(), SimTime::ns(14_000) + SimTime::ns(1_300));
    }

    #[test]
    fn proc_execution_is_async() {
        struct Exec {
            done_at: Option<SimTime>,
        }
        impl NodeBehavior<u8> for Exec {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, msg: u8) {
                match msg {
                    0 => {
                        let done = ctx.exec_on_proc(12, SimTime::ms(1)); // the GPU
                        ctx.charge(SimTime::us(5)); // runtime keeps working
                        ctx.send_self_at(done, 1);
                    }
                    1 => self.done_at = Some(ctx.arrival()),
                    _ => unreachable!(),
                }
            }
        }
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(1),
            Network::ideal(),
            vec![Exec { done_at: None }],
        );
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(10);
        assert_eq!(sim.node(0).done_at, Some(SimTime::ms(1)));
        // Runtime thread only accumulated its 5us of charged work.
        assert_eq!(sim.clock(0).runtime_busy, SimTime::us(5));
    }

    #[test]
    fn charges_and_sends_attribute_to_declared_stage() {
        struct Staged;
        impl NodeBehavior<u8> for Staged {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, msg: u8) {
                if msg != 0 {
                    return;
                }
                assert_eq!(ctx.stage(), Stage::Other);
                ctx.charge(SimTime::us(1)); // untagged
                ctx.set_stage(Stage::Distribution);
                ctx.charge(SimTime::us(2));
                ctx.send(1, 1, 100);
                ctx.set_stage(Stage::Physical);
                ctx.charge(SimTime::us(3));
                let done = ctx.exec_on_proc(0, SimTime::us(10));
                ctx.set_stage(Stage::Network);
                ctx.send_self_at(done, 2);
                ctx.send(1, 1, 50);
            }
        }
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![Staged, Staged],
        );
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(10);
        let c = sim.clock(0);
        assert_eq!(c.stage_busy.get(Stage::Other), SimTime::us(1));
        assert_eq!(c.stage_busy.get(Stage::Distribution), SimTime::us(2));
        assert_eq!(c.stage_busy.get(Stage::Physical), SimTime::us(3));
        assert_eq!(c.stage_busy.get(Stage::Exec), SimTime::us(10));
        assert_eq!(c.runtime_busy, SimTime::us(6));
        let traffic = &sim.stats().traffic;
        assert_eq!(traffic.messages[Stage::Distribution.index()], 1);
        assert_eq!(traffic.bytes[Stage::Distribution.index()], 100);
        assert_eq!(traffic.messages[Stage::Network.index()], 1);
        assert_eq!(traffic.bytes[Stage::Network.index()], 50);
        // Aggregates and the per-stage split agree.
        assert_eq!(sim.stats().messages, 2);
        assert_eq!(sim.stats().bytes, 150);
        assert_eq!(sim.stage_totals().get(Stage::Exec), SimTime::us(10));
    }

    /// Recorder behavior: logs every received payload, charges nothing.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<u64>,
    }
    impl NodeBehavior<u64> for Recorder {
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_, u64>, msg: u64) {
            self.seen.push(msg);
        }
    }

    #[test]
    fn same_timestamp_events_pop_in_enqueue_order() {
        // The documented tie-break: equal-time events dispatch in the order
        // they were enqueued (sequence number), independent of payload,
        // destination, or queue implementation.
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            let mut sim = Simulator::new(
                MachineDesc::piz_daint(2),
                Network::ideal(),
                vec![Recorder::default(), Recorder::default()],
            )
            .with_queue(kind);
            let t = SimTime::us(5);
            for k in [9u64, 3, 7, 1, 8, 2] {
                sim.inject(t, 0, k);
            }
            sim.inject(t, 1, 100);
            sim.inject(t, 1, 99);
            sim.run(100);
            assert_eq!(sim.node(0).seen, vec![9, 3, 7, 1, 8, 2]);
            assert_eq!(sim.node(1).seen, vec![100, 99]);
        }
    }

    #[test]
    fn time_regression_is_a_structured_error() {
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            let mut sim = Simulator::new(
                MachineDesc::piz_daint(1),
                Network::ideal(),
                vec![Recorder::default()],
            )
            .with_queue(kind);
            for k in 1..=3 {
                sim.inject(SimTime::us(10), 0, k);
            }
            assert_eq!(sim.try_step(), Ok(true)); // clock now at 10us
            assert_eq!(sim.pending_events(), 2); // held behind the clock
            sim.inject(SimTime::us(2), 0, 4); // stale injection
            let err = sim.try_step().unwrap_err();
            assert_eq!(
                err,
                SimError::TimeRegression {
                    event: SimTime::us(2),
                    now: SimTime::us(10),
                    dst: 0,
                    seq: 3,
                }
            );
            assert!(err.to_string().contains("time went backwards"));
            // The held run went back to the queue and dispatches intact.
            assert_eq!(sim.pending_events(), 2);
            assert_eq!(sim.peek_time(), Some(SimTime::us(10)));
            sim.run(10);
            assert_eq!(sim.node(0).seen, vec![1, 2, 3]);
        }
    }

    #[test]
    fn held_run_counts_as_pending_between_steps() {
        let build = |kind| {
            let mut sim = Simulator::new(
                MachineDesc::piz_daint(4),
                Network::ideal(),
                (0..4).map(|_| Recorder::default()).collect(),
            )
            .with_queue(kind);
            sim.enable_lanes(vec![0, 0, 1, 1], 2);
            for n in 0..4 {
                sim.inject(SimTime::us(5), n, n as u64);
            }
            sim.inject(SimTime::us(9), 0, 9);
            sim
        };
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            let mut sim = build(kind);
            // After each step: (peek, pending, lane 0, lane 1). Lane
            // counts drop at dispatch, not when the run is gathered.
            let expected = [
                (SimTime::us(5), 4, 2, 2),
                (SimTime::us(5), 3, 1, 2),
                (SimTime::us(5), 2, 1, 1),
                (SimTime::us(9), 1, 1, 0),
            ];
            for want in expected {
                assert_eq!(sim.try_step(), Ok(true));
                let got = (
                    sim.peek_time().unwrap(),
                    sim.pending_events(),
                    sim.lane_outstanding(0),
                    sim.lane_outstanding(1),
                );
                assert_eq!(got, want, "{kind:?}");
            }
            // The runaway guard counts the held run too: three of the
            // five dispatch, one event is still held and one queued.
            let err = build(kind).try_run(2).unwrap_err();
            assert_eq!(err, SimError::RunawayGuard { limit: 2, pending: 2 });
        }
    }

    #[test]
    fn crash_drops_inside_a_held_run() {
        use crate::fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            crash_window: (SimTime::us(1), SimTime::us(1)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(0, 2, &spec);
        assert_eq!(plan.crashes(), &[(1, SimTime::us(1))]);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::ideal(),
            vec![Recorder::default(), Recorder::default()],
        );
        sim.set_fault_plan(plan);
        for (k, dst) in [0, 1, 0, 1, 0].into_iter().enumerate() {
            sim.inject(SimTime::us(2), dst, k as u64);
        }
        // (pending, crash drops) after each step of the one run.
        for (step, want) in [(4, 0), (3, 1), (2, 1), (1, 2), (0, 2)].into_iter().enumerate() {
            assert_eq!(sim.try_step(), Ok(true));
            let got = (sim.pending_events(), sim.stats().faults.crash_dropped);
            assert_eq!(got, want, "after step {step}");
        }
        assert_eq!(sim.node(0).seen, vec![0, 2, 4]);
        assert!(sim.node(1).seen.is_empty());
        assert_eq!(sim.stats().events, 5);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn step_panics_on_time_regression() {
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(1),
            Network::ideal(),
            vec![Recorder::default()],
        );
        sim.inject(SimTime::us(10), 0, 1);
        sim.step();
        sim.inject(SimTime::us(2), 0, 2);
        sim.step();
    }

    #[test]
    fn crashed_node_discards_events_and_clamps_makespan() {
        use crate::fault::{FaultPlan, FaultSpec};
        // Find a seed whose plan crashes node 1 inside the window.
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            crash_window: (SimTime::us(1), SimTime::us(1)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(0, 2, &spec);
        assert_eq!(plan.crashes(), &[(1, SimTime::us(1))]);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::ideal(),
            vec![Recorder::default(), Recorder::default()],
        );
        sim.set_fault_plan(plan);
        sim.inject(SimTime::ZERO, 1, 7); // before the crash: delivered
        sim.inject(SimTime::us(2), 1, 8); // after the crash: dropped
        sim.inject(SimTime::us(3), 0, 9); // node 0 unaffected
        sim.run(10);
        assert_eq!(sim.node(1).seen, vec![7]);
        assert_eq!(sim.node(0).seen, vec![9]);
        assert_eq!(sim.stats().faults.crash_dropped, 1);
        assert_eq!(sim.stats().events, 3);
    }

    #[test]
    #[should_panic(expected = "install the fault plan before injecting events")]
    fn fault_plan_is_fixed_before_the_first_event() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut sim = sim2();
        sim.inject(SimTime::ZERO, 0, Msg::Ping(0));
        sim.set_fault_plan(FaultPlan::generate(0, 2, &FaultSpec::default()));
    }

    #[test]
    fn mid_run_crashes_drop_what_the_plan_table_drops() {
        use crate::fault::{FaultPlan, FaultSpec};
        // Every node is touched at time zero, caching its crash time, and
        // then receives an event every microsecond across the crash
        // window: the dispatch-time check must drop exactly the events
        // `FaultPlan::is_crashed` drops, including none at the very end of
        // time for a node that never crashes.
        let nodes = 16;
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            max_crashes: 6,
            slow_nodes: 0,
            crash_window: (SimTime::us(5), SimTime::us(25)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(3, nodes, &spec);
        assert!(plan.crashes().len() >= 3);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(nodes),
            Network::ideal(),
            (0..nodes).map(|_| Recorder::default()).collect(),
        );
        sim.set_fault_plan(plan.clone());
        let mut expected = vec![Vec::new(); nodes];
        let mut dropped = 0;
        for k in 0..32u64 {
            for (n, seen) in expected.iter_mut().enumerate() {
                let t = SimTime::us(k);
                sim.inject(t, n, k);
                if plan.is_crashed(n, t) {
                    dropped += 1;
                } else {
                    seen.push(k);
                }
            }
        }
        sim.inject(SimTime::MAX, 0, u64::MAX);
        expected[0].push(u64::MAX);
        sim.run(10_000);
        for (n, seen) in expected.iter().enumerate() {
            assert_eq!(&sim.node(n).seen, seen, "node {n}");
        }
        assert_eq!(sim.stats().faults.crash_dropped, dropped);
        assert!(dropped > 0);
    }

    #[test]
    fn slow_nodes_pay_the_charge_multiplier() {
        use crate::fault::{FaultPlan, FaultSpec};
        struct Worker;
        impl NodeBehavior<u8> for Worker {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, _msg: u8) {
                ctx.charge(SimTime::us(1));
                ctx.exec_on_proc(0, SimTime::us(10));
            }
        }
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            max_crashes: 0,
            slow_nodes: 1,
            slow_factor: 4,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(0, 2, &spec);
        assert_eq!(plan.slow_factor(1), 4);
        let mut sim =
            Simulator::new(MachineDesc::piz_daint(2), Network::ideal(), vec![Worker, Worker]);
        sim.set_fault_plan(plan);
        sim.inject(SimTime::ZERO, 0, 0);
        sim.inject(SimTime::ZERO, 1, 0);
        sim.run(10);
        assert_eq!(sim.clock(0).runtime_busy, SimTime::us(1));
        assert_eq!(sim.clock(1).runtime_busy, SimTime::us(4));
        assert_eq!(sim.clock(0).proc_free[0], SimTime::us(11));
        assert_eq!(sim.clock(1).proc_free[0], SimTime::us(44));
    }

    #[test]
    fn control_channel_is_exempt_from_drops() {
        use crate::fault::{FaultPlan, FaultSpec};
        #[derive(Default)]
        struct Sender {
            got_control: bool,
        }
        impl NodeBehavior<u64> for Sender {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, msg: u64) {
                if ctx.node() == 0 && msg == 0 {
                    for k in 1..=64 {
                        ctx.send(1, k, 64); // data plane: subject to drops
                    }
                    ctx.send_control(1, 999, 64); // control: always delivered
                } else if ctx.node() == 1 && msg == 999 {
                    self.got_control = true;
                }
            }
        }
        let spec = FaultSpec {
            drop_per_mille: 1000, // clamped to 500 by generate()
            dup_per_mille: 0,
            max_crashes: 0,
            slow_nodes: 0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(0, 2, &spec);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![Sender::default(), Sender::default()],
        );
        sim.set_fault_plan(plan);
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(1_000);
        let f = sim.stats().faults;
        // At the 50% clamp a good chunk of the 64 data messages drop
        // (deterministic for this seed); the control message never does.
        assert!(f.dropped > 0);
        assert!(f.dropped <= 64);
        assert!(sim.node(1).got_control);
        assert_eq!(sim.stats().messages, 65); // all 65 paid NIC injection
    }

    #[test]
    fn duplicated_messages_deliver_twice() {
        use crate::fault::{FaultPlan, FaultSpec};
        struct Dup;
        impl NodeBehavior<u64> for Dup {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, msg: u64) {
                if ctx.node() == 0 && msg == 0 {
                    for k in 1..=64 {
                        ctx.send(1, k, 16);
                    }
                }
            }
        }
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 500,
            max_crashes: 0,
            slow_nodes: 0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(11, 2, &spec);
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![Dup, Dup],
        );
        sim.set_fault_plan(plan);
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(1_000);
        let dups = sim.stats().faults.duplicated;
        assert!(dups > 0, "expected some duplicates at 50%");
        // Dispatched events: the initial inject + 64 deliveries + one per dup.
        assert_eq!(sim.stats().events, 1 + 64 + dups);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_guard() {
        struct Loopy;
        impl NodeBehavior<u8> for Loopy {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, _msg: u8) {
                ctx.charge(SimTime::us(1));
                let t = ctx.now();
                ctx.send_self_at(t, 0);
            }
        }
        let mut sim = Simulator::new(MachineDesc::piz_daint(1), Network::ideal(), vec![Loopy]);
        sim.inject(SimTime::ZERO, 0, 0);
        sim.run(50);
    }

    #[test]
    fn try_run_reports_runaway_as_data() {
        struct Loopy;
        impl NodeBehavior<u8> for Loopy {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, _msg: u8) {
                ctx.charge(SimTime::us(1));
                let t = ctx.now();
                ctx.send_self_at(t, 0);
            }
        }
        let mut sim = Simulator::new(MachineDesc::piz_daint(1), Network::ideal(), vec![Loopy]);
        sim.inject(SimTime::ZERO, 0, 0);
        let err = sim.try_run(50).unwrap_err();
        assert_eq!(err, SimError::RunawayGuard { limit: 50, pending: 1 });
        assert!(err.to_string().contains("exceeded"));
        // A finishing run reports its dispatch count.
        let mut ok = sim2();
        ok.inject(SimTime::ZERO, 0, Msg::Ping(0));
        assert_eq!(ok.try_run(1_000), Ok(ok.stats().events));
    }

    #[test]
    fn default_event_cap_scales_with_machine_size() {
        let small = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::ideal(),
            vec![Recorder::default(), Recorder::default()],
        );
        // Paper scale: floor of 2^20 events.
        assert_eq!(small.default_event_cap(), 1 << 20);
        let big = Simulator::new(
            MachineDesc::piz_daint(65_536),
            Network::ideal(),
            (0..65_536).map(|_| Recorder::default()).collect(),
        );
        assert_eq!(big.default_event_cap(), 65_536 * 4_096);
        assert!(big.default_event_cap() > small.default_event_cap());
    }

    #[test]
    fn auto_queue_selects_by_machine_size() {
        let small = sim2();
        assert_eq!(small.queue_kind(), QueueKind::BinaryHeap);
        let big = Simulator::new(
            MachineDesc::piz_daint(4_096),
            Network::ideal(),
            (0..4_096).map(|_| Recorder::default()).collect(),
        );
        assert_eq!(big.queue_kind(), QueueKind::Calendar);
    }

    #[test]
    fn clock_storage_is_o_active_and_reports_are_sparse() {
        struct Worker;
        impl NodeBehavior<u8> for Worker {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, _msg: u8) {
                ctx.set_stage(Stage::Exec);
                ctx.charge(SimTime::us(ctx.node() as u64 + 1));
            }
        }
        let nodes = 10_000;
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(nodes),
            Network::ideal(),
            (0..nodes).map(|_| Worker).collect(),
        );
        // Only three nodes ever see an event (injected out of node order).
        for n in [7_777, 3, 512] {
            sim.inject(SimTime::ZERO, n, 0);
        }
        sim.run(100);
        assert_eq!(sim.clocks.active.len(), 3);
        // Sparse per-node rows: sorted by node, only active nodes.
        let rows = sim.node_stage_busy();
        let ids: Vec<NodeId> = rows.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![3, 512, 7_777]);
        for &(id, totals) in &rows {
            assert_eq!(totals.get(Stage::Exec), SimTime::us(id as u64 + 1));
        }
        // Untouched nodes still answer clock() with zeros.
        let idle = sim.clock(9_999);
        assert_eq!(idle.runtime_busy, SimTime::ZERO);
        assert_eq!(idle.proc_free.len(), sim.machine().procs_per_node());
        // Aggregates agree with the sparse rows.
        let merged: SimTime = rows.iter().map(|&(_, t)| t.sum()).sum();
        assert_eq!(sim.stage_totals().sum(), merged);
        assert_eq!(sim.makespan(), SimTime::us(7_778));
    }

    #[test]
    fn single_lane_counters_match_global_stats() {
        use crate::fault::{FaultPlan, FaultSpec};
        // One lane over the whole machine must reproduce SimStats field
        // for field — the service-mode n=1 transparency anchor. Faults on
        // so the fault counters are exercised too.
        #[derive(Default)]
        struct Chat;
        impl NodeBehavior<u64> for Chat {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, msg: u64) {
                ctx.charge(SimTime::us(1));
                if msg > 0 {
                    ctx.set_stage(Stage::Distribution);
                    ctx.send(ctx.node() ^ 1, msg - 1, 128);
                }
            }
        }
        let spec = FaultSpec {
            drop_per_mille: 200,
            dup_per_mille: 200,
            max_crashes: 0,
            slow_nodes: 0,
            ..FaultSpec::default()
        };
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(2),
            Network::aries(),
            vec![Chat, Chat],
        );
        sim.set_fault_plan(FaultPlan::generate(9, 2, &spec));
        sim.enable_lanes(vec![0, 0], 1);
        sim.inject(SimTime::ZERO, 0, 64);
        sim.run(10_000);
        let lane = sim.lane_stats(0);
        let stats = sim.stats();
        assert_eq!(lane.messages, stats.messages);
        assert_eq!(lane.bytes, stats.bytes);
        assert_eq!(lane.traffic, stats.traffic);
        assert_eq!(lane.faults, stats.faults);
        assert!(lane.faults.dropped > 0 || lane.faults.duplicated > 0);
        assert_eq!(sim.lane_outstanding(0), 0);
    }

    #[test]
    fn lanes_attribute_traffic_and_drain_independently() {
        struct Relay;
        impl NodeBehavior<u64> for Relay {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, msg: u64) {
                ctx.charge(SimTime::us(1));
                if msg > 0 {
                    ctx.send(ctx.node() ^ 1, msg - 1, 100);
                }
            }
        }
        let mut sim = Simulator::new(
            MachineDesc::piz_daint(4),
            Network::aries(),
            (0..4).map(|_| Relay).collect(),
        );
        sim.enable_lanes(vec![0, 0, 1, 1], 2);
        sim.inject(SimTime::ZERO, 0, 4);
        sim.inject(SimTime::ZERO, 2, 2);
        assert_eq!(sim.lane_outstanding(0), 1);
        assert_eq!(sim.lane_outstanding(1), 1);
        sim.run(100);
        let (a, b) = (sim.lane_stats(0), sim.lane_stats(1));
        assert_eq!(a.messages, 4);
        assert_eq!(a.bytes, 400);
        assert_eq!(b.messages, 2);
        assert_eq!(b.bytes, 200);
        assert_eq!(a.messages + b.messages, sim.stats().messages);
        assert_eq!(sim.lane_outstanding(0), 0);
        assert_eq!(sim.lane_outstanding(1), 0);
    }

    #[test]
    fn peek_time_is_nonperturbing() {
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            let mut sim = Simulator::new(
                MachineDesc::piz_daint(2),
                Network::ideal(),
                vec![Recorder::default(), Recorder::default()],
            )
            .with_queue(kind);
            let t = SimTime::us(5);
            for k in [9u64, 3, 7] {
                sim.inject(t, 0, k);
            }
            sim.inject(SimTime::us(6), 1, 42);
            // Peeking is idempotent and preserves the (time, seq) order.
            assert_eq!(sim.peek_time(), Some(t));
            assert_eq!(sim.peek_time(), Some(t));
            while sim.peek_time().is_some() {
                sim.step();
            }
            assert_eq!(sim.node(0).seen, vec![9, 3, 7]);
            assert_eq!(sim.node(1).seen, vec![42]);
        }
    }

    #[test]
    fn node_busy_until_is_raw_and_node_stage_is_per_node() {
        use crate::fault::{FaultPlan, FaultSpec};
        struct Worker;
        impl NodeBehavior<u8> for Worker {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, u8>, _msg: u8) {
                ctx.charge(SimTime::us(10));
            }
        }
        let spec = FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            slow_nodes: 0,
            crash_window: (SimTime::us(1), SimTime::us(1)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(0, 2, &spec);
        assert_eq!(plan.crashes(), &[(1, SimTime::us(1))]);
        let mut sim =
            Simulator::new(MachineDesc::piz_daint(2), Network::ideal(), vec![Worker, Worker]);
        sim.set_fault_plan(plan);
        sim.inject(SimTime::ZERO, 1, 0); // delivered before the crash
        sim.run(10);
        // The makespan clamps the crashed node to its crash time; the raw
        // per-node query reports the booked work unclamped.
        assert_eq!(sim.makespan(), SimTime::us(1));
        assert_eq!(sim.node_busy_until(1), SimTime::us(10));
        assert_eq!(sim.node_busy_until(0), SimTime::ZERO); // untouched
        assert_eq!(sim.node_stage(1).get(Stage::Other), SimTime::us(10));
        assert_eq!(sim.node_stage(0), StageTotals::new());
    }

    #[test]
    fn exempt_nodes_are_removed_from_fault_schedules() {
        use crate::fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec {
            max_crashes: 6,
            slow_nodes: 6,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(5, 16, &spec);
        assert!(!plan.crashes().is_empty());
        let exempted = plan.clone().with_exempt_nodes(|n| n % 4 == 0);
        for n in 0..16 {
            if n % 4 == 0 {
                assert_eq!(exempted.crash_time(n), None);
                assert_eq!(exempted.slow_factor(n), 1);
            } else {
                assert_eq!(exempted.crash_time(n), plan.crash_time(n));
                assert_eq!(exempted.slow_factor(n), plan.slow_factor(n));
            }
        }
        // Drop/duplication draws are untouched.
        for nonce in 0..256 {
            assert_eq!(exempted.drop_message(nonce), plan.drop_message(nonce));
            assert_eq!(exempted.duplicate_message(nonce), plan.duplicate_message(nonce));
        }
        // A predicate matching nothing leaves the schedule unchanged.
        let same = plan.clone().with_exempt_nodes(|_| false);
        assert_eq!(same.crashes(), plan.crashes());
        assert_eq!(same.slow_nodes(), plan.slow_nodes());
    }
}
