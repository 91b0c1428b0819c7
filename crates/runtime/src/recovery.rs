//! Crash recovery: the layer that finishes a session when the simulated
//! machine crashes nodes, drops and duplicates data-plane messages, and
//! slows nodes down (see [`il_machine::fault`]).
//!
//! Every completed task reports to a coordinator journal on the session
//! base over the reliable control channel; per-op acknowledgement timers
//! probe the journal with exponential backoff and re-issue unacknowledged
//! tasks against a journal snapshot; after `MAX_RETRIES` probes, a task
//! group whose assigned node is confirmed crashed is re-sharded onto a
//! surviving node (charging a launch-level re-analysis). Absent — `None`
//! on [`Shared`] and on every [`RtNode`] — when the run has no faults.

use crate::credits::EdgeSlots;
use crate::depgraph::{OpSafety, TaskRef};
use crate::exec::{Ctx, Msg, RtNode, Shared, TState};
use crate::hash::{IntMap, IntSet};
use crate::trace::TraceEvent;
use il_machine::{FaultCounters, FaultPlan, NodeId, SimTime, Simulator, Stage};
use std::cell::RefCell;
use std::ops::Range;

/// How long the coordinator waits for an op's completion reports before
/// its first probe; later probes back off exponentially from it. Also the
/// delay before a receiver's clean re-delivery of a corrupted payload.
pub(crate) const ACK_TIMEOUT: SimTime = SimTime::ms(5);

/// Probes per op before a task group whose assignee is confirmed crashed
/// re-shards onto a survivor; also the number of digest-vote rounds a
/// replicated task gets before its final unverified execution.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Counters of fault activity and the recovery protocol's responses,
/// deterministic for a given `(seed, RuntimeConfig)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The fault seed the schedule was generated from.
    pub seed: u64,
    /// Node crashes the plan scheduled.
    pub crashes: u64,
    /// Nodes running with a slow-down multiplier.
    pub slow_nodes: u64,
    /// Data-plane messages the network dropped.
    pub dropped: u64,
    /// Data-plane messages the network duplicated.
    pub duplicated: u64,
    /// Events discarded because their destination node had crashed.
    pub crash_dropped: u64,
    /// Acknowledgement-timeout probes the coordinator ran.
    pub recovery_checks: u64,
    /// Task retry directives issued: every unjournaled task of a probed
    /// op counts, tasks merely waiting on producers included, once per
    /// backoff round — so this can run to ~11× the task count.
    pub retried_tasks: u64,
    /// Per-op task groups re-sharded off a confirmed-dead node.
    pub resharded_groups: u64,
    /// Launch-level safety re-analyses run for re-mapped launches.
    pub reanalyses: u64,
    /// Credit messages discarded as duplicate deliveries of an already
    /// paid (producer, consumer) edge.
    pub duplicate_credits: u64,
    /// Credits that arrived after a retry's journal snapshot had already
    /// settled their edge (discarded — the settlement paid them).
    pub late_credits: u64,
}

/// Session-wide state of the recovery protocol: cheap cross-node cells
/// for what a real implementation keeps on the coordinator (or, for the
/// first-completion guard, node-local).
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    /// First-completion guard: a task's completion effects (body, timing,
    /// credits, report) run exactly once, however many times crashes and
    /// retries make it execute.
    completed: RefCell<Vec<bool>>,
    journal: RefCell<Journal>,
    /// `(op, dead static owner) → survivor` re-sharding decisions.
    reassigned: RefCell<IntMap<(u32, NodeId), NodeId>>,
    /// Every retry issued, append-only; a `Retry` names its run.
    retry_log: RefCell<Vec<TaskRef>>,
    /// The numbering of the per-node paid bits.
    slots: EdgeSlots,
    stats: RefCell<RecoveryStats>,
}

/// The coordinator journal: the order completion reports arrived in
/// (`u32::MAX` = not yet; set once). A probe's view of it is its `len`:
/// `t` was journaled at the probe iff `order[t] < snapshot`.
struct Journal {
    order: Vec<u32>,
    len: u32,
}

impl Journal {
    fn record(&mut self, task: TaskRef) {
        if self.order[task as usize] == u32::MAX {
            (self.order[task as usize], self.len) = (self.len, self.len + 1);
        }
    }
}

impl FaultRuntime {
    /// Fresh recovery state over `plan` for an `n_tasks`-task program.
    pub(crate) fn new(plan: FaultPlan, n_tasks: usize, slots: EdgeSlots) -> FaultRuntime {
        FaultRuntime {
            plan,
            completed: RefCell::new(vec![false; n_tasks]),
            journal: RefCell::new(Journal { order: vec![u32::MAX; n_tasks], len: 0 }),
            reassigned: RefCell::new(IntMap::default()),
            retry_log: RefCell::new(Vec::new()),
            slots,
            stats: RefCell::new(RecoveryStats::default()),
        }
    }

    /// The machine's fault schedule.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fresh per-node recovery state for session-local node `local`.
    pub(crate) fn node(&self, local: NodeId) -> RecoveryNode {
        let edges = self.slots.owned(local);
        let (paid, journal_settled) = (EdgeSet::new(edges), EdgeSet::new(edges));
        RecoveryNode { paid, journal_settled, ..RecoveryNode::default() }
    }

    /// The session's counters, with the schedule counts scoped to its
    /// machine nodes `span` and the network's fault counters.
    pub(crate) fn stats(&self, span: Range<NodeId>, net: &FaultCounters) -> RecoveryStats {
        let mut r = self.stats.borrow().clone();
        r.seed = self.plan.seed();
        r.crashes = self.plan.crashes().iter().filter(|c| span.contains(&c.0)).count() as u64;
        r.slow_nodes = self.plan.slow_nodes().iter().filter(|s| span.contains(&s.0)).count() as u64;
        r.dropped = net.dropped;
        r.duplicated = net.duplicated;
        r.crash_dropped = net.crash_dropped;
        r
    }
}

/// Per-node state of the recovery protocol.
#[derive(Default)]
pub(crate) struct RecoveryNode {
    /// State of tasks running here off their owner (a crashed node's
    /// group re-sharded onto this survivor).
    foreign: IntMap<TaskRef, TState>,
    /// `(producer, consumer)` credit edges already paid on this node, so
    /// duplicated credit messages are discarded.
    paid: EdgeSet,
    /// The subset of `paid` that was settled from a retry's journal
    /// snapshot rather than a delivered credit message — the producer's
    /// own credits may still be in flight, and must count as late (not
    /// duplicated) when they land.
    journal_settled: EdgeSet,
    /// Coordinator scratch: `(node, task)` per task one probe retries.
    retries: Vec<(NodeId, TaskRef)>,
}

/// A credit edge: its slot if this node owns the consumer, else the pair.
#[derive(Clone, Copy)]
enum Edge {
    Slot(usize),
    Foreign(TaskRef, TaskRef),
}

/// Credit edges on one node: a bit per owned edge, a hash set for the rest.
#[derive(Default)]
struct EdgeSet {
    bits: Vec<u64>,
    foreign: IntSet<(TaskRef, TaskRef)>,
}

impl EdgeSet {
    fn new(slots: usize) -> Self {
        EdgeSet { bits: vec![0; slots.div_ceil(64)], foreign: IntSet::default() }
    }

    #[inline(always)]
    fn contains(&self, edge: Edge) -> bool {
        match edge {
            Edge::Slot(s) => self.bits[s / 64] & (1 << (s % 64)) != 0,
            Edge::Foreign(from, to) => self.foreign.contains(&(from, to)),
        }
    }

    /// Add (`on`) or drop `edge`; true if that changed the set. Per credit.
    #[inline(always)]
    fn set(&mut self, edge: Edge, on: bool) -> bool {
        let changed = self.contains(edge) != on;
        match edge {
            Edge::Slot(s) => self.bits[s / 64] ^= u64::from(changed) << (s % 64),
            Edge::Foreign(from, to) if on => _ = self.foreign.insert((from, to)),
            Edge::Foreign(from, to) => _ = self.foreign.remove(&(from, to)),
        }
        changed
    }
}

/// Arm the coordinator's acknowledgement timer for `op`, which cleared
/// issuance at `at`: the first probe fires one timeout later.
pub(crate) fn arm_probe<'p>(
    sim: &mut Simulator<Msg, RtNode<'p>>,
    shared: &Shared<'p>,
    op: u32,
    at: SimTime,
) {
    if shared.recovery.is_some() {
        sim.inject(at + ACK_TIMEOUT, shared.base, Msg::RecoveryCheck { op, attempt: 0 });
    }
}

/// The session-local node a dead assignee's work moves to: the next node
/// in rotation *within the session's range* that never crashes in the
/// machine's fault plan. The session's base node is crash-exempt by
/// construction (node 0 on the legacy path, exempted slot bases in
/// service mode), so the rotation always terminates — and spreading by
/// rotation (rather than dumping everything on the base) keeps recovered
/// work balanced when several groups die.
fn next_survivor(dead: NodeId, nodes: usize, base: NodeId, plan: &FaultPlan) -> NodeId {
    for step in 1..nodes {
        let candidate = (dead + step) % nodes;
        if !plan.ever_crashes(base + candidate) {
            return candidate;
        }
    }
    0
}

impl<'p> RtNode<'p> {
    /// State of a task a crash re-shard moved here; out of line so `state` inlines.
    #[inline(never)]
    pub(crate) fn state_off_owner(&mut self, task: TaskRef) -> &mut TState {
        self.recovery_node().foreign.entry(task).or_default()
    }

    /// The edge `from → task`, `from` being `deps[task][pos]` (searched
    /// for when `pos` is `None`).
    fn edge(&self, shared: &Shared<'p>, from: TaskRef, task: TaskRef, pos: Option<usize>) -> Edge {
        if shared.tasks.owner(task) != self.local {
            return Edge::Foreign(from, task);
        }
        let slots = &shared.recovery.as_ref().expect("edge sets exist under faults").slots;
        Edge::Slot(match pos {
            Some(pos) => slots.at(task, pos),
            None => slots.slot(&shared.tasks, from, task).expect("not a dependence"),
        })
    }

    /// This node's recovery state (present on every node under faults).
    fn recovery_node(&mut self) -> &mut RecoveryNode {
        self.recovery.as_mut().expect("recovery state exists on every node under faults")
    }

    /// First completion wins, globally: a task can run on a node that later
    /// crashed and on its survivor, but its effects happen once (true: first).
    pub(crate) fn claim_completion(&self, shared: &Shared<'p>, task: TaskRef) -> bool {
        let Some(fr) = &shared.recovery else { return true };
        let mut completed = fr.completed.borrow_mut();
        !std::mem::replace(&mut completed[task as usize], true)
    }

    /// Audit the invariant retries must keep: a task starts only after
    /// every producer completed.
    pub(crate) fn audit_producers_completed(&self, shared: &Shared<'p>, task: TaskRef) {
        let (Some(_), Some(fr)) = (&shared.audit, &shared.recovery) else { return };
        let completed = fr.completed.borrow();
        let deps = shared.tasks.deps(task);
        if let Some(p) = deps.iter().find(|&&p| !completed[p as usize]) {
            panic!("task {task} started before its producer {p} completed");
        }
    }

    /// Per-edge dedup of delivered credits: the `(from, task)` edge is
    /// paid at most once — credits for an edge a retry's journal snapshot
    /// settled arrive late, a duplicated delivery is discarded.
    pub(crate) fn admit_credit(
        &mut self,
        shared: &Shared<'p>,
        from: TaskRef,
        task: TaskRef,
        credits: u32,
    ) -> bool {
        let Some(fr) = &shared.recovery else { return true };
        let edge = self.edge(shared, from, task, None);
        let rec = self.recovery_node();
        if rec.paid.set(edge, true) {
            return true;
        }
        if rec.journal_settled.set(edge, false) {
            fr.stats.borrow_mut().late_credits += credits as u64;
        } else {
            fr.stats.borrow_mut().duplicate_credits += 1;
        }
        false
    }

    /// `credits` paid to `task` against `owed` waits. Per-edge dedup makes
    /// this unreachable under recovery — counted as a defensive bound (an
    /// overpayment would stall, not corrupt); without it, a bug.
    pub(crate) fn overpaid(&self, shared: &Shared<'p>, task: TaskRef, credits: u32, owed: u32) {
        match &shared.recovery {
            Some(fr) => fr.stats.borrow_mut().late_credits += (credits - owed) as u64,
            None => panic!(
                "credit underflow for task {task}: {credits} credits paid against {owed} waits"
            ),
        }
    }

    /// Journal `task`'s completion at the session coordinator: directly
    /// on the base node, otherwise by a report over the reliable control
    /// channel (which the base journals on arrival).
    pub(crate) fn report_completion(&self, ctx: &mut Ctx<'_>, shared: &Shared<'p>, task: TaskRef) {
        let Some(fr) = &shared.recovery else { return };
        let prev = ctx.stage();
        ctx.set_stage(Stage::Recovery);
        if ctx.node() == shared.base {
            fr.journal.borrow_mut().record(task);
        } else {
            ctx.send_control(
                shared.base,
                Msg::Complete { task },
                shared.config.cost.notify_message_bytes,
            );
        }
        ctx.set_stage(prev);
    }

    /// Coordinator: probe the completion journal for `op`. Fully
    /// journaled ops let their timer die; otherwise every unacknowledged
    /// task is re-issued to its responsible node against a snapshot of
    /// the journal, groups on confirmed-dead nodes are re-sharded onto a
    /// survivor once `attempt` exhausts the retry budget, and the timer
    /// re-arms with exponential backoff.
    pub(crate) fn recovery_check(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        op: u32,
        attempt: u32,
    ) {
        let Some(fr) = &shared.recovery else { return };
        ctx.set_stage(Stage::Recovery);
        let check_start = ctx.now();
        ctx.charge(shared.config.cost.recovery_check);
        fr.stats.borrow_mut().recovery_checks += 1;
        let (lo, hi) = shared.tasks.op_tasks[op as usize];
        let mut retries = std::mem::take(&mut self.recovery_node().retries);
        retries.clear();
        let snapshot = {
            let journal = fr.journal.borrow();
            let mut reassigned = fr.reassigned.borrow_mut();
            let now = ctx.now();
            for t in lo..hi {
                if journal.order[t as usize] < journal.len {
                    continue;
                }
                let static_owner = shared.tasks.owner(t);
                let mut dest =
                    reassigned.get(&(op, static_owner)).copied().unwrap_or(static_owner);
                if attempt >= MAX_RETRIES && fr.plan.is_crashed(shared.abs(dest), now) {
                    // Retry budget exhausted and the assignee is confirmed
                    // dead (modeled perfect failure detector: the plan's
                    // crash is in the past): re-shard the group onto the
                    // next survivor in rotation (within this session's
                    // node range) and charge the safety re-analysis the
                    // re-mapped launch requires.
                    let survivor =
                        next_survivor(dest, shared.config.nodes, shared.base, &fr.plan);
                    reassigned.insert((op, static_owner), survivor);
                    dest = survivor;
                    let mut stats = fr.stats.borrow_mut();
                    stats.resharded_groups += 1;
                    stats.reanalyses += 1;
                    drop(stats);
                    // A re-shard rewrites a sharding decision a captured
                    // trace may have baked in: if the op was materialized
                    // by replay, count the trace as invalidated (the
                    // paper-side contract for composing tracing with
                    // recovery).
                    if shared.tasks.replayed_ops[op as usize] {
                        shared.trace_stats.borrow_mut().invalidated += 1;
                    }
                    let mut reanalysis = shared.config.cost.logical_launch;
                    if let OpSafety::Dynamic { evals } = &shared.tasks.safety[op as usize] {
                        reanalysis += shared.config.cost.dyn_check_per_eval * *evals;
                    }
                    ctx.charge(reanalysis);
                }
                retries.push((dest, t));
            }
            journal.len
        };
        // One `Retry` per node, ascending, naming its run of the retry log.
        retries.sort_by_key(|&(node, _)| node);
        let mut at = fr.retry_log.borrow().len() as u32;
        fr.retry_log.borrow_mut().extend(retries.iter().map(|&(_, t)| t));
        for run in retries.chunk_by(|a, b| a.0 == b.0) {
            let (node, n) = (run[0].0, run.len() as u32);
            let (lo, hi) = (at, at.checked_add(n).expect("retry log cursor is 32-bit"));
            fr.stats.borrow_mut().retried_tasks += n as u64;
            let bytes = n as u64 * shared.config.cost.task_message_bytes;
            if shared.abs(node) == ctx.node() {
                self.handle_retry(ctx, shared, op, (lo, hi), snapshot);
            } else {
                ctx.send_control(shared.abs(node), Msg::Retry { op, lo, hi, snapshot }, bytes);
            }
            at = hi;
        }
        let fully_journaled = retries.is_empty();
        self.recovery_node().retries = retries;
        shared.record(TraceEvent {
            op,
            task: None,
            node: ctx.node(),
            stage: Stage::Recovery,
            start: check_start,
            duration: ctx.now() - check_start,
        });
        if !fully_journaled {
            let backoff = ACK_TIMEOUT * (1u64 << attempt.min(6));
            ctx.send_self_at(ctx.now() + backoff, Msg::RecoveryCheck { op, attempt: attempt + 1 });
        }
    }

    /// Re-issue the retried tasks `retry_log[lo..hi]` locally: inject if
    /// the launch message was lost, then settle the edges from producers
    /// journaled before the probe's `snapshot` (copies ride dependence
    /// edges, so `deps` covers them). A settled edge is marked paid, so
    /// an edge is only ever paid once whether by message or by journal —
    /// and a task never starts before every producer committed. Journal
    /// settlements stay out of the credit audit, which tracks delivered
    /// credit messages (a re-sharded consumer's edge can be legitimately
    /// paid by message on the dead node and by journal on the survivor).
    pub(crate) fn handle_retry(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        op: u32,
        (lo, hi): (u32, u32),
        snapshot: u32,
    ) {
        let Some(fr) = &shared.recovery else { return };
        let retry_start = ctx.now();
        ctx.set_stage(Stage::Recovery);
        let (log, journal) = (fr.retry_log.borrow(), fr.journal.borrow());
        for &task in &log[lo as usize..hi as usize] {
            let st = *self.state(shared, task);
            if st.started {
                continue;
            }
            if !st.injected {
                self.inject_task(ctx, shared, task);
            }
            for (pos, &from) in shared.tasks.deps(task).iter().enumerate() {
                if journal.order[from as usize] >= snapshot {
                    continue;
                }
                let edge = self.edge(shared, from, task, Some(pos));
                if self.state(shared, task).started {
                    continue;
                }
                let rec = self.recovery_node();
                if rec.paid.contains(edge) {
                    continue;
                }
                rec.paid.set(edge, true);
                rec.journal_settled.set(edge, true);
                let credits = shared.credits.edge_credits(&shared.tasks, from, task);
                self.credit(ctx, shared, task, credits);
            }
        }
        shared.record(TraceEvent {
            op,
            task: None,
            node: ctx.node(),
            stage: Stage::Recovery,
            start: retry_start,
            duration: ctx.now() - retry_start,
        });
    }
}
