//! The distributed executor: the §5 pipeline on the simulated machine.
//!
//! Responsibilities per stage:
//!
//! * **Issuance + logical analysis** — a per-run timeline computed once
//!   (`issuance.rs`): replicated identically on every node under DCR,
//!   node 0's without it.
//! * **Distribution** — DCR: sharding functor selects the O(|D|_local)
//!   local points on each node, no communication. Non-DCR: fixed-size
//!   slice descriptors scatter by recursive halving (IDX), or one message
//!   per task streams out of node 0 (No IDX / tracing-forced expansion),
//!   serializing on node 0's NIC.
//! * **Physical analysis** — charged O(log |P|) per local task on the
//!   owning node's runtime thread; the dependence *edges* come from the
//!   exact oracle in [`crate::depgraph`].
//! * **Execution + data movement** — tasks run on the owner's GPU;
//!   completions send credit messages to consumer nodes; cross-node
//!   copies pay α–β network costs, and in validation mode move real
//!   bytes between physical instances.
//!
//! Two protocols the paper does not have are layers in their own modules,
//! crash recovery (`recovery.rs`) and the silent-data-corruption defense
//! (`sdc.rs`): one `Option` each on the shared state and on every node,
//! `None` when off, reached through one call per hook point and never by
//! their fields. `report.rs` assembles the run report.

use crate::config::{ExecutionMode, RuntimeConfig};
use crate::context::{InstanceStore, TaskContext};
use crate::credits::{CreditTable, EdgeSlots};
use crate::depgraph::{OpSafety, TaskRef};
use crate::issuance::compute_frontier;
use crate::program::Program;
use crate::recovery::{arm_probe, FaultRuntime, RecoveryNode};
use crate::replay::TraceReplayStats;
use crate::report::{finish_report, RunReport, SimAggregates};
use crate::sdc::{SdcNode, SdcRuntime};
use crate::table::TaskTable;
use crate::trace::{AuditData, TraceEvent, TraceLog};
use il_machine::{
    FaultPlan, MachineDesc, Network, NodeBehavior, NodeCtx, NodeId, SimTime, Simulator, Stage,
    StageTotals,
};
use il_region::{domain_intersection, FieldId, IndexSpaceId, Privilege, RegionTreeId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// The context every message handler runs in.
pub(crate) type Ctx<'a> = NodeCtx<'a, Msg>;

#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// DCR: operation `op` clears logical analysis on this node.
    InjectOp { op: u32 },
    /// Non-DCR: node 0 starts distributing operation `op`.
    DistributeOp { op: u32 },
    /// Non-DCR, IDX: a batch of slice descriptors `slices[lo..hi]` of
    /// operation `op` (scattering down the broadcast tree).
    SliceBatch { op: u32, lo: u32, hi: u32 },
    /// Non-DCR, expanded: a single task launch arriving at its owner.
    TaskArrive { task: TaskRef },
    /// Dependence credits (completions/copies) from producer `from` (the
    /// key the duplicate-delivery dedup uses) for the consumers
    /// `succs[from][lo..hi]` — one owner's run of the row. Like
    /// `SliceBatch`, a fixed-size descriptor: the receiver reads the
    /// consumers and their credits out of the shared [`CreditTable`],
    /// `xlo` being the table cursor at `lo`. `corrupt` is set in transit
    /// when a corrupt sender's payload draw fires — the receiver decides
    /// (by defense configuration) whether to detect it or accept the
    /// flipped payload.
    Credits { from: TaskRef, lo: u32, hi: u32, xlo: u32, corrupt: bool },
    /// A task finished executing on this node's processor.
    TaskDone { task: TaskRef },
    /// Non-DCR: completion/coordination records arriving at the
    /// centralized runtime on node 0 (`count` units to process).
    CentralNotify { count: u32 },
    /// Recovery: a completion report reaching the session coordinator.
    Complete { task: TaskRef },
    /// Recovery: the coordinator's acknowledgement-timeout probe for `op`.
    RecoveryCheck { op: u32, attempt: u32 },
    /// Recovery: re-issue the retried tasks `lo..hi` of `op` here, settling
    /// the producers reported before the probe's `snapshot`.
    Retry { op: u32, lo: u32, hi: u32, snapshot: u32 },
    /// Defense: execute a replica of `task` for the vote `owner` runs (or,
    /// with `fallback`, the session base's final unverified execution).
    ReplicaExec { task: TaskRef, attempt: u32, owner: NodeId, fallback: bool },
    /// Defense: an execution of `task` finished here; digest it for the vote.
    ReplicaDone { task: TaskRef, attempt: u32, owner: NodeId, fallback: bool },
    /// Defense: a replica's output digest reaching the vote owner.
    ReplicaDigest { task: TaskRef, attempt: u32, digest: u64 },
}

/// Executor state of one task on one node. All-zero is the correct
/// initial state of every task, so dense per-node tables need no
/// per-task initialization.
#[derive(Default, Clone, Copy)]
pub(crate) struct TState {
    /// Credits received so far; the task may start at
    /// [`TaskTable::waits`].
    paid: u32,
    pub(crate) injected: bool,
    pub(crate) started: bool,
}

impl TState {
    /// Claim the (single) start of the task if analysis is done and all
    /// `waits` credits arrived.
    #[inline]
    fn claim_start(&mut self, waits: u32) -> bool {
        let ready = self.injected && self.paid >= waits && !self.started;
        self.started |= ready;
        ready
    }
}

#[derive(Default)]
pub(crate) struct Timing {
    pub(crate) setup_done: SimTime,
    pub(crate) tasks_done: u64,
}

pub(crate) struct Shared<'p> {
    pub(crate) program: &'p Program,
    pub(crate) tasks: TaskTable,
    pub(crate) config: RuntimeConfig,
    pub(crate) machine: MachineDesc,
    /// First machine node of this session's range `[base, base +
    /// config.nodes)`. Zero on the legacy single-program path; service
    /// mode places each session at its slot's base. All program-level
    /// node ids (task owners, distribution groups) stay session-local;
    /// the executor translates at every machine boundary via
    /// [`Shared::abs`]/[`Shared::local`].
    pub(crate) base: NodeId,
    /// Admission time of this session on the shared machine clock. Zero
    /// on the legacy path. Reported times (makespan, setup, trace-event
    /// starts) are relative to `t0`, which is what makes a session's
    /// report independent of when — and next to whom — it ran.
    pub(crate) t0: SimTime,
    /// Issuance/logical frontier per op, relative to `t0`.
    pub(crate) frontier: Vec<SimTime>,
    /// Per-stage decomposition of the issuance timeline (merged once
    /// into the report's stage totals).
    pub(crate) issuance_stage: StageTotals,
    /// The completion fan-out, precomputed from the expansion: who is
    /// credited how much, in which message, when a task finishes.
    pub(crate) credits: CreditTable,
    /// Sum over reqs of ceil(log2 |P_req|), per op (physical-analysis
    /// multiplier).
    pub(crate) phys_weight: Vec<u32>,
    /// Whether each op travels as compact slices without DCR.
    pub(crate) compact_ops: Vec<bool>,
    pub(crate) store: RefCell<InstanceStore>,
    /// Reduction buffers already identity-filled, keyed by
    /// `(tree, subspace, field, epoch id)`: the first epoch member to
    /// execute fills; the rest accumulate (validation mode only).
    reduce_filled: RefCell<HashSet<(RegionTreeId, IndexSpaceId, FieldId, u32)>>,
    pub(crate) timing: RefCell<Timing>,
    pub(crate) dynamic_check_time: SimTime,
    /// Structured event log (when `config.trace`). Pure observability:
    /// recording never changes simulated time.
    pub(crate) trace: Option<RefCell<TraceLog>>,
    /// Pipeline-audit counters (when `config.audit`).
    pub(crate) audit: Option<RefCell<AuditData>>,
    /// The crash-recovery layer (when `config.faults`).
    pub(crate) recovery: Option<FaultRuntime>,
    /// The silent-data-corruption layer (when the fault plan schedules
    /// corruption or a replication policy is active).
    pub(crate) sdc: Option<SdcRuntime>,
    /// Trace-replay stats, seeded from the expansion and bumped when a
    /// crash re-shard lands on a replayed op (the trace that produced it
    /// is then stale for any later capture epoch).
    pub(crate) trace_stats: RefCell<TraceReplayStats>,
}

impl<'p> Shared<'p> {
    /// Machine node of session-local node id `local`.
    #[inline]
    pub(crate) fn abs(&self, local: NodeId) -> NodeId {
        self.base + local
    }

    /// Session-local node id of machine node `node`.
    #[inline]
    pub(crate) fn local(&self, node: NodeId) -> NodeId {
        node - self.base
    }

    /// Record a trace event, translating machine node ids and absolute
    /// times into the session frame (identity on the legacy path, where
    /// `base` and `t0` are both zero).
    pub(crate) fn record(&self, mut event: TraceEvent) {
        if event.duration == SimTime::ZERO {
            return;
        }
        if let Some(trace) = &self.trace {
            event.node = self.local(event.node);
            event.start = event.start.saturating_sub(self.t0);
            trace.borrow_mut().record(event);
        }
    }
}

/// One node's executor. `RtNode::default()` is an idle node awaiting its
/// first session.
#[derive(Default)]
pub(crate) struct RtNode<'p> {
    /// The session this node currently executes, `None` when the node is
    /// idle between service sessions. Rebinding happens only after the
    /// previous session's lane fully drained, so a message can never
    /// reach a node bound to the wrong session; an unbound node receiving
    /// one anyway discards it defensively.
    shared: Option<Rc<Shared<'p>>>,
    /// This node's session-local id.
    pub(crate) local: NodeId,
    /// State of the tasks this node owns, indexed by the task's rank
    /// among them ([`CreditTable::rank_of`]).
    states: Vec<TState>,
    /// Non-DCR, compact ops: local tasks of each op still running (the
    /// slice's completion is reported centrally once, when the last
    /// local task finishes).
    slice_remaining: HashMap<u32, u32>,
    /// This node's crash-recovery state (when the session has faults).
    pub(crate) recovery: Option<RecoveryNode>,
    /// This node's defense state (when the session has the SDC layer).
    pub(crate) sdc: Option<SdcNode>,
}

/// Run one execution of `task` on this node's GPU, traced under `stage`, and
/// return when it finishes (always inlined: both callers are per-task paths).
#[inline(always)]
pub(crate) fn exec_on_gpu(
    ctx: &mut Ctx<'_>,
    shared: &Shared<'_>,
    task: TaskRef,
    stage: Stage,
) -> SimTime {
    let op = shared.tasks.op(task);
    let launch = shared.program.ops[op as usize].launch();
    let gpus = shared.machine.gpus_per_node.max(1);
    let local_proc = shared.machine.cpus_per_node + (shared.tasks.point_idx(task) as usize % gpus);
    let duration = shared.config.cost.start_task + launch.cost.at(shared.tasks.point(shared.program, task));
    let start = ctx.now().max(ctx.proc_free(local_proc));
    let done = ctx.exec_on_proc(local_proc, duration);
    let node = ctx.node();
    shared.record(TraceEvent { op, task: Some(task), node, stage, start, duration });
    done
}

impl<'p> RtNode<'p> {
    /// Bind this node to a session as its node `local`, resetting all
    /// per-session state.
    pub(crate) fn bind(&mut self, shared: Rc<Shared<'p>>, local: NodeId) {
        self.local = local;
        self.states.clear();
        self.states.resize(shared.credits.owned(local), TState::default());
        self.recovery = shared.recovery.as_ref().map(|fr| fr.node(local));
        self.sdc = shared.sdc.as_ref().map(|_| SdcNode::default());
        self.shared = Some(shared);
        self.slice_remaining.clear();
    }

    /// Release the session binding (drops this node's `Rc` so the
    /// service can unwrap the shared state into a report).
    pub(crate) fn unbind(&mut self) {
        self.shared = None;
    }

    /// This node's state of `task`: the owner's dense slot, or — only
    /// after a crash re-shard moved the task here — the recovery layer's.
    #[inline]
    pub(crate) fn state(&mut self, shared: &Shared<'p>, task: TaskRef) -> &mut TState {
        if shared.tasks.owner(task) == self.local {
            &mut self.states[shared.credits.rank_of(task)]
        } else {
            self.state_off_owner(task)
        }
    }

    /// Charge mapping + physical analysis for a local task and mark it
    /// ready for dependence resolution. Idempotent: a duplicated launch
    /// message or a recovery retry of an already injected task is a no-op.
    pub(crate) fn inject_task(&mut self, ctx: &mut Ctx<'_>, shared: &Shared<'p>, task: TaskRef) {
        if self.state(shared, task).injected {
            return;
        }
        let cost = &shared.config.cost;
        let op = shared.tasks.op(task);
        let phys = shared.phys_weight[op as usize];
        let prev_stage = ctx.stage();
        ctx.set_stage(Stage::Distribution);
        let dist_start = ctx.now();
        ctx.charge(cost.distribute_point);
        ctx.set_stage(Stage::Physical);
        let phys_start = ctx.now();
        ctx.charge(cost.map_task + cost.physical_per_task * phys as u64);
        let now = ctx.now();
        shared.record(TraceEvent {
            op,
            task: Some(task),
            node: ctx.node(),
            stage: Stage::Distribution,
            start: dist_start,
            duration: phys_start - dist_start,
        });
        shared.record(TraceEvent {
            op,
            task: Some(task),
            node: ctx.node(),
            stage: Stage::Physical,
            start: phys_start,
            duration: now - phys_start,
        });
        // Callers (slice scatter, task streaming) keep sending
        // distribution messages after this returns.
        ctx.set_stage(prev_stage);
        let st = self.state(shared, task);
        st.injected = true;
        if st.claim_start(shared.tasks.waits(task)) {
            self.launch_execution(ctx, shared, task, 0);
        }
    }

    /// Dispatch one execution of `task` on this node's processor.
    /// `attempt` counts SDC vote rounds (always 0 without an active
    /// replication policy). A task the defense replicates defers its
    /// completion to the digest vote; everything else completes directly
    /// via `TaskDone`.
    pub(crate) fn launch_execution(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
    ) {
        self.audit_producers_completed(shared, task);
        let done = exec_on_gpu(ctx, shared, task, Stage::Exec);
        if !self.recruit_replicas(ctx, shared, task, attempt, done) {
            ctx.send_self_at(done, Msg::TaskDone { task });
        }
    }

    /// Run the body (validation mode) and fan out completion credits.
    pub(crate) fn complete_task(&mut self, ctx: &mut Ctx<'_>, shared: &Shared<'p>, task: TaskRef) {
        if !self.claim_completion(shared, task) {
            return;
        }
        if shared.config.mode == ExecutionMode::Validate {
            self.run_body(shared, task);
        }
        self.check_escape(shared, task, ctx.node());
        // Record timing.
        {
            let mut timing = shared.timing.borrow_mut();
            let t = ctx.arrival();
            if (shared.tasks.op(task) as usize) < shared.program.timed_from {
                timing.setup_done = timing.setup_done.max(t);
            }
            timing.tasks_done += 1;
        }
        // Fan out the credits — 1 per dependence edge plus 1 per copy it
        // feeds — one message per consumer-owner run of the successor
        // row, in row (ascending owner) order; this node's own run is
        // paid in its turn.
        let tasks = &shared.tasks;
        for g in shared.credits.groups(tasks, task, shared.config.cost.notify_message_bytes) {
            if shared.abs(g.owner) == ctx.node() {
                for (succ, credits) in shared.credits.edges(tasks, task, g.lo, g.hi, g.xlo) {
                    self.pay(ctx, shared, task, succ, credits);
                }
            } else {
                ctx.send_data(
                    shared.abs(g.owner),
                    |corrupt| Msg::Credits { from: task, lo: g.lo, hi: g.hi, xlo: g.xlo, corrupt },
                    g.bytes,
                );
            }
        }
        self.report_completion(ctx, shared, task);
        // Centralized mode: completion processing flows through node 0's
        // runtime instance — per task when the op was expanded, per
        // slice when it traveled as a compact index launch.
        if !shared.config.dcr {
            let op = shared.tasks.op(task);
            let compact = distribution_is_compact(&shared.config, &shared.tasks.safety[op as usize]);
            // Slice-granularity accounting only makes sense on the node
            // the slice statically belongs to; a task recovered onto a
            // different node reports per-task instead (the static owner's
            // count then never reaches zero — it crashed).
            let at_static_owner = ctx.node() == shared.abs(shared.tasks.owner(task));
            let notify = !compact || !at_static_owner || {
                // A task of a compact op only ever completes on a node
                // that owns a non-empty group of its tasks; a missed
                // lookup or a decrement past zero is executor-state
                // corruption, so both fail loudly (release included)
                // instead of wrapping — covered by the
                // credit-conservation audit.
                let node = shared.local(ctx.node());
                let remaining = self.slice_remaining.entry(op).or_insert_with(|| {
                    let groups = &shared.tasks.dist[op as usize].groups;
                    let i = groups
                        .binary_search_by_key(&node, |(n, _)| *n)
                        .unwrap_or_else(|_| {
                            panic!("op {op} task completed on node {node}, which owns none of its tasks")
                        });
                    groups[i].1.len() as u32
                });
                *remaining = remaining.checked_sub(1).unwrap_or_else(|| {
                    panic!("slice accounting underflow: op {op} over-completed on node {node}")
                });
                *remaining == 0
            };
            if notify {
                ctx.send(
                    shared.base,
                    Msg::CentralNotify { count: 1 },
                    shared.config.cost.notify_message_bytes,
                );
            }
        }
    }

    /// Pay `credits` a message from producer `from` delivered to consumer
    /// `task`, unless the recovery layer discards it as duplicate or late.
    fn pay(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        from: TaskRef,
        task: TaskRef,
        credits: u32,
    ) {
        if !self.admit_credit(shared, from, task, credits) {
            return;
        }
        if let Some(audit) = &shared.audit {
            audit.borrow_mut().credits_paid[task as usize] += credits as u64;
        }
        self.credit(ctx, shared, task, credits);
    }

    /// Add `credits` to `task`'s paid count and start it once every wait is
    /// paid (always inlined: it runs once per dependence edge).
    #[inline(always)]
    pub(crate) fn credit(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        credits: u32,
    ) {
        let waits = shared.tasks.waits(task);
        let st = self.state(shared, task);
        let owed = waits - st.paid;
        st.paid += credits.min(owed);
        let start = st.claim_start(waits);
        if credits > owed {
            self.overpaid(shared, task, credits, owed);
        }
        if start {
            self.launch_execution(ctx, shared, task, 0);
        }
    }

    /// Validation mode: apply incoming copies, fill reduction buffers, run
    /// the kernel (kept out of line, off the scale-mode completion path).
    #[inline(never)]
    fn run_body(&mut self, shared: &Shared<'p>, task: TaskRef) {
        let forest = &shared.program.forest;
        let tasks = &shared.tasks;
        let subspaces = tasks.subspaces(task);
        let launch = shared.program.ops[tasks.op(task) as usize].launch();
        let mut store = shared.store.borrow_mut();

        // Ensure destination instances exist.
        for (req, &space) in launch.reqs.iter().zip(subspaces) {
            store.ensure(forest, req.tree, space, req.field_space);
        }

        // Apply incoming copies: plain copies first, then reduction folds,
        // in deterministic producer order.
        let mut copies: Vec<_> = tasks.copies(task).iter().collect();
        copies.sort_by_key(|c| (c.fold.is_some(), c.from, c.src_space, c.dst_req));
        for c in copies {
            let dst_space = subspaces[c.dst_req as usize];
            if dst_space == c.src_space {
                continue; // same instance: data already in place
            }
            let (dst_domain, src_domain) = (forest.domain(dst_space), forest.domain(c.src_space));
            let Some(overlap) = domain_intersection(dst_domain, src_domain) else {
                continue;
            };
            let src = store
                .take((c.tree, c.src_space))
                .unwrap_or_else(|| panic!("copy source instance missing: {:?}", c.src_space));
            {
                let dst = store
                    .get_mut((c.tree, dst_space))
                    .expect("destination ensured above");
                let fields = c.field_ids();
                match c.fold {
                    None => dst.copy_from(&src, &overlap, &fields),
                    Some(op_id) => {
                        let kind = op_id.kind().expect("built-in reduction");
                        dst.fold_from(&src, &overlap, &fields, kind);
                    }
                }
                self.corrupt_copy(shared, dst, (c.from, task), &fields);
            }
            store.put((c.tree, c.src_space), src);
        }

        // Reduction privileges write contributions into identity-filled
        // buffers (folded into consumers later). Each (buffer, field,
        // epoch) is filled exactly once, by whichever epoch member
        // executes first — members carry the epoch ids the dependence
        // oracle assigned and are otherwise unordered (commutativity).
        for (req_idx, req) in launch.reqs.iter().enumerate() {
            if let Privilege::Reduce(op_id) = req.privilege {
                let kind = op_id.kind().expect("built-in reduction");
                let space = subspaces[req_idx];
                let instance = store.get_mut((req.tree, space)).expect("ensured");
                let mut filled = shared.reduce_filled.borrow_mut();
                for &(f, epoch) in tasks.reduce_fill(task, req_idx) {
                    if filled.insert((req.tree, space, f, epoch)) {
                        instance.fill_identity(f, kind);
                    }
                }
            }
        }

        if let Some(body) = &shared.program.task(launch.task).body {
            let keys: Vec<_> = launch
                .reqs
                .iter()
                .zip(subspaces)
                .map(|(req, &space)| ((req.tree, space), forest.domain(space).clone()))
                .collect();
            let point = tasks.point(shared.program, task);
            let mut ctx = TaskContext::assemble(point, launch.scalars.clone(), keys, &mut store);
            body(&mut ctx);
            ctx.disassemble(&mut store);
        }
    }

    /// Recursive-halving scatter of slice descriptors (§5, Figure 3): the
    /// sender keeps the first half and forwards the second half to the
    /// owner of its first slice, until single slices expand locally.
    fn handle_slice_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        op: u32,
        lo: u32,
        mut hi: u32,
    ) {
        let slices = &shared.tasks.dist[op as usize].slices;
        loop {
            if lo >= hi {
                return;
            }
            if hi - lo == 1 {
                let (tlo, thi, owner) = slices[lo as usize];
                let owner = shared.abs(owner);
                if owner == ctx.node() {
                    // The slice has reached its owner and expands into
                    // point tasks: this is the delivery the coverage
                    // audit counts (exactly once per slice).
                    if let Some(audit) = &shared.audit {
                        audit.borrow_mut().slice_delivered[op as usize][lo as usize] += 1;
                    }
                    for t in tlo..thi {
                        self.inject_task(ctx, shared, t);
                    }
                } else {
                    ctx.send(
                        owner,
                        Msg::SliceBatch { op, lo, hi },
                        shared.config.cost.slice_message_bytes,
                    );
                }
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let right_owner = shared.abs(slices[mid as usize].2);
            let bytes = (hi - mid) as u64 * shared.config.cost.slice_message_bytes;
            if right_owner == ctx.node() {
                // Keep both halves local: handle right recursively.
                self.handle_slice_batch(ctx, shared, op, mid, hi);
            } else {
                ctx.send(right_owner, Msg::SliceBatch { op, lo: mid, hi }, bytes);
            }
            hi = mid;
        }
    }
}

impl<'p> NodeBehavior<Msg> for RtNode<'p> {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // Unbound between service sessions: slots are only rebound after
        // the previous session's lane drained, so nothing should ever
        // land there — discard defensively if it does. One `Rc` clone
        // per message; everything below borrows it.
        let Some(shared) = self.shared.clone() else { return };
        let shared = &*shared;
        match msg {
            Msg::InjectOp { op } => {
                ctx.set_stage(Stage::Distribution);
                let groups = &shared.tasks.dist[op as usize].groups;
                let local = shared.local(ctx.node());
                if let Ok(i) = groups.binary_search_by_key(&local, |(n, _)| *n) {
                    for &t in &groups[i].1 {
                        self.inject_task(ctx, shared, t);
                    }
                }
            }
            Msg::DistributeOp { op } => {
                ctx.set_stage(Stage::Distribution);
                let compact = distribution_is_compact(&shared.config, &shared.tasks.safety[op as usize]);
                if compact {
                    let n = shared.tasks.dist[op as usize].slices.len() as u32;
                    self.handle_slice_batch(ctx, shared, op, 0, n);
                } else {
                    // Stream one message per task out of the base node.
                    let (lo, hi) = shared.tasks.op_tasks[op as usize];
                    for t in lo..hi {
                        let owner = shared.abs(shared.tasks.owner(t));
                        if owner == ctx.node() {
                            self.inject_task(ctx, shared, t);
                        } else {
                            ctx.send(
                                owner,
                                Msg::TaskArrive { task: t },
                                shared.config.cost.task_message_bytes,
                            );
                        }
                    }
                }
            }
            Msg::SliceBatch { op, lo, hi } => {
                ctx.set_stage(Stage::Distribution);
                self.handle_slice_batch(ctx, shared, op, lo, hi);
            }
            Msg::TaskArrive { task } => {
                ctx.set_stage(Stage::Distribution);
                self.inject_task(ctx, shared, task);
            }
            Msg::Credits { from, lo, hi, xlo, corrupt } => {
                ctx.set_stage(Stage::Network);
                if corrupt && self.handle_corrupt_payload(ctx, shared, from, (lo, hi, xlo)) {
                    return;
                }
                for (task, credits) in shared.credits.edges(&shared.tasks, from, lo, hi, xlo) {
                    self.pay(ctx, shared, from, task, credits);
                }
            }
            Msg::TaskDone { task } => {
                ctx.set_stage(Stage::Network);
                self.complete_task(ctx, shared, task);
            }
            Msg::CentralNotify { count } => {
                ctx.set_stage(Stage::Network);
                ctx.charge(shared.config.cost.central_complete * count as u64);
            }
            Msg::Complete { task } => self.report_completion(ctx, shared, task),
            Msg::RecoveryCheck { op, attempt } => self.recovery_check(ctx, shared, op, attempt),
            Msg::Retry { op, lo, hi, snapshot } => {
                self.handle_retry(ctx, shared, op, (lo, hi), snapshot)
            }
            Msg::ReplicaExec { task, attempt, owner, fallback } => {
                self.handle_replica_exec(ctx, shared, task, attempt, owner, fallback)
            }
            Msg::ReplicaDone { task, attempt, owner, fallback } => {
                self.handle_replica_done(ctx, shared, task, attempt, owner, fallback)
            }
            Msg::ReplicaDigest { task, attempt, digest } => {
                self.handle_replica_digest(ctx, shared, task, attempt, digest)
            }
        }
    }
}

/// Whether this op travels as a compact slice descriptor without DCR.
fn distribution_is_compact(config: &RuntimeConfig, safety: &OpSafety) -> bool {
    config.idx && !matches!(safety, OpSafety::Sequential) && !config.tracing
}

/// Assemble the per-session shared state: frontier, wait counts,
/// physical-analysis weights, trace pre-seed, audit counters, and the
/// protocol layers the configuration asks for. `base`/`t0` place the
/// session on the machine (`0`/`ZERO` on the legacy path — every derived
/// quantity is then byte-identical to the pre-service executor). `faults`
/// is the session's fault plan, chosen by the caller because it differs
/// between the paths: the legacy path generates a plan over its own
/// machine, the service hands every session the machine-global plan.
pub(crate) fn build_shared<'p>(
    program: &'p Program,
    config: &RuntimeConfig,
    base: NodeId,
    t0: SimTime,
    tasks: TaskTable,
    faults: Option<FaultPlan>,
) -> Rc<Shared<'p>> {
    let issuance = compute_frontier(program, &tasks, config);

    let credits = CreditTable::build(&tasks, config.nodes);
    if config.audit {
        credits.audit(&tasks);
    }
    let recovery = faults.map(|plan| {
        FaultRuntime::new(plan, tasks.len(), EdgeSlots::build(&tasks, config.nodes))
    });

    let phys_weight: Vec<u32> = program
        .ops
        .iter()
        .map(|op| {
            op.launch()
                .reqs
                .iter()
                .map(|r| {
                    // ceil(log2 |P|): a 4-way partition costs 2 BVH
                    // levels, not 3 (floor(log2)+1 overcharged every
                    // power-of-two partition by one level).
                    let children = program.forest.partition(r.partition).children.len() as u32;
                    children.max(2).next_power_of_two().trailing_zeros()
                })
                .sum()
        })
        .collect();

    // Which ops travel as compact slice descriptors (the scatter tree
    // the coverage audit watches): only meaningful without DCR.
    let compact_ops: Vec<bool> = tasks
        .safety
        .iter()
        .map(|s| !config.dcr && distribution_is_compact(config, s))
        .collect();

    let machine = MachineDesc::piz_daint(config.nodes);
    let trace = config.trace.then(|| {
        let mut log = TraceLog::new();
        for &e in &issuance.events {
            log.record(e);
        }
        // Zero-duration markers for every capture/replay/invalidate
        // event, pinned at the moment the window's first op cleared the
        // issuance timeline. Recorded directly (not through
        // `Shared::record`, which elides zero-duration events): the
        // markers carry no simulated time by design — replay must stay
        // invisible to the clock — but should still be visible in the
        // structured log and Chrome timeline.
        for m in &tasks.trace_marks {
            log.record(TraceEvent {
                op: m.op,
                task: None,
                node: 0,
                stage: Stage::TraceReplay,
                start: issuance.frontier[m.op as usize],
                duration: SimTime::ZERO,
            });
        }
        RefCell::new(log)
    });
    let audit = config.audit.then(|| {
        let slices_per_op: Vec<usize> = tasks
            .dist
            .iter()
            .zip(&compact_ops)
            .map(|(d, &c)| if c { d.slices.len() } else { 0 })
            .collect();
        RefCell::new(AuditData::sized(tasks.len(), &slices_per_op))
    });
    let trace_stats = RefCell::new(tasks.trace_replay);
    Rc::new(Shared {
        program,
        tasks,
        config: config.clone(),
        machine,
        base,
        t0,
        frontier: issuance.frontier,
        issuance_stage: issuance.stage,
        credits,
        phys_weight,
        compact_ops,
        store: RefCell::new(InstanceStore::new()),
        reduce_filled: RefCell::new(HashSet::new()),
        timing: RefCell::default(),
        dynamic_check_time: issuance.dyn_total,
        trace,
        audit,
        recovery,
        sdc: SdcRuntime::new(config),
        trace_stats,
    })
}

/// Inject a session's ops (and, under faults, its acknowledgement
/// timers) into the simulator: every op at `t0 + frontier[op]`, targeted
/// at the session's node range. The enqueue order is identical to the
/// pre-service executor, which is what keeps sequence-number assignment —
/// and therefore the whole dispatch schedule — byte-identical at
/// `base = 0`, `t0 = ZERO`.
pub(crate) fn inject_session<'p>(
    sim: &mut Simulator<Msg, RtNode<'p>>,
    shared: &Shared<'p>,
    t0: SimTime,
) {
    for op_idx in 0..shared.program.ops.len() {
        let at = t0 + shared.frontier[op_idx];
        if shared.config.dcr {
            for (node, _) in &shared.tasks.dist[op_idx].groups {
                sim.inject(at, shared.abs(*node), Msg::InjectOp { op: op_idx as u32 });
            }
        } else {
            sim.inject(at, shared.base, Msg::DistributeOp { op: op_idx as u32 });
        }
        arm_probe(sim, shared, op_idx as u32, at);
    }
}

/// Runaway-guard budget of one session's protocol (the caller still takes
/// the max with the machine-sized floor).
pub(crate) fn event_budget(total_tasks: u64, ops: usize, nodes: usize, faulted: bool) -> u64 {
    let mut max_events = 64 * total_tasks.max(1_000) + 64 * (ops as u64) * (nodes as u64);
    if faulted {
        // Retries, duplicated deliveries, and backoff probes inflate the
        // event count well past the fault-free bound.
        max_events = max_events.saturating_mul(16);
    }
    max_events
}

/// Execute `program` under `config`, returning the run report.
pub fn execute(program: &Program, config: &RuntimeConfig) -> RunReport {
    let tasks = TaskTable::expand(program, config);
    let total_tasks = tasks.len() as u64;
    let plan = config
        .faults
        .as_ref()
        .map(|fc| FaultPlan::generate(fc.seed, config.nodes, &fc.spec));
    let shared = build_shared(program, config, 0, SimTime::ZERO, tasks, plan);

    let behaviors: Vec<RtNode<'_>> = (0..config.nodes)
        .map(|local| {
            let mut node = RtNode::default();
            node.bind(shared.clone(), local);
            node
        })
        .collect();
    let mut sim = Simulator::new(shared.machine.clone(), Network::aries(), behaviors);
    if let Some(fr) = &shared.recovery {
        sim.set_fault_plan(fr.plan().clone());
    }

    inject_session(&mut sim, &shared, SimTime::ZERO);

    // Never cap below the machine-size-derived floor: a huge machine's
    // legitimate traffic must not trip the runaway guard.
    let max_events = event_budget(
        total_tasks,
        program.ops.len(),
        config.nodes,
        config.faults.is_some(),
    )
    .max(sim.default_event_cap());
    if let Err(err) = sim.try_run(max_events) {
        // The guard is structured data ([`il_machine::SimError`]); at this
        // boundary a trip still means a protocol bug, so escalate.
        panic!("{err}");
    }

    let stats = sim.stats().clone();
    let agg = SimAggregates {
        makespan: sim.makespan(),
        messages: stats.messages,
        bytes: stats.bytes,
        traffic: stats.traffic,
        fault_counters: stats.faults,
        // Simulator-side per-node stage busy time (distribution,
        // physical, exec, network); the analytic issuance timeline is
        // not per-node.
        stage_busy: sim.stage_totals(),
        node_stage_busy: sim.node_stage_busy(),
    };
    drop(sim);
    let shared = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("simulator retained shared state"));
    finish_report(shared, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::launch_signature;
    use crate::program::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};
    use crate::sdc::ReplicationConfig;
    use il_geometry::Domain;
    use il_region::{equal_partition_1d, FieldId, FieldKind, FieldSpaceDesc};

    /// Regression: the tracing signature once hashed only the domain's
    /// *volume* and each requirement's partition + functor, so launches
    /// with equal volume but different privileges or field lists
    /// collided — and tracing replayed the wrong trace for them. The
    /// full launch shape must distinguish all of these.
    #[test]
    fn same_volume_launches_hash_differently() {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 4);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        let mk = |privilege, fields: Vec<FieldId>| IndexLaunchDesc {
            task: t,
            domain: Domain::range(4),
            reqs: vec![RegionReq {
                partition: p,
                functor: ident,
                privilege,
                fields,
                tree: r.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::ZERO),
            shard: None,
        };
        b.index_launch(mk(Privilege::Read, vec![]));
        b.index_launch(mk(Privilege::ReadWrite, vec![]));
        b.index_launch(mk(Privilege::Read, vec![f]));
        b.index_launch(mk(Privilege::Read, vec![]));
        let program = b.build();
        let sigs: Vec<u64> = program
            .ops
            .iter()
            .map(|op| launch_signature(op.launch(), &program))
            .collect();
        // All four ops share task, domain volume, partition, and functor
        // — the old hash collided on every pair.
        assert_ne!(sigs[0], sigs[1], "privilege must affect the signature");
        assert_ne!(sigs[0], sigs[2], "field list must affect the signature");
        assert_ne!(sigs[1], sigs[2]);
        // Genuinely identical launches still share one (that is what
        // makes tracing replay work at all).
        assert_eq!(sigs[0], sigs[3]);
    }

    /// Each protocol layer is absent — `None` on `Shared` and on every
    /// bound node — unless the configuration asks for it: a plain run
    /// has neither, a faulted one recovery only, a corrupting defended
    /// one both.
    #[test]
    fn protocol_layers_are_absent_when_off() {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 4);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        b.index_launch(IndexLaunchDesc {
            task: t,
            domain: Domain::range(4),
            reqs: vec![RegionReq {
                partition: p,
                functor: ident,
                privilege: Privilege::ReadWrite,
                fields: vec![f],
                tree: r.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
        let program = b.build();
        let plain = RuntimeConfig::validate(4);
        let cases = [
            (plain.clone(), false, false),
            (plain.clone().with_faults(7), true, false),
            (plain.with_corruption(7).with_replication(ReplicationConfig::all(2)), true, true),
        ];
        for (config, recovery, sdc) in cases {
            let plan = config
                .faults
                .as_ref()
                .map(|fc| FaultPlan::generate(fc.seed, config.nodes, &fc.spec));
            let tasks = TaskTable::expand(&program, &config);
            let shared = build_shared(&program, &config, 0, SimTime::ZERO, tasks, plan);
            assert_eq!(shared.recovery.is_some(), recovery, "recovery on Shared: {config:?}");
            assert_eq!(shared.sdc.is_some(), sdc, "defense on Shared: {config:?}");
            for local in 0..config.nodes {
                let mut node = RtNode::default();
                node.bind(shared.clone(), local);
                assert_eq!(node.recovery.is_some(), recovery, "recovery on node {local}");
                assert_eq!(node.sdc.is_some(), sdc, "defense on node {local}");
            }
        }
    }

    /// The physical-analysis weight is ceil(log2 |P|) per requirement: a
    /// 4-way partition costs exactly 2 BVH levels (the old floor+1
    /// formula charged 3).
    #[test]
    fn phys_weight_is_ceil_log2() {
        let cases = [(2u32, 1u32), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)];
        for (children, want) in cases {
            let got = children.max(2).next_power_of_two().trailing_zeros();
            assert_eq!(got, want, "|P| = {children}");
        }
    }
}
