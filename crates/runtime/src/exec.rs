//! The distributed executor: the §5 pipeline on the simulated machine.
//!
//! Responsibilities per stage:
//!
//! * **Issuance + logical analysis** — a per-run timeline (the
//!   application / top-level-task thread). Under DCR it is replicated
//!   identically on every node with no communication, so one computation
//!   serves all nodes; without DCR it belongs to node 0. Index launches
//!   cost O(1) per launch here; with IDX disabled each launch pays O(|D|).
//!   Tracing replaces per-task analysis with cheap replay after the first
//!   occurrence of a launch signature — and, without DCR, forces index
//!   launches to expand *before* distribution (§6.2.1).
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

use crate::config::{ExecutionMode, FaultConfig, RuntimeConfig};
use crate::context::{InstanceStore, TaskContext};
use crate::credits::{CreditTable, EdgeSlots};
use crate::depgraph::{
    expand_program, launch_signature, AnalysisCacheStats, ExpandedProgram, OpSafety, TaskRef,
};
use crate::hash::{IntMap, IntSet};
use crate::program::Program;
use crate::replay::TraceReplayStats;
use crate::sdc::{ReplicationConfig, SdcStats};
use crate::trace::{run_audits, AuditData, AuditReport, TraceEvent, TraceLog};
use il_machine::{
    FaultCounters, FaultPlan, MachineDesc, Network, NodeBehavior, NodeCtx, NodeId,
    SimTime, Simulator, Stage, StageTotals, StageTraffic,
};
use il_region::{
    domain_intersection, FieldId, FieldKind, IndexSpaceId, PhysicalInstance, Privilege,
    RegionTreeId,
};
use il_testkit::Json;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Result of one runtime execution.
#[derive(Debug)]
pub struct RunReport {
    /// Latest simulated time any resource is busy.
    pub makespan: SimTime,
    /// Completion time of the last setup (untimed) task.
    pub setup_done: SimTime,
    /// `makespan − setup_done`: the duration of the timed portion, used
    /// for throughput.
    pub elapsed: SimTime,
    /// Point tasks executed.
    pub tasks: u64,
    /// Cross-node messages sent.
    pub messages: u64,
    /// Bytes injected into the network.
    pub bytes: u64,
    /// Total issuance-thread time spent in dynamic safety checks.
    pub dynamic_check_time: SimTime,
    /// Final value of the issuance/logical-analysis frontier.
    pub issuance_span: SimTime,
    /// Aggregate busy time per pipeline stage: per-node runtime threads
    /// and processors, plus the issuance/logical/dynamic-check timeline
    /// counted once (under DCR that timeline is replicated identically
    /// on every node; it is not multiplied here).
    pub stage_busy: StageTotals,
    /// Per-node, simulator-side per-stage busy time (distribution,
    /// physical, exec, network). Sparse: one `(node, totals)` row per
    /// node with nonzero totals, sorted by node id — on a 100k-node
    /// machine where only a few nodes ran work, the report stays small.
    /// The analytically computed issuance timeline is *not* folded in —
    /// each row's runtime-thread stages sum to at most the makespan.
    pub node_stage_busy: Vec<(NodeId, StageTotals)>,
    /// Cross-node messages by sending stage.
    pub stage_messages: [u64; Stage::COUNT],
    /// Bytes injected into the network by sending stage.
    pub stage_bytes: [u64; Stage::COUNT],
    /// The structured per-stage event log (when [`RuntimeConfig::trace`]).
    pub trace: Option<TraceLog>,
    /// Pipeline-audit outcome (when [`RuntimeConfig::audit`]).
    pub audit: Option<AuditReport>,
    /// Final instances (validation mode only).
    pub store: Option<InstanceStore>,
    /// Expansion-time analysis-cache accounting. Host-side observability
    /// only — deliberately *not* part of [`RunReport::stage_json`], so
    /// cache-on and cache-off runs stay byte-identical there.
    pub analysis_cache: AnalysisCacheStats,
    /// Expansion-time trace capture/replay accounting (plus, under fault
    /// injection, invalidations forced by crash re-shards of replayed
    /// ops). Host-side observability only — like `analysis_cache`,
    /// deliberately *not* part of [`RunReport::stage_json`], so replay-on
    /// and replay-off runs stay byte-identical there.
    pub trace_replay: TraceReplayStats,
    /// Fault-injection and recovery accounting (when
    /// [`RuntimeConfig::faults`] is set; `None` on fault-free runs, which
    /// therefore stay byte-identical to a build without the subsystem).
    pub recovery: Option<RecoveryStats>,
    /// Silent-data-corruption and defense accounting: `Some` when the
    /// fault plan schedules corruption or a replication policy is active.
    /// Host-side observability only — like `analysis_cache`, deliberately
    /// *not* part of [`RunReport::stage_json`], so corruption-free
    /// defense-off runs stay byte-identical to a build without the
    /// subsystem.
    pub sdc: Option<SdcStats>,
}

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

impl RunReport {
    /// Per-stage summary as a JSON object: for every stage, busy
    /// nanoseconds plus message/byte counts attributed to it.
    pub fn stage_json(&self) -> Json {
        let mut obj = Json::obj();
        for (stage, busy) in self.stage_busy.iter() {
            obj = obj.set(
                stage.name(),
                Json::obj()
                    .set("busy_ns", busy.as_ns())
                    .set("messages", self.stage_messages[stage.index()])
                    .set("bytes", self.stage_bytes[stage.index()]),
            );
        }
        // Fault/recovery counters ride under their own key ("recovery" is
        // already taken by the stage loop above) — and only when fault
        // injection was on, so fault-free stage summaries are unchanged.
        if let Some(r) = &self.recovery {
            obj = obj.set(
                "faults",
                Json::obj()
                    .set("seed", r.seed)
                    .set("crashes", r.crashes)
                    .set("slow_nodes", r.slow_nodes)
                    .set("dropped", r.dropped)
                    .set("duplicated", r.duplicated)
                    .set("crash_dropped", r.crash_dropped)
                    .set("recovery_checks", r.recovery_checks)
                    .set("retried_tasks", r.retried_tasks)
                    .set("resharded_groups", r.resharded_groups)
                    .set("reanalyses", r.reanalyses)
                    .set("duplicate_credits", r.duplicate_credits)
                    .set("late_credits", r.late_credits),
            );
        }
        obj
    }
}

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
    /// Recovery (faults only): a completion report reaching the node-0
    /// coordinator's journal, over the reliable control channel.
    Complete { task: TaskRef },
    /// Recovery: the coordinator's acknowledgement-timeout probe for `op`
    /// (self-scheduled with exponential backoff until fully journaled).
    RecoveryCheck { op: u32, attempt: u32 },
    /// Recovery: re-issue the tasks `retry_log[lo..hi]` of `op` on the
    /// receiving node — the original owner, or a survivor the group was
    /// re-sharded onto — settling, per edge, the producers journaled
    /// before the probe's `snapshot`. Like `Credits`, a fixed-size
    /// descriptor into shared state.
    Retry { op: u32, lo: u32, hi: u32, snapshot: u32 },
    /// SDC defense: execute a replica of `task` (vote round `attempt`) on
    /// this node and digest its output for the vote `owner` runs. With
    /// `fallback` the receiver is the session base — corruption-exempt by
    /// construction — which executes once more and commits without a vote.
    ReplicaExec { task: TaskRef, attempt: u32, owner: NodeId, fallback: bool },
    /// SDC defense: a primary/replica/fallback execution of `task`
    /// finished on this node's processor; digest it under
    /// [`Stage::Verify`] and route the result into the vote (or, for a
    /// fallback, straight into the commit).
    ReplicaDone { task: TaskRef, attempt: u32, owner: NodeId, fallback: bool },
    /// SDC defense: a replica's output digest arriving at the vote owner
    /// over the control channel.
    ReplicaDigest { task: TaskRef, attempt: u32, digest: u64 },
}

/// Executor state of one task on one node. All-zero is the correct
/// initial state of every task, so dense per-node tables need no
/// per-task initialization.
#[derive(Default, Clone, Copy)]
struct TState {
    /// Credits received so far; the task may start at `waits_init`.
    paid: u32,
    injected: bool,
    started: bool,
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

struct Timing {
    setup_done: SimTime,
    last_done: SimTime,
    tasks_done: u64,
}

pub(crate) struct Shared<'p> {
    pub(crate) program: &'p Program,
    pub(crate) expanded: ExpandedProgram,
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
    /// Initial wait counts (deps + copies).
    pub(crate) waits_init: Vec<u32>,
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
    timing: RefCell<Timing>,
    dynamic_check_time: SimTime,
    /// Structured event log (when `config.trace`). Pure observability:
    /// recording never changes simulated time.
    trace: Option<RefCell<TraceLog>>,
    /// Pipeline-audit counters (when `config.audit`).
    audit: Option<RefCell<AuditData>>,
    /// Fault-injection runtime state (when `config.faults`). `None` keeps
    /// every recovery code path inert.
    pub(crate) faults: Option<FaultRuntime>,
    /// Silent-data-corruption state: `Some` when the fault plan schedules
    /// corruption or a replication policy is active; `None` keeps every
    /// defense code path inert (and the report's `sdc` absent).
    pub(crate) sdc: Option<SdcRuntime>,
    /// Trace-replay stats, seeded from the expansion and bumped when a
    /// crash re-shard lands on a replayed op (the trace that produced it
    /// is then stale for any later capture epoch).
    trace_stats: RefCell<TraceReplayStats>,
}

/// How long the coordinator waits for an op's completion reports before
/// its first probe; later probes back off exponentially from it. Also the
/// delay before a receiver's clean re-delivery of a corrupted payload.
const ACK_TIMEOUT: SimTime = SimTime::ms(5);

/// Probes per op before a task group whose assignee is confirmed crashed
/// re-shards onto a survivor; also the number of digest-vote rounds a
/// replicated task gets before its final unverified execution.
const MAX_RETRIES: u32 = 3;

/// Runtime-side state of the recovery protocol.
///
/// The simulated machine can crash nodes, drop and duplicate data-plane
/// messages, and slow nodes down (see [`il_machine::fault`]); this is the
/// runtime's answer. Every completed task reports to a coordinator
/// journal on node 0 over the reliable control channel; per-op
/// acknowledgement timers probe the journal with exponential backoff and
/// re-issue unacknowledged tasks against a journal snapshot; after
/// `MAX_RETRIES` probes, a task group whose assigned node is confirmed
/// crashed is re-sharded onto a surviving node (charging a launch-level
/// re-analysis). The cross-node cells model coordinator state cheaply —
/// the simulation is single-threaded and the protocol only reads them on
/// node 0 or for first-completion dedup, both of which a real
/// implementation keeps node-local.
pub(crate) struct FaultRuntime {
    cfg: FaultConfig,
    pub(crate) plan: FaultPlan,
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

/// The node-0 coordinator journal: the order completion reports arrived
/// in (`u32::MAX` = not yet; set once). A probe's view of it is its
/// `len`: `t` was journaled at the probe iff `order[t] < snapshot`.
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
    fn new(cfg: FaultConfig, plan: FaultPlan, n_tasks: usize, slots: EdgeSlots) -> FaultRuntime {
        FaultRuntime {
            cfg,
            plan,
            completed: RefCell::new(vec![false; n_tasks]),
            journal: RefCell::new(Journal { order: vec![u32::MAX; n_tasks], len: 0 }),
            reassigned: RefCell::new(IntMap::default()),
            retry_log: RefCell::new(Vec::new()),
            slots,
            stats: RefCell::new(RecoveryStats::default()),
        }
    }
}

/// Runtime-side state of the silent-data-corruption defense.
///
/// Corruption never announces itself — a corrupt node's task output or
/// message payload is silently flipped (see the `corrupt_*` draws on
/// [`FaultPlan`]). The defense executes policy-selected tasks on `k`
/// nodes, digests each output, and commits only a unanimous vote;
/// divergence quarantines the result and re-runs the task. The
/// per-(node, round) corruption deltas are nonzero and pairwise distinct
/// (locked by a plan-level test), so a unanimous vote *proves* every
/// replica executed clean — which is what makes "zero escapes under any
/// active policy covering the corrupted tasks" a theorem, not a
/// probability.
pub(crate) struct SdcRuntime {
    /// Replication policy ([`ReplicationConfig::None`] when corruption
    /// is scheduled with no defense configured — the negative control).
    policy: ReplicationConfig,
    /// Whether the policy can ever replicate. False means corruption
    /// escapes: task-output flips commit unverified, payload flips are
    /// accepted by receivers.
    defense_on: bool,
    stats: RefCell<SdcStats>,
    /// `(producer, consumer)` credit edges whose corrupted payload a
    /// receiver accepted (defense off): validation mode flips a bit in
    /// the copied data when the consumer materializes it.
    corrupt_edges: RefCell<HashSet<(TaskRef, TaskRef)>>,
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
    fn record(&self, mut event: TraceEvent) {
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

pub(crate) struct RtNode<'p> {
    /// The session this node currently executes, `None` when the node is
    /// idle between service sessions. Rebinding happens only after the
    /// previous session's lane fully drained, so a message can never
    /// reach a node bound to the wrong session; an unbound node receiving
    /// one anyway discards it defensively.
    shared: Option<Rc<Shared<'p>>>,
    /// This node's session-local id.
    local: NodeId,
    /// State of the tasks this node owns, indexed by the task's rank
    /// among them ([`CreditTable::rank_of`]).
    states: Vec<TState>,
    /// Faults only: state of tasks running here off their owner (a
    /// crashed node's group re-sharded onto this survivor).
    foreign: IntMap<TaskRef, TState>,
    /// Non-DCR, compact ops: local tasks of each op still running (the
    /// slice's completion is reported centrally once, when the last
    /// local task finishes).
    slice_remaining: HashMap<u32, u32>,
    /// Faults only: `(producer, consumer)` credit edges already paid on
    /// this node, so duplicated credit messages are discarded.
    paid: EdgeSet,
    /// Faults only: the subset of `paid` that was settled from a retry's
    /// journal snapshot rather than a delivered credit message — the
    /// producer's own credits may still be in flight, and must count as
    /// late (not duplicated) when they land.
    journal_settled: EdgeSet,
    /// Coordinator scratch: `(node, task)` per task one probe retries.
    retries: Vec<(NodeId, TaskRef)>,
    /// SDC defense: open digest votes this node owns, keyed by
    /// `(task, round)` → (expected vote count, digests so far).
    votes: HashMap<(TaskRef, u32), (usize, Vec<u64>)>,
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
    fn reset(&mut self, slots: usize) {
        *self = EdgeSet { bits: vec![0; slots.div_ceil(64)], foreign: IntSet::default() };
    }

    fn contains(&self, edge: Edge) -> bool {
        match edge {
            Edge::Slot(s) => self.bits[s / 64] & (1 << (s % 64)) != 0,
            Edge::Foreign(from, to) => self.foreign.contains(&(from, to)),
        }
    }

    /// Add (`on`) or drop `edge`; true if that changed the set.
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

impl<'p> RtNode<'p> {
    /// An idle node awaiting its first session.
    pub(crate) fn unbound() -> Self {
        RtNode {
            shared: None,
            local: 0,
            states: Vec::new(),
            foreign: IntMap::default(),
            slice_remaining: HashMap::new(),
            paid: EdgeSet::default(),
            journal_settled: EdgeSet::default(),
            retries: Vec::new(),
            votes: HashMap::new(),
        }
    }

    /// Bind this node to a session as its node `local`, resetting all
    /// per-session state.
    pub(crate) fn bind(&mut self, shared: Rc<Shared<'p>>, local: NodeId) {
        self.local = local;
        self.states.clear();
        self.states.resize(shared.credits.owned(local), TState::default());
        let edges = shared.faults.as_ref().map_or(0, |fr| fr.slots.owned(local));
        self.paid.reset(edges);
        self.journal_settled.reset(edges);
        self.shared = Some(shared);
        self.foreign.clear();
        self.slice_remaining.clear();
        self.votes.clear();
    }

    /// Release the session binding (drops this node's `Rc` so the
    /// service can unwrap the shared state into a report).
    pub(crate) fn unbind(&mut self) {
        self.shared = None;
    }

    /// This node's state of `task`: the owner's dense slot, or a
    /// side-map entry for a task running off its owner.
    #[inline]
    fn state(&mut self, shared: &Shared<'p>, task: TaskRef) -> &mut TState {
        if shared.credits.owner_of(task) == self.local {
            &mut self.states[shared.credits.rank_of(task)]
        } else {
            self.foreign.entry(task).or_default()
        }
    }

    /// The edge `from → task`, `from` being `deps[task][pos]` (searched
    /// for when `pos` is `None`).
    fn edge(&self, shared: &Shared<'p>, from: TaskRef, task: TaskRef, pos: Option<usize>) -> Edge {
        if shared.credits.owner_of(task) != self.local {
            return Edge::Foreign(from, task);
        }
        let slots = &shared.faults.as_ref().expect("edge sets exist under faults").slots;
        Edge::Slot(match pos {
            Some(pos) => slots.at(task, pos),
            None => slots.slot(&shared.expanded.deps, from, task).expect("not a dependence"),
        })
    }

    /// Charge mapping + physical analysis for a local task and mark it
    /// ready for dependence resolution. Idempotent: a duplicated launch
    /// message or a recovery retry of an already injected task is a no-op.
    fn inject_task(&mut self, ctx: &mut NodeCtx<'_, Msg>, shared: &Shared<'p>, task: TaskRef) {
        if self.state(shared, task).injected {
            return;
        }
        let cost = &shared.config.cost;
        let op = shared.expanded.tasks[task as usize].op;
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
        if st.claim_start(shared.waits_init[task as usize]) {
            self.launch_execution(ctx, shared, task, 0);
        }
    }

    /// Dispatch one execution of `task` on this node's processor.
    /// `attempt` counts SDC vote rounds (always 0 without an active
    /// replication policy). A replicated task recruits its buddy nodes
    /// over the control channel and defers completion to the digest vote;
    /// everything else completes directly via `TaskDone`, exactly as
    /// before the defense existed.
    fn launch_execution(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
    ) {
        // Audit the invariant retries must keep: every producer committed.
        if let (Some(_), Some(fr)) = (&shared.audit, &shared.faults) {
            let completed = fr.completed.borrow();
            let deps = &shared.expanded.deps[task as usize];
            if let Some(p) = deps.iter().find(|&&p| !completed[p as usize]) {
                panic!("task {task} started before its producer {p} completed");
            }
        }
        let inst = &shared.expanded.tasks[task as usize];
        let op = inst.op as usize;
        let launch = shared.program.ops[op].launch();
        let gpus = shared.machine.gpus_per_node.max(1);
        let local_proc = shared.machine.cpus_per_node + (inst.point_idx as usize % gpus);
        let duration = shared.config.cost.start_task + launch.cost.at(inst.point);
        let exec_start = ctx.now().max(ctx.proc_free(local_proc));
        let done = ctx.exec_on_proc(local_proc, duration);
        shared.record(TraceEvent {
            op: inst.op,
            task: Some(task),
            node: ctx.node(),
            stage: Stage::Exec,
            start: exec_start,
            duration,
        });
        let buddies = self.replica_buddies(shared, task, shared.local(ctx.node()));
        if buddies.is_empty() {
            ctx.send_self_at(done, Msg::TaskDone { task });
            return;
        }
        let sdc = shared.sdc.as_ref().expect("buddies imply an active policy");
        {
            let mut stats = sdc.stats.borrow_mut();
            if attempt == 0 {
                stats.replicated_tasks += 1;
            }
            stats.replicas += buddies.len() as u64;
        }
        self.votes.insert((task, attempt), (1 + buddies.len(), Vec::new()));
        let owner = ctx.node();
        let prev = ctx.stage();
        ctx.set_stage(Stage::Verify);
        for buddy in buddies {
            ctx.send_control(
                shared.abs(buddy),
                Msg::ReplicaExec { task, attempt, owner, fallback: false },
                shared.config.cost.task_message_bytes,
            );
        }
        ctx.set_stage(prev);
        ctx.send_self_at(done, Msg::ReplicaDone { task, attempt, owner, fallback: false });
    }

    /// The replica nodes the policy recruits for `task` when it executes
    /// on `exec_local`: the next `k - 1` distinct never-crashing nodes in
    /// rotation. Deterministic in (task, node), so the escape check at
    /// completion recomputes the same answer. Empty when the task is
    /// unreplicated — or when the session has no other usable node, in
    /// which case the task falls back to unverified execution.
    fn replica_buddies(
        &self,
        shared: &Shared<'_>,
        task: TaskRef,
        exec_local: NodeId,
    ) -> Vec<NodeId> {
        let Some(sdc) = &shared.sdc else { return Vec::new() };
        if !sdc.defense_on {
            return Vec::new();
        }
        let inst = &shared.expanded.tasks[task as usize];
        let launch = shared.program.ops[inst.op as usize].launch();
        let k = sdc.policy.replicas(inst.op, launch.cost.at(inst.point));
        if k <= 1 {
            return Vec::new();
        }
        let nodes = shared.config.nodes;
        let plan = shared.faults.as_ref().map(|fr| &fr.plan);
        let mut out = Vec::new();
        for step in 1..nodes {
            if out.len() == k - 1 {
                break;
            }
            let candidate = (exec_local + step) % nodes;
            if plan.is_some_and(|p| p.ever_crashes(shared.abs(candidate))) {
                continue;
            }
            out.push(candidate);
        }
        out
    }

    /// Digest the output this node's execution of `task` produced in vote
    /// round `attempt`. Models the content checksum
    /// ([`il_region::PhysicalInstance::digest`] is the real-data
    /// analogue): clean executions of the same task agree exactly, while
    /// a corrupt node's firing draw XORs in its nonzero per-(node, round)
    /// delta — so no corrupt replica ever collides with a clean one, or
    /// with another corrupt one.
    fn output_digest(&self, shared: &Shared<'_>, task: TaskRef, attempt: u32, node: NodeId) -> u64 {
        let seed = shared.faults.as_ref().map_or(0, |fr| fr.cfg.seed);
        let clean = mix64((task as u64) ^ seed.rotate_left(32));
        match shared
            .faults
            .as_ref()
            .and_then(|fr| fr.plan.corrupt_task_output(node, sdc_nonce(task, attempt)))
        {
            Some(delta) => clean ^ delta,
            None => clean,
        }
    }

    /// Record one digest vote for `(task, attempt)`. When the last vote
    /// lands: a unanimous vote commits (agreement proves clean — the
    /// corruption deltas are distinct); a divergent vote quarantines the
    /// result and re-runs the task, bounded by the retry budget, after
    /// which a final fallback execution on the corruption-exempt session
    /// base commits honest-by-construction.
    fn record_vote(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        digest: u64,
    ) {
        let Some((expected, votes)) = self.votes.get_mut(&(task, attempt)) else {
            // Vote already decided, or state from before a crash re-shard
            // — a stale digest is harmless.
            return;
        };
        votes.push(digest);
        if votes.len() < *expected {
            return;
        }
        let (_, votes) = self.votes.remove(&(task, attempt)).expect("entry checked above");
        let sdc = shared.sdc.as_ref().expect("a vote implies the sdc runtime");
        if votes.iter().all(|&d| d == votes[0]) {
            self.complete_task(ctx, shared, task);
            return;
        }
        {
            let mut stats = sdc.stats.borrow_mut();
            stats.detected += 1;
            stats.quarantined += 1;
            stats.reruns += 1;
        }
        if attempt + 1 < MAX_RETRIES {
            self.launch_execution(ctx, shared, task, attempt + 1);
            return;
        }
        // Rounds exhausted (reachable only at extreme corruption rates):
        // one final execution on the session base, which never corrupts
        // by construction, commits without a vote.
        let prev = ctx.stage();
        ctx.set_stage(Stage::Verify);
        if ctx.node() == shared.base {
            self.handle_replica_exec(ctx, shared, task, attempt + 1, shared.base, true);
        } else {
            ctx.send_control(
                shared.base,
                Msg::ReplicaExec { task, attempt: attempt + 1, owner: shared.base, fallback: true },
                shared.config.cost.task_message_bytes,
            );
        }
        ctx.set_stage(prev);
    }

    /// Execute a replica (or base fallback) of `task` on this node's
    /// processor and schedule its digest step at completion.
    fn handle_replica_exec(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        owner: NodeId,
        fallback: bool,
    ) {
        let inst = &shared.expanded.tasks[task as usize];
        let launch = shared.program.ops[inst.op as usize].launch();
        let gpus = shared.machine.gpus_per_node.max(1);
        let local_proc = shared.machine.cpus_per_node + (inst.point_idx as usize % gpus);
        let duration = shared.config.cost.start_task + launch.cost.at(inst.point);
        let exec_start = ctx.now().max(ctx.proc_free(local_proc));
        let done = ctx.exec_on_proc(local_proc, duration);
        shared.record(TraceEvent {
            op: inst.op,
            task: Some(task),
            node: ctx.node(),
            stage: Stage::Verify,
            start: exec_start,
            duration,
        });
        ctx.send_self_at(done, Msg::ReplicaDone { task, attempt, owner, fallback });
    }

    /// Run the body (validation mode) and fan out completion credits.
    fn complete_task(&mut self, ctx: &mut NodeCtx<'_, Msg>, shared: &Shared<'p>, task: TaskRef) {
        // First completion wins, globally: a task can execute both on a
        // node that later crashed and on the survivor it was re-sharded
        // to; its effects (body, timing, credits, report) must not repeat.
        if let Some(fr) = &shared.faults {
            let mut completed = fr.completed.borrow_mut();
            if completed[task as usize] {
                return;
            }
            completed[task as usize] = true;
        }
        // SDC: an unreplicated execution on a corrupt node may have
        // produced a silently flipped output — committing it here is
        // exactly the escape the defense exists to prevent. Counted, and
        // in validation mode the flip lands in the real store below.
        // Replicated commits (buddies nonempty) never reach this: a
        // unanimous vote proved them clean, and the base fallback is
        // corruption-exempt.
        let mut escaped_delta = None;
        if let (Some(sdc), Some(fr)) = (&shared.sdc, &shared.faults) {
            if self.replica_buddies(shared, task, shared.local(ctx.node())).is_empty() {
                if let Some(delta) = fr.plan.corrupt_task_output(ctx.node(), sdc_nonce(task, 0)) {
                    sdc.stats.borrow_mut().escaped += 1;
                    escaped_delta = Some(delta);
                }
            }
        }
        if shared.config.mode == ExecutionMode::Validate {
            self.run_body(shared, task);
            if let Some(delta) = escaped_delta {
                self.corrupt_task_store(shared, task, delta);
            }
        }
        // Record timing.
        {
            let inst = &shared.expanded.tasks[task as usize];
            let mut timing = shared.timing.borrow_mut();
            let t = ctx.arrival();
            if (inst.op as usize) < shared.program.timed_from {
                timing.setup_done = timing.setup_done.max(t);
            }
            timing.last_done = timing.last_done.max(t);
            timing.tasks_done += 1;
        }
        // Fan out the credits — 1 per dependence edge plus 1 per copy it
        // feeds — one message per consumer-owner run of the successor
        // row, in row (ascending owner) order; this node's own run is
        // paid in its turn.
        let row = &shared.expanded.succs[task as usize];
        for g in shared.credits.groups(row, task, shared.config.cost.notify_message_bytes) {
            if shared.abs(g.owner) == ctx.node() {
                for (succ, credits) in shared.credits.edges(row, task, g.lo, g.hi, g.xlo) {
                    self.pay(ctx, shared, task, succ, credits, None);
                }
            } else {
                ctx.send_data(
                    shared.abs(g.owner),
                    |corrupt| Msg::Credits { from: task, lo: g.lo, hi: g.hi, xlo: g.xlo, corrupt },
                    g.bytes,
                );
            }
        }
        // Recovery: report the completion to the session coordinator's
        // journal (its base node) over the reliable control channel.
        if let Some(fr) = &shared.faults {
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
        // Centralized mode: completion processing flows through node 0's
        // runtime instance — per task when the op was expanded, per
        // slice when it traveled as a compact index launch.
        if !shared.config.dcr {
            let op = shared.expanded.tasks[task as usize].op;
            let compact = distribution_is_compact(&shared.config, &shared.expanded.safety[op as usize]);
            // Slice-granularity accounting only makes sense on the node
            // the slice statically belongs to; a task recovered onto a
            // different node reports per-task instead (the static owner's
            // count then never reaches zero — it crashed).
            let at_static_owner =
                ctx.node() == shared.abs(shared.expanded.tasks[task as usize].owner);
            let notify = if compact && !at_static_owner {
                true
            } else if compact {
                // A task of a compact op only ever completes on a node
                // that owns a non-empty group of its tasks; a missed
                // lookup or a decrement past zero is executor-state
                // corruption, so both fail loudly (release included)
                // instead of wrapping — covered by the
                // credit-conservation audit.
                let node = shared.local(ctx.node());
                let remaining = self.slice_remaining.entry(op).or_insert_with(|| {
                    let groups = &shared.expanded.dist[op as usize].groups;
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
            } else {
                true
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

    /// Pay `credits` from producer `from` to consumer `task`. Under faults
    /// the `(from, task)` edge is paid at most once — a credit message for
    /// an edge a retry's journal snapshot already settled arrives late,
    /// and a duplicated delivery of an already paid edge is discarded.
    /// `journal_pos` (`from`'s index in `deps[task]`) marks a settlement
    /// from the coordinator's journal: excluded from the credit audit
    /// (which tracks delivered credit messages — a re-sharded consumer's
    /// edge can be legitimately paid by message on the dead node and by
    /// journal on the survivor) and remembered so the producer's in-flight
    /// credits count as late rather than duplicated when they land.
    fn pay(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        from: TaskRef,
        task: TaskRef,
        credits: u32,
        journal_pos: Option<usize>,
    ) {
        if let Some(fr) = &shared.faults {
            let edge = self.edge(shared, from, task, journal_pos);
            if !self.paid.set(edge, true) {
                if self.journal_settled.set(edge, false) {
                    fr.stats.borrow_mut().late_credits += credits as u64;
                } else {
                    fr.stats.borrow_mut().duplicate_credits += 1;
                }
                return;
            }
            if journal_pos.is_some() {
                self.journal_settled.set(edge, true);
            }
        }
        if journal_pos.is_none() {
            if let Some(audit) = &shared.audit {
                audit.borrow_mut().credits_paid[task as usize] += credits as u64;
            }
        }
        let waits = shared.waits_init[task as usize];
        let st = self.state(shared, task);
        let owed = waits - st.paid;
        if credits > owed {
            match &shared.faults {
                // Per-edge dedup bounds the total paid by the initial wait
                // count, so this saturation is unreachable — kept as a
                // defensive bound (an overpayment would stall, not corrupt).
                Some(fr) => fr.stats.borrow_mut().late_credits += (credits - owed) as u64,
                None => panic!(
                    "credit underflow for task {task}: {credits} credits paid against {owed} waits"
                ),
            }
        }
        st.paid += credits.min(owed);
        if st.claim_start(waits) {
            self.launch_execution(ctx, shared, task, 0);
        }
    }

    /// A credit message whose payload the fault plan flipped in transit.
    /// Defense on: the receiver-side checksum catches it — count it,
    /// charge the verification, and schedule a clean retransmission one
    /// acknowledgement timeout later (returns true: the corrupt delivery
    /// pays nothing). Defense off: the flipped payload is accepted
    /// (returns false) — counted, and in validation mode the
    /// consumer-side copy of the data takes a real bit flip when it
    /// materializes.
    fn handle_corrupt_payload(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        from: TaskRef,
        (lo, hi, xlo): (u32, u32, u32),
    ) -> bool {
        let Some(sdc) = &shared.sdc else { return false };
        if sdc.defense_on {
            sdc.stats.borrow_mut().payload_detected += 1;
            let prev = ctx.stage();
            ctx.set_stage(Stage::Verify);
            ctx.charge(shared.config.cost.verify_digest);
            ctx.set_stage(prev);
            let delay = if shared.faults.is_some() { ACK_TIMEOUT } else { SimTime::ZERO };
            ctx.send_self_at(
                ctx.now() + delay,
                Msg::Credits { from, lo, hi, xlo, corrupt: false },
            );
            true
        } else {
            sdc.stats.borrow_mut().payload_escaped += 1;
            let row = &shared.expanded.succs[from as usize][lo as usize..hi as usize];
            sdc.corrupt_edges.borrow_mut().extend(row.iter().map(|&t| (from, t)));
            false
        }
    }

    /// Validation mode: land an escaped output corruption in the real
    /// store — flip bits of one element of the task's first written
    /// *data* field, so a defense-off run's final store provably
    /// diverges from the fault-free one. Only floating-point fields are
    /// targeted: integer fields double as topology pointers in the
    /// golden apps (wire endpoints, cell neighbors), and a flipped
    /// pointer crashes the validation interpreter instead of modeling a
    /// silent wrong answer.
    fn corrupt_task_store(&mut self, shared: &Shared<'p>, task: TaskRef, delta: u64) {
        let inst = &shared.expanded.tasks[task as usize];
        let launch = shared.program.ops[inst.op as usize].launch();
        let mut store = shared.store.borrow_mut();
        for (req_idx, req) in launch.reqs.iter().enumerate() {
            if matches!(req.privilege, Privilege::Read) {
                continue;
            }
            let space = inst.subspaces[req_idx];
            let Some(instance) = store.get_mut((req.tree, space)) else { continue };
            let candidates: Vec<FieldId> = if req.fields.is_empty() {
                instance.field_ids().collect()
            } else {
                req.fields.clone()
            };
            if let Some(f) = float_field(instance, &candidates) {
                instance.corrupt_element(f, delta);
                return;
            }
        }
    }

    /// Validation mode: apply incoming copies, fill reduction buffers,
    /// run the kernel.
    fn run_body(&mut self, shared: &Shared<'p>, task: TaskRef) {
        let forest = &shared.program.forest;
        let inst = &shared.expanded.tasks[task as usize];
        let op = inst.op as usize;
        let launch = shared.program.ops[op].launch();
        let mut store = shared.store.borrow_mut();

        // Ensure destination instances exist.
        for (req, &space) in launch.reqs.iter().zip(&inst.subspaces) {
            store.ensure(forest, req.tree, space, req.field_space);
        }

        // Apply incoming copies: plain copies first, then reduction folds,
        // in deterministic producer order.
        let mut copies: Vec<_> = shared.expanded.copies[task as usize].iter().collect();
        copies.sort_by_key(|c| (c.fold.is_some(), c.from, c.src_space, c.dst_req));
        for c in copies {
            let dst_space = inst.subspaces[c.dst_req];
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
                match c.fold {
                    None => dst.copy_from(&src, &overlap, &c.fields),
                    Some(op_id) => {
                        let kind = op_id.kind().expect("built-in reduction");
                        dst.fold_from(&src, &overlap, &c.fields, kind);
                    }
                }
                // An escaped payload corruption (defense off) flips bits
                // of the copied data as the consumer materializes it.
                let edge_corrupt = shared
                    .sdc
                    .as_ref()
                    .is_some_and(|s| s.corrupt_edges.borrow().contains(&(c.from, task)));
                if edge_corrupt {
                    if let Some(f) = float_field(dst, &c.fields) {
                        dst.corrupt_element(f, payload_delta(c.from, task));
                    }
                }
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
                let space = inst.subspaces[req_idx];
                let instance = store.get_mut((req.tree, space)).expect("ensured");
                let mut filled = shared.reduce_filled.borrow_mut();
                for &(f, epoch) in &inst.reduce_fill[req_idx] {
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
                .zip(&inst.subspaces)
                .map(|(req, &space)| ((req.tree, space), forest.domain(space).clone()))
                .collect();
            let mut ctx = TaskContext::assemble(inst.point, launch.scalars.clone(), keys, &mut store);
            body(&mut ctx);
            ctx.disassemble(&mut store);
        }
    }
}

impl<'p> NodeBehavior<Msg> for RtNode<'p> {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Msg>, msg: Msg) {
        // Unbound between service sessions: slots are only rebound after
        // the previous session's lane drained, so nothing should ever
        // land there — discard defensively if it does. One `Rc` clone
        // per message; everything below borrows it.
        let Some(shared) = self.shared.clone() else { return };
        let shared = &*shared;
        match msg {
            Msg::InjectOp { op } => {
                ctx.set_stage(Stage::Distribution);
                let groups = &shared.expanded.dist[op as usize].groups;
                let local = shared.local(ctx.node());
                if let Ok(i) = groups.binary_search_by_key(&local, |(n, _)| *n) {
                    for &t in &groups[i].1 {
                        self.inject_task(ctx, shared, t);
                    }
                }
            }
            Msg::DistributeOp { op } => {
                ctx.set_stage(Stage::Distribution);
                let compact = distribution_is_compact(&shared.config, &shared.expanded.safety[op as usize]);
                if compact {
                    let n = shared.expanded.dist[op as usize].slices.len() as u32;
                    self.handle_slice_batch(ctx, shared, op, 0, n);
                } else {
                    // Stream one message per task out of the base node.
                    let (lo, hi) = shared.expanded.op_tasks[op as usize];
                    for t in lo..hi {
                        let owner = shared.abs(shared.expanded.tasks[t as usize].owner);
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
                let row = &shared.expanded.succs[from as usize];
                for (task, credits) in shared.credits.edges(row, from, lo, hi, xlo) {
                    self.pay(ctx, shared, from, task, credits, None);
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
            Msg::Complete { task } => {
                ctx.set_stage(Stage::Recovery);
                if let Some(fr) = &shared.faults {
                    fr.journal.borrow_mut().record(task);
                }
            }
            Msg::RecoveryCheck { op, attempt } => {
                self.recovery_check(ctx, shared, op, attempt);
            }
            Msg::Retry { op, lo, hi, snapshot } => {
                self.handle_retry(ctx, shared, op, (lo, hi), snapshot);
            }
            Msg::ReplicaExec { task, attempt, owner, fallback } => {
                ctx.set_stage(Stage::Verify);
                self.handle_replica_exec(ctx, shared, task, attempt, owner, fallback);
            }
            Msg::ReplicaDone { task, attempt, owner, fallback } => {
                ctx.set_stage(Stage::Verify);
                ctx.charge(shared.config.cost.verify_digest);
                if fallback {
                    // The base's fallback execution is honest by
                    // construction: commit without a vote.
                    self.complete_task(ctx, shared, task);
                } else if ctx.node() == owner {
                    let digest = self.output_digest(shared, task, attempt, ctx.node());
                    self.record_vote(ctx, shared, task, attempt, digest);
                } else {
                    let digest = self.output_digest(shared, task, attempt, ctx.node());
                    ctx.send_control(
                        owner,
                        Msg::ReplicaDigest { task, attempt, digest },
                        shared.config.cost.digest_message_bytes,
                    );
                }
            }
            Msg::ReplicaDigest { task, attempt, digest } => {
                ctx.set_stage(Stage::Verify);
                ctx.charge(shared.config.cost.verify_vote);
                self.record_vote(ctx, shared, task, attempt, digest);
            }
        }
    }
}

impl<'p> RtNode<'p> {
    /// Node-0 coordinator: probe the completion journal for `op`. Fully
    /// journaled ops let their timer die; otherwise every unacknowledged
    /// task is re-issued to its responsible node against a snapshot of
    /// the journal, groups on confirmed-dead nodes are re-sharded onto a
    /// survivor once `attempt` exhausts the retry budget, and the timer
    /// re-arms with exponential backoff.
    fn recovery_check(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        op: u32,
        attempt: u32,
    ) {
        let Some(fr) = &shared.faults else { return };
        ctx.set_stage(Stage::Recovery);
        let check_start = ctx.now();
        ctx.charge(shared.config.cost.recovery_check);
        fr.stats.borrow_mut().recovery_checks += 1;
        let (lo, hi) = shared.expanded.op_tasks[op as usize];
        let mut retries = std::mem::take(&mut self.retries);
        retries.clear();
        let snapshot = {
            let journal = fr.journal.borrow();
            let mut reassigned = fr.reassigned.borrow_mut();
            let now = ctx.now();
            for t in lo..hi {
                if journal.order[t as usize] < journal.len {
                    continue;
                }
                let static_owner = shared.expanded.tasks[t as usize].owner;
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
                    if shared.expanded.replayed_ops[op as usize] {
                        shared.trace_stats.borrow_mut().invalidated += 1;
                    }
                    let mut reanalysis = shared.config.cost.logical_launch;
                    if let OpSafety::Dynamic { evals } = &shared.expanded.safety[op as usize] {
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
        self.retries = retries;
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
    /// edges, so `deps` covers them). Settlement flows through the
    /// per-edge credit dedup, so an edge is only ever paid once whether by
    /// message or by journal — and a task never starts before every
    /// producer committed.
    fn handle_retry(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        op: u32,
        (lo, hi): (u32, u32),
        snapshot: u32,
    ) {
        let Some(fr) = &shared.faults else { return };
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
            for (pos, &from) in shared.expanded.deps[task as usize].iter().enumerate() {
                if journal.order[from as usize] >= snapshot {
                    continue;
                }
                let edge = self.edge(shared, from, task, Some(pos));
                if self.state(shared, task).started || self.paid.contains(edge) {
                    continue;
                }
                let credits = shared.credits.edge_credits(from, task);
                self.pay(ctx, shared, from, task, credits, Some(pos));
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

    /// Recursive-halving scatter of slice descriptors (§5, Figure 3): the
    /// sender keeps the first half and forwards the second half to the
    /// owner of its first slice, until single slices expand locally.
    fn handle_slice_batch(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        shared: &Shared<'p>,
        op: u32,
        lo: u32,
        mut hi: u32,
    ) {
        let slices = &shared.expanded.dist[op as usize].slices;
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

/// SplitMix64 finalizer (the same mixer the fault schedule uses): the
/// modeled digest and payload-delta domains live in the executor,
/// independent of the plan's draw salts.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-(task, vote round) nonce for output-corruption draws: a re-run of
/// a quarantined task draws fresh corruption, so a corrupt replica does
/// not deterministically re-corrupt every round — which is what makes
/// the bounded re-run loop converge at any rate below certainty.
fn sdc_nonce(task: TaskRef, attempt: u32) -> u64 {
    ((attempt as u64) << 40) | task as u64
}

/// Nonzero bit-flip delta for an accepted corrupt payload on the
/// `(producer, consumer)` edge — deterministic, so validation-mode store
/// divergence replays exactly.
fn payload_delta(from: TaskRef, to: TaskRef) -> u64 {
    mix64(((from as u64) << 32) ^ (to as u64) ^ 0xFA1C) | 1
}

/// First floating-point field among `candidates` that `instance` holds —
/// the only fields validation-mode bit flips may land in (integer fields
/// double as topology pointers the interpreter dereferences).
fn float_field(instance: &PhysicalInstance, candidates: &[FieldId]) -> Option<FieldId> {
    candidates
        .iter()
        .copied()
        .find(|&f| {
            instance.has_field(f)
                && matches!(instance.store(f).kind(), FieldKind::F64 | FieldKind::F32)
        })
}

/// Whether this op travels as a compact slice descriptor without DCR.
fn distribution_is_compact(config: &RuntimeConfig, safety: &OpSafety) -> bool {
    config.idx && !matches!(safety, OpSafety::Sequential) && !config.tracing
}

/// Whether this op is carried as a compact index launch through issuance
/// and logical analysis.
fn issuance_is_compact(config: &RuntimeConfig, safety: &OpSafety) -> bool {
    config.idx && !matches!(safety, OpSafety::Sequential)
}

/// The analytically computed issuance/logical-analysis timeline:
/// per-op frontier plus its per-stage decomposition and (when tracing)
/// the corresponding structured events.
struct IssuanceTimeline {
    /// Time each op clears logical analysis.
    frontier: Vec<SimTime>,
    /// Total time spent in dynamic safety checks.
    dyn_total: SimTime,
    /// Per-stage decomposition of the timeline (issuance, logical,
    /// dynamic checks, and the distribution work the tracing-without-DCR
    /// expansion forces onto the issuing node).
    stage: StageTotals,
    /// One event per contiguous stage segment (only when `config.trace`).
    events: Vec<TraceEvent>,
}

impl IssuanceTimeline {
    /// Advance the timeline cursor `t` by `dur` attributed to `stage`,
    /// recording a trace event for the segment when requested.
    fn segment(&mut self, t: &mut SimTime, trace: bool, op: u32, stage: Stage, dur: SimTime) {
        if dur == SimTime::ZERO {
            return;
        }
        self.stage.add(stage, dur);
        if trace {
            self.events.push(TraceEvent {
                op,
                task: None,
                node: 0,
                stage,
                start: *t,
                duration: dur,
            });
        }
        *t += dur;
    }
}

/// Compute the issuance + logical-analysis frontier (identical on every
/// node under DCR; node 0's otherwise), decomposed by stage.
fn compute_frontier(
    program: &Program,
    expanded: &ExpandedProgram,
    config: &RuntimeConfig,
) -> IssuanceTimeline {
    let cost = &config.cost;
    let mut t = SimTime::ZERO;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut tl = IssuanceTimeline {
        frontier: Vec::with_capacity(program.ops.len()),
        dyn_total: SimTime::ZERO,
        stage: StageTotals::new(),
        events: Vec::new(),
    };
    for (i, op) in program.ops.iter().enumerate() {
        let launch = op.launch();
        let d = launch.domain.volume();
        let safety = &expanded.safety[i];
        let opi = i as u32;
        if config.dynamic_checks {
            if let OpSafety::Dynamic { evals } = safety {
                let check = cost.dyn_check_per_eval * *evals;
                tl.dyn_total += check;
                tl.segment(&mut t, config.trace, opi, Stage::DynamicChecks, check);
            }
        }
        // Two launches replay the same trace only if their full
        // analysis-relevant shape matches: the signature hashes the whole
        // domain (sparse point lists included) and every requirement's
        // privilege, reduction op and field list. Only tracing reads it.
        let traced = config.tracing && !seen.insert(launch_signature(launch, program));
        let per_task = if traced {
            cost.trace_replay_per_task
        } else {
            cost.logical_task
        };
        // Per-task charges for a traced repeat are replay work, not fresh
        // logical analysis — attribute them to their own stage.
        let logical_stage = if traced { Stage::TraceReplay } else { Stage::Logical };
        if issuance_is_compact(config, safety) {
            if config.dcr || !config.tracing {
                // Compact through issuance, logical analysis, and (under
                // DCR) distribution: O(1) per launch.
                tl.segment(&mut t, config.trace, opi, Stage::Issuance, cost.issue_launch);
                tl.segment(&mut t, config.trace, opi, Stage::Logical, cost.logical_launch);
            } else {
                // Tracing without DCR: the trace captures/replays
                // individual tasks, forcing expansion before distribution
                // (§6.2.1) — O(|D|) on node 0 despite the index launch.
                tl.segment(
                    &mut t,
                    config.trace,
                    opi,
                    Stage::Issuance,
                    cost.issue_launch + cost.issue_task * d,
                );
                tl.segment(
                    &mut t,
                    config.trace,
                    opi,
                    Stage::Distribution,
                    cost.distribute_point * d,
                );
                tl.segment(&mut t, config.trace, opi, logical_stage, per_task * d);
            }
        } else {
            tl.segment(&mut t, config.trace, opi, Stage::Issuance, cost.issue_task * d);
            tl.segment(&mut t, config.trace, opi, logical_stage, per_task * d);
        }
        tl.frontier.push(t);
    }
    tl
}

/// Assemble the per-session shared state: frontier, wait counts,
/// physical-analysis weights, trace pre-seed, audit counters. `base`/`t0`
/// place the session on the machine (`0`/`ZERO` on the legacy path —
/// every derived quantity is then byte-identical to the pre-service
/// executor). `faults` is the session's fault configuration and plan,
/// chosen by the caller because the plan differs between the paths: the
/// legacy path generates a plan over its own machine, the service hands
/// every session the machine-global plan.
pub(crate) fn build_shared<'p>(
    program: &'p Program,
    config: &RuntimeConfig,
    base: NodeId,
    t0: SimTime,
    expanded: ExpandedProgram,
    faults: Option<(FaultConfig, FaultPlan)>,
) -> Rc<Shared<'p>> {
    let issuance = compute_frontier(program, &expanded, config);

    let waits_init: Vec<u32> = (0..expanded.len())
        .map(|t| (expanded.deps[t].len() + expanded.copies[t].len()) as u32)
        .collect();
    let credits = CreditTable::build(&expanded, config.nodes);
    if config.audit {
        credits.audit(&expanded.succs, &waits_init);
    }
    let faults = faults.map(|(cfg, plan)| {
        FaultRuntime::new(cfg, plan, expanded.len(), EdgeSlots::build(&expanded, &credits))
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
    let compact_ops: Vec<bool> = expanded
        .safety
        .iter()
        .map(|s| !config.dcr && distribution_is_compact(config, s))
        .collect();

    let machine = MachineDesc::piz_daint(config.nodes);
    let trace = if config.trace {
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
        for m in &expanded.trace_marks {
            log.record(TraceEvent {
                op: m.op,
                task: None,
                node: 0,
                stage: Stage::TraceReplay,
                start: issuance.frontier[m.op as usize],
                duration: SimTime::ZERO,
            });
        }
        Some(RefCell::new(log))
    } else {
        None
    };
    let audit = if config.audit {
        let slices_per_op: Vec<usize> = expanded
            .dist
            .iter()
            .zip(&compact_ops)
            .map(|(d, &c)| if c { d.slices.len() } else { 0 })
            .collect();
        Some(RefCell::new(AuditData::sized(expanded.len(), &slices_per_op)))
    } else {
        None
    };
    let trace_stats = RefCell::new(expanded.trace_replay);
    // The SDC runtime exists when there is anything for it to observe:
    // scheduled corruption (even undefended — the escape counters are the
    // negative control's evidence) or an active replication policy.
    // Otherwise `None`, keeping every defense code path inert.
    let defense_on = config.replication.as_ref().is_some_and(|r| r.is_active());
    let corrupts = config.faults.as_ref().is_some_and(|f| f.corrupts());
    let sdc = if defense_on || corrupts {
        Some(SdcRuntime {
            policy: config.replication.clone().unwrap_or(ReplicationConfig::None),
            defense_on,
            stats: RefCell::new(SdcStats::default()),
            corrupt_edges: RefCell::new(HashSet::new()),
        })
    } else {
        None
    };
    Rc::new(Shared {
        program,
        expanded,
        config: config.clone(),
        machine,
        base,
        t0,
        frontier: issuance.frontier,
        issuance_stage: issuance.stage,
        waits_init,
        credits,
        phys_weight,
        compact_ops,
        store: RefCell::new(InstanceStore::new()),
        reduce_filled: RefCell::new(HashSet::new()),
        timing: RefCell::new(Timing {
            setup_done: SimTime::ZERO,
            last_done: SimTime::ZERO,
            tasks_done: 0,
        }),
        dynamic_check_time: issuance.dyn_total,
        trace,
        audit,
        faults,
        sdc,
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
            for (node, _) in &shared.expanded.dist[op_idx].groups {
                sim.inject(at, shared.abs(*node), Msg::InjectOp { op: op_idx as u32 });
            }
        } else {
            sim.inject(at, shared.base, Msg::DistributeOp { op: op_idx as u32 });
        }
        // Arm the coordinator's acknowledgement timer for every op: the
        // first probe fires one timeout after the op cleared issuance.
        if shared.faults.is_some() {
            sim.inject(
                at + ACK_TIMEOUT,
                shared.base,
                Msg::RecoveryCheck { op: op_idx as u32, attempt: 0 },
            );
        }
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

/// Simulator-side aggregates of one session, extracted before the shared
/// state is unwrapped: the whole machine's counters on the legacy path,
/// one lane's slice in service mode. All times are session-relative (the
/// caller subtracts `t0` where it applies).
pub(crate) struct SimAggregates {
    /// Latest busy instant of the session's nodes, crash-clamped,
    /// relative to the session's `t0`.
    pub(crate) makespan: SimTime,
    pub(crate) messages: u64,
    pub(crate) bytes: u64,
    pub(crate) traffic: StageTraffic,
    pub(crate) fault_counters: FaultCounters,
    /// Per-stage busy time of the session's nodes (issuance timeline not
    /// yet folded in).
    pub(crate) stage_busy: StageTotals,
    /// Sparse per-node stage rows, session-local node ids.
    pub(crate) node_stage_busy: Vec<(NodeId, StageTotals)>,
}

/// Assemble a [`RunReport`] from a finished session's shared state and
/// its simulator aggregates. Field-for-field the tail of the pre-service
/// `execute` — both paths now end here, which is what the n=1
/// transparency tier byte-compares.
pub(crate) fn finish_report(shared: Shared<'_>, agg: SimAggregates) -> RunReport {
    let t0 = shared.t0;
    let total_tasks = shared.expanded.len() as u64;
    let timing = shared.timing.into_inner();
    let setup_done = timing.setup_done.saturating_sub(t0);
    let store = if shared.config.mode == ExecutionMode::Validate {
        Some(shared.store.into_inner())
    } else {
        None
    };

    assert_eq!(
        timing.tasks_done, total_tasks,
        "deadlock or lost tasks: {} of {} completed",
        timing.tasks_done, total_tasks
    );

    let audit = shared.audit.map(|cell| {
        run_audits(
            &cell.into_inner(),
            &shared.waits_init,
            &shared.compact_ops,
            shared.faults.is_some(),
        )
    });

    // Fault schedule counts are scoped to the session's node range —
    // the whole machine on the legacy path.
    let lo = shared.base;
    let hi = shared.base + shared.config.nodes;
    let recovery = shared.faults.as_ref().map(|fr| {
        let mut r = fr.stats.borrow().clone();
        r.seed = fr.cfg.seed;
        r.crashes = fr
            .plan
            .crashes()
            .iter()
            .filter(|&&(n, _)| n >= lo && n < hi)
            .count() as u64;
        r.slow_nodes = fr
            .plan
            .slow_nodes()
            .iter()
            .filter(|&&(n, _)| n >= lo && n < hi)
            .count() as u64;
        r.dropped = agg.fault_counters.dropped;
        r.duplicated = agg.fault_counters.duplicated;
        r.crash_dropped = agg.fault_counters.crash_dropped;
        r
    });
    let sdc = shared.sdc.as_ref().map(|s| s.stats.borrow().clone());

    // Fold the issuance/logical/dynamic-check timeline in once: under
    // DCR it is replicated identically on every node, so multiplying it
    // by the node count would misstate the work the paper attributes to
    // the pipeline front end.
    let mut stage_busy = agg.stage_busy;
    stage_busy.merge(&shared.issuance_stage);

    RunReport {
        makespan: agg.makespan,
        setup_done,
        elapsed: agg.makespan.saturating_sub(setup_done),
        tasks: total_tasks,
        messages: agg.messages,
        bytes: agg.bytes,
        dynamic_check_time: shared.dynamic_check_time,
        issuance_span: shared.frontier.last().copied().unwrap_or(SimTime::ZERO),
        stage_busy,
        node_stage_busy: agg.node_stage_busy,
        stage_messages: agg.traffic.messages,
        stage_bytes: agg.traffic.bytes,
        trace: shared.trace.map(RefCell::into_inner),
        audit,
        store,
        analysis_cache: shared.expanded.analysis_cache,
        trace_replay: shared.trace_stats.into_inner(),
        recovery,
        sdc,
    }
}

/// Execute `program` under `config`, returning the run report.
pub fn execute(program: &Program, config: &RuntimeConfig) -> RunReport {
    let expanded = expand_program(program, config);
    let total_tasks = expanded.len() as u64;
    let faults = config
        .faults
        .as_ref()
        .map(|fc| (fc.clone(), FaultPlan::generate(fc.seed, config.nodes, &fc.spec)));
    let shared = build_shared(program, config, 0, SimTime::ZERO, expanded, faults);

    let behaviors: Vec<RtNode<'_>> = (0..config.nodes)
        .map(|local| {
            let mut node = RtNode::unbound();
            node.bind(shared.clone(), local);
            node
        })
        .collect();
    let mut sim = Simulator::new(shared.machine.clone(), Network::aries(), behaviors);
    if let Some(fr) = &shared.faults {
        sim.set_fault_plan(fr.plan.clone());
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
    use crate::program::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};
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

    /// Transparency of the trace-replay stats surface: `RunReport`
    /// carries `trace_replay` counters, but `stage_json()` — the
    /// byte-compared observable in the equivalence tiers — must not
    /// mention them, and must be identical with replay on and off even
    /// when a trace actually captures and replays.
    #[test]
    fn trace_replay_stats_stay_out_of_stage_json() {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 4);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        for _ in 0..6 {
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
        }
        let program = b.build();
        let cfg_on = RuntimeConfig::scale(2);
        let on = execute(&program, &cfg_on);
        let off = execute(&program, &cfg_on.clone().with_trace_replay(false));
        assert!(
            on.trace_replay.captured > 0 && on.trace_replay.replayed > 0,
            "identical launches must capture and replay: {:?}",
            on.trace_replay
        );
        // The `trace_replay` *stage bucket* is part of the fixed stage
        // schema (present, zero simulated time, on and off alike); the
        // capture/replay *counters* must never leak into it.
        let json = on.stage_json().to_string();
        for counter in ["captured", "replayed", "invalidated", "analyses_skipped"] {
            assert!(
                !json.contains(counter),
                "trace-replay counter {counter:?} leaked into stage JSON: {json}"
            );
        }
        assert_eq!(json, off.stage_json().to_string(), "stage JSON differs with replay on/off");
        assert_eq!(on.makespan, off.makespan);
    }

    /// Transparency of the SDC surface, mirroring the trace-replay
    /// contract: `RunReport.sdc` carries the corruption/defense counters,
    /// but `stage_json()` — the byte-compared observable — must never
    /// mention them; and an *inactive* replication config must leave the
    /// whole report identical to one from a config without the field.
    #[test]
    fn sdc_stats_stay_out_of_stage_json() {
        use crate::sdc::ReplicationConfig;
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 8);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        for _ in 0..4 {
            b.index_launch(IndexLaunchDesc {
                task: t,
                domain: Domain::range(8),
                reqs: vec![RegionReq {
                    partition: p,
                    functor: ident,
                    privilege: Privilege::ReadWrite,
                    fields: vec![f],
                    tree: r.tree,
                    field_space: fs,
                }],
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::us(25)),
                shard: None,
            });
        }
        let program = b.build();

        let cfg = RuntimeConfig::scale(2)
            .with_corruption(7)
            .with_replication(ReplicationConfig::all(2));
        let on = execute(&program, &cfg);
        let sdc = on.sdc.clone().expect("a corrupting run must report sdc stats");
        assert!(
            sdc.replicated_tasks > 0 && sdc.replicas > 0,
            "replicate-all must have replicated something: {sdc:?}"
        );
        assert_eq!(sdc.escaped, 0, "replication covered every task: {sdc:?}");
        let json = on.stage_json().to_string();
        for counter in [
            "replicated_tasks",
            "replicas",
            "detected",
            "quarantined",
            "reruns",
            "escaped",
            "payload_detected",
            "payload_escaped",
        ] {
            assert!(
                !json.contains(counter),
                "sdc counter {counter:?} leaked into stage JSON: {json}"
            );
        }

        let plain = execute(&program, &RuntimeConfig::scale(2));
        let inert =
            execute(&program, &RuntimeConfig::scale(2).with_replication(ReplicationConfig::None));
        assert!(inert.sdc.is_none(), "an inactive policy must not create the sdc runtime");
        assert_eq!(plain.stage_json().to_string(), inert.stage_json().to_string());
        assert_eq!(plain.makespan, inert.makespan);
        assert_eq!(plain.messages, inert.messages);
        assert_eq!(plain.bytes, inert.bytes);
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
