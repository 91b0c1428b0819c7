//! Silent-data-corruption defense: replication policies, counters, and
//! the executor layer that runs them.
//!
//! Crashes and dropped messages *announce themselves* — a crashed node
//! stops answering, a dropped message times out. Corruption doesn't: a
//! flipped bit in a task output propagates silently into every
//! downstream consumer. Following the selective-replication design of
//! *Protecting Futures against Silent Data Corruption* (see PAPERS.md),
//! the defense executes selected tasks on `k` nodes, digests each output
//! ([`PhysicalInstance::digest`](il_region::PhysicalInstance::digest)),
//! and commits a result only when every replica's digest agrees;
//! divergent votes quarantine the result and re-run the task in a fresh
//! vote round.
//!
//! Which tasks get replicated — and at what `k` — is a policy decision
//! with a real cost (k× execution plus digest/vote overhead, visible
//! under `Stage::Verify`). [`ReplicationConfig`] is the policy: plain
//! data carried in [`RuntimeConfig`] (and
//! per-tenant in `ServiceConfig`), covering the none / flagged-ops /
//! criticality-threshold / all spectrum, and asked per task through
//! [`ReplicationConfig::replicas`].
//!
//! The executor layer is absent — `None` on its shared state and on every
//! node — unless the fault plan schedules corruption or the policy can
//! replicate.

use crate::config::{ExecutionMode, RuntimeConfig};
use crate::depgraph::TaskRef;
use crate::exec::{exec_on_gpu, Ctx, Msg, RtNode, Shared};
use crate::recovery::{FaultRuntime, ACK_TIMEOUT, MAX_RETRIES};
use il_machine::{NodeId, SimTime, Stage};
use il_region::{FieldId, FieldKind, PhysicalInstance, Privilege};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Which tasks execute on several nodes with a digest vote, and how many.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicationConfig {
    /// Never replicate: every task runs once, corruption escapes
    /// undetected. The explicit-off policy the negative-control tests
    /// run under.
    None,
    /// Replicate only tasks of explicitly flagged operations — the
    /// application knows which launches produce data it cannot afford
    /// to lose silently.
    Flagged {
        /// Operation indices (issue order) to protect.
        ops: Vec<u32>,
        /// Total executions per flagged task.
        k: usize,
    },
    /// Cost-model-driven selection: replicate a task when its modeled
    /// execution cost reaches `min_cost`. Expensive tasks are the ones
    /// whose corrupted results poison the most downstream work per
    /// flipped bit; cheap tasks are cheaper to lose and re-derive than
    /// to triple-run.
    Criticality {
        /// Minimum modeled task cost that triggers replication.
        min_cost: SimTime,
        /// Total executions per selected task.
        k: usize,
    },
    /// Replicate every task `k` ways: maximum protection, k× execution
    /// cost.
    All {
        /// Total executions per task.
        k: usize,
    },
}

impl ReplicationConfig {
    /// Replicate every task `k` ways.
    pub fn all(k: usize) -> Self {
        ReplicationConfig::All { k }
    }

    /// Replicate tasks whose modeled cost reaches `min_cost`, `k` ways.
    pub fn critical(min_cost: SimTime, k: usize) -> Self {
        ReplicationConfig::Criticality { min_cost, k }
    }

    /// Replicate tasks of the flagged operations, `k` ways.
    pub fn flagged(ops: Vec<u32>, k: usize) -> Self {
        ReplicationConfig::Flagged { ops, k }
    }

    /// Whether this configuration can ever replicate a task.
    pub fn is_active(&self) -> bool {
        match self {
            ReplicationConfig::None => false,
            ReplicationConfig::Flagged { ops, k } => !ops.is_empty() && *k >= 2,
            ReplicationConfig::Criticality { k, .. } => *k >= 2,
            ReplicationConfig::All { k } => *k >= 2,
        }
    }

    /// Total executions (primary included) for a task of operation `op`
    /// whose modeled execution cost is `task_cost`: 1 means no
    /// replication, `k >= 2` means `k - 1` extra replica executions plus
    /// a digest vote before the result commits. A selected task's `k`
    /// is clamped to at least 1.
    pub fn replicas(&self, op: u32, task_cost: SimTime) -> usize {
        let (selected, k) = match self {
            ReplicationConfig::None => return 1,
            ReplicationConfig::Flagged { ops, k } => (ops.contains(&op), *k),
            ReplicationConfig::Criticality { min_cost, k } => (task_cost >= *min_cost, *k),
            ReplicationConfig::All { k } => (true, *k),
        };
        if selected {
            k.max(1)
        } else {
            1
        }
    }
}

/// Counters of silent-data-corruption activity and defense during a run,
/// reported in [`RunReport::sdc`](crate::RunReport::sdc).
///
/// Like the host-side cache counters, these are deliberately excluded
/// from `stage_json`, so a defense-off run's observable report stays
/// byte-identical whether or not the subsystem exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SdcStats {
    /// Tasks the policy selected for replicated execution (k >= 2).
    pub replicated_tasks: u64,
    /// Extra (non-primary) replica executions performed.
    pub replicas: u64,
    /// Divergent digest votes: corruption detected before commit.
    pub detected: u64,
    /// Results quarantined after a divergent vote (never committed).
    pub quarantined: u64,
    /// Re-executions triggered by quarantined results.
    pub reruns: u64,
    /// Corrupted task outputs that committed unverified (k = 1) — the
    /// damage the defense exists to prevent. Zero whenever replication
    /// covers the corrupted tasks.
    pub escaped: u64,
    /// Corrupted message payloads detected at the receiver (defense on)
    /// and re-delivered clean.
    pub payload_detected: u64,
    /// Corrupted message payloads accepted by the receiver (defense off).
    pub payload_escaped: u64,
}

/// Session-wide state of the defense. The per-(node, round) corruption
/// deltas of the `corrupt_*` draws on [`FaultPlan`](il_machine::FaultPlan)
/// are nonzero and pairwise distinct (locked by a plan-level test), so a
/// unanimous vote *proves* every replica executed clean — which is what
/// makes "zero escapes under any active policy covering the corrupted
/// tasks" a theorem, not a probability.
pub(crate) struct SdcRuntime {
    /// Replication policy ([`ReplicationConfig::None`] when corruption
    /// is scheduled with no defense configured — the negative control).
    /// Inactive means corruption escapes: task-output flips commit
    /// unverified, payload flips are accepted by receivers.
    policy: ReplicationConfig,
    stats: RefCell<SdcStats>,
    /// `(producer, consumer)` credit edges whose corrupted payload a
    /// receiver accepted (defense off): validation mode flips a bit in
    /// the copied data when the consumer materializes it.
    corrupt_edges: RefCell<HashSet<(TaskRef, TaskRef)>>,
}

impl SdcRuntime {
    /// The defense state under `config`, present when there is anything to
    /// observe: an active policy, or scheduled corruption even undefended
    /// (the escape counters are the negative control's evidence).
    pub(crate) fn new(config: &RuntimeConfig) -> Option<SdcRuntime> {
        let policy = config.replication.clone().unwrap_or(ReplicationConfig::None);
        let corrupts = config.faults.as_ref().is_some_and(|f| f.corrupts());
        (policy.is_active() || corrupts).then(|| SdcRuntime {
            policy,
            stats: RefCell::new(SdcStats::default()),
            corrupt_edges: RefCell::new(HashSet::new()),
        })
    }

    /// The session's counters.
    pub(crate) fn stats(&self) -> SdcStats {
        self.stats.borrow().clone()
    }
}

/// Per-node state of the defense: the open digest votes this node owns,
/// keyed by `(task, round)` → (expected vote count, digests so far).
#[derive(Default)]
pub(crate) struct SdcNode {
    votes: HashMap<(TaskRef, u32), (usize, Vec<u64>)>,
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
    let float = |f| matches!(instance.store(f).kind(), FieldKind::F64 | FieldKind::F32);
    candidates.iter().copied().find(|&f| instance.has_field(f) && float(f))
}

/// Digest the output `node`'s execution of `task` produced in vote round
/// `attempt`. Models the content checksum
/// ([`il_region::PhysicalInstance::digest`] is the real-data analogue):
/// clean executions of the same task agree exactly, while a corrupt
/// node's firing draw XORs in its nonzero per-(node, round) delta — so no
/// corrupt replica ever collides with a clean one, or with another
/// corrupt one.
fn output_digest(shared: &Shared<'_>, task: TaskRef, attempt: u32, node: NodeId) -> u64 {
    let plan = shared.recovery.as_ref().map(FaultRuntime::plan);
    let clean = mix64((task as u64) ^ plan.map_or(0, |p| p.seed()).rotate_left(32));
    match plan.and_then(|p| p.corrupt_task_output(node, sdc_nonce(task, attempt))) {
        Some(delta) => clean ^ delta,
        None => clean,
    }
}

impl<'p> RtNode<'p> {
    /// The replica nodes the policy recruits for `task` when it executes
    /// on `exec_local`: the next `k - 1` distinct never-crashing nodes in
    /// rotation. Deterministic in (task, node), so the escape check at
    /// completion recomputes the same answer. Empty when the task is
    /// unreplicated — or when the session has no other usable node, in
    /// which case the task falls back to unverified execution.
    fn replica_buddies(&self, shared: &Shared<'_>, task: TaskRef, exec_local: NodeId) -> Vec<NodeId> {
        let Some(sdc) = &shared.sdc else { return Vec::new() };
        let op = shared.tasks.op(task);
        let launch = shared.program.ops[op as usize].launch();
        let k = sdc.policy.replicas(op, launch.cost.at(shared.tasks.point(shared.program, task)));
        if k <= 1 {
            return Vec::new();
        }
        let nodes = shared.config.nodes;
        let plan = shared.recovery.as_ref().map(FaultRuntime::plan);
        (1..nodes)
            .map(|step| (exec_local + step) % nodes)
            .filter(|&candidate| !plan.is_some_and(|p| p.ever_crashes(shared.abs(candidate))))
            .take(k - 1)
            .collect()
    }

    /// `task` (vote round `attempt`) started here and finishes at `done`:
    /// if the policy replicates it, recruit its buddy nodes and defer
    /// completion to the digest vote. False if it is unreplicated.
    pub(crate) fn recruit_replicas(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        done: SimTime,
    ) -> bool {
        let buddies = self.replica_buddies(shared, task, shared.local(ctx.node()));
        if buddies.is_empty() {
            return false;
        }
        let sdc = shared.sdc.as_ref().expect("buddies imply an active policy");
        let mut stats = sdc.stats.borrow_mut();
        stats.replicated_tasks += u64::from(attempt == 0);
        stats.replicas += buddies.len() as u64;
        drop(stats);
        let node = self.sdc.as_mut().expect("the defense runs on every node");
        node.votes.insert((task, attempt), (1 + buddies.len(), Vec::new()));
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
        true
    }

    /// Record one digest vote for `(task, attempt)`. When the last vote
    /// lands: a unanimous vote commits (agreement proves clean — the
    /// corruption deltas are distinct); a divergent vote quarantines the
    /// result and re-runs the task, bounded by the retry budget, after
    /// which a final fallback execution on the corruption-exempt session
    /// base commits honest-by-construction.
    fn record_vote(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        digest: u64,
    ) {
        let Some(node) = &mut self.sdc else { return };
        let Some((expected, votes)) = node.votes.get_mut(&(task, attempt)) else {
            // Vote already decided, or state from before a crash re-shard
            // — a stale digest is harmless.
            return;
        };
        votes.push(digest);
        if votes.len() < *expected {
            return;
        }
        let (_, votes) = node.votes.remove(&(task, attempt)).expect("entry checked above");
        let sdc = shared.sdc.as_ref().expect("a vote implies the sdc runtime");
        if votes.iter().all(|&d| d == votes[0]) {
            self.complete_task(ctx, shared, task);
            return;
        }
        let mut stats = sdc.stats.borrow_mut();
        stats.detected += 1;
        stats.quarantined += 1;
        stats.reruns += 1;
        drop(stats);
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
    pub(crate) fn handle_replica_exec(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        owner: NodeId,
        fallback: bool,
    ) {
        ctx.set_stage(Stage::Verify);
        let done = exec_on_gpu(ctx, shared, task, Stage::Verify);
        ctx.send_self_at(done, Msg::ReplicaDone { task, attempt, owner, fallback });
    }

    /// An execution of `task` finished here: digest it into the vote `owner`
    /// runs — or, for the base's fallback (honest by construction), commit.
    pub(crate) fn handle_replica_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        owner: NodeId,
        fallback: bool,
    ) {
        ctx.set_stage(Stage::Verify);
        ctx.charge(shared.config.cost.verify_digest);
        if fallback {
            self.complete_task(ctx, shared, task);
            return;
        }
        let digest = output_digest(shared, task, attempt, ctx.node());
        if ctx.node() == owner {
            self.record_vote(ctx, shared, task, attempt, digest);
        } else {
            ctx.send_control(
                owner,
                Msg::ReplicaDigest { task, attempt, digest },
                shared.config.cost.digest_message_bytes,
            );
        }
    }

    /// A replica's output digest reaching the vote owner.
    pub(crate) fn handle_replica_digest(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        task: TaskRef,
        attempt: u32,
        digest: u64,
    ) {
        ctx.set_stage(Stage::Verify);
        ctx.charge(shared.config.cost.verify_vote);
        self.record_vote(ctx, shared, task, attempt, digest);
    }

    /// `task` commits on machine node `node`: an unreplicated run on a
    /// corrupt node may have flipped its output — an escape, counted and in
    /// validation mode landed in the store. Replicated commits never escape
    /// (a unanimous vote proved them clean; the base fallback is exempt).
    pub(crate) fn check_escape(&self, shared: &Shared<'p>, task: TaskRef, node: NodeId) {
        let (Some(sdc), Some(fr)) = (&shared.sdc, &shared.recovery) else { return };
        if !self.replica_buddies(shared, task, shared.local(node)).is_empty() {
            return;
        }
        if let Some(delta) = fr.plan().corrupt_task_output(node, sdc_nonce(task, 0)) {
            sdc.stats.borrow_mut().escaped += 1;
            if shared.config.mode == ExecutionMode::Validate {
                corrupt_task_store(shared, task, delta);
            }
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
    pub(crate) fn handle_corrupt_payload(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &Shared<'p>,
        from: TaskRef,
        (lo, hi, xlo): (u32, u32, u32),
    ) -> bool {
        let Some(sdc) = &shared.sdc else { return false };
        if sdc.policy.is_active() {
            sdc.stats.borrow_mut().payload_detected += 1;
            let prev = ctx.stage();
            ctx.set_stage(Stage::Verify);
            ctx.charge(shared.config.cost.verify_digest);
            ctx.set_stage(prev);
            let delay = if shared.recovery.is_some() { ACK_TIMEOUT } else { SimTime::ZERO };
            ctx.send_self_at(ctx.now() + delay, Msg::Credits { from, lo, hi, xlo, corrupt: false });
            true
        } else {
            sdc.stats.borrow_mut().payload_escaped += 1;
            let row = &shared.tasks.succs(from)[lo as usize..hi as usize];
            sdc.corrupt_edges.borrow_mut().extend(row.iter().map(|&t| (from, t)));
            false
        }
    }

    /// Validation mode: an escaped payload corruption on the `(from, task)`
    /// edge flips bits of the data copied into `dst`.
    pub(crate) fn corrupt_copy(
        &self,
        shared: &Shared<'p>,
        dst: &mut PhysicalInstance,
        (from, task): (TaskRef, TaskRef),
        fields: &[FieldId],
    ) {
        let Some(sdc) = &shared.sdc else { return };
        if sdc.corrupt_edges.borrow().contains(&(from, task)) {
            if let Some(f) = float_field(dst, fields) {
                dst.corrupt_element(f, payload_delta(from, task));
            }
        }
    }
}

/// Validation mode: land an escaped output corruption in the real store
/// — flip bits of one element of the task's first written *data* field,
/// so a defense-off run's final store provably diverges from the
/// fault-free one. Only floating-point fields are targeted: integer
/// fields double as topology pointers in the golden apps (wire
/// endpoints, cell neighbors), and a flipped pointer crashes the
/// validation interpreter instead of modeling a silent wrong answer.
fn corrupt_task_store(shared: &Shared<'_>, task: TaskRef, delta: u64) {
    let launch = shared.program.ops[shared.tasks.op(task) as usize].launch();
    let mut store = shared.store.borrow_mut();
    for (req_idx, req) in launch.reqs.iter().enumerate() {
        if matches!(req.privilege, Privilege::Read) {
            continue;
        }
        let space = shared.tasks.subspaces(task)[req_idx];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_select_as_documented() {
        assert_eq!(ReplicationConfig::None.replicas(0, SimTime::ms(1)), 1);
        assert_eq!(ReplicationConfig::all(3).replicas(7, SimTime::ZERO), 3);
        assert_eq!(ReplicationConfig::all(0).replicas(7, SimTime::ZERO), 1);
        let flagged = ReplicationConfig::flagged(vec![2, 5], 2);
        assert_eq!(flagged.replicas(2, SimTime::ZERO), 2);
        assert_eq!(flagged.replicas(3, SimTime::ZERO), 1);
        assert_eq!(ReplicationConfig::flagged(vec![2], 0).replicas(2, SimTime::ZERO), 1);
        let crit = ReplicationConfig::critical(SimTime::us(100), 3);
        assert_eq!(crit.replicas(0, SimTime::us(99)), 1);
        assert_eq!(crit.replicas(0, SimTime::us(100)), 3);
        assert_eq!(ReplicationConfig::critical(SimTime::ZERO, 0).replicas(0, SimTime::ZERO), 1);
    }

    #[test]
    fn is_active_iff_some_task_can_replicate() {
        assert!(!ReplicationConfig::None.is_active());
        assert!(!ReplicationConfig::all(1).is_active());
        assert!(!ReplicationConfig::flagged(vec![], 2).is_active());
        assert!(ReplicationConfig::all(2).is_active());
        assert!(ReplicationConfig::critical(SimTime::ZERO, 2).is_active());
    }
}
