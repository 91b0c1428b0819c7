//! Multi-tenant service mode: a persistent scheduler over one shared
//! simulated machine.
//!
//! The paper's runtime executes one program and exits. Real Legion-style
//! deployments run as a *service*: tenants submit launch programs over
//! time, the runtime admits them onto the machine, and scheduling policy
//! decides who waits. This module adds that layer without touching the
//! per-program executor semantics:
//!
//! * The machine is space-shared into `slots` slots of `slot_nodes`
//!   nodes each. A session owns its slot's node range exclusively from
//!   admission to completion, so sessions never share a node clock and
//!   the flat α–β network charges no cross-traffic contention — each
//!   session's *relative* event schedule is identical to a solo run.
//! * Sessions are [`SessionSpec`]s (tenant, priority, arrival time,
//!   program, per-session [`RuntimeConfig`]). A bounded pending queue
//!   ([`ServiceConfig::queue_cap`]) provides backpressure: arrivals that
//!   find the queue full are rejected, never silently dropped.
//! * A [`SchedulingPolicy`] owns the pending queue and chooses which
//!   session gets a free slot at each admission round. Three built-ins:
//!   [`Fifo`] (arrival order), [`FairShare`] (least accumulated
//!   per-tenant service time), and [`AgedPriority`] (static priority
//!   plus one aging credit per round waited, so low-priority sessions
//!   cannot starve). Each keeps the index its order needs, so admitting
//!   a session costs O(1), O(tenants) and O(log pending) respectively —
//!   not a scan of everyone else who is waiting.
//! * Per-tenant warm state: a tenant resubmitting the same program shape
//!   reuses its analysis-cache verdicts and captured launch traces
//!   ([`crate::depgraph::WarmState`]), keyed by `(tenant, program
//!   fingerprint)` so tenants are isolated from each other. Warm state
//!   only affects host-side expansion statistics — never simulated time
//!   or results.
//!
//! **Transparency at n=1.** A service with one slot, one pending
//! session, and a fault config equal to the session's own produces a
//! [`RunReport`] byte-identical to [`crate::execute`]: same machine
//! size, same fault plan (the per-slot-base exemption is a no-op at
//! width 1 because plans never fault node 0), same injection order, and
//! the same `finish_report` tail. The service-mode test tier locks
//! this equivalence across the safety matrix and an oracle-corpus slice.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use il_machine::{
    FaultCounters, FaultPlan, LaneStats, MachineDesc, Network, NodeId, SimTime, Stage, StageTotals,
    StageTraffic, Simulator,
};

use crate::config::{FaultConfig, RuntimeConfig};
use crate::depgraph::{expand_program_warm, launch_signature, WarmState};
use crate::exec::{build_shared, event_budget, inject_session, Msg, RtNode, Shared};
use crate::program::Program;
use crate::report::{finish_report, RunReport, SimAggregates};
use crate::sdc::ReplicationConfig;

/// One session submitted to the service: a launch program plus the
/// tenant it belongs to, its static priority, and its arrival time on
/// the shared machine clock.
pub struct SessionSpec {
    /// Owning tenant (warm state and fair-share accounting key).
    pub tenant: u32,
    /// Static priority (higher = more urgent; only [`AgedPriority`]
    /// reads it).
    pub priority: u32,
    /// Arrival time on the machine clock.
    pub arrival: SimTime,
    /// The launch program to execute. `Rc` so a tenant can resubmit the
    /// same program across sessions (which is what makes warm state
    /// meaningful) without cloning the program body.
    pub program: Rc<Program>,
    /// Per-session runtime configuration. `config.nodes` must equal the
    /// service's slot width.
    pub config: RuntimeConfig,
}

/// Static shape of the service's machine and queue.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of slots (sessions that can run concurrently).
    pub slots: usize,
    /// Nodes per slot; every session's `config.nodes` must equal this.
    pub slot_nodes: usize,
    /// Pending-queue capacity. Arrivals beyond this are rejected
    /// (backpressure), recorded in [`ServiceReport::rejected`].
    pub queue_cap: usize,
    /// Machine-wide fault configuration. The plan is generated over the
    /// whole machine with per-slot base nodes exempted (each session
    /// keeps a live recovery coordinator, mirroring the single-machine
    /// invariant that node 0 never crashes — and, since PR 9, that slot
    /// bases never corrupt either). For n=1 transparency pass the same
    /// config the session itself carries.
    pub faults: Option<FaultConfig>,
    /// Per-tenant SDC replication overrides, `(tenant, policy)`: at
    /// admission, a session whose tenant appears here runs under that
    /// replication policy instead of whatever its own config carries.
    /// This is how operators sell "verified execution" as a per-tenant
    /// service tier without tenants editing their programs. Tenants not
    /// listed keep their submitted config untouched.
    pub replication_overrides: Vec<(u32, ReplicationConfig)>,
}

/// A pending session as held by a [`SchedulingPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct PendingView {
    /// Index into the submission slice.
    pub submit_idx: usize,
    /// Owning tenant.
    pub tenant: u32,
    /// Static priority.
    pub priority: u32,
    /// Arrival time.
    pub arrival: SimTime,
    /// The service's admission-round counter when the session was
    /// ingested. Every pending session ages by one exactly when that
    /// counter advances, so at round `r` it has sat out
    /// `r - enqueued_round` rounds — nothing has to sweep the queue to
    /// keep a per-session count (invariant (a) of DESIGN.md §12.2).
    pub enqueued_round: u64,
}

/// Admission-order policy. The policy *owns* the pending queue: the
/// service hands it each ingested session once ([`enqueue`], in
/// `(arrival, submit_idx)` order) and asks it for the next session to
/// put on a free slot ([`admit`]), so a policy can keep whatever index
/// makes its choice cheap instead of re-scanning a snapshot of the whole
/// queue per admission.
///
/// The policy only ever reorders *admission*; it cannot change what any
/// session computes. Per-session reports are `t0`-relative and sessions
/// are node-disjoint, so computed data is policy-independent by
/// construction (locked by the scheduler-equivalence tests).
///
/// [`enqueue`]: SchedulingPolicy::enqueue
/// [`admit`]: SchedulingPolicy::admit
pub trait SchedulingPolicy {
    /// Human-readable policy name (report and bench labels).
    fn name(&self) -> &'static str;
    /// Take ownership of a newly ingested session. Calls arrive in
    /// non-decreasing `(arrival, submit_idx)` order.
    fn enqueue(&mut self, session: PendingView);
    /// Remove and return the session to admit to a free slot at `now`,
    /// or `None` to leave the slot idle this round.
    fn admit(&mut self, now: SimTime) -> Option<PendingView>;
    /// Sessions currently held (what backpressure counts against
    /// [`ServiceConfig::queue_cap`]). Zero between [`Service::run`]s.
    fn pending(&self) -> usize;
    /// Hook: `session` was admitted at `now`.
    fn on_admit(&mut self, _tenant: u32, _now: SimTime) {}
    /// Hook: a session of `tenant` finished, having occupied its slot
    /// for `service_time`.
    fn on_complete(&mut self, _tenant: u32, _service_time: SimTime) {}
}

/// First-come, first-served: always admit the earliest arrival
/// (submission order on ties) — the head of the enqueue order. O(1).
#[derive(Default)]
pub struct Fifo {
    queue: VecDeque<PendingView>,
}

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn enqueue(&mut self, session: PendingView) {
        self.queue.push_back(session);
    }

    fn admit(&mut self, _now: SimTime) -> Option<PendingView> {
        self.queue.pop_front()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Fair share by tenant: admit the pending session whose tenant has the
/// least accumulated service time (sum of completed sessions' slot
/// occupancy), breaking ties by arrival then submission order. A tenant
/// that monopolized the machine early accrues debt and yields to light
/// tenants, which is what caps tail latency under skewed mixes.
///
/// `used` is one number per tenant and sessions are enqueued in
/// `(arrival, submit_idx)` order, so the minimum of `(used[tenant],
/// arrival, submit_idx)` over the whole queue is always the head of some
/// tenant's FIFO (invariant (c) of DESIGN.md §12.2): admission compares
/// one head per tenant with work, O(tenants), and `on_complete` re-keys
/// a whole tenant by changing one number.
#[derive(Default)]
pub struct FairShare {
    /// Every tenant seen so far, sorted by tenant id. Accumulated
    /// service persists across [`Service::run`] calls; the FIFOs drain
    /// by the end of each.
    tenants: Vec<TenantShare>,
    pending: usize,
}

struct TenantShare {
    tenant: u32,
    used: u64,
    queue: VecDeque<PendingView>,
}

impl FairShare {
    fn share(&mut self, tenant: u32) -> &mut TenantShare {
        let at = match self.tenants.binary_search_by_key(&tenant, |t| t.tenant) {
            Ok(at) => at,
            Err(at) => {
                self.tenants.insert(at, TenantShare { tenant, used: 0, queue: VecDeque::new() });
                at
            }
        };
        &mut self.tenants[at]
    }
}

impl SchedulingPolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn enqueue(&mut self, session: PendingView) {
        self.share(session.tenant).queue.push_back(session);
        self.pending += 1;
    }

    fn admit(&mut self, _now: SimTime) -> Option<PendingView> {
        let next = self
            .tenants
            .iter_mut()
            .filter(|t| !t.queue.is_empty())
            .min_by_key(|t| (t.used, t.queue[0].arrival, t.queue[0].submit_idx))?;
        self.pending -= 1;
        next.queue.pop_front()
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn on_complete(&mut self, tenant: u32, service_time: SimTime) {
        self.share(tenant).used += service_time.0;
    }
}

/// Strict priority with aging: admit the pending session with the
/// highest `priority + rounds waited`, ties broken by arrival then
/// submission order. Every round a session sits out adds one credit, so
/// any fixed priority gap closes in finitely many rounds — no
/// starvation (locked by the scheduler property tests).
///
/// Rounds waited is `round - enqueued_round` with `round` common to
/// every candidate, so the order is that of the *static* key
/// `priority - enqueued_round` (invariant (b) of DESIGN.md §12.2): one
/// ordered map whose greatest key is next, no re-keying as sessions
/// age, O(log pending) per admission.
#[derive(Default)]
pub struct AgedPriority {
    queue: BTreeMap<(i64, Reverse<SimTime>, Reverse<usize>), PendingView>,
}

impl SchedulingPolicy for AgedPriority {
    fn name(&self) -> &'static str {
        "aged-priority"
    }

    fn enqueue(&mut self, p: PendingView) {
        let score = p.priority as i64 - p.enqueued_round as i64;
        self.queue.insert((score, Reverse(p.arrival), Reverse(p.submit_idx)), p);
    }

    fn admit(&mut self, _now: SimTime) -> Option<PendingView> {
        self.queue.pop_last().map(|(_, p)| p)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Construct the built-in policy named `name` (`fifo`, `fair`,
/// `aged-priority`). Panics on an unknown name — callers surface the
/// valid set in their own usage text.
pub fn policy_by_name(name: &str) -> Box<dyn SchedulingPolicy> {
    match name {
        "fifo" => Box::new(Fifo::default()),
        "fair" => Box::new(FairShare::default()),
        "aged-priority" => Box::new(AgedPriority::default()),
        other => panic!("unknown scheduling policy `{other}` (fifo, fair, aged-priority)"),
    }
}

/// Outcome of one admitted session.
pub struct SessionReport {
    /// Index into the submission slice.
    pub submit_idx: usize,
    /// Owning tenant.
    pub tenant: u32,
    /// Static priority.
    pub priority: u32,
    /// Arrival time on the machine clock.
    pub arrival: SimTime,
    /// Admission time (the session's `t0`).
    pub admitted: SimTime,
    /// Completion time (`admitted + report.makespan`).
    pub finished: SimTime,
    /// Slot the session ran in.
    pub slot: usize,
    /// Admission rounds the session waited in the pending queue.
    pub wait_rounds: u64,
    /// The session's run report — byte-identical to what a solo
    /// [`crate::execute`] of the same program produces (fault-free), all
    /// times relative to `admitted`.
    pub report: RunReport,
}

impl SessionReport {
    /// End-to-end latency: completion minus arrival (queue wait plus
    /// service time).
    pub fn latency(&self) -> SimTime {
        self.finished.saturating_sub(self.arrival)
    }
}

/// Outcome of one [`Service::run`]: per-session reports (submission
/// order), rejected submissions, and whole-service aggregates.
pub struct ServiceReport {
    /// Reports of every admitted-and-finished session, in submission
    /// order.
    pub sessions: Vec<SessionReport>,
    /// Submission indices rejected by queue backpressure.
    pub rejected: Vec<usize>,
    /// Name of the scheduling policy that ran the service.
    pub policy: String,
    /// Machine time at which the last session finished.
    pub makespan: SimTime,
    /// Admission rounds executed.
    pub rounds: u64,
}

/// A session occupying a slot: its shared state plus the lane/clock
/// snapshots taken at admission, from which completion-time deltas
/// reconstruct solo-run aggregates.
struct Active<'p> {
    submit_idx: usize,
    tenant: u32,
    priority: u32,
    arrival: SimTime,
    shared: Rc<Shared<'p>>,
    admitted: SimTime,
    wait_rounds: u64,
    /// Lane counters at admission (lane stats are cumulative across the
    /// sessions a slot hosts; the session's own traffic is the delta).
    lane0: LaneStats,
    /// Per-node stage clocks at admission, indexed by local node id.
    stage0: Vec<StageTotals>,
}

/// Fingerprint of a program's launch shapes, keying per-tenant warm
/// state: two submissions warm each other only if every op's full
/// analysis-relevant signature matches, in order.
fn program_fingerprint(program: &Program) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    program.ops.len().hash(&mut h);
    for op in &program.ops {
        launch_signature(op.launch(), program).hash(&mut h);
    }
    h.finish()
}

/// The persistent service: machine shape, scheduling policy, and
/// per-tenant warm state that survives across sessions (and across
/// [`Service::run`] calls).
pub struct Service {
    cfg: ServiceConfig,
    policy: Box<dyn SchedulingPolicy>,
    /// Warm analysis state keyed by `(tenant, program fingerprint)`.
    /// Tenants never observe each other's entries — the per-tenant
    /// isolation regression locks this.
    warm: HashMap<(u32, u64), WarmState>,
}

impl Service {
    /// Create a service with the given machine shape and policy.
    pub fn new(cfg: ServiceConfig, policy: Box<dyn SchedulingPolicy>) -> Service {
        assert!(cfg.slots >= 1, "service needs at least one slot");
        assert!(cfg.slot_nodes >= 1, "slots need at least one node");
        assert!(cfg.queue_cap >= 1, "queue capacity must be positive");
        Service { cfg, policy, warm: HashMap::new() }
    }

    /// Warm entries currently held for `tenant` (observability for the
    /// isolation tests).
    pub fn warm_entries(&self, tenant: u32) -> usize {
        self.warm.keys().filter(|(t, _)| *t == tenant).count()
    }

    /// Run the service over a batch of submissions. Arrivals are
    /// processed in `(arrival, submission index)` order; the call
    /// returns when every admitted session has finished. Warm state
    /// persists on `self` for subsequent batches.
    pub fn run(&mut self, sessions: &[SessionSpec]) -> ServiceReport {
        let slots = self.cfg.slots;
        let slot_nodes = self.cfg.slot_nodes;
        let total = slots * slot_nodes;
        // The pending queue is per-run state living on a per-service
        // object: a run that ended normally drained it.
        assert_eq!(
            self.policy.pending(),
            0,
            "policy `{}` still holds sessions of an earlier run",
            self.policy.name()
        );
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(
                s.config.nodes, slot_nodes,
                "session {i}: config.nodes must equal the service slot width"
            );
        }

        let mut order: Vec<usize> = (0..sessions.len()).collect();
        order.sort_by_key(|&i| (sessions[i].arrival, i));

        let behaviors: Vec<RtNode<'_>> = (0..total).map(|_| RtNode::default()).collect();
        let mut sim = Simulator::new(MachineDesc::piz_daint(total), Network::aries(), behaviors);
        sim.enable_lanes((0..total).map(|n| (n / slot_nodes) as u32).collect(), slots);
        let plan = self.cfg.faults.as_ref().map(|fc| {
            FaultPlan::generate(fc.seed, total, &fc.spec)
                .with_exempt_nodes(|n| n % slot_nodes == 0)
        });
        if let Some(p) = &plan {
            sim.set_fault_plan(p.clone());
        }

        let slot_ready = |sim: &Simulator<Msg, RtNode<'_>>, slot: usize| -> SimTime {
            (slot * slot_nodes..(slot + 1) * slot_nodes)
                .map(|n| sim.node_busy_until(n))
                .max()
                .unwrap_or(SimTime::ZERO)
        };

        let mut active: Vec<Option<Active<'_>>> = (0..slots).map(|_| None).collect();
        let mut done: Vec<Option<SessionReport>> = (0..sessions.len()).map(|_| None).collect();
        let mut rejected: Vec<usize> = Vec::new();
        let mut next_arr = 0usize;
        let mut rounds = 0u64;
        let mut now = SimTime::ZERO;
        // Runaway guard: accumulated per-admission budgets, floored by
        // the machine-sized cap exactly like the single-program path.
        let mut budget: u64 = 0;
        let mut dispatched: u64 = 0;
        let floor = sim.default_event_cap();

        loop {
            // 1. Ingest arrivals due at or before `now`; reject on a
            //    full queue (backpressure).
            while next_arr < order.len() && sessions[order[next_arr]].arrival <= now {
                let i = order[next_arr];
                next_arr += 1;
                if self.policy.pending() >= self.cfg.queue_cap {
                    rejected.push(i);
                } else {
                    let s = &sessions[i];
                    self.policy.enqueue(PendingView {
                        submit_idx: i,
                        tenant: s.tenant,
                        priority: s.priority,
                        arrival: s.arrival,
                        enqueued_round: rounds,
                    });
                }
            }

            // 2. Finalize drained slots: a lane with zero outstanding
            //    events has nothing left in flight or queued.
            for s in 0..slots {
                if active[s].is_some() && sim.lane_outstanding(s) == 0 {
                    let a = active[s].take().unwrap();
                    let rep = finalize_session(&mut sim, plan.as_ref(), a, s, slot_nodes);
                    self.policy.on_complete(rep.tenant, rep.report.makespan);
                    let idx = rep.submit_idx;
                    done[idx] = Some(rep);
                }
            }

            // 3. Admission round: offer every currently-ready free slot
            //    to the policy.
            if self.policy.pending() > 0 {
                let mut admitted_any = false;
                while self.policy.pending() > 0 {
                    let Some(s) = (0..slots)
                        .find(|&s| active[s].is_none() && slot_ready(&sim, s) <= now)
                    else {
                        break;
                    };
                    let Some(next) = self.policy.admit(now) else { break };
                    let i = next.submit_idx;
                    let spec = &sessions[i];
                    self.policy.on_admit(spec.tenant, now);
                    admitted_any = true;

                    // Admit session `i` on slot `s` at `t0 = now`,
                    // applying the tenant's replication tier (if any)
                    // over its submitted config.
                    let base = s * slot_nodes;
                    let mut session_cfg = spec.config.clone();
                    if let Some((_, r)) = self
                        .cfg
                        .replication_overrides
                        .iter()
                        .find(|(t, _)| *t == spec.tenant)
                    {
                        session_cfg.replication = Some(r.clone());
                    }
                    let warm = self
                        .warm
                        .entry((spec.tenant, program_fingerprint(&spec.program)))
                        .or_default();
                    let expanded = expand_program_warm(&spec.program, &session_cfg, Some(warm));
                    let total_tasks = expanded.len() as u64;
                    let faults = plan.clone();
                    budget = budget.saturating_add(event_budget(
                        total_tasks,
                        spec.program.ops.len(),
                        slot_nodes,
                        faults.is_some(),
                    ));
                    let shared =
                        build_shared(&spec.program, &session_cfg, base, now, expanded, faults);
                    for local in 0..slot_nodes {
                        sim.node_mut(base + local).bind(shared.clone(), local);
                    }
                    inject_session(&mut sim, &shared, now);
                    active[s] = Some(Active {
                        submit_idx: i,
                        tenant: spec.tenant,
                        priority: spec.priority,
                        arrival: spec.arrival,
                        shared,
                        admitted: now,
                        wait_rounds: rounds - next.enqueued_round,
                        lane0: sim.lane_stats(s),
                        stage0: (base..base + slot_nodes)
                            .map(|n| sim.node_stage(n))
                            .collect(),
                    });
                }
                if admitted_any {
                    rounds += 1;
                }
            }

            // 4. Advance: the next instant is the earliest of the event
            //    queue, the next arrival, and (when sessions wait) the
            //    next free slot becoming ready.
            let t_event = sim.peek_time();
            let t_arr = if next_arr < order.len() {
                Some(sessions[order[next_arr]].arrival)
            } else {
                None
            };
            let t_slot = if self.policy.pending() == 0 {
                None
            } else {
                (0..slots)
                    .filter(|&s| active[s].is_none())
                    .map(|s| slot_ready(&sim, s))
                    .filter(|&t| t > now)
                    .min()
            };
            let next = [t_event, t_arr, t_slot].into_iter().flatten().min();
            match next {
                Some(t) if t_event == Some(t) => {
                    // Events first on ties: injected work at `t` must run
                    // before `t`-time admissions enqueue behind it.
                    match sim.try_step() {
                        Ok(true) => {
                            dispatched += 1;
                            assert!(
                                dispatched <= budget.max(floor),
                                "service event budget exceeded: {dispatched} events \
                                 (protocol runaway)"
                            );
                            now = now.max(sim.now());
                        }
                        Ok(false) => unreachable!("peeked event vanished"),
                        Err(err) => panic!("{err}"),
                    }
                }
                Some(t) => now = t,
                None => {
                    assert!(
                        self.policy.pending() == 0,
                        "scheduling stalled: policy `{}` held {} pending session(s) \
                         with free slots and an idle machine",
                        self.policy.name(),
                        self.policy.pending()
                    );
                    break;
                }
            }
        }

        // Drain check once more: the loop exits when the event queue is
        // empty, which can leave the final sessions' lanes drained but
        // unfinalized.
        for s in 0..slots {
            if let Some(a) = active[s].take() {
                assert_eq!(sim.lane_outstanding(s), 0, "service ended with slot {s} busy");
                let rep = finalize_session(&mut sim, plan.as_ref(), a, s, slot_nodes);
                self.policy.on_complete(rep.tenant, rep.report.makespan);
                let idx = rep.submit_idx;
                done[idx] = Some(rep);
            }
        }

        let sessions_out: Vec<SessionReport> = done.into_iter().flatten().collect();
        let makespan = sessions_out
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        ServiceReport {
            sessions: sessions_out,
            rejected,
            policy: self.policy.name().to_string(),
            makespan,
            rounds,
        }
    }
}

/// Unbind a finished session's nodes and reconstruct its solo-run
/// aggregates from lane and node-clock deltas against the admission
/// snapshots (slot counters are cumulative across the sessions a slot
/// hosts). All times come out relative to the session's `t0`, which is
/// exactly the [`SimAggregates`] contract [`finish_report`] expects.
fn finalize_session<'p>(
    sim: &mut Simulator<Msg, RtNode<'p>>,
    plan: Option<&FaultPlan>,
    a: Active<'p>,
    slot: usize,
    slot_nodes: usize,
) -> SessionReport {
    let base = slot * slot_nodes;
    for n in base..base + slot_nodes {
        sim.node_mut(n).unbind();
    }
    let lane1 = sim.lane_stats(slot);
    let t0 = a.admitted;

    // Session makespan: latest crash-clamped busy instant of its nodes,
    // relative to t0. A node crashed in an earlier epoch clamps to zero
    // contribution, matching the solo simulator's crash clamp.
    let mut makespan = SimTime::ZERO;
    let mut stage_busy = StageTotals::default();
    let mut node_stage_busy: Vec<(NodeId, StageTotals)> = Vec::new();
    for (local, n) in (base..base + slot_nodes).enumerate() {
        let mut busy = sim.node_busy_until(n);
        if let Some(ct) = plan.and_then(|p| p.crash_time(n)) {
            busy = busy.min(ct);
        }
        makespan = makespan.max(busy.saturating_sub(t0));

        let cur = sim.node_stage(n);
        let mut row = StageTotals::default();
        for stage in Stage::ALL {
            let d = cur.get(stage).saturating_sub(a.stage0[local].get(stage));
            if d != SimTime::ZERO {
                row.add(stage, d);
            }
        }
        stage_busy.merge(&row);
        if row.sum() != SimTime::ZERO {
            node_stage_busy.push((local, row));
        }
    }

    let mut traffic = StageTraffic::default();
    for i in 0..Stage::COUNT {
        traffic.messages[i] = lane1.traffic.messages[i] - a.lane0.traffic.messages[i];
        traffic.bytes[i] = lane1.traffic.bytes[i] - a.lane0.traffic.bytes[i];
    }
    let agg = SimAggregates {
        makespan,
        messages: lane1.messages - a.lane0.messages,
        bytes: lane1.bytes - a.lane0.bytes,
        traffic,
        fault_counters: FaultCounters {
            dropped: lane1.faults.dropped - a.lane0.faults.dropped,
            duplicated: lane1.faults.duplicated - a.lane0.faults.duplicated,
            crash_dropped: lane1.faults.crash_dropped - a.lane0.faults.crash_dropped,
        },
        stage_busy,
        node_stage_busy,
    };

    let Active { submit_idx, tenant, priority, arrival, shared, admitted, wait_rounds, .. } = a;
    let shared = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("simulator retained shared state after unbind"));
    let report = finish_report(shared, agg);
    SessionReport {
        submit_idx,
        tenant,
        priority,
        arrival,
        admitted,
        finished: admitted + report.makespan,
        slot,
        wait_rounds,
        report,
    }
}
