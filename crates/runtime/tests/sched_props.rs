//! Scheduler property tier: whatever the policy, the service must
//! remain *work-conserving, starvation-free, and semantics-neutral*.
//!
//! * **Conservation** — every submitted session executes exactly once:
//!   the set of finished submit indices is exactly the submission set,
//!   and each session ran its full task count.
//! * **No starvation** — under [`FairShare`] a light tenant waits at
//!   most a couple of rounds behind a flooding tenant, and under
//!   [`AgedPriority`] a low-priority session closes any fixed priority
//!   gap in `gap + 1` rounds of aging — even against an adversarial
//!   stream that injects a fresh high-priority session every round.
//! * **Policy independence** — admission order changes *when* a session
//!   runs, never *what* it computes: per-session reports are identical
//!   across FIFO, fair-share, and aged-priority.
//! * **Index ≡ scan** — the built-in policies own an indexed pending
//!   queue; each admits exactly the session, after exactly the wait, that
//!   the scan-based policy it replaced picks from a snapshot of the whole
//!   queue. The scans live on here as the reference ([`RefFifo`],
//!   [`RefFair`], [`RefAged`]).

use il_analysis::ProjExpr;
use il_geometry::{Domain, DomainPoint};
use il_machine::SimTime;
use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc, Privilege};
use il_runtime::service::{AgedPriority, FairShare, PendingView, SchedulingPolicy};
use il_testkit::prop::{check_with, usizes, vec_of, Config};
use il_testkit::{prop_assert, prop_assert_eq};
use std::collections::HashMap;
use il_runtime::{
    policy_by_name, CostSpec, IndexLaunchDesc, Program, ProgramBuilder, RegionReq, RunReport,
    RuntimeConfig, Service, ServiceConfig, ServiceReport, SessionSpec,
};
use std::rc::Rc;

const NODES: usize = 2;
const WIDTH: usize = 4; // tasks per launch

/// A modeled-cost program of `launches` sequential read-write launches,
/// each `WIDTH` tasks of `task_us` microseconds.
fn modeled_program(launches: usize, task_us: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("v", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(4 * WIDTH as i64), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, WIDTH);
    let ident = b.identity_functor();
    let task = b.task_modeled("work");
    for _ in 0..launches {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(WIDTH as i64),
            reqs: vec![RegionReq {
                partition: blocks,
                functor: ident,
                privilege: Privilege::ReadWrite,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(task_us)),
            shard: None,
        });
    }
    b.build()
}

/// An aperiodic variant (opaque functor) so programs differ in shape,
/// not just length.
fn opaque_program(task_us: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("v", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(4 * WIDTH as i64), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, WIDTH);
    let task = b.task_modeled("rev");
    for functor in [
        b.identity_functor(),
        b.functor(ProjExpr::opaque(|p| DomainPoint::new1(WIDTH as i64 - 1 - p.x()))),
    ] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(WIDTH as i64),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(task_us)),
            shard: None,
        });
    }
    b.build()
}

fn fingerprint(r: &RunReport) -> String {
    format!(
        "makespan={:?} tasks={} messages={} bytes={} stages={}",
        r.makespan,
        r.tasks,
        r.messages,
        r.bytes,
        r.stage_json().to_string(),
    )
}

/// 12 sessions over 4 tenants, mixed lengths and shapes, staggered
/// arrivals. Returns the specs plus each session's expected task count.
fn workload() -> (Vec<SessionSpec>, Vec<u64>) {
    let mut sessions = Vec::new();
    let mut want_tasks = Vec::new();
    for i in 0..12usize {
        let (program, tasks) = if i % 3 == 2 {
            (opaque_program(10 + i as u64), 2 * WIDTH as u64)
        } else {
            let launches = 2 + i % 4;
            (modeled_program(launches, 20), (launches * WIDTH) as u64)
        };
        sessions.push(SessionSpec {
            tenant: (i % 4) as u32,
            priority: (i % 3) as u32,
            arrival: SimTime::us(15 * i as u64),
            program: Rc::new(program),
            config: RuntimeConfig::scale(NODES),
        });
        want_tasks.push(tasks);
    }
    (sessions, want_tasks)
}

fn run(sessions: &[SessionSpec], slots: usize, policy: &str) -> ServiceReport {
    let mut svc = Service::new(
        ServiceConfig {
            slots,
            slot_nodes: NODES,
            queue_cap: 64,
            faults: None,
            replication_overrides: vec![],
        },
        policy_by_name(policy),
    );
    svc.run(sessions)
}

/// Conservation: across all three policies, every submission executes
/// exactly once and to completion.
#[test]
fn every_submission_executes_exactly_once() {
    let (sessions, want_tasks) = workload();
    for policy in ["fifo", "fair", "aged-priority"] {
        let out = run(&sessions, 2, policy);
        assert!(out.rejected.is_empty(), "{policy}: workload fits the queue");
        assert_eq!(out.sessions.len(), sessions.len(), "{policy}: lost sessions");
        let mut seen: Vec<usize> = out.sessions.iter().map(|s| s.submit_idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sessions.len()).collect::<Vec<_>>(), "{policy}: duplicate or missing");
        for s in &out.sessions {
            assert_eq!(
                s.report.tasks, want_tasks[s.submit_idx],
                "{policy}: session {} ran a partial program",
                s.submit_idx
            );
            assert!(s.finished >= s.admitted && s.admitted >= s.arrival);
        }
    }
}

/// Fair share, end to end: tenant 0 floods ten sessions at time zero;
/// tenant 1 submits one. After tenant 0's first completion accrues
/// service time, tenant 1 must win the very next round — it waits at
/// most 2 rounds despite arriving behind the whole flood.
#[test]
fn fair_share_bounds_light_tenant_wait() {
    let mut sessions: Vec<SessionSpec> = (0..10)
        .map(|i| SessionSpec {
            tenant: 0,
            priority: 0,
            arrival: SimTime::ZERO,
            program: Rc::new(modeled_program(6, 30)),
            config: RuntimeConfig::scale(NODES),
        })
        .collect();
    sessions.push(SessionSpec {
        tenant: 1,
        priority: 0,
        arrival: SimTime::ZERO,
        program: Rc::new(modeled_program(2, 30)),
        config: RuntimeConfig::scale(NODES),
    });
    let light_idx = sessions.len() - 1;
    let out = run(&sessions, 1, "fair");
    let light = out
        .sessions
        .iter()
        .find(|s| s.submit_idx == light_idx)
        .expect("light session finished");
    assert!(
        light.wait_rounds <= 2,
        "fair share starved the light tenant: waited {} rounds",
        light.wait_rounds
    );
    // The flood itself is conserved, in arrival order among equals.
    assert_eq!(out.sessions.len(), sessions.len());
}

/// Aged priority, policy-level, against an adversary: every round a
/// fresh maximal-priority session arrives, so a static-priority policy
/// would starve the low-priority session forever. Aging must admit it
/// within `gap + 1` rounds.
#[test]
fn aged_priority_closes_any_fixed_gap() {
    let gap = 5u32;
    let mut policy = AgedPriority::default();
    let mut waited = 0u64;
    policy.enqueue(PendingView {
        submit_idx: 0,
        tenant: 0,
        priority: 0,
        arrival: SimTime::ZERO,
        enqueued_round: 0,
    });
    loop {
        // Adversarial fresh arrival: full gap, zero age. (The previous
        // round's was admitted, so the queue holds exactly these two.)
        policy.enqueue(PendingView {
            submit_idx: 1 + waited as usize,
            tenant: 1,
            priority: gap,
            arrival: SimTime::us(1 + waited),
            enqueued_round: waited,
        });
        let pick = policy.admit(SimTime::us(waited)).expect("policy must pick");
        if pick.submit_idx == 0 {
            break;
        }
        waited += 1;
        assert!(
            waited <= gap as u64 + 1,
            "aging failed to close a priority gap of {gap} within {} rounds",
            gap + 1
        );
    }
    // At `waited == gap` the scores tie and the earlier arrival wins,
    // so the gap closes in exactly `gap` rounds.
    assert_eq!(waited, gap as u64, "aging should admit exactly when credit matches the gap");
}

/// Fair share, policy-level, same adversary shape: a tenant with any
/// accumulated service time loses to a zero-usage tenant immediately —
/// the light tenant is picked on the first round it is visible.
#[test]
fn fair_share_prefers_unserved_tenants() {
    let mut policy = FairShare::default();
    policy.on_complete(0, SimTime::us(500));
    policy.enqueue(PendingView {
        submit_idx: 0,
        tenant: 0,
        priority: 0,
        arrival: SimTime::ZERO,
        enqueued_round: 0,
    });
    policy.enqueue(PendingView {
        submit_idx: 7,
        tenant: 1,
        priority: 0,
        arrival: SimTime::us(9),
        enqueued_round: 3,
    });
    let pick = policy.admit(SimTime::us(10)).map(|p| p.submit_idx);
    assert_eq!(pick, Some(7), "unserved tenant must win");
}

/// Policy independence: the three policies produce different schedules
/// (that is their point) but identical per-session computed data — the
/// scheduler cannot perturb what any session computes.
#[test]
fn per_session_reports_are_policy_independent() {
    let (sessions, _) = workload();
    let runs: Vec<ServiceReport> =
        ["fifo", "fair", "aged-priority"].iter().map(|p| run(&sessions, 2, p)).collect();
    let base = &runs[0];
    for other in &runs[1..] {
        assert_eq!(other.sessions.len(), base.sessions.len());
        for (a, b) in base.sessions.iter().zip(other.sessions.iter()) {
            assert_eq!(a.submit_idx, b.submit_idx);
            assert_eq!(
                fingerprint(&a.report),
                fingerprint(&b.report),
                "session {}: policy {} changed computed data vs {}",
                a.submit_idx,
                other.policy,
                base.policy
            );
        }
    }
    // Sanity: the policies did schedule differently somewhere (admission
    // or slot assignment), or the property above is vacuous.
    let schedule = |r: &ServiceReport| -> Vec<(usize, SimTime, usize)> {
        r.sessions.iter().map(|s| (s.submit_idx, s.admitted, s.slot)).collect()
    };
    assert!(
        runs[1..].iter().any(|r| schedule(r) != schedule(&runs[0])),
        "all policies produced the same schedule; workload exercises nothing"
    );
}

/// A pending session as the scan-based policies saw it: the service kept
/// the queue and counted each entry's rounds by sweeping it.
#[derive(Clone, Copy, Debug)]
struct RefView {
    submit_idx: usize,
    tenant: u32,
    priority: u32,
    arrival: SimTime,
    waited_rounds: u64,
}

/// The policy interface before the policies owned their queue: pick an
/// index into a snapshot of the pending queue (arrival order).
trait RefPolicy {
    fn pick(&mut self, pending: &[RefView], now: SimTime) -> Option<usize>;
    fn on_complete(&mut self, _tenant: u32, _service_time: SimTime) {}
}

#[derive(Default)]
struct RefFifo;

impl RefPolicy for RefFifo {
    fn pick(&mut self, pending: &[RefView], _now: SimTime) -> Option<usize> {
        if pending.is_empty() {
            None
        } else {
            Some(0)
        }
    }
}

#[derive(Default)]
struct RefFair {
    used: HashMap<u32, u64>,
}

impl RefPolicy for RefFair {
    fn pick(&mut self, pending: &[RefView], _now: SimTime) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| {
                (
                    self.used.get(&p.tenant).copied().unwrap_or(0),
                    p.arrival,
                    p.submit_idx,
                )
            })
            .map(|(i, _)| i)
    }

    fn on_complete(&mut self, tenant: u32, service_time: SimTime) {
        *self.used.entry(tenant).or_insert(0) += service_time.0;
    }
}

#[derive(Default)]
struct RefAged;

impl RefPolicy for RefAged {
    fn pick(&mut self, pending: &[RefView], _now: SimTime) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| {
                (
                    p.priority as u64 + p.waited_rounds,
                    std::cmp::Reverse(p.arrival),
                    std::cmp::Reverse(p.submit_idx),
                )
            })
            .map(|(i, _)| i)
    }
}

/// Differential: over random scripts of enqueue / round / admit /
/// complete, each indexed policy admits the same `submit_idx` sequence
/// with the same `wait_rounds` as its scan-based reference driven the
/// way `Service::run` used to drive it (snapshot, `pick`, `remove(k)`,
/// `waited += 1` sweep per round). Small value ranges force the ties
/// that matter: equal `used` (several tenants at zero, service times
/// from four values), equal aged score (priorities 0–7 against rounds
/// that advance by one), equal arrival (every third gap is zero).
#[test]
fn indexed_policies_admit_what_the_scan_would() {
    // One step = (kind, a, b); what `a` and `b` mean depends on the kind.
    let step = (usizes(0..8), usizes(0..12), usizes(0..8));
    check_with(
        Config::from_env("indexed_policies_admit_what_the_scan_would").with_cases(320),
        &(usizes(1..13), vec_of(step, 1..160)),
        |(tenants, script)| {
            let pairs: [(&str, Box<dyn RefPolicy>); 3] = [
                ("fifo", Box::new(RefFifo)),
                ("fair", Box::new(RefFair::default())),
                ("aged-priority", Box::new(RefAged)),
            ];
            for (name, mut reference) in pairs {
                let mut indexed = policy_by_name(name);
                let mut ref_pending: Vec<RefView> = Vec::new();
                // Enqueue order is `(arrival, submit_idx)` order, not
                // `submit_idx` order: indices ascend among equal
                // arrivals and descend from one arrival to the next.
                let (mut round, mut arrival, mut next_idx) = (0u64, 0u64, 1_000_000usize);
                // Drain at the end so every enqueued session is compared.
                let drain = std::iter::repeat(&(4usize, 0usize, 0usize)).take(script.len());
                for &(kind, a, b) in script.iter().chain(drain) {
                    let now = SimTime::us(arrival);
                    match kind {
                        0..=3 => {
                            if b % 3 > 0 {
                                arrival += (b % 3) as u64;
                                next_idx = next_idx / 1000 * 1000 - 1000;
                            }
                            let (tenant, priority) = ((a % tenants) as u32, b as u32);
                            indexed.enqueue(PendingView {
                                submit_idx: next_idx,
                                tenant,
                                priority,
                                arrival: SimTime::us(arrival),
                                enqueued_round: round,
                            });
                            ref_pending.push(RefView {
                                submit_idx: next_idx,
                                tenant,
                                priority,
                                arrival: SimTime::us(arrival),
                                waited_rounds: 0,
                            });
                            next_idx += 1;
                        }
                        4 | 5 => {
                            let want = reference.pick(&ref_pending, now).map(|k| {
                                let p = ref_pending.remove(k);
                                (p.submit_idx, p.waited_rounds)
                            });
                            let got = indexed
                                .admit(now)
                                .map(|p| (p.submit_idx, round - p.enqueued_round));
                            prop_assert_eq!(got, want, "{name}: (submit_idx, wait_rounds)");
                        }
                        6 => {
                            round += 1;
                            for p in &mut ref_pending {
                                p.waited_rounds += 1;
                            }
                        }
                        _ => {
                            let (tenant, service) =
                                ((a % tenants) as u32, SimTime::us(100 * (b % 4) as u64));
                            indexed.on_complete(tenant, service);
                            reference.on_complete(tenant, service);
                        }
                    }
                    prop_assert_eq!(indexed.pending(), ref_pending.len(), "{name}: pending()");
                }
                prop_assert!(ref_pending.is_empty(), "{name}: drain left sessions behind");
            }
            Ok(())
        },
    );
}

/// A policy that takes sessions and never gives one back.
struct Hoarder(usize);

impl SchedulingPolicy for Hoarder {
    fn name(&self) -> &'static str {
        "hoarder"
    }
    fn enqueue(&mut self, _session: PendingView) {
        self.0 += 1;
    }
    fn admit(&mut self, _now: SimTime) -> Option<PendingView> {
        None
    }
    fn pending(&self) -> usize {
        self.0
    }
}

/// `admit` returning `None` means "hold the slot" — but holding every
/// slot of an idle machine forever is a policy bug the service names
/// rather than spinning or silently dropping the sessions.
#[test]
#[should_panic(expected = "scheduling stalled: policy `hoarder` held 2 pending session(s)")]
fn a_policy_that_never_admits_trips_the_stall_guard() {
    let (mut sessions, _) = workload();
    sessions.truncate(2);
    let mut svc = Service::new(
        ServiceConfig {
            slots: 1,
            slot_nodes: NODES,
            queue_cap: 8,
            faults: None,
            replication_overrides: vec![],
        },
        Box::new(Hoarder(0)),
    );
    svc.run(&sessions);
}
