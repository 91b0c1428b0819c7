//! Service-mode equivalence tier: the multi-tenant scheduler must be a
//! pure *placement* layer over the per-program executor.
//!
//! Three properties are locked here:
//!
//! 1. **Transparency at n=1.** A service with one slot running one
//!    session produces a [`RunReport`] byte-identical to a direct
//!    [`execute`] of the same program — same stage JSON, same final
//!    data, same host-side cache/replay/recovery accounting. Checked
//!    across the safety-matrix golden applications (validation mode,
//!    with and without fault injection) and a 100-seed slice of the
//!    differential-oracle corpus.
//! 2. **Pool-width invariance.** The per-session reports of a
//!    multi-tenant workload are identical whether the service runs the
//!    sessions on 1, 2, or 4 slots (fault-free): sessions are
//!    node-disjoint and their reports `t0`-relative, so concurrency
//!    changes *when* a session runs, never *what* it computes.
//! 3. **Deterministic replay.** The same seed and arrival schedule
//!    produce bit-identical service outcomes — including admission
//!    times, slot assignments, and wait rounds — run after run.

use std::rc::Rc;

use il_oracle::generate_program;
use il_testkit::{Fnv1a, SplitMix64};
use index_launch::machine::SimTime;
use index_launch::prelude::*;
use index_launch::runtime::{
    execute, policy_by_name, CostSpec, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RunReport, RuntimeConfig, Service, ServiceConfig, ServiceReport, SessionSpec,
};

/// Everything observable about a run — simulated results *and*
/// host-side accounting — as one comparable value. String rather than
/// struct so assertion failures print the full diff.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "makespan={} setup={} elapsed={} tasks={} messages={} bytes={} dyn={} span={} \
         stages={} nodes={:?} cache=({},{},{},{}) replay={:?} recovery={:?}",
        r.makespan.as_ns(),
        r.setup_done.as_ns(),
        r.elapsed.as_ns(),
        r.tasks,
        r.messages,
        r.bytes,
        r.dynamic_check_time.as_ns(),
        r.issuance_span.as_ns(),
        r.stage_json(),
        r.node_stage_busy,
        r.analysis_cache.hits,
        r.analysis_cache.misses,
        r.analysis_cache.evals_saved,
        r.analysis_cache.warm_hits,
        r.trace_replay,
        r.recovery,
    )
}

/// Run `program` as the sole session of a one-slot service and return
/// its report.
fn service_solo(program: &Rc<Program>, cfg: &RuntimeConfig) -> RunReport {
    let mut svc = Service::new(
        ServiceConfig {
            slots: 1,
            slot_nodes: cfg.nodes,
            queue_cap: 2,
            faults: cfg.faults.clone(),
            replication_overrides: vec![],
        },
        policy_by_name("fifo"),
    );
    let sessions = vec![SessionSpec {
        tenant: 0,
        priority: 0,
        arrival: SimTime::ZERO,
        program: program.clone(),
        config: cfg.clone(),
    }];
    let mut out = svc.run(&sessions);
    assert!(out.rejected.is_empty(), "n=1 session rejected");
    assert_eq!(out.sessions.len(), 1);
    let s = out.sessions.pop().unwrap();
    assert_eq!(s.admitted, SimTime::ZERO, "sole session must admit at time zero");
    assert_eq!(s.slot, 0);
    s.report
}

fn assert_transparent(name: &str, program: &Rc<Program>, cfg: &RuntimeConfig) {
    let solo = execute(program, cfg);
    let svc = service_solo(program, cfg);
    assert_eq!(
        fingerprint(&solo),
        fingerprint(&svc),
        "{name}: single-session service differs from direct execute"
    );
    assert_eq!(solo.store, svc.store, "{name}: final instance data differs");
}

/// An opaque-functor program (from the safety matrix): one identity
/// launch and one opaque reversed-write launch, forcing the dynamic
/// check path.
fn opaque_program() -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let domain = Domain::range(8);
    let task = b.task_modeled("reverse_write");
    for functor in [
        b.identity_functor(),
        b.functor(ProjExpr::opaque(|p| DomainPoint::new1(7 - p.x()))),
    ] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: domain.clone(),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    b.build()
}

fn golden_apps() -> Vec<(&'static str, Rc<Program>)> {
    use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 4,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 3,
        ..circuit::CircuitConfig::tiny(4)
    });
    let soleil = soleil::build(&soleil::SoleilConfig {
        iterations: 3,
        ..soleil::SoleilConfig::tiny((2, 1, 1))
    });
    let amr = amr::build(&amr::AmrConfig {
        epochs: 2,
        ..amr::AmrConfig::tiny()
    });
    let pagerank = pagerank::build(&pagerank::PagerankConfig::tiny(4));
    vec![
        ("stencil", Rc::new(stencil.program)),
        ("circuit", Rc::new(circuit.program)),
        ("soleil", Rc::new(soleil.program)),
        ("opaque", Rc::new(opaque_program())),
        ("amr", Rc::new(amr.program)),
        ("pagerank", Rc::new(pagerank.program)),
    ]
}

/// Transparency over the safety-matrix applications: validation mode
/// (real kernels, final data byte-compared), the same under fault
/// injection (the service's whole-machine fault plan restricted to one
/// slot equals the solo plan), and scale mode across the dcr × idx
/// axes.
#[test]
fn single_session_service_is_byte_identical_on_golden_apps() {
    for (name, program) in &golden_apps() {
        for (cname, cfg) in [
            ("validate", RuntimeConfig::validate(4)),
            ("validate+faults", RuntimeConfig::validate(4).with_faults(0x5AFE)),
            ("scale", RuntimeConfig::scale(4)),
            ("scale centralized", RuntimeConfig::scale(4).with_axes(false, true)),
            ("scale expanded", RuntimeConfig::scale(4).with_axes(true, false)),
        ] {
            assert_transparent(&format!("{name}/{cname}"), program, &cfg);
        }
    }
}

/// Transparency over a 100-seed slice of the differential-oracle
/// corpus (seeded random launch programs, scale mode).
#[test]
fn single_session_service_is_byte_identical_on_oracle_corpus() {
    for case in 0..100u64 {
        let seed = SplitMix64::mix(0xCAC4E, case);
        let program = Rc::new(generate_program(seed));
        assert_transparent(&format!("seed {seed:#x}"), &program, &RuntimeConfig::scale(2));
    }
}

/// A deterministic 8-session, 3-tenant workload over golden apps and
/// corpus programs, staggered arrivals.
fn mixed_workload(nodes: usize) -> Vec<SessionSpec> {
    let apps = golden_apps();
    let mut sessions = Vec::new();
    for i in 0..8usize {
        let program = if i % 2 == 0 {
            apps[(i / 2) % apps.len()].1.clone()
        } else {
            Rc::new(generate_program(SplitMix64::mix(0x5E61CE, i as u64)))
        };
        sessions.push(SessionSpec {
            tenant: (i % 3) as u32,
            priority: (i % 4) as u32,
            arrival: SimTime::us(20 * i as u64),
            program,
            config: RuntimeConfig::scale(nodes),
        });
    }
    sessions
}

fn run_service(sessions: &[SessionSpec], slots: usize, policy: &str) -> ServiceReport {
    let nodes = sessions[0].config.nodes;
    let mut svc = Service::new(
        ServiceConfig {
            slots,
            slot_nodes: nodes,
            queue_cap: 64,
            faults: None,
            replication_overrides: vec![],
        },
        policy_by_name(policy),
    );
    svc.run(sessions)
}

/// Pool-width invariance: per-session reports are identical at service
/// widths 1, 2, and 4 (fault-free), host counters included. Width
/// changes the order in which a tenant's sessions complete; nothing a
/// session computes may depend on it.
#[test]
fn session_reports_are_invariant_across_pool_widths() {
    let sessions = mixed_workload(2);
    let base = run_service(&sessions, 1, "fifo");
    assert!(base.rejected.is_empty());
    assert_eq!(base.sessions.len(), sessions.len());
    for slots in [2usize, 4] {
        let wide = run_service(&sessions, slots, "fifo");
        assert!(wide.rejected.is_empty());
        assert_eq!(wide.sessions.len(), base.sessions.len());
        for (a, b) in base.sessions.iter().zip(wide.sessions.iter()) {
            assert_eq!(a.submit_idx, b.submit_idx);
            assert_eq!(
                fingerprint(&a.report),
                fingerprint(&b.report),
                "session {}: report differs between widths 1 and {slots}",
                a.submit_idx
            );
            assert_eq!(a.report.store, b.report.store);
        }
    }
}

/// Deterministic replay: the same workload and service shape produce
/// bit-identical outcomes — schedule included — run after run.
#[test]
fn service_runs_are_deterministic() {
    let sessions = mixed_workload(2);
    for policy in ["fifo", "fair", "aged-priority"] {
        let a = run_service(&sessions, 2, policy);
        let b = run_service(&sessions, 2, policy);
        assert_eq!(a.makespan, b.makespan, "{policy}: makespan differs across runs");
        assert_eq!(a.rounds, b.rounds, "{policy}: round count differs");
        assert_eq!(a.rejected, b.rejected);
        for (x, y) in a.sessions.iter().zip(b.sessions.iter()) {
            assert_eq!(
                (x.submit_idx, x.admitted, x.finished, x.slot, x.wait_rounds),
                (y.submit_idx, y.admitted, y.finished, y.slot, y.wait_rounds),
                "{policy}: schedule differs across runs"
            );
            assert_eq!(fingerprint(&x.report), fingerprint(&y.report));
        }
    }
}

/// No carry-over between sessions: two tenants each submit the same
/// stencil program twice on one slot (A, B, A, B). All four reports are
/// byte-identical, host-side cache and replay counters included, and
/// equal to a direct `execute`: a session computes the same thing
/// whoever ran the program before it.
#[test]
fn resubmitted_program_reports_the_same_for_every_tenant_and_session() {
    use index_launch::apps::stencil;
    let program = Rc::new(
        stencil::build(&stencil::StencilConfig {
            iterations: 6,
            ..stencil::StencilConfig::tiny((2, 2))
        })
        .program,
    );
    let cfg = RuntimeConfig::validate(4);
    let sessions: Vec<SessionSpec> = (0..4usize)
        .map(|i| SessionSpec {
            tenant: (i % 2) as u32,
            priority: 0,
            arrival: SimTime::us(i as u64),
            program: program.clone(),
            config: cfg.clone(),
        })
        .collect();
    let out = run_service(&sessions, 1, "fifo");
    assert_eq!(out.sessions.len(), 4);
    let solo = execute(&program, &cfg);
    assert!(solo.trace_replay.replayed > 0, "the stencil loop must replay within a session");
    for s in &out.sessions {
        assert_eq!(
            fingerprint(&s.report),
            fingerprint(&solo),
            "session {} (tenant {}) differs from a direct execute",
            s.submit_idx,
            s.tenant
        );
        assert_eq!(s.report.store, solo.store);
    }
}

/// One 8-point write launch over 8 blocks through an opaque functor.
/// Every program this builds has the same partition, functor and task
/// ids, so only the functor's body tells two of them apart.
fn opaque_write_program(f: fn(DomainPoint) -> DomainPoint) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let x = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let task = b.task_modeled("write");
    let functor = b.functor(ProjExpr::opaque(f));
    b.index_launch(IndexLaunchDesc {
        task,
        domain: Domain::range(8),
        reqs: vec![RegionReq {
            partition: blocks,
            functor,
            privilege: Privilege::Write,
            fields: vec![x],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: CostSpec::Uniform(SimTime::us(10)),
        shard: None,
    });
    b.build()
}

/// A tenant's second program is analyzed afresh even when its ids match
/// its first program's. The first writes block `p` from point `p` and
/// passes the dynamic check; the second writes block 0 from all eight
/// points, so it must run sequentially. Both finish on a one-slot
/// service, and the second reports exactly what a direct `execute` of
/// it reports.
#[test]
fn equal_ids_with_another_functor_are_analyzed_afresh() {
    let cfg = RuntimeConfig::validate(4);
    let first = Rc::new(opaque_write_program(|p| p));
    let second = Rc::new(opaque_write_program(|_| DomainPoint::new1(0)));
    let sessions: Vec<SessionSpec> = [&first, &second]
        .into_iter()
        .enumerate()
        .map(|(i, program)| SessionSpec {
            tenant: 0,
            priority: 0,
            arrival: SimTime::us(i as u64),
            program: program.clone(),
            config: cfg.clone(),
        })
        .collect();
    let out = run_service(&sessions, 1, "fifo");
    assert!(out.rejected.is_empty());
    assert_eq!(out.sessions.len(), 2, "both sessions must finish");
    let session = out.sessions.iter().find(|s| s.submit_idx == 1).unwrap();
    let solo = execute(&second, &cfg);
    assert_eq!(
        fingerprint(&solo),
        fingerprint(&session.report),
        "second program: service session differs from direct execute"
    );
    assert_eq!(solo.store, session.report.store);
}

/// Corruption blast radius: two tenants share a two-slot service under a
/// machine-global corruption schedule whose single corrupt node (seed 5
/// → machine node 6) sits in slot 1. Tenant 1 — the victim — holds a
/// replicate-2 service tier via `replication_overrides`; tenant 0 runs
/// un-tiered on slot 0. The victim's flips must be detected and its data
/// must converge, while the co-located tenant's whole report — schedule,
/// stage JSON, SDC counters, final store — is byte-equal to a solo run
/// of the same service with the victim absent. Corruption, like a crash,
/// is a single-tenant event.
#[test]
fn corruption_blast_radius_is_one_tenant() {
    use index_launch::runtime::{FaultConfig, ReplicationConfig};

    const SLOT_NODES: usize = 4;
    let seed = 5u64; // pinned: corrupt node 6, i.e. slot 1, not a slot base
    let fc = FaultConfig::corrupting(seed);
    let apps = golden_apps();
    let (spared_prog, victim_prog) = (apps[0].1.clone(), apps[1].1.clone());
    let session_cfg = RuntimeConfig::validate(SLOT_NODES).with_fault_config(fc.clone());
    let service_cfg = ServiceConfig {
        slots: 2,
        slot_nodes: SLOT_NODES,
        queue_cap: 4,
        faults: Some(fc.clone()),
        replication_overrides: vec![(1, ReplicationConfig::all(2))],
    };
    let spec = |tenant: u32, program: &Rc<Program>| SessionSpec {
        tenant,
        priority: 0,
        arrival: SimTime::ZERO,
        program: program.clone(),
        config: session_cfg.clone(),
    };
    // Fingerprint extended with the SDC counters this tier is about.
    let fp = |r: &RunReport| format!("{} sdc={:?}", fingerprint(r), r.sdc);

    // Solo baseline: the spared tenant alone on the *same* service shape
    // (same 8-node machine, same global fault plan, same overrides).
    let mut solo_svc = Service::new(service_cfg.clone(), policy_by_name("fifo"));
    let solo_out = solo_svc.run(&[spec(0, &spared_prog)]);
    assert_eq!(solo_out.sessions.len(), 1);
    assert_eq!(solo_out.sessions[0].slot, 0);
    let solo = &solo_out.sessions[0].report;

    // Co-located run: the victim joins on slot 1.
    let mut svc = Service::new(service_cfg, policy_by_name("fifo"));
    let out = svc.run(&[spec(0, &spared_prog), spec(1, &victim_prog)]);
    assert_eq!(out.sessions.len(), 2);
    assert_eq!(out.sessions[0].slot, 0);
    assert_eq!(out.sessions[1].slot, 1);
    let (spared, victim) = (&out.sessions[0].report, &out.sessions[1].report);

    // The victim actually suffers — and survives — the corruption.
    let victim_sdc = victim.sdc.clone().expect("victim carries SDC stats");
    assert!(
        victim_sdc.detected + victim_sdc.payload_detected > 0,
        "pinned seed must corrupt the victim's slot: {victim_sdc:?}"
    );
    assert_eq!(victim_sdc.escaped, 0, "victim's tier must catch every flip");
    let victim_clean = execute(&victim_prog, &RuntimeConfig::validate(SLOT_NODES));
    assert_eq!(victim.tasks, victim_clean.tasks);
    assert_eq!(
        victim.store, victim_clean.store,
        "victim must converge to its fault-free store"
    );

    // Blast radius: the spared tenant never notices the victim existed.
    let spared_sdc = spared.sdc.clone().expect("corrupting config carries SDC stats");
    assert_eq!(
        (spared_sdc.detected, spared_sdc.escaped, spared_sdc.payload_detected,
         spared_sdc.payload_escaped),
        (0, 0, 0, 0),
        "corruption leaked into the co-located tenant's slot: {spared_sdc:?}"
    );
    assert_eq!(
        fp(solo),
        fp(spared),
        "co-located tenant's report differs from its solo run"
    );
    assert_eq!(solo.store, spared.store, "co-located tenant's final data differs from solo");
}

/// One fault source: a session runs under the service's fault config,
/// whatever its own config carries. On the corrupting plan of seed 5
/// (node 6, in slot 1) an undefended circuit session on slot 1 whose
/// own config has no faults must report the same escapes and end with
/// the same corrupted store as one whose config carries the plan's.
#[test]
fn sessions_take_their_faults_from_the_service() {
    use index_launch::runtime::FaultConfig;

    const SLOT_NODES: usize = 4;
    let fc = FaultConfig::corrupting(5);
    let apps = golden_apps();
    let (filler, circuit) = (apps[0].1.clone(), apps[1].1.clone());
    let run = |config: RuntimeConfig| {
        let spec = |program: &Rc<Program>| SessionSpec {
            tenant: 0,
            priority: 0,
            arrival: SimTime::ZERO,
            program: program.clone(),
            config: config.clone(),
        };
        let service = ServiceConfig {
            slots: 2,
            slot_nodes: SLOT_NODES,
            queue_cap: 2,
            faults: Some(fc.clone()),
            replication_overrides: vec![],
        };
        let mut out = Service::new(service, policy_by_name("fifo"))
            .run(&[spec(&filler), spec(&circuit)]);
        assert_eq!(out.sessions[1].slot, 1);
        out.sessions.swap_remove(1).report
    };
    let own = run(RuntimeConfig::validate(SLOT_NODES).with_fault_config(fc.clone()));
    let from_service = run(RuntimeConfig::validate(SLOT_NODES));
    let sdc = own.sdc.clone().expect("a corrupting session carries SDC stats");
    assert!(sdc.escaped > 0, "pinned seed must corrupt slot 1 undefended: {sdc:?}");
    let clean = execute(&circuit, &RuntimeConfig::validate(SLOT_NODES));
    assert_ne!(own.store, clean.store, "escaped corruption must reach the store");
    assert_eq!(from_service.sdc, own.sdc, "the service's plan must reach the session");
    assert_eq!(from_service.store, own.store);
}

/// A session may not ask for a fault config other than the service's:
/// the service would run it under its own plan anyway.
#[test]
#[should_panic(expected = "config.faults must be None or the service's fault config")]
fn a_session_with_other_faults_is_rejected() {
    use index_launch::runtime::FaultConfig;

    let apps = golden_apps();
    let mut svc = Service::new(
        ServiceConfig {
            slots: 1,
            slot_nodes: 4,
            queue_cap: 2,
            faults: Some(FaultConfig::from_seed(5)),
            replication_overrides: vec![],
        },
        policy_by_name("fifo"),
    );
    svc.run(&[SessionSpec {
        tenant: 0,
        priority: 0,
        arrival: SimTime::ZERO,
        program: apps[0].1.clone(),
        config: RuntimeConfig::validate(4).with_faults(6),
    }]);
}

/// Backpressure: a bounded pending queue rejects overload instead of
/// growing without bound, and every submission is either finished or
/// rejected — never lost.
#[test]
fn bounded_queue_rejects_overload_and_loses_nothing() {
    let mut sessions = mixed_workload(2);
    for s in sessions.iter_mut() {
        s.arrival = SimTime::ZERO; // all at once: queue fills instantly
    }
    let mut svc = Service::new(
        ServiceConfig {
            slots: 1,
            slot_nodes: 2,
            queue_cap: 3,
            faults: None,
            replication_overrides: vec![],
        },
        policy_by_name("fifo"),
    );
    let out = svc.run(&sessions);
    assert!(!out.rejected.is_empty(), "overload past queue_cap must reject");
    assert_eq!(
        out.sessions.len() + out.rejected.len(),
        sessions.len(),
        "every submission must finish or be rejected"
    );
    let mut seen: Vec<usize> = out
        .sessions
        .iter()
        .map(|s| s.submit_idx)
        .chain(out.rejected.iter().copied())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..sessions.len()).collect::<Vec<_>>());
}

/// One of the `ilaunch serve` invocations whose admission schedules are
/// pinned below: the mix and the `ServiceConfig` the CLI would build.
struct PinnedMix {
    name: &'static str,
    seed: u64,
    tenants: u32,
    shape: MixShape,
    slots: usize,
    slot_nodes: usize,
    /// `0` = unbounded (the CLI default: the mix size).
    queue_cap: usize,
    faults: Option<u64>,
}

enum MixShape {
    /// `--sessions N`.
    Balanced(usize),
    /// `--skewed --heavy H --light L`.
    Skewed(usize, usize),
}

const PINNED_MIXES: [PinnedMix; 5] = [
    PinnedMix {
        name: "balanced 400 / 5 tenants / 3 slots",
        seed: 7,
        tenants: 5,
        shape: MixShape::Balanced(400),
        slots: 3,
        slot_nodes: 2,
        queue_cap: 0,
        faults: None,
    },
    PinnedMix {
        name: "skewed 6 + 800",
        seed: 99,
        tenants: 8,
        shape: MixShape::Skewed(6, 800),
        slots: 2,
        slot_nodes: 2,
        queue_cap: 0,
        faults: None,
    },
    PinnedMix {
        name: "balanced 300 / queue cap 5",
        seed: 3,
        tenants: 8,
        shape: MixShape::Balanced(300),
        slots: 2,
        slot_nodes: 2,
        queue_cap: 5,
        faults: None,
    },
    PinnedMix {
        name: "balanced 120 / faults 5",
        seed: 11,
        tenants: 8,
        shape: MixShape::Balanced(120),
        slots: 2,
        slot_nodes: 2,
        queue_cap: 0,
        faults: Some(5),
    },
    PinnedMix {
        name: "skewed 4 + 300 / 4 slots x 3 nodes / queue cap 40",
        seed: 1234,
        tenants: 8,
        shape: MixShape::Skewed(4, 300),
        slots: 4,
        slot_nodes: 3,
        queue_cap: 40,
        faults: None,
    },
];

/// `[fifo, fair, aged-priority]` schedule hashes per mix. Every finish
/// time is in the hash, so a change that moves one of them changed a
/// schedule or a session's simulated run.
const PINNED_SCHEDULES: [[u64; 3]; 5] = [
    [0x6850831c5401d2cf, 0x3724f72b1a109a03, 0xf1f03515b58adedc], // balanced 400 / 5 tenants / 3 slots
    [0xfb79017473d818e7, 0x7584d9e5e32065c9, 0xcb6c91cc0609bae6], // skewed 6 + 800
    [0x3c4afca01c0a6228, 0xf755e92ae4daff86, 0x0b8d9ff2d121fd82], // balanced 300 / queue cap 5
    [0x981fc2519ab65bd9, 0xdd3b27b39bf5aa50, 0x396fbb662412c286], // balanced 120 / faults 5
    [0xb88c2ea97b4d54ed, 0x41f506e2e9ed090a, 0x32fc7c4e60723230], // skewed 4 + 300 / 4 slots x 3 nodes / queue cap 40
];

/// FNV-1a over the whole admission schedule of one service run: every
/// finished session's `(submit_idx, slot, admitted, finished,
/// wait_rounds)` in submission order, the rejected list, and the round
/// count.
fn schedule_hash(out: &ServiceReport) -> u64 {
    let mut h = Fnv1a::new();
    h.word(out.sessions.len() as u64);
    for s in &out.sessions {
        h.word(s.submit_idx as u64);
        h.word(s.slot as u64);
        h.word(s.admitted.as_ns());
        h.word(s.finished.as_ns());
        h.word(s.wait_rounds);
    }
    h.word(out.rejected.len() as u64);
    for &r in &out.rejected {
        h.word(r as u64);
    }
    h.word(out.rounds);
    h.finish()
}

/// Admission schedules are pinned: three policies × five `ilaunch serve`
/// mixes (balanced, skewed, backpressure, faults, wide slots) hash to
/// the literals above. How a policy finds its next session is an
/// implementation detail; which session it finds is not.
#[test]
fn admission_schedules_are_pinned() {
    use index_launch::apps::service_mix::{generate_mix, skewed_mix, MixConfig};
    use index_launch::runtime::FaultConfig;

    let mut got = [[0u64; 3]; 5];
    for (m, mix) in PINNED_MIXES.iter().enumerate() {
        let cfg = |sessions| MixConfig {
            seed: mix.seed,
            tenants: mix.tenants,
            sessions,
            slot_nodes: mix.slot_nodes,
            mean_gap: SimTime::us(50),
            fuzz_per_mille: 500,
        };
        let sessions = match mix.shape {
            MixShape::Balanced(n) => generate_mix(&cfg(n)),
            MixShape::Skewed(heavy, light) => skewed_mix(&cfg(0), heavy, light),
        };
        for (p, policy) in ["fifo", "fair", "aged-priority"].into_iter().enumerate() {
            let mut svc = Service::new(
                ServiceConfig {
                    slots: mix.slots,
                    slot_nodes: mix.slot_nodes,
                    queue_cap: if mix.queue_cap == 0 { sessions.len() } else { mix.queue_cap },
                    faults: mix.faults.map(FaultConfig::from_seed),
                    replication_overrides: vec![],
                },
                policy_by_name(policy),
            );
            let out = svc.run(&sessions);
            assert_eq!(
                out.sessions.len() + out.rejected.len(),
                sessions.len(),
                "{}: {policy} lost a session",
                mix.name
            );
            got[m][p] = schedule_hash(&out);
        }
    }
    assert_eq!(
        got, PINNED_SCHEDULES,
        "an admission schedule moved; got:\n{}",
        got.iter()
            .zip(&PINNED_MIXES)
            .map(|(row, mix)| format!(
                "    [{:#018x}, {:#018x}, {:#018x}], // {}\n",
                row[0], row[1], row[2], mix.name
            ))
            .collect::<String>()
    );
}

/// What a session computes, and nothing about when or after whom it ran
/// (no host-side cache or replay counters: those depend on which of the
/// tenant's sessions came first).
fn computed(r: &RunReport) -> String {
    format!(
        "makespan={:?} tasks={} messages={} bytes={} stages={}",
        r.makespan,
        r.tasks,
        r.messages,
        r.bytes,
        r.stage_json(),
    )
}

/// What a session computes does not depend on who else is waiting: the
/// skewed mix at 10 + 300 and at 10 + 1 200 sessions shares its first
/// 310 submissions (the generator draws sequentially), and each of them
/// computes the same thing behind a queue four times as deep. The queue
/// is per-run state on a per-service object: a second `run` of the
/// larger mix on the same `Service` starts from an empty policy queue
/// (asserted on entry to `run`) and reproduces every session. Wall-clock cost per session is the
/// benchmark's subject (`service-skewed`), not this test's.
#[test]
fn sessions_are_independent_of_queue_depth_and_the_queue_empties_between_runs() {
    use index_launch::apps::service_mix::{skewed_mix, MixConfig};

    let cfg = MixConfig::standard(0x51DE);
    let serve = |svc: &mut Service, sessions: &[SessionSpec]| {
        let out = svc.run(sessions);
        assert!(out.rejected.is_empty());
        assert_eq!(out.sessions.len(), sessions.len());
        out
    };
    let service = |sessions: &[SessionSpec]| {
        Service::new(
            ServiceConfig {
                slots: 2,
                slot_nodes: cfg.slot_nodes,
                queue_cap: sessions.len(),
                faults: None,
                replication_overrides: vec![],
            },
            policy_by_name("fair"),
        )
    };

    let small_mix = skewed_mix(&cfg, 10, 300);
    let large_mix = skewed_mix(&cfg, 10, 1200);
    let small = serve(&mut service(&small_mix), &small_mix);
    let mut svc = service(&large_mix);
    let large = serve(&mut svc, &large_mix);
    for (a, b) in small.sessions.iter().zip(&large.sessions) {
        assert_eq!(a.submit_idx, b.submit_idx);
        assert_eq!(
            computed(&a.report),
            computed(&b.report),
            "session {}: 900 more sessions in the queue changed what it computed",
            a.submit_idx
        );
    }
    assert!(
        large.sessions[..small_mix.len()].iter().any(|s| s.wait_rounds > 0),
        "nothing ever waited; the mix exercises no queue"
    );

    let again = serve(&mut svc, &large_mix);
    for (a, b) in large.sessions.iter().zip(&again.sessions) {
        assert_eq!(
            computed(&a.report),
            computed(&b.report),
            "session {}: rerun on the same service computed something else",
            a.submit_idx
        );
    }
}

/// Nearest-rank percentile of an unsorted latency sample.
fn percentile(latencies: &mut [u64], p: f64) -> u64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// Percentiles are nearest-rank: pinned on a known sample.
#[test]
fn percentile_is_nearest_rank() {
    let mut v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&mut v, 50.0), 50);
    assert_eq!(percentile(&mut v, 95.0), 95);
    assert_eq!(percentile(&mut v, 99.0), 99);
    let mut w = vec![7u64];
    assert_eq!(percentile(&mut w, 99.0), 7);
}

/// The skewed mix's headline: one tenant bursts 10 moderately long
/// sessions at time zero and 300 light sessions of other tenants arrive
/// behind them. FIFO hands every freed slot back to the burst, so the
/// light sessions wait for all of it; fair share charges the heavy
/// tenant its accumulated service and drains the light queue first, so
/// the light sessions' p99 is lower. `ilaunch serve --policy all
/// --skewed` prints the same contrast over the whole mix.
#[test]
fn fair_share_beats_fifo_tail_on_skewed_mix() {
    use index_launch::apps::service_mix::{skewed_mix, MixConfig};

    let cfg = MixConfig { mean_gap: SimTime::us(900), ..MixConfig::standard(11) };
    let sessions = skewed_mix(&cfg, 10, 300);
    let light_p99 = |policy: &str| -> u64 {
        let mut svc = Service::new(
            ServiceConfig {
                slots: 2,
                slot_nodes: cfg.slot_nodes,
                queue_cap: sessions.len(),
                faults: None,
                replication_overrides: vec![],
            },
            policy_by_name(policy),
        );
        let out = svc.run(&sessions);
        let mut lat: Vec<u64> = out
            .sessions
            .iter()
            .filter(|s| s.tenant != 0)
            .map(|s| s.latency().as_ns())
            .collect();
        percentile(&mut lat, 99.0)
    };
    let fifo = light_p99("fifo");
    let fair = light_p99("fair");
    assert!(
        fair < fifo,
        "fair share must cap the light tail: fair p99 {fair}ns vs fifo p99 {fifo}ns"
    );
}
