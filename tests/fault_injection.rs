//! Chaos suite: seeded fault injection and recovery.
//!
//! The fault subsystem's contract has three legs, and each gets locked
//! here:
//!
//! 1. **Determinism** — a fault schedule is a pure function of
//!    `(seed, RuntimeConfig)`, so two runs with identical inputs must
//!    produce byte-identical [`RunReport`]s, including every recovery
//!    counter and (in validation mode) the final instance data.
//! 2. **Semantics** — any *survivable* schedule (node 0 alive, at least
//!    one survivor, bounded drop rate — guaranteed by construction in
//!    `FaultPlan::generate`) may delay the run but must not change what
//!    it computes: same task count, same final data as the fault-free
//!    run, makespan no better than fault-free.
//! 3. **Inertness** — with `faults: None` (the default) every recovery
//!    code path is dormant: no recovery stats, no fault counters in the
//!    stage JSON, reports identical to a build without the subsystem.

use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::machine::{FaultSpec, SimTime};
use index_launch::runtime::pool::par_map;
use index_launch::runtime::{execute, FaultConfig, Program, RunReport, RuntimeConfig};

/// Everything observable about a run, as one comparable value. String
/// rather than struct so assertion failures print the full diff.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "makespan={} tasks={} messages={} bytes={} dyn={} stages={} recovery={:?}",
        r.makespan.as_ns(),
        r.tasks,
        r.messages,
        r.bytes,
        r.dynamic_check_time.as_ns(),
        r.stage_json().to_string(),
        r.recovery,
    )
}

/// The three golden applications at validation-mode sizes.
fn golden_apps() -> Vec<(&'static str, Program)> {
    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 2,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 2,
        ..circuit::CircuitConfig::tiny(4)
    });
    let soleil = soleil::build(&soleil::SoleilConfig {
        iterations: 2,
        ..soleil::SoleilConfig::tiny((2, 1, 1))
    });
    let amr = amr::build(&amr::AmrConfig {
        epochs: 2,
        ..amr::AmrConfig::tiny()
    });
    let pagerank = pagerank::build(&pagerank::PagerankConfig::tiny(4));
    vec![
        ("stencil", stencil.program),
        ("circuit", circuit.program),
        ("soleil", soleil.program),
        ("amr", amr.program),
        ("pagerank", pagerank.program),
    ]
}

/// Leg 1: identical `(seed, config)` → byte-identical reports, including
/// the recovery counters and the final instance store.
#[test]
fn identical_seed_and_config_give_byte_identical_reports() {
    for (name, program) in golden_apps() {
        for seed in [0xC0FFEE_u64, 7, 1234] {
            let config = RuntimeConfig::validate(4).with_faults(seed);
            let a = execute(&program, &config);
            let b = execute(&program, &config);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{name}: faulted replay diverged for seed {seed:#x}"
            );
            assert_eq!(
                a.store, b.store,
                "{name}: final data diverged between identical faulted runs (seed {seed:#x})"
            );
            let rec = a.recovery.expect("faulted run must carry recovery stats");
            assert_eq!(rec.seed, seed);
        }
    }
}

/// Leg 2: survivable schedules change timing, never semantics. Every
/// golden app, several seeds: same task count, same final data, makespan
/// at least the fault-free one.
#[test]
fn survivable_faults_preserve_semantics() {
    for (name, program) in golden_apps() {
        let clean_config = RuntimeConfig::validate(4);
        let clean = execute(&program, &clean_config);
        assert!(clean.recovery.is_none());
        for seed in [1_u64, 2, 3, 0xBAD5EED] {
            let faulted = execute(&program, &clean_config.clone().with_faults(seed));
            let rec = faulted.recovery.expect("recovery stats");
            assert_eq!(
                faulted.tasks, clean.tasks,
                "{name}/seed {seed:#x}: task count changed under faults"
            );
            assert_eq!(
                faulted.store, clean.store,
                "{name}/seed {seed:#x}: final data changed under faults \
                 (crashes={} dropped={} duplicated={})",
                rec.crashes, rec.dropped, rec.duplicated
            );
            assert!(
                faulted.makespan >= clean.makespan,
                "{name}/seed {seed:#x}: faulted makespan {} beat fault-free {}",
                faulted.makespan.as_ns(),
                clean.makespan.as_ns()
            );
        }
    }
}

/// Leg 2, sharpened: a schedule that *only* crashes one node (no drops,
/// no duplicates, no slow nodes), pinned early enough that the victim
/// still holds undone work — the run must detect the death, re-shard the
/// victim's slices onto survivors, and still converge to fault-free data.
#[test]
fn early_crash_is_detected_resharded_and_survived() {
    let (name, program) = golden_apps().remove(0);
    let clean = execute(&program, &RuntimeConfig::validate(4));
    let faults = FaultConfig {
        spec: FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            slow_nodes: 0,
            // Crash the victim almost immediately, before it can have
            // completed its share of any launch.
            crash_window: (SimTime::us(10), SimTime::us(10)),
            ..FaultSpec::default()
        },
        ..FaultConfig::from_seed(42)
    };
    let faulted = execute(&program, &RuntimeConfig::validate(4).with_fault_config(faults));
    let rec = faulted.recovery.expect("recovery stats");
    // Golden counters for this pinned (seed 42, validate(4), tiny
    // stencil) schedule. Recovery is a pure function of `(seed, config,
    // program)`, so any drift in these exact values is a behavior change
    // in the crash/re-shard protocol, not noise — update them only with
    // an explanation of what legitimately moved.
    assert_eq!(rec.crashes, 1, "{name}: schedule must crash exactly one node");
    assert_eq!(rec.dropped, 0);
    assert_eq!(rec.duplicated, 0);
    assert_eq!(
        rec.crash_dropped, 36,
        "{name}: the early crash must discard exactly the victim's in-flight events"
    );
    assert_eq!(
        rec.recovery_checks, 29,
        "{name}: the timeout/heartbeat protocol's check count drifted"
    );
    assert_eq!(
        rec.retried_tasks, 81,
        "{name}: the retry protocol's task count drifted"
    );
    assert_eq!(
        rec.resharded_groups, 5,
        "{name}: the dead node's slices must re-shard in exactly 5 groups"
    );
    assert_eq!(
        rec.reanalyses, 5,
        "{name}: every re-sharded launch must be re-analyzed exactly once"
    );
    assert_eq!(rec.duplicate_credits, 0);
    assert_eq!(rec.late_credits, 0);
    assert_eq!(faulted.tasks, clean.tasks, "{name}: every task still runs");
    assert_eq!(faulted.store, clean.store, "{name}: data survives the crash");
    assert!(faulted.makespan >= clean.makespan);
}

/// A duplicated credit message re-delivers one producer's whole
/// (producer, owner) group. The message is a descriptor into the shared
/// credit table, so the duplicate names exactly the edges the original
/// did; the per-edge dedup must discard every one of them. With nothing
/// dropped and nothing crashed, the credit-conservation audit then pins
/// "exactly once": no task is over-paid, and the credits delivered by
/// message sum to the fault-free total.
#[test]
fn duplicated_credit_groups_pay_each_edge_exactly_once() {
    let faults = FaultConfig {
        spec: FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 400,
            max_crashes: 0,
            slow_nodes: 0,
            ..FaultSpec::default()
        },
        ..FaultConfig::from_seed(11)
    };
    for (name, program) in golden_apps() {
        let config = RuntimeConfig::validate(4).with_audit(true);
        let clean = execute(&program, &config);
        let faulted = execute(&program, &config.clone().with_fault_config(faults.clone()));
        let rec = faulted.recovery.clone().expect("recovery stats");
        assert_eq!((rec.crashes, rec.dropped, rec.crash_dropped), (0, 0, 0), "{name}");
        assert!(rec.duplicated > 0, "{name}: the schedule must duplicate deliveries");
        assert!(
            rec.duplicate_credits > 0,
            "{name}: a duplicated credit group must be discarded edge by edge: {rec:?}"
        );
        assert_eq!(rec.late_credits, 0, "{name}: nothing was settled from the journal");
        assert_eq!(
            faulted.audit.expect("audit on").credits_paid,
            clean.audit.expect("audit on").credits_paid,
            "{name}: every edge must be paid by message exactly once"
        );
        assert_eq!(faulted.store, clean.store, "{name}: duplicates changed the data");
    }
}

/// Crash + trace replay composition: a crash in the middle of an
/// iterative run whose launch sequence has already been captured and
/// replayed must invalidate the captured traces (the re-sharded
/// distribution no longer matches the recorded plans), go through the
/// re-shard protocol, and still converge to the fault-free data.
#[test]
fn mid_trace_crash_invalidates_and_converges() {
    let built = stencil::build(&stencil::StencilConfig {
        iterations: 8,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let clean = execute(&built.program, &RuntimeConfig::validate(4));
    assert!(
        clean.trace_replay.captured > 0 && clean.trace_replay.replayed > 0,
        "iterative stencil must capture and replay its launch trace: {:?}",
        clean.trace_replay
    );
    assert_eq!(clean.trace_replay.invalidated, 0, "fault-free run must not invalidate");

    // Crash one node halfway through the fault-free makespan: well after
    // the trace has begun replaying, well before the run completes.
    let mid = SimTime::us(clean.makespan.as_ns() / 1000 / 2);
    let faults = FaultConfig {
        spec: FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            slow_nodes: 0,
            crash_window: (mid, mid),
            ..FaultSpec::default()
        },
        ..FaultConfig::from_seed(42)
    };
    let faulted = execute(&built.program, &RuntimeConfig::validate(4).with_fault_config(faults));
    let rec = faulted.recovery.expect("recovery stats");
    assert_eq!(rec.crashes, 1, "schedule must crash exactly one node");
    assert!(
        rec.resharded_groups > 0,
        "the dead node's slices must be re-sharded onto survivors"
    );
    assert!(
        faulted.trace_replay.invalidated > 0,
        "re-sharding must invalidate the captured traces: {:?}",
        faulted.trace_replay
    );
    assert!(
        faulted.trace_replay.replayed > 0,
        "iterations before the crash still replay: {:?}",
        faulted.trace_replay
    );
    assert_eq!(faulted.tasks, clean.tasks, "every task still runs");
    assert_eq!(faulted.store, clean.store, "data converges to the fault-free stores");
    assert!(faulted.makespan >= clean.makespan);
}

/// Leg 3: the default configuration keeps every fault path inert.
#[test]
fn faults_off_is_inert() {
    let (_, program) = golden_apps().remove(0);
    let config = RuntimeConfig::validate(2);
    assert!(config.faults.is_none(), "faults must default to off");
    let a = execute(&program, &config);
    let b = execute(&program, &config);
    assert!(a.recovery.is_none());
    assert!(
        !a.stage_json().to_string().contains("\"faults\""),
        "fault counters must not appear in fault-free stage JSON"
    );
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// Seed-corpus sweep across both runtime axes and both execution modes:
/// every survivable schedule completes with the fault-free task count
/// (and, in validation mode, the fault-free data).
#[test]
fn seed_corpus_completes_under_every_axis() {
    let (name, program) = golden_apps().remove(0);
    for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
        let clean_cfg = RuntimeConfig::validate(4).with_axes(dcr, idx);
        let clean = execute(&program, &clean_cfg);
        for seed in 0..6_u64 {
            let faulted = execute(&program, &clean_cfg.clone().with_faults(seed));
            assert_eq!(
                faulted.tasks, clean.tasks,
                "{name}: dcr={dcr} idx={idx} seed={seed}"
            );
            assert_eq!(
                faulted.store, clean.store,
                "{name}: dcr={dcr} idx={idx} seed={seed}: data diverged"
            );
        }
        // Scale mode (modeled bodies, no store): still completes and is
        // internally consistent.
        let scale_cfg = RuntimeConfig::scale(4).with_axes(dcr, idx);
        let scale_clean = execute(&program, &scale_cfg);
        for seed in 0..3_u64 {
            let faulted = execute(&program, &scale_cfg.clone().with_faults(seed));
            assert_eq!(
                faulted.tasks, scale_clean.tasks,
                "{name} (scale): dcr={dcr} idx={idx} seed={seed}"
            );
            assert!(faulted.makespan >= scale_clean.makespan);
        }
    }
}

/// Machine-scale chaos leg: a faulted weak-scaling stencil at 65,536
/// simulated nodes. This exercises the whole scale stack at once — the
/// calendar event queue (auto-selected above 4096 nodes), the O(1)
/// fault-table lookups on every dispatched event, and the O(active)
/// clock arena — and must still honor the chaos contract: no lost
/// tasks, makespan no better than fault-free. Release builds only;
/// debug-mode dispatch is an order of magnitude slower.
#[cfg(not(debug_assertions))]
#[test]
fn chaos_leg_at_65k_nodes() {
    const NODES: usize = 65_536;
    let built = stencil::build(&stencil::StencilConfig {
        iterations: 1,
        ..stencil::StencilConfig::weak(NODES)
    });
    let clean_cfg = RuntimeConfig::scale(NODES);
    let clean = execute(&built.program, &clean_cfg);
    assert!(clean.tasks >= NODES as u64, "weak scaling runs at least one task per node");
    let faulted = execute(&built.program, &clean_cfg.clone().with_faults(7));
    let rec = faulted.recovery.as_ref().expect("recovery stats");
    assert!(
        rec.crashes + rec.slow_nodes > 0,
        "a 65k-node schedule must inject something: {rec:?}"
    );
    assert_eq!(faulted.tasks, clean.tasks, "chaos at 65k nodes must not lose tasks");
    assert!(faulted.makespan >= clean.makespan);
    // The per-node report is sparse: bounded by the machine, and only
    // rows that actually accrued busy time.
    assert!(faulted.node_stage_busy.len() <= NODES);
}

/// The chaos sweep is thread-count invariant: fanning faulted runs over
/// worker pools of different widths yields identical fingerprints in
/// identical order (each simulation is a pure function of its seed; the
/// pool maps results back in submission order).
#[test]
fn faulted_sweep_is_pool_width_invariant() {
    let sweep = |threads: usize| -> Vec<String> {
        let jobs: Vec<_> = (0..8_u64)
            .map(|seed| {
                move || {
                    let (_, program) = golden_apps().remove(0);
                    let config = RuntimeConfig::validate(3).with_faults(seed);
                    fingerprint(&execute(&program, &config))
                }
            })
            .collect();
        par_map(threads, jobs)
    };
    let one = sweep(1);
    let four = sweep(4);
    assert_eq!(one, four, "chaos sweep must not depend on pool width");
}

/// Multi-tenant chaos: two tenants run concurrently on a two-slot
/// service; a crash-only fault plan (no drops, no duplicates, no slow
/// nodes) kills exactly one non-coordinator node mid-run. Only the
/// session whose slot hosts the victim may observe the crash — its work
/// re-shards onto its surviving nodes — and *both* sessions must
/// converge to their fault-free instance stores. This is the blast-
/// radius contract of space-shared tenancy: a node failure is a
/// single-tenant event.
#[test]
fn node_crash_reshards_only_the_affected_tenant() {
    use index_launch::runtime::{policy_by_name, Service, ServiceConfig, SessionSpec};
    use std::rc::Rc;

    const SLOT_NODES: usize = 4;
    let apps = golden_apps();
    let programs: Vec<Rc<Program>> =
        apps.into_iter().take(2).map(|(_, p)| Rc::new(p)).collect();
    let cfg = RuntimeConfig::validate(SLOT_NODES);
    let clean: Vec<_> = programs.iter().map(|p| execute(p, &cfg)).collect();

    // Crash exactly one node, early enough that it still holds undone
    // work; everything else in the plan is quiet.
    let faults = FaultConfig {
        spec: FaultSpec {
            drop_per_mille: 0,
            dup_per_mille: 0,
            slow_nodes: 0,
            crash_window: (SimTime::us(10), SimTime::us(10)),
            ..FaultSpec::default()
        },
        ..FaultConfig::from_seed(42)
    };
    let mut svc = Service::new(
        ServiceConfig {
            slots: 2,
            slot_nodes: SLOT_NODES,
            queue_cap: 4,
            faults: Some(faults),
            replication_overrides: vec![],
        },
        policy_by_name("fifo"),
    );
    let sessions: Vec<SessionSpec> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| SessionSpec {
            tenant: i as u32,
            priority: 0,
            arrival: SimTime::ZERO,
            program: p.clone(),
            config: cfg.clone().with_fault_config(FaultConfig {
                spec: FaultSpec {
                    drop_per_mille: 0,
                    dup_per_mille: 0,
                    slow_nodes: 0,
                    crash_window: (SimTime::us(10), SimTime::us(10)),
                    ..FaultSpec::default()
                },
                ..FaultConfig::from_seed(42)
            }),
        })
        .collect();
    let out = svc.run(&sessions);
    assert_eq!(out.sessions.len(), 2);
    // Both admitted immediately, on distinct slots.
    for s in &out.sessions {
        assert_eq!(s.admitted, SimTime::ZERO);
    }
    assert_ne!(out.sessions[0].slot, out.sessions[1].slot);

    let recs: Vec<_> = out
        .sessions
        .iter()
        .map(|s| s.report.recovery.clone().expect("faulted service reports recovery"))
        .collect();
    let total_crashes: u64 = recs.iter().map(|r| r.crashes).sum();
    assert_eq!(total_crashes, 1, "the plan must crash exactly one slot's node: {recs:?}");
    let hit = recs.iter().position(|r| r.crashes == 1).unwrap();
    let spared = 1 - hit;

    // Blast radius: the victim's session re-shards; the other session
    // never sees a crash-related event.
    assert!(
        recs[hit].resharded_groups > 0,
        "affected session must re-shard the dead node's work: {:?}",
        recs[hit]
    );
    assert!(recs[hit].crash_dropped > 0, "the crash must discard in-flight events");
    assert_eq!(recs[spared].crash_dropped, 0, "crash leaked into the other tenant's slot");
    assert_eq!(recs[spared].resharded_groups, 0, "unaffected session re-sharded work");
    assert_eq!(recs[spared].retried_tasks, 0, "unaffected session retried tasks");

    // Convergence: both sessions end at their fault-free stores.
    for (i, s) in out.sessions.iter().enumerate() {
        assert_eq!(s.report.tasks, clean[i].tasks, "session {i}: lost tasks under the crash");
        assert_eq!(
            s.report.store, clean[i].store,
            "session {i}: data diverged from the fault-free run"
        );
    }
    assert!(out.sessions[hit].report.makespan >= clean[hit].makespan);
}
