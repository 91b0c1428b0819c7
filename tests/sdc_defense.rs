//! Silent-data-corruption suite: seeded bit-flip injection and the
//! replication defense.
//!
//! The SDC subsystem's contract has four legs, each locked here:
//!
//! 1. **Detection** — under any survivable corruption schedule with
//!    replicate-2 defense on, every flipped task output is caught by the
//!    digest vote (zero escapes) and the run converges byte-for-byte to
//!    the fault-free instance stores.
//! 2. **Negative control** — the same schedules with the defense *off*
//!    provably corrupt: escapes are counted and (on pinned seeds) the
//!    final store diverges from the fault-free run. The injector is not
//!    a no-op.
//! 3. **Lifecycle** — a corrupting defended run exercises the whole
//!    inject → detect → quarantine → re-run → converge pipeline, with
//!    deterministic counters (byte-identical replay).
//! 4. **Transparency** — with no corruption scheduled and no replication
//!    policy, every SDC code path is dormant: no stats, reports
//!    byte-identical to a build without the subsystem.
//! 5. **Composition** — crashes, drops, duplicates and a slow node
//!    together with corruption, defense on: recovery and the defense run
//!    side by side, and the result is still escape-free and fault-free.

use il_testkit::fnv1a;
use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::machine::FaultSpec;
use index_launch::runtime::{
    execute, FaultConfig, Program, ReplicationConfig, RunReport, RuntimeConfig,
};

/// Everything observable about a run, as one comparable value. String
/// rather than struct so assertion failures print the full diff.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "makespan={} tasks={} messages={} bytes={} stages={} sdc={:?}",
        r.makespan.as_ns(),
        r.tasks,
        r.messages,
        r.bytes,
        r.stage_json(),
        r.sdc,
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

/// Leg 1: replicate-k defense (k ∈ {2, 3}) catches every seeded flip on
/// every golden app — zero escapes, final data byte-equal to the
/// fault-free store, and the verification overhead never makes the run
/// faster. A deeper vote never runs fewer replicas, and `all(1)` — one
/// execution per task — is the undefended control: under the same
/// corruption it replicates nothing.
#[test]
fn defended_runs_converge_to_fault_free_stores() {
    for (name, program) in golden_apps() {
        let clean_cfg = RuntimeConfig::validate(4);
        let clean = execute(&program, &clean_cfg);
        assert!(clean.sdc.is_none(), "{name}: clean run must not carry SDC stats");
        for seed in [1_u64, 2, 3, 42, 0x5DC0, 0xBADBEEF] {
            let corrupting = clean_cfg.clone().with_corruption(seed);
            let single = execute(&program, &corrupting.clone().with_replication(ReplicationConfig::all(1)));
            let sdc = single.sdc.clone().expect("corrupting run must carry SDC stats");
            assert_eq!(
                sdc.replicated_tasks + sdc.replicas + sdc.detected,
                0,
                "{name}/seed {seed:#x}: all(1) must not replicate: {sdc:?}"
            );
            let mut replicas = 0;
            for k in [2, 3] {
                let cfg = corrupting.clone().with_replication(ReplicationConfig::all(k));
                let defended = execute(&program, &cfg);
                let sdc = defended.sdc.clone().expect("corrupting run must carry SDC stats");
                assert_eq!(
                    sdc.escaped, 0,
                    "{name}/seed {seed:#x}/k={k}: corrupted outputs escaped the vote: {sdc:?}"
                );
                assert!(
                    sdc.replicated_tasks > 0 && sdc.replicas > 0,
                    "{name}/seed {seed:#x}/k={k}: replicate-all must replicate: {sdc:?}"
                );
                assert!(
                    sdc.replicas >= replicas,
                    "{name}/seed {seed:#x}/k={k}: a deeper vote ran fewer replicas: {sdc:?}"
                );
                replicas = sdc.replicas;
                assert_eq!(
                    defended.tasks, clean.tasks,
                    "{name}/seed {seed:#x}/k={k}: task count changed under corruption"
                );
                assert_eq!(
                    defended.store, clean.store,
                    "{name}/seed {seed:#x}/k={k}: defended store diverged from fault-free \
                     ({} detected, {} reruns)",
                    sdc.detected, sdc.reruns
                );
                assert!(
                    defended.makespan >= clean.makespan.max(single.makespan),
                    "{name}/seed {seed:#x}/k={k}: verification made the run faster"
                );
            }
        }
    }
}

/// Leg 2, counting half: with the defense off, unreplicated commits on
/// the corrupt node are tallied as escapes on every seed that fires.
#[test]
fn undefended_corruption_counts_escapes() {
    let (name, program) = golden_apps().remove(0);
    let mut fired = 0;
    for seed in [1_u64, 2, 3, 42, 0x5DC0] {
        let cfg = RuntimeConfig::validate(4).with_corruption(seed);
        let report = execute(&program, &cfg);
        let sdc = report.sdc.clone().expect("corrupting run must carry SDC stats");
        assert_eq!(
            sdc.detected + sdc.reruns + sdc.replicated_tasks,
            0,
            "{name}/seed {seed:#x}: no defense may run when replication is off: {sdc:?}"
        );
        fired += u64::from(sdc.escaped > 0 || sdc.payload_escaped > 0);
    }
    assert!(fired > 0, "{name}: no pinned seed produced a single escape — injector inert?");
}

/// Leg 2, data half: on pinned seeds the escaped flips land in the real
/// store, so the undefended final data provably diverges from the
/// fault-free run. (Not every escape survives to the end of the run — a
/// later task may overwrite the flipped element — hence *pinned* seeds.)
#[test]
fn undefended_corruption_diverges_on_pinned_seeds() {
    let (name, program) = golden_apps().remove(0);
    let clean_cfg = RuntimeConfig::validate(4);
    let clean = execute(&program, &clean_cfg);
    for seed in PINNED_DIVERGING_SEEDS {
        let report = execute(&program, &clean_cfg.clone().with_corruption(*seed));
        let sdc = report.sdc.clone().expect("SDC stats");
        assert!(
            sdc.escaped + sdc.payload_escaped > 0,
            "{name}/seed {seed:#x}: pinned seed stopped firing: {sdc:?}"
        );
        assert_eq!(report.tasks, clean.tasks, "{name}/seed {seed:#x}: corruption is silent");
        assert_ne!(
            report.store, clean.store,
            "{name}/seed {seed:#x}: escaped corruption left no trace in the store"
        );
    }
}

/// Seeds (stencil tiny, 4 nodes) whose undefended escapes survive to the
/// final store. Pinned so the negative control cannot silently rot.
const PINNED_DIVERGING_SEEDS: &[u64] = &[2, 3, 6];

/// Leg 3: a corrupting defended run walks the full lifecycle — flips
/// detected, quarantined, re-run — and is a pure function of
/// `(seed, config)`: two runs give byte-identical reports and stores.
#[test]
fn corruption_lifecycle_is_deterministic() {
    let (name, program) = golden_apps().remove(0);
    let mut detected_somewhere = false;
    for seed in [1_u64, 2, 3, 42] {
        let cfg = RuntimeConfig::validate(4)
            .with_corruption(seed)
            .with_replication(ReplicationConfig::all(2));
        let a = execute(&program, &cfg);
        let b = execute(&program, &cfg);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}/seed {seed:#x}: defended replay diverged"
        );
        assert_eq!(a.store, b.store, "{name}/seed {seed:#x}: defended stores diverged");
        let sdc = a.sdc.clone().expect("SDC stats");
        assert_eq!(sdc.escaped, 0);
        assert_eq!(
            sdc.detected, sdc.quarantined,
            "{name}/seed {seed:#x}: every detection quarantines exactly once"
        );
        if sdc.detected > 0 {
            detected_somewhere = true;
            assert!(
                sdc.reruns > 0,
                "{name}/seed {seed:#x}: a quarantined task must re-run: {sdc:?}"
            );
        }
    }
    assert!(
        detected_somewhere,
        "{name}: no seed exercised the detect/quarantine/re-run pipeline"
    );
}

/// A credit message whose payload a corrupt sender flipped is caught by
/// the receiver's checksum, pays nothing, and is retransmitted clean one
/// acknowledgement timeout later — the same descriptor into the shared
/// credit table, so it names exactly the edges the discarded delivery
/// did. By then the coordinator's probe may have settled some of those
/// edges from its journal; the retransmission's credits for them are
/// discarded as late. Either way every edge is paid exactly once: no
/// task is over-paid (the audit), none is left waiting (the run
/// finishes with fault-free data), and credits delivered plus credits
/// discarded late sum to the fault-free total.
#[test]
fn detected_corrupt_credit_groups_are_retransmitted_and_paid_once() {
    let mut detected = 0;
    for (name, program) in golden_apps() {
        let config = RuntimeConfig::validate(4).with_audit(true);
        let clean = execute(&program, &config);
        for seed in [1_u64, 2, 3, 42] {
            let cfg = config
                .clone()
                .with_corruption(seed)
                .with_replication(ReplicationConfig::all(2));
            let defended = execute(&program, &cfg);
            let sdc = defended.sdc.clone().expect("SDC stats");
            detected += sdc.payload_detected;
            assert_eq!(sdc.payload_escaped, 0, "{name}/seed {seed:#x}: {sdc:?}");
            let rec = defended.recovery.clone().expect("recovery stats");
            assert_eq!(rec.duplicate_credits, 0, "{name}/seed {seed:#x}: {rec:?}");
            assert_eq!(
                defended.audit.expect("audit on").credits_paid + rec.late_credits,
                clean.audit.expect("audit on").credits_paid,
                "{name}/seed {seed:#x}: every edge must be paid exactly once: {rec:?}"
            );
            assert_eq!(defended.store, clean.store, "{name}/seed {seed:#x}");
        }
    }
    assert!(detected > 0, "no pinned seed corrupted a credit payload");
}

/// Leg 4: no corruption scheduled, no replication policy → the SDC
/// subsystem is invisible.
#[test]
fn defense_off_is_inert() {
    let (name, program) = golden_apps().remove(0);
    let plain = execute(&program, &RuntimeConfig::validate(4));
    assert!(plain.sdc.is_none(), "{name}: clean run must not carry SDC stats");
    let verify = index_launch::machine::Stage::Verify.index();
    assert_eq!(
        (plain.stage_busy.get(index_launch::machine::Stage::Verify).as_ns(),
         plain.stage_messages[verify],
         plain.stage_bytes[verify]),
        (0, 0, 0),
        "{name}: the verify stage must stay idle in a clean run"
    );
}

/// Leg 5: the default chaos mix (one crash, drops, duplicates, a slow
/// node) plus one corrupting node, with replicate-2 on. Replica
/// recruitment must skip the crashing node and votes must outlive a
/// re-shard of the group they belong to: zero escapes, stores equal to
/// the fault-free run, no task lost or added. Seed 2 re-shards on every
/// app, and its `[outcome, protocol counters]` are pinned as FNV-1a
/// hashes: the outcome over makespan, task count and per-stage busy
/// time; the counters over messages and bytes (in total and per sending
/// stage) and the SDC and recovery counters. A change that moves any
/// composed decision shows up here.
#[test]
fn crash_and_corruption_compose_under_defense() {
    const PINNED_SEED_2: [[u64; 2]; 3] = [
        [0x0b86_c046_ebaf_8171, 0x1ac6_aa00_0766_1dda],
        [0x0582_764a_82d9_f4aa, 0x0cd7_9a4a_758c_1530],
        [0xc0e0_afa8_0840_6995, 0x2b6c_68e8_858c_bd14],
    ];
    let mut seed_2 = Vec::new();
    for (name, program) in golden_apps().into_iter().take(3) {
        let clean = execute(&program, &RuntimeConfig::validate(4));
        for seed in [1_u64, 2, 3, 7, 0x2a, 0x5DC0] {
            let faults = FaultConfig {
                seed,
                spec: FaultSpec {
                    corrupt_nodes: 1,
                    corrupt_per_mille: 250,
                    corrupt_payload_per_mille: 125,
                    ..FaultSpec::default()
                },
            };
            let cfg = RuntimeConfig::validate(4)
                .with_fault_config(faults)
                .with_replication(ReplicationConfig::all(2));
            let report = execute(&program, &cfg);
            let sdc = report.sdc.clone().expect("SDC stats");
            let rec = report.recovery.clone().expect("recovery stats");
            assert_eq!(sdc.escaped, 0, "{name}/seed {seed:#x}: escaped the vote: {sdc:?}");
            assert_eq!(report.tasks, clean.tasks, "{name}/seed {seed:#x}: task count changed");
            assert_eq!(
                report.store, clean.store,
                "{name}/seed {seed:#x}: store diverged from fault-free ({sdc:?}, {rec:?})"
            );
            if seed == 2 {
                assert!(rec.resharded_groups > 0, "{name}/seed 2: no re-shard: {rec:?}");
                let busy: Vec<_> =
                    report.stage_busy.iter().map(|(s, t)| (s.name(), t.as_ns())).collect();
                let outcome = format!(
                    "makespan={} tasks={} busy={busy:?}",
                    report.makespan.as_ns(),
                    report.tasks
                );
                let counters = format!(
                    "messages={} bytes={} {:?} {:?} sdc={sdc:?} {rec:?}",
                    report.messages, report.bytes, report.stage_messages, report.stage_bytes
                );
                seed_2.push([fnv1a(outcome.as_bytes()), fnv1a(counters.as_bytes())]);
            }
        }
    }
    assert_eq!(seed_2, PINNED_SEED_2, "seed-2 composed fingerprints:\n{seed_2:#018x?}");
}

/// Acceptance corpus (release builds only — three validation-mode
/// executions per case): 500 seeded random programs through the
/// differential oracle's SDC leg. Every corrupted schedule with
/// replicate-2 defense must detect all flips and converge to the
/// fault-free store; any escape or divergence fails with the single
/// seed that reproduces it.
#[cfg(not(debug_assertions))]
#[test]
fn corpus_500_seeds_zero_escapes() {
    use il_oracle::{run_differential, DiffConfig};
    let report = run_differential(&DiffConfig {
        cases: 500,
        corrupt: Some(0x5DC0),
        ..DiffConfig::default()
    });
    assert!(
        report.divergences.is_empty(),
        "SDC corpus divergences: {:#?}",
        report.divergences
    );
    assert!(report.tasks > 0);
}
