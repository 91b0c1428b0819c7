//! Differential oracle: the fast path (hybrid verdicts + depgraph
//! expansion) must agree with the desugared-launch reference executor on
//! a seeded random corpus — identical verdict classes, equal dependence
//! closures, identical serial makespans — and on the real applications.
//!
//! Every case is a pure function of one seed; a failure message carries
//! the seed, and `ilaunch fuzz --repro <seed>` replays exactly that case.

use il_apps::{amr, circuit, pagerank, stencil};
use il_oracle::{check_program, run_case, run_differential, DiffConfig};

const NODES: usize = 2;

/// The CI corpus: 500 seeded random launch programs, zero divergences,
/// and every `HybridVerdict` / `UnsafeReason` class exercised at least
/// once (SafeStatic, passing dynamic check, dynamic conflict, aliased
/// write, non-injective write, conflicting images, cross-partition).
/// Every case also re-executes under a seeded survivable fault schedule
/// (`faults`): same task count, makespan ≥ fault-free, byte-identical
/// replay. The corpus must exercise the oracle's close with trace replay
/// on: at least one close that retired a reader.
#[test]
fn corpus_has_no_divergence_and_covers_every_verdict_class() {
    let cfg = DiffConfig {
        cases: 500,
        seed: 0x5EED_CA5E,
        nodes: NODES,
        inject: false,
        threads: 0,
        faults: Some(0xFA17_5EED),
        corrupt: None,
    };
    let report = run_differential(&cfg);
    for d in &report.divergences {
        eprintln!("DIVERGENCE {d}");
        eprintln!("  reproduce: ilaunch fuzz --repro {:#x}", d.seed);
    }
    assert!(
        report.divergences.is_empty(),
        "{} of {} cases diverged (seeds above)",
        report.divergences.len(),
        report.cases
    );
    assert!(
        report.coverage.complete(),
        "corpus never exercised: {:?}\n{}",
        report.coverage.missing(),
        report.coverage
    );
    assert!(report.tasks > 1000, "corpus suspiciously small: {} tasks", report.tasks);
    assert!(report.closes.closes > 0, "corpus never closed a covered space: {:?}", report.closes);
}

/// Injected divergences (a one-second cost perturbation in the oracle)
/// must be caught in every case, and each must reproduce byte-identically
/// from the printed seed alone — no corpus context needed. The same seed
/// without injection must be clean, proving the flag (not the seed) is
/// what diverges.
#[test]
fn injected_divergence_reproduces_from_the_printed_seed_alone() {
    let cfg = DiffConfig {
        cases: 16,
        seed: 0xBAD_CA5E,
        nodes: NODES,
        inject: true,
        threads: 0,
        faults: None,
        corrupt: None,
    };
    let report = run_differential(&cfg);
    assert_eq!(
        report.divergences.len(),
        16,
        "every injected case must diverge; only {} did",
        report.divergences.len()
    );
    for d in &report.divergences {
        let replay = run_case(d.seed, NODES, true, None, None);
        assert_eq!(
            replay.error.as_deref(),
            Some(d.detail.as_str()),
            "seed {:#x} did not reproduce the identical divergence",
            d.seed
        );
        let clean = run_case(d.seed, NODES, false, None, None);
        assert_eq!(
            clean.error, None,
            "seed {:#x} diverges even without injection",
            d.seed
        );
    }
}

/// The oracle agrees with the fast path on the paper's real applications
/// (tiny problem sizes — the reference executor materializes every
/// element access).
#[test]
fn oracle_agrees_on_real_applications() {
    let stencil_app = stencil::build(&stencil::StencilConfig::tiny((2, 2)));
    check_program(&stencil_app.program, NODES)
        .unwrap_or_else(|e| panic!("stencil diverged: {e}"));

    let circuit_app = circuit::build(&circuit::CircuitConfig::tiny(2));
    check_program(&circuit_app.program, NODES)
        .unwrap_or_else(|e| panic!("circuit diverged: {e}"));

    // The regrid cadence: partition-cycling launches must desugar to the
    // same dependence closure the fast path plans across epoch
    // boundaries (where the cross-partition copies the PR-10 staleness
    // fix governs are emitted).
    let amr_app = amr::build(&amr::AmrConfig {
        epochs: 2,
        steps_per_epoch: 2,
        ..amr::AmrConfig::tiny()
    });
    check_program(&amr_app.program, NODES).unwrap_or_else(|e| panic!("amr diverged: {e}"));

    // Every pagerank update launch takes the dynamic-check path; the
    // oracle must still see the identical verdict class and closure.
    let pagerank_app = pagerank::build(&pagerank::PagerankConfig::tiny(2));
    check_program(&pagerank_app.program, NODES)
        .unwrap_or_else(|e| panic!("pagerank diverged: {e}"));
}
