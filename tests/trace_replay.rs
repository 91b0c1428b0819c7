//! Trace capture & replay must be pure memoization of the expansion
//! pipeline: with replay on (the default) and off, every program
//! produces identical verdicts, identical dependence structure,
//! identical simulated time — byte-identical [`RunReport::stage_json`]
//! output and identical final instance data. The only permitted
//! difference is the host-side [`TraceReplayStats`] accounting.
//!
//! Locked in over the 500-seed differential-oracle corpus, the four
//! safety-matrix applications (swept across the dcr × idx × tracing
//! axes), a pinned capture → replay → invalidate lifecycle on a
//! hand-built iterative program, and pool-width invariance of replayed
//! runs.

use il_oracle::generate_program;
use il_testkit::SplitMix64;
use index_launch::machine::{SimTime, Stage};
use index_launch::prelude::*;
use index_launch::runtime::{
    execute, expand_program, CostSpec, ExpandedProgram, IndexLaunchDesc, Program, ProgramBuilder,
    RegionReq, RunReport, RuntimeConfig, TraceMarkKind, TraceReplayStats,
};
use index_launch::runtime::pool::par_map;

const NODES: usize = 2;

/// Everything observable about a run, as one comparable value. String
/// rather than struct so assertion failures print the full diff.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "makespan={} tasks={} messages={} bytes={} dyn={} stages={}",
        r.makespan.as_ns(),
        r.tasks,
        r.messages,
        r.bytes,
        r.dynamic_check_time.as_ns(),
        r.stage_json(),
    )
}

/// Execute `program` with replay on and off and assert the runs are
/// observationally identical. Returns the replay-on stats.
fn assert_replay_transparent(
    name: &str,
    program: &Program,
    cfg_on: &RuntimeConfig,
) -> TraceReplayStats {
    let cfg_off = cfg_on.clone().with_trace_replay(false);

    let exp_on = expand_program(program, cfg_on);
    let exp_off = expand_program(program, &cfg_off);
    assert_eq!(exp_on.safety, exp_off.safety, "{name}: verdicts differ with replay on/off");
    assert_eq!(exp_on.len(), exp_off.len(), "{name}: task counts differ");

    let on = execute(program, cfg_on);
    let off = execute(program, &cfg_off);
    assert_eq!(
        fingerprint(&on),
        fingerprint(&off),
        "{name}: observable run differs with replay on/off"
    );
    assert_eq!(on.store, off.store, "{name}: final data differs with replay on/off");

    // The off run must be a true control: subsystem disabled, dormant.
    assert!(!off.trace_replay.enabled, "{name}: off run reports replay enabled");
    assert_eq!(
        (off.trace_replay.captured, off.trace_replay.replayed, off.trace_replay.invalidated),
        (0, 0, 0),
        "{name}: off run did trace work"
    );
    assert!(on.trace_replay.enabled, "{name}: on run reports replay disabled");
    on.trace_replay
}

/// 500 seeded random launch programs (the differential-oracle corpus
/// generator): replay on and off agree everywhere. (The generator
/// rarely produces a periodic launch sequence, so replay counts are
/// not asserted here — the iterative-apps test below pins that replay
/// actually fires.)
#[test]
fn corpus_runs_identically_with_replay_on_and_off() {
    for case in 0..500u64 {
        let seed = SplitMix64::mix(0xCAC4E, case);
        let program = generate_program(seed);
        assert_replay_transparent(
            &format!("seed {seed:#x}"),
            &program,
            &RuntimeConfig::scale(NODES),
        );
    }
}

/// The four safety-matrix applications in validation mode (real
/// kernels, final data compared). The iterative apps re-issue the same
/// launch sequence every timestep, so traces must actually replay; the
/// equivalence assertions prove the replays change nothing observable.
#[test]
fn safety_matrix_apps_run_identically_with_replay_on_and_off() {
    use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};

    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 6,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 5,
        ..circuit::CircuitConfig::tiny(4)
    });
    let soleil = soleil::build(&soleil::SoleilConfig {
        iterations: 4,
        ..soleil::SoleilConfig::tiny((2, 1, 1))
    });
    let amr = amr::build(&amr::AmrConfig::tiny());
    let pagerank = pagerank::build(&pagerank::PagerankConfig::tiny(4));
    let opaque = opaque_program();

    for (name, program, want_replay) in [
        ("stencil", &stencil.program, true),
        ("circuit", &circuit.program, true),
        ("soleil", &soleil.program, true),
        // AMR invalidates at every regrid boundary but replays within
        // each epoch; pagerank replays its dynamic-verdict loop whole.
        ("amr", &amr.program, true),
        ("pagerank", &pagerank.program, true),
        ("opaque", &opaque, false),
    ] {
        let stats = assert_replay_transparent(name, program, &RuntimeConfig::validate(4));
        if want_replay {
            assert!(stats.captured > 0, "{name}: iterative app never captured a trace");
            assert!(stats.replayed > 0, "{name}: iterative app never replayed a trace");
            assert!(stats.analyses_skipped > 0, "{name}: replay skipped no analyses");
        }
    }
}

/// Replay transparency holds on every cell of the evaluation's
/// configuration space: dcr × idx × tracing, at scale-mode node counts.
/// (Legion-style tracing reattributes logical-analysis time to
/// [`Stage::TraceReplay`] identically on both sides, so stage reports
/// still match byte-for-byte.)
#[test]
fn replay_is_transparent_across_dcr_idx_tracing_axes() {
    use index_launch::apps::{amr, circuit, pagerank, stencil};

    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 6,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 4,
        ..circuit::CircuitConfig::tiny(4)
    });
    let amr = amr::build(&amr::AmrConfig {
        epochs: 2,
        ..amr::AmrConfig::tiny()
    });
    let pagerank = pagerank::build(&pagerank::PagerankConfig::tiny(4));

    for (name, program) in [
        ("stencil", &stencil.program),
        ("circuit", &circuit.program),
        ("amr", &amr.program),
        ("pagerank", &pagerank.program),
    ] {
        for dcr in [false, true] {
            for idx in [false, true] {
                for tracing in [false, true] {
                    let cfg = RuntimeConfig::scale(8).with_axes(dcr, idx).with_tracing(tracing);
                    assert_replay_transparent(
                        &format!("{name} dcr={dcr} idx={idx} tracing={tracing}"),
                        program,
                        &cfg,
                    );
                }
            }
        }
    }
}

/// A hand-built iterative program: one setup launch, then `clean`
/// iterations of a two-launch loop body, then `mutated` iterations
/// whose second launch uses a different projection functor (the
/// paper's "any change to the loop body invalidates the trace" case).
/// 8-point launches over an 8-piece partition of a 32-cell region.
fn iterative_program(clean: usize, mutated: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("f", FieldKind::F64);
    let g = fsd.add("g", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let init = b.task_modeled("init");
    let step_w = b.task_modeled("step_w");
    let step_r = b.task_modeled("step_r");
    let identity = b.identity_functor();
    let shift1 = b.functor(ProjExpr::Modular { a: 1, b: 1, m: 8 });
    let shift2 = b.functor(ProjExpr::Modular { a: 1, b: 2, m: 8 });

    let req = |functor, privilege, field| RegionReq {
        partition: blocks,
        functor,
        privilege,
        fields: vec![field],
        tree: region.tree,
        field_space: fs,
    };
    let launch = |b: &mut ProgramBuilder, task, reqs| {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(8),
            reqs,
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    };

    launch(&mut b, init, vec![req(identity, Privilege::Write, f)]);
    for iter in 0..clean + mutated {
        let shift = if iter < clean { shift1 } else { shift2 };
        launch(&mut b, step_w, vec![req(identity, Privilege::Write, f)]);
        launch(
            &mut b,
            step_r,
            vec![req(identity, Privilege::Read, f), req(shift, Privilege::Write, g)],
        );
    }
    b.build()
}

/// Pinned lifecycle, clean loop: setup + 6 identical iterations of a
/// 2-launch body. The rolling window detects the period at op 3
/// (`keys[1..3] == keys[3..5]`), captures that window while expanding
/// it normally, and replays the remaining 4 iterations — skipping 8
/// launch analyses and splicing in 64 point tasks. Nothing ever
/// invalidates.
#[test]
fn pinned_lifecycle_capture_then_steady_replay() {
    let program = iterative_program(6, 0);
    let cfg = RuntimeConfig::scale(NODES);
    let exp = expand_program(&program, &cfg);

    assert_eq!(
        exp.trace_replay,
        TraceReplayStats {
            enabled: true,
            captured: 1,
            replayed: 4,
            invalidated: 0,
            analyses_skipped: 8,
            tasks_replayed: 64,
            abandoned: 0,
        },
        "clean iterative loop: lifecycle counts drifted"
    );
    let marks: Vec<_> = exp.trace_marks.iter().map(|m| (m.op, m.len, m.kind)).collect();
    assert_eq!(
        marks,
        vec![
            (3, 2, TraceMarkKind::Captured),
            (5, 2, TraceMarkKind::Replayed),
            (7, 2, TraceMarkKind::Replayed),
            (9, 2, TraceMarkKind::Replayed),
            (11, 2, TraceMarkKind::Replayed),
        ],
        "clean iterative loop: mark sequence drifted"
    );

    // The report carries the same stats (no faults, so the simulated
    // run adds no invalidations), and the run itself is transparent.
    let stats = assert_replay_transparent("pinned-clean", &program, &cfg);
    assert_eq!(stats, exp.trace_replay);
}

/// Pinned lifecycle, mutated loop: 4 clean iterations then 3 whose
/// second launch swaps its projection functor. The stored trace is
/// invalidated the moment its first key reappears with a different
/// continuation (op 9), the new body is re-captured (op 11), and
/// steady-state replay resumes — never a stale replay.
#[test]
fn pinned_lifecycle_mutation_invalidates_and_recaptures() {
    let program = iterative_program(4, 3);
    let cfg = RuntimeConfig::scale(NODES);
    let exp = expand_program(&program, &cfg);

    assert_eq!(
        exp.trace_replay,
        TraceReplayStats {
            enabled: true,
            captured: 2,
            replayed: 3,
            invalidated: 1,
            analyses_skipped: 6,
            tasks_replayed: 48,
            abandoned: 0,
        },
        "mutated iterative loop: lifecycle counts drifted"
    );
    let marks: Vec<_> = exp.trace_marks.iter().map(|m| (m.op, m.len, m.kind)).collect();
    assert_eq!(
        marks,
        vec![
            (3, 2, TraceMarkKind::Captured),
            (5, 2, TraceMarkKind::Replayed),
            (7, 2, TraceMarkKind::Replayed),
            (9, 1, TraceMarkKind::Invalidated),
            (11, 2, TraceMarkKind::Captured),
            (13, 2, TraceMarkKind::Replayed),
        ],
        "mutated iterative loop: mark sequence drifted"
    );

    assert_replay_transparent("pinned-mutated", &program, &cfg);
}

/// Pinned lifecycle on the AMR application's regrid cadence (tiny: 3
/// epochs of 4 timesteps, alternating the coarse and fine partition
/// pair). Each timestep issues the same 3-launch body (flag, step,
/// copy), so the rolling window captures one iteration per epoch; at
/// every regrid boundary the epoch-invariant `flag` launch re-issues
/// the stored trace's first key with a *different* continuation (the
/// step/copy launches switch partition pairs), so the trace is
/// invalidated and the new epoch's body re-captured — exactly one
/// invalidation per regrid, never a stale replay. Counter- and
/// mark-pinned so a drift in capture cadence, invalidation placement,
/// or replay coverage shows up as a diff here.
#[test]
fn pinned_amr_regrid_lifecycle_invalidates_and_recaptures() {
    use index_launch::apps::amr;

    let app = amr::build(&amr::AmrConfig::tiny());
    let cfg = RuntimeConfig::validate(4);
    let exp = expand_program(&app.program, &cfg);

    assert_eq!(
        exp.trace_replay,
        TraceReplayStats {
            enabled: true,
            captured: 3,
            replayed: 6,
            invalidated: 2,
            analyses_skipped: 18,
            tasks_replayed: 66,
            abandoned: 0,
        },
        "amr regrid cadence: lifecycle counts drifted"
    );
    let marks: Vec<_> = exp.trace_marks.iter().map(|m| (m.op, m.len, m.kind)).collect();
    assert_eq!(
        marks,
        vec![
            // Epoch 0 (coarse): capture at the loop's first repetition,
            // replay the remaining two timesteps (9 tasks per window).
            (4, 3, TraceMarkKind::Captured),
            (7, 3, TraceMarkKind::Replayed),
            (10, 3, TraceMarkKind::Replayed),
            // Regrid to fine: `flag`'s key reappears with a different
            // continuation — invalidate, then re-capture the fine body
            // (15 tasks per window: 3 flag + 6 step + 6 copy).
            (13, 1, TraceMarkKind::Invalidated),
            (16, 3, TraceMarkKind::Captured),
            (19, 3, TraceMarkKind::Replayed),
            (22, 3, TraceMarkKind::Replayed),
            // Regrid back to coarse: the fine trace dies the same way.
            (25, 1, TraceMarkKind::Invalidated),
            (28, 3, TraceMarkKind::Captured),
            (31, 3, TraceMarkKind::Replayed),
            (34, 3, TraceMarkKind::Replayed),
        ],
        "amr regrid cadence: mark sequence drifted"
    );

    // And the whole cadence is observationally replay-transparent.
    let stats = assert_replay_transparent("amr", &app.program, &cfg);
    assert_eq!(stats, exp.trace_replay);
}

/// The lifecycle marks of an expansion as `(op, len, kind)`.
fn marks_of(exp: &ExpandedProgram) -> Vec<(u32, u32, TraceMarkKind)> {
    exp.trace_marks.iter().map(|m| (m.op, m.len, m.kind)).collect()
}

/// Everything an expansion hands the executor, as one comparable value.
fn expansion_bytes(e: &ExpandedProgram) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        e.tasks, e.op_tasks, e.safety, e.deps, e.succs, e.copies, e.dist
    )
}

/// AMR at the benchmark's cadence: 4 epochs of 4 timesteps. At op 25 the
/// rolling window also sees the two-epoch super-period (`keys[1..25] ==
/// keys[25..49]`), but those 24 ops are the last of the program, so a
/// trace of them could never be replayed: it is not captured, and every
/// epoch after the first two is captured and replayed like the first two
/// instead of being swallowed by it.
#[test]
fn pinned_amr_four_epochs_capture_every_epoch() {
    use index_launch::apps::amr;
    use TraceMarkKind::{Captured, Invalidated, Replayed};

    let app = amr::build(&amr::AmrConfig { epochs: 4, ..amr::AmrConfig::tiny() });
    let cfg = RuntimeConfig::validate(4);
    let exp = expand_program(&app.program, &cfg);
    assert_eq!(
        marks_of(&exp),
        vec![
            (4, 3, Captured),
            (7, 3, Replayed),
            (10, 3, Replayed),
            (13, 1, Invalidated),
            (16, 3, Captured),
            (19, 3, Replayed),
            (22, 3, Replayed),
            (25, 1, Invalidated),
            (28, 3, Captured),
            (31, 3, Replayed),
            (34, 3, Replayed),
            (37, 1, Invalidated),
            (40, 3, Captured),
            (43, 3, Replayed),
            (46, 3, Replayed),
        ],
        "amr, 4 epochs: mark sequence drifted"
    );
    assert_eq!(exp.trace_replay.abandoned, 0);
    assert_replay_transparent("amr-4-epochs", &app.program, &cfg);
}

/// A window is captured only if its keys recur later in the program: the
/// second (and last) iteration of a two-iteration loop is the rolling
/// window's first match and nothing could replay a trace of it, so the
/// recorder leaves no trace, no count and no mark, and the expansion is
/// the replay-off expansion.
#[test]
fn two_iteration_loop_captures_nothing() {
    let program = iterative_program(2, 0);
    let cfg = RuntimeConfig::scale(NODES);
    let exp = expand_program(&program, &cfg);
    assert_eq!(
        exp.trace_replay,
        TraceReplayStats { enabled: true, ..TraceReplayStats::default() }
    );
    assert_eq!(marks_of(&exp), vec![]);
    let off = expand_program(&program, &cfg.clone().with_trace_replay(false));
    assert_eq!(expansion_bytes(&exp), expansion_bytes(&off));
}

/// A loop whose write partially covers a halo that a later launch of
/// the loop body reads: the halo is never closed, so its readers
/// accumulate (an append member), while the same reader is also a
/// dependence through the region it writes, which the window rewrites
/// (a full member). One dependence is then pinned both relative to the
/// window and absolutely, and the capture must be abandoned.
fn ambiguous_pin_program(iterations: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("f", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let grid = b.forest.create_region(Domain::range(8), fs);
    let flag = b.forest.create_region(Domain::range(1), fs);
    let blocks = equal_partition_1d(&mut b.forest, grid.space, 2);
    let halo = coloring_partition(
        &mut b.forest,
        grid.space,
        Domain::range(1),
        vec![(DomainPoint::new1(0), Domain::from(Rect::new1(2, 5)))],
    );
    let whole = equal_partition_1d(&mut b.forest, flag.space, 1);
    let write_block = b.task_modeled("write_block");
    let read_halo = b.task_modeled("read_halo");
    let identity = b.identity_functor();
    let req = |partition, privilege, tree| RegionReq {
        partition,
        functor: identity,
        privilege,
        fields: vec![f],
        tree,
        field_space: fs,
    };
    for _ in 0..iterations {
        for (task, reqs) in [
            (write_block, vec![req(blocks, Privilege::Write, grid.tree), req(whole, Privilege::Read, flag.tree)]),
            (read_halo, vec![req(halo, Privilege::Read, grid.tree), req(whole, Privilege::Write, flag.tree)]),
        ] {
            b.index_launch(IndexLaunchDesc {
                task,
                domain: Domain::range(1),
                reqs,
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::us(10)),
                shard: None,
            });
        }
    }
    b.build()
}

/// AMR at 6 epochs: the two-epoch super-period at op 25 recurs at op 49,
/// so it is captured, and it replays there: the regrid's halo readers
/// are closed by the covering writes, so no dependence is pinned both
/// relative to the window and absolutely. An abandoned capture stays
/// visible, as one `Abandoned` mark and one count per window:
/// [`ambiguous_pin_program`] abandons every window it captures.
#[test]
fn pinned_amr_six_epochs_abandoned_capture_is_visible() {
    use index_launch::apps::amr;
    use TraceMarkKind::{Abandoned, Captured, Invalidated, Replayed};

    let program = ambiguous_pin_program(4);
    let cfg = RuntimeConfig::scale(NODES);
    let exp = expand_program(&program, &cfg);
    assert_eq!(marks_of(&exp), vec![(2, 2, Abandoned), (4, 2, Abandoned)]);
    assert_eq!(
        exp.trace_replay,
        TraceReplayStats { enabled: true, abandoned: 2, ..TraceReplayStats::default() }
    );
    let stats = assert_replay_transparent("ambiguous-pin", &program, &cfg);
    assert_eq!(stats, exp.trace_replay);

    let app = amr::build(&amr::AmrConfig { epochs: 6, ..amr::AmrConfig::tiny() });
    let cfg = RuntimeConfig::validate(4);
    let exp = expand_program(&app.program, &cfg);
    assert_eq!(
        marks_of(&exp),
        vec![
            (4, 3, Captured),
            (7, 3, Replayed),
            (10, 3, Replayed),
            (13, 1, Invalidated),
            (16, 3, Captured),
            (19, 3, Replayed),
            (22, 3, Replayed),
            (25, 1, Invalidated),
            (25, 24, Captured),
            (49, 24, Replayed),
        ],
        "amr, 6 epochs: mark sequence drifted"
    );
    assert_eq!(
        exp.trace_replay,
        TraceReplayStats {
            enabled: true,
            captured: 3,
            replayed: 5,
            invalidated: 2,
            analyses_skipped: 36,
            tasks_replayed: 144,
            abandoned: 0,
        }
    );
    let stats = assert_replay_transparent("amr-6-epochs", &app.program, &cfg);
    assert_eq!(stats, exp.trace_replay);
}

/// AMR's regrid cadence against the trace machinery: 16 timesteps as 8
/// epochs of 2, 4 of 4 or 2 of 8. Every cadence captures and sees its
/// regrids invalidate; the shortest epoch is too short to replay a
/// per-timestep capture before the regrid kills it (what it replays is
/// the two-epoch regrid super-period), the longest replays most
/// launches, and whole-trace replays per capture grow with the cadence.
/// The counts are a pure function of the config.
#[test]
fn amr_cadence_counts_are_deterministic_and_monotone() {
    use index_launch::apps::amr;

    let sweep = || -> Vec<_> {
        [2usize, 4, 8]
            .into_iter()
            .map(|cadence| {
                let app = amr::build(&amr::AmrConfig {
                    cells: 1 << 20,
                    base_blocks: 8,
                    refine_factor: 4,
                    steps_per_epoch: cadence,
                    epochs: 16 / cadence,
                    ..amr::AmrConfig::weak(4)
                });
                let exp = expand_program(&app.program, &RuntimeConfig::scale(4));
                let replayed_ops = exp.replayed_ops.iter().filter(|&&r| r).count();
                let marks = exp.trace_marks.clone();
                (cadence, exp.trace_replay, exp.analysis_cache, exp.replayed_ops.len(), replayed_ops, marks)
            })
            .collect()
    };
    let a = sweep();
    for (cadence, stats, ..) in &a {
        assert!(stats.invalidated >= 1, "cadence {cadence}: regrids must invalidate");
        assert!(stats.captured >= 1, "cadence {cadence}: nothing captured");
    }
    let marks = &a[0].5;
    let per_step = marks.iter().find(|m| m.kind == TraceMarkKind::Captured).expect("cadence 2 captures").len;
    assert!(
        marks.iter().filter(|m| m.kind == TraceMarkKind::Replayed).all(|m| m.len > per_step),
        "cadence 2 must never replay a per-timestep capture: {marks:?}"
    );
    let (_, _, _, ops, replayed_ops, _) = a[2];
    assert!(replayed_ops * 2 > ops, "the longest cadence must replay most launches");
    let per_capture: Vec<f64> =
        a.iter().map(|(_, s, ..)| s.replayed as f64 / s.captured.max(1) as f64).collect();
    assert!(
        per_capture.windows(2).all(|w| w[0] <= w[1]),
        "replays per capture must grow with cadence: {per_capture:?}"
    );
    assert_eq!(a, sweep());
}

/// Capture/replay/invalidate markers surface in the execution trace as
/// zero-duration [`Stage::TraceReplay`] events at the issuing
/// frontier, one per mark, in op order.
#[test]
fn lifecycle_markers_surface_in_trace_log() {
    let program = iterative_program(6, 0);
    let report = execute(&program, &RuntimeConfig::scale(NODES).with_trace(true));
    let trace = report.trace.as_ref().expect("trace requested");
    let markers: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.stage == Stage::TraceReplay && e.duration == SimTime::ZERO)
        .map(|e| e.op)
        .collect();
    assert_eq!(markers, vec![3, 5, 7, 9, 11], "one marker event per lifecycle mark");
}

/// The host-side accounting is bookkeeping only: none of it leaks into
/// the wire-format stage report that equivalence tiers compare.
#[test]
fn replay_stats_stay_out_of_stage_json() {
    let program = iterative_program(6, 0);
    let report = execute(&program, &RuntimeConfig::scale(NODES));
    assert!(report.trace_replay.replayed > 0);
    let json = report.stage_json().to_string();
    for key in ["captured", "replayed", "invalidated", "analyses_skipped", "tasks_replayed", "abandoned"] {
        assert!(!json.contains(key), "stage_json leaked replay stat {key:?}: {json}");
    }
}

/// Replayed runs are thread-count invariant: fanning the corpus and the
/// pinned iterative program over worker pools of different widths
/// yields identical fingerprints in identical order (each simulation is
/// a pure function of its inputs; the pool maps results back in
/// submission order).
#[test]
fn replayed_runs_are_pool_width_invariant() {
    let sweep = |threads: usize| -> Vec<String> {
        let mut jobs: Vec<Box<dyn FnOnce() -> String + Send>> = (0..8_u64)
            .map(|case| {
                Box::new(move || {
                    let program = generate_program(SplitMix64::mix(0xCAC4E, case));
                    fingerprint(&execute(&program, &RuntimeConfig::scale(NODES)))
                }) as Box<dyn FnOnce() -> String + Send>
            })
            .collect();
        jobs.push(Box::new(|| {
            let program = iterative_program(6, 0);
            fingerprint(&execute(&program, &RuntimeConfig::scale(NODES)))
        }));
        par_map(threads, jobs)
    };
    let one = sweep(1);
    let four = sweep(4);
    assert_eq!(one, four, "replayed sweep must not depend on pool width");
}

/// An opaque-functor program (from the safety matrix): one identity
/// launch and one opaque reversed-write launch, forcing the dynamic
/// check path; aperiodic, so no trace ever captures.
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
