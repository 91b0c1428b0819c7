//! A systematic matrix of launch-safety scenarios, cross-validated two
//! ways: the hybrid analysis verdict (§3–4) against a brute-force
//! interference oracle that enumerates every pair of point tasks and
//! checks for overlapping accesses with conflicting privileges.
//!
//! This is the strongest soundness check in the suite: whenever the
//! hybrid analysis says "index launch" (statically or after a dynamic
//! check), the oracle must find zero interference; whenever the oracle
//! finds interference, the analysis must have rejected the launch.

use index_launch::analysis::{analyze_launch, HybridVerdict, LaunchArg, ProjExpr};
use index_launch::prelude::*;
use index_launch::region::{domains_overlap, IndexPartitionId, RegionForest, ReductionKind};

struct World {
    forest: RegionForest,
    /// 40 elements split into 8 disjoint blocks.
    disjoint: IndexPartitionId,
    /// Aliased halo-ish partition of the same region.
    aliased: IndexPartitionId,
    /// Disjoint partition of an unrelated region.
    other: IndexPartitionId,
}

fn world() -> World {
    let mut forest = RegionForest::new();
    let mut fsd = FieldSpaceDesc::new();
    fsd.add("a", FieldKind::F64);
    fsd.add("b", FieldKind::F64);
    let fs = forest.create_field_space(fsd);
    let r1 = forest.create_region(Domain::range(40), fs);
    let r2 = forest.create_region(Domain::range(40), fs);
    let disjoint = equal_partition_1d(&mut forest, r1.space, 8);
    let aliased = {
        let coloring: Vec<_> = (0..8i64)
            .map(|c| {
                let lo = (c * 5 - 1).max(0);
                let hi = ((c + 1) * 5).min(39);
                (
                    index_launch::geometry::DomainPoint::new1(c),
                    Domain::Rect1(index_launch::geometry::Rect::new1(lo, hi)),
                )
            })
            .collect();
        forest.create_partition(
            r1.space,
            Domain::range(8),
            coloring,
            index_launch::region::Disjointness::Aliased,
        )
    };
    let other = equal_partition_1d(&mut forest, r2.space, 8);
    World { forest, disjoint, aliased, other }
}

/// Brute-force interference oracle: materialize every task's accesses and
/// test all pairs.
fn interferes(w: &World, domain: &Domain, args: &[LaunchArg]) -> bool {
    let tasks: Vec<Vec<(Domain, Privilege)>> = domain
        .iter()
        .map(|point| {
            args.iter()
                .map(|arg| {
                    let color = arg.functor.eval(point);
                    let space = w
                        .forest
                        .try_subspace(arg.partition, color)
                        .expect("in-bounds color");
                    (w.forest.domain(space).clone(), arg.privilege)
                })
                .collect()
        })
        .collect();
    for i in 0..tasks.len() {
        for j in (i + 1)..tasks.len() {
            for (da, pa) in &tasks[i] {
                for (db, pb) in &tasks[j] {
                    if !pa.parallel_with(pb) && domains_overlap(da, db) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn check_agreement(w: &World, name: &str, domain: &Domain, args: Vec<LaunchArg>) {
    let verdict = analyze_launch(&w.forest, domain, &args);
    let launchable = match &verdict {
        HybridVerdict::SafeStatic => true,
        HybridVerdict::NeedsDynamic(plan) => plan.run().is_ok(),
        HybridVerdict::Unsafe(_) => false,
    };
    let oracle_interferes = interferes(w, domain, &args);
    if launchable {
        assert!(
            !oracle_interferes,
            "{name}: analysis accepted an interfering launch ({verdict:?})"
        );
    }
    // The converse (analysis rejecting a non-interfering launch) is
    // allowed — the analysis is conservative — but for the *statically
    // decidable* cases in this matrix we also assert completeness where
    // the paper's rules guarantee it.
}

fn arg(p: IndexPartitionId, f: ProjExpr, privilege: Privilege) -> LaunchArg {
    LaunchArg { partition: p, functor: f, privilege, fields: vec![] }
}

#[test]
fn safety_matrix_agrees_with_oracle() {
    let w = world();
    let d8 = Domain::range(8);
    let d5 = Domain::range(5);
    let sum = Privilege::Reduce(ReductionKind::Sum.id());
    let min = Privilege::Reduce(ReductionKind::Min.id());

    let scenarios: Vec<(&str, Domain, Vec<LaunchArg>)> = vec![
        ("identity write", d8.clone(), vec![arg(w.disjoint, ProjExpr::Identity, Privilege::Write)]),
        ("identity rw", d8.clone(), vec![arg(w.disjoint, ProjExpr::Identity, Privilege::ReadWrite)]),
        ("aliased read", d8.clone(), vec![arg(w.aliased, ProjExpr::Identity, Privilege::Read)]),
        ("aliased write", d8.clone(), vec![arg(w.aliased, ProjExpr::Identity, Privilege::Write)]),
        ("aliased reduce", d8.clone(), vec![arg(w.aliased, ProjExpr::Identity, sum)]),
        (
            "modular write safe",
            d5.clone(),
            vec![arg(w.disjoint, ProjExpr::Modular { a: 1, b: 0, m: 8 }, Privilege::Write)],
        ),
        (
            "modular write unsafe",
            d8.clone(),
            vec![arg(w.disjoint, ProjExpr::Modular { a: 1, b: 0, m: 5 }, Privilege::Write)],
        ),
        (
            "opaque reverse write",
            d8.clone(),
            vec![arg(
                w.disjoint,
                ProjExpr::opaque(|p| index_launch::geometry::DomainPoint::new1(7 - p.x())),
                Privilege::Write,
            )],
        ),
        (
            "opaque colliding write",
            d8.clone(),
            vec![arg(
                w.disjoint,
                ProjExpr::opaque(|p| index_launch::geometry::DomainPoint::new1(p.x() / 2)),
                Privilege::Write,
            )],
        ),
        (
            "read + shifted write, images disjoint",
            Domain::range(4),
            vec![
                arg(w.disjoint, ProjExpr::Identity, Privilege::Write),
                arg(w.disjoint, ProjExpr::linear(1, 4), Privilege::Read),
            ],
        ),
        (
            "read + same-functor write",
            d8.clone(),
            vec![
                arg(w.disjoint, ProjExpr::Identity, Privilege::Write),
                arg(w.disjoint, ProjExpr::Identity, Privilege::Read),
            ],
        ),
        (
            "reduce + reduce same op",
            d8.clone(),
            vec![
                arg(w.disjoint, ProjExpr::Identity, sum),
                arg(w.disjoint, ProjExpr::Modular { a: 1, b: 3, m: 8 }, sum),
            ],
        ),
        (
            "reduce + reduce different op",
            d8.clone(),
            vec![
                arg(w.disjoint, ProjExpr::Identity, sum),
                arg(w.disjoint, ProjExpr::Identity, min),
            ],
        ),
        (
            "write + read of different regions",
            d8.clone(),
            vec![
                arg(w.disjoint, ProjExpr::Identity, Privilege::Write),
                arg(w.other, ProjExpr::Identity, Privilege::Read),
            ],
        ),
        (
            "write blocks + read aliased of same region",
            d8.clone(),
            vec![
                arg(w.disjoint, ProjExpr::Identity, Privilege::Write),
                arg(w.aliased, ProjExpr::Identity, Privilege::Read),
            ],
        ),
        (
            "interleaved writer/reader (dynamic)",
            Domain::range(4),
            vec![
                arg(w.disjoint, ProjExpr::linear(2, 0), Privilege::Write),
                arg(w.disjoint, ProjExpr::linear(2, 1), Privilege::Read),
            ],
        ),
    ];

    for (name, domain, args) in scenarios {
        check_agreement(&w, name, &domain, args);
    }
}

/// Statically decidable acceptances the paper's rules guarantee.
#[test]
fn expected_static_verdicts() {
    let w = world();
    let d8 = Domain::range(8);
    let cases: Vec<(Vec<LaunchArg>, bool)> = vec![
        (vec![arg(w.disjoint, ProjExpr::Identity, Privilege::Write)], true),
        (vec![arg(w.aliased, ProjExpr::Identity, Privilege::Read)], true),
        (
            vec![arg(w.aliased, ProjExpr::Identity, Privilege::Write)],
            false,
        ),
        (
            vec![arg(w.disjoint, ProjExpr::Constant(DomainPoint::new1(3)), Privilege::Write)],
            false,
        ),
    ];
    for (args, expect_safe) in cases {
        let v = analyze_launch(&w.forest, &d8, &args);
        match (expect_safe, &v) {
            (true, HybridVerdict::SafeStatic) => {}
            (false, HybridVerdict::Unsafe(_)) => {}
            _ => panic!("unexpected verdict {v:?} for {args:?}"),
        }
    }
}

/// End-to-end golden safety matrix over the three applications: every
/// launch the apps issue must clear the hybrid analysis — statically or
/// via the Listing-3 dynamic self-/cross-checks reporting
/// non-interference — and the per-app static/dynamic split is pinned so
/// an analysis regression (e.g. the static rules silently weakening and
/// dumping everything onto the dynamic path) shows up as a diff here.
#[test]
fn apps_clear_safety_matrix_end_to_end() {
    use index_launch::runtime::{execute, Program, RuntimeConfig};

    /// Classify every launch in `program`; returns (static, dynamic)
    /// acceptance counts. Panics on any Unsafe verdict or failed check.
    fn classify(name: &str, program: &Program) -> (usize, usize) {
        let (mut safe_static, mut needs_dynamic) = (0, 0);
        for (i, op) in program.ops.iter().enumerate() {
            let launch = op.launch();
            let args: Vec<LaunchArg> = launch
                .reqs
                .iter()
                .map(|req| LaunchArg {
                    partition: req.partition,
                    functor: program.functor(req.functor).clone(),
                    privilege: req.privilege,
                    fields: req.fields.clone(),
                })
                .collect();
            match analyze_launch(&program.forest, &launch.domain, &args) {
                HybridVerdict::SafeStatic => safe_static += 1,
                HybridVerdict::NeedsDynamic(plan) => {
                    needs_dynamic += 1;
                    plan.run().unwrap_or_else(|c| {
                        panic!("{name}: op {i} failed its dynamic check: {c:?}")
                    });
                }
                HybridVerdict::Unsafe(reason) => {
                    panic!("{name}: op {i} rejected as unsafe: {reason:?}")
                }
            }
        }
        (safe_static, needs_dynamic)
    }

    let stencil = index_launch::apps::stencil::build(&index_launch::apps::stencil::StencilConfig {
        iterations: 2,
        ..index_launch::apps::stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = index_launch::apps::circuit::build(&index_launch::apps::circuit::CircuitConfig {
        iterations: 2,
        ..index_launch::apps::circuit::CircuitConfig::tiny(4)
    });
    let soleil = index_launch::apps::soleil::build(&index_launch::apps::soleil::SoleilConfig {
        iterations: 2,
        ..index_launch::apps::soleil::SoleilConfig::tiny((2, 1, 1))
    });
    // AMR cycles its launches through per-level block/halo partitions:
    // every epoch's launches are affine over a disjoint partition, so
    // the whole refinement cadence stays in the static column.
    let amr = index_launch::apps::amr::build(&index_launch::apps::amr::AmrConfig::tiny());
    // PageRank's update launches project through a data-dependent
    // (opaque) piece permutation: statically undecidable, so every one
    // of them lands in the dynamic column and must pass the Listing-3
    // bitmask check.
    let pagerank =
        index_launch::apps::pagerank::build(&index_launch::apps::pagerank::PagerankConfig::tiny(4));

    // A fourth program whose second launch uses an opaque functor, so the
    // hybrid analysis must fall back to the Listing-3 dynamic self-check
    // and this test exercises the dynamic column end-to-end.
    let opaque = {
        use index_launch::machine::SimTime;
        use index_launch::runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};
        let mut b = ProgramBuilder::new();
        let mut fsd = FieldSpaceDesc::new();
        let f = fsd.add("x", FieldKind::F64);
        let fs = b.forest.create_field_space(fsd);
        let region = b.forest.create_region(Domain::range(32), fs);
        let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
        let domain = Domain::range(8);
        let task = b.task("reverse_write", move |ctx| {
            let pts: Vec<_> = ctx.domain(0).iter().collect();
            for p in pts {
                ctx.write(0, f, p, p.x() as f64);
            }
        });
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
    };

    // Golden matrix: (app, statically safe, dynamically checked).
    // Every op must land in one of the two accepting columns.
    let golden: Vec<(&str, &Program, usize, usize)> = vec![
        ("stencil", &stencil.program, 5, 0),
        ("circuit", &circuit.program, 8, 0),
        ("soleil", &soleil.program, 94, 0),
        ("opaque", &opaque, 1, 1),
        ("amr", &amr.program, 37, 0),
        ("pagerank", &pagerank.program, 4, 3),
    ];
    for (name, program, want_static, want_dynamic) in golden {
        let (got_static, got_dynamic) = classify(name, program);
        assert_eq!(
            (got_static, got_dynamic),
            (want_static, want_dynamic),
            "{name}: safety-matrix drift (static, dynamic)"
        );
        assert_eq!(got_static + got_dynamic, program.ops.len(), "{name}: every op classified");
        // And the programs actually run end-to-end under a validating
        // runtime (which re-executes the same checks internally).
        let report = execute(program, &RuntimeConfig::validate(2));
        assert!(report.makespan.as_ns() > 0, "{name}: empty execution");

        // The same program under a survivable crash schedule: the
        // safety verdicts are a property of the launches, not the
        // machine, so the classification above must keep holding while
        // the runtime re-shards the dead node's work — same tasks, same
        // final data, and a makespan no better than fault-free.
        let faulted = execute(program, &RuntimeConfig::validate(4).with_faults(0x5AFE));
        let baseline = execute(program, &RuntimeConfig::validate(4));
        let rec = faulted.recovery.expect("faulted run reports recovery stats");
        assert_eq!(faulted.tasks, baseline.tasks, "{name}: task count drifted under faults");
        assert_eq!(faulted.store, baseline.store, "{name}: data drifted under faults");
        assert!(
            faulted.makespan >= baseline.makespan,
            "{name}: faulted makespan {} beat fault-free {}",
            faulted.makespan.as_ns(),
            baseline.makespan.as_ns()
        );
        let (again_static, again_dynamic) = classify(name, program);
        assert_eq!(
            (again_static, again_dynamic),
            (want_static, want_dynamic),
            "{name}: verdicts changed after a faulted execution (rec: {rec:?})"
        );
    }
}

/// PageRank expanded at 10⁵ pieces (release builds only): every update
/// launch rides the dynamic bitmask check, with at least as many
/// evaluations as pieces. This is the scale guard for the oracle's privilege-aware
/// registration, the dynamized BVH and the BVH-pruned disjointness
/// check: any of them going quadratic again turns this test from
/// seconds into minutes.
#[cfg(not(debug_assertions))]
#[test]
fn pagerank_at_1e5_pieces_rides_the_dynamic_check() {
    use index_launch::apps::pagerank::{build, PagerankConfig};
    use index_launch::runtime::{expand_program, OpSafety, RuntimeConfig};

    let pieces = 100_000;
    let app = build(&PagerankConfig { iterations: 2, ..PagerankConfig::scale(pieces) });
    let expanded = expand_program(&app.program, &RuntimeConfig::scale(4));
    // Op 0 initializes; each iteration is an update launch then an apply.
    assert_eq!(expanded.safety.len(), 5);
    let mut evals = 0;
    for (i, safety) in expanded.safety.iter().enumerate() {
        match (i % 2, safety) {
            (1, OpSafety::Dynamic { evals: e }) => evals += e,
            (1, other) => panic!("update launch {i} took {other:?}, not the dynamic check"),
            (_, OpSafety::Static) => {}
            (_, other) => panic!("launch {i} took {other:?}, not a static pass"),
        }
    }
    assert!(evals >= pieces as u64, "{evals} evaluations for {pieces} pieces");
}

/// Field-disjoint arguments never interfere — the stencil pattern.
#[test]
fn field_disjointness_passes_cross_check() {
    let w = world();
    let fa = index_launch::region::FieldId(0);
    let fb = index_launch::region::FieldId(1);
    let v = analyze_launch(
        &w.forest,
        &Domain::range(8),
        &[
            LaunchArg {
                partition: w.aliased,
                functor: ProjExpr::Identity,
                privilege: Privilege::Read,
                fields: vec![fa],
            },
            LaunchArg {
                partition: w.disjoint,
                functor: ProjExpr::Identity,
                privilege: Privilege::ReadWrite,
                fields: vec![fb],
            },
        ],
    );
    assert!(matches!(v, HybridVerdict::SafeStatic), "{v:?}");
}

/// Negative golden cases: genuinely interfering launches (the brute-force
/// oracle confirms interference) must be rejected with the *specific*
/// `UnsafeReason` the paper's rules prescribe — not merely "unsafe".
#[test]
fn interfering_launches_carry_the_expected_unsafe_reason() {
    use index_launch::analysis::UnsafeReason;
    let w = world();
    let d8 = Domain::range(8);
    let sum = Privilege::Reduce(ReductionKind::Sum.id());
    let min = Privilege::Reduce(ReductionKind::Min.id());

    // Aliased projection written in place: neighbouring halo blocks
    // overlap, so concurrent read-writes collide.
    let args = vec![arg(w.aliased, ProjExpr::Identity, Privilege::ReadWrite)];
    assert!(interferes(&w, &d8, &args), "golden case must actually interfere");
    match analyze_launch(&w.forest, &d8, &args) {
        HybridVerdict::Unsafe(UnsafeReason::AliasedWritePartition { arg: 0 }) => {}
        v => panic!("aliased RW: expected AliasedWritePartition, got {v:?}"),
    }

    // Listing 2: `q[i % 4]` written over 8 points — two points per block.
    let args = vec![arg(
        w.disjoint,
        ProjExpr::Modular { a: 1, b: 0, m: 4 },
        Privilege::Write,
    )];
    assert!(interferes(&w, &d8, &args));
    match analyze_launch(&w.forest, &d8, &args) {
        HybridVerdict::Unsafe(UnsafeReason::NonInjectiveWrite { arg: 0 }) => {}
        v => panic!("modular write: expected NonInjectiveWrite, got {v:?}"),
    }

    // RW/RW through the same functor on one disjoint partition: the
    // images are provably identical, so the rejection is static. (The
    // overlap here is intra-task — both arguments of point `i` alias
    // block `i` with write privileges — which the cross-task oracle
    // cannot see; the set-level image rule rejects it statically.)
    let args = vec![
        arg(w.disjoint, ProjExpr::Identity, Privilege::ReadWrite),
        arg(w.disjoint, ProjExpr::Identity, Privilege::ReadWrite),
    ];
    match analyze_launch(&w.forest, &d8, &args) {
        HybridVerdict::Unsafe(UnsafeReason::ConflictingImages { a: 0, b: 1 }) => {}
        v => panic!("RW/RW same image: expected ConflictingImages, got {v:?}"),
    }

    // RW/RW overlap with shifted affine images: point `i` read-writes
    // blocks `i` and `i+1`, racing with its neighbours. The image
    // intervals overlap but are not provably equal, so the dynamic
    // bitmask check runs — and reports the collision.
    let d7 = Domain::range(7);
    let args = vec![
        arg(w.disjoint, ProjExpr::linear(1, 0), Privilege::ReadWrite),
        arg(w.disjoint, ProjExpr::linear(1, 1), Privilege::ReadWrite),
    ];
    assert!(interferes(&w, &d7, &args));
    match analyze_launch(&w.forest, &d7, &args) {
        HybridVerdict::NeedsDynamic(plan) => match plan.run() {
            Err(UnsafeReason::DynamicConflict { .. }) => {}
            r => panic!("shifted RW/RW: expected DynamicConflict, got {r:?}"),
        },
        v => panic!("shifted RW/RW: expected NeedsDynamic, got {v:?}"),
    }

    // Mismatched reduction operators through the aliased partition:
    // reductions only commute with themselves, and halo blocks overlap.
    let args = vec![
        arg(w.aliased, ProjExpr::Identity, sum),
        arg(w.aliased, ProjExpr::Identity, min),
    ];
    assert!(interferes(&w, &d8, &args));
    match analyze_launch(&w.forest, &d8, &args) {
        HybridVerdict::Unsafe(UnsafeReason::ConflictingImages { a: 0, b: 1 }) => {}
        v => panic!("sum vs min: expected ConflictingImages, got {v:?}"),
    }

    // Write through the disjoint blocks while reading the aliased halos
    // of the same region: colors cannot be related across partitions.
    let args = vec![
        arg(w.disjoint, ProjExpr::Identity, Privilege::Write),
        arg(w.aliased, ProjExpr::Identity, Privilege::Read),
    ];
    assert!(interferes(&w, &d8, &args));
    match analyze_launch(&w.forest, &d8, &args) {
        HybridVerdict::Unsafe(UnsafeReason::CrossPartitionConflict { a: 0, b: 1 }) => {}
        v => panic!("disjoint write vs aliased read: expected CrossPartitionConflict, got {v:?}"),
    }

    // Opaque `i -> i/2` writer: invisible to the static analysis, so the
    // dynamic bitmask check runs — and reports the collision.
    let args = vec![arg(
        w.disjoint,
        ProjExpr::opaque(|p| DomainPoint::new1(p.x() / 2)),
        Privilege::Write,
    )];
    let d4 = Domain::range(4);
    assert!(interferes(&w, &d4, &args));
    match analyze_launch(&w.forest, &d4, &args) {
        HybridVerdict::NeedsDynamic(plan) => match plan.run() {
            Err(UnsafeReason::DynamicConflict { arg: 0, .. }) => {}
            r => panic!("opaque collision: expected DynamicConflict, got {r:?}"),
        },
        v => panic!("opaque writer: expected NeedsDynamic, got {v:?}"),
    }
}
