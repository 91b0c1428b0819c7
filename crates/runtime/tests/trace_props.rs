//! Property tests for trace capture & replay: randomly generated
//! iterative programs whose loop body suffers one random mutation —
//! partition, privilege, domain, or functor — partway through the
//! sequence. The mutation must invalidate, never replay stale: the
//! mutated iteration's ops may never be covered by a replayed window,
//! and replay-on vs. replay-off runs stay observationally identical
//! through the disruption. Runs on the hermetic `il-testkit` harness;
//! failures print a rerunnable `IL_TESTKIT_SEED`.
//!
//! The generated programs use two region trees (a written state region
//! and a read/reduced flux region), mirroring how the golden apps
//! separate rotating-write members from accumulating-reader members.

use il_analysis::ProjExpr;
use il_geometry::Domain;
use il_machine::SimTime;
use il_region::{
    equal_partition_1d, FieldId, FieldKind, FieldSpaceDesc, IndexPartitionId, Privilege,
    ReductionKind, RegionTreeId,
};
use il_runtime::{
    execute, expand_program, CostSpec, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RuntimeConfig, TraceMarkKind,
};
use il_testkit::prop::{check_with, i64s, map, one_of, usizes, vec_of, Config, OneOf};
use il_testkit::{prop_assert, prop_assert_eq};

const PIECES: i64 = 4;
const N: i64 = 16;
const CASES: u64 = 24;

/// One loop-body launch: a task kind plus a functor shift.
#[derive(Clone, Debug)]
enum BodyOp {
    /// rw state's block[i].
    Write,
    /// rw state's block[i], read flux's block[(i+shift) mod PIECES].
    AddShifted(u8),
    /// Reduce +1 into flux's block[(i+shift) mod PIECES].
    ReduceShifted(u8),
}

/// Which launch ingredient the mutated iteration changes. An effective
/// variant alters at least one of the mutated ops' trace keys, so a
/// captured trace must stop matching there.
#[derive(Clone, Debug)]
enum Mutation {
    /// Swap every requirement onto a finer partition.
    Partition,
    /// Demote write-like requirements from read-write to write.
    Privilege,
    /// Launch over half the domain.
    Domain,
    /// Bump every shifted functor by one.
    Functor,
}

fn body_op() -> OneOf<BodyOp> {
    one_of(vec![
        Box::new(map(i64s(0..1), |_| BodyOp::Write)),
        Box::new(map(i64s(0..PIECES), |s| BodyOp::AddShifted(s as u8))),
        Box::new(map(i64s(0..PIECES), |s| BodyOp::ReduceShifted(s as u8))),
    ])
}

fn mutation() -> OneOf<Mutation> {
    one_of(vec![
        Box::new(map(i64s(0..1), |_| Mutation::Partition)),
        Box::new(map(i64s(0..1), |_| Mutation::Privilege)),
        Box::new(map(i64s(0..1), |_| Mutation::Domain)),
        Box::new(map(i64s(0..1), |_| Mutation::Functor)),
    ])
}

/// Whether the mutation changes any launch in a body of this shape:
/// the privilege flip only touches write-like requirements, and the
/// functor bump only touches shifted functors.
fn is_effective(mutation: &Mutation, body: &[BodyOp]) -> bool {
    match mutation {
        Mutation::Partition | Mutation::Domain => true,
        Mutation::Privilege => {
            body.iter().any(|o| matches!(o, BodyOp::Write | BodyOp::AddShifted(_)))
        }
        Mutation::Functor => body.iter().any(|o| !matches!(o, BodyOp::Write)),
    }
}

struct Built {
    program: Program,
    tree_a: RegionTreeId,
    tree_b: RegionTreeId,
    fa: FieldId,
    fb: FieldId,
}

/// Build `iters` repetitions of `body`, with iteration `mutated_iter`
/// (when `Some`) altered per `mutation`. Ops 0–1 are init launches;
/// body ops follow iteration-major, so iteration `k` covers ops
/// `[2 + k*body.len(), 2 + (k+1)*body.len())`.
fn build(
    body: &[BodyOp],
    iters: usize,
    mutated_iter: Option<usize>,
    mutation: &Mutation,
) -> Built {
    let mut b = ProgramBuilder::new();
    let mut fsd_a = FieldSpaceDesc::new();
    let fa = fsd_a.add("a", FieldKind::F64);
    let fs_a = b.forest.create_field_space(fsd_a);
    let region_a = b.forest.create_region(Domain::range(N), fs_a);
    let mut fsd_b = FieldSpaceDesc::new();
    let fb = fsd_b.add("b", FieldKind::F64);
    let fs_b = b.forest.create_field_space(fsd_b);
    let region_b = b.forest.create_region(Domain::range(N), fs_b);

    let blocks_a = equal_partition_1d(&mut b.forest, region_a.space, PIECES as usize);
    let fine_a = equal_partition_1d(&mut b.forest, region_a.space, (PIECES * 2) as usize);
    let blocks_b = equal_partition_1d(&mut b.forest, region_b.space, PIECES as usize);
    let fine_b = equal_partition_1d(&mut b.forest, region_b.space, (PIECES * 2) as usize);
    let ident = b.identity_functor();
    let cost = CostSpec::Uniform(SimTime::us(40));

    let init_a = b.task("init_a", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, fa, p, p.x() as f64);
        }
    });
    let init_b = b.task("init_b", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, fb, p, (2 * p.x()) as f64);
        }
    });
    for (task, part, tree, fs) in [
        (init_a, blocks_a, region_a.tree, fs_a),
        (init_b, blocks_b, region_b.tree, fs_b),
    ] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(PIECES),
            reqs: vec![RegionReq {
                partition: part,
                functor: ident,
                privilege: Privilege::Write,
                fields: vec![],
                tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: cost.clone(),
            shard: None,
        });
    }

    // Tasks are registered once, outside the loop: iterations must
    // launch the *same* tasks for their trace keys to repeat, exactly
    // as the golden apps do.
    let step_w = b.task("step_w", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, fa, p);
            ctx.write(0, fa, p, v + 1.0);
        }
    });
    let step_add = b.task("step_add", move |ctx| {
        let src: Vec<f64> = ctx.domain(1).iter().map(|p| ctx.read(1, fb, p)).collect();
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for (k, p) in pts.into_iter().enumerate() {
            let v: f64 = ctx.read(0, fa, p);
            ctx.write(0, fa, p, v + src[k % src.len()]);
        }
    });
    let step_red = b.task("step_red", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.fold_f64(0, fb, p, ReductionKind::Sum, 1.0);
        }
    });

    for iter in 0..iters {
        let mutate = mutated_iter == Some(iter);
        let swap = mutate && matches!(mutation, Mutation::Partition);
        let (part_a, part_b): (IndexPartitionId, IndexPartitionId) =
            if swap { (fine_a, fine_b) } else { (blocks_a, blocks_b) };
        let pieces = if swap { PIECES * 2 } else { PIECES };
        let domain = if mutate && matches!(mutation, Mutation::Domain) {
            Domain::range(pieces / 2)
        } else {
            Domain::range(pieces)
        };
        let bump = if mutate && matches!(mutation, Mutation::Functor) { 1 } else { 0 };
        let flip = mutate && matches!(mutation, Mutation::Privilege);
        let write_priv = if flip { Privilege::Write } else { Privilege::ReadWrite };
        for op in body {
            match op {
                BodyOp::Write => {
                    b.index_launch(IndexLaunchDesc {
                        task: step_w,
                        domain: domain.clone(),
                        reqs: vec![RegionReq {
                            partition: part_a,
                            functor: ident,
                            privilege: write_priv,
                            fields: vec![fa],
                            tree: region_a.tree,
                            field_space: fs_a,
                        }],
                        scalars: vec![],
                        cost: cost.clone(),
                        shard: None,
                    });
                }
                BodyOp::AddShifted(shift) => {
                    let shifted = b.functor(ProjExpr::Modular {
                        a: 1,
                        b: *shift as i64 + bump,
                        m: pieces,
                    });
                    b.index_launch(IndexLaunchDesc {
                        task: step_add,
                        domain: domain.clone(),
                        reqs: vec![
                            RegionReq {
                                partition: part_a,
                                functor: ident,
                                privilege: write_priv,
                                fields: vec![fa],
                                tree: region_a.tree,
                                field_space: fs_a,
                            },
                            RegionReq {
                                partition: part_b,
                                functor: shifted,
                                privilege: Privilege::Read,
                                fields: vec![fb],
                                tree: region_b.tree,
                                field_space: fs_b,
                            },
                        ],
                        scalars: vec![],
                        cost: cost.clone(),
                        shard: None,
                    });
                }
                BodyOp::ReduceShifted(shift) => {
                    let shifted = b.functor(ProjExpr::Modular {
                        a: 1,
                        b: *shift as i64 + bump,
                        m: pieces,
                    });
                    b.index_launch(IndexLaunchDesc {
                        task: step_red,
                        domain: domain.clone(),
                        reqs: vec![RegionReq {
                            partition: part_b,
                            functor: shifted,
                            privilege: Privilege::Reduce(ReductionKind::Sum.id()),
                            fields: vec![fb],
                            tree: region_b.tree,
                            field_space: fs_b,
                        }],
                        scalars: vec![],
                        cost: cost.clone(),
                        shard: None,
                    });
                }
            }
        }
    }
    Built { program: b.build(), tree_a: region_a.tree, tree_b: region_b.tree, fa, fb }
}

/// Final instance data, position-indexed, for cross-config comparison.
fn extract(built: &Built, report: &il_runtime::RunReport) -> Vec<(f64, f64)> {
    let store = report.store.as_ref().unwrap();
    let forest = &built.program.forest;
    let mut out = vec![(f64::NAN, f64::NAN); N as usize];
    for (tree, field, pick) in [
        (built.tree_a, built.fa, 0usize),
        (built.tree_b, built.fb, 1),
    ] {
        let root = forest.tree_root(tree);
        for &part in &forest.space(root).partitions {
            for space in forest.partition(part).children.values() {
                if let Some(inst) = store.get((tree, space)) {
                    for p in forest.domain(space).iter() {
                        let v = inst.get::<f64>(field, p);
                        if pick == 0 {
                            out[p.x() as usize].0 = v;
                        } else {
                            out[p.x() as usize].1 = v;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The never-stale-replay property: whatever the loop body and whichever
/// ingredient mutates mid-sequence, (a) replay-on and replay-off runs
/// are observationally identical, and (b) no replayed window ever
/// covers a mutated op — the trace keys change, so the trace
/// invalidates or simply stops matching instead.
#[test]
fn mutations_invalidate_instead_of_replaying_stale() {
    check_with(
        Config::from_env("mutations_invalidate_instead_of_replaying_stale").with_cases(CASES),
        &(vec_of(body_op(), 1..4), usizes(4..8), usizes(1..3), mutation()),
        |(body, iters, mut_off, mutation)| {
            // Mutate a late iteration so earlier ones can capture+replay.
            let mutated_iter = iters.saturating_sub(*mut_off).max(1);
            let built = build(body, *iters, Some(mutated_iter), mutation);
            let cfg_on = RuntimeConfig::validate(2);
            let cfg_off = cfg_on.clone().with_trace_replay(false);

            let on = execute(&built.program, &cfg_on);
            let off = execute(&built.program, &cfg_off);
            prop_assert_eq!(on.makespan, off.makespan, "makespan differs with replay on/off");
            prop_assert_eq!(
                on.stage_json().to_string(),
                off.stage_json().to_string(),
                "stage report differs with replay on/off"
            );
            prop_assert_eq!(
                extract(&built, &on),
                extract(&built, &off),
                "final data differs with replay on/off: body={:?} iters={} mutated={} mutation={:?}",
                body,
                iters,
                mutated_iter,
                mutation
            );

            // No replayed window may cover an (effectively) mutated op.
            if is_effective(mutation, body) {
                let ex = expand_program(&built.program, &cfg_on);
                let mut_lo = 2 + mutated_iter * body.len();
                let mut_hi = mut_lo + body.len();
                for m in &ex.trace_marks {
                    if m.kind == TraceMarkKind::Replayed {
                        let (lo, hi) = (m.op as usize, m.op as usize + m.len as usize);
                        prop_assert!(
                            hi <= mut_lo || lo >= mut_hi,
                            "replayed window [{}, {}) covers mutated ops [{}, {}): \
                             body={:?} mutation={:?}",
                            lo,
                            hi,
                            mut_lo,
                            mut_hi,
                            body,
                            mutation
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Control: the same generator without a mutation replays its steady
/// state (given enough iterations for the window to repeat), and the
/// replayed expansion is byte-identical to the fresh one — same
/// verdicts, same edges, same copies, same distribution plans.
#[test]
fn unmutated_iterations_replay_with_identical_expansions() {
    check_with(
        Config::from_env("unmutated_iterations_replay_with_identical_expansions")
            .with_cases(CASES),
        &(vec_of(body_op(), 1..4), usizes(5..9)),
        |(body, iters)| {
            let built = build(body, *iters, None, &Mutation::Functor);
            let cfg_on = RuntimeConfig::validate(2);
            let cfg_off = cfg_on.clone().with_trace_replay(false);
            let ex_on = expand_program(&built.program, &cfg_on);
            let ex_off = expand_program(&built.program, &cfg_off);
            prop_assert_eq!(&ex_on.safety, &ex_off.safety, "verdicts differ");
            prop_assert_eq!(&ex_on.deps, &ex_off.deps, "dependence edges differ");
            for (t, (c_on, c_off)) in ex_on.copies.iter().zip(&ex_off.copies).enumerate() {
                prop_assert_eq!(
                    c_on.len(),
                    c_off.len(),
                    "copy counts differ at task {}: body={:?}",
                    t,
                    body
                );
            }
            prop_assert!(
                ex_on.trace_replay.replayed > 0,
                "steady iterative sequence never replayed: body={:?} iters={} stats={:?}",
                body,
                iters,
                ex_on.trace_replay
            );
            Ok(())
        },
    );
}
