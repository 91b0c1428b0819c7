//! Property tests for the runtime: randomly generated programs produce
//! identical data under every runtime configuration, and the dependence
//! oracle's structural invariants hold. Runs on the hermetic `il-testkit`
//! harness with 24 cases per property (these build whole programs per
//! case); failures print a rerunnable `IL_TESTKIT_SEED`.

use il_analysis::ProjExpr;
use il_geometry::{Domain, DomainPoint};
use il_machine::SimTime;
use il_region::{
    equal_partition_1d, FieldId, FieldKind, FieldSpaceDesc, Privilege, RegionTreeId,
    ReductionKind,
};
use il_runtime::{
    execute, expand_program, CostSpec, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RuntimeConfig,
};
use il_testkit::prop::{check_with, i64s, map, one_of, usizes, vec_of, Config, OneOf};
use il_testkit::{prop_assert, prop_assert_eq};

const PIECES: i64 = 4;
const N: i64 = 16;
const CASES: u64 = 24;

/// One randomly chosen launch: a task kind plus a shift for its functor.
#[derive(Clone, Debug)]
enum OpSpec {
    /// Write `value` into block[i].
    WriteConst(i8),
    /// rw block[i], read block[(i+shift) mod 4] of the *other* field:
    /// a[i] += b[(i+shift)%4] sum.
    AddShifted(u8),
    /// Reduce +value into block[(i+shift) mod 4].
    ReduceShifted(u8, i8),
}

fn op_spec() -> OneOf<OpSpec> {
    one_of(vec![
        Box::new(map(i64s(-20..20), |v| OpSpec::WriteConst(v as i8))),
        Box::new(map(i64s(0..4), |s| OpSpec::AddShifted(s as u8))),
        Box::new(map((i64s(0..4), i64s(-10..10)), |(s, v)| {
            OpSpec::ReduceShifted(s as u8, v as i8)
        })),
    ])
}

struct Built {
    program: Program,
    tree: RegionTreeId,
    fa: FieldId,
    fb: FieldId,
}

fn build(specs: &[OpSpec]) -> Built {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let fa = fsd.add("a", FieldKind::F64);
    let fb = fsd.add("b", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(N), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, PIECES as usize);
    let ident = b.identity_functor();
    let domain = Domain::range(PIECES);
    let cost = CostSpec::Uniform(SimTime::us(40));

    // Init both fields so reads are defined.
    let init = b.task("init", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, fa, p, p.x() as f64);
            ctx.write(0, fb, p, (2 * p.x()) as f64);
        }
    });
    b.index_launch(IndexLaunchDesc {
        task: init,
        domain: domain.clone(),
        reqs: vec![RegionReq {
            partition: blocks,
            functor: ident,
            privilege: Privilege::Write,
            fields: vec![],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: cost.clone(),
        shard: None,
    });
    b.start_timing();

    for spec in specs {
        match spec {
            OpSpec::WriteConst(v) => {
                let v = *v as f64;
                let t = b.task("write_const", move |ctx| {
                    let pts: Vec<_> = ctx.domain(0).iter().collect();
                    for p in pts {
                        ctx.write(0, fb, p, v + p.x() as f64);
                    }
                });
                b.index_launch(IndexLaunchDesc {
                    task: t,
                    domain: domain.clone(),
                    reqs: vec![RegionReq {
                        partition: blocks,
                        functor: ident,
                        privilege: Privilege::ReadWrite,
                        fields: vec![fb],
                        tree: region.tree,
                        field_space: fs,
                    }],
                    scalars: vec![],
                    cost: cost.clone(),
                    shard: None,
                });
            }
            OpSpec::AddShifted(shift) => {
                let t = b.task("add_shifted", move |ctx| {
                    let src: Vec<(DomainPoint, f64)> = ctx
                        .domain(1)
                        .iter()
                        .map(|p| (p, ctx.read::<f64>(1, fb, p)))
                        .collect();
                    let pts: Vec<_> = ctx.domain(0).iter().collect();
                    for (k, p) in pts.into_iter().enumerate() {
                        let v: f64 = ctx.read(0, fa, p);
                        ctx.write(0, fa, p, v + src[k % src.len()].1);
                    }
                });
                let shifted = b.functor(ProjExpr::Modular { a: 1, b: *shift as i64, m: PIECES });
                b.index_launch(IndexLaunchDesc {
                    task: t,
                    domain: domain.clone(),
                    reqs: vec![
                        RegionReq {
                            partition: blocks,
                            functor: ident,
                            privilege: Privilege::ReadWrite,
                            fields: vec![fa],
                            tree: region.tree,
                            field_space: fs,
                        },
                        RegionReq {
                            partition: blocks,
                            functor: shifted,
                            privilege: Privilege::Read,
                            fields: vec![fb],
                            tree: region.tree,
                            field_space: fs,
                        },
                    ],
                    scalars: vec![],
                    cost: cost.clone(),
                    shard: None,
                });
            }
            OpSpec::ReduceShifted(shift, v) => {
                let v = *v as f64;
                let t = b.task("reduce_shifted", move |ctx| {
                    let pts: Vec<_> = ctx.domain(0).iter().collect();
                    for p in pts {
                        ctx.fold_f64(0, fb, p, ReductionKind::Sum, v);
                    }
                });
                let shifted = b.functor(ProjExpr::Modular { a: 1, b: *shift as i64, m: PIECES });
                b.index_launch(IndexLaunchDesc {
                    task: t,
                    domain: domain.clone(),
                    reqs: vec![RegionReq {
                        partition: blocks,
                        functor: shifted,
                        privilege: Privilege::Reduce(ReductionKind::Sum.id()),
                        fields: vec![fb],
                        tree: region.tree,
                        field_space: fs,
                    }],
                    scalars: vec![],
                    cost: cost.clone(),
                    shard: None,
                });
            }
        }
    }
    Built { program: b.build(), tree: region.tree, fa, fb }
}

fn extract(built: &Built, report: &il_runtime::RunReport) -> Vec<(f64, f64)> {
    let store = report.store.as_ref().unwrap();
    let forest = &built.program.forest;
    let root = forest.tree_root(built.tree);
    let blocks = forest.space(root).partitions[0];
    let mut out = vec![(f64::NAN, f64::NAN); N as usize];
    for space in forest.partition(blocks).children.values() {
        if let Some(inst) = store.get((built.tree, space)) {
            for p in forest.domain(space).iter() {
                out[p.x() as usize] =
                    (inst.get::<f64>(built.fa, p), inst.get::<f64>(built.fb, p));
            }
        }
    }
    out
}

/// The fundamental guarantee: random programs compute identical data
/// under every (nodes × DCR × IDX × tracing) configuration.
#[test]
fn configs_agree_on_random_programs() {
    check_with(
        Config::from_env("configs_agree_on_random_programs").with_cases(CASES),
        &vec_of(op_spec(), 1..7),
        |specs| configs_agree(specs),
    );
}

fn configs_agree(specs: &[OpSpec]) -> Result<(), String> {
    let baseline = {
        let built = build(specs);
        let report = execute(&built.program, &RuntimeConfig::validate(1));
        extract(&built, &report)
    };
    for (nodes, dcr, idx, tracing) in [
        (2usize, true, true, true),
        (4, true, false, true),
        (3, false, true, false),
        (4, false, false, true),
    ] {
        let built = build(specs);
        let rt = RuntimeConfig::validate(nodes).with_axes(dcr, idx).with_tracing(tracing);
        let report = execute(&built.program, &rt);
        let got = extract(&built, &report);
        prop_assert_eq!(
            &got,
            &baseline,
            "mismatch: nodes={} dcr={} idx={} tracing={} specs={:?}",
            nodes,
            dcr,
            idx,
            tracing,
            specs
        );
    }
    Ok(())
}

/// Oracle invariants on random programs: edges point backwards (the
/// graph is a DAG by construction), every dependence is between tasks
/// of different ops unless the op was sequentialized, predecessor rows
/// are sorted and duplicate-free, and successor lists mirror them. This
/// suite runs in a debug build, where every expansion also asserts that
/// each registered space's overlap list still starts with the space
/// itself (an emptied list would read as "overlaps nothing").
#[test]
fn oracle_structural_invariants() {
    check_with(
        Config::from_env("oracle_structural_invariants").with_cases(CASES),
        &(vec_of(op_spec(), 1..7), usizes(1..5)),
        |(specs, nodes)| structural_invariants(specs, *nodes),
    );
}

fn structural_invariants(specs: &[OpSpec], nodes: usize) -> Result<(), String> {
    let built = build(specs);
    let config = RuntimeConfig::scale(nodes);
    let ex = expand_program(&built.program, &config);
    for (t, preds) in ex.deps.iter().enumerate() {
        prop_assert!(
            preds.windows(2).all(|w| w[0] < w[1]),
            "deps[{}] not sorted and duplicate-free: {:?}",
            t,
            preds
        );
        for &p in preds {
            prop_assert!((p as usize) < t, "edge must point backwards");
            prop_assert!(ex.succs[p as usize].contains(&(t as u32)));
        }
    }
    // Each successor row is exactly the consumers of its task, ordered
    // by (owner, consumer) — the credit fan-out reads the owner runs
    // straight off it — and holds no slack.
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); ex.len()];
    for (t, preds) in ex.deps.iter().enumerate() {
        for &p in preds {
            consumers[p as usize].push(t as u32);
        }
    }
    for (t, succs) in ex.succs.iter().enumerate() {
        let key = |s: &u32| (ex.tasks[*s as usize].owner, *s);
        prop_assert!(
            succs.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "succs[{}] not strictly ordered by (owner, consumer): {:?}",
            t,
            succs
        );
        let mut sorted = succs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &consumers[t], "succs[{}] is not deps inverted", t);
        prop_assert_eq!(succs.capacity(), succs.len(), "succs[{}] holds slack", t);
    }
    // Copies reference real dependence edges.
    for (t, copies) in ex.copies.iter().enumerate() {
        for c in copies {
            prop_assert!(ex.deps[t].contains(&c.from));
            prop_assert!(c.bytes > 0);
        }
    }
    Ok(())
}

/// A shrunk failure case an earlier property harness recorded: a
/// zero-valued reduction into the next block followed by a negative
/// reduction into each task's own block. Both properties run on it at
/// every machine size the generator draws.
#[test]
fn reduce_shifted_pair_regression() {
    let specs = [OpSpec::ReduceShifted(1, 0), OpSpec::ReduceShifted(0, -1)];
    configs_agree(&specs).unwrap();
    for nodes in 1..5 {
        structural_invariants(&specs, nodes).unwrap();
    }
}
