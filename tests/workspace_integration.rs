//! Cross-crate integration: compiler pass → runtime execution → data,
//! and the end-to-end invariant of the programming model — every runtime
//! configuration computes the same answer.

use index_launch::compiler::{lower_plan, optimize_loop, Plan, RegionArg, TaskLoop};
use index_launch::prelude::*;

/// Drive the full stack: write "source" loops in the compiler IR, let the
/// optimizer decide, lower onto the runtime, execute, and verify data.
#[test]
fn compiler_to_runtime_roundtrip() {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let val = fsd.add("val", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(40), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 4);

    let bump = b.task("bump", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, val, p);
            ctx.write(0, val, p, v + 1.0);
        }
    });

    let arg = |functor, privilege| RegionArg {
        name: "p".into(),
        partition: blocks,
        functor,
        privilege,
        fields: vec![],
        tree: region.tree,
        field_space: fs,
    };

    // Loop A: statically safe (identity). Loop B: needs the dynamic check
    // (opaque but injective). Loop C: statically unsafe (i % 2 written
    // over [0,4)) — stays a sequential task loop.
    let loop_a = TaskLoop {
        task_name: "bump".into(),
        domain: Domain::range(4),
        args: vec![arg(ProjExpr::Identity, Privilege::ReadWrite)],
        body: vec![],
    };
    let loop_b = TaskLoop {
        args: vec![arg(
            ProjExpr::opaque(|p| DomainPoint::new1(3 - p.x())),
            Privilege::ReadWrite,
        )],
        ..loop_a.clone()
    };
    let loop_c = TaskLoop {
        args: vec![arg(ProjExpr::Modular { a: 1, b: 0, m: 2 }, Privilege::ReadWrite)],
        ..loop_a.clone()
    };

    let plan_a = optimize_loop(&b.forest, &loop_a);
    let plan_b = optimize_loop(&b.forest, &loop_b);
    let plan_c = optimize_loop(&b.forest, &loop_c);
    assert!(matches!(plan_a, Plan::IndexLaunch { .. }));
    assert!(matches!(plan_b, Plan::Guarded { .. }));
    assert!(matches!(plan_c, Plan::Sequential { .. }));

    let ops_a = lower_plan(&mut b, &plan_a, &loop_a, bump, SimTime::us(20));
    let ops_b = lower_plan(&mut b, &plan_b, &loop_b, bump, SimTime::us(20));
    let ops_c = lower_plan(&mut b, &plan_c, &loop_c, bump, SimTime::us(20));
    assert_eq!((ops_a, ops_b, ops_c), (1, 1, 4));

    let program = b.build();
    let report = execute(&program, &RuntimeConfig::validate(2));
    // A bumps every block once, B once (reversed blocks), C bumps blocks
    // 0 and 1 twice each.
    let store = report.store.unwrap();
    let root = program.forest.tree_root(region.tree);
    let part = program.forest.space(root).partitions[0];
    let mut sum = 0.0;
    for space in program.forest.partition(part).children.values() {
        let inst = store.get((region.tree, space)).unwrap();
        for p in program.forest.domain(space).iter() {
            sum += inst.get::<f64>(val, p);
        }
    }
    // 40 elements: +1 (A) +1 (B) = 80, plus C: 4 singleton launches over
    // blocks i%2 -> blocks 0,1 bumped twice = 4 launches × 10 elems = 40.
    assert_eq!(sum, 120.0);
}

/// The paper's three applications all agree with their references under
/// a non-default machine size, exercising real cross-node copies,
/// reductions, and the DOM dynamic checks in one test.
#[test]
fn all_apps_validate_on_three_nodes() {
    use index_launch::apps::{circuit, soleil, stencil};

    let cc = circuit::CircuitConfig::tiny(6);
    let capp = circuit::build(&cc);
    let crep = execute(&capp.program, &RuntimeConfig::validate(3));
    let got = circuit::extract_voltages(&capp, &crep);
    let want = circuit::reference(&cc, &capp.wires);
    for (a, b) in got.iter().zip(&want) {
        assert!((a - b).abs() < 1e-9);
    }

    let sc = stencil::StencilConfig::tiny((2, 2));
    let sapp = stencil::build(&sc);
    let srep = execute(&sapp.program, &RuntimeConfig::validate(3));
    let got = stencil::extract_fout(&sapp, &srep);
    let want = stencil::reference(&sc);
    for (a, b) in got.iter().zip(&want) {
        assert!((a - b).abs() < 1e-9);
    }

    let oc = soleil::SoleilConfig::tiny((2, 2, 1));
    let oapp = soleil::build(&oc);
    let orep = execute(&oapp.program, &RuntimeConfig::validate(3));
    let got = soleil::extract_u(&oapp, &orep);
    let want = soleil::reference(&oc);
    for (a, b) in got.iter().zip(&want) {
        assert!((a - b).abs() < 1e-12);
    }
}

/// Determinism across the whole stack: the same program yields the same
/// simulated timings and message counts every run.
#[test]
fn whole_stack_determinism() {
    use index_launch::apps::soleil;
    let config = soleil::SoleilConfig::tiny((2, 2, 2));
    let runs: Vec<(u64, u64, u64)> = (0..2)
        .map(|_| {
            let app = soleil::build(&config);
            let rep = execute(&app.program, &RuntimeConfig::validate(4));
            (rep.makespan.as_ns(), rep.messages, rep.bytes)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

/// The `forall` API and raw launch descriptors produce identical
/// programs.
#[test]
fn forall_equals_manual_descriptor() {
    let build = |use_forall: bool| {
        let mut b = ProgramBuilder::new();
        let mut fsd = FieldSpaceDesc::new();
        let val = fsd.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fsd);
        let region = b.forest.create_region(Domain::range(8), fs);
        let blocks = equal_partition_1d(&mut b.forest, region.space, 2);
        let t = b.task("w", move |ctx| {
            let pts: Vec<_> = ctx.domain(0).iter().collect();
            for p in pts {
                ctx.write(0, val, p, 1.0);
            }
        });
        if use_forall {
            Forall::new(t, Domain::range(2))
                .arg(blocks, ProjExpr::Identity, Privilege::Write, region.tree, fs)
                .cost(SimTime::us(5))
                .launch(&mut b);
        } else {
            let ident = b.identity_functor();
            b.index_launch(IndexLaunchDesc {
                task: t,
                domain: Domain::range(2),
                reqs: vec![RegionReq {
                    partition: blocks,
                    functor: ident,
                    privilege: Privilege::Write,
                    fields: vec![],
                    tree: region.tree,
                    field_space: fs,
                }],
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::us(5)),
                shard: None,
            });
        }
        let program = b.build();
        execute(&program, &RuntimeConfig::validate(2)).makespan
    };
    assert_eq!(build(true), build(false));
}
