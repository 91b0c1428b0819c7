//! End-to-end executor tests: a small multi-launch program is run under
//! every (DCR × IDX) configuration and node count, in validation mode,
//! and its final data must be bit-identical to a sequential reference —
//! the core guarantee of the programming model: the runtime configuration
//! changes *performance*, never *semantics*.

use il_analysis::ProjExpr;
use il_geometry::{Domain, DomainPoint};
use il_machine::SimTime;
use il_region::{
    equal_partition_1d, FieldId, FieldKind, FieldSpaceDesc, Privilege, RegionTreeId,
};
use il_runtime::{
    execute, CostSpec, IndexLaunchDesc, Program, ProgramBuilder, RegionReq,
    RuntimeConfig,
};

const N: i64 = 16; // grid elements
const B: i64 = 4; // blocks
const ITERS: usize = 3;

struct Built {
    program: Program,
    g_tree: RegionTreeId,
    x_tree: RegionTreeId,
    gf: FieldId,
    xf: FieldId,
}

/// G[16] partitioned into 4 blocks; X[4] one slot per block.
/// Per iteration: `collect` (read G.block[i] → write X[i] = block sum),
/// `scramble` (rw X[(3i)%4], += 1), `shift_add` (rw G.block[i], read
/// X[(i+3)%4], add neighbor sum to every element).
fn build_program() -> Built {
    let mut b = ProgramBuilder::new();

    let mut gfs = FieldSpaceDesc::new();
    let gf = gfs.add("v", FieldKind::F64);
    let gfs = b.forest.create_field_space(gfs);
    let g = b.forest.create_region(Domain::range(N), gfs);
    let gp = equal_partition_1d(&mut b.forest, g.space, B as usize);

    let mut xfs = FieldSpaceDesc::new();
    let xf = xfs.add("s", FieldKind::F64);
    let xfs = b.forest.create_field_space(xfs);
    let x = b.forest.create_region(Domain::range(B), xfs);
    let xp = equal_partition_1d(&mut b.forest, x.space, B as usize);

    let ident = b.identity_functor();
    let shift = b.functor(ProjExpr::Modular { a: 1, b: 3, m: B }); // (i+3) mod 4
    let scram = b.functor(ProjExpr::opaque(|p| DomainPoint::new1((3 * p.x()).rem_euclid(4))));

    let init = b.task("init", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, gf, p, p.x() as f64);
        }
    });
    let collect = b.task("collect", move |ctx| {
        let sum: f64 = ctx.domain(0).iter().map(|p| ctx.read::<f64>(0, gf, p)).sum();
        let slot = ctx.domain(1).iter().next().unwrap();
        ctx.write(1, xf, slot, sum);
    });
    let scramble = b.task("scramble", move |ctx| {
        let slot = ctx.domain(0).iter().next().unwrap();
        let v: f64 = ctx.read(0, xf, slot);
        ctx.write(0, xf, slot, v + 1.0);
    });
    let shift_add = b.task("shift_add", move |ctx| {
        let nb = ctx.domain(1).iter().next().unwrap();
        let add: f64 = ctx.read(1, xf, nb);
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, gf, p);
            ctx.write(0, gf, p, v + add);
        }
    });

    let domain = Domain::range(B);
    let req = |partition, functor, privilege, tree, field_space| RegionReq {
        partition,
        functor,
        privilege,
        fields: vec![],
        tree,
        field_space,
    };
    let kernel = CostSpec::Uniform(SimTime::us(200));

    b.index_launch(IndexLaunchDesc {
        task: init,
        domain: domain.clone(),
        reqs: vec![req(gp, ident, Privilege::Write, g.tree, gfs)],
        scalars: vec![],
        cost: kernel.clone(),
        shard: None,
    });
    b.start_timing();
    for _ in 0..ITERS {
        b.index_launch(IndexLaunchDesc {
            task: collect,
            domain: domain.clone(),
            reqs: vec![
                req(gp, ident, Privilege::Read, g.tree, gfs),
                req(xp, ident, Privilege::Write, x.tree, xfs),
            ],
            scalars: vec![],
            cost: kernel.clone(),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: scramble,
            domain: domain.clone(),
            reqs: vec![req(xp, scram, Privilege::ReadWrite, x.tree, xfs)],
            scalars: vec![],
            cost: kernel.clone(),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: shift_add,
            domain: domain.clone(),
            reqs: vec![
                req(gp, ident, Privilege::ReadWrite, g.tree, gfs),
                req(xp, shift, Privilege::Read, x.tree, xfs),
            ],
            scalars: vec![],
            cost: kernel.clone(),
            shard: None,
        });
    }
    Built { program: b.build(), g_tree: g.tree, x_tree: x.tree, gf, xf }
}

/// Sequential reference of the same computation.
fn reference() -> (Vec<f64>, Vec<f64>) {
    let mut g: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let mut x = vec![0.0f64; B as usize];
    let bs = (N / B) as usize;
    for _ in 0..ITERS {
        for i in 0..B as usize {
            x[i] = g[i * bs..(i + 1) * bs].iter().sum();
        }
        for i in 0..B as usize {
            let j = (3 * i) % 4;
            x[j] += 1.0;
        }
        let snapshot = x.clone();
        for i in 0..B as usize {
            let nb = (i + 3) % 4;
            for v in &mut g[i * bs..(i + 1) * bs] {
                *v += snapshot[nb];
            }
        }
    }
    (g, x)
}

/// Collect final G and X values from the run's instance store.
fn extract(built: &Built, report: &il_runtime::RunReport) -> (Vec<f64>, Vec<f64>) {
    let store = report.store.as_ref().expect("validate mode keeps the store");
    let forest = &built.program.forest;
    let bs = (N / B) as usize;
    let mut g = vec![0.0f64; N as usize];
    let mut x = vec![0.0f64; B as usize];
    // Block subspaces are the first partitions of each region.
    for space_id in 0..forest.num_spaces() as u32 {
        let space = il_region::IndexSpaceId(space_id);
        let node = forest.space(space);
        let Some((pid, color)) = node.parent else { continue };
        let _ = pid;
        let c = color.x() as usize;
        match &node.domain {
            Domain::Rect1(r) if r.volume() == bs as u64 => {
                if let Some(inst) = store.get((built.g_tree, space)) {
                    for p in node.domain.iter() {
                        g[p.x() as usize] = inst.get::<f64>(built.gf, p);
                    }
                }
                let _ = c;
            }
            Domain::Rect1(r) if r.volume() == 1 => {
                if let Some(inst) = store.get((built.x_tree, space)) {
                    for p in node.domain.iter() {
                        x[p.x() as usize] = inst.get::<f64>(built.xf, p);
                    }
                }
            }
            _ => {}
        }
    }
    (g, x)
}

#[test]
fn all_configs_match_sequential_reference() {
    let (g_ref, x_ref) = reference();
    for nodes in [1usize, 2, 4] {
        for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
            for tracing in [true, false] {
                let built = build_program();
                let config = RuntimeConfig::validate(nodes)
                    .with_axes(dcr, idx)
                    .with_tracing(tracing);
                let report = execute(&built.program, &config);
                assert_eq!(report.tasks, (1 + 3 * ITERS as u64) * B as u64);
                let (g, x) = extract(&built, &report);
                assert_eq!(
                    g, g_ref,
                    "G mismatch: nodes={nodes} dcr={dcr} idx={idx} tracing={tracing}"
                );
                assert_eq!(
                    x, x_ref,
                    "X mismatch: nodes={nodes} dcr={dcr} idx={idx} tracing={tracing}"
                );
            }
        }
    }
}

#[test]
fn deterministic_replay() {
    let built = build_program();
    let config = RuntimeConfig::validate(4);
    let a = execute(&built.program, &config);
    let b = execute(&built.program, &config);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn scale_mode_skips_data() {
    let built = build_program();
    let report = execute(&built.program, &RuntimeConfig::scale(4));
    assert!(report.store.is_none());
    assert!(report.makespan > SimTime::ZERO);
    assert_eq!(report.tasks, (1 + 3 * ITERS as u64) * B as u64);
}

#[test]
fn index_launches_shrink_issuance() {
    let built = build_program();
    let with_idx = execute(&built.program, &RuntimeConfig::scale(4));
    let without = execute(&built.program, &RuntimeConfig::scale(4).with_axes(true, false));
    assert!(
        with_idx.issuance_span < without.issuance_span,
        "IDX issuance {} should be below No-IDX {}",
        with_idx.issuance_span,
        without.issuance_span
    );
}

#[test]
fn non_dcr_centralizes_distribution() {
    let built = build_program();
    let dcr = execute(&built.program, &RuntimeConfig::scale(4));
    let central = execute(&built.program, &RuntimeConfig::scale(4).with_axes(false, true));
    // Non-DCR must push work out of node 0 over the network.
    assert!(central.messages > dcr.messages);
}

#[test]
fn dynamic_checks_cost_appears_only_when_enabled() {
    let built = build_program();
    let on = execute(&built.program, &RuntimeConfig::scale(2));
    // The opaque `scramble` functor needs a dynamic check.
    assert!(on.dynamic_check_time > SimTime::ZERO);
    let built2 = build_program();
    let off = execute(&built2.program, &RuntimeConfig::scale(2).with_dynamic_checks(false));
    assert_eq!(off.dynamic_check_time, SimTime::ZERO);
    assert!(off.issuance_span < on.issuance_span);
}

#[test]
fn elapsed_excludes_setup() {
    let built = build_program();
    let report = execute(&built.program, &RuntimeConfig::scale(2));
    assert!(report.setup_done > SimTime::ZERO);
    assert!(report.elapsed < report.makespan);
    assert_eq!(report.elapsed, report.makespan - report.setup_done);
}

#[test]
fn tracing_discounts_repeated_launches() {
    // With tracing, iterations after the first replay their per-task
    // analysis cheaply; the issuance span of a No-IDX run must shrink.
    let built = build_program();
    let traced = execute(
        &built.program,
        &RuntimeConfig::scale(4).with_axes(true, false).with_tracing(true),
    );
    let built2 = build_program();
    let untraced = execute(
        &built2.program,
        &RuntimeConfig::scale(4).with_axes(true, false).with_tracing(false),
    );
    assert!(
        traced.issuance_span < untraced.issuance_span,
        "traced {} !< untraced {}",
        traced.issuance_span,
        untraced.issuance_span
    );
}

#[test]
fn tracing_forces_expansion_without_dcr() {
    // §6.2.1: with tracing but no DCR, index launches expand before
    // distribution — the issuance span becomes O(|D|) per op instead of
    // O(1), unlike the DCR+IDX+tracing configuration.
    let built = build_program();
    let dcr = execute(&built.program, &RuntimeConfig::scale(4));
    let built2 = build_program();
    let nodcr = execute(&built2.program, &RuntimeConfig::scale(4).with_axes(false, true));
    assert!(
        nodcr.issuance_span > dcr.issuance_span * 2,
        "forced expansion should blow up the issuance span: {} vs {}",
        nodcr.issuance_span,
        dcr.issuance_span
    );
    // ... and turning tracing off restores the compact path.
    let built3 = build_program();
    let nodcr_notrace = execute(
        &built3.program,
        &RuntimeConfig::scale(4).with_axes(false, true).with_tracing(false),
    );
    assert!(nodcr_notrace.issuance_span < nodcr.issuance_span);
}

#[test]
fn single_node_runs_everything_locally() {
    let built = build_program();
    let report = execute(&built.program, &RuntimeConfig::validate(1));
    assert_eq!(report.messages, 0, "one node never touches the network");
    assert_eq!(report.bytes, 0);
    let (g, x) = extract(&built, &report);
    let (g_ref, x_ref) = reference();
    assert_eq!(g, g_ref);
    assert_eq!(x, x_ref);
}

#[test]
fn setup_only_program_has_zero_elapsed() {
    // A program whose ops are all setup (timed_from == ops.len()) spends
    // everything before the timer starts.
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc};
    let mut b = il_runtime::ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(8), fs);
    let part = equal_partition_1d(&mut b.forest, region.space, 2);
    let ident = b.identity_functor();
    let t = b.task("w", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, f, p, 1.0);
        }
    });
    b.index_launch(IndexLaunchDesc {
        task: t,
        domain: Domain::range(2),
        reqs: vec![RegionReq {
            partition: part,
            functor: ident,
            privilege: Privilege::Write,
            fields: vec![],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: CostSpec::Uniform(SimTime::us(10)),
        shard: None,
    });
    b.start_timing(); // nothing after: all ops are setup
    let program = b.build();
    let report = execute(&program, &RuntimeConfig::validate(2));
    assert_eq!(report.elapsed, SimTime::ZERO);
    assert_eq!(report.setup_done, report.makespan);
}

#[test]
fn more_nodes_than_tasks() {
    // A 4-point launch on an 8-node machine: tasks spread over 4 nodes,
    // the rest idle; everything still completes.
    let built = build_program();
    let report = execute(&built.program, &RuntimeConfig::validate(8));
    assert_eq!(report.tasks, (1 + 3 * ITERS as u64) * B as u64);
    let (g, x) = extract(&built, &report);
    let (g_ref, x_ref) = reference();
    assert_eq!(g, g_ref);
    assert_eq!(x, x_ref);
}

#[test]
fn free_cost_model_still_correct() {
    // Zeroing every overhead must not change semantics (events at equal
    // timestamps keep deterministic FIFO order).
    let built = build_program();
    let mut config = RuntimeConfig::validate(4);
    config.cost = il_runtime::CostModel::free();
    let report = execute(&built.program, &config);
    let (g, x) = extract(&built, &report);
    let (g_ref, x_ref) = reference();
    assert_eq!(g, g_ref);
    assert_eq!(x, x_ref);
    assert_eq!(report.dynamic_check_time, SimTime::ZERO);
}

#[test]
fn round_robin_sharding_with_slice_scatter() {
    // Round-robin ownership fragments the iteration order into |D| slice
    // runs; the non-DCR scatter must still deliver every task to its
    // owner and preserve semantics.
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc};
    let mut b = il_runtime::ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(12), fs);
    let part = equal_partition_1d(&mut b.forest, region.space, 6);
    let ident = b.identity_functor();
    let t = b.task("mark", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, f, p, ctx.point.x() as f64 + 100.0);
        }
    });
    b.index_launch(IndexLaunchDesc {
        task: t,
        domain: Domain::range(6),
        reqs: vec![RegionReq {
            partition: part,
            functor: ident,
            privilege: Privilege::Write,
            fields: vec![],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: CostSpec::Uniform(SimTime::us(10)),
        shard: Some(il_runtime::round_robin_shard()),
    });
    let program = b.build();
    for (dcr, idx, tracing) in [(false, true, false), (false, false, true), (true, true, true)] {
        let rt = RuntimeConfig::validate(3).with_axes(dcr, idx).with_tracing(tracing);
        let report = execute(&program, &rt);
        assert_eq!(report.tasks, 6);
        let store = report.store.unwrap();
        let root = program.forest.tree_root(region.tree);
        let blocks = program.forest.space(root).partitions[0];
        for (color, &space) in &program.forest.partition(blocks).children {
            let inst = store.get((region.tree, space)).unwrap();
            for p in program.forest.domain(space).iter() {
                assert_eq!(
                    inst.get::<f64>(f, p),
                    color.x() as f64 + 100.0,
                    "dcr={dcr} idx={idx}"
                );
            }
        }
    }
}

#[test]
fn commuting_reductions_share_a_buffer_without_ordering() {
    // Regression: a statically-safe launch whose point tasks reduce into
    // the *same* subspace (here `i mod 2` with Reduce(Sum)) used to get an
    // intra-launch "epoch opener" ordering edge for the identity fill —
    // tripping expand_program's safe ⇒ zero-intra-launch-deps assertion.
    // The fill is now lazy (once per buffer/field/epoch, at whichever
    // epoch member executes first), so the launch expands edge-free and
    // the folded results are still exact.
    use il_region::ReductionKind;
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("acc", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(4), fs);
    let part = equal_partition_1d(&mut b.forest, region.space, 2);
    let modular = b.functor(ProjExpr::Modular { a: 1, b: 0, m: 2 });
    let t = b.task("contribute", move |ctx| {
        let i = ctx.point.x();
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.fold_f64(0, f, p, ReductionKind::Sum, (i + 1) as f64);
        }
    });
    b.index_launch(IndexLaunchDesc {
        task: t,
        domain: Domain::range(8),
        reqs: vec![RegionReq {
            partition: part,
            functor: modular,
            privilege: Privilege::Reduce(ReductionKind::Sum.id()),
            fields: vec![],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: CostSpec::Uniform(SimTime::us(10)),
        shard: None,
    });
    let program = b.build();

    let config = RuntimeConfig::validate(2);
    let expanded = il_runtime::expand_program(&program, &config);
    assert!(matches!(
        expanded.safety[0],
        il_runtime::depgraph::OpSafety::Static
    ));
    assert!(
        expanded.deps.iter().all(|d| d.is_empty()),
        "commuting reductions must stay unordered: {:?}",
        expanded.deps
    );

    let report = execute(&program, &config);
    assert_eq!(report.tasks, 8);
    let store = report.store.unwrap();
    // Block c accumulates (i+1) for all launch points with i % 2 == c:
    // block 0 gets 1+3+5+7 = 16, block 1 gets 2+4+6+8 = 20.
    let blocks = program.forest.space(program.forest.tree_root(region.tree)).partitions[0];
    for (color, &space) in &program.forest.partition(blocks).children {
        let want = if color.x() == 0 { 16.0 } else { 20.0 };
        let inst = store.get((region.tree, space)).unwrap();
        for p in program.forest.domain(space).iter() {
            assert_eq!(inst.get::<f64>(f, p), want, "block {color:?}");
        }
    }
}
