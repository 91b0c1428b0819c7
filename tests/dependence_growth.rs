//! Dependence rows do not grow with the iteration count.
//!
//! A halo or ghost space that no launch writes directly keeps its
//! readers until a launch whose writes jointly cover it closes it. Without
//! that close every later writer of an overlapping block depends on the
//! readers of *every* earlier iteration again, so the per-task
//! dependence count of a launch grows linearly with the iteration and the
//! graph quadratically. These tests expand each app and compare the mean
//! dependences per task of the second and the last launch of the tasks
//! that grew: soleil's `fluid_swap` and `absorb` and stencil's
//! `increment` must be flat. Circuit's `update_voltages` still grows,
//! because its reducers on partially covered ghost buffers are fold
//! sources and are never closed; its growth per iteration is held to an
//! upper bound instead.
//!
//! The tiny configurations run in every build; the figure-scale ones
//! (soleil `full_weak(512)`, stencil and circuit `weak(1024)`, the
//! programs of the benchmark's `paper-apps` workloads) only in release.
//! Two hand-built programs pin the rule's edges: a full joint cover
//! closes, a partial one does not, and both keep the reference
//! executor's transitive closure.

use il_oracle::check_program;
use index_launch::apps::{circuit, soleil, stencil};
use index_launch::prelude::*;
use index_launch::runtime::{expand_program, CostSpec, IndexLaunchDesc, RegionReq, TaskTable};

/// Mean dependences per task of every launch of task `name`, in issue
/// order.
fn rows_per_launch(program: &Program, name: &str) -> Vec<f64> {
    let table = TaskTable::expand(program, &RuntimeConfig::scale(4));
    let rows: Vec<f64> = table
        .op_tasks
        .iter()
        .enumerate()
        .filter(|&(op, _)| program.task(program.ops[op].launch().task).name == name)
        .map(|(_, &(lo, hi))| {
            let deps: usize = (lo..hi).map(|t| table.deps(t).len()).sum();
            deps as f64 / f64::from(hi - lo)
        })
        .collect();
    assert!(rows.len() >= 3, "{name}: {} launches, need 3 to see growth", rows.len());
    rows
}

/// The last launch of `name` has as many dependences per task as the
/// second (the first may depend on initialization alone).
fn assert_flat(program: &Program, name: &str) {
    let rows = rows_per_launch(program, name);
    assert_eq!(rows[rows.len() - 1], rows[1], "{name}: dependences per task by launch {rows:?}");
}

/// Mean growth of `name`'s dependences per task per launch, from the
/// second launch to the last.
fn growth_per_launch(program: &Program, name: &str) -> f64 {
    let rows = rows_per_launch(program, name);
    (rows[rows.len() - 1] - rows[1]) / (rows.len() - 2) as f64
}

#[test]
fn soleil_rows_are_flat() {
    let config = soleil::SoleilConfig { iterations: 4, ..soleil::SoleilConfig::tiny((2, 2, 1)) };
    let program = soleil::build(&config).program;
    assert_flat(&program, "fluid_swap");
    assert_flat(&program, "absorb");
}

#[test]
fn stencil_rows_are_flat() {
    let program = stencil::build(&stencil::StencilConfig::tiny((2, 2))).program;
    assert_flat(&program, "increment");
}

/// Circuit's `update_voltages` still grows through its ghost buffers'
/// reducers; it must grow no faster than before readers were closed:
/// 2.5 dependences per task per iteration on this problem then, 1.0 with
/// the close.
#[test]
fn circuit_growth_is_bounded() {
    let program = circuit::build(&circuit::CircuitConfig::tiny(4)).program;
    let growth = growth_per_launch(&program, "update_voltages");
    assert!(growth <= 2.5, "update_voltages grows by {growth} dependences per task per iteration");
}

#[cfg(not(debug_assertions))]
#[test]
fn figure_scale_rows_are_flat() {
    let program = soleil::build(&soleil::SoleilConfig::full_weak(512)).program;
    assert_flat(&program, "fluid_swap");
    assert_flat(&program, "absorb");
    drop(program);
    let program = stencil::build(&stencil::StencilConfig::weak(1024)).program;
    assert_flat(&program, "increment");
    drop(program);
    // 4.0 dependences per task per iteration before the close, 2.0 with it.
    let program = circuit::build(&circuit::CircuitConfig::weak(1024, 1)).program;
    let growth = growth_per_launch(&program, "update_voltages");
    assert!(growth <= 4.0, "update_voltages grows by {growth} dependences per task per iteration");
}

/// An 8-cell grid with two disjoint blocks, `[0, 3]` and `[4, 7]`, and a
/// halo `[2, 5]` that straddles them. `ops` are one-requirement
/// launches on field `f`, in order: `(partition, privilege, first
/// color, last color)`, where partition 0 is the blocks and 1 the halo.
fn halo_program(ops: &[(usize, Privilege, i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("f", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let grid = b.forest.create_region(Domain::range(8), fs);
    let blocks = equal_partition_1d(&mut b.forest, grid.space, 2);
    let halo = coloring_partition(
        &mut b.forest,
        grid.space,
        Domain::range(1),
        vec![(DomainPoint::new1(0), Domain::from(Rect::new1(2, 5)))],
    );
    let task = b.task_modeled("access");
    let identity = b.identity_functor();
    for &(partition, privilege, lo, hi) in ops {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::from(Rect::new1(lo, hi)),
            reqs: vec![RegionReq {
                partition: [blocks, halo][partition],
                functor: identity,
                privilege,
                fields: vec![f],
                tree: grid.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    b.build()
}

/// Read the halo (task 0), write both blocks in one launch (tasks 1, 2:
/// a joint cover), write the halo (task 3). The close retires the
/// reader, so the last writer depends only on the covering writers,
/// which depend on the reader.
#[test]
fn a_joint_cover_closes_older_readers() {
    let program = halo_program(&[(1, Privilege::Read, 0, 0), (0, Privilege::Write, 0, 1), (1, Privilege::Write, 0, 0)]);
    check_program(&program, 2).expect("the close keeps the reference closure");
    let table = TaskTable::expand(&program, &RuntimeConfig::scale(2));
    assert_eq!([table.deps(1), table.deps(2), table.deps(3)], [&[0][..], &[0], &[1, 2]]);
    assert_eq!((table.closes.closes, table.closes.reader_bits), (1, 1));
}

/// Read the halo (task 0), write block 0 alone (task 1: half of the
/// halo), then block 1 alone (task 2). Block 0's launch does not cover
/// the halo, so the reader stays and block 1's writer still waits for it.
#[test]
fn a_partial_cover_keeps_older_readers() {
    let program = halo_program(&[(1, Privilege::Read, 0, 0), (0, Privilege::Write, 0, 0), (0, Privilege::Write, 1, 1)]);
    check_program(&program, 2).expect("a partial cover keeps the reference closure");
    let exp = expand_program(&program, &RuntimeConfig::scale(2));
    assert_eq!(exp.deps, vec![vec![], vec![0], vec![0]]);
    assert_eq!(exp.closes.closes, 0);
}
