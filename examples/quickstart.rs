//! Quickstart: build a tiny program with two index launches, let the
//! loop optimizer explain its decisions, and run it on a simulated
//! 4-node machine.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use index_launch::compiler::{optimize_loop, RegionArg, TaskLoop};
use index_launch::prelude::*;

fn main() {
    // A 100-element collection with one f64 field, partitioned 4 ways.
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let val = fsd.add("val", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(100), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 4);

    // Two tasks: fill every element, then double it.
    let fill = b.task("fill", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, val, p, p.x() as f64);
        }
    });
    let double = b.task("double", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, val, p);
            ctx.write(0, val, p, 2.0 * v);
        }
    });

    // Ask the compiler pass what it thinks of the loops first — this is
    // the §4 walkthrough with diagnostics.
    for (name, functor) in [
        ("fill", ProjExpr::Identity),
        ("bad", ProjExpr::Modular { a: 1, b: 0, m: 3 }), // Listing 2's i%3
    ] {
        let l = TaskLoop {
            task_name: name.into(),
            domain: Domain::range(4),
            args: vec![RegionArg {
                name: "p".into(),
                partition: blocks,
                functor,
                privilege: Privilege::ReadWrite,
                fields: vec![],
                tree: region.tree,
                field_space: fs,
            }],
            body: vec![],
        };
        println!("loop `{l}`:\n{}", optimize_loop(&b.forest, &l));
    }

    // forall(D, T, ⟨P, λi.i⟩): the paper's Listing 1, first loop.
    Forall::new(fill, Domain::range(4))
        .arg(blocks, ProjExpr::Identity, Privilege::Write, region.tree, fs)
        .cost(SimTime::us(100))
        .launch(&mut b);
    Forall::new(double, Domain::range(4))
        .arg(blocks, ProjExpr::Identity, Privilege::ReadWrite, region.tree, fs)
        .cost(SimTime::us(100))
        .launch(&mut b);

    let program = b.build();
    let report = execute(&program, &RuntimeConfig::validate(4));
    println!(
        "ran {} point tasks on 4 simulated nodes in {} simulated time \
         ({} cross-node messages, {} bytes moved)",
        report.tasks, report.makespan, report.messages, report.bytes
    );

    // Read a value back: element 42 was filled with 42 then doubled.
    let store = report.store.expect("validation mode");
    let root = program.forest.tree_root(region.tree);
    let part = program.forest.space(root).partitions[0];
    let p42 = index_launch::geometry::DomainPoint::new1(42);
    for space in program.forest.partition(part).children.values() {
        if program.forest.domain(space).contains(p42) {
            let inst = store.get((region.tree, space)).unwrap();
            let v: f64 = inst.get(val, p42);
            println!("element 42 = {v} (expected 84)");
            assert_eq!(v, 84.0);
        }
    }
}
