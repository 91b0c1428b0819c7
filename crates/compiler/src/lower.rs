//! Lowering optimizer plans onto runtime launch descriptors.
//!
//! The last step of the Regent pass: a statically-safe or guarded loop
//! becomes a single index-launch API call to the runtime; a sequential
//! loop becomes |D| single-task launches (index launches of singleton
//! domains, issued in loop order). The guarded case corresponds to
//! Listing 3's generated branch — the check itself already ran inside
//! [`optimize_loop`](crate::optimize_loop)'s plan, and the runtime
//! re-charges its cost when dynamic checks are enabled.

use crate::ir::TaskLoop;
use crate::optimizer::Plan;
use il_machine::SimTime;
use il_runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq, TaskId};

/// Lower `plan` for `l` into launch descriptors appended to `builder`.
///
/// `task` is the runtime task variant to invoke and `cost` the modeled
/// kernel duration. Returns the number of operations appended (1 for an
/// index launch, |D| for a sequential loop).
pub fn lower_plan(
    builder: &mut ProgramBuilder,
    plan: &Plan,
    l: &TaskLoop,
    task: TaskId,
    cost: SimTime,
) -> usize {
    let reqs: Vec<RegionReq> = l
        .args
        .iter()
        .map(|a| RegionReq {
            partition: a.partition,
            functor: builder.functor(a.functor.clone()),
            privilege: a.privilege,
            fields: a.fields.clone(),
            tree: a.tree,
            field_space: a.field_space,
        })
        .collect();

    match plan {
        Plan::IndexLaunch { .. } | Plan::Guarded { .. } => {
            builder.index_launch(IndexLaunchDesc {
                task,
                domain: l.domain.clone(),
                reqs,
                scalars: vec![],
                cost: CostSpec::Uniform(cost),
                shard: None,
            });
            1
        }
        Plan::Sequential { .. } => {
            // One singleton launch per point, in loop order. The runtime's
            // dependence analysis still extracts whatever parallelism the
            // data allows, exactly as Legion does for individual task
            // launches.
            let mut count = 0;
            for point in l.domain.iter() {
                let singleton = il_geometry::Domain::sparse(vec![point]);
                builder.index_launch(IndexLaunchDesc {
                    task,
                    domain: singleton,
                    reqs: reqs.clone(),
                    scalars: vec![],
                    cost: CostSpec::Uniform(cost),
                    shard: None,
                });
                count += 1;
            }
            count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::RegionArg;
    use crate::optimizer::optimize_loop;
    use il_analysis::ProjExpr;
    use il_geometry::Domain;
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc, Privilege};
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn lowered_plans_execute() {
        let mut b = ProgramBuilder::new();
        let mut fsd = FieldSpaceDesc::new();
        let f = fsd.add("x", FieldKind::F64);
        let fs = b.forest.create_field_space(fsd);
        let region = b.forest.create_region(Domain::range(20), fs);
        let part = equal_partition_1d(&mut b.forest, region.space, 4);

        let bump = b.task("bump", move |ctx| {
            let pts: Vec<_> = ctx.domain(0).iter().collect();
            for p in pts {
                let v: f64 = ctx.read(0, f, p);
                ctx.write(0, f, p, v + 1.0);
            }
        });

        // A statically-safe loop and a statically-unsafe one (same
        // functor write+read conflict becomes per-point launches).
        let safe = TaskLoop {
            task_name: "bump".into(),
            domain: Domain::range(4),
            args: vec![RegionArg {
                name: "p".into(),
                partition: part,
                functor: ProjExpr::Identity,
                privilege: Privilege::ReadWrite,
                fields: vec![],
                tree: region.tree,
                field_space: fs,
            }],
            body: vec![],
        };
        let unsafe_loop = TaskLoop {
            domain: Domain::range(4),
            args: vec![RegionArg {
                functor: ProjExpr::Modular { a: 1, b: 0, m: 2 },
                ..safe.args[0].clone()
            }],
            ..safe.clone()
        };

        let plan_safe = optimize_loop(&b.forest, &safe);
        let plan_seq = optimize_loop(&b.forest, &unsafe_loop);
        assert!(plan_safe.is_index_launch());
        assert!(!plan_seq.is_index_launch());

        let n1 = lower_plan(&mut b, &plan_safe, &safe, bump, SimTime::us(10));
        let n2 = lower_plan(&mut b, &plan_seq, &unsafe_loop, bump, SimTime::us(10));
        assert_eq!(n1, 1);
        assert_eq!(n2, 4);

        let program = b.build();
        let report = execute(&program, &RuntimeConfig::validate(2));
        // 4 point tasks from the index launch + 4 singleton launches.
        assert_eq!(report.tasks, 8);
        // Safe launch bumps every element once; the sequential loop's
        // tasks bump blocks 0 and 1 twice each (functor i%2 over [0,4)).
        let store = report.store.unwrap();
        let forest = &program.forest;
        let mut total = 0.0;
        for s in 0..forest.num_spaces() as u32 {
            let space = il_region::IndexSpaceId(s);
            if forest.space(space).parent().is_some() {
                if let Some(inst) = store.get((region.tree, space)) {
                    for p in forest.space(space).domain.iter() {
                        total += inst.get::<f64>(f, p);
                    }
                }
            }
        }
        // 20 elements bumped once (20) + blocks 0,1 (10 elements) bumped
        // twice more (20).
        assert_eq!(total, 40.0);
    }
}
