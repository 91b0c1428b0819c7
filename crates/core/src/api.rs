//! The `forall` builder: the §3 surface syntax
//! `forall(D, T, ⟨P₁,f₁⟩, …, ⟨Pₙ,fₙ⟩)` as a fluent API.

use il_analysis::ProjExpr;
use il_geometry::Domain;
use il_machine::SimTime;
use il_region::{FieldId, FieldSpaceId, IndexPartitionId, Privilege, RegionTreeId};
use il_runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq, ShardingFn, TaskId};

/// Fluent builder for one index launch.
///
/// Each [`arg`](Forall::arg) is a ⟨partition, projection functor⟩ pair
/// with a privilege; non-collection arguments pass by value via
/// [`scalars`](Forall::scalars).
pub struct Forall {
    task: TaskId,
    domain: Domain,
    args: Vec<(IndexPartitionId, ProjExpr, Privilege, Vec<FieldId>, RegionTreeId, FieldSpaceId)>,
    scalars: Vec<f64>,
    cost: CostSpec,
    shard: Option<ShardingFn>,
}

impl Forall {
    /// Start a launch of `task` over `domain`.
    pub fn new(task: TaskId, domain: Domain) -> Self {
        Forall {
            task,
            domain,
            args: Vec::new(),
            scalars: Vec::new(),
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        }
    }

    /// Add a region argument touching all fields.
    pub fn arg(
        mut self,
        partition: IndexPartitionId,
        functor: ProjExpr,
        privilege: Privilege,
        tree: RegionTreeId,
        field_space: FieldSpaceId,
    ) -> Self {
        self.args.push((partition, functor, privilege, Vec::new(), tree, field_space));
        self
    }

    /// Add a region argument restricted to specific fields.
    pub fn arg_fields(
        mut self,
        partition: IndexPartitionId,
        functor: ProjExpr,
        privilege: Privilege,
        fields: Vec<FieldId>,
        tree: RegionTreeId,
        field_space: FieldSpaceId,
    ) -> Self {
        self.args.push((partition, functor, privilege, fields, tree, field_space));
        self
    }

    /// Pass scalar by-value arguments to every point task.
    pub fn scalars(mut self, scalars: Vec<f64>) -> Self {
        self.scalars = scalars;
        self
    }

    /// Set the modeled kernel duration per point task.
    pub fn cost(mut self, cost: SimTime) -> Self {
        self.cost = CostSpec::Uniform(cost);
        self
    }

    /// Override the sharding functor.
    pub fn shard(mut self, shard: ShardingFn) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Append the launch to a program.
    pub fn launch(self, builder: &mut ProgramBuilder) {
        let reqs = self
            .args
            .into_iter()
            .map(|(partition, functor, privilege, fields, tree, field_space)| RegionReq {
                partition,
                functor: builder.functor(functor),
                privilege,
                fields,
                tree,
                field_space,
            })
            .collect();
        builder.index_launch(IndexLaunchDesc {
            task: self.task,
            domain: self.domain,
            reqs,
            scalars: self.scalars,
            cost: self.cost,
            shard: self.shard,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc};
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn forall_builds_and_runs() {
        let mut b = ProgramBuilder::new();
        let mut fsd = FieldSpaceDesc::new();
        let val = fsd.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fsd);
        let region = b.forest.create_region(Domain::range(12), fs);
        let blocks = equal_partition_1d(&mut b.forest, region.space, 3);
        let fill = b.task("fill", move |ctx| {
            let pts: Vec<_> = ctx.domain(0).iter().collect();
            for p in pts {
                ctx.write(0, val, p, ctx.scalar(0));
            }
        });
        Forall::new(fill, Domain::range(3))
            .arg(blocks, ProjExpr::Identity, Privilege::Write, region.tree, fs)
            .scalars(vec![6.5])
            .cost(SimTime::us(25))
            .launch(&mut b);
        let program = b.build();
        let report = execute(&program, &RuntimeConfig::validate(3));
        assert_eq!(report.tasks, 3);
        let store = report.store.unwrap();
        let root = program.forest.tree_root(region.tree);
        let part = program.forest.space(root).partitions[0];
        for space in program.forest.partition(part).children.values() {
            let inst = store.get((region.tree, space)).unwrap();
            for p in program.forest.domain(space).iter() {
                assert_eq!(inst.get::<f64>(val, p), 6.5);
            }
        }
    }
}
