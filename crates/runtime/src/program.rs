//! Programs: tasks, region requirements, and index-launch descriptors.
//!
//! A [`Program`] is the stream of operations the application's top-level
//! task issues, in program order. Every operation is an
//! [`IndexLaunchDesc`] — the O(1) representation of §3:
//! `forall(D, T, ⟨P₁,f₁⟩, …, ⟨Pₙ,fₙ⟩)`. Whether the runtime *keeps* that
//! compact representation (IDX on) or expands it into |D| individual task
//! launches at issuance (IDX off) is decided by the runtime configuration,
//! not the program.

use crate::context::TaskContext;
use crate::shard::ShardingFn;
use il_analysis::ProjExpr;
use il_geometry::{Domain, DomainPoint};
use il_machine::SimTime;
use il_region::{FieldId, FieldSpaceId, IndexPartitionId, Privilege, RegionForest, RegionTreeId};
use std::fmt;
use std::sync::Arc;

/// Identifier of a registered task variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifier of a registered projection functor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctorId(pub u32);

impl fmt::Debug for FunctorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A task body executed in validation mode. The body receives a
/// [`TaskContext`] with typed accessors for each region requirement.
pub type TaskBody = Arc<dyn Fn(&mut TaskContext) + Send + Sync>;

/// A registered task variant.
#[derive(Clone)]
pub struct TaskDesc {
    /// Human-readable name (diagnostics and stats).
    pub name: String,
    /// The kernel body (absent for cost-only tasks).
    pub body: Option<TaskBody>,
}

/// A region requirement of an index launch: ⟨Pᵢ, fᵢ⟩ plus privilege and
/// fields (§3).
#[derive(Clone, Debug)]
pub struct RegionReq {
    /// The partition sub-collections are selected from.
    pub partition: IndexPartitionId,
    /// The projection functor mapping launch point → color.
    pub functor: FunctorId,
    /// Declared privilege.
    pub privilege: Privilege,
    /// Fields accessed (empty = all fields of the field space).
    pub fields: Vec<FieldId>,
    /// The region tree of the partitioned collection.
    pub tree: RegionTreeId,
    /// The collection's field space (sizes for data-movement costs).
    pub field_space: FieldSpaceId,
}

/// Per-task kernel duration in scale mode.
#[derive(Clone)]
pub enum CostSpec {
    /// Every point task takes the same time.
    Uniform(SimTime),
    /// Duration depends on the launch point (e.g. DOM wavefront tasks
    /// whose slice sizes vary).
    PerPoint(Arc<dyn Fn(DomainPoint) -> SimTime + Send + Sync>),
}

impl CostSpec {
    /// Kernel duration of the task at `point`.
    pub fn at(&self, point: DomainPoint) -> SimTime {
        match self {
            CostSpec::Uniform(t) => *t,
            CostSpec::PerPoint(f) => f(point),
        }
    }
}

impl fmt::Debug for CostSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostSpec::Uniform(t) => write!(f, "uniform({t})"),
            CostSpec::PerPoint(_) => write!(f, "per-point"),
        }
    }
}

/// The O(1) descriptor of a group of |D| parallel tasks.
#[derive(Clone)]
pub struct IndexLaunchDesc {
    /// The task to launch at every domain point.
    pub task: TaskId,
    /// The launch domain D.
    pub domain: Domain,
    /// Region requirements ⟨Pᵢ, fᵢ⟩ with privileges.
    pub reqs: Vec<RegionReq>,
    /// Scalar by-value arguments, passed to every point task.
    pub scalars: Vec<f64>,
    /// Modeled kernel duration.
    pub cost: CostSpec,
    /// Sharding override (None = block sharding over the domain).
    pub shard: Option<ShardingFn>,
}

impl fmt::Debug for IndexLaunchDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forall({:?}, {:?}, {} reqs)",
            self.domain, self.task, self.reqs.len()
        )
    }
}

/// One operation of the issuance stream.
#[derive(Clone, Debug)]
pub enum Operation {
    /// An index launch (possibly of a single point).
    IndexLaunch(IndexLaunchDesc),
}

impl Operation {
    /// The launch inside.
    pub fn launch(&self) -> &IndexLaunchDesc {
        match self {
            Operation::IndexLaunch(l) => l,
        }
    }
}

/// A complete program: shape metadata, registries, and the operation
/// stream in program order.
pub struct Program {
    /// The region forest (index spaces, partitions, field spaces).
    pub forest: RegionForest,
    /// Registered projection functors.
    pub functors: Vec<ProjExpr>,
    /// Registered task variants.
    pub tasks: Vec<TaskDesc>,
    /// The issuance stream.
    pub ops: Vec<Operation>,
    /// Index of the first timed operation (ops before this are setup /
    /// initialization and excluded from throughput).
    pub timed_from: usize,
}

impl Program {
    /// The functor expression for an id.
    pub fn functor(&self, id: FunctorId) -> &ProjExpr {
        &self.functors[id.0 as usize]
    }

    /// The task descriptor for an id.
    pub fn task(&self, id: TaskId) -> &TaskDesc {
        &self.tasks[id.0 as usize]
    }

    /// Total point tasks across the (timed and untimed) stream.
    pub fn total_tasks(&self) -> u64 {
        self.ops.iter().map(|op| op.launch().domain.volume()).sum()
    }
}

/// Builder for [`Program`]s. Owns the region forest during construction.
pub struct ProgramBuilder {
    /// The forest being built (public so apps can create regions and
    /// partitions directly with the `il_region` operators).
    pub forest: RegionForest,
    functors: Vec<ProjExpr>,
    tasks: Vec<TaskDesc>,
    ops: Vec<Operation>,
    timed_from: usize,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new() -> Self {
        ProgramBuilder {
            forest: RegionForest::new(),
            functors: Vec::new(),
            tasks: Vec::new(),
            ops: Vec::new(),
            timed_from: 0,
        }
    }

    /// Register a projection functor; structurally identical functors are
    /// deduplicated so analysis verdicts can be cached per id.
    pub fn functor(&mut self, expr: ProjExpr) -> FunctorId {
        if let Some(i) = self.functors.iter().position(|f| f.structurally_eq(&expr)) {
            return FunctorId(i as u32);
        }
        let id = FunctorId(self.functors.len() as u32);
        self.functors.push(expr);
        id
    }

    /// The identity functor (registered once).
    pub fn identity_functor(&mut self) -> FunctorId {
        self.functor(ProjExpr::Identity)
    }

    /// Register a task variant with a real kernel body.
    pub fn task<F>(&mut self, name: &str, body: F) -> TaskId
    where
        F: Fn(&mut TaskContext) + Send + Sync + 'static,
    {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskDesc {
            name: name.to_string(),
            body: Some(Arc::new(body)),
        });
        id
    }

    /// Register a cost-only task (no kernel body; scale mode only).
    pub fn task_modeled(&mut self, name: &str) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskDesc { name: name.to_string(), body: None });
        id
    }

    /// Append an index launch to the stream.
    pub fn index_launch(&mut self, launch: IndexLaunchDesc) {
        assert!(!launch.domain.is_empty(), "empty launch domain");
        assert!(
            (launch.task.0 as usize) < self.tasks.len(),
            "unregistered task {:?}",
            launch.task
        );
        for req in &launch.reqs {
            assert!(
                (req.functor.0 as usize) < self.functors.len(),
                "unregistered functor {:?}",
                req.functor
            );
        }
        self.ops.push(Operation::IndexLaunch(launch));
    }

    /// Mark the start of the timed portion of the program (everything
    /// appended so far is setup).
    pub fn start_timing(&mut self) {
        self.timed_from = self.ops.len();
    }

    /// Finish construction.
    pub fn build(self) -> Program {
        Program {
            forest: self.forest,
            functors: self.functors,
            tasks: self.tasks,
            ops: self.ops,
            timed_from: self.timed_from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc};

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new();
        let mut fsd = FieldSpaceDesc::new();
        fsd.add("x", FieldKind::F64);
        let fs = b.forest.create_field_space(fsd);
        let region = b.forest.create_region(Domain::range(100), fs);
        let part = equal_partition_1d(&mut b.forest, region.space, 4);
        let id = b.identity_functor();
        let t = b.task_modeled("touch");
        b.start_timing();
        b.index_launch(IndexLaunchDesc {
            task: t,
            domain: Domain::range(4),
            reqs: vec![RegionReq {
                partition: part,
                functor: id,
                privilege: Privilege::ReadWrite,
                fields: vec![],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(50)),
            shard: None,
        });
        b.build()
    }

    #[test]
    fn build_and_inspect() {
        let p = simple_program();
        assert_eq!(p.ops.len(), 1);
        assert_eq!(p.total_tasks(), 4);
        assert_eq!(p.timed_from, 0);
        assert!(matches!(p.functor(FunctorId(0)), ProjExpr::Identity));
        assert_eq!(p.task(TaskId(0)).name, "touch");
    }

    #[test]
    fn functors_are_deduplicated() {
        let mut b = ProgramBuilder::new();
        let a = b.functor(ProjExpr::linear(2, 1));
        let c = b.functor(ProjExpr::linear(2, 1));
        let d = b.functor(ProjExpr::linear(2, 2));
        assert_eq!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn cost_spec_eval() {
        let u = CostSpec::Uniform(SimTime::us(5));
        assert_eq!(u.at(DomainPoint::new1(3)), SimTime::us(5));
        let p = CostSpec::PerPoint(Arc::new(|pt: DomainPoint| SimTime::us(pt.x() as u64)));
        assert_eq!(p.at(DomainPoint::new1(7)), SimTime::us(7));
    }

    #[test]
    #[should_panic(expected = "unregistered task")]
    fn launch_of_unknown_task_rejected() {
        let mut b = ProgramBuilder::new();
        b.index_launch(IndexLaunchDesc {
            task: TaskId(5),
            domain: Domain::range(1),
            reqs: vec![],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::ZERO),
            shard: None,
        });
    }
}
