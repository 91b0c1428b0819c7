//! The expansion's output as one flat task table.
//!
//! An index launch is an O(1) description of |D| point tasks; once the
//! expansion has materialized them, the host should not pay a dozen heap
//! blocks per task either. [`TaskTable`] stores every point task of a
//! program in a few arrays:
//!
//! * per-task columns: originating op, iteration-order point index, owner
//!   node (the launch-domain point itself is recomputed from the index);
//! * each task's selected subspaces back to back, with the op's
//!   requirement count as the stride;
//! * dependence predecessors, successors and incoming copies as
//!   compressed sparse rows — one offsets array plus one flat item array
//!   each — with a copy's fields held as the `u64` mask the dependence
//!   oracle computes;
//! * reduction-epoch fills, stored only for tasks of launches that have a
//!   reduce requirement.
//!
//! The executor, the credit table, crash recovery and the SDC defense
//! read only this table, and trace replay splices a captured window into
//! it as a range append. [`ExpandedProgram`] — one `Vec` per task row —
//! is a view built from it by [`crate::expand_program`] for callers that
//! walk the task graph as nested vectors.

use crate::depgraph::{
    mask_fields, AnalysisCacheStats, CopyIn, ExpandProfile, ExpandedProgram, OpDist, OpSafety,
    TaskInstance, TaskRef,
};
use crate::program::Program;
use crate::replay::{TraceMark, TraceReplayStats};
use crate::shard::point_at;
use il_geometry::DomainPoint;
use il_machine::NodeId;
use il_region::{FieldId, IndexSpaceId, RegionTreeId, ReductionOpId};

/// Rows of varying length stored back to back (compressed sparse rows):
/// row `i` is `items[off[i]..off[i + 1]]`. Rows are appended in order —
/// push a row's items, then [`Rows::close`] it.
#[derive(Clone, Debug)]
pub(crate) struct Rows<T> {
    off: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows::with_rows(0)
    }
}

impl<T> Rows<T> {
    /// No rows yet, with room for `rows` offsets.
    pub(crate) fn with_rows(rows: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Rows { off, items: Vec::new() }
    }

    /// Rows from their offsets (`rows + 1` entries, the first 0, the last
    /// `items.len()`) and items.
    pub(crate) fn from_parts(off: Vec<u32>, items: Vec<T>) -> Self {
        debug_assert!(off.first() == Some(&0) && off.last().map(|&e| e as usize) == Some(items.len()));
        Rows { off, items }
    }

    /// Closed rows.
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Close the row holding every item pushed since the last close.
    pub(crate) fn close(&mut self) {
        self.off.push(u32::try_from(self.items.len()).expect("task table rows are 32-bit"));
    }

    /// Append one row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.close();
    }

    /// Heap bytes the two arrays hold (capacity, not length).
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.off) + vec_bytes(&self.items)
    }

    /// Release the growth slack of both arrays.
    fn shrink_to_fit(&mut self) {
        self.off.shrink_to_fit();
        self.items.shrink_to_fit();
    }
}

/// Heap bytes `v` holds: its capacity times its element size.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// An incoming data movement of a task, as the table stores it: the
/// view's [`CopyIn`] with its moved fields held as a bit mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskCopy {
    /// The moved fields: bit `f` set for field `f`.
    pub fields: u64,
    /// Bytes moved (overlap volume × bytes per moved field).
    pub bytes: u64,
    /// The producing task.
    pub from: TaskRef,
    /// The producer's subregion (source instance key space).
    pub src_space: IndexSpaceId,
    /// The region tree the data lives in.
    pub tree: RegionTreeId,
    /// Which of the consumer's requirements receives the data.
    pub dst_req: u32,
    /// `Some(op)` when the producer held a reduce privilege: apply as a
    /// fold instead of an overwrite.
    pub fold: Option<ReductionOpId>,
}

impl TaskCopy {
    /// The moved field ids, ascending.
    pub fn field_ids(&self) -> Vec<FieldId> {
        let mut out = Vec::with_capacity(self.fields.count_ones() as usize);
        out.extend(mask_fields(self.fields));
        out
    }
}

/// Where one op's tasks sit in the flat per-requirement arrays.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpLayout {
    /// Requirements per task: the stride of the op's rows.
    pub(crate) reqs: usize,
    /// Offset of the op's first task in [`TaskTable::subspaces`].
    pub(crate) sub: usize,
    /// The op's first row in [`TaskTable::fills`] — one row per task and
    /// requirement — when the launch has a reduce requirement.
    pub(crate) fill: Option<usize>,
}

/// Every point task of an expanded program, its exact task graph and its
/// distribution plans, in flat arrays (see the module docs).
pub struct TaskTable {
    pub(crate) op: Vec<u32>,
    pub(crate) point_idx: Vec<u32>,
    pub(crate) owner: Vec<u32>,
    pub(crate) layout: Vec<OpLayout>,
    pub(crate) subspaces: Vec<IndexSpaceId>,
    /// Per (task, requirement) of a reduce launch: `(field, epoch id)` for
    /// every field the requirement folds into (empty for its other
    /// requirements).
    pub(crate) fills: Rows<(FieldId, u32)>,
    pub(crate) deps: Rows<TaskRef>,
    pub(crate) succs: Rows<TaskRef>,
    pub(crate) copies: Rows<TaskCopy>,
    /// Task range `[lo, hi)` of each operation.
    pub op_tasks: Vec<(u32, u32)>,
    /// Safety verdict of each operation.
    pub safety: Vec<OpSafety>,
    /// Distribution plan (owner groups + slice runs) of each operation.
    pub dist: Vec<OpDist>,
    /// Analysis-cache hit/miss accounting for this expansion.
    pub analysis_cache: AnalysisCacheStats,
    /// Trace capture/replay accounting for this expansion.
    pub trace_replay: TraceReplayStats,
    /// Whether each operation was materialized by replaying a trace.
    pub replayed_ops: Vec<bool>,
    /// Capture/replay/invalidate events in op order.
    pub trace_marks: Vec<TraceMark>,
    /// Host wall-clock spent producing this expansion, by bucket.
    pub profile: ExpandProfile,
}

impl TaskTable {
    /// An empty table with room for `tasks` tasks of `ops` operations.
    pub(crate) fn with_capacity(ops: usize, tasks: usize, subspaces: usize) -> Self {
        TaskTable {
            op: Vec::with_capacity(tasks),
            point_idx: Vec::with_capacity(tasks),
            owner: Vec::with_capacity(tasks),
            layout: Vec::with_capacity(ops),
            subspaces: Vec::with_capacity(subspaces),
            fills: Rows::default(),
            deps: Rows::with_rows(tasks),
            succs: Rows::default(),
            copies: Rows::with_rows(tasks),
            op_tasks: Vec::with_capacity(ops),
            safety: Vec::with_capacity(ops),
            dist: Vec::with_capacity(ops),
            analysis_cache: AnalysisCacheStats::default(),
            trace_replay: TraceReplayStats::default(),
            replayed_ops: Vec::with_capacity(ops),
            trace_marks: Vec::new(),
            profile: ExpandProfile::default(),
        }
    }

    /// Release the growth slack of the edge and copy arrays.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.fills.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.copies.shrink_to_fit();
    }

    /// Heap bytes the table holds: capacity × element size over every
    /// array of it, the per-owner task lists of the distribution plans
    /// included.
    pub fn heap_bytes(&self) -> usize {
        let dist = |d: &OpDist| {
            let tasks: usize = d.groups.iter().map(|(_, tasks)| vec_bytes(tasks)).sum();
            vec_bytes(&d.groups) + vec_bytes(&d.slices) + tasks
        };
        vec_bytes(&self.op)
            + vec_bytes(&self.point_idx)
            + vec_bytes(&self.owner)
            + vec_bytes(&self.layout)
            + vec_bytes(&self.subspaces)
            + self.fills.heap_bytes()
            + self.deps.heap_bytes()
            + self.succs.heap_bytes()
            + self.copies.heap_bytes()
            + vec_bytes(&self.op_tasks)
            + vec_bytes(&self.safety)
            + vec_bytes(&self.dist)
            + self.dist.iter().map(dist).sum::<usize>()
            + vec_bytes(&self.replayed_ops)
            + vec_bytes(&self.trace_marks)
    }

    /// Number of point tasks.
    pub fn len(&self) -> usize {
        self.op.len()
    }

    /// True iff the program has no tasks.
    pub fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// Index of the operation `t` belongs to.
    #[inline]
    pub fn op(&self, t: TaskRef) -> u32 {
        self.op[t as usize]
    }

    /// Iteration-order position of `t` within its launch domain.
    #[inline]
    pub fn point_idx(&self, t: TaskRef) -> u32 {
        self.point_idx[t as usize]
    }

    /// Node the sharding assigned `t` to.
    #[inline]
    pub fn owner(&self, t: TaskRef) -> NodeId {
        self.owner[t as usize] as NodeId
    }

    /// The launch-domain point of `t`.
    pub fn point(&self, program: &Program, t: TaskRef) -> DomainPoint {
        let domain = &program.ops[self.op(t) as usize].launch().domain;
        point_at(domain, u64::from(self.point_idx(t)))
    }

    /// Offset of `t`'s first per-requirement entry within its op's block.
    #[inline]
    fn row_in_op(&self, t: TaskRef) -> (OpLayout, usize) {
        let op = self.op(t) as usize;
        let layout = self.layout[op];
        (layout, (t - self.op_tasks[op].0) as usize * layout.reqs)
    }

    /// Subspace each requirement of `t` selected.
    #[inline]
    pub fn subspaces(&self, t: TaskRef) -> &[IndexSpaceId] {
        let (layout, at) = self.row_in_op(t);
        &self.subspaces[layout.sub + at..layout.sub + at + layout.reqs]
    }

    /// `(field, epoch id)` for every field requirement `req` of `t` folds
    /// into; empty unless `req` has reduce privilege.
    pub fn reduce_fill(&self, t: TaskRef, req: usize) -> &[(FieldId, u32)] {
        let (layout, at) = self.row_in_op(t);
        layout.fill.map_or(&[], |fill| self.fills.row(fill + at + req))
    }

    /// Predecessors of `t`, ascending.
    #[inline]
    pub fn deps(&self, t: TaskRef) -> &[TaskRef] {
        self.deps.row(t as usize)
    }

    /// Successors of `t`, ordered by (owner node, task): each owner's run
    /// is one credit message of `t`'s completion, and
    /// [`crate::credits::CreditTable`] stores its per-edge data in the
    /// same order.
    #[inline]
    pub fn succs(&self, t: TaskRef) -> &[TaskRef] {
        self.succs.row(t as usize)
    }

    /// Incoming copies of `t`.
    #[inline]
    pub fn copies(&self, t: TaskRef) -> &[TaskCopy] {
        self.copies.row(t as usize)
    }

    /// Credits `t` waits for before it may start: one per dependence edge
    /// plus one per incoming copy.
    #[inline]
    pub fn waits(&self, t: TaskRef) -> u32 {
        (self.deps(t).len() + self.copies(t).len()) as u32
    }

    /// The nested-vector view of this table, every `Vec` allocated to
    /// its exact length.
    pub fn view(&self, program: &Program) -> ExpandedProgram {
        let tasks = (0..self.len() as TaskRef)
            .map(|t| {
                let reqs = self.subspaces(t).len();
                TaskInstance {
                    op: self.op(t),
                    point_idx: self.point_idx(t),
                    point: self.point(program, t),
                    owner: self.owner(t),
                    subspaces: self.subspaces(t).to_vec(),
                    reduce_fill: (0..reqs).map(|r| self.reduce_fill(t, r).to_vec()).collect(),
                }
            })
            .collect();
        let rows = |r: &Rows<TaskRef>| (0..r.len()).map(|i| r.row(i).to_vec()).collect();
        let copies = (0..self.len())
            .map(|t| {
                self.copies
                    .row(t)
                    .iter()
                    .map(|c| CopyIn {
                        from: c.from,
                        src_space: c.src_space,
                        dst_req: c.dst_req as usize,
                        tree: c.tree,
                        fields: c.field_ids(),
                        bytes: c.bytes,
                        fold: c.fold,
                    })
                    .collect()
            })
            .collect();
        ExpandedProgram {
            tasks,
            op_tasks: self.op_tasks.clone(),
            safety: self.safety.clone(),
            deps: rows(&self.deps),
            succs: rows(&self.succs),
            copies,
            dist: self.dist.clone(),
            analysis_cache: self.analysis_cache,
            trace_replay: self.trace_replay,
            replayed_ops: self.replayed_ops.clone(),
            trace_marks: self.trace_marks.clone(),
            profile: self.profile,
        }
    }
}
