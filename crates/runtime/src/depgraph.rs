//! Expansion of index launches and the exact dependence oracle.
//!
//! Before execution, the runtime expands the program's launches into point
//! tasks and computes the *exact* task-graph edges Legion's physical
//! analysis would discover: a dependency exists when a task accesses data
//! written (or reduced) by an earlier task with a conflicting privilege
//! (§2). The expansion also runs the hybrid safety analysis per launch
//! (§3–4) — caching verdicts per launch signature, as a compiler would per
//! source loop — and cross-validates it: a launch declared safe must
//! produce **zero** intra-launch dependencies, which is asserted.
//!
//! The expansion is structured as two cooperating pieces so the trace
//! recorder ([`crate::replay`]) can drive it op by op: an `Expander`
//! that materializes one op's tasks, verdict, and distribution plan, and
//! an `Oracle` holding the mutable dependence state (per-space access
//! records, the BVH overlap index, the reduction-epoch counter). A
//! repeated launch sequence lets the recorder skip both and splice in a
//! captured `LaunchTrace` instead.
//!
//! The *cost* of discovering these edges is charged by the executor
//! according to the §5 complexities; this module is only the semantic
//! oracle.

use crate::config::RuntimeConfig;
use crate::program::{FunctorId, Program};
use crate::replay::{Recorder, TraceMark, TraceReplayStats};
use crate::shard::{block_shard, point_at, ShardDomain, ShardingFn};
use crate::table::{OpLayout, Rows, TaskCopy, TaskTable};
use il_analysis::{analyze_launch, HybridVerdict, LaunchArg};
use il_geometry::{Domain, DomainPoint};
use il_machine::NodeId;
use il_region::{
    overlap_volume, FieldId, FieldSpaceDesc, IndexSpaceId, Privilege, RegionForest, RegionTreeId,
    ReductionOpId,
};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Reference to a point task: its index in the program's issuance order
/// (a row of [`TaskTable`], an element of [`ExpandedProgram::tasks`]).
pub type TaskRef = u32;

/// One expanded point task.
#[derive(Clone, Debug)]
pub struct TaskInstance {
    /// Index of the originating operation.
    pub op: u32,
    /// Iteration-order position within the launch domain.
    pub point_idx: u32,
    /// The launch-domain point.
    pub point: DomainPoint,
    /// Node the sharding/slicing assigned this task to.
    pub owner: NodeId,
    /// Concrete subspace selected by each region requirement's functor.
    pub subspaces: Vec<IndexSpaceId>,
    /// Per reduce-privilege requirement: for every field it folds into,
    /// the id of the reduction epoch it contributes to on its buffer.
    /// The executor identity-fills each (buffer, field, epoch) exactly
    /// once, at whichever epoch member happens to execute first — the
    /// members themselves stay unordered, as commutativity allows (no
    /// intra-epoch dependence edges exist).
    pub reduce_fill: Vec<Vec<(FieldId, u32)>>,
}

/// An incoming data movement for a task: copy (or reduction-fold) of the
/// overlap between a producer's subregion and one of this task's
/// requirements.
#[derive(Clone, Debug)]
pub struct CopyIn {
    /// The producing task.
    pub from: TaskRef,
    /// The producer's subregion (source instance key space).
    pub src_space: IndexSpaceId,
    /// Which of the consumer's requirements receives the data.
    pub dst_req: usize,
    /// The region tree the data lives in.
    pub tree: RegionTreeId,
    /// The fields moved: the producer's written fields intersected with
    /// the consumer's read fields.
    pub fields: Vec<il_region::FieldId>,
    /// Bytes moved (overlap volume × bytes per moved field).
    pub bytes: u64,
    /// `Some(op)` when the producer held a reduce privilege: apply as a
    /// fold instead of an overwrite.
    pub fold: Option<ReductionOpId>,
}

/// Per-launch safety verdict, after the hybrid analysis (and the dynamic
/// check, if one was needed and enabled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpSafety {
    /// Statically proven safe (no runtime cost).
    Static,
    /// Proven safe by a dynamic check of this many functor evaluations
    /// (the O(|D|) cost of §4; charged only when checks are enabled).
    Dynamic {
        /// Functor evaluations the check performs.
        evals: u64,
    },
    /// Not index-launchable: executed as a loop of individual task
    /// launches regardless of the IDX setting.
    Sequential,
}

/// Host-side statistics of the launch-signature analysis cache for one
/// expansion. Purely observability: the cache never changes verdicts or
/// simulated time, only how much host work the expansion repeats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Launches whose verdict was served from the cache.
    pub hits: u64,
    /// Launches that ran the full hybrid analysis.
    pub misses: u64,
    /// Dynamic-check functor evaluations that cache hits avoided
    /// re-running on the host (the `evals` of each hit's `Dynamic`
    /// verdict; the simulator still charges them when checks are on).
    pub evals_saved: u64,
    /// Always zero: no expansion starts from another's verdicts. Kept
    /// because the benchmark still reads it.
    pub warm_hits: u64,
}

/// Distribution plan of one operation, fixed at expansion time: the
/// sharding decision (tasks grouped by owner node) and the non-DCR slice
/// runs. Precomputing this here — rather than re-grouping inside the
/// executor — lets a captured trace replay the sharding and distribution
/// decisions verbatim alongside the dependence graph.
#[derive(Clone, Debug, Default)]
pub struct OpDist {
    /// Tasks grouped by owner, sorted by node id (task lists in issuance
    /// order).
    pub groups: Vec<(NodeId, Vec<TaskRef>)>,
    /// Contiguous iteration-order task runs `[lo, hi)` per owner — the
    /// fixed-size slice descriptors non-DCR distribution scatters.
    pub slices: Vec<(u32, u32, NodeId)>,
}

/// Host-side wall-clock profile of one expansion, split by what the
/// time bought. Pure observability: the numbers vary run to run and are
/// never part of any simulated result, fingerprint, or stage report.
///
/// The split separates *analysis* — safety verdicts, the dependence
/// oracle's scans, and distribution planning, the work trace replay
/// exists to skip — from *materialization*, the construction of task
/// instances and their dependence/copy lists, which every expansion
/// (fresh or replayed) must produce. `replay_ns` is the replay
/// subsystem's own footprint: key hashing, window detection, entry
/// validation, and oracle exit-state bookkeeping. What replay saves per
/// iteration is the difference in `analysis_ns + replay_ns` between a
/// replay-on and a replay-off expansion; the benchmark reports the three
/// buckets as `runtime.expand.{analysis,materialize,replay}_ns`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExpandProfile {
    /// Safety verdicts, oracle dependence scans, distribution planning,
    /// allocating and freeing the oracle's state, and the closing
    /// "declared safe ⇒ no intra-launch edge" cross-validation scan.
    pub analysis_ns: u64,
    /// Task-instance construction: reserving the task table, the fresh
    /// point loop or a trace's splice of captured instances, and the
    /// inversion of `deps` into `succs`.
    pub materialize_ns: u64,
    /// Trace recorder overhead: per-op trace keys, detection, entry
    /// validation, capture snapshots, and replayed oracle exit states.
    pub replay_ns: u64,
}

/// The fully expanded program plus its exact task graph, as nested
/// vectors: one [`TaskInstance`], one dependence row, one successor row
/// and one copy row per task.
///
/// This is a *view*, built by [`expand_program`] from the [`TaskTable`]
/// the expansion produces, with every `Vec` allocated to its exact
/// length. The executor never builds it — it reads the table, which
/// holds the same graph in a few flat arrays instead of about a dozen
/// heap blocks per task. The view stays for callers that walk the graph
/// row by row (the differential oracle, the tests, the benchmark's
/// expansion probe); its field types are part of the public API.
pub struct ExpandedProgram {
    /// All point tasks, in issuance order (op-major, then point order).
    pub tasks: Vec<TaskInstance>,
    /// Task range `[lo, hi)` of each operation.
    pub op_tasks: Vec<(u32, u32)>,
    /// Safety verdict of each operation.
    pub safety: Vec<OpSafety>,
    /// Predecessors of each task.
    pub deps: Vec<Vec<TaskRef>>,
    /// Successors of each task: row `p` is `{t : p ∈ deps[t]}`, ordered
    /// by (owner node of `t`, `t`) and allocated to its exact length. The
    /// order is load-bearing: each owner's run of a row is one credit
    /// message of `p`'s completion, runs leave in row order, and
    /// [`crate::credits::CreditTable`] stores its per-edge data in the
    /// same order.
    pub succs: Vec<Vec<TaskRef>>,
    /// Incoming copies of each task.
    pub copies: Vec<Vec<CopyIn>>,
    /// Distribution plan (owner groups + slice runs) of each operation.
    pub dist: Vec<OpDist>,
    /// Analysis-cache hit/miss accounting for this expansion.
    pub analysis_cache: AnalysisCacheStats,
    /// Trace capture/replay accounting for this expansion. Host-side
    /// observability only — like `analysis_cache`, never part of the
    /// simulated result.
    pub trace_replay: TraceReplayStats,
    /// What the dependence oracle's closes retired (host-side
    /// observability, like `analysis_cache`).
    pub closes: CloseStats,
    /// Whether each operation was materialized by replaying a captured
    /// trace instead of running the analyses.
    pub replayed_ops: Vec<bool>,
    /// Capture/replay/invalidate events in op order, for the executor's
    /// `TraceLog` markers.
    pub trace_marks: Vec<TraceMark>,
    /// Host wall-clock spent producing this expansion, by bucket.
    pub profile: ExpandProfile,
}

impl ExpandedProgram {
    /// Number of point tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff the program has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// A live write record: `(task, producer requirement, field mask, reduce
/// op if the write was a reduction)`.
pub(crate) type WriteRec = (TaskRef, u32, u64, Option<ReductionOpId>);
/// A pending reducer: `(reduce op, task, producer requirement, field mask)`.
pub(crate) type ReduceRec = (ReductionOpId, TaskRef, u32, u64);

/// Per-(subspace, field) access bookkeeping for the oracle.
///
/// Legion privileges are per-field: accesses to disjoint field sets never
/// conflict even on the same points. We track fields as bitmasks (field
/// spaces here are small); a write retires exactly the bits it covers
/// from earlier records.
///
/// Most spaces only ever see reads and writes, so the three reduction
/// lists live behind one optional box ([`ReduceState`]), allocated the
/// first time the space needs one of them: a state is 56 bytes, and an
/// absent box reads as three empty lists.
#[derive(Default, Clone, Debug)]
pub(crate) struct SpaceState {
    /// Live writers.
    pub(crate) writes: Vec<WriteRec>,
    /// Readers since the covering writes.
    pub(crate) readers: Vec<(TaskRef, u64)>,
    reduce: Option<Box<ReduceState>>,
}

/// The reduction side of a [`SpaceState`].
#[derive(Default, Clone, Debug)]
pub(crate) struct ReduceState {
    /// Pending reducers (folded into the next reader/writer). A write
    /// whose own subspace *fully covers* this buffer retires these
    /// records: any later accessor overlapping this buffer necessarily
    /// overlaps the covering writer too, so the ordering survives
    /// transitively through it. A partially covering write must leave
    /// the records in place — accessors of the uncovered part still need
    /// direct edges. Unlike readers, reducers are not closed when several
    /// writers of one launch jointly cover the buffer (see
    /// [`Oracle::close`]): they are fold sources, and retiring them would
    /// move fold copies. So on a jointly covered ghost buffer (circuit's
    /// `update_voltages`) the duplicate edges the covering path already
    /// implies accumulate across iterations.
    pub(crate) reducers: Vec<ReduceRec>,
    /// Open reduction epochs on this buffer: `(op, field bits, epoch id)`.
    /// Tracks which epoch each live field bit belongs to, so every
    /// reducer can be told which epoch to (lazily) initialize. *Any*
    /// overlapping write (full or partial cover) closes the epoch bits
    /// it writes: the next reduce there opens a fresh epoch and the
    /// executor re-initializes the buffer.
    pub(crate) epochs: Vec<(ReductionOpId, u64, u32)>,
    /// Field bits whose pending contributions were folded into (or
    /// invalidated by) a write to overlapping data, tagged with the
    /// consuming op. Gates *data folds only* — later ops do not fold the
    /// consumed contributions again — and never hides a record from the
    /// dependence scan (that was an unsoundness the differential oracle
    /// caught: a reducer joining the epoch *after* the consuming write,
    /// within the same op, was invisible to later ops). Cleared per bit
    /// when a fresh epoch re-initializes the buffer. Tasks of the
    /// consuming op itself still fold (several sibling writers may each
    /// consume part of the buffer, as in circuit's `update_voltages`).
    pub(crate) consumed: Vec<(u32, u64)>,
}

impl SpaceState {
    /// A state from its five record lists; the reduction box is
    /// allocated only if one of its lists is non-empty.
    pub(crate) fn from_parts(
        writes: Vec<WriteRec>,
        readers: Vec<(TaskRef, u64)>,
        reducers: Vec<ReduceRec>,
        epochs: Vec<(ReductionOpId, u64, u32)>,
        consumed: Vec<(u32, u64)>,
    ) -> Self {
        let reduce = (!(reducers.is_empty() && epochs.is_empty() && consumed.is_empty()))
            .then(|| Box::new(ReduceState { reducers, epochs, consumed }));
        SpaceState { writes, readers, reduce }
    }

    /// Pending reducers.
    pub(crate) fn reducers(&self) -> &[ReduceRec] {
        self.reduce.as_ref().map_or(&[], |r| &r.reducers)
    }

    /// Open reduction epochs.
    pub(crate) fn epochs(&self) -> &[(ReductionOpId, u64, u32)] {
        self.reduce.as_ref().map_or(&[], |r| &r.epochs)
    }

    /// Consumption records.
    pub(crate) fn consumed(&self) -> &[(u32, u64)] {
        self.reduce.as_ref().map_or(&[], |r| &r.consumed)
    }

    /// The reduction lists, if the space ever held one.
    pub(crate) fn reduce_mut(&mut self) -> Option<&mut ReduceState> {
        self.reduce.as_deref_mut()
    }

    /// The reduction lists, allocated empty on first use.
    pub(crate) fn reduce_or_default(&mut self) -> &mut ReduceState {
        self.reduce.get_or_insert_default()
    }

    /// Bits consumed by ops strictly before `op`.
    fn consumed_before(&self, op: u32) -> u64 {
        self.consumed()
            .iter()
            .filter(|(o, _)| *o < op)
            .fold(0u64, |acc, (_, m)| acc | m)
    }
}

/// Push a record, growing the list one slot at a time while it holds at
/// most four records and as usual beyond. Most spaces keep one to three
/// live records; the default first allocation of four would leave about
/// half of every list empty.
fn push_record<T>(list: &mut Vec<T>, record: T) {
    if list.len() == list.capacity() && list.len() < 4 {
        list.reserve_exact(1);
    }
    list.push(record);
}

/// One entry of an overlap list: an overlapping space and the number of
/// points it shares with the list's owner. The volume is computed once,
/// when the pair is linked, and read by every copy size and close sum
/// that needs it. Packed to 12 bytes: a hub space's list holds an entry
/// per piece, and the padding of a 16-byte entry showed in
/// `pagerank-expand`'s peak RSS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, packed(4))]
pub(crate) struct Overlap {
    pub(crate) space: IndexSpaceId,
    pub(crate) volume: u64,
}

/// What the dependence oracle's closes did over one expansion: a launch
/// whose disjoint writes jointly cover an overlapping space retires that
/// space's older readers on the written fields (DESIGN §2, *Close*).
/// Only the live scan closes: a replayed window splices its captured
/// exit states instead, so with trace replay on these count the closes
/// of the ops that were not replayed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CloseStats {
    /// `(op, requirement, space)` closes that retired at least one
    /// reader field bit.
    pub closes: u64,
    /// Reader field bits retired, one per reader record and field.
    pub reader_bits: u64,
}

/// The points one requirement of the op being scanned writes of each
/// overlapping space, summed over its tasks (see [`Oracle::close`]).
#[derive(Default)]
struct Cover {
    /// Covered points per space id, sized to the forest on first use and
    /// back to zero between ops.
    sums: Vec<u64>,
    /// The spaces with a non-zero sum, in first-cover order.
    touched: Vec<IndexSpaceId>,
}

/// One value per index space, indexed by space id (the oracle's dense
/// per-space store). Every space belongs to exactly one region tree —
/// each region is created with a fresh root space, and
/// `ProgramBuilder::index_launch` rejects a requirement whose tree is
/// not its partition's — so the space id alone names the data.
pub(crate) struct BySpace<T>(Vec<T>);

impl<T: Default> BySpace<T> {
    fn new(spaces: usize) -> Self {
        BySpace(std::iter::repeat_with(T::default).take(spaces).collect())
    }
}

impl<T> std::ops::Index<IndexSpaceId> for BySpace<T> {
    type Output = T;
    fn index(&self, s: IndexSpaceId) -> &T {
        &self.0[s.0 as usize]
    }
}

impl<T> std::ops::IndexMut<IndexSpaceId> for BySpace<T> {
    fn index_mut(&mut self, s: IndexSpaceId) -> &mut T {
        &mut self.0[s.0 as usize]
    }
}

/// One bit per index space.
struct SpaceBits(Vec<u64>);

impl SpaceBits {
    fn new(spaces: usize) -> Self {
        SpaceBits(vec![0; spaces.div_ceil(64)])
    }

    fn contains(&self, s: IndexSpaceId) -> bool {
        self.0[s.0 as usize / 64] & (1 << (s.0 % 64)) != 0
    }

    /// Set the bit; true iff it was clear.
    fn insert(&mut self, s: IndexSpaceId) -> bool {
        let (word, bit) = (&mut self.0[s.0 as usize / 64], 1u64 << (s.0 % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn remove(&mut self, s: IndexSpaceId) {
        self.0[s.0 as usize / 64] &= !(1 << (s.0 % 64));
    }
}

/// Resolve a requirement's field list to an explicit bitmask.
fn field_mask(program: &Program, field_space: il_region::FieldSpaceId, fields: &[il_region::FieldId]) -> u64 {
    let len = program.forest.field_space(field_space).len();
    assert!(len <= 64, "field spaces are limited to 64 fields");
    if fields.is_empty() {
        if len == 64 { u64::MAX } else { (1u64 << len) - 1 }
    } else {
        fields.iter().fold(0u64, |m, f| {
            assert!((f.0 as usize) < len, "field {f:?} outside field space");
            m | (1u64 << f.0)
        })
    }
}

/// The field ids named by a mask.
pub(crate) fn mask_fields(mask: u64) -> impl Iterator<Item = FieldId> {
    (0..64).filter(move |b| mask & (1u64 << b) != 0).map(FieldId)
}

/// The mutable state of the dependence oracle: per-space access records,
/// the BVH overlap index per tree, and the reduction-epoch counter. The
/// oracle's transition per task is a deterministic function of the states
/// it touches and is *equivariant* under uniform shifts of task refs, op
/// indices, and epoch ids — only equality and ordering comparisons are
/// applied to those — which is what makes whole-sequence trace replay
/// ([`crate::replay`]) sound: equal (shift-normalized) entry states imply
/// equal (shifted) outputs.
///
/// Per-space state is stored densely, in arrays indexed by space id
/// ([`BySpace`]), sized to the forest once: a lookup is an index, and an
/// untouched space costs a few empty words instead of a hash bucket.
pub(crate) struct Oracle {
    /// Access records per subspace; `None` until the space is accessed.
    states: BySpace<Option<SpaceState>>,
    /// Candidate overlaps among touched spaces, per tree (indexed by
    /// tree id), found through a bounding-volume hierarchy — the §5
    /// structure Legion uses for its logarithmic-time physical analysis.
    touched: Vec<il_region::BvhSet<IndexSpaceId>>,
    /// The subset of `touched` holding only spaces with writer usage
    /// (write, read-write, or reduce). Read-only registrations query
    /// this tree instead of `touched`: read–read overlaps never produce
    /// dependences, so materializing them is pure waste — and on apps
    /// where every piece reads a shared hub region (power-law pagerank)
    /// it is *quadratic* waste that breaks §5's O(|D| log |P|) bound.
    writer_bvh: Vec<il_region::BvhSet<IndexSpaceId>>,
    /// Spaces ever used with writer privilege.
    writers: SpaceBits,
    /// Overlap sets, append-only once registered (`None` = not yet
    /// registered), each entry with the volume the pair shares.
    /// Privilege-aware: a writer space's list holds *every* overlapping
    /// registered space (its scan needs readers for WAR edges); a
    /// read-only space's list holds only overlapping *writer* spaces (the
    /// only ones that can produce its RAW edges). A read-only space
    /// promoted to writer is upgraded in place — see [`Oracle::upgrade`].
    /// A list starts with its own space.
    overlaps: BySpace<Option<Vec<Overlap>>>,
    /// Monotone id source for reduction epochs (globally unique so the
    /// executor's once-per-epoch fill markers never collide across
    /// buffers or fields).
    pub(crate) next_epoch: u32,
    /// When `Some`, every state consultation appends a [`ProvEntry`]
    /// describing which member space produced which run of dependence
    /// edges and copies, and every consumption-record clear appends to
    /// `clears`. Enabled only while the trace recorder captures a
    /// window — provenance lets it encode each captured edge per the
    /// validity argument of the member that produced it. Pure
    /// observation: recording never changes the scan's output.
    pub(crate) prov: Option<ProvLog>,
    /// One cover accumulator per requirement index, reused op to op.
    covers: Vec<Cover>,
    /// What the closes retired so far.
    pub(crate) close_stats: CloseStats,
    /// Scratch buffers [`Oracle::register`] and [`Oracle::upgrade`] reuse
    /// across calls: a space's coverage boxes, its BVH candidates, and a
    /// bit set left empty between uses.
    boxes: Vec<il_region::BBox>,
    candidates: Vec<IndexSpaceId>,
    seen: SpaceBits,
}

/// Provenance recorded over one capture window (see [`Oracle::prov`]).
#[derive(Default)]
pub(crate) struct ProvLog {
    /// One entry per state consultation, in scan order.
    pub(crate) consults: Vec<ProvEntry>,
    /// Field bits cleared from a space's consumption record during the
    /// window (a fresh reduction epoch moots stale consumed marks, a
    /// write retires its own space's record). Clears apply to every
    /// record present at that moment, so replay can reapply the union
    /// to whatever has accumulated since capture.
    pub(crate) clears: Vec<(IndexSpaceId, u64)>,
    /// Every close during the window: the closed space and the field
    /// bits it retired from readers older than the closing op (recorded
    /// whether or not such a reader existed).
    pub(crate) closes: Vec<(IndexSpaceId, u64)>,
}

/// One state consultation during a provenance-recorded scan: task `t`'s
/// requirement with privilege `privilege` and field `mask` consulted
/// member `space` and contributed the dependence edges `deps` (pre-dedup
/// values — the final per-task list is sorted and deduplicated, so
/// counts could not be sliced back) and the next `copies` incoming
/// copies of `t`'s copy list (in push order). `consumed` is the
/// already-consumed field union the consult saw; `fold_src` is the
/// reducer a fold copy was taken from, if any — replay validity hinges
/// on whether that source predates the window.
pub(crate) struct ProvEntry {
    pub(crate) task: TaskRef,
    pub(crate) space: IndexSpaceId,
    pub(crate) mask: u64,
    pub(crate) privilege: Privilege,
    pub(crate) deps: Vec<TaskRef>,
    pub(crate) copies: u32,
    pub(crate) consumed: u64,
    pub(crate) fold_src: Option<TaskRef>,
}

/// Deduplicate BVH query hits in place, keeping first-encounter order
/// (multi-box queries can return the same space once per box). `seen`
/// is empty on entry and on return: its bits are cleared one by one, so
/// no call walks the whole set.
/// Box decomposition itself is [`il_region::coverage_boxes`] — shared
/// with the forest's partition-disjointness check.
fn dedup_in_order(v: &mut Vec<IndexSpaceId>, seen: &mut SpaceBits) {
    v.retain(|&s| seen.insert(s));
    for &s in v.iter() {
        seen.remove(s);
    }
}

/// `tree`'s BVH in a per-tree list, created empty on first use.
fn tree_bvh(
    bvhs: &mut Vec<il_region::BvhSet<IndexSpaceId>>,
    tree: RegionTreeId,
) -> &mut il_region::BvhSet<IndexSpaceId> {
    let i = tree.0 as usize;
    if bvhs.len() <= i {
        bvhs.resize_with(i + 1, Default::default);
    }
    &mut bvhs[i]
}

/// Sort and deduplicate `v[from..]`, leaving `v[..from]` as it is: the
/// open row of a dependence array.
pub(crate) fn sort_dedup_tail(v: &mut Vec<TaskRef>, from: usize) {
    v[from..].sort_unstable();
    let mut w = from;
    for r in from..v.len() {
        if w == from || v[r] != v[w - 1] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

impl Oracle {
    /// An empty oracle over a forest of `spaces` index spaces.
    fn new(spaces: usize) -> Self {
        Oracle {
            states: BySpace::new(spaces),
            touched: Vec::new(),
            writer_bvh: Vec::new(),
            writers: SpaceBits::new(spaces),
            overlaps: BySpace::new(spaces),
            next_epoch: 0,
            prov: None,
            covers: Vec::new(),
            close_stats: CloseStats::default(),
            boxes: Vec::new(),
            candidates: Vec::new(),
            seen: SpaceBits::new(spaces),
        }
    }

    /// The access records of `space`, if it was ever accessed.
    pub(crate) fn state(&self, space: IndexSpaceId) -> Option<&SpaceState> {
        self.states[space].as_ref()
    }

    /// The access records of `space`, created empty on first use.
    pub(crate) fn state_or_default(&mut self, space: IndexSpaceId) -> &mut SpaceState {
        self.states[space].get_or_insert_default()
    }

    /// The overlap list of `space`, if it is registered.
    pub(crate) fn overlaps(&self, space: IndexSpaceId) -> Option<&[Overlap]> {
        self.overlaps[space].as_deref()
    }

    /// Register `space` in `tree`'s BVH and compute its overlap set: BVH
    /// query for bounding-box candidates (O(log n + k)), then the exact
    /// region-forest disjointness test on each candidate. This mirrors
    /// §5's "distributed bounding volume hierarchy" used by Legion's
    /// physical analysis. Overlap lists are append-only: registering a
    /// new space pushes it onto the lists of everything it (relevantly)
    /// overlaps, and nothing is ever removed — so list *length* equality
    /// implies list equality, which the trace-replay validity check
    /// relies on.
    ///
    /// `writes` is whether the requirement registering this space
    /// carries writer privilege. Read-only registrations query only the
    /// writer BVH and join only writer lists: read–read pairs produce no
    /// dependences, so omitting them loses nothing (the replay member
    /// walk inherits the same guarantee — a read-only direct space's
    /// consults only ever touch writer spaces). A sparse domain queries
    /// per contiguous run rather than by its whole bounding box, so a
    /// ghost set of "a far hub window plus a near neighbor" does not
    /// collide with every piece in between.
    pub(crate) fn register(
        &mut self,
        forest: &RegionForest,
        tree: RegionTreeId,
        space: IndexSpaceId,
        writes: bool,
    ) {
        if self.overlaps[space].is_some() {
            if writes && !self.writers.contains(space) {
                self.upgrade(forest, tree, space);
            }
            return;
        }
        debug_assert_eq!(
            forest.tree_of_space(space),
            forest.tree_root(tree),
            "space {space:?} accessed through tree {tree:?}, which does not hold it"
        );
        let domain = forest.domain(space);
        let mut mine = vec![Overlap { space, volume: domain.volume() }];
        if !domain.is_empty() {
            let (mut boxes, mut candidates) =
                (std::mem::take(&mut self.boxes), std::mem::take(&mut self.candidates));
            il_region::coverage_boxes(domain, &mut boxes);
            let searched = tree_bvh(if writes { &mut self.touched } else { &mut self.writer_bvh }, tree);
            candidates.clear();
            for b in &boxes {
                searched.query(b, &mut candidates);
            }
            dedup_in_order(&mut candidates, &mut self.seen);
            for &other in &candidates {
                if !forest.spaces_disjoint(space, other) {
                    let volume = overlap_volume(domain, forest.domain(other));
                    mine.push(Overlap { space: other, volume });
                    self.overlaps[other].as_mut().expect("present").push(Overlap { space, volume });
                }
            }
            let all = tree_bvh(&mut self.touched, tree);
            for b in &boxes {
                all.insert(*b, space);
            }
            if writes {
                let wb = tree_bvh(&mut self.writer_bvh, tree);
                for b in &boxes {
                    wb.insert(*b, space);
                }
            }
            (self.boxes, self.candidates) = (boxes, candidates);
        }
        if writes {
            self.writers.insert(space);
        }
        self.overlaps[space] = Some(mine);
    }

    /// Promote a read-only-registered space to writer: join the writer
    /// BVH and connect it to the overlapping read-only spaces its first
    /// registration skipped. All touched lists only ever grow, so the
    /// append-only replay invariant survives (and any live trace whose
    /// direct spaces gain entries is invalidated by the length check —
    /// exactly right, since a new writer can add edges).
    fn upgrade(&mut self, forest: &RegionForest, tree: RegionTreeId, space: IndexSpaceId) {
        self.writers.insert(space);
        let domain = forest.domain(space);
        if domain.is_empty() {
            return;
        }
        let (mut boxes, mut candidates) =
            (std::mem::take(&mut self.boxes), std::mem::take(&mut self.candidates));
        il_region::coverage_boxes(domain, &mut boxes);
        candidates.clear();
        if let Some(bvh) = self.touched.get(tree.0 as usize) {
            for b in &boxes {
                bvh.query(b, &mut candidates);
            }
        }
        dedup_in_order(&mut candidates, &mut self.seen);
        // The space's list holds every writer it already overlaps (and
        // itself); the rest are read-only spaces that queried only the
        // writer BVH when they registered, so neither side lists the
        // other yet. Its first `known` entries are set in `seen` for the
        // loop and cleared after.
        let mine = self.overlaps[space].as_deref().expect("registered");
        let known = mine.len();
        for o in mine {
            self.seen.insert(o.space);
        }
        for &other in &candidates {
            if self.seen.contains(other) || forest.spaces_disjoint(space, other) {
                continue;
            }
            let volume = overlap_volume(domain, forest.domain(other));
            self.overlaps[space].as_mut().expect("registered").push(Overlap { space: other, volume });
            self.overlaps[other].as_mut().expect("present").push(Overlap { space, volume });
        }
        for o in &self.overlaps[space].as_deref().expect("registered")[..known] {
            self.seen.remove(o.space);
        }
        let wb = tree_bvh(&mut self.writer_bvh, tree);
        for b in &boxes {
            wb.insert(*b, space);
        }
        (self.boxes, self.candidates) = (boxes, candidates);
    }

    /// Run the dependence scan for task `t`: discover its predecessor
    /// edges and incoming copies, then fold its own accesses into the
    /// per-space states. Appends `t`'s rows to `table` — dependences,
    /// copies, and (for a reduce launch) one reduction-fill row per
    /// requirement; every earlier task's rows must be there already.
    /// `req_fields` is each requirement's field mask and field-space
    /// descriptor, the same for every task of the op. With `closing`
    /// (the op's verdict is not `Sequential`), each write requirement
    /// adds the volume it shares with every overlapping space that has
    /// state to its cover accumulator, for [`Oracle::close`].
    fn process_task(
        &mut self,
        program: &Program,
        req_fields: &[(u64, &FieldSpaceDesc)],
        closing: bool,
        table: &mut TaskTable,
        t: usize,
    ) {
        debug_assert_eq!(table.deps.len(), t, "rows are appended in task order");
        let forest = &program.forest;
        let tref = t as TaskRef;
        let op = table.op(tref);
        let op_idx = op as usize;
        let fill_rows = table.layout[op_idx].fill.is_some();
        let launch = program.ops[op_idx].launch();
        let deps_start = table.deps.items.len();
        for (req_idx, req) in launch.reqs.iter().enumerate() {
            let space = table.subspaces(tref)[req_idx];
            let deps_t = &mut table.deps.items;
            let copies_t = &mut table.copies.items;
            let tree = req.tree;
            let (mask, fsd) = req_fields[req_idx];
            self.register(forest, tree, space, !matches!(req.privilege, Privilege::Read));
            let writes = matches!(req.privilege, Privilege::Write | Privilege::ReadWrite);
            let mut cover = (closing && writes && mask != 0).then(|| {
                if self.covers.len() <= req_idx {
                    self.covers.resize_with(req_idx + 1, Cover::default);
                }
                let cover = &mut self.covers[req_idx];
                if cover.sums.is_empty() {
                    cover.sums = vec![0; forest.num_spaces()];
                }
                cover
            });

            // Borrowed, not copied: nothing below registers a space, and
            // the states, the covers, the provenance log and the epoch
            // counter are other fields.
            let over = self.overlaps[space].as_deref().expect("registered above");
            // This subspace's own write records, by producer: a copy from
            // an *older* writer in an overlapping aliased space must not
            // carry fields a newer in-place write already produced here —
            // at apply time the in-place data is "already there" and a
            // stale copy would clobber it (the AMR pattern: `unew` written
            // through the fine blocks after an earlier write through the
            // coarse blocks). The dependence edges stay; only the data
            // movement is suppressed.
            let own_writes = self.states[space].as_ref().map_or(&[][..], |s| &s.writes);
            for &Overlap { space: o_space, volume } in over {
                let Some(state) = &self.states[o_space] else {
                    continue;
                };
                if let Some(cover) = cover.as_mut().filter(|_| o_space != space) {
                    let sum = &mut cover.sums[o_space.0 as usize];
                    if *sum == 0 {
                        cover.touched.push(o_space);
                    }
                    *sum += volume;
                }
                // Contributions already folded into an earlier op's
                // write: keep the dependence edges, skip the data fold.
                let consumed = state.consumed_before(op);
                // Field mask and bytes of an incoming copy from `producer`
                // for its mask. Staleness only ever suppresses plain
                // overwrite copies: a reduction fold accumulates into the
                // destination instead of clobbering it, and fold
                // staleness is already governed by the consumption
                // records (`consumed_before`).
                let copy_bytes = |pmask: u64, producer: TaskRef, is_fold: bool| -> (u64, u64) {
                    let stale = if is_fold || o_space == space {
                        0
                    } else {
                        own_writes.iter().filter(|w| w.0 > producer).fold(0u64, |m, w| m | w.2)
                    };
                    let shared = pmask & mask & !stale;
                    let per_point: u64 = mask_fields(shared).map(|f| fsd.kind(f).size()).sum();
                    if per_point == 0 {
                        return (shared, 0);
                    }
                    (shared, volume * per_point)
                };
                let (copies_before, deps_before) = (copies_t.len(), deps_t.len());
                let mut fold_src: Option<TaskRef> = None;
                match req.privilege {
                    Privilege::Read => {
                        for &(w, _wreq, wmask, reduce) in &state.writes {
                            if w != tref && wmask & mask != 0 {
                                deps_t.push(w);
                                let (shared, bytes) = copy_bytes(wmask, w, reduce.is_some());
                                if bytes > 0 {
                                    copies_t.push(TaskCopy {
                                        fields: shared,
                                        bytes,
                                        from: w,
                                        src_space: o_space,
                                        tree,
                                        dst_req: req_idx as u32,
                                        fold: reduce,
                                    });
                                }
                            }
                        }
                        // One fold per source buffer: the buffer already
                        // accumulates every contribution of the epoch, so
                        // depend on all reducers but copy once.
                        for &(red_op, r, _rreq, rmask) in state.reducers() {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                                let (shared, bytes) = copy_bytes(rmask & !consumed, r, true);
                                if bytes > 0 && fold_src.is_none() {
                                    fold_src = Some(r);
                                    copies_t.push(TaskCopy {
                                        fields: shared,
                                        bytes,
                                        from: r,
                                        src_space: o_space,
                                        tree,
                                        dst_req: req_idx as u32,
                                        fold: Some(red_op),
                                    });
                                }
                            }
                        }
                    }
                    Privilege::Write | Privilege::ReadWrite => {
                        let wants_data = req.privilege == Privilege::ReadWrite;
                        for &(w, _wreq, wmask, reduce) in &state.writes {
                            if w != tref && wmask & mask != 0 {
                                deps_t.push(w);
                                if wants_data {
                                    let (shared, bytes) = copy_bytes(wmask, w, reduce.is_some());
                                    if bytes > 0 {
                                        copies_t.push(TaskCopy {
                                            fields: shared,
                                            bytes,
                                            from: w,
                                            src_space: o_space,
                                            tree,
                                            dst_req: req_idx as u32,
                                            fold: reduce,
                                        });
                                    }
                                }
                            }
                        }
                        for &(r, rmask) in &state.readers {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                            }
                        }
                        for &(red_op, r, _rreq, rmask) in state.reducers() {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                                if wants_data {
                                    let (shared, bytes) = copy_bytes(rmask & !consumed, r, true);
                                    if bytes > 0 && fold_src.is_none() {
                                        fold_src = Some(r);
                                        copies_t.push(TaskCopy {
                                            fields: shared,
                                            bytes,
                                            from: r,
                                            src_space: o_space,
                                            tree,
                                            dst_req: req_idx as u32,
                                            fold: Some(red_op),
                                        });
                                    }
                                }
                            }
                        }
                    }
                    Privilege::Reduce(op) => {
                        for &(w, _wreq, wmask, _) in &state.writes {
                            if w != tref && wmask & mask != 0 {
                                deps_t.push(w);
                            }
                        }
                        for &(r, rmask) in &state.readers {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                            }
                        }
                        for &(other_op, r, _rreq, rmask) in state.reducers() {
                            if other_op != op && r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                            }
                        }
                        // Same-op reducers stay mutually unordered, as
                        // commutativity allows — including on the same
                        // buffer. The executor's lazy once-per-epoch
                        // identity fill (keyed by the epoch ids recorded
                        // below) makes the buffer initialization safe
                        // without an ordering edge.
                    }
                }
                if let Some(prov) = &mut self.prov {
                    prov.consults.push(ProvEntry {
                        task: tref,
                        space: o_space,
                        mask,
                        privilege: req.privilege,
                        deps: deps_t[deps_before..].to_vec(),
                        copies: (copies_t.len() - copies_before) as u32,
                        consumed,
                        fold_src,
                    });
                }
            }

            // A write consumes pending reduction contributions on every
            // overlapping buffer: they have been folded into (or
            // invalidated by) the new data, so the epoch closes (the
            // next reduce re-initializes the buffer) and later ops do
            // not fold them again. The *records* are removed only when
            // this write fully covers the buffer — then any later
            // accessor necessarily overlaps the writer and the ordering
            // survives transitively through it. A partial cover must
            // keep them: accessors of the uncovered part still need
            // direct edges (several sibling writers may jointly cover a
            // buffer, as circuit's `update_voltages` tasks do on a ghost
            // region spanning two neighbor pieces).
            if writes {
                for &Overlap { space: o_space, volume } in over {
                    if o_space == space {
                        continue; // own state retired below
                    }
                    // Every step below edits an open epoch or a pending
                    // reducer; a state with neither is left as it is.
                    let Some(st) = self.states[o_space]
                        .as_mut()
                        .and_then(SpaceState::reduce_mut)
                        .filter(|r| !(r.epochs.is_empty() && r.reducers.is_empty()))
                    else {
                        continue;
                    };
                    let full = volume == forest.domain(o_space).volume();
                    for e in &mut st.epochs {
                        e.1 &= !mask;
                    }
                    st.epochs.retain(|e| e.1 != 0);
                    if full {
                        for r in &mut st.reducers {
                            r.3 &= !mask;
                        }
                        st.reducers.retain(|r| r.3 != 0);
                    }
                    if st.reducers.iter().any(|r| r.3 & mask != 0) {
                        match st.consumed.iter_mut().find(|(o, _)| *o == op) {
                            Some((_, m)) => *m |= mask,
                            None => push_record(&mut st.consumed, (op, mask)),
                        }
                    }
                }
            }

            // Update this space's own state.
            let state = self.states[space].get_or_insert_default();
            match req.privilege {
                Privilege::Read => push_record(&mut state.readers, (tref, mask)),
                Privilege::Write | Privilege::ReadWrite => {
                    // Retire the covered field bits from earlier records.
                    for w in &mut state.writes {
                        w.2 &= !mask;
                    }
                    state.writes.retain(|w| w.2 != 0);
                    for r in &mut state.readers {
                        r.1 &= !mask;
                    }
                    state.readers.retain(|r| r.1 != 0);
                    if let Some(red) = state.reduce_mut() {
                        for r in &mut red.reducers {
                            r.3 &= !mask;
                        }
                        red.reducers.retain(|r| r.3 != 0);
                        for e in &mut red.epochs {
                            e.1 &= !mask;
                        }
                        red.epochs.retain(|e| e.1 != 0);
                        for (_, m) in &mut red.consumed {
                            *m &= !mask;
                        }
                        red.consumed.retain(|(_, m)| *m != 0);
                    }
                    if let Some(prov) = &mut self.prov {
                        prov.clears.push((space, mask));
                    }
                    push_record(&mut state.writes, (tref, req_idx as u32, mask, None));
                }
                Privilege::Reduce(red_op) => {
                    // Reducers join the current epoch on this buffer; the
                    // epoch ends when a write consumes the contributions.
                    // Epochs are tracked per field bit: bits with no open
                    // same-op epoch start a fresh one (the buffer is
                    // re-initialized there, and any stale consumed marks
                    // on those bits are moot), bits with one join it.
                    let state = state.reduce_or_default();
                    let open: u64 = state
                        .epochs
                        .iter()
                        .filter(|&&(oo, _, _)| oo == red_op)
                        .fold(0u64, |acc, &(_, bits, _)| acc | bits);
                    let fresh_bits = mask & !open;
                    if fresh_bits != 0 {
                        for (_, m) in &mut state.consumed {
                            *m &= !fresh_bits;
                        }
                        state.consumed.retain(|(_, m)| *m != 0);
                        if let Some(prov) = &mut self.prov {
                            prov.clears.push((space, fresh_bits));
                        }
                        push_record(&mut state.epochs, (red_op, fresh_bits, self.next_epoch));
                        self.next_epoch += 1;
                    }
                    // Record the epoch of every field this requirement
                    // folds into; the executor identity-fills each
                    // (buffer, field, epoch) at its first-executing
                    // member.
                    for f in mask_fields(mask) {
                        let bit = 1u64 << f.0;
                        let eid = state
                            .epochs
                            .iter()
                            .find(|e| e.0 == red_op && e.1 & bit != 0)
                            .map(|e| e.2)
                            .expect("every masked bit was assigned an epoch above");
                        table.fills.items.push((f, eid));
                    }
                    push_record(&mut state.reducers, (red_op, tref, req_idx as u32, mask));
                }
            }
            if fill_rows {
                table.fills.close();
            }
        }
        sort_dedup_tail(&mut table.deps.items, deps_start);
        table.deps.close();
        table.copies.close();
    }

    /// Legion's close, at the end of op `op`'s scan (its first task is
    /// `lo`): every space whose points one write requirement's tasks
    /// cover in full loses that requirement's field bits from its
    /// readers older than the op. The op is not `Sequential`, so the
    /// requirement's write subspaces are pairwise disjoint and the cover
    /// sum is the volume of their union. Each covering writer took an
    /// edge to every such reader it conflicts with, and any later
    /// accessor conflicting with a retired reader overlaps a covering
    /// writer on the same bits, so it is ordered after that writer: the
    /// transitive closure is unchanged. Writers (they carry copies) and
    /// reducers (fold sources) are never retired here, and neither are
    /// the op's own readers. Leaves every accumulator at zero.
    fn close(&mut self, forest: &RegionForest, op: u32, lo: TaskRef, req_fields: &[(u64, &FieldSpaceDesc)]) {
        // Covers past the op's requirement count hold nothing: every op
        // drains what it accumulated.
        for (cover, &(mask, _)) in self.covers.iter_mut().zip(req_fields) {
            for o_space in cover.touched.drain(..) {
                let sum = std::mem::take(&mut cover.sums[o_space.0 as usize]);
                let volume = forest.domain(o_space).volume();
                debug_assert!(sum <= volume, "op {op}: disjoint writes cover {sum} of {volume} points");
                if sum != volume {
                    continue;
                }
                let state = self.states[o_space].as_mut().expect("covered spaces have state");
                let mut retired = 0u64;
                for r in state.readers.iter_mut().filter(|r| r.0 < lo) {
                    retired += u64::from((r.1 & mask).count_ones());
                    r.1 &= !mask;
                }
                if retired > 0 {
                    state.readers.retain(|r| r.1 != 0);
                    self.close_stats.closes += 1;
                    self.close_stats.reader_bits += retired;
                }
                if let Some(prov) = &mut self.prov {
                    prov.closes.push((o_space, mask));
                }
            }
        }
    }
}

/// In-progress expansion: the accumulating [`TaskTable`], the verdict
/// cache, and the dependence [`Oracle`]. The main loop (and
/// the trace recorder) appends one op at a time, either by running
/// [`Expander::expand_op`] + [`Expander::scan_op`] or by splicing in a
/// captured trace.
pub(crate) struct Expander<'p> {
    pub(crate) program: &'p Program,
    config: &'p RuntimeConfig,
    default_shard: ShardingFn,
    verdict_cache: HashMap<u64, OpSafety>,
    cache_stats: AnalysisCacheStats,
    pub(crate) oracle: Oracle,
    pub(crate) table: TaskTable,
    pub(crate) prof: ExpandProfile,
}

impl<'p> Expander<'p> {
    fn new(program: &'p Program, config: &'p RuntimeConfig) -> Self {
        // Every task column and row-offset array is sized exactly up
        // front: the op stream fixes each launch's volume and arity.
        let s_table = std::time::Instant::now();
        let (mut tasks, mut subspaces) = (0usize, 0usize);
        for op in &program.ops {
            let launch = op.launch();
            let volume = launch.domain.volume() as usize;
            tasks += volume;
            subspaces += volume * launch.reqs.len();
        }
        let table = TaskTable::with_capacity(program.ops.len(), tasks, subspaces);
        let materialize_ns = s_table.elapsed().as_nanos() as u64;
        let s_oracle = std::time::Instant::now();
        let oracle = Oracle::new(program.forest.num_spaces());
        let analysis_ns = s_oracle.elapsed().as_nanos() as u64;
        Expander {
            program,
            config,
            default_shard: block_shard(),
            verdict_cache: HashMap::new(),
            cache_stats: AnalysisCacheStats::default(),
            oracle,
            table,
            prof: ExpandProfile { analysis_ns, materialize_ns, replay_ns: 0 },
        }
    }

    /// Number of ops materialized so far (the index the next op gets).
    pub(crate) fn next_op(&self) -> usize {
        self.table.op_tasks.len()
    }

    /// Append op `op_idx`'s layout entry, its tasks starting at the
    /// current end of the subspace array; its reduction-fill rows start
    /// when its scan (or a splice) appends them.
    pub(crate) fn push_layout(&mut self, op_idx: usize) {
        let reqs = self.program.ops[op_idx].launch().reqs.len();
        self.table.layout.push(OpLayout { reqs, sub: self.table.subspaces.len(), fill: None });
    }

    /// Open op `op_idx`'s reduction-fill rows at the end of the fill
    /// array, if the launch has a reduce requirement.
    pub(crate) fn open_fills(&mut self, op_idx: usize) {
        let reqs = &self.program.ops[op_idx].launch().reqs;
        if reqs.iter().any(|r| matches!(r.privilege, Privilege::Reduce(_))) {
            self.table.layout[op_idx].fill = Some(self.table.fills.len());
        }
    }

    /// Materialize op `op_idx`: safety verdict (through the signature
    /// cache), point tasks with sharding decisions, and the distribution
    /// plan. Does not touch the oracle.
    pub(crate) fn expand_op(&mut self, op_idx: usize) {
        debug_assert_eq!(op_idx, self.next_op());
        let program = self.program;
        let forest = &program.forest;
        let nodes = self.config.nodes;
        let launch = program.ops[op_idx].launch();
        let analyze = || {
            let args: Vec<LaunchArg> = launch
                .reqs
                .iter()
                .map(|r| LaunchArg {
                    partition: r.partition,
                    functor: resolve(program, r.functor).clone(),
                    privilege: r.privilege,
                    fields: r.fields.clone(),
                })
                .collect();
            match analyze_launch(forest, &launch.domain, &args) {
                HybridVerdict::SafeStatic => OpSafety::Static,
                HybridVerdict::NeedsDynamic(plan) => match plan.run() {
                    Ok(evals) => OpSafety::Dynamic { evals },
                    Err(_) => OpSafety::Sequential,
                },
                HybridVerdict::Unsafe(_) => OpSafety::Sequential,
            }
        };
        // Verdicts memoized per launch signature (same task + requirement
        // shapes + domain ⇒ same verdict), as the compiler caches per
        // source loop. The signature is a 64-bit digest, not an injective
        // key: two distinct launches collide with probability about 2⁻⁶⁴,
        // and the second then gets the first one's verdict. A wrong safe
        // verdict trips the "declared safe but tasks interfere" assert
        // below; a wrong `Sequential` verdict or `Dynamic` evaluation
        // count changes only simulated time. `tests/analysis_cache.rs`
        // pins every cached verdict to a fresh analysis of its launch.
        let s_analysis = std::time::Instant::now();
        let sig = launch_signature(launch, program);
        let verdict = match self.verdict_cache.entry(sig) {
            Entry::Occupied(hit) => {
                self.cache_stats.hits += 1;
                if let OpSafety::Dynamic { evals } = hit.get() {
                    self.cache_stats.evals_saved += *evals;
                }
                hit.get().clone()
            }
            Entry::Vacant(miss) => {
                self.cache_stats.misses += 1;
                miss.insert(analyze()).clone()
            }
        };
        self.table.safety.push(verdict);
        self.prof.analysis_ns += s_analysis.elapsed().as_nanos() as u64;

        let s_mat = std::time::Instant::now();
        let shard = launch.shard.clone().unwrap_or_else(|| self.default_shard.clone());
        self.push_layout(op_idx);
        let table = &mut self.table;
        let lo = table.len() as u32;
        let volume = launch.domain.volume();
        // One ShardDomain per op: sparse rank queries inside the functor
        // amortize to O(1) instead of re-scanning the point list per task.
        let shard_domain = ShardDomain::new(&launch.domain);
        for idx in 0..volume {
            let point = point_at(&launch.domain, idx);
            let owner = shard(point, &shard_domain, nodes);
            assert!(owner < nodes, "sharding functor returned node {owner} of {nodes}");
            table.subspaces.extend(launch.reqs.iter().map(|r| {
                let color = resolve(program, r.functor).eval(point);
                forest.try_subspace(r.partition, color).unwrap_or_else(|| {
                    panic!(
                        "projection functor {:?} selected color {color:?} with no subspace in {:?}",
                        resolve(program, r.functor),
                        r.partition
                    )
                })
            }));
            table.op.push(op_idx as u32);
            table.point_idx.push(idx as u32);
            table.owner.push(owner as u32);
        }
        let hi = table.len() as u32;
        table.op_tasks.push((lo, hi));
        self.prof.materialize_ns += s_mat.elapsed().as_nanos() as u64;
        let s_dist = std::time::Instant::now();
        let dist = dist_plan(&self.table.owner[lo as usize..hi as usize], lo, nodes);
        self.table.dist.push(dist);
        self.prof.analysis_ns += s_dist.elapsed().as_nanos() as u64;
        self.table.replayed_ops.push(false);
    }

    /// Run the dependence oracle over op `op_idx`'s tasks (which must be
    /// the most recently expanded op).
    pub(crate) fn scan_op(&mut self, op_idx: usize) {
        let s_scan = std::time::Instant::now();
        let program = self.program;
        let req_fields: Vec<(u64, &FieldSpaceDesc)> = program.ops[op_idx]
            .launch()
            .reqs
            .iter()
            .map(|r| (field_mask(program, r.field_space, &r.fields), program.forest.field_space(r.field_space)))
            .collect();
        self.open_fills(op_idx);
        let (lo, hi) = self.table.op_tasks[op_idx];
        let closing = !matches!(self.table.safety[op_idx], OpSafety::Sequential);
        for t in lo as usize..hi as usize {
            self.oracle.process_task(program, &req_fields, closing, &mut self.table, t);
        }
        if closing {
            self.oracle.close(&program.forest, op_idx as u32, lo, &req_fields);
        }
        self.prof.analysis_ns += s_scan.elapsed().as_nanos() as u64;
    }
}

/// Group one op's tasks by owner and compute the contiguous slice runs
/// — the sharding/distribution plan the executor (and any captured
/// trace) works from. `owners` holds the owner of each task from `lo`
/// on, each below `nodes`: one counting pass sizes every group exactly,
/// groups come out ascending by node, each list in issuance order.
fn dist_plan(owners: &[u32], lo: u32, nodes: usize) -> OpDist {
    let mut counts = vec![0usize; nodes];
    let mut runs: Vec<(u32, u32, NodeId)> = Vec::new();
    for (t, &owner) in (lo..).zip(owners) {
        let owner = owner as NodeId;
        counts[owner] += 1;
        match runs.last_mut() {
            Some((_, rhi, rowner)) if *rowner == owner && *rhi == t => *rhi = t + 1,
            _ => runs.push((t, t + 1, owner)),
        }
    }
    let mut slot = vec![usize::MAX; nodes];
    let mut groups: Vec<(NodeId, Vec<TaskRef>)> =
        Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
    for (node, &count) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
        slot[node] = groups.len();
        groups.push((node, Vec::with_capacity(count)));
    }
    for (t, &owner) in (lo..).zip(owners) {
        groups[slot[owner as usize]].1.push(t);
    }
    OpDist { groups, slices: runs }
}

/// Expand `program` for `config.nodes` nodes: point tasks, ownership,
/// safety verdicts, dependence edges, copy plans, and distribution plans,
/// as the nested-vector [`ExpandedProgram`] view of the [`TaskTable`]
/// that [`TaskTable::expand`] produces.
///
/// With [`RuntimeConfig::trace_replay`] on, a rolling window over the
/// per-op trace keys detects repeated launch sequences (every golden
/// app's time loop), captures the first repetition as a `LaunchTrace`,
/// and replays it on subsequent iterations — skipping the safety analysis, sharding, and dependence
/// scan wholesale. Replay is validated against the oracle's entry state
/// and invalidated on any partition, privilege, domain, functor, or
/// sharding change; the result is bit-for-bit identical with replay off
/// (`tests/trace_replay.rs` locks this over the oracle corpus).
pub fn expand_program(program: &Program, config: &RuntimeConfig) -> ExpandedProgram {
    TaskTable::expand(program, config).view(program)
}

impl TaskTable {
    /// Expand `program` for `config.nodes` nodes into a task table (see
    /// [`expand_program`] for what the expansion computes). Every call
    /// starts from an empty verdict cache and no traces, so the table
    /// depends only on `program` and `config`.
    pub fn expand(program: &Program, config: &RuntimeConfig) -> TaskTable {
        let s_keys = std::time::Instant::now();
        let keys = crate::replay::trace_keys(program);
        let keys_ns = s_keys.elapsed().as_nanos() as u64;
        let mut xp = Expander::new(program, config);
        xp.prof.replay_ns += keys_ns;
        let mut recorder = Recorder::new(config.trace_replay);
        let n = program.ops.len();
        let mut i = 0usize;
        while i < n {
            if config.trace_replay {
                // Recorder work charges its task splices to the materialize
                // bucket itself; the residual — detection, validation,
                // capture snapshots, exit bookkeeping — is the subsystem's
                // own overhead.
                let s = std::time::Instant::now();
                let inner = xp.prof;
                let r = recorder.try_replay(&mut xp, i, &keys);
                if let Some(p) = r {
                    charge_residual(&mut xp.prof, inner, s.elapsed());
                    i += p;
                    continue;
                }
                // A trace is worth its capture only if something can replay
                // it: the window's keys occur again later in this program.
                let replayable =
                    |p: &usize| keys[i + p..].windows(*p).any(|w| w == &keys[i..i + p]);
                if let Some(p) = recorder.detect(i, &keys).filter(replayable) {
                    recorder.capture(&mut xp, i, p, &keys);
                    charge_residual(&mut xp.prof, inner, s.elapsed());
                    i += p;
                    continue;
                }
                charge_residual(&mut xp.prof, inner, s.elapsed());
            }
            xp.expand_op(i);
            xp.scan_op(i);
            i += 1;
        }
        debug_assert!(
            (0..program.forest.num_spaces() as u32)
                .map(IndexSpaceId)
                .all(|s| xp.oracle.overlaps(s).is_none_or(|list| list.first().map(|o| o.space) == Some(s))),
            "an overlap list lost its own space"
        );
        debug_assert!(
            (0..program.forest.num_spaces() as u32).map(IndexSpaceId).all(|s| {
                xp.oracle.overlaps(s).is_none_or(|list| {
                    let domain = program.forest.domain(s);
                    list.iter().all(|o| o.volume == overlap_volume(domain, program.forest.domain(o.space)))
                })
            }),
            "a stored overlap volume differs from a recomputation"
        );

        let Expander { mut table, cache_stats, mut prof, oracle, .. } = xp;
        table.closes = oracle.close_stats;
        // The oracle's state is dead weight from here on; release it
        // before the successor rows are built. Freeing it is part of the
        // dependence analysis's cost.
        let s_drop = std::time::Instant::now();
        drop(oracle);
        prof.analysis_ns += s_drop.elapsed().as_nanos() as u64;
        let (trace_replay, trace_marks) = recorder.finish();

        // Cross-validation: a launch the hybrid analysis declared safe must
        // have produced no intra-launch edges.
        let s_validate = std::time::Instant::now();
        for (op_idx, &(lo, hi)) in table.op_tasks.iter().enumerate() {
            if matches!(table.safety[op_idx], OpSafety::Sequential) {
                continue;
            }
            for t in lo..hi {
                for &d in table.deps(t) {
                    assert!(
                        !(d >= lo && d < hi),
                        "safety analysis declared op {op_idx} safe but tasks {d} and {t} interfere"
                    );
                }
            }
        }
        prof.analysis_ns += s_validate.elapsed().as_nanos() as u64;

        // Invert `deps` into exact-size successor rows, filled by walking
        // consumers in (owner, task) order so every row comes out in that
        // order with no per-row sort (see `TaskTable::succs` for why it
        // matters).
        let s_succs = std::time::Instant::now();
        table.shrink_to_fit();
        let n = table.len();
        let mut next = vec![0u32; n + 1];
        for &p in &table.deps.items {
            next[p as usize + 1] += 1;
        }
        for t in 0..n {
            next[t + 1] += next[t];
        }
        let mut succs = vec![0 as TaskRef; table.deps.items.len()];
        for t in owner_order(&table.owner, config.nodes).0 {
            for &p in table.deps(t) {
                succs[next[p as usize] as usize] = t;
                next[p as usize] += 1;
            }
        }
        // `next[p]` now holds the end of row `p`, which is where row `p + 1`
        // starts.
        next.rotate_right(1);
        next[0] = 0;
        table.succs = Rows::from_parts(next, succs);
        prof.materialize_ns += s_succs.elapsed().as_nanos() as u64;

        table.analysis_cache = cache_stats;
        table.trace_replay = trace_replay;
        table.trace_marks = trace_marks;
        table.profile = prof;
        table
    }
}

/// Tasks sorted by (owner, task), plus the number of tasks each of the
/// `nodes` nodes owns: one stable counting sort over the owner column.
pub(crate) fn owner_order(owners: &[u32], nodes: usize) -> (Vec<TaskRef>, Vec<u32>) {
    let mut owned = vec![0u32; nodes];
    for &o in owners {
        owned[o as usize] += 1;
    }
    let mut next = Vec::with_capacity(nodes);
    let mut start = 0u32;
    for &n in &owned {
        next.push(start);
        start += n;
    }
    let mut order = vec![0 as TaskRef; owners.len()];
    for (t, &o) in owners.iter().enumerate() {
        let slot = &mut next[o as usize];
        order[*slot as usize] = t as TaskRef;
        *slot += 1;
    }
    (order, owned)
}

/// Charge `elapsed` minus whatever the inner call already booked (to any
/// bucket) to the recorder-overhead bucket. Keeps the three buckets
/// disjoint even though recorder calls nest expansion and splice work.
fn charge_residual(prof: &mut ExpandProfile, before: ExpandProfile, elapsed: std::time::Duration) {
    let inner = (prof.analysis_ns - before.analysis_ns)
        + (prof.materialize_ns - before.materialize_ns)
        + (prof.replay_ns - before.replay_ns);
    prof.replay_ns += (elapsed.as_nanos() as u64).saturating_sub(inner);
}

fn resolve(program: &Program, f: FunctorId) -> &il_analysis::ProjExpr {
    program.functor(f)
}

/// Hash of a launch's analysis-relevant shape. Covers the full domain
/// (bounds, dimensionality, sparse points — not just volume), and every
/// requirement's partition, functor, privilege (with reduction op), and
/// field list. It is a 64-bit [`DefaultHasher`] digest, so two distinct
/// shapes collide with probability about 2⁻⁶⁴. A collision hands a
/// launch another's cached verdict (a wrongly safe one trips the
/// "declared safe but tasks interfere" assert; a wrongly `Sequential`
/// one changes only simulated time) or makes the tracing model charge it
/// as a repeat (simulated time only). Keys both the
/// executor's tracing replays ([`crate::exec`]) and the expansion-time
/// analysis cache ([`AnalysisCacheStats`]); the whole-sequence trace keys
/// ([`crate::replay`]) extend it with the region tree, field space, and
/// sharding-functor identity.
///
/// Partitions and functors enter by id, and an id means something only
/// within its program: signatures compare only against signatures of
/// the same program, which is why the program is a parameter.
pub fn launch_signature(launch: &crate::program::IndexLaunchDesc, _program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    launch.task.0.hash(&mut h);
    launch.domain.volume().hash(&mut h);
    launch.domain.dim().hash(&mut h);
    let (lo, hi) = launch.domain.bounds();
    lo.hash(&mut h);
    hi.hash(&mut h);
    // Sparse domains with equal bounds/volume but different points must
    // hash differently (their dynamic verdicts can differ).
    if let Domain::Sparse(s) = &launch.domain {
        s.points().hash(&mut h);
    }
    for r in &launch.reqs {
        r.partition.hash(&mut h);
        r.functor.0.hash(&mut h);
        std::mem::discriminant(&r.privilege).hash(&mut h);
        if let Privilege::Reduce(op) = r.privilege {
            op.hash(&mut h);
        }
        r.fields.hash(&mut h);
    }
    h.finish()
}
