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
//! captured [`crate::replay::LaunchTrace`] instead.
//!
//! The *cost* of discovering these edges is charged by the executor
//! according to the §5 complexities; this module is only the semantic
//! oracle.

use crate::config::RuntimeConfig;
use crate::hash::{IntMap, IntSet};
use crate::program::{FunctorId, Program};
use crate::replay::{Recorder, TraceMark, TraceReplayStats};
use crate::shard::{block_shard, point_at, ShardDomain, ShardingFn};
use il_analysis::{analyze_launch, HybridVerdict, LaunchArg};
use il_geometry::{Domain, DomainPoint};
use il_machine::NodeId;
use il_region::{
    overlap_volume, FieldId, FieldSpaceDesc, IndexSpaceId, Privilege, RegionForest, RegionTreeId,
    ReductionOpId,
};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Reference to a task instance (index into [`ExpandedProgram::tasks`]).
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
    /// Hits served from a tenant's *warm* state — verdicts carried over
    /// from an earlier session of the same tenant running the same
    /// program (service mode only; always zero on the legacy path and
    /// on a tenant's first session).
    pub warm_hits: u64,
}

/// A tenant's carry-over expansion state in service mode: the verdict
/// cache and the surviving launch traces of that tenant's previous
/// sessions of the *same* program. Keyed per `(tenant, program)` by the
/// service — never shared across tenants, which is what keeps one
/// tenant's trace invalidations and cache contents invisible to another
/// (the per-tenant-isolation tier locks this). Purely host-side: seeding
/// warm state never changes verdicts, task graphs, or simulated time,
/// only how much analysis the expansion repeats.
#[derive(Default)]
pub struct WarmState {
    pub(crate) verdicts: HashMap<u64, OpSafety>,
    pub(crate) traces: Vec<crate::replay::LaunchTrace>,
}

impl WarmState {
    /// Empty warm state (a tenant's first session).
    pub fn new() -> Self {
        WarmState::default()
    }

    /// Captured launch traces currently held.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }
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
    /// and the closing "declared safe ⇒ no intra-launch edge"
    /// cross-validation scan.
    pub analysis_ns: u64,
    /// Task-instance construction: the fresh point loop or a trace's
    /// splice of captured instances, and the inversion of `deps` into
    /// `succs`.
    pub materialize_ns: u64,
    /// Trace recorder overhead: per-op trace keys, detection, entry
    /// validation, capture snapshots, and replayed oracle exit states.
    pub replay_ns: u64,
}

/// The fully expanded program plus its exact task graph.
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

/// Per-(subspace, field) access bookkeeping for the oracle.
///
/// Legion privileges are per-field: accesses to disjoint field sets never
/// conflict even on the same points. We track fields as bitmasks (field
/// spaces here are small); a write retires exactly the bits it covers
/// from earlier records.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub(crate) struct SpaceState {
    /// Live writers: `(task, producer req, field mask, reduce op if the
    /// write was a reduction)`.
    pub(crate) writes: Vec<(TaskRef, usize, u64, Option<ReductionOpId>)>,
    /// Readers since the covering writes.
    pub(crate) readers: Vec<(TaskRef, u64)>,
    /// Pending reducers (folded into the next reader/writer). A write
    /// whose subspace *fully covers* this buffer retires these records
    /// (e.g. circuit's `update_voltages` consuming the ghost charge
    /// buffers): any later accessor overlapping this buffer necessarily
    /// overlaps the covering writer too, so the ordering survives
    /// transitively through it. A partially covering write must leave
    /// the records in place — accessors of the uncovered part still need
    /// direct edges — which at worst duplicates edges the covering path
    /// already implies.
    pub(crate) reducers: Vec<(ReductionOpId, TaskRef, usize, u64)>,
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
    /// Bits consumed by ops strictly before `op`.
    fn consumed_before(&self, op: u32) -> u64 {
        self.consumed
            .iter()
            .filter(|(o, _)| *o < op)
            .fold(0u64, |acc, (_, m)| acc | m)
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
fn mask_fields(mask: u64) -> impl Iterator<Item = FieldId> {
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
pub(crate) struct Oracle {
    /// Access records per `(tree, subspace)`.
    pub(crate) states: IntMap<(RegionTreeId, IndexSpaceId), SpaceState>,
    /// Candidate overlaps among touched spaces, per tree, found through a
    /// bounding-volume hierarchy — the §5 structure Legion uses for its
    /// logarithmic-time physical analysis.
    touched: HashMap<RegionTreeId, il_region::BvhSet<IndexSpaceId>>,
    /// The subset of `touched` holding only spaces with writer usage
    /// (write, read-write, or reduce). Read-only registrations query
    /// this tree instead of `touched`: read–read overlaps never produce
    /// dependences, so materializing them is pure waste — and on apps
    /// where every piece reads a shared hub region (power-law pagerank)
    /// it is *quadratic* waste that breaks §5's O(|D| log |P|) bound.
    writer_bvh: HashMap<RegionTreeId, il_region::BvhSet<IndexSpaceId>>,
    /// Spaces ever used with writer privilege.
    writers: IntSet<(RegionTreeId, IndexSpaceId)>,
    /// Overlap sets, append-only once registered. Privilege-aware: a
    /// writer space's list holds *every* overlapping registered space
    /// (its scan needs readers for WAR edges); a read-only space's list
    /// holds only overlapping *writer* spaces (the only ones that can
    /// produce its RAW edges). A read-only space promoted to writer is
    /// upgraded in place — see [`Oracle::upgrade`].
    pub(crate) overlaps: IntMap<(RegionTreeId, IndexSpaceId), Vec<IndexSpaceId>>,
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
    pub(crate) clears: Vec<((RegionTreeId, IndexSpaceId), u64)>,
}

/// One state consultation during a provenance-recorded scan: task `t`'s
/// requirement with privilege `privilege` and field `mask` consulted
/// member `key` and contributed the dependence edges `deps` (pre-dedup
/// values — the final per-task list is sorted and deduplicated, so
/// counts could not be sliced back) and the next `copies` incoming
/// copies of `t`'s copy list (in push order). `consumed` is the
/// already-consumed field union the consult saw; `fold_src` is the
/// reducer a fold copy was taken from, if any — replay validity hinges
/// on whether that source predates the window.
pub(crate) struct ProvEntry {
    pub(crate) task: TaskRef,
    pub(crate) key: (RegionTreeId, IndexSpaceId),
    pub(crate) mask: u64,
    pub(crate) privilege: Privilege,
    pub(crate) deps: Vec<TaskRef>,
    pub(crate) copies: u32,
    pub(crate) consumed: u64,
    pub(crate) fold_src: Option<TaskRef>,
}

/// Deduplicate BVH query hits in place, keeping first-encounter order
/// (multi-box queries can return the same space once per box).
/// Box decomposition itself is [`il_region::coverage_boxes`] — shared
/// with the forest's partition-disjointness check.
fn dedup_in_order(v: &mut Vec<IndexSpaceId>) {
    let mut seen = HashSet::with_capacity(v.len());
    v.retain(|&s| seen.insert(s));
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            states: IntMap::default(),
            touched: HashMap::new(),
            writer_bvh: HashMap::new(),
            writers: IntSet::default(),
            overlaps: IntMap::default(),
            next_epoch: 0,
            prov: None,
        }
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
        if self.overlaps.contains_key(&(tree, space)) {
            if writes && !self.writers.contains(&(tree, space)) {
                self.upgrade(forest, tree, space);
            }
            return;
        }
        let mut mine = vec![space];
        let domain = forest.domain(space);
        if !domain.is_empty() {
            let boxes = il_region::coverage_boxes(&domain);
            let searched =
                if writes { self.touched.entry(tree).or_default() } else { self.writer_bvh.entry(tree).or_default() };
            let mut candidates = Vec::new();
            for b in &boxes {
                searched.query(b, &mut candidates);
            }
            dedup_in_order(&mut candidates);
            for other in candidates {
                if !forest.spaces_disjoint(space, other) {
                    mine.push(other);
                    self.overlaps.get_mut(&(tree, other)).expect("present").push(space);
                }
            }
            let all = self.touched.entry(tree).or_default();
            for b in &boxes {
                all.insert(*b, space);
            }
            if writes {
                let wb = self.writer_bvh.entry(tree).or_default();
                for b in &boxes {
                    wb.insert(*b, space);
                }
            }
        }
        if writes {
            self.writers.insert((tree, space));
        }
        self.overlaps.insert((tree, space), mine);
    }

    /// Promote a read-only-registered space to writer: join the writer
    /// BVH and connect it to the overlapping read-only spaces its first
    /// registration skipped. All touched lists only ever grow, so the
    /// append-only replay invariant survives (and any live trace whose
    /// direct spaces gain entries is invalidated by the length check —
    /// exactly right, since a new writer can add edges).
    fn upgrade(&mut self, forest: &RegionForest, tree: RegionTreeId, space: IndexSpaceId) {
        self.writers.insert((tree, space));
        let domain = forest.domain(space);
        if domain.is_empty() {
            return;
        }
        let boxes = il_region::coverage_boxes(&domain);
        let mut candidates = Vec::new();
        if let Some(bvh) = self.touched.get(&tree) {
            for b in &boxes {
                bvh.query(b, &mut candidates);
            }
        }
        dedup_in_order(&mut candidates);
        let known: HashSet<IndexSpaceId> =
            self.overlaps[&(tree, space)].iter().copied().collect();
        for other in candidates {
            // `known` holds every writer this space already overlaps (and
            // itself); the rest are read-only spaces that queried only the
            // writer BVH when they registered, so neither side lists the
            // other yet.
            if known.contains(&other) || forest.spaces_disjoint(space, other) {
                continue;
            }
            self.overlaps.get_mut(&(tree, space)).expect("registered").push(other);
            self.overlaps.get_mut(&(tree, other)).expect("present").push(space);
        }
        let wb = self.writer_bvh.entry(tree).or_default();
        for b in &boxes {
            wb.insert(*b, space);
        }
    }

    /// Run the dependence scan for task `t`: discover its predecessor
    /// edges and incoming copies, then fold its own accesses into the
    /// per-space states. `tasks` is the full task list (mutated only at
    /// `tasks[t].reduce_fill`); `deps_t`/`copies_t` are task `t`'s edge
    /// and copy lists; `req_fields` is each requirement's field mask and
    /// field-space descriptor, the same for every task of the op.
    fn process_task(
        &mut self,
        program: &Program,
        req_fields: &[(u64, &FieldSpaceDesc)],
        tasks: &mut [TaskInstance],
        deps_t: &mut Vec<TaskRef>,
        copies_t: &mut Vec<CopyIn>,
        t: usize,
    ) {
        let forest = &program.forest;
        let tref = t as TaskRef;
        let op_idx = tasks[t].op as usize;
        let launch = program.ops[op_idx].launch();
        for (req_idx, req) in launch.reqs.iter().enumerate() {
            let space = tasks[t].subspaces[req_idx];
            let tree = req.tree;
            let (mask, fsd) = req_fields[req_idx];
            self.register(forest, tree, space, !matches!(req.privilege, Privilege::Read));

            // Borrowed, not copied: nothing below registers a space, and
            // the states, the provenance log and the epoch counter are
            // other fields.
            let over = &self.overlaps[&(tree, space)];
            // This subspace's own write records, by producer: a copy from
            // an *older* writer in an overlapping aliased space must not
            // carry fields a newer in-place write already produced here —
            // at apply time the in-place data is "already there" and a
            // stale copy would clobber it (the AMR pattern: `unew` written
            // through the fine blocks after an earlier write through the
            // coarse blocks). The dependence edges stay; only the data
            // movement is suppressed.
            let own_writes = self.states.get(&(tree, space)).map_or(&[][..], |s| &s.writes);
            for &o_space in over {
                let Some(state) = self.states.get(&(tree, o_space)) else {
                    continue;
                };
                // Contributions already folded into an earlier op's
                // write: keep the dependence edges, skip the data fold.
                let consumed = state.consumed_before(tasks[t].op);
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
                    (shared, overlap_volume(forest.domain(space), forest.domain(o_space)) * per_point)
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
                                    copies_t.push(CopyIn {
                                        from: w,
                                        src_space: o_space,
                                        dst_req: req_idx,
                                        tree,
                                        fields: mask_fields(shared).collect(),
                                        bytes,
                                        fold: reduce,
                                    });
                                }
                            }
                        }
                        // One fold per source buffer: the buffer already
                        // accumulates every contribution of the epoch, so
                        // depend on all reducers but copy once.
                        for &(red_op, r, _rreq, rmask) in &state.reducers {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                                let (shared, bytes) = copy_bytes(rmask & !consumed, r, true);
                                if bytes > 0 && fold_src.is_none() {
                                    fold_src = Some(r);
                                    copies_t.push(CopyIn {
                                        from: r,
                                        src_space: o_space,
                                        dst_req: req_idx,
                                        tree,
                                        fields: mask_fields(shared).collect(),
                                        bytes,
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
                                        copies_t.push(CopyIn {
                                            from: w,
                                            src_space: o_space,
                                            dst_req: req_idx,
                                            tree,
                                            fields: mask_fields(shared).collect(),
                                            bytes,
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
                        for &(red_op, r, _rreq, rmask) in &state.reducers {
                            if r != tref && rmask & mask != 0 {
                                deps_t.push(r);
                                if wants_data {
                                    let (shared, bytes) = copy_bytes(rmask & !consumed, r, true);
                                    if bytes > 0 && fold_src.is_none() {
                                        fold_src = Some(r);
                                        copies_t.push(CopyIn {
                                            from: r,
                                            src_space: o_space,
                                            dst_req: req_idx,
                                            tree,
                                            fields: mask_fields(shared).collect(),
                                            bytes,
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
                        for &(other_op, r, _rreq, rmask) in &state.reducers {
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
                        key: (tree, o_space),
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
            if matches!(req.privilege, Privilege::Write | Privilege::ReadWrite) {
                let op_idx = tasks[t].op;
                for &o_space in over {
                    if o_space == space {
                        continue; // own state retired below
                    }
                    // Every step below edits an open epoch or a pending
                    // reducer; a state with neither is left as it is.
                    let Some(st) = self
                        .states
                        .get_mut(&(tree, o_space))
                        .filter(|st| !(st.epochs.is_empty() && st.reducers.is_empty()))
                    else {
                        continue;
                    };
                    let o_dom = forest.domain(o_space);
                    let full = overlap_volume(forest.domain(space), o_dom) == o_dom.volume();
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
                        match st.consumed.iter_mut().find(|(o, _)| *o == op_idx) {
                            Some((_, m)) => *m |= mask,
                            None => st.consumed.push((op_idx, mask)),
                        }
                    }
                }
            }

            // Update this space's own state.
            let state = self.states.entry((tree, space)).or_default();
            match req.privilege {
                Privilege::Read => state.readers.push((tref, mask)),
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
                    for r in &mut state.reducers {
                        r.3 &= !mask;
                    }
                    state.reducers.retain(|r| r.3 != 0);
                    for e in &mut state.epochs {
                        e.1 &= !mask;
                    }
                    state.epochs.retain(|e| e.1 != 0);
                    for (_, m) in &mut state.consumed {
                        *m &= !mask;
                    }
                    state.consumed.retain(|(_, m)| *m != 0);
                    if let Some(prov) = &mut self.prov {
                        prov.clears.push(((tree, space), mask));
                    }
                    state.writes.push((tref, req_idx, mask, None));
                }
                Privilege::Reduce(op) => {
                    // Reducers join the current epoch on this buffer; the
                    // epoch ends when a write consumes the contributions.
                    // Epochs are tracked per field bit: bits with no open
                    // same-op epoch start a fresh one (the buffer is
                    // re-initialized there, and any stale consumed marks
                    // on those bits are moot), bits with one join it.
                    let open: u64 = state
                        .epochs
                        .iter()
                        .filter(|&&(oo, _, _)| oo == op)
                        .fold(0u64, |acc, &(_, bits, _)| acc | bits);
                    let fresh_bits = mask & !open;
                    if fresh_bits != 0 {
                        for (_, m) in &mut state.consumed {
                            *m &= !fresh_bits;
                        }
                        state.consumed.retain(|(_, m)| *m != 0);
                        if let Some(prov) = &mut self.prov {
                            prov.clears.push(((tree, space), fresh_bits));
                        }
                        state.epochs.push((op, fresh_bits, self.next_epoch));
                        self.next_epoch += 1;
                    }
                    // Record the epoch of every field this requirement
                    // folds into; the executor identity-fills each
                    // (buffer, field, epoch) at its first-executing
                    // member.
                    let mut fill = Vec::new();
                    for b in 0..64u32 {
                        let bit = 1u64 << b;
                        if mask & bit == 0 {
                            continue;
                        }
                        let eid = state
                            .epochs
                            .iter()
                            .find(|e| e.0 == op && e.1 & bit != 0)
                            .map(|e| e.2)
                            .expect("every masked bit was assigned an epoch above");
                        fill.push((FieldId(b), eid));
                    }
                    tasks[t].reduce_fill[req_idx] = fill;
                    state.reducers.push((op, tref, req_idx, mask));
                }
            }
        }
        deps_t.sort_unstable();
        deps_t.dedup();
    }
}

/// In-progress expansion: the accumulating [`ExpandedProgram`] arrays,
/// the verdict cache, and the dependence [`Oracle`]. The main loop (and
/// the trace recorder) appends one op at a time, either by running
/// [`Expander::expand_op`] + [`Expander::scan_op`] or by splicing in a
/// captured trace.
pub(crate) struct Expander<'p> {
    pub(crate) program: &'p Program,
    config: &'p RuntimeConfig,
    default_shard: ShardingFn,
    verdict_cache: HashMap<u64, OpSafety>,
    /// Signatures whose verdicts were pre-seeded from a tenant's warm
    /// state (empty on the legacy path); hits on these count as
    /// `warm_hits`.
    warm_sigs: HashSet<u64>,
    cache_stats: AnalysisCacheStats,
    pub(crate) oracle: Oracle,
    pub(crate) tasks: Vec<TaskInstance>,
    pub(crate) op_tasks: Vec<(u32, u32)>,
    pub(crate) safety: Vec<OpSafety>,
    pub(crate) deps: Vec<Vec<TaskRef>>,
    pub(crate) copies: Vec<Vec<CopyIn>>,
    pub(crate) dist: Vec<OpDist>,
    pub(crate) replayed_ops: Vec<bool>,
    pub(crate) prof: ExpandProfile,
}

impl<'p> Expander<'p> {
    fn new(program: &'p Program, config: &'p RuntimeConfig) -> Self {
        Expander {
            program,
            config,
            default_shard: block_shard(),
            verdict_cache: HashMap::new(),
            warm_sigs: HashSet::new(),
            cache_stats: AnalysisCacheStats::default(),
            oracle: Oracle::new(),
            tasks: Vec::new(),
            op_tasks: Vec::with_capacity(program.ops.len()),
            safety: Vec::with_capacity(program.ops.len()),
            deps: Vec::new(),
            copies: Vec::new(),
            dist: Vec::with_capacity(program.ops.len()),
            replayed_ops: Vec::with_capacity(program.ops.len()),
            prof: ExpandProfile::default(),
        }
    }

    /// Number of ops materialized so far (the index the next op gets).
    pub(crate) fn next_op(&self) -> usize {
        self.op_tasks.len()
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
        // source loop. The signature is collision-free precisely so it can
        // carry this weight; `tests/analysis_cache.rs` pins every cached
        // verdict to a fresh analysis of its launch.
        let s_analysis = std::time::Instant::now();
        let sig = launch_signature(launch, program);
        let verdict = match self.verdict_cache.entry(sig) {
            Entry::Occupied(hit) => {
                self.cache_stats.hits += 1;
                if self.warm_sigs.contains(&sig) {
                    self.cache_stats.warm_hits += 1;
                }
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
        self.safety.push(verdict);
        self.prof.analysis_ns += s_analysis.elapsed().as_nanos() as u64;

        let s_mat = std::time::Instant::now();
        let shard = launch.shard.clone().unwrap_or_else(|| self.default_shard.clone());
        let lo = self.tasks.len() as u32;
        let volume = launch.domain.volume();
        // One ShardDomain per op: sparse rank queries inside the functor
        // amortize to O(1) instead of re-scanning the point list per task.
        let shard_domain = ShardDomain::new(&launch.domain);
        for idx in 0..volume {
            let point = point_at(&launch.domain, idx);
            let owner = shard(point, &shard_domain, nodes);
            assert!(owner < nodes, "sharding functor returned node {owner} of {nodes}");
            let subspaces = launch
                .reqs
                .iter()
                .map(|r| {
                    let color = resolve(program, r.functor).eval(point);
                    forest.try_subspace(r.partition, color).unwrap_or_else(|| {
                        panic!(
                            "projection functor {:?} selected color {color:?} with no subspace in {:?}",
                            resolve(program, r.functor),
                            r.partition
                        )
                    })
                })
                .collect();
            let nreqs = launch.reqs.len();
            self.tasks.push(TaskInstance {
                op: op_idx as u32,
                point_idx: idx as u32,
                point,
                owner,
                subspaces,
                reduce_fill: vec![Vec::new(); nreqs],
            });
            self.deps.push(Vec::new());
            self.copies.push(Vec::new());
        }
        let hi = self.tasks.len() as u32;
        self.op_tasks.push((lo, hi));
        self.prof.materialize_ns += s_mat.elapsed().as_nanos() as u64;
        let s_dist = std::time::Instant::now();
        self.dist.push(dist_plan(&self.tasks, lo, hi));
        self.prof.analysis_ns += s_dist.elapsed().as_nanos() as u64;
        self.replayed_ops.push(false);
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
        let (lo, hi) = self.op_tasks[op_idx];
        for t in lo as usize..hi as usize {
            self.oracle.process_task(
                program,
                &req_fields,
                &mut self.tasks,
                &mut self.deps[t],
                &mut self.copies[t],
                t,
            );
        }
        self.prof.analysis_ns += s_scan.elapsed().as_nanos() as u64;
    }
}

/// Group tasks `[lo, hi)` by owner and compute the contiguous slice runs
/// — the sharding/distribution plan the executor (and any captured
/// trace) works from.
fn dist_plan(tasks: &[TaskInstance], lo: u32, hi: u32) -> OpDist {
    let mut groups: HashMap<NodeId, Vec<TaskRef>> = HashMap::new();
    let mut runs: Vec<(u32, u32, NodeId)> = Vec::new();
    for t in lo..hi {
        let owner = tasks[t as usize].owner;
        groups.entry(owner).or_default().push(t);
        match runs.last_mut() {
            Some((_, rhi, rowner)) if *rowner == owner && *rhi == t => *rhi = t + 1,
            _ => runs.push((t, t + 1, owner)),
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|(n, _)| *n);
    OpDist { groups, slices: runs }
}

/// Expand `program` for `config.nodes` nodes: point tasks, ownership,
/// safety verdicts, dependence edges, copy plans, and distribution plans.
///
/// With [`RuntimeConfig::trace_replay`] on, a rolling window over the
/// per-op trace keys detects repeated launch sequences (every golden
/// app's time loop), captures the first repetition as a
/// [`crate::replay::LaunchTrace`], and replays it on subsequent
/// iterations — skipping the safety analysis, sharding, and dependence
/// scan wholesale. Replay is validated against the oracle's entry state
/// and invalidated on any partition, privilege, domain, functor, or
/// sharding change; the result is bit-for-bit identical with replay off
/// (`tests/trace_replay.rs` locks this over the oracle corpus).
pub fn expand_program(program: &Program, config: &RuntimeConfig) -> ExpandedProgram {
    expand_program_warm(program, config, None)
}

/// [`expand_program`] seeded with (and updating) a tenant's [`WarmState`]:
/// the verdict cache starts from the tenant's carried-over verdicts and
/// the trace recorder from its surviving launch traces, so a repeat
/// session of the same program skips analysis from its very first
/// iteration instead of re-warming. On return the warm state holds the
/// post-expansion cache and traces for the tenant's next session.
///
/// Host-side only: the expansion's *output* — verdicts, task graph,
/// distribution plans, and everything the simulator charges — is
/// byte-identical with or without warm state (warm verdicts were computed
/// from the same collision-free signatures; warm traces validate against
/// the current oracle state exactly like intra-run traces do). Only the
/// `warm_hits`/replay accounting and host wall-clock differ.
pub fn expand_program_warm(
    program: &Program,
    config: &RuntimeConfig,
    warm: Option<&mut WarmState>,
) -> ExpandedProgram {
    let s_keys = std::time::Instant::now();
    let keys = crate::replay::trace_keys(program);
    let mut xp = Expander::new(program, config);
    xp.prof.replay_ns += s_keys.elapsed().as_nanos() as u64;
    let mut recorder = Recorder::new(config.trace_replay);
    let mut warm = warm;
    if let Some(w) = warm.as_deref_mut() {
        xp.warm_sigs = w.verdicts.keys().copied().collect();
        xp.verdict_cache = std::mem::take(&mut w.verdicts);
        if config.trace_replay {
            recorder.seed_traces(std::mem::take(&mut w.traces));
        }
    }
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
            // it: the window's keys occur again later in this program, or
            // the warm state carries it to the tenant's next session.
            let replayable = |p: &usize| {
                warm.is_some() || keys[i + p..].windows(*p).any(|w| w == &keys[i..i + p])
            };
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
        xp.oracle.overlaps.iter().all(|(&(_, space), list)| list.first() == Some(&space)),
        "an overlap list lost its own space"
    );

    let Expander {
        tasks,
        op_tasks,
        safety,
        deps,
        copies,
        dist,
        replayed_ops,
        cache_stats,
        mut prof,
        verdict_cache,
        ..
    } = xp;
    let (trace_replay, trace_marks, surviving) = recorder.finish();
    if let Some(w) = warm {
        w.verdicts = verdict_cache;
        if config.trace_replay {
            w.traces = surviving;
        }
    }

    // Cross-validation: a launch the hybrid analysis declared safe must
    // have produced no intra-launch edges.
    let s_validate = std::time::Instant::now();
    for (op_idx, (lo, hi)) in op_tasks.iter().enumerate() {
        if matches!(safety[op_idx], OpSafety::Sequential) {
            continue;
        }
        for t in *lo..*hi {
            for &d in &deps[t as usize] {
                assert!(
                    !(d >= *lo && d < *hi),
                    "safety analysis declared op {op_idx} safe but tasks {d} and {t} interfere"
                );
            }
        }
    }
    prof.analysis_ns += s_validate.elapsed().as_nanos() as u64;

    // Invert `deps` into exact-capacity rows, filled by walking consumers
    // in (owner, task) order so every row comes out in that order with no
    // per-row sort (see the `succs` field docs for why it matters).
    let s_succs = std::time::Instant::now();
    let mut fanout = vec![0u32; tasks.len()];
    for &p in deps.iter().flatten() {
        fanout[p as usize] += 1;
    }
    let mut succs: Vec<Vec<TaskRef>> =
        fanout.iter().map(|&n| Vec::with_capacity(n as usize)).collect();
    drop(fanout);
    for t in owner_order(&tasks, config.nodes).0 {
        for &p in &deps[t as usize] {
            succs[p as usize].push(t);
        }
    }
    prof.materialize_ns += s_succs.elapsed().as_nanos() as u64;

    ExpandedProgram {
        tasks,
        op_tasks,
        safety,
        deps,
        succs,
        copies,
        dist,
        analysis_cache: cache_stats,
        trace_replay,
        replayed_ops,
        trace_marks,
        profile: prof,
    }
}

/// Tasks sorted by (owner, task), plus the number of tasks each of the
/// `nodes` nodes owns: one stable counting sort over owners.
pub(crate) fn owner_order(tasks: &[TaskInstance], nodes: usize) -> (Vec<TaskRef>, Vec<u32>) {
    let mut owned = vec![0u32; nodes];
    for t in tasks {
        owned[t.owner] += 1;
    }
    let mut next = Vec::with_capacity(nodes);
    let mut start = 0u32;
    for &n in &owned {
        next.push(start);
        start += n;
    }
    let mut order = vec![0 as TaskRef; tasks.len()];
    for (t, inst) in tasks.iter().enumerate() {
        let slot = &mut next[inst.owner];
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
/// field list, so distinct launch shapes do not collide. Keys both the
/// executor's tracing replays ([`crate::exec`]) and the expansion-time
/// analysis cache ([`AnalysisCacheStats`]); the whole-sequence trace keys
/// ([`crate::replay`]) extend it with the region tree, field space, and
/// sharding-functor identity.
pub fn launch_signature(launch: &crate::program::IndexLaunchDesc, program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    launch.task.0.hash(&mut h);
    launch.domain.volume().hash(&mut h);
    launch.domain.dim().hash(&mut h);
    let (lo, hi) = launch.domain.bounds();
    lo.hash(&mut h);
    hi.hash(&mut h);
    // Sparse domains with equal bounds/volume but different points must
    // hash differently (their dynamic verdicts can differ).
    if let Domain::Sparse { points, .. } = &launch.domain {
        points.hash(&mut h);
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
    // In-place partition replacement (AMR refine/coarsen) keeps partition
    // ids stable while changing their colorings; the forest generation
    // distinguishes the shapes so cached verdicts and captured traces are
    // invalidated rather than replayed against stale bounds.
    program.forest.generation().hash(&mut h);
    h.finish()
}
