//! Whole-sequence trace capture & replay for iterative launch programs.
//!
//! All three golden apps are timestep loops that re-issue the same
//! index-launch sequence every iteration, yet each iteration re-runs the
//! full safety analysis, sharding, and dependence scan. Following
//! *Automatic Tracing in Task-Based Runtime Systems* (see PAPERS.md),
//! this module memoizes the whole sequence: a `Recorder` watches the
//! per-op *trace keys* (launch signature + region tree + field space +
//! sharding-functor identity), detects a repeated window, captures the
//! window's fully expanded dependence graph, sharding decisions, and
//! distribution plans as a `LaunchTrace`, and on later iterations
//! splices the trace into the expansion instead of re-analyzing.
//!
//! # Soundness
//!
//! The dependence oracle's transition over a window is a deterministic
//! function of (a) the program shapes named by the trace keys and (b)
//! the entry states of every space the window touches or overlaps — and
//! it is *equivariant* under uniform shifts of task refs, op indices,
//! and reduction-epoch ids (the oracle only compares those for equality
//! and order). A trace therefore validates its entry in two modes, per
//! member space:
//!
//! * A `TraceMember::Full` member is rewritten by the window: replay
//!   requires exact entry equality in *normalized* form (refs relative
//!   to the window's bases) — such state is rebuilt every iteration, so
//!   its refs sit at stable relative offsets.
//! * A `TraceMember::Append` member's window transition is pure
//!   accumulation: readers, reducers, and consumption records gain
//!   entries but never lose or reorder the existing ones (the one
//!   permitted in-place mutation is a recorded field-mask *clear* of the
//!   consumption record, which a fresh reduction epoch applies to every
//!   record present). Such state — write-once read-forever coefficients,
//!   or a partially covered reduction buffer like circuit's shared
//!   ghost nodes — drifts across iterations precisely by those appends,
//!   so replay validates it *absolutely*: writers and open epochs must
//!   match exactly, the captured readers and reducers must be a prefix
//!   of the current lists, and the consumed field-union must be
//!   unchanged. Whatever accumulated since capture (the delta) gets the
//!   same dependence edges the live scan would have produced, injected
//!   per recorded consultation; fold-copy and consumption flips that a
//!   delta could cause are guarded per consult and invalidate instead.
//!
//! Dependence edges into pre-window tasks are encoded to match whichever
//! argument validated them: relative for refs pinned by a normalized
//! member, absolute for refs pinned by an append member's absolute
//! entry. Replay additionally requires the overlap-list lengths of
//! every directly touched space to match — lengths stand in for list
//! contents because the lists are append-only. Any partition,
//! privilege, domain, functor, or sharding change alters the trace
//! keys; any unaccounted state drift (or a new overlapping space
//! registered in between) fails the entry check. Both invalidate: the
//! trace is dropped and the sequence re-captured, never replayed stale.
//! `tests/trace_replay.rs` and the differential-oracle corpus pin
//! replay-on and replay-off expansions byte-identical.

use crate::depgraph::{sort_dedup_tail, Expander, OpDist, OpSafety, ReduceRec, SpaceState, TaskRef};
use crate::depgraph::launch_signature;
use crate::hash::{IntMap, IntSet};
use crate::program::Program;
use crate::shard::sharding_identity;
use crate::table::{Rows, TaskCopy};
use il_machine::NodeId;
use il_region::{FieldId, IndexSpaceId, Privilege, ReductionOpId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Longest launch sequence the rolling window will recognize as one
/// iteration. Soleil, the widest golden app, expands each timestep into
/// 46 launches at the smallest test mesh (every phase walks the x/y/z
/// face partitions separately); 64 leaves headroom for fused
/// multi-phase loops.
const MAX_PERIOD: usize = 64;

/// Captured traces kept live, most recently used first. Small: a program
/// usually has one hot loop, occasionally a few phases.
const MAX_TRACES: usize = 8;

/// Host-side statistics of trace capture & replay for one expansion.
/// Purely observability — replay never changes the expanded program or
/// any simulated time, only how much host work the expansion repeats —
/// and therefore deliberately excluded from `RunReport::stage_json`,
/// like the analysis-cache stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceReplayStats {
    /// True when trace replay was enabled for this expansion.
    pub enabled: bool,
    /// Launch-sequence windows captured as traces.
    pub captured: u64,
    /// Windows materialized by replaying a captured trace.
    pub replayed: u64,
    /// Traces dropped because their keys diverged mid-sequence or their
    /// entry state stopped matching.
    pub invalidated: u64,
    /// Per-launch analyses (safety verdict + sharding + dependence scan)
    /// skipped by replays.
    pub analyses_skipped: u64,
    /// Point tasks materialized from traces instead of fresh expansion.
    pub tasks_replayed: u64,
    /// Windows expanded under capture whose trace could not be encoded
    /// soundly and was dropped: the capture's cost paid, nothing stored.
    pub abandoned: u64,
}

/// What a [`TraceMark`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMarkKind {
    /// The window starting here was captured as a new trace.
    Captured,
    /// The window starting here was replayed from a trace.
    Replayed,
    /// One or more traces were invalidated at this op.
    Invalidated,
    /// The window starting here was expanded under capture, but no trace
    /// was stored (see [`TraceReplayStats::abandoned`]).
    Abandoned,
}

/// A capture/replay/invalidate event at op `op` covering `len` ops, in
/// expansion order. The executor turns these into zero-duration
/// `TraceLog` marker events under `Stage::TraceReplay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMark {
    /// First op of the affected window.
    pub op: u32,
    /// Ops the event covers (window length; for invalidations, the
    /// number of traces dropped).
    pub len: u32,
    /// Event kind.
    pub kind: TraceMarkKind,
}

/// A [`SpaceState`] with every task ref, op index, and epoch id made
/// relative to the capture window's bases, so states from different
/// iterations compare equal exactly when they are uniform shifts of one
/// another.
#[derive(Clone, Debug, PartialEq, Eq)]
struct NormState {
    writes: Vec<(i64, u32, u64, Option<ReductionOpId>)>,
    readers: Vec<(i64, u64)>,
    reducers: Vec<(ReductionOpId, i64, u32, u64)>,
    epochs: Vec<(ReductionOpId, u64, i64)>,
    consumed: Vec<(i64, u64)>,
}

/// Normalize `s` against the window bases `(tb, ob, eb)` = (first task
/// ref, first op index, first epoch id the window would allocate).
fn normalize(s: &SpaceState, tb: i64, ob: i64, eb: i64) -> NormState {
    NormState {
        writes: s.writes.iter().map(|&(t, rq, m, red)| (t as i64 - tb, rq, m, red)).collect(),
        readers: s.readers.iter().map(|&(t, m)| (t as i64 - tb, m)).collect(),
        reducers: s.reducers().iter().map(|&(op, t, rq, m)| (op, t as i64 - tb, rq, m)).collect(),
        epochs: s.epochs().iter().map(|&(op, bits, e)| (op, bits, e as i64 - eb)).collect(),
        consumed: s.consumed().iter().map(|&(o, m)| (o as i64 - ob, m)).collect(),
    }
}

/// Invert [`normalize`] against fresh bases. Replay only shifts refs
/// forward, so every result fits its unsigned type; a failure here would
/// mean the recorder spliced a trace below its own capture point, which
/// is a bug worth a loud panic.
fn denormalize(ns: &NormState, tb: i64, ob: i64, eb: i64) -> SpaceState {
    let task = |t: i64| -> TaskRef { u32::try_from(t + tb).expect("replayed task ref in range") };
    let epoch = |e: i64| -> u32 { u32::try_from(e + eb).expect("replayed epoch id in range") };
    let op = |o: i64| -> u32 { u32::try_from(o + ob).expect("replayed op index in range") };
    SpaceState::from_parts(
        ns.writes.iter().map(|&(t, rq, m, red)| (task(t), rq, m, red)).collect(),
        ns.readers.iter().map(|&(t, m)| (task(t), m)).collect(),
        ns.reducers.iter().map(|&(o, t, rq, m)| (o, task(t), rq, m)).collect(),
        ns.epochs.iter().map(|&(o, bits, e)| (o, bits, epoch(e))).collect(),
        ns.consumed.iter().map(|&(o, m)| (op(o), m)).collect(),
    )
}

/// A captured task reference, encoded to match the validity argument
/// that pins it. Refs into the window itself and refs pinned by a
/// normalized ([`TraceMember::Full`]) entry state shift with the window;
/// refs pinned by an absolute ([`TraceMember::Append`]) entry state
/// name the very same task on every replay.
#[derive(Clone, Copy, Debug)]
enum Ref {
    /// Relative to the window's task base.
    Rel(i64),
    /// An absolute pre-window task.
    Abs(TaskRef),
}

/// A captured reduction-epoch id, encoded like [`Ref`]: epochs the
/// window opens (or that a normalized member pins) shift with the
/// window's epoch base; epochs pinned by an append member's exact entry
/// are absolute.
#[derive(Clone, Copy, Debug)]
enum ERef {
    /// Relative to the window's epoch base.
    Rel(i64),
    /// An absolute pre-window epoch.
    Abs(u32),
}

/// One recorded consultation of an append member by a window task's
/// requirement. At replay, state the member accumulated since capture
/// (readers and reducers beyond the captured prefix) gains exactly the
/// dependence edges the live scan would have produced, dispatched on
/// `privilege`; `mask`, `consumed`, and `fold_prefix` drive the
/// validity guards for flips a delta could cause (a fold copy or a
/// consumption record the capture did not record).
#[derive(Clone, Copy, Debug)]
struct Consult {
    member: u32,
    mask: u64,
    privilege: Privilege,
    /// The consumed field union this consult saw at capture.
    consumed: u64,
    /// True when the consult's fold copy (if any) came from a reducer
    /// that predates the window — iterated before any delta, so a delta
    /// reducer can never preempt it.
    fold_prefix: bool,
}

/// The captured point tasks of a window, op-major, in the task table's
/// own layout — per-task columns, subspaces back to back, one row per
/// task of edges, copies and consultations, and for a reduce launch one
/// fill row per task and requirement — with every task ref and epoch id
/// encoded per its validity mode. A replay appends each array to the
/// table's, decoding as it goes.
#[derive(Default)]
struct TraceTasks {
    point_idx: Vec<u32>,
    owner: Vec<u32>,
    subspaces: Vec<IndexSpaceId>,
    fills: Rows<(FieldId, ERef)>,
    deps: Rows<Ref>,
    /// Each copy with its producer encoded (its own `from` is unused).
    copies: Rows<(Ref, TaskCopy)>,
    /// Consultations of [`TraceMember::Append`] spaces by the task's
    /// requirements. At replay, state those spaces accumulated since
    /// capture gains the same dependence edges the live scan would have
    /// produced (dep lists are consumed as multisets, so appending them
    /// is exact).
    consults: Rows<Consult>,
}

/// How one member space participates in a captured window, which decides
/// how its entry state is validated at replay time (see the module docs'
/// soundness section).
#[derive(Clone, Debug)]
enum TraceMember {
    /// Some window access overlapping this space carries write,
    /// read-write, or reduce privilege: the window's output depends on
    /// the full entry state (reader lists feed anti-dependence edges),
    /// and the window may rewrite any part of it. Replay requires exact
    /// normalized entry equality and writes the absolute(-ized) exit
    /// state back. `None` = no state existed at that point.
    Full { space: IndexSpaceId, entry: Option<NormState>, exit: Option<NormState> },
    /// The window's transition of this space is pure accumulation:
    /// readers, reducers, open epochs, and consumption records gain
    /// entries (the tails below, window-relative) but the pre-window
    /// entries survive untouched — except consumption records, whose
    /// field bits a fresh reduction epoch may clear (`consumed_clear`,
    /// applied to *every* record present, so replay can reapply it to
    /// whatever accumulated since capture). This covers write-once
    /// read-forever state (stencil coefficients: reader appends only)
    /// and partially covered reduction buffers (circuit's shared ghost
    /// nodes: reducer, reader, and consumption appends every
    /// iteration). Such state drifts across iterations precisely by
    /// those appends, so replay validates it *absolutely*: `entry`'s
    /// writes and epochs must match the current state exactly, its
    /// readers and reducers must be a *prefix* of the current lists,
    /// and the consumed field-union must be unchanged (which pins every
    /// fold-copy byte count). State accumulated since capture is
    /// handled by delta edges injected via [`TraceTask::consults`].
    Append {
        space: IndexSpaceId,
        /// Whether any state existed at capture entry. When it did not,
        /// no consultation of this space was recorded, so replay
        /// requires the state to still be absent (or fully empty).
        entry_existed: bool,
        entry: SpaceState,
        readers_tail: Vec<(i64, u64)>,
        reducers_tail: Vec<(ReductionOpId, i64, u32, u64)>,
        epochs_tail: Vec<(ReductionOpId, u64, i64)>,
        consumed_clear: u64,
        consumed_tail: Vec<(i64, u64)>,
    },
}

/// One captured operation: verdict, task count, and the distribution
/// plan with window-relative task refs.
#[derive(Clone, Debug)]
struct TraceOp {
    safety: OpSafety,
    ntasks: u32,
    groups: Vec<(NodeId, Vec<i64>)>,
    slices: Vec<(i64, i64, NodeId)>,
}

/// A replayable capture of one launch-sequence window: its trace keys,
/// validity data (entry states + overlap-list lengths), and the full
/// expansion output (tasks, edges, copies, verdicts, distribution
/// plans) in window-relative form.
pub(crate) struct LaunchTrace {
    /// Per-op trace keys of the window (see [`trace_keys`]).
    keys: Vec<u64>,
    /// Every space the window's tasks directly touch, in first-touch
    /// order, with its overlap-list length at capture exit. Replay
    /// requires the current lengths to match: the lists are append-only,
    /// so equal length means equal contents — no overlapping space was
    /// registered since capture.
    direct: Vec<(IndexSpaceId, usize)>,
    /// Every space the window touches or overlaps, each validated and
    /// reapplied per its participation mode. Replay requires every
    /// member's entry check to pass, then writes exit states (full
    /// members) or splices reader tails (read-only members) instead of
    /// re-running the scan.
    members: Vec<TraceMember>,
    /// The captured ops.
    ops: Vec<TraceOp>,
    /// The captured tasks, op-major.
    tasks: TraceTasks,
    /// Reduction epochs the window opened (the epoch counter advances by
    /// this much on replay, keeping executor fill markers unique).
    epochs_opened: u32,
}

/// The trace recorder driving one expansion: rolling-window detection,
/// capture, validity checking, and replay.
pub(crate) struct Recorder {
    enabled: bool,
    stats: TraceReplayStats,
    marks: Vec<TraceMark>,
    /// Live traces, most recently used first.
    traces: Vec<LaunchTrace>,
}

impl Recorder {
    pub(crate) fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            stats: TraceReplayStats { enabled, ..TraceReplayStats::default() },
            marks: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Consume the recorder into its stats and marks; the traces die
    /// with the expansion that captured them.
    pub(crate) fn finish(self) -> (TraceReplayStats, Vec<TraceMark>) {
        (self.stats, self.marks)
    }

    /// Smallest period `p ≤ MAX_PERIOD` such that the `p` ops before `i`
    /// and the `p` ops starting at `i` carry identical trace keys — the
    /// signature of an iterative sequence entering its next repetition.
    pub(crate) fn detect(&self, i: usize, keys: &[u64]) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        for p in 1..=MAX_PERIOD {
            if p > i || i + p > keys.len() {
                break;
            }
            if keys[i - p..i] == keys[i..i + p] {
                return Some(p);
            }
        }
        None
    }

    /// Try to replay a stored trace at op `i`. Returns the number of ops
    /// spliced in on success. A trace whose keys match but whose entry
    /// state does not is invalidated (dropped, never replayed stale); a
    /// trace whose key sequence diverges mid-window — a partition,
    /// privilege, domain, functor, or sharding change in the loop body —
    /// is likewise invalidated the moment its first key reappears with a
    /// different continuation.
    pub(crate) fn try_replay(
        &mut self,
        xp: &mut Expander<'_>,
        i: usize,
        keys: &[u64],
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let pos = self.traces.iter().position(|tr| {
            let p = tr.keys.len();
            i + p <= keys.len() && keys[i..i + p] == tr.keys[..]
        });
        match pos {
            Some(idx) => {
                let tr = self.traces.remove(idx);
                if self.entry_matches(xp, &tr) {
                    // Replay it and move it to the front as the most
                    // recently used trace.
                    let p = tr.keys.len();
                    self.apply(xp, i, &tr);
                    self.stats.replayed += 1;
                    self.stats.analyses_skipped += p as u64;
                    self.stats.tasks_replayed += tr.tasks.point_idx.len() as u64;
                    self.marks.push(TraceMark {
                        op: i as u32,
                        len: p as u32,
                        kind: TraceMarkKind::Replayed,
                    });
                    self.traces.insert(0, tr);
                    Some(p)
                } else {
                    self.stats.invalidated += 1;
                    self.marks.push(TraceMark {
                        op: i as u32,
                        len: 1,
                        kind: TraceMarkKind::Invalidated,
                    });
                    None
                }
            }
            None => {
                // No full match: any trace whose *first* key matches op
                // `i` has had its continuation edited — drop it now so a
                // later partial coincidence can never replay it.
                let before = self.traces.len();
                self.traces.retain(|tr| tr.keys[0] != keys[i]);
                let dropped = (before - self.traces.len()) as u64;
                if dropped > 0 {
                    self.stats.invalidated += dropped;
                    self.marks.push(TraceMark {
                        op: i as u32,
                        len: dropped as u32,
                        kind: TraceMarkKind::Invalidated,
                    });
                }
                None
            }
        }
    }

    /// Capture ops `[i, i+p)` as a new trace while expanding them
    /// normally: snapshot the entry states, run the ordinary expansion
    /// and scans, snapshot the exit states, and store the whole window
    /// in window-relative form. Transparent by construction — the ops
    /// are materialized exactly as the non-recording path would.
    pub(crate) fn capture(&mut self, xp: &mut Expander<'_>, i: usize, p: usize, keys: &[u64]) {
        let tb = xp.table.len() as i64;
        let ob = i as i64;
        let eb = xp.oracle.next_epoch as i64;

        // Expand first (no oracle effects): we need the subspaces to know
        // which states to snapshot before any scan mutates them.
        for o in 0..p {
            xp.expand_op(i + o);
        }
        let task_lo = tb as usize;
        let task_hi = xp.table.len();

        // Directly touched spaces, first-touch order.
        let mut direct_spaces: Vec<IndexSpaceId> = Vec::new();
        let mut seen: IntSet<IndexSpaceId> = IntSet::default();
        for t in task_lo as TaskRef..task_hi as TaskRef {
            for &space in xp.table.subspaces(t) {
                if seen.insert(space) {
                    direct_spaces.push(space);
                }
            }
        }

        // Entry snapshot: the direct spaces plus everything currently on
        // their overlap lists. Spaces first registered *during* the scan
        // below join the member list afterwards with entry = None, which
        // is exact — an unregistered space never has state.
        let mut members: Vec<IndexSpaceId> = Vec::new();
        let mut member_seen: IntSet<IndexSpaceId> = IntSet::default();
        for &space in &direct_spaces {
            if member_seen.insert(space) {
                members.push(space);
            }
            for &o_space in xp.oracle.overlaps(space).unwrap_or_default() {
                if member_seen.insert(o_space) {
                    members.push(o_space);
                }
            }
        }
        let mut entries: IntMap<IndexSpaceId, SpaceState> = IntMap::default();
        for &space in &members {
            if let Some(s) = xp.oracle.state(space) {
                entries.insert(space, s.clone());
            }
        }

        // The ordinary dependence scans, with provenance recording on:
        // the recorder needs to know which member space produced each
        // run of edges and copies to encode their refs soundly.
        xp.oracle.prov = Some(Default::default());
        for o in 0..p {
            xp.scan_op(i + o);
        }
        let prov = xp.oracle.prov.take().expect("provenance enabled above");
        let mut clear_by_space: IntMap<IndexSpaceId, u64> = IntMap::default();
        for &(space, bits) in &prov.clears {
            *clear_by_space.entry(space).or_insert(0) |= bits;
        }

        // Exit member list: the scan may have registered new spaces and
        // appended to the direct lists; fold those in (entry = None).
        let mut direct: Vec<(IndexSpaceId, usize)> = Vec::with_capacity(direct_spaces.len());
        for &space in &direct_spaces {
            let list = xp.oracle.overlaps(space).expect("scan registered every direct space");
            for &o_space in list {
                if member_seen.insert(o_space) {
                    members.push(o_space);
                }
            }
            direct.push((space, list.len()));
        }
        // Classify every member by its window transition. A member
        // whose state changed by nothing but appends (plus the recorded
        // consumed clears) is validated absolutely; anything else is
        // validated in normalized (window-relative) form.
        let member_states: Vec<TraceMember> = members
            .iter()
            .map(|&space| {
                let entry_abs = entries.remove(&space);
                let exit_abs = xp.oracle.state(space).cloned();
                let e = entry_abs.clone().unwrap_or_default();
                let x = exit_abs.clone().unwrap_or_default();
                let clear = clear_by_space.get(&space).copied().unwrap_or(0);
                // What the window's clears leave of the entry's
                // consumption records: clears hit every record present,
                // and window pushes never merge into pre-window records
                // (they key on the pushing op's index).
                let surviving: Vec<(u32, u64)> = e
                    .consumed()
                    .iter()
                    .map(|&(o, m)| (o, m & !clear))
                    .filter(|&(_, m)| m != 0)
                    .collect();
                let (nr, nx, ne, nc) =
                    (e.readers.len(), e.reducers().len(), e.epochs().len(), surviving.len());
                let (xr, xx, xe, xc) = (&x.readers, x.reducers(), x.epochs(), x.consumed());
                let pure_append = e.writes == x.writes
                    && xr.len() >= nr
                    && xr[..nr] == e.readers[..]
                    && xr[nr..].iter().all(|&(t, _)| (t as i64) >= tb)
                    && xx.len() >= nx
                    && xx[..nx] == *e.reducers()
                    && xx[nx..].iter().all(|&(_, t, _, _)| (t as i64) >= tb)
                    && xe.len() >= ne
                    && xe[..ne] == *e.epochs()
                    && xe[ne..].iter().all(|&(_, _, ep)| (ep as i64) >= eb)
                    && xc.len() >= nc
                    && xc[..nc] == surviving[..]
                    && xc[nc..].iter().all(|&(o, _)| (o as i64) >= ob);
                if pure_append {
                    return TraceMember::Append {
                        space,
                        entry_existed: entry_abs.is_some(),
                        readers_tail: xr[nr..].iter().map(|&(t, m)| (t as i64 - tb, m)).collect(),
                        reducers_tail: xx[nx..]
                            .iter()
                            .map(|&(op, t, rq, m)| (op, t as i64 - tb, rq, m))
                            .collect(),
                        epochs_tail: xe[ne..]
                            .iter()
                            .map(|&(op, bits, ep)| (op, bits, ep as i64 - eb))
                            .collect(),
                        consumed_clear: clear,
                        consumed_tail: xc[nc..].iter().map(|&(o, m)| (o as i64 - ob, m)).collect(),
                        entry: e,
                    };
                }
                TraceMember::Full {
                    space,
                    entry: entry_abs.map(|s| normalize(&s, tb, ob, eb)),
                    exit: exit_abs.map(|s| normalize(&s, tb, ob, eb)),
                }
            })
            .collect();
        let member_index: IntMap<IndexSpaceId, u32> =
            members.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let is_append = |idx: u32| matches!(member_states[idx as usize], TraceMember::Append { .. });

        // Expansion output, refs encoded per the validity argument of
        // the member that produced each edge: window tasks and
        // full-member refs are window-relative, append-member refs are
        // absolute. If the provenance runs fail to tile a task's lists
        // exactly (which would indicate an edge of unknown origin), the
        // window is not captured — expansion already ran normally
        // above, so bailing costs only the memoization, and is reported.
        let encode = |t: TaskRef, append: bool| -> Ref {
            if (t as i64) >= tb || !append {
                Ref::Rel(t as i64 - tb)
            } else {
                Ref::Abs(t)
            }
        };
        let rel_task = |t: TaskRef| t as i64 - tb;
        let captured_tasks = (|| -> Option<TraceTasks> {
            // Group the provenance log per task, in push order.
            let mut runs_by_task: Vec<Vec<usize>> = vec![Vec::new(); task_hi - task_lo];
            for (ci, pe) in prov.consults.iter().enumerate() {
                if !member_index.contains_key(&pe.space) {
                    return None; // defensive: consulted space missing from members
                }
                runs_by_task[pe.task as usize - task_lo].push(ci);
            }
            let table = &xp.table;
            let window = task_lo as TaskRef..task_hi as TaskRef;
            let mut out = TraceTasks {
                point_idx: table.point_idx[task_lo..task_hi].to_vec(),
                owner: table.owner[task_lo..task_hi].to_vec(),
                subspaces: window.clone().flat_map(|t| table.subspaces(t)).copied().collect(),
                ..TraceTasks::default()
            };
            for t in window {
                let runs = &runs_by_task[t as usize - task_lo];
                let copy_total: usize =
                    runs.iter().map(|&ci| prov.consults[ci].copies as usize).sum();
                if copy_total != table.copies(t).len() {
                    return None;
                }
                // The final dep list is sorted and deduplicated, so the
                // per-consult runs cannot be sliced back positionally;
                // instead, map every dep *value* to the encoding of the
                // member that produced it. A value produced both by a
                // normalized member (relative pin) and an append member
                // (absolute pin) is ambiguous — the two pins can drift
                // apart — so such a window is not captured.
                let mut enc_map: IntMap<TaskRef, Ref> = IntMap::default();
                let mut cc = 0usize;
                for &ci in runs {
                    let pe = &prov.consults[ci];
                    let mi = member_index[&pe.space];
                    let append = is_append(mi);
                    for &d in &pe.deps {
                        let enc = encode(d, append);
                        match enc_map.entry(d) {
                            std::collections::hash_map::Entry::Vacant(v) => {
                                v.insert(enc);
                            }
                            std::collections::hash_map::Entry::Occupied(prev) => {
                                if std::mem::discriminant(prev.get())
                                    != std::mem::discriminant(&enc)
                                {
                                    return None;
                                }
                            }
                        }
                    }
                    let copies = &table.copies(t)[cc..cc + pe.copies as usize];
                    out.copies.items.extend(copies.iter().map(|c| (encode(c.from, append), *c)));
                    cc += pe.copies as usize;
                    if append {
                        out.consults.items.push(Consult {
                            member: mi,
                            mask: pe.mask,
                            privilege: pe.privilege,
                            consumed: pe.consumed,
                            fold_prefix: pe.fold_src.is_some_and(|r| (r as i64) < tb),
                        });
                    }
                }
                out.copies.close();
                out.consults.close();
                for d in table.deps(t) {
                    // An edge of unknown origin fails the capture.
                    out.deps.items.push(*enc_map.get(d)?);
                }
                out.deps.close();
                // Epoch ids a reduce requirement fills are pinned like
                // task refs: ids the window opened shift with it,
                // pre-window ids on an append member are pinned
                // absolutely by its exact epoch-entry check.
                if table.layout[table.op(t) as usize].fill.is_some() {
                    for (req_idx, &space) in table.subspaces(t).iter().enumerate() {
                        let append = member_index.get(&space).is_some_and(|&mi| is_append(mi));
                        out.fills.push_row(table.reduce_fill(t, req_idx).iter().map(|&(f, e)| {
                            let er = if (e as i64) >= eb || !append {
                                ERef::Rel(e as i64 - eb)
                            } else {
                                ERef::Abs(e)
                            };
                            (f, er)
                        }));
                    }
                }
            }
            Some(out)
        })();
        let Some(tasks) = captured_tasks else {
            self.stats.abandoned += 1;
            self.marks.push(TraceMark { op: i as u32, len: p as u32, kind: TraceMarkKind::Abandoned });
            return;
        };
        let ops: Vec<TraceOp> = (i..i + p)
            .map(|op_idx| {
                let (lo, hi) = xp.table.op_tasks[op_idx];
                let d = &xp.table.dist[op_idx];
                TraceOp {
                    safety: xp.table.safety[op_idx].clone(),
                    ntasks: hi - lo,
                    groups: d
                        .groups
                        .iter()
                        .map(|(n, ts)| (*n, ts.iter().map(|&t| rel_task(t)).collect()))
                        .collect(),
                    slices: d
                        .slices
                        .iter()
                        .map(|&(lo, hi, n)| (rel_task(lo), rel_task(hi), n))
                        .collect(),
                }
            })
            .collect();

        let trace = LaunchTrace {
            keys: keys[i..i + p].to_vec(),
            direct,
            members: member_states,
            ops,
            tasks,
            epochs_opened: (xp.oracle.next_epoch as i64 - eb) as u32,
        };
        // Replace any trace with the same key sequence, keep the rest,
        // newest first, bounded.
        self.traces.retain(|tr| tr.keys != trace.keys);
        self.traces.insert(0, trace);
        self.traces.truncate(MAX_TRACES);
        self.stats.captured += 1;
        self.marks.push(TraceMark { op: i as u32, len: p as u32, kind: TraceMarkKind::Captured });
    }

    /// Whether the oracle's current state matches the trace's captured
    /// entry exactly (up to the uniform window shift): same overlap-list
    /// lengths on every directly touched space, same normalized state on
    /// every member.
    fn entry_matches(&self, xp: &Expander<'_>, tr: &LaunchTrace) -> bool {
        let tb = xp.table.len() as i64;
        let ob = xp.next_op() as i64;
        let eb = xp.oracle.next_epoch as i64;
        for &(space, len) in &tr.direct {
            match xp.oracle.overlaps(space) {
                Some(list) if list.len() == len => {}
                _ => return false,
            }
        }
        // Per append member: the field union of reducers the current
        // state accumulated beyond the captured prefix, and of the
        // captured entry reducers themselves — inputs to the per-consult
        // flip guards below.
        let mut delta_red = vec![0u64; tr.members.len()];
        let mut entry_red = vec![0u64; tr.members.len()];
        for (mi, m) in tr.members.iter().enumerate() {
            match m {
                TraceMember::Full { space, entry, .. } => {
                    match (xp.oracle.state(*space), entry) {
                        (None, None) => {}
                        (Some(s), Some(ns)) => {
                            if normalize(s, tb, ob, eb) != *ns {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                TraceMember::Append { space, entry_existed, entry, .. } => {
                    // Absolute comparison: writes and open epochs
                    // exactly, captured readers and reducers as a
                    // prefix of the current lists, consumed field-union
                    // unchanged (the union is all any consult reads, and
                    // pre-window records all predate the threshold every
                    // window op filters on). Anything accumulated since
                    // capture is handled by delta edges at apply time.
                    let ok = match xp.oracle.state(*space) {
                        Some(s) if *entry_existed => {
                            let (nr, nx) = (entry.readers.len(), entry.reducers().len());
                            let captured_union =
                                entry.consumed().iter().fold(0u64, |acc, &(_, m)| acc | m);
                            let cur_union = s.consumed().iter().fold(0u64, |acc, &(_, m)| acc | m);
                            let ok = s.writes == entry.writes
                                && s.epochs() == entry.epochs()
                                && s.readers.len() >= nr
                                && s.readers[..nr] == entry.readers[..]
                                && s.reducers().len() >= nx
                                && s.reducers()[..nx] == *entry.reducers()
                                && cur_union == captured_union;
                            if ok {
                                delta_red[mi] =
                                    s.reducers()[nx..].iter().fold(0u64, |acc, r| acc | r.3);
                                entry_red[mi] =
                                    entry.reducers().iter().fold(0u64, |acc, r| acc | r.3);
                            }
                            ok
                        }
                        // No state at capture ⇒ no consultation of this
                        // space was recorded ⇒ replay is exact only if
                        // the state still looks consulted-empty.
                        Some(s) => {
                            s.writes.is_empty()
                                && s.readers.is_empty()
                                && s.reducers().is_empty()
                                && s.epochs().is_empty()
                                && s.consumed().is_empty()
                        }
                        None => !*entry_existed,
                    };
                    if !ok {
                        return false;
                    }
                }
            }
        }
        // Flip guards: a reducer accumulated since capture must not
        // change anything beyond the dependence edges apply() injects.
        // Two consult-level effects could: a fold copy the capture did
        // not record (or recorded from a source the delta would
        // preempt), and a write's consumption record whose push
        // condition the capture saw as false. Either flips observable
        // output, so the trace invalidates instead.
        for c in &tr.tasks.consults.items {
            let dm = delta_red[c.member as usize] & c.mask;
            if dm == 0 {
                continue;
            }
            match c.privilege {
                Privilege::Read | Privilege::ReadWrite => {
                    // A delta reducer with unconsumed shared bits
                    // would fold — only safe if the captured fold
                    // already came from a pre-window reducer, which
                    // the live scan iterates first.
                    if dm & !c.consumed != 0 && !c.fold_prefix {
                        return false;
                    }
                    if c.privilege == Privilege::ReadWrite && entry_red[c.member as usize] & c.mask == 0 {
                        return false;
                    }
                }
                Privilege::Write => {
                    // The consumption-record push keys on "any
                    // matching reducer": captured entry reducers
                    // already matching pins it true on both sides.
                    if entry_red[c.member as usize] & c.mask == 0 {
                        return false;
                    }
                }
                Privilege::Reduce(_) => {}
            }
        }
        true
    }

    /// Splice the trace into the expansion at op `i`: append its tasks,
    /// edges, copies, verdicts, and distribution plans to the table,
    /// shifted to the current bases, write the captured exit states into
    /// the oracle, and advance the epoch counter — everything the skipped
    /// analyses would have produced.
    fn apply(&self, xp: &mut Expander<'_>, i: usize, tr: &LaunchTrace) {
        let tb = xp.table.len() as i64;
        let ob = i as i64;
        let eb = xp.oracle.next_epoch as i64;
        let task = |t: i64| -> TaskRef { u32::try_from(t + tb).expect("replayed task ref in range") };
        let epoch = |e: i64| -> u32 { u32::try_from(e + eb).expect("replayed epoch id in range") };
        let op = |o: i64| -> u32 { u32::try_from(o + ob).expect("replayed op index in range") };
        let refv = |r: Ref| -> TaskRef {
            match r {
                Ref::Rel(v) => task(v),
                Ref::Abs(t) => t,
            }
        };

        // Readers and reducers each append member accumulated since
        // capture, snapshotted before the tails below extend them: the
        // live scan would have given the window's tasks dependence
        // edges on every one of them.
        type Delta = (Vec<(TaskRef, u64)>, Vec<ReduceRec>);
        let deltas: Vec<Option<Delta>> = tr
            .members
            .iter()
            .map(|m| match m {
                TraceMember::Append { space, entry, .. } => {
                    let (nr, nx) = (entry.readers.len(), entry.reducers().len());
                    let s = xp.oracle.state(*space);
                    Some((
                        s.map(|s| s.readers[nr..].to_vec()).unwrap_or_default(),
                        s.map(|s| s.reducers()[nx..].to_vec()).unwrap_or_default(),
                    ))
                }
                TraceMember::Full { .. } => None,
            })
            .collect();

        let s_tasks = std::time::Instant::now();
        let tt = &tr.tasks;
        let (mut at, mut sub_at, mut fill_at) = (0usize, 0usize, 0usize);
        for (o, top) in tr.ops.iter().enumerate() {
            let op_idx = i + o;
            let n = top.ntasks as usize;
            xp.push_layout(op_idx);
            xp.open_fills(op_idx);
            let table = &mut xp.table;
            let lo = table.len() as u32;
            let layout = table.layout[op_idx];
            table.op.extend(std::iter::repeat_n(op_idx as u32, n));
            table.point_idx.extend_from_slice(&tt.point_idx[at..at + n]);
            table.owner.extend_from_slice(&tt.owner[at..at + n]);
            table.subspaces.extend_from_slice(&tt.subspaces[sub_at..sub_at + n * layout.reqs]);
            sub_at += n * layout.reqs;
            for k in at..at + n {
                let start = table.deps.items.len();
                table.deps.items.extend(tt.deps.row(k).iter().map(|&d| refv(d)));
                // Delta edges: exactly what the live scan would add for
                // state accumulated since capture, per consult arm.
                for c in tt.consults.row(k) {
                    let Some((d_readers, d_reducers)) = &deltas[c.member as usize] else {
                        continue;
                    };
                    if !matches!(c.privilege, Privilege::Read) {
                        for &(r, rmask) in d_readers {
                            if rmask & c.mask != 0 {
                                table.deps.items.push(r);
                            }
                        }
                    }
                    for &(red_op, r, _, rmask) in d_reducers {
                        let wanted = match c.privilege {
                            Privilege::Reduce(op) => red_op != op,
                            _ => true,
                        };
                        if wanted && rmask & c.mask != 0 {
                            table.deps.items.push(r);
                        }
                    }
                }
                // The live scan sorts and deduplicates every task's dep
                // list; match it exactly (delta edges may duplicate
                // captured ones, and decoded refs must land in order).
                sort_dedup_tail(&mut table.deps.items, start);
                table.deps.close();
                let copies = tt.copies.row(k).iter();
                table.copies.push_row(copies.map(|&(from, c)| TaskCopy { from: refv(from), ..c }));
                if layout.fill.is_some() {
                    for _ in 0..layout.reqs {
                        table.fills.push_row(tt.fills.row(fill_at).iter().map(|&(f, e)| {
                            let id = match e {
                                ERef::Rel(v) => epoch(v),
                                ERef::Abs(id) => id,
                            };
                            (f, id)
                        }));
                        fill_at += 1;
                    }
                }
            }
            at += n;
            table.op_tasks.push((lo, table.len() as u32));
            table.safety.push(top.safety.clone());
            table.dist.push(OpDist {
                groups: top
                    .groups
                    .iter()
                    .map(|(n, ts)| (*n, ts.iter().map(|&t| task(t)).collect()))
                    .collect(),
                slices: top.slices.iter().map(|&(lo, hi, n)| (task(lo), task(hi), n)).collect(),
            });
            table.replayed_ops.push(true);
        }

        // Splicing task instances is output materialization, not
        // analysis — charge it to the same profile bucket as the fresh
        // path's point loop so the two are comparable.
        xp.prof.materialize_ns += s_tasks.elapsed().as_nanos() as u64;
        for m in &tr.members {
            match m {
                TraceMember::Full { space, exit, .. } => {
                    if let Some(ns) = exit {
                        *xp.oracle.state_or_default(*space) = denormalize(ns, tb, ob, eb);
                    }
                    // exit None ⇒ entry None ⇒ the state never existed
                    // during the window; the entry check guarantees it
                    // is absent now too.
                }
                TraceMember::Append {
                    space,
                    readers_tail,
                    reducers_tail,
                    epochs_tail,
                    consumed_clear,
                    consumed_tail,
                    ..
                } => {
                    // Reapply the window's accumulation on top of
                    // whatever has gathered since capture — exactly
                    // what the scan would do: clears hit every
                    // consumption record present (including the delta),
                    // then the window's own entries append.
                    let untouched = *consumed_clear == 0
                        && readers_tail.is_empty()
                        && reducers_tail.is_empty()
                        && epochs_tail.is_empty()
                        && consumed_tail.is_empty();
                    if untouched {
                        continue;
                    }
                    let st = xp.oracle.state_or_default(*space);
                    if let Some(red) = st.reduce_mut().filter(|_| *consumed_clear != 0) {
                        for (_, m) in &mut red.consumed {
                            *m &= !consumed_clear;
                        }
                        red.consumed.retain(|(_, m)| *m != 0);
                    }
                    st.readers.extend(readers_tail.iter().map(|&(t, m)| (task(t), m)));
                    if !(reducers_tail.is_empty() && epochs_tail.is_empty() && consumed_tail.is_empty()) {
                        let red = st.reduce_or_default();
                        red.reducers.extend(reducers_tail.iter().map(|&(o, t, rq, m)| (o, task(t), rq, m)));
                        red.epochs.extend(epochs_tail.iter().map(|&(o, bits, e)| (o, bits, epoch(e))));
                        red.consumed.extend(consumed_tail.iter().map(|&(o, m)| (op(o), m)));
                    }
                }
            }
        }
        xp.oracle.next_epoch += tr.epochs_opened;
    }
}

/// Per-op trace keys: [`launch_signature`] extended with the region tree
/// and field space of every requirement and the identity of the sharding
/// functor (interned to a small deterministic id; the raw pointer never
/// reaches the key). Two ops share a key only when every input the
/// expansion of that op reads is identical — so equal key windows imply
/// equal task shapes, subspaces, verdicts, and owners.
pub(crate) fn trace_keys(program: &Program) -> Vec<u64> {
    let mut intern: HashMap<usize, u64> = HashMap::new();
    program
        .ops
        .iter()
        .map(|op| {
            let launch = op.launch();
            let mut h = DefaultHasher::new();
            launch_signature(launch, program).hash(&mut h);
            let shard_id = match &launch.shard {
                None => 0u64,
                Some(f) => {
                    let ptr = sharding_identity(f);
                    let next = intern.len() as u64 + 1;
                    *intern.entry(ptr).or_insert(next)
                }
            };
            shard_id.hash(&mut h);
            for r in &launch.reqs {
                r.tree.hash(&mut h);
                r.field_space.hash(&mut h);
            }
            h.finish()
        })
        .collect()
}
