//! The completion fan-out as a table.
//!
//! When a task finishes, every consumer gets one credit per dependence
//! edge plus one per incoming copy from that producer, batched into one
//! message per consumer-owner node. All of that is a function of the
//! expansion alone, so it is computed once here instead of once per
//! completion: [`ExpandedProgram::succs`] rows come out of the expansion
//! ordered by (owner, consumer) — each owner's run *is* one message —
//! and this table adds the two things a row does not carry: a dense
//! task → owner map to find the run boundaries, and a per-producer CSR of
//! the (sparse) edges that carry copies. A credit message is then a
//! fixed-size descriptor `(from, lo, hi, xlo)` into the shared table,
//! exactly as a slice batch is a descriptor into the distribution plan.

use crate::depgraph::{owner_order, ExpandedProgram, TaskRef};
use il_machine::NodeId;

/// A dependence edge that also carries data: the consumer's extra
/// credits (one per copy from this producer) and the bytes they move.
#[derive(Clone, Copy, Default)]
struct CopyCredit {
    consumer: TaskRef,
    extra: u32,
    bytes: u64,
}

/// One owner's run of a producer's successor row: the unit one credit
/// message carries. `lo..hi` indexes the row; `xlo` is where the run's
/// copy-carrying edges start in the table (opaque to callers — hand it
/// back to [`CreditTable::edges`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditGroup {
    /// Session-local node owning every consumer of the run.
    pub owner: NodeId,
    /// First row index of the run.
    pub lo: u32,
    /// One past the last row index of the run.
    pub hi: u32,
    /// Table cursor at the start of the run.
    pub xlo: u32,
    /// Message size: one notification per edge plus the copied bytes.
    pub bytes: u64,
}

/// Precomputed credit fan-out of an expansion (see the module docs).
pub struct CreditTable {
    /// Owner of every task: `tasks[t].owner`, densely.
    owner_of: Vec<u32>,
    /// Rank of every task among its owner's tasks (task order) — the
    /// index of its slot in the owner's dense executor state.
    rank_of: Vec<u32>,
    /// Tasks owned per node.
    owned: Vec<u32>,
    /// Per-producer offsets into `extra` (`len() + 1` entries).
    xoff: Vec<u32>,
    /// Copy-carrying edges, grouped by producer, each group in its
    /// successor row's (owner, consumer) order.
    extra: Vec<CopyCredit>,
}

/// Credits one edge pays: one for the dependence, plus its copies.
#[inline]
fn credits_of(entry: Option<&CopyCredit>) -> u32 {
    1 + entry.map_or(0, |e| e.extra)
}

/// Cursor over one producer's copy-carrying edges, advanced in lockstep
/// with a walk of its successor row.
struct Cursor<'a> {
    extra: &'a [CopyCredit],
    at: u32,
}

impl<'a> Cursor<'a> {
    /// The table entry of the edge to `to`, if it carries copies. `to`
    /// must advance in row order.
    #[inline]
    fn take(&mut self, to: TaskRef) -> Option<&'a CopyCredit> {
        let (first, rest) = self.extra.split_first()?;
        if first.consumer != to {
            return None;
        }
        self.extra = rest;
        self.at += 1;
        Some(first)
    }
}

impl CreditTable {
    /// Build the table for `expanded` on a `nodes`-node session:
    /// O(tasks + copies), a fixed number of allocations.
    pub fn build(expanded: &ExpandedProgram, nodes: usize) -> CreditTable {
        let n = expanded.len();
        let (order, owned) = owner_order(&expanded.tasks, nodes);
        let mut owner_of = vec![0u32; n];
        let mut rank_of = vec![0u32; n];
        let mut rank = 0u32;
        for (i, &t) in order.iter().enumerate() {
            let owner = expanded.tasks[t as usize].owner as u32;
            if i > 0 && owner_of[order[i - 1] as usize] != owner {
                rank = 0;
            }
            owner_of[t as usize] = owner;
            rank_of[t as usize] = rank;
            rank += 1;
        }

        // Copy-carrying edges: count copies per producer (an upper bound
        // — several copies on one edge merge), fill by walking consumers
        // in (owner, task) order so each producer's entries land in its
        // row's order, then close the gaps the merges left.
        let copies: usize = expanded.copies.iter().map(Vec::len).sum();
        assert!(copies <= u32::MAX as usize, "credit table cursor is 32-bit: {copies} copies");
        let mut xoff = vec![0u32; n + 1];
        for c in expanded.copies.iter().flatten() {
            xoff[c.from as usize + 1] += 1;
        }
        for p in 0..n {
            xoff[p + 1] += xoff[p];
        }
        let mut fill: Vec<u32> = xoff[..n].to_vec();
        let mut extra = vec![CopyCredit::default(); copies];
        for &t in &order {
            for c in &expanded.copies[t as usize] {
                let p = c.from as usize;
                let slot = fill[p] as usize;
                if slot > xoff[p] as usize && extra[slot - 1].consumer == t {
                    extra[slot - 1].extra += 1;
                    extra[slot - 1].bytes += c.bytes;
                } else {
                    extra[slot] = CopyCredit { consumer: t, extra: 1, bytes: c.bytes };
                    fill[p] += 1;
                }
            }
        }
        let mut w = 0u32;
        for p in 0..n {
            let (lo, hi) = (xoff[p] as usize, fill[p] as usize);
            extra.copy_within(lo..hi, w as usize);
            xoff[p] = w;
            w += (hi - lo) as u32;
        }
        xoff[n] = w;
        extra.truncate(w as usize);
        extra.shrink_to_fit();
        CreditTable { owner_of, rank_of, owned, xoff, extra }
    }

    /// Owner of `task` (session-local node id).
    #[inline]
    pub(crate) fn owner_of(&self, task: TaskRef) -> NodeId {
        self.owner_of[task as usize] as NodeId
    }

    /// Rank of `task` among its owner's tasks.
    #[inline]
    pub(crate) fn rank_of(&self, task: TaskRef) -> usize {
        self.rank_of[task as usize] as usize
    }

    /// Tasks `node` owns.
    #[inline]
    pub(crate) fn owned(&self, node: NodeId) -> usize {
        self.owned[node] as usize
    }

    fn cursor(&self, from: TaskRef, at: u32) -> Cursor<'_> {
        Cursor { extra: &self.extra[at as usize..self.xoff[from as usize + 1] as usize], at }
    }

    /// The credit messages `from`'s completion sends, in send order
    /// (ascending owner). `row` is `succs[from]`; `notify_bytes` is the
    /// per-edge notification size.
    pub fn groups<'a>(
        &'a self,
        row: &'a [TaskRef],
        from: TaskRef,
        notify_bytes: u64,
    ) -> impl Iterator<Item = CreditGroup> + 'a {
        let mut cursor = self.cursor(from, self.xoff[from as usize]);
        let mut lo = 0usize;
        std::iter::from_fn(move || {
            let owner = self.owner_of[*row.get(lo)? as usize];
            let xlo = cursor.at;
            let mut hi = lo;
            let mut bytes = 0u64;
            while hi < row.len() && self.owner_of[row[hi] as usize] == owner {
                bytes += notify_bytes + cursor.take(row[hi]).map_or(0, |e| e.bytes);
                hi += 1;
            }
            let group =
                CreditGroup { owner: owner as NodeId, lo: lo as u32, hi: hi as u32, xlo, bytes };
            lo = hi;
            Some(group)
        })
    }

    /// `(consumer, credits)` for the edges `row[lo..hi]` of `from`, where
    /// `xlo` is the table cursor at `lo` (as [`CreditGroup`] reports it).
    pub fn edges<'a>(
        &'a self,
        row: &'a [TaskRef],
        from: TaskRef,
        lo: u32,
        hi: u32,
        xlo: u32,
    ) -> impl Iterator<Item = (TaskRef, u32)> + 'a {
        let mut cursor = self.cursor(from, xlo);
        row[lo as usize..hi as usize].iter().map(move |&to| (to, credits_of(cursor.take(to))))
    }

    /// Credits the single edge `from → to` pays — the same table entry a
    /// row walk reads, found by search (for the recovery path, which
    /// settles edges one at a time).
    pub fn edge_credits(&self, from: TaskRef, to: TaskRef) -> u32 {
        let entries = self.cursor(from, self.xoff[from as usize]).extra;
        let key = |t: TaskRef| (self.owner_of[t as usize], t);
        let hit = entries.binary_search_by_key(&key(to), |e| key(e.consumer)).ok();
        credits_of(hit.map(|i| &entries[i]))
    }

    /// Static twin of the run-time credit-conservation audit: the credits
    /// the table pays into every consumer must sum to its initial wait
    /// count.
    ///
    /// # Panics
    /// On the first consumer whose incoming credits disagree.
    pub(crate) fn audit(&self, succs: &[Vec<TaskRef>], waits_init: &[u32]) {
        let mut into = vec![0u32; waits_init.len()];
        for (from, row) in succs.iter().enumerate() {
            let from = from as TaskRef;
            for (to, credits) in self.edges(row, from, 0, row.len() as u32, self.xoff[from as usize]) {
                into[to as usize] += credits;
            }
        }
        for (t, (&got, &want)) in into.iter().zip(waits_init).enumerate() {
            assert_eq!(got, want, "credit table pays task {t} {got} credits against {want} waits");
        }
    }
}

/// A dense numbering of the dependence edges into each node's tasks, the
/// index of the recovery path's per-edge paid bits: row `deps[t]` takes,
/// in order, slots `base[t]..` of its owner's range `0..owned(owner)`.
pub struct EdgeSlots {
    base: Vec<u32>,
    owned: Vec<u32>,
}

impl EdgeSlots {
    /// Number the edges of `expanded`, whose owners `table` records.
    pub fn build(expanded: &ExpandedProgram, table: &CreditTable) -> EdgeSlots {
        let mut owned = vec![0u32; table.owned.len()];
        let mut base = Vec::with_capacity(expanded.len());
        for (row, &owner) in expanded.deps.iter().zip(&table.owner_of) {
            let next = &mut owned[owner as usize];
            base.push(*next);
            *next = next.checked_add(row.len() as u32).expect("edge slots are 32-bit");
        }
        EdgeSlots { base, owned }
    }

    /// Edges into `node`'s tasks.
    pub fn owned(&self, node: NodeId) -> usize {
        self.owned[node] as usize
    }

    /// Slot of the edge from `deps[to][pos]`.
    pub(crate) fn at(&self, to: TaskRef, pos: usize) -> usize {
        self.base[to as usize] as usize + pos
    }

    /// Slot of the edge `from → to`; `None` if `from` is not in `deps[to]`.
    pub fn slot(&self, deps: &[Vec<TaskRef>], from: TaskRef, to: TaskRef) -> Option<usize> {
        Some(self.at(to, deps[to as usize].binary_search(&from).ok()?))
    }
}
