//! A bounding-volume hierarchy over subregion bounding boxes.
//!
//! "Legion uses a distributed bounding volume hierarchy to perform this
//! check in logarithmic time with respect to partition size" (§5): the
//! physical analysis must find, among all sub-collections touched so far,
//! the ones overlapping a new access. [`BvhSet`] provides that query:
//! items (bounding boxes with payloads) are inserted incrementally; a
//! static median-split BVH is rebuilt lazily when enough inserts
//! accumulate, keeping amortized insert cost O(log n) and query cost
//! O(log n + k).

use il_geometry::DomainPoint;

/// A rank-erased bounding box (inclusive), rank 1–3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BBox {
    /// Lower corner.
    pub lo: DomainPoint,
    /// Upper corner.
    pub hi: DomainPoint,
}

impl BBox {
    /// Construct from corners.
    ///
    /// # Panics
    /// Panics when ranks differ.
    pub fn new(lo: DomainPoint, hi: DomainPoint) -> Self {
        assert_eq!(lo.dim(), hi.dim(), "bbox corner ranks differ");
        BBox { lo, hi }
    }

    /// Rank of the box.
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// True iff the boxes share at least one point (same-rank only;
    /// different ranks never overlap).
    pub fn overlaps(&self, other: &BBox) -> bool {
        if self.dim() != other.dim() {
            return false;
        }
        (0..self.dim()).all(|d| {
            self.lo.coord(d) <= other.hi.coord(d) && other.lo.coord(d) <= self.hi.coord(d)
        })
    }
}

/// A node of a level's tree. Its box is stored as bare corners: every
/// tree item of a level has the level's rank, and a point's unused
/// trailing coordinates are zero, so three lanes compare correctly for
/// any rank.
struct Node {
    lo: [i64; 3],
    hi: [i64; 3],
    /// Leaf: its first item. Inner: its left child.
    a: u32,
    /// Leaf: [`LEAF`] | its item count. Inner: its right child.
    b: u32,
}

/// Marks [`Node::b`] as a leaf's item count.
const LEAF: u32 = 1 << 31;

/// A tree item: its box as bare corners (see [`Node`]) and its payload.
struct Item<T> {
    lo: [i64; 3],
    hi: [i64; 3],
    payload: T,
}

/// The corners of `b` in three lanes.
fn corners(b: &BBox) -> ([i64; 3], [i64; 3]) {
    (std::array::from_fn(|k| b.lo.coord(k)), std::array::from_fn(|k| b.hi.coord(k)))
}

/// Whether two same-rank boxes given as corners share a point.
#[inline]
fn corners_overlap(lo: &[i64; 3], hi: &[i64; 3], qlo: &[i64; 3], qhi: &[i64; 3]) -> bool {
    (0..3).all(|k| lo[k] <= qhi[k] && qlo[k] <= hi[k])
}

/// One static sub-tree of the level structure: items of one rank in the
/// tree proper, the (rare) other ranks linear-scanned.
struct Level<T> {
    /// Rank of every item in `items`.
    rank: usize,
    /// The tree's items, reordered by the build.
    items: Vec<Item<T>>,
    /// Other-rank items, in insertion order, scanned linearly.
    strays: Vec<(BBox, T)>,
    /// The tree, children before parents: the root is the last node.
    nodes: Vec<Node>,
}

const LEAF_SIZE: usize = 8;
/// Inserts buffered before they are merged into the level structure.
const PENDING_LIMIT: usize = 64;

/// Nodes a tree over `len` items has.
fn node_count(len: usize) -> usize {
    if len <= LEAF_SIZE {
        1
    } else {
        1 + node_count(len / 2) + node_count(len - len / 2)
    }
}

impl<T: Copy> Level<T> {
    fn empty() -> Self {
        Level { rank: 0, items: Vec::new(), strays: Vec::new(), nodes: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty() && self.strays.is_empty()
    }

    /// Build a level over `pending` followed by every item of `lower`, in
    /// that order. Mixed-rank content can't share one tree: the items of
    /// the first item's rank go in the tree, the rest are scanned
    /// linearly, each group keeping its order in that sequence. The tree's
    /// arrays are allocated to their exact length.
    fn build(pending: Vec<(BBox, T)>, lower: Vec<Level<T>>) -> Self {
        let total = pending.len() + lower.iter().map(|l| l.items.len() + l.strays.len()).sum::<usize>();
        let mut lvl =
            Level { rank: pending[0].0.dim(), items: Vec::with_capacity(total), strays: Vec::new(), nodes: Vec::new() };
        let rank = lvl.rank;
        for (b, payload) in pending {
            lvl.add(b, payload);
        }
        for l in lower {
            if l.rank == rank {
                lvl.items.extend(l.items);
            } else {
                let d = l.rank;
                for it in l.items {
                    let (lo, hi) = (DomainPoint::from_slice(&it.lo[..d]), DomainPoint::from_slice(&it.hi[..d]));
                    lvl.add(BBox::new(lo, hi), it.payload);
                }
            }
            for (b, payload) in l.strays {
                lvl.add(b, payload);
            }
        }
        if !lvl.strays.is_empty() {
            lvl.items.shrink_to_fit();
        }
        lvl.nodes.reserve_exact(node_count(lvl.items.len()));
        lvl.build_range(0, lvl.items.len());
        lvl
    }

    /// Append an item to the tree's items if it has the level's rank, to
    /// the strays if not.
    fn add(&mut self, b: BBox, payload: T) {
        if b.dim() == self.rank {
            let (lo, hi) = corners(&b);
            self.items.push(Item { lo, hi, payload });
        } else {
            self.strays.push((b, payload));
        }
    }

    fn build_range(&mut self, start: usize, len: usize) -> u32 {
        let range = &mut self.items[start..start + len];
        let (mut lo, mut hi) = ([i64::MAX; 3], [i64::MIN; 3]);
        for it in range.iter() {
            for k in 0..3 {
                lo[k] = lo[k].min(it.lo[k]);
                hi[k] = hi[k].max(it.hi[k]);
            }
        }
        if len <= LEAF_SIZE {
            self.nodes.push(Node { lo, hi, a: start as u32, b: LEAF | len as u32 });
            return (self.nodes.len() - 1) as u32;
        }
        // Split along the widest dimension at the median center (the
        // last of equally wide dimensions).
        let dim = (0..self.rank).max_by_key(|&d| hi[d] - lo[d]).expect("rank >= 1");
        range.sort_by_key(|it| it.lo[dim] + it.hi[dim]);
        let mid = len / 2;
        let left = self.build_range(start, mid);
        let right = self.build_range(start + mid, len - mid);
        self.nodes.push(Node { lo, hi, a: left, b: right });
        (self.nodes.len() - 1) as u32
    }

    fn query(&self, query: &BBox, out: &mut Vec<T>) {
        if query.dim() == self.rank && !self.nodes.is_empty() {
            let (qlo, qhi) = corners(query);
            self.query_node(self.nodes.len() as u32 - 1, &qlo, &qhi, out);
        }
        for (bbox, payload) in &self.strays {
            if bbox.overlaps(query) {
                out.push(*payload);
            }
        }
    }

    fn query_node(&self, node: u32, qlo: &[i64; 3], qhi: &[i64; 3], out: &mut Vec<T>) {
        let n = &self.nodes[node as usize];
        if !corners_overlap(&n.lo, &n.hi, qlo, qhi) {
            return;
        }
        if n.b & LEAF != 0 {
            let start = n.a as usize;
            for it in &self.items[start..start + (n.b & !LEAF) as usize] {
                if corners_overlap(&it.lo, &it.hi, qlo, qhi) {
                    out.push(it.payload);
                }
            }
        } else {
            self.query_node(n.a, qlo, qhi, out);
            self.query_node(n.b, qlo, qhi, out);
        }
    }
}

/// An incrementally-filled BVH set with payloads of type `T`.
///
/// Dynamized with the Bentley–Saxe logarithmic method: static sub-trees
/// of geometrically growing sizes, merged binary-counter style as
/// inserts accumulate. A naive "rebuild the one tree every K inserts"
/// policy costs Θ(n²/K · log n) to fill incrementally — measurably
/// quadratic once an app registers 10⁵+ subregions — while the level
/// structure amortizes to O(log² n) per insert and keeps queries at
/// O(log² n + k).
pub struct BvhSet<T> {
    /// Occupied levels, in carry order (level i holds ~`PENDING_LIMIT ·
    /// 2^i` items or is empty).
    levels: Vec<Level<T>>,
    /// Items inserted since the last carry (linear-scanned by queries).
    pending: Vec<(BBox, T)>,
    len: usize,
}

impl<T: Copy> BvhSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        BvhSet { levels: Vec::new(), pending: Vec::new(), len: 0 }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item; merges into the level structure once enough
    /// inserts accumulate.
    pub fn insert(&mut self, bbox: BBox, payload: T) {
        self.pending.push((bbox, payload));
        self.len += 1;
        if self.pending.len() >= PENDING_LIMIT {
            self.carry();
        }
    }

    /// Merge the pending buffer into the first empty level, folding in
    /// every occupied level below it (the binary-counter carry).
    fn carry(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        let i = self.levels.iter().position(Level::is_empty).unwrap_or(self.levels.len());
        let lower: Vec<Level<T>> = self.levels[..i].iter_mut().map(|l| std::mem::replace(l, Level::empty())).collect();
        let built = Level::build(pending, lower);
        if i == self.levels.len() {
            self.levels.push(built);
        } else {
            self.levels[i] = built;
        }
    }

    /// Collect payloads of all items whose boxes overlap `query`.
    pub fn query(&self, query: &BBox, out: &mut Vec<T>) {
        for level in &self.levels {
            level.query(query, out);
        }
        for (bbox, payload) in &self.pending {
            if bbox.overlaps(query) {
                out.push(*payload);
            }
        }
    }
}

impl<T: Copy> Default for BvhSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Boxes ≥ the number of runs force adjacent-run merging (bounds BVH
/// fan-out per sparse domain).
pub const MAX_COVERAGE_BOXES: usize = 8;

/// The BVH boxes a domain is indexed and queried under. A rect domain is
/// its own box. A sparse domain's bounding box can span nearly the whole
/// tree (a ghost set holding a far hub window *and* a local neighbor),
/// which would make everything in between a bbox candidate — so split it
/// at the [`MAX_COVERAGE_BOXES`]` - 1` widest first-coordinate gaps into
/// tight cluster boxes instead. The boxes jointly cover every point, so
/// no genuine overlap is lost; anything the big box would have hit
/// between clusters was an exact-test reject anyway.
///
/// The boxes replace the contents of `out`, so a caller decomposing many
/// domains reuses one buffer; box corners are built on the stack, and a
/// sparse point list is copied only when it is not already in
/// first-coordinate order.
pub fn coverage_boxes(domain: &il_geometry::Domain, out: &mut Vec<BBox>) {
    out.clear();
    if domain.is_empty() {
        return;
    }
    if let il_geometry::Domain::Sparse(s) = domain {
        let points = s.points();
        if points.len() > 1 {
            // Runs are cut in first-coordinate order; a list already in
            // that order (the usual case) is read in place.
            let sorted;
            let pts: &[DomainPoint] = if points.is_sorted_by_key(|p| p.coord(0)) {
                points
            } else {
                let mut v = points.to_vec();
                v.sort_by_key(|p| p.coord(0));
                sorted = v;
                &sorted
            };
            // The widest first-coordinate gaps, widest first and the
            // earlier position first among equals, capped; a later gap
            // enters only by being strictly wider than the narrowest kept.
            const CUTS: usize = MAX_COVERAGE_BOXES - 1;
            let mut cuts = [(0i64, 0usize); CUTS];
            let mut n = 0;
            for i in 1..pts.len() {
                let g = pts[i].coord(0) - pts[i - 1].coord(0);
                if g <= 1 || (n == CUTS && cuts[CUTS - 1].0 >= g) {
                    continue;
                }
                let mut j = n.min(CUTS - 1);
                n = (n + 1).min(CUTS);
                while j > 0 && cuts[j - 1].0 < g {
                    cuts[j] = cuts[j - 1];
                    j -= 1;
                }
                cuts[j] = (g, i);
            }
            let mut ends = [0usize; MAX_COVERAGE_BOXES];
            for (end, &(_, i)) in ends.iter_mut().zip(&cuts[..n]) {
                *end = i;
            }
            ends[..n].sort_unstable();
            ends[n] = pts.len();
            let dim = pts[0].dim();
            let mut start = 0;
            for &end in &ends[..=n] {
                let mut lo = [i64::MAX; il_geometry::MAX_DIM];
                let mut hi = [i64::MIN; il_geometry::MAX_DIM];
                for p in &pts[start..end] {
                    for d in 0..dim {
                        lo[d] = lo[d].min(p.coord(d));
                        hi[d] = hi[d].max(p.coord(d));
                    }
                }
                let (lo, hi) = (DomainPoint::from_slice(&lo[..dim]), DomainPoint::from_slice(&hi[..dim]));
                out.push(BBox::new(lo, hi));
                start = end;
            }
            return;
        }
    }
    let (lo, hi) = domain.bounds();
    out.push(BBox::new(lo, hi));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb1(lo: i64, hi: i64) -> BBox {
        BBox::new(DomainPoint::new1(lo), DomainPoint::new1(hi))
    }

    #[test]
    fn insert_and_query_small() {
        let mut set = BvhSet::new();
        set.insert(bb1(0, 4), 'a');
        set.insert(bb1(5, 9), 'b');
        set.insert(bb1(3, 6), 'c');
        let mut out = Vec::new();
        set.query(&bb1(4, 4), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec!['a', 'c']);
    }

    #[test]
    fn query_after_rebuild() {
        let mut set = BvhSet::new();
        for i in 0..200i64 {
            set.insert(bb1(i * 10, i * 10 + 5), i);
        }
        assert!(set.len() == 200);
        let mut out = Vec::new();
        set.query(&bb1(42, 103), &mut out);
        out.sort_unstable();
        // Boxes [40,45], [50,55], ..., [100,105] overlap [42,103].
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn mixed_rank_items() {
        let mut set = BvhSet::new();
        for i in 0..100i64 {
            set.insert(bb1(i, i), i);
        }
        set.insert(
            BBox::new(DomainPoint::new2(0, 0), DomainPoint::new2(9, 9)),
            1000,
        );
        let mut out = Vec::new();
        set.query(&bb1(50, 50), &mut out);
        assert_eq!(out, vec![50]);
        out.clear();
        set.query(
            &BBox::new(DomainPoint::new2(5, 5), DomainPoint::new2(5, 5)),
            &mut out,
        );
        assert_eq!(out, vec![1000]);
    }

    #[test]
    fn empty_set() {
        let set: BvhSet<u32> = BvhSet::new();
        let mut out = Vec::new();
        set.query(&bb1(0, 10), &mut out);
        assert!(out.is_empty());
        assert!(set.is_empty());
    }

    #[test]
    fn incremental_queries_agree_with_linear_scan() {
        // Interleave inserts and queries so every Bentley–Saxe shape is
        // exercised: partially filled pending buffer, single level, and
        // multi-level states after several binary-counter carries.
        let mut set = BvhSet::new();
        let mut items: Vec<(BBox, i64)> = Vec::new();
        let mut x = 7i64;
        for i in 0..600i64 {
            // Deterministic LCG spread with varied widths.
            x = (x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)) >> 33;
            let lo = x.rem_euclid(10_000);
            let b = bb1(lo, lo + i % 17);
            set.insert(b, i);
            items.push((b, i));
            if i % 37 == 0 {
                let probe = bb1(lo - 20, lo + 20);
                let mut got = Vec::new();
                set.query(&probe, &mut got);
                got.sort_unstable();
                let mut want: Vec<i64> = items
                    .iter()
                    .filter(|(bb, _)| bb.overlaps(&probe))
                    .map(|&(_, v)| v)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "after {} inserts", i + 1);
            }
        }
        assert_eq!(set.len(), 600);
    }

    /// A node of the reference level: a full [`BBox`] per node.
    enum RefNode {
        Leaf { start: u32, len: u32, bbox: BBox },
        Inner { left: u32, right: u32, bbox: BBox },
    }

    /// The level as it was before items and nodes stored bare corners:
    /// `(BBox, payload)` items, the tree's items first and the other-rank
    /// strays after them, and a node's box folded pairwise through a
    /// rank-generic, allocating merge. Kept as the reference the compact
    /// level is compared against.
    struct RefLevel {
        items: Vec<(BBox, u32)>,
        tree_count: usize,
        nodes: Vec<RefNode>,
        root: Option<u32>,
    }

    fn reference_range(lvl: &mut RefLevel, start: usize, len: usize) -> u32 {
        let merge = |a: BBox, b: BBox| {
            let d = a.dim();
            let lo: Vec<i64> = (0..d).map(|k| a.lo.coord(k).min(b.lo.coord(k))).collect();
            let hi: Vec<i64> = (0..d).map(|k| a.hi.coord(k).max(b.hi.coord(k))).collect();
            BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi))
        };
        let bbox = lvl.items[start..start + len].iter().map(|(b, _)| *b).reduce(merge).unwrap();
        if len <= LEAF_SIZE {
            lvl.nodes.push(RefNode::Leaf { start: start as u32, len: len as u32, bbox });
            return (lvl.nodes.len() - 1) as u32;
        }
        let dim = (0..bbox.dim()).max_by_key(|&d| bbox.hi.coord(d) - bbox.lo.coord(d)).unwrap();
        lvl.items[start..start + len].sort_by_key(|(b, _)| b.lo.coord(dim) + b.hi.coord(dim));
        let mid = len / 2;
        let left = reference_range(lvl, start, mid);
        let right = reference_range(lvl, start + mid, len - mid);
        lvl.nodes.push(RefNode::Inner { left, right, bbox });
        (lvl.nodes.len() - 1) as u32
    }

    impl RefLevel {
        fn query(&self, query: &BBox, out: &mut Vec<u32>) {
            if let Some(root) = self.root {
                self.query_node(root, query, out);
            }
            out.extend(self.items[self.tree_count..].iter().filter(|(b, _)| b.overlaps(query)).map(|&(_, v)| v));
        }

        fn query_node(&self, node: u32, query: &BBox, out: &mut Vec<u32>) {
            match &self.nodes[node as usize] {
                RefNode::Leaf { start, len, bbox } => {
                    if bbox.overlaps(query) {
                        let items = &self.items[*start as usize..(*start + *len) as usize];
                        out.extend(items.iter().filter(|(b, _)| b.overlaps(query)).map(|&(_, v)| v));
                    }
                }
                RefNode::Inner { left, right, bbox } => {
                    if bbox.overlaps(query) {
                        self.query_node(*left, query, out);
                        self.query_node(*right, query, out);
                    }
                }
            }
        }
    }

    /// [`BvhSet`]'s carry and query over [`RefLevel`]s.
    struct ReferenceSet {
        levels: Vec<RefLevel>,
        pending: Vec<(BBox, u32)>,
    }

    impl ReferenceSet {
        fn build(mut items: Vec<(BBox, u32)>) -> RefLevel {
            let major = items[0].0.dim();
            items.sort_by_key(|(b, _)| usize::from(b.dim() != major));
            let tree_count = items.iter().take_while(|(b, _)| b.dim() == major).count();
            let mut lvl = RefLevel { items, tree_count, nodes: Vec::new(), root: None };
            lvl.root = Some(reference_range(&mut lvl, 0, tree_count));
            lvl
        }

        fn insert(&mut self, bbox: BBox, payload: u32) {
            self.pending.push((bbox, payload));
            if self.pending.len() < PENDING_LIMIT {
                return;
            }
            let mut items = std::mem::take(&mut self.pending);
            let mut i = 0;
            while i < self.levels.len() && !self.levels[i].items.is_empty() {
                items.extend(std::mem::take(&mut self.levels[i].items));
                self.levels[i] = RefLevel { items: Vec::new(), tree_count: 0, nodes: Vec::new(), root: None };
                i += 1;
            }
            let built = Self::build(items);
            if i == self.levels.len() {
                self.levels.push(built);
            } else {
                self.levels[i] = built;
            }
        }

        fn query(&self, query: &BBox, out: &mut Vec<u32>) {
            for level in &self.levels {
                level.query(query, out);
            }
            out.extend(self.pending.iter().filter(|(b, _)| b.overlaps(query)).map(|&(_, v)| v));
        }
    }

    /// Insert `16 · PENDING_LIMIT` boxes into a [`BvhSet`] and the
    /// reference, drawing each box's rank with `rank`, and compare their
    /// query results, order included, every 13 inserts. Returns the set.
    fn compare_with_reference(seed: u64, mut rank: impl FnMut(u64) -> usize) -> BvhSet<u32> {
        let mut rng = il_testkit::SplitMix64::new(seed);
        let mut draw = |n: u64| (rng.next_u64() % n) as i64;
        let mut set = BvhSet::new();
        let mut reference = ReferenceSet { levels: Vec::new(), pending: Vec::new() };
        let mut boxes: Vec<BBox> = Vec::new();
        // 16 carries: levels 0..=4 fill and fold into one another.
        for i in 0..(16 * PENDING_LIMIT) as u32 {
            let b = match draw(8) {
                // An exact duplicate of an earlier box.
                0 if !boxes.is_empty() => boxes[draw(boxes.len() as u64) as usize],
                // Same centre as an earlier box, different extent.
                1 if !boxes.is_empty() => {
                    let o = boxes[draw(boxes.len() as u64) as usize];
                    let grow = draw(4);
                    let lo: Vec<i64> = o.lo.coords().iter().map(|c| c - grow).collect();
                    let hi: Vec<i64> = o.hi.coords().iter().map(|c| c + grow).collect();
                    BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi))
                }
                _ => {
                    let lo: Vec<i64> = (0..rank(u64::from(i))).map(|_| draw(400) - 200).collect();
                    let hi: Vec<i64> = lo.iter().map(|c| c + draw(30)).collect();
                    BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi))
                }
            };
            boxes.push(b);
            set.insert(b, i);
            reference.insert(b, i);
            if i % 13 == 0 {
                let probe = boxes[draw(boxes.len() as u64) as usize];
                let (mut got, mut want) = (Vec::new(), Vec::new());
                set.query(&probe, &mut got);
                reference.query(&probe, &mut want);
                assert_eq!(got, want, "seed {seed:#x}, after {} inserts", i + 1);
                assert!(!got.is_empty(), "a stored box overlaps itself");
            }
        }
        set
    }

    /// Query order decides overlap-list order in the dependence oracle,
    /// which decides copy order: the build must return the same payloads
    /// as the reference *in the same order*, not merely the same set.
    #[test]
    fn build_matches_the_merge_fold_reference_in_query_order() {
        for rank in 1..=3usize {
            let set = compare_with_reference(0xB0C5, |_| rank);
            assert!(set.levels.len() >= 5, "rank {rank}: only {} levels", set.levels.len());
        }
    }

    /// The same with mixed ranks: runs of one rank alternate with single
    /// boxes of another, so a level's tree items turn into the next
    /// level's strays and back as carries fold levels of different ranks.
    #[test]
    fn mixed_rank_levels_match_the_reference_in_query_order() {
        for seed in [0x31, 0x32, 0x33] {
            let mut rng = il_testkit::SplitMix64::new(seed);
            let mut run_rank = 1usize;
            let set = compare_with_reference(seed, |i| {
                if i % 97 == 0 {
                    run_rank = 1 + (rng.next_u64() % 3) as usize;
                }
                if rng.next_u64() % 10 == 0 { 1 + (rng.next_u64() % 3) as usize } else { run_rank }
            });
            let strays: usize = set.levels.iter().map(|l| l.strays.len()).sum();
            let ranks: std::collections::BTreeSet<usize> = set.levels.iter().map(|l| l.rank).collect();
            assert!(strays > 0 && ranks.len() > 1, "seed {seed:#x}: {strays} strays, level ranks {ranks:?}");
        }
    }

    #[test]
    fn coverage_boxes_cluster_sparse_domains() {
        use il_geometry::Domain;
        // Two tight clusters far apart: one wide bbox would overlap
        // everything in between; the decomposition must split them.
        let mut pts: Vec<DomainPoint> =
            (0..6).map(DomainPoint::new1).collect();
        pts.extend((0..6).map(|i| DomainPoint::new1(1_000_000 + i)));
        let boxes = boxes_of(&Domain::sparse(pts.clone()));
        assert!(boxes.len() >= 2 && boxes.len() <= MAX_COVERAGE_BOXES);
        // Every point is covered, and no box spans the gap.
        for p in &pts {
            let probe = BBox::new(*p, *p);
            assert!(boxes.iter().any(|b| b.overlaps(&probe)), "{p:?} uncovered");
        }
        let mid = BBox::new(DomainPoint::new1(500_000), DomainPoint::new1(500_000));
        assert!(boxes.iter().all(|b| !b.overlaps(&mid)), "a box spans the gap");
        // Deterministic: same input, same decomposition.
        assert_eq!(boxes, boxes_of(&Domain::sparse(pts)));
        // Empty domains decompose to nothing.
        let empty = Domain::Rect1(il_geometry::Rect::new1(5, 4));
        assert!(boxes_of(&empty).is_empty());
    }

    fn boxes_of(domain: &il_geometry::Domain) -> Vec<BBox> {
        let mut out = vec![bb1(0, 0)];
        coverage_boxes(domain, &mut out);
        out
    }

    /// The decomposition by sorting every gap and keeping the widest
    /// `MAX_COVERAGE_BOXES - 1` (earlier first among equals).
    fn reference_boxes(points: &[DomainPoint]) -> Vec<BBox> {
        let mut pts = points.to_vec();
        pts.sort_by_key(|p| p.coord(0));
        let mut gaps: Vec<(i64, usize)> = (1..pts.len())
            .map(|i| (pts[i].coord(0) - pts[i - 1].coord(0), i))
            .filter(|&(g, _)| g > 1)
            .collect();
        gaps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        gaps.truncate(MAX_COVERAGE_BOXES - 1);
        let mut splits: Vec<usize> = gaps.into_iter().map(|(_, i)| i).collect();
        splits.sort_unstable();
        splits.push(pts.len());
        let dim = pts[0].dim();
        let mut start = 0;
        let mut boxes = Vec::new();
        for end in splits {
            let run = &pts[start..end];
            let lo: Vec<i64> = (0..dim).map(|d| run.iter().map(|p| p.coord(d)).min().unwrap()).collect();
            let hi: Vec<i64> = (0..dim).map(|d| run.iter().map(|p| p.coord(d)).max().unwrap()).collect();
            boxes.push(BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi)));
            start = end;
        }
        boxes
    }

    /// The capped gap selection equals sorting every gap, on point lists
    /// in and out of first-coordinate order, with many equal-width gaps.
    #[test]
    fn coverage_boxes_equal_the_sort_every_gap_reference() {
        use il_geometry::Domain;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..500 {
            // At most 41 points, drawn from at least 60 distinct ones.
            let n = 2 + next(40) as usize;
            let dim = 1 + case % 2;
            let mut seen = std::collections::HashSet::new();
            let mut pts = Vec::new();
            while pts.len() < n {
                let x = next(if case % 3 == 0 { 60 } else { 400 }) as i64;
                let p = if dim == 1 { DomainPoint::new1(x) } else { DomainPoint::new2(x, next(5) as i64) };
                if seen.insert(p) {
                    pts.push(p);
                }
            }
            if case % 2 == 0 {
                pts.sort_by_key(|p| p.coord(0));
            }
            assert_eq!(boxes_of(&Domain::sparse(pts.clone())), reference_boxes(&pts), "case {case}: {pts:?}");
        }
    }

    #[test]
    fn bbox_overlap_rules() {
        assert!(bb1(0, 5).overlaps(&bb1(5, 9)));
        assert!(!bb1(0, 4).overlaps(&bb1(5, 9)));
        let a = BBox::new(DomainPoint::new2(0, 0), DomainPoint::new2(3, 3));
        let b = BBox::new(DomainPoint::new2(3, 3), DomainPoint::new2(6, 6));
        let c = BBox::new(DomainPoint::new2(4, 0), DomainPoint::new2(6, 2));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&bb1(0, 3))); // rank mismatch
    }
}
