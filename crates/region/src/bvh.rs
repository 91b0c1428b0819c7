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

    /// Center coordinate along dimension `d` (doubled, to stay integral).
    fn center2(&self, d: usize) -> i64 {
        self.lo.coord(d) + self.hi.coord(d)
    }
}

enum Node {
    Leaf {
        /// Range of the level's `items` covered by this leaf.
        start: u32,
        len: u32,
        bbox: BBox,
    },
    Inner {
        left: u32,
        right: u32,
        bbox: BBox,
    },
}

/// One static sub-tree of the level structure: items of one rank in the
/// tree proper, the (rare) other ranks linear-scanned.
struct Level<T> {
    /// The level's items, reordered by the build.
    items: Vec<(BBox, T)>,
    /// Items `[0, tree_count)` are covered by `nodes`; the rest are
    /// other-rank strays scanned linearly.
    tree_count: usize,
    nodes: Vec<Node>,
    root: Option<u32>,
}

const LEAF_SIZE: usize = 8;
/// Inserts buffered before they are merged into the level structure.
const PENDING_LIMIT: usize = 64;

impl<T: Copy> Level<T> {
    fn build(items: Vec<(BBox, T)>) -> Self {
        let mut lvl = Level { items, tree_count: 0, nodes: Vec::new(), root: None };
        if lvl.items.is_empty() {
            return lvl;
        }
        // Mixed-rank content can't share one tree; keep same-rank items in
        // the tree and scan the (rare) other ranks linearly.
        let major_dim = lvl.items[0].0.dim();
        lvl.items.sort_by_key(|(b, _)| usize::from(b.dim() != major_dim));
        lvl.tree_count = lvl.items.iter().take_while(|(b, _)| b.dim() == major_dim).count();
        let root = lvl.build_range(0, lvl.tree_count);
        lvl.root = Some(root);
        lvl
    }

    fn build_range(&mut self, start: usize, len: usize) -> u32 {
        let range = &mut self.items[start..start + len];
        // The range is one rank and a point's unused trailing coordinates
        // are zero, so all three lanes fold unconditionally.
        let d = range[0].0.dim();
        let (mut lo, mut hi) = ([i64::MAX; 3], [i64::MIN; 3]);
        for (b, _) in range.iter() {
            for k in 0..3 {
                lo[k] = lo[k].min(b.lo.coord(k));
                hi[k] = hi[k].max(b.hi.coord(k));
            }
        }
        let bbox = BBox::new(DomainPoint::from_slice(&lo[..d]), DomainPoint::from_slice(&hi[..d]));
        if len <= LEAF_SIZE {
            self.nodes.push(Node::Leaf { start: start as u32, len: len as u32, bbox });
            return (self.nodes.len() - 1) as u32;
        }
        // Split along the widest dimension at the median center.
        let dim = (0..bbox.dim())
            .max_by_key(|&d| bbox.hi.coord(d) - bbox.lo.coord(d))
            .expect("rank >= 1");
        range.sort_by_key(|(b, _)| b.center2(dim));
        let mid = len / 2;
        let left = self.build_range(start, mid);
        let right = self.build_range(start + mid, len - mid);
        let node = Node::Inner { left, right, bbox };
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    fn query(&self, query: &BBox, out: &mut Vec<T>) {
        if let Some(root) = self.root {
            self.query_node(root, query, out);
        }
        for (bbox, payload) in &self.items[self.tree_count..] {
            if bbox.overlaps(query) {
                out.push(*payload);
            }
        }
    }

    fn query_node(&self, node: u32, query: &BBox, out: &mut Vec<T>) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, len, bbox } => {
                if bbox.overlaps(query) {
                    for (b, payload) in &self.items[*start as usize..(*start + *len) as usize] {
                        if b.overlaps(query) {
                            out.push(*payload);
                        }
                    }
                }
            }
            Node::Inner { left, right, bbox } => {
                if bbox.overlaps(query) {
                    self.query_node(*left, query, out);
                    self.query_node(*right, query, out);
                }
            }
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
        let mut items = std::mem::take(&mut self.pending);
        let mut i = 0;
        loop {
            if i == self.levels.len() {
                self.levels.push(Level::build(items));
                break;
            }
            if self.levels[i].items.is_empty() {
                self.levels[i] = Level::build(items);
                break;
            }
            let lower = std::mem::replace(&mut self.levels[i], Level::build(Vec::new()));
            items.extend(lower.items);
            i += 1;
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
pub fn coverage_boxes(domain: &il_geometry::Domain) -> Vec<BBox> {
    if domain.is_empty() {
        return Vec::new();
    }
    if let il_geometry::Domain::Sparse { points, .. } = domain {
        if points.len() > 1 {
            let mut pts: Vec<DomainPoint> = points.to_vec();
            pts.sort_by_key(|p| p.coord(0));
            // Split indices by gap width (descending, then position for
            // determinism), keep the widest few.
            let mut gaps: Vec<(i64, usize)> = (1..pts.len())
                .filter_map(|i| {
                    let g = pts[i].coord(0) - pts[i - 1].coord(0);
                    (g > 1).then_some((g, i))
                })
                .collect();
            gaps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            gaps.truncate(MAX_COVERAGE_BOXES - 1);
            let mut splits: Vec<usize> = gaps.into_iter().map(|(_, i)| i).collect();
            splits.sort_unstable();
            splits.push(pts.len());
            let dim = pts[0].dim();
            let mut boxes = Vec::with_capacity(splits.len());
            let mut start = 0;
            for end in splits {
                let run = &pts[start..end];
                let lo: Vec<i64> =
                    (0..dim).map(|d| run.iter().map(|p| p.coord(d)).min().unwrap()).collect();
                let hi: Vec<i64> =
                    (0..dim).map(|d| run.iter().map(|p| p.coord(d)).max().unwrap()).collect();
                boxes.push(BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi)));
                start = end;
            }
            return boxes;
        }
    }
    let (lo, hi) = domain.bounds();
    vec![BBox::new(lo, hi)]
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
            set.insert(b.clone(), i);
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

    /// The level build as it was before the one-pass box loop: a node's
    /// box folded pairwise through a rank-generic, allocating merge. Kept
    /// as the reference the build is compared against.
    fn reference_range<T: Copy>(lvl: &mut Level<T>, start: usize, len: usize) -> u32 {
        let merge = |a: BBox, b: BBox| {
            let d = a.dim();
            let lo: Vec<i64> = (0..d).map(|k| a.lo.coord(k).min(b.lo.coord(k))).collect();
            let hi: Vec<i64> = (0..d).map(|k| a.hi.coord(k).max(b.hi.coord(k))).collect();
            BBox::new(DomainPoint::from_slice(&lo), DomainPoint::from_slice(&hi))
        };
        let bbox = lvl.items[start..start + len].iter().map(|(b, _)| *b).reduce(merge).unwrap();
        if len <= LEAF_SIZE {
            lvl.nodes.push(Node::Leaf { start: start as u32, len: len as u32, bbox });
            return (lvl.nodes.len() - 1) as u32;
        }
        let dim = (0..bbox.dim()).max_by_key(|&d| bbox.hi.coord(d) - bbox.lo.coord(d)).unwrap();
        lvl.items[start..start + len].sort_by_key(|(b, _)| b.center2(dim));
        let mid = len / 2;
        let left = reference_range(lvl, start, mid);
        let right = reference_range(lvl, start + mid, len - mid);
        lvl.nodes.push(Node::Inner { left, right, bbox });
        (lvl.nodes.len() - 1) as u32
    }

    /// [`BvhSet`]'s carry and query over levels built by
    /// [`reference_range`].
    struct ReferenceSet {
        levels: Vec<Level<u32>>,
        pending: Vec<(BBox, u32)>,
    }

    impl ReferenceSet {
        fn build(mut items: Vec<(BBox, u32)>) -> Level<u32> {
            let major = items[0].0.dim();
            items.sort_by_key(|(b, _)| usize::from(b.dim() != major));
            let tree_count = items.iter().take_while(|(b, _)| b.dim() == major).count();
            let mut lvl = Level { items, tree_count, nodes: Vec::new(), root: None };
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
                self.levels[i] = Level::build(Vec::new());
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

    /// Query order decides overlap-list order in the dependence oracle,
    /// which decides copy order: the build must return the same payloads
    /// as the reference *in the same order*, not merely the same set.
    #[test]
    fn build_matches_the_merge_fold_reference_in_query_order() {
        let mut rng = il_testkit::SplitMix64::new(0xB0C5);
        let mut draw = |n: u64| (rng.next_u64() % n) as i64;
        for rank in 1..=3usize {
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
                        let lo: Vec<i64> = (0..rank).map(|_| draw(400) - 200).collect();
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
                    assert_eq!(got, want, "rank {rank}, after {} inserts", i + 1);
                    assert!(!got.is_empty(), "a stored box overlaps itself");
                }
            }
            assert!(set.levels.len() >= 5, "rank {rank}: only {} levels", set.levels.len());
        }
    }

    #[test]
    fn coverage_boxes_cluster_sparse_domains() {
        use il_geometry::Domain;
        // Two tight clusters far apart: one wide bbox would overlap
        // everything in between; the decomposition must split them.
        let mut pts: Vec<DomainPoint> =
            (0..6).map(|i| DomainPoint::new1(i)).collect();
        pts.extend((0..6).map(|i| DomainPoint::new1(1_000_000 + i)));
        let boxes = coverage_boxes(&Domain::sparse(pts.clone()));
        assert!(boxes.len() >= 2 && boxes.len() <= MAX_COVERAGE_BOXES);
        // Every point is covered, and no box spans the gap.
        for p in &pts {
            let probe = BBox::new(p.clone(), p.clone());
            assert!(boxes.iter().any(|b| b.overlaps(&probe)), "{p:?} uncovered");
        }
        let mid = BBox::new(DomainPoint::new1(500_000), DomainPoint::new1(500_000));
        assert!(boxes.iter().all(|b| !b.overlaps(&mid)), "a box spans the gap");
        // Deterministic: same input, same decomposition.
        assert_eq!(boxes, coverage_boxes(&Domain::sparse(pts)));
        // Empty domains decompose to nothing.
        let empty = Domain::Rect1(il_geometry::Rect::new1(5, 4));
        assert!(coverage_boxes(&empty).is_empty());
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
