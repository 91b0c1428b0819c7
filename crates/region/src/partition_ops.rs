//! Partitioning operators.
//!
//! The paper leaves the method of determining partitions unspecified (§2),
//! pointing at language-based dependent partitioning and graph
//! partitioners. These operators cover what the three evaluation
//! applications need: equal block partitions (disjoint), halo/ghost
//! partitions (aliased), and explicit colorings (e.g. from a graph
//! partitioner, as in Circuit).

use crate::forest::{Disjointness, PartitionError, RegionForest};
use crate::ids::{IndexPartitionId, IndexSpaceId};
use il_geometry::{Domain, DomainPoint, Point, Rect};

/// The tiling every shaped operator shares, for a dense domain of rank
/// `tiles.len()`: see [`grid`]. Any other domain is `WrongShape`.
fn tiling(
    domain: &Domain,
    tiles: &[usize],
    radius: i64,
) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
    match (domain, tiles) {
        (Domain::Rect1(r), &[a]) => Ok(grid(r, [a], radius)),
        (Domain::Rect2(r), &[a, b]) => Ok(grid(r, [a, b], radius)),
        (Domain::Rect3(r), &[a, b, c]) => Ok(grid(r, [a, b, c], radius)),
        _ => Err(PartitionError::WrongShape {
            expected: ["dense 1-D", "dense 2-D", "dense 3-D"][tiles.len() - 1],
            found: format!("{domain:?}"),
        }),
    }
}

/// Split each dimension of `bounds` into `tiles[d]` pieces, take the
/// product with dimension 0 outermost, and grow each tile by `radius`
/// clamped to `bounds` (0 gives the block partition). Colors are tile
/// coordinates; the color space is sized by `tiles` even where a
/// dimension shorter than its tile count yields fewer pieces, and an
/// empty rectangle gets no colors.
fn grid<const N: usize>(
    bounds: &Rect<N>,
    tiles: [usize; N],
    radius: i64,
) -> (Domain, Vec<(DomainPoint, Domain)>)
where
    Rect<N>: Into<Domain>,
{
    let pieces: [Vec<Rect<N>>; N] = std::array::from_fn(|d| bounds.split_along(d, tiles[d]));
    let count = pieces.iter().map(Vec::len).product();
    let coloring = (0..count)
        .map(|mut i| {
            // `i` in mixed radix, the last dimension fastest.
            let (mut color, mut tile) = (Point::<N>::ZERO, *bounds);
            for d in (0..N).rev() {
                let k = i % pieces[d].len();
                i /= pieces[d].len();
                color[d] = k as i64;
                tile.lo[d] = (pieces[d][k].lo[d] - radius).max(bounds.lo[d]);
                tile.hi[d] = (pieces[d][k].hi[d] + radius).min(bounds.hi[d]);
            }
            (color.into(), tile.into())
        })
        .collect();
    let last = Point(tiles.map(|t| t as i64 - 1));
    (Rect::new(Point::ZERO, last).into(), coloring)
}

/// Partition a 1-D space into `parts` nearly-equal disjoint blocks, colored
/// `0..parts`.
pub fn equal_partition_1d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    parts: usize,
) -> IndexPartitionId {
    try_equal_partition_1d(forest, space, parts)
        .unwrap_or_else(|e| panic!("equal_partition_1d requires a dense 1-D space: {e}"))
}

/// Fallible [`equal_partition_1d`]: wrong-shaped spaces yield an error
/// instead of a panic.
pub fn try_equal_partition_1d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    parts: usize,
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) = tiling(forest.domain(space), &[parts], 0)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Disjoint)
}

/// Replace an existing partition **in place** with an equal 1-D split of
/// its parent space into `parts` blocks — the refine/coarsen step of the
/// AMR workload. The partition keeps its id; retained colors keep their
/// subspace ids. Like every replacement it happens while the program is
/// built, so its ops see only the new coloring.
pub fn replace_equal_partition_1d(
    forest: &mut RegionForest,
    partition: IndexPartitionId,
    parts: usize,
) -> Result<(), PartitionError> {
    let parent = forest.partition(partition).parent;
    let (color_space, coloring) = tiling(forest.domain(parent), &[parts], 0)?;
    forest.replace_partition(partition, color_space, coloring, Disjointness::Disjoint)
}

/// Partition a 2-D space into a `tiles.0 × tiles.1` grid of disjoint
/// blocks, colored by 2-D tile coordinates.
pub fn block_partition_2d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize),
) -> IndexPartitionId {
    try_block_partition_2d(forest, space, tiles)
        .unwrap_or_else(|e| panic!("block_partition_2d requires a dense 2-D space: {e}"))
}

/// Fallible [`block_partition_2d`].
pub fn try_block_partition_2d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize),
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) = tiling(forest.domain(space), &[tiles.0, tiles.1], 0)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Disjoint)
}

/// Partition a 3-D space into a grid of disjoint blocks colored by 3-D
/// tile coordinates.
pub fn block_partition_3d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize, usize),
) -> IndexPartitionId {
    try_block_partition_3d(forest, space, tiles)
        .unwrap_or_else(|e| panic!("block_partition_3d requires a dense 3-D space: {e}"))
}

/// Fallible [`block_partition_3d`].
pub fn try_block_partition_3d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize, usize),
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) = tiling(forest.domain(space), &[tiles.0, tiles.1, tiles.2], 0)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Disjoint)
}

/// Aliased halo partition of a 2-D space: the tile of `base` at each color
/// grown by `radius` in every direction (clamped to the space bounds).
/// Used for the ghost/exchange regions of the stencil (§6.1).
pub fn halo_partition_2d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize),
    radius: i64,
) -> IndexPartitionId {
    try_halo_partition_2d(forest, space, tiles, radius)
        .unwrap_or_else(|e| panic!("halo_partition_2d requires a dense 2-D space: {e}"))
}

/// Fallible [`halo_partition_2d`].
pub fn try_halo_partition_2d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize),
    radius: i64,
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) = tiling(forest.domain(space), &[tiles.0, tiles.1], radius)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Aliased)
}

/// Aliased halo partition of a 3-D space: each tile of the block grid
/// grown by `radius` in every direction (clamped to the space bounds).
/// Used for the fluid exchange regions of Soleil-mini.
pub fn halo_partition_3d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize, usize),
    radius: i64,
) -> IndexPartitionId {
    try_halo_partition_3d(forest, space, tiles, radius)
        .unwrap_or_else(|e| panic!("halo_partition_3d requires a dense 3-D space: {e}"))
}

/// Fallible [`halo_partition_3d`].
pub fn try_halo_partition_3d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    tiles: (usize, usize, usize),
    radius: i64,
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) =
        tiling(forest.domain(space), &[tiles.0, tiles.1, tiles.2], radius)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Aliased)
}

/// Replace an existing aliased halo partition in place with a halo
/// coloring matching a new tile grid (the AMR exchange partition follows
/// the block partition through refine/coarsen). Like every replacement
/// it happens while the program is built, so its ops see only the new
/// coloring.
pub fn replace_halo_partition_1d(
    forest: &mut RegionForest,
    partition: IndexPartitionId,
    parts: usize,
    radius: i64,
) -> Result<(), PartitionError> {
    let parent = forest.partition(partition).parent;
    let (color_space, coloring) = tiling(forest.domain(parent), &[parts], radius)?;
    forest.replace_partition(partition, color_space, coloring, Disjointness::Aliased)
}

/// Aliased halo partition of a 1-D space: each equal block grown by
/// `radius` on both sides (clamped to the space bounds). The exchange
/// partition of the 1-D AMR workload.
pub fn halo_partition_1d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    parts: usize,
    radius: i64,
) -> IndexPartitionId {
    try_halo_partition_1d(forest, space, parts, radius)
        .unwrap_or_else(|e| panic!("halo_partition_1d requires a dense 1-D space: {e}"))
}

/// Fallible [`halo_partition_1d`].
pub fn try_halo_partition_1d(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    parts: usize,
    radius: i64,
) -> Result<IndexPartitionId, PartitionError> {
    let (color_space, coloring) = tiling(forest.domain(space), &[parts], radius)?;
    forest.try_create_partition(space, color_space, coloring, Disjointness::Aliased)
}

/// Partition by an explicit coloring (e.g. the output of a graph
/// partitioner); disjointness is verified.
pub fn coloring_partition(
    forest: &mut RegionForest,
    space: IndexSpaceId,
    color_space: Domain,
    coloring: Vec<(DomainPoint, Domain)>,
) -> IndexPartitionId {
    forest.create_partition(space, color_space, coloring, Disjointness::Compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldSpaceDesc;

    fn forest() -> RegionForest {
        let mut f = RegionForest::new();
        f.create_field_space(FieldSpaceDesc::new());
        f
    }

    #[test]
    fn equal_1d() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(10));
        let p = equal_partition_1d(&mut f, s, 3);
        assert!(f.is_disjoint(p));
        let sizes: Vec<u64> = (0..3)
            .map(|c| f.domain(f.subspace(p, DomainPoint::new1(c))).volume())
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn blocks_2d_cover() {
        let mut f = forest();
        let s = f.create_index_space(Domain::Rect2(Rect::new2((0, 0), (7, 11))));
        let p = block_partition_2d(&mut f, s, (2, 3));
        assert!(f.is_disjoint(p));
        let total: u64 = f
            .partition(p)
            .children
            .values()
            .map(|sid| f.domain(sid).volume())
            .sum();
        assert_eq!(total, 96);
        let tile = f.subspace(p, DomainPoint::new2(1, 2));
        assert_eq!(f.domain(tile), &Domain::Rect2(Rect::new2((4, 8), (7, 11))));
    }

    #[test]
    fn blocks_3d_cover() {
        let mut f = forest();
        let s = f.create_index_space(Domain::Rect3(Rect::new3((0, 0, 0), (3, 3, 3))));
        let p = block_partition_3d(&mut f, s, (2, 2, 2));
        assert!(f.is_disjoint(p));
        assert_eq!(f.partition(p).children.len(), 8);
        let total: u64 = f
            .partition(p)
            .children
            .values()
            .map(|sid| f.domain(sid).volume())
            .sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn halo_is_aliased_and_grown() {
        let mut f = forest();
        let s = f.create_index_space(Domain::Rect2(Rect::new2((0, 0), (9, 9))));
        let interior = block_partition_2d(&mut f, s, (2, 2));
        let halo = halo_partition_2d(&mut f, s, (2, 2), 1);
        assert!(!f.is_disjoint(halo));
        let tile = f.subspace(interior, DomainPoint::new2(0, 0));
        assert_eq!(f.domain(tile), &Domain::Rect2(Rect::new2((0, 0), (4, 4))));
        let ghost = f.subspace(halo, DomainPoint::new2(0, 0));
        // Clamped at the low edges, grown at the high edges.
        assert_eq!(f.domain(ghost), &Domain::Rect2(Rect::new2((0, 0), (5, 5))));
        let ghost11 = f.subspace(halo, DomainPoint::new2(1, 1));
        assert_eq!(f.domain(ghost11), &Domain::Rect2(Rect::new2((4, 4), (9, 9))));
    }

    // --- regression tests: one per former panic site -------------------
    // Each of the five shaped operators used to panic outright when handed
    // a space of the wrong rank (or a sparse space). The fallible variants
    // must report `PartitionError::WrongShape` instead, leaving the forest
    // untouched.

    #[test]
    fn equal_1d_rejects_wrong_rank_gracefully() {
        let mut f = forest();
        let s2 = f.create_index_space(Domain::Rect2(Rect::new2((0, 0), (3, 3))));
        let spaces_before = f.num_spaces();
        let err = try_equal_partition_1d(&mut f, s2, 2).unwrap_err();
        assert!(matches!(err, PartitionError::WrongShape { expected: "dense 1-D", .. }));
        assert_eq!(f.num_spaces(), spaces_before, "failed op must not leak spaces");
        assert_eq!(f.num_partitions(), 0);
    }

    #[test]
    fn blocks_2d_rejects_wrong_rank_gracefully() {
        let mut f = forest();
        let s1 = f.create_index_space(Domain::range(16));
        let err = try_block_partition_2d(&mut f, s1, (2, 2)).unwrap_err();
        assert!(matches!(err, PartitionError::WrongShape { expected: "dense 2-D", .. }));
        assert_eq!(f.num_partitions(), 0);
    }

    #[test]
    fn blocks_3d_rejects_wrong_rank_gracefully() {
        let mut f = forest();
        let s2 = f.create_index_space(Domain::Rect2(Rect::new2((0, 0), (7, 7))));
        let err = try_block_partition_3d(&mut f, s2, (2, 2, 2)).unwrap_err();
        assert!(matches!(err, PartitionError::WrongShape { expected: "dense 3-D", .. }));
        assert_eq!(f.num_partitions(), 0);
    }

    #[test]
    fn halo_2d_rejects_sparse_space_gracefully() {
        let mut f = forest();
        let sparse = f.create_index_space(Domain::sparse(vec![
            DomainPoint::new2(0, 0),
            DomainPoint::new2(3, 3),
        ]));
        let err = try_halo_partition_2d(&mut f, sparse, (2, 2), 1).unwrap_err();
        assert!(matches!(err, PartitionError::WrongShape { expected: "dense 2-D", .. }));
        assert_eq!(f.num_partitions(), 0);
    }

    #[test]
    fn halo_3d_rejects_wrong_rank_gracefully() {
        let mut f = forest();
        let s1 = f.create_index_space(Domain::range(64));
        let err = try_halo_partition_3d(&mut f, s1, (2, 2, 2), 1).unwrap_err();
        assert!(matches!(err, PartitionError::WrongShape { expected: "dense 3-D", .. }));
        assert_eq!(f.num_partitions(), 0);
    }

    // --- partition replacement (AMR refine/coarsen) --------------------

    #[test]
    fn replace_refines_in_place_and_keeps_retained_ids() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(48));
        let p = equal_partition_1d(&mut f, s, 4);
        let old_ids: Vec<_> = (0..4)
            .map(|c| f.subspace(p, DomainPoint::new1(c)))
            .collect();

        // Refine 4 → 8: the first four colors keep their subspace ids.
        replace_equal_partition_1d(&mut f, p, 8).unwrap();
        assert_eq!(f.partition(p).children.len(), 8);
        assert!(f.is_disjoint(p));
        for (c, &old) in old_ids.iter().enumerate() {
            assert_eq!(f.subspace(p, DomainPoint::new1(c as i64)), old);
            // ... but with refined (6-cell) bounds now.
            assert_eq!(f.domain(old).volume(), 6);
        }
        let total: u64 = f
            .partition(p)
            .children
            .values()
            .map(|sid| f.domain(sid).volume())
            .sum();
        assert_eq!(total, 48, "refined coloring must still cover the space");

        // Coarsen 8 → 2: dropped colors' subspaces become empty tombstones.
        let dropped = f.subspace(p, DomainPoint::new1(5));
        replace_equal_partition_1d(&mut f, p, 2).unwrap();
        assert_eq!(f.partition(p).children.len(), 2);
        assert!(f.domain(dropped).is_empty(), "dropped subspace must read as empty");
        assert_eq!(f.try_subspace(p, DomainPoint::new1(5)), None);
        assert!(
            f.spaces_disjoint(dropped, f.subspace(p, DomainPoint::new1(0))),
            "tombstoned subspace must be disjoint from live data"
        );
    }

    #[test]
    fn replace_refuses_to_orphan_nested_partitions() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(40));
        let p = equal_partition_1d(&mut f, s, 4);
        // Hang a nested partition off color 3.
        let leaf = f.subspace(p, DomainPoint::new1(3));
        equal_partition_1d(&mut f, leaf, 2);
        // Coarsening to 2 colors would drop color 3 and strand its subtree.
        let err = replace_equal_partition_1d(&mut f, p, 2).unwrap_err();
        assert!(matches!(err, PartitionError::WouldOrphanSubtree { .. }));
        assert_eq!(f.partition(p).children.len(), 4, "failed replacement must not mutate");
        // Refining keeps color 3 alive, so it is allowed.
        replace_equal_partition_1d(&mut f, p, 8).unwrap();
        assert_eq!(f.subspace(p, DomainPoint::new1(3)), leaf);
    }

    #[test]
    fn replace_halo_follows_block_refinement() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(32));
        let halo = halo_partition_1d(&mut f, s, 4, 1);
        assert!(!f.is_disjoint(halo));
        let ghost = f.subspace(halo, DomainPoint::new1(1));
        // Blocks of 8 grown by 1, clamped: [7,16].
        assert_eq!(f.domain(ghost), &Domain::Rect1(Rect::new1(7, 16)));
        replace_halo_partition_1d(&mut f, halo, 8, 1).unwrap();
        // Same color, same subspace id, refined (4-wide) grown bounds [3,8].
        assert_eq!(f.subspace(halo, DomainPoint::new1(1)), ghost);
        assert_eq!(f.domain(ghost), &Domain::Rect1(Rect::new1(3, 8)));
        assert_eq!(f.partition(halo).children.len(), 8);
    }

    #[test]
    fn try_create_verifies_declared_disjointness() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(10));
        let err = f
            .try_create_partition(
                s,
                Domain::range(2),
                vec![
                    (DomainPoint::new1(0), Domain::Rect1(Rect::new1(0, 5))),
                    (DomainPoint::new1(1), Domain::Rect1(Rect::new1(5, 9))),
                ],
                Disjointness::Disjoint,
            )
            .unwrap_err();
        assert_eq!(err, PartitionError::NotDisjoint);
    }

    #[test]
    fn explicit_coloring_disjointness_computed() {
        let mut f = forest();
        let s = f.create_index_space(Domain::range(10));
        let p = coloring_partition(
            &mut f,
            s,
            Domain::range(2),
            vec![
                (DomainPoint::new1(0), Domain::Rect1(Rect::new1(0, 4))),
                (DomainPoint::new1(1), Domain::Rect1(Rect::new1(5, 9))),
            ],
        );
        assert!(f.is_disjoint(p));
        let q = coloring_partition(
            &mut f,
            s,
            Domain::range(2),
            vec![
                (DomainPoint::new1(0), Domain::Rect1(Rect::new1(0, 5))),
                (DomainPoint::new1(1), Domain::Rect1(Rect::new1(5, 9))),
            ],
        );
        assert!(!f.is_disjoint(q));
    }
}
