//! Sharding functors.
//!
//! Distribution (§5) is under user control: a **sharding functor** maps
//! each launch-domain point to the node that owns it — a pure function,
//! evaluated locally on every node with no communication. Without DCR
//! the expansion cuts each op's owners into contiguous slice runs
//! (`depgraph::dist_plan`), the fixed-size descriptors that travel the
//! broadcast tree.

use il_geometry::{Domain, DomainPoint};
use il_machine::NodeId;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A launch domain handed to a sharding functor, with a lazily built
/// point→rank index for sparse domains.
///
/// Sharding functors are evaluated once per domain point during
/// expansion. The old functor signature passed a bare [`Domain`], so any
/// functor needing a point's iteration-order position (both built-ins do)
/// paid an O(|D|) scan of the sparse point list *per point* — making
/// sparse launches O(|D|²). `ShardDomain` amortizes that: the first
/// sparse rank query builds a `HashMap` rank index in O(|D|), and every
/// subsequent query is O(1). Dense domains linearize in O(1) as before.
pub struct ShardDomain<'a> {
    domain: &'a Domain,
    rank: OnceCell<HashMap<DomainPoint, u64>>,
}

impl<'a> ShardDomain<'a> {
    /// Wrap `domain`. Cheap: the sparse rank index is built on first use.
    pub fn new(domain: &'a Domain) -> Self {
        ShardDomain { domain, rank: OnceCell::new() }
    }

    /// The underlying launch domain.
    pub fn domain(&self) -> &'a Domain {
        self.domain
    }

    /// Number of points in the domain.
    pub fn volume(&self) -> u64 {
        self.domain.volume()
    }

    /// Position of `p` in the iteration order of the domain: row-major
    /// linearization for dense domains, the point's rank in the list for
    /// sparse ones, in O(1) amortized time.
    ///
    /// # Panics
    /// Panics if `p` is not in the domain.
    pub fn position(&self, p: DomainPoint) -> u64 {
        match self.domain {
            Domain::Sparse(s) => {
                let points = s.points();
                let rank = self.rank.get_or_init(|| {
                    let mut map = HashMap::with_capacity(points.len());
                    // `Domain::sparse` rejects duplicate points, so every
                    // insert is fresh and ranks match the linear scan.
                    for (i, &q) in points.iter().enumerate() {
                        map.insert(q, i as u64);
                    }
                    map
                });
                *rank
                    .get(&p)
                    .unwrap_or_else(|| panic!("point {p:?} not in sparse domain"))
            }
            dense => dense
                .linearize(p)
                .unwrap_or_else(|| panic!("point {p:?} not in domain {dense:?}")),
        }
    }
}

/// A sharding functor: `(point, domain, nodes) → owner node`.
///
/// Must be pure (Legion memoizes them, §5) and total over the domain.
/// The domain arrives wrapped in a [`ShardDomain`] so rank queries on
/// sparse domains are O(1) amortized rather than O(|D|) per point.
pub type ShardingFn = Arc<dyn Fn(DomainPoint, &ShardDomain<'_>, usize) -> NodeId + Send + Sync>;

/// Block sharding: contiguous runs of the domain's iteration order map to
/// the same node. With |D| = k·N, each node owns k consecutive points —
/// the common case in the paper's applications where the partition size
/// equals (a small multiple of) the node count.
pub fn block_shard() -> ShardingFn {
    Arc::new(|p: DomainPoint, domain: &ShardDomain<'_>, nodes: usize| {
        let volume = domain.volume().max(1);
        let idx = domain.position(p);
        ((idx as u128 * nodes as u128) / volume as u128) as NodeId
    })
}

/// Round-robin sharding: point `i` goes to node `i mod N`.
pub fn round_robin_shard() -> ShardingFn {
    Arc::new(|p: DomainPoint, domain: &ShardDomain<'_>, nodes: usize| {
        (domain.position(p) % nodes as u64) as NodeId
    })
}

/// Stable identity of a sharding functor for trace keying: the address
/// of the closure behind the `Arc`. Two clones of the same `Arc` compare
/// equal; distinct functors (even with identical behavior) compare
/// different, which errs on the side of invalidation — a trace is never
/// replayed across a functor swap. The program holds its `Arc`s alive
/// for the whole run, so addresses cannot be recycled mid-expansion.
pub fn sharding_identity(f: &ShardingFn) -> usize {
    Arc::as_ptr(f) as *const () as usize
}

/// The point at iteration-order position `idx` of `domain`.
pub fn point_at(domain: &Domain, idx: u64) -> DomainPoint {
    match domain {
        Domain::Sparse(s) => s.points()[idx as usize],
        Domain::Rect1(r) => r.delinearize(idx).expect("index in range").into(),
        Domain::Rect2(r) => r.delinearize(idx).expect("index in range").into(),
        Domain::Rect3(r) => r.delinearize(idx).expect("index in range").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;

    #[test]
    fn block_shard_balanced_1d() {
        let shard = block_shard();
        let d = Domain::range(8);
        let owners: Vec<NodeId> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 4)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn block_shard_overdecomposed() {
        let shard = block_shard();
        let d = Domain::range(8);
        let owners: Vec<NodeId> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 2)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn block_shard_fewer_points_than_nodes() {
        let shard = block_shard();
        let d = Domain::range(3);
        let owners: Vec<NodeId> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 8)).collect();
        // Spread across the machine, each point on its own node.
        assert_eq!(owners.len(), 3);
        let mut sorted = owners.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "points must go to distinct nodes: {owners:?}");
    }

    #[test]
    fn round_robin() {
        let shard = round_robin_shard();
        let d = Domain::range(6);
        let owners: Vec<NodeId> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 4)).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn sharding_2d_covers_all_nodes() {
        let shard = block_shard();
        let d: Domain = Rect::new2((0, 0), (3, 3)).into();
        let mut owners: Vec<NodeId> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 4)).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sparse_position() {
        let d = Domain::sparse(vec![
            DomainPoint::new3(0, 0, 1),
            DomainPoint::new3(0, 1, 0),
            DomainPoint::new3(1, 0, 0),
        ]);
        assert_eq!(ShardDomain::new(&d).position(DomainPoint::new3(1, 0, 0)), 2);
    }

    #[test]
    fn point_at_matches_iteration() {
        let d: Domain = Rect::new2((0, 0), (2, 3)).into();
        for (i, p) in d.iter().enumerate() {
            assert_eq!(point_at(&d, i as u64), p);
        }
        let s = Domain::sparse(vec![DomainPoint::new1(5), DomainPoint::new1(2)]);
        assert_eq!(point_at(&s, 1), DomainPoint::new1(2));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    /// The linear-scan position `ShardDomain::position` must agree with:
    /// row-major linearization for dense domains, the point's rank in the
    /// list — O(|D|) per call — for sparse ones.
    fn position_in_domain(p: DomainPoint, domain: &Domain) -> u64 {
        match domain {
            Domain::Sparse(s) => s
                .points()
                .iter()
                .position(|q| *q == p)
                .unwrap_or_else(|| panic!("point {p:?} not in sparse domain")) as u64,
            dense => dense
                .linearize(p)
                .unwrap_or_else(|| panic!("point {p:?} not in domain {dense:?}")),
        }
    }

    #[test]
    fn sparse_rank_index_matches_linear_scan_on_large_domain() {
        // Regression: `position_in_domain` on a sparse domain is an O(|D|)
        // scan, so evaluating a sharding functor over every point of a
        // sparse launch was O(|D|²). `ShardDomain` must return the exact
        // same ranks in O(1) amortized — and `point_at` must stay its
        // inverse. Use a deterministically shuffled (non-monotone) point
        // list so rank != coordinate anywhere.
        let n = 50_000u64;
        let mut pts: Vec<DomainPoint> = Vec::with_capacity(n as usize);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..n {
            // LCG-ish scramble; spread over 3D so dense linearization
            // can't accidentally apply.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            pts.push(DomainPoint::new3(
                (x >> 48) as i64,
                ((x >> 24) & 0xFF_FFFF) as i64,
                (x & 0xFF_FFFF) as i64,
            ));
        }
        pts.sort_unstable();
        pts.dedup();
        let n = pts.len() as u64;
        // Shuffle deterministically so iteration order != sorted order.
        let mut shuffled = pts.clone();
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let d = Domain::sparse(shuffled.clone());
        let sd = ShardDomain::new(&d);
        // Full round-trip: position ∘ point_at == id over all of [0, n).
        for idx in 0..n {
            let p = point_at(&d, idx);
            assert_eq!(sd.position(p), idx);
            assert_eq!(point_at(&d, sd.position(p)), p);
        }
        // Spot-check the O(|D|)-per-call free function agrees with the
        // indexed path (checking every point would itself be O(|D|²)).
        for idx in [0, 1, n / 2, n - 2, n - 1] {
            let p = point_at(&d, idx);
            assert_eq!(position_in_domain(p, &d), sd.position(p));
        }
        // Built-in functors see the same ranks through the fast path.
        let shard = block_shard();
        let first = point_at(&d, 0);
        let last = point_at(&d, n - 1);
        assert_eq!(shard(first, &sd, 8), 0);
        assert_eq!(shard(last, &sd, 8), 7);
    }

    #[test]
    fn rank_map_is_rebuilt_across_a_refine_coarsen_cycle() {
        // AMR replaces a launch domain with a refined one and later
        // coarsens it back. The sparse rank index lives *inside* a
        // `ShardDomain` that borrows its domain, so a refined domain can
        // never see the coarse domain's ranks — this pins that contract
        // as a bijection test across the full cycle.
        //
        // Coarse colors 0..8 and refined colors 0..16 share the even
        // points but at different ranks (point 2k is rank 2k refined,
        // rank k coarse), so any reuse of a stale map misranks them.
        let coarse_pts: Vec<DomainPoint> = (0..8).map(|i| DomainPoint::new1(2 * i)).collect();
        let fine_pts: Vec<DomainPoint> = (0..16).map(DomainPoint::new1).collect();
        let coarse = Domain::sparse(coarse_pts.clone());
        let fine = Domain::sparse(fine_pts.clone());
        let recoarse = Domain::sparse(coarse_pts.clone());

        let epochs = [(&coarse, 8u64), (&fine, 16), (&recoarse, 8)];
        let mut owner_maps = Vec::new();
        for (domain, volume) in epochs {
            let sd = ShardDomain::new(domain);
            // position() is a bijection [0, V) ↔ points of this epoch's
            // domain: position ∘ point_at = id, and all ranks distinct.
            let mut seen = std::collections::HashSet::new();
            for idx in 0..volume {
                let p = point_at(domain, idx);
                assert_eq!(sd.position(p), idx, "rank must match this domain's order");
                assert!(seen.insert(sd.position(p)), "ranks must be distinct");
            }
            let shard = block_shard();
            let owners: Vec<NodeId> =
                (0..volume).map(|i| shard(point_at(domain, i), &sd, 4)).collect();
            owner_maps.push(owners);
        }
        // The refined epoch re-shards: shared point 2k moves owners when
        // the domain doubles (rank 2k of 16 vs rank k of 8 under 4 nodes
        // happen to agree for block sharding, so check via a shared point
        // whose rank differs: point 6 is rank 3 coarse (owner 1) and rank
        // 6 refined (owner 1 of 16... use round_robin to make it move).
        let rr = round_robin_shard();
        let p6 = DomainPoint::new1(6);
        let coarse_sd = ShardDomain::new(&coarse);
        let fine_sd = ShardDomain::new(&fine);
        assert_eq!(rr(p6, &coarse_sd, 4), 3, "rank 3 coarse");
        assert_eq!(rr(p6, &fine_sd, 4), 2, "rank 6 refined — the map was rebuilt");
        // Coarsening back restores the original mapping exactly: the
        // rebuilt map is a pure function of the domain, not of history.
        assert_eq!(owner_maps[0], owner_maps[2]);
    }

    #[test]
    fn block_shard_is_monotone() {
        // Owners never decrease along the iteration order.
        let shard = block_shard();
        let d = Domain::range(37);
        let owners: Vec<_> = d.iter().map(|p| shard(p, &ShardDomain::new(&d), 5)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*owners.last().unwrap(), 4);
    }
}
