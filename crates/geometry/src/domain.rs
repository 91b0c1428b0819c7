//! Rank-erased domains and points.
//!
//! Launch domains, color spaces, and index spaces all have a rank that is
//! only known at runtime. [`DomainPoint`] and [`Domain`] erase the
//! const-generic rank of [`Point`]/[`Rect`] behind a small tagged
//! representation. Sparse domains (explicit point lists) are supported
//! because the DOM radiation sweeps in Soleil-X launch over *diagonal
//! slices* of a 3-D grid, which are not rectangles.

use crate::iter::DomainIter;
use crate::point::Point;
use crate::rect::Rect;
use std::fmt;
use std::sync::Arc;

/// A point of runtime-known rank (1 to [`MAX_DIM`](crate::MAX_DIM)).
///
/// Unused trailing coordinates are zero, so equality and hashing behave.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainPoint {
    dim: u8,
    coords: [i64; 3],
}

impl DomainPoint {
    /// Construct a 1-D point.
    #[inline]
    pub const fn new1(x: i64) -> Self {
        DomainPoint { dim: 1, coords: [x, 0, 0] }
    }

    /// Construct a 2-D point.
    #[inline]
    pub const fn new2(x: i64, y: i64) -> Self {
        DomainPoint { dim: 2, coords: [x, y, 0] }
    }

    /// Construct a 3-D point.
    #[inline]
    pub const fn new3(x: i64, y: i64, z: i64) -> Self {
        DomainPoint { dim: 3, coords: [x, y, z] }
    }

    /// Construct from a slice of 1..=3 coordinates.
    ///
    /// # Panics
    /// Panics if the slice length is not in `1..=3`.
    pub fn from_slice(coords: &[i64]) -> Self {
        assert!(
            (1..=3).contains(&coords.len()),
            "DomainPoint rank must be 1..=3, got {}",
            coords.len()
        );
        let mut c = [0i64; 3];
        c[..coords.len()].copy_from_slice(coords);
        DomainPoint { dim: coords.len() as u8, coords: c }
    }

    /// Rank of the point.
    #[inline]
    pub const fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Coordinate in dimension `d` (zero for `d >= dim()`).
    #[inline]
    pub const fn coord(&self, d: usize) -> i64 {
        self.coords[d]
    }

    /// The coordinates as a slice of length `dim()`.
    #[inline]
    pub fn coords(&self) -> &[i64] {
        &self.coords[..self.dim as usize]
    }

    /// Shorthand for `coord(0)`.
    #[inline]
    pub const fn x(&self) -> i64 {
        self.coords[0]
    }

    /// Shorthand for `coord(1)`.
    #[inline]
    pub const fn y(&self) -> i64 {
        self.coords[1]
    }

    /// Shorthand for `coord(2)`.
    #[inline]
    pub const fn z(&self) -> i64 {
        self.coords[2]
    }

    /// Sum of coordinates (diagonal index for wavefront sweeps).
    #[inline]
    pub fn coord_sum(&self) -> i64 {
        self.coords().iter().sum()
    }

    /// View as a typed point.
    ///
    /// # Panics
    /// Panics when `N != dim()`.
    #[inline]
    pub fn to_point<const N: usize>(&self) -> Point<N> {
        assert_eq!(N, self.dim(), "rank mismatch: point is {}-D, asked for {N}-D", self.dim());
        let mut out = Point::<N>::ZERO;
        for d in 0..N {
            out[d] = self.coords[d];
        }
        out
    }
}

impl fmt::Debug for DomainPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for DomainPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> From<Point<N>> for DomainPoint {
    #[inline]
    fn from(p: Point<N>) -> Self {
        DomainPoint::from_slice(&p.0)
    }
}

impl From<i64> for DomainPoint {
    #[inline]
    fn from(x: i64) -> Self {
        DomainPoint::new1(x)
    }
}

/// A set of points of runtime-known rank: either a dense rectangle or an
/// explicit (sparse) point list.
///
/// Domains are used as launch domains, partition color spaces, and index
/// space extents. Sparse domains share their point list via `Arc`, so
/// cloning a `Domain` is always cheap — this is essential for the O(1)
/// in-memory representation of an index launch.
#[derive(Clone, PartialEq, Eq)]
pub enum Domain {
    /// Dense 1-D rectangle.
    Rect1(Rect<1>),
    /// Dense 2-D rectangle.
    Rect2(Rect<2>),
    /// Dense 3-D rectangle.
    Rect3(Rect<3>),
    /// Explicit point list, built by [`Domain::sparse`].
    Sparse(SparseDomain),
}

/// The point list of a sparse [`Domain`]. Its fields are private: only
/// [`Domain::sparse`] builds one, so the rank, the no-duplicates rule and
/// the sortedness flag that [`Domain::contains`] trusts always describe
/// the list.
#[derive(Clone, PartialEq, Eq)]
pub struct SparseDomain {
    /// Rank of every point in the list.
    dim: u8,
    /// Whether `points` is strictly increasing, so that membership is a
    /// binary search.
    sorted: bool,
    /// The points, in iteration order, without duplicates.
    points: Arc<Vec<DomainPoint>>,
}

impl SparseDomain {
    /// The points, in iteration order.
    #[inline]
    pub fn points(&self) -> &[DomainPoint] {
        &self.points
    }

    fn contains(&self, p: DomainPoint) -> bool {
        if self.sorted {
            self.points.binary_search(&p).is_ok()
        } else {
            self.points.contains(&p)
        }
    }
}

impl Domain {
    /// Dense 1-D domain `0..n`.
    #[inline]
    pub fn range(n: i64) -> Self {
        Domain::Rect1(Rect::range(n))
    }

    /// Build a sparse domain from a point list, kept in its given order.
    /// A strictly increasing list is recognized as such: it needs no
    /// duplicate check, and [`contains`](Domain::contains) binary-searches
    /// it.
    ///
    /// # Panics
    /// Panics if the list is empty, ranks are mixed, or points repeat.
    pub fn sparse(points: Vec<DomainPoint>) -> Self {
        assert!(!points.is_empty(), "sparse domain must be non-empty");
        let dim = points[0].dim() as u8;
        assert!(
            points.iter().all(|p| p.dim() == dim as usize),
            "sparse domain points must share a rank"
        );
        let sorted = points.windows(2).all(|w| w[0] < w[1]);
        if !sorted {
            let mut dedup: Vec<DomainPoint> = points.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), points.len(), "sparse domain contains duplicate points");
        }
        Domain::Sparse(SparseDomain { dim, sorted, points: Arc::new(points) })
    }

    /// Rank of the domain.
    #[inline]
    pub fn dim(&self) -> usize {
        match self {
            Domain::Rect1(_) => 1,
            Domain::Rect2(_) => 2,
            Domain::Rect3(_) => 3,
            Domain::Sparse(s) => s.dim as usize,
        }
    }

    /// Number of points in the domain.
    pub fn volume(&self) -> u64 {
        match self {
            Domain::Rect1(r) => r.volume(),
            Domain::Rect2(r) => r.volume(),
            Domain::Rect3(r) => r.volume(),
            Domain::Sparse(s) => s.points.len() as u64,
        }
    }

    /// True iff the domain has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.volume() == 0
    }

    /// True iff `p` belongs to the domain. Points of a different rank are
    /// never contained.
    pub fn contains(&self, p: DomainPoint) -> bool {
        if p.dim() != self.dim() {
            return false;
        }
        match self {
            Domain::Rect1(r) => r.contains(p.to_point()),
            Domain::Rect2(r) => r.contains(p.to_point()),
            Domain::Rect3(r) => r.contains(p.to_point()),
            Domain::Sparse(s) => s.contains(p),
        }
    }

    /// Bounding rectangle of the domain, rank-erased as `(lo, hi)` domain
    /// points. For sparse domains this is the tight bounding box.
    pub fn bounds(&self) -> (DomainPoint, DomainPoint) {
        match self {
            Domain::Rect1(r) => (r.lo.into(), r.hi.into()),
            Domain::Rect2(r) => (r.lo.into(), r.hi.into()),
            Domain::Rect3(r) => (r.lo.into(), r.hi.into()),
            Domain::Sparse(SparseDomain { dim, points, .. }) => {
                let d = *dim as usize;
                let mut lo = [i64::MAX; 3];
                let mut hi = [i64::MIN; 3];
                for p in points.iter() {
                    for k in 0..d {
                        lo[k] = lo[k].min(p.coord(k));
                        hi[k] = hi[k].max(p.coord(k));
                    }
                }
                (
                    DomainPoint::from_slice(&lo[..d]),
                    DomainPoint::from_slice(&hi[..d]),
                )
            }
        }
    }

    /// Row-major position of `p` within the domain's bounding box, used to
    /// index dynamic-check bitmasks. `None` if out of bounds or rank
    /// mismatch.
    pub fn linearize(&self, p: DomainPoint) -> Option<u64> {
        if p.dim() != self.dim() {
            return None;
        }
        match self {
            Domain::Rect1(r) => r.linearize(p.to_point()),
            Domain::Rect2(r) => r.linearize(p.to_point()),
            Domain::Rect3(r) => r.linearize(p.to_point()),
            Domain::Sparse(_) => {
                let (lo, hi) = self.bounds();
                match self.dim() {
                    1 => Rect::new1(lo.x(), hi.x()).linearize(p.to_point()),
                    2 => Rect::new2((lo.x(), lo.y()), (hi.x(), hi.y())).linearize(p.to_point()),
                    3 => Rect::new3((lo.x(), lo.y(), lo.z()), (hi.x(), hi.y(), hi.z()))
                        .linearize(p.to_point()),
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Volume of the bounding box (bitmask size for dynamic checks).
    pub fn bbox_volume(&self) -> u64 {
        match self {
            Domain::Rect1(r) => r.volume(),
            Domain::Rect2(r) => r.volume(),
            Domain::Rect3(r) => r.volume(),
            Domain::Sparse(s) => {
                if s.points.is_empty() {
                    return 0;
                }
                let (lo, hi) = self.bounds();
                let mut v = 1u64;
                for d in 0..self.dim() {
                    v = v.saturating_mul((hi.coord(d) - lo.coord(d)) as u64 + 1);
                }
                v
            }
        }
    }

    /// Iterate the points of the domain.
    pub fn iter(&self) -> DomainIter {
        match self {
            Domain::Rect1(r) => DomainIter::D1(r.iter()),
            Domain::Rect2(r) => DomainIter::D2(r.iter()),
            Domain::Rect3(r) => DomainIter::D3(r.iter()),
            Domain::Sparse(s) => DomainIter::Sparse { points: s.points.clone(), next: 0 },
        }
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Rect1(r) => write!(f, "{r:?}"),
            Domain::Rect2(r) => write!(f, "{r:?}"),
            Domain::Rect3(r) => write!(f, "{r:?}"),
            Domain::Sparse(s) => {
                write!(f, "sparse{{{} points}}", s.points.len())
            }
        }
    }
}

impl From<Rect<1>> for Domain {
    fn from(r: Rect<1>) -> Self {
        Domain::Rect1(r)
    }
}
impl From<Rect<2>> for Domain {
    fn from(r: Rect<2>) -> Self {
        Domain::Rect2(r)
    }
}
impl From<Rect<3>> for Domain {
    fn from(r: Rect<3>) -> Self {
        Domain::Rect3(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_point_basics() {
        let p = DomainPoint::new3(1, 2, 3);
        assert_eq!(p.dim(), 3);
        assert_eq!((p.x(), p.y(), p.z()), (1, 2, 3));
        assert_eq!(p.coords(), &[1, 2, 3]);
        assert_eq!(p.coord_sum(), 6);
        assert_eq!(p.to_point::<3>(), Point::new3(1, 2, 3));
        assert_eq!(DomainPoint::from(Point::new2(4, 5)), DomainPoint::new2(4, 5));
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn to_point_rank_mismatch_panics() {
        DomainPoint::new2(1, 2).to_point::<3>();
    }

    #[test]
    fn dense_domain() {
        let d = Domain::range(10);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.volume(), 10);
        assert!(d.contains(DomainPoint::new1(9)));
        assert!(!d.contains(DomainPoint::new1(10)));
        assert!(!d.contains(DomainPoint::new2(0, 0)));
        assert_eq!(d.iter().count(), 10);
    }

    #[test]
    fn sparse_domain() {
        let pts = vec![
            DomainPoint::new3(0, 1, 2),
            DomainPoint::new3(1, 0, 2),
            DomainPoint::new3(2, 1, 0),
        ];
        let d = Domain::sparse(pts.clone());
        assert_eq!(d.dim(), 3);
        assert_eq!(d.volume(), 3);
        assert!(d.contains(pts[1]));
        assert!(!d.contains(DomainPoint::new3(9, 9, 9)));
        let collected: Vec<_> = d.iter().collect();
        assert_eq!(collected, pts);
        let (lo, hi) = d.bounds();
        assert_eq!(lo, DomainPoint::new3(0, 0, 0));
        assert_eq!(hi, DomainPoint::new3(2, 1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn sparse_rejects_duplicates() {
        Domain::sparse(vec![DomainPoint::new1(0), DomainPoint::new1(0)]);
    }

    #[test]
    fn linearize_within_domain() {
        let d = Domain::Rect2(Rect::new2((0, 0), (3, 3)));
        assert_eq!(d.linearize(DomainPoint::new2(1, 2)), Some(6));
        assert_eq!(d.linearize(DomainPoint::new2(4, 0)), None);
        assert_eq!(d.linearize(DomainPoint::new1(0)), None);
        assert_eq!(d.bbox_volume(), 16);
    }

    #[test]
    fn domain_clone_is_cheap_for_sparse() {
        let d = Domain::sparse((0..1000).map(DomainPoint::new1).collect());
        let d2 = d.clone();
        if let (Domain::Sparse(a), Domain::Sparse(b)) = (&d, &d2) {
            assert!(Arc::ptr_eq(&a.points, &b.points));
        } else {
            panic!("expected sparse");
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn bounds_of_dense_domains() {
        let d: Domain = Rect::new3((1, 2, 3), (4, 5, 6)).into();
        let (lo, hi) = d.bounds();
        assert_eq!(lo, DomainPoint::new3(1, 2, 3));
        assert_eq!(hi, DomainPoint::new3(4, 5, 6));
    }

    #[test]
    fn iter_size_hints_are_exact() {
        let d = Domain::range(7);
        let mut it = d.iter();
        assert_eq!(it.len(), 7);
        it.next();
        it.next();
        assert_eq!(it.len(), 5);
        let s = Domain::sparse(vec![DomainPoint::new1(0), DomainPoint::new1(2)]);
        assert_eq!(s.iter().len(), 2);
    }

    #[test]
    fn single_point_domains() {
        let d: Domain = Rect::new1(5, 5).into();
        assert_eq!(d.volume(), 1);
        assert_eq!(d.iter().next(), Some(DomainPoint::new1(5)));
    }

    #[test]
    fn sparse_singleton() {
        let d = Domain::sparse(vec![DomainPoint::new2(3, 4)]);
        assert_eq!(d.volume(), 1);
        assert_eq!(d.bbox_volume(), 1);
        assert_eq!(d.linearize(DomainPoint::new2(3, 4)), Some(0));
    }
}
