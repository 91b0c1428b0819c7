//! Axis-aligned rectangles with inclusive bounds.

use crate::iter::RectIter;
use crate::point::Point;
use std::fmt;

/// An `N`-dimensional axis-aligned rectangle with *inclusive* bounds.
///
/// `Rect { lo, hi }` denotes the set of points `p` with
/// `lo[d] <= p[d] <= hi[d]` for every dimension `d`. A rectangle is empty if
/// `lo[d] > hi[d]` in any dimension; all empty rectangles are considered
/// equal for the purposes of [`volume`](Rect::volume) and intersection
/// tests, but retain their coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect<const N: usize> {
    /// Inclusive lower bound.
    pub lo: Point<N>,
    /// Inclusive upper bound.
    pub hi: Point<N>,
}

impl<const N: usize> Rect<N> {
    /// Construct a rectangle from inclusive bounds.
    #[inline]
    pub const fn new(lo: Point<N>, hi: Point<N>) -> Self {
        Rect { lo, hi }
    }

    /// A canonical empty rectangle.
    #[inline]
    pub fn empty() -> Self {
        Rect {
            lo: Point::splat(0),
            hi: Point::splat(-1),
        }
    }

    /// True iff the rectangle contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..N).any(|d| self.lo[d] > self.hi[d])
    }

    /// Number of points contained (0 for empty rectangles).
    ///
    /// Saturates at `u64::MAX` for astronomically large rectangles rather
    /// than overflowing.
    #[inline]
    pub fn volume(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let mut v: u64 = 1;
        for d in 0..N {
            let extent = (self.hi[d] - self.lo[d]) as u64 + 1;
            v = v.saturating_mul(extent);
        }
        v
    }

    /// Extent (number of points) along dimension `d`; 0 if empty there.
    #[inline]
    pub fn extent(&self, d: usize) -> u64 {
        if self.lo[d] > self.hi[d] {
            0
        } else {
            (self.hi[d] - self.lo[d]) as u64 + 1
        }
    }

    /// True iff `p` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, p: Point<N>) -> bool {
        (0..N).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// True iff `other` is entirely inside `self` (empty rects are contained
    /// in everything).
    #[inline]
    pub fn contains_rect(&self, other: &Rect<N>) -> bool {
        if other.is_empty() {
            return true;
        }
        (0..N).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Intersection of two rectangles (possibly empty).
    #[inline]
    pub fn intersection(&self, other: &Rect<N>) -> Rect<N> {
        Rect {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// True iff the rectangles share at least one point.
    #[inline]
    pub fn overlaps(&self, other: &Rect<N>) -> bool {
        !self.intersection(other).is_empty()
    }

    /// Smallest rectangle containing both inputs (bounding-box union).
    #[inline]
    pub fn union_bbox(&self, other: &Rect<N>) -> Rect<N> {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Row-major linearization of `p` within this rectangle: a bijection
    /// from the points of the rectangle onto `0..volume()`.
    ///
    /// The last dimension varies fastest, matching C array layout. This is
    /// the `linearize` primitive of Listing 3 in the paper, used to index
    /// the dynamic-check bitmask for multi-dimensional partitions, and also
    /// the storage layout of physical instances.
    ///
    /// Returns `None` when `p` is outside the rectangle (the dynamic check
    /// treats out-of-bounds functor values as a bounds-check failure).
    #[inline]
    pub fn linearize(&self, p: Point<N>) -> Option<u64> {
        if !self.contains(p) {
            return None;
        }
        let mut idx: u64 = 0;
        for d in 0..N {
            let extent = (self.hi[d] - self.lo[d]) as u64 + 1;
            idx = idx * extent + (p[d] - self.lo[d]) as u64;
        }
        Some(idx)
    }

    /// Inverse of [`linearize`](Rect::linearize).
    ///
    /// Returns `None` when `idx >= volume()`.
    #[inline]
    pub fn delinearize(&self, idx: u64) -> Option<Point<N>> {
        if idx >= self.volume() {
            return None;
        }
        let mut rem = idx;
        let mut out = Point::<N>::ZERO;
        for d in (0..N).rev() {
            let extent = (self.hi[d] - self.lo[d]) as u64 + 1;
            out[d] = self.lo[d] + (rem % extent) as i64;
            rem /= extent;
        }
        Some(out)
    }

    /// Iterate the points of the rectangle in row-major (linearization)
    /// order.
    #[inline]
    pub fn iter(&self) -> RectIter<N> {
        RectIter::new(*self)
    }

    /// Split the rectangle into `parts` nearly-equal blocks along
    /// dimension `dim`, in increasing coordinate order; the first
    /// `extent % parts` blocks are one longer. Returns fewer than `parts`
    /// pieces if the extent is smaller, and none if it is zero. Pieces are
    /// non-empty along `dim`, disjoint, and cover.
    pub fn split_along(&self, dim: usize, parts: usize) -> Vec<Rect<N>> {
        let extent = self.extent(dim);
        if extent == 0 {
            return vec![];
        }
        let parts = parts.clamp(1, extent as usize);
        let base = extent / parts as u64;
        let rem = extent % parts as u64;
        let mut out = Vec::with_capacity(parts);
        let mut lo = self.lo[dim];
        for i in 0..parts {
            let len = base + u64::from((i as u64) < rem);
            let hi = lo + len as i64 - 1;
            let mut piece = *self;
            piece.lo[dim] = lo;
            piece.hi[dim] = hi;
            out.push(piece);
            lo = hi + 1;
        }
        out
    }
}

impl Rect<1> {
    /// 1-D rectangle covering `lo..=hi`.
    #[inline]
    pub const fn new1(lo: i64, hi: i64) -> Self {
        Rect::new(Point::new1(lo), Point::new1(hi))
    }

    /// 1-D rectangle covering the half-open range `0..n`.
    #[inline]
    pub const fn range(n: i64) -> Self {
        Rect::new1(0, n - 1)
    }
}

impl Rect<2> {
    /// 2-D rectangle from coordinate bounds.
    #[inline]
    pub const fn new2(lo: (i64, i64), hi: (i64, i64)) -> Self {
        Rect::new(Point::new2(lo.0, lo.1), Point::new2(hi.0, hi.1))
    }
}

impl Rect<3> {
    /// 3-D rectangle from coordinate bounds.
    #[inline]
    pub const fn new3(lo: (i64, i64, i64), hi: (i64, i64, i64)) -> Self {
        Rect::new(
            Point::new3(lo.0, lo.1, lo.2),
            Point::new3(hi.0, hi.1, hi.2),
        )
    }
}

impl<const N: usize> fmt::Debug for Rect<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}..{:?}]", self.lo, self.hi)
    }
}

impl<const N: usize> fmt::Display for Rect<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> IntoIterator for Rect<N> {
    type Item = Point<N>;
    type IntoIter = RectIter<N>;
    fn into_iter(self) -> RectIter<N> {
        RectIter::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_empty() {
        let r = Rect::new2((0, 0), (3, 1));
        assert_eq!(r.volume(), 8);
        assert!(!r.is_empty());
        assert_eq!(Rect::<2>::empty().volume(), 0);
        assert!(Rect::<2>::empty().is_empty());
        let degenerate = Rect::new2((5, 5), (5, 5));
        assert_eq!(degenerate.volume(), 1);
    }

    #[test]
    fn contains_and_intersection() {
        let a = Rect::new2((0, 0), (9, 9));
        let b = Rect::new2((5, 5), (14, 14));
        assert!(a.contains(Point::new2(9, 0)));
        assert!(!a.contains(Point::new2(10, 0)));
        let i = a.intersection(&b);
        assert_eq!(i, Rect::new2((5, 5), (9, 9)));
        assert!(a.overlaps(&b));
        let c = Rect::new2((20, 20), (30, 30));
        assert!(!a.overlaps(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn contains_rect() {
        let a = Rect::new1(0, 9);
        assert!(a.contains_rect(&Rect::new1(3, 5)));
        assert!(!a.contains_rect(&Rect::new1(3, 15)));
        assert!(a.contains_rect(&Rect::<1>::empty()));
    }

    #[test]
    fn union_bbox() {
        let a = Rect::new1(0, 3);
        let b = Rect::new1(10, 12);
        assert_eq!(a.union_bbox(&b), Rect::new1(0, 12));
        assert_eq!(Rect::<1>::empty().union_bbox(&b), b);
    }

    #[test]
    fn linearize_roundtrip_2d() {
        let r = Rect::new2((-2, 3), (1, 5));
        let mut seen = vec![false; r.volume() as usize];
        for p in r.iter() {
            let idx = r.linearize(p).unwrap();
            assert!(!seen[idx as usize], "duplicate index {idx}");
            seen[idx as usize] = true;
            assert_eq!(r.delinearize(idx), Some(p));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.linearize(Point::new2(2, 3)), None);
        assert_eq!(r.delinearize(r.volume()), None);
    }

    #[test]
    fn linearize_is_row_major() {
        let r = Rect::new2((0, 0), (1, 2));
        // Last dimension fastest: (0,0)=0 (0,1)=1 (0,2)=2 (1,0)=3 ...
        assert_eq!(r.linearize(Point::new2(0, 2)), Some(2));
        assert_eq!(r.linearize(Point::new2(1, 0)), Some(3));
    }

    #[test]
    fn split_covers_disjointly() {
        let r = Rect::new2((0, 0), (9, 99));
        let pieces = r.split_along(1, 4);
        assert_eq!(pieces.len(), 4);
        let total: u64 = pieces.iter().map(|p| p.volume()).sum();
        assert_eq!(total, r.volume());
        for (i, a) in pieces.iter().enumerate() {
            for b in pieces.iter().skip(i + 1) {
                assert!(!a.overlaps(b));
            }
        }
        // Only y is cut: 25 columns each, x keeps its full extent.
        assert!(pieces.iter().all(|p| p.extent(0) == 10 && p.extent(1) == 25));
    }

    #[test]
    fn split_small_rect() {
        let r = Rect::new1(0, 2);
        let pieces = r.split_along(0, 10);
        assert_eq!(pieces.len(), 3);
        assert!(Rect::<1>::empty().split_along(0, 4).is_empty());
        assert_eq!(r.split_along(0, 1), vec![r]);
        assert_eq!(r.split_along(0, 0), vec![r]);
        // The first `extent % parts` pieces are one longer.
        let r = Rect::new2((0, 5), (1, 11));
        let lens: Vec<u64> = r.split_along(1, 3).iter().map(|p| p.extent(1)).collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn range_constructor() {
        assert_eq!(Rect::range(5), Rect::new1(0, 4));
        assert_eq!(Rect::range(0).volume(), 0);
    }
}
