//! Const-generic integer points.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An `N`-dimensional integer point.
///
/// Points are the coordinates of objects in index spaces, colors of
/// sub-regions within a partition, and elements of launch domains. They are
/// `Copy` and cheap: `N` is 1, 2 or 3 everywhere in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point<const N: usize>(pub [i64; N]);

impl<const N: usize> Point<N> {
    /// The origin (all coordinates zero).
    pub const ZERO: Self = Point([0; N]);

    /// A point with every coordinate equal to `v`.
    #[inline]
    pub const fn splat(v: i64) -> Self {
        Point([v; N])
    }

    /// The rank of the point.
    #[inline]
    pub const fn dim(&self) -> usize {
        N
    }

    /// Coordinate in dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize) -> i64 {
        self.0[d]
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        let mut out = self.0;
        for d in 0..N {
            out[d] = out[d].min(other.0[d]);
        }
        Point(out)
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        let mut out = self.0;
        for d in 0..N {
            out[d] = out[d].max(other.0[d]);
        }
        Point(out)
    }

    /// Sum of all coordinates (useful for wavefront/diagonal indexing).
    #[inline]
    pub fn coord_sum(self) -> i64 {
        self.0.iter().sum()
    }
}

impl Point<1> {
    /// Construct a 1-D point.
    #[inline]
    pub const fn new1(x: i64) -> Self {
        Point([x])
    }
}

impl Point<2> {
    /// Construct a 2-D point.
    #[inline]
    pub const fn new2(x: i64, y: i64) -> Self {
        Point([x, y])
    }
}

impl Point<3> {
    /// Construct a 3-D point.
    #[inline]
    pub const fn new3(x: i64, y: i64, z: i64) -> Self {
        Point([x, y, z])
    }
}

impl<const N: usize> fmt::Debug for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> fmt::Display for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> From<[i64; N]> for Point<N> {
    #[inline]
    fn from(v: [i64; N]) -> Self {
        Point(v)
    }
}

impl From<i64> for Point<1> {
    #[inline]
    fn from(v: i64) -> Self {
        Point([v])
    }
}

impl<const N: usize> Index<usize> for Point<N> {
    type Output = i64;
    #[inline]
    fn index(&self, d: usize) -> &i64 {
        &self.0[d]
    }
}

impl<const N: usize> IndexMut<usize> for Point<N> {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut i64 {
        &mut self.0[d]
    }
}

impl<const N: usize> Add for Point<N> {
    type Output = Self;
    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        for d in 0..N {
            self.0[d] += rhs.0[d];
        }
        self
    }
}

impl<const N: usize> AddAssign for Point<N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        for d in 0..N {
            self.0[d] += rhs.0[d];
        }
    }
}

impl<const N: usize> Sub for Point<N> {
    type Output = Self;
    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        for d in 0..N {
            self.0[d] -= rhs.0[d];
        }
        self
    }
}

impl<const N: usize> SubAssign for Point<N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        for d in 0..N {
            self.0[d] -= rhs.0[d];
        }
    }
}

impl<const N: usize> Mul<i64> for Point<N> {
    type Output = Self;
    #[inline]
    fn mul(mut self, rhs: i64) -> Self {
        for d in 0..N {
            self.0[d] *= rhs;
        }
        self
    }
}

impl<const N: usize> Neg for Point<N> {
    type Output = Self;
    #[inline]
    fn neg(mut self) -> Self {
        for d in 0..N {
            self.0[d] = -self.0[d];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let p = Point::new3(1, -2, 3);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coord(0), 1);
        assert_eq!(p[1], -2);
        assert_eq!(p.coord_sum(), 2);
        assert_eq!(Point::<2>::ZERO, Point::new2(0, 0));
        assert_eq!(Point::<3>::splat(7), Point::new3(7, 7, 7));
    }

    #[test]
    fn arithmetic() {
        let a = Point::new2(3, 4);
        let b = Point::new2(1, -1);
        assert_eq!(a + b, Point::new2(4, 3));
        assert_eq!(a - b, Point::new2(2, 5));
        assert_eq!(a * 2, Point::new2(6, 8));
        assert_eq!(-a, Point::new2(-3, -4));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new2(4, 3));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn min_max() {
        let a = Point::new3(1, 9, 5);
        let b = Point::new3(2, 3, 5);
        assert_eq!(a.min(b), Point::new3(1, 3, 5));
        assert_eq!(a.max(b), Point::new3(2, 9, 5));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Point::new2(1, 5) < Point::new2(2, 0));
        assert!(Point::new2(1, 5) < Point::new2(1, 6));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Point::new3(1, 2, 3)), "(1,2,3)");
        assert_eq!(format!("{:?}", Point::new1(-4)), "(-4)");
    }
}
