//! Affine transforms between coordinate spaces.
//!
//! Affine projection functors — the statically analyzable fragment in the
//! paper's hybrid design (§4) — are represented as an integer matrix plus
//! offset: `f(p) = A·p + b`. The static analyzer proves injectivity of such
//! functors over a launch domain; everything else falls back to the dynamic
//! check.

use crate::domain::DomainPoint;
use std::fmt;

/// An affine map `f(p) = A·p + b` from `in_dim`-dimensional points to
/// `out_dim`-dimensional points, rank-erased because projection functor
/// registries know the ranks only at runtime.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DynTransform {
    /// Output rank (rows), 1..=3.
    pub out_dim: u8,
    /// Input rank (columns), 1..=3.
    pub in_dim: u8,
    /// Row-major `out_dim × in_dim` matrix, padded within a 3×3 array.
    pub matrix: [[i64; 3]; 3],
    /// Offset of length `out_dim`, padded within a 3-array.
    pub offset: [i64; 3],
}

impl DynTransform {
    /// Identity transform of rank `dim`.
    pub fn identity(dim: usize) -> Self {
        assert!((1..=3).contains(&dim));
        let mut matrix = [[0i64; 3]; 3];
        for (d, matrix_row) in matrix.iter_mut().enumerate().take(dim) {
            matrix_row[d] = 1;
        }
        DynTransform {
            out_dim: dim as u8,
            in_dim: dim as u8,
            matrix,
            offset: [0; 3],
        }
    }

    /// 1-D affine transform `i ↦ a·i + b`.
    pub fn affine1(a: i64, b: i64) -> Self {
        let mut matrix = [[0i64; 3]; 3];
        matrix[0][0] = a;
        DynTransform { out_dim: 1, in_dim: 1, matrix, offset: [b, 0, 0] }
    }

    /// Build from explicit rows. `rows[r]` lists the coefficients of input
    /// coordinates for output coordinate `r`.
    pub fn from_rows(in_dim: usize, rows: &[&[i64]], offset: &[i64]) -> Self {
        assert!((1..=3).contains(&in_dim));
        assert!((1..=3).contains(&rows.len()));
        assert_eq!(rows.len(), offset.len());
        let mut matrix = [[0i64; 3]; 3];
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), in_dim);
            matrix[r][..in_dim].copy_from_slice(row);
        }
        let mut off = [0i64; 3];
        off[..offset.len()].copy_from_slice(offset);
        DynTransform {
            out_dim: rows.len() as u8,
            in_dim: in_dim as u8,
            matrix,
            offset: off,
        }
    }

    /// Apply to a rank-erased point.
    ///
    /// # Panics
    /// Panics if `p.dim() != in_dim`.
    pub fn apply(&self, p: DomainPoint) -> DomainPoint {
        assert_eq!(p.dim(), self.in_dim as usize, "transform input rank mismatch");
        let mut out = [0i64; 3];
        for (r, out_coord) in out.iter_mut().enumerate().take(self.out_dim as usize) {
            let mut acc = self.offset[r];
            for c in 0..self.in_dim as usize {
                acc += self.matrix[r][c] * p.coord(c);
            }
            *out_coord = acc;
        }
        DomainPoint::from_slice(&out[..self.out_dim as usize])
    }

    /// Composition `self ∘ inner`: the transform applying `inner` first,
    /// then `self`.
    ///
    /// # Panics
    /// Panics if `self.in_dim != inner.out_dim`.
    pub fn compose(&self, inner: &DynTransform) -> DynTransform {
        assert_eq!(
            self.in_dim, inner.out_dim,
            "composition rank mismatch: {}x{} ∘ {}x{}",
            self.out_dim, self.in_dim, inner.out_dim, inner.in_dim
        );
        let (m, k, n) = (
            self.out_dim as usize,
            self.in_dim as usize,
            inner.in_dim as usize,
        );
        let mut matrix = [[0i64; 3]; 3];
        let mut offset = [0i64; 3];
        for r in 0..m {
            for c in 0..n {
                for i in 0..k {
                    matrix[r][c] += self.matrix[r][i] * inner.matrix[i][c];
                }
            }
            offset[r] = self.offset[r];
            for i in 0..k {
                offset[r] += self.matrix[r][i] * inner.offset[i];
            }
        }
        DynTransform {
            out_dim: self.out_dim,
            in_dim: inner.in_dim,
            matrix,
            offset,
        }
    }

    /// Exact inverse of a square transform, when one exists over the
    /// integers: the matrix must be unimodular (determinant ±1), which is
    /// exactly the invertible-over-`Z` case. Returns `None` for
    /// non-square or non-unimodular transforms.
    pub fn inverse(&self) -> Option<DynTransform> {
        if self.out_dim != self.in_dim {
            return None;
        }
        let n = self.in_dim as usize;
        let det = det_n(&self.matrix, n);
        if det != 1 && det != -1 {
            return None;
        }
        // A⁻¹ = adj(A)/det; with det = ±1 this is adj(A)·det, exactly.
        let mut inv = [[0i64; 3]; 3];
        for r in 0..n {
            for c in 0..n {
                // adj[r][c] = cofactor(c, r).
                let sign = if (r + c) % 2 == 0 { 1 } else { -1 };
                inv[r][c] = sign * minor_det(&self.matrix, n, c, r) * det;
            }
        }
        // q = A·p + b  ⇒  p = A⁻¹·q − A⁻¹·b.
        let mut offset = [0i64; 3];
        for (r, off) in offset.iter_mut().enumerate().take(n) {
            for c in 0..n {
                *off -= inv[r][c] * self.offset[c];
            }
        }
        Some(DynTransform {
            out_dim: self.out_dim,
            in_dim: self.in_dim,
            matrix: inv,
            offset,
        })
    }

    /// Injectivity on all of `Z^in_dim` (full column rank, `out >= in`).
    pub fn is_injective(&self) -> bool {
        let (m, n) = (self.out_dim as usize, self.in_dim as usize);
        if m < n {
            return false;
        }
        let mut a = [[0i128; 3]; 3];
        for r in 0..m {
            for c in 0..n {
                a[r][c] = self.matrix[r][c] as i128;
            }
        }
        let mut rank = 0usize;
        let mut row = 0usize;
        for col in 0..n {
            let Some(pivot) = (row..m).find(|&r| a[r][col] != 0) else {
                continue;
            };
            a.swap(row, pivot);
            let pv = a[row][col];
            for r in (row + 1)..m {
                let factor = a[r][col];
                if factor == 0 {
                    continue;
                }
                for c in col..n {
                    a[r][c] = a[r][c] * pv - a[row][c] * factor;
                }
            }
            rank += 1;
            row += 1;
            if row == m {
                break;
            }
        }
        rank == n
    }
}

/// Determinant of the leading `n × n` block of a padded matrix.
fn det_n(m: &[[i64; 3]; 3], n: usize) -> i64 {
    match n {
        1 => m[0][0],
        2 => m[0][0] * m[1][1] - m[0][1] * m[1][0],
        3 => {
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        }
        _ => panic!("rank {n} out of range"),
    }
}

/// Determinant of the `(n−1) × (n−1)` minor dropping row `dr`, column `dc`.
fn minor_det(m: &[[i64; 3]; 3], n: usize, dr: usize, dc: usize) -> i64 {
    let mut sub = [[0i64; 3]; 3];
    let rows: Vec<usize> = (0..n).filter(|&r| r != dr).collect();
    let cols: Vec<usize> = (0..n).filter(|&c| c != dc).collect();
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in cols.iter().enumerate() {
            sub[i][j] = m[r][c];
        }
    }
    if n == 1 {
        1 // 0×0 minor: the empty product
    } else {
        det_n(&sub, n - 1)
    }
}

impl fmt::Debug for DynTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "affine[{}x{}]", self.out_dim, self.in_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_apply() {
        let t = DynTransform::identity(2);
        assert_eq!(t.apply(DomainPoint::new2(3, -4)), DomainPoint::new2(3, -4));
        assert!(t.is_injective());
    }

    #[test]
    fn constant_not_injective() {
        let t = DynTransform::from_rows(2, &[&[0, 0], &[0, 0]], &[5, 6]);
        assert_eq!(t.apply(DomainPoint::new2(3, -4)), DomainPoint::new2(5, 6));
        assert!(!t.is_injective());
    }

    #[test]
    fn scale_shift() {
        let t = DynTransform::from_rows(2, &[&[2, 0], &[0, 3]], &[1, -1]);
        assert_eq!(t.apply(DomainPoint::new2(4, 5)), DomainPoint::new2(9, 14));
        assert!(t.is_injective());
        let degenerate = DynTransform::from_rows(2, &[&[2, 0], &[0, 0]], &[0, 0]);
        assert!(!degenerate.is_injective());
    }

    #[test]
    fn projection_to_lower_rank_not_injective() {
        // (x, y, z) -> (x, y): 2x3 matrix, out < in.
        let t = DynTransform::from_rows(3, &[&[1, 0, 0], &[0, 1, 0]], &[0, 0]);
        assert!(!t.is_injective());
        assert_eq!(t.apply(DomainPoint::new3(7, 8, 9)), DomainPoint::new2(7, 8));
    }

    #[test]
    fn embedding_to_higher_rank_injective() {
        // i -> (i, 2i): full column rank.
        let t = DynTransform::from_rows(1, &[&[1], &[2]], &[0, 3]);
        assert!(t.is_injective());
        assert_eq!(t.apply(DomainPoint::new1(5)), DomainPoint::new2(5, 13));
    }

    #[test]
    fn rank_deficient_square_matrix() {
        // Rows are linearly dependent.
        let t = DynTransform::from_rows(2, &[&[1, 2], &[2, 4]], &[0, 0]);
        assert!(!t.is_injective());
        // Shear: full rank.
        let s = DynTransform::from_rows(2, &[&[1, 1], &[0, 1]], &[0, 0]);
        assert!(s.is_injective());
    }

    #[test]
    fn dyn_transform_matches_typed() {
        let t = DynTransform::affine1(3, 7);
        assert_eq!(t.apply(DomainPoint::new1(5)), DomainPoint::new1(22));
        assert!(t.is_injective());
        assert!(!DynTransform::affine1(0, 7).is_injective());

        let id = DynTransform::identity(3);
        assert_eq!(
            id.apply(DomainPoint::new3(1, 2, 3)),
            DomainPoint::new3(1, 2, 3)
        );
        assert!(id.is_injective());
    }

    #[test]
    fn dyn_transform_plane_projection() {
        // (x,y,z) -> (x,y): the DOM exchange-plane shape.
        let t = DynTransform::from_rows(3, &[&[1, 0, 0], &[0, 1, 0]], &[0, 0]);
        assert_eq!(t.apply(DomainPoint::new3(4, 5, 6)), DomainPoint::new2(4, 5));
        assert!(!t.is_injective());
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn dyn_transform_rank_mismatch_panics() {
        DynTransform::identity(2).apply(DomainPoint::new3(0, 0, 0));
    }

    #[test]
    fn compose_applies_inner_first() {
        // g(i) = i + 1, f(i) = 2i: (g ∘ f)(5) = 11.
        let g = DynTransform::affine1(1, 1);
        let f = DynTransform::affine1(2, 0);
        let c = g.compose(&f);
        assert_eq!(c.apply(DomainPoint::new1(5)), DomainPoint::new1(11));
        // Mixed ranks: project 3-D → 2-D, then shear 2-D → 2-D.
        let proj = DynTransform::from_rows(3, &[&[1, 0, 0], &[0, 0, 1]], &[0, 0]);
        let shear = DynTransform::from_rows(2, &[&[1, 1], &[0, 1]], &[4, -2]);
        let sc = shear.compose(&proj);
        let p = DomainPoint::new3(2, 9, 7);
        assert_eq!(sc.apply(p), shear.apply(proj.apply(p)));
    }

    #[test]
    fn inverse_of_unimodular_round_trips() {
        // 2-D shear + swap with offsets: determinant −1.
        let t = DynTransform::from_rows(2, &[&[2, 1], &[1, 1]], &[5, -3]);
        let inv = t.inverse().expect("unimodular");
        for (x, y) in [(0, 0), (3, -4), (17, 29)] {
            let p = DomainPoint::new2(x, y);
            assert_eq!(inv.apply(t.apply(p)), p);
            assert_eq!(t.apply(inv.apply(p)), p);
        }
    }

    #[test]
    fn inverse_rejects_non_unimodular_and_non_square() {
        assert!(DynTransform::affine1(2, 0).inverse().is_none()); // det 2
        assert!(DynTransform::affine1(0, 7).inverse().is_none()); // det 0
        assert!(DynTransform::from_rows(3, &[&[1, 0, 0], &[0, 1, 0]], &[0, 0])
            .inverse()
            .is_none()); // 2×3
        assert!(DynTransform::affine1(-1, 9).inverse().is_some()); // det −1
    }
}
