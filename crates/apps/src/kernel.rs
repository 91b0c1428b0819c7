//! Rows of a block, the unit the structured kernels work in.
//!
//! A kernel takes one `FieldAccessor::row` per row of its block and runs
//! its inner loop on the plain slice; the accessor's bounds check is paid
//! once per row, not once per cell.

use il_geometry::{Domain, DomainPoint};

/// The rows of the box `[lo, hi]` (inclusive, rank 1–3): one
/// `(first, len)` per prefix of the first `dim − 1` coordinates, in
/// row-major order, each running `len` cells along the last dimension.
/// None when the box is empty.
pub(crate) fn rows(lo: DomainPoint, hi: DomainPoint) -> impl Iterator<Item = (DomainPoint, usize)> {
    let (dim, last) = (lo.dim(), lo.dim() - 1);
    let len = usize::try_from(hi.coord(last) - lo.coord(last) + 1).unwrap_or(0);
    let outer = move |d: usize| if d < last { lo.coord(d)..=hi.coord(d) } else { 0..=0 };
    let inner = outer(1);
    outer(0)
        .flat_map(move |a| inner.clone().map(move |b| [a, b, 0]))
        .filter(move |_| len > 0)
        .map(move |mut c| {
            c[last] = lo.coord(last);
            (DomainPoint::from_slice(&c[..dim]), len)
        })
}

/// The rows of a rectangular block.
///
/// # Panics
/// Panics on a sparse domain, whose bounding box holds cells it does not.
pub(crate) fn block_rows(block: &Domain) -> impl Iterator<Item = (DomainPoint, usize)> {
    assert!(!matches!(block, Domain::Sparse(_)), "a row kernel needs a rectangular block");
    let (lo, hi) = block.bounds();
    rows(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;

    /// The rows cover the box's points exactly once, in iteration order.
    #[test]
    fn rows_tile_the_box_in_order() {
        let boxes: [Domain; 5] = [
            Rect::new1(-2, 3).into(),
            Rect::new2((1, -1), (3, 2)).into(),
            Rect::new3((0, 0, 0), (1, 2, 3)).into(),
            Rect::new2((0, 0), (2, -1)).into(),
            Rect::new3((0, 0, 0), (-1, 2, 2)).into(),
        ];
        for b in &boxes {
            let cells: Vec<DomainPoint> = block_rows(b)
                .flat_map(|(first, len)| {
                    (0..len as i64).map(move |k| {
                        let mut c = first.coords().to_vec();
                        *c.last_mut().expect("rank ≥ 1") += k;
                        DomainPoint::from_slice(&c)
                    })
                })
                .collect();
            assert_eq!(cells, b.iter().collect::<Vec<_>>(), "{b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "rectangular block")]
    fn a_sparse_block_has_no_rows() {
        let _ = block_rows(&Domain::sparse(vec![DomainPoint::new1(0), DomainPoint::new1(2)]));
    }
}
