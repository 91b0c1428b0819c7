//! Geometric primitives for the index-launch workspace.
//!
//! This crate provides the coordinate-space machinery everything else is
//! built on: const-generic [`Point`]s and [`Rect`]s (inclusive bounds, as in
//! Legion), rank-erased [`Domain`]s and [`DomainPoint`]s used where the rank
//! is only known at runtime (launch domains, color spaces), bijective
//! row-major [`linearize`](Rect::linearize) / [`delinearize`](Rect::delinearize)
//! maps used by the dynamic projection-functor checks, and the affine
//! [`DynTransform`]s used by affine projection functors.
//!
//! Coordinates are `i64` throughout; rectangles use *inclusive* upper bounds
//! (`lo..=hi`), matching the conventions of the Legion runtime the paper's
//! system is embedded in. An empty rectangle is any rectangle with
//! `lo[d] > hi[d]` in some dimension.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Matrix/coordinate kernels index fixed-size arrays by dimension; the
// index form is the clearer idiom there.
#![allow(clippy::needless_range_loop)]

pub mod domain;
pub mod iter;
pub mod point;
pub mod rect;
pub mod transform;

pub use domain::{Domain, DomainPoint, SparseDomain};
pub use iter::{DomainIter, RectIter};
pub use point::Point;
pub use rect::Rect;
pub use transform::DynTransform;

/// Maximum rank supported by the rank-erased [`Domain`] / [`DomainPoint`]
/// types. The paper's applications use 1-D, 2-D and 3-D domains.
pub const MAX_DIM: usize = 3;
