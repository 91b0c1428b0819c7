//! Logical regions, partitions, and physical instances.
//!
//! This crate is the data model of the programming model in §2 of the
//! paper: data is organized into *collections* (here: logical regions — an
//! index space crossed with a field space), which can be *partitioned* into
//! named subsets. Partitions may be **disjoint** or **aliased**, and the
//! same collection may be partitioned multiple ways; all partitions are
//! views onto the same underlying data. Tasks declare *privileges*
//! (read / write / read-write / reduce) on the regions they access.
//!
//! The [`RegionForest`] owns the shape metadata (index spaces, partitions,
//! regions, field spaces) and answers the two questions the index-launch
//! analyses need:
//!
//! * is partition `P` disjoint? (§3 self-checks)
//! * are two regions provably disjoint? (logical dependence analysis)
//!
//! Physical data lives in [`PhysicalInstance`]s — per-field dense storage
//! over a subregion's domain — with typed accessors and commutative
//! [`reduction`] operators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bvh;
pub mod field;
pub mod forest;
pub mod ids;
pub mod instance;
pub mod partition_ops;
pub mod privilege;
pub mod reduction;

pub use bvh::{coverage_boxes, BBox, BvhSet, MAX_COVERAGE_BOXES};
pub use field::{FieldKind, FieldSpaceDesc, FieldValue};
pub use forest::{
    domain_intersection, domains_overlap, overlap_volume, ColorTable, Disjointness,
    IndexPartitionNode, IndexSpaceNode, PartitionError, RegionForest,
};
pub use ids::{FieldId, FieldSpaceId, IndexPartitionId, IndexSpaceId, LogicalRegion, RegionTreeId};
pub use instance::{FieldAccessor, FieldStore, PhysicalInstance};
pub use partition_ops::{
    block_partition_2d, block_partition_3d, coloring_partition, equal_partition_1d,
    halo_partition_1d, halo_partition_2d, halo_partition_3d, replace_equal_partition_1d,
    replace_halo_partition_1d, try_block_partition_2d, try_block_partition_3d,
    try_equal_partition_1d, try_halo_partition_1d, try_halo_partition_2d, try_halo_partition_3d,
};
pub use privilege::Privilege;
pub use reduction::{ReductionKind, ReductionOpId};
