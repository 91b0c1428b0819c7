//! A mini-Regent loop optimizer for index launches.
//!
//! The Regent compiler turns apparently sequential task-launch loops
//! (Listings 1–2 of the paper) into index launches when it can prove — or
//! dynamically check — non-interference (§4). This crate reproduces that
//! pass over a small loop IR:
//!
//! 1. **Eligibility**: the loop body contains a task launch plus simple
//!    statements, and no loop-carried scalar dependencies other than
//!    reductions.
//! 2. **Hybrid analysis**: the §3 self- and cross-checks run per argument
//!    via [`il_analysis`]; statically safe loops become plain index
//!    launches, statically *undecidable* loops become a guarded launch —
//!    a dynamic check (Listing 3) followed by a branch between the index
//!    launch and the original sequential loop — and statically unsafe
//!    loops stay sequential.
//! 3. **Lowering**: plans lower onto [`il_runtime`] launch descriptors.
//!
//! The optimizer also produces compiler-style diagnostics mirroring the
//! paper's walkthrough of Listing 2.
//!
//! This crate is a standalone demonstration of §4: `examples/quickstart.rs`
//! and `tests/workspace_integration.rs` reach it, while the five apps in
//! `il-apps` build their index-launch descriptors by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ir;
pub mod lower;
pub mod optimizer;

pub use ir::{LoopStmt, RegionArg, ScalarUse, TaskLoop};
pub use lower::lower_plan;
pub use optimizer::{optimize_loop, Plan};
