//! Projection functors and the hybrid index-launch safety analysis.
//!
//! An index launch `forall(D, T, ⟨P₁,f₁⟩, …, ⟨Pₙ,fₙ⟩)` is *safe* — all |D|
//! tasks may run in parallel — when the tasks are non-interfering (§3).
//! This crate implements both halves of the paper's hybrid design (§4):
//!
//! * a **static analyzer** ([`static_analysis`]) that recognizes trivial
//!   projection functors (constant, identity, affine, modular) and decides
//!   their injectivity over the launch domain at "compile time";
//! * a **dynamic analyzer** ([`dynamic`]) — the bitmask check of Listing 3
//!   — that is sound and complete for *arbitrary* functors at O(|D| + |P|)
//!   cost, including the linear-time multi-argument cross-check;
//! * the **hybrid driver** ([`hybrid`]) that applies the §3 self-check and
//!   cross-check rules, preferring static proofs and emitting a dynamic
//!   check plan only for the residue the static analyzer cannot decide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmask;
pub mod dynamic;
pub mod hybrid;
pub mod proj;
pub mod static_analysis;

pub use dynamic::{
    cross_check, cross_check_reference, self_check, self_check_reference, ArgCheck, CheckOutcome,
};
pub use hybrid::{analyze_launch, DynamicCheckPlan, HybridVerdict, LaunchArg, UnsafeReason};
pub use proj::{ColorRun, ProjExpr, ILL_FORMED_COLOR, MAX_COLOR_RUNS};
pub use static_analysis::{analyze_injectivity, StaticVerdict};
