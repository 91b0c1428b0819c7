//! Differential oracle for the index-launch fast path.
//!
//! The paper's core semantic claim (§2, Fig. 1) is that an index launch
//! is *equivalent* to the loop of individual task launches it replaces:
//! the O(1) descriptor plus the hybrid static/dynamic analysis must
//! produce exactly the dependences the desugared loop would. This crate
//! checks that equivalence end-to-end, with three pieces:
//!
//! * [`reference`](mod@reference) — a reference executor that desugars every
//!   [`IndexLaunchDesc`](il_runtime::IndexLaunchDesc) into |D| individual
//!   launches and computes ground-truth interference by brute-force
//!   pairwise (point, field, privilege) intersection. No projection-
//!   functor shortcuts, no bitmask checks, no partition metadata — just
//!   the definition of a conflict.
//! * [`genprog`] — a seeded random launch-program generator: random
//!   domains (dense, sparse, 2-D), nested/affine/opaque projection
//!   functors, mixed read/write/reduce privileges, multi-field region
//!   requirements, multi-launch programs.
//! * [`diff`] — the differential driver that runs each generated program
//!   through both the fast path (`il-analysis` hybrid verdicts +
//!   `il-runtime` depgraph expansion) and the oracle, asserting identical
//!   verdict classes, isomorphic dependence graphs (equal transitive
//!   closures under the canonical task labeling), and identical makespan
//!   under a serial machine model. Any divergence carries the single
//!   case seed that reproduces it.
//!
//! The generator lives here rather than in `il-testkit` because it
//! builds [`il_runtime::Program`]s, and `il-runtime` already depends on
//! `il-testkit` (dev) — putting it in the testkit would create a cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod genprog;
pub mod reference;

pub use diff::{
    check_program, run_case, run_differential, CaseResult, Coverage, DiffConfig, DiffReport,
    Divergence,
};
pub use genprog::generate_program;
pub use reference::{reference_expand, serial_makespan, transitive_closure, OracleGraph, OracleTask};
