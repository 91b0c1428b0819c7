//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§6).
//!
//! * [`figures`] — the scaling experiments (Figures 4–10), run on the
//!   simulated machine across node counts and runtime configurations,
//!   parallelized over a work-stealing pool;
//! * [`tables`] — the dynamic-check microbenchmarks (Tables 2–3) and the
//!   §6.3 extrapolation, measured in real wall-clock time on this machine
//!   (no simulation — the checks are ordinary single-node code);
//! * [`render`] — ASCII tables and CSV output.
//!
//! Regenerate everything with `cargo run -p il-bench --release --bin
//! figures -- all`; see `EXPERIMENTS.md` for paper-vs-measured notes.
//! Host performance of the runtime itself is measured by the
//! `benchmark/` workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod render;
pub mod tables;

pub use figures::{FigPoint, Figure};
pub use tables::{extrapolate_checks, table2, table3, TableRow};
