//! The paper's evaluation applications (§6.1), built on the index-launch
//! runtime:
//!
//! * [`circuit`] — an electrical-circuit simulation on an unstructured
//!   graph, previously optimized in the DCR paper. Trivial (identity)
//!   projection functors only: verified entirely by the static checker.
//! * [`stencil`] — the PRK 2-D radius-2 star stencil. Trivial functors.
//! * [`soleil`] — Soleil-mini: a multi-physics code with turbulent-fluid,
//!   particle, and discrete-ordinates-radiation (DOM) modules. The DOM
//!   sweeps launch over 3-D diagonal wavefront slices with non-trivial
//!   projection functors into 2-D exchange planes — statically
//!   undecidable, verified by the dynamic check (§6.2.3).
//! * [`amr`] — a block-structured adaptive-mesh-refinement driver whose
//!   partitions are refined/coarsened in place every few timesteps,
//!   turning over captured traces, cached verdicts, and shard maps at
//!   every regrid boundary.
//! * [`pagerank`] — pull-mode PageRank over a seeded power-law graph
//!   with a data-dependent (opaque) piece permutation: the static
//!   analyzer cannot classify it, so every update launch takes the
//!   dynamic bitmask check at full launch-domain size.
//!
//! Every application provides a [`il_runtime::Program`] builder usable in
//! two modes: **validation** (real kernels over real instances on a small
//! machine, checked against a sequential reference) and **scale**
//! (cost-modeled kernels, up to 1024 simulated nodes — the mode the
//! figures are generated in).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amr;
pub mod circuit;
mod kernel;
pub mod pagerank;
pub mod service_mix;
pub mod soleil;
pub mod stencil;
