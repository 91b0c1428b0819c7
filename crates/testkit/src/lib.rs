//! Hermetic test infrastructure for the index-launch workspace.
//!
//! This environment has no registry access, so the workspace builds with
//! **zero external crates**. This crate supplies, on `std` alone, the
//! pieces that third-party dev-dependencies used to provide:
//!
//! * [`rng`] — a deterministic [`SplitMix64`] seeder and
//!   [`TestRng`] (xoshiro256\*\*) generator, replacing
//!   `rand`;
//! * [`prop`] — a property-testing harness with composable generators,
//!   configurable case counts, printed failing seeds, and greedy
//!   shrinking, replacing `proptest`;
//! * [`json`] — a tiny JSON value type and emitter, replacing
//!   `serde`/`serde_json` for the runtime's stage reports and trace
//!   export;
//! * [`fnv`] — the FNV-1a hash the pin tests fold their results into.
//!
//! Everything is deterministic: a failing property prints its seed and
//! case index, and setting `IL_TESTKIT_SEED` reruns the exact failing
//! sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod json;
pub mod prop;
pub mod rng;

pub use fnv::{fnv1a, Fnv1a};
pub use json::Json;
pub use prop::{check, check_with, Config, Gen};
pub use rng::{SplitMix64, TestRng};
