//! Deterministic discrete-event machine simulator.
//!
//! The paper evaluates index launches on up to 1024 nodes of Piz Daint, a
//! Cray XC50. We do not have a supercomputer; instead the runtime executes
//! on a *simulated* distributed machine. Every node hosts a real runtime
//! instance; messages between nodes are delivered by a deterministic
//! discrete-event simulation ([`Simulator`]) with an α–β [`Network`] cost
//! model and per-node NIC serialization, and each node's sequential runtime
//! work is accounted on a per-node node clock.
//!
//! The simulation is fully deterministic: events are ordered by
//! `(timestamp, sequence number)`, so two runs of the same program produce
//! identical event interleavings, simulated times, and results. This is what
//! makes the scaling experiments (Figures 4–10) reproducible and lets the
//! integration tests assert bit-identical application output across all
//! runtime configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod fault;
pub mod machine;
pub mod network;
pub mod queue;
pub mod stage;
pub mod time;

pub use des::{LaneStats, NodeBehavior, NodeCtx, SimError, SimStats, Simulator};
pub use fault::{FaultCounters, FaultPlan, FaultSpec};
pub use machine::MachineDesc;
pub use network::Network;
pub use queue::{BinaryHeapQueue, CalendarQueue, Event, EventQueue, QueueKind};
pub use stage::{Stage, StageTotals, StageTraffic};
pub use time::SimTime;

/// Identifier of a node in the simulated machine.
pub type NodeId = usize;
