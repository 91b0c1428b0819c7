//! A Legion-style task runtime with index launches.
//!
//! This crate implements the runtime side of the paper (§5): the
//! four-stage pipeline — **task issuance**, **logical analysis**,
//! **distribution**, **physical analysis** — followed by data movement and
//! task execution, on the simulated distributed machine of
//! [`il_machine`]. The two axes the evaluation sweeps are both first-class
//! configuration:
//!
//! * `dcr` — dynamic control replication: every node replays the issuance
//!   stream and analyses identically (no communication), vs. the original
//!   centralized mode where node 0 issues everything and distributes work
//!   over the network;
//! * `idx` — index launches: a launch of |D| tasks is carried as a single
//!   O(1) descriptor through issuance/logical analysis/distribution, vs.
//!   being expanded into |D| individual task launches at issuance.
//!
//! Also modeled: Legion's **tracing** (which, without DCR, forces index
//! launches to expand *before* distribution — the effect Figures 5 vs 6
//! isolate) and the hybrid **dynamic safety checks** of `il_analysis`
//! (chargeable, and disableable as in §6.2.3 / Figure 10).
//!
//! ## Simulation architecture
//!
//! Each simulated node runs real runtime logic; what is *modeled* is time:
//!
//! * The issuance + logical-analysis timeline is computed once per run.
//!   Under DCR it is identical on every node by construction (§5: "all
//!   nodes in the machine simultaneously issue identical index launches
//!   ... without any communication"), so computing it once and using it as
//!   the per-node analysis frontier is exact, and keeps the simulation
//!   tractable at 1024 nodes. Without DCR the timeline belongs to node 0
//!   only, and all distribution is explicit messages (with NIC
//!   serialization — the centralized bottleneck is honest).
//! * Dependences between point tasks are computed *exactly* by a
//!   dependence oracle over the region forest (the same non-interference
//!   rules Legion's physical analysis resolves); the runtime charges the
//!   §5 complexity — O(|D|_local · log |P|) per node — for discovering
//!   them, and completion notifications/copies cross the simulated
//!   network as real messages.
//! * Task bodies either execute real kernels over real
//!   [`il_region::PhysicalInstance`]s (validation mode, small machines) or
//!   charge modeled kernel durations (scale mode, up to 1024 nodes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod credits;
pub mod depgraph;
pub mod exec;
mod hash;
mod issuance;
pub mod pool;
pub mod program;
mod recovery;
pub mod replay;
mod report;
pub mod sdc;
pub mod service;
pub mod shard;
pub mod trace;

pub use config::{CostModel, ExecutionMode, FaultConfig, RuntimeConfig};
pub use context::{InstanceStore, TaskContext};
pub use credits::{CreditGroup, CreditTable, EdgeSlots};
pub use depgraph::{
    expand_program, expand_program_warm, launch_signature, AnalysisCacheStats, ExpandProfile,
    ExpandedProgram, OpDist, OpSafety, TaskInstance, WarmState,
};
pub use exec::execute;
pub use service::{
    policy_by_name, AgedPriority, FairShare, Fifo, PendingView, SchedulingPolicy, Service,
    ServiceConfig, ServiceReport, SessionReport, SessionSpec,
};
pub use program::{
    CostSpec, FunctorId, IndexLaunchDesc, Operation, Program, ProgramBuilder, RegionReq, TaskBody,
    TaskId,
};
pub use recovery::RecoveryStats;
pub use replay::{LaunchTrace, TraceMark, TraceMarkKind, TraceReplayStats};
pub use report::RunReport;
pub use sdc::{ReplicationConfig, SdcStats};
pub use shard::{
    block_shard, position_in_domain, round_robin_shard, sharding_identity, ShardDomain, ShardingFn,
};
pub use trace::{AuditReport, TraceEvent, TraceLog};
