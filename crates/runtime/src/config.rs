//! Runtime configuration and the calibrated cost model.

use crate::sdc::ReplicationConfig;
use il_machine::{FaultSpec, SimTime};

/// Whether task bodies really execute or are only cost-modeled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecutionMode {
    /// Execute real kernels over real physical instances, including real
    /// inter-node copies. Used by tests and examples on small machines;
    /// results are bit-identical across all runtime configurations.
    Validate,
    /// Skip kernel bodies and data allocation; charge modeled durations
    /// only. Used by the scaling experiments (Figures 4–10) at up to 1024
    /// nodes.
    Scale,
}

/// Configuration of one runtime execution — the axes of the paper's
/// evaluation (§6.2).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of nodes of the simulated machine.
    pub nodes: usize,
    /// Dynamic control replication (the "DCR" axis).
    pub dcr: bool,
    /// Index launches enabled (the "IDX" axis). When false every index
    /// launch is expanded into individual task launches at issuance.
    pub idx: bool,
    /// Legion-style tracing of repeated task-graph fragments. Note the §6
    /// interaction: without DCR, tracing works at individual-task
    /// granularity and forces expansion of index launches *before*
    /// distribution.
    pub tracing: bool,
    /// Run the dynamic projection-functor checks for launches the static
    /// analyzer could not prove (§4). Disabling them (after a verified
    /// run) removes their O(|D|) issuance cost, as in Figure 10.
    pub dynamic_checks: bool,
    /// Collect a structured per-stage event log of the run (op, task,
    /// node, stage, start, duration), returned in
    /// [`RunReport::trace`](crate::RunReport::trace) and exportable as
    /// Chrome `about:tracing` JSON. Off by default: the log is
    /// observability, never cost — it does not change simulated time.
    pub trace: bool,
    /// Run the pipeline audits at the end of the run: credit
    /// conservation (every task's initial wait count is paid by
    /// exactly-once credits) and slice-tree coverage (the non-DCR
    /// recursive-halving scatter delivers every slice exactly once).
    /// Defaults to on in debug builds, off in release.
    pub audit: bool,
    /// Whole-sequence trace capture & replay during expansion: a rolling
    /// window over launch signatures detects a repeated launch sequence
    /// (every app's time loop), captures its fully expanded dependence
    /// graph, sharding decisions, and distribution plan as a
    /// [`LaunchTrace`](crate::replay::LaunchTrace), and replays the trace
    /// on subsequent iterations instead of re-running logical/physical
    /// analysis — invalidating on any partition, privilege, domain, or
    /// functor change. Like the always-on verdict cache of
    /// [`AnalysisCacheStats`](crate::AnalysisCacheStats) this is
    /// *host-side* memoization: replayed runs are byte-identical to
    /// replay-off runs (locked by `tests/trace_replay.rs`); only the
    /// host-side expansion cost drops. Defaults to on; off restores
    /// bit-for-bit pre-subsystem behavior.
    pub trace_replay: bool,
    /// Execute or model task bodies.
    pub mode: ExecutionMode,
    /// Cost model constants.
    pub cost: CostModel,
    /// Seeded fault injection and recovery. `None` (the default) leaves
    /// every fault/recovery code path inert, so fault-free runs remain
    /// byte-identical to a build without this subsystem.
    pub faults: Option<FaultConfig>,
    /// Silent-data-corruption defense: which tasks execute on k nodes
    /// with output-digest voting. `None` (the default) leaves the
    /// replication/verification path inert, so defense-off runs remain
    /// byte-identical to a build without this subsystem.
    pub replication: Option<ReplicationConfig>,
}

impl RuntimeConfig {
    /// The paper's best configuration: DCR + index launches, tracing and
    /// dynamic checks on, in scale (modeled) execution.
    pub fn scale(nodes: usize) -> Self {
        RuntimeConfig {
            nodes,
            dcr: true,
            idx: true,
            tracing: true,
            dynamic_checks: true,
            trace: false,
            audit: cfg!(debug_assertions),
            trace_replay: true,
            mode: ExecutionMode::Scale,
            cost: CostModel::calibrated(),
            faults: None,
            replication: None,
        }
    }

    /// Validation-mode configuration for small machines.
    pub fn validate(nodes: usize) -> Self {
        RuntimeConfig {
            mode: ExecutionMode::Validate,
            ..RuntimeConfig::scale(nodes)
        }
    }

    /// Set the DCR/IDX axes (the four corners of Figures 4–8).
    pub fn with_axes(mut self, dcr: bool, idx: bool) -> Self {
        self.dcr = dcr;
        self.idx = idx;
        self
    }

    /// Enable/disable tracing.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Enable/disable the dynamic safety checks.
    pub fn with_dynamic_checks(mut self, on: bool) -> Self {
        self.dynamic_checks = on;
        self
    }

    /// Enable/disable structured per-stage trace collection.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable/disable the end-of-run pipeline audits.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Enable/disable trace capture & replay of repeated launch
    /// sequences.
    pub fn with_trace_replay(mut self, on: bool) -> Self {
        self.trace_replay = on;
        self
    }

    /// Enable seeded fault injection with the default fault mix.
    pub fn with_faults(mut self, seed: u64) -> Self {
        self.faults = Some(FaultConfig::from_seed(seed));
        self
    }

    /// Install a fully specified fault configuration.
    pub fn with_fault_config(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enable seeded silent-data-corruption injection: a corruption-only
    /// fault schedule (no crashes, drops, duplicates, or slow nodes) for
    /// `seed`. Compose with [`with_replication`](Self::with_replication)
    /// to turn the defense on.
    pub fn with_corruption(mut self, seed: u64) -> Self {
        self.faults = Some(FaultConfig::corrupting(seed));
        self
    }

    /// Install a replication policy for the silent-data-corruption
    /// defense.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = Some(replication);
        self
    }
}

/// Seeded fault-injection parameters.
///
/// The machine-side fault schedule (`FaultPlan`) is derived
/// deterministically from `seed`, `spec` and the machine shape, so the same
/// `(seed, RuntimeConfig)` always yields the same crashes, drops,
/// duplications, slow and corrupt nodes — and therefore a byte-identical
/// [`RunReport`](crate::RunReport). The recovery protocol's timing is
/// not configured here: the acknowledgement timeout and the retry budget
/// are constants of the executor's recovery layer (`recovery.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Master seed for the fault schedule.
    pub seed: u64,
    /// What the schedule contains: drop/duplication rates, crashes, slow
    /// and corrupt nodes.
    pub spec: FaultSpec,
}

impl FaultConfig {
    /// The default chaos mix for `seed`: moderate drop/duplication rates,
    /// at most one crash, one slow node, no corruption.
    pub fn from_seed(seed: u64) -> Self {
        FaultConfig { seed, spec: FaultSpec::default() }
    }

    /// A corruption-only schedule for `seed`: silent bit flips on one
    /// node's task outputs and message payloads, with every announced
    /// fault (crashes, drops, duplicates, slow nodes) turned off — the
    /// isolation mix the corruption chaos tier runs under.
    pub fn corrupting(seed: u64) -> Self {
        FaultConfig {
            spec: FaultSpec {
                drop_per_mille: 0,
                dup_per_mille: 0,
                max_crashes: 0,
                slow_nodes: 0,
                corrupt_nodes: 1,
                corrupt_per_mille: 250,
                corrupt_payload_per_mille: 125,
                ..FaultSpec::default()
            },
            ..FaultConfig::from_seed(seed)
        }
    }

    /// Whether this configuration schedules any silent corruption.
    pub fn corrupts(&self) -> bool {
        let s = &self.spec;
        s.corrupt_nodes > 0 && (s.corrupt_per_mille > 0 || s.corrupt_payload_per_mille > 0)
    }
}

/// Calibrated per-operation runtime overheads.
///
/// Values are chosen to sit in the regime the paper reports for
/// Regent/Legion on Piz Daint: task launch overheads of a few tens of
/// microseconds, dynamic-check costs of ~1.3 ns per functor evaluation
/// (Table 2: 10⁶ identity evaluations ≈ 1.3 ms), and an Aries-like
/// network. Absolute throughputs are not expected to match the paper's
/// hardware; the scaling *shapes* are.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Issuing one index-launch descriptor from the application to the
    /// runtime (one API call, §5 "a set of tasks can be issued with a
    /// single runtime call").
    pub issue_launch: SimTime,
    /// Issuing one individual task launch (paid |D| times when index
    /// launches are disabled).
    pub issue_task: SimTime,
    /// Logical (whole-partition) dependence analysis of one index-launch
    /// descriptor.
    pub logical_launch: SimTime,
    /// Logical dependence analysis of one individual task.
    pub logical_task: SimTime,
    /// Evaluating the sharding functor / expanding one local point during
    /// distribution.
    pub distribute_point: SimTime,
    /// Per-task physical analysis base cost; multiplied by log2(|P|)
    /// (§5: O(|D|_local · log |P|) via the distributed bounding volume
    /// hierarchy).
    pub physical_per_task: SimTime,
    /// Mapper invocation + instance selection per task.
    pub map_task: SimTime,
    /// Fixed processor-side overhead to start one task.
    pub start_task: SimTime,
    /// One projection-functor evaluation inside the dynamic check
    /// (Table 2/3 regime).
    pub dyn_check_per_eval: SimTime,
    /// Tracing: replaying one task's analysis from a captured trace,
    /// replacing `logical_task` + most of the physical analysis.
    pub trace_replay_per_task: SimTime,
    /// Centralized (non-DCR) runtime: per-unit completion/coordination
    /// processing on node 0. Without DCR every task's mapping
    /// coordination and completion flows through the owner node's
    /// runtime instance; with index launches (and no tracing) the unit
    /// is a whole slice, restoring scalability — this constant is what
    /// makes the centralized mode an honest bottleneck.
    pub central_complete: SimTime,
    /// Serialized size of a single-task launch message (non-DCR
    /// distribution of individual tasks).
    pub task_message_bytes: u64,
    /// Serialized size of an index-launch slice descriptor (fixed,
    /// independent of how many tasks the slice represents — the O(1)
    /// representation).
    pub slice_message_bytes: u64,
    /// Size of a completion/dependence notification message.
    pub notify_message_bytes: u64,
    /// Coordinator-side cost of one recovery probe: inspecting the
    /// completion journal for an outstanding op when its acknowledgement
    /// timer fires. Only charged when fault injection is enabled.
    pub recovery_check: SimTime,
    /// Computing the content digest of one task's output (the
    /// silent-data-corruption checksum). Only charged for replicated
    /// tasks.
    pub verify_digest: SimTime,
    /// Owner-side comparison of one replica's digest against the
    /// primary's during the corruption vote.
    pub verify_vote: SimTime,
    /// Size of a replica-digest report message.
    pub digest_message_bytes: u64,
}

impl CostModel {
    /// The default calibration used by all experiments.
    pub fn calibrated() -> Self {
        CostModel {
            issue_launch: SimTime::us(10),
            issue_task: SimTime::us(45),
            logical_launch: SimTime::us(12),
            logical_task: SimTime::us(18),
            distribute_point: SimTime::us(3),
            physical_per_task: SimTime::us(3),
            map_task: SimTime::us(12),
            start_task: SimTime::us(8),
            dyn_check_per_eval: SimTime::ns(2),
            trace_replay_per_task: SimTime::us(5),
            central_complete: SimTime::us(80),
            task_message_bytes: 512,
            slice_message_bytes: 256,
            notify_message_bytes: 64,
            recovery_check: SimTime::us(5),
            verify_digest: SimTime::us(6),
            verify_vote: SimTime::us(2),
            digest_message_bytes: 32,
        }
    }

    /// A zero-overhead cost model (unit tests that only care about
    /// semantics).
    pub fn free() -> Self {
        CostModel {
            issue_launch: SimTime::ZERO,
            issue_task: SimTime::ZERO,
            logical_launch: SimTime::ZERO,
            logical_task: SimTime::ZERO,
            distribute_point: SimTime::ZERO,
            physical_per_task: SimTime::ZERO,
            map_task: SimTime::ZERO,
            start_task: SimTime::ZERO,
            dyn_check_per_eval: SimTime::ZERO,
            trace_replay_per_task: SimTime::ZERO,
            central_complete: SimTime::ZERO,
            task_message_bytes: 0,
            slice_message_bytes: 0,
            notify_message_bytes: 0,
            recovery_check: SimTime::ZERO,
            verify_digest: SimTime::ZERO,
            verify_vote: SimTime::ZERO,
            digest_message_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = RuntimeConfig::scale(64);
        assert!(c.dcr && c.idx && c.tracing && c.dynamic_checks);
        assert_eq!(c.mode, ExecutionMode::Scale);
        let v = RuntimeConfig::validate(4);
        assert_eq!(v.mode, ExecutionMode::Validate);
        let c2 = c.with_axes(false, true).with_tracing(false).with_dynamic_checks(false);
        assert!(!c2.dcr && c2.idx && !c2.tracing && !c2.dynamic_checks);
        // Trace collection is opt-in; audits follow the build profile.
        assert!(!c2.trace);
        assert_eq!(c2.audit, cfg!(debug_assertions));
        let c3 = c2.with_trace(true).with_audit(true);
        assert!(c3.trace && c3.audit);
        // Trace replay defaults to on and toggles independently.
        assert!(c3.trace_replay);
        let c4 = c3.clone().with_trace_replay(false);
        assert!(!c4.trace_replay && c4.trace && c4.audit);
    }

    #[test]
    fn dyn_check_calibration_matches_table2_regime() {
        // 10^6 evaluations should land near the paper's ~1.3 ms.
        let c = CostModel::calibrated();
        let total = c.dyn_check_per_eval * 1_000_000;
        assert!(total >= SimTime::us(500) && total <= SimTime::ms(5), "{total}");
    }
}
