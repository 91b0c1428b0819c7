//! The run report: what one execution (or one service session) returns,
//! assembled from the executor's shared state and the simulator's
//! counters once the session's events have drained.

use crate::config::ExecutionMode;
use crate::context::InstanceStore;
use crate::depgraph::AnalysisCacheStats;
use crate::exec::Shared;
use crate::recovery::RecoveryStats;
use crate::replay::TraceReplayStats;
use crate::sdc::SdcStats;
use crate::trace::{run_audits, AuditReport, TraceLog};
use il_machine::{FaultCounters, NodeId, SimTime, Stage, StageTotals, StageTraffic};
use il_testkit::Json;
use std::cell::RefCell;

/// Result of one runtime execution.
#[derive(Debug)]
pub struct RunReport {
    /// Latest simulated time any resource is busy.
    pub makespan: SimTime,
    /// Completion time of the last setup (untimed) task.
    pub setup_done: SimTime,
    /// `makespan − setup_done`: the duration of the timed portion, used
    /// for throughput.
    pub elapsed: SimTime,
    /// Point tasks executed.
    pub tasks: u64,
    /// Cross-node messages sent.
    pub messages: u64,
    /// Bytes injected into the network.
    pub bytes: u64,
    /// Total issuance-thread time spent in dynamic safety checks.
    pub dynamic_check_time: SimTime,
    /// Final value of the issuance/logical-analysis frontier.
    pub issuance_span: SimTime,
    /// Aggregate busy time per pipeline stage: per-node runtime threads
    /// and processors, plus the issuance/logical/dynamic-check timeline
    /// counted once (under DCR that timeline is replicated identically
    /// on every node; it is not multiplied here).
    pub stage_busy: StageTotals,
    /// Per-node, simulator-side per-stage busy time (distribution,
    /// physical, exec, network). Sparse: one `(node, totals)` row per
    /// node with nonzero totals, sorted by node id — on a 100k-node
    /// machine where only a few nodes ran work, the report stays small.
    /// The analytically computed issuance timeline is *not* folded in —
    /// each row's runtime-thread stages sum to at most the makespan.
    pub node_stage_busy: Vec<(NodeId, StageTotals)>,
    /// Cross-node messages by sending stage.
    pub stage_messages: [u64; Stage::COUNT],
    /// Bytes injected into the network by sending stage.
    pub stage_bytes: [u64; Stage::COUNT],
    /// The structured per-stage event log (when [`crate::RuntimeConfig::trace`]).
    pub trace: Option<TraceLog>,
    /// Pipeline-audit outcome (when [`crate::RuntimeConfig::audit`]).
    pub audit: Option<AuditReport>,
    /// Final instances (validation mode only).
    pub store: Option<InstanceStore>,
    /// Expansion-time analysis-cache accounting. Host-side observability
    /// only — deliberately *not* part of [`RunReport::stage_json`], so
    /// cache-on and cache-off runs stay byte-identical there.
    pub analysis_cache: AnalysisCacheStats,
    /// Expansion-time trace capture/replay accounting (plus, under fault
    /// injection, invalidations forced by crash re-shards of replayed
    /// ops). Host-side observability only — like `analysis_cache`,
    /// deliberately *not* part of [`RunReport::stage_json`], so replay-on
    /// and replay-off runs stay byte-identical there.
    pub trace_replay: TraceReplayStats,
    /// Fault and recovery accounting (when [`crate::RuntimeConfig::faults`]
    /// is set; `None` on fault-free runs, which therefore stay
    /// byte-identical to a build without the subsystem).
    pub recovery: Option<RecoveryStats>,
    /// Silent-data-corruption and defense accounting: `Some` when the
    /// fault plan schedules corruption or a replication policy is active.
    /// Host-side observability only — like `analysis_cache`, deliberately
    /// *not* part of [`RunReport::stage_json`], so corruption-free
    /// defense-off runs stay byte-identical to a build without the
    /// subsystem.
    pub sdc: Option<SdcStats>,
}

impl RunReport {
    /// Per-stage summary as a JSON object: for every stage, busy
    /// nanoseconds plus message/byte counts attributed to it.
    pub fn stage_json(&self) -> Json {
        let mut obj = Json::obj();
        for (stage, busy) in self.stage_busy.iter() {
            obj = obj.set(
                stage.name(),
                Json::obj()
                    .set("busy_ns", busy.as_ns())
                    .set("messages", self.stage_messages[stage.index()])
                    .set("bytes", self.stage_bytes[stage.index()]),
            );
        }
        // Fault/recovery counters ride under their own key ("recovery" is
        // already taken by the stage loop above) — and only when fault
        // injection was on, so fault-free stage summaries are unchanged.
        if let Some(r) = &self.recovery {
            obj = obj.set(
                "faults",
                Json::obj()
                    .set("seed", r.seed)
                    .set("crashes", r.crashes)
                    .set("slow_nodes", r.slow_nodes)
                    .set("dropped", r.dropped)
                    .set("duplicated", r.duplicated)
                    .set("crash_dropped", r.crash_dropped)
                    .set("recovery_checks", r.recovery_checks)
                    .set("retried_tasks", r.retried_tasks)
                    .set("resharded_groups", r.resharded_groups)
                    .set("reanalyses", r.reanalyses)
                    .set("duplicate_credits", r.duplicate_credits)
                    .set("late_credits", r.late_credits),
            );
        }
        obj
    }
}

/// Simulator-side aggregates of one session, extracted before the shared
/// state is unwrapped: the whole machine's counters on the legacy path,
/// one lane's slice in service mode. All times are session-relative (the
/// caller subtracts `t0` where it applies).
pub(crate) struct SimAggregates {
    /// Latest busy instant of the session's nodes, crash-clamped,
    /// relative to the session's `t0`.
    pub(crate) makespan: SimTime,
    pub(crate) messages: u64,
    pub(crate) bytes: u64,
    pub(crate) traffic: StageTraffic,
    pub(crate) fault_counters: FaultCounters,
    /// Per-stage busy time of the session's nodes (issuance timeline not
    /// yet folded in).
    pub(crate) stage_busy: StageTotals,
    /// Sparse per-node stage rows, session-local node ids.
    pub(crate) node_stage_busy: Vec<(NodeId, StageTotals)>,
}

/// Assemble a [`RunReport`] from a finished session's shared state and
/// its simulator aggregates. Field-for-field the tail of the pre-service
/// `execute` — both paths now end here, which is what the n=1
/// transparency tier byte-compares.
pub(crate) fn finish_report(shared: Shared<'_>, agg: SimAggregates) -> RunReport {
    let t0 = shared.t0;
    let total_tasks = shared.tasks.len() as u64;
    let timing = shared.timing.into_inner();
    let setup_done = timing.setup_done.saturating_sub(t0);
    let store = (shared.config.mode == ExecutionMode::Validate).then(|| shared.store.into_inner());

    assert_eq!(
        timing.tasks_done, total_tasks,
        "deadlock or lost tasks: {} of {} completed",
        timing.tasks_done, total_tasks
    );

    let audit = shared.audit.map(|cell| {
        run_audits(
            &cell.into_inner(),
            &(0..total_tasks as u32).map(|t| shared.tasks.waits(t)).collect::<Vec<_>>(),
            &shared.compact_ops,
            shared.recovery.is_some(),
        )
    });

    // Fault schedule counts are scoped to the session's nodes (the whole
    // machine on the legacy path).
    let span = shared.base..shared.base + shared.config.nodes;
    let recovery = shared.recovery.as_ref().map(|fr| fr.stats(span, &agg.fault_counters));
    let sdc = shared.sdc.as_ref().map(|s| s.stats());

    // Fold the issuance/logical/dynamic-check timeline in once: under
    // DCR it is replicated identically on every node, so multiplying it
    // by the node count would misstate the work the paper attributes to
    // the pipeline front end.
    let mut stage_busy = agg.stage_busy;
    stage_busy.merge(&shared.issuance_stage);

    RunReport {
        makespan: agg.makespan,
        setup_done,
        elapsed: agg.makespan.saturating_sub(setup_done),
        tasks: total_tasks,
        messages: agg.messages,
        bytes: agg.bytes,
        dynamic_check_time: shared.dynamic_check_time,
        issuance_span: shared.frontier.last().copied().unwrap_or(SimTime::ZERO),
        stage_busy,
        node_stage_busy: agg.node_stage_busy,
        stage_messages: agg.traffic.messages,
        stage_bytes: agg.traffic.bytes,
        trace: shared.trace.map(RefCell::into_inner),
        audit,
        store,
        analysis_cache: shared.tasks.analysis_cache,
        trace_replay: shared.tasks.trace_replay,
        recovery,
        sdc,
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::execute;
    use crate::program::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};
    use crate::sdc::ReplicationConfig;
    use crate::RuntimeConfig;
    use il_geometry::Domain;
    use il_machine::SimTime;
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc, Privilege};

    /// Transparency of the trace-replay stats surface: `RunReport`
    /// carries `trace_replay` counters, but `stage_json()` — the
    /// byte-compared observable in the equivalence tiers — must not
    /// mention them, and must be identical with replay on and off even
    /// when a trace actually captures and replays.
    #[test]
    fn trace_replay_stats_stay_out_of_stage_json() {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(8), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 4);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        for _ in 0..6 {
            b.index_launch(IndexLaunchDesc {
                task: t,
                domain: Domain::range(4),
                reqs: vec![RegionReq {
                    partition: p,
                    functor: ident,
                    privilege: Privilege::ReadWrite,
                    fields: vec![f],
                    tree: r.tree,
                    field_space: fs,
                }],
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::us(10)),
                shard: None,
            });
        }
        let program = b.build();
        let cfg_on = RuntimeConfig::scale(2);
        let on = execute(&program, &cfg_on);
        let off = execute(&program, &cfg_on.clone().with_trace_replay(false));
        assert!(
            on.trace_replay.captured > 0 && on.trace_replay.replayed > 0,
            "identical launches must capture and replay: {:?}",
            on.trace_replay
        );
        // The `trace_replay` *stage bucket* is part of the fixed stage
        // schema (present, zero simulated time, on and off alike); the
        // capture/replay *counters* must never leak into it.
        let json = on.stage_json().to_string();
        for counter in ["captured", "replayed", "invalidated", "analyses_skipped"] {
            assert!(
                !json.contains(counter),
                "trace-replay counter {counter:?} leaked into stage JSON: {json}"
            );
        }
        assert_eq!(json, off.stage_json().to_string(), "stage JSON differs with replay on/off");
        assert_eq!(on.makespan, off.makespan);
    }

    /// Transparency of the SDC surface, mirroring the trace-replay
    /// contract: `RunReport.sdc` carries the corruption/defense counters,
    /// but `stage_json()` — the byte-compared observable — must never
    /// mention them.
    #[test]
    fn sdc_stats_stay_out_of_stage_json() {
        let mut b = ProgramBuilder::new();
        let mut fs = FieldSpaceDesc::new();
        let f = fs.add("v", FieldKind::F64);
        let fs = b.forest.create_field_space(fs);
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = equal_partition_1d(&mut b.forest, r.space, 8);
        let ident = b.identity_functor();
        let t = b.task_modeled("t");
        for _ in 0..4 {
            b.index_launch(IndexLaunchDesc {
                task: t,
                domain: Domain::range(8),
                reqs: vec![RegionReq {
                    partition: p,
                    functor: ident,
                    privilege: Privilege::ReadWrite,
                    fields: vec![f],
                    tree: r.tree,
                    field_space: fs,
                }],
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::us(25)),
                shard: None,
            });
        }
        let program = b.build();

        let cfg = RuntimeConfig::scale(2)
            .with_corruption(7)
            .with_replication(ReplicationConfig::all(2));
        let on = execute(&program, &cfg);
        let sdc = on.sdc.clone().expect("a corrupting run must report sdc stats");
        assert!(
            sdc.replicated_tasks > 0 && sdc.replicas > 0,
            "replicate-all must have replicated something: {sdc:?}"
        );
        assert_eq!(sdc.escaped, 0, "replication covered every task: {sdc:?}");
        let json = on.stage_json().to_string();
        for counter in [
            "replicated_tasks",
            "replicas",
            "detected",
            "quarantined",
            "reruns",
            "escaped",
            "payload_detected",
            "payload_escaped",
        ] {
            assert!(
                !json.contains(counter),
                "sdc counter {counter:?} leaked into stage JSON: {json}"
            );
        }
    }
}
