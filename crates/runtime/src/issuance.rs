//! Issuance + logical analysis (§5) as one analytically computed
//! timeline: replicated identically on every node under DCR, so one
//! computation serves all; node 0's without it. Index launches cost O(1)
//! per launch here, O(|D|) with IDX off. Tracing replaces per-task
//! analysis with cheap replay after a launch signature's first
//! occurrence — and, without DCR, forces index launches to expand
//! *before* distribution (§6.2.1).

use crate::config::RuntimeConfig;
use crate::depgraph::{launch_signature, OpSafety};
use crate::table::TaskTable;
use crate::program::Program;
use crate::trace::TraceEvent;
use il_machine::{SimTime, Stage, StageTotals};
use std::collections::HashSet;

/// Whether this op is carried as a compact index launch through issuance
/// and logical analysis.
fn issuance_is_compact(config: &RuntimeConfig, safety: &OpSafety) -> bool {
    config.idx && !matches!(safety, OpSafety::Sequential)
}

/// The analytically computed issuance/logical-analysis timeline:
/// per-op frontier plus its per-stage decomposition and (when tracing)
/// the corresponding structured events.
pub(crate) struct IssuanceTimeline {
    /// Time each op clears logical analysis.
    pub(crate) frontier: Vec<SimTime>,
    /// Total time spent in dynamic safety checks.
    pub(crate) dyn_total: SimTime,
    /// Per-stage decomposition of the timeline (issuance, logical,
    /// dynamic checks, and the distribution work the tracing-without-DCR
    /// expansion forces onto the issuing node).
    pub(crate) stage: StageTotals,
    /// One event per contiguous stage segment (only when `config.trace`).
    pub(crate) events: Vec<TraceEvent>,
}

impl IssuanceTimeline {
    /// Advance the timeline cursor `t` by `dur` attributed to `stage`,
    /// recording a trace event for the segment when requested.
    fn segment(&mut self, t: &mut SimTime, trace: bool, op: u32, stage: Stage, dur: SimTime) {
        if dur == SimTime::ZERO {
            return;
        }
        self.stage.add(stage, dur);
        if trace {
            self.events.push(TraceEvent {
                op,
                task: None,
                node: 0,
                stage,
                start: *t,
                duration: dur,
            });
        }
        *t += dur;
    }
}

/// Compute the issuance + logical-analysis frontier (identical on every
/// node under DCR; node 0's otherwise), decomposed by stage.
pub(crate) fn compute_frontier(
    program: &Program,
    tasks: &TaskTable,
    config: &RuntimeConfig,
) -> IssuanceTimeline {
    let cost = &config.cost;
    let mut t = SimTime::ZERO;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut tl = IssuanceTimeline {
        frontier: Vec::with_capacity(program.ops.len()),
        dyn_total: SimTime::ZERO,
        stage: StageTotals::new(),
        events: Vec::new(),
    };
    for (i, op) in program.ops.iter().enumerate() {
        let launch = op.launch();
        let d = launch.domain.volume();
        let safety = &tasks.safety[i];
        let opi = i as u32;
        if config.dynamic_checks {
            if let OpSafety::Dynamic { evals } = safety {
                let check = cost.dyn_check_per_eval * *evals;
                tl.dyn_total += check;
                tl.segment(&mut t, config.trace, opi, Stage::DynamicChecks, check);
            }
        }
        // Two launches replay the same trace only if their full
        // analysis-relevant shape matches: the signature hashes the whole
        // domain (sparse point lists included) and every requirement's
        // privilege, reduction op and field list. Only tracing reads it.
        let traced = config.tracing && !seen.insert(launch_signature(launch, program));
        let per_task = if traced {
            cost.trace_replay_per_task
        } else {
            cost.logical_task
        };
        // Per-task charges for a traced repeat are replay work, not fresh
        // logical analysis — attribute them to their own stage.
        let logical_stage = if traced { Stage::TraceReplay } else { Stage::Logical };
        if issuance_is_compact(config, safety) {
            if config.dcr || !config.tracing {
                // Compact through issuance, logical analysis, and (under
                // DCR) distribution: O(1) per launch.
                tl.segment(&mut t, config.trace, opi, Stage::Issuance, cost.issue_launch);
                tl.segment(&mut t, config.trace, opi, Stage::Logical, cost.logical_launch);
            } else {
                // Tracing without DCR: the trace captures/replays
                // individual tasks, forcing expansion before distribution
                // (§6.2.1) — O(|D|) on node 0 despite the index launch.
                tl.segment(
                    &mut t,
                    config.trace,
                    opi,
                    Stage::Issuance,
                    cost.issue_launch + cost.issue_task * d,
                );
                tl.segment(
                    &mut t,
                    config.trace,
                    opi,
                    Stage::Distribution,
                    cost.distribute_point * d,
                );
                tl.segment(&mut t, config.trace, opi, logical_stage, per_task * d);
            }
        } else {
            tl.segment(&mut t, config.trace, opi, Stage::Issuance, cost.issue_task * d);
            tl.segment(&mut t, config.trace, opi, logical_stage, per_task * d);
        }
        tl.frontier.push(t);
    }
    tl
}
