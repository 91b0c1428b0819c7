//! Silent-data-corruption defense: replication policies and counters.
//!
//! Crashes and dropped messages *announce themselves* — a crashed node
//! stops answering, a dropped message times out. Corruption doesn't: a
//! flipped bit in a task output propagates silently into every
//! downstream consumer. Following the selective-replication design of
//! *Protecting Futures against Silent Data Corruption* (see PAPERS.md),
//! the defense executes selected tasks on `k` nodes, digests each output
//! ([`PhysicalInstance::digest`](il_region::PhysicalInstance::digest)),
//! and commits a result only when every replica's digest agrees;
//! divergent votes quarantine the result and re-run the task through the
//! recovery retry path.
//!
//! Which tasks get replicated — and at what `k` — is a policy decision
//! with a real cost (k× execution plus digest/vote overhead, visible
//! under `Stage::Verify`). [`ReplicationConfig`] is the policy: plain
//! data carried in [`RuntimeConfig`](crate::RuntimeConfig) (and
//! per-tenant in `ServiceConfig`), covering the none / flagged-ops /
//! criticality-threshold / all spectrum, and asked per task through
//! [`ReplicationConfig::replicas`].

use il_machine::SimTime;

/// Which tasks execute on several nodes with a digest vote, and how many.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicationConfig {
    /// Never replicate: every task runs once, corruption escapes
    /// undetected. The explicit-off policy the negative-control tests
    /// run under.
    None,
    /// Replicate only tasks of explicitly flagged operations — the
    /// application knows which launches produce data it cannot afford
    /// to lose silently.
    Flagged {
        /// Operation indices (issue order) to protect.
        ops: Vec<u32>,
        /// Total executions per flagged task.
        k: usize,
    },
    /// Cost-model-driven selection: replicate a task when its modeled
    /// execution cost reaches `min_cost`. Expensive tasks are the ones
    /// whose corrupted results poison the most downstream work per
    /// flipped bit; cheap tasks are cheaper to lose and re-derive than
    /// to triple-run.
    Criticality {
        /// Minimum modeled task cost that triggers replication.
        min_cost: SimTime,
        /// Total executions per selected task.
        k: usize,
    },
    /// Replicate every task `k` ways: maximum protection, k× execution
    /// cost.
    All {
        /// Total executions per task.
        k: usize,
    },
}

impl ReplicationConfig {
    /// Replicate every task `k` ways.
    pub fn all(k: usize) -> Self {
        ReplicationConfig::All { k }
    }

    /// Replicate tasks whose modeled cost reaches `min_cost`, `k` ways.
    pub fn critical(min_cost: SimTime, k: usize) -> Self {
        ReplicationConfig::Criticality { min_cost, k }
    }

    /// Replicate tasks of the flagged operations, `k` ways.
    pub fn flagged(ops: Vec<u32>, k: usize) -> Self {
        ReplicationConfig::Flagged { ops, k }
    }

    /// Whether this configuration can ever replicate a task.
    pub fn is_active(&self) -> bool {
        match self {
            ReplicationConfig::None => false,
            ReplicationConfig::Flagged { ops, k } => !ops.is_empty() && *k >= 2,
            ReplicationConfig::Criticality { k, .. } => *k >= 2,
            ReplicationConfig::All { k } => *k >= 2,
        }
    }

    /// Total executions (primary included) for a task of operation `op`
    /// whose modeled execution cost is `task_cost`: 1 means no
    /// replication, `k >= 2` means `k - 1` extra replica executions plus
    /// a digest vote before the result commits. A selected task's `k`
    /// is clamped to at least 1.
    pub fn replicas(&self, op: u32, task_cost: SimTime) -> usize {
        let (selected, k) = match self {
            ReplicationConfig::None => return 1,
            ReplicationConfig::Flagged { ops, k } => (ops.contains(&op), *k),
            ReplicationConfig::Criticality { min_cost, k } => (task_cost >= *min_cost, *k),
            ReplicationConfig::All { k } => (true, *k),
        };
        if selected {
            k.max(1)
        } else {
            1
        }
    }
}

/// Counters of silent-data-corruption activity and defense during a run,
/// reported in [`RunReport::sdc`](crate::RunReport::sdc).
///
/// Like the host-side cache counters, these are deliberately excluded
/// from `stage_json`, so a defense-off run's observable report stays
/// byte-identical whether or not the subsystem exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SdcStats {
    /// Tasks the policy selected for replicated execution (k >= 2).
    pub replicated_tasks: u64,
    /// Extra (non-primary) replica executions performed.
    pub replicas: u64,
    /// Divergent digest votes: corruption detected before commit.
    pub detected: u64,
    /// Results quarantined after a divergent vote (never committed).
    pub quarantined: u64,
    /// Re-executions triggered by quarantined results.
    pub reruns: u64,
    /// Corrupted task outputs that committed unverified (k = 1) — the
    /// damage the defense exists to prevent. Zero whenever replication
    /// covers the corrupted tasks.
    pub escaped: u64,
    /// Corrupted message payloads detected at the receiver (defense on)
    /// and re-delivered clean.
    pub payload_detected: u64,
    /// Corrupted message payloads accepted by the receiver (defense off).
    pub payload_escaped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_select_as_documented() {
        assert_eq!(ReplicationConfig::None.replicas(0, SimTime::ms(1)), 1);
        assert_eq!(ReplicationConfig::all(3).replicas(7, SimTime::ZERO), 3);
        assert_eq!(ReplicationConfig::all(0).replicas(7, SimTime::ZERO), 1);
        let flagged = ReplicationConfig::flagged(vec![2, 5], 2);
        assert_eq!(flagged.replicas(2, SimTime::ZERO), 2);
        assert_eq!(flagged.replicas(3, SimTime::ZERO), 1);
        assert_eq!(ReplicationConfig::flagged(vec![2], 0).replicas(2, SimTime::ZERO), 1);
        let crit = ReplicationConfig::critical(SimTime::us(100), 3);
        assert_eq!(crit.replicas(0, SimTime::us(99)), 1);
        assert_eq!(crit.replicas(0, SimTime::us(100)), 3);
        assert_eq!(ReplicationConfig::critical(SimTime::ZERO, 0).replicas(0, SimTime::ZERO), 1);
    }

    #[test]
    fn is_active_iff_some_task_can_replicate() {
        assert!(!ReplicationConfig::None.is_active());
        assert!(!ReplicationConfig::all(1).is_active());
        assert!(!ReplicationConfig::flagged(vec![], 2).is_active());
        assert!(ReplicationConfig::all(2).is_active());
        assert!(ReplicationConfig::critical(SimTime::ZERO, 2).is_active());
    }
}
