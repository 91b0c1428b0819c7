//! Seeded, deterministic fault plans for the DES machine.
//!
//! A [`FaultPlan`] is derived *up front* from a seed and the node count: it
//! fixes, before the simulation starts, which nodes crash (and when), which
//! nodes run slow, and — via a counter-indexed hash — which data-plane
//! messages the network drops or duplicates. Because every decision is a
//! pure function of `(seed, index)`, a faulted run is exactly as
//! reproducible as a fault-free one: identical `(seed, config)` inputs
//! produce byte-identical simulations.
//!
//! The plan models a *survivable* fault environment by construction:
//!
//! - node 0 never crashes (the runtime uses it as the recovery
//!   coordinator, mirroring the paper's top-level control node);
//! - at most `nodes - 1` nodes crash, so at least one survivor exists;
//! - drop/duplication probabilities are bounded (≤ 50% drop), so retried
//!   messages eventually get through;
//! - control-plane traffic (completion reports, retry directives) is
//!   exempt from drop/duplication — see `NodeCtx::send_control` — which is
//!   the standard "reliable transport for the control channel" assumption
//!   of distributed task runtimes (cf. TaskTorrent's MPI control messages).
//!
//! This crate has zero dependencies, so the plan uses an inline
//! SplitMix64-style finalizer rather than `il-testkit`'s PRNG.

use crate::time::SimTime;
use crate::NodeId;

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit value.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain-separated draw: a deterministic u64 from `(seed, salt, index)`.
#[inline]
fn draw(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ index))
}

/// Parameters a [`FaultPlan`] is generated from. The runtime layer owns
/// the user-facing configuration and maps it onto this machine-level spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Per-message drop probability for data-plane traffic, in ‰.
    /// Clamped to 500 (50%) so retries make progress.
    pub drop_per_mille: u16,
    /// Per-message duplication probability for data-plane traffic, in ‰.
    pub dup_per_mille: u16,
    /// Maximum number of node crashes to schedule (never node 0; capped
    /// at `nodes - 1`).
    pub max_crashes: usize,
    /// Absolute time window crash instants are drawn from.
    pub crash_window: (SimTime, SimTime),
    /// Number of slow nodes to select (never node 0).
    pub slow_nodes: usize,
    /// Multiplier applied to every charge/execution on a slow node.
    pub slow_factor: u64,
    /// Number of silently-corrupting nodes to select (never node 0).
    /// Defaults to 0 so pre-existing plans are byte-identical.
    pub corrupt_nodes: usize,
    /// Per-task-output corruption probability on a corrupt node, in ‰.
    pub corrupt_per_mille: u16,
    /// Per-message payload corruption probability for data-plane traffic
    /// sent *from* a corrupt node, in ‰.
    pub corrupt_payload_per_mille: u16,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            drop_per_mille: 50,
            dup_per_mille: 25,
            max_crashes: 1,
            crash_window: (SimTime::us(200), SimTime::ms(20)),
            slow_nodes: 1,
            slow_factor: 3,
            corrupt_nodes: 0,
            corrupt_per_mille: 0,
            corrupt_payload_per_mille: 0,
        }
    }
}

/// A fully materialized, deterministic fault schedule.
///
/// Per-node queries (`crash_time`, `slow_factor`, …) are answered from
/// dense lookup tables built once at [`generate`](FaultPlan::generate)
/// time, so the simulator's per-event fault hooks are O(1) regardless of
/// how many faults the plan schedules.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_per_mille: u16,
    dup_per_mille: u16,
    /// `(node, crash time)`, sorted by node; node 0 never appears.
    crashes: Vec<(NodeId, SimTime)>,
    /// `(node, charge multiplier)`, sorted by node.
    slow: Vec<(NodeId, u64)>,
    /// Nodes that silently corrupt data, sorted; node 0 never appears.
    corrupt: Vec<NodeId>,
    corrupt_per_mille: u16,
    corrupt_payload_per_mille: u16,
    /// Per-node crash time, `SimTime::MAX` = never (len = nodes).
    crash_at: Vec<SimTime>,
    /// Per-node charge multiplier, 1 = full speed (len = nodes).
    slow_at: Vec<u64>,
    /// Per-node corruption flag (len = nodes).
    corrupt_at: Vec<bool>,
}

impl FaultPlan {
    /// Materialize the plan for a `nodes`-node machine.
    ///
    /// Build time is O(nodes + faults): candidate deduplication consults
    /// the per-node tables rather than rescanning the fault lists, and the
    /// draw sequence is unchanged from the scan-based builder, so plans
    /// are bit-identical to those generated before the tables existed.
    pub fn generate(seed: u64, nodes: usize, spec: &FaultSpec) -> FaultPlan {
        let mut crashes: Vec<(NodeId, SimTime)> = Vec::new();
        let mut crash_at = vec![SimTime::MAX; nodes];
        let (lo, hi) = spec.crash_window;
        let span = hi.0.saturating_sub(lo.0).max(1);
        if nodes > 1 {
            let want = spec.max_crashes.min(nodes - 1);
            let mut i = 0u64;
            while crashes.len() < want && i < 16 * want as u64 + 16 {
                let node = 1 + (draw(seed, 0xC4A5, i) as usize) % (nodes - 1);
                if crash_at[node] == SimTime::MAX {
                    let t = lo + SimTime::ns(draw(seed, 0x71BE, i) % span);
                    crashes.push((node, t));
                    crash_at[node] = t;
                }
                i += 1;
            }
            crashes.sort_unstable_by_key(|&(n, _)| n);
        }
        let mut slow: Vec<(NodeId, u64)> = Vec::new();
        let mut slow_at = vec![1u64; nodes];
        if nodes > 1 && spec.slow_factor > 1 {
            let want = spec.slow_nodes.min(nodes - 1);
            let mut i = 0u64;
            while slow.len() < want && i < 16 * want as u64 + 16 {
                let node = 1 + (draw(seed, 0x510E, i) as usize) % (nodes - 1);
                if slow_at[node] == 1 {
                    slow.push((node, spec.slow_factor));
                    slow_at[node] = spec.slow_factor;
                }
                i += 1;
            }
            slow.sort_unstable_by_key(|&(n, _)| n);
        }
        let mut corrupt: Vec<NodeId> = Vec::new();
        let mut corrupt_at = vec![false; nodes];
        if nodes > 1 && spec.corrupt_nodes > 0 {
            let want = spec.corrupt_nodes.min(nodes - 1);
            let mut i = 0u64;
            while corrupt.len() < want && i < 16 * want as u64 + 16 {
                let node = 1 + (draw(seed, 0x5DC0, i) as usize) % (nodes - 1);
                if !corrupt_at[node] {
                    corrupt.push(node);
                    corrupt_at[node] = true;
                }
                i += 1;
            }
            corrupt.sort_unstable();
        }
        FaultPlan {
            seed,
            drop_per_mille: spec.drop_per_mille.min(500),
            dup_per_mille: spec.dup_per_mille.min(1000),
            crashes,
            slow,
            corrupt,
            corrupt_per_mille: spec.corrupt_per_mille.min(1000),
            corrupt_payload_per_mille: spec.corrupt_payload_per_mille.min(1000),
            crash_at,
            slow_at,
            corrupt_at,
        }
    }

    /// Remove every crash and slow entry whose node satisfies `exempt`,
    /// keeping the rest of the schedule (and the drop/duplication draw
    /// sequence) untouched. Service mode exempts the per-slot coordinator
    /// nodes the same way a single-machine plan never crashes node 0 —
    /// each session keeps a live recovery coordinator by construction.
    /// With a predicate no scheduled fault matches, the plan is unchanged.
    pub fn with_exempt_nodes(mut self, exempt: impl Fn(NodeId) -> bool) -> Self {
        let crash_at = &mut self.crash_at;
        self.crashes.retain(|&(n, _)| {
            if exempt(n) {
                crash_at[n] = SimTime::MAX;
                false
            } else {
                true
            }
        });
        let slow_at = &mut self.slow_at;
        self.slow.retain(|&(n, _)| {
            if exempt(n) {
                slow_at[n] = 1;
                false
            } else {
                true
            }
        });
        let corrupt_at = &mut self.corrupt_at;
        self.corrupt.retain(|&n| {
            if exempt(n) {
                corrupt_at[n] = false;
                false
            } else {
                true
            }
        });
        self
    }

    /// The slow-node schedule as `(node, multiplier)`, sorted by node.
    pub fn slow_nodes(&self) -> &[(NodeId, u64)] {
        &self.slow
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All scheduled crashes as `(node, time)`, sorted by node.
    pub fn crashes(&self) -> &[(NodeId, SimTime)] {
        &self.crashes
    }

    /// The time `node` crashes, if it ever does. O(1) table lookup.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        match self.crash_at.get(node) {
            Some(&t) if t != SimTime::MAX => Some(t),
            _ => None,
        }
    }

    /// Whether `node` is down at time `at` (crashes are permanent).
    pub fn is_crashed(&self, node: NodeId, at: SimTime) -> bool {
        self.crash_time(node).is_some_and(|t| at >= t)
    }

    /// Whether `node` crashes at any point in the schedule. Used by the
    /// runtime's (modeled-perfect) failure detector before re-sharding.
    pub fn ever_crashes(&self, node: NodeId) -> bool {
        self.crash_time(node).is_some()
    }

    /// The charge multiplier for `node` (1 = full speed). O(1) table
    /// lookup.
    pub fn slow_factor(&self, node: NodeId) -> u64 {
        self.slow_at.get(node).copied().unwrap_or(1)
    }

    /// Whether the network drops the `nonce`-th data-plane message.
    pub fn drop_message(&self, nonce: u64) -> bool {
        (draw(self.seed, 0xD409, nonce) % 1000) < u64::from(self.drop_per_mille)
    }

    /// Whether the network duplicates the `nonce`-th data-plane message
    /// (only consulted when the message is not dropped).
    pub fn duplicate_message(&self, nonce: u64) -> bool {
        (draw(self.seed, 0xD0B1, nonce) % 1000) < u64::from(self.dup_per_mille)
    }

    /// The nodes the plan marks as silently corrupting, sorted.
    pub fn corrupt_nodes(&self) -> &[NodeId] {
        &self.corrupt
    }

    /// Number of nodes the plan marks as corrupting.
    pub fn corrupt_count(&self) -> usize {
        self.corrupt.len()
    }

    /// Whether `node` silently corrupts data. O(1) table lookup.
    pub fn is_corrupt_node(&self, node: NodeId) -> bool {
        self.corrupt_at.get(node).copied().unwrap_or(false)
    }

    /// The nonzero XOR delta a corrupt `node` applies to the `nonce`-th
    /// task output it produces, if the draw says this one flips. Distinct
    /// `(node, nonce)` pairs draw independently, so two replicas of the
    /// same task on different corrupt nodes (and two attempts of the same
    /// task on one node) corrupt — or not — independently, and when both
    /// do, their deltas differ with overwhelming probability.
    pub fn corrupt_task_output(&self, node: NodeId, nonce: u64) -> Option<u64> {
        if !self.is_corrupt_node(node) || self.corrupt_per_mille == 0 {
            return None;
        }
        let idx = mix64((node as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ nonce);
        if (draw(self.seed, 0xB17F, idx) % 1000) < u64::from(self.corrupt_per_mille) {
            // `| 1` guarantees the delta is nonzero (a zero delta would be
            // a no-op flip, i.e. no corruption at all).
            Some(draw(self.seed, 0xDE1A, idx) | 1)
        } else {
            None
        }
    }

    /// Whether a corrupt `node` flips bits in the payload of the
    /// `nonce`-th data-plane message it sends. Honest nodes never do.
    /// The rate is tested first, so a plan without payload corruption
    /// answers every send without reading the per-node table.
    pub fn corrupt_message(&self, node: NodeId, nonce: u64) -> bool {
        self.corrupt_payload_per_mille > 0
            && self.is_corrupt_node(node)
            && (draw(self.seed, 0xFA1C, nonce) % 1000)
                < u64::from(self.corrupt_payload_per_mille)
    }
}

/// Counters of machine-level fault activity during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Data-plane messages the network dropped.
    pub dropped: u64,
    /// Extra copies the network delivered.
    pub duplicated: u64,
    /// Events discarded because their destination node had crashed.
    pub crash_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(42, 8, &spec);
        let b = FaultPlan::generate(42, 8, &spec);
        assert_eq!(a.crashes(), b.crashes());
        assert_eq!(a.slow, b.slow);
        for n in 0..4096 {
            assert_eq!(a.drop_message(n), b.drop_message(n));
            assert_eq!(a.duplicate_message(n), b.duplicate_message(n));
        }
    }

    #[test]
    fn node_zero_never_crashes_and_survivors_exist() {
        for seed in 0..200 {
            for nodes in [1usize, 2, 3, 8] {
                let spec = FaultSpec {
                    max_crashes: nodes, // ask for more than allowed
                    ..FaultSpec::default()
                };
                let plan = FaultPlan::generate(seed, nodes, &spec);
                assert!(plan.crashes().iter().all(|&(n, _)| n != 0 && n < nodes));
                assert!(plan.crashes().len() < nodes.max(1));
                assert!(!plan.ever_crashes(0));
                assert_eq!(plan.slow_factor(0), 1);
            }
        }
    }

    #[test]
    fn crash_times_fall_in_the_window() {
        let spec = FaultSpec::default();
        for seed in 0..100 {
            let plan = FaultPlan::generate(seed, 4, &spec);
            for &(_, t) in plan.crashes() {
                assert!(t >= spec.crash_window.0 && t <= spec.crash_window.1);
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_calibrated_and_bounded() {
        let spec = FaultSpec {
            drop_per_mille: 900, // clamped to 500
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(7, 4, &spec);
        let n = 100_000u64;
        let drops = (0..n).filter(|&i| plan.drop_message(i)).count();
        let rate = drops as f64 / n as f64;
        assert!(rate > 0.45 && rate < 0.55, "clamped drop rate was {rate}");
    }

    #[test]
    fn crash_state_is_permanent() {
        let plan = FaultPlan::generate(3, 4, &FaultSpec::default());
        if let Some(&(node, t)) = plan.crashes().first() {
            assert!(!plan.is_crashed(node, t.saturating_sub(SimTime::ns(1))));
            assert!(plan.is_crashed(node, t));
            assert!(plan.is_crashed(node, t + SimTime::ms(100)));
        }
    }

    /// Oracles for the per-node tables: linear scans of the public fault
    /// lists (`corrupt_nodes()` is scanned inline).
    fn scan_crash_time(plan: &FaultPlan, node: NodeId) -> Option<SimTime> {
        plan.crashes().iter().find(|&&(n, _)| n == node).map(|&(_, t)| t)
    }

    fn scan_slow_factor(plan: &FaultPlan, node: NodeId) -> u64 {
        plan.slow_nodes().iter().find(|&&(n, _)| n == node).map_or(1, |&(_, f)| f)
    }

    #[test]
    fn table_lookups_match_the_scan_oracle() {
        // The O(1) tables must answer every query exactly like the
        // original linear scans, across seeds and fault densities.
        for seed in 0..50 {
            let spec = FaultSpec {
                max_crashes: 5,
                slow_nodes: 5,
                ..FaultSpec::default()
            };
            let plan = FaultPlan::generate(seed, 32, &spec);
            for node in 0..40 {
                // (includes out-of-range nodes 32..40)
                let crash = scan_crash_time(&plan, node);
                assert_eq!(plan.crash_time(node), crash);
                assert_eq!(plan.slow_factor(node), scan_slow_factor(&plan, node));
                assert_eq!(plan.ever_crashes(node), crash.is_some());
                assert_eq!(
                    plan.is_crashed(node, SimTime::ms(1)),
                    crash.is_some_and(|t| SimTime::ms(1) >= t)
                );
            }
        }
    }

    #[test]
    fn corruption_defaults_to_off() {
        // The default spec schedules no corruption, so plans generated
        // before the Corrupt schedule existed are bit-identical.
        let plan = FaultPlan::generate(42, 8, &FaultSpec::default());
        assert_eq!(plan.corrupt_count(), 0);
        for node in 0..8 {
            assert!(!plan.is_corrupt_node(node));
            for nonce in 0..64 {
                assert_eq!(plan.corrupt_task_output(node, nonce), None);
                assert!(!plan.corrupt_message(node, nonce));
            }
        }
    }

    #[test]
    fn corrupt_schedules_are_deterministic_and_survivable() {
        for seed in 0..100u64 {
            for nodes in [1usize, 2, 3, 8, 32] {
                let spec = FaultSpec {
                    corrupt_nodes: nodes, // ask for more than allowed
                    corrupt_per_mille: 400,
                    corrupt_payload_per_mille: 200,
                    ..FaultSpec::default()
                };
                let a = FaultPlan::generate(seed, nodes, &spec);
                let b = FaultPlan::generate(seed, nodes, &spec);
                assert_eq!(a.corrupt_nodes(), b.corrupt_nodes());
                // Node 0 (the recovery coordinator) never corrupts, and at
                // least one honest node always exists.
                assert!(!a.is_corrupt_node(0));
                assert!(a.corrupt_nodes().iter().all(|&n| n != 0 && n < nodes));
                assert!(a.corrupt_count() < nodes.max(1));
                for node in 0..nodes {
                    for nonce in 0..32 {
                        assert_eq!(
                            a.corrupt_task_output(node, nonce),
                            b.corrupt_task_output(node, nonce)
                        );
                        assert_eq!(a.corrupt_message(node, nonce), b.corrupt_message(node, nonce));
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_deltas_are_nonzero_and_node_independent() {
        let spec = FaultSpec {
            corrupt_nodes: 6,
            corrupt_per_mille: 1000, // every output flips
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(9, 8, &spec);
        assert!(plan.corrupt_count() >= 2);
        let nodes = plan.corrupt_nodes().to_vec();
        for nonce in 0..256u64 {
            let mut deltas = Vec::new();
            for &n in &nodes {
                let d = plan.corrupt_task_output(n, nonce).expect("rate 1000‰ always flips");
                assert_ne!(d, 0);
                deltas.push(d);
            }
            // Same task output on different corrupt nodes: distinct flips,
            // so a digest vote cannot be fooled by matching corruption.
            deltas.sort_unstable();
            deltas.dedup();
            assert_eq!(deltas.len(), nodes.len(), "delta collision at nonce {nonce}");
        }
    }

    #[test]
    fn corruption_draws_leave_existing_schedules_untouched() {
        // Adding corruption to a spec must not move the crash/slow/drop/
        // duplication schedules: the Corrupt schedule uses its own salts.
        let base = FaultSpec::default();
        let with_corruption = FaultSpec {
            corrupt_nodes: 3,
            corrupt_per_mille: 500,
            corrupt_payload_per_mille: 250,
            ..base.clone()
        };
        for seed in 0..50u64 {
            let a = FaultPlan::generate(seed, 16, &base);
            let b = FaultPlan::generate(seed, 16, &with_corruption);
            assert_eq!(a.crashes(), b.crashes());
            assert_eq!(a.slow, b.slow);
            for nonce in 0..512 {
                assert_eq!(a.drop_message(nonce), b.drop_message(nonce));
                assert_eq!(a.duplicate_message(nonce), b.duplicate_message(nonce));
            }
        }
    }

    #[test]
    fn corrupt_table_lookups_match_the_scan_oracle() {
        for seed in 0..50 {
            let spec = FaultSpec {
                corrupt_nodes: 5,
                corrupt_per_mille: 300,
                corrupt_payload_per_mille: 150,
                ..FaultSpec::default()
            };
            let plan = FaultPlan::generate(seed, 32, &spec);
            for node in 0..40 {
                // (includes out-of-range nodes 32..40)
                let corrupt = plan.corrupt_nodes().contains(&node);
                assert_eq!(plan.is_corrupt_node(node), corrupt);
                for nonce in 0..16 {
                    let idx = mix64((node as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ nonce);
                    let output = (corrupt && draw(seed, 0xB17F, idx) % 1000 < 300)
                        .then(|| draw(seed, 0xDE1A, idx) | 1);
                    assert_eq!(plan.corrupt_task_output(node, nonce), output);
                    let payload = corrupt && draw(seed, 0xFA1C, nonce) % 1000 < 150;
                    assert_eq!(plan.corrupt_message(node, nonce), payload);
                }
            }
        }
    }

    #[test]
    fn exemption_clears_corruption_too() {
        let spec = FaultSpec {
            corrupt_nodes: 8,
            corrupt_per_mille: 500,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(11, 16, &spec).with_exempt_nodes(|n| n % 4 == 0);
        assert!(plan.corrupt_nodes().iter().all(|&n| n % 4 != 0));
        for node in (0..16).step_by(4) {
            assert!(!plan.is_corrupt_node(node));
            assert_eq!(plan.corrupt_task_output(node, 0), None);
        }
    }

    #[test]
    fn dense_plan_lookups_are_constant_time() {
        // Regression for the PR 7 bugfix: a 100k-node plan with 10k
        // crashes and 10k slow nodes used to cost O(faults) list scans on
        // every dispatched event. Build the plan (O(nodes + faults)) and
        // answer one million mixed queries; with the tables this is a few
        // milliseconds even in debug builds, while the old scans needed
        // ~20k comparisons per query (tens of billions total — minutes).
        let nodes = 100_000;
        let spec = FaultSpec {
            max_crashes: 10_000,
            slow_nodes: 10_000,
            slow_factor: 3,
            ..FaultSpec::default()
        };
        let start = std::time::Instant::now();
        let plan = FaultPlan::generate(42, nodes, &spec);
        assert_eq!(plan.crashes().len(), 10_000);
        let mut acc = 0u64;
        for i in 0..1_000_000usize {
            let node = (i * 2_654_435_761) % nodes;
            acc = acc
                .wrapping_add(plan.slow_factor(node))
                .wrapping_add(u64::from(plan.is_crashed(node, SimTime::ms(1))));
        }
        assert!(acc > 0);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "per-event fault lookups regressed to O(faults): 1M queries took {elapsed:?}"
        );
    }
}
