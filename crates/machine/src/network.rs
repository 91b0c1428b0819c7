//! α–β network cost models with per-node NIC serialization.
//!
//! Two models sit behind the [`Interconnect`] trait: the flat [`Network`]
//! (every cross-node message pays one latency — the model the paper-scale
//! figures were calibrated against) and [`HierNetwork`], which routes
//! messages through a [`HierarchySpec`] and accounts per-level link
//! contention. The simulator defaults to the flat model, so existing runs
//! stay byte-identical; the hierarchical model is strictly opt-in.

use crate::time::SimTime;
use crate::topology::HierarchySpec;
use crate::NodeId;
use std::collections::HashMap;

/// An α–β (latency–bandwidth) model of the interconnect.
///
/// Transferring a `b`-byte message costs `α + b·β` where `α` is the
/// per-message latency and `β` the inverse bandwidth. In addition, each
/// node's NIC injects messages serially: a node sending many messages
/// back-to-back pays the injection cost (`α_inject + b·β`) sequentially,
/// which is what makes a centralized (non-DCR) control node a bottleneck at
/// scale — exactly the effect the paper's non-DCR configurations exhibit.
#[derive(Clone, Debug)]
pub struct Network {
    /// One-way wire latency per message (charged to the receiver's arrival
    /// time, not the sender's occupancy).
    pub latency: SimTime,
    /// Per-message injection overhead at the sender (NIC occupancy).
    pub injection_overhead: SimTime,
    /// Bandwidth in bytes per microsecond (per-NIC).
    pub bytes_per_us: u64,
}

impl Network {
    /// A Cray-Aries-like interconnect: ~1.3 µs latency, ~0.4 µs injection
    /// overhead, ~10 GB/s per NIC.
    pub fn aries() -> Self {
        Network {
            latency: SimTime::ns(1_300),
            injection_overhead: SimTime::ns(400),
            bytes_per_us: 10_000,
        }
    }

    /// An idealized zero-cost network (useful in unit tests).
    pub fn ideal() -> Self {
        Network {
            latency: SimTime::ZERO,
            injection_overhead: SimTime::ZERO,
            bytes_per_us: u64::MAX,
        }
    }

    /// Serialization (occupancy) time of a `bytes`-byte message on the NIC.
    pub fn occupancy(&self, bytes: u64) -> SimTime {
        let xfer = if self.bytes_per_us == u64::MAX {
            0
        } else if let Some(scaled) = bytes.checked_mul(1_000) {
            scaled.div_ceil(self.bytes_per_us)
        } else {
            // ceil(bytes * 1000 / bytes_per_us) nanoseconds, in u128 so
            // transfers ≥ ~1.8e16 bytes can't wrap the intermediate
            // product; saturate at the u64 horizon (~584 simulated years).
            u64::try_from(
                (u128::from(bytes) * 1_000).div_ceil(u128::from(self.bytes_per_us)),
            )
            .unwrap_or(u64::MAX)
        };
        self.injection_overhead + SimTime::ns(xfer)
    }

    /// Total one-way time from injection start to delivery.
    pub fn delivery(&self, bytes: u64) -> SimTime {
        self.occupancy(bytes) + self.latency
    }
}

/// The interconnect model the simulator delivers cross-node messages
/// through.
///
/// The sender-side cost (NIC occupancy, α_inject + b·β) is charged by the
/// simulator against the flat [`base`](Interconnect::base) parameters;
/// `deliver` then decides when the message *arrives*, given the time the
/// NIC finished injecting it. Implementations may keep mutable state
/// (link busy-until times) — delivery order is the deterministic event
/// dispatch order, so stateful contention accounting stays reproducible.
pub trait Interconnect {
    /// The flat α–β parameters: NIC injection overhead, per-NIC
    /// bandwidth, and the endpoint latency component.
    fn base(&self) -> &Network;

    /// Arrival time at `dst` of a `bytes`-byte message from `src` whose
    /// NIC injection completed at `nic_done`.
    fn deliver(&mut self, src: NodeId, dst: NodeId, bytes: u64, nic_done: SimTime) -> SimTime;
}

/// The flat model: every cross-node message arrives one wire latency
/// after its NIC injection completes, regardless of endpoints. This is
/// byte-for-byte the original simulator behavior.
impl Interconnect for Network {
    fn base(&self) -> &Network {
        self
    }

    fn deliver(&mut self, _src: NodeId, _dst: NodeId, _bytes: u64, nic_done: SimTime) -> SimTime {
        nic_done + self.latency
    }
}

/// A hierarchical α–β interconnect with per-level link contention.
///
/// A `src → dst` message climbs the [`HierarchySpec`] to the endpoints'
/// lowest common group and back down. For every crossed level `j` it
/// serializes through the source group's up-link and the destination
/// group's down-link — each link is busy for the message's level-`j`
/// serialization time, and concurrent messages sharing a link queue
/// behind each other (`busy-until` per link, stored sparsely) — and pays
/// `latency[j]` of propagation. The flat [`Network`] contributes the NIC
/// injection cost (charged by the simulator) and the endpoint latency.
///
/// Contention state is keyed by `(level, group, direction)` and only
/// materializes for links actually used, so memory is O(links touched),
/// not O(machine).
#[derive(Clone, Debug)]
pub struct HierNetwork {
    base: Network,
    spec: HierarchySpec,
    links: HashMap<(u8, u64, bool), SimTime>,
}

impl HierNetwork {
    /// Build the hierarchical model over `base` endpoint parameters.
    ///
    /// # Panics
    /// Panics if `spec` is malformed (see [`HierarchySpec::validate`]).
    pub fn new(base: Network, spec: HierarchySpec) -> Self {
        spec.validate();
        assert!(spec.levels() <= u8::MAX as usize, "too many hierarchy levels");
        HierNetwork { base, spec, links: HashMap::new() }
    }

    /// The hierarchy being modeled.
    pub fn spec(&self) -> &HierarchySpec {
        &self.spec
    }

    /// Serialization time of `bytes` on a level-`level` link.
    fn link_occupancy(&self, level: usize, bytes: u64) -> SimTime {
        let bpu = self.bytes_per_us_at(level);
        if bpu == u64::MAX {
            return SimTime::ZERO;
        }
        let ns = u64::try_from((u128::from(bytes) * 1_000).div_ceil(u128::from(bpu)))
            .unwrap_or(u64::MAX);
        SimTime::ns(ns)
    }

    fn bytes_per_us_at(&self, level: usize) -> u64 {
        self.spec.bytes_per_us[level]
    }

    /// Serialize through one link: wait for it to free, occupy it, return
    /// the time the message clears it.
    fn traverse(&mut self, level: usize, group: u64, up: bool, bytes: u64, at: SimTime) -> SimTime {
        let occupancy = self.link_occupancy(level, bytes);
        let free = self.links.entry((level as u8, group, up)).or_insert(SimTime::ZERO);
        let start = at.max(*free);
        let done = start + occupancy;
        *free = done;
        done
    }
}

impl Interconnect for HierNetwork {
    fn base(&self) -> &Network {
        &self.base
    }

    fn deliver(&mut self, src: NodeId, dst: NodeId, bytes: u64, nic_done: SimTime) -> SimTime {
        let crossed = self.spec.crossed(src, dst);
        if crossed == 0 {
            return nic_done + self.base.latency;
        }
        let mut t = nic_done;
        let mut propagation = self.base.latency;
        for j in 0..crossed {
            propagation += self.spec.latency[j];
            t = self.traverse(j, self.spec.group(src, j), true, bytes, t);
        }
        for j in (0..crossed).rev() {
            t = self.traverse(j, self.spec.group(dst, j), false, bytes, t);
        }
        t + propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aries_costs() {
        let n = Network::aries();
        // 10 KB at 10 GB/s = 1 us transfer.
        assert_eq!(n.occupancy(10_000), SimTime::ns(400) + SimTime::us(1));
        assert_eq!(
            n.delivery(10_000),
            SimTime::ns(400) + SimTime::us(1) + SimTime::ns(1_300)
        );
    }

    #[test]
    fn zero_byte_message_still_pays_overheads() {
        let n = Network::aries();
        assert_eq!(n.occupancy(0), SimTime::ns(400));
        assert_eq!(n.delivery(0), SimTime::ns(1_700));
    }

    #[test]
    fn ideal_network_is_free() {
        let n = Network::ideal();
        assert_eq!(n.delivery(1 << 30), SimTime::ZERO);
    }

    #[test]
    fn occupancy_survives_huge_transfers() {
        // Regression: `bytes * 1_000` wrapped u64 for bytes ≥ ~1.8e16
        // (u64::MAX / 1000 ≈ 1.8446e16), silently making petabyte-scale
        // transfers near-free. The boundary where the old math first wrapped:
        let n = Network::aries();
        let boundary = u64::MAX / 1_000 + 1; // smallest bytes where old math wrapped
        let just_below = boundary - 1;
        // Monotonic across the boundary (the old code collapsed here).
        assert!(n.occupancy(boundary) >= n.occupancy(just_below));
        // Exact value: ceil(bytes * 1000 / 10_000) ns = ceil(bytes / 10).
        assert_eq!(
            n.occupancy(boundary),
            n.injection_overhead + SimTime::ns(boundary.div_ceil(10))
        );
        // Far past the boundary: saturates instead of wrapping.
        assert_eq!(
            n.occupancy(u64::MAX),
            n.injection_overhead + SimTime::ns(u64::MAX.div_ceil(10))
        );
        // A 1-byte/us network saturates the u64 horizon rather than wrap.
        let slow = Network {
            latency: SimTime::ZERO,
            injection_overhead: SimTime::ZERO,
            bytes_per_us: 1,
        };
        assert_eq!(slow.occupancy(u64::MAX), SimTime::ns(u64::MAX));
    }

    #[test]
    fn occupancy_rounds_up() {
        let n = Network {
            latency: SimTime::ZERO,
            injection_overhead: SimTime::ZERO,
            bytes_per_us: 3,
        };
        // 1 byte at 3 bytes/us = 333.33..ns, rounded up to 334.
        assert_eq!(n.occupancy(1), SimTime::ns(334));
    }

    #[test]
    fn occupancy_u64_path_matches_the_u128_reference() {
        // Seeded sizes on both sides of u64::MAX / 1000, where `bytes *
        // 1000` stops fitting in u64 and occupancy leaves the u64 path,
        // plus ordinary sizes; bandwidths from 1 byte/µs up.
        let boundary = u64::MAX / 1_000;
        let mut rng = il_testkit::TestRng::seed_from_u64(0x0CC0);
        for i in 0..20_000 {
            let bytes = match i % 3 {
                0 => boundary - 1_024 + rng.next_below(2_048),
                1 => rng.next_below(1 << 20),
                _ => rng.next_u64(),
            };
            let bits = rng.next_below(63) + 1;
            let bytes_per_us = 1 + rng.next_below(1 << bits);
            let n = Network {
                latency: SimTime::ZERO,
                injection_overhead: SimTime::ZERO,
                bytes_per_us,
            };
            let reference = (u128::from(bytes) * 1_000).div_ceil(u128::from(bytes_per_us));
            let want = u64::try_from(reference).unwrap_or(u64::MAX);
            assert_eq!(n.occupancy(bytes), SimTime::ns(want), "{bytes} B at {bytes_per_us} B/µs");
        }
    }

    #[test]
    fn flat_interconnect_matches_original_delivery() {
        let mut n = Network::aries();
        let latency = n.latency;
        let t = SimTime::us(5);
        assert_eq!(n.deliver(0, 9, 10_000, t), t + latency);
        // Stateless: repeated deliveries through the same path never queue.
        assert_eq!(n.deliver(0, 9, 10_000, t), t + latency);
    }

    #[test]
    fn hierarchy_latency_grows_with_distance() {
        // Three levels of 4: groups of 4 / 16 / 64 nodes.
        let spec = HierarchySpec {
            arity: vec![4, 4, 4],
            latency: vec![SimTime::ns(100), SimTime::ns(300), SimTime::ns(900)],
            bytes_per_us: vec![25_000, 12_000, 6_000],
        };
        let mut h = HierNetwork::new(Network::aries(), spec);
        let t = SimTime::ZERO;
        // Same switch (0→3) < same level-1 group (0→5) < cross level-2
        // (0→20): each extra crossed level adds latency and serialization.
        let local = h.clone().deliver(0, 3, 1_000, t);
        let mid = h.clone().deliver(0, 5, 1_000, t);
        let far = h.deliver(0, 20, 1_000, t);
        assert!(local < mid && mid < far);
        assert!(local > t + Network::aries().latency);
    }

    #[test]
    fn shared_uplink_contention_serializes() {
        let spec = HierarchySpec::two_level(16, 32);
        let mut h = HierNetwork::new(Network::aries(), spec);
        // Nodes 0 and 1 share the level-0 router; both send to the same
        // remote router at the same instant. The second message queues
        // behind the first on every shared link, arriving strictly later.
        let a = h.deliver(0, 5_000, 10_000, SimTime::ZERO);
        let b = h.deliver(1, 5_001, 10_000, SimTime::ZERO);
        assert!(b > a, "expected contention on the shared up-link");
        // A transfer between completely different pods shares no link
        // with the congested route, so it sees first-message timing:
        // contention is per-link, not global.
        let c = h.deliver(600, 1_200, 10_000, SimTime::ZERO);
        assert_eq!(c, a);
    }

    #[test]
    fn hier_delivery_is_deterministic() {
        let run = || {
            let spec = HierarchySpec::two_level(4, 4);
            let mut h = HierNetwork::new(Network::aries(), spec);
            (0..64)
                .map(|i| h.deliver(i % 16, (i * 7) % 16, 512 * i as u64, SimTime::us(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
