//! The α–β network cost model with per-node NIC serialization: every
//! cross-node message pays one latency, the model the paper-scale figures
//! were calibrated against.

use crate::time::SimTime;

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
}
