//! Seeded multi-tenant workload generator for service mode.
//!
//! Builds deterministic streams of [`SessionSpec`]s for the service
//! scheduler: Poisson-like arrivals (exponential inter-arrival gaps via
//! inverse-transform sampling on the [`il_testkit`] PRNG), tenant
//! assignment, and a program mix drawn from the golden evaluation
//! applications plus the differential-fuzzer program generator. Two
//! shapes:
//!
//! * [`generate_mix`] — a balanced mix: every tenant submits a blend of
//!   short and medium sessions at a common arrival rate. This is
//!   `ilaunch serve`'s default throughput/latency workload.
//! * [`skewed_mix`] — a tail-latency adversary: one heavy tenant bursts
//!   a queue of moderately long sessions at time zero while many light
//!   sessions from other tenants trickle in behind them. FIFO convoys
//!   the whole burst — every freed slot goes back to the heavy queue in
//!   arrival order, so light sessions wait for the burst to drain; fair
//!   share charges the heavy tenant its accumulated service time after
//!   the first completion and routes every later slot to the light
//!   tenants — the p99 gap `ilaunch serve --policy all --skewed` prints.
//!
//! Generation is a pure function of the seed: the same `MixConfig`
//! yields byte-identical session streams (programs included), which is
//! what makes the service bench and its CI smoke reproducible.

use std::rc::Rc;

use il_machine::SimTime;
use il_runtime::{Program, RuntimeConfig, SessionSpec};
use il_testkit::{SplitMix64, TestRng};

use crate::{amr, circuit, pagerank, soleil, stencil};

/// Shape of a generated multi-tenant workload.
#[derive(Clone, Debug)]
pub struct MixConfig {
    /// Master seed; everything (arrivals, tenants, programs) derives
    /// from it.
    pub seed: u64,
    /// Number of tenants cycling through the stream.
    pub tenants: u32,
    /// Sessions to generate.
    pub sessions: usize,
    /// Nodes per service slot; every session's config uses this width.
    pub slot_nodes: usize,
    /// Mean inter-arrival gap of the Poisson-like arrival process.
    pub mean_gap: SimTime,
    /// Per-mille of sessions drawn from the fuzzer program generator
    /// instead of the golden applications.
    pub fuzz_per_mille: u32,
}

impl MixConfig {
    /// The PR 8 reference mix: 8 tenants, 64 sessions, half fuzzer
    /// programs, 50 µs mean gap on 2-node slots.
    pub fn standard(seed: u64) -> MixConfig {
        MixConfig {
            seed,
            tenants: 8,
            sessions: 64,
            slot_nodes: 2,
            mean_gap: SimTime::us(50),
            fuzz_per_mille: 500,
        }
    }
}

/// Exponential gap with the given mean (inverse-transform sample), for
/// Poisson-like arrivals. Clamped into `[1ns, 20×mean]` so schedules
/// stay finite and strictly ordered draws stay distinct.
fn exp_gap(rng: &mut TestRng, mean: SimTime) -> SimTime {
    let u = rng.unit_f64().clamp(1e-12, 1.0 - 1e-12);
    let gap = -(1.0 - u).ln() * mean.as_ns() as f64;
    SimTime::ns((gap as u64).clamp(1, mean.as_ns().saturating_mul(20)))
}

/// A golden-app program of roughly `weight` iterations, cycling over
/// the five applications (the AMR regrid cadence and pagerank's
/// dynamic-check loop included, so service slots exercise trace
/// invalidation and the bitmask path under multi-tenancy).
fn golden_program(which: usize, weight: usize) -> Program {
    match which % 5 {
        0 => {
            stencil::build(&stencil::StencilConfig {
                iterations: weight.max(1),
                ..stencil::StencilConfig::tiny((2, 2))
            })
            .program
        }
        1 => {
            circuit::build(&circuit::CircuitConfig {
                iterations: weight.max(1),
                ..circuit::CircuitConfig::tiny(4)
            })
            .program
        }
        2 => {
            soleil::build(&soleil::SoleilConfig {
                iterations: weight.max(1),
                ..soleil::SoleilConfig::tiny((2, 1, 1))
            })
            .program
        }
        3 => {
            amr::build(&amr::AmrConfig {
                epochs: weight.max(1),
                ..amr::AmrConfig::tiny()
            })
            .program
        }
        _ => {
            pagerank::build(&pagerank::PagerankConfig {
                iterations: weight.max(1),
                ..pagerank::PagerankConfig::tiny(4)
            })
            .program
        }
    }
}

/// Generate the balanced multi-tenant stream described by `cfg`.
pub fn generate_mix(cfg: &MixConfig) -> Vec<SessionSpec> {
    assert!(cfg.tenants >= 1 && cfg.sessions >= 1);
    let mut rng = TestRng::seed_from_u64(SplitMix64::mix(cfg.seed, 0x5E55));
    let mut arrival = SimTime::ZERO;
    let mut out = Vec::with_capacity(cfg.sessions);
    for i in 0..cfg.sessions {
        arrival = arrival + exp_gap(&mut rng, cfg.mean_gap);
        let tenant = rng.next_below(cfg.tenants as u64) as u32;
        let priority = rng.next_below(4) as u32;
        let program = if rng.next_below(1000) < cfg.fuzz_per_mille as u64 {
            il_oracle::generate_program(SplitMix64::mix(cfg.seed, 0xF0_0000 + i as u64))
        } else {
            golden_program(rng.next_below(5) as usize, 1 + rng.next_below(4) as usize)
        };
        out.push(SessionSpec {
            tenant,
            priority,
            arrival,
            program: Rc::new(program),
            config: RuntimeConfig::scale(cfg.slot_nodes),
        });
    }
    out
}

/// Generate the skewed tail-latency workload: `heavy` moderately long
/// sessions from tenant 0 burst at time zero; `light` short sessions
/// from the remaining tenants arrive Poisson-spread behind them.
pub fn skewed_mix(cfg: &MixConfig, heavy: usize, light: usize) -> Vec<SessionSpec> {
    assert!(cfg.tenants >= 2, "skew needs a heavy tenant and at least one light tenant");
    let mut rng = TestRng::seed_from_u64(SplitMix64::mix(cfg.seed, 0x5AE9));
    let mut out = Vec::with_capacity(heavy + light);
    for i in 0..heavy {
        out.push(SessionSpec {
            tenant: 0,
            priority: 0,
            arrival: SimTime::ns(i as u64), // effectively simultaneous
            program: Rc::new(golden_program(0, 30)),
            config: RuntimeConfig::scale(cfg.slot_nodes),
        });
    }
    let mut arrival = SimTime::ZERO;
    for i in 0..light {
        arrival = arrival + exp_gap(&mut rng, cfg.mean_gap);
        let tenant = 1 + rng.next_below(cfg.tenants as u64 - 1) as u32;
        let program = if rng.next_below(1000) < cfg.fuzz_per_mille as u64 {
            il_oracle::generate_program(SplitMix64::mix(cfg.seed, 0x11_0000 + i as u64))
        } else {
            golden_program(rng.next_below(5) as usize, 1)
        };
        out.push(SessionSpec {
            tenant,
            priority: rng.next_below(4) as u32,
            arrival,
            program: Rc::new(program),
            config: RuntimeConfig::scale(cfg.slot_nodes),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic() {
        let cfg = MixConfig::standard(7);
        let a = generate_mix(&cfg);
        let b = generate_mix(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.tenant, x.priority, x.arrival), (y.tenant, y.priority, y.arrival));
            assert_eq!(x.program.ops.len(), y.program.ops.len());
        }
        // Arrivals strictly increase (gaps are clamped to ≥ 1ns).
        for w in a.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn skewed_mix_bursts_tenant_zero() {
        let cfg = MixConfig::standard(3);
        let mix = skewed_mix(&cfg, 4, 20);
        assert_eq!(mix.len(), 24);
        assert!(mix[..4].iter().all(|s| s.tenant == 0 && s.arrival < SimTime::us(1)));
        assert!(mix[4..].iter().all(|s| s.tenant != 0));
    }
}
