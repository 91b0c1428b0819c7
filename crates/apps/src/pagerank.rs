//! PageRank: pull-mode PageRank over a seeded power-law graph.
//!
//! Vertices are split into *pieces*; each piece owns a contiguous vertex
//! range and the in-edges of those vertices (generated with power-law
//! skew on the source, so a few hub vertices fan out everywhere). Each
//! piece's remote in-neighbor sources form its *ghost* set — a sparse,
//! aliased partition, exactly the shape a graph partitioner produces.
//!
//! The interesting part is the projection functor. The `update` launch
//! does not use the identity: launch point `i` processes piece `σ(i)`,
//! where `σ` is a **data-dependent permutation** — pieces ordered by
//! ghost-degree (hot pieces first) in validation mode, a seeded shuffle
//! in scale mode. `σ` is an arbitrary table lookup, so it is expressed
//! as [`il_analysis::ProjExpr::opaque`]: the static analyzer cannot
//! classify it and the launch takes the paper's **dynamic bitmask
//! check** (Listing 3) every iteration — O(|D| + |P|) evaluations that
//! verify the write set through `σ` is injective. The check passes
//! (σ is a bijection), so the |D| tasks still run in parallel.
//!
//! Per iteration:
//!
//! 1. `update` — point `i`, piece `p = σ(i)`: pulls `rank` of every
//!    in-neighbor (own else ghost) and writes the damped sum into
//!    `next[v]` for each owned `v` (write via `σ` ⇒ dynamic check);
//! 2. `apply` — `rank = next` through the identity (statically safe).

use il_analysis::ProjExpr;
use il_geometry::{Domain, DomainPoint, Rect};
use il_machine::SimTime;
use il_region::{
    equal_partition_1d, Disjointness, FieldId, FieldKind, FieldSpaceDesc, IndexPartitionId,
    Privilege, RegionTreeId,
};
use il_runtime::{
    CostSpec, ExecutionMode, IndexLaunchDesc, Program, ProgramBuilder, RegionReq, RunReport,
};
use il_testkit::TestRng;
use std::sync::Arc;

/// Damping factor.
pub const DAMPING: f64 = 0.85;

/// PageRank problem configuration.
#[derive(Clone, Debug)]
pub struct PagerankConfig {
    /// Graph pieces (= launch-domain size).
    pub pieces: usize,
    /// Vertices per piece.
    pub nodes_per_piece: usize,
    /// In-edges per piece.
    pub edges_per_piece: usize,
    /// Power-law skew exponent for edge sources (higher = hubbier).
    pub skew: f64,
    /// Iterations (timed).
    pub iterations: usize,
    /// RNG seed for graph generation and the scale-mode shuffle.
    pub seed: u64,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Simulated per-GPU rate in edges per second.
    pub edges_per_second: f64,
}

impl PagerankConfig {
    /// A tiny validation-mode problem.
    pub fn tiny(pieces: usize) -> Self {
        PagerankConfig {
            pieces,
            nodes_per_piece: 8,
            edges_per_piece: 24,
            skew: 2.0,
            iterations: 3,
            seed: 42,
            mode: ExecutionMode::Validate,
            edges_per_second: 1.0e9,
        }
    }

    /// Scale mode at an explicit launch-domain size — the dynamic-check
    /// sweep runs this at 10⁵–10⁶ pieces.
    pub fn scale(pieces: usize) -> Self {
        PagerankConfig {
            pieces,
            nodes_per_piece: 16,
            edges_per_piece: 64,
            skew: 2.0,
            iterations: 5,
            seed: 0x9A6E,
            mode: ExecutionMode::Scale,
            edges_per_second: 1.0e9,
        }
    }

    /// Total vertices.
    pub fn total_nodes(&self) -> usize {
        self.pieces * self.nodes_per_piece
    }

    /// Total edges.
    pub fn total_edges(&self) -> u64 {
        (self.pieces * self.edges_per_piece) as u64
    }
}

/// A built PageRank program plus validation handles.
pub struct PagerankApp {
    /// The runtime program.
    pub program: Program,
    /// Configuration.
    pub config: PagerankConfig,
    /// Current rank field.
    pub rank: FieldId,
    /// Next-iteration rank field.
    pub next: FieldId,
    /// Vertex region tree.
    pub tree: RegionTreeId,
    /// The owned (disjoint) vertex partition.
    pub owned: IndexPartitionId,
    /// In-edges per piece, `(src, dst)` in generation order (validation
    /// mode; empty in scale mode).
    pub edges: Arc<Vec<Vec<(i64, i64)>>>,
    /// The data-dependent piece permutation `σ` (launch point → piece).
    pub perm: Arc<Vec<i64>>,
}

/// Deterministic power-law-ish source pick: `u^skew` concentrates mass
/// near vertex 0, making low-numbered vertices hubs.
fn skewed_source(rng: &mut TestRng, total: i64, skew: f64) -> i64 {
    let u = rng.unit_f64();
    ((u.powf(skew) * total as f64) as i64).min(total - 1)
}

/// Generate each piece's in-edges `(src, dst)`: `dst` owned by the
/// piece, `src` power-law over all vertices.
fn generate_edges(config: &PagerankConfig, rng: &mut TestRng) -> Vec<Vec<(i64, i64)>> {
    let npp = config.nodes_per_piece as i64;
    let total = config.total_nodes() as i64;
    (0..config.pieces as i64)
        .map(|piece| {
            let base = piece * npp;
            (0..config.edges_per_piece)
                .map(|_| {
                    let dst = base + rng.gen_range_i64(0, npp);
                    let src = skewed_source(rng, total, config.skew);
                    (src, dst)
                })
                .collect()
        })
        .collect()
}

/// Remote in-neighbor sources of each piece (sorted, deduplicated).
fn ghost_sets(config: &PagerankConfig, edges: &[Vec<(i64, i64)>]) -> Vec<Vec<i64>> {
    let npp = config.nodes_per_piece as i64;
    edges
        .iter()
        .enumerate()
        .map(|(piece, es)| {
            let lo = piece as i64 * npp;
            let hi = lo + npp - 1;
            let mut g: Vec<i64> =
                es.iter().map(|&(src, _)| src).filter(|&s| s < lo || s > hi).collect();
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect()
}

/// Synthetic ghost sets for scale mode: every piece reads a bounded
/// window of the hub pieces (power-law sources concentrate there) plus
/// its ring neighbor — the communication shape without materializing
/// the edge list.
fn synthetic_ghost_sets(config: &PagerankConfig) -> Vec<Vec<i64>> {
    let npp = config.nodes_per_piece as i64;
    let hubs = npp.min(8);
    (0..config.pieces as i64)
        .map(|piece| {
            let mut g: Vec<i64> = (0..hubs).collect();
            if config.pieces > 1 {
                let other = (piece + 1) % config.pieces as i64;
                g.push(other * npp);
            }
            let lo = piece * npp;
            let hi = lo + npp - 1;
            g.retain(|&n| n < lo || n > hi);
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect()
}

/// The data-dependent piece permutation: validation orders pieces by
/// ghost-degree descending (hot pieces first — a load-balance heuristic
/// computed from the graph), scale mode uses a seeded Fisher–Yates
/// shuffle. Both are bijections, so the dynamic check passes.
fn permutation(config: &PagerankConfig, ghosts: &[Vec<i64>], rng: &mut TestRng) -> Vec<i64> {
    let mut perm: Vec<i64> = (0..config.pieces as i64).collect();
    if config.mode == ExecutionMode::Validate {
        perm.sort_by_key(|&p| (usize::MAX - ghosts[p as usize].len(), p));
    } else {
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range_usize(0, i + 1));
        }
    }
    perm
}

/// Per-vertex 1/outdegree (0 for dangling vertices, whose mass is
/// dropped — the reference does the same).
fn inverse_outdegree(config: &PagerankConfig, edges: &[Vec<(i64, i64)>]) -> Vec<f64> {
    let mut deg = vec![0u32; config.total_nodes()];
    for es in edges {
        for &(src, _) in es {
            deg[src as usize] += 1;
        }
    }
    deg.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f64 }).collect()
}

/// Build the PageRank program.
pub fn build(config: &PagerankConfig) -> PagerankApp {
    let mut rng = TestRng::seed_from_u64(config.seed);
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let rank = fsd.add("rank", FieldKind::F64);
    let next = fsd.add("next", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let total = config.total_nodes() as i64;
    let region = b.forest.create_region(Domain::range(total), fs);
    let owned = equal_partition_1d(&mut b.forest, region.space, config.pieces);

    let (edges, ghosts) = if config.mode == ExecutionMode::Validate {
        let edges = generate_edges(config, &mut rng);
        let ghosts = ghost_sets(config, &edges);
        (edges, ghosts)
    } else {
        (Vec::new(), synthetic_ghost_sets(config))
    };
    let perm = Arc::new(permutation(config, &ghosts, &mut rng));
    let inv_deg = Arc::new(inverse_outdegree(config, &edges));
    let edges = Arc::new(edges);

    // Sparse aliased ghost partition (empty sets use a 1-point
    // placeholder inside the piece's own range).
    let npp = config.nodes_per_piece as i64;
    let ghost_coloring: Vec<(DomainPoint, Domain)> = ghosts
        .iter()
        .enumerate()
        .map(|(piece, g)| {
            let domain = if g.is_empty() {
                Domain::Rect1(Rect::new1(piece as i64 * npp, piece as i64 * npp))
            } else {
                Domain::sparse(g.iter().map(|&n| DomainPoint::new1(n)).collect())
            };
            (DomainPoint::new1(piece as i64), domain)
        })
        .collect();
    let ghost = b.forest.create_partition(
        region.space,
        Domain::range(config.pieces as i64),
        ghost_coloring,
        Disjointness::Aliased,
    );

    let ident = b.identity_functor();
    // σ as an opaque functor: a table lookup the static analyzer cannot
    // classify — every launch through it takes the dynamic bitmask check.
    let perm_for_functor = perm.clone();
    let sigma = b.functor(ProjExpr::opaque(move |p| {
        let i = p.coord(0);
        let color = if i >= 0 && (i as usize) < perm_for_functor.len() {
            perm_for_functor[i as usize]
        } else {
            -1 // out-of-domain probes map out of the color space
        };
        DomainPoint::new1(color)
    }));

    let n_total = total as f64;
    let perm_for_task = perm.clone();
    let edges_for_task = edges.clone();
    let inv_deg_task = inv_deg.clone();
    let init = b.task("init", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, rank, p, 1.0 / n_total);
            ctx.write(0, next, p, 0.0);
        }
    });
    // update: pull in-neighbor ranks (own else ghost), write damped sums.
    let update = b.task("update", move |ctx| {
        let piece = perm_for_task[ctx.point.x() as usize] as usize;
        let base = piece as i64 * npp;
        let mut acc = vec![0.0f64; npp as usize];
        for &(src, dst) in &edges_for_task[piece] {
            let q = DomainPoint::new1(src);
            let r: f64 = if ctx.domain(1).contains(q) {
                ctx.read(1, rank, q)
            } else {
                ctx.read(2, rank, q)
            };
            acc[(dst - base) as usize] += r * inv_deg_task[src as usize];
        }
        for (k, a) in acc.iter().enumerate() {
            let p = DomainPoint::new1(base + k as i64);
            ctx.write(0, next, p, (1.0 - DAMPING) / n_total + DAMPING * a);
        }
    });
    let apply = b.task("apply", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, next, p);
            ctx.write(0, rank, p, v);
        }
    });

    let domain = Domain::range(config.pieces as i64);
    let edge_time = |share: f64| {
        CostSpec::Uniform(SimTime::from_secs_f64(
            config.edges_per_piece as f64 * share / config.edges_per_second,
        ))
    };
    let req = |partition, functor, privilege, fields: Vec<FieldId>| RegionReq {
        partition,
        functor,
        privilege,
        fields,
        tree: region.tree,
        field_space: fs,
    };

    b.index_launch(IndexLaunchDesc {
        task: init,
        domain: domain.clone(),
        reqs: vec![req(owned, ident, Privilege::Write, vec![])],
        scalars: vec![],
        cost: edge_time(0.1),
        shard: None,
    });
    b.start_timing();
    for _ in 0..config.iterations {
        b.index_launch(IndexLaunchDesc {
            task: update,
            domain: domain.clone(),
            reqs: vec![
                req(owned, sigma, Privilege::Write, vec![next]),
                req(owned, sigma, Privilege::Read, vec![rank]),
                req(ghost, sigma, Privilege::Read, vec![rank]),
            ],
            scalars: vec![],
            cost: edge_time(0.7),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: apply,
            domain: domain.clone(),
            reqs: vec![req(owned, ident, Privilege::ReadWrite, vec![])],
            scalars: vec![],
            cost: edge_time(0.2),
            shard: None,
        });
    }

    PagerankApp {
        program: b.build(),
        config: config.clone(),
        rank,
        next,
        tree: region.tree,
        owned,
        edges,
        perm,
    }
}

/// Throughput in edge-traversals per second.
pub fn throughput(config: &PagerankConfig, report: &RunReport) -> f64 {
    config.total_edges() as f64 * config.iterations as f64 / report.elapsed.as_secs_f64()
}

/// Sequential reference: final ranks. Accumulates per piece in edge
/// order — the same float-op order as the tasks, so results match
/// bit-for-bit.
pub fn reference(config: &PagerankConfig, edges: &[Vec<(i64, i64)>]) -> Vec<f64> {
    let n = config.total_nodes();
    let npp = config.nodes_per_piece as i64;
    let mut deg = vec![0u32; n];
    for es in edges {
        for &(src, _) in es {
            deg[src as usize] += 1;
        }
    }
    let inv_deg: Vec<f64> =
        deg.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f64 }).collect();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..config.iterations {
        let mut next = vec![0.0f64; n];
        for (piece, es) in edges.iter().enumerate() {
            let base = piece as i64 * npp;
            let mut acc = vec![0.0f64; npp as usize];
            for &(src, dst) in es {
                acc[(dst - base) as usize] += rank[src as usize] * inv_deg[src as usize];
            }
            for (k, a) in acc.iter().enumerate() {
                next[(base + k as i64) as usize] = (1.0 - DAMPING) / n as f64 + DAMPING * a;
            }
        }
        rank = next;
    }
    rank
}

/// Extract final ranks from a validation run.
pub fn extract_ranks(app: &PagerankApp, report: &RunReport) -> Vec<f64> {
    let store = report.store.as_ref().expect("validation mode");
    let forest = &app.program.forest;
    let mut out = vec![f64::NAN; app.config.total_nodes()];
    for space in forest.partition(app.owned).children.values() {
        if let Some(inst) = store.get((app.tree, space)) {
            for p in forest.domain(space).iter() {
                out[p.x() as usize] = inst.get::<f64>(app.rank, p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn validates_against_reference_all_configs() {
        let config = PagerankConfig::tiny(4);
        for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(2).with_axes(dcr, idx));
            let got = extract_ranks(&app, &report);
            let want = reference(&config, &app.edges);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-12, "rank {i}: {a} vs {b} (dcr={dcr} idx={idx})");
            }
        }
    }

    #[test]
    fn update_launch_takes_the_dynamic_check() {
        // σ is opaque: the static analyzer cannot prove injectivity, so
        // every `update` launch must run the dynamic bitmask check — and
        // pass it (σ is a bijection), keeping all tasks parallel.
        let app = build(&PagerankConfig::tiny(4));
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        assert!(
            report.dynamic_check_time > il_machine::SimTime::ZERO,
            "opaque σ must hit the dynamic-check path"
        );
        // Disabling the checks changes nothing about the data (the launch
        // is genuinely safe), only the check cost disappears.
        let app2 = build(&PagerankConfig::tiny(4));
        let report2 =
            execute(&app2.program, &RuntimeConfig::validate(2).with_dynamic_checks(false));
        assert_eq!(report2.dynamic_check_time, il_machine::SimTime::ZERO);
        assert_eq!(extract_ranks(&app, &report), extract_ranks(&app2, &report2));
    }

    #[test]
    fn permutation_is_a_data_dependent_bijection() {
        let config = PagerankConfig::tiny(6);
        let app = build(&config);
        let mut seen = vec![false; config.pieces];
        for &c in app.perm.iter() {
            assert!(!seen[c as usize], "σ must be injective");
            seen[c as usize] = true;
        }
        // Hot pieces (largest ghost sets) come first.
        let ghosts = ghost_sets(&config, &app.edges);
        let degrees: Vec<usize> = app.perm.iter().map(|&c| ghosts[c as usize].len()).collect();
        assert!(degrees.windows(2).all(|w| w[0] >= w[1]), "{degrees:?}");
    }

    #[test]
    fn sources_are_power_law_skewed() {
        let config = PagerankConfig::tiny(8);
        let mut rng = TestRng::seed_from_u64(config.seed);
        let edges = generate_edges(&config, &mut rng);
        let n = config.total_nodes();
        let lower: usize = edges
            .iter()
            .flatten()
            .filter(|&&(src, _)| (src as usize) < n / 4)
            .count();
        // With skew 2.0, u² < 1/4 for u < 1/2: half the edges land in the
        // first quarter of the vertex range.
        assert!(
            lower as f64 > 0.4 * config.total_edges() as f64,
            "{lower} of {} sources in the low quarter",
            config.total_edges()
        );
    }

    #[test]
    fn scale_mode_runs_with_synthetic_ghosts() {
        let config = PagerankConfig::scale(256);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::scale(16));
        assert_eq!(report.tasks, (1 + 2 * config.iterations as u64) * 256);
        assert!(report.dynamic_check_time > il_machine::SimTime::ZERO);
        assert!(throughput(&config, &report) > 0.0);
    }

    #[test]
    fn rank_mass_is_conserved_modulo_dangling() {
        // Σ rank stays within (1-d)·… bounds: every iteration redistributes
        // at most the full mass; with dangling drop the sum is ≤ 1 and ≥ (1-d).
        let config = PagerankConfig::tiny(4);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        let total: f64 = extract_ranks(&app, &report).iter().sum();
        assert!(total > 1.0 - DAMPING && total <= 1.0 + 1e-9, "Σrank = {total}");
    }
}
