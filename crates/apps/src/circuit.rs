//! Circuit: an electrical-circuit simulation on an unstructured graph.
//!
//! The graph is split into *pieces*; each piece owns a contiguous range
//! of circuit nodes and wires. Wires mostly connect nodes inside one
//! piece, but a fraction cross pieces, giving each piece a *ghost* set of
//! remote nodes (a sparse, aliased partition — the views produced by a
//! graph partitioner, §2). Each timestep runs three index launches:
//!
//! 1. `calc_new_currents` — read voltages (own + ghost), update wire
//!    currents;
//! 2. `distribute_charge` — read currents, **reduce** charge deltas into
//!    own + ghost nodes (sum reduction through an aliased partition —
//!    legal per §3 because reductions commute);
//! 3. `update_voltages` — fold accumulated charge into voltages.
//!
//! All projection functors are the identity, so every launch is verified
//! by the static checker alone, exactly as the paper reports for this
//! code (§6.1).

use il_geometry::{Domain, DomainPoint, Rect};
use il_machine::SimTime;
use il_region::{
    coloring_partition, equal_partition_1d, Disjointness, FieldId, FieldKind, FieldSpaceDesc,
    Privilege, RegionTreeId, ReductionKind,
};
use il_runtime::{
    CostSpec, ExecutionMode, IndexLaunchDesc, Program, ProgramBuilder, RegionReq, RunReport,
};
use il_testkit::TestRng;
use std::sync::Arc;

/// Circuit problem configuration.
#[derive(Clone, Debug)]
pub struct CircuitConfig {
    /// Number of graph pieces (= launch-domain size; the paper generates
    /// one task per GPU per stage, so pieces = nodes × overdecompose).
    pub pieces: usize,
    /// Circuit nodes per piece.
    pub nodes_per_piece: usize,
    /// Wires per piece.
    pub wires_per_piece: usize,
    /// Fraction of wires whose far endpoint is in another piece.
    pub pct_shared: f64,
    /// Timesteps (timed).
    pub iterations: usize,
    /// RNG seed for graph generation.
    pub seed: u64,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Simulated per-GPU processing rate in wires per second (calibrated
    /// so 1-node throughput lands in the paper's regime).
    pub wires_per_second: f64,
}

impl CircuitConfig {
    /// The paper's weak-scaling setup: 2×10⁵ wires per node.
    pub fn weak(nodes: usize, overdecompose: usize) -> Self {
        let pieces = nodes * overdecompose.max(1);
        CircuitConfig {
            pieces,
            nodes_per_piece: 50_000 / overdecompose.clamp(1, 50_000),
            wires_per_piece: 200_000 / overdecompose.max(1),
            pct_shared: 0.05,
            iterations: 10,
            seed: 0xC1BC417,
            mode: ExecutionMode::Scale,
            wires_per_second: 5.0e6,
        }
    }

    /// The paper's strong-scaling setup: 5.1×10⁶ wires total.
    pub fn strong(nodes: usize) -> Self {
        let pieces = nodes;
        CircuitConfig {
            pieces,
            nodes_per_piece: (1_275_000 / pieces).max(1),
            wires_per_piece: (5_100_000 / pieces).max(1),
            pct_shared: 0.05,
            iterations: 10,
            seed: 0xC1BC417,
            mode: ExecutionMode::Scale,
            wires_per_second: 5.0e6,
        }
    }

    /// A tiny validation-mode problem.
    pub fn tiny(pieces: usize) -> Self {
        CircuitConfig {
            pieces,
            nodes_per_piece: 8,
            wires_per_piece: 16,
            pct_shared: 0.25,
            iterations: 4,
            seed: 42,
            mode: ExecutionMode::Validate,
            wires_per_second: 5.0e6,
        }
    }

    /// Total wires in the problem.
    pub fn total_wires(&self) -> u64 {
        (self.pieces * self.wires_per_piece) as u64
    }
}

/// Field handles for the circuit regions.
#[derive(Clone, Copy, Debug)]
pub struct CircuitFields {
    /// Node voltage.
    pub voltage: FieldId,
    /// Node accumulated charge.
    pub charge: FieldId,
    /// Node capacitance.
    pub capacitance: FieldId,
    /// Wire source node (global id).
    pub in_node: FieldId,
    /// Wire sink node (global id).
    pub out_node: FieldId,
    /// Wire current.
    pub current: FieldId,
    /// Wire resistance.
    pub resistance: FieldId,
}

/// A built circuit program plus the handles validation needs.
pub struct CircuitApp {
    /// The runtime program.
    pub program: Program,
    /// Configuration it was built from.
    pub config: CircuitConfig,
    /// Field ids.
    pub fields: CircuitFields,
    /// Node region tree.
    pub node_tree: RegionTreeId,
    /// Wire region tree.
    pub wire_tree: RegionTreeId,
    /// The generated wires (validation mode): `(in, out, resistance)`.
    pub wires: Arc<Vec<(i64, i64, f64)>>,
}

/// Deterministically generate wires. In validation mode every wire is
/// materialized; the ghost set of each piece is derived from the actual
/// endpoints. In scale mode we only generate the *shape*: a bounded
/// synthetic ghost set per piece (ring-neighbor pattern), which preserves
/// the communication structure without materializing 5×10⁶ wires.
fn generate_wires(config: &CircuitConfig, rng: &mut TestRng) -> Vec<(i64, i64, f64)> {
    let npp = config.nodes_per_piece as i64;
    let mut wires = Vec::with_capacity(config.pieces * config.wires_per_piece);
    for piece in 0..config.pieces as i64 {
        let base = piece * npp;
        for _ in 0..config.wires_per_piece {
            let a = base + rng.gen_range_i64(0, npp);
            let b = if rng.gen_bool(config.pct_shared) && config.pieces > 1 {
                // A neighbor piece (ring), matching the locality a graph
                // partitioner produces.
                let delta = if rng.gen_bool(0.5) { 1 } else { config.pieces as i64 - 1 };
                let other = (piece + delta) % config.pieces as i64;
                other * npp + rng.gen_range_i64(0, npp)
            } else {
                base + rng.gen_range_i64(0, npp)
            };
            let r = 1.0 + rng.gen_range_f64(0.0, 9.0);
            wires.push((a, b, r));
        }
    }
    wires
}

/// Ghost node set of each piece (sorted, deduplicated).
fn ghost_sets(config: &CircuitConfig, wires: &[(i64, i64, f64)]) -> Vec<Vec<i64>> {
    let npp = config.nodes_per_piece as i64;
    let mut ghosts: Vec<Vec<i64>> = vec![Vec::new(); config.pieces];
    for (w, &(a, b, _)) in wires.iter().enumerate() {
        let piece = w / config.wires_per_piece;
        let lo = piece as i64 * npp;
        let hi = lo + npp - 1;
        for n in [a, b] {
            if n < lo || n > hi {
                ghosts[piece].push(n);
            }
        }
    }
    for g in &mut ghosts {
        g.sort_unstable();
        g.dedup();
    }
    ghosts
}

/// Synthetic ghost sets for scale mode: `k` nodes in each ring neighbor.
fn synthetic_ghost_sets(config: &CircuitConfig) -> Vec<Vec<i64>> {
    let npp = config.nodes_per_piece as i64;
    let per_side = ((config.wires_per_piece as f64 * config.pct_shared / 2.0) as usize).clamp(1, 128);
    (0..config.pieces as i64)
        .map(|piece| {
            let mut g = Vec::with_capacity(2 * per_side);
            if config.pieces > 1 {
                for delta in [1i64, config.pieces as i64 - 1] {
                    let other = (piece + delta) % config.pieces as i64;
                    let base = other * npp;
                    for k in 0..per_side as i64 {
                        g.push(base + (k * npp / per_side as i64).min(npp - 1));
                    }
                }
            }
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect()
}

/// Build the circuit program.
pub fn build(config: &CircuitConfig) -> CircuitApp {
    let mut rng = TestRng::seed_from_u64(config.seed);
    let mut b = ProgramBuilder::new();

    // Field spaces.
    let mut nfs = FieldSpaceDesc::new();
    let voltage = nfs.add("voltage", FieldKind::F64);
    let charge = nfs.add("charge", FieldKind::F64);
    let capacitance = nfs.add("capacitance", FieldKind::F64);
    let nfs = b.forest.create_field_space(nfs);

    let mut wfs = FieldSpaceDesc::new();
    let in_node = wfs.add("in_node", FieldKind::I64);
    let out_node = wfs.add("out_node", FieldKind::I64);
    let current = wfs.add("current", FieldKind::F64);
    let resistance = wfs.add("resistance", FieldKind::F64);
    let wfs = b.forest.create_field_space(wfs);

    let fields = CircuitFields { voltage, charge, capacitance, in_node, out_node, current, resistance };

    // Regions and partitions.
    let total_nodes = (config.pieces * config.nodes_per_piece) as i64;
    let total_wires = (config.pieces * config.wires_per_piece) as i64;
    let node_region = b.forest.create_region(Domain::range(total_nodes), nfs);
    let wire_region = b.forest.create_region(Domain::range(total_wires), wfs);
    let nodes_own = equal_partition_1d(&mut b.forest, node_region.space, config.pieces);
    let wires_p = equal_partition_1d(&mut b.forest, wire_region.space, config.pieces);

    let (wires, ghosts) = if config.mode == ExecutionMode::Validate {
        let wires = generate_wires(config, &mut rng);
        let ghosts = ghost_sets(config, &wires);
        (wires, ghosts)
    } else {
        (Vec::new(), synthetic_ghost_sets(config))
    };
    let wires = Arc::new(wires);

    // Ghost partition: sparse per-piece sets of remote nodes; aliased
    // because neighboring pieces can share ghost nodes. Empty ghost sets
    // use a 1-point placeholder domain inside the piece's own range (a
    // read of owned data, harmless and keeps the coloring total).
    let ghost_coloring: Vec<(DomainPoint, Domain)> = ghosts
        .iter()
        .enumerate()
        .map(|(piece, g)| {
            let domain = if g.is_empty() {
                Domain::Rect1(Rect::new1(
                    piece as i64 * config.nodes_per_piece as i64,
                    piece as i64 * config.nodes_per_piece as i64,
                ))
            } else {
                Domain::sparse(g.iter().map(|&n| DomainPoint::new1(n)).collect())
            };
            (DomainPoint::new1(piece as i64), domain)
        })
        .collect();
    let nodes_ghost = b.forest.create_partition(
        node_region.space,
        Domain::range(config.pieces as i64),
        ghost_coloring,
        Disjointness::Aliased,
    );
    let _ = coloring_partition; // explicit-coloring op exercised in tests

    let ident = b.identity_functor();

    // ---- Task bodies (validation mode) ----
    let wpp = config.wires_per_piece;
    let wires_for_init = wires.clone();
    let init_nodes = b.task("init_nodes", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let id = p.x();
            ctx.write(0, voltage, p, (id % 7) as f64 - 3.0);
            ctx.write(0, charge, p, 0.0);
            ctx.write(0, capacitance, p, 1.0 + (id % 5) as f64);
        }
    });
    let init_wires = b.task("init_wires", move |ctx| {
        let piece = ctx.point.x() as usize;
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let w = p.x() as usize;
            let local = w - piece * wpp;
            let (a, bn, r) = wires_for_init[piece * wpp + local];
            ctx.write(0, in_node, p, a);
            ctx.write(0, out_node, p, bn);
            ctx.write(0, current, p, 0.0);
            ctx.write(0, resistance, p, r);
        }
    });
    // calc_new_currents: current = (V_in − V_out) / R.
    let cnc = b.task("calc_new_currents", move |ctx| {
        let read_v = |ctx: &il_runtime::TaskContext, n: i64| -> f64 {
            let p = DomainPoint::new1(n);
            if ctx.domain(1).contains(p) {
                ctx.read(1, voltage, p)
            } else {
                ctx.read(2, voltage, p)
            }
        };
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let a: i64 = ctx.read(0, in_node, p);
            let o: i64 = ctx.read(0, out_node, p);
            let r: f64 = ctx.read(0, resistance, p);
            let i = (read_v(ctx, a) - read_v(ctx, o)) / r;
            ctx.write(0, current, p, i);
        }
    });
    // distribute_charge: dq = I·dt leaves the source, enters the sink.
    let dc = b.task("distribute_charge", move |ctx| {
        let dt = ctx.scalar(0);
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let a: i64 = ctx.read(0, in_node, p);
            let o: i64 = ctx.read(0, out_node, p);
            let i: f64 = ctx.read(0, current, p);
            for (n, dq) in [(a, -i * dt), (o, i * dt)] {
                let q = DomainPoint::new1(n);
                let req = if ctx.domain(1).contains(q) { 1 } else { 2 };
                ctx.fold_f64(req, charge, q, ReductionKind::Sum, dq);
            }
        }
    });
    // update_voltages: fold charge into voltage, decay, reset charge.
    let uv = b.task("update_voltages", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let v: f64 = ctx.read(0, voltage, p);
            let q: f64 = ctx.read(0, charge, p);
            let c: f64 = ctx.read(0, capacitance, p);
            ctx.write(0, voltage, p, (v + q / c) * 0.999);
            ctx.write(0, charge, p, 0.0);
        }
    });

    // ---- Launches ----
    let domain = Domain::range(config.pieces as i64);
    let sum = Privilege::Reduce(ReductionKind::Sum.id());
    let wire_time = |share: f64| {
        CostSpec::Uniform(SimTime::from_secs_f64(
            config.wires_per_piece as f64 * share / config.wires_per_second,
        ))
    };
    let node_time = CostSpec::Uniform(SimTime::from_secs_f64(
        config.nodes_per_piece as f64 * 0.1 / config.wires_per_second,
    ));
    let req = |partition, privilege, fields: Vec<FieldId>, tree, fs| RegionReq {
        partition,
        functor: ident,
        privilege,
        fields,
        tree,
        field_space: fs,
    };

    b.index_launch(IndexLaunchDesc {
        task: init_nodes,
        domain: domain.clone(),
        reqs: vec![req(nodes_own, Privilege::Write, vec![], node_region.tree, nfs)],
        scalars: vec![],
        cost: node_time.clone(),
        shard: None,
    });
    b.index_launch(IndexLaunchDesc {
        task: init_wires,
        domain: domain.clone(),
        reqs: vec![req(wires_p, Privilege::Write, vec![], wire_region.tree, wfs)],
        scalars: vec![],
        cost: wire_time(0.1),
        shard: None,
    });
    b.start_timing();
    for _ in 0..config.iterations {
        b.index_launch(IndexLaunchDesc {
            task: cnc,
            domain: domain.clone(),
            reqs: vec![
                req(wires_p, Privilege::ReadWrite, vec![], wire_region.tree, wfs),
                req(nodes_own, Privilege::Read, vec![voltage], node_region.tree, nfs),
                req(nodes_ghost, Privilege::Read, vec![voltage], node_region.tree, nfs),
            ],
            scalars: vec![],
            cost: wire_time(0.6),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: dc,
            domain: domain.clone(),
            reqs: vec![
                req(wires_p, Privilege::Read, vec![], wire_region.tree, wfs),
                req(nodes_own, sum, vec![charge], node_region.tree, nfs),
                req(nodes_ghost, sum, vec![charge], node_region.tree, nfs),
            ],
            scalars: vec![1e-3],
            cost: wire_time(0.3),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: uv,
            domain: domain.clone(),
            reqs: vec![req(
                nodes_own,
                Privilege::ReadWrite,
                vec![],
                node_region.tree,
                nfs,
            )],
            scalars: vec![],
            cost: node_time.clone(),
            shard: None,
        });
    }

    CircuitApp {
        program: b.build(),
        config: config.clone(),
        fields,
        node_tree: node_region.tree,
        wire_tree: wire_region.tree,
        wires,
    }
}

/// Throughput in wires per second from a run report.
pub fn throughput(config: &CircuitConfig, report: &RunReport) -> f64 {
    let work = config.total_wires() as f64 * config.iterations as f64;
    work / report.elapsed.as_secs_f64()
}

/// Sequential reference: final node voltages.
pub fn reference(config: &CircuitConfig, wires: &[(i64, i64, f64)]) -> Vec<f64> {
    let n = config.pieces * config.nodes_per_piece;
    let mut voltage: Vec<f64> = (0..n).map(|id| (id % 7) as f64 - 3.0).collect();
    let cap: Vec<f64> = (0..n).map(|id| 1.0 + (id % 5) as f64).collect();
    let mut current = vec![0.0f64; wires.len()];
    let dt = 1e-3;
    for _ in 0..config.iterations {
        for (w, &(a, o, r)) in wires.iter().enumerate() {
            current[w] = (voltage[a as usize] - voltage[o as usize]) / r;
        }
        let mut charge = vec![0.0f64; n];
        for (w, &(a, o, _)) in wires.iter().enumerate() {
            charge[a as usize] -= current[w] * dt;
            charge[o as usize] += current[w] * dt;
        }
        for id in 0..n {
            voltage[id] = (voltage[id] + charge[id] / cap[id]) * 0.999;
        }
    }
    voltage
}

/// Extract final voltages from a validation run.
pub fn extract_voltages(app: &CircuitApp, report: &RunReport) -> Vec<f64> {
    let store = report.store.as_ref().expect("validation mode");
    let forest = &app.program.forest;
    let n = app.config.pieces * app.config.nodes_per_piece;
    let npp = app.config.nodes_per_piece as u64;
    let mut out = vec![f64::NAN; n];
    for s in 0..forest.num_spaces() as u32 {
        let space = il_region::IndexSpaceId(s);
        let node = forest.space(space);
        // Owned-node subspaces are the dense pieces of the node region.
        if node.parent().is_some() && matches!(node.domain, Domain::Rect1(_)) && node.domain.volume() == npp
        {
            if let Some(inst) = store.get((app.node_tree, space)) {
                if inst.has_field(app.fields.voltage) && inst.has_field(app.fields.capacitance) {
                    for p in node.domain.iter() {
                        out[p.x() as usize] = inst.get::<f64>(app.fields.voltage, p);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_runtime::{execute, RuntimeConfig};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "voltage {i}: {x} vs {y}");
        }
    }

    #[test]
    fn validates_against_reference_all_configs() {
        let config = CircuitConfig::tiny(4);
        for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
            let app = build(&config);
            let rt = RuntimeConfig::validate(2).with_axes(dcr, idx);
            let report = execute(&app.program, &rt);
            let got = extract_voltages(&app, &report);
            let want = reference(&config, &app.wires);
            assert_close(&got, &want);
        }
    }

    #[test]
    fn all_launches_statically_safe() {
        // The paper: circuit "is verified entirely by Regent's static
        // checker and does not incur any runtime cost".
        let app = build(&CircuitConfig::tiny(4));
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        assert_eq!(report.dynamic_check_time, il_machine::SimTime::ZERO);
    }

    #[test]
    fn scale_mode_runs_at_many_nodes() {
        let config = CircuitConfig::weak(16, 1);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::scale(16));
        assert_eq!(report.tasks, (2 + 3 * config.iterations as u64) * 16);
        let tput = throughput(&config, &report);
        assert!(tput > 0.0);
    }

    #[test]
    fn ghost_sets_are_remote_only() {
        let config = CircuitConfig::tiny(4);
        let mut rng = TestRng::seed_from_u64(config.seed);
        let wires = generate_wires(&config, &mut rng);
        let ghosts = ghost_sets(&config, &wires);
        let npp = config.nodes_per_piece as i64;
        for (piece, g) in ghosts.iter().enumerate() {
            let lo = piece as i64 * npp;
            let hi = lo + npp - 1;
            assert!(g.iter().all(|&n| n < lo || n > hi), "piece {piece}");
        }
    }

    #[test]
    fn synthetic_ghosts_bounded() {
        let config = CircuitConfig::weak(8, 1);
        let ghosts = synthetic_ghost_sets(&config);
        assert_eq!(ghosts.len(), 8);
        assert!(ghosts.iter().all(|g| !g.is_empty() && g.len() <= 256));
    }

    #[test]
    fn weak_and_strong_presets() {
        let w = CircuitConfig::weak(4, 1);
        assert_eq!(w.total_wires(), 800_000);
        let s = CircuitConfig::strong(4);
        assert_eq!(s.total_wires(), 5_100_000);
        let od = CircuitConfig::weak(4, 10);
        assert_eq!(od.pieces, 40);
        assert_eq!(od.total_wires(), 800_000);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn single_piece_circuit_validates() {
        // pct_shared is irrelevant with one piece: no ghosts at all.
        let config = CircuitConfig {
            pieces: 1,
            ..CircuitConfig::tiny(1)
        };
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(1));
        let got = extract_voltages(&app, &report);
        let want = reference(&config, &app.wires);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn charge_is_reset_every_timestep() {
        // After any number of iterations, every node's charge field is
        // exactly zero (update_voltages consumed and reset it).
        let config = CircuitConfig::tiny(3);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(3));
        let store = report.store.as_ref().unwrap();
        let forest = &app.program.forest;
        let npp = config.nodes_per_piece as u64;
        for s in 0..forest.num_spaces() as u32 {
            let space = il_region::IndexSpaceId(s);
            let node = forest.space(space);
            if node.parent().is_some()
                && matches!(node.domain, Domain::Rect1(_))
                && node.domain.volume() == npp
            {
                if let Some(inst) = store.get((app.node_tree, space)) {
                    if inst.has_field(app.fields.capacitance) {
                        for p in node.domain.iter() {
                            assert_eq!(inst.get::<f64>(app.fields.charge, p), 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_accounts_total_wires() {
        let config = CircuitConfig::weak(4, 1);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::scale(4));
        let tput = throughput(&config, &report);
        // 4 nodes near the 1-node calibration of ~5.4M wires/s/node.
        assert!(tput > 4.0 * 4.0e6 && tput < 4.0 * 7.0e6, "{tput:.3e}");
    }
}
