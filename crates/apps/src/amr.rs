//! AMR: a block-structured adaptive-mesh-refinement driver (1-D).
//!
//! The grid region holds a solution field `u` and a scratch field `unew`.
//! Time is split into *epochs* of `steps_per_epoch` timesteps; at every
//! epoch boundary the driver regrids, alternating between a coarse block
//! partition and a refined one (`refine_factor`× more blocks). The
//! refined pair is produced by the in-place partition-replacement ops
//! ([`il_region::replace_equal_partition_1d`] /
//! [`il_region::replace_halo_partition_1d`]), the regrid step of a real
//! AMR code. Both levels are built before the first op; the op stream
//! alternates between them, so no partition changes while the program
//! runs.
//!
//! Each timestep issues three launches:
//!
//! 1. `flag` — the regrid indicator: reads `u` through the *fixed* coarse
//!    blocks and computes the per-block gradient maximum. Its launch
//!    signature never changes, so it is the first key of every captured
//!    trace — and at each epoch boundary that key reappears followed by
//!    the *other* level's step/copy keys, forcing the trace recorder to
//!    invalidate the stale trace and re-capture (the analysis cache
//!    likewise misses on the first timestep of each level and hits
//!    afterwards).
//! 2. `step` — explicit diffusion: reads `u` through the epoch's aliased
//!    halo partition, writes `unew` through the epoch's disjoint blocks
//!    (field-disjoint, statically safe, identity functors).
//! 3. `copy` — `u = unew` through the epoch's blocks.
//!
//! Refined epochs also swap the sharding functor from the default block
//! sharding to round-robin — the rebalance a regrid triggers — so traces,
//! shard maps, and distribution plans all turn over at the boundary.

use crate::kernel::block_rows;
use il_geometry::Domain;
use il_machine::SimTime;
use il_region::{
    equal_partition_1d, halo_partition_1d, replace_equal_partition_1d, replace_halo_partition_1d,
    FieldId, FieldKind, FieldSpaceDesc, IndexPartitionId, Privilege, RegionTreeId,
};
use il_runtime::{
    round_robin_shard, CostSpec, ExecutionMode, IndexLaunchDesc, Program, ProgramBuilder,
    RegionReq, RunReport,
};

/// Stencil radius of the diffusion update (nearest neighbor).
pub const RADIUS: i64 = 1;

/// Diffusion coefficient (stable for the explicit 1-D scheme).
pub const ALPHA: f64 = 0.25;

/// AMR problem configuration.
#[derive(Clone, Debug)]
pub struct AmrConfig {
    /// Grid cells.
    pub cells: i64,
    /// Blocks of the coarse level (= indicator launch size).
    pub base_blocks: usize,
    /// Refinement ratio: the fine level has `base_blocks × refine_factor`
    /// blocks.
    pub refine_factor: usize,
    /// Timesteps between regrids.
    pub steps_per_epoch: usize,
    /// Epochs (regrid intervals); the level alternates coarse/fine.
    pub epochs: usize,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Simulated per-GPU rate in cells per second.
    pub cells_per_second: f64,
}

impl AmrConfig {
    /// A tiny validation-mode problem: 3 epochs of 4 steps over 96 cells,
    /// regridding 3 → 6 → 3 blocks.
    pub fn tiny() -> Self {
        AmrConfig {
            cells: 96,
            base_blocks: 3,
            refine_factor: 2,
            steps_per_epoch: 4,
            epochs: 3,
            mode: ExecutionMode::Validate,
            cells_per_second: 1.0e10,
        }
    }

    /// Weak scaling: 10⁶ cells per node, one coarse block per node.
    pub fn weak(nodes: usize) -> Self {
        AmrConfig {
            cells: nodes as i64 * 1_000_000,
            base_blocks: nodes,
            refine_factor: 4,
            steps_per_epoch: 4,
            epochs: 4,
            mode: ExecutionMode::Scale,
            cells_per_second: 1.0e10,
        }
    }

    /// Strong scaling: 10⁷ cells total.
    pub fn strong(nodes: usize) -> Self {
        AmrConfig {
            cells: 10_000_000,
            base_blocks: nodes,
            refine_factor: 4,
            steps_per_epoch: 4,
            epochs: 4,
            mode: ExecutionMode::Scale,
            cells_per_second: 1.0e10,
        }
    }

    /// Blocks at level 0 (coarse) or 1 (fine).
    pub fn blocks_at(&self, level: usize) -> usize {
        if level == 0 {
            self.base_blocks
        } else {
            self.base_blocks * self.refine_factor
        }
    }

    /// The refinement level of an epoch (alternates coarse/fine).
    pub fn level_of(&self, epoch: usize) -> usize {
        epoch % 2
    }

    /// Total timed timesteps.
    pub fn total_steps(&self) -> usize {
        self.epochs * self.steps_per_epoch
    }
}

/// A built AMR program plus validation handles.
pub struct AmrApp {
    /// The runtime program.
    pub program: Program,
    /// Configuration.
    pub config: AmrConfig,
    /// Solution field.
    pub u: FieldId,
    /// Scratch field.
    pub unew: FieldId,
    /// Grid region tree.
    pub tree: RegionTreeId,
    /// Disjoint block partitions per level: `[coarse, fine]`.
    pub blocks: [IndexPartitionId; 2],
    /// Aliased halo partitions per level: `[coarse, fine]`.
    pub halos: [IndexPartitionId; 2],
}

/// Initial profile (integer-derived so the reference is bit-exact).
fn initial(i: i64) -> f64 {
    ((i * i) % 13) as f64
}

/// Build the AMR program.
pub fn build(config: &AmrConfig) -> AmrApp {
    assert!(config.refine_factor >= 2, "refinement must change the block count");
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let u = fsd.add("u", FieldKind::F64);
    let unew = fsd.add("unew", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(config.cells), fs);

    // Level 0: the coarse mesh.
    let coarse_blocks = equal_partition_1d(&mut b.forest, region.space, config.base_blocks);
    let coarse_halo = halo_partition_1d(&mut b.forest, region.space, config.base_blocks, RADIUS);

    // Level 1: starts coarse and is refined *in place* — the regrid op of
    // the driver — before the first op is issued. Launches on it differ
    // from level 0's by partition id, which is what the analysis cache
    // and the trace keys see.
    let fine = config.base_blocks * config.refine_factor;
    let fine_blocks = equal_partition_1d(&mut b.forest, region.space, config.base_blocks);
    replace_equal_partition_1d(&mut b.forest, fine_blocks, fine).expect("refine blocks");
    let fine_halo = halo_partition_1d(&mut b.forest, region.space, config.base_blocks, RADIUS);
    replace_halo_partition_1d(&mut b.forest, fine_halo, fine, RADIUS).expect("refine halo");

    let blocks = [coarse_blocks, fine_blocks];
    let halos = [coarse_halo, fine_halo];
    let ident = b.identity_functor();
    let cells = config.cells;

    let init = b.task("init", move |ctx| {
        let block = ctx.domain(0).clone();
        let inst = ctx.inst_mut(0);
        let mut v = inst.accessor_mut::<f64>(u);
        for (first, len) in block_rows(&block) {
            for (k, c) in v.row_mut(first, len).iter_mut().enumerate() {
                *c = initial(first.x() + k as i64);
            }
        }
        let mut v = inst.accessor_mut::<f64>(unew);
        for (first, len) in block_rows(&block) {
            v.row_mut(first, len).fill(0.0);
        }
    });
    // Regrid indicator: per-block gradient maximum of `u`. Read-only and
    // epoch-independent — the fixed first key of every captured trace.
    let flag = b.task("flag", move |ctx| {
        let v = ctx.inst(0).accessor::<f64>(u);
        let mut max_grad = 0.0f64;
        for (first, len) in block_rows(ctx.domain(0)) {
            for pair in v.row(first, len).windows(2) {
                max_grad = max_grad.max((pair[1] - pair[0]).abs());
            }
        }
        std::hint::black_box(max_grad);
    });
    let step = b.task("step", move |ctx| {
        // The halo row covers the block and its in-grid neighbors:
        // `src[x - h]` is cell x.
        let (halo, block) = (ctx.domain(0).clone(), ctx.domain(1).clone());
        let (input, mut output) = ctx.read_write::<f64, f64>((0, u), (1, unew));
        let Some((hfirst, hlen)) = block_rows(&halo).next() else { return };
        let (src, h) = (input.row(hfirst, hlen), hfirst.x());
        for (first, len) in block_rows(&block) {
            for (k, out) in output.row_mut(first, len).iter_mut().enumerate() {
                let x = first.x() + k as i64;
                let i = (x - h) as usize;
                let c = src[i];
                let l = if x > 0 { src[i - 1] } else { c };
                let r = if x < cells - 1 { src[i + 1] } else { c };
                *out = c + ALPHA * (l - 2.0 * c + r);
            }
        }
    });
    // Read `unew` and write `u` through *separate field-scoped reqs*: a
    // single all-fields req would make the cross-level refresh of `u`
    // (whose last writer is the other level's blocks at an epoch
    // boundary) also pull in a stale `unew` over the one `step` just
    // wrote. A plain Write needs no refresh at all. Both name the same
    // block, so they share its instance, two fields apart.
    let copy = b.task("copy", move |ctx| {
        let block = ctx.domain(0).clone();
        let (src, mut dst) = ctx.read_write::<f64, f64>((0, unew), (1, u));
        for (first, len) in block_rows(&block) {
            dst.row_mut(first, len).copy_from_slice(src.row(first, len));
        }
    });

    let cell_time = |blocks: usize, share: f64| {
        CostSpec::Uniform(SimTime::from_secs_f64(
            config.cells as f64 / blocks as f64 * share / config.cells_per_second,
        ))
    };
    let req = |partition, privilege, fields: Vec<FieldId>| RegionReq {
        partition,
        functor: ident,
        privilege,
        fields,
        tree: region.tree,
        field_space: fs,
    };
    // Refined epochs rebalance with round-robin sharding (one stable
    // functor value, so its interned identity is stable across launches).
    let rr = round_robin_shard();

    b.index_launch(IndexLaunchDesc {
        task: init,
        domain: Domain::range(config.base_blocks as i64),
        reqs: vec![req(coarse_blocks, Privilege::Write, vec![])],
        scalars: vec![],
        cost: cell_time(config.base_blocks, 0.2),
        shard: None,
    });
    b.start_timing();
    for epoch in 0..config.epochs {
        let level = config.level_of(epoch);
        let nb = config.blocks_at(level);
        let shard = if level == 0 { None } else { Some(rr.clone()) };
        for _ in 0..config.steps_per_epoch {
            b.index_launch(IndexLaunchDesc {
                task: flag,
                domain: Domain::range(config.base_blocks as i64),
                reqs: vec![req(coarse_blocks, Privilege::Read, vec![u])],
                scalars: vec![],
                cost: cell_time(config.base_blocks, 0.1),
                shard: None,
            });
            b.index_launch(IndexLaunchDesc {
                task: step,
                domain: Domain::range(nb as i64),
                reqs: vec![
                    req(halos[level], Privilege::Read, vec![u]),
                    req(blocks[level], Privilege::Write, vec![unew]),
                ],
                scalars: vec![],
                cost: cell_time(nb, 0.6),
                shard: shard.clone(),
            });
            b.index_launch(IndexLaunchDesc {
                task: copy,
                domain: Domain::range(nb as i64),
                reqs: vec![
                    req(blocks[level], Privilege::Read, vec![unew]),
                    req(blocks[level], Privilege::Write, vec![u]),
                ],
                scalars: vec![],
                cost: cell_time(nb, 0.3),
                shard: shard.clone(),
            });
        }
    }

    AmrApp {
        program: b.build(),
        config: config.clone(),
        u,
        unew,
        tree: region.tree,
        blocks,
        halos,
    }
}

/// Throughput in cell-updates per second.
pub fn throughput(config: &AmrConfig, report: &RunReport) -> f64 {
    config.cells as f64 * config.total_steps() as f64 / report.elapsed.as_secs_f64()
}

/// Sequential reference: final `u` grid.
pub fn reference(config: &AmrConfig) -> Vec<f64> {
    let n = config.cells;
    let mut u: Vec<f64> = (0..n).map(initial).collect();
    for _ in 0..config.total_steps() {
        let mut next = vec![0.0f64; n as usize];
        for i in 0..n {
            let c = u[i as usize];
            let l = if i > 0 { u[(i - 1) as usize] } else { c };
            let r = if i < n - 1 { u[(i + 1) as usize] } else { c };
            next[i as usize] = c + ALPHA * (l - 2.0 * c + r);
        }
        u = next;
    }
    u
}

/// Extract the final `u` grid from a validation run (read through the
/// final epoch's block partition — the last writer).
pub fn extract_u(app: &AmrApp, report: &RunReport) -> Vec<f64> {
    let store = report.store.as_ref().expect("validation mode");
    let forest = &app.program.forest;
    let final_level = app.config.level_of(app.config.epochs - 1);
    let mut out = vec![f64::NAN; app.config.cells as usize];
    for space in forest.partition(app.blocks[final_level]).children.values() {
        if let Some(inst) = store.get((app.tree, space)) {
            for p in forest.domain(space).iter() {
                out[p.x() as usize] = inst.get::<f64>(app.u, p);
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
        let config = AmrConfig::tiny();
        let want = reference(&config);
        for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(4).with_axes(dcr, idx));
            let got = extract_u(&app, &report);
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "cell {k}: {a} vs {b} (dcr={dcr} idx={idx})");
            }
        }
    }

    #[test]
    fn statically_safe() {
        // All functors are the identity over disjoint or declared-aliased
        // partitions: no dynamic checks anywhere.
        let app = build(&AmrConfig::tiny());
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        assert_eq!(report.dynamic_check_time, il_machine::SimTime::ZERO);
    }

    #[test]
    fn regrid_invalidates_and_recaptures_traces() {
        // Each epoch's steady loop is captured; every regrid boundary
        // re-issues the fixed indicator key with a different continuation,
        // which must invalidate the stale trace and trigger a re-capture.
        let config = AmrConfig::tiny();
        let app = build(&config);
        let report =
            execute(&app.program, &RuntimeConfig::validate(4).with_trace_replay(true));
        let stats = &report.trace_replay;
        assert!(stats.enabled);
        assert!(
            stats.captured >= config.epochs as u64,
            "each epoch must capture its own trace: {stats:?}"
        );
        assert!(
            stats.invalidated >= (config.epochs - 1) as u64,
            "each regrid must invalidate the previous epoch's trace: {stats:?}"
        );
        assert!(stats.replayed > 0, "steady steps inside an epoch must replay: {stats:?}");
    }

    #[test]
    fn regrid_cycles_warm_the_analysis_cache() {
        // Within an epoch every timestep after the first hits the verdict
        // cache; the regrid flips the partition set, so the first timestep
        // of each level misses and later epochs at the same level hit.
        let app = build(&AmrConfig::tiny());
        let report = execute(&app.program, &RuntimeConfig::validate(4));
        let stats = &report.analysis_cache;
        assert!(stats.hits > 0, "steady timesteps must hit: {stats:?}");
        assert!(stats.misses > 0, "regrids must miss: {stats:?}");
    }

    #[test]
    fn refined_epochs_reshard() {
        // Round-robin sharding on fine epochs actually moves work: a
        // 2-node run exchanges bytes between the coarse block layout and
        // the round-robin fine layout.
        let app = build(&AmrConfig::tiny());
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        assert!(report.bytes > 0);
    }

    #[test]
    fn scale_mode_task_count() {
        let config = AmrConfig::weak(4);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::scale(4));
        let mut want = config.base_blocks as u64; // init
        for epoch in 0..config.epochs {
            let nb = config.blocks_at(config.level_of(epoch)) as u64;
            want += config.steps_per_epoch as u64 * (config.base_blocks as u64 + 2 * nb);
        }
        assert_eq!(report.tasks, want);
        assert!(throughput(&config, &report) > 0.0);
    }

    #[test]
    fn presets() {
        let t = AmrConfig::tiny();
        assert_eq!(t.blocks_at(0), 3);
        assert_eq!(t.blocks_at(1), 6);
        assert_eq!(t.total_steps(), 12);
        let w = AmrConfig::weak(8);
        assert_eq!(w.cells, 8_000_000);
        assert_eq!(w.blocks_at(1), 32);
        let s = AmrConfig::strong(16);
        assert_eq!(s.cells, 10_000_000);
    }
}
