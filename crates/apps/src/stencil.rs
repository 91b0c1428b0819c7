//! Stencil: the PRK 2-D radius-2 star stencil (§6.1).
//!
//! The grid region holds two fields, `fin` and `fout`. Per iteration:
//!
//! 1. `stencil` — reads `fin` through the *aliased halo* partition
//!    (each tile grown by the stencil radius) and read-writes `fout`
//!    through the disjoint block partition: `fout += Σ w(d)·fin(p+d)`;
//! 2. `increment` — read-writes `fin` through the blocks: `fin += 1`.
//!
//! Both launches use identity functors and are statically verified. The
//! halo reads against block writes are non-interfering because the two
//! requirements touch disjoint *fields* — per-field privileges, as in
//! Legion.

use il_geometry::{Domain, DomainPoint, Rect};
use il_machine::SimTime;
use il_region::{
    block_partition_2d, halo_partition_2d, FieldId, FieldKind, FieldSpaceDesc, Privilege,
    RegionTreeId,
};
use il_runtime::{
    CostSpec, ExecutionMode, IndexLaunchDesc, Program, ProgramBuilder, RegionReq, RunReport,
};

/// Stencil radius (PRK default star radius 2).
pub const RADIUS: i64 = 2;

/// Stencil problem configuration.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// Grid size (cells per side along x and y).
    pub grid: (i64, i64),
    /// Tile grid (tiles along x and y); tiles.0 × tiles.1 = launch size.
    pub tiles: (usize, usize),
    /// Timed iterations.
    pub iterations: usize,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Simulated per-GPU rate in cells per second.
    pub cells_per_second: f64,
}

impl StencilConfig {
    /// Square-ish tile grid for `n` tiles.
    fn tile_grid(n: usize) -> (usize, usize) {
        let mut tx = (n as f64).sqrt() as usize;
        while tx > 1 && n % tx != 0 {
            tx -= 1;
        }
        (tx.max(1), n / tx.max(1))
    }

    /// The paper's weak scaling: 9×10⁸ cells per node.
    pub fn weak(nodes: usize) -> Self {
        let tiles = Self::tile_grid(nodes);
        let per_node = 30_000i64; // 30_000² = 9×10⁸ cells per node
        StencilConfig {
            grid: (per_node * tiles.0 as i64, per_node * tiles.1 as i64),
            tiles,
            iterations: 10,
            mode: ExecutionMode::Scale,
            cells_per_second: 1.0e10,
        }
    }

    /// The paper's strong scaling: 9×10⁸ cells total.
    pub fn strong(nodes: usize) -> Self {
        let tiles = Self::tile_grid(nodes);
        StencilConfig {
            grid: (30_000, 30_000),
            tiles,
            iterations: 10,
            mode: ExecutionMode::Scale,
            cells_per_second: 1.0e10,
        }
    }

    /// A tiny validation-mode problem.
    pub fn tiny(tiles: (usize, usize)) -> Self {
        StencilConfig {
            grid: (12, 12),
            tiles,
            iterations: 3,
            mode: ExecutionMode::Validate,
            cells_per_second: 1.0e10,
        }
    }

    /// Total cells.
    pub fn total_cells(&self) -> u64 {
        (self.grid.0 * self.grid.1) as u64
    }

    /// Cells per tile (uniform split assumed for costs).
    pub fn cells_per_tile(&self) -> f64 {
        self.total_cells() as f64 / (self.tiles.0 * self.tiles.1) as f64
    }
}

/// A built stencil program plus validation handles.
pub struct StencilApp {
    /// The runtime program.
    pub program: Program,
    /// Configuration.
    pub config: StencilConfig,
    /// Input field.
    pub fin: FieldId,
    /// Output field.
    pub fout: FieldId,
    /// Grid region tree.
    pub tree: RegionTreeId,
}

/// Star-stencil weight for offset distance `d` (1..=RADIUS).
fn weight(d: i64) -> f64 {
    1.0 / (2.0 * RADIUS as f64 * d as f64)
}

/// Build the stencil program.
pub fn build(config: &StencilConfig) -> StencilApp {
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let fin = fsd.add("fin", FieldKind::F64);
    let fout = fsd.add("fout", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let grid: Domain = Rect::new2((0, 0), (config.grid.0 - 1, config.grid.1 - 1)).into();
    let region = b.forest.create_region(grid.clone(), fs);
    let blocks = block_partition_2d(&mut b.forest, region.space, config.tiles);
    let halo = halo_partition_2d(&mut b.forest, region.space, config.tiles, RADIUS);

    let ident = b.identity_functor();
    let (gx, gy) = config.grid;

    let init = b.task("init", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, fin, p, (p.x() + p.y()) as f64);
            ctx.write(0, fout, p, 0.0);
        }
    });
    let stencil = b.task("stencil", move |ctx| {
        // Interior points only (the PRK stencil skips the grid border):
        // the block clipped to [RADIUS, g - RADIUS) on both axes.
        let &Domain::Rect2(block) = ctx.domain(1) else { unreachable!("blocks are rectangles") };
        let xs = block.lo[0].max(RADIUS)..=block.hi[0].min(gx - RADIUS - 1);
        let ys = block.lo[1].max(RADIUS)..=block.hi[1].min(gy - RADIUS - 1);
        let (input, mut output) = ctx.read_write::<f64, f64>((0, fin), (1, fout));
        for x in xs {
            for y in ys.clone() {
                let p = DomainPoint::new2(x, y);
                let mut acc = output[p];
                for d in 1..=RADIUS {
                    let w = weight(d);
                    acc += w * input[DomainPoint::new2(x + d, y)];
                    acc += w * input[DomainPoint::new2(x - d, y)];
                    acc += w * input[DomainPoint::new2(x, y + d)];
                    acc += w * input[DomainPoint::new2(x, y - d)];
                }
                output[p] = acc;
            }
        }
    });
    let increment = b.task("increment", move |ctx| {
        let &Domain::Rect2(block) = ctx.domain(0) else { unreachable!("blocks are rectangles") };
        let mut v = ctx.inst_mut(0).accessor_mut::<f64>(fin);
        for x in block.lo[0]..=block.hi[0] {
            for y in block.lo[1]..=block.hi[1] {
                v[DomainPoint::new2(x, y)] += 1.0;
            }
        }
    });

    let domain = Domain::Rect2(Rect::new2(
        (0, 0),
        (config.tiles.0 as i64 - 1, config.tiles.1 as i64 - 1),
    ));
    let cell_time = |share: f64| {
        CostSpec::Uniform(SimTime::from_secs_f64(
            config.cells_per_tile() * share / config.cells_per_second,
        ))
    };

    b.index_launch(IndexLaunchDesc {
        task: init,
        domain: domain.clone(),
        reqs: vec![RegionReq {
            partition: blocks,
            functor: ident,
            privilege: Privilege::Write,
            fields: vec![],
            tree: region.tree,
            field_space: fs,
        }],
        scalars: vec![],
        cost: cell_time(0.2),
        shard: None,
    });
    b.start_timing();
    for _ in 0..config.iterations {
        b.index_launch(IndexLaunchDesc {
            task: stencil,
            domain: domain.clone(),
            reqs: vec![
                RegionReq {
                    partition: halo,
                    functor: ident,
                    privilege: Privilege::Read,
                    fields: vec![fin],
                    tree: region.tree,
                    field_space: fs,
                },
                RegionReq {
                    partition: blocks,
                    functor: ident,
                    privilege: Privilege::ReadWrite,
                    fields: vec![fout],
                    tree: region.tree,
                    field_space: fs,
                },
            ],
            scalars: vec![],
            cost: cell_time(0.8),
            shard: None,
        });
        b.index_launch(IndexLaunchDesc {
            task: increment,
            domain: domain.clone(),
            reqs: vec![RegionReq {
                partition: blocks,
                functor: ident,
                privilege: Privilege::ReadWrite,
                fields: vec![fin],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: cell_time(0.2),
            shard: None,
        });
    }

    StencilApp { program: b.build(), config: config.clone(), fin, fout, tree: region.tree }
}

/// Throughput in cells per second.
pub fn throughput(config: &StencilConfig, report: &RunReport) -> f64 {
    config.total_cells() as f64 * config.iterations as f64 / report.elapsed.as_secs_f64()
}

/// Sequential reference: final `fout` grid.
pub fn reference(config: &StencilConfig) -> Vec<f64> {
    let (gx, gy) = config.grid;
    let idx = |x: i64, y: i64| (x * gy + y) as usize;
    let mut fin: Vec<f64> = (0..gx * gy).map(|k| (k / gy + k % gy) as f64).collect();
    let mut fout = vec![0.0f64; (gx * gy) as usize];
    for _ in 0..config.iterations {
        for x in RADIUS..gx - RADIUS {
            for y in RADIUS..gy - RADIUS {
                let mut acc = fout[idx(x, y)];
                for d in 1..=RADIUS {
                    let w = weight(d);
                    acc += w * (fin[idx(x + d, y)] + fin[idx(x - d, y)]
                        + fin[idx(x, y + d)]
                        + fin[idx(x, y - d)]);
                }
                fout[idx(x, y)] = acc;
            }
        }
        for v in &mut fin {
            *v += 1.0;
        }
    }
    fout
}

/// Extract the final `fout` grid from a validation run.
pub fn extract_fout(app: &StencilApp, report: &RunReport) -> Vec<f64> {
    let store = report.store.as_ref().expect("validation mode");
    let forest = &app.program.forest;
    let (gx, gy) = app.config.grid;
    let mut out = vec![f64::NAN; (gx * gy) as usize];
    // Block subspaces: children of the first (disjoint) partition.
    let root = forest.tree_root(app.tree);
    let blocks = forest.space(root).partitions[0];
    for space in forest.partition(blocks).children.values() {
        if let Some(inst) = store.get((app.tree, space)) {
            for p in forest.domain(space).iter() {
                out[(p.x() * gy + p.y()) as usize] = inst.get::<f64>(app.fout, p);
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
        let config = StencilConfig::tiny((2, 2));
        let want = reference(&config);
        for (dcr, idx) in [(true, true), (true, false), (false, true), (false, false)] {
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(4).with_axes(dcr, idx));
            let got = extract_fout(&app, &report);
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "cell {k}: {a} vs {b} (dcr={dcr} idx={idx})");
            }
        }
    }

    #[test]
    fn uneven_tiles_validate() {
        let config = StencilConfig::tiny((3, 2));
        let want = reference(&config);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(3));
        let got = extract_fout(&app, &report);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn statically_safe() {
        let app = build(&StencilConfig::tiny((2, 2)));
        let report = execute(&app.program, &RuntimeConfig::validate(2));
        assert_eq!(report.dynamic_check_time, il_machine::SimTime::ZERO);
    }

    #[test]
    fn halo_exchange_moves_bytes() {
        let config = StencilConfig::tiny((2, 2));
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(4));
        // fin strips cross nodes every iteration.
        assert!(report.bytes > 0);
    }

    #[test]
    fn presets() {
        let w = StencilConfig::weak(4);
        assert_eq!(w.total_cells(), 4 * 900_000_000);
        let s = StencilConfig::strong(16);
        assert_eq!(s.total_cells(), 900_000_000);
        assert_eq!(s.tiles.0 * s.tiles.1, 16);
        let odd = StencilConfig::tile_grid(6);
        assert_eq!(odd.0 * odd.1, 6);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn single_tile_has_no_exchange() {
        let config = StencilConfig::tiny((1, 1));
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(1));
        assert_eq!(report.messages, 0);
        let got = extract_fout(&app, &report);
        let want = reference(&config);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn tall_thin_tiles() {
        // Tiles narrower than the stencil radius still validate (halo
        // clamping + cross-tile reads through multiple neighbors).
        let config = StencilConfig {
            grid: (12, 12),
            tiles: (6, 1),
            iterations: 2,
            mode: il_runtime::ExecutionMode::Validate,
            cells_per_second: 1e10,
        };
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(3));
        let got = extract_fout(&app, &report);
        let want = reference(&config);
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "cell {k}: {a} vs {b}");
        }
    }

    #[test]
    fn weights_sum_matches_prk_star() {
        // Σ over the 4 arms of Σ_{d=1..R} w(d) = 4 × Σ 1/(2Rd).
        let total: f64 = (1..=RADIUS).map(|d| 4.0 * weight(d)).sum();
        let expect: f64 = (1..=RADIUS).map(|d| 2.0 / (RADIUS as f64 * d as f64)).sum();
        assert!((total - expect).abs() < 1e-12);
    }
}
