//! Soleil-mini: turbulent fluid + particles + discrete-ordinates
//! radiation (DOM), after Soleil-X (§6.1).
//!
//! The fluid is an explicit diffusion step over a 3-D grid with aliased
//! halo reads; particles are tracers advected by the local fluid
//! velocity; radiation is the interesting module: for each of the 8
//! octants, intensity sweeps across the tile grid in *wavefronts* —
//! launch domains that are 3-D diagonal slices of the tile grid. Each
//! sweep task exchanges upstream/downstream flux through three 2-D plane
//! regions, selected by the projection functors
//! `(x,y,z) ↦ (y,z)`, `(x,z)`, `(x,y)`.
//!
//! "This projection is safe only when the launch domain contains no
//! duplicate (x,y), (y,z) or (x,z) pairs. While it could be challenging
//! for a static compiler to verify that no duplicate pairs exist, a
//! dynamic check can verify this trivially." (§6.2.3) — and indeed the
//! static analyzer returns Unknown for these swizzles and the dynamic
//! bitmask check proves them injective over every wavefront.

use crate::kernel::block_rows;
use il_geometry::{Domain, DomainPoint, Rect};
use il_machine::{NodeId, SimTime};
use il_region::{
    block_partition_2d, block_partition_3d, coloring_partition, halo_partition_3d, FieldId,
    FieldKind, FieldSpaceDesc, Privilege, RegionTreeId,
};
use il_runtime::{
    CostSpec, ExecutionMode, IndexLaunchDesc, Program, ProgramBuilder, RegionReq, RunReport,
};
use il_analysis::ProjExpr;
use std::sync::Arc;

/// Diffusion coefficient of the fluid step.
pub const NU: f64 = 0.05;
/// Radiation scattering factor.
pub const SIGMA: f64 = 0.7;
/// Radiation emission coupling.
pub const EMISS: f64 = 0.3;
/// Radiation absorption coupling back into the fluid.
pub const EPS: f64 = 1e-3;

/// The eight octant directions of the discrete-ordinates method.
pub const OCTANTS: [(i64, i64, i64); 8] = [
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
    (-1, 1, 1),
    (-1, 1, -1),
    (-1, -1, 1),
    (-1, -1, -1),
];

/// Soleil-mini configuration.
#[derive(Clone, Debug)]
pub struct SoleilConfig {
    /// Tile grid (one task per tile per stage).
    pub tiles: (usize, usize, usize),
    /// Cells per tile per axis.
    pub cells_per_tile: (i64, i64, i64),
    /// Fluid sub-stages per timestep (real Soleil-X runs a multi-stage
    /// Runge-Kutta integrator, so one timestep issues many launches —
    /// this is what makes per-launch overheads visible at scale).
    pub fluid_stages: usize,
    /// Tracer particles per tile.
    pub particles_per_tile: usize,
    /// Enable the particle module.
    pub particles: bool,
    /// Enable the DOM radiation module.
    pub dom: bool,
    /// Timed iterations.
    pub iterations: usize,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Simulated per-GPU fluid rate (cells/s).
    pub fluid_cells_per_second: f64,
    /// Simulated per-GPU sweep rate (cells/s per octant).
    pub dom_cells_per_second: f64,
}

impl SoleilConfig {
    /// Near-cubic tile grid for `n` tiles.
    pub fn tile_grid(n: usize) -> (usize, usize, usize) {
        let mut best = (n, 1, 1);
        let mut best_score = usize::MAX;
        for a in 1..=n {
            if n % a != 0 {
                continue;
            }
            let rem = n / a;
            for b in 1..=rem {
                if rem % b != 0 {
                    continue;
                }
                let c = rem / b;
                let score = a.max(b).max(c) - a.min(b).min(c);
                if score < best_score {
                    best_score = score;
                    best = (a, b, c);
                }
            }
        }
        best
    }

    /// Fluid-only weak scaling (Figure 9): one tile per node.
    pub fn fluid_weak(nodes: usize) -> Self {
        SoleilConfig {
            tiles: Self::tile_grid(nodes),
            cells_per_tile: (180, 180, 180),
            fluid_stages: 8,
            particles_per_tile: 0,
            particles: false,
            dom: false,
            iterations: 10,
            mode: ExecutionMode::Scale,
            fluid_cells_per_second: 1.5e7,
            dom_cells_per_second: 6.0e7,
        }
    }

    /// Full-physics weak scaling (Figure 10): fluid + particles + DOM.
    pub fn full_weak(nodes: usize) -> Self {
        SoleilConfig {
            tiles: Self::tile_grid(nodes),
            cells_per_tile: (96, 96, 96),
            fluid_stages: 4,
            particles_per_tile: 1000,
            particles: true,
            dom: true,
            iterations: 10,
            mode: ExecutionMode::Scale,
            fluid_cells_per_second: 1.5e7,
            dom_cells_per_second: 6.0e7,
        }
    }

    /// A tiny validation problem.
    pub fn tiny(tiles: (usize, usize, usize)) -> Self {
        SoleilConfig {
            tiles,
            cells_per_tile: (2, 2, 2),
            fluid_stages: 2,
            particles_per_tile: 2,
            particles: true,
            dom: true,
            iterations: 2,
            mode: ExecutionMode::Validate,
            fluid_cells_per_second: 1.5e7,
            dom_cells_per_second: 6.0e7,
        }
    }

    /// Grid size per axis.
    pub fn grid(&self) -> (i64, i64, i64) {
        (
            self.tiles.0 as i64 * self.cells_per_tile.0,
            self.tiles.1 as i64 * self.cells_per_tile.1,
            self.tiles.2 as i64 * self.cells_per_tile.2,
        )
    }

    /// Total tiles.
    pub fn total_tiles(&self) -> usize {
        self.tiles.0 * self.tiles.1 * self.tiles.2
    }

    /// Cells per tile.
    pub fn tile_cells(&self) -> i64 {
        self.cells_per_tile.0 * self.cells_per_tile.1 * self.cells_per_tile.2
    }
}

/// A built Soleil-mini program plus validation handles.
pub struct SoleilApp {
    /// The runtime program.
    pub program: Program,
    /// Configuration.
    pub config: SoleilConfig,
    /// Fluid field `u`.
    pub u: FieldId,
    /// Fluid region tree.
    pub fluid_tree: RegionTreeId,
    /// Radiation fields, one per octant.
    pub ity: Vec<FieldId>,
    /// Radiation region tree.
    pub rad_tree: RegionTreeId,
    /// Particle position fields `(x, y, z)`.
    pub ppos: (FieldId, FieldId, FieldId),
    /// Particle region tree (when enabled).
    pub part_tree: Option<RegionTreeId>,
}

/// Consistent tile → node mapping shared by every launch (dense 3-D,
/// sparse wavefront, and 2-D boundary domains all shard by the tile they
/// touch).
fn tile_shard(tiles: (usize, usize, usize)) -> il_runtime::ShardingFn {
    let (tx, ty, tz) = (tiles.0 as i64, tiles.1 as i64, tiles.2 as i64);
    Arc::new(move |p: DomainPoint, _d: &il_runtime::ShardDomain<'_>, nodes: usize| -> NodeId {
        let (x, y, z) = match p.dim() {
            3 => (p.x(), p.y(), p.z()),
            // 2-D boundary launches for planes: map onto the entry tile's
            // (y,z)/(x,z)/(x,y) — x component 0 is a fine proxy because
            // plane (a, b) is owned alongside tile (0, a, b).
            2 => (0, p.x(), p.y()),
            _ => (p.x(), 0, 0),
        };
        let lin = (x * ty * tz + y * tz + z) as u128;
        let total = (tx * ty * tz) as u128;
        ((lin * nodes as u128) / total) as NodeId
    })
}

/// Wavefront slices of the tile grid for one octant: slice `w` holds all
/// tiles whose direction-adjusted progress coordinates sum to `w`.
pub fn wavefronts(tiles: (usize, usize, usize), dir: (i64, i64, i64)) -> Vec<Vec<DomainPoint>> {
    let (tx, ty, tz) = (tiles.0 as i64, tiles.1 as i64, tiles.2 as i64);
    let n = (tx + ty + tz - 2) as usize;
    let mut out = vec![Vec::new(); n];
    for x in 0..tx {
        for y in 0..ty {
            for z in 0..tz {
                let px = if dir.0 > 0 { x } else { tx - 1 - x };
                let py = if dir.1 > 0 { y } else { ty - 1 - y };
                let pz = if dir.2 > 0 { z } else { tz - 1 - z };
                out[(px + py + pz) as usize].push(DomainPoint::new3(x, y, z));
            }
        }
    }
    out
}

/// Build the Soleil-mini program.
#[allow(clippy::too_many_lines)]
pub fn build(config: &SoleilConfig) -> SoleilApp {
    let mut b = ProgramBuilder::new();
    let (gx, gy, gz) = config.grid();
    let (cx, cy, cz) = config.cells_per_tile;
    let tiles = config.tiles;
    let shard = tile_shard(tiles);

    // ---- Fluid region ----
    let mut ffs = FieldSpaceDesc::new();
    let u = ffs.add("u", FieldKind::F64);
    let unew = ffs.add("unew", FieldKind::F64);
    let ffs = b.forest.create_field_space(ffs);
    let fluid = b
        .forest
        .create_region(Domain::Rect3(Rect::new3((0, 0, 0), (gx - 1, gy - 1, gz - 1))), ffs);
    let f_blocks = block_partition_3d(&mut b.forest, fluid.space, tiles);
    let f_halo = halo_partition_3d(&mut b.forest, fluid.space, tiles, 1);

    // ---- Radiation region: one intensity field per octant ----
    let mut rfs = FieldSpaceDesc::new();
    let ity: Vec<FieldId> = (0..8).map(|o| rfs.add(&format!("ity{o}"), FieldKind::F64)).collect();
    let rfs = b.forest.create_field_space(rfs);
    let rad = b
        .forest
        .create_region(Domain::Rect3(Rect::new3((0, 0, 0), (gx - 1, gy - 1, gz - 1))), rfs);
    let r_blocks = block_partition_3d(&mut b.forest, rad.space, tiles);

    // ---- Flux planes: per octant, one region per axis, partitioned by
    // the 2-D tile coordinates of the plane ----
    let mut pfs = FieldSpaceDesc::new();
    let flux = pfs.add("flux", FieldKind::F64);
    let pfs = b.forest.create_field_space(pfs);
    let mut fx_regions = Vec::new(); // (region, partition) per octant
    let mut fy_regions = Vec::new();
    let mut fz_regions = Vec::new();
    if config.dom {
        for _ in 0..8 {
            let rx = b
                .forest
                .create_region(Domain::Rect2(Rect::new2((0, 0), (gy - 1, gz - 1))), pfs);
            let px = block_partition_2d(&mut b.forest, rx.space, (tiles.1, tiles.2));
            fx_regions.push((rx, px));
            let ry = b
                .forest
                .create_region(Domain::Rect2(Rect::new2((0, 0), (gx - 1, gz - 1))), pfs);
            let py = block_partition_2d(&mut b.forest, ry.space, (tiles.0, tiles.2));
            fy_regions.push((ry, py));
            let rz = b
                .forest
                .create_region(Domain::Rect2(Rect::new2((0, 0), (gx - 1, gy - 1))), pfs);
            let pz = block_partition_2d(&mut b.forest, rz.space, (tiles.0, tiles.1));
            fz_regions.push((rz, pz));
        }
    }

    // ---- Particles: contiguous ranges per tile, colored by tile ----
    let mut sfs = FieldSpaceDesc::new();
    let px_ = sfs.add("px", FieldKind::F64);
    let py_ = sfs.add("py", FieldKind::F64);
    let pz_ = sfs.add("pz", FieldKind::F64);
    let sfs = b.forest.create_field_space(sfs);
    let ppt = config.particles_per_tile as i64;
    let part = if config.particles && ppt > 0 {
        let total = config.total_tiles() as i64 * ppt;
        let region = b.forest.create_region(Domain::range(total), sfs);
        let coloring: Vec<(DomainPoint, Domain)> = (0..tiles.0 as i64)
            .flat_map(|x| {
                (0..tiles.1 as i64).flat_map(move |y| {
                    (0..tiles.2 as i64).map(move |z| {
                        let lin = x * (tiles.1 * tiles.2) as i64 + y * tiles.2 as i64 + z;
                        (
                            DomainPoint::new3(x, y, z),
                            Domain::Rect1(Rect::new1(lin * ppt, (lin + 1) * ppt - 1)),
                        )
                    })
                })
            })
            .collect();
        let color_space = Domain::Rect3(Rect::new3(
            (0, 0, 0),
            (tiles.0 as i64 - 1, tiles.1 as i64 - 1, tiles.2 as i64 - 1),
        ));
        let p = coloring_partition(&mut b.forest, region.space, color_space, coloring);
        Some((region, p))
    } else {
        None
    };

    // ---- Functors ----
    let id3 = b.identity_functor();
    let id2 = b.functor(ProjExpr::Affine(il_geometry::DynTransform::identity(2)));
    let swiz_yz = b.functor(ProjExpr::Swizzle(vec![1, 2]));
    let swiz_xz = b.functor(ProjExpr::Swizzle(vec![0, 2]));
    let swiz_xy = b.functor(ProjExpr::Swizzle(vec![0, 1]));

    // ---- Task bodies ----
    let init_fluid = b.task("init_fluid", move |ctx| {
        let block = ctx.domain(0).clone();
        let inst = ctx.inst_mut(0);
        let mut v = inst.accessor_mut::<f64>(u);
        for (first, len) in block_rows(&block) {
            let (x, y) = (first.x(), first.y());
            for (k, c) in v.row_mut(first, len).iter_mut().enumerate() {
                let z = first.z() + k as i64;
                *c = ((x * 31 + y * 17 + z * 7) % 11) as f64 / 11.0;
            }
        }
        let mut v = inst.accessor_mut::<f64>(unew);
        for (first, len) in block_rows(&block) {
            v.row_mut(first, len).fill(0.0);
        }
    });
    let fluid_step = b.task("fluid_step", move |ctx| {
        let block = ctx.domain(1).clone();
        let (input, mut output) = ctx.read_write::<f64, f64>((0, u), (1, unew));
        for (first, len) in block_rows(&block) {
            let (x, y, z0) = (first.x(), first.y(), first.z());
            // The four x/y neighbor rows (none past the grid edge), in the
            // order the sum takes them, and row (x, y) widened by one cell
            // each way along z inside the grid: `mid[k + lead]` is z0 + k.
            let side = [(1, 0), (-1, 0), (0, 1), (0, -1)].map(|(dx, dy)| {
                let (nx, ny) = (x + dx, y + dy);
                (nx >= 0 && nx < gx && ny >= 0 && ny < gy)
                    .then(|| input.row(DomainPoint::new3(nx, ny, z0), len))
            });
            let lead = usize::from(z0 > 0);
            let trail = usize::from(z0 + (len as i64) < gz);
            let mid = input.row(DomainPoint::new3(x, y, z0 - lead as i64), lead + len + trail);
            for (k, out) in output.row_mut(first, len).iter_mut().enumerate() {
                let z = z0 + k as i64;
                let c = mid[k + lead];
                let mut acc = 0.0;
                for row in side.iter().flatten() {
                    acc += row[k] - c;
                }
                if z + 1 < gz {
                    acc += mid[k + lead + 1] - c;
                }
                if z > 0 {
                    acc += mid[k + lead - 1] - c;
                }
                *out = c + NU * acc;
            }
        }
    });
    // `u ← unew`: one requirement, two fields of its instance.
    let fluid_swap = b.task("fluid_swap", move |ctx| {
        let block = ctx.domain(0).clone();
        let (src, mut dst) = ctx.read_write::<f64, f64>((0, unew), (0, u));
        for (first, len) in block_rows(&block) {
            dst.row_mut(first, len).copy_from_slice(src.row(first, len));
        }
    });
    let advect = b.task("advect", move |ctx| {
        // Tracers move by the local fluid value, wrapping within the
        // owning tile (ownership is static in this mini-app).
        let tile = ctx.point;
        let lo = (
            tile.x() * cx,
            tile.y() * cy,
            tile.z() * cz,
        );
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let x: f64 = ctx.read(0, px_, p);
            let y: f64 = ctx.read(0, py_, p);
            let z: f64 = ctx.read(0, pz_, p);
            let cell = DomainPoint::new3(
                (x.floor() as i64).clamp(lo.0, lo.0 + cx - 1),
                (y.floor() as i64).clamp(lo.1, lo.1 + cy - 1),
                (z.floor() as i64).clamp(lo.2, lo.2 + cz - 1),
            );
            let vel: f64 = ctx.read(1, u, cell);
            let wrap = |v: f64, lo: i64, ext: i64| lo as f64 + (v - lo as f64 + vel).rem_euclid(ext as f64);
            ctx.write(0, px_, p, wrap(x, lo.0, cx));
            ctx.write(0, py_, p, wrap(y, lo.1, cy));
            ctx.write(0, pz_, p, wrap(z, lo.2, cz));
        }
    });
    let init_particles = b.task("init_particles", move |ctx| {
        let tile = ctx.point;
        let lo = (tile.x() * cx, tile.y() * cy, tile.z() * cz);
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for (k, p) in pts.into_iter().enumerate() {
            ctx.write(0, px_, p, lo.0 as f64 + (k as f64 * 0.37) % cx as f64);
            ctx.write(0, py_, p, lo.1 as f64 + (k as f64 * 0.61) % cy as f64);
            ctx.write(0, pz_, p, lo.2 as f64 + (k as f64 * 0.89) % cz as f64);
        }
    });
    let dom_bc = b.task("dom_bc", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            ctx.write(0, flux, p, 0.0);
        }
    });
    // One sweep task variant per octant (each reads/writes its own
    // intensity field and flux regions; the direction fixes iteration
    // order and entry/exit faces).
    let mut sweep_tasks = Vec::new();
    for (o, dir) in OCTANTS.iter().enumerate() {
        let ity_o = ity[o];
        let dir = *dir;
        sweep_tasks.push(b.task(&format!("dom_sweep{o}"), move |ctx| {
            // req0: intensity block (rw), req1: fluid block (read u),
            // req2/3/4: flux planes FX (y,z), FY (x,z), FZ (x,y).
            let (lo, hi) = ctx.domain(0).bounds();
            let xr: Vec<i64> = if dir.0 > 0 {
                (lo.x()..=hi.x()).collect()
            } else {
                (lo.x()..=hi.x()).rev().collect()
            };
            let yr: Vec<i64> = if dir.1 > 0 {
                (lo.y()..=hi.y()).collect()
            } else {
                (lo.y()..=hi.y()).rev().collect()
            };
            let zr: Vec<i64> = if dir.2 > 0 {
                (lo.z()..=hi.z()).collect()
            } else {
                (lo.z()..=hi.z()).rev().collect()
            };
            for &x in &xr {
                for &y in &yr {
                    for &z in &zr {
                        let p = DomainPoint::new3(x, y, z);
                        let in_x: f64 = if x == xr[0] {
                            ctx.read(2, flux, DomainPoint::new2(y, z))
                        } else {
                            ctx.read(0, ity_o, DomainPoint::new3(x - dir.0, y, z))
                        };
                        let in_y: f64 = if y == yr[0] {
                            ctx.read(3, flux, DomainPoint::new2(x, z))
                        } else {
                            ctx.read(0, ity_o, DomainPoint::new3(x, y - dir.1, z))
                        };
                        let in_z: f64 = if z == zr[0] {
                            ctx.read(4, flux, DomainPoint::new2(x, y))
                        } else {
                            ctx.read(0, ity_o, DomainPoint::new3(x, y, z - dir.2))
                        };
                        let src: f64 = ctx.read(1, u, p);
                        let val = (in_x + in_y + in_z) / 3.0 * SIGMA + EMISS * src;
                        ctx.write(0, ity_o, p, val);
                    }
                }
            }
            // Write exit faces into the flux planes.
            let exit_x = *xr.last().unwrap();
            let exit_y = *yr.last().unwrap();
            let exit_z = *zr.last().unwrap();
            for &y in &yr {
                for &z in &zr {
                    let v: f64 = ctx.read(0, ity_o, DomainPoint::new3(exit_x, y, z));
                    ctx.write(2, flux, DomainPoint::new2(y, z), v);
                }
            }
            for &x in &xr {
                for &z in &zr {
                    let v: f64 = ctx.read(0, ity_o, DomainPoint::new3(x, exit_y, z));
                    ctx.write(3, flux, DomainPoint::new2(x, z), v);
                }
            }
            for &x in &xr {
                for &y in &yr {
                    let v: f64 = ctx.read(0, ity_o, DomainPoint::new3(x, y, exit_z));
                    ctx.write(4, flux, DomainPoint::new2(x, y), v);
                }
            }
        }));
    }
    let ity_all = ity.clone();
    let absorb = b.task("absorb", move |ctx| {
        let pts: Vec<_> = ctx.domain(0).iter().collect();
        for p in pts {
            let total: f64 = ity_all.iter().map(|&f| ctx.read::<f64>(1, f, p)).sum();
            let v: f64 = ctx.read(0, u, p);
            ctx.write(0, u, p, v + EPS * total / 8.0);
        }
    });

    // ---- Launches ----
    let tile_domain = Domain::Rect3(Rect::new3(
        (0, 0, 0),
        (tiles.0 as i64 - 1, tiles.1 as i64 - 1, tiles.2 as i64 - 1),
    ));
    let cells = config.tile_cells() as f64;
    let fluid_time = |share: f64| {
        CostSpec::Uniform(SimTime::from_secs_f64(share * cells / config.fluid_cells_per_second))
    };
    let sweep_time = CostSpec::Uniform(SimTime::from_secs_f64(cells / config.dom_cells_per_second));
    let freq = |partition, functor, privilege, fields: Vec<FieldId>| RegionReq {
        partition,
        functor,
        privilege,
        fields,
        tree: fluid.tree,
        field_space: ffs,
    };

    b.index_launch(IndexLaunchDesc {
        task: init_fluid,
        domain: tile_domain.clone(),
        reqs: vec![freq(f_blocks, id3, Privilege::Write, vec![])],
        scalars: vec![],
        cost: fluid_time(0.3),
        shard: Some(shard.clone()),
    });
    if let Some((preg, ppart)) = &part {
        b.index_launch(IndexLaunchDesc {
            task: init_particles,
            domain: tile_domain.clone(),
            reqs: vec![RegionReq {
                partition: *ppart,
                functor: id3,
                privilege: Privilege::Write,
                fields: vec![],
                tree: preg.tree,
                field_space: sfs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(20)),
            shard: Some(shard.clone()),
        });
    }
    b.start_timing();
    let stages = config.fluid_stages.max(1);
    for _ in 0..config.iterations {
        for _ in 0..stages {
            b.index_launch(IndexLaunchDesc {
                task: fluid_step,
                domain: tile_domain.clone(),
                reqs: vec![
                    freq(f_halo, id3, Privilege::Read, vec![u]),
                    freq(f_blocks, id3, Privilege::ReadWrite, vec![unew]),
                ],
                scalars: vec![],
                cost: fluid_time(0.6 / stages as f64),
                shard: Some(shard.clone()),
            });
            b.index_launch(IndexLaunchDesc {
                task: fluid_swap,
                domain: tile_domain.clone(),
                reqs: vec![freq(f_blocks, id3, Privilege::ReadWrite, vec![])],
                scalars: vec![],
                cost: fluid_time(0.2 / stages as f64),
                shard: Some(shard.clone()),
            });
        }
        if let Some((preg, ppart)) = &part {
            b.index_launch(IndexLaunchDesc {
                task: advect,
                domain: tile_domain.clone(),
                reqs: vec![
                    RegionReq {
                        partition: *ppart,
                        functor: id3,
                        privilege: Privilege::ReadWrite,
                        fields: vec![],
                        tree: preg.tree,
                        field_space: sfs,
                    },
                    freq(f_blocks, id3, Privilege::Read, vec![u]),
                ],
                scalars: vec![],
                cost: CostSpec::Uniform(SimTime::from_secs_f64(
                    config.particles_per_tile as f64 / 2.0e7,
                )),
                shard: Some(shard.clone()),
            });
        }
        if config.dom {
            for (o, dir) in OCTANTS.iter().enumerate() {
                // Boundary fills for the three flux regions.
                for (axis, (reg, partn)) in [
                    (0usize, &fx_regions[o]),
                    (1, &fy_regions[o]),
                    (2, &fz_regions[o]),
                ] {
                    let (da, db) = match axis {
                        0 => (tiles.1, tiles.2),
                        1 => (tiles.0, tiles.2),
                        _ => (tiles.0, tiles.1),
                    };
                    let _ = dir;
                    b.index_launch(IndexLaunchDesc {
                        task: dom_bc,
                        domain: Domain::Rect2(Rect::new2(
                            (0, 0),
                            (da as i64 - 1, db as i64 - 1),
                        )),
                        reqs: vec![RegionReq {
                            partition: *partn,
                            functor: id2,
                            privilege: Privilege::Write,
                            fields: vec![],
                            tree: reg.tree,
                            field_space: pfs,
                        }],
                        scalars: vec![],
                        cost: CostSpec::Uniform(SimTime::us(15)),
                        shard: Some(shard.clone()),
                    });
                }
                // Wavefront sweeps: sparse diagonal launch domains with
                // the paper's plane-projection functors.
                for slice in wavefronts(tiles, *dir) {
                    let slice_domain = Domain::sparse(slice);
                    b.index_launch(IndexLaunchDesc {
                        task: sweep_tasks[o],
                        domain: slice_domain,
                        reqs: vec![
                            RegionReq {
                                partition: r_blocks,
                                functor: id3,
                                privilege: Privilege::ReadWrite,
                                fields: vec![ity[o]],
                                tree: rad.tree,
                                field_space: rfs,
                            },
                            freq(f_blocks, id3, Privilege::Read, vec![u]),
                            RegionReq {
                                partition: fx_regions[o].1,
                                functor: swiz_yz,
                                privilege: Privilege::ReadWrite,
                                fields: vec![],
                                tree: fx_regions[o].0.tree,
                                field_space: pfs,
                            },
                            RegionReq {
                                partition: fy_regions[o].1,
                                functor: swiz_xz,
                                privilege: Privilege::ReadWrite,
                                fields: vec![],
                                tree: fy_regions[o].0.tree,
                                field_space: pfs,
                            },
                            RegionReq {
                                partition: fz_regions[o].1,
                                functor: swiz_xy,
                                privilege: Privilege::ReadWrite,
                                fields: vec![],
                                tree: fz_regions[o].0.tree,
                                field_space: pfs,
                            },
                        ],
                        scalars: vec![],
                        cost: sweep_time.clone(),
                        shard: Some(shard.clone()),
                    });
                }
            }
            b.index_launch(IndexLaunchDesc {
                task: absorb,
                domain: tile_domain.clone(),
                reqs: vec![
                    freq(f_blocks, id3, Privilege::ReadWrite, vec![u]),
                    RegionReq {
                        partition: r_blocks,
                        functor: id3,
                        privilege: Privilege::Read,
                        fields: vec![],
                        tree: rad.tree,
                        field_space: rfs,
                    },
                ],
                scalars: vec![],
                cost: fluid_time(0.2),
                shard: Some(shard.clone()),
            });
        }
    }

    SoleilApp {
        program: b.build(),
        config: config.clone(),
        u,
        fluid_tree: fluid.tree,
        ity,
        rad_tree: rad.tree,
        ppos: (px_, py_, pz_),
        part_tree: part.as_ref().map(|(r, _)| r.tree),
    }
}

/// Throughput in iterations per second.
pub fn throughput(config: &SoleilConfig, report: &RunReport) -> f64 {
    config.iterations as f64 / report.elapsed.as_secs_f64()
}

/// Sequential reference: final fluid field `u` (row-major x,y,z).
pub fn reference(config: &SoleilConfig) -> Vec<f64> {
    let (gx, gy, gz) = config.grid();
    let idx = |x: i64, y: i64, z: i64| ((x * gy + y) * gz + z) as usize;
    let n = (gx * gy * gz) as usize;
    let mut ufield: Vec<f64> = (0..n)
        .map(|k| {
            let k = k as i64;
            let (x, y, z) = (k / (gy * gz), (k / gz) % gy, k % gz);
            ((x * 31 + y * 17 + z * 7) % 11) as f64 / 11.0
        })
        .collect();
    let mut ity = vec![vec![0.0f64; n]; 8];
    for _ in 0..config.iterations {
        // Fluid diffusion sub-stages.
        for _ in 0..config.fluid_stages.max(1) {
            let mut unew = ufield.clone();
            for x in 0..gx {
                for y in 0..gy {
                    for z in 0..gz {
                        let c = ufield[idx(x, y, z)];
                        let mut acc = 0.0;
                        for (dx, dy, dz) in
                            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
                        {
                            let (qx, qy, qz) = (x + dx, y + dy, z + dz);
                            if qx >= 0 && qx < gx && qy >= 0 && qy < gy && qz >= 0 && qz < gz {
                                acc += ufield[idx(qx, qy, qz)] - c;
                            }
                        }
                        unew[idx(x, y, z)] = c + NU * acc;
                    }
                }
            }
            ufield = unew;
        }
        // DOM sweeps (particles don't affect u).
        if config.dom {
            for (o, dir) in OCTANTS.iter().enumerate() {
                let xs: Vec<i64> =
                    if dir.0 > 0 { (0..gx).collect() } else { (0..gx).rev().collect() };
                let ys: Vec<i64> =
                    if dir.1 > 0 { (0..gy).collect() } else { (0..gy).rev().collect() };
                let zs: Vec<i64> =
                    if dir.2 > 0 { (0..gz).collect() } else { (0..gz).rev().collect() };
                for &x in &xs {
                    for &y in &ys {
                        for &z in &zs {
                            let up = |qx: i64, qy: i64, qz: i64| -> f64 {
                                if qx < 0 || qx >= gx || qy < 0 || qy >= gy || qz < 0 || qz >= gz {
                                    0.0
                                } else {
                                    ity[o][idx(qx, qy, qz)]
                                }
                            };
                            let in_x = up(x - dir.0, y, z);
                            let in_y = up(x, y - dir.1, z);
                            let in_z = up(x, y, z - dir.2);
                            ity[o][idx(x, y, z)] = (in_x + in_y + in_z) / 3.0 * SIGMA
                                + EMISS * ufield[idx(x, y, z)];
                        }
                    }
                }
            }
            for k in 0..n {
                let total: f64 = (0..8).map(|o| ity[o][k]).sum();
                ufield[k] += EPS * total / 8.0;
            }
        }
    }
    ufield
}

/// Extract the final fluid `u` grid from a validation run.
pub fn extract_u(app: &SoleilApp, report: &RunReport) -> Vec<f64> {
    let store = report.store.as_ref().expect("validation mode");
    let forest = &app.program.forest;
    let (gx, gy, gz) = app.config.grid();
    let mut out = vec![f64::NAN; (gx * gy * gz) as usize];
    let root = forest.tree_root(app.fluid_tree);
    let blocks = forest.space(root).partitions[0];
    for space in forest.partition(blocks).children.values() {
        if let Some(inst) = store.get((app.fluid_tree, space)) {
            for p in forest.domain(space).iter() {
                out[((p.x() * gy + p.y()) * gz + p.z()) as usize] = inst.get::<f64>(app.u, p);
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
    fn wavefronts_cover_tiles_without_duplicates() {
        for dir in OCTANTS {
            let fronts = wavefronts((3, 2, 2), dir);
            assert_eq!(fronts.len(), 5);
            let mut all: Vec<DomainPoint> = fronts.iter().flatten().copied().collect();
            assert_eq!(all.len(), 12);
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 12);
            // No duplicate (x,y), (y,z), (x,z) pairs within a slice — the
            // paper's safety condition for the plane projections.
            for slice in &fronts {
                for take in [[0usize, 1], [1, 2], [0, 2]] {
                    let mut pairs: Vec<(i64, i64)> = slice
                        .iter()
                        .map(|p| (p.coord(take[0]), p.coord(take[1])))
                        .collect();
                    let len = pairs.len();
                    pairs.sort_unstable();
                    pairs.dedup();
                    assert_eq!(pairs.len(), len);
                }
            }
        }
    }

    #[test]
    fn tile_grid_is_balanced() {
        assert_eq!(SoleilConfig::tile_grid(8), (2, 2, 2));
        assert_eq!(SoleilConfig::tile_grid(64), (4, 4, 4));
        let (a, b, c) = SoleilConfig::tile_grid(32);
        assert_eq!(a * b * c, 32);
        assert!(a.max(b).max(c) <= 4 * a.min(b).min(c));
    }

    #[test]
    fn fluid_only_validates() {
        let mut config = SoleilConfig::tiny((2, 2, 2));
        config.dom = false;
        config.particles = false;
        let want = reference(&config);
        for (dcr, idx) in [(true, true), (false, false)] {
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(4).with_axes(dcr, idx));
            let got = extract_u(&app, &report);
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-12, "cell {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn full_physics_validates_against_reference() {
        let config = SoleilConfig::tiny((2, 2, 2));
        let want = reference(&config);
        for (dcr, idx) in [(true, true), (true, false), (false, true)] {
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(4).with_axes(dcr, idx));
            let got = extract_u(&app, &report);
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "cell {k}: {a} vs {b} (dcr={dcr} idx={idx})"
                );
            }
        }
    }

    #[test]
    fn dom_needs_dynamic_checks() {
        // The sweeps' swizzle functors are statically undecidable; with
        // checks enabled the run pays dynamic-check time, and the checks
        // pass (the program executes as index launches).
        let config = SoleilConfig::tiny((2, 2, 2));
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(4));
        assert!(report.dynamic_check_time > SimTime::ZERO);
        let app2 = build(&config);
        let no_checks =
            execute(&app2.program, &RuntimeConfig::validate(4).with_dynamic_checks(false));
        assert_eq!(no_checks.dynamic_check_time, SimTime::ZERO);
        // Identical results either way.
        assert_eq!(extract_u(&app, &report), {
            
            extract_u(&app2, &no_checks)
        });
    }

    #[test]
    fn asymmetric_tile_grid_validates() {
        let config = SoleilConfig::tiny((3, 2, 1));
        let want = reference(&config);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(3));
        let got = extract_u(&app, &report);
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-12, "cell {k}: {a} vs {b}");
        }
    }

    #[test]
    fn scale_mode_runs() {
        let config = SoleilConfig {
            mode: ExecutionMode::Scale,
            ..SoleilConfig::tiny((2, 2, 2))
        };
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::scale(8));
        assert!(report.makespan > SimTime::ZERO);
        assert!(throughput(&config, &report) > 0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use il_runtime::{execute, RuntimeConfig};

    #[test]
    fn all_octants_sweep_directionally() {
        // For each octant, the first wavefront must contain exactly the
        // corner tile the sweep starts from.
        let tiles = (2, 2, 2);
        for dir in OCTANTS {
            let fronts = wavefronts(tiles, dir);
            assert_eq!(fronts[0].len(), 1, "first wavefront is the corner");
            let corner = fronts[0][0];
            let expect = DomainPoint::new3(
                if dir.0 > 0 { 0 } else { 1 },
                if dir.1 > 0 { 0 } else { 1 },
                if dir.2 > 0 { 0 } else { 1 },
            );
            assert_eq!(corner, expect, "octant {dir:?}");
        }
    }

    #[test]
    fn single_tile_grid_validates() {
        // Degenerate machine: all 8 octants sweep a single tile.
        let config = SoleilConfig::tiny((1, 1, 1));
        let want = reference(&config);
        let app = build(&config);
        let report = execute(&app.program, &RuntimeConfig::validate(1));
        let got = extract_u(&app, &report);
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-12, "cell {k}: {a} vs {b}");
        }
    }

    #[test]
    fn fluid_stages_change_the_math_consistently() {
        // 1 stage vs 3 stages are different computations; both validate.
        for stages in [1usize, 3] {
            let config = SoleilConfig {
                fluid_stages: stages,
                dom: false,
                particles: false,
                ..SoleilConfig::tiny((2, 1, 1))
            };
            let want = reference(&config);
            let app = build(&config);
            let report = execute(&app.program, &RuntimeConfig::validate(2));
            let got = extract_u(&app, &report);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sweep_launches_use_sparse_domains() {
        let config = SoleilConfig::tiny((2, 2, 2));
        let app = build(&config);
        let sparse_ops = app
            .program
            .ops
            .iter()
            .filter(|op| matches!(op.launch().domain, Domain::Sparse { .. }))
            .count();
        // 8 octants × (2+2+2-2) wavefronts × iterations.
        assert_eq!(sparse_ops, 8 * 4 * config.iterations);
    }
}
