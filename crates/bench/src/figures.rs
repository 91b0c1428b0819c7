//! The scaling experiments of §6.2 (Figures 4–10).
//!
//! Each figure fans its independent (node count × configuration) points
//! across `threads` workers with [`par_map`] (`0` = one per hardware
//! thread); results come back in point order, so a figure is
//! byte-identical at any width.

use il_apps::{circuit, soleil, stencil};
use il_runtime::pool::par_map;
use il_runtime::{execute, Program, RunReport, RuntimeConfig};

/// Options shared by every figure sweep.
///
/// The paper's methodology (§6) averages 5 runs per data point, but the
/// simulator is a deterministic DES: re-running a point reproduces the
/// identical report bit-for-bit, so averaging is redundant work. The
/// default is therefore a single run; `repeats(5)` restores the paper's
/// methodology, with each repeat *asserted* identical to the first
/// rather than folded into a meaningless mean.
#[derive(Clone, Copy, Debug)]
pub struct SweepOpts {
    /// Largest node count to sweep (each figure additionally clamps to
    /// the paper's own range).
    pub max_nodes: usize,
    /// DES executions per data point (min 1).
    pub repeats: u32,
}

impl SweepOpts {
    /// Single-run sweep up to `max_nodes`.
    pub fn new(max_nodes: usize) -> Self {
        SweepOpts { max_nodes, repeats: 1 }
    }

    /// Set the number of executions per point (clamped to ≥ 1).
    pub fn repeats(mut self, n: u32) -> Self {
        self.repeats = n.max(1);
        self
    }
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts::new(1024)
    }
}

/// Execute one figure point `repeats` times, asserting every rerun
/// reproduces the first report exactly (the DES is deterministic — any
/// difference is a simulator bug, not noise to average away).
fn run_point(program: &Program, rt: &RuntimeConfig, repeats: u32) -> RunReport {
    let first = execute(program, rt);
    for rerun in 1..repeats {
        let again = execute(program, rt);
        assert!(
            again.makespan == first.makespan
                && again.elapsed == first.elapsed
                && again.dynamic_check_time == first.dynamic_check_time
                && again.tasks == first.tasks
                && again.stage_json().to_string() == first.stage_json().to_string(),
            "deterministic DES diverged on repeat {rerun}"
        );
    }
    first
}

/// One data point of a figure.
#[derive(Clone, Debug)]
pub struct FigPoint {
    /// Figure id (e.g. "fig5").
    pub figure: String,
    /// Node count.
    pub nodes: usize,
    /// Configuration label (e.g. "DCR, IDX").
    pub config: String,
    /// Aggregate throughput in the figure's work unit per second.
    pub throughput: f64,
    /// Throughput per node.
    pub per_node: f64,
    /// Parallel efficiency vs. the same configuration at 1 node
    /// (weak scaling) or ideal speedup (strong scaling).
    pub efficiency: f64,
    /// Simulated elapsed time of the timed portion (ms).
    pub elapsed_ms: f64,
    /// Simulated time spent in dynamic safety checks (ms).
    pub dyn_check_ms: f64,
}

/// A rendered figure: its points grouped by configuration.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id.
    pub id: String,
    /// Caption (what the paper's figure shows).
    pub caption: String,
    /// Work-unit label for the throughput column.
    pub unit: String,
    /// All measured points.
    pub points: Vec<FigPoint>,
}

/// The four (DCR × IDX) corners, labeled as in the paper's legends.
pub const AXES: [(&str, bool, bool); 4] = [
    ("DCR, IDX", true, true),
    ("DCR, No IDX", true, false),
    ("No DCR, IDX", false, true),
    ("No DCR, No IDX", false, false),
];

fn pow2_up_to(max: usize) -> Vec<usize> {
    let mut v = vec![1usize];
    while *v.last().unwrap() < max {
        let next = v.last().unwrap() * 2;
        v.push(next);
    }
    v
}

fn fill_efficiency(points: &mut [FigPoint], weak: bool) {
    // Efficiency is relative to the same configuration at the smallest
    // node count.
    let mut configs: Vec<String> = Vec::new();
    for p in points.iter() {
        if !configs.contains(&p.config) {
            configs.push(p.config.clone());
        }
    }
    for config in configs {
        let base = points
            .iter()
            .filter(|p| p.config == config)
            .min_by_key(|p| p.nodes)
            .map(|p| (p.nodes, p.throughput))
            .unwrap();
        for p in points.iter_mut().filter(|p| p.config == config) {
            p.efficiency = if weak {
                p.per_node / (base.1 / base.0 as f64)
            } else {
                (p.throughput / base.1) / (p.nodes as f64 / base.0 as f64)
            };
        }
    }
}

/// One figure point from a run's report and its throughput (`per_node`
/// is the throughput per node; Soleil's figures report it directly).
fn point(
    figure: &str,
    nodes: usize,
    label: &str,
    throughput: f64,
    per_node: f64,
    report: &RunReport,
) -> FigPoint {
    FigPoint {
        figure: figure.into(),
        nodes,
        config: label.to_string(),
        throughput,
        per_node,
        efficiency: 0.0,
        elapsed_ms: report.elapsed.as_ms_f64(),
        dyn_check_ms: report.dynamic_check_time.as_ms_f64(),
    }
}

/// Assemble a figure from its points, filling in the efficiency column.
fn finish(mut points: Vec<FigPoint>, weak: bool, id: &str, caption: &str, unit: &str) -> Figure {
    fill_efficiency(&mut points, weak);
    Figure { id: id.into(), caption: caption.into(), unit: unit.into(), points }
}

/// Figure 4: Circuit strong scaling (5.1×10⁶ wires), 1–512 nodes,
/// DCR × IDX.
pub fn fig4(threads: usize, opts: SweepOpts) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(512));
    let repeats = opts.repeats;
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            AXES.iter().map(move |&(label, dcr, idx)| {
                move || {
                    let config = circuit::CircuitConfig::strong(nodes);
                    let app = circuit::build(&config);
                    let rt = RuntimeConfig::scale(nodes).with_axes(dcr, idx);
                    let report = run_point(&app.program, &rt, repeats);
                    let tput = circuit::throughput(&config, &report);
                    point("fig4", nodes, label, tput, tput / nodes as f64, &report)
                }
            })
        })
        .collect();
    finish(par_map(threads, jobs), false, "fig4", "Circuit strong scaling", "wires/s")
}

/// Figure 5: Circuit weak scaling (2×10⁵ wires/node), 1–1024 nodes.
pub fn fig5(threads: usize, opts: SweepOpts) -> Figure {
    circuit_weak(threads, opts, 1, true, "fig5", "Circuit weak scaling")
}

/// Figure 6: Circuit weak scaling, 10× overdecomposed, tracing disabled.
pub fn fig6(threads: usize, opts: SweepOpts) -> Figure {
    circuit_weak(
        threads,
        opts,
        10,
        false,
        "fig6",
        "Circuit weak scaling, overdecomposed, no tracing",
    )
}

fn circuit_weak(
    threads: usize,
    opts: SweepOpts,
    overdecompose: usize,
    tracing: bool,
    id: &str,
    caption: &str,
) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(1024));
    let repeats = opts.repeats;
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            AXES.iter().map(move |&(label, dcr, idx)| {
                move || {
                    let config = circuit::CircuitConfig::weak(nodes, overdecompose);
                    let app = circuit::build(&config);
                    let rt = RuntimeConfig::scale(nodes)
                        .with_axes(dcr, idx)
                        .with_tracing(tracing);
                    let report = run_point(&app.program, &rt, repeats);
                    let tput = circuit::throughput(&config, &report);
                    point(id, nodes, label, tput, tput / nodes as f64, &report)
                }
            })
        })
        .collect();
    finish(par_map(threads, jobs), true, id, caption, "wires/s")
}

/// Figure 7: Stencil strong scaling (9×10⁸ cells), 1–512 nodes.
pub fn fig7(threads: usize, opts: SweepOpts) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(512));
    let repeats = opts.repeats;
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            AXES.iter().map(move |&(label, dcr, idx)| {
                move || {
                    let config = stencil::StencilConfig::strong(nodes);
                    let app = stencil::build(&config);
                    let rt = RuntimeConfig::scale(nodes).with_axes(dcr, idx);
                    let report = run_point(&app.program, &rt, repeats);
                    let tput = stencil::throughput(&config, &report);
                    point("fig7", nodes, label, tput, tput / nodes as f64, &report)
                }
            })
        })
        .collect();
    finish(par_map(threads, jobs), false, "fig7", "Stencil strong scaling", "cells/s")
}

/// Figure 8: Stencil weak scaling (9×10⁸ cells/node), 1–1024 nodes.
pub fn fig8(threads: usize, opts: SweepOpts) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(1024));
    let repeats = opts.repeats;
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            AXES.iter().map(move |&(label, dcr, idx)| {
                move || {
                    let config = stencil::StencilConfig::weak(nodes);
                    let app = stencil::build(&config);
                    let rt = RuntimeConfig::scale(nodes).with_axes(dcr, idx);
                    let report = run_point(&app.program, &rt, repeats);
                    let tput = stencil::throughput(&config, &report);
                    point("fig8", nodes, label, tput, tput / nodes as f64, &report)
                }
            })
        })
        .collect();
    finish(par_map(threads, jobs), true, "fig8", "Stencil weak scaling", "cells/s")
}

/// Figure 9: Soleil-X fluid-only weak scaling, 1–512 nodes, DCR ± IDX.
pub fn fig9(threads: usize, opts: SweepOpts) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(512));
    let repeats = opts.repeats;
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            [("DCR, IDX", true), ("DCR, No IDX", false)]
                .into_iter()
                .map(move |(label, idx)| {
                    move || {
                        let config = soleil::SoleilConfig::fluid_weak(nodes);
                        let app = soleil::build(&config);
                        let rt = RuntimeConfig::scale(nodes).with_axes(true, idx);
                        let report = run_point(&app.program, &rt, repeats);
                        let tput = soleil::throughput(&config, &report);
                        point("fig9", nodes, label, tput, tput, &report)
                    }
                })
        })
        .collect();
    finish(par_map(threads, jobs), true, "fig9", "Soleil-X (fluid-only) weak scaling", "iter/s")
}

/// Figure 10: Soleil-X full physics (fluid, particles, DOM) weak
/// scaling, 1–32 nodes: dynamic check vs. no check vs. no IDX.
pub fn fig10(threads: usize, opts: SweepOpts) -> Figure {
    let nodes_list = pow2_up_to(opts.max_nodes.min(32));
    let repeats = opts.repeats;
    let configs: [(&str, bool, bool); 3] = [
        ("DCR, IDX (dynamic check)", true, true),
        ("DCR, IDX (no check)", true, false),
        ("DCR, No IDX", false, false),
    ];
    let jobs: Vec<_> = nodes_list
        .iter()
        .flat_map(|&nodes| {
            configs.into_iter().map(move |(label, idx, checks)| {
                move || {
                    let config = soleil::SoleilConfig::full_weak(nodes);
                    let app = soleil::build(&config);
                    let rt = RuntimeConfig::scale(nodes)
                        .with_axes(true, idx)
                        .with_dynamic_checks(checks);
                    let report = run_point(&app.program, &rt, repeats);
                    let tput = soleil::throughput(&config, &report);
                    point("fig10", nodes, label, tput, tput, &report)
                }
            })
        })
        .collect();
    let mut points = par_map(threads, jobs);
    fill_efficiency(&mut points, true);
    Figure {
        id: "fig10".into(),
        caption: "Soleil-X (fluid, particles and DOM) weak scaling".into(),
        unit: "iter/s".into(),
        points,
    }
}

/// Per-node throughput of a configuration at a node count (test helper).
pub fn per_node(figure: &Figure, config: &str, nodes: usize) -> f64 {
    figure
        .points
        .iter()
        .find(|p| p.config == config && p.nodes == nodes)
        .unwrap_or_else(|| panic!("{}: no point {config}@{nodes}", figure.id))
        .per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lists() {
        assert_eq!(pow2_up_to(8), vec![1, 2, 4, 8]);
        assert_eq!(pow2_up_to(1), vec![1]);
    }

    #[test]
    fn small_fig4_has_expected_points() {
        let fig = fig4(4, SweepOpts::new(4));
        assert_eq!(fig.points.len(), 3 * 4);
        assert!(fig.points.iter().all(|p| p.throughput > 0.0));
    }

    #[test]
    fn weak_efficiency_is_one_at_one_node() {
        let fig = fig5(4, SweepOpts::new(2));
        for p in fig.points.iter().filter(|p| p.nodes == 1) {
            assert!((p.efficiency - 1.0).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn repeated_points_reproduce_the_single_run() {
        // `repeats` asserts internally that every rerun is identical;
        // here we also pin that the *emitted* points match a repeats=1
        // sweep exactly, so `--repeats 5` (paper methodology) can never
        // change a figure.
        let once = fig4(2, SweepOpts::new(2));
        let five = fig4(2, SweepOpts::new(2).repeats(5));
        assert_eq!(once.points.len(), five.points.len());
        for (a, b) in once.points.iter().zip(five.points.iter()) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.config, b.config);
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(a.elapsed_ms.to_bits(), b.elapsed_ms.to_bits());
            assert_eq!(a.dyn_check_ms.to_bits(), b.dyn_check_ms.to_bits());
        }
    }
}
