//! Tables 2–3: wall-clock timings of the dynamic projection-functor
//! checks.
//!
//! Unlike the figures, these are *real* measurements of this crate's
//! checker on the host machine — the dynamic checks are plain single-node
//! code, so they are directly comparable to the paper's microsecond
//! numbers. Each cell averages 5 runs (as in §6), and the chosen functors
//! and domains are safe so the early-exit path never triggers, matching
//! the paper's methodology.

use il_analysis::dynamic::CheckReport;
use il_analysis::{cross_check, self_check, ArgCheck, ProjExpr};
use il_geometry::Domain;
use std::time::Instant;

/// A functor family: builds the row's functor for a given domain size.
type FunctorFamily = Box<dyn Fn(u64) -> ProjExpr>;

/// One row of a timing table: elapsed microseconds per domain size.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Row label (functor name or argument count).
    pub label: String,
    /// `(domain size, elapsed µs)` cells.
    pub cells: Vec<(u64, f64)>,
}

/// Domain sizes used by the paper's tables.
pub const SIZES: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

const RUNS: u32 = 5;

fn time_us<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up run, then the 5-run average of §6.
    f();
    let start = Instant::now();
    for _ in 0..RUNS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / RUNS as f64
}

/// One cell of a timing table: a domain size and the check it times.
struct Cell {
    n: u64,
    check: Box<dyn Fn() -> CheckReport>,
}

/// Time every cell of every row. The checks are built to be safe, so a
/// conflict (an early exit) is a bug in the table, not a result.
fn time_rows(rows: Vec<(String, Vec<Cell>)>) -> Vec<TableRow> {
    rows.into_iter()
        .map(|(label, cells)| {
            let cells = cells
                .iter()
                .map(|cell| {
                    let us = time_us(|| {
                        assert!((cell.check)().is_safe(), "{label}: check must not early-exit");
                    });
                    (cell.n, us)
                })
                .collect();
            TableRow { label, cells }
        })
        .collect()
}

/// Table 2: self-check timings for identity, linear, modular, and
/// quadratic functors. The launch domain size equals the number of
/// sub-collections.
pub fn table2() -> Vec<TableRow> {
    time_rows(table2_cells())
}

fn table2_cells() -> Vec<(String, Vec<Cell>)> {
    let rows: Vec<(&str, FunctorFamily)> = vec![
        ("Identity i", Box::new(|_| ProjExpr::Identity)),
        ("Linear ai+b", Box::new(|_| ProjExpr::linear(1, 3))),
        (
            "Modular (i+k) mod N",
            Box::new(|n| ProjExpr::Modular { a: 1, b: 7, m: n as i64 }),
        ),
        (
            "Quadratic ai^2+bi+c",
            Box::new(|_| ProjExpr::Quadratic { a: 0, b: 1, c: 2 }),
        ),
    ];
    rows.into_iter()
        .map(|(label, make)| {
            let cells = SIZES
                .iter()
                .map(|&n| {
                    let functor = make(n);
                    // Colors sized so every value is in bounds and the
                    // check stays conflict-free (valid launches only).
                    let colors = Domain::range(n as i64 + 16);
                    let domain = Domain::range(n as i64);
                    Cell { n, check: Box::new(move || self_check(&domain, &functor, &colors)) }
                })
                .collect();
            (label.to_string(), cells)
        })
        .collect()
}

/// Table 3: cross-check timings for 2–5 arguments sharing a partition.
/// The launch domain is half the number of sub-collections: one writer on
/// even colors, readers on odd colors (disjoint images, no early exit).
pub fn table3() -> Vec<TableRow> {
    time_rows(table3_cells())
}

fn table3_cells() -> Vec<(String, Vec<Cell>)> {
    (2usize..=5)
        .map(|nargs| {
            let cells = SIZES
                .iter()
                .map(|&n| {
                    let domain = Domain::range(n as i64);
                    let colors = Domain::range(2 * n as i64);
                    let writer = ProjExpr::linear(2, 0);
                    let reader = ProjExpr::linear(2, 1);
                    let check = move || {
                        let args: Vec<ArgCheck<'_>> = (0..nargs)
                            .map(|k| ArgCheck {
                                index: k,
                                functor: if k == 0 { &writer } else { &reader },
                                writes: k == 0,
                            })
                            .collect();
                        cross_check(&domain, &args, &colors)
                    };
                    Cell { n, check: Box::new(check) }
                })
                .collect();
            (format!("{nargs}"), cells)
        })
        .collect()
}

/// §6.3 extrapolation: the paper argues the dynamic check "can be
/// executed in parallel with the runtime analysis and tasks themselves,
/// so the exact cost of a check is unimportant as long as it is less on
/// average than the application's task granularity" — and that this
/// holds "at the scales of all known current and future supercomputers".
///
/// We measure the real per-evaluation cost of the self-check on this
/// host and project the total check time out to launch domains of 10⁹
/// points (three orders of magnitude beyond a 10⁶-task machine),
/// comparing against representative task granularities.
pub fn extrapolate_checks() -> Vec<TableRow> {
    // Measure per-eval cost at 10⁶ (steady-state, allocation amortized).
    let n = 1_000_000i64;
    let functor = ProjExpr::linear(1, 3);
    let domain = Domain::range(n);
    let colors = Domain::range(n + 16);
    let us = time_us(|| {
        assert!(self_check(&domain, &functor, &colors).is_safe());
    });
    let per_eval_us = us / n as f64;

    let sizes: [u64; 7] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];
    let mut rows = vec![TableRow {
        label: "projected check time (ms)".into(),
        cells: sizes
            .iter()
            .map(|&d| (d, per_eval_us * d as f64 / 1_000.0)) // report ms in the µs slot
            .collect(),
    }];
    for (label, gran_ms) in [("vs 1 ms tasks (%)", 1.0), ("vs 10 ms tasks (%)", 10.0), ("vs 100 ms tasks (%)", 100.0)] {
        rows.push(TableRow {
            label: label.into(),
            cells: sizes
                .iter()
                .map(|&d| (d, per_eval_us * d as f64 / 1_000.0 / gran_ms * 100.0))
                .collect(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each cell's functor evaluations, per row. Exact counts, unlike
    /// the timings: the checks are the ones the tables time.
    fn evals(rows: Vec<(String, Vec<Cell>)>) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|(label, cells)| {
                cells
                    .iter()
                    .map(|cell| {
                        let r = (cell.check)();
                        assert!(r.is_safe(), "{label}: check must not early-exit");
                        r.evals
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn table2_shape_and_monotonicity() {
        let rows = evals(table2_cells());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.len(), SIZES.len());
            // Linear scaling: one evaluation per launch point.
            assert_eq!(row[..], SIZES[..], "{rows:?}");
        }
    }

    #[test]
    fn table3_rows_grow_with_arguments() {
        let rows = evals(table3_cells());
        assert_eq!(rows.len(), 4);
        // More arguments = more work at every size: one evaluation per
        // launch point and argument.
        for (nargs, row) in (2u64..).zip(&rows) {
            let want: Vec<u64> = SIZES.iter().map(|&n| nargs * n).collect();
            assert_eq!(*row, want, "{nargs} arguments: {rows:?}");
        }
    }
}
