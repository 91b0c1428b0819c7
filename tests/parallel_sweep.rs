//! Thread-count invariance of the sweep drivers: the figure sweeps and
//! the fuzz corpus fan independent DES points across a thread pool, and
//! the emitted artifacts must be byte-identical no matter how many
//! workers the pool has — and no matter how many times each
//! deterministic point is re-executed (`--repeats`).

use il_bench::figures::{fig4, fig5, Figure, SweepOpts};
use il_bench::render::write_figure_csv;
use il_oracle::{run_differential, DiffConfig};

/// Render a figure to its CSV bytes (via the same writer the `figures`
/// binary uses, so this pins the actual artifact).
fn csv_bytes(fig: &Figure, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("il_sweep_{}_{tag}", std::process::id()));
    write_figure_csv(fig, &dir).expect("write csv");
    let bytes = std::fs::read(dir.join(format!("{}.csv", fig.id))).expect("read csv");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pool sizes 1, 4, and one-per-hardware-thread produce byte-identical
/// figure CSVs.
#[test]
fn figure_csv_is_identical_at_every_pool_size() {
    let baseline = csv_bytes(&fig4(1, SweepOpts::new(4)), "p1");
    for threads in [4, num_cpus()] {
        let csv = csv_bytes(&fig4(threads, SweepOpts::new(4)), &format!("p{threads}"));
        assert_eq!(
            csv, baseline,
            "fig4 CSV differs between pool sizes 1 and {threads}"
        );
    }
}

/// `--repeats 5` (the paper's 5-run methodology) emits the same CSV as a
/// single deterministic run.
#[test]
fn five_run_methodology_equals_single_run() {
    let once = csv_bytes(&fig5(2, SweepOpts::new(2)), "r1");
    let five = csv_bytes(&fig5(2, SweepOpts::new(2).repeats(5)), "r5");
    assert_eq!(five, once, "repeats must not change a deterministic figure");
}

/// The fuzz corpus driver folds pool results in submission order, so the
/// whole differential report is pool-size invariant too.
#[test]
fn fuzz_corpus_report_is_identical_at_every_pool_size() {
    let cfg = DiffConfig {
        cases: 8,
        seed: 0x5EED_5EED,
        nodes: 2,
        inject: false,
        threads: 0,
        faults: Some(0xFA17),
        corrupt: Some(0x5DC0),
    };
    let render = |threads: usize| {
        let report = run_differential(&DiffConfig { threads, ..cfg });
        format!(
            "cases={} tasks={} coverage={} divergences={:?}",
            report.cases,
            report.tasks,
            report.coverage,
            report
                .divergences
                .iter()
                .map(|d| (d.case, d.seed, d.detail.clone()))
                .collect::<Vec<_>>()
        )
    };
    let baseline = render(1);
    for threads in [4, num_cpus()] {
        assert_eq!(render(threads), baseline, "corpus report differs at pool size {threads}");
    }
}
