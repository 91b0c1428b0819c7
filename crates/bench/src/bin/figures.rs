//! Regenerate the paper's evaluation artifacts: Figures 4–10, Tables 2–3
//! and the §6.3 extrapolation.
//!
//! ```text
//! cargo run -p il-bench --release --bin figures -- all
//! cargo run -p il-bench --release --bin figures -- fig5 fig10 table2
//! cargo run -p il-bench --release --bin figures -- fig4 --max-nodes 64
//! cargo run -p il-bench --release --bin figures -- all --repeats 5
//! cargo run -p il-bench --release --bin figures -- fig4 --out-dir /tmp/r
//! ```
//!
//! ASCII tables print to stdout; CSVs land in `--out-dir` (default
//! `results/`, where the figure CSVs are the tracked goldens). The DES is
//! deterministic, so each figure point runs once by default; `--repeats
//! 5` restores the paper's 5-run methodology with every rerun asserted
//! identical (`--repeats 0` is clamped to 1). `--pool N` sets how many
//! worker threads the sweep fans its points across (default 0: one per
//! hardware thread — the CSVs are byte-identical at any width). Bad input prints the usage line and
//! exits 2. Host performance of the runtime is measured by the
//! `benchmark/` workspace, not here.

use il_bench::figures::{fig10, fig4, fig5, fig6, fig7, fig8, fig9, Figure, SweepOpts};
use il_bench::render::{render_figure, render_table, write_figure_csv, write_table_csv};
use il_bench::tables::{extrapolate_checks, table2, table3};
use std::path::PathBuf;
use std::str::FromStr;

/// Every target `all` (or no target) expands to, in output order.
const TARGETS: [&str; 10] = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "table3", "extrapolate",
];

const USAGE: &str = "usage: figures [fig4|fig5|fig6|fig7|fig8|fig9|fig10|table2|table3|\
                     extrapolate|all]... [--max-nodes N] [--repeats N] [--pool N] [--out-dir DIR]";

struct Args {
    targets: Vec<String>,
    max_nodes: usize,
    repeats: u32,
    pool: usize,
    out_dir: PathBuf,
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or(format!("{flag} takes a value"))?;
    v.parse().map_err(|_| format!("{flag} takes a number, got {v:?}"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        targets: Vec::new(),
        max_nodes: 1024,
        repeats: 1,
        pool: 0,
        out_dir: PathBuf::from("results"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-nodes" => a.max_nodes = value("--max-nodes", it.next())?,
            "--repeats" => a.repeats = value("--repeats", it.next())?,
            "--pool" => a.pool = value("--pool", it.next())?,
            "--out-dir" => a.out_dir = value("--out-dir", it.next())?,
            t if t == "all" || TARGETS.contains(&t) => a.targets.push(t.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            other => return Err(format!("unknown target {other:?}")),
        }
    }
    if a.targets.is_empty() || a.targets.iter().any(|t| t == "all") {
        a.targets = TARGETS.iter().map(|t| t.to_string()).collect();
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let opts = SweepOpts::new(args.max_nodes).repeats(args.repeats);
    let out_dir = &args.out_dir;

    for target in &args.targets {
        match target.as_str() {
            "fig4" => emit(fig4(args.pool, opts), false, out_dir),
            "fig5" => emit(fig5(args.pool, opts), true, out_dir),
            "fig6" => emit(fig6(args.pool, opts), true, out_dir),
            "fig7" => emit(fig7(args.pool, opts), false, out_dir),
            "fig8" => emit(fig8(args.pool, opts), true, out_dir),
            "fig9" => emit(fig9(args.pool, opts), true, out_dir),
            "fig10" => emit(fig10(args.pool, opts), true, out_dir),
            "table2" => {
                let rows = table2();
                print!("{}", render_table("Table 2: dynamic self-checks", "Projection functor", &rows));
                write_table_csv("table2", &rows, out_dir).expect("write table2.csv");
                println!();
            }
            "table3" => {
                let rows = table3();
                print!("{}", render_table("Table 3: dynamic cross-checks", "Number of arguments", &rows));
                write_table_csv("table3", &rows, out_dir).expect("write table3.csv");
                println!();
            }
            "extrapolate" => {
                let rows = extrapolate_checks();
                print!(
                    "{}",
                    render_table(
                        "Extrapolation (§6.3): dynamic-check cost at future machine scales",
                        "Launch domain size ->",
                        &rows
                    )
                );
                write_table_csv("extrapolate", &rows, out_dir).expect("write extrapolate.csv");
                println!();
            }
            other => unreachable!("parse admitted target {other:?}"),
        }
    }
}

fn emit(fig: Figure, per_node: bool, out_dir: &std::path::Path) {
    print!("{}", render_figure(&fig, per_node));
    write_figure_csv(&fig, out_dir).expect("write figure csv");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn rejected(args: &[&str]) -> String {
        parsed(args).err().unwrap_or_else(|| panic!("{args:?} was accepted"))
    }

    #[test]
    fn accepts_the_four_flags_and_expands_all() {
        let a = parsed(&[]).expect("defaults are valid");
        assert_eq!(a.targets, TARGETS);
        assert_eq!((a.max_nodes, a.repeats, a.pool), (1024, 1, 0));
        assert_eq!(a.out_dir, PathBuf::from("results"));
        let a = parsed(&[
            "fig5", "table2", "--max-nodes", "64", "--repeats", "0", "--pool", "2", "--out-dir",
            "/tmp/r",
        ])
        .expect("every flag is valid");
        assert_eq!(a.targets, ["fig5", "table2"]);
        assert_eq!((a.max_nodes, a.pool), (64, 2));
        // --repeats 0 is accepted; SweepOpts clamps it to one run.
        assert_eq!(SweepOpts::new(a.max_nodes).repeats(a.repeats).repeats, 1);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/r"));
        assert_eq!(parsed(&["fig4", "all"]).unwrap().targets, TARGETS);
    }

    #[test]
    fn rejects_a_missing_value() {
        assert!(rejected(&["--max-nodes"]).contains("--max-nodes takes a value"));
        assert!(rejected(&["fig4", "--out-dir"]).contains("--out-dir takes a value"));
    }

    #[test]
    fn rejects_a_non_number() {
        assert!(rejected(&["--repeats", "x"]).contains("--repeats takes a number"));
        assert!(rejected(&["--pool", "-1"]).contains("--pool"));
    }

    #[test]
    fn rejects_an_unknown_target() {
        assert!(rejected(&["bogus"]).contains("unknown target \"bogus\""));
        assert!(rejected(&["fig4", "scale"]).contains("\"scale\""));
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert!(rejected(&["--verbose"]).contains("unknown flag"));
        assert!(rejected(&["fig4", "--scale-max-nodes", "65536"]).contains("unknown flag"));
    }
}
