//! A wall-clock micro-benchmark runner.
//!
//! Replaces `criterion` for this workspace's `harness = false` bench
//! binaries. Each benchmark is timed as **median of N samples** after a
//! warmup pass; per-sample iteration counts are auto-calibrated so a
//! sample takes a measurable slice of time.
//!
//! Bench binaries run in two modes:
//!
//! * **smoke** (default) — one sample, one iteration per benchmark. This
//!   is what `cargo test -q` hits when it executes bench targets, so the
//!   suite stays fast and its exit status reflects correctness only;
//! * **full** — warmup + calibrated median-of-N timing. Selected when the
//!   binary receives `--bench` (what `cargo bench` passes) or `--full`,
//!   or when `IL_BENCH_FULL=1` is set.
//!
//! `finish()` prints an aligned table and returns the results.

use std::time::{Duration, Instant};

/// Optional throughput annotation: elements processed per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Throughput(pub u64);

/// One benchmark's timing summary.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample (ns per iteration).
    pub min_ns: f64,
    /// Slowest sample (ns per iteration).
    pub max_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
    /// Elements per iteration, if declared.
    pub throughput: Option<u64>,
}

impl BenchReport {
    /// Elements per second at the median, if throughput was declared.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.throughput.map(|n| n as f64 / (self.median_ns * 1e-9))
    }

}

/// The benchmark runner: collects [`BenchReport`]s for a binary.
pub struct BenchRunner {
    group: String,
    full: bool,
    samples: usize,
    warmup: Duration,
    target_sample: Duration,
    filter: Option<String>,
    results: Vec<BenchReport>,
}

impl BenchRunner {
    /// A runner in smoke mode (override with [`BenchRunner::full`]).
    pub fn new(group: &str) -> Self {
        BenchRunner {
            group: group.to_string(),
            full: false,
            samples: 11,
            warmup: Duration::from_millis(100),
            target_sample: Duration::from_millis(20),
            filter: None,
            results: Vec::new(),
        }
    }

    /// A runner configured from the process arguments and environment:
    /// full mode on `--bench`/`--full`/`IL_BENCH_FULL=1`, with any bare
    /// argument used as a substring filter on benchmark names.
    pub fn from_args(group: &str) -> Self {
        let mut runner = BenchRunner::new(group);
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" | "--full" => runner.full = true,
                // libtest-style flags that may be forwarded; ignore.
                s if s.starts_with('-') => {}
                s => runner.filter = Some(s.to_string()),
            }
        }
        if std::env::var("IL_BENCH_FULL").is_ok_and(|v| v == "1") {
            runner.full = true;
        }
        runner
    }

    /// Force full (measured) mode.
    pub fn full(mut self) -> Self {
        self.full = true;
        self
    }

    /// Set the number of samples for full mode (median-of-N).
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Time `f`, reporting median-of-N ns per call.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.bench_inner(name, None, f);
    }

    /// [`BenchRunner::bench`] with a throughput annotation (elements per
    /// call), so the report includes elements/second.
    pub fn bench_throughput<T>(&mut self, name: &str, elements: Throughput, f: impl FnMut() -> T) {
        self.bench_inner(name, Some(elements.0), f);
    }

    fn bench_inner<T>(&mut self, name: &str, throughput: Option<u64>, mut f: impl FnMut() -> T) {
        let id = format!("{}/{}", self.group, name);
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let report = if self.full {
            self.measure(&id, throughput, &mut f)
        } else {
            // Smoke: run once so the benchmark body is exercised (and its
            // internal assertions checked), but don't spend time on it.
            let start = Instant::now();
            std::hint::black_box(f());
            let ns = start.elapsed().as_nanos() as f64;
            BenchReport {
                name: id,
                median_ns: ns,
                min_ns: ns,
                max_ns: ns,
                samples: 1,
                iters: 1,
                throughput,
            }
        };
        self.results.push(report);
    }

    fn measure<T>(
        &self,
        id: &str,
        throughput: Option<u64>,
        f: &mut impl FnMut() -> T,
    ) -> BenchReport {
        // Warmup, timing one call to seed calibration.
        let mut one_call_ns = f64::INFINITY;
        let warmup_start = Instant::now();
        loop {
            let t = Instant::now();
            std::hint::black_box(f());
            one_call_ns = one_call_ns.min(t.elapsed().as_nanos() as f64);
            if warmup_start.elapsed() >= self.warmup {
                break;
            }
        }
        // Iterations per sample: enough to fill the target sample time.
        let target_ns = self.target_sample.as_nanos() as f64;
        let iters = ((target_ns / one_call_ns.max(1.0)).ceil() as u64).clamp(1, 1_000_000);
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        BenchReport {
            name: id.to_string(),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            samples: self.samples,
            iters,
            throughput,
        }
    }

    /// Print the report table and return the results.
    pub fn finish(self) -> Vec<BenchReport> {
        let mode = if self.full { "full" } else { "smoke" };
        println!("bench group '{}' ({mode} mode, {} benchmarks)", self.group, self.results.len());
        let width = self.results.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.results {
            let tput = r
                .elements_per_sec()
                .map(|e| format!("  {:>12.3e} elem/s", e))
                .unwrap_or_default();
            println!(
                "  {:width$}  median {}  (min {}, max {}, {} x {} iters){tput}",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
                r.samples,
                r.iters,
            );
        }
        self.results
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_once() {
        let mut calls = 0u32;
        let mut runner = BenchRunner::new("g");
        runner.bench("a", || calls += 1);
        let out = runner.finish();
        assert_eq!(calls, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "g/a");
        assert_eq!(out[0].iters, 1);
    }

    #[test]
    fn full_mode_reports_ordered_stats() {
        let mut runner = BenchRunner::new("g").full().samples(5);
        runner.warmup = Duration::from_millis(1);
        runner.target_sample = Duration::from_micros(50);
        runner.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let out = runner.finish();
        let r = &out[0];
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.min_ns > 0.0);
        assert_eq!(r.samples, 5);
        assert!(r.iters >= 1);
    }

    #[test]
    fn throughput_reported() {
        let mut runner = BenchRunner::new("g");
        runner.bench_throughput("t", Throughput(1000), || 42);
        let out = runner.finish();
        let eps = out[0].elements_per_sec().unwrap();
        assert!(eps > 0.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut runner = BenchRunner::new("g");
        runner.filter = Some("keep".into());
        let mut ran = false;
        runner.bench("keep_this", || ran = true);
        runner.bench("drop_this", || panic!("filtered out"));
        let out = runner.finish();
        assert!(ran);
        assert_eq!(out.len(), 1);
    }
}
