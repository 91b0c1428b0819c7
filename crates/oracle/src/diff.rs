//! The differential driver.
//!
//! Runs a program through both pipelines and demands they agree:
//!
//! 1. **Verdict class** — every op's [`OpSafety`] from the runtime
//!    expansion must match an independent re-analysis via
//!    [`analyze_launch`] (`Static` ↔ `SafeStatic`, `Dynamic{evals}` ↔
//!    `NeedsDynamic` whose plan passes with the same eval count,
//!    `Sequential` ↔ `Unsafe` or a failing plan).
//! 2. **Soundness** — an op the fast path index-launches (`Static` or
//!    `Dynamic`) must have zero intra-op interference in the oracle's
//!    brute-force graph.
//! 3. **Task labeling** — both sides expand to the same `(op, point_idx,
//!    point)` sequence.
//! 4. **Dependence graph** — equal transitive closures under that
//!    labeling. Direct edges may differ (the runtime retires readers
//!    once a covering writer orders past them; same-epoch reducers are
//!    deliberately unordered on both sides); the *orderings enforced*
//!    may not.
//! 5. **Serial makespan** — the critical path weighted by per-task cost,
//!    computed independently on each graph, must be identical. This pins
//!    the cost labeling on top of the structure.
//!
//! Finally the program is executed on the simulated machine and must run
//! exactly as many point tasks as the expansion predicted.
//!
//! Every case is a pure function of one `u64` seed; a divergence report
//! carries that seed, which alone reproduces the failure.

use crate::genprog::generate_program;
use crate::reference::{reference_expand, serial_makespan, transitive_closure};
use il_analysis::{analyze_launch, HybridVerdict, LaunchArg, UnsafeReason};
use il_runtime::depgraph::{expand_program, OpSafety};
use il_runtime::pool::par_map;
use il_runtime::{execute, CloseStats, Program, ReplicationConfig, RuntimeConfig};
use il_testkit::SplitMix64;
use std::fmt;

/// Configuration of a differential fuzzing run.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Number of seeded cases to run.
    pub cases: u64,
    /// Base seed; case `i` uses `SplitMix64::mix(seed, i)`.
    pub seed: u64,
    /// Machine size for the fast-path expansion/execution.
    pub nodes: usize,
    /// Inject a cost perturbation into the oracle of every case (self
    /// test: each case must then report a divergence).
    pub inject: bool,
    /// Worker threads for the corpus sweep (0 = one per hardware thread).
    /// Every case is a pure function of its seed and results are folded
    /// in case order, so the report is identical for any thread count.
    pub threads: usize,
    /// Base fault seed. `Some(base)` adds a chaos leg to every case: the
    /// program is re-executed under the survivable fault schedule derived
    /// from `SplitMix64::mix(base, case_seed)` and must run the same
    /// tasks, take at least the fault-free makespan, and replay
    /// byte-identically.
    pub faults: Option<u64>,
    /// Base corruption seed. `Some(base)` adds a silent-data-corruption
    /// leg to every case: the program is re-executed in validation mode
    /// under the corruption schedule derived from
    /// `SplitMix64::mix(base, case_seed)` with replicate-2 defense on,
    /// and must detect every flip (zero escapes), converge to the
    /// fault-free final store byte-for-byte, and replay byte-identically.
    pub corrupt: Option<u64>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            cases: 64,
            seed: 0xD1FF,
            nodes: 2,
            inject: false,
            threads: 0,
            faults: None,
            corrupt: None,
        }
    }
}

/// How many ops of each verdict class a run (or case) exercised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// `SafeStatic` ops.
    pub safe_static: u64,
    /// `NeedsDynamic` ops whose check passed.
    pub dynamic_pass: u64,
    /// `NeedsDynamic` ops whose check found a conflict (`DynamicConflict`).
    pub dynamic_conflict: u64,
    /// `Unsafe(AliasedWritePartition)` ops.
    pub aliased_write: u64,
    /// `Unsafe(NonInjectiveWrite)` ops.
    pub non_injective_write: u64,
    /// `Unsafe(ConflictingImages)` ops.
    pub conflicting_images: u64,
    /// `Unsafe(CrossPartitionConflict)` ops.
    pub cross_partition: u64,
}

impl Coverage {
    fn record(&mut self, verdict: &HybridVerdict) {
        match verdict {
            HybridVerdict::SafeStatic => self.safe_static += 1,
            HybridVerdict::NeedsDynamic(plan) => match plan.run() {
                Ok(_) => self.dynamic_pass += 1,
                Err(_) => self.dynamic_conflict += 1,
            },
            HybridVerdict::Unsafe(reason) => match reason {
                UnsafeReason::AliasedWritePartition { .. } => self.aliased_write += 1,
                UnsafeReason::NonInjectiveWrite { .. } => self.non_injective_write += 1,
                UnsafeReason::ConflictingImages { .. } => self.conflicting_images += 1,
                UnsafeReason::CrossPartitionConflict { .. } => self.cross_partition += 1,
                UnsafeReason::DynamicConflict { .. } => self.dynamic_conflict += 1,
            },
        }
    }

    /// Fold another coverage tally into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.safe_static += other.safe_static;
        self.dynamic_pass += other.dynamic_pass;
        self.dynamic_conflict += other.dynamic_conflict;
        self.aliased_write += other.aliased_write;
        self.non_injective_write += other.non_injective_write;
        self.conflicting_images += other.conflicting_images;
        self.cross_partition += other.cross_partition;
    }

    fn classes(&self) -> [(&'static str, u64); 7] {
        [
            ("SafeStatic", self.safe_static),
            ("NeedsDynamic(pass)", self.dynamic_pass),
            ("DynamicConflict", self.dynamic_conflict),
            ("AliasedWritePartition", self.aliased_write),
            ("NonInjectiveWrite", self.non_injective_write),
            ("ConflictingImages", self.conflicting_images),
            ("CrossPartitionConflict", self.cross_partition),
        ]
    }

    /// Verdict classes this tally never saw.
    pub fn missing(&self) -> Vec<&'static str> {
        self.classes().iter().filter(|(_, n)| *n == 0).map(|(name, _)| *name).collect()
    }

    /// True iff every verdict class was exercised at least once.
    pub fn complete(&self) -> bool {
        self.missing().is_empty()
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, n)) in self.classes().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {name:<24} {n}")?;
        }
        Ok(())
    }
}

/// Outcome of one seeded case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Verdict classes the case's ops hit.
    pub coverage: Coverage,
    /// Point tasks in the expanded program.
    pub tasks: u64,
    /// What the dependence oracle's closes retired in the expansion
    /// (trace replay on).
    pub closes: CloseStats,
    /// First disagreement between the fast path and the oracle, if any.
    pub error: Option<String>,
}

/// One reproducible disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Case index within the run.
    pub case: u64,
    /// The seed that alone reproduces the failure
    /// (`run_case(seed, nodes, inject, faults, corrupt)`).
    pub seed: u64,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} (seed {:#018x}): {}", self.case, self.seed, self.detail)
    }
}

/// Aggregate result of a differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Cases executed.
    pub cases: u64,
    /// Total point tasks across all cases.
    pub tasks: u64,
    /// Aggregate verdict-class coverage.
    pub coverage: Coverage,
    /// Closes summed over the cases.
    pub closes: CloseStats,
    /// All disagreements found.
    pub divergences: Vec<Divergence>,
}

/// Run `program` through the fast path and the oracle and compare.
/// `Err` carries the first disagreement found.
pub fn check_program(program: &Program, nodes: usize) -> Result<(), String> {
    let (.., error) = compare(program, nodes, false, None, None);
    match error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Generate the program for `seed` and differentially check it. With
/// `inject`, the oracle's first task cost is perturbed by one second —
/// far beyond any generated cost — so the serial-makespan comparison
/// must flag a divergence; this proves end-to-end that a real divergence
/// would be caught and reproduced from the seed alone.
///
/// With `fault_base = Some(base)`, the case additionally executes under
/// the fault schedule seeded by `SplitMix64::mix(base, seed)` — a pure
/// function of the two seeds, so a chaos divergence also reproduces from
/// `(seed, base)` alone. `corrupt_base` works the same way for the
/// silent-data-corruption leg.
pub fn run_case(
    seed: u64,
    nodes: usize,
    inject: bool,
    fault_base: Option<u64>,
    corrupt_base: Option<u64>,
) -> CaseResult {
    let program = generate_program(seed);
    let fault_seed = fault_base.map(|base| SplitMix64::mix(base, seed));
    let corrupt_seed = corrupt_base.map(|base| SplitMix64::mix(base, seed));
    let (coverage, tasks, closes, error) = compare(&program, nodes, inject, fault_seed, corrupt_seed);
    CaseResult { coverage, tasks, closes, error }
}

/// Run the whole corpus described by `cfg`, fanning the independent case
/// seeds across `cfg.threads` workers.
///
/// Each case is generated and checked entirely inside its job — the jobs
/// capture only the `Copy` seed parameters — and [`par_map`] returns
/// results in submission order, so the folded report (coverage, task
/// totals, divergence order) is byte-identical at any worker count.
pub fn run_differential(cfg: &DiffConfig) -> DiffReport {
    let (nodes, inject, faults, corrupt) = (cfg.nodes, cfg.inject, cfg.faults, cfg.corrupt);
    let jobs: Vec<_> = (0..cfg.cases)
        .map(|case| {
            let seed = SplitMix64::mix(cfg.seed, case);
            move || run_case(seed, nodes, inject, faults, corrupt)
        })
        .collect();
    let mut report = DiffReport {
        cases: cfg.cases,
        tasks: 0,
        coverage: Coverage::default(),
        closes: CloseStats::default(),
        divergences: Vec::new(),
    };
    for (case, result) in par_map(cfg.threads, jobs).into_iter().enumerate() {
        let case = case as u64;
        report.tasks += result.tasks;
        report.coverage.merge(&result.coverage);
        report.closes.closes += result.closes.closes;
        report.closes.reader_bits += result.closes.reader_bits;
        if let Some(detail) = result.error {
            report.divergences.push(Divergence {
                case,
                seed: SplitMix64::mix(cfg.seed, case),
                detail,
            });
        }
    }
    report
}

/// The five comparisons plus a full simulated execution (twice more
/// under a fault schedule when `fault_seed` is set, and three more in
/// validation mode when `corrupt_seed` is set). Returns
/// (coverage, task count, closes, first disagreement).
fn compare(
    program: &Program,
    nodes: usize,
    inject: bool,
    fault_seed: Option<u64>,
    corrupt_seed: Option<u64>,
) -> (Coverage, u64, CloseStats, Option<String>) {
    let mut coverage = Coverage::default();

    // Independent re-analysis of every op (the runtime's verdict cache
    // is a different code path; both must agree).
    let mut verdicts: Vec<HybridVerdict> = Vec::with_capacity(program.ops.len());
    for op in &program.ops {
        let launch = op.launch();
        let args: Vec<LaunchArg> = launch
            .reqs
            .iter()
            .map(|r| LaunchArg {
                partition: r.partition,
                functor: program.functor(r.functor).clone(),
                privilege: r.privilege,
                fields: r.fields.clone(),
            })
            .collect();
        let verdict = analyze_launch(&program.forest, &launch.domain, &args);
        coverage.record(&verdict);
        verdicts.push(verdict);
    }

    let config = RuntimeConfig::scale(nodes);
    let expanded = expand_program(program, &config);
    let mut oracle = reference_expand(program);
    if inject {
        oracle.tasks[0].cost_ns += 1_000_000_000;
    }
    let tasks = expanded.len() as u64;

    let error = (|| {
        // (3) Canonical task labeling.
        if expanded.len() != oracle.tasks.len() {
            return Some(format!(
                "task count: fast path {} vs oracle {}",
                expanded.len(),
                oracle.tasks.len()
            ));
        }
        for (t, (fast, slow)) in expanded.tasks.iter().zip(&oracle.tasks).enumerate() {
            if (fast.op, fast.point_idx, fast.point) != (slow.op, slow.point_idx, slow.point) {
                return Some(format!(
                    "task {t} labeling: fast path (op {}, idx {}, {:?}) vs oracle (op {}, idx {}, {:?})",
                    fast.op, fast.point_idx, fast.point, slow.op, slow.point_idx, slow.point
                ));
            }
        }

        // (1) Verdict classes, (2) soundness against ground truth.
        for (op, (safety, verdict)) in expanded.safety.iter().zip(&verdicts).enumerate() {
            let consistent = match (safety, verdict) {
                (OpSafety::Static, HybridVerdict::SafeStatic) => true,
                (OpSafety::Dynamic { evals }, HybridVerdict::NeedsDynamic(plan)) => {
                    plan.run() == Ok(*evals)
                }
                (OpSafety::Sequential, HybridVerdict::Unsafe(_)) => true,
                (OpSafety::Sequential, HybridVerdict::NeedsDynamic(plan)) => plan.run().is_err(),
                _ => false,
            };
            if !consistent {
                return Some(format!(
                    "op {op} verdict class: runtime {safety:?} vs analysis {verdict:?}"
                ));
            }
            if !matches!(safety, OpSafety::Sequential) && oracle.interfering[op] {
                return Some(format!(
                    "op {op} unsound: fast path verdict {safety:?} but the oracle found \
                     intra-launch interference"
                ));
            }
        }

        // (4) Equal transitive closures.
        if transitive_closure(&expanded.deps) != transitive_closure(&oracle.deps) {
            let detail = first_closure_diff(&expanded.deps, &oracle.deps);
            return Some(format!("dependence closure mismatch: {detail}"));
        }

        // (5) Serial makespan, costs read independently per side.
        let fast_costs: Vec<u64> = expanded
            .tasks
            .iter()
            .map(|t| program.ops[t.op as usize].launch().cost.at(t.point).as_ns())
            .collect();
        let slow_costs: Vec<u64> = oracle.tasks.iter().map(|t| t.cost_ns).collect();
        let fast_span = serial_makespan(&fast_costs, &expanded.deps);
        let slow_span = serial_makespan(&slow_costs, &oracle.deps);
        if fast_span != slow_span {
            return Some(format!(
                "serial makespan: fast path {fast_span} ns vs oracle {slow_span} ns"
            ));
        }

        // Full simulated run: every expanded task must actually execute.
        let report = execute(program, &config);
        if report.tasks != tasks {
            return Some(format!(
                "execution ran {} tasks but the expansion has {tasks}",
                report.tasks
            ));
        }

        // Trace replay is host-side memoization of the expansion
        // pipeline, so disabling it must not change anything the
        // simulation observes: same makespan, same traffic, same
        // per-stage attribution.
        let no_replay = execute(program, &config.clone().with_trace_replay(false));
        let observable = |r: &il_runtime::RunReport| {
            (r.makespan, r.messages, r.bytes, r.stage_json().to_string())
        };
        if observable(&report) != observable(&no_replay) {
            return Some(format!(
                "trace replay is not transparent: on {:?} vs off {:?}",
                observable(&report),
                observable(&no_replay)
            ));
        }

        // Chaos leg: the same program under a survivable fault schedule
        // must still run every task, take no less time than the clean
        // run, and — being a pure function of `(seed, config)` — replay
        // byte-identically.
        if let Some(fseed) = fault_seed {
            let fcfg = config.clone().with_faults(fseed);
            let faulted = execute(program, &fcfg);
            if faulted.tasks != tasks {
                return Some(format!(
                    "faulted execution (fault seed {fseed:#018x}) ran {} tasks \
                     but the expansion has {tasks}",
                    faulted.tasks
                ));
            }
            if faulted.makespan < report.makespan {
                return Some(format!(
                    "faulted makespan {} ns beat fault-free {} ns (fault seed {fseed:#018x})",
                    faulted.makespan.as_ns(),
                    report.makespan.as_ns()
                ));
            }
            let replay = execute(program, &fcfg);
            let fp = |r: &il_runtime::RunReport| {
                (
                    r.makespan,
                    r.messages,
                    r.bytes,
                    r.stage_json().to_string(),
                    r.recovery.clone(),
                )
            };
            if fp(&faulted) != fp(&replay) {
                return Some(format!(
                    "faulted execution is not deterministic for fault seed {fseed:#018x}: \
                     {:?} vs {:?}",
                    fp(&faulted),
                    fp(&replay)
                ));
            }
        }

        // SDC leg: re-execute in validation mode under a seeded
        // corruption schedule with replicate-2 defense. The vote must
        // catch every flip (zero escapes) and the final data must
        // converge byte-for-byte to the fault-free store; being a pure
        // function of `(seed, config)`, the defended run must also
        // replay byte-identically.
        if let Some(cseed) = corrupt_seed {
            let vcfg = RuntimeConfig::validate(nodes);
            let clean = execute(program, &vcfg);
            let ccfg = vcfg
                .clone()
                .with_corruption(cseed)
                .with_replication(ReplicationConfig::all(2));
            let defended = execute(program, &ccfg);
            if defended.tasks != tasks {
                return Some(format!(
                    "defended execution (corrupt seed {cseed:#018x}) ran {} tasks \
                     but the expansion has {tasks}",
                    defended.tasks
                ));
            }
            let Some(sdc) = defended.sdc.clone() else {
                return Some(format!(
                    "corrupt seed {cseed:#018x}: defended run reported no SDC stats"
                ));
            };
            if sdc.escaped != 0 {
                return Some(format!(
                    "corrupt seed {cseed:#018x}: {} corrupted outputs escaped the \
                     replicate-2 vote",
                    sdc.escaped
                ));
            }
            if defended.store != clean.store {
                return Some(format!(
                    "corrupt seed {cseed:#018x}: defended final store diverged from \
                     the fault-free store ({} detections, {} re-runs)",
                    sdc.detected, sdc.reruns
                ));
            }
            let replay = execute(program, &ccfg);
            let fp = |r: &il_runtime::RunReport| {
                (r.makespan, r.messages, r.bytes, r.stage_json().to_string(), r.sdc.clone())
            };
            if fp(&defended) != fp(&replay) {
                return Some(format!(
                    "defended execution is not deterministic for corrupt seed \
                     {cseed:#018x}: {:?} vs {:?}",
                    fp(&defended),
                    fp(&replay)
                ));
            }
        }
        None
    })();

    (coverage, tasks, expanded.closes, error)
}

/// Locate the first (task, predecessor) bit on which two closures differ,
/// for a readable divergence message.
fn first_closure_diff(a: &[Vec<u32>], b: &[Vec<u32>]) -> String {
    let (ca, cb) = (transitive_closure(a), transitive_closure(b));
    for t in 0..ca.len().min(cb.len()) {
        for w in 0..ca[t].len() {
            let diff = ca[t][w] ^ cb[t][w];
            if diff != 0 {
                let d = w * 64 + diff.trailing_zeros() as usize;
                let fast = ca[t][w] >> (d % 64) & 1 == 1;
                return format!(
                    "task {t} {} depend on task {d} in the fast path, oracle disagrees",
                    if fast { "does" } else { "does not" }
                );
            }
        }
    }
    "graphs have different sizes".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_is_clean() {
        let report = run_differential(&DiffConfig { cases: 24, ..DiffConfig::default() });
        assert!(
            report.divergences.is_empty(),
            "divergences: {:#?}",
            report.divergences
        );
        assert!(report.tasks > 0);
    }

    #[test]
    fn injected_divergence_is_always_caught() {
        let report = run_differential(&DiffConfig {
            cases: 8,
            inject: true,
            ..DiffConfig::default()
        });
        assert_eq!(report.divergences.len(), 8, "every injected case must diverge");
        for d in &report.divergences {
            assert!(d.detail.contains("makespan"), "unexpected detail: {}", d.detail);
        }
    }

    #[test]
    fn divergence_reproduces_from_seed_alone() {
        let cfg = DiffConfig { cases: 4, inject: true, ..DiffConfig::default() };
        let report = run_differential(&cfg);
        for d in &report.divergences {
            let again = run_case(d.seed, cfg.nodes, true, None, None);
            assert_eq!(again.error.as_deref(), Some(d.detail.as_str()));
        }
    }

    #[test]
    fn chaos_corpus_is_clean() {
        let report = run_differential(&DiffConfig {
            cases: 16,
            faults: Some(0xFA17),
            ..DiffConfig::default()
        });
        assert!(
            report.divergences.is_empty(),
            "chaos divergences: {:#?}",
            report.divergences
        );
    }

    #[test]
    fn corruption_corpus_is_clean() {
        let report = run_differential(&DiffConfig {
            cases: 12,
            corrupt: Some(0x5DC0),
            ..DiffConfig::default()
        });
        assert!(
            report.divergences.is_empty(),
            "SDC divergences: {:#?}",
            report.divergences
        );
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Same corpus on 1 and 4 workers: identical aggregate report,
        // including divergence (case, seed) order under --inject.
        for inject in [false, true] {
            let base = DiffConfig { cases: 12, inject, ..DiffConfig::default() };
            let serial = run_differential(&DiffConfig { threads: 1, ..base });
            let parallel = run_differential(&DiffConfig { threads: 4, ..base });
            assert_eq!(serial.cases, parallel.cases);
            assert_eq!(serial.tasks, parallel.tasks);
            assert_eq!(serial.coverage, parallel.coverage);
            let key = |d: &Divergence| (d.case, d.seed, d.detail.clone());
            assert_eq!(
                serial.divergences.iter().map(key).collect::<Vec<_>>(),
                parallel.divergences.iter().map(key).collect::<Vec<_>>(),
            );
        }
    }
}
