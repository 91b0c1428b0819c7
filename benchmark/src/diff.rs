//! `diff OLD NEW`: one row per (workload, end-to-end metric) with both
//! medians, their quartiles, the ratio and its base, and a verdict from
//! the bounds in `BENCHMARK.json`. Simulated times and counters are
//! compared for equality. This is the A/A check and the gate later
//! changes run.

use crate::json::Json;
use crate::metrics::{self, Clock};
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a change of the bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A set-up time has to get worse by this much in absolute terms too:
/// several workloads set up in a few hundredths of a second, where the
/// relative bound alone would gate on scheduler noise.
const SETUP_FLOOR_S: f64 = 0.02;

/// `bound` is the share of the old median by which the metric may get
/// worse; `lower_is_better` its direction.
pub fn verdict(
    name: &str,
    old: Summary,
    new: Summary,
    bound: f64,
    lower_is_better: bool,
) -> Verdict {
    if old.spread().max(new.spread()) > bound {
        return Verdict::Unresolved;
    }
    if old.median == 0.0 {
        return if new.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (new.median - old.median) / old.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    let small_setup = name == "setup_s" && (new.median - old.median).abs() <= SETUP_FLOOR_S;
    if worse_by > bound && !small_setup {
        Verdict::Worse
    } else if worse_by < -bound && !small_setup {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Report {
    pub text: String,
    pub worse: usize,
    pub unresolved: usize,
}

/// One side of a comparison, as `run` wrote it.
fn side(metric: &Json) -> Option<Summary> {
    let get = |key| metric.get(key).and_then(Json::num);
    Some(Summary {
        median: get("median")?,
        q1: get("q1")?,
        q3: get("q3")?,
        n: get("n")? as usize,
    })
}

/// Compare two result documents under the bounds of `spec`
/// (`BENCHMARK.json`).
pub fn diff(spec: &Json, old: &Json, new: &Json) -> Result<Report, String> {
    let mut text = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let same_seed = old.get("seed") == new.get("seed") && old.get("smoke") == new.get("smoke");
    writeln!(
        text,
        "{:<18} {:<12} {:>12} {:>20} {:>12} {:>20} {:>8}  verdict",
        "workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "new/old"
    )
    .expect("write to String");
    let workloads = old.get("workloads").ok_or("OLD has no `workloads`")?;
    for (name, old_w) in workloads.fields() {
        let Some(new_w) = new.at("workloads").and_then(|w| w.get(name)) else {
            writeln!(text, "{name:<18} missing from NEW").expect("write to String");
            worse += 1;
            continue;
        };
        for metric in spec.at("end_to_end").map(Json::arr).unwrap_or_default() {
            let metric_name = metric
                .get("name")
                .and_then(Json::str)
                .ok_or("end_to_end entry without name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::num)
                .ok_or("end_to_end entry without bound")?;
            let lower = metric.get("better").and_then(Json::str) == Some("lower");
            let path = format!("end_to_end/{metric_name}");
            let (Some(o), Some(n)) = (
                old_w.at(&path).and_then(side),
                new_w.at(&path).and_then(side),
            ) else {
                return Err(format!("{name}: `{metric_name}` missing on one side"));
            };
            let v = verdict(metric_name, o, n, bound, lower);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            writeln!(
                text,
                "{name:<18} {metric_name:<12} {:>12.6} {:>20} {:>12.6} {:>20} {:>8.4}  {} (bound {bound}, base {:.6})",
                o.median,
                format!("{:.6}..{:.6}", o.q1, o.q3),
                n.median,
                format!("{:.6}..{:.6}", n.q1, n.q3),
                n.median / o.median,
                v.name(),
                o.median,
            )
            .expect("write to String");
        }
        // failed ÷ attempted may not rise at all.
        let share = |w: &Json| {
            let get = |key| w.get(key).and_then(Json::num).unwrap_or(0.0);
            get("failed") / get("attempted").max(1.0)
        };
        let (o, n) = (share(old_w), share(new_w));
        let v = if n > o {
            Verdict::Worse
        } else if n < o {
            Verdict::Better
        } else {
            Verdict::Same
        };
        worse += usize::from(v == Verdict::Worse);
        writeln!(
            text,
            "{name:<18} {:<12} {o:>12.6} {:>20} {n:>12.6} {:>20} {:>8}  {}",
            "failed_share",
            "",
            "",
            "",
            v.name()
        )
        .expect("write to String");
        // Simulated times and counters: equal or not, nothing between.
        if same_seed {
            let mut differing = Vec::new();
            let mut compared = 0;
            for section in ["exact", "layers"] {
                for (metric_name, old_v) in old_w.get(section).map(Json::fields).unwrap_or_default()
                {
                    if metrics::def(metric_name).map(|d| d.clock) != Some(Clock::Exact) {
                        continue;
                    }
                    compared += 1;
                    let new_v = new_w.at(section).and_then(|s| s.get(metric_name));
                    if new_v != Some(old_v) {
                        differing.push(format!(
                            "{metric_name}: {} -> {}",
                            old_v.compact(),
                            new_v.map_or("missing".to_string(), Json::compact)
                        ));
                    }
                }
            }
            worse += differing.len();
            writeln!(
                text,
                "{name:<18} {:<12} {compared} simulated times and counters compared, {} differ",
                "exact",
                differing.len()
            )
            .expect("write to String");
            for d in differing {
                writeln!(text, "{:<18}   differs  {d}", "").expect("write to String");
            }
        }
    }
    if !same_seed {
        writeln!(
            text,
            "seeds or sizes differ: simulated times and counters not compared"
        )
        .expect("write to String");
    }
    writeln!(text, "{worse} worse, {unresolved} unresolved").expect("write to String");
    Ok(Report {
        text,
        worse,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 7,
        }
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        // lower is better, bound 10 %
        assert_eq!(
            verdict("wall_s", tight(1.0), tight(1.05), 0.10, true),
            Verdict::Same
        );
        assert_eq!(
            verdict("wall_s", tight(1.0), tight(1.12), 0.10, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict("wall_s", tight(1.0), tight(0.85), 0.10, true),
            Verdict::Better
        );
        // higher is better: the same numbers flip
        assert_eq!(
            verdict("work_per_s", tight(100.0), tight(85.0), 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict("work_per_s", tight(100.0), tight(115.0), 0.10, false),
            Verdict::Better
        );
        // a spread wider than the bound on either side resolves nothing,
        // even when the medians are far apart
        let wide = s(1.0, 0.9, 1.1);
        assert_eq!(
            verdict("wall_s", wide, tight(1.5), 0.10, true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("wall_s", tight(1.0), s(1.0, 0.93, 1.05), 0.10, true),
            Verdict::Unresolved
        );
        // set-up: 50 % worse but only 10 ms is noise; 50 % and 50 ms is not
        assert_eq!(
            verdict("setup_s", tight(0.02), tight(0.03), 0.25, true),
            Verdict::Same
        );
        assert_eq!(
            verdict("setup_s", tight(0.10), tight(0.15), 0.25, true),
            Verdict::Worse
        );
    }

    fn doc(wall: f64, failed: f64, makespan: f64) -> Json {
        let m = |v: f64| {
            Json::obj()
                .set("median", v)
                .set("q1", v * 0.995)
                .set("q3", v * 1.005)
                .set("n", 7u64)
        };
        let e2e = Json::obj()
            .set("wall_s", m(wall))
            .set("work_per_s", m(1000.0 / wall))
            .set("peak_rss_mb", m(300.0))
            .set("setup_s", m(0.4));
        let w = Json::obj()
            .set("attempted", 21.0)
            .set("failed", failed)
            .set("end_to_end", e2e)
            .set("exact", Json::obj().set("sim.makespan_ms", makespan))
            .set(
                "layers",
                Json::obj()
                    .set("runtime.expand.tasks", 5.0)
                    .set("runtime.expand_ns", wall * 1e9),
            );
        Json::obj()
            .set("seed", 17.0)
            .set("smoke", false)
            .set("workloads", Json::obj().set("w", w))
    }

    #[test]
    fn documents_compare_row_by_row() {
        // Bounds of its own, so the test does not move with BENCHMARK.json.
        let entry = |name: &str, better: &str, bound: f64| {
            Json::obj()
                .set("name", name)
                .set("better", better)
                .set("bound", bound)
        };
        let spec = Json::obj().set(
            "end_to_end",
            vec![
                entry("wall_s", "lower", 0.1),
                entry("work_per_s", "higher", 0.1),
                entry("peak_rss_mb", "lower", 0.05),
                entry("setup_s", "lower", 0.15),
            ],
        );
        let same = diff(&spec, &doc(2.0, 0.0, 4.5), &doc(2.02, 0.0, 4.5)).unwrap();
        assert_eq!((same.worse, same.unresolved), (0, 0), "{}", same.text);
        // slower beyond the bound: wall_s and work_per_s both say so
        let slow = diff(&spec, &doc(2.0, 0.0, 4.5), &doc(2.6, 0.0, 4.5)).unwrap();
        assert_eq!(slow.worse, 2, "{}", slow.text);
        // one more failure, and a simulated time that moved
        let broken = diff(&spec, &doc(2.0, 0.0, 4.5), &doc(2.0, 1.0, 4.6)).unwrap();
        assert_eq!(broken.worse, 2, "{}", broken.text);
        assert!(broken.text.contains("sim.makespan_ms: 4.5 -> 4.6"));
        // host-clock layer values are never compared for equality
        assert!(!broken.text.contains("runtime.expand_ns:"));
    }
}
