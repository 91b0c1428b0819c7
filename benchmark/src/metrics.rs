//! Every metric the benchmark can print, with its unit and clock.
//!
//! `BENCHMARK.json` (embedded below) is the one list of names, units,
//! directions and bounds; only whether a metric repeats exactly is
//! decided here.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The contract file at the repo root, compiled in so that `diff` and
/// the tests read the same bounds wherever the binary is run from.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn benchmark_json() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock or resident memory: varies run to run, compared
    /// against a bound.
    Host,
    /// Simulated time or a counter: a pure function of the inputs,
    /// compared for equality.
    Exact,
}

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub clock: Clock,
}

/// Exact metrics whose unit does not say so: sizes and ratios computed
/// from counters alone.
const EXACT_BY_NAME: [&str; 5] = [
    "runtime.expand.bytes_per_task",
    "runtime.exec.bytes",
    "runtime.cache.hit_ratio",
    "runtime.replay.replayed_op_share",
    "runtime.recovery.retry_ratio",
];

/// Counts and simulated times (which carry units of their own, `sim_ms`
/// and `sim_ns`, so that no reader takes them for host time) repeat
/// exactly; everything else is read off the host.
fn clock(name: &str, unit: &str) -> Clock {
    if matches!(unit, "count" | "sim_ms" | "sim_ns") || EXACT_BY_NAME.contains(&name) {
        Clock::Exact
    } else {
        Clock::Host
    }
}

/// The metrics `BENCHMARK.json` declares: `[end_to_end, per_layer]`, in
/// its order.
///
/// Simulated makespan and latency are per-layer (`sim.makespan_ms`,
/// `sim.service.p99_ms`): they are exact for one seed and differ
/// between seeds, so a spread over seeds says nothing about them;
/// `diff` compares them for equality instead.
fn table() -> &'static [Vec<MetricDef>; 2] {
    static TABLE: OnceLock<[Vec<MetricDef>; 2]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let spec = benchmark_json();
        ["end_to_end", "per_layer"].map(|section| {
            let declared = spec.get(section).map(Json::arr).unwrap_or_default();
            declared
                .iter()
                .map(|m| {
                    let field = |key| {
                        let value = m.get(key).and_then(Json::str);
                        value.expect("a metric has a name and a unit").to_string()
                    };
                    let (name, unit) = (field("name"), field("unit"));
                    MetricDef {
                        clock: clock(&name, &unit),
                        name,
                        unit,
                    }
                })
                .collect()
        })
    })
}

pub fn end_to_end() -> &'static [MetricDef] {
    &table()[0]
}

pub fn per_layer() -> &'static [MetricDef] {
    &table()[1]
}

pub fn def(name: &str) -> Option<&'static MetricDef> {
    table().iter().flatten().find(|d| d.name == name)
}

/// Named values collected during one repetition. Only declared names
/// are accepted, so nothing undeclared can be printed.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.0.insert(def.name.as_str(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(sum) => *sum += value,
            None => self.set(name, value),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn to_json(&self) -> Json {
        self.0
            .iter()
            .fold(Json::obj(), |doc, (name, value)| doc.set(name, *value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_names_are_unique_and_classified() {
        let mut seen = BTreeSet::new();
        for d in end_to_end().iter().chain(per_layer()) {
            assert!(seen.insert(&d.name), "{} declared twice", d.name);
        }
        assert!(end_to_end().iter().all(|d| d.clock == Clock::Host));
        for (name, want) in [
            ("runtime.exec.tasks", Clock::Exact),
            ("sim.makespan_ms", Clock::Exact),
            ("runtime.exec.bytes", Clock::Exact),
            ("machine.des.bytes_per_node", Clock::Host),
            ("runtime.service.overhead_ratio", Clock::Host),
            ("runtime.execute_ns", Clock::Host),
        ] {
            assert_eq!(def(name).map(|d| d.clock), Some(want), "{name}");
        }
        assert!(EXACT_BY_NAME.iter().all(|name| def(name).is_some()));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
