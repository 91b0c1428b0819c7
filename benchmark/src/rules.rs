//! Correctness checks as data: `rules.json` rows of
//! `{claim, scope, selector, rule, value}` evaluated against the result
//! document when a run ends.
//!
//! `scope` names the workloads a row applies to (or `"suite"` for a row
//! that reads several workloads and so needs all of them); `selector`
//! is a `/`-separated path into that workload's result (into the whole
//! document for `"suite"`); `value` is a number or `{"selector": path}`.
//! A row marked `"needs": "trace"` reads something only the traced
//! repetition measures and is skipped when there was none. A selector
//! that resolves to nothing is a failure, not a pass.

use crate::json::Json;

pub const RULES_JSON: &str = include_str!("../rules.json");

/// Evaluate every applicable row; returns the scope and a message for
/// each failed row. `full_suite` says whether `"suite"` rows apply.
pub fn evaluate(rules: &Json, result: &Json, full_suite: bool) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    for row in rules.arr() {
        let claim = row
            .get("claim")
            .and_then(Json::str)
            .unwrap_or("(unnamed rule)");
        let scopes: Vec<&str> = match row.get("scope") {
            Some(Json::Str(one)) => vec![one.as_str()],
            Some(Json::Arr(many)) => many.iter().filter_map(Json::str).collect(),
            _ => {
                failures.push(("suite".to_string(), format!("{claim}: rule has no scope")));
                continue;
            }
        };
        for scope in scopes {
            let root = if scope == "suite" {
                if !full_suite {
                    continue;
                }
                result
            } else {
                match result.at("workloads").and_then(|w| w.get(scope)) {
                    Some(workload) => workload,
                    None => continue, // workload not part of this run
                }
            };
            let needs_trace = row.get("needs").and_then(Json::str) == Some("trace");
            if needs_trace && scope != "suite" && root.get("layers").is_none() {
                continue;
            }
            if let Err(why) = check(row, root) {
                failures.push((scope.to_string(), format!("{claim}: {why}")));
            }
        }
    }
    failures
}

fn check(row: &Json, root: &Json) -> Result<(), String> {
    let selector = row
        .get("selector")
        .and_then(Json::str)
        .ok_or("rule has no selector")?;
    let rule = row
        .get("rule")
        .and_then(Json::str)
        .ok_or("rule has no rule")?;
    let found = root
        .at(selector)
        .ok_or(format!("selector `{selector}` resolves to nothing"))?;
    if rule == "exists" {
        return Ok(());
    }
    let got = found.num().ok_or(format!("`{selector}` is not a number"))?;
    let want = match row.get("value") {
        Some(Json::Num(n)) => *n,
        Some(other) => {
            let path = other
                .get("selector")
                .and_then(Json::str)
                .ok_or("value is neither a number nor a selector")?;
            root.at(path)
                .and_then(Json::num)
                .ok_or(format!("value selector `{path}` resolves to nothing"))?
        }
        None => return Err("rule has no value".into()),
    };
    let holds = match rule {
        "eq" => got == want,
        "le" => got <= want,
        "ge" => got >= want,
        other => return Err(format!("unknown rule `{other}`")),
    };
    if holds {
        Ok(())
    } else {
        Err(format!("`{selector}` is {got}, expected {rule} {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Json {
        Json::parse(
            r#"{"workloads": {
                "a": {"facts": {"tasks": 10, "tasks_expected": 10}, "exact": {"sim.makespan_ms": 4.5},
                      "layers": {"analysis.verdicts.dynamic": 2}},
                "b": {"facts": {"tasks": 10, "tasks_expected": 11}, "exact": {"sim.makespan_ms": 9.0}}
            }}"#,
        )
        .unwrap()
    }

    fn eval(rules: &str, full: bool) -> Vec<String> {
        evaluate(&Json::parse(rules).unwrap(), &result(), full)
            .into_iter()
            .map(|(scope, why)| format!("[{scope}] {why}"))
            .collect()
    }

    #[test]
    fn each_rule_kind_passes_and_fails() {
        let rules = r#"[
            {"claim": "task count", "scope": ["a", "b", "absent"], "selector": "facts/tasks",
             "rule": "eq", "value": {"selector": "facts/tasks_expected"}},
            {"claim": "dynamic verdicts", "scope": ["a", "b"], "needs": "trace",
             "selector": "layers/analysis.verdicts.dynamic", "rule": "ge", "value": 2},
            {"claim": "makespan order", "scope": "suite", "selector": "workloads/a/exact/sim.makespan_ms",
             "rule": "le", "value": {"selector": "workloads/b/exact/sim.makespan_ms"}},
            {"claim": "present", "scope": "a", "selector": "exact/sim.makespan_ms", "rule": "exists"}
        ]"#;
        let failures = eval(rules, true);
        // only b's task count is wrong; b has no traced repetition so its
        // trace-only row is skipped; "absent" was not run
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("[b] task count"), "{failures:?}");
    }

    #[test]
    fn a_selector_that_resolves_to_nothing_fails() {
        let rules = r#"[{"claim": "c", "scope": "a", "selector": "facts/nope", "rule": "exists"},
                        {"claim": "d", "scope": "a", "selector": "facts/tasks", "rule": "eq",
                         "value": {"selector": "facts/nope"}}]"#;
        let failures = eval(rules, false);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("resolves to nothing")));
    }

    #[test]
    fn suite_rows_wait_for_the_full_suite_and_bad_rows_fail() {
        let suite =
            r#"[{"claim": "s", "scope": "suite", "selector": "workloads/zzz", "rule": "exists"}]"#;
        assert!(eval(suite, false).is_empty());
        assert_eq!(eval(suite, true).len(), 1);
        let bad = r#"[{"claim": "x", "scope": "a", "selector": "facts/tasks", "rule": "gt", "value": 1},
                      {"claim": "y", "selector": "facts/tasks", "rule": "eq", "value": 1},
                      {"claim": "z", "scope": "a", "selector": "facts/tasks", "rule": "le", "value": 9}]"#;
        assert_eq!(eval(bad, false).len(), 3);
    }

    #[test]
    fn the_shipped_rules_parse_and_name_known_workloads() {
        let rules = Json::parse(RULES_JSON).expect("rules.json is valid JSON");
        assert!(rules.arr().len() >= 10);
        for row in rules.arr() {
            let scopes: Vec<&str> = match row.get("scope").expect("scope") {
                Json::Str(s) => vec![s],
                other => other.arr().iter().filter_map(Json::str).collect(),
            };
            for scope in scopes {
                assert!(
                    scope == "suite" || crate::workloads::find(scope).is_some(),
                    "unknown scope {scope}"
                );
            }
            for key in ["claim", "selector", "rule"] {
                assert!(
                    row.get(key).and_then(Json::str).is_some(),
                    "row lacks {key}"
                );
            }
        }
    }
}
