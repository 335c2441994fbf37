//! The metric-name tables and the result a run prints.
//!
//! Every workload reports every end-to-end metric; a per-layer metric
//! whose layer the workload does not exercise reads 0. The names and
//! units come from `BENCHMARK.json`, compiled in, so the file is their
//! only source.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// `BENCHMARK.json` at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The fixed open-loop arrival rates of `serve-mixed`, requests/s.
pub const SERVE_RATES: [u32; 6] = [150, 300, 600, 1200, 2400, 4800];

/// The metric lists of `BENCHMARK.json`, each entry `(name, unit)`.
#[derive(Debug)]
pub struct Tables {
    /// End-to-end metrics, measured with tracing off. `op_p50_ms` is the
    /// median time of the workload's unit of work: an epoch (training),
    /// a cluster round, or a `/score` request at the nominal rate
    /// (serving).
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics, measured by the traced run.
    pub per_layer: Vec<(String, String)>,
}

fn parse_tables(text: &str) -> Result<Tables, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let entries = v
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("no {key} list"))?;
        entries
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a {key} entry has no {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    Ok(Tables {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// The compiled-in metric tables.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` lacks well-formed metric lists.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        parse_tables(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// Whether `name` is a declared metric.
fn declared(name: &str) -> bool {
    let t = tables();
    t.end_to_end
        .iter()
        .chain(&t.per_layer)
        .any(|(n, _)| n == name)
}

/// One run's measurements and correctness checks.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted (buckets trained, requests sent).
    pub attempted: u64,
    /// Operations that failed (non-finite buckets, failed requests or
    /// RPCs).
    pub failed: u64,
    failed_checks: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table: every emitted name is a
    /// declared one.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(declared(name), "undeclared metric {name}");
        self.values.insert(name.to_string(), value);
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl std::fmt::Display) {
        println!(
            "check {:<44} {}  {detail}",
            what,
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// The result object for the chosen table: every end-to-end metric
    /// (`trace = false`) or every per-layer metric (`trace = true`),
    /// and nothing else. Unmeasured per-layer metrics read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured or any reported
    /// value is not finite.
    pub fn result(&self, trace: bool) -> Value {
        let t = tables();
        let table = if trace { &t.per_layer } else { &t.end_to_end };
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            metrics.push((name.clone(), json!({"value": value, "unit": unit})));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Map(metrics),
        })
    }
}

/// Prints one human-readable metric line, for the workload-specific
/// names (`edges_per_s`, `score_p99_ms`, ...) behind the generic ones.
pub fn show(name: &str, value: f64, unit: &str) {
    println!("metric {name:<36} {value:>16.6} {unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let t = tables();
        assert!(!t.end_to_end.is_empty() && !t.per_layer.is_empty());
        assert!(t.per_layer.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in t.end_to_end.iter().chain(&t.per_layer) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn malformed_tables_are_refused() {
        assert!(parse_tables("{}").is_err());
        assert!(parse_tables(r#"{"end_to_end": [{"name": "x"}], "per_layer": []}"#).is_err());
        let t = parse_tables(r#"{"end_to_end": [{"name": "x", "unit": "s"}], "per_layer": []}"#)
            .unwrap();
        assert_eq!(t.end_to_end, [("x".to_string(), "s".to_string())]);
    }

    #[test]
    fn serve_rate_metrics_follow_the_rate_list() {
        for rate in SERVE_RATES {
            for field in ["attempted", "failed", "score_p99_ms"] {
                let name = format!("serve.rate{rate}.{field}");
                assert!(declared(&name), "{name} not declared");
            }
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn results_emit_exactly_the_declared_names() {
        let t = tables();
        let mut r = Report::new();
        for (name, _) in &t.end_to_end {
            r.set(name, 1.5);
        }
        r.set("store.swap_ins", 3.0);
        for (trace, table) in [(false, &t.end_to_end), (true, &t.per_layer)] {
            let out = r.result(trace);
            let want: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(keys(out.get("metrics").unwrap()), want);
        }
        let per_layer = r.result(true);
        let m = per_layer.get("metrics").unwrap();
        assert_eq!(
            m.get("store.swap_ins")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            m.get("eval.s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            keys(&per_layer),
            ["correct", "attempted", "failed", "metrics"]
        );
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Report::new().set("made.up", 1.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metrics_are_refused() {
        Report::new().result(false);
    }

    #[test]
    fn failed_checks_mark_the_run_incorrect() {
        let mut r = Report::new();
        r.check("passes", true, "");
        assert!(r.correct());
        r.check("fails", false, "");
        assert!(!r.correct());
    }
}
