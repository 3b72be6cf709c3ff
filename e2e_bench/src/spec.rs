//! `BENCHMARK.json`, embedded at build time: the single source of the
//! workload names, metric units, directions and regression bounds.

use serde::Value;

use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Gated metrics, printed with `--trace 0`.
    pub end_to_end: Vec<MetricSpec>,
    /// Layer metrics, printed with `--trace 1`.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The metric called `name`, in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| serde::map_get(m, key).ok())
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a string"))
        .to_string()
}

fn metrics(root: &Value, key: &str) -> Vec<MetricSpec> {
    field(root, key)
        .as_seq()
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: Better::parse(&text(m, "better"))
                .unwrap_or_else(|| panic!("BENCHMARK.json: bad `better` in `{key}`")),
            bound: m
                .as_map()
                .and_then(|e| serde::map_get(e, "bound").ok())
                .and_then(Value::as_f64),
        })
        .collect()
}

/// Parses the embedded `BENCHMARK.json`. The file ships with the
/// benchmark, so a malformed one is a build defect, not an input error.
pub fn spec() -> Spec {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: field(&root, "run_seconds")
            .as_f64()
            .expect("BENCHMARK.json: run_seconds is a number"),
        workloads: field(&root, "workloads")
            .as_seq()
            .expect("BENCHMARK.json: workloads is a list")
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        end_to_end: metrics(&root, "end_to_end"),
        per_layer: metrics(&root, "per_layer"),
    }
}
