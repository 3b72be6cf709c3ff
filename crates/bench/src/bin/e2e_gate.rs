//! Tier-1 perf gate over the end-to-end benchmark's own workloads.
//!
//! ```text
//! cargo run --release -p sid-bench --bin e2e_gate
//! ```
//!
//! Before measuring, it reads the benchmark command and workload list
//! from `BENCHMARK.json` and each workload's committed
//! `node_samples_per_s` from `e2e_bench/results/baseline-seed1.json`.
//! Then it runs `<command> --workload W --seconds 0` for each workload:
//! seed 1, one pass at pool width 2 and one at width 1. e2e_bench itself
//! exits 1 when the two widths' fingerprints or digests differ, when
//! `serve_mix`'s migrated tenant lands on another fingerprint, or when
//! `stream_ingest` emits nothing. The gate fails (exit 1) on a non-zero
//! exit, on `"correct": false` or `failed > 0`, and on a throughput
//! below [`CHECK_FLOOR`]× the baseline. A missing or unparsable
//! `BENCHMARK.json` or baseline exits 2. It takes no arguments and
//! writes nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde::{Deserialize, Value};

use sid_bench::gate::{self, GateError, CHECK_FLOOR};

/// The parts of `BENCHMARK.json` the gate runs.
#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    workloads: Vec<Workload>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

/// The repository root: where the gate's inputs live and where the
/// benchmark command runs.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn benchmark(root: &Path) -> Result<Benchmark, GateError> {
    let path = root.join("BENCHMARK.json");
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|json| serde_json::from_str(&json).map_err(|e| e.to_string()))
        .map_err(|e| GateError::Baseline(format!("cannot load {}: {e}", path.display())))
}

fn baseline(root: &Path, workload: &str) -> Result<f64, GateError> {
    gate::committed_f64(
        root.join("e2e_bench/results/baseline-seed1.json"),
        &["workloads", workload, "node_samples_per_s"],
    )
}

/// Judges one workload's run from its exit status and its last stdout
/// line, `{"correct", "attempted", "failed", "metrics"}`. Returns the
/// measured node-samples/s.
fn verdict(workload: &str, baseline: f64, exited_ok: bool, stdout: &str) -> Result<f64, GateError> {
    let fail = |why: String| Err(GateError::Failed(format!("{workload}: {why}")));
    if !exited_ok {
        return fail("e2e_bench exited non-zero".into());
    }
    let line: Option<Value> = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    let field = |key: &[&str]| line.as_ref().and_then(|v| gate::lookup(v, key));
    let (Some(correct), Some(failed), Some(rate)) = (
        field(&["correct"]).and_then(Value::as_bool),
        field(&["failed"]).and_then(Value::as_u64),
        field(&["metrics", "node_samples_per_s", "value"]).and_then(Value::as_f64),
    ) else {
        return fail("the last stdout line is not a result line".into());
    };
    if !correct || failed > 0 {
        return fail(format!("correct: {correct}, failed: {failed}"));
    }
    let floor = CHECK_FLOOR * baseline;
    if rate < floor {
        return fail(format!(
            "{rate:.0} node-samples/s under the floor {floor:.0} (baseline {baseline:.0})"
        ));
    }
    Ok(rate)
}

fn run() -> Result<Option<String>, GateError> {
    let root = repo_root();
    let bench = benchmark(&root)?;
    let baselines = bench
        .workloads
        .iter()
        .map(|w| baseline(&root, &w.name))
        .collect::<Result<Vec<f64>, GateError>>()?;
    let Some((program, args)) = bench.command.split_first() else {
        return Err(GateError::Baseline("BENCHMARK.json: empty command".into()));
    };
    let mut notes = Vec::new();
    for (workload, baseline) in bench.workloads.iter().zip(baselines) {
        let name = &workload.name;
        let output = Command::new(program)
            .args(args)
            .args(["--workload", name, "--seconds", "0"])
            .current_dir(&root)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| GateError::Failed(format!("{name}: cannot run {program}: {e}")))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let rate = verdict(name, baseline, output.status.success(), &stdout)?;
        notes.push(format!("{name} {:.2}x baseline", rate / baseline));
    }
    Ok(Some(notes.join(", ")))
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: e2e_gate (takes no arguments)");
        std::process::exit(2);
    }
    gate::exit("e2e_gate", run());
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULT: &str = r#"{"correct":true,"attempted":2,"failed":0,"metrics":{"node_samples_per_s":{"value":300.0,"unit":"1/s"}}}"#;

    fn code(verdict: Result<f64, GateError>) -> i32 {
        verdict.err().map_or(0, |e| e.code())
    }

    #[test]
    fn a_correct_run_above_the_floor_passes() {
        let stdout = format!("== grid_dense (2 operations, 0 failed)\n{RESULT}\n");
        assert_eq!(verdict("grid_dense", 1000.0, true, &stdout), Ok(300.0));
    }

    #[test]
    fn below_floor_incorrect_and_failed_child_exit_1() {
        assert_eq!(code(verdict("grid_dense", 1201.0, true, RESULT)), 1);
        let incorrect = RESULT.replace(r#""correct":true"#, r#""correct":false"#);
        assert_eq!(code(verdict("grid_dense", 1000.0, true, &incorrect)), 1);
        let failed = RESULT.replace(r#""failed":0"#, r#""failed":1"#);
        assert_eq!(code(verdict("grid_dense", 1000.0, true, &failed)), 1);
        assert_eq!(code(verdict("grid_dense", 1000.0, false, RESULT)), 1);
        assert_eq!(code(verdict("grid_dense", 1000.0, true, "not json")), 1);
    }

    #[test]
    fn every_declared_workload_has_a_baseline_and_others_exit_2() {
        let root = repo_root();
        let bench = benchmark(&root).expect("committed BENCHMARK.json");
        assert!(!bench.command.is_empty() && !bench.workloads.is_empty());
        for w in &bench.workloads {
            let rate = baseline(&root, &w.name).expect("committed baseline");
            assert!(rate.is_finite() && rate > 0.0, "{}: {rate}", w.name);
        }
        assert_eq!(baseline(&root, "no_such_workload").unwrap_err().code(), 2);
    }
}
