//! `e2e_bench`: the SID end-to-end benchmark. See `README.md` beside
//! this crate for the workloads, metrics and bounds.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- --seed 1 [--trace 1]
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload grid_dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Without `--workload` it runs every workload, prints each end-to-end
//! metric with its unit, writes `e2e_bench/results/run-seed<S>.json`
//! (plus `trace-seed<S>.json` with `--trace 1`) and compares against
//! `results/baseline-seed<S>.json` when one exists. With `--workload` it
//! runs that workload alone and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Adding `--threads N` runs the workload at that one pool
//! width in this process and prints the raw measurements; that is how
//! the benchmark starts its own subprocesses. It exits 1 when a
//! correctness check fails and 2 on a bad command line.

mod report;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{Serialize as _, Value};

use crate::report::{run_workload, Metrics, Outcome};
use crate::spec::Spec;
use crate::stats::{regressed, Better};
use crate::workloads::{run_width, Workload};

const USAGE: &str = "\
usage: e2e_bench [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--threads N]

  --seed N        scenario seed (default 1)
  --workload NAME one of grid_dense, fleet_coast, serve_mix, stream_ingest;
                  omitted: run all four and write e2e_bench/results/
  --seconds S     measurement time per workload (default: run_seconds of BENCHMARK.json)
  --trace 0|1     1 adds a traced run and reports the per-layer metrics (default 0)
  --threads N     run the workload at this one pool width in-process and
                  print raw measurements (needs --workload)";

/// Set-up regressions smaller than this are noise, whatever the bound.
const SETUP_FLOOR_S: f64 = 0.020;

#[derive(Debug)]
struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: None,
        trace: false,
        threads: None,
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !["--seed", "--workload", "--seconds", "--trace", "--threads"].contains(&flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(bad());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                args.threads = Some(n);
            }
        }
    }
    if args.threads.is_some() && args.workload.is_none() {
        return Err("--threads needs --workload".into());
    }
    Ok(args)
}

fn metrics_value(spec: &Spec, metrics: &Metrics) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|&(name, value)| {
                let unit = &spec
                    .metric(name)
                    .expect("metric declared in BENCHMARK.json")
                    .unit;
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_outcome(spec: &Spec, outcome: &Outcome) {
    println!(
        "== {} ({} operations, {} failed)",
        outcome.workload.name(),
        outcome.attempted,
        outcome.failed
    );
    // The per-layer list repeats the simulated metrics.
    let lists = [
        Some(&outcome.end_to_end),
        outcome.per_layer.as_ref().or(Some(&outcome.simulated)),
    ];
    for metrics in lists.into_iter().flatten() {
        for &(name, value) in metrics {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }
    for error in &outcome.errors {
        println!("  FAILED: {error}");
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_json(name: &str, value: &Value) {
    let dir = results_dir();
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("values serialize") + "\n",
        )
    });
    match written {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("e2e_bench: cannot write {}: {e}", path.display()),
    }
}

/// Compares the end-to-end metrics against `baseline-seed<S>.json`, when
/// present, with the bounds of `BENCHMARK.json`. Reports only: the exit
/// code reflects correctness.
fn compare_baseline(spec: &Spec, seed: u64, outcomes: &[Outcome]) {
    let path = results_dir().join(format!("baseline-seed{seed}.json"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let baseline: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2e_bench: cannot parse {}: {e}", path.display());
            return;
        }
    };
    println!("== against {}", path.display());
    let lookup = |workload: &str, metric: &str| {
        let workloads = baseline
            .as_map()
            .and_then(|m| serde::map_get(m, "workloads").ok())?;
        let w = serde::map_get(workloads.as_map()?, workload).ok()?;
        serde::map_get(w.as_map()?, metric).ok()?.as_f64()
    };
    for outcome in outcomes {
        for &(name, value) in &outcome.end_to_end {
            let m = spec.metric(name).expect("declared");
            let Some(base) = lookup(outcome.workload.name(), name) else {
                continue;
            };
            let floor = if name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let bad = regressed(base, value, m.bound.unwrap_or(0.0), floor, m.better);
            let change = 100.0 * (value / base - 1.0);
            let direction = match m.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            println!(
                "  {:<14} {name:<20} {change:>+7.1} % ({direction}, bound {:.0} %) {}",
                outcome.workload.name(),
                100.0 * m.bound.unwrap_or(0.0),
                if bad { "REGRESSED" } else { "ok" }
            );
        }
    }
}

fn outcome_value(spec: &Spec, outcome: &Outcome) -> Value {
    let mut entries = vec![
        (
            "workload".to_string(),
            Value::Str(outcome.workload.name().into()),
        ),
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        (
            "error_rate".into(),
            Value::F64(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("errors".into(), outcome.errors.to_value()),
        (
            "end_to_end".into(),
            metrics_value(spec, &outcome.end_to_end),
        ),
        ("simulated".into(), metrics_value(spec, &outcome.simulated)),
        ("fingerprints".into(), outcome.fingerprints.to_value()),
        ("digest".into(), Value::Str(outcome.digest.clone())),
    ];
    if let Some(per_layer) = &outcome.per_layer {
        entries.push(("per_layer".into(), metrics_value(spec, per_layer)));
    }
    if let Some(ledger) = &outcome.ledger {
        entries.push(("ledger".into(), ledger.clone()));
    }
    Value::Map(entries)
}

/// One workload, as a regression check of `BENCHMARK.json` runs it.
fn run_one(spec: &Spec, workload: Workload, args: &Args, seconds: f64) -> ExitCode {
    let outcome = match run_workload(workload, args.seed, seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_outcome(spec, &outcome);
    let metrics = if args.trace {
        outcome.per_layer.as_ref().expect("traced run")
    } else {
        &outcome.end_to_end
    };
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), metrics_value(spec, metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("values serialize")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, one after another, with result files.
fn run_all(spec: &Spec, args: &Args, seconds: f64) -> ExitCode {
    let mut outcomes = Vec::new();
    for name in &spec.workloads {
        let workload = Workload::parse(name).expect("BENCHMARK.json names known workloads");
        match run_workload(workload, args.seed, seconds, args.trace) {
            Ok(outcome) => {
                print_outcome(spec, &outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("e2e_bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let header = |kind: &str| {
        vec![
            ("kind".to_string(), Value::Str(kind.into())),
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(seconds)),
            ("threads".into(), Value::U64(report::GATED_THREADS as u64)),
            (
                "available_parallelism".into(),
                Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
        ]
    };
    let mut run = header("run");
    run.push((
        "workloads".into(),
        Value::Seq(outcomes.iter().map(|o| outcome_value(spec, o)).collect()),
    ));
    write_json(&format!("run-seed{}.json", args.seed), &Value::Map(run));
    if args.trace {
        let mut trace = header("trace");
        trace.push((
            "workloads".into(),
            Value::Seq(
                outcomes
                    .iter()
                    .map(|o| {
                        Value::Map(vec![
                            ("workload".into(), Value::Str(o.workload.name().into())),
                            ("ledger".into(), o.ledger.clone().expect("traced run")),
                            (
                                "per_layer".into(),
                                metrics_value(spec, o.per_layer.as_ref().expect("traced run")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        write_json(&format!("trace-seed{}.json", args.seed), &Value::Map(trace));
    }
    compare_baseline(spec, args.seed, &outcomes);
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::spec();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    match (args.workload, args.threads) {
        (Some(workload), Some(threads)) => {
            let run = run_width(workload, args.seed, seconds, threads, args.trace);
            println!("{}", serde_json::to_string(&run).expect("values serialize"));
            ExitCode::SUCCESS
        }
        (Some(workload), None) => run_one(&spec, workload, &args, seconds),
        (None, _) => run_all(&spec, &args, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn single_workload_command_line_parses() {
        let args = parse("--workload serve_mix --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(args.workload, Some(Workload::ServeMix));
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Some(12.0));
        assert!(args.trace);
        assert_eq!(args.threads, None);
        assert_eq!(parse("").expect("defaults").seed, 1);
    }

    #[test]
    fn strict_cli_rejects_what_it_does_not_know() {
        for bad in [
            "--quick",
            "--workload nope",
            "--seed",
            "--seed x",
            "--seed 1 --seed 2",
            "--trace yes",
            "--trace",
            "--seconds -1",
            "--seconds NaN",
            "--threads 0",
            "--threads 2",
            "grid_dense",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
