//! One workload run: its width subprocesses, the correctness gate, the
//! end-to-end metrics and the per-layer ledger.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use crate::stats::{median, p50_and_tail};
use crate::workloads::{Layers, Pass, StreamStats, WidthRun, Workload};

/// Pool width the gated metrics are measured at.
pub const GATED_THREADS: usize = 2;

/// Wall-clock budget of one workload run, subprocesses included.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// A metric value by name; units come from `BENCHMARK.json`.
pub type Metrics = Vec<(&'static str, f64)>;

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Operations attempted: calls, service operations, checks.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Why, one line each.
    pub errors: Vec<String>,
    /// Gated metrics from the untraced width-2 process.
    pub end_to_end: Metrics,
    /// Simulated detection outcome (exact; not gated).
    pub simulated: Metrics,
    /// Journal (or output) fingerprints and outcome digest of the
    /// width-2 run, for comparing invocations.
    pub fingerprints: Vec<String>,
    /// See `fingerprints`.
    pub digest: String,
    /// Layer metrics, when a traced run was made.
    pub per_layer: Option<Metrics>,
    /// The per-layer ledger rows, when a traced run was made.
    pub ledger: Option<Value>,
}

impl Outcome {
    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs `workload` at one width in a subprocess of this binary and reads
/// back its measurements.
fn spawn_width(
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    traced: bool,
    deadline: Instant,
) -> Result<WidthRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
            "--threads",
            &threads.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start width-{threads} run: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "width-{threads} run of {} timed out",
                    workload.name()
                ));
            }
        }
    };
    let text = reader
        .join()
        .expect("stdout reader does not panic")
        .map_err(|e| format!("cannot read width-{threads} run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "width-{threads} run of {} failed: {status}",
            workload.name()
        ));
    }
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("width-{threads} run sent bad JSON: {e}"))
}

/// Records the outcome of one correctness check.
fn check(outcome: &mut Outcome, ok: bool, what: impl FnOnce() -> String) {
    outcome.attempted += 1;
    if !ok {
        outcome.failed += 1;
        outcome.errors.push(what());
    }
}

fn same_outputs(a: &Pass, b: &Pass) -> bool {
    a.fingerprints == b.fingerprints && a.digest == b.digest
}

/// Node-samples per second over every pass of `run`: total work over
/// total time inside the calls.
fn throughput(run: &WidthRun) -> f64 {
    let samples: u64 = run.passes.iter().map(|p| p.node_samples).sum();
    let wall: f64 = run.passes.iter().map(|p| p.wall_s).sum();
    samples as f64 / wall
}

/// Median and tail call latency over every call of every pass. The tail
/// percentile follows from one pass's call count, so it is the same for
/// every run of a workload however many passes fit.
fn step_latency(run: &WidthRun) -> (f64, f64) {
    let all: Vec<f64> = run
        .passes
        .iter()
        .flat_map(|p| p.steps_ms.iter().copied())
        .collect();
    p50_and_tail(&all, run.passes[0].steps_ms.len()).expect("every pass makes at least 20 calls")
}

fn median_of(run: &WidthRun, f: impl Fn(&Pass) -> f64) -> f64 {
    median(&run.passes.iter().map(f).collect::<Vec<_>>())
}

fn setup_median(run: &WidthRun, f: impl Fn(&crate::workloads::SetupTimes) -> f64) -> f64 {
    median(&run.setups.iter().map(f).collect::<Vec<_>>())
}

/// The gated metrics, from the untraced width-2 process.
pub fn end_to_end(w2: &WidthRun) -> Metrics {
    let (p50, tail) = step_latency(w2);
    vec![
        ("node_samples_per_s", throughput(w2)),
        ("setup_s", setup_median(w2, |s| s.total_s)),
        ("peak_rss_mb", w2.peak_rss_mb),
        ("step_p50_ms", p50),
        ("step_tail_ms", tail),
    ]
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated detection outcome of the first width-2 pass.
fn simulated(w2: &WidthRun) -> Metrics {
    let d = &w2.passes[0].detection;
    vec![
        (
            "detect.delay_s",
            if d.delays_s.is_empty() {
                0.0
            } else {
                median(&d.delays_s)
            },
        ),
        ("detect.recall", ratio(d.detected, d.ships)),
        ("detect.false_incidents", d.false_incidents as f64),
    ]
}

/// Self time of each top-level layer in the traced pass: the rows sum to
/// the traced wall time, with whatever no span covers in `unattributed`.
struct Ledger {
    wall_s: f64,
    rows: Vec<(&'static str, f64)>,
    exec_inside: &'static str,
}

impl Ledger {
    fn new(workload: Workload, pass: &Pass, layers: &Layers) -> Self {
        let stream = pass.stream.clone().unwrap_or_default();
        // Pool batches run nested in Phase A sensing or in `pump`.
        let (exec_inside, sense_self, pump_self) = if workload == Workload::StreamIngest {
            (
                "stream.pump",
                layers.sense_s,
                stream.pump_s - layers.exec_batch_s,
            )
        } else {
            (
                "ocean.sense",
                layers.sense_s - layers.exec_batch_s,
                stream.pump_s,
            )
        };
        let mut rows = vec![
            ("core.faults", layers.faults_s),
            ("ocean.sense", sense_self),
            ("exec.batch", layers.exec_batch_s),
            ("core.detect", layers.detect_s),
            ("net.deliveries", layers.deliveries_s),
            ("core.clusters", layers.clusters_s),
            ("stream.push", stream.push_s),
            ("stream.pump", pump_self),
        ];
        let covered: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("unattributed", pass.wall_s - covered));
        Ledger {
            wall_s: pass.wall_s,
            rows,
            exec_inside,
        }
    }

    fn unattributed_s(&self) -> f64 {
        self.rows.last().expect("unattributed row").1
    }

    fn to_value(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|&(layer, secs)| {
                Value::Map(vec![
                    ("layer".into(), Value::Str(layer.into())),
                    ("self_s".into(), Value::F64(secs)),
                    ("share_pct".into(), Value::F64(100.0 * secs / self.wall_s)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("wall_s".into(), Value::F64(self.wall_s)),
            ("rows".into(), Value::Seq(rows)),
            (
                "rows_sum_s".into(),
                Value::F64(self.rows.iter().map(|r| r.1).sum()),
            ),
            (
                "exec_batch_nested_in".into(),
                Value::Str(self.exec_inside.into()),
            ),
        ])
    }
}

/// The layer metrics: the traced pass's recorders and outer timings, the
/// untraced width-2 process's set-up and migration timings, and the
/// width-1 process for the speed-up.
pub fn per_layer(
    workload: Workload,
    untraced: &WidthRun,
    width1: &WidthRun,
    traced: &WidthRun,
) -> (Metrics, Value) {
    let pass = &traced.passes[0];
    let l = pass.layers.clone().unwrap_or_default();
    let ledger = Ledger::new(workload, pass, &l);
    let s: StreamStats = pass.stream.clone().unwrap_or_default();
    let c = &l.counts;
    let unattributed = ledger.unattributed_s();
    let migration = |f: fn(&crate::workloads::Migration) -> f64| {
        median_of(untraced, |p| p.migration.as_ref().map_or(0.0, f))
    };
    let mut metrics: Metrics = vec![
        ("run.traced_wall_s", pass.wall_s),
        ("ocean.sense_s", l.sense_s),
        ("ocean.sense_pct", 100.0 * l.sense_s / pass.wall_s),
        ("core.detect_s", l.detect_s),
        ("net.deliveries_s", l.deliveries_s),
        ("core.clusters_s", l.clusters_s),
        ("core.faults_s", l.faults_s),
        ("core.unattributed_s", unattributed),
        (
            "core.attributed_pct",
            100.0 * (1.0 - unattributed / pass.wall_s),
        ),
        ("exec.batch_s", l.exec_batch_s),
        ("exec.batches", l.exec_batches as f64),
        ("exec.tasks", l.exec_tasks as f64),
        ("exec.queue_depth_max", l.exec_queue_depth_max),
        ("exec.empty_batch_us", traced.empty_batch_us.unwrap_or(0.0)),
        ("exec.speedup_2t", throughput(untraced) / throughput(width1)),
        ("stream.push_s", s.push_s),
        ("stream.pump_s", s.pump_s),
        ("stream.pump_tail_us", s.pump_tail_us),
        ("stream.outputs", s.outputs as f64),
        ("stream.rejected_samples", s.rejected_samples as f64),
        (
            "stream.peak_resident_samples",
            s.peak_resident_samples as f64,
        ),
        ("ocean.synth_ms", setup_median(untraced, |t| t.synth_ms)),
        ("net.index_build_ms", setup_median(untraced, |t| t.index_ms)),
        ("core.build_ms", setup_median(untraced, |t| t.build_ms)),
        ("serve.open_ms", setup_median(untraced, |t| t.open_ms)),
        ("serve.checkpoint_ms", migration(|m| m.checkpoint_ms)),
        ("serve.resume_ms", migration(|m| m.resume_ms)),
        ("core.node_reports", c.node_reports_emitted as f64),
        ("core.clusters_formed", c.clusters_formed as f64),
        ("core.clusters_evaluated", c.clusters_evaluated as f64),
        ("core.clusters_confirmed", c.clusters_confirmed as f64),
        (
            "core.confirm_ratio",
            ratio(c.clusters_confirmed, c.clusters_evaluated),
        ),
        (
            "core.reports_dropped_no_cluster",
            c.reports_dropped_no_cluster as f64,
        ),
        ("core.faults_injected", c.faults_injected as f64),
        ("core.active_clusters_max", l.active_clusters_max),
        ("net.transmissions", l.net.transmissions as f64),
        ("net.delivered", l.net.delivered as f64),
        (
            "net.delivery_ratio",
            ratio(l.net.delivered, l.net.transmissions),
        ),
        ("net.burst_dropped", l.net.burst_dropped as f64),
        ("net.blocked_down", l.net.blocked_down as f64),
        ("net.in_flight_max", l.in_flight_max),
        ("sink.accepted", c.sink_accepted as f64),
        ("sink.duplicates_dropped", c.sink_duplicates_dropped as f64),
        ("alert.emitted", c.alerts_emitted as f64),
        ("alert.suppressed", c.alerts_suppressed as f64),
        ("alert.coalesced", c.alerts_coalesced as f64),
        ("obs.journal_events", c.events_recorded as f64),
        (
            "obs.trace_overhead_pct",
            100.0 * (pass.wall_s / median_of(untraced, |p| p.wall_s) - 1.0),
        ),
    ];
    metrics.extend(simulated(untraced));
    (metrics, ledger.to_value())
}

/// Runs `workload`: the untraced width-2 process measures for `seconds`,
/// a width-1 process makes one pass for the thread-invariance check and,
/// with `trace`, a traced width-2 process makes one pass for the ledger.
/// Subprocesses run one at a time.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let deadline = Instant::now() + RUN_BUDGET;
    let w2 = spawn_width(workload, seed, seconds, GATED_THREADS, false, deadline)?;
    let w1 = spawn_width(workload, seed, 0.0, 1, false, deadline)?;
    let traced = if trace {
        Some(spawn_width(
            workload,
            seed,
            0.0,
            GATED_THREADS,
            true,
            deadline,
        )?)
    } else {
        None
    };

    let mut outcome = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        end_to_end: end_to_end(&w2),
        simulated: simulated(&w2),
        fingerprints: w2.passes[0].fingerprints.clone(),
        digest: w2.passes[0].digest.clone(),
        per_layer: None,
        ledger: None,
    };
    let runs: Vec<&WidthRun> = [Some(&w2), Some(&w1), traced.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    for run in &runs {
        for pass in &run.passes {
            outcome.attempted += pass.attempted;
            outcome.failed += pass.failed;
            outcome.errors.extend(pass.errors.iter().cloned());
        }
    }
    let reference = &w2.passes[0];
    for run in &runs {
        let label = format!(
            "width {}{}",
            run.threads,
            if run.traced { " traced" } else { "" }
        );
        for (i, pass) in run.passes.iter().enumerate() {
            check(&mut outcome, same_outputs(pass, reference), || {
                format!(
                    "{label} pass {i}: fingerprints {:?} digest {} differ from width-2 pass 0 ({:?}, {})",
                    pass.fingerprints, pass.digest, reference.fingerprints, reference.digest
                )
            });
        }
    }
    if let Some(traced) = &traced {
        let (metrics, ledger) = per_layer(workload, &w2, &w1, traced);
        let wall = traced.passes[0].wall_s;
        let unattributed = metrics
            .iter()
            .find(|m| m.0 == "core.unattributed_s")
            .map_or(0.0, |m| m.1);
        check(&mut outcome, unattributed >= -0.01 * wall, || {
            format!(
                "traced spans cover {:.3} s more than the {wall:.3} s wall",
                -unattributed
            )
        });
        outcome.per_layer = Some(metrics);
        outcome.ledger = Some(ledger);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;
    use crate::workloads::{Detection, Migration, SetupTimes};

    fn fake_run(traced: bool) -> WidthRun {
        let pass = Pass {
            wall_s: 2.0,
            node_samples: 1000,
            steps_ms: vec![1.0; 120],
            fingerprints: vec!["00".into()],
            digest: "11".into(),
            attempted: 120,
            detection: Detection {
                ships: 2,
                detected: 1,
                false_incidents: 0,
                delays_s: vec![40.0],
            },
            migration: Some(Migration::default()),
            stream: Some(StreamStats::default()),
            layers: traced.then(Layers::default),
            ..Pass::default()
        };
        WidthRun {
            threads: 2,
            traced,
            setups: vec![SetupTimes::default()],
            passes: vec![pass],
            peak_rss_mb: 10.0,
            empty_batch_us: traced.then_some(5.0),
        }
    }

    fn names(metrics: &Metrics) -> Vec<String> {
        metrics.iter().map(|m| m.0.to_string()).collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_both_ways() {
        let spec = spec();
        let e2e = names(&end_to_end(&fake_run(false)));
        let declared: Vec<String> = spec.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(e2e, declared, "end_to_end order and names");
        for workload in Workload::ALL {
            let (layer_metrics, _) = per_layer(
                workload,
                &fake_run(false),
                &fake_run(false),
                &fake_run(true),
            );
            let mut emitted = names(&layer_metrics);
            let mut declared: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
            emitted.sort();
            declared.sort();
            assert_eq!(emitted, declared, "per_layer names for {}", workload.name());
        }
    }

    #[test]
    fn workloads_match_benchmark_json_both_ways() {
        let declared = spec().workloads;
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(ours, declared);
        for name in &declared {
            assert!(Workload::parse(name).is_some(), "{name} parses");
        }
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let spec = spec();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in spec.workloads.iter().chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        ) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(unit_ok(&m.unit), "bad unit {:?} for {}", m.unit, m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        }
        let setup = spec.metric("setup_s").expect("setup_s declared");
        assert_eq!(setup.unit, "s");
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn ledger_rows_sum_to_the_traced_wall() {
        let mut run = fake_run(true);
        let layers = Layers {
            faults_s: 0.1,
            sense_s: 1.2,
            exec_batch_s: 1.0,
            detect_s: 0.3,
            ..Layers::default()
        };
        run.passes[0].layers = Some(layers.clone());
        let ledger = Ledger::new(Workload::GridDense, &run.passes[0], &layers);
        let sum: f64 = ledger.rows.iter().map(|r| r.1).sum();
        assert!((sum - run.passes[0].wall_s).abs() < 1e-12);
        assert!((ledger.unattributed_s() - 0.4).abs() < 1e-12);
        let sense = ledger
            .rows
            .iter()
            .find(|r| r.0 == "ocean.sense")
            .expect("row");
        assert!(
            (sense.1 - 0.2).abs() < 1e-12,
            "exec time leaves Phase A self time"
        );
    }
}
