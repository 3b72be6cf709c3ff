//! Performance benchmark: measures the hot paths the execution engine and
//! block wave synthesis optimise, and writes `results/BENCH_perf.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin perf_bench [-- --quick] [-- --threads N]
//! ```
//!
//! Two sections:
//!
//! * **wave synthesis** — per-sample `SeaState::acceleration` vs. the
//!   phase-recurrence `acceleration_block`, in samples/sec (per spectral
//!   component, the pointwise path does one `sincos` per sample and the
//!   block path one complex rotation per step);
//! * **figure jobs** — wall time of representative figure/table jobs at
//!   the configured thread count.
//!
//! End-to-end pipeline throughput is measured by `e2e_bench`
//! (`grid_dense` and the other workloads in `BENCHMARK.json`).
//!
//! All numbers are measured on this machine at the reported thread count —
//! nothing is extrapolated.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::{harbor_sea, northbound_scene, write_json};
use sid_bench::node_level::fig11;
use sid_bench::tables::table1;
use sid_core::{IntrusionDetectionSystem, SystemConfig};
use sid_ocean::Vec2;

#[derive(Debug, Serialize)]
struct WaveSynthesis {
    samples: usize,
    spectral_components: usize,
    pointwise_samples_per_sec: f64,
    block_samples_per_sec: f64,
    block_speedup: f64,
    max_abs_difference: f64,
}

#[derive(Debug, Serialize)]
struct FigureJob {
    name: &'static str,
    wall_secs: f64,
}

#[derive(Debug, Serialize)]
struct PerfReport {
    threads: usize,
    quick: bool,
    wave_synthesis: WaveSynthesis,
    figure_jobs: Vec<FigureJob>,
}

fn bench_wave_synthesis(quick: bool) -> WaveSynthesis {
    let sea = harbor_sea(42);
    let position = Vec2::new(12.0, 30.0);
    let dt = 1.0 / 50.0;
    let n = if quick { 50_000 } else { 200_000 };

    let t = Instant::now();
    let pointwise: Vec<[f64; 3]> = (0..n)
        .map(|i| sea.acceleration(position, i as f64 * dt))
        .collect();
    let pointwise_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let block = sea.acceleration_block(position, 0.0, dt, n);
    let block_secs = t.elapsed().as_secs_f64();

    let max_abs_difference = pointwise
        .iter()
        .zip(&block)
        .flat_map(|(a, b)| (0..3).map(move |k| (a[k] - b[k]).abs()))
        .fold(0.0f64, f64::max);

    WaveSynthesis {
        samples: n,
        spectral_components: 96,
        pointwise_samples_per_sec: n as f64 / pointwise_secs.max(1e-12),
        block_samples_per_sec: n as f64 / block_secs.max(1e-12),
        block_speedup: pointwise_secs / block_secs.max(1e-12),
        max_abs_difference,
    }
}

fn bench_figure_jobs(quick: bool) -> Vec<FigureJob> {
    let fig11_trials = if quick { 4 } else { 20 };
    let table1_trials = if quick { 1 } else { 2 };
    let mut jobs = Vec::new();

    let t = Instant::now();
    let f11 = fig11(fig11_trials, 77);
    assert!(!f11.cells.is_empty());
    jobs.push(FigureJob {
        name: "fig11",
        wall_secs: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let t1 = table1(table1_trials, 1009);
    assert!(!t1.cells.is_empty());
    jobs.push(FigureJob {
        name: "table1",
        wall_secs: t.elapsed().as_secs_f64(),
    });
    jobs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let threads = sid_exec::global().threads();
    println!("=== perf_bench: {threads} worker threads{} ===", if quick { " (quick)" } else { "" });

    let wave_synthesis = bench_wave_synthesis(quick);
    println!(
        "wave synthesis: pointwise {:.0} samples/s, block {:.0} samples/s ({:.1}x), max |Δ| {:.2e}",
        wave_synthesis.pointwise_samples_per_sec,
        wave_synthesis.block_samples_per_sec,
        wave_synthesis.block_speedup,
        wave_synthesis.max_abs_difference
    );

    let env_obs = sid_obs::Obs::from_env();
    sid_exec::global().set_obs(env_obs.clone());

    let figure_jobs = bench_figure_jobs(quick);
    for job in &figure_jobs {
        println!("figure job {}: {:.2} s wall", job.name, job.wall_secs);
    }

    let report = PerfReport {
        threads,
        quick,
        wave_synthesis,
        figure_jobs,
    };
    write_json("BENCH_perf", &report);

    // Stage-count summary from a short, always-observed run: the timed
    // sections above stay uninstrumented, so this extra pass is what
    // feeds results/OBS_summary.json. Its journal events go to the
    // env-selected recorder (no-op unless SID_OBS is set), while the
    // counts come from a private in-memory recorder either way.
    let observed = sid_obs::Obs::in_memory();
    observed.record(sid_obs::Event::RunMarker {
        label: "perf_bench observed pass".to_string(),
    });
    let mut sys = IntrusionDetectionSystem::new(
        northbound_scene(7, 37.0, 10.0, -300.0),
        SystemConfig::paper_default(5, 5),
        7 ^ 0x5EA,
    )
    .with_obs(observed.clone());
    sys.run_events(30.0);
    if env_obs.enabled() {
        env_obs.replay(&observed.events().expect("in-memory recorder"));
    }
    env_obs.flush();
    let summary = sid_obs::RunSummary::new("perf_bench", threads, observed.counts(), &env_obs);
    write_json("OBS_summary", &summary);
}
