//! Streaming-engine benchmark: measures the sustained throughput of the
//! `sid-stream` online-detection layer and writes `results/BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin stream_bench [-- --quick] [-- --threads N] [-- --check]
//! ```
//!
//! With `--check` the binary becomes a perf regression gate: it loads
//! the committed `results/BENCH_stream.json` *before* measuring, re-runs
//! only the engine section, and exits non-zero when sustained throughput
//! fell more than 20% below the committed `engine.samples_per_sec`.
//! Nothing is written in check mode, so a regressed run can never
//! overwrite the baseline it was judged against.
//!
//! Two sections:
//!
//! * **engine** — raw [`StreamEngine`] throughput: pre-synthesized ocean
//!   samples are pushed in bounded chunks through the per-node ring
//!   buffers and pumped through the incremental detectors plus the
//!   batched STFT classifier, in samples/sec across all nodes;
//! * **driver** — end-to-end [`sid_stream::PipelineStream`] vs. the offline tick
//!   loop on the same scenario: wall time of both drivers, the streamed
//!   slowdown/speedup ratio, and the driver's peak resident window
//!   memory (the by-construction bound is `nodes × capacity_ticks`
//!   environment samples).
//!
//! All numbers are measured on this machine at the reported thread count —
//! nothing is extrapolated.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::{harbor_sea, northbound_scene, write_json};
use sid_bench::gate::{self, GateError};
use sid_core::{IntrusionDetectionSystem, SystemConfig};
use sid_ocean::Vec2;
use sid_stream::{StreamConfig, StreamDriverConfig, StreamEngine, StreamExt};

#[derive(Debug, Serialize)]
struct EngineThroughput {
    nodes: usize,
    samples_per_node: usize,
    chunk_len: usize,
    ring_capacity: usize,
    total_samples: u64,
    outputs: usize,
    wall_secs: f64,
    samples_per_sec: f64,
    peak_resident_samples: usize,
    peak_resident_bytes: usize,
}

#[derive(Debug, Serialize)]
struct DriverComparison {
    grid: String,
    sim_seconds: f64,
    chunk_ticks: usize,
    capacity_ticks: usize,
    offline_wall_secs: f64,
    streamed_wall_secs: f64,
    streamed_over_offline: f64,
    node_samples: u64,
    streamed_node_samples_per_sec: f64,
    peak_resident_samples: usize,
    peak_resident_bytes: usize,
    journals_identical: bool,
}

#[derive(Debug, Serialize)]
struct StreamReport {
    threads: usize,
    quick: bool,
    engine: EngineThroughput,
    driver: DriverComparison,
}

/// Pushes pre-synthesized vertical-acceleration records through a raw
/// [`StreamEngine`] in fixed-size chunks, honouring ring backpressure,
/// and reports the sustained all-node sample rate.
fn bench_engine(quick: bool) -> EngineThroughput {
    let nodes = 16usize;
    let samples_per_node = if quick { 25_000 } else { 100_000 };
    let chunk_len = 512usize;
    let config = StreamConfig::paper_default();
    let ring_capacity = config.ring_capacity;
    let dt = 1.0 / config.classifier.stft.sample_rate;

    // Synthesize outside the timed region: the engine is what is being
    // measured, not the wave model.
    let sea = harbor_sea(1117);
    let signals: Vec<Vec<f64>> = (0..nodes)
        .map(|i| {
            let position = Vec2::new(25.0 * (i % 4) as f64, 25.0 * (i / 4) as f64);
            sea.acceleration_block(position, 0.0, dt, samples_per_node)
                .iter()
                .map(|a| a[2])
                .collect()
        })
        .collect();

    let pool = sid_exec::global();
    let mut engine = StreamEngine::new(config, nodes).expect("paper-default engine");
    let mut cursors = vec![0usize; nodes];
    let mut outputs = 0usize;

    let t = Instant::now();
    loop {
        let mut pushed = false;
        for (node, signal) in signals.iter().enumerate() {
            let cursor = cursors[node];
            if cursor >= signal.len() {
                continue;
            }
            let end = (cursor + chunk_len).min(signal.len());
            let accepted = engine.push_chunk(node, &signal[cursor..end]);
            cursors[node] += accepted;
            pushed |= accepted > 0;
        }
        outputs += engine.pump(&pool).len();
        if !pushed && cursors.iter().zip(&signals).all(|(&c, s)| c >= s.len()) {
            break;
        }
    }
    let wall_secs = t.elapsed().as_secs_f64();

    let total_samples = (nodes * samples_per_node) as u64;
    EngineThroughput {
        nodes,
        samples_per_node,
        chunk_len,
        ring_capacity,
        total_samples,
        outputs,
        wall_secs,
        samples_per_sec: total_samples as f64 / wall_secs.max(1e-12),
        peak_resident_samples: engine.peak_resident_samples(),
        peak_resident_bytes: engine.peak_resident_samples() * std::mem::size_of::<f64>(),
    }
}

/// Runs the same 5×5 scenario through the offline tick loop and through
/// [`sid_stream::PipelineStream`], checking the byte-identical-journal guarantee on
/// the side.
fn bench_driver(quick: bool) -> DriverComparison {
    let sim_seconds = if quick { 30.0 } else { 120.0 };
    let config = StreamDriverConfig::default();
    let build = || {
        IntrusionDetectionSystem::new(
            northbound_scene(7, 37.0, 10.0, -300.0),
            SystemConfig::paper_default(5, 5),
            7 ^ 0x5EA,
        )
    };

    let offline_obs = sid_obs::Obs::in_memory();
    let mut offline = build().with_obs(offline_obs.clone());
    let t = Instant::now();
    offline.run(sim_seconds);
    let offline_wall_secs = t.elapsed().as_secs_f64();

    let streamed_obs = sid_obs::Obs::in_memory();
    let mut stream = build().with_obs(streamed_obs.clone()).stream_with(config);
    let t = Instant::now();
    stream.run(sim_seconds);
    let streamed_wall_secs = t.elapsed().as_secs_f64();

    let journal = |obs: &sid_obs::Obs| {
        sid_obs::render_journal(&obs.events().expect("in-memory recorder"))
    };
    let journals_identical = journal(&offline_obs) == journal(&streamed_obs);

    let node_samples = (25.0 * sim_seconds * 50.0) as u64;
    DriverComparison {
        grid: "5x5".to_string(),
        sim_seconds,
        chunk_ticks: config.chunk_ticks,
        capacity_ticks: config.capacity_ticks,
        offline_wall_secs,
        streamed_wall_secs,
        streamed_over_offline: streamed_wall_secs / offline_wall_secs.max(1e-12),
        node_samples,
        streamed_node_samples_per_sec: node_samples as f64 / streamed_wall_secs.max(1e-12),
        peak_resident_samples: stream.peak_resident_samples(),
        peak_resident_bytes: stream.peak_resident_bytes(),
        journals_identical,
    }
}

/// Fraction of the committed throughput the gate still accepts.
const CHECK_FLOOR: f64 = 0.8;

/// The `--check` regression gate: read the committed
/// `engine.samples_per_sec` *before* measuring, re-measure the engine
/// section and fail if throughput dropped more than 20% below it.
/// Writes no JSON.
fn run_check(quick: bool, threads: usize) -> Result<Option<String>, GateError> {
    let committed =
        gate::committed_f64("results/BENCH_stream.json", &["engine", "samples_per_sec"])?;
    let engine = bench_engine(quick);
    let floor = CHECK_FLOOR * committed;
    println!(
        "engine gate: measured {:.0} samples/s at {threads} threads \
         (committed {committed:.0}, floor {floor:.0})",
        engine.samples_per_sec
    );
    if engine.samples_per_sec < floor {
        return Err(GateError::Failed(format!(
            "engine throughput regressed more than {:.0}% below the committed baseline",
            100.0 * (1.0 - CHECK_FLOOR)
        )));
    }
    Ok(None)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let threads = sid_exec::global().threads();
    if args.iter().any(|a| a == "--check") {
        gate::exit("stream_bench", run_check(quick, threads));
    }
    println!(
        "=== stream_bench: {threads} worker threads{} ===",
        if quick { " (quick)" } else { "" }
    );

    let engine = bench_engine(quick);
    println!(
        "engine: {} nodes x {} samples in {:.2} s wall — {:.0} samples/s, {} outputs, peak resident {} samples ({} KiB)",
        engine.nodes,
        engine.samples_per_node,
        engine.wall_secs,
        engine.samples_per_sec,
        engine.outputs,
        engine.peak_resident_samples,
        engine.peak_resident_bytes / 1024
    );

    let driver = bench_driver(quick);
    assert!(
        driver.journals_identical,
        "streamed and offline journals diverged — the equivalence guarantee is broken"
    );
    println!(
        "driver: {} s of {} sim — offline {:.2} s, streamed {:.2} s ({:.2}x), {:.0} node-samples/s, peak resident {} samples ({} KiB)",
        driver.sim_seconds,
        driver.grid,
        driver.offline_wall_secs,
        driver.streamed_wall_secs,
        driver.streamed_over_offline,
        driver.streamed_node_samples_per_sec,
        driver.peak_resident_samples,
        driver.peak_resident_bytes / 1024
    );

    let report = StreamReport {
        threads,
        quick,
        engine,
        driver,
    };
    write_json("BENCH_stream", &report);
}
