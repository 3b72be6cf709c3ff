//! Streaming-engine benchmark: measures the sustained throughput of the
//! `sid-stream` online-detection layer and writes `results/BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin stream_bench [-- --quick] [-- --threads N] [-- --check]
//! ```
//!
//! It measures raw [`StreamEngine`] throughput: pre-synthesized ocean
//! samples are pushed in bounded chunks through the per-node ring
//! buffers and pumped through the incremental detectors plus the batched
//! STFT classifier, in samples/sec across all nodes. `--quick` shortens
//! the run from 100 k to 25 k samples per node.
//!
//! With `--check` the binary becomes a perf regression gate: it loads
//! the committed `results/BENCH_stream.json` *before* measuring, re-runs
//! the full-length engine section (the one the baseline records,
//! whatever `--quick` says), and exits non-zero when sustained
//! throughput fell below [`CHECK_FLOOR`]× the committed
//! `engine.samples_per_sec`. Nothing is written in check mode, so a
//! regressed run can never overwrite the baseline it was judged against.
//!
//! All numbers are measured on this machine at the reported thread count —
//! nothing is extrapolated.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::{harbor_sea, write_json};
use sid_bench::gate::{self, GateError, CHECK_FLOOR};
use sid_ocean::Vec2;
use sid_stream::{StreamConfig, StreamEngine};

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
struct StreamReport {
    threads: usize,
    quick: bool,
    engine: EngineThroughput,
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

/// The `--check` regression gate: read the committed
/// `engine.samples_per_sec` *before* measuring, re-measure the
/// full-length engine section it was recorded from and fail below
/// [`CHECK_FLOOR`]× of it. Writes no JSON.
fn run_check(threads: usize) -> Result<Option<String>, GateError> {
    let committed =
        gate::committed_f64("results/BENCH_stream.json", &["engine", "samples_per_sec"])?;
    let engine = bench_engine(false);
    let floor = CHECK_FLOOR * committed;
    println!(
        "engine gate: measured {:.0} samples/s at {threads} threads \
         (committed {committed:.0}, floor {floor:.0})",
        engine.samples_per_sec
    );
    if engine.samples_per_sec < floor {
        return Err(GateError::Failed(format!(
            "engine throughput fell below {CHECK_FLOOR}x the committed baseline"
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
        gate::exit("stream_bench", run_check(threads));
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

    let report = StreamReport {
        threads,
        quick,
        engine,
    };
    write_json("BENCH_stream", &report);
}
