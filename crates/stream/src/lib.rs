//! # sid-stream
//!
//! Push-based **online** execution for the SID reproduction — the
//! inference-serving shape of the codebase: bounded memory,
//! backpressure, incremental state, batched execution.
//!
//! The paper's detector is inherently streaming: buoys push 50 Hz
//! z-axis samples and must raise alarms *as the Kelvin wake arrives*
//! (SID §III–IV), not after an offline batch. This crate provides that
//! execution style twice over:
//!
//! * [`StreamEngine`] — the standalone detector bank. Per-node sample
//!   chunks enter through bounded [`RingBuffer`]s with explicit
//!   backpressure; each pump drains them through the incremental
//!   node-level detector (EWMA mean/std and adaptive threshold,
//!   eq. 4–6; anomaly frequency, eq. 7; crossing energy, eq. 8),
//!   assembles hop-advanced STFT windows with one reused scratch
//!   buffer, and batch-classifies ready windows across nodes on the
//!   `sid-exec` pool. The full detector state snapshots to a
//!   serializable [`EngineSnapshot`] and restores bit-identically.
//! * [`StreamExt::stream`] / [`PipelineStream`] — the streaming driver
//!   for the whole simulated system: it drives
//!   [`sid_core::Pipeline`] through its `begin_tick`/`finish_tick`
//!   seam from bounded per-node rings refilled in pool-synthesized
//!   chunks, and is **journal-byte-identical** to the offline
//!   [`Pipeline::run`](sid_core::Pipeline::run) at every chunk size
//!   and thread count (the `sid-dst` harness enforces this on every
//!   seed carrying a `Variant::Streamed` rerun).
//!
//! Benchmarks: `cargo run --release -p sid-bench --bin stream_bench`
//! reports sustained samples/sec and peak resident window memory to
//! `results/BENCH_stream.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod engine;
pub mod ring;

pub use driver::{PipelineStream, StreamDriverConfig, StreamExt};
pub use engine::{EngineSnapshot, StreamConfig, StreamEngine, StreamOutput};
pub use ring::RingBuffer;
