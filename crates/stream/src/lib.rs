//! # sid-stream
//!
//! Push-based **online** execution for the SID reproduction — the
//! inference-serving shape of the codebase: bounded memory,
//! backpressure, incremental state, batched execution.
//!
//! The paper's detector is inherently streaming: buoys push 50 Hz
//! z-axis samples and must raise alarms *as the Kelvin wake arrives*
//! (SID §III–IV), not after an offline batch. [`StreamEngine`] is that
//! push path: a standalone detector bank. Per-node sample chunks enter
//! through bounded [`RingBuffer`]s with explicit backpressure; each pump
//! drains them through the incremental node-level detector (EWMA
//! mean/std and adaptive threshold, eq. 4–6; anomaly frequency, eq. 7;
//! crossing energy, eq. 8), assembles hop-advanced STFT windows with one
//! reused scratch buffer, and batch-classifies ready windows across
//! nodes on the `sid-exec` pool. The full detector state snapshots to a
//! serializable [`EngineSnapshot`] and restores bit-identically.
//!
//! The engine ingests samples; it does not simulate the ocean. The
//! simulated system is driven by `sid_core::Pipeline::run_events` (the
//! event loop) or `run` (the reference tick sweep).
//!
//! Benchmark: the `stream_ingest` workload of `e2e_bench` (see
//! `e2e_bench/README.md`) measures sustained samples/sec and peak
//! resident window memory end to end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod ring;

pub use engine::{EngineSnapshot, StreamConfig, StreamEngine, StreamOutput};
pub use ring::RingBuffer;
