# Developer entry points. `just` alone lists the recipes.

default:
    @just --list

# Tier-1 gate: everything CI requires before merge.
tier1: build test lint docs e2e-test obs-smoke dst-smoke alert-smoke dsp-smoke stream-gate sched-smoke fleet-smoke serve-smoke

# Release build of the whole workspace, including every bench and bin
# target (keeps the experiment harness compiling, not just the libraries).
build:
    cargo build --release --workspace --all-targets

# Full test suite (unit, integration, property, doc).
test:
    cargo test --workspace -q

# Lints are part of the tier-1 bar: warnings are errors.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# e2e_bench is a standalone package outside the workspace, so `test` and
# `lint` skip it: run its unit tests and clippy here. Part of tier1.
e2e-test:
    cargo test --offline -q --manifest-path e2e_bench/Cargo.toml
    cargo clippy --offline --manifest-path e2e_bench/Cargo.toml --all-targets -- -D warnings

# Executable-docs gate: rustdoc builds warning-free for every workspace
# crate and every doctest passes. Part of tier1.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo test --workspace -q --doc

# ~30 s fault-injection smoke: the quick chaos grid must complete with
# zero panics (see DESIGN.md §8).
chaos-smoke:
    cargo run --release -p sid-bench --bin chaos_sweep -- --quick

# Observability smoke (see DESIGN.md §10): a short observed chaos run
# must produce a parseable JSONL journal whose stage counts are non-zero
# and agree with results/OBS_summary.json.
obs-smoke:
    SID_OBS=jsonl cargo run --release -p sid-bench --bin chaos_sweep -- --quick
    cargo run --release -p sid-bench --bin obs_check

# Deterministic simulation-testing smoke (see DESIGN.md §11): 200 seeds
# through the sid-dst scenario generator, all invariant oracles, zero
# violations expected. Failing seeds are shrunk and persisted to
# results/DST_failures.json; replay one with
# `cargo run --release -p sid-bench --bin dst -- --seed <n>`.
dst-smoke:
    cargo run --release -p sid-bench --bin dst -- --seeds 200 --seed-start 1000

# Alerting-edge smoke (see DESIGN.md §13): the fixture alert storm must
# ignite (suppressions + coalesced summaries + one rejected and one
# applied hot reload), pass the alert-suppression oracle, and produce a
# byte-identical journal at 1/2/4/8 threads. Writes
# results/BENCH_alert.json; the binary exits non-zero on any violation.
alert-smoke:
    cargo run --release -p sid-bench --bin alert_storm -- --quick

# The full chaos sweep: degradation curves to results/chaos_sweep.json.
chaos-sweep:
    cargo run --release -p sid-bench --bin chaos_sweep

# Regenerate every paper table/figure.
repro:
    cargo run --release -p sid-bench --bin repro_all

# Performance benchmark: writes results/BENCH_perf.json (see DESIGN.md §9).
bench-perf:
    cargo run --release -p sid-bench --bin perf_bench

# Streaming-engine benchmark: writes results/BENCH_stream.json and
# asserts streamed/offline journal equality (see DESIGN.md §12).
bench-stream:
    cargo run --release -p sid-bench --bin stream_bench

# Spectral front-end micro-benchmark: rfft vs complex FFT, sliding vs
# batch STFT, Goertzel vs FFT band power, fast vs legacy classification.
# Writes results/BENCH_dsp.json (see DESIGN.md §14).
bench-dsp:
    cargo run --release -p sid-bench --bin dsp_bench

# Quick spectral front-end smoke: the kernel agreement assertions
# (Goertzel vs FFT band, fast vs legacy verdict) must hold. Part of
# tier1; the timing numbers it prints are incidental at this length.
dsp-smoke:
    cargo run --release -p sid-bench --bin dsp_bench -- --quick

# Streaming-throughput regression gate: re-measure the engine section
# and fail if sustained samples/sec fell more than 20% below the
# committed results/BENCH_stream.json baseline. Reads the baseline
# before measuring and writes nothing. Part of tier1.
stream-gate:
    cargo run --release -p sid-bench --bin stream_bench -- --quick --check --threads 1

# Event-driven scheduler smoke (see DESIGN.md §15): a DST slice off the
# dst-smoke range that includes the Variant::Events seeds (seed % 4 == 2
# re-runs every scenario through run_events, and variant_equivalence
# requires byte-identical journals), then the sched_bench gate —
# equivalence on the idle-heavy field plus at least a 5x wall-clock win
# over the fixed-tick sweep. Part of tier1.
sched-smoke:
    cargo run --release -p sid-bench --bin dst -- --seeds 40 --seed-start 2000 --no-write
    cargo run --release -p sid-bench --bin sched_bench -- --quick --check --threads 1

# Scheduler benchmark: full 128x128 idle-heavy comparison of the tick
# sweep vs the event-driven driver; writes results/BENCH_sched.json.
bench-sched:
    cargo run --release -p sid-bench --bin sched_bench

# Fleet-scale smoke (see DESIGN.md §16): the fleet_bench gate — neighbor
# tables identical across brute-force vs spatial-hash index, journal
# fingerprints identical across 1/2/4/8 threads, index choice and
# tick-vs-event driver, and a ≥1000-node fleet simulated faster than
# real time against the committed results/BENCH_fleet.json baseline
# (read before measuring; nothing written) — then a 20-seed fleet-class
# DST slice (free-form coastlines of 200–2000 duty-cycled nodes, every
# seed carrying Variant::Events: re-run through run_events and checked
# by the variant_equivalence oracle).
# Part of tier1.
fleet-smoke:
    cargo run --release -p sid-bench --bin fleet_bench -- --check --threads 1
    cargo run --release -p sid-bench --bin dst -- --fleet --seeds 20 --seed-start 3000 --no-write

# Fleet benchmark: the full 2048-node coastline across thread counts and
# index implementations; writes results/BENCH_fleet.json.
bench-fleet:
    cargo run --release -p sid-bench --bin fleet_bench

# Multi-tenant service smoke (see DESIGN.md §17): the serve_bench gate —
# ≥8 tenant sessions multiplexed on one pool with per-tenant journal
# fingerprints identical at 1/2/4/8 threads, a mid-run checkpoint →
# migrate (different pool width and shard count) → resume landing on the
# same bytes, and aggregate faster-than-real-time throughput against the
# committed results/BENCH_serve.json baseline (read before measuring;
# nothing written) — then a 24-seed DST slice covering the sharded
# population (seed % 8 == 5 carries the Variant::Sharded reruns at
# K ∈ {2, 4} shards across pool widths plus the two sid-serve legs, all
# checked by variant_equivalence).
# Part of tier1.
serve-smoke:
    cargo run --release -p sid-bench --bin serve_bench -- --check --threads 1
    cargo run --release -p sid-bench --bin dst -- --seeds 24 --seed-start 4000 --no-write

# Multi-tenant service benchmark: the full 12-tenant population across
# thread counts plus the migration leg; writes results/BENCH_serve.json.
bench-serve:
    cargo run --release -p sid-bench --bin serve_bench
