# Developer entry points. `just` alone lists the recipes.

default:
    @just --list

# Tier-1 gate: everything CI requires before merge.
tier1: build test lint docs e2e-test obs-smoke dst-smoke alert-smoke dsp-smoke sched-smoke e2e-gate

# Release build of the whole workspace, including every bin, example and
# test target (keeps the experiment harness compiling, not just the
# libraries).
build:
    cargo build --release --workspace --all-targets

# Full test suite (unit, integration, property, doc).
test:
    cargo test --workspace -q

# Lints are part of the tier-1 bar: warnings are errors.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# e2e_bench is a standalone package outside the workspace, so `test` and
# `lint` skip it: run its unit tests and clippy here. `--locked` fails the
# recipe when a dependency change would rewrite e2e_bench/Cargo.lock,
# instead of silently editing the benchmark. Part of tier1.
e2e-test:
    cargo test --offline --locked -q --manifest-path e2e_bench/Cargo.toml
    cargo clippy --offline --locked --manifest-path e2e_bench/Cargo.toml --all-targets -- -D warnings

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

# Deterministic simulation-testing smoke (see DESIGN.md §11): four
# seed slices through the sid-dst scenario generator, all invariant
# oracles, zero violations expected. Each slice also pins its population
# fingerprint with --expect-fingerprint, so a run whose journals drift
# fails even with zero violations; a deliberate re-baseline changes the
# pinned values here.
# - 200 seeds from 1000: the general population. Failing seeds are shrunk
#   and persisted to results/DST_failures.json; replay one with
#   `cargo run --release -p sid-bench --bin dst -- --seed <n>`.
# - 40 seeds from 2000: includes the Variant::Events seeds (seed % 4 == 2
#   re-runs every scenario through run_events; variant_equivalence
#   requires byte-identical journals).
# - 20 fleet seeds from 3000: free-form coastlines of 200–2000
#   duty-cycled nodes, every seed re-run through run_events and seeds
#   % 4 == 0 also on an 8-wide pool.
# - 24 seeds from 4000: the sharded population (seed % 8 == 5 carries the
#   Variant::Sharded reruns at K ∈ {2, 4} shards across pool widths plus
#   the two sid-serve legs, one of them a checkpoint → migrate → resume).
dst-smoke:
    cargo run --release -p sid-bench --bin dst -- --seeds 200 --seed-start 1000 --expect-fingerprint ffbaf8a999bd99a4
    cargo run --release -p sid-bench --bin dst -- --seeds 40 --seed-start 2000 --no-write --expect-fingerprint d8fef60b3c32d1e8
    cargo run --release -p sid-bench --bin dst -- --fleet --seeds 20 --seed-start 3000 --no-write --expect-fingerprint 6d6ff1804ddfde87
    cargo run --release -p sid-bench --bin dst -- --seeds 24 --seed-start 4000 --no-write --expect-fingerprint 96c45f0d546f0fb6

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

# Event-driven scheduler gate (see DESIGN.md §15): journal equivalence
# on the idle-heavy field plus at least a 5x wall-clock win of the event
# loop over the fixed-tick sweep. Part of tier1.
sched-smoke:
    cargo run --release -p sid-bench --bin sched_bench -- --quick --check --threads 1

# Scheduler benchmark: full 128x128 idle-heavy comparison of the tick
# sweep vs the event-driven driver; writes results/BENCH_sched.json.
bench-sched:
    cargo run --release -p sid-bench --bin sched_bench

# Tier-1 perf gate over BENCHMARK.json's own workloads (see
# EXPERIMENTS.md): each e2e_bench workload once at seed 1 — one pass at
# pool width 2, one at width 1 — failing on any correctness failure or a
# node_samples_per_s below 0.25x the committed
# e2e_bench/results/baseline-seed1.json (sid_bench::gate::CHECK_FLOOR).
# Reads the baseline before measuring and writes nothing. Part of tier1.
e2e-gate:
    cargo run --release -p sid-bench --bin e2e_gate
