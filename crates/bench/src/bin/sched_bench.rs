//! Scheduler benchmark: the fixed-tick sweep vs. the event loop on an
//! idle-heavy surveillance field, written to `results/BENCH_sched.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin sched_bench [-- --quick] [-- --threads N] [-- --check]
//! ```
//!
//! The scenario is the event loop's home turf: a large duty-cycled grid
//! where only a sparse sentinel lattice stays awake and the one intruder
//! is still hours away. The tick sweep spends every tick visiting all N
//! nodes (charging sleepers, re-checking batteries and duty leases); the
//! event loop visits only the sampling set and the nodes that changed,
//! and keeps resting nodes' revisits in a heap. Both runs must produce
//! byte-identical journals, traces, clocks and total-energy bits — the
//! speedup is an optimization, never a semantic change (the
//! `variant_equivalence` DST oracle enforces the same contract across
//! random scenarios).
//!
//! With `--check` the binary becomes a perf gate: it measures the quick
//! configuration, asserts the runs match and exits non-zero unless the
//! event loop beats the tick sweep by at least [`CHECK_FLOOR`]×.
//! Nothing is written in check mode.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sid_bench::common::write_json;
use sid_bench::gate::{self, GateError};
use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

/// Minimum event-loop speedup the `--check` gate accepts.
const CHECK_FLOOR: f64 = 5.0;

/// Grid stride between sentinels: larger than either grid side, so a
/// single coarse-detection watchman (node 0, the sink's own sensor)
/// keeps the whole field — the extreme of the sparse-surveillance
/// regime the event scheduler targets, where per-tick work is
/// proportional to the awake handful, not the fleet.
const SENTINEL_STRIDE: usize = 1024;

#[derive(Debug, Serialize)]
struct SchedReport {
    threads: usize,
    quick: bool,
    grid: String,
    nodes: usize,
    sentinel_stride: usize,
    sim_seconds: f64,
    ticks: u64,
    tick_wall_secs: f64,
    event_wall_secs: f64,
    speedup: f64,
    journals_identical: bool,
    tick_energy_mj: f64,
    event_energy_mj: f64,
}

/// The idle-heavy scenario: a duty-cycled `side`×`side` grid over a calm
/// sea with a sparse sentinel lattice (one node in ~stride² awake) and a
/// single northbound intruder far enough south that it never reaches the
/// field inside the run — the steady state the paper's surveillance
/// deployment spends almost all of its life in.
fn build(side: usize) -> IntrusionDetectionSystem {
    let mut rng = StdRng::seed_from_u64(0x5C_4ED);
    let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 16, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    scene.add_ship(Ship::new(
        Vec2::new(12.5 * side as f64, -20_000.0),
        Angle::from_degrees(90.0),
        Knots::new(10.0),
    ));
    let config = SystemConfig {
        duty_cycle: DutyCycleConfig {
            enabled: true,
            sentinel_stride: SENTINEL_STRIDE,
            ..DutyCycleConfig::default()
        },
        ..SystemConfig::paper_default(side, side)
    };
    IntrusionDetectionSystem::new(scene, config, 0x5C_4ED)
}

fn measure(quick: bool, threads: usize) -> SchedReport {
    let side = if quick { 96 } else { 128 };
    let sim_seconds = if quick { 120.0 } else { 300.0 };

    let tick_obs = sid_obs::Obs::in_memory();
    let mut tick_sys = build(side).with_obs(tick_obs.clone());
    let t = Instant::now();
    tick_sys.run(sim_seconds);
    let tick_wall_secs = t.elapsed().as_secs_f64();

    let event_obs = sid_obs::Obs::in_memory();
    let mut event_sys = build(side).with_obs(event_obs.clone());
    let t = Instant::now();
    event_sys.run_events(sim_seconds);
    let event_wall_secs = t.elapsed().as_secs_f64();

    let journal = |obs: &sid_obs::Obs| {
        sid_obs::render_journal(&obs.events().expect("in-memory recorder"))
    };
    let journals_identical = journal(&tick_obs) == journal(&event_obs)
        && tick_obs.counts() == event_obs.counts()
        && tick_sys.trace() == event_sys.trace()
        && tick_sys.now().to_bits() == event_sys.now().to_bits()
        && tick_sys.total_energy_mj().to_bits() == event_sys.total_energy_mj().to_bits();

    SchedReport {
        threads,
        quick,
        grid: format!("{side}x{side}"),
        nodes: side * side,
        sentinel_stride: SENTINEL_STRIDE,
        sim_seconds,
        ticks: sid_core::pipeline::ticks_in(sim_seconds, 1.0 / 50.0),
        tick_wall_secs,
        event_wall_secs,
        speedup: tick_wall_secs / event_wall_secs.max(1e-12),
        journals_identical,
        tick_energy_mj: tick_sys.total_energy_mj(),
        event_energy_mj: event_sys.total_energy_mj(),
    }
}

fn print_report(r: &SchedReport) {
    println!(
        "sched: {} ({} nodes, stride {}) x {} s sim ({} ticks) — tick sweep {:.2} s, \
         event loop {:.2} s ({:.1}x), journals identical: {}",
        r.grid,
        r.nodes,
        r.sentinel_stride,
        r.sim_seconds,
        r.ticks,
        r.tick_wall_secs,
        r.event_wall_secs,
        r.speedup,
        r.journals_identical
    );
}

/// The `--check` gate: quick measurement, hard equivalence check, fail
/// under a [`CHECK_FLOOR`]× speedup. Writes no JSON.
fn run_check(threads: usize) -> Result<Option<String>, GateError> {
    let report = measure(true, threads);
    print_report(&report);
    if !report.journals_identical {
        return Err(GateError::Failed(
            "event-driven run diverged from the tick sweep".to_string(),
        ));
    }
    if report.speedup < CHECK_FLOOR {
        return Err(GateError::Failed(format!(
            "event loop only {:.1}x faster (floor {CHECK_FLOOR}x)",
            report.speedup
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
        gate::exit("sched_bench --check", run_check(threads));
    }
    println!(
        "=== sched_bench: {threads} worker threads{} ===",
        if quick { " (quick)" } else { "" }
    );
    let report = measure(quick, threads);
    print_report(&report);
    assert!(
        report.journals_identical,
        "event-driven and tick-sweep runs diverged — the equivalence guarantee is broken"
    );
    write_json("BENCH_sched", &report);
}
