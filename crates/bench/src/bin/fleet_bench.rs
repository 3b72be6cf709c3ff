//! Fleet benchmark: a thousand-node free-form coastline through the
//! event-driven scheduler, written to `results/BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin fleet_bench [-- --quick] [-- --threads N] [-- --check]
//! ```
//!
//! The deployment is ROADMAP item 2's production shape: ≥1000
//! duty-cycled buoys clustered along a coastline strip, a sparse
//! index-stride sentinel picket awake, one intruder crossing the first
//! cluster mid-run. The benchmark proves three things at once:
//!
//! * **Scale**: the whole fleet simulates faster than real time via
//!   `run_events` (the `real_time_ratio` column is sim-seconds per
//!   wall-second).
//! * **Determinism**: the FNV journal fingerprint is identical at
//!   1/2/4/8 worker threads, across the brute-force vs spatial-hash
//!   neighbor index, and across the event loop vs the fixed-tick sweep.
//! * **Index equivalence**: both neighbor indexes build byte-identical
//!   tables (checked directly, before any simulation runs).
//!
//! With `--check` the binary becomes the tier-1 gate: it measures the
//! quick configuration, asserts every fingerprint matches, and exits
//! non-zero unless the 1-thread event loop beats real time and stays
//! within [`CHECK_FLOOR`]× of the committed
//! `results/BENCH_fleet.json` baseline (read *before* measuring; exit
//! code 2 if unreadable). Nothing is written in check mode.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use sid_bench::common::write_json;
use sid_bench::gate::{self, GateError, CHECK_FLOOR};
use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_net::{NeighborIndex, Position, Topology};
use sid_obs::fnv1a;
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

/// Placement clusters along the coastline strip.
const CLUSTERS: usize = 8;

/// Scatter radius around each cluster centre (m).
const CLUSTER_RADIUS: f64 = 90.0;

#[derive(Debug, Serialize)]
struct EventRun {
    threads: usize,
    wall_secs: f64,
    real_time_ratio: f64,
    fingerprint: String,
}

#[derive(Debug, Serialize)]
struct FleetReport {
    quick: bool,
    nodes: usize,
    clusters: usize,
    sentinel_count: usize,
    sim_seconds: f64,
    brute_index_build_secs: f64,
    hash_index_build_secs: f64,
    index_tables_identical: bool,
    event_runs: Vec<EventRun>,
    brute_force_fingerprint: String,
    tick_sweep_wall_secs: f64,
    tick_sweep_fingerprint: String,
    fingerprints_identical: bool,
    real_time_ratio: f64,
}

/// The fleet layout: [`CLUSTERS`] centres strung eastward along a
/// coastline strip, `nodes` buoys scattered round-robin about them,
/// node 0 (the sink) pinned to the first centre. Deterministic — same
/// layout every invocation. Returns `(centres, positions)`.
fn fleet_layout(nodes: usize) -> (Vec<(f64, f64)>, Vec<Position>) {
    let mut rng = StdRng::seed_from_u64(0xF1EE_7BE4C);
    let centres: Vec<(f64, f64)> = (0..CLUSTERS)
        .map(|k| {
            (
                k as f64 * 180.0 + rng.gen_range(-40.0..40.0),
                rng.gen_range(0.0..260.0),
            )
        })
        .collect();
    let positions = (0..nodes)
        .map(|i| {
            let (cx, cy) = centres[i % CLUSTERS];
            let dx = rng.gen_range(-1.0..1.0) * CLUSTER_RADIUS;
            let dy = rng.gen_range(-1.0..1.0) * CLUSTER_RADIUS;
            if i == 0 {
                Position { x: centres[0].0, y: centres[0].1 }
            } else {
                Position { x: cx + dx, y: cy + dy }
            }
        })
        .collect();
    (centres, positions)
}

/// Builds the ready-to-run fleet over an explicitly-chosen neighbor
/// index. An intruder sails due north straight over the sink (a
/// permanently-awake sentinel at the first cluster centre) and a
/// moderate fault campaign runs throughout, so the journals the
/// determinism gate compares carry real detection and fault traffic —
/// an empty journal would make the fingerprint identity vacuous.
fn build(nodes: usize, index: NeighborIndex, sim_seconds: f64) -> IntrusionDetectionSystem {
    let (centres, positions) = fleet_layout(nodes);
    let mut rng = StdRng::seed_from_u64(0xF1EE_75EA);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 24, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    scene.add_ship(Ship::new(
        Vec2::new(centres[0].0, -80.0),
        Angle::from_degrees(90.0),
        Knots::new(12.0),
    ));
    let mut config = SystemConfig {
        duty_cycle: DutyCycleConfig {
            enabled: true,
            wake_duration: 60.0,
            ..DutyCycleConfig::default()
        },
        ..SystemConfig::paper_default(4, 4)
    };
    config.faults = sid_net::FaultPlanConfig {
        spare: Some(0),
        ..sid_net::FaultPlanConfig::chaos(0.3, sim_seconds)
    };
    let topology = Topology::from_positions_with(positions, config.radio_range, index);
    IntrusionDetectionSystem::with_topology(scene, config, 0xF1EE_75EA, topology)
        .with_sentinel_index_stride(nodes / 16)
}

/// Runs the fleet and returns `(wall seconds, journal fingerprint)`.
fn run_fleet(
    nodes: usize,
    index: NeighborIndex,
    threads: usize,
    sim_seconds: f64,
    events: bool,
) -> (f64, u64) {
    let obs = sid_obs::Obs::in_memory();
    let mut sys = build(nodes, index, sim_seconds)
        .with_obs(obs.clone())
        .with_pool(Arc::new(sid_exec::Pool::new(threads)));
    let t = Instant::now();
    if events {
        sys.run_events(sim_seconds);
    } else {
        sys.run(sim_seconds);
    }
    let wall = t.elapsed().as_secs_f64();
    let journal = sid_obs::render_journal(&obs.events().expect("in-memory recorder"));
    (wall, fnv1a(0, journal.as_bytes()))
}

fn measure(quick: bool) -> FleetReport {
    let nodes = if quick { 1024 } else { 2048 };
    let sim_seconds = if quick { 60.0 } else { 180.0 };

    // Index equivalence first: both constructions, timed, tables
    // compared directly before any simulation depends on them.
    let (_, positions) = fleet_layout(nodes);
    let range = SystemConfig::paper_default(4, 4).radio_range;
    let t = Instant::now();
    let brute =
        Topology::from_positions_with(positions.clone(), range, NeighborIndex::BruteForce);
    let brute_index_build_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let hash = Topology::from_positions_with(positions, range, NeighborIndex::SpatialHash);
    let hash_index_build_secs = t.elapsed().as_secs_f64();
    let index_tables_identical = brute == hash;

    let sentinel_count =
        build(nodes, NeighborIndex::SpatialHash, sim_seconds).sentinel_count();

    let event_runs: Vec<EventRun> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let (wall_secs, fp) =
                run_fleet(nodes, NeighborIndex::SpatialHash, threads, sim_seconds, true);
            EventRun {
                threads,
                wall_secs,
                real_time_ratio: sim_seconds / wall_secs.max(1e-12),
                fingerprint: format!("{fp:016x}"),
            }
        })
        .collect();

    // Cross-index: the event loop over brute-force-built tables must
    // land on the same journal bytes.
    let (_, brute_fp) = run_fleet(nodes, NeighborIndex::BruteForce, 1, sim_seconds, true);
    // Cross-driver: the fixed-tick sweep at fleet scale, same contract.
    let (tick_wall, tick_fp) =
        run_fleet(nodes, NeighborIndex::SpatialHash, 1, sim_seconds, false);

    let reference = &event_runs[0].fingerprint;
    let fingerprints_identical = event_runs.iter().all(|r| &r.fingerprint == reference)
        && format!("{brute_fp:016x}") == *reference
        && format!("{tick_fp:016x}") == *reference;
    let real_time_ratio = event_runs[0].real_time_ratio;

    FleetReport {
        quick,
        nodes,
        clusters: CLUSTERS,
        sentinel_count,
        sim_seconds,
        brute_index_build_secs,
        hash_index_build_secs,
        index_tables_identical,
        event_runs,
        brute_force_fingerprint: format!("{brute_fp:016x}"),
        tick_sweep_wall_secs: tick_wall,
        tick_sweep_fingerprint: format!("{tick_fp:016x}"),
        fingerprints_identical,
        real_time_ratio,
    }
}

fn print_report(r: &FleetReport) {
    println!(
        "fleet: {} nodes in {} clusters ({} sentinels) x {} s sim — index build \
         brute {:.1} ms vs hash {:.1} ms (tables identical: {})",
        r.nodes,
        r.clusters,
        r.sentinel_count,
        r.sim_seconds,
        r.brute_index_build_secs * 1e3,
        r.hash_index_build_secs * 1e3,
        r.index_tables_identical
    );
    for run in &r.event_runs {
        println!(
            "  events @ {} thread{}: {:.2} s wall ({:.0}x real time), fingerprint {}",
            run.threads,
            if run.threads == 1 { " " } else { "s" },
            run.wall_secs,
            run.real_time_ratio,
            run.fingerprint
        );
    }
    println!(
        "  brute-force index fingerprint {}, tick sweep {:.2} s fingerprint {} — \
         all identical: {}",
        r.brute_force_fingerprint,
        r.tick_sweep_wall_secs,
        r.tick_sweep_fingerprint,
        r.fingerprints_identical
    );
}

/// The `--check` gate: quick measurement, hard identity checks, fail
/// unless the fleet beats real time and stays within [`CHECK_FLOOR`]×
/// of the committed baseline (read before measuring). Writes no JSON.
fn run_check() -> Result<Option<String>, GateError> {
    let committed = gate::committed_f64("results/BENCH_fleet.json", &["real_time_ratio"])?;
    let report = measure(true);
    print_report(&report);
    if !report.index_tables_identical {
        return Err(GateError::Failed(
            "neighbor indexes built different tables".to_string(),
        ));
    }
    if !report.fingerprints_identical {
        return Err(GateError::Failed(
            "journal fingerprints diverged across threads/index/driver".to_string(),
        ));
    }
    let floor = (CHECK_FLOOR * committed).max(1.0);
    if report.real_time_ratio < floor {
        return Err(GateError::Failed(format!(
            "{:.0}x real time under the floor {floor:.0}x (committed baseline {committed:.0}x)",
            report.real_time_ratio
        )));
    }
    Ok(Some(format!(
        "{:.0}x real time, floor {floor:.0}x",
        report.real_time_ratio
    )))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--check") {
        gate::exit("fleet_bench", run_check());
    }
    println!(
        "=== fleet_bench{} ===",
        if quick { " (quick)" } else { "" }
    );
    let report = measure(quick);
    print_report(&report);
    assert!(
        report.index_tables_identical && report.fingerprints_identical,
        "fleet determinism broken: identical tables/journals are the contract"
    );
    write_json("BENCH_fleet", &report);
}
