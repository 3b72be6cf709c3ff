//! Chaos sweep: how gracefully does the pipeline degrade under faults?
//!
//! Sweeps scheduled dead-node fraction × Gilbert–Elliott burst-loss
//! severity over the paper's 5×5 deployment. Each cell runs fixed-seed
//! trials of a ship passage (detection ratio) and of a quiet sea (false
//! alarms), and records the fault/failover/degraded-quorum counters, so
//! the output is a set of degradation curves rather than a single number.
//!
//! Usage: `chaos_sweep [trials] [--quick] [--threads N]` — `--quick`
//! shrinks the grid and trial count to a ~30 s smoke run
//! (`just chaos-smoke`); `--threads` sizes the worker pool (default:
//! `SID_THREADS` or the machine's core count). Results are identical at
//! any thread count.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::{northbound_scene, pct, quiet_scene, write_json};
use sid_core::{IntrusionDetectionSystem, SystemConfig};
use sid_net::{FaultPlanConfig, GilbertElliott};
use sid_obs::{Event, Obs, RunSummary, StageCounts};

/// One (dead fraction, burst severity) cell of the sweep.
#[derive(Debug, Clone, Copy, Serialize)]
struct Cell {
    dead_fraction: f64,
    burst_severity: f64,
    /// Share of ship-passage trials whose confirmation reached the sink.
    detection_ratio: f64,
    /// Share of quiet-sea trials that produced a sink detection.
    false_alarm_ratio: f64,
    mean_faults_applied: f64,
    mean_head_failovers: f64,
    mean_degraded_evaluations: f64,
    /// Fraction of all drops the burst channel caused (ship trials).
    burst_drop_share: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ChaosSweep {
    trials: usize,
    duration: f64,
    dead_fractions: Vec<f64>,
    burst_severities: Vec<f64>,
    cells: Vec<Cell>,
}

fn cell_config(dead: f64, severity: f64) -> SystemConfig {
    SystemConfig {
        burst: GilbertElliott::sea_surface(severity),
        faults: FaultPlanConfig {
            death_fraction: dead,
            // The sink is the wired gateway and never dies.
            spare: Some(0),
            ..FaultPlanConfig::default()
        },
        ..SystemConfig::paper_default(5, 5)
    }
}

/// Runs one sweep cell. Every trial records into a cell-private
/// in-memory journal (cells run on worker threads, so they must not
/// touch a shared recorder); the caller replays the returned events into
/// the run-wide journal from the main thread, in grid order, which keeps
/// the merged journal byte-identical at any `--threads` setting.
fn run_cell(
    dead: f64,
    severity: f64,
    trials: usize,
    duration: f64,
    base_seed: u64,
) -> (Cell, Vec<Event>, StageCounts) {
    let cfg = cell_config(dead, severity);
    let obs = Obs::in_memory();
    let mut detected = 0usize;
    let mut false_alarms = 0usize;
    let mut faults = 0usize;
    let mut failovers = 0usize;
    let mut degraded = 0usize;
    let mut burst_dropped = 0u64;
    let mut dropped = 0u64;
    for trial in 0..trials {
        let seed = base_seed + trial as u64;
        // Ship passage: northbound between columns 1 and 2 of the grid.
        obs.record(Event::RunMarker {
            label: format!("chaos dead={dead:.2} sev={severity:.2} trial={trial} ship"),
        });
        let scene = northbound_scene(seed, 37.0, 10.0, -300.0);
        let mut sys = IntrusionDetectionSystem::new(scene, cfg, seed ^ 0x5EA)
            .with_obs(obs.clone());
        sys.run_events(duration);
        if !sys.trace().sink_detections.is_empty() {
            detected += 1;
        }
        faults += sys.trace().faults_applied;
        failovers += sys.trace().head_failovers;
        degraded += sys.trace().degraded_evaluations;
        burst_dropped += sys.net_stats().burst_dropped;
        dropped += sys.net_stats().dropped;
        // Quiet sea with the same fault campaign: false-alarm pressure.
        obs.record(Event::RunMarker {
            label: format!("chaos dead={dead:.2} sev={severity:.2} trial={trial} quiet"),
        });
        let mut calm =
            IntrusionDetectionSystem::new(quiet_scene(seed + 500), cfg, seed ^ 0xCA1)
                .with_obs(obs.clone());
        calm.run_events(duration);
        if !calm.trace().sink_detections.is_empty() {
            false_alarms += 1;
        }
    }
    let n = trials as f64;
    let cell = Cell {
        dead_fraction: dead,
        burst_severity: severity,
        detection_ratio: detected as f64 / n,
        false_alarm_ratio: false_alarms as f64 / n,
        mean_faults_applied: faults as f64 / n,
        mean_head_failovers: failovers as f64 / n,
        mean_degraded_evaluations: degraded as f64 / n,
        burst_drop_share: if dropped > 0 {
            burst_dropped as f64 / dropped as f64
        } else {
            0.0
        },
    };
    let events = obs.events().expect("in-memory recorder keeps events");
    (cell, events, obs.counts())
}

fn print_grid(sweep: &ChaosSweep, value: impl Fn(&Cell) -> f64) {
    print!("{:>10}", "dead\\sev");
    for s in &sweep.burst_severities {
        print!("{:>9}", format!("{s:.2}"));
    }
    println!();
    for &d in &sweep.dead_fractions {
        print!("{:>10}", format!("{:.0}%", d * 100.0));
        for &s in &sweep.burst_severities {
            let cell = sweep
                .cells
                .iter()
                .find(|c| (c.dead_fraction - d).abs() < 1e-9 && (c.burst_severity - s).abs() < 1e-9)
                .expect("cell");
            print!("{:>9}", pct(value(cell)));
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "--quick");
    // The trial count is the first free-standing number: skip the value
    // of `--threads N`, which would otherwise be misread as trials and
    // make the run depend on the thread count.
    let trials = args
        .iter()
        .zip(std::iter::once(&String::new()).chain(args.iter()))
        .filter(|(_, prev)| prev.as_str() != "--threads")
        .find_map(|(a, _)| a.parse::<usize>().ok())
        .unwrap_or(if quick { 2 } else { 6 })
        .max(1);
    let duration = 300.0;
    let (dead_fractions, burst_severities): (Vec<f64>, Vec<f64>) = if quick {
        (vec![0.0, 0.3], vec![0.0, 1.0])
    } else {
        (vec![0.0, 0.1, 0.2, 0.3], vec![0.0, 0.33, 0.67, 1.0])
    };
    println!(
        "=== Chaos sweep: dead-node fraction × burst severity ({trials} trials/cell, {duration} s runs) ===\n"
    );
    let wall = Instant::now();
    // Fixed per-cell seed base: the sweep is exactly replayable and each
    // cell is self-seeded, so the grid fans out over the worker pool.
    let mut grid: Vec<(f64, f64, u64)> = Vec::new();
    for (i, &d) in dead_fractions.iter().enumerate() {
        for (j, &s) in burst_severities.iter().enumerate() {
            grid.push((d, s, 9000 + (i * burst_severities.len() + j) as u64 * 1000));
        }
    }
    // Env-selected run-wide recorder: the journal (SID_OBS=jsonl) plus
    // the pool's execution statistics. Cells record into private
    // in-memory journals on the worker threads; only this main thread
    // writes to the shared recorder.
    let env_obs = Obs::from_env();
    let pool = sid_exec::global();
    pool.set_obs(env_obs.clone());
    let runs: Vec<(Cell, Vec<Event>, StageCounts)> = pool.par_map(&grid, |&(d, s, base_seed)| {
        run_cell(d, s, trials, duration, base_seed)
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    // Merge in grid order (par_map places results by input index), so
    // the replayed journal and the summed counts are byte-identical at
    // any thread count.
    let mut stage_counts = StageCounts::default();
    let mut cells: Vec<Cell> = Vec::with_capacity(runs.len());
    for (cell, events, counts) in runs {
        stage_counts.merge(&counts);
        if env_obs.enabled() {
            env_obs.replay(&events);
        }
        cells.push(cell);
    }
    env_obs.flush();
    let sweep = ChaosSweep {
        trials,
        duration,
        dead_fractions,
        burst_severities,
        cells,
    };
    println!("detection ratio (ship trials confirmed at the sink):");
    print_grid(&sweep, |c| c.detection_ratio);
    println!("\nfalse-alarm ratio (quiet-sea trials with a sink detection):");
    print_grid(&sweep, |c| c.false_alarm_ratio);
    println!("\nburst share of all drops (ship trials):");
    print_grid(&sweep, |c| c.burst_drop_share);
    let baseline = sweep.cells.first().expect("non-empty sweep").detection_ratio;
    let worst = sweep.cells.last().expect("non-empty sweep").detection_ratio;
    println!(
        "\ndetection ratio: {} healthy -> {} at the worst cell \
         ({:.0}% dead, severity {:.2})",
        pct(baseline),
        pct(worst),
        sweep.dead_fractions.last().expect("non-empty") * 100.0,
        sweep.burst_severities.last().expect("non-empty")
    );
    write_json("chaos_sweep", &sweep);
    let summary = RunSummary::new("chaos_sweep", pool.threads(), stage_counts, &env_obs);
    write_json("OBS_summary", &summary);
    println!("perf: {} threads, {:.1} s wall", pool.threads(), wall_secs);
}
