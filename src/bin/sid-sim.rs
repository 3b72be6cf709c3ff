//! `sid-sim` — run a SID surveillance scenario from the command line.
//!
//! ```text
//! sid-sim [--rows N] [--cols N] [--duration SECS] [--seed N]
//!         [--ship KNOTS:OFFSET_M:HEADING_DEG]... [--duty-cycle] [--json]
//! ```
//!
//! Each `--ship` adds an intruder: `KNOTS` its speed, `OFFSET_M` where its
//! track crosses the grid (metres along the perpendicular axis), and
//! `HEADING_DEG` its course (90 = northbound through the grid's columns,
//! 0 = eastbound along its rows). Ships start far enough out that their
//! waves arrive after calibration.
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin sid-sim -- --rows 6 --cols 6 --duration 600 \
//!     --ship 10:40:90 --ship 16:80:90
//! ```

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sid::core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid::ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

const USAGE: &str = "usage: sid-sim [--rows N] [--cols N] [--duration SECS] [--seed N] \
                     [--ship KNOTS:OFFSET_M:HEADING_DEG]... [--duty-cycle] [--json]";

#[derive(Debug)]
struct Args {
    rows: usize,
    cols: usize,
    duration: f64,
    seed: u64,
    ships: Vec<(f64, f64, f64)>, // knots, offset, heading
    duty_cycle: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rows: 6,
        cols: 6,
        duration: 600.0,
        seed: 1,
        ships: Vec::new(),
        duty_cycle: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--rows" => args.rows = take("--rows")?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--cols" => args.cols = take("--cols")?.parse().map_err(|e| format!("--cols: {e}"))?,
            "--duration" => {
                args.duration = take("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--duty-cycle" => args.duty_cycle = true,
            "--json" => args.json = true,
            "--ship" => {
                let spec = take("--ship")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--ship expects KNOTS:OFFSET_M:HEADING_DEG, got `{spec}`"));
                }
                let knots: f64 = parts[0].parse().map_err(|e| format!("--ship knots: {e}"))?;
                let offset: f64 = parts[1].parse().map_err(|e| format!("--ship offset: {e}"))?;
                let heading: f64 = parts[2].parse().map_err(|e| format!("--ship heading: {e}"))?;
                if ![knots, offset, heading].iter().all(|v| v.is_finite()) {
                    return Err(format!("--ship fields must be finite numbers, got `{spec}`"));
                }
                if knots <= 0.0 {
                    return Err("--ship speed must be positive".into());
                }
                args.ships.push((knots, offset, heading));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.rows == 0 || args.cols == 0 {
        return Err("grid must be non-empty".into());
    }
    if !(args.duration.is_finite() && args.duration > 0.0) {
        return Err(format!(
            "--duration must be a positive, finite number of seconds\n{USAGE}"
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut rng = StdRng::seed_from_u64(args.seed);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    let centre = Vec2::new(
        (args.cols - 1) as f64 * 12.5,
        (args.rows - 1) as f64 * 12.5,
    );
    for &(knots, offset, heading_deg) in &args.ships {
        let heading = Angle::from_degrees(heading_deg);
        let dir = Vec2::from_heading(heading);
        // OFFSET_M is the absolute crossing coordinate on the axis the
        // course runs perpendicular to: x for north/south-ish courses,
        // y for east/west-ish ones. Ships start 600 m out so detector
        // calibration finishes before any wave arrives.
        let crossing = if dir.y.abs() >= dir.x.abs() {
            Vec2::new(offset, centre.y)
        } else {
            Vec2::new(centre.x, offset)
        };
        let start = crossing + dir.scale(-600.0);
        scene.add_ship(Ship::new(start, heading, Knots::new(knots)));
    }

    let config = SystemConfig {
        duty_cycle: DutyCycleConfig {
            enabled: args.duty_cycle,
            ..DutyCycleConfig::default()
        },
        ..SystemConfig::paper_default(args.rows, args.cols)
    };
    let mut system = IntrusionDetectionSystem::new(scene, config, args.seed.wrapping_mul(31) + 7);
    if !args.json {
        println!(
            "running {}×{} grid for {:.0} s with {} ship(s), seed {}{}…",
            args.rows,
            args.cols,
            args.duration,
            args.ships.len(),
            args.seed,
            if args.duty_cycle { ", duty-cycled" } else { "" }
        );
    }
    system.run_events(args.duration);

    let trace = system.trace();
    if args.json {
        #[derive(serde::Serialize)]
        struct Output<'a> {
            node_reports: usize,
            clusters_formed: usize,
            clusters_cancelled: usize,
            sink_detections: &'a Vec<sid::core::ClusterDetection>,
            incidents: usize,
            energy_mj: f64,
        }
        let out = Output {
            node_reports: trace.node_reports.len(),
            clusters_formed: trace.clusters_formed,
            clusters_cancelled: trace.clusters_cancelled,
            sink_detections: &trace.sink_detections,
            incidents: system.sink_tracker().incidents().len(),
            energy_mj: system.total_energy_mj(),
        };
        println!("{}", serde_json::to_string_pretty(&out).expect("serializable"));
        return ExitCode::SUCCESS;
    }

    println!("\n=== run summary ===");
    println!("node reports       : {}", trace.node_reports.len());
    println!(
        "temporary clusters : {} formed, {} cancelled",
        trace.clusters_formed, trace.clusters_cancelled
    );
    println!("sink detections    : {}", trace.sink_detections.len());
    println!("energy consumed    : {:.0} mJ", system.total_energy_mj());
    println!(
        "network            : {} tx, {} delivered, {} dropped, {:.1} s queued",
        system.net_stats().transmissions,
        system.net_stats().delivered,
        system.net_stats().dropped,
        system.net_stats().queueing_delay_total,
    );
    println!("\n=== incidents ===");
    if system.sink_tracker().incidents().is_empty() {
        println!("none — the harbor stayed quiet");
    }
    for incident in system.sink_tracker().incidents() {
        println!(
            "incident #{}: t = {:.0}–{:.0} s, {} confirmation(s), best C = {:.2}, speed {}, track {}",
            incident.id,
            incident.first_time,
            incident.last_time,
            incident.detections.len(),
            incident.best_correlation(),
            incident
                .speed_knots()
                .map(|v| format!("{v:.1} kn"))
                .unwrap_or_else(|| "n/a".into()),
            incident
                .track_angle_deg()
                .map(|a| format!("{a:.0}°"))
                .unwrap_or_else(|| "n/a".into()),
        );
    }
    ExitCode::SUCCESS
}
