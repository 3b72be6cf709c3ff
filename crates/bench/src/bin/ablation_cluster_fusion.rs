//! Ablation: what cluster-level fusion buys (DESIGN.md §6).
//!
//! Node-level detection alone is noisy — the paper's own Fig. 11 puts a
//! single node around 70 % accuracy at its working point. This ablation
//! measures, on quiet seas with a deliberately twitchy node threshold
//! (M = 1.5), how many node-level alarms the fleet raises and how many of
//! them survive the spatial–temporal correlation check to reach the sink
//! (they should essentially all be cancelled) — and then confirms the
//! same configuration still detects a genuine intruder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sid_bench::common::write_json;
use sid_core::{DetectorConfig, IntrusionDetectionSystem, SystemConfig};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

#[derive(Debug, Clone, Serialize)]
struct AblationResult {
    node_false_alarms: usize,
    clusters_formed: usize,
    clusters_cancelled: usize,
    sink_false_detections: usize,
    node_hours: f64,
    false_alarms_per_node_hour: f64,
    ship_run_sink_detections: usize,
}

fn config() -> SystemConfig {
    SystemConfig {
        detector: DetectorConfig {
            m: 1.5, // twitchy on purpose: stress the fusion stage
            ..DetectorConfig::paper_default()
        },
        ..SystemConfig::paper_default(6, 6)
    }
}

fn main() {
    let seeds = [1u64, 2, 3, 4];
    let duration = 600.0;
    let mut node_false = 0;
    let mut formed = 0;
    let mut cancelled = 0;
    let mut sink_false = 0;
    println!("=== Ablation: cluster fusion as a false-alarm filter ===\n");
    println!("quiet sea, 6×6 grid, M = 1.5, {} s × {} seeds", duration, seeds.len());
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
        let scene = Scene::new(sea, ShipWaveModel::default());
        let mut system = IntrusionDetectionSystem::new(scene, config(), seed * 7);
        system.run_events(duration);
        let t = system.trace();
        node_false += t.node_reports.len();
        formed += t.clusters_formed;
        cancelled += t.clusters_cancelled;
        sink_false += t.sink_detections.len();
    }
    let node_hours = 36.0 * (duration / 3600.0) * seeds.len() as f64;
    println!("\nnode-level false alarms : {node_false}");
    println!("temporary clusters      : {formed} formed, {cancelled} cancelled");
    println!("sink false detections   : {sink_false}");
    println!(
        "false alarms/node-hour  : {:.2} at node level → {:.2} at sink",
        node_false as f64 / node_hours,
        sink_false as f64 / node_hours
    );

    // Same configuration, one genuine intruder.
    let mut rng = StdRng::seed_from_u64(99);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    scene.add_ship(Ship::new(
        Vec2::new(40.0, -600.0),
        Angle::from_degrees(90.0),
        Knots::new(10.0),
    ));
    let mut system = IntrusionDetectionSystem::new(scene, config(), 321);
    system.run_events(400.0);
    let ship_detections = system.trace().sink_detections.len();
    println!(
        "\nwith a genuine 10 kn intruder: {} sink detection(s) — fusion keeps the signal",
        ship_detections
    );
    let result = AblationResult {
        node_false_alarms: node_false,
        clusters_formed: formed,
        clusters_cancelled: cancelled,
        sink_false_detections: sink_false,
        node_hours,
        false_alarms_per_node_hour: node_false as f64 / node_hours,
        ship_run_sink_detections: ship_detections,
    };
    write_json("ablation_cluster_fusion", &result);
}
