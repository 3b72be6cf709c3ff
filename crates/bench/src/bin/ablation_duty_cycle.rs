//! Ablation: duty-cycled power management (paper Section IV-A).
//!
//! "Some nodes in a group may keep active to perform a coarse detection
//! while other nodes sleep… Upon a positive detection is made, sleeping
//! nodes should be activated." This binary quantifies the trade: energy
//! consumption and detection outcome with the full fleet awake vs. a
//! sentinel quarter plus invite-triggered wakeups.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sid_bench::common::write_json;
use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

#[derive(Debug, Clone, Serialize)]
struct Arm {
    label: String,
    energy_mj: f64,
    detections: usize,
    node_reports: usize,
    first_confirmation: Option<f64>,
}

fn scene(seed: u64, with_ship: bool) -> Scene {
    let mut rng = StdRng::seed_from_u64(seed);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    if with_ship {
        scene.add_ship(Ship::new(
            Vec2::new(40.0, -2000.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        ));
    }
    scene
}

fn run(label: &str, duty: bool, with_ship: bool, seed: u64) -> Arm {
    let config = SystemConfig {
        duty_cycle: DutyCycleConfig {
            enabled: duty,
            wake_duration: 180.0,
            ..DutyCycleConfig::default()
        },
        ..SystemConfig::paper_default(6, 6)
    };
    let mut system = IntrusionDetectionSystem::new(scene(seed, with_ship), config, seed * 3 + 1);
    system.run_events(900.0);
    let t = system.trace();
    Arm {
        label: label.to_string(),
        energy_mj: system.total_energy_mj(),
        detections: t.sink_detections.len(),
        node_reports: t.node_reports.len(),
        first_confirmation: t.sink_detections.first().map(|d| d.time),
    }
}

fn main() {
    println!("=== Ablation: duty-cycled power management (6×6 grid, 15 min) ===\n");
    let arms = vec![
        run("always-on, quiet sea", false, false, 5),
        run("duty-cycled, quiet sea", true, false, 5),
        run("always-on, 10 kn intruder", false, true, 6),
        run("duty-cycled, 10 kn intruder", true, true, 6),
    ];
    println!(
        "{:<28} {:>12} {:>12} {:>14} {:>14}",
        "arm", "energy mJ", "reports", "detections", "confirm at"
    );
    for a in &arms {
        println!(
            "{:<28} {:>12.0} {:>12} {:>14} {:>14}",
            a.label,
            a.energy_mj,
            a.node_reports,
            a.detections,
            a.first_confirmation
                .map(|t| format!("{t:.0} s"))
                .unwrap_or_else(|| "—".to_string())
        );
    }
    let saving = 1.0 - arms[1].energy_mj / arms[0].energy_mj;
    println!("\nquiet-sea energy saving: {:.0} %", 100.0 * saving);
    println!(
        "intruder still confirmed under duty cycling: {}",
        if arms[3].detections > 0 { "YES" } else { "NO — investigate" }
    );
    write_json("ablation_duty_cycle", &arms);
}
