//! Harbor patrol: the full system guarding a grid field against several
//! intruders of different speeds and headings.
//!
//! A 6×6 buoy grid (25 m spacing) watches a patch of sheltered water.
//! Three ships cross it over twenty minutes; the system must confirm each
//! at the sink via temporary-cluster correlation, estimate speeds, and
//! raise no false detections in between.
//!
//! Run with: `cargo run --release --example harbor_patrol`

use rand::rngs::StdRng;
use rand::SeedableRng;

use sid::core::{score_system, IntrusionDetectionSystem, SystemConfig};
use sid::ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 128, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());

    // Three intruders with different speeds, offsets and directions.
    // The grid spans x, y ∈ [0, 125] m.
    let intruders = [
        ("trawler, 10 kn, northbound", Ship::new(
            Vec2::new(40.0, -600.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        )),
        ("speedboat, 16 kn, northbound", Ship::new(
            Vec2::new(80.0, -3000.0),
            Angle::from_degrees(90.0),
            Knots::new(16.0),
        )),
        ("cutter, 12 kn, eastbound", Ship::new(
            Vec2::new(-3500.0, 60.0),
            Angle::from_degrees(0.0),
            Knots::new(12.0),
        )),
    ];
    for (_, ship) in &intruders {
        scene.add_ship(*ship);
    }

    let config = SystemConfig::paper_default(6, 6);
    let mut system = IntrusionDetectionSystem::new(scene, config, 99);

    println!("running 20 simulated minutes of harbor patrol (6×6 grid)…");
    system.run_events(1200.0);

    let trace = system.trace();
    println!("\n=== run summary ===");
    println!("node-level reports : {}", trace.node_reports.len());
    println!("clusters formed    : {}", trace.clusters_formed);
    println!("clusters cancelled : {}", trace.clusters_cancelled);
    println!("sink detections    : {}", trace.sink_detections.len());

    // Ground-truth passage windows: wave arrivals across the whole field.
    let field_points: Vec<Vec2> = system
        .topology()
        .node_ids()
        .map(|id| {
            let p = system.topology().position(id);
            Vec2::new(p.x, p.y)
        })
        .collect();
    let mut windows = Vec::new();
    for ship_idx in 0..intruders.len() {
        let mut first = f64::INFINITY;
        let mut last = f64::NEG_INFINITY;
        for p in &field_points {
            for ev in system.scene().passage_events(*p, 1200.0) {
                if ev.ship_index == ship_idx {
                    first = first.min(ev.arrival_time);
                    last = last.max(ev.arrival_time);
                }
            }
        }
        if first.is_finite() {
            windows.push((first, last));
        }
    }

    println!("\n=== detections vs ground truth ===");
    for (i, ((name, ship), (first, last))) in intruders.iter().zip(&windows).enumerate() {
        let confirmed: Vec<_> = trace
            .sink_detections
            .iter()
            .filter(|d| d.time >= *first && d.time <= last + 120.0)
            .collect();
        println!("\nintruder {i}: {name}");
        println!("  true speed      : {}", ship.speed());
        println!("  waves in field  : {first:.0}–{last:.0} s");
        match confirmed.first() {
            Some(d) => {
                println!("  CONFIRMED at {:.0} s (C = {:.2}, {} reports)", d.time, d.correlation, d.report_count);
                match d.speed_knots {
                    Some(v) => {
                        let err = 100.0 * (v - ship.speed().value()).abs() / ship.speed().value();
                        println!("  estimated speed : {v:.1} kn ({err:.0}% error)");
                    }
                    None => println!("  estimated speed : (geometry insufficient)"),
                }
            }
            None => println!("  MISSED"),
        }
    }

    let score = score_system(trace, &windows, 120.0);
    println!("\n=== system score ===");
    println!("detection ratio  : {:.0} %", 100.0 * score.detection_ratio());
    println!("false detections : {}", score.false_detections);
    println!("mean latency     : {:.0} s", score.mean_latency);
    println!(
        "network          : {} transmissions, {} delivered, {} dropped",
        system.net_stats().transmissions,
        system.net_stats().delivered,
        system.net_stats().dropped
    );
    println!("total energy     : {:.0} mJ", system.total_energy_mj());
}
