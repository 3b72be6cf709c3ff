//! Golden-trace regression tests: one fixed-seed run per figure family,
//! checked against committed expectations.
//!
//! These pin the outputs of the reproduction pipeline — the Fig. 5
//! sensor record, a Fig. 11 detector sweep cell and a DST pipeline
//! scenario — so a drive-by change to the wave synthesis, sensor model
//! or detector shows up as a diff here instead of as a silent shift in
//! every figure. The runs are fully deterministic; the float tolerances
//! only absorb libm differences across toolchain versions. When a
//! change *intends* to move these numbers, update the constants (and
//! say so in the commit).

use sid_bench::node_level::fig11_with_hold;
use sid_bench::spectra::fig05;
use sid_dst::{execute, Sabotage, Scenario};

fn assert_close(what: &str, actual: f64, expected: f64, tol: f64) {
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: {actual} drifted from golden {expected} (tol {tol})"
    );
}

#[test]
fn fig05_sensor_record_matches_golden() {
    // 250 s of three-axis open-sea data from one drifting buoy, seed 42.
    let result = fig05(42);
    assert_eq!(result.axes.len(), 3);
    // (axis, mean, std) in raw ADC counts. The x/y means sit near 0
    // (gravity removed by the mount), z near the 2 g mid-scale offset.
    let golden = [
        ("x", -14.825_120, 184.937_252),
        ("y", 4.314_720, 167.758_044),
        ("z", 1_009.091_760, 236.016_568),
    ];
    for (axis, (name, mean, std)) in result.axes.iter().zip(golden) {
        assert_eq!(axis.axis, name);
        assert_close(&format!("fig05 {name} mean"), axis.mean, mean, 1.0);
        assert_close(&format!("fig05 {name} std"), axis.std, std, 2.0);
        assert!(axis.min < axis.mean && axis.mean < axis.max);
    }
    assert_eq!(result.z_series_1hz.len(), 250);
}

#[test]
fn fig11_detector_cell_matches_golden() {
    // Three fixed-seed ship passages through the af = 60 % column: every
    // M row detects cleanly at these settings (the figure's plateau).
    let result = fig11_with_hold(3, 9000, 0, &[0.6]);
    assert_eq!(result.cells.len(), result.m_values.len());
    for cell in &result.cells {
        assert_eq!(cell.trials, 3);
        assert!(
            cell.detection_ratio > 0.99,
            "fig11 cell M={} af={} fell off the golden plateau: {}",
            cell.m,
            cell.af,
            cell.detection_ratio
        );
    }
}

#[test]
fn dst_scenario_trace_matches_golden() {
    // DST seed 1027: a 4×3 harbor deployment with a fast northbound
    // passage — the smallest generated scenario whose confirmation
    // reaches the sink. Counts are exact (integer folds over a
    // deterministic journal).
    let scenario = Scenario::generate(1027);
    let report = execute(&scenario, Sabotage::None);
    // 47 = the 46 pipeline events plus the AlertEmitted for the single
    // sink accept (the alerting edge journals every alert decision).
    assert_eq!(report.counts.events_recorded, 47);
    assert_eq!(report.counts.alerts_emitted, 1);
    assert_eq!(report.counts.alerts_suppressed, 0);
    assert_eq!(report.counts.node_reports_emitted, 42);
    assert_eq!(report.counts.clusters_formed, 2);
    assert_eq!(report.counts.clusters_evaluated, 1);
    assert_eq!(report.counts.clusters_confirmed, 1);
    assert_eq!(report.counts.sink_accepted, 1);
    assert_eq!(report.counts.faults_injected, 0);
    assert_eq!(report.trace.sink_detections.len(), 1);
}

#[test]
fn dst_fleet_scenario_matches_golden() {
    // Fleet seed 3007 (inside the fleet slice of `just dst-smoke`): 256 buoys
    // in a free-form coastline, a 13-node sentinel picket, two ships
    // and a 36-event fault campaign. The journal fingerprint pins the
    // entire run byte-for-byte — position generation, the spatial-hash
    // neighbor tables (256 ≥ SPATIAL_HASH_THRESHOLD, so this exercises
    // the hash path end-to-end), duty cycling and fault injection. If a
    // change intends to move these numbers, update them here and say so
    // in the commit.
    let scenario = Scenario::fleet(3007);
    let spec = scenario.fleet.expect("fleet class");
    assert_eq!(spec.nodes, 256);
    assert_eq!(scenario.node_count(), 256);
    assert_eq!(spec.sentinel_every, 21);
    assert_eq!(scenario.ships.len(), 2);
    assert_eq!(scenario.faults.len(), 36);
    let sys = scenario.build(Sabotage::None, sid_obs::Obs::noop(), 1);
    assert_eq!(sys.sentinel_count(), 13);
    let report = execute(&scenario, Sabotage::None);
    assert_eq!(report.counts.events_recorded, 71);
    assert_eq!(report.counts.node_reports_emitted, 10);
    assert_eq!(
        sid_obs::fnv1a(0, report.journal.as_bytes()),
        0xdcdf_dbc9_cb03_76ac
    );
}
