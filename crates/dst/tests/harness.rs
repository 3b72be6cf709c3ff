//! End-to-end harness tests: a fuzz smoke over generated scenarios, the
//! journal-determinism contract, and the sabotage fire drill (a
//! deliberately-broken quorum must be caught by the oracles and shrunk
//! to a minimal repro).

use sid_dst::{
    check_all, execute, execute_with_threads, shrink, FailureRecord, Sabotage, Scenario, Variant,
};

#[test]
fn fuzz_smoke_zero_violations() {
    // A debug-build slice of the `just dst-smoke` range (the release
    // binary sweeps >= 200 seeds); every oracle must stay quiet.
    for seed in 1000..1008 {
        let scenario = Scenario::generate(seed);
        let report = execute(&scenario, Sabotage::None);
        let violations = check_all(&report);
        assert!(
            violations.is_empty(),
            "seed {seed} violated: {violations:?}"
        );
    }
}

#[test]
fn alert_storm_campaign_suppresses_and_reloads_correctly() {
    // Seed 1000 is a storm seed (1000 % 8 == 0): a three-ship convoy
    // against a one-token alert bucket, plus a scheduled invalid +
    // valid detection reload. The full oracle battery (including the
    // alert-suppression replay) must stay quiet, and the storm must
    // actually exercise every alert decision: emits, suppressions,
    // coalesced summaries, one applied reload and one journaled
    // rejection.
    let mut scenario = Scenario::generate(1000);
    assert!(scenario.alert_storm);
    // The equivalence reruns are covered by `fuzz_smoke_zero_violations`
    // and the release smoke; skip them here to keep the debug run cheap.
    scenario.variants.clear();
    let report = execute(&scenario, Sabotage::None);
    let violations = check_all(&report);
    assert!(violations.is_empty(), "storm violated: {violations:?}");
    assert_eq!(report.counts.config_reloads, 1, "valid reload applied");
    assert_eq!(report.counts.config_reload_rejections, 1, "invalid reload journaled");
    assert_eq!(report.trace.retunes_applied, 1);
    assert_eq!(report.trace.retunes_rejected, 1);
    assert!(report.counts.alerts_emitted >= 1, "counts: {:?}", report.counts);
    assert!(report.counts.alerts_suppressed >= 1, "counts: {:?}", report.counts);
    assert!(report.counts.alerts_coalesced >= 1, "counts: {:?}", report.counts);
}

#[test]
fn journal_is_deterministic_across_reruns_and_pool_sizes() {
    let scenario = Scenario::generate(1004);
    let a = execute(&scenario, Sabotage::None);
    let b = execute(&scenario, Sabotage::None);
    assert_eq!(a.journal, b.journal, "same seed, same thread count");
    assert_eq!(a.counts, b.counts);
    let wide = execute_with_threads(&scenario, Sabotage::None, 4);
    assert_eq!(a.journal, wide.journal, "journal must not depend on pool size");
    assert_eq!(a.counts, wide.counts);
    assert!(!a.journal.is_empty(), "the run recorded nothing");
}

#[test]
fn fleet_class_runs_clean_and_is_thread_deterministic() {
    // Fleet seed 3007 (also the golden seed in sid-bench): a free-form
    // coastline over the spatial-hash index with an index-stride
    // sentinel picket. The fleet is shrunk for the debug build — the
    // release `just fleet-smoke` slice runs full 200–2000-node sizes —
    // but the class behavior (free-form placement, hash index path at
    // 128 ≥ SPATIAL_HASH_THRESHOLD, forced duty cycling, the
    // `run_events` rerun every fleet seed carries) is unchanged.
    let mut scenario = Scenario::fleet(3007);
    assert_eq!(scenario.variants, [Variant::Events], "every fleet seed reruns run_events");
    scenario.fleet.as_mut().expect("fleet class").nodes = 128;
    let report = execute(&scenario, Sabotage::None);
    let violations = check_all(&report);
    assert!(violations.is_empty(), "fleet violated: {violations:?}");
    let rerun = execute_with_threads(&scenario, Sabotage::None, 4);
    assert_eq!(
        report.journal, rerun.journal,
        "fleet journal must not depend on pool size"
    );
    assert_eq!(report.counts, rerun.counts);
}

#[test]
fn sabotaged_quorum_is_caught_and_shrunk_to_a_minimal_repro() {
    // Seed 1000 is known to raise loose-quorum confirmations (harbor
    // noise alone suffices once the quorum is gutted); the generated
    // scenario is deterministic, so this stays a fixed fixture.
    let scenario = Scenario::generate(1000);
    // Fire drill: the same scenario must be clean under the nominal
    // config and violating under the gutted quorum.
    let report = execute(&scenario, Sabotage::LooseQuorum);
    let violations = check_all(&report);
    let violation = violations
        .iter()
        .find(|v| v.oracle == "confirmed_implies_quorum")
        .expect("the loose quorum must trip the quorum oracle");

    let result = shrink(&scenario, Sabotage::LooseQuorum, violation.oracle, 24);
    assert!(result.shrunk, "a generated scenario must admit shrinking");
    assert!(result.runs <= 24);
    // The repro must be no bigger than the original on every axis...
    assert!(result.scenario.duration <= scenario.duration);
    assert!(result.scenario.node_count() <= scenario.node_count());
    // ...and the *same* oracle must still fail on it.
    let replay = execute(&result.scenario, Sabotage::LooseQuorum);
    assert!(
        check_all(&replay)
            .iter()
            .any(|v| v.oracle == "confirmed_implies_quorum"),
        "the shrunk scenario no longer reproduces the violation"
    );

    // The persisted repro round-trips losslessly.
    let record = FailureRecord {
        seed: scenario.seed,
        oracle: violation.oracle.to_string(),
        detail: violation.detail.clone(),
        scenario: result.scenario.clone(),
        shrink_iterations: result.runs,
        shrunk: result.shrunk,
    };
    let json = serde_json::to_string_pretty(&record).expect("serialize");
    let back: FailureRecord = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, record);
}
