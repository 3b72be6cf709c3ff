//! alert_storm: drives the DST alert-storm campaign end-to-end and
//! writes `results/BENCH_alert.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin alert_storm [-- --quick]
//! ```
//!
//! Each storm seed expands into the convoy scenario from `sid-dst`
//! (three staggered intruders, Gilbert–Elliott burst loss, a one-token
//! alert bucket and a scheduled invalid + valid detection hot reload)
//! and is executed at 1, 2, 4 and 8 worker threads. The run asserts:
//!
//! * the journal is **byte-identical** at every thread count (one
//!   fingerprint per seed proves it);
//! * the full oracle battery — including the `alert_suppression_correct`
//!   replay — stays quiet;
//! * on the fixture seed the storm actually ignites: alerts are
//!   suppressed and coalesced into summaries, the invalid reload is
//!   journaled as a rejection while the valid one applies, and the
//!   suppression ledger balances exactly (nothing is silently lost).
//!
//! The JSON report carries a deterministic per-seed section (journal
//! fingerprint, alert counters, sample JSONL/CEF wire lines) and a
//! non-deterministic wall section; any assertion failure exits non-zero
//! so CI can gate on `just alert-smoke`.

use std::time::Instant;

use serde::Serialize;

use sid_alert::{cef_line, jsonl_line, AlertEdge};
use sid_bench::common::write_json;
use sid_core::SystemTrace;
use sid_dst::{check_all, RunReport, Sabotage, Scenario, Variant};
use sid_obs::{render_journal, Obs, StageCounts};

/// FNV-1a over the journal bytes: a cheap, stable run fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One storm execution, with the alerting edge kept for wire rendering.
struct StormRun {
    report: RunReport,
    edge: AlertEdge,
}

fn run_storm(scenario: &Scenario, threads: usize) -> StormRun {
    let obs = Obs::in_memory();
    let mut sys = scenario.build(Sabotage::None, obs.clone(), threads);
    sys.run(scenario.duration);
    let events = obs.events().expect("in-memory recorder keeps events");
    let journal = render_journal(&events);
    StormRun {
        report: RunReport {
            scenario: scenario.clone(),
            sabotage: Sabotage::None,
            events,
            counts: obs.counts(),
            wall: obs.wall(),
            trace: sys.trace().clone(),
            journal,
        },
        edge: sys.alert_edge().clone(),
    }
}

/// Deterministic per-seed section of `BENCH_alert.json`.
#[derive(Debug, Serialize)]
struct SeedSection {
    seed: u64,
    journal_fingerprint: String,
    journal_events: u64,
    sink_accepted: u64,
    alerts_emitted: u64,
    alerts_suppressed: u64,
    alerts_coalesced: u64,
    config_reloads: u64,
    config_reload_rejections: u64,
    pending_suppressed: u64,
    outbox_evicted: u64,
    sample_jsonl: Vec<String>,
    sample_cef: Vec<String>,
}

#[derive(Debug, Serialize)]
struct WallSection {
    threads_swept: Vec<usize>,
    simulations: usize,
    wall_secs: f64,
}

#[derive(Debug, Serialize)]
struct AlertReport {
    quick: bool,
    deterministic: Vec<SeedSection>,
    wall: WallSection,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // The fixture seed (1000) reliably ignites the storm; the full run
    // additionally sweeps the other storm seeds the probe campaign
    // showed storming, for population coverage.
    let seeds: &[u64] = if quick {
        &[1000]
    } else {
        &[1000, 1016, 1024, 1032]
    };
    let threads_swept = vec![1usize, 2, 4, 8];
    println!(
        "=== alert_storm: {} storm seed(s) x {:?} threads{} ===",
        seeds.len(),
        threads_swept,
        if quick { " (quick)" } else { "" }
    );

    let wall = Instant::now();
    let mut simulations = 0usize;
    let mut sections = Vec::new();
    for &seed in seeds {
        let mut scenario = Scenario::generate(seed);
        assert!(scenario.alert_storm, "seed {seed} is not a storm seed");
        // The sweep below *is* this binary's thread-equivalence check;
        // the oracle-level tick-loop and streamed reruns would only
        // duplicate it.
        scenario
            .variants
            .retain(|v| !matches!(v, Variant::Threads(_) | Variant::Streamed { .. }));

        let baseline = run_storm(&scenario, threads_swept[0]);
        simulations += 1;
        for &threads in &threads_swept[1..] {
            let rerun = run_storm(&scenario, threads);
            simulations += 1;
            assert_eq!(
                rerun.report.journal, baseline.report.journal,
                "seed {seed}: alert journal diverged at {threads} threads"
            );
            assert_eq!(
                rerun.report.counts, baseline.report.counts,
                "seed {seed}: stage counts diverged at {threads} threads"
            );
            assert_eq!(
                rerun.edge, baseline.edge,
                "seed {seed}: alerting-edge state diverged at {threads} threads"
            );
        }

        let violations = check_all(&baseline.report);
        assert!(
            violations.is_empty(),
            "seed {seed}: oracle violations: {violations:?}"
        );

        let counts: &StageCounts = &baseline.report.counts;
        let trace: &SystemTrace = &baseline.report.trace;
        let edge = &baseline.edge;
        // Exact suppression accounting: every rate-limited alert is in
        // a summary or still pending — the edge never loses one.
        let coalesced_total: u64 = edge.alerts().map(|a| a.suppressed).sum();
        assert_eq!(
            coalesced_total + edge.pending_suppressed(),
            edge.suppressed_total(),
            "seed {seed}: suppression ledger out of balance"
        );
        assert_eq!(
            edge.suppressed_total(),
            counts.alerts_suppressed,
            "seed {seed}: edge bookkeeping disagrees with the journal"
        );
        assert_eq!(trace.retunes_applied, 1, "seed {seed}: valid reload must apply");
        assert_eq!(trace.retunes_rejected, 1, "seed {seed}: invalid reload must be rejected");
        if seed == 1000 {
            assert!(counts.alerts_suppressed > 0, "fixture storm must suppress");
            assert!(counts.alerts_coalesced > 0, "fixture storm must coalesce");
        }

        let sample = |f: fn(&sid_alert::Alert) -> String| -> Vec<String> {
            edge.alerts().take(4).map(f).collect()
        };
        let fingerprint = fnv1a(baseline.report.journal.as_bytes());
        println!(
            "seed {seed}: fingerprint {fingerprint:016x} byte-identical at {threads_swept:?} threads — \
             {} accepts -> {} emitted, {} suppressed, {} summaries; {} reload applied, {} rejected",
            counts.sink_accepted,
            counts.alerts_emitted,
            counts.alerts_suppressed,
            counts.alerts_coalesced,
            counts.config_reloads,
            counts.config_reload_rejections,
        );
        sections.push(SeedSection {
            seed,
            journal_fingerprint: format!("{fingerprint:016x}"),
            journal_events: counts.events_recorded,
            sink_accepted: counts.sink_accepted,
            alerts_emitted: counts.alerts_emitted,
            alerts_suppressed: counts.alerts_suppressed,
            alerts_coalesced: counts.alerts_coalesced,
            config_reloads: counts.config_reloads,
            config_reload_rejections: counts.config_reload_rejections,
            pending_suppressed: edge.pending_suppressed(),
            outbox_evicted: edge.evicted(),
            sample_jsonl: sample(jsonl_line),
            sample_cef: sample(cef_line),
        });
    }

    let report = AlertReport {
        quick,
        deterministic: sections,
        wall: WallSection {
            threads_swept,
            simulations,
            wall_secs: wall.elapsed().as_secs_f64(),
        },
    };
    write_json("BENCH_alert", &report);
    println!(
        "alert_storm: OK — {simulations} simulations in {:.1} s wall",
        report.wall.wall_secs
    );
}
