//! Multi-tenant service benchmark: N independent tenant sessions
//! multiplexed over one shared worker pool through `sid-serve`, written
//! to `results/BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin serve_bench [-- --quick] [-- --threads N] [-- --check]
//! ```
//!
//! Each tenant is a full `sid-dst` scenario (mixed grid sizes, sea
//! states, duty cycling, fault campaigns — seeds 5000+) opened as a
//! session with its own seed, journal and shard count (K cycles through
//! 1/2/4), then advanced round-robin in four interleaved slices. The
//! benchmark proves three things at once:
//!
//! * **Multiplexing**: ≥8 concurrent tenants share one pool and still
//!   finish faster than real time in aggregate (`real_time_ratio` is
//!   total tenant sim-seconds per wall-second).
//! * **Determinism**: every per-tenant journal fingerprint is identical
//!   at 1/2/4/8 worker threads — tenants never bleed into each other
//!   and sharding never changes the bytes.
//! * **Migration**: one tenant is checkpointed mid-run, resumed on a
//!   manager with a different pool width *and* shard count, and must
//!   land on the same final fingerprint as the run that never moved.
//!
//! With `--check` the binary becomes the tier-1 gate: it measures the
//! quick configuration, asserts fingerprint identity and the migration
//! contract, and exits non-zero unless the 1-thread aggregate beats
//! real time and stays within [`CHECK_FLOOR`]× of the committed
//! `results/BENCH_serve.json` baseline (read *before* measuring; exit
//! code 2 if unreadable). Nothing is written in check mode.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::write_json;
use sid_bench::gate::{self, GateError};
use sid_dst::{Sabotage, Scenario};
use sid_serve::{SessionId, SessionManager, SessionReport, SessionSpec};

/// The `--check` gate accepts a 1-thread aggregate real-time ratio no
/// lower than this fraction of the committed baseline (and never below
/// 1.0 — a service that can't keep up with its tenants is broken).
const CHECK_FLOOR: f64 = 0.25;

/// First tenant seed: disjoint from the committed `dst-smoke` (1000+),
/// sched (2000+), fleet (3000+) and serve-smoke DST (4000+) ranges.
const SEED_START: u64 = 5000;

/// Advance slices per tenant: the whole population is driven
/// round-robin, one slice at a time, so sessions genuinely interleave
/// on the shared pool rather than running to completion one by one.
const ROUNDS: usize = 4;

#[derive(Debug, Serialize)]
struct ThreadRun {
    threads: usize,
    wall_secs: f64,
    real_time_ratio: f64,
}

#[derive(Debug, Serialize)]
struct ServeReport {
    quick: bool,
    tenants: usize,
    total_nodes: usize,
    sim_seconds_per_tenant: f64,
    total_sim_seconds: f64,
    tenant_reports: Vec<SessionReport>,
    thread_runs: Vec<ThreadRun>,
    fingerprints_identical: bool,
    migrated_tenant: String,
    migration_fingerprint_matches: bool,
    real_time_ratio: f64,
}

/// The tenant population: `count` scenarios from [`SEED_START`], shard
/// count cycling 1/2/4 so every partitioning mode is always in flight.
fn specs(count: usize) -> Vec<(SessionSpec, Scenario)> {
    (0..count as u64)
        .map(|i| {
            let seed = SEED_START + i;
            let scenario = Scenario::generate(seed);
            let spec = SessionSpec::new(format!("tenant-{seed}"), seed)
                .with_shards([1usize, 2, 4][(i % 3) as usize]);
            (spec, scenario)
        })
        .collect()
}

/// Opens the whole population on one manager and drives it round-robin
/// for `sim_seconds` per tenant. Returns the manager, the open ids and
/// the wall seconds spent advancing.
fn drive(
    threads: usize,
    population: &[(SessionSpec, Scenario)],
    sim_seconds: f64,
) -> (SessionManager, Vec<SessionId>, f64) {
    let mut mgr = SessionManager::with_threads(threads);
    let ids: Vec<SessionId> = population
        .iter()
        .map(|(spec, scenario)| {
            let scenario = scenario.clone();
            mgr.open(spec.clone(), move || scenario.build_bare(Sabotage::None))
        })
        .collect();
    let slice = sim_seconds / ROUNDS as f64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &id in &ids {
            mgr.advance(id, slice).expect("session open");
        }
    }
    (mgr, ids, t.elapsed().as_secs_f64())
}

/// The migration leg: drive the population halfway, checkpoint one
/// tenant, resume it on a manager with a different pool width and shard
/// count, finish both halves, and return `(tenant, fingerprint)` of the
/// migrated session.
fn migrate_one(
    population: &[(SessionSpec, Scenario)],
    sim_seconds: f64,
) -> (String, u64) {
    let (spec, scenario) = &population[0];
    let slice = sim_seconds / ROUNDS as f64;
    let mut source = SessionManager::with_threads(2);
    let sc = scenario.clone();
    let id = source.open(spec.clone(), move || sc.build_bare(Sabotage::None));
    for _ in 0..ROUNDS / 2 {
        source.advance(id, slice).expect("session open");
    }
    let ckpt = source.checkpoint(id).expect("session open");
    let mut target = SessionManager::with_threads(8);
    let sc = scenario.clone();
    let resumed = target
        .resume_with_shards(&ckpt, 4, move || sc.build_bare(Sabotage::None))
        .expect("resume integrity gate");
    for _ in 0..ROUNDS - ROUNDS / 2 {
        target.advance(resumed, slice).expect("session open");
    }
    let session = target.session(resumed).expect("session open");
    (session.tenant().to_string(), session.fingerprint())
}

fn measure(quick: bool) -> ServeReport {
    let tenants = if quick { 8 } else { 12 };
    let sim_seconds = if quick { 60.0 } else { 120.0 };
    let population = specs(tenants);
    let total_sim_seconds = sim_seconds * tenants as f64;

    let mut thread_runs = Vec::new();
    let mut fingerprints: Vec<Vec<String>> = Vec::new();
    let mut tenant_reports = Vec::new();
    let mut total_nodes = 0;
    for threads in [1usize, 2, 4, 8] {
        let (mgr, ids, wall_secs) = drive(threads, &population, sim_seconds);
        let reports: Vec<SessionReport> = ids
            .iter()
            .map(|&id| mgr.session(id).expect("open").report())
            .collect();
        fingerprints.push(reports.iter().map(|r| r.fingerprint.clone()).collect());
        if threads == 1 {
            total_nodes = reports.iter().map(|r| r.nodes).sum();
            tenant_reports = reports;
        }
        thread_runs.push(ThreadRun {
            threads,
            wall_secs,
            real_time_ratio: total_sim_seconds / wall_secs.max(1e-12),
        });
    }
    let fingerprints_identical = fingerprints.iter().all(|f| f == &fingerprints[0]);

    let (migrated_tenant, migrated_fp) = migrate_one(&population, sim_seconds);
    let migration_fingerprint_matches =
        format!("{migrated_fp:016x}") == tenant_reports[0].fingerprint;

    let real_time_ratio = thread_runs[0].real_time_ratio;
    ServeReport {
        quick,
        tenants,
        total_nodes,
        sim_seconds_per_tenant: sim_seconds,
        total_sim_seconds,
        tenant_reports,
        thread_runs,
        fingerprints_identical,
        migrated_tenant,
        migration_fingerprint_matches,
        real_time_ratio,
    }
}

fn print_report(r: &ServeReport) {
    println!(
        "serve: {} tenants ({} nodes total) x {} s sim each, {} interleaved slices",
        r.tenants, r.total_nodes, r.sim_seconds_per_tenant, ROUNDS
    );
    for t in &r.tenant_reports {
        println!(
            "  {}: {} nodes, {} shards, {} events, fingerprint {}",
            t.tenant, t.nodes, t.shards, t.events, t.fingerprint
        );
    }
    for run in &r.thread_runs {
        println!(
            "  pool @ {} thread{}: {:.2} s wall ({:.0}x real time aggregate)",
            run.threads,
            if run.threads == 1 { " " } else { "s" },
            run.wall_secs,
            run.real_time_ratio
        );
    }
    println!(
        "  fingerprints identical across pool widths: {} — migration ({} via \
         checkpoint to 8 threads / 4 shards) matches: {}",
        r.fingerprints_identical, r.migrated_tenant, r.migration_fingerprint_matches
    );
}

/// The `--check` gate: quick measurement, hard determinism checks,
/// fail unless the multiplexed service beats real time and stays within
/// [`CHECK_FLOOR`]× of the committed baseline (read before measuring).
/// Writes no JSON.
fn run_check() -> Result<Option<String>, GateError> {
    let committed = gate::committed_f64("results/BENCH_serve.json", &["real_time_ratio"])?;
    let report = measure(true);
    print_report(&report);
    if !report.fingerprints_identical {
        return Err(GateError::Failed(
            "per-tenant fingerprints diverged across pool widths".to_string(),
        ));
    }
    if !report.migration_fingerprint_matches {
        return Err(GateError::Failed(
            "checkpoint/migrate/resume changed a tenant journal".to_string(),
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
        "{:.0}x real time aggregate, floor {floor:.0}x",
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
        gate::exit("serve_bench", run_check());
    }
    println!("=== serve_bench{} ===", if quick { " (quick)" } else { "" });
    let report = measure(quick);
    print_report(&report);
    assert!(
        report.fingerprints_identical && report.migration_fingerprint_matches,
        "serve determinism broken: identical per-tenant journals are the contract"
    );
    write_json("BENCH_serve", &report);
}
