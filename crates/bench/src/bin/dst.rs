//! dst: the deterministic simulation-testing driver.
//!
//! Fans a contiguous seed range through the `sid-dst` harness: each
//! seed expands into a full scenario, runs through the real pipeline
//! with the journal attached, and is replayed through every invariant
//! oracle. Violating seeds are shrunk to minimal repros and persisted
//! to `results/DST_failures.json` (an empty run writes a byte-stable
//! empty array, so CI can diff it).
//!
//! Usage: `dst [--seeds N] [--seed-start S] [--seed n] [--threads N]
//! [--quick] [--sabotage] [--fleet] [--no-write]`. An unknown flag or an
//! unparsable value prints the usage and exits 2 before anything runs
//! or is written.
//!
//! * default: 200 seeds from 1000 (`--quick`: 40) fanned over the
//!   worker pool. Each scenario itself runs single-threaded, so
//!   per-seed journals are identical at any `--threads`; the printed
//!   population fingerprint (merged in seed order) proves it.
//! * `--seed n` replays exactly one scenario: prints the scenario JSON
//!   and every oracle verdict, then exits non-zero on violations.
//! * `--sabotage` builds every scenario with the gutted cluster quorum
//!   (`Sabotage::LooseQuorum`) — the harness's fire drill; the
//!   `confirmed_implies_quorum` oracle must catch and shrink it.
//! * `--fleet` expands seeds through `Scenario::fleet` instead of
//!   `Scenario::generate`: free-form coastlines of 200–2000 duty-cycled
//!   nodes, every one re-run through the event scheduler by the
//!   `variant_equivalence` oracle. Use a seed range disjoint from the
//!   committed smoke population, with `--no-write`.
//! * `--no-write` runs as a pure gate: the exit code and printed
//!   fingerprint stand, but `results/DST_*.json` are left untouched
//!   (for auxiliary seed slices that must not clobber the committed
//!   `dst-smoke` population).

use std::time::Instant;

use sid_bench::common::write_json;
use sid_dst::{check_all, execute, shrink, FailureRecord, Sabotage, Scenario, SHRINK_BUDGET};
use sid_obs::{fnv1a, Event, Obs, RunSummary, StageCounts};

const USAGE: &str = "usage: dst [--seeds N] [--seed-start S] [--seed n] [--threads N] \
                     [--quick] [--sabotage] [--fleet] [--no-write]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    seeds: Option<u64>,
    seed_start: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    quick: bool,
    sabotage: bool,
    fleet: bool,
    no_write: bool,
}

/// Parses the command line, rejecting unknown flags and unparsable
/// values (a typo like `--seed 10O7` must not fall through to a full
/// population run that rewrites the committed results).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let switch = match name {
            "--quick" => &mut out.quick,
            "--sabotage" => &mut out.sabotage,
            "--fleet" => &mut out.fleet,
            "--no-write" => &mut out.no_write,
            "--seeds" | "--seed-start" | "--seed" | "--threads" => {
                let value = inline
                    .or_else(|| iter.next().map(String::as_str))
                    .ok_or_else(|| format!("{name} needs a value"))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{name}: '{value}' is not a non-negative integer"))?;
                match name {
                    "--seeds" => out.seeds = Some(n),
                    "--seed-start" => out.seed_start = Some(n),
                    "--seed" => out.seed = Some(n),
                    _ if n == 0 => return Err("--threads must be at least 1".to_string()),
                    _ => out.threads = Some(n as usize),
                }
                continue;
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        };
        if inline.is_some() {
            return Err(format!("{name} takes no value"));
        }
        *switch = true;
    }
    Ok(out)
}

struct SeedOutcome {
    seed: u64,
    counts: StageCounts,
    journal_hash: u64,
    events: Vec<Event>,
    failure: Option<FailureRecord>,
}

fn replay_one(seed: u64, sabotage: Sabotage, fleet: bool) {
    let scenario = if fleet {
        Scenario::fleet(seed)
    } else {
        Scenario::generate(seed)
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&scenario).expect("scenario serializes")
    );
    let report = execute(&scenario, sabotage);
    let violations = check_all(&report);
    println!(
        "seed {seed}: {} events, {} reports, {} confirmations, {} sink accepts",
        report.counts.events_recorded,
        report.counts.node_reports_emitted,
        report.counts.clusters_confirmed,
        report.counts.sink_accepted
    );
    if violations.is_empty() {
        println!("seed {seed}: all oracles passed");
    } else {
        for v in &violations {
            println!("VIOLATION [{}] {}", v.oracle, v.detail);
        }
        std::process::exit(1);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|err| {
        eprintln!("dst: {err}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(threads) = args.threads {
        sid_exec::set_global_threads(threads);
    }
    let sabotage = if args.sabotage {
        Sabotage::LooseQuorum
    } else {
        Sabotage::None
    };
    let fleet = args.fleet;
    if let Some(seed) = args.seed {
        replay_one(seed, sabotage, fleet);
        return;
    }
    let seed_start = args.seed_start.unwrap_or(1000);
    let seeds = args
        .seeds
        .unwrap_or(if args.quick { 40 } else { 200 })
        .max(1) as usize;
    println!(
        "=== DST: {seeds}{} seeds from {seed_start}{} ===",
        if fleet { " fleet" } else { "" },
        if sabotage == Sabotage::None {
            ""
        } else {
            " (SABOTAGE: loose quorum)"
        }
    );
    let wall = Instant::now();
    let seed_list: Vec<u64> = (0..seeds as u64).map(|i| seed_start + i).collect();
    // Env-selected run-wide recorder (SID_OBS=jsonl for the journal).
    // Scenario runs record into private in-memory journals on the
    // worker threads; only this main thread touches the shared one.
    let env_obs = Obs::from_env();
    let keep_events = env_obs.enabled();
    let pool = sid_exec::global();
    pool.set_obs(env_obs.clone());
    let outcomes: Vec<SeedOutcome> = pool.par_map(&seed_list, |&seed| {
        let scenario = if fleet {
            Scenario::fleet(seed)
        } else {
            Scenario::generate(seed)
        };
        let report = execute(&scenario, sabotage);
        let violations = check_all(&report);
        // One record per violating seed: shrink against the first
        // (highest-priority) violated oracle.
        let failure = violations.first().map(|v| {
            let result = shrink(&scenario, sabotage, v.oracle, SHRINK_BUDGET);
            FailureRecord {
                seed,
                oracle: v.oracle.to_string(),
                detail: v.detail.clone(),
                scenario: result.scenario,
                shrink_iterations: result.runs,
                shrunk: result.shrunk,
            }
        });
        SeedOutcome {
            seed,
            counts: report.counts,
            journal_hash: fnv1a(0, report.journal.as_bytes()),
            events: if keep_events { report.events } else { Vec::new() },
            failure,
        }
    });
    // Merge in seed order (par_map places results by input index): the
    // counts, fingerprint and failure file are identical at any
    // --threads setting.
    let mut counts = StageCounts::default();
    let mut fingerprint = 0u64;
    let mut failures: Vec<FailureRecord> = Vec::new();
    for outcome in outcomes {
        counts.merge(&outcome.counts);
        fingerprint = fnv1a(fingerprint, &outcome.journal_hash.to_be_bytes());
        if keep_events {
            env_obs.record(Event::RunMarker {
                label: format!("dst seed {}", outcome.seed),
            });
            env_obs.replay(&outcome.events);
        }
        if let Some(failure) = outcome.failure {
            println!(
                "seed {}: VIOLATION [{}] {} (shrunk over {} runs)",
                failure.seed, failure.oracle, failure.detail, failure.shrink_iterations
            );
            failures.push(failure);
        }
    }
    env_obs.flush();
    if args.no_write {
        println!("[--no-write: results/DST_*.json left untouched]");
    } else {
        write_json("DST_failures", &failures);
        let summary = RunSummary::new("dst", pool.threads(), counts, &env_obs);
        write_json("DST_summary", &summary);
    }
    println!(
        "{} seeds: {} violations, fingerprint {fingerprint:016x}",
        seeds,
        failures.len()
    );
    println!(
        "population: {} events, {} reports, {} confirmations, {} sink accepts, {} faults",
        counts.events_recorded,
        counts.node_reports_emitted,
        counts.clusters_confirmed,
        counts.sink_accepted,
        counts.faults_injected
    );
    println!(
        "perf: {} threads, {:.1} s wall",
        pool.threads(),
        wall.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_every_flag() {
        let args = parse("--seeds 24 --seed-start 4000 --threads=2 --fleet --no-write")
            .expect("valid command line");
        assert_eq!(
            args,
            Args {
                seeds: Some(24),
                seed_start: Some(4000),
                threads: Some(2),
                fleet: true,
                no_write: true,
                ..Args::default()
            }
        );
        assert_eq!(parse("").expect("empty is valid"), Args::default());
    }

    #[test]
    fn rejects_unparsable_values() {
        assert!(parse("--seed 10O7").unwrap_err().contains("10O7"));
        assert!(parse("--seeds x").unwrap_err().contains("--seeds"));
        assert!(parse("--threads 0").is_err());
        assert!(parse("--seed-start").unwrap_err().contains("needs a value"));
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse("--seed 1 --sabotge").unwrap_err().contains("--sabotge"));
        assert!(parse("1000").is_err());
        assert!(parse("--quick=yes").is_err());
    }
}
