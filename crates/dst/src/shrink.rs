//! Greedy scenario minimization.
//!
//! When an oracle fires on a generated scenario, replaying the full
//! scenario is a poor starting point for debugging: it may carry two
//! ships, a 150-second run, dozens of scheduled faults and a 36-node
//! grid when only one ship and twenty seconds matter. [`shrink`]
//! greedily applies size-reducing transformations — shorter run, fewer
//! faults, fewer ships, smaller grid, features switched off — and keeps
//! a candidate only if the *same* oracle still fails on it, restarting
//! the pass after every acceptance. The result (plus the violation it
//! reproduces) is persisted as a [`FailureRecord`] in
//! `results/DST_failures.json`.

use serde::{Deserialize, Serialize};

use crate::oracle::check_all;
use crate::scenario::{execute, Sabotage, Scenario};

/// Default cap on simulation runs one shrink may spend. Each candidate
/// costs one full simulation, so the budget bounds shrink latency.
pub const SHRINK_BUDGET: usize = 64;

/// Floor for shrunk run durations (s): long enough for a report quorum
/// to assemble, short enough to step through in a debugger session.
const MIN_DURATION: f64 = 20.0;

/// Floor for shrunk fleet sizes. Still comfortably above
/// [`sid_net::SPATIAL_HASH_THRESHOLD`], so a shrunk fleet repro keeps
/// exercising the spatial-hash index path that full-size fleets take.
pub const FLEET_MIN_NODES: usize = 100;

/// A minimal repro for one violated invariant, as persisted to
/// `results/DST_failures.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// The originating seed (replay with `dst --seed <n>`).
    pub seed: u64,
    /// The violated oracle's stable name.
    pub oracle: String,
    /// The violation detail from the *original* (pre-shrink) run.
    pub detail: String,
    /// The minimized scenario that still reproduces the violation.
    pub scenario: Scenario,
    /// Simulation runs the shrinker spent.
    pub shrink_iterations: usize,
    /// Whether any transformation was accepted (false: the original
    /// scenario was already minimal, or the budget was 0).
    pub shrunk: bool,
}

/// What [`shrink`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkResult {
    /// The smallest scenario found that still violates the oracle.
    pub scenario: Scenario,
    /// Simulation runs spent.
    pub runs: usize,
    /// Whether the scenario is smaller than the input.
    pub shrunk: bool,
}

/// Every size-reducing transformation of `s`, most aggressive first.
/// Each output is strictly "smaller" than `s` in at least one component
/// and larger in none, which (with the acceptance filter) guarantees
/// shrinking terminates even without the run budget.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |candidate: Scenario| {
        if &candidate != s {
            out.push(candidate);
        }
    };

    // Fleet size dominates everything else a fleet-class scenario
    // carries, so it shrinks first: drop the fleet layer entirely
    // (reverting to the small base grid the seed also drew), then halve
    // the node count. Faults aimed at dropped nodes are pruned; the
    // position stream draws per node in index order, so the surviving
    // prefix of the layout is bit-identical after a halving.
    if let Some(f) = s.fleet {
        let mut c = s.clone();
        c.fleet = None;
        push(c);
        if f.nodes > FLEET_MIN_NODES {
            let mut c = s.clone();
            let nodes = (f.nodes / 2).max(FLEET_MIN_NODES);
            c.fleet = Some(crate::scenario::FleetSpec { nodes, ..f });
            c.faults.retain(|fault| (fault.node as usize) < nodes);
            push(c);
        }
    }

    // Equivalence reruns are the most expensive features a scenario can
    // carry (an extra simulation or serve session each): drop them one
    // at a time, in check order. (A `variant_equivalence` violation
    // survives only while its variant stays listed.)
    for drop in 0..s.variants.len() {
        let mut c = s.clone();
        c.variants.remove(drop);
        push(c);
    }

    // Drop the alert-storm campaign (reverts the tight token bucket and
    // the scheduled reload script; the expanded convoy ships stay and
    // shrink through the ship transformations below).
    if s.alert_storm {
        let mut c = s.clone();
        c.alert_storm = false;
        push(c);
    }

    // Halve the run, pruning faults scheduled past the new horizon.
    if s.duration > MIN_DURATION {
        let mut c = s.clone();
        c.duration = (s.duration / 2.0).max(MIN_DURATION).ceil();
        c.faults.retain(|f| f.time < c.duration);
        push(c);
    }

    // Drop the whole fault campaign, then either half, then singles.
    if !s.faults.is_empty() {
        let mut c = s.clone();
        c.faults.clear();
        push(c);
        let mid = s.faults.len() / 2;
        if mid > 0 {
            let mut c = s.clone();
            c.faults.truncate(mid);
            push(c);
            let mut c = s.clone();
            c.faults.drain(..mid);
            push(c);
        }
        if s.faults.len() <= 8 {
            for drop in 0..s.faults.len() {
                let mut c = s.clone();
                c.faults.remove(drop);
                push(c);
            }
        }
    }

    // Fewer ships.
    if !s.ships.is_empty() {
        let mut c = s.clone();
        c.ships.clear();
        push(c);
        for drop in 0..s.ships.len() {
            let mut c = s.clone();
            c.ships.remove(drop);
            push(c);
        }
    }

    // Smaller grid. Shrinking the grid drops high-index nodes; fault
    // events aimed at them become harmless no-ops at injection time.
    // Meaningless while the fleet layer is present (fleet placement
    // ignores the grid shape); available again after the fleet drops.
    if s.rows > 2 && s.fleet.is_none() {
        let mut c = s.clone();
        c.rows -= 1;
        push(c);
    }
    if s.cols > 2 && s.fleet.is_none() {
        let mut c = s.clone();
        c.cols -= 1;
        push(c);
    }

    // Switch optional features off, one at a time.
    if s.burst_severity > 0.0 {
        let mut c = s.clone();
        c.burst_severity = 0.0;
        push(c);
    }
    if s.dead_node_fraction > 0.0 {
        let mut c = s.clone();
        c.dead_node_fraction = 0.0;
        push(c);
    }
    // The duty-cycle and free-form flips are meaningless while the
    // fleet layer is present (fleet placement ignores `free_form` and
    // forces duty cycling); they become available again once the
    // fleet-drop candidate above lands.
    if s.duty_cycle && s.fleet.is_none() {
        let mut c = s.clone();
        c.duty_cycle = false;
        push(c);
    }
    if s.free_form && s.fleet.is_none() {
        let mut c = s.clone();
        c.free_form = false;
        push(c);
    }

    // A quieter sea surface (fewer synthesized wave components).
    if s.sea_components > 16 {
        let mut c = s.clone();
        c.sea_components = (s.sea_components / 2).max(16);
        push(c);
    }

    out
}

/// Whether `scenario` still violates the named oracle. One simulation.
fn still_fails(scenario: &Scenario, sabotage: Sabotage, oracle: &str) -> bool {
    let report = execute(scenario, sabotage);
    check_all(&report).iter().any(|v| v.oracle == oracle)
}

/// Greedily minimizes `scenario` while the named oracle keeps failing,
/// spending at most `budget` simulation runs. The input is assumed to
/// already violate `oracle` (the caller just observed it); if it does
/// not, the original scenario comes back unshrunk.
pub fn shrink(
    scenario: &Scenario,
    sabotage: Sabotage,
    oracle: &str,
    budget: usize,
) -> ShrinkResult {
    let mut current = scenario.clone();
    let mut runs = 0usize;
    let mut shrunk = false;
    // Restart the candidate pass after every acceptance: earlier, more
    // aggressive transformations often become applicable again once a
    // later one lands.
    'passes: loop {
        for candidate in candidates(&current) {
            if runs >= budget {
                break 'passes;
            }
            runs += 1;
            if still_fails(&candidate, sabotage, oracle) {
                current = candidate;
                shrunk = true;
                continue 'passes;
            }
        }
        break;
    }
    ShrinkResult {
        scenario: current,
        runs,
        shrunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size(s: &Scenario) -> (u64, usize, usize, usize, usize, usize) {
        (
            s.duration as u64,
            s.faults.len(),
            s.ships.len(),
            s.node_count(),
            s.sea_components,
            s.variants.len()
                + usize::from(s.alert_storm)
                + usize::from(s.duty_cycle)
                + usize::from(s.free_form)
                + usize::from(s.burst_severity > 0.0)
                + usize::from(s.dead_node_fraction > 0.0),
        )
    }

    #[test]
    fn every_candidate_is_strictly_smaller() {
        for seed in 0..32 {
            for s in [Scenario::generate(seed), Scenario::fleet(seed)] {
                let base = size(&s);
                for c in candidates(&s) {
                    let cs = size(&c);
                    assert_ne!(cs, base, "candidate identical in size to its parent");
                    assert!(
                        cs.0 <= base.0
                            && cs.1 <= base.1
                            && cs.2 <= base.2
                            && cs.3 <= base.3
                            && cs.4 <= base.4
                            && cs.5 <= base.5,
                        "candidate grew along some axis: {cs:?} vs {base:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_floors_are_respected() {
        let mut s = Scenario::generate(1);
        s.duration = MIN_DURATION;
        s.rows = 2;
        s.cols = 2;
        s.sea_components = 16;
        s.faults.clear();
        s.ships.clear();
        s.burst_severity = 0.0;
        s.dead_node_fraction = 0.0;
        s.duty_cycle = false;
        s.free_form = false;
        s.variants.clear();
        s.alert_storm = false;
        s.fleet = None;
        assert!(
            candidates(&s).is_empty(),
            "a floor-sized scenario admits no further shrinking"
        );
    }

    #[test]
    fn fleet_size_shrinks_first() {
        let s = Scenario::fleet(3);
        let spec = s.fleet.expect("fleet class");
        let cands = candidates(&s);
        // The two fleet candidates lead: drop the fleet layer, then
        // halve the node count (pruning faults aimed at dropped nodes).
        assert!(cands[0].fleet.is_none());
        let halved = cands[1].fleet.expect("second candidate keeps fleet");
        assert_eq!(halved.nodes, (spec.nodes / 2).max(FLEET_MIN_NODES));
        assert!(cands[1]
            .faults
            .iter()
            .all(|f| (f.node as usize) < halved.nodes));
        // No meaningless flips while the fleet layer is present: fleet
        // placement ignores `free_form` and forces duty cycling.
        assert!(cands
            .iter()
            .filter(|c| c.fleet.is_some())
            .all(|c| c.duty_cycle && c.free_form));
    }

    #[test]
    fn fleet_node_floor_is_respected() {
        let mut s = Scenario::fleet(3);
        let spec = s.fleet.as_mut().expect("fleet class");
        spec.nodes = FLEET_MIN_NODES;
        // At the floor the halving candidate disappears, but the
        // fleet-drop candidate (and the rest of the pass) remains.
        let cands = candidates(&s);
        assert!(cands[0].fleet.is_none());
        assert!(cands.iter().all(|c| c
            .fleet
            .is_none_or(|f| f.nodes == FLEET_MIN_NODES)));
    }

    #[test]
    fn zero_budget_returns_the_original() {
        let s = Scenario::generate(11);
        let result = shrink(&s, Sabotage::None, "confirmed_implies_quorum", 0);
        assert_eq!(result.scenario, s);
        assert_eq!(result.runs, 0);
        assert!(!result.shrunk);
    }
}
