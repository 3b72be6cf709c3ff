//! Journal-driven invariant oracles.
//!
//! Each oracle replays the run's `sid-obs` event journal (plus the
//! pipeline trace and stage counts) and checks one invariant the SID
//! pipeline must uphold on *every* scenario — clean or chaotic. The
//! full battery runs in [`check_all`]; a passing run returns no
//! [`Violation`]s.
//!
//! The oracles (names are stable identifiers, used by the shrinker and
//! persisted in `results/DST_failures.json`):
//!
//! | oracle | invariant |
//! |---|---|
//! | `sink_no_double_accept` | the sink never accepts the same (head, time) alarm twice |
//! | `no_report_from_down_node` | a dead or outaged node emits no reports; battery death is final |
//! | `cluster_products_in_range` | `CNt`, `CNe`, `C` ∈ [0, 1] and `C = CNt × CNe` exactly (eq. 10–13) |
//! | `confirmed_implies_quorum` | confirmations meet the paper's nominal quorum (≥4 rows, ≥4 reports, C > 0.4) |
//! | `speed_estimates_physical` | sink speed estimates are finite and inside the physical bounds |
//! | `counts_match_journal` | `StageCounts` re-derived from the journal equals the live aggregation |
//! | `counts_match_trace` | journal counts agree with the pipeline's own `SystemTrace` |
//! | `gauges_non_negative` | wall gauges/timers are finite and non-negative |
//! | `time_monotone_and_bounded` | event times are non-decreasing and inside `[0, duration]` |
//! | `incident_ids_well_formed` | incident ids are allocated contiguously; duplicates reference known incidents |
//! | `outage_lifecycle` | `NodeUp` only follows an unrecovered outage; no event resurrects a dead node |
//! | `alert_suppression_correct` | an independent alert-edge replay reproduces every emit/suppress/coalesce/reload decision; no suppressed alert is lost without a matching summary record; token-bucket accounting is exact |
//! | `variant_equivalence` | every rerun in `scenario.variants` — wider worker pools, the `sid-stream` driver, the event-driven scheduler, spatial shards, and `sid-serve` two-advance and checkpoint/migrate/resume sessions — reproduces the baseline journal, stage counts and trace byte-for-byte (the serve legs: the journal fingerprint) |
//! | `frontend_equivalence` | on `Variant::LegacyFrontEnd` scenarios, the default rfft/Goertzel/Parseval fast spectral front-end and the legacy full-complex path agree on a seed-derived stream: alarms bit-identical, window verdicts equal, wavelet observable within 0.05 |

use sid_alert::{AlertEdge, AlertInput};
use sid_obs::{Event, StageCounts};
use sid_ocean::MPS_PER_KNOT;

use crate::scenario::{execute_variant, Rerun, RunReport, Sabotage, Variant};

/// One failed invariant: which oracle fired and a human-readable detail
/// naming the offending event(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle identifier (see the module table).
    pub oracle: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

fn fail(out: &mut Vec<Violation>, oracle: &'static str, detail: String) {
    out.push(Violation { oracle, detail });
}

/// Runs every oracle over one execution's journal, trace and counts,
/// then checks each entry of `scenario.variants` in order (each rerun
/// costs one extra simulation or `sid-serve` session).
pub fn check_all(report: &RunReport) -> Vec<Violation> {
    let mut v = Vec::new();
    sink_no_double_accept(report, &mut v);
    no_report_from_down_node(report, &mut v);
    cluster_products_in_range(report, &mut v);
    confirmed_implies_quorum(report, &mut v);
    speed_estimates_physical(report, &mut v);
    counts_match_journal(report, &mut v);
    counts_match_trace(report, &mut v);
    gauges_non_negative(report, &mut v);
    time_monotone_and_bounded(report, &mut v);
    incident_ids_well_formed(report, &mut v);
    outage_lifecycle(report, &mut v);
    alert_suppression_correct(report, &mut v);
    for &variant in &report.scenario.variants {
        if variant == Variant::LegacyFrontEnd {
            frontend_equivalence(report, &mut v);
        } else {
            variant_equivalence(report, variant, &mut v);
        }
    }
    v
}

/// The sink must file every accepted alarm exactly once: two
/// `SinkAccepted` events with the same (head, time) mean the duplicate
/// filter failed.
fn sink_no_double_accept(report: &RunReport, out: &mut Vec<Violation>) {
    let mut seen: Vec<(u32, u64)> = Vec::new();
    for event in &report.events {
        if let Event::SinkAccepted { time, head, .. } = event {
            let key = (*head, time.to_bits());
            if seen.contains(&key) {
                fail(
                    out,
                    "sink_no_double_accept",
                    format!("sink accepted head {head} twice at t={time:.3}"),
                );
            }
            seen.push(key);
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum NodeState {
    Up,
    Outage,
    Dead,
}

fn replay_node_state(events: &[Event], mut visit: impl FnMut(&Event, &[NodeState])) -> bool {
    let max_node = events.iter().filter_map(Event::node).max().unwrap_or(0);
    let mut state = vec![NodeState::Up; max_node as usize + 1];
    let mut well_formed = true;
    for event in events {
        visit(event, &state);
        match event {
            Event::NodeDown { node, reason, .. } => {
                let s = &mut state[*node as usize];
                match reason.as_str() {
                    // An outage can strike a node that is already out;
                    // a battery death can strike mid-outage. Both keep
                    // the node down.
                    "outage" if *s != NodeState::Dead => *s = NodeState::Outage,
                    "battery" if *s != NodeState::Dead => *s = NodeState::Dead,
                    _ => well_formed = false,
                }
            }
            Event::NodeUp { node, .. } => {
                let s = &mut state[*node as usize];
                if *s == NodeState::Outage {
                    *s = NodeState::Up;
                } else {
                    well_formed = false;
                }
            }
            _ => {}
        }
    }
    well_formed
}

/// A node that is powered off (battery death) or in a transient outage
/// cannot sample, so it must not emit reports or classifier verdicts.
fn no_report_from_down_node(report: &RunReport, out: &mut Vec<Violation>) {
    let mut bad: Vec<String> = Vec::new();
    replay_node_state(&report.events, |event, state| match event {
        Event::ReportEmitted { time, node, .. } | Event::ClassifierVerdict { time, node, .. }
            if state[*node as usize] != NodeState::Up =>
        {
            bad.push(format!(
                "{} from down node {node} at t={time:.3}",
                event.kind()
            ));
        }
        _ => {}
    });
    for detail in bad {
        fail(out, "no_report_from_down_node", detail);
    }
}

/// Eq. 10–13: the cluster products are probabilities-like factors in
/// `[0, 1]`, and the combined coefficient is exactly their product.
fn cluster_products_in_range(report: &RunReport, out: &mut Vec<Violation>) {
    for event in &report.events {
        if let Event::ClusterEvaluated {
            time,
            head,
            correlation,
            cnt,
            cne,
            ..
        } = event
        {
            for (name, value) in [("C", *correlation), ("CNt", *cnt), ("CNe", *cne)] {
                if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                    fail(
                        out,
                        "cluster_products_in_range",
                        format!("{name}={value} outside [0,1] at head {head}, t={time:.3}"),
                    );
                }
            }
            // Same f64 multiply the pipeline performs: bit-exact.
            if *correlation != cnt * cne {
                fail(
                    out,
                    "cluster_products_in_range",
                    format!(
                        "C={correlation} != CNt*CNe={} at head {head}, t={time:.3}",
                        cnt * cne
                    ),
                );
            }
        }
    }
}

/// Every confirmed cluster evaluation (and every sink accept) must meet
/// the paper's *nominal* decision thresholds — eq. 13's `C > 0.4` over
/// at least `min_rows` rows with a full report quorum. A build whose
/// quorum constants were tampered with trips this oracle.
fn confirmed_implies_quorum(report: &RunReport, out: &mut Vec<Violation>) {
    let nominal = report.scenario.config(Sabotage::None).cluster;
    for event in &report.events {
        match event {
            Event::ClusterEvaluated {
                time,
                head,
                reports,
                rows,
                correlation,
                quorum_met,
                confirmed: true,
                ..
            } => {
                if *rows < nominal.correlation.min_rows as u64 {
                    fail(
                        out,
                        "confirmed_implies_quorum",
                        format!(
                            "confirmation with {rows} rows (< {}) at head {head}, t={time:.3}",
                            nominal.correlation.min_rows
                        ),
                    );
                }
                if *correlation <= nominal.correlation.c_threshold {
                    fail(
                        out,
                        "confirmed_implies_quorum",
                        format!(
                            "confirmation with C={correlation} <= {} at head {head}, t={time:.3}",
                            nominal.correlation.c_threshold
                        ),
                    );
                }
                if *reports < nominal.min_reports as u64 || !quorum_met {
                    fail(
                        out,
                        "confirmed_implies_quorum",
                        format!(
                            "confirmation with {reports} reports (quorum {}, met={quorum_met}) \
                             at head {head}, t={time:.3}",
                            nominal.min_reports
                        ),
                    );
                }
            }
            Event::SinkAccepted {
                time,
                head,
                correlation,
                ..
            } if !correlation.is_finite()
                || *correlation <= nominal.correlation.c_threshold
                || *correlation > 1.0 =>
            {
                fail(
                    out,
                    "confirmed_implies_quorum",
                    format!(
                        "sink accepted C={correlation} outside ({}, 1] from head {head}, \
                         t={time:.3}",
                        nominal.correlation.c_threshold
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Confirmed detections carry speed/track estimates only when the wake
/// geometry allowed one; when present they must be finite and inside
/// the estimator's physical bounds (0.5–30 m/s, α ∈ [0°, 180°]).
fn speed_estimates_physical(report: &RunReport, out: &mut Vec<Violation>) {
    for det in &report.trace.sink_detections {
        if let Some(knots) = det.speed_knots {
            let mps = knots * MPS_PER_KNOT;
            if !knots.is_finite() || !(0.45..=30.5).contains(&mps) {
                fail(
                    out,
                    "speed_estimates_physical",
                    format!(
                        "speed {knots} kn ({mps:.2} m/s) outside [0.5, 30] m/s from head {}",
                        det.head.value()
                    ),
                );
            }
        }
        if let Some(alpha) = det.track_angle_deg {
            if !alpha.is_finite() || !(0.0..=180.0).contains(&alpha) {
                fail(
                    out,
                    "speed_estimates_physical",
                    format!(
                        "track angle {alpha}° outside [0°, 180°] from head {}",
                        det.head.value()
                    ),
                );
            }
        }
    }
}

/// `StageCounts` is defined as a pure fold over the journal; the live
/// aggregation the recorder kept must equal the re-derived fold.
fn counts_match_journal(report: &RunReport, out: &mut Vec<Violation>) {
    let rederived = StageCounts::from_events(&report.events);
    if rederived != report.counts {
        fail(
            out,
            "counts_match_journal",
            format!(
                "live counts {:?} != journal-derived {:?}",
                report.counts, rederived
            ),
        );
    }
}

/// The journal and the pipeline's `SystemTrace` are two independent
/// recordings of the same run; their shared counters must agree.
fn counts_match_trace(report: &RunReport, out: &mut Vec<Violation>) {
    let c = &report.counts;
    let t = &report.trace;
    let confirmed = t.cluster_outcomes.iter().filter(|o| o.confirmed).count();
    let checks: [(&str, u64, u64); 8] = [
        ("node reports", c.node_reports_emitted, t.node_reports.len() as u64),
        ("clusters formed", c.clusters_formed, t.clusters_formed as u64),
        (
            "clusters evaluated",
            c.clusters_evaluated,
            t.cluster_outcomes.len() as u64,
        ),
        ("clusters confirmed", c.clusters_confirmed, confirmed as u64),
        ("head failovers", c.head_failovers, t.head_failovers as u64),
        (
            "degraded evaluations",
            c.degraded_evaluations,
            t.degraded_evaluations as u64,
        ),
        ("faults applied", c.faults_injected, t.faults_applied as u64),
        (
            "sink deliveries",
            c.sink_accepted + c.sink_duplicates_dropped,
            t.sink_detections.len() as u64,
        ),
    ];
    for (what, journal, trace) in checks {
        if journal != trace {
            fail(
                out,
                "counts_match_trace",
                format!("{what}: journal counted {journal}, trace recorded {trace}"),
            );
        }
    }
}

/// Wall-clock instrumentation can never go negative or non-finite, no
/// matter how the scheduler interleaved the run.
fn gauges_non_negative(report: &RunReport, out: &mut Vec<Violation>) {
    for stage in &report.wall.stages {
        if !stage.secs.is_finite() || stage.secs < 0.0 {
            fail(
                out,
                "gauges_non_negative",
                format!("stage {} recorded {} seconds", stage.stage, stage.secs),
            );
        }
    }
    for gauge in &report.wall.gauges {
        if !gauge.max.is_finite() || gauge.max < 0.0 {
            fail(
                out,
                "gauges_non_negative",
                format!("gauge {} peaked at {}", gauge.gauge, gauge.max),
            );
        }
    }
}

/// Simulated time only moves forward, and no event can be stamped
/// outside the run's `[0, duration]` window.
fn time_monotone_and_bounded(report: &RunReport, out: &mut Vec<Violation>) {
    let mut prev = 0.0_f64;
    let limit = report.scenario.duration + 0.5;
    for event in &report.events {
        let Some(time) = event.time() else { continue };
        if !time.is_finite() || time < prev || time > limit {
            fail(
                out,
                "time_monotone_and_bounded",
                format!(
                    "{} at t={time} after t={prev} (run duration {})",
                    event.kind(),
                    report.scenario.duration
                ),
            );
        }
        prev = prev.max(time);
    }
}

/// Incident ids are allocated contiguously from 0 as detections arrive;
/// a duplicate drop must reference an incident that already exists.
fn incident_ids_well_formed(report: &RunReport, out: &mut Vec<Violation>) {
    let mut next_fresh = 0u32;
    for event in &report.events {
        match event {
            Event::SinkAccepted { time, incident, .. } => {
                if *incident > next_fresh {
                    fail(
                        out,
                        "incident_ids_well_formed",
                        format!(
                            "incident {incident} accepted at t={time:.3} before \
                             {next_fresh} existed"
                        ),
                    );
                } else if *incident == next_fresh {
                    next_fresh += 1;
                }
            }
            Event::SinkDuplicateDropped { time, incident, .. } if *incident >= next_fresh => {
                fail(
                    out,
                    "incident_ids_well_formed",
                    format!("duplicate filed under unknown incident {incident} at t={time:.3}"),
                );
            }
            _ => {}
        }
    }
}

/// `NodeUp` may only follow an unrecovered outage, outage/battery downs
/// may not strike a dead node, and reason strings are from the known
/// set. (Report emission from down nodes is `no_report_from_down_node`.)
fn outage_lifecycle(report: &RunReport, out: &mut Vec<Violation>) {
    if !replay_node_state(&report.events, |_, _| {}) {
        fail(
            out,
            "outage_lifecycle",
            "node up/down events do not form a valid lifecycle \
             (NodeUp without an outage, an event on a dead node, or an \
             unknown down-reason)"
                .to_string(),
        );
    }
}

/// Whether an alert/reload journal event participates in the
/// alert-suppression replay comparison. `Warning` events are *not*
/// compared: the pipeline journals one alongside every reload
/// rejection, but warnings are a shared channel other stages write to.
fn is_alert_event(event: &Event) -> bool {
    matches!(
        event,
        Event::AlertEmitted { .. }
            | Event::AlertSuppressed { .. }
            | Event::AlertCoalesced { .. }
            | Event::ConfigReloaded { .. }
            | Event::ConfigReloadRejected { .. }
    )
}

/// Replays the run's alerting edge independently: a fresh `AlertEdge`
/// built from the scenario's alert config is driven over the journal's
/// `SinkAccepted` stream on the pipeline's own tick grid (`now += dt`
/// accumulation, retunes applied at tick tops, summaries flushed at
/// tick ends) and must reproduce the journal's alert/reload events
/// one-for-one. On top of the 1:1 comparison, the suppression ledger
/// must balance: every `AlertSuppressed` is either covered by a later
/// `AlertCoalesced` summary or still pending inside the edge at run
/// end — an alert can be rate-limited, never silently lost.
fn alert_suppression_correct(report: &RunReport, out: &mut Vec<Violation>) {
    let scenario = &report.scenario;
    let config = scenario.config(report.sabotage);
    let mut edge = AlertEdge::new(config.alert);
    let mut detector = config.detector;
    let mut cluster = config.cluster;
    let mut tracker = sid_core::TrackerConfig::default();
    let mut retunes = scenario.retunes();

    // The non-duplicate accepts the pipeline fed its edge, keyed by the
    // bit pattern of their tick time (the replay clock reproduces the
    // pipeline's `now += dt` accumulation bit-for-bit).
    let mut accepts = std::collections::VecDeque::new();
    for event in &report.events {
        if let Event::SinkAccepted {
            time,
            head,
            incident,
            correlation,
        } = event
        {
            accepts.push_back((time.to_bits(), *incident, *head, *correlation));
        }
    }

    let mut expected: Vec<Event> = Vec::new();
    // Retunes cannot touch `sample_rate`, so the tick grid is fixed by
    // the initial config — same computation as `Pipeline::run`.
    let dt = 1.0 / detector.sample_rate;
    let steps = sid_core::pipeline::ticks_in(scenario.duration, dt);
    let mut now = 0.0_f64;
    for _ in 0..steps {
        now += dt;
        while retunes.first().is_some_and(|&(t, _)| t <= now) {
            let (_, retune) = retunes.remove(0);
            match retune.validated(&detector, &cluster, &tracker) {
                Ok((d, c, t)) => {
                    detector = d;
                    cluster = c;
                    tracker = t;
                    expected.push(Event::ConfigReloaded {
                        time: now,
                        changes: retune.describe(),
                    });
                }
                Err(err) => expected.push(Event::ConfigReloadRejected {
                    time: now,
                    reason: err.to_string(),
                }),
            }
        }
        while accepts
            .front()
            .is_some_and(|&(bits, ..)| bits == now.to_bits())
        {
            let (_, incident, head, correlation) = accepts.pop_front().expect("front exists");
            expected.extend(edge.ingest(AlertInput {
                time: now,
                incident,
                head,
                correlation,
            }));
        }
        expected.extend(edge.flush_due(now));
    }
    if let Some(&(bits, incident, head, _)) = accepts.front() {
        fail(
            out,
            "alert_suppression_correct",
            format!(
                "sink accept (incident {incident}, head {head}) at t={} is not aligned \
                 to the tick grid",
                f64::from_bits(bits)
            ),
        );
        return;
    }

    // 1:1 comparison against the journal's alert/reload events.
    let journaled: Vec<&Event> = report.events.iter().filter(|e| is_alert_event(e)).collect();
    if let Some((idx, (journal, replay))) = journaled
        .iter()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .take(journaled.len().max(expected.len()))
        .enumerate()
        .find_map(|(idx, pair)| match pair {
            (Some(j), Some(r)) if **j == *r => None,
            (j, r) => Some((idx, (j.map(|e| format!("{e:?}")), r.map(|e| format!("{e:?}"))))),
        })
    {
        fail(
            out,
            "alert_suppression_correct",
            format!(
                "alert event {idx} diverged: journal {} vs replay {}",
                journal.as_deref().unwrap_or("<missing>"),
                replay.as_deref().unwrap_or("<missing>")
            ),
        );
        return;
    }

    // Suppression ledger: every rate-limited alert is covered by a
    // summary or still pending at run end — exact accounting, no loss.
    let suppressed = journaled
        .iter()
        .filter(|e| matches!(e, Event::AlertSuppressed { .. }))
        .count() as u64;
    let coalesced: u64 = journaled
        .iter()
        .filter_map(|e| match e {
            Event::AlertCoalesced { suppressed, .. } => Some(*suppressed),
            _ => None,
        })
        .sum();
    if coalesced + edge.pending_suppressed() != suppressed {
        fail(
            out,
            "alert_suppression_correct",
            format!(
                "suppression ledger out of balance: {suppressed} suppressed, \
                 {coalesced} coalesced into summaries, {} still pending",
                edge.pending_suppressed()
            ),
        );
    }
}

/// The differential contract: the journal is a pure function of the
/// scenario, so thread count, the streaming driver, the event-driven
/// scheduler, spatial sharding and `sid-serve` session chunking or
/// migration are execution strategies, never semantic changes. The
/// `variant` rerun must reproduce the baseline journal, stage counts and
/// trace byte-for-byte; the serve legs expose only a journal
/// fingerprint, and a failed serve call is itself a violation.
fn variant_equivalence(report: &RunReport, variant: Variant, out: &mut Vec<Violation>) {
    let diverged = match execute_variant(&report.scenario, report.sabotage, variant) {
        Err(err) => Some(err),
        Ok(Rerun::Report(rerun)) => {
            if rerun.journal != report.journal {
                Some("journal diverged".to_string())
            } else if rerun.counts != report.counts {
                Some("stage counts diverged".to_string())
            } else if rerun.trace != report.trace {
                Some("trace diverged".to_string())
            } else {
                None
            }
        }
        Ok(Rerun::Fingerprint(rerun)) => {
            let baseline = sid_obs::fnv1a(0, report.journal.as_bytes());
            (rerun != baseline)
                .then(|| format!("journal diverged ({rerun:016x} vs {baseline:016x})"))
        }
    };
    if let Some(what) = diverged {
        fail(out, "variant_equivalence", format!("{variant:?}: {what}"));
    }
}

/// The spectral front-end contract. Two [`sid_stream::StreamEngine`]s —
/// one on the default rfft + Goertzel + Parseval-wavelet fast path, one
/// on the legacy full-complex spectral path — consume an identical
/// seed-derived stream (a calm-harbor baseline with ship-like bursts)
/// and must agree on every discrete decision:
///
/// * alarms are bit-identical (the detector path never touches the
///   spectral front-end, so any difference is a wiring bug);
/// * window outputs pair up with equal node, end sample, peak frequency
///   and class verdict (the fast path's ≲1e-14 relative spectral error
///   cannot move a discrete verdict on a non-degenerate stream);
/// * the continuous wavelet observable (`low_frequency_fraction`)
///   stays within the documented 0.05 tolerance between the Parseval
///   fast path and the truncated time-domain convolution.
fn frontend_equivalence(report: &RunReport, out: &mut Vec<Violation>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sid_core::FrontEnd;
    use sid_stream::{StreamConfig, StreamEngine, StreamOutput};

    const NODES: usize = 2;
    let mut fast_config = StreamConfig::paper_default();
    fast_config.classifier.stft.frame_len = 256;
    fast_config.classifier.stft.hop = 128;
    fast_config.ring_capacity = 512;
    let mut legacy_config = fast_config;
    fast_config.classifier.front_end = FrontEnd::Fast;
    legacy_config.classifier.front_end = FrontEnd::Legacy;

    // Seed-derived burst parameters: onset, amplitude and carrier vary
    // per scenario so the sweep covers alarm-heavy and quiet streams.
    let mut rng = StdRng::seed_from_u64(report.scenario.seed ^ 0x0F40_07E4);
    let fs = fast_config.detector.sample_rate;
    let total = (fs * 90.0) as usize;
    let bursts: Vec<(f64, f64, f64)> = (0..NODES)
        .map(|_| {
            (
                rng.gen_range(30.0..60.0),
                rng.gen_range(60.0..160.0),
                rng.gen_range(0.25..0.6),
            )
        })
        .collect();
    let sample = |node: usize, i: usize| -> f64 {
        let t = i as f64 / fs;
        let (t0, amp, carrier) = bursts[node];
        let env = (-0.5 * ((t - t0) / 1.5f64).powi(2)).exp();
        1024.0
            + 15.0 * (2.0 * std::f64::consts::PI * 0.3 * t).sin()
            + 5.0 * (2.0 * std::f64::consts::PI * 0.7 * t + 1.0).sin()
            + amp * env * (2.0 * std::f64::consts::PI * carrier * (t - t0)).sin()
    };

    let pool = sid_exec::Pool::new(1);
    let run = |config: StreamConfig| -> Vec<StreamOutput> {
        let mut engine = StreamEngine::new(config, NODES).expect("frontend config valid");
        let mut outputs = Vec::new();
        let mut start = 0usize;
        while start < total {
            let end = (start + 256).min(total);
            for node in 0..NODES {
                let chunk: Vec<f64> = (start..end).map(|i| sample(node, i)).collect();
                let accepted = engine.push_chunk(node, &chunk);
                debug_assert_eq!(accepted, chunk.len(), "ring sized for the chunk cadence");
            }
            outputs.extend(engine.pump(&pool));
            start = end;
        }
        outputs
    };
    let fast = run(fast_config);
    let legacy = run(legacy_config);

    if let Some(detail) = front_end_divergence(&fast, &legacy) {
        fail(out, "frontend_equivalence", detail);
    }
}

/// The first disagreement between the fast and legacy output streams.
fn front_end_divergence(
    fast: &[sid_stream::StreamOutput],
    legacy: &[sid_stream::StreamOutput],
) -> Option<String> {
    use sid_stream::StreamOutput::{Alarm, Window};

    if fast.len() != legacy.len() {
        return Some(format!(
            "fast front-end produced {} outputs, legacy {}",
            fast.len(),
            legacy.len()
        ));
    }
    if !fast.iter().any(|o| matches!(o, Window { .. })) {
        return Some("comparison stream completed no windows — the check is vacuous".to_string());
    }
    fast.iter()
        .zip(legacy)
        .enumerate()
        .find_map(|(i, (f, l))| match (f, l) {
            (Alarm { node: fa, report: fr }, Alarm { node: la, report: lr }) => (fa != la
                || fr != lr)
                .then(|| format!("alarm {i} diverged between front-ends: {f:?} vs {l:?}")),
            (
                Window {
                    node: fa,
                    end_sample: fe,
                    peak_hz: fp,
                    classification: fc,
                },
                Window {
                    node: la,
                    end_sample: le,
                    peak_hz: lp,
                    classification: lc,
                },
            ) => {
                if fa != la || fe != le || fp != lp || fc.class != lc.class {
                    return Some(format!("window {i} verdict diverged: {f:?} vs {l:?}"));
                }
                let drift = (fc.low_frequency_fraction - lc.low_frequency_fraction).abs();
                (!drift.is_finite() || drift > 0.05).then(|| {
                    format!(
                        "window {i} wavelet observable drifted {drift:.4} \
                         (fast {:.4} vs legacy {:.4})",
                        fc.low_frequency_fraction, lc.low_frequency_fraction
                    )
                })
            }
            _ => Some(format!("output {i} kind diverged: {f:?} vs {l:?}")),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{execute, Scenario};

    fn clean_report() -> RunReport {
        // Seed 3 draws a small grid; keep the oracle unit tests cheap.
        let mut scenario = Scenario::generate(3);
        scenario.duration = 60.0;
        scenario.variants.clear();
        execute(&scenario, Sabotage::None)
    }

    #[test]
    fn frontend_equivalence_holds_on_seeded_streams() {
        let report = clean_report();
        let mut violations = Vec::new();
        frontend_equivalence(&report, &mut violations);
        assert!(violations.is_empty(), "unexpected violations: {violations:?}");
    }

    #[test]
    fn clean_run_passes_every_oracle() {
        let report = clean_report();
        let violations = check_all(&report);
        assert!(violations.is_empty(), "unexpected violations: {violations:?}");
    }

    #[test]
    fn tampered_journal_trips_the_matching_oracles() {
        let mut report = clean_report();
        // Splice in a report from a node that just died.
        report.events.push(Event::NodeDown {
            time: report.scenario.duration,
            node: 1,
            reason: "battery".to_string(),
        });
        report.events.push(Event::ReportEmitted {
            time: report.scenario.duration,
            node: 1,
            onset: 0.0,
            anomaly_frequency: 0.9,
            energy: 10.0,
        });
        let violations = check_all(&report);
        assert!(violations.iter().any(|v| v.oracle == "no_report_from_down_node"));
        // The splice also desynchronized the live counts from the journal.
        assert!(violations.iter().any(|v| v.oracle == "counts_match_journal"));
    }

    #[test]
    fn double_accept_and_bad_products_are_caught() {
        let mut report = clean_report();
        for _ in 0..2 {
            report.events.push(Event::SinkAccepted {
                time: report.scenario.duration,
                head: 7,
                incident: 0,
                correlation: 0.9,
            });
        }
        report.events.push(Event::ClusterEvaluated {
            time: report.scenario.duration,
            head: 7,
            reports: 5,
            rows: 4,
            correlation: 1.7,
            cnt: 1.3,
            cne: 1.3,
            quorum_met: true,
            confirmed: false,
            degraded: false,
        });
        let violations = check_all(&report);
        assert!(violations.iter().any(|v| v.oracle == "sink_no_double_accept"));
        assert!(violations.iter().any(|v| v.oracle == "cluster_products_in_range"));
        // incident 0 was legitimately fresh on its first accept; the
        // duplicate accept is the double-accept oracle's job, not the
        // id-allocation oracle's.
    }

    #[test]
    fn tampered_baseline_fails_every_listed_variant() {
        let mut scenario = Scenario::generate(3);
        scenario.duration = 20.0;
        scenario.variants.clear();
        let mut report = execute(&scenario, Sabotage::None);
        // Every rerun kind: threads and streamed (seed 16), events (2),
        // sharded and both serve legs (5).
        report.scenario.variants = [16, 2, 5].into_iter().flat_map(Variant::for_seed).collect();
        report.journal.push('\n');
        let violations: Vec<Violation> = check_all(&report)
            .into_iter()
            .filter(|v| v.oracle == "variant_equivalence")
            .collect();
        // One violation per variant, in list order: the oracle checks
        // every rerun instead of stopping at the first divergence.
        assert_eq!(violations.len(), report.scenario.variants.len(), "{violations:?}");
        for (v, variant) in violations.iter().zip(&report.scenario.variants) {
            assert!(v.detail.starts_with(&format!("{variant:?}: ")), "{v:?}");
        }
    }

    #[test]
    fn time_regression_is_caught() {
        let mut report = clean_report();
        report.events.push(Event::ClusterFormed {
            time: -1.0,
            head: 2,
        });
        let violations = check_all(&report);
        assert!(violations
            .iter()
            .any(|v| v.oracle == "time_monotone_and_bounded"));
    }
}
