//! The alerting edge: the pipeline stage after sink-side incident
//! tracking, deciding for every confirmed detection whether to emit an
//! operator alert now, rate-limit it, or coalesce a storm of repeats
//! into one summary alert.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use sid_obs::Event;

use crate::bucket::TokenBucket;
use crate::severity::Severity;

/// Alerting-edge knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlertConfig {
    /// Token-bucket capacity per incident: how many alerts one incident
    /// may emit back-to-back before rate limiting kicks in.
    pub bucket_capacity: f64,
    /// Token refill rate per simulated second (0.05 = one banked alert
    /// every 20 s).
    pub refill_per_sec: f64,
    /// How long suppressed repeats accumulate before they are coalesced
    /// into a summary alert, if no emission flushes them earlier.
    pub summary_after_secs: f64,
    /// Exported alerts retained in the bounded outbox; older alerts are
    /// evicted (counted, never silently).
    pub retain: usize,
}

impl Default for AlertConfig {
    /// Four back-to-back alerts per incident, one banked alert every
    /// 20 s, 30 s summary cadence, 1024-alert outbox.
    fn default() -> Self {
        AlertConfig {
            bucket_capacity: 4.0,
            refill_per_sec: 0.05,
            summary_after_secs: 30.0,
            retain: 1024,
        }
    }
}

impl AlertConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    /// Returns a description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bucket_capacity.is_finite() || self.bucket_capacity < 1.0 {
            return Err("bucket_capacity must be at least 1".into());
        }
        if !self.refill_per_sec.is_finite() || self.refill_per_sec <= 0.0 {
            return Err("refill_per_sec must be positive".into());
        }
        if !self.summary_after_secs.is_finite() || self.summary_after_secs <= 0.0 {
            return Err("summary_after_secs must be positive".into());
        }
        if self.retain == 0 {
            return Err("retain must be at least 1".into());
        }
        Ok(())
    }
}

/// What kind of alert a retained [`Alert`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// First alert ever emitted for its incident.
    Fresh,
    /// A later emission for an already-alerted incident.
    Update,
    /// A coalesced summary of rate-limited repeats.
    Summary,
}

impl AlertKind {
    /// Stable lowercase name, used in wire formats.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Fresh => "fresh",
            AlertKind::Update => "update",
            AlertKind::Summary => "summary",
        }
    }
}

/// One exported alert, as retained in the bounded outbox and rendered
/// by the wire formats (JSONL / CEF).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Simulated emission time (s).
    pub time: f64,
    /// Incident the alert concerns.
    pub incident: u32,
    /// Cluster head behind the (last) confirmation.
    pub head: u32,
    /// Fresh incident, update, or coalesced summary.
    pub kind: AlertKind,
    /// Severity grade (for summaries: the highest among the repeats).
    pub severity: Severity,
    /// Confirming correlation coefficient (absent on summaries).
    pub correlation: Option<f64>,
    /// Repeats coalesced into this alert (0 unless a summary).
    pub suppressed: u64,
    /// For summaries, the first coalesced repeat's time; otherwise the
    /// emission time.
    pub first_time: f64,
    /// Free-form operator note. Untrusted text: wire formats escape it.
    pub note: String,
}

/// One confirmed detection arriving at the edge (a non-duplicate sink
/// acceptance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertInput {
    /// Simulated time (s).
    pub time: f64,
    /// Incident the sink filed the detection under.
    pub incident: u32,
    /// Confirming cluster head.
    pub head: u32,
    /// Correlation coefficient of the confirmation.
    pub correlation: f64,
}

/// Per-incident rate-limiting and suppression-bookkeeping state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SourceState {
    /// The incident this state belongs to.
    incident: u32,
    bucket: TokenBucket,
    /// Alerts emitted for this incident so far (Fresh vs Update).
    emitted: u64,
    /// Suppressed repeats awaiting coalescing.
    pending: u64,
    first_sup: f64,
    last_sup: f64,
    max_severity: Severity,
    last_head: u32,
    /// When the pending repeats are due for a summary flush.
    due_at: f64,
}

/// The alerting edge. All state advances on the sequential per-tick
/// path with simulated time, so the edge — like the journal events it
/// produces — is deterministic at any worker-pool size.
///
/// The suppression contract: every confirmed detection produces exactly
/// one of `AlertEmitted` or `AlertSuppressed`, and every suppressed
/// repeat is eventually covered by an `AlertCoalesced` summary (or is
/// still pending, visible via [`AlertEdge::pending_suppressed`]).
/// Nothing is ever silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEdge {
    config: AlertConfig,
    /// Per-incident states, sorted by incident id (kept sorted so that
    /// summary flushes walk incidents in a deterministic order).
    sources: Vec<SourceState>,
    /// Bounded outbox of exported alerts, oldest first.
    alerts: VecDeque<Alert>,
    emitted: u64,
    suppressed: u64,
    summaries: u64,
    evicted: u64,
}

impl AlertEdge {
    /// A fresh edge.
    ///
    /// # Panics
    /// Panics if `config` fails [`AlertConfig::validate`] — the edge is
    /// constructed from an already-validated system config; hot reloads
    /// go through the fallible validation path instead.
    #[track_caller]
    pub fn new(config: AlertConfig) -> Self {
        if let Err(err) = config.validate() {
            panic!("invalid alert config: {err}");
        }
        AlertEdge {
            config,
            sources: Vec::new(),
            alerts: VecDeque::new(),
            emitted: 0,
            suppressed: 0,
            summaries: 0,
            evicted: 0,
        }
    }

    /// Admits one confirmed detection, returning the journal events the
    /// decision produced (emit, suppress, and/or coalesce). The caller
    /// records them; the edge itself mutates identically whether or not
    /// observability is enabled.
    pub fn ingest(&mut self, input: AlertInput) -> Vec<Event> {
        let mut events = Vec::new();
        let severity = Severity::grade(input.correlation);
        let config = self.config;
        let idx = match self
            .sources
            .binary_search_by_key(&input.incident, |s| s.incident)
        {
            Ok(idx) => idx,
            Err(idx) => {
                self.sources.insert(
                    idx,
                    SourceState {
                        incident: input.incident,
                        bucket: TokenBucket::full(
                            config.bucket_capacity,
                            config.refill_per_sec,
                            input.time,
                        ),
                        emitted: 0,
                        pending: 0,
                        first_sup: input.time,
                        last_sup: input.time,
                        max_severity: severity,
                        last_head: input.head,
                        due_at: input.time,
                    },
                );
                idx
            }
        };
        let state = &mut self.sources[idx];
        if state.bucket.try_take(input.time) {
            // An emission flushes any pending summary first, so the
            // journal always reads suppression bookkeeping before the
            // alert that follows it.
            if state.pending > 0 {
                let summary = Alert {
                    time: input.time,
                    incident: state.incident,
                    head: state.last_head,
                    kind: AlertKind::Summary,
                    severity: state.max_severity,
                    correlation: None,
                    suppressed: state.pending,
                    first_time: state.first_sup,
                    note: format!("{} repeats coalesced", state.pending),
                };
                events.push(Event::AlertCoalesced {
                    time: input.time,
                    incident: state.incident,
                    suppressed: state.pending,
                    first_time: state.first_sup,
                    last_time: state.last_sup,
                    severity: state.max_severity.name().to_string(),
                });
                state.pending = 0;
                self.summaries += 1;
                if self.alerts.len() == config.retain {
                    self.alerts.pop_front();
                    self.evicted += 1;
                }
                self.alerts.push_back(summary);
                let state = &mut self.sources[idx];
                state.max_severity = severity;
            }
            let state = &mut self.sources[idx];
            let kind = if state.emitted == 0 {
                AlertKind::Fresh
            } else {
                AlertKind::Update
            };
            state.emitted += 1;
            state.last_head = input.head;
            let incident = state.incident;
            self.emitted += 1;
            events.push(Event::AlertEmitted {
                time: input.time,
                incident,
                head: input.head,
                severity: severity.name().to_string(),
                correlation: input.correlation,
            });
            if self.alerts.len() == config.retain {
                self.alerts.pop_front();
                self.evicted += 1;
            }
            self.alerts.push_back(Alert {
                time: input.time,
                incident,
                head: input.head,
                kind,
                severity,
                correlation: Some(input.correlation),
                suppressed: 0,
                first_time: input.time,
                note: String::new(),
            });
        } else {
            // Rate-limited: account the repeat, never drop it silently.
            if state.pending == 0 {
                state.first_sup = input.time;
                state.max_severity = severity;
                state.due_at = input.time + config.summary_after_secs;
            } else {
                state.max_severity = state.max_severity.max(severity);
            }
            state.pending += 1;
            state.last_sup = input.time;
            state.last_head = input.head;
            self.suppressed += 1;
            events.push(Event::AlertSuppressed {
                time: input.time,
                incident: input.incident,
                head: input.head,
                severity: severity.name().to_string(),
            });
        }
        events
    }

    /// Coalesces every incident whose pending repeats have aged past
    /// their summary deadline into one summary alert each, in ascending
    /// incident order. Called once per tick, after deliveries.
    pub fn flush_due(&mut self, now: f64) -> Vec<Event> {
        let mut events = Vec::new();
        for idx in 0..self.sources.len() {
            let state = &mut self.sources[idx];
            if state.pending == 0 || now < state.due_at {
                continue;
            }
            events.push(Event::AlertCoalesced {
                time: now,
                incident: state.incident,
                suppressed: state.pending,
                first_time: state.first_sup,
                last_time: state.last_sup,
                severity: state.max_severity.name().to_string(),
            });
            let summary = Alert {
                time: now,
                incident: state.incident,
                head: state.last_head,
                kind: AlertKind::Summary,
                severity: state.max_severity,
                correlation: None,
                suppressed: state.pending,
                first_time: state.first_sup,
                note: format!("{} repeats coalesced", state.pending),
            };
            state.pending = 0;
            self.summaries += 1;
            if self.alerts.len() == self.config.retain {
                self.alerts.pop_front();
                self.evicted += 1;
            }
            self.alerts.push_back(summary);
        }
        events
    }

    /// The retained outbox, oldest alert first.
    pub fn alerts(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter()
    }

    /// Alerts emitted (Fresh + Update; summaries not included).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Repeats suppressed in total.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed
    }

    /// Summary alerts coalesced.
    pub fn summaries(&self) -> u64 {
        self.summaries
    }

    /// Suppressed repeats not yet covered by a summary.
    pub fn pending_suppressed(&self) -> u64 {
        self.sources.iter().map(|s| s.pending).sum()
    }

    /// Alerts evicted from the bounded outbox.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The edge's configuration.
    pub fn config(&self) -> AlertConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(capacity: f64, refill: f64, summary_after: f64) -> AlertEdge {
        AlertEdge::new(AlertConfig {
            bucket_capacity: capacity,
            refill_per_sec: refill,
            summary_after_secs: summary_after,
            retain: 8,
        })
    }

    fn input(time: f64, incident: u32, correlation: f64) -> AlertInput {
        AlertInput {
            time,
            incident,
            head: 4,
            correlation,
        }
    }

    #[test]
    fn first_detection_emits_a_fresh_alert() {
        let mut e = edge(2.0, 0.01, 30.0);
        let events = e.ingest(input(10.0, 0, 0.9));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::AlertEmitted { incident: 0, .. }));
        let alerts: Vec<_> = e.alerts().collect();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Fresh);
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(e.emitted(), 1);
    }

    #[test]
    fn storm_is_suppressed_then_coalesced_on_deadline() {
        let mut e = edge(1.0, 0.001, 10.0);
        assert!(matches!(
            e.ingest(input(0.0, 0, 0.8))[0],
            Event::AlertEmitted { .. }
        ));
        for k in 1..=5 {
            let events = e.ingest(input(k as f64, 0, 0.6));
            assert!(matches!(events[0], Event::AlertSuppressed { .. }));
        }
        assert_eq!(e.suppressed_total(), 5);
        assert_eq!(e.pending_suppressed(), 5);
        assert!(e.flush_due(5.0).is_empty(), "deadline is first_sup + 10");
        let events = e.flush_due(11.0);
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::AlertCoalesced {
                suppressed,
                first_time,
                last_time,
                severity,
                ..
            } => {
                assert_eq!(*suppressed, 5);
                assert_eq!(*first_time, 1.0);
                assert_eq!(*last_time, 5.0);
                assert_eq!(severity, "elevated");
            }
            other => panic!("expected a summary, got {other:?}"),
        }
        assert_eq!(e.pending_suppressed(), 0);
        assert_eq!(e.summaries(), 1);
        // Accounting: every suppression is covered by the summary.
        assert_eq!(e.suppressed_total(), 5);
    }

    #[test]
    fn emission_flushes_pending_summary_first() {
        let mut e = edge(1.0, 0.1, 1000.0);
        e.ingest(input(0.0, 0, 0.9));
        e.ingest(input(1.0, 0, 0.6));
        e.ingest(input(2.0, 0, 0.75));
        // By t=12 the bucket has refilled one token; the emission must
        // flush the 2 pending repeats as a summary first.
        let events = e.ingest(input(12.0, 0, 0.5));
        assert_eq!(events.len(), 2);
        match (&events[0], &events[1]) {
            (
                Event::AlertCoalesced {
                    suppressed,
                    severity,
                    ..
                },
                Event::AlertEmitted { .. },
            ) => {
                assert_eq!(*suppressed, 2);
                assert_eq!(severity, "high", "summary carries the max severity");
            }
            other => panic!("expected coalesce-then-emit, got {other:?}"),
        }
        assert_eq!(e.pending_suppressed(), 0);
        let kinds: Vec<_> = e.alerts().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![AlertKind::Fresh, AlertKind::Summary, AlertKind::Update]
        );
    }

    #[test]
    fn incidents_rate_limit_independently() {
        let mut e = edge(1.0, 0.0001, 30.0);
        assert!(matches!(
            e.ingest(input(0.0, 0, 0.8))[0],
            Event::AlertEmitted { .. }
        ));
        assert!(matches!(
            e.ingest(input(0.5, 1, 0.8))[0],
            Event::AlertEmitted { incident: 1, .. }
        ));
        assert!(matches!(
            e.ingest(input(1.0, 0, 0.8))[0],
            Event::AlertSuppressed { incident: 0, .. }
        ));
    }

    #[test]
    fn outbox_is_bounded_and_eviction_is_counted() {
        let mut e = AlertEdge::new(AlertConfig {
            bucket_capacity: 100.0,
            refill_per_sec: 1.0,
            summary_after_secs: 30.0,
            retain: 4,
        });
        for k in 0..10u32 {
            e.ingest(input(k as f64, k, 0.8));
        }
        assert_eq!(e.alerts().count(), 4);
        assert_eq!(e.evicted(), 6);
        assert_eq!(e.emitted(), 10);
        let first = e.alerts().next().expect("non-empty");
        assert_eq!(first.incident, 6, "oldest retained alert is #6");
    }

    #[test]
    fn snapshot_round_trips_and_resumes_identically() {
        let mut e = edge(1.0, 0.05, 10.0);
        e.ingest(input(0.0, 0, 0.9));
        e.ingest(input(1.0, 0, 0.7));
        let json = serde_json::to_string(&e).expect("serialize");
        let mut restored: AlertEdge = serde_json::from_str(&json).expect("parse");
        assert_eq!(restored, e);
        // Both copies evolve identically from the snapshot point.
        assert_eq!(restored.ingest(input(2.0, 0, 0.6)), e.ingest(input(2.0, 0, 0.6)));
        assert_eq!(restored.flush_due(50.0), e.flush_due(50.0));
        assert_eq!(restored, e);
    }

    #[test]
    #[should_panic(expected = "refill_per_sec")]
    fn constructor_rejects_invalid_config() {
        AlertEdge::new(AlertConfig {
            refill_per_sec: 0.0,
            ..AlertConfig::default()
        });
    }
}
