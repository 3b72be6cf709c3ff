//! The structured event taxonomy and the deterministic stage counters
//! derived from it.

use serde::{Deserialize, Serialize};

/// One structured pipeline event, stamped with *simulated* time.
///
/// Events are only ever recorded from sequential (main-thread) pipeline
/// code — the Phase B half of a tick, delivery processing, cluster
/// bookkeeping, fault application — so a journal is a pure function of
/// scene + config + seed and is byte-identical at any worker-pool size
/// (see DESIGN.md §10 for the full contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Marks the start of one labelled simulation in a journal that
    /// aggregates several (bench sweeps record one marker per trial).
    RunMarker {
        /// Free-form run label, e.g. `"cell dead=0.30 sev=1.00 trial 0 ship"`.
        label: String,
    },
    /// A node-level detector crossed its adaptive threshold and raised a
    /// report (paper eq. 7–8).
    ReportEmitted {
        /// Simulated time (s).
        time: f64,
        /// Reporting node.
        node: u32,
        /// Onset of the anomaly, in the node's local clock (s).
        onset: f64,
        /// Anomaly frequency `af` at the crossing (eq. 7).
        anomaly_frequency: f64,
        /// Crossing energy `E_Δt` (eq. 8).
        energy: f64,
    },
    /// A detector crossed its threshold but the node's failed detection
    /// hardware suppressed the report.
    ReportSuppressed {
        /// Simulated time (s).
        time: f64,
        /// Suppressed node.
        node: u32,
        /// Why the report was dropped (`"dead_hardware"`).
        reason: String,
    },
    /// A member's report was delivered to a node that no longer heads an
    /// open collection window (the cluster dissolved, expired, or failed
    /// over while the report was in flight): the report cannot join any
    /// correlation and is dropped at the delivery stage.
    ReportDroppedNoCluster {
        /// Simulated time (s).
        time: f64,
        /// The member whose report was dropped.
        node: u32,
        /// The stale head the report was addressed to.
        head: u32,
    },
    /// A spectral ship/ocean verdict with its band features (paper
    /// Fig. 6–7).
    ClassifierVerdict {
        /// Simulated time (s).
        time: f64,
        /// Node whose window was classified.
        node: u32,
        /// `true` when the window was classified ship-present.
        ship: bool,
        /// Significant STFT peaks in the analysis band.
        peak_count: u64,
        /// Single-peak power concentration (≈1 for pure swell).
        peak_concentration: f64,
        /// Fraction of wavelet power below 1 Hz.
        low_frequency_fraction: f64,
    },
    /// A temporary cluster formed around an alarming head node.
    ClusterFormed {
        /// Simulated time (s).
        time: f64,
        /// Head node.
        head: u32,
    },
    /// A collection window closed and the head evaluated the
    /// spatial–temporal correlation (eq. 9–13).
    ClusterEvaluated {
        /// Simulated time (s).
        time: f64,
        /// Head node at evaluation time.
        head: u32,
        /// Reports collected (head's own included).
        reports: u64,
        /// Grid rows (or columns) with reports.
        rows: u64,
        /// The correlation coefficient C (eq. 13).
        correlation: f64,
        /// The time-correlation factor CNt (eq. 10).
        cnt: f64,
        /// The energy-correlation factor CNe (eq. 12).
        cne: f64,
        /// Whether the report quorum (`min_reports`) was met.
        quorum_met: bool,
        /// Whether the cluster confirmed the detection.
        confirmed: bool,
        /// Whether the window survived a head failover first.
        degraded: bool,
    },
    /// A member took over a dying head's open collection window.
    HeadFailover {
        /// Simulated time (s).
        time: f64,
        /// The head that died or dropped out.
        old_head: u32,
        /// The member that took over.
        new_head: u32,
    },
    /// A head died with no live member to take over: the window was
    /// cancelled outright.
    ClusterOrphaned {
        /// Simulated time (s).
        time: f64,
        /// The orphaned window's head.
        head: u32,
    },
    /// The sink accepted a confirmed detection into an incident.
    SinkAccepted {
        /// Simulated time (s).
        time: f64,
        /// Reporting cluster head.
        head: u32,
        /// Incident the detection was filed under.
        incident: u32,
        /// The confirming correlation coefficient.
        correlation: f64,
    },
    /// The sink dropped a confirmed detection as an exact duplicate.
    SinkDuplicateDropped {
        /// Simulated time (s).
        time: f64,
        /// Reporting cluster head.
        head: u32,
        /// Incident the original copy was filed under.
        incident: u32,
    },
    /// A scheduled fault fired (see `sid-net`'s fault plan).
    FaultInjected {
        /// Simulated time (s).
        time: f64,
        /// Faulted node.
        node: u32,
        /// Fault kind (`"death"`, `"outage"`, `"clock_drift_spike"`,
        /// `"stuck_accel"`).
        kind: String,
    },
    /// A transmission was lost in the radio fabric.
    RadioDrop {
        /// Simulated time (s).
        time: f64,
        /// The node whose transmission was lost (for delivery-time
        /// discards, the intended receiver).
        node: u32,
        /// Loss cause (`"radio"`, `"burst"`, `"endpoint_down"`).
        cause: String,
    },
    /// A node went down (powered off or into an outage).
    NodeDown {
        /// Simulated time (s).
        time: f64,
        /// The node.
        node: u32,
        /// Why (`"battery"`, `"outage"`).
        reason: String,
    },
    /// A node returned from a transient outage.
    NodeUp {
        /// Simulated time (s).
        time: f64,
        /// The node.
        node: u32,
    },
    /// The alerting edge exported one alert towards the operations
    /// channel (a token was available for the incident's bucket).
    AlertEmitted {
        /// Simulated time (s).
        time: f64,
        /// Incident the alert concerns.
        incident: u32,
        /// Cluster head whose confirmation triggered the alert.
        head: u32,
        /// Severity grade (`"advisory"`, `"elevated"`, `"high"`,
        /// `"critical"`).
        severity: String,
        /// The confirming correlation coefficient.
        correlation: f64,
    },
    /// The alerting edge rate-limited a repeat alert (token bucket
    /// empty). Nothing is silently dropped: every suppression is
    /// accounted and later coalesced into an `AlertCoalesced` summary.
    AlertSuppressed {
        /// Simulated time (s).
        time: f64,
        /// Incident whose repeat was suppressed.
        incident: u32,
        /// Cluster head whose confirmation was suppressed.
        head: u32,
        /// Severity grade of the suppressed repeat.
        severity: String,
    },
    /// The alerting edge coalesced suppressed repeats into one summary
    /// alert (storm-suppression bookkeeping).
    AlertCoalesced {
        /// Simulated time (s).
        time: f64,
        /// Incident the summary covers.
        incident: u32,
        /// Repeats coalesced into this summary.
        suppressed: u64,
        /// Time of the first coalesced repeat.
        first_time: f64,
        /// Time of the last coalesced repeat.
        last_time: f64,
        /// Highest severity grade among the coalesced repeats.
        severity: String,
    },
    /// A detection-config hot reload validated and was applied
    /// atomically at a tick boundary.
    ConfigReloaded {
        /// Simulated time (s).
        time: f64,
        /// Human-readable summary of the changed knobs.
        changes: String,
    },
    /// A detection-config hot reload failed validation and was rejected;
    /// the running configuration is untouched.
    ConfigReloadRejected {
        /// Simulated time (s).
        time: f64,
        /// The validation error.
        reason: String,
    },
    /// A recoverable anomaly the pipeline degraded around instead of
    /// panicking (e.g. a non-grid topology with no cluster coordinates).
    Warning {
        /// Simulated time (s).
        time: f64,
        /// Human-readable description.
        message: String,
    },
}

impl Event {
    /// The node the event primarily concerns (the reporter, the head, the
    /// faulted node…), when it concerns one. Journal-replay oracles use
    /// this to track per-node state without matching every variant.
    pub fn node(&self) -> Option<u32> {
        match self {
            Event::RunMarker { .. }
            | Event::Warning { .. }
            | Event::AlertCoalesced { .. }
            | Event::ConfigReloaded { .. }
            | Event::ConfigReloadRejected { .. } => None,
            Event::AlertEmitted { head, .. } | Event::AlertSuppressed { head, .. } => Some(*head),
            Event::ReportEmitted { node, .. }
            | Event::ReportSuppressed { node, .. }
            | Event::ReportDroppedNoCluster { node, .. }
            | Event::ClassifierVerdict { node, .. }
            | Event::FaultInjected { node, .. }
            | Event::RadioDrop { node, .. }
            | Event::NodeDown { node, .. }
            | Event::NodeUp { node, .. } => Some(*node),
            Event::ClusterFormed { head, .. }
            | Event::ClusterEvaluated { head, .. }
            | Event::ClusterOrphaned { head, .. }
            | Event::SinkAccepted { head, .. }
            | Event::SinkDuplicateDropped { head, .. } => Some(*head),
            Event::HeadFailover { new_head, .. } => Some(*new_head),
        }
    }

    /// The event's simulated timestamp, when it carries one.
    pub fn time(&self) -> Option<f64> {
        match self {
            Event::RunMarker { .. } => None,
            Event::ReportEmitted { time, .. }
            | Event::ReportSuppressed { time, .. }
            | Event::ReportDroppedNoCluster { time, .. }
            | Event::ClassifierVerdict { time, .. }
            | Event::ClusterFormed { time, .. }
            | Event::ClusterEvaluated { time, .. }
            | Event::HeadFailover { time, .. }
            | Event::ClusterOrphaned { time, .. }
            | Event::SinkAccepted { time, .. }
            | Event::SinkDuplicateDropped { time, .. }
            | Event::FaultInjected { time, .. }
            | Event::RadioDrop { time, .. }
            | Event::NodeDown { time, .. }
            | Event::NodeUp { time, .. }
            | Event::AlertEmitted { time, .. }
            | Event::AlertSuppressed { time, .. }
            | Event::AlertCoalesced { time, .. }
            | Event::ConfigReloaded { time, .. }
            | Event::ConfigReloadRejected { time, .. }
            | Event::Warning { time, .. } => Some(*time),
        }
    }

    /// The event's kind as a stable snake_case tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunMarker { .. } => "run_marker",
            Event::ReportEmitted { .. } => "report_emitted",
            Event::ReportSuppressed { .. } => "report_suppressed",
            Event::ReportDroppedNoCluster { .. } => "report_dropped_no_cluster",
            Event::ClassifierVerdict { .. } => "classifier_verdict",
            Event::ClusterFormed { .. } => "cluster_formed",
            Event::ClusterEvaluated { .. } => "cluster_evaluated",
            Event::HeadFailover { .. } => "head_failover",
            Event::ClusterOrphaned { .. } => "cluster_orphaned",
            Event::SinkAccepted { .. } => "sink_accepted",
            Event::SinkDuplicateDropped { .. } => "sink_duplicate_dropped",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RadioDrop { .. } => "radio_drop",
            Event::NodeDown { .. } => "node_down",
            Event::NodeUp { .. } => "node_up",
            Event::AlertEmitted { .. } => "alert_emitted",
            Event::AlertSuppressed { .. } => "alert_suppressed",
            Event::AlertCoalesced { .. } => "alert_coalesced",
            Event::ConfigReloaded { .. } => "config_reloaded",
            Event::ConfigReloadRejected { .. } => "config_reload_rejected",
            Event::Warning { .. } => "warning",
        }
    }
}

/// Deterministic per-stage event counts: every field is a commutative sum
/// over recorded events, so the aggregate is identical no matter how runs
/// interleave — this is the diffable half of `results/OBS_summary.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageCounts {
    /// Events recorded in total (journal lines, markers included).
    pub events_recorded: u64,
    /// Node-level reports raised.
    pub node_reports_emitted: u64,
    /// Node-level reports suppressed (dead detection hardware).
    pub node_reports_suppressed: u64,
    /// Member reports delivered to a node whose collection window had
    /// already dissolved (dropped at the delivery stage).
    pub reports_dropped_no_cluster: u64,
    /// Spectral verdicts classified ship-present.
    pub classifier_ship_verdicts: u64,
    /// Spectral verdicts classified ocean-only.
    pub classifier_ocean_verdicts: u64,
    /// Temporary clusters formed.
    pub clusters_formed: u64,
    /// Cluster evaluations run (confirmed or not).
    pub clusters_evaluated: u64,
    /// Cluster evaluations that confirmed a detection.
    pub clusters_confirmed: u64,
    /// Cluster evaluations that failed the report quorum.
    pub cluster_quorum_failures: u64,
    /// Cluster evaluations on a degraded (post-failover) quorum.
    pub degraded_evaluations: u64,
    /// Head failovers.
    pub head_failovers: u64,
    /// Windows cancelled because the head died memberless.
    pub clusters_orphaned: u64,
    /// Confirmed detections the sink accepted.
    pub sink_accepted: u64,
    /// Confirmed detections the sink dropped as duplicates.
    pub sink_duplicates_dropped: u64,
    /// Scheduled faults applied.
    pub faults_injected: u64,
    /// Transmissions lost to the i.i.d. radio.
    pub radio_drops: u64,
    /// Transmissions lost to the burst (Gilbert–Elliott) channel.
    pub burst_drops: u64,
    /// Packets discarded because an endpoint was down at delivery time.
    pub endpoint_down_drops: u64,
    /// Nodes that went down (deaths and outages).
    pub nodes_down: u64,
    /// Nodes that recovered from an outage.
    pub nodes_up: u64,
    /// Alerts the alerting edge exported.
    pub alerts_emitted: u64,
    /// Repeat alerts the alerting edge rate-limited.
    pub alerts_suppressed: u64,
    /// Summary alerts coalescing suppressed repeats.
    pub alerts_coalesced: u64,
    /// Detection-config hot reloads applied.
    pub config_reloads: u64,
    /// Detection-config hot reloads rejected by validation.
    pub config_reload_rejections: u64,
    /// Recoverable-anomaly warnings.
    pub warnings: u64,
}

impl StageCounts {
    /// Recomputes the counters from a recorded journal. Because every
    /// field is a pure fold over events, this must equal the counts the
    /// recorder aggregated live — the DST harness checks exactly that.
    pub fn from_events(events: &[Event]) -> Self {
        let mut counts = StageCounts::default();
        for event in events {
            counts.bump(event);
        }
        counts
    }

    /// Folds one event into the counters.
    pub fn bump(&mut self, event: &Event) {
        self.events_recorded += 1;
        match event {
            Event::RunMarker { .. } => {}
            Event::ReportEmitted { .. } => self.node_reports_emitted += 1,
            Event::ReportSuppressed { .. } => self.node_reports_suppressed += 1,
            Event::ReportDroppedNoCluster { .. } => self.reports_dropped_no_cluster += 1,
            Event::ClassifierVerdict { ship, .. } => {
                if *ship {
                    self.classifier_ship_verdicts += 1;
                } else {
                    self.classifier_ocean_verdicts += 1;
                }
            }
            Event::ClusterFormed { .. } => self.clusters_formed += 1,
            Event::ClusterEvaluated {
                quorum_met,
                confirmed,
                degraded,
                ..
            } => {
                self.clusters_evaluated += 1;
                if !quorum_met {
                    self.cluster_quorum_failures += 1;
                }
                if *confirmed {
                    self.clusters_confirmed += 1;
                }
                if *degraded {
                    self.degraded_evaluations += 1;
                }
            }
            Event::HeadFailover { .. } => self.head_failovers += 1,
            Event::ClusterOrphaned { .. } => self.clusters_orphaned += 1,
            Event::SinkAccepted { .. } => self.sink_accepted += 1,
            Event::SinkDuplicateDropped { .. } => self.sink_duplicates_dropped += 1,
            Event::FaultInjected { .. } => self.faults_injected += 1,
            Event::RadioDrop { cause, .. } => match cause.as_str() {
                "burst" => self.burst_drops += 1,
                "endpoint_down" => self.endpoint_down_drops += 1,
                _ => self.radio_drops += 1,
            },
            Event::NodeDown { .. } => self.nodes_down += 1,
            Event::NodeUp { .. } => self.nodes_up += 1,
            Event::AlertEmitted { .. } => self.alerts_emitted += 1,
            Event::AlertSuppressed { .. } => self.alerts_suppressed += 1,
            Event::AlertCoalesced { .. } => self.alerts_coalesced += 1,
            Event::ConfigReloaded { .. } => self.config_reloads += 1,
            Event::ConfigReloadRejected { .. } => self.config_reload_rejections += 1,
            Event::Warning { .. } => self.warnings += 1,
        }
    }

    /// Adds another aggregate into this one (order-independent).
    pub fn merge(&mut self, other: &StageCounts) {
        self.events_recorded += other.events_recorded;
        self.node_reports_emitted += other.node_reports_emitted;
        self.node_reports_suppressed += other.node_reports_suppressed;
        self.reports_dropped_no_cluster += other.reports_dropped_no_cluster;
        self.classifier_ship_verdicts += other.classifier_ship_verdicts;
        self.classifier_ocean_verdicts += other.classifier_ocean_verdicts;
        self.clusters_formed += other.clusters_formed;
        self.clusters_evaluated += other.clusters_evaluated;
        self.clusters_confirmed += other.clusters_confirmed;
        self.cluster_quorum_failures += other.cluster_quorum_failures;
        self.degraded_evaluations += other.degraded_evaluations;
        self.head_failovers += other.head_failovers;
        self.clusters_orphaned += other.clusters_orphaned;
        self.sink_accepted += other.sink_accepted;
        self.sink_duplicates_dropped += other.sink_duplicates_dropped;
        self.faults_injected += other.faults_injected;
        self.radio_drops += other.radio_drops;
        self.burst_drops += other.burst_drops;
        self.endpoint_down_drops += other.endpoint_down_drops;
        self.nodes_down += other.nodes_down;
        self.nodes_up += other.nodes_up;
        self.alerts_emitted += other.alerts_emitted;
        self.alerts_suppressed += other.alerts_suppressed;
        self.alerts_coalesced += other.alerts_coalesced;
        self.config_reloads += other.config_reloads;
        self.config_reload_rejections += other.config_reload_rejections;
        self.warnings += other.warnings;
    }

    /// Whether nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.events_recorded == 0
    }
}

/// A timed pipeline stage (wall-clock; the non-deterministic side of the
/// summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Fault application + battery/outage sweeps.
    Faults,
    /// Phase A scene evaluation, after the tick's sample-or-rest
    /// decisions. Under `run_events`: refilling, in one pool batch, the
    /// sense-ahead blocks of the sampling nodes whose block ran out (each
    /// task senses one node's next 25 ticks), then reading this tick's
    /// entries. Under the reference sweep `run`: one pool batch sensing
    /// every sampling node at the current tick.
    PhaseASense,
    /// Phase B of a tick: accelerometer + detector + report handling.
    PhaseBDetect,
    /// Network delivery processing.
    Deliveries,
    /// Expired-cluster evaluation and sink forwarding.
    Clusters,
    /// One `sid-exec` batch (queue dispatch to join).
    ExecBatch,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 6] = [
        Stage::Faults,
        Stage::PhaseASense,
        Stage::PhaseBDetect,
        Stage::Deliveries,
        Stage::Clusters,
        Stage::ExecBatch,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Faults => "faults",
            Stage::PhaseASense => "phase_a_sense",
            Stage::PhaseBDetect => "phase_b_detect",
            Stage::Deliveries => "deliveries",
            Stage::Clusters => "clusters",
            Stage::ExecBatch => "exec_batch",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Stage::Faults => 0,
            Stage::PhaseASense => 1,
            Stage::PhaseBDetect => 2,
            Stage::Deliveries => 3,
            Stage::Clusters => 4,
            Stage::ExecBatch => 5,
        }
    }
}

/// A high-water-mark gauge (wall section of the summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Deepest `sid-exec` task queue observed at batch submission.
    ExecQueueDepth,
    /// Most temporary clusters simultaneously open.
    ActiveClusters,
    /// Most messages simultaneously in flight.
    InFlightMessages,
}

impl GaugeId {
    /// Every gauge, in display order.
    pub const ALL: [GaugeId; 3] = [
        GaugeId::ExecQueueDepth,
        GaugeId::ActiveClusters,
        GaugeId::InFlightMessages,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::ExecQueueDepth => "exec_queue_depth",
            GaugeId::ActiveClusters => "active_clusters",
            GaugeId::InFlightMessages => "in_flight_messages",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            GaugeId::ExecQueueDepth => 0,
            GaugeId::ActiveClusters => 1,
            GaugeId::InFlightMessages => 2,
        }
    }
}

/// A monotonically-increasing counter that is *not* part of the
/// deterministic journal (scheduling-dependent execution statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// `sid-exec` batches dispatched through the shared queue.
    ExecBatches,
    /// Tasks those batches carried.
    ExecTasks,
}

impl CounterId {
    /// Every counter, in display order.
    pub const ALL: [CounterId; 2] = [CounterId::ExecBatches, CounterId::ExecTasks];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::ExecBatches => "exec_batches",
            CounterId::ExecTasks => "exec_tasks",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            CounterId::ExecBatches => 0,
            CounterId::ExecTasks => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_routes_every_kind() {
        let mut c = StageCounts::default();
        c.bump(&Event::ReportEmitted {
            time: 1.0,
            node: 3,
            onset: 0.5,
            anomaly_frequency: 0.7,
            energy: 5.0,
        });
        c.bump(&Event::ClusterEvaluated {
            time: 2.0,
            head: 3,
            reports: 2,
            rows: 1,
            correlation: 0.1,
            cnt: 0.5,
            cne: 0.2,
            quorum_met: false,
            confirmed: false,
            degraded: true,
        });
        c.bump(&Event::RadioDrop {
            time: 3.0,
            node: 1,
            cause: "burst".into(),
        });
        c.bump(&Event::AlertEmitted {
            time: 4.0,
            incident: 0,
            head: 3,
            severity: "high".into(),
            correlation: 0.8,
        });
        c.bump(&Event::AlertSuppressed {
            time: 5.0,
            incident: 0,
            head: 3,
            severity: "high".into(),
        });
        c.bump(&Event::AlertCoalesced {
            time: 9.0,
            incident: 0,
            suppressed: 4,
            first_time: 5.0,
            last_time: 8.0,
            severity: "critical".into(),
        });
        c.bump(&Event::ConfigReloaded {
            time: 10.0,
            changes: "af_threshold=0.7".into(),
        });
        c.bump(&Event::ConfigReloadRejected {
            time: 11.0,
            reason: "af_threshold must lie in (0, 1]".into(),
        });
        assert_eq!(c.events_recorded, 8);
        assert_eq!(c.node_reports_emitted, 1);
        assert_eq!(c.clusters_evaluated, 1);
        assert_eq!(c.cluster_quorum_failures, 1);
        assert_eq!(c.degraded_evaluations, 1);
        assert_eq!(c.burst_drops, 1);
        assert_eq!(c.radio_drops, 0);
        assert_eq!(c.alerts_emitted, 1);
        assert_eq!(c.alerts_suppressed, 1);
        assert_eq!(c.alerts_coalesced, 1);
        assert_eq!(c.config_reloads, 1);
        assert_eq!(c.config_reload_rejections, 1);
    }

    #[test]
    fn merge_is_a_fieldwise_sum() {
        let mut a = StageCounts::default();
        a.bump(&Event::ClusterFormed { time: 1.0, head: 0 });
        let mut b = StageCounts::default();
        b.bump(&Event::ClusterFormed { time: 2.0, head: 1 });
        b.bump(&Event::Warning {
            time: 2.0,
            message: "x".into(),
        });
        a.merge(&b);
        assert_eq!(a.clusters_formed, 2);
        assert_eq!(a.warnings, 1);
        assert_eq!(a.events_recorded, 3);
        assert!(!a.is_empty());
        assert!(StageCounts::default().is_empty());
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::RunMarker {
                label: "trial 0".into(),
            },
            Event::SinkAccepted {
                time: 12.5,
                head: 7,
                incident: 0,
                correlation: 0.83,
            },
            Event::FaultInjected {
                time: 30.0,
                node: 4,
                kind: "outage".into(),
            },
            Event::AlertEmitted {
                time: 13.0,
                incident: 0,
                head: 7,
                severity: "critical".into(),
                correlation: 0.91,
            },
            Event::AlertCoalesced {
                time: 43.0,
                incident: 0,
                suppressed: 12,
                first_time: 14.0,
                last_time: 41.0,
                severity: "high".into(),
            },
            Event::ConfigReloadRejected {
                time: 50.0,
                reason: "m must be positive".into(),
            },
        ];
        for ev in &events {
            let line = serde_json::to_string(ev).expect("serialize");
            let back: Event = serde_json::from_str(&line).expect("parse");
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn kinds_and_times_are_exposed() {
        let ev = Event::NodeUp { time: 9.0, node: 2 };
        assert_eq!(ev.kind(), "node_up");
        assert_eq!(ev.time(), Some(9.0));
        assert_eq!(ev.node(), Some(2));
        let marker = Event::RunMarker { label: "x".into() };
        assert_eq!(marker.time(), None);
        assert_eq!(marker.node(), None);
        let failover = Event::HeadFailover {
            time: 1.0,
            old_head: 4,
            new_head: 9,
        };
        assert_eq!(failover.node(), Some(9));
        let emitted = Event::AlertEmitted {
            time: 3.0,
            incident: 1,
            head: 6,
            severity: "advisory".into(),
            correlation: 0.4,
        };
        assert_eq!(emitted.kind(), "alert_emitted");
        assert_eq!(emitted.node(), Some(6));
        assert_eq!(emitted.time(), Some(3.0));
        let reload = Event::ConfigReloaded {
            time: 5.0,
            changes: "m=2.25".into(),
        };
        assert_eq!(reload.kind(), "config_reloaded");
        assert_eq!(reload.node(), None);
        assert_eq!(reload.time(), Some(5.0));
    }

    #[test]
    fn from_events_matches_live_bumping() {
        let events = vec![
            Event::ClusterFormed { time: 1.0, head: 2 },
            Event::NodeDown {
                time: 2.0,
                node: 5,
                reason: "outage".into(),
            },
            Event::NodeUp { time: 4.0, node: 5 },
        ];
        let mut live = StageCounts::default();
        for ev in &events {
            live.bump(ev);
        }
        assert_eq!(StageCounts::from_events(&events), live);
    }
}
