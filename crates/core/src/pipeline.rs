//! The end-to-end intrusion detection system: scene → buoys → node
//! detectors → WSN fabric → temporary clusters → sink.
//!
//! [`IntrusionDetectionSystem`] wires every substrate together and runs
//! the paper's Algorithm SID over simulated time: nodes sample at 50 Hz
//! and run the node-level detector; an alarming node floods a temporary
//! cluster invite within 6 hops and becomes head; members route their
//! reports to the head; when the head's collection window closes it
//! evaluates the spatial–temporal correlation and, on success, forwards a
//! confirmed [`ClusterDetection`] (with speed estimate) to the sink.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sid_alert::{AlertConfig, AlertEdge, AlertInput};
use sid_net::{
    CongestionModel, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, GilbertElliott, Network,
    NodeId, RadioModel, ShardMap, SyncModel, Topology,
};
use sid_obs::{Event, GaugeId, Obs, Stage};
use sid_ocean::{Scene, Vec2};
use sid_sensor::{EnergyBudget, EnvSample, NodeClock, SensorNode};

use crate::cluster_detect::{ClusterHead, ClusterHeadConfig, PlacedReport};
use crate::config::DetectorConfig;
use crate::node_detect::NodeDetector;
use crate::report::{ClusterDetection, NodeReport, SidMessage};
use crate::retune::DetectionRetune;
use crate::sched::{EventHeap, EventTime, SchedEvent};
use crate::sink::{SinkTracker, TrackerConfig};

/// Full-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Grid spacing D in metres (the paper's 25 m).
    pub spacing: f64,
    /// Disc radio range in metres.
    pub radio_range: f64,
    /// Node-level detector parameters.
    pub detector: DetectorConfig,
    /// Cluster-head decision parameters.
    pub cluster: ClusterHeadConfig,
    /// Radio loss/latency model.
    pub radio: RadioModel,
    /// Egress-bandwidth (congestion) model.
    pub congestion: CongestionModel,
    /// Time-sync residual model.
    pub sync: SyncModel,
    /// Temporary-cluster flood radius in hops (the paper's 6).
    pub cluster_hops: u16,
    /// Whether nodes are built with realistic imperfections (drift, tilt,
    /// bias, clock error) or as ideal instruments.
    pub realistic_nodes: bool,
    /// Fraction of nodes with failed detection hardware: they sample and
    /// relay traffic but never raise their own reports (the paper:
    /// "some nodes with hardware errors may not detect the ship").
    pub dead_node_fraction: f64,
    /// Duty-cycled power management (paper Section IV-A: "Some nodes in a
    /// group may keep active to perform a coarse detection while other
    /// nodes sleep… Upon a positive detection is made, sleeping nodes
    /// should be activated").
    pub duty_cycle: DutyCycleConfig,
    /// Burst-loss channel layered on the i.i.d. radio;
    /// [`GilbertElliott::disabled`] leaves the radio i.i.d.
    pub burst: GilbertElliott,
    /// Mid-run fault campaign drawn at build time (node deaths, transient
    /// outages, clock-drift spikes, stuck accelerometers). All-zero
    /// fractions inject nothing.
    pub faults: FaultPlanConfig,
    /// Alerting-edge knobs: per-incident token buckets, storm-suppression
    /// summary cadence, bounded outbox.
    pub alert: AlertConfig,
}

/// Duty-cycling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DutyCycleConfig {
    /// Whether duty cycling is active. When off, every node samples
    /// continuously.
    pub enabled: bool,
    /// Seconds a woken node stays active after the last cluster invite.
    pub wake_duration: f64,
    /// Added to the sentinels' threshold multiplier M: sentinels "perform
    /// a coarse detection" (paper Section IV-A), so they trade single-node
    /// sensitivity for a far lower false-wake rate; the woken fleet then
    /// detects at full sensitivity.
    pub sentinel_m_boost: f64,
    /// Grid stride between sentinels: every `stride`-th row and column
    /// keeps watch, so a fraction ≈ 1/stride² of the grid stays awake.
    /// The classic deployment is 2 (a quarter of the grid); sparse
    /// surveillance fields push it higher. Values below 1 behave as 1
    /// (every node a sentinel). Absent in configs serialized before the
    /// knob existed, which deserialize to 2 (see the manual
    /// [`Deserialize`] impl — the vendored serde shim has no
    /// `#[serde(default)]`).
    pub sentinel_stride: usize,
}

impl Default for DutyCycleConfig {
    fn default() -> Self {
        DutyCycleConfig {
            enabled: false,
            wake_duration: 180.0,
            sentinel_m_boost: 0.5,
            sentinel_stride: 2,
        }
    }
}

impl Deserialize for DutyCycleConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct DutyCycleConfig"))?;
        Ok(DutyCycleConfig {
            enabled: Deserialize::from_value(serde::map_get(m, "enabled")?)?,
            wake_duration: Deserialize::from_value(serde::map_get(m, "wake_duration")?)?,
            sentinel_m_boost: Deserialize::from_value(serde::map_get(m, "sentinel_m_boost")?)?,
            // Absent in pre-stride serializations: the classic
            // every-other-row grid, not an error.
            sentinel_stride: match serde::map_get(m, "sentinel_stride") {
                Ok(sv) => Deserialize::from_value(sv)?,
                Err(_) => 2,
            },
        })
    }
}

impl SystemConfig {
    /// The paper's deployment: grid at D = 25 m, 6-hop temporary clusters,
    /// lossy radio, realistic nodes.
    pub fn paper_default(rows: usize, cols: usize) -> Self {
        SystemConfig {
            rows,
            cols,
            spacing: 25.0,
            radio_range: 30.0,
            detector: DetectorConfig::paper_default(),
            cluster: ClusterHeadConfig::default(),
            radio: RadioModel::lossy(),
            congestion: CongestionModel::ieee802154(),
            sync: SyncModel::ftsp_class(),
            cluster_hops: 6,
            realistic_nodes: true,
            dead_node_fraction: 0.0,
            duty_cycle: DutyCycleConfig::default(),
            burst: GilbertElliott::disabled(),
            faults: FaultPlanConfig {
                // The sink is the wired gateway: it cannot die or drop out.
                spare: Some(0),
                ..FaultPlanConfig::default()
            },
            alert: AlertConfig::default(),
        }
    }
}

/// The number of whole `dt`-length ticks in `duration` seconds —
/// `duration / dt` rounded half-up with a relative epsilon of one part
/// in 10⁹ absorbing float error in the division (see
/// [`IntrusionDetectionSystem::tick_count`] for the boundary rule).
/// Standalone so replay code without a pipeline (the DST alert-ledger
/// oracle) computes the identical step count.
pub fn ticks_in(duration: f64, dt: f64) -> u64 {
    let ratio = duration / dt;
    if !(ratio > 0.0) {
        return 0;
    }
    (ratio + ratio * 1e-9 + 0.5).floor() as u64
}

/// One temporary cluster's end-of-window evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Head node.
    pub head: NodeId,
    /// Head-local formation time.
    pub formed_at: f64,
    /// Evaluation time.
    pub evaluated_at: f64,
    /// Reports collected (head's own included).
    pub report_count: usize,
    /// Rows (or columns) with reports.
    pub rows: usize,
    /// The correlation coefficient C (eq. 13).
    pub c: f64,
    /// Whether the cluster confirmed the detection.
    pub confirmed: bool,
}

/// Everything the run produced, for evaluation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemTrace {
    /// Every node-level report raised (before any networking).
    pub node_reports: Vec<NodeReport>,
    /// Temporary clusters formed.
    pub clusters_formed: usize,
    /// Clusters cancelled as false alarms.
    pub clusters_cancelled: usize,
    /// Every cluster evaluation (confirmed or cancelled), in order.
    pub cluster_outcomes: Vec<ClusterOutcome>,
    /// Confirmed detections that reached the sink.
    pub sink_detections: Vec<ClusterDetection>,
    /// Simulated seconds elapsed.
    pub elapsed: f64,
    /// Fault events applied during the run.
    pub faults_applied: usize,
    /// Cluster-head failovers: a member took over a dying head's window.
    pub head_failovers: usize,
    /// Cluster evaluations that ran on a degraded quorum (the window
    /// survived a head failover before closing).
    pub degraded_evaluations: usize,
    /// Node reports that could not join the spatial correlation because
    /// the deployment topology has no grid structure (free-form
    /// [`Topology::from_positions`] layouts). The reports still appear in
    /// `node_reports`; only the cluster stage skips them.
    pub reports_skipped_no_grid: usize,
    /// Member reports delivered to a node whose collection window had
    /// already dissolved, expired, or failed over while the report was in
    /// flight: too late to join any correlation, dropped at the delivery
    /// stage (journaled as `report_dropped_no_cluster`).
    pub reports_dropped_no_cluster: usize,
    /// Alerts the alerting edge exported.
    pub alerts_emitted: usize,
    /// Repeat alerts the alerting edge rate-limited (each is later
    /// covered by a summary).
    pub alerts_suppressed: usize,
    /// Summary alerts coalescing suppressed repeats.
    pub alert_summaries: usize,
    /// Detection hot reloads applied at tick boundaries.
    pub retunes_applied: usize,
    /// Detection hot reloads rejected by validation (journaled, never
    /// fatal).
    pub retunes_rejected: usize,
}

struct ActiveCluster {
    head: ClusterHead,
    /// The window survived a head failover: its evaluation counts as
    /// degraded-quorum.
    degraded: bool,
}

/// The assembled system.
pub struct IntrusionDetectionSystem {
    scene: Scene,
    topology: Topology,
    nodes: Vec<SensorNode>,
    detectors: Vec<NodeDetector>,
    network: Network<SidMessage>,
    clusters: Vec<ActiveCluster>,
    /// Per node: the head it currently reports to (set by an invite).
    current_head: Vec<Option<NodeId>>,
    /// Per node: detection hardware failed (samples, relays, never reports).
    dead: Vec<bool>,
    /// Per node: hard mid-run failure (battery exhausted) — powered off
    /// and gone from the network for good.
    failed: Vec<bool>,
    /// Per node: in a transient outage until this (true) time; `None`
    /// when the node is not in an outage. (An `Option` rather than a
    /// magic-zero sentinel: an outage ending at exactly `t = 0.0` must
    /// still clear.)
    outage_until: Vec<Option<f64>>,
    /// Per node: latest report it raised, cached for failover re-sends.
    last_report: Vec<Option<NodeReport>>,
    /// Scheduled fault campaign, consumed as time advances.
    fault_plan: FaultPlan,
    /// Per node: permanently-awake sentinel under duty cycling.
    sentinel: Vec<bool>,
    /// Per node: awake until this time (cluster-invite wakeups).
    wake_until: Vec<f64>,
    /// Per node: was asleep on the previous tick (detector needs a
    /// recalibration when it wakes).
    was_asleep: Vec<bool>,
    config: SystemConfig,
    /// Worker pool for the pure half of each tick (scene evaluation).
    /// Parallel and sequential execution are byte-identical: results are
    /// placed by node index and all RNG draws stay on the caller thread.
    pool: Arc<sid_exec::Pool>,
    rng: StdRng,
    trace: SystemTrace,
    now: f64,
    sink_node: NodeId,
    tracker: SinkTracker,
    /// The alerting edge after the tracker: severity grading, rate
    /// limiting, storm suppression (DESIGN.md §13). Mutates identically
    /// whether or not observability is enabled.
    alert: AlertEdge,
    /// Scheduled detection hot reloads, sorted by due time; applied
    /// atomically at the start of the first tick at or past each time.
    retunes: Vec<(f64, DetectionRetune)>,
    /// Observability recorder. Every journal event below is emitted from
    /// sequential main-thread code (Phase B, deliveries, cluster close),
    /// so the journal is a pure function of scene + config + seed.
    obs: Obs,
    /// Cached [`Obs::enabled`] so the 50 Hz tick loop pays one bool test,
    /// not a virtual call, on the disabled path.
    obs_enabled: bool,
    /// One-shot latch for the non-grid-topology warning event.
    non_grid_warned: bool,
    // --- Event-driven driver bookkeeping ([`Self::run_events`]). ---
    // All of it is inert under the tick loop: `event_mode` gates every
    // hook, so `run` pays one predictable branch per charge call.
    /// Whether `run_events` is driving (enables lazy sleep accounting
    /// and dirty-tracking in the shared stage methods).
    event_mode: bool,
    /// Ticks completed since `run_events` entry (1-based within a run).
    tick_index: u64,
    /// The tick through which sleeping nodes currently owe deferred
    /// sleep charges: `tick_index - 1` before the current tick's
    /// begin-sweep point, `tick_index` after it. Keeping this as an
    /// explicit phase pointer lets [`Self::settle_sleep`] reproduce the
    /// eager loop's exact charge interleaving (sleep-then-tx within one
    /// tick differs bitwise from tx-then-sleep).
    sleep_cutoff: u64,
    /// Per node: last tick whose deferred sleep charge has been applied.
    sleep_accounted: Vec<u64>,
    /// Per node: in the event driver's sampling set (awake, powered, no
    /// outage). Nodes outside it are slept lazily.
    active: Vec<bool>,
    /// Nodes whose battery was charged since the last depletion check;
    /// the event driver checks exactly these instead of sweeping all.
    energy_dirty: Vec<usize>,
    /// Nodes whose `wake_until` an invite extended this tick while they
    /// slept; the event driver turns each into a next-tick `DutyWake`.
    wake_dirty: Vec<usize>,
    /// Region sharding ([`Self::with_shards`]): `None` runs unsharded.
    /// With K > 1 shards, Phase A sensing fans out by spatial shard and
    /// the network's delivery queue is partitioned into K destination
    /// lanes — both proven byte-identical to the unsharded run (sensing
    /// is pure and placed by index; lanes share one global sequence
    /// counter and merge by `(time, seq)`).
    shard_map: Option<ShardMap>,
}

impl IntrusionDetectionSystem {
    /// Builds the system over a ground-truth scene. All randomness
    /// (hardware imperfections, radio losses, sensor noise) flows from
    /// `seed`, so runs are reproducible.
    pub fn new(scene: Scene, config: SystemConfig, seed: u64) -> Self {
        let topology =
            Topology::grid(config.rows, config.cols, config.spacing, config.radio_range);
        Self::with_topology(scene, config, seed, topology)
    }

    /// Builds the system over an explicit deployment topology instead of
    /// the `config`-derived grid. Free-form layouts (no row/column
    /// structure) still run node detection and networking; reports that
    /// cannot be placed on a grid are skipped by the cluster stage and
    /// counted in [`SystemTrace::reports_skipped_no_grid`].
    pub fn with_topology(scene: Scene, config: SystemConfig, seed: u64, topology: Topology) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<SensorNode> = topology
            .node_ids()
            .map(|id| {
                let p = topology.position(id);
                let anchor = Vec2::new(p.x, p.y);
                if config.realistic_nodes {
                    SensorNode::realistic(id.value(), anchor, &mut rng)
                } else {
                    SensorNode::at_anchor(id.value(), anchor)
                }
            })
            .collect();
        // One sync round from the grid centre: residual offsets replace
        // whatever the clocks had.
        let reference = NodeId::from(topology.len() / 2);
        let residuals = config.sync.run_round(&topology, reference, &mut rng);
        for (node, &residual) in nodes.iter_mut().zip(residuals.iter()) {
            let drift = node.clock().drift_ppm();
            *node.clock_mut() = NodeClock::new(residual, drift);
        }
        // Sentinels: every `sentinel_stride`-th row and column (the
        // default quarter of the grid) keeps watch while the rest sleeps.
        let stride = config.duty_cycle.sentinel_stride.max(1);
        let sentinel: Vec<bool> = topology
            .node_ids()
            .map(|id| {
                let r = topology.row_of(id).unwrap_or(0);
                let c = topology.col_of(id).unwrap_or(0);
                r.is_multiple_of(stride) && c.is_multiple_of(stride)
            })
            .collect();
        let detectors = topology
            .node_ids()
            .map(|id| {
                let mut det_cfg = config.detector;
                if config.duty_cycle.enabled && sentinel[id.index()] {
                    det_cfg.m += config.duty_cycle.sentinel_m_boost;
                }
                NodeDetector::new(id, det_cfg)
            })
            .collect();
        let mut network =
            Network::with_congestion(topology.clone(), config.radio, config.congestion);
        network.set_burst_model(config.burst);
        let n = topology.len();
        let dead = (0..n)
            .map(|_| rng.gen::<f64>() < config.dead_node_fraction)
            .collect();
        // The fault campaign draws from its own seeded stream so enabling
        // it never perturbs the scene/hardware/radio randomness.
        let fault_plan = FaultPlan::generate(n, &config.faults, seed ^ 0xFA17_5EED);
        IntrusionDetectionSystem {
            scene,
            topology,
            nodes,
            detectors,
            network,
            clusters: Vec::new(),
            current_head: vec![None; n],
            dead,
            failed: vec![false; n],
            outage_until: vec![None; n],
            last_report: vec![None; n],
            fault_plan,
            sentinel,
            wake_until: vec![0.0; n],
            was_asleep: vec![false; n],
            config,
            pool: sid_exec::global(),
            rng,
            trace: SystemTrace::default(),
            now: 0.0,
            sink_node: NodeId::new(0),
            tracker: SinkTracker::new(TrackerConfig::default()),
            alert: AlertEdge::new(config.alert),
            retunes: Vec::new(),
            obs: Obs::noop(),
            obs_enabled: false,
            non_grid_warned: false,
            event_mode: false,
            tick_index: 0,
            sleep_cutoff: 0,
            sleep_accounted: Vec::new(),
            active: Vec::new(),
            energy_dirty: Vec::new(),
            wake_dirty: Vec::new(),
            shard_map: None,
        }
    }

    /// Attaches an observability recorder: the pipeline journals every
    /// stage transition (reports, cluster lifecycle, sink decisions,
    /// faults) and times each tick phase. The network shares the same
    /// recorder for radio-drop events. With the default no-op recorder
    /// the instrumentation is skipped entirely.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs_enabled = obs.enabled();
        self.network.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Builds the system with an explicit fault campaign, replacing the
    /// one drawn from `config.faults` (chaos benches hand-craft plans).
    pub fn with_fault_plan(scene: Scene, config: SystemConfig, seed: u64, plan: FaultPlan) -> Self {
        Self::new(scene, config, seed).replace_fault_plan(plan)
    }

    /// Replaces the scheduled fault campaign on an already-built system
    /// (builder-style). The DST harness combines this with
    /// [`Self::with_topology`] so fuzzed free-form deployments can carry
    /// explicit, shrinkable fault campaigns.
    pub fn replace_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Replaces the worker pool used for scene evaluation (defaults to
    /// [`sid_exec::global`]). Any pool size yields byte-identical traces;
    /// tests use this to prove the equivalence without touching the
    /// process-wide pool.
    pub fn with_pool(mut self, pool: Arc<sid_exec::Pool>) -> Self {
        self.pool = pool;
        self
    }

    /// Partitions the deployment into `shards` contiguous spatial
    /// regions ([`ShardMap`], cell-column boundaries shared with the
    /// spatial-hash neighbor index) that advance concurrently inside
    /// each tick: Phase A sensing fans out shard-by-shard on the worker
    /// pool, and the network's delivery queue splits into one lane per
    /// shard, merged back by `(time, seq)`. Every journal byte is
    /// identical to the unsharded run — sensing is pure and results are
    /// placed by index, Phase B stays sequential in node order, and the
    /// lane merge reproduces the single-queue delivery order exactly
    /// (the DST `variant_equivalence` oracle enforces this on fuzzed
    /// scenarios). `shards <= 1` removes the partition.
    pub fn with_shards(mut self, shards: usize) -> Self {
        if shards <= 1 {
            self.network.set_shards(&ShardMap::single(self.topology.len()));
            self.shard_map = None;
        } else {
            let map = ShardMap::from_topology(&self.topology, shards);
            self.network.set_shards(&map);
            self.shard_map = Some(map);
        }
        self
    }

    /// Number of spatial shards the deployment is partitioned into
    /// (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.shard_map.as_ref().map_or(1, ShardMap::shards)
    }

    /// Replaces the sentinel mask with an index-stride pattern: node
    /// `i` is a sentinel iff `i % stride == 0` (so node 0, the sink, is
    /// always one). Grid deployments get their sentinel lattice from
    /// the row/column stride at construction, but free-form fleets have
    /// no rows — the row/col fallback there marks *every* node a
    /// sentinel, which defeats duty cycling at scale. Detectors are
    /// rebuilt so the sentinel m-boost follows the new mask; call this
    /// builder before the run starts, like the others.
    pub fn with_sentinel_index_stride(mut self, stride: usize) -> Self {
        let stride = stride.max(1);
        for idx in 0..self.topology.len() {
            self.sentinel[idx] = idx.is_multiple_of(stride);
            let mut det_cfg = self.config.detector;
            if self.config.duty_cycle.enabled && self.sentinel[idx] {
                det_cfg.m += self.config.duty_cycle.sentinel_m_boost;
            }
            self.detectors[idx] = NodeDetector::new(NodeId::from(idx), det_cfg);
        }
        self
    }

    /// Number of permanently-awake sentinel nodes under duty cycling.
    pub fn sentinel_count(&self) -> usize {
        self.sentinel.iter().filter(|&&s| s).count()
    }

    /// The scheduled fault campaign (consumed as the run advances).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether node `idx` has suffered a hard mid-run failure.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.failed[idx]
    }

    /// The ground-truth scene (for evaluation).
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The deployment topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The run trace so far.
    pub fn trace(&self) -> &SystemTrace {
        &self.trace
    }

    /// Simulated time so far.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of deployed nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The worker pool this system fans Phase A out on (see
    /// [`with_pool`](Self::with_pool)). Streaming drivers reuse it for
    /// chunked scene synthesis so one `--threads` setting governs both
    /// execution styles.
    pub fn pool(&self) -> &Arc<sid_exec::Pool> {
        &self.pool
    }

    /// Whether node `idx` is sampling right now (always true without duty
    /// cycling; sentinels and recently-woken members otherwise).
    pub fn is_awake(&self, idx: usize) -> bool {
        !self.config.duty_cycle.enabled
            || self.sentinel[idx]
            || self.wake_until[idx] > self.now
    }

    /// Grid coordinates of `node`, or `None` on a free-form topology.
    /// The paper's spatial correlation (eq. 9–13) needs rows and columns;
    /// rather than panicking on a non-grid deployment, the cluster stage
    /// skips the report, counts the skip in the trace, and journals a
    /// one-shot warning.
    fn grid_coords(&mut self, node: NodeId) -> Option<(usize, usize)> {
        match (self.topology.row_of(node), self.topology.col_of(node)) {
            (Some(row), Some(col)) => Some((row, col)),
            _ => {
                self.trace.reports_skipped_no_grid += 1;
                if !self.non_grid_warned {
                    self.non_grid_warned = true;
                    if self.obs_enabled {
                        self.obs.record(Event::Warning {
                            time: self.now,
                            message: format!(
                                "node {} has no grid coordinates; \
                                 spatial correlation skips its reports",
                                node.value()
                            ),
                        });
                    }
                }
                None
            }
        }
    }

    fn handle_node_report(&mut self, node: NodeId, report: NodeReport) {
        self.trace.node_reports.push(report);
        // Cache the freshest report for head-failover re-sends.
        self.last_report[node.index()] = Some(report);
        if self.obs_enabled {
            self.obs.record(Event::ReportEmitted {
                time: self.now,
                node: node.value(),
                onset: report.onset_time,
                anomaly_frequency: report.anomaly_frequency,
                energy: report.energy,
            });
        }
        let Some((row, col)) = self.grid_coords(node) else {
            return;
        };
        let placed = PlacedReport { report, row, col };
        match self.current_head[node.index()] {
            Some(head) if head == node => {
                // This node is a head: keep its own strongest report.
                if let Some(c) = self.clusters.iter_mut().find(|c| c.head.head() == node) {
                    c.head.add_report(placed);
                }
            }
            Some(head) => {
                // Member of an active cluster: route the report to the head
                // ("ReportDetectionToTempClusterHead").
                if self.network.route(
                    node,
                    head,
                    SidMessage::Report(report),
                    self.now,
                    &mut self.rng,
                ) {
                    self.charge_tx_at(node.index(), SidMessage::Report(report).wire_bytes());
                }
            }
            None => {
                // Not in a cluster: become a temporary head
                // ("SetUpTempCluster") and flood the invite within 6 hops.
                let mut head_state =
                    ClusterHead::new(node, report.report_time, self.config.cluster);
                head_state.add_report(placed);
                self.clusters.push(ActiveCluster {
                    head: head_state,
                    degraded: false,
                });
                self.trace.clusters_formed += 1;
                if self.obs_enabled {
                    self.obs.record(Event::ClusterFormed {
                        time: self.now,
                        head: node.value(),
                    });
                }
                self.current_head[node.index()] = Some(node);
                let invite = SidMessage::ClusterInvite {
                    head: node,
                    alarm_time: report.report_time,
                };
                let bytes = invite.wire_bytes();
                let reached =
                    self.network
                        .flood(node, invite, self.now, self.config.cluster_hops, &mut self.rng);
                self.charge_tx_at(node.index(), bytes * reached.max(1));
            }
        }
    }

    fn process_deliveries(&mut self) {
        let deliveries = self.network.poll(self.now);
        for (_, d) in deliveries {
            let bytes = d.msg.wire_bytes();
            self.charge_rx_at(d.to.index(), bytes);
            match d.msg {
                SidMessage::ClusterInvite { head, .. } => {
                    // Join only if not already committed (first invite wins).
                    let slot = &mut self.current_head[d.to.index()];
                    if slot.is_none() {
                        *slot = Some(head);
                    }
                    // "Upon a positive detection is made, sleeping nodes
                    // should be activated": an invite wakes the member.
                    self.wake_until[d.to.index()] = self
                        .wake_until[d.to.index()]
                        .max(self.now + self.config.duty_cycle.wake_duration);
                    if self.event_mode && !self.active[d.to.index()] {
                        // A sleeping member was woken: the event driver
                        // activates it at the next tick, exactly when the
                        // eager sweep would first see `wake_until > now`.
                        self.wake_dirty.push(d.to.index());
                    }
                }
                SidMessage::Report(report) => {
                    match self.clusters.iter().position(|c| c.head.head() == d.to) {
                        Some(i) => {
                            if let Some((row, col)) = self.grid_coords(report.node) {
                                self.clusters[i]
                                    .head
                                    .add_report(PlacedReport { report, row, col });
                            }
                        }
                        None => {
                            // The window this report was racing dissolved,
                            // expired, or failed over while the report was
                            // in flight: account the late arrival instead
                            // of dropping it silently.
                            self.trace.reports_dropped_no_cluster += 1;
                            if self.obs_enabled {
                                self.obs.record(Event::ReportDroppedNoCluster {
                                    time: self.now,
                                    node: report.node.value(),
                                    head: d.to.value(),
                                });
                            }
                        }
                    }
                }
                SidMessage::Detection(det) => {
                    if d.to == self.sink_node {
                        let head_pos = self.topology.position(det.head);
                        let dups_before = self.tracker.duplicates_dropped();
                        let incident = self.tracker.ingest(det.clone(), head_pos);
                        let duplicate = self.tracker.duplicates_dropped() > dups_before;
                        if self.obs_enabled {
                            if duplicate {
                                self.obs.record(Event::SinkDuplicateDropped {
                                    time: self.now,
                                    head: det.head.value(),
                                    incident,
                                });
                            } else {
                                self.obs.record(Event::SinkAccepted {
                                    time: self.now,
                                    head: det.head.value(),
                                    incident,
                                    correlation: det.correlation,
                                });
                            }
                        }
                        if !duplicate {
                            // The stage after the tracker: every fresh
                            // confirmation flows through the alerting
                            // edge (emit / suppress / coalesce).
                            let events = self.alert.ingest(AlertInput {
                                time: self.now,
                                incident,
                                head: det.head.value(),
                                correlation: det.correlation,
                            });
                            self.note_alert_events(events);
                        }
                        self.trace.sink_detections.push(det);
                    }
                }
            }
        }
    }

    /// Whether node `idx` is powered and reachable right now.
    fn node_is_live(&self, idx: usize) -> bool {
        !self.failed[idx] && self.outage_until[idx].is_none_or(|t| t <= self.now)
    }

    /// Applies any deferred sleep charges node `idx` owes up to
    /// [`Self::sleep_cutoff`] (event mode only; the tick loop charges
    /// eagerly, so this is a no-op there). Charges are applied one tick
    /// at a time: `k` separate `charge_sleep(dt)` calls accumulate the
    /// same float bits as the eager loop's per-tick adds, where a single
    /// bulk `charge_sleep(k * dt)` would not.
    fn settle_sleep(&mut self, idx: usize) {
        if !self.event_mode || self.failed[idx] || self.active[idx] {
            return;
        }
        let dt = self.tick_dt();
        while self.sleep_accounted[idx] < self.sleep_cutoff {
            self.nodes[idx].energy_mut().charge_sleep(dt);
            self.sleep_accounted[idx] += 1;
        }
    }

    /// Remembers that node `idx`'s battery changed, so the event driver's
    /// next depletion check covers it (the eager loop sweeps every node
    /// every tick and needs no memory).
    fn note_energy_dirty(&mut self, idx: usize) {
        if self.event_mode {
            self.energy_dirty.push(idx);
        }
    }

    /// Charges node `idx` for transmitting `bytes`, settling deferred
    /// sleep first so the accumulation order matches the eager loop's.
    fn charge_tx_at(&mut self, idx: usize, bytes: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().charge_tx(bytes);
        self.note_energy_dirty(idx);
    }

    /// Charges node `idx` for receiving `bytes` (see [`Self::charge_tx_at`]).
    fn charge_rx_at(&mut self, idx: usize, bytes: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().charge_rx(bytes);
        self.note_energy_dirty(idx);
    }

    /// Exhausts node `idx`'s battery (scheduled death), settling deferred
    /// sleep first so `consumed` crosses capacity from the same value the
    /// eager loop would see.
    fn exhaust_at(&mut self, idx: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().exhaust();
        self.note_energy_dirty(idx);
    }

    /// The per-node depletion check both drivers share: a node whose
    /// battery ran out powers off for good. The event driver settles
    /// deferred sleep first so the check reads the same total the eager
    /// sweep would.
    fn check_depletion(&mut self, idx: usize) {
        self.settle_sleep(idx);
        if !self.failed[idx] && self.nodes[idx].energy().is_depleted() {
            self.mark_failed(idx);
        }
    }

    /// The per-node outage-recovery step both drivers share: when the
    /// outage deadline has passed, the node rejoins the network and its
    /// detector recalibrates like a duty-cycle wake.
    fn recover_outage(&mut self, idx: usize) {
        if self.failed[idx] || !self.outage_until[idx].is_some_and(|t| t <= self.now) {
            return;
        }
        self.outage_until[idx] = None;
        self.network.set_node_down(NodeId::from(idx), false);
        if self.obs_enabled {
            self.obs.record(Event::NodeUp {
                time: self.now,
                node: idx as u32,
            });
        }
        // The detector slept through the outage: recalibrate on return,
        // exactly like a duty-cycle wake.
        self.was_asleep[idx] = true;
    }

    /// Applies every fault whose time has come, then sweeps for battery
    /// depletion (scheduled deaths exhaust the battery, so natural and
    /// injected deaths share one power-off path) and outage recoveries.
    fn apply_due_faults(&mut self) {
        let due: Vec<FaultEvent> = self.fault_plan.take_due(self.now).to_vec();
        for event in due {
            self.apply_fault(event);
        }
        for idx in 0..self.nodes.len() {
            self.check_depletion(idx);
        }
        for idx in 0..self.nodes.len() {
            self.recover_outage(idx);
        }
    }

    fn apply_fault(&mut self, event: FaultEvent) {
        let idx = event.node as usize;
        if idx >= self.nodes.len() || self.failed[idx] {
            return;
        }
        self.trace.faults_applied += 1;
        if self.obs_enabled {
            let kind = match event.kind {
                FaultKind::Death => "death",
                FaultKind::Outage { .. } => "outage",
                FaultKind::ClockDriftSpike { .. } => "clock_drift_spike",
                FaultKind::StuckAccel { .. } => "stuck_accel",
            };
            self.obs.record(Event::FaultInjected {
                time: self.now,
                node: event.node,
                kind: kind.to_string(),
            });
        }
        match event.kind {
            FaultKind::Death => {
                // Routed through the battery: the depletion sweep in
                // `apply_due_faults` powers the node off this same tick.
                self.exhaust_at(idx);
            }
            FaultKind::Outage { duration } => {
                self.outage_until[idx] = Some(self.now + duration.max(0.0));
                let node = NodeId::from(idx);
                self.network.set_node_down(node, true);
                if self.obs_enabled {
                    self.obs.record(Event::NodeDown {
                        time: self.now,
                        node: event.node,
                        reason: "outage".to_string(),
                    });
                }
                // A head that drops out cannot finish its collection
                // window; hand it to a member.
                self.fail_head_if_active(node);
            }
            FaultKind::ClockDriftSpike { extra_ppm } => {
                self.nodes[idx]
                    .clock_mut()
                    .apply_drift_spike(self.now, extra_ppm);
            }
            FaultKind::StuckAccel { counts } => {
                self.nodes[idx].accelerometer_mut().set_stuck_z(Some(counts));
            }
        }
    }

    /// Permanently powers node `idx` off: it stops sampling, relaying and
    /// receiving, and any collection window it was heading fails over.
    fn mark_failed(&mut self, idx: usize) {
        self.failed[idx] = true;
        let node = NodeId::from(idx);
        self.network.set_node_down(node, true);
        if self.obs_enabled {
            self.obs.record(Event::NodeDown {
                time: self.now,
                node: idx as u32,
                reason: "battery".to_string(),
            });
        }
        self.fail_head_if_active(node);
        self.current_head[idx] = None;
    }

    /// Cluster-head failover: when `node` heads an open collection window
    /// and dies (or drops out), the member with the freshest cached report
    /// — else the lowest-index live member — takes over. The window keeps
    /// its original expiry, the new head seeds it with its own cached
    /// report, and the other members re-send theirs over the network, so
    /// the evaluation runs on whatever degraded quorum survives.
    fn fail_head_if_active(&mut self, node: NodeId) {
        let Some(pos) = self.clusters.iter().position(|c| c.head.head() == node) else {
            return;
        };
        let cluster = self.clusters.swap_remove(pos);
        let old_head = cluster.head.head();
        let members: Vec<NodeId> = (0..self.current_head.len())
            .filter(|&i| {
                self.current_head[i] == Some(old_head)
                    && i != old_head.index()
                    && self.node_is_live(i)
            })
            .map(NodeId::from)
            .collect();
        let new_head = members
            .iter()
            .copied()
            .filter_map(|m| self.last_report[m.index()].map(|r| (m, r.report_time)))
            .max_by(|(a, ta), (b, tb)| ta.total_cmp(tb).then(b.index().cmp(&a.index())))
            .map(|(m, _)| m)
            .or_else(|| members.first().copied());
        let Some(new_head) = new_head else {
            // No live member to take over: the window dies with its head.
            for slot in self.current_head.iter_mut() {
                if *slot == Some(old_head) {
                    *slot = None;
                }
            }
            self.trace.clusters_cancelled += 1;
            if self.obs_enabled {
                self.obs.record(Event::ClusterOrphaned {
                    time: self.now,
                    head: old_head.value(),
                });
            }
            return;
        };
        let mut head_state =
            ClusterHead::new(new_head, cluster.head.formed_at(), self.config.cluster);
        for slot in self.current_head.iter_mut() {
            if *slot == Some(old_head) {
                *slot = Some(new_head);
            }
        }
        self.current_head[old_head.index()] = None;
        if let Some(report) = self.last_report[new_head.index()] {
            if let Some((row, col)) = self.grid_coords(new_head) {
                head_state.add_report(PlacedReport { report, row, col });
            }
        }
        self.clusters.push(ActiveCluster {
            head: head_state,
            degraded: true,
        });
        self.trace.head_failovers += 1;
        if self.obs_enabled {
            self.obs.record(Event::HeadFailover {
                time: self.now,
                old_head: old_head.value(),
                new_head: new_head.value(),
            });
        }
        for &m in &members {
            if m == new_head {
                continue;
            }
            if let Some(report) = self.last_report[m.index()] {
                let msg = SidMessage::Report(report);
                let bytes = msg.wire_bytes();
                if self.network.route(m, new_head, msg, self.now, &mut self.rng) {
                    self.charge_tx_at(m.index(), bytes);
                }
            }
        }
    }

    fn close_expired_clusters(&mut self) {
        let mut i = 0;
        while i < self.clusters.len() {
            if !self.clusters[i].head.is_expired(self.now) {
                i += 1;
                continue;
            }
            let cluster = self.clusters.swap_remove(i);
            let evaluation = cluster.head.evaluate(self.now);
            let head = cluster.head.head();
            if cluster.degraded {
                self.trace.degraded_evaluations += 1;
            }
            let report_count = cluster.head.reports().len();
            if self.obs_enabled {
                self.obs.record(Event::ClusterEvaluated {
                    time: self.now,
                    head: head.value(),
                    reports: report_count as u64,
                    rows: evaluation.correlation.rows.len() as u64,
                    correlation: evaluation.correlation.c,
                    cnt: evaluation.correlation.cnt,
                    cne: evaluation.correlation.cne,
                    // Judged against the quorum this window was formed
                    // with — a mid-window hot reload retunes future
                    // clusters, not ones already collecting.
                    quorum_met: report_count >= cluster.head.quorum(),
                    confirmed: evaluation.detection.is_some(),
                    degraded: cluster.degraded,
                });
            }
            self.trace.cluster_outcomes.push(ClusterOutcome {
                head,
                formed_at: cluster.head.formed_at(),
                evaluated_at: self.now,
                report_count,
                rows: evaluation.correlation.rows.len(),
                c: evaluation.correlation.c,
                confirmed: evaluation.detection.is_some(),
            });
            // Free the members for future clusters.
            for slot in self.current_head.iter_mut() {
                if *slot == Some(head) {
                    *slot = None;
                }
            }
            match evaluation.detection {
                Some(det) => {
                    // Forward to the sink over the network.
                    let msg = SidMessage::Detection(det);
                    let bytes = msg.wire_bytes();
                    if self
                        .network
                        .route(head, self.sink_node, msg, self.now, &mut self.rng)
                    {
                        self.charge_tx_at(head.index(), bytes);
                    }
                }
                None => {
                    self.trace.clusters_cancelled += 1;
                }
            }
        }
    }

    /// Applies every scheduled retune whose time has come, in schedule
    /// order, each atomically: validate the merged configs first, then
    /// swap detector/cluster/tracker settings together — or journal a
    /// rejection and keep running on the old configuration. Runs at the
    /// very top of a tick (right after the clock advances), so a reload
    /// never lands mid-tick.
    fn apply_due_retunes(&mut self) {
        while self.retunes.first().is_some_and(|&(t, _)| t <= self.now) {
            let (_, retune) = self.retunes.remove(0);
            let tracker_cfg = self.tracker.config();
            match retune.validated(&self.config.detector, &self.config.cluster, &tracker_cfg) {
                Ok((det, clu, tra)) => {
                    self.config.detector = det;
                    self.config.cluster = clu;
                    self.tracker.set_config(tra);
                    for idx in 0..self.detectors.len() {
                        let mut m = det.m;
                        if self.config.duty_cycle.enabled && self.sentinel[idx] {
                            m += self.config.duty_cycle.sentinel_m_boost;
                        }
                        self.detectors[idx].retune(det.af_threshold, m);
                    }
                    self.trace.retunes_applied += 1;
                    if self.obs_enabled {
                        self.obs.record(Event::ConfigReloaded {
                            time: self.now,
                            changes: retune.describe(),
                        });
                    }
                }
                Err(err) => {
                    self.trace.retunes_rejected += 1;
                    if self.obs_enabled {
                        self.obs.record(Event::Warning {
                            time: self.now,
                            message: format!("config reload rejected: {err}"),
                        });
                        self.obs.record(Event::ConfigReloadRejected {
                            time: self.now,
                            reason: err.to_string(),
                        });
                    }
                }
            }
        }
    }

    /// Folds alerting-edge events into the trace and (when enabled) the
    /// journal. Edge state has already mutated by the time this runs.
    fn note_alert_events(&mut self, events: Vec<Event>) {
        for event in events {
            match &event {
                Event::AlertEmitted { .. } => self.trace.alerts_emitted += 1,
                Event::AlertSuppressed { .. } => self.trace.alerts_suppressed += 1,
                Event::AlertCoalesced { .. } => self.trace.alert_summaries += 1,
                _ => {}
            }
            if self.obs_enabled {
                self.obs.record(event);
            }
        }
    }

    /// Schedules a detection hot reload for the first tick at or past
    /// simulated time `at`. Validation happens at application time,
    /// against the configuration live at that moment; a failure is
    /// journaled and skipped, never fatal.
    pub fn schedule_retune(&mut self, at: f64, retune: DetectionRetune) {
        let pos = self.retunes.partition_point(|&(t, _)| t <= at);
        self.retunes.insert(pos, (at, retune));
    }

    /// Requests a detection hot reload at the next tick boundary (the
    /// live-operations entry point; [`Self::schedule_retune`] is the
    /// scripted one).
    pub fn request_retune(&mut self, retune: DetectionRetune) {
        self.schedule_retune(self.now, retune);
    }

    /// Scheduled retunes not yet applied, in due order.
    pub fn pending_retunes(&self) -> &[(f64, DetectionRetune)] {
        &self.retunes
    }

    /// The alerting edge: graded, rate-limited alerts and suppression
    /// bookkeeping.
    pub fn alert_edge(&self) -> &AlertEdge {
        &self.alert
    }

    /// Replaces the alerting edge wholesale (snapshot restore — the edge
    /// serializes; see `sid-stream`'s reload tests).
    pub fn set_alert_edge(&mut self, edge: AlertEdge) {
        self.alert = edge;
    }

    /// The simulation tick length in seconds (the detector sample period).
    pub fn tick_dt(&self) -> f64 {
        1.0 / self.config.detector.sample_rate
    }

    /// The number of whole simulation ticks a `duration`-second advance
    /// covers. Every driver — [`run`](Self::run),
    /// [`run_events`](Self::run_events), the `sid-stream` driver, DST
    /// replays — takes its step count from this one function, so all of
    /// them agree on tick counts (and therefore on the exact `now += dt`
    /// clock) even for durations that are not exact multiples of
    /// [`tick_dt`](Self::tick_dt).
    ///
    /// Boundary rule: the tick count is `duration / tick_dt` rounded
    /// half-up, with a relative epsilon of one part in 10⁹ absorbing
    /// float error in the division. A duration within one part in 10⁹ of
    /// `k × dt` yields exactly `k` ticks (`0.06 s` at 50 Hz is 3 ticks,
    /// not the 2 a truncating division would produce), and an exact
    /// half-tick remainder rounds up. Negative, zero, and NaN durations
    /// yield zero ticks.
    pub fn tick_count(&self, duration: f64) -> u64 {
        ticks_in(duration, self.tick_dt())
    }

    /// Opens the next simulation tick: advances time by one
    /// [`tick_dt`](Self::tick_dt), applies due faults, performs the
    /// RNG-free sleep/wake bookkeeping, and fills `sampling` with the
    /// indices of the nodes that sample this tick (in node order).
    /// Returns the new simulation time.
    ///
    /// This is the first half of the streaming seam. A driver alternates
    /// `begin_tick` → evaluate the scene for every index in `sampling`
    /// (inline, pooled, or from pre-buffered chunks via
    /// [`sense_at`](Self::sense_at)) → [`finish_tick`](Self::finish_tick).
    /// [`run`](Self::run) is exactly that loop, so any driver preserving
    /// the per-tick call order produces a byte-identical journal and trace.
    pub fn begin_tick(&mut self, sampling: &mut Vec<usize>) -> f64 {
        let dt = self.tick_dt();
        self.now += dt;
        self.apply_due_retunes();
        {
            let _t = if self.obs_enabled {
                self.obs.span(Stage::Faults)
            } else {
                None
            };
            self.apply_due_faults();
        }
        // Phase A, part 1: fix this tick's branch decisions in node
        // order (no RNG involved).
        sampling.clear();
        for idx in 0..self.nodes.len() {
            let node_id = NodeId::from(idx);
            if self.failed[idx] {
                // Powered off: draws nothing, does nothing, forever.
                continue;
            }
            if self.outage_until[idx].is_some_and(|t| t > self.now) {
                // Rebooting: battery still drains at the sleep rate.
                self.nodes[idx].energy_mut().charge_sleep(dt);
                self.was_asleep[idx] = true;
                continue;
            }
            if self.config.duty_cycle.enabled && !self.is_awake(idx) {
                // Deep sleep: no sampling, minimal draw.
                self.nodes[idx].energy_mut().charge_sleep(dt);
                self.was_asleep[idx] = true;
                continue;
            }
            if self.was_asleep[idx] {
                // Just woke: the EWMA threshold state is stale, start a
                // fresh calibration (the ~10 s this takes is well under
                // the tens of seconds a wake still has before the wave
                // train reaches it).
                self.detectors[idx] =
                    NodeDetector::new(node_id, self.config.detector);
                self.was_asleep[idx] = false;
            }
            sampling.push(idx);
        }
        self.now
    }

    /// Phase A part 2 for a whole sampling set: evaluates the scene for
    /// every index in `sampling` at the current tick time, returning
    /// results in `sampling` order.
    ///
    /// Unsharded, this is one [`Pool::par_map`](sid_exec::Pool::par_map)
    /// over the sampling list. With a [`ShardMap`] installed
    /// ([`Self::with_shards`]) the list is grouped by spatial shard and
    /// each shard's slice is sensed as one pool task, results scattered
    /// back by position. Both produce identical bytes: sensing is pure
    /// (`&self`, no RNG), every position is written exactly once, and no
    /// result depends on evaluation order — only the unit of pool
    /// dispatch changes.
    fn sense_all(&self, sampling: &[usize]) -> Vec<EnvSample> {
        let nodes = &self.nodes;
        let scene = &self.scene;
        let now = self.now;
        match &self.shard_map {
            Some(map) if map.shards() > 1 => {
                let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); map.shards()];
                for (pos, &idx) in sampling.iter().enumerate() {
                    groups[map.shard_of(idx)].push((pos, idx));
                }
                let per_shard = self.pool.par_map(&groups, |group| {
                    group
                        .iter()
                        .map(|&(pos, idx)| (pos, nodes[idx].sense_environment(scene, now)))
                        .collect::<Vec<(usize, EnvSample)>>()
                });
                let mut envs: Vec<Option<EnvSample>> = vec![None; sampling.len()];
                for (pos, env) in per_shard.into_iter().flatten() {
                    envs[pos] = Some(env);
                }
                envs.into_iter()
                    .map(|e| e.expect("every sampling position sensed by exactly one shard"))
                    .collect()
            }
            _ => self
                .pool
                .par_map(sampling, |&idx| nodes[idx].sense_environment(scene, now)),
        }
    }

    /// Evaluates the scene for node `idx` at simulation time `t`
    /// (Phase A, part 2, for one node).
    ///
    /// Pure — `&self`, no RNG — and independent of all mutable per-tick
    /// state: a node senses through its buoy model, which never changes
    /// mid-run. Streaming drivers exploit this to synthesize environment
    /// samples for *future* ticks ahead of time on the worker pool.
    pub fn sense_at(&self, idx: usize, t: f64) -> EnvSample {
        self.nodes[idx].sense_environment(&self.scene, t)
    }

    /// Closes the current tick: pushes one pre-sensed environment sample
    /// per sampling node through the accelerometer and detector (Phase B,
    /// strictly sequential in node order — the shared RNG sees the same
    /// draw sequence as the original single-loop implementation), then
    /// drains network deliveries and expired cluster windows.
    ///
    /// `envs[i]` must be the scene evaluation for node `sampling[i]` at
    /// the current tick time — what [`sense_at`](Self::sense_at) returns
    /// for `(sampling[i], now)`.
    pub fn finish_tick(&mut self, sampling: &[usize], envs: &[EnvSample]) {
        debug_assert_eq!(sampling.len(), envs.len());
        let detect_span = if self.obs_enabled {
            self.obs.span(Stage::PhaseBDetect)
        } else {
            None
        };
        for (&idx, &env) in sampling.iter().zip(envs) {
            let node_id = NodeId::from(idx);
            let sample = self.nodes[idx].apply_environment(env, self.now, &mut self.rng);
            if let Some(report) = self.detectors[idx]
                .ingest(sample.local_time, sample.reading.z as f64)
            {
                if !self.dead[idx] {
                    self.handle_node_report(node_id, report);
                } else if self.obs_enabled {
                    self.obs.record(Event::ReportSuppressed {
                        time: self.now,
                        node: node_id.value(),
                        reason: "dead_hardware".to_string(),
                    });
                }
            }
        }
        drop(detect_span);
        {
            let _t = if self.obs_enabled {
                self.obs.span(Stage::Deliveries)
            } else {
                None
            };
            self.process_deliveries();
        }
        {
            let _t = if self.obs_enabled {
                self.obs.span(Stage::Clusters)
            } else {
                None
            };
            self.close_expired_clusters();
        }
        // Storm-suppression bookkeeping: coalesce suppressed repeats
        // whose summary deadline has passed. Runs unconditionally so
        // observability never changes edge behavior.
        let due = self.alert.flush_due(self.now);
        self.note_alert_events(due);
        if self.obs_enabled {
            self.obs
                .gauge_max(GaugeId::ActiveClusters, self.clusters.len() as f64);
            self.obs
                .gauge_max(GaugeId::InFlightMessages, self.network.in_flight() as f64);
        }
        self.trace.elapsed = self.now;
    }

    /// Advances the simulation by `duration` seconds.
    ///
    /// Each tick is split into two phases so the expensive half can run on
    /// the worker pool without perturbing determinism:
    ///
    /// * **Phase A** (pure, parallel): decide — in node order — which nodes
    ///   sample this tick (sleep accounting and detector recalibration are
    ///   RNG-free), then evaluate the scene at every sampling buoy. Results
    ///   land by node index, so any pool size produces identical values.
    /// * **Phase B** (sequential): push each environment sample through the
    ///   accelerometer and detector in node order, consuming the shared RNG
    ///   exactly as the original single-loop implementation did.
    ///
    /// The loop body is the [`begin_tick`](Self::begin_tick) /
    /// [`finish_tick`](Self::finish_tick) seam; the streaming driver in
    /// `sid-stream` replays the same seam from bounded ring buffers and is
    /// journal-byte-identical to this offline loop.
    pub fn run(&mut self, duration: f64) {
        let steps = self.tick_count(duration);
        let mut sampling: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for _ in 0..steps {
            self.begin_tick(&mut sampling);
            let sense_span = if self.obs_enabled {
                self.obs.span(Stage::PhaseASense)
            } else {
                None
            };
            // Phase A, part 2: evaluate the scene for every sampling node.
            // Pure (`&self`, no RNG), so the pool may fan it out — per
            // node, or per spatial shard when a shard map is installed;
            // results are placed by input index either way.
            let envs = self.sense_all(&sampling);
            drop(sense_span);
            self.finish_tick(&sampling, &envs);
        }
        self.trace.elapsed = self.now;
    }

    /// Schedules the next sleep-depletion check for lazily-slept node
    /// `idx`. [`EnergyBudget::sleep_ticks_until_depletion`] guarantees
    /// the battery survives at least `k` more per-tick sleep charges
    /// beyond the `sleep_accounted` mark, so the eager loop could not
    /// observe a sleep-only depletion before tick
    /// `sleep_accounted + k + 2`; checking at `sleep_accounted + k + 1`
    /// keeps one tick of slack for the float clock (the scheduled
    /// absolute time is arithmetic, the live clock is accumulated, and
    /// the two may disagree by an ulp). Premature checks are harmless:
    /// they find a live battery and re-arm. Checks past the run's end
    /// are dropped — the exit settle still applies the charges, and the
    /// eager loop could not have powered the node off within the run
    /// either.
    ///
    /// [`EnergyBudget::sleep_ticks_until_depletion`]: sid_sensor::EnergyBudget::sleep_ticks_until_depletion
    fn schedule_battery_check(&self, heap: &mut EventHeap, idx: usize, steps: u64) {
        let k = self.nodes[idx]
            .energy()
            .sleep_ticks_until_depletion(self.tick_dt());
        let check_tick = self.sleep_accounted[idx]
            .saturating_add(k)
            .saturating_add(1)
            .max(self.tick_index + 1);
        if check_tick > steps {
            return;
        }
        let when = self.now + (check_tick - self.tick_index) as f64 * self.tick_dt();
        heap.schedule(
            EventTime::Absolute(when),
            self.now,
            SchedEvent::BatteryCheck(idx),
        );
    }

    /// Advances the simulation by `duration` seconds on the event-driven
    /// scheduler instead of the fixed-tick sweep.
    ///
    /// Semantics are bit-for-bit identical to [`run`](Self::run): same
    /// journal, same trace, same clock, same per-node energy — the DST
    /// `variant_equivalence` oracle enforces it on fuzzed scenarios.
    /// The difference is purely mechanical. `run` touches all N nodes
    /// every tick; this driver keeps a sorted active set plus a
    /// time-ordered [`EventHeap`] of typed wake-ups ([`SchedEvent`]) and
    /// does per-tick work proportional to what is actually due:
    ///
    /// * Sleeping, failed, and outage nodes schedule no per-tick work.
    ///   Their deterministic sleep drain is deferred and settled
    ///   bit-identically on demand (`settle_sleep`), and their battery
    ///   depletions are forecast conservatively via `BatteryCheck`
    ///   events (`schedule_battery_check`).
    /// * The network's delivery queue feeds `RadioDelivery` events
    ///   instead of being polled every tick; fault injections, duty
    ///   lease expiries, invite wake-ups, outage ends, cluster window
    ///   deadlines, alert summary flushes, and retunes arrive as heap
    ///   events the same way.
    /// * A tick where nothing samples and nothing is due advances the
    ///   clock — the same single `now + dt` addition the eager loop
    ///   performs, so the accumulated float clock stays bit-identical —
    ///   and does nothing else.
    ///
    /// Equal-timestamp events pop in heap insertion order, but no
    /// behavior hangs off that: due events are drained into per-kind
    /// buckets and each bucket is processed in ascending node order,
    /// mirroring the eager loop's index-ordered sweeps. Awake nodes keep
    /// the exact Phase A/B split of [`run`](Self::run), so the shared
    /// RNG is
    /// consumed in the same order and the journal stays byte-identical.
    pub fn run_events(&mut self, duration: f64) {
        let steps = self.tick_count(duration);
        let dt = self.tick_dt();
        let n = self.nodes.len();
        if steps == 0 {
            self.trace.elapsed = self.now;
            return;
        }

        // --- Enter event mode: derive the active set, prime the heap. ---
        self.event_mode = true;
        self.tick_index = 0;
        self.sleep_cutoff = 0;
        self.sleep_accounted.clear();
        self.sleep_accounted.resize(n, 0);
        self.active.clear();
        self.active.resize(n, false);
        self.energy_dirty.clear();
        self.wake_dirty.clear();

        let duty = self.config.duty_cycle.enabled;
        let mut heap = EventHeap::new();
        let mut active_list: Vec<usize> = Vec::with_capacity(n);
        for idx in 0..n {
            if self.failed[idx] {
                continue;
            }
            let in_outage = self.outage_until[idx].is_some_and(|t| t > self.now);
            if !in_outage && self.is_awake(idx) {
                self.active[idx] = true;
                active_list.push(idx);
                if duty && !self.sentinel[idx] {
                    heap.schedule(
                        EventTime::Absolute(self.wake_until[idx]),
                        self.now,
                        SchedEvent::DutySleep(idx),
                    );
                }
            } else {
                if let Some(t) = self.outage_until[idx] {
                    heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::OutageEnd(idx));
                }
                self.schedule_battery_check(&mut heap, idx, steps);
            }
        }
        let mut fault_marker = self.fault_plan.next_time();
        if let Some(t) = fault_marker {
            heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::FaultDue);
        }
        for &(t, _) in &self.retunes {
            heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::RetuneAt);
        }
        let mut delivery_marker = self.network.next_arrival();
        if let Some(t) = delivery_marker {
            heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::RadioDelivery);
        }
        let mut cluster_marker = self
            .clusters
            .iter()
            .map(|c| c.head.expires_at())
            .min_by(f64::total_cmp);
        if let Some(t) = cluster_marker {
            heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::ClusterDeadline);
        }
        let mut alert_marker = self.alert.next_flush_at();
        if let Some(t) = alert_marker {
            heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::AlertFlush);
        }

        // Per-tick scratch, hoisted so the loop allocates nothing.
        let mut dirty_scratch: Vec<usize> = Vec::new();
        let mut battery_due: Vec<usize> = Vec::new();
        let mut outage_due: Vec<usize> = Vec::new();
        let mut sleep_due: Vec<usize> = Vec::new();
        let mut wake_due: Vec<usize> = Vec::new();
        let mut slept_now: Vec<usize> = Vec::new();
        let mut newly_active: Vec<usize> = Vec::new();

        for _ in 0..steps {
            // The skip decision uses the exact clock value this tick
            // would carry: `now + dt` is the same single addition the
            // eager loop performs, so "due at this tick" is the
            // identical float comparison either way.
            let next_now = self.now + dt;
            if active_list.is_empty() && !heap.next_time().is_some_and(|t| t <= next_now) {
                // Idle tick: nothing samples, nothing is due. The eager
                // loop would only advance the clock and charge sleep
                // (deferred here), so skip all per-node work.
                self.now = next_now;
                self.tick_index += 1;
                self.sleep_cutoff = self.tick_index;
                continue;
            }
            self.now = next_now;
            self.tick_index += 1;
            // Until this tick's begin-sweep point, sleepers owe deferred
            // charges only through the previous tick (the eager sweep
            // charges a tick's sleep after its fault phase).
            self.sleep_cutoff = self.tick_index - 1;
            let mut membership_dirty = false;

            // Drain due events into per-kind buckets; node-scoped kinds
            // are processed in ascending index order below, mirroring
            // the eager sweeps regardless of heap pop order.
            battery_due.clear();
            outage_due.clear();
            sleep_due.clear();
            wake_due.clear();
            slept_now.clear();
            while let Some((_, ev)) = heap.pop_due(self.now) {
                match ev {
                    SchedEvent::DutyWake(idx) => wake_due.push(idx),
                    SchedEvent::DutySleep(idx) => sleep_due.push(idx),
                    SchedEvent::OutageEnd(idx) => outage_due.push(idx),
                    SchedEvent::BatteryCheck(idx) => battery_due.push(idx),
                    SchedEvent::FaultDue => fault_marker = None,
                    SchedEvent::RadioDelivery => delivery_marker = None,
                    SchedEvent::ClusterDeadline => cluster_marker = None,
                    SchedEvent::AlertFlush => alert_marker = None,
                    // Retunes consult `self.retunes` directly below.
                    SchedEvent::RetuneAt => {}
                }
            }

            self.apply_due_retunes();

            {
                let _t = if self.obs_enabled {
                    self.obs.span(Stage::Faults)
                } else {
                    None
                };
                // (a) Due scheduled faults, in plan order — the same
                // order `apply_due_faults` applies them.
                if self.fault_plan.next_time().is_some_and(|t| t <= self.now) {
                    let due: Vec<FaultEvent> = self.fault_plan.take_due(self.now).to_vec();
                    for event in due {
                        let idx = event.node as usize;
                        let is_outage = matches!(event.kind, FaultKind::Outage { .. });
                        self.apply_fault(event);
                        if is_outage && idx < n && self.outage_until[idx].is_some() {
                            // Zero-length outages recover this very
                            // tick: route through the recovery bucket.
                            outage_due.push(idx);
                            if let Some(t) = self.outage_until[idx] {
                                heap.schedule(
                                    EventTime::Absolute(t),
                                    self.now,
                                    SchedEvent::OutageEnd(idx),
                                );
                            }
                            if self.active[idx] {
                                // Drops into outage-sleep: its first
                                // deferred sleep charge is this tick's,
                                // exactly when the eager sweep would
                                // charge it.
                                self.active[idx] = false;
                                self.sleep_accounted[idx] = self.tick_index - 1;
                                slept_now.push(idx);
                                membership_dirty = true;
                            }
                        }
                    }
                }
                // (b) Depletion checks over exactly the nodes whose
                // battery changed since the last check, ascending — the
                // eager loop sweeps all nodes, but only charged ones can
                // newly deplete.
                dirty_scratch.clear();
                dirty_scratch.append(&mut self.energy_dirty);
                dirty_scratch.extend_from_slice(&battery_due);
                dirty_scratch.sort_unstable();
                dirty_scratch.dedup();
                for &idx in &dirty_scratch {
                    let was_active = self.active[idx];
                    self.check_depletion(idx);
                    if self.failed[idx] {
                        if was_active {
                            self.active[idx] = false;
                            membership_dirty = true;
                        }
                    } else if !self.active[idx] {
                        // Still sleeping: re-arm its depletion forecast
                        // (an rx charge may have shortened it).
                        self.schedule_battery_check(&mut heap, idx, steps);
                    }
                }
                // (c) Outage recoveries, ascending.
                outage_due.sort_unstable();
                outage_due.dedup();
                for &idx in &outage_due {
                    self.recover_outage(idx);
                    if !self.failed[idx]
                        && self.outage_until[idx].is_none()
                        && !self.active[idx]
                        && self.is_awake(idx)
                    {
                        // Back to sampling this very tick. Settle before
                        // activating: settlement only applies to
                        // inactive nodes.
                        self.settle_sleep(idx);
                        self.active[idx] = true;
                        newly_active.push(idx);
                        membership_dirty = true;
                        if duty && !self.sentinel[idx] {
                            heap.schedule(
                                EventTime::Absolute(self.wake_until[idx]),
                                self.now,
                                SchedEvent::DutySleep(idx),
                            );
                        }
                    }
                }
            }

            // (d) Duty transitions at the begin-sweep point.
            sleep_due.sort_unstable();
            sleep_due.dedup();
            for &idx in &sleep_due {
                if self.failed[idx] || !self.active[idx] || !duty || self.sentinel[idx] {
                    continue;
                }
                if self.wake_until[idx] > self.now {
                    // The lease was extended after this event was
                    // scheduled: lazy deletion, re-arm at the new end.
                    heap.schedule(
                        EventTime::Absolute(self.wake_until[idx]),
                        self.now,
                        SchedEvent::DutySleep(idx),
                    );
                    continue;
                }
                self.active[idx] = false;
                self.was_asleep[idx] = true;
                self.sleep_accounted[idx] = self.tick_index - 1;
                slept_now.push(idx);
                membership_dirty = true;
            }
            wake_due.sort_unstable();
            wake_due.dedup();
            for &idx in &wake_due {
                if self.failed[idx]
                    || self.active[idx]
                    || self.outage_until[idx].is_some_and(|t| t > self.now)
                    || !self.is_awake(idx)
                {
                    // Already up, still in an outage (recovery will
                    // re-evaluate wakefulness), or the lease already
                    // lapsed: stale event, drop it.
                    continue;
                }
                self.settle_sleep(idx);
                self.active[idx] = true;
                newly_active.push(idx);
                membership_dirty = true;
                if duty && !self.sentinel[idx] {
                    heap.schedule(
                        EventTime::Absolute(self.wake_until[idx]),
                        self.now,
                        SchedEvent::DutySleep(idx),
                    );
                }
            }

            // Membership sync: the sorted active list becomes exactly
            // the sampling list the eager sweep would have built.
            if membership_dirty {
                active_list.retain(|&i| self.active[i]);
                newly_active.sort_unstable();
                newly_active.dedup();
                for &idx in &newly_active {
                    if let Err(pos) = active_list.binary_search(&idx) {
                        active_list.insert(pos, idx);
                    }
                }
                newly_active.clear();
            }

            // Begin-sweep point passed: sleepers owe this tick's charge.
            self.sleep_cutoff = self.tick_index;

            // Phase A part 1: recalibrate woken detectors in node order
            // (same expression as the eager sweep, including its lack of
            // a sentinel boost on recalibration).
            for &idx in &active_list {
                if self.was_asleep[idx] {
                    self.detectors[idx] =
                        NodeDetector::new(NodeId::from(idx), self.config.detector);
                    self.was_asleep[idx] = false;
                }
            }

            // Phase A part 2 + Phase B + deliveries + clusters + alerts:
            // the exact seam `run` uses, on the active set.
            let sense_span = if self.obs_enabled {
                self.obs.span(Stage::PhaseASense)
            } else {
                None
            };
            let envs = self.sense_all(&active_list);
            drop(sense_span);
            self.finish_tick(&active_list, &envs);

            // --- Re-arm time-driven wake-ups. ---
            for &idx in &slept_now {
                if !self.failed[idx] && !self.active[idx] {
                    self.schedule_battery_check(&mut heap, idx, steps);
                }
            }
            // Sampling nodes burned energy this tick: next tick's
            // depletion check covers them like the eager sweep would.
            self.energy_dirty.extend_from_slice(&active_list);
            if active_list.is_empty() && !self.energy_dirty.is_empty() {
                // Nothing else will force the next tick: let the
                // pending depletion checks do it.
                let idx = self.energy_dirty[0];
                heap.schedule(EventTime::Delta(dt), self.now, SchedEvent::BatteryCheck(idx));
            }
            if !self.wake_dirty.is_empty() {
                // Invites recorded during deliveries: each sleeping
                // recipient starts sampling at the next tick, when the
                // eager sweep first sees `wake_until > now`.
                self.wake_dirty.sort_unstable();
                self.wake_dirty.dedup();
                for i in 0..self.wake_dirty.len() {
                    let idx = self.wake_dirty[i];
                    if !self.failed[idx] && !self.active[idx] {
                        heap.schedule(EventTime::Delta(dt), self.now, SchedEvent::DutyWake(idx));
                    }
                }
                self.wake_dirty.clear();
            }
            if let Some(t) = self.network.next_arrival() {
                if delivery_marker != Some(t) {
                    heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::RadioDelivery);
                    delivery_marker = Some(t);
                }
            }
            let next_close = self
                .clusters
                .iter()
                .map(|c| c.head.expires_at())
                .min_by(f64::total_cmp);
            if let Some(t) = next_close {
                if cluster_marker != Some(t) {
                    heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::ClusterDeadline);
                    cluster_marker = Some(t);
                }
            }
            if let Some(t) = self.alert.next_flush_at() {
                if alert_marker != Some(t) {
                    heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::AlertFlush);
                    alert_marker = Some(t);
                }
            }
            if let Some(t) = self.fault_plan.next_time() {
                if fault_marker != Some(t) {
                    heap.schedule(EventTime::Absolute(t), self.now, SchedEvent::FaultDue);
                    fault_marker = Some(t);
                }
            }
        }

        // --- Exit: settle every deferred sleep charge, leave event mode. ---
        // The deferred ledger can owe ~nodes × ticks additions here, and
        // each must replay one tick at a time to stay bit-identical to
        // the eager sweep — so hand the whole batch to the lane-
        // interleaved bulk settler instead of serializing whole per-node
        // chains back to back. `owed` is ascending, which lets the
        // mutable battery borrows be carved out with `split_at_mut`.
        let owed: Vec<(usize, u64)> = (0..n)
            .filter(|&idx| !self.failed[idx] && !self.active[idx])
            .map(|idx| (idx, self.sleep_cutoff.saturating_sub(self.sleep_accounted[idx])))
            .filter(|&(_, k)| k > 0)
            .collect();
        {
            let mut batch: Vec<(&mut EnergyBudget, u64)> = Vec::with_capacity(owed.len());
            let mut rest = self.nodes.as_mut_slice();
            let mut offset = 0usize;
            for &(idx, k) in &owed {
                let (_, tail) = rest.split_at_mut(idx - offset);
                let (node, tail) = tail.split_first_mut().expect("idx < n");
                batch.push((node.energy_mut(), k));
                rest = tail;
                offset = idx + 1;
            }
            EnergyBudget::settle_sleep_many(&mut batch, dt);
        }
        for (idx, _) in owed {
            self.sleep_accounted[idx] = self.sleep_cutoff;
        }
        self.event_mode = false;
        self.energy_dirty.clear();
        self.wake_dirty.clear();
        self.trace.elapsed = self.now;
    }

    /// Total energy consumed across all nodes (mJ).
    pub fn total_energy_mj(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy().consumed_mj()).sum()
    }

    /// Network traffic counters.
    pub fn net_stats(&self) -> sid_net::NetStats {
        self.network.stats()
    }

    /// The sink-level incident tracker: confirmed detections associated
    /// into per-intruder incidents with fused speed/track estimates.
    pub fn sink_tracker(&self) -> &SinkTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sid_ocean::{Angle, Knots, SeaState, Ship, ShipWaveModel, WaveSpectrum};

    fn build_scene(seed: u64, with_ship: bool) -> Scene {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        if with_ship {
            // Crosses the 5×5 grid (spacing 25 m, x ∈ [0,100], y ∈ [0,100])
            // sailing north between columns 1 and 2 (x = 37),
            // reaching y = 0 around t = 300/5.14 ≈ 58 s.
            scene.add_ship(Ship::new(
                Vec2::new(37.0, -300.0),
                Angle::from_degrees(90.0),
                Knots::new(10.0),
            ));
        }
        scene
    }

    fn quiet_config() -> SystemConfig {
        SystemConfig::paper_default(5, 5)
    }

    #[test]
    fn quiet_sea_generates_no_sink_detections() {
        let mut sys =
            IntrusionDetectionSystem::new(build_scene(1, false), quiet_config(), 42);
        sys.run(240.0);
        let trace = sys.trace();
        assert!(
            trace.sink_detections.is_empty(),
            "false detections: {:?}",
            trace.sink_detections
        );
    }

    #[test]
    fn crossing_ship_reaches_the_sink() {
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
        sys.run(300.0);
        let trace = sys.trace();
        assert!(
            !trace.node_reports.is_empty(),
            "no node-level reports at all"
        );
        assert!(trace.clusters_formed >= 1);
        assert!(
            !trace.sink_detections.is_empty(),
            "ship not confirmed: {} reports, {} clusters ({} cancelled)",
            trace.node_reports.len(),
            trace.clusters_formed,
            trace.clusters_cancelled
        );
    }

    #[test]
    fn reports_cluster_around_passage_time() {
        let mut sys = IntrusionDetectionSystem::new(build_scene(3, true), quiet_config(), 44);
        sys.run(300.0);
        // The ship enters the grid around t ≈ 58 s and exits by ≈ 80 s;
        // wave trains reach every node within the following ~60 s. Single
        // stray false alarms are expected (the paper's node-level accuracy
        // is itself only ~70 %); the bulk of reports must sit in the
        // passage window.
        let reports = &sys.trace().node_reports;
        assert!(!reports.is_empty());
        let in_window = reports
            .iter()
            .filter(|r| r.report_time > 40.0 && r.report_time < 200.0)
            .count();
        assert!(
            2 * in_window >= reports.len(),
            "only {in_window}/{} reports near the passage",
            reports.len()
        );
    }

    #[test]
    fn energy_is_consumed_and_tracked() {
        let mut sys = IntrusionDetectionSystem::new(build_scene(4, true), quiet_config(), 45);
        sys.run(120.0);
        // At minimum, sampling energy: 25 nodes × 120 s × 50 Hz × 0.01 mJ.
        let floor = 25.0 * 120.0 * 50.0 * 0.01;
        assert!(sys.total_energy_mj() >= floor * 0.99);
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let run = |seed| {
            let mut sys =
                IntrusionDetectionSystem::new(build_scene(5, true), quiet_config(), seed);
            sys.run(200.0);
            sys.trace().clone()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn sink_tracker_files_confirmations_into_one_incident() {
        // Seed chosen so this marginal scenario confirms under the
        // workspace's deterministic RNG stream (see vendor/README.md).
        let mut sys = IntrusionDetectionSystem::new(build_scene(30, true), quiet_config(), 43);
        sys.run(300.0);
        let detections = sys.trace().sink_detections.len();
        if detections == 0 {
            panic!("scenario produced no detections to track");
        }
        // Every confirmation of the single passage lands in one incident.
        assert_eq!(sys.sink_tracker().incidents().len(), 1);
        assert_eq!(
            sys.sink_tracker().incidents()[0].detections.len(),
            detections
        );
    }

    #[test]
    fn duty_cycling_saves_energy_and_still_detects() {
        let on = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 180.0,
                ..DutyCycleConfig::default()
            },
            ..quiet_config()
        };
        // Energy: on a quiet sea (surveillance is mostly waiting), the
        // sleeping three-quarters of the fleet cuts consumption deeply.
        let mut cycled_quiet = IntrusionDetectionSystem::new(build_scene(20, false), on, 61);
        cycled_quiet.run(300.0);
        let mut always_on =
            IntrusionDetectionSystem::new(build_scene(20, false), quiet_config(), 61);
        always_on.run(300.0);
        assert!(
            cycled_quiet.total_energy_mj() < 0.55 * always_on.total_energy_mj(),
            "cycled {} vs always-on {}",
            cycled_quiet.total_energy_mj(),
            always_on.total_energy_mj()
        );
        // Detection: sentinels raise the alarm and the woken fleet
        // confirms the intruder. Seed chosen so this marginal scenario
        // confirms under the workspace's deterministic RNG stream.
        let mut cycled = IntrusionDetectionSystem::new(build_scene(20, true), on, 17);
        cycled.run(300.0);
        assert!(
            !cycled.trace().sink_detections.is_empty(),
            "duty-cycled system missed the ship: {} reports, {} clusters",
            cycled.trace().node_reports.len(),
            cycled.trace().clusters_formed
        );
    }

    #[test]
    fn sleeping_nodes_wake_on_invite() {
        let on = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 120.0,
                ..DutyCycleConfig::default()
            },
            ..quiet_config()
        };
        let mut sys = IntrusionDetectionSystem::new(build_scene(21, true), on, 62);
        // Before anything happens, only the sentinel quarter is awake.
        let awake_before = (0..25).filter(|&i| sys.is_awake(i)).count();
        assert_eq!(awake_before, 9); // 5×5 grid: rows/cols 0,2,4
        sys.run(300.0);
        // During/after the passage more nodes were woken (reports from
        // non-sentinel nodes prove it).
        let sentinel_ids: Vec<u32> = (0..25u32)
            .filter(|i| (i / 5) % 2 == 0 && (i % 5) % 2 == 0)
            .collect();
        let woken_reporters = sys
            .trace()
            .node_reports
            .iter()
            .filter(|r| !sentinel_ids.contains(&r.node.value()))
            .count();
        assert!(woken_reporters > 0, "no woken node ever reported");
    }

    #[test]
    fn detection_survives_dead_nodes() {
        // A fifth of the fleet has failed hardware; cooperative detection
        // still confirms the intruder (the paper's robustness argument).
        let cfg = SystemConfig {
            dead_node_fraction: 0.2,
            ..quiet_config()
        };
        let mut sys = IntrusionDetectionSystem::new(build_scene(10, true), cfg, 51);
        sys.run(300.0);
        assert!(
            !sys.trace().sink_detections.is_empty(),
            "dead nodes broke detection: {} reports, {} clusters",
            sys.trace().node_reports.len(),
            sys.trace().clusters_formed
        );
    }

    #[test]
    fn fully_dead_fleet_reports_nothing() {
        let cfg = SystemConfig {
            dead_node_fraction: 1.0,
            ..quiet_config()
        };
        let mut sys = IntrusionDetectionSystem::new(build_scene(11, true), cfg, 52);
        sys.run(200.0);
        assert!(sys.trace().node_reports.is_empty());
        assert!(sys.trace().sink_detections.is_empty());
    }

    #[test]
    fn quiet_fault_config_changes_nothing() {
        // The all-zero fault campaign must be byte-identical to the
        // pre-fault pipeline: same RNG draws, same trace.
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
        sys.run(300.0);
        assert!(sys.fault_plan().is_empty());
        assert_eq!(sys.trace().faults_applied, 0);
        assert_eq!(sys.trace().head_failovers, 0);
        assert_eq!(sys.trace().degraded_evaluations, 0);
    }

    #[test]
    fn head_death_mid_window_fails_over_to_a_member() {
        // Let the detection unfold normally until the first cluster forms,
        // then kill its head and check a member finishes the window.
        let mut probe = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
        probe.run(300.0);
        let first = probe.trace().cluster_outcomes[0];
        assert!(first.confirmed, "baseline cluster must confirm");
        // Schedule the death a few seconds into the collection window.
        let death_at = first.formed_at + 5.0;
        let plan = FaultPlan::from_events(vec![FaultEvent {
            time: death_at,
            node: first.head.value(),
            kind: FaultKind::Death,
        }]);
        let mut sys = IntrusionDetectionSystem::with_fault_plan(
            build_scene(2, true),
            quiet_config(),
            43,
            plan,
        );
        sys.run(300.0);
        let trace = sys.trace();
        assert_eq!(trace.faults_applied, 1);
        assert!(trace.head_failovers >= 1, "no failover happened");
        assert!(trace.degraded_evaluations >= 1);
        assert!(sys.is_failed(first.head.index()));
        // The degraded quorum still reaches the sink: a surviving member
        // closed the window and reported.
        assert!(
            !trace.sink_detections.is_empty(),
            "head death silenced the cluster: {} clusters, {} cancelled",
            trace.clusters_formed,
            trace.clusters_cancelled
        );
        assert!(trace
            .sink_detections
            .iter()
            .all(|d| d.head != first.head));
    }

    #[test]
    fn outage_silences_then_recovers_a_node() {
        // Node 12 (grid centre) drops out for 60 s on a quiet sea: the run
        // must not panic, the node must spend the outage asleep, and it
        // must sample again afterwards.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            time: 30.0,
            node: 12,
            kind: FaultKind::Outage { duration: 60.0 },
        }]);
        let mut sys = IntrusionDetectionSystem::with_fault_plan(
            build_scene(1, false),
            quiet_config(),
            42,
            plan,
        );
        sys.run(150.0);
        assert_eq!(sys.trace().faults_applied, 1);
        assert!(!sys.is_failed(12), "an outage is not a death");
        // 60 s asleep instead of sampling: the node consumed measurably
        // less than its always-on neighbours.
        let outage_node = sys.nodes[12].energy().consumed_mj();
        let neighbour = sys.nodes[11].energy().consumed_mj();
        assert!(
            outage_node < 0.8 * neighbour,
            "outage node spent {outage_node} vs neighbour {neighbour}"
        );
    }

    #[test]
    fn chaos_campaign_never_panics_and_still_detects() {
        // A full chaos campaign — deaths, outages, drift spikes, stuck
        // channels, burst loss — over a ship passage: the run completes,
        // faults land, and the pipeline keeps functioning end to end.
        let cfg = SystemConfig {
            burst: GilbertElliott::sea_surface(0.5),
            faults: FaultPlanConfig {
                death_fraction: 0.15,
                outage_fraction: 0.15,
                drift_spike_fraction: 0.2,
                stuck_fraction: 0.1,
                spare: Some(0),
                ..FaultPlanConfig::default()
            },
            ..quiet_config()
        };
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), cfg, 43);
        sys.run(300.0);
        let trace = sys.trace();
        assert!(trace.faults_applied > 0, "campaign injected nothing");
        assert!(trace.clusters_formed > 0, "chaos silenced every node");
        assert!(sys.net_stats().transmissions > 0);
        // Determinism holds under chaos too.
        let mut again = IntrusionDetectionSystem::new(build_scene(2, true), cfg, 43);
        again.run(300.0);
        assert_eq!(trace, again.trace());
    }

    #[test]
    fn free_form_topology_skips_clustering_without_panicking() {
        // A line of five buoys with no grid structure, the ship passing
        // close by: node detection and networking run normally, but the
        // spatial correlation cannot place the reports, so no cluster
        // forms — previously this panicked on `expect("grid topology")`.
        use sid_net::Position;
        let positions: Vec<Position> =
            (0..5).map(|i| Position::new(25.0 * i as f64, 50.0)).collect();
        let topology = Topology::from_positions(positions, 30.0);
        let obs = sid_obs::Obs::in_memory();
        let mut sys = IntrusionDetectionSystem::with_topology(
            build_scene(2, true),
            quiet_config(),
            43,
            topology,
        )
        .with_obs(obs.clone());
        sys.run(300.0);
        let trace = sys.trace();
        assert!(
            !trace.node_reports.is_empty(),
            "line deployment never detected the ship"
        );
        assert_eq!(trace.reports_skipped_no_grid, trace.node_reports.len());
        assert_eq!(trace.clusters_formed, 0);
        assert!(trace.sink_detections.is_empty());
        // Exactly one warning event, regardless of how many reports.
        assert_eq!(obs.counts().warnings, 1);
        let events = obs.events().expect("in-memory recorder");
        assert!(events
            .iter()
            .any(|e| matches!(e, sid_obs::Event::Warning { .. })));
    }

    #[test]
    fn observed_run_journals_every_pipeline_stage() {
        // The crossing-ship scenario with an in-memory recorder: every
        // stage of the pipeline leaves journal entries, and the counts
        // agree with the trace the run already keeps.
        let obs = sid_obs::Obs::in_memory();
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43)
            .with_obs(obs.clone());
        sys.run(300.0);
        let trace = sys.trace();
        let counts = obs.counts();
        assert_eq!(counts.node_reports_emitted as usize, trace.node_reports.len());
        assert_eq!(counts.clusters_formed as usize, trace.clusters_formed);
        assert_eq!(
            counts.clusters_evaluated as usize,
            trace.cluster_outcomes.len()
        );
        assert_eq!(
            (counts.sink_accepted + counts.sink_duplicates_dropped) as usize,
            trace.sink_detections.len()
        );
        assert!(counts.sink_accepted > 0, "run produced no detections");
        // Wall-clock data flows through the same recorder: every tick
        // phase was timed.
        let wall = obs.wall();
        for stage in ["faults", "phase_a_sense", "phase_b_detect", "deliveries", "clusters"] {
            assert!(
                wall.stages.iter().any(|s| s.stage == stage && s.calls > 0),
                "stage {stage} never timed"
            );
        }
        // An unobserved run of the same scenario is unchanged by the
        // instrumentation (same RNG draws, same trace).
        let mut plain =
            IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
        plain.run(300.0);
        assert_eq!(trace, plain.trace());
    }

    #[test]
    fn sharded_run_is_byte_identical_to_unsharded() {
        // The same scenario unsharded, 2-sharded, and 4-sharded, on both
        // drivers: every journal must be byte-identical, and the shard
        // accessor must report the partition.
        let journal_of = |shards: usize, events: bool| {
            let obs = sid_obs::Obs::in_memory();
            let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43)
                .with_obs(obs.clone())
                .with_shards(shards);
            assert_eq!(sys.shards(), shards.max(1));
            if events {
                sys.run_events(300.0);
            } else {
                sys.run(300.0);
            }
            (
                sid_obs::render_journal(&obs.events().expect("in-memory")),
                sys.trace().clone(),
            )
        };
        let (reference, ref_trace) = journal_of(1, false);
        assert!(!reference.is_empty());
        for shards in [2usize, 4] {
            for events in [false, true] {
                let (journal, trace) = journal_of(shards, events);
                assert_eq!(journal, reference, "shards={shards} events={events}");
                assert_eq!(&trace, &ref_trace);
            }
        }
    }

    #[test]
    fn hot_reload_applies_and_rejects_at_tick_boundaries() {
        use crate::retune::DetectionRetune;
        let obs = sid_obs::Obs::in_memory();
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43)
            .with_obs(obs.clone());
        // An invalid reload mid-run: journaled rejection, pipeline keeps
        // running on the old config.
        sys.schedule_retune(
            50.0,
            DetectionRetune {
                af_threshold: Some(42.0),
                ..DetectionRetune::default()
            },
        );
        // A valid tightening later.
        sys.schedule_retune(
            100.0,
            DetectionRetune {
                af_threshold: Some(0.7),
                m: Some(2.25),
                ..DetectionRetune::default()
            },
        );
        sys.run(300.0);
        let trace = sys.trace();
        assert_eq!(trace.retunes_applied, 1);
        assert_eq!(trace.retunes_rejected, 1);
        assert!(sys.pending_retunes().is_empty());
        // The rejection left the old af in place until the valid reload.
        assert_eq!(sys.detectors[3].config().af_threshold, 0.7);
        assert_eq!(sys.detectors[3].config().m, 2.25);
        assert_eq!(sys.detectors[3].threshold().m(), 2.25);
        let counts = obs.counts();
        assert_eq!(counts.config_reloads, 1);
        assert_eq!(counts.config_reload_rejections, 1);
        assert_eq!(counts.warnings, 1, "rejection journals a warning");
        // Every non-duplicate sink acceptance flowed through the edge.
        assert_eq!(
            counts.sink_accepted,
            counts.alerts_emitted + counts.alerts_suppressed
        );
        assert_eq!(sys.alert_edge().emitted() as usize, trace.alerts_emitted);
        // Suppression accounting is exact: covered + still-pending.
        let coalesced: u64 = obs
            .events()
            .expect("in-memory recorder")
            .iter()
            .filter_map(|e| match e {
                Event::AlertCoalesced { suppressed, .. } => Some(*suppressed),
                _ => None,
            })
            .sum();
        assert_eq!(
            coalesced + sys.alert_edge().pending_suppressed(),
            counts.alerts_suppressed
        );
    }

    #[test]
    fn network_traffic_flows_during_detection() {
        let mut sys = IntrusionDetectionSystem::new(build_scene(6, true), quiet_config(), 46);
        sys.run(300.0);
        let stats = sys.net_stats();
        assert!(stats.transmissions > 0);
        assert!(stats.delivered > 0);
    }

    /// Runs the same scenario under the tick sweep and the event-driven
    /// scheduler and asserts bit-identity: journal, counts, trace, the
    /// accumulated clock, and every node's battery, down to the float
    /// bits.
    fn assert_scheduler_equivalent(
        mk: impl Fn() -> IntrusionDetectionSystem,
        duration: f64,
        label: &str,
    ) {
        let obs_a = sid_obs::Obs::in_memory();
        let mut a = mk().with_obs(obs_a.clone());
        a.run(duration);
        let obs_b = sid_obs::Obs::in_memory();
        let mut b = mk().with_obs(obs_b.clone());
        b.run_events(duration);
        assert_eq!(
            obs_a.events().expect("in-memory"),
            obs_b.events().expect("in-memory"),
            "{label}: journals diverge"
        );
        assert_eq!(obs_a.counts(), obs_b.counts(), "{label}: counts diverge");
        assert_eq!(a.trace(), b.trace(), "{label}: traces diverge");
        assert_eq!(
            a.now().to_bits(),
            b.now().to_bits(),
            "{label}: clocks diverge"
        );
        for idx in 0..a.nodes.len() {
            assert_eq!(
                a.nodes[idx].energy().consumed_mj().to_bits(),
                b.nodes[idx].energy().consumed_mj().to_bits(),
                "{label}: node {idx} energy diverges"
            );
        }
        assert_eq!(a.net_stats(), b.net_stats(), "{label}: net stats diverge");
    }

    #[test]
    fn event_loop_matches_tick_loop_on_crossing_ship() {
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43),
            300.0,
            "crossing ship",
        );
    }

    #[test]
    fn event_loop_matches_tick_loop_under_duty_cycling() {
        let on = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 120.0,
                ..DutyCycleConfig::default()
            },
            ..quiet_config()
        };
        // A ship passage wakes and re-sleeps the fleet: invite wake-ups,
        // lease expiries, lease extensions, and lazy sleep accounting all
        // get exercised.
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(21, true), on, 62),
            300.0,
            "duty cycling",
        );
        // And a quiet duty-cycled sea: the idle-heavy case the event
        // driver exists for (sentinels only, everyone else asleep).
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(20, false), on, 61),
            300.0,
            "quiet duty cycling",
        );
    }

    #[test]
    fn event_loop_matches_tick_loop_under_chaos() {
        let cfg = SystemConfig {
            burst: GilbertElliott::sea_surface(0.5),
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 90.0,
                ..DutyCycleConfig::default()
            },
            faults: FaultPlanConfig {
                death_fraction: 0.15,
                outage_fraction: 0.15,
                drift_spike_fraction: 0.2,
                stuck_fraction: 0.1,
                spare: Some(0),
                ..FaultPlanConfig::default()
            },
            ..quiet_config()
        };
        // Deaths, outages (incl. of sleeping nodes), drift spikes, stuck
        // channels, burst loss, and duty cycling at once.
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(2, true), cfg, 43),
            300.0,
            "chaos campaign",
        );
    }

    #[test]
    fn event_loop_matches_tick_loop_with_retunes() {
        use crate::retune::DetectionRetune;
        let mk = || {
            let mut sys =
                IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
            sys.schedule_retune(
                50.0,
                DetectionRetune {
                    af_threshold: Some(42.0),
                    ..DetectionRetune::default()
                },
            );
            sys.schedule_retune(
                100.0,
                DetectionRetune {
                    af_threshold: Some(0.7),
                    m: Some(2.25),
                    ..DetectionRetune::default()
                },
            );
            sys
        };
        assert_scheduler_equivalent(mk, 300.0, "hot reload");
    }

    #[test]
    fn event_loop_matches_tick_loop_on_zero_duration_outage() {
        // An outage at t = 0 with duration 0: `outage_until` lands on
        // exactly the fault time, the node goes down and comes back in
        // the same tick, and both drivers agree (this is the boundary
        // the old `outage_until > 0.0` magic-zero sentinel got wrong).
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                time: 0.0,
                node: 12,
                kind: FaultKind::Outage { duration: 0.0 },
            },
            FaultEvent {
                time: 30.0,
                node: 7,
                kind: FaultKind::Outage { duration: 60.0 },
            },
        ]);
        let mk = || {
            IntrusionDetectionSystem::with_fault_plan(
                build_scene(1, false),
                quiet_config(),
                42,
                plan.clone(),
            )
        };
        assert_scheduler_equivalent(mk, 120.0, "zero-duration outage");
    }

    #[test]
    fn zero_duration_outage_bounces_the_node_in_one_tick() {
        // Regression for the `outage_until > 0.0` sentinel bug: an
        // outage starting at t = 0 with duration 0 must journal NodeDown
        // and NodeUp in the very first tick and leave the node sampling.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            time: 0.0,
            node: 12,
            kind: FaultKind::Outage { duration: 0.0 },
        }]);
        let obs = sid_obs::Obs::in_memory();
        let mut sys = IntrusionDetectionSystem::with_fault_plan(
            build_scene(1, false),
            quiet_config(),
            42,
            plan,
        )
        .with_obs(obs.clone());
        sys.run(10.0);
        assert!(!sys.is_failed(12), "a zero-length outage is not a death");
        assert!(sys.outage_until[12].is_none(), "outage never cleared");
        let events = obs.events().expect("in-memory recorder");
        let first_tick = sys.tick_dt();
        let down_at = events.iter().find_map(|e| match e {
            Event::NodeDown { time, node: 12, .. } => Some(*time),
            _ => None,
        });
        let up_at = events.iter().find_map(|e| match e {
            Event::NodeUp { time, node: 12 } => Some(*time),
            _ => None,
        });
        assert_eq!(down_at, Some(first_tick), "NodeDown not in the first tick");
        assert_eq!(up_at, Some(first_tick), "NodeUp not in the first tick");
        // The node kept sampling: its battery consumed as much as an
        // untouched neighbour's (one tick of sleep differs by < 1 mJ,
        // sampling dominates).
        let bounced = sys.nodes[12].energy().consumed_mj();
        let neighbour = sys.nodes[11].energy().consumed_mj();
        assert!(
            (bounced - neighbour).abs() < 0.01 * neighbour,
            "bounced node stopped sampling: {bounced} vs {neighbour}"
        );
    }

    #[test]
    fn late_report_after_window_close_is_counted_not_silent() {
        // Force a member report to arrive after its cluster dissolved: a
        // short collection window plus a high-latency radio means
        // reports raised near the window's end are still in flight when
        // the head evaluates and frees the members. The delivery stage
        // must count the drop and journal it.
        let mut cfg = quiet_config();
        cfg.cluster.collection_window = 2.0;
        cfg.radio = RadioModel {
            base_latency: 1.5,
            ..RadioModel::lossy()
        };
        let obs = sid_obs::Obs::in_memory();
        let mut sys = IntrusionDetectionSystem::new(build_scene(2, true), cfg, 43)
            .with_obs(obs.clone());
        sys.run(300.0);
        let trace = sys.trace();
        assert!(
            trace.reports_dropped_no_cluster > 0,
            "no late report was dropped ({} clusters formed, {} reports)",
            trace.clusters_formed,
            trace.node_reports.len()
        );
        let journaled = obs
            .events()
            .expect("in-memory recorder")
            .iter()
            .filter(|e| matches!(e, Event::ReportDroppedNoCluster { .. }))
            .count();
        assert_eq!(journaled, trace.reports_dropped_no_cluster);
        assert_eq!(
            obs.counts().reports_dropped_no_cluster as usize,
            trace.reports_dropped_no_cluster
        );
    }

    #[test]
    fn tick_counts_are_integer_safe_on_awkward_durations() {
        let sys = IntrusionDetectionSystem::new(build_scene(1, false), quiet_config(), 42);
        let dt = sys.tick_dt(); // 0.02 s at 50 Hz
        // Exact multiples, including ones where duration/dt is not
        // representable exactly (0.06 / 0.02 = 2.9999999999999996).
        assert_eq!(sys.tick_count(0.06), 3);
        assert_eq!(sys.tick_count(0.02), 1);
        assert_eq!(sys.tick_count(1.0), 50);
        assert_eq!(sys.tick_count(300.0), 15_000);
        // Fractional ticks round half-up.
        assert_eq!(sys.tick_count(0.029), 1);
        assert_eq!(sys.tick_count(0.031), 2);
        assert_eq!(sys.tick_count(0.03), 2);
        // Degenerate inputs.
        assert_eq!(sys.tick_count(0.0), 0);
        assert_eq!(sys.tick_count(-5.0), 0);
        assert_eq!(sys.tick_count(f64::NAN), 0);
        assert_eq!(ticks_in(1.0, dt), 50);
        // Chunked advances cover the same ticks as one call: an awkward
        // duration split across calls must not drop or duplicate a tick,
        // and the accumulated clock agrees bit-for-bit.
        let mut whole = IntrusionDetectionSystem::new(build_scene(1, false), quiet_config(), 42);
        whole.run(0.06 + 0.0599999999999 + 0.02);
        let mut chunked =
            IntrusionDetectionSystem::new(build_scene(1, false), quiet_config(), 42);
        chunked.run(0.06);
        chunked.run(0.0599999999999);
        chunked.run(0.02);
        assert_eq!(
            whole.now().to_bits(),
            chunked.now().to_bits(),
            "chunked clock drifted: {} vs {}",
            whole.now(),
            chunked.now()
        );
        assert_eq!(whole.trace(), chunked.trace());
    }
}
