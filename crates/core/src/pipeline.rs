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

use std::sync::{Arc, Mutex};

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
use crate::retune::{DetectionRetune, RetuneError};
use crate::sched::EventHeap;
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
    if !(ratio > 0.0 && ratio.is_finite()) {
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
    /// and touch tracking in the shared stage methods).
    event_mode: bool,
    /// Ticks completed since `run_events` entry (1-based within a run).
    tick_index: u64,
    /// The tick through which resting nodes currently owe deferred
    /// sleep charges: `tick_index - 1` until the current tick's
    /// sample-or-rest pass, `tick_index` after it. Keeping this as an
    /// explicit phase pointer lets [`Self::settle_sleep`] reproduce the
    /// eager loop's exact charge interleaving (sleep-then-tx within one
    /// tick differs bitwise from tx-then-sleep).
    sleep_cutoff: u64,
    /// Per node: last tick whose deferred sleep charge has been applied.
    sleep_accounted: Vec<u64>,
    /// Per node: in the event driver's sampling set (awake, powered, no
    /// outage). Nodes outside it are slept lazily.
    active: Vec<bool>,
    /// Nodes charged or hit by a fault since their last visit; the
    /// event driver visits each on the next tick's steps.
    touched: Vec<usize>,
    /// Per node: its sense-ahead block, the scene evaluations Phase A
    /// takes its samples from under the event driver (reset each call).
    blocks: Vec<SenseBlock>,
    /// Number of destination lanes the network's delivery queue is
    /// partitioned into ([`Self::with_shards`]; 1 when unsharded).
    shards: usize,
}

/// The most ticks one sense-ahead block covers: a pool task senses one
/// node at this many consecutive tick times
/// ([`IntrusionDetectionSystem::run_events`]).
const SENSE_AHEAD_TICKS: u64 = 25;

/// One node's scene evaluations at consecutive ticks of a `run_events`
/// call, starting at tick `first_tick` (1-based within the call), whose
/// time is `first_time`.
#[derive(Default)]
struct SenseBlock {
    first_tick: u64,
    first_time: f64,
    samples: Vec<EnvSample>,
}

impl SenseBlock {
    /// A block's tick times: each is the previous one plus `dt`, the
    /// same addition that advances the live clock, so every entry is
    /// bit-identical to sensing at its tick.
    fn tick_times(first_time: f64, dt: f64) -> impl Iterator<Item = f64> {
        std::iter::successors(Some(first_time), move |t| Some(t + dt))
    }

    fn covers(&self, tick: u64) -> bool {
        tick >= self.first_tick && tick - self.first_tick < self.samples.len() as u64
    }
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
            touched: Vec::new(),
            blocks: Vec::new(),
            shards: 1,
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
    /// spatial-hash neighbor index) and splits the network's delivery
    /// queue into one lane per region, merged back by `(time, seq)`.
    /// Sensing is not grouped by region: Phase A is dispatched per node
    /// either way. Every journal byte is identical to the unsharded run
    /// — the lane merge reproduces the single-queue delivery order
    /// exactly (the DST `variant_equivalence` oracle enforces this on
    /// fuzzed scenarios). `shards <= 1` removes the partition.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let map = if shards <= 1 {
            ShardMap::single(self.topology.len())
        } else {
            ShardMap::from_topology(&self.topology, shards)
        };
        self.network.set_shards(&map);
        self.shards = map.shards();
        self
    }

    /// Number of spatial shards the deployment is partitioned into
    /// (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.shards
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
                    // (The rx charge above touched the member, so the
                    // event driver visits it on the next tick, exactly
                    // when the eager sweep first sees `wake_until > now`.)
                    self.wake_until[d.to.index()] = self
                        .wake_until[d.to.index()]
                        .max(self.now + self.config.duty_cycle.wake_duration);
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

    /// Remembers that node `idx` changed, so the event driver visits it
    /// on the next tick's steps (the eager loop sweeps every node every
    /// tick and needs no memory).
    fn touch(&mut self, idx: usize) {
        if self.event_mode {
            self.touched.push(idx);
        }
    }

    /// Charges node `idx` for transmitting `bytes`, settling deferred
    /// sleep first so the accumulation order matches the eager loop's.
    fn charge_tx_at(&mut self, idx: usize, bytes: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().charge_tx(bytes);
        self.touch(idx);
    }

    /// Charges node `idx` for receiving `bytes` (see [`Self::charge_tx_at`]).
    fn charge_rx_at(&mut self, idx: usize, bytes: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().charge_rx(bytes);
        self.touch(idx);
    }

    /// Exhausts node `idx`'s battery (scheduled death), settling deferred
    /// sleep first so `consumed` crosses capacity from the same value the
    /// eager loop would see.
    fn exhaust_at(&mut self, idx: usize) {
        self.settle_sleep(idx);
        self.nodes[idx].energy_mut().exhaust();
        self.touch(idx);
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
    /// journaled and skipped, never fatal. `at = f64::NEG_INFINITY`
    /// applies at the next tick; `at = f64::INFINITY` never applies and
    /// stays pending.
    ///
    /// # Errors
    ///
    /// [`RetuneError::NanTime`] if `at` is NaN; the queue is left
    /// untouched (a NaN time would sort ahead of every other retune and
    /// never come due, wedging the queue behind it).
    pub fn schedule_retune(&mut self, at: f64, retune: DetectionRetune) -> Result<(), RetuneError> {
        if at.is_nan() {
            return Err(RetuneError::NanTime);
        }
        let pos = self.retunes.partition_point(|&(t, _)| t <= at);
        self.retunes.insert(pos, (at, retune));
        Ok(())
    }

    /// Requests a detection hot reload at the next tick boundary (the
    /// live-operations entry point; [`Self::schedule_retune`] is the
    /// scripted one).
    pub fn request_retune(&mut self, retune: DetectionRetune) {
        // Cannot be rejected: the clock starts at zero and only advances
        // by whole positive ticks, so it is never NaN.
        let _ = self.schedule_retune(self.now, retune);
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
    /// serializes).
    pub fn set_alert_edge(&mut self, edge: AlertEdge) {
        self.alert = edge;
    }

    /// The simulation tick length in seconds (the detector sample period).
    pub fn tick_dt(&self) -> f64 {
        1.0 / self.config.detector.sample_rate
    }

    /// The number of whole simulation ticks a `duration`-second advance
    /// covers. Both drivers — [`run`](Self::run) and
    /// [`run_events`](Self::run_events) — and the DST replays take their
    /// step count from this one function, so all of them agree on tick
    /// counts (and therefore on the exact `now += dt` clock) even for
    /// durations that are not exact multiples of
    /// [`tick_dt`](Self::tick_dt).
    ///
    /// Boundary rule: the tick count is `duration / tick_dt` rounded
    /// half-up, with a relative epsilon of one part in 10⁹ absorbing
    /// float error in the division. A duration within one part in 10⁹ of
    /// `k × dt` yields exactly `k` ticks (`0.06 s` at 50 Hz is 3 ticks,
    /// not the 2 a truncating division would produce), and an exact
    /// half-tick remainder rounds up. Negative, zero, infinite and NaN
    /// durations yield zero ticks.
    pub fn tick_count(&self, duration: f64) -> u64 {
        ticks_in(duration, self.tick_dt())
    }

    /// Opens the next simulation tick: advances time by one
    /// [`tick_dt`](Self::tick_dt), applies due faults, performs the
    /// RNG-free sleep/wake bookkeeping, and fills `sampling` with the
    /// indices of the nodes that sample this tick (in node order).
    fn begin_tick(&mut self, sampling: &mut Vec<usize>) {
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
    }

    /// Phase A part 2 for the sweep: evaluates the scene for every index
    /// in `sampling` at the current tick time, one
    /// [`Pool::par_map`](sid_exec::Pool::par_map) over the sampling list.
    /// Sensing is pure (`&self`, no RNG) and results land in `sampling`
    /// order, so the pool size changes no byte.
    fn sense_all(&self, sampling: &[usize]) -> Vec<EnvSample> {
        let (nodes, scene, now) = (&self.nodes, &self.scene, self.now);
        self.pool
            .par_map(sampling, |&idx| nodes[idx].sense_environment(scene, now))
    }

    /// Phase A part 2 for the event driver: refills, in one pool batch,
    /// the [`SenseBlock`] of every node in `sampling` whose block does not
    /// cover the current tick — each task senses one node at this tick
    /// and the ones after it, up to [`SENSE_AHEAD_TICKS`] and never past
    /// the call's last tick `steps` — then fills `envs` with each
    /// sampling node's entry for this tick, in `sampling` order.
    fn sense_from_blocks(
        &mut self,
        sampling: &[usize],
        envs: &mut Vec<EnvSample>,
        steps: u64,
        dt: f64,
    ) {
        let tick = self.tick_index;
        let now = self.now;
        let len = SENSE_AHEAD_TICKS.min(steps - tick + 1) as usize;
        // Each refill reuses the node's spent buffer, sized here on the
        // calling thread; its task takes the buffer out of its `Mutex`,
        // fills it and returns it. Pool workers therefore never allocate,
        // and a refill never holds a node's old and new block at once.
        // (Filling it in place was slower: neighbouring refills' `Vec`
        // headers share cache lines, and every push rewrites the length.)
        let mut refills: Vec<Mutex<(usize, Vec<EnvSample>)>> = Vec::new();
        for &idx in sampling {
            if !self.blocks[idx].covers(tick) {
                let mut samples = std::mem::take(&mut self.blocks[idx].samples);
                samples.clear();
                samples.reserve_exact(len);
                refills.push(Mutex::new((idx, samples)));
            }
        }
        if !refills.is_empty() {
            let (nodes, scene) = (&self.nodes, &self.scene);
            let filled = self.pool.par_map(&refills, |refill| {
                let (idx, buffer) = &mut *refill
                    .lock()
                    .expect("each refill is locked once, by its own task");
                let mut samples = std::mem::take(buffer);
                samples.extend(
                    SenseBlock::tick_times(now, dt)
                        .take(len)
                        .map(|t| nodes[*idx].sense_environment(scene, t)),
                );
                (*idx, samples)
            });
            for (idx, samples) in filled {
                self.blocks[idx] = SenseBlock {
                    first_tick: tick,
                    first_time: now,
                    samples,
                };
            }
        }
        envs.clear();
        envs.extend(sampling.iter().map(|&idx| {
            let block = &self.blocks[idx];
            let offset = (tick - block.first_tick) as usize;
            debug_assert_eq!(
                SenseBlock::tick_times(block.first_time, dt)
                    .nth(offset)
                    .map(f64::to_bits),
                Some(self.now.to_bits()),
                "node {idx}: block time diverged from the clock at tick {tick}"
            );
            block.samples[offset]
        }));
    }

    /// Closes the current tick: pushes one pre-sensed environment sample
    /// per sampling node through the accelerometer and detector (Phase B,
    /// strictly sequential in node order — the shared RNG sees the same
    /// draw sequence as the original single-loop implementation), then
    /// drains network deliveries and expired cluster windows.
    ///
    /// `envs[i]` must be the scene evaluation for node `sampling[i]` at
    /// the current tick time.
    fn finish_tick(&mut self, sampling: &[usize], envs: &[EnvSample]) {
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
    /// This tick sweep is the reference driver, not the production one:
    /// [`run_events`](Self::run_events) must reproduce its journal,
    /// trace and batteries byte-for-byte. It stays public for that role
    /// — the DST baseline, `sched_bench`, the `prop_sched` property tests
    /// and the unit tests compare against it — and every production
    /// caller drives [`run_events`](Self::run_events).
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
            // Pure (`&self`, no RNG), so the pool may fan it out per node;
            // results are placed by input index.
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
    fn schedule_battery_check(&self, revisits: &mut EventHeap, idx: usize, steps: u64) {
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
        revisits.schedule(when, idx);
    }

    /// Arms resting node `idx`'s own revisits: its outage end, if it is
    /// in an outage, and its battery forecast.
    fn arm_revisits(&self, revisits: &mut EventHeap, idx: usize, steps: u64) {
        if let Some(t) = self.outage_until[idx] {
            revisits.schedule(t, idx);
        }
        self.schedule_battery_check(revisits, idx, steps);
    }

    /// Whether live node `idx` rests this tick instead of sampling: it is
    /// in an outage, or asleep under duty cycling.
    fn rests(&self, idx: usize) -> bool {
        self.outage_until[idx].is_some_and(|t| t > self.now) || !self.is_awake(idx)
    }

    /// Advances the simulation by `duration` seconds, running the sweep's
    /// own per-node steps over only the nodes whose state can change.
    /// This is the production driver.
    ///
    /// Semantics are bit-for-bit identical to [`run`](Self::run): same
    /// journal, same trace, same clock, same per-node energy — the DST
    /// `variant_equivalence` oracle enforces it on fuzzed scenarios.
    /// Each tick runs the sweep's steps — due faults, the depletion
    /// check, outage recovery, the sample-or-rest decision, then sensing,
    /// detection, deliveries and cluster closes — in ascending node order
    /// over a *visit set*: last tick's sampling nodes, the nodes touched
    /// since their last visit (charged by the radio or hit by a fault),
    /// and resting nodes whose own revisit is due (an [`EventHeap`] of
    /// outage ends and battery forecasts). A node outside that set rests
    /// with nothing due, so each sweep step would leave it unchanged
    /// except for its sleep charge, which is deferred and settled
    /// bit-identically on demand (`settle_sleep`) and at exit. Any
    /// superset of the needed nodes is therefore exact.
    ///
    /// Phase A senses ahead: a sampling node takes each tick's scene
    /// evaluation from its sense-ahead block, one pool task's worth of
    /// its next 25 ticks, and the nodes whose block
    /// runs out on a tick are refilled together in one pool batch.
    /// Sensing is pure and reads only the buoy and the scene, which no
    /// step of a run mutates, and a block's tick times come from the
    /// same `+ dt` additions as the live clock — so a block entry is
    /// bit-identical to sensing at its tick, whenever it was computed.
    pub fn run_events(&mut self, duration: f64) {
        let steps = self.tick_count(duration);
        let dt = self.tick_dt();
        let n = self.nodes.len();
        if steps == 0 {
            self.trace.elapsed = self.now;
            return;
        }

        // --- Entry: awake nodes seed the sampling set; every resting
        // node arms its own revisits. ---
        self.event_mode = true;
        self.tick_index = 0;
        self.sleep_cutoff = 0;
        self.sleep_accounted.clear();
        self.sleep_accounted.resize(n, 0);
        self.active.clear();
        self.active.resize(n, false);
        self.touched.clear();
        self.blocks.clear();
        self.blocks.resize_with(n, SenseBlock::default);
        let mut revisits = EventHeap::new();
        let mut sampling: Vec<usize> = Vec::with_capacity(n);
        let mut envs: Vec<EnvSample> = Vec::with_capacity(n);
        for idx in 0..n {
            if self.failed[idx] {
                continue;
            }
            if self.rests(idx) {
                // The sweep marks it asleep on the first tick it rests.
                self.was_asleep[idx] = true;
                self.arm_revisits(&mut revisits, idx, steps);
            } else {
                self.active[idx] = true;
                sampling.push(idx);
            }
        }
        let mut visit: Vec<usize> = Vec::with_capacity(n);
        let mut resting: Vec<usize> = Vec::new();

        for _ in 0..steps {
            self.now += dt;
            self.tick_index += 1;
            // Until the sample-or-rest pass, resting nodes owe sleep only
            // through the previous tick (the sweep charges a tick's sleep
            // after its fault phase).
            self.sleep_cutoff = self.tick_index - 1;
            self.apply_due_retunes();
            {
                let _t = if self.obs_enabled {
                    self.obs.span(Stage::Faults)
                } else {
                    None
                };
                let due: Vec<FaultEvent> = self.fault_plan.take_due(self.now).to_vec();
                for event in due {
                    let idx = event.node as usize;
                    self.apply_fault(event);
                    if idx < n {
                        self.touched.push(idx);
                    }
                }
                visit.clear();
                visit.extend_from_slice(&sampling);
                visit.append(&mut self.touched);
                while let Some((_, idx)) = revisits.pop_due(self.now) {
                    visit.push(idx);
                }
                visit.sort_unstable();
                visit.dedup();
                let mut i = 0;
                while i < visit.len() {
                    let idx = visit[i];
                    let was_failed = self.failed[idx];
                    self.check_depletion(idx);
                    if self.failed[idx] && !was_failed {
                        // Its failover may have charged members' re-sends;
                        // the sweep checks those later in node order in
                        // this same pass.
                        visit.extend(self.touched.iter().copied().filter(|&m| m > idx));
                        visit[i + 1..].sort_unstable();
                        visit.dedup();
                    }
                    i += 1;
                }
                for &idx in &visit {
                    self.recover_outage(idx);
                }
            }

            // The sweep's sample-or-rest branch, in node order.
            sampling.clear();
            resting.clear();
            for &idx in &visit {
                if self.failed[idx] {
                    self.active[idx] = false;
                } else if self.rests(idx) {
                    if self.active[idx] {
                        // Owes this tick's sleep charge, exactly when the
                        // sweep would make it.
                        self.active[idx] = false;
                        self.sleep_accounted[idx] = self.tick_index - 1;
                    }
                    self.was_asleep[idx] = true;
                    resting.push(idx);
                } else {
                    // Settle before activating: settlement only applies
                    // to inactive nodes.
                    self.settle_sleep(idx);
                    self.active[idx] = true;
                    if self.was_asleep[idx] {
                        // Same expression as the sweep, including its
                        // lack of a sentinel boost on recalibration.
                        self.detectors[idx] =
                            NodeDetector::new(NodeId::from(idx), self.config.detector);
                        self.was_asleep[idx] = false;
                    }
                    sampling.push(idx);
                }
            }
            // Sample-or-rest point passed: resting nodes owe this tick's
            // charge.
            self.sleep_cutoff = self.tick_index;

            let sense_span = if self.obs_enabled {
                self.obs.span(Stage::PhaseASense)
            } else {
                None
            };
            self.sense_from_blocks(&sampling, &mut envs, steps, dt);
            drop(sense_span);
            self.finish_tick(&sampling, &envs);
            for &idx in &resting {
                self.arm_revisits(&mut revisits, idx, steps);
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
        self.touched.clear();
        self.blocks.clear();
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
        )
        .expect("finite retune time");
        // A valid tightening later.
        sys.schedule_retune(
            100.0,
            DetectionRetune {
                af_threshold: Some(0.7),
                m: Some(2.25),
                ..DetectionRetune::default()
            },
        )
        .expect("finite retune time");
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
        let journal = sid_obs::render_journal(&obs.events().expect("in-memory recorder"));
        assert!(
            journal.contains("af_threshold must lie in (0, 1]"),
            "rejection carries the validation reason"
        );
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
    fn alert_edge_snapshot_restores_and_continues_identically() {
        // Snapshot the alerting edge mid-run, serde round-trip it,
        // restore it into a twin paused at the same point, and require
        // both to finish with identical edges and traces.
        let mk = || IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43);
        let (mut a, mut b) = (mk(), mk());
        a.run(150.0);
        b.run(150.0);
        let snapshot = a.alert_edge().clone();
        let json = serde_json::to_string(&snapshot).expect("alert edge serializes");
        let restored: AlertEdge = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(restored, snapshot, "serde round-trip is lossless");
        b.set_alert_edge(restored);
        a.run(150.0);
        b.run(150.0);
        assert!(a.alert_edge().emitted() > 0, "the passage raised no alert");
        assert_eq!(a.alert_edge(), b.alert_edge(), "restored edge diverged");
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn network_traffic_flows_during_detection() {
        let mut sys = IntrusionDetectionSystem::new(build_scene(6, true), quiet_config(), 46);
        sys.run(300.0);
        let stats = sys.net_stats();
        assert!(stats.transmissions > 0);
        assert!(stats.delivered > 0);
    }

    /// Runs the same scenario under the tick sweep (one call over the
    /// whole span, on a one-thread pool) and the event loop (one call per
    /// entry of `calls`, in seconds, on a `threads`-wide pool) and
    /// asserts bit-identity: journal, counts, trace, the accumulated
    /// clock, every node's battery down to the float bits, and every
    /// failure flag.
    fn assert_scheduler_equivalent(
        mk: impl Fn() -> IntrusionDetectionSystem,
        threads: usize,
        calls: &[f64],
        label: &str,
    ) {
        let obs_a = sid_obs::Obs::in_memory();
        let mut a = mk()
            .with_pool(Arc::new(sid_exec::Pool::new(1)))
            .with_obs(obs_a.clone());
        a.run(calls.iter().sum());
        let obs_b = sid_obs::Obs::in_memory();
        let mut b = mk()
            .with_pool(Arc::new(sid_exec::Pool::new(threads)))
            .with_obs(obs_b.clone());
        for &call in calls {
            b.run_events(call);
        }
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
        assert_eq!(a.failed, b.failed, "{label}: failure flags diverge");
        assert_eq!(a.net_stats(), b.net_stats(), "{label}: net stats diverge");
    }

    /// The 5×5 duty-cycled ship passage of `sleeping_nodes_wake_on_invite`
    /// (invite wake-ups, lease expiries and extensions), with each node's
    /// battery replaced by `capacity(idx, is_sentinel)` mJ where that
    /// returns a value.
    fn duty_grid_with_batteries(
        capacity: impl Fn(usize, bool) -> Option<f64>,
    ) -> IntrusionDetectionSystem {
        let on = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 120.0,
                ..DutyCycleConfig::default()
            },
            ..quiet_config()
        };
        let mut sys = IntrusionDetectionSystem::new(build_scene(21, true), on, 62);
        for idx in 0..sys.nodes.len() {
            if let Some(cap) = capacity(idx, sys.sentinel[idx]) {
                let model = *sys.nodes[idx].energy().model();
                *sys.nodes[idx].energy_mut() = EnergyBudget::new(model, cap);
            }
        }
        sys
    }

    #[test]
    fn event_loop_matches_tick_loop_when_sleepers_run_out() {
        // Sleepers get 0.2–2.6 mJ: at 0.01 mJ/s of deep sleep most of
        // them run out mid-run through sleep alone, which only the
        // battery-forecast revisit can catch. One whole run, and the
        // same run in 1 s calls.
        let mk = || {
            duty_grid_with_batteries(|idx, sentinel| (!sentinel).then_some(0.2 + 0.1 * idx as f64))
        };
        let mut probe = mk();
        probe.run(300.0);
        let ran_out = (0..25).filter(|&i| probe.is_failed(i)).count();
        assert!(ran_out >= 10, "only {ran_out} sleepers ran out");
        assert_scheduler_equivalent(mk, 2, &[300.0], "sleepers run out");
        assert_scheduler_equivalent(mk, 2, &[1.0; 300], "sleepers run out, 1 s calls");
    }

    #[test]
    fn sampling_node_that_runs_out_at_a_call_boundary_stops_sampling() {
        // Sentinels sample at 0.5 mJ/s, so 23–63 mJ run out 46–126 s in.
        // Across these settings some sentinel's battery runs out on the
        // last tick of a 1 s call; the next call must depletion-check it
        // on its first tick, as the sweep does, instead of letting it
        // sample once more.
        for k in 0..20 {
            let mk = || {
                duty_grid_with_batteries(|idx, sentinel| {
                    sentinel.then_some(23.0 + 2.0 * k as f64 + 0.3 * idx as f64)
                })
            };
            assert_scheduler_equivalent(
                mk,
                2,
                &[1.0; 120],
                &format!("sentinel battery setting {k}"),
            );
        }
    }

    #[test]
    fn failover_resend_that_drains_a_resting_member_fails_it_the_same_tick() {
        // Sentinel 2 heads an open window with two sleeping members:
        // node 1 holds the fresher report and takes over, node 7
        // re-sends its cached one. Node 2's battery runs out after a few
        // samples; the failover's re-send then drains node 7, which the
        // sweep depletion-checks later in that same pass. The event loop
        // must power 7 off on the same tick, although 7 rests and was
        // not in the tick's visit set when the pass began.
        let mk = || {
            let mut sys = duty_grid_with_batteries(|idx, _| match idx {
                2 => Some(0.05),
                7 => Some(0.5),
                _ => None,
            });
            let head = NodeId::from(2);
            sys.clusters.push(ActiveCluster {
                head: ClusterHead::new(head, 0.0, sys.config.cluster),
                degraded: false,
            });
            sys.current_head[2] = Some(head);
            for (member, report_time) in [(1, 0.2), (7, 0.1)] {
                sys.current_head[member] = Some(head);
                sys.last_report[member] = Some(NodeReport {
                    node: NodeId::from(member),
                    onset_time: 0.0,
                    peak_time: 0.0,
                    report_time,
                    anomaly_frequency: 0.5,
                    energy: 1.0,
                });
            }
            sys
        };
        let mut probe = mk();
        probe.run(1.0);
        assert_eq!(probe.trace().head_failovers, 1);
        assert!(probe.is_failed(2) && probe.is_failed(7));
        assert_scheduler_equivalent(mk, 2, &[1.0], "failover drains a resting member");
    }

    #[test]
    fn event_loop_matches_tick_loop_on_crossing_ship() {
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(2, true), quiet_config(), 43),
            2,
            &[300.0],
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
            2,
            &[300.0],
            "duty cycling",
        );
        // And a quiet duty-cycled sea: the idle-heavy case the event
        // driver exists for (sentinels only, everyone else asleep).
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(20, false), on, 61),
            2,
            &[300.0],
            "quiet duty cycling",
        );
    }

    /// Deaths, outages (incl. of sleeping nodes), drift spikes, stuck
    /// channels, burst loss, and duty cycling at once.
    fn chaos_config() -> SystemConfig {
        SystemConfig {
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
        }
    }

    #[test]
    fn event_loop_matches_tick_loop_under_chaos() {
        assert_scheduler_equivalent(
            || IntrusionDetectionSystem::new(build_scene(2, true), chaos_config(), 43),
            2,
            &[300.0],
            "chaos campaign",
        );
    }

    /// Call lengths in ticks, repeated until they cover `ticks`: 1, 37,
    /// 50 and 123, of which only 50 is a multiple of the block length.
    fn uneven_calls(ticks: u64) -> Vec<u64> {
        let mut calls = Vec::new();
        let mut left = ticks;
        for &k in [1, 37, 50, 123].iter().cycle() {
            if left == 0 {
                break;
            }
            calls.push(k.min(left));
            left -= k.min(left);
        }
        calls
    }

    /// How the event loop's sense-ahead blocks meet `sys`'s sampling
    /// changes when it runs in calls of `calls` ticks. Steps the sweep
    /// one tick at a time, reads who sampled each tick (a live node whose
    /// sample-or-rest branch sampled leaves `was_asleep` clear), and
    /// replays the refill rule on that. Returns the number of times a
    /// node started sampling after its call's first tick and took a
    /// block of its own, stopped while its block still covered the
    /// tick, and started again inside its old block's range.
    fn block_edges(mut sys: IntrusionDetectionSystem, calls: &[u64]) -> (usize, usize, usize) {
        let n = sys.nodes.len();
        let dt = sys.tick_dt();
        let (mut joins, mut stops, mut reuses) = (0, 0, 0);
        let mut sampled_before = vec![false; n];
        let mut tick = 0;
        for &len in calls {
            let call_start = tick + 1;
            let call_end = tick + len;
            let mut blocks: Vec<Option<(u64, u64)>> = vec![None; n];
            for _ in 0..len {
                tick += 1;
                sys.run(dt);
                for idx in 0..n {
                    let sampled = !sys.failed[idx] && !sys.was_asleep[idx];
                    let covered =
                        blocks[idx].is_some_and(|(first, last)| (first..=last).contains(&tick));
                    match (sampled_before[idx], sampled) {
                        (false, true) if covered => reuses += 1,
                        (false, true) if tick > call_start => joins += 1,
                        (true, false) if covered => stops += 1,
                        _ => {}
                    }
                    if sampled && !covered {
                        blocks[idx] = Some((tick, call_end.min(tick + SENSE_AHEAD_TICKS - 1)));
                    }
                    sampled_before[idx] = sampled;
                }
            }
        }
        (joins, stops, reuses)
    }

    #[test]
    fn sense_ahead_blocks_match_the_sweep_at_every_call_length_and_pool_width() {
        let dt = quiet_config().detector.sample_rate.recip();
        let check = |mk: &dyn Fn() -> IntrusionDetectionSystem, seconds: f64, label: &str| {
            let calls = uneven_calls(ticks_in(seconds, dt));
            let (joins, stops, reuses) = block_edges(mk(), &calls);
            assert!(
                joins > 0 && stops > 0,
                "{label}: {joins} mid-call joins, {stops} mid-block stops"
            );
            let secs: Vec<f64> = calls.iter().map(|&k| k as f64 * dt).collect();
            for threads in [1, 2, 4, 8] {
                assert_scheduler_equivalent(
                    mk,
                    threads,
                    &secs,
                    &format!("{label}, {threads} threads"),
                );
            }
            reuses
        };
        // The ship's invites wake sleepers mid-block; the leases of the
        // first ones run out by 200 s.
        let on = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 120.0,
                ..DutyCycleConfig::default()
            },
            ..quiet_config()
        };
        check(
            &|| IntrusionDetectionSystem::new(build_scene(21, true), on, 62),
            200.0,
            "duty grid",
        );
        // The chaos campaign, plus three faults on sampling sentinels
        // that land inside a block of the 1/37/50/123-tick calls: a
        // 0.1 s outage from tick 100 (the node comes back at tick 105
        // and reads its old block), a 3.1 s outage from tick 125 to
        // tick 280, and a death at tick 165.
        let chaos = || {
            let sys = IntrusionDetectionSystem::new(build_scene(2, true), chaos_config(), 43);
            let mut plan = sys.fault_plan().clone();
            for (time, node, kind) in [
                (1.99, 12, FaultKind::Outage { duration: 0.1 }),
                (2.49, 14, FaultKind::Outage { duration: 3.1 }),
                (3.29, 22, FaultKind::Death),
            ] {
                plan.push(FaultEvent { time, node, kind });
            }
            sys.replace_fault_plan(plan)
        };
        let reuses = check(&chaos, 150.0, "chaos");
        assert!(reuses > 0, "no node restarted inside its old block");
    }

    #[test]
    fn event_loop_dispatches_one_pool_batch_per_block() {
        // An always-on 4×4 grid without faults: every node samples every
        // tick, so each 50-tick call refills all blocks together on its
        // ticks 1 and 26 — one pool batch each — and senses nothing in
        // between.
        let pool = Arc::new(sid_exec::Pool::new(2));
        let obs = sid_obs::Obs::in_memory();
        pool.set_obs(obs.clone());
        let mut sys = IntrusionDetectionSystem::new(
            build_scene(1, false),
            SystemConfig::paper_default(4, 4),
            42,
        )
        .with_pool(pool);
        assert!(sys.fault_plan().is_empty());
        sys.run_events(1.0);
        sys.run_events(1.0);
        let batches: u64 = obs
            .wall()
            .counters
            .iter()
            .filter(|c| c.counter == "exec_batches")
            .map(|c| c.count)
            .sum();
        assert_eq!(batches, 2 * 50u64.div_ceil(SENSE_AHEAD_TICKS));
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
            )
            .expect("finite retune time");
            sys.schedule_retune(
                100.0,
                DetectionRetune {
                    af_threshold: Some(0.7),
                    m: Some(2.25),
                    ..DetectionRetune::default()
                },
            )
            .expect("finite retune time");
            sys
        };
        assert_scheduler_equivalent(mk, 2, &[300.0], "hot reload");
    }

    #[test]
    fn nan_retune_time_is_rejected_on_both_drivers() {
        use crate::retune::DetectionRetune;
        let tighten = DetectionRetune {
            m: Some(2.25),
            ..DetectionRetune::default()
        };
        let loosen = DetectionRetune {
            m: Some(2.75),
            ..DetectionRetune::default()
        };
        for events in [false, true] {
            let mut sys =
                IntrusionDetectionSystem::new(build_scene(1, false), quiet_config(), 42);
            sys.schedule_retune(5.0, tighten).expect("finite retune time");
            assert_eq!(
                sys.schedule_retune(f64::NAN, loosen),
                Err(RetuneError::NanTime)
            );
            assert_eq!(
                sys.pending_retunes(),
                &[(5.0, tighten)],
                "a rejected retune leaves the queue untouched"
            );
            // +∞ never comes due; −∞ applies at the next tick.
            sys.schedule_retune(f64::INFINITY, loosen)
                .expect("+∞ means never");
            sys.schedule_retune(f64::NEG_INFINITY, loosen)
                .expect("−∞ means the next tick");
            if events {
                sys.run_events(20.0);
            } else {
                sys.run(20.0);
            }
            assert_eq!(sys.trace().retunes_applied, 2, "events={events}");
            assert_eq!(sys.trace().retunes_rejected, 0, "events={events}");
            assert_eq!(sys.pending_retunes(), &[(f64::INFINITY, loosen)]);
            // −∞ loosened first, then the t = 5 s retune tightened.
            assert_eq!(sys.detectors[3].config().m, 2.25, "events={events}");
        }
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
        assert_scheduler_equivalent(mk, 2, &[120.0], "zero-duration outage");
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
        assert_eq!(sys.tick_count(f64::INFINITY), 0);
        assert_eq!(sys.tick_count(f64::NEG_INFINITY), 0);
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
        // Whole-second chunks journal exactly like one call, with fault
        // events straddling the chunk boundaries.
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                time: 4.0,
                node: 7,
                kind: FaultKind::Outage { duration: 7.0 },
            },
            FaultEvent {
                time: 17.5,
                node: 3,
                kind: FaultKind::Death,
            },
        ]);
        let journal_of = |chunks: &[f64]| {
            let obs = sid_obs::Obs::in_memory();
            let mut sys = IntrusionDetectionSystem::with_fault_plan(
                build_scene(1, false),
                quiet_config(),
                42,
                plan.clone(),
            )
            .with_obs(obs.clone());
            for &chunk in chunks {
                sys.run(chunk);
            }
            sid_obs::render_journal(&obs.events().expect("in-memory recorder"))
        };
        let one = journal_of(&[20.0]);
        assert!(
            one.contains("NodeUp"),
            "faults missing from the journal: {one}"
        );
        assert_eq!(journal_of(&[5.0; 4]), one);
    }
}
