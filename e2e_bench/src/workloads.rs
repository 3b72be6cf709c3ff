//! The four workloads: inputs drawn from the seed, timed set-up, and
//! closed-loop passes at one pool width.
//!
//! Every loop is closed: the next call into the system is issued only
//! after the previous one returned, the way `SessionManager` and
//! `run_events` callers drive the pipeline. A pass rebuilds the system
//! from the same inputs, so every pass of one process must land on the
//! same fingerprints.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sid_core::{DutyCycleConfig, Incident, IntrusionDetectionSystem, SystemConfig};
use sid_dst::{Sabotage, Scenario};
use sid_exec::Pool;
use sid_net::{FaultPlanConfig, NeighborIndex, NetStats, Position, Topology};
use sid_obs::{fnv1a, journal_fingerprint, Event, Obs, Recorder, StageCounts};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
use sid_serve::{SessionManager, SessionSpec};
use sid_stream::{StreamConfig, StreamEngine};

use crate::stats::{median, p50_and_tail};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 12×12 always-on paper grid, one ship crossing mid-grid.
    GridDense,
    /// 2048-node duty-cycled coastline with 16 sentinels and chaos faults.
    FleetCoast,
    /// 16 `sid-dst` tenants on one `SessionManager`, then a migration.
    ServeMix,
    /// The `sid-stream` engine fed pre-synthesized 50 Hz signals.
    StreamIngest,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::GridDense,
        Workload::FleetCoast,
        Workload::ServeMix,
        Workload::StreamIngest,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridDense => "grid_dense",
            Workload::FleetCoast => "fleet_coast",
            Workload::ServeMix => "serve_mix",
            Workload::StreamIngest => "stream_ingest",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

// --- Workload shapes. The seed moves sea phases, sensor noise, radio
// draws and ship placement; these sizes stay fixed so the work per pass
// does not depend on the seed. ---

/// `grid_dense`: buoys per side at the paper's 25 m spacing.
const GRID_SIDE: usize = 12;
/// `grid_dense`: simulated seconds per pass.
const GRID_SECONDS: u32 = 150;
/// `grid_dense`: sea-surface components (the harbor sea of every table).
const GRID_SEA_COMPONENTS: usize = 96;

/// `fleet_coast`: deployed buoys, sink included.
const FLEET_NODES: usize = 2048;
/// `fleet_coast`: permanently awake sentinels (index stride 2048/16).
const FLEET_SENTINELS: usize = 16;
/// `fleet_coast`: simulated seconds per pass.
const FLEET_SECONDS: u32 = 1800;
/// `fleet_coast`: placement clusters along the coastline strip.
const FLEET_CLUSTERS: usize = 8;
/// `fleet_coast`: scatter radius around each cluster centre (m).
const FLEET_CLUSTER_RADIUS: f64 = 90.0;
/// `fleet_coast`: intruders, each crossing its own cluster.
const FLEET_INTRUDERS: usize = 4;
/// `fleet_coast`: seconds between consecutive intruders.
const FLEET_STAGGER_S: f64 = 240.0;
/// `fleet_coast`: chaos fault intensity.
const FLEET_CHAOS: f64 = 0.3;

/// `serve_mix`: tenants on one manager.
const TENANTS: usize = 16;
/// `serve_mix`: tenant `i` takes the shape of `Scenario::generate(5000 + i)`.
const TENANT_SHAPE_SEED: u64 = 5000;
/// `serve_mix`: `advance_all(1.0)` rounds per pass.
const ROUNDS: u32 = 60;
/// `serve_mix`: shard count tenant 0 is resumed with (it runs unsharded).
const MIGRATE_SHARDS: usize = 4;

/// `stream_ingest`: producer nodes. Sixteen nodes' rings and STFT state
/// fit a 2 MB per-core L2; with 64 the engine lives in a shared L3 and
/// the run-to-run spread doubled on the 2-vCPU host it was tuned on.
const STREAM_NODES: usize = 16;
/// `stream_ingest`: samples pushed per node per pass.
const STREAM_SAMPLES: usize = 2_000_000;
/// `stream_ingest`: distinct pre-synthesized signals the nodes replay.
const STREAM_SIGNALS: usize = 16;
/// `stream_ingest`: samples per synthesized signal.
const SIGNAL_LEN: usize = 200_000;
/// `stream_ingest`: samples per `push_chunk` call: one full ring at the
/// paper-default capacity, so every call carries four STFT hops per node.
const CHUNK: usize = 4096;

/// Extra set-ups timed before the first pass and after every pass, so
/// `setup_s` is a median of samples spread over the whole run rather
/// than of one moment's machine state.
const SETUP_REPS: usize = 5;
/// Slack after a ship's last wave arrival within which a sink incident
/// still counts as detecting it (the integration tests use the same).
const MATCH_SLACK_S: f64 = 120.0;

/// Derives an independent 64-bit stream seed from the benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ship track, as generated from the seed.
#[derive(Debug, Clone, Copy)]
struct Track {
    x: f64,
    y: f64,
    heading_deg: f64,
    knots: f64,
}

impl Track {
    fn ship(self) -> Ship {
        Ship::new(
            Vec2::new(self.x, self.y),
            Angle::from_degrees(self.heading_deg),
            Knots::new(self.knots),
        )
    }
}

/// Everything a workload needs before set-up: the inputs in hand.
enum Inputs {
    Grid {
        sea_seed: u64,
        ship: Track,
        pipeline_seed: u64,
    },
    Fleet {
        sea_seed: u64,
        ships: Vec<Track>,
        positions: Vec<Position>,
        pipeline_seed: u64,
    },
    Serve {
        tenants: Vec<(SessionSpec, Scenario)>,
    },
    Stream {
        /// Each signal carries `CHUNK` wrap-around samples past
        /// `SIGNAL_LEN`, so every chunk is one contiguous slice.
        signals: Vec<Vec<f64>>,
        offsets: Vec<usize>,
    },
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, pool: &Pool) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x1));
        match workload {
            Workload::GridDense => {
                let mid = (GRID_SIDE - 1) as f64 * 25.0 / 2.0;
                Inputs::Grid {
                    sea_seed: mix(seed, 0x2),
                    ship: Track {
                        x: mid + rng.gen_range(-8.0..8.0),
                        y: -100.0 + rng.gen_range(-20.0..20.0),
                        heading_deg: 90.0,
                        knots: rng.gen_range(11.0..13.0),
                    },
                    pipeline_seed: mix(seed, 0x3),
                }
            }
            Workload::FleetCoast => {
                let (centres, positions) = fleet_layout();
                let knots = 12.0;
                let metres_per_s = knots * sid_ocean::MPS_PER_KNOT;
                let ships = (0..FLEET_INTRUDERS)
                    .map(|k| Track {
                        x: centres[2 * k].0 + rng.gen_range(-20.0..20.0),
                        y: centres[2 * k].1 - 80.0 - FLEET_STAGGER_S * k as f64 * metres_per_s
                            + rng.gen_range(-20.0..20.0),
                        heading_deg: 90.0,
                        knots,
                    })
                    .collect();
                Inputs::Fleet {
                    sea_seed: mix(seed, 0x4),
                    ships,
                    positions,
                    pipeline_seed: mix(seed, 0x5),
                }
            }
            Workload::ServeMix => Inputs::Serve {
                tenants: (0..TENANTS)
                    .map(|i| {
                        let mut scenario = Scenario::generate(TENANT_SHAPE_SEED + i as u64);
                        scenario.seed = mix(seed, 0x100 + i as u64);
                        let spec = SessionSpec::new(format!("tenant-{i}"), scenario.seed)
                            .with_shards([1, 2, 4][i % 3]);
                        (spec, scenario)
                    })
                    .collect(),
            },
            Workload::StreamIngest => {
                let mut sea_rng = StdRng::seed_from_u64(mix(seed, 0x6));
                let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut sea_rng);
                let mut scene = Scene::new(sea, ShipWaveModel::default());
                scene.add_ship(
                    Track {
                        x: -600.0,
                        y: rng.gen_range(-60.0..-20.0),
                        heading_deg: 0.0,
                        knots: rng.gen_range(8.0..12.0),
                    }
                    .ship(),
                );
                let dt = 1.0 / StreamConfig::paper_default().detector.sample_rate;
                let slots: Vec<usize> = (0..STREAM_SIGNALS).collect();
                // Input generation, not measured: fan it over the pool.
                let signals = pool.par_map(&slots, |&j| {
                    let at = Vec2::new(25.0 * (j % 4) as f64, 25.0 * (j / 4) as f64);
                    let mut z: Vec<f64> = scene
                        .acceleration_block(at, 0.0, dt, SIGNAL_LEN)
                        .iter()
                        .map(|a| a[2])
                        .collect();
                    z.extend_from_within(..CHUNK);
                    z
                });
                let base = rng.gen_range(0..SIGNAL_LEN);
                let offsets = (0..STREAM_NODES)
                    .map(|i| (base + i * 37_813) % SIGNAL_LEN)
                    .collect();
                Inputs::Stream { signals, offsets }
            }
        }
    }
}

/// The `fleet_bench` coastline: cluster centres strung eastward, buoys
/// scattered round-robin about them, the sink pinned to the first centre.
/// Fixed for every seed: the deployment is part of the workload's shape.
fn fleet_layout() -> (Vec<(f64, f64)>, Vec<Position>) {
    let mut rng = StdRng::seed_from_u64(0xF1EE_7BE4C);
    let centres: Vec<(f64, f64)> = (0..FLEET_CLUSTERS)
        .map(|k| {
            (
                k as f64 * 180.0 + rng.gen_range(-40.0..40.0),
                rng.gen_range(0.0..260.0),
            )
        })
        .collect();
    let positions = (0..FLEET_NODES)
        .map(|i| {
            let (cx, cy) = centres[i % FLEET_CLUSTERS];
            let dx = rng.gen_range(-1.0..1.0) * FLEET_CLUSTER_RADIUS;
            let dy = rng.gen_range(-1.0..1.0) * FLEET_CLUSTER_RADIUS;
            if i == 0 {
                Position::new(centres[0].0, centres[0].1)
            } else {
                Position::new(cx + dx, cy + dy)
            }
        })
        .collect();
    (centres, positions)
}

/// A recorder that keeps the journal and nothing else: the untraced
/// runs need journal fingerprints, not spans, gauges or exec counters.
#[derive(Default)]
struct JournalOnly {
    events: Mutex<Vec<Event>>,
}

impl Recorder for JournalOnly {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("journal lock")
            .push(event.clone());
    }

    fn events(&self) -> Option<Vec<Event>> {
        Some(self.events.lock().expect("journal lock").clone())
    }
}

/// Wall time of one set-up and of the parts it could time separately.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SetupTimes {
    /// Inputs in hand to a ready system.
    pub total_s: f64,
    /// `SeaState::synthesize`.
    pub synth_ms: f64,
    /// Topology and neighbor index.
    pub index_ms: f64,
    /// Pipeline or engine construction (`build_bare` for tenants).
    pub build_ms: f64,
    /// `SessionManager::open` of every tenant.
    pub open_ms: f64,
}

/// Ground-truth scoring of the sink's incidents.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Detection {
    /// Ships whose wake reaches at least one node within the run.
    pub ships: u64,
    /// Of those, ships matched by an incident.
    pub detected: u64,
    /// Incidents matched to no ship.
    pub false_incidents: u64,
    /// Per detected ship: first matching incident minus the ship's
    /// earliest wave arrival at any node (simulated s).
    pub delays_s: Vec<f64>,
}

impl Detection {
    fn merge(&mut self, other: Detection) {
        self.ships += other.ships;
        self.detected += other.detected;
        self.false_incidents += other.false_incidents;
        self.delays_s.extend(other.delays_s);
    }
}

/// `serve_mix`: checkpoint of tenant 0 and its resume elsewhere.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Migration {
    /// `SessionManager::checkpoint`.
    pub checkpoint_ms: f64,
    /// `SessionManager::resume_with_shards` on a second manager.
    pub resume_ms: f64,
}

/// `stream_ingest`: outer timing of the engine calls.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Time inside `push_chunk`.
    pub push_s: f64,
    /// Time inside `pump`.
    pub pump_s: f64,
    /// Highest-percentile `pump` latency with ≥ 10 pumps beyond it.
    pub pump_tail_us: f64,
    /// Alarms and window verdicts emitted.
    pub outputs: u64,
    /// Samples refused by full rings (pushed again next round).
    pub rejected_samples: u64,
    /// The engine's resident-sample high-water mark.
    pub peak_resident_samples: u64,
}

/// Per-layer aggregates of a traced pass, read from `sid-obs` recorders.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Layers {
    /// `faults` span seconds.
    pub faults_s: f64,
    /// `phase_a_sense` span seconds (exec batches nested inside).
    pub sense_s: f64,
    /// `phase_b_detect` span seconds.
    pub detect_s: f64,
    /// `deliveries` span seconds.
    pub deliveries_s: f64,
    /// `clusters` span seconds.
    pub clusters_s: f64,
    /// `exec_batch` span seconds (nested in Phase A or `pump`).
    pub exec_batch_s: f64,
    /// Pool batches dispatched through the queue.
    pub exec_batches: u64,
    /// Tasks those batches carried.
    pub exec_tasks: u64,
    /// Deepest pool queue seen.
    pub exec_queue_depth_max: f64,
    /// Most temporary clusters open at once.
    pub active_clusters_max: f64,
    /// Most radio messages in flight at once.
    pub in_flight_max: f64,
    /// Journal stage counts.
    pub counts: StageCounts,
    /// Radio counters.
    pub net: NetStats,
}

impl Layers {
    fn from_recorders(recorders: &[Obs], net: NetStats) -> Self {
        let mut layers = Layers {
            net,
            ..Layers::default()
        };
        for obs in recorders {
            layers.counts.merge(&obs.counts());
            let wall = obs.wall();
            for stage in &wall.stages {
                let slot = match stage.stage.as_str() {
                    "faults" => &mut layers.faults_s,
                    "phase_a_sense" => &mut layers.sense_s,
                    "phase_b_detect" => &mut layers.detect_s,
                    "deliveries" => &mut layers.deliveries_s,
                    "clusters" => &mut layers.clusters_s,
                    "exec_batch" => &mut layers.exec_batch_s,
                    _ => continue,
                };
                *slot += stage.secs;
            }
            for gauge in &wall.gauges {
                let slot = match gauge.gauge.as_str() {
                    "exec_queue_depth" => &mut layers.exec_queue_depth_max,
                    "active_clusters" => &mut layers.active_clusters_max,
                    "in_flight_messages" => &mut layers.in_flight_max,
                    _ => continue,
                };
                *slot = slot.max(gauge.max);
            }
            for counter in &wall.counters {
                match counter.counter.as_str() {
                    "exec_batches" => layers.exec_batches += counter.count,
                    "exec_tasks" => layers.exec_tasks += counter.count,
                    _ => {}
                }
            }
        }
        layers
    }
}

/// One closed-loop pass over a freshly built system.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Pass {
    /// Wall seconds inside the closed-loop calls (set-up excluded).
    pub wall_s: f64,
    /// Nominal node-samples: nodes × ticks, asleep or not (pushed
    /// samples for `stream_ingest`).
    pub node_samples: u64,
    /// Latency of every closed-loop call, in order (ms).
    pub steps_ms: Vec<f64>,
    /// Journal fingerprints, one per tenant (output fingerprint for
    /// `stream_ingest`).
    pub fingerprints: Vec<String>,
    /// Digest of run traces, sink incidents, stage counts and radio
    /// counters.
    pub digest: String,
    /// Operations attempted: calls plus service operations.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the report.
    pub errors: Vec<String>,
    /// Ground-truth scoring of the sink incidents.
    pub detection: Detection,
    /// `serve_mix` only.
    pub migration: Option<Migration>,
    /// `stream_ingest` only.
    pub stream: Option<StreamStats>,
    /// Traced passes only.
    pub layers: Option<Layers>,
}

impl Pass {
    fn record_steps(&mut self, steps_ms: Vec<f64>) {
        self.attempted += steps_ms.len() as u64;
        self.wall_s = steps_ms.iter().sum::<f64>() / 1e3;
        self.steps_ms = steps_ms;
    }
}

/// Everything one process measured at one pool width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WidthRun {
    /// Pool width.
    pub threads: usize,
    /// Whether the `sid-obs` recorders were attached.
    pub traced: bool,
    /// Every set-up, the passes' own included.
    pub setups: Vec<SetupTimes>,
    /// Every pass, in order.
    pub passes: Vec<Pass>,
    /// The process's `VmHWM` (MB).
    pub peak_rss_mb: f64,
    /// Median `par_map` of 16 no-op items on the process's pool (µs);
    /// traced runs only.
    pub empty_batch_us: Option<f64>,
}

/// A built system, ready for its first call. One exists per pass, so the
/// variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Ready {
    Pipeline {
        sys: IntrusionDetectionSystem,
        obs: Obs,
        seconds: u32,
    },
    Serve {
        mgr: SessionManager,
    },
    ServeTraced {
        tenants: Vec<(Obs, IntrusionDetectionSystem)>,
        pool_obs: Obs,
    },
    Stream {
        engine: StreamEngine,
        pool_obs: Obs,
    },
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn sea(seed: u64, components: usize) -> SeaState {
    let mut rng = StdRng::seed_from_u64(seed);
    SeaState::synthesize(WaveSpectrum::sheltered_harbor(), components, &mut rng)
}

/// Builds the system from `inputs` on `pool`, timing the whole and its
/// parts. The pool is the host's and exists before set-up starts.
fn setup(inputs: &Inputs, pool: &Arc<Pool>, traced: bool) -> (Ready, SetupTimes) {
    // Traced runs record pool batches into the pass's recorder; untraced
    // runs keep only the journal, which fingerprints need.
    let pool_obs = if traced {
        Obs::in_memory()
    } else {
        Obs::noop()
    };
    pool.set_obs(pool_obs.clone());
    let recorder = || {
        if traced {
            pool_obs.clone()
        } else {
            Obs::new(Arc::new(JournalOnly::default()))
        }
    };
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let ready = match inputs {
        Inputs::Grid {
            sea_seed,
            ship,
            pipeline_seed,
        } => {
            let t = Instant::now();
            let mut scene = Scene::new(
                sea(*sea_seed, GRID_SEA_COMPONENTS),
                ShipWaveModel::default(),
            );
            times.synth_ms = ms_since(t);
            scene.add_ship(ship.ship());
            let config = SystemConfig::paper_default(GRID_SIDE, GRID_SIDE);
            let t = Instant::now();
            let topology =
                Topology::grid(config.rows, config.cols, config.spacing, config.radio_range);
            times.index_ms = ms_since(t);
            let obs = recorder();
            let t = Instant::now();
            let sys =
                IntrusionDetectionSystem::with_topology(scene, config, *pipeline_seed, topology)
                    .with_obs(obs.clone())
                    .with_pool(pool.clone());
            times.build_ms = ms_since(t);
            Ready::Pipeline {
                sys,
                obs,
                seconds: GRID_SECONDS,
            }
        }
        Inputs::Fleet {
            sea_seed,
            ships,
            positions,
            pipeline_seed,
        } => {
            let t = Instant::now();
            let mut scene = Scene::new(sea(*sea_seed, 24), ShipWaveModel::default());
            times.synth_ms = ms_since(t);
            for track in ships {
                scene.add_ship(track.ship());
            }
            let mut config = SystemConfig {
                duty_cycle: DutyCycleConfig {
                    enabled: true,
                    wake_duration: 60.0,
                    ..DutyCycleConfig::default()
                },
                ..SystemConfig::paper_default(4, 4)
            };
            config.faults = FaultPlanConfig {
                spare: Some(0),
                ..FaultPlanConfig::chaos(FLEET_CHAOS, f64::from(FLEET_SECONDS))
            };
            let t = Instant::now();
            let topology = Topology::from_positions_with(
                positions.clone(),
                config.radio_range,
                NeighborIndex::SpatialHash,
            );
            times.index_ms = ms_since(t);
            let obs = recorder();
            let t = Instant::now();
            let sys =
                IntrusionDetectionSystem::with_topology(scene, config, *pipeline_seed, topology)
                    .with_sentinel_index_stride(FLEET_NODES / FLEET_SENTINELS)
                    .with_obs(obs.clone())
                    .with_pool(pool.clone());
            times.build_ms = ms_since(t);
            Ready::Pipeline {
                sys,
                obs,
                seconds: FLEET_SECONDS,
            }
        }
        Inputs::Serve { tenants } if traced => {
            // Session recorders are private, so the traced run replays
            // each tenant as a bare pipeline wired exactly the way
            // `SessionManager::open` wires it.
            let t = Instant::now();
            let tenants = tenants
                .iter()
                .map(|(spec, scenario)| {
                    let obs = Obs::in_memory();
                    let sys = scenario
                        .build_bare(Sabotage::None)
                        .with_obs(obs.clone())
                        .with_pool(pool.clone())
                        .with_shards(spec.shards);
                    (obs, sys)
                })
                .collect();
            times.build_ms = ms_since(t);
            Ready::ServeTraced { tenants, pool_obs }
        }
        Inputs::Serve { tenants } => {
            let mut mgr = SessionManager::new(pool.clone());
            let t = Instant::now();
            let mut build_ms = 0.0;
            for (spec, scenario) in tenants {
                mgr.open(spec.clone(), || {
                    let t = Instant::now();
                    let sys = scenario.build_bare(Sabotage::None);
                    build_ms += ms_since(t);
                    sys
                });
            }
            times.open_ms = ms_since(t);
            times.build_ms = build_ms;
            Ready::Serve { mgr }
        }
        Inputs::Stream { .. } => {
            let t = Instant::now();
            let engine = StreamEngine::new(StreamConfig::paper_default(), STREAM_NODES)
                .expect("paper config");
            times.build_ms = ms_since(t);
            Ready::Stream { engine, pool_obs }
        }
    };
    times.total_s = start.elapsed().as_secs_f64();
    (ready, times)
}

fn digest(parts: &[String]) -> String {
    let h = parts
        .iter()
        .fold(0, |h, part| fnv1a(fnv1a(h, part.as_bytes()), b"\x1e"));
    format!("{h:016x}")
}

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark values serialize")
}

/// The parts of a pipeline's outcome the digest covers.
fn outcome_parts(sys: &IntrusionDetectionSystem, events: &[Event]) -> Vec<String> {
    vec![
        json(sys.trace()),
        json(sys.sink_tracker().incidents()),
        json(&StageCounts::from_events(events)),
        json(&sys.net_stats()),
    ]
}

/// Scores sink incidents against the ships' wave arrivals at the nodes.
fn score(sys: &IntrusionDetectionSystem, horizon: f64) -> Detection {
    let scene = sys.scene();
    let topology = sys.topology();
    let incidents: &[Incident] = sys.sink_tracker().incidents();
    let mut matched = vec![false; incidents.len()];
    let mut detection = Detection::default();
    for ship in 0..scene.ships().len() {
        let arrivals: Vec<f64> = topology
            .node_ids()
            .flat_map(|id| {
                let p = topology.position(id);
                scene.passage_events(Vec2::new(p.x, p.y), horizon)
            })
            .filter(|e| e.ship_index == ship)
            .map(|e| e.arrival_time)
            .collect();
        let Some(first) = arrivals.iter().copied().reduce(f64::min) else {
            continue;
        };
        let last = arrivals.iter().copied().fold(first, f64::max);
        detection.ships += 1;
        let mut delay: Option<f64> = None;
        for (j, incident) in incidents.iter().enumerate() {
            if incident.first_time >= first && incident.first_time <= last + MATCH_SLACK_S {
                matched[j] = true;
                let d = incident.first_time - first;
                delay = Some(delay.map_or(d, |best| best.min(d)));
            }
        }
        if let Some(d) = delay {
            detection.detected += 1;
            detection.delays_s.push(d);
        }
    }
    detection.false_incidents = matched.iter().filter(|m| !**m).count() as u64;
    detection
}

/// Runs one pass over a freshly built system.
fn run_pass(ready: Ready, inputs: &Inputs, pool: &Arc<Pool>, traced: bool) -> Pass {
    let mut pass = Pass::default();
    match ready {
        Ready::Pipeline {
            mut sys,
            obs,
            seconds,
        } => {
            let mut steps_ms = Vec::with_capacity(seconds as usize);
            for _ in 0..seconds {
                let t = Instant::now();
                sys.run_events(1.0);
                steps_ms.push(ms_since(t));
            }
            pass.record_steps(steps_ms);
            pass.node_samples = sys.node_count() as u64 * sys.tick_count(f64::from(seconds));
            let events = obs.events().expect("journal recorder keeps events");
            pass.fingerprints = vec![format!("{:016x}", journal_fingerprint(&events))];
            pass.digest = digest(&outcome_parts(&sys, &events));
            pass.detection = score(&sys, f64::from(seconds));
            if traced {
                pass.layers = Some(Layers::from_recorders(&[obs], sys.net_stats()));
            }
        }
        Ready::ServeTraced {
            mut tenants,
            pool_obs,
        } => {
            let mut steps_ms = Vec::with_capacity(ROUNDS as usize);
            for _ in 0..ROUNDS {
                let t = Instant::now();
                for (_, sys) in &mut tenants {
                    sys.run_events(1.0);
                }
                steps_ms.push(ms_since(t));
            }
            pass.record_steps(steps_ms);
            let mut parts = Vec::new();
            let mut net = NetStats::default();
            let mut recorders = vec![pool_obs];
            for (obs, sys) in &tenants {
                let events = obs.events().expect("in-memory recorder");
                pass.node_samples += sys.node_count() as u64 * sys.tick_count(f64::from(ROUNDS));
                pass.fingerprints
                    .push(format!("{:016x}", journal_fingerprint(&events)));
                parts.extend(outcome_parts(sys, &events));
                pass.detection.merge(score(sys, f64::from(ROUNDS)));
                add_net(&mut net, sys.net_stats());
                recorders.push(obs.clone());
            }
            pass.digest = digest(&parts);
            pass.layers = Some(Layers::from_recorders(&recorders, net));
        }
        Ready::Serve { mgr } => serve_pass(&mut pass, mgr, inputs, pool),
        Ready::Stream {
            mut engine,
            pool_obs,
        } => {
            let Inputs::Stream { signals, offsets } = inputs else {
                unreachable!("stream set-up comes from stream inputs");
            };
            let mut stats = StreamStats::default();
            let mut cursors = [0usize; STREAM_NODES];
            let mut fingerprint = 0;
            let mut steps_ms = Vec::new();
            let mut pumps_us = Vec::new();
            while cursors.iter().any(|&c| c < STREAM_SAMPLES) {
                let t0 = Instant::now();
                for (node, cursor) in cursors.iter_mut().enumerate() {
                    let len = CHUNK.min(STREAM_SAMPLES - *cursor);
                    if len == 0 {
                        continue;
                    }
                    let start = (offsets[node] + *cursor) % SIGNAL_LEN;
                    let chunk = &signals[node % STREAM_SIGNALS][start..start + len];
                    let accepted = engine.push_chunk(node, chunk);
                    *cursor += accepted;
                    stats.rejected_samples += (len - accepted) as u64;
                }
                let t1 = Instant::now();
                let pumped = engine.pump(pool);
                let push = (t1 - t0).as_secs_f64();
                let pump = t1.elapsed().as_secs_f64();
                // Fingerprinting happens between calls, off the clock.
                stats.outputs += pumped.len() as u64;
                fingerprint = pumped
                    .iter()
                    .fold(fingerprint, |h, o| fnv1a(h, format!("{o:?}\n").as_bytes()));
                stats.push_s += push;
                stats.pump_s += pump;
                pumps_us.push(pump * 1e6);
                steps_ms.push((push + pump) * 1e3);
            }
            pass.record_steps(steps_ms);
            pass.node_samples = (STREAM_NODES * STREAM_SAMPLES) as u64;
            let (_, tail) = p50_and_tail(&pumps_us, pumps_us.len()).expect("hundreds of pumps");
            stats.pump_tail_us = tail;
            stats.peak_resident_samples = engine.peak_resident_samples() as u64;
            pass.fingerprints = vec![format!("{fingerprint:016x}")];
            pass.digest = digest(&[
                pass.fingerprints[0].clone(),
                stats.rejected_samples.to_string(),
                stats.peak_resident_samples.to_string(),
            ]);
            if stats.outputs == 0 {
                pass.failed += 1;
                pass.errors.push("stream engine emitted nothing".into());
            }
            if traced {
                pass.layers = Some(Layers::from_recorders(&[pool_obs], NetStats::default()));
            }
            pass.stream = Some(stats);
        }
    }
    pass
}

fn add_net(total: &mut NetStats, s: NetStats) {
    total.transmissions += s.transmissions;
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.out_of_range += s.out_of_range;
    total.queueing_delay_total += s.queueing_delay_total;
    total.burst_dropped += s.burst_dropped;
    total.blocked_down += s.blocked_down;
}

/// `serve_mix`: [`ROUNDS`] rounds of `advance_all(1.0)`, then tenant 0 is
/// checkpointed and resumed on a second manager with another shard count.
fn serve_pass(pass: &mut Pass, mut mgr: SessionManager, inputs: &Inputs, pool: &Arc<Pool>) {
    let Inputs::Serve { tenants } = inputs else {
        unreachable!("serve set-up comes from serve inputs");
    };
    let ids = mgr.ids();
    let ticks_per_round: u64 = ids
        .iter()
        .map(|&id| mgr.session(id).expect("open").pipeline().tick_count(1.0))
        .sum();
    let mut steps_ms = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let t = Instant::now();
        let ticks = mgr.advance_all(1.0);
        steps_ms.push(ms_since(t));
        if ticks != ticks_per_round {
            pass.failed += 1;
            pass.errors.push(format!(
                "round {round}: advance_all covered {ticks} ticks, expected {ticks_per_round}"
            ));
        }
    }
    pass.record_steps(steps_ms);
    let mut parts = Vec::new();
    for &id in &ids {
        let session = mgr.session(id).expect("open");
        let sys = session.pipeline();
        let events = session.events();
        pass.node_samples += sys.node_count() as u64 * sys.tick_count(f64::from(ROUNDS));
        pass.fingerprints
            .push(format!("{:016x}", session.fingerprint()));
        parts.extend(outcome_parts(sys, &events));
        pass.detection.merge(score(sys, f64::from(ROUNDS)));
    }
    pass.digest = digest(&parts);

    let mut migration = Migration::default();
    pass.attempted += 2;
    let t = Instant::now();
    let checkpoint = mgr.checkpoint(ids[0]);
    migration.checkpoint_ms = ms_since(t);
    match checkpoint {
        Err(e) => {
            pass.failed += 2;
            pass.errors.push(format!("checkpoint: {e}"));
        }
        Ok(checkpoint) => {
            let mut target = SessionManager::new(pool.clone());
            let scenario = tenants[0].1.clone();
            let t = Instant::now();
            let resumed = target.resume_with_shards(&checkpoint, MIGRATE_SHARDS, move || {
                scenario.build_bare(Sabotage::None)
            });
            migration.resume_ms = ms_since(t);
            match resumed {
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("resume: {e}"));
                }
                Ok(id) => {
                    let fp = format!(
                        "{:016x}",
                        target.session(id).expect("resumed").fingerprint()
                    );
                    if fp != pass.fingerprints[0] {
                        pass.failed += 1;
                        pass.errors.push(format!(
                            "resumed tenant 0 fingerprint {fp} != {}",
                            pass.fingerprints[0]
                        ));
                    }
                }
            }
        }
    }
    pass.migration = Some(migration);
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Median wall time of an empty 16-item `par_map` (µs): the fixed cost
/// every pooled batch pays.
fn empty_batch_us(pool: &Pool) -> f64 {
    pool.set_obs(Obs::noop());
    let items = [0u8; 16];
    let mut samples = Vec::with_capacity(2000);
    for i in 0..2200 {
        let t = Instant::now();
        std::hint::black_box(pool.par_map(&items, |&x| x));
        if i >= 200 {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples)
}

/// Runs `workload` at one pool width: the inputs, then passes until the
/// next one would overrun `seconds` (at least one), with [`SETUP_REPS`]
/// timed set-ups before the first pass and after each.
pub fn run_width(
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    traced: bool,
) -> WidthRun {
    // One pool for the whole process, like a host that runs the system:
    // the process never has more threads than the pool width.
    let pool = Arc::new(Pool::new(threads));
    let inputs = Inputs::generate(workload, seed, &pool);
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<SetupTimes>| {
        for _ in 0..SETUP_REPS {
            setups.push(setup(&inputs, &pool, traced).1);
        }
    };
    time_setups(&mut setups);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t = Instant::now();
        let (ready, times) = setup(&inputs, &pool, traced);
        setups.push(times);
        passes.push(run_pass(ready, &inputs, &pool, traced));
        time_setups(&mut setups);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    WidthRun {
        threads,
        traced,
        setups,
        passes,
        peak_rss_mb: peak_rss_mb(),
        empty_batch_us: traced.then(|| empty_batch_us(&pool)),
    }
}
