//! Seeded scenario generation and execution.
//!
//! A [`Scenario`] is the *fully-expanded*, serializable description of
//! one simulation: grid shape, deployment style, sea state, ship
//! tracks, duty cycling, burst severity, dead-hardware fraction and the
//! explicit fault campaign. [`Scenario::generate`] draws all of it
//! deterministically from a single u64, and [`execute`] runs it through
//! the real pipeline with the journal attached. Because the scenario
//! carries the expanded fault events (not the fractions they were drawn
//! from), the shrinker can prune it field-by-field and replay the rest
//! byte-for-byte.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sid_alert::AlertConfig;
use sid_core::{DetectionRetune, DutyCycleConfig, IntrusionDetectionSystem, SystemConfig, SystemTrace};
use sid_net::{FaultEvent, FaultPlan, FaultPlanConfig, GilbertElliott, Position, Topology};
use sid_obs::{Event, Obs, StageCounts, WallStats};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
use sid_serve::{ServeError, SessionManager, SessionSpec};

/// Which wave spectrum the scenario's sea is synthesized from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeaKind {
    /// Near-flat water.
    Calm,
    /// The paper's deployment environment (breakwater-sheltered harbor).
    ShelteredHarbor,
    /// Open-water chop well above the harbor level.
    Moderate,
}

impl SeaKind {
    fn spectrum(self) -> WaveSpectrum {
        match self {
            SeaKind::Calm => WaveSpectrum::calm_sea(),
            SeaKind::ShelteredHarbor => WaveSpectrum::sheltered_harbor(),
            SeaKind::Moderate => WaveSpectrum::moderate_sea(),
        }
    }
}

/// One intruding ship: start point, heading and speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShipSpec {
    /// Start east coordinate (m).
    pub x: f64,
    /// Start north coordinate (m).
    pub y: f64,
    /// Heading, degrees counter-clockwise from east.
    pub heading_deg: f64,
    /// Speed in knots.
    pub knots: f64,
}

/// Fleet-class deployment parameters: a free-form coastline of
/// clustered buoys, far past the paper's grids in size. Present only on
/// scenarios produced by [`Scenario::fleet`]; when set it overrides the
/// grid fields for placement and node count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Total deployed nodes (including the sink). 200–2000 as
    /// generated; the shrinker may halve it down to
    /// [`crate::shrink::FLEET_MIN_NODES`].
    pub nodes: usize,
    /// Number of placement clusters strung along the coastline strip.
    pub clusters: usize,
    /// Scatter radius around each cluster centre (m).
    pub cluster_radius: f64,
    /// Sentinel stride: node `i` keeps permanent watch iff
    /// `i % sentinel_every == 0` (applied via
    /// `with_sentinel_index_stride`; the grid row/col stride is
    /// meaningless on a free-form fleet).
    pub sentinel_every: usize,
}

/// One alternative execution strategy a scenario is re-run under. The
/// journal is a pure function of the scenario, so every rerun must
/// reproduce the baseline bytes (the `variant_equivalence` oracle);
/// [`Variant::LegacyFrontEnd`] alone compares a synthetic stream instead
/// (the `frontend_equivalence` oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// The offline tick loop on a worker pool of this width.
    Threads(usize),
    /// The event-driven scheduler (`run_events`) on one thread.
    Events,
    /// `run_events` with the deployment partitioned into `shards`
    /// spatial regions on concurrent scheduler lanes.
    Sharded {
        /// Worker-pool width.
        threads: usize,
        /// Spatial shard count.
        shards: usize,
    },
    /// A `sid-serve` session (2 threads, 2 shards) advanced in two calls
    /// split at the half: chunking the clock must be invisible.
    ServeTwoAdvance,
    /// A `sid-serve` session checkpointed at the half, migrated onto 4
    /// threads and 4 shards, and resumed to the end.
    ServeMigrate,
    /// The legacy full-complex spectral front end against the default
    /// fast one, on a seed-derived stream.
    LegacyFrontEnd,
}

impl Variant {
    /// The reruns a generated `seed` carries: disjoint arithmetic seed
    /// subsets (no RNG draws), in check order — threads (seed ≡ 0 mod
    /// 16), legacy front end (≡ 0 mod 32), events (≡ 2 mod 4), then
    /// sharded plus the two `sid-serve` legs (≡ 5 mod 8).
    pub fn for_seed(seed: u64) -> Vec<Variant> {
        let mut out = Vec::new();
        if seed.is_multiple_of(16) {
            out.extend([2, 4, 8].map(Variant::Threads));
        }
        if seed.is_multiple_of(32) {
            out.push(Variant::LegacyFrontEnd);
        }
        if seed % 4 == 2 {
            out.push(Variant::Events);
        }
        if seed % 8 == 5 {
            out.extend(
                [(1, 2), (4, 2), (2, 4), (8, 4)]
                    .map(|(threads, shards)| Variant::Sharded { threads, shards }),
            );
            out.extend([Variant::ServeTwoAdvance, Variant::ServeMigrate]);
        }
        out
    }
}

/// A fully-expanded, serializable simulation scenario.
///
/// Everything the pipeline needs is spelled out here; no further
/// randomness is drawn at execution time beyond the pipeline's own
/// seeded streams. Shrinking mutates these fields directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The generating seed; also seeds the pipeline's internal streams.
    pub seed: u64,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Grid spacing D (m).
    pub spacing: f64,
    /// Deploy on jittered (non-grid) anchor positions instead of the
    /// exact grid: exercises the free-form `with_topology` path where
    /// the cluster stage has no row/column structure to correlate over.
    pub free_form: bool,
    /// Simulated seconds to run.
    pub duration: f64,
    /// Sea spectrum.
    pub sea: SeaKind,
    /// Wave components synthesized for the sea surface.
    pub sea_components: usize,
    /// Intruding ships (possibly none: quiet-sea false-alarm pressure).
    pub ships: Vec<ShipSpec>,
    /// Duty-cycled power management on/off.
    pub duty_cycle: bool,
    /// Gilbert–Elliott burst severity in `[0, 1]`; `0` disables bursts.
    pub burst_severity: f64,
    /// Fraction of nodes with dead detection hardware.
    pub dead_node_fraction: f64,
    /// The expanded fault campaign (explicit so it can be shrunk).
    pub faults: Vec<FaultEvent>,
    /// The equivalence reruns this scenario carries, in check order.
    /// Filled by [`Variant::for_seed`] from arithmetic seed subsets, so
    /// it never perturbs the rest of the scenario; the shrinker drops
    /// entries one at a time.
    pub variants: Vec<Variant>,
    /// Alert-storm campaign: a convoy of staggered intruders under
    /// Gilbert–Elliott burst loss with a deliberately tight alert
    /// token bucket, plus a scheduled invalid + valid detection hot
    /// reload mid-storm. Exercises storm suppression, coalescing and
    /// reload atomicity; checked by the `alert_suppression_correct`
    /// oracle. Set on a deterministic subset of seeds.
    pub alert_storm: bool,
    /// Fleet-class deployment ([`Scenario::fleet`]): `Some` overrides
    /// the grid fields with a clustered free-form coastline of 200–2000
    /// duty-cycled nodes. [`Scenario::generate`] always leaves this
    /// `None`, so the historical seed population is untouched.
    pub fleet: Option<FleetSpec>,
}

/// An intentionally-broken pipeline configuration, used to prove the
/// oracle + shrinker layers actually catch bugs (the harness's own
/// "fire drill"). [`Sabotage::None`] is the production path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Sabotage {
    /// Build the scenario faithfully.
    #[default]
    None,
    /// Gut the cluster quorum: one report, one row and any correlation
    /// confirm a detection. The `confirmed_implies_quorum` oracle —
    /// which checks the paper's nominal thresholds — must catch this.
    LooseQuorum,
}

impl Scenario {
    /// Expands `seed` into a full scenario. Deterministic: the same
    /// seed always yields the identical scenario.
    ///
    /// ```
    /// use sid_dst::{Scenario, Variant};
    ///
    /// let a = Scenario::generate(42);
    /// assert_eq!(a, Scenario::generate(42));
    /// assert!(a.rows >= 3 && a.cols >= 3 && a.duration >= 60.0);
    /// // Expensive equivalence reruns ride on arithmetic seed subsets,
    /// // not RNG draws, so they never perturb the rest of the scenario.
    /// assert_eq!(a.variants, [Variant::Events]); // 42 % 4 == 2
    /// assert_eq!(a.alert_storm, 42 % 8 == 0);
    /// ```
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
        let rows = rng.gen_range(3..=6);
        let cols = rng.gen_range(3..=6);
        let spacing = 25.0;
        let free_form = rng.gen_bool(0.15);
        // Whole seconds keep the scenario JSON readable and the tick
        // count exact.
        let duration = rng.gen_range(60..=150) as f64;
        let sea = match rng.gen_range(0..10) {
            0..=4 => SeaKind::ShelteredHarbor,
            5..=7 => SeaKind::Calm,
            _ => SeaKind::Moderate,
        };
        let sea_components = rng.gen_range(48..=96);
        let grid_width = (cols - 1) as f64 * spacing;
        let ship_count = rng.gen_range(0..=2);
        let ships = (0..ship_count)
            .map(|_| {
                // Mostly northbound passages that cross the grid early
                // enough to be seen inside short runs; occasionally an
                // arbitrary heading that may miss the field entirely.
                if rng.gen_bool(0.8) {
                    ShipSpec {
                        x: rng.gen_range(-0.2..1.2) * grid_width.max(spacing),
                        y: rng.gen_range(-150.0..-60.0),
                        heading_deg: 90.0,
                        knots: rng.gen_range(6.0..18.0),
                    }
                } else {
                    ShipSpec {
                        x: rng.gen_range(-200.0..200.0),
                        y: rng.gen_range(-200.0..-50.0),
                        heading_deg: rng.gen_range(0.0..360.0),
                        knots: rng.gen_range(6.0..18.0),
                    }
                }
            })
            .collect();
        let duty_cycle = rng.gen_bool(0.2);
        let burst_severity = if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.1..=1.0)
        };
        let dead_node_fraction = if rng.gen_bool(0.7) {
            0.0
        } else {
            rng.gen_range(0.05..0.2)
        };
        // The fault campaign is expanded here (not at build time) so the
        // scenario owns an explicit, prunable event list. Intensity 0
        // with some probability keeps a clean-run population in the mix.
        let fault_intensity = if rng.gen_bool(0.4) {
            0.0
        } else {
            rng.gen_range(0.1..=1.0)
        };
        let fault_cfg = FaultPlanConfig {
            // Node 0 is the sink (wired gateway): it never dies.
            spare: Some(0),
            ..FaultPlanConfig::chaos(fault_intensity, duration)
        };
        let faults = FaultPlan::generate(rows * cols, &fault_cfg, seed ^ 0xDE7E_C7ED)
            .events()
            .to_vec();
        let mut scenario = Scenario {
            seed,
            rows,
            cols,
            spacing,
            free_form,
            duration,
            sea,
            sea_components,
            ships,
            duty_cycle,
            burst_severity,
            dead_node_fraction,
            faults,
            // Derived from the seed after every RNG draw, like the storm
            // flag below, so neither perturbs how the rest generates.
            variants: Variant::for_seed(seed),
            // Every eighth seed: 25 alert-storm campaigns in the smoke
            // range.
            alert_storm: seed.is_multiple_of(8),
            fleet: None,
        };
        if scenario.alert_storm {
            // Storm overrides: a convoy of three staggered northbound
            // intruders crossing the same lanes ~75 s apart. The gap is
            // deliberately just past the 60 s cluster collection window:
            // closer passages overlap inside one window and wreck the
            // temporal correlation CNt (a convoy is not one coherent
            // wake), while 75 s gives each passage its own clean
            // confirmation. Against the slow-refill token bucket (see
            // `alert_config`) those repeat confirmations of one merged
            // incident become suppressions and coalesced summaries.
            // Burst loss stays on, but moderate (0.35): heavier GE loss
            // starves the report quorum and the storm never ignites.
            // Exact-grid deployment for the same reason — free-form
            // layouts skip row/column correlation entirely.
            scenario.duration = scenario.duration.max(300.0);
            scenario.free_form = false;
            scenario.burst_severity = 0.35;
            scenario.dead_node_fraction = 0.0;
            // The nominal confirmation quorum spans 4 grid rows; a
            // 3-row storm grid could never confirm anything. (Fault
            // events were expanded for the smaller grid; they stay
            // valid — high-index nodes just never get scheduled.)
            scenario.rows = scenario.rows.max(4);
            scenario.ships = (0..3)
                .map(|k| ShipSpec {
                    x: grid_width.max(spacing) * (0.3 + 0.1 * (k % 3) as f64),
                    y: -77.0 - 386.0 * k as f64,
                    heading_deg: 90.0,
                    knots: 10.0,
                })
                .collect();
        }
        scenario
    }

    /// Expands `seed` into a fleet-class scenario: a free-form coastline
    /// of 200–2000 clustered, duty-cycled buoys with sparse index-stride
    /// sentinels. Deterministic like [`Scenario::generate`], and built
    /// *on top of it* — the base draws happen first, then the fleet
    /// overrides — so the two populations can never interleave their
    /// RNG streams.
    ///
    /// Every fleet scenario carries [`Variant::Events`], so the
    /// `variant_equivalence` oracle re-runs it through `run_events` and
    /// requires a byte-identical journal: the fuzzer exercises large
    /// non-grid deployments end-to-end through the event loop on every
    /// fleet seed. Seeds ≡ 0 mod 4 also carry [`Variant::Threads`]`(8)`,
    /// so pool-width invariance is checked at fleet scale. The other
    /// reruns and the alert-storm campaign are forced off — they scale
    /// with node count and have their own small-grid populations.
    ///
    /// ```
    /// use sid_dst::{Scenario, Variant};
    ///
    /// let f = Scenario::fleet(7);
    /// let spec = f.fleet.expect("fleet class");
    /// assert!((200..=2000).contains(&spec.nodes));
    /// assert_eq!(f.node_count(), spec.nodes);
    /// assert!(f.free_form && f.duty_cycle);
    /// assert_eq!(f.variants, [Variant::Events]);
    /// assert_eq!(f, Scenario::fleet(7));
    /// ```
    pub fn fleet(seed: u64) -> Self {
        let mut scenario = Self::generate(seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ 0xF1EE7);
        let nodes: usize = rng.gen_range(200..=2000);
        let clusters: usize = rng.gen_range(4..=12);
        let cluster_radius = rng.gen_range(60.0..=120.0);
        // Sparse sentinels: aim for ~8–24 permanently-awake nodes
        // regardless of fleet size, so the per-tick sensing load stays
        // bounded while the rest of the fleet sleeps.
        let sentinel_every = (nodes / rng.gen_range(8usize..=24)).max(8);
        scenario.fleet = Some(FleetSpec {
            nodes,
            clusters,
            cluster_radius,
            sentinel_every,
        });
        scenario.free_form = true;
        scenario.duty_cycle = true;
        scenario.alert_storm = false;
        scenario.variants = if seed.is_multiple_of(4) {
            vec![Variant::Threads(8), Variant::Events]
        } else {
            vec![Variant::Events]
        };
        scenario.duration = rng.gen_range(45..=90) as f64;
        scenario.sea_components = rng.gen_range(32..=64);
        // Re-expand the fault campaign for the fleet's node count (the
        // base campaign was drawn for the small grid). Moderate
        // intensity: fleet seeds probe scale, not maximum chaos.
        let fault_intensity = if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.05..=0.4)
        };
        let fault_cfg = FaultPlanConfig {
            spare: Some(0),
            ..FaultPlanConfig::chaos(fault_intensity, scenario.duration)
        };
        scenario.faults = FaultPlan::generate(nodes, &fault_cfg, seed ^ 0xF1EE_7FA7)
            .events()
            .to_vec();
        // Ships rewritten to cross the coastline strip the clusters
        // occupy (see `topology`): northbound passages that can reach a
        // cluster within the shortened run.
        let strip_width = clusters as f64 * 180.0;
        let ship_count = rng.gen_range(0..=2);
        scenario.ships = (0..ship_count)
            .map(|_| ShipSpec {
                x: rng.gen_range(0.0..strip_width),
                y: rng.gen_range(-120.0..-50.0),
                heading_deg: 90.0,
                knots: rng.gen_range(6.0..18.0),
            })
            .collect();
        scenario
    }

    /// The alerting-edge configuration this scenario runs with: storm
    /// campaigns get a deliberately tight token bucket (one alert, then
    /// 300 s to earn the next — longer than the whole convoy takes to
    /// pass) with a 30 s summary deadline, so the repeat confirmations
    /// the convoy produces are guaranteed to hit an empty bucket and be
    /// suppressed into coalesced summaries. Everything else keeps the
    /// production default.
    pub fn alert_config(&self) -> AlertConfig {
        if self.alert_storm {
            AlertConfig {
                bucket_capacity: 1.0,
                refill_per_sec: 1.0 / 300.0,
                summary_after_secs: 30.0,
                retain: 256,
            }
        } else {
            AlertConfig::default()
        }
    }

    /// The detection hot reloads this scenario schedules: storm
    /// campaigns fire an *invalid* reload mid-storm (`af_threshold`
    /// out of domain — must be rejected with a journaled reason while
    /// the run keeps going) followed by a valid detector tightening.
    /// The `alert_suppression_correct` oracle replays both decisions.
    pub fn retunes(&self) -> Vec<(f64, DetectionRetune)> {
        if !self.alert_storm {
            return Vec::new();
        }
        vec![
            (
                0.3 * self.duration,
                DetectionRetune {
                    af_threshold: Some(1.5),
                    ..DetectionRetune::default()
                },
            ),
            (
                // A mild tightening: strict enough to observably change
                // the config, loose enough that the convoy's later
                // passages still confirm and keep storming the edge.
                0.5 * self.duration,
                DetectionRetune {
                    af_threshold: Some(0.65),
                    m: Some(2.1),
                    ..DetectionRetune::default()
                },
            ),
        ]
    }

    /// Total nodes deployed: the grid product, or the fleet size for
    /// fleet-class scenarios.
    pub fn node_count(&self) -> usize {
        self.fleet.map_or(self.rows * self.cols, |f| f.nodes)
    }

    /// The `SystemConfig` this scenario builds, with `sabotage` applied.
    /// The invariant oracles always check against the *nominal*
    /// (un-sabotaged) thresholds, which is exactly how a sabotaged build
    /// gets caught.
    pub fn config(&self, sabotage: Sabotage) -> SystemConfig {
        let mut config = SystemConfig {
            burst: if self.burst_severity > 0.0 {
                GilbertElliott::sea_surface(self.burst_severity)
            } else {
                GilbertElliott::disabled()
            },
            dead_node_fraction: self.dead_node_fraction,
            duty_cycle: if self.fleet.is_some() {
                // Fleet runs shorten the wake window: an alarm in a
                // dense cluster wakes hundreds of neighbors, and the
                // default 180 s window would keep them all sensing for
                // most of the (45–90 s) run.
                DutyCycleConfig {
                    enabled: true,
                    wake_duration: 45.0,
                    ..DutyCycleConfig::default()
                }
            } else {
                DutyCycleConfig {
                    enabled: self.duty_cycle,
                    ..DutyCycleConfig::default()
                }
            },
            ..SystemConfig::paper_default(self.rows, self.cols)
        };
        // The campaign is injected explicitly via `replace_fault_plan`;
        // leave the config's own fractions quiet.
        config.faults = FaultPlanConfig {
            spare: Some(0),
            ..FaultPlanConfig::default()
        };
        config.alert = self.alert_config();
        if sabotage == Sabotage::LooseQuorum {
            config.cluster.min_reports = 1;
            config.cluster.correlation.min_rows = 1;
            config.cluster.correlation.c_threshold = 0.0;
        }
        config
    }

    /// Synthesizes the ground-truth scene (sea + ships).
    pub fn scene(&self) -> Scene {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EA_5CE9E);
        let sea = SeaState::synthesize(self.sea.spectrum(), self.sea_components, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        for ship in &self.ships {
            scene.add_ship(Ship::new(
                Vec2::new(ship.x, ship.y),
                Angle::from_degrees(ship.heading_deg),
                Knots::new(ship.knots),
            ));
        }
        scene
    }

    /// The deployment topology: the exact grid, or — for `free_form`
    /// scenarios — the same anchors jittered off the lattice (which
    /// drops the row/column structure the cluster stage correlates on).
    pub fn topology(&self) -> Topology {
        let config = self.config(Sabotage::None);
        if let Some(f) = self.fleet {
            // A coastline strip: cluster centres strung eastward every
            // 180 m with jitter, nodes scattered round-robin about
            // them. Node 0 (the sink) sits at the first centre. The
            // RNG draws two values per node in index order, so
            // shrinking `nodes` keeps the surviving prefix of
            // positions bit-identical. At fleet sizes (≥ 200 ≥
            // `SPATIAL_HASH_THRESHOLD`) `from_positions` takes the
            // spatial-hash index path automatically.
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF1EE_70B0);
            let centres: Vec<(f64, f64)> = (0..f.clusters)
                .map(|k| {
                    (
                        k as f64 * 180.0 + rng.gen_range(-40.0..40.0),
                        rng.gen_range(0.0..260.0),
                    )
                })
                .collect();
            let positions: Vec<Position> = (0..f.nodes)
                .map(|i| {
                    let (cx, cy) = centres[i % f.clusters];
                    let dx = rng.gen_range(-1.0..1.0) * f.cluster_radius;
                    let dy = rng.gen_range(-1.0..1.0) * f.cluster_radius;
                    if i == 0 {
                        // Sink at the first centre, exactly.
                        Position { x: centres[0].0, y: centres[0].1 }
                    } else {
                        Position { x: cx + dx, y: cy + dy }
                    }
                })
                .collect();
            return Topology::from_positions(positions, config.radio_range);
        }
        if !self.free_form {
            return Topology::grid(self.rows, self.cols, self.spacing, config.radio_range);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF9EE_F09A);
        let positions: Vec<Position> = (0..self.node_count())
            .map(|i| {
                let row = (i / self.cols) as f64;
                let col = (i % self.cols) as f64;
                Position {
                    x: col * self.spacing + rng.gen_range(-0.3..0.3) * self.spacing,
                    y: row * self.spacing + rng.gen_range(-0.3..0.3) * self.spacing,
                }
            })
            .collect();
        Topology::from_positions(positions, config.radio_range)
    }

    /// The explicit fault campaign as a replayable plan.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::from_events(self.faults.clone())
    }

    /// Builds the system *without* a journal or worker pool attached:
    /// the builder contract `sid-serve` session managers expect (they
    /// wire in their own in-memory journal, shared pool and shard
    /// partition). Fault plan, sentinel mask and scheduled retunes are
    /// all in place.
    pub fn build_bare(&self, sabotage: Sabotage) -> IntrusionDetectionSystem {
        let mut sys = IntrusionDetectionSystem::with_topology(
            self.scene(),
            self.config(sabotage),
            self.seed,
            self.topology(),
        )
        .replace_fault_plan(self.fault_plan());
        if let Some(f) = self.fleet {
            // Free-form fleets have no grid rows for the stride-based
            // sentinel lattice; swap in the index-stride mask.
            sys = sys.with_sentinel_index_stride(f.sentinel_every);
        }
        for (at, retune) in self.retunes() {
            // Retune times are fractions of the duration. Only a NaN
            // duration makes one NaN, and it runs no ticks, so dropping
            // the rejected retune changes nothing.
            let _ = sys.schedule_retune(at, retune);
        }
        sys
    }

    /// Builds the ready-to-run system (journal attached, worker pool of
    /// `threads`).
    pub fn build(&self, sabotage: Sabotage, obs: Obs, threads: usize) -> IntrusionDetectionSystem {
        self.build_bare(sabotage)
            .with_obs(obs)
            .with_pool(Arc::new(sid_exec::Pool::new(threads)))
    }
}

/// Everything one execution produced, for the oracles.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The sabotage mode it was built with.
    pub sabotage: Sabotage,
    /// The recorded journal, in order.
    pub events: Vec<Event>,
    /// The recorder's live stage-count aggregation.
    pub counts: StageCounts,
    /// Wall-clock stats (gauges/counters; non-deterministic section).
    pub wall: WallStats,
    /// The pipeline's own run trace.
    pub trace: SystemTrace,
    /// Bit pattern of the fleet's total consumed energy (mJ): lazy sleep
    /// accounting in the event loop must land on the sweep's exact sum.
    pub energy_bits: u64,
    /// The canonical JSONL rendering of `events`.
    pub journal: String,
}

/// Runs a scenario at a given worker-pool size and collects the journal.
pub fn execute_with_threads(scenario: &Scenario, sabotage: Sabotage, threads: usize) -> RunReport {
    let obs = Obs::in_memory();
    let mut sys = scenario.build(sabotage, obs.clone(), threads);
    sys.run(scenario.duration);
    collect(scenario, sabotage, &obs, &sys)
}

/// Runs a scenario on a single-thread pool: the cheapest deterministic
/// baseline, which every entry of `scenario.variants` must reproduce.
pub fn execute(scenario: &Scenario, sabotage: Sabotage) -> RunReport {
    execute_with_threads(scenario, sabotage, 1)
}

/// What a variant rerun produced, for comparison against the baseline.
#[derive(Debug, Clone)]
pub(crate) enum Rerun {
    /// A full simulation report: journal, stage counts, trace and
    /// total-energy bits.
    Report(Box<RunReport>),
    /// The journal fingerprint only: `sid-serve` session recorders are
    /// private to their manager.
    Fingerprint(u64),
}

/// Re-runs `scenario` under `variant`. Every rerun must reproduce the
/// baseline [`execute`] report byte-for-byte; the `variant_equivalence`
/// oracle enforces exactly that.
///
/// # Errors
///
/// A `sid-serve` call that failed (such as a migration rejected at the
/// resume integrity gate), or [`Variant::LegacyFrontEnd`], which
/// compares a synthetic stream rather than re-running the scenario.
pub(crate) fn execute_variant(
    scenario: &Scenario,
    sabotage: Sabotage,
    variant: Variant,
) -> Result<Rerun, String> {
    let obs = Obs::in_memory();
    let sys = match variant {
        Variant::Threads(threads) => {
            return Ok(Rerun::Report(Box::new(execute_with_threads(
                scenario, sabotage, threads,
            ))))
        }
        Variant::Events => {
            let mut sys = scenario.build(sabotage, obs.clone(), 1);
            sys.run_events(scenario.duration);
            sys
        }
        Variant::Sharded { threads, shards } => {
            let mut sys = scenario.build(sabotage, obs.clone(), threads).with_shards(shards);
            sys.run_events(scenario.duration);
            sys
        }
        Variant::ServeTwoAdvance | Variant::ServeMigrate => {
            return serve_fingerprint(scenario, sabotage, variant)
                .map(Rerun::Fingerprint)
                .map_err(|err| err.to_string())
        }
        Variant::LegacyFrontEnd => return Err("not a scenario rerun".to_string()),
    };
    Ok(Rerun::Report(Box::new(collect(scenario, sabotage, &obs, &sys))))
}

/// Drives `scenario` through `sid-serve` sessions split at the half of
/// the run: two advance calls on one session (2 threads, 2 shards), or
/// a checkpoint there on a 1-thread manager, then a resume on a
/// 4-thread, 4-shard manager that finishes the run.
fn serve_fingerprint(
    scenario: &Scenario,
    sabotage: Sabotage,
    variant: Variant,
) -> Result<u64, ServeError> {
    let half = (scenario.duration / 2.0).floor().max(1.0);
    let rest = scenario.duration - half;
    let build = || scenario.build_bare(sabotage);
    let spec = SessionSpec::new("dst", scenario.seed).with_shards(2);
    let (mut manager, id) = if variant == Variant::ServeTwoAdvance {
        let mut manager = SessionManager::with_threads(2);
        let id = manager.open(spec, build);
        manager.advance(id, half)?;
        (manager, id)
    } else {
        let mut source = SessionManager::with_threads(1);
        let id = source.open(spec, build);
        source.advance(id, half)?;
        let checkpoint = source.checkpoint(id)?;
        let mut target = SessionManager::with_threads(4);
        let id = target.resume_with_shards(&checkpoint, 4, build)?;
        (target, id)
    };
    manager.advance(id, rest)?;
    manager
        .session(id)
        .map(|session| session.fingerprint())
        .ok_or(ServeError::UnknownSession(id.value()))
}

/// The report-collection tail every execution shares.
fn collect(
    scenario: &Scenario,
    sabotage: Sabotage,
    obs: &Obs,
    sys: &IntrusionDetectionSystem,
) -> RunReport {
    let events = obs.events().expect("in-memory recorder keeps events");
    let journal = sid_obs::render_journal(&events);
    RunReport {
        scenario: scenario.clone(),
        sabotage,
        events,
        counts: obs.counts(),
        wall: obs.wall(),
        trace: sys.trace().clone(),
        energy_bits: sys.total_energy_mj().to_bits(),
        journal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = Scenario::generate(42);
        let b = Scenario::generate(42);
        assert_eq!(a, b);
        let c = Scenario::generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario::generate(9);
        let json = serde_json::to_string(&s).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn generated_population_covers_the_feature_space() {
        let scenarios: Vec<Scenario> = (0..64).map(Scenario::generate).collect();
        assert!(scenarios.iter().any(|s| s.free_form));
        assert!(scenarios.iter().any(|s| !s.free_form));
        assert!(scenarios.iter().any(|s| s.ships.is_empty()));
        assert!(scenarios.iter().any(|s| s.ships.len() == 2));
        assert!(scenarios.iter().any(|s| !s.faults.is_empty()));
        assert!(scenarios.iter().any(|s| s.faults.is_empty()));
        assert!(scenarios.iter().any(|s| s.duty_cycle));
        assert!(scenarios.iter().any(|s| s.burst_severity > 0.0));
        assert!(scenarios.iter().any(|s| s.alert_storm));
        assert!(scenarios.iter().any(|s| !s.alert_storm));
        for s in &scenarios {
            if s.alert_storm {
                assert_eq!(s.duration, 300.0);
            } else {
                assert!(s.duration >= 60.0 && s.duration <= 150.0);
            }
            assert!(s.node_count() >= 9 && s.node_count() <= 36);
            // The sink must never be scheduled for a fault.
            assert!(s.faults.iter().all(|f| f.node != 0));
            if s.alert_storm {
                // Storm overrides hold: a three-ship convoy on the
                // exact grid under burst loss, long enough to storm,
                // with a tight bucket and a two-step reload script.
                assert_eq!(s.ships.len(), 3);
                assert!(!s.free_form);
                assert!(s.rows >= 4);
                assert_eq!(s.burst_severity, 0.35);
                assert_eq!(s.dead_node_fraction, 0.0);
                assert_eq!(s.alert_config().bucket_capacity, 1.0);
                assert_eq!(s.retunes().len(), 2);
            } else {
                assert_eq!(s.alert_config(), sid_alert::AlertConfig::default());
                assert!(s.retunes().is_empty());
            }
        }
    }

    #[test]
    fn variants_pin_the_historical_seed_populations() {
        use Variant::*;
        // The populations the per-seed equivalence reruns have always
        // covered: every seed must rerun exactly these, in this order.
        for seed in 0..512u64 {
            let mut want = Vec::new();
            if seed % 16 == 0 {
                want.extend([Threads(2), Threads(4), Threads(8)]);
            }
            if seed % 32 == 0 {
                want.push(LegacyFrontEnd);
            }
            if seed % 4 == 2 {
                want.push(Events);
            }
            if seed % 8 == 5 {
                want.extend([
                    Sharded { threads: 1, shards: 2 },
                    Sharded { threads: 4, shards: 2 },
                    Sharded { threads: 2, shards: 4 },
                    Sharded { threads: 8, shards: 4 },
                    ServeTwoAdvance,
                    ServeMigrate,
                ]);
            }
            assert_eq!(Scenario::generate(seed).variants, want, "seed {seed}");
            let fleet: &[Variant] = if seed % 4 == 0 {
                &[Threads(8), Events]
            } else {
                &[Events]
            };
            assert_eq!(Scenario::fleet(seed).variants, fleet, "fleet seed {seed}");
        }
    }

    #[test]
    fn sabotage_loosens_only_the_cluster_quorum() {
        let s = Scenario::generate(5);
        let nominal = s.config(Sabotage::None);
        let broken = s.config(Sabotage::LooseQuorum);
        assert_eq!(broken.cluster.min_reports, 1);
        assert_eq!(broken.cluster.correlation.min_rows, 1);
        assert_eq!(broken.cluster.correlation.c_threshold, 0.0);
        assert_eq!(nominal.rows, broken.rows);
        assert_eq!(nominal.radio_range, broken.radio_range);
    }
}
