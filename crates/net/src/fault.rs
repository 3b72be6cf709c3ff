//! Fault injection: bursty link loss and scheduled node faults.
//!
//! The paper's robustness argument — cooperative cluster-level fusion
//! survives "wireless communication errors \[20\] and possible network
//! congestions \[19\]" and "some nodes with hardware errors" — is only an
//! argument until the failure processes are actually injected. This module
//! supplies them:
//!
//! * [`GilbertElliott`] — a two-state Markov burst-loss channel layered on
//!   the i.i.d. [`RadioModel`](crate::RadioModel). Sea-surface 802.15.4
//!   links fail in episodes (a swell shadowing the antenna, spray over the
//!   enclosure), not as independent coin flips; burst loss is what actually
//!   starves a cluster head of member reports.
//! * [`FaultPlan`] — a deterministic, seedable campaign of per-node fault
//!   events ([`FaultKind`]): battery-depletion deaths, transient outages,
//!   clock-drift spikes, and stuck/saturated accelerometer channels.
//!
//! The plan is generated up front and replayed by the system simulation,
//! so a chaos run is exactly reproducible from `(config, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A two-state (Good/Bad) Markov burst-loss channel — the classic
/// Gilbert–Elliott model.
///
/// The chain is stepped once per physical transmission: from Good it
/// enters a burst with probability `p_good_to_bad`; from Bad it recovers
/// with probability `p_bad_to_good`. The transmission is then lost with
/// the state's loss probability. Mean burst length is
/// `1 / p_bad_to_good` transmissions.
///
/// # Examples
///
/// ```
/// use sid_net::fault::GilbertElliott;
///
/// let ge = GilbertElliott::sea_surface(0.5);
/// assert!(ge.average_loss() > 0.0 && ge.average_loss() < 0.5);
/// assert_eq!(GilbertElliott::disabled().average_loss(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// P(Good → Bad) per transmission.
    pub p_good_to_bad: f64,
    /// P(Bad → Good) per transmission.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad (burst) state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A channel that never loses anything (the burst layer is off).
    pub fn disabled() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// A sea-surface burst profile parameterised by `severity` in
    /// `[0, 1]`: severity 0 is [`disabled`](Self::disabled); severity 1
    /// gives frequent long bursts (mean ~10 transmissions) that lose
    /// nearly every frame, on top of a clean Good state.
    pub fn sea_surface(severity: f64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        if s <= 0.0 {
            return Self::disabled();
        }
        GilbertElliott {
            p_good_to_bad: 0.005 + 0.045 * s,
            p_bad_to_good: 0.25 - 0.15 * s,
            loss_good: 0.0,
            loss_bad: 0.6 + 0.4 * s,
        }
    }

    /// Whether the channel can never lose a frame.
    pub fn is_disabled(&self) -> bool {
        self.loss_good <= 0.0 && (self.loss_bad <= 0.0 || self.p_good_to_bad <= 0.0)
    }

    /// Stationary probability of being in the Bad state.
    pub fn steady_state_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    /// Long-run average loss probability.
    pub fn average_loss(&self) -> f64 {
        let pb = self.steady_state_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }

    /// Mean burst length in transmissions (∞-free: recovery probability 0
    /// reports `f64::INFINITY`).
    pub fn mean_burst_len(&self) -> f64 {
        if self.p_bad_to_good <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.p_bad_to_good
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    pub fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must lie in [0, 1]");
        }
    }
}

impl Default for GilbertElliott {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-sender state of a [`GilbertElliott`] chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BurstState {
    in_burst: bool,
}

impl BurstState {
    /// Starts in the Good state.
    pub fn new() -> Self {
        BurstState { in_burst: false }
    }

    /// Whether the channel is currently in a burst.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Steps the chain one transmission (transition first, then loss draw
    /// in the new state). Returns `true` if this transmission is lost.
    pub fn step<R: Rng + ?Sized>(&mut self, model: &GilbertElliott, rng: &mut R) -> bool {
        if self.in_burst {
            if rng.gen_bool(model.p_bad_to_good) {
                self.in_burst = false;
            }
        } else if model.p_good_to_bad > 0.0 && rng.gen_bool(model.p_good_to_bad) {
            self.in_burst = true;
        }
        let p = if self.in_burst {
            model.loss_bad
        } else {
            model.loss_good
        };
        p > 0.0 && rng.gen_bool(p)
    }
}

/// One kind of injected node fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Battery instantly depleted: the node powers off and never returns.
    Death,
    /// Transient outage (reboot loop, watchdog reset): the node is silent
    /// and unreachable for `duration` seconds, then recovers.
    Outage {
        /// Seconds the node stays down.
        duration: f64,
    },
    /// The crystal's drift rate jumps by `extra_ppm` (thermal shock); the
    /// local timestamp stays continuous but starts diverging faster.
    ClockDriftSpike {
        /// Added drift, parts per million (signed).
        extra_ppm: f64,
    },
    /// The accelerometer z channel sticks: every subsequent reading
    /// reports exactly `counts` (saturated rail or frozen ADC).
    StuckAccel {
        /// The stuck output, in ADC counts.
        counts: i32,
    },
}

/// A scheduled fault: `kind` strikes `node` at simulation time `time`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation time the fault strikes (s).
    pub time: f64,
    /// Victim node id.
    pub node: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// Parameters for drawing a random [`FaultPlan`].
///
/// Each fraction is the independent per-node probability of that fault
/// being scheduled somewhere in `[0, horizon)`. All-zero fractions produce
/// an empty plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Fault times are drawn uniformly in `[0, horizon)` seconds.
    pub horizon: f64,
    /// Per-node probability of a scheduled death.
    pub death_fraction: f64,
    /// Per-node probability of a transient outage.
    pub outage_fraction: f64,
    /// Shortest outage duration (s).
    pub outage_min_secs: f64,
    /// Longest outage duration (s).
    pub outage_max_secs: f64,
    /// Per-node probability of a clock-drift spike.
    pub drift_spike_fraction: f64,
    /// Largest spike magnitude (ppm); the sign is drawn randomly.
    pub drift_spike_max_ppm: f64,
    /// Per-node probability of a stuck/saturated accelerometer channel.
    pub stuck_fraction: f64,
    /// A node never scheduled for death or outage (typically the sink,
    /// which in a deployment is the wired gateway).
    pub spare: Option<u32>,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon: 300.0,
            death_fraction: 0.0,
            outage_fraction: 0.0,
            outage_min_secs: 30.0,
            outage_max_secs: 120.0,
            drift_spike_fraction: 0.0,
            drift_spike_max_ppm: 500.0,
            stuck_fraction: 0.0,
            spare: None,
        }
    }
}

impl FaultPlanConfig {
    /// A chaos preset scaled by a single `intensity` knob in `[0, 1]`:
    /// `0.0` is a quiet plan, `1.0` schedules deaths/outages/drift
    /// spikes/stuck channels at the heaviest rates the chaos benches use.
    /// The scenario fuzzer (`sid-dst`) draws its fault campaigns through
    /// this, so one generated float controls the whole fault mix.
    pub fn chaos(intensity: f64, horizon: f64) -> Self {
        let k = intensity.clamp(0.0, 1.0);
        FaultPlanConfig {
            horizon,
            death_fraction: 0.15 * k,
            outage_fraction: 0.15 * k,
            drift_spike_fraction: 0.20 * k,
            stuck_fraction: 0.10 * k,
            ..FaultPlanConfig::default()
        }
    }

    /// Whether this configuration can produce any event at all.
    pub fn is_quiet(&self) -> bool {
        self.death_fraction <= 0.0
            && self.outage_fraction <= 0.0
            && self.drift_spike_fraction <= 0.0
            && self.stuck_fraction <= 0.0
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if a fraction lies outside `[0, 1]`, the horizon is not
    /// positive while events are possible, or the outage bounds are
    /// inverted or negative.
    pub fn validate(&self) {
        for (name, f) in [
            ("death_fraction", self.death_fraction),
            ("outage_fraction", self.outage_fraction),
            ("drift_spike_fraction", self.drift_spike_fraction),
            ("stuck_fraction", self.stuck_fraction),
        ] {
            assert!((0.0..=1.0).contains(&f), "{name} must lie in [0, 1]");
        }
        if !self.is_quiet() {
            assert!(self.horizon > 0.0, "horizon must be positive");
        }
        assert!(
            self.outage_min_secs >= 0.0 && self.outage_min_secs <= self.outage_max_secs,
            "outage bounds must satisfy 0 <= min <= max"
        );
        assert!(
            self.drift_spike_max_ppm >= 0.0,
            "drift spike magnitude must be non-negative"
        );
    }
}

/// A time-ordered, replayable campaign of [`FaultEvent`]s.
///
/// Generated deterministically from `(node_count, config, seed)` — the
/// same inputs always yield the same plan, so chaos runs are exactly
/// reproducible. Consumed via [`take_due`](Self::take_due) as simulation
/// time advances.
///
/// # Examples
///
/// ```
/// use sid_net::fault::{FaultPlan, FaultPlanConfig};
///
/// let cfg = FaultPlanConfig {
///     death_fraction: 0.5,
///     ..FaultPlanConfig::default()
/// };
/// let mut plan = FaultPlan::generate(50, &cfg, 7);
/// assert_eq!(plan.events().len(), FaultPlan::generate(50, &cfg, 7).events().len());
/// let early = plan.take_due(150.0).len();
/// let late = plan.take_due(f64::INFINITY).len();
/// assert_eq!(early + late, plan.events().len());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// A plan with no events.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (sorted by time, ties by node).
    ///
    /// # Panics
    ///
    /// Panics if any event time is NaN.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        assert!(
            events.iter().all(|e| !e.time.is_nan()),
            "fault times must not be NaN"
        );
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.node.cmp(&b.node)));
        FaultPlan { events, cursor: 0 }
    }

    /// Draws a plan for `node_count` nodes. Deterministic in
    /// `(node_count, config, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultPlanConfig::validate`]).
    pub fn generate(node_count: usize, config: &FaultPlanConfig, seed: u64) -> Self {
        config.validate();
        if config.is_quiet() {
            return Self::empty();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for node in 0..node_count as u32 {
            if config.spare == Some(node) {
                continue;
            }
            if config.death_fraction > 0.0 && rng.gen_bool(config.death_fraction) {
                events.push(FaultEvent {
                    time: rng.gen_range(0.0..config.horizon),
                    node,
                    kind: FaultKind::Death,
                });
            }
            if config.outage_fraction > 0.0 && rng.gen_bool(config.outage_fraction) {
                let duration = if config.outage_max_secs > config.outage_min_secs {
                    rng.gen_range(config.outage_min_secs..=config.outage_max_secs)
                } else {
                    config.outage_min_secs
                };
                events.push(FaultEvent {
                    time: rng.gen_range(0.0..config.horizon),
                    node,
                    kind: FaultKind::Outage { duration },
                });
            }
            if config.drift_spike_fraction > 0.0 && rng.gen_bool(config.drift_spike_fraction) {
                let magnitude = rng.gen_range(0.0..=config.drift_spike_max_ppm);
                let extra_ppm = if rng.gen_bool(0.5) { magnitude } else { -magnitude };
                events.push(FaultEvent {
                    time: rng.gen_range(0.0..config.horizon),
                    node,
                    kind: FaultKind::ClockDriftSpike { extra_ppm },
                });
            }
            if config.stuck_fraction > 0.0 && rng.gen_bool(config.stuck_fraction) {
                // Half the failures saturate at the positive rail; the
                // rest freeze near the 1 g resting level.
                let counts = if rng.gen_bool(0.5) { 2047 } else { 1024 };
                events.push(FaultEvent {
                    time: rng.gen_range(0.0..config.horizon),
                    node,
                    kind: FaultKind::StuckAccel { counts },
                });
            }
        }
        Self::from_events(events)
    }

    /// Every event, in firing order (including already-taken ones).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A fresh (cursor-rewound) plan holding only the events `keep`
    /// accepts, in the same firing order. Shrinkers use this to prune a
    /// failing campaign event-by-event while preserving the rest of the
    /// schedule exactly.
    pub fn filtered(&self, mut keep: impl FnMut(usize, &FaultEvent) -> bool) -> Self {
        let events = self
            .events
            .iter()
            .enumerate()
            .filter(|(i, e)| keep(*i, e))
            .map(|(_, e)| *e)
            .collect();
        FaultPlan { events, cursor: 0 }
    }

    /// A fresh plan with every event scheduled before `horizon` seconds,
    /// for shrinking a campaign alongside a shortened run.
    pub fn truncated(&self, horizon: f64) -> Self {
        self.filtered(|_, e| e.time < horizon)
    }

    /// Events not yet taken.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Whether the plan holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Inserts one more event in time order. An event scheduled earlier
    /// than an already-taken time fires on the next [`take_due`](Self::take_due).
    ///
    /// # Panics
    ///
    /// Panics if the event time is NaN.
    pub fn push(&mut self, event: FaultEvent) {
        assert!(!event.time.is_nan(), "fault times must not be NaN");
        let idx = self
            .events
            .partition_point(|e| e.time.total_cmp(&event.time).is_le())
            .max(self.cursor);
        self.events.insert(idx, event);
    }

    /// Rewinds the consumption cursor for a fresh replay.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Returns (and consumes) every event with `time <= now`, in order.
    pub fn take_due(&mut self, now: f64) -> &[FaultEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].time <= now {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_channel_never_loses() {
        let ge = GilbertElliott::disabled();
        let mut state = BurstState::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(!state.step(&ge, &mut rng));
            assert!(!state.in_burst());
        }
    }

    #[test]
    fn burst_loss_matches_steady_state() {
        let ge = GilbertElliott::sea_surface(0.6);
        ge.validate();
        let mut state = BurstState::new();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let lost = (0..n).filter(|_| state.step(&ge, &mut rng)).count();
        let rate = lost as f64 / n as f64;
        let expected = ge.average_loss();
        assert!(
            (rate - expected).abs() < 0.01,
            "empirical {rate} vs stationary {expected}"
        );
    }

    #[test]
    fn losses_arrive_in_bursts() {
        // Runs of consecutive losses must be far longer than an i.i.d.
        // channel of the same average loss would produce.
        let ge = GilbertElliott::sea_surface(1.0);
        let mut state = BurstState::new();
        let mut rng = StdRng::seed_from_u64(3);
        let outcomes: Vec<bool> = (0..100_000).map(|_| state.step(&ge, &mut rng)).collect();
        let mut runs = Vec::new();
        let mut run = 0usize;
        for &lost in &outcomes {
            if lost {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        if run > 0 {
            runs.push(run);
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        // i.i.d. at loss p has mean run 1/(1-p); here p ≈ average_loss.
        let iid_run = 1.0 / (1.0 - ge.average_loss());
        assert!(
            mean_run > 2.0 * iid_run,
            "mean loss run {mean_run} vs i.i.d. {iid_run}"
        );
    }

    #[test]
    fn severity_zero_is_disabled() {
        assert!(GilbertElliott::sea_surface(0.0).is_disabled());
        assert!(!GilbertElliott::sea_surface(0.1).is_disabled());
    }

    #[test]
    fn average_loss_grows_with_severity() {
        let mut prev = -1.0;
        for k in 0..=10 {
            let loss = GilbertElliott::sea_surface(k as f64 / 10.0).average_loss();
            assert!(loss > prev, "severity {k}: {loss} <= {prev}");
            prev = loss;
        }
    }

    #[test]
    fn plan_generation_is_deterministic() {
        let cfg = FaultPlanConfig {
            death_fraction: 0.3,
            outage_fraction: 0.3,
            drift_spike_fraction: 0.2,
            stuck_fraction: 0.2,
            ..FaultPlanConfig::default()
        };
        let a = FaultPlan::generate(40, &cfg, 99);
        let b = FaultPlan::generate(40, &cfg, 99);
        assert_eq!(a, b);
        let c = FaultPlan::generate(40, &cfg, 100);
        assert_ne!(a, c, "distinct seeds should give distinct plans");
    }

    #[test]
    fn plan_events_are_time_ordered_and_within_horizon() {
        let cfg = FaultPlanConfig {
            death_fraction: 0.5,
            outage_fraction: 0.5,
            horizon: 120.0,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(60, &cfg, 5);
        assert!(!plan.is_empty());
        for w in plan.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for e in plan.events() {
            assert!((0.0..120.0).contains(&e.time));
        }
    }

    #[test]
    fn spare_node_is_never_killed() {
        let cfg = FaultPlanConfig {
            death_fraction: 1.0,
            outage_fraction: 1.0,
            spare: Some(0),
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(20, &cfg, 11);
        assert!(plan.events().iter().all(|e| e.node != 0));
        // Every other node got both events.
        assert_eq!(plan.events().len(), 19 * 2);
    }

    #[test]
    fn quiet_config_yields_empty_plan() {
        let plan = FaultPlan::generate(100, &FaultPlanConfig::default(), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn take_due_consumes_in_order() {
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent {
                time: 10.0,
                node: 1,
                kind: FaultKind::Death,
            },
            FaultEvent {
                time: 5.0,
                node: 2,
                kind: FaultKind::Outage { duration: 30.0 },
            },
            FaultEvent {
                time: 20.0,
                node: 3,
                kind: FaultKind::StuckAccel { counts: 2047 },
            },
        ]);
        let first = plan.take_due(10.0).to_vec();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].node, 2);
        assert_eq!(first[1].node, 1);
        assert_eq!(plan.remaining(), 1);
        assert!(plan.take_due(15.0).is_empty());
        assert_eq!(plan.take_due(20.0).len(), 1);
        plan.reset();
        assert_eq!(plan.remaining(), 3);
    }

    #[test]
    fn push_keeps_order_even_past_cursor() {
        let mut plan = FaultPlan::from_events(vec![FaultEvent {
            time: 10.0,
            node: 1,
            kind: FaultKind::Death,
        }]);
        assert_eq!(plan.take_due(10.0).len(), 1);
        // Scheduled "in the past": must still fire on the next take.
        plan.push(FaultEvent {
            time: 3.0,
            node: 2,
            kind: FaultKind::Death,
        });
        assert_eq!(plan.take_due(10.0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn generate_rejects_bad_fraction() {
        let cfg = FaultPlanConfig {
            death_fraction: 1.5,
            ..FaultPlanConfig::default()
        };
        FaultPlan::generate(10, &cfg, 1);
    }

    #[test]
    fn chaos_preset_scales_with_intensity() {
        let quiet = FaultPlanConfig::chaos(0.0, 120.0);
        assert!(quiet.is_quiet());
        let full = FaultPlanConfig::chaos(1.0, 120.0);
        full.validate();
        assert!((full.death_fraction - 0.15).abs() < 1e-12);
        assert!((full.horizon - 120.0).abs() < 1e-12);
        // Out-of-range intensities clamp instead of producing an invalid
        // config the fuzzer would trip over.
        FaultPlanConfig::chaos(7.0, 60.0).validate();
        let half = FaultPlanConfig::chaos(0.5, 120.0);
        assert!(half.death_fraction < full.death_fraction);
    }

    #[test]
    fn filtered_and_truncated_preserve_order_and_rewind() {
        let cfg = FaultPlanConfig {
            death_fraction: 0.6,
            outage_fraction: 0.6,
            ..FaultPlanConfig::default()
        };
        let mut plan = FaultPlan::generate(40, &cfg, 11);
        assert!(plan.events().len() > 4);
        let total = plan.events().len();
        // Consume part of the plan, then derive pruned copies: they must
        // start from a rewound cursor.
        plan.take_due(150.0);
        let evens = plan.filtered(|i, _| i % 2 == 0);
        assert_eq!(evens.events().len(), total.div_ceil(2));
        assert_eq!(evens.remaining(), evens.events().len());
        assert!(evens
            .events()
            .windows(2)
            .all(|w| w[0].time <= w[1].time));
        let early = plan.truncated(100.0);
        assert!(early.events().iter().all(|e| e.time < 100.0));
        let late_count = plan.events().iter().filter(|e| e.time >= 100.0).count();
        assert_eq!(early.events().len() + late_count, total);
    }
}
