//! The composite sea scene: ambient sea plus any number of passing ships.
//!
//! [`Scene`] is the ground-truth world the sensor network floats in. It
//! answers one question — "what is the water doing at point *p* at time
//! *t*?" — by superposing the ambient [`SeaState`] field with each ship's
//! [`WaveTrain`] contribution, and it exposes the ground-truth passage
//! events that the evaluation harness scores detections against.

use serde::{Deserialize, Serialize, Value};

use crate::sea::SeaState;
use crate::ship::{Ship, TrackGeometry};
use crate::shipwave::{ShipWaveModel, TrainConstants, WaveTrain};
use crate::units::Vec2;

/// Ground truth about one ship's wave train reaching one point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PassageEvent {
    /// Index of the ship in the scene.
    pub ship_index: usize,
    /// Time (s) at which the ship passes closest to the point.
    pub time_of_cpa: f64,
    /// Time (s) at which the wave train peaks at the point.
    pub arrival_time: f64,
    /// Duration (s) of the disturbance window.
    pub duration: f64,
    /// Lateral distance (m) from the sailing line.
    pub lateral: f64,
    /// Side of the track: +1 port, −1 starboard.
    pub side: i8,
    /// Peak divergent wave height (m) at the point.
    pub peak_height: f64,
}

/// A simulated patch of ocean with ships.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sea = SeaState::synthesize(WaveSpectrum::moderate_sea(), 64, &mut rng);
/// let mut scene = Scene::new(sea, ShipWaveModel::default());
/// scene.add_ship(Ship::new(Vec2::new(-500.0, 0.0), Angle::from_degrees(0.0), Knots::new(10.0)));
/// let a = scene.acceleration(Vec2::new(0.0, 25.0), 100.0);
/// assert!(a[2].is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    sea: SeaState,
    wave_model: ShipWaveModel,
    ships: Vec<Ship>,
    /// Fraction of the ship-wave vertical acceleration that couples into
    /// the horizontal axes (surface orbital motion).
    horizontal_coupling: f64,
    /// One per ship, in the same order. Derived, not serialized.
    kernels: Vec<ShipKernel>,
}

/// The terms of one ship's wave train that no sample changes, fixed when
/// the ship is added: its sailing line and its [`TrainConstants`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShipKernel {
    start: Vec2,
    /// Unit vector along the heading.
    heading: Vec2,
    /// Speed (m/s).
    speed: f64,
    train: TrainConstants,
}

impl ShipKernel {
    fn new(ship: &Ship, model: &ShipWaveModel) -> Self {
        let speed = ship.speed_mps();
        ShipKernel {
            start: ship.start(),
            heading: Vec2::from_heading(ship.heading()),
            speed,
            train: TrainConstants::new(model, speed),
        }
    }

    /// The track geometry at `position`, or `None` on the sailing line: a
    /// ship runs such a point over rather than sending it a wake.
    fn geometry(&self, position: Vec2) -> Option<TrackGeometry> {
        let g = TrackGeometry::of_line(self.start, self.heading, self.speed, position);
        if g.lateral < 1e-6 {
            None
        } else {
            Some(g)
        }
    }

    /// The full wave train at `position`, with its geometry.
    fn train_at(
        &self,
        model: &ShipWaveModel,
        position: Vec2,
    ) -> Option<(TrackGeometry, WaveTrain)> {
        let g = self.geometry(position)?;
        Some((g, self.train.train(model, g.lateral)))
    }

    /// Vertical acceleration (m/s²) of this ship's train at `position`,
    /// `t`. The heights are computed only for a sample inside the packet
    /// window, which most samples are not.
    fn vertical_acceleration(&self, model: &ShipWaveModel, position: Vec2, t: f64) -> f64 {
        let Some(g) = self.geometry(position) else {
            return 0.0;
        };
        let dt = t - g.time_of_cpa;
        if self.train.window(model, g.lateral).is_active(dt) {
            self.train.train(model, g.lateral).vertical_acceleration(dt)
        } else {
            0.0
        }
    }
}

impl Scene {
    /// Creates a scene with the given ambient sea and ship-wave physics.
    pub fn new(sea: SeaState, wave_model: ShipWaveModel) -> Self {
        Scene {
            sea,
            wave_model,
            ships: Vec::new(),
            horizontal_coupling: 0.6,
            kernels: Vec::new(),
        }
    }

    /// Adds a ship; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the ship's speed is not positive, or if the scene's wave
    /// model has a `water_depth` or `reference_distance` that is not
    /// positive. The ship's wave-train constants are computed here, so a
    /// bad model panics when the ship is added rather than at the first
    /// evaluation.
    pub fn add_ship(&mut self, ship: Ship) -> usize {
        self.kernels.push(ShipKernel::new(&ship, &self.wave_model));
        self.ships.push(ship);
        self.ships.len() - 1
    }

    /// The ships in the scene.
    pub fn ships(&self) -> &[Ship] {
        &self.ships
    }

    /// The ambient sea.
    pub fn sea(&self) -> &SeaState {
        &self.sea
    }

    /// The ship-wave model.
    pub fn wave_model(&self) -> &ShipWaveModel {
        &self.wave_model
    }

    /// Vertical water acceleration (m/s²) contributed by ship waves alone
    /// at `position`, `t`.
    pub fn ship_wave_acceleration(&self, position: Vec2, t: f64) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.vertical_acceleration(&self.wave_model, position, t))
            .sum()
    }

    /// Total water acceleration `[ax, ay, az]` (m/s², gravity *not*
    /// included) at `position`, `t`.
    pub fn acceleration(&self, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = self.sea.acceleration(position, t);
        let ship_az = self.ship_wave_acceleration(position, t);
        a[2] += ship_az;
        // Divergent waves propagate ~ perpendicular to the sailing line;
        // approximate the horizontal orbital component as an isotropic
        // fraction split between axes.
        let h = self.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
        a[0] += h;
        a[1] += h;
        a
    }

    /// Ground-truth passage events at `position`: one per ship whose wave
    /// train reaches the point within `[0, horizon]` seconds.
    pub fn passage_events(&self, position: Vec2, horizon: f64) -> Vec<PassageEvent> {
        self.kernels
            .iter()
            .enumerate()
            .filter_map(|(i, k)| {
                let (g, train) = k.train_at(&self.wave_model, position)?;
                let arrival = g.time_of_cpa + train.arrival_delay;
                if arrival < 0.0 || arrival > horizon {
                    return None;
                }
                Some(PassageEvent {
                    ship_index: i,
                    time_of_cpa: g.time_of_cpa,
                    arrival_time: arrival,
                    duration: train.duration,
                    lateral: g.lateral,
                    side: g.side,
                    peak_height: train.divergent_height,
                })
            })
            .collect()
    }

    /// Batched [`Scene::acceleration`]: `n` uniform samples `dt` apart
    /// from `t0` at a fixed `position`.
    ///
    /// The ambient sea advances by phase recurrence
    /// ([`SeaState::accumulate_block`]) and each ship's wave-train
    /// geometry is computed once per block instead of once per sample, so
    /// the whole evaluation does O(components + ships) trigonometry per
    /// resync window rather than per sample. Agrees with the pointwise
    /// path to ~1e-12 relative (see the block-accuracy tests).
    pub fn acceleration_block(&self, position: Vec2, t0: f64, dt: f64, n: usize) -> Vec<[f64; 3]> {
        let mut out = self.sea.acceleration_block(position, t0, dt, n);
        // The trains depend only on the position, not the sample time.
        let trains: Vec<_> = self
            .kernels
            .iter()
            .filter_map(|k| k.train_at(&self.wave_model, position))
            .map(|(g, train)| (g.time_of_cpa, train))
            .collect();
        if trains.is_empty() {
            return out;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            let t = t0 + i as f64 * dt;
            let ship_az: f64 = trains
                .iter()
                .map(|(cpa, train)| {
                    let rel = t - cpa;
                    if train.is_active(rel) {
                        train.vertical_acceleration(rel)
                    } else {
                        0.0
                    }
                })
                .sum();
            slot[2] += ship_az;
            let h = self.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
            slot[0] += h;
            slot[1] += h;
        }
        out
    }

    /// Batched [`Scene::sample_acceleration`]: the same `(ax, ay, az)`
    /// series via block synthesis.
    #[allow(clippy::type_complexity)]
    pub fn sample_acceleration_block(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let block = self.acceleration_block(position, t0, 1.0 / sample_rate, n);
        let mut ax = Vec::with_capacity(n);
        let mut ay = Vec::with_capacity(n);
        let mut az = Vec::with_capacity(n);
        for a in block {
            ax.push(a[0]);
            ay.push(a[1]);
            az.push(a[2]);
        }
        (ax, ay, az)
    }

    /// Samples the three-axis water acceleration at `position` into uniform
    /// series (`sample_rate` Hz, `n` samples from `t0`): returns
    /// `(ax, ay, az)` vectors.
    #[allow(clippy::type_complexity)]
    pub fn sample_acceleration(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut ax = Vec::with_capacity(n);
        let mut ay = Vec::with_capacity(n);
        let mut az = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.acceleration(position, t0 + i as f64 / sample_rate);
            ax.push(a[0]);
            ay.push(a[1]);
            az.push(a[2]);
        }
        (ax, ay, az)
    }
}

/// Rejects a deserialized scene that could not be evaluated: the
/// conditions [`Scene::add_ship`] panics on, plus a non-finite ship speed.
fn check_scene(model: &ShipWaveModel, ships: &[Ship]) -> Result<(), serde::Error> {
    let reject = |msg: String| Err(serde::Error::custom(format!("Scene: {msg}")));
    // Written so that NaN fails too.
    let positive = |x: f64| x > 0.0;
    if !positive(model.water_depth) {
        return reject(format!(
            "water_depth must be positive, got {}",
            model.water_depth
        ));
    }
    if !positive(model.reference_distance) {
        return reject(format!(
            "reference_distance must be positive, got {}",
            model.reference_distance
        ));
    }
    for (i, ship) in ships.iter().enumerate() {
        let speed = ship.speed_mps();
        if !(positive(speed) && speed.is_finite()) {
            return reject(format!(
                "ship {i}: speed must be positive and finite, got {}",
                ship.speed().value()
            ));
        }
    }
    Ok(())
}

impl Serialize for Scene {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("sea".to_string(), self.sea.to_value()),
            ("wave_model".to_string(), self.wave_model.to_value()),
            ("ships".to_string(), self.ships.to_value()),
            (
                "horizontal_coupling".to_string(),
                self.horizontal_coupling.to_value(),
            ),
        ])
    }
}

impl Deserialize for Scene {
    /// Reads the serialized fields and rebuilds the per-ship constants. A
    /// scene that [`Scene::add_ship`] would panic on is an error instead.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct Scene"))?;
        let sea = SeaState::from_value(serde::map_get(m, "sea")?)?;
        let wave_model = ShipWaveModel::from_value(serde::map_get(m, "wave_model")?)?;
        let ships = Vec::<Ship>::from_value(serde::map_get(m, "ships")?)?;
        let coupling = f64::from_value(serde::map_get(m, "horizontal_coupling")?)?;
        check_scene(&wave_model, &ships)?;
        let mut scene = Scene::new(sea, wave_model);
        scene.horizontal_coupling = coupling;
        for ship in ships {
            scene.add_ship(ship);
        }
        Ok(scene)
    }
}

/// The ship-wave formulas without the cached per-ship constants: each
/// sample rebuilds the heading vector and the whole wave train from the
/// public eq. 1–2 functions. The oracle tests require the cached kernel to
/// match these bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::kelvin::{cusp_arrival_delay, divergent_wave_omega};
    use crate::sea::reference as sea;

    /// [`Scene`]'s serialized form, as a derive writes it.
    #[derive(Serialize)]
    pub(super) struct SceneForm {
        sea: sea::Sea,
        wave_model: ShipWaveModel,
        ships: Vec<Ship>,
        horizontal_coupling: f64,
    }

    impl From<&Scene> for SceneForm {
        fn from(scene: &Scene) -> Self {
            SceneForm {
                sea: sea::Sea::from(&scene.sea),
                wave_model: scene.wave_model,
                ships: scene.ships.clone(),
                horizontal_coupling: scene.horizontal_coupling,
            }
        }
    }

    pub(super) fn track_geometry(ship: &Ship, point: Vec2) -> TrackGeometry {
        let u = Vec2::from_heading(ship.heading());
        let rel = point - ship.start();
        let along = rel.dot(u);
        let cross = u.cross(rel);
        TrackGeometry {
            lateral: cross.abs(),
            side: if cross > 0.0 {
                1
            } else if cross < 0.0 {
                -1
            } else {
                0
            },
            time_of_cpa: along / ship.speed_mps(),
        }
    }

    pub(super) fn wave_train(model: &ShipWaveModel, speed: f64, lateral: f64) -> WaveTrain {
        WaveTrain {
            arrival_delay: cusp_arrival_delay(lateral, speed),
            divergent_height: model.divergent_height(speed, lateral),
            transverse_height: model.transverse_height(speed, lateral),
            omega: divergent_wave_omega(speed, model.froude(speed)),
            duration: model.duration(lateral),
        }
    }

    pub(super) fn ship_wave_acceleration(scene: &Scene, position: Vec2, t: f64) -> f64 {
        scene
            .ships
            .iter()
            .map(|ship| {
                let g = track_geometry(ship, position);
                if g.lateral < 1e-6 {
                    return 0.0;
                }
                let train = wave_train(&scene.wave_model, ship.speed_mps(), g.lateral);
                let dt = t - g.time_of_cpa;
                if train.is_active(dt) {
                    train.vertical_acceleration(dt)
                } else {
                    0.0
                }
            })
            .sum()
    }

    pub(super) fn acceleration(scene: &Scene, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = sea::acceleration(&scene.sea, position, t);
        let ship_az = ship_wave_acceleration(scene, position, t);
        a[2] += ship_az;
        let h = scene.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
        a[0] += h;
        a[1] += h;
        a
    }

    pub(super) fn passage_events(scene: &Scene, position: Vec2, horizon: f64) -> Vec<PassageEvent> {
        scene
            .ships
            .iter()
            .enumerate()
            .filter_map(|(i, ship)| {
                let g = track_geometry(ship, position);
                if g.lateral < 1e-6 {
                    return None;
                }
                let train = wave_train(&scene.wave_model, ship.speed_mps(), g.lateral);
                let arrival = g.time_of_cpa + train.arrival_delay;
                if arrival < 0.0 || arrival > horizon {
                    return None;
                }
                Some(PassageEvent {
                    ship_index: i,
                    time_of_cpa: g.time_of_cpa,
                    arrival_time: arrival,
                    duration: train.duration,
                    lateral: g.lateral,
                    side: g.side,
                    peak_height: train.divergent_height,
                })
            })
            .collect()
    }

    pub(super) fn acceleration_block(
        scene: &Scene,
        position: Vec2,
        t0: f64,
        dt: f64,
        n: usize,
    ) -> Vec<[f64; 3]> {
        let mut out = vec![[0.0f64; 3]; n];
        sea::accumulate_block(&scene.sea, position, t0, dt, &mut out);
        let trains: Vec<_> = scene
            .ships
            .iter()
            .filter_map(|ship| {
                let g = track_geometry(ship, position);
                if g.lateral < 1e-6 {
                    return None;
                }
                let train = wave_train(&scene.wave_model, ship.speed_mps(), g.lateral);
                Some((g.time_of_cpa, train))
            })
            .collect();
        if trains.is_empty() {
            return out;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            let t = t0 + i as f64 * dt;
            let ship_az: f64 = trains
                .iter()
                .map(|(cpa, train)| {
                    let rel = t - cpa;
                    if train.is_active(rel) {
                        train.vertical_acceleration(rel)
                    } else {
                        0.0
                    }
                })
                .sum();
            slot[2] += ship_az;
            let h = scene.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
            slot[0] += h;
            slot[1] += h;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sea::reference::{random_sea, same_bits};
    use crate::spectrum::WaveSpectrum;
    use crate::units::{Angle, Knots};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quiet_scene(seed: u64) -> Scene {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 64, &mut rng);
        Scene::new(sea, ShipWaveModel::default())
    }

    fn crossing_ship() -> Ship {
        // Passes x=0 at t = 500/5.14 ≈ 97 s, 25 m south of the origin buoy.
        Ship::new(
            Vec2::new(-500.0, -25.0),
            Angle::from_degrees(0.0),
            Knots::new(10.0),
        )
    }

    #[test]
    fn empty_scene_is_pure_sea() {
        let scene = quiet_scene(1);
        let p = Vec2::new(10.0, 10.0);
        let sea_a = scene.sea().acceleration(p, 50.0);
        let scene_a = scene.acceleration(p, 50.0);
        assert_eq!(sea_a, scene_a);
        assert_eq!(scene.ship_wave_acceleration(p, 50.0), 0.0);
        assert!(scene.passage_events(p, 1000.0).is_empty());
    }

    #[test]
    fn ship_wave_appears_at_predicted_time() {
        let mut scene = quiet_scene(2);
        scene.add_ship(crossing_ship());
        let p = Vec2::ZERO;
        let events = scene.passage_events(p, 1000.0);
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert!((ev.lateral - 25.0).abs() < 1e-9);
        // Wave energy near the arrival time, none long before.
        let near: f64 = (0..60)
            .map(|i| {
                scene
                    .ship_wave_acceleration(p, ev.arrival_time - 3.0 + i as f64 * 0.1)
                    .abs()
            })
            .fold(0.0, f64::max);
        let before: f64 = (0..60)
            .map(|i| scene.ship_wave_acceleration(p, 10.0 + i as f64 * 0.1).abs())
            .fold(0.0, f64::max);
        assert!(near > 0.01, "no wave energy near arrival: {near}");
        assert_eq!(before, 0.0);
    }

    #[test]
    fn events_outside_horizon_are_dropped() {
        let mut scene = quiet_scene(3);
        scene.add_ship(crossing_ship());
        assert!(scene.passage_events(Vec2::ZERO, 10.0).is_empty());
        assert_eq!(scene.passage_events(Vec2::ZERO, 1000.0).len(), 1);
    }

    #[test]
    fn closer_points_see_bigger_waves_sooner() {
        let mut scene = quiet_scene(4);
        scene.add_ship(crossing_ship());
        let near = &scene.passage_events(Vec2::new(0.0, 0.0), 1e4)[0]; // 25 m
        let far = &scene.passage_events(Vec2::new(0.0, 50.0), 1e4)[0]; // 75 m
        assert!(near.peak_height > far.peak_height);
        assert!(near.arrival_time < far.arrival_time);
        assert!(far.duration >= near.duration);
    }

    #[test]
    fn two_ships_superpose() {
        let mut scene = quiet_scene(5);
        scene.add_ship(crossing_ship());
        scene.add_ship(Ship::new(
            Vec2::new(-500.0, 40.0),
            Angle::from_degrees(0.0),
            Knots::new(16.0),
        ));
        let events = scene.passage_events(Vec2::ZERO, 1e4);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ship_index, 0);
        assert_eq!(events[1].ship_index, 1);
    }

    #[test]
    fn point_on_track_is_skipped() {
        let mut scene = quiet_scene(6);
        scene.add_ship(Ship::new(
            Vec2::new(-500.0, 0.0),
            Angle::from_degrees(0.0),
            Knots::new(10.0),
        ));
        // Exactly on the sailing line: no wake contribution (the model is
        // about lateral wave propagation).
        assert!(scene.passage_events(Vec2::ZERO, 1e4).is_empty());
        assert_eq!(scene.ship_wave_acceleration(Vec2::ZERO, 100.0), 0.0);
    }

    #[test]
    fn sampled_series_matches_pointwise() {
        let mut scene = quiet_scene(7);
        scene.add_ship(crossing_ship());
        let (ax, ay, az) = scene.sample_acceleration(Vec2::ZERO, 90.0, 50.0, 100);
        assert_eq!(ax.len(), 100);
        let direct = scene.acceleration(Vec2::ZERO, 90.0 + 42.0 / 50.0);
        assert_eq!(ax[42], direct[0]);
        assert_eq!(ay[42], direct[1]);
        assert_eq!(az[42], direct[2]);
    }

    #[test]
    fn block_series_matches_pointwise_through_a_passage() {
        // Block synthesis across the wave-train arrival window: the ship
        // ramp must switch on at exactly the same samples as pointwise.
        let mut scene = quiet_scene(9);
        scene.add_ship(crossing_ship());
        let p = Vec2::ZERO;
        let ev = scene.passage_events(p, 1e4)[0];
        let t0 = ev.arrival_time - 30.0;
        let n = 60 * 50;
        let (ax, ay, az) = scene.sample_acceleration_block(p, t0, 50.0, n);
        let scale = scene.sea().vertical_accel_rms().max(1.0);
        for i in (0..n).step_by(7) {
            let direct = scene.acceleration(p, t0 + i as f64 / 50.0);
            assert!((ax[i] - direct[0]).abs() < 1e-10 * scale, "ax sample {i}");
            assert!((ay[i] - direct[1]).abs() < 1e-10 * scale, "ay sample {i}");
            assert!((az[i] - direct[2]).abs() < 1e-10 * scale, "az sample {i}");
        }
    }

    #[test]
    fn ship_wave_detectable_above_calm_sea() {
        // At 25 m from a 10 kn ship in a calm sea, the wave-train vertical
        // acceleration should rival or exceed the ambient RMS — that is
        // what makes detection possible at the paper's D = 25 m.
        let mut scene = quiet_scene(8);
        scene.add_ship(crossing_ship());
        let ev = scene.passage_events(Vec2::ZERO, 1e4)[0];
        let peak: f64 = (0..100)
            .map(|i| {
                scene
                    .ship_wave_acceleration(Vec2::ZERO, ev.arrival_time - 2.5 + i as f64 * 0.05)
                    .abs()
            })
            .fold(0.0, f64::max);
        let ambient = scene.sea().vertical_accel_rms();
        assert!(
            peak > 0.5 * ambient,
            "peak {peak} vs ambient rms {ambient}"
        );
    }

    /// A seeded scene: a random sea of `n` components, a random wave model
    /// (water depths down to 5 m, so some ships run supercritical) and
    /// `n_ships` ships, every other one with sway.
    fn random_scene(seed: u64, n: usize, n_ships: usize) -> Scene {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EA5);
        let model = ShipWaveModel {
            height_coefficient: rng.gen_range(0.1..0.5),
            water_depth: rng.gen_range(5.0..100.0),
            duration_at_reference: rng.gen_range(1.0..4.0),
            reference_distance: rng.gen_range(10.0..50.0),
            duration_growth: rng.gen_range(0.0..0.01),
            transverse_fraction: rng.gen_range(0.0..0.6),
        };
        let mut scene = Scene::new(random_sea(seed, n), model);
        for i in 0..n_ships {
            let ship = Ship::new(
                Vec2::new(
                    rng.gen_range(-1500.0..1500.0),
                    rng.gen_range(-1500.0..1500.0),
                ),
                Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                Knots::new(rng.gen_range(2.0..40.0)),
            );
            scene.add_ship(if i % 2 == 1 {
                ship.with_random_sway(5.0, &mut rng)
            } else {
                ship
            });
        }
        scene
    }

    /// Probe points: one random, and per ship one exactly on its track and
    /// one a hair (0–3 µm) off it, straddling the on-track cut at 1 µm.
    fn probes(scene: &Scene, rng: &mut StdRng) -> Vec<Vec2> {
        let mut out = vec![Vec2::new(
            rng.gen_range(-1000.0..1000.0),
            rng.gen_range(-1000.0..1000.0),
        )];
        for ship in scene.ships() {
            let u = Vec2::from_heading(ship.heading());
            let on = ship.start() + u.scale(rng.gen_range(-500.0..1500.0));
            out.push(on);
            out.push(on + Vec2::new(-u.y, u.x).scale(rng.gen_range(0.0..3e-6)));
        }
        out
    }

    /// Sample times at `p`: one random, and per ship one drawn from ±2.5
    /// packet durations about its arrival, so both sides of the ±1.5
    /// `is_active` window are hit.
    fn times(scene: &Scene, p: Vec2, rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![rng.gen_range(0.0..4000.0)];
        for ship in scene.ships() {
            let g = reference::track_geometry(ship, p);
            if g.lateral >= 1e-6 {
                let train = reference::wave_train(scene.wave_model(), ship.speed_mps(), g.lateral);
                let f = rng.gen_range(-2.5..2.5);
                out.push(g.time_of_cpa + train.arrival_delay + f * train.duration);
            }
        }
        out
    }

    fn same_events(a: &[PassageEvent], b: &[PassageEvent]) -> bool {
        let bits = |e: &PassageEvent| {
            (
                e.ship_index,
                e.side,
                [
                    e.time_of_cpa,
                    e.arrival_time,
                    e.duration,
                    e.lateral,
                    e.peak_height,
                ]
                .map(f64::to_bits),
            )
        };
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
    }

    proptest! {
        /// The per-ship kernel reproduces the uncached formulas bit for
        /// bit on every scene path, before and after a serialization round
        /// trip, and the scene serializes to exactly what a derive writes.
        #[test]
        fn cached_kernel_matches_reference_bits(
            seed in 0u64..1_000_000,
            n in 1usize..=128,
            n_ships in 0usize..=4,
            horizon in 0.0..4000.0f64,
        ) {
            let scene = random_scene(seed, n, n_ships);
            let value = scene.to_value();
            prop_assert!(value == reference::SceneForm::from(&scene).to_value());
            let back = Scene::from_value(&value).expect("round trip");
            prop_assert!(back == scene);
            let mut rng = StdRng::seed_from_u64(seed);
            for p in probes(&scene, &mut rng) {
                let want_events = reference::passage_events(&scene, p, horizon);
                let ts = times(&scene, p, &mut rng);
                let t0 = ts[ts.len() - 1] - 2.0;
                let want_block = reference::acceleration_block(&scene, p, t0, 0.02, 300);
                for s in [&scene, &back] {
                    prop_assert!(same_events(&s.passage_events(p, horizon), &want_events));
                    for &t in &ts {
                        prop_assert_eq!(
                            s.ship_wave_acceleration(p, t).to_bits(),
                            reference::ship_wave_acceleration(&scene, p, t).to_bits()
                        );
                        prop_assert!(same_bits(s.acceleration(p, t), reference::acceleration(&scene, p, t)));
                    }
                    let block = s.acceleration_block(p, t0, 0.02, 300);
                    prop_assert!(block.iter().zip(&want_block).all(|(a, b)| same_bits(*a, *b)));
                }
            }
        }
    }

    #[test]
    fn serialized_scene_keeps_its_fields() {
        let mut scene = quiet_scene(10);
        scene.add_ship(crossing_ship());
        let value = scene.to_value();
        let keys = |v: &Value| -> Vec<String> {
            v.as_map()
                .expect("map")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let field =
            |v: &Value, name: &str| serde::map_get(v.as_map().unwrap(), name).unwrap().clone();
        assert_eq!(
            keys(&value),
            ["sea", "wave_model", "ships", "horizontal_coupling"]
        );
        let sea = field(&value, "sea");
        assert_eq!(keys(&sea), ["components", "spectrum", "mean_direction"]);
        let components = field(&sea, "components");
        assert_eq!(
            keys(&components.as_seq().unwrap()[0]),
            ["amplitude", "omega", "wavenumber", "direction", "phase"]
        );
    }

    /// `scene` serialized, with field `key` set to `new` in the wave model
    /// (`ship` is `None`) or in ship `i` (`Some(i)`).
    fn edited(scene: &Scene, ship: Option<usize>, key: &str, new: Value) -> Value {
        fn set(v: &mut Value, key: &str, new: Value) {
            let Value::Map(entries) = v else {
                panic!("expected a map")
            };
            let slot = entries.iter_mut().find(|(k, _)| k == key).expect("key");
            slot.1 = new;
        }
        let mut value = scene.to_value();
        let Value::Map(top) = &mut value else {
            panic!("expected a map")
        };
        for (k, v) in top.iter_mut() {
            match (k.as_str(), ship, v) {
                ("wave_model", None, v) => set(v, key, new.clone()),
                ("ships", Some(i), Value::Seq(ships)) => set(&mut ships[i], key, new.clone()),
                _ => {}
            }
        }
        value
    }

    fn rejection(value: &Value) -> String {
        Scene::from_value(value)
            .expect_err("a scene that cannot be evaluated must not deserialize")
            .to_string()
    }

    fn one_ship_scene() -> Scene {
        let mut scene = quiet_scene(11);
        scene.add_ship(crossing_ship());
        scene
    }

    #[test]
    fn deserialize_rejects_a_negative_ship_speed() {
        let value = edited(&one_ship_scene(), Some(0), "speed", Value::F64(-3.0));
        assert!(rejection(&value).contains("speed"));
    }

    #[test]
    fn deserialize_rejects_a_zero_ship_speed() {
        let value = edited(&one_ship_scene(), Some(0), "speed", Value::I64(0));
        assert!(rejection(&value).contains("speed"));
    }

    #[test]
    fn deserialize_rejects_a_non_finite_ship_speed() {
        let scene = one_ship_scene();
        for bad in [Value::F64(f64::INFINITY), Value::Null] {
            assert!(rejection(&edited(&scene, Some(0), "speed", bad)).contains("speed"));
        }
    }

    #[test]
    fn deserialize_rejects_a_zero_water_depth() {
        let value = edited(&one_ship_scene(), None, "water_depth", Value::I64(0));
        assert!(rejection(&value).contains("water_depth"));
        // Also with no ship to evaluate.
        let value = edited(&quiet_scene(12), None, "water_depth", Value::I64(0));
        assert!(rejection(&value).contains("water_depth"));
    }

    #[test]
    fn deserialize_rejects_a_zero_reference_distance() {
        let value = edited(&one_ship_scene(), None, "reference_distance", Value::I64(0));
        assert!(rejection(&value).contains("reference_distance"));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn add_ship_panics_at_once_on_a_bad_model() {
        let mut rng = StdRng::seed_from_u64(13);
        let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 8, &mut rng);
        let model = ShipWaveModel {
            water_depth: 0.0,
            ..ShipWaveModel::default()
        };
        Scene::new(sea, model).add_ship(crossing_ship());
    }
}
