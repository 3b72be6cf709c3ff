//! Ship-generated wave trains at a fixed observation point.
//!
//! This module turns the paper's Section II into a generative model: given
//! a ship's speed and a buoy's lateral distance from the sailing line, it
//! produces the wave train the buoy experiences — arrival time (Kelvin
//! cusp sweep), carrier frequency (eq. 2 + deep-water dispersion), peak
//! height with the `d^{-1/3}` divergent / `d^{-1/2}` transverse decay
//! (eq. 1 and Sorensen \[9\]\[10\]), and the short, finite duration the paper
//! observed ("the time lasts 2–3 seconds" at D = 25 m).

use serde::{Deserialize, Serialize};

use crate::dispersion::depth_froude_number;
use crate::kelvin::{divergent_wave_omega, kelvin_half_angle, wave_propagation_speed};
use crate::units::GRAVITY;

/// Tunable physical parameters of the ship-wave model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShipWaveModel {
    /// Dimensionless height coefficient: the eq. 1 constant is
    /// `c = height_coefficient · V² / g` (m^(4/3)), making wave height grow
    /// quadratically with speed as field studies report.
    pub height_coefficient: f64,
    /// Water depth in metres (sets the depth Froude number of eq. 2).
    pub water_depth: f64,
    /// Wave-train duration (s) observed at the reference distance.
    pub duration_at_reference: f64,
    /// Reference lateral distance (m) for `duration_at_reference`
    /// (the paper's D = 25 m).
    pub reference_distance: f64,
    /// Fractional duration growth per metre beyond the reference distance
    /// (frequency dispersion stretches the packet as it travels).
    pub duration_growth: f64,
    /// Ratio of transverse- to divergent-wave amplitude at the reference
    /// distance. Transverse waves decay as `d^{-1/2}` and so vanish first;
    /// the paper notes only divergent waves are seen far away.
    pub transverse_fraction: f64,
}

impl Default for ShipWaveModel {
    fn default() -> Self {
        ShipWaveModel {
            height_coefficient: 0.30,
            water_depth: 30.0,
            duration_at_reference: 2.5,
            reference_distance: 25.0,
            duration_growth: 0.004,
            transverse_fraction: 0.35,
        }
    }
}

/// The wave train a fixed point experiences from one ship passage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveTrain {
    /// Seconds after the ship's closest approach at which the train peaks
    /// at the observation point.
    pub arrival_delay: f64,
    /// Peak crest-to-trough wave height (m) of the divergent component,
    /// eq. 1.
    pub divergent_height: f64,
    /// Peak height (m) of the transverse component.
    pub transverse_height: f64,
    /// Carrier angular frequency (rad/s) of the divergent waves.
    pub omega: f64,
    /// Effective packet duration (s): the window within which the
    /// disturbance is above ~1/e of its peak.
    pub duration: f64,
}

impl WaveTrain {
    /// Surface elevation (m) contributed by the train at `dt` seconds after
    /// the ship's closest point of approach.
    pub fn elevation(&self, dt: f64) -> f64 {
        let tau = dt - self.arrival_delay;
        // Gaussian envelope with σ = duration/2 (±1σ ≈ the observed window).
        let sigma = self.duration / 2.0;
        let envelope = (-0.5 * (tau / sigma).powi(2)).exp();
        // Transverse waves trail the divergent packet slightly and carry a
        // lower frequency (phase speed = ship speed → ω_t = g/V < ω_d).
        let amp_d = 0.5 * self.divergent_height;
        let amp_t = 0.5 * self.transverse_height;
        let div = amp_d * envelope * (self.omega * tau).cos();
        let trans = amp_t * envelope * (0.75 * self.omega * tau + 0.9).cos();
        div + trans
    }

    /// Vertical acceleration (m/s²) contributed at `dt` seconds after CPA.
    ///
    /// Narrow-band approximation: `a ≈ −ω²·η`, accurate because the packet
    /// envelope varies far slower than the carrier.
    pub fn vertical_acceleration(&self, dt: f64) -> f64 {
        -self.omega * self.omega * self.elevation(dt)
    }

    /// Whether the train still has non-negligible energy at `dt` seconds
    /// after CPA (within ±3σ of the envelope peak).
    pub fn is_active(&self, dt: f64) -> bool {
        (dt - self.arrival_delay).abs() <= 1.5 * self.duration
    }
}

impl ShipWaveModel {
    /// The eq. 1 coefficient `c` (units m^(4/3)) for a ship at `speed` m/s.
    pub fn height_parameter(&self, speed: f64) -> f64 {
        self.height_coefficient * speed * speed / GRAVITY
    }

    /// Peak divergent-wave height (m) at `lateral` metres from the sailing
    /// line — the paper's eq. 1, `Hm = c·d^{-1/3}`.
    ///
    /// # Panics
    ///
    /// Panics if `lateral` is not positive.
    pub fn divergent_height(&self, speed: f64, lateral: f64) -> f64 {
        assert!(lateral > 0.0, "lateral distance must be positive");
        self.height_parameter(speed) * lateral.powf(-1.0 / 3.0)
    }

    /// Peak transverse-wave height (m) at `lateral` metres: decays as
    /// `d^{-1/2}` (Havelock \[9\]), normalised so the transverse component is
    /// `transverse_fraction` of the divergent one at the reference
    /// distance.
    ///
    /// # Panics
    ///
    /// Panics if `lateral` is not positive.
    pub fn transverse_height(&self, speed: f64, lateral: f64) -> f64 {
        assert!(lateral > 0.0, "lateral distance must be positive");
        let at_ref = self.transverse_fraction
            * self.divergent_height(speed, self.reference_distance);
        at_ref * (self.reference_distance / lateral).sqrt()
    }

    /// Packet duration (s) at `lateral` metres from the sailing line.
    pub fn duration(&self, lateral: f64) -> f64 {
        let extra = (lateral - self.reference_distance).max(0.0);
        self.duration_at_reference * (1.0 + self.duration_growth * extra)
    }

    /// Depth Froude number for a ship at `speed` m/s over this model's
    /// water depth.
    pub fn froude(&self, speed: f64) -> f64 {
        depth_froude_number(speed, self.water_depth)
    }

    /// Lateral propagation speed of the wave packet (paper eq. 2).
    pub fn wave_speed(&self, speed: f64) -> f64 {
        wave_propagation_speed(speed, self.froude(speed))
    }

    /// Builds the full wave train experienced at `lateral` metres from the
    /// sailing line of a ship travelling at `speed` m/s.
    ///
    /// # Panics
    ///
    /// Panics if `speed` or `lateral` is not positive, or if this model's
    /// `water_depth` or `reference_distance` is not positive.
    pub fn wave_train(&self, speed: f64, lateral: f64) -> WaveTrain {
        let constants = TrainConstants::new(self, speed);
        assert!(lateral > 0.0, "lateral distance must be positive");
        constants.train(self, lateral)
    }
}

/// The terms of a [`WaveTrain`] that depend only on the ship's speed and
/// the [`ShipWaveModel`], not on where the train is observed. A scene
/// computes them once per ship; each has the expression
/// [`ShipWaveModel::wave_train`] is defined by, so a train built from them
/// is bit-identical to one built from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrainConstants {
    /// `V·tan α`: the lateral rate at which the cusp locus sweeps outward,
    /// so the arrival delay at `d` is `d / cusp_speed`.
    cusp_speed: f64,
    /// The eq. 1 coefficient `c`.
    height_parameter: f64,
    /// Transverse-wave height (m) at the reference distance.
    transverse_at_reference: f64,
    /// Carrier angular frequency (rad/s): Froude number → eq. 2 → `g/Wv`.
    omega: f64,
}

impl TrainConstants {
    /// # Panics
    ///
    /// Panics if `speed` is not positive, or if `model`'s `water_depth` or
    /// `reference_distance` is not positive.
    pub(crate) fn new(model: &ShipWaveModel, speed: f64) -> Self {
        assert!(speed > 0.0, "ship speed must be positive");
        assert!(
            model.reference_distance > 0.0,
            "reference distance must be positive"
        );
        TrainConstants {
            cusp_speed: speed * kelvin_half_angle().tan(),
            height_parameter: model.height_parameter(speed),
            transverse_at_reference: model.transverse_fraction
                * model.divergent_height(speed, model.reference_distance),
            omega: divergent_wave_omega(speed, model.froude(speed)),
        }
    }

    /// The train at `lateral` metres with both heights left at zero. It
    /// answers [`WaveTrain::is_active`] without the `powf` and `sqrt` the
    /// heights cost; [`TrainConstants::train`] adds them.
    pub(crate) fn window(&self, model: &ShipWaveModel, lateral: f64) -> WaveTrain {
        WaveTrain {
            arrival_delay: lateral / self.cusp_speed,
            divergent_height: 0.0,
            transverse_height: 0.0,
            omega: self.omega,
            duration: model.duration(lateral),
        }
    }

    /// The full train at `lateral` metres (positive).
    pub(crate) fn train(&self, model: &ShipWaveModel, lateral: f64) -> WaveTrain {
        WaveTrain {
            divergent_height: self.height_parameter * lateral.powf(-1.0 / 3.0),
            transverse_height: self.transverse_at_reference
                * (model.reference_distance / lateral).sqrt(),
            ..self.window(model, lateral)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MPS_PER_KNOT;

    const TEN_KNOTS: f64 = 10.0 * MPS_PER_KNOT;
    const SIXTEEN_KNOTS: f64 = 16.0 * MPS_PER_KNOT;

    #[test]
    fn height_follows_cube_root_decay() {
        let m = ShipWaveModel::default();
        let h25 = m.divergent_height(TEN_KNOTS, 25.0);
        let h200 = m.divergent_height(TEN_KNOTS, 200.0);
        // d ×8 → height ×1/2 under d^{-1/3}.
        assert!((h25 / h200 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transverse_decays_faster_than_divergent() {
        let m = ShipWaveModel::default();
        let ratio_near = m.transverse_height(TEN_KNOTS, 25.0)
            / m.divergent_height(TEN_KNOTS, 25.0);
        let ratio_far = m.transverse_height(TEN_KNOTS, 400.0)
            / m.divergent_height(TEN_KNOTS, 400.0);
        assert!(ratio_far < ratio_near);
        // Far from the ship only divergent waves remain significant:
        // the ratio shrinks as (d_ref/d)^(1/6).
        assert!(ratio_far < 0.35 * (25.0f64 / 400.0).powf(1.0 / 6.0) + 1e-9);
    }

    #[test]
    fn faster_ship_makes_bigger_waves() {
        let m = ShipWaveModel::default();
        let slow = m.divergent_height(TEN_KNOTS, 25.0);
        let fast = m.divergent_height(SIXTEEN_KNOTS, 25.0);
        assert!((fast / slow - (16.0f64 / 10.0).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn wave_heights_are_physically_plausible() {
        let m = ShipWaveModel::default();
        let h = m.divergent_height(TEN_KNOTS, 25.0);
        // A fishing boat at 10 kn, 25 m off: decimetre-scale waves.
        assert!(h > 0.05 && h < 0.5, "h = {h}");
    }

    #[test]
    fn duration_at_reference_matches_paper_observation() {
        let m = ShipWaveModel::default();
        let d = m.duration(25.0);
        assert!((2.0..=3.0).contains(&d), "duration {d}");
        assert!(m.duration(100.0) > d);
        assert_eq!(m.duration(10.0), m.duration_at_reference);
    }

    #[test]
    fn train_carrier_period_is_two_to_three_seconds() {
        let m = ShipWaveModel::default();
        let train = m.wave_train(TEN_KNOTS, 25.0);
        let period = std::f64::consts::TAU / train.omega;
        assert!(period > 2.0 && period < 3.5, "period {period}");
    }

    #[test]
    fn train_envelope_peaks_at_arrival() {
        let m = ShipWaveModel::default();
        let train = m.wave_train(TEN_KNOTS, 25.0);
        let t = train.arrival_delay;
        // |elevation| near arrival far exceeds |elevation| well before.
        let near: f64 = (0..20)
            .map(|i| train.elevation(t - 1.0 + i as f64 * 0.1).abs())
            .fold(0.0, f64::max);
        let early: f64 = (0..20)
            .map(|i| train.elevation(t * 0.2 + i as f64 * 0.1).abs())
            .fold(0.0, f64::max);
        assert!(near > 10.0 * early.max(1e-12));
    }

    #[test]
    fn acceleration_is_minus_omega_squared_elevation() {
        let m = ShipWaveModel::default();
        let train = m.wave_train(SIXTEEN_KNOTS, 50.0);
        let dt = train.arrival_delay + 0.3;
        assert!(
            (train.vertical_acceleration(dt) + train.omega.powi(2) * train.elevation(dt)).abs()
                < 1e-12
        );
    }

    #[test]
    fn is_active_window_brackets_arrival() {
        let m = ShipWaveModel::default();
        let train = m.wave_train(TEN_KNOTS, 25.0);
        assert!(train.is_active(train.arrival_delay));
        assert!(!train.is_active(train.arrival_delay + 10.0 * train.duration));
        assert!(!train.is_active(0.0_f64.min(train.arrival_delay - 10.0 * train.duration)));
    }

    #[test]
    fn arrival_delay_grows_with_distance() {
        let m = ShipWaveModel::default();
        let near = m.wave_train(TEN_KNOTS, 25.0);
        let far = m.wave_train(TEN_KNOTS, 75.0);
        assert!(far.arrival_delay > 2.9 * near.arrival_delay);
    }

    #[test]
    #[should_panic(expected = "lateral distance must be positive")]
    fn rejects_zero_distance() {
        ShipWaveModel::default().divergent_height(5.0, 0.0);
    }
}
