//! Ships and their trajectories through the monitored field.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::units::{Angle, Knots, Vec2};

/// A ship on a (nominally) straight course at constant speed.
///
/// Real ship tracks wobble with the sea — the paper cites this as one of
/// its two speed-estimation error sources — so an optional sinusoidal sway
/// perturbs the nominal track laterally.
///
/// # Examples
///
/// ```
/// use sid_ocean::{Angle, Knots, Ship, Vec2};
///
/// let ship = Ship::new(Vec2::new(-200.0, 30.0), Angle::from_degrees(0.0), Knots::new(10.0));
/// let p = ship.position(10.0);
/// assert!(p.x > -200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ship {
    start: Vec2,
    heading: Angle,
    speed: Knots,
    sway_amplitude: f64,
    sway_period: f64,
    sway_phase: f64,
}

impl Ship {
    /// Creates a ship at `start` with the given heading and speed and no
    /// track sway.
    ///
    /// # Panics
    ///
    /// Panics if the speed is not positive.
    pub fn new(start: Vec2, heading: Angle, speed: Knots) -> Self {
        assert!(speed.value() > 0.0, "ship speed must be positive");
        Ship {
            start,
            heading,
            speed,
            sway_amplitude: 0.0,
            sway_period: 30.0,
            sway_phase: 0.0,
        }
    }

    /// Adds lateral track sway of the given amplitude (m) and period (s),
    /// returning the modified ship.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive or `amplitude` is negative.
    pub fn with_sway(mut self, amplitude: f64, period: f64, phase: f64) -> Self {
        assert!(period > 0.0, "sway period must be positive");
        assert!(amplitude >= 0.0, "sway amplitude must be non-negative");
        self.sway_amplitude = amplitude;
        self.sway_period = period;
        self.sway_phase = phase;
        self
    }

    /// Adds randomised sway drawn from `rng` (amplitude up to `max_amp` m).
    pub fn with_random_sway<R: Rng + ?Sized>(self, max_amp: f64, rng: &mut R) -> Self {
        let amp = rng.gen_range(0.0..=max_amp.max(1e-9));
        let period = rng.gen_range(20.0..60.0);
        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        self.with_sway(amp, period, phase)
    }

    /// Starting position.
    pub fn start(&self) -> Vec2 {
        self.start
    }

    /// Nominal heading.
    pub fn heading(&self) -> Angle {
        self.heading
    }

    /// Cruise speed.
    pub fn speed(&self) -> Knots {
        self.speed
    }

    /// Cruise speed in m/s.
    pub fn speed_mps(&self) -> f64 {
        self.speed.to_mps()
    }

    /// Position at time `t` seconds after the start of the scenario.
    pub fn position(&self, t: f64) -> Vec2 {
        let u = Vec2::from_heading(self.heading);
        let n = Vec2::new(-u.y, u.x); // left normal
        let sway = if self.sway_amplitude > 0.0 {
            self.sway_amplitude
                * (std::f64::consts::TAU * t / self.sway_period + self.sway_phase).sin()
        } else {
            0.0
        };
        self.start + u.scale(self.speed_mps() * t) + n.scale(sway)
    }

    /// Geometry of this ship's track relative to a fixed `point`, ignoring
    /// sway (the nominal straight sailing line).
    pub fn track_geometry(&self, point: Vec2) -> TrackGeometry {
        TrackGeometry::of_line(
            self.start,
            Vec2::from_heading(self.heading),
            self.speed_mps(),
            point,
        )
    }
}

/// Relation between a ship's sailing line and a fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackGeometry {
    /// Unsigned lateral distance from the sailing line (m).
    pub lateral: f64,
    /// +1 port, −1 starboard, 0 on the line.
    pub side: i8,
    /// Time (s, from scenario start) at which the ship passes closest.
    pub time_of_cpa: f64,
}

impl TrackGeometry {
    /// Geometry of `point` relative to the line sailed from `start` along
    /// the unit vector `heading` at `speed` m/s.
    pub(crate) fn of_line(start: Vec2, heading: Vec2, speed: f64, point: Vec2) -> Self {
        let rel = point - start;
        let along = rel.dot(heading);
        let cross = heading.cross(rel);
        TrackGeometry {
            lateral: cross.abs(),
            side: if cross > 0.0 {
                1
            } else if cross < 0.0 {
                -1
            } else {
                0
            },
            time_of_cpa: along / speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn straight_track_kinematics() {
        let ship = Ship::new(Vec2::ZERO, Angle::from_degrees(0.0), Knots::new(10.0));
        let p = ship.position(10.0);
        assert!((p.x - 10.0 * ship.speed_mps()).abs() < 1e-9);
        assert!(p.y.abs() < 1e-12);
    }

    #[test]
    fn heading_rotates_track() {
        let ship = Ship::new(Vec2::ZERO, Angle::from_degrees(90.0), Knots::new(10.0));
        let p = ship.position(5.0);
        assert!(p.x.abs() < 1e-9);
        assert!(p.y > 0.0);
    }

    #[test]
    #[should_panic(expected = "ship speed must be positive")]
    fn rejects_zero_speed() {
        Ship::new(Vec2::ZERO, Angle::from_degrees(0.0), Knots::new(0.0));
    }

    #[test]
    fn sway_perturbs_laterally_only() {
        let base = Ship::new(Vec2::ZERO, Angle::from_degrees(0.0), Knots::new(10.0));
        let swayed = base.with_sway(2.0, 30.0, 0.0);
        for &t in &[3.0, 7.5, 12.0] {
            let p0 = base.position(t);
            let p1 = swayed.position(t);
            assert!((p0.x - p1.x).abs() < 1e-9, "sway must not change along-track");
            assert!((p0.y - p1.y).abs() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn track_geometry_lateral_and_cpa() {
        let ship = Ship::new(Vec2::new(-100.0, 0.0), Angle::from_degrees(0.0), Knots::new(10.0));
        let g = ship.track_geometry(Vec2::new(0.0, 25.0));
        assert!((g.lateral - 25.0).abs() < 1e-9);
        assert_eq!(g.side, 1);
        assert!((g.time_of_cpa - 100.0 / ship.speed_mps()).abs() < 1e-9);
        let g2 = ship.track_geometry(Vec2::new(0.0, -25.0));
        assert_eq!(g2.side, -1);
    }

    #[test]
    fn random_sway_is_bounded_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let ship = Ship::new(Vec2::ZERO, Angle::from_degrees(0.0), Knots::new(12.0))
            .with_random_sway(2.0, &mut rng);
        assert!(ship.sway_amplitude <= 2.0);
        let mut rng2 = StdRng::seed_from_u64(5);
        let ship2 = Ship::new(Vec2::ZERO, Angle::from_degrees(0.0), Knots::new(12.0))
            .with_random_sway(2.0, &mut rng2);
        assert_eq!(ship, ship2);
    }

    #[test]
    fn diagonal_track_geometry() {
        // Ship heading 45°, point off to one side.
        let ship = Ship::new(Vec2::ZERO, Angle::from_degrees(45.0), Knots::new(10.0));
        let g = ship.track_geometry(Vec2::new(10.0, 0.0));
        // Lateral distance of (10,0) from the 45° line: 10·sin45 ≈ 7.07.
        assert!((g.lateral - 10.0 * (45.0f64.to_radians()).sin()).abs() < 1e-9);
        assert_eq!(g.side, -1);
    }
}
