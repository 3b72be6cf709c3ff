//! Random-sea synthesis: turns a [`WaveSpectrum`] into elevation and
//! acceleration time series at arbitrary surface points.
//!
//! The standard linear random-phase model: the sea is a sum of `N`
//! independent harmonic components whose amplitudes follow the spectrum
//! (`Aᵢ = √(2·S(ωᵢ)·Δω)`), with uniformly random phases and cos²-spread
//! directions. The same component set evaluated at different positions
//! yields the *spatially coherent* wave field the cluster-level correlation
//! experiments need — nearby buoys see correlated, time-shifted water.

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

use crate::dispersion::deep_wavenumber;
use crate::spectrum::WaveSpectrum;
use crate::units::Vec2;

/// One harmonic component of the synthesised sea.
///
/// The first five fields are the component and all it serializes. The
/// rest are derived from them once, at synthesis or deserialization, by
/// the same expressions a sample would otherwise evaluate: a sample costs
/// one phase and one `sincos` per component, and every product rounds as
/// if the constants were recomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeaComponent {
    amplitude: f64,
    omega: f64,
    wavenumber: f64,
    /// Propagation direction (radians from +x).
    direction: f64,
    phase: f64,
    /// `(cos d, sin d)`: the unit propagation direction.
    unit: Vec2,
    /// The wave vector, `unit · wavenumber`.
    k_vec: Vec2,
    /// `A·ω²`: the acceleration amplitude.
    aw2: f64,
}

impl SeaComponent {
    fn new(amplitude: f64, omega: f64, wavenumber: f64, direction: f64, phase: f64) -> Self {
        let unit = Vec2::new(direction.cos(), direction.sin());
        SeaComponent {
            amplitude,
            omega,
            wavenumber,
            direction,
            phase,
            unit,
            k_vec: unit.scale(wavenumber),
            aw2: amplitude * omega * omega,
        }
    }

    /// The component's phase at `position` and time `t`.
    #[inline]
    fn phase_at(&self, position: Vec2, t: f64) -> f64 {
        self.k_vec.dot(position) - self.omega * t + self.phase
    }
}

impl Serialize for SeaComponent {
    fn to_value(&self) -> Value {
        let field = |name: &str, x: f64| (name.to_string(), x.to_value());
        Value::Map(vec![
            field("amplitude", self.amplitude),
            field("omega", self.omega),
            field("wavenumber", self.wavenumber),
            field("direction", self.direction),
            field("phase", self.phase),
        ])
    }
}

impl Deserialize for SeaComponent {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct SeaComponent"))?;
        let field = |name: &str| -> Result<f64, serde::Error> {
            Deserialize::from_value(serde::map_get(m, name)?)
        };
        Ok(SeaComponent::new(
            field("amplitude")?,
            field("omega")?,
            field("wavenumber")?,
            field("direction")?,
            field("phase")?,
        ))
    }
}

/// A frozen realisation of a random sea.
///
/// Construct once (seeded), then evaluate [`SeaState::elevation`] and
/// [`SeaState::acceleration`] anywhere, at any time; evaluations are pure.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sid_ocean::{SeaState, WaveSpectrum, Vec2};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sea = SeaState::synthesize(WaveSpectrum::moderate_sea(), 128, &mut rng);
/// let eta = sea.elevation(Vec2::ZERO, 10.0);
/// assert!(eta.abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeaState {
    components: Vec<SeaComponent>,
    spectrum: WaveSpectrum,
    mean_direction: f64,
}

impl SeaState {
    /// Synthesises a sea realisation with `n_components` harmonics from the
    /// given spectrum, with the mean wave direction along +x.
    ///
    /// # Panics
    ///
    /// Panics if `n_components` is zero.
    pub fn synthesize<R: Rng + ?Sized>(
        spectrum: WaveSpectrum,
        n_components: usize,
        rng: &mut R,
    ) -> Self {
        Self::synthesize_with_direction(spectrum, n_components, 0.0, rng)
    }

    /// Synthesises a sea with the given mean propagation direction
    /// (radians from +x).
    ///
    /// # Panics
    ///
    /// Panics if `n_components` is zero.
    pub fn synthesize_with_direction<R: Rng + ?Sized>(
        spectrum: WaveSpectrum,
        n_components: usize,
        mean_direction: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n_components > 0, "need at least one component");
        let wp = spectrum.peak_omega();
        let (lo, hi) = (wp * 0.3, wp * 6.0);
        let dw = (hi - lo) / n_components as f64;
        let components = (0..n_components)
            .map(|i| {
                // Jitter each component inside its bin so the record is not
                // periodic with the bin spacing.
                let omega = lo + (i as f64 + rng.gen::<f64>()) * dw;
                let amplitude = (2.0 * spectrum.density(omega) * dw).sqrt();
                // cos²-spread direction about the mean: draw by rejection.
                let spread = loop {
                    let d: f64 = rng.gen_range(-std::f64::consts::FRAC_PI_2
                        ..std::f64::consts::FRAC_PI_2);
                    let p: f64 = rng.gen();
                    if p < d.cos().powi(2) {
                        break d;
                    }
                };
                SeaComponent::new(
                    amplitude,
                    omega,
                    deep_wavenumber(omega),
                    mean_direction + spread,
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        SeaState {
            components,
            spectrum,
            mean_direction,
        }
    }

    /// The spectrum this sea was synthesised from.
    pub fn spectrum(&self) -> &WaveSpectrum {
        &self.spectrum
    }

    /// Number of harmonic components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Sea-surface elevation (m) at `position` and time `t` (s).
    pub fn elevation(&self, position: Vec2, t: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.amplitude * c.phase_at(position, t).cos())
            .sum()
    }

    /// Surface water acceleration (m/s²) at `position` and time `t`:
    /// `(ax, ay, az)` where `az` is the vertical component a floating buoy
    /// heaves with and `(ax, ay)` the horizontal orbital components.
    pub fn acceleration(&self, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = [0.0f64; 3];
        for c in &self.components {
            let phi = c.phase_at(position, t);
            // Deep-water linear theory at the surface: vertical accel
            // −∂²η/∂t² in phase with −cos, horizontal 90° out of phase.
            a[2] -= c.aw2 * phi.cos();
            let h = c.aw2 * phi.sin();
            a[0] += h * c.unit.x;
            a[1] += h * c.unit.y;
        }
        a
    }

    /// Root-mean-square vertical acceleration (m/s²), analytic:
    /// `√(Σ (Aω²)²/2)`.
    pub fn vertical_accel_rms(&self) -> f64 {
        (self
            .components
            .iter()
            .map(|c| c.aw2.powi(2) / 2.0)
            .sum::<f64>())
        .sqrt()
    }

    /// Samples the vertical acceleration at one point into a uniform series
    /// (`sample_rate` Hz, `n` samples, starting at `t0`).
    pub fn sample_vertical_accel(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> Vec<f64> {
        (0..n)
            .map(|i| self.acceleration(position, t0 + i as f64 / sample_rate)[2])
            .collect()
    }

    /// Batched [`SeaState::acceleration`]: `n` uniform samples spaced `dt`
    /// seconds apart starting at `t0`, at a fixed `position`.
    ///
    /// Instead of fresh `sin`/`cos` per component per sample — the
    /// O(samples × components) trigonometry that dominates long sweeps —
    /// each harmonic advances by one complex rotation per step
    /// (`φ ← φ − ω·dt` via the angle-sum recurrence), with the exact
    /// phase re-evaluated every [`PHASE_RESYNC_STEPS`] steps so rounding
    /// drift stays below ~1e-12 relative over arbitrarily long records
    /// (bounded by the resync interval, not the record length).
    pub fn acceleration_block(&self, position: Vec2, t0: f64, dt: f64, n: usize) -> Vec<[f64; 3]> {
        let mut out = vec![[0.0f64; 3]; n];
        self.accumulate_block(position, t0, dt, &mut out);
        out
    }

    /// As [`SeaState::acceleration_block`], accumulating into `out`
    /// (`out.len()` samples) without allocating.
    pub fn accumulate_block(&self, position: Vec2, t0: f64, dt: f64, out: &mut [[f64; 3]]) {
        let n = out.len();
        for c in &self.components {
            let (rot_sin, rot_cos) = (-c.omega * dt).sin_cos();
            let mut start = 0;
            while start < n {
                let end = (start + PHASE_RESYNC_STEPS).min(n);
                let phi = c.phase_at(position, t0 + start as f64 * dt);
                let (mut sin, mut cos) = phi.sin_cos();
                for slot in &mut out[start..end] {
                    slot[2] -= c.aw2 * cos;
                    let h = c.aw2 * sin;
                    slot[0] += h * c.unit.x;
                    slot[1] += h * c.unit.y;
                    let next_sin = sin * rot_cos + cos * rot_sin;
                    cos = cos * rot_cos - sin * rot_sin;
                    sin = next_sin;
                }
                start = end;
            }
        }
    }

    /// Batched vertical acceleration at `sample_rate` Hz: the block
    /// counterpart of [`SeaState::sample_vertical_accel`].
    pub fn vertical_accel_block(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> Vec<f64> {
        self.acceleration_block(position, t0, 1.0 / sample_rate, n)
            .into_iter()
            .map(|a| a[2])
            .collect()
    }
}

/// How many phase-recurrence steps run between exact `sin`/`cos`
/// re-evaluations in the block synthesis paths. Each resync caps the
/// accumulated rounding error of the rotation recurrence at roughly
/// `PHASE_RESYNC_STEPS × ε`, i.e. ~3e-14, independent of record length.
pub const PHASE_RESYNC_STEPS: usize = 256;

/// The synthesis formulas without the cached per-component constants:
/// each sample recomputes the direction's cos and sin, the wave vector and
/// `Aω²` from the five stored fields. The oracle tests require the cached
/// kernel to match these bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use rand::SeedableRng;

    /// A component's serialized form: the five stored fields, as a derive
    /// writes them.
    #[derive(Serialize)]
    pub(crate) struct Component {
        amplitude: f64,
        omega: f64,
        wavenumber: f64,
        direction: f64,
        phase: f64,
    }

    /// [`SeaState`]'s serialized form, as a derive writes it.
    #[derive(Serialize)]
    pub(crate) struct Sea {
        components: Vec<Component>,
        spectrum: WaveSpectrum,
        mean_direction: f64,
    }

    impl From<&SeaState> for Sea {
        fn from(sea: &SeaState) -> Self {
            Sea {
                components: sea
                    .components
                    .iter()
                    .map(|c| Component {
                        amplitude: c.amplitude,
                        omega: c.omega,
                        wavenumber: c.wavenumber,
                        direction: c.direction,
                        phase: c.phase,
                    })
                    .collect(),
                spectrum: sea.spectrum,
                mean_direction: sea.mean_direction,
            }
        }
    }

    fn component_phase(c: &SeaComponent, position: Vec2, t: f64) -> f64 {
        let k_vec = Vec2::new(c.direction.cos(), c.direction.sin()).scale(c.wavenumber);
        k_vec.dot(position) - c.omega * t + c.phase
    }

    pub(crate) fn elevation(sea: &SeaState, position: Vec2, t: f64) -> f64 {
        sea.components
            .iter()
            .map(|c| c.amplitude * component_phase(c, position, t).cos())
            .sum()
    }

    pub(crate) fn acceleration(sea: &SeaState, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = [0.0f64; 3];
        for c in &sea.components {
            let phi = component_phase(c, position, t);
            let aw2 = c.amplitude * c.omega * c.omega;
            a[2] -= aw2 * phi.cos();
            let h = aw2 * phi.sin();
            a[0] += h * c.direction.cos();
            a[1] += h * c.direction.sin();
        }
        a
    }

    pub(crate) fn accumulate_block(
        sea: &SeaState,
        position: Vec2,
        t0: f64,
        dt: f64,
        out: &mut [[f64; 3]],
    ) {
        let n = out.len();
        for c in &sea.components {
            let (dir_sin, dir_cos) = c.direction.sin_cos();
            let aw2 = c.amplitude * c.omega * c.omega;
            let (rot_sin, rot_cos) = (-c.omega * dt).sin_cos();
            let mut start = 0;
            while start < n {
                let end = (start + PHASE_RESYNC_STEPS).min(n);
                let phi = component_phase(c, position, t0 + start as f64 * dt);
                let (mut sin, mut cos) = phi.sin_cos();
                for slot in &mut out[start..end] {
                    slot[2] -= aw2 * cos;
                    let h = aw2 * sin;
                    slot[0] += h * dir_cos;
                    slot[1] += h * dir_sin;
                    let next_sin = sin * rot_cos + cos * rot_sin;
                    cos = cos * rot_cos - sin * rot_sin;
                    sin = next_sin;
                }
                start = end;
            }
        }
    }

    /// A seeded sea of `n` components from one of three spectra, with a
    /// random mean direction.
    pub(crate) fn random_sea(seed: u64, n: usize) -> SeaState {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spectrum = match seed % 3 {
            0 => WaveSpectrum::calm_sea(),
            1 => WaveSpectrum::moderate_sea(),
            _ => WaveSpectrum::sheltered_harbor(),
        };
        let mean = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        SeaState::synthesize_with_direction(spectrum, n, mean, &mut rng)
    }

    /// Whether two samples agree bit for bit on every axis.
    pub(crate) fn same_bits(a: [f64; 3], b: [f64; 3]) -> bool {
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{random_sea, same_bits};
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_sea(seed: u64) -> SeaState {
        let mut rng = StdRng::seed_from_u64(seed);
        SeaState::synthesize(WaveSpectrum::moderate_sea(), 200, &mut rng)
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = test_sea(42);
        let b = test_sea(42);
        assert_eq!(a, b);
        let c = test_sea(43);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "need at least one component")]
    fn zero_components_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        SeaState::synthesize(WaveSpectrum::moderate_sea(), 0, &mut rng);
    }

    #[test]
    fn elevation_variance_matches_spectrum() {
        // Time-average variance over a long record ≈ m₀ = (Hs/4)².
        let sea = test_sea(1);
        let hs = sea.spectrum().significant_wave_height();
        let m0 = (hs / 4.0).powi(2);
        let n = 60_000;
        let var: f64 = (0..n)
            .map(|i| sea.elevation(Vec2::ZERO, i as f64 * 0.1))
            .map(|e| e * e)
            .sum::<f64>()
            / n as f64;
        assert!(
            (var - m0).abs() / m0 < 0.25,
            "var {var} vs m0 {m0} (random-phase realisation)"
        );
    }

    #[test]
    fn acceleration_is_second_derivative_of_elevation() {
        let sea = test_sea(2);
        let p = Vec2::new(3.0, -2.0);
        let t = 17.3;
        let h = 1e-3;
        let num = (sea.elevation(p, t + h) - 2.0 * sea.elevation(p, t)
            + sea.elevation(p, t - h))
            / (h * h);
        let a = sea.acceleration(p, t)[2];
        assert!((num - a).abs() < 1e-2 * a.abs().max(1.0), "{num} vs {a}");
    }

    #[test]
    fn accel_rms_matches_analytic() {
        let sea = test_sea(3);
        let analytic = sea.vertical_accel_rms();
        let n = 40_000;
        let ms: f64 = (0..n)
            .map(|i| sea.acceleration(Vec2::ZERO, i as f64 * 0.07)[2].powi(2))
            .sum::<f64>()
            / n as f64;
        let empirical = ms.sqrt();
        assert!(
            (empirical - analytic).abs() / analytic < 0.1,
            "{empirical} vs {analytic}"
        );
    }

    #[test]
    fn nearby_points_are_correlated_far_points_less() {
        let sea = test_sea(4);
        let n = 4000;
        let series = |p: Vec2| -> Vec<f64> {
            (0..n).map(|i| sea.elevation(p, i as f64 * 0.1)).collect()
        };
        let a = series(Vec2::ZERO);
        let near = series(Vec2::new(2.0, 0.0));
        let far = series(Vec2::new(500.0, 400.0));
        let corr = |x: &[f64], y: &[f64]| -> f64 {
            let mx = x.iter().sum::<f64>() / x.len() as f64;
            let my = y.iter().sum::<f64>() / y.len() as f64;
            let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
            let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
            let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
            cov / (vx * vy).sqrt()
        };
        assert!(corr(&a, &near) > 0.8);
        assert!(corr(&a, &far).abs() < 0.3);
    }

    #[test]
    fn sample_vertical_accel_length_and_rate() {
        let sea = test_sea(5);
        let s = sea.sample_vertical_accel(Vec2::ZERO, 0.0, 50.0, 500);
        assert_eq!(s.len(), 500);
        // Direct evaluation agrees.
        let direct = sea.acceleration(Vec2::ZERO, 3.0 / 50.0)[2];
        assert_eq!(s[3], direct);
    }

    #[test]
    fn acceleration_block_tracks_pointwise_evaluation() {
        let sea = test_sea(7);
        let p = Vec2::new(12.0, -7.5);
        let (t0, dt, n) = (3.25, 0.02, 2000);
        let block = sea.acceleration_block(p, t0, dt, n);
        assert_eq!(block.len(), n);
        let scale = sea.vertical_accel_rms();
        for (i, b) in block.iter().enumerate() {
            let direct = sea.acceleration(p, t0 + i as f64 * dt);
            for axis in 0..3 {
                assert!(
                    (b[axis] - direct[axis]).abs() < 1e-10 * scale.max(1.0),
                    "axis {axis} sample {i}: {} vs {}",
                    b[axis],
                    direct[axis]
                );
            }
        }
    }

    #[test]
    fn vertical_block_matches_sample_vertical_accel() {
        let sea = test_sea(8);
        let p = Vec2::new(-3.0, 9.0);
        let a = sea.sample_vertical_accel(p, 1.0, 50.0, 700);
        let b = sea.vertical_accel_block(p, 1.0, 50.0, 700);
        let scale = sea.vertical_accel_rms();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-10 * scale.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn block_resync_bounds_drift_at_chunk_edges() {
        // The worst recurrence drift sits just before a resync boundary;
        // check those samples specifically.
        let sea = test_sea(9);
        let p = Vec2::ZERO;
        let dt = 0.02;
        let n = 4 * PHASE_RESYNC_STEPS;
        let block = sea.acceleration_block(p, 0.0, dt, n);
        let scale = sea.vertical_accel_rms();
        for k in 1..=4 {
            let i = k * PHASE_RESYNC_STEPS - 1;
            let direct = sea.acceleration(p, i as f64 * dt)[2];
            assert!(
                (block[i][2] - direct).abs() < 1e-10 * scale.max(1.0),
                "boundary sample {i}"
            );
        }
    }

    #[test]
    fn dominant_period_near_spectral_peak() {
        // Count mean zero-crossing period of elevation; should be near
        // 2π/ω_p (within a factor reflecting spectral width).
        let sea = test_sea(6);
        let wp = sea.spectrum().peak_omega();
        let dt = 0.05;
        let n = 120_000;
        let mut crossings = 0;
        let mut prev = sea.elevation(Vec2::ZERO, 0.0);
        for i in 1..n {
            let e = sea.elevation(Vec2::ZERO, i as f64 * dt);
            if prev <= 0.0 && e > 0.0 {
                crossings += 1;
            }
            prev = e;
        }
        let mean_period = (n as f64 * dt) / crossings as f64;
        let peak_period = std::f64::consts::TAU / wp;
        assert!(
            mean_period > 0.4 * peak_period && mean_period < 1.6 * peak_period,
            "mean {mean_period} vs peak {peak_period}"
        );
    }

    proptest! {
        /// The cached kernel reproduces the uncached formulas bit for bit,
        /// before and after a serialization round trip, and serializes to
        /// exactly the fields and values a derive writes.
        #[test]
        fn cached_kernel_matches_reference_bits(
            seed in 0u64..1_000_000,
            n in 1usize..=128,
            (x, y) in (-2000.0..2000.0f64, -2000.0..2000.0f64),
            t in 0.0..4000.0f64,
            dt in 0.005..0.1f64,
            len in 1usize..=600,
        ) {
            let sea = random_sea(seed, n);
            let value = sea.to_value();
            prop_assert!(value == reference::Sea::from(&sea).to_value());
            let back = SeaState::from_value(&value).expect("round trip");
            prop_assert!(back == sea);
            let p = Vec2::new(x, y);
            for s in [&sea, &back] {
                prop_assert_eq!(
                    s.elevation(p, t).to_bits(),
                    reference::elevation(&sea, p, t).to_bits()
                );
                prop_assert!(same_bits(s.acceleration(p, t), reference::acceleration(&sea, p, t)));
                // Start from a non-zero record: the block adds, it does
                // not overwrite.
                let start: Vec<[f64; 3]> =
                    (0..len).map(|i| [i as f64, -0.5 * i as f64, 1.0]).collect();
                let mut got = start.clone();
                s.accumulate_block(p, t, dt, &mut got);
                let mut want = start;
                reference::accumulate_block(&sea, p, t, dt, &mut want);
                prop_assert!(got.iter().zip(&want).all(|(a, b)| same_bits(*a, *b)));
            }
        }
    }
}
