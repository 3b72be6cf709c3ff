//! Node energy budget.
//!
//! The paper's architecture argument (Section IV-A) — transmit extracted
//! features, not raw samples; let most nodes sleep; wake the cluster on a
//! coarse detection — is an energy argument. This module prices each
//! operation so the system simulation can account for it and the ablation
//! benches can quantify the savings.

use serde::{Deserialize, Serialize};

/// Energy prices for node operations, in millijoules.
///
/// Defaults approximate an iMote2-class node (PXA271 + CC2420-class radio):
/// radio ≈ 0.02 mJ/byte each way, a sample + its processing ≈ 0.01 mJ,
/// idle ≈ 1 mJ/s, deep sleep ≈ 0.01 mJ/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Cost of acquiring and processing one accelerometer sample (mJ).
    pub sample_mj: f64,
    /// Cost of transmitting one byte (mJ).
    pub tx_per_byte_mj: f64,
    /// Cost of receiving one byte (mJ).
    pub rx_per_byte_mj: f64,
    /// Idle (radio on, CPU idle) cost per second (mJ/s).
    pub idle_per_sec_mj: f64,
    /// Deep-sleep cost per second (mJ/s).
    pub sleep_per_sec_mj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            sample_mj: 0.01,
            tx_per_byte_mj: 0.02,
            rx_per_byte_mj: 0.02,
            idle_per_sec_mj: 1.0,
            sleep_per_sec_mj: 0.01,
        }
    }
}

/// A node's battery with consumption tracking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBudget {
    model: EnergyModel,
    capacity_mj: f64,
    consumed_mj: f64,
}

impl EnergyBudget {
    /// Creates a budget with the given capacity in millijoules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mj` is not positive.
    pub fn new(model: EnergyModel, capacity_mj: f64) -> Self {
        assert!(capacity_mj > 0.0, "capacity must be positive");
        EnergyBudget {
            model,
            capacity_mj,
            consumed_mj: 0.0,
        }
    }

    /// Two AA cells (~3 Wh ≈ 10.8 kJ) with the default price model.
    pub fn aa_pair() -> Self {
        EnergyBudget::new(EnergyModel::default(), 10_800_000.0)
    }

    /// The price model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Total energy consumed so far (mJ).
    pub fn consumed_mj(&self) -> f64 {
        self.consumed_mj
    }

    /// Remaining energy (mJ), clamped at zero.
    pub fn remaining_mj(&self) -> f64 {
        (self.capacity_mj - self.consumed_mj).max(0.0)
    }

    /// Whether the battery is exhausted.
    pub fn is_depleted(&self) -> bool {
        self.consumed_mj >= self.capacity_mj
    }

    /// Fraction of capacity remaining, in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining_mj() / self.capacity_mj
    }

    /// Charges for `n` samples.
    pub fn charge_samples(&mut self, n: u64) {
        self.consumed_mj += self.model.sample_mj * n as f64;
    }

    /// Charges for transmitting `bytes`.
    pub fn charge_tx(&mut self, bytes: usize) {
        self.consumed_mj += self.model.tx_per_byte_mj * bytes as f64;
    }

    /// Charges for receiving `bytes`.
    pub fn charge_rx(&mut self, bytes: usize) {
        self.consumed_mj += self.model.rx_per_byte_mj * bytes as f64;
    }

    /// Charges for `secs` of idle listening.
    pub fn charge_idle(&mut self, secs: f64) {
        self.consumed_mj += self.model.idle_per_sec_mj * secs.max(0.0);
    }

    /// Charges for `secs` of deep sleep.
    pub fn charge_sleep(&mut self, secs: f64) {
        self.consumed_mj += self.model.sleep_per_sec_mj * secs.max(0.0);
    }

    /// Instantly drains whatever is left (fault injection: a scheduled
    /// death works by exhausting the battery, so the depletion path is the
    /// single way a node dies). Idempotent.
    pub fn exhaust(&mut self) {
        self.consumed_mj = self.consumed_mj.max(self.capacity_mj);
    }

    /// Replays deferred per-tick sleep charges on a batch of budgets:
    /// entry `(budget, k)` receives exactly `k` charges of
    /// [`EnergyBudget::charge_sleep`]`(dt)`, **bit-identical** to making
    /// the `k` calls one at a time (the per-tick quantum is the same
    /// `sleep_per_sec_mj * dt.max(0.0)` product every call computes, and
    /// each budget's additions happen in the same order).
    ///
    /// The point is throughput: event-driven drivers defer sleep
    /// accounting and can owe `nodes × ticks` additions at settlement.
    /// Each budget's chain is a serial float dependency, but chains of
    /// different budgets are independent, so this routine runs them in
    /// fixed-width lanes the compiler can overlap (and vectorize)
    /// instead of serializing whole chains back to back.
    pub fn settle_sleep_many(batch: &mut [(&mut EnergyBudget, u64)], dt: f64) {
        const W: usize = 8;
        for group in batch.chunks_mut(W) {
            let mut consumed = [0.0f64; W];
            let mut quantum = [0.0f64; W];
            for (i, (budget, _)) in group.iter().enumerate() {
                consumed[i] = budget.consumed_mj;
                quantum[i] = budget.model.sleep_per_sec_mj * dt.max(0.0);
            }
            // Full-width interleaved sweep for the shared prefix (unused
            // lanes add 0.0 to 0.0 and are never written back), then a
            // scalar tail for budgets owing more than the group minimum.
            let kmin = group.iter().map(|&(_, k)| k).min().unwrap_or(0);
            for _ in 0..kmin {
                for i in 0..W {
                    consumed[i] += quantum[i];
                }
            }
            for (i, (budget, k)) in group.iter_mut().enumerate() {
                for _ in kmin..*k {
                    consumed[i] += quantum[i];
                }
                budget.consumed_mj = consumed[i];
            }
        }
    }

    /// How many more whole sleep ticks of length `dt` this budget can
    /// absorb before depleting, with a 1% safety margin so float error
    /// in a long deferred-settlement chain can never overshoot the
    /// capacity. Returns `u64::MAX` when sleeping is free (zero or
    /// negative per-tick cost) and `0` when already depleted — callers
    /// use this to bound how far an event-driven driver may defer a
    /// sleeping node's battery re-check. A driver that sleeps this many
    /// ticks and then re-checks observes the depletion no later than an
    /// every-tick poll would.
    pub fn sleep_ticks_until_depletion(&self, dt: f64) -> u64 {
        let per_tick = self.model.sleep_per_sec_mj * dt.max(0.0);
        if !(per_tick > 0.0) {
            return u64::MAX;
        }
        let remaining = self.capacity_mj - self.consumed_mj;
        if remaining <= 0.0 {
            return 0;
        }
        let ticks = (remaining / per_tick) * 0.99;
        if ticks >= u64::MAX as f64 {
            u64::MAX
        } else {
            ticks.floor() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(capacity: f64) -> EnergyBudget {
        EnergyBudget::new(EnergyModel::default(), capacity)
    }

    #[test]
    fn fresh_budget_is_full() {
        let b = budget(1000.0);
        assert_eq!(b.consumed_mj(), 0.0);
        assert_eq!(b.remaining_mj(), 1000.0);
        assert_eq!(b.remaining_fraction(), 1.0);
        assert!(!b.is_depleted());
    }

    #[test]
    fn charges_accumulate() {
        let mut b = budget(1000.0);
        b.charge_samples(100); // 1.0
        b.charge_tx(50); // 1.0
        b.charge_rx(25); // 0.5
        b.charge_idle(2.0); // 2.0
        b.charge_sleep(100.0); // 1.0
        assert!((b.consumed_mj() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn depletion_clamps_at_zero() {
        let mut b = budget(1.0);
        b.charge_idle(5.0);
        assert!(b.is_depleted());
        assert_eq!(b.remaining_mj(), 0.0);
        assert_eq!(b.remaining_fraction(), 0.0);
    }

    #[test]
    fn negative_durations_are_ignored() {
        let mut b = budget(10.0);
        b.charge_idle(-3.0);
        b.charge_sleep(-1.0);
        assert_eq!(b.consumed_mj(), 0.0);
    }

    #[test]
    fn sleep_is_cheaper_than_idle() {
        // The architecture's sleep-most-nodes argument in one assert.
        let m = EnergyModel::default();
        assert!(m.sleep_per_sec_mj * 50.0 < m.idle_per_sec_mj);
    }

    #[test]
    fn feature_report_cheaper_than_raw_stream() {
        // Transmitting a 16-byte feature report must be orders cheaper than
        // a second of raw 50 Hz × 6-byte samples.
        let mut features = budget(1e9);
        features.charge_tx(16);
        let mut raw = budget(1e9);
        raw.charge_tx(50 * 6);
        assert!(features.consumed_mj() * 10.0 < raw.consumed_mj());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        budget(0.0);
    }

    #[test]
    fn exhaust_is_instant_and_idempotent() {
        let mut b = budget(1000.0);
        b.charge_idle(5.0);
        b.exhaust();
        assert!(b.is_depleted());
        assert_eq!(b.remaining_mj(), 0.0);
        let consumed = b.consumed_mj();
        b.exhaust();
        assert_eq!(b.consumed_mj(), consumed);
    }

    #[test]
    fn sleep_tick_prediction_is_conservative() {
        let dt = 0.02;
        let mut b = budget(1.0);
        b.charge_idle(0.9); // 0.1 mJ headroom left
        let k = b.sleep_ticks_until_depletion(dt);
        // Simulate exactly k per-tick sleep charges the way a driver would:
        // the battery must still be alive afterwards.
        for _ in 0..k {
            b.charge_sleep(dt);
        }
        assert!(!b.is_depleted());
        // And the bound is not uselessly loose: a handful more ticks kills it.
        for _ in 0..(k / 10).max(4) {
            b.charge_sleep(dt);
        }
        assert!(b.is_depleted());

        assert_eq!(budget(1.0).sleep_ticks_until_depletion(0.0), u64::MAX);
        let mut dead = budget(1.0);
        dead.exhaust();
        assert_eq!(dead.sleep_ticks_until_depletion(dt), 0);
    }

    #[test]
    fn bulk_sleep_settlement_is_bit_identical_to_serial_charges() {
        let dt = 0.02;
        // 11 budgets (an uneven two-group batch) with distinct consumed
        // states and distinct owed tick counts, including zero.
        let mut serial: Vec<EnergyBudget> = (0..11).map(|i| {
            let mut b = budget(1000.0);
            b.charge_idle(0.123 * i as f64);
            b
        }).collect();
        let owed: Vec<u64> = (0..11).map(|i| [0u64, 1, 7, 100, 6001][i % 5]).collect();
        let mut bulk = serial.clone();
        for (b, &k) in serial.iter_mut().zip(&owed) {
            for _ in 0..k {
                b.charge_sleep(dt);
            }
        }
        let mut batch: Vec<(&mut EnergyBudget, u64)> =
            bulk.iter_mut().zip(owed.iter().copied()).collect();
        EnergyBudget::settle_sleep_many(&mut batch, dt);
        for (s, b) in serial.iter().zip(&bulk) {
            assert_eq!(s.consumed_mj().to_bits(), b.consumed_mj().to_bits());
        }
    }

    #[test]
    fn aa_pair_lasts_days_at_idle() {
        let b = EnergyBudget::aa_pair();
        let idle_per_day = EnergyModel::default().idle_per_sec_mj * 86_400.0;
        assert!(b.remaining_mj() / idle_per_day > 100.0);
    }
}
