//! Order statistics and the regression-bound comparator.

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest whole percentile (at most 99) of `n` samples that still
/// has at least [`TAIL_BEYOND`] samples beyond its nearest rank, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(p, n) >= TAIL_BEYOND)
}

/// The median of `samples` and their value at the [`tail_percentile`]
/// of `n` samples; `None` when `n` is too small for a tail. Passing one
/// pass's sample count keeps the percentile fixed when several passes'
/// samples are pooled.
pub fn p50_and_tail(samples: &[f64], n: usize) -> Option<(f64, f64)> {
    let p = tail_percentile(n)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((median(&sorted), percentile(&sorted, p)))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Whether `current` is worse than `baseline` by more than the allowed
/// margin: `bound` as a share of the baseline, or `floor` in the metric's
/// own unit, whichever is larger.
pub fn regressed(baseline: f64, current: f64, bound: f64, floor: f64, better: Better) -> bool {
    let margin = (bound * baseline.abs()).max(floor);
    match better {
        Better::Lower => current > baseline + margin,
        Better::Higher => current < baseline - margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 120 advance rounds: p91 leaves exactly 10 rounds beyond it,
        // p92 only 9.
        assert_eq!(tail_percentile(120), Some(91));
        assert_eq!(tail_percentile(180), Some(94));
        assert_eq!(tail_percentile(3600), Some(99));
        // Exactly enough for the median, and then too few.
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in [20usize, 37, 100, 120, 181, 1954, 3600] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - rank(p + 1, n) < TAIL_BEYOND,
                    "p{} also qualifies at n={n}",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let samples: Vec<f64> = (1..=120).rev().map(f64::from).collect();
        let (p50, tail) = p50_and_tail(&samples, 120).expect("120 samples");
        assert_eq!(p50, 60.5);
        // p91 of 120: rank 110, with ten samples (111..=120) beyond it.
        assert_eq!(tail, 110.0);
        assert!(p50_and_tail(&samples[..19], 19).is_none());
        // Two pooled passes of 120 keep the single-pass percentile.
        let pooled: Vec<f64> = samples.iter().chain(&samples).copied().collect();
        assert_eq!(p50_and_tail(&pooled, 120), Some((60.5, 110.0)));
    }

    #[test]
    fn comparator_applies_relative_bound_in_the_metric_direction() {
        // Throughput: 10 % below is still within the bound, more is not.
        assert!(!regressed(100.0, 90.5, 0.10, 0.0, Better::Higher));
        assert!(regressed(100.0, 89.0, 0.10, 0.0, Better::Higher));
        assert!(!regressed(100.0, 500.0, 0.10, 0.0, Better::Higher));
        // Latency: the same margin, the other way round.
        assert!(!regressed(100.0, 109.5, 0.10, 0.0, Better::Lower));
        assert!(regressed(100.0, 111.0, 0.10, 0.0, Better::Lower));
        assert!(!regressed(100.0, 1.0, 0.10, 0.0, Better::Lower));
    }

    #[test]
    fn comparator_absolute_floor_wins_when_larger() {
        // 5 ms set-up: 10 % is 0.5 ms, the 20 ms floor dominates.
        assert!(!regressed(0.005, 0.024, 0.10, 0.020, Better::Lower));
        assert!(regressed(0.005, 0.026, 0.10, 0.020, Better::Lower));
        // 1 s set-up: the relative bound dominates the floor.
        assert!(regressed(1.0, 1.15, 0.10, 0.020, Better::Lower));
        // A zero bound flags any worsening at all.
        assert!(regressed(1.0, 0.99, 0.0, 0.0, Better::Higher));
        assert!(!regressed(1.0, 1.0, 0.0, 0.0, Better::Higher));
    }

    #[test]
    fn better_parses_benchmark_spelling_only() {
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("Lower"), None);
    }
}
