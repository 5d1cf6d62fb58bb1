//! Summary arithmetic for step latencies and throughput.

/// Nearest-rank percentile of `samples`: the smallest sample with at
/// least `q` of all samples at or below it. `q` is in `(0, 1]`.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 0.5 percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Operations completed per second of step time.
pub fn ops_per_s(ops: u64, step_seconds: &[f64]) -> f64 {
    ops as f64 / step_seconds.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.001), 1.0);
        // 10 samples lie above p90 of 100: the rule the step count follows.
        assert_eq!(xs.iter().filter(|&&x| x > percentile(&xs, 0.9)).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn throughput_is_ops_over_summed_step_time() {
        assert_eq!(ops_per_s(3000, &[0.5, 0.25, 0.25]), 3000.0);
        assert_eq!(ops_per_s(10, &[2.0]), 5.0);
    }
}
