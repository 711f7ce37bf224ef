//! Order statistics used for every reported timing.

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value a run reports for a per-round timing: the round at the 90th
/// percentile of *goodness* (linear interpolation between the ranked
/// rounds), i.e. the run's least-disturbed decile.
///
/// Interference on the sandbox is one-sided and comes in episodes that last
/// seconds — other tenants slow a round down, nothing speeds one up — and
/// in some runs they cover half of the measured time.  The median over the
/// rounds then lands in or out of an episode from run to run; the best
/// decile stays with the undisturbed rounds, while one lucky round (the
/// plain best) does not decide it.  README.md has the measurements behind
/// this choice.
pub fn best_decile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut ranked = values.to_vec();
    ranked.sort_by(f64::total_cmp);
    if !higher_is_better {
        ranked.reverse();
    }
    // `ranked` now ascends in goodness.
    let position = 0.9 * (ranked.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(ranked.len() - 1);
    ranked[below] + (ranked[above] - ranked[below]) * (position - below as f64)
}

/// The `p`-th percentile (0–100) of `values` by nearest rank: the smallest
/// sample with at least `p` % of the samples at or below it.  With 1 000
/// samples p95 is the 950th smallest, leaving 50 beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, or 0 when the denominator is 0 — for
/// per-layer rates of layers a workload never enters.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_decile_stays_with_the_undisturbed_rounds() {
        // 11 rounds, 5 of them in a slow episode, 1 lucky outlier.
        let qps = [
            100.0, 101.0, 99.0, 70.0, 72.0, 69.0, 71.0, 73.0, 100.5, 99.5, 120.0,
        ];
        assert_eq!(median(&qps), 99.0);
        assert_eq!(best_decile(&qps, true), 101.0);
        let latency: Vec<f64> = qps.iter().map(|q| 1000.0 / q).collect();
        assert_eq!(best_decile(&latency, false), 1000.0 / 101.0);
        // Interpolates between the ranked rounds; degenerate inputs.
        assert!((best_decile(&[1.0, 2.0, 3.0], true) - 2.8).abs() < 1e-12);
        assert!((best_decile(&[1.0, 2.0, 3.0], false) - 1.2).abs() < 1e-12);
        assert_eq!(best_decile(&[4.0], true), 4.0);
        assert_eq!(best_decile(&[], true), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 500.0);
        assert_eq!(percentile(&values, 95.0), 950.0);
        assert_eq!(percentile(&values, 99.0), 990.0);
        assert_eq!(percentile(&values, 100.0), 1000.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn ratio_guards_an_unused_layer() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
