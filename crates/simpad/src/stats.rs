//! Response-time statistics.

/// Online sample mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Tally {
    /// Records one observation.
    pub(crate) fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basic_statistics() {
        let mut t = Tally::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(v);
        }
        assert_eq!(t.count, 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic example is 4; sample variance 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((t.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tally_empty_is_safe() {
        let t = Tally::default();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.std_dev(), 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford mean/variance agree with the naive two-pass computation.
        #[test]
        fn prop_tally_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let mut t = Tally::default();
            for &v in &values {
                t.record(v);
            }
            let n = values.len() as f64;
            let naive_mean = values.iter().sum::<f64>() / n;
            let naive_var =
                values.iter().map(|v| (v - naive_mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((t.mean() - naive_mean).abs() < 1e-6 * naive_mean.abs().max(1.0));
            prop_assert!((t.variance() - naive_var).abs() < 1e-5 * naive_var.abs().max(1.0));
        }
    }
}
