//! Summary statistics over repeated measurements.

/// Summary of a sample of measurements (e.g. rounds-to-silence over many
/// seeds): mean, spread, extremes and quartile/tail quantiles — the shared
/// aggregation vocabulary of every campaign-based experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Smallest sample (0 for an empty sample).
    pub min: f64,
    /// Largest sample (0 for an empty sample).
    pub max: f64,
    /// Median (0 for an empty sample).
    pub median: f64,
    /// First quartile — [`percentile`] 25 (0 for an empty sample).
    pub p25: f64,
    /// Third quartile — [`percentile`] 75 (0 for an empty sample).
    pub p75: f64,
    /// [`percentile`] 95, the tail campaigns watch for stragglers (0 for
    /// an empty sample).
    pub p95: f64,
}

impl Summary {
    /// Summarizes an iterator of measurements.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Summary {
        let mut values: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let count = values.len();
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p25: 0.0,
                p75: 0.0,
                p95: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let median = if count % 2 == 1 {
            values[count / 2]
        } else {
            (values[count / 2 - 1] + values[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: values[0],
            max: values[count - 1],
            median,
            p25: percentile(&values, 25.0),
            p75: percentile(&values, 75.0),
            p95: percentile(&values, 95.0),
        }
    }

    /// Summarizes an iterator of integer measurements.
    pub fn from_counts<I: IntoIterator<Item = u64>>(samples: I) -> Summary {
        Summary::from_samples(samples.into_iter().map(|v| v as f64))
    }

    /// Formats the summary as `mean ± std (max max)` with one decimal.
    pub fn display_mean_max(&self) -> String {
        format!(
            "{:.1} ± {:.1} (max {:.0})",
            self.mean, self.std_dev, self.max
        )
    }
}

/// The `q`-th percentile of a sample, `q` in `[0, 100]`: the element at
/// index `round(q / 100 · (n − 1))` of the sorted sample (no
/// interpolation; 0 for an empty sample).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut values: Vec<f64> = samples.to_vec();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let rank = ((q / 100.0) * (values.len() as f64 - 1.0)).round() as usize;
    values[rank.min(values.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton_samples() {
        let empty = Summary::from_samples(std::iter::empty());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);

        let one = Summary::from_counts([7u64]);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(one.median, 7.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let s = Summary::from_samples([1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_quantiles_match_the_percentile_helper() {
        let sample: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = Summary::from_samples(sample.iter().copied());
        assert_eq!(s.p25, percentile(&sample, 25.0));
        assert_eq!(s.p75, percentile(&sample, 75.0));
        assert_eq!(s.p95, percentile(&sample, 95.0));
        assert!(s.p25 <= s.median && s.median <= s.p75 && s.p75 <= s.p95);

        let empty = Summary::from_samples(std::iter::empty());
        assert_eq!((empty.p25, empty.p75, empty.p95), (0.0, 0.0, 0.0));
        let one = Summary::from_counts([7u64]);
        assert_eq!((one.p25, one.p75, one.p95), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles() {
        let sample: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 50.0), 51.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::from_samples([1.0, 2.0, 3.0]);
        assert_eq!(s.display_mean_max(), "2.0 ± 0.8 (max 3)");
    }
}
