//! Small descriptive-statistics helpers for the experiment harness.
//!
//! The paper reports its results as max / min / mean / standard deviation
//! tables (Table II) and density plots (Figure 3). [`DistributionSummary`]
//! computes the former and a simple fixed-bin histogram for the latter, so
//! the bench harness can print both without external dependencies.

/// Summary statistics of one measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl DistributionSummary {
    /// An all-zero summary for an empty sample set.
    pub fn empty() -> Self {
        DistributionSummary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            median: 0.0,
            p95: 0.0,
        }
    }
}

/// Summarizes a set of samples.
pub fn summarize(samples: &[f64]) -> DistributionSummary {
    if samples.is_empty() {
        return DistributionSummary::empty();
    }
    let count = samples.len();
    let mean = samples.iter().sum::<f64>() / count as f64;
    let variance = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    DistributionSummary {
        count,
        mean,
        std_dev: variance.sqrt(),
        min: sorted[0],
        max: sorted[count - 1],
        median: percentile(&sorted, 0.50),
        p95: percentile(&sorted, 0.95),
    }
}

/// Builds a fixed-bin histogram over `[min, max]`; returns `(bin_upper_edge,
/// count)` pairs. Used to print the density figures as text.
pub fn histogram(samples: &[f64], bins: usize) -> Vec<(f64, usize)> {
    if samples.is_empty() || bins == 0 {
        return Vec::new();
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = if max > min {
        (max - min) / bins as f64
    } else {
        1.0
    };
    let mut counts = vec![0usize; bins];
    for &sample in samples {
        let mut index = ((sample - min) / width) as usize;
        if index >= bins {
            index = bins - 1;
        }
        counts[index] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, count)| (min + width * (i as f64 + 1.0), count))
        .collect()
}

fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = fraction * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let weight = position - lower as f64;
        sorted[lower] * (1.0 - weight) + sorted[upper] * weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_give_zeroed_summary() {
        let summary = summarize(&[]);
        assert_eq!(summary, DistributionSummary::empty());
        assert_eq!(summary.count, 0);
        assert!(histogram(&[], 10).is_empty());
    }

    #[test]
    fn summary_of_known_values() {
        let summary = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(summary.count, 8);
        assert!((summary.mean - 5.0).abs() < 1e-9);
        assert!((summary.std_dev - 2.0).abs() < 1e-9);
        assert_eq!(summary.min, 2.0);
        assert_eq!(summary.max, 9.0);
        assert!((summary.median - 4.5).abs() < 1e-9);
        assert!(summary.p95 <= 9.0 && summary.p95 >= 7.0);
    }

    #[test]
    fn single_sample() {
        let summary = summarize(&[42.0]);
        assert_eq!(summary.mean, 42.0);
        assert_eq!(summary.std_dev, 0.0);
        assert_eq!(summary.median, 42.0);
        assert_eq!(summary.min, 42.0);
        assert_eq!(summary.max, 42.0);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let bins = histogram(&samples, 10);
        assert_eq!(bins.len(), 10);
        assert_eq!(bins.iter().map(|(_, c)| c).sum::<usize>(), 100);
        // Uniform data: each bin holds roughly the same count.
        assert!(bins.iter().all(|&(_, c)| c == 10));
        // Degenerate: all samples equal.
        let constant = vec![5.0; 20];
        let bins = histogram(&constant, 4);
        assert_eq!(bins.iter().map(|(_, c)| c).sum::<usize>(), 20);
    }
}
