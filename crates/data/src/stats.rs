//! Workload statistics: the distributional properties §6's "Query
//! Selection" promises — training thresholds at *uniform* selectivities,
//! testing thresholds at a low-selectivity-heavy ("geometric")
//! distribution, and everything below the 1% selectivity cap.
//!
//! The harness prints these summaries next to Table 3 and the tests use
//! them to verify the workload generator actually has the paper's shape.

use crate::workload::{SearchSample, SearchWorkload};
use serde::{Deserialize, Serialize};

/// Summary of a set of labelled samples' selectivities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectivityStats {
    pub mean: f32,
    pub median: f32,
    pub p90: f32,
    pub max: f32,
    /// Fraction of samples whose cardinality is exactly zero.
    pub zero_fraction: f32,
    pub count: usize,
}

impl SelectivityStats {
    /// Computes selectivity statistics for samples over a dataset of
    /// `n_data` points.
    pub fn compute(samples: &[SearchSample], n_data: usize) -> Self {
        if samples.is_empty() || n_data == 0 {
            return SelectivityStats {
                mean: 0.0,
                median: 0.0,
                p90: 0.0,
                max: 0.0,
                zero_fraction: 0.0,
                count: 0,
            };
        }
        let mut sels: Vec<f32> = samples.iter().map(|s| s.card / n_data as f32).collect();
        sels.sort_by(|a, b| a.total_cmp(b));
        let n = sels.len();
        let pick = |q: f32| sels[(((n as f32) * q).ceil() as usize).clamp(1, n) - 1];
        SelectivityStats {
            mean: sels.iter().sum::<f32>() / n as f32,
            median: pick(0.5),
            p90: pick(0.9),
            max: sels.last().copied().unwrap_or(0.0),
            // ground-truth cards are exact integer-valued floats; 0.0 is exact
            zero_fraction: samples.iter().filter(|s| s.card == 0.0).count() as f32 / n as f32,
            count: n,
        }
    }
}

/// A fixed-width histogram over `[0, max]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub max: f32,
    pub counts: Vec<u32>,
}

impl Histogram {
    /// Builds a histogram with `bins` buckets over `[0, max]`; values above
    /// `max` land in the last bucket.
    pub fn build(values: impl IntoIterator<Item = f32>, max: f32, bins: usize) -> Self {
        assert!(
            bins > 0 && max > 0.0,
            "histogram needs positive bins and range"
        );
        let mut counts = vec![0u32; bins];
        for v in values {
            let b = ((v / max * bins as f32).floor() as usize).min(bins - 1);
            counts[b] += 1;
        }
        Histogram { max, counts }
    }

    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Mass fraction in the lower half of the range — the test workload's
    /// geometric bias shows up as a large value here.
    pub fn lower_half_fraction(&self) -> f32 {
        let half = self.counts.len() / 2;
        let lower: u32 = self.counts[..half].iter().sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            lower as f32 / total as f32
        }
    }
}

/// The paper-shape checks bundled: train/test selectivity summaries and
/// the τ histograms of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub train: SelectivityStats,
    pub test: SelectivityStats,
    pub train_tau: Histogram,
    pub test_tau: Histogram,
}

impl WorkloadReport {
    pub fn from_workload(w: &SearchWorkload, n_data: usize) -> Self {
        let tau_max = w
            .train
            .iter()
            .chain(&w.test)
            .map(|s| s.tau)
            .fold(f32::EPSILON, f32::max);
        WorkloadReport {
            train: SelectivityStats::compute(&w.train, n_data),
            test: SelectivityStats::compute(&w.test, n_data),
            train_tau: Histogram::build(w.train.iter().map(|s| s.tau), tau_max, 16),
            test_tau: Histogram::build(w.test.iter().map(|s| s.tau), tau_max, 16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{DatasetSpec, PaperDataset};

    fn workload() -> (SearchWorkload, usize) {
        let spec = DatasetSpec {
            n_data: 1500,
            n_train_queries: 60,
            n_test_queries: 30,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(9);
        (SearchWorkload::build(&data, &spec, 9), spec.n_data)
    }

    #[test]
    fn selectivities_respect_the_one_percent_regime() {
        let (w, n) = workload();
        let r = WorkloadReport::from_workload(&w, n);
        // Mean selectivity is at the ~1% scale (ties and ceil-ranks can
        // nudge single queries slightly above the cap).
        assert!(
            r.train.mean <= 0.03,
            "train mean selectivity {}",
            r.train.mean
        );
        assert!(r.test.mean <= 0.03, "test mean selectivity {}", r.test.mean);
        assert_eq!(r.train.count, w.train.len());
    }

    #[test]
    fn test_workload_is_biased_to_low_selectivity() {
        // §6: "more queries with lower selectivity" for testing. The test
        // median selectivity must sit below the train median.
        let (w, n) = workload();
        let r = WorkloadReport::from_workload(&w, n);
        assert!(
            r.test.median <= r.train.median,
            "test median {} should be ≤ train median {}",
            r.test.median,
            r.train.median
        );
        // And the τ histogram has most of its mass in the lower half.
        assert!(
            r.test_tau.lower_half_fraction() > 0.5,
            "test τ mass in lower half: {}",
            r.test_tau.lower_half_fraction()
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::build([0.05f32, 0.15, 0.95, 2.0], 1.0, 10);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(
            h.counts[9], 2,
            "out-of-range values clamp to the last bucket"
        );
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = SelectivityStats::compute(&[], 100);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }
}
