//! The benchmark's own arithmetic: percentiles, the tail rule, q-error
//! summaries and open-loop lag accounting. Everything here is pure, so the
//! unit tests below pin it.

use cardest_nn::metrics::{q_error, ErrorSummary};
use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice, `q ∈ [0, 1]`; 0 for an
/// empty slice. The same rank rule as `cardest_nn::metrics` uses for the
/// paper's Table 4 columns.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    n - rank
}

/// Percentile ladder the tail rule picks from, highest first.
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.50];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// True when percentile `q` of `n` samples is backed by ten samples
/// beyond it, i.e. `q` is at or below [`tail_percentile`].
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Mean of a slice; 0 for an empty one.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of an unsorted slice (nearest rank); 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The windows of `0..windows` that latency and throughput count: every
/// window that lost at most `limit` of the CPU to steal when that is at
/// least half of them, else the least-stolen half (rounded up, ties to
/// the earlier window). A window without a reading counts as wholly
/// stolen. Returns the windows and whether the limit held.
pub fn kept_windows(steal: &BTreeMap<u64, f64>, windows: u64, limit: f64) -> (Vec<u64>, bool) {
    let stolen = |k: &u64| steal.get(k).copied().unwrap_or(1.0);
    let clean: Vec<u64> = (0..windows).filter(|k| stolen(k) <= limit).collect();
    if clean.len() as u64 * 2 >= windows {
        return (clean, true);
    }
    let mut ks: Vec<u64> = (0..windows).collect();
    ks.sort_by(|a, b| stolen(a).total_cmp(&stolen(b)).then(a.cmp(b)));
    ks.truncate(windows.div_ceil(2) as usize);
    (ks, false)
}

/// Values of the samples `(t_ns, value)` whose window is in `keep`,
/// ascending.
pub fn pooled(samples: &[(u64, f64)], window_ns: u64, keep: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| keep.contains(&(t / window_ns.max(1))))
        .map(|&(_, x)| x)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// One reading of the machine's CPU counters (`/proc/stat`, all CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// ns since the start of the timed window.
    pub t_ns: u64,
    /// Jiffies of every kind, steal included.
    pub total: u64,
    /// Jiffies the hypervisor ran something else while a vCPU wanted to
    /// run.
    pub steal: u64,
}

/// Share of CPU time stolen by the hypervisor in each window: the
/// interval between two consecutive readings counts toward the window
/// that holds its midpoint.
pub fn steal_per_window(samples: &[CpuSample], window_ns: u64) -> BTreeMap<u64, f64> {
    let mut acc: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for pair in samples.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mid = a.t_ns / 2 + b.t_ns / 2;
        let e = acc.entry(mid / window_ns.max(1)).or_default();
        e.0 += b.steal.saturating_sub(a.steal);
        e.1 += b.total.saturating_sub(a.total);
    }
    acc.into_iter()
        .map(|(k, (st, tot))| {
            (
                k,
                if tot == 0 {
                    0.0
                } else {
                    st as f64 / tot as f64
                },
            )
        })
        .collect()
}

/// Table 4 statistics over `(estimate, truth)` pairs: exactly
/// `cardest_nn::metrics::ErrorSummary::from_q_errors`.
pub fn qerror_summary(pairs: &[(f32, f32)]) -> ErrorSummary {
    ErrorSummary::from_q_errors(pairs)
}

/// Mean q-error over `(estimate, truth)` pairs, as the paper defines it.
pub fn qerror_mean(pairs: &[(f32, f32)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(e, t)| f64::from(q_error(e, t)))
        .sum::<f64>()
        / pairs.len() as f64
}

/// Open-loop lag accounting. A send is due at `due_ns` and goes out at
/// `sent_ns`; its lag is how late it went out. Latency is timed from the
/// due time, so a stall also charges the requests queued behind it.
#[derive(Debug, Default, Clone)]
pub struct LagLog {
    lags_us: Vec<f64>,
}

impl LagLog {
    /// Records one send; returns its lag in µs (0 for an early send).
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) -> f64 {
        let lag = sent_ns.saturating_sub(due_ns) as f64 / 1e3;
        self.lags_us.push(lag);
        lag
    }

    /// Lag percentile `q` in µs over every send.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut v = self.lags_us.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    }

    /// Whether the generator kept to its schedule: the median lag over the
    /// last tenth of the sends must stay below `interval_us`, the gap
    /// between two sends of one connection. A backlog that grows through
    /// the run ends above it, so a run that fails this is invalid.
    pub fn kept_schedule(&self, interval_us: f64) -> bool {
        let n = self.lags_us.len();
        if n == 0 {
            return true;
        }
        let tail = &self.lags_us[n - (n / 10).max(1)..];
        median(tail) < interval_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(tail_percentile(1000), Some(0.99));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 is the tail.
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(19), None);
        assert!(percentile_supported(200, 0.90));
        assert!(!percentile_supported(200, 0.99));
    }

    #[test]
    fn stolen_windows_are_left_out() {
        let steal: BTreeMap<u64, f64> = [(0, 0.30), (1, 0.0), (2, 0.02), (3, 0.02), (4, 0.10)]
            .into_iter()
            .collect();
        // Three of five windows within 5%: all three count.
        assert_eq!(kept_windows(&steal, 5, 0.05), (vec![1, 2, 3], true));
        // Within 1% only window 1: the least-stolen half, ties by index.
        assert_eq!(kept_windows(&steal, 5, 0.01), (vec![1, 2, 3], false));
        // Window 5 has no reading and counts as stolen.
        assert_eq!(kept_windows(&steal, 6, 0.05), (vec![1, 2, 3], true));
        assert_eq!(kept_windows(&steal, 8, 0.05), (vec![1, 2, 3, 4], false));
        // Samples every 0.25 s with value = index; 0.5 s windows.
        let samples: Vec<(u64, f64)> = (0..8u64).map(|i| (i * 250_000_000, i as f64)).collect();
        assert_eq!(
            pooled(&samples, 500_000_000, &[3, 1]),
            vec![2.0, 3.0, 6.0, 7.0]
        );
        assert!(pooled(&samples, 500_000_000, &[9]).is_empty());
    }

    #[test]
    fn steal_is_shared_out_by_interval_midpoint() {
        let s = |t_ns, total, steal| CpuSample { t_ns, total, steal };
        // 0.1 s readings: window 0 loses 5 of 40 jiffies, window 1 none.
        let samples = [
            s(0, 0, 0),
            s(100_000_000, 20, 0),
            s(200_000_000, 40, 5),
            s(300_000_000, 60, 5),
            s(400_000_000, 80, 5),
        ];
        let w = steal_per_window(&samples, 200_000_000);
        assert_eq!(
            w.into_iter().collect::<Vec<_>>(),
            vec![(0, 5.0 / 40.0), (1, 0.0)]
        );
        assert!(steal_per_window(&samples[..1], 200_000_000).is_empty());
    }

    #[test]
    fn qerror_summary_matches_cardest_nn_metrics() {
        // Fixed (estimate, truth) vector, including the 0.1 floor case.
        let pairs: Vec<(f32, f32)> = vec![
            (10.0, 5.0),
            (5.0, 10.0),
            (7.0, 7.0),
            (0.0, 0.0),
            (10.0, 0.0),
            (1.0, 4.0),
            (30.0, 3.0),
            (2.0, 2.5),
        ];
        let s = qerror_summary(&pairs);
        let lib = ErrorSummary::from_q_errors(&pairs);
        assert_eq!(s, lib);
        // Hand-computed: errors are 2, 2, 1, 1, 100, 4, 10, 1.25.
        let expect_mean = (2.0 + 2.0 + 1.0 + 1.0 + 100.0 + 4.0 + 10.0 + 1.25) / 8.0;
        assert!((f64::from(s.mean) - expect_mean).abs() < 1e-5);
        assert!((qerror_mean(&pairs) - expect_mean).abs() < 1e-5);
        // Sorted: 1, 1, 1.25, 2, 2, 4, 10, 100 → nearest-rank median is
        // rank 4 (= 2), p95 and p99 are rank 8 (= 100).
        assert_eq!(s.median, 2.0);
        assert_eq!(s.p95, 100.0);
        assert_eq!(s.p99, 100.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn lag_is_measured_from_the_due_time() {
        let mut log = LagLog::default();
        assert_eq!(log.record(1_000_000, 1_000_000), 0.0);
        assert_eq!(log.record(2_000_000, 2_250_000), 250.0);
        // An early send (the generator sleeps until due) counts as 0.
        assert_eq!(log.record(3_000_000, 2_999_000), 0.0);
        assert_eq!(log.percentile_us(0.5), 0.0);
        assert_eq!(log.percentile_us(1.0), 250.0);
    }

    #[test]
    fn growing_backlog_breaks_the_schedule() {
        // Steady: every send at most 100 µs late against a 4 ms interval.
        let mut steady = LagLog::default();
        for i in 0..100u64 {
            steady.record(i * 4_000_000, i * 4_000_000 + 100_000);
        }
        assert!(steady.kept_schedule(4_000.0));
        // Falling behind: each send 1 ms later than the one before.
        let mut behind = LagLog::default();
        for i in 0..100u64 {
            behind.record(i * 4_000_000, i * 5_000_000);
        }
        assert!(!behind.kept_schedule(4_000.0));
        // A single stall early on does not invalidate the run.
        let mut stall = LagLog::default();
        for i in 0..100u64 {
            let late = if i == 3 { 20_000_000 } else { 0 };
            stall.record(i * 4_000_000, i * 4_000_000 + late);
        }
        assert!(stall.kept_schedule(4_000.0));
    }
}
