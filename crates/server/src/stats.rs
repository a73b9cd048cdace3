//! Lock-free serving metrics: per-route latency histograms and HTTP
//! outcome counters.
//!
//! Latencies land in power-of-two microsecond buckets (`[2^k, 2^(k+1))`),
//! so recording is one atomic increment and quantiles come from a bucket
//! scan — coarse (upper-edge capped at the maximum, 2× resolution) but
//! allocation-free and safe
//! to read while every worker is writing. The load generator computes its
//! exact percentiles client-side; these histograms are the *server's*
//! always-on view at `GET /stats`.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: covers up to ~2^39 µs (~6 days).
const BUCKETS: usize = 40;

/// A histogram of microsecond latencies in power-of-two buckets.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Upper edge (µs) of the bucket containing quantile `q` ∈ [0, 1],
    /// capped at the largest recorded value.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let max = self.max_us.load(Ordering::Relaxed);
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Bucket idx holds values in [2^(idx-1), 2^idx).
                return (1u64 << idx).min(max);
            }
        }
        max
    }

    /// Point-in-time summary for `/stats`.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Serializable summary of one histogram.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySnapshot {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// The instrumented routes, in [`Route::ALL`] order: a route's
/// discriminant is its slot in [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Estimate,
    EstimateBatch,
    Health,
    Ready,
    Stats,
    Reload,
    Insert,
    Promote,
    Fingerprint,
}

impl Route {
    pub const ALL: [Route; 9] = [
        Route::Estimate,
        Route::EstimateBatch,
        Route::Health,
        Route::Ready,
        Route::Stats,
        Route::Reload,
        Route::Insert,
        Route::Promote,
        Route::Fingerprint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Estimate => "estimate",
            Route::EstimateBatch => "estimate_batch",
            Route::Health => "health",
            Route::Ready => "ready",
            Route::Stats => "stats",
            Route::Reload => "reload",
            Route::Insert => "insert",
            Route::Promote => "promote",
            Route::Fingerprint => "fingerprint",
        }
    }
}

/// Every route's latency summary, keyed by [`Route::name`] in
/// [`Route::ALL`] order.
pub(crate) struct RouteSnapshots([LatencySnapshot; Route::ALL.len()]);

impl Serialize for RouteSnapshots {
    fn serialize(&self) -> Value {
        Value::Map(
            Route::ALL
                .iter()
                .zip(&self.0)
                .map(|(r, s)| (r.name().to_string(), s.serialize()))
                .collect(),
        )
    }
}

/// `/stats`' `coalesce` section.
#[derive(Debug, Serialize)]
pub(crate) struct CoalesceSnapshot {
    batches: u64,
    queries: u64,
    max_batch: u64,
    /// Single queries waiting for the batcher right now.
    queued: u64,
}

/// `/stats`' `http` section: non-2xx answers by status (405 counts as
/// 404) and connections refused at the door.
#[derive(Debug, Serialize)]
pub(crate) struct HttpSnapshot {
    #[serde(rename = "400")]
    bad_request: u64,
    #[serde(rename = "404")]
    not_found: u64,
    #[serde(rename = "409")]
    conflict: u64,
    #[serde(rename = "500")]
    internal_error: u64,
    #[serde(rename = "503")]
    unavailable: u64,
    connections_rejected: u64,
}

/// All serving counters, shared across worker threads.
#[derive(Default)]
pub struct ServerStats {
    routes: [LatencyHistogram; Route::ALL.len()],
    pub http_400: AtomicU64,
    pub http_404: AtomicU64,
    pub http_409: AtomicU64,
    pub http_503: AtomicU64,
    pub http_500: AtomicU64,
    /// Batches flushed by the coalescer.
    pub coalesced_batches: AtomicU64,
    /// Single-query requests that went through the coalescer.
    pub coalesced_queries: AtomicU64,
    /// Largest batch a single flush carried.
    pub coalesced_max_batch: AtomicU64,
    /// Connections turned away at the door (admission control).
    pub connections_rejected: AtomicU64,
}

impl ServerStats {
    /// Records one request's latency under its route.
    pub fn record_route(&self, route: Route, us: u64) {
        self.routes[route as usize].record(us);
    }

    /// The histogram for one route.
    pub fn route(&self, route: Route) -> &LatencyHistogram {
        &self.routes[route as usize]
    }

    /// Bumps the counter for a non-2xx status (no-op for 2xx).
    pub fn record_status(&self, status: u16) {
        match status {
            400 => &self.http_400,
            404 | 405 => &self.http_404,
            409 => &self.http_409,
            503 => &self.http_503,
            500 => &self.http_500,
            _ => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Every route's latency summary.
    pub(crate) fn routes_snapshot(&self) -> RouteSnapshots {
        RouteSnapshots(Route::ALL.map(|r| self.route(r).snapshot()))
    }

    /// The coalescer's counters, with its current queue depth.
    pub(crate) fn coalesce_snapshot(&self, queued: usize) -> CoalesceSnapshot {
        CoalesceSnapshot {
            batches: self.coalesced_batches.load(Ordering::Relaxed),
            queries: self.coalesced_queries.load(Ordering::Relaxed),
            max_batch: self.coalesced_max_batch.load(Ordering::Relaxed),
            queued: queued as u64,
        }
    }

    /// The HTTP outcome counters.
    pub(crate) fn http_snapshot(&self) -> HttpSnapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        HttpSnapshot {
            bad_request: read(&self.http_400),
            not_found: read(&self.http_404),
            conflict: read(&self.http_409),
            internal_error: read(&self.http_500),
            unavailable: read(&self.http_503),
            connections_rejected: read(&self.connections_rejected),
        }
    }

    /// Records one coalesced flush of `n` queries.
    pub fn record_coalesce(&self, n: usize) {
        self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_queries
            .fetch_add(n as u64, Ordering::Relaxed);
        self.coalesced_max_batch
            .fetch_max(n as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_bucket_edges() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram answers 0");
        for _ in 0..99 {
            h.record(100); // bucket [64, 128) → edge 128
        }
        h.record(100_000); // bucket edge 131072, capped at the max
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 128);
        assert_eq!(s.p99_us, 128);
        assert_eq!(h.quantile_us(1.0), 100_000);
        assert_eq!(s.max_us, 100_000);
        assert!((s.mean_us - (99.0 * 100.0 + 100_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_latency_lands_in_the_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.quantile_us(0.5), 0, "bucket edge 1 capped at the max 0");
    }

    #[test]
    fn route_slots_follow_the_route_table() {
        for (slot, route) in Route::ALL.iter().enumerate() {
            assert_eq!(*route as usize, slot, "{route:?}");
        }
    }

    #[test]
    fn status_counters_route_correctly() {
        let s = ServerStats::default();
        s.record_status(400);
        s.record_status(405);
        s.record_status(503);
        s.record_status(200); // no-op
        assert_eq!(s.http_400.load(Ordering::Relaxed), 1);
        assert_eq!(s.http_404.load(Ordering::Relaxed), 1);
        assert_eq!(s.http_503.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn coalesce_counters_accumulate() {
        let s = ServerStats::default();
        s.record_coalesce(3);
        s.record_coalesce(7);
        assert_eq!(s.coalesced_batches.load(Ordering::Relaxed), 2);
        assert_eq!(s.coalesced_queries.load(Ordering::Relaxed), 10);
        assert_eq!(s.coalesced_max_batch.load(Ordering::Relaxed), 7);
    }
}
