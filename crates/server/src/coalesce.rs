//! Request coalescing: single-query requests queue and flush together as
//! one `estimate_batch` call.
//!
//! The batched serving path amortizes per-call overhead (one guard pass,
//! one monomorphized batch kernel), so under concurrent single-query load
//! it is cheaper to serve the accumulated queue in one `serve_batch` than
//! to serve each query alone. The batcher never waits for batch-mates: it
//! wakes on the first queued query and at once serves everything queued,
//! up to `max_batch` (idle flush, or natural batching). Batches therefore
//! form only from queries that arrived while the previous flush ran — they
//! grow with load, and at low rates nothing waits on a timer.
//!
//! Admission control lives here too: the queue is bounded at `cap`, and a
//! submit against a full queue fails fast with [`SubmitError::Overloaded`]
//! (the HTTP layer turns that into a 503) instead of letting latency grow
//! without bound.
//!
//! Shutdown never drops a request: the batcher drains whatever is queued
//! before exiting, so every submitted query gets a reply.

use cardest_data::validate::CardestError;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::model::OwnedQuery;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;

/// Tuning knobs for the coalescing queue.
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Most queries one flush serves; a longer queue flushes in chunks.
    pub max_batch: usize,
    /// Queue bound — submits beyond this are rejected (admission control).
    pub cap: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_batch: 64,
            cap: 1024,
        }
    }
}

/// What a coalesced query gets back.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceReply {
    pub result: Result<f32, CardestError>,
    /// Generation that actually served the query (it may differ from the
    /// generation active at submit time if a reload raced the queue).
    pub model_version: u64,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed load now rather than queue latency.
    Overloaded,
    /// The server is shutting down.
    ShuttingDown,
}

struct Pending {
    query: OwnedQuery,
    tau: f32,
    tx: SyncSender<CoalesceReply>,
}

struct State {
    queue: Vec<Pending>,
    shutdown: bool,
}

/// The shared coalescing queue plus the batcher that drains it.
pub struct Coalescer {
    cfg: CoalesceConfig,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    state: Mutex<State>,
    wake: Condvar,
}

impl Coalescer {
    pub fn new(
        cfg: CoalesceConfig,
        registry: Arc<ModelRegistry>,
        stats: Arc<ServerStats>,
    ) -> Arc<Self> {
        Arc::new(Coalescer {
            cfg,
            registry,
            stats,
            state: Mutex::new(State {
                queue: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        })
    }

    /// Enqueues one query and returns the channel its reply will arrive
    /// on. The caller blocks on `recv()`; the batcher always sends exactly
    /// one reply per accepted submit, including during shutdown drain.
    pub fn submit(
        &self,
        query: OwnedQuery,
        tau: f32,
    ) -> Result<Receiver<CoalesceReply>, SubmitError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.cfg.cap {
                return Err(SubmitError::Overloaded);
            }
            st.queue.push(Pending { query, tau, tx });
        }
        self.wake.notify_one();
        Ok(rx)
    }

    /// Spawns the batcher thread (fails only on OS thread exhaustion).
    /// Call [`Coalescer::shutdown`] to stop it; it drains the queue before
    /// exiting.
    pub fn spawn_batcher(self: &Arc<Self>) -> std::io::Result<JoinHandle<()>> {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name("cardest-batcher".to_string())
            .spawn(move || this.run())
    }

    /// Signals the batcher to drain and exit.
    pub fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.wake.notify_all();
    }

    fn run(&self) {
        loop {
            let batch = {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                // Sleep until the first query (or shutdown) arrives.
                while st.queue.is_empty() && !st.shutdown {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                // Only shutdown ends the wait with an empty queue.
                if st.queue.is_empty() {
                    return;
                }
                // Serve everything queued right now; batch-mates are only
                // the queries that arrived while the previous flush ran.
                let take = st.queue.len().min(self.cfg.max_batch.max(1));
                st.queue.drain(..take).collect::<Vec<Pending>>()
            };
            self.flush(batch);
        }
    }

    fn flush(&self, batch: Vec<Pending>) {
        let model = self.registry.active();
        let queries: Vec<_> = batch.iter().map(|p| (p.query.view(), p.tau)).collect();
        let results = model.guarded.serve_batch(&queries);
        self.stats.record_coalesce(batch.len());
        for (p, result) in batch.into_iter().zip(results) {
            // A closed receiver means the client hung up; nothing to do.
            let _ = p.tx.send(CoalesceReply {
                result,
                model_version: model.version,
            });
        }
    }

    /// Number of queries waiting right now (diagnostic).
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Copy of the active tuning knobs.
    pub fn config(&self) -> &CoalesceConfig {
        &self.cfg
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        // Belt-and-braces: if the owner forgot to call shutdown, wake the
        // batcher so it can observe the flag and exit. (The batcher holds
        // its own Arc, so by the time Drop runs it has already exited.)
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::repr_of;
    use crate::registry::{RegistryConfig, SharedFallback};
    use cardest_baselines::mlp::{MlpConfig, MlpEstimator};
    use cardest_baselines::sampling::SamplingEstimator;
    use cardest_baselines::traits::TrainingSet;
    use cardest_data::metric::Metric;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::vector::VectorView;
    use cardest_data::workload::SearchWorkload;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    struct Fixture {
        coalescer: Arc<Coalescer>,
        stats: Arc<ServerStats>,
        query: OwnedQuery,
    }

    /// A coalescer in front of a tiny MLP model. The batcher is not
    /// started, so a test controls what is queued when it first runs.
    fn fixture(tag: &str, cfg: CoalesceConfig) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("cardest-coalesce-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = DatasetSpec {
            dataset: PaperDataset::GloVe300,
            dim: 16,
            n_data: 200,
            n_train_queries: 16,
            n_test_queries: 4,
            metric: Metric::Angular,
            tau_max: 0.6,
        };
        let data = spec.generate(7);
        let workload = SearchWorkload::build(&data, &spec, 7);
        let training = TrainingSet::new(&workload.queries, &workload.train);
        let mut mlp = MlpConfig::default();
        mlp.train.epochs = 1;
        let (model, _) = MlpEstimator::train(&data, spec.metric, &training, &mlp, 1);
        let artifact = dir.join("model.cardest");
        model.save_artifact(&artifact).unwrap();
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &data,
            spec.metric,
            0.05,
            7,
            "Sampling 5%",
        ));
        let registry = ModelRegistry::new(
            RegistryConfig {
                n_data: data.len(),
                dim: data.dim(),
                repr: repr_of(&data),
                monotone: true,
            },
            fallback,
            &artifact,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let query = match data.view(0) {
            VectorView::Dense(row) => OwnedQuery::Dense(row.to_vec()),
            other => panic!("the spec is dense, got {other:?}"),
        };
        let stats = Arc::new(ServerStats::default());
        Fixture {
            coalescer: Coalescer::new(cfg, Arc::new(registry), Arc::clone(&stats)),
            stats,
            query,
        }
    }

    /// Receives a submit's reply and checks that no second one follows.
    fn exactly_one(rx: &Receiver<CoalesceReply>) -> CoalesceReply {
        let limit = Duration::from_secs(30);
        let reply = rx.recv_timeout(limit).expect("a reply");
        assert_eq!(
            rx.recv_timeout(limit).err(),
            Some(RecvTimeoutError::Disconnected),
            "a second reply"
        );
        reply
    }

    fn counter(c: &std::sync::atomic::AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn shutdown_drains_the_queue_and_refuses_later_submits() {
        let cfg = CoalesceConfig {
            max_batch: 4,
            ..CoalesceConfig::default()
        };
        let f = fixture("drain", cfg);
        let rxs: Vec<_> = (0..10)
            .map(|i| f.coalescer.submit(f.query.clone(), 0.1 + 0.02 * i as f32))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(f.coalescer.queued(), 10);
        f.coalescer.shutdown();
        assert_eq!(
            f.coalescer.submit(f.query.clone(), 0.2).err(),
            Some(SubmitError::ShuttingDown)
        );
        f.coalescer.spawn_batcher().unwrap().join().unwrap();
        for rx in &rxs {
            let reply = exactly_one(rx);
            let estimate = reply.result.unwrap();
            assert!(estimate.is_finite() && estimate >= 0.0, "{estimate}");
            assert_eq!(reply.model_version, 1);
        }
        assert_eq!(f.coalescer.queued(), 0);
        assert_eq!(counter(&f.stats.coalesced_queries), 10);
        assert_eq!(counter(&f.stats.coalesced_batches), 3);
        assert_eq!(counter(&f.stats.coalesced_max_batch), 4);
    }

    #[test]
    fn a_full_queue_is_overloaded() {
        let cfg = CoalesceConfig {
            cap: 3,
            ..CoalesceConfig::default()
        };
        let f = fixture("overload", cfg);
        let rxs: Vec<_> = (0..3)
            .map(|_| f.coalescer.submit(f.query.clone(), 0.3))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            f.coalescer.submit(f.query.clone(), 0.3).err(),
            Some(SubmitError::Overloaded)
        );
        let batcher = f.coalescer.spawn_batcher().unwrap();
        for rx in &rxs {
            exactly_one(rx).result.unwrap();
        }
        // Once drained, the queue admits again.
        let rx = f.coalescer.submit(f.query.clone(), 0.3).unwrap();
        exactly_one(&rx).result.unwrap();
        f.coalescer.shutdown();
        batcher.join().unwrap();
        assert_eq!(counter(&f.stats.coalesced_queries), 4);
    }

    #[test]
    fn concurrent_submitters_never_exceed_max_batch() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        const BURST: usize = 6;
        let cfg = CoalesceConfig {
            max_batch: 4,
            ..CoalesceConfig::default()
        };
        let f = fixture("concurrent", cfg);
        let batcher = f.coalescer.spawn_batcher().unwrap();
        let accepted: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (coalescer, query) = (&f.coalescer, &f.query);
                    s.spawn(move || {
                        let mut accepted = 0;
                        for round in 0..ROUNDS {
                            // Submit a burst before reading any reply, so
                            // queries pile up while a flush runs.
                            let rxs: Vec<_> = (0..BURST)
                                .map(|i| {
                                    let tau = 0.05 * ((t + round + i) % 10) as f32;
                                    coalescer.submit(query.clone(), tau).unwrap()
                                })
                                .collect();
                            for rx in &rxs {
                                exactly_one(rx).result.unwrap();
                            }
                            accepted += rxs.len();
                        }
                        accepted
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        f.coalescer.shutdown();
        batcher.join().unwrap();
        assert_eq!(accepted, THREADS * ROUNDS * BURST);
        assert_eq!(counter(&f.stats.coalesced_queries), accepted as u64);
        let max = counter(&f.stats.coalesced_max_batch);
        assert!((1..=4).contains(&max), "max batch {max}");
    }
}
