//! Hot-reload registry under concurrent load (ISSUE 6 satellite 3).
//!
//! The contract under test: N threads serving while another thread
//! repeatedly reloads must never observe a torn estimator, drop a
//! request, or miscount `GuardStats`; a corrupt artifact reload is
//! rejected with the old model left serving.

use cardest_baselines::mlp::{MlpConfig, MlpEstimator};
use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorData;
use cardest_data::workload::SearchWorkload;
use cardest_nn::artifact::ArtifactError;
use cardest_server::model::{repr_of, OwnedQuery, QueryRepr};
use cardest_server::registry::{ReloadError, SharedFallback};
use cardest_server::{ModelRegistry, RegistryConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Tiny dense spec: fast to generate, label, and train on.
fn tiny_spec() -> DatasetSpec {
    DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: 16,
        n_data: 300,
        n_train_queries: 24,
        n_test_queries: 6,
        metric: Metric::Angular,
        tau_max: 0.6,
    }
}

struct Fixture {
    dir: PathBuf,
    data: VectorData,
    spec: DatasetSpec,
    /// Two healthy artifacts (different training seeds) to swap between.
    artifact_a: PathBuf,
    artifact_b: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cardest-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let data = spec.generate(7);
        let workload = SearchWorkload::build(&data, &spec, 7);
        let training = TrainingSet::new(&workload.queries, &workload.train);
        let mut cfg = MlpConfig::default();
        cfg.train.epochs = 3;
        let artifact_a = dir.join("model_a.cardest");
        let artifact_b = dir.join("model_b.cardest");
        for (path, seed) in [(&artifact_a, 1u64), (&artifact_b, 2u64)] {
            let (model, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, seed);
            model.save_artifact(path).unwrap();
        }
        Fixture {
            dir,
            data,
            spec,
            artifact_a,
            artifact_b,
        }
    }

    fn registry(&self) -> ModelRegistry {
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &self.data,
            self.spec.metric,
            0.05,
            7,
            "Sampling 5%",
        ));
        ModelRegistry::new(
            RegistryConfig {
                n_data: self.data.len(),
                dim: self.data.dim(),
                repr: repr_of(&self.data),
                monotone: true,
            },
            fallback,
            &self.artifact_a,
        )
        .unwrap()
    }

    /// A valid query taken from the dataset itself.
    fn query(&self, i: usize) -> OwnedQuery {
        match self.data.view(i % self.data.len()) {
            cardest_data::vector::VectorView::Dense(row) => {
                OwnedQuery::from_components(row, QueryRepr::Dense).unwrap()
            }
            other => panic!("tiny spec is dense, got {other:?}"),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn hot_reload_under_load_never_drops_or_tears_a_request() {
    let fx = Fixture::new("load");
    let registry = Arc::new(fx.registry());
    let n_data = fx.data.len() as f32;
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    let stop_reloading = Arc::new(AtomicBool::new(false));
    let reloader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop_reloading);
        let (a, b) = (fx.artifact_a.clone(), fx.artifact_b.clone());
        std::thread::spawn(move || {
            let mut flips = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = if flips % 2 == 0 { &b } else { &a };
                registry.reload(path).unwrap();
                flips += 1;
                std::thread::yield_now();
            }
            flips
        })
    };

    let servers: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let queries: Vec<OwnedQuery> = (0..PER_THREAD).map(|i| fx.query(t * 31 + i)).collect();
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                for q in &queries {
                    // Pin a generation exactly like a request handler does.
                    let model = registry.active();
                    assert!(
                        model.version >= last_version,
                        "active generation went backwards: {} after {}",
                        model.version,
                        last_version
                    );
                    last_version = model.version;
                    let est = model
                        .guarded
                        .serve(q.view(), 0.3)
                        .expect("valid query must never be dropped mid-reload");
                    assert!(
                        est.is_finite() && est >= 0.0 && est <= n_data,
                        "torn/garbage estimate {est} from generation {}",
                        model.version
                    );
                }
            })
        })
        .collect();

    for s in servers {
        s.join().unwrap();
    }
    stop_reloading.store(true, Ordering::Relaxed);
    let flips = reloader.join().unwrap();
    assert!(flips > 0, "reloader thread never got to run");

    // Not one increment lost across however many swaps happened.
    let stats = registry.stats();
    assert_eq!(
        stats.served,
        THREADS * PER_THREAD,
        "guard counters miscounted across {flips} reloads: {stats:?}"
    );
    assert_eq!(stats.rejected, 0, "{stats:?}");
    assert_eq!(registry.reload_stats().ok, flips);
    assert_eq!(registry.reload_stats().rejected, 0);
}

#[test]
fn in_flight_requests_finish_on_the_generation_they_started_with() {
    let fx = Fixture::new("inflight");
    let registry = fx.registry();
    let pinned = registry.active();
    assert_eq!(pinned.version, 1);

    // Two swaps land while the "request" is in flight.
    let v2 = registry.reload(&fx.artifact_b).unwrap();
    let v3 = registry.reload(&fx.artifact_a).unwrap();
    assert_eq!((v2, v3), (2, 3));
    assert_eq!(registry.active().version, 3);

    // The pinned generation still serves, and its counters still land in
    // the cumulative total.
    let before = registry.stats().served;
    pinned.guarded.serve(fx.query(0).view(), 0.3).unwrap();
    assert_eq!(registry.stats().served, before + 1);

    // Once the last reference drops, the next reload sweeps every retired
    // generation (nothing pins them any more) without losing a counter.
    drop(pinned);
    let total_before_sweep = registry.stats().served;
    registry.reload(&fx.artifact_b).unwrap();
    assert_eq!(registry.stats().served, total_before_sweep);
    assert_eq!(
        registry.reload_stats().retired_generations,
        0,
        "no in-flight references → the sweep frees every retired generation"
    );
}

#[test]
fn corrupt_artifact_reload_is_rejected_and_old_model_keeps_serving() {
    let fx = Fixture::new("corrupt");
    let registry = fx.registry();
    let v1 = registry.active().version;

    // Flip one payload bit — checksum must catch it.
    let mut bytes = std::fs::read(&fx.artifact_b).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let corrupt = fx.dir.join("corrupt.cardest");
    std::fs::write(&corrupt, &bytes).unwrap();

    match registry.reload(&corrupt) {
        Err(ReloadError::Artifact(ArtifactError::ChecksumMismatch { .. })) => {}
        other => panic!("expected a checksum rejection, got {other:?}"),
    }

    // Old model untouched and still serving.
    assert_eq!(registry.active().version, v1);
    registry
        .active()
        .guarded
        .serve(fx.query(3).view(), 0.3)
        .unwrap();
    assert_eq!(registry.reload_stats().rejected, 1);
    assert_eq!(registry.reload_stats().ok, 0);

    // A truncated file is a typed rejection too, not a panic.
    let cut = fx.dir.join("cut.cardest");
    let full = std::fs::read(&fx.artifact_b).unwrap();
    std::fs::write(&cut, &full[..10]).unwrap();
    match registry.reload(&cut) {
        Err(ReloadError::Artifact(ArtifactError::Truncated { .. })) => {}
        other => panic!("expected a truncation rejection, got {other:?}"),
    }
    assert_eq!(registry.active().version, v1);
    assert_eq!(registry.reload_stats().rejected, 2);

    // And a healthy artifact still swaps in afterwards.
    let v2 = registry.reload(&fx.artifact_b).unwrap();
    assert_eq!(v2, v1 + 1);
    assert_eq!(registry.active().version, v2);
}

#[test]
fn dimension_mismatch_is_rejected_before_the_swap() {
    let fx = Fixture::new("dim");
    // Train a model on an 8-d dataset; the 16-d registry must refuse it.
    let mut small = tiny_spec();
    small.dim = 8;
    let small_data = small.generate(9);
    let workload = SearchWorkload::build(&small_data, &small, 9);
    let training = TrainingSet::new(&workload.queries, &workload.train);
    let mut cfg = MlpConfig::default();
    cfg.train.epochs = 2;
    let (model, _) = MlpEstimator::train(&small_data, small.metric, &training, &cfg, 9);
    let wrong = fx.dir.join("wrong_dim.cardest");
    model.save_artifact(&wrong).unwrap();

    let registry = fx.registry();
    match registry.reload(&wrong) {
        Err(ReloadError::DimensionMismatch {
            model: 8,
            serving: 16,
        }) => {}
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    assert_eq!(registry.active().version, 1);
}

#[test]
fn concurrent_reloads_serialize_into_distinct_versions() {
    let fx = Fixture::new("races");
    let registry = Arc::new(fx.registry());
    const THREADS: usize = 6;
    const RELOADS: usize = 4;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let path = if t % 2 == 0 {
                fx.artifact_a.clone()
            } else {
                fx.artifact_b.clone()
            };
            std::thread::spawn(move || {
                (0..RELOADS)
                    .map(|_| registry.reload(&path).unwrap())
                    .collect::<Vec<u64>>()
            })
        })
        .collect();

    let mut versions: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    versions.sort_unstable();
    let expected: Vec<u64> = (2..2 + (THREADS * RELOADS) as u64).collect();
    assert_eq!(
        versions, expected,
        "racing reloads must never share or skip a version"
    );
    assert_eq!(registry.reload_stats().ok, (THREADS * RELOADS) as u64);
    assert_eq!(registry.active().version, versions[versions.len() - 1]);
}

#[test]
fn registry_is_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>(_: &T) {}
    let fx = Fixture::new("sync");
    assert_send_sync(&fx.registry());
}
