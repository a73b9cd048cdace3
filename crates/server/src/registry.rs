//! The hot-reload model registry.
//!
//! One [`ModelRegistry`] owns the currently-serving model generation
//! behind an `Arc` swap: request threads grab `active()` (a cheap
//! read-lock + `Arc` clone), serve against that generation, and drop the
//! `Arc` when done. `reload` builds the *entire* new generation off to the
//! side — read file, verify checksum, deserialize, wrap in a fresh
//! [`GuardedEstimator`] — and only then swaps the pointer, so:
//!
//! * in-flight requests finish on the generation they started with (the
//!   old `Arc` stays alive until the last request drops it),
//! * a corrupt / truncated / version-skewed / wrong-kind artifact is
//!   rejected with a typed [`ReloadError`] and the old model keeps
//!   serving — a failed reload is invisible to traffic,
//! * a model trained for a different dimensionality than the serving
//!   dataset is rejected before the swap, not at the first query.
//!
//! Guard counters stay exact across swaps: retired generations are kept
//! until their last in-flight reference drops, then their counters are
//! folded into a running total, so `stats()` never loses an increment
//! that raced a reload.

use cardest_baselines::guarded::{GuardStats, GuardedEstimator};
use cardest_baselines::traits::CardinalityEstimator;
use cardest_nn::artifact::ArtifactError;
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::model::{LoadedModel, QueryRepr};

/// The fallback estimator every model generation shares — model-free
/// (sampling / histogram), so it cannot share a learned model's failure
/// modes, and `Arc`ed so reloads don't rebuild it.
pub type SharedFallback = Arc<dyn CardinalityEstimator + Send + Sync>;

/// One live model generation: the guarded estimator plus its provenance.
pub struct ServingModel {
    /// Monotonically increasing generation number (1 = initial load).
    pub version: u64,
    /// Artifact kind tag ("cardest.mlp", …).
    pub kind: String,
    /// Path the artifact was loaded from.
    pub source: PathBuf,
    /// The serving wrapper: validation, clamping, fallback, counters.
    pub guarded: GuardedEstimator<LoadedModel, SharedFallback>,
}

/// Everything that can go wrong swapping in a new model.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The artifact container or payload failed verification.
    Artifact(ArtifactError),
    /// The artifact verified but holds an estimator family the registry
    /// does not know how to serve.
    UnsupportedKind(String),
    /// The model was trained for a different query dimensionality than
    /// the serving dataset.
    DimensionMismatch { model: usize, serving: usize },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::Artifact(e) => write!(f, "reload rejected: {e}"),
            ReloadError::UnsupportedKind(k) => {
                write!(f, "reload rejected: unsupported estimator kind {k:?}")
            }
            ReloadError::DimensionMismatch { model, serving } => write!(
                f,
                "reload rejected: model expects {model}-d queries, serving dataset is {serving}-d"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

impl From<ArtifactError> for ReloadError {
    fn from(e: ArtifactError) -> Self {
        ReloadError::Artifact(e)
    }
}

/// Serving-side configuration the registry validates reloads against.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Dataset size — the guard's output clamp.
    pub n_data: usize,
    /// Serving dataset dimensionality; reloads of mismatched models are
    /// rejected.
    pub dim: usize,
    /// Query representation of the serving dataset.
    pub repr: QueryRepr,
    /// Enable the guard's in-batch monotone-in-τ repair.
    pub monotone: bool,
}

/// Counts of reload outcomes: `/stats`' `reloads` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ReloadStats {
    pub ok: u64,
    pub rejected: u64,
    /// Retired generations still pinned by in-flight requests
    /// (diagnostic; drained generations are swept on reload).
    pub retired_generations: u64,
}

struct Inner {
    next_version: u64,
    /// Generations swapped out but possibly still referenced by in-flight
    /// requests. Swept on every reload: once the last external `Arc`
    /// drops, the generation's counters are folded into `folded` and the
    /// entry is freed.
    retired: Vec<Arc<ServingModel>>,
    /// Counter totals of fully-drained retired generations.
    folded: GuardStats,
}

/// Hot-swappable holder of the active [`ServingModel`].
pub struct ModelRegistry {
    cfg: RegistryConfig,
    /// Live dataset size — online inserts grow it past `cfg.n_data`, and
    /// each reload bakes the current value in as the new generation's
    /// guard clamp (the clamp tracks growth at swap granularity).
    n_data_live: AtomicUsize,
    fallback: SharedFallback,
    active: RwLock<Arc<ServingModel>>,
    inner: Mutex<Inner>,
    reloads_ok: AtomicU64,
    reloads_rejected: AtomicU64,
}

fn add_stats(into: &mut GuardStats, s: GuardStats) {
    into.served += s.served;
    into.rejected += s.rejected;
    into.fallbacks += s.fallbacks;
    into.clamped += s.clamped;
    into.monotone_fixes += s.monotone_fixes;
}

impl ModelRegistry {
    /// Loads the initial model (generation 1) from `path`.
    pub fn new(
        cfg: RegistryConfig,
        fallback: SharedFallback,
        path: &Path,
    ) -> Result<Self, ReloadError> {
        let first = Self::build_generation(&cfg, &fallback, path, 1, cfg.n_data)?;
        Ok(ModelRegistry {
            n_data_live: AtomicUsize::new(cfg.n_data),
            cfg,
            fallback,
            active: RwLock::new(Arc::new(first)),
            inner: Mutex::new(Inner {
                next_version: 2,
                retired: Vec::new(),
                folded: GuardStats::default(),
            }),
            reloads_ok: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
        })
    }

    fn build_generation(
        cfg: &RegistryConfig,
        fallback: &SharedFallback,
        path: &Path,
        version: u64,
        n_data: usize,
    ) -> Result<ServingModel, ReloadError> {
        let (model, kind) = LoadedModel::load(path)?;
        if let Some(model_dim) = model.expected_dim() {
            if model_dim != cfg.dim {
                return Err(ReloadError::DimensionMismatch {
                    model: model_dim,
                    serving: cfg.dim,
                });
            }
        }
        let guarded =
            GuardedEstimator::new(model, fallback.clone(), n_data).with_monotone(cfg.monotone);
        Ok(ServingModel {
            version,
            kind,
            source: path.to_path_buf(),
            guarded,
        })
    }

    /// The current generation. Requests hold the returned `Arc` for their
    /// whole lifetime, so a concurrent swap can never tear the estimator
    /// out from under them.
    pub fn active(&self) -> Arc<ServingModel> {
        self.active
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Loads `path` and, if every verification layer passes, swaps it in
    /// as the new active generation, returning its version. On any error
    /// the previous model keeps serving untouched.
    ///
    /// Reloads are serialized: concurrent calls apply one at a time, each
    /// producing a distinct version.
    pub fn reload(&self, path: &Path) -> Result<u64, ReloadError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let version = inner.next_version;
        let n_data = self.n_data_live.load(Ordering::Relaxed);
        let next = match Self::build_generation(&self.cfg, &self.fallback, path, version, n_data) {
            Ok(m) => m,
            Err(e) => {
                self.reloads_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        inner.next_version += 1;
        let old = {
            let mut active = self.active.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *active, Arc::new(next))
        };
        inner.retired.push(old);
        // Sweep drained generations: strong_count == 1 means the retired
        // list holds the only reference, so no thread can still increment
        // its counters — folding now loses nothing.
        let drained: Vec<Arc<ServingModel>> = {
            let (gone, kept): (Vec<_>, Vec<_>) = inner
                .retired
                .drain(..)
                .partition(|m| Arc::strong_count(m) == 1);
            inner.retired = kept;
            gone
        };
        for m in drained {
            add_stats(&mut inner.folded, m.guarded.stats());
        }
        self.reloads_ok.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Cumulative guard counters over every generation ever served —
    /// active, retired-but-referenced, and drained. A request that lands
    /// on an old generation mid-swap is still counted exactly once.
    pub fn stats(&self) -> GuardStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = inner.folded;
        for m in &inner.retired {
            add_stats(&mut total, m.guarded.stats());
        }
        drop(inner);
        add_stats(&mut total, self.active().guarded.stats());
        total
    }

    /// Reload outcome counts.
    pub fn reload_stats(&self) -> ReloadStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        ReloadStats {
            ok: self.reloads_ok.load(Ordering::Relaxed),
            rejected: self.reloads_rejected.load(Ordering::Relaxed),
            retired_generations: inner.retired.len() as u64,
        }
    }

    /// The serving configuration (dataset size, dim, representation).
    pub fn config(&self) -> &RegistryConfig {
        &self.cfg
    }

    /// Publishes a new dataset size after online inserts. Takes effect as
    /// the guard clamp at the *next* reload — generations are immutable,
    /// so an already-serving model keeps the clamp it was built with.
    pub fn set_n_data(&self, n: usize) {
        self.n_data_live.store(n, Ordering::Relaxed);
    }

    /// The dataset size the next generation will be clamped to.
    pub fn n_data(&self) -> usize {
        self.n_data_live.load(Ordering::Relaxed)
    }
}
