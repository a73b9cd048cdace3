//! Standing the real server up with the shipped defaults, and timing it.

use cardest_baselines::sampling::SamplingEstimator;
use cardest_core::drift::DriftConfig;
use cardest_core::gl::GlEstimator;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_server::client::HttpClient;
use cardest_server::model::LoadedModel;
use cardest_server::registry::SharedFallback;
use cardest_server::{
    IngestService, ModelRegistry, RegistryConfig, Server, ServerConfig, ServerHandle,
};
use cardest_store::{DurableIngest, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::prep::{Served, DATA_SEED};

/// Share of the dataset the fallback samples (the shipped 1%).
pub const FALLBACK_RATIO: f32 = 0.01;

/// A running server and what standing it up cost.
pub struct Stood {
    pub handle: ServerHandle,
    /// From the start of the fallback build until the probe is answered.
    pub setup_s: f64,
    /// Start and end of `ModelRegistry::new`.
    pub load: (Instant, Instant),
    store_dir: Option<PathBuf>,
}

impl Stood {
    pub fn shutdown(self) {
        self.handle.shutdown();
        if let Some(d) = self.store_dir {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

/// The server configuration every workload runs: `cardest-serve`'s
/// defaults (4 workers, 500 µs coalesce window).
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// The fallback every generation shares.
pub fn fallback(served: &Served) -> SharedFallback {
    Arc::new(SamplingEstimator::with_ratio(
        &served.data,
        served.metric(),
        FALLBACK_RATIO,
        DATA_SEED,
        "Sampling 1%",
    ))
}

/// The mutable half: `gl` and the workload it was trained on wrapped for
/// online inserts, behind a durable store created at `dir`.
pub fn durable_store(
    served: &Served,
    gl: GlEstimator,
    dir: &Path,
) -> Result<DurableIngest, String> {
    let w = &served.workload;
    let upd = UpdatableGl::new(
        served.data.clone(),
        served.metric(),
        gl,
        w.queries.clone(),
        w.train.clone(),
        w.test.clone(),
        &w.table,
        UpdateConfig::default(),
    );
    DurableIngest::create(dir, upd, StoreConfig::default()).map_err(|e| e.to_string())
}

/// Stands the server up and waits for the answer to `probe`. With
/// `store_dir`, the server is the mutable one (`Server::start_with_ingest`,
/// synced writes, default drift monitor).
pub fn stand_up(served: &Served, probe: &str, store_dir: Option<&Path>) -> Result<Stood, String> {
    let t0 = Instant::now();
    let fb = fallback(served);
    let t_load = Instant::now();
    let registry = ModelRegistry::new(
        RegistryConfig {
            n_data: served.data.len(),
            dim: served.data.dim(),
            repr: served.repr(),
            monotone: true,
        },
        fb,
        &served.artifact,
    )
    .map_err(|e| format!("load model: {e}"))?;
    let load = (t_load, Instant::now());
    let registry = Arc::new(registry);
    let handle = match store_dir {
        Some(dir) => {
            // The store wraps the weights the registry just loaded, as
            // `cardest-serve --mutable` does.
            let gl = match registry.active().guarded.inner() {
                LoadedModel::Gl(gl) => gl.clone(),
                _ => return Err("the mutable server needs a GL artifact".to_string()),
            };
            let store = durable_store(served, gl, dir)?;
            let svc = IngestService::new(store, DriftConfig::default(), dir.join("tuned.cardest"));
            Server::start_with_ingest(server_config(), registry, svc)
        }
        None => Server::start(server_config(), registry),
    }
    .map_err(|e| format!("start server: {e}"))?;
    let answered = HttpClient::connect(handle.addr())
        .and_then(|mut c| c.post_json("/estimate", probe))
        .map_err(|e| format!("probe: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if answered.status != 200 {
        handle.shutdown();
        return Err(format!(
            "probe answered {}: {}",
            answered.status,
            answered.text()
        ));
    }
    Ok(Stood {
        handle,
        setup_s,
        load,
        store_dir: store_dir.map(Path::to_path_buf),
    })
}

/// Resident set size of this process in MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
