//! Train-once artifacts.
//!
//! Training GL+ costs about a minute on GloVe and two on Aminer, and is
//! not a timed metric, so each workload's artifact is trained on the first
//! run in a checkout and reused afterwards. The file name carries a key
//! over everything that determines the bytes: the dataset spec, the data
//! seed, the `GlConfig`, and a hash of the sources that train and
//! serialize the model. Any change to those sources therefore trains a new
//! artifact instead of silently reusing an old one, and
//! [`self_test`] shows that a fresh training reproduces the reused bytes.

use cardest_baselines::traits::TrainingSet;
use cardest_core::gl::{GlConfig, GlEstimator};
use cardest_data::paper::DatasetSpec;
use cardest_data::vector::VectorData;
use cardest_data::workload::SearchWorkload;
use cardest_nn::artifact::fnv1a64;
use std::path::{Path, PathBuf};

/// Directory (relative to the checkout root) holding trained artifacts.
pub const CACHE_DIR: &str = ".bench_cache";

/// Source trees whose contents determine a trained artifact's bytes.
const SOURCE_ROOTS: [&str; 10] = [
    "crates/nn",
    "crates/data",
    "crates/cluster",
    "crates/core",
    "crates/baselines",
    "shims/rand",
    "shims/serde",
    "shims/serde_derive",
    "shims/serde_json",
    "perfbench/src/artifact.rs",
];

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(path)? {
        let p = entry?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_files(&p, out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(p);
        }
    }
    Ok(())
}

/// FNV-1a over the sorted (path, contents) list of every source file that
/// feeds training and serialization.
pub fn source_hash(root: &Path) -> std::io::Result<u64> {
    let mut files = Vec::new();
    for r in SOURCE_ROOTS {
        collect_files(&root.join(r), &mut files)?;
    }
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        buf.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        buf.push(0);
        buf.extend_from_slice(&std::fs::read(f)?);
        buf.push(0);
    }
    Ok(fnv1a64(&buf))
}

/// The cache key of one artifact.
pub fn artifact_key(spec: &DatasetSpec, data_seed: u64, cfg: &GlConfig, sources: u64) -> u64 {
    let desc = format!("{spec:?}|seed={data_seed}|{cfg:?}|src={sources:016x}");
    fnv1a64(desc.as_bytes())
}

/// Where the artifact for this key lives.
pub fn artifact_path(root: &Path, spec: &DatasetSpec, key: u64) -> PathBuf {
    root.join(CACHE_DIR).join(format!(
        "gl_{}_{key:016x}.cardest",
        spec.dataset.name().to_ascii_lowercase()
    ))
}

/// Trains GL+ on the workload exactly as the artifact key describes.
pub fn train(
    data: &VectorData,
    spec: &DatasetSpec,
    w: &SearchWorkload,
    cfg: &GlConfig,
) -> GlEstimator {
    let training = TrainingSet::new(&w.queries, &w.train);
    GlEstimator::train(data, spec.metric, &training, &w.table, cfg)
}

/// Where the artifact for `spec` trained from `data_seed` lives under the
/// current sources.
pub fn path_for(root: &Path, spec: &DatasetSpec, data_seed: u64) -> Result<PathBuf, String> {
    let sources = source_hash(root).map_err(|e| format!("hash sources: {e}"))?;
    Ok(artifact_path(
        root,
        spec,
        artifact_key(spec, data_seed, &GlConfig::default(), sources),
    ))
}

/// Returns the artifact path, training and saving it first if absent.
pub fn ensure(
    root: &Path,
    spec: &DatasetSpec,
    data_seed: u64,
    data: &VectorData,
    w: &SearchWorkload,
) -> Result<PathBuf, String> {
    let path = path_for(root, spec, data_seed)?;
    if !path.exists() {
        eprintln!(
            "perfbench: training GL+ on {} (once per source tree) -> {}",
            spec.dataset.name(),
            path.display()
        );
        std::fs::create_dir_all(path.parent().unwrap_or(root)).map_err(|e| e.to_string())?;
        train(data, spec, w, &GlConfig::default())
            .save_artifact(&path)
            .map_err(|e| format!("save artifact: {e}"))?;
    }
    Ok(path)
}

/// Trains afresh into a scratch file and compares it byte for byte with
/// the reused artifact at `cached`. Returns the shared checksum.
pub fn self_test(
    cached: &Path,
    spec: &DatasetSpec,
    data: &VectorData,
    w: &SearchWorkload,
    scratch: &Path,
) -> Result<u64, String> {
    let fresh = scratch.join("selftest.cardest");
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    train(data, spec, w, &GlConfig::default())
        .save_artifact(&fresh)
        .map_err(|e| format!("save artifact: {e}"))?;
    let a = std::fs::read(cached).map_err(|e| e.to_string())?;
    let b = std::fs::read(&fresh).map_err(|e| e.to_string())?;
    std::fs::remove_file(&fresh).ok();
    if a != b {
        return Err(format!(
            "fresh training differs from the reused artifact {} ({} vs {} bytes)",
            cached.display(),
            b.len(),
            a.len()
        ));
    }
    Ok(fnv1a64(&a))
}

/// Checksum of an artifact file, for provenance.
pub fn checksum(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| fnv1a64(&b))
        .map_err(|e| format!("read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_core::tuning::TuningConfig;
    use cardest_data::paper::PaperDataset;
    use cardest_nn::trainer::TrainConfig;

    /// Reuse is only sound if training is a pure function of the key:
    /// train a small GL+ twice and compare the artifact bytes.
    #[test]
    fn training_twice_gives_identical_artifacts() {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 24,
            n_test_queries: 6,
            ..PaperDataset::GloVe300.spec()
        };
        let cfg = GlConfig {
            n_segments: 4,
            local_train: TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
            tuning: TuningConfig::fast(),
            tuning_segments: 1,
            ..GlConfig::default()
        };
        let data = spec.generate(3);
        let w = SearchWorkload::build(&data, &spec, 3);
        let a = train(&data, &spec, &w, &cfg).to_json().unwrap();
        let b = train(&data, &spec, &w, &cfg).to_json().unwrap();
        assert!(a == b, "two trainings of the same key differ");
    }

    #[test]
    fn key_changes_with_every_input() {
        let spec = PaperDataset::GloVe300.spec();
        let cfg = GlConfig::default();
        let base = artifact_key(&spec, 42, &cfg, 1);
        assert_ne!(base, artifact_key(&spec, 43, &cfg, 1));
        assert_ne!(base, artifact_key(&spec, 42, &cfg, 2));
        let other = GlConfig {
            n_segments: 8,
            ..GlConfig::default()
        };
        assert_ne!(base, artifact_key(&spec, 42, &other, 1));
        let spec2 = DatasetSpec {
            n_data: 100,
            ..spec
        };
        assert_ne!(base, artifact_key(&spec2, 42, &cfg, 1));
    }
}
