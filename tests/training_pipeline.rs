//! Determinism tests for the parallel training pipeline: the segment fan
//! over local models and the sharded minibatch gradients must produce
//! bit-identical models for every thread count, and the join fine-tune
//! fan must leave the transferred model equally thread-count independent.
//! A numerics pin fixes the exact bits a tiny GL+ trains to and serves,
//! so a kernel rewrite that moves a single bit fails here.

use cardest::core::tuning::TuningConfig;
use cardest::prelude::*;
use cardest_nn::artifact::fnv1a64;
use cardest_nn::trainer::TrainConfig;

fn tiny(seed: u64) -> (DatasetSpec, VectorData, SearchWorkload) {
    tiny_on(PaperDataset::ImageNet, seed)
}

fn tiny_on(dataset: PaperDataset, seed: u64) -> (DatasetSpec, VectorData, SearchWorkload) {
    let spec = DatasetSpec {
        n_data: 500,
        n_train_queries: 45,
        n_test_queries: 10,
        ..dataset.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    (spec, data, w)
}

fn gl_cfg(threads: usize) -> GlConfig {
    let mut cfg = GlConfig::for_variant(GlVariant::GlMlp);
    cfg.n_segments = 6;
    cfg.local_train = TrainConfig {
        epochs: 3,
        batch_size: 64,
        threads,
        ..Default::default()
    };
    cfg.global_train = TrainConfig {
        epochs: 3,
        batch_size: 64,
        threads,
        ..Default::default()
    };
    cfg
}

/// The GL training pipeline (segment-parallel locals + data-parallel
/// minibatch shards) yields bit-identical serialized models at 1, 2 and
/// 8 threads.
#[test]
fn gl_training_is_thread_count_independent() {
    let (spec, data, w) = tiny(901);
    let training = TrainingSet::new(&w.queries, &w.train);
    let reference = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(1))
        .to_json()
        .expect("serialize");
    for threads in [2usize, 8] {
        let got = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(threads))
            .to_json()
            .expect("serialize");
        assert!(
            got == reference,
            "GL training diverged at {threads} threads"
        );
    }
}

/// The join fine-tune fan (per-segment forward/backward jobs) leaves the
/// transferred model's estimates bit-identical for every thread count.
#[test]
fn join_finetune_is_thread_count_independent() {
    let (spec, data, w) = tiny(902);
    let j = JoinWorkload::build(&w, 20, 5, 902);
    let training = TrainingSet::new(&w.queries, &w.train);
    let base = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(1));

    let estimates = |threads: usize| -> Vec<f32> {
        let mut cfg = JoinConfig::for_variant(JoinVariant::GlJoin);
        cfg.base = gl_cfg(threads);
        let est = JoinEstimator::from_search_model(base.clone(), &w.queries, &j.train, &cfg);
        j.test_buckets[0]
            .iter()
            .map(|s| est.estimate_join_batched(&w.queries, &s.query_ids, s.tau))
            .collect()
    };
    let reference = estimates(1);
    assert!(reference.iter().all(|e| e.is_finite()));
    for threads in [2usize, 8] {
        assert_eq!(
            estimates(threads),
            reference,
            "join fine-tune diverged at {threads} threads"
        );
    }
}

/// FNV-1a over the serialized weights and over the bits of the served
/// estimates at B=1 (one `estimate_batch` call per pair) and B=64 (one
/// call for all pairs), for a tiny GL model on `dataset`.
fn gl_fingerprint(variant: GlVariant, dataset: PaperDataset, seed: u64) -> [u64; 3] {
    let (spec, data, w) = tiny_on(dataset, seed);
    let training = TrainingSet::new(&w.queries, &w.train);
    let mut cfg = GlConfig::for_variant(variant);
    cfg.n_segments = 5;
    cfg.local_train.epochs = 3;
    cfg.global_train.epochs = 3;
    cfg.tuning = TuningConfig::fast();
    cfg.tuning_segments = 1;
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
    let weights = fnv1a64(gl.to_json().expect("serialize").as_bytes());
    let pairs: Vec<(VectorView<'_>, f32)> = w
        .test
        .iter()
        .cycle()
        .take(64)
        .map(|s| (w.queries.view(s.query), s.tau))
        .collect();
    let bits = |ests: &[f32]| -> Vec<u8> {
        ests.iter()
            .flat_map(|e| e.to_bits().to_le_bytes())
            .collect()
    };
    let single: Vec<f32> = pairs
        .iter()
        .flat_map(|&p| gl.estimate_batch(&[p]))
        .collect();
    let batched = gl.estimate_batch(&pairs);
    assert!(batched.iter().all(|e| e.is_finite()));
    [weights, fnv1a64(&bits(&single)), fnv1a64(&bits(&batched))]
}

/// Pins GL numerics end to end: training and both inference batch shapes
/// must reproduce these exact bits. GL+ runs on one dense (angular) and
/// one binary (Hamming) spec; its tiny tuning picks strided convolutions,
/// so GL-CNN's default stack adds the stride-1, multi-channel max-pool
/// layer. The constants change only when a change is meant to change the
/// model's arithmetic.
#[test]
fn gl_plus_numerics_are_pinned() {
    let got = [
        gl_fingerprint(GlVariant::GlPlus, PaperDataset::GloVe300, 903),
        gl_fingerprint(GlVariant::GlPlus, PaperDataset::ImageNet, 904),
        gl_fingerprint(GlVariant::GlCnn, PaperDataset::ImageNet, 905),
    ];
    let want: [[u64; 3]; 3] = [
        [
            0x267d_1edf_a533_ab37,
            0xa5d7_84c4_8a1f_425d,
            0xd625_5be0_586a_72c5,
        ],
        [
            0x39cf_3d81_bd13_371d,
            0x15b9_5c0e_27b9_ad58,
            0x9dd4_a234_36cb_dddc,
        ],
        [
            0xfd73_f207_1330_d6f3,
            0x05da_f91e_e606_7429,
            0xfc45_7fef_5e5b_b779,
        ],
    ];
    assert_eq!(got, want, "GL+ weights or served estimates moved");
}
