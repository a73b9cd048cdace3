//! The global-local framework of §3.3 — the paper's headline estimators.
//!
//! The dataset is segmented (PCA + batch k-means); **phase 1** trains one
//! small local regressor per segment on the per-segment cardinalities
//! `card^{j}[i]`, and **phase 2** trains the global model `G` to select
//! which local models a query needs (Algorithm 2). The final estimate is
//! the sum of the selected local estimates:
//! `card̂(q, τ) = Σ_{i : G selects i} exp(F[i](z_q ⊕ z_τ ⊕ z_C))`.
//!
//! Local models take the centroid-distance feature `x_C` instead of sample
//! distances `x_D` — the simplification Fig. 5 introduces ("the distance
//! distribution in each data segment can be easily learned by the other
//! layers faster, under the global-local framework").
//!
//! Four variants share this code (Table 2):
//! * **Local+** — per-segment local models with tuned CNN embeddings, *no*
//!   global model: every local model is evaluated (slower, Exp-9),
//! * **GL-MLP** — global + locals with MLP query embeddings,
//! * **GL-CNN** — global + locals with the default segmentation CNN,
//! * **GL+** — GL-CNN plus the greedy hyperparameter tuning of §5.2.

use crate::arch::{build_regressor, tau_features, ModelDims, QueryEmbed, TAU_DIM};
use crate::global::{GlobalConfig, GlobalModel};
use crate::labels::SegmentLabels;
use crate::tuning::{tune_query_embedding, TuningConfig};
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_nn::artifact::ArtifactError;
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::BranchNet;
use cardest_nn::scratch::with_thread_scratch;
use cardest_nn::tensor::dot;
use cardest_nn::trainer::{train_branch_regression, TrainConfig};
use cardest_nn::{Matrix, Scratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Artifact kind tag identifying a serialized [`GlEstimator`] (any
/// variant — the variant travels inside the payload).
pub const GL_ARTIFACT_KIND: &str = "cardest.gl";

/// Which member of the global-local family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GlVariant {
    /// Data segmentation + tuned CNN locals, no global model.
    LocalPlus,
    /// Global-local with MLP query embeddings.
    GlMlp,
    /// Global-local with the default segmentation CNN.
    GlCnn,
    /// GL-CNN + automatic hyperparameter tuning (Algorithm 3).
    GlPlus,
}

impl GlVariant {
    pub fn name(self) -> &'static str {
        match self {
            GlVariant::LocalPlus => "Local+",
            GlVariant::GlMlp => "GL-MLP",
            GlVariant::GlCnn => "GL-CNN",
            GlVariant::GlPlus => "GL+",
        }
    }

    fn uses_global(self) -> bool {
        !matches!(self, GlVariant::LocalPlus)
    }
}

/// Configuration for the global-local estimators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlConfig {
    pub variant: GlVariant,
    /// Number of data segments (the paper's default is 100 at full scale;
    /// 16 matches our scaled datasets — Fig. 11 sweeps this).
    pub n_segments: usize,
    /// Number of query segments for CNN embeddings.
    pub n_query_segments: usize,
    pub dims: ModelDims,
    /// Selection cut-off σ of the global model.
    pub sigma: f32,
    /// Cardinality penalty in the global loss (Exp-6 ablation).
    pub penalty: bool,
    pub local_train: TrainConfig,
    pub global_train: TrainConfig,
    /// Cap on per-local-model training samples (positives are always kept;
    /// zero-cardinality samples are subsampled to at most twice the
    /// positives within this budget).
    pub max_local_samples: usize,
    /// Algorithm 3 settings (used by GL+ / Local+). Tuning runs on
    /// `tuning_segments` representative (largest) segments and the best
    /// configuration is shared by all local models — a scaled-down stand-in
    /// for the paper's per-segment tuning, documented in DESIGN.md.
    pub tuning: TuningConfig,
    pub tuning_segments: usize,
    pub seed: u64,
}

impl Default for GlConfig {
    fn default() -> Self {
        GlConfig {
            variant: GlVariant::GlPlus,
            n_segments: 16,
            n_query_segments: 8,
            dims: ModelDims::default(),
            sigma: 0.5,
            penalty: true,
            local_train: TrainConfig {
                epochs: 25,
                batch_size: 128,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 30,
                batch_size: 128,
                ..Default::default()
            },
            max_local_samples: 4000,
            tuning: TuningConfig::default(),
            tuning_segments: 2,
            seed: 0,
        }
    }
}

impl GlConfig {
    pub fn for_variant(variant: GlVariant) -> Self {
        GlConfig {
            variant,
            ..Default::default()
        }
    }
}

/// A trained global-local estimator.
///
/// Serializable: a trained model can be exported with serde (the paper
/// trains in PyTorch and copies parameters into a C++ engine for serving;
/// here save/load round-trips the whole estimator).
#[derive(Clone, Serialize, Deserialize)]
pub struct GlEstimator {
    variant: GlVariant,
    segmentation: Segmentation,
    locals: Vec<BranchNet>,
    global: Option<GlobalModel>,
    /// Threshold normalizer for the expanded τ features (the largest τ
    /// seen in training).
    tau_scale: f32,
    /// Per-segment radii, cached for the overlap features.
    radii: Vec<f32>,
}

impl GlEstimator {
    /// Trains the selected variant: segmentation, per-segment labels,
    /// phase-1 local models, phase-2 global model.
    pub fn train(
        data: &VectorData,
        metric: Metric,
        training: &TrainingSet<'_>,
        table: &cardest_data::ground_truth::DistanceTable,
        cfg: &GlConfig,
    ) -> Self {
        assert!(!training.is_empty(), "training set is empty");
        let seg_cfg = SegmentationConfig {
            n_segments: cfg.n_segments,
            pca_rank: 8,
            pca_iters: 10,
            method: SegmentationMethod::PcaKMeans,
            seed: cfg.seed,
        };
        let segmentation = Segmentation::fit(data, metric, &seg_cfg);
        let labels = SegmentLabels::compute(table, training.samples, &segmentation);
        Self::train_with_segmentation(data, metric, training, segmentation, &labels, cfg)
    }

    /// Trains on a pre-fitted segmentation and labels (used by Fig. 11's
    /// segment-count sweep and by the update machinery, which re-train
    /// with modified labels).
    pub fn train_with_segmentation(
        data: &VectorData,
        _metric: Metric,
        training: &TrainingSet<'_>,
        segmentation: Segmentation,
        labels: &SegmentLabels,
        cfg: &GlConfig,
    ) -> Self {
        let dim = data.dim();
        let n_segments = segmentation.n_segments();
        let tau_scale = training
            .samples
            .iter()
            .map(|s| s.tau)
            .fold(0.0f32, f32::max)
            .max(1e-6);

        // Per-query feature caches shared by every phase.
        let (xq_cache, xc_cache) = build_feature_caches(training.queries, &segmentation);

        // Query embedding: MLP, default CNN, or tuned CNN (Algorithm 3).
        let query_embed = match cfg.variant {
            GlVariant::GlMlp => QueryEmbed::Mlp {
                hidden: cfg.dims.embed_q * 2,
            },
            GlVariant::GlCnn => QueryEmbed::default_cnn(dim, cfg.n_query_segments),
            GlVariant::GlPlus | GlVariant::LocalPlus => {
                tune_shared_embedding(dim, n_segments, training, labels, &xq_cache, &xc_cache, cfg)
            }
        };

        // Phase 1: one local regressor per segment.
        let radii_vec: Vec<f32> = (0..n_segments).map(|i| segmentation.radius(i)).collect();
        let locals = train_locals(
            dim,
            n_segments,
            tau_scale,
            &radii_vec,
            training,
            labels,
            &xq_cache,
            &xc_cache,
            &query_embed,
            cfg,
        );

        // Phase 2: the global discriminative model.
        let global = if cfg.variant.uses_global() {
            let gcfg = GlobalConfig {
                query_embed: query_embed.clone(),
                dims: cfg.dims,
                sigma: cfg.sigma,
                penalty: cfg.penalty,
                tau_scale,
                radii: radii_vec.clone(),
                train: cfg.global_train,
            };
            let (g, _) =
                GlobalModel::train(training, labels, &xq_cache, &xc_cache, &gcfg, cfg.seed);
            Some(g)
        } else {
            None
        };

        let radii = (0..segmentation.n_segments())
            .map(|i| segmentation.radius(i))
            .collect();
        GlEstimator {
            variant: cfg.variant,
            segmentation,
            locals,
            global,
            tau_scale,
            radii,
        }
    }

    pub fn variant(&self) -> GlVariant {
        self.variant
    }

    pub fn segmentation(&self) -> &Segmentation {
        &self.segmentation
    }

    pub(crate) fn segmentation_mut(&mut self) -> &mut Segmentation {
        &mut self.segmentation
    }

    pub fn n_segments(&self) -> usize {
        self.locals.len()
    }

    pub fn global(&self) -> Option<&GlobalModel> {
        self.global.as_ref()
    }

    pub fn global_mut(&mut self) -> Option<&mut GlobalModel> {
        self.global.as_mut()
    }

    pub(crate) fn locals(&self) -> &[BranchNet] {
        &self.locals
    }

    pub(crate) fn locals_mut(&mut self) -> &mut [BranchNet] {
        &mut self.locals
    }

    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut [BranchNet], Option<&mut GlobalModel>, &Segmentation) {
        (&mut self.locals, self.global.as_mut(), &self.segmentation)
    }

    /// Threshold normalizer used by the expanded τ features.
    pub fn tau_scale(&self) -> f32 {
        self.tau_scale
    }

    /// Serializes the trained estimator to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores an estimator serialized by [`GlEstimator::to_json`].
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Saves the trained estimator as a versioned, checksummed artifact
    /// (see `cardest_nn::artifact` for the container layout). The write is
    /// atomic: a crash mid-save leaves any previous artifact intact.
    pub fn save_artifact(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let json = self
            .to_json()
            .map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        cardest_nn::artifact::write_atomic(path, GL_ARTIFACT_KIND, json.as_bytes())
    }

    /// Loads an artifact written by [`GlEstimator::save_artifact`],
    /// verifying magic, format version, kind, and checksum first — a
    /// truncated, bit-flipped, or version-skewed file is a typed `Err`,
    /// never silently-wrong weights.
    pub fn load_artifact(path: &std::path::Path) -> Result<Self, ArtifactError> {
        let json = cardest_nn::artifact::read_json_payload(path, GL_ARTIFACT_KIND)?;
        Self::from_json(&json).map_err(|e| ArtifactError::Malformed(e.to_string()))
    }

    /// Estimate with the number of local models evaluated (Exp-9 explains
    /// GL+'s speed by this count). Single-query wrapper around
    /// [`GlEstimator::estimate_batch_with_stats`].
    pub fn estimate_with_stats(&self, q: VectorView<'_>, tau: f32) -> (f32, usize) {
        self.estimate_batch_with_stats(&[(q, tau)])[0]
    }

    /// Batched estimation: per-query estimates and local-model evaluation
    /// counts, in input order.
    ///
    /// One batched global pass selects segments for the whole batch; the
    /// batch is then *grouped by selected segment* so each local model runs
    /// a single `B_i × d` forward pass over the queries that need it, and
    /// the per-segment batches are fanned across cores with scoped threads
    /// (each worker owns its own [`Scratch`](cardest_nn::Scratch)).
    /// Per-query contributions are accumulated in ascending segment order —
    /// the same order as single-query evaluation — so batched and
    /// sequential results agree within the trait's 1e-5 relative-error
    /// contract. (They are no longer guaranteed bitwise identical: the
    /// blocked GEMM picks its kernel by operand shape, so a `B_i × d`
    /// forward pass may reassociate differently from a `1 × d` one.)
    ///
    /// Two pieces of domain knowledge bound each local estimate:
    /// * a segment cannot contribute more than its member count, so
    ///   `exp(o_i)` is capped at `|D[i]|` (the model regresses in log
    ///   space, where a small extrapolation error exponentiates into a
    ///   huge overestimate),
    /// * an estimate below one half rounds to an empty segment — the
    ///   Q-error floor used during training makes zero-cardinality
    ///   segments regress to ≈0.1, and summing that residue across all
    ///   segments would otherwise inflate low-cardinality queries.
    ///
    /// If the global model selects nothing, the segment with the nearest
    /// centroid is evaluated as a fallback (a selectivity-0 answer is
    /// almost always wrong for a query drawn from the data).
    pub fn estimate_batch_with_stats(
        &self,
        queries: &[(VectorView<'_>, f32)],
    ) -> Vec<(f32, usize)> {
        if queries.is_empty() {
            return Vec::new();
        }
        let b = queries.len();
        let n_seg = self.locals.len();
        let dim = self.locals[0].in_dims()[0];

        // Per-query features, assembled once for the whole batch.
        let taus: Vec<f32> = queries.iter().map(|&(_, tau)| tau).collect();
        let mut xq = Matrix::zeros(b, dim);
        let mut qbuf: Vec<f32> = Vec::with_capacity(dim);
        for (r, &(q, _)) in queries.iter().enumerate() {
            q.write_dense(&mut qbuf);
            xq.row_mut(r).copy_from_slice(&qbuf);
        }
        let mut xcd = Matrix::zeros(b, n_seg); // raw centroid distances
        batched_centroid_distances(&self.segmentation, queries, &xq, &mut xcd);
        let mut xt = Matrix::zeros(b, TAU_DIM);
        let mut xca = Matrix::zeros(b, 2 * n_seg); // aux (overlap) features
        for (r, &tau) in taus.iter().enumerate() {
            xt.row_mut(r)
                .copy_from_slice(&tau_features(tau, self.tau_scale));
            aux_features_into(xcd.row(r), &self.radii, tau, xca.row_mut(r));
        }

        // Segment selection: one batched global forward for all queries.
        let mut selected = vec![false; b * n_seg];
        match &self.global {
            Some(g) => {
                let probs = g.probabilities_batch(&xq, &taus, &xcd);
                let sigma = g.sigma();
                for r in 0..b {
                    let row = probs.row(r);
                    for (sel, &p) in selected[r * n_seg..(r + 1) * n_seg].iter_mut().zip(row) {
                        *sel = p > sigma;
                    }
                    // Recall guards: the router's own argmax and the
                    // query's home segment (nearest centroid) are always
                    // evaluated — a query drawn from the data almost always
                    // has matches in its own cluster, and evaluating two
                    // extra locals costs microseconds while a missed heavy
                    // segment costs the whole answer (the failure mode
                    // Fig. 9 measures).
                    if let Some((am, _)) = row
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| a.total_cmp(b))
                    {
                        selected[r * n_seg + am] = true;
                    }
                }
            }
            None => selected.fill(true),
        }
        for r in 0..b {
            let nearest = xcd
                .row(r)
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map_or(0, |(i, _)| i);
            selected[r * n_seg + nearest] = true;
        }

        // Group queries by selected segment so each local model runs one
        // B_i × d forward over exactly the queries that need it.
        let groups: Vec<Vec<usize>> = (0..n_seg)
            .map(|i| (0..b).filter(|&r| selected[r * n_seg + i]).collect())
            .collect();

        // Per-segment ln-card predictions for the grouped rows.
        let mut seg_preds: Vec<Vec<f32>> = vec![Vec::new(); n_seg];
        let work: usize = groups.iter().map(Vec::len).sum();
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        if work <= 64 || threads <= 1 {
            // Small batches: the scoped-thread fan-out costs more than it
            // saves; run the per-segment batches on this thread.
            with_thread_scratch(|scratch| {
                for (seg, preds) in seg_preds.iter_mut().enumerate() {
                    *preds =
                        eval_local_group(&self.locals[seg], &groups[seg], &xq, &xt, &xca, scratch);
                }
            });
        } else {
            let chunk = n_seg.div_ceil(threads).max(1);
            std::thread::scope(|s| {
                for (t, chunk_preds) in seg_preds.chunks_mut(chunk).enumerate() {
                    let (groups, locals) = (&groups, &self.locals);
                    let (xq, xt, xca) = (&xq, &xt, &xca);
                    let seg0 = t * chunk;
                    s.spawn(move || {
                        let mut scratch = Scratch::new();
                        for (preds, seg) in chunk_preds.iter_mut().zip(seg0..) {
                            *preds = eval_local_group(
                                &locals[seg],
                                &groups[seg],
                                xq,
                                xt,
                                xca,
                                &mut scratch,
                            );
                        }
                    });
                }
            });
        }

        // Accumulate per query in ascending segment order (identical to the
        // sequential evaluation order).
        let mut totals = vec![0.0f32; b];
        let mut max_single = vec![0.0f32; b];
        let mut evaluated = vec![0usize; b];
        for (i, (rows, preds)) in groups.iter().zip(&seg_preds).enumerate() {
            let cap = self.segmentation.members(i).len() as f32;
            for (&r, &o) in rows.iter().zip(preds) {
                evaluated[r] += 1;
                let est = decode_log_card(o, cap);
                max_single[r] = max_single[r].max(est);
                if est >= 0.5 {
                    totals[r] += est;
                }
            }
        }
        // If every contribution fell below the rounding cut, fall back to
        // the largest single one rather than answering a hard zero.
        totals
            .into_iter()
            .zip(max_single)
            .zip(evaluated)
            // exact zero sentinel for "no segment answered"; totals are sums of exact zeros
            .map(|((t, m), n)| (if t == 0.0 { m } else { t }, n))
            .collect()
    }

    /// Bytes of all local models plus the global model (Table 5).
    fn all_param_bytes(&self) -> usize {
        let locals: usize = self.locals.iter().map(BranchNet::param_bytes).sum();
        locals + self.global.as_ref().map_or(0, GlobalModel::param_bytes)
    }
}

impl CardinalityEstimator for GlEstimator {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        self.estimate_with_stats(q, tau).0
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        self.estimate_batch_with_stats(queries)
            .into_iter()
            .map(|(e, _)| e)
            .collect()
    }

    fn model_bytes(&self) -> usize {
        self.all_param_bytes()
    }

    fn expected_dim(&self) -> Option<usize> {
        self.locals.first().map(|l| l.in_dims()[0])
    }

    fn tau_bound(&self) -> Option<f32> {
        Some(self.tau_scale)
    }
}

/// Runs one local model over the gathered rows that selected its segment:
/// a single `B_i × d` forward pass. Returns the raw `ln card` outputs in
/// the order of `rows`.
fn eval_local_group(
    local: &BranchNet,
    rows: &[usize],
    xq: &Matrix,
    xt: &Matrix,
    xca: &Matrix,
    scratch: &mut Scratch,
) -> Vec<f32> {
    if rows.is_empty() {
        return Vec::new();
    }
    let gq = xq.gather_rows(rows);
    let gt = xt.gather_rows(rows);
    let gc = xca.gather_rows(rows);
    let pred = local.infer(&[&gq, &gt, &gc], scratch);
    let out = (0..rows.len()).map(|r| pred.get(r, 0)).collect();
    scratch.recycle(pred);
    out
}

/// Per-segment auxiliary features for one (query, τ) pair: the centroid
/// distances `x_C` of Fig. 5 plus, per segment, the triangle-inequality
/// overlap `τ − (d(q, c_i) − r_i)` — how deep the query ball penetrates
/// the segment ball (§5.1 motivates exactly this bound: "we could compute
/// the distance upper bound between a query and a data object in a data
/// segment ... by using triangle inequality on the distance of the query
/// to the centroid, and this segment's radius"). Feeding the bound as a
/// feature is what lets a local model generalize to unseen queries
/// instead of keying on training-query identity.
pub fn aux_features(xc: &[f32], radii: &[f32], tau: f32) -> Vec<f32> {
    let mut out = vec![0.0; 2 * xc.len()];
    aux_features_into(xc, radii, tau, &mut out);
    out
}

/// [`aux_features`] writing into a caller-owned slice of width `2·n` —
/// the allocation-free form used by the batched feature assembly.
pub fn aux_features_into(xc: &[f32], radii: &[f32], tau: f32, out: &mut [f32]) {
    let n = xc.len();
    debug_assert_eq!(out.len(), 2 * n, "aux feature slice width mismatch");
    out[..n].copy_from_slice(xc);
    for i in 0..n {
        out[n + i] = tau - (xc[i] - radii[i]);
    }
}

/// Batched centroid distances: row `r` matches
/// `segmentation.centroid_distances(queries[r].0)` up to floating-point
/// reassociation. Hamming on binary queries and L2 reduce to dot products
/// against precomputed centroid transforms; other metrics fall back to
/// the per-row path.
fn batched_centroid_distances(
    seg: &Segmentation,
    queries: &[(VectorView<'_>, f32)],
    xq: &Matrix,
    xcd: &mut Matrix,
) {
    let n_seg = seg.n_segments();
    let dim = xq.cols() as f32;
    let all_binary = queries
        .iter()
        .all(|&(q, _)| matches!(q, VectorView::Binary { .. }));
    match seg.metric() {
        // |q_j − c_j| = c_j + q_j·(1 − 2·c_j) on 0/1 coordinates, so each
        // distance is one dot against the transformed centroid.
        Metric::Hamming if all_binary => {
            for i in 0..n_seg {
                let c = seg.centroid(i);
                let sum_c: f32 = c.iter().sum();
                let t: Vec<f32> = c.iter().map(|&v| 1.0 - 2.0 * v).collect();
                for r in 0..xq.rows() {
                    xcd.row_mut(r)[i] = (sum_c + dot(xq.row(r), &t)) / dim;
                }
            }
        }
        // ‖q − c‖² = q·q − 2·q·c + c·c (clamped against rounding).
        Metric::L2 => {
            let qq: Vec<f32> = (0..xq.rows()).map(|r| dot(xq.row(r), xq.row(r))).collect();
            for i in 0..n_seg {
                let c = seg.centroid(i);
                let cc = dot(c, c);
                for (r, &qr) in qq.iter().enumerate() {
                    let d2 = qr + cc - 2.0 * dot(xq.row(r), c);
                    xcd.row_mut(r)[i] = d2.max(0.0).sqrt();
                }
            }
        }
        _ => {
            for (r, &(q, _)) in queries.iter().enumerate() {
                xcd.row_mut(r).copy_from_slice(&seg.centroid_distances(q));
            }
        }
    }
}

/// Dense query vectors and centroid-distance features for every query in
/// the workload (train + test).
pub fn build_feature_caches(
    queries: &VectorData,
    segmentation: &Segmentation,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut xq = Vec::with_capacity(queries.len());
    let mut xc = Vec::with_capacity(queries.len());
    for q in 0..queries.len() {
        let view = queries.view(q);
        let mut buf = Vec::with_capacity(queries.dim());
        view.write_dense(&mut buf);
        xq.push(buf);
        xc.push(segmentation.centroid_distances(view));
    }
    (xq, xc)
}

/// Runs Algorithm 3 on the largest segments and returns the best shared
/// query-embedding configuration.
fn tune_shared_embedding(
    dim: usize,
    n_segments: usize,
    training: &TrainingSet<'_>,
    labels: &SegmentLabels,
    xq_cache: &[Vec<f32>],
    xc_cache: &[Vec<f32>],
    cfg: &GlConfig,
) -> QueryEmbed {
    // Largest segments are the most informative tuning targets.
    let mut seg_sizes: Vec<(usize, f32)> = (0..n_segments)
        .map(|i| {
            let mass: f32 = (0..labels.n_samples()).map(|j| labels.card(j, i)).sum();
            (i, mass)
        })
        .collect();
    seg_sizes.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut best: Option<(f32, QueryEmbed)> = None;
    for &(seg, _) in seg_sizes.iter().take(cfg.tuning_segments.max(1)) {
        let targets: Vec<f32> = (0..labels.n_samples())
            .map(|j| labels.card(j, seg))
            .collect();
        let (embed, err) = tune_query_embedding(
            dim,
            training,
            &targets,
            xq_cache,
            xc_cache,
            &cfg.tuning,
            cfg.seed.wrapping_add(seg as u64),
        );
        if best.as_ref().is_none_or(|(b, _)| err < *b) {
            best = Some((err, embed));
        }
    }
    best.map(|(_, e)| e)
        .unwrap_or_else(|| QueryEmbed::default_cnn(dim, cfg.n_query_segments))
}

/// Phase 1: trains the per-segment local regressors. Independent models —
/// fanned across scoped threads by a work queue keyed on per-segment sample
/// count (largest segments dispatch first, so a straggler never serializes
/// the tail). Each worker owns one `Scratch`; results are bit-identical to
/// sequential training because every segment is trained from its own seed.
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is a distinct precomputed training cache; a struct would only rename the list"
)]
fn train_locals(
    dim: usize,
    n_segments: usize,
    tau_scale: f32,
    radii: &[f32],
    training: &TrainingSet<'_>,
    labels: &SegmentLabels,
    xq_cache: &[Vec<f32>],
    xc_cache: &[Vec<f32>],
    query_embed: &QueryEmbed,
    cfg: &GlConfig,
) -> Vec<BranchNet> {
    // Positives dominate a segment's training cost (zeros are capped at 2×
    // the positives), so the positive count is the queue weight.
    let weights: Vec<usize> = (0..n_segments)
        .map(|seg| {
            (0..labels.n_samples())
                .filter(|&j| labels.card(j, seg) > 0.0)
                .count()
                .min(cfg.max_local_samples)
        })
        .collect();
    let threads = cardest_nn::parallel::resolve_threads(cfg.local_train.threads);
    cardest_nn::parallel::parallel_largest_first(&weights, threads, |seg, scratch| {
        train_one_local(
            dim,
            seg,
            tau_scale,
            radii,
            training,
            labels,
            xq_cache,
            xc_cache,
            query_embed,
            cfg,
            scratch,
        )
    })
}

/// Trains one local regressor on `card^{j}[segment]` targets, balancing
/// zero-cardinality samples against positives.
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is a distinct precomputed training cache; a struct would only rename the list"
)]
fn train_one_local(
    dim: usize,
    segment: usize,
    tau_scale: f32,
    radii: &[f32],
    training: &TrainingSet<'_>,
    labels: &SegmentLabels,
    xq_cache: &[Vec<f32>],
    xc_cache: &[Vec<f32>],
    query_embed: &QueryEmbed,
    cfg: &GlConfig,
    scratch: &mut Scratch,
) -> BranchNet {
    let seed = cfg.seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_segments = labels.n_segments();

    // Sample selection: all positives, then at most 2× as many zeros,
    // within the overall budget.
    let mut positives: Vec<usize> = Vec::new();
    let mut zeros: Vec<usize> = Vec::new();
    for j in 0..labels.n_samples() {
        if labels.card(j, segment) > 0.0 {
            positives.push(j);
        } else {
            zeros.push(j);
        }
    }
    zeros.shuffle(&mut rng);
    positives.shuffle(&mut rng);
    positives.truncate(cfg.max_local_samples);
    // At most twice the positives, at least a handful so empty segments
    // still see "no match" examples, and never beyond the overall budget.
    let remaining = cfg.max_local_samples.saturating_sub(positives.len());
    let zero_budget = (positives.len() * 2).max(8).min(remaining.max(8));
    zeros.truncate(zero_budget);
    let mut chosen = positives;
    chosen.extend(zeros);
    if chosen.is_empty() {
        // Segment never matches any training query; keep the untrained
        // net (it will predict some constant; the global model will not
        // select this segment).
        chosen.push(rng.gen_range(0..labels.n_samples()));
    }

    let samples = training.samples;
    let train_once = |init_seed: u64, scratch: &mut Scratch| {
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut net = build_regressor(
            &mut rng,
            dim,
            TAU_DIM,
            2 * n_segments,
            query_embed,
            &cfg.dims,
        );
        let mut build = |idx: &[usize]| {
            let b = idx.len();
            let mut xq = Matrix::zeros(b, dim);
            let mut xt = Matrix::zeros(b, TAU_DIM);
            let mut xc = Matrix::zeros(b, 2 * n_segments);
            let mut cards = Vec::with_capacity(b);
            for (r, &local_i) in idx.iter().enumerate() {
                let j = chosen[local_i];
                let s = &samples[j];
                xq.row_mut(r).copy_from_slice(&xq_cache[s.query]);
                xt.row_mut(r)
                    .copy_from_slice(&tau_features(s.tau, tau_scale));
                aux_features_into(&xc_cache[s.query], radii, s.tau, xc.row_mut(r));
                cards.push(labels.card(j, segment));
            }
            (vec![xq, xt, xc], cards)
        };
        let mut tcfg = cfg.local_train;
        tcfg.seed = init_seed;
        // The segment fan-out already owns the cores; nested gradient-shard
        // threads would only fight it (the sharded result is T-independent,
        // so this changes nothing but scheduling).
        tcfg.threads = 1;
        train_branch_regression(&mut net, chosen.len(), &mut build, &tcfg);
        // Fit quality on the positive targets: a local that cannot even
        // reproduce its own training positives would silently destroy the
        // summed estimate, so measure it.
        let mut err = 0.0f64;
        let mut count = 0usize;
        for &j in chosen.iter().take(256) {
            let card = labels.card(j, segment);
            if card <= 0.0 {
                continue;
            }
            let s = &samples[j];
            let xq = Matrix::from_row(&xq_cache[s.query]);
            let xt = Matrix::from_row(&tau_features(s.tau, tau_scale));
            let xc = Matrix::from_row(&aux_features(&xc_cache[s.query], radii, s.tau));
            let out = net.infer(&[&xq, &xt, &xc], scratch);
            let pred = decode_log_card(out.get(0, 0), f32::INFINITY);
            scratch.recycle(out);
            err += cardest_nn::metrics::q_error(pred, card) as f64;
            count += 1;
        }
        let fit = if count == 0 {
            1.0
        } else {
            (err / count as f64) as f32
        };
        (net, fit)
    };
    // Occasionally a local converges to a degenerate solution (predicting
    // ~0 everywhere); restart from a fresh initialization and keep the
    // better fit.
    let (net, fit) = train_once(seed, scratch);
    if fit > 6.0 {
        let (net2, fit2) = train_once(seed ^ 0xDEAD_BEEF, scratch);
        if fit2 < fit {
            return net2;
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::ErrorSummary;

    fn tiny(seed: u64) -> (VectorData, SearchWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 50,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        (data, w, spec)
    }

    fn fast_cfg(variant: GlVariant) -> GlConfig {
        GlConfig {
            variant,
            n_segments: 6,
            local_train: TrainConfig {
                epochs: 8,
                batch_size: 64,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 10,
                batch_size: 64,
                ..Default::default()
            },
            tuning: TuningConfig::fast(),
            tuning_segments: 1,
            ..Default::default()
        }
    }

    fn mean_qerr(est: &GlEstimator, w: &SearchWorkload) -> f32 {
        let pairs: Vec<(f32, f32)> = w
            .test
            .iter()
            .map(|s| (est.estimate(w.queries.view(s.query), s.tau), s.card))
            .collect();
        ErrorSummary::from_q_errors(&pairs).mean
    }

    #[test]
    fn gl_cnn_trains_estimates_finitely_and_prunes_locals() {
        let (data, w, spec) = tiny(102);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = GlEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &fast_cfg(GlVariant::GlCnn),
        );
        let err = mean_qerr(&est, &w);
        assert!(err.is_finite());
        // Sanity: beats the trivial always-zero estimator.
        let zero: Vec<(f32, f32)> = w.test.iter().map(|s| (0.0, s.card)).collect();
        assert!(err < ErrorSummary::from_q_errors(&zero).mean);
        // And the global model actually routes: across the test set, fewer
        // local evaluations than segments × queries.
        let mut evaluated = 0usize;
        let mut total = 0usize;
        for s in &w.test {
            let (_, n) = est.estimate_with_stats(w.queries.view(s.query), s.tau);
            evaluated += n;
            total += est.n_segments();
        }
        assert!(
            evaluated < total,
            "global model never pruned: {evaluated}/{total} local evaluations"
        );
    }

    #[test]
    fn local_plus_evaluates_every_segment() {
        let (data, w, spec) = tiny(103);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = GlEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &fast_cfg(GlVariant::LocalPlus),
        );
        let (_, n) = est.estimate_with_stats(w.queries.view(0), 0.1);
        assert_eq!(n, est.n_segments());
        assert_eq!(est.name(), "Local+");
    }

    #[test]
    fn variants_report_their_paper_names() {
        assert_eq!(GlVariant::GlPlus.name(), "GL+");
        assert_eq!(GlVariant::GlMlp.name(), "GL-MLP");
        assert_eq!(GlVariant::GlCnn.name(), "GL-CNN");
        assert_eq!(GlVariant::LocalPlus.name(), "Local+");
    }
}
