//! Per-segment training labels for the global-local framework.
//!
//! Phase 1 of the §3.3 training trains one local regressor per segment on
//! `card^{j}[i]` — query `j`'s cardinality restricted to segment `i` — and
//! phase 2 trains the global model on the binary selection labels
//! `R^{j}[i] = 1{card^{j}[i] > 0}` with the min-max cardinality weights
//! `ε^{j}[i]`. All three matrices come from one pass over the exact
//! distance table and are cached here.

use cardest_cluster::segmentation::Segmentation;
use cardest_data::ground_truth::DistanceTable;
use cardest_data::workload::SearchSample;

/// Per-(sample, segment) cardinality labels for a fixed segmentation.
#[derive(Debug, Clone)]
pub struct SegmentLabels {
    n_segments: usize,
    /// `cards[sample * n_segments + segment]`.
    cards: Vec<f32>,
}

impl SegmentLabels {
    /// Computes `card^{j}[i]` for every training sample and segment.
    pub fn compute(
        table: &DistanceTable,
        samples: &[SearchSample],
        segmentation: &Segmentation,
    ) -> Self {
        let n_segments = segmentation.n_segments();
        let mut cards = Vec::with_capacity(samples.len() * n_segments);
        for s in samples {
            let seg_cards =
                table.segment_cardinalities(s.query, s.tau, segmentation.assignment(), n_segments);
            debug_assert_eq!(
                seg_cards.iter().sum::<u32>(),
                s.card as u32,
                "segment cardinalities must partition the total"
            );
            cards.extend(seg_cards.into_iter().map(|c| c as f32));
        }
        SegmentLabels { n_segments, cards }
    }

    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    pub fn n_samples(&self) -> usize {
        self.cards.len() / self.n_segments.max(1)
    }

    /// The per-segment cardinalities of sample `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[f32] {
        &self.cards[j * self.n_segments..(j + 1) * self.n_segments]
    }

    /// `card^{j}[i]`.
    #[inline]
    pub fn card(&self, j: usize, segment: usize) -> f32 {
        self.cards[j * self.n_segments + segment]
    }

    /// Binary selection label `R^{j}[i]`.
    #[inline]
    pub fn selected(&self, j: usize, segment: usize) -> bool {
        self.card(j, segment) > 0.0
    }

    /// Min-max-normalized weights `ε^{j}` for sample `j` (§3.3).
    pub fn minmax_weights(&self, j: usize) -> Vec<f32> {
        cardest_nn::loss::minmax_weights(self.row(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_cluster::segmentation::{SegmentationConfig, SegmentationMethod};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;

    fn setup() -> (SearchWorkload, Segmentation) {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 20,
            n_test_queries: 5,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(71);
        let w = SearchWorkload::build(&data, &spec, 71);
        let seg = Segmentation::fit(
            &data,
            spec.metric,
            &SegmentationConfig {
                n_segments: 6,
                pca_rank: 4,
                pca_iters: 6,
                method: SegmentationMethod::PcaKMeans,
                seed: 71,
            },
        );
        (w, seg)
    }

    #[test]
    fn rows_partition_the_total_cardinality() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        assert_eq!(labels.n_samples(), w.train.len());
        for (j, s) in w.train.iter().enumerate() {
            let total: f32 = labels.row(j).iter().sum();
            assert_eq!(total, s.card, "sample {j}");
        }
    }

    #[test]
    fn selection_labels_match_positivity() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        for j in 0..labels.n_samples() {
            for i in 0..labels.n_segments() {
                assert_eq!(labels.selected(j, i), labels.card(j, i) > 0.0);
            }
        }
    }

    #[test]
    fn weights_are_minmax_normalized() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        for j in 0..labels.n_samples().min(50) {
            let ws = labels.minmax_weights(j);
            assert!(ws.iter().all(|w| (0.0..=1.0).contains(w)));
            let row = labels.row(j);
            let spread = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                - row.iter().cloned().fold(f32::INFINITY, f32::min);
            if spread > 0.0 {
                assert!(ws.contains(&1.0), "max-cardinality segment gets weight 1");
                assert!(ws.contains(&0.0));
            }
        }
    }
}
