//! Distance functions (§2 and §3.2 of the paper).
//!
//! All metrics are *normalized* to land (mostly) in `[0, 1]` so that
//! thresholds are comparable across datasets, matching the τ_max values of
//! Table 3:
//!
//! * `L1`, `L2` — Minkowski distances; for the dense datasets the vectors
//!   are unit-normalized at generation time so L2 ∈ [0, 2].
//! * `Angular` — `arccos(cos_sim) / π ∈ [0, 1]` (the paper prefers angular
//!   over cosine because "its value is always between 0 and 1").
//! * `Hamming` — fraction of differing positions.
//! * `Jaccard` — `1 − |u ∩ v| / |u ∪ v|`; the paper converts Jaccard to an
//!   equivalent Hamming form on binary sets and we keep the native binary
//!   formulation.
//!
//! Every metric also accepts a *fractional* (dense) operand against a
//! binary one, which is how distances from binary points to segment
//! centroids are computed: Hamming generalizes to the mean absolute
//! difference and Jaccard to the Ruzicka (generalized Jaccard) form.
//!
//! # Kernel dispatch
//!
//! Each `(metric, storage-kind)` combination resolves to a monomorphic
//! kernel from [`crate::kernels`] exactly once per pair: dense×dense pairs
//! run eight-lane slice reductions, binary×binary pairs run popcount
//! reductions for *every* metric (on 0/1 coordinates L1, L2 and L∞ are all
//! functions of the differing-bit count), and mixed pairs expand the binary
//! side into a reused thread-local buffer before taking the dense path
//! (every metric here is symmetric, so the operand order never matters).
//! The batched entry points ([`Metric::distance_many`],
//! [`Metric::distance_to_centroids`], [`Metric::count_within`]) hoist that
//! dispatch out of the per-row loop and walk contiguous row-major storage.
//!
//! The pre-kernel coordinate-at-a-time path is preserved in [`reference`]
//! for property tests and A/B benchmarks.

use crate::kernels;
use crate::vector::{VectorData, VectorView};
use serde::{Deserialize, Serialize};

/// A similarity-distance function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Manhattan distance, normalized by the dimension.
    L1,
    /// Euclidean distance (not normalized; dense datasets are generated
    /// unit-norm so distances stay small).
    L2,
    /// Chebyshev (L∞) distance — the `m → ∞` member of the §3.2 `L_m`
    /// family; decomposes over query segments via `max` instead of sum.
    Linf,
    /// Angular distance `arccos(u·v / |u||v|) / π`.
    Angular,
    /// Cosine distance `1 − u·v / |u||v|` (§3.2 shows it equals
    /// `dis_L2²/2` on unit vectors). Not a true metric (no triangle
    /// inequality), so the pivot index rejects it.
    Cosine,
    /// Fraction of differing coordinates.
    Hamming,
    /// `1 − |u∩v| / |u∪v|` on binary vectors; generalized (Ruzicka) form
    /// against fractional operands.
    Jaccard,
}

impl Metric {
    /// Computes the distance between two vectors of the same dimension.
    ///
    /// # Panics
    /// Panics (in debug builds) if the dimensions differ.
    pub fn distance(self, a: VectorView<'_>, b: VectorView<'_>) -> f32 {
        debug_assert_eq!(
            a.dim(),
            b.dim(),
            "metric operands must share dimensionality"
        );
        use VectorView::{Binary, Dense};
        match (a, b) {
            (Dense(x), Dense(y)) => self.dense(x, y),
            (Binary { words: u, dim }, Binary { words: v, .. }) => self.binary(u, v, dim),
            (Binary { words, dim }, Dense(y)) | (Dense(y), Binary { words, dim }) => {
                kernels::with_expand_buf(|buf| {
                    kernels::expand_bits_into(words, dim, buf);
                    self.dense(buf, y)
                })
            }
        }
    }

    /// Distance between a vector and a dense (possibly fractional) centroid.
    pub fn distance_to_centroid(self, a: VectorView<'_>, centroid: &[f32]) -> f32 {
        self.distance(a, VectorView::Dense(centroid))
    }

    /// Distances from one query to every row of a collection; the batched
    /// form of [`Metric::distance`] — kernel dispatch happens once and the
    /// row loop walks contiguous storage.
    pub fn distance_many(self, q: VectorView<'_>, data: &VectorData) -> Vec<f32> {
        let mut out = vec![0.0f32; data.len()];
        self.distance_many_into(q, data, &mut out);
        out
    }

    /// [`Metric::distance_many`] writing into a caller-owned buffer of
    /// length `data.len()` (the allocation-free hot path for feature
    /// construction and ground-truth scans).
    ///
    /// # Panics
    /// Panics if `out.len() != data.len()`; debug-panics on dimension
    /// mismatch.
    pub fn distance_many_into(self, q: VectorView<'_>, data: &VectorData, out: &mut [f32]) {
        assert_eq!(out.len(), data.len(), "distance_many output length");
        debug_assert!(
            data.is_empty() || q.dim() == data.dim(),
            "metric operands must share dimensionality"
        );
        use VectorView::{Binary, Dense};
        match (q, data) {
            (Binary { words: u, dim }, VectorData::Binary(b)) => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.binary(u, b.row(i), dim);
                }
            }
            (Dense(x), VectorData::Dense(d)) => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.dense(x, d.row(i));
                }
            }
            (Binary { words, dim }, VectorData::Dense(d)) => {
                // Expand the query once; every row then runs a dense kernel.
                kernels::with_expand_buf(|buf| {
                    kernels::expand_bits_into(words, dim, buf);
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = self.dense(buf, d.row(i));
                    }
                });
            }
            (Dense(x), VectorData::Binary(b)) => {
                // Rows must be expanded; reuse one buffer for all of them.
                kernels::with_expand_buf(|buf| {
                    for (i, o) in out.iter_mut().enumerate() {
                        kernels::expand_bits_into(b.row(i), b.dim(), buf);
                        *o = self.dense(buf, x);
                    }
                });
            }
        }
    }

    /// Number of rows within distance `tau` of the query — the sampling
    /// baseline's scan, batched without materializing the distances for the
    /// caller.
    pub fn count_within(self, q: VectorView<'_>, data: &VectorData, tau: f32) -> usize {
        kernels::with_dist_buf(|buf| {
            buf.clear();
            buf.resize(data.len(), 0.0);
            self.distance_many_into(q, data, buf);
            buf.iter().filter(|&&d| d <= tau).count()
        })
    }

    /// Distances from one query to a set of dense (fractional) centroids —
    /// the batched form of [`Metric::distance_to_centroid`]. A binary query
    /// is expanded once, not once per centroid.
    pub fn distance_to_centroids(self, q: VectorView<'_>, centroids: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![0.0f32; centroids.len()];
        self.distance_to_centroids_into(q, centroids, &mut out);
        out
    }

    /// [`Metric::distance_to_centroids`] writing into a caller-owned buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != centroids.len()`.
    pub fn distance_to_centroids_into(
        self,
        q: VectorView<'_>,
        centroids: &[Vec<f32>],
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), centroids.len(), "centroid output length");
        match q {
            VectorView::Dense(x) => {
                for (o, c) in out.iter_mut().zip(centroids) {
                    *o = self.dense(x, c);
                }
            }
            VectorView::Binary { words, dim } => kernels::with_expand_buf(|buf| {
                kernels::expand_bits_into(words, dim, buf);
                for (o, c) in out.iter_mut().zip(centroids) {
                    *o = self.dense(buf, c);
                }
            }),
        }
    }

    /// Dense×dense kernel: one [`crate::kernels`] reduction plus the
    /// metric's finishing arithmetic.
    fn dense(self, x: &[f32], y: &[f32]) -> f32 {
        let dim = x.len();
        match self {
            // Hamming's generalized form on fractional operands is the mean
            // absolute difference — the same reduction as normalized L1.
            Metric::L1 | Metric::Hamming => kernels::l1_sum(x, y) / dim as f32,
            Metric::L2 => kernels::sq_l2(x, y).sqrt(),
            Metric::Linf => kernels::linf(x, y),
            Metric::Angular | Metric::Cosine => {
                let (dot, na, nb) = kernels::dot_norms(x, y);
                self.finish_angle(dot, na, nb)
            }
            Metric::Jaccard => {
                // Ruzicka / generalized Jaccard on non-negative operands.
                let (mins, maxs) = kernels::minmax_sums(x, y);
                // exact zero guard against division by zero, not a tolerance check
                if maxs == 0.0 {
                    0.0
                } else {
                    1.0 - mins / maxs
                }
            }
        }
    }

    /// Binary×binary kernel: every metric is a function of a popcount
    /// reduction when coordinates are 0/1.
    fn binary(self, u: &[u64], v: &[u64], dim: usize) -> f32 {
        match self {
            Metric::L1 | Metric::Hamming => kernels::hamming_words(u, v) as f32 / dim as f32,
            // (xᵢ−yᵢ)² = |xᵢ−yᵢ| on bits, so squared L2 is the raw
            // differing-bit count.
            Metric::L2 => (kernels::hamming_words(u, v) as f32).sqrt(),
            Metric::Linf => {
                if kernels::hamming_words(u, v) > 0 {
                    1.0
                } else {
                    0.0
                }
            }
            Metric::Angular | Metric::Cosine => {
                // u·v = |u∩v|, |u|² = popcount(u); exact in f32 for any
                // realistic dimension, so this matches the elementwise path
                // bit-for-bit.
                let (inter, _) = kernels::inter_union_words(u, v);
                self.finish_angle(
                    inter as f32,
                    kernels::popcount_words(u) as f32,
                    kernels::popcount_words(v) as f32,
                )
            }
            Metric::Jaccard => {
                let (inter, union) = kernels::inter_union_words(u, v);
                if union == 0 {
                    0.0
                } else {
                    1.0 - inter as f32 / union as f32
                }
            }
        }
    }

    /// Shared cosine/angular finish: zero-norm operands are maximally
    /// distant by convention, and rounding is clamped out of `acos`'s
    /// domain edges.
    fn finish_angle(self, dot: f32, na: f32, nb: f32) -> f32 {
        // exact zero guard against division by zero, not a tolerance check
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
        if self == Metric::Cosine {
            1.0 - cos
        } else {
            cos.acos() / std::f32::consts::PI
        }
    }

    /// Whether this metric's datasets are binary in this reproduction.
    pub fn is_binary(self) -> bool {
        matches!(self, Metric::Hamming | Metric::Jaccard)
    }

    /// Whether the metric satisfies the triangle inequality between data
    /// points (required by the pivot index and the segment lower bound).
    pub fn is_true_metric(self) -> bool {
        !matches!(self, Metric::Cosine)
    }
}

/// The pre-kernel scalar path, kept verbatim: popcount fast paths for
/// binary Hamming/Jaccard and a coordinate-at-a-time `elementwise` loop
/// (with its per-coordinate storage `match`) for everything else. Property
/// tests pin the kernel dispatcher against it and the `distance_kernels`
/// bench reports measured speedups over it.
pub mod reference {
    use super::Metric;
    use crate::vector::VectorView;

    /// The historical [`Metric::distance`] dispatch.
    pub fn distance(metric: Metric, a: VectorView<'_>, b: VectorView<'_>) -> f32 {
        use VectorView::Binary;
        match (metric, a, b) {
            (Metric::Hamming, Binary { words: u, dim }, Binary { words: v, .. }) => {
                let diff: u32 = u.iter().zip(v).map(|(x, y)| (x ^ y).count_ones()).sum();
                diff as f32 / dim as f32
            }
            (Metric::Jaccard, Binary { words: u, .. }, Binary { words: v, .. }) => {
                let inter: u32 = u.iter().zip(v).map(|(x, y)| (x & y).count_ones()).sum();
                let union: u32 = u.iter().zip(v).map(|(x, y)| (x | y).count_ones()).sum();
                if union == 0 {
                    0.0
                } else {
                    1.0 - inter as f32 / union as f32
                }
            }
            (m, a, b) => elementwise(m, a, b),
        }
    }

    /// Iterates both operands as `f32` coordinates without materializing
    /// buffers, computing the requested metric.
    pub fn elementwise(metric: Metric, a: VectorView<'_>, b: VectorView<'_>) -> f32 {
        let dim = a.dim();
        let get = |v: &VectorView<'_>, j: usize| -> f32 {
            match v {
                VectorView::Dense(s) => s[j],
                VectorView::Binary { words, .. } => ((words[j / 64] >> (j % 64)) & 1) as f32,
            }
        };
        match metric {
            Metric::L1 => {
                let mut s = 0.0f32;
                for j in 0..dim {
                    s += (get(&a, j) - get(&b, j)).abs();
                }
                s / dim as f32
            }
            Metric::L2 => {
                let mut s = 0.0f32;
                for j in 0..dim {
                    let d = get(&a, j) - get(&b, j);
                    s += d * d;
                }
                s.sqrt()
            }
            Metric::Linf => {
                let mut m = 0.0f32;
                for j in 0..dim {
                    m = m.max((get(&a, j) - get(&b, j)).abs());
                }
                m
            }
            Metric::Angular | Metric::Cosine => {
                let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
                for j in 0..dim {
                    let (x, y) = (get(&a, j), get(&b, j));
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                // exact zero guard against division by zero, not a tolerance check
                if na == 0.0 || nb == 0.0 {
                    return 1.0;
                }
                let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
                if metric == Metric::Cosine {
                    1.0 - cos
                } else {
                    cos.acos() / std::f32::consts::PI
                }
            }
            Metric::Hamming => {
                // Generalized form: mean absolute difference. On 0/1
                // operands this equals the classic Hamming fraction.
                let mut s = 0.0f32;
                for j in 0..dim {
                    s += (get(&a, j) - get(&b, j)).abs();
                }
                s / dim as f32
            }
            Metric::Jaccard => {
                // Ruzicka / generalized Jaccard on non-negative operands.
                let (mut mins, mut maxs) = (0.0f32, 0.0f32);
                for j in 0..dim {
                    let (x, y) = (get(&a, j), get(&b, j));
                    mins += x.min(y);
                    maxs += x.max(y);
                }
                // exact zero guard against division by zero, not a tolerance check
                if maxs == 0.0 {
                    0.0
                } else {
                    1.0 - mins / maxs
                }
            }
        }
    }
}

pub const ALL_METRICS: [Metric; 7] = [
    Metric::L1,
    Metric::L2,
    Metric::Linf,
    Metric::Angular,
    Metric::Cosine,
    Metric::Hamming,
    Metric::Jaccard,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{BinaryData, DenseData};

    fn bin(dim: usize, on: &[usize]) -> BinaryData {
        let mut b = BinaryData::new(dim);
        b.push_indices(on);
        b
    }

    #[test]
    fn hamming_popcount_matches_elementwise() {
        let u = bin(70, &[0, 5, 64, 69]);
        let v = bin(70, &[0, 6, 64]);
        let uv = VectorView::Binary {
            words: u.row(0),
            dim: 70,
        };
        let vv = VectorView::Binary {
            words: v.row(0),
            dim: 70,
        };
        let fast = Metric::Hamming.distance(uv, vv);
        let slow = reference::elementwise(Metric::Hamming, uv, vv);
        assert!((fast - slow).abs() < 1e-7);
        // Differing bits: 5, 6, 69 → 3/70.
        assert!((fast - 3.0 / 70.0).abs() < 1e-6);
    }

    #[test]
    fn every_metric_matches_reference_on_binary_pairs() {
        // The kernel dispatcher routes *all* metrics through popcounts on
        // binary×binary; the reference walks coordinates one at a time.
        let u = bin(70, &[0, 5, 11, 40, 64, 69]);
        let v = bin(70, &[0, 6, 11, 41, 64]);
        let uv = VectorView::Binary {
            words: u.row(0),
            dim: 70,
        };
        let vv = VectorView::Binary {
            words: v.row(0),
            dim: 70,
        };
        for m in ALL_METRICS {
            let fast = m.distance(uv, vv);
            let slow = reference::distance(m, uv, vv);
            assert!(
                (fast - slow).abs() <= 1e-6 * slow.abs().max(1.0),
                "{m:?}: kernel {fast} vs reference {slow}"
            );
        }
    }

    #[test]
    fn every_metric_matches_reference_on_mixed_pairs() {
        let u = bin(12, &[0, 3, 7, 11]);
        let uv = VectorView::Binary {
            words: u.row(0),
            dim: 12,
        };
        let c: Vec<f32> = (0..12).map(|j| (j as f32) / 11.0).collect();
        for m in ALL_METRICS {
            let ab = m.distance(uv, VectorView::Dense(&c));
            let ba = m.distance(VectorView::Dense(&c), uv);
            let slow = reference::distance(m, uv, VectorView::Dense(&c));
            assert!(
                (ab - slow).abs() <= 1e-5 * slow.abs().max(1.0),
                "{m:?}: kernel {ab} vs reference {slow}"
            );
            assert_eq!(ab, ba, "{m:?} mixed-operand symmetry");
        }
    }

    #[test]
    fn distance_many_matches_per_pair_calls() {
        let q: Vec<f32> = (0..17).map(|j| (j as f32 * 0.3).sin()).collect();
        let mut d = DenseData::new(17);
        for i in 0..9 {
            let row: Vec<f32> = (0..17).map(|j| ((i * 17 + j) as f32 * 0.7).cos()).collect();
            d.push(&row);
        }
        let data = VectorData::Dense(d);
        for m in ALL_METRICS {
            let batched = m.distance_many(VectorView::Dense(&q), &data);
            for (i, &b) in batched.iter().enumerate() {
                let one = m.distance(VectorView::Dense(&q), data.view(i));
                assert_eq!(b, one, "{m:?} row {i}");
            }
        }
    }

    #[test]
    fn count_within_matches_filtered_scan() {
        let mut b = BinaryData::new(30);
        for i in 0..20 {
            b.push_indices(&[(i * 3) % 30, (i * 7) % 30, i % 30]);
        }
        let q = bin(30, &[0, 3, 7]);
        let qv = VectorView::Binary {
            words: q.row(0),
            dim: 30,
        };
        let data = VectorData::Binary(b);
        for m in [Metric::Hamming, Metric::Jaccard] {
            for tau in [0.0, 0.1, 0.2, 0.5, 1.0] {
                let fast = m.count_within(qv, &data, tau);
                let slow = (0..data.len())
                    .filter(|&i| m.distance(qv, data.view(i)) <= tau)
                    .count();
                assert_eq!(fast, slow, "{m:?} tau={tau}");
            }
        }
    }

    #[test]
    fn distance_to_centroids_matches_singles() {
        let q = bin(20, &[1, 4, 9, 16]);
        let qv = VectorView::Binary {
            words: q.row(0),
            dim: 20,
        };
        let cents: Vec<Vec<f32>> = (0..5)
            .map(|c| {
                (0..20)
                    .map(|j| ((c * 20 + j) as f32 * 0.13).fract())
                    .collect()
            })
            .collect();
        for m in ALL_METRICS {
            let batched = m.distance_to_centroids(qv, &cents);
            for (c, &b) in batched.iter().enumerate() {
                assert_eq!(b, m.distance_to_centroid(qv, &cents[c]), "{m:?} c={c}");
            }
        }
    }

    #[test]
    fn jaccard_matches_paper_example() {
        // §3.2: u = {a,b,c}, v = {a,b,d} over universe {a,b,c,d}: distance 0.5.
        let u = bin(4, &[0, 1, 2]);
        let v = bin(4, &[0, 1, 3]);
        let d = Metric::Jaccard.distance(
            VectorView::Binary {
                words: u.row(0),
                dim: 4,
            },
            VectorView::Binary {
                words: v.row(0),
                dim: 4,
            },
        );
        assert!((d - 0.5).abs() < 1e-6);
        // And the paper's equivalent Hamming on the one-hot encodings is
        // also 0.5 (2 differing bits out of 4).
        let h = Metric::Hamming.distance(
            VectorView::Binary {
                words: u.row(0),
                dim: 4,
            },
            VectorView::Binary {
                words: v.row(0),
                dim: 4,
            },
        );
        assert!((h - 0.5).abs() < 1e-6);
    }

    #[test]
    fn angular_distance_basics() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let d = Metric::Angular.distance(VectorView::Dense(&a), VectorView::Dense(&b));
        assert!(
            (d - 0.5).abs() < 1e-6,
            "orthogonal vectors are at angular distance 0.5"
        );
        let d2 = Metric::Angular.distance(VectorView::Dense(&a), VectorView::Dense(&a));
        assert!(d2.abs() < 1e-3);
    }

    #[test]
    fn l2_matches_hand_computation() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        let d = Metric::L2.distance(VectorView::Dense(&a), VectorView::Dense(&b));
        assert!((d - 5.0).abs() < 1e-6);
    }

    #[test]
    fn linf_is_the_max_coordinate_gap_and_a_true_metric() {
        let a = [0.0f32, 3.0, -1.0];
        let b = [4.0f32, 1.0, -1.5];
        let d = Metric::Linf.distance(VectorView::Dense(&a), VectorView::Dense(&b));
        assert!((d - 4.0).abs() < 1e-6);
        assert!(Metric::Linf.is_true_metric());
        // Segment decomposition: L∞ over the whole vector is the max of
        // the per-segment L∞ distances (§3.2's argument for L_m).
        let d1 = Metric::Linf.distance(VectorView::Dense(&a[..2]), VectorView::Dense(&b[..2]));
        let d2 = Metric::Linf.distance(VectorView::Dense(&a[2..]), VectorView::Dense(&b[2..]));
        assert!((d - d1.max(d2)).abs() < 1e-6);
    }

    #[test]
    fn hamming_to_fractional_centroid_is_mean_abs_diff() {
        let u = bin(4, &[0, 1]);
        let c = vec![0.5f32, 1.0, 0.0, 0.25];
        let d = Metric::Hamming.distance_to_centroid(
            VectorView::Binary {
                words: u.row(0),
                dim: 4,
            },
            &c,
        );
        // |1-0.5| + |1-1| + |0-0| + |0-0.25| = 0.75 → /4
        assert!((d - 0.1875).abs() < 1e-6);
    }

    #[test]
    fn jaccard_of_empty_sets_is_zero() {
        let u = bin(8, &[]);
        let v = bin(8, &[]);
        let d = Metric::Jaccard.distance(
            VectorView::Binary {
                words: u.row(0),
                dim: 8,
            },
            VectorView::Binary {
                words: v.row(0),
                dim: 8,
            },
        );
        assert_eq!(d, 0.0);
    }

    #[test]
    fn cosine_equals_half_squared_l2_on_unit_vectors() {
        // §3.2: dis_cos(u, v) = dis_L2(u, v)² / 2 for |u| = |v| = 1.
        let mut u = [0.6f32, 0.8, 0.0];
        let mut v = [0.0f32, 0.6, 0.8];
        let norm = |x: &mut [f32]| {
            let n = x.iter().map(|a| a * a).sum::<f32>().sqrt();
            x.iter_mut().for_each(|a| *a /= n);
        };
        norm(&mut u);
        norm(&mut v);
        let cos = Metric::Cosine.distance(VectorView::Dense(&u), VectorView::Dense(&v));
        let l2 = Metric::L2.distance(VectorView::Dense(&u), VectorView::Dense(&v));
        assert!(
            (cos - l2 * l2 / 2.0).abs() < 1e-5,
            "cos={cos} l2²/2={}",
            l2 * l2 / 2.0
        );
        // And angular is arccos(1 − cos)/π.
        let ang = Metric::Angular.distance(VectorView::Dense(&u), VectorView::Dense(&v));
        assert!((ang - (1.0 - cos).acos() / std::f32::consts::PI).abs() < 1e-5);
    }

    #[test]
    fn cosine_is_not_flagged_as_true_metric() {
        assert!(!Metric::Cosine.is_true_metric());
        for m in [
            Metric::L1,
            Metric::L2,
            Metric::Angular,
            Metric::Hamming,
            Metric::Jaccard,
        ] {
            assert!(m.is_true_metric());
        }
    }

    #[test]
    fn metrics_are_symmetric_and_zero_on_self() {
        let a = [0.3f32, -0.2, 0.9, 0.1];
        let b = [0.1f32, 0.7, -0.3, 0.5];
        for m in [Metric::L1, Metric::L2, Metric::Angular, Metric::Cosine] {
            let ab = m.distance(VectorView::Dense(&a), VectorView::Dense(&b));
            let ba = m.distance(VectorView::Dense(&b), VectorView::Dense(&a));
            assert!((ab - ba).abs() < 1e-6, "{m:?} not symmetric");
            let aa = m.distance(VectorView::Dense(&a), VectorView::Dense(&a));
            assert!(aa.abs() < 1e-3, "{m:?} not ~zero on self: {aa}");
        }
    }
}
