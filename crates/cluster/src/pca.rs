//! Principal Component Analysis via subspace (orthogonal) iteration.
//!
//! The segmentation pipeline reduces high-dimensional data to a handful of
//! components before clustering (§3.3). At the workspace's scales the
//! `d × d` covariance matrix would dominate the cost, so the iteration uses
//! implicit products: each step computes `Xcᵀ (Xc Q)` by streaming over the
//! data rows (binary rows are expanded into a reusable buffer), never
//! materializing the covariance.

use cardest_data::kernels::dot;
use cardest_data::vector::{VectorData, VectorView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fitted PCA transform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pca {
    mean: Vec<f32>,
    /// `r × d` orthonormal component rows.
    components: Vec<Vec<f32>>,
}

impl Pca {
    /// Fits `r` principal components with `iters` subspace iterations.
    ///
    /// `r` is clamped to the data dimension. Fitting is deterministic in
    /// `seed`.
    pub fn fit(data: &VectorData, r: usize, iters: usize, seed: u64) -> Self {
        let n = data.len();
        let d = data.dim();
        let r = r.min(d).max(1);
        assert!(n > 0, "cannot fit PCA on an empty dataset");

        // Mean vector.
        let all: Vec<usize> = (0..n).collect();
        let mean = data.centroid(&all);

        // Random orthonormal start.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9CA0_57A7);
        let mut q: Vec<Vec<f32>> = (0..r)
            .map(|_| {
                (0..d)
                    .map(|_| cardest_data::synth::gauss(&mut rng))
                    .collect()
            })
            .collect();
        orthonormalize(&mut q);

        let mut buf: Vec<f32> = Vec::with_capacity(d);
        for _ in 0..iters.max(1) {
            // z_k = Σ_rows (xc · q_k) · xc, accumulated in f64 for stability.
            let mut z: Vec<Vec<f64>> = vec![vec![0.0; d]; r];
            let mut proj = vec![0.0f32; r];
            for i in 0..n {
                data.view(i).write_dense(&mut buf);
                for (x, m) in buf.iter_mut().zip(&mean) {
                    *x -= m;
                }
                for (p, qk) in proj.iter_mut().zip(&q) {
                    *p = dot(&buf, qk);
                }
                for (zk, &p) in z.iter_mut().zip(&proj) {
                    // exact zero skip of no-op rank-1 updates, not a tolerance check
                    if p != 0.0 {
                        for (zj, &xj) in zk.iter_mut().zip(&buf) {
                            *zj += (p * xj) as f64;
                        }
                    }
                }
            }
            for (qk, zk) in q.iter_mut().zip(&z) {
                for (qj, &zj) in qk.iter_mut().zip(zk) {
                    *qj = (zj / n as f64) as f32;
                }
            }
            orthonormalize(&mut q);
        }
        Pca {
            mean,
            components: q,
        }
    }

    /// Number of components.
    pub fn rank(&self) -> usize {
        self.components.len()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.mean.len()
    }

    /// Projects one vector into the component space.
    pub fn transform_view(&self, v: VectorView<'_>, buf: &mut Vec<f32>) -> Vec<f32> {
        v.write_dense(buf);
        for (x, m) in buf.iter_mut().zip(&self.mean) {
            *x -= m;
        }
        self.components.iter().map(|c| dot(buf, c)).collect()
    }

    /// Projects the whole collection, returning a flat `n × r` buffer.
    pub fn transform_all(&self, data: &VectorData) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len() * self.rank());
        let mut buf = Vec::with_capacity(self.input_dim());
        for i in 0..data.len() {
            out.extend(self.transform_view(data.view(i), &mut buf));
        }
        out
    }

    /// Read-only access to the component rows (tests check orthonormality).
    pub fn components(&self) -> &[Vec<f32>] {
        &self.components
    }
}

/// Modified Gram–Schmidt in place; a vector that collapses to ~zero is
/// replaced by a unit basis vector to keep the subspace full-rank.
fn orthonormalize(q: &mut [Vec<f32>]) {
    let d = q.first().map_or(0, Vec::len);
    for k in 0..q.len() {
        for j in 0..k {
            let (head, tail) = q.split_at_mut(k);
            let proj = dot(&tail[0], &head[j]);
            for (t, h) in tail[0].iter_mut().zip(&head[j]) {
                *t -= proj * h;
            }
        }
        let norm = q[k].iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in &mut q[k] {
                *x /= norm;
            }
        } else {
            for (i, x) in q[k].iter_mut().enumerate() {
                *x = if i == k % d { 1.0 } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::vector::DenseData;
    use rand::Rng;

    /// Data with variance overwhelmingly along one axis: PCA's first
    /// component must align with that axis.
    fn anisotropic_data(seed: u64, n: usize, d: usize) -> VectorData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(n * d);
        for _ in 0..n {
            let main: f32 = rng.gen_range(-10.0..10.0);
            for j in 0..d {
                if j == 2 {
                    values.push(main);
                } else {
                    values.push(rng.gen_range(-0.1..0.1));
                }
            }
        }
        VectorData::Dense(DenseData::from_flat(d, values))
    }

    #[test]
    fn first_component_finds_dominant_axis() {
        let data = anisotropic_data(1, 500, 8);
        let pca = Pca::fit(&data, 2, 20, 1);
        let c0 = &pca.components()[0];
        // |c0[2]| should dominate all other coordinates.
        assert!(
            c0[2].abs() > 0.99,
            "first component {c0:?} not aligned with axis 2"
        );
    }

    #[test]
    fn components_are_orthonormal() {
        let data = anisotropic_data(2, 300, 10);
        let pca = Pca::fit(&data, 4, 20, 2);
        let cs = pca.components();
        for i in 0..cs.len() {
            for j in 0..cs.len() {
                let d = dot(&cs[i], &cs[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-3, "<c{i},c{j}> = {d}");
            }
        }
    }

    #[test]
    fn transform_centers_the_data() {
        let data = anisotropic_data(3, 400, 6);
        let pca = Pca::fit(&data, 3, 15, 3);
        let flat = pca.transform_all(&data);
        let r = pca.rank();
        for k in 0..r {
            let mean: f32 =
                (0..data.len()).map(|i| flat[i * r + k]).sum::<f32>() / data.len() as f32;
            assert!(mean.abs() < 0.05, "component {k} mean {mean} not ~0");
        }
    }

    #[test]
    fn rank_is_clamped_to_dimension() {
        let data = anisotropic_data(4, 50, 4);
        let pca = Pca::fit(&data, 16, 5, 4);
        assert_eq!(pca.rank(), 4);
    }

    #[test]
    fn works_on_binary_data() {
        use cardest_data::vector::BinaryData;
        let mut b = BinaryData::new(32);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let on: Vec<usize> = (0..32).filter(|_| rng.gen_bool(0.3)).collect();
            b.push_indices(&on);
        }
        let data = VectorData::Binary(b);
        let pca = Pca::fit(&data, 4, 10, 5);
        assert_eq!(pca.rank(), 4);
        let flat = pca.transform_all(&data);
        assert_eq!(flat.len(), 200 * 4);
        assert!(flat.iter().all(|x| x.is_finite()));
    }
}
