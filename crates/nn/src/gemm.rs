// IEEE-exact kernel file: every `as` cast needs a reasoned allow.
#![cfg_attr(not(test), warn(clippy::as_conversions))]
//! Register-blocked GEMM kernels behind [`Matrix`](crate::tensor::Matrix)'s
//! `matmul_*` methods.
//!
//! The three matmul flavours the models need (`nt` for forward passes, `tn`
//! for weight gradients, `nn` for input gradients) are implemented here as
//! blocked kernels over flat row-major slices:
//!
//! * **`matmul_nt`** — the hot path. The right operand is packed
//!   ([`pack_nt`]) into k-major panels of [`NR`] columns, then an
//!   [`MR`]`×`[`NR`] micro-kernel ([`matmul_nt_packed`]) walks `k` keeping
//!   all `MR × NR` partial sums in registers. `matmul_nt` packs on every
//!   call; a caller whose right operand is fixed (inference weights) packs
//!   once and calls [`matmul_nt_packed`] directly. Everything
//!   is safe indexed slice code shaped so LLVM autovectorizes the inner
//!   `NR`-wide multiply-adds; with `MR = 4`, `NR = 16` the accumulator
//!   tile is eight 256-bit (or four 512-bit) registers under the
//!   `target-cpu=native` build the workspace pins in `.cargo/config.toml`.
//!   Shapes too small to amortize packing fall back to the row-by-row
//!   [`dot`] path.
//! * **`matmul_tn` / `matmul_nn`** — rank-update shaped; they fuse four
//!   coefficient rows per output pass so the output row is traversed once
//!   per four updates instead of once per update.
//!
//! # Reduction order and determinism
//!
//! Training weights must be bit-identical for any `--train-threads` value,
//! so every kernel here makes the per-output-element floating-point
//! reduction order a pure function of the *shapes*, never of the thread
//! count or the blocking cursor:
//!
//! * the `nt` micro-kernel keeps one accumulator per output element and
//!   walks `k` sequentially — any row split (including the parallel
//!   row-chunk split, which assigns whole rows to threads) produces the
//!   same bits;
//! * `tn`/`nn` accumulate row contributions in ascending row order inside
//!   and across their 4-row blocks, matching the order a naive loop uses.
//!
//! The *small-shape* `nt` fallback uses the eight-lane [`dot`] fold, whose
//! rounding differs from the blocked kernel's sequential-`k` order; the
//! dispatch between them depends only on shapes, so it is equally
//! deterministic, and batched-vs-sequential comparisons remain within the
//! workspace-wide 1e-5 relative contract.
//!
//! # NaN/Inf propagation
//!
//! The pre-blocking `tn`/`nn` loops skipped coefficient values that were
//! exactly `0.0`. That is wrong for non-finite operands (`0 × NaN = NaN`,
//! `0 × ∞ = NaN`): a NaN-poisoned activation row multiplied by a zeroed
//! gradient coefficient silently vanished instead of poisoning the weight
//! gradient, at odds with the divergence detection of the training
//! checkpoint guard. The kernels here never skip work based on values, so
//! non-finite inputs propagate faithfully (covered by regression tests).
//!
//! The pre-PR scalar implementations are preserved verbatim in
//! [`reference`] for A/B benchmarks and property tests.

use crate::parallel;
use crate::tensor::{axpy, dot};
use std::cell::RefCell;

/// Micro-kernel row count (output rows carried per inner loop).
pub const MR: usize = 4;
/// Micro-kernel column count (packed panel width; one output row's worth
/// of accumulators is `NR` floats).
pub const NR: usize = 16;

/// Minimum rows per thread before the `nt` kernel fans out row chunks.
const PAR_MIN_ROWS: usize = 64;
/// Minimum total multiply-adds before fanning out is worth a thread spawn.
const PAR_MIN_FLOPS: usize = 1 << 20;

thread_local! {
    /// Reused packing buffer for the `nt` kernel (one per thread; workers
    /// inside the parallel path read the master's packed panels, they never
    /// pack themselves).
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread column-major staging for the current [`MR`]-row block of
    /// the left operand (each worker packs its own rows).
    static APACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out = a · bᵀ` over flat row-major buffers: `a` is `rows × k`, `b` is
/// `n × k`, `out` is `rows × n`. Dispatches between the blocked kernel and
/// the small-shape fallback purely on shape (see [`nt_is_blocked`]).
pub fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), rows * n);
    if nt_is_blocked(rows, k, n) {
        matmul_nt_blocked(a, b, out, rows, k, n);
    } else {
        matmul_nt_small(a, b, out, rows, n);
    }
}

/// Whether [`matmul_nt`] takes the blocked kernel for this shape. Callers
/// that keep `b` packed across calls ([`pack_nt`] + [`matmul_nt_packed`])
/// branch on this same predicate, so their results match `matmul_nt` bit
/// for bit.
pub(crate) fn nt_is_blocked(rows: usize, k: usize, n: usize) -> bool {
    rows >= MR && n >= NR && k >= 8
}

/// Row-by-row [`dot`] path for shapes too small to amortize packing.
fn matmul_nt_small(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, n: usize) {
    if rows == 0 || n == 0 {
        return;
    }
    let k = a.len() / rows;
    for r in 0..rows {
        let ar = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot(ar, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Blocked `a · bᵀ` that packs `b` on every call into this thread's
/// reused buffer: the path for operands that change between calls
/// (training weights, whose values move on every step).
fn matmul_nt_blocked(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        pack_nt(b, k, n, &mut buf);
        matmul_nt_packed(a, &buf, out, rows, k, n);
    });
}

/// Packs row-major `b` (`n × k`) into the k-major `NR`-column panels the
/// micro-kernel reads, replacing `panels`' contents (its allocation is
/// reused). A caller whose `b` is fixed packs once and hands the panels to
/// [`matmul_nt_packed`] on every call.
pub fn pack_nt(b: &[f32], k: usize, n: usize, panels: &mut Vec<f32>) {
    debug_assert_eq!(b.len(), n * k);
    let npanels = n.div_ceil(NR);
    panels.clear();
    panels.resize(npanels * k * NR, 0.0);
    for p in 0..npanels {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        pack_panel(b, k, j0, w, &mut panels[p * k * NR..(p + 1) * k * NR]);
    }
}

/// `out = a · bᵀ` with `b` already packed by [`pack_nt`]: the blocked
/// kernel, fanned over row chunks when the shape is large enough. Gives
/// the same bits as [`matmul_nt`] wherever [`nt_is_blocked`] holds.
pub fn matmul_nt_packed(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(packed.len(), n.div_ceil(NR) * k * NR);
    let threads = if rows >= 2 * PAR_MIN_ROWS && rows * k * n >= PAR_MIN_FLOPS {
        parallel::train_threads().min(rows / PAR_MIN_ROWS)
    } else {
        1
    };
    parallel::parallel_row_chunks(out, n, rows, threads, MR, |r0, chunk| {
        let a_chunk = &a[r0 * k..r0 * k + (chunk.len() / n) * k];
        nt_rows(a_chunk, k, packed, n, chunk);
    });
}

/// Packs rows `j0..j0+w` of row-major `b` (`? × k`) into a k-major panel:
/// `panel[kk*NR + jj] = b[j0+jj][kk]`, zero-padded to `NR` columns so the
/// micro-kernel never branches on the column tail (padded lanes are
/// computed and discarded).
fn pack_panel(b: &[f32], k: usize, j0: usize, w: usize, panel: &mut [f32]) {
    debug_assert_eq!(panel.len(), k * NR);
    if w < NR {
        panel.fill(0.0);
    }
    for jj in 0..w {
        let brow = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
        for (kk, &v) in brow.iter().enumerate() {
            panel[kk * NR + jj] = v;
        }
    }
}

/// Runs the micro-kernel over every row of one contiguous row chunk.
/// `a_chunk` holds exactly the chunk's rows, so the caller's split offsets
/// never reach indexing code. Each `MR`-row block of `a` is staged
/// column-major (`apack[kk*MR + i] = a[r0+i][kk]`, zero-padded on the row
/// tail) so the micro-kernel's `k` walk is a pure `chunks_exact` zip with
/// no bounds checks; the padded rows compute all-zero tiles that are
/// simply not written back.
fn nt_rows(a_chunk: &[f32], k: usize, packed: &[f32], n: usize, out_chunk: &mut [f32]) {
    let rows = out_chunk.len() / n;
    APACK_BUF.with(|cell| {
        let mut apack = cell.borrow_mut();
        apack.clear();
        apack.resize(k * MR, 0.0);
        let mut r0 = 0;
        while r0 < rows {
            let m = (rows - r0).min(MR);
            if m < MR {
                apack.fill(0.0);
            }
            for i in 0..m {
                let ar = &a_chunk[(r0 + i) * k..(r0 + i + 1) * k];
                for (kk, &v) in ar.iter().enumerate() {
                    apack[kk * MR + i] = v;
                }
            }
            let mut j0 = 0;
            let mut p = 0;
            while j0 < n {
                let w = (n - j0).min(NR);
                let panel = &packed[p * k * NR..(p + 1) * k * NR];
                let acc = micro_tile(&apack, panel);
                for (i, acc_i) in acc.iter().take(m).enumerate() {
                    let off = (r0 + i) * n + j0;
                    out_chunk[off..off + w].copy_from_slice(&acc_i[..w]);
                }
                j0 += NR;
                p += 1;
            }
            r0 += m;
        }
    });
}

/// The `MR × NR` register tile: `MR` output rows advance together down
/// `k`, each keeping `NR` partial sums live. One accumulator per output
/// element walking `k` in order makes the result independent of how rows
/// were grouped into tiles or chunks. Both operands arrive packed
/// (`apack` column-major by `MR`, `panel` column-major by `NR`), so the
/// loop carries no index arithmetic or bounds checks.
#[inline(always)]
fn micro_tile(apack: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        for i in 0..MR {
            let aik = av[i];
            for (o, &bj) in acc[i].iter_mut().zip(bv) {
                *o += aik * bj;
            }
        }
    }
    acc
}

/// `out += aᵀ · b` over flat buffers: `a` is `rows × ca`, `b` is
/// `rows × cb`, `out` is `ca × cb` (caller zero-initializes). Four
/// coefficient rows are fused per output pass; per output element the
/// row contributions still land in ascending row order.
pub fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, ca: usize, cb: usize) {
    debug_assert_eq!(a.len(), rows * ca);
    debug_assert_eq!(b.len(), rows * cb);
    debug_assert_eq!(out.len(), ca * cb);
    let mut r0 = 0;
    while r0 + 4 <= rows {
        let b0 = &b[r0 * cb..(r0 + 1) * cb];
        let b1 = &b[(r0 + 1) * cb..(r0 + 2) * cb];
        let b2 = &b[(r0 + 2) * cb..(r0 + 3) * cb];
        let b3 = &b[(r0 + 3) * cb..(r0 + 4) * cb];
        for i in 0..ca {
            let (a0, a1, a2, a3) = (
                a[r0 * ca + i],
                a[(r0 + 1) * ca + i],
                a[(r0 + 2) * ca + i],
                a[(r0 + 3) * ca + i],
            );
            let orow = &mut out[i * cb..(i + 1) * cb];
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += ((a0 * x0 + a1 * x1) + a2 * x2) + a3 * x3;
            }
        }
        r0 += 4;
    }
    for r in r0..rows {
        let brow = &b[r * cb..(r + 1) * cb];
        for i in 0..ca {
            axpy(a[r * ca + i], brow, &mut out[i * cb..(i + 1) * cb]);
        }
    }
}

/// `out = a · b` over flat buffers: `a` is `rows × k`, `b` is `k × n`,
/// `out` is `rows × n` (caller zero-initializes; accumulates). Four inner
/// coefficients are fused per output pass; per output element the inner
/// contributions land in ascending `k` order.
pub fn matmul_nn(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), rows * n);
    for r in 0..rows {
        let ar = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (ar[kk], ar[kk + 1], ar[kk + 2], ar[kk + 3]);
            let b0 = &b[kk * n..(kk + 1) * n];
            let b1 = &b[(kk + 1) * n..(kk + 2) * n];
            let b2 = &b[(kk + 2) * n..(kk + 3) * n];
            let b3 = &b[(kk + 3) * n..(kk + 4) * n];
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += ((a0 * x0 + a1 * x1) + a2 * x2) + a3 * x3;
            }
            kk += 4;
        }
        for kk in kk..k {
            axpy(ar[kk], &b[kk * n..(kk + 1) * n], orow);
        }
    }
}

/// The pre-blocking scalar matmul paths, kept verbatim (including the
/// `0.0`-coefficient skip bug in `tn`/`nn`) so benches can report measured
/// speedups against the exact shipped baseline and property tests can pin
/// the blocked kernels to an independent implementation.
pub mod reference {
    use crate::tensor::{axpy, dot, Matrix};

    /// Row-by-row `dot` formulation of `a · bᵀ`.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for r in 0..a.rows() {
            let ar = a.row(r);
            let o = out.row_mut(r);
            for (j, o) in o.iter_mut().enumerate() {
                *o = dot(ar, b.row(j));
            }
        }
        out
    }

    /// `aᵀ · b` as a sequence of rank-1 `axpy` updates, skipping zero
    /// coefficients (the historical behavior — note this drops NaN/Inf
    /// contributions from rows paired with a `0.0` coefficient).
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            let ar = a.row(r);
            let br = b.row(r);
            for (i, &ai) in ar.iter().enumerate() {
                // exact IEEE zero test to skip no-op axpy work (reference kernel, kept verbatim)
                if ai == 0.0 {
                    continue;
                }
                axpy(ai, br, out.row_mut(i));
            }
        }
        out
    }

    /// `a · b` as row-wise `axpy` accumulation, skipping zero coefficients
    /// (same caveat as [`matmul_tn`]).
    pub fn matmul_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            let ar = a.row(r);
            let o = out.row_mut(r);
            for (kk, &ak) in ar.iter().enumerate() {
                // exact IEEE zero test to skip no-op axpy work (reference kernel, kept verbatim)
                if ak == 0.0 {
                    continue;
                }
                axpy(ak, b.row(kk), o);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Cheap deterministic fill, including negatives and exact zeros.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as i32 % 1000) as f32 / 250.0 - 2.0;
                if v.abs() < 0.05 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            let tol = 1e-5 * x.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_nt_matches_reference_across_shapes() {
        // Tile-tail adversaries: shapes straddling MR/NR boundaries.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 9, 9),
            (7, 16, 17),
            (8, 13, 23),
            (17, 33, 12),
            (31, 64, 31),
            (64, 31, 64),
        ] {
            let a = mat(m, k, 1);
            let b = mat(n, k, 2);
            assert_close(
                &a.matmul_nt(&b),
                &reference::matmul_nt(&a, &b),
                &format!("nt {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn blocked_tn_nn_match_reference() {
        for &(rows, ca, cb) in &[(1, 1, 1), (3, 5, 7), (16, 8, 24), (33, 17, 9)] {
            let a = mat(rows, ca, 3);
            let b = mat(rows, cb, 4);
            assert_close(
                &a.matmul_tn(&b),
                &reference::matmul_tn(&a, &b),
                &format!("tn {rows}x{ca}x{cb}"),
            );
        }
        for &(rows, k, n) in &[(1, 1, 1), (3, 5, 7), (16, 8, 24), (9, 33, 12)] {
            let a = mat(rows, k, 5);
            let b = mat(k, n, 6);
            assert_close(
                &a.matmul_nn(&b),
                &reference::matmul_nn(&a, &b),
                &format!("nn {rows}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn zero_extent_shapes_are_fine() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(3, 5);
        assert_eq!(a.matmul_nt(&b).rows(), 0);
        let c = Matrix::zeros(4, 0);
        let d = Matrix::zeros(6, 0);
        let o = c.matmul_nt(&d);
        assert_eq!((o.rows(), o.cols()), (4, 6));
        assert!(o.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn blocked_path_is_bit_stable_across_chunk_splits() {
        // The same multiply with different row-chunk splits must agree
        // bit-for-bit: one accumulator per element, k walked in order.
        let a = mat(140, 32, 7);
        let b = mat(24, 32, 8);
        let full = a.matmul_nt(&b);
        let mut split = Matrix::zeros(140, 24);
        // Drive nt_rows directly with a deliberately ragged split.
        let mut packed = Vec::new();
        pack_nt(b.as_slice(), 32, 24, &mut packed);
        let (lo, hi) = split.as_mut_slice().split_at_mut(61 * 24);
        nt_rows(&a.as_slice()[..61 * 32], 32, &packed, 24, lo);
        nt_rows(&a.as_slice()[61 * 32..], 32, &packed, 24, hi);
        assert_eq!(
            full.as_slice(),
            split.as_slice(),
            "chunk split changed bits"
        );
    }

    #[test]
    fn tn_propagates_nan_through_zero_coefficients() {
        // Regression: the historical path skipped `ai == 0.0`, losing the
        // IEEE `0 × NaN = NaN` poisoning that divergence detection relies on.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![f32::NAN, 3.0]);
        let fixed = a.matmul_tn(&b);
        assert!(fixed.get(0, 0).is_nan(), "0·NaN must be NaN");
        assert_eq!(fixed.get(0, 1), 0.0, "0·3 stays finite");
        assert!(fixed.get(1, 0).is_nan(), "1·NaN must be NaN");
        let old = reference::matmul_tn(&a, &b);
        assert_eq!(old.get(0, 0), 0.0, "reference documents the old bug");
    }

    #[test]
    fn nn_propagates_nan_through_zero_coefficients() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, f32::INFINITY, 1.0, 1.0]);
        let fixed = a.matmul_nn(&b);
        assert!(fixed.get(0, 0).is_nan(), "0·NaN must be NaN");
        assert!(fixed.get(0, 1).is_nan(), "0·∞ must be NaN");
        let old = reference::matmul_nn(&a, &b);
        assert_eq!(old.get(0, 0), 2.0, "reference documents the old bug");
    }

    #[test]
    fn nt_propagates_nan_in_both_operands() {
        let a = Matrix::from_vec(4, 8, vec![1.0; 32]);
        let mut b = mat(8, 8, 9);
        b.set(3, 5, f32::NAN);
        let out = a.matmul_nt(&b);
        for r in 0..4 {
            assert!(out.get(r, 3).is_nan());
            assert!(out.get(r, 2).is_finite());
        }
    }
}
