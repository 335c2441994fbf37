//! Similarity scoring — forward and backward, pairwise and batched.
//!
//! The batched form (`score_matrix`) is the heart of §4.3: all scores of a
//! chunk's positives against its candidate negatives are computed as one
//! `C × N` matrix product instead of `C · N` independent dot products.
//!
//! The training hot path goes through [`BatchScorer`], which packs the
//! candidate side once (see [`pbg_tensor::kernels`]) and serves both the
//! forward score matrix and the fused backward — scoring and both gradient
//! products share one packing and one pass over the loss gradient.

use crate::config::SimilarityKind;
use pbg_tensor::kernels::{PackedNt, ScoreGrad};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::vecmath;
use std::borrow::Cow;

/// Row-wise scores `score(a_i, b_i)` for aligned rows.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn score_pairs(sim: SimilarityKind, a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut out = Vec::new();
    score_pairs_into(sim, a, b, &mut out);
    out
}

/// [`score_pairs`] into `out` (cleared and refilled).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn score_pairs_into(sim: SimilarityKind, a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(a.rows(), b.rows(), "score_pairs: row mismatch");
    assert_eq!(a.cols(), b.cols(), "score_pairs: col mismatch");
    out.clear();
    out.extend((0..a.rows()).map(|i| match sim {
        SimilarityKind::Dot => vecmath::dot(a.row(i), b.row(i)),
        SimilarityKind::Cosine => vecmath::cosine(a.row(i), b.row(i)),
    }));
}

/// Full score matrix `S[i][j] = score(a_i, b_j)` (`a.rows × b.rows`),
/// computed as a batched matrix product.
///
/// # Panics
///
/// Panics if column counts differ.
pub fn score_matrix(sim: SimilarityKind, a: &Matrix, b: &Matrix) -> Matrix {
    match sim {
        SimilarityKind::Dot => a.matmul_nt(b),
        SimilarityKind::Cosine => {
            let an = normalized(a);
            let bn = normalized(b);
            an.matmul_nt(&bn)
        }
    }
}

/// Backward of [`score_pairs`]: `grad[i]` is dL/d score_i; returns
/// (dL/da, dL/db).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn backward_pairs(
    sim: SimilarityKind,
    a: &Matrix,
    b: &Matrix,
    grad: &[f32],
) -> (Matrix, Matrix) {
    let (mut ga, mut gb) = (Matrix::default(), Matrix::default());
    backward_pairs_into(sim, a, b, grad, &mut ga, &mut gb);
    (ga, gb)
}

/// [`backward_pairs`] into `ga`/`gb`, which are resized and overwritten.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn backward_pairs_into(
    sim: SimilarityKind,
    a: &Matrix,
    b: &Matrix,
    grad: &[f32],
    ga: &mut Matrix,
    gb: &mut Matrix,
) {
    assert_eq!(grad.len(), a.rows(), "backward_pairs: grad length mismatch");
    ga.resize(a.rows(), a.cols());
    gb.resize(b.rows(), b.cols());
    match sim {
        SimilarityKind::Dot => {
            for (i, &g) in grad.iter().enumerate() {
                vecmath::axpy(g, b.row(i), ga.row_mut(i));
                vecmath::axpy(g, a.row(i), gb.row_mut(i));
            }
        }
        SimilarityKind::Cosine => {
            for (i, &g) in grad.iter().enumerate() {
                cosine_pair_backward(a.row(i), b.row(i), g, ga.row_mut(i), gb.row_mut(i));
            }
        }
    }
}

/// Backward of [`score_matrix`]: `grad` is dL/dS (`a.rows × b.rows`);
/// returns (dL/da, dL/db).
///
/// Both similarity kinds route through the fused
/// [`pbg_tensor::kernels::score_grads`] kernel, which computes `G·B` and
/// `Gᵀ·A` in a single pass over `G`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn backward_matrix(
    sim: SimilarityKind,
    a: &Matrix,
    b: &Matrix,
    grad: &Matrix,
) -> (Matrix, Matrix) {
    BatchScorer::new(sim, a, b).backward(grad)
}

/// The buffers a [`BatchScorer`] builds: the packed right side and, under
/// cosine, both sides normalized plus their original row norms. Kept by
/// the caller and handed to [`BatchScorer::new_in`] so that a scorer per
/// chunk reuses them instead of allocating.
#[derive(Debug, Clone, Default)]
pub struct ScorerScratch {
    packed: PackedNt,
    an: Matrix,
    bn: Matrix,
    a_norms: Vec<f32>,
    b_norms: Vec<f32>,
}

impl ScorerScratch {
    /// Fills the buffers for scoring `a` against `b` under `sim`.
    fn prepare(&mut self, sim: SimilarityKind, a: &Matrix, b: &Matrix) {
        assert_eq!(a.cols(), b.cols(), "BatchScorer: col mismatch");
        match sim {
            SimilarityKind::Dot => self.packed.repack_matrix(b),
            SimilarityKind::Cosine => {
                normalized_into(a, &mut self.an);
                normalized_into(b, &mut self.bn);
                self.a_norms.clear();
                self.a_norms
                    .extend((0..a.rows()).map(|i| vecmath::norm(a.row(i))));
                self.b_norms.clear();
                self.b_norms
                    .extend((0..b.rows()).map(|j| vecmath::norm(b.row(j))));
                self.packed.repack_matrix(&self.bn);
            }
        }
    }
}

/// The §4.3 hot-path object: packs the candidate side once and serves the
/// forward score matrix plus the fused backward from the same packing.
///
/// One `BatchScorer` per (chunk, corruption side) replaces a
/// [`score_matrix`] / [`backward_matrix`] pair, which would otherwise pack
/// the candidates twice and make two passes over the loss gradient. The
/// scorer borrows both sides; only the packing (and, under cosine, the
/// normalized copies) lives in its [`ScorerScratch`].
#[derive(Debug, Clone)]
pub struct BatchScorer<'a> {
    sim: SimilarityKind,
    a: &'a Matrix,
    b: &'a Matrix,
    scratch: Cow<'a, ScorerScratch>,
}

impl<'a> BatchScorer<'a> {
    /// Builds a scorer for `score(a_i, b_j)`; packs `b` (normalizing both
    /// sides first under cosine).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn new(sim: SimilarityKind, a: &'a Matrix, b: &'a Matrix) -> Self {
        let mut scratch = ScorerScratch::default();
        scratch.prepare(sim, a, b);
        BatchScorer {
            sim,
            a,
            b,
            scratch: Cow::Owned(scratch),
        }
    }

    /// [`BatchScorer::new`] building into a caller-owned `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn new_in(
        scratch: &'a mut ScorerScratch,
        sim: SimilarityKind,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> Self {
        scratch.prepare(sim, a, b);
        BatchScorer {
            sim,
            a,
            b,
            scratch: Cow::Borrowed(scratch),
        }
    }

    /// Left side as scored: `a` for dot, row-normalized `a` for cosine.
    fn lhs(&self) -> &Matrix {
        match self.sim {
            SimilarityKind::Dot => self.a,
            SimilarityKind::Cosine => &self.scratch.an,
        }
    }

    /// The packed right side (`b`, or row-normalized `b` for cosine).
    fn fused(&self) -> ScoreGrad<'_> {
        let rhs = match self.sim {
            SimilarityKind::Dot => self.b,
            SimilarityKind::Cosine => &self.scratch.bn,
        };
        ScoreGrad::from_packed(&self.scratch.packed, rhs)
    }

    /// Forward: the full `a.rows × b.rows` score matrix as one blocked
    /// product against the packed candidates.
    pub fn scores(&self) -> Matrix {
        let mut out = Matrix::default();
        self.scores_into(&mut out);
        out
    }

    /// [`BatchScorer::scores`] into `out`, which is reshaped in place.
    pub fn scores_into(&self, out: &mut Matrix) {
        self.fused().scores_into(self.lhs(), out);
    }

    /// Backward: `grad` is dL/dS; returns (dL/da, dL/db), computed by the
    /// fused kernel in one pass over `grad` with no re-packing.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not `a.rows × b.rows`.
    pub fn backward(&self, grad: &Matrix) -> (Matrix, Matrix) {
        let (mut ga, mut gb) = (Matrix::default(), Matrix::default());
        self.backward_into(grad, &mut ga, &mut gb);
        (ga, gb)
    }

    /// [`BatchScorer::backward`] into `ga`/`gb`, which are reshaped in
    /// place and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not `a.rows × b.rows`.
    pub fn backward_into(&self, grad: &Matrix, ga: &mut Matrix, gb: &mut Matrix) {
        let fused = self.fused();
        fused.backward_into(self.lhs(), grad, ga, gb);
        if self.sim == SimilarityKind::Cosine {
            // W_i = Σ_j G_ij b̂_j and Z_j = Σ_i G_ij â_i in one pass,
            // then the tangent-space projections in place:
            // dA_i = (W_i - (W_i·â_i) â_i) / |a_i|
            let (an, bn) = (self.lhs(), fused.candidates());
            for i in 0..an.rows() {
                tangent_project(ga.row_mut(i), an.row(i), self.scratch.a_norms[i]);
            }
            for j in 0..bn.rows() {
                tangent_project(gb.row_mut(j), bn.row(j), self.scratch.b_norms[j]);
            }
        }
    }
}

/// Rows normalized to unit L2 norm (zero rows stay zero).
fn normalized(m: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    normalized_into(m, &mut out);
    out
}

/// [`normalized`] into `out`, which is reshaped and overwritten.
fn normalized_into(m: &Matrix, out: &mut Matrix) {
    out.reshape(m.rows(), m.cols());
    out.as_mut_slice().copy_from_slice(m.as_slice());
    for i in 0..out.rows() {
        vecmath::normalize(out.row_mut(i));
    }
}

/// `w = (w - (w·u) u) / norm` in place, the cosine tangent-space
/// projection; zero when `norm == 0`.
fn tangent_project(w: &mut [f32], unit: &[f32], norm: f32) {
    if norm == 0.0 {
        w.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    let proj = vecmath::dot(w, unit);
    for (o, &u) in w.iter_mut().zip(unit) {
        *o = (*o - proj * u) / norm;
    }
}

/// Gradient of `cos(a, b)` scaled by `g`, written to `ga`/`gb` (zero
/// when either vector is zero).
fn cosine_pair_backward(a: &[f32], b: &[f32], g: f32, ga: &mut [f32], gb: &mut [f32]) {
    let na = vecmath::norm(a);
    let nb = vecmath::norm(b);
    if na == 0.0 || nb == 0.0 {
        ga.iter_mut().for_each(|v| *v = 0.0);
        gb.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let cos = vecmath::dot(a, b) / (na * nb);
    for k in 0..a.len() {
        ga[k] = g * (b[k] / (na * nb) - cos * a[k] / (na * na));
        gb[k] = g * (a[k] / (na * nb) - cos * b[k] / (nb * nb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_tensor::rng::Xoshiro256;

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.fill_with(|_, _| rng.gen_normal());
        m
    }

    #[test]
    fn matrix_diag_matches_pairs() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let a = random_matrix(4, 6, &mut rng);
        let b = random_matrix(4, 6, &mut rng);
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            let pairs = score_pairs(sim, &a, &b);
            let matrix = score_matrix(sim, &a, &b);
            for (i, &p) in pairs.iter().enumerate() {
                assert!(
                    (p - matrix.row(i)[i]).abs() < 1e-4,
                    "{sim:?}: diag mismatch at {i}"
                );
            }
        }
    }

    #[test]
    fn cosine_scores_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let a = random_matrix(5, 8, &mut rng);
        let b = random_matrix(7, 8, &mut rng);
        let s = score_matrix(SimilarityKind::Cosine, &a, &b);
        for i in 0..5 {
            for j in 0..7 {
                assert!(s.row(i)[j].abs() <= 1.0001);
            }
        }
    }

    fn fd_check_matrix(sim: SimilarityKind) {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let a = random_matrix(3, 4, &mut rng);
        let b = random_matrix(5, 4, &mut rng);
        let probe = random_matrix(3, 5, &mut rng);
        let objective = |a: &Matrix, b: &Matrix| -> f64 {
            let s = score_matrix(sim, a, b);
            let mut total = 0.0f64;
            for i in 0..3 {
                total += vecmath::dot(s.row(i), probe.row(i)) as f64;
            }
            total
        };
        let (ga, gb) = backward_matrix(sim, &a, &b, &probe);
        let eps = 1e-3f32;
        for i in 0..3 {
            for k in 0..4 {
                let mut ap = a.clone();
                ap.row_mut(i)[k] += eps;
                let mut am = a.clone();
                am.row_mut(i)[k] -= eps;
                let fd = (objective(&ap, &b) - objective(&am, &b)) / (2.0 * eps as f64);
                let an = ga.row(i)[k] as f64;
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "{sim:?} grad_a[{i}][{k}]: fd={fd} analytic={an}"
                );
            }
        }
        for j in 0..5 {
            for k in 0..4 {
                let mut bp = b.clone();
                bp.row_mut(j)[k] += eps;
                let mut bm = b.clone();
                bm.row_mut(j)[k] -= eps;
                let fd = (objective(&a, &bp) - objective(&a, &bm)) / (2.0 * eps as f64);
                let an = gb.row(j)[k] as f64;
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "{sim:?} grad_b[{j}][{k}]: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn dot_matrix_gradients_match_fd() {
        fd_check_matrix(SimilarityKind::Dot);
    }

    #[test]
    fn cosine_matrix_gradients_match_fd() {
        fd_check_matrix(SimilarityKind::Cosine);
    }

    #[test]
    fn pairs_gradients_match_fd() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            let a = random_matrix(3, 4, &mut rng);
            let b = random_matrix(3, 4, &mut rng);
            let gvec = vec![0.7f32, -1.2, 0.3];
            let objective = |a: &Matrix, b: &Matrix| -> f64 {
                score_pairs(sim, a, b)
                    .iter()
                    .zip(&gvec)
                    .map(|(s, g)| (*s * *g) as f64)
                    .sum()
            };
            let (ga, gb) = backward_pairs(sim, &a, &b, &gvec);
            let eps = 1e-3f32;
            for i in 0..3 {
                for k in 0..4 {
                    let mut ap = a.clone();
                    ap.row_mut(i)[k] += eps;
                    let mut am = a.clone();
                    am.row_mut(i)[k] -= eps;
                    let fd = (objective(&ap, &b) - objective(&am, &b)) / (2.0 * eps as f64);
                    let an = ga.row(i)[k] as f64;
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                        "{sim:?} pair grad_a: fd={fd} an={an}"
                    );
                    let mut bp = b.clone();
                    bp.row_mut(i)[k] += eps;
                    let mut bm = b.clone();
                    bm.row_mut(i)[k] -= eps;
                    let fd = (objective(&a, &bp) - objective(&a, &bm)) / (2.0 * eps as f64);
                    let an = gb.row(i)[k] as f64;
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                        "{sim:?} pair grad_b: fd={fd} an={an}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_scorer_matches_unfused_path() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            let a = random_matrix(6, 12, &mut rng);
            let b = random_matrix(9, 12, &mut rng);
            let g = random_matrix(6, 9, &mut rng);
            let scorer = BatchScorer::new(sim, &a, &b);
            let s_fused = scorer.scores();
            let s_plain = score_matrix(sim, &a, &b);
            for i in 0..6 {
                for j in 0..9 {
                    assert!(
                        (s_fused.row(i)[j] - s_plain.row(i)[j]).abs() < 1e-5,
                        "{sim:?} score [{i}][{j}]"
                    );
                }
            }
            let (ga_f, gb_f) = scorer.backward(&g);
            let (ga_p, gb_p) = backward_matrix(sim, &a, &b, &g);
            for (x, y) in ga_f.as_slice().iter().zip(ga_p.as_slice()) {
                assert!((x - y).abs() < 1e-5, "{sim:?} ga: {x} vs {y}");
            }
            for (x, y) in gb_f.as_slice().iter().zip(gb_p.as_slice()) {
                assert!((x - y).abs() < 1e-5, "{sim:?} gb: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_vector_cosine_gradient_is_zero() {
        let a = Matrix::zeros(1, 4);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let (ga, _) = backward_pairs(SimilarityKind::Cosine, &a, &b, &[1.0]);
        assert_eq!(ga.row(0), &[0.0; 4]);
    }
}
