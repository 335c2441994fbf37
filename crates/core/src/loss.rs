//! Loss functions over a chunk's positive and negative scores.
//!
//! Inputs are the positive scores (one per edge in the chunk) and a
//! `C × N` matrix of negative scores. Excluded candidates (induced
//! positives, §4.3 — and filtered edges in evaluation) are masked by
//! setting their score to `-∞`, which every loss treats as "not there":
//! the margin term is never violated, `exp(-∞) = 0`, `σ(-∞) = 0`.
//!
//! Per-edge weights implement the paper's per-relation edge weight
//! configuration (§1: "per-relation configuration options such as edge
//! weight").

use crate::config::LossKind;
use pbg_tensor::matrix::Matrix;

/// Loss value and gradients w.r.t. the scores.
#[derive(Debug, Clone, Default)]
pub struct LossGrads {
    /// Total loss over the chunk.
    pub loss: f64,
    /// dL/d pos_score, one per positive.
    pub grad_pos: Vec<f32>,
    /// dL/d neg_score, `C × N`.
    pub grad_neg: Matrix,
}

/// Numerically-stable `ln(1 + e^x)`; 0 for `x = -∞`.
#[inline]
fn softplus(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        return 0.0;
    }
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Logistic sigmoid; 0 for `x = -∞`.
#[inline]
fn sigmoid(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        return 0.0;
    }
    1.0 / (1.0 + (-x).exp())
}

/// Computes the loss and score gradients for one chunk.
///
/// `weights[i]` scales edge `i`'s contribution (all 1.0 when the relation
/// carries no weight). Masked negatives must hold `f32::NEG_INFINITY`.
///
/// # Panics
///
/// Panics if `pos_scores`, `weights`, and `neg_scores` rows disagree.
pub fn compute(
    loss: LossKind,
    margin: f32,
    pos_scores: &[f32],
    neg_scores: &Matrix,
    weights: &[f32],
) -> LossGrads {
    let mut out = LossGrads::default();
    compute_into(loss, margin, pos_scores, neg_scores, weights, &mut out);
    out
}

/// [`compute`] into `out`, whose buffers are resized, zeroed and refilled.
///
/// # Panics
///
/// Panics if `pos_scores`, `weights`, and `neg_scores` rows disagree.
pub fn compute_into(
    loss: LossKind,
    margin: f32,
    pos_scores: &[f32],
    neg_scores: &Matrix,
    weights: &[f32],
    out: &mut LossGrads,
) {
    let c = pos_scores.len();
    assert_eq!(neg_scores.rows(), c, "loss: neg rows mismatch");
    assert_eq!(weights.len(), c, "loss: weights mismatch");
    let n = neg_scores.cols();
    let mut total = 0.0f64;
    let LossGrads {
        grad_pos, grad_neg, ..
    } = out;
    grad_pos.clear();
    grad_pos.resize(c, 0.0);
    grad_neg.resize(c, n);
    match loss {
        LossKind::MarginRanking => {
            for i in 0..c {
                let w = weights[i];
                let pos = pos_scores[i];
                let gn = grad_neg.row_mut(i);
                for (j, &neg) in neg_scores.row(i).iter().enumerate() {
                    let violation = margin + neg - pos;
                    if violation > 0.0 {
                        total += (w * violation) as f64;
                        gn[j] = w;
                        grad_pos[i] -= w;
                    }
                }
            }
        }
        LossKind::Logistic => {
            for i in 0..c {
                let w = weights[i];
                let pos = pos_scores[i];
                total += (w * softplus(-pos)) as f64;
                grad_pos[i] = w * (sigmoid(pos) - 1.0);
                let gn = grad_neg.row_mut(i);
                for (j, &neg) in neg_scores.row(i).iter().enumerate() {
                    total += (w * softplus(neg)) as f64;
                    gn[j] = w * sigmoid(neg);
                }
            }
        }
        LossKind::Softmax => {
            for i in 0..c {
                let w = weights[i];
                let pos = pos_scores[i];
                let row = neg_scores.row(i);
                let max = row.iter().copied().fold(pos, f32::max);
                let exp_pos = (pos - max).exp();
                let mut z = exp_pos as f64;
                for &neg in row {
                    if neg != f32::NEG_INFINITY {
                        z += ((neg - max).exp()) as f64;
                    }
                }
                // loss = -log( e^{pos} / Z )
                total += w as f64 * (z.ln() - (pos - max) as f64);
                let p_pos = (exp_pos as f64 / z) as f32;
                grad_pos[i] = w * (p_pos - 1.0);
                let gn = grad_neg.row_mut(i);
                for (j, &neg) in row.iter().enumerate() {
                    if neg != f32::NEG_INFINITY {
                        gn[j] = w * ((((neg - max).exp()) as f64 / z) as f32);
                    }
                }
            }
        }
    }
    out.loss = total;
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOSSES: [LossKind; 3] = [
        LossKind::MarginRanking,
        LossKind::Logistic,
        LossKind::Softmax,
    ];

    fn neg_matrix(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn margin_ranking_known_values() {
        // pos = 1.0, negs = [0.5, 2.0], margin = 0.1
        // violations: 0.1 + 0.5 - 1.0 = -0.4 (no), 0.1 + 2.0 - 1.0 = 1.1 (yes)
        let out = compute(
            LossKind::MarginRanking,
            0.1,
            &[1.0],
            &neg_matrix(&[&[0.5, 2.0]]),
            &[1.0],
        );
        assert!((out.loss - 1.1).abs() < 1e-6);
        assert_eq!(out.grad_pos, vec![-1.0]);
        assert_eq!(out.grad_neg.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn weights_scale_everything() {
        for loss in LOSSES {
            let unweighted = compute(loss, 0.1, &[0.3], &neg_matrix(&[&[0.5]]), &[1.0]);
            let weighted = compute(loss, 0.1, &[0.3], &neg_matrix(&[&[0.5]]), &[2.0]);
            assert!(
                (weighted.loss - 2.0 * unweighted.loss).abs() < 1e-6,
                "{loss:?} loss not scaled"
            );
            assert!(
                (weighted.grad_pos[0] - 2.0 * unweighted.grad_pos[0]).abs() < 1e-6,
                "{loss:?} grad_pos not scaled"
            );
        }
    }

    #[test]
    fn masked_negatives_contribute_nothing() {
        for loss in LOSSES {
            let with_mask = compute(
                loss,
                0.1,
                &[0.5],
                &neg_matrix(&[&[0.2, f32::NEG_INFINITY]]),
                &[1.0],
            );
            let without = compute(loss, 0.1, &[0.5], &neg_matrix(&[&[0.2]]), &[1.0]);
            assert!(
                (with_mask.loss - without.loss).abs() < 1e-6,
                "{loss:?} mask leaked into loss"
            );
            assert_eq!(
                with_mask.grad_neg.row(0)[1],
                0.0,
                "{loss:?} mask has gradient"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let pos = vec![0.7f32, -0.3];
        let neg = neg_matrix(&[&[0.5, -1.0, 0.1], &[1.5, 0.0, -0.5]]);
        for loss in LOSSES {
            let out = compute(loss, 0.17, &pos, &neg, &[1.0, 0.5]);
            let eps = 1e-3f32;
            // d/d pos_i
            for i in 0..2 {
                let mut pp = pos.clone();
                pp[i] += eps;
                let mut pm = pos.clone();
                pm[i] -= eps;
                let lp = compute(loss, 0.17, &pp, &neg, &[1.0, 0.5]).loss;
                let lm = compute(loss, 0.17, &pm, &neg, &[1.0, 0.5]).loss;
                let fd = (lp - lm) / (2.0 * eps as f64);
                let an = out.grad_pos[i] as f64;
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "{loss:?} grad_pos[{i}]: fd={fd} an={an}"
                );
            }
            // d/d neg_ij
            for i in 0..2 {
                for j in 0..3 {
                    let mut np = neg.clone();
                    np.row_mut(i)[j] += eps;
                    let mut nm = neg.clone();
                    nm.row_mut(i)[j] -= eps;
                    let lp = compute(loss, 0.17, &pos, &np, &[1.0, 0.5]).loss;
                    let lm = compute(loss, 0.17, &pos, &nm, &[1.0, 0.5]).loss;
                    let fd = (lp - lm) / (2.0 * eps as f64);
                    let an = out.grad_neg.row(i)[j] as f64;
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                        "{loss:?} grad_neg[{i}][{j}]: fd={fd} an={an}"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_perfect_prediction_low_loss() {
        // positive score far above negatives -> near-zero loss
        let good = compute(
            LossKind::Softmax,
            0.0,
            &[10.0],
            &neg_matrix(&[&[-10.0, -10.0]]),
            &[1.0],
        );
        assert!(good.loss < 1e-3, "loss {}", good.loss);
        let bad = compute(
            LossKind::Softmax,
            0.0,
            &[-10.0],
            &neg_matrix(&[&[10.0, 10.0]]),
            &[1.0],
        );
        assert!(bad.loss > 10.0, "loss {}", bad.loss);
    }

    #[test]
    fn margin_zero_loss_when_separated() {
        let out = compute(
            LossKind::MarginRanking,
            0.1,
            &[5.0],
            &neg_matrix(&[&[0.0, 1.0, 2.0]]),
            &[1.0],
        );
        assert_eq!(out.loss, 0.0);
        assert_eq!(out.grad_pos[0], 0.0);
    }

    #[test]
    fn all_negatives_masked_softmax_is_safe() {
        let out = compute(
            LossKind::Softmax,
            0.0,
            &[0.5],
            &neg_matrix(&[&[f32::NEG_INFINITY, f32::NEG_INFINITY]]),
            &[1.0],
        );
        assert!(out.loss.abs() < 1e-6, "only positive in softmax -> 0 loss");
        assert!(out.grad_pos[0].abs() < 1e-6);
    }
}
