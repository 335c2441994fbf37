//! Adagrad with PBG's row-summed accumulator.
//!
//! Standard Adagrad keeps one squared-gradient accumulator per parameter.
//! On a graph with billions of node embeddings that doubles memory, so PBG
//! "sums the accumulated gradient G over each embedding vector" (§3.1):
//! each embedding row keeps a *single* scalar accumulator, updated with the
//! mean squared gradient of the row. Small global parameters (relation
//! operators) use full per-element Adagrad.

use crate::hogwild::HogwildArray;
use crate::vecmath;

/// Row-wise Adagrad: one scalar accumulator per embedding row.
///
/// Shared across HOGWILD threads: the accumulator lives in a
/// [`HogwildArray`] column vector and is bumped with a lock-free
/// `fetch_add`, so concurrent threads never lose accumulator mass.
#[derive(Debug)]
pub struct AdagradRow {
    acc: HogwildArray,
    lr: f32,
    eps: f32,
}

impl AdagradRow {
    /// Creates state for `rows` embedding rows with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(rows: usize, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        AdagradRow {
            acc: HogwildArray::zeros(rows, 1),
            lr,
            eps: 1e-8,
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> usize {
        self.acc.rows()
    }

    /// Current accumulator value for `row`.
    pub fn accumulator(&self, row: usize) -> f32 {
        self.acc.get(row, 0)
    }

    /// Prefetch hint for `row`'s accumulator (see
    /// [`HogwildArray::prefetch_row`]).
    #[inline]
    pub fn prefetch(&self, row: usize) {
        self.acc.prefetch_row(row);
    }

    /// Folds `grad` into the accumulator for `row` and returns the step
    /// size `lr / (sqrt(acc') + eps)` to apply against `grad`.
    ///
    /// The caller then performs `embedding[row] -= step * grad` (typically
    /// via [`HogwildArray::add_to_row`] with `alpha = -step`).
    #[inline]
    pub fn step_size(&self, row: usize, grad: &[f32]) -> f32 {
        let g2 = vecmath::mean_sq(grad);
        let prev = self.acc.fetch_add(row, 0, g2);
        let acc = prev + g2;
        self.lr / (acc.sqrt() + self.eps)
    }

    /// Applies one Adagrad update of `grad` to `row` of `params`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds for `params` or the accumulator.
    #[inline]
    pub fn update(&self, params: &HogwildArray, row: usize, grad: &[f32]) {
        let step = self.step_size(row, grad);
        params.add_to_row(row, -step, grad);
    }

    /// Resets all accumulators to zero (e.g., between epochs in tests).
    pub fn reset(&self) {
        let zeros = vec![0.0; self.acc.len()];
        self.acc.copy_from_slice(&zeros);
    }

    /// Resident bytes of optimizer state.
    pub fn bytes(&self) -> usize {
        self.acc.bytes()
    }

    /// Snapshot of all accumulators (for checkpointing).
    pub fn to_vec(&self) -> Vec<f32> {
        self.acc.to_vec()
    }

    /// Restores accumulators from a checkpoint snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows()`.
    pub fn restore(&self, values: &[f32]) {
        self.acc.copy_from_slice(values);
    }
}

/// Dense per-element Adagrad for small parameter vectors (relation
/// operators, global/featurized entity parameters).
#[derive(Debug, Clone)]
pub struct AdagradDense {
    acc: Vec<f32>,
    lr: f32,
    eps: f32,
}

impl AdagradDense {
    /// Creates state for a parameter vector of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(len: usize, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        AdagradDense {
            acc: vec![0.0; len],
            lr,
            eps: 1e-8,
        }
    }

    /// Number of parameters tracked.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// `true` when tracking no parameters.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Applies one Adagrad update of `grad` to `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != len()` or `grad.len() != len()`.
    pub fn update(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(
            params.len(),
            self.acc.len(),
            "update: params length mismatch"
        );
        assert_eq!(grad.len(), self.acc.len(), "update: grad length mismatch");
        for i in 0..grad.len() {
            self.acc[i] += grad[i] * grad[i];
            params[i] -= self.lr / (self.acc[i].sqrt() + self.eps) * grad[i];
        }
    }

    /// Snapshot of accumulators (for checkpointing).
    pub fn accumulators(&self) -> &[f32] {
        &self.acc
    }

    /// Restores accumulators from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn restore(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.acc.len(), "restore: length mismatch");
        self.acc.copy_from_slice(values);
    }

    /// Resident bytes of optimizer state.
    pub fn bytes(&self) -> usize {
        self.acc.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_size_is_lr_over_grad_norm() {
        let opt = AdagradRow::new(1, 0.1);
        // grad with mean square 4.0 -> acc 4.0 -> step 0.1 / 2.0
        let step = opt.step_size(0, &[2.0, 2.0]);
        assert!((step - 0.05).abs() < 1e-6);
    }

    #[test]
    fn step_size_shrinks_over_time() {
        let opt = AdagradRow::new(1, 0.1);
        let g = [1.0, 1.0];
        let s1 = opt.step_size(0, &g);
        let s2 = opt.step_size(0, &g);
        let s3 = opt.step_size(0, &g);
        assert!(s1 > s2 && s2 > s3, "{s1} {s2} {s3}");
    }

    #[test]
    fn update_moves_params_against_gradient() {
        let params = HogwildArray::from_vec(1, 2, vec![1.0, 1.0]);
        let opt = AdagradRow::new(1, 0.5);
        opt.update(&params, 0, &[1.0, -1.0]);
        let v = params.to_vec();
        assert!(v[0] < 1.0, "positive grad must decrease param");
        assert!(v[1] > 1.0, "negative grad must increase param");
    }

    #[test]
    fn rows_are_independent() {
        let opt = AdagradRow::new(2, 0.1);
        opt.step_size(0, &[10.0, 10.0]);
        // row 1 untouched: its first step matches a fresh optimizer
        let fresh = AdagradRow::new(1, 0.1);
        assert_eq!(
            opt.step_size(1, &[1.0, 1.0]),
            fresh.step_size(0, &[1.0, 1.0])
        );
    }

    #[test]
    fn reset_restores_initial_step() {
        let opt = AdagradRow::new(1, 0.1);
        let s1 = opt.step_size(0, &[1.0]);
        opt.step_size(0, &[1.0]);
        opt.reset();
        assert_eq!(opt.step_size(0, &[1.0]), s1);
    }

    #[test]
    fn dense_update_matches_reference() {
        let mut opt = AdagradDense::new(2, 0.1);
        let mut p = vec![0.0, 0.0];
        opt.update(&mut p, &[3.0, 4.0]);
        // acc = [9, 16]; step_i = 0.1/sqrt(acc_i) * g_i
        assert!((p[0] - (-0.1 / 3.0 * 3.0)).abs() < 1e-5);
        assert!((p[1] - (-0.1 / 4.0 * 4.0)).abs() < 1e-5);
    }

    #[test]
    fn dense_checkpoint_roundtrip() {
        let mut opt = AdagradDense::new(2, 0.1);
        let mut p = vec![0.0, 0.0];
        opt.update(&mut p, &[1.0, 2.0]);
        let snap = opt.accumulators().to_vec();
        let mut opt2 = AdagradDense::new(2, 0.1);
        opt2.restore(&snap);
        assert_eq!(opt.accumulators(), opt2.accumulators());
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_lr_panics() {
        let _ = AdagradRow::new(1, 0.0);
    }
}
