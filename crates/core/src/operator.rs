//! Relation operators `g(x, θ_r)` — forward and backward.
//!
//! The operator kinds (§3.1) cover the classic multi-relation models:
//! identity (plain factorization), translation (TransE), diagonal
//! (DistMult), linear (RESCAL), and complex-diagonal (ComplEx). Operators
//! act on *batches*: a `C × d` matrix of embeddings transforms in one shot,
//! which for the linear operator is a single matmul — the optimization §4.3
//! calls out for relation-grouped batches.

use pbg_graph::schema::OperatorKind;
use pbg_tensor::complex::{complex_hadamard, complex_hadamard_conj};
use pbg_tensor::kernels::{self, PackedNt};
use pbg_tensor::matrix::Matrix;

/// Initial parameter values for `op` at dimension `dim`: every operator
/// starts as (near) identity so early training is stable.
///
/// # Panics
///
/// Panics if `op` is `ComplexDiagonal` and `dim` is odd.
pub fn init_params(op: OperatorKind, dim: usize) -> Vec<f32> {
    match op {
        OperatorKind::Identity => Vec::new(),
        OperatorKind::Translation => vec![0.0; dim],
        OperatorKind::Diagonal => vec![1.0; dim],
        OperatorKind::ComplexDiagonal => {
            assert!(dim.is_multiple_of(2), "complex operator needs even dim");
            let mut p = vec![0.0; dim];
            for i in (0..dim).step_by(2) {
                p[i] = 1.0; // 1 + 0i
            }
            p
        }
        OperatorKind::Linear => {
            let mut p = vec![0.0; dim * dim];
            for i in 0..dim {
                p[i * dim + i] = 1.0;
            }
            p
        }
    }
}

/// Buffers the linear operator reuses across calls: the packed parameter
/// matrix of the forward product and the transposed output gradient of
/// the backward one. The other operators need none.
#[derive(Debug, Clone, Default)]
pub struct OperatorScratch {
    packed: PackedNt,
    grad_t: Matrix,
}

/// Applies `g(·, params)` to every row of `input` (`C × d`).
///
/// # Panics
///
/// Panics if `params.len() != op.param_count(input.cols())`.
pub fn apply(op: OperatorKind, params: &[f32], input: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    let result = apply_into(op, params, input, &mut out, &mut OperatorScratch::default());
    // the identity operator hands back its input: copy it out
    if std::ptr::eq(result, input) {
        input.clone()
    } else {
        out
    }
}

/// [`apply`] without allocating: writes `g(input)` into `out` (reshaped
/// in place) and returns it. The identity operator instead returns
/// `input` itself and leaves `out` untouched.
///
/// # Panics
///
/// Panics if `params.len() != op.param_count(input.cols())`.
pub fn apply_into<'a>(
    op: OperatorKind,
    params: &[f32],
    input: &'a Matrix,
    out: &'a mut Matrix,
    scratch: &mut OperatorScratch,
) -> &'a Matrix {
    let d = input.cols();
    assert_eq!(
        params.len(),
        op.param_count(d),
        "operator {op} expects {} params for dim {d}, got {}",
        op.param_count(d),
        params.len()
    );
    let rows = input.rows();
    match op {
        OperatorKind::Identity => return input,
        OperatorKind::Translation => {
            out.reshape(rows, d);
            out.as_mut_slice().copy_from_slice(input.as_slice());
            for i in 0..rows {
                pbg_tensor::vecmath::axpy(1.0, params, out.row_mut(i));
            }
        }
        OperatorKind::Diagonal => {
            out.reshape(rows, d);
            for i in 0..rows {
                pbg_tensor::vecmath::hadamard(input.row(i), params, out.row_mut(i));
            }
        }
        OperatorKind::ComplexDiagonal => {
            out.reshape(rows, d);
            for i in 0..rows {
                complex_hadamard(input.row(i), params, out.row_mut(i));
            }
        }
        OperatorKind::Linear => {
            // params is A (d×d, row-major); row-vector form: out = x · Aᵀ,
            // split over threads exactly as `Matrix::matmul_nt` splits it
            out.reshape(rows, d);
            scratch.packed.repack(d, d, params, d.max(1));
            kernels::matmul_nt_packed_threaded(
                rows,
                d,
                input.as_slice(),
                d.max(1),
                &scratch.packed,
                out.as_mut_slice(),
                d.max(1),
                kernels::auto_threads(rows, d, d),
            );
        }
    }
    out
}

/// Backpropagates through the operator: given `input` (`C × d`) and the
/// loss gradient w.r.t. the operator output (`C × d`), returns the
/// gradient w.r.t. `input` and w.r.t. the parameters.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `op`.
pub fn backward(
    op: OperatorKind,
    params: &[f32],
    input: &Matrix,
    grad_out: &Matrix,
) -> (Matrix, Vec<f32>) {
    let (mut grad_in, mut grad_params) = (Matrix::default(), Vec::new());
    let borrowed = backward_into(
        op,
        params,
        input,
        grad_out,
        &mut grad_in,
        &mut grad_params,
        &mut OperatorScratch::default(),
    );
    // identity and translation hand back `grad_out`: copy it out
    if std::ptr::eq(borrowed, grad_out) {
        grad_in = grad_out.clone();
    }
    (grad_in, grad_params)
}

/// [`backward`] without allocating: the parameter gradient is written to
/// `grad_params` (resized and overwritten) and the input gradient to
/// `grad_in`, which is returned. For the identity and translation
/// operators the input gradient *is* `grad_out`, so that is returned
/// instead and `grad_in` is left untouched.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `op`.
pub fn backward_into<'a>(
    op: OperatorKind,
    params: &[f32],
    input: &Matrix,
    grad_out: &'a Matrix,
    grad_in: &'a mut Matrix,
    grad_params: &mut Vec<f32>,
    scratch: &mut OperatorScratch,
) -> &'a Matrix {
    let d = input.cols();
    let rows = input.rows();
    assert_eq!(grad_out.rows(), rows, "backward: row mismatch");
    assert_eq!(grad_out.cols(), d, "backward: col mismatch");
    assert_eq!(params.len(), op.param_count(d), "backward: param mismatch");
    grad_params.clear();
    grad_params.resize(params.len(), 0.0);
    match op {
        OperatorKind::Identity => grad_out,
        OperatorKind::Translation => {
            // out = x + θ: grad_x = grad_out, grad_θ = Σ_rows grad_out
            for i in 0..rows {
                pbg_tensor::vecmath::axpy(1.0, grad_out.row(i), grad_params);
            }
            grad_out
        }
        OperatorKind::Diagonal => {
            // out = x ⊙ θ: grad_x = g ⊙ θ, grad_θ = Σ g ⊙ x. Row i of
            // `grad_in` holds g ⊙ x until it is summed, then g ⊙ θ.
            grad_in.reshape(rows, d);
            for i in 0..rows {
                let row = grad_in.row_mut(i);
                pbg_tensor::vecmath::hadamard(grad_out.row(i), input.row(i), row);
                pbg_tensor::vecmath::axpy(1.0, row, grad_params);
                pbg_tensor::vecmath::hadamard(grad_out.row(i), params, row);
            }
            grad_in
        }
        OperatorKind::ComplexDiagonal => {
            // out = x ⊙c θ: grad_x = g ⊙c conj(θ), grad_θ = Σ g ⊙c conj(x)
            grad_in.reshape(rows, d);
            for i in 0..rows {
                let row = grad_in.row_mut(i);
                complex_hadamard_conj(grad_out.row(i), input.row(i), row);
                pbg_tensor::vecmath::axpy(1.0, row, grad_params);
                complex_hadamard_conj(grad_out.row(i), params, row);
            }
            grad_in
        }
        OperatorKind::Linear => {
            // out = x · Aᵀ: grad_x = g · A, grad_A = gᵀ · x, with the same
            // kernels and strides `Matrix::matmul`/`transpose` use
            grad_in.reshape(rows, d);
            kernels::matmul(
                rows,
                d,
                d,
                grad_out.as_slice(),
                d.max(1),
                params,
                d.max(1),
                grad_in.as_mut_slice(),
                d.max(1),
            );
            let grad_t = &mut scratch.grad_t;
            grad_t.reshape(d, rows);
            kernels::transpose(
                rows,
                d,
                grad_out.as_slice(),
                d.max(1),
                grad_t.as_mut_slice(),
                rows.max(1),
            );
            kernels::matmul(
                d,
                d,
                rows,
                grad_t.as_slice(),
                rows.max(1),
                input.as_slice(),
                d.max(1),
                grad_params,
                d.max(1),
            );
            grad_in
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_tensor::rng::Xoshiro256;

    const OPS: [OperatorKind; 5] = [
        OperatorKind::Identity,
        OperatorKind::Translation,
        OperatorKind::Diagonal,
        OperatorKind::ComplexDiagonal,
        OperatorKind::Linear,
    ];

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.fill_with(|_, _| rng.gen_normal() * 0.5);
        m
    }

    fn random_params(op: OperatorKind, dim: usize, rng: &mut Xoshiro256) -> Vec<f32> {
        (0..op.param_count(dim))
            .map(|_| rng.gen_normal() * 0.5)
            .collect()
    }

    /// Scalar objective for gradient checking: sum of (out ⊙ probe).
    fn objective(op: OperatorKind, params: &[f32], input: &Matrix, probe: &Matrix) -> f64 {
        let out = apply(op, params, input);
        let mut total = 0.0f64;
        for i in 0..out.rows() {
            total += pbg_tensor::vecmath::dot(out.row(i), probe.row(i)) as f64;
        }
        total
    }

    #[test]
    fn identity_init_is_noop_for_all_ops() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let x = random_matrix(3, 4, &mut rng);
        for op in OPS {
            let params = init_params(op, 4);
            let out = apply(op, &params, &x);
            for i in 0..3 {
                for j in 0..4 {
                    assert!(
                        (out.row(i)[j] - x.row(i)[j]).abs() < 1e-6,
                        "{op} init is not identity"
                    );
                }
            }
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for op in OPS {
            let x = random_matrix(3, 4, &mut rng);
            let params = random_params(op, 4, &mut rng);
            let probe = random_matrix(3, 4, &mut rng);
            let (grad_in, _) = backward(op, &params, &x, &probe);
            let eps = 1e-3f32;
            for i in 0..3 {
                for j in 0..4 {
                    let mut xp = x.clone();
                    xp.row_mut(i)[j] += eps;
                    let mut xm = x.clone();
                    xm.row_mut(i)[j] -= eps;
                    let fd = (objective(op, &params, &xp, &probe)
                        - objective(op, &params, &xm, &probe))
                        / (2.0 * eps as f64);
                    let an = grad_in.row(i)[j] as f64;
                    assert!(
                        (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                        "{op} grad_in[{i}][{j}]: fd={fd} analytic={an}"
                    );
                }
            }
        }
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for op in OPS {
            let n_params = op.param_count(4);
            if n_params == 0 {
                continue;
            }
            let x = random_matrix(3, 4, &mut rng);
            let params = random_params(op, 4, &mut rng);
            let probe = random_matrix(3, 4, &mut rng);
            let (_, grad_params) = backward(op, &params, &x, &probe);
            assert_eq!(grad_params.len(), n_params);
            let eps = 1e-3f32;
            for k in 0..n_params {
                let mut pp = params.clone();
                pp[k] += eps;
                let mut pm = params.clone();
                pm[k] -= eps;
                let fd = (objective(op, &pp, &x, &probe) - objective(op, &pm, &x, &probe))
                    / (2.0 * eps as f64);
                let an = grad_params[k] as f64;
                assert!(
                    (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                    "{op} grad_params[{k}]: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn translation_shifts_rows() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = apply(OperatorKind::Translation, &[10.0, 20.0], &x);
        assert_eq!(out.row(0), &[11.0, 22.0]);
    }

    #[test]
    fn linear_applies_matrix() {
        // A = [[0, 1], [1, 0]] swaps coordinates (A x in column form)
        let x = Matrix::from_rows(&[&[3.0, 4.0]]);
        let out = apply(OperatorKind::Linear, &[0.0, 1.0, 1.0, 0.0], &x);
        assert_eq!(out.row(0), &[4.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "params")]
    fn wrong_param_count_panics() {
        let x = Matrix::zeros(1, 4);
        let _ = apply(OperatorKind::Translation, &[0.0; 3], &x);
    }

    #[test]
    #[should_panic(expected = "even dim")]
    fn complex_odd_dim_panics() {
        let _ = init_params(OperatorKind::ComplexDiagonal, 5);
    }
}
