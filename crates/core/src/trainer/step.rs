//! The innermost training step: one chunk of same-relation positives.
//!
//! Implements Figure 3 of the paper: gather the chunk's source and
//! destination embeddings, transform the sources with the relation
//! operator, score positives pairwise and negatives as a batched matrix
//! product against `chunk + uniform` candidates, mask induced positives,
//! apply the loss, and backpropagate into embeddings (row-wise Adagrad)
//! and relation parameters (dense Adagrad).

use crate::config::{NegativeMode, PbgConfig};
use crate::loss::{self, LossGrads};
use crate::model::RelationParams;
use crate::negatives::{
    candidate_offsets_into, gather_candidates_into, gather_into, mask_induced_positives,
};
use crate::operator::{self, OperatorScratch};
use crate::similarity::{backward_pairs_into, score_pairs_into, BatchScorer, ScorerScratch};
use crate::storage::PartitionData;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use pbg_tensor::vecmath;
use std::cell::Cell;
use std::time::Instant;

/// Per-thread accounting of where a HOGWILD thread's time goes:
/// negative sampling, optimizer scatter, and (by subtraction) forward /
/// backward compute. `Cell`-based and single-threaded by design — each
/// trainer thread owns one clock, so accumulation is free of atomics;
/// the bucket trainer sums the per-thread totals afterwards. Only
/// allocated when tracing is enabled, so the phase `Instant` reads never
/// touch an untraced run.
#[derive(Debug, Default)]
pub struct PhaseClock {
    chunk_ns: Cell<u64>,
    sampling_ns: Cell<u64>,
    optimizer_ns: Cell<u64>,
}

/// Summed phase durations, reported on the `bucket_train` span. Totals
/// are CPU time summed over HOGWILD threads, so they can exceed the
/// bucket's wall-clock duration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Forward/backward compute nanoseconds.
    pub compute_ns: u64,
    /// Negative-sampling (candidate draw + gather) nanoseconds.
    pub sampling_ns: u64,
    /// Optimizer (Adagrad scatter + parameter apply) nanoseconds.
    pub optimizer_ns: u64,
}

impl PhaseTotals {
    /// Accumulates another thread's totals.
    pub fn merge(&mut self, other: &PhaseTotals) {
        self.compute_ns += other.compute_ns;
        self.sampling_ns += other.sampling_ns;
        self.optimizer_ns += other.optimizer_ns;
    }
}

impl PhaseClock {
    /// A clock at zero.
    pub fn new() -> Self {
        PhaseClock::default()
    }

    fn bump<T>(cell: &Cell<u64>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        cell.set(cell.get() + t0.elapsed().as_nanos() as u64);
        out
    }

    /// Times one whole chunk step.
    pub fn chunk<T>(&self, f: impl FnOnce() -> T) -> T {
        Self::bump(&self.chunk_ns, f)
    }

    /// Times a negative-sampling section (nested inside a chunk).
    fn sampling<T>(&self, f: impl FnOnce() -> T) -> T {
        Self::bump(&self.sampling_ns, f)
    }

    /// Times an optimizer section (scatter or parameter apply).
    pub fn optimizer<T>(&self, f: impl FnOnce() -> T) -> T {
        Self::bump(&self.optimizer_ns, f)
    }

    /// Final totals; compute is the chunk remainder after sampling and
    /// optimizer time.
    pub fn totals(&self) -> PhaseTotals {
        let sampling = self.sampling_ns.get();
        let optimizer = self.optimizer_ns.get();
        PhaseTotals {
            compute_ns: self
                .chunk_ns
                .get()
                .saturating_sub(sampling)
                .saturating_sub(optimizer),
            sampling_ns: sampling,
            optimizer_ns: optimizer,
        }
    }
}

/// Runs `f`, charged to `phases`'s sampling time when a clock is active.
fn sampled<T>(phases: Option<&PhaseClock>, f: impl FnOnce() -> T) -> T {
    match phases {
        Some(clock) => clock.sampling(f),
        None => f(),
    }
}

/// Runs `f`, charged to `phases`'s optimizer time when a clock is active.
fn optimized<T>(phases: Option<&PhaseClock>, f: impl FnOnce() -> T) -> T {
    match phases {
        Some(clock) => clock.optimizer(f),
        None => f(),
    }
}

/// Accumulated relation-parameter gradients, applied once per batch
/// rather than per chunk: shared-parameter updates are the one contended
/// write in HOGWILD training, and batch-level application cuts that
/// contention by `batch_size / chunk_size` without changing what Adagrad
/// sees (gradients within a batch sum anyway).
#[derive(Debug)]
pub struct ParamGradAccum {
    /// Gradient for the forward operator parameters.
    pub forward: Vec<f32>,
    /// Gradient for the reciprocal parameters (empty when unused).
    pub reciprocal: Vec<f32>,
}

impl ParamGradAccum {
    /// Zeroed accumulator sized for `relation`.
    pub fn for_relation(relation: &RelationParams) -> Self {
        ParamGradAccum {
            forward: vec![0.0; relation.forward.len()],
            reciprocal: vec![0.0; relation.reciprocal.as_ref().map_or(0, |r| r.len())],
        }
    }

    /// Applies and clears the accumulated gradients.
    pub fn apply(&mut self, relation: &RelationParams) {
        if !self.forward.is_empty() && self.forward.iter().any(|&g| g != 0.0) {
            relation.forward.apply_grad(&self.forward);
            self.forward.iter_mut().for_each(|g| *g = 0.0);
        }
        if let Some(recip) = &relation.reciprocal {
            if !self.reciprocal.is_empty() && self.reciprocal.iter().any(|&g| g != 0.0) {
                recip.apply_grad(&self.reciprocal);
                self.reciprocal.iter_mut().for_each(|g| *g = 0.0);
            }
        }
    }
}

/// Everything a chunk step needs, borrowed from the bucket trainer.
pub struct ChunkContext<'a> {
    /// Training configuration.
    pub config: &'a PbgConfig,
    /// Relation parameters for this chunk's relation.
    pub relation: &'a RelationParams,
    /// Source-side partition data.
    pub src_data: &'a PartitionData,
    /// Destination-side partition data.
    pub dst_data: &'a PartitionData,
    /// Rows in the source partition (for uniform sampling).
    pub src_partition_size: usize,
    /// Rows in the destination partition (for uniform sampling).
    pub dst_partition_size: usize,
    /// Phase accounting for the owning thread; `None` (zero overhead)
    /// unless tracing is enabled.
    pub phases: Option<&'a PhaseClock>,
}

/// The per-thread workspace of [`train_chunk_with_scratch`]: every buffer
/// a chunk step fills — candidate offsets, gathered rows, the
/// relation-parameter copies, operator outputs, positive and negative
/// scores, the packed candidates, loss gradients and gradient rows. One
/// per HOGWILD worker; after the first chunk at a given shape the step
/// performs no heap allocation, so workers sampling in lockstep never
/// meet in the global allocator.
#[derive(Debug, Default)]
pub struct StepScratch {
    cand_dst_offsets: Vec<u32>,
    cand_src_offsets: Vec<u32>,
    src: Matrix,
    dst: Matrix,
    cand_dst: Matrix,
    cand_src: Matrix,
    fwd_params: Vec<f32>,
    inv_params: Vec<f32>,
    /// `g(src)` (unused by the identity operator, which borrows `src`).
    t_src: Matrix,
    /// `g_inv(dst)` (reciprocal) or `g(candidate sources)` (shared).
    t_other: Matrix,
    op: OperatorScratch,
    pos_scores: Vec<f32>,
    pos_scores_inv: Vec<f32>,
    dst_scorer: ScorerScratch,
    src_scorer: ScorerScratch,
    neg_scores: Matrix,
    dst_loss: LossGrads,
    src_loss: LossGrads,
    grad_pos: Vec<f32>,
    grad_dst_rows: Matrix,
    /// dL/d of a scorer's left side: `g(src)` or `g_inv(dst)`.
    g_lhs: Matrix,
    g_lhs_neg: Matrix,
    g_dst_pos: Matrix,
    g_cand_dst: Matrix,
    g_tcand: Matrix,
    g_cand_src: Matrix,
    g_src_extra: Matrix,
    /// dL/d of an operator input: `dst` (reciprocal), then `src`.
    g_op_in: Matrix,
    g_params: Vec<f32>,
}

impl StepScratch {
    /// Empty buffers; they grow to steady-state size on the first chunk.
    pub fn new() -> Self {
        StepScratch::default()
    }
}

/// Trains one chunk; returns the summed loss.
///
/// `src_offsets`/`dst_offsets` are partition-local row offsets of the
/// chunk's edges; `weights` are per-edge loss weights (relation weight ×
/// edge weight).
///
/// # Panics
///
/// Panics if slice lengths disagree or offsets are out of range.
pub fn train_chunk(
    ctx: &ChunkContext<'_>,
    src_offsets: &[u32],
    dst_offsets: &[u32],
    weights: &[f32],
    param_grads: &mut ParamGradAccum,
    rng: &mut Xoshiro256,
) -> f64 {
    train_chunk_with_scratch(
        ctx,
        src_offsets,
        dst_offsets,
        weights,
        param_grads,
        rng,
        &mut StepScratch::new(),
    )
}

/// [`train_chunk`] with a caller-owned [`StepScratch`] workspace. Scratch
/// reuse changes allocation behavior only — the RNG draw sequence and
/// every computed value are identical to the allocating form.
///
/// Both candidate lists are drawn up front (destination side first, as
/// they are consumed), so every row the chunk will read or update is
/// known before the first gather and is prefetched together with its
/// Adagrad accumulator; the random candidate rows then miss in parallel
/// instead of one after another. The first `C` candidates of a batched
/// list are the chunk's own rows, copied from the gathered chunk instead
/// of read again.
///
/// # Panics
///
/// Panics if slice lengths disagree or offsets are out of range.
pub fn train_chunk_with_scratch(
    ctx: &ChunkContext<'_>,
    src_offsets: &[u32],
    dst_offsets: &[u32],
    weights: &[f32],
    param_grads: &mut ParamGradAccum,
    rng: &mut Xoshiro256,
    scratch: &mut StepScratch,
) -> f64 {
    assert_eq!(
        src_offsets.len(),
        dst_offsets.len(),
        "chunk: offset mismatch"
    );
    assert_eq!(src_offsets.len(), weights.len(), "chunk: weight mismatch");
    if src_offsets.is_empty() {
        return 0.0;
    }
    let cfg = ctx.config;
    let (sim, rel) = (cfg.similarity, ctx.relation);
    let op = rel.op();
    let include_chunk = cfg.negative_mode == NegativeMode::Batched;
    let StepScratch {
        cand_dst_offsets,
        cand_src_offsets,
        src,
        dst,
        cand_dst,
        cand_src,
        fwd_params,
        inv_params,
        t_src,
        t_other,
        op: op_scratch,
        pos_scores,
        pos_scores_inv,
        dst_scorer,
        src_scorer,
        neg_scores,
        dst_loss,
        src_loss,
        grad_pos,
        grad_dst_rows,
        g_lhs,
        g_lhs_neg,
        g_dst_pos,
        g_cand_dst,
        g_tcand,
        g_cand_src,
        g_src_extra,
        g_op_in,
        g_params,
    } = scratch;

    // ---- negative sampling: draw both sides, prefetch every row ----
    sampled(ctx.phases, || {
        let chunk: &[u32] = if include_chunk { dst_offsets } else { &[] };
        candidate_offsets_into(
            cand_dst_offsets,
            chunk,
            cfg.uniform_negatives,
            ctx.dst_partition_size,
            rng,
        );
        cand_src_offsets.clear();
        if cfg.corrupt_sources {
            let chunk: &[u32] = if include_chunk { src_offsets } else { &[] };
            candidate_offsets_into(
                cand_src_offsets,
                chunk,
                cfg.uniform_negatives,
                ctx.src_partition_size,
                rng,
            );
        }
        let own = if include_chunk { src_offsets.len() } else { 0 };
        prefetch_rows(ctx.src_data, src_offsets);
        prefetch_rows(ctx.dst_data, dst_offsets);
        prefetch_rows(ctx.dst_data, &cand_dst_offsets[own..]);
        prefetch_rows(ctx.src_data, cand_src_offsets.get(own..).unwrap_or(&[]));
    });

    // ---- forward ----
    gather_into(&ctx.src_data.embeddings, src_offsets, src);
    gather_into(&ctx.dst_data.embeddings, dst_offsets, dst);
    let (src, dst) = (&*src, &*dst);
    fwd_params.resize(rel.forward.len(), 0.0);
    rel.forward.read_into(fwd_params);
    let t_src = operator::apply_into(op, fwd_params, src, t_src, op_scratch);
    score_pairs_into(sim, t_src, dst, pos_scores);

    // destination corruption: candidates = (chunk dsts +) uniform
    let no_rows = Matrix::default();
    let (known_src, known_dst) = if include_chunk {
        (src, dst)
    } else {
        (&no_rows, &no_rows)
    };
    sampled(ctx.phases, || {
        gather_candidates_into(
            &ctx.dst_data.embeddings,
            cand_dst_offsets,
            known_dst,
            cand_dst,
        );
    });
    // the fused §4.3 hot path: pack the candidates once, reuse the packing
    // for the score matrix now and both gradient products in the backward
    let dst_scorer = BatchScorer::new_in(dst_scorer, sim, t_src, cand_dst);
    dst_scorer.scores_into(neg_scores);
    mask_induced_positives(neg_scores, dst_offsets, cand_dst_offsets);
    loss::compute_into(
        cfg.loss, cfg.margin, pos_scores, neg_scores, weights, dst_loss,
    );
    let mut total_loss = dst_loss.loss;

    // gradient buffers accumulated across both corruption sides
    grad_pos.clear();
    grad_pos.extend_from_slice(&dst_loss.grad_pos);
    grad_dst_rows.resize(dst.rows(), dst.cols());

    // source corruption
    let mut cand_src_grads: Option<&Matrix> = None;
    let mut src_extra_grads: Option<&Matrix> = None;
    if cfg.corrupt_sources {
        sampled(ctx.phases, || {
            gather_candidates_into(
                &ctx.src_data.embeddings,
                cand_src_offsets,
                known_src,
                cand_src,
            );
        });
        let cand_src = &*cand_src;
        if let Some(recip) = &rel.reciprocal {
            // reciprocal: score candidates against g_inv(dst)
            inv_params.resize(recip.len(), 0.0);
            recip.read_into(inv_params);
            let t_dst = operator::apply_into(op, inv_params, dst, t_other, op_scratch);
            score_pairs_into(sim, t_dst, src, pos_scores_inv);
            let src_scorer = BatchScorer::new_in(src_scorer, sim, t_dst, cand_src);
            src_scorer.scores_into(neg_scores);
            mask_induced_positives(neg_scores, src_offsets, cand_src_offsets);
            loss::compute_into(
                cfg.loss,
                cfg.margin,
                pos_scores_inv,
                neg_scores,
                weights,
                src_loss,
            );
            total_loss += src_loss.loss;
            // backward through the reciprocal path
            backward_pairs_into(sim, t_dst, src, &src_loss.grad_pos, g_lhs, g_src_extra);
            src_scorer.backward_into(&src_loss.grad_neg, g_lhs_neg, g_cand_src);
            g_lhs.add_scaled(1.0, g_lhs_neg);
            let g_dst =
                operator::backward_into(op, inv_params, dst, g_lhs, g_op_in, g_params, op_scratch);
            grad_dst_rows.add_scaled(1.0, g_dst);
            vecmath::axpy(1.0, g_params, &mut param_grads.reciprocal);
            cand_src_grads = Some(g_cand_src);
            src_extra_grads = Some(g_src_extra);
        } else {
            // shared parameters: transform the candidates, score against
            // the raw destinations; the positive term is the same score as
            // the destination side, so its gradient folds into `grad_pos`.
            let t_cand = operator::apply_into(op, fwd_params, cand_src, t_other, op_scratch);
            let src_scorer = BatchScorer::new_in(src_scorer, sim, dst, t_cand);
            src_scorer.scores_into(neg_scores);
            mask_induced_positives(neg_scores, src_offsets, cand_src_offsets);
            loss::compute_into(
                cfg.loss, cfg.margin, pos_scores, neg_scores, weights, src_loss,
            );
            total_loss += src_loss.loss;
            vecmath::axpy(1.0, &src_loss.grad_pos, grad_pos);
            src_scorer.backward_into(&src_loss.grad_neg, g_lhs_neg, g_tcand);
            grad_dst_rows.add_scaled(1.0, g_lhs_neg);
            let g_cand = operator::backward_into(
                op, fwd_params, cand_src, g_tcand, g_cand_src, g_params, op_scratch,
            );
            vecmath::axpy(1.0, g_params, &mut param_grads.forward);
            cand_src_grads = Some(g_cand);
        }
    }

    // ---- backward through the shared positive pair and dst negatives ----
    backward_pairs_into(sim, t_src, dst, grad_pos, g_lhs, g_dst_pos);
    dst_scorer.backward_into(&dst_loss.grad_neg, g_lhs_neg, g_cand_dst);
    g_lhs.add_scaled(1.0, g_lhs_neg);
    let g_src = operator::backward_into(op, fwd_params, src, g_lhs, g_op_in, g_params, op_scratch);
    vecmath::axpy(1.0, g_params, &mut param_grads.forward);
    grad_dst_rows.add_scaled(1.0, g_dst_pos);

    // ---- scatter updates (HOGWILD row-wise Adagrad) ----
    optimized(ctx.phases, || {
        scatter(ctx.src_data, src_offsets, g_src);
        scatter(ctx.dst_data, dst_offsets, grad_dst_rows);
        scatter(ctx.dst_data, cand_dst_offsets, g_cand_dst);
        if let Some(g_cand) = cand_src_grads {
            scatter(ctx.src_data, cand_src_offsets, g_cand);
        }
        if let Some(extra) = src_extra_grads {
            scatter(ctx.src_data, src_offsets, extra);
        }
    });
    total_loss
}

/// Prefetch hints for the embedding rows at `offsets` and their Adagrad
/// accumulators.
fn prefetch_rows(data: &PartitionData, offsets: &[u32]) {
    for &off in offsets {
        data.embeddings.prefetch_row(off as usize);
        data.adagrad.prefetch(off as usize);
    }
}

/// Applies one Adagrad update per row (skipping all-zero rows).
fn scatter(data: &PartitionData, offsets: &[u32], grads: &Matrix) {
    for (i, &off) in offsets.iter().enumerate() {
        let g = grads.row(i);
        if g.iter().all(|&v| v == 0.0) {
            continue;
        }
        data.adagrad.update(&data.embeddings, off as usize, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LossKind, SimilarityKind};
    use crate::model::Model;
    use pbg_graph::schema::{EntityTypeDef, GraphSchema, OperatorKind, RelationTypeDef};
    use pbg_graph::RelationTypeId;

    fn setup(op: OperatorKind, reciprocal: bool) -> (Model, PartitionData) {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", 32))
            .relation_type(RelationTypeDef::new("r", 0u32, 0u32).with_operator(op))
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(8)
            .batch_size(16)
            .chunk_size(4)
            .uniform_negatives(4)
            .reciprocal_relations(reciprocal)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let data = PartitionData::init(32, 8, 0.1, 0.5, 7);
        (model, data)
    }

    fn run_steps(op: OperatorKind, reciprocal: bool, steps: usize) -> (f64, f64) {
        let (model, data) = setup(op, reciprocal);
        let ctx = ChunkContext {
            config: model.config(),
            relation: model.relation(RelationTypeId(0)),
            src_data: &data,
            dst_data: &data,
            src_partition_size: 32,
            dst_partition_size: 32,
            phases: None,
        };
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut pg = ParamGradAccum::for_relation(ctx.relation);
        // a fixed set of "true" edges: i -> (i+1) % 32
        let src: Vec<u32> = (0..4).collect();
        let dst: Vec<u32> = (1..5).collect();
        let w = vec![1.0f32; 4];
        let step = |rng: &mut Xoshiro256, pg: &mut ParamGradAccum| {
            let loss = train_chunk(&ctx, &src, &dst, &w, pg, rng);
            pg.apply(ctx.relation);
            loss
        };
        let first = step(&mut rng, &mut pg);
        let mut last = first;
        for _ in 1..steps {
            last = step(&mut rng, &mut pg);
        }
        (first, last)
    }

    #[test]
    fn loss_decreases_with_training() {
        for op in [
            OperatorKind::Identity,
            OperatorKind::Translation,
            OperatorKind::Diagonal,
            OperatorKind::ComplexDiagonal,
            OperatorKind::Linear,
        ] {
            let (first, last) = run_steps(op, false, 60);
            assert!(
                last < first,
                "{op}: loss did not decrease ({first} -> {last})"
            );
        }
    }

    #[test]
    fn reciprocal_training_also_converges() {
        let (first, last) = run_steps(OperatorKind::Diagonal, true, 60);
        assert!(last < first, "reciprocal: {first} -> {last}");
    }

    #[test]
    fn empty_chunk_is_zero_loss() {
        let (model, data) = setup(OperatorKind::Identity, false);
        let ctx = ChunkContext {
            config: model.config(),
            relation: model.relation(RelationTypeId(0)),
            src_data: &data,
            dst_data: &data,
            src_partition_size: 32,
            dst_partition_size: 32,
            phases: None,
        };
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut pg = ParamGradAccum::for_relation(ctx.relation);
        assert_eq!(train_chunk(&ctx, &[], &[], &[], &mut pg, &mut rng), 0.0);
    }

    #[test]
    fn training_moves_positive_pairs_closer_than_random() {
        let (model, data) = setup(OperatorKind::Identity, false);
        let ctx = ChunkContext {
            config: model.config(),
            relation: model.relation(RelationTypeId(0)),
            src_data: &data,
            dst_data: &data,
            src_partition_size: 32,
            dst_partition_size: 32,
            phases: None,
        };
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut pg = ParamGradAccum::for_relation(ctx.relation);
        let src: Vec<u32> = (0..4).collect();
        let dst: Vec<u32> = vec![10, 11, 12, 13];
        let w = vec![1.0f32; 4];
        for _ in 0..150 {
            train_chunk(&ctx, &src, &dst, &w, &mut pg, &mut rng);
            pg.apply(ctx.relation);
        }
        // positive pair score should now beat a random pair's score
        let emb = |i: u32| {
            let mut buf = vec![0.0f32; 8];
            data.embeddings.read_row_into(i as usize, &mut buf);
            buf
        };
        let pos = pbg_tensor::vecmath::dot(&emb(0), &emb(10));
        let neg = pbg_tensor::vecmath::dot(&emb(0), &emb(25));
        assert!(pos > neg, "positive {pos} not above negative {neg}");
    }

    #[test]
    fn unbatched_mode_trains_too() {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", 32))
            .relation_type(RelationTypeDef::new("r", 0u32, 0u32))
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(8)
            .batch_size(16)
            .chunk_size(1)
            .uniform_negatives(8)
            .negative_mode(NegativeMode::Unbatched)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let data = PartitionData::init(32, 8, 0.1, 0.5, 9);
        let ctx = ChunkContext {
            config: model.config(),
            relation: model.relation(RelationTypeId(0)),
            src_data: &data,
            dst_data: &data,
            src_partition_size: 32,
            dst_partition_size: 32,
            phases: None,
        };
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut pg = ParamGradAccum::for_relation(ctx.relation);
        let first = train_chunk(&ctx, &[0], &[1], &[1.0], &mut pg, &mut rng);
        pg.apply(ctx.relation);
        let mut last = first;
        for _ in 0..80 {
            last = train_chunk(&ctx, &[0], &[1], &[1.0], &mut pg, &mut rng);
            pg.apply(ctx.relation);
        }
        assert!(last < first, "unbatched: {first} -> {last}");
    }

    #[test]
    fn softmax_and_logistic_losses_train() {
        for loss in [LossKind::Softmax, LossKind::Logistic] {
            let schema = GraphSchema::builder()
                .entity_type(EntityTypeDef::new("node", 32))
                .relation_type(RelationTypeDef::new("r", 0u32, 0u32))
                .build()
                .unwrap();
            let config = PbgConfig::builder()
                .dim(8)
                .batch_size(16)
                .chunk_size(4)
                .uniform_negatives(4)
                .loss(loss)
                .similarity(SimilarityKind::Dot)
                .build()
                .unwrap();
            let model = Model::new(schema, config).unwrap();
            let data = PartitionData::init(32, 8, 0.1, 0.5, 11);
            let ctx = ChunkContext {
                config: model.config(),
                relation: model.relation(RelationTypeId(0)),
                src_data: &data,
                dst_data: &data,
                src_partition_size: 32,
                dst_partition_size: 32,
                phases: None,
            };
            let mut rng = Xoshiro256::seed_from_u64(4);
            let mut pg = ParamGradAccum::for_relation(ctx.relation);
            let src: Vec<u32> = (0..4).collect();
            let dst: Vec<u32> = (8..12).collect();
            let w = vec![1.0f32; 4];
            let first = train_chunk(&ctx, &src, &dst, &w, &mut pg, &mut rng);
            pg.apply(ctx.relation);
            let mut last = first;
            for _ in 0..80 {
                last = train_chunk(&ctx, &src, &dst, &w, &mut pg, &mut rng);
                pg.apply(ctx.relation);
            }
            assert!(last < first, "{loss:?}: {first} -> {last}");
        }
    }

    /// Runs a fixed schedule of ragged chunks over four relations with
    /// different operators, either through one reused scratch or a fresh
    /// one per chunk; returns the chunk losses, the final embedding table
    /// and every relation parameter.
    fn ragged_schedule(config: PbgConfig, reuse: bool) -> (Vec<f64>, Vec<f32>, Vec<f32>) {
        const ROWS: usize = 120;
        let ops = [
            OperatorKind::Linear,
            OperatorKind::Identity,
            OperatorKind::ComplexDiagonal,
            OperatorKind::Translation,
        ];
        let mut schema =
            GraphSchema::builder().entity_type(EntityTypeDef::new("node", ROWS as u32));
        for (r, op) in ops.iter().enumerate() {
            schema = schema.relation_type(
                RelationTypeDef::new(format!("r{r}"), 0u32, 0u32).with_operator(*op),
            );
        }
        let model = Model::new(schema.build().unwrap(), config).unwrap();
        let data = PartitionData::init(ROWS, model.config().dim, 0.1, 0.5, 13);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut edge_rng = Xoshiro256::seed_from_u64(19);
        let mut scratch = StepScratch::new();
        let mut losses = Vec::new();
        // the last chunk of a relation batch is short
        let schedule = [
            (0, 50),
            (0, 17),
            (1, 50),
            (1, 1),
            (2, 17),
            (3, 50),
            (0, 1),
            (2, 50),
        ];
        for (rel, size) in schedule {
            let relation = model.relation(RelationTypeId(rel));
            let ctx = ChunkContext {
                config: model.config(),
                relation,
                src_data: &data,
                dst_data: &data,
                src_partition_size: ROWS,
                dst_partition_size: ROWS,
                phases: None,
            };
            let src: Vec<u32> = (0..size).map(|_| edge_rng.gen_index(ROWS) as u32).collect();
            let dst: Vec<u32> = (0..size).map(|_| edge_rng.gen_index(ROWS) as u32).collect();
            let w = vec![1.0f32; size];
            let mut pg = ParamGradAccum::for_relation(relation);
            let loss = if reuse {
                train_chunk_with_scratch(&ctx, &src, &dst, &w, &mut pg, &mut rng, &mut scratch)
            } else {
                train_chunk(&ctx, &src, &dst, &w, &mut pg, &mut rng)
            };
            pg.apply(relation);
            losses.push(loss);
        }
        let mut params = Vec::new();
        for r in 0..ops.len() {
            let relation = model.relation(RelationTypeId(r as u32));
            params.extend(relation.forward.snapshot());
            if let Some(recip) = &relation.reciprocal {
                params.extend(recip.snapshot());
            }
        }
        (losses, data.embeddings.to_vec(), params)
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_bit_for_bit() {
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let base = || {
            PbgConfig::builder()
                .dim(8)
                .batch_size(50)
                .chunk_size(50)
                .uniform_negatives(10)
        };
        let configs = [
            ("dot margin", base()),
            (
                "cosine softmax reciprocal",
                base()
                    .similarity(SimilarityKind::Cosine)
                    .loss(LossKind::Softmax)
                    .reciprocal_relations(true),
            ),
            (
                "logistic unbatched",
                base()
                    .loss(LossKind::Logistic)
                    .negative_mode(NegativeMode::Unbatched),
            ),
            ("destination corruption only", base().corrupt_sources(false)),
        ];
        for (name, builder) in configs {
            let config = builder.build().unwrap();
            let (loss_a, emb_a, params_a) = ragged_schedule(config.clone(), true);
            let (loss_b, emb_b, params_b) = ragged_schedule(config, false);
            assert_eq!(bits64(&loss_a), bits64(&loss_b), "{name}: losses differ");
            assert_eq!(bits32(&emb_a), bits32(&emb_b), "{name}: embeddings differ");
            assert_eq!(
                bits32(&params_a),
                bits32(&params_b),
                "{name}: relation params differ"
            );
        }
    }
}
