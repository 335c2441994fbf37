//! The step-replay probe: times each stage of the chunk step from
//! outside, by calling the public step functions in the order
//! `trainer::step::train_chunk_with_scratch` calls them.
//!
//! Chunks are sampled from the workload's own buckets and replayed on a
//! private copy of a model snapshot, so the replay never changes the run
//! it measures.

use crate::report::Report;
use pbg_core::batch::{chunks_of, relation_batches_in, BatchScratch};
use pbg_core::config::{NegativeMode, PbgConfig};
use pbg_core::loss;
use pbg_core::model::{Model, TrainedEmbeddings};
use pbg_core::negatives::{candidate_offsets_into, gather, gather_into, mask_induced_positives};
use pbg_core::operator;
use pbg_core::similarity::{backward_pairs, score_pairs, BatchScorer};
use pbg_core::storage::{InMemoryStore, PartitionData, PartitionKey, PartitionStore};
use pbg_core::trainer::step::ParamGradAccum;
use pbg_graph::bucket::{BucketId, Buckets};
use pbg_graph::edges::EdgeList;
use pbg_graph::ids::{EntityTypeId, Partition};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::schema::GraphSchema;
use pbg_graph::RelationTypeId;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use std::time::Instant;

/// Replay stages, in step order; the index is the stage's slot.
pub const STAGES: [&str; 10] = [
    "step.gather_ns",
    "step.operator_fwd_ns",
    "step.pos_score_ns",
    "step.neg_sample_ns",
    "step.neg_score_ns",
    "step.mask_ns",
    "step.loss_ns",
    "step.score_bwd_ns",
    "step.operator_bwd_ns",
    "step.adagrad_ns",
];
const GATHER: usize = 0;
const OP_FWD: usize = 1;
const POS: usize = 2;
const SAMPLE: usize = 3;
const NEG: usize = 4;
const MASK: usize = 5;
const LOSS: usize = 6;
const SCORE_BWD: usize = 7;
const OP_BWD: usize = 8;
const ADAGRAD: usize = 9;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Nanoseconds per stage, summed over chunks.
    pub ns: [u64; 10],
    /// Positive edges replayed.
    pub edges: u64,
    /// Chunks replayed.
    pub chunks: u64,
    /// Flops of the negative-scoring products.
    pub neg_flops: u64,
    /// Nonzero / total loss-gradient entries, destination corruption.
    pub dst_nonzero: (u64, u64),
    /// Nonzero / total loss-gradient entries, source corruption.
    pub src_nonzero: (u64, u64),
    /// All-zero / total rows handed to the Adagrad scatter.
    pub rows_skipped: (u64, u64),
}

/// Times stages against one running clock: `lap(slot)` charges the
/// time since the previous lap to `slot`.
struct Clock<'a> {
    ns: &'a mut [u64; 10],
    last: Instant,
}

impl Clock<'_> {
    fn lap(&mut self, slot: usize) {
        let now = Instant::now();
        self.ns[slot] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Restarts the clock without charging anyone (for bookkeeping that
    /// is the probe's, not the step's).
    fn skip(&mut self) {
        self.last = Instant::now();
    }
}

fn nonzero(m: &Matrix) -> (u64, u64) {
    let s = m.as_slice();
    (
        s.iter().filter(|&&v| v != 0.0).count() as u64,
        s.len() as u64,
    )
}

fn add(acc: &mut (u64, u64), (a, b): (u64, u64)) {
    acc.0 += a;
    acc.1 += b;
}

/// Row-wise Adagrad scatter exactly as the step applies it (all-zero
/// rows skipped); returns `(skipped, rows)`.
fn scatter(data: &PartitionData, offsets: &[u32], grads: &Matrix) -> (u64, u64) {
    let mut skipped = 0;
    for (i, &off) in offsets.iter().enumerate() {
        let g = grads.row(i);
        if g.iter().all(|&v| v == 0.0) {
            skipped += 1;
            continue;
        }
        data.adagrad.update(&data.embeddings, off as usize, g);
    }
    (skipped, offsets.len() as u64)
}

fn key_for(schema: &GraphSchema, et: EntityTypeId, part: Partition) -> PartitionKey {
    PartitionKey {
        entity_type: et,
        partition: if schema.entity_type(et).is_partitioned() {
            part
        } else {
            Partition(0)
        },
    }
}

/// Replays `chunks` chunks drawn from `buckets` against a private copy
/// of `snap`.
///
/// # Errors
///
/// Fails when the snapshot does not restore into a model built from
/// `config`, or when the configuration uses a path the probe does not
/// mirror (reciprocal relations, unbatched negatives).
pub fn replay(
    snap: &TrainedEmbeddings,
    config: &PbgConfig,
    buckets: &Buckets,
    chunks: usize,
    seed: u64,
) -> Result<ReplayStats, String> {
    if config.reciprocal_relations || config.negative_mode != NegativeMode::Batched {
        return Err("step replay mirrors the batched, non-reciprocal step only".into());
    }
    let model = Model::new(snap.schema.clone(), config.clone()).map_err(|e| e.to_string())?;
    let store = InMemoryStore::new(model.store_layout());
    model.restore(snap, &store).map_err(|e| e.to_string())?;
    let schema = model.schema();
    let parts: Vec<EntityPartitioning> = schema
        .entity_types()
        .iter()
        .map(|d| EntityPartitioning::new(d.num_entities(), d.num_partitions()))
        .collect();
    // the trainer's chunks: each bucket split over the HOGWILD threads,
    // each share grouped into relation-pure batches, each batch cut
    // into chunks
    let mut pieces: Vec<(BucketId, EdgeList)> = Vec::new();
    let mut all_chunks: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut scratch = BatchScratch::new();
    for id in buckets.ids() {
        for share in buckets.bucket(id).chunks(config.threads) {
            for b in relation_batches_in(&share, config.batch_size, &mut scratch) {
                for chunk in chunks_of(b.indices, config.chunk_size) {
                    all_chunks.push((pieces.len(), chunk.to_vec()));
                }
            }
            pieces.push((id, share));
        }
    }
    if all_chunks.is_empty() {
        return Err("no edges to replay".into());
    }

    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut stats = ReplayStats::default();
    let (mut src_off, mut dst_off, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cand_dst_off, mut cand_src_off) = (Vec::new(), Vec::new());
    let (mut cand_dst, mut cand_src) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for _ in 0..chunks {
        let (piece, chunk) = &all_chunks[rng.gen_index(all_chunks.len())];
        let (bucket, edges) = &pieces[*piece];
        let rel_id = RelationTypeId(edges.get(chunk[0]).rel.0);
        let rdef = schema.relation_type(rel_id);
        let (src_et, dst_et) = (rdef.source_type(), rdef.dest_type());
        let src_key = key_for(schema, src_et, bucket.src);
        let dst_key = key_for(schema, dst_et, bucket.dst);
        let (src_part, dst_part) = (&parts[src_et.index()], &parts[dst_et.index()]);
        let relation = model.relation(rel_id);
        src_off.clear();
        dst_off.clear();
        weights.clear();
        for &i in chunk {
            let e = edges.get(i);
            src_off.push(src_part.offset_of(e.src));
            dst_off.push(dst_part.offset_of(e.dst));
            weights.push(relation.weight() * edges.weight(i));
        }
        let src_data = store.load(src_key);
        let dst_data = store.load(dst_key);
        let src_size = src_part.partition_size(src_key.partition) as usize;
        let dst_size = dst_part.partition_size(dst_key.partition) as usize;
        let (op, sim) = (relation.op(), config.similarity);
        let mut param_grads = ParamGradAccum::for_relation(relation);

        let mut clock = Clock {
            ns: &mut stats.ns,
            last: Instant::now(),
        };
        // ---- forward ----
        let src = gather(&src_data.embeddings, &src_off);
        let dst = gather(&dst_data.embeddings, &dst_off);
        clock.lap(GATHER);
        let fwd = relation.forward.snapshot();
        let t_src = operator::apply(op, &fwd, &src);
        clock.lap(OP_FWD);
        let pos = score_pairs(sim, &t_src, &dst);
        clock.lap(POS);
        candidate_offsets_into(
            &mut cand_dst_off,
            &dst_off,
            config.uniform_negatives,
            dst_size,
            &mut rng,
        );
        gather_into(&dst_data.embeddings, &cand_dst_off, &mut cand_dst);
        clock.lap(SAMPLE);
        let dst_scorer = BatchScorer::new(sim, &t_src, &cand_dst);
        let mut neg_dst = dst_scorer.scores();
        clock.lap(NEG);
        mask_induced_positives(&mut neg_dst, &dst_off, &cand_dst_off);
        clock.lap(MASK);
        let dst_loss = loss::compute(config.loss, config.margin, &pos, &neg_dst, &weights);
        let mut grad_pos = dst_loss.grad_pos.clone();
        let mut grad_dst_rows = Matrix::zeros(dst.rows(), dst.cols());
        clock.lap(LOSS);
        add(&mut stats.dst_nonzero, nonzero(&dst_loss.grad_neg));
        stats.neg_flops += 2 * (src_off.len() * cand_dst_off.len() * config.dim) as u64;
        clock.skip();

        // ---- source corruption (shared-parameter path) ----
        let mut g_cand_src = None;
        if config.corrupt_sources {
            candidate_offsets_into(
                &mut cand_src_off,
                &src_off,
                config.uniform_negatives,
                src_size,
                &mut rng,
            );
            gather_into(&src_data.embeddings, &cand_src_off, &mut cand_src);
            clock.lap(SAMPLE);
            let t_cand = operator::apply(op, &fwd, &cand_src);
            clock.lap(OP_FWD);
            let src_scorer = BatchScorer::new(sim, &dst, &t_cand);
            let mut neg_src = src_scorer.scores();
            clock.lap(NEG);
            mask_induced_positives(&mut neg_src, &src_off, &cand_src_off);
            clock.lap(MASK);
            let src_loss = loss::compute(config.loss, config.margin, &pos, &neg_src, &weights);
            for (g, s) in grad_pos.iter_mut().zip(&src_loss.grad_pos) {
                *g += *s;
            }
            clock.lap(LOSS);
            add(&mut stats.src_nonzero, nonzero(&src_loss.grad_neg));
            stats.neg_flops += 2 * (dst_off.len() * cand_src_off.len() * config.dim) as u64;
            clock.skip();
            let (g_dst_neg, g_tcand) = src_scorer.backward(&src_loss.grad_neg);
            grad_dst_rows.add_scaled(1.0, &g_dst_neg);
            clock.lap(SCORE_BWD);
            let (g_cand, g_params) = operator::backward(op, &fwd, &cand_src, &g_tcand);
            for (acc, g) in param_grads.forward.iter_mut().zip(&g_params) {
                *acc += *g;
            }
            g_cand_src = Some(g_cand);
            clock.lap(OP_BWD);
        }

        // ---- backward through positives and destination negatives ----
        let (g_tsrc_pos, g_dst_pos) = backward_pairs(sim, &t_src, &dst, &grad_pos);
        let (g_tsrc_neg, g_cand_dst) = dst_scorer.backward(&dst_loss.grad_neg);
        let mut g_tsrc = g_tsrc_pos;
        g_tsrc.add_scaled(1.0, &g_tsrc_neg);
        grad_dst_rows.add_scaled(1.0, &g_dst_pos);
        clock.lap(SCORE_BWD);
        let (g_src, g_params) = operator::backward(op, &fwd, &src, &g_tsrc);
        for (acc, g) in param_grads.forward.iter_mut().zip(&g_params) {
            *acc += *g;
        }
        clock.lap(OP_BWD);

        // ---- row-wise Adagrad scatter, then the relation-parameter
        // apply (per chunk here, per batch in the trainer)
        let mut rows = (0, 0);
        add(&mut rows, scatter(&src_data, &src_off, &g_src));
        add(&mut rows, scatter(&dst_data, &dst_off, &grad_dst_rows));
        add(&mut rows, scatter(&dst_data, &cand_dst_off, &g_cand_dst));
        if let Some(g) = &g_cand_src {
            add(&mut rows, scatter(&src_data, &cand_src_off, g));
        }
        param_grads.apply(relation);
        clock.lap(ADAGRAD);
        add(&mut stats.rows_skipped, rows);
        stats.edges += src_off.len() as u64;
        stats.chunks += 1;
    }
    Ok(stats)
}

impl ReplayStats {
    /// Total replayed step time per edge, nanoseconds.
    pub fn ns_per_edge(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / self.edges.max(1) as f64
    }

    /// Writes the `step.*` metrics. `trained_edges` and `phase_cpu_s`
    /// (the traced epochs' edges and summed phase CPU time) give the
    /// replay coverage: replayed time per edge × edges ÷ phase CPU.
    pub fn report(&self, r: &mut Report, trained_edges: u64, phase_cpu_s: f64) {
        let per_edge = |ns: u64| ns as f64 / self.edges.max(1) as f64;
        for (slot, name) in STAGES.iter().enumerate() {
            r.set(name, per_edge(self.ns[slot]));
        }
        let total: u64 = self.ns.iter().sum();
        r.set("step.total_ns", per_edge(total));
        r.set(
            "step.hot_share",
            (self.ns[NEG] + self.ns[SCORE_BWD]) as f64 / total.max(1) as f64,
        );
        r.set(
            "step.neg_score_gflops",
            self.neg_flops as f64 / self.ns[NEG].max(1) as f64,
        );
        let frac = |(a, b): (u64, u64)| a as f64 / b.max(1) as f64;
        r.set("step.grad_neg_nonzero_frac.dst", frac(self.dst_nonzero));
        r.set("step.grad_neg_nonzero_frac.src", frac(self.src_nonzero));
        r.set("step.adagrad_rows_skipped_frac", frac(self.rows_skipped));
        if phase_cpu_s > 0.0 {
            r.set(
                "step.replay_coverage",
                self.ns_per_edge() * trained_edges as f64 * 1e-9 / phase_cpu_s,
            );
        }
    }
}
