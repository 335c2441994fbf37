//! The chunk step's steady state allocates nothing.
//!
//! A counting global allocator tallies allocations per thread. After one
//! warm-up chunk has grown every [`StepScratch`] buffer (and the blocked
//! kernel's per-thread panel) to its steady-state size,
//! `train_chunk_with_scratch` must not touch the heap again — on the two
//! benchmark shapes (identity + dot at d=128, translation at d=64, both
//! C=50/U=50) and on every other step path.

use pbg_core::config::{LossKind, NegativeMode, PbgConfig, PbgConfigBuilder, SimilarityKind};
use pbg_core::model::Model;
use pbg_core::storage::PartitionData;
use pbg_core::trainer::step::{
    train_chunk_with_scratch, ChunkContext, ParamGradAccum, StepScratch,
};
use pbg_graph::schema::{EntityTypeDef, GraphSchema, OperatorKind, RelationTypeDef};
use pbg_graph::RelationTypeId;
use pbg_tensor::rng::Xoshiro256;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const ROWS: usize = 2_000;
const CHUNK: usize = 50;

/// Allocations made by eleven chunks that follow one warm-up chunk.
fn steady_state_allocations(name: &str, op: OperatorKind, builder: PbgConfigBuilder) -> u64 {
    let schema = GraphSchema::builder()
        .entity_type(EntityTypeDef::new("node", ROWS as u32))
        .relation_type(RelationTypeDef::new("r", 0u32, 0u32).with_operator(op))
        .build()
        .unwrap();
    let config = builder.build().unwrap();
    let dim = config.dim;
    let model = Model::new(schema, config).unwrap();
    let data = PartitionData::init(ROWS, dim, 0.1, 0.5, 7);
    let ctx = ChunkContext {
        config: model.config(),
        relation: model.relation(RelationTypeId(0)),
        src_data: &data,
        dst_data: &data,
        src_partition_size: ROWS,
        dst_partition_size: ROWS,
        phases: None,
    };
    let mut rng = Xoshiro256::seed_from_u64(11);
    let mut edge_rng = Xoshiro256::seed_from_u64(12);
    let mut param_grads = ParamGradAccum::for_relation(ctx.relation);
    let mut scratch = StepScratch::new();
    let (mut src, mut dst) = (Vec::with_capacity(CHUNK), Vec::with_capacity(CHUNK));
    let weights = vec![1.0f32; CHUNK];
    let mut counted = 0;
    for chunk in 0..12 {
        src.clear();
        dst.clear();
        for _ in 0..CHUNK {
            src.push(edge_rng.gen_index(ROWS) as u32);
            dst.push(edge_rng.gen_index(ROWS) as u32);
        }
        let before = allocations();
        let loss = train_chunk_with_scratch(
            &ctx,
            &src,
            &dst,
            &weights,
            &mut param_grads,
            &mut rng,
            &mut scratch,
        );
        if chunk > 0 {
            counted += allocations() - before;
        }
        assert!(loss.is_finite(), "{name}: loss {loss}");
        param_grads.apply(ctx.relation);
    }
    counted
}

fn base(dim: usize) -> PbgConfigBuilder {
    PbgConfig::builder()
        .dim(dim)
        .batch_size(1_000)
        .chunk_size(CHUNK)
        .uniform_negatives(50)
        .threads(1)
}

#[test]
fn benchmark_shapes_step_allocates_nothing() {
    let inmem = steady_state_allocations("identity+dot d=128", OperatorKind::Identity, base(128));
    assert_eq!(inmem, 0, "identity + dot at d=128 allocated");
    let disk = steady_state_allocations("translation d=64", OperatorKind::Translation, base(64));
    assert_eq!(disk, 0, "translation at d=64 allocated");
}

#[test]
fn every_step_path_allocates_nothing() {
    let cases: [(&str, OperatorKind, PbgConfigBuilder); 8] = [
        ("diagonal", OperatorKind::Diagonal, base(32)),
        ("complex", OperatorKind::ComplexDiagonal, base(32)),
        ("linear", OperatorKind::Linear, base(32)),
        (
            "reciprocal linear",
            OperatorKind::Linear,
            base(32).reciprocal_relations(true),
        ),
        (
            "cosine reciprocal translation",
            OperatorKind::Translation,
            base(32)
                .similarity(SimilarityKind::Cosine)
                .reciprocal_relations(true),
        ),
        (
            "softmax",
            OperatorKind::Identity,
            base(32).loss(LossKind::Softmax),
        ),
        (
            "logistic unbatched",
            OperatorKind::Identity,
            base(32)
                .loss(LossKind::Logistic)
                .negative_mode(NegativeMode::Unbatched),
        ),
        (
            "destination corruption only",
            OperatorKind::Diagonal,
            base(32).corrupt_sources(false),
        ),
    ];
    for (name, op, builder) in cases {
        assert_eq!(
            steady_state_allocations(name, op, builder),
            0,
            "{name} allocated"
        );
    }
}
