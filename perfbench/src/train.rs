//! The single-machine training workloads, `train-inmem` and
//! `train-disk`: set up a trainer, train a fixed number of epochs
//! through `Trainer::train_epoch`, evaluate held-out MRR, and check the
//! outputs.

use crate::replay;
use crate::report::{show, Report};
use crate::setups;
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::{sys, Args};
use pbg_core::checkpoint;
use pbg_core::config::PbgConfig;
use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
use pbg_core::stats::EpochStats;
use pbg_core::trainer::{CheckpointPolicy, Storage, Trainer};
use pbg_datagen::knowledge::KnowledgeGraphConfig;
use pbg_datagen::presets;
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_graph::split::EdgeSplit;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::Registry;
use pbg_tensor::kernels::flops_executed;
use std::path::Path;
use std::time::Instant;

/// Chunks the step replay samples in a traced run.
const REPLAY_CHUNKS: usize = 3000;

/// One training workload's inputs and settings.
pub struct TrainWorkload {
    /// Graph schema (partition count included).
    pub schema: GraphSchema,
    /// Training edges.
    pub train: EdgeList,
    /// Held-out edges ranked for MRR.
    pub test: EdgeList,
    /// Trainer configuration.
    pub config: PbgConfig,
    /// Swap partitions through a pipelined `DiskStore`.
    pub disk: bool,
    /// Checkpoint every this many bucket-steps (0 = never).
    pub checkpoint_every: usize,
    /// Epochs to train.
    pub epochs: usize,
    /// Candidates per held-out edge and side.
    pub eval_candidates: usize,
    /// Back-to-back set-ups behind one `setup_s` sample (about 0.25 s
    /// of them).
    pub setup_repeats: usize,
}

/// Epochs sized so that training takes about `seconds` on the reference
/// host (2 cores), never fewer than three: a traced run alternates
/// untraced and traced epochs after a first untraced one.
fn epochs_for(seconds: u64, epoch_s: f64) -> usize {
    ((seconds as f64 / epoch_s).round() as usize).max(3)
}

/// `train-inmem`: a LiveJournal-like social graph, one partition,
/// in-memory store, identity operator, dot similarity, d = 128.
pub fn inmem(args: &Args) -> TrainWorkload {
    let ds = presets::livejournal_like(0.01, args.seed);
    let split = EdgeSplit::new(&ds.edges, 0.0, 0.05, args.seed);
    let epochs = epochs_for(args.seconds, 1.7);
    let config = PbgConfig::builder()
        .dim(128)
        .threads(2)
        .epochs(epochs)
        .seed(args.seed)
        .build()
        .expect("train-inmem config");
    TrainWorkload {
        schema: ds.schema_with_partitions(1),
        train: split.train,
        test: sample(&split.test, 4000),
        config,
        disk: false,
        checkpoint_every: 0,
        epochs,
        eval_candidates: 100,
        setup_repeats: 5,
    }
}

/// `train-disk`: a Freebase-like multi-relation knowledge graph
/// (translation operator), 8 partitions swapped through a pipelined
/// `DiskStore` with a 2-partition buffer, d = 64, checkpoints every half
/// epoch. The generator keeps the `freebase_like` preset's shape
/// parameters but holds more entities per edge than the preset, so
/// partitions are large enough for swapping and checkpointing to show.
pub fn disk(args: &Args) -> TrainWorkload {
    let num_entities = 160_000;
    let gen = KnowledgeGraphConfig {
        num_entities,
        num_relations: 64,
        num_edges: 480_000,
        num_communities: (((num_entities as f64).sqrt() / 2.0) as u16).clamp(8, 256),
        intra_prob: 0.85,
        zipf_exponent: 0.9,
        relation_skew: 1.0,
        identity_map_prob: 0.7,
        operator: OperatorKind::Translation,
        seed: args.seed,
    };
    let (edges, _) = gen.generate();
    let split = EdgeSplit::new(&edges, 0.0, 0.05, args.seed);
    let epochs = epochs_for(args.seconds, 1.8);
    let config = PbgConfig::builder()
        .dim(64)
        .threads(2)
        .buffer_size(2)
        .epochs(epochs)
        .seed(args.seed)
        .build()
        .expect("train-disk config");
    TrainWorkload {
        schema: gen.schema(8),
        train: split.train,
        test: sample(&split.test, 4000),
        config,
        disk: true,
        checkpoint_every: 32,
        epochs,
        eval_candidates: 100,
        setup_repeats: 20,
    }
}

/// The first `n` edges of an (already shuffled) split.
fn sample(edges: &EdgeList, n: usize) -> EdgeList {
    let idx: Vec<usize> = (0..edges.len().min(n)).collect();
    edges.select(&idx)
}

/// Expected MRR of a uniformly random ranking among `candidates + 1`.
pub fn random_mrr(candidates: usize) -> f64 {
    let n = candidates + 1;
    (1..=n).map(|r| 1.0 / r as f64).sum::<f64>() / n as f64
}

struct Epoch {
    stats: EpochStats,
    wall_s: f64,
    traced: bool,
    bytes_read: u64,
}

fn rate(epochs: &[&Epoch]) -> f64 {
    let edges: usize = epochs.iter().map(|e| e.stats.edges).sum();
    let wall: f64 = epochs.iter().map(|e| e.wall_s).sum();
    edges as f64 / wall
}

/// Builds the workload's trainer (store files under `store_dir` for a
/// disk store) and times its construction.
fn set_up(w: &TrainWorkload, store_dir: &Path) -> Result<(Trainer, f64), String> {
    // every set-up starts from a trimmed heap, as in a fresh process
    sys::trim_heap();
    let t0 = Instant::now();
    let storage = if w.disk {
        Storage::Disk(store_dir.to_path_buf())
    } else {
        Storage::InMemory
    };
    let trainer = Trainer::with_telemetry(
        w.schema.clone(),
        &w.train,
        w.config.clone(),
        storage,
        Registry::new(),
    )
    .map_err(|e| format!("trainer set-up: {e}"))?;
    Ok((trainer, t0.elapsed().as_secs_f64()))
}

/// The set-up worker of a training workload (see `setups`): builds
/// and drops trainers.
///
/// # Errors
///
/// Fails when a trainer cannot be built.
pub fn setup_worker(w: &TrainWorkload, work: &Path) -> Result<(), String> {
    let dir = work.join("spare");
    setups::serve(w.setup_repeats, || {
        let (trainer, s) = set_up(w, &dir)?;
        drop(trainer);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(vec![s])
    })
}

/// Runs a training workload.
///
/// # Errors
///
/// Fails when the trainer cannot be built or the work directory cannot
/// be used.
pub fn run(w: &TrainWorkload, args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    // ---- set-up: trainer construction (model init, bucketize, store) --
    // `setup_s` is the median of the set-up of the trainer that trains
    // and of worker samples taken before it and after every epoch.
    let ckpt_dir = work.join("checkpoint");
    let mut worker = setups::Worker::spawn(args)?;
    // the first sample also waits until the worker has built its inputs,
    // so that the worker does not compete with the measured run
    let mut setup_s = vec![worker.sample()?[0]];
    let (mut trainer, live_s) = set_up(w, &work.join("store"))?;
    setup_s.push(live_s);
    if w.checkpoint_every > 0 {
        trainer.set_checkpoint_policy(CheckpointPolicy {
            dir: ckpt_dir.clone(),
            every_buckets: w.checkpoint_every,
        });
    }
    let registry = trainer.telemetry().clone();

    // ---- training ----
    let mut epochs = Vec::new();
    let mut spans = Spans::default();
    let mut traced_flops = 0;
    let mut replayed = None;
    let (mut cpu_s, mut loop_wall_s) = (0.0, 0.0);
    for e in 1..=w.epochs {
        let traced = args.trace && e % 2 == 0;
        registry.set_tracing(traced);
        let swap_bytes0 = registry.counter(metric::STORE_SWAP_BYTES).get();
        let (flops0, cpu0, t0) = (flops_executed(), sys::cpu_time(), Instant::now());
        let stats = trainer.train_epoch();
        let wall_s = t0.elapsed().as_secs_f64();
        cpu_s += (sys::cpu_time() - cpu0).as_secs_f64();
        loop_wall_s += wall_s;
        registry.set_tracing(false);
        if traced {
            traced_flops += flops_executed() - flops0;
            spans.take(&registry);
        }
        let swapped = registry.counter(metric::STORE_SWAP_BYTES).get() - swap_bytes0;
        epochs.push(Epoch {
            bytes_read: swapped.saturating_sub(stats.bytes_written_back),
            stats,
            wall_s,
            traced,
        });
        setup_s.push(worker.sample()?[0]);
        if args.trace && e == 1 {
            // the probe replays a copy of the model after one epoch
            let snap = trainer.snapshot();
            replayed = Some(replay::replay(
                &snap,
                &w.config,
                trainer.buckets(),
                REPLAY_CHUNKS,
                args.seed,
            )?);
        }
    }

    drop(worker);
    // training's high-water mark, before evaluation and checks allocate
    let peak_rss_mb = sys::peak_rss_mb();
    r.set("peak_rss_mb", peak_rss_mb);

    // ---- held-out MRR ----
    let snap = trainer.snapshot();
    let eval = LinkPredictionEval {
        num_candidates: w.eval_candidates,
        sampling: CandidateSampling::Prevalence,
        filtered: false,
        both_sides: true,
        seed: 17,
    };
    let t0 = Instant::now();
    let ranking = eval.evaluate(&snap, &w.test, &w.train, &[]);
    let eval_s = t0.elapsed().as_secs_f64();

    // ---- correctness ----
    let final_loss = epochs.last().map_or(f64::NAN, |e| e.stats.mean_loss);
    let bad: Vec<&Epoch> = epochs
        .iter()
        .filter(|e| !e.stats.mean_loss.is_finite())
        .collect();
    r.attempted = epochs.iter().map(|e| e.stats.buckets as u64).sum();
    r.failed = bad.iter().map(|e| e.stats.buckets as u64).sum();
    r.check(
        "every epoch's loss is finite",
        bad.is_empty(),
        format!("final_loss {final_loss:.6}"),
    );
    let floor = random_mrr(w.eval_candidates);
    r.check(
        "held-out mrr is finite and above random",
        ranking.mrr.is_finite() && ranking.mrr > 1.5 * floor,
        format!("mrr {:.4} vs random {floor:.4}", ranking.mrr),
    );
    if w.checkpoint_every > 0 {
        check_checkpoint(&ckpt_dir, &snap, w.epochs, r);
    }

    // ---- end-to-end ----
    let all: Vec<&Epoch> = epochs.iter().collect();
    let epoch_ms: Vec<f64> = epochs.iter().map(|e| e.wall_s * 1e3).collect();
    let ms = Summary::of(&epoch_ms);
    r.set("setup_s", median(&setup_s));
    // the median epoch's rate: one stalled epoch does not move it
    let epoch_rate = median(&epochs.iter().map(|e| rate(&[e])).collect::<Vec<_>>());
    r.set("mrr", ranking.mrr);
    r.set("op_p50_ms", ms.p50);
    show("setup_s", median(&setup_s), "s");
    show("edges_per_s", epoch_rate, "1/s");
    show("edges_per_s (all epochs)", rate(&all), "1/s");
    show("final_loss", final_loss, "loss/edge");
    show("mrr", ranking.mrr, "ratio");
    show("peak_rss_mb", peak_rss_mb, "MB");
    show("epoch_p50_ms", ms.p50, "ms");
    show(
        &format!("epoch_{}_ms (n={})", ms.tail_label(), ms.n),
        ms.tail,
        "ms",
    );

    // ---- per-layer ----
    r.set("trainer.final_loss", final_loss);
    r.set("eval.s", eval_s);
    r.set("eval.edges_per_s", ranking.count as f64 / eval_s);
    r.set("process.cpu_per_wall", cpu_s / loop_wall_s);
    let per_epoch = |f: &dyn Fn(&Epoch) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    r.set("store.swap_ins", per_epoch(&|e| e.stats.swap_ins as f64));
    r.set(
        "store.swap_wait_s",
        per_epoch(&|e| e.stats.swap_wait_seconds),
    );
    r.set(
        "store.swap_wait_share",
        per_epoch(&|e| e.stats.swap_wait_seconds / e.wall_s),
    );
    r.set(
        "store.prefetch_hit_ratio",
        per_epoch(&|e| e.stats.prefetch_hits as f64 / e.stats.swap_ins.max(1) as f64),
    );
    r.set("store.bytes_read", per_epoch(&|e| e.bytes_read as f64));
    r.set(
        "store.bytes_written_back",
        per_epoch(&|e| e.stats.bytes_written_back as f64),
    );
    r.set(
        "store.writeback_skipped_bytes",
        per_epoch(&|e| e.stats.writeback_skipped_bytes as f64),
    );
    r.set("store.evictions", per_epoch(&|e| e.stats.evictions as f64));
    if args.trace {
        let traced: Vec<&Epoch> = epochs.iter().filter(|e| e.traced).collect();
        let untraced: Vec<&Epoch> = epochs.iter().skip(1).filter(|e| !e.traced).collect();
        let traced_wall: f64 = traced.iter().map(|e| e.wall_s).sum();
        let n = traced.len() as f64;
        r.set("trainer.edges_per_s", rate(&untraced));
        r.set("trace.edges_per_s", rate(&traced));
        r.set("trace.overhead_ratio", rate(&untraced) / rate(&traced));
        r.set(
            "trainer.epoch_s",
            median(&traced.iter().map(|e| e.wall_s).collect::<Vec<_>>()),
        );
        r.set("trainer.gflops", traced_flops as f64 / traced_wall / 1e9);
        let phase_cpu = spans.report_trainer(r, n, w.config.threads);
        if !spans.checkpoint_s.is_empty() {
            r.set("checkpoint.saves", spans.checkpoint_s.len() as f64 / n);
            r.set("checkpoint.save_s", median(&spans.checkpoint_s));
            r.set(
                "checkpoint.share",
                spans.checkpoint_s.iter().sum::<f64>() / traced_wall,
            );
            r.set("checkpoint.bytes", median(&spans.checkpoint_bytes));
        }
        if let Some(rep) = &replayed {
            let traced_edges: usize = traced.iter().map(|e| e.stats.edges).sum();
            rep.report(r, traced_edges as u64, phase_cpu);
        }
    }
    Ok(())
}

/// The last periodic checkpoint sits on the final epoch boundary: it
/// must load with verified manifest checksums, equal the trained model
/// bit for bit, and map for serving.
fn check_checkpoint(
    dir: &Path,
    snap: &pbg_core::model::TrainedEmbeddings,
    epochs: usize,
    r: &mut Report,
) {
    let loaded = checkpoint::load_with_manifest(dir);
    let detail = match &loaded {
        Ok((_, m)) => format!(
            "{} files, progress {}+{}",
            m.files.len(),
            m.progress.epochs_done,
            m.progress.steps_done
        ),
        Err(e) => e.to_string(),
    };
    let ok = match &loaded {
        Ok((model, m)) => {
            m.progress.epochs_done == epochs
                && m.progress.steps_done == 0
                && model.relations == snap.relations
                && model
                    .embeddings
                    .iter()
                    .zip(&snap.embeddings)
                    .all(|(a, b)| a.as_slice() == b.as_slice())
        }
        Err(_) => false,
    };
    r.check(
        "checkpoint loads, checksums verify, equals model",
        ok,
        detail,
    );
    let t0 = Instant::now();
    let mapped = checkpoint::open_mmap(dir);
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rows_match = mapped.as_ref().is_ok_and(|m| {
        let rows = snap.embeddings[0].rows() as u32;
        (0..rows)
            .step_by(997)
            .all(|id| *m.embedding(0, id) == *snap.embedding(0, id))
    });
    r.check(
        "checkpoint maps for serving",
        rows_match,
        format!("{open_ms:.2} ms"),
    );
    r.set("checkpoint.open_mmap_ms", open_ms);
}
