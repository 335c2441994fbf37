//! `cluster-loopback`: the networked cluster in one process. Each round
//! starts the lock, partition and parameter `NetServer`s on ephemeral
//! 127.0.0.1 ports, trains a 4-partition homogeneous graph with two
//! `train_rank` threads (`threads = 1` each), and the last round pulls
//! the model back with `snapshot_model` for held-out MRR.

use crate::report::{show, Report};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::{sys, Args};
use pbg_core::config::PbgConfig;
use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
use pbg_core::model::{Model, TrainedEmbeddings};
use pbg_datagen::presets;
use pbg_distsim::lockserver::LockServer;
use pbg_distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::GraphSchema;
use pbg_graph::split::EdgeSplit;
use pbg_net::{
    snapshot_model, train_rank, Connection, NetLock, NetParams, NetPartitions, NetServer,
    RankConfig, RankServices, RankStats,
};
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::Registry;
use pbg_tensor::kernels::flops_executed;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTS: u32 = 4;
const RANKS: usize = 2;
const EPOCHS_PER_ROUND: usize = 2;
/// Round length on the reference host (2 cores), for sizing.
const ROUND_S: f64 = 0.75;
const EVAL_CANDIDATES: usize = 100;
/// RPC tags reported on their own; the rest count as `other`.
const TAGS: [&str; 5] = [
    "lock_acquire",
    "lock_release",
    "part_checkout",
    "part_checkin",
    "param_push_pull",
];

/// What one round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    stats: Vec<RankStats>,
    errors: Vec<String>,
    traced: bool,
    flops: u64,
    cpu_s: f64,
    net_bytes: u64,
    retries: u64,
    registries: Vec<Registry>,
    model: Option<TrainedEmbeddings>,
}

impl Round {
    fn edges(&self) -> usize {
        self.stats.iter().map(|s| s.edges).sum()
    }

    fn buckets(&self) -> usize {
        self.stats.iter().map(|s| s.buckets_trained).sum()
    }
}

fn round(
    schema: &GraphSchema,
    train: &EdgeList,
    config: &PbgConfig,
    traced: bool,
    snapshot: bool,
) -> Result<Round, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // ---- set-up: server start plus each rank's first connect ----
    let t0 = Instant::now();
    let layout = Model::new(schema.clone(), config.clone())
        .map_err(|e| err(&e))?
        .store_layout();
    let meter = Arc::new(NetworkModel::new(1e9, 0.0));
    let lock = Arc::new(EpochLock::new(
        LockServer::with_lease(Duration::from_secs(30)),
        config.epochs,
        PARTS,
        PARTS,
    ));
    let parts = Arc::new(PartitionServer::new(layout, 2, Arc::clone(&meter)));
    let params = Arc::new(ParameterServer::new(1, Arc::clone(&meter)));
    let lock_srv = NetServer::lock("127.0.0.1:0", lock).map_err(|e| err(&e))?;
    let part_srv = NetServer::partitions("127.0.0.1:0", parts).map_err(|e| err(&e))?;
    let param_srv = NetServer::params("127.0.0.1:0", params).map_err(|e| err(&e))?;
    let addrs = [
        lock_srv.local_addr().to_string(),
        part_srv.local_addr().to_string(),
        param_srv.local_addr().to_string(),
    ];
    let registries: Vec<Registry> = (0..RANKS).map(|_| Registry::new()).collect();
    for reg in &registries {
        for addr in &addrs {
            Connection::new(addr.clone(), reg)
                .ping(1)
                .map_err(|e| format!("connect {addr}: {e}"))?;
        }
        reg.set_tracing(traced);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- training ----
    let (flops0, cpu0, t1) = (flops_executed(), sys::cpu_time(), Instant::now());
    let results: Vec<Result<RankStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = registries
            .iter()
            .enumerate()
            .map(|(rank, reg)| {
                let addrs = &addrs;
                scope.spawn(move || {
                    let services = RankServices {
                        lock: NetLock::new(addrs[0].clone(), reg),
                        partitions: NetPartitions::new(addrs[1].clone(), reg),
                        params: NetParams::new(addrs[2].clone(), reg),
                    };
                    train_rank(
                        schema,
                        train,
                        config.clone(),
                        &services,
                        &RankConfig::new(rank),
                        reg,
                    )
                    .map_err(|e| format!("rank {rank}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("rank panicked".into())))
            .collect()
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_time() - cpu0).as_secs_f64();
    let flops = flops_executed() - flops0;
    for reg in &registries {
        reg.set_tracing(false);
    }

    let model = if snapshot {
        let reg = Registry::new();
        let model = snapshot_model(
            schema,
            config.clone(),
            &NetPartitions::new(addrs[1].clone(), &reg),
            &NetParams::new(addrs[2].clone(), &reg),
        )
        .map_err(|e| format!("snapshot_model: {e}"))?;
        Some(model)
    } else {
        None
    };
    let counter = |name: &str| {
        registries
            .iter()
            .map(|r| r.counter(name).get())
            .sum::<u64>()
    };
    let (mut stats, mut errors) = (Vec::new(), Vec::new());
    for res in results {
        match res {
            Ok(s) => stats.push(s),
            Err(e) => errors.push(e),
        }
    }
    Ok(Round {
        setup_s,
        wall_s,
        stats,
        errors,
        traced,
        flops,
        cpu_s,
        net_bytes: counter(metric::NET_BYTES_SENT) + counter(metric::NET_BYTES_RECEIVED),
        retries: counter(metric::NET_RPC_RETRIES),
        registries,
        model,
    })
}

fn rate(rounds: &[&Round]) -> f64 {
    let edges: usize = rounds.iter().map(|r| r.edges()).sum();
    edges as f64 / rounds.iter().map(|r| r.wall_s).sum::<f64>()
}

/// Runs `cluster-loopback`.
///
/// # Errors
///
/// Fails when a server cannot bind or a rank cannot reach it.
pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let ds = presets::livejournal_like(0.002, args.seed);
    let split = EdgeSplit::new(&ds.edges, 0.0, 0.05, args.seed);
    let schema = GraphSchema::homogeneous(ds.num_nodes(), PARTS).map_err(|e| e.to_string())?;
    let config = PbgConfig::builder()
        .dim(64)
        .threads(1)
        .epochs(EPOCHS_PER_ROUND)
        .seed(args.seed)
        .build()
        .map_err(|e| e.to_string())?;
    let n_rounds = ((args.seconds as f64 / ROUND_S).round() as usize).max(3);
    let mut rounds = Vec::new();
    let mut peak_rss_mb = 0.0;
    for k in 1..=n_rounds {
        let traced = args.trace && k % 2 == 0;
        rounds.push(round(
            &schema,
            &split.train,
            &config,
            traced,
            k == n_rounds,
        )?);
        if k == 1 {
            // one round is what a cluster run does; later rounds only
            // add allocator growth from restarting servers in-process
            peak_rss_mb = sys::peak_rss_mb();
        }
        // a round's servers and ranks are gone: release what their
        // threads' arenas still hold, so rounds do not stack up
        sys::trim_heap();
    }
    r.set("peak_rss_mb", peak_rss_mb);

    // ---- held-out MRR on the last round's model ----
    let model = rounds
        .last()
        .and_then(|rd| rd.model.as_ref())
        .expect("last round snapshots");
    let test = {
        let idx: Vec<usize> = (0..split.test.len().min(4000)).collect();
        split.test.select(&idx)
    };
    let eval = LinkPredictionEval {
        num_candidates: EVAL_CANDIDATES,
        sampling: CandidateSampling::Prevalence,
        filtered: false,
        both_sides: true,
        seed: 17,
    };
    let t0 = Instant::now();
    let ranking = eval.evaluate(model, &test, &split.train, &[]);
    let eval_s = t0.elapsed().as_secs_f64();

    // ---- correctness ----
    let want_buckets = EPOCHS_PER_ROUND * (PARTS * PARTS) as usize;
    let want_edges = EPOCHS_PER_ROUND * split.train.len();
    let exact = rounds
        .iter()
        .all(|rd| rd.errors.is_empty() && rd.buckets() == want_buckets && rd.edges() == want_edges);
    let errors: Vec<&String> = rounds.iter().flat_map(|rd| &rd.errors).collect();
    r.attempted = rounds.iter().map(|rd| rd.buckets() as u64).sum::<u64>() + errors.len() as u64;
    r.failed = errors.len() as u64;
    r.check(
        "every bucket trained exactly once per epoch",
        exact,
        format!(
            "{} rounds x {want_buckets} buckets, errors: {errors:?}",
            rounds.len()
        ),
    );
    let last = rounds.last().expect("rounds");
    let final_loss = last.stats.iter().map(|s| s.loss).sum::<f64>() / last.edges().max(1) as f64;
    r.check(
        "round loss is finite",
        rounds
            .iter()
            .all(|rd| rd.stats.iter().all(|s| s.loss.is_finite())),
        format!("final_loss {final_loss:.6}"),
    );
    let floor = crate::train::random_mrr(EVAL_CANDIDATES);
    r.check(
        "held-out mrr is finite and above random",
        ranking.mrr.is_finite() && ranking.mrr > 1.5 * floor,
        format!("mrr {:.4} vs random {floor:.4}", ranking.mrr),
    );

    // ---- end-to-end ----
    let all: Vec<&Round> = rounds.iter().collect();
    let setups: Vec<f64> = rounds.iter().map(|rd| rd.setup_s).collect();
    let round_ms: Vec<f64> = rounds.iter().map(|rd| rd.wall_s * 1e3).collect();
    let ms = Summary::of(&round_ms);
    r.set("setup_s", median(&setups));
    let round_rate = median(&rounds.iter().map(|rd| rate(&[rd])).collect::<Vec<_>>());
    r.set("mrr", ranking.mrr);
    r.set("op_p50_ms", ms.p50);
    show("setup_s", median(&setups), "s");
    show("edges_per_s", round_rate, "1/s");
    show("edges_per_s (all rounds)", rate(&all), "1/s");
    show("final_loss", final_loss, "loss/edge");
    show("mrr", ranking.mrr, "ratio");
    show("peak_rss_mb", peak_rss_mb, "MB");
    show("round_p50_ms", ms.p50, "ms");
    show(
        &format!("round_{}_ms (n={})", ms.tail_label(), ms.n),
        ms.tail,
        "ms",
    );

    // ---- per-layer ----
    let epochs_total = (rounds.len() * EPOCHS_PER_ROUND) as f64;
    r.set("trainer.final_loss", final_loss);
    r.set("eval.s", eval_s);
    r.set("eval.edges_per_s", ranking.count as f64 / eval_s);
    r.set(
        "process.cpu_per_wall",
        rounds.iter().map(|rd| rd.cpu_s).sum::<f64>()
            / rounds.iter().map(|rd| rd.wall_s).sum::<f64>(),
    );
    r.set(
        "net.bytes_per_edge",
        rounds.iter().map(|rd| rd.net_bytes).sum::<u64>() as f64
            / rounds.iter().map(|rd| rd.edges()).sum::<usize>() as f64,
    );
    r.set(
        "net.retries",
        rounds.iter().map(|rd| rd.retries).sum::<u64>() as f64 / rounds.len() as f64,
    );
    r.set(
        "cluster.buckets_per_epoch",
        rounds.iter().map(|rd| rd.buckets()).sum::<usize>() as f64 / epochs_total,
    );
    if args.trace {
        report_traced(&rounds, r);
    }
    Ok(())
}

/// Per-layer numbers from the traced rounds' spans.
fn report_traced(rounds: &[Round], r: &mut Report) {
    let traced: Vec<&Round> = rounds.iter().filter(|rd| rd.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().skip(1).filter(|rd| !rd.traced).collect();
    let epochs = (traced.len() * EPOCHS_PER_ROUND) as f64;
    let traced_wall: f64 = traced.iter().map(|rd| rd.wall_s).sum();
    r.set("trainer.edges_per_s", rate(&untraced));
    r.set("trace.edges_per_s", rate(&traced));
    r.set("trace.overhead_ratio", rate(&untraced) / rate(&traced));
    r.set("trainer.epoch_s", traced_wall / epochs);
    r.set(
        "trainer.gflops",
        traced.iter().map(|rd| rd.flops).sum::<u64>() as f64 / traced_wall / 1e9,
    );
    let mut spans = Spans::default();
    for reg in traced.iter().flat_map(|rd| &rd.registries) {
        spans.take(reg);
    }
    let group = |t: &str| TAGS.iter().copied().find(|&g| g == t).unwrap_or("other");
    for tag in TAGS.iter().copied().chain(["other"]) {
        let count = spans.rpcs.iter().filter(|(t, _)| group(t) == tag).count();
        r.set(&format!("net.rpcs.{tag}"), count as f64 / epochs);
    }
    let tagged = |f: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .rpcs
            .iter()
            .filter(|(t, _)| f(t))
            .map(|(_, s)| s)
            .sum()
    };
    r.set(
        "cluster.acquire_wait_s",
        tagged(&|t| t == "lock_acquire") / epochs,
    );
    r.set(
        "cluster.param_sync_s",
        tagged(&|t| t.starts_with("param_")) / epochs,
    );
    let rpc_ms: Vec<f64> = spans.rpcs.iter().map(|(_, s)| s * 1e3).collect();
    if !rpc_ms.is_empty() {
        r.set("net.rpc_latency_ms.p50", median(&rpc_ms));
        r.set("net.rpc_latency_ms.p99", Summary::at_most(&rpc_ms, 99.0));
    }
    // each rank trains with one thread
    spans.report_trainer(r, epochs, 1);
}
