//! `serve-mixed`: a checkpoint is saved, memory-mapped and served by
//! `EmbedServer` (rate limiting off); an open loop then sends mostly
//! `/score` requests (64 candidates) with every tenth a `/topk`
//! full-shard scan, at fixed arrival rates over at most two client
//! connections.
//!
//! The traffic is an assumption, not a recorded production mix; the
//! repository records none. What the numbers below are chosen for:
//!
//! - one request in ten is `/topk`. With the served medians on a 2-vCPU
//!   x86-64 host (`/score` about 0.3-0.4 ms, `/topk` about 7-9 ms), that
//!   gives `/topk` about 70% of the server's busy time at every rate, so
//!   a change to the `/topk` path moves the time `/score` waits for;
//! - the nominal rate, 300/s, keeps the server busy for about 0.3 s per
//!   second, well below saturation, so its latencies are service times
//!   plus modest queueing. The fixed rates double from half the nominal
//!   to 16 times it, which brackets saturation (a few thousand requests/s
//!   on that host) for `max_rate_rps`;
//! - the model is planted, not trained: entities belong to 128
//!   communities and embed near their community's centroid, and each
//!   `/score` request ranks one held-out edge (its destination in the
//!   source's community 80% of the time) among 63 random candidates. This
//!   only gives the served scores an MRR to check; request costs do not
//!   depend on the embedding values.

use crate::openloop;
use crate::report::{show, Report, SERVE_RATES};
use crate::setups;
use crate::stats::{median, Summary};
use crate::Args;
use pbg_core::checkpoint::{self, TrainProgress};
use pbg_core::config::PbgConfig;
use pbg_core::model::{MmapEmbeddings, Model, TrainedEmbeddings};
use pbg_core::storage::InMemoryStore;
use pbg_graph::schema::{EntityTypeDef, GraphSchema, RelationTypeDef};
use pbg_graph::RelationTypeId;
use pbg_serve::{EmbedServer, ServeConfig};
use pbg_telemetry::Registry;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use pbg_tensor::Precision;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ENTITIES: u32 = 100_000;
const DIM: usize = 64;
const COMMUNITIES: u32 = 128;
const CANDIDATES: usize = 64;
const TOPK: usize = 10;
/// Every `TOPK_EVERY`-th request is a `/topk` scan (see the module doc).
const TOPK_EVERY: usize = 10;
/// Client connections (the load generator's concurrency).
const CONNECTIONS: usize = 2;
/// The rate whose latencies are the end-to-end numbers (see the module
/// doc).
const NOMINAL_RATE: u32 = 300;
/// A rate is sustained when `/score`'s tail latency stays within this.
const SCORE_LIMIT_MS: f64 = 25.0;
/// A run whose generator sent requests later than this (p99) is invalid.
const GENERATOR_LATE_LIMIT_MS: f64 = 10.0;
/// Measurement rounds; each holds one window of every rate.
const ROUNDS: usize = 6;
/// Back-to-back set-ups behind one `setup_s` sample (about 0.25 s of
/// them).
const SETUP_REPEATS: usize = 2;

/// One prepared request.
struct Query {
    src: u32,
    /// `/score` candidates (the true destination at `truth`); empty for
    /// `/topk`.
    dsts: Vec<u32>,
    truth: usize,
    http: String,
}

fn http_post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// The planted model and its request pools.
struct Inputs {
    snap: TrainedEmbeddings,
    scores: Vec<Query>,
    topks: Vec<Query>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e7e);
    let schema = GraphSchema::builder()
        .entity_type(EntityTypeDef::new("node", ENTITIES))
        .relation_type(RelationTypeDef::new("link", 0u32, 0u32))
        .build()
        .expect("serve schema");
    let config = PbgConfig::builder().dim(DIM).build().expect("serve config");
    let model = Model::new(schema, config).expect("serve model");
    let mut snap = model.snapshot(&InMemoryStore::new(model.store_layout()));
    let centroids: Vec<f32> = (0..COMMUNITIES as usize * DIM)
        .map(|_| rng.gen_normal() * 0.1)
        .collect();
    let community: Vec<u32> = (0..ENTITIES)
        .map(|_| rng.gen_range(u64::from(COMMUNITIES)) as u32)
        .collect();
    let mut members = vec![Vec::new(); COMMUNITIES as usize];
    for (e, &c) in community.iter().enumerate() {
        members[c as usize].push(e as u32);
    }
    let mut emb = Matrix::zeros(ENTITIES as usize, DIM);
    for (e, &c) in community.iter().enumerate() {
        let centroid = &centroids[c as usize * DIM..(c as usize + 1) * DIM];
        for (x, &m) in emb.row_mut(e).iter_mut().zip(centroid) {
            *x = m + rng.gen_normal() * 0.12;
        }
    }
    snap.embeddings[0] = emb;

    let entity = |rng: &mut Xoshiro256| rng.gen_range(u64::from(ENTITIES)) as u32;
    let scores = (0..4096)
        .map(|_| {
            let src = entity(&mut rng);
            let peers = &members[community[src as usize] as usize];
            let dst = if rng.gen_f64() < 0.8 {
                peers[rng.gen_index(peers.len())]
            } else {
                entity(&mut rng)
            };
            let mut dsts: Vec<u32> = (0..CANDIDATES - 1).map(|_| entity(&mut rng)).collect();
            let truth = rng.gen_index(CANDIDATES);
            dsts.insert(truth, dst);
            let list: Vec<String> = dsts.iter().map(u32::to_string).collect();
            let body = format!(
                r#"{{"src": {src}, "rel": 0, "dsts": [{}]}}"#,
                list.join(", ")
            );
            Query {
                src,
                dsts,
                truth,
                http: http_post("/score", &body),
            }
        })
        .collect();
    let topks = (0..256)
        .map(|_| {
            let src = entity(&mut rng);
            let body = format!(r#"{{"src": {src}, "rel": 0, "k": {TOPK}}}"#);
            Query {
                src,
                dsts: Vec::new(),
                truth: 0,
                http: http_post("/topk", &body),
            }
        })
        .collect();
    Inputs {
        snap,
        scores,
        topks,
    }
}

impl Inputs {
    /// The query behind stream request `i`.
    fn query(&self, i: usize) -> (bool, &Query) {
        let (topk, q) = kind(i);
        let pool = if topk { &self.topks } else { &self.scores };
        (topk, &pool[q % pool.len()])
    }

    /// The HTTP text of stream request `i`.
    fn request(&self, i: usize) -> &str {
        &self.query(i).1.http
    }
}

/// Saves `snap` under `dir`, maps it and starts a server on it. Returns
/// them with the set-up's seconds: `[total, save, open_mmap]`.
fn set_up(
    snap: &TrainedEmbeddings,
    dir: &Path,
) -> Result<(EmbedServer, Arc<MmapEmbeddings>, Vec<f64>), String> {
    // every set-up starts from a trimmed heap, as in a fresh process
    crate::sys::trim_heap();
    let t0 = Instant::now();
    checkpoint::save_with_precision(snap, dir, TrainProgress::default(), Precision::F32)
        .map_err(|e| format!("checkpoint save: {e}"))?;
    let t1 = Instant::now();
    let mm = Arc::new(checkpoint::open_mmap(dir).map_err(|e| format!("open_mmap: {e}"))?);
    let t2 = Instant::now();
    let config = ServeConfig {
        rate_limit_rps: 0.0,
        ..ServeConfig::default()
    };
    let server = EmbedServer::serve("127.0.0.1:0", Arc::clone(&mm), Registry::new(), config)
        .map_err(|e| format!("serve: {e}"))?;
    let times = vec![
        t0.elapsed().as_secs_f64(),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
    ];
    Ok((server, mm, times))
}

/// The set-up worker of `serve-mixed` (see `setups`): saves, maps and
/// serves the planted model, then drops it.
///
/// # Errors
///
/// Fails when a set-up fails.
pub fn setup_worker(args: &Args, work: &Path) -> Result<(), String> {
    let inp = inputs(args.seed);
    let dir = work.join("spare");
    setups::serve(SETUP_REPEATS, || {
        let (server, mm, times) = set_up(&inp.snap, &dir)?;
        drop(server);
        drop(mm);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(times)
    })
}

/// Sends one request; returns the body of a `200` answer.
fn send(addr: SocketAddr, request: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    s.read_to_string(&mut response).ok()?;
    if !response.starts_with("HTTP/1.0 200") && !response.starts_with("HTTP/1.1 200") {
        return None;
    }
    response.split_once("\r\n\r\n").map(|(_, b)| b.to_string())
}

/// Request `i` of a mixed stream: `(is_topk, pool index)`.
fn kind(i: usize) -> (bool, usize) {
    if i % TOPK_EVERY == TOPK_EVERY - 1 {
        (true, i / TOPK_EVERY)
    } else {
        (false, i - i / TOPK_EVERY)
    }
}

/// One open-loop phase's outcome.
struct Phase {
    rate: u32,
    score_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: usize,
    /// Stream index and, when kept, `200` body of every request sent.
    sent: Vec<(usize, Option<String>)>,
}

impl Phase {
    fn attempted(&self) -> usize {
        self.sent.len()
    }

    fn sustained(&self) -> bool {
        self.failed == 0
            && Summary::at_most(&self.score_ms, 99.0) <= SCORE_LIMIT_MS
            && !openloop::backlog_grew(&self.score_ms, 2.0)
    }

    /// Pools consecutive windows run at one rate.
    fn pooled(windows: Vec<Phase>) -> Phase {
        let mut all = Phase {
            rate: windows[0].rate,
            score_ms: Vec::new(),
            topk_ms: Vec::new(),
            late_ms: Vec::new(),
            failed: 0,
            sent: Vec::new(),
        };
        for w in windows {
            all.score_ms.extend(w.score_ms);
            all.topk_ms.extend(w.topk_ms);
            all.late_ms.extend(w.late_ms);
            all.failed += w.failed;
            all.sent.extend(w.sent);
        }
        all
    }
}

/// Sends stream requests `first..` at `rate` for `seconds`, open loop;
/// `keep` retains the answers for verification.
fn open_loop(
    addr: SocketAddr,
    inp: &Inputs,
    rate: u32,
    seconds: f64,
    first: usize,
    keep: bool,
) -> Phase {
    let due = openloop::schedule(f64::from(rate), seconds);
    let bodies: Vec<Mutex<Option<String>>> = (0..due.len()).map(|_| Mutex::new(None)).collect();
    let outcomes = openloop::run(&due, CONNECTIONS, |i| {
        let body = send(addr, inp.request(first + i));
        let ok = body.is_some();
        if keep {
            *bodies[i].lock().expect("body slot") = body;
        }
        ok
    });
    let mut phase = Phase {
        rate,
        score_ms: Vec::new(),
        topk_ms: Vec::new(),
        late_ms: Vec::new(),
        failed: outcomes.iter().filter(|o| !o.ok).count(),
        sent: bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (first + i, b.into_inner().expect("body slot")))
            .collect(),
    };
    for (i, o) in outcomes.iter().enumerate() {
        let ms = o.latency.as_secs_f64() * 1e3;
        if kind(first + i).0 {
            phase.topk_ms.push(ms);
        } else {
            phase.score_ms.push(ms);
        }
        phase.late_ms.push(o.late.as_secs_f64() * 1e3);
    }
    phase
}

fn parse(body: &str) -> Option<Value> {
    serde_json::from_str(body).ok()
}

/// Served `/score` answers must equal the mapped model's scores bit for
/// bit (after the f32 → JSON → f32 round trip); returns the MRR of the
/// true destinations and the number of answers that mismatched.
fn verify_scores(mm: &MmapEmbeddings, inp: &Inputs, phase: &Phase) -> (f64, usize, usize) {
    let (mut rr, mut n, mut bad) = (0.0, 0usize, 0usize);
    for (i, body) in &phase.sent {
        let (false, query) = inp.query(*i) else {
            continue;
        };
        let Some(body) = body else { continue };
        let direct = mm.score_against_destinations(query.src, RelationTypeId(0), &query.dsts);
        let served: Option<Vec<f32>> = parse(body).and_then(|v| {
            v.get("scores")?
                .as_array()?
                .iter()
                .map(|s| s.as_f64().map(|x| x as f32))
                .collect()
        });
        match served {
            Some(s)
                if s.iter()
                    .map(|x| x.to_bits())
                    .eq(direct.iter().map(|x| x.to_bits())) =>
            {
                let truth = s[query.truth];
                let rank = 1 + s.iter().filter(|&&x| x > truth).count();
                rr += 1.0 / rank as f64;
                n += 1;
            }
            _ => bad += 1,
        }
    }
    (rr / n.max(1) as f64, n, bad)
}

/// Served `/topk` answers must equal `MmapEmbeddings::top_destinations`.
fn verify_topk(mm: &MmapEmbeddings, inp: &Inputs, phase: &Phase) -> (usize, usize) {
    let (mut n, mut bad) = (0, 0);
    for (i, body) in &phase.sent {
        let (true, query) = inp.query(*i) else {
            continue;
        };
        let Some(body) = body else { continue };
        let direct = mm.top_destinations(query.src, RelationTypeId(0), TOPK);
        let served: Option<Vec<(u32, f32)>> = parse(body).and_then(|v| {
            v.get("results")?
                .as_array()?
                .iter()
                .map(|r| {
                    Some((
                        r.get("dst")?.as_u64()? as u32,
                        r.get("score")?.as_f64()? as f32,
                    ))
                })
                .collect()
        });
        n += 1;
        let same = served.is_some_and(|s| {
            s.len() == direct.len()
                && s.iter()
                    .zip(&direct)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        });
        if !same {
            bad += 1;
        }
    }
    (n, bad)
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// Fails when the checkpoint cannot be written or served, or when the
/// load generator fell behind its schedule (the run is then invalid).
pub fn run(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let inp = inputs(args.seed);

    // ---- set-up: checkpoint save + open_mmap + bind ----
    // `setup_s` is the median of the set-up of the server under load and
    // of worker samples taken before it and after every round.
    let mut worker = setups::Worker::spawn(args)?;
    // the first sample also waits until the worker has built its inputs,
    // so that the worker does not compete with the measured run
    let mut setup_times = vec![worker.sample()?];
    let (server, mm, live) = set_up(&inp.snap, &work.join("checkpoint"))?;
    setup_times.push(live);
    let addr = server.local_addr();
    let s = args.seconds as f64;

    // ---- warm-up, then rounds of fixed-rate windows ----
    // Every rate runs as one window per round and rounds span the run,
    // so a slow spell of the host lands in one window of each rate
    // rather than in one whole measurement.
    // open-loop windows walk on through the request stream, so the
    // nominal windows send distinct `/score` queries
    let mut stream = 0;
    let mut take = |n: f64| {
        let first = stream;
        stream += n.ceil() as usize;
        first
    };
    let warm_s = 0.05 * s;
    let first = take(f64::from(NOMINAL_RATE) * warm_s);
    let warm_up = open_loop(addr, &inp, NOMINAL_RATE, warm_s, first, false);
    let mut windows: Vec<Vec<Phase>> = SERVE_RATES.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (slot, &rate) in SERVE_RATES.iter().enumerate() {
            let share = if rate == NOMINAL_RATE { 0.5 } else { 0.09 };
            let seconds = share * s / ROUNDS as f64;
            let first = take(f64::from(rate) * seconds);
            let keep = rate == NOMINAL_RATE;
            windows[slot].push(open_loop(addr, &inp, rate, seconds, first, keep));
        }
        setup_times.push(worker.sample()?);
    }
    drop(server);
    drop(worker);
    let peak_rss_mb = crate::sys::peak_rss_mb();
    r.set("peak_rss_mb", peak_rss_mb);
    let nominal_slot = SERVE_RATES
        .iter()
        .position(|&r| r == NOMINAL_RATE)
        .expect("nominal rate is one of the rates");
    let phases: Vec<Phase> = windows.into_iter().map(Phase::pooled).collect();
    let nominal = &phases[nominal_slot];

    // ---- the same queries called directly, without HTTP ----
    let time = |f: &mut dyn FnMut(usize)| {
        let samples: Vec<f64> = (0..200)
            .map(|i| {
                let t0 = Instant::now();
                f(i);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let score_direct_s = time(&mut |i| {
        let q = &inp.scores[i];
        std::hint::black_box(mm.score_against_destinations(q.src, RelationTypeId(0), &q.dsts));
    });
    let topk_direct_s = time(&mut |i| {
        let q = &inp.topks[i % inp.topks.len()];
        std::hint::black_box(mm.top_destinations(q.src, RelationTypeId(0), TOPK));
    });

    // ---- correctness ----
    let (served_mrr, scored, score_bad) = verify_scores(&mm, &inp, nominal);
    r.check(
        "served /score round-trips f32-exactly",
        score_bad == 0 && scored > 0,
        format!("{scored} answers, {score_bad} mismatched"),
    );
    let (topks, topk_bad) = verify_topk(&mm, &inp, nominal);
    r.check(
        "served /topk equals top_destinations",
        topk_bad == 0 && topks > 0,
        format!("{topks} answers, {topk_bad} mismatched"),
    );
    let floor = crate::train::random_mrr(CANDIDATES - 1);
    r.check(
        "served mrr is finite and above random",
        served_mrr.is_finite() && served_mrr > 1.5 * floor,
        format!("mrr {served_mrr:.4} vs random {floor:.4}"),
    );
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let late_p99 = Summary::at_most(&late, 99.0);
    if late_p99 > GENERATOR_LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator fell behind (p99 {late_p99:.2} ms late)"
        ));
    }

    // ---- end-to-end ----
    let score = Summary::of(&nominal.score_ms);
    let topk = Summary::of(&nominal.topk_ms);
    let max_rate = phases
        .iter()
        .take_while(|p| p.sustained())
        .last()
        .map_or(0, |p| p.rate);
    let attempted: usize = phases.iter().map(Phase::attempted).sum::<usize>() + warm_up.attempted();
    let failed: usize = phases.iter().map(|p| p.failed).sum::<usize>() + warm_up.failed;
    r.attempted = attempted as u64;
    r.failed = failed as u64;
    let part = |i: usize| median(&setup_times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let setup_s = part(0);
    r.set("setup_s", setup_s);
    r.set("mrr", served_mrr);
    r.set("op_p50_ms", score.p50);
    show("setup_s", setup_s, "s");
    show("max_rate_rps", f64::from(max_rate), "1/s");
    show(&format!("score_p50_ms (n={})", score.n), score.p50, "ms");
    show(
        &format!("score_{}_ms", score.tail_label()),
        score.tail,
        "ms",
    );
    show(&format!("topk_p50_ms (n={})", topk.n), topk.p50, "ms");
    show(&format!("topk_{}_ms", topk.tail_label()), topk.tail, "ms");
    show("mrr", served_mrr, "ratio");
    show("peak_rss_mb", peak_rss_mb, "MB");
    show(
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    for p in &phases {
        println!(
            "phase rate={:<5} sent={:<6} ok={:<6} failed={:<4} score_p99_ms={:.3} late_p99_ms={:.3} sustained={}",
            p.rate,
            p.attempted(),
            p.attempted() - p.failed,
            p.failed,
            Summary::at_most(&p.score_ms, 99.0),
            Summary::at_most(&p.late_ms, 99.0),
            p.sustained()
        );
    }

    // ---- per-layer ----
    r.set("checkpoint.save_s", part(1));
    r.set("checkpoint.bytes", mm.mapped_bytes() as f64);
    r.set("checkpoint.open_mmap_ms", part(2) * 1e3);
    r.set("topk.direct_ms", topk_direct_s * 1e3);
    r.set("topk.rows_per_s", f64::from(ENTITIES) / topk_direct_s);
    r.set("score.direct_us", score_direct_s * 1e6);
    r.set("serve.score_p50_ms", score.p50);
    r.set(
        "serve.score_p99_ms",
        Summary::at_most(&nominal.score_ms, 99.0),
    );
    r.set("serve.topk_p50_ms", topk.p50);
    r.set("serve.topk_tail_ms", topk.tail);
    r.set("serve.http_overhead_ms", score.p50 - score_direct_s * 1e3);
    r.set("serve.max_rate_rps", f64::from(max_rate));
    r.set("serve.generator_late_ms", late_p99);
    r.set("serve.requests_attempted", attempted as f64);
    r.set("serve.requests_ok", (attempted - failed) as f64);
    r.set("serve.requests_failed", failed as f64);
    for p in &phases {
        let name = |field: &str| format!("serve.rate{}.{field}", p.rate);
        r.set(&name("attempted"), p.attempted() as f64);
        r.set(&name("failed"), p.failed as f64);
        r.set(&name("score_p99_ms"), Summary::at_most(&p.score_ms, 99.0));
    }
    Ok(())
}
