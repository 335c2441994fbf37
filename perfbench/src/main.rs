//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-inmem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One workload per invocation (`train-inmem`, `train-disk`,
//! `serve-mixed`, `cluster-loopback`). Inputs are generated from
//! `--seed`; `--seconds` sizes the measured work. With `--trace 0` the
//! last stdout line is a JSON result holding every end-to-end metric,
//! with `--trace 1` every per-layer metric. Lines before it give the
//! run's context, its checks, and the workload-specific metrics by name
//! and unit. A failed check makes the result `"correct": false` and the
//! exit code 1. Scratch files live under `.perfbench_work/` in the
//! working directory and are removed on exit.

mod cluster;
mod openloop;
mod replay;
mod report;
mod serve;
mod setups;
mod spans;
mod stats;
mod sys;
mod train;

use report::Report;
use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Run as the set-up worker of a measuring process (see `setups`).
    pub setup_worker: bool,
}

const WORKLOADS: [&str; 4] = [
    "train-inmem",
    "train-disk",
    "serve-mixed",
    "cluster-loopback",
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_worker: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-worker" => args.setup_worker = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args, work: &std::path::Path, r: &mut Report) -> Result<(), String> {
    if args.setup_worker {
        return match args.workload.as_str() {
            "train-inmem" => train::setup_worker(&train::inmem(args), work),
            "train-disk" => train::setup_worker(&train::disk(args), work),
            "serve-mixed" => serve::setup_worker(args, work),
            other => Err(format!("{other} has no set-up worker")),
        };
    }
    match args.workload.as_str() {
        "train-inmem" => train::run(&train::inmem(args), args, work, r),
        "train-disk" => train::run(&train::disk(args), args, work, r),
        "serve-mixed" => serve::run(args, work, r),
        "cluster-loopback" => cluster::run(args, r),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // the metric tables are parsed before any work, so a malformed
    // BENCHMARK.json fails the run at once
    report::tables();
    if !args.setup_worker {
        let context = sys::context(&args.workload, args.seed, args.seconds, args.trace);
        println!(
            "context {}",
            serde_json::to_string(&context).unwrap_or_default()
        );
    }
    let work =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut report = Report::new();
    let outcome = run(&args, &work, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    // the parent is shared by concurrent runs: remove it only if empty
    let _ = std::fs::remove_dir(".perfbench_work");
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    if args.setup_worker {
        return;
    }
    let result = report.result(args.trace);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if !report.correct() {
        std::process::exit(1);
    }
}
