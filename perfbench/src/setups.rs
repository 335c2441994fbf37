//! `setup_s` samples taken in a child process, between the measured
//! epochs or rounds.
//!
//! On a shared host the speed of a short memory-bound set-up jumps
//! between levels up to 1.5x apart for spells of seconds. Samples taken
//! in one block land on one level, so a run's median would flip between
//! levels; samples spread over the whole run average over its spells.
//! Throwaway set-ups in the measured process would sit beside the
//! measured trainer or server and raise its memory high-water mark, so
//! they run in a child process (this binary with `--setup-worker`) that
//! rebuilds the workload's inputs from the same seed. The child answers
//! each request line with one sample (see `stats::setup_sample`).

use crate::stats::setup_sample;
use crate::Args;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The measuring process's handle on its set-up worker.
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts a worker for `args`' workload and seed.
    ///
    /// # Errors
    ///
    /// Fails when the child cannot be started.
    pub fn spawn(args: &Args) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("set-up worker: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--setup-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up worker: {e}"))?;
        let stdin = child.stdin.take();
        let Some(stdout) = child.stdout.take() else {
            return Err("set-up worker: no stdout".into());
        };
        Ok(Worker {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// Takes one sample: the seconds of each part of a set-up the
    /// workload times, the whole set-up first.
    ///
    /// # Errors
    ///
    /// Fails when the worker failed or exited.
    pub fn sample(&mut self) -> Result<Vec<f64>, String> {
        let stdin = self.stdin.as_mut().ok_or("set-up worker closed")?;
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("set-up worker: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("set-up worker: {e}"))?;
        let parts: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse).collect();
        match parts {
            Ok(p) if !p.is_empty() => Ok(p),
            _ => Err(format!("set-up worker failed (answered {line:?})")),
        }
    }
}

impl Drop for Worker {
    /// Closes the worker's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The worker's side: answers every request line with one sample of
/// `repeats` back-to-back calls of `set_up`, until stdin closes.
///
/// # Errors
///
/// Fails when a set-up fails or stdio breaks.
pub fn serve(
    repeats: usize,
    mut set_up: impl FnMut() -> Result<Vec<f64>, String>,
) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let sample: Vec<String> = setup_sample(repeats, &mut set_up)?
            .iter()
            .map(f64::to_string)
            .collect();
        writeln!(out, "{}", sample.join(" "))
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
