//! Per-layer numbers read from the spans the program already records
//! while tracing is on: `bucket_train` (with its compute / sampling /
//! optimizer split), `checkpoint_write` and the client's `rpc` spans.

use crate::report::Report;
use crate::stats::median;
use pbg_telemetry::trace::names as span;
use pbg_telemetry::{FieldValue, Registry};

/// Span totals of the traced epochs or rounds.
#[derive(Debug, Default)]
pub struct Spans {
    /// `bucket_train` durations, seconds.
    pub bucket_s: Vec<f64>,
    /// Summed compute, sampling and optimizer nanoseconds.
    pub phase_ns: [u64; 3],
    /// `checkpoint_write` durations, seconds.
    pub checkpoint_s: Vec<f64>,
    /// `checkpoint_write` sizes, bytes.
    pub checkpoint_bytes: Vec<f64>,
    /// Tag and duration (seconds) of every client RPC.
    pub rpcs: Vec<(String, f64)>,
}

impl Spans {
    /// Drains `registry`'s buffered events into the totals.
    pub fn take(&mut self, registry: &Registry) {
        for ev in registry.drain() {
            let secs = ev.dur_ns as f64 * 1e-9;
            if ev.name == span::BUCKET_TRAIN {
                self.bucket_s.push(secs);
                for (slot, k) in ["compute_ns", "sampling_ns", "optimizer_ns"]
                    .iter()
                    .enumerate()
                {
                    self.phase_ns[slot] += ev.field_u64(k).unwrap_or(0);
                }
            } else if ev.name == span::CHECKPOINT_WRITE {
                self.checkpoint_s.push(secs);
                self.checkpoint_bytes
                    .push(ev.field_u64("bytes").unwrap_or(0) as f64);
            } else if ev.name == span::RPC {
                let tag = ev.fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"tag", FieldValue::Str(s)) => Some(s.clone()),
                    _ => None,
                });
                self.rpcs.push((tag.unwrap_or_default(), secs));
            }
        }
    }

    /// Writes the `trainer.*` bucket and phase metrics (phase CPU per
    /// epoch over `epochs` traced epochs) and the phase reconciliation
    /// against `threads × Σ bucket wall`; returns the phase CPU seconds.
    pub fn report_trainer(&self, r: &mut Report, epochs: f64, threads: usize) -> f64 {
        if self.bucket_s.is_empty() {
            return 0.0;
        }
        r.set("trainer.bucket_s.p50", median(&self.bucket_s));
        r.set(
            "trainer.bucket_s.max",
            self.bucket_s.iter().copied().fold(0.0, f64::max),
        );
        let [compute, sampling, optimizer] = self.phase_ns.map(|ns| ns as f64 * 1e-9);
        r.set("trainer.compute_cpu_s", compute / epochs);
        r.set("trainer.sampling_cpu_s", sampling / epochs);
        r.set("trainer.optimizer_cpu_s", optimizer / epochs);
        let phase_cpu = compute + sampling + optimizer;
        let ratio = phase_cpu / (threads as f64 * self.bucket_s.iter().sum::<f64>());
        r.set("trace.phase_cpu_ratio", ratio);
        reconcile(ratio);
        phase_cpu
    }
}

/// Prints how far the traced phase CPU time (compute + sampling +
/// optimizer) falls from `threads × Σ bucket wall`. Outside 10% the gap
/// is time inside bucket spans that no phase covers (partition loads,
/// thread start-up, threads idling at a bucket's end); it is reported,
/// not failed, because it is a property of the workload.
fn reconcile(ratio: f64) {
    let verdict = if (ratio - 1.0).abs() <= 0.1 {
        "within 10%"
    } else {
        "GAP: outside 10%"
    };
    println!("reconcile phase_cpu / (threads x bucket wall) = {ratio:.3} ({verdict})");
}
