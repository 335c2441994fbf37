//! Open-loop load generation: requests fall due on a fixed schedule
//! whatever the server does, and each is timed from when it was due, so
//! a stall also charges the wait it imposes on the requests behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due offsets of `rate × seconds` requests spaced evenly at `rate`/s.
pub fn schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate * seconds).round() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// How one scheduled request went.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Completion time minus due time.
    pub latency: Duration,
    /// How late the generator itself sent the request: send time minus
    /// the later of its due time and the moment a connection was free.
    pub late: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// Sends request `i` at `due[i]` after the start over at most
/// `connections` concurrent senders; `send(i)` performs the request and
/// reports success. Outcomes come back in schedule order.
pub fn run<F>(due: &[Duration], connections: usize, send: F) -> Vec<Outcome>
where
    F: Fn(usize) -> bool + Sync,
{
    // a short lead lets every sender reach its first sleep before the
    // first request falls due
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = due.get(i) else { break };
                        let due_at = start + offset;
                        let free_at = Instant::now();
                        if free_at < due_at {
                            std::thread::sleep(due_at - free_at);
                        }
                        let sent = Instant::now();
                        let ok = send(i);
                        let done = Instant::now();
                        mine.push((
                            i,
                            Outcome {
                                latency: done - due_at,
                                late: sent - due_at.max(free_at),
                                ok,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("sender thread"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o).collect()
}

/// Whether latency grew over a phase: the median of its last quarter
/// exceeds twice the median of its first quarter plus `slack`.
pub fn backlog_grew(latencies_ms: &[f64], slack_ms: f64) -> bool {
    let q = latencies_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = crate::stats::median(&latencies_ms[..q]);
    let last = crate::stats::median(&latencies_ms[latencies_ms.len() - q..]);
    last > 2.0 * first + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced() {
        let due = schedule(200.0, 0.5);
        assert_eq!(due.len(), 100);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[10], Duration::from_millis(50));
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // one connection, a 20 ms service time, a request due every
        // 5 ms: requests queue behind each other, so request i completes
        // about 20(i+1) ms after the start although it was due at 5i ms
        let due = schedule(200.0, 0.05);
        let out = run(&due, 1, |_| {
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        assert_eq!(out.len(), 10);
        for (i, o) in out.iter().enumerate() {
            let queued_ms = 20.0 * (i + 1) as f64 - 5.0 * i as f64;
            let got = o.latency.as_secs_f64() * 1e3;
            assert!(
                got >= queued_ms - 0.5,
                "request {i}: {got} ms < {queued_ms} ms"
            );
            // the wait was the server's, not the generator's
            assert!(
                o.late < Duration::from_millis(5),
                "request {i} late {:?}",
                o.late
            );
        }
        let lat: Vec<f64> = out.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
        assert!(backlog_grew(&lat, 1.0));
    }

    #[test]
    fn an_idle_server_sees_only_service_time() {
        let due = schedule(500.0, 0.05);
        let out = run(&due, 2, |i| i % 7 != 3);
        assert_eq!(out.len(), 25);
        // sleep overshoot only: far below the queueing of the test above
        assert!(out.iter().all(|o| o.latency < Duration::from_millis(50)));
        assert_eq!(out.iter().filter(|o| !o.ok).count(), 4);
        let lat: Vec<f64> = out.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
        assert!(!backlog_grew(&lat, 1.0));
    }
}
