//! Order statistics for timings: the median, and the highest standard
//! percentile that still has at least ten samples beyond it.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// slack keeps `99.9 × 10000 / 100` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One `setup_s` sample: the mean of each part `set_up` times over
/// `repeats` back-to-back calls.
///
/// A sample spans about 0.25 s of set-ups, so that a burst of other work
/// on a shared host moves it by its share of that time rather than
/// deciding it.
///
/// # Errors
///
/// Returns the first error of `set_up`.
pub fn setup_sample(
    repeats: usize,
    set_up: &mut impl FnMut() -> Result<Vec<f64>, String>,
) -> Result<Vec<f64>, String> {
    let mut sum: Vec<f64> = Vec::new();
    for _ in 0..repeats {
        let parts = set_up()?;
        sum.resize(parts.len(), 0.0);
        for (s, p) in sum.iter_mut().zip(parts) {
            *s += p;
        }
    }
    Ok(sum.iter().map(|s| s / repeats.max(1) as f64).collect())
}

/// A timing distribution: median plus its reportable tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile used (`None` when no candidate percentile
    /// leaves ten samples beyond it, in which case `tail` is the maximum).
    pub tail_pct: Option<f64>,
    /// Value at the tail percentile (or the maximum).
    pub tail: f64,
}

impl Summary {
    /// Summarizes unsorted samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = TAILS
            .into_iter()
            .find(|&p| beyond(v.len(), p) >= MIN_BEYOND);
        Summary {
            n: v.len(),
            p50: median(&v),
            tail_pct,
            tail: tail_pct.map_or(v[v.len() - 1], |p| percentile(&v, p)),
        }
    }

    /// The tail's label: `p99`, `p90`, ... or `max`.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) if p.fract() == 0.0 => format!("p{p:.0}"),
            Some(p) => format!("p{p}"),
            None => "max".into(),
        }
    }

    /// Value at percentile `p` if at least [`MIN_BEYOND`] samples lie
    /// beyond it, else the reportable tail.
    pub fn at_most(values: &[f64], p: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if beyond(v.len(), p) >= MIN_BEYOND {
            percentile(&v, p)
        } else {
            Summary::of(values).tail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_pct, s.tail), (1000, Some(99.0), 990.0));
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9, so the tail drops to p95
        let s = Summary::of(&v[..999]);
        assert_eq!(s.tail_pct, Some(95.0));
        assert!(beyond(999, 95.0) >= MIN_BEYOND);
        // 100 samples: p90 leaves 10
        let s = Summary::of(&v[..100]);
        assert_eq!((s.tail_pct, s.tail), (Some(90.0), 90.0));
        // 10000 samples: p99.9 leaves 10
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&big).tail_pct, Some(99.9));
        assert_eq!(Summary::of(&big).tail_label(), "p99.9");
    }

    #[test]
    fn setup_samples_average_each_part() {
        let mut calls = 0.0;
        let sample = setup_sample(4, &mut || {
            calls += 1.0;
            Ok(vec![calls, 2.0 * calls])
        })
        .unwrap();
        assert_eq!(sample, [2.5, 5.0]);
        assert!(setup_sample(3, &mut || Err("broken".into())).is_err());
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 3.0, None, 5.0));
        assert_eq!(s.tail_label(), "max");
        assert_eq!(Summary::at_most(&[5.0, 1.0, 3.0], 99.0), 5.0);
    }

    #[test]
    fn at_most_prefers_the_requested_percentile() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(Summary::at_most(&v, 99.0), 1980.0);
        // 200 samples leave only 2 beyond p99: fall back to the tail
        assert_eq!(Summary::at_most(&v[..200], 99.0), 190.0);
    }
}
