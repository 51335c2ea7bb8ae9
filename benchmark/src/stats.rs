//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the
//! full sorted sample vector — never from a bucketed histogram, whose
//! bucket bounds would quantize the answer.

/// Samples that must lie strictly beyond a tail percentile before it
/// is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending `sorted` slice: the smallest
/// sample such that at least `q` of all samples are at or below it. The
/// result is always one of the samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether the `q` tail percentile of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= TAIL_MIN_BEYOND
}

/// Sort a sample vector ascending (total order; NaN never occurs in
/// timings but would sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples.to_vec());
        Summary {
            n: s.len(),
            q1: percentile(&s, 0.25),
            median: percentile(&s, 0.5),
            q3: percentile(&s, 0.75),
        }
    }
}

/// Latency percentiles of one population: the median, p90 and p95,
/// and the p99 when the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: Option<f64>,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples.to_vec());
        Some(Latency {
            n: s.len(),
            p50: percentile(&s, 0.5),
            p90: percentile(&s, 0.9),
            p95: percentile(&s, 0.95),
            p99: tail_supported(s.len(), 0.99).then(|| percentile(&s, 0.99)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.25), 25.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn percentiles_are_samples_not_bucket_bounds() {
        // A histogram with power-of-two buckets would answer 16.383 for
        // all three; the exact answer distinguishes them.
        let v = sorted(vec![9.1, 10.7, 12.2, 13.9, 15.3]);
        assert_eq!(percentile(&v, 0.5), 12.2);
        assert_eq!(percentile(&v, 0.8), 13.9);
        assert_eq!(percentile(&v, 0.95), 15.3);
    }

    #[test]
    fn small_and_odd_samples() {
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.51), 3.0);
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.99));
        assert_eq!(Latency::of(&vec![1.0; 999]).unwrap().p99, None);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let l = Latency::of(&v).unwrap();
        assert_eq!((l.n, l.p50, l.p99), (2000, 1000.0, Some(1980.0)));
    }
}
