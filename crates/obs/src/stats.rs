//! Exact-sample summary statistics.  Moved here from `crates/bench` so the
//! repo has one percentile implementation: the offline harness keeps full
//! sample vectors and uses these exact helpers; the runtime uses the
//! bucketed [`crate::hist::Histogram`], whose quantiles are validated
//! against these in the histogram tests.

/// Percentile of a sorted slice (nearest-rank).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
}

/// Summarizes raw samples.
pub fn summarize(samples: &mut [u64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_unstable();
    Summary {
        n: samples.len(),
        mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        p50: percentile(samples, 50.0),
        p99: percentile(samples, 99.0),
        min: samples[0],
        max: samples[samples.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 1.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_fields() {
        let mut s = vec![5, 1, 3, 2, 4];
        let sum = summarize(&mut s);
        assert_eq!(sum.n, 5);
        assert_eq!(sum.min, 1);
        assert_eq!(sum.max, 5);
        assert_eq!(sum.p50, 3);
        assert!((sum.mean - 3.0).abs() < 1e-9);
        let sum = summarize(&mut []);
        assert_eq!(sum.n, 0);
    }
}
