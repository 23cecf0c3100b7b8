//! Medians and minima over samples; percentiles are `flexric_obs::percentile`.

/// Median; sorts `v`.  0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of repeated timings of the same work; 0 for none.  On a
/// shared host what disturbs a timing only ever adds to it, so the fastest
/// repeat is the steadiest estimate of the work itself: on one seed, six
/// 15-s runs of `ctrl-storm` put `wall_s` within 9 % of each other by the
/// fastest repeat, 40 % by the first quartile and 45 % by the median.
pub fn fastest(v: impl Iterator<Item = f64>) -> f64 {
    v.reduce(f64::min).unwrap_or(0.0)
}

/// The highest of p90 / p95 / p99 / p99.9 with at least ten samples beyond
/// it, as `(p, value)`; `None` under 100 samples.
pub fn high_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| sorted.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, flexric_obs::percentile(sorted, p)))
}
