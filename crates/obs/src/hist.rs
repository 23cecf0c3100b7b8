//! Log-bucketed latency histogram in the HdrHistogram style.
//!
//! Values (nanoseconds, bytes, …) are bucketed by magnitude: 16 linear
//! sub-buckets per power of two, so the bucket containing `v` is at most
//! `v/16` wide — ≤ 6.25 % relative error on any reported quantile, over the
//! full `u64` range, with a fixed 976-bucket table.  Recording is two
//! `Relaxed` read-modify-writes (bucket and sum) and two loads that let
//! `min` / `max` be written only when the value lies beyond them; no
//! allocation.  Buckets are plain counts, so snapshots from different
//! shards, threads, or processes merge by element-wise addition
//! ([`HistSnapshot::merge`]) and the merge is *exact* — merging per-shard
//! snapshots yields bit-identical results to recording everything into one
//! histogram.
//!
//! [`Histogram::record`] is exact: every value lands.  [`Histogram::timer`]
//! is a sample: it times a pseudo-random 1 in [`TIMER_ONE_IN`] of its calls
//! on each thread, so a timer histogram's buckets, sum and count cover the
//! sampled calls only.  An unsampled call reads no clock and writes nothing
//! shared; exact call counts belong in the counters beside the timed site.

#[cfg(not(feature = "obs-off"))]
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A [`Histogram::timer`] times one call in this many, drawn at random per
/// thread.  A constant: the sample is part of every timer series' meaning.
pub const TIMER_ONE_IN: u64 = 16;

#[cfg(not(feature = "obs-off"))]
thread_local! {
    /// This thread's xorshift64 state; 0 until its first draw seeds it.
    static DRAW: Cell<u64> = const { Cell::new(0) };
}

/// Whether this thread times the current call.  A random draw rather than
/// a countdown: a countdown aliases with periodic call patterns (two timers
/// that alternate would see every sample land on the same one of them).
#[cfg(not(feature = "obs-off"))]
#[inline]
fn sampled() -> bool {
    DRAW.with(|s| {
        let mut x = s.get();
        if x == 0 {
            x = seed();
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x < u64::MAX / TIMER_ONE_IN
    })
}

/// A distinct, non-zero xorshift seed per thread: splitmix64 of the order
/// in which threads first draw.
#[cfg(not(feature = "obs-off"))]
#[cold]
fn seed() -> u64 {
    static THREADS: AtomicU64 = AtomicU64::new(0);
    let mut z = (THREADS.fetch_add(1, Relaxed) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// log2 of the number of linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two (16 → ≤ 6.25 % bucket width).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering all of `u64`: 16 exact buckets for `0..16`, then
/// 16 per magnitude for magnitudes 4..=63.
pub const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Bucket index for a value.  Exact below 16; above, the top `SUB_BITS + 1`
/// significant bits select the bucket.
#[inline]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize) * SUB + sub
}

/// Inclusive upper bound of a bucket — the value reported for quantiles
/// that land in it, so reported quantiles never under-state the truth.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let mag = (idx / SUB) as u32;
    let sub = (idx % SUB) as u64;
    let shift = mag - 1;
    ((SUB as u64 + sub) << shift) + ((1u64 << shift) - 1)
}

struct HistInner {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Concurrent histogram handle; clones share storage.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// Creates a detached histogram: not registered, not exported — for
    /// ad-hoc aggregation and property tests.  Registered histograms come
    /// from [`crate::registry::histogram`].
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value.  All-`Relaxed` atomics, no allocation.  `min`
    /// only falls and `max` only rises, so a load that shows `v` within
    /// them proves the write would change nothing.
    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        inner.sum.fetch_add(v, Relaxed);
        if v < inner.min.load(Relaxed) {
            inner.min.fetch_min(v, Relaxed);
        }
        if v > inner.max.load(Relaxed) {
            inner.max.fetch_max(v, Relaxed);
        }
    }

    /// No-op: hooks are compiled out.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn record(&self, _v: u64) {}

    /// Starts a drop-guard that, on a sampled 1 in [`TIMER_ONE_IN`] calls,
    /// records elapsed nanoseconds into this histogram when it goes out of
    /// scope.  The other calls read no clock and record nothing.
    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn timer(&self) -> Timer<'_> {
        Timer { started: sampled().then(|| (self, std::time::Instant::now())) }
    }

    /// No-op guard: neither the clock read nor the record happens.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn timer(&self) -> Timer<'_> {
        Timer(std::marker::PhantomData)
    }

    /// Point-in-time copy of the buckets.  Under concurrent writers the cut
    /// is not atomic across buckets, but every recorded value is counted at
    /// most once per snapshot and never twice.
    pub fn snapshot(&self) -> HistSnapshot {
        let inner = &*self.inner;
        let buckets: Vec<u64> = inner.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count: u64 = buckets.iter().sum();
        HistSnapshot {
            sum: inner.sum.load(Relaxed),
            min: if count == 0 { 0 } else { inner.min.load(Relaxed) },
            max: inner.max.load(Relaxed),
            count,
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Drop-guard returned by [`Histogram::timer`].
#[cfg(not(feature = "obs-off"))]
#[must_use = "the timer records on drop; binding it to `_` drops it immediately"]
pub struct Timer<'a> {
    /// The histogram and the start time, on a sampled call only.
    started: Option<(&'a Histogram, std::time::Instant)>,
}

#[cfg(not(feature = "obs-off"))]
impl Drop for Timer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.started {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Zero-sized stand-in without a `Drop` impl: the guard costs nothing.
#[cfg(feature = "obs-off")]
#[must_use = "the timer records on drop; binding it to `_` drops it immediately"]
pub struct Timer<'a>(std::marker::PhantomData<&'a ()>);

/// Mergeable point-in-time histogram state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`bucket_bound`] for bucket upper bounds).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Element-wise merge.  Exact: merging shard snapshots is
    /// indistinguishable from having recorded every value into one
    /// histogram.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Nearest-rank percentile at bucket resolution: the reported value is
    /// the upper bound of the bucket holding the rank-th smallest sample
    /// (clamped to the observed max), so it is ≥ the exact percentile and
    /// over-states it by at most 6.25 %.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_bound(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for property-style sweeps without
    /// external dev-dependencies.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    fn interesting_values() -> Vec<u64> {
        let mut vals: Vec<u64> = (0..4096).collect();
        for p in 4..64 {
            let b = 1u64 << p;
            vals.extend([b - 1, b, b + 1]);
        }
        vals.push(u64::MAX);
        let mut rng = Rng(0x5EED);
        for _ in 0..4096 {
            let v = rng.next();
            // Spread across magnitudes, not just the top of the range.
            vals.push(v >> (rng.next() % 64));
        }
        vals
    }

    #[test]
    fn bucket_invariants() {
        for &v in &interesting_values() {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let bound = bucket_bound(idx);
            assert!(bound >= v, "bound {bound} < value {v}");
            if v >= SUB as u64 {
                assert!(bound - v <= v / SUB as u64, "error too large for {v}: bound {bound}");
            } else {
                assert_eq!(bound, v, "exact below {SUB}");
            }
            if v > 0 {
                assert!(bucket_index(v - 1) <= idx, "index not monotone at {v}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_of_shards_equals_whole() {
        let mut rng = Rng(42);
        let whole = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for i in 0..20_000u64 {
            let v = rng.next() >> (rng.next() % 64);
            whole.record(v);
            shards[(i % 4) as usize].record(v);
        }
        let mut merged = HistSnapshot::default();
        for s in &shards {
            merged.merge(&s.snapshot());
        }
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn percentile_tracks_exact_within_bucket_error() {
        let mut rng = Rng(7);
        let hist = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = rng.next() >> (rng.next() % 48);
            hist.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = crate::stats::percentile(&samples, p);
            let approx = snap.percentile(p);
            assert!(approx >= exact, "p{p}: approx {approx} < exact {exact}");
            assert!(
                approx - exact <= exact / 16 + 1,
                "p{p}: approx {approx} over-states exact {exact} by more than 6.25 %"
            );
        }
        assert_eq!(snap.percentile(100.0), *samples.last().unwrap());
        assert_eq!(snap.min, samples[0]);
        assert_eq!(snap.count, 10_000);
    }

    #[test]
    fn empty_and_single() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0.0);
        h.record(7);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 7, 7, 7));
        assert_eq!(s.percentile(99.0), 7);
    }

    #[test]
    fn merge_handles_empty_sides() {
        let h = Histogram::new();
        h.record(100);
        let mut empty = HistSnapshot::default();
        empty.merge(&h.snapshot());
        assert_eq!(empty, h.snapshot());
        let mut full = h.snapshot();
        full.merge(&HistSnapshot::default());
        assert_eq!(full, h.snapshot());
    }

    /// 16 384 calls at 1 in 16 expect 1 024 samples, σ ≈ 31: the band is
    /// ±8σ wide, so only a broken sampler leaves it.
    const CALLS: u64 = 16_384;
    const BAND: std::ops::RangeInclusive<u64> = 768..=1_280;

    #[test]
    fn timer_records() {
        let h = Histogram::new();
        for _ in 0..CALLS {
            let _t = h.timer();
            std::hint::black_box(0);
        }
        let n = h.snapshot().count;
        assert!(BAND.contains(&n), "{n} of {CALLS} calls timed");
    }

    /// Two sites timed in turn, as a controller times dispatch and then
    /// peek on every message: both are sampled.  A per-thread countdown
    /// would land every sample on the same one of them.
    #[test]
    fn alternating_timers_are_both_sampled() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for _ in 0..CALLS {
            drop(a.timer());
            drop(b.timer());
        }
        for (name, h) in [("A", &a), ("B", &b)] {
            let n = h.snapshot().count;
            assert!(BAND.contains(&n), "{name}: {n} of {CALLS} calls timed");
        }
    }

    /// Concurrent writers lose nothing: the skipped `min` / `max` writes
    /// are the ones that could not have changed them.
    #[test]
    fn concurrent_records_equal_a_single_threaded_reference() {
        let values: Vec<Vec<u64>> = (0..4)
            .map(|t| {
                let mut rng = Rng(0xC0FFEE + t);
                (0..100_000).map(|_| rng.next() >> (rng.next() % 64)).collect()
            })
            .collect();
        let shared = Histogram::new();
        let start = std::sync::Barrier::new(values.len());
        std::thread::scope(|s| {
            for vals in &values {
                let (h, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    vals.iter().for_each(|&v| h.record(v));
                });
            }
        });
        let reference = Histogram::new();
        values.iter().flatten().for_each(|&v| reference.record(v));
        let (got, want) = (shared.snapshot(), reference.snapshot());
        assert_eq!(got.count, 400_000);
        assert_eq!(got, want);
    }
}
