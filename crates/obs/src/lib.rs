//! `flexric-obs` — always-on, near-zero-cost observability for the whole
//! stack.
//!
//! The paper's evaluation is entirely about latency and CPU overhead of the
//! E2 path (Figs. 6, 8, 9); this crate makes those quantities readable from
//! a *running* process instead of only from the offline harness in
//! `crates/bench`.  Three pieces:
//!
//! - a global, lock-free [`registry`]: counters are sharded across
//!   cache-line-padded atomics (one shard per thread, round-robin assigned)
//!   and updated with `Relaxed` ordering, so the hot path is a single
//!   uncontended `fetch_add`; registration (the cold path) interns handles
//!   by `(name, labels)` under a mutex, so the same metric registered from
//!   two call sites shares storage;
//! - log-bucketed [`hist::Histogram`]s in the HdrHistogram style — 16
//!   linear sub-buckets per power of two (≤ 6.25 % relative error),
//!   bucketwise-additive snapshots so per-shard or per-process histograms
//!   merge exactly;
//! - scope timing: [`Histogram::timer`], a drop-guard that times a random
//!   1 in [`hist::TIMER_ONE_IN`] calls per thread (a timer histogram is a
//!   sample of its calls, and an unsampled call reads no clock), and
//!   [`Stopwatch`] for the sites that need every call's elapsed time.
//!
//! Everything renders to Prometheus text exposition format via
//! [`prom::render_text`]; metric names follow `flexric_<layer>_<name>`.
//!
//! The `obs-off` cargo feature compiles out all hot-path mutation and clock
//! reads while leaving registration and rendering intact, so downstream
//! crates carry no `cfg` — the A/B bench in `crates/bench` measures the
//! delta.

pub mod hist;
pub mod prom;
pub mod registry;
pub mod span;
pub mod stats;

pub use hist::{HistSnapshot, Histogram, Timer};
pub use registry::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, snapshot, Counter, Gauge,
    SnapMetric, SnapValue, Snapshot,
};
pub use span::Stopwatch;
pub use stats::{percentile, summarize, Summary};

/// The `obs-off` twins: every hook is a no-op, every series stays
/// registered at zero.
#[cfg(all(test, feature = "obs-off"))]
mod obs_off_tests {
    #[test]
    fn hooks_record_nothing_and_series_stay_registered() {
        let h = crate::histogram("obs_off_test_ns", "");
        h.record(7);
        for _ in 0..64 {
            drop(h.timer());
        }
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(std::mem::size_of::<crate::Timer>(), 0, "the guard is zero-sized");
        let c = crate::counter("obs_off_test_total", "");
        c.add(3);
        crate::gauge("obs_off_test_gauge", "").set(5);
        assert_eq!(crate::Stopwatch::start().elapsed_ns(), 0);
        let snap = crate::snapshot();
        assert_eq!(snap.counter_value("obs_off_test_total"), Some(0));
        let text = snap.render_prom();
        assert!(text.contains("obs_off_test_ns_count 0"), "{text}");
        assert!(text.contains("obs_off_test_gauge 0"), "{text}");
    }
}
