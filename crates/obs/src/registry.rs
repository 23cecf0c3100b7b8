//! Global lock-free metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! shared storage.  Registration interns by `(name, rendered labels)` under
//! a mutex — strictly cold path; updating a metric never takes a lock.
//! Counter increments go to a per-thread shard (cache-line padded, assigned
//! round-robin at first touch) so concurrent writers do not bounce a cache
//! line; reads sum the shards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{HistSnapshot, Histogram};

/// Number of counter shards.  A small power of two: enough that the handful
/// of runtime threads (agent/server loops, writer tasks, listener tasks)
/// land on distinct cache lines, small enough that summing on scrape is
/// trivial.
pub(crate) const NUM_SHARDS: usize = 16;

/// One cache line per shard so concurrent `fetch_add`s from different
/// threads never contend on the same line.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct Shard(pub(crate) AtomicU64);

#[cfg_attr(feature = "obs-off", allow(dead_code))]
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

#[cfg(not(feature = "obs-off"))]
thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % NUM_SHARDS;
}

#[cfg(not(feature = "obs-off"))]
#[inline]
pub(crate) fn shard_idx() -> usize {
    MY_SHARD.with(|s| *s)
}

/// Monotonically increasing counter, sharded per thread.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[Shard; NUM_SHARDS]>,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter { shards: Arc::new(std::array::from_fn(|_| Shard::default())) }
    }

    /// Adds `v` to this thread's shard (`Relaxed`; a single uncontended
    /// `fetch_add` on the hot path).
    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[shard_idx()].0.fetch_add(v, Relaxed);
    }

    /// No-op: hooks are compiled out.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn add(&self, _v: u64) {}

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across shards.  Not a consistent point-in-time cut under
    /// concurrent writers, but each increment is observed at most once and
    /// never lost — fine for monitoring.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

/// Instantaneous signed value (set/add/sub), a single atomic.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge { cell: Arc::new(AtomicI64::new(0)) }
    }

    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Relaxed);
    }

    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn set(&self, _v: i64) {}

    #[cfg(not(feature = "obs-off"))]
    #[inline]
    pub fn add(&self, v: i64) {
        self.cell.fetch_add(v, Relaxed);
    }

    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn add(&self, _v: i64) {}

    /// Decrements by `v`.
    #[inline]
    pub fn sub(&self, v: i64) {
        self.add(-v);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// Key is `(metric name, rendered label pairs)`; `BTreeMap` so snapshots and
/// the Prometheus rendering come out sorted, with all label variants of a
/// name adjacent (one `# TYPE` line per name).
struct Registry {
    entries: Mutex<BTreeMap<(String, String), Entry>>,
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry { entries: Mutex::new(BTreeMap::new()) })
}

/// Renders label pairs to the canonical `k="v",k2="v2"` form used both as
/// part of the intern key and verbatim inside `{…}` in the exposition.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

fn register(
    name: &str,
    labels: &[(&str, &str)],
    help: &str,
    make: impl FnOnce() -> Metric,
) -> Metric {
    let key = (name.to_string(), render_labels(labels));
    let mut entries = global().entries.lock().unwrap_or_else(|e| e.into_inner());
    let entry =
        entries.entry(key).or_insert_with(|| Entry { help: help.to_string(), metric: make() });
    if entry.help.is_empty() && !help.is_empty() {
        entry.help = help.to_string();
    }
    match &entry.metric {
        Metric::Counter(c) => Metric::Counter(c.clone()),
        Metric::Gauge(g) => Metric::Gauge(g.clone()),
        Metric::Histogram(h) => Metric::Histogram(h.clone()),
    }
}

/// Registers (or looks up) a counter.  Re-registering the same
/// `(name, labels)` returns a handle to the same storage.
///
/// Panics if the name is already registered as a different metric kind —
/// that is a programming error, not a runtime condition.
pub fn counter(name: &str, help: &str) -> Counter {
    counter_with(name, &[], help)
}

/// [`counter`] with label pairs (e.g. `&[("codec", "ASN")]`).
pub fn counter_with(name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
    match register(name, labels, help, || Metric::Counter(Counter::new())) {
        Metric::Counter(c) => c,
        m => panic!("obs: {name} already registered as {}", m.kind()),
    }
}

/// Registers (or looks up) a gauge.
pub fn gauge(name: &str, help: &str) -> Gauge {
    gauge_with(name, &[], help)
}

/// [`gauge`] with label pairs.
pub fn gauge_with(name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
    match register(name, labels, help, || Metric::Gauge(Gauge::new())) {
        Metric::Gauge(g) => g,
        m => panic!("obs: {name} already registered as {}", m.kind()),
    }
}

/// Registers (or looks up) a histogram.
pub fn histogram(name: &str, help: &str) -> Histogram {
    histogram_with(name, &[], help)
}

/// [`histogram`] with label pairs.
pub fn histogram_with(name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
    match register(name, labels, help, || Metric::Histogram(Histogram::new())) {
        Metric::Histogram(h) => h,
        m => panic!("obs: {name} already registered as {}", m.kind()),
    }
}

/// Point-in-time value of one metric in a [`Snapshot`].
#[derive(Clone, Debug)]
pub enum SnapValue {
    Counter(u64),
    Gauge(i64),
    Hist(HistSnapshot),
}

/// One metric in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct SnapMetric {
    /// Metric name (`flexric_<layer>_<name>`).
    pub name: String,
    /// Rendered label pairs (`k="v",…`), empty when unlabeled.
    pub labels: String,
    /// Help text from registration.
    pub help: String,
    /// The value.
    pub value: SnapValue,
}

/// A point-in-time copy of every registered metric, sorted by
/// `(name, labels)`.  This is the aggregation boundary: the exporter and
/// tests consume snapshots rather than poking live atomics.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All metrics, name-sorted.
    pub metrics: Vec<SnapMetric>,
}

impl Snapshot {
    /// Renders to Prometheus text exposition format.
    pub fn render_prom(&self) -> String {
        crate::prom::render(self)
    }

    /// Looks up a counter value by name (unlabeled), mostly for tests.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name && m.labels.is_empty()).and_then(|m| {
            match m.value {
                SnapValue::Counter(v) => Some(v),
                _ => None,
            }
        })
    }
}

/// Takes a snapshot of the whole registry.
pub fn snapshot() -> Snapshot {
    let entries = global().entries.lock().unwrap_or_else(|e| e.into_inner());
    let metrics = entries
        .iter()
        .map(|((name, labels), entry)| SnapMetric {
            name: name.clone(),
            labels: labels.clone(),
            help: entry.help.clone(),
            value: match &entry.metric {
                Metric::Counter(c) => SnapValue::Counter(c.value()),
                Metric::Gauge(g) => SnapValue::Gauge(g.value()),
                Metric::Histogram(h) => SnapValue::Hist(h.snapshot()),
            },
        })
        .collect();
    Snapshot { metrics }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn counter_interns_by_name_and_labels() {
        let a = counter("obs_test_intern_total", "help");
        let b = counter("obs_test_intern_total", "");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(b.value(), 4);
        let labeled = counter_with("obs_test_intern_total", &[("k", "v")], "");
        labeled.inc();
        assert_eq!(labeled.value(), 1, "distinct labels are distinct storage");
        assert_eq!(a.value(), 4);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = counter("obs_test_threads_total", "");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = gauge("obs_test_gauge", "");
        g.set(5);
        g.add(3);
        g.sub(2);
        assert_eq!(g.value(), 6);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        let c = counter("obs_test_snap_total", "a counter");
        c.add(7);
        let snap = snapshot();
        assert_eq!(snap.counter_value("obs_test_snap_total"), Some(7));
        let m = snap.metrics.iter().find(|m| m.name == "obs_test_snap_total").unwrap();
        assert_eq!(m.help, "a counter");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _ = counter("obs_test_kind", "");
        let _ = gauge("obs_test_kind", "");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(render_labels(&[("k", "a\"b\\c")]), "k=\"a\\\"b\\\\c\"");
        assert_eq!(render_labels(&[("a", "1"), ("b", "2")]), "a=\"1\",b=\"2\"");
    }
}
