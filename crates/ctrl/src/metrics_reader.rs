//! A controller iApp that periodically aggregates the process-wide obs
//! registry into a shared [`Snapshot`] handle.
//!
//! The registry itself is lock-free on the write path; reading it walks
//! every shard of every counter and sums every histogram bucket, which is
//! cheap but not free.  Rather than have every consumer (REST handlers,
//! log reporters, tests) rescan the registry on demand, this iApp scans
//! once per period on the controller's own tick and publishes the result
//! behind a mutex — the same "decode once, read many" shape as the
//! monitoring iApp's statistics store.

use std::sync::{Arc, Mutex};

use flexric::server::{IApp, ServerApi};
use flexric_obs::Snapshot;

/// Shared handle to the most recent metrics snapshot.
pub type SnapshotHandle = Arc<Mutex<Snapshot>>;

/// Configuration of the metrics-reader iApp.
#[derive(Debug, Clone, Copy)]
pub struct MetricsReaderConfig {
    /// How often the registry is rescanned (controller tick granularity).
    pub period_ms: u64,
}

impl Default for MetricsReaderConfig {
    fn default() -> Self {
        MetricsReaderConfig { period_ms: 1000 }
    }
}

/// The metrics-reader iApp.
pub struct MetricsReader {
    cfg: MetricsReaderConfig,
    snap: SnapshotHandle,
    last_scan_ms: Option<u64>,
}

impl MetricsReader {
    /// Creates the iApp; the returned handle always holds the latest
    /// published snapshot (empty until the first tick).
    pub fn new(cfg: MetricsReaderConfig) -> (Self, SnapshotHandle) {
        let snap: SnapshotHandle = Arc::new(Mutex::new(Snapshot::default()));
        (MetricsReader { cfg, snap: snap.clone(), last_scan_ms: None }, snap)
    }

    fn rescan(&mut self, now_ms: u64) {
        *self.snap.lock().expect("lock poisoned") = flexric_obs::snapshot();
        self.last_scan_ms = Some(now_ms);
    }

    /// Rescans if the period has elapsed.  Split out of [`IApp::on_tick`]
    /// so the cadence is testable without a live server.
    fn tick(&mut self, now_ms: u64) {
        let due = match self.last_scan_ms {
            None => true,
            Some(last) => now_ms.saturating_sub(last) >= self.cfg.period_ms,
        };
        if due {
            self.rescan(now_ms);
        }
    }
}

impl IApp for MetricsReader {
    fn on_start(&mut self, _api: &mut ServerApi) {
        // Publish immediately so handles never observe an empty snapshot
        // after the server is up.
        self.rescan(0);
    }

    fn on_tick(&mut self, _api: &mut ServerApi, now_ms: u64) {
        self.tick(now_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_handle_updates_on_period() {
        let c = flexric_obs::counter(
            "flexric_test_metrics_reader_total",
            "test counter for the metrics reader",
        );
        c.inc();
        let (mut app, snap) = MetricsReader::new(MetricsReaderConfig { period_ms: 100 });
        assert!(snap.lock().unwrap().metrics.is_empty());

        if cfg!(feature = "obs-off") {
            // Increments compile out; only check the snapshot plumbing.
            app.tick(5);
            assert!(snap
                .lock()
                .unwrap()
                .counter_value("flexric_test_metrics_reader_total")
                .is_some());
            return;
        }

        // First tick always scans.
        app.tick(5);
        let v1 = snap.lock().unwrap().counter_value("flexric_test_metrics_reader_total");
        assert!(v1.is_some_and(|v| v >= 1));

        // Within the period: no rescan, value stays put even as the
        // counter moves.
        c.inc();
        app.tick(50);
        assert_eq!(v1, snap.lock().unwrap().counter_value("flexric_test_metrics_reader_total"));

        // Past the period: the new value is published.
        app.tick(110);
        let v2 = snap.lock().unwrap().counter_value("flexric_test_metrics_reader_total");
        assert!(v2 > v1);
    }
}
