//! Shared infrastructure of the experiment harness: CPU/memory metering,
//! percentile helpers, table printing, multi-process orchestration, the
//! in-process fleet ([`fleet`]) and the one `BENCH_*.json` writer
//! ([`snapshot`]).
//!
//! One binary per table/figure of the paper lives in `src/bin/`; the
//! per-layer timings are `benchmark/`'s ledger.  See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for recorded results.

pub mod fleet;
pub mod metrics;
pub mod roles;
pub mod table;

use std::io;
use std::process::{Child, Command, Stdio};

use flexric_obs::{SnapValue, Snapshot};
use flexric_xapp::json::Value;

/// Re-executes the current binary with `args`, inheriting stdout/stderr.
/// Used to place components in separate processes so `/proc` attribution
/// is clean (the paper measures per-component CPU the same way via
/// `docker stats`).
pub fn spawn_role(args: &[String]) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
}

// Percentile/summary helpers are shared with the always-on observability
// subsystem — the exact-sample statistics live in `flexric_obs::stats`,
// the table formatting stays here.
pub use flexric_obs::stats::{percentile, summarize, Summary};

/// Counter `name` summed over all its series.
pub fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    let value = |v: &SnapValue| if let SnapValue::Counter(v) = v { *v } else { 0 };
    snap.metrics.iter().filter(|m| m.name == name).map(|m| value(&m.value)).sum()
}

/// A `BENCH_*.json` snapshot: the header `bench`, `source` (the producing
/// bin), `status: "measured"`, `note`, `host` and `commit`, then the
/// members of the object `params` and last the `points`.
pub fn snapshot(bench: &str, source: &str, note: &str, params: Value, points: Vec<Value>) -> Value {
    let header = [("bench", bench), ("source", source), ("status", "measured"), ("note", note)];
    let mut doc: Vec<(String, Value)> =
        header.iter().map(|(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect();
    doc.push(("host".into(), Value::Str(host())));
    doc.push(("commit".into(), Value::Str(commit())));
    if let Value::Obj(params) = params {
        doc.extend(params);
    }
    doc.push(("points".into(), Value::Arr(points)));
    Value::Obj(doc)
}

/// Writes `doc` to `out`; `-` skips it.
pub fn write_snapshot(out: &str, doc: &Value) {
    if out != "-" {
        std::fs::write(out, doc.to_string_pretty() + "\n").expect("write snapshot");
        println!("snapshot written to {out}");
    }
}

/// The machine this runs on: CPU model, vCPUs, OS.
fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches(|c: char| c == ':' || c.is_whitespace()).to_owned());
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = model.unwrap_or_else(|| "unknown CPU".into());
    format!("{model}, {vcpus} vCPU, {}", std::env::consts::OS)
}

/// The commit checked out where this runs (`git rev-parse HEAD`),
/// "unknown" outside a checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// Simple flag parser: `--key value` pairs after the binary name.
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Args { args: std::env::args().skip(1).collect() }
    }

    /// The value following `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Typed getter with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Whether a bare flag is present.
    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.args.iter().any(|a| a == &flag)
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
