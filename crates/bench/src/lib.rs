//! Shared infrastructure of the experiment harness: CPU/memory metering,
//! percentile helpers, table printing, and multi-process orchestration.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; the
//! per-layer timings are `benchmark/`'s ledger.  See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for recorded results.

pub mod metrics;
pub mod roles;
pub mod table;

use std::io;
use std::process::{Child, Command, Stdio};

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
