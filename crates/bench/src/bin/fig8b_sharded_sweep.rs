//! Fig. 8b extension — sharded controller scaling over the mem transport:
//! sustainable agents at a fixed export period, single-loop vs shard-per-core.
//!
//! The paper's §5.3 side-note puts the single-loop ceiling at ~100 agents
//! for a 10 ms export period; the ROADMAP asks for the jump toward 10k.
//! Everything runs in ONE process over the in-memory transport so the
//! sweep isolates the controller's dispatch architecture from kernel
//! networking: dummy test agents (MAC+RLC+PDCP at `--period` ms) feed a
//! sharded monitoring controller (`--no-store` equivalent: store off) on
//! the shared in-process fleet ([`flexric_bench::fleet`]), and
//! a point is *sustained* when ≥ 95 % of the nominally offered indications
//! are received by the server within the measurement window — an
//! unsustainable point falls behind visibly because the delivery ratio
//! collapses as queues grow.
//!
//! Because agents, drivers, and server share the process, per-component
//! CPU attribution is meaningless here; this sweep measures *throughput
//! sustainability* and dispatch latency, while `fig8b_controller_scaling`
//! keeps the per-process CPU measurement over loopback TCP and writes
//! `BENCH_fig8b.json`.  This sweep prints its table and writes no snapshot.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig8b_sharded_sweep -- \
//!     [--shards 0] [--agents 100,500,1000,2500,5000,10000] [--ues 32] \
//!     [--period 10] [--duration 5] [--require-sustained 1000]
//! ```
//!
//! `--shards 0` (default) resolves to one shard per core.  The per-shard
//! balance is reported from the `flexric_server_shard_agents` series, the
//! same series `/metrics` shows in production.

use std::time::Duration;

use flexric_bench::{fleet, table, Args};
use flexric_ctrl::dummy::dummy_bundle;
use flexric_ctrl::monitoring::MonitorConfig;
use flexric_obs::{HistSnapshot, SnapValue, Snapshot};
use flexric_sm::SmCodec;

/// MAC + RLC + PDCP.
const SMS_PER_AGENT: u64 = 3;

/// The dispatch-latency histogram's buckets filled in the window (the
/// registry is process-global and the points share the process).
fn dispatch_window(w: &fleet::Window) -> HistSnapshot {
    let hist = |snap: &Snapshot| {
        let m = snap.metrics.iter().find(|m| m.name == "flexric_server_dispatch_ns");
        m.and_then(|m| if let SnapValue::Hist(h) = &m.value { Some(h.clone()) } else { None })
            .unwrap_or_default()
    };
    let (after, before) = (hist(&w.after), hist(&w.before));
    let mut buckets = after.buckets.clone();
    for (dst, src) in buckets.iter_mut().zip(before.buckets.iter()) {
        *dst = dst.saturating_sub(*src);
    }
    let count = buckets.iter().sum();
    // min/max are lifetime extrema; close enough for percentile clamping.
    HistSnapshot { buckets, count, sum: after.sum.wrapping_sub(before.sum), ..after }
}

struct Point {
    agents: usize,
    expected: u64,
    sent: u64,
    rx: u64,
    ratio: f64,
    sustained: bool,
    p50_ns: u64,
    p99_ns: u64,
    /// Agents per shard at the window's end, as `shard="k"=n` pairs.
    balance: String,
}

fn run_point(shards: usize, agents: usize, ues: u16, period: u32, duration_s: u64) -> Point {
    let mcfg = MonitorConfig {
        period_ms: period,
        sm_codec: SmCodec::Flatb,
        store: false, // measure the dispatch path, not the store
        ..Default::default()
    };
    let w = fleet::run(mcfg, shards, agents, Duration::from_secs(duration_s), |_| {
        dummy_bundle(ues, SmCodec::Flatb)
    });
    let expected = agents as u64 * SMS_PER_AGENT * (w.ms / period as u64);
    let rx = w.delta("flexric_server_indications_rx_total");
    let ratio = if expected == 0 { 0.0 } else { rx as f64 / expected as f64 };
    let h = dispatch_window(&w);
    let balance = w.after.metrics.iter().filter(|m| m.name == "flexric_server_shard_agents");
    let balance = balance.filter_map(|m| match m.value {
        SnapValue::Gauge(n) => Some(format!("{}={n}", m.labels)),
        _ => None,
    });
    Point {
        agents,
        expected,
        sent: w.delta("flexric_agent_indications_sent_total"),
        rx,
        ratio,
        sustained: ratio >= 0.95,
        p50_ns: h.percentile(50.0),
        p99_ns: h.percentile(99.0),
        balance: balance.collect::<Vec<_>>().join(" "),
    }
}

fn main() {
    let args = Args::parse();
    let shards: usize = args.get_or("shards", 0);
    let ues: u16 = args.get_or("ues", 32);
    let period: u32 = args.get_or("period", 10);
    let duration_s: u64 = args.get_or("duration", 5);
    let require: usize = args.get_or("require-sustained", 0);
    let points: Vec<usize> = args
        .get("agents")
        .unwrap_or("100,500,1000,2500,5000,10000")
        .split(',')
        .map(|s| s.trim().parse().expect("--agents takes a comma-separated list"))
        .collect();

    let resolved = if shards == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        shards
    };
    table::experiment(
        "Fig. 8b (sharded sweep)",
        "Sustainable agents vs shard count, mem transport, FB E2AP, store off",
    );
    println!(
        "shards = {resolved}, period = {period} ms, ues/agent = {ues}, window = {duration_s} s"
    );

    let mut rows = Vec::new();
    let mut max_sustained = 0usize;
    for &agents in &points {
        let p = run_point(shards, agents, ues, period, duration_s);
        eprintln!(
            "  agents={agents}: delivered {}/{} ({:.1} %, {} sent) p99 dispatch {} ns {}",
            p.rx,
            p.expected,
            p.ratio * 100.0,
            p.sent,
            p.p99_ns,
            if p.sustained { "SUSTAINED" } else { "falling behind" }
        );
        eprintln!("    agents per shard: {}", p.balance);
        if p.sustained {
            max_sustained = max_sustained.max(agents);
        }
        rows.push(vec![
            p.agents.to_string(),
            p.expected.to_string(),
            p.rx.to_string(),
            format!("{:.3}", p.ratio),
            if p.sustained { "yes".into() } else { "no".into() },
            p.p50_ns.to_string(),
            p.p99_ns.to_string(),
        ]);
    }
    table::table(
        &["agents", "expected_ind", "rx_ind", "delivery", "sustained", "p50_ns", "p99_ns"],
        &rows,
    );
    println!(
        "max sustained agents at {period} ms period with {resolved} shard(s): {max_sustained}"
    );
    if require > 0 && max_sustained < require {
        eprintln!("FAIL: required ≥ {require} sustained agents, got {max_sustained}");
        std::process::exit(1);
    }
}
