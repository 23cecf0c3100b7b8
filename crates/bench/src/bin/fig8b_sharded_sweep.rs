//! Fig. 8b extension — sharded controller scaling over the mem transport:
//! sustainable agents at a fixed export period, single-loop vs shard-per-core.
//!
//! The paper's §5.3 side-note puts the single-loop ceiling at ~100 agents
//! for a 10 ms export period; the ROADMAP asks for the jump toward 10k.
//! Everything runs in ONE process over the in-memory transport so the
//! sweep isolates the controller's dispatch architecture from kernel
//! networking: dummy test agents (MAC+RLC+PDCP at `--period` ms) feed a
//! sharded monitoring controller (`--no-store` equivalent: store off), and
//! a point is *sustained* when ≥ 95 % of the nominally offered indications
//! are received by the server within the measurement window — an
//! unsustainable point falls behind visibly because the delivery ratio
//! collapses as queues grow.
//!
//! Because agents, drivers, and server share the process, per-component
//! CPU attribution is meaningless here; this sweep measures *throughput
//! sustainability* and dispatch latency, while `fig8b_controller_scaling`
//! keeps the per-process CPU measurement over loopback TCP.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig8b_sharded_sweep -- \
//!     [--shards 0] [--agents 100,500,1000,2500,5000,10000] [--ues 32] \
//!     [--period 10] [--duration 5] [--out BENCH_fig8b.json] \
//!     [--require-sustained 1000]
//! ```
//!
//! `--shards 0` (default) resolves to one shard per core.  The per-shard
//! balance is reported from the `flexric_server_shard_rx_total` /
//! `flexric_server_shard_agents` series, the same series `/metrics` shows
//! in production.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexric_xapp::json;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{IApp, Server, ServerConfig};
use flexric_bench::{table, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::dummy::dummy_bundle;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::{HistSnapshot, SnapValue, Snapshot};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

/// MAC + RLC + PDCP.
const SMS_PER_AGENT: u64 = 3;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter_value(name).unwrap_or(0)
}

/// All labeled series of a counter as `(labels, value)` pairs.
fn labeled_counters(snap: &Snapshot, name: &str) -> Vec<(String, u64)> {
    snap.metrics
        .iter()
        .filter(|m| m.name == name && !m.labels.is_empty())
        .filter_map(|m| match m.value {
            SnapValue::Counter(v) => Some((m.labels.clone(), v)),
            _ => None,
        })
        .collect()
}

/// All labeled series of a gauge as `(labels, value)` pairs.
fn labeled_gauges(snap: &Snapshot, name: &str) -> Vec<(String, i64)> {
    snap.metrics
        .iter()
        .filter(|m| m.name == name && !m.labels.is_empty())
        .filter_map(|m| match m.value {
            SnapValue::Gauge(v) => Some((m.labels.clone(), v)),
            _ => None,
        })
        .collect()
}

fn dispatch_hist(snap: &Snapshot) -> HistSnapshot {
    snap.metrics
        .iter()
        .find(|m| m.name == "flexric_server_dispatch_ns")
        .and_then(|m| match &m.value {
            SnapValue::Hist(h) => Some(h.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Bucket-wise window between two cumulative snapshots of one histogram
/// (the registry is process-global and the points share the process).
fn hist_window(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let mut buckets = after.buckets.clone();
    for (dst, src) in buckets.iter_mut().zip(before.buckets.iter()) {
        *dst = dst.saturating_sub(*src);
    }
    let count = buckets.iter().sum();
    HistSnapshot {
        buckets,
        count,
        sum: after.sum.wrapping_sub(before.sum),
        // min/max are lifetime extrema; close enough for percentile clamping.
        min: after.min,
        max: after.max,
    }
}

/// Per-shard deltas between two snapshots of one labeled counter, keyed by
/// label set and rendered sorted.
fn shard_deltas(before: &Snapshot, after: &Snapshot, name: &str) -> Vec<(String, u64)> {
    let base: std::collections::HashMap<String, u64> =
        labeled_counters(before, name).into_iter().collect();
    let mut out: Vec<(String, u64)> = labeled_counters(after, name)
        .into_iter()
        .map(|(l, v)| (l.clone(), v - base.get(&l).copied().unwrap_or(0)))
        .collect();
    out.sort();
    out
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
    shard_rx: Vec<(String, u64)>,
    shard_agents: Vec<(String, i64)>,
}

fn run_point(shards: usize, agents: usize, ues: u16, period: u32, duration_s: u64) -> Point {
    let addr = TransportAddr::Mem(format!("fig8b-sweep-{agents}"));
    let mcfg = MonitorConfig {
        period_ms: period,
        sm_codec: SmCodec::Flatb,
        store: false, // measure the dispatch path, not the store
        ..Default::default()
    };
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.codec = E2apCodec::Flatb;
    cfg.tick_ms = Some(100);
    cfg.shards = shards;
    let (app, db, counters) = MonitorApp::new(mcfg);
    let mut first = Some(app);
    let server = Server::spawn_sharded(cfg, move |_shard| {
        let app =
            first.take().unwrap_or_else(|| MonitorApp::replica(mcfg, db.clone(), counters.clone()));
        vec![Box::new(app) as Box<dyn IApp>]
    })
    .expect("server");

    // Spawn the agent fleet concurrently; each is externally ticked.
    let mut spawns = Vec::with_capacity(agents);
    for i in 0..agents {
        let addr = addr.clone();
        spawns.push(std::thread::spawn(move || {
            let mut acfg = AgentConfig::new(
                GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 100 + i as u64),
                addr,
            );
            acfg.codec = E2apCodec::Flatb;
            acfg.tick_ms = None;
            Agent::spawn(acfg, dummy_bundle(ues, SmCodec::Flatb)).expect("agent")
        }));
    }
    let mut handles: Vec<AgentHandle> = Vec::with_capacity(agents);
    for s in spawns {
        handles.push(s.join().expect("agent spawn thread"));
    }

    // Wait until every subscription is established before measuring.
    let want_subs = agents as u64 * SMS_PER_AGENT;
    let t0 = Instant::now();
    loop {
        let stats = server.stats().expect("stats");
        if stats.subs >= want_subs {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "only {}/{want_subs} subscriptions after 60 s",
            stats.subs
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Drive the fleet from a handful of threads; ticking at the export
    // period is enough for every report to fire.
    let stop = Arc::new(AtomicBool::new(false));
    let drivers = 8.min(agents.max(1));
    let mut driver_tasks = Vec::new();
    for d in 0..drivers {
        let slice: Vec<AgentHandle> = handles.iter().skip(d).step_by(drivers).cloned().collect();
        let stop = stop.clone();
        driver_tasks.push(std::thread::spawn(move || {
            // The agents' clock advances one period per tick, whenever the
            // tick comes, so the offered load is one report per tick the
            // pacing managed: ticks it gives up on are reports not offered,
            // which is what an unsustainable point looks like.  (A late
            // tick costs no period on either clock: the agent re-arms on
            // the subscription's own grid.)
            let step = period.max(1) as u64;
            let mut iv = flexric::Ticker::every(Duration::from_millis(step));
            let mut now = 0;
            while !stop.load(Ordering::Relaxed) {
                iv.tick();
                now += step;
                for a in &slice {
                    a.tick(now);
                }
            }
        }));
    }

    // Warm up one period, then measure a fixed wall window.
    std::thread::sleep(Duration::from_millis(period as u64 * 2));
    let before = flexric_obs::snapshot();
    let w0 = Instant::now();
    std::thread::sleep(Duration::from_secs(duration_s));
    let after = flexric_obs::snapshot();
    let window_ms = w0.elapsed().as_millis() as u64;

    stop.store(true, Ordering::Relaxed);
    for t in driver_tasks {
        t.join().expect("driver thread");
    }
    for a in &handles {
        a.stop();
    }
    server.stop();
    // Let the teardown drain before the next point reuses the runtime.
    std::thread::sleep(Duration::from_millis(200));

    let expected = agents as u64 * SMS_PER_AGENT * (window_ms / period as u64);
    let sent = counter(&after, "flexric_agent_indications_sent_total")
        - counter(&before, "flexric_agent_indications_sent_total");
    let rx = counter(&after, "flexric_server_indications_rx_total")
        - counter(&before, "flexric_server_indications_rx_total");
    let ratio = if expected == 0 { 0.0 } else { rx as f64 / expected as f64 };
    let h = hist_window(&dispatch_hist(&after), &dispatch_hist(&before));
    Point {
        agents,
        expected,
        sent,
        rx,
        ratio,
        sustained: ratio >= 0.95,
        p50_ns: h.percentile(50.0),
        p99_ns: h.percentile(99.0),
        shard_rx: shard_deltas(&before, &after, "flexric_server_shard_rx_total"),
        shard_agents: labeled_gauges(&after, "flexric_server_shard_agents"),
    }
}

fn main() {
    let args = Args::parse();
    let shards: usize = args.get_or("shards", 0);
    let ues: u16 = args.get_or("ues", 32);
    let period: u32 = args.get_or("period", 10);
    let duration_s: u64 = args.get_or("duration", 5);
    let out = args.get("out").unwrap_or("BENCH_fig8b.json").to_owned();
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
    let mut results = Vec::new();
    let mut max_sustained = 0usize;
    for &agents in &points {
        let p = run_point(shards, agents, ues, period, duration_s);
        eprintln!(
            "  agents={agents}: delivered {}/{} ({:.1} %) p99 dispatch {} ns {}",
            p.rx,
            p.expected,
            p.ratio * 100.0,
            p.p99_ns,
            if p.sustained { "SUSTAINED" } else { "falling behind" }
        );
        for (labels, rx) in &p.shard_rx {
            eprintln!("    shard[{labels}] rx={rx}");
        }
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
        results.push(p);
    }
    table::table(
        &["agents", "expected_ind", "rx_ind", "delivery", "sustained", "p50_ns", "p99_ns"],
        &rows,
    );

    let snapshot = json!({
        "bench": "fig8b",
        "source": "fig8b_sharded_sweep",
        "transport": "mem",
        "e2ap_codec": "fb",
        "sm_codec": "fb",
        "period_ms": period,
        "ues_per_agent": ues,
        "sms_per_agent": SMS_PER_AGENT,
        "shards_requested": shards,
        "shards_resolved": resolved,
        "window_s": duration_s,
        "sustained_threshold": 0.95,
        "max_sustained_agents": max_sustained,
        "points": results.iter().map(|p| json!({
            "agents": p.agents,
            "expected_indications": p.expected,
            "sent_indications": p.sent,
            "rx_indications": p.rx,
            "delivery_ratio": p.ratio,
            "sustained": p.sustained,
            "dispatch_p50_ns": p.p50_ns,
            "dispatch_p99_ns": p.p99_ns,
            "shard_rx": p.shard_rx.iter()
                .map(|(l, v)| json!({"labels": l, "rx": v})).collect::<Vec<_>>(),
            "shard_agents": p.shard_agents.iter()
                .map(|(l, v)| json!({"labels": l, "agents": v})).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
    });
    if out != "-" {
        std::fs::write(&out, snapshot.to_string_pretty() + "\n").expect("write snapshot");
        println!();
        println!("snapshot written to {out}");
    }
    println!(
        "max sustained agents at {period} ms period with {resolved} shard(s): {max_sustained}"
    );
    if require > 0 && max_sustained < require {
        eprintln!("FAIL: required ≥ {require} sustained agents, got {max_sustained}");
        std::process::exit(1);
    }
}
