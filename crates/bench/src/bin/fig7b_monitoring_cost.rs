//! Fig. 7b extension — monitoring cost under adaptive reporting: signaling
//! bytes/s at the controller for full-snapshot vs delta-encoded vs
//! adaptive (delta + server-driven retuning) subscriptions.
//!
//! Everything runs in ONE process over the in-memory transport: dummy
//! agents over the time-varying KPI workload (quiet/active/burst phases,
//! `flexric_ransim::kpi`) feed a monitoring controller that subscribes in
//! the mode under test.  The store stays ON so the delta modes pay their
//! reconstruction cost in the measurement, and the adaptive mode's
//! retunes (backoff on quiescence, tighten on anomaly, resync on loss)
//! ride the regular subscription procedure.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig7b_monitoring_cost -- \
//!     [--agents 100,500,1000] [--ues 32] [--period 10] [--duration 5] \
//!     [--out BENCH_fig7b.json] [--require-savings 3.0]
//! ```
//!
//! `--require-savings X` exits non-zero unless delta AND adaptive cut the
//! monitoring bytes/s by ≥ X× vs full at the largest agent count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexric_xapp::json;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{IApp, Server, ServerConfig};
use flexric_bench::{table, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::dummy::dummy_bundle_time_varying;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig, MonitorMode};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

/// MAC + RLC + PDCP.
const SMS_PER_AGENT: u64 = 3;

struct Point {
    agents: usize,
    mode: &'static str,
    window_ms: u64,
    indications: u64,
    sm_bytes: u64,
    bytes_per_s: f64,
    decode_errors: u64,
    resyncs: u64,
    retunes: u64,
}

fn mode_name(mode: MonitorMode) -> &'static str {
    match mode {
        MonitorMode::Full => "full",
        MonitorMode::Delta => "delta",
        MonitorMode::Adaptive => "adaptive",
    }
}

fn run_point(agents: usize, ues: u16, period: u32, duration_s: u64, mode: MonitorMode) -> Point {
    let addr = TransportAddr::Mem(format!("fig7b-{}-{agents}", mode_name(mode)));
    let mcfg =
        MonitorConfig { period_ms: period, sm_codec: SmCodec::Flatb, mode, ..Default::default() };
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.codec = E2apCodec::Flatb;
    cfg.tick_ms = Some(50);
    cfg.shards = 0; // one shard per core
    let (app, db, counters) = MonitorApp::new(mcfg);
    let mut first = Some(app);
    let server = Server::spawn_sharded(cfg, move |_shard| {
        let app =
            first.take().unwrap_or_else(|| MonitorApp::replica(mcfg, db.clone(), counters.clone()));
        vec![Box::new(app) as Box<dyn IApp>]
    })
    .expect("server");

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
            Agent::spawn(acfg, dummy_bundle_time_varying(ues, SmCodec::Flatb, i as u64))
                .expect("agent")
        }));
    }
    let mut handles: Vec<AgentHandle> = Vec::with_capacity(agents);
    for s in spawns {
        handles.push(s.join().expect("agent spawn thread"));
    }

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

    // Warm up across one full workload cycle so every phase contributes,
    // then measure a fixed wall window via the shared counters.
    std::thread::sleep(Duration::from_millis(period as u64 * 4));
    let before = flexric_obs::snapshot();
    let ind0 = before.counter_value("flexric_ctrl_indications_total").unwrap_or(0);
    let bytes0 = before.counter_value("flexric_ctrl_indication_bytes_total").unwrap_or(0);
    let w0 = Instant::now();
    std::thread::sleep(Duration::from_secs(duration_s));
    let after = flexric_obs::snapshot();
    let window_ms = w0.elapsed().as_millis() as u64;
    let ind1 = after.counter_value("flexric_ctrl_indications_total").unwrap_or(0);
    let bytes1 = after.counter_value("flexric_ctrl_indication_bytes_total").unwrap_or(0);
    let errs = |s: &flexric_obs::Snapshot, n: &str| s.counter_value(n).unwrap_or(0);
    let decode_errors = errs(&after, "flexric_sm_delta_decode_errors_total")
        - errs(&before, "flexric_sm_delta_decode_errors_total");
    let resyncs = errs(&after, "flexric_sm_delta_resyncs_total")
        - errs(&before, "flexric_sm_delta_resyncs_total");
    let retunes: u64 = after
        .metrics
        .iter()
        .filter(|m| m.name == "flexric_ctrl_retunes_total")
        .filter_map(|m| match m.value {
            flexric_obs::SnapValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum::<u64>()
        - before
            .metrics
            .iter()
            .filter(|m| m.name == "flexric_ctrl_retunes_total")
            .filter_map(|m| match m.value {
                flexric_obs::SnapValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum::<u64>();

    stop.store(true, Ordering::Relaxed);
    for t in driver_tasks {
        t.join().expect("driver thread");
    }
    for a in &handles {
        a.stop();
    }
    server.stop();
    std::thread::sleep(Duration::from_millis(200));

    let sm_bytes = bytes1 - bytes0;
    Point {
        agents,
        mode: mode_name(mode),
        window_ms,
        indications: ind1 - ind0,
        sm_bytes,
        bytes_per_s: sm_bytes as f64 * 1_000.0 / window_ms.max(1) as f64,
        decode_errors,
        resyncs,
        retunes,
    }
}

fn main() {
    let args = Args::parse();
    let ues: u16 = args.get_or("ues", 32);
    let period: u32 = args.get_or("period", 10);
    let duration_s: u64 = args.get_or("duration", 5);
    let out = args.get("out").unwrap_or("BENCH_fig7b.json").to_owned();
    let require: f64 = args.get_or("require-savings", 0.0);
    let agent_points: Vec<usize> = args
        .get("agents")
        .unwrap_or("100,500,1000")
        .split(',')
        .map(|s| s.trim().parse().expect("--agents takes a comma-separated list"))
        .collect();

    table::experiment(
        "Fig. 7b (monitoring cost)",
        "Controller monitoring bytes/s: full vs delta vs adaptive, mem transport, FB",
    );
    println!("period = {period} ms, ues/agent = {ues}, window = {duration_s} s");

    let modes = [MonitorMode::Full, MonitorMode::Delta, MonitorMode::Adaptive];
    let mut rows = Vec::new();
    let mut results: Vec<Point> = Vec::new();
    for &agents in &agent_points {
        for mode in modes {
            let p = run_point(agents, ues, period, duration_s, mode);
            eprintln!(
                "  agents={agents} mode={}: {} ind, {:.0} bytes/s, {} retunes",
                p.mode, p.indications, p.bytes_per_s, p.retunes
            );
            rows.push(vec![
                p.agents.to_string(),
                p.mode.to_owned(),
                p.indications.to_string(),
                format!("{:.0}", p.bytes_per_s),
                p.decode_errors.to_string(),
                p.resyncs.to_string(),
                p.retunes.to_string(),
            ]);
            results.push(p);
        }
    }
    table::table(
        &["agents", "mode", "indications", "bytes_per_s", "decode_err", "resyncs", "retunes"],
        &rows,
    );

    // Savings at the largest agent count.
    let last = *agent_points.last().expect("at least one agent count");
    let bytes_of = |mode: &str| {
        results
            .iter()
            .find(|p| p.agents == last && p.mode == mode)
            .map(|p| p.bytes_per_s)
            .unwrap_or(0.0)
    };
    let full = bytes_of("full");
    let delta_savings = if bytes_of("delta") > 0.0 { full / bytes_of("delta") } else { 0.0 };
    let adaptive_savings =
        if bytes_of("adaptive") > 0.0 { full / bytes_of("adaptive") } else { 0.0 };
    println!(
        "savings at {last} agents: delta {delta_savings:.2}x, adaptive {adaptive_savings:.2}x"
    );

    let snapshot = json!({
        "bench": "fig7b",
        "source": "fig7b_monitoring_cost",
        "status": "measured-live",
        "note": "Full-stack A/B over the mem transport: dummy agents on the time-varying \
                 quiet/active/burst KPI workload, monitoring iApp subscribed in each mode; \
                 bytes/s is SM payload bytes at the controller.",
        "transport": "mem",
        "e2ap_codec": "fb",
        "sm_codec": "fb",
        "period_ms": period,
        "ues_per_agent": ues,
        "sms_per_agent": SMS_PER_AGENT,
        "window_s": duration_s,
        "delta_savings_at_max_agents": delta_savings,
        "adaptive_savings_at_max_agents": adaptive_savings,
        "points": results.iter().map(|p| json!({
            "agents": p.agents,
            "mode": p.mode,
            "window_ms": p.window_ms,
            "indications": p.indications,
            "sm_bytes": p.sm_bytes,
            "bytes_per_s": p.bytes_per_s,
            "decode_errors": p.decode_errors,
            "resyncs": p.resyncs,
            "retunes": p.retunes,
        })).collect::<Vec<_>>(),
    });
    if out != "-" {
        std::fs::write(&out, snapshot.to_string_pretty() + "\n").expect("write snapshot");
        println!();
        println!("snapshot written to {out}");
    }
    if require > 0.0 && (delta_savings < require || adaptive_savings < require) {
        eprintln!(
            "FAIL: required ≥ {require:.1}x savings, got delta {delta_savings:.2}x / \
             adaptive {adaptive_savings:.2}x"
        );
        std::process::exit(1);
    }
}
