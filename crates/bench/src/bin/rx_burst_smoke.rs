//! Burst-traffic smoke over TCP loopback: bulk indications saturate the
//! agent→controller direction while control procedures (HW pings, which
//! ride stream 0 southbound and are acknowledged on stream 0 northbound)
//! run concurrently — exercising the prioritized conn writer and the
//! zero-copy receive path together.
//!
//! Exits nonzero if conservation breaks, if a per-frame payload copy
//! shows up in steady state, if the batched reader never sees a
//! multi-frame wakeup, if one control deadline after the burst the
//! controller routes anything but the monitor's three subscriptions, or if
//! the agent takes over a second to answer a query after the burst (its
//! virtual ticks coalesce, so it is never more than one tick behind).
//!
//! ```text
//! cargo run --release -p flexric-bench --bin rx_burst_smoke [--duration 3]
//! ```

use std::sync::{Arc, Mutex};
use std::time::Duration;

use flexric::agent::{Agent, AgentConfig};
use flexric::endpoint::RetryPolicy;
use flexric::server::{Server, ServerConfig};
use flexric_bench::{counter_sum, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{stats_bundle, HwFn, SimBs};
use flexric_ctrl::relay::PingApp;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::SnapValue;
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn hist_count(snap: &flexric_obs::Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            SnapValue::Hist(h) => h.count,
            _ => 0,
        })
        .sum()
}

fn fail(msg: &str) -> ! {
    eprintln!("rx_burst_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args::parse();
    let duration_s: u64 = args.get_or("duration", 3);

    // Controller: monitoring iApp (bulk consumer) + pinger (control
    // producer), TCP loopback, server ticks driving the pings.
    let mcfg = MonitorConfig::default();
    let (monitor, _db, _counters) = MonitorApp::new(mcfg);
    let (ping_app, rtts) = PingApp::new(SmCodec::Flatb, 100, 1);
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    cfg.codec = E2apCodec::Flatb;
    cfg.tick_ms = Some(1);
    let apps: Vec<Box<dyn flexric::server::IApp>> = vec![Box::new(monitor), Box::new(ping_app)];
    let server = Server::spawn(cfg, apps).unwrap();

    // Agent: 3 statistics SMs on a simulated cell plus the HW echo
    // function, so every ping forces a control-class reply into an outbox
    // already crowded with bulk indications.
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    for i in 0..8u16 {
        sim.attach_ue(0, UeConfig::new(0x4601 + i, 20));
        sim.add_flow(FlowConfig {
            cell: 0,
            rnti: 0x4601 + i,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A00_0001, 0x0A00_0100 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        });
    }
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut fns = stats_bundle(&bs, SmCodec::Flatb);
    fns.push(Box::new(HwFn::new(SmCodec::Flatb)));
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.codec = E2apCodec::Flatb;
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, fns).unwrap();

    // Setup and subscriptions settle, then the steady-state baseline.
    std::thread::sleep(Duration::from_millis(300));
    let rx_copies_before =
        counter_sum(&flexric_obs::snapshot(), "flexric_transport_rx_copies_total");

    // Bursty load: many sim ticks between yields, so each socket wakeup
    // carries several frames.
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_secs() < duration_s {
        for _ in 0..50 {
            let now = {
                let mut s = sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            agent.tick(now);
        }
        std::thread::yield_now();
    }
    // Pings completed while the burst ran, not while it settles below.
    let pings = rtts.lock().unwrap().len();
    // The burst ticks faster than the agent handles ticks; they coalesce,
    // so its stats are answered once it has handled the one tick still
    // queued and the input behind it, and the settling below starts with
    // the burst sent.
    let asked = std::time::Instant::now();
    agent.stats().expect("the agent runs");
    let lag = asked.elapsed();

    // Settle.
    let mut snap = flexric_obs::snapshot();
    for _ in 0..100 {
        let sent = counter_sum(&snap, "flexric_agent_indications_sent_total");
        let rx = counter_sum(&snap, "flexric_server_indications_rx_total");
        if sent > 0 && sent == rx {
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        snap = flexric_obs::snapshot();
    }

    let sent = counter_sum(&snap, "flexric_agent_indications_sent_total");
    let rx = counter_sum(&snap, "flexric_server_indications_rx_total");
    let rx_copies = counter_sum(&snap, "flexric_transport_rx_copies_total");
    let wakeups = hist_count(&snap, "flexric_transport_read_frames_per_wakeup");
    let frames = counter_sum(&snap, "flexric_transport_rx_frames_total");
    let promotions = counter_sum(&snap, "flexric_conn_control_promotions_total");
    // Once every control of the burst has met its deadline, the routing
    // table holds the monitor's three subscriptions and nothing per ping.
    std::thread::sleep(Duration::from_millis(RetryPolicy::default().control_deadline_ms));
    let subs = server.stats().unwrap().subs;

    println!("rx_burst_smoke: {sent} indications sent, {rx} received");
    println!("rx_burst_smoke: {frames} frames over {wakeups} socket wakeups");
    println!("rx_burst_smoke: {pings} control pings completed during the burst");
    println!("rx_burst_smoke: {promotions} control-frame promotions past queued bulk");
    println!(
        "rx_burst_smoke: rx payload copies {rx_copies_before} before burst, {rx_copies} after"
    );
    println!("rx_burst_smoke: {subs} routing entries one control deadline after the burst");
    println!("rx_burst_smoke: the agent answered its stats {lag:.1?} after the burst");

    if sent < 1_000 {
        fail(&format!("burst too small: only {sent} indications sent"));
    }
    if sent != rx {
        fail(&format!("conservation broke: sent {sent} != received {rx}"));
    }
    if rx_copies != rx_copies_before {
        fail("receive path took per-frame payload copies in steady state");
    }
    if wakeups == 0 {
        fail("frames-per-wakeup histogram never recorded");
    }
    if frames < wakeups {
        fail("reader claims more wakeups than frames");
    }
    if pings == 0 {
        fail("no control ping completed — priority stream never exercised");
    }
    if lag > Duration::from_secs(1) {
        fail(&format!("the agent took {lag:.1?} to answer after the burst: its ticks queue up"));
    }
    if subs != 3 {
        fail(&format!("{subs} routing entries, not the monitor's 3: the pings left theirs"));
    }

    agent.stop();
    server.stop();
    println!("rx_burst_smoke: OK");
}
