//! Quickstart: the smallest complete FlexRIC deployment.
//!
//! One monitoring controller (server library + statistics iApp), one
//! simulated 5G base station with the pre-defined statistics service
//! models, connected over the SCTP-like TCP transport with FlatBuffers
//! encoding.  The controller subscribes to MAC/RLC/PDCP statistics at
//! 1 ms and we print a live per-UE view once per second.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{stats_bundle, SimBs};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn main() {
    // 1. The controller: server library + monitoring iApp.
    let (monitor, db, counters) = MonitorApp::new(MonitorConfig::default());
    let cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    let server = Server::spawn(cfg, vec![Box::new(monitor)]).expect("controller");
    println!("controller listening on {}", server.addrs[0]);

    // 1b. Observability northbound: every layer below feeds the global
    //     obs registry; this serves it in Prometheus text format.
    let http = flexric_xapp::http::HttpServer::spawn(
        "127.0.0.1:0",
        flexric_xapp::metrics::with_metrics_route(flexric_xapp::http::Router::new()),
    )
    .expect("metrics exporter");
    println!("metrics:  curl http://{}/metrics", http.addr);

    // 2. The base station: a simulated NR cell (106 PRB ≈ 20 MHz) with
    //    three UEs downloading at full rate.
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    for i in 0..3u16 {
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

    // 3. The agent: pre-defined MAC/RLC/PDCP statistics RAN functions on
    //    top of the simulated cell, driven in real time at 1 ms TTI.
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, stats_bundle(&bs, SmCodec::Flatb)).expect("agent");

    let driver_sim = sim.clone();
    let driver_agent = agent.clone();
    std::thread::spawn(move || {
        let mut iv = flexric::Ticker::every(std::time::Duration::from_millis(1));
        loop {
            iv.tick();
            let now = {
                let mut s = driver_sim.lock().expect("lock poisoned");
                s.tick();
                s.now_ms()
            };
            driver_agent.tick(now);
        }
    });

    // 4. Watch the statistics arriving at the controller.
    for _ in 0..8 {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let inds = counters.indications.load(std::sync::atomic::Ordering::Relaxed);
        let table = db.lock().expect("lock poisoned");
        let Some(mac) = table.mac(0) else {
            println!("waiting for statistics…");
            continue;
        };
        println!("t={}s  indications={}  cell: {} PRBs", mac.tstamp_ms / 1000, inds, mac.cell_prbs);
        for ue in &mac.ues {
            println!(
                "  UE {:#06x}: mcs {}  {:>6.2} Mbit/s  backlog {:>7} B  total {:>5} MB",
                ue.rnti,
                ue.mcs,
                ue.tbs_dl_bytes as f64 * 8.0 / 1000.0, // per-ms window → kbit/ms = Mbit/s
                ue.dl_backlog_bytes,
                ue.dl_aggr_bytes / 1_000_000,
            );
        }
    }
    println!("done — this is the whole SDK surface: Server + iApp, Agent + RAN functions.");
    agent.stop();
    server.stop();
}
