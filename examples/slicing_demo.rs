//! RAT-unaware slicing controller demo (paper §6.1.2).
//!
//! Builds the slicing controller of Table 4 — server library, SC SM
//! manager iApp, REST northbound — over a simulated NR cell with three
//! saturating UEs, then acts as the `curl` xApp: deploys NVS slices over
//! REST, re-associates UEs, reconfigures shares, and reads back the slice
//! statistics, printing the throughput shift at each step.
//!
//! ```text
//! cargo run --release --example slicing_demo
//! ```

use std::sync::{Arc, Mutex};

use flexric_xapp::json;

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::slicing::{spawn_rest, SliceApp};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use flexric_xapp::http::HttpClient;

fn observe(sim: &Arc<Mutex<Sim>>, flows: &[usize], label: &str, secs: u64) {
    let before: Vec<u64> =
        flows.iter().map(|f| sim.lock().expect("lock poisoned").flow(*f).delivered_bytes).collect();
    std::thread::sleep(std::time::Duration::from_secs(secs));
    println!("{label}:");
    for (i, f) in flows.iter().enumerate() {
        let after = sim.lock().expect("lock poisoned").flow(*f).delivered_bytes;
        println!(
            "  UE {}: {:>6.2} Mbit/s",
            i + 1,
            (after - before[i]) as f64 * 8.0 / secs as f64 / 1e6
        );
    }
}

fn main() {
    // Controller: SC SM manager iApp + REST northbound.
    let (slice_app, latest) = SliceApp::new(SmCodec::Flatb, 500);
    let cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    let server = Server::spawn(cfg, vec![Box::new(slice_app)]).expect("controller");
    let rest = spawn_rest("127.0.0.1:0", server.clone(), latest).expect("rest");
    let rest_addr = rest.addr.to_string();
    println!("slicing controller: E2 on {}, REST on {}", server.addrs[0], rest_addr);

    // Base station: NR cell, three saturating UEs.
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    let mut flows = Vec::new();
    for i in 0..3u16 {
        sim.attach_ue(0, UeConfig::new(0x4601 + i, 20));
        flows.push(sim.add_flow(FlowConfig {
            cell: 0,
            rnti: 0x4601 + i,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A00_0001, 0x0A00_0100 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        }));
    }
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent");

    // Real-time TTI driver.
    {
        let sim = sim.clone();
        let agent = agent.clone();
        std::thread::spawn(move || {
            let mut iv = flexric::Ticker::every(std::time::Duration::from_millis(1));
            loop {
                iv.tick();
                let now = {
                    let mut s = sim.lock().expect("lock poisoned");
                    s.tick();
                    s.now_ms()
                };
                agent.tick(now);
            }
        });
    }
    std::thread::sleep(std::time::Duration::from_millis(300));

    observe(&sim, &flows, "\nno slicing (equal share)", 4);

    // The xApp: plain REST calls, exactly what the paper does with curl.
    let post = |path: &'static str, body: json::Value| {
        let (status, resp) = HttpClient::post_json(&rest_addr, path, &body).expect("POST");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    };
    post("/slice/algo", json!({"agent": 0, "algo": "nvs"}));
    post(
        "/slice/conf",
        json!({"agent": 0, "slices": [
            {"id": 0, "label": "gold", "params": {"type": "nvs_capacity", "share_pct": 50.0}},
            {"id": 1, "label": "best-effort", "params": {"type": "nvs_capacity", "share_pct": 50.0}},
        ]}),
    );
    post("/slice/assoc", json!({"agent": 0, "assoc": [[0x4601, 0], [0x4602, 1], [0x4603, 1]]}));
    observe(&sim, &flows, "\nNVS 50/50, UE1 alone in the gold slice", 4);

    post(
        "/slice/conf",
        json!({"agent": 0, "slices": [
            {"id": 0, "label": "gold", "params": {"type": "nvs_capacity", "share_pct": 66.0}},
            {"id": 1, "label": "best-effort", "params": {"type": "nvs_capacity", "share_pct": 34.0}},
        ]}),
    );
    observe(&sim, &flows, "\nNVS 66/34", 4);

    // Read the slice statistics back over REST, as a dashboard would.
    let (status, body) = HttpClient::get(&rest_addr, "/slices").expect("GET /slices");
    assert_eq!(status, 200);
    let v = json::parse(&body).expect("the controller answers in JSON");
    println!("\nGET /slices → {}", v.to_string_pretty());

    agent.stop();
    server.stop();
}
