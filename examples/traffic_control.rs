//! Flow-based traffic control demo (paper §6.1.1): fighting bufferbloat
//! with the TC SM.
//!
//! A VoIP flow shares a bearer with a greedy TCP download.  The full
//! controller stack runs — RLC statistics flow to a pub/sub broker, the
//! bloat-guard xApp watches them and, when the sojourn time explodes,
//! reconfigures the bearer over REST: second FIFO queue, 5-tuple filter,
//! 5G-BDP pacer.  The example prints the VoIP round-trip time before and
//! after the intervention.
//!
//! ```text
//! cargo run --release --example traffic_control
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::ranfun::{full_bundle, BearerAddr, SimBs};
use flexric_ctrl::traffic::{
    run_bloat_guard, spawn_rest, BloatGuardConfig, StatsForwarderApp, TcManagerApp,
};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use flexric_xapp::broker::Broker;

const RNTI: u16 = 0x4601;

fn main() {
    // Northbound plumbing: pub/sub broker (the Redis stand-in).
    let broker = Broker::spawn("127.0.0.1:0").expect("broker");
    let broker_addr = broker.addrs[0].to_string();

    // Controller: stats forwarder + TC SM manager, REST northbound.
    let sm = SmCodec::Flatb;
    let fwd = StatsForwarderApp::new(
        sm,
        100,
        broker_addr.clone(),
        vec![BearerAddr { rnti: RNTI, drb: 1 }],
    );
    let mgr = TcManagerApp::new(sm);
    let cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    let server = Server::spawn(cfg, vec![Box::new(fwd), Box::new(mgr)]).expect("server");
    let rest = spawn_rest("127.0.0.1:0", server.clone()).expect("rest");
    println!("TC controller: E2 {}, broker {}, REST {}", server.addrs[0], broker_addr, rest.addr);

    // Base station: one UE, a VoIP flow, and (after 5 s) a greedy TCP flow.
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    sim.attach_ue(0, UeConfig::new(RNTI, 20));
    let voip = sim.add_flow(FlowConfig {
        cell: 0,
        rnti: RNTI,
        drb: 1,
        kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
        tuple: (0x0A00_0001, 0x0A00_0002, 40_000, 5004, 17),
        start_ms: 0,
        stop_ms: None,
    });
    sim.add_flow(FlowConfig {
        cell: 0,
        rnti: RNTI,
        drb: 1,
        kind: FlowKind::GreedyTcp { mss: 1500 },
        tuple: (0x0A00_0001, 0x0A00_0002, 40_001, 80, 6),
        start_ms: 5_000,
        stop_ms: None,
    });
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, sm)).expect("agent");

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

    // The xApp.
    let guard_cfg = BloatGuardConfig {
        broker_addr,
        rest_addr: rest.addr.to_string(),
        sojourn_limit_us: 20_000,
        protect_dst_port: 5004,
        protect_proto: 17,
        pacer_target_us: 10_000,
    };
    let guard = std::thread::spawn(move || run_bloat_guard(guard_cfg));

    // Narrate the VoIP RTT once per second.
    let mut intervened_at = None;
    for sec in 1..=20u64 {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let (rtt_ms, n) = {
            let s = sim.lock().expect("lock poisoned");
            let log = &s.flow(voip).rtt_log;
            let recent: Vec<u64> =
                log.iter().rev().take(40).map(|(_, rtt_us)| rtt_us / 1000).collect();
            (recent.iter().sum::<u64>() / recent.len().max(1) as u64, log.len())
        };
        let marker = match (&intervened_at, guard.is_finished()) {
            (None, true) => {
                intervened_at = Some(sec);
                "  ← xApp intervened (queue + filter + BDP pacer)"
            }
            _ => "",
        };
        println!("t={sec:>2}s  VoIP RTT ≈ {rtt_ms:>4} ms  ({n} packets){marker}");
    }
    println!("\nThe greedy flow bloats the RLC buffer from t=5 s; once the xApp");
    println!("segregates the VoIP flow and paces the bearer, its RTT collapses back.");
    agent.stop();
    server.stop();
}
