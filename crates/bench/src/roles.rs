//! Reusable process roles for the multi-process experiments: each CPU/RSS
//! figure runs its components in separate processes (spawned via
//! [`crate::spawn_role`]) so `/proc` attribution is clean, mirroring the
//! paper's per-container `docker stats` measurements.

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::ServerConfig;
use flexric_codec::E2apCodec;
use flexric_ctrl::dummy::{dummy_bundle, dummy_mac_only, DummyStats};
use flexric_ctrl::flexran_emu::{FlexranCtrl, FlexranNode, FlexranSnapshot};
use flexric_ctrl::monitoring::MonitorConfig;
use flexric_ctrl::ranfun::{stats_bundle, SimBs};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::{mac::MacStatsInd, pdcp::PdcpStatsInd, rlc::RlcStatsInd, SmCodec};
use flexric_transport::TransportAddr;

use crate::Args;

/// Parses the `--codec` flag (`fb` | `asn`).
pub fn codec_arg(args: &Args) -> E2apCodec {
    match args.get("codec") {
        Some("asn") => E2apCodec::Asn1Per,
        _ => E2apCodec::Flatb,
    }
}

/// SM codec matching the E2AP choice of [`codec_arg`].
pub fn sm_codec_of(codec: E2apCodec) -> SmCodec {
    match codec {
        E2apCodec::Asn1Per => SmCodec::Asn1Per,
        E2apCodec::Flatb => SmCodec::Flatb,
    }
}

/// Parses `--sm fb|asn`, defaulting to match the E2AP codec.  Fig. 8b
/// holds the SM encoding at FB while sweeping only the E2AP encoding, as
/// the paper does ("dummy test agents that export the same statistics (in
/// FB)").
pub fn sm_arg(args: &Args, e2ap: E2apCodec) -> SmCodec {
    match args.get("sm") {
        Some("asn") => SmCodec::Asn1Per,
        Some("fb") => SmCodec::Flatb,
        _ => sm_codec_of(e2ap),
    }
}

/// Builds the simulated cell of `--cell lte25|lte50|nr106` with `--ues`
/// UEs at `--mcs`, each with one greedy TCP downlink flow.
pub fn build_sim(args: &Args) -> Arc<Mutex<Sim>> {
    let cell = match args.get("cell") {
        Some("lte25") => CellConfig::lte("cell0", 25),
        Some("lte50") => CellConfig::lte("cell0", 50),
        _ => CellConfig::nr("cell0", 106),
    };
    let mcs: u8 =
        args.get_or("mcs", if matches!(args.get("cell"), Some("lte25")) { 28 } else { 20 });
    let ues: u16 = args.get_or("ues", 3);
    let mut sim = Sim::new(vec![cell], PathConfig::default());
    for i in 0..ues {
        sim.attach_ue(0, UeConfig::new(0x4601 + i, mcs));
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
    Arc::new(Mutex::new(sim))
}

/// Role: a simulated base station driven in real time at 1 ms TTI, with
/// an optional agent variant (`--variant flexric|flexran|none`).
/// Runs for `--duration` seconds, then exits.
pub fn role_bs(args: &Args) {
    let sim = build_sim(args);
    let duration_s: u64 = args.get_or("duration", 10);
    let ctrl_addr = args.get("ctrl").map(|a| TransportAddr::parse(a).expect("ctrl addr"));
    let codec = codec_arg(args);
    let sm_codec = sm_codec_of(codec);

    // Attach the agent variant; the sim loop below ticks it.
    let tick: Box<dyn Fn(u64)> = match args.get("variant").unwrap_or("flexric") {
        "flexric" => {
            let addr = ctrl_addr.expect("--ctrl required for flexric variant");
            let mut acfg =
                AgentConfig::new(GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1), addr);
            acfg.codec = codec;
            acfg.tick_ms = None;
            let bs = SimBs::new(sim.clone(), 0);
            let agent = Agent::spawn(acfg, stats_bundle(&bs, sm_codec)).expect("agent");
            Box::new(move |now| agent.tick(now))
        }
        "flexran" => {
            let addr = ctrl_addr.expect("--ctrl required for flexran variant");
            let sim = sim.clone();
            let agent = FlexranNode::new(move |_now| {
                let mut sim = sim.lock().expect("lock poisoned");
                let cell = &mut sim.cells[0];
                FlexranSnapshot {
                    mac: cell.mac_stats(),
                    rlc: cell.rlc_stats(),
                    pdcp: cell.pdcp_stats(),
                }
            });
            let agent = agent.spawn(&addr, None).expect("flexran agent");
            Box::new(move |now| agent.tick(now))
        }
        _ => Box::new(|_| {}),
    };

    // Real-time TTI driver.
    let mut iv = flexric::Ticker::every(std::time::Duration::from_millis(1));
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_secs() < duration_s {
        iv.tick();
        let now = {
            let mut s = sim.lock().expect("lock poisoned");
            s.tick();
            s.now_ms()
        };
        tick(now);
    }
}

/// Role: a FlexRIC monitoring controller (stats iApp) listening on
/// `--listen`, with `--period` ms subscriptions, running until killed.
/// `--shards N` runs a sharded server with one monitor replica per shard
/// sharing the same store (`0` = one shard per core; default `1`).
pub fn role_monitor(args: &Args) {
    let listen = TransportAddr::parse(args.get("listen").expect("--listen")).expect("addr");
    let codec = codec_arg(args);
    let period: u32 = args.get_or("period", 1);
    let store = !args.has("no-store");
    let mcfg = MonitorConfig {
        period_ms: period,
        sm_codec: sm_arg(args, codec),
        store,
        ..Default::default()
    };
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), listen);
    cfg.codec = codec;
    cfg.shards = args.get_or("shards", 1);
    let _server = crate::fleet::monitor_server(cfg, mcfg).expect("server");
    park_forever();
}

/// Role: a FlexRAN controller (RIB + 1 ms polling app) on `--listen`.
pub fn role_flexran_ctrl(args: &Args) {
    let listen = TransportAddr::parse(args.get("listen").expect("--listen")).expect("addr");
    let period: u32 = args.get_or("period", 1);
    let _ctrl = FlexranCtrl::new(period).spawn(&listen).expect("flexran controller");
    park_forever();
}

/// Role: `--agents` dummy test agents (32 UEs each) connected to
/// `--ctrl`, self-ticked at 1 ms; exports MAC(+RLC+PDCP unless
/// `--mac-only`) statistics.
pub fn role_dummy_agents(args: &Args) {
    let ctrl = TransportAddr::parse(args.get("ctrl").expect("--ctrl")).expect("addr");
    let n: usize = args.get_or("agents", 10);
    let ues: u16 = args.get_or("ues", 32);
    let codec = codec_arg(args);
    let sm_codec = sm_arg(args, codec);
    let mac_only = args.has("mac-only");
    let _agents: Vec<_> = (0..n)
        .map(|i| {
            let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 100 + i as u64);
            let mut acfg = AgentConfig::new(node, ctrl.clone());
            acfg.codec = codec;
            acfg.tick_ms = Some(1);
            let fns =
                if mac_only { dummy_mac_only(ues, sm_codec) } else { dummy_bundle(ues, sm_codec) };
            Agent::spawn(acfg, fns).expect("dummy agent")
        })
        .collect();
    park_forever();
}

/// Role: `--agents` FlexRAN agents reporting the statistics the dummy E2
/// agents report ([`DummyStats::fabricate`]) for `--ues` UEs, self-ticked
/// at 1 ms.
pub fn role_flexran_dummy_agents(args: &Args) {
    let ctrl = TransportAddr::parse(args.get("ctrl").expect("--ctrl")).expect("addr");
    let n: usize = args.get_or("agents", 10);
    let ues: u16 = args.get_or("ues", 32);
    let _agents: Vec<_> = (0..n)
        .map(|_| {
            let mut reports = 0;
            let node = FlexranNode::new(move |now| {
                reports += 1;
                FlexranSnapshot {
                    mac: MacStatsInd::fabricate(reports, ues, now),
                    rlc: RlcStatsInd::fabricate(reports, ues, now),
                    pdcp: PdcpStatsInd::fabricate(reports, ues, now),
                }
            });
            node.spawn(&ctrl, Some(1)).expect("flexran dummy")
        })
        .collect();
    park_forever();
}

/// Parks the thread forever (roles run until the orchestrator kills them).
pub fn park_forever() -> ! {
    loop {
        std::thread::park();
    }
}

/// Dispatches `--role` subprocesses; returns `false` when no role flag is
/// present (the caller is the orchestrator).
pub fn dispatch(args: &Args) -> bool {
    let role: fn(&Args) = match args.get("role") {
        Some("bs") => role_bs,
        Some("monitor") => role_monitor,
        Some("flexran-ctrl") => role_flexran_ctrl,
        Some("dummy-agents") => role_dummy_agents,
        Some("flexran-dummy-agents") => role_flexran_dummy_agents,
        Some(other) => panic!("unknown role {other}"),
        None => return false,
    };
    role(args);
    true
}
