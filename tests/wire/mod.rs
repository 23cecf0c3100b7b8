//! The test suites' conventions on [`flexric::wire`] — short deadlines, one
//! codec, the monitoring fixtures — for `protocol.rs`, `stack.rs`,
//! `integration.rs` and `version_negotiation.rs`.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};

pub use flexric::wire::*;

use flexric::agent::AgentConfig;
use flexric::endpoint::{Backoff, RetryPolicy};
use flexric::relay::Bridge;
use flexric::server::ServerConfig;
use flexric_codec::E2apCodec;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig, MonitorCounters, StatsDb};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_transport::TransportAddr;

/// The E2AP codec of agents, bridges and controllers unless a config says otherwise.
pub const CODEC: E2apCodec = E2apCodec::Flatb;

/// Short deadlines so a terminal timeout is a few hundred virtual ms:
/// setup 40 + 80 + 100 + 100, subscription 20 + 40 + 80 + 100.
pub const RETRY: RetryPolicy = RetryPolicy {
    setup_deadline_ms: 40,
    subscription_deadline_ms: 20,
    delete_deadline_ms: 20,
    control_deadline_ms: 20,
    service_deadline_ms: 20,
    global_deadline_ms: 20,
    max_deadline_ms: 100,
    max_attempts: 4,
};
pub const SETUP_TERMINAL_MS: u64 = 320;
pub const SUB_TERMINAL_MS: u64 = 240;
pub const BACKOFF: Backoff = Backoff { initial_ms: 10, max_ms: 80 };
pub const GRACE_MS: u64 = 1_000;

/// Controller `at`'s config: [`CODEC`], [`RETRY`], a [`GRACE_MS`] window.
pub fn ctrl_cfg(at: usize) -> ServerConfig {
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr(at));
    (cfg.codec, cfg.retry, cfg.reconnect_grace_ms) = (CODEC, RETRY, GRACE_MS);
    cfg
}

/// The config of an agent for E2 node `node_id` that adds the controllers
/// (or bridges) at `addrs`: [`CODEC`], [`RETRY`], `reconnect`.
pub fn agent_cfg(node_id: u64, reconnect: Option<Backoff>, addrs: &[TransportAddr]) -> AgentConfig {
    let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, node_id);
    let mut cfg = AgentConfig::new(node, addrs[0].clone());
    (cfg.codec, cfg.retry, cfg.reconnect, cfg.controllers) =
        (CODEC, RETRY, reconnect, addrs.into());
    cfg
}

/// The south side of the next bridge on `w`, with `grace_ms`.
pub fn bridge_cfg(w: &Wire, grace_ms: u64) -> ServerConfig {
    let at = bridge_addr(w.bridges.len());
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 2), at);
    (cfg.codec, cfg.retry, cfg.reconnect_grace_ms) = (CODEC, RETRY, grace_ms);
    cfg
}

/// Starts a relay at `mem:b<index>` whose mirrors dial controller `upstream`.
pub fn start_relay(w: &mut Wire, upstream: usize) -> usize {
    let relay = Bridge::relay(&bridge_cfg(w, GRACE_MS), addr(upstream));
    w.add_bridge(relay)
}

/// What a [`MonitorApp`] stores.
pub type Db = Arc<Mutex<StatsDb>>;

/// Starts the next controller under `cfg` with one [`MonitorApp`].
pub fn start_monitor(
    w: &mut Wire,
    cfg: &ServerConfig,
    m: MonitorConfig,
) -> (Db, Arc<MonitorCounters>) {
    let (app, db, counters) = MonitorApp::new(m);
    w.start_ctrl_of(w.ctrls.len(), cfg, vec![vec![Box::new(app)]]);
    (db, counters)
}

/// `cells` NR cells, `ues` UEs in cell 0 with a greedy TCP download each.
pub fn greedy_sim(cells: usize, ues: u16) -> Arc<Mutex<Sim>> {
    let cells = (0..cells).map(|c| CellConfig::nr(&format!("cell{c}"), 106)).collect();
    let mut sim = Sim::new(cells, PathConfig::default());
    for i in 0..ues {
        let (rnti, kind) = (0x4601 + i, FlowKind::GreedyTcp { mss: 1500 });
        let tuple = (0x0A00_0001, 0x0A00_0100 + u32::from(i), 1000, 80, 6);
        sim.attach_ue(0, UeConfig::new(rnti, 20));
        sim.add_flow(FlowConfig { cell: 0, rnti, drb: 1, kind, tuple, start_ms: 0, stop_ms: None });
    }
    Arc::new(Mutex::new(sim))
}

/// Steps the simulator, then the wire, a millisecond at a time.
pub fn run(w: &mut Wire, sim: &Mutex<Sim>, ms: u64) {
    for _ in 0..ms {
        sim.lock().unwrap().tick();
        w.advance(1);
    }
}
