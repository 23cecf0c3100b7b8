//! Robustness end-to-end: a scenario-scheduled cell outage drops the
//! owning agent's transport mid-run; the agent returns inside the
//! reconnect grace window, the server rebinds it to its old [`AgentId`]
//! and replays every subscription, and the restarted delta streams
//! resync through fresh keyframes — with the reconstructed monitoring
//! content checked against the simulator's cumulative ground truth.
//!
//! This must stay the ONLY full-stack test in this binary: the obs
//! registry is process-global and the conservation assertions below are
//! written against a single stack's counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{Server, ServerConfig, ServerHandle};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig, MonitorMode};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::Snapshot;
use flexric_ransim::scenario::{OutageSpec, ScenarioEvent, ScenarioSpec};
use flexric_ransim::{ScenarioEngine, Sim};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

/// Virtual-time spacing of agent ticks == the monitor report period, so
/// every tick is a due report and the last report carries final state.
const TICK_MS: u64 = 10;
const DUR_MS: u64 = 4_000;
const OUTAGE_AT_MS: u64 = 1_000;
const OUTAGE_DUR_MS: u64 = 600;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter_value(name).unwrap_or_else(|| panic!("{name} not in registry"))
}

fn spawn_agent(sim: &Arc<Mutex<Sim>>, cell: usize, server: &ServerHandle) -> AgentHandle {
    let bs = SimBs::new(sim.clone(), cell);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1 + cell as u64),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = None; // virtual-time driven
    Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent")
}

#[test]
fn outage_reconnect_replays_subscriptions_and_resyncs_deltas() {
    if cfg!(feature = "obs-off") {
        return; // the invariants below are counter-based
    }
    // A frozen-population scenario (no churn, no mobility) with one
    // scheduled outage: the only dynamics are the outage, its forced
    // handovers, and the recovery — so the ground-truth comparison at
    // the end is exact.
    let mut spec = ScenarioSpec::calm(42);
    spec.cells = 2;
    spec.initial_ues = 8;
    spec.mobility.step_ms = 0;
    spec.churn.arrival_mean_ms = 0;
    spec.churn.stay_mean_ms = u64::MAX / 128;
    spec.outages = vec![OutageSpec { at_ms: OUTAGE_AT_MS, cell: 0, dur_ms: OUTAGE_DUR_MS }];
    let mut engine = ScenarioEngine::new(spec);
    let mut sim = engine.build_sim();
    engine.prime(&mut sim);
    let cells = sim.cells.len();
    let sim = Arc::new(Mutex::new(sim));

    // Delta monitoring with a keyframe cadence far beyond the run
    // length: the only keyframes are stream starts, so the replayed
    // subscriptions after the reconnect are visible as an exact bump.
    let mcfg = MonitorConfig {
        period_ms: TICK_MS as u32,
        sm_codec: SmCodec::Flatb,
        mac: true,
        rlc: true,
        pdcp: false,
        mode: MonitorMode::Delta,
        keyframe_every: 100_000,
        ..Default::default()
    };
    let (monitor, db, _counters) = MonitorApp::new(mcfg);

    let addr = TransportAddr::Mem("robustness-outage".to_owned());
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.tick_ms = Some(20);
    cfg.reconnect_grace_ms = 30_000; // outage is short in wall time
    let server = Server::spawn(cfg, vec![Box::new(monitor)]).expect("controller");

    let mut agents: Vec<Option<AgentHandle>> = Vec::new();
    for cell in 0..cells {
        agents.push(Some(spawn_agent(&sim, cell, &server)));
    }

    // MAC + RLC per agent.
    let want_subs = cells as u64 * 2;
    for _ in 0..200 {
        if server.stats().unwrap().subs >= want_subs {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().unwrap().subs, want_subs, "subscriptions established");

    let mut keyframes_at_outage = None;
    let mut saw_recovery = false;
    let steps = DUR_MS / TICK_MS;
    for step in 1..=steps {
        {
            let mut s = sim.lock().unwrap();
            for _ in 0..TICK_MS {
                s.tick();
                engine.advance(&mut s);
            }
        }
        for ev in engine.drain_events() {
            match ev.1 {
                ScenarioEvent::CellOutage { cell } => {
                    // Let in-flight indications land, then cut the
                    // transport: the subscription state must survive in
                    // the server's grace window.
                    std::thread::sleep(Duration::from_millis(20));
                    if let Some(a) = agents[cell].take() {
                        a.stop();
                    }
                    keyframes_at_outage =
                        Some(counter(&flexric_obs::snapshot(), "flexric_sm_keyframes_total"));
                }
                ScenarioEvent::CellRecover { cell } => {
                    agents[cell] = Some(spawn_agent(&sim, cell, &server));
                    saw_recovery = true;
                }
                _ => {}
            }
        }
        for a in agents.iter().flatten() {
            a.tick(step * TICK_MS);
        }
        if step % 10 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        } else {
            // A round trip through each live agent's queue: none lags the
            // simulator by more than a step.
            for a in agents.iter().flatten() {
                let _ = a.stats();
            }
        }
    }
    assert_eq!(engine.stats.outages, 1, "the scheduled outage fired");
    assert!(saw_recovery, "the outaged cell recovered inside the run");
    let keyframes_at_outage = keyframes_at_outage.expect("outage observed");

    // Settle until the tail of in-flight indications lands.
    let mut snap = flexric_obs::snapshot();
    for _ in 0..200 {
        let sent = counter(&snap, "flexric_agent_indications_sent_total");
        let rx = counter(&snap, "flexric_server_indications_rx_total");
        if sent > 0 && sent == rx {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
        snap = flexric_obs::snapshot();
    }

    // Zero silent loss across the outage: everything sent arrived and
    // decoded, and no delta stream ever lost sync — the restart shows up
    // as fresh keyframes, not as a resync or a decode error.
    let sent = counter(&snap, "flexric_agent_indications_sent_total");
    let rx = counter(&snap, "flexric_server_indications_rx_total");
    assert!(sent > 100, "expected a steady indication stream, got {sent}");
    assert_eq!(sent, rx, "every indication sent must be received");
    assert_eq!(counter(&snap, "flexric_agent_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_server_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_sm_delta_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_sm_delta_resyncs_total"), 0);

    // The reconnect rebound the agent to its old id and replayed its
    // subscriptions...
    let stats = server.stats().unwrap();
    assert!(stats.reconnects >= 1, "agent must rebind within the grace window");
    assert_eq!(stats.subs, want_subs, "replay restores every subscription");
    // ...and the replayed MAC + RLC delta streams restarted with forced
    // keyframes: exactly one stream start per subscription at t = 0,
    // exactly one more per replayed subscription after the reconnect
    // (keyframe_every is far beyond the run length, so cadence adds none).
    assert_eq!(keyframes_at_outage, want_subs, "one keyframe per stream start");
    assert_eq!(
        counter(&snap, "flexric_sm_keyframes_total"),
        keyframes_at_outage + 2,
        "replayed MAC + RLC streams must re-key after the reconnect"
    );

    // Ground truth: the reconstructed MAC content per agent equals the
    // simulator's cumulative per-UE counters (kpm_counters never resets),
    // including everything that happened while the cell was dark.
    let truths: Vec<BTreeMap<u16, u64>> = sim
        .lock()
        .unwrap()
        .cells
        .iter()
        .map(|c| c.kpm_counters().iter().map(|k| (k.rnti, k.dl_bytes_total)).collect())
        .collect();
    assert!(
        truths.iter().any(|t| !t.is_empty()),
        "forced handovers left every UE on the surviving cell"
    );
    let db_agents = db.lock().unwrap().agents();
    assert_eq!(db_agents.len(), cells, "reconnect must not mint a new agent id");
    let mut matched = vec![false; truths.len()];
    for &agent_id in &db_agents {
        let mac = db.lock().unwrap().mac(agent_id).expect("MAC snapshot decodes");
        let stored: BTreeMap<u16, u64> =
            mac.ues.iter().map(|u| (u.rnti, u.dl_aggr_bytes)).collect();
        let hit = truths
            .iter()
            .position(|t| *t == stored)
            .unwrap_or_else(|| panic!("agent {agent_id}: stored MAC content matches no cell"));
        assert!(!matched[hit], "two agents reconstructed to the same cell");
        matched[hit] = true;
    }

    for a in agents.iter().flatten() {
        a.stop();
    }
    server.stop();
}
