//! Adaptive monitoring end-to-end over the mem transport: delta-encoded
//! indications reconstruct byte-identically at the controller while
//! server-driven retunes (anomaly tightening) fire against the live
//! subscription procedure.
//!
//! The stack test must be the ONLY full-stack test in this binary: the
//! obs registry is process-global, and `cargo test` runs every test of
//! one binary in one process, so a second stack here would pollute the
//! counters the invariants are written against.
//!
//! Determinism trick: agent ticks are spaced by the adaptive *maximum*
//! period (1000 ms of virtual time), so every tick is due regardless of
//! how the server retunes the report period in between — each dummy
//! function steps its KPI generator exactly once per tick, and an
//! identically-seeded generator stepped the same number of times is the
//! ground truth for the reconstructed store content.

use std::time::Duration;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::dummy::dummy_bundle_time_varying;
use flexric_ctrl::monitoring::{AdaptiveConfig, MonitorApp, MonitorConfig, MonitorMode};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::{SnapValue, Snapshot};
use flexric_ransim::kpi::KpiGen;
use flexric_sm::delta::content_hash;
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

const AGENTS: u64 = 2;
const UES: u16 = 8;
const TICKS: u64 = 300;
/// Virtual-time tick spacing ≥ the maximum retunable period.
const TICK_MS: u64 = 1_000;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter_value(name).unwrap_or_else(|| panic!("{name} not in registry"))
}

/// Sum of all series of `name` whose label string contains `label_frag`.
fn labeled_sum(snap: &Snapshot, name: &str, label_frag: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name && m.labels.contains(label_frag))
        .map(|m| match m.value {
            SnapValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .sum()
}

#[test]
fn delta_conservation_and_retuning_over_mem() {
    if cfg!(feature = "obs-off") {
        return; // counters are compiled out; nothing to conserve
    }
    let mcfg = MonitorConfig {
        period_ms: 4, // above min_period_ms so an anomaly has room to tighten
        sm_codec: SmCodec::Flatb,
        mode: MonitorMode::Adaptive,
        adaptive: AdaptiveConfig { min_period_ms: 1, quiet_periods: 4, ..Default::default() },
        ..Default::default()
    };
    let (monitor, db, counters) = MonitorApp::new(mcfg);
    let (rdb, rcounters) = (db.clone(), counters.clone());
    let addr = TransportAddr::Mem("adaptive-e2e".to_owned());
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.tick_ms = Some(20);
    cfg.shards = 1;
    let mut first = Some(monitor);
    let server = Server::spawn_sharded(cfg, move |_shard| {
        let app = first
            .take()
            .unwrap_or_else(|| MonitorApp::replica(mcfg, rdb.clone(), rcounters.clone()));
        vec![Box::new(app) as Box<dyn flexric::server::IApp>]
    })
    .unwrap();

    let mut agents: Vec<AgentHandle> = Vec::new();
    for i in 0..AGENTS {
        let mut acfg =
            AgentConfig::new(GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1 + i), addr.clone());
        acfg.tick_ms = None;
        agents.push(Agent::spawn(acfg, dummy_bundle_time_varying(UES, SmCodec::Flatb, i)).unwrap());
    }

    // Wait until all MAC+RLC+PDCP subscriptions are established.
    let want_subs = AGENTS * 3;
    for _ in 0..200 {
        if server.stats().unwrap().subs >= want_subs {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.stats().unwrap().subs, want_subs, "subscriptions established");

    // Drive the workload: every tick is due for every subscription (see
    // module docs), so each function steps its generator exactly once per
    // tick.  Yield regularly so indications and retunes flow.
    for i in 1..=TICKS {
        for a in &agents {
            a.tick(i * TICK_MS);
        }
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        } else {
            // A round trip through each agent's queue: none lags the clock.
            for a in &agents {
                let _ = a.stats();
            }
        }
    }

    // Settle: poll until the last in-flight indications have landed.
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

    // Conservation: every indication sent arrived, nothing failed to
    // decode at any layer, and no delta stream ever lost sync (the mem
    // transport is ordered and lossless).
    let sent = counter(&snap, "flexric_agent_indications_sent_total");
    let rx = counter(&snap, "flexric_server_indications_rx_total");
    assert!(sent > 100, "expected a steady indication stream, got {sent}");
    assert_eq!(sent, rx, "every indication sent must be received");
    assert_eq!(counter(&snap, "flexric_agent_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_server_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_sm_delta_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_sm_delta_resyncs_total"), 0, "no loss on mem transport");

    // The delta machinery actually engaged: keyframes at the cadence,
    // deltas in between, suppression during the quiet phases.
    assert!(counter(&snap, "flexric_sm_keyframes_total") > 0, "keyframes emitted");
    assert!(
        labeled_sum(&snap, "flexric_sm_report_bytes_total", "delta") > 0,
        "delta frames emitted"
    );
    assert!(counter(&snap, "flexric_sm_reports_suppressed_total") > 0, "quiet phases suppress");

    // Server-driven retuning fired: the workload's burst phase crosses the
    // anomaly thresholds, which tightens the 4 ms period to 1 ms through
    // the live subscription procedure (same request id, new trigger).
    assert!(
        labeled_sum(&snap, "flexric_ctrl_retunes_total", "tighten") > 0,
        "burst anomaly must tighten the report period"
    );

    // Byte-identity: the reconstructed store content equals an
    // identically-seeded generator stepped once per tick.  Timestamps are
    // excluded (a suppressed tail leaves the store a few frozen-content
    // ticks behind), which is exactly the delta-stream contract.
    let truths: Vec<KpiGen> = (0..AGENTS)
        .map(|seed| {
            let mut g = KpiGen::new(seed, UES as usize);
            for t in 1..=TICKS {
                g.step(t * TICK_MS);
            }
            g
        })
        .collect();
    let db_agents = db.lock().unwrap().agents();
    assert_eq!(db_agents.len(), AGENTS as usize, "stats stored for every agent");
    let mut matched = vec![false; truths.len()];
    for &agent_id in &db_agents {
        let db = db.lock().unwrap();
        let mac = db.mac(agent_id).expect("MAC snapshot decodes");
        let rlc = db.rlc(agent_id).expect("RLC snapshot decodes");
        let pdcp = db.pdcp(agent_id).expect("PDCP snapshot decodes");
        assert_eq!(mac.ues.len(), UES as usize);
        // Agent-id assignment order is a server detail; each stored state
        // must match exactly one ground-truth generator on all three SMs.
        let hit = truths.iter().position(|g| {
            content_hash(&mac) == content_hash(g.mac())
                && content_hash(&rlc) == content_hash(g.rlc())
                && content_hash(&pdcp) == content_hash(g.pdcp())
        });
        let hit = hit.unwrap_or_else(|| {
            panic!("agent {agent_id:?}: reconstructed content matches no ground truth")
        });
        assert!(!matched[hit], "two agents reconstructed to the same ground truth");
        matched[hit] = true;
    }

    for a in &agents {
        a.stop();
    }
    server.stop();
}
