//! Closed-loop SLA xApp demo: the scenario engine drives mobility, churn
//! and an outage through a two-cell deployment while the `sla` iApp
//! watches per-slice throughput and RLC sojourn delay out of the
//! monitoring store and re-solves the NVS shares whenever a slice misses
//! its objective — pushing the new shares through the same SC SM control
//! path a `curl` xApp would use.
//!
//! ```text
//! cargo run --release --example sla_demo
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{Server, ServerConfig, ServerHandle};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::sla::{self, SlaApp, SlaConfig, SlaLedger};
use flexric_ctrl::sla_solver::SlaTarget;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::scenario::ScenarioEvent;
use flexric_ransim::{ScenarioEngine, ScenarioSpec, Sim};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

const TICK_MS: u64 = 10;
const DUR_MS: u64 = 30_000;

fn spawn_agent(sim: &Arc<Mutex<Sim>>, cell: usize, server: &ServerHandle) -> AgentHandle {
    let bs = SimBs::new(sim.clone(), cell);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1 + cell as u64),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = None;
    Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent")
}

fn ledger(server: &ServerHandle) -> SlaLedger {
    sla::poll(server).expect("the controller runs the sla iApp")
}

fn main() {
    // The commuter-rush preset: fast UEs shuttling between two cells,
    // diurnal churn, one mid-run outage.
    let spec = ScenarioSpec::preset("commuter-rush", 7).unwrap();
    println!("scenario: {} (seed {}, {} cells)", spec.name, spec.seed, spec.cells);
    let mut engine = ScenarioEngine::new(spec);
    let mut sim = engine.build_sim();
    engine.prime(&mut sim);
    let cells = sim.cells.len();
    let sim = Arc::new(Mutex::new(sim));

    // SLOs: voip wants bounded delay, web wants throughput + bounded
    // delay, mbb is the objective-free donor the solver shrinks.
    let targets = vec![
        SlaTarget { slice: 0, thr_kbps_min: 0.0, delay_ms_max: 8.0, floor_milli: 100 },
        SlaTarget { slice: 1, thr_kbps_min: 2_000.0, delay_ms_max: 40.0, floor_milli: 100 },
        SlaTarget { slice: 2, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 100 },
    ];

    let mcfg = MonitorConfig {
        period_ms: 20,
        sm_codec: SmCodec::Flatb,
        mac: true,
        rlc: true,
        pdcp: false,
        slice: true,
        stale_ttl_ms: Some(5_000),
        ..Default::default()
    };
    let (monitor, db, _counters) = MonitorApp::new(mcfg);
    let sla = SlaApp::new(SlaConfig::new(db, targets, true));

    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::Mem("sla-demo".to_owned()),
    );
    cfg.tick_ms = Some(20);
    cfg.reconnect_grace_ms = 10_000;
    let server = Server::spawn(cfg, vec![Box::new(monitor), Box::new(sla)]).expect("ric");
    println!("controller up: monitoring + sla iApps, E2 on {}", server.addrs[0]);

    let mut agents: Vec<Option<AgentHandle>> = Vec::new();
    for cell in 0..cells {
        agents.push(Some(spawn_agent(&sim, cell, &server)));
    }
    let want_subs = cells as u64 * 3; // MAC + RLC + slice per agent
    for _ in 0..400 {
        if server.stats().unwrap().subs >= want_subs {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Accelerated virtual-time drive: ~30 virtual seconds of scenario.
    let mut last_viol = 0;
    for step in 1..=(DUR_MS / TICK_MS) {
        {
            let mut s = sim.lock().expect("lock poisoned");
            for _ in 0..TICK_MS {
                s.tick();
                engine.advance(&mut s);
            }
        }
        let now = step * TICK_MS;
        for ev in engine.drain_events() {
            match ev.1 {
                ScenarioEvent::UeArrive { rnti, cell, .. } => {
                    println!("[{now:>6} ms] UE {rnti:#06x} arrives in cell {cell}");
                }
                ScenarioEvent::UeDepart { rnti, cell } => {
                    println!("[{now:>6} ms] UE {rnti:#06x} departs cell {cell}");
                }
                ScenarioEvent::Handover { rnti, from, to, forced } => {
                    let why = if forced { "outage" } else { "A3" };
                    println!("[{now:>6} ms] UE {rnti:#06x} hands over {from} → {to} ({why})");
                }
                ScenarioEvent::CellOutage { cell } => {
                    println!("[{now:>6} ms] cell {cell} DARK — dropping its agent");
                    if let Some(a) = agents[cell].take() {
                        a.stop();
                    }
                }
                ScenarioEvent::CellRecover { cell } => {
                    println!("[{now:>6} ms] cell {cell} back — agent reconnects");
                    agents[cell] = Some(spawn_agent(&sim, cell, &server));
                }
            }
        }
        for a in agents.iter().flatten() {
            a.tick(now);
        }
        // A round trip through each live agent's queue: none lags the
        // simulator's clock.
        for a in agents.iter().flatten() {
            let _ = a.stats();
        }
        if step % 10 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Every 5 virtual seconds, show how the ledger is moving.
        if now.is_multiple_of(5_000) {
            let led = ledger(&server);
            let total = led.total_violation_ms();
            println!(
                "[{now:>6} ms] ledger: {:.1} violation-s (+{:.1}), {} evals, {} share pushes, {} acks",
                total as f64 / 1e3,
                (total - last_viol) as f64 / 1e3,
                led.evals,
                led.pushes,
                led.acks,
            );
            last_viol = total;
        }
    }

    let led = ledger(&server);
    println!(
        "\nfinal: {:.1} SLA-violation seconds over {} virtual s",
        led.total_violation_ms() as f64 / 1e3,
        DUR_MS / 1_000
    );
    for (slice, ms) in &led.violation_ms {
        println!("  slice {slice}: {:.1} s", *ms as f64 / 1e3);
    }
    println!(
        "scenario: {} handovers, {} arrivals, {} departures, {} outages",
        engine.stats.handovers,
        engine.stats.arrivals,
        engine.stats.departures,
        engine.stats.outages
    );

    for a in agents.iter().flatten() {
        a.stop();
    }
    server.stop();
}
