//! SLA closed-loop A/B under scenario load: open-loop (static NVS
//! shares) vs closed-loop (the `ctrl::sla` xApp re-solving shares) while
//! the scenario engine drives mobility, churn and outages.
//!
//! For each preset the same seeded scenario runs twice through the full
//! stack — simulator, per-cell agents over the mem transport, monitoring
//! iApp (slice + RLC rows), SLA iApp — once with the loop disabled and
//! once enabled.  The figure of merit is SLA-violation time in *virtual*
//! seconds; the scenario event trace is identical between the two arms
//! (engine decisions never read cell throughput), so the comparison is
//! paired.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig_sla_scenario \
//!     [--ms 30000] [--seed 7] [--out BENCH_sla.json] [--require-improvement]
//! ```

use std::sync::{Arc, Mutex};

use flexric_xapp::json;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{Server, ServerConfig, ServerHandle};
use flexric_bench::{fleet, snapshot, table, write_snapshot, Args};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::sla::{self, SlaApp, SlaConfig, SlaLedger};
use flexric_ctrl::sla_solver::SlaTarget;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::scenario::ScenarioEvent;
use flexric_ransim::{ScenarioEngine, ScenarioSpec, Sim};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

/// Virtual-time spacing of agent ticks (report opportunities).
const AGENT_TICK_MS: u64 = 10;

/// SLOs for the preset slice layout (voip / web / mbb).  `mbb` carries no
/// objective: it is the donor the solver shrinks when others starve.
fn targets() -> Vec<SlaTarget> {
    vec![
        SlaTarget { slice: 0, thr_kbps_min: 0.0, delay_ms_max: 8.0, floor_milli: 100 },
        SlaTarget { slice: 1, thr_kbps_min: 2_000.0, delay_ms_max: 40.0, floor_milli: 100 },
        SlaTarget { slice: 2, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 100 },
    ]
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

struct ArmResult {
    ledger: SlaLedger,
    trace_hash: u64,
    handovers: u64,
    arrivals: u64,
    departures: u64,
    outages: u64,
}

/// One full-stack run of `spec`; `closed` enables the SLA loop.
fn run_arm(spec: ScenarioSpec, closed: bool, dur_ms: u64, run_id: usize) -> ArmResult {
    let mut engine = ScenarioEngine::new(spec);
    let mut sim = engine.build_sim();
    engine.prime(&mut sim);
    let cells = sim.cells.len();
    let sim = Arc::new(Mutex::new(sim));

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
    let sla = SlaApp::new(SlaConfig::new(db, targets(), closed));

    let addr = TransportAddr::Mem(format!("sla-scenario-{run_id}"));
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.tick_ms = Some(20);
    cfg.reconnect_grace_ms = 10_000; // outages are short in wall time
    let server = Server::spawn(cfg, vec![Box::new(monitor), Box::new(sla)]).expect("controller");

    let mut agents: Vec<Option<AgentHandle>> = Vec::new();
    for cell in 0..cells {
        agents.push(Some(spawn_agent(&sim, cell, &server)));
    }

    // Monitoring wants MAC + RLC + slice rows per agent.
    fleet::await_subs(&server, cells as u64 * 3);

    let steps = dur_ms / AGENT_TICK_MS;
    for step in 1..=steps {
        {
            let mut s = sim.lock().unwrap();
            for _ in 0..AGENT_TICK_MS {
                s.tick();
                engine.advance(&mut s);
            }
        }
        let now = step * AGENT_TICK_MS;
        for ev in engine.drain_events() {
            match ev.1 {
                ScenarioEvent::CellOutage { cell } => {
                    // The cell's agent loses its transport for the
                    // outage, exercising grace + resubscribe on return.
                    if let Some(a) = agents[cell].take() {
                        a.stop();
                    }
                }
                ScenarioEvent::CellRecover { cell } => {
                    agents[cell] = Some(spawn_agent(&sim, cell, &server));
                }
                _ => {}
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
            // Force an evaluation sweep every 100 virtual ms: indications
            // route to the monitor, so the SLA loop samples the store on
            // polls/ticks — awaiting the reply pins the cadence to
            // virtual time instead of the wall-clock server tick.
            let _ = sla::poll(&server);
        }
    }
    // Let the last indications land, then flush the accounting.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let ledger = sla::poll(&server).expect("the controller runs the sla iApp");

    for a in agents.iter().flatten() {
        a.stop();
    }
    server.stop();
    ArmResult {
        ledger,
        trace_hash: engine.trace_hash(),
        handovers: engine.stats.handovers,
        arrivals: engine.stats.arrivals,
        departures: engine.stats.departures,
        outages: engine.stats.outages,
    }
}

fn main() {
    let args = Args::parse();
    let dur_ms: u64 = args.get_or("ms", 30_000u64);
    let seed: u64 = args.get_or("seed", 7u64);
    let out = args.get("out").unwrap_or("BENCH_sla.json").to_owned();
    let gate = args.has("require-improvement");

    table::experiment(
        "SLA scenario A/B",
        "open-loop vs closed-loop NVS shares under mobility + churn + outages",
    );

    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut all_improved = true;
    for (i, preset) in ["commuter-rush", "flash-crowd"].iter().enumerate() {
        let spec = ScenarioSpec::preset(preset, seed).expect("preset");
        let open = run_arm(spec.clone(), false, dur_ms, i * 2);
        let closed = run_arm(spec, true, dur_ms, i * 2 + 1);
        assert_eq!(
            open.trace_hash, closed.trace_hash,
            "scenario must be identical across arms (paired comparison)"
        );
        let open_s = open.ledger.total_violation_ms() as f64 / 1000.0;
        let closed_s = closed.ledger.total_violation_ms() as f64 / 1000.0;
        all_improved &= closed_s < open_s;
        rows.push(vec![
            preset.to_string(),
            table::f(open_s),
            table::f(closed_s),
            table::f((1.0 - closed_s / open_s.max(1e-9)) * 100.0),
            closed.ledger.pushes.to_string(),
            open.handovers.to_string(),
            open.outages.to_string(),
        ]);
        for (name, arm) in [("open", &open), ("closed", &closed)] {
            points.push(json!({
                "preset": preset,
                "loop": name,
                "virtual_ms": dur_ms,
                "violation_s": if name == "open" { open_s } else { closed_s },
                "violation_ms_by_slice": arm.ledger.violation_ms,
                "evals": arm.ledger.evals,
                "pushes": arm.ledger.pushes,
                "acks": arm.ledger.acks,
                "failures": arm.ledger.failures,
                "handovers": arm.handovers,
                "arrivals": arm.arrivals,
                "departures": arm.departures,
                "outages": arm.outages,
                "trace_hash": format!("{:016x}", arm.trace_hash),
            }));
        }
    }
    table::table(
        &[
            "preset",
            "open_viol_s",
            "closed_viol_s",
            "reduction_%",
            "pushes",
            "handovers",
            "outages",
        ],
        &rows,
    );

    let doc = snapshot(
        "sla_scenario",
        "fig_sla_scenario",
        &format!(
            "Full stack over the mem transport in virtual time: paired A/B per preset over \
             {dur_ms} virtual ms, seed {seed}: identical scenario trace (hash-checked), \
             SLA-violation virtual seconds accounted by the sla iApp from SliceStatsInd + RLC \
             sojourn rows."
        ),
        json!({ "virtual_ms": dur_ms, "seed": seed }),
        points,
    );
    write_snapshot(&out, &doc);

    if gate && !all_improved {
        eprintln!("FAIL: closed loop did not reduce SLA-violation time on every preset");
        std::process::exit(1);
    }
}
