//! SLA closed-loop A/B under scenario load: open-loop (static NVS
//! shares) vs closed-loop (the `ctrl::sla` xApp re-solving shares) while
//! the scenario engine drives mobility, churn and outages.
//!
//! For each preset the same seeded scenario runs twice through the full
//! stack — simulator, per-cell agents, monitoring iApp (slice + RLC rows)
//! and SLA iApp on one controller shard — once with the loop disabled and
//! once enabled.  Everything runs on [`flexric::wire`]: one thread, one
//! virtual clock, each millisecond the simulator and the scenario engine
//! step, then every agent and the controller.  The figure of merit is
//! SLA-violation time in *virtual* seconds; the scenario event trace is
//! identical between the two arms (engine decisions never read cell
//! throughput), so the comparison is paired, and a run is a function of
//! its seed.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig_sla_scenario \
//!     [--ms 30000] [--seed 7] [--out BENCH_sla.json] [--require-improvement]
//! ```

use std::sync::{Arc, Mutex};

use flexric_xapp::json;

use flexric::agent::AgentConfig;
use flexric::server::ServerConfig;
use flexric::wire::{addr, Wire};
use flexric_bench::{snapshot, table, write_snapshot, Args};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::sla::{SlaApp, SlaConfig, SlaLedger};
use flexric_ctrl::sla_solver::SlaTarget;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::scenario::{ScenarioEvent, ScenarioStats};
use flexric_ransim::{ScenarioEngine, ScenarioSpec};
use flexric_sm::SmCodec;

/// SLOs for the preset slice layout (voip / web / mbb).  `mbb` carries no
/// objective: it is the donor the solver shrinks when others starve.
fn targets() -> Vec<SlaTarget> {
    vec![
        SlaTarget { slice: 0, thr_kbps_min: 0.0, delay_ms_max: 8.0, floor_milli: 100 },
        SlaTarget { slice: 1, thr_kbps_min: 2_000.0, delay_ms_max: 40.0, floor_milli: 100 },
        SlaTarget { slice: 2, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 100 },
    ]
}

struct ArmResult {
    ledger: SlaLedger,
    trace_hash: u64,
    stats: ScenarioStats,
}

/// One full-stack run of `spec`; `closed` enables the SLA loop.
fn run_arm(spec: ScenarioSpec, closed: bool, dur_ms: u64) -> ArmResult {
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

    let mut w = Wire::default();
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr(0));
    // Longer than any preset's outage (flash-crowd's lasts 4 s): a cell's
    // agent that comes back rebinds to its agent id and is resubscribed.
    cfg.reconnect_grace_ms = 10_000;
    // The SLA loop reads the monitor's store, and a shard controls only
    // the agents it holds: both iApps run on the one shard.
    w.start_ctrl_of(0, &cfg, vec![vec![Box::new(monitor), Box::new(sla)]]);
    let bundle = |cell| full_bundle(&SimBs::new(sim.clone(), cell), SmCodec::Flatb);
    for cell in 0..cells {
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1 + cell as u64);
        w.start_agent_of(AgentConfig::new(node, addr(0)), bundle(cell));
    }

    for _ in 0..dur_ms {
        {
            let mut s = sim.lock().unwrap();
            s.tick();
            engine.advance(&mut s);
        }
        for (_, ev) in engine.drain_events() {
            match ev {
                // The cell's agent dies for the outage: grace and replay
                // on its return.
                ScenarioEvent::CellOutage { cell } => w.stop_agent(cell),
                ScenarioEvent::CellRecover { cell } => w.restart_agent(cell, bundle(cell)),
                _ => {}
            }
        }
        w.advance(1);
    }
    let ledger = w.call(0, 0, |sla: &mut SlaApp, api| sla.poll(api));
    ArmResult { ledger, trace_hash: engine.trace_hash(), stats: engine.stats }
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
    for preset in ["commuter-rush", "flash-crowd"] {
        let spec = ScenarioSpec::preset(preset, seed).expect("preset");
        let open = run_arm(spec.clone(), false, dur_ms);
        let closed = run_arm(spec, true, dur_ms);
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
            open.stats.handovers.to_string(),
            open.stats.outages.to_string(),
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
                "handovers": arm.stats.handovers,
                "arrivals": arm.stats.arrivals,
                "departures": arm.stats.departures,
                "outages": arm.stats.outages,
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
            "Full stack on flexric::wire, one virtual clock: paired A/B per preset over \
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
