//! Fig. 11 — Sojourn times and VoIP RTT with and without the traffic
//! control xApp (paper §6.1.1).
//!
//! Workload, as in the paper: a G.711-like VoIP flow (172 B UDP every
//! 20 ms) starts at t=0; a greedy TCP (Cubic) flow starts 5 s later and
//! bloats the RLC buffer.  Two runs over the virtual-time simulator:
//!
//! * **transparent** — the TC sublayer passes everything through one FIFO
//!   (Fig. 11a): the VoIP packets share the bloated buffer;
//! * **xApp** — the full control loop runs: the RLC statistics flow
//!   through the FlexRIC controller to the broker; the bloat-guard xApp
//!   notices the sojourn limit violation and performs the paper's three
//!   actions over REST (second FIFO queue, 5-tuple filter for the VoIP
//!   flow, 5G-BDP pacer) (Fig. 11b).
//!
//! Output: sojourn time series for both runs and the VoIP RTT CDF
//! (Fig. 11c).
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig11_traffic_control [--secs 60]
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_bench::{table, Args};
use flexric_ctrl::ranfun::{full_bundle, BearerAddr, SimBs};
use flexric_ctrl::traffic::{spawn_rest, BloatGuardConfig, StatsForwarderApp, TcManagerApp};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use flexric_xapp::broker::Broker;

const RNTI: u16 = 0x4601;
const VOIP_PORT: u16 = 5004;

fn build_sim() -> (Sim, usize, usize) {
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    sim.attach_ue(0, UeConfig::new(RNTI, 20));
    let voip = sim.add_flow(FlowConfig {
        cell: 0,
        rnti: RNTI,
        drb: 1,
        kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
        tuple: (0x0A00_0001, 0x0A00_0002, 40_000, VOIP_PORT, 17),
        start_ms: 0,
        stop_ms: None,
    });
    let tcp = sim.add_flow(FlowConfig {
        cell: 0,
        rnti: RNTI,
        drb: 1,
        kind: FlowKind::GreedyTcp { mss: 1500 },
        tuple: (0x0A00_0001, 0x0A00_0002, 40_001, 80, 6),
        start_ms: 5_000,
        stop_ms: None,
    });
    (sim, voip, tcp)
}

/// One sample row of the sojourn series.
struct Sample {
    t_s: f64,
    rlc_sojourn_ms: f64,
    q0_sojourn_ms: f64,
    q1_sojourn_ms: f64,
}

fn run(secs: u64, with_xapp: bool) -> (Vec<Sample>, Vec<(u64, u64)>) {
    let (sim, voip, _tcp) = build_sim();
    let sim = Arc::new(Mutex::new(sim));

    let (mut agent, mut _broker) = (None, None);
    if with_xapp {
        // Full control loop: broker + controller (stats forwarder + TC
        // manager) + REST + bloat-guard xApp.
        let broker = Broker::spawn("127.0.0.1:0").expect("broker");
        let broker_addr = broker.addrs[0].to_string();
        let sm = SmCodec::Flatb;
        let fwd = StatsForwarderApp::new(
            sm,
            100,
            broker_addr.clone(),
            vec![BearerAddr { rnti: RNTI, drb: 1 }],
        );
        let mgr = TcManagerApp::new(sm);
        let mut cfg = ServerConfig::new(
            GlobalRicId::new(Plmn::TEST, 1),
            TransportAddr::Mem("fig11-ctrl".into()),
        );
        cfg.tick_ms = Some(10);
        let server = Server::spawn(cfg, vec![Box::new(fwd), Box::new(mgr)]).expect("server");
        let rest = spawn_rest("127.0.0.1:0", server.clone()).expect("rest");
        let rest_addr = rest.addr.to_string();

        let bs = SimBs::new(sim.clone(), 0);
        let mut acfg = AgentConfig::new(
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
            TransportAddr::Mem("fig11-ctrl".into()),
        );
        acfg.tick_ms = None;
        let a = Agent::spawn(acfg, full_bundle(&bs, sm)).expect("agent");
        agent = Some(a);
        // The broker serves for as long as its handle lives.
        _broker = Some(broker);

        std::thread::spawn(move || {
            let outcome = flexric_ctrl::traffic::run_bloat_guard(BloatGuardConfig {
                broker_addr,
                rest_addr,
                sojourn_limit_us: 20_000,
                protect_dst_port: VOIP_PORT,
                protect_proto: 17,
                pacer_target_us: 10_000,
            });
            match outcome {
                Ok((agent, rnti, drb)) => {
                    eprintln!("  xApp intervened: agent {agent}, rnti {rnti:#x}, drb {drb}")
                }
                Err(e) => eprintln!("  xApp error: {e}"),
            }
        });
    }

    // Virtual-time drive with periodic sampling.
    let mut samples = Vec::new();
    let total_ms = secs * 1000;
    let mut t = 0u64;
    while t < total_ms {
        // 100 ms of simulation per chunk, then yield so the control loop
        // (broker → xApp → REST → iApp → agent) can act.
        for _ in 0..100 {
            let now = {
                let mut s = sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            if let Some(a) = &agent {
                a.tick(now);
            }
            t += 1;
        }
        std::thread::yield_now();
        if with_xapp {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        // Sample the queues directly from the simulator.
        let (rlc_us, q0_us, q1_us) = {
            let mut s = sim.lock().unwrap();
            let rlc = s.cells[0].rlc_stats();
            let rlc_us = rlc.bearers.first().map(|b| b.sojourn_us_avg).unwrap_or(0);
            let tc = s.cells[0].tc_stats(RNTI, 1);
            let (q0_us, q1_us) = tc
                .map(|tc| {
                    let g = |id: u32| {
                        tc.queues.iter().find(|q| q.id == id).map(|q| q.sojourn_us_avg).unwrap_or(0)
                    };
                    (g(0), g(1))
                })
                .unwrap_or((0, 0));
            (rlc_us, q0_us, q1_us)
        };
        samples.push(Sample {
            t_s: t as f64 / 1000.0,
            rlc_sojourn_ms: rlc_us as f64 / 1000.0,
            q0_sojourn_ms: q0_us as f64 / 1000.0,
            q1_sojourn_ms: q1_us as f64 / 1000.0,
        });
    }
    // Let in-flight messages settle, then pull the RTT log.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let rtt_log = sim.lock().unwrap().flow(voip).rtt_log.clone();
    if let Some(a) = agent {
        a.stop();
    }
    (samples, rtt_log)
}

fn print_series(label: &str, samples: &[Sample]) {
    println!("\n# {label}: t_s  rlc_sojourn_ms  tc_q0_ms  tc_q1_ms");
    for s in samples.iter().step_by(10) {
        println!(
            "{:.1}\t{:.1}\t{:.1}\t{:.1}",
            s.t_s, s.rlc_sojourn_ms, s.q0_sojourn_ms, s.q1_sojourn_ms
        );
    }
}

fn cdf_rows(log: &[(u64, u64)]) -> Vec<(f64, f64)> {
    let mut rtts: Vec<u64> = log.iter().map(|(_, r)| *r / 1000).collect();
    rtts.sort_unstable();
    let n = rtts.len().max(1) as f64;
    [1, 5, 10, 25, 50, 75, 90, 95, 99, 100]
        .iter()
        .map(|p| {
            let idx = ((*p as f64 / 100.0) * n).ceil() as usize;
            (rtts.get(idx.saturating_sub(1)).copied().unwrap_or(0) as f64, *p as f64 / 100.0)
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let secs: u64 = args.get_or("secs", 60);

    table::experiment(
        "Fig. 11",
        "TC SM: sojourn times and VoIP RTT, transparent vs xApp (virtual-time sim)",
    );
    eprintln!("running transparent mode ({secs}s sim)...");
    let (ts, rtt_transparent) = run(secs, false);
    eprintln!("running xApp mode ({secs}s sim)...");
    let (xs, rtt_xapp) = run(secs, true);

    print_series("Fig. 11a transparent", &ts);
    print_series("Fig. 11b with TC xApp", &xs);

    println!("\n# Fig. 11c: VoIP RTT CDF (delay_ms, fraction)");
    println!("# transparent");
    for (ms, f) in cdf_rows(&rtt_transparent) {
        println!("{ms:.0}\t{f:.2}");
    }
    println!("# xApp");
    for (ms, f) in cdf_rows(&rtt_xapp) {
        println!("{ms:.0}\t{f:.2}");
    }

    let avg = |log: &[(u64, u64)], from_ms: u64| {
        let v: Vec<u64> =
            log.iter().filter(|(t, _)| *t >= from_ms).map(|(_, r)| *r / 1000).collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    let t_avg = avg(&rtt_transparent, 10_000);
    let x_avg = avg(&rtt_xapp, 10_000);
    println!();
    println!(
        "steady-state VoIP RTT: transparent {t_avg:.0} ms, xApp {x_avg:.0} ms ({:.1}x faster)",
        t_avg / x_avg.max(1.0)
    );
    println!("Paper shape check: transparent RTT inflates to hundreds of ms once the");
    println!("greedy flow starts; with the xApp the VoIP flow stays ~4x faster, and the");
    println!("bloat is confined to TC queue 0 while the RLC buffer stays uncongested.");
}
