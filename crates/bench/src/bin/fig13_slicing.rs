//! Fig. 13 — RAT-unaware slicing: isolation and sharing (paper §6.1.2).
//!
//! An NR cell (106 RB, MCS 20) with saturating downlink per UE, driven in
//! virtual time through the full slicing-controller stack (SC SM → server
//! library → REST northbound → curl-style xApp commands).
//!
//! **Fig. 13a timeline** (isolation): t1 — two UEs, no slicing (equal
//! share); t2 — a third UE connects (the "white" UE drops below 50 %);
//! t3 — the xApp deploys NVS 50/50 and associates the white UE to slice 0
//! (its 50 % is restored); t4 — slice 0 is reconfigured to 66 %.
//!
//! **Fig. 13b** (sharing): two UEs on slices of 66 %/34 %; the 34 % slice
//! goes idle mid-run.  Without sharing its slots are wasted; with sharing
//! the 66 % slice takes them (+50 % throughput).
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig13_slicing [--phase-secs 15]
//! ```

use std::sync::{Arc, Mutex};

use flexric_xapp::json;

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::server::{Server, ServerConfig, ServerHandle};
use flexric_bench::{table, Args};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::slicing::{spawn_rest, SliceApp};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use flexric_xapp::http::HttpClient;

const MCS: u8 = 20;

struct Stack {
    sim: Arc<Mutex<Sim>>,
    agent: AgentHandle,
    server: ServerHandle,
    rest: String,
    flows: Vec<usize>,
}

fn build_stack(name: &str, ues: &[u16]) -> Stack {
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    let mut flows = Vec::new();
    for (i, rnti) in ues.iter().enumerate() {
        sim.attach_ue(0, UeConfig::new(*rnti, MCS));
        flows.push(sim.add_flow(FlowConfig {
            cell: 0,
            rnti: *rnti,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A00_0001, 0x0A00_0100 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        }));
    }
    let sim = Arc::new(Mutex::new(sim));

    let sm = SmCodec::Flatb;
    let (slice_app, latest) = SliceApp::new(sm, 500);
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::Mem(format!("fig13-{name}")),
    );
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(slice_app)]).expect("server");
    let rest = spawn_rest("127.0.0.1:0", server.clone(), latest).expect("rest");

    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        TransportAddr::Mem(format!("fig13-{name}")),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, sm)).expect("agent");
    std::thread::sleep(std::time::Duration::from_millis(100));

    Stack { sim, agent, server, rest: rest.addr.to_string(), flows }
}

/// Runs `ms` of virtual time, sampling per-flow throughput every 500 ms.
fn run_phase(stack: &Stack, ms: u64, series: &mut Vec<(f64, Vec<f64>)>) {
    let mut last: Vec<u64> =
        stack.flows.iter().map(|f| stack.sim.lock().unwrap().flow(*f).delivered_bytes).collect();
    let mut elapsed = 0u64;
    while elapsed < ms {
        for _ in 0..500 {
            let now = {
                let mut s = stack.sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            stack.agent.tick(now);
            stack.server.tick(now);
            elapsed += 1;
        }
        std::thread::yield_now();
        let t = stack.sim.lock().unwrap().now_ms() as f64 / 1000.0;
        let mut mbps = Vec::new();
        for (i, f) in stack.flows.iter().enumerate() {
            let b = stack.sim.lock().unwrap().flow(*f).delivered_bytes;
            mbps.push((b - last[i]) as f64 * 8.0 / 0.5 / 1e6);
            last[i] = b;
        }
        series.push((t, mbps));
    }
}

fn post(rest: &str, path: &str, body: json::Value) {
    let (status, resp) = HttpClient::post_json(rest, path, &body).expect("rest call");
    if status != 200 {
        panic!("{path} failed: {status} {}", String::from_utf8_lossy(&resp));
    }
}

fn fig13a(phase_ms: u64) {
    println!("\n-- Fig. 13a: isolation timeline (white UE = 0x4601) --");
    // Start with two UEs; the third connects at t2.
    let stack = build_stack("a", &[0x4601, 0x4602]);
    let mut series = Vec::new();

    // t1: no slicing, two UEs.
    run_phase(&stack, phase_ms, &mut series);
    let t1_end = series.len();

    // t2: third UE connects.
    {
        let mut sim = stack.sim.lock().unwrap();
        sim.attach_ue(0, UeConfig::new(0x4603, MCS));
    }
    // The new flow needs registering outside the lock scope of build.
    let f3 = stack.sim.lock().unwrap().add_flow(FlowConfig {
        cell: 0,
        rnti: 0x4603,
        drb: 1,
        kind: FlowKind::GreedyTcp { mss: 1500 },
        tuple: (0x0A00_0001, 0x0A00_0103, 1000, 80, 6),
        start_ms: 0,
        stop_ms: None,
    });
    let mut stack = stack;
    stack.flows.push(f3);
    run_phase(&stack, phase_ms, &mut series);
    let t2_end = series.len();

    // t3: deploy NVS 50/50 and associate.
    post(&stack.rest, "/slice/algo", json!({"agent": 0, "algo": "nvs"}));
    post(
        &stack.rest,
        "/slice/conf",
        json!({"agent": 0, "slices": [
            {"id": 0, "label": "white", "params": {"type": "nvs_capacity", "share_pct": 50.0}},
            {"id": 1, "label": "rest", "params": {"type": "nvs_capacity", "share_pct": 50.0}},
        ]}),
    );
    post(
        &stack.rest,
        "/slice/assoc",
        json!({"agent": 0, "assoc": [[0x4601, 0], [0x4602, 1], [0x4603, 1]]}),
    );
    run_phase(&stack, phase_ms, &mut series);
    let t3_end = series.len();

    // t4: 66 % for slice 0.
    post(
        &stack.rest,
        "/slice/conf",
        json!({"agent": 0, "slices": [
            {"id": 0, "label": "white", "params": {"type": "nvs_capacity", "share_pct": 66.0}},
            {"id": 1, "label": "rest", "params": {"type": "nvs_capacity", "share_pct": 34.0}},
        ]}),
    );
    run_phase(&stack, phase_ms, &mut series);

    // Report: mean throughput per phase.
    let phase = |from: usize, to: usize| -> Vec<f64> {
        let slice = &series[from..to];
        let n = slice.len().max(1) as f64;
        let mut sums = [0.0; 3];
        for (_, mbps) in slice {
            for (i, v) in mbps.iter().enumerate() {
                sums[i] += v;
            }
        }
        sums.iter().map(|s| s / n).collect()
    };
    // Skip the first samples of each phase (TCP ramp).
    let rows = [
        ("t1 (no slicing, 2 UEs)", phase(t1_end / 2, t1_end)),
        ("t2 (no slicing, 3 UEs)", phase((t1_end + t2_end) / 2, t2_end)),
        ("t3 (NVS 50/50)", phase((t2_end + t3_end) / 2, t3_end)),
        ("t4 (NVS 66/34)", phase((t3_end + series.len()) / 2, series.len())),
    ];
    let mut out = Vec::new();
    for (label, mbps) in rows {
        let total: f64 = mbps.iter().sum();
        out.push(vec![
            label.to_string(),
            table::f(mbps[0]),
            table::f(mbps.get(1).copied().unwrap_or(0.0)),
            table::f(mbps.get(2).copied().unwrap_or(0.0)),
            table::f(mbps[0] / total.max(0.001) * 100.0),
        ]);
    }
    table::table(&["phase", "white_mbps", "ue2_mbps", "ue3_mbps", "white_share_%"], &out);
    stack.agent.stop();
    stack.server.stop();
}

fn fig13b(phase_ms: u64, sharing: bool) -> (f64, f64) {
    let stack = build_stack(if sharing { "b-share" } else { "b-noshare" }, &[0x4601, 0x4602]);
    post(
        &stack.rest,
        "/slice/algo",
        json!({"agent": 0, "algo": if sharing { "nvs" } else { "nvs_nosharing" }}),
    );
    post(
        &stack.rest,
        "/slice/conf",
        json!({"agent": 0, "slices": [
            {"id": 0, "label": "gray", "params": {"type": "nvs_capacity", "share_pct": 66.0}},
            {"id": 1, "label": "black", "params": {"type": "nvs_capacity", "share_pct": 34.0}},
        ]}),
    );
    post(&stack.rest, "/slice/assoc", json!({"agent": 0, "assoc": [[0x4601, 0], [0x4602, 1]]}));

    let mut series = Vec::new();
    // Phase 1: both active.
    run_phase(&stack, phase_ms, &mut series);
    let p1_end = series.len();
    // Phase 2: black slice idle.
    stack.sim.lock().unwrap().set_flow_active(stack.flows[1], false);
    run_phase(&stack, phase_ms, &mut series);

    let mean = |from: usize, to: usize, flow: usize| -> f64 {
        let s = &series[from..to];
        s.iter().map(|(_, m)| m[flow]).sum::<f64>() / s.len().max(1) as f64
    };
    let gray_active = mean(p1_end / 2, p1_end, 0);
    let gray_idle = mean((p1_end + series.len()) / 2, series.len(), 0);
    stack.agent.stop();
    stack.server.stop();
    (gray_active, gray_idle)
}

fn main() {
    let args = Args::parse();
    let phase_ms: u64 = args.get_or("phase-secs", 15u64) * 1000;

    table::experiment("Fig. 13", "Slicing isolation (a) and resource sharing (b), NR 106 RB");
    fig13a(phase_ms);

    println!("\n-- Fig. 13b: static attribution vs sharing (gray = 66 %, black = 34 %) --");
    let (ns_active, ns_idle) = fig13b(phase_ms, false);
    let (sh_active, sh_idle) = fig13b(phase_ms, true);
    table::table(
        &["mode", "gray_mbps_both_active", "gray_mbps_black_idle", "gain_%"],
        &[
            vec![
                "no sharing".into(),
                table::f(ns_active),
                table::f(ns_idle),
                table::f((ns_idle / ns_active.max(0.001) - 1.0) * 100.0),
            ],
            vec![
                "sharing (NVS)".into(),
                table::f(sh_active),
                table::f(sh_idle),
                table::f((sh_idle / sh_active.max(0.001) - 1.0) * 100.0),
            ],
        ],
    );
    println!();
    println!("Paper shape check (13a): white UE drops to ~33 % at t2, restored to 50 %");
    println!("at t3, 66 % at t4.  (13b): without sharing the gray slice stays at its");
    println!("66 %; with NVS sharing it gains ≈+50 % when the black slice idles.");
}
