//! Fig. 15 — Recursive slicing: dedicated vs shared infrastructure
//! (paper §6.2).
//!
//! Two operators, two UEs each, over 4G/LTE:
//!
//! * **dedicated** — two eNBs of 25 RB (5 MHz) each, one slicing
//!   controller per operator, directly attached;
//! * **shared** — one eNB of 50 RB (10 MHz) fronted by the virtualization
//!   controller; the *same* slicing controllers connect northbound as
//!   tenants with a 50 % SLA each (multi-RAT reuse of the SC SM).
//!
//! Timeline (as in the paper): at ~8 s and ~11 s operator A creates two
//! sub-slices (66 %, 33 %) in its virtual network; around 25–35 s operator
//! B's UE 4 stops its traffic; around 40–50 s all of operator B idles.
//! Isolation: A's sub-slicing never affects B.  Sharing: in the shared
//! infrastructure, A's UEs absorb B's idle resources (multiplexing gain);
//! in the dedicated one they are wasted.
//!
//! The run checks that shape and exits non-zero unless it holds: in both
//! runs A's sub-slicing takes effect (UE 1 at least 1.8× UE 2, as 66/33);
//! shared, each of B's UEs within 10 % across A's sub-slicing, and A's
//! total with B fully idle at least 1.8× A's total before; dedicated, A's
//! total within 10 % of its first phase throughout.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig15_recursive [--secs 50]
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig, AgentHandle};
use flexric::relay::BridgeHandle;
use flexric::server::{Server, ServerConfig, ServerHandle};
use flexric_bench::{table, Args};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::recursive::{TenantConf, VirtController};
use flexric_ctrl::slicing::{self, SliceApp};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

const MCS: u8 = 28;
const OP_A: (u16, u16) = (1, 1);
const OP_B: (u16, u16) = (2, 1);
// UE 1, 2 belong to operator A; UE 3, 4 to operator B.
const UES: [(u16, (u16, u16)); 4] = [(0x11, OP_A), (0x12, OP_A), (0x21, OP_B), (0x22, OP_B)];

/// A tenant-facing slicing controller (the §6.1.2 controller, reused).
struct TenantCtrl {
    server: ServerHandle,
}

fn spawn_tenant(name: &str) -> TenantCtrl {
    let (app, _latest) = SliceApp::new(SmCodec::Flatb, 1000);
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 10), TransportAddr::Mem(name.to_owned()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("tenant ctrl");
    TenantCtrl { server }
}

impl TenantCtrl {
    /// Issues a slice-control command through the tenant's controller and
    /// waits for the (virtualized) acknowledgement.
    fn apply(&self, ctrl: SliceCtrl) -> bool {
        slicing::apply(&self.server, 0, ctrl).is_some_and(|r| r.ok)
    }
}

fn attach_ues(sim: &mut Sim, cell: usize, ues: &[(u16, (u16, u16))]) -> Vec<usize> {
    let mut flows = Vec::new();
    for (i, (rnti, plmn)) in ues.iter().enumerate() {
        sim.attach_ue(cell, UeConfig { rnti: *rnti, mcs: MCS, cqi: 15, plmn: *plmn, snssai: None });
        flows.push(sim.add_flow(FlowConfig {
            cell,
            rnti: *rnti,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A00_0001, 0x0A00_0200 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        }));
    }
    flows
}

struct Setup {
    sim: Arc<Mutex<Sim>>,
    agents: Vec<AgentHandle>,
    /// The virtualization controller, in the shared case.
    virt: Option<BridgeHandle>,
    servers: Vec<ServerHandle>,
    tenant_a: TenantCtrl,
    flows: Vec<usize>,
    /// Slice ids usable by tenant A for its sub-slices.
    a_slice_ids: (u32, u32),
}

/// Dedicated: two 25 RB eNBs, one slicing controller each.
fn setup_dedicated(tag: &str) -> Setup {
    let mut sim = Sim::new(
        vec![CellConfig::lte("enb-a", 25), CellConfig::lte("enb-b", 25)],
        PathConfig::default(),
    );
    let mut flows = attach_ues(&mut sim, 0, &UES[..2]);
    flows.extend(attach_ues(&mut sim, 1, &UES[2..]));
    let sim = Arc::new(Mutex::new(sim));

    let mut agents = Vec::new();
    let mut servers = Vec::new();
    let tenant_a = spawn_tenant(&format!("fig15-{tag}-a"));
    let tenant_b = spawn_tenant(&format!("fig15-{tag}-b"));
    for (cell, (tenant, name)) in
        [(&tenant_a, format!("fig15-{tag}-a")), (&tenant_b, format!("fig15-{tag}-b"))]
            .iter()
            .enumerate()
    {
        let bs = SimBs::new(sim.clone(), cell);
        let mut acfg = AgentConfig::new(
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, cell as u64 + 1),
            TransportAddr::Mem(name.clone()),
        );
        acfg.tick_ms = None;
        let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent");
        agents.push(agent);
        servers.push(tenant.server.clone());
    }
    servers.push(tenant_b.server.clone());
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Dedicated case: tenant A controls its own eNB directly; NVS there.
    assert!(tenant_a.apply(SliceCtrl::SetAlgo { algo: flexric_sm::slice::SliceAlgo::Nvs }));
    Setup { sim, agents, virt: None, servers, tenant_a, flows, a_slice_ids: (0, 1) }
}

/// Shared: one 50 RB eNB behind the virtualization controller; the same
/// tenant controllers connect northbound.
fn setup_shared(tag: &str) -> Setup {
    let mut sim = Sim::new(vec![CellConfig::lte("enb-shared", 50)], PathConfig::default());
    let flows = attach_ues(&mut sim, 0, &UES);
    let sim = Arc::new(Mutex::new(sim));

    let tenant_a = spawn_tenant(&format!("fig15-{tag}-a"));
    let tenant_b = spawn_tenant(&format!("fig15-{tag}-b"));

    let mut south_cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 20),
        TransportAddr::Mem(format!("fig15-{tag}-virt")),
    );
    south_cfg.tick_ms = None;
    let virt = VirtController::spawn(
        south_cfg,
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99),
        vec![
            TenantConf {
                name: "opA".into(),
                plmn: OP_A,
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem(format!("fig15-{tag}-a")),
            },
            TenantConf {
                name: "opB".into(),
                plmn: OP_B,
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem(format!("fig15-{tag}-b")),
            },
        ],
        SmCodec::Flatb,
        500,
    )
    .expect("virt controller");

    // The real agent connects to the virtualization controller southbound.
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 1),
        TransportAddr::Mem(format!("fig15-{tag}-virt")),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent");
    std::thread::sleep(std::time::Duration::from_millis(100));

    Setup {
        sim,
        agents: vec![agent],
        virt: Some(virt),
        servers: vec![tenant_a.server.clone(), tenant_b.server.clone()],
        tenant_a,
        flows,
        a_slice_ids: (0, 1),
    }
}

/// Drives virtual time, samples per-UE throughput every 500 ms, applies
/// the timeline, returns `(t_s, [ue throughputs Mbps])` rows.
fn run_timeline(setup: &Setup, secs: u64) -> Vec<(f64, Vec<f64>)> {
    let mut series = Vec::new();
    let mut last: Vec<u64> =
        setup.flows.iter().map(|f| setup.sim.lock().unwrap().flow(*f).delivered_bytes).collect();
    let total_ms = secs * 1000;
    let mut t = 0u64;
    let mut did_slice1 = false;
    let mut did_slice2 = false;
    let mut ue4_idle = false;
    let mut b_idle = false;
    while t < total_ms {
        for _ in 0..500 {
            let now = {
                let mut s = setup.sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            for a in &setup.agents {
                a.tick(now);
            }
            setup.virt.iter().for_each(|v| v.tick(now));
            for s in &setup.servers {
                s.tick(now);
            }
            t += 1;
        }
        std::thread::yield_now();
        std::thread::sleep(std::time::Duration::from_micros(300));

        // Timeline actions (sim-time triggered, applied through the
        // tenant controller — over the virtualization layer when shared).
        if !did_slice1 && t >= 8_000 {
            did_slice1 = true;
            let ok = setup.tenant_a.apply(SliceCtrl::AddModSlices {
                slices: vec![SliceConf {
                    id: setup.a_slice_ids.0,
                    label: "a-sub1".into(),
                    params: SliceParams::NvsCapacity { share_milli: 660 },
                    ue_sched: UeSchedAlgo::PropFair,
                }],
            });
            eprintln!("  t=8s: operator A creates 66% sub-slice (ok={ok})");
            let ok = setup
                .tenant_a
                .apply(SliceCtrl::AssocUeSlice { assoc: vec![(0x11, setup.a_slice_ids.0)] });
            eprintln!("  t=8s: UE1 → sub-slice 1 (ok={ok})");
        }
        if !did_slice2 && t >= 11_000 {
            did_slice2 = true;
            let ok = setup.tenant_a.apply(SliceCtrl::AddModSlices {
                slices: vec![SliceConf {
                    id: setup.a_slice_ids.1,
                    label: "a-sub2".into(),
                    params: SliceParams::NvsCapacity { share_milli: 330 },
                    ue_sched: UeSchedAlgo::PropFair,
                }],
            });
            eprintln!("  t=11s: operator A creates 33% sub-slice (ok={ok})");
            let ok = setup
                .tenant_a
                .apply(SliceCtrl::AssocUeSlice { assoc: vec![(0x12, setup.a_slice_ids.1)] });
            eprintln!("  t=11s: UE2 → sub-slice 2 (ok={ok})");
        }
        if !ue4_idle && t >= (secs * 1000) / 2 {
            ue4_idle = true;
            setup.sim.lock().unwrap().set_flow_active(setup.flows[3], false);
            eprintln!("  t={}s: operator B UE4 idle", t / 1000);
        }
        if !b_idle && t >= (secs * 1000) * 4 / 5 {
            b_idle = true;
            setup.sim.lock().unwrap().set_flow_active(setup.flows[2], false);
            eprintln!("  t={}s: operator B fully idle", t / 1000);
        }

        let ts = t as f64 / 1000.0;
        let mut mbps = Vec::new();
        for (i, f) in setup.flows.iter().enumerate() {
            let b = setup.sim.lock().unwrap().flow(*f).delivered_bytes;
            mbps.push((b - last[i]) as f64 * 8.0 / 0.5 / 1e6);
            last[i] = b;
        }
        series.push((ts, mbps));
    }
    series
}

/// Prints the per-UE mean of each phase and returns them, phase by phase.
fn summarize_phases(label: &str, series: &[(f64, Vec<f64>)], secs: u64) -> Vec<Vec<f64>> {
    let phase = |lo: f64, hi: f64| -> Vec<f64> {
        let rows: Vec<&Vec<f64>> =
            series.iter().filter(|(t, _)| *t >= lo && *t < hi).map(|(_, m)| m).collect();
        let n = rows.len().max(1) as f64;
        (0..4)
            .map(|i| rows.iter().map(|m| m.get(i).copied().unwrap_or(0.0)).sum::<f64>() / n)
            .collect()
    };
    let half = secs as f64 / 2.0;
    let four_fifth = secs as f64 * 4.0 / 5.0;
    let phases = [
        ("no sub-slices (2-7 s)", phase(2.0, 7.0)),
        ("A sub-sliced 66/33 (13 s-half)", phase(13.0, half)),
        ("B UE4 idle", phase(half + 2.0, four_fifth)),
        ("B fully idle", phase(four_fifth + 2.0, secs as f64)),
    ];
    println!("\n-- {label} --");
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(p, m)| {
            vec![
                p.to_string(),
                table::f(m[0]),
                table::f(m[1]),
                table::f(m[2]),
                table::f(m[3]),
                table::f(m[0] + m[1]),
            ]
        })
        .collect();
    table::table(
        &["phase", "A_ue1_mbps", "A_ue2_mbps", "B_ue3_mbps", "B_ue4_mbps", "A_total"],
        &rows,
    );
    phases.into_iter().map(|(_, m)| m).collect()
}

/// `got` within `tol` (a fraction) of `of`.
fn within(got: f64, of: f64, tol: f64) -> bool {
    (got - of).abs() <= tol * of
}

/// The paper's shape, as `(what, whether it holds)`.  `ded` and `sh` are
/// the phase means of the two runs; phase 0 has no sub-slices, 1 has A
/// sub-sliced, 3 has B fully idle.
fn shape(ded: &[Vec<f64>], sh: &[Vec<f64>]) -> Vec<(String, bool)> {
    let a_total = |m: &[f64]| m[0] + m[1];
    let mut checks = Vec::new();
    // Without this the isolation check holds for a sub-slicing the cell
    // refused.
    for (run, m) in [("dedicated", &ded[1]), ("shared", &sh[1])] {
        let what = format!("{run}: A sub-sliced, UE1 {:.2} ≥ 1.8 × UE2 {:.2} Mbit/s", m[0], m[1]);
        checks.push((what, m[0] >= 1.8 * m[1]));
    }
    for ue in [2, 3] {
        let (before, after) = (sh[0][ue], sh[1][ue]);
        let what = format!(
            "shared: B UE{} {before:.2} → {after:.2} Mbit/s across A's sub-slicing, within 10 %",
            ue + 1
        );
        checks.push((what, within(after, before, 0.10)));
    }
    let (before, idle) = (a_total(&sh[0]), a_total(&sh[3]));
    let what = format!("shared: A {before:.2} → {idle:.2} Mbit/s with B idle, at least 1.8×");
    checks.push((what, idle >= 1.8 * before));
    let cap = a_total(&ded[0]);
    for (i, m) in ded.iter().enumerate().skip(1) {
        let what = format!(
            "dedicated: A {:.2} Mbit/s in phase {}, within 10 % of its cap {cap:.2}",
            a_total(m),
            i + 1
        );
        checks.push((what, within(a_total(m), cap, 0.10)));
    }
    checks
}

fn main() {
    let args = Args::parse();
    let secs: u64 = args.get_or("secs", 50);

    table::experiment(
        "Fig. 15",
        "Recursive slicing: dedicated (2×25 RB) vs shared (1×50 RB + virtualization)",
    );
    eprintln!("dedicated infrastructure run...");
    let ded = setup_dedicated("ded");
    let ded_series = run_timeline(&ded, secs);
    let ded_phases = summarize_phases("Fig. 15a dedicated (two eNBs)", &ded_series, secs);

    eprintln!("shared infrastructure run...");
    let sh = setup_shared("sh");
    let sh_series = run_timeline(&sh, secs);
    let title = "Fig. 15b shared (one eNB + virtualization controller)";
    let sh_phases = summarize_phases(title, &sh_series, secs);

    println!();
    println!("Paper shape check: (isolation) A's sub-slicing at 8/11 s leaves B's UEs");
    println!("unchanged; (sharing) when B idles, A's throughput grows in the shared");
    println!("case (multiplexing gain up to ~100 %) but stays capped at the dedicated");
    println!("eNB rate in the dedicated case.");
    let checks = shape(&ded_phases, &sh_phases);
    for (what, ok) in &checks {
        println!("  {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if checks.iter().any(|(_, ok)| !ok) {
        std::process::exit(1);
    }
}
