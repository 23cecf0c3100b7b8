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
//! Both runs are on [`flexric::wire`]: the simulator, the agents, the
//! virtualization controller and the tenants' controllers step together,
//! one virtual millisecond at a time, on one thread, so the tables are the
//! same every run.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig15_recursive [--secs 50]
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::AgentConfig;
use flexric::server::ServerConfig;
use flexric::wire::{addr, bridge_addr, Wire};
use flexric_bench::{table, Args};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::recursive::{TenantConf, VirtController};
use flexric_ctrl::slicing::SliceApp;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::SmCodec;

const MCS: u8 = 28;
const OP_A: (u16, u16) = (1, 1);
const OP_B: (u16, u16) = (2, 1);
// UE 1, 2 belong to operator A; UE 3, 4 to operator B.
const UES: [(u16, (u16, u16)); 4] = [(0x11, OP_A), (0x12, OP_A), (0x21, OP_B), (0x22, OP_B)];

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

/// One run: the wire (controller 0 is operator A's slicing controller,
/// controller 1 operator B's), the simulator below it and the UEs' flows.
struct Setup {
    w: Wire,
    sim: Arc<Mutex<Sim>>,
    flows: Vec<usize>,
}

/// Dedicated: two 25 RB eNBs, each below its operator's slicing
/// controller (the §6.1.2 controller, reused).  Shared: one 50 RB eNB
/// below the virtualization controller, whose tenants the same two
/// controllers are, 50 % each.
fn setup(shared: bool) -> Setup {
    let (mut sim, flows);
    if shared {
        sim = Sim::new(vec![CellConfig::lte("enb-shared", 50)], PathConfig::default());
        flows = attach_ues(&mut sim, 0, &UES);
    } else {
        let cells = vec![CellConfig::lte("enb-a", 25), CellConfig::lte("enb-b", 25)];
        sim = Sim::new(cells, PathConfig::default());
        flows = [attach_ues(&mut sim, 0, &UES[..2]), attach_ues(&mut sim, 1, &UES[2..])].concat();
    }
    let (cells, sim) = (sim.cells.len(), Arc::new(Mutex::new(sim)));
    let mut w = Wire::default();
    for c in 0..2 {
        let cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 10), addr(c));
        w.start_ctrl_of(c, &cfg, vec![vec![Box::new(SliceApp::new(SmCodec::Flatb, 1000).0)]]);
    }
    if shared {
        let tenant = |c: usize, plmn| TenantConf {
            name: ["opA", "opB"][c].into(),
            plmn,
            sla_milli: 500,
            ctrl_addr: addr(c),
        };
        let south = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 20), bridge_addr(0));
        let virt = VirtController::bridge(
            &south,
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99),
            vec![tenant(0, OP_A), tenant(1, OP_B)],
            SmCodec::Flatb,
            500,
        );
        w.add_bridge(virt.expect("virt controller"));
    }
    for cell in 0..cells {
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, cell as u64 + 1);
        let bundle = full_bundle(&SimBs::new(sim.clone(), cell), SmCodec::Flatb);
        let at = if shared { bridge_addr(0) } else { addr(cell) };
        w.start_agent_of(AgentConfig::new(node, at), bundle);
    }
    let mut s = Setup { w, sim, flows };
    // Dedicated case: tenant A controls its own eNB directly; NVS there.
    assert!(shared || s.apply(SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }));
    s
}

impl Setup {
    /// One virtual millisecond: the simulator, then the wire.
    fn step(&mut self) {
        self.sim.lock().unwrap().tick();
        self.w.advance(1);
    }

    /// Has operator A's slicing controller send `ctrl` to its node (over
    /// the virtualization layer when shared) and steps the wire until the
    /// node answers; whether it acknowledged.
    fn apply(&mut self, ctrl: SliceCtrl) -> bool {
        let reply = self.w.call(0, 0, |app: &mut SliceApp, api| app.apply(api, 0, &ctrl));
        loop {
            if let Ok(reply) = reply.try_recv() {
                return reply.ok;
            }
            self.w.advance(1);
        }
    }

    /// Steps virtual time, samples per-UE throughput every 500 ms, applies
    /// the timeline, returns `(t_s, [ue throughputs Mbps])` rows.
    fn run_timeline(&mut self, secs: u64) -> Vec<(f64, Vec<f64>)> {
        let delivered = |s: &Setup| -> Vec<u64> {
            let sim = s.sim.lock().unwrap();
            s.flows.iter().map(|f| sim.flow(*f).delivered_bytes).collect()
        };
        let mut series = Vec::new();
        let mut last = delivered(self);
        let total_ms = secs * 1000;
        for t in (500..=total_ms).step_by(500) {
            (0..500).for_each(|_| self.step());
            // Timeline actions (sim-time triggered, applied through the
            // tenant controller — over the virtualization layer when shared).
            let crossed = |at: u64| t - 500 < at && at <= t;
            for (k, (at, share_milli, ue)) in
                [(8_000, 660, 0x11), (11_000, 330, 0x12)].into_iter().enumerate()
            {
                if !crossed(at) {
                    continue;
                }
                let (id, s) = (k as u32, at / 1000);
                let ok = self.apply(SliceCtrl::AddModSlices {
                    slices: vec![SliceConf {
                        id,
                        label: format!("a-sub{}", k + 1),
                        params: SliceParams::NvsCapacity { share_milli },
                        ue_sched: UeSchedAlgo::PropFair,
                    }],
                });
                eprintln!("  t={s}s: operator A creates {}% sub-slice (ok={ok})", share_milli / 10);
                let ok = self.apply(SliceCtrl::AssocUeSlice { assoc: vec![(ue, id)] });
                eprintln!("  t={s}s: UE{} → sub-slice {} (ok={ok})", k + 1, k + 1);
            }
            if crossed(total_ms / 2) {
                self.sim.lock().unwrap().set_flow_active(self.flows[3], false);
                eprintln!("  t={}s: operator B UE4 idle", t / 1000);
            }
            if crossed(total_ms * 4 / 5) {
                self.sim.lock().unwrap().set_flow_active(self.flows[2], false);
                eprintln!("  t={}s: operator B fully idle", t / 1000);
            }
            let now = delivered(self);
            let mbps = now.iter().zip(&last).map(|(b, l)| (b - l) as f64 * 8.0 / 0.5 / 1e6);
            series.push((t as f64 / 1000.0, mbps.collect()));
            last = now;
        }
        series
    }
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
    let (half, four_fifth) = (secs as f64 / 2.0, secs as f64 * 4.0 / 5.0);
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
    let ded_series = setup(false).run_timeline(secs);
    let ded_phases = summarize_phases("Fig. 15a dedicated (two eNBs)", &ded_series, secs);

    eprintln!("shared infrastructure run...");
    let sh_series = setup(true).run_timeline(secs);
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
