//! Recursive slicing / RAN sharing demo (paper §6.2): two operators run
//! their own slicing controllers over one shared base station.
//!
//! The virtualization controller terminates the real agent southbound and
//! — recursively — uses the agent library northbound to expose a virtual
//! E2 node to each tenant.  Each operator sees 100 % of a virtual network
//! backed by a 50 % SLA: slice configurations are translated per
//! Appendix B, slice ids are remapped, MAC statistics are partitioned by
//! PLMN.  Operator A sub-slices its network; operator B's view and
//! throughput stay untouched — and when B idles, A absorbs the spare
//! capacity (multiplexing gain).
//!
//! ```text
//! cargo run --release --example recursive_sharing
//! ```

use std::sync::{Arc, Mutex};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::ranfun::{full_bundle, SimBs};
use flexric_ctrl::recursive::{TenantConf, VirtController};
use flexric_ctrl::slicing::{self, SliceApp};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

const OP_A: (u16, u16) = (1, 1);
const OP_B: (u16, u16) = (2, 1);

fn tenant_ctrl(name: &str) -> flexric::server::ServerHandle {
    let (app, _latest) = SliceApp::new(SmCodec::Flatb, 1000);
    let cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 7), TransportAddr::Mem(name.to_owned()));
    Server::spawn(cfg, vec![Box::new(app)]).expect("tenant controller")
}

fn tenant_apply(server: &flexric::server::ServerHandle, ctrl: SliceCtrl) -> bool {
    slicing::apply(server, 0, ctrl).is_some_and(|r| r.ok)
}

fn main() {
    // Two tenant controllers — the unchanged §6.1.2 slicing controller.
    let tenant_a = tenant_ctrl("tenant-a");
    let _tenant_b = tenant_ctrl("tenant-b");

    // The virtualization controller in between (50 % SLA each), one loop
    // on a 1 ms clock.
    let mut south_cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 20),
        TransportAddr::Mem("virt-south".into()),
    );
    south_cfg.tick_ms = Some(1);
    let virt = VirtController::spawn(
        south_cfg,
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99),
        vec![
            TenantConf {
                name: "operator-A".into(),
                plmn: OP_A,
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem("tenant-a".into()),
            },
            TenantConf {
                name: "operator-B".into(),
                plmn: OP_B,
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem("tenant-b".into()),
            },
        ],
        SmCodec::Flatb,
        500,
    )
    .expect("virtualization controller");

    // The shared infrastructure: one 10 MHz LTE cell, 2 UEs per operator.
    let mut sim = Sim::new(vec![CellConfig::lte("shared-enb", 50)], PathConfig::default());
    let ues = [(0x11u16, OP_A), (0x12, OP_A), (0x21, OP_B), (0x22, OP_B)];
    let mut flows = Vec::new();
    for (i, (rnti, plmn)) in ues.iter().enumerate() {
        sim.attach_ue(0, UeConfig { rnti: *rnti, mcs: 28, cqi: 15, plmn: *plmn, snssai: None });
        flows.push(sim.add_flow(FlowConfig {
            cell: 0,
            rnti: *rnti,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A00_0001, 0x0A00_0200 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        }));
    }
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 1),
        TransportAddr::Mem("virt-south".into()),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).expect("agent");

    // Real-time driver for the whole stack.
    {
        let sim = sim.clone();
        let agent = agent.clone();
        std::thread::spawn(move || {
            let mut iv = flexric::Ticker::every(std::time::Duration::from_millis(1));
            loop {
                iv.tick();
                let now = {
                    let mut s = sim.lock().expect("lock poisoned");
                    s.tick();
                    s.now_ms()
                };
                agent.tick(now);
            }
        });
    }

    let observe = |label: &'static str, secs: u64| {
        let delivered = |f: &usize| sim.lock().expect("lock poisoned").flow(*f).delivered_bytes;
        let before: Vec<u64> = flows.iter().map(delivered).collect();
        std::thread::sleep(std::time::Duration::from_secs(secs));
        println!("{label}:");
        let labels = ["A/UE1", "A/UE2", "B/UE3", "B/UE4"];
        for (i, f) in flows.iter().enumerate() {
            println!(
                "  {}: {:>5.2} Mbit/s",
                labels[i],
                (delivered(f) - before[i]) as f64 * 8.0 / secs as f64 / 1e6
            );
        }
    };

    std::thread::sleep(std::time::Duration::from_millis(800));
    observe("\nboth operators at their 50 % SLA, no sub-slices", 4);

    // Operator A sub-slices ITS OWN virtual network: 66 % + 34 % of its
    // 100 % virtual resources (i.e. 33 % + 17 % physical).
    let ok = tenant_apply(
        &tenant_a,
        SliceCtrl::AddModSlices {
            slices: vec![
                SliceConf {
                    id: 0,
                    label: "premium".into(),
                    params: SliceParams::NvsCapacity { share_milli: 660 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
                SliceConf {
                    id: 1,
                    label: "standard".into(),
                    params: SliceParams::NvsCapacity { share_milli: 340 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
            ],
        },
    );
    println!("\noperator A creates virtual sub-slices 66/34 (accepted: {ok})");
    let ok = tenant_apply(&tenant_a, SliceCtrl::AssocUeSlice { assoc: vec![(0x11, 0), (0x12, 1)] });
    println!("operator A associates UE1→premium, UE2→standard (accepted: {ok})");

    // Admission control in the virtual domain: a third slice that would
    // exceed A's virtual 100 % is rejected — B can never be affected.
    let rejected = !tenant_apply(
        &tenant_a,
        SliceCtrl::AddModSlices {
            slices: vec![SliceConf {
                id: 2,
                label: "greedy".into(),
                params: SliceParams::NvsCapacity { share_milli: 200 },
                ue_sched: UeSchedAlgo::PropFair,
            }],
        },
    );
    println!("operator A tries to over-commit (+20 %): rejected = {rejected}");

    observe("\nafter A's sub-slicing (B unchanged — isolation)", 4);

    // Operator B goes idle: A absorbs the spare capacity.
    sim.lock().expect("lock poisoned").set_flow_active(flows[2], false);
    sim.lock().expect("lock poisoned").set_flow_active(flows[3], false);
    observe("\noperator B idle (A absorbs spare capacity — multiplexing gain)", 4);

    agent.stop();
    virt.stop();
}
