//! Cross-crate integration tests: full FlexRIC stacks assembled from the
//! public APIs of every workspace crate.

mod wire;

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_codec::E2apCodec;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{full_bundle, stats_bundle, SimBs};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use wire::{addr, agent_cfg, ctrl_cfg, greedy_sim, run, start_monitor, Wire, BACKOFF};

/// A monitor and a simulated cell of three UEs on the [`Wire`], 2 000 ms:
/// the statistics arrive decoded and fresh in the store.
fn monitoring(codec: E2apCodec, sm_codec: SmCodec) {
    let sim = greedy_sim(1, 3);
    let mut w = Wire::default();
    let cfg = ServerConfig { codec, ..ctrl_cfg(0) };
    let (db, counters) =
        start_monitor(&mut w, &cfg, MonitorConfig { sm_codec, ..Default::default() });
    let agent = AgentConfig { codec, ..agent_cfg(1, Some(BACKOFF), &[addr(0)]) };
    w.start_agent_of(agent, stats_bundle(&SimBs::new(sim.clone(), 0), sm_codec));
    run(&mut w, &sim, 2_000);

    let inds = counters.indications.load(Relaxed);
    assert!(inds > 3_000, "{codec:?}: 3 SMs × ~2000 ticks: got {inds}");
    assert_eq!((w.ind_sent, w.ind_lost), (inds, 0));
    let db = db.lock().unwrap();
    let mac = db.mac(0).expect("mac stats stored");
    assert_eq!(mac.ues.len(), 3);
    assert!(mac.ues.iter().any(|u| u.dl_aggr_bytes > 1_000_000), "traffic flowed");
    assert_eq!(db.rlc(0).expect("rlc stats stored").bearers.len(), 3);
    assert_eq!(db.pdcp(0).expect("pdcp stats stored").bearers.len(), 3);
}

#[test]
fn monitoring_pipeline_end_to_end() {
    monitoring(E2apCodec::Flatb, SmCodec::Flatb);
}

#[test]
fn monitoring_pipeline_asn1_variant() {
    // The same pipeline over the ASN.1-PER codec end to end.
    monitoring(E2apCodec::Asn1Per, SmCodec::Asn1Per);
}

#[test]
fn slicing_control_loop_via_rest() {
    use flexric_ctrl::slicing::{spawn_rest, SliceApp};
    use flexric_xapp::http::HttpClient;
    use flexric_xapp::json;

    let (slice_app, latest) = SliceApp::new(SmCodec::Flatb, 100);
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem("it-slicing".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(slice_app)]).unwrap();
    let rest = spawn_rest("127.0.0.1:0", server.clone(), latest).unwrap();
    let rest_addr = rest.addr.to_string();

    let sim = greedy_sim(1, 2);
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        TransportAddr::Mem("it-slicing".into()),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).unwrap();
    // Background virtual-time driver so REST control round-trips complete
    // while we await them.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let sim = sim.clone();
        let agent = agent.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for _ in 0..20 {
                    let now = {
                        let mut s = sim.lock().unwrap();
                        s.tick();
                        s.now_ms()
                    };
                    agent.tick(now);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // Configure slices over REST.
    let (status, body) =
        HttpClient::post_json(&rest_addr, "/slice/algo", &json!({"agent": 0, "algo": "nvs"}))
            .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (status, _) = HttpClient::post_json(
        &rest_addr,
        "/slice/conf",
        &json!({"agent": 0, "slices": [
            {"id": 0, "label": "a", "params": {"type": "nvs_capacity", "share_pct": 70.0}},
            {"id": 1, "label": "b", "params": {"type": "nvs_capacity", "share_pct": 30.0}},
        ]}),
    )
    .unwrap();
    assert_eq!(status, 200);
    let (status, _) = HttpClient::post_json(
        &rest_addr,
        "/slice/assoc",
        &json!({"agent": 0, "assoc": [[0x4601, 0], [0x4602, 1]]}),
    )
    .unwrap();
    assert_eq!(status, 200);

    // Over-commit must be rejected with a 400.
    let (status, _) = HttpClient::post_json(
        &rest_addr,
        "/slice/conf",
        &json!({"agent": 0, "slices": [
            {"id": 2, "label": "c", "params": {"type": "nvs_capacity", "share_pct": 10.0}},
        ]}),
    )
    .unwrap();
    assert_eq!(status, 400, "admission control surfaces as HTTP 400");

    // The slice configuration is observable in the simulator.
    {
        let s = sim.lock().unwrap();
        assert!(s.cells[0].sched.index_of(0).is_some());
        assert!(s.cells[0].sched.index_of(1).is_some());
        assert!(s.cells[0].sched.index_of(2).is_none());
        let ue1 = s.cells[0].ues.iter().find(|u| u.cfg.rnti == 0x4601).unwrap();
        assert_eq!(ue1.slice, 0);
    }
    // And the stats flow back up over GET /slices eventually.
    let mut saw = false;
    for _ in 0..50 {
        let (status, body) = HttpClient::get(&rest_addr, "/slices").unwrap();
        assert_eq!(status, 200);
        let v = json::parse(&body).unwrap();
        if v.as_array().is_some_and(|a| !a.is_empty()) {
            saw = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(saw, "slice stats visible over REST");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    driver.join().unwrap();
    agent.stop();
    server.stop();
}

#[test]
fn tc_xapp_full_loop_fixes_bufferbloat() {
    use flexric_ctrl::ranfun::BearerAddr;
    use flexric_ctrl::traffic::{
        run_bloat_guard, spawn_rest, BloatGuardConfig, StatsForwarderApp, TcManagerApp,
    };
    use flexric_xapp::broker::Broker;

    let broker = Broker::spawn("127.0.0.1:0").unwrap();
    let broker_addr = broker.addrs[0].to_string();
    let sm = SmCodec::Flatb;
    let fwd = StatsForwarderApp::new(
        sm,
        50,
        broker_addr.clone(),
        vec![BearerAddr { rnti: 0x4601, drb: 1 }],
    );
    let mgr = TcManagerApp::new(sm);
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem("it-tc".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(fwd), Box::new(mgr)]).unwrap();
    let rest = spawn_rest("127.0.0.1:0", server.clone()).unwrap();

    // Sim: VoIP + greedy TCP on one bearer.
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    sim.attach_ue(0, UeConfig::new(0x4601, 20));
    let _voip = sim.add_flow(FlowConfig {
        cell: 0,
        rnti: 0x4601,
        drb: 1,
        kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
        tuple: (1, 2, 1000, 5004, 17),
        start_ms: 0,
        stop_ms: None,
    });
    sim.add_flow(FlowConfig {
        cell: 0,
        rnti: 0x4601,
        drb: 1,
        kind: FlowKind::GreedyTcp { mss: 1500 },
        tuple: (1, 2, 1000, 80, 6),
        start_ms: 500,
        stop_ms: None,
    });
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        TransportAddr::Mem("it-tc".into()),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, sm)).unwrap();

    let guard_cfg = BloatGuardConfig {
        broker_addr,
        rest_addr: rest.addr.to_string(),
        sojourn_limit_us: 15_000,
        protect_dst_port: 5004,
        protect_proto: 17,
        pacer_target_us: 10_000,
    };
    let guard = std::thread::spawn(move || run_bloat_guard(guard_cfg));

    // Drive until the xApp has intervened (bounded).
    let driver_sim = sim.clone();
    let driver_agent = agent.clone();
    let mut intervened = false;
    for _ in 0..400 {
        for _ in 0..50 {
            let now = {
                let mut s = driver_sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            driver_agent.tick(now);
        }
        std::thread::sleep(Duration::from_millis(2));
        if guard.is_finished() {
            intervened = true;
            break;
        }
    }
    assert!(intervened, "xApp intervened through broker + REST");
    // The TC layer of the bearer now has a second queue and a pacer.
    {
        let s = sim.lock().unwrap();
        let ue = s.cells[0].ues.iter().find(|u| u.cfg.rnti == 0x4601).unwrap();
        let tc = &ue.bearers[0].tc;
        assert!(matches!(tc.pacer(), flexric_sm::tc::PacerConf::Bdp { target_delay_us: 10_000 }));
    }
    agent.stop();
    server.stop();
}

#[test]
fn recursive_virtualization_isolates_tenants() {
    use flexric_ctrl::recursive::{TenantConf, VirtController};
    use flexric_ctrl::slicing::{self, SliceApp};
    use flexric_sm::slice::{SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};

    // Tenant controllers.
    let mk_tenant = |name: &str| {
        let (app, latest) = SliceApp::new(SmCodec::Flatb, 200);
        let mut cfg =
            ServerConfig::new(GlobalRicId::new(Plmn::TEST, 7), TransportAddr::Mem(name.to_owned()));
        cfg.tick_ms = None;
        (cfg, app, latest)
    };
    let (cfg_a, app_a, latest_a) = mk_tenant("it-virt-a");
    let (cfg_b, app_b, _latest_b) = mk_tenant("it-virt-b");
    let ctrl_a = Server::spawn(cfg_a, vec![Box::new(app_a)]).unwrap();
    let _ctrl_b = Server::spawn(cfg_b, vec![Box::new(app_b)]).unwrap();

    // Virtualization controller.
    let mut south_cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 20),
        TransportAddr::Mem("it-virt-south".into()),
    );
    south_cfg.tick_ms = None;
    let virt = VirtController::spawn(
        south_cfg,
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99),
        vec![
            TenantConf {
                name: "a".into(),
                plmn: (1, 1),
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem("it-virt-a".into()),
            },
            TenantConf {
                name: "b".into(),
                plmn: (2, 1),
                sla_milli: 500,
                ctrl_addr: TransportAddr::Mem("it-virt-b".into()),
            },
        ],
        SmCodec::Flatb,
        100,
    )
    .unwrap();

    // Shared cell: 2 UEs per tenant.
    let mut sim = Sim::new(vec![CellConfig::lte("shared", 50)], PathConfig::default());
    for (i, (rnti, plmn)) in
        [(0x11u16, (1u16, 1u16)), (0x12, (1, 1)), (0x21, (2, 1)), (0x22, (2, 1))].iter().enumerate()
    {
        sim.attach_ue(0, UeConfig { rnti: *rnti, mcs: 28, cqi: 15, plmn: *plmn, snssai: None });
        sim.add_flow(FlowConfig {
            cell: 0,
            rnti: *rnti,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (1, 100 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        });
    }
    let sim = Arc::new(Mutex::new(sim));
    let bs = SimBs::new(sim.clone(), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 1),
        TransportAddr::Mem("it-virt-south".into()),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, full_bundle(&bs, SmCodec::Flatb)).unwrap();

    // Virtual-time driver covering the agent and the virtualization
    // controller's one loop.
    let run = |ms: u64| {
        let sim = sim.clone();
        let agent = agent.clone();
        let virt = virt.clone();
        move || {
            for _ in 0..(ms / 50) {
                for _ in 0..50 {
                    let now = {
                        let mut s = sim.lock().unwrap();
                        s.tick();
                        s.now_ms()
                    };
                    agent.tick(now);
                    virt.tick(now);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    run(2_000)();

    // Tenant UEs were auto-associated to their tenant default slices, so
    // throughput splits ~50/50 between operators.
    let delivered = |i: usize| sim.lock().unwrap().flow(i).delivered_bytes as f64;
    let a = delivered(0) + delivered(1);
    let b = delivered(2) + delivered(3);
    let frac = a / (a + b);
    assert!((0.4..0.6).contains(&frac), "SLA split ≈50/50, got {frac:.2}");

    // Tenant A sub-slices within its virtual network.
    let apply =
        |ctrl: SliceCtrl| slicing::apply(&ctrl_a, 0, ctrl).expect("tenant A's iApp replies");
    // A runs the driver concurrently so the control round-trip completes.
    let driver = std::thread::spawn(run(4_000));
    let reply = apply(SliceCtrl::AddModSlices {
        slices: vec![SliceConf {
            id: 0,
            label: "premium".into(),
            params: SliceParams::NvsCapacity { share_milli: 800 },
            ue_sched: UeSchedAlgo::PropFair,
        }],
    });
    assert!(reply.ok, "virtual sub-slice accepted: {}", reply.detail);
    // Over-commit of the virtual budget is rejected.
    let reply = apply(SliceCtrl::AddModSlices {
        slices: vec![SliceConf {
            id: 1,
            label: "too much".into(),
            params: SliceParams::NvsCapacity { share_milli: 300 },
            ue_sched: UeSchedAlgo::PropFair,
        }],
    });
    assert!(!reply.ok, "virtual admission control rejects over-commit");
    driver.join().unwrap();

    // Tenant A's slice view arrived at its controller: its own two slices
    // (the sub-slice and its default), under virtual ids, and its UEs in
    // them under virtual ids too.
    let stats = latest_a.lock().unwrap().values().next().cloned();
    let stats = stats.expect("tenant A's slice view arrived");
    let mut ids: Vec<u32> = stats.slices.iter().map(|s| s.conf.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, [0, 99], "the sub-slice and the default, virtual ids");
    assert!(stats.ue_assoc.iter().all(|(_, id)| ids.contains(id)), "{:?}", stats.ue_assoc);
    agent.stop();
    virt.stop();
}

#[test]
fn garbage_before_setup_does_not_wedge_the_controller() {
    // Bytes that are not an E2 Setup request are dropped with their
    // connection, and never crash the server.
    use bytes::Bytes;
    use flexric_transport::{connect, WireMsg};

    let (monitor, _db, _) = MonitorApp::new(MonitorConfig::default());
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem("it-fault".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(monitor)]).unwrap();

    // A raw connection spewing garbage never completes setup: the
    // controller drops it at the first frame that is not a setup request,
    // so the later sends may already find the connection gone.
    let mut garbage = connect(&TransportAddr::Mem("it-fault".into())).unwrap();
    for i in 0..50u8 {
        let _ = garbage.send(WireMsg::e2ap(Bytes::from(vec![i; 64])));
    }

    // …while a well-behaved agent still connects fine afterwards.
    let bs = SimBs::new(greedy_sim(1, 1), 0);
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        TransportAddr::Mem("it-fault".into()),
    );
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, stats_bundle(&bs, SmCodec::Flatb));
    assert!(agent.is_ok(), "server survives garbage and accepts agents");
    server.stop();
}
