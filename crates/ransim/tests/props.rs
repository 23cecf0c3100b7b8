//! Property-based tests on the RAN simulator's conservation and isolation
//! invariants.

use proptest::prelude::*;

use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};

fn greedy(rnti: u16, port: u16) -> FlowConfig {
    FlowConfig {
        cell: 0,
        rnti,
        drb: 1,
        kind: FlowKind::GreedyTcp { mss: 1500 },
        tuple: (1, 2, 1000, port, 6),
        start_ms: 0,
        stop_ms: None,
    }
}

/// Packet conservation: every packet a flow emitted is delivered, lost,
/// queued somewhere in the cell, or still in flight — never duplicated,
/// never silently vanished.
fn check_packet_conservation(ues: u16, prbs: u32, mcs: u8, run_ms: u64) {
    let mut sim = Sim::new(vec![CellConfig::nr("c", prbs)], PathConfig::default());
    for i in 0..ues {
        sim.attach_ue(0, UeConfig::new(0x100 + i, mcs));
        sim.add_flow(greedy(0x100 + i, 80));
    }
    sim.run_ms(run_ms);
    // Flush in-flight deliveries: stop generation, keep ticking long
    // enough for the air-interface pipeline to drain.
    for f in 0..sim.flow_count() {
        sim.set_flow_active(f, false);
    }
    sim.run_ms(50);
    for f in 0..sim.flow_count() {
        let flow = sim.flow(f);
        let queued: u64 = sim.cells[0]
            .ues
            .iter()
            .filter(|u| u.cfg.rnti == flow.cfg.rnti)
            .map(|u| {
                u.bearers
                    .iter()
                    .map(|b| b.rlc.backlog_pkts() as u64 + b.tc.backlog_bytes() / 1500)
                    .sum::<u64>()
            })
            .sum();
        let accounted = flow.delivered_pkts + flow.lost_pkts + queued;
        // In-flight (scheduled deliveries) and partial-packet rounding
        // allow a small slack; never MORE packets than were sent.
        assert!(
            accounted <= flow.tx_pkts + 1,
            "flow {f}: delivered {} + lost {} + queued {queued} > tx {}",
            flow.delivered_pkts,
            flow.lost_pkts,
            flow.tx_pkts
        );
        // And most packets are accounted for (in-flight window is small).
        assert!(
            accounted + 64 >= flow.tx_pkts,
            "flow {f}: only {accounted} of {} packets accounted",
            flow.tx_pkts
        );
    }
}

/// The case committed in `props.proptest-regressions`, which only the real
/// proptest replays.
#[test]
fn packet_conservation_regression_one_ue_on_25_prbs() {
    check_packet_conservation(1, 25, 15, 1464);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packet_conservation(
        ues in 1u16..6,
        prbs in prop_oneof![Just(25u32), Just(50u32), Just(106u32)],
        mcs in 5u8..28,
        run_ms in 200u64..1500,
    ) {
        check_packet_conservation(ues, prbs, mcs, run_ms);
    }

    /// Cell capacity: aggregate delivered throughput never exceeds the
    /// PHY-model capacity of the cell.
    #[test]
    fn throughput_bounded_by_capacity(
        ues in 1u16..5,
        mcs in 5u8..28,
    ) {
        let prbs = 50u32;
        let mut sim = Sim::new(vec![CellConfig::nr("c", prbs)], PathConfig::default());
        for i in 0..ues {
            sim.attach_ue(0, UeConfig::new(0x100 + i, mcs));
            sim.add_flow(greedy(0x100 + i, 80));
        }
        let run_ms = 3_000u64;
        sim.run_ms(run_ms);
        let delivered: u64 = (0..sim.flow_count()).map(|f| sim.flow(f).delivered_bytes).sum();
        let cap_bytes = flexric_ransim::bytes_per_prb_tti(flexric_ransim::Rat::Nr, mcs) as u64
            * prbs as u64
            * run_ms;
        prop_assert!(
            delivered <= cap_bytes,
            "delivered {delivered} exceeds capacity {cap_bytes}"
        );
    }

    /// NVS isolation: with all slices backlogged, each capacity slice's
    /// share of delivered bytes is within tolerance of its configuration.
    #[test]
    fn nvs_shares_hold_under_load(
        share_a in 200u32..800,
    ) {
        let share_b = 1000 - share_a;
        let mut sim = Sim::new(vec![CellConfig::nr("c", 106)], PathConfig::default());
        sim.attach_ue(0, UeConfig::new(0x1, 20));
        sim.attach_ue(0, UeConfig::new(0x2, 20));
        let fa = sim.add_flow(greedy(0x1, 80));
        let fb = sim.add_flow(greedy(0x2, 81));
        let cell = &mut sim.cells[0];
        cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).unwrap();
        cell.apply_slice_ctrl(&SliceCtrl::AddModSlices {
            slices: vec![
                SliceConf { id: 0, label: "a".into(),
                    params: SliceParams::NvsCapacity { share_milli: share_a },
                    ue_sched: UeSchedAlgo::PropFair },
                SliceConf { id: 1, label: "b".into(),
                    params: SliceParams::NvsCapacity { share_milli: share_b },
                    ue_sched: UeSchedAlgo::PropFair },
            ],
        }).unwrap();
        cell.apply_slice_ctrl(&SliceCtrl::AssocUeSlice { assoc: vec![(0x1, 0), (0x2, 1)] })
            .unwrap();
        sim.run_ms(10_000);
        let a = sim.flow(fa).delivered_bytes as f64;
        let b = sim.flow(fb).delivered_bytes as f64;
        let frac = a / (a + b);
        let want = share_a as f64 / 1000.0;
        prop_assert!(
            (frac - want).abs() < 0.08,
            "slice a got {frac:.3}, configured {want:.3}"
        );
    }

    /// Admission control is a total function: any sequence of slice-control
    /// commands either applies or errors; the scheduler never ends up with
    /// more than 100 % reserved.
    #[test]
    fn admission_never_overcommits(
        shares in proptest::collection::vec(1u32..1200, 1..8),
    ) {
        let mut sim = Sim::new(vec![CellConfig::nr("c", 106)], PathConfig::default());
        let cell = &mut sim.cells[0];
        cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).unwrap();
        for (i, milli) in shares.iter().enumerate() {
            let _ = cell.apply_slice_ctrl(&SliceCtrl::AddModSlices {
                slices: vec![SliceConf {
                    id: i as u32,
                    label: format!("s{i}"),
                    params: SliceParams::NvsCapacity { share_milli: *milli },
                    ue_sched: UeSchedAlgo::RoundRobin,
                }],
            });
        }
        let total: f64 = cell
            .sched
            .slices
            .iter()
            .filter(|s| s.conf.id != u32::MAX)
            .map(|s| s.conf.params.share(106))
            .sum();
        prop_assert!(total <= 1.0 + 1e-9, "scheduler over-committed: {total:.3}");
    }
}
