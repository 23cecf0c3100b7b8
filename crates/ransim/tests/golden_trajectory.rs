//! Golden trajectories of the simulator: seeded worlds whose whole
//! observable state is folded into one 64-bit digest and pinned.
//!
//! Every 10 TTIs a world folds every field of every cell's `mac_stats()`,
//! `rlc_stats()` and `slice_stats()`, the scheduler's and the RLC's `f64`
//! averages bit for bit, and each flow's counters; at the end, each flow's
//! `rtt_log` and congestion window.  The constants below were captured on
//! the commit BEFORE the TTI path lost its event heap and its per-TTI
//! `Vec`s, so a change to `sim.rs`, `cell.rs`, `tc.rs`, `rlc.rs`,
//! `traffic.rs` or `nvs.rs` that moves one of them has changed what is
//! simulated — a tie broken the other way, an EWMA updated in another
//! order, a packet queued one position later.  That can be wanted (a new
//! scheduler rule); then re-pin the digest in the same change and say why.
//! A failing assertion prints the digest it computed.

use flexric_ransim::cell::CellConfig;
use flexric_ransim::scenario::ScenarioSpec;
use flexric_ransim::{FlowConfig, FlowKind, PathConfig, ScenarioEngine, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcCtrl, TcSchedAlgo};

mod worlds;
use worlds::{
    flow, mix, nvs, slice, slice_ctrl, storm_slices, storm_world, STORM_SHARES, TCP, VOIP,
};

/// FNV-1a over everything a world shows.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `{:?}` of the statistics indications names every field, so a field
    /// added to a snapshot moves the digest too.
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// What the world shows now; called every 10 TTIs.
    fn fold(&mut self, sim: &mut Sim) {
        self.u64(sim.now_ms());
        for cell in &mut sim.cells {
            self.debug(&cell.mac_stats());
            self.debug(&cell.rlc_stats());
            self.debug(&cell.slice_stats());
            for s in &cell.sched.slices {
                self.u64(s.avg_slots.to_bits());
                self.u64(s.avg_rate_bptti.to_bits());
                self.u64(s.rr_cursor as u64);
            }
            for ue in &cell.ues {
                for b in &ue.bearers {
                    self.u64(b.rlc.drain_rate_bpms.to_bits());
                    self.u64(b.tc.backlog_bytes());
                }
            }
        }
        for f in 0..sim.flow_count() {
            let flow = sim.flow(f);
            self.u64(flow.tx_pkts);
            self.u64(flow.delivered_pkts);
            self.u64(flow.delivered_bytes);
            self.u64(flow.lost_pkts);
            self.u64(flow.rtt_log.len() as u64);
        }
    }

    /// The per-flow logs, once, at the end of a world.
    fn finish(mut self, sim: &mut Sim) -> u64 {
        self.fold(sim);
        for f in 0..sim.flow_count() {
            let flow = sim.flow(f);
            for (sent, rtt) in &flow.rtt_log {
                self.u64(*sent);
                self.u64(*rtt);
            }
            if let Some(tcp) = flow.tcp_state() {
                self.u64(tcp.cwnd.to_bits());
                self.u64(tcp.in_flight);
                self.u64(tcp.losses);
            }
        }
        self.0
    }
}

/// Runs `ms` TTIs, `each(sim, t)` before every tick, folding every 10.
fn run(sim: &mut Sim, ms: u64, mut each: impl FnMut(&mut Sim, u64)) -> u64 {
    let mut d = Digest::new();
    for t in 0..ms {
        each(sim, t);
        sim.tick();
        if t % 10 == 9 {
            d.fold(sim);
        }
    }
    d.finish(sim)
}

/// Asserts a digest against its pinned value, printing what was computed.
#[track_caller]
fn pinned(world: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{world}: digest is {got:#018x}, pinned {want:#018x}");
}

// (a) The ctrl-storm world with an `AddModSlices` flip every TTI.
#[test]
fn a_ctrl_storm_world_with_a_control_every_tti() {
    for (seed, want) in [(1, GOLDEN_A[0]), (7, GOLDEN_A[1])] {
        let mut sim = storm_world(mix(seed, 0));
        let got = run(&mut sim, 500, |sim, t| {
            let slices = storm_slices(&STORM_SHARES[(t % 2) as usize]);
            slice_ctrl(sim, 0, SliceCtrl::AddModSlices { slices });
        });
        pinned(&format!("ctrl-storm world, seed {seed}"), got, want);
    }
}

/// An unmodified preset for 30 virtual seconds: digest and `trace_hash`.
fn preset_world(name: &str, seed: u64) -> (u64, u64) {
    let mut eng = ScenarioEngine::new(ScenarioSpec::preset(name, seed).expect("shipped preset"));
    let mut sim = eng.build_sim();
    eng.prime(&mut sim);
    let mut d = Digest::new();
    for t in 0..30_000u64 {
        sim.tick();
        eng.advance(&mut sim);
        if t % 10 == 9 {
            d.fold(&mut sim);
        }
    }
    (d.finish(&mut sim), eng.trace_hash())
}

// (b) The shipped presets under the scenario engine: mobility, churn,
//     handovers, an outage; bursty UEs included.
#[test]
fn b_commuter_rush_preset() {
    let (got, trace) = preset_world("commuter-rush", 1);
    pinned("commuter-rush trace_hash", trace, GOLDEN_B_RUSH.1);
    pinned("commuter-rush", got, GOLDEN_B_RUSH.0);
}

#[test]
fn b_flash_crowd_preset() {
    let (got, trace) = preset_world("flash-crowd", 3);
    pinned("flash-crowd trace_hash", trace, GOLDEN_B_FLASH.1);
    pinned("flash-crowd", got, GOLDEN_B_FLASH.0);
}

// (c) Bufferbloat: VoIP beside two greedy flows on one bearer whose RLC
//     buffer is small enough to drop; a second UE behind a capped TC queue
//     (ingress loss) and a CoDel queue.  Strict priority, then weighted
//     round robin over three queues and two rules; the BDP pacer goes on,
//     off and on again.
#[test]
fn c_bufferbloat_tc_and_pacer() {
    let cell = CellConfig { rlc_cap_bytes: 60_000, ..CellConfig::nr("bloat", 106) };
    let mut sim = Sim::new(vec![cell], PathConfig::default());
    sim.attach_ue(0, UeConfig::new(0x4601, 20));
    sim.attach_ue(0, UeConfig::new(0x4602, 12));
    sim.add_flow(flow(0, 0x4601, VOIP, 5_004, 17));
    sim.add_flow(FlowConfig { start_ms: 300, ..flow(0, 0x4601, TCP, 80, 6) });
    sim.add_flow(FlowConfig { start_ms: 900, stop_ms: Some(5_000), ..flow(0, 0x4601, TCP, 81, 6) });
    sim.add_flow(flow(0, 0x4602, FlowKind::Cbr { bytes: 1_200, interval_ms: 1 }, 9_000, 17));
    sim.add_flow(flow(0, 0x4602, TCP, 443, 6));
    let rule = |id, dst_port, proto, queue| TcCtrl::AddRule {
        rule: FiveTupleRule {
            id,
            dst_port: Some(dst_port),
            proto: Some(proto),
            ..Default::default()
        },
        queue,
        precedence: id,
    };
    let queue = |id, kind| TcCtrl::AddQueue { id, kind };
    let fifo = |cap_bytes| QueueKind::Fifo { cap_bytes };
    let pacer = |target_delay_us| TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us } };
    let sched = |algo, weights| TcCtrl::SetSched { algo, weights };
    let got = run(&mut sim, 8_000, |sim, t| {
        let ctrls = match t {
            500 => vec![
                (0x4601, queue(2, fifo(0))),
                (0x4601, queue(1, fifo(0))),
                (0x4601, rule(1, 5_004, 17, 1)),
                (0x4601, rule(2, 81, 6, 2)),
                (0x4601, sched(TcSchedAlgo::StrictPriority, vec![])),
                (0x4602, queue(1, fifo(20_000))),
                (0x4602, queue(3, QueueKind::Codel { target_us: 5_000, interval_us: 100_000 })),
                (0x4602, rule(1, 9_000, 17, 1)),
                (0x4602, rule(2, 443, 6, 3)),
            ],
            1_500 => vec![(0x4601, pacer(10_000)), (0x4602, pacer(10_000))],
            3_000 => vec![(0x4601, sched(TcSchedAlgo::WeightedRoundRobin, vec![1, 4, 2]))],
            4_500 => vec![(0x4601, TcCtrl::SetPacer { pacer: PacerConf::None })],
            6_000 => vec![(0x4601, pacer(25_000)), (0x4602, TcCtrl::DelQueue { id: 3 })],
            _ => vec![],
        };
        for (rnti, ctrl) in ctrls {
            sim.cells[0].apply_tc_ctrl(rnti, 1, &ctrl).expect("TC control applies");
        }
    });
    assert!((0..sim.flow_count()).any(|f| sim.flow(f).lost_pkts > 0), "the world must drop");
    pinned("bufferbloat", got, GOLDEN_C);
}

// (d) Static PRB ranges: a round-robin slice, a max-throughput slice with
//     equal-MCS UEs (ties) and a PF slice; one UE in no configured slice;
//     a range that is reconfigured mid-run and one that is empty (hi < lo).
#[test]
fn d_static_ranges_round_robin_and_max_throughput() {
    let mut sim = Sim::new(vec![CellConfig::lte("static", 50)], PathConfig::default());
    slice_ctrl(&mut sim, 0, SliceCtrl::SetAlgo { algo: SliceAlgo::Static });
    let ranges = |mid: u16| SliceCtrl::AddModSlices {
        slices: vec![
            slice(0, SliceParams::StaticRb { lo: 0, hi: mid }, UeSchedAlgo::RoundRobin),
            slice(1, SliceParams::StaticRb { lo: mid + 1, hi: 39 }, UeSchedAlgo::MaxThroughput),
            slice(2, SliceParams::StaticRb { lo: 40, hi: 49 }, UeSchedAlgo::PropFair),
            slice(3, SliceParams::StaticRb { lo: 9, hi: 3 }, UeSchedAlgo::RoundRobin),
        ],
    };
    slice_ctrl(&mut sim, 0, ranges(19));
    let mcs = [9u8, 16, 16, 22, 22, 22, 12, 12, 28, 5];
    for (u, mcs) in mcs.into_iter().enumerate() {
        let rnti = 0x100 + u as u16;
        sim.attach_ue(0, UeConfig::new(rnti, mcs));
        let slice = [0, 0, 0, 1, 1, 1, 2, 2, 7, 3][u];
        slice_ctrl(&mut sim, 0, SliceCtrl::AssocUeSlice { assoc: vec![(rnti, slice)] });
        let kind = if u % 4 == 3 { FlowKind::Cbr { bytes: 900, interval_ms: 3 } } else { TCP };
        sim.add_flow(flow(0, rnti, kind, 80 + u as u16, 6));
    }
    let got = run(&mut sim, 6_000, |sim, t| match t {
        2_000 => slice_ctrl(sim, 0, ranges(9)),
        4_000 => slice_ctrl(sim, 0, SliceCtrl::DelSlices { ids: vec![2] }),
        _ => {}
    });
    pinned("static ranges", got, GOLDEN_D);
}

// (e) NVS without sharing: a capacity slice that is idle (its slots are
//     wasted), a rate slice, and a capacity slice whose only flow pauses.
#[test]
fn e_nvs_no_sharing_with_an_idle_slice() {
    let mut sim = Sim::new(vec![CellConfig::nr("nosharing", 106)], PathConfig::default());
    slice_ctrl(&mut sim, 0, SliceCtrl::SetAlgo { algo: SliceAlgo::NvsNoSharing });
    let rate = SliceParams::NvsRate { rate_kbps: 6_000, ref_kbps: 60_000 };
    let slices = vec![
        nvs(0, 400, UeSchedAlgo::RoundRobin),
        nvs(1, 300, UeSchedAlgo::PropFair),
        slice(2, rate, UeSchedAlgo::MaxThroughput),
    ];
    slice_ctrl(&mut sim, 0, SliceCtrl::AddModSlices { slices });
    for (u, (slice, mcs)) in [(0, 18u8), (0, 25), (2, 14), (2, 14), (1, 20)].into_iter().enumerate()
    {
        let rnti = 0x200 + u as u16;
        sim.attach_ue(0, UeConfig::new(rnti, mcs));
        slice_ctrl(&mut sim, 0, SliceCtrl::AssocUeSlice { assoc: vec![(rnti, slice)] });
        // Slice 1's UE has no flow until t = 2 500: the slice is idle.
        let start_ms = if slice == 1 { 2_500 } else { 0 };
        sim.add_flow(FlowConfig { start_ms, ..flow(0, rnti, TCP, 80 + u as u16, 6) });
    }
    let got = run(&mut sim, 5_000, |sim, t| match t {
        1_000 => sim.set_flow_active(0, false),
        1_800 => sim.set_flow_active(0, true),
        3_500 => slice_ctrl(sim, 0, SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }),
        _ => {}
    });
    pinned("NVS without sharing", got, GOLDEN_E);
}

// (f) A handover and a detach with packets in flight: the moved UE's
//     queued packets go with it, the detached UE's flow keeps sending into
//     the void and sees every packet lost.
#[test]
fn f_handover_and_detach_with_packets_in_flight() {
    let cells = vec![CellConfig::lte("a", 25), CellConfig::nr("b", 51)];
    let mut sim = Sim::new(cells, PathConfig::default());
    for (cell, rnti, mcs) in [(0, 0x301u16, 15u8), (0, 0x302, 24), (1, 0x303, 19)] {
        sim.attach_ue(cell, UeConfig::new(rnti, mcs));
        sim.add_flow(flow(cell, rnti, TCP, 80, 6));
        sim.add_flow(flow(cell, rnti, VOIP, 5_004, 17));
    }
    let got = run(&mut sim, 4_000, |sim, t| match t {
        1_203 => sim.handover(0x302, 0, 1).expect("UE is in cell 0"),
        2_001 => sim.detach_ue(1, 0x303),
        2_777 => sim.handover(0x302, 1, 0).expect("UE is in cell 1"),
        _ => {}
    });
    pinned("handover and detach", got, GOLDEN_F);
}

// (g) Path latencies at their edges: a packet drained in one TTI is
//     delivered at the start of the next, its ACK one TTI later — or, with
//     both latencies zero, in the same pass over the event queue.
#[test]
fn g_zero_path_latencies() {
    let paths = [
        PathConfig { dl_latency_ms: 0, ul_rtt_ms: 1 },
        PathConfig { dl_latency_ms: 0, ul_rtt_ms: 0 },
        PathConfig { dl_latency_ms: 7, ul_rtt_ms: 0 },
    ];
    for (path, want) in paths.into_iter().zip(GOLDEN_G) {
        let mut sim = Sim::new(vec![CellConfig::nr("fast", 106)], path);
        for u in 0..3u16 {
            sim.attach_ue(0, UeConfig::new(0x400 + u, 14 + 4 * u as u8));
            sim.add_flow(flow(0, 0x400 + u, TCP, 80, 6));
            sim.add_flow(flow(0, 0x400 + u, VOIP, 5_004, 17));
        }
        let got = run(&mut sim, 3_000, |_, _| {});
        pinned(&format!("{path:?}"), got, want);
    }
}

// (h) Equal NVS shares: at t = 0 every slice weighs the same, and again
//     whenever two have been served equally often — the lower index wins.
#[test]
fn h_equal_shares_break_ties_by_index() {
    for (algo, want) in [SliceAlgo::Nvs, SliceAlgo::NvsNoSharing].into_iter().zip(GOLDEN_H) {
        let mut sim = Sim::new(vec![CellConfig::nr("ties", 106)], PathConfig::default());
        slice_ctrl(&mut sim, 0, SliceCtrl::SetAlgo { algo });
        let slices = (0..3).map(|id| nvs(id, 333, UeSchedAlgo::PropFair)).collect();
        slice_ctrl(&mut sim, 0, SliceCtrl::AddModSlices { slices });
        for u in 0..6u16 {
            sim.attach_ue(0, UeConfig::new(0x500 + u, 17));
            let assoc = vec![(0x500 + u, u as u32 % 3)];
            slice_ctrl(&mut sim, 0, SliceCtrl::AssocUeSlice { assoc });
            sim.add_flow(flow(0, 0x500 + u, TCP, 80, 6));
        }
        let got = run(&mut sim, 1_500, |_, _| {});
        pinned(&format!("equal shares under {algo:?}"), got, want);
    }
}

// Captured at e22ad32, the parent of the TTI rework.
const GOLDEN_A: [u64; 2] = [0xc491_4e38_4724_5272, 0x86de_be64_be5d_0612];
const GOLDEN_B_RUSH: (u64, u64) = (0x633c_87e6_3a37_2878, 0x6ecd_5d1f_2f1e_4795);
const GOLDEN_B_FLASH: (u64, u64) = (0x9469_c995_eee7_e5eb, 0x5f90_b217_8feb_6698);
const GOLDEN_C: u64 = 0xe543_0094_bb60_48d8;
const GOLDEN_D: u64 = 0x1fb9_f9dc_c3a3_bd52;
const GOLDEN_E: u64 = 0xfdb6_113c_19bd_9d76;
const GOLDEN_F: u64 = 0x0d22_4964_0dd7_2d9d;
const GOLDEN_G: [u64; 3] = [0xe0ae_5b7d_5804_8d2a, 0x71a4_d74c_cbce_e177, 0x8caf_046a_2fe7_0ac5];
const GOLDEN_H: [u64; 2] = [0x9ac6_b7d7_0b54_5a0a, 0xb341_f0b8_1ac3_d05d];
