//! The simulation engine: cells + flows + the delivery/ACK pipeline.
//!
//! Packets move through a TTI as runs ([`Run`]): `count` equal packets —
//! what one flow sends in one TTI — are one value from generation through
//! TC and RLC queues, drain, delivery and the ACK that comes back, and a
//! step pays per run, not per packet.  A TTI is four steps:
//!
//! 1. **Deliveries and ACKs** due now.  A delivered run of a greedy TCP
//!    flow sends one ACK entry back, and the ACKs of one flow that fall due
//!    in the same ms are one entry; each is one [`Flow::on_acks`].
//! 2. **Generation**, over the flows that are due, in index order: a CBR
//!    flow at its next interval (a timer), a greedy flow after its start,
//!    an ACK, a loss or a resume.  A paused, stopped or departed flow is
//!    not visited, and a TCP flow whose window is full waits for its ACKs.
//!    Each visit hands at most one run to its cell's ingress.
//! 3. **Cells**: TC release, MAC scheduling and RLC drain; a cell with
//!    nothing queued only accounts the idle slot.
//! 4. Drained runs go in flight; drop-tail losses reach their senders.
//!
//! Flows never share state, so the order of steps 1's events across flows
//! is free; within a flow, deliveries touch its counters and ACKs its
//! window, and every ACK of a TTI arrives at the same `now`.  That, with
//! the queues' run rules (DESIGN.md, "The simulator's TTI pipeline"), keeps
//! every trajectory equal to the packet-at-a-time one.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cell::{Cell, CellConfig, UeConfig};
use crate::rlc::Run;
use crate::traffic::{Flow, FlowConfig};

/// Latency parameters of the path outside the cell.
#[derive(Debug, Clone, Copy)]
pub struct PathConfig {
    /// Air-interface + HARQ pipeline latency after the MAC drains a
    /// packet (ms).
    pub dl_latency_ms: u64,
    /// Return-path latency (UE → server): uplink + core (ms).
    pub ul_rtt_ms: u64,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig { dl_latency_ms: 4, ul_rtt_ms: 10 }
    }
}

/// Metrics for the simulation tick loop, registered once.
struct SimObs {
    tti_ns: flexric_obs::Histogram,
    tti_last_ns: flexric_obs::Gauge,
    tti_overruns: flexric_obs::Counter,
}

fn obs() -> &'static SimObs {
    static OBS: std::sync::OnceLock<SimObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SimObs {
        tti_ns: flexric_obs::histogram(
            "flexric_ransim_tti_ns",
            "Wall-clock nanoseconds spent per simulated 1 ms TTI tick",
        ),
        tti_last_ns: flexric_obs::gauge(
            "flexric_ransim_tti_last_ns",
            "Wall-clock nanoseconds of the most recent TTI tick",
        ),
        tti_overruns: flexric_obs::counter(
            "flexric_ransim_tti_overruns_total",
            "TTI ticks whose wall-clock cost exceeded the 1 ms real-time budget",
        ),
    })
}

/// No timer armed.
const UNARMED: u64 = u64::MAX;

/// The discrete-time (1 ms TTI) RAN simulation.
pub struct Sim {
    /// The cells.
    pub cells: Vec<Cell>,
    flows: Vec<Flow>,
    path: PathConfig,
    /// Runs on their way to the UE, `(at_ms, run)`.  Every entry is
    /// scheduled `dl_latency_ms` after the TTI that drained it, so the
    /// queue is in `at_ms` order as pushed.
    deliveries: VecDeque<(u64, Run)>,
    /// ACKs on their way back to the sender, `(at_ms, flow, count)`: one
    /// entry per flow and ms, in `at_ms` order as pushed.
    acks: VecDeque<(u64, u32, u32)>,
    /// Flows to visit at the next generation step: ACKed, lossy, resumed
    /// or still sending; unordered, repeats allowed.
    due: Vec<u32>,
    /// Flows' timers, `(at_ms, flow)`: a CBR flow's next interval, a
    /// flow's start.  An entry is live while `wake[flow]` holds its time.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per flow: the time of its live timer, or [`UNARMED`].
    wake: Vec<u64>,
    now_ms: u64,
    /// Per-TTI scratch (the flows visited; a cell's drained runs and its
    /// drop-tail losses): cleared, never freed.
    visit: Vec<u32>,
    drained: Vec<Run>,
    dropped: Vec<Run>,
}

impl Sim {
    /// Creates a simulation over the given cells.
    pub fn new(cells: Vec<CellConfig>, path: PathConfig) -> Self {
        Sim {
            cells: cells.into_iter().map(Cell::new).collect(),
            flows: Vec::new(),
            path,
            deliveries: VecDeque::new(),
            acks: VecDeque::new(),
            due: Vec::new(),
            timers: BinaryHeap::new(),
            wake: Vec::new(),
            now_ms: 0,
            visit: Vec::new(),
            drained: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// Current simulation time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Attaches a UE to a cell.
    pub fn attach_ue(&mut self, cell: usize, cfg: UeConfig) {
        self.cells[cell].attach_ue(cfg);
    }

    /// Detaches a UE.
    pub fn detach_ue(&mut self, cell: usize, rnti: u16) {
        self.cells[cell].detach_ue(rnti);
    }

    /// Adds a flow; returns its id.
    pub fn add_flow(&mut self, cfg: FlowConfig) -> usize {
        assert!(self.flows.len() < u32::MAX as usize, "a packet names its flow in 32 bits");
        let id = self.flows.len() as u32;
        let start_ms = cfg.start_ms;
        self.flows.push(Flow::new(cfg));
        self.wake.push(UNARMED);
        self.arm(id, start_ms);
        id as usize
    }

    /// Pauses/resumes a flow (experiment control).
    pub fn set_flow_active(&mut self, flow: usize, active: bool) {
        self.flows[flow].active = active;
        if active {
            self.due.push(flow as u32);
        }
    }

    /// Read access to a flow (counters, RTT log).
    pub fn flow(&self, flow: usize) -> &Flow {
        &self.flows[flow]
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Sets `flow`'s timer to `at_ms` unless it already fires by then.
    fn arm(&mut self, flow: u32, at_ms: u64) {
        let wake = &mut self.wake[flow as usize];
        if at_ms < *wake {
            *wake = at_ms;
            self.timers.push(Reverse((at_ms, flow)));
        }
    }

    /// Advances the simulation by one TTI (1 ms).
    pub fn tick(&mut self) {
        let sw = flexric_obs::Stopwatch::start();
        let now = self.now_ms;
        // 1. Deliveries due now, then ACKs due now — those the deliveries
        //    just sent back included when the return path takes 0 ms.
        while let Some(&(at_ms, (pkt, n))) = self.deliveries.front() {
            if at_ms > now {
                break;
            }
            self.deliveries.pop_front();
            let Some(flow) = self.flows.get_mut(pkt.flow as usize) else { continue };
            flow.on_delivered(&pkt, n, now, self.path.ul_rtt_ms);
            if flow.is_tcp() {
                self.ack(now + self.path.ul_rtt_ms, pkt.flow, n);
            }
        }
        while let Some(&(at_ms, flow, n)) = self.acks.front() {
            if at_ms > now {
                break;
            }
            self.acks.pop_front();
            self.flows[flow as usize].on_acks(now, n);
            self.due.push(flow);
        }
        // 2. The due flows generate, in index order; each run enters its
        //    cell.  What the ingress drops is lost at once.
        let mut visit = std::mem::take(&mut self.visit);
        std::mem::swap(&mut visit, &mut self.due);
        while let Some(&Reverse((at_ms, flow))) = self.timers.peek() {
            if at_ms > now {
                break;
            }
            self.timers.pop();
            if self.wake[flow as usize] == at_ms {
                self.wake[flow as usize] = UNARMED;
                visit.push(flow);
            }
        }
        visit.sort_unstable();
        visit.dedup();
        for &fi in &visit {
            let flow = &mut self.flows[fi as usize];
            if let Some((pkt, n)) = flow.generate(fi, now) {
                let cfg = &flow.cfg;
                let lost = self.cells[cfg.cell].ingress(cfg.rnti, cfg.drb, cfg.tuple, pkt, n);
                if lost > 0 {
                    flow.on_lost(now, lost);
                }
            }
            match flow.next_send(now) {
                Some(at_ms) if at_ms == now + 1 => self.due.push(fi),
                Some(at_ms) => self.arm(fi, at_ms),
                None => {}
            }
        }
        visit.clear();
        self.visit = visit;
        // 3. Cells schedule and drain; drained runs are in flight,
        //    drop-tail losses are signalled back to their senders.
        let at_ms = now + self.path.dl_latency_ms;
        for cell in &mut self.cells {
            self.drained.clear();
            self.dropped.clear();
            cell.tick(now, &mut self.drained, &mut self.dropped);
            for &run in &self.drained {
                match self.deliveries.back_mut() {
                    Some((at, (pkt, n))) if *at == at_ms && *pkt == run.0 => *n += run.1,
                    _ => self.deliveries.push_back((at_ms, run)),
                }
            }
            for &(pkt, n) in &self.dropped {
                let Some(flow) = self.flows.get_mut(pkt.flow as usize) else { continue };
                flow.on_lost(now, n);
                if flow.is_tcp() {
                    self.due.push(pkt.flow);
                }
            }
        }
        self.now_ms += 1;
        // A real-time deployment has 1 ms per TTI; going over budget is the
        // signal the paper's radio-deployment overhead figures guard.
        let ns = sw.elapsed_ns();
        let m = obs();
        m.tti_ns.record(ns);
        m.tti_last_ns.set(ns as i64);
        if ns > 1_000_000 {
            m.tti_overruns.inc();
        }
    }

    /// Sends `n` ACKs of `flow` back, due at `at_ms`: into the entry the
    /// flow already has at that ms, if any.
    fn ack(&mut self, at_ms: u64, flow: u32, n: u32) {
        debug_assert!(self.acks.back().is_none_or(|last| last.0 <= at_ms), "ACKs out of order");
        let same_ms = self.acks.iter_mut().rev().take_while(|(at, _, _)| *at == at_ms);
        match same_ms.into_iter().find(|(_, f, _)| *f == flow) {
            Some((_, _, count)) => *count += n,
            None => self.acks.push_back((at_ms, flow, n)),
        }
    }

    /// Hands a UE over from one cell to another: the UE moves with its
    /// bearers (and their queued packets); RRC HandoverOut/In events are
    /// emitted at the source/target; the UE's flows follow it.
    pub fn handover(&mut self, rnti: u16, from: usize, to: usize) -> Result<(), String> {
        if from == to || from >= self.cells.len() || to >= self.cells.len() {
            return Err("bad handover cells".to_owned());
        }
        let Some(ue) = self.cells[from].extract_ue(rnti) else {
            return Err(format!("no UE {rnti:#x} in cell {from}"));
        };
        self.cells[to].insert_ue(ue);
        for f in &mut self.flows {
            if f.cfg.cell == from && f.cfg.rnti == rnti {
                f.cfg.cell = to;
            }
        }
        Ok(())
    }

    /// Runs `n` TTIs.
    pub fn run_ms(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::FlowKind;
    use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
    use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcCtrl};

    fn one_cell_sim(prbs: u32, mcs: u8, ues: u16) -> Sim {
        let mut sim = Sim::new(vec![CellConfig::nr("cell0", prbs)], PathConfig::default());
        for i in 0..ues {
            sim.attach_ue(0, UeConfig::new(0x4601 + i, mcs));
        }
        sim
    }

    fn greedy(cell: usize, rnti: u16, port: u16) -> FlowConfig {
        FlowConfig {
            cell,
            rnti,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (0x0A000001, 0x0A000002, 1000, port, 6),
            start_ms: 0,
            stop_ms: None,
        }
    }

    #[test]
    fn greedy_flow_saturates_cell() {
        let mut sim = one_cell_sim(106, 20, 1);
        let f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(5_000);
        let delivered = sim.flow(f).delivered_bytes;
        let mbps = delivered as f64 * 8.0 / 5_000.0 / 1000.0;
        // NR 106 RB MCS 20 ≈ 60 Mbps; TCP should reach most of it.
        assert!(mbps > 40.0, "greedy TCP reached only {mbps:.1} Mbps");
        assert!(mbps < 80.0, "throughput above link capacity: {mbps:.1} Mbps");
    }

    #[test]
    fn two_ues_share_equally_without_slicing() {
        let mut sim = one_cell_sim(106, 20, 2);
        let f1 = sim.add_flow(greedy(0, 0x4601, 80));
        let f2 = sim.add_flow(greedy(0, 0x4602, 81));
        sim.run_ms(10_000);
        let d1 = sim.flow(f1).delivered_bytes as f64;
        let d2 = sim.flow(f2).delivered_bytes as f64;
        let ratio = d1 / d2;
        assert!((0.8..1.25).contains(&ratio), "equal sharing, ratio {ratio:.2}");
    }

    #[test]
    fn bufferbloat_emerges_with_cbr_and_tcp() {
        // The Fig. 11 signature: once the greedy TCP flow starts, the
        // VoIP packets' RTT jumps from ~base to hundreds of ms.
        let mut sim = one_cell_sim(106, 20, 1);
        let voip = sim.add_flow(FlowConfig {
            cell: 0,
            rnti: 0x4601,
            drb: 1,
            kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
            tuple: (0x0A000001, 0x0A000002, 1000, 5004, 17),
            start_ms: 0,
            stop_ms: None,
        });
        let _tcp = sim.add_flow(FlowConfig { start_ms: 5_000, ..greedy(0, 0x4601, 80) });
        sim.run_ms(30_000);
        let log = &sim.flow(voip).rtt_log;
        let before: Vec<u64> =
            log.iter().filter(|(t, _)| *t < 4_000).map(|(_, r)| *r / 1000).collect();
        let after: Vec<u64> =
            log.iter().filter(|(t, _)| *t > 15_000).map(|(_, r)| *r / 1000).collect();
        let avg = |v: &[u64]| v.iter().sum::<u64>() / v.len().max(1) as u64;
        let (b, a) = (avg(&before), avg(&after));
        assert!(b < 40, "VoIP RTT before TCP should be near base: {b} ms");
        assert!(a > 100, "bufferbloat should inflate VoIP RTT: {a} ms");
    }

    #[test]
    fn tc_xapp_recipe_rescues_voip() {
        // Apply the three actions of the paper's TC xApp (second queue,
        // 5-tuple filter, BDP pacer with RR scheduler) and verify the VoIP
        // RTT stays low despite the greedy flow.
        let mut sim = one_cell_sim(106, 20, 1);
        let voip = sim.add_flow(FlowConfig {
            cell: 0,
            rnti: 0x4601,
            drb: 1,
            kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
            tuple: (0x0A000001, 0x0A000002, 1000, 5004, 17),
            start_ms: 0,
            stop_ms: None,
        });
        let _tcp = sim.add_flow(FlowConfig { start_ms: 2_000, ..greedy(0, 0x4601, 80) });
        for ctrl in [
            TcCtrl::AddQueue { id: 1, kind: QueueKind::Fifo { cap_bytes: 0 } },
            TcCtrl::AddRule {
                rule: FiveTupleRule {
                    id: 1,
                    dst_port: Some(5004),
                    proto: Some(17),
                    ..Default::default()
                },
                queue: 1,
                precedence: 0,
            },
            TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us: 10_000 } },
        ] {
            sim.cells[0].apply_tc_ctrl(0x4601, 1, &ctrl).unwrap();
        }
        sim.run_ms(30_000);
        let log = &sim.flow(voip).rtt_log;
        let after: Vec<u64> =
            log.iter().filter(|(t, _)| *t > 15_000).map(|(_, r)| *r / 1000).collect();
        let avg = after.iter().sum::<u64>() / after.len().max(1) as u64;
        assert!(avg < 80, "TC xApp keeps VoIP RTT low, got {avg} ms");
    }

    #[test]
    fn nvs_isolation_between_slices() {
        // Fig. 13a shape: two slices 50/50, one UE in slice 0 and two in
        // slice 1 → the lone UE gets ≈50 % of cell throughput.
        let mut sim = one_cell_sim(106, 20, 3);
        let cell = &mut sim.cells[0];
        cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).unwrap();
        cell.apply_slice_ctrl(&SliceCtrl::AddModSlices {
            slices: vec![
                SliceConf {
                    id: 0,
                    label: "white".into(),
                    params: SliceParams::NvsCapacity { share_milli: 500 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
                SliceConf {
                    id: 1,
                    label: "rest".into(),
                    params: SliceParams::NvsCapacity { share_milli: 500 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
            ],
        })
        .unwrap();
        cell.apply_slice_ctrl(&SliceCtrl::AssocUeSlice {
            assoc: vec![(0x4601, 0), (0x4602, 1), (0x4603, 1)],
        })
        .unwrap();
        let f1 = sim.add_flow(greedy(0, 0x4601, 80));
        let f2 = sim.add_flow(greedy(0, 0x4602, 81));
        let f3 = sim.add_flow(greedy(0, 0x4603, 82));
        sim.run_ms(15_000);
        let d1 = sim.flow(f1).delivered_bytes as f64;
        let d2 = sim.flow(f2).delivered_bytes as f64;
        let d3 = sim.flow(f3).delivered_bytes as f64;
        let share1 = d1 / (d1 + d2 + d3);
        assert!((share1 - 0.5).abs() < 0.07, "lone slice-0 UE got {share1:.3}, want ≈0.5");
        let ratio23 = d2 / d3;
        assert!((0.7..1.4).contains(&ratio23), "slice-1 UEs share equally: {ratio23:.2}");
    }

    #[test]
    fn static_ranges_split_the_cell() {
        // 13 and 12 of 25 PRBs; a range with hi < lo serves nobody.
        let mut sim = one_cell_sim(25, 20, 3);
        let cell = &mut sim.cells[0];
        cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Static }).unwrap();
        let ranges = [(0, 12), (13, 24), (9, 3)];
        let slices = ranges.into_iter().enumerate().map(|(id, (lo, hi))| SliceConf {
            id: id as u32,
            label: format!("s{id}"),
            params: SliceParams::StaticRb { lo, hi },
            ue_sched: UeSchedAlgo::RoundRobin,
        });
        cell.apply_slice_ctrl(&SliceCtrl::AddModSlices { slices: slices.collect() }).unwrap();
        cell.apply_slice_ctrl(&SliceCtrl::AssocUeSlice {
            assoc: vec![(0x4601, 0), (0x4602, 1), (0x4603, 2)],
        })
        .unwrap();
        let flows: Vec<usize> = (0..3).map(|u| sim.add_flow(greedy(0, 0x4601 + u, 80))).collect();
        sim.run_ms(10_000);
        let d: Vec<f64> = flows.iter().map(|f| sim.flow(*f).delivered_bytes as f64).collect();
        let ratio = d[0] / d[1];
        assert!((ratio - 13.0 / 12.0).abs() < 0.05, "13:12 PRBs, delivered {ratio:.3}:1");
        assert_eq!(d[2], 0.0, "an empty range is never served");
    }

    #[test]
    fn admission_control_rejected_via_ctrl() {
        let mut sim = one_cell_sim(106, 20, 1);
        let cell = &mut sim.cells[0];
        cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).unwrap();
        let over = SliceCtrl::AddModSlices {
            slices: vec![SliceConf {
                id: 0,
                label: "too big".into(),
                params: SliceParams::NvsCapacity { share_milli: 1100 },
                ue_sched: UeSchedAlgo::RoundRobin,
            }],
        };
        assert!(cell.apply_slice_ctrl(&over).is_err());
        assert!(cell
            .apply_slice_ctrl(&SliceCtrl::AssocUeSlice { assoc: vec![(0x9999, 0)] })
            .is_err());
    }

    #[test]
    fn rrc_events_on_attach_detach() {
        let mut sim = one_cell_sim(25, 28, 2);
        sim.detach_ue(0, 0x4601);
        let events = sim.cells[0].take_rrc_events();
        assert_eq!(events.len(), 3, "two attaches + one detach");
        assert!(sim.cells[0].take_rrc_events().is_empty(), "events drained");
    }

    #[test]
    fn drop_tail_losses_reach_the_sender() {
        // Greedy TCP over a small RLC buffer must observe losses and back
        // off (the Cubic sawtooth behind Fig. 11a).
        let mut sim = Sim::new(vec![CellConfig::nr("c", 106)], PathConfig::default());
        sim.attach_ue(0, UeConfig::new(0x4601, 20));
        let f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(20_000);
        let flow = sim.flow(f);
        assert!(flow.lost_pkts > 0, "drop-tail losses signalled to the flow");
        let tcp = flow.tcp_state().unwrap();
        assert!(tcp.losses > 0, "cubic registered the losses");
        assert!(tcp.cwnd < crate::traffic::TCP_MAX_WND, "cwnd backed off");
    }

    #[test]
    fn handover_moves_ue_traffic_and_events() {
        let mut sim = Sim::new(
            vec![CellConfig::lte("a", 25), CellConfig::lte("b", 25)],
            PathConfig::default(),
        );
        sim.attach_ue(0, UeConfig::new(0x4601, 28));
        let f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(2_000);
        let before = sim.flow(f).delivered_bytes;
        assert!(before > 0);
        let _ = sim.cells[0].take_rrc_events();
        let _ = sim.cells[1].take_rrc_events();

        sim.handover(0x4601, 0, 1).unwrap();
        assert!(sim.cells[0].ues.is_empty());
        assert_eq!(sim.cells[1].ues.len(), 1);
        let out = sim.cells[0].take_rrc_events();
        let inn = sim.cells[1].take_rrc_events();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, flexric_sm::rrc::RrcEventKind::HandoverOut);
        assert_eq!(inn[0].kind, flexric_sm::rrc::RrcEventKind::HandoverIn);

        // Traffic continues in the target cell.
        sim.run_ms(2_000);
        assert!(
            sim.flow(f).delivered_bytes > before + 1_000_000,
            "flow follows the UE to the target cell"
        );
        // Error paths.
        assert!(sim.handover(0x4601, 1, 1).is_err(), "same cell");
        assert!(sim.handover(0x4601, 0, 1).is_err(), "UE not in source");
        assert!(sim.handover(0x4601, 1, 9).is_err(), "bad target");
    }

    #[test]
    fn kpm_counters_accumulate() {
        let mut sim = one_cell_sim(106, 20, 2);
        let _f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(500);
        let a = sim.cells[0].kpm_counters();
        sim.run_ms(500);
        let b = sim.cells[0].kpm_counters();
        let ue_a = a.iter().find(|c| c.rnti == 0x4601).unwrap();
        let ue_b = b.iter().find(|c| c.rnti == 0x4601).unwrap();
        assert!(ue_b.dl_bytes_total > ue_a.dl_bytes_total, "cumulative bytes grow");
        assert!(ue_b.dl_prbs_total > ue_a.dl_prbs_total, "cumulative PRBs grow");
        assert!(ue_b.pdcp_tx_aggr > 0);
        // Idle UE's counters stay flat.
        let idle_a = a.iter().find(|c| c.rnti == 0x4602).unwrap();
        let idle_b = b.iter().find(|c| c.rnti == 0x4602).unwrap();
        assert_eq!(idle_a.dl_bytes_total, idle_b.dl_bytes_total);
    }

    #[test]
    fn stats_snapshots_populate() {
        let mut sim = one_cell_sim(106, 20, 2);
        let _f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(200);
        let mac = sim.cells[0].mac_stats();
        assert_eq!(mac.ues.len(), 2);
        assert_eq!(mac.cell_prbs, 106);
        let busy = mac.ues.iter().find(|u| u.rnti == 0x4601).unwrap();
        assert!(busy.tbs_dl_bytes > 0, "served UE has DL bytes");
        assert!(busy.dl_aggr_bytes >= busy.tbs_dl_bytes);
        let rlc = sim.cells[0].rlc_stats();
        assert_eq!(rlc.bearers.len(), 2);
        let pdcp = sim.cells[0].pdcp_stats();
        assert!(pdcp.bearers.iter().any(|b| b.tx_pdus > 0));
        let tc = sim.cells[0].tc_stats(0x4601, 1).unwrap();
        assert_eq!(tc.rnti, 0x4601);
        assert!(sim.cells[0].tc_stats(0x9999, 1).is_none());
        let sl = sim.cells[0].slice_stats();
        assert_eq!(sl.ue_assoc.len(), 2);
    }

    #[test]
    fn mac_window_resets_on_snapshot() {
        let mut sim = one_cell_sim(106, 20, 1);
        let _f = sim.add_flow(greedy(0, 0x4601, 80));
        sim.run_ms(100);
        let first = sim.cells[0].mac_stats();
        let second = sim.cells[0].mac_stats();
        assert!(first.ues[0].tbs_dl_bytes > 0);
        assert_eq!(second.ues[0].tbs_dl_bytes, 0, "window reset");
        assert_eq!(second.ues[0].dl_aggr_bytes, first.ues[0].dl_aggr_bytes, "aggregate kept");
    }
}
