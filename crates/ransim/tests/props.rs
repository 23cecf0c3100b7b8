//! Property-based tests on the RAN simulator's conservation and isolation
//! invariants, and on its run paths: each equals a packet-at-a-time model
//! of the same queue or sender, kept here (`reference`) and nowhere else.

use std::collections::VecDeque;

use proptest::prelude::*;

use flexric_ransim::rlc::{RlcBearer, RlcCounters, Run, SojournWindow};
use flexric_ransim::tc::{FiveTuple, TcLayer};
use flexric_ransim::traffic::{TcpState, TCP_MAX_WND};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, Packet, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcQueueStats, TcSchedAlgo};

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

/// The simulator's queues and sender one packet at a time, as they were
/// before packets moved as runs: the model the run paths must equal.
mod reference {
    use super::*;

    /// Cubic parameters of RFC 8312, as `traffic.rs` has them.
    const CUBIC_C: f64 = 0.4;
    const CUBIC_BETA: f64 = 0.7;

    /// Window growth on one ACK at `now_ms`.
    pub fn on_ack(st: &mut TcpState, now_ms: u64, mss: u32) {
        st.in_flight = st.in_flight.saturating_sub(mss as u64);
        if st.cwnd >= TCP_MAX_WND {
            st.cwnd = TCP_MAX_WND;
            return;
        }
        if st.cwnd < st.ssthresh {
            st.cwnd += 1.0;
            return;
        }
        let epoch = *st.epoch_start_ms.get_or_insert(now_ms);
        let t = (now_ms - epoch) as f64 / 1000.0;
        let k = (st.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let target = CUBIC_C * (t - k).powi(3) + st.w_max;
        if target > st.cwnd {
            st.cwnd += (target - st.cwnd).clamp(0.0, 1.0);
        } else {
            st.cwnd += 0.05;
        }
    }

    /// Multiplicative decrease on one loss at `now_ms`.
    pub fn on_loss(st: &mut TcpState, now_ms: u64, mss: u32) {
        st.in_flight = st.in_flight.saturating_sub(mss as u64);
        st.losses += 1;
        st.w_max = st.cwnd;
        st.cwnd = (st.cwnd * CUBIC_BETA).max(2.0);
        st.ssthresh = st.cwnd;
        st.epoch_start_ms = Some(now_ms);
    }

    /// A drop-tail RLC buffer of single packets.
    pub struct Rlc {
        pub queue: VecDeque<Packet>,
        pub backlog_bytes: u64,
        pub head_remaining: u32,
        pub cap_bytes: u64,
        pub sojourn: SojournWindow,
        pub counters: RlcCounters,
        pub drain_rate_bpms: f64,
    }

    impl Rlc {
        pub fn new(cap_bytes: u64) -> Self {
            Rlc {
                queue: VecDeque::new(),
                backlog_bytes: 0,
                head_remaining: 0,
                cap_bytes,
                sojourn: SojournWindow::default(),
                counters: RlcCounters::default(),
                drain_rate_bpms: 0.0,
            }
        }

        pub fn enqueue(&mut self, mut pkt: Packet, now_ms: u64) -> bool {
            if self.cap_bytes > 0 && self.backlog_bytes + pkt.bytes as u64 > self.cap_bytes {
                self.counters.dropped_pdus += 1;
                return false;
            }
            pkt.enq_ms = now_ms;
            if self.queue.is_empty() {
                self.head_remaining = pkt.bytes;
            }
            self.backlog_bytes += pkt.bytes as u64;
            self.queue.push_back(pkt);
            true
        }

        pub fn drain(&mut self, mut budget: u64, now_ms: u64, out: &mut Vec<Packet>) -> u64 {
            let mut completed = 0u64;
            let mut drained = 0u64;
            while budget > 0 && !self.queue.is_empty() {
                let take = (self.head_remaining as u64).min(budget);
                budget -= take;
                drained += take;
                self.head_remaining -= take as u32;
                self.backlog_bytes -= take;
                if self.head_remaining == 0 {
                    let pkt = self.queue.pop_front().expect("head exists");
                    self.sojourn.record_n(now_ms.saturating_sub(pkt.enq_ms), 1);
                    self.counters.tx_pdus += 1;
                    self.counters.tx_bytes += pkt.bytes as u64;
                    self.counters.tx_bytes_total += pkt.bytes as u64;
                    completed += pkt.bytes as u64;
                    out.push(pkt);
                    if let Some(next) = self.queue.front() {
                        self.head_remaining = next.bytes;
                    }
                }
            }
            const ALPHA: f64 = 0.05;
            self.drain_rate_bpms = (1.0 - ALPHA) * self.drain_rate_bpms + ALPHA * drained as f64;
            completed
        }
    }

    /// One TC queue of single packets.
    pub struct Queue {
        pub id: u32,
        pub kind: QueueKind,
        pub queue: VecDeque<Packet>,
        pub backlog_bytes: u64,
        pub sojourn: SojournWindow,
        pub drops: u64,
        pub tx_pkts: u64,
        pub tx_bytes: u64,
        pub codel_above_since: Option<u64>,
    }

    impl Queue {
        pub fn new(id: u32, kind: QueueKind) -> Self {
            Queue {
                id,
                kind,
                queue: VecDeque::new(),
                backlog_bytes: 0,
                sojourn: SojournWindow::default(),
                drops: 0,
                tx_pkts: 0,
                tx_bytes: 0,
                codel_above_since: None,
            }
        }

        pub fn enqueue(&mut self, mut pkt: Packet, now_ms: u64) {
            if let QueueKind::Fifo { cap_bytes } = self.kind {
                if cap_bytes > 0 && self.backlog_bytes + pkt.bytes as u64 > cap_bytes as u64 {
                    self.drops += 1;
                    return;
                }
            }
            pkt.enq_ms = now_ms;
            self.backlog_bytes += pkt.bytes as u64;
            self.queue.push_back(pkt);
        }

        fn dequeue(&mut self, now_ms: u64) -> Option<Packet> {
            loop {
                let pkt = self.queue.pop_front()?;
                self.backlog_bytes -= pkt.bytes as u64;
                let sojourn_ms = now_ms.saturating_sub(pkt.enq_ms);
                if let QueueKind::Codel { target_us, interval_us } = self.kind {
                    if sojourn_ms * 1000 > target_us as u64 {
                        let since = *self.codel_above_since.get_or_insert(now_ms);
                        if (now_ms - since) * 1000 >= interval_us as u64 {
                            self.drops += 1;
                            continue;
                        }
                    } else {
                        self.codel_above_since = None;
                    }
                }
                self.sojourn.record_n(sojourn_ms, 1);
                self.tx_pkts += 1;
                self.tx_bytes += pkt.bytes as u64;
                return Some(pkt);
            }
        }

        fn fits(&self, budget: u64) -> bool {
            self.queue.front().is_some_and(|p| p.bytes as u64 <= budget)
        }

        pub fn stats(&self) -> TcQueueStats {
            TcQueueStats {
                id: self.id,
                backlog_bytes: self.backlog_bytes,
                backlog_pkts: self.queue.len() as u32,
                sojourn_us_avg: self.sojourn.avg_us(),
                sojourn_us_max: self.sojourn.max_us(),
                drops: self.drops,
                tx_pkts: self.tx_pkts,
                tx_bytes: self.tx_bytes,
            }
        }
    }

    /// The TC sublayer of one bearer, releasing one packet per pick.
    pub struct Tc {
        pub queues: Vec<Queue>,
        pub sched: TcSchedAlgo,
        pub weights: Vec<u32>,
        pub pacer: PacerConf,
        pub rr_next: usize,
        pub released_bytes: u64,
    }

    impl Tc {
        pub fn egress(&mut self, rlc: &mut Rlc, now_ms: u64, dropped: &mut Vec<Packet>) {
            let budget = match self.pacer {
                PacerConf::None => u64::MAX,
                PacerConf::Bdp { target_delay_us } => {
                    let target = (rlc.drain_rate_bpms * (target_delay_us as f64 / 1000.0))
                        .max(3_000.0) as u64;
                    target.saturating_sub(rlc.backlog_bytes)
                }
            };
            let mut remaining = budget;
            while let Some(qidx) = self.pick_queue(remaining) {
                let Some(pkt) = self.queues[qidx].dequeue(now_ms) else { continue };
                remaining = remaining.saturating_sub(pkt.bytes as u64);
                self.released_bytes += pkt.bytes as u64;
                if !rlc.enqueue(pkt, now_ms) {
                    dropped.push(pkt);
                }
            }
        }

        fn pick_queue(&mut self, budget: u64) -> Option<usize> {
            match self.sched {
                TcSchedAlgo::RoundRobin => {
                    let n = self.queues.len();
                    for off in 0..n {
                        let idx = (self.rr_next + off) % n;
                        if self.queues[idx].fits(budget) {
                            self.rr_next = (idx + 1) % n;
                            return Some(idx);
                        }
                    }
                    None
                }
                TcSchedAlgo::StrictPriority => {
                    let fitting = self.queues.iter().enumerate().filter(|(_, q)| q.fits(budget));
                    fitting.min_by_key(|(_, q)| q.id).map(|(i, _)| i)
                }
                TcSchedAlgo::WeightedRoundRobin => {
                    let mut best: Option<(usize, f64)> = None;
                    for (i, q) in self.queues.iter().enumerate() {
                        if !q.fits(budget) {
                            continue;
                        }
                        let w = self.weights.get(i).copied().unwrap_or(1).max(1) as f64;
                        let served = q.tx_bytes as f64 / w;
                        if best.is_none_or(|(_, s)| served < s) {
                            best = Some((i, served));
                        }
                    }
                    best.map(|(i, _)| i)
                }
            }
        }
    }
}

/// Runs expanded into the packets they stand for.
fn expand(runs: &[Run]) -> Vec<Packet> {
    runs.iter().flat_map(|&(pkt, n)| std::iter::repeat_n(pkt, n as usize)).collect()
}

/// A `TcpState`'s fields, the floats as bits.
fn tcp_bits(st: &TcpState) -> (u64, u64, u64, Option<u64>, u64, u64) {
    (
        st.cwnd.to_bits(),
        st.ssthresh.to_bits(),
        st.w_max.to_bits(),
        st.epoch_start_ms,
        st.in_flight,
        st.losses,
    )
}

/// Sizes a run's packets may have: empty, tiny, VoIP, full MSS, any.
fn packet_bytes() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(1u32), Just(172u32), Just(1_500u32), 1u32..4_000]
}

/// Asserts that a real RLC bearer and the reference one hold the same.
#[track_caller]
fn same_rlc(real: &RlcBearer, model: &reference::Rlc) {
    assert_eq!(real.backlog_bytes(), model.backlog_bytes);
    assert_eq!(real.backlog_pkts() as usize, model.queue.len());
    assert_eq!(real.head_remaining(), model.head_remaining);
    assert_eq!(real.counters, model.counters);
    assert_eq!(real.sojourn, model.sojourn);
    assert_eq!(real.drain_rate_bpms.to_bits(), model.drain_rate_bpms.to_bits());
}

/// The 5-tuple the TC layer under test routes to queue `id`.
fn tuple_to(id: u32) -> FiveTuple {
    (1, 2, 1000, 2000 + id as u16, 17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `n` ACKs at once grow the window bit for bit as `n` single ACKs do,
    /// from slow start across `ssthresh`, through the cubic region and up
    /// to the receive-window cap.
    #[test]
    fn acks_in_a_batch_equal_acks_one_at_a_time(
        cwnd in prop_oneof![1.0f64..2_100.0, 2_030.0f64..2_060.0, 1.0f64..40.0],
        to_ssthresh in prop_oneof![-40.0f64..60.0, Just(f64::MAX)],
        w_max in 0.0f64..2_100.0,
        epoch_age in proptest::option::of(0u64..30_000),
        in_flight in 0u64..4_000_000,
        n in 1u32..300,
        mss in prop_oneof![Just(1_500u32), Just(536u32), Just(1u32), 1u32..9_000],
        losses in 0u64..5,
    ) {
        let now = 50_000u64;
        let st = TcpState {
            cwnd,
            ssthresh: if to_ssthresh == f64::MAX { f64::MAX } else { cwnd + to_ssthresh },
            w_max,
            epoch_start_ms: epoch_age.map(|age| now - age),
            in_flight,
            losses,
        };
        let mut batch = st.clone();
        batch.on_acks(now, mss, n);
        let mut single = st.clone();
        for _ in 0..n {
            reference::on_ack(&mut single, now, mss);
        }
        prop_assert_eq!(tcp_bits(&batch), tcp_bits(&single), "from {:?}, {} ACKs", st, n);
        // Losses in a row, likewise.
        let mut batch = st.clone();
        batch.on_losses(now, mss, n % 7);
        let mut single = st;
        for _ in 0..n % 7 {
            reference::on_loss(&mut single, now, mss);
        }
        prop_assert_eq!(tcp_bits(&batch), tcp_bits(&single));
    }

    /// Enqueueing and draining runs equals doing it packet by packet: the
    /// packets out, how many fit, the counters, the sojourn window, the
    /// backlog, the part-sent head and the drain-rate EWMA.
    #[test]
    fn rlc_runs_equal_packets_one_at_a_time(
        cap in prop_oneof![Just(0u64), Just(1_000u64), Just(5_000u64), 0u64..60_000],
        ops in proptest::collection::vec(
            (0u8..3, packet_bytes(), 1u32..40, 0u64..12_000, 0u64..4),
            1..80,
        ),
    ) {
        let mut real = RlcBearer::new(cap);
        let mut model = reference::Rlc::new(cap);
        let mut now = 0u64;
        let (mut out, mut model_out) = (Vec::new(), Vec::new());
        for (i, (op, bytes, n, budget, dt)) in ops.into_iter().enumerate() {
            now += dt;
            if op == 0 {
                let got = real.drain(budget, now, &mut out);
                let want = model.drain(budget, now, &mut model_out);
                prop_assert_eq!(got, want, "op {} drains {} bytes", i, budget);
                prop_assert_eq!(expand(&out), model_out.clone());
            } else {
                let pkt = Packet { flow: op as u32, bytes, sent_ms: now / 2, enq_ms: 0 };
                let fit = real.enqueue(pkt, n, now);
                let model_fit = (0..n).filter(|_| model.enqueue(pkt, now)).count();
                prop_assert_eq!(fit as usize, model_fit, "op {} enqueues {} × {} B", i, n, bytes);
            }
            same_rlc(&real, &model);
        }
    }

    /// A TC layer releasing runs equals one releasing a packet per pick,
    /// under round robin, strict priority and WRR over one to three FIFO or
    /// CoDel queues, with the BDP pacer on or off, into a drop-tail RLC
    /// buffer that drains a random budget every TTI.
    #[test]
    fn tc_egress_of_runs_equals_packets_one_at_a_time(
        kinds in proptest::collection::vec(
            prop_oneof![
                prop_oneof![Just(0u32), 500u32..25_000]
                    .prop_map(|cap_bytes| QueueKind::Fifo { cap_bytes }),
                (1_000u32..10_000, 0u32..30_000)
                    .prop_map(|(target_us, interval_us)| QueueKind::Codel { target_us, interval_us }),
            ],
            1..4,
        ),
        ids in (1u32..5, 5u32..9),
        sched in prop_oneof![
            Just(TcSchedAlgo::RoundRobin),
            Just(TcSchedAlgo::StrictPriority),
            Just(TcSchedAlgo::WeightedRoundRobin),
        ],
        weights in proptest::collection::vec(0u32..5, 0..4),
        pacer in prop_oneof![
            Just(PacerConf::None),
            (1u32..25_000).prop_map(|target_delay_us| PacerConf::Bdp { target_delay_us }),
        ],
        rlc_cap in prop_oneof![Just(0u64), 2_000u64..60_000],
        ttis in proptest::collection::vec(
            (proptest::collection::vec((0usize..3, packet_bytes(), 1u32..24), 0..4), 0u64..9_000),
            1..120,
        ),
    ) {
        // Queue 0, then the others under ids that put them before or
        // after one another in priority.
        let ids = [0, ids.1, ids.0];
        let mut tc = TcLayer::new();
        let mut model = reference::Tc {
            queues: Vec::new(),
            sched,
            weights: weights.clone(),
            pacer,
            rr_next: 0,
            released_bytes: 0,
        };
        for (id, kind) in ids.into_iter().zip(kinds) {
            tc.add_queue(id, kind);
            model.queues.push(reference::Queue::new(id, kind));
            if id != 0 {
                let rule = FiveTupleRule { id, dst_port: Some(2000 + id as u16), ..Default::default() };
                tc.add_rule(rule, id, id).expect("the queue exists");
            }
        }
        tc.set_sched(sched, weights);
        tc.set_pacer(pacer);
        let mut rlc = RlcBearer::new(rlc_cap);
        let mut model_rlc = reference::Rlc::new(rlc_cap);
        let (mut dropped, mut model_dropped) = (Vec::new(), Vec::new());
        let (mut out, mut model_out) = (Vec::new(), Vec::new());
        for (now, (arrivals, budget)) in ttis.into_iter().enumerate() {
            let now = now as u64;
            for (flow, (q, bytes, n)) in arrivals.into_iter().enumerate() {
                let q = q % model.queues.len();
                let pkt = Packet { flow: flow as u32, bytes, sent_ms: now, enq_ms: now };
                let lost = tc.ingress(tuple_to(model.queues[q].id), pkt, n, now);
                let before = model.queues[q].drops;
                for _ in 0..n {
                    model.queues[q].enqueue(pkt, now);
                }
                prop_assert_eq!(lost as u64, model.queues[q].drops - before);
            }
            tc.egress(&mut rlc, now, &mut dropped);
            model.egress(&mut model_rlc, now, &mut model_dropped);
            prop_assert_eq!(expand(&dropped), model_dropped.clone(), "RLC drops at {}", now);
            rlc.drain(budget, now, &mut out);
            model_rlc.drain(budget, now, &mut model_out);
            prop_assert_eq!(expand(&out), model_out.clone(), "drained at {}", now);
            same_rlc(&rlc, &model_rlc);
            let (stats, rate_kbps) = tc.stats(now);
            let model_stats: Vec<TcQueueStats> = model.queues.iter().map(|q| q.stats()).collect();
            prop_assert_eq!(stats, model_stats, "queues at {}", now);
            prop_assert_eq!(rate_kbps, model.released_bytes * 8 / now.max(1));
        }
    }
}
