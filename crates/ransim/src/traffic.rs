//! Traffic generators: CBR (VoIP) and a greedy TCP flow with a
//! Cubic-style congestion controller.
//!
//! The Fig. 11 workload is "a one minute G.711 VoIP conversation through
//! UDP data frames of 172 bytes with an interval of 20 ms […] and a second
//! flow emulating a bufferbloat-prone flow using iperf3" — the latter is a
//! long-lived TCP bulk transfer whose congestion controller (Cubic) "cannot
//! differentiate between the propagation time and the large sojourn time
//! that packets experience in a bloated buffer", so it fills the RLC
//! buffer until drop-tail loss.

use crate::rlc::{Packet, Run};
use crate::tc::FiveTuple;

/// What kind of traffic a flow generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowKind {
    /// Constant bit rate: `bytes` every `interval_ms` (VoIP-like).
    Cbr {
        /// Payload per packet.
        bytes: u32,
        /// Packet interval.
        interval_ms: u64,
    },
    /// Greedy TCP bulk transfer with Cubic congestion control.
    GreedyTcp {
        /// Maximum segment size.
        mss: u32,
    },
}

/// Configuration of one downlink flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Target cell index in the simulation.
    pub cell: usize,
    /// Target UE.
    pub rnti: u16,
    /// Target bearer.
    pub drb: u8,
    /// Generator kind.
    pub kind: FlowKind,
    /// 5-tuple `(src ip, dst ip, src port, dst port, proto)` for the TC
    /// classifier, which reads it once per batch of this flow's packets.
    pub tuple: FiveTuple,
    /// When the flow starts (ms).
    pub start_ms: u64,
    /// When the flow stops generating (ms), `None` = never.
    pub stop_ms: Option<u64>,
}

/// Cubic parameters (RFC 8312 defaults).
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// Receive-window cap in segments: real senders are bounded by the
/// receiver's advertised window (~3 MB here), which bounds how far a
/// queue can bloat even without loss.
pub const TCP_MAX_WND: f64 = 2048.0;

/// Cubic congestion-control state, in MSS units.
#[derive(Debug, Clone)]
pub struct TcpState {
    /// Congestion window, segments.
    pub cwnd: f64,
    /// Slow-start threshold, segments.
    pub ssthresh: f64,
    /// Window before the last reduction.
    pub w_max: f64,
    /// Start of the current cubic epoch (ms).
    pub epoch_start_ms: Option<u64>,
    /// Bytes in flight.
    pub in_flight: u64,
    /// Loss events observed.
    pub losses: u64,
}

impl Default for TcpState {
    fn default() -> Self {
        TcpState {
            cwnd: 10.0,
            ssthresh: f64::MAX,
            w_max: 0.0,
            epoch_start_ms: None,
            in_flight: 0,
            losses: 0,
        }
    }
}

impl TcpState {
    /// Window growth on `n` ACKs that arrive together at `now_ms`.  The
    /// cubic target depends on `now_ms`, the epoch and `w_max` alone, none
    /// of which an ACK moves once the epoch is set, so it is computed once
    /// for the batch; the window still grows one ACK at a time, crossing
    /// from slow start into the cubic region and up to [`TCP_MAX_WND`]
    /// where the batch does.
    pub fn on_acks(&mut self, now_ms: u64, mss: u32, n: u32) {
        self.in_flight = self.in_flight.saturating_sub(mss as u64 * n as u64);
        let mut target = None;
        for _ in 0..n {
            if self.cwnd >= TCP_MAX_WND {
                self.cwnd = TCP_MAX_WND;
                return;
            }
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
                continue;
            }
            let target = *target.get_or_insert_with(|| {
                let epoch = *self.epoch_start_ms.get_or_insert(now_ms);
                let t = (now_ms - epoch) as f64 / 1000.0;
                let k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                CUBIC_C * (t - k).powi(3) + self.w_max
            });
            if target > self.cwnd {
                // Approach the cubic curve.
                self.cwnd += (target - self.cwnd).clamp(0.0, 1.0);
            } else {
                // TCP-friendly region: gentle AIMD-like growth.
                self.cwnd += 0.05;
            }
        }
    }

    /// Multiplicative decrease on `n` losses at `now_ms`, one after
    /// another.
    pub fn on_losses(&mut self, now_ms: u64, mss: u32, n: u32) {
        if n == 0 {
            return;
        }
        self.in_flight = self.in_flight.saturating_sub(mss as u64 * n as u64);
        self.losses += n as u64;
        for _ in 0..n {
            self.w_max = self.cwnd;
            self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
        }
        self.ssthresh = self.cwnd;
        self.epoch_start_ms = Some(now_ms);
    }

    /// How many more segments fit in the window.
    fn room(&self, mss: u32) -> u64 {
        let wnd = (self.cwnd * mss as f64) as u64;
        match wnd.checked_sub(self.in_flight) {
            Some(free) => free.checked_div(mss as u64).unwrap_or(u64::MAX),
            None => 0,
        }
    }
}

/// Per-flow generator state.
#[derive(Debug, Clone)]
enum GenState {
    Cbr { next_ms: u64 },
    Tcp(TcpState),
}

/// A live flow.
#[derive(Debug)]
pub struct Flow {
    /// Configuration.
    pub cfg: FlowConfig,
    state: GenState,
    /// Whether generation is paused (experiment control).
    pub active: bool,
    /// Packets handed to the cell.
    pub tx_pkts: u64,
    /// Packets delivered to the UE.
    pub delivered_pkts: u64,
    /// Packets lost (queue drops).
    pub lost_pkts: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Per-packet RTT log `(sent_ms, rtt_us)` — CBR flows only (Fig. 11c).
    pub rtt_log: Vec<(u64, u64)>,
}

impl Flow {
    /// Creates a flow from its configuration.
    pub fn new(cfg: FlowConfig) -> Self {
        let state = match cfg.kind {
            FlowKind::Cbr { .. } => GenState::Cbr { next_ms: cfg.start_ms },
            FlowKind::GreedyTcp { .. } => GenState::Tcp(TcpState::default()),
        };
        Flow {
            cfg,
            state,
            active: true,
            tx_pkts: 0,
            delivered_pkts: 0,
            lost_pkts: 0,
            delivered_bytes: 0,
            rtt_log: Vec::new(),
        }
    }

    /// The packets this flow, `flow_id`, sends at `now_ms`: equal values,
    /// one run.  A CBR flow sends one per interval due since it last sent
    /// (a resumed flow catches up at once); a greedy TCP flow fills its
    /// window, at most 64 segments a TTI so a large window does not burst.
    pub fn generate(&mut self, flow_id: u32, now_ms: u64) -> Option<Run> {
        if !self.sending(now_ms) {
            return None;
        }
        let (bytes, n) = match (&mut self.state, self.cfg.kind) {
            (GenState::Cbr { next_ms }, FlowKind::Cbr { bytes, interval_ms }) => {
                let late = now_ms.checked_sub(*next_ms)?;
                let interval = interval_ms.max(1);
                let due = late / interval + 1;
                *next_ms += due * interval;
                (bytes, u32::try_from(due).expect("a CBR catch-up fits in a run"))
            }
            (GenState::Tcp(tcp), FlowKind::GreedyTcp { mss }) => {
                let n = tcp.room(mss).min(64);
                if n == 0 {
                    return None;
                }
                tcp.in_flight += mss as u64 * n;
                (mss, n as u32)
            }
            _ => unreachable!("state matches kind"),
        };
        self.tx_pkts += n as u64;
        Some((Packet { flow: flow_id, bytes, sent_ms: now_ms, enq_ms: now_ms }, n))
    }

    /// Whether the flow is active, started and not yet stopped at `now_ms`.
    fn sending(&self, now_ms: u64) -> bool {
        self.active && now_ms >= self.cfg.start_ms && self.cfg.stop_ms.is_none_or(|s| now_ms < s)
    }

    /// The next ms after a visit at `now_ms` at which the flow sends
    /// without anything happening to it first: `None` when it is paused,
    /// has stopped, or is a TCP flow whose window only an ACK or a loss
    /// reopens.
    pub(crate) fn next_send(&self, now_ms: u64) -> Option<u64> {
        let at = match &self.state {
            _ if !self.active => return None,
            _ if now_ms < self.cfg.start_ms => self.cfg.start_ms,
            GenState::Cbr { next_ms } => *next_ms,
            GenState::Tcp(tcp) => {
                let FlowKind::GreedyTcp { mss } = self.cfg.kind else { unreachable!() };
                if tcp.room(mss) == 0 {
                    return None;
                }
                now_ms + 1
            }
        };
        self.cfg.stop_ms.is_none_or(|s| at < s).then_some(at)
    }

    /// `n` packets `pkt` were delivered to the UE at `now_ms`; `ul_rtt_ms`
    /// is the return-path latency.
    pub fn on_delivered(&mut self, pkt: &Packet, n: u32, now_ms: u64, ul_rtt_ms: u64) {
        self.delivered_pkts += n as u64;
        self.delivered_bytes += pkt.bytes as u64 * n as u64;
        if let FlowKind::Cbr { .. } = self.cfg.kind {
            let rtt_us = (now_ms.saturating_sub(pkt.sent_ms) + ul_rtt_ms) * 1000;
            self.rtt_log.extend(std::iter::repeat_n((pkt.sent_ms, rtt_us), n as usize));
        }
    }

    /// `n` ACKs for delivered packets arrived back at the sender.
    pub fn on_acks(&mut self, now_ms: u64, n: u32) {
        if let (GenState::Tcp(tcp), FlowKind::GreedyTcp { mss }) = (&mut self.state, self.cfg.kind)
        {
            tcp.on_acks(now_ms, mss, n);
        }
    }

    /// `n` packets were dropped in a queue.
    pub fn on_lost(&mut self, now_ms: u64, n: u32) {
        self.lost_pkts += n as u64;
        if let (GenState::Tcp(tcp), FlowKind::GreedyTcp { mss }) = (&mut self.state, self.cfg.kind)
        {
            tcp.on_losses(now_ms, mss, n);
        }
    }

    /// Whether the flow is a greedy TCP flow, whose window ACKs and losses
    /// move.
    pub(crate) fn is_tcp(&self) -> bool {
        matches!(self.cfg.kind, FlowKind::GreedyTcp { .. })
    }

    /// The TCP state, for inspection in tests.
    pub fn tcp_state(&self) -> Option<&TcpState> {
        match &self.state {
            GenState::Tcp(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many packets `f` sends at `now_ms`.
    fn generate(f: &mut Flow, now_ms: u64) -> u32 {
        f.generate(0, now_ms).map_or(0, |(_, n)| n)
    }

    fn cbr_cfg() -> FlowConfig {
        FlowConfig {
            cell: 0,
            rnti: 1,
            drb: 1,
            kind: FlowKind::Cbr { bytes: 172, interval_ms: 20 },
            tuple: (1, 2, 100, 5004, 17),
            start_ms: 0,
            stop_ms: Some(1000),
        }
    }

    fn tcp_cfg() -> FlowConfig {
        FlowConfig { kind: FlowKind::GreedyTcp { mss: 1500 }, stop_ms: None, ..cbr_cfg() }
    }

    #[test]
    fn cbr_generates_at_interval() {
        let mut f = Flow::new(cbr_cfg());
        let mut total = 0;
        for t in 0..1000u64 {
            total += generate(&mut f, t);
        }
        assert_eq!(total, 50, "one packet every 20 ms for 1 s");
        assert_eq!(f.tx_pkts, 50);
        // Stopped after stop_ms.
        assert_eq!(generate(&mut f, 1500), 0);
        assert_eq!(f.next_send(999), None, "the next interval is past the stop");
    }

    #[test]
    fn cbr_packets_carry_tuple() {
        let mut f = Flow::new(cbr_cfg());
        let (pkt, n) = f.generate(0, 0).unwrap();
        assert_eq!(n, 1);
        assert_eq!(pkt.bytes, 172);
        // The tuple is the flow's, handed to the classifier with each batch.
        assert_eq!(pkt.flow, 0);
        let (_, _, _, dst_port, proto) = f.cfg.tuple;
        assert_eq!((dst_port, proto), (5004, 17));
        assert_eq!(f.next_send(0), Some(20));
    }

    #[test]
    fn a_resumed_cbr_flow_catches_up_in_one_run() {
        let mut f = Flow::new(cbr_cfg());
        assert_eq!(generate(&mut f, 0), 1);
        f.active = false;
        assert_eq!(generate(&mut f, 20), 0);
        assert_eq!(f.next_send(20), None, "a paused flow waits to be resumed");
        f.active = true;
        // Intervals due at 20, 40, …, 100.
        assert_eq!(generate(&mut f, 105), 5);
        assert_eq!(f.next_send(105), Some(120));
    }

    #[test]
    fn tcp_respects_window() {
        let mut f = Flow::new(FlowConfig { tuple: (1, 2, 100, 80, 6), ..tcp_cfg() });
        assert_eq!(f.next_send(0), Some(1), "an unstarted window is open");
        assert_eq!(generate(&mut f, 0), 10, "initial window of 10 segments");
        assert_eq!(f.next_send(0), None, "a full window waits for an ACK");
        assert_eq!(generate(&mut f, 1), 0, "window full, nothing acked");
        // ACK two segments → two more may fly (slow start doubles).
        f.on_acks(10, 2);
        assert_eq!(generate(&mut f, 10), 4, "2 acked + 2 window growth");
    }

    #[test]
    fn tcp_sends_at_most_64_segments_a_tti() {
        let mut f = Flow::new(tcp_cfg());
        let GenState::Tcp(tcp) = &mut f.state else { unreachable!() };
        tcp.cwnd = 100.0;
        assert_eq!(generate(&mut f, 0), 64);
        assert_eq!(f.next_send(0), Some(1), "the rest of the window goes next TTI");
        assert_eq!(generate(&mut f, 1), 36);
        assert_eq!(f.tcp_state().unwrap().in_flight, 100 * 1500);
    }

    #[test]
    fn cubic_backoff_and_regrowth() {
        let mut st = TcpState { cwnd: 100.0, ssthresh: 0.0, ..Default::default() };
        st.on_losses(1000, 1500, 1);
        assert!((st.cwnd - 70.0).abs() < 1e-6, "β=0.7 backoff");
        assert_eq!(st.losses, 1);
        let after_loss = st.cwnd;
        // Regrows toward w_max over time.
        for t in 0..20_000u64 {
            st.on_acks(1000 + t, 1500, 1);
        }
        assert!(st.cwnd > after_loss, "cubic regrows");
        assert!(st.cwnd >= 99.0, "approaches w_max {}", st.cwnd);
    }

    #[test]
    fn losses_in_a_row_back_off_once_each() {
        let mut st = TcpState { cwnd: 100.0, in_flight: 4_000, ..Default::default() };
        st.on_losses(7, 1500, 3);
        assert_eq!(st.losses, 3);
        assert_eq!(st.in_flight, 0);
        assert!((st.cwnd - 34.3).abs() < 1e-9, "0.7³ of 100: {}", st.cwnd);
        assert!((st.w_max - 49.0).abs() < 1e-9, "the window before the last loss");
        assert_eq!(st.ssthresh, st.cwnd);
        assert_eq!(st.epoch_start_ms, Some(7));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut st = TcpState::default();
        let w0 = st.cwnd;
        st.on_acks(0, 1500, 10);
        assert!((st.cwnd - (w0 + 10.0)).abs() < 1e-9, "one segment per ACK in slow start");
    }

    #[test]
    fn rtt_logged_for_cbr_only() {
        let mut f = Flow::new(cbr_cfg());
        let (pkt, _) = f.generate(0, 0).unwrap();
        f.on_delivered(&pkt, 2, 30, 10);
        assert_eq!(f.rtt_log, vec![(0, 40_000); 2]);
        assert_eq!(f.delivered_pkts, 2);
        assert_eq!(f.delivered_bytes, 344);

        let mut t = Flow::new(tcp_cfg());
        let (pkt, _) = t.generate(0, 0).unwrap();
        t.on_delivered(&pkt, 1, 30, 10);
        assert!(t.rtt_log.is_empty());
    }

    #[test]
    fn inactive_flow_is_silent() {
        let mut f = Flow::new(cbr_cfg());
        f.active = false;
        assert_eq!(generate(&mut f, 0), 0);
        f.active = true;
        assert_eq!(generate(&mut f, 0), 1);
    }
}
