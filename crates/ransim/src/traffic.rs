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

use crate::rlc::Packet;
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
    /// Window growth on one ACK at `now_ms`.
    pub fn on_ack(&mut self, now_ms: u64, mss: u32) {
        self.in_flight = self.in_flight.saturating_sub(mss as u64);
        if self.cwnd >= TCP_MAX_WND {
            self.cwnd = TCP_MAX_WND;
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // slow start
            return;
        }
        let epoch = *self.epoch_start_ms.get_or_insert(now_ms);
        let t = (now_ms - epoch) as f64 / 1000.0;
        let k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let target = CUBIC_C * (t - k).powi(3) + self.w_max;
        if target > self.cwnd {
            // Approach the cubic curve.
            self.cwnd += (target - self.cwnd).clamp(0.0, 1.0);
        } else {
            // TCP-friendly region: gentle AIMD-like growth.
            self.cwnd += 0.05;
        }
    }

    /// Multiplicative decrease on a loss at `now_ms`.
    pub fn on_loss(&mut self, now_ms: u64, mss: u32) {
        self.in_flight = self.in_flight.saturating_sub(mss as u64);
        self.losses += 1;
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start_ms = Some(now_ms);
    }

    /// Whether another segment fits in the window.
    pub fn can_send(&self, mss: u32) -> bool {
        self.in_flight + mss as u64 <= (self.cwnd * mss as f64) as u64
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

    fn mk_packet(&mut self, flow_id: u32, bytes: u32, now_ms: u64) -> Packet {
        self.tx_pkts += 1;
        Packet { flow: flow_id, bytes, sent_ms: now_ms, enq_ms: now_ms }
    }

    /// Appends the packets this flow, `flow_id`, sends at `now_ms` to `out`.
    /// They are equal values, which a queue holds as one run.
    pub fn generate(&mut self, flow_id: u32, now_ms: u64, out: &mut Vec<Packet>) {
        if !self.active
            || now_ms < self.cfg.start_ms
            || self.cfg.stop_ms.is_some_and(|s| now_ms >= s)
        {
            return;
        }
        match self.cfg.kind {
            FlowKind::Cbr { bytes, interval_ms } => {
                let due = {
                    let GenState::Cbr { next_ms } = &mut self.state else {
                        unreachable!("state matches kind")
                    };
                    let mut due = 0;
                    while *next_ms <= now_ms {
                        *next_ms += interval_ms.max(1);
                        due += 1;
                    }
                    due
                };
                for _ in 0..due {
                    let pkt = self.mk_packet(flow_id, bytes, now_ms);
                    out.push(pkt);
                }
            }
            FlowKind::GreedyTcp { mss } => {
                // Bounded per tick to avoid pathological bursts.
                for _ in 0..64 {
                    let can = {
                        let GenState::Tcp(tcp) = &mut self.state else {
                            unreachable!("state matches kind")
                        };
                        if tcp.can_send(mss) {
                            tcp.in_flight += mss as u64;
                            true
                        } else {
                            false
                        }
                    };
                    if !can {
                        break;
                    }
                    let pkt = self.mk_packet(flow_id, mss, now_ms);
                    out.push(pkt);
                }
            }
        }
    }

    /// The packet was delivered to the UE at `now_ms`; `ul_rtt_ms` is the
    /// return-path latency.
    pub fn on_delivered(&mut self, pkt: &Packet, now_ms: u64, ul_rtt_ms: u64) {
        self.delivered_pkts += 1;
        self.delivered_bytes += pkt.bytes as u64;
        if let FlowKind::Cbr { .. } = self.cfg.kind {
            let rtt_us = (now_ms.saturating_sub(pkt.sent_ms) + ul_rtt_ms) * 1000;
            self.rtt_log.push((pkt.sent_ms, rtt_us));
        }
    }

    /// The ACK for a delivered packet arrived back at the sender.
    pub fn on_ack(&mut self, now_ms: u64) {
        if let (GenState::Tcp(tcp), FlowKind::GreedyTcp { mss }) = (&mut self.state, self.cfg.kind)
        {
            tcp.on_ack(now_ms, mss);
        }
    }

    /// The packet was dropped in a queue.
    pub fn on_lost(&mut self, now_ms: u64) {
        self.lost_pkts += 1;
        if let (GenState::Tcp(tcp), FlowKind::GreedyTcp { mss }) = (&mut self.state, self.cfg.kind)
        {
            tcp.on_loss(now_ms, mss);
        }
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

    /// What `f` sends at `now_ms`.
    fn generate(f: &mut Flow, now_ms: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        f.generate(0, now_ms, &mut out);
        out
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

    #[test]
    fn cbr_generates_at_interval() {
        let mut f = Flow::new(cbr_cfg());
        let mut total = 0;
        for t in 0..1000u64 {
            total += generate(&mut f, t).len();
        }
        assert_eq!(total, 50, "one packet every 20 ms for 1 s");
        // Stopped after stop_ms.
        assert!(generate(&mut f, 1500).is_empty());
    }

    #[test]
    fn cbr_packets_carry_tuple() {
        let mut f = Flow::new(cbr_cfg());
        let pkts = generate(&mut f, 0);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].bytes, 172);
        // The tuple is the flow's, handed to the classifier with each batch.
        assert_eq!(pkts[0].flow, 0);
        let (_, _, _, dst_port, proto) = f.cfg.tuple;
        assert_eq!((dst_port, proto), (5004, 17));
    }

    #[test]
    fn tcp_respects_window() {
        let mut f = Flow::new(FlowConfig {
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (1, 2, 100, 80, 6),
            stop_ms: None,
            ..cbr_cfg()
        });
        let pkts = generate(&mut f, 0);
        assert_eq!(pkts.len(), 10, "initial window of 10 segments");
        assert!(generate(&mut f, 1).is_empty(), "window full, nothing acked");
        // ACK two segments → two more may fly (slow start doubles).
        f.on_ack(10);
        f.on_ack(10);
        let pkts = generate(&mut f, 10);
        assert_eq!(pkts.len(), 4, "2 acked + 2 window growth");
    }

    #[test]
    fn cubic_backoff_and_regrowth() {
        let mut st = TcpState { cwnd: 100.0, ssthresh: 0.0, ..Default::default() };
        st.on_loss(1000, 1500);
        assert!((st.cwnd - 70.0).abs() < 1e-6, "β=0.7 backoff");
        assert_eq!(st.losses, 1);
        let after_loss = st.cwnd;
        // Regrows toward w_max over time.
        for t in 0..20_000u64 {
            st.on_ack(1000 + t, 1500);
        }
        assert!(st.cwnd > after_loss, "cubic regrows");
        assert!(st.cwnd >= 99.0, "approaches w_max {}", st.cwnd);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut st = TcpState::default();
        let w0 = st.cwnd;
        for _ in 0..10 {
            st.on_ack(0, 1500);
        }
        assert!((st.cwnd - (w0 + 10.0)).abs() < 1e-9, "one segment per ACK in slow start");
    }

    #[test]
    fn rtt_logged_for_cbr_only() {
        let mut f = Flow::new(cbr_cfg());
        let pkts = generate(&mut f, 0);
        f.on_delivered(&pkts[0], 30, 10);
        assert_eq!(f.rtt_log, vec![(0, 40_000)]);

        let mut t = Flow::new(FlowConfig {
            kind: FlowKind::GreedyTcp { mss: 1500 },
            stop_ms: None,
            ..cbr_cfg()
        });
        let pkts = generate(&mut t, 0);
        t.on_delivered(&pkts[0], 30, 10);
        assert!(t.rtt_log.is_empty());
    }

    #[test]
    fn inactive_flow_is_silent() {
        let mut f = Flow::new(cbr_cfg());
        f.active = false;
        assert!(generate(&mut f, 0).is_empty());
        f.active = true;
        assert!(!generate(&mut f, 0).is_empty());
    }
}
