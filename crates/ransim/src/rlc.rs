//! RLC bearer buffer: the bottleneck queue of the downlink path.
//!
//! "The RLC sublayer is provided with large buffers to absorb the brusque
//! changes that the radio channel may suffer" (paper §6.1.1) — which is
//! exactly what makes cellular links bufferbloat-prone.  This module
//! models a per-DRB drop-tail byte-bounded FIFO with per-packet sojourn
//! tracking, the quantity the RLC statistics SM reports and the TC xApp
//! of Fig. 11 acts on.
//!
//! Queues hold [`Packet`]s in a `PacketFifo`: equal packets in a row —
//! what one flow sends in one TTI — are one entry with a count.

use std::collections::VecDeque;

/// One packet travelling through the downlink path.  Its 5-tuple is its
/// flow's ([`crate::FlowConfig::tuple`]), read once per batch at ingress,
/// so packets of one flow sent in one TTI are equal values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow the packet belongs to (its index in the [`crate::Sim`]).
    pub flow: u32,
    /// Size in bytes.
    pub bytes: u32,
    /// When the flow emitted it (ms).
    pub sent_ms: u64,
    /// When it entered the current queue (ms); updated at each hop.
    pub enq_ms: u64,
}

const _: () = assert!(size_of::<Packet>() == 24);

/// A FIFO of packets stored as runs: a packet equal to the one at the tail
/// adds to that run's count instead of taking an entry of its own.  Equal
/// packets cannot be told apart, so this is a plain packet FIFO to its
/// users; `len`, `front` and `pop_front` count and hand out one packet at
/// a time.
#[derive(Debug, Default)]
pub(crate) struct PacketFifo {
    runs: VecDeque<(Packet, u32)>,
    len: usize,
}

impl PacketFifo {
    /// An empty FIFO.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Packets queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no packet is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `pkt` behind every packet queued.
    pub(crate) fn push_back(&mut self, pkt: Packet) {
        self.len += 1;
        match self.runs.back_mut() {
            Some((tail, n)) if *tail == pkt && *n < u32::MAX => *n += 1,
            _ => self.runs.push_back((pkt, 1)),
        }
    }

    /// The packet at the head.
    pub(crate) fn front(&self) -> Option<&Packet> {
        self.runs.front().map(|(pkt, _)| pkt)
    }

    /// Takes the packet at the head.
    pub(crate) fn pop_front(&mut self) -> Option<Packet> {
        let (pkt, n) = self.runs.front_mut()?;
        let pkt = *pkt;
        if *n > 1 {
            *n -= 1;
        } else {
            self.runs.pop_front();
        }
        self.len -= 1;
        Some(pkt)
    }
}

/// Running sojourn statistics over a reporting window.
#[derive(Debug, Clone, Copy, Default)]
pub struct SojournWindow {
    sum_us: u64,
    count: u64,
    max_us: u64,
}

impl SojournWindow {
    /// Records a departure with the given sojourn.
    pub fn record(&mut self, sojourn_ms: u64) {
        let us = sojourn_ms * 1000;
        self.sum_us += us;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Average sojourn in the window, microseconds.
    pub fn avg_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Maximum sojourn in the window, microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Resets the window (on snapshot).
    pub fn reset(&mut self) {
        *self = SojournWindow::default();
    }
}

/// Cumulative and per-window counters of an RLC bearer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RlcCounters {
    /// PDUs transmitted in the window.
    pub tx_pdus: u64,
    /// Bytes transmitted in the window.
    pub tx_bytes: u64,
    /// PDUs dropped at enqueue in the window.
    pub dropped_pdus: u64,
    /// Cumulative bytes transmitted.
    pub tx_bytes_total: u64,
}

/// A drop-tail RLC bearer buffer.
#[derive(Debug)]
pub struct RlcBearer {
    queue: PacketFifo,
    backlog_bytes: u64,
    /// Remaining bytes of the head packet (partial drains across TTIs).
    head_remaining: u32,
    /// Capacity in bytes; 0 = unbounded.
    cap_bytes: u64,
    /// Sojourn statistics of the current window.
    pub sojourn: SojournWindow,
    /// Counters of the current window.
    pub counters: RlcCounters,
    /// Exponentially averaged drain rate, bytes per ms (for pacers and
    /// stats).
    pub drain_rate_bpms: f64,
}

impl RlcBearer {
    /// Creates a bearer with the given byte capacity (0 = unbounded).
    pub fn new(cap_bytes: u64) -> Self {
        RlcBearer {
            queue: PacketFifo::new(),
            backlog_bytes: 0,
            head_remaining: 0,
            cap_bytes,
            sojourn: SojournWindow::default(),
            counters: RlcCounters::default(),
            drain_rate_bpms: 0.0,
        }
    }

    /// Current backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Current backlog in packets.
    pub fn backlog_pkts(&self) -> u32 {
        self.queue.len() as u32
    }

    /// Whether there is anything to transmit.
    pub fn has_backlog(&self) -> bool {
        self.backlog_bytes > 0
    }

    /// Enqueues a packet; returns `false` (and counts a drop) when the
    /// buffer is full.
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

    /// Drains up to `budget` bytes; completed packets are appended to `out`
    /// with their sojourn recorded, and their bytes are returned.  Partial
    /// head-of-line transmission carries over to the next TTI, as RLC
    /// segmentation would.
    pub fn drain(&mut self, mut budget: u64, now_ms: u64, out: &mut Vec<Packet>) -> u64 {
        let mut completed = 0u64;
        let mut drained = 0u64;
        while budget > 0 {
            if self.queue.is_empty() {
                break;
            }
            let take = (self.head_remaining as u64).min(budget);
            budget -= take;
            drained += take;
            self.head_remaining -= take as u32;
            self.backlog_bytes -= take;
            if self.head_remaining == 0 {
                let pkt = self.queue.pop_front().expect("head exists");
                self.sojourn.record(now_ms.saturating_sub(pkt.enq_ms));
                self.counters.tx_pdus += 1;
                self.counters.tx_bytes += pkt.bytes as u64;
                self.counters.tx_bytes_total += pkt.bytes as u64;
                completed += pkt.bytes as u64;
                out.push(pkt);
                if let Some(next) = self.queue.front() {
                    self.head_remaining = next.bytes;
                }
            } else {
                debug_assert_eq!(budget, 0);
            }
        }
        // EWMA over the drain opportunities actually used.
        const ALPHA: f64 = 0.05;
        self.drain_rate_bpms = (1.0 - ALPHA) * self.drain_rate_bpms + ALPHA * drained as f64;
        completed
    }

    /// Resets window counters (on statistics snapshot).
    pub fn reset_window(&mut self) {
        self.sojourn.reset();
        let total = self.counters.tx_bytes_total;
        self.counters = RlcCounters { tx_bytes_total: total, ..Default::default() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u32, bytes: u32, sent_ms: u64) -> Packet {
        Packet { flow, bytes, sent_ms, enq_ms: sent_ms }
    }

    /// Pops every packet, in order.
    fn drain_fifo(q: &mut PacketFifo) -> Vec<Packet> {
        std::iter::from_fn(|| q.pop_front()).collect()
    }

    #[test]
    fn fifo_keeps_order_across_runs() {
        let (a, b) = (pkt(0, 100, 0), pkt(0, 100, 1));
        let mut q = PacketFifo::new();
        for p in [a, a, a, b, b, a] {
            q.push_back(p);
        }
        assert_eq!(q.runs.len(), 3, "a×3, b×2, a×1");
        assert_eq!(q.len(), 6, "len counts packets, not runs");
        assert_eq!(q.front(), Some(&a));
        assert_eq!(q.pop_front(), Some(a));
        assert_eq!(q.len(), 5);
        assert_eq!(drain_fifo(&mut q), [a, a, b, b, a]);
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.front(), None);
        // A run drained to its last packet takes new ones behind it.
        q.push_back(b);
        q.push_back(b);
        q.pop_front();
        q.push_back(b);
        q.push_back(a);
        assert_eq!(q.len(), 3);
        assert_eq!(drain_fifo(&mut q), [b, b, a]);
    }

    #[test]
    fn fifo_merges_only_equal_neighbours() {
        let mut q = PacketFifo::new();
        // Two flows interleaved: no two neighbours are equal.
        for _ in 0..4 {
            q.push_back(pkt(1, 1500, 7));
            q.push_back(pkt(2, 1500, 7));
        }
        assert_eq!(q.runs.len(), 8);
        assert_eq!(q.len(), 8);
        // Equal but for the time they were queued.
        let mut q = PacketFifo::new();
        let first = pkt(1, 1500, 7);
        q.push_back(first);
        q.push_back(Packet { enq_ms: 8, ..first });
        assert_eq!(q.runs.len(), 2);
        assert_eq!(drain_fifo(&mut q), [first, Packet { enq_ms: 8, ..first }]);
    }

    #[test]
    fn fifo_order_and_sojourn() {
        let mut b = RlcBearer::new(0);
        b.enqueue(pkt(1, 100, 0), 0);
        b.enqueue(pkt(2, 100, 0), 0);
        assert_eq!(b.backlog_bytes(), 200);
        let mut out = Vec::new();
        assert_eq!(b.drain(150, 10, &mut out), 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flow, 1);
        assert_eq!(b.backlog_bytes(), 50);
        // Partial head continues next drain; `out` is appended to.
        assert_eq!(b.drain(1000, 20, &mut out), 100);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].flow, 2);
        assert_eq!(b.backlog_bytes(), 0);
        assert_eq!(b.sojourn.max_us(), 20_000);
        assert_eq!(b.counters.tx_pdus, 2);
        assert_eq!(b.counters.tx_bytes, 200);
    }

    #[test]
    fn drop_tail_when_full() {
        let mut b = RlcBearer::new(250);
        assert!(b.enqueue(pkt(1, 100, 0), 0));
        assert!(b.enqueue(pkt(2, 100, 0), 0));
        assert!(!b.enqueue(pkt(3, 100, 0), 0), "third packet exceeds 250 B cap");
        assert_eq!(b.counters.dropped_pdus, 1);
        assert_eq!(b.backlog_pkts(), 2);
        // Draining frees space again.
        b.drain(100, 1, &mut Vec::new());
        assert!(b.enqueue(pkt(4, 100, 1), 1));
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let mut b = RlcBearer::new(0);
        for _ in 0..10_000 {
            assert!(b.enqueue(pkt(0, 1500, 0), 0));
        }
        assert_eq!(b.backlog_bytes(), 15_000_000);
        assert_eq!(b.backlog_pkts(), 10_000);
    }

    #[test]
    fn drain_rate_converges() {
        let mut b = RlcBearer::new(0);
        let mut out = Vec::new();
        for t in 0..2000u64 {
            b.enqueue(pkt(0, 1000, t), t);
            b.drain(1000, t, &mut out);
            out.clear();
        }
        assert!(
            (b.drain_rate_bpms - 1000.0).abs() < 50.0,
            "drain rate {} ≉ 1000 B/ms",
            b.drain_rate_bpms
        );
    }

    #[test]
    fn window_reset_keeps_totals() {
        let mut b = RlcBearer::new(0);
        b.enqueue(pkt(1, 500, 0), 0);
        b.drain(500, 5, &mut Vec::new());
        assert_eq!(b.counters.tx_bytes_total, 500);
        b.reset_window();
        assert_eq!(b.counters.tx_pdus, 0);
        assert_eq!(b.counters.tx_bytes_total, 500);
        assert_eq!(b.sojourn.avg_us(), 0);
    }
}
