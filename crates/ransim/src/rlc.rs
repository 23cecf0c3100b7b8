//! RLC bearer buffer: the bottleneck queue of the downlink path.
//!
//! "The RLC sublayer is provided with large buffers to absorb the brusque
//! changes that the radio channel may suffer" (paper §6.1.1) — which is
//! exactly what makes cellular links bufferbloat-prone.  This module
//! models a per-DRB drop-tail byte-bounded FIFO with per-packet sojourn
//! tracking, the quantity the RLC statistics SM reports and the TC xApp
//! of Fig. 11 acts on.
//!
//! Packets travel as runs ([`Run`]): equal packets in a row — what one
//! flow sends in one TTI — are one value with a count, and the queues
//! (`PacketFifo`) hold them so.  The bearer enqueues a run at once, its
//! drop-tail computed for the run, and [`RlcBearer::drain`] finishes the
//! part-sent head packet, then sends every whole packet of the head run
//! the budget covers as one run with one sojourn record.  Each step equals
//! the same packets handled one at a time.

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

/// `count` equal packets in a row: how packets move through the downlink
/// path — generated, queued, released, drained, delivered and dropped.
pub type Run = (Packet, u32);

/// A FIFO of packets stored as runs: a run equal to the one at the tail
/// adds to that run's count instead of taking an entry of its own.  Equal
/// packets cannot be told apart, so this is a plain packet FIFO to its
/// users; `len` counts packets, `front` shows the head run and
/// `pop_front(n)` takes `n` packets of it.
#[derive(Debug, Default)]
pub(crate) struct PacketFifo {
    runs: VecDeque<Run>,
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

    /// Queues `n` copies of `pkt` behind every packet queued.
    pub(crate) fn push_back(&mut self, pkt: Packet, n: u32) {
        if n == 0 {
            return;
        }
        self.len += n as usize;
        let room = match self.runs.back_mut() {
            Some((tail, count)) if *tail == pkt => {
                let room = n.min(u32::MAX - *count);
                *count += room;
                room
            }
            _ => 0,
        };
        if room < n {
            self.runs.push_back((pkt, n - room));
        }
    }

    /// The head run: its packet and how many of it are queued.
    pub(crate) fn front(&self) -> Option<Run> {
        self.runs.front().copied()
    }

    /// Takes `n` packets of the head run, which must hold that many.
    pub(crate) fn pop_front(&mut self, n: u32) {
        let (_, count) = self.runs.front_mut().expect("a head run");
        assert!(n <= *count, "taking {n} of a run of {count}");
        *count -= n;
        if *count == 0 {
            self.runs.pop_front();
        }
        self.len -= n as usize;
    }
}

/// Running sojourn statistics over a reporting window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SojournWindow {
    sum_us: u64,
    count: u64,
    max_us: u64,
}

impl SojournWindow {
    /// Records `n` departures with the given sojourn: a run leaves
    /// together, so its packets share it.
    pub fn record_n(&mut self, sojourn_ms: u64, n: u32) {
        let us = sojourn_ms * 1000;
        self.sum_us += us * n as u64;
        self.count += n as u64;
        if n > 0 {
            self.max_us = self.max_us.max(us);
        }
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// How many of `n` packets of `bytes` each a drop-tail buffer holding
/// `backlog` bytes admits under `cap` bytes (0 = unbounded): the first
/// packet that would overflow it is dropped, and so is every packet behind
/// it, since the backlog does not move while they arrive.
pub(crate) fn admitted(backlog: u64, bytes: u32, n: u32, cap: u64) -> u32 {
    let bytes = bytes as u64;
    if cap == 0 {
        n
    } else if backlog + bytes > cap {
        0
    } else {
        (cap - backlog).checked_div(bytes).map_or(n, |fit| fit.min(n as u64) as u32)
    }
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

    /// Bytes of the head packet still to send: all of it, or what is left
    /// after a partial drain; 0 when the buffer is empty.
    pub fn head_remaining(&self) -> u32 {
        self.head_remaining
    }

    /// Enqueues `n` copies of `pkt` behind the backlog and returns how many
    /// fit; the rest are dropped at the tail (and counted).  The packets are
    /// equal, so the ones that fit are the first `k` for which the backlog
    /// stays within the capacity.
    pub fn enqueue(&mut self, mut pkt: Packet, n: u32, now_ms: u64) -> u32 {
        let fit = admitted(self.backlog_bytes, pkt.bytes, n, self.cap_bytes);
        self.counters.dropped_pdus += (n - fit) as u64;
        if fit == 0 {
            return 0;
        }
        pkt.enq_ms = now_ms;
        if self.queue.is_empty() {
            self.head_remaining = pkt.bytes;
        }
        self.backlog_bytes += pkt.bytes as u64 * fit as u64;
        self.queue.push_back(pkt, fit);
        fit
    }

    /// Drains up to `budget` bytes; completed packets are appended to `out`
    /// as runs with their sojourn recorded, and their bytes are returned.
    /// The head packet finishes first (it may be part-sent); then the whole
    /// packets of the head run that the budget covers leave at once.  A
    /// head packet the budget does not finish carries over to the next
    /// TTI, as RLC segmentation would.
    pub fn drain(&mut self, mut budget: u64, now_ms: u64, out: &mut Vec<Run>) -> u64 {
        let mut completed = 0u64;
        let mut drained = 0u64;
        while budget > 0 {
            let Some((pkt, count)) = self.queue.front() else { break };
            let head = self.head_remaining as u64;
            if head > budget {
                self.head_remaining -= budget as u32;
                self.backlog_bytes -= budget;
                drained += budget;
                break;
            }
            let bytes = pkt.bytes as u64;
            // The head packet, then the whole ones behind it in its run.
            let left = budget - head;
            let whole = match left {
                0 => 0,
                _ => left.checked_div(bytes).unwrap_or(u64::MAX).min(count as u64 - 1),
            };
            let n = 1 + whole as u32;
            let take = head + whole * bytes;
            budget -= take;
            drained += take;
            self.backlog_bytes -= take;
            self.queue.pop_front(n);
            self.sojourn.record_n(now_ms.saturating_sub(pkt.enq_ms), n);
            let sent = bytes * n as u64;
            self.counters.tx_pdus += n as u64;
            self.counters.tx_bytes += sent;
            self.counters.tx_bytes_total += sent;
            completed += sent;
            out.push((pkt, n));
            self.head_remaining = self.queue.front().map_or(0, |(next, _)| next.bytes);
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

    /// Takes every packet, one at a time, in order.
    fn drain_fifo(q: &mut PacketFifo) -> Vec<Packet> {
        std::iter::from_fn(|| {
            let (pkt, _) = q.front()?;
            q.pop_front(1);
            Some(pkt)
        })
        .collect()
    }

    #[test]
    fn fifo_keeps_order_across_runs() {
        let (a, b) = (pkt(0, 100, 0), pkt(0, 100, 1));
        let mut q = PacketFifo::new();
        q.push_back(a, 2);
        q.push_back(a, 1);
        q.push_back(b, 2);
        q.push_back(a, 1);
        q.push_back(b, 0);
        assert_eq!(q.runs.len(), 3, "a×3, b×2, a×1");
        assert_eq!(q.len(), 6, "len counts packets, not runs");
        assert_eq!(q.front(), Some((a, 3)));
        q.pop_front(2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.front(), Some((a, 1)));
        assert_eq!(drain_fifo(&mut q), [a, b, b, a]);
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
        // A run drained to its last packet takes new ones behind it.
        q.push_back(b, 2);
        q.pop_front(1);
        q.push_back(b, 1);
        q.push_back(a, 1);
        assert_eq!(q.runs.len(), 2);
        assert_eq!(drain_fifo(&mut q), [b, b, a]);
    }

    #[test]
    fn fifo_merges_only_equal_neighbours() {
        let mut q = PacketFifo::new();
        // Two flows interleaved: no two neighbours are equal.
        for _ in 0..4 {
            q.push_back(pkt(1, 1500, 7), 1);
            q.push_back(pkt(2, 1500, 7), 1);
        }
        assert_eq!(q.runs.len(), 8);
        assert_eq!(q.len(), 8);
        // Equal but for the time they were queued.
        let mut q = PacketFifo::new();
        let first = pkt(1, 1500, 7);
        q.push_back(first, 1);
        q.push_back(Packet { enq_ms: 8, ..first }, 1);
        assert_eq!(q.runs.len(), 2);
        assert_eq!(drain_fifo(&mut q), [first, Packet { enq_ms: 8, ..first }]);
    }

    #[test]
    fn a_full_run_spills_into_a_new_one() {
        let a = pkt(0, 100, 0);
        let mut q = PacketFifo::new();
        q.push_back(a, u32::MAX - 1);
        q.push_back(a, 3);
        assert_eq!(q.runs.len(), 2);
        assert_eq!(q.front(), Some((a, u32::MAX)));
        assert_eq!(q.len(), u32::MAX as usize + 2);
        q.pop_front(u32::MAX);
        assert_eq!(q.front(), Some((a, 2)));
    }

    #[test]
    fn fifo_order_and_sojourn() {
        let mut b = RlcBearer::new(0);
        b.enqueue(pkt(1, 100, 0), 1, 0);
        b.enqueue(pkt(2, 100, 0), 1, 0);
        assert_eq!(b.backlog_bytes(), 200);
        let mut out = Vec::new();
        assert_eq!(b.drain(150, 10, &mut out), 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.flow, 1);
        assert_eq!(b.backlog_bytes(), 50);
        assert_eq!(b.head_remaining(), 50);
        // Partial head continues next drain; `out` is appended to.
        assert_eq!(b.drain(1000, 20, &mut out), 100);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].0.flow, 2);
        assert_eq!(b.backlog_bytes(), 0);
        assert_eq!(b.head_remaining(), 0);
        assert_eq!(b.sojourn.max_us(), 20_000);
        assert_eq!(b.counters.tx_pdus, 2);
        assert_eq!(b.counters.tx_bytes, 200);
    }

    #[test]
    fn a_run_drains_whole_packets_at_once() {
        let mut b = RlcBearer::new(0);
        assert_eq!(b.enqueue(pkt(1, 1000, 0), 10, 0), 10);
        let mut out = Vec::new();
        // 3.5 packets: three leave as one run, half of the fourth is sent.
        assert_eq!(b.drain(3_500, 4, &mut out), 3_000);
        assert_eq!(out, [(Packet { enq_ms: 0, ..pkt(1, 1000, 0) }, 3)]);
        assert_eq!(b.head_remaining(), 500);
        assert_eq!(b.backlog_pkts(), 7);
        assert_eq!(b.backlog_bytes(), 6_500);
        // The part-sent head finishes first, then two more whole packets.
        assert_eq!(b.drain(2_500, 6, &mut out), 3_000);
        assert_eq!(out[1].1, 3);
        assert_eq!(b.head_remaining(), 1_000);
        assert_eq!(b.counters.tx_pdus, 6);
        assert_eq!(b.sojourn.avg_us(), 5_000);
    }

    #[test]
    fn drop_tail_when_full() {
        let mut b = RlcBearer::new(250);
        assert_eq!(b.enqueue(pkt(1, 100, 0), 1, 0), 1);
        assert_eq!(b.enqueue(pkt(2, 100, 0), 1, 0), 1);
        assert_eq!(b.enqueue(pkt(3, 100, 0), 1, 0), 0, "third packet exceeds 250 B cap");
        assert_eq!(b.counters.dropped_pdus, 1);
        assert_eq!(b.backlog_pkts(), 2);
        // Draining frees space again.
        b.drain(100, 1, &mut Vec::new());
        assert_eq!(b.enqueue(pkt(4, 100, 1), 1, 1), 1);
        // A run is cut where the buffer fills.
        let mut b = RlcBearer::new(1_000);
        assert_eq!(b.enqueue(pkt(1, 300, 0), 5, 0), 3);
        assert_eq!(b.counters.dropped_pdus, 2);
        assert_eq!(b.backlog_bytes(), 900);
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let mut b = RlcBearer::new(0);
        for _ in 0..10_000 {
            assert_eq!(b.enqueue(pkt(0, 1500, 0), 1, 0), 1);
        }
        assert_eq!(b.backlog_bytes(), 15_000_000);
        assert_eq!(b.backlog_pkts(), 10_000);
    }

    #[test]
    fn drain_rate_converges() {
        let mut b = RlcBearer::new(0);
        let mut out = Vec::new();
        for t in 0..2000u64 {
            b.enqueue(pkt(0, 1000, t), 1, t);
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
        b.enqueue(pkt(1, 500, 0), 1, 0);
        b.drain(500, 5, &mut Vec::new());
        assert_eq!(b.counters.tx_bytes_total, 500);
        b.reset_window();
        assert_eq!(b.counters.tx_pdus, 0);
        assert_eq!(b.counters.tx_bytes_total, 500);
        assert_eq!(b.sojourn.avg_us(), 0);
    }
}
