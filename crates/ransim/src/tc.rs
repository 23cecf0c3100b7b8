//! The traffic-control sublayer of the downlink path (paper Fig. 10).
//!
//! Sits between SDAP and PDCP: an OSI classifier segregates packets into
//! queues, a scheduler pulls from the active queues, and a pacer decides
//! *how much* may be released toward the RLC buffer each TTI.  In
//! transparent mode (the default) there is a single pass-through FIFO and
//! no pacer, reproducing vanilla behaviour; the TC SM reconfigures all
//! three stages at runtime.

use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcQueueStats, TcSchedAlgo};

use crate::rlc::{admitted, Packet, PacketFifo, RlcBearer, Run, SojournWindow};

/// `(src ip, dst ip, src port, dst port, proto)`: what the classifier
/// matches a flow's packets on.
pub type FiveTuple = (u32, u32, u16, u16, u8);

/// One TC queue instance.
#[derive(Debug)]
struct TcQueue {
    id: u32,
    kind: QueueKind,
    queue: PacketFifo,
    backlog_bytes: u64,
    sojourn: SojournWindow,
    drops: u64,
    tx_pkts: u64,
    tx_bytes: u64,
    /// CoDel state: when the sojourn first exceeded target.
    codel_above_since: Option<u64>,
}

impl TcQueue {
    fn new(id: u32, kind: QueueKind) -> Self {
        TcQueue {
            id,
            kind,
            queue: PacketFifo::new(),
            backlog_bytes: 0,
            sojourn: SojournWindow::default(),
            drops: 0,
            tx_pkts: 0,
            tx_bytes: 0,
            codel_above_since: None,
        }
    }

    /// Queues `n` copies of `pkt` and returns how many fit: a capped FIFO
    /// drops at the tail, as the RLC buffer does.
    fn enqueue(&mut self, mut pkt: Packet, n: u32, now_ms: u64) -> u32 {
        let fit = match self.kind {
            QueueKind::Fifo { cap_bytes } => {
                admitted(self.backlog_bytes, pkt.bytes, n, cap_bytes as u64)
            }
            QueueKind::Codel { .. } => n,
        };
        self.drops += (n - fit) as u64;
        pkt.enq_ms = now_ms;
        self.backlog_bytes += pkt.bytes as u64 * fit as u64;
        self.queue.push_back(pkt, fit);
        fit
    }

    /// The head run the queue serves from now: CoDel first drops every
    /// head run it condemns.  A run's packets share a sojourn, so CoDel's
    /// verdict on the first is its verdict on every one.
    fn head(&mut self, now_ms: u64) -> Option<Run> {
        loop {
            let (pkt, n) = self.queue.front()?;
            let QueueKind::Codel { target_us, interval_us } = self.kind else {
                return Some((pkt, n));
            };
            // Simplified CoDel: drop the head while the sojourn has been
            // above target for longer than one interval.
            let sojourn_ms = now_ms.saturating_sub(pkt.enq_ms);
            if sojourn_ms * 1000 <= target_us as u64 {
                self.codel_above_since = None;
                return Some((pkt, n));
            }
            let since = *self.codel_above_since.get_or_insert(now_ms);
            if (now_ms - since) * 1000 < interval_us as u64 {
                return Some((pkt, n));
            }
            self.queue.pop_front(n);
            self.backlog_bytes -= pkt.bytes as u64 * n as u64;
            self.drops += n as u64;
        }
    }

    /// Sends `n` packets of the head run, `pkt`.
    fn take(&mut self, pkt: Packet, n: u32, now_ms: u64) {
        let bytes = pkt.bytes as u64 * n as u64;
        self.queue.pop_front(n);
        self.backlog_bytes -= bytes;
        self.sojourn.record_n(now_ms.saturating_sub(pkt.enq_ms), n);
        self.tx_pkts += n as u64;
        self.tx_bytes += bytes;
    }

    /// Whether the head packet fits `budget`.
    fn fits(&self, budget: u64) -> bool {
        self.queue.front().is_some_and(|(pkt, _)| pkt.bytes as u64 <= budget)
    }

    fn stats(&self) -> TcQueueStats {
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

/// A classifier rule bound to a target queue.
#[derive(Debug, Clone, Copy)]
struct BoundRule {
    rule: FiveTupleRule,
    queue: u32,
    precedence: u32,
}

/// The TC sublayer of one bearer.
#[derive(Debug)]
pub struct TcLayer {
    queues: Vec<TcQueue>,
    rules: Vec<BoundRule>,
    sched: TcSchedAlgo,
    weights: Vec<u32>,
    pacer: PacerConf,
    rr_next: usize,
    /// Bytes released toward RLC in the current window (for the pacer-rate
    /// statistic).
    released_bytes_window: u64,
    window_started_ms: u64,
}

impl Default for TcLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl TcLayer {
    /// Transparent mode: one unbounded FIFO, no pacer.
    pub fn new() -> Self {
        TcLayer {
            queues: vec![TcQueue::new(0, QueueKind::Fifo { cap_bytes: 0 })],
            rules: Vec::new(),
            sched: TcSchedAlgo::RoundRobin,
            weights: Vec::new(),
            pacer: PacerConf::None,
            rr_next: 0,
            released_bytes_window: 0,
            window_started_ms: 0,
        }
    }

    /// Adds (or reconfigures) a queue.
    pub fn add_queue(&mut self, id: u32, kind: QueueKind) {
        if let Some(q) = self.queues.iter_mut().find(|q| q.id == id) {
            q.kind = kind;
        } else {
            self.queues.push(TcQueue::new(id, kind));
        }
    }

    /// Removes a queue, re-homing its backlog to queue 0.
    pub fn del_queue(&mut self, id: u32) -> Result<(), &'static str> {
        if id == 0 {
            return Err("queue 0 cannot be removed");
        }
        let Some(pos) = self.queues.iter().position(|q| q.id == id) else {
            return Err("no such queue");
        };
        let mut removed = self.queues.remove(pos);
        self.rules.retain(|r| r.queue != id);
        let q0 = self.queues.iter_mut().find(|q| q.id == 0).expect("queue 0 always present");
        while let Some((pkt, n)) = removed.queue.front() {
            removed.queue.pop_front(n);
            q0.backlog_bytes += pkt.bytes as u64 * n as u64;
            q0.queue.push_back(pkt, n);
        }
        Ok(())
    }

    /// Installs a classifier rule.
    pub fn add_rule(
        &mut self,
        rule: FiveTupleRule,
        queue: u32,
        precedence: u32,
    ) -> Result<(), &'static str> {
        if !self.queues.iter().any(|q| q.id == queue) {
            return Err("rule targets unknown queue");
        }
        self.rules.retain(|r| r.rule.id != rule.id);
        self.rules.push(BoundRule { rule, queue, precedence });
        self.rules.sort_by_key(|r| r.precedence);
        Ok(())
    }

    /// Removes a classifier rule.
    pub fn del_rule(&mut self, rule_id: u32) -> Result<(), &'static str> {
        let before = self.rules.len();
        self.rules.retain(|r| r.rule.id != rule_id);
        if self.rules.len() == before {
            Err("no such rule")
        } else {
            Ok(())
        }
    }

    /// Selects the queue scheduler.
    pub fn set_sched(&mut self, algo: TcSchedAlgo, weights: Vec<u32>) {
        self.sched = algo;
        self.weights = weights;
    }

    /// Configures the pacer.
    pub fn set_pacer(&mut self, pacer: PacerConf) {
        self.pacer = pacer;
    }

    /// Current pacer configuration.
    pub fn pacer(&self) -> PacerConf {
        self.pacer
    }

    /// Total TC backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.backlog_bytes).sum()
    }

    /// Whether no packet is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.queue.is_empty())
    }

    /// Classifies `n` packets `pkt` arriving from upper layers — one
    /// flow's, whose 5-tuple is `tuple` — and enqueues them.  Returns how
    /// many were dropped.
    pub fn ingress(&mut self, tuple: FiveTuple, pkt: Packet, n: u32, now_ms: u64) -> u32 {
        let (src_ip, dst_ip, src_port, dst_port, proto) = tuple;
        let target = self
            .rules
            .iter()
            .find(|r| r.rule.matches(src_ip, dst_ip, src_port, dst_port, proto))
            .map(|r| r.queue)
            .unwrap_or(0);
        let pos = self
            .queues
            .iter()
            .position(|q| q.id == target)
            .or_else(|| self.queues.iter().position(|q| q.id == 0))
            .expect("queue 0 always present");
        n - self.queues[pos].enqueue(pkt, n, now_ms)
    }

    /// Releases packets toward the RLC bearer for this TTI, honoring the
    /// pacer: with the 5G-BDP pacer, release only while the RLC backlog is
    /// below `drain_rate × target_delay` — enough not to starve the DRB,
    /// not enough to bloat it.  Packets the RLC buffer rejected (drop-tail)
    /// are appended to `dropped`, so senders can react to the loss.
    ///
    /// A picked queue hands out as many packets of its head run back to
    /// back as the scheduler would pick it in a row: every one that fits
    /// under strict priority (a queue the scheduler passed over does not
    /// fit a smaller budget either), and under round robin or WRR when no
    /// other queue's head fits; one otherwise.
    pub fn egress(&mut self, rlc: &mut RlcBearer, now_ms: u64, dropped: &mut Vec<Run>) {
        let budget = match self.pacer {
            PacerConf::None => u64::MAX,
            PacerConf::Bdp { target_delay_us } => {
                // Allow a minimum floor so a cold-start (drain rate still
                // ~0) does not deadlock the bearer.
                let target =
                    (rlc.drain_rate_bpms * (target_delay_us as f64 / 1000.0)).max(3_000.0) as u64;
                target.saturating_sub(rlc.backlog_bytes())
            }
        };
        let mut remaining = budget;
        while let Some(qidx) = self.pick_queue(remaining) {
            let Some((pkt, count)) = self.queues[qidx].head(now_ms) else { continue };
            // The head packet goes even when CoDel's drops left one that
            // does not fit; those behind it only where they fit.
            let bytes = pkt.bytes as u64;
            let after_head = remaining.saturating_sub(bytes);
            let alone = matches!(self.sched, TcSchedAlgo::StrictPriority)
                || !self.queues.iter().enumerate().any(|(i, q)| i != qidx && q.fits(after_head));
            let n = match alone {
                true => {
                    1 + after_head
                        .checked_div(bytes)
                        .map_or(count - 1, |k| k.min(count as u64 - 1) as u32)
                }
                false => 1,
            };
            let sent = bytes * n as u64;
            self.queues[qidx].take(pkt, n, now_ms);
            remaining = remaining.saturating_sub(sent);
            self.released_bytes_window += sent;
            let fit = rlc.enqueue(pkt, n, now_ms);
            if fit < n {
                dropped.push((pkt, n - fit));
            }
        }
    }

    /// Picks the next queue with a head packet fitting `budget`, or `None`.
    fn pick_queue(&mut self, budget: u64) -> Option<usize> {
        let fits = |q: &TcQueue| q.fits(budget);
        match self.sched {
            TcSchedAlgo::RoundRobin => {
                let n = self.queues.len();
                for off in 0..n {
                    let idx = (self.rr_next + off) % n;
                    if fits(&self.queues[idx]) {
                        self.rr_next = (idx + 1) % n;
                        return Some(idx);
                    }
                }
                None
            }
            TcSchedAlgo::StrictPriority => {
                // Lowest queue id first.
                let fitting = self.queues.iter().enumerate().filter(|(_, q)| fits(q));
                fitting.min_by_key(|(_, q)| q.id).map(|(i, _)| i)
            }
            TcSchedAlgo::WeightedRoundRobin => {
                // Deficit-less approximation: serve queues proportionally by
                // comparing tx_bytes / weight; the least-served eligible
                // queue goes first.
                let mut best: Option<(usize, f64)> = None;
                for (i, q) in self.queues.iter().enumerate() {
                    if !fits(q) {
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

    /// Per-queue statistics plus the pacer release-rate estimate.
    pub fn stats(&mut self, now_ms: u64) -> (Vec<TcQueueStats>, u64) {
        let stats = self.queues.iter().map(|q| q.stats()).collect();
        let elapsed = now_ms.saturating_sub(self.window_started_ms).max(1);
        let rate_kbps = self.released_bytes_window * 8 / elapsed;
        (stats, rate_kbps)
    }

    /// Resets window statistics (on snapshot).
    pub fn reset_window(&mut self, now_ms: u64) {
        for q in &mut self.queues {
            q.sojourn.reset();
        }
        self.released_bytes_window = 0;
        self.window_started_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(dst_port: u16, proto: u8) -> FiveTuple {
        (0x0A000001, 0x0A000002, 1000, dst_port, proto)
    }

    fn pkt(flow: u32, bytes: u32, now: u64) -> Packet {
        Packet { flow, bytes, sent_ms: now, enq_ms: now }
    }

    #[test]
    fn transparent_mode_passes_through() {
        let mut tc = TcLayer::new();
        let mut rlc = RlcBearer::new(0);
        tc.ingress(tuple(80, 6), pkt(0, 100, 0), 1, 0);
        tc.ingress(tuple(80, 6), pkt(0, 200, 0), 1, 0);
        tc.egress(&mut rlc, 0, &mut Vec::new());
        assert_eq!(tc.backlog_bytes(), 0);
        assert_eq!(rlc.backlog_bytes(), 300);
    }

    #[test]
    fn classifier_routes_to_queue() {
        let mut tc = TcLayer::new();
        tc.add_queue(1, QueueKind::Fifo { cap_bytes: 0 });
        tc.add_rule(
            FiveTupleRule { id: 1, dst_port: Some(5004), proto: Some(17), ..Default::default() },
            1,
            0,
        )
        .unwrap();
        tc.ingress(tuple(5004, 17), pkt(0, 100, 0), 1, 0); // matches → q1
        tc.ingress(tuple(80, 6), pkt(1, 100, 0), 1, 0); // default → q0
        let (stats, _) = tc.stats(0);
        let q0 = stats.iter().find(|q| q.id == 0).unwrap();
        let q1 = stats.iter().find(|q| q.id == 1).unwrap();
        assert_eq!(q0.backlog_pkts, 1);
        assert_eq!(q1.backlog_pkts, 1);
    }

    #[test]
    fn rule_to_unknown_queue_rejected() {
        let mut tc = TcLayer::new();
        assert!(tc.add_rule(FiveTupleRule::default(), 9, 0).is_err());
        assert!(tc.del_rule(1).is_err());
        assert!(tc.del_queue(0).is_err());
        assert!(tc.del_queue(5).is_err());
    }

    #[test]
    fn del_queue_rehomes_backlog() {
        let mut tc = TcLayer::new();
        tc.add_queue(1, QueueKind::Fifo { cap_bytes: 0 });
        tc.add_rule(FiveTupleRule { id: 1, proto: Some(17), ..Default::default() }, 1, 0).unwrap();
        tc.ingress(tuple(5004, 17), pkt(0, 100, 0), 1, 0);
        tc.del_queue(1).unwrap();
        let (stats, _) = tc.stats(0);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].backlog_pkts, 1, "packet re-homed to q0");
    }

    #[test]
    fn bdp_pacer_bounds_rlc_backlog() {
        let mut tc = TcLayer::new();
        tc.set_pacer(PacerConf::Bdp { target_delay_us: 10_000 });
        let mut rlc = RlcBearer::new(0);
        let mut sink = Vec::new();
        // Warm the drain-rate estimate: 2000 B/ms link.
        for t in 0..500u64 {
            tc.ingress(tuple(80, 6), pkt(0, 1000, t), 1, t);
            tc.ingress(tuple(80, 6), pkt(0, 1000, t), 1, t);
            tc.egress(&mut rlc, t, &mut sink);
            rlc.drain(2000, t, &mut sink);
            sink.clear();
        }
        // Now flood: the TC holds the excess, the RLC stays near
        // drain_rate × target = 2000 B/ms × 10 ms = 20 kB.
        for t in 500..1000u64 {
            for _ in 0..10 {
                tc.ingress(tuple(80, 6), pkt(0, 1500, t), 1, t);
            }
            tc.egress(&mut rlc, t, &mut sink);
            rlc.drain(2000, t, &mut sink);
            sink.clear();
        }
        assert!(
            rlc.backlog_bytes() < 40_000,
            "RLC stays uncongested under pacing: {}",
            rlc.backlog_bytes()
        );
        assert!(tc.backlog_bytes() > 100_000, "excess backlogged at TC: {}", tc.backlog_bytes());
    }

    #[test]
    fn round_robin_alternates_queues() {
        let mut tc = TcLayer::new();
        tc.add_queue(1, QueueKind::Fifo { cap_bytes: 0 });
        tc.add_rule(FiveTupleRule { id: 1, proto: Some(17), ..Default::default() }, 1, 0).unwrap();
        for _ in 0..10 {
            tc.ingress(tuple(80, 6), pkt(0, 100, 0), 1, 0); // q0
            tc.ingress(tuple(5004, 17), pkt(1, 100, 0), 1, 0); // q1
        }
        let mut rlc = RlcBearer::new(0);
        tc.egress(&mut rlc, 0, &mut Vec::new());
        // Everything released (no pacer); both queues served.
        let (stats, _) = tc.stats(0);
        assert!(stats.iter().all(|q| q.backlog_pkts == 0));
        assert_eq!(stats.iter().map(|q| q.tx_pkts).sum::<u64>(), 20);
    }

    #[test]
    fn strict_priority_serves_low_id_first() {
        let mut tc = TcLayer::new();
        tc.add_queue(1, QueueKind::Fifo { cap_bytes: 0 });
        tc.set_sched(TcSchedAlgo::StrictPriority, vec![]);
        tc.set_pacer(PacerConf::Bdp { target_delay_us: 1 }); // tiny budget
        tc.add_rule(FiveTupleRule { id: 1, proto: Some(17), ..Default::default() }, 1, 0).unwrap();
        tc.ingress(tuple(5004, 17), pkt(1, 1000, 0), 1, 0); // q1
        tc.ingress(tuple(80, 6), pkt(0, 1000, 0), 1, 0); // q0
        let mut rlc = RlcBearer::new(0);
        // Budget floor is 3000 B; only q0's packet plus one more fit…
        tc.egress(&mut rlc, 0, &mut Vec::new());
        let (stats, _) = tc.stats(0);
        let q0 = stats.iter().find(|q| q.id == 0).unwrap();
        assert_eq!(q0.tx_pkts, 1, "q0 served first under strict priority");
    }

    #[test]
    fn codel_drops_persistent_bloat() {
        let mut tc = TcLayer::new();
        tc.add_queue(1, QueueKind::Codel { target_us: 5_000, interval_us: 20_000 });
        tc.add_rule(FiveTupleRule { id: 1, proto: Some(17), ..Default::default() }, 1, 0).unwrap();
        // Fill queue 1 at t=0, then drain much later: sojourns way above
        // target for longer than the interval ⇒ CoDel drops.
        for i in 0..50 {
            tc.ingress(tuple(5004, 17), pkt(1, 100, 0), 1, i / 10);
        }
        let mut rlc = RlcBearer::new(0);
        // First egress at t=100 sets codel_above_since; later ones drop.
        tc.egress(&mut rlc, 100, &mut Vec::new());
        tc.reset_window(100);
        for i in 0..50 {
            tc.ingress(tuple(5004, 17), pkt(1, 100, 130), 1, 130);
            let _ = i;
        }
        tc.egress(&mut rlc, 200, &mut Vec::new());
        let (stats, _) = tc.stats(200);
        let q1 = stats.iter().find(|q| q.id == 1).unwrap();
        assert!(q1.drops > 0, "CoDel dropped persistent-bloat packets: {q1:?}");
    }
}
