//! Traffic control service model (TC SM, paper §6.1.1).
//!
//! Abstracts the configuration of multiple flows within the RAN "similarly
//! to how OpenFlow abstracts flows in a switch": a classifier segregates
//! packets into queues, a scheduler pulls from the queues, and a pacer
//! limits the rate toward the RLC buffer (Fig. 10b).  The bufferbloat
//! experiment of Fig. 11 is driven entirely through this SM: the xApp adds
//! a second FIFO queue, installs a 5-tuple filter for the VoIP flow, loads
//! the 5G-BDP pacer, and selects the round-robin scheduler.

use flexric_codec::{wire_choice, wire_enum, wire_table};

use crate::schema::Rows;

/// Queue discipline of a TC queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// FIFO with a byte capacity (drop-tail).
    Fifo {
        /// Capacity in bytes; 0 = unbounded.
        cap_bytes: u32,
    },
    /// CoDel-style: FIFO that drops when sojourn exceeds `target_us` for
    /// longer than `interval_us` (extension beyond the paper's FIFO).
    Codel {
        /// Sojourn target in microseconds.
        target_us: u32,
        /// Estimation interval in microseconds.
        interval_us: u32,
    },
}

/// The scheduler pulling packets from TC queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum TcSchedAlgo {
    /// Round-robin over active queues (the paper's choice).
    #[default]
    RoundRobin = 0,
    /// Strict priority: lowest queue id first.
    StrictPriority = 1,
    /// Weighted round robin (weights configured per queue id order).
    WeightedRoundRobin = 2,
}

impl TcSchedAlgo {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(TcSchedAlgo::RoundRobin),
            1 => Some(TcSchedAlgo::StrictPriority),
            2 => Some(TcSchedAlgo::WeightedRoundRobin),
            _ => None,
        }
    }
}

/// The pacer limiting the rate toward the RLC buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacerConf {
    /// No pacing: packets pass straight to the RLC (transparent mode).
    #[default]
    None,
    /// 5G-BDP pacer: keep the RLC buffer's sojourn at `target_delay_us` by
    /// tracking its drain rate — "it tries to submit just enough packets to
    /// the DRB not to starve it, without bloating it" (§6.1.1).
    Bdp {
        /// Target RLC sojourn in microseconds.
        target_delay_us: u32,
    },
}

/// A 5-tuple classifier rule; `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FiveTupleRule {
    /// Rule id, unique within the bearer.
    pub id: u32,
    /// Source IPv4 address.
    pub src_ip: Option<u32>,
    /// Destination IPv4 address.
    pub dst_ip: Option<u32>,
    /// Source port.
    pub src_port: Option<u16>,
    /// Destination port.
    pub dst_port: Option<u16>,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: Option<u8>,
}

impl FiveTupleRule {
    /// Whether a packet's 5-tuple matches this rule.
    pub fn matches(
        &self,
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        proto: u8,
    ) -> bool {
        self.src_ip.is_none_or(|v| v == src_ip)
            && self.dst_ip.is_none_or(|v| v == dst_ip)
            && self.src_port.is_none_or(|v| v == src_port)
            && self.dst_port.is_none_or(|v| v == dst_port)
            && self.proto.is_none_or(|v| v == proto)
    }
}

/// Control messages of the TC SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcCtrl {
    /// Create a queue.
    AddQueue {
        /// Queue id, unique within the bearer.
        id: u32,
        /// Discipline.
        kind: QueueKind,
    },
    /// Remove a queue (its backlog is re-enqueued to queue 0).
    DelQueue {
        /// Queue id.
        id: u32,
    },
    /// Install a classifier rule directing matches to `queue`.
    AddRule {
        /// The match rule.
        rule: FiveTupleRule,
        /// Target queue id.
        queue: u32,
        /// Precedence: lower value is checked first.
        precedence: u32,
    },
    /// Remove a classifier rule.
    DelRule {
        /// Rule id.
        rule_id: u32,
    },
    /// Select the queue scheduler.
    SetSched {
        /// The algorithm.
        algo: TcSchedAlgo,
        /// Weights for [`TcSchedAlgo::WeightedRoundRobin`], by queue-id
        /// order; ignored otherwise.
        weights: Vec<u32>,
    },
    /// Configure the pacer.
    SetPacer {
        /// The pacer configuration.
        pacer: PacerConf,
    },
}

crate::sm_rows! {
    /// Per-queue status in a TC statistics indication.
    pub struct TcQueueStats {
        key {
            /// Queue id.
            id: u32 = uint,
        }
        /// Current backlog in bytes.
        backlog_bytes: u64 = uint,
        /// Current backlog in packets.
        backlog_pkts: u32 = uint,
        /// Average sojourn of packets leaving this queue, microseconds.
        sojourn_us_avg: u64 = uint,
        /// Maximum sojourn in the period, microseconds.
        sojourn_us_max: u64 = uint,
        /// Packets dropped by the discipline.
        drops: u64 = uint,
        /// Packets forwarded in the period.
        tx_pkts: u64 = uint,
        /// Bytes forwarded in the period.
        tx_bytes: u64 = uint,
    }
}

/// A TC statistics indication for one bearer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TcStatsInd {
    /// Snapshot time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// Owning UE.
    pub rnti: u16,
    /// Bearer.
    pub drb_id: u8,
    /// Per-queue statistics.
    pub queues: Vec<TcQueueStats>,
    /// Current pacer release rate estimate, kbit/s (0 when unpaced).
    pub pacer_rate_kbps: u64,
}

wire_enum!(TcSchedAlgo = 2);
wire_choice!(QueueKind {
    0 => Fifo { cap_bytes: u32 => 1 },
    1 => Codel { target_us: u32 => 1, interval_us: u32 => 2 },
});
wire_choice!(PacerConf {
    0 => None {},
    1 => Bdp { target_delay_us: u32 => 1 },
});
wire_table!(FiveTupleRule {
    id: u32 => 0,
    src_ip: Option<u32> => 1,
    dst_ip: Option<u32> => 2,
    src_port: Option<u16> => 3,
    dst_port: Option<u16> => 4,
    proto: Option<u8> => 5,
});
// The variants share slots 1 to 5; the bytes every peer knows have a rule
// ahead of the queue it directs to.
wire_choice!(TcCtrl {
    0 => AddQueue { id: u32 => 1, kind: QueueKind => 2 },
    1 => DelQueue { id: u32 => 1 },
    2 => AddRule [5 1 3] { rule: FiveTupleRule => 5, queue: u32 => 1, precedence: u32 => 3 },
    3 => DelRule { rule_id: u32 => 1 },
    4 => SetSched { algo: TcSchedAlgo => 2, weights: Vec<u32> => 5 },
    5 => SetPacer { pacer: PacerConf => 2 },
});
wire_table!(TcStatsInd {
    tstamp_ms: u64 => 0,
    rnti: u16 = bits(16) => 1,
    drb_id: u8 = bits(8) => 2,
    queues: Rows<TcQueueStats> => 3,
    pacer_rate_kbps: u64 => 4,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn ctrl_roundtrip() {
        roundtrip_both(&TcCtrl::AddQueue { id: 1, kind: QueueKind::Fifo { cap_bytes: 0 } });
        roundtrip_both(&TcCtrl::AddQueue {
            id: 2,
            kind: QueueKind::Codel { target_us: 5_000, interval_us: 100_000 },
        });
        roundtrip_both(&TcCtrl::DelQueue { id: 2 });
        roundtrip_both(&TcCtrl::AddRule {
            rule: FiveTupleRule {
                id: 9,
                src_ip: Some(0x0A00_0001),
                dst_ip: None,
                src_port: None,
                dst_port: Some(5004),
                proto: Some(17),
            },
            queue: 1,
            precedence: 0,
        });
        roundtrip_both(&TcCtrl::AddRule {
            rule: FiveTupleRule::default(),
            queue: 0,
            precedence: u32::MAX,
        });
        roundtrip_both(&TcCtrl::DelRule { rule_id: 9 });
        roundtrip_both(&TcCtrl::SetSched { algo: TcSchedAlgo::RoundRobin, weights: vec![] });
        roundtrip_both(&TcCtrl::SetSched {
            algo: TcSchedAlgo::WeightedRoundRobin,
            weights: vec![1, 3, 9],
        });
        roundtrip_both(&TcCtrl::SetPacer { pacer: PacerConf::None });
        roundtrip_both(&TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us: 10_000 } });
        garbage_rejected::<TcCtrl>();
    }

    #[test]
    fn stats_roundtrip() {
        roundtrip_both(&TcStatsInd::default());
        roundtrip_both(&TcStatsInd {
            tstamp_ms: 60_000,
            rnti: 0x4601,
            drb_id: 1,
            queues: vec![
                TcQueueStats {
                    id: 0,
                    backlog_bytes: 2_800_000,
                    backlog_pkts: 1900,
                    sojourn_us_avg: 580_000,
                    sojourn_us_max: 910_000,
                    drops: 42,
                    tx_pkts: 100_000,
                    tx_bytes: 150_000_000,
                },
                TcQueueStats { id: 1, sojourn_us_avg: 900, ..Default::default() },
            ],
            pacer_rate_kbps: 38_000,
        });
        garbage_rejected::<TcStatsInd>();
    }

    #[test]
    fn rule_matching() {
        let rule = FiveTupleRule {
            id: 1,
            src_ip: Some(0x0A000001),
            dst_ip: None,
            src_port: None,
            dst_port: Some(5004),
            proto: Some(17),
        };
        assert!(rule.matches(0x0A000001, 0xC0A80001, 40000, 5004, 17));
        assert!(!rule.matches(0x0A000002, 0xC0A80001, 40000, 5004, 17)); // src ip
        assert!(!rule.matches(0x0A000001, 0xC0A80001, 40000, 5005, 17)); // dst port
        assert!(!rule.matches(0x0A000001, 0xC0A80001, 40000, 5004, 6)); // proto
        let wildcard = FiveTupleRule::default();
        assert!(wildcard.matches(1, 2, 3, 4, 5));
    }
}
