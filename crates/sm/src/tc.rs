//! Traffic control service model (TC SM, paper §6.1.1).
//!
//! Abstracts the configuration of multiple flows within the RAN "similarly
//! to how OpenFlow abstracts flows in a switch": a classifier segregates
//! packets into queues, a scheduler pulls from the queues, and a pacer
//! limits the rate toward the RLC buffer (Fig. 10b).  The bufferbloat
//! experiment of Fig. 11 is driven entirely through this SM: the xApp adds
//! a second FIFO queue, installs a 5-tuple filter for the VoIP flow, loads
//! the 5G-BDP pacer, and selects the round-robin scheduler.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::schema::Row;
use crate::SmPayload;

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

// ---------------------------------------------------------------------------
// PER helpers
// ---------------------------------------------------------------------------

fn put_kind<B: ByteSink>(w: &mut BitWriter<B>, k: &QueueKind) {
    match k {
        QueueKind::Fifo { cap_bytes } => {
            w.put_constrained(0, 0, 1);
            w.put_uint(*cap_bytes as u64);
        }
        QueueKind::Codel { target_us, interval_us } => {
            w.put_constrained(1, 0, 1);
            w.put_uint(*target_us as u64);
            w.put_uint(*interval_us as u64);
        }
    }
}

fn get_kind(r: &mut BitReader) -> Result<QueueKind> {
    match r.get_constrained(0, 1)? {
        0 => Ok(QueueKind::Fifo { cap_bytes: r.get_uint()? as u32 }),
        1 => Ok(QueueKind::Codel {
            target_us: r.get_uint()? as u32,
            interval_us: r.get_uint()? as u32,
        }),
        v => Err(CodecError::BadDiscriminant { what: "queue kind", value: v }),
    }
}

fn put_opt_uint<B: ByteSink>(w: &mut BitWriter<B>, v: Option<u64>) {
    w.put_bit(v.is_some());
    if let Some(v) = v {
        w.put_uint(v);
    }
}

fn get_opt_uint(r: &mut BitReader) -> Result<Option<u64>> {
    if r.get_bit()? {
        Ok(Some(r.get_uint()?))
    } else {
        Ok(None)
    }
}

fn put_rule<B: ByteSink>(w: &mut BitWriter<B>, rule: &FiveTupleRule) {
    w.put_uint(rule.id as u64);
    put_opt_uint(w, rule.src_ip.map(u64::from));
    put_opt_uint(w, rule.dst_ip.map(u64::from));
    put_opt_uint(w, rule.src_port.map(u64::from));
    put_opt_uint(w, rule.dst_port.map(u64::from));
    put_opt_uint(w, rule.proto.map(u64::from));
}

fn get_rule(r: &mut BitReader) -> Result<FiveTupleRule> {
    Ok(FiveTupleRule {
        id: r.get_uint()? as u32,
        src_ip: get_opt_uint(r)?.map(|v| v as u32),
        dst_ip: get_opt_uint(r)?.map(|v| v as u32),
        src_port: get_opt_uint(r)?.map(|v| v as u16),
        dst_port: get_opt_uint(r)?.map(|v| v as u16),
        proto: get_opt_uint(r)?.map(|v| v as u8),
    })
}

fn put_pacer<B: ByteSink>(w: &mut BitWriter<B>, p: &PacerConf) {
    match p {
        PacerConf::None => w.put_constrained(0, 0, 1),
        PacerConf::Bdp { target_delay_us } => {
            w.put_constrained(1, 0, 1);
            w.put_uint(*target_delay_us as u64);
        }
    }
}

fn get_pacer(r: &mut BitReader) -> Result<PacerConf> {
    match r.get_constrained(0, 1)? {
        0 => Ok(PacerConf::None),
        1 => Ok(PacerConf::Bdp { target_delay_us: r.get_uint()? as u32 }),
        v => Err(CodecError::BadDiscriminant { what: "pacer", value: v }),
    }
}

// ---------------------------------------------------------------------------
// FB helpers
// ---------------------------------------------------------------------------

fn enc_rule_fb<B: ByteSink>(b: &mut FbBuilder<B>, rule: &FiveTupleRule) -> u32 {
    let mut t = TableBuilder::new();
    t.u32(0, rule.id);
    if let Some(v) = rule.src_ip {
        t.u32(1, v);
    }
    if let Some(v) = rule.dst_ip {
        t.u32(2, v);
    }
    if let Some(v) = rule.src_port {
        t.u16(3, v);
    }
    if let Some(v) = rule.dst_port {
        t.u16(4, v);
    }
    if let Some(v) = rule.proto {
        t.u8(5, v);
    }
    t.end(b)
}

fn dec_rule_fb(t: &FbTable) -> Result<FiveTupleRule> {
    Ok(FiveTupleRule {
        id: t.req_u32(0, "rule id")?,
        src_ip: t.u32(1)?,
        dst_ip: t.u32(2)?,
        src_port: t.u16(3)?,
        dst_port: t.u16(4)?,
        proto: t.u8(5)?,
    })
}

impl SmPayload for TcCtrl {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        match self {
            TcCtrl::AddQueue { id, kind } => {
                w.put_constrained(0, 0, 5);
                w.put_uint(*id as u64);
                put_kind(w, kind);
            }
            TcCtrl::DelQueue { id } => {
                w.put_constrained(1, 0, 5);
                w.put_uint(*id as u64);
            }
            TcCtrl::AddRule { rule, queue, precedence } => {
                w.put_constrained(2, 0, 5);
                put_rule(w, rule);
                w.put_uint(*queue as u64);
                w.put_uint(*precedence as u64);
            }
            TcCtrl::DelRule { rule_id } => {
                w.put_constrained(3, 0, 5);
                w.put_uint(*rule_id as u64);
            }
            TcCtrl::SetSched { algo, weights } => {
                w.put_constrained(4, 0, 5);
                w.put_constrained(*algo as u64, 0, 2);
                w.put_length(weights.len());
                for wt in weights {
                    w.put_uint(*wt as u64);
                }
            }
            TcCtrl::SetPacer { pacer } => {
                w.put_constrained(5, 0, 5);
                put_pacer(w, pacer);
            }
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        match r.get_constrained(0, 5)? {
            0 => Ok(TcCtrl::AddQueue { id: r.get_uint()? as u32, kind: get_kind(r)? }),
            1 => Ok(TcCtrl::DelQueue { id: r.get_uint()? as u32 }),
            2 => Ok(TcCtrl::AddRule {
                rule: get_rule(r)?,
                queue: r.get_uint()? as u32,
                precedence: r.get_uint()? as u32,
            }),
            3 => Ok(TcCtrl::DelRule { rule_id: r.get_uint()? as u32 }),
            4 => {
                let a = r.get_constrained(0, 2)? as u8;
                let algo = TcSchedAlgo::from_u8(a)
                    .ok_or(CodecError::BadDiscriminant { what: "tc sched", value: a as u64 })?;
                let n = r.get_length()?;
                if n > 4096 {
                    return Err(CodecError::Malformed { what: "too many weights" });
                }
                let mut weights = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    weights.push(r.get_uint()? as u32);
                }
                Ok(TcCtrl::SetSched { algo, weights })
            }
            5 => Ok(TcCtrl::SetPacer { pacer: get_pacer(r)? }),
            v => Err(CodecError::BadDiscriminant { what: "tc ctrl", value: v }),
        }
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        match self {
            TcCtrl::AddQueue { id, kind } => {
                let mut t = TableBuilder::new();
                t.u8(0, 0).u32(1, *id);
                match kind {
                    QueueKind::Fifo { cap_bytes } => {
                        t.u8(2, 0).u32(3, *cap_bytes);
                    }
                    QueueKind::Codel { target_us, interval_us } => {
                        t.u8(2, 1).u32(3, *target_us).u32(4, *interval_us);
                    }
                }
                t.end(b)
            }
            TcCtrl::DelQueue { id } => {
                let mut t = TableBuilder::new();
                t.u8(0, 1).u32(1, *id);
                t.end(b)
            }
            TcCtrl::AddRule { rule, queue, precedence } => {
                let rule = enc_rule_fb(b, rule);
                let mut t = TableBuilder::new();
                t.u8(0, 2).off(5, rule).u32(1, *queue).u32(3, *precedence);
                t.end(b)
            }
            TcCtrl::DelRule { rule_id } => {
                let mut t = TableBuilder::new();
                t.u8(0, 3).u32(1, *rule_id);
                t.end(b)
            }
            TcCtrl::SetSched { algo, weights } => {
                let wv = b.vec_u32(weights);
                let mut t = TableBuilder::new();
                t.u8(0, 4).u8(2, *algo as u8).off(5, wv);
                t.end(b)
            }
            TcCtrl::SetPacer { pacer } => {
                let mut t = TableBuilder::new();
                t.u8(0, 5);
                match pacer {
                    PacerConf::None => t.u8(2, 0),
                    PacerConf::Bdp { target_delay_us } => t.u8(2, 1).u32(3, *target_delay_us),
                };
                t.end(b)
            }
        }
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        match t.req_u8(0, "tc ctrl kind")? {
            0 => {
                let id = t.req_u32(1, "queue id")?;
                let kind = match t.req_u8(2, "queue kind")? {
                    0 => QueueKind::Fifo { cap_bytes: t.req_u32(3, "cap")? },
                    1 => QueueKind::Codel {
                        target_us: t.req_u32(3, "target")?,
                        interval_us: t.req_u32(4, "interval")?,
                    },
                    v => {
                        return Err(CodecError::BadDiscriminant {
                            what: "queue kind",
                            value: v as u64,
                        })
                    }
                };
                Ok(TcCtrl::AddQueue { id, kind })
            }
            1 => Ok(TcCtrl::DelQueue { id: t.req_u32(1, "queue id")? }),
            2 => Ok(TcCtrl::AddRule {
                rule: dec_rule_fb(&t.req_table(5, "rule")?)?,
                queue: t.req_u32(1, "queue")?,
                precedence: t.req_u32(3, "precedence")?,
            }),
            3 => Ok(TcCtrl::DelRule { rule_id: t.req_u32(1, "rule id")? }),
            4 => {
                let a = t.req_u8(2, "tc sched")?;
                let v = t.vector_or_empty(5)?;
                let mut weights = Vec::with_capacity(v.len());
                for i in 0..v.len() {
                    weights.push(v.u32_at(i)?);
                }
                Ok(TcCtrl::SetSched {
                    algo: TcSchedAlgo::from_u8(a)
                        .ok_or(CodecError::BadDiscriminant { what: "tc sched", value: a as u64 })?,
                    weights,
                })
            }
            5 => {
                let pacer = match t.req_u8(2, "pacer kind")? {
                    0 => PacerConf::None,
                    1 => PacerConf::Bdp { target_delay_us: t.req_u32(3, "target delay")? },
                    v => {
                        return Err(CodecError::BadDiscriminant { what: "pacer", value: v as u64 })
                    }
                };
                Ok(TcCtrl::SetPacer { pacer })
            }
            v => Err(CodecError::BadDiscriminant { what: "tc ctrl", value: v as u64 }),
        }
    }
}

impl SmPayload for TcStatsInd {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_bits(self.rnti as u64, 16);
        w.put_bits(self.drb_id as u64, 8);
        w.put_length(self.queues.len());
        for q in &self.queues {
            q.put_per(w);
        }
        w.put_uint(self.pacer_rate_kbps);
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let rnti = r.get_bits(16)? as u16;
        let drb_id = r.get_bits(8)? as u8;
        let n = r.get_length()?;
        if n > 4096 {
            return Err(CodecError::Malformed { what: "too many queues" });
        }
        let mut queues = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            queues.push(TcQueueStats::get_per(r)?);
        }
        let pacer_rate_kbps = r.get_uint()?;
        Ok(TcStatsInd { tstamp_ms, rnti, drb_id, queues, pacer_rate_kbps })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let queues = b.vec_of_tables(
            TcQueueStats::FB_SIZE,
            TcQueueStats::FB_VTABLE,
            &self.queues,
            TcQueueStats::fill_fb,
        );
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms)
            .u16(1, self.rnti)
            .u8(2, self.drb_id)
            .off(3, queues)
            .u64(4, self.pacer_rate_kbps);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(3)?;
        let mut queues = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            queues.push(TcQueueStats::get_fb(&v.table_at(i)?)?);
        }
        Ok(TcStatsInd {
            tstamp_ms: t.req_u64(0, "tstamp")?,
            rnti: t.req_u16(1, "rnti")?,
            drb_id: t.req_u8(2, "drb")?,
            queues,
            pacer_rate_kbps: t.req_u64(4, "pacer rate")?,
        })
    }
}

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
