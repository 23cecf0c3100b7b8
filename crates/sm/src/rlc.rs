//! RLC statistics service model.
//!
//! Exposes per-bearer RLC buffer state — most importantly the *sojourn
//! time* packets spend in the DRB buffer, the quantity the traffic-control
//! xApp of §6.1.1 watches to detect bufferbloat (Fig. 11).

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::delta::DeltaRows;
use crate::SmPayload;

/// Per-(UE, DRB) RLC statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RlcBearerStats {
    /// Owning UE.
    pub rnti: u16,
    /// Data radio bearer id (1–32).
    pub drb_id: u8,
    /// PDUs transmitted in the reporting period.
    pub tx_pdus: u64,
    /// Bytes transmitted in the reporting period.
    pub tx_bytes: u64,
    /// Retransmitted PDUs.
    pub retx_pdus: u64,
    /// PDUs dropped (buffer overflow).
    pub dropped_pdus: u64,
    /// Current buffer occupancy in bytes.
    pub buffer_bytes: u64,
    /// Current buffer occupancy in packets.
    pub buffer_pkts: u32,
    /// Average sojourn time of packets leaving the buffer, microseconds.
    pub sojourn_us_avg: u64,
    /// Maximum sojourn time observed in the period, microseconds.
    pub sojourn_us_max: u64,
}

/// An RLC statistics indication.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RlcStatsInd {
    /// Snapshot time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// Per-bearer statistics.
    pub bearers: Vec<RlcBearerStats>,
}

fn put_bearer<B: ByteSink>(w: &mut BitWriter<B>, s: &RlcBearerStats) {
    w.put_bits(s.rnti as u64, 16);
    w.put_bits(s.drb_id as u64, 8);
    w.put_uint(s.tx_pdus);
    w.put_uint(s.tx_bytes);
    w.put_uint(s.retx_pdus);
    w.put_uint(s.dropped_pdus);
    w.put_uint(s.buffer_bytes);
    w.put_uint(s.buffer_pkts as u64);
    w.put_uint(s.sojourn_us_avg);
    w.put_uint(s.sojourn_us_max);
}

fn get_bearer(r: &mut BitReader) -> Result<RlcBearerStats> {
    Ok(RlcBearerStats {
        rnti: r.get_bits(16)? as u16,
        drb_id: r.get_bits(8)? as u8,
        tx_pdus: r.get_uint()?,
        tx_bytes: r.get_uint()?,
        retx_pdus: r.get_uint()?,
        dropped_pdus: r.get_uint()?,
        buffer_bytes: r.get_uint()?,
        buffer_pkts: r.get_uint()? as u32,
        sojourn_us_avg: r.get_uint()?,
        sojourn_us_max: r.get_uint()?,
    })
}

fn enc_bearer_fb<B: ByteSink>(b: &mut FbBuilder<B>, s: &RlcBearerStats) -> u32 {
    let mut t = TableBuilder::new();
    t.u16(0, s.rnti)
        .u8(1, s.drb_id)
        .u64(2, s.tx_pdus)
        .u64(3, s.tx_bytes)
        .u64(4, s.retx_pdus)
        .u64(5, s.dropped_pdus)
        .u64(6, s.buffer_bytes)
        .u32(7, s.buffer_pkts)
        .u64(8, s.sojourn_us_avg)
        .u64(9, s.sojourn_us_max);
    t.end(b)
}

fn dec_bearer_fb(t: &FbTable) -> Result<RlcBearerStats> {
    Ok(RlcBearerStats {
        rnti: t.req_u16(0, "rnti")?,
        drb_id: t.req_u8(1, "drb")?,
        tx_pdus: t.req_u64(2, "tx pdus")?,
        tx_bytes: t.req_u64(3, "tx bytes")?,
        retx_pdus: t.req_u64(4, "retx")?,
        dropped_pdus: t.req_u64(5, "dropped")?,
        buffer_bytes: t.req_u64(6, "buffer bytes")?,
        buffer_pkts: t.req_u32(7, "buffer pkts")?,
        sojourn_us_avg: t.req_u64(8, "sojourn avg")?,
        sojourn_us_max: t.req_u64(9, "sojourn max")?,
    })
}

impl SmPayload for RlcStatsInd {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_length(self.bearers.len());
        for s in &self.bearers {
            put_bearer(w, s);
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let n = r.get_length()?;
        if n > 65536 {
            return Err(CodecError::Malformed { what: "too many bearers" });
        }
        let mut bearers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            bearers.push(get_bearer(r)?);
        }
        Ok(RlcStatsInd { tstamp_ms, bearers })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let bearers = b.vec_off_with(&self.bearers, enc_bearer_fb);
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms).off(1, bearers);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(1)?;
        let mut bearers = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            bearers.push(dec_bearer_fb(&v.table_at(i)?)?);
        }
        Ok(RlcStatsInd { tstamp_ms: t.req_u64(0, "tstamp")?, bearers })
    }
}

impl DeltaRows for RlcStatsInd {
    type Row = RlcBearerStats;
    const FIELD_COUNT: u32 = 8;
    const NAME: &'static str = "rlc";

    fn tstamp_ms(&self) -> u64 {
        self.tstamp_ms
    }
    fn set_tstamp_ms(&mut self, t: u64) {
        self.tstamp_ms = t;
    }
    fn rows(&self) -> &[RlcBearerStats] {
        &self.bearers
    }
    fn rows_mut(&mut self) -> &mut Vec<RlcBearerStats> {
        &mut self.bearers
    }
    fn row_key(row: &RlcBearerStats) -> u32 {
        row.rnti as u32 | ((row.drb_id as u32) << 16)
    }
    fn field(row: &RlcBearerStats, i: u32) -> u64 {
        match i {
            0 => row.tx_pdus,
            1 => row.tx_bytes,
            2 => row.retx_pdus,
            3 => row.dropped_pdus,
            4 => row.buffer_bytes,
            5 => row.buffer_pkts as u64,
            6 => row.sojourn_us_avg,
            _ => row.sojourn_us_max,
        }
    }
    fn set_field(row: &mut RlcBearerStats, i: u32, v: u64) {
        match i {
            0 => row.tx_pdus = v,
            1 => row.tx_bytes = v,
            2 => row.retx_pdus = v,
            3 => row.dropped_pdus = v,
            4 => row.buffer_bytes = v,
            5 => row.buffer_pkts = v as u32,
            6 => row.sojourn_us_avg = v,
            _ => row.sojourn_us_max = v,
        }
    }
    fn new_row(key: u32) -> RlcBearerStats {
        RlcBearerStats { rnti: key as u16, drb_id: (key >> 16) as u8, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    fn sample(n: usize) -> RlcStatsInd {
        RlcStatsInd {
            tstamp_ms: 5_000,
            bearers: (0..n)
                .map(|i| RlcBearerStats {
                    rnti: 0x4601 + i as u16,
                    drb_id: 1,
                    tx_pdus: 1000,
                    tx_bytes: 1_500_000,
                    retx_pdus: 3,
                    dropped_pdus: 0,
                    buffer_bytes: 250_000,
                    buffer_pkts: 170,
                    sojourn_us_avg: 180_000,
                    sojourn_us_max: 420_000,
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip() {
        roundtrip_both(&sample(0));
        roundtrip_both(&sample(4));
        roundtrip_both(&sample(64));
        garbage_rejected::<RlcStatsInd>();
    }
}
