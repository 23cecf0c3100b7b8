//! PDCP statistics service model.
//!
//! Per-bearer PDCP packet/byte counters, completing the "MAC, RLC, and
//! PDCP" statistics bundle the paper exports at 1 ms in §5.1.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::delta::DeltaRows;
use crate::SmPayload;

/// Per-(UE, DRB) PDCP statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PdcpBearerStats {
    /// Owning UE.
    pub rnti: u16,
    /// Data radio bearer id.
    pub drb_id: u8,
    /// PDUs sent downlink in the reporting period.
    pub tx_pdus: u64,
    /// Bytes sent downlink in the reporting period.
    pub tx_bytes: u64,
    /// PDUs received uplink.
    pub rx_pdus: u64,
    /// Bytes received uplink.
    pub rx_bytes: u64,
    /// Cumulative downlink SDU bytes since attach.
    pub tx_aggr_bytes: u64,
    /// Cumulative uplink SDU bytes since attach.
    pub rx_aggr_bytes: u64,
    /// Out-of-window discards.
    pub rx_discards: u64,
}

/// A PDCP statistics indication.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PdcpStatsInd {
    /// Snapshot time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// Per-bearer statistics.
    pub bearers: Vec<PdcpBearerStats>,
}

fn put_bearer<B: ByteSink>(w: &mut BitWriter<B>, s: &PdcpBearerStats) {
    w.put_bits(s.rnti as u64, 16);
    w.put_bits(s.drb_id as u64, 8);
    w.put_uint(s.tx_pdus);
    w.put_uint(s.tx_bytes);
    w.put_uint(s.rx_pdus);
    w.put_uint(s.rx_bytes);
    w.put_uint(s.tx_aggr_bytes);
    w.put_uint(s.rx_aggr_bytes);
    w.put_uint(s.rx_discards);
}

fn get_bearer(r: &mut BitReader) -> Result<PdcpBearerStats> {
    Ok(PdcpBearerStats {
        rnti: r.get_bits(16)? as u16,
        drb_id: r.get_bits(8)? as u8,
        tx_pdus: r.get_uint()?,
        tx_bytes: r.get_uint()?,
        rx_pdus: r.get_uint()?,
        rx_bytes: r.get_uint()?,
        tx_aggr_bytes: r.get_uint()?,
        rx_aggr_bytes: r.get_uint()?,
        rx_discards: r.get_uint()?,
    })
}

fn enc_bearer_fb<B: ByteSink>(b: &mut FbBuilder<B>, s: &PdcpBearerStats) -> u32 {
    let mut t = TableBuilder::new();
    t.u16(0, s.rnti)
        .u8(1, s.drb_id)
        .u64(2, s.tx_pdus)
        .u64(3, s.tx_bytes)
        .u64(4, s.rx_pdus)
        .u64(5, s.rx_bytes)
        .u64(6, s.tx_aggr_bytes)
        .u64(7, s.rx_aggr_bytes)
        .u64(8, s.rx_discards);
    t.end(b)
}

fn dec_bearer_fb(t: &FbTable) -> Result<PdcpBearerStats> {
    Ok(PdcpBearerStats {
        rnti: t.req_u16(0, "rnti")?,
        drb_id: t.req_u8(1, "drb")?,
        tx_pdus: t.req_u64(2, "tx pdus")?,
        tx_bytes: t.req_u64(3, "tx bytes")?,
        rx_pdus: t.req_u64(4, "rx pdus")?,
        rx_bytes: t.req_u64(5, "rx bytes")?,
        tx_aggr_bytes: t.req_u64(6, "tx aggr")?,
        rx_aggr_bytes: t.req_u64(7, "rx aggr")?,
        rx_discards: t.req_u64(8, "discards")?,
    })
}

impl SmPayload for PdcpStatsInd {
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
        Ok(PdcpStatsInd { tstamp_ms, bearers })
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
        Ok(PdcpStatsInd { tstamp_ms: t.req_u64(0, "tstamp")?, bearers })
    }
}

impl DeltaRows for PdcpStatsInd {
    type Row = PdcpBearerStats;
    const FIELD_COUNT: u32 = 7;
    const NAME: &'static str = "pdcp";

    fn tstamp_ms(&self) -> u64 {
        self.tstamp_ms
    }
    fn set_tstamp_ms(&mut self, t: u64) {
        self.tstamp_ms = t;
    }
    fn rows(&self) -> &[PdcpBearerStats] {
        &self.bearers
    }
    fn rows_mut(&mut self) -> &mut Vec<PdcpBearerStats> {
        &mut self.bearers
    }
    fn row_key(row: &PdcpBearerStats) -> u32 {
        row.rnti as u32 | ((row.drb_id as u32) << 16)
    }
    fn field(row: &PdcpBearerStats, i: u32) -> u64 {
        match i {
            0 => row.tx_pdus,
            1 => row.tx_bytes,
            2 => row.rx_pdus,
            3 => row.rx_bytes,
            4 => row.tx_aggr_bytes,
            5 => row.rx_aggr_bytes,
            _ => row.rx_discards,
        }
    }
    fn set_field(row: &mut PdcpBearerStats, i: u32, v: u64) {
        match i {
            0 => row.tx_pdus = v,
            1 => row.tx_bytes = v,
            2 => row.rx_pdus = v,
            3 => row.rx_bytes = v,
            4 => row.tx_aggr_bytes = v,
            5 => row.rx_aggr_bytes = v,
            _ => row.rx_discards = v,
        }
    }
    fn new_row(key: u32) -> PdcpBearerStats {
        PdcpBearerStats { rnti: key as u16, drb_id: (key >> 16) as u8, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn roundtrip() {
        roundtrip_both(&PdcpStatsInd::default());
        roundtrip_both(&PdcpStatsInd {
            tstamp_ms: 77,
            bearers: vec![
                PdcpBearerStats {
                    rnti: 0x4601,
                    drb_id: 1,
                    tx_pdus: 12,
                    tx_bytes: 18_000,
                    rx_pdus: 4,
                    rx_bytes: 400,
                    tx_aggr_bytes: 1 << 40,
                    rx_aggr_bytes: 1 << 22,
                    rx_discards: 2,
                },
                PdcpBearerStats { rnti: 0x4602, drb_id: 2, ..Default::default() },
            ],
        });
        garbage_rejected::<PdcpStatsInd>();
    }
}
