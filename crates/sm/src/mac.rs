//! MAC statistics service model.
//!
//! Exposes per-UE MAC-layer counters (CQI, MCS, allocated PRBs, transport
//! block bytes, …).  This is the SM used by the monitoring workloads of the
//! paper's Figs. 6, 8 and 9b ("statistics for MAC excluding HARQ"), exported
//! for 32 UEs per agent every millisecond in the scaling experiments.
//!
//! Each UE entry carries its PLMN so the recursive virtualization
//! controller (§6.2) can partition the statistics between tenants.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::delta::DeltaRows;
use crate::SmPayload;

/// Per-UE MAC statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacUeStats {
    /// Radio network temporary identifier of the UE.
    pub rnti: u16,
    /// Last reported wideband CQI (0–15).
    pub cqi: u8,
    /// Modulation-and-coding scheme in use (0–28).
    pub mcs: u8,
    /// Downlink PRBs allocated in the reporting period.
    pub prbs_dl: u32,
    /// Uplink PRBs allocated in the reporting period.
    pub prbs_ul: u32,
    /// Downlink transport-block bytes in the reporting period.
    pub tbs_dl_bytes: u64,
    /// Uplink transport-block bytes in the reporting period.
    pub tbs_ul_bytes: u64,
    /// Cumulative downlink MAC bytes since attach.
    pub dl_aggr_bytes: u64,
    /// Cumulative uplink MAC bytes since attach.
    pub ul_aggr_bytes: u64,
    /// Buffer status report (pending UL bytes).
    pub bsr: u32,
    /// Downlink MAC SDU backlog at the scheduler (bytes).
    pub dl_backlog_bytes: u64,
    /// Slice the UE is currently served by.
    pub slice_id: u32,
    /// Serving PLMN MCC (for multi-tenant partitioning).
    pub plmn_mcc: u16,
    /// Serving PLMN MNC.
    pub plmn_mnc: u16,
}

/// A MAC statistics indication: a cell-level snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MacStatsInd {
    /// Snapshot time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// Cell-wide PRB capacity per slot.
    pub cell_prbs: u32,
    /// Per-UE statistics.
    pub ues: Vec<MacUeStats>,
}

fn put_ue<B: ByteSink>(w: &mut BitWriter<B>, u: &MacUeStats) {
    w.put_bits(u.rnti as u64, 16);
    w.put_constrained(u.cqi as u64, 0, 15);
    w.put_constrained(u.mcs as u64, 0, 31);
    w.put_uint(u.prbs_dl as u64);
    w.put_uint(u.prbs_ul as u64);
    w.put_uint(u.tbs_dl_bytes);
    w.put_uint(u.tbs_ul_bytes);
    w.put_uint(u.dl_aggr_bytes);
    w.put_uint(u.ul_aggr_bytes);
    w.put_uint(u.bsr as u64);
    w.put_uint(u.dl_backlog_bytes);
    w.put_uint(u.slice_id as u64);
    w.put_constrained(u.plmn_mcc as u64, 0, 999);
    w.put_constrained(u.plmn_mnc as u64, 0, 999);
}

fn get_ue(r: &mut BitReader) -> Result<MacUeStats> {
    Ok(MacUeStats {
        rnti: r.get_bits(16)? as u16,
        cqi: r.get_constrained(0, 15)? as u8,
        mcs: r.get_constrained(0, 31)? as u8,
        prbs_dl: r.get_uint()? as u32,
        prbs_ul: r.get_uint()? as u32,
        tbs_dl_bytes: r.get_uint()?,
        tbs_ul_bytes: r.get_uint()?,
        dl_aggr_bytes: r.get_uint()?,
        ul_aggr_bytes: r.get_uint()?,
        bsr: r.get_uint()? as u32,
        dl_backlog_bytes: r.get_uint()?,
        slice_id: r.get_uint()? as u32,
        plmn_mcc: r.get_constrained(0, 999)? as u16,
        plmn_mnc: r.get_constrained(0, 999)? as u16,
    })
}

fn enc_ue_fb<B: ByteSink>(b: &mut FbBuilder<B>, u: &MacUeStats) -> u32 {
    let mut t = TableBuilder::new();
    t.u16(0, u.rnti)
        .u8(1, u.cqi)
        .u8(2, u.mcs)
        .u32(3, u.prbs_dl)
        .u32(4, u.prbs_ul)
        .u64(5, u.tbs_dl_bytes)
        .u64(6, u.tbs_ul_bytes)
        .u64(7, u.dl_aggr_bytes)
        .u64(8, u.ul_aggr_bytes)
        .u32(9, u.bsr)
        .u64(10, u.dl_backlog_bytes)
        .u32(11, u.slice_id)
        .u16(12, u.plmn_mcc)
        .u16(13, u.plmn_mnc);
    t.end(b)
}

fn dec_ue_fb(t: &FbTable) -> Result<MacUeStats> {
    Ok(MacUeStats {
        rnti: t.req_u16(0, "rnti")?,
        cqi: t.req_u8(1, "cqi")?,
        mcs: t.req_u8(2, "mcs")?,
        prbs_dl: t.req_u32(3, "prbs dl")?,
        prbs_ul: t.req_u32(4, "prbs ul")?,
        tbs_dl_bytes: t.req_u64(5, "tbs dl")?,
        tbs_ul_bytes: t.req_u64(6, "tbs ul")?,
        dl_aggr_bytes: t.req_u64(7, "dl aggr")?,
        ul_aggr_bytes: t.req_u64(8, "ul aggr")?,
        bsr: t.req_u32(9, "bsr")?,
        dl_backlog_bytes: t.req_u64(10, "backlog")?,
        slice_id: t.req_u32(11, "slice")?,
        plmn_mcc: t.req_u16(12, "mcc")?,
        plmn_mnc: t.req_u16(13, "mnc")?,
    })
}

impl SmPayload for MacStatsInd {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_uint(self.cell_prbs as u64);
        w.put_length(self.ues.len());
        for u in &self.ues {
            put_ue(w, u);
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let cell_prbs = r.get_uint()? as u32;
        let n = r.get_length()?;
        if n > 65536 {
            return Err(CodecError::Malformed { what: "too many UEs" });
        }
        let mut ues = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ues.push(get_ue(r)?);
        }
        Ok(MacStatsInd { tstamp_ms, cell_prbs, ues })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let ues = b.vec_off_with(&self.ues, enc_ue_fb);
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms).u32(1, self.cell_prbs).off(2, ues);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(2)?;
        let mut ues = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            ues.push(dec_ue_fb(&v.table_at(i)?)?);
        }
        Ok(MacStatsInd {
            tstamp_ms: t.req_u64(0, "tstamp")?,
            cell_prbs: t.req_u32(1, "cell prbs")?,
            ues,
        })
    }
}

impl DeltaRows for MacStatsInd {
    type Row = MacUeStats;
    const FIELD_COUNT: u32 = 13;
    const NAME: &'static str = "mac";

    fn tstamp_ms(&self) -> u64 {
        self.tstamp_ms
    }
    fn set_tstamp_ms(&mut self, t: u64) {
        self.tstamp_ms = t;
    }
    fn aux(&self) -> u64 {
        self.cell_prbs as u64
    }
    fn set_aux(&mut self, v: u64) {
        self.cell_prbs = v as u32;
    }
    fn rows(&self) -> &[MacUeStats] {
        &self.ues
    }
    fn rows_mut(&mut self) -> &mut Vec<MacUeStats> {
        &mut self.ues
    }
    fn row_key(row: &MacUeStats) -> u32 {
        row.rnti as u32
    }
    fn field(row: &MacUeStats, i: u32) -> u64 {
        match i {
            0 => row.cqi as u64,
            1 => row.mcs as u64,
            2 => row.prbs_dl as u64,
            3 => row.prbs_ul as u64,
            4 => row.tbs_dl_bytes,
            5 => row.tbs_ul_bytes,
            6 => row.dl_aggr_bytes,
            7 => row.ul_aggr_bytes,
            8 => row.bsr as u64,
            9 => row.dl_backlog_bytes,
            10 => row.slice_id as u64,
            11 => row.plmn_mcc as u64,
            _ => row.plmn_mnc as u64,
        }
    }
    fn set_field(row: &mut MacUeStats, i: u32, v: u64) {
        match i {
            0 => row.cqi = v as u8,
            1 => row.mcs = v as u8,
            2 => row.prbs_dl = v as u32,
            3 => row.prbs_ul = v as u32,
            4 => row.tbs_dl_bytes = v,
            5 => row.tbs_ul_bytes = v,
            6 => row.dl_aggr_bytes = v,
            7 => row.ul_aggr_bytes = v,
            8 => row.bsr = v as u32,
            9 => row.dl_backlog_bytes = v,
            10 => row.slice_id = v as u32,
            11 => row.plmn_mcc = v as u16,
            _ => row.plmn_mnc = v as u16,
        }
    }
    fn new_row(key: u32) -> MacUeStats {
        MacUeStats { rnti: key as u16, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use crate::SmCodec;

    pub(crate) fn sample(ue_count: usize) -> MacStatsInd {
        MacStatsInd {
            tstamp_ms: 123_456,
            cell_prbs: 106,
            ues: (0..ue_count)
                .map(|i| MacUeStats {
                    rnti: 0x4601 + i as u16,
                    cqi: 15,
                    mcs: 20,
                    prbs_dl: 50 + i as u32,
                    prbs_ul: 10,
                    tbs_dl_bytes: 61_600,
                    tbs_ul_bytes: 8_000,
                    dl_aggr_bytes: 1 << 33,
                    ul_aggr_bytes: 1 << 20,
                    bsr: 1200,
                    dl_backlog_bytes: 95_000,
                    slice_id: (i % 2) as u32,
                    plmn_mcc: 208,
                    plmn_mnc: 95,
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip() {
        roundtrip_both(&sample(0));
        roundtrip_both(&sample(1));
        roundtrip_both(&sample(32));
        garbage_rejected::<MacStatsInd>();
    }

    #[test]
    fn thirty_two_ue_snapshot_is_compact() {
        // The 1 ms monitoring hot path must not produce pathological sizes.
        let ind = sample(32);
        let per = ind.encode(SmCodec::Asn1Per);
        let fb = ind.encode(SmCodec::Flatb);
        assert!(per.len() < fb.len(), "per={} fb={}", per.len(), fb.len());
        assert!(per.len() < 4096, "per snapshot {} B", per.len());
        // 32 rows of 68 B and their 4 B offsets, one row vtable, the root.
        assert!(fb.len() <= 2400, "fb snapshot {} B", fb.len());
    }

    #[test]
    fn extreme_values_roundtrip() {
        let ind = MacStatsInd {
            tstamp_ms: u64::MAX,
            cell_prbs: u32::MAX,
            ues: vec![MacUeStats {
                rnti: u16::MAX,
                cqi: 15,
                mcs: 31,
                prbs_dl: u32::MAX,
                prbs_ul: u32::MAX,
                tbs_dl_bytes: u64::MAX,
                tbs_ul_bytes: u64::MAX,
                dl_aggr_bytes: u64::MAX,
                ul_aggr_bytes: u64::MAX,
                bsr: u32::MAX,
                dl_backlog_bytes: u64::MAX,
                slice_id: u32::MAX,
                plmn_mcc: 999,
                plmn_mnc: 999,
            }],
        };
        roundtrip_both(&ind);
    }
}
