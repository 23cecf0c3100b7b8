//! KPM service model — the paper's Appendix A.4 notes that E2SM-KPM
//! ("Performance metrics […] defines various report types on periodic
//! timer expires") is one of the two O-RAN-standardized service models.
//! This module implements a simplified KPM v2: a controller subscribes
//! with an action definition naming 3GPP-style measurements and a
//! granularity period; the RAN function answers with measurement reports.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::delta::{hash_str, DeltaRows};
use crate::SmPayload;

/// Well-known measurement names (3GPP TS 28.552 style).
pub mod meas {
    /// Per-UE downlink throughput (kbit/s).
    pub const DRB_UE_THP_DL: &str = "DRB.UEThpDl";
    /// Total downlink PRB usage in the period.
    pub const RRU_PRB_TOT_DL: &str = "RRU.PrbTotDl";
    /// Downlink RLC SDU delay (µs).
    pub const DRB_RLC_SDU_DELAY_DL: &str = "DRB.RlcSduDelayDl";
    /// Downlink PDCP SDU volume (bytes).
    pub const DRB_PDCP_SDU_VOLUME_DL: &str = "DRB.PdcpSduVolumeDL";
    /// Mean number of RRC-connected UEs.
    pub const RRC_CONN_MEAN: &str = "RRC.ConnMean";
    /// Handovers executed at this cell in the period (in + out).
    pub const HO_EXE_TOTAL: &str = "HO.ExeTotal";
}

/// KPM action definition: which measurements to report, how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KpmActionDef {
    /// Granularity period in milliseconds.
    pub granularity_ms: u32,
    /// Measurement names to collect.
    pub measurements: Vec<String>,
    /// Restrict to one UE (`None` = cell-level + all UEs).
    pub ue_filter: Option<u16>,
}

impl KpmActionDef {
    /// A cell-level definition over the given measurements.
    pub fn cell(granularity_ms: u32, measurements: &[&str]) -> Self {
        KpmActionDef {
            granularity_ms,
            measurements: measurements.iter().map(|m| (*m).to_owned()).collect(),
            ue_filter: None,
        }
    }
}

impl SmPayload for KpmActionDef {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.granularity_ms as u64);
        w.put_length(self.measurements.len());
        for m in &self.measurements {
            w.put_utf8(m);
        }
        w.put_bit(self.ue_filter.is_some());
        if let Some(u) = self.ue_filter {
            w.put_bits(u as u64, 16);
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let granularity_ms = r.get_uint()? as u32;
        let n = r.get_length()?;
        if n > 1024 {
            return Err(CodecError::Malformed { what: "too many measurements" });
        }
        let mut measurements = Vec::with_capacity(n.min(32));
        for _ in 0..n {
            measurements.push(r.get_utf8()?);
        }
        let ue_filter = if r.get_bit()? { Some(r.get_bits(16)? as u16) } else { None };
        Ok(KpmActionDef { granularity_ms, measurements, ue_filter })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let v = b.vec_off_with(&self.measurements, |b, m| b.string(m));
        let mut t = TableBuilder::new();
        t.u32(0, self.granularity_ms).off(1, v);
        if let Some(u) = self.ue_filter {
            t.u16(2, u);
        }
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(1)?;
        let mut measurements = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            measurements.push(
                std::str::from_utf8(v.bytes_at(i)?).map_err(|_| CodecError::BadUtf8)?.to_owned(),
            );
        }
        Ok(KpmActionDef {
            granularity_ms: t.req_u32(0, "granularity")?,
            measurements,
            ue_filter: t.u16(2)?,
        })
    }
}

/// One measurement record: a named value, optionally labelled with a UE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KpmRecord {
    /// Measurement name.
    pub name: String,
    /// UE label (`None` = cell-level).
    pub rnti: Option<u16>,
    /// Integer value (unit depends on the measurement).
    pub value: u64,
}

/// A KPM measurement report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KpmReport {
    /// End of the granularity period, ms.
    pub tstamp_ms: u64,
    /// Granularity period, ms.
    pub granularity_ms: u32,
    /// The records.
    pub records: Vec<KpmRecord>,
}

impl SmPayload for KpmReport {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_uint(self.granularity_ms as u64);
        w.put_length(self.records.len());
        for rec in &self.records {
            w.put_utf8(&rec.name);
            w.put_bit(rec.rnti.is_some());
            if let Some(u) = rec.rnti {
                w.put_bits(u as u64, 16);
            }
            w.put_uint(rec.value);
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let granularity_ms = r.get_uint()? as u32;
        let n = r.get_length()?;
        if n > 65536 {
            return Err(CodecError::Malformed { what: "too many records" });
        }
        let mut records = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = r.get_utf8()?;
            let rnti = if r.get_bit()? { Some(r.get_bits(16)? as u16) } else { None };
            let value = r.get_uint()?;
            records.push(KpmRecord { name, rnti, value });
        }
        Ok(KpmReport { tstamp_ms, granularity_ms, records })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let v = b.vec_off_with(&self.records, |b, rec| {
            let name = b.string(&rec.name);
            let mut t = TableBuilder::new();
            t.off(0, name).u64(2, rec.value);
            if let Some(u) = rec.rnti {
                t.u16(1, u);
            }
            t.end(b)
        });
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms).u32(1, self.granularity_ms).off(2, v);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(2)?;
        let mut records = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            let rt = v.table_at(i)?;
            records.push(KpmRecord {
                name: rt
                    .string(0)?
                    .ok_or(CodecError::Malformed { what: "record name" })?
                    .to_owned(),
                rnti: rt.u16(1)?,
                value: rt.req_u64(2, "record value")?,
            });
        }
        Ok(KpmReport {
            tstamp_ms: t.req_u64(0, "tstamp")?,
            granularity_ms: t.req_u32(1, "granularity")?,
            records,
        })
    }
}

/// Delta streams diff KPM *values* only: record identity (name + UE
/// label) lives in [`DeltaRows::structure_sig`], so any change to the
/// measurement set — new UE, renamed measurement, reordering — forces a
/// keyframe rather than trying to carry a string through a delta frame.
/// `new_row` is therefore unreachable in a consistent stream (and an
/// inconsistent one fails the post-hash and resyncs).
impl DeltaRows for KpmReport {
    type Row = KpmRecord;
    const FIELD_COUNT: u32 = 1;
    const NAME: &'static str = "kpm";

    fn tstamp_ms(&self) -> u64 {
        self.tstamp_ms
    }
    fn set_tstamp_ms(&mut self, t: u64) {
        self.tstamp_ms = t;
    }
    fn aux(&self) -> u64 {
        self.granularity_ms as u64
    }
    fn set_aux(&mut self, v: u64) -> bool {
        u32::try_from(v).map(|v| self.granularity_ms = v).is_ok()
    }
    fn rows(&self) -> &[KpmRecord] {
        &self.records
    }
    fn rows_mut(&mut self) -> &mut Vec<KpmRecord> {
        &mut self.records
    }
    fn row_key(row: &KpmRecord) -> u32 {
        let h = hash_str(0xcbf2_9ce4_8422_2325, &row.name);
        let h = match row.rnti {
            Some(r) => h.wrapping_mul(31).wrapping_add(r as u64 + 1),
            None => h.wrapping_mul(31),
        };
        (h ^ (h >> 32)) as u32
    }
    fn field(row: &KpmRecord, _i: u32) -> u64 {
        row.value
    }
    fn set_field(row: &mut KpmRecord, _i: u32, v: u64) -> bool {
        row.value = v;
        true
    }
    fn each_field(row: &KpmRecord, mut f: impl FnMut(u32, u64)) {
        f(0, row.value);
    }
    fn new_row(_key: u32) -> KpmRecord {
        KpmRecord { name: String::new(), rnti: None, value: 0 }
    }
    fn structure_sig(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for rec in &self.records {
            h = hash_str(h, &rec.name);
            h = h.wrapping_mul(31).wrapping_add(rec.rnti.map_or(0, |r| r as u64 + 1));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn action_def_roundtrip() {
        roundtrip_both(&KpmActionDef::cell(1000, &[meas::DRB_UE_THP_DL, meas::RRU_PRB_TOT_DL]));
        roundtrip_both(&KpmActionDef {
            granularity_ms: 10,
            measurements: vec![],
            ue_filter: Some(0x4601),
        });
        garbage_rejected::<KpmActionDef>();
    }

    #[test]
    fn delta_stream_values_only_and_structure_change_rekeys() {
        use crate::delta::{DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut};
        use crate::SmCodec;
        let codec = SmCodec::Asn1Per;
        let mk = |t: u64, prb: u64, thp: u64| KpmReport {
            tstamp_ms: t,
            granularity_ms: 1_000,
            records: vec![
                KpmRecord { name: meas::RRU_PRB_TOT_DL.into(), rnti: None, value: prb },
                KpmRecord { name: meas::DRB_UE_THP_DL.into(), rnti: Some(0x4601), value: thp },
            ],
        };
        let mut enc = DeltaEncoder::new(100);
        let mut dec = DeltaDecoder::<KpmReport>::new();
        let s1 = mk(0, 100, 30_000);
        let s2 = mk(1000, 120, 31_000);
        let DeltaOut::Keyframe(f1) = enc.encode(&s1, codec) else { panic!() };
        let DeltaOut::Delta(f2) = enc.encode(&s2, codec) else { panic!("values-only delta") };
        dec.apply(&f1, codec).unwrap();
        match dec.apply(&f2, codec).unwrap() {
            DeltaEvent::Snapshot { snap, .. } => {
                assert_eq!(snap, s2);
                assert_eq!(snap.encode(codec), s2.encode(codec));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A new record (new UE) changes the structure signature: keyframe.
        let mut s3 = mk(2000, 120, 31_000);
        s3.records.push(KpmRecord {
            name: meas::DRB_UE_THP_DL.into(),
            rnti: Some(0x4602),
            value: 5_000,
        });
        assert!(matches!(enc.encode(&s3, codec), DeltaOut::Keyframe(_)));
    }

    #[test]
    fn report_roundtrip() {
        roundtrip_both(&KpmReport::default());
        roundtrip_both(&KpmReport {
            tstamp_ms: 5_000,
            granularity_ms: 1_000,
            records: vec![
                KpmRecord { name: meas::RRU_PRB_TOT_DL.into(), rnti: None, value: 106_000 },
                KpmRecord { name: meas::DRB_UE_THP_DL.into(), rnti: Some(0x4601), value: 30_000 },
                KpmRecord { name: meas::RRC_CONN_MEAN.into(), rnti: None, value: 3 },
            ],
        });
        garbage_rejected::<KpmReport>();
    }
}
