//! KPM service model — the paper's Appendix A.4 notes that E2SM-KPM
//! ("Performance metrics […] defines various report types on periodic
//! timer expires") is one of the two O-RAN-standardized service models.
//! This module implements a simplified KPM v2: a controller subscribes
//! with an action definition naming 3GPP-style measurements and a
//! granularity period; the RAN function answers with measurement reports.

use flexric_codec::schema::Ahead;
use flexric_codec::wire_table;

use crate::delta::{hash_str, DeltaRows};

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

wire_table!(KpmActionDef {
    granularity_ms: u32 => 0,
    measurements: Vec<String> => 1,
    ue_filter: Option<u16> = bits(16) => 2,
});

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

// The bytes every peer knows have a record's value ahead of its UE label.
wire_table!(KpmRecord [0 2 1] {
    name: String => 0,
    rnti: Option<u16> = bits(16) => 1,
    value: u64 => 2,
});
wire_table!(KpmReport {
    tstamp_ms: u64 => 0,
    granularity_ms: u32 => 1,
    records: Ahead<KpmRecord> => 2,
});

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
        use crate::{SmCodec, SmPayload};
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
