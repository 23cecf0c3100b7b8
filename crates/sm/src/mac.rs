//! MAC statistics service model.
//!
//! Exposes per-UE MAC-layer counters (CQI, MCS, allocated PRBs, transport
//! block bytes, …).  This is the SM used by the monitoring workloads of the
//! paper's Figs. 6, 8 and 9b ("statistics for MAC excluding HARQ"), exported
//! for 32 UEs per agent every millisecond in the scaling experiments.
//!
//! Each UE entry carries its PLMN so the recursive virtualization
//! controller (§6.2) can partition the statistics between tenants.

crate::sm_rows! {
    /// Per-UE MAC statistics.
    pub struct MacUeStats {
        key {
            /// Radio network temporary identifier of the UE.
            rnti: u16 = bits(16),
        }
        /// Last reported wideband CQI (0–15).
        cqi: u8 = range(0, 15),
        /// Modulation-and-coding scheme in use (0–28).
        mcs: u8 = range(0, 31),
        /// Downlink PRBs allocated in the reporting period.
        prbs_dl: u32 = uint,
        /// Uplink PRBs allocated in the reporting period.
        prbs_ul: u32 = uint,
        /// Downlink transport-block bytes in the reporting period.
        tbs_dl_bytes: u64 = uint,
        /// Uplink transport-block bytes in the reporting period.
        tbs_ul_bytes: u64 = uint,
        /// Cumulative downlink MAC bytes since attach.
        dl_aggr_bytes: u64 = uint,
        /// Cumulative uplink MAC bytes since attach.
        ul_aggr_bytes: u64 = uint,
        /// Buffer status report (pending UL bytes).
        bsr: u32 = uint,
        /// Downlink MAC SDU backlog at the scheduler (bytes).
        dl_backlog_bytes: u64 = uint,
        /// Slice the UE is currently served by.
        slice_id: u32 = uint,
        /// Serving PLMN MCC (for multi-tenant partitioning).
        plmn_mcc: u16 = range(0, 999),
        /// Serving PLMN MNC.
        plmn_mnc: u16 = range(0, 999),
    }
}

crate::sm_snapshot! {
    /// A MAC statistics indication: a cell-level snapshot.
    pub struct MacStatsInd: "mac" {
        /// Snapshot time in milliseconds since cell start.
        tstamp_ms: u64,
        /// Cell-wide PRB capacity per slot.
        cell_prbs: u32;
        /// Per-UE statistics.
        ues: Vec<MacUeStats>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use crate::{SmCodec, SmPayload};

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
        // 32 rows of 68 B and their 4 B offsets; header (8), count (4), one
        // row vtable (30) and the root with its vtable (28) around them.
        use crate::schema::Row;
        assert_eq!(MacUeStats::FB_SIZE, 68);
        assert_eq!(fb.len(), 70 + 32 * (4 + MacUeStats::FB_SIZE));
        // The longest PER snapshot: every counter, the timestamp and the
        // aux scalar at their maxima.  A row is `PER_MAX` = 72 B from the
        // worst bit; in a snapshot each starts in the last byte of the row
        // before (the first, aligned, has that byte to itself) and all end
        // four bits into a byte: 71 B a row and one byte more, after the
        // 9 + 5 + 1 B of timestamp, aux scalar and count.
        let mut top = MacUeStats::with_key(u32::MAX);
        for (i, f) in (0..).zip(MacUeStats::FIELDS) {
            assert!(top.set_field(i, f.max));
        }
        let longest = MacStatsInd { tstamp_ms: u64::MAX, cell_prbs: u32::MAX, ues: vec![top; 32] };
        assert_eq!(MacUeStats::PER_MAX, 72);
        let per = longest.encode(SmCodec::Asn1Per);
        assert_eq!(per.len(), 15 + 32 * (MacUeStats::PER_MAX - 1) + 1);
        assert_eq!(per.len(), 2288, "the figure in SNAPSHOT_CAPACITY's doc");
    }
}
