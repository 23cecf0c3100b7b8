//! PDCP statistics service model.
//!
//! Per-bearer PDCP packet/byte counters, completing the "MAC, RLC, and
//! PDCP" statistics bundle the paper exports at 1 ms in §5.1.

crate::sm_rows! {
    /// Per-(UE, DRB) PDCP statistics.
    pub struct PdcpBearerStats {
        key {
            /// Owning UE.
            rnti: u16 = bits(16),
            /// Data radio bearer id.
            drb_id: u8 = bits(8),
        }
        /// PDUs sent downlink in the reporting period.
        tx_pdus: u64 = uint,
        /// Bytes sent downlink in the reporting period.
        tx_bytes: u64 = uint,
        /// PDUs received uplink.
        rx_pdus: u64 = uint,
        /// Bytes received uplink.
        rx_bytes: u64 = uint,
        /// Cumulative downlink SDU bytes since attach.
        tx_aggr_bytes: u64 = uint,
        /// Cumulative uplink SDU bytes since attach.
        rx_aggr_bytes: u64 = uint,
        /// Out-of-window discards.
        rx_discards: u64 = uint,
    }
}

crate::sm_snapshot! {
    /// A PDCP statistics indication.
    pub struct PdcpStatsInd: "pdcp" {
        /// Snapshot time in milliseconds since cell start.
        tstamp_ms: u64;
        /// Per-bearer statistics.
        bearers: Vec<PdcpBearerStats>,
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
