//! RLC statistics service model.
//!
//! Exposes per-bearer RLC buffer state — most importantly the *sojourn
//! time* packets spend in the DRB buffer, the quantity the traffic-control
//! xApp of §6.1.1 watches to detect bufferbloat (Fig. 11).

crate::sm_rows! {
    /// Per-(UE, DRB) RLC statistics.
    pub struct RlcBearerStats {
        key {
            /// Owning UE.
            rnti: u16 = bits(16),
            /// Data radio bearer id (1–32).
            drb_id: u8 = bits(8),
        }
        /// PDUs transmitted in the reporting period.
        tx_pdus: u64 = uint,
        /// Bytes transmitted in the reporting period.
        tx_bytes: u64 = uint,
        /// Retransmitted PDUs.
        retx_pdus: u64 = uint,
        /// PDUs dropped (buffer overflow).
        dropped_pdus: u64 = uint,
        /// Current buffer occupancy in bytes.
        buffer_bytes: u64 = uint,
        /// Current buffer occupancy in packets.
        buffer_pkts: u32 = uint,
        /// Average sojourn time of packets leaving the buffer, microseconds.
        sojourn_us_avg: u64 = uint,
        /// Maximum sojourn time observed in the period, microseconds.
        sojourn_us_max: u64 = uint,
    }
}

crate::sm_snapshot! {
    /// An RLC statistics indication.
    pub struct RlcStatsInd: "rlc" {
        /// Snapshot time in milliseconds since cell start.
        tstamp_ms: u64;
        /// Per-bearer statistics.
        bearers: Vec<RlcBearerStats>,
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
