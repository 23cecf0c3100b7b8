//! Hello-world service model: the ping SM of the paper's RTT experiments.
//!
//! The paper modifies O-RAN's "Hello World" SM "to perform a ping by
//! sending a control message to the RAN function, to which the agent
//! responds with an indication message" (§5.2), and translates the SM 1:1
//! from ASN.1 to FB to study the E2SM-encoding impact.  [`HwPing`] is that
//! message in both directions.

use bytes::Bytes;
use flexric_codec::wire_table;

/// A ping (control message) or pong (indication message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwPing {
    /// Sequence number, echoed in the reply.
    pub seq: u32,
    /// Sender timestamp in nanoseconds (opaque to the peer, echoed back).
    pub tstamp_ns: u64,
    /// Padding payload, sized by the experiment (100 B / 1500 B in Fig. 7).
    pub payload: Bytes,
}

impl HwPing {
    /// Creates a ping with a zero-filled payload of `size` bytes.
    pub fn sized(seq: u32, tstamp_ns: u64, size: usize) -> Self {
        HwPing { seq, tstamp_ns, payload: Bytes::from(vec![0u8; size]) }
    }
}

wire_table!(HwPing { seq: u32 => 0, tstamp_ns: u64 => 1, payload: Bytes => 2 });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use crate::{SmCodec, SmPayload};

    #[test]
    fn roundtrip() {
        roundtrip_both(&HwPing::sized(1, 123_456_789, 100));
        roundtrip_both(&HwPing::sized(u32::MAX, u64::MAX, 1500));
        roundtrip_both(&HwPing { seq: 0, tstamp_ns: 0, payload: Bytes::new() });
        garbage_rejected::<HwPing>();
    }

    #[test]
    fn fb_overhead_in_paper_band() {
        // Paper §5.2: "for each FB message, we observe 30-40 B overhead".
        let ping = HwPing::sized(7, 42, 100);
        let fb = ping.encode(SmCodec::Flatb);
        let overhead = fb.len() as i64 - 100;
        assert!((20..=60).contains(&overhead), "fb overhead {overhead}");
        let per = ping.encode(SmCodec::Asn1Per);
        assert!(per.len() < fb.len());
    }
}
