//! Pluggable codecs for E2AP and E2SM payloads.
//!
//! The FlexRIC paper (§4.3) separates the E2 protocol into orthogonal
//! abstractions and keeps the encoding exchangeable behind an intermediate
//! representation.  This crate provides three from-scratch codecs:
//!
//! * [`per`] — an ASN.1-aligned-PER-style bit-packed codec (compact, but
//!   every access requires a full decode),
//! * [`fb`] — a FlatBuffers-style zero-copy codec (a few tens of bytes
//!   larger per message, but fields are readable straight from the wire
//!   bytes),
//! * [`pb`] — a Protobuf-style varint codec used by the FlexRAN baseline,
//!
//! and [`e2ap`], which declares every E2AP message once ([`schema`] is the
//! grammar) and derives its PER and its FB form from that declaration.
//!
//! [`E2apCodec`] is the configuration point: agents and controllers agree on
//! an E2AP encoding per connection, and service models independently choose
//! their own (the paper's E2AP×E2SM combinations of Fig. 7).

pub(crate) mod borrow;
pub mod e2ap;
pub mod error;
pub mod fb;
pub mod pb;
pub mod per;
pub mod schema;
pub mod sink;

/// The FB fast path, under the name its callers know it by.
pub mod e2ap_fb {
    pub use crate::e2ap::{indication_payload, indication_payload_borrowed};
}

pub use error::{CodecError, Result};
pub use sink::ByteSink;

use bytes::BytesMut;
use flexric_e2ap::{E2apPdu, PduHeader};

thread_local! {
    /// Per-thread count of E2AP encode invocations, used by tests to verify
    /// the encode-once fan-out invariant (thread-local so parallel test
    /// threads cannot perturb each other's deltas).
    static ENCODE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn note_encode() {
    ENCODE_CALLS.with(|c| c.set(c.get() + 1));
}

/// Number of E2AP encode invocations (`encode` or `encode_into`) performed
/// by the current thread since it started.  Take a delta around the code
/// under test to count how many encodes it performed.
pub fn encode_invocations() -> u64 {
    ENCODE_CALLS.with(|c| c.get())
}

/// Per-codec latency histograms (ns).  Registered all at once on first
/// touch so `/metrics` always lists the codec layer, even before traffic.
struct CodecMetrics {
    encode_ns: [flexric_obs::Histogram; 2],
    decode_ns: [flexric_obs::Histogram; 2],
    peek_ns: [flexric_obs::Histogram; 2],
    /// Payload copies made by `decode_borrowed` when a field falls outside
    /// the source buffer.  Shares the series name with the transport's
    /// `site="recv"` counter so one query covers the whole receive path.
    rx_copies_decode: flexric_obs::Counter,
}

fn obs() -> &'static CodecMetrics {
    static M: std::sync::OnceLock<CodecMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let per_codec = |name: &str, help: &'static str| {
            E2apCodec::ALL.map(|c| flexric_obs::histogram_with(name, &[("codec", c.label())], help))
        };
        CodecMetrics {
            encode_ns: per_codec(
                "flexric_codec_encode_ns",
                "E2AP encode latency; sampled: 1 call in 16 timed",
            ),
            decode_ns: per_codec(
                "flexric_codec_decode_ns",
                "E2AP full decode latency; sampled: 1 call in 16 timed",
            ),
            peek_ns: per_codec(
                "flexric_codec_peek_ns",
                "E2AP header peek latency; sampled: 1 call in 16 timed",
            ),
            rx_copies_decode: flexric_obs::counter_with(
                "flexric_transport_rx_copies_total",
                &[("site", "decode")],
                "per-frame payload copies on the receive path",
            ),
        }
    })
}

impl E2apCodec {
    #[inline]
    fn idx(&self) -> usize {
        match self {
            E2apCodec::Asn1Per => 0,
            E2apCodec::Flatb => 1,
        }
    }
}

/// Which encoding an E2AP connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum E2apCodec {
    /// ASN.1-aligned-PER style (the O-RAN default).
    #[default]
    Asn1Per,
    /// FlatBuffers style (the FlexRIC alternative).
    Flatb,
}

impl E2apCodec {
    /// All codecs, for sweeps.
    pub const ALL: [E2apCodec; 2] = [E2apCodec::Asn1Per, E2apCodec::Flatb];

    /// Short label used in benchmark output (matches the paper's figures).
    pub fn label(&self) -> &'static str {
        match self {
            E2apCodec::Asn1Per => "ASN",
            E2apCodec::Flatb => "FB",
        }
    }

    /// Encodes a PDU into a freshly allocated buffer.
    pub fn encode(&self, pdu: &E2apPdu) -> Vec<u8> {
        note_encode();
        let _t = obs().encode_ns[self.idx()].timer();
        match self {
            E2apCodec::Asn1Per => e2ap::encode_per(pdu, Vec::with_capacity(64)),
            E2apCodec::Flatb => e2ap::encode_fb(pdu, Vec::with_capacity(fb::FB_HEADER_LEN + 128)),
        }
    }

    /// Encodes a PDU into a caller-provided scratch buffer, appending after
    /// any existing content (e.g. a reserved frame header).
    ///
    /// This is the zero-allocation path: callers keep one `BytesMut` per
    /// connection (or per loop), call `encode_into`, then `split().freeze()`
    /// the message off.  Once the frozen `Bytes` handles drop, the buffer's
    /// capacity is reclaimed and steady-state encoding allocates nothing.
    /// The appended bytes are identical to what [`E2apCodec::encode`]
    /// returns — both run one encode body per codec, generic over the sink.
    pub fn encode_into(&self, pdu: &E2apPdu, buf: &mut BytesMut) {
        note_encode();
        let _t = obs().encode_ns[self.idx()].timer();
        *buf = match self {
            E2apCodec::Asn1Per => e2ap::encode_per(pdu, std::mem::take(buf)),
            E2apCodec::Flatb => e2ap::encode_fb(pdu, std::mem::take(buf)),
        };
    }

    /// Decodes a PDU into the owned IR.
    pub fn decode(&self, buf: &[u8]) -> Result<E2apPdu> {
        let _t = obs().decode_ns[self.idx()].timer();
        match self {
            E2apCodec::Asn1Per => e2ap::decode_per(per::BitReader::new(buf)),
            E2apCodec::Flatb => e2ap::decode_fb(buf, None),
        }
    }

    /// Decodes a PDU with its byte-valued fields (indication payloads,
    /// action definitions, call process ids …) borrowed from `buf`'s
    /// backing allocation as refcounted views — no per-field copy.
    ///
    /// This is the receive hot path: `buf` is the frame the transport
    /// sliced off its read slab, so the decoded PDU's payload fields keep
    /// pointing into that slab.  The decoded value is structurally
    /// identical to [`E2apCodec::decode`]'s (same `E2apPdu`, compares
    /// equal); only the provenance of the `Bytes` differs.  Fields the
    /// decoder cannot express as a contiguous sub-slice fall back to a
    /// copy, counted in `flexric_transport_rx_copies_total{site="decode"}`.
    pub fn decode_borrowed(&self, buf: &bytes::Bytes) -> Result<E2apPdu> {
        let _t = obs().decode_ns[self.idx()].timer();
        match self {
            E2apCodec::Asn1Per => e2ap::decode_per(per::BitReader::borrowing(buf)),
            E2apCodec::Flatb => e2ap::decode_fb(buf, Some(buf)),
        }
    }

    /// Extracts the routing header.
    ///
    /// For [`E2apCodec::Flatb`] this is O(1) over the raw bytes; for
    /// [`E2apCodec::Asn1Per`] it is a full decode — PER has no random
    /// access — and deliberately so: this asymmetry is what the paper's
    /// Fig. 8b measures.
    pub fn peek(&self, buf: &[u8]) -> Result<PduHeader> {
        let _t = obs().peek_ns[self.idx()].timer();
        match self {
            E2apCodec::Asn1Per => {
                e2ap::decode_per(per::BitReader::new(buf)).map(|pdu| pdu.header())
            }
            E2apCodec::Flatb => e2ap::peek_fb(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use flexric_e2ap::*;

    /// One instance of every message type, with all optionals populated.
    pub(crate) fn sample_pdus() -> Vec<E2apPdu> {
        let plmn = Plmn::new(208, 95, 2);
        let node = GlobalE2NodeId::new(plmn, E2NodeType::GnbDu, 0xBEEF);
        let cause = Cause::Ric(RicCause::ActionNotSupported);
        let fn_item = RanFunctionItem {
            id: RanFunctionId::new(142),
            definition: Bytes::from_static(b"\x01\x02def"),
            revision: 3,
            oid: "flexric.sm.mac_stats".into(),
            version: FnVersion::new(2, 1),
        };
        let comp = E2NodeComponentConfig {
            interface: InterfaceType::F1,
            component_id: "du0".into(),
            request_part: Bytes::from_static(b"req"),
            response_part: Bytes::from_static(b"resp"),
        };
        let tnl = TnlInfo { address: "10.0.0.1".into(), port: 36421, usage: TnlUsage::Both };
        let req_id = RicRequestId::new(17, 4);
        let rf = RanFunctionId::new(142);

        vec![
            E2apPdu::E2SetupRequest(E2SetupRequest {
                transaction_id: 9,
                global_node: node,
                ran_functions: vec![fn_item.clone(), fn_item.clone()],
                component_configs: vec![comp.clone()],
            }),
            E2apPdu::E2SetupResponse(E2SetupResponse {
                transaction_id: 9,
                global_ric: GlobalRicId::new(plmn, 0x1234),
                accepted: vec![rf],
                rejected: vec![(RanFunctionId::new(7), cause)],
            }),
            E2apPdu::E2SetupFailure(E2SetupFailure {
                transaction_id: 9,
                cause,
                time_to_wait_ms: Some(5000),
            }),
            E2apPdu::ResetRequest(ResetRequest { transaction_id: 2, cause }),
            E2apPdu::ResetResponse(ResetResponse { transaction_id: 2 }),
            E2apPdu::ErrorIndication(ErrorIndication {
                req_id: Some(req_id),
                ran_function: Some(rf),
                cause: Some(cause),
            }),
            E2apPdu::E2NodeConfigUpdate(E2NodeConfigUpdate {
                transaction_id: 3,
                additions: vec![comp.clone()],
                updates: vec![],
                removals: vec![(InterfaceType::E1, "cuup0".into())],
            }),
            E2apPdu::E2NodeConfigUpdateAck(E2NodeConfigUpdateAck {
                transaction_id: 3,
                accepted: vec![(InterfaceType::F1, "du0".into())],
                rejected: vec![(InterfaceType::E1, "cuup0".into(), cause)],
            }),
            E2apPdu::E2NodeConfigUpdateFailure(E2NodeConfigUpdateFailure {
                transaction_id: 3,
                cause,
                time_to_wait_ms: None,
            }),
            E2apPdu::E2ConnectionUpdate(E2ConnectionUpdate {
                transaction_id: 4,
                add: vec![tnl.clone()],
                remove: vec![],
                modify: vec![tnl.clone()],
            }),
            E2apPdu::E2ConnectionUpdateAck(E2ConnectionUpdateAck {
                transaction_id: 4,
                setup: vec![tnl.clone()],
                failed: vec![(tnl.clone(), cause)],
            }),
            E2apPdu::E2ConnectionUpdateFailure(E2ConnectionUpdateFailure {
                transaction_id: 4,
                cause,
                time_to_wait_ms: Some(100),
            }),
            E2apPdu::RicServiceUpdate(RicServiceUpdate {
                transaction_id: 5,
                added: vec![fn_item.clone()],
                modified: vec![],
                removed: vec![RanFunctionId::new(3)],
            }),
            E2apPdu::RicServiceUpdateAck(RicServiceUpdateAck {
                transaction_id: 5,
                accepted: vec![rf],
                rejected: vec![],
            }),
            E2apPdu::RicServiceUpdateFailure(RicServiceUpdateFailure {
                transaction_id: 5,
                cause,
                time_to_wait_ms: None,
            }),
            E2apPdu::RicServiceQuery(RicServiceQuery { transaction_id: 6, accepted: vec![rf] }),
            E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
                req_id,
                ran_function: rf,
                event_trigger: Bytes::from_static(b"\x00\x01trigger"),
                actions: vec![
                    RicActionToBeSetup {
                        id: RicActionId(1),
                        action_type: RicActionType::Report,
                        definition: Some(Bytes::from_static(b"adef")),
                        subsequent: None,
                    },
                    RicActionToBeSetup {
                        id: RicActionId(2),
                        action_type: RicActionType::Insert,
                        definition: None,
                        subsequent: Some(RicSubsequentAction {
                            kind: SubsequentActionType::Wait,
                            wait_ms: 50,
                        }),
                    },
                ],
            }),
            E2apPdu::RicSubscriptionResponse(RicSubscriptionResponse {
                req_id,
                ran_function: rf,
                admitted: vec![RicActionId(1)],
                not_admitted: vec![(RicActionId(2), cause)],
            }),
            E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                req_id,
                ran_function: rf,
                cause,
            }),
            E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
                req_id,
                ran_function: rf,
            }),
            E2apPdu::RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse {
                req_id,
                ran_function: rf,
            }),
            E2apPdu::RicSubscriptionDeleteFailure(RicSubscriptionDeleteFailure {
                req_id,
                ran_function: rf,
                cause,
            }),
            E2apPdu::RicIndication(RicIndication {
                req_id,
                ran_function: rf,
                action: RicActionId(1),
                sn: Some(4242),
                ind_type: RicIndicationType::Report,
                header: Bytes::from_static(b"ind-hdr"),
                message: Bytes::from_static(b"ind-msg-payload"),
                call_process_id: Some(Bytes::from_static(b"cp")),
            }),
            E2apPdu::RicControlRequest(RicControlRequest {
                req_id,
                ran_function: rf,
                call_process_id: None,
                header: Bytes::from_static(b"ctl-hdr"),
                message: Bytes::from_static(b"ctl-msg"),
                ack_request: Some(ControlAckRequest::Ack),
            }),
            E2apPdu::RicControlAcknowledge(RicControlAcknowledge {
                req_id,
                ran_function: rf,
                call_process_id: Some(Bytes::from_static(b"cp")),
                outcome: Some(Bytes::from_static(b"ok")),
            }),
            E2apPdu::RicControlFailure(RicControlFailure {
                req_id,
                ran_function: rf,
                call_process_id: None,
                cause,
                outcome: None,
            }),
        ]
    }

    #[test]
    fn roundtrip_every_message_both_codecs() {
        let pdus = sample_pdus();
        assert_eq!(pdus.len(), 26, "one sample per message type");
        for codec in E2apCodec::ALL {
            for pdu in &pdus {
                let buf = codec.encode(pdu);
                let back = codec.decode(&buf).unwrap_or_else(|e| {
                    panic!("{:?} decode of {:?} failed: {e}", codec, pdu.msg_type())
                });
                assert_eq!(&back, pdu, "{:?} roundtrip of {:?}", codec, pdu.msg_type());
            }
        }
    }

    /// `tests/fb_golden/e2ap.txt` holds the FB frame of every sample as the
    /// commit before `TableBuilder` staged bytes (PR 18, `153255d`) wrote
    /// it, one `MsgType hex` line each.
    #[test]
    fn fb_frames_of_the_parent_commit_are_kept() {
        let golden = include_str!("../tests/fb_golden/e2ap.txt");
        let hex = |buf: &[u8]| buf.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let ours: Vec<String> = sample_pdus()
            .iter()
            .map(|pdu| format!("{:?} {}", pdu.msg_type(), hex(&E2apCodec::Flatb.encode(pdu))))
            .collect();
        assert_eq!(ours, golden.lines().collect::<Vec<_>>());
    }

    /// `tests/per_golden/e2ap.txt` holds the PER frame of every sample as
    /// the commit before the bit writer's window (PR 19, `b989c00`) wrote
    /// it, one `MsgType hex` line each.
    #[test]
    fn per_frames_of_the_parent_commit_are_kept() {
        let golden = include_str!("../tests/per_golden/e2ap.txt");
        let hex = |buf: &[u8]| buf.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let ours: Vec<String> = sample_pdus()
            .iter()
            .map(|pdu| format!("{:?} {}", pdu.msg_type(), hex(&E2apCodec::Asn1Per.encode(pdu))))
            .collect();
        assert_eq!(ours, golden.lines().collect::<Vec<_>>());
    }

    #[test]
    fn encode_into_is_byte_identical_to_encode() {
        // Acceptance criterion: no behavioural change on the wire.  The
        // scratch-buffer path must produce exactly the bytes of the classic
        // path for every PDU constructor under every codec, including when
        // the scratch already holds earlier content.
        let mut scratch = bytes::BytesMut::new();
        for codec in E2apCodec::ALL {
            for pdu in sample_pdus() {
                let owned = codec.encode(&pdu);
                scratch.clear();
                codec.encode_into(&pdu, &mut scratch);
                assert_eq!(&scratch[..], &owned[..], "{:?} {:?}", codec, pdu.msg_type());
                // Appending after existing content must not disturb either
                // the prefix or the encoding.
                scratch.clear();
                scratch.extend_from_slice(b"hdr");
                codec.encode_into(&pdu, &mut scratch);
                assert_eq!(&scratch[..3], b"hdr");
                assert_eq!(&scratch[3..], &owned[..], "{:?} {:?}", codec, pdu.msg_type());
                // And the appended region must decode standalone.
                let frame = scratch.split_off(3).freeze();
                assert_eq!(codec.decode(&frame).unwrap(), pdu);
            }
        }
    }

    #[test]
    fn encode_invocations_counts_both_paths() {
        let pdu = E2apPdu::ResetResponse(ResetResponse { transaction_id: 1 });
        let before = encode_invocations();
        let _ = E2apCodec::Asn1Per.encode(&pdu);
        let mut buf = bytes::BytesMut::new();
        E2apCodec::Flatb.encode_into(&pdu, &mut buf);
        assert_eq!(encode_invocations() - before, 2);
    }

    #[test]
    fn peek_matches_header_both_codecs() {
        for codec in E2apCodec::ALL {
            for pdu in sample_pdus() {
                let buf = codec.encode(&pdu);
                let h = codec.peek(&buf).unwrap();
                assert_eq!(h, pdu.header(), "{:?} peek of {:?}", codec, pdu.msg_type());
            }
        }
    }

    #[test]
    fn decode_borrowed_matches_decode_and_borrows() {
        // Structural equality with the owned decode for every message type
        // under both codecs…
        for codec in E2apCodec::ALL {
            for pdu in sample_pdus() {
                let buf = Bytes::from(codec.encode(&pdu));
                let owned = codec.decode(&buf).unwrap();
                let borrowed = codec.decode_borrowed(&buf).unwrap();
                assert_eq!(owned, borrowed, "{:?} {:?}", codec, pdu.msg_type());
            }
        }
        // …and the indication payload really is a view of the input buffer
        // (refcount bookkeeping, not a copy) under both codecs.
        let pdu =
            sample_pdus().into_iter().find(|p| p.msg_type() == MsgType::RicIndication).unwrap();
        for codec in E2apCodec::ALL {
            let buf = Bytes::from(codec.encode(&pdu));
            let lo = buf.as_ptr() as usize;
            let hi = lo + buf.len();
            match codec.decode_borrowed(&buf).unwrap() {
                E2apPdu::RicIndication(ind) => {
                    let p = ind.message.as_ptr() as usize;
                    assert!(
                        p >= lo && p + ind.message.len() <= hi,
                        "{codec:?}: message must borrow from the input buffer"
                    );
                }
                other => panic!("decoded {:?}", other.msg_type()),
            }
        }
    }

    #[test]
    fn fb_indication_payload_borrowed_shares_buf() {
        let pdu =
            sample_pdus().into_iter().find(|p| p.msg_type() == MsgType::RicIndication).unwrap();
        let buf = Bytes::from(E2apCodec::Flatb.encode(&pdu));
        let (hdr, msg) = e2ap_fb::indication_payload_borrowed(&buf).unwrap();
        assert_eq!(&hdr[..], b"ind-hdr");
        assert_eq!(&msg[..], b"ind-msg-payload");
        let lo = buf.as_ptr() as usize;
        let hi = lo + buf.len();
        assert!((msg.as_ptr() as usize) >= lo && (msg.as_ptr() as usize) < hi);
    }

    #[test]
    fn per_is_smaller_than_fb() {
        // The paper: ASN.1 compresses better; FB adds 30-40 B per message.
        for pdu in sample_pdus() {
            let per = E2apCodec::Asn1Per.encode(&pdu);
            let fb = E2apCodec::Flatb.encode(&pdu);
            assert!(
                per.len() < fb.len(),
                "{:?}: per={} fb={}",
                pdu.msg_type(),
                per.len(),
                fb.len()
            );
        }
    }

    #[test]
    fn empty_optionals_roundtrip() {
        let pdu = E2apPdu::ErrorIndication(ErrorIndication::default());
        for codec in E2apCodec::ALL {
            let buf = codec.encode(&pdu);
            assert_eq!(codec.decode(&buf).unwrap(), pdu);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        for codec in E2apCodec::ALL {
            assert!(codec.decode(&[]).is_err());
            assert!(codec.decode(&[0xFF; 3]).is_err());
        }
    }

    #[test]
    fn fb_indication_payload_zero_copy() {
        let pdu =
            sample_pdus().into_iter().find(|p| p.msg_type() == MsgType::RicIndication).unwrap();
        let buf = E2apCodec::Flatb.encode(&pdu);
        let (hdr, msg) = e2ap_fb::indication_payload(&buf).unwrap();
        assert_eq!(hdr, b"ind-hdr");
        assert_eq!(msg, b"ind-msg-payload");
        // Non-indications are rejected.
        let other =
            E2apCodec::Flatb.encode(&E2apPdu::ResetResponse(ResetResponse { transaction_id: 0 }));
        assert!(e2ap_fb::indication_payload(&other).is_err());
    }

    /// Replaces the one occurrence of `from` in `buf` by `to`.
    fn forge(buf: &[u8], from: &[u8], to: &[u8]) -> Bytes {
        let at: Vec<usize> = (0..buf.len()).filter(|&i| buf[i..].starts_with(from)).collect();
        assert_eq!(at.len(), 1, "{from:02x?} in {buf:02x?}");
        let mut out = buf.to_vec();
        out[at[0]..at[0] + to.len()].copy_from_slice(to);
        Bytes::from(out)
    }

    fn out_of_range<T>(r: Result<T>) -> bool {
        matches!(r, Err(CodecError::OutOfRange { .. }))
    }

    /// `decode` and `decode_borrowed` (and `peek`, where the routing header
    /// holds the field or the codec has no header to read alone) refuse
    /// `pdu`'s frame once `from` reads `to`, and accepted it before.
    fn refused(codec: E2apCodec, pdu: &E2apPdu, from: &[u8], to: &[u8], peek_too: bool) {
        let buf = codec.encode(pdu);
        assert_eq!(codec.decode(&buf).as_ref(), Ok(pdu));
        let forged = forge(&buf, from, to);
        let what = format!("{codec:?} {:?} {to:02x?}", pdu.msg_type());
        assert!(out_of_range(codec.decode(&forged)), "decode {what}");
        assert!(out_of_range(codec.decode_borrowed(&forged)), "decode_borrowed {what}");
        if peek_too || codec == E2apCodec::Asn1Per {
            assert!(out_of_range(codec.peek(&forged)), "peek {what}");
        }
    }

    /// One set of constraints: a value no `E2apPdu` may hold is refused by
    /// every decoder of either codec, never masked, clamped or cut down to
    /// one it may hold.
    #[test]
    fn forged_out_of_range_fields_are_refused_by_every_decoder() {
        use E2apCodec::{Asn1Per, Flatb};
        let cause = Cause::Ric(RicCause::ActionNotSupported);
        let cause_le = (((cause.group() as u16) << 8) | cause.value() as u16).to_le_bytes();
        let (req_id, rf) = (RicRequestId::new(17, 4), RanFunctionId::new(0x0ABC));
        let plmn = Plmn::new(0x0321, 0x0234, 2);
        let fn_item = RanFunctionItem::new(0x0ABC, "oid", Bytes::from_static(b"def"));

        // The RAN function id, 0..=4095: twelve bits in PER, a u16 in FB —
        // in the root's routing slot, where `peek` reads it too …
        for pdu in [
            E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
                req_id,
                ran_function: rf,
            }),
            E2apPdu::ErrorIndication(ErrorIndication {
                req_id: None,
                ran_function: Some(rf),
                cause: None,
            }),
        ] {
            refused(Flatb, &pdu, &[0xBC, 0x0A], &[0x01, 0x10], true);
        }
        // … and wherever a message lists it.
        for pdu in [
            E2apPdu::E2SetupRequest(E2SetupRequest {
                transaction_id: 9,
                global_node: GlobalE2NodeId::new(plmn, E2NodeType::Gnb, 1),
                ran_functions: vec![fn_item.clone()],
                component_configs: vec![],
            }),
            E2apPdu::E2SetupResponse(E2SetupResponse {
                transaction_id: 9,
                global_ric: GlobalRicId::new(plmn, 1),
                accepted: vec![rf],
                rejected: vec![],
            }),
            E2apPdu::E2SetupResponse(E2SetupResponse {
                transaction_id: 9,
                global_ric: GlobalRicId::new(plmn, 1),
                accepted: vec![],
                rejected: vec![(rf, cause)],
            }),
            E2apPdu::RicServiceUpdate(RicServiceUpdate {
                transaction_id: 5,
                added: vec![],
                modified: vec![fn_item],
                removed: vec![],
            }),
            E2apPdu::RicServiceUpdate(RicServiceUpdate {
                transaction_id: 5,
                added: vec![],
                modified: vec![],
                removed: vec![rf],
            }),
            E2apPdu::RicServiceUpdateAck(RicServiceUpdateAck {
                transaction_id: 5,
                accepted: vec![],
                rejected: vec![(rf, cause)],
            }),
            E2apPdu::RicServiceQuery(RicServiceQuery { transaction_id: 6, accepted: vec![rf] }),
        ] {
            refused(Flatb, &pdu, &[0xBC, 0x0A], &[0x01, 0x10], false);
        }

        // Node id (36 bits), RIC id (20 bits), MCC and MNC (0..=999), MNC
        // digits (2 or 3): FB holds each in a whole integer.
        let setup = E2apPdu::E2SetupRequest(E2SetupRequest {
            transaction_id: 9,
            global_node: GlobalE2NodeId::new(plmn, E2NodeType::GnbDu, 0x9_8765_4321),
            ran_functions: vec![],
            component_configs: vec![],
        });
        let response = E2apPdu::E2SetupResponse(E2SetupResponse {
            transaction_id: 9,
            global_ric: GlobalRicId::new(plmn, 0xA_BCDE),
            accepted: vec![],
            rejected: vec![],
        });
        let node_id = 0x9_8765_4321u64.to_le_bytes();
        refused(Flatb, &setup, &node_id, &(1u64 << 36).to_le_bytes(), false);
        refused(Flatb, &response, &[0xDE, 0xBC, 0x0A, 0x00], &[0x00, 0x00, 0x10, 0x00], false);
        for pdu in [&setup, &response] {
            let plmn = [0x21, 0x03, 0x34, 0x02, 0x02];
            refused(Flatb, pdu, &plmn, &[0xE8, 0x03, 0x34, 0x02, 0x02], false);
            refused(Flatb, pdu, &plmn, &[0x21, 0x03, 0xE8, 0x03, 0x02], false);
            refused(Flatb, pdu, &plmn, &[0x21, 0x03, 0x34, 0x02, 0x04], false);
            refused(Flatb, pdu, &plmn, &[0x21, 0x03, 0x34, 0x02, 0x01], false);
        }
        // PER holds the two ids as a length and that many octets …
        refused(Asn1Per, &setup, &[5, 0x09, 0x87, 0x65, 0x43, 0x21], &[5, 0x10, 0, 0, 0, 0], true);
        refused(Asn1Per, &response, &[3, 0x0A, 0xBC, 0xDE], &[3, 0x10, 0x00, 0x00], true);
        // … and MCC and MNC in ten bits each, after the five of the message
        // type and the eight of the transaction id.
        for (mcc, mnc) in [(1000, 1), (1, 1000), (1023, 1023)] {
            let mut w = crate::per::BitWriter::new();
            w.put_bits(MsgType::E2SetupResponse as u64, 5);
            w.put_bits(9, 8);
            w.put_bits(mcc, 10);
            w.put_bits(mnc, 10);
            w.put_bits(0, 1); // two MNC digits
            w.put_uint(1); // the RIC id
            w.put_length(0);
            w.put_length(0);
            let forged = Bytes::from(w.finish());
            assert!(out_of_range(Asn1Per.decode(&forged)), "{mcc} {mnc}");
            assert!(out_of_range(Asn1Per.decode_borrowed(&forged)), "{mcc} {mnc}");
            assert!(out_of_range(Asn1Per.peek(&forged)), "{mcc} {mnc}");
        }

        // Action ids are a u8; FB lists them as u16.
        let response = |admitted: Vec<RicActionId>, not_admitted| {
            E2apPdu::RicSubscriptionResponse(RicSubscriptionResponse {
                req_id,
                ran_function: RanFunctionId::new(142),
                admitted,
                not_admitted,
            })
        };
        let admitted = response(vec![RicActionId(0xAB)], vec![]);
        refused(Flatb, &admitted, &[1, 0, 0, 0, 0xAB, 0x00], &[1, 0, 0, 0, 0xAB, 0x01], false);
        let not_admitted = response(vec![], vec![(RicActionId(0xCD), cause)]);
        let (from, to) = ([0xCD, 0x00, cause_le[0], cause_le[1]], [0xCD, 0x01]);
        refused(Flatb, &not_admitted, &from, &to, false);
    }

    #[test]
    fn large_payload_roundtrip() {
        let big = vec![0xA5u8; 100_000];
        let pdu = E2apPdu::RicIndication(RicIndication {
            req_id: RicRequestId::new(1, 1),
            ran_function: RanFunctionId::new(1),
            action: RicActionId(0),
            sn: None,
            ind_type: RicIndicationType::Report,
            header: Bytes::new(),
            message: Bytes::from(big),
            call_process_id: None,
        });
        for codec in E2apCodec::ALL {
            let buf = codec.encode(&pdu);
            assert_eq!(codec.decode(&buf).unwrap(), pdu);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bytes::Bytes;
    use flexric_e2ap::*;
    use proptest::prelude::*;

    fn arb_cause() -> impl Strategy<Value = Cause> {
        (0u8..5, 0u8..16).prop_filter_map("valid cause", |(g, v)| Cause::from_parts(g, v))
    }

    fn arb_bytes() -> impl Strategy<Value = Bytes> {
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Bytes::from)
    }

    fn arb_req_id() -> impl Strategy<Value = RicRequestId> {
        (any::<u16>(), any::<u16>()).prop_map(|(r, i)| RicRequestId::new(r, i))
    }

    fn arb_indication() -> impl Strategy<Value = E2apPdu> {
        (
            arb_req_id(),
            0u16..=4095,
            any::<u8>(),
            proptest::option::of(any::<u32>()),
            any::<bool>(),
            arb_bytes(),
            arb_bytes(),
            proptest::option::of(arb_bytes()),
        )
            .prop_map(|(req_id, rf, action, sn, report, header, message, cpid)| {
                E2apPdu::RicIndication(RicIndication {
                    req_id,
                    ran_function: RanFunctionId::new(rf),
                    action: RicActionId(action),
                    sn,
                    ind_type: if report {
                        RicIndicationType::Report
                    } else {
                        RicIndicationType::Insert
                    },
                    header,
                    message,
                    call_process_id: cpid,
                })
            })
    }

    fn arb_control() -> impl Strategy<Value = E2apPdu> {
        (
            arb_req_id(),
            0u16..=4095,
            proptest::option::of(arb_bytes()),
            arb_bytes(),
            arb_bytes(),
            proptest::option::of(0u8..3),
        )
            .prop_map(|(req_id, rf, cpid, header, message, ack)| {
                E2apPdu::RicControlRequest(RicControlRequest {
                    req_id,
                    ran_function: RanFunctionId::new(rf),
                    call_process_id: cpid,
                    header,
                    message,
                    ack_request: ack.map(|a| ControlAckRequest::from_u8(a).unwrap()),
                })
            })
    }

    fn arb_setup() -> impl Strategy<Value = E2apPdu> {
        (
            any::<u8>(),
            (0u16..1000, 0u16..1000, 2u8..4, 0u8..7, any::<u64>()),
            proptest::collection::vec(
                (
                    0u16..=4095,
                    arb_bytes(),
                    any::<u16>(),
                    "[a-z.]{0,32}",
                    any::<u16>(),
                    any::<u16>(),
                ),
                0..8,
            ),
        )
            .prop_map(|(txid, (mcc, mnc, digits, nt, nid), fns)| {
                E2apPdu::E2SetupRequest(E2SetupRequest {
                    transaction_id: txid,
                    global_node: GlobalE2NodeId::new(
                        Plmn::new(mcc, mnc, digits),
                        E2NodeType::from_u8(nt).unwrap(),
                        nid,
                    ),
                    ran_functions: fns
                        .into_iter()
                        .map(|(id, definition, revision, oid, vmaj, vmin)| RanFunctionItem {
                            id: RanFunctionId::new(id),
                            definition,
                            revision,
                            oid,
                            version: FnVersion::new(vmaj, vmin),
                        })
                        .collect(),
                    component_configs: vec![],
                })
            })
    }

    fn arb_failure() -> impl Strategy<Value = E2apPdu> {
        (arb_req_id(), 0u16..=4095, arb_cause()).prop_map(|(req_id, rf, cause)| {
            E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                req_id,
                ran_function: RanFunctionId::new(rf),
                cause,
            })
        })
    }

    fn arb_pdu() -> impl Strategy<Value = E2apPdu> {
        prop_oneof![arb_indication(), arb_control(), arb_setup(), arb_failure()]
    }

    proptest! {
        #[test]
        fn per_roundtrip(pdu in arb_pdu()) {
            let buf = E2apCodec::Asn1Per.encode(&pdu);
            prop_assert_eq!(E2apCodec::Asn1Per.decode(&buf).unwrap(), pdu);
        }

        #[test]
        fn fb_roundtrip(pdu in arb_pdu()) {
            let buf = E2apCodec::Flatb.encode(&pdu);
            prop_assert_eq!(E2apCodec::Flatb.decode(&buf).unwrap(), pdu);
        }

        #[test]
        fn peek_agrees_with_decode(pdu in arb_pdu()) {
            for codec in E2apCodec::ALL {
                let buf = codec.encode(&pdu);
                let h = codec.peek(&buf).unwrap();
                prop_assert_eq!(h, pdu.header());
            }
        }

        /// One set of constraints: whatever a decoder accepts of a frame
        /// with a byte scribbled over, every encoder can write again.
        #[test]
        fn what_one_decoder_accepts_every_encoder_writes(
            pdu in arb_pdu(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            for codec in E2apCodec::ALL {
                let mut buf = codec.encode(&pdu);
                let at = at % buf.len();
                buf[at] = byte;
                let buf = Bytes::from(buf);
                let got = codec.decode(&buf);
                prop_assert_eq!(&codec.decode_borrowed(&buf), &got);
                let Ok(got) = got else { continue };
                for other in E2apCodec::ALL {
                    prop_assert_eq!(other.decode(&other.encode(&got)).as_ref(), Ok(&got));
                }
            }
        }

        #[test]
        fn decoders_never_panic_on_fuzz(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            for codec in E2apCodec::ALL {
                let _ = codec.decode(&bytes);
                let _ = codec.peek(&bytes);
            }
        }

        #[test]
        fn truncation_never_panics(pdu in arb_pdu(), frac in 0.0f64..1.0) {
            for codec in E2apCodec::ALL {
                let buf = codec.encode(&pdu);
                let cut = ((buf.len() as f64) * frac) as usize;
                let _ = codec.decode(&buf[..cut]);
                let _ = codec.peek(&buf[..cut]);
            }
        }
    }
}
