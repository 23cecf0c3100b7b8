//! Reusable encode scratch buffers and encode-once fan-out.
//!
//! The agent and server event loops each own an [`EncodeScratch`] and queue
//! outbound PDUs as `(Targets, E2apPdu)` pairs.  At flush time every PDU is
//! encoded exactly once into the scratch buffer — via the zero-allocation
//! `encode_into` path — and the frozen [`Bytes`] is shared by reference
//! count across all targets.  A 1→N indication fan-out therefore costs one
//! encode and N cheap `Bytes` clones, not N encodes.

use bytes::{Bytes, BytesMut};
use flexric_codec::E2apCodec;
use flexric_e2ap::E2apPdu;
use flexric_transport::WireMsg;

/// Stream a PDU travels on under the SCTP-like framing: RIC indications
/// are bulk traffic (stream 1); every other procedure — setup,
/// subscription, control, service update — is a control procedure on
/// stream 0 and overtakes queued bulk in the writer task.
pub fn stream_for(pdu: &E2apPdu) -> u16 {
    match pdu {
        E2apPdu::RicIndication(_) => WireMsg::STREAM_BULK,
        _ => WireMsg::STREAM_CONTROL,
    }
}

/// Destination set of one queued PDU.
///
/// The single-target case is by far the most common, so it avoids the
/// `Vec` allocation entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Targets<T> {
    /// One destination.
    One(T),
    /// Several destinations sharing one encoded frame.
    Many(Vec<T>),
}

impl<T> Targets<T> {
    /// The destinations as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            Targets::One(t) => std::slice::from_ref(t),
            Targets::Many(v) => v,
        }
    }

    /// Builds the cheapest representation for `targets`.
    pub fn from_vec(mut targets: Vec<T>) -> Self {
        if targets.len() == 1 {
            Targets::One(targets.pop().expect("len checked"))
        } else {
            Targets::Many(targets)
        }
    }
}

impl<T> From<T> for Targets<T> {
    fn from(t: T) -> Self {
        Targets::One(t)
    }
}

/// A reusable per-loop encode buffer.
///
/// Each encode appends into the buffer and splits the message off as a
/// frozen [`Bytes`].  Once every frozen handle of a previous message has
/// dropped (the writer task sent it), the buffer reclaims that capacity, so
/// steady-state encoding performs no allocation.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    buf: BytesMut,
}

impl EncodeScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch buffer with an initial capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EncodeScratch { buf: BytesMut::with_capacity(cap) }
    }

    /// Encodes `pdu` once and returns the frozen frame.
    pub fn encode(&mut self, codec: E2apCodec, pdu: &E2apPdu) -> Bytes {
        codec.encode_into(pdu, &mut self.buf);
        self.buf.split().freeze()
    }
}

/// Drains `outbox`, encoding every PDU exactly once and delivering the
/// shared frame to each of its targets as a [`WireMsg`] on the stream
/// [`stream_for`] assigns (indications on the bulk stream, procedures on
/// the control stream).
///
/// `deliver` receives a clone of the frozen [`Bytes`] per target — a
/// reference-count bump, not a copy.  Delivery decisions (dead connection,
/// unknown target) stay with the caller.
pub fn flush_outbox<T: Copy>(
    scratch: &mut EncodeScratch,
    codec: E2apCodec,
    outbox: &mut Vec<(Targets<T>, E2apPdu)>,
    mut deliver: impl FnMut(T, WireMsg),
) {
    for (targets, pdu) in outbox.drain(..) {
        let stream = stream_for(&pdu);
        let frame = scratch.encode(codec, &pdu);
        for t in targets.as_slice() {
            deliver(*t, WireMsg::e2ap_on(stream, frame.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_e2ap::{ResetResponse, RicIndication, RicRequestId};

    fn indication() -> E2apPdu {
        E2apPdu::RicIndication(RicIndication {
            req_id: RicRequestId::new(7, 3),
            ran_function: flexric_e2ap::RanFunctionId::new(142),
            action: flexric_e2ap::RicActionId(0),
            sn: Some(42),
            ind_type: flexric_e2ap::RicIndicationType::Report,
            header: Bytes::new(),
            message: Bytes::from_static(b"shared-report-payload"),
            call_process_id: None,
        })
    }

    #[test]
    fn fan_out_encodes_once_and_shares_bytes() {
        // Acceptance criterion: a 1→8 fan-out performs exactly one encode
        // per (PDU, codec), and every target receives identical bytes.
        for codec in E2apCodec::ALL {
            let mut scratch = EncodeScratch::new();
            let mut outbox = vec![(Targets::Many((0usize..8).collect()), indication())];
            let mut delivered: Vec<(usize, WireMsg)> = Vec::new();

            let before = flexric_codec::encode_invocations();
            flush_outbox(&mut scratch, codec, &mut outbox, |t, msg| {
                delivered.push((t, msg));
            });
            let encodes = flexric_codec::encode_invocations() - before;

            assert_eq!(encodes, 1, "{codec:?}: one encode for 8 targets");
            assert!(outbox.is_empty());
            assert_eq!(delivered.len(), 8);
            let expected = codec.encode(&indication());
            for (i, (t, msg)) in delivered.iter().enumerate() {
                assert_eq!(*t, i);
                assert_eq!(&msg.payload[..], &expected[..], "{codec:?}: identical frame");
                assert_eq!(msg.stream, WireMsg::STREAM_BULK, "indications ride the bulk stream");
            }
        }
    }

    #[test]
    fn mixed_outbox_encodes_once_per_pdu() {
        let mut scratch = EncodeScratch::with_capacity(256);
        let reset = E2apPdu::ResetResponse(ResetResponse { transaction_id: 1 });
        let mut outbox =
            vec![(Targets::One(0usize), reset.clone()), (Targets::Many(vec![1, 2]), indication())];
        let before = flexric_codec::encode_invocations();
        let mut streams = Vec::new();
        flush_outbox(&mut scratch, E2apCodec::Asn1Per, &mut outbox, |_, msg| {
            streams.push(msg.stream)
        });
        assert_eq!(flexric_codec::encode_invocations() - before, 2);
        assert_eq!(
            streams,
            [WireMsg::STREAM_CONTROL, WireMsg::STREAM_BULK, WireMsg::STREAM_BULK],
            "procedures on stream 0, indications on the bulk stream"
        );
    }

    #[test]
    fn stream_assignment_covers_the_pdu_space() {
        assert_eq!(stream_for(&indication()), WireMsg::STREAM_BULK);
        let reset = E2apPdu::ResetResponse(ResetResponse { transaction_id: 1 });
        assert_eq!(stream_for(&reset), WireMsg::STREAM_CONTROL);
    }

    #[test]
    fn targets_from_vec_picks_cheap_variant() {
        assert_eq!(Targets::from_vec(vec![5usize]), Targets::One(5));
        assert_eq!(Targets::from_vec(vec![1usize, 2]), Targets::Many(vec![1, 2]));
        assert_eq!(Targets::from(3usize).as_slice(), &[3]);
        assert_eq!(Targets::<usize>::from_vec(vec![]).as_slice(), &[] as &[usize]);
    }
}
