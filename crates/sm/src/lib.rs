//! E2 service models (E2SM) of the FlexRIC reproduction.
//!
//! Service models are "specifications in their own right" (paper Appendix
//! A.3): each defines the payloads exchanged between an xApp/iApp and a RAN
//! function — event triggers, action definitions, indication headers and
//! messages, control headers/messages and outcomes.  This crate has three
//! parts:
//!
//! 1. **The payload layer** ([`SmPayload`]): every SM payload encodes with
//!    either the ASN.1-PER-style or the FlatBuffers-style codec
//!    ([`SmCodec`]), independently of the E2AP encoding — the four
//!    E2AP×E2SM combinations of the paper's Fig. 7.  The hot-path entry is
//!    [`SmPayload::encode_into`], which reuses a caller-owned scratch
//!    buffer (the PR 3 zero-allocation discipline); [`SmPayload::encode`]
//!    is the allocating convenience form.
//!
//! 2. **The bundled SM set**: the monitoring SMs — [`mac`], [`rlc`],
//!    [`pdcp`] statistics (§4.1, §5.1) and [`kpm`] (cf. O-RAN E2SM-KPM) —
//!    plus the slice control SM ([`mod@slice`], SC SM §6.1.2), the traffic
//!    control SM ([`tc`], TC SM §6.1.1), RRC UE-event notifications
//!    ([`rrc`]) and the hello-world SM ([`hw`], the ping SM of §5.2).
//!    Monitoring SMs additionally speak the [`delta`] stream: dirty-field
//!    delta indications with keyframes, suppression, and verified
//!    reconstruction ([`ReportMode::Delta`] on the [`trigger`]).  The
//!    statistics SMs are each one field table ([`schema`]): the row struct,
//!    its PER, FB and PB codecs, [`SmPayload`] and the delta hooks are
//!    derived from it, under one set of range checks.  The other payloads
//!    — unions, strings, options, lists — are each one declaration in the
//!    grammar E2AP's messages are declared with
//!    ([`flexric_codec::schema`]: `wire_table!`, `wire_choice!`), and
//!    [`SmPayload`] follows from it; only [`trigger`] is written by hand.
//!
//! 3. **The plugin registry** ([`registry`]): every SM — bundled or
//!    third-party — is described by a versioned [`registry::SmDescriptor`]
//!    (RAN function id, OID, `major.minor` version, type-erased codec
//!    vtable, delta hooks, funcdef builder) registered in a process-wide
//!    [`registry::SmRegistry`].  Agents advertise `oid@version` from the
//!    registry, servers negotiate semver-compatibility at E2 Setup (major
//!    must match, highest minor wins), and iApps decode through the vtable
//!    instead of static `match` arms — so a new service model plugs in
//!    with zero core-code edits (see `examples/custom_sm.rs`).

pub mod delta;
pub mod funcdef;
pub mod hw;
pub mod kpm;
pub mod mac;
pub mod pdcp;
pub mod registry;
pub mod rlc;
pub mod rrc;
pub mod schema;
pub mod slice;
pub mod tc;
pub mod trigger;

pub use delta::{
    content_hash, DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut, DeltaRows, DeltaStreams,
    ReportOut,
};
pub use funcdef::RanFuncDef;
pub use registry::{SmDescriptor, SmRegistry, SmVersion};
pub use trigger::{ReportMode, ReportTrigger};

use bytes::{Bytes, BytesMut};
use flexric_codec::error::Result;
use flexric_codec::fb::{FbBuilder, FbView};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::schema::Table;
use flexric_codec::ByteSink;

/// Which encoding an SM payload uses, independent of the E2AP encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SmCodec {
    /// ASN.1-aligned-PER style.
    #[default]
    Asn1Per,
    /// FlatBuffers style.
    Flatb,
}

impl SmCodec {
    /// All codecs, for sweeps.
    pub const ALL: [SmCodec; 2] = [SmCodec::Asn1Per, SmCodec::Flatb];

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SmCodec::Asn1Per => "ASN",
            SmCodec::Flatb => "FB",
        }
    }
}

/// First allocation of [`SmPayload::encode`], and the room an FB
/// [`SmPayload::encode_into`] makes sure of in its scratch: a 32-row
/// snapshot of any bundled SM fits in either codec without growing
/// mid-encode.  The largest are MAC's: 2374 B in FB, whatever the values
/// (32 offsets and rows of [`Row::FB_SIZE`](schema::Row::FB_SIZE) = 68 B,
/// and 70 B of header, count, row vtable and root table around them), and
/// 2288 B in PER when every counter needs all its octets (15 B of
/// timestamp, aux scalar and count, then 32 rows of
/// [`Row::PER_MAX`](schema::Row::PER_MAX) − 1 = 71 B, each starting in the
/// last byte of the row before, and that byte once more);
/// `mac::thirty_two_ue_snapshot_is_compact` pins both.
const SNAPSHOT_CAPACITY: usize = 2560;

/// Implemented by every SM payload: dual-codec encode/decode.
///
/// The `encode_per`/`encode_fb` bodies are generic over the output
/// [`ByteSink`], so one implementation serves both the allocating
/// [`encode`](SmPayload::encode) convenience and the scratch-reusing
/// [`encode_into`](SmPayload::encode_into) hot path.
pub trait SmPayload: Sized {
    /// Encodes into the PER-style writer.
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>);
    /// Decodes from the PER-style reader.
    fn decode_per(r: &mut BitReader) -> Result<Self>;
    /// Encodes into an FB-style message, returning the root table offset.
    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32;
    /// Decodes from the root table of an FB-style message.
    fn decode_fb(t: &flexric_codec::fb::FbTable) -> Result<Self>;

    /// Encodes with the chosen codec into a fresh buffer.
    fn encode(&self, codec: SmCodec) -> Vec<u8> {
        match codec {
            SmCodec::Asn1Per => {
                let mut w = BitWriter::with_capacity(SNAPSHOT_CAPACITY);
                self.encode_per(&mut w);
                w.finish()
            }
            SmCodec::Flatb => {
                let mut b = FbBuilder::with_capacity(SNAPSHOT_CAPACITY);
                let root = self.encode_fb(&mut b);
                b.finish(root)
            }
        }
    }

    /// Encodes with the chosen codec into a caller-owned scratch buffer,
    /// splitting the message off as a frozen [`Bytes`].
    ///
    /// Byte-for-byte identical to [`encode`](SmPayload::encode) — both
    /// dispatch to the same generic body.  Steady-state this allocates
    /// nothing: once every frozen handle of a previous message drops, the
    /// scratch buffer reclaims that capacity (the PR 3 `encode_into`
    /// discipline, extended to SM payloads).
    fn encode_into(&self, codec: SmCodec, buf: &mut BytesMut) -> Bytes {
        match codec {
            SmCodec::Asn1Per => {
                let mut w = BitWriter::over(std::mem::take(buf));
                self.encode_per(&mut w);
                *buf = w.into_buf();
            }
            SmCodec::Flatb => {
                // A snapshot's rows are one reservation of their exact
                // size: in a scratch that starts smaller, the root table
                // after them would double the slab.
                buf.reserve(SNAPSHOT_CAPACITY);
                let mut b = FbBuilder::over(std::mem::take(buf));
                let root = self.encode_fb(&mut b);
                *buf = b.finish_buf(root);
            }
        }
        buf.split().freeze()
    }

    /// Decodes with the chosen codec.
    fn decode(codec: SmCodec, buf: &[u8]) -> Result<Self> {
        match codec {
            SmCodec::Asn1Per => {
                let mut r = BitReader::new(buf);
                Self::decode_per(&mut r)
            }
            SmCodec::Flatb => {
                let view = FbView::parse(buf)?;
                Self::decode_fb(&view.root()?)
            }
        }
    }
}

/// A payload declared with `wire_table!` / `wire_choice!` is its [`Table`]:
/// in PER its fields, in FB the root table.
impl<T: Table> SmPayload for T {
    #[inline]
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        self.put_fields(w);
    }
    #[inline]
    fn decode_per(r: &mut BitReader) -> Result<Self> {
        T::get_fields(r)
    }
    #[inline]
    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        self.to_table(b)
    }
    #[inline]
    fn decode_fb(t: &flexric_codec::fb::FbTable) -> Result<Self> {
        T::from_table(t, None)
    }
}

/// Well-known RAN function ids of the bundled service models.
///
/// These are the default ids the bundled [`registry`] descriptors carry;
/// third-party SMs pick unused ids at registration time.
pub mod rf {
    /// Hello-world SM (ping), cf. O-RAN's E2SM-HW.
    pub const HW: u16 = 2;
    /// MAC statistics SM.
    pub const MAC_STATS: u16 = 142;
    /// RLC statistics SM.
    pub const RLC_STATS: u16 = 143;
    /// PDCP statistics SM.
    pub const PDCP_STATS: u16 = 144;
    /// Slice control SM (SC SM).
    pub const SLICE_CTRL: u16 = 145;
    /// Traffic control SM (TC SM).
    pub const TC_CTRL: u16 = 146;
    /// RRC UE-event SM.
    pub const RRC_EVENT: u16 = 147;
    /// KPM (performance metrics) SM, cf. O-RAN E2SM-KPM.
    pub const KPM: u16 = 148;
}

/// Object identifiers (OIDs) of the bundled service models, used in the
/// `RanFunctionItem.oid` field so controllers can match functions by name.
pub mod oid {
    /// Hello-world SM.
    pub const HW: &str = "flexric.sm.hw";
    /// MAC statistics SM.
    pub const MAC_STATS: &str = "flexric.sm.mac_stats";
    /// RLC statistics SM.
    pub const RLC_STATS: &str = "flexric.sm.rlc_stats";
    /// PDCP statistics SM.
    pub const PDCP_STATS: &str = "flexric.sm.pdcp_stats";
    /// Slice control SM.
    pub const SLICE_CTRL: &str = "flexric.sm.slice_ctrl";
    /// Traffic control SM.
    pub const TC_CTRL: &str = "flexric.sm.tc_ctrl";
    /// RRC UE-event SM.
    pub const RRC_EVENT: &str = "flexric.sm.rrc_event";
    /// KPM SM.
    pub const KPM: &str = "flexric.sm.kpm";
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use std::fmt::Debug;

    /// Round-trips `msg` through both codecs and asserts equality, and
    /// asserts the scratch-buffer encode path is byte-identical to the
    /// allocating one.
    pub fn roundtrip_both<T: SmPayload + PartialEq + Debug>(msg: &T) {
        let mut scratch = BytesMut::new();
        for codec in SmCodec::ALL {
            let buf = msg.encode(codec);
            let back =
                T::decode(codec, &buf).unwrap_or_else(|e| panic!("{codec:?} decode failed: {e}"));
            assert_eq!(&back, msg, "{codec:?} roundtrip");
            let frozen = msg.encode_into(codec, &mut scratch);
            assert_eq!(&frozen[..], &buf[..], "{codec:?} encode_into byte-identical");
        }
    }

    /// Asserts decoding garbage fails rather than panicking.
    pub fn garbage_rejected<T: SmPayload + Debug>() {
        for codec in SmCodec::ALL {
            assert!(T::decode(codec, &[]).is_err(), "{codec:?} empty");
            let _ = T::decode(codec, &[0xFF; 7]);
        }
    }
}
