//! The field tables of `flexric_sm::schema`, from outside the crate.
//!
//! * The statistics SMs keep the wire of the commit before the tables
//!   (`schema_golden/`): PER, FB, PB and delta frames, byte for byte.
//! * Every field of every table round-trips 0 and its `MAX` in every
//!   encoding, and every decoder refuses `MAX + 1`.
//! * A delta frame that carries an out-of-range value under a post-hash that
//!   matches it is refused, and a keyframe resyncs the stream.
//! * A service model declared here with the exported macros — types, codecs
//!   and delta hooks in 25 lines, no imports — round-trips, and keeps the FB
//!   bytes of `fb_vectors/` and the PER bytes of `per_vectors/`.
//! * Its control message — a CHOICE with a unit variant, a list of
//!   sub-tables, a nested choice and ranged fields — is one declaration more:
//!   it round-trips in both codecs, survives truncation and scribbling, and
//!   refuses forged fields, without a line of codec code of its own.

mod fb_vectors;
mod per_vectors;
mod schema_golden;

use std::fmt::Debug;

use flexric_codec::error::CodecError;
use flexric_codec::fb::{FbBuilder, FbView, TableBuilder};
use flexric_codec::pb::PbWriter;
use flexric_codec::per::{BitReader, BitWriter};
use flexric_sm::delta::{
    content_hash, DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut, DeltaRows,
};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::registry::AnyDeltaEvent;
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::schema::Row;
use flexric_sm::tc::{TcQueueStats, TcStatsInd};
use flexric_sm::{SmCodec, SmPayload};

use beam::{BeamCtrl, BeamStats, BeamStatsInd, BeamWeight, Steering};
use schema_golden as golden;

/// The out-of-crate service model; nothing is imported for it.
mod beam {
    flexric_sm::sm_rows! {
        /// Per-beam measurements.
        pub struct BeamStats {
            key {
                /// Beam index.
                beam: u8 = bits(8),
            }
            /// Reference signal received power, dBm + 156.
            rsrp: u8 = range(0, 127),
            /// Transmission rank.
            rank: u16 = bits(3),
            /// Bytes sent on the beam.
            tx_bytes: u64 = uint,
            /// Blocks lost on the beam.
            drops: u32 = uint,
        }
    }
    flexric_sm::sm_snapshot! {
        /// A beam statistics indication.
        pub struct BeamStatsInd: "beam" {
            /// Snapshot time, ms.
            tstamp_ms: u64,
            /// Beams the cell sweeps.
            swept: u16;
            /// Per-beam rows.
            beams: Vec<BeamStats>,
        }
    }

    /// A beam and the weight it is to have, per mille.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BeamWeight {
        pub beam: u8,
        pub weight: u16,
    }
    /// How a beam is steered.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Steering {
        Fixed { azimuth: u16 },
        Track { rnti: u16 },
    }
    /// The SM's control message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BeamCtrl {
        Resweep,
        SetWeights { weights: Vec<BeamWeight> },
        Steer { beam: u8, power_dbm: u8, mode: Steering },
    }
    flexric_sm::schema::wire_table!(BeamWeight {
        beam: u8 = bits(8) => 0,
        weight: u16 = range(0, 1000) => 1,
    });
    flexric_sm::schema::wire_choice!(Steering {
        0 => Fixed { azimuth: u16 = range(0, 3599) => 1 },
        1 => Track { rnti: u16 = bits(16) => 1 },
    });
    flexric_sm::schema::wire_choice!(BeamCtrl {
        0 => Resweep {},
        1 => SetWeights { weights: flexric_sm::schema::Ahead<BeamWeight> => 1 },
        2 => Steer { beam: u8 = bits(8) => 1, power_dbm: u8 = range(0, 63) => 2, mode: Steering => 3 },
    });
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// A stream's first two frames: the keyframe of `snaps[0]`, the delta to
/// `snaps[1]`.
fn two_frames<T: DeltaRows>(snaps: &[T; 2], codec: SmCodec) -> [Vec<u8>; 2] {
    let mut enc = DeltaEncoder::new(16);
    let DeltaOut::Keyframe(key) = enc.encode(&snaps[0], codec) else { panic!("first report") };
    let DeltaOut::Delta(delta) = enc.encode(&snaps[1], codec) else { panic!("expected a delta") };
    [key, delta]
}

/// A snapshot's derived `encode_pb` / `decode_pb`.
type Pb<T> = (fn(&T) -> Vec<u8>, fn(&[u8]) -> Result<T, CodecError>);

fn golden_sm<T: DeltaRows + Debug>(
    snaps: [T; 2],
    [per, fb, pb, delta]: [&str; 4],
    (encode_pb, decode_pb): Pb<T>,
) {
    for (codec, hex) in [(SmCodec::Asn1Per, per), (SmCodec::Flatb, fb)] {
        assert_eq!(snaps[0].encode(codec), unhex(hex), "{} {codec:?}", T::NAME);
        assert_eq!(T::decode(codec, &unhex(hex)).as_ref(), Ok(&snaps[0]), "{} {codec:?}", T::NAME);
        let [key, ours] = two_frames(&snaps, codec);
        assert_eq!(ours, unhex(delta), "{} delta, {codec:?}", T::NAME);
        let mut dec = DeltaDecoder::<T>::new();
        dec.apply(&key, codec).expect("keyframe");
        let want = DeltaEvent::Snapshot { snap: snaps[1].clone(), changed: true, keyframe: false };
        assert_eq!(dec.apply(&unhex(delta), codec), Ok(want), "{} {codec:?}", T::NAME);
    }
    assert_eq!(encode_pb(&snaps[0]), unhex(pb), "{} PB", T::NAME);
    assert_eq!(decode_pb(&unhex(pb)).as_ref(), Ok(&snaps[0]), "{} PB", T::NAME);
}

#[test]
fn the_wire_of_the_parent_commit_is_kept() {
    use golden::*;
    let pb = (MacStatsInd::encode_pb as fn(&_) -> _, MacStatsInd::decode_pb as fn(&_) -> _);
    golden_sm(mac(), [MAC_PER, MAC_FB, MAC_PB, MAC_DELTA], pb);
    let pb = (RlcStatsInd::encode_pb as fn(&_) -> _, RlcStatsInd::decode_pb as fn(&_) -> _);
    golden_sm(rlc(), [RLC_PER, RLC_FB, RLC_PB, RLC_DELTA], pb);
    let pb = (PdcpStatsInd::encode_pb as fn(&_) -> _, PdcpStatsInd::decode_pb as fn(&_) -> _);
    golden_sm(pdcp(), [PDCP_PER, PDCP_FB, PDCP_PB, PDCP_DELTA], pb);
    for (codec, hex) in [(SmCodec::Asn1Per, TC_PER), (SmCodec::Flatb, TC_FB)] {
        assert_eq!(tc().encode(codec), unhex(hex), "TC {codec:?}");
        assert_eq!(TcStatsInd::decode(codec, &unhex(hex)), Ok(tc()));
    }
}

/// `row` through the three row encodings.
fn row_roundtrip<R: Row>(row: &R) {
    let mut w = BitWriter::new();
    row.put_per(&mut w);
    assert_eq!(R::get_per(&mut BitReader::new(&w.finish())).as_ref(), Ok(row), "PER");
    let mut b = FbBuilder::new();
    let rows = b.vec_of_tables(R::FB_SIZE, R::FB_VTABLE, [row], |row, table| row.fill_fb(table));
    let mut root = TableBuilder::new();
    root.off(0, rows);
    let root = root.end(&mut b);
    let msg = b.finish(root);
    let rows = FbView::parse(&msg).and_then(|v| v.root()?.vector_or_empty(0)).expect("own bytes");
    assert_eq!(rows.len(), 1);
    assert_eq!(R::get_fb(&rows.table_at(0).expect("own bytes")).as_ref(), Ok(row), "FB");
    let mut w = PbWriter::new();
    row.put_pb(&mut w);
    assert_eq!(R::get_pb(&w.finish()).as_ref(), Ok(row), "PB");
}

/// Every non-key field of `R` at 0 and at its maximum; one more refused by
/// `set_field` and by the protobuf reader (the one encoding that can spell
/// any value of any field); the key at its widest.  `R` has `keys` key
/// fields.
fn row_bounds<R: Row>(keys: u32) {
    let top = R::with_key(u32::MAX);
    assert_eq!(R::with_key(top.key()), top, "the key holds every key field");
    row_roundtrip(&top);
    for (i, f) in (0..).zip(R::FIELDS) {
        for v in [0, f.max] {
            let mut row = R::with_key(0x4601);
            assert!(row.set_field(i, v), "{} = {v}", f.name);
            assert_eq!(row.field(i), v);
            row_roundtrip(&row);
        }
        let Some(over) = f.max.checked_add(1) else { continue };
        let mut row = R::with_key(0x4601);
        assert!(!row.set_field(i, over), "{} = {over} accepted", f.name);
        assert_eq!(row, R::with_key(0x4601), "a refused value leaves the row alone");
        let mut w = PbWriter::new();
        w.uint(keys + i + 1, over);
        assert_eq!(
            R::get_pb(&w.finish()),
            Err(CodecError::OutOfRange { what: f.name, value: over })
        );
    }
    assert!(!R::default().set_field(R::FIELDS.len() as u32, 0), "not a field");
}

/// The delta frame `seq` of epoch 1 that sets `field` of row `key`.
fn delta_frame<T: DeltaRows>(seq: u64, key: u32, field: u32, value: u64, hash: u64) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.put_bits(1, 32);
    w.put_bits(seq, 32);
    w.put_bit(true);
    w.put_uint(99); // timestamp
    w.put_bit(false); // no aux
    w.put_length(1);
    w.put_bits(key as u64, 32);
    w.put_bits(1 << field, T::FIELD_COUNT);
    w.put_uint(value);
    w.put_length(0); // removed rows
    w.put_bit(false); // no explicit order
    w.put_bits(hash, 64);
    w.finish()
}

/// Every field of `T`'s rows over a delta stream: 0 and the maximum
/// reconstruct, one more loses the stream until the next keyframe.
fn delta_bounds<T: DeltaRows<Row: Row> + Default + Debug>() {
    let (codec, key) = (SmCodec::Flatb, 0x4601);
    let mut snap = T::default();
    snap.rows_mut().push(T::new_row(key));
    for (i, f) in (0..).zip(T::Row::FIELDS) {
        let (mut enc, mut dec) = (DeltaEncoder::new(100), DeltaDecoder::<T>::new());
        for v in [1, f.max, 0] {
            assert!(T::set_field(&mut snap.rows_mut()[0], i, v));
            let (DeltaOut::Keyframe(frame) | DeltaOut::Delta(frame)) = enc.encode(&snap, codec)
            else {
                panic!("every report changes a value");
            };
            let want = DeltaEvent::Snapshot { snap: snap.clone(), changed: true, keyframe: v == 1 };
            assert_eq!(dec.apply(&frame, codec), Ok(want), "{} {} = {v}", T::NAME, f.name);
        }
        let Some(over) = f.max.checked_add(1) else { continue };
        let frame = delta_frame::<T>(4, key, i, over, content_hash(&snap));
        let ev = dec.apply(&frame, codec).expect("well-formed frame");
        assert!(matches!(ev, DeltaEvent::NeedKeyframe { .. }), "{} {}: {ev:?}", T::NAME, f.name);
        assert!(dec.current().is_none(), "the base is dropped");
    }
}

#[test]
fn every_field_at_its_bounds_in_every_encoding() {
    row_bounds::<MacUeStats>(1);
    row_bounds::<RlcBearerStats>(2);
    row_bounds::<PdcpBearerStats>(2);
    row_bounds::<TcQueueStats>(1);
    row_bounds::<BeamStats>(1);
    delta_bounds::<MacStatsInd>();
    delta_bounds::<RlcStatsInd>();
    delta_bounds::<PdcpStatsInd>();
    delta_bounds::<BeamStatsInd>();

    // FB and PER can spell one more than the maximum only of a field
    // narrower than its slot or its type.  FB: the struct holds what the
    // wire may not.
    let mut mac = golden::mac()[0].clone();
    mac.ues[1].cqi = 16;
    let refused = MacStatsInd::decode(SmCodec::Flatb, &mac.encode(SmCodec::Flatb));
    assert_eq!(refused, Err(CodecError::OutOfRange { what: "cqi", value: 16 }));
    // FB by hand: a three-bit rank of 8 in its 16-bit slot.
    let mut b = FbBuilder::new();
    let mut row = TableBuilder::new();
    row.u8(0, 5).u8(1, 127).u16(2, 8).u64(3, 0).u32(4, 0);
    let rows = [row.end(&mut b)];
    let rows = b.vec_off(&rows);
    let mut root = TableBuilder::new();
    root.u64(0, 1).u16(1, 64).off(2, rows);
    let root = root.end(&mut b);
    let refused = BeamStatsInd::decode(SmCodec::Flatb, &b.finish(root));
    assert_eq!(refused, Err(CodecError::OutOfRange { what: "rank", value: 8 }));
    // PER by hand: a 32-bit counter of 2^32, a 16-bit aux scalar of 2^16.
    let per = |swept: u64, drops: u64| {
        let mut w = BitWriter::new();
        w.put_uint(1);
        w.put_uint(swept);
        w.put_length(1);
        w.put_bits(5, 8);
        w.put_constrained(127, 0, 127);
        w.put_bits(7, 3);
        w.put_uint(u64::MAX);
        w.put_uint(drops);
        BeamStatsInd::decode(SmCodec::Asn1Per, &w.finish())
    };
    assert_eq!(per(64, u32::MAX as u64).map(|ind| ind.beams[0].drops), Ok(u32::MAX));
    assert_eq!(per(64, 1 << 32), Err(CodecError::OutOfRange { what: "drops", value: 1 << 32 }));
    assert_eq!(per(1 << 16, 0), Err(CodecError::OutOfRange { what: "swept", value: 1 << 16 }));
}

/// Before the tables, delta apply took any value: `cqi = 200` under a
/// post-hash computed over that very value was accepted, and re-encoding
/// the reconstruction in PER then tripped `put_constrained`'s debug
/// assertion (or, in release, wrote `200 & 0xF`).
#[test]
fn out_of_range_delta_value_under_a_matching_hash_is_refused_and_a_keyframe_resyncs() {
    let codec = SmCodec::Asn1Per;
    let [base, next] = golden::mac();
    let mut enc = DeltaEncoder::new(100);
    let mut dec = DeltaDecoder::<MacStatsInd>::new();
    let DeltaOut::Keyframe(key) = enc.encode(&base, codec) else { panic!("first report") };
    dec.apply(&key, codec).expect("keyframe");

    let mut forged = base.clone();
    forged.ues[0].cqi = 200;
    let rnti = forged.ues[0].rnti as u32;
    let frame = delta_frame::<MacStatsInd>(2, rnti, 0, 200, content_hash(&forged));
    let ev = dec.apply(&frame, codec).expect("well-formed frame");
    assert_eq!(ev, DeltaEvent::NeedKeyframe { reason: "inconsistent delta" });
    assert!(dec.current().is_none(), "the base is dropped");
    assert_eq!(dec.resyncs, 1);

    // The sender's own next delta finds no base; its forced keyframe does.
    let DeltaOut::Delta(lost) = enc.encode(&next, codec) else { panic!("a delta") };
    assert!(matches!(dec.apply(&lost, codec), Ok(DeltaEvent::NeedKeyframe { .. })));
    enc.force_keyframe();
    let DeltaOut::Keyframe(key) = enc.encode(&next, codec) else { panic!("forced keyframe") };
    let want = DeltaEvent::Snapshot { snap: next.clone(), changed: true, keyframe: true };
    assert_eq!(dec.apply(&key, codec), Ok(want));
    assert_eq!(dec.current().map(|snap| snap.encode(codec)), Some(next.encode(codec)));
}

#[test]
fn a_service_model_declared_outside_the_crate_round_trips() {
    let [first, second] = golden::rows::<BeamStats>();
    let snaps = [
        BeamStatsInd { tstamp_ms: 10, swept: 64, beams: first },
        BeamStatsInd { tstamp_ms: 20, swept: 63, beams: second },
    ];
    for codec in SmCodec::ALL {
        assert_eq!(BeamStatsInd::decode(codec, &snaps[0].encode(codec)).as_ref(), Ok(&snaps[0]));
    }
    assert_eq!(BeamStatsInd::decode_pb(&snaps[0].encode_pb()).as_ref(), Ok(&snaps[0]));
    assert_eq!(BeamStatsInd::row_key(&snaps[0].beams[2]), 255);
    // The derived FB encoder writes what it wrote when `fb_vectors/` was
    // recorded.
    assert_eq!(snaps[0].encode(SmCodec::Flatb), fb_vectors::vector("beam-3"));
    let none = BeamStatsInd { tstamp_ms: 10, swept: 64, beams: vec![] };
    assert_eq!(none.encode(SmCodec::Flatb), fb_vectors::vector("beam-0"));
    // Likewise the derived PER encoder.
    assert_eq!(snaps[0].encode(SmCodec::Asn1Per), per_vectors::vector("beam-3"));
    assert_eq!(none.encode(SmCodec::Asn1Per), per_vectors::vector("beam-0"));

    // A delta stream through the registry's type-erased hooks, as a
    // controller runs it.
    let desc = flexric_sm::SmDescriptor::new(
        201,
        "test.sm.beam",
        flexric_sm::SmVersion::new(1, 0),
        flexric_sm::RanFuncDef::simple("BEAM", "out-of-crate table SM"),
    )
    .indication::<BeamStatsInd>()
    .delta::<BeamStatsInd>();
    let mut dec = desc.delta_decoder().expect("delta hooks");
    for (frame, snap) in two_frames(&snaps, SmCodec::Flatb).iter().zip(&snaps) {
        match dec.apply(frame, SmCodec::Flatb).expect("own frame") {
            AnyDeltaEvent::Snapshot { snap: got, .. } => {
                assert_eq!(got.downcast_ref::<BeamStatsInd>(), Some(snap));
            }
            AnyDeltaEvent::NeedKeyframe => panic!("lost sync"),
        }
    }
}

/// `buf` with its one occurrence of `from` replaced by `to`.
fn forge(buf: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at: Vec<usize> = (0..buf.len()).filter(|&i| buf[i..].starts_with(from)).collect();
    assert_eq!(at.len(), 1, "{from:02x?} in {buf:02x?}");
    let mut out = buf.to_vec();
    out[at[0]..at[0] + to.len()].copy_from_slice(to);
    out
}

#[test]
fn a_control_payload_declared_outside_the_crate_is_one_declaration() {
    let steer =
        BeamCtrl::Steer { beam: 0xB7, power_dbm: 0x2A, mode: Steering::Fixed { azimuth: 0xABC } };
    let weights = (0..5).map(|i| BeamWeight { beam: i, weight: 200 * u16::from(i) }).collect();
    let msgs = [
        BeamCtrl::Resweep,
        BeamCtrl::SetWeights { weights },
        BeamCtrl::SetWeights { weights: vec![] },
        steer.clone(),
        BeamCtrl::Steer { beam: 0, power_dbm: 63, mode: Steering::Track { rnti: u16::MAX } },
    ];
    for codec in SmCodec::ALL {
        for msg in &msgs {
            let buf = msg.encode(codec);
            assert_eq!(BeamCtrl::decode(codec, &buf).as_ref(), Ok(msg), "{codec:?}");
            // Cut anywhere it is an error or a shorter message, scribbled
            // anywhere an error or a message both encoders write again.
            for at in 0..buf.len() {
                let _ = BeamCtrl::decode(codec, &buf[..at]);
                for byte in [0x00, 0x01, 0x7F, 0xFF, buf[at] ^ 0x40] {
                    let mut scribbled = buf.clone();
                    scribbled[at] = byte;
                    let Ok(got) = BeamCtrl::decode(codec, &scribbled) else { continue };
                    for other in SmCodec::ALL {
                        assert_eq!(BeamCtrl::decode(other, &got.encode(other)).as_ref(), Ok(&got));
                    }
                }
            }
        }
    }

    // FB stages a table's fields side by side in the order pushed: the
    // index, the beam, the power, the steering's index, its azimuth.
    let fb = steer.encode(SmCodec::Flatb);
    let fields = [2, 0xB7, 0x2A, 0, 0xBC, 0x0A];
    for (forged, what) in [
        ([3, 0xB7, 0x2A, 0, 0xBC, 0x0A], "index"),
        ([2, 0xB7, 64, 0, 0xBC, 0x0A], "power_dbm"),
        ([2, 0xB7, 0x2A, 2, 0xBC, 0x0A], "steering index"),
        ([2, 0xB7, 0x2A, 0, 0x10, 0x0E], "azimuth = 3600"),
    ] {
        let got = BeamCtrl::decode(SmCodec::Flatb, &forge(&fb, &fields, &forged));
        let refused =
            matches!(got, Err(CodecError::OutOfRange { .. } | CodecError::BadDiscriminant { .. }));
        assert!(refused, "{what}: {got:?}");
    }
    // PER keeps the ranged fields in as many bits as the range needs: the
    // azimuth in twelve, the index in two.
    let per = |index, azimuth| {
        let mut w = BitWriter::new();
        w.put_bits(index, 2);
        w.put_bits(0xB7, 8);
        w.put_bits(0x2A, 6);
        w.put_bits(0, 1);
        w.put_bits(azimuth, 12);
        w.finish()
    };
    assert_eq!(per(2, 0xABC), steer.encode(SmCodec::Asn1Per));
    for (index, azimuth) in [(2, 3600), (2, 4095), (3, 0xABC)] {
        let got = BeamCtrl::decode(SmCodec::Asn1Per, &per(index, azimuth));
        assert!(matches!(got, Err(CodecError::OutOfRange { .. })), "{index} {azimuth}: {got:?}");
    }
}
