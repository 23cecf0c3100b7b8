//! A new PDU is one declaration.
//!
//! A message shape no crate knows — an optional blob, a list of a
//! sub-structure, a ranged integer, an enum — is declared here, outside
//! `crates/codec/src`, through the grammar E2AP's own messages are declared
//! with (`flexric_codec::schema`: `wire_table!`, `wire_enum!`), as
//! `crates/sm/tests/schema.rs` declares a statistics SM.  Without a line of
//! codec code of its own it round-trips in PER and in FB, never panics on a
//! truncated or scribbled frame, and refuses a forged out-of-range field in
//! both encodings.

use bytes::Bytes;
use flexric_codec::fb::{FbBuilder, FbView};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::schema::Table;
use flexric_codec::{wire_enum, wire_table, CodecError, Result};
use proptest::prelude::*;

/// How a beam is steered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Steering {
    Fixed = 0,
    Tracking = 1,
    Sweeping = 2,
}

impl Steering {
    fn from_u8(v: u8) -> Option<Self> {
        [Steering::Fixed, Steering::Tracking, Steering::Sweeping].get(v as usize).copied()
    }
}
wire_enum!(Steering = 2);

/// One beam of the report.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Beam {
    index: u8,
    /// Tenths of a degree, `0..=3599`.
    azimuth: u16,
    steering: Steering,
}
wire_table!(Beam {
    index: u8 = bits(6) => 0,
    azimuth: u16 = range(0, 3599) => 1,
    steering: Steering => 2,
});

/// The message: declared in struct order, its FB slots in another.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BeamReport {
    cell: u32,
    calibration: Option<Bytes>,
    beams: Vec<Beam>,
    /// `0..=100_000`: past 65 535 PER sends a length and octets.
    power_mw: u32,
    label: String,
}
wire_table!(BeamReport {
    cell: u32 = uint => 0,
    calibration: Option<Bytes> => 3,
    beams: Vec<Beam> => 2,
    power_mw: u32 = range(0, 100_000) => 1,
    label: String => 4,
});

/// [`Beam`] and [`BeamReport`] with every integer as wide as its type: what
/// a peer that ignores the constraints could send.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ForgedBeam {
    index: u8,
    azimuth: u16,
    steering: u8,
}
wire_table!(ForgedBeam {
    index: u8 = bits(8) => 0,
    azimuth: u16 = bits(16) => 1,
    steering: u8 = bits(8) => 2,
});
#[derive(Debug, Clone, PartialEq, Eq)]
struct ForgedReport {
    cell: u32,
    calibration: Option<Bytes>,
    beams: Vec<ForgedBeam>,
    power_mw: u32,
    label: String,
}
wire_table!(ForgedReport {
    cell: u32 = uint => 0,
    calibration: Option<Bytes> => 3,
    beams: Vec<ForgedBeam> => 2,
    power_mw: u32 = uint => 1,
    label: String => 4,
});

fn encode_per<T: Table>(m: &T) -> Vec<u8> {
    let mut w = BitWriter::new();
    m.put_fields(&mut w);
    w.finish()
}

fn decode_per<T: Table>(buf: &[u8]) -> Result<T> {
    T::get_fields(&mut BitReader::new(buf))
}

fn encode_fb<T: Table>(m: &T) -> Vec<u8> {
    let mut b = FbBuilder::new();
    let root = m.to_table(&mut b);
    b.finish(root)
}

fn decode_fb<T: Table>(buf: &[u8]) -> Result<T> {
    T::from_table(&FbView::parse(buf)?.root()?, None)
}

fn sample() -> BeamReport {
    BeamReport {
        cell: 0xDEAD_BEEF,
        calibration: Some(Bytes::from_static(b"\x00cal")),
        beams: vec![
            Beam { index: 63, azimuth: 3599, steering: Steering::Sweeping },
            Beam { index: 0, azimuth: 0, steering: Steering::Fixed },
        ],
        power_mw: 100_000,
        label: "n78/\u{3b2}".into(),
    }
}

fn arb_report() -> impl Strategy<Value = BeamReport> {
    (
        any::<u32>(),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
        proptest::collection::vec((0u8..64, 0u16..3600, 0u8..3), 0..6),
        0u32..=100_000,
        "[a-z0-9/]{0,12}",
    )
        .prop_map(|(cell, calibration, beams, power_mw, label)| BeamReport {
            cell,
            calibration: calibration.map(Bytes::from),
            beams: beams
                .into_iter()
                .map(|(index, azimuth, s)| Beam {
                    index,
                    azimuth,
                    steering: Steering::from_u8(s).unwrap(),
                })
                .collect(),
            power_mw,
            label,
        })
}

#[test]
fn a_declared_message_round_trips_in_both_encodings() {
    let empty =
        BeamReport { cell: 0, calibration: None, beams: vec![], power_mw: 0, label: String::new() };
    for m in [sample(), empty] {
        assert_eq!(decode_per::<BeamReport>(&encode_per(&m)).as_ref(), Ok(&m));
        assert_eq!(decode_fb::<BeamReport>(&encode_fb(&m)).as_ref(), Ok(&m));
    }
    // PER is the fields in struct order: the cell (a length and four
    // octets) leads.
    assert_eq!(encode_per(&sample())[..5], [4, 0xDE, 0xAD, 0xBE, 0xEF]);
    // FB is laid out in slot order: the cell (slot 0), the power (slot 1)
    // right behind it, though the struct has two fields between them.
    let fb = encode_fb(&sample());
    let cell = fb.windows(4).position(|w| w == 0xDEAD_BEEFu32.to_le_bytes()).unwrap();
    assert_eq!(fb[cell + 4..cell + 8], 100_000u32.to_le_bytes());
}

#[test]
fn a_forged_out_of_range_field_is_refused_in_both_encodings() {
    let legal = ForgedReport {
        cell: 7,
        calibration: None,
        beams: vec![ForgedBeam { index: 63, azimuth: 3599, steering: 2 }],
        power_mw: 100_000,
        label: "x".into(),
    };
    let forged = |f: fn(&mut ForgedReport)| {
        let mut m = legal.clone();
        f(&mut m);
        m
    };
    let out_of_range = |r: Result<BeamReport>| matches!(r, Err(CodecError::OutOfRange { .. }));
    // What the twin writes the declared message reads, while it is legal.
    assert_eq!(decode_fb::<BeamReport>(&encode_fb(&legal)).unwrap().power_mw, 100_000);
    // FB holds every integer whole: each may be forged.
    for m in [
        forged(|m| m.power_mw = 100_001),
        forged(|m| m.power_mw = u32::MAX),
        forged(|m| m.beams[0].azimuth = 3600),
        forged(|m| m.beams[0].index = 64),
    ] {
        assert!(out_of_range(decode_fb(&encode_fb(&m))), "{m:?}");
    }
    let steering = decode_fb::<BeamReport>(&encode_fb(&forged(|m| m.beams[0].steering = 3)));
    assert!(matches!(steering, Err(CodecError::BadDiscriminant { value: 3, .. })));

    // PER packs `azimuth` into twelve bits — 3600..=4095 can be forged —
    // and sends `power_mw` as octets: any value can.
    let per = |cell: u32, azimuth: u64, power_mw: u64| {
        let mut w = BitWriter::new();
        w.put_uint(cell as u64);
        w.put_bit(false); // no calibration
        w.put_length(1);
        w.put_bits(63, 6);
        w.put_bits(azimuth, 12);
        w.put_bits(2, 2); // sweeping
        w.put_uint(power_mw);
        w.put_utf8("x");
        w.finish()
    };
    assert_eq!(decode_per::<BeamReport>(&per(7, 3599, 100_000)).unwrap().beams[0].azimuth, 3599);
    assert!(out_of_range(decode_per(&per(7, 3600, 100_000))));
    assert!(out_of_range(decode_per(&per(7, 4095, 100_000))));
    assert!(out_of_range(decode_per(&per(7, 3599, 100_001))));
    assert!(out_of_range(decode_per(&per(7, 3599, u64::MAX))));
}

proptest! {
    #[test]
    fn any_declared_message_round_trips(m in arb_report()) {
        prop_assert_eq!(decode_per::<BeamReport>(&encode_per(&m)).as_ref(), Ok(&m));
        prop_assert_eq!(decode_fb::<BeamReport>(&encode_fb(&m)).as_ref(), Ok(&m));
    }

    #[test]
    fn truncated_and_scribbled_frames_never_panic(
        m in arb_report(),
        frac in 0.0f64..1.0,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        for buf in [encode_per(&m), encode_fb(&m)] {
            let cut = ((buf.len() as f64) * frac) as usize;
            let _ = decode_per::<BeamReport>(&buf[..cut]);
            let _ = decode_fb::<BeamReport>(&buf[..cut]);
            let mut scribbled = buf.clone();
            scribbled[at % buf.len()] = byte;
            // Whatever a decoder still accepts, both encoders can write
            // again.
            let accepted = [decode_per::<BeamReport>(&scribbled), decode_fb(&scribbled)];
            for got in accepted.into_iter().flatten() {
                prop_assert_eq!(decode_per::<BeamReport>(&encode_per(&got)).as_ref(), Ok(&got));
                prop_assert_eq!(decode_fb::<BeamReport>(&encode_fb(&got)).as_ref(), Ok(&got));
            }
        }
    }
}
