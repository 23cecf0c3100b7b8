//! The fixed-layout FB rows of the statistics SMs (`flexric_sm::schema`).
//!
//! * For arbitrary rows of each bundled row type, the rows written as one
//!   `vec_of_tables` from `Row::{FB_SIZE, FB_VTABLE, fill_fb}` are byte for
//!   byte what an offset vector over one `TableBuilder` per row gives — the
//!   way they were written before, kept here as the reference, with the
//!   values taken from the row's protobuf-style encoding.
//! * A snapshot is a fixed number of reservations in its sink whatever its
//!   row count: header, rows, root table, the root's vtable.  A regression
//!   to one reservation per row fails this count, not a stopwatch.
//! * A decoder reads a row whose table has the row type's layout at fixed
//!   offsets, and any other row slot by slot.  Rows forged out of that
//!   layout — a vtable byte flipped, a slot zeroed, a table cut short by
//!   the end of the message — take the slot path and decode to what the
//!   slot path alone gives, value or error; a row whose vtable is an equal
//!   copy elsewhere keeps the fixed path and its value, and a field set
//!   above its maximum is refused on the fixed path as on the slot path.

mod support;

use flexric_codec::error::CodecError;
use flexric_codec::fb::{FbBuilder, FbView, TableBuilder};
use flexric_codec::pb::{PbReader, PbWriter};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::schema::Row;
use flexric_sm::tc::{TcQueueStats, TcStatsInd};
use flexric_sm::{DeltaRows, SmCodec, SmPayload};
use proptest::prelude::*;
use support::{row, Counting};

/// `rows` under a root table, by `rows_with`.
fn message<R: Row>(rows: &[R], rows_with: impl Fn(&mut FbBuilder, &[R]) -> u32) -> Vec<u8> {
    let mut b = FbBuilder::new();
    let v = rows_with(&mut b, rows);
    let mut root = TableBuilder::new();
    root.off(0, v);
    let root = root.end(&mut b);
    b.finish(root)
}

/// One `TableBuilder` per row: field *k*, as the row's protobuf-style
/// encoding numbers and values it, in slot *k* at the width the vtable
/// leaves it.
fn reference<R: Row>(b: &mut FbBuilder, rows: &[R]) -> u32 {
    let offset = |k: usize| u16::from_le_bytes([R::FB_VTABLE[2 + 2 * k], R::FB_VTABLE[3 + 2 * k]]);
    let slots = (R::FB_VTABLE.len() - 2) / 2;
    b.vec_off_with(rows, |b, row| {
        let mut pb = PbWriter::new();
        row.put_pb(&mut pb);
        let pb = pb.finish();
        let (mut fields, mut t) = (PbReader::new(&pb), TableBuilder::new());
        while let Some((number, v)) = fields.next_field().expect("own bytes") {
            let (k, v) = (number as usize - 1, v.as_uint().expect("a scalar"));
            let end = if k + 1 < slots { offset(k + 1) as usize } else { R::FB_SIZE };
            match end - offset(k) as usize {
                1 => t.u8(k as u16, v as u8),
                2 => t.u16(k as u16, v as u16),
                4 => t.u32(k as u16, v as u32),
                8 => t.u64(k as u16, v),
                w => panic!("a field of {w} bytes"),
            };
        }
        t.end(b)
    })
}

fn rows_match_the_reference<R: Row>(seeds: &[(u32, Vec<u64>)]) -> Result<(), TestCaseError> {
    let rows: Vec<R> = seeds.iter().map(|(key, vals)| row(*key, vals)).collect();
    let ours = message(&rows, |b, rows| {
        b.vec_of_tables(R::FB_SIZE, R::FB_VTABLE, rows, |row, table| row.fill_fb(table))
    });
    prop_assert_eq!(ours, message(&rows, reference));
    Ok(())
}

proptest! {
    #[test]
    fn rows_of_every_bundled_type_match_a_table_builder_per_row(
        seeds in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u64>(), 32..33)),
            0..40,
        ),
    ) {
        rows_match_the_reference::<MacUeStats>(&seeds)?;
        rows_match_the_reference::<RlcBearerStats>(&seeds)?;
        rows_match_the_reference::<PdcpBearerStats>(&seeds)?;
        rows_match_the_reference::<TcQueueStats>(&seeds)?;
    }
}

/// Reservations `snap` makes in its sink, header included; the bytes are
/// those of `encode`.
fn reservations<T: SmPayload>(snap: &T) -> usize {
    let mut b = FbBuilder::over(Counting::default());
    let root = snap.encode_fb(&mut b);
    let sink = b.finish_buf(root);
    assert_eq!(sink.buf, snap.encode(flexric_sm::SmCodec::Flatb));
    sink.reservations
}

#[test]
fn a_snapshot_reserves_the_same_few_times_whatever_its_row_count() {
    fn rows<R: Row>(n: u32) -> Vec<R> {
        (0..n).map(|i| row(i, &[u64::MAX - i as u64; 32])).collect()
    }
    for n in [1, 256] {
        let mac = MacStatsInd { tstamp_ms: 1, cell_prbs: 106, ues: rows(n) };
        let rlc = RlcStatsInd { tstamp_ms: 1, bearers: rows(n) };
        let pdcp = PdcpStatsInd { tstamp_ms: 1, bearers: rows(n) };
        let tc = TcStatsInd { queues: rows(n), ..Default::default() };
        let counts =
            [reservations(&mac), reservations(&rlc), reservations(&pdcp), reservations(&tc)];
        assert_eq!(counts, [4; 4], "{n} rows: header, rows, root table, root vtable");
    }
}

/// The rows of `buf`, an FB snapshot with its rows in root slot `slot`,
/// read slot by slot: what the fixed-layout read must agree with.
fn rows_slot_by_slot<R: Row>(buf: &[u8], slot: u16) -> Result<Vec<R>, CodecError> {
    let v = FbView::parse(buf)?.root()?.vector_or_empty(slot)?;
    (0..v.len()).map(|i| R::get_fb(&v.table_at(i)?)).collect()
}

/// Whether row `i` of `buf` may be read at fixed offsets.
fn fixed<R: Row>(buf: &[u8], slot: u16, i: usize) -> bool {
    let v = FbView::parse(buf).unwrap().root().unwrap().vector_or_empty(slot).unwrap();
    v.table_at(i).unwrap().fixed(R::FB_VTABLE, R::FB_SIZE, &mut None).is_some()
}

fn u32_at(buf: &[u8], at: usize) -> usize {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
}

/// Where row `i`'s offset is kept, in the vector at root slot `slot`.
fn row_offset_at(buf: &[u8], slot: u16, i: usize) -> usize {
    let root = u32_at(buf, 4);
    let vt = u32_at(buf, root);
    let rel =
        u16::from_le_bytes([buf[vt + 2 + 2 * slot as usize], buf[vt + 3 + 2 * slot as usize]]);
    let vector = u32_at(buf, root + rel as usize);
    vector + 4 + 4 * i
}

enum Forge {
    /// Row `i` points at a copy of its vtable with one byte XORed.
    Flip(usize, u8),
    /// … with one slot's offset zeroed: the field is absent.
    ZeroSlot(usize),
    /// … an equal copy: still the row type's layout.
    Moved,
    /// Row `i`'s table moved to the end of the message and cut this many
    /// bytes short of its size.
    Cut(usize),
    /// Every bit of field `k` of row `i` set, in place: the layout holds,
    /// and the value is above the maximum of any field narrower than its
    /// type.
    Saturate(usize),
}

/// `buf` with row `i` forged by `how`.
fn forged<R: Row>(buf: &[u8], slot: u16, i: usize, how: &Forge) -> Vec<u8> {
    let mut out = buf.to_vec();
    let at = row_offset_at(buf, slot, i);
    let table = u32_at(buf, at);
    let end = out.len() as u32;
    let offset = |k: usize| u16::from_le_bytes([R::FB_VTABLE[2 + 2 * k], R::FB_VTABLE[3 + 2 * k]]);
    match how {
        Forge::Cut(cut) => {
            out.extend_from_slice(&buf[table..table + R::FB_SIZE - cut]);
            out[at..at + 4].copy_from_slice(&end.to_le_bytes());
            return out;
        }
        Forge::Saturate(k) => {
            let last = *k + 1 == (R::FB_VTABLE.len() - 2) / 2;
            let end = if last { R::FB_SIZE } else { offset(k + 1) as usize };
            out[table + offset(*k) as usize..table + end].fill(0xFF);
            return out;
        }
        _ => {}
    }
    let vt = u32_at(buf, table);
    let mut vtable = buf[vt..vt + R::FB_VTABLE.len()].to_vec();
    match how {
        Forge::Flip(j, mask) => vtable[*j] ^= mask,
        Forge::ZeroSlot(k) => vtable[2 + 2 * k..4 + 2 * k].fill(0),
        Forge::Moved | Forge::Cut(_) | Forge::Saturate(_) => {}
    }
    out.extend_from_slice(&vtable);
    out[table..table + 4].copy_from_slice(&end.to_le_bytes());
    out
}

fn forged_rows_decode_as_the_slot_path_does<T>(snap: &T, slot: u16)
where
    T: SmPayload + DeltaRows,
    T::Row: Row,
{
    let buf = snap.encode(SmCodec::Flatb);
    let rows = |buf: &[u8]| T::decode(SmCodec::Flatb, buf).map(|s| s.rows().to_vec());
    assert_eq!(rows(&buf), Ok(snap.rows().to_vec()));
    let vt = <T::Row as Row>::FB_VTABLE.len();
    let flips = (0..vt).flat_map(|j| [0x01, 0x80, 0xFF].map(|mask| Forge::Flip(j, mask)));
    let zeros = (0..(vt - 2) / 2).map(Forge::ZeroSlot);
    let cuts = (1..=<T::Row as Row>::FB_SIZE - 4).map(Forge::Cut);
    let saturated = (0..(vt - 2) / 2).map(Forge::Saturate);
    let forges: Vec<Forge> =
        flips.chain(zeros).chain(cuts).chain(saturated).chain([Forge::Moved]).collect();
    for i in 0..snap.rows().len() {
        for how in &forges {
            let bad = forged::<T::Row>(&buf, slot, i, how);
            let moved = matches!(how, Forge::Moved);
            let layout = moved || matches!(how, Forge::Saturate(_));
            assert_eq!(fixed::<T::Row>(&bad, slot, i), layout, "{}: row {i}", T::NAME);
            let want = rows_slot_by_slot::<T::Row>(&bad, slot);
            assert_eq!(rows(&bad), want, "{}: row {i}", T::NAME);
            if moved {
                assert_eq!(want, Ok(snap.rows().to_vec()));
            }
        }
    }
}

#[test]
fn rows_forged_out_of_the_fixed_layout_decode_as_the_slot_path_does() {
    fn rows<R: Row>(n: u32) -> Vec<R> {
        (0..n).map(|i| row(0x4601 + i, &[0x1234_5678_9ABC_DEF0 >> i; 32])).collect()
    }
    let mac = MacStatsInd { tstamp_ms: 1, cell_prbs: 106, ues: rows(3) };
    forged_rows_decode_as_the_slot_path_does(&mac, 2);
    forged_rows_decode_as_the_slot_path_does(&RlcStatsInd { tstamp_ms: 1, bearers: rows(3) }, 1);
    forged_rows_decode_as_the_slot_path_does(&PdcpStatsInd { tstamp_ms: 1, bearers: rows(3) }, 1);
}
