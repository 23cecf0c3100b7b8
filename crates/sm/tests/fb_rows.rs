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

mod support;

use flexric_codec::fb::{FbBuilder, TableBuilder};
use flexric_codec::pb::{PbReader, PbWriter};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::schema::Row;
use flexric_sm::tc::{TcQueueStats, TcStatsInd};
use flexric_sm::SmPayload;
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
