//! The PER rows of the statistics SMs (`flexric_sm::schema`), each written
//! through one window of the bit writer.
//!
//! * For arbitrary rows of each bundled row type, from every bit the row
//!   before can end on, `Row::put_per` writes byte for byte what one
//!   `BitWriter` call per field writes — the way rows were written before,
//!   kept here as the reference.
//! * `Row::PER_MAX`, the window a row opens, is what the row with every
//!   field at its maximum takes from the worst starting bit: never too
//!   small, and no larger than it has to be.
//! * A snapshot reserves in its sink once per row and a fixed few times
//!   around them.  A regression to one reservation per field fails this
//!   count, not a stopwatch.

mod support;

use bytes::BytesMut;
use flexric_codec::per::BitWriter;
use flexric_codec::ByteSink;
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::schema::{Kind, Row};
use flexric_sm::tc::{TcQueueStats, TcStatsInd};
use flexric_sm::{SmCodec, SmPayload};
use proptest::prelude::*;
use support::{row, Counting};

/// A row type and its key fields — kind and width of the type — which
/// `Row::FIELDS` leaves out.
trait Keyed: Row {
    const KEYS: &'static [(Kind, u32)];
}
impl Keyed for MacUeStats {
    const KEYS: &'static [(Kind, u32)] = &[(Kind::bits(16), 16)];
}
impl Keyed for RlcBearerStats {
    const KEYS: &'static [(Kind, u32)] = &[(Kind::bits(16), 16), (Kind::bits(8), 8)];
}
impl Keyed for PdcpBearerStats {
    const KEYS: &'static [(Kind, u32)] = &[(Kind::bits(16), 16), (Kind::bits(8), 8)];
}
impl Keyed for TcQueueStats {
    const KEYS: &'static [(Kind, u32)] = &[(Kind::uint, 32)];
}

/// The row with every field, key fields included, at its maximum.
fn top<R: Row>() -> R {
    let mut top = R::with_key(u32::MAX);
    for (i, f) in (0..).zip(R::FIELDS) {
        assert!(top.set_field(i, f.max));
    }
    top
}

/// One writer call per field, keys first: `Field::put_per` as it was
/// before a row was a window.
fn reference<R: Keyed, B: ByteSink>(row: &R, w: &mut BitWriter<B>) {
    let mut put = |kind, v| match kind {
        Kind::bits(n) => w.put_bits(v, n),
        Kind::range(lo, hi) => w.put_constrained(v, lo, hi),
        Kind::uint => w.put_uint(v),
    };
    let mut shift = 0;
    for (kind, width) in R::KEYS {
        put(*kind, (row.key() as u64 >> shift) & (u64::MAX >> (64 - width)));
        shift += width;
    }
    for (i, f) in (0..).zip(R::FIELDS) {
        put(f.kind, row.field(i));
    }
}

/// `offset` bits, then `rows` by `put`, after whatever `sink` holds.
fn written<R: Row, B: ByteSink>(
    sink: B,
    offset: u32,
    rows: &[R],
    put: impl Fn(&R, &mut BitWriter<B>),
) -> B {
    let mut w = BitWriter::over(sink);
    w.put_bits(u64::MAX, offset);
    rows.iter().for_each(|row| put(row, &mut w));
    w.into_buf()
}

fn rows_match_the_reference<R: Keyed>(seeds: &[(u32, Vec<u64>)]) -> Result<(), TestCaseError> {
    let rows: Vec<R> = seeds.iter().map(|(key, vals)| row(*key, vals)).collect();
    for offset in 0..8 {
        let want = written(vec![0xAA; 3], offset, &rows, reference);
        prop_assert_eq!(&written(vec![0xAA; 3], offset, &rows, R::put_per), &want);
        let scratch = written(BytesMut::from(&[0xAA; 3][..]), offset, &rows, R::put_per);
        prop_assert_eq!(&scratch[..], &want[..]);
    }
    Ok(())
}

proptest! {
    #[test]
    fn rows_of_every_bundled_type_match_a_writer_call_per_field(
        seeds in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u64>(), 32..33)),
            0..12,
        ),
    ) {
        rows_match_the_reference::<MacUeStats>(&seeds)?;
        rows_match_the_reference::<RlcBearerStats>(&seeds)?;
        rows_match_the_reference::<PdcpBearerStats>(&seeds)?;
        rows_match_the_reference::<TcQueueStats>(&seeds)?;
    }
}

/// Bytes the all-maximum row of `R` takes from each starting bit, counted
/// from the byte it starts in.
fn longest_row<R: Keyed>() -> [usize; 8] {
    let top = [top::<R>()];
    std::array::from_fn(|offset| {
        let ours = written(Vec::new(), offset as u32, &top, R::put_per);
        assert_eq!(ours, written(Vec::new(), offset as u32, &top, reference));
        ours.len()
    })
}

#[test]
fn the_window_of_a_row_is_its_longest_encoding() {
    fn check<R: Keyed>(name: &str, per_max: usize) {
        let longest = longest_row::<R>();
        let worst = *longest.iter().max().expect("eight starts");
        // Never too small (a debug build would also trip the window's own
        // assertion), and no slack beyond the word the issue allows.
        assert!(longest.iter().all(|len| *len <= R::PER_MAX), "{name}: {longest:?}");
        assert!(R::PER_MAX <= worst + 8, "{name}: {} for {worst}", R::PER_MAX);
        // In fact exact, and reached from the last bit of a byte.
        assert_eq!((R::PER_MAX, longest[7]), (per_max, per_max), "{name}");
    }
    // 7 + 25 bits, nine integers of 2 × 5, 5 × 9 and 2 × 5 bytes, 20 bits.
    check::<MacUeStats>("mac", 4 + 65 + 3);
    // 7 + 24 bits, then 7 × 9 + 5 bytes.
    check::<RlcBearerStats>("rlc", 4 + 68);
    check::<PdcpBearerStats>("pdcp", 4 + 63);
    // The byte the row starts in, then integers only.
    check::<TcQueueStats>("tc", 1 + 5 + 9 + 5 + 5 * 9);
}

/// Reservations `snap` makes in its sink; the bytes are those of `encode`.
fn reservations<T: SmPayload>(snap: &T) -> usize {
    let mut w = BitWriter::over(Counting::default());
    snap.encode_per(&mut w);
    let sink = w.into_buf();
    assert_eq!(sink.buf, snap.encode(SmCodec::Asn1Per));
    sink.reservations
}

#[test]
fn a_snapshot_reserves_once_per_row_and_a_few_times_around_them() {
    fn rows<R: Row>(n: u32) -> Vec<R> {
        (0..n).map(|i| row(i, &[u64::MAX - i as u64; 32])).collect()
    }
    for n in [1, 256] {
        let mac = MacStatsInd { tstamp_ms: 1, cell_prbs: 106, ues: rows(n) };
        let rlc = RlcStatsInd { tstamp_ms: 1, bearers: rows(n) };
        let pdcp = PdcpStatsInd { tstamp_ms: 1, bearers: rows(n) };
        let tc = TcStatsInd { queues: rows(n), ..Default::default() };
        let n = n as usize;
        // Timestamp, aux scalar if any, row count; the TC indication has
        // five fields of its own.
        assert_eq!(reservations(&mac), n + 3, "{n} rows");
        assert_eq!(reservations(&rlc), n + 2, "{n} rows");
        assert_eq!(reservations(&pdcp), n + 2, "{n} rows");
        assert_eq!(reservations(&tc), n + 5, "{n} rows");
    }
}
