//! The byte-cursor row reader of `flexric_codec::per`,
//! [`BitReader::get_row_uints`], held to the general read it stands for:
//! one `get_uint` per value.  From any bit offset into any bytes, with
//! values of every length form (0, 1 to 8, above 8, the long forms of 1 to
//! 8) and the input cut anywhere in its last nine bytes, both give the same
//! values, leave the cursor on the same bit and fail at the same read.
//!
//! The reader's shifts and slice loads must agree between debug and release
//! builds, so CI runs this file in both.

use flexric_codec::per::BitReader;
use proptest::prelude::*;

/// One value of a row as the wire may carry it.
#[derive(Debug, Clone)]
enum Value {
    /// A one-byte length of 0 to 8 (zero is refused) and as many octets.
    Short(u8, u64),
    /// A one-byte length above 8, refused, and whatever follows.
    Over(u8),
    /// The two-byte form of a length of 0 to 8, which `get_uint` takes.
    Long(u8, u64),
    /// The four-byte form of a length of 0 to 8.
    Wide(u8, u64),
    /// A byte of anything.
    Raw(u8),
}

impl Value {
    fn put(&self, out: &mut Vec<u8>) {
        let octets = |n: u8, v: u64| v.to_be_bytes()[8 - n as usize..].to_vec();
        match *self {
            Value::Short(n, v) => {
                out.push(n);
                out.extend(octets(n, v));
            }
            Value::Over(n) => out.push(n),
            Value::Long(n, v) => {
                out.extend([0x80, n]);
                out.extend(octets(n, v));
            }
            Value::Wide(n, v) => {
                out.extend([0xC0, 0, 0, n]);
                out.extend(octets(n, v));
            }
            Value::Raw(b) => out.push(b),
        }
    }
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..9u8, any::<u64>()).prop_map(|(n, v)| Value::Short(n, v)),
        (0..9u8, any::<u64>()).prop_map(|(n, v)| Value::Short(n, v)),
        (1..9u8, any::<u64>()).prop_map(|(n, v)| Value::Short(n, v)),
        (9..=127u8).prop_map(Value::Over),
        (0..9u8, any::<u64>()).prop_map(|(n, v)| Value::Long(n, v)),
        (0..9u8, any::<u64>()).prop_map(|(n, v)| Value::Wide(n, v)),
        any::<u8>().prop_map(Value::Raw),
    ]
}

/// Moves `r` on by `bits` through the general reader.
fn skip(r: &mut BitReader, mut bits: usize) {
    while bits > 0 {
        let n = bits.min(64);
        r.get_bits(n as u32).expect("inside the buffer");
        bits -= n;
    }
}

/// `count` values read both ways from bit `start` of `buf`, where a row's
/// head would leave the cursor.
fn check(buf: &[u8], start: usize, count: u32) {
    let (mut fast, mut slow) = (BitReader::new(buf), BitReader::new(buf));
    skip(&mut fast, start);
    skip(&mut slow, start);
    let mut got = Vec::new();
    let res = fast.get_row_uints(count, |v| got.push(v));
    let (mut want, mut want_res) = (Vec::new(), Ok(()));
    for _ in 0..count {
        match slow.get_uint() {
            Ok(v) => want.push(v),
            Err(e) => {
                want_res = Err(e);
                break;
            }
        }
    }
    let at = format!("{count} values from bit {start} of {buf:02x?}");
    assert_eq!(got, want, "{at}");
    assert_eq!(res, want_res, "{at}");
    assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "{at}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Rows as a delta frame lays them out — a head from a byte boundary
    /// or from inside one, its values right after — with every length
    /// form, cut at each of the last twelve bytes.
    #[test]
    fn row_reads_match_the_general_reads(
        prefix in prop::collection::vec(any::<u8>(), 0..12),
        back in 0..8usize,
        mid_byte in any::<bool>(),
        nbits in 1..=64u32,
        head in any::<u64>(),
        values in prop::collection::vec(value(), 0..16),
        extra in 0..3u32,
        tail in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut buf = prefix.clone();
        let start = if mid_byte { (8 * buf.len()).saturating_sub(back) } else { 8 * buf.len() };
        // The head's bytes from `start` on, then the values from the next
        // byte boundary.
        let head_end = (start + nbits as usize).div_ceil(8);
        buf.resize(head_end.max(buf.len()), 0);
        let mut word = head.to_be_bytes().to_vec();
        word.resize(head_end - start / 8, 0);
        for (b, h) in buf[start / 8..head_end].iter_mut().zip(word) {
            *b ^= h;
        }
        values.iter().for_each(|v| v.put(&mut buf));
        buf.extend(&tail);
        let count = values.len() as u32 + extra;
        let values_at = start + nbits as usize;
        for len in buf.len().saturating_sub(12)..=buf.len() {
            if values_at <= 8 * len {
                check(&buf[..len], values_at, count);
            }
        }
    }

    /// Any bytes, any bit offset, any value count.
    #[test]
    fn reads_of_arbitrary_bytes_match_the_general_reads(
        buf in prop::collection::vec(any::<u8>(), 0..48),
        start in any::<prop::sample::Index>(),
        count in 0..24u32,
    ) {
        let start = start.index(8 * buf.len() + 1);
        check(&buf, start, count);
        check(&buf, start / 8 * 8, count);
    }
}

/// The edges, pinned: a value that ends exactly where the input does, one
/// a byte short, and one whose nine-byte window runs a byte past the end.
#[test]
fn values_at_the_end_of_the_input() {
    for n in 1..=8u8 {
        let mut buf = vec![0u8; 6];
        Value::Short(n, u64::MAX >> 3).put(&mut buf);
        for cut in buf.len() - 2..=buf.len() {
            check(&buf[..cut], 48, 1);
            check(&buf[..cut], 45, 1);
        }
    }
    // A row of an empty bitmap leaves the next one mid-byte.
    check(&[0xA5; 16], 45, 0);
    check(&[0xA5; 16], 90, 2);
}
