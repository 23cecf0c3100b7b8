//! What `fb_rows.rs` and `per_rows.rs` share: arbitrary rows, and a sink
//! that counts the calls that can reserve room — what holds an encoder to a
//! number of reservations, where a stopwatch would hold it to nothing.

use flexric_codec::ByteSink;
use flexric_sm::schema::Row;

/// Row `key` with field `i` drawn from `vals[i]`, at any width up to what
/// the field may hold.
pub fn row<R: Row>(key: u32, vals: &[u64]) -> R {
    let mut row = R::with_key(key);
    for ((i, f), v) in (0..).zip(R::FIELDS).zip(vals) {
        let v = v >> (v % 64);
        assert!(row.set_field(i, f.max.checked_add(1).map_or(v, |over| v % over)));
    }
    row
}

#[derive(Default)]
pub struct Counting {
    pub buf: Vec<u8>,
    pub reservations: usize,
}

impl ByteSink for Counting {
    fn push_byte(&mut self, b: u8) {
        self.reservations += 1;
        self.buf.push_byte(b);
    }
    fn put_slice(&mut self, bytes: &[u8]) {
        self.reservations += 1;
        self.buf.put_slice(bytes);
    }
    fn len(&self) -> usize {
        self.buf.len()
    }
    fn as_slice(&self) -> &[u8] {
        &self.buf
    }
    fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }
    fn grow(&mut self, n: usize) -> &mut [u8] {
        self.reservations += 1;
        self.buf.grow(n)
    }
    fn truncate(&mut self, len: usize) {
        ByteSink::truncate(&mut self.buf, len);
    }
}
