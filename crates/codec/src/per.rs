//! Aligned-PER-style bit-level encoding primitives.
//!
//! This is a from-scratch subset of ASN.1 aligned PER (X.691) sufficient for
//! the E2AP and E2SM schemas in this repository.  It reproduces PER's
//! performance signature — bit-packing on encode, mandatory sequential
//! decode before any field can be accessed — which is the property the
//! FlexRIC paper measures in Figs. 7 and 8b.
//!
//! Supported forms:
//! * bits and fixed-width bit fields,
//! * constrained whole numbers (bit-field for ranges < 64 Ki, aligned
//!   minimal-octet form above),
//! * unconstrained unsigned integers (aligned, length-prefixed minimal
//!   octets),
//! * length determinants (1 byte < 128, 2 bytes < 16 Ki, and — as a
//!   documented deviation from X.691, which would fragment — a 4-byte form
//!   with a `11` prefix for lengths up to 2³⁰),
//! * octet strings and UTF-8 strings,
//! * optional-presence bitmaps (plain bits) and choice indices.
//!
//! Bit fields are packed word-at-a-time: the writer shifts fields into a
//! word and stores whole words, [`BitReader::get_bits`] and
//! [`BitReader::get_uint`] take one eight-byte load and shift — no loop per
//! bit or per byte.  The original per-bit loops are kept as
//! [`BitWriter::put_bits_bitwise`] / [`BitReader::get_bits_bitwise`] so
//! differential tests and benchmarks can pin the word-level versions to
//! them bit for bit.  The values of a delta frame's rows have a reader of
//! their own, [`BitReader::get_row_uints`]: a byte cursor that reads
//! exactly what `get_uint` reads.
//!
//! **The window.**  The writer reserves once per unit, and the unit is
//! whatever its caller can bound: [`BitWriter::window`] grows the sink by a
//! stated maximum, hands out a [`Cursor`] over that room — the one
//! implementation of the bit stores: plain slice stores at a local
//! position, no capacity check, no length kept, adjacent bit fields merged
//! into one store — and gives back the bytes that were not needed when it
//! closes.  A row of a statistics SM is one window
//! (`flexric_sm::schema`: 14 fields, one reservation, straight-line
//! stores), a changed row of a delta frame another.  The per-field calls
//! ([`BitWriter::put_bits`], [`put_uint`](BitWriter::put_uint),
//! [`put_length`](BitWriter::put_length),
//! [`put_constrained`](BitWriter::put_constrained)) are windows of one
//! field, for payloads written a field at a time; an octet string is its
//! length and then one copy of its bytes into room nothing filled first.
//!
//! The writer is generic over a [`ByteSink`], so the same encode body can
//! produce an owned `Vec<u8>` or append into a reusable
//! [`bytes::BytesMut`] scratch buffer (the `encode_into` path).

use bytes::Bytes;

use crate::error::{CodecError, Result};
use crate::sink::ByteSink;

/// Maximum length representable by [`BitWriter::put_length`].
pub const MAX_LENGTH: usize = (1 << 30) - 1;

/// Bit-oriented writer producing aligned-PER-style output.
#[derive(Debug, Default)]
pub struct BitWriter<B: ByteSink = Vec<u8>> {
    buf: B,
    /// Buffer length at construction; bytes before this index belong to the
    /// caller (e.g. a reserved frame header) and are never touched.
    base: usize,
    /// Number of valid bits in the last byte of `buf` (0 ⇒ byte-aligned).
    partial_bits: u8,
}

impl BitWriter {
    /// Creates an empty writer backed by an owned `Vec<u8>`.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an owned writer with a capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(cap), base: 0, partial_bits: 0 }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bytes a [`Cursor`] store may reach past the last bit written: every
/// store is a whole word.
const WORD: usize = 8;

impl<B: ByteSink> BitWriter<B> {
    /// Wraps an existing buffer, appending after its current contents.
    ///
    /// Existing bytes are left untouched; [`Self::len_bytes`] counts only
    /// bytes written through this writer.  Recover the buffer with
    /// [`Self::into_buf`].
    pub fn over(buf: B) -> Self {
        let base = buf.len();
        BitWriter { buf, base, partial_bits: 0 }
    }

    /// Consumes the writer, returning the underlying buffer.
    pub fn into_buf(self) -> B {
        self.buf
    }

    /// Number of whole bytes written so far (including a partial last byte).
    pub fn len_bytes(&self) -> usize {
        self.buf.len() - self.base
    }

    /// Opens a window: room for whatever `f` writes through the [`Cursor`],
    /// reserved in the sink once and cut back to what was written when `f`
    /// returns.  `max` is the most bytes `f` may write, counted from the
    /// byte the writer is in (a partial last byte is the window's first).
    #[inline]
    pub fn window<R>(&mut self, max: usize, f: impl FnOnce(&mut Cursor<'_>) -> R) -> R {
        let partial = u32::from(self.partial_bits % 8);
        let start = self.buf.len() - usize::from(partial != 0);
        self.buf.grow(max + WORD);
        let room = &mut self.buf.as_mut_slice()[start..][..max + WORD];
        // Fresh room is zero, so this is the partial byte or nothing.
        let mut cursor = Cursor { acc: u64::from(room[0]) << 56, nacc: partial, room, at: 0 };
        let out = f(&mut cursor);
        let partial = cursor.nacc % 8;
        cursor.align();
        let end = cursor.at;
        debug_assert!(end <= max, "{end} bytes written through a window of {max}");
        self.buf.truncate(start + end);
        self.partial_bits = partial as u8;
        out
    }

    /// Writes a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.buf.push_byte(0);
        }
        if bit {
            let last = self.buf.as_mut_slice().last_mut().expect("pushed above");
            *last |= 1 << (7 - self.partial_bits);
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Writes the low `nbits` bits of `value`, most-significant first: a
    /// one-field window ([`Cursor::put_bits`]).  Bit-exact with
    /// [`Self::put_bits_bitwise`].
    pub fn put_bits(&mut self, value: u64, nbits: u32) {
        self.window(1 + 8, |c| c.put_bits(value, nbits));
    }

    /// Reference bit-by-bit implementation of [`Self::put_bits`].
    ///
    /// Kept for differential tests; the word-level `put_bits` must stay
    /// bit-exact with this loop.
    pub fn put_bits_bitwise(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        for i in (0..nbits).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.partial_bits = 0;
    }

    /// Writes raw bytes (aligned).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.align();
        self.buf.put_slice(bytes);
    }

    /// Writes a PER length determinant (aligned).
    ///
    /// `len < 128` → 1 byte; `len < 16384` → 2 bytes with a `10` prefix;
    /// otherwise 4 bytes with a `11` prefix (deviation from X.691
    /// fragmentation, see module docs).
    pub fn put_length(&mut self, len: usize) {
        self.window(1 + 4, |c| c.put_length(len));
    }

    /// Writes a constrained whole number in `lo..=hi`.
    ///
    /// Range < 64 Ki uses an unaligned bit-field of minimal width; larger
    /// ranges use the aligned length + minimal-octets form.
    pub fn put_constrained(&mut self, value: u64, lo: u64, hi: u64) {
        self.window(1 + 9, |c| c.put_constrained(value, lo, hi));
    }

    /// Writes an unconstrained unsigned integer (aligned, length-prefixed).
    pub fn put_uint(&mut self, value: u64) {
        self.window(1 + 9, |c| c.put_uint(value));
    }

    /// Writes an octet string: length determinant + raw bytes, each copied
    /// once into room nothing filled first.
    pub fn put_octets(&mut self, bytes: &[u8]) {
        self.put_length(bytes.len());
        self.buf.put_slice(bytes);
    }

    /// Writes an octet string whose bytes `fill` appends to the sink: the
    /// bytes of [`Self::put_octets`], for a string encoded straight into
    /// the output instead of into a buffer of its own first.  Room for the
    /// two-byte length form is left ahead of them; a string that takes
    /// another form (under 128 bytes, or 16 Ki and more) is moved once to
    /// fit it.  `fill` may only append.
    pub fn put_octets_with(&mut self, fill: impl FnOnce(&mut B)) {
        self.align();
        let at = self.buf.len();
        self.buf.grow(2);
        fill(&mut self.buf);
        let len = self.buf.len() - at - 2;
        let (form, n) = length_form(len);
        if n == 4 {
            self.buf.grow(2);
        }
        let buf = self.buf.as_mut_slice();
        buf.copy_within(at + 2..at + 2 + len, at + n);
        buf[at..at + n].copy_from_slice(&form[..n]);
        self.buf.truncate(at + n + len);
    }

    /// Writes a UTF-8 string as an octet string.
    pub fn put_utf8(&mut self, s: &str) {
        self.put_octets(s.as_bytes());
    }
}

/// The position inside a [`BitWriter::window`]: the one implementation of
/// the bit stores.
///
/// Bits collect in a word and reach the window as whole words — when the
/// word is full, at a byte-aligned field, when the window closes — so
/// adjacent bit fields are one store, and a store is a plain slice store:
/// the room is reserved, no capacity is checked and no length kept.
#[derive(Debug)]
pub struct Cursor<'a> {
    /// The window, and [`WORD`] bytes more for the last store to end in.
    room: &'a mut [u8],
    /// Bytes of `room` that are final.
    at: usize,
    /// The bits after them, from the top of the word down.
    acc: u64,
    /// How many.
    nacc: u32,
}

impl Cursor<'_> {
    /// Writes the low `nbits` bits of `value`, most-significant first.
    #[inline(always)]
    pub fn put_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        if nbits > 32 {
            self.put_half(value >> 32, nbits - 32);
            self.put_half(value, 32);
        } else if nbits != 0 {
            self.put_half(value, nbits);
        }
    }

    /// [`Self::put_bits`] of 1 to 32 bits: what always fits in the word
    /// once its whole bytes are out.
    #[inline(always)]
    fn put_half(&mut self, value: u64, nbits: u32) {
        if self.nacc + nbits > 64 {
            let whole = self.nacc / 8;
            self.store(self.acc);
            self.at += whole as usize;
            self.acc = self.acc.checked_shl(8 * whole).unwrap_or(0);
            self.nacc %= 8;
        }
        self.nacc += nbits;
        self.acc |= (value & (u64::MAX >> (64 - nbits))) << (64 - self.nacc);
    }

    /// Stores `word` whole at the first byte that is not final.
    #[inline(always)]
    fn store(&mut self, word: u64) {
        self.room[self.at..self.at + WORD].copy_from_slice(&word.to_be_bytes());
    }

    /// Pads with zero bits to the next byte boundary.
    #[inline(always)]
    pub fn align(&mut self) {
        if self.nacc != 0 {
            self.store(self.acc);
            self.at += self.nacc.div_ceil(8) as usize;
            (self.acc, self.nacc) = (0, 0);
        }
    }

    /// Writes a PER length determinant (aligned), as
    /// [`BitWriter::put_length`] describes it.
    #[inline(always)]
    pub fn put_length(&mut self, len: usize) {
        self.align();
        let (form, n) = length_form(len);
        self.room[self.at..self.at + 4].copy_from_slice(&form);
        self.at += n;
    }

    /// Writes a constrained whole number in `lo..=hi`, as
    /// [`BitWriter::put_constrained`] describes it.
    #[inline(always)]
    pub fn put_constrained(&mut self, value: u64, lo: u64, hi: u64) {
        debug_assert!(lo <= hi);
        debug_assert!(value >= lo && value <= hi, "{value} outside {lo}..={hi}");
        let range = hi - lo;
        let offset = value - lo;
        if range == 0 {
            return; // single-valued: zero bits
        }
        if range < 65536 {
            self.put_bits(offset, 64 - range.leading_zeros());
        } else {
            self.put_uint(offset);
        }
    }

    /// Writes an unconstrained unsigned integer (aligned, length-prefixed).
    #[inline(always)]
    pub fn put_uint(&mut self, value: u64) {
        self.align();
        // The length (always the one-byte form), then the value's octets
        // from the top of a word; the next field starts in its unused end.
        let octets = uint_octets(value);
        self.room[self.at] = octets as u8;
        self.at += 1;
        self.store(value << (64 - 8 * octets));
        self.at += octets;
    }
}

/// Octets of `value` in the minimal-octets form of [`Cursor::put_uint`]: 1
/// to 8.
#[inline(always)]
pub const fn uint_octets(value: u64) -> usize {
    // `| 1`: zero takes one octet too.
    (71 - (value | 1).leading_zeros() as usize) / 8
}

/// The bytes of a length determinant and how many of the four count.
#[inline]
fn length_form(len: usize) -> ([u8; 4], usize) {
    assert!(len <= MAX_LENGTH, "length {len} exceeds PER codec maximum");
    if len < 128 {
        ([len as u8, 0, 0, 0], 1)
    } else if len < 16384 {
        ([0x80 | (len >> 8) as u8, len as u8, 0, 0], 2)
    } else {
        ([0xC0 | (len >> 24) as u8, (len >> 16) as u8, (len >> 8) as u8, len as u8], 4)
    }
}

/// Bit-oriented reader consuming aligned-PER-style input.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos_bits: usize,
    /// The frame `buf` is, if [`Self::get_bytes`] is to hand out views of it.
    src: Option<&'a Bytes>,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos_bits: 0, src: None }
    }

    /// Creates a reader over `src` whose [`Self::get_bytes`] are refcounted
    /// views of it, not copies: the borrowed decode of a received frame.
    pub fn borrowing(src: &'a Bytes) -> Self {
        BitReader { buf: src, pos_bits: 0, src: Some(src) }
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos_bits
    }

    /// Reads a single bit.
    pub fn get_bit(&mut self) -> Result<bool> {
        if self.pos_bits >= self.buf.len() * 8 {
            return Err(CodecError::Truncated { what: "bit" });
        }
        let byte = self.buf[self.pos_bits / 8];
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1 == 1;
        self.pos_bits += 1;
        Ok(bit)
    }

    /// The eight bytes from `at` on as a big-endian word, zeros where the
    /// buffer ends first: one load in place of a loop over bytes.
    #[inline(always)]
    fn word(&self, at: usize) -> u64 {
        match self.buf.get(at..at + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("eight bytes")),
            None => {
                let tail = self.buf.get(at..).unwrap_or(&[]);
                let mut word = [0; 8];
                word[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(word)
            }
        }
    }

    /// Reads `nbits` bits, most-significant first.
    ///
    /// Word-level: one load from the byte the cursor is in, shifted into
    /// place; a field that reaches into a ninth byte takes its last bits
    /// from there.  Bit-exact with [`Self::get_bits_bitwise`].
    pub fn get_bits(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < nbits as usize {
            // Same terminal state as the per-bit loop: cursor exhausted.
            self.pos_bits = self.buf.len() * 8;
            return Err(CodecError::Truncated { what: "bit" });
        }
        let (at, bit_off) = (self.pos_bits / 8, (self.pos_bits % 8) as u32);
        // The field at the top of a word, short of what a ninth byte holds.
        let mut v = (self.word(at) << bit_off) >> (64 - nbits);
        if bit_off + nbits > 64 {
            v |= u64::from(self.buf[at + 8]) >> (72 - bit_off - nbits);
        }
        self.pos_bits += nbits as usize;
        Ok(v)
    }

    /// Reference bit-by-bit implementation of [`Self::get_bits`].
    ///
    /// Kept for differential tests.
    pub fn get_bits_bitwise(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 64);
        let mut v = 0u64;
        for _ in 0..nbits {
            v = (v << 1) | self.get_bit()? as u64;
        }
        Ok(v)
    }

    /// Skips to the next byte boundary.
    pub fn align(&mut self) {
        self.pos_bits = self.pos_bits.div_ceil(8) * 8;
    }

    /// Reads `n` raw bytes (aligned).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.align();
        let start = self.pos_bits / 8;
        let end = start.checked_add(n).ok_or(CodecError::Malformed { what: "length overflow" })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated { what: "raw bytes" });
        }
        self.pos_bits = end * 8;
        Ok(&self.buf[start..end])
    }

    /// Reads a PER length determinant (see [`BitWriter::put_length`]).
    pub fn get_length(&mut self) -> Result<usize> {
        self.align();
        let b0 = self.get_raw(1)?[0];
        if b0 & 0x80 == 0 {
            Ok(b0 as usize)
        } else if b0 & 0x40 == 0 {
            let b1 = self.get_raw(1)?[0];
            Ok((((b0 & 0x3F) as usize) << 8) | b1 as usize)
        } else {
            let rest = self.get_raw(3)?;
            Ok((((b0 & 0x3F) as usize) << 24)
                | ((rest[0] as usize) << 16)
                | ((rest[1] as usize) << 8)
                | rest[2] as usize)
        }
    }

    /// Reads a constrained whole number in `lo..=hi`.
    pub fn get_constrained(&mut self, lo: u64, hi: u64) -> Result<u64> {
        debug_assert!(lo <= hi);
        let range = hi - lo;
        if range == 0 {
            return Ok(lo);
        }
        let offset = if range < 65536 {
            let nbits = 64 - range.leading_zeros();
            self.get_bits(nbits)?
        } else {
            self.get_octets_of("constrained int length")?
        };
        let value = lo
            .checked_add(offset)
            .ok_or(CodecError::OutOfRange { what: "constrained int", value: offset })?;
        if value > hi {
            return Err(CodecError::OutOfRange { what: "constrained int", value });
        }
        Ok(value)
    }

    /// Reads an unconstrained unsigned integer.
    pub fn get_uint(&mut self) -> Result<u64> {
        self.get_octets_of("uint length")
    }

    /// Reads a length of 1 to 8 (`what`, if it is not) and as many octets
    /// as one whole number: one load, shifted down.
    #[inline]
    fn get_octets_of(&mut self, what: &'static str) -> Result<u64> {
        let nbytes = self.get_length()?;
        if nbytes == 0 || nbytes > 8 {
            return Err(CodecError::Malformed { what });
        }
        let at = self.pos_bits / 8;
        self.get_raw(nbytes)?;
        Ok(self.word(at) >> (64 - 8 * nbytes))
    }

    /// Reads `count` unconstrained unsigned integers in a row, handing each
    /// to `f`, exactly as `count` calls of [`Self::get_uint`] would: the
    /// same values, the same cursor after them, the same error at the same
    /// read.
    ///
    /// The values are the row's: a byte cursor walks them, each its length
    /// byte and one load, with no `align`, no `get_raw` and no error path in
    /// between.  A value it cannot read that way — a long-form or
    /// out-of-range length, one in the last nine bytes — is `get_uint`'s at
    /// the same position.
    #[inline(always)]
    pub fn get_row_uints(&mut self, count: u32, mut f: impl FnMut(u64)) -> Result<()> {
        if count == 0 {
            // No value, no alignment: the cursor stays mid-byte.
            return Ok(());
        }
        let mut at = self.pos_bits.div_ceil(8);
        for _ in 0..count {
            let v = match self.buf.get(at..).and_then(<[u8]>::first_chunk::<9>) {
                Some([n @ 1..=8, word @ ..]) => {
                    at += 1 + *n as usize;
                    u64::from_be_bytes(*word) >> (64 - 8 * *n as u32)
                }
                _ => {
                    self.pos_bits = at * 8;
                    let v = self.get_uint()?;
                    at = self.pos_bits / 8;
                    v
                }
            };
            f(v);
        }
        self.pos_bits = at * 8;
        Ok(())
    }

    /// Reads an octet string.
    pub fn get_octets(&mut self) -> Result<&'a [u8]> {
        let len = self.get_length()?;
        self.get_raw(len)
    }

    /// Reads an octet string as [`Bytes`]: a copy, or from a
    /// [borrowing](Self::borrowing) reader a view of the frame.
    pub fn get_bytes(&mut self) -> Result<Bytes> {
        let src = self.src;
        Ok(crate::borrow::mk_bytes(src, self.get_octets()?))
    }

    /// Reads a UTF-8 string.
    ///
    /// Validates on the borrowed slice and allocates the `String` once —
    /// no intermediate `Vec<u8>`.
    pub fn get_utf8(&mut self) -> Result<String> {
        let raw = self.get_octets()?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| CodecError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.put_bits(0b101, 3);
        w.put_bits(0xABCD, 16);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(16).unwrap(), 0xABCD);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.align();
        w.put_raw(&[0xFF]);
        let buf = w.finish();
        assert_eq!(buf, vec![0x80, 0xFF]);
        let mut r = BitReader::new(&buf);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_raw(1).unwrap(), &[0xFF]);
    }

    #[test]
    fn length_forms() {
        for len in [0usize, 1, 127, 128, 300, 16383, 16384, 1_000_000, MAX_LENGTH] {
            let mut w = BitWriter::new();
            w.put_length(len);
            let buf = w.finish();
            let expected = if len < 128 {
                1
            } else if len < 16384 {
                2
            } else {
                4
            };
            assert_eq!(buf.len(), expected, "len={len}");
            let mut r = BitReader::new(&buf);
            assert_eq!(r.get_length().unwrap(), len);
        }
    }

    #[test]
    fn length_determinant_boundaries() {
        // Exact wire bytes at every form boundary: 127/128 (1 → 2 bytes),
        // 16 Ki−1 / 16 Ki (2 → 4 bytes) and MAX_LENGTH (the documented
        // 4-byte deviation from X.691 fragmentation).
        let cases: [(usize, &[u8]); 5] = [
            (127, &[0x7F]),
            (128, &[0x80, 0x80]),
            (16383, &[0xBF, 0xFF]),
            (16384, &[0xC0, 0x00, 0x40, 0x00]),
            (MAX_LENGTH, &[0xFF, 0xFF, 0xFF, 0xFF]),
        ];
        for (len, wire) in cases {
            let mut w = BitWriter::new();
            w.put_length(len);
            let buf = w.finish();
            assert_eq!(buf, wire, "len={len}");
            let mut r = BitReader::new(&buf);
            assert_eq!(r.get_length().unwrap(), len, "len={len}");

            // Same, starting misaligned: the determinant must align first.
            let mut w = BitWriter::new();
            w.put_bit(true);
            w.put_length(len);
            let buf = w.finish();
            assert_eq!(&buf[1..], wire, "misaligned len={len}");
            let mut r = BitReader::new(&buf);
            assert!(r.get_bit().unwrap());
            assert_eq!(r.get_length().unwrap(), len, "misaligned len={len}");
        }
    }

    #[test]
    fn octets_filled_in_place_equal_octets_copied() {
        for len in [0usize, 1, 127, 128, 300, 16383, 16384, 20_000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            for lead in [0, 1] {
                let mut want = BitWriter::new();
                let mut got = BitWriter::new();
                for w in [&mut want, &mut got] {
                    w.put_bits(0x5A, lead * 3);
                }
                want.put_octets(&bytes);
                got.put_octets_with(|sink| sink.put_slice(&bytes));
                got.put_bit(true);
                want.put_bit(true);
                assert_eq!(got.finish(), want.finish(), "len={len} lead={lead}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds PER codec maximum")]
    fn length_overflow_panics() {
        let mut w = BitWriter::new();
        w.put_length(MAX_LENGTH + 1);
    }

    #[test]
    fn constrained_small_range_uses_bits() {
        let mut w = BitWriter::new();
        w.put_constrained(5, 0, 7); // 3 bits
        w.put_constrained(0, 0, 0); // 0 bits
        w.put_constrained(1000, 0, 4095); // 12 bits
        let buf = w.finish();
        assert_eq!(buf.len(), 2); // 15 bits
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get_constrained(0, 7).unwrap(), 5);
        assert_eq!(r.get_constrained(0, 0).unwrap(), 0);
        assert_eq!(r.get_constrained(0, 4095).unwrap(), 1000);
    }

    #[test]
    fn constrained_large_range_uses_octets() {
        let mut w = BitWriter::new();
        w.put_constrained(1 << 30, 0, (1 << 36) - 1);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get_constrained(0, (1 << 36) - 1).unwrap(), 1 << 30);
    }

    #[test]
    fn constrained_nonzero_lower_bound() {
        let mut w = BitWriter::new();
        w.put_constrained(10, 10, 10);
        w.put_constrained(12, 10, 17);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get_constrained(10, 10).unwrap(), 10);
        assert_eq!(r.get_constrained(10, 17).unwrap(), 12);
    }

    #[test]
    fn constrained_decode_rejects_above_hi() {
        // Encode 7 in 0..=7 (3 bits = 111), then try to decode as 0..=5.
        let mut w = BitWriter::new();
        w.put_constrained(7, 0, 7);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert!(matches!(r.get_constrained(0, 5), Err(CodecError::OutOfRange { .. })));
    }

    #[test]
    fn uint_roundtrip() {
        for v in [0u64, 1, 255, 256, u32::MAX as u64, u64::MAX] {
            let mut w = BitWriter::new();
            w.put_uint(v);
            let buf = w.finish();
            let mut r = BitReader::new(&buf);
            assert_eq!(r.get_uint().unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn octets_and_utf8_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bit(true); // force misalignment first
        w.put_octets(b"hello");
        w.put_utf8("\u{1F680} rocket");
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_octets().unwrap(), b"hello");
        assert_eq!(r.get_utf8().unwrap(), "\u{1F680} rocket");
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = BitReader::new(&[]);
        assert!(matches!(r.get_bit(), Err(CodecError::Truncated { .. })));
        let mut r = BitReader::new(&[0x05]); // length 5 but no payload
        assert!(matches!(r.get_octets(), Err(CodecError::Truncated { .. })));
        let mut r = BitReader::new(&[0x09, 0, 0, 0, 0, 0, 0, 0, 0, 0]); // uint with 9 bytes
        assert!(matches!(r.get_uint(), Err(CodecError::Malformed { .. })));
        // Word-level get_bits past the end behaves like the bit loop did:
        // error, cursor exhausted.
        let mut r = BitReader::new(&[0xFF]);
        r.get_bits(3).unwrap();
        assert!(matches!(r.get_bits(6), Err(CodecError::Truncated { .. })));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn bad_utf8_detected() {
        let mut w = BitWriter::new();
        w.put_octets(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get_utf8(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn remaining_bits_tracks_cursor() {
        let buf = [0u8; 4];
        let mut r = BitReader::new(&buf);
        assert_eq!(r.remaining_bits(), 32);
        r.get_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 27);
        r.align();
        assert_eq!(r.remaining_bits(), 24);
    }

    #[test]
    fn writer_over_bytesmut_appends_after_existing_content() {
        let mut scratch = BytesMut::with_capacity(32);
        scratch.extend_from_slice(b"hdr");
        let mut w = BitWriter::over(scratch);
        assert_eq!(w.len_bytes(), 0);
        w.put_bits(0xAB, 8);
        w.put_octets(b"xy");
        assert_eq!(w.len_bytes(), 4);
        let buf = w.into_buf();
        assert_eq!(&buf[..], b"hdr\xAB\x02xy");
    }

    #[test]
    fn a_window_closed_short_gives_back_what_it_did_not_use() {
        let mut scratch = BytesMut::from(&b"hdr"[..]);
        scratch.reserve(512);
        let mut w = BitWriter::over(scratch);
        // Three bits of a hundred bytes: one byte stays, five bits of it free
        // for the next per-field call.
        w.window(100, |c| c.put_bits(0b101, 3));
        assert_eq!(w.len_bytes(), 1);
        w.put_bits(0b11111, 5);
        assert_eq!(w.len_bytes(), 1);
        // Nothing written: nothing kept, mid-byte or not.
        w.window(100, |_| ());
        w.put_bit(true);
        w.window(100, |_| ());
        assert_eq!(w.len_bytes(), 2);
        // A window that starts mid-byte and ends aligned, then one that
        // starts aligned and ends mid-byte.
        w.window(100, |c| {
            c.put_bits(0x7F, 7);
            c.put_uint(0x0102);
        });
        w.window(100, |c| {
            c.put_length(300);
            c.put_constrained(5, 0, 7);
        });
        w.put_bits(0x1F, 5);
        let buf = w.into_buf();
        assert_eq!(&buf[..], b"hdr\xBF\xFF\x02\x01\x02\x81\x2C\xBF");
    }

    /// Deterministic xorshift for dependency-free differential coverage.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn word_level_bits_match_bitwise_reference() {
        let mut state = 0x243F_6A88_85A3_08D3u64; // arbitrary nonzero seed
        for _ in 0..200 {
            let ops: Vec<(u64, u32)> = (0..32)
                .map(|_| {
                    let v = xorshift(&mut state);
                    let n = (xorshift(&mut state) % 65) as u32;
                    (v, n)
                })
                .collect();
            let mut fast = BitWriter::new();
            let mut slow = BitWriter::new();
            for &(v, n) in &ops {
                fast.put_bits(v, n);
                slow.put_bits_bitwise(v, n);
            }
            let (fast, slow) = (fast.finish(), slow.finish());
            assert_eq!(fast, slow);
            let mut rf = BitReader::new(&fast);
            let mut rs = BitReader::new(&fast);
            for &(v, n) in &ops {
                let a = rf.get_bits(n).unwrap();
                let b = rs.get_bits_bitwise(n).unwrap();
                assert_eq!(a, b);
                if n == 64 {
                    assert_eq!(a, v);
                } else {
                    assert_eq!(a, v & ((1u64 << n) - 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn ops() -> impl Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((any::<u64>(), 0u32..=64), 0..64)
    }

    proptest! {
        #[test]
        fn put_bits_matches_reference(ops in ops()) {
            let mut fast = BitWriter::new();
            let mut slow = BitWriter::new();
            for &(v, n) in &ops {
                fast.put_bits(v, n);
                slow.put_bits_bitwise(v, n);
            }
            prop_assert_eq!(fast.finish(), slow.finish());
        }

        #[test]
        fn get_bits_matches_reference(ops in ops()) {
            let mut w = BitWriter::new();
            for &(v, n) in &ops {
                w.put_bits(v, n);
            }
            let buf = w.finish();
            let mut fast = BitReader::new(&buf);
            let mut slow = BitReader::new(&buf);
            for &(_, n) in &ops {
                prop_assert_eq!(fast.get_bits(n).unwrap(), slow.get_bits_bitwise(n).unwrap());
                prop_assert_eq!(fast.remaining_bits(), slow.remaining_bits());
            }
        }

        #[test]
        fn get_uint_and_get_bits_match_the_bitwise_reader_on_every_truncation(
            calls in proptest::collection::vec(put(), 0..24),
        ) {
            let mut w = BitWriter::new();
            calls.iter().for_each(|call| call.apply(&mut w));
            let buf = w.finish();
            for len in 0..=buf.len() {
                let mut fast = BitReader::new(&buf[..len]);
                let mut slow = BitReader::new(&buf[..len]);
                for call in &calls {
                    let (got, want) = (call.read(&mut fast), call.read_reference(&mut slow));
                    prop_assert_eq!(&got, &want, "{:?} in {} of {} bytes", call, len, buf.len());
                    prop_assert_eq!(fast.remaining_bits(), slow.remaining_bits());
                    if got.is_err() {
                        break;
                    }
                }
            }
        }

        #[test]
        fn vec_and_bytesmut_backed_writers_agree(ops in ops()) {
            let mut owned = BitWriter::new();
            let mut scratch = BitWriter::over(bytes::BytesMut::new());
            for &(v, n) in &ops {
                owned.put_bits(v, n);
                scratch.put_bits(v, n);
            }
            prop_assert_eq!(owned.finish(), scratch.into_buf().to_vec());
        }

        #[test]
        fn every_put_matches_the_bitwise_reference_on_both_sinks(
            calls in proptest::collection::vec(put(), 0..48),
            prefix in proptest::collection::vec(any::<u8>(), 0..5),
        ) {
            let mut want = BitWriter::over(prefix.clone());
            let mut owned = BitWriter::over(prefix.clone());
            let mut scratch = BitWriter::over(bytes::BytesMut::from(&prefix[..]));
            for call in &calls {
                call.reference(&mut want);
                call.apply(&mut owned);
                call.apply(&mut scratch);
                prop_assert_eq!(owned.len_bytes(), want.len_bytes());
                prop_assert_eq!(scratch.len_bytes(), want.len_bytes());
            }
            let want = want.into_buf();
            prop_assert_eq!(&want[..prefix.len()], &prefix[..], "the prefix is not the writer's");
            prop_assert_eq!(&owned.into_buf(), &want);
            prop_assert_eq!(&scratch.into_buf()[..], &want[..]);
        }

        #[test]
        fn windows_match_the_bitwise_reference_from_every_bit_offset_on_both_sinks(
            calls in proptest::collection::vec(put(), 0..32),
            prefix in proptest::collection::vec(any::<u8>(), 0..5),
            lead in any::<u64>(),
        ) {
            for offset in 0..8 {
                let mut want = BitWriter::over(prefix.clone());
                want.put_bits_bitwise(lead, offset);
                calls.iter().for_each(|call| call.reference(&mut want));
                // Whatever bit the last window ended on, the per-field call
                // after it goes on from there.
                want.put_bits_bitwise(lead, 11);
                let want = want.into_buf();

                let mut owned = BitWriter::over(prefix.clone());
                let mut scratch = BitWriter::over(bytes::BytesMut::from(&prefix[..]));
                through_windows(&mut owned, lead, offset, &calls);
                through_windows(&mut scratch, lead, offset, &calls);
                prop_assert_eq!(&owned.into_buf(), &want, "from bit {}", offset);
                prop_assert_eq!(&scratch.into_buf()[..], &want[..], "from bit {}", offset);
            }
        }
    }

    /// `offset` bits of `lead`, then `calls` with every run of fields in one
    /// window — an octet string, which copies into the sink itself, ends a
    /// run — then eleven bits more.
    fn through_windows<B: ByteSink>(w: &mut BitWriter<B>, lead: u64, offset: u32, calls: &[Put]) {
        w.put_bits(lead, offset);
        for run in calls.split_inclusive(|call| matches!(call, Put::Octets(_))) {
            let (fields, octets) = match run.split_last() {
                Some((octets @ Put::Octets(_), fields)) => (fields, Some(octets)),
                _ => (run, None),
            };
            // A field is ten bytes at most: an integer of eight octets, its
            // length, the padding before it.
            w.window(1 + 10 * fields.len(), |c| fields.iter().for_each(|call| call.apply_in(c)));
            if let Some(octets) = octets {
                octets.apply(w);
            }
        }
        w.put_bits(lead, 11);
    }

    /// One call on a [`BitWriter`].
    #[derive(Debug, Clone)]
    enum Put {
        Bits(u64, u32),
        Constrained { value: u64, lo: u64, hi: u64 },
        Uint(u64),
        Length(usize),
        Octets(Vec<u8>),
        Align,
    }

    /// A value of every width: the top `width` bits of a random word.
    fn word() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..=64).prop_map(|(v, width)| v.checked_shr(64 - width).unwrap_or(0))
    }

    /// Lengths on both sides of each determinant form.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..128, 128usize..16384, 16384usize..=MAX_LENGTH]
    }

    fn put() -> impl Strategy<Value = Put> {
        // Ranges of one value (no bits), below 64 Ki (a bit field) and
        // above (length-prefixed octets).
        let span = prop_oneof![0u64..=0, 1u64..65536, 65536u64..=u64::MAX];
        prop_oneof![
            (any::<u64>(), 0u32..=64).prop_map(|(v, n)| Put::Bits(v, n)),
            (word(), span, any::<u64>()).prop_map(|(lo, span, pick)| {
                let hi = lo.saturating_add(span);
                let value = lo + (hi - lo).checked_add(1).map_or(pick, |n| pick % n);
                Put::Constrained { value, lo, hi }
            }),
            word().prop_map(Put::Uint),
            length().prop_map(Put::Length),
            proptest::collection::vec(any::<u8>(), 0..200).prop_map(Put::Octets),
            Just(Put::Align),
        ]
    }

    impl Put {
        fn apply<B: ByteSink>(&self, w: &mut BitWriter<B>) {
            match self {
                Put::Bits(v, n) => w.put_bits(*v, *n),
                Put::Constrained { value, lo, hi } => w.put_constrained(*value, *lo, *hi),
                Put::Uint(v) => w.put_uint(*v),
                Put::Length(len) => w.put_length(*len),
                Put::Octets(bytes) => w.put_octets(bytes),
                Put::Align => w.align(),
            }
        }

        /// The same call inside a window ([`Put::Octets`] has none).
        fn apply_in(&self, c: &mut Cursor<'_>) {
            match self {
                Put::Bits(v, n) => c.put_bits(*v, *n),
                Put::Constrained { value, lo, hi } => c.put_constrained(*value, *lo, *hi),
                Put::Uint(v) => c.put_uint(*v),
                Put::Length(len) => c.put_length(*len),
                Put::Octets(_) => unreachable!("an octet string is not a window's"),
                Put::Align => c.align(),
            }
        }

        /// Reads the call back; an octet string as its length.
        fn read(&self, r: &mut BitReader) -> Result<u64> {
            match self {
                Put::Bits(_, n) => r.get_bits(*n),
                Put::Constrained { lo, hi, .. } => r.get_constrained(*lo, *hi),
                Put::Uint(_) => r.get_uint(),
                Put::Length(_) => r.get_length().map(|len| len as u64),
                Put::Octets(_) => r.get_octets().map(|raw| raw.len() as u64),
                Put::Align => {
                    r.align();
                    Ok(0)
                }
            }
        }

        /// [`Put::read`] with every bit field through
        /// [`BitReader::get_bits_bitwise`] and every integer a byte at a
        /// time.
        fn read_reference(&self, r: &mut BitReader) -> Result<u64> {
            fn uint(r: &mut BitReader, what: &'static str) -> Result<u64> {
                let nbytes = r.get_length()?;
                if nbytes == 0 || nbytes > 8 {
                    return Err(CodecError::Malformed { what });
                }
                Ok(r.get_raw(nbytes)?.iter().fold(0, |acc, b| (acc << 8) | *b as u64))
            }
            match self {
                Put::Bits(_, n) => r.get_bits_bitwise(*n),
                Put::Constrained { lo, hi, .. } => match hi - lo {
                    0 => Ok(*lo),
                    range @ 1..=65535 => {
                        let value = lo + r.get_bits_bitwise(range.ilog2() + 1)?;
                        if value > *hi {
                            return Err(CodecError::OutOfRange { what: "constrained int", value });
                        }
                        Ok(value)
                    }
                    _ => {
                        let offset = uint(r, "constrained int length")?;
                        let value = lo.checked_add(offset).ok_or(CodecError::OutOfRange {
                            what: "constrained int",
                            value: offset,
                        })?;
                        if value > *hi {
                            return Err(CodecError::OutOfRange { what: "constrained int", value });
                        }
                        Ok(value)
                    }
                },
                Put::Uint(_) => uint(r, "uint length"),
                _ => self.read(r),
            }
        }

        /// The same call spelled out with [`BitWriter::put_bits_bitwise`],
        /// a byte at a time.
        fn reference(&self, w: &mut BitWriter) {
            fn bytes(w: &mut BitWriter, bytes: &[u8]) {
                w.align();
                for b in bytes {
                    w.put_bits_bitwise(*b as u64, 8);
                }
            }
            fn length(w: &mut BitWriter, len: usize) {
                match len {
                    0..=127 => bytes(w, &[len as u8]),
                    128..=16383 => bytes(w, &[0x80 | (len >> 8) as u8, len as u8]),
                    _ => bytes(w, &(0xC000_0000 | len as u32).to_be_bytes()),
                }
            }
            fn uint(w: &mut BitWriter, v: u64) {
                let be = v.to_be_bytes();
                let octets = &be[be.iter().position(|b| *b != 0).unwrap_or(7)..];
                length(w, octets.len());
                bytes(w, octets);
            }
            match self {
                Put::Bits(v, n) => w.put_bits_bitwise(*v, *n),
                Put::Constrained { value, lo, hi } => match hi - lo {
                    0 => {}
                    range @ 1..=65535 => w.put_bits_bitwise(value - lo, range.ilog2() + 1),
                    _ => uint(w, value - lo),
                },
                Put::Uint(v) => uint(w, *v),
                Put::Length(len) => length(w, *len),
                Put::Octets(data) => {
                    length(w, data.len());
                    bytes(w, data);
                }
                Put::Align => w.align(),
            }
        }
    }
}
