//! Byte-sink abstraction behind the zero-allocation encode path.
//!
//! The three writers in this crate ([`crate::per::BitWriter`],
//! [`crate::fb::FbBuilder`], [`crate::pb::PbWriter`]) are generic over a
//! [`ByteSink`] so the same encode body can target either
//!
//! * an owned `Vec<u8>` — the classic allocate-per-message path behind
//!   `encode()`, or
//! * a caller-provided reusable [`BytesMut`] — the scratch path behind
//!   `encode_into()`, where steady-state encoding performs no allocation
//!   because the buffer's capacity is reclaimed once previously frozen
//!   `Bytes` handles drop.
//!
//! The writers lay out one unit at a time — an FB table or a whole vector
//! of them, a PER row — [`grow`](ByteSink::grow) the buffer by its size
//! once and store the fields into the returned tail at known offsets; a
//! writer that reserved a fixed maximum (the PER
//! [window](crate::per::BitWriter::window)) gives the unused end back with
//! [`truncate`](ByteSink::truncate).  Beyond that they only *patch*
//! already-written bytes (FB offset slots), so the trait stays small: no
//! insertion, no removal from the front.

use bytes::BytesMut;

/// A growable byte buffer the codec writers append into.
pub trait ByteSink {
    /// Appends one byte.
    fn push_byte(&mut self, b: u8);
    /// Appends a slice.
    fn put_slice(&mut self, bytes: &[u8]);
    /// Number of bytes currently in the buffer (including any bytes that
    /// were present before a writer wrapped it).
    fn len(&self) -> usize;
    /// Whether the buffer is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Read access to the whole buffer.
    fn as_slice(&self) -> &[u8];
    /// Mutable access to the whole buffer, for patching offset slots.
    fn as_mut_slice(&mut self) -> &mut [u8];
    /// Appends `n` zero bytes and returns them: one capacity check for a
    /// whole unit, whose fields the writer then stores in place.
    fn grow(&mut self, n: usize) -> &mut [u8];
    /// Shortens the buffer to `len` bytes (no-op if it is shorter already).
    fn truncate(&mut self, len: usize);
}

impl ByteSink for Vec<u8> {
    fn push_byte(&mut self, b: u8) {
        self.push(b);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn as_slice(&self) -> &[u8] {
        self
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        self
    }

    #[inline]
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let at = Vec::len(self);
        self.resize(at + n, 0);
        &mut self[at..]
    }

    #[inline]
    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

/// A borrowed sink: a writer can append into a buffer its caller keeps
/// (and may truncate afterwards) without taking it.
impl<B: ByteSink + ?Sized> ByteSink for &mut B {
    fn push_byte(&mut self, b: u8) {
        (**self).push_byte(b);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        (**self).put_slice(bytes);
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn as_slice(&self) -> &[u8] {
        (**self).as_slice()
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        (**self).as_mut_slice()
    }

    #[inline]
    fn grow(&mut self, n: usize) -> &mut [u8] {
        (**self).grow(n)
    }

    #[inline]
    fn truncate(&mut self, len: usize) {
        (**self).truncate(len);
    }
}

impl ByteSink for BytesMut {
    fn push_byte(&mut self, b: u8) {
        self.extend_from_slice(std::slice::from_ref(&b));
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        BytesMut::len(self)
    }

    fn as_slice(&self) -> &[u8] {
        self
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        self
    }

    #[inline]
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let at = BytesMut::len(self);
        self.resize(at + n, 0);
        &mut self[at..]
    }

    #[inline]
    fn truncate(&mut self, len: usize) {
        BytesMut::truncate(self, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: ByteSink>(mut sink: B) -> B {
        sink.push_byte(0xAB);
        sink.put_slice(&[1, 2, 3]);
        sink.as_mut_slice()[1] = 9;
        sink.grow(3).copy_from_slice(&[4, 5, 6]);
        let len = sink.len();
        sink.truncate(len - 2);
        sink.truncate(len); // longer than the buffer: no-op
        assert_eq!(sink.grow(1), [0], "regrown bytes are zero, not what was truncated there");
        sink
    }

    #[test]
    fn vec_and_bytesmut_sinks_agree() {
        let v = exercise(Vec::new());
        let b = exercise(BytesMut::new());
        assert_eq!(v.as_slice(), b.as_slice());
        assert_eq!(v, vec![0xAB, 9, 2, 3, 4, 0]);
        assert_eq!(ByteSink::len(&b), 6);
        assert!(!ByteSink::is_empty(&b));
    }

    #[test]
    fn borrowed_sink_appends_to_the_callers_buffer() {
        let mut kept = vec![7u8];
        exercise(&mut kept);
        assert_eq!(kept, vec![7, 9, 1, 2, 3, 4, 0], "as_mut_slice sees the whole buffer");
    }
}
