//! Refcount-faithful test double of the `bytes` crate API surface this
//! workspace uses, for offline verification with bare `rustc` (the build
//! container has no crates registry).
//!
//! Unlike a naive `Vec<u8>` shim, this one preserves the semantics the
//! zero-copy receive path is built on:
//!
//! * `BytesMut::split_to(..).freeze()` and `Bytes::slice_ref` are O(1)
//!   pointer bookkeeping into a shared slab (`Arc`), not copies — so
//!   pointer-identity assertions in the real tests (`slice views share
//!   the slab`, `decode_borrowed borrows from the input`) actually hold
//!   or fail exactly as with the real crate;
//! * `reserve` keeps the slab while the handle has room, reclaims it
//!   in place when the handle is the sole owner, and allocates a fresh
//!   slab only when views are still outstanding — the amortization the
//!   receive path's lifetime rules depend on.
//!
//! Soundness: a `BytesMut` is the exclusive owner of `[off, limit)` of
//! its slab; `split_to`/`split_off` shrink that window before sharing,
//! and frozen `Bytes` views are read-only, so the `UnsafeCell` writes
//! never alias a readable range.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A shared buffer in one allocation, reference count and bytes together,
/// as the real crate's is — so a counting allocator sees what it would see
/// there (one allocation per `copy_from_slice`, not two).
#[derive(Clone)]
struct Slab(Arc<[UnsafeCell<u8>]>);

// Handles enforce range exclusivity (see module docs); the slab itself
// can then cross threads like the real crate's shared buffer does.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Slab {
    fn new(cap: usize) -> Slab {
        Slab((0..cap).map(|_| UnsafeCell::new(0)).collect())
    }
    fn cap(&self) -> usize {
        self.0.len()
    }
    fn ptr(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.0.as_ptr())
    }
    /// Whether no other handle shares this slab.
    fn is_sole(&self) -> bool {
        Arc::strong_count(&self.0) == 1
    }
}

/// Cheaply cloneable shared view of a slab range.
pub struct Bytes {
    slab: Slab,
    off: usize,
    len: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes { slab: Slab::new(0), off: 0, len: 0 }
    }

    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    pub fn copy_from_slice(s: &[u8]) -> Self {
        let slab = Slab::new(s.len());
        unsafe { std::ptr::copy_nonoverlapping(s.as_ptr(), slab.ptr(), s.len()) };
        Bytes { slab, off: 0, len: s.len() }
    }

    /// O(1) subview of `self` given a subslice of its contents — the real
    /// crate's pointer-range semantics, including the panic when `sub` is
    /// not in range.
    pub fn slice_ref(&self, sub: &[u8]) -> Bytes {
        if sub.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let p = sub.as_ptr() as usize;
        assert!(
            p >= base && p + sub.len() <= base + self.len,
            "slice_ref: subslice out of range"
        );
        Bytes { slab: self.slab.clone(), off: self.off + (p - base), len: sub.len() }
    }

    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len);
        let front = Bytes { slab: self.slab.clone(), off: self.off, len: at };
        self.off += at;
        self.len -= at;
        front
    }

    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len);
        let back = Bytes { slab: self.slab.clone(), off: self.off + at, len: self.len - at };
        self.len = at;
        back
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        Bytes { slab: self.slab.clone(), off: self.off, len: self.len }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.slab.ptr().add(self.off), self.len) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, o: &Bytes) -> bool {
        self[..] == o[..]
    }
}
impl Eq for Bytes {}
impl PartialOrd for Bytes {
    fn partial_cmp(&self, o: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Bytes {
    fn cmp(&self, o: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&o[..])
    }
}
impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self[..].hash(h)
    }
}
impl PartialEq<[u8]> for Bytes {
    fn eq(&self, o: &[u8]) -> bool {
        self[..] == *o
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, o: &&[u8]) -> bool {
        self[..] == **o
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, o: &Vec<u8>) -> bool {
        self[..] == o[..]
    }
}
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
    }
}
impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}
impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}
impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}
impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}
impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// Unique growable view over `[off, limit)` of a slab; the written
/// region is `[off, off + len)`.
pub struct BytesMut {
    slab: Slab,
    off: usize,
    len: usize,
    limit: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { slab: Slab::new(0), off: 0, len: 0, limit: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { slab: Slab::new(cap), off: 0, len: 0, limit: cap }
    }

    pub fn zeroed(len: usize) -> Self {
        BytesMut { slab: Slab::new(len), off: 0, len, limit: len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Usable capacity of this handle, like the real crate: bytes between
    /// the view's start and the end of its exclusive window.
    pub fn capacity(&self) -> usize {
        self.limit - self.off
    }

    /// Ensures room for `additional` more bytes.  Mirrors the real
    /// crate's strategy: no-op while the window has room; reclaim the
    /// slab front in place when this handle is the sole owner; otherwise
    /// move to a fresh slab and leave the old one to the outstanding
    /// views.
    pub fn reserve(&mut self, additional: usize) {
        if self.limit - self.off - self.len >= additional {
            return;
        }
        let sole = self.slab.is_sole();
        if sole && self.limit == self.slab.cap() && self.slab.cap() >= self.len + additional {
            unsafe {
                std::ptr::copy(self.slab.ptr().add(self.off), self.slab.ptr(), self.len);
            }
            self.off = 0;
            return;
        }
        let cap = (self.len + additional).max(self.slab.cap()).max(64);
        let slab = Slab::new(cap);
        unsafe {
            std::ptr::copy_nonoverlapping(self.slab.ptr().add(self.off), slab.ptr(), self.len);
        }
        self.slab = slab;
        self.off = 0;
        self.limit = cap;
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.reserve(s.len());
        unsafe {
            std::ptr::copy_nonoverlapping(
                s.as_ptr(),
                self.slab.ptr().add(self.off + self.len),
                s.len(),
            );
        }
        self.len += s.len();
    }

    pub fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.extend_from_slice(&[v]);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        if new_len > self.len {
            let grow = new_len - self.len;
            self.reserve(grow);
            unsafe {
                std::ptr::write_bytes(self.slab.ptr().add(self.off + self.len), value, grow);
            }
        }
        self.len = new_len;
    }

    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }

    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len);
        let front =
            BytesMut { slab: self.slab.clone(), off: self.off, len: at, limit: self.off + at };
        self.off += at;
        self.len -= at;
        front
    }

    pub fn split_off(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len);
        let back = BytesMut {
            slab: self.slab.clone(),
            off: self.off + at,
            len: self.len - at,
            limit: self.limit,
        };
        self.limit = self.off + at;
        self.len = at;
        back
    }

    pub fn split(&mut self) -> BytesMut {
        let at = self.len;
        self.split_to(at)
    }

    pub fn freeze(self) -> Bytes {
        Bytes { slab: self.slab, off: self.off, len: self.len }
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.slab.ptr().add(self.off), self.len) }
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.slab.ptr().add(self.off), self.len) }
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(self), f)
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, o: &BytesMut) -> bool {
        self[..] == o[..]
    }
}
impl Eq for BytesMut {}
impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        let mut b = BytesMut::with_capacity(v.len());
        b.extend_from_slice(v);
        b
    }
}
impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(&self[..])
    }
}

/// The subset of `bytes::Buf` the workspace uses.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len);
        self.off += cnt;
        self.len -= cnt;
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len);
        self.off += cnt;
        self.len -= cnt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_to_freeze_shares_the_slab() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"aaaabbbb");
        let a = m.split_to(4).freeze();
        let base = a.as_ptr() as usize;
        let rest = m.freeze();
        assert_eq!(rest.as_ptr() as usize - base, 4, "views are contiguous in one slab");
        assert_eq!(&a[..], b"aaaa");
        assert_eq!(&rest[..], b"bbbb");
    }

    #[test]
    fn slice_ref_is_a_view() {
        let b = Bytes::copy_from_slice(b"hello world");
        let sub = b.slice_ref(&b[6..]);
        assert_eq!(&sub[..], b"world");
        assert_eq!(sub.as_ptr() as usize, b.as_ptr() as usize + 6);
    }

    #[test]
    fn reserve_reclaims_in_place_when_sole_owner() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"12345678");
        let f = m.split_to(6).freeze();
        drop(f); // view gone: handle is sole owner again
        m.reserve(6); // 2 bytes live, cap 8: reclaim without realloc
        assert!(m.capacity() >= 8);
        assert_eq!(&m[..], b"78");
    }

    #[test]
    fn reserve_moves_to_fresh_slab_when_views_outstanding() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"12345678");
        let f = m.split_to(6).freeze();
        let old = f.as_ptr() as usize;
        m.reserve(32); // outstanding view pins the old slab
        m.extend_from_slice(b"xx");
        assert_eq!(&f[..], b"123456", "view survives the handle's move");
        assert_eq!(f.as_ptr() as usize, old);
        assert_eq!(&m[..], b"78xx");
    }

    #[test]
    fn advance_then_split_views() {
        let mut m = BytesMut::from(&b"hhhhppppqqqq"[..]);
        Buf::advance(&mut m, 4);
        let p = m.split_to(4).freeze();
        assert_eq!(&p[..], b"pppp");
        assert_eq!(&m[..], b"qqqq");
    }
}
