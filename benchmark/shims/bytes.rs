//! Stand-in for the `bytes` crate, covering the API surface this
//! workspace uses, so the benchmark builds the real crate sources with
//! bare `rustc` (the container has no crates registry).  Every result the
//! benchmark prints carries `bytes_impl: shim` because of this file.
//!
//! It keeps the properties the measured paths depend on:
//!
//! * `BytesMut::split_to(..).freeze()`, `Bytes::clone` and
//!   `Bytes::slice_ref` are O(1) bookkeeping on a shared, refcounted slab,
//!   never copies — so the zero-copy receive path and the encode-once
//!   fan-out cost what they cost with the real crate;
//! * `reserve` is a no-op while the handle has room, reclaims the slab in
//!   place when the handle is its sole owner, and moves to a fresh slab
//!   (at least doubling) only while views are outstanding;
//! * `Bytes::new`, `BytesMut::new` and `from_static` do not allocate, and
//!   `Bytes::from(Vec<u8>)` takes the vector's buffer instead of copying
//!   it, as in the real crate — the allocation and copy counts the
//!   benchmark reports would otherwise be the shim's, not the stack's.
//!
//! Known differences: one `Arc` header per slab where the real crate
//! promotes lazily, and a view pins its whole slab.  Neither changes a
//! count by more than one allocation per slab.
//!
//! Soundness: a `BytesMut` is the exclusive owner of `[off, limit)` of its
//! slab; `split_to`/`split_off` shrink that window before sharing, frozen
//! `Bytes` views are read-only and cover only bytes written before the
//! freeze, so no write ever aliases a readable range and no uninitialised
//! byte is ever exposed.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

struct Slab(UnsafeCell<Box<[MaybeUninit<u8>]>>);

// SAFETY: handles enforce range exclusivity (module docs): the only
// writers are `BytesMut` handles, each confined to its own window, and
// `Bytes` views only read ranges no handle can write any more.
unsafe impl Send for Slab {}
// SAFETY: as above; shared access never writes.
unsafe impl Sync for Slab {}

impl Slab {
    fn new(cap: usize) -> Arc<Slab> {
        Arc::new(Slab(UnsafeCell::new(Box::new_uninit_slice(cap))))
    }

    fn from_vec(v: Vec<u8>) -> Arc<Slab> {
        let raw = Box::into_raw(v.into_boxed_slice());
        // SAFETY: `MaybeUninit<u8>` has the layout of `u8`, and an
        // initialised byte is a valid `MaybeUninit<u8>`.
        let b = unsafe { Box::from_raw(raw as *mut [MaybeUninit<u8>]) };
        Arc::new(Slab(UnsafeCell::new(b)))
    }

    fn cap(&self) -> usize {
        // SAFETY: the box itself is never replaced after construction, so
        // reading its length races with nothing.
        unsafe { (&(*self.0.get())).len() }
    }

    fn ptr(&self) -> *mut u8 {
        // SAFETY: as in `cap`; only the pointer is read here.
        unsafe { (*self.0.get()).as_mut_ptr() as *mut u8 }
    }
}

/// Cheaply cloneable read-only view of a byte range.
pub struct Bytes {
    ptr: *const u8,
    len: usize,
    /// Keeps the range alive; `None` for static and empty views.
    owner: Option<Arc<Slab>>,
}

// SAFETY: the viewed range is immutable for the life of the view (module
// docs) and `owner` keeps it allocated; static ranges live forever.
unsafe impl Send for Bytes {}
// SAFETY: as above.
unsafe impl Sync for Bytes {}

impl Bytes {
    pub const fn new() -> Self {
        Bytes { ptr: NonNull::dangling().as_ptr(), len: 0, owner: None }
    }

    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes { ptr: s.as_ptr(), len: s.len(), owner: None }
    }

    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn view(&self, off: usize, len: usize) -> Bytes {
        // SAFETY: callers pass `off + len <= self.len`, so the new range
        // stays inside the one `owner` keeps alive.
        Bytes { ptr: unsafe { self.ptr.add(off) }, len, owner: self.owner.clone() }
    }

    /// O(1) subview of `self` given a subslice of its contents — the real
    /// crate's pointer-range semantics, including the panic when `sub` is
    /// not in range.
    pub fn slice_ref(&self, sub: &[u8]) -> Bytes {
        if sub.is_empty() {
            return Bytes::new();
        }
        let base = self.ptr as usize;
        let p = sub.as_ptr() as usize;
        assert!(p >= base && p + sub.len() <= base + self.len, "slice_ref: subslice out of range");
        self.view(p - base, sub.len())
    }

    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len);
        let front = self.view(0, at);
        // SAFETY: `at <= self.len`.
        self.ptr = unsafe { self.ptr.add(at) };
        self.len -= at;
        front
    }

    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len);
        let back = self.view(at, self.len - at);
        self.len = at;
        back
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        self.view(0, self.len)
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
        // SAFETY: `[ptr, ptr + len)` is initialised, immutable and alive
        // for as long as `self` (type invariant).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
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
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        let slab = Slab::from_vec(v);
        Bytes { ptr: slab.ptr(), len, owner: Some(slab) }
    }
}
impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}
impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}
impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
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
/// region is `[off, off + len)`.  `slab` is `None` only while
/// `limit == 0` (nothing allocated yet).
pub struct BytesMut {
    slab: Option<Arc<Slab>>,
    off: usize,
    len: usize,
    limit: usize,
}

impl BytesMut {
    pub const fn new() -> Self {
        BytesMut { slab: None, off: 0, len: 0, limit: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        if cap == 0 {
            return BytesMut::new();
        }
        BytesMut { slab: Some(Slab::new(cap)), off: 0, len: 0, limit: cap }
    }

    pub fn zeroed(len: usize) -> Self {
        let mut b = BytesMut::with_capacity(len);
        b.resize(len, 0);
        b
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

    /// Start of this handle's window; dangling (never dereferenced for a
    /// non-zero length) while nothing is allocated.
    fn base(&self) -> *mut u8 {
        match &self.slab {
            // SAFETY: `off <= limit <= slab.cap()`.
            Some(s) => unsafe { s.ptr().add(self.off) },
            None => NonNull::dangling().as_ptr(),
        }
    }

    /// Ensures room for `additional` more bytes.  Mirrors the real
    /// crate's strategy: no-op while the window has room; reclaim the
    /// slab front in place when this handle is the sole owner; otherwise
    /// move to a fresh slab of at least twice the size and leave the old
    /// one to the outstanding views.
    pub fn reserve(&mut self, additional: usize) {
        if self.limit - self.off - self.len >= additional {
            return;
        }
        let old_cap = self.slab.as_ref().map_or(0, |s| s.cap());
        if let Some(slab) = &self.slab {
            let sole = Arc::strong_count(slab) == 1;
            if sole && self.limit == old_cap && old_cap >= self.len + additional {
                // SAFETY: sole owner, so `[0, cap)` is ours; `copy`
                // handles the overlap.
                unsafe { std::ptr::copy(self.base(), slab.ptr(), self.len) };
                self.off = 0;
                return;
            }
        }
        let cap = (self.len + additional).max(old_cap * 2).max(64);
        let slab = Slab::new(cap);
        // SAFETY: the fresh slab holds `cap >= len` bytes and cannot
        // overlap the old window.
        unsafe { std::ptr::copy_nonoverlapping(self.base(), slab.ptr(), self.len) };
        self.slab = Some(slab);
        self.off = 0;
        self.limit = cap;
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.reserve(s.len());
        // SAFETY: `reserve` made `[off + len, off + len + s.len())` part
        // of this handle's exclusive window.
        unsafe { std::ptr::copy_nonoverlapping(s.as_ptr(), self.base().add(self.len), s.len()) };
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
            // SAFETY: as in `extend_from_slice`.
            unsafe { std::ptr::write_bytes(self.base().add(self.len), value, grow) };
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
        if self.len == 0 {
            return Bytes::new();
        }
        Bytes { ptr: self.base(), len: self.len, owner: self.slab }
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
        // SAFETY: `[off, off + len)` was written through this handle.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and the window is exclusive to `self`.
        unsafe { std::slice::from_raw_parts_mut(self.base(), self.len) }
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
        let _ = self.split_to(cnt);
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
    #[should_panic(expected = "out of range")]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::copy_from_slice(b"hello");
        let other = [1u8, 2, 3];
        let _ = b.slice_ref(&other);
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

    #[test]
    fn empty_and_static_views_do_not_allocate_a_slab() {
        assert!(Bytes::new().owner.is_none());
        assert!(Bytes::from_static(b"static").owner.is_none());
        assert!(BytesMut::new().slab.is_none());
        assert!(BytesMut::new().freeze().is_empty());
        assert_eq!(&Bytes::from_static(b"static")[..], b"static");
    }

    #[test]
    fn from_vec_takes_the_buffer() {
        let v = b"owned-buffer".to_vec(); // len == capacity: no shrink, no move
        let p = v.as_ptr() as usize;
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr() as usize, p, "no copy");
        assert_eq!(&b[..], b"owned-buffer");
    }

    #[test]
    fn growth_at_least_doubles() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(&[7u8; 64]);
        m.extend_from_slice(&[8u8; 1]);
        assert!(m.capacity() >= 128);
        assert_eq!(m.len(), 65);
        assert_eq!(m[64], 8);
    }

    #[test]
    fn split_reuses_capacity_after_views_drop() {
        // The EncodeScratch discipline: encode, split, freeze, drop — the
        // next encode must land in the same slab.
        let mut m = BytesMut::with_capacity(32);
        m.extend_from_slice(b"first-message");
        let first = m.split().freeze();
        let slab = first.as_ptr() as usize;
        drop(first);
        m.extend_from_slice(&[0u8; 30]);
        assert_eq!(m.as_ptr() as usize, slab, "capacity reclaimed in place");
    }

    #[test]
    fn bytes_split_and_advance() {
        let mut b = Bytes::copy_from_slice(b"abcdef");
        let back = b.split_off(4);
        assert_eq!((&b[..], &back[..]), (&b"abcd"[..], &b"ef"[..]));
        Buf::advance(&mut b, 1);
        assert_eq!(&b[..], b"bcd");
        let clone = b.clone();
        assert_eq!(clone.as_ptr(), b.as_ptr());
    }
}
