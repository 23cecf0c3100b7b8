//! Refcounted byte buffers: the subset of the `bytes` crate's API this
//! workspace uses, under that crate's name so no `use bytes::…` anywhere
//! had to change when the registry dependency went (DESIGN.md "The
//! machine/driver split" has why the name matters to `benchmark/`).
//!
//! The properties the measured paths depend on:
//!
//! * `BytesMut::split_to(..).freeze()`, `Bytes::clone` and
//!   `Bytes::slice_ref` are O(1) bookkeeping on a shared, refcounted slab,
//!   never copies — the zero-copy receive path and the encode-once fan-out
//!   rest on this;
//! * `reserve` is a no-op while the handle has room; a handle that is the
//!   slab's sole owner gets the whole slab back (the tail a dropped
//!   `split_off` half had, and the front by moving its bytes down), and
//!   grows it by at least doubling when it is too small; while views are
//!   outstanding it moves to a fresh slab of the old one's size (or of what
//!   it must hold, if that is more);
//! * allocations: `Bytes::new`, `BytesMut::new` and `from_static` make
//!   none; a slab — `copy_from_slice`, `with_capacity`, growth — is one,
//!   reference count and bytes together; `Bytes::from(Vec<u8>)` is one
//!   small one for the count and takes the vector's buffer as it is.
//!   `crates/sm/tests/delta_alloc.rs` and `benchmark/`'s `*.allocs_per_*`
//!   hold their budgets against exactly this.
//!
//! A view pins its whole slab.
//!
//! Soundness: a `BytesMut` is the exclusive owner of `[off, limit)` of its
//! slab; `split_to`/`split_off` shrink that window before sharing, frozen
//! `Bytes` views are read-only and cover only bytes written before the
//! freeze, so no write ever aliases a readable range and no uninitialised
//! byte is ever exposed.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::mem::{size_of, ManuallyDrop};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// What every handle of one slab points at.
struct Header {
    refs: AtomicUsize,
    /// The slab's first byte: right behind this header, or a `Vec`'s buffer.
    ptr: *mut u8,
    cap: usize,
    /// `ptr` is the buffer of a `Vec<u8>` of capacity `cap`, freed as one.
    from_vec: bool,
}

/// One counted reference to a slab.
struct Slab(NonNull<Header>);

// SAFETY: handles enforce range exclusivity (module docs): the only
// writers are `BytesMut` handles, each confined to its own window, and
// `Bytes` views only read ranges no handle can write any more.  The count
// is atomic; `ptr`, `cap` and `from_vec` never change after construction.
unsafe impl Send for Slab {}
// SAFETY: as above; shared access never writes.
unsafe impl Sync for Slab {}

impl Slab {
    /// Layout of a header followed by `inline` bytes.
    fn layout(inline: usize) -> Layout {
        let size = size_of::<Header>().checked_add(inline).expect("slab size overflows");
        Layout::from_size_align(size, std::mem::align_of::<Header>()).expect("slab too large")
    }

    /// Allocates a header with room for `inline` bytes behind it: those
    /// bytes are the slab unless `vec` names a buffer and its capacity.
    fn alloc(inline: usize, vec: Option<(*mut u8, usize)>) -> Slab {
        let layout = Self::layout(inline);
        // SAFETY: `layout` has non-zero size (a header at least).
        let raw = unsafe { alloc(layout) };
        let Some(header) = NonNull::new(raw as *mut Header) else { handle_alloc_error(layout) };
        let (ptr, cap) = match vec {
            Some(buf) => buf,
            // SAFETY: the allocation is `size_of::<Header>() + inline` long.
            None => (unsafe { raw.add(size_of::<Header>()) }, inline),
        };
        let from_vec = vec.is_some();
        // SAFETY: `header` is freshly allocated, aligned and large enough.
        unsafe { header.as_ptr().write(Header { refs: AtomicUsize::new(1), ptr, cap, from_vec }) };
        Slab(header)
    }

    fn new(cap: usize) -> Slab {
        Slab::alloc(cap, None)
    }

    fn from_vec(v: Vec<u8>) -> Slab {
        let mut v = ManuallyDrop::new(v);
        Slab::alloc(0, Some((v.as_mut_ptr(), v.capacity())))
    }

    fn header(&self) -> &Header {
        // SAFETY: the header lives until the last `Slab` of it is dropped,
        // and nothing hands out `&mut Header`.
        unsafe { self.0.as_ref() }
    }

    fn cap(&self) -> usize {
        self.header().cap
    }

    fn ptr(&self) -> *mut u8 {
        self.header().ptr
    }

    /// Whether no other handle or view shares this slab.  `Acquire` pairs
    /// with the `Release` of the decrement in `drop`: what the last other
    /// holder read is read before this handle writes there again.
    fn is_sole(&self) -> bool {
        self.header().refs.load(Ordering::Acquire) == 1
    }
}

impl Clone for Slab {
    fn clone(&self) -> Slab {
        // `Relaxed` as in `Arc`: a new reference is made from an existing
        // one, which already keeps the slab alive.
        self.header().refs.fetch_add(1, Ordering::Relaxed);
        Slab(self.0)
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // As in `Arc`: every other holder's use happens before the free.
        fence(Ordering::Acquire);
        let h = self.header();
        let (ptr, cap, from_vec) = (h.ptr, h.cap, h.from_vec);
        // SAFETY: this was the last reference.  A vector's buffer goes back
        // the way it came, with its own capacity; the header was allocated
        // by `alloc` with the layout recomputed here.
        unsafe {
            if from_vec {
                drop(Vec::from_raw_parts(ptr, 0, cap));
            }
            dealloc(self.0.as_ptr() as *mut u8, Self::layout(if from_vec { 0 } else { cap }));
        }
    }
}

/// Cheaply cloneable read-only view of a byte range.
pub struct Bytes {
    ptr: *const u8,
    len: usize,
    /// Keeps the range alive; `None` for static and empty views.
    owner: Option<Slab>,
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

    /// One allocation: count and bytes together.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        BytesMut::from(s).freeze()
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

    /// O(1) subview of `self` given a subslice of its contents; panics
    /// when `sub` is not in range.
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
    /// Takes the vector's buffer: no copy of the bytes.
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

/// Unique growable view over `[off, limit)` of a slab; the written
/// region is `[off, off + len)`.  `slab` is `None` only while
/// `limit == 0` (nothing allocated yet).
pub struct BytesMut {
    slab: Option<Slab>,
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

    /// Usable capacity of this handle: bytes between the view's start and
    /// the end of its exclusive window.
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

    /// Ensures room for `additional` more bytes: a no-op while the window
    /// has room; a sole owner's window becomes the whole slab again, its
    /// bytes moved to the front if that is what makes room, or a fresh slab
    /// of at least twice the size if the whole one is too small; while
    /// views are outstanding the handle leaves the old slab to them and
    /// moves to a fresh one of the same size (or of what it must hold, if
    /// that is more).
    pub fn reserve(&mut self, additional: usize) {
        if self.limit - self.off - self.len >= additional {
            return;
        }
        let mut at_least = 64;
        if let Some(slab) = &self.slab {
            let old_cap = slab.cap();
            if slab.is_sole() {
                // Nobody else is left, so the tail beyond `limit` (given
                // away by `split_off`, dropped since) is this handle's too.
                self.limit = old_cap;
                if old_cap >= self.len + additional {
                    if old_cap - self.off - self.len < additional {
                        // SAFETY: sole owner, so `[0, cap)` is ours; `copy`
                        // handles the overlap.
                        unsafe { std::ptr::copy(self.base(), slab.ptr(), self.len) };
                        self.off = 0;
                    }
                    return;
                }
                // Too small for what it holds: double, so growth amortises.
                at_least = at_least.max(old_cap * 2);
            } else {
                // Views still share it, so the handle moves to a fresh
                // slab of the same size: doubling would grow the slab with
                // every read of a reader that keeps one view from each.
                at_least = at_least.max(old_cap);
            }
        }
        let cap = (self.len + additional).max(at_least);
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

    /// `split_off` narrows the window; once the tail is dropped a sole
    /// owner must get it back, or every later `reserve` sees a window too
    /// small for a slab that is large enough and doubles the slab.
    #[test]
    fn reserve_regains_a_dropped_split_off_tail() {
        let mut m = BytesMut::with_capacity(256);
        m.extend_from_slice(&[1u8; 200]);
        drop(m.split_off(100));
        assert_eq!(m.capacity(), 100, "window narrowed to the front half");
        let slab = m.as_ptr() as usize;
        for round in 0..40 {
            m.clear();
            m.extend_from_slice(&[round as u8; 200]);
            assert_eq!(m.as_ptr() as usize, slab, "round {round}: same slab");
            assert_eq!(m.capacity(), 256, "round {round}: capacity stays the slab's");
        }
        assert!(m.iter().all(|&b| b == 39));
    }

    #[test]
    fn a_live_split_off_tail_is_never_written_over() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"frontbacktail");
        let tail = m.split_off(5);
        m.extend_from_slice(&[b'x'; 64]); // no room in the window: must move
        assert_eq!(&tail[..], b"backtail");
        assert_eq!(&m[..5], b"front");
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
        let mut v = Vec::with_capacity(64); // spare capacity: still no shrink, no move
        v.extend_from_slice(b"owned-buffer");
        let p = v.as_ptr() as usize;
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr() as usize, p, "no copy");
        assert_eq!(&b[..], b"owned-buffer");
        let c = b.clone();
        drop(b);
        assert_eq!(&c[..], b"owned-buffer", "the buffer lives as long as its last view");
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

    #[test]
    fn views_cross_threads_and_the_last_one_frees() {
        let b = Bytes::from(vec![9u8; 4096]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let v = b.clone();
                std::thread::spawn(move || v.iter().map(|&x| x as u64).sum::<u64>())
            })
            .collect();
        drop(b);
        for t in threads {
            assert_eq!(t.join().expect("reader thread"), 9 * 4096);
        }
    }
}
