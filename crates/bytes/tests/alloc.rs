//! The allocation behaviour the crate documents, counted by a global
//! allocator: the budgets of `crates/sm/tests/delta_alloc.rs` and of
//! `benchmark/`'s `*.allocs_per_*` series are held against these numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};

thread_local! {
    /// Allocations made by this thread (the harness allocates on others).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // The thread-local is gone while a thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_slab_is_one_allocation() {
    assert_eq!(allocs(|| Bytes::copy_from_slice(&[7u8; 300])).0, 1, "copy_from_slice");
    assert_eq!(allocs(|| BytesMut::with_capacity(300)).0, 1, "with_capacity");
    let mut m = BytesMut::with_capacity(64);
    m.extend_from_slice(&[1u8; 64]);
    assert_eq!(allocs(|| m.extend_from_slice(&[2u8; 64])).0, 1, "growth");
}

#[test]
fn views_and_empties_allocate_nothing() {
    let b = Bytes::copy_from_slice(b"hello world");
    let (n, _views) = allocs(|| (b.clone(), b.slice_ref(&b[6..]), Bytes::new(), BytesMut::new()));
    assert_eq!(n, 0);
    assert_eq!(allocs(|| Bytes::from_static(b"static")).0, 0);
    let mut m = BytesMut::with_capacity(64);
    m.extend_from_slice(b"frame");
    assert_eq!(allocs(|| m.split().freeze()).0, 0, "split + freeze");
}

#[test]
fn from_vec_allocates_the_count_only() {
    let v = vec![3u8; 4096];
    let (n, b) = allocs(|| Bytes::from(v));
    assert_eq!(n, 1);
    assert_eq!(b.len(), 4096);
}

#[test]
fn a_warm_scratch_buffer_allocates_nothing_per_message() {
    // Encode, split, freeze, send, drop: from the second message on the
    // slab is reclaimed in place.
    let mut m = BytesMut::with_capacity(256);
    let (n, ()) = allocs(|| {
        for round in 0..100u8 {
            m.extend_from_slice(&[round; 200]);
            drop(m.split().freeze());
        }
    });
    assert_eq!(n, 0);
}
