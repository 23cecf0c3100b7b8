//! Allocation budget of `Sim::tick` in its steady state, counted by a
//! global allocator: once the queues and the per-TTI scratch of a world
//! are warm, a TTI allocates nothing — what is left is the amortised
//! growth of long-lived buffers (in-flight queues, RLC and TC queues of
//! newly attached UEs, `rtt_log`).  A regression here is a per-TTI `Vec`,
//! a sort buffer or a `collect()` creeping back into `sim.rs`, `cell.rs`,
//! `tc.rs`, `rlc.rs`, `nvs.rs` or `traffic.rs`.
//!
//! Before the TTI path moved its packets through caller-owned buffers the
//! two worlds below allocated 10.3 and 28.5 times per TTI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flexric_ransim::scenario::ScenarioSpec;
use flexric_ransim::ScenarioEngine;

mod worlds;

thread_local! {
    /// Allocations made by this thread (the test harness runs tests, and
    /// prints, on others).
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
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
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

/// Runs `f` and returns how many times this thread allocated meanwhile.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const WARM_UP_TTIS: u64 = 1_000;
const TTIS: u64 = 10_000;
/// Fewer than 0.01 allocations per TTI.
const BUDGET: u64 = TTIS / 100;

#[test]
fn ctrl_storm_world_ticks_without_allocating() {
    let mut sim = worlds::storm_world(worlds::mix(1, 0));
    for _ in 0..WARM_UP_TTIS {
        sim.tick();
    }
    let n = allocs(|| {
        for _ in 0..TTIS {
            sim.tick();
        }
    });
    assert!(n < BUDGET, "{n} allocations in {TTIS} TTIs of the ctrl-storm world");
}

/// The three cells of `commuter-rush`, populated by its scenario engine
/// (arrivals, departures, handovers, bursty UEs toggling) during warm-up
/// and standing still afterwards: a UE that arrives later brings empty
/// queues and an empty `rtt_log` that grow by doubling, ~20 allocations
/// each, which is churn and not the TTI (0.016 per TTI with the engine
/// live for all 11 000 TTIs; 30 before).
#[test]
fn three_cell_preset_world_ticks_without_allocating() {
    let mut eng = ScenarioEngine::new(ScenarioSpec::commuter_rush(1));
    let mut sim = eng.build_sim();
    eng.prime(&mut sim);
    for _ in 0..WARM_UP_TTIS {
        sim.tick();
        eng.advance(&mut sim);
    }
    assert_eq!(sim.cells.len(), 3);
    let n = allocs(|| {
        for _ in 0..TTIS {
            sim.tick();
        }
    });
    assert!(n < BUDGET, "{n} allocations in {TTIS} TTIs of commuter-rush");
}
