//! Allocation budget of a warm agent tick, counted by a global allocator:
//! deciding what is due and handing the due subscriptions to their
//! function allocates nothing — the agent keeps the books and the function
//! sees them by reference.  A regression here is a per-tick `Vec` of due
//! subscriptions or a clone of their records creeping back into
//! `Agent::tick`.
//!
//! The count is per thread, and the `flexric_obs` series an agent records
//! in are registered once per process, by whichever thread gets there
//! first: [`warm_up`] has this thread's throwaway agent do it before the
//! counted one is built, so that the count never depends on which test ran
//! first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexric::agent::{Admission, AgentCtx, Due, RanFunction, SubscriptionInfo};
use flexric::machine::{Event, Machine};
use flexric_e2ap::*;
use flexric_sm::{ReportMode, ReportTrigger};

mod rig;
use rig::{identity, Rig, SM};

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

/// Looks at every due subscription and sends nothing.
struct CountFn {
    identity: RanFunctionItem,
    seen: Arc<AtomicU64>,
}

impl RanFunction for CountFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SM)
    }
    fn on_report(&mut self, _ctx: &mut AgentCtx, due: Due<'_>) {
        let full = due.iter().filter(|s| s.mode() == ReportMode::Full).count();
        self.seen.fetch_add(full as u64, Ordering::Relaxed);
    }
}

const SUBS: u16 = 8;
const TICKS: u64 = 1_000;

/// Has a throwaway agent with a due subscription register what an agent
/// registers once per process (its metrics) and tick.
fn warm_up() {
    let function = CountFn { identity: identity(7, "test.count"), seen: Default::default() };
    let mut rig = Rig::new(vec![Box::new(function)], 1);
    rig.subscribe(0, 7, 0, ReportTrigger::every_ms(1), 0);
    rig.agent.handle(Event::Tick, 0, &mut Vec::new());
}

#[test]
fn a_warm_tick_with_due_subscriptions_allocates_nothing() {
    warm_up();
    let seen = Arc::new(AtomicU64::new(0));
    let function = CountFn { identity: identity(7, "test.count"), seen: seen.clone() };
    let mut rig = Rig::new(vec![Box::new(function)], 1);
    for req in 0..SUBS {
        rig.subscribe(0, 7, req, ReportTrigger::every_ms(1), 0);
    }
    let mut out = Vec::new();
    for now in 0..10 {
        rig.agent.handle(Event::Tick, now, &mut out);
    }
    let n = allocs(|| {
        for now in 10..10 + TICKS {
            rig.agent.handle(Event::Tick, now, &mut out);
        }
    });
    assert!(out.is_empty(), "nothing was sent");
    assert_eq!(seen.load(Ordering::Relaxed), (10 + TICKS) * SUBS as u64, "all due on every tick");
    assert_eq!(n, 0, "{n} allocations in {TICKS} ticks with {SUBS} due subscriptions each");
}
