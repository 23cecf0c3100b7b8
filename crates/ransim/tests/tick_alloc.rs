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
//!
//! The same allocator also keeps this thread's live heap bytes, which
//! bound what a world holds (`a_ctrl_storm_world_holds_little_heap`,
//! `a_long_path_holds_its_packets_in_flight_as_runs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flexric_ransim::scenario::ScenarioSpec;
use flexric_ransim::traffic::TCP_MAX_WND;
use flexric_ransim::{CellConfig, PathConfig, ScenarioEngine, Sim, UeConfig};
use flexric_sm::slice::SliceCtrl;

mod worlds;

thread_local! {
    /// Allocations made by this thread (the test harness runs tests, and
    /// prints, on others).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    /// One allocation of `grown` bytes more than were held before.
    fn count(grown: i64) {
        // The thread-locals are gone while a thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        Self::grow(grown);
    }

    fn grow(bytes: i64) {
        let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::grow(-(layout.size() as i64));
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

/// Runs `f` and returns how many bytes this thread holds afterwards that it
/// did not hold before: what `f` keeps, with its buffers' spare capacity.
fn kept<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let t = f();
    (t, LIVE.with(Cell::get) - before)
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

/// Makes what the simulator sets up once per process or thread (its
/// metrics), so that `kept` counts what a world holds and nothing else.
/// Without it the first world a thread builds also counts those 10 220
/// bytes — or does not, when another test's thread got there first.
fn warm_up() {
    Sim::new(vec![CellConfig::nr("warm", 6)], PathConfig::default()).tick();
}

/// Most heap one `ctrl-storm` cell holds after the benchmark's block of
/// 500 TTIs with an `AddModSlices` flip every TTI: twice the 30 595 bytes
/// the seed-1 and the seed-7 world each hold with every queue — TC, RLC,
/// deliveries and ACKs — kept as runs of 24-byte packets (32 275 when the
/// in-flight queues still took an entry per packet; the paths here are
/// short, `a_long_path_holds_its_packets_in_flight_as_runs` weighs those).
/// Most of it is the greedy-TCP flows' windows queued in their bearers:
/// when every queued packet took a 56-byte slot of its own, the same worlds
/// held 202 303 and 134 739 bytes, the first with the metrics counted.
const STORM_CELL_HEAP: i64 = 2 * 30_595;

#[test]
fn a_ctrl_storm_world_holds_little_heap() {
    warm_up();
    for seed in [1, 7] {
        let (sim, bytes) = kept(|| {
            let mut sim = worlds::storm_world(worlds::mix(seed, 0));
            for t in 0..500 {
                let slices = worlds::storm_slices(&worlds::STORM_SHARES[t % 2]);
                worlds::slice_ctrl(&mut sim, 0, SliceCtrl::AddModSlices { slices });
                sim.tick();
            }
            sim
        });
        let per_cell = bytes / sim.cells.len() as i64;
        println!("ctrl-storm world, seed {seed}: {per_cell} heap bytes per cell");
        assert!(
            per_cell <= STORM_CELL_HEAP,
            "seed {seed}: {per_cell} heap bytes per cell, budget {STORM_CELL_HEAP}"
        );
    }
}

/// Most heap a world with a long path holds: one greedy flow at MCS 28
/// whose window (the 2 048-segment cap) is mostly in flight — 50 ms to
/// the UE, 500 ms back.  It holds 19 802 bytes with deliveries and ACKs
/// kept as runs, one ACK entry per flow and ms; with a delivery entry per
/// packet it held 35 162, with an ACK entry per packet 44 410.
const LONG_PATH_HEAP: i64 = 30_000;

#[test]
fn a_long_path_holds_its_packets_in_flight_as_runs() {
    warm_up();
    let (sim, bytes) = kept(|| {
        let path = PathConfig { dl_latency_ms: 50, ul_rtt_ms: 500 };
        let mut sim = Sim::new(vec![CellConfig::nr("far", 106)], path);
        sim.attach_ue(0, UeConfig::new(0x4601, 28));
        sim.add_flow(worlds::flow(0, 0x4601, worlds::TCP, 80, 6));
        for _ in 0..8_000 {
            sim.tick();
        }
        sim
    });
    let cwnd = sim.flow(0).tcp_state().map(|tcp| tcp.cwnd);
    println!("long-path world: {bytes} heap bytes, window {cwnd:?}");
    assert_eq!(cwnd, Some(TCP_MAX_WND), "the window is open all the way");
    assert!(bytes <= LONG_PATH_HEAP, "{bytes} heap bytes, budget {LONG_PATH_HEAP}");
}
