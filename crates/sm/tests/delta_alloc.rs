//! Allocation budget of a delta stream in its steady state, counted by a
//! global allocator: once a 32-row stream is warm, a suppressed report
//! opportunity allocates nothing, an emitted delta at most once (the frame
//! copied out of the scratch buffer), and applying a delta at most twice
//! (the reconstruction handed to the caller, and slack).  A regression here is
//! a per-report `Vec`, table or clone creeping back into `sm::delta`.
//!
//! A warm stream's keyframe costs little more: emitting one allocates at
//! most twice (the frame, which the snapshot is encoded straight into, and
//! the count of the `Bytes` that takes it over), applying one at most twice
//! (the decoded snapshot handed to the caller, and slack) — the base each
//! end keeps takes the snapshot into its own storage, not a clone.
//!
//! The counts are per thread.  Whatever the process sets up once — the
//! `flexric_obs` series the report path records in — is set up by whichever
//! thread gets there first, so every test registers them before it counts
//! ([`warm_up`]): a count never includes another test's setup, or misses
//! its own.
//!
//! Likewise for a full snapshot: encoding 32 rows allocates the output
//! buffer and nothing else — no list of row offsets, no growth mid-encode,
//! no table staged on the heap however wide — and into a warm scratch
//! buffer it allocates nothing at all, in PER — a window of the bit writer
//! per row, each a reservation the warm scratch already has — as in FB.
//! (How often an encoder *reserves* in its sink — FB once for all the rows,
//! PER once per row and not once per field — is not an allocation count:
//! `fb_rows.rs` and `per_rows.rs` hold that with a counting sink.)
//!
//! And for a declared payload with a list in it: a slice indication's
//! UE associations are packed into the FB vector as they are walked, not
//! into a `Vec<u64>` on the side first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flexric_sm::delta::{register_metrics, DeltaDecoder, DeltaEvent, DeltaStreams, ReportOut};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::slice::{
    SliceAlgo, SliceConf, SliceParams, SliceStatsInd, SliceStatus, UeSchedAlgo,
};
use flexric_sm::{ReportMode, SmCodec, SmPayload};

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
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Registers the process's series before anything is counted.
fn warm_up() {
    register_metrics();
}

/// Moves the clock and two counters of every UE; all keep their width on
/// the wire, so frames keep their size and the scratch buffer, once warm,
/// never has to grow.
fn tick(snap: &mut MacStatsInd, round: u64) {
    snap.tstamp_ms += 10;
    for ue in &mut snap.ues {
        ue.dl_aggr_bytes = 1_000_000 + round;
        ue.bsr = 70_000 + round as u32;
    }
}

#[test]
fn steady_state_stays_within_its_allocation_budget() {
    warm_up();
    for codec in SmCodec::ALL {
        let mode = ReportMode::Delta { keyframe_every: 1_000 };
        let mut streams: DeltaStreams<u8, MacStatsInd> = DeltaStreams::new();
        let mut dec = DeltaDecoder::<MacStatsInd>::new();
        let ues = (0..32).map(|i| MacUeStats { rnti: 0x4601 + i, cqi: 12, ..Default::default() });
        let mut snap = MacStatsInd { tstamp_ms: 1_000_000, cell_prbs: 106, ues: ues.collect() };

        // Warm-up: the keyframe, then deltas as large as any below.
        for round in 0..8 {
            tick(&mut snap, round);
            let ReportOut::Send(frame) = streams.report(0, mode, &snap, codec) else {
                panic!("round {round}: content changed");
            };
            dec.apply(&frame, codec).expect("well-formed frame");
        }

        for round in 8..40 {
            // Nothing but the timestamp moved.
            snap.tstamp_ms += 10;
            let (n, out) = allocs(|| streams.report(0, mode, &snap, codec));
            assert_eq!(out, ReportOut::Suppressed);
            assert_eq!(n, 0, "{codec:?} round {round}: a suppressed opportunity allocated");

            tick(&mut snap, round);
            let (n, out) = allocs(|| streams.report(0, mode, &snap, codec));
            let ReportOut::Send(frame) = out else { panic!("round {round}: content changed") };
            assert!(n <= 1, "{codec:?} round {round}: an emitted delta allocated {n} times");

            let (n, ev) = allocs(|| dec.apply(&frame, codec));
            match ev.expect("well-formed frame") {
                DeltaEvent::Snapshot { snap: got, keyframe: false, .. } => assert_eq!(got, snap),
                other => panic!("round {round}: expected a delta to apply, got {other:?}"),
            }
            assert!(n <= 2, "{codec:?} round {round}: applying a delta allocated {n} times");
        }
    }
}

/// Whether a sent payload is a keyframe (`epoch:32 seq:32 is_delta:1`).
fn is_keyframe(frame: &[u8]) -> bool {
    frame[8] & 0x80 == 0
}

#[test]
fn a_warm_keyframe_stays_within_its_allocation_budget() {
    warm_up();
    for codec in SmCodec::ALL {
        // Key 0 is at phase 0: a keyframe every fourth opportunity.
        let mode = ReportMode::Delta { keyframe_every: 4 };
        let mut streams: DeltaStreams<u8, MacStatsInd> = DeltaStreams::new();
        let mut dec = DeltaDecoder::<MacStatsInd>::new();
        let ues = (0..32).map(|i| MacUeStats { rnti: 0x4601 + i, cqi: 12, ..Default::default() });
        let mut snap = MacStatsInd { tstamp_ms: 1_000_000, cell_prbs: 106, ues: ues.collect() };
        let mut keyframes = 0;
        for round in 0..40 {
            tick(&mut snap, round);
            let (emit, out) = allocs(|| streams.report(0, mode, &snap, codec));
            let ReportOut::Send(frame) = out else { panic!("round {round}: content changed") };
            let (apply, ev) = allocs(|| dec.apply(&frame, codec));
            match ev.expect("well-formed frame") {
                DeltaEvent::Snapshot { snap: got, .. } => assert_eq!(got, snap),
                other => panic!("round {round}: expected a snapshot, got {other:?}"),
            }
            // Warm: both ends have had a keyframe of this shape.
            if round < 8 || !is_keyframe(&frame) {
                continue;
            }
            keyframes += 1;
            assert!(
                emit <= 2,
                "{codec:?} round {round}: emitting a keyframe allocated {emit} times"
            );
            assert!(
                apply <= 2,
                "{codec:?} round {round}: applying a keyframe allocated {apply} times"
            );
        }
        assert_eq!(keyframes, 8, "{codec:?}: a keyframe every fourth round");
    }
}

#[test]
fn full_snapshot_of_32_rows_is_one_allocation() {
    warm_up();
    // Every counter at its maximum: the longest PER encoding there is.
    let ue = MacUeStats {
        rnti: u16::MAX,
        cqi: 15,
        mcs: 31,
        prbs_dl: u32::MAX,
        prbs_ul: u32::MAX,
        tbs_dl_bytes: u64::MAX,
        tbs_ul_bytes: u64::MAX,
        dl_aggr_bytes: u64::MAX,
        ul_aggr_bytes: u64::MAX,
        bsr: u32::MAX,
        dl_backlog_bytes: u64::MAX,
        slice_id: u32::MAX,
        plmn_mcc: 999,
        plmn_mnc: 999,
    };
    let mac = MacStatsInd { tstamp_ms: u64::MAX, cell_prbs: u32::MAX, ues: vec![ue; 32] };
    let bearer = RlcBearerStats {
        rnti: u16::MAX,
        drb_id: 32,
        tx_pdus: u64::MAX,
        tx_bytes: u64::MAX,
        retx_pdus: u64::MAX,
        dropped_pdus: u64::MAX,
        buffer_bytes: u64::MAX,
        buffer_pkts: u32::MAX,
        sojourn_us_avg: u64::MAX,
        sojourn_us_max: u64::MAX,
    };
    let rlc = RlcStatsInd { tstamp_ms: u64::MAX, bearers: vec![bearer; 32] };
    let bearer = PdcpBearerStats {
        rnti: u16::MAX,
        drb_id: 32,
        tx_pdus: u64::MAX,
        tx_bytes: u64::MAX,
        rx_pdus: u64::MAX,
        rx_bytes: u64::MAX,
        tx_aggr_bytes: u64::MAX,
        rx_aggr_bytes: u64::MAX,
        rx_discards: u64::MAX,
    };
    let pdcp = PdcpStatsInd { tstamp_ms: u64::MAX, bearers: vec![bearer; 32] };
    for codec in SmCodec::ALL {
        let (n, bytes) = allocs(|| mac.encode(codec));
        assert_eq!(n, 1, "{codec:?} MAC, {} B", bytes.len());
        let (n, bytes) = allocs(|| rlc.encode(codec));
        assert_eq!(n, 1, "{codec:?} RLC, {} B", bytes.len());
        let (n, bytes) = allocs(|| pdcp.encode(codec));
        assert_eq!(n, 1, "{codec:?} PDCP, {} B", bytes.len());

        // Once the scratch has grown to hold them and the earlier handles
        // are dropped, `encode_into` reuses it.
        let mut scratch = bytes::BytesMut::new();
        for warming in [true, false] {
            let (n, _) = allocs(|| {
                drop(mac.encode_into(codec, &mut scratch));
                drop(rlc.encode_into(codec, &mut scratch));
                drop(pdcp.encode_into(codec, &mut scratch));
            });
            assert!(warming || n == 0, "{codec:?}: a warm encode_into allocated {n} times");
        }
    }
}

#[test]
fn slice_indication_with_associations_encodes_into_a_warm_scratch_without_allocating() {
    let slices = (0..3).map(|id| SliceStatus {
        conf: SliceConf {
            id,
            label: format!("tenant-{id}"),
            params: SliceParams::NvsCapacity { share_milli: 300 },
            ue_sched: UeSchedAlgo::PropFair,
        },
        alloc_prbs: 10_000,
        thr_kbps: 30_000,
        num_ues: 8,
    });
    let ind = SliceStatsInd {
        tstamp_ms: 1_000_000,
        algo: SliceAlgo::Nvs,
        slices: slices.collect(),
        ue_assoc: (0..24).map(|i| (0x4601 + i, u32::from(i % 3))).collect(),
    };
    warm_up();
    for codec in SmCodec::ALL {
        let mut scratch = bytes::BytesMut::new();
        for warming in [true, false] {
            let (n, _) = allocs(|| drop(ind.encode_into(codec, &mut scratch)));
            assert!(warming || n == 0, "{codec:?}: a warm encode_into allocated {n} times");
        }
    }
}
