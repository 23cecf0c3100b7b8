//! The keyframe phase grid of delta streams: each stream keys on a grid of
//! its own, so that streams started together do not key together.
//!
//! * the first report, and the first after a reset, are keyframes;
//! * keyframes are never more than `keyframe_every` opportunities apart,
//!   whatever the phase and wherever the resets fall;
//! * a fleet of streams keyed as the benchmark's ledger keys them, started
//!   in one opportunity — and reset in one opportunity later — puts at
//!   most twice its share of keyframes on any later opportunity;
//! * a stream's phase is a function of its key alone, pinned here.

use flexric_e2ap::RicRequestId;
use flexric_sm::delta::{phase_of, DeltaEncoder, DeltaOut, DeltaStreams, ReportOut};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::{ReportMode, SmCodec};
use proptest::prelude::*;

/// A one-UE MAC snapshot whose counter is `count`.
fn snap(tstamp_ms: u64, count: u64) -> MacStatsInd {
    let ue = MacUeStats { rnti: 0x4601, cqi: 12, dl_aggr_bytes: count, ..Default::default() };
    MacStatsInd { tstamp_ms, cell_prbs: 106, ues: vec![ue] }
}

/// Whether a sent payload is a keyframe (`epoch:32 seq:32 is_delta:1`).
fn is_keyframe(out: &ReportOut) -> bool {
    matches!(out, ReportOut::Send(buf) if buf[8] & 0x80 == 0)
}

/// The ledger's key of its `i`-th stream.
fn ledger_key(i: u16) -> (usize, RicRequestId) {
    (0, RicRequestId::new(1, i))
}

#[test]
fn new_is_phase_zero_and_a_phase_keys_that_much_early() {
    for k in [1, 2, 5, 16] {
        for phase in 0..k + 2 {
            let mut enc = DeltaEncoder::with_phase(k, phase);
            let mut zero = DeltaEncoder::new(k);
            let kinds: Vec<bool> = (0..4 * k as u64)
                .map(|t| {
                    let s = snap(t, t);
                    let out = enc.encode(&s, SmCodec::Flatb);
                    if phase % k == 0 {
                        assert_eq!(out, zero.encode(&s, SmCodec::Flatb), "k {k} phase {phase}");
                    }
                    matches!(out, DeltaOut::Keyframe(_))
                })
                .collect();
            let keys: Vec<u64> = (0..kinds.len() as u64).filter(|t| kinds[*t as usize]).collect();
            let first = u64::from(k - phase % k);
            let want: Vec<u64> =
                std::iter::once(0).chain((first..kinds.len() as u64).step_by(k as usize)).collect();
            assert_eq!(keys, want, "k {k} phase {phase}");
        }
    }
}

#[test]
fn first_report_and_first_after_a_reset_are_keyframes() {
    let mode = ReportMode::Delta { keyframe_every: 16 };
    for i in 0..64 {
        let mut streams: DeltaStreams<(usize, RicRequestId), MacStatsInd> = DeltaStreams::new();
        let key = ledger_key(i);
        for t in 0..40u64 {
            if t == 7 || t == 23 {
                streams.reset(key, 16);
            }
            let out = streams.report(key, mode, &snap(t, t), SmCodec::Flatb);
            if [0, 7, 23].contains(&t) {
                assert!(is_keyframe(&out), "stream {i} opportunity {t}");
            }
        }
        // A stream `reset` creates keys first too.
        let mut streams: DeltaStreams<(usize, RicRequestId), MacStatsInd> = DeltaStreams::new();
        streams.reset(key, 16);
        assert!(is_keyframe(&streams.report(key, mode, &snap(0, 0), SmCodec::Flatb)));
    }
}

proptest! {
    #[test]
    fn keyframes_are_never_more_than_keyframe_every_apart_across_resets(
        keyframe_every in 1..20u32,
        phase in 0..40u32,
        resets in prop::collection::vec(0..120u64, 0..6),
        changes in prop::collection::vec(any::<bool>(), 120..121),
    ) {
        let mut enc = DeltaEncoder::with_phase(keyframe_every, phase);
        let (mut count, mut since) = (0, 0);
        for t in 0..120u64 {
            let reset = resets.contains(&t);
            if reset {
                enc.force_keyframe();
            }
            count += u64::from(changes[t as usize]);
            match enc.encode(&snap(t, count), SmCodec::Asn1Per) {
                DeltaOut::Keyframe(_) => since = 0,
                out => {
                    prop_assert!(t > 0 && !reset, "opportunity {t}: {out:?} where a keyframe was due");
                    since += 1;
                    prop_assert!(since < keyframe_every, "opportunity {t}: overdue keyframe");
                }
            }
        }
    }
}

/// Keyframes on each opportunity of `ticks` of a fleet of `n` streams, the
/// ledger's keys, all created in opportunity 0 and all reset before
/// opportunity `reset_at`; every snapshot changes every opportunity.
fn fleet_keyframes(n: u16, ticks: u64, reset_at: u64) -> Vec<usize> {
    let mode = ReportMode::Delta { keyframe_every: 16 };
    let mut streams: DeltaStreams<(usize, RicRequestId), MacStatsInd> = DeltaStreams::new();
    (0..ticks)
        .map(|t| {
            if t == reset_at {
                (0..n).for_each(|i| streams.reset(ledger_key(i), 16));
            }
            let report = |i| streams.report(ledger_key(i), mode, &snap(t, t), SmCodec::Flatb);
            (0..n).map(report).filter(is_keyframe).count()
        })
        .collect()
}

#[test]
fn a_fleet_started_at_once_spreads_its_keyframes_and_a_mass_reset_does_not_realign_it() {
    const N: u16 = 768;
    let (reset_at, ticks) = (40, 80);
    let per_tick = fleet_keyframes(N, ticks, reset_at);
    let bound = 2 * (N as usize).div_ceil(16);
    for (t, n) in per_tick.iter().enumerate() {
        if t == 0 || t as u64 == reset_at {
            assert_eq!(*n, N as usize, "opportunity {t}: every stream (re)starts with a keyframe");
        } else {
            assert!(*n <= bound, "opportunity {t}: {n} keyframes, at most {bound}: {per_tick:?}");
        }
    }
    // Every stream keys once in any 16 opportunities after its start.
    let window: usize = per_tick[1..17].iter().sum();
    assert_eq!(window, N as usize, "{per_tick:?}");
}

#[test]
fn phases_are_a_pinned_function_of_the_key() {
    let phases: Vec<u32> = (0..16).map(|i| phase_of(&ledger_key(i), 16)).collect();
    assert_eq!(phases, PINNED, "a phase moved: streams of two builds would key differently");
    // A key of zeros is at phase 0, where `DeltaEncoder::new` is.
    assert_eq!([phase_of(&(), 16), phase_of(&0u8, 16), phase_of(&(0usize, 0u32), 16)], [0; 3]);
    assert!((0..1000u32).all(|k| phase_of(&ledger_key(3), k) < k.max(1)));
}

/// `phase_of(ledger_key(i), 16)` for `i` in `0..16`.
const PINNED: [u32; 16] = [15, 13, 4, 0, 5, 11, 6, 10, 3, 4, 8, 15, 1, 10, 2, 9];
