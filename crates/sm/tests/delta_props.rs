//! Property tests for the delta indication codec, on all four monitoring
//! service models and both SM codecs.
//!
//! The production encoder and decoder (`flexric_sm::delta`) are held to the
//! plain reference kept in `delta_reference/`: for arbitrary KPI snapshots,
//! mutation sequences (dirty-field subsets, row churn, reordering, whole
//! snapshots rewritten) and keyframe intervals, every report opportunity
//! has the same outcome and the same frame bytes, every frame reconstructs
//! byte-identically to encoding the sender's snapshot directly, and any
//! truncated or bit-flipped frame is refused, resynced or accepted exactly
//! as the reference would — never a panic, never a half-patched base.
//! Losing a delta frame is always detected, with a forced keyframe
//! resyncing the stream.  Runs under both the real proptest (cargo) and the
//! mini_proptest shim (tools/offline_verify).

mod delta_reference;

use std::fmt::Debug;

use delta_reference::{RefDecoder, RefEncoder};
use flexric_sm::delta::{DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut, DeltaRows};
use flexric_sm::kpm::{KpmRecord, KpmReport};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::schema::Row;
use flexric_sm::SmCodec;
use proptest::prelude::*;

/// What the generators need to know of a service model beyond
/// [`DeltaRows`].
trait Model: DeltaRows + Debug {
    /// A snapshot without rows.
    fn empty() -> Self;
    /// Row number `k` with every field at its default; distinct numbers
    /// give distinct keys.
    fn row(k: u16) -> Self::Row;
    /// The largest value field `i` can hold, from the SM's field table.
    fn max(_i: u32) -> u64 {
        u64::MAX
    }
    /// Clamps a raw value into what the aux scalar can hold.
    fn legal_aux(_v: u64) -> u64 {
        0
    }
}

impl Model for MacStatsInd {
    fn empty() -> Self {
        MacStatsInd { tstamp_ms: 0, cell_prbs: 106, ues: Vec::new() }
    }
    fn row(k: u16) -> MacUeStats {
        MacUeStats { rnti: 0x4601 + k, ..Default::default() }
    }
    fn max(i: u32) -> u64 {
        MacUeStats::FIELDS[i as usize].max
    }
    fn legal_aux(v: u64) -> u64 {
        v % 1000
    }
}

impl Model for RlcStatsInd {
    fn empty() -> Self {
        RlcStatsInd::default()
    }
    fn row(k: u16) -> RlcBearerStats {
        RlcBearerStats { rnti: 0x4601 + k / 2, drb_id: 1 + (k % 2) as u8, ..Default::default() }
    }
    fn max(i: u32) -> u64 {
        RlcBearerStats::FIELDS[i as usize].max
    }
}

impl Model for PdcpStatsInd {
    fn empty() -> Self {
        PdcpStatsInd::default()
    }
    fn row(k: u16) -> PdcpBearerStats {
        PdcpBearerStats { rnti: 0x4601 + k / 2, drb_id: 1 + (k % 2) as u8, ..Default::default() }
    }
    fn max(i: u32) -> u64 {
        PdcpBearerStats::FIELDS[i as usize].max
    }
}

/// KPM rows are named: adding, removing or reordering one changes the
/// structure signature, so those steps exercise the forced keyframe and
/// only value and granularity changes travel as deltas.
impl Model for KpmReport {
    fn empty() -> Self {
        KpmReport { tstamp_ms: 0, granularity_ms: 1000, records: Vec::new() }
    }
    fn row(k: u16) -> KpmRecord {
        const NAMES: [&str; 4] =
            ["DRB.UEThpDl", "RRU.PrbTotDl", "DRB.RlcSduDelayDl", "RRC.ConnMean"];
        let ue = k / NAMES.len() as u16;
        KpmRecord {
            name: NAMES[k as usize % NAMES.len()].to_owned(),
            rnti: (ue > 0).then_some(0x4600 + ue),
            value: 0,
        }
    }
    fn legal_aux(v: u64) -> u64 {
        v % (u32::MAX as u64 + 1)
    }
}

/// Sets field `i` of `row` to `v`, folded into what the field can hold.
fn set<M: Model>(row: &mut M::Row, i: u32, v: u64) {
    let v = M::max(i).checked_add(1).map_or(v, |over| v % over);
    assert!(M::set_field(row, i, v), "{} field {i} = {v}", M::NAME);
}

/// Sets every field of `row` from `seed`.
fn fill<M: Model>(row: &mut M::Row, seed: u64) {
    for i in 0..M::FIELD_COUNT {
        set::<M>(row, i, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64));
    }
}

fn snapshot_of<M: Model>(seeds: &[u64]) -> M {
    let mut snap = M::empty();
    for (k, seed) in seeds.iter().enumerate() {
        let mut row = M::row(k as u16);
        fill::<M>(&mut row, *seed);
        snap.rows_mut().push(row);
    }
    snap
}

/// Row numbers handed to rows added after the initial snapshot.
const FIRST_NEW_ROW: u16 = 64;

fn arb_rows() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..24)
}

/// One mutation step: `(what, row selector, field, value)`.
type Op = (u8, prop::sample::Index, u32, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0..10u8, any::<prop::sample::Index>(), 0..32u32, any::<u64>()), 0..40)
}

/// Applies one mutation to the snapshot, keeping row keys unique.
fn apply_op<M: Model>(snap: &mut M, next_row: &mut u16, op: &Op) {
    let (what, row, field, value) = op;
    let field = field % M::FIELD_COUNT;
    let n = snap.rows().len();
    match what {
        // Remove the selected row.
        0 if n > 0 => {
            snap.rows_mut().remove(row.index(n));
        }
        // Add a fresh row.
        1 => {
            let mut new = M::row(*next_row);
            *next_row += 1;
            set::<M>(&mut new, field, *value);
            snap.rows_mut().push(new);
        }
        // Swap two rows (reordering).
        2 if n >= 2 => {
            let i = row.index(n);
            snap.rows_mut().swap(i, (i + 1) % n);
        }
        // Touch the aux header scalar.
        3 => assert!(snap.set_aux(M::legal_aux(*value))),
        // Rewrite every field of every row: a delta larger than the
        // keyframe, which must fall back exactly when the reference does.
        4 => {
            for (i, r) in snap.rows_mut().iter_mut().enumerate() {
                fill::<M>(r, value.wrapping_add(i as u64));
            }
        }
        // Mutate one field of one row (the common case).
        _ if n > 0 => {
            set::<M>(&mut snap.rows_mut()[row.index(n)], field, *value);
        }
        _ => {}
    }
    snap.set_tstamp_ms(snap.tstamp_ms() + 1);
}

/// Runs `$f::<M>($args)` for the service model numbered `$model`.
macro_rules! on_model {
    ($model:expr, $f:ident($($arg:expr),*)) => {
        match $model % 4 {
            0 => $f::<MacStatsInd>($($arg),*),
            1 => $f::<RlcStatsInd>($($arg),*),
            2 => $f::<PdcpStatsInd>($($arg),*),
            _ => $f::<KpmReport>($($arg),*),
        }
    };
}

fn codec_of(fb: bool) -> SmCodec {
    SmCodec::ALL[fb as usize]
}

/// A run's encoder, its final snapshot, and each emitted frame with the
/// snapshot it carries.
type Run<M> = (DeltaEncoder<M>, M, Vec<(Vec<u8>, M)>);

/// The frames a lossless run of `ops` emits, with the snapshot each one
/// carries.
fn emitted_frames<M: Model>(
    seeds: &[u64],
    ops: &[Op],
    keyframe_every: u32,
    codec: SmCodec,
) -> Run<M> {
    let mut snap = snapshot_of::<M>(seeds);
    let mut next_row = FIRST_NEW_ROW;
    let mut enc = DeltaEncoder::new(keyframe_every);
    let mut frames = Vec::new();
    for step in 0..ops.len() + 1 {
        if step > 0 {
            apply_op(&mut snap, &mut next_row, &ops[step - 1]);
        }
        match enc.encode(&snap, codec) {
            DeltaOut::Keyframe(f) | DeltaOut::Delta(f) => frames.push((f, snap.clone())),
            DeltaOut::Suppressed => {}
        }
    }
    (enc, snap, frames)
}

/// Whatever the mutation sequence and keyframe interval: the encoder's
/// outcome and frame bytes are the reference's, every frame reconstructs
/// to the exact snapshot — value-, order- and byte-identical — in the
/// decoder as in the reference, and suppressed reports leave the previous
/// reconstruction in place.
fn check_against_reference<M: Model>(seeds: &[u64], ops: &[Op], keyframe_every: u32, fb: bool) {
    let codec = codec_of(fb);
    let mut snap = snapshot_of::<M>(seeds);
    let mut next_row = FIRST_NEW_ROW;
    let (mut enc, mut ref_enc) =
        (DeltaEncoder::new(keyframe_every), RefEncoder::new(keyframe_every));
    let (mut dec, mut ref_dec) = (DeltaDecoder::<M>::new(), RefDecoder::<M>::new());
    let mut last_emitted: Option<M> = None;
    for step in 0..ops.len() + 1 {
        if step > 0 {
            apply_op(&mut snap, &mut next_row, &ops[step - 1]);
        }
        let out = enc.encode(&snap, codec);
        assert_eq!(out, ref_enc.encode(&snap, codec), "{} step {step}: outcome and bytes", M::NAME);
        match out {
            DeltaOut::Keyframe(f) | DeltaOut::Delta(f) => {
                let ev = dec.apply(&f, codec).expect("well-formed frame");
                assert_eq!(ev, ref_dec.apply(&f, codec).expect("well-formed frame"));
                let DeltaEvent::Snapshot { snap: got, .. } = ev else {
                    panic!("lossless stream must never resync: {ev:?}");
                };
                assert_eq!(got, snap);
                assert_eq!(got.encode(codec), snap.encode(codec));
                assert_eq!(dec.current(), Some(&snap));
                last_emitted = Some(snap.clone());
            }
            DeltaOut::Suppressed => {
                // Suppression is only legal when nothing but the timestamp
                // moved.
                let mut prev = last_emitted.clone().expect("first report never suppressed");
                prev.set_tstamp_ms(snap.tstamp_ms());
                assert_eq!(prev, snap);
            }
        }
    }
    assert_eq!(dec.resyncs, 0);
}

/// The decoder's verdict on `bytes` after `prefix`, beside the
/// reference's: the same kind of outcome, equal snapshots, equal state —
/// and a state that is the untouched base, the new reconstruction, or
/// nothing.  When `bytes` is refused and the base kept, the `intact` frame
/// it was made from applies next exactly as in the reference: whatever the
/// decoder keeps beside its base (its row hashes) must be untouched too.
fn check_verdict<M: Model>(
    prefix: &[(Vec<u8>, M)],
    bytes: &[u8],
    intact: Option<&[u8]>,
    codec: SmCodec,
) {
    let (mut dec, mut ref_dec) = (DeltaDecoder::<M>::new(), RefDecoder::<M>::new());
    for (f, _) in prefix {
        dec.apply(f, codec).expect("emitted frame");
        ref_dec.apply(f, codec).expect("emitted frame");
    }
    let base = dec.current().cloned();
    let refused = match (dec.apply(bytes, codec), ref_dec.apply(bytes, codec)) {
        (Err(_), Err(_)) => {
            assert_eq!(dec.current(), base.as_ref(), "refused: base untouched");
            true
        }
        (Ok(DeltaEvent::NeedKeyframe { .. }), Ok(DeltaEvent::NeedKeyframe { .. })) => {
            assert!(dec.current().is_none() || dec.current() == base.as_ref());
            true
        }
        (Ok(DeltaEvent::Snapshot { snap, changed, keyframe }), Ok(ref_ev)) => {
            assert_eq!(dec.current(), Some(&snap));
            assert_eq!(DeltaEvent::Snapshot { snap, changed, keyframe }, ref_ev);
            false
        }
        (got, want) => panic!("{}: {got:?}, reference {want:?}", M::NAME),
    };
    assert_eq!(dec.current(), ref_dec.current());
    let kept = refused && base.is_some() && dec.current() == base.as_ref();
    if let Some(intact) = intact.filter(|_| kept) {
        let ev = dec.apply(intact, codec).expect("the intact frame");
        assert!(matches!(ev, DeltaEvent::Snapshot { .. }), "{}: intact frame: {ev:?}", M::NAME);
        assert_eq!(ev, ref_dec.apply(intact, codec).expect("the intact frame"));
        assert_eq!(dec.current(), ref_dec.current());
    }
}

/// Every truncation and every flipped byte of the last frame of a run.
fn check_corruptions<M: Model>(seeds: &[u64], ops: &[Op], fb: bool) {
    let codec = codec_of(fb);
    // A keyframe interval long enough that the last frame is a delta
    // whenever the run ends on a change.
    let (_, _, frames) = emitted_frames::<M>(seeds, ops, 64, codec);
    let (last, prefix) = frames.split_last().expect("the first report is always emitted");
    for len in 0..last.0.len() {
        check_verdict(prefix, &last.0[..len], Some(&last.0), codec);
    }
    for i in 0..last.0.len() {
        for mask in [0xFF, 0x80, 0x01] {
            let mut bytes = last.0.clone();
            bytes[i] ^= mask;
            check_verdict(prefix, &bytes, Some(&last.0), codec);
        }
    }
}

/// Keyframes appear at least every `keyframe_every` report
/// opportunities, even when every report is suppressed in between.
fn check_cadence<M: Model>(seeds: &[u64], keyframe_every: u32, reports: usize) {
    let mut snap = snapshot_of::<M>(seeds);
    let mut enc = DeltaEncoder::new(keyframe_every);
    let mut since = 0u32;
    for step in 0..reports {
        snap.set_tstamp_ms(step as u64);
        match enc.encode(&snap, SmCodec::Asn1Per) {
            DeltaOut::Keyframe(_) => since = 0,
            DeltaOut::Delta(_) | DeltaOut::Suppressed => {
                since += 1;
                assert!(since < keyframe_every, "overdue keyframe");
            }
        }
    }
}

/// Dropping any single delta frame from a changing stream is detected
/// (sequence gap → NeedKeyframe, never a wrong snapshot), and forcing a
/// keyframe resynchronizes the decoder exactly.
fn check_lost_frame<M: Model>(seeds: &[u64], ops: &[Op], drop_at: prop::sample::Index) {
    let codec = SmCodec::Flatb;
    // Large interval so the recovery below is driven by the forced
    // keyframe, not the periodic one.
    let (mut enc, mut snap, frames) = emitted_frames::<M>(seeds, ops, 10_000, codec);
    let drop = drop_at.index(frames.len());
    let mut dec = DeltaDecoder::<M>::new();
    let mut desynced = false;
    for (i, (f, sent)) in frames.iter().enumerate() {
        if i == drop {
            continue;
        }
        match dec.apply(f, codec).expect("well-formed frame") {
            DeltaEvent::Snapshot { snap: got, keyframe, .. } => {
                // After the gap only a keyframe may deliver a snapshot.
                assert!(!desynced || keyframe);
                desynced = false;
                assert_eq!(&got, sent);
            }
            DeltaEvent::NeedKeyframe { .. } => {
                assert!(i > drop, "loss detected before the gap");
                desynced = true;
            }
        }
    }
    // The resync path: a forced keyframe restores exact state.
    enc.force_keyframe();
    snap.set_tstamp_ms(snap.tstamp_ms() + 1);
    let DeltaOut::Keyframe(f) = enc.encode(&snap, codec) else {
        panic!("force_keyframe must produce a keyframe")
    };
    match dec.apply(&f, codec).expect("well-formed keyframe") {
        DeltaEvent::Snapshot { snap: got, keyframe, .. } => {
            assert!(keyframe);
            assert_eq!(got, snap);
            assert_eq!(got.encode(codec), snap.encode(codec));
        }
        DeltaEvent::NeedKeyframe { reason } => panic!("keyframe rejected: {reason}"),
    }
}

/// Arbitrary bytes never panic the decoder, with or without a base, and
/// get the reference's verdict.
fn check_garbage<M: Model>(seeds: &[u64], buf: &[u8]) {
    for codec in SmCodec::ALL {
        let (_, _, frames) = emitted_frames::<M>(seeds, &[], 64, codec);
        check_verdict::<M>(&[], buf, None, codec);
        check_verdict(&frames, buf, None, codec);
    }
}

proptest! {
    #[test]
    fn encoder_and_decoder_match_the_reference(
        model in 0..4u8,
        seeds in arb_rows(),
        ops in arb_ops(),
        keyframe_every in 1..20u32,
        fb in any::<bool>(),
    ) {
        on_model!(model, check_against_reference(&seeds, &ops, keyframe_every, fb));
    }

    #[test]
    fn corrupted_frames_get_the_reference_verdict(
        model in 0..4u8,
        seeds in prop::collection::vec(any::<u64>(), 0..6),
        ops in prop::collection::vec(
            (0..10u8, any::<prop::sample::Index>(), 0..32u32, any::<u64>()),
            0..6,
        ),
        fb in any::<bool>(),
    ) {
        on_model!(model, check_corruptions(&seeds, &ops, fb));
    }

    #[test]
    fn keyframe_cadence_holds(
        model in 0..4u8,
        seeds in arb_rows(),
        keyframe_every in 1..12u32,
        reports in 1..40usize,
    ) {
        on_model!(model, check_cadence(&seeds, keyframe_every, reports));
    }

    #[test]
    fn lost_delta_detected_and_keyframe_resyncs(
        model in 0..4u8,
        seeds in arb_rows(),
        ops in arb_ops(),
        drop_at in any::<prop::sample::Index>(),
    ) {
        on_model!(model, check_lost_frame(&seeds, &ops, drop_at));
    }

    #[test]
    fn garbage_never_panics(
        model in 0..4u8,
        seeds in prop::collection::vec(any::<u64>(), 0..6),
        buf in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        on_model!(model, check_garbage(&seeds, &buf));
    }
}

/// Rows whose keys repeat — two UEs under one RNTI — cannot be told apart
/// by a delta: such a snapshot is sent as a keyframe, and so is the one
/// after it, whose base it would be.  That second keyframe is the one place
/// where the encoder deliberately parts from the reference, which sends a
/// delta its own decoder then finds inconsistent.
#[test]
fn repeated_keys_force_keyframes_at_both_ends() {
    let codec = SmCodec::Flatb;
    let clean = snapshot_of::<MacStatsInd>(&[1, 2, 3]);
    let mut twins = clean.clone();
    twins.ues[2].rnti = twins.ues[1].rnti;
    let (mut enc, mut ref_enc) = (DeltaEncoder::new(100), RefEncoder::new(100));
    let (mut dec, mut ref_dec) =
        (DeltaDecoder::<MacStatsInd>::new(), RefDecoder::<MacStatsInd>::new());
    let steps =
        [(&clean, 'k'), (&clean, 'd'), (&twins, 'k'), (&twins, 'k'), (&clean, 'k'), (&clean, 'd')];
    for (step, (snap, want)) in steps.into_iter().enumerate() {
        let mut snap = snap.clone();
        snap.ues[0].bsr = step as u32;
        let (f, kind) = match enc.encode(&snap, codec) {
            DeltaOut::Keyframe(f) => (f, 'k'),
            DeltaOut::Delta(f) => (f, 'd'),
            DeltaOut::Suppressed => panic!("step {step}: every report changes a value"),
        };
        assert_eq!(kind, want, "step {step}");
        match dec.apply(&f, codec).expect("well-formed frame") {
            DeltaEvent::Snapshot { snap: got, .. } => assert_eq!(got, snap),
            DeltaEvent::NeedKeyframe { reason } => panic!("step {step}: {reason}"),
        }
        let ref_out = ref_enc.encode(&snap, codec);
        let (DeltaOut::Keyframe(ref_f) | DeltaOut::Delta(ref_f)) = &ref_out else {
            panic!("step {step}: every report changes a value");
        };
        let ref_ev = ref_dec.apply(ref_f, codec).expect("well-formed frame");
        if step == 4 {
            assert!(matches!(ref_out, DeltaOut::Delta(_)), "the reference diffs against twins");
            assert!(matches!(ref_ev, DeltaEvent::NeedKeyframe { .. }), "and loses the stream");
            break;
        }
        assert_eq!(ref_out, if kind == 'k' { DeltaOut::Keyframe(f) } else { DeltaOut::Delta(f) });
    }
    assert_eq!(dec.resyncs, 0);
}
