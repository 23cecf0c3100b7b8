//! Every bundled SM's PER-style bytes, held to the parent's
//! (`per_vectors/`): statistics snapshots of 0, 1, 2, 32 and 33 rows — the
//! all-zero row and the row with every field at its maximum among them —
//! the TC indication with no queue and with three, one message of each
//! hand-written payload (choices, options, strings, nested lists), and the
//! frames of a delta stream: a keyframe, then deltas over the same keys,
//! with a row added, one removed, the rows reordered and the aux scalar
//! alone changed.

#[allow(dead_code)]
mod fb_parent_bytes;
mod per_vectors;
mod schema_golden;

use std::fmt::Debug;

use bytes::{Bytes, BytesMut};
use flexric_sm::delta::{
    DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut, DeltaRows, DeltaStreams, ReportOut,
};
use flexric_sm::funcdef::{FuncStyle, RanFuncDef};
use flexric_sm::hw::HwPing;
use flexric_sm::kpm::{KpmActionDef, KpmRecord, KpmReport};
use flexric_sm::mac::MacStatsInd;
use flexric_sm::pdcp::PdcpStatsInd;
use flexric_sm::rlc::RlcStatsInd;
use flexric_sm::rrc::{RrcCtrl, RrcEventInd, RrcEventKind};
use flexric_sm::schema::Row;
use flexric_sm::slice::{SliceAlgo, SliceCtrl};
use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcCtrl, TcSchedAlgo, TcStatsInd};
use flexric_sm::{ReportMode, ReportTrigger, SmCodec, SmPayload};

use fb_parent_bytes::slice_stats;

const PER: SmCodec = SmCodec::Asn1Per;

/// `msg` encodes to the bytes recorded under `name`, into an owned buffer
/// and into a scratch that already holds something, and they decode to it.
fn kept<T: SmPayload + PartialEq + Debug>(name: &str, msg: &T) {
    let want = per_vectors::vector(name);
    assert_eq!(msg.encode(PER), want, "{name}");
    let mut scratch = BytesMut::from(&b"earlier"[..]);
    let _earlier = scratch.split();
    assert_eq!(&msg.encode_into(PER, &mut scratch)[..], &want[..], "{name} encode_into");
    assert_eq!(T::decode(PER, &want).as_ref(), Ok(msg), "{name}");
}

/// `n` rows: the all-zero row, the row with every field at its maximum,
/// then rows of mixed widths.
fn rows<R: Row>(n: usize) -> Vec<R> {
    let mut top = R::with_key(u32::MAX);
    for (i, f) in (0..).zip(R::FIELDS) {
        assert!(top.set_field(i, f.max));
    }
    let mixed = (2..).map(|i| schema_golden::row(0x4600 + i as u32, i));
    [R::default(), top].into_iter().chain(mixed).take(n).collect()
}

#[test]
fn statistics_snapshots_of_every_size_keep_the_parents_bytes() {
    for n in [0, 1, 2, 32, 33] {
        let t = 1_727_000_000 + n as u64;
        kept(&format!("mac-{n}"), &MacStatsInd { tstamp_ms: t, cell_prbs: 106, ues: rows(n) });
        kept(&format!("rlc-{n}"), &RlcStatsInd { tstamp_ms: t, bearers: rows(n) });
        kept(&format!("pdcp-{n}"), &PdcpStatsInd { tstamp_ms: t, bearers: rows(n) });
    }
    kept("mac-max", &MacStatsInd { tstamp_ms: u64::MAX, cell_prbs: u32::MAX, ues: rows(2) });
    for n in [0, 3] {
        let ind = TcStatsInd {
            tstamp_ms: 60_000,
            rnti: 0x4601,
            drb_id: 1,
            queues: rows(n),
            pacer_rate_kbps: 38_000,
        };
        kept(&format!("tc-{n}"), &ind);
    }
}

#[test]
fn hand_written_payloads_keep_the_parents_bytes() {
    kept("hw", &HwPing { seq: 7, tstamp_ns: u64::MAX, payload: Bytes::from_static(b"ping") });
    // A payload whose length takes the two-byte determinant.
    let payload = Bytes::from((0..=255).cycle().take(300).collect::<Vec<u8>>());
    kept("hw-300", &HwPing { seq: u32::MAX, tstamp_ns: 1, payload });

    kept("slice-stats", &slice_stats());
    kept("slice-algo", &SliceCtrl::SetAlgo { algo: SliceAlgo::NvsNoSharing });
    let confs = slice_stats().slices.into_iter().map(|s| s.conf);
    kept("slice-addmod", &SliceCtrl::AddModSlices { slices: confs.collect() });
    kept("slice-del", &SliceCtrl::DelSlices { ids: vec![0, 7, u32::MAX] });
    kept("slice-assoc", &SliceCtrl::AssocUeSlice { assoc: vec![(0x4601, 0), (0x4602, 1)] });

    // Most optional fields absent, then all present.
    let rule = FiveTupleRule { id: 1, dst_port: Some(5060), ..Default::default() };
    kept("tc-rule-sparse", &TcCtrl::AddRule { rule, queue: 1, precedence: 0 });
    let rule = FiveTupleRule {
        id: 2,
        src_ip: Some(0x0A00_0001),
        dst_ip: Some(0x0A00_0002),
        src_port: Some(1),
        dst_port: Some(u16::MAX),
        proto: Some(17),
    };
    kept("tc-rule-full", &TcCtrl::AddRule { rule, queue: 0, precedence: 9 });
    kept("tc-rule-del", &TcCtrl::DelRule { rule_id: 2 });
    let kind = QueueKind::Codel { target_us: 5, interval_us: 100 };
    kept("tc-queue", &TcCtrl::AddQueue { id: 1, kind });
    kept("tc-queue-fifo", &TcCtrl::AddQueue { id: 2, kind: QueueKind::Fifo { cap_bytes: 0 } });
    kept("tc-queue-del", &TcCtrl::DelQueue { id: u32::MAX });
    let weights = vec![3, 1, u32::MAX];
    kept("tc-sched", &TcCtrl::SetSched { algo: TcSchedAlgo::WeightedRoundRobin, weights });
    kept("tc-pacer", &TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us: 4_000 } });
    kept("tc-pacer-none", &TcCtrl::SetPacer { pacer: PacerConf::None });

    // Events with and without the optional S-NSSAI, interleaved.
    let events = (0..8u16).map(|i| {
        RrcEventKind::from_u8((i % 4) as u8).expect("four kinds").event(
            0x4601 + i,
            (208, 95),
            (i % 2 == 0).then_some(0x0100_00AA + i as u32),
        )
    });
    kept("rrc-events", &RrcEventInd { tstamp_ms: 1_234, events: events.collect() });
    kept("rrc-handover", &RrcCtrl::Handover { rnti: 0x4601, target_cell: 2 });
    kept("rrc-release", &RrcCtrl::Release { rnti: u16::MAX });

    kept("kpm-report", &kpm_report(0));
    let measurements = vec!["RRU.PrbTotDl".into(), String::new(), "RRC.ConnMean".into()];
    kept("kpm-action", &KpmActionDef { granularity_ms: 1_000, measurements, ue_filter: None });
    let measurements = vec!["DRB.UEThpDl".into()];
    kept("kpm-action-ue", &KpmActionDef { granularity_ms: 1, measurements, ue_filter: Some(9) });

    let mode = ReportMode::Delta { keyframe_every: 16 };
    let filtered =
        ReportTrigger { period_ms: 10, rnti_filter_lo: 0x4601, rnti_filter_hi: 0x4620, mode };
    kept("trigger-delta", &filtered);
    kept("trigger-full", &ReportTrigger::every_ms(1));
    let style = |style, name: &str| FuncStyle { style, name: name.to_owned() };
    let def = RanFuncDef {
        name: "MAC-STATS".to_owned(),
        description: "per-UE MAC statistics".to_owned(),
        report_styles: vec![style(1, "periodic"), style(-2, "")],
        control_styles: vec![style(i32::MAX, "none")],
    };
    kept("funcdef", &def);
}

/// Nine records, a third of them cell-wide, every value moved by `bump`.
fn kpm_report(bump: u64) -> KpmReport {
    let record = |i: u64| KpmRecord {
        name: format!("DRB.UEThpDl.{i}"),
        rnti: (!i.is_multiple_of(3)).then_some(0x4601 + i as u16),
        value: 30_000 * i + bump * (i % 2),
    };
    KpmReport {
        tstamp_ms: 5_000 + bump,
        granularity_ms: 1_000,
        records: (0..9).map(record).collect(),
    }
}

/// A stream that has sent `base` sends `next` as the delta frame recorded
/// under `name` (and `base` as the keyframe under `key`, if one is named) —
/// from an encoder of its own and through the agent's streams, whose frame
/// buffer then holds an earlier frame — and the frames reconstruct `next`.
fn delta_kept<T: DeltaRows + Debug>(name: &str, key: Option<&str>, base: &T, next: &T) {
    let want = per_vectors::vector(name);
    let mut enc = DeltaEncoder::new(16);
    let DeltaOut::Keyframe(keyframe) = enc.encode(base, PER) else {
        panic!("{name}: first report")
    };
    if let Some(key) = key {
        assert_eq!(keyframe, per_vectors::vector(key), "{key}");
    }
    assert_eq!(enc.encode(next, PER), DeltaOut::Delta(want.clone()), "{name}");

    let mut streams: DeltaStreams<u8, T> = DeltaStreams::new();
    let mode = ReportMode::Delta { keyframe_every: 16 };
    assert_eq!(streams.report(0, mode, base, PER), ReportOut::Send(keyframe.clone().into()));
    assert_eq!(streams.report(0, mode, next, PER), ReportOut::Send(want.clone().into()), "{name}");

    let mut dec = DeltaDecoder::<T>::new();
    dec.apply(&keyframe, PER).expect("keyframe");
    match dec.apply(&want, PER) {
        Ok(DeltaEvent::Snapshot { snap, keyframe: false, .. }) => assert_eq!(&snap, next, "{name}"),
        other => panic!("{name}: expected a delta to apply, got {other:?}"),
    }
}

/// Four rows of `R`, the third with every field at its maximum.
fn base_rows<R: Row>() -> Vec<R> {
    let [first, _] = schema_golden::rows::<R>();
    first.into_iter().chain([schema_golden::row(0x4604, 4)]).collect()
}

/// `base` after each kind of change a delta can carry, under the name its
/// frame is recorded by.
fn changes<R: Row>(base: &[R]) -> Vec<(&'static str, Vec<R>)> {
    let mut same = base.to_vec();
    same[0] = schema_golden::row(same[0].key(), 9);
    assert!(same[3].set_field(1, 0));
    let added = base.iter().copied().chain([schema_golden::row(0x0001_4605, 5)]).collect();
    let mut removed = base.to_vec();
    removed.remove(1);
    let mut reorder = base.to_vec();
    reorder.rotate_left(1);
    vec![("same", same), ("added", added), ("removed", removed), ("reorder", reorder)]
}

#[test]
fn delta_frames_keep_the_parents_bytes() {
    let mac = |t, cell_prbs, ues| MacStatsInd { tstamp_ms: t, cell_prbs, ues };
    let base = mac(123_456, 106, base_rows());
    for (i, (what, ues)) in changes(&base.ues).into_iter().enumerate() {
        let key = (i == 0).then_some("mac-delta-key");
        delta_kept(&format!("mac-delta-{what}"), key, &base, &mac(123_466, 106, ues));
    }
    delta_kept("mac-delta-aux", None, &base, &mac(123_466, u32::MAX, base.ues.clone()));
    // A keyframe whose blob takes the one-byte length determinant.
    let none = mac(1, 106, vec![]);
    delta_kept("mac-delta-first", Some("mac-delta-key-0"), &none, &mac(2, 106, rows(1)));

    let rlc = |t, bearers| RlcStatsInd { tstamp_ms: t, bearers };
    let base = rlc(5_000, base_rows());
    for (what, bearers) in changes(&base.bearers) {
        delta_kept(&format!("rlc-delta-{what}"), None, &base, &rlc(u64::MAX, bearers));
    }

    // One field a row, keys that are hashes.
    delta_kept("kpm-delta", Some("kpm-delta-key"), &kpm_report(0), &kpm_report(7));
}
