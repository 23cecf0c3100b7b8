//! Every bundled SM's FlatBuffers-style bytes, held to the parent's
//! (`fb_vectors/`): statistics snapshots of 0, 1, 2, 32 and 33 rows — the
//! all-zero row and the row with every field at its maximum among them —
//! the TC indication with no queue and with three, and one message of each
//! hand-written table shape (absent slots, nested tables, interleaved
//! layouts, blobs).

#[allow(dead_code)]
mod fb_parent_bytes;
mod fb_vectors;
mod schema_golden;

use std::fmt::Debug;

use bytes::{Bytes, BytesMut};
use flexric_sm::hw::HwPing;
use flexric_sm::kpm::{KpmActionDef, KpmRecord, KpmReport};
use flexric_sm::mac::MacStatsInd;
use flexric_sm::pdcp::PdcpStatsInd;
use flexric_sm::rlc::RlcStatsInd;
use flexric_sm::rrc::{RrcCtrl, RrcEventInd, RrcEventKind};
use flexric_sm::schema::Row;
use flexric_sm::slice::SliceCtrl;
use flexric_sm::tc::{FiveTupleRule, QueueKind, TcCtrl, TcSchedAlgo, TcStatsInd};
use flexric_sm::{SmCodec, SmPayload};

use fb_parent_bytes::slice_stats;

/// `msg` encodes to the bytes recorded under `name`, into an owned buffer
/// and into a scratch that already holds something, and they decode to it.
fn kept<T: SmPayload + PartialEq + Debug>(name: &str, msg: &T) {
    let want = fb_vectors::vector(name);
    assert_eq!(msg.encode(SmCodec::Flatb), want, "{name}");
    let mut scratch = BytesMut::from(&b"earlier"[..]);
    let _earlier = scratch.split();
    assert_eq!(&msg.encode_into(SmCodec::Flatb, &mut scratch)[..], &want[..], "{name} encode_into");
    assert_eq!(T::decode(SmCodec::Flatb, &want).as_ref(), Ok(msg), "{name}");
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
fn hand_written_tables_keep_the_parents_bytes() {
    kept("hw", &HwPing { seq: 7, tstamp_ns: u64::MAX, payload: Bytes::from_static(b"ping") });

    // Status rows alternate between two nested layouts.
    kept("slice-stats", &slice_stats());
    let confs = slice_stats().slices.into_iter().map(|s| s.conf);
    kept("slice-addmod", &SliceCtrl::AddModSlices { slices: confs.collect() });
    kept("slice-del", &SliceCtrl::DelSlices { ids: vec![0, 7, u32::MAX] });
    kept("slice-assoc", &SliceCtrl::AssocUeSlice { assoc: vec![(0x4601, 0), (0x4602, 1)] });

    // Most optional slots absent, then all present.
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
    let kind = QueueKind::Codel { target_us: 5, interval_us: 100 };
    kept("tc-queue", &TcCtrl::AddQueue { id: 1, kind });
    let weights = vec![3, 1, u32::MAX];
    kept("tc-sched", &TcCtrl::SetSched { algo: TcSchedAlgo::WeightedRoundRobin, weights });

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

    let record = |i: u64| KpmRecord {
        name: format!("DRB.UEThpDl.{i}"),
        rnti: (!i.is_multiple_of(3)).then_some(0x4601 + i as u16),
        value: 30_000 * i,
    };
    let records = (0..9).map(record).collect();
    kept("kpm-report", &KpmReport { tstamp_ms: 5_000, granularity_ms: 1_000, records });
    let measurements = vec!["RRU.PrbTotDl".into(), String::new(), "RRC.ConnMean".into()];
    kept("kpm-action", &KpmActionDef { granularity_ms: 1_000, measurements, ue_filter: None });
}
