//! The SM encodings on the wire, across commits and sinks.
//!
//! * Bytes the commit before vtable sharing produced still decode to the
//!   values they were made from, so a peer that has not upgraded keeps
//!   being understood (and nothing about the read path changed, so it
//!   understands us).
//! * Every bundled SM reads back what was written, into an owned `Vec` and
//!   into a `BytesMut` that already holds an earlier copy of the same
//!   message — whose vtables a builder must not mistake for its own.
//! * Tables of one layout share one vtable: a 32-UE MAC snapshot holds two.

mod fb_parent_bytes;
mod schema_golden;

use std::collections::BTreeSet;
use std::fmt::Debug;

use bytes::{Bytes, BytesMut};
use flexric_codec::fb::FbBuilder;
use flexric_codec::per::BitWriter;
use flexric_sm::hw::HwPing;
use flexric_sm::kpm::{KpmActionDef, KpmRecord, KpmReport};
use flexric_sm::mac::MacStatsInd;
use flexric_sm::rrc::{RrcCtrl, RrcEventInd, RrcEventKind};
use flexric_sm::slice::{SliceCtrl, SliceStatsInd};
use flexric_sm::tc::{FiveTupleRule, QueueKind, TcCtrl, TcSchedAlgo};
use flexric_sm::{SmCodec, SmPayload};

use fb_parent_bytes::{mac_32_ue, slice_stats, MAC_32_UE, SLICE_STATS};

#[test]
fn bytes_of_the_parent_commit_still_decode() {
    let mac = MacStatsInd::decode(SmCodec::Flatb, &MAC_32_UE).expect("parent's MAC snapshot");
    assert_eq!(mac, mac_32_ue());
    let slices = SliceStatsInd::decode(SmCodec::Flatb, &SLICE_STATS).expect("parent's slices");
    assert_eq!(slices, slice_stats());
}

/// `msg` through both codecs and both sinks.
fn roundtrip<T: SmPayload + PartialEq + Debug>(msg: &T) {
    for codec in SmCodec::ALL {
        let owned = msg.encode(codec);
        assert_eq!(&T::decode(codec, &owned).expect("owned bytes"), msg, "{codec:?}");

        // Appended after a copy of itself: byte-identical, so it refers to
        // nothing before its own start.
        let mut scratch = BytesMut::from(&owned[..]);
        scratch = match codec {
            SmCodec::Asn1Per => {
                let mut w = BitWriter::over(scratch);
                msg.encode_per(&mut w);
                w.into_buf()
            }
            SmCodec::Flatb => {
                let mut b = FbBuilder::over(scratch);
                let root = msg.encode_fb(&mut b);
                b.finish_buf(root)
            }
        };
        let (first, second) = scratch.split_at(owned.len());
        assert_eq!(first, &owned[..], "{codec:?}: the bytes before the message are kept");
        assert_eq!(second, &owned[..], "{codec:?}: appended message");
        assert_eq!(&T::decode(codec, second).expect("appended bytes"), msg, "{codec:?}");

        scratch.clear();
        assert_eq!(&msg.encode_into(codec, &mut scratch)[..], &owned[..], "{codec:?} encode_into");
    }
}

#[test]
fn every_bundled_sm_reads_back_from_both_sinks() {
    roundtrip(&HwPing { seq: 7, tstamp_ns: u64::MAX, payload: Bytes::from_static(b"ping") });

    roundtrip(&mac_32_ue());
    roundtrip(&MacStatsInd::default());

    let [rlc, _] = schema_golden::rlc();
    roundtrip(&rlc);
    let [pdcp, _] = schema_golden::pdcp();
    roundtrip(&pdcp);

    // Slice rows alternate between two layouts, each with a nested table.
    roundtrip(&slice_stats());
    let confs = slice_stats().slices.into_iter().map(|s| s.conf);
    roundtrip(&SliceCtrl::AddModSlices { slices: confs.collect() });
    roundtrip(&SliceCtrl::DelSlices { ids: vec![0, 7, u32::MAX] });
    roundtrip(&SliceCtrl::AssocUeSlice { assoc: vec![(0x4601, 0), (0x4602, 1)] });

    roundtrip(&schema_golden::tc());
    // A rule with most of its optional slots absent, and one with all.
    let rule = FiveTupleRule { id: 1, dst_port: Some(5060), ..Default::default() };
    roundtrip(&TcCtrl::AddRule { rule, queue: 1, precedence: 0 });
    let rule = FiveTupleRule {
        id: 2,
        src_ip: Some(0x0A00_0001),
        dst_ip: Some(0x0A00_0002),
        src_port: Some(1),
        dst_port: Some(u16::MAX),
        proto: Some(17),
    };
    roundtrip(&TcCtrl::AddRule { rule, queue: 0, precedence: 9 });
    roundtrip(&TcCtrl::AddQueue {
        id: 1,
        kind: QueueKind::Codel { target_us: 5, interval_us: 100 },
    });
    roundtrip(&TcCtrl::SetSched {
        algo: TcSchedAlgo::WeightedRoundRobin,
        weights: vec![3, 1, u32::MAX],
    });

    // Events with and without the optional S-NSSAI, interleaved.
    let events = (0..8u16).map(|i| {
        RrcEventKind::from_u8((i % 4) as u8).expect("four kinds").event(
            0x4601 + i,
            (208, 95),
            (i % 2 == 0).then_some(0x0100_00AA + i as u32),
        )
    });
    roundtrip(&RrcEventInd { tstamp_ms: 1_234, events: events.collect() });
    roundtrip(&RrcCtrl::Handover { rnti: 0x4601, target_cell: 2 });

    let record = |i: u64| KpmRecord {
        name: format!("DRB.UEThpDl.{i}"),
        rnti: (!i.is_multiple_of(3)).then_some(0x4601 + i as u16),
        value: 30_000 * i,
    };
    roundtrip(&KpmReport {
        tstamp_ms: 5_000,
        granularity_ms: 1_000,
        records: (0..9).map(record).collect(),
    });
    roundtrip(&KpmActionDef {
        granularity_ms: 1_000,
        measurements: vec!["RRU.PrbTotDl".into(), String::new(), "RRC.ConnMean".into()],
        ue_filter: None,
    });
}

// The public reader does not say where a table's vtable is; these read the
// documented layout (`fb.rs` module docs) directly.

fn u16_at(msg: &[u8], at: usize) -> usize {
    u16::from_le_bytes([msg[at], msg[at + 1]]) as usize
}

fn u32_at(msg: &[u8], at: usize) -> usize {
    u32::from_le_bytes([msg[at], msg[at + 1], msg[at + 2], msg[at + 3]]) as usize
}

/// Where the table at `table` keeps its vtable.
fn vt_pos(msg: &[u8], table: usize) -> usize {
    u32_at(msg, table)
}

/// What the offset in `slot` of the table at `table` points at.
fn child(msg: &[u8], table: usize, slot: usize) -> usize {
    let rel = u16_at(msg, vt_pos(msg, table) + 2 + 2 * slot);
    assert_ne!(rel, 0, "slot {slot} present");
    u32_at(msg, table + rel)
}

/// The tables listed by the offset vector at `vector`.
fn tables(msg: &[u8], vector: usize) -> Vec<usize> {
    (0..u32_at(msg, vector)).map(|i| u32_at(msg, vector + 4 + 4 * i)).collect()
}

#[test]
fn mac_snapshot_of_32_ues_holds_two_vtables() {
    let msg = mac_32_ue().encode(SmCodec::Flatb);
    let root = u32_at(&msg, 4);
    let rows = tables(&msg, child(&msg, root, 2));
    assert_eq!(rows.len(), 32);
    let mut vtables: BTreeSet<usize> = rows.iter().map(|row| vt_pos(&msg, *row)).collect();
    assert_eq!(vtables.len(), 1, "every UE row points at the first row's vtable");
    vtables.insert(vt_pos(&msg, root));
    assert_eq!(vtables.len(), 2);
    // The parent wrote the same tables and 32 row vtables of 30 bytes.
    assert_eq!(msg.len(), MAC_32_UE.len() - 31 * 30);
    assert_eq!(MacStatsInd::decode(SmCodec::Flatb, &msg).expect("own bytes"), mac_32_ue());
}

#[test]
fn slice_rows_of_two_layouts_share_a_vtable_each() {
    // status row, nested conf (capacity: 5 slots; rate or static: 6), next
    // status row, …: a memo of the last vtable alone would never hit.
    let msg = slice_stats().encode(SmCodec::Flatb);
    let root = u32_at(&msg, 4);
    let rows = tables(&msg, child(&msg, root, 2));
    assert_eq!(rows.len(), 5);
    let confs: Vec<usize> = rows.iter().map(|row| child(&msg, *row, 0)).collect();
    let row_vts: BTreeSet<usize> = rows.iter().map(|row| vt_pos(&msg, *row)).collect();
    let conf_vts: Vec<usize> = confs.iter().map(|conf| vt_pos(&msg, *conf)).collect();
    assert_eq!(row_vts.len(), 1);
    assert_eq!(conf_vts[0], conf_vts[2], "capacity slices");
    assert_eq!(conf_vts[0], conf_vts[4], "capacity slices");
    assert_eq!(conf_vts[1], conf_vts[3], "rate and static slices lay out alike");
    assert_ne!(conf_vts[0], conf_vts[1]);
    assert!(msg.len() < SLICE_STATS.len());
}
