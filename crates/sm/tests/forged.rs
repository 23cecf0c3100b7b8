//! One set of constraints per payload: a frame that holds one field above
//! what its type or its range may hold — an id of 2³² + 5 in PER's
//! length-and-octets form, a PRB bound of 70 000 in FB's `u32` slot, an MCC
//! of 1 000, a discriminant one past the last variant — is refused by the
//! decoder of either codec with [`CodecError::OutOfRange`] or
//! [`CodecError::BadDiscriminant`], never cut down to a value the type
//! holds.  Every frame here is a bundled payload's own encoding with that
//! one field patched, and is checked to decode before the patch.

use std::fmt::Debug;

use bytes::Bytes;
use flexric_codec::error::CodecError;
use flexric_codec::per::BitWriter;
use flexric_sm::funcdef::{FuncStyle, RanFuncDef};
use flexric_sm::hw::HwPing;
use flexric_sm::kpm::{KpmActionDef, KpmReport};
use flexric_sm::rrc::{RrcCtrl, RrcEventInd, RrcEventKind};
use flexric_sm::slice::{
    SliceAlgo, SliceConf, SliceCtrl, SliceParams, SliceStatsInd, SliceStatus, UeSchedAlgo,
};
use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcCtrl, TcSchedAlgo};
use flexric_sm::{ReportTrigger, SmCodec, SmPayload};

use SmCodec::{Asn1Per as PER, Flatb as FB};

/// A `u32` that takes four octets and occurs nowhere else in a frame.
const X: u32 = 0xA1B2_C3D4;

/// The forged frames a decoder did not refuse.
#[derive(Default)]
struct Forged {
    accepted: Vec<String>,
}

impl Forged {
    /// `msg`'s frame decodes to `msg`; with `patch` applied it is refused.
    fn case<T: SmPayload + PartialEq + Debug>(
        &mut self,
        what: &str,
        codec: SmCodec,
        msg: &T,
        patch: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut buf = msg.encode(codec);
        assert_eq!(T::decode(codec, &buf).as_ref(), Ok(msg), "{what}");
        patch(&mut buf);
        self.frame::<T>(what, codec, &buf);
    }

    /// `buf` is refused as out of range, not as broken and not accepted.
    fn frame<T: SmPayload + Debug>(&mut self, what: &str, codec: SmCodec, buf: &[u8]) {
        match T::decode(codec, buf) {
            Err(CodecError::OutOfRange { .. } | CodecError::BadDiscriminant { .. }) => {}
            other => self.accepted.push(format!("{codec:?} {what}: {other:?}")),
        }
    }

    /// A PER frame written field by field: `build(w, false)` is `msg`'s own
    /// frame, `build(w, true)` the one to refuse.
    fn built<T: SmPayload + PartialEq + Debug>(
        &mut self,
        what: &str,
        msg: &T,
        build: impl Fn(&mut BitWriter, bool),
    ) {
        let frame = |forged| {
            let mut w = BitWriter::new();
            build(&mut w, forged);
            w.finish()
        };
        assert_eq!(frame(false), msg.encode(PER), "{what}");
        self.frame::<T>(what, PER, &frame(true));
    }
}

/// PER: the one whole number of `octets` in the frame grows a leading octet
/// of 1 — `value + 2^(8 · octets)`.  A whole number is a length and that
/// many octets, byte-aligned, and no SM payload counts bytes around it, so
/// the rest of the frame stays what it was.
fn widen(octets: &[u8]) -> impl FnOnce(&mut Vec<u8>) + '_ {
    move |buf| {
        let from = [&[octets.len() as u8], octets].concat();
        let at: Vec<usize> = (0..buf.len()).filter(|&i| buf[i..].starts_with(&from)).collect();
        assert_eq!(at.len(), 1, "{from:02x?} in {buf:02x?}");
        buf.splice(at[0]..at[0] + 1, [octets.len() as u8 + 1, 1]);
    }
}

/// [`widen`] for the field that holds [`X`].
fn wide() -> impl FnOnce(&mut Vec<u8>) {
    widen(&[0xA1, 0xB2, 0xC3, 0xD4])
}

// FB: tables are found the way a reader finds them (`fb.rs` module docs).

fn u16_at(buf: &[u8], at: usize) -> usize {
    u16::from_le_bytes([buf[at], buf[at + 1]]) as usize
}

fn u32_at(buf: &[u8], at: usize) -> usize {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize
}

/// The root table.
fn root(buf: &[u8]) -> usize {
    u32_at(buf, 4)
}

/// Where `table` keeps `slot`'s field.
fn field(buf: &[u8], table: usize, slot: usize) -> usize {
    let rel = u16_at(buf, u32_at(buf, table) + 2 + 2 * slot);
    assert_ne!(rel, 0, "slot {slot} is absent");
    table + rel
}

/// The table, or the vector, `slot` of `table` points at.
fn child(buf: &[u8], table: usize, slot: usize) -> usize {
    u32_at(buf, field(buf, table, slot))
}

/// Table `i` of the vector `slot` of `table` points at.
fn elem(buf: &[u8], table: usize, slot: usize, i: usize) -> usize {
    u32_at(buf, child(buf, table, slot) + 4 + 4 * i)
}

/// Stores `bytes` at `at(buf)`.
fn set<const N: usize>(
    at: impl FnOnce(&[u8]) -> usize,
    bytes: [u8; N],
) -> impl FnOnce(&mut Vec<u8>) {
    move |buf| {
        let at = at(buf);
        buf[at..at + N].copy_from_slice(&bytes);
    }
}

fn conf(id: u32, params: SliceParams) -> SliceConf {
    SliceConf { id, label: "s".into(), params, ue_sched: UeSchedAlgo::PropFair }
}

fn add_mod(id: u32, params: SliceParams) -> SliceCtrl {
    SliceCtrl::AddModSlices { slices: vec![conf(id, params)] }
}

fn stats(num_ues: u32, params: SliceParams, ue_assoc: Vec<(u16, u32)>) -> SliceStatsInd {
    let status = SliceStatus { conf: conf(1, params), alloc_prbs: 2, thr_kbps: 3, num_ues };
    SliceStatsInd { tstamp_ms: 9, algo: SliceAlgo::Nvs, slices: vec![status], ue_assoc }
}

fn add_rule(rule: FiveTupleRule) -> TcCtrl {
    TcCtrl::AddRule { rule, queue: 1, precedence: 2 }
}

fn events(mcc: u16, mnc: u16, snssai: Option<u32>) -> RrcEventInd {
    let event = RrcEventKind::HandoverIn.event(0x4601, (mcc, mnc), snssai);
    RrcEventInd { tstamp_ms: 9, events: vec![event] }
}

#[test]
fn forged_out_of_range_fields_are_refused_by_every_decoder() {
    let mut f = Forged::default();
    let capacity = SliceParams::NvsCapacity { share_milli: 1 };
    let static_rb = SliceParams::StaticRb { lo: 10, hi: 24 };

    // PER, whole numbers: a `u32` travels as a length and its octets, and
    // the length may say five.
    f.case("SliceConf.id", PER, &add_mod(X, capacity), wide());
    let params = SliceParams::NvsCapacity { share_milli: X };
    f.case("NvsCapacity.share_milli", PER, &add_mod(1, params), wide());
    let params = SliceParams::NvsRate { rate_kbps: X, ref_kbps: 2 };
    f.case("NvsRate.rate_kbps", PER, &add_mod(1, params), wide());
    let params = SliceParams::NvsRate { rate_kbps: 2, ref_kbps: X };
    f.case("NvsRate.ref_kbps", PER, &add_mod(1, params), wide());
    f.case("DelSlices.ids", PER, &SliceCtrl::DelSlices { ids: vec![1, X] }, wide());
    let assoc = vec![(0x4601, X)];
    f.case("AssocUeSlice.assoc", PER, &SliceCtrl::AssocUeSlice { assoc: assoc.clone() }, wide());
    f.case("SliceStatus.num_ues", PER, &stats(X, capacity, vec![]), wide());
    f.case("SliceStatsInd.ue_assoc", PER, &stats(1, capacity, assoc), wide());

    let fifo = QueueKind::Fifo { cap_bytes: 1 };
    f.case("AddQueue.id", PER, &TcCtrl::AddQueue { id: X, kind: fifo }, wide());
    let kind = QueueKind::Fifo { cap_bytes: X };
    f.case("Fifo.cap_bytes", PER, &TcCtrl::AddQueue { id: 1, kind }, wide());
    let kind = QueueKind::Codel { target_us: X, interval_us: 1 };
    f.case("Codel.target_us", PER, &TcCtrl::AddQueue { id: 1, kind }, wide());
    let kind = QueueKind::Codel { target_us: 1, interval_us: X };
    f.case("Codel.interval_us", PER, &TcCtrl::AddQueue { id: 1, kind }, wide());
    f.case("DelQueue.id", PER, &TcCtrl::DelQueue { id: X }, wide());
    let rule = FiveTupleRule::default();
    f.case("FiveTupleRule.id", PER, &add_rule(FiveTupleRule { id: X, ..rule }), wide());
    let with = add_rule(FiveTupleRule { src_ip: Some(X), ..rule });
    f.case("FiveTupleRule.src_ip", PER, &with, wide());
    let with = add_rule(FiveTupleRule { dst_ip: Some(X), ..rule });
    f.case("FiveTupleRule.dst_ip", PER, &with, wide());
    // The ports are `u16`s, the protocol a `u8`, each a whole number too.
    let with = add_rule(FiveTupleRule { src_port: Some(0xA1B2), ..rule });
    f.case("FiveTupleRule.src_port", PER, &with, widen(&[0xA1, 0xB2]));
    let with = add_rule(FiveTupleRule { dst_port: Some(0xA1B2), ..rule });
    f.case("FiveTupleRule.dst_port", PER, &with, widen(&[0xA1, 0xB2]));
    let with = add_rule(FiveTupleRule { proto: Some(0xEE), ..rule });
    f.case("FiveTupleRule.proto", PER, &with, widen(&[0xEE]));
    f.case("AddRule.queue", PER, &TcCtrl::AddRule { rule, queue: X, precedence: 2 }, wide());
    f.case("AddRule.precedence", PER, &TcCtrl::AddRule { rule, queue: 1, precedence: X }, wide());
    f.case("DelRule.rule_id", PER, &TcCtrl::DelRule { rule_id: X }, wide());
    let sched = TcCtrl::SetSched { algo: TcSchedAlgo::WeightedRoundRobin, weights: vec![1, X] };
    f.case("SetSched.weights", PER, &sched, wide());
    let pacer = PacerConf::Bdp { target_delay_us: X };
    f.case("Bdp.target_delay_us", PER, &TcCtrl::SetPacer { pacer }, wide());

    f.case("RrcUeEvent.snssai", PER, &events(208, 95, Some(X)), wide());
    let handover = RrcCtrl::Handover { rnti: 0x4601, target_cell: X };
    f.case("Handover.target_cell", PER, &handover, wide());
    let action = KpmActionDef { granularity_ms: X, measurements: vec![], ue_filter: None };
    f.case("KpmActionDef.granularity_ms", PER, &action, wide());
    let report = KpmReport { tstamp_ms: 9, granularity_ms: X, records: vec![] };
    f.case("KpmReport.granularity_ms", PER, &report, wide());
    f.case("HwPing.seq", PER, &HwPing { seq: X, tstamp_ns: 1, payload: Bytes::new() }, wide());
    let def = RanFuncDef {
        report_styles: vec![FuncStyle { style: X as i32, name: "n".into() }],
        ..RanFuncDef::simple("F", "d")
    };
    f.case("FuncStyle.style", PER, &def, wide());
    f.case("ReportTrigger.period_ms", PER, &ReportTrigger::every_ms(X), wide());
    f.case("Delta.keyframe_every", PER, &ReportTrigger::delta_every_ms(10, X), wide());

    // PER, bit fields: a constrained number in more bits than its range
    // needs, and an index one past the last alternative.
    for (what, mcc, mnc) in
        [("plmn_mcc", 1000, 95), ("plmn_mnc", 208, 1000), ("plmn_mcc", 1023, 95)]
    {
        f.built(what, &events(208, 95, None), |w, forged| {
            w.put_uint(9);
            w.put_length(1);
            w.put_bits(0x4601, 16);
            w.put_bits(RrcEventKind::HandoverIn as u64, 2);
            w.put_bits(if forged { mcc } else { 208 }, 10);
            w.put_bits(if forged { mnc } else { 95 }, 10);
            w.put_bit(false);
        });
    }
    for (what, kind, sched) in [("SliceParams index", 3, 1), ("SliceConf.ue_sched", 0, 3)] {
        f.built(what, &add_mod(1, capacity), |w, forged| {
            w.put_bits(1, 2); // AddModSlices
            w.put_length(1);
            w.put_uint(1);
            w.put_utf8("s");
            w.put_bits(if forged { kind } else { 0 }, 2);
            w.put_uint(1);
            w.put_bits(if forged { sched } else { UeSchedAlgo::PropFair as u64 }, 2);
        });
    }
    f.built("TcCtrl index", &TcCtrl::DelQueue { id: 1 }, |w, forged| {
        w.put_bits(if forged { 6 } else { 1 }, 3);
        w.put_uint(1);
    });
    let sched = TcCtrl::SetSched { algo: TcSchedAlgo::RoundRobin, weights: vec![] };
    f.built("SetSched.algo", &sched, |w, forged| {
        w.put_bits(4, 3);
        w.put_bits(if forged { 3 } else { 0 }, 2);
        w.put_length(0);
    });

    // FB: a field in a slot wider than its type or its range.  The PRB
    // bounds are `u16`s in `u32` slots; MCC and MNC are 0..=999 in `u16`
    // slots; an association is `rnti << 32 | slice` in a `u64`.
    let rb = 70_000u32.to_le_bytes();
    for (what, slot) in [("StaticRb.lo", 4), ("StaticRb.hi", 5)] {
        let at = move |b: &[u8]| field(b, elem(b, root(b), 2, 0), slot);
        f.case(&format!("{what} in AddModSlices"), FB, &add_mod(1, static_rb), set(at, rb));
        let at = move |b: &[u8]| field(b, child(b, elem(b, root(b), 2, 0), 0), slot);
        f.case(&format!("{what} in SliceStatsInd"), FB, &stats(1, static_rb, vec![]), set(at, rb));
    }
    for (what, slot, v) in [
        ("plmn_mcc", 2, 1000u16),
        ("plmn_mcc", 2, u16::MAX),
        ("plmn_mnc", 3, 1000),
        ("plmn_mnc", 3, u16::MAX),
    ] {
        let at = move |b: &[u8]| field(b, elem(b, root(b), 1, 0), slot);
        f.case(what, FB, &events(208, 95, None), set(at, v.to_le_bytes()));
    }
    let pair = ((1u64 << 48) | (0x4601 << 32) | 7).to_le_bytes();
    let assoc = vec![(0x4601, 7)];
    let at = |b: &[u8]| child(b, root(b), 2) + 4;
    let ctrl = SliceCtrl::AssocUeSlice { assoc: assoc.clone() };
    f.case("AssocUeSlice.assoc rnti", FB, &ctrl, set(at, pair));
    let at = |b: &[u8]| child(b, root(b), 3) + 4;
    f.case("SliceStatsInd.ue_assoc rnti", FB, &stats(1, capacity, assoc), set(at, pair));

    // FB: a discriminant one past the last variant, in every CHOICE and
    // every enum, the nested ones among them.
    let at = |slot| move |b: &[u8]| field(b, root(b), slot);
    f.case("SliceCtrl kind", FB, &SliceCtrl::DelSlices { ids: vec![] }, set(at(0), [4]));
    f.case("SetAlgo.algo", FB, &SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }, set(at(1), [4]));
    f.case("SliceStatsInd.algo", FB, &stats(1, capacity, vec![]), set(at(1), [4]));
    for (what, slot, v) in [("SliceConf.ue_sched", 2, 3), ("SliceParams kind", 3, 3)] {
        let at = move |b: &[u8]| field(b, elem(b, root(b), 2, 0), slot);
        f.case(what, FB, &add_mod(1, capacity), set(at, [v]));
    }
    f.case("TcCtrl kind", FB, &TcCtrl::DelQueue { id: 1 }, set(at(0), [6]));
    f.case("QueueKind kind", FB, &TcCtrl::AddQueue { id: 1, kind: fifo }, set(at(2), [2]));
    f.case("SetSched.algo", FB, &sched, set(at(2), [3]));
    f.case("PacerConf kind", FB, &TcCtrl::SetPacer { pacer: PacerConf::None }, set(at(2), [2]));
    let kind = |b: &[u8]| field(b, elem(b, root(b), 1, 0), 1);
    f.case("RrcUeEvent.kind", FB, &events(208, 95, None), set(kind, [4]));
    f.case("RrcCtrl kind", FB, &RrcCtrl::Release { rnti: 1 }, set(at(0), [2]));

    assert!(f.accepted.is_empty(), "accepted:\n{}", f.accepted.join("\n"));
}
