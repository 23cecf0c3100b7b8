//! One set of constraints per declared payload: whatever a decoder of
//! either codec still accepts of an arbitrary payload's frame with one byte
//! scribbled over, both encoders write again, and it decodes to the same
//! value — nothing is accepted that PER would have to cut down or FB could
//! not hold, and nothing panics on the way (`crates/codec`'s property of
//! the same name holds E2AP to this).

use std::fmt::Debug;

use bytes::Bytes;
use flexric_sm::funcdef::{FuncStyle, RanFuncDef};
use flexric_sm::hw::HwPing;
use flexric_sm::kpm::{KpmActionDef, KpmRecord, KpmReport};
use flexric_sm::rrc::{RrcCtrl, RrcEventInd, RrcEventKind};
use flexric_sm::slice::{
    SliceAlgo, SliceConf, SliceCtrl, SliceParams, SliceStatsInd, SliceStatus, UeSchedAlgo,
};
use flexric_sm::tc::{
    FiveTupleRule, PacerConf, QueueKind, TcCtrl, TcQueueStats, TcSchedAlgo, TcStatsInd,
};
use flexric_sm::{ReportMode, ReportTrigger, SmCodec, SmPayload};
use proptest::prelude::*;

/// Cases per run; the property was run once at 100 000.
const CASES: u32 = 256;

/// A `u32` of any width: the octets of a PER whole number vary with it.
fn w32() -> impl Strategy<Value = u32> {
    (any::<u32>(), 0..32u32).prop_map(|(v, shift)| v >> shift)
}

fn w64() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0..64u32).prop_map(|(v, shift)| v >> shift)
}

fn name() -> &'static str {
    "[a-zA-Z. ]{0,12}"
}

fn arb_hw() -> impl Strategy<Value = HwPing> {
    (w32(), w64(), prop::collection::vec(any::<u8>(), 0..200)).prop_map(
        |(seq, tstamp_ns, payload)| HwPing { seq, tstamp_ns, payload: Bytes::from(payload) },
    )
}

fn arb_funcdef() -> impl Strategy<Value = RanFuncDef> {
    let styles = || {
        prop::collection::vec((any::<u32>(), name()), 0..4).prop_map(|styles| {
            styles
                .into_iter()
                .map(|(style, name)| FuncStyle { style: style as i32, name })
                .collect()
        })
    };
    (name(), name(), styles(), styles()).prop_map(
        |(name, description, report_styles, control_styles)| RanFuncDef {
            name,
            description,
            report_styles,
            control_styles,
        },
    )
}

fn arb_trigger() -> impl Strategy<Value = ReportTrigger> {
    (w32(), any::<u16>(), any::<u16>(), prop::option::of(1..=u32::MAX)).prop_map(
        |(period_ms, rnti_filter_lo, rnti_filter_hi, keyframe_every)| ReportTrigger {
            period_ms,
            rnti_filter_lo,
            rnti_filter_hi,
            mode: keyframe_every
                .map_or(ReportMode::Full, |keyframe_every| ReportMode::Delta { keyframe_every }),
        },
    )
}

fn arb_kpm_action() -> impl Strategy<Value = KpmActionDef> {
    (w32(), prop::collection::vec(name(), 0..5), prop::option::of(any::<u16>())).prop_map(
        |(granularity_ms, measurements, ue_filter)| KpmActionDef {
            granularity_ms,
            measurements,
            ue_filter,
        },
    )
}

fn arb_kpm_report() -> impl Strategy<Value = KpmReport> {
    let record = (name(), prop::option::of(any::<u16>()), w64())
        .prop_map(|(name, rnti, value)| KpmRecord { name, rnti, value });
    (w64(), w32(), prop::collection::vec(record, 0..6)).prop_map(
        |(tstamp_ms, granularity_ms, records)| KpmReport { tstamp_ms, granularity_ms, records },
    )
}

fn arb_rrc_events() -> impl Strategy<Value = RrcEventInd> {
    let event = (any::<u16>(), 0..4u8, 0..=999u16, 0..=999u16, prop::option::of(w32())).prop_map(
        |(rnti, kind, mcc, mnc, snssai)| {
            RrcEventKind::from_u8(kind).expect("four kinds").event(rnti, (mcc, mnc), snssai)
        },
    );
    (w64(), prop::collection::vec(event, 0..5))
        .prop_map(|(tstamp_ms, events)| RrcEventInd { tstamp_ms, events })
}

fn arb_rrc_ctrl() -> impl Strategy<Value = RrcCtrl> {
    (any::<bool>(), any::<u16>(), w32()).prop_map(|(release, rnti, target_cell)| match release {
        true => RrcCtrl::Release { rnti },
        false => RrcCtrl::Handover { rnti, target_cell },
    })
}

fn arb_conf() -> impl Strategy<Value = SliceConf> {
    let params = (0..3u8, w32(), w32()).prop_map(|(kind, a, b)| match kind {
        0 => SliceParams::NvsCapacity { share_milli: a },
        1 => SliceParams::NvsRate { rate_kbps: a, ref_kbps: b },
        _ => SliceParams::StaticRb { lo: a as u16, hi: b as u16 },
    });
    (w32(), name(), params, 0..3u8).prop_map(|(id, label, params, sched)| SliceConf {
        id,
        label,
        params,
        ue_sched: UeSchedAlgo::from_u8(sched).expect("three schedulers"),
    })
}

fn arb_assoc() -> impl Strategy<Value = Vec<(u16, u32)>> {
    prop::collection::vec((any::<u16>(), w32()), 0..6)
}

fn arb_algo() -> impl Strategy<Value = SliceAlgo> {
    (0..4u8).prop_map(|algo| SliceAlgo::from_u8(algo).expect("four algorithms"))
}

fn arb_slice_ctrl() -> impl Strategy<Value = SliceCtrl> {
    prop_oneof![
        arb_algo().prop_map(|algo| SliceCtrl::SetAlgo { algo }),
        prop::collection::vec(arb_conf(), 0..4)
            .prop_map(|slices| SliceCtrl::AddModSlices { slices }),
        prop::collection::vec(w32(), 0..6).prop_map(|ids| SliceCtrl::DelSlices { ids }),
        arb_assoc().prop_map(|assoc| SliceCtrl::AssocUeSlice { assoc }),
    ]
}

fn arb_slice_stats() -> impl Strategy<Value = SliceStatsInd> {
    let status =
        (arb_conf(), w64(), w64(), w32()).prop_map(|(conf, alloc_prbs, thr_kbps, num_ues)| {
            SliceStatus { conf, alloc_prbs, thr_kbps, num_ues }
        });
    (w64(), arb_algo(), prop::collection::vec(status, 0..4), arb_assoc()).prop_map(
        |(tstamp_ms, algo, slices, ue_assoc)| SliceStatsInd { tstamp_ms, algo, slices, ue_assoc },
    )
}

fn arb_tc_ctrl() -> impl Strategy<Value = TcCtrl> {
    let rule = (
        w32(),
        prop::option::of(w32()),
        prop::option::of(w32()),
        prop::option::of(any::<u16>()),
        prop::option::of(any::<u16>()),
        prop::option::of(any::<u8>()),
    )
        .prop_map(|(id, src_ip, dst_ip, src_port, dst_port, proto)| FiveTupleRule {
            id,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        });
    prop_oneof![
        (w32(), any::<bool>(), w32(), w32()).prop_map(|(id, codel, a, b)| TcCtrl::AddQueue {
            id,
            kind: match codel {
                true => QueueKind::Codel { target_us: a, interval_us: b },
                false => QueueKind::Fifo { cap_bytes: a },
            },
        }),
        w32().prop_map(|id| TcCtrl::DelQueue { id }),
        (rule, w32(), w32()).prop_map(|(rule, queue, precedence)| TcCtrl::AddRule {
            rule,
            queue,
            precedence
        }),
        w32().prop_map(|rule_id| TcCtrl::DelRule { rule_id }),
        (0..3u8, prop::collection::vec(w32(), 0..5)).prop_map(|(algo, weights)| {
            TcCtrl::SetSched { algo: TcSchedAlgo::from_u8(algo).expect("three"), weights }
        }),
        prop::option::of(w32()).prop_map(|target| TcCtrl::SetPacer {
            pacer: target
                .map_or(PacerConf::None, |target_delay_us| PacerConf::Bdp { target_delay_us }),
        }),
    ]
}

fn arb_tc_stats() -> impl Strategy<Value = TcStatsInd> {
    let queue =
        (w32(), w64(), w32(), w64(), w64()).prop_map(|(id, a, backlog_pkts, b, c)| TcQueueStats {
            id,
            backlog_bytes: a,
            backlog_pkts,
            sojourn_us_avg: b,
            sojourn_us_max: c,
            drops: a ^ b,
            tx_pkts: b ^ c,
            tx_bytes: a ^ c,
        });
    (w64(), any::<u16>(), any::<u8>(), prop::collection::vec(queue, 0..4), w64()).prop_map(
        |(tstamp_ms, rnti, drb_id, queues, pacer_rate_kbps)| TcStatsInd {
            tstamp_ms,
            rnti,
            drb_id,
            queues,
            pacer_rate_kbps,
        },
    )
}

/// `msg` round-trips in both codecs; and of its frame with `byte` at `at`,
/// what either decoder accepts both encoders write again.
fn scribbled<T: SmPayload + PartialEq + Debug>(msg: &T, at: usize, byte: u8) {
    for codec in SmCodec::ALL {
        let mut buf = msg.encode(codec);
        assert_eq!(T::decode(codec, &buf).as_ref(), Ok(msg), "{codec:?}");
        let at = at % buf.len();
        buf[at] = byte;
        let Ok(got) = T::decode(codec, &buf) else { continue };
        for other in SmCodec::ALL {
            let again = T::decode(other, &got.encode(other));
            assert_eq!(again.as_ref(), Ok(&got), "{codec:?} accepted, {other:?} wrote");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn what_one_decoder_accepts_every_encoder_writes(
        hw in arb_hw(),
        funcdef in arb_funcdef(),
        trigger in arb_trigger(),
        kpm_action in arb_kpm_action(),
        kpm_report in arb_kpm_report(),
        rrc_events in arb_rrc_events(),
        rrc_ctrl in arb_rrc_ctrl(),
        slice_ctrl in arb_slice_ctrl(),
        slice_stats in arb_slice_stats(),
        tc_ctrl in arb_tc_ctrl(),
        tc_stats in arb_tc_stats(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        scribbled(&hw, at, byte);
        scribbled(&funcdef, at, byte);
        scribbled(&trigger, at, byte);
        scribbled(&kpm_action, at, byte);
        scribbled(&kpm_report, at, byte);
        scribbled(&rrc_events, at, byte);
        scribbled(&rrc_ctrl, at, byte);
        scribbled(&slice_ctrl, at, byte);
        scribbled(&slice_stats, at, byte);
        scribbled(&tc_ctrl, at, byte);
        scribbled(&tc_stats, at, byte);
    }
}
