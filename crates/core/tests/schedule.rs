//! The subscription books the agent keeps, driven through
//! [`Machine::handle`] with no thread, socket or clock: the test plays the
//! driver and the controllers, feeds frames and ticks at chosen times, and
//! reads the indications out of the `Send` actions.
//!
//! What is pinned: the re-arm rule (due times stay on the subscription's
//! own grid), the order of indications within a tick, admission / retune /
//! delete as the wire sees them, what a retune does to a delta stream, and
//! what the loss of a controller drops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::agent::{
    Admission, AgentCtx, CtrlId, Due, RanFunction, Subscription, SubscriptionInfo,
};
use flexric::machine::{Action, Event};
use flexric::report::ReportStream;
use flexric_e2ap::*;
use flexric_sm::delta::{DeltaDecoder, DeltaEvent};
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::ReportTrigger;

mod rig;
use rig::{identity, subscription_request, Rig, SM};

// ---------------------------------------------------------------------------
// A periodic function that reports the time it was asked at
// ---------------------------------------------------------------------------

struct ClockFn(RanFunctionItem);

impl ClockFn {
    fn boxed(id: u16) -> Box<dyn RanFunction> {
        Box::new(ClockFn(identity(id, "test.clock")))
    }
}

impl RanFunction for ClockFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SM)
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let now = ctx.now_ms as u32;
        for sub in due.iter() {
            ctx.send_indication(sub.info(), Some(now), Bytes::new(), Bytes::from_static(b"t"));
        }
    }
}

/// The times (the indications' sequence numbers) `rig` reports at when
/// ticked at each of `ticks`.
fn report_times(rig: &mut Rig, ticks: &[u64]) -> Vec<u32> {
    ticks.iter().flat_map(|&t| rig.tick(t)).map(|(_, ind)| ind.sn.expect("the time")).collect()
}

// ---------------------------------------------------------------------------
// The re-arm rule
// ---------------------------------------------------------------------------

/// A tick that comes 1 ms late delays one report and moves no later one:
/// the due times stay on the subscription's own 10 ms grid.  (A grid that
/// moved with the late tick, to 31, 41, …, would make the tick at 30
/// "early" and leave a whole period unreported.)
#[test]
fn a_late_tick_delays_one_report_and_loses_none() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 0);
    assert_eq!(report_times(&mut rig, &[0, 10, 21, 30, 40]), [0, 10, 21, 30, 40]);
}

/// A stall of several periods produces one report, not a burst, and the
/// next one is due at the next point of the grid.
#[test]
fn a_stall_produces_one_report_and_the_grid_holds() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 0);
    let ticks = [0, 57, 58, 59, 60, 61, 69, 70];
    assert_eq!(report_times(&mut rig, &ticks), [0, 57, 60, 70]);
}

// ---------------------------------------------------------------------------
// Admission, retune and delete as the wire sees them
// ---------------------------------------------------------------------------

/// The first report comes on the first tick at or after admission and the
/// grid is anchored there; a request for an existing (controller, request
/// id) — a retransmit or a retune — is acknowledged again and takes effect
/// one period later; a delete ends the reports, and a second one is told
/// the request id is unknown.
#[test]
fn admission_retune_and_delete() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 3);
    assert_eq!(rig.agent.stats().active_subs, 1);
    assert_eq!(report_times(&mut rig, &[3, 5, 12, 13]), [3, 13]);
    // The same request again: still one subscription, next due at 13 + 10.
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 13);
    assert_eq!(rig.agent.stats().active_subs, 1);
    assert_eq!(report_times(&mut rig, &[20, 22, 23]), [23]);
    // A retune to 4 ms at 23: due at 27, 31, …
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(4), 23);
    assert_eq!(report_times(&mut rig, &[26, 27, 30, 31]), [27, 31]);

    let answer = rig.delete(0, 7, 1, 31);
    assert!(matches!(answer, E2apPdu::RicSubscriptionDeleteResponse(_)), "{answer:?}");
    assert_eq!(rig.agent.stats().active_subs, 0);
    assert_eq!(report_times(&mut rig, &[35, 39, 50]), []);
    let E2apPdu::RicSubscriptionDeleteFailure(fail) = rig.delete(0, 7, 1, 50) else { panic!() };
    assert_eq!(fail.cause, Cause::Ric(RicCause::RequestIdUnknown));
}

/// An event trigger the function cannot read is refused with the cause
/// that says so, and nothing is kept.
#[test]
fn an_unreadable_trigger_is_refused() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    let pdu = subscription_request(7, 2, Bytes::from_static(b"\xFF\xFF"));
    let [E2apPdu::RicSubscriptionFailure(fail)] = &rig.frame(0, &pdu, 0)[..] else { panic!() };
    assert_eq!(fail.cause, Cause::Ric(RicCause::UnsupportedEventTrigger));
    assert_eq!(rig.agent.stats().active_subs, 0);
    assert_eq!(report_times(&mut rig, &[0, 10]), []);
}

/// Within a tick indications go out by function in registration order,
/// and within a function in the order its subscriptions were admitted; a
/// retune keeps the subscription's place.
#[test]
fn indications_go_out_by_function_then_by_admission() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7), ClockFn::boxed(8)], 2);
    let every = ReportTrigger::every_ms(10);
    rig.subscribe(1, 8, 1, every, 0);
    rig.subscribe(0, 7, 2, every, 0);
    rig.subscribe(1, 7, 3, every, 0);
    rig.subscribe(0, 8, 4, every, 0);
    let order = |rig: &mut Rig, now| -> Vec<(CtrlId, u16, u16)> {
        let inds = rig.tick(now);
        inds.iter().map(|(c, i)| (*c, i.ran_function.0, i.req_id.instance)).collect()
    };
    let expected = [(0, 7, 2), (1, 7, 3), (1, 8, 1), (0, 8, 4)];
    assert_eq!(order(&mut rig, 0), expected);
    assert_eq!(order(&mut rig, 10), expected);
    rig.subscribe(0, 7, 2, every, 10);
    rig.subscribe(1, 8, 1, every, 10);
    assert_eq!(order(&mut rig, 20), expected);
}

// ---------------------------------------------------------------------------
// Per-subscription state: a delta stream
// ---------------------------------------------------------------------------

/// The subscriptions [`StreamFn`] was told had ended: whose, and which.
type Ended = Arc<Mutex<Vec<(CtrlId, u16)>>>;

/// A statistics function in the shape of the bundled ones: one snapshot
/// per tick, each subscription's [`ReportStream`] kept by the agent and
/// carried over retunes.
struct StreamFn {
    identity: RanFunctionItem,
    reports: u64,
    ended: Ended,
}

impl StreamFn {
    fn boxed(id: u16, ended: &Ended) -> Box<dyn RanFunction> {
        let identity = identity(id, "test.stream");
        Box::new(StreamFn { identity, reports: 0, ended: ended.clone() })
    }
}

impl RanFunction for StreamFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Ok(Admission::report(req, SM)?.with_state(ReportStream::<MacStatsInd>::new(SM)))
    }
    fn on_subscription_update(
        &mut self,
        _ctx: &mut AgentCtx,
        old: Subscription,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Ok(old.retune_stream::<MacStatsInd>(Admission::report(req, SM)?))
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, mut sub: Subscription) {
        // Its state comes back with it.
        let (info, _) = sub.parts::<ReportStream<MacStatsInd>>();
        self.ended.lock().unwrap().push((info.ctrl, info.req_id.instance));
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
        // One UE's counter moves with every report, the other three stand
        // still: a delta frame is worth sending and small.
        self.reports += 1;
        let ues = (0..4u16)
            .map(|i| MacUeStats {
                rnti: 0x4601 + i,
                dl_aggr_bytes: if i == 0 { self.reports * 1_500 } else { 7 },
                ..Default::default()
            })
            .collect();
        let snap = MacStatsInd { tstamp_ms: ctx.now_ms, cell_prbs: 106, ues };
        for sub in due.iter_mut() {
            sub.report(ctx, &snap, None, Bytes::new());
        }
    }
}

/// Epoch, sequence number and the delta flag of a stream frame.
fn frame_header(ind: &RicIndication) -> (u32, u32, bool) {
    let word = |at: usize| u32::from_be_bytes(ind.message[at..at + 4].try_into().unwrap());
    (word(0), word(4), ind.message[8] & 0x80 != 0)
}

/// `(time, epoch, sequence number, is a delta)` of the frames `ctrl` got
/// when `rig` was ticked at each of `ticks`, every frame applied to `dec`
/// on the way.
fn frames(
    rig: &mut Rig,
    ctrl: CtrlId,
    dec: &mut DeltaDecoder<MacStatsInd>,
    ticks: &[u64],
) -> Vec<(u64, u32, u32, bool)> {
    let mut seen = Vec::new();
    for &t in ticks {
        for (_, ind) in rig.tick(t).into_iter().filter(|(c, _)| *c == ctrl) {
            let event = dec.apply(&ind.message, SM).expect("a well-formed frame");
            assert!(matches!(event, DeltaEvent::Snapshot { .. }), "at {t}: {event:?}");
            let (epoch, seq, is_delta) = frame_header(&ind);
            seen.push((t, epoch, seq, is_delta));
        }
    }
    seen
}

const KEY: bool = false;
const DELTA: bool = true;

/// Keyframe cadence of the retune test: beyond its run, so that the only
/// keyframes are the stream's start and the discontinuities under test —
/// a stream's periodic keyframes fall at the phase of its subscription
/// (`flexric_sm::delta::phase_of`), which may be any report of a cadence.
const NO_PERIODIC: u32 = 100_000;

/// A retune that changes the period keeps the delta stream — the new
/// period takes effect without a keyframe — and a retune to the identical
/// trigger, the controller's request to resync, forces one under the next
/// epoch with the sequence going on.
#[test]
fn a_retune_keeps_the_stream_and_an_identical_one_forces_a_keyframe() {
    let mut rig = Rig::new(vec![StreamFn::boxed(7, &Ended::default())], 1);
    let mut dec = DeltaDecoder::new();
    rig.subscribe(0, 7, 1, ReportTrigger::delta_every_ms(10, NO_PERIODIC), 0);
    let seen = frames(&mut rig, 0, &mut dec, &[0, 10]);
    assert_eq!(seen, [(0, 1, 1, KEY), (10, 1, 2, DELTA)]);
    // Backoff to 20 ms at 10: due at 30, 50; the stream goes on.
    rig.subscribe(0, 7, 1, ReportTrigger::delta_every_ms(20, NO_PERIODIC), 10);
    let seen = frames(&mut rig, 0, &mut dec, &[20, 29, 30, 40, 50]);
    assert_eq!(seen, [(30, 1, 3, DELTA), (50, 1, 4, DELTA)]);
    // The same trigger again at 50: a keyframe at 70.
    rig.subscribe(0, 7, 1, ReportTrigger::delta_every_ms(20, NO_PERIODIC), 50);
    let seen = frames(&mut rig, 0, &mut dec, &[60, 70, 90]);
    assert_eq!(seen, [(70, 2, 5, KEY), (90, 2, 6, DELTA)]);
    // A mode change is a discontinuity too.
    rig.subscribe(0, 7, 1, ReportTrigger::delta_every_ms(20, NO_PERIODIC / 2), 90);
    let seen = frames(&mut rig, 0, &mut dec, &[110, 130]);
    assert_eq!(seen, [(110, 3, 7, KEY), (130, 3, 8, DELTA)]);
    assert_eq!((dec.keyframes, dec.deltas, dec.resyncs), (3, 5, 0));
}

/// Losing a controller drops its subscriptions and what was kept with
/// them — the function is told, and a re-admission after the reconnect
/// starts a fresh stream with a keyframe — and leaves the other
/// controller's stream as it was.
#[test]
fn a_lost_controller_takes_its_subscriptions_and_their_state() {
    let ended = Ended::default();
    let mut rig = Rig::new(vec![StreamFn::boxed(7, &ended), ClockFn::boxed(8)], 2);
    let (mut dec0, mut dec1) = (DeltaDecoder::new(), DeltaDecoder::new());
    let trigger = ReportTrigger::delta_every_ms(10, 16);
    rig.subscribe(0, 7, 1, trigger, 0);
    rig.subscribe(1, 7, 1, trigger, 0);
    rig.subscribe(0, 8, 2, ReportTrigger::every_ms(10), 0);
    let inds = rig.tick(0);
    assert_eq!(inds.len(), 3);
    for (dec, ctrl) in [(&mut dec0, 0), (&mut dec1, 1)] {
        let (_, ind) = inds.iter().find(|(c, i)| *c == ctrl && i.ran_function.0 == 7).unwrap();
        assert_eq!(frame_header(ind), (1, 1, KEY));
        dec.apply(&ind.message, SM).unwrap();
    }
    assert_eq!(frames(&mut rig, 1, &mut dec1, &[10]), [(10, 1, 2, DELTA)]);

    // Controller 0's connection ends: hung up on, redialled, forgotten.
    let out = rig.handle(Event::Closed(rig.peers[0]), 15);
    assert!(matches!(out[..], [Action::Hangup(_), Action::Dial { tag: 0, .. }]));
    assert_eq!(rig.agent.stats().active_subs, 1);
    assert_eq!(*ended.lock().unwrap(), [(0, 1)], "the function was told (ClockFn has no hook)");
    let inds = rig.tick(20);
    assert_eq!(inds.iter().map(|(c, _)| *c).collect::<Vec<_>>(), [1], "controller 1 alone");
    assert_eq!(frame_header(&inds[0].1), (1, 3, DELTA), "and its stream goes on");
    dec1.apply(&inds[0].1.message, SM).unwrap();

    // It comes back and subscribes again under the same request id: a
    // fresh stream, not the old one carried over.
    rig.reconnect(0, 25);
    rig.subscribe(0, 7, 1, trigger, 25);
    let inds = rig.tick(30);
    let of = |ctrl| frame_header(&inds.iter().find(|(c, _)| *c == ctrl).unwrap().1);
    assert_eq!(of(0), (1, 1, KEY));
    assert_eq!(of(1), (1, 4, DELTA));
    assert_eq!(frames(&mut rig, 0, &mut dec0, &[35]), [(35, 1, 2, DELTA)], "on its own grid");
    assert_eq!(rig.agent.stats().active_subs, 2);
}

// ---------------------------------------------------------------------------
// Event-driven subscriptions
// ---------------------------------------------------------------------------

/// Reports to whoever is subscribed when its flag is raised.
struct EventFn(RanFunctionItem, Arc<AtomicBool>);

impl RanFunction for EventFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Ok(Admission::on_event())
    }
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        if self.1.swap(false, Ordering::Relaxed) {
            let subs = ctx.subscribers().iter().map(|s| s.info());
            ctx.send_indication_multi(subs, None, Bytes::new(), Bytes::from_static(b"event"));
        }
    }
}

/// An event-driven subscription is never due; the function finds its
/// subscribers in the context when it has something to say.
#[test]
fn an_event_driven_function_reports_to_its_subscribers() {
    let flag = Arc::new(AtomicBool::new(false));
    let mut rig = Rig::new(vec![Box::new(EventFn(identity(9, "test.event"), flag.clone()))], 2);
    let whatever = ReportTrigger::every_ms(1);
    rig.subscribe(0, 9, 1, whatever, 0);
    rig.subscribe(1, 9, 2, whatever, 0);
    assert_eq!(rig.tick(0).len() + rig.tick(1).len() + rig.tick(50).len(), 0);
    flag.store(true, Ordering::Relaxed);
    let to: Vec<(CtrlId, u16)> =
        rig.tick(51).iter().map(|(c, i)| (*c, i.req_id.instance)).collect();
    assert_eq!(to, [(0, 1), (1, 2)]);
    assert!(matches!(rig.delete(0, 9, 1, 52), E2apPdu::RicSubscriptionDeleteResponse(_)));
    flag.store(true, Ordering::Relaxed);
    assert_eq!(rig.tick(53).iter().map(|(c, _)| *c).collect::<Vec<_>>(), [1]);
}
