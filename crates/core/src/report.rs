//! Agent-side report emission with the full/delta mode switch folded in.
//!
//! A [`ReportStream`] is the per-subscription state of a periodic RAN
//! function that reports snapshots: attached at admission
//! ([`Admission::with_state`]), it sits between the function and
//! [`AgentCtx::send_indication`].  Full-mode subscriptions get the plain
//! encoded snapshot, delta-mode subscriptions get keyframe/delta frames,
//! and unchanged snapshots are suppressed (no indication at all).  The
//! stream lives and dies with the [`Subscription`] the agent keeps: an
//! admission (including reconnect replay) starts a fresh one — the next
//! report is a keyframe — and a delete or the loss of the controller drops
//! it.  Retunes are smarter ([`Subscription::retune_stream`]): a retune
//! that changes the trigger (period backoff/tighten) preserves the stream,
//! because sequence continuity over the ordered transport keeps the
//! receiver's base valid; a retune to the *identical* trigger is only
//! meaningful as a resync request and forces a keyframe under a new epoch,
//! as does any report-mode change.
//!
//! The stream is keyed by its subscription, `(controller, request id)`,
//! though it is a stream set of one: the key sets the stream's keyframe
//! phase ([`flexric_sm::delta::phase_of`]), so that the subscriptions of a
//! fleet that a controller admitted in one go do not all keyframe in the
//! same report period.

use bytes::Bytes;
use flexric_e2ap::RicRequestId;
use flexric_sm::delta::{DeltaRows, DeltaStreams, ReportOut};
use flexric_sm::{ReportMode, ReportTrigger, SmCodec};

use crate::agent::{Admission, AgentCtx, CtrlId, Subscription, SubscriptionInfo};

/// The report path of one subscription: a stream set of one, under the
/// subscription's key (module docs).
#[derive(Debug)]
pub struct ReportStream<T: DeltaRows> {
    /// The SM encoding of the function this stream reports for.
    codec: SmCodec,
    stream: DeltaStreams<(CtrlId, RicRequestId), T>,
}

/// The key of `info`'s stream.
fn key(info: &SubscriptionInfo) -> (CtrlId, RicRequestId) {
    (info.ctrl, info.req_id)
}

impl<T: DeltaRows> ReportStream<T> {
    /// A fresh stream encoding its reports with `codec`; in delta mode its
    /// first report is a keyframe.
    pub fn new(codec: SmCodec) -> Self {
        ReportStream { codec, stream: DeltaStreams::new() }
    }

    /// The subscription was retuned from `prev` to `next`.  A changed
    /// trigger under the same report mode preserves the stream; an
    /// identical trigger or a mode change forces a keyframe.
    fn retune(
        &mut self,
        info: &SubscriptionInfo,
        prev: Option<&ReportTrigger>,
        next: &ReportTrigger,
    ) {
        let soft = prev.is_some_and(|p| p.mode == next.mode && p != next);
        match next.mode {
            ReportMode::Delta { .. } if soft => {}
            ReportMode::Delta { keyframe_every } => self.stream.reset(key(info), keyframe_every),
            ReportMode::Full => self.stream.remove(&key(info)),
        }
    }
}

impl Subscription {
    /// Emits one report of `snap` on the [`ReportStream<T>`] this
    /// subscription was admitted with, under the mode its trigger asks
    /// for; a suppressed report sends nothing.  Returns whether an
    /// indication was queued.
    ///
    /// # Panics
    /// If the subscription's state is not a `ReportStream<T>`.
    pub fn report<T: DeltaRows + 'static>(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        snap: &T,
        sn: Option<u32>,
        header: Bytes,
    ) -> bool {
        let mode = self.mode();
        let (info, stream) = self.parts::<ReportStream<T>>();
        match stream.stream.report(key(info), mode, snap, stream.codec) {
            ReportOut::Send(buf) => {
                ctx.send_indication(info, sn, header, buf);
                true
            }
            ReportOut::Suppressed => false,
        }
    }

    /// For [`RanFunction::on_subscription_update`](crate::agent::RanFunction::on_subscription_update):
    /// carries this subscription's [`ReportStream<T>`] over a retune to
    /// what `admission` asks for, instead of starting a fresh one.
    ///
    /// # Panics
    /// If the subscription's state is not a `ReportStream<T>`.
    pub fn retune_stream<T: DeltaRows + 'static>(mut self, admission: Admission) -> Admission {
        let prev = self.trigger;
        if let Some(next) = &admission.trigger {
            let (info, stream) = self.parts::<ReportStream<T>>();
            stream.retune(info, prev.as_ref(), next);
        }
        Admission { state: self.state, ..admission }
    }
}
