//! Agent-side report emission with the full/delta mode switch folded in.
//!
//! [`ReportSender`] sits between a periodic RAN function and
//! [`AgentCtx::send_indication`]: full-mode subscriptions get the plain
//! encoded snapshot, delta-mode subscriptions get keyframe/delta frames
//! from a per-subscription [`DeltaStreams`] encoder, and unchanged
//! snapshots are suppressed (no indication at all).  Stream lifecycle
//! follows the subscription lifecycle: admit (including reconnect
//! replay) resets the stream — epoch bump, next report is a keyframe —
//! and delete drops it.  Retunes are smarter: a retune that changes the
//! trigger (period backoff/tighten) preserves the stream, because
//! sequence continuity over the ordered transport keeps the receiver's
//! base valid; a retune to the *identical* trigger is only meaningful
//! as a resync request and forces a keyframe, as does any report-mode
//! change.

use std::collections::HashMap;

use bytes::Bytes;
use flexric_e2ap::RicRequestId;
use flexric_sm::delta::{DeltaRows, DeltaStreams, ReportOut};
use flexric_sm::{ReportMode, ReportTrigger, SmCodec};

use crate::agent::{AgentCtx, CtrlId, SubscriptionInfo};

/// Per-RAN-function report sender: one delta stream per subscription.
#[derive(Debug)]
pub struct ReportSender<T: DeltaRows> {
    /// The SM encoding of the function this sender reports for.
    codec: SmCodec,
    streams: DeltaStreams<(CtrlId, RicRequestId), T>,
    /// Last trigger seen per subscription, for the retune soft/hard call.
    triggers: HashMap<(CtrlId, RicRequestId), ReportTrigger>,
}

impl<T: DeltaRows> ReportSender<T> {
    /// An empty sender encoding its reports with `codec`.
    pub fn new(codec: SmCodec) -> Self {
        ReportSender { codec, streams: DeltaStreams::new(), triggers: HashMap::new() }
    }

    /// A subscription was admitted (first time or reconnect replay):
    /// (re)start its stream so the next delta-mode report is a keyframe
    /// under a fresh epoch.
    pub fn reset(&mut self, sub: &SubscriptionInfo, trigger: &ReportTrigger) {
        let key = (sub.ctrl, sub.req_id);
        self.triggers.insert(key, *trigger);
        if let ReportMode::Delta { keyframe_every } = trigger.mode {
            self.streams.reset(key, keyframe_every);
        } else {
            self.streams.remove(&key);
        }
    }

    /// A subscription was retuned.  A changed trigger under the same
    /// report mode (the period backoff/tighten path) preserves the
    /// stream — the ordered transport keeps the receiver's base valid.
    /// An *identical* trigger is the server's resync request, and a mode
    /// change invalidates the base: both force a keyframe.
    pub fn retune(&mut self, sub: &SubscriptionInfo, trigger: &ReportTrigger) {
        let key = (sub.ctrl, sub.req_id);
        let prev = self.triggers.insert(key, *trigger);
        match trigger.mode {
            ReportMode::Delta { keyframe_every } => {
                let soft = prev.is_some_and(|p| p.mode == trigger.mode && p != *trigger);
                if soft {
                    self.streams.ensure(key, keyframe_every);
                } else {
                    self.streams.reset(key, keyframe_every);
                }
            }
            ReportMode::Full => self.streams.remove(&key),
        }
    }

    /// A subscription was deleted.
    pub fn delete(&mut self, ctrl: CtrlId, req_id: RicRequestId) {
        self.streams.remove(&(ctrl, req_id));
        self.triggers.remove(&(ctrl, req_id));
    }

    /// A controller went away entirely.
    pub fn delete_ctrl(&mut self, ctrl: CtrlId) {
        // DeltaStreams has no ctrl index; streams of dead subscriptions
        // are also dropped lazily on the next reset with the same key.
        self.streams.retain_keys(|(c, _)| *c != ctrl);
        self.triggers.retain(|(c, _), _| *c != ctrl);
    }

    /// Emits one report for `sub` under its trigger mode; suppressed
    /// reports send nothing.  Returns whether an indication was queued.
    pub fn send(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        sub: &SubscriptionInfo,
        trigger: &ReportTrigger,
        snap: &T,
        sn: Option<u32>,
        header: Bytes,
    ) -> bool {
        match self.streams.report((sub.ctrl, sub.req_id), trigger.mode, snap, self.codec) {
            ReportOut::Send(buf) => {
                ctx.send_indication(sub, sn, header, buf);
                true
            }
            ReportOut::Suppressed => false,
        }
    }
}
