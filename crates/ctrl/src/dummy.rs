//! Dummy test agents: "dummy test agents (not connected to any base
//! station) that export the same statistics as from a real base station,
//! each agent emulating a connection of 32 UEs with a unique default
//! bearer" (paper §5.3).  Used by the controller-scaling experiments
//! (Figs. 8b, 9b) and — in the time-varying configuration — by the
//! adaptive-monitoring cost sweep (Fig. 7b).
//!
//! The functions speak both report modes: full-snapshot subscriptions get
//! one shared encode fanned out to all due controllers, delta-mode
//! subscriptions go through a per-subscription [`ReportSender`]
//! (keyframes, dirty-field deltas, suppression of unchanged snapshots).
//! Server-driven retunes arrive via [`RanFunction::on_subscription_update`]
//! and restart the stream under a fresh epoch.

use std::sync::Arc;

use bytes::Bytes;

use flexric::agent::{AgentCtx, CtrlId, PeriodicSubs, RanFunction, SubscriptionInfo};
use flexric::report::ReportSender;
use flexric_e2ap::{
    Cause, FnVersion, RanFunctionId, RicCause, RicControlRequest, RicRequestId,
    RicSubscriptionRequest,
};
use flexric_ransim::kpi::KpiGen;
use flexric_sm::{
    mac::{MacStatsInd, MacUeStats},
    oid,
    pdcp::{PdcpBearerStats, PdcpStatsInd},
    rlc::{RlcBearerStats, RlcStatsInd},
    ReportMode, ReportTrigger, SmCodec, SmDescriptor, SmPayload,
};

/// Which statistics a dummy function fabricates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DummyKind {
    /// MAC statistics (excluding HARQ, as in the paper).
    Mac,
    /// RLC statistics.
    Rlc,
    /// PDCP statistics.
    Pdcp,
}

/// Typed report path of one dummy function: snapshot + delta streams.
enum Inner {
    Mac(ReportSender<MacStatsInd>),
    Rlc(ReportSender<RlcStatsInd>),
    Pdcp(ReportSender<PdcpStatsInd>),
}

/// A RAN function fabricating statistics for `ue_count` UEs.
pub struct DummyStatsFn {
    ue_count: u16,
    sm_codec: SmCodec,
    desc: Arc<SmDescriptor>,
    subs: PeriodicSubs,
    counter: u64,
    /// Time-varying workload; `None` keeps the classic counter-driven
    /// synthetic statistics (every field moves every period).
    kpi: Option<KpiGen>,
    inner: Inner,
}

impl DummyStatsFn {
    /// Creates a dummy function of the given kind (counter-driven
    /// statistics, the Figs. 8b/9b workload).
    pub fn new(kind: DummyKind, ue_count: u16, sm_codec: SmCodec) -> Self {
        let (inner, oid) = match kind {
            DummyKind::Mac => (Inner::Mac(ReportSender::new(sm_codec)), oid::MAC_STATS),
            DummyKind::Rlc => (Inner::Rlc(ReportSender::new(sm_codec)), oid::RLC_STATS),
            DummyKind::Pdcp => (Inner::Pdcp(ReportSender::new(sm_codec)), oid::PDCP_STATS),
        };
        let desc = flexric_sm::registry::global().latest(oid).expect("bundled SM descriptor");
        DummyStatsFn {
            ue_count,
            sm_codec,
            desc,
            subs: PeriodicSubs::new(),
            counter: 0,
            kpi: None,
            inner,
        }
    }

    /// Creates a dummy function over the time-varying KPI workload
    /// (quiet/active/burst phases, [`flexric_ransim::kpi::KpiGen`]) — the
    /// Fig. 7b adaptive-monitoring workload.
    pub fn time_varying(kind: DummyKind, ue_count: u16, sm_codec: SmCodec, seed: u64) -> Self {
        let mut f = Self::new(kind, ue_count, sm_codec);
        f.kpi = Some(KpiGen::new(seed, ue_count as usize));
        f
    }

    fn mac_snapshot(&mut self, now_ms: u64) -> MacStatsInd {
        if let Some(g) = &self.kpi {
            return g.mac().clone();
        }
        let c = self.counter;
        let ues = (0..self.ue_count)
            .map(|i| MacUeStats {
                rnti: 0x4601 + i,
                cqi: 15,
                mcs: 20,
                prbs_dl: 3 + (c as u32 + i as u32) % 5,
                prbs_ul: 1,
                tbs_dl_bytes: 1_500 + c % 512,
                tbs_ul_bytes: 300,
                dl_aggr_bytes: c * 1_500,
                ul_aggr_bytes: c * 300,
                bsr: (c % 4_000) as u32,
                dl_backlog_bytes: c % 90_000,
                slice_id: (i % 2) as u32,
                plmn_mcc: 1,
                plmn_mnc: 1,
            })
            .collect();
        MacStatsInd { tstamp_ms: now_ms, cell_prbs: 106, ues }
    }

    fn rlc_snapshot(&mut self, now_ms: u64) -> RlcStatsInd {
        if let Some(g) = &self.kpi {
            return g.rlc().clone();
        }
        let c = self.counter;
        let bearers = (0..self.ue_count)
            .map(|i| RlcBearerStats {
                rnti: 0x4601 + i,
                drb_id: 1,
                tx_pdus: c,
                tx_bytes: c * 1_400,
                retx_pdus: c / 100,
                dropped_pdus: 0,
                buffer_bytes: c % 250_000,
                buffer_pkts: (c % 170) as u32,
                sojourn_us_avg: 1_000 + c % 9_000,
                sojourn_us_max: 2_000 + c % 20_000,
            })
            .collect();
        RlcStatsInd { tstamp_ms: now_ms, bearers }
    }

    fn pdcp_snapshot(&mut self, now_ms: u64) -> PdcpStatsInd {
        if let Some(g) = &self.kpi {
            return g.pdcp().clone();
        }
        let c = self.counter;
        let bearers = (0..self.ue_count)
            .map(|i| PdcpBearerStats {
                rnti: 0x4601 + i,
                drb_id: 1,
                tx_pdus: c,
                tx_bytes: c * 1_400,
                rx_pdus: c / 2,
                rx_bytes: c * 200,
                tx_aggr_bytes: c * 1_400,
                rx_aggr_bytes: c * 200,
                rx_discards: 0,
            })
            .collect();
        PdcpStatsInd { tstamp_ms: now_ms, bearers }
    }

    /// Advances the workload one report period.
    fn advance(&mut self, now_ms: u64) {
        self.counter += 1;
        if let Some(g) = &mut self.kpi {
            g.step(now_ms);
        }
    }

    /// (Re)starts the delta stream of a subscription per its trigger mode.
    fn reset_stream(&mut self, sub: &SubscriptionInfo) {
        let Ok(trigger) = ReportTrigger::decode(self.sm_codec, &sub.trigger) else { return };
        match &mut self.inner {
            Inner::Mac(s) => s.reset(sub, &trigger),
            Inner::Rlc(s) => s.reset(sub, &trigger),
            Inner::Pdcp(s) => s.reset(sub, &trigger),
        }
    }

    /// Retunes the delta stream of a subscription (soft on period-only
    /// changes, keyframe on identical-trigger resyncs and mode changes).
    fn retune_stream(&mut self, sub: &SubscriptionInfo) {
        let Ok(trigger) = ReportTrigger::decode(self.sm_codec, &sub.trigger) else { return };
        match &mut self.inner {
            Inner::Mac(s) => s.retune(sub, &trigger),
            Inner::Rlc(s) => s.retune(sub, &trigger),
            Inner::Pdcp(s) => s.retune(sub, &trigger),
        }
    }
}

impl RanFunction for DummyStatsFn {
    fn id(&self) -> RanFunctionId {
        RanFunctionId::new(self.desc.ran_function_id)
    }
    fn oid(&self) -> String {
        self.desc.oid.clone()
    }
    fn definition(&self) -> Bytes {
        Bytes::from(self.desc.funcdef_bytes(self.sm_codec))
    }
    fn version(&self) -> FnVersion {
        self.desc.version.into()
    }
    fn on_subscription(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        self.subs.admit(sub, self.sm_codec, ctx.now_ms)?;
        self.reset_stream(sub);
        Ok(())
    }
    fn on_subscription_update(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        // Retune in place: the period changes without a resubscribe.
        // Period-only changes keep the delta stream alive; an
        // identical-trigger retune is the server asking for a keyframe
        // (it lost or never had a base), as is a mode change.
        self.subs.retune(sub, self.sm_codec, ctx.now_ms)?;
        self.retune_stream(sub);
        Ok(())
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.remove(ctrl, req_id);
        match &mut self.inner {
            Inner::Mac(s) => s.delete(ctrl, req_id),
            Inner::Rlc(s) => s.delete(ctrl, req_id),
            Inner::Pdcp(s) => s.delete(ctrl, req_id),
        }
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        _req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        Err(Cause::Ric(RicCause::ActionNotSupported))
    }
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        if self.subs.is_empty() {
            return;
        }
        let mut due: Vec<(SubscriptionInfo, ReportTrigger)> = Vec::new();
        self.subs.for_due(ctx.now_ms, |sub, trigger| due.push((sub.clone(), *trigger)));
        if due.is_empty() {
            return;
        }
        self.advance(ctx.now_ms);
        let codec = self.sm_codec;
        let now = ctx.now_ms;
        // Full-mode subscriptions share one encode fanned out at flush;
        // delta-mode subscriptions each have their own stream state.
        let fulls: Vec<&SubscriptionInfo> =
            due.iter().filter(|(_, t)| t.mode == ReportMode::Full).map(|(s, _)| s).collect();
        macro_rules! emit {
            ($snap_fn:ident, $sender:ident) => {{
                let snap = self.$snap_fn(now);
                if !fulls.is_empty() {
                    let msg = Bytes::from(snap.encode(codec));
                    ctx.send_indication_multi(fulls.iter().copied(), None, Bytes::new(), msg);
                }
                for (sub, trigger) in &due {
                    if trigger.mode != ReportMode::Full {
                        $sender.send(ctx, sub, trigger, &snap, None, Bytes::new());
                    }
                }
            }};
        }
        // Split the borrow: the sender is moved out of `self.inner` for
        // the duration of the emit so `self.$snap_fn` stays callable.
        let mut inner = std::mem::replace(&mut self.inner, Inner::Mac(ReportSender::new(codec)));
        match &mut inner {
            Inner::Mac(s) => emit!(mac_snapshot, s),
            Inner::Rlc(s) => emit!(rlc_snapshot, s),
            Inner::Pdcp(s) => emit!(pdcp_snapshot, s),
        }
        self.inner = inner;
    }
}

/// The full dummy bundle: MAC + RLC + PDCP with 32 UEs (the paper's
/// configuration).
pub fn dummy_bundle(ue_count: u16, sm_codec: SmCodec) -> Vec<Box<dyn flexric::agent::RanFunction>> {
    vec![
        Box::new(DummyStatsFn::new(DummyKind::Mac, ue_count, sm_codec)),
        Box::new(DummyStatsFn::new(DummyKind::Rlc, ue_count, sm_codec)),
        Box::new(DummyStatsFn::new(DummyKind::Pdcp, ue_count, sm_codec)),
    ]
}

/// The dummy bundle over the time-varying KPI workload (Fig. 7b): same
/// three functions, but quiet/active/burst phases drive the statistics.
pub fn dummy_bundle_time_varying(
    ue_count: u16,
    sm_codec: SmCodec,
    seed: u64,
) -> Vec<Box<dyn flexric::agent::RanFunction>> {
    vec![
        Box::new(DummyStatsFn::time_varying(DummyKind::Mac, ue_count, sm_codec, seed)),
        Box::new(DummyStatsFn::time_varying(DummyKind::Rlc, ue_count, sm_codec, seed)),
        Box::new(DummyStatsFn::time_varying(DummyKind::Pdcp, ue_count, sm_codec, seed)),
    ]
}

/// Only the MAC dummy (the Fig. 9b monitoring workload).
pub fn dummy_mac_only(
    ue_count: u16,
    sm_codec: SmCodec,
) -> Vec<Box<dyn flexric::agent::RanFunction>> {
    vec![Box::new(DummyStatsFn::new(DummyKind::Mac, ue_count, sm_codec))]
}
