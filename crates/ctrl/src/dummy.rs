//! Dummy test agents: "dummy test agents (not connected to any base
//! station) that export the same statistics as from a real base station,
//! each agent emulating a connection of 32 UEs with a unique default
//! bearer" (paper §5.3).  Used by the controller-scaling experiments
//! (Figs. 8b, 9b) and — in the time-varying configuration — by the
//! adaptive-monitoring cost sweep (Fig. 7b).
//!
//! The functions speak both report modes: full-snapshot subscriptions get
//! one shared encode fanned out to all due controllers, delta-mode
//! subscriptions go through their own [`ReportStream`] (keyframes,
//! dirty-field deltas, suppression of unchanged snapshots).
//! Server-driven retunes arrive via [`RanFunction::on_subscription_update`]
//! and keep the stream unless they ask for a keyframe.

use std::marker::PhantomData;

use bytes::Bytes;

use flexric::agent::{Admission, AgentCtx, Due, RanFunction, Subscription, SubscriptionInfo};
use flexric::report::ReportStream;
use flexric_e2ap::{Cause, RanFunctionItem, RicSubscriptionRequest};
use flexric_ransim::kpi::KpiGen;
use flexric_sm::delta::DeltaRows;
use flexric_sm::{
    mac::{MacStatsInd, MacUeStats},
    oid,
    pdcp::{PdcpBearerStats, PdcpStatsInd},
    rlc::{RlcBearerStats, RlcStatsInd},
    ReportMode, SmCodec,
};

/// Statistics a dummy function can fabricate: MAC (excluding HARQ, as in
/// the paper), RLC and PDCP.
pub trait DummyStats: DeltaRows + Send + 'static {
    /// The service model the statistics belong to.
    const OID: &'static str;
    /// The current snapshot of the time-varying workload.
    fn of(kpi: &KpiGen) -> &Self;
    /// The classic counter-driven snapshot of `ue_count` UEs: every field
    /// moves with `c`, the number of report periods so far.
    fn fabricate(c: u64, ue_count: u16, now_ms: u64) -> Self;
}

impl DummyStats for MacStatsInd {
    const OID: &'static str = oid::MAC_STATS;
    fn of(kpi: &KpiGen) -> &Self {
        kpi.mac()
    }
    fn fabricate(c: u64, ue_count: u16, now_ms: u64) -> Self {
        let ues = (0..ue_count)
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
}

impl DummyStats for RlcStatsInd {
    const OID: &'static str = oid::RLC_STATS;
    fn of(kpi: &KpiGen) -> &Self {
        kpi.rlc()
    }
    fn fabricate(c: u64, ue_count: u16, now_ms: u64) -> Self {
        let bearers = (0..ue_count)
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
}

impl DummyStats for PdcpStatsInd {
    const OID: &'static str = oid::PDCP_STATS;
    fn of(kpi: &KpiGen) -> &Self {
        kpi.pdcp()
    }
    fn fabricate(c: u64, ue_count: u16, now_ms: u64) -> Self {
        let bearers = (0..ue_count)
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
}

/// A RAN function fabricating the statistics `T` for `ue_count` UEs.
pub struct DummyStatsFn<T> {
    ue_count: u16,
    sm_codec: SmCodec,
    identity: RanFunctionItem,
    counter: u64,
    /// Time-varying workload; `None` keeps the classic counter-driven
    /// synthetic statistics (every field moves every period).
    kpi: Option<KpiGen>,
    stats: PhantomData<fn() -> T>,
}

impl<T: DummyStats> DummyStatsFn<T> {
    /// Creates a dummy function (counter-driven statistics, the Figs.
    /// 8b/9b workload).
    pub fn new(ue_count: u16, sm_codec: SmCodec) -> Self {
        let identity = crate::ranfun::identity_of(T::OID, sm_codec);
        DummyStatsFn { ue_count, sm_codec, identity, counter: 0, kpi: None, stats: PhantomData }
    }

    /// Creates a dummy function over the time-varying KPI workload
    /// (quiet/active/burst phases, [`flexric_ransim::kpi::KpiGen`]) — the
    /// Fig. 7b adaptive-monitoring workload.
    pub fn time_varying(ue_count: u16, sm_codec: SmCodec, seed: u64) -> Self {
        let kpi = Some(KpiGen::new(seed, ue_count as usize));
        DummyStatsFn { kpi, ..Self::new(ue_count, sm_codec) }
    }
}

impl<T: DummyStats> RanFunction for DummyStatsFn<T> {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        let stream = ReportStream::<T>::new(self.sm_codec);
        Ok(Admission::report(req, self.sm_codec)?.with_state(stream))
    }
    fn on_subscription_update(
        &mut self,
        _ctx: &mut AgentCtx,
        old: Subscription,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        // Retune in place: the period changes without a resubscribe.
        // Period-only changes keep the delta stream alive; an
        // identical-trigger retune is the server asking for a keyframe
        // (it lost or never had a base), as is a mode change.
        Ok(old.retune_stream::<T>(Admission::report(req, self.sm_codec)?))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
        // Advance the workload one report period.
        let now = ctx.now_ms;
        self.counter += 1;
        let snap = match &mut self.kpi {
            Some(g) => {
                g.step(now);
                T::of(g).clone()
            }
            None => T::fabricate(self.counter, self.ue_count, now),
        };
        // Full-mode subscriptions share one encode fanned out at flush;
        // delta-mode subscriptions each have their own stream state.
        let is_full = |s: &Subscription| s.mode() == ReportMode::Full;
        if due.iter().any(is_full) {
            let msg = Bytes::from(snap.encode(self.sm_codec));
            let fulls = due.iter().filter(|s| is_full(s)).map(|s| s.info());
            ctx.send_indication_multi(fulls, None, Bytes::new(), msg);
        }
        for sub in due.iter_mut().filter(|s| !is_full(s)) {
            sub.report(ctx, &snap, None, Bytes::new());
        }
    }
}

/// The full dummy bundle: MAC + RLC + PDCP with 32 UEs (the paper's
/// configuration).
pub fn dummy_bundle(ue_count: u16, sm_codec: SmCodec) -> Vec<Box<dyn RanFunction>> {
    vec![
        Box::new(DummyStatsFn::<MacStatsInd>::new(ue_count, sm_codec)),
        Box::new(DummyStatsFn::<RlcStatsInd>::new(ue_count, sm_codec)),
        Box::new(DummyStatsFn::<PdcpStatsInd>::new(ue_count, sm_codec)),
    ]
}

/// The dummy bundle over the time-varying KPI workload (Fig. 7b): same
/// three functions, but quiet/active/burst phases drive the statistics.
pub fn dummy_bundle_time_varying(
    ue_count: u16,
    sm_codec: SmCodec,
    seed: u64,
) -> Vec<Box<dyn RanFunction>> {
    vec![
        Box::new(DummyStatsFn::<MacStatsInd>::time_varying(ue_count, sm_codec, seed)),
        Box::new(DummyStatsFn::<RlcStatsInd>::time_varying(ue_count, sm_codec, seed)),
        Box::new(DummyStatsFn::<PdcpStatsInd>::time_varying(ue_count, sm_codec, seed)),
    ]
}

/// Only the MAC dummy (the Fig. 9b monitoring workload).
pub fn dummy_mac_only(ue_count: u16, sm_codec: SmCodec) -> Vec<Box<dyn RanFunction>> {
    vec![Box::new(DummyStatsFn::<MacStatsInd>::new(ue_count, sm_codec))]
}
