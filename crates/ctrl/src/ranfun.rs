//! Pre-defined RAN functions: the SM implementations an agent registers to
//! expose a (simulated) base station (paper §3, §4.1.1).
//!
//! Each function bridges one service model to the `flexric-ransim`
//! substrate: statistics functions snapshot the cell on due report
//! subscriptions; control functions apply SC/TC SM messages to the cell's
//! schedulers and TC sublayer.  All functions honour the UE-to-controller
//! association: statistics toward an additional controller only contain
//! the UEs exposed to it (paper §4.1.2).

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::agent::{
    Admission, AgentCtx, CtrlId, Due, RanFunction, Subscription, SubscriptionInfo,
};
use flexric::report::ReportStream;
use flexric_e2ap::{Cause, RanFunctionItem, RicCause, RicControlRequest, RicSubscriptionRequest};
use flexric_ransim::Sim;
use flexric_sm::{
    hw::HwPing,
    kpm::{self, KpmActionDef, KpmRecord, KpmReport},
    mac::MacStatsInd,
    oid,
    pdcp::PdcpStatsInd,
    rlc::RlcStatsInd,
    rrc::{RrcCtrl, RrcEventInd},
    slice::{SliceCtrl, SliceStatsInd},
    tc::{TcCtrl, TcStatsInd},
    ReportTrigger, SmCodec, SmPayload,
};

/// What a bundled SM is advertised as: the registry descriptor is the
/// single source of function id, OID, version, and funcdef for every
/// pre-defined RAN function here.
pub(crate) fn identity_of(oid: &str, sm_codec: SmCodec) -> RanFunctionItem {
    let desc = flexric_sm::registry::global().latest(oid).expect("bundled SM descriptor");
    desc.advertisement(sm_codec)
}

/// Shared handle to a simulated base station: the simulator plus the cell
/// this agent fronts.
#[derive(Clone)]
pub struct SimBs {
    /// The simulation.
    pub sim: Arc<Mutex<Sim>>,
    /// Index of this base station's cell.
    pub cell: usize,
}

impl SimBs {
    /// Wraps a cell of a simulation.
    pub fn new(sim: Arc<Mutex<Sim>>, cell: usize) -> Self {
        SimBs { sim, cell }
    }
}

/// Addressing header of TC SM control/indication payloads: which bearer a
/// message concerns.  Fixed 3-byte wire format (rnti big-endian + drb),
/// deliberately codec-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BearerAddr {
    /// The UE.
    pub rnti: u16,
    /// The bearer.
    pub drb: u8,
}

impl BearerAddr {
    /// Serializes to the 3-byte wire form.
    pub fn encode(&self) -> Bytes {
        Bytes::from(vec![(self.rnti >> 8) as u8, self.rnti as u8, self.drb])
    }

    /// Parses the 3-byte wire form.
    pub fn decode(buf: &[u8]) -> Option<BearerAddr> {
        if buf.len() != 3 {
            return None;
        }
        Some(BearerAddr { rnti: ((buf[0] as u16) << 8) | buf[1] as u16, drb: buf[2] })
    }
}

/// The complete pre-defined function bundle for a simulated base station:
/// MAC/RLC/PDCP statistics, slice control, traffic control, RRC events and
/// hello-world.
pub fn full_bundle(bs: &SimBs, sm_codec: SmCodec) -> Vec<Box<dyn RanFunction>> {
    vec![
        Box::new(MacStatsFn::new(bs.clone(), sm_codec)),
        Box::new(RlcStatsFn::new(bs.clone(), sm_codec)),
        Box::new(PdcpStatsFn::new(bs.clone(), sm_codec)),
        Box::new(SliceCtrlFn::new(bs.clone(), sm_codec)),
        Box::new(TcCtrlFn::new(bs.clone(), sm_codec)),
        Box::new(RrcEventFn::new(bs.clone(), sm_codec)),
        Box::new(KpmFn::new(bs.clone(), sm_codec)),
        Box::new(HwFn::new(sm_codec)),
    ]
}

/// Only the monitoring functions (MAC/RLC/PDCP), as used in §5.1.
pub fn stats_bundle(bs: &SimBs, sm_codec: SmCodec) -> Vec<Box<dyn RanFunction>> {
    vec![
        Box::new(MacStatsFn::new(bs.clone(), sm_codec)),
        Box::new(RlcStatsFn::new(bs.clone(), sm_codec)),
        Box::new(PdcpStatsFn::new(bs.clone(), sm_codec)),
    ]
}

macro_rules! stats_fn {
    ($name:ident, $oid:expr, $snapshot:ident, $ind:ty, $filter:expr) => {
        /// Periodic statistics RAN function (see module docs).
        pub struct $name {
            bs: SimBs,
            sm_codec: SmCodec,
            identity: RanFunctionItem,
        }

        impl $name {
            /// Creates the function over a simulated base station.
            pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
                Self { bs, sm_codec, identity: identity_of($oid, sm_codec) }
            }
        }

        impl RanFunction for $name {
            fn identity(&self) -> &RanFunctionItem {
                &self.identity
            }
            fn on_subscription(
                &mut self,
                _ctx: &mut AgentCtx,
                _sub: &SubscriptionInfo,
                req: &RicSubscriptionRequest,
            ) -> Result<Admission, Cause> {
                let stream = ReportStream::<$ind>::new(self.sm_codec);
                Ok(Admission::report(req, self.sm_codec)?.with_state(stream))
            }
            fn on_subscription_update(
                &mut self,
                _ctx: &mut AgentCtx,
                old: Subscription,
                _sub: &SubscriptionInfo,
                req: &RicSubscriptionRequest,
            ) -> Result<Admission, Cause> {
                // Server-driven retune: new period takes effect without a
                // resubscribe.  Period-only changes keep the delta stream;
                // identical-trigger retunes (resync requests) and mode
                // changes force a keyframe.
                Ok(old.retune_stream::<$ind>(Admission::report(req, self.sm_codec)?))
            }
            fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
                // One snapshot per tick, shared by all due subscriptions;
                // the stream applies the per-subscription report mode
                // (full / delta / suppressed) to the filtered view.
                let ind: $ind = {
                    let mut sim = self.bs.sim.lock().expect("lock poisoned");
                    sim.cells[self.bs.cell].$snapshot()
                };
                for sub in due.iter_mut() {
                    let filtered = $filter(&ind, ctx, sub.info());
                    sub.report(ctx, &filtered, None, Bytes::new());
                }
            }
        }
    };
}

fn filter_mac(ind: &MacStatsInd, ctx: &AgentCtx, sub: &SubscriptionInfo) -> MacStatsInd {
    MacStatsInd {
        tstamp_ms: ind.tstamp_ms,
        cell_prbs: ind.cell_prbs,
        ues: ind.ues.iter().filter(|u| ctx.ue_exposed(sub.ctrl, u.rnti)).copied().collect(),
    }
}

fn filter_rlc(ind: &RlcStatsInd, ctx: &AgentCtx, sub: &SubscriptionInfo) -> RlcStatsInd {
    RlcStatsInd {
        tstamp_ms: ind.tstamp_ms,
        bearers: ind.bearers.iter().filter(|b| ctx.ue_exposed(sub.ctrl, b.rnti)).copied().collect(),
    }
}

fn filter_pdcp(ind: &PdcpStatsInd, ctx: &AgentCtx, sub: &SubscriptionInfo) -> PdcpStatsInd {
    PdcpStatsInd {
        tstamp_ms: ind.tstamp_ms,
        bearers: ind.bearers.iter().filter(|b| ctx.ue_exposed(sub.ctrl, b.rnti)).copied().collect(),
    }
}

stats_fn!(MacStatsFn, oid::MAC_STATS, mac_stats, MacStatsInd, filter_mac);
stats_fn!(RlcStatsFn, oid::RLC_STATS, rlc_stats, RlcStatsInd, filter_rlc);
stats_fn!(PdcpStatsFn, oid::PDCP_STATS, pdcp_stats, PdcpStatsInd, filter_pdcp);

/// Slice control RAN function (SC SM): applies slice configuration to the
/// cell's MAC schedulers and reports slice status.
pub struct SliceCtrlFn {
    bs: SimBs,
    sm_codec: SmCodec,
    identity: RanFunctionItem,
}

impl SliceCtrlFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        SliceCtrlFn { bs, sm_codec, identity: identity_of(oid::SLICE_CTRL, sm_codec) }
    }
}

impl RanFunction for SliceCtrlFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, self.sm_codec)
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        let ctrl_msg = SliceCtrl::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        let mut sim = self.bs.sim.lock().expect("lock poisoned");
        // Admission control happens inside the scheduler — conflict-free
        // operations are the SM's responsibility (paper §4.1.2).
        sim.cells[self.bs.cell]
            .apply_slice_ctrl(&ctrl_msg)
            .map_err(|_| Cause::Ric(RicCause::FunctionResourceLimit))?;
        Ok(Some(Bytes::from_static(b"ok")))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let ind: SliceStatsInd = {
            let mut sim = self.bs.sim.lock().expect("lock poisoned");
            sim.cells[self.bs.cell].slice_stats()
        };
        for sub in due.iter().map(|s| s.info()) {
            // Partition: only associations of exposed UEs.
            let filtered = SliceStatsInd {
                tstamp_ms: ind.tstamp_ms,
                algo: ind.algo,
                slices: ind.slices.clone(),
                ue_assoc: ind
                    .ue_assoc
                    .iter()
                    .filter(|(rnti, _)| ctx.ue_exposed(sub.ctrl, *rnti))
                    .copied()
                    .collect(),
            };
            let msg = Bytes::from(filtered.encode(self.sm_codec));
            ctx.send_indication(sub, None, Bytes::new(), msg);
        }
    }
}

/// Traffic control RAN function (TC SM): applies TC configuration to one
/// bearer's TC sublayer and reports per-queue statistics.
pub struct TcCtrlFn {
    bs: SimBs,
    sm_codec: SmCodec,
    identity: RanFunctionItem,
}

impl TcCtrlFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        TcCtrlFn { bs, sm_codec, identity: identity_of(oid::TC_CTRL, sm_codec) }
    }
}

impl RanFunction for TcCtrlFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        let admission = Admission::report(req, self.sm_codec)?;
        // The action definition addresses the bearer to watch.
        let def = req
            .actions
            .first()
            .and_then(|a| a.definition.as_ref())
            .ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        let bearer = BearerAddr::decode(def).ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        Ok(admission.with_state(bearer))
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        let bearer =
            BearerAddr::decode(&req.header).ok_or(Cause::Ric(RicCause::ControlMessageInvalid))?;
        let ctrl_msg = TcCtrl::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        let mut sim = self.bs.sim.lock().expect("lock poisoned");
        sim.cells[self.bs.cell]
            .apply_tc_ctrl(bearer.rnti, bearer.drb, &ctrl_msg)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        Ok(Some(Bytes::from_static(b"ok")))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
        for sub in due.iter_mut() {
            let (sub, bearer) = sub.parts::<BearerAddr>();
            let ind: Option<TcStatsInd> = {
                let mut sim = self.bs.sim.lock().expect("lock poisoned");
                sim.cells[self.bs.cell].tc_stats(bearer.rnti, bearer.drb)
            };
            if let Some(ind) = ind {
                let msg = Bytes::from(ind.encode(self.sm_codec));
                ctx.send_indication(sub, None, bearer.encode(), msg);
            }
        }
    }
}

/// RRC event RAN function: forwards UE attach/detach events to subscribers.
pub struct RrcEventFn {
    bs: SimBs,
    sm_codec: SmCodec,
    identity: RanFunctionItem,
}

impl RrcEventFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        RrcEventFn { bs, sm_codec, identity: identity_of(oid::RRC_EVENT, sm_codec) }
    }
}

/// Baseline for one KPM subscription's delta computations: the per-UE
/// cumulative counters plus the cell's handover counter.
struct KpmBaseline {
    ues: Vec<flexric_ransim::cell::KpmUeCounters>,
    ho_total: u64,
}

/// KPM RAN function: computes 3GPP-style measurements from the cell's
/// cumulative counters at the subscription's granularity period.
pub struct KpmFn {
    bs: SimBs,
    sm_codec: SmCodec,
    identity: RanFunctionItem,
}

impl KpmFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        KpmFn { bs, sm_codec, identity: identity_of(oid::KPM, sm_codec) }
    }

    fn baseline(&self) -> KpmBaseline {
        let sim = self.bs.sim.lock().expect("lock poisoned");
        let cell = &sim.cells[self.bs.cell];
        KpmBaseline { ues: cell.kpm_counters(), ho_total: cell.ho_in_total + cell.ho_out_total }
    }

    fn compute(
        def: &KpmActionDef,
        base: &KpmBaseline,
        curb: &KpmBaseline,
        now_ms: u64,
    ) -> KpmReport {
        let (prev, cur) = (&base.ues[..], &curb.ues[..]);
        let period = def.granularity_ms.max(1) as u64;
        let mut records = Vec::new();
        let prev_of = |rnti: u16| prev.iter().find(|c| c.rnti == rnti);
        for name in &def.measurements {
            match name.as_str() {
                kpm::meas::DRB_UE_THP_DL => {
                    for c in cur {
                        if def.ue_filter.is_some_and(|u| u != c.rnti) {
                            continue;
                        }
                        let before = prev_of(c.rnti).map(|p| p.dl_bytes_total).unwrap_or(0);
                        // Saturating: a UE handed into this cell carries
                        // counters from its previous serving cell.
                        let kbps = c.dl_bytes_total.saturating_sub(before) * 8 / period;
                        records.push(KpmRecord {
                            name: name.clone(),
                            rnti: Some(c.rnti),
                            value: kbps,
                        });
                    }
                }
                kpm::meas::RRU_PRB_TOT_DL => {
                    let before: u64 = prev.iter().map(|p| p.dl_prbs_total).sum();
                    let total: u64 = cur.iter().map(|c| c.dl_prbs_total).sum();
                    records.push(KpmRecord {
                        name: name.clone(),
                        rnti: None,
                        // Saturating: handovers move cumulative counters
                        // between cells mid-subscription.
                        value: total.saturating_sub(before),
                    });
                }
                kpm::meas::DRB_RLC_SDU_DELAY_DL => {
                    for c in cur {
                        if def.ue_filter.is_some_and(|u| u != c.rnti) {
                            continue;
                        }
                        records.push(KpmRecord {
                            name: name.clone(),
                            rnti: Some(c.rnti),
                            value: c.rlc_sojourn_us_avg,
                        });
                    }
                }
                kpm::meas::DRB_PDCP_SDU_VOLUME_DL => {
                    let before: u64 = prev.iter().map(|p| p.pdcp_tx_aggr).sum();
                    let total: u64 = cur.iter().map(|c| c.pdcp_tx_aggr).sum();
                    records.push(KpmRecord {
                        name: name.clone(),
                        rnti: None,
                        value: total.saturating_sub(before),
                    });
                }
                kpm::meas::RRC_CONN_MEAN => {
                    records.push(KpmRecord {
                        name: name.clone(),
                        rnti: None,
                        value: cur.len() as u64,
                    });
                }
                kpm::meas::HO_EXE_TOTAL => {
                    records.push(KpmRecord {
                        name: name.clone(),
                        rnti: None,
                        value: curb.ho_total.saturating_sub(base.ho_total),
                    });
                }
                _ => {} // unknown measurements are skipped, per KPM practice
            }
        }
        KpmReport { tstamp_ms: now_ms, granularity_ms: def.granularity_ms, records }
    }
}

impl RanFunction for KpmFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        let def = req
            .actions
            .first()
            .and_then(|a| a.definition.as_ref())
            .ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        let def = KpmActionDef::decode(self.sm_codec, def)
            .map_err(|_| Cause::Ric(RicCause::ActionNotSupported))?;
        // The action definition's granularity is the report period; what
        // is kept with the subscription is the definition and the counters
        // its next report is measured against.
        let period = ReportTrigger::every_ms(def.granularity_ms);
        Ok(Admission::periodic(period).with_state((def, self.baseline())))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
        let now = ctx.now_ms;
        for sub in due.iter_mut() {
            let (sub, (def, base)) = sub.parts::<(KpmActionDef, KpmBaseline)>();
            let cur = self.baseline();
            let mut report = Self::compute(def, base, &cur, now);
            *base = cur;
            // KPM is UE-agnostic of controllers only through the filter;
            // respect UE exposure for additional controllers.
            if sub.ctrl != 0 {
                report
                    .records
                    .retain(|rec| rec.rnti.map(|u| ctx.ue_exposed(sub.ctrl, u)).unwrap_or(true));
            }
            let msg = Bytes::from(report.encode(self.sm_codec));
            ctx.send_indication(sub, None, Bytes::new(), msg);
        }
    }
}

impl RanFunction for RrcEventFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Ok(Admission::on_event())
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        // Connection management: handover / release (paper §1's "user
        // associations and handovers can be controlled […] through xApps").
        let cmd = RrcCtrl::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        let mut sim = self.bs.sim.lock().expect("lock poisoned");
        match cmd {
            RrcCtrl::Handover { rnti, target_cell } => sim
                .handover(rnti, self.bs.cell, target_cell as usize)
                .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?,
            RrcCtrl::Release { rnti } => sim.detach_ue(self.bs.cell, rnti),
        }
        Ok(Some(Bytes::from_static(b"ok")))
    }
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        if ctx.subscribers().is_empty() {
            return;
        }
        let events = {
            let mut sim = self.bs.sim.lock().expect("lock poisoned");
            sim.cells[self.bs.cell].take_rrc_events()
        };
        if events.is_empty() {
            return;
        }
        let ind = RrcEventInd { tstamp_ms: ctx.now_ms, events };
        // RRC events are visible to every subscribed controller: the
        // *controller* decides UE-to-controller association from them
        // (paper Fig. 4), so withholding them would deadlock setup.  One
        // SM encode here, one E2AP encode per request-id group at flush.
        let msg = Bytes::from(ind.encode(self.sm_codec));
        let subs = ctx.subscribers().iter().map(|s| s.info());
        ctx.send_indication_multi(subs, None, Bytes::new(), msg);
    }
}

/// Hello-world RAN function: answers a ping control message with a pong
/// indication carrying the same payload (paper §5.2).
pub struct HwFn {
    sm_codec: SmCodec,
    identity: RanFunctionItem,
}

impl HwFn {
    /// Creates the ping responder.
    pub fn new(sm_codec: SmCodec) -> Self {
        HwFn { sm_codec, identity: identity_of(oid::HW, sm_codec) }
    }
}

impl RanFunction for HwFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Ok(Admission::on_event())
    }
    fn on_control(
        &mut self,
        ctx: &mut AgentCtx,
        ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        let ping = HwPing::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        // Respond with an indication on the same request id, as the
        // paper's modified HW SM does.
        let sub = SubscriptionInfo {
            ctrl,
            req_id: req.req_id,
            ran_function: req.ran_function,
            action: flexric_e2ap::RicActionId(0),
        };
        let pong = Bytes::from(ping.encode(self.sm_codec));
        ctx.send_indication(&sub, Some(ping.seq), Bytes::new(), pong);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bearer_addr_roundtrip() {
        for (rnti, drb) in [(0u16, 0u8), (0x4601, 1), (u16::MAX, u8::MAX)] {
            let addr = BearerAddr { rnti, drb };
            assert_eq!(BearerAddr::decode(&addr.encode()), Some(addr));
        }
        assert_eq!(BearerAddr::decode(&[1, 2]), None);
        assert_eq!(BearerAddr::decode(&[1, 2, 3, 4]), None);
    }
}
