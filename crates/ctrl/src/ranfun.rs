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

use flexric::agent::{AgentCtx, CtrlId, PeriodicSubs, RanFunction, SubscriptionInfo};
use flexric::report::ReportSender;
use flexric_e2ap::{
    Cause, FnVersion, RanFunctionId, RicCause, RicControlRequest, RicRequestId,
    RicSubscriptionRequest,
};
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
    ReportTrigger, SmCodec, SmDescriptor, SmPayload,
};

/// The registry descriptor of a bundled SM: the single source of function
/// id, OID, version, and funcdef for every pre-defined RAN function here.
fn desc_of(oid: &str) -> Arc<SmDescriptor> {
    flexric_sm::registry::global().latest(oid).expect("bundled SM descriptor")
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
            desc: Arc<SmDescriptor>,
            subs: PeriodicSubs,
            sender: ReportSender<$ind>,
        }

        impl $name {
            /// Creates the function over a simulated base station.
            pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
                Self {
                    bs,
                    sm_codec,
                    desc: desc_of($oid),
                    subs: PeriodicSubs::new(),
                    sender: ReportSender::new(sm_codec),
                }
            }
        }

        impl RanFunction for $name {
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
                if let Ok(t) = ReportTrigger::decode(self.sm_codec, &sub.trigger) {
                    self.sender.reset(sub, &t);
                }
                Ok(())
            }
            fn on_subscription_update(
                &mut self,
                ctx: &mut AgentCtx,
                sub: &SubscriptionInfo,
                _req: &RicSubscriptionRequest,
            ) -> Result<(), Cause> {
                // Server-driven retune: new period takes effect without a
                // resubscribe.  Period-only changes keep the delta stream;
                // identical-trigger retunes (resync requests) and mode
                // changes force a keyframe.
                let t = self.subs.retune(sub, self.sm_codec, ctx.now_ms)?;
                self.sender.retune(sub, &t);
                Ok(())
            }
            fn on_subscription_delete(
                &mut self,
                _ctx: &mut AgentCtx,
                ctrl: CtrlId,
                req_id: RicRequestId,
            ) {
                self.subs.remove(ctrl, req_id);
                self.sender.delete(ctrl, req_id);
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
                self.subs.for_due(ctx.now_ms, |sub, t| due.push((sub.clone(), t.clone())));
                if due.is_empty() {
                    return;
                }
                // One snapshot per tick, shared by all due subscriptions;
                // the sender applies the per-subscription report mode
                // (full / delta / suppressed) to the filtered view.
                let ind: $ind = {
                    let mut sim = self.bs.sim.lock().expect("lock poisoned");
                    sim.cells[self.bs.cell].$snapshot()
                };
                for (sub, trigger) in due {
                    let filtered = $filter(&ind, ctx, &sub);
                    self.sender.send(ctx, &sub, &trigger, &filtered, None, Bytes::new());
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
    desc: Arc<SmDescriptor>,
    subs: PeriodicSubs,
}

impl SliceCtrlFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        SliceCtrlFn { bs, sm_codec, desc: desc_of(oid::SLICE_CTRL), subs: PeriodicSubs::new() }
    }
}

impl RanFunction for SliceCtrlFn {
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
        self.subs.admit(sub, self.sm_codec, ctx.now_ms)
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.remove(ctrl, req_id);
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
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        if self.subs.is_empty() {
            return;
        }
        let mut due: Vec<SubscriptionInfo> = Vec::new();
        self.subs.for_due(ctx.now_ms, |sub, _| due.push(sub.clone()));
        if due.is_empty() {
            return;
        }
        let ind: SliceStatsInd = {
            let mut sim = self.bs.sim.lock().expect("lock poisoned");
            sim.cells[self.bs.cell].slice_stats()
        };
        for sub in due {
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
            ctx.send_indication(&sub, None, Bytes::new(), msg);
        }
    }
}

/// Traffic control RAN function (TC SM): applies TC configuration to one
/// bearer's TC sublayer and reports per-queue statistics.
pub struct TcCtrlFn {
    bs: SimBs,
    sm_codec: SmCodec,
    desc: Arc<SmDescriptor>,
    /// Subscriptions with the bearer each one watches.
    subs: Vec<(SubscriptionInfo, BearerAddr, u32, u64)>, // (sub, bearer, period, next_due)
}

impl TcCtrlFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        TcCtrlFn { bs, sm_codec, desc: desc_of(oid::TC_CTRL), subs: Vec::new() }
    }
}

impl RanFunction for TcCtrlFn {
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
        _ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        let trigger = flexric_sm::ReportTrigger::decode(self.sm_codec, &sub.trigger)
            .map_err(|_| Cause::Ric(RicCause::UnsupportedEventTrigger))?;
        // The action definition addresses the bearer to watch.
        let def = req
            .actions
            .first()
            .and_then(|a| a.definition.as_ref())
            .ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        let bearer = BearerAddr::decode(def).ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        self.subs.push((sub.clone(), bearer, trigger.period_ms.max(1), 0));
        Ok(())
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.retain(|(s, _, _, _)| !(s.ctrl == ctrl && s.req_id == req_id));
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
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        let now = ctx.now_ms;
        for i in 0..self.subs.len() {
            if now < self.subs[i].3 {
                continue;
            }
            let (sub, bearer, period) = (self.subs[i].0.clone(), self.subs[i].1, self.subs[i].2);
            self.subs[i].3 = now + period as u64;
            let ind: Option<TcStatsInd> = {
                let mut sim = self.bs.sim.lock().expect("lock poisoned");
                sim.cells[self.bs.cell].tc_stats(bearer.rnti, bearer.drb)
            };
            if let Some(ind) = ind {
                let msg = Bytes::from(ind.encode(self.sm_codec));
                ctx.send_indication(&sub, None, bearer.encode(), msg);
            }
        }
    }
}

/// RRC event RAN function: forwards UE attach/detach events to subscribers.
pub struct RrcEventFn {
    bs: SimBs,
    sm_codec: SmCodec,
    desc: Arc<SmDescriptor>,
    subs: Vec<SubscriptionInfo>,
}

impl RrcEventFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        RrcEventFn { bs, sm_codec, desc: desc_of(oid::RRC_EVENT), subs: Vec::new() }
    }
}

/// KPM RAN function: computes 3GPP-style measurements from the cell's
/// cumulative counters at the subscription's granularity period.
/// Baseline for one KPM subscription's delta computations: the per-UE
/// cumulative counters plus the cell's handover counter.
struct KpmBaseline {
    ues: Vec<flexric_ransim::cell::KpmUeCounters>,
    ho_total: u64,
}

pub struct KpmFn {
    bs: SimBs,
    sm_codec: SmCodec,
    desc: Arc<SmDescriptor>,
    /// (sub, action def, last counters, next due ms)
    subs: Vec<(SubscriptionInfo, KpmActionDef, KpmBaseline, u64)>,
}

impl KpmFn {
    /// Creates the function over a simulated base station.
    pub fn new(bs: SimBs, sm_codec: SmCodec) -> Self {
        KpmFn { bs, sm_codec, desc: desc_of(oid::KPM), subs: Vec::new() }
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
        _ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        let def = req
            .actions
            .first()
            .and_then(|a| a.definition.as_ref())
            .ok_or(Cause::Ric(RicCause::ActionNotSupported))?;
        let def = KpmActionDef::decode(self.sm_codec, def)
            .map_err(|_| Cause::Ric(RicCause::ActionNotSupported))?;
        let baseline = self.baseline();
        self.subs.push((sub.clone(), def, baseline, 0));
        Ok(())
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.retain(|(s, _, _, _)| !(s.ctrl == ctrl && s.req_id == req_id));
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
        let now = ctx.now_ms;
        for i in 0..self.subs.len() {
            if now < self.subs[i].3 {
                continue;
            }
            let cur = self.baseline();
            let (sub, def) = (self.subs[i].0.clone(), self.subs[i].1.clone());
            let report = Self::compute(&def, &self.subs[i].2, &cur, now);
            self.subs[i].2 = cur;
            self.subs[i].3 = now + def.granularity_ms.max(1) as u64;
            let msg = Bytes::from(report.encode(self.sm_codec));
            // KPM is UE-agnostic of controllers only through the filter;
            // respect UE exposure for additional controllers.
            let filtered = if sub.ctrl == 0 {
                msg
            } else {
                let mut r = report.clone();
                r.records
                    .retain(|rec| rec.rnti.map(|u| ctx.ue_exposed(sub.ctrl, u)).unwrap_or(true));
                Bytes::from(r.encode(self.sm_codec))
            };
            ctx.send_indication(&sub, None, Bytes::new(), filtered);
        }
    }
}

impl RanFunction for RrcEventFn {
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
        _ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        if self.subs.iter().any(|s| s.ctrl == sub.ctrl && s.req_id == sub.req_id) {
            return Err(Cause::Ric(RicCause::DuplicateAction));
        }
        self.subs.push(sub.clone());
        Ok(())
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.retain(|s| !(s.ctrl == ctrl && s.req_id == req_id));
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
        if self.subs.is_empty() {
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
        ctx.send_indication_multi(self.subs.iter(), None, Bytes::new(), msg);
    }
}

/// Hello-world RAN function: answers a ping control message with a pong
/// indication carrying the same payload (paper §5.2).
pub struct HwFn {
    sm_codec: SmCodec,
    desc: Arc<SmDescriptor>,
}

impl HwFn {
    /// Creates the ping responder.
    pub fn new(sm_codec: SmCodec) -> Self {
        HwFn { sm_codec, desc: desc_of(oid::HW) }
    }
}

impl RanFunction for HwFn {
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
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        Ok(())
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, _ctrl: CtrlId, _req: RicRequestId) {}
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
            trigger: Bytes::new(),
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
