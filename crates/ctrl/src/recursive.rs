//! The recursive network-virtualization controller (paper §6.2, Fig. 14a,
//! Appendix B).
//!
//! Multiplexes the virtual RANs of multiple tenants (operators) onto a
//! shared infrastructure: southbound it is a normal FlexRIC controller
//! terminating the real agents; northbound it *reuses the agent library*
//! to expose an E2 interface to each tenant's own controller — the
//! "recursive" property.  It is the SDK's bridge ([`flexric::relay`]) with
//! a transform of its own, the *virtualizer*, on one loop thread.
//!
//! * **SC SM virtualization** — tenant slice configurations are expressed
//!   over a virtual resource of 100 % and mapped to physical resources by
//!   the tenant's SLA share `q` (Appendix B): a virtual capacity `c` maps
//!   to physical `c·q`; a virtual rate slice keeps its physical rate while
//!   its reference rate is scaled by `1/q`.  Admission control on the
//!   virtual representation guarantees no tenant can exceed its SLA,
//!   "effectively avoiding any conflicts".
//! * **Slice-ID remapping** — virtual ids (0–9) map into disjoint physical
//!   ranges per tenant, so tenants choose ids freely.
//! * **MAC statistics partitioning** — a tenant only sees UEs of its own
//!   PLMN, with physical slice ids translated back to virtual ones.
//!
//! A south node that sets up is sent every tenant's slices and UEs.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::agent::{
    control_answer, Admission, Agent, AgentConfig, AgentCtx, CtrlId, Due, RanFunction,
    SubscriptionInfo,
};
use flexric::relay::{Bridge, BridgeHandle, NorthId, Transform, Verdict};
use flexric::server::{AgentId, AgentInfo, IApp, IndicationRef, ServerApi, ServerConfig};
use flexric_e2ap::*;
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::slice::{
    SliceAlgo, SliceConf, SliceCtrl, SliceParams, SliceStatsInd, SliceStatus, UeSchedAlgo,
};
use flexric_sm::{oid, rf, RanFuncDef, ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

/// Highest virtual slice id a tenant may use.
pub const MAX_VIRT_SLICE_ID: u32 = 9;
/// Physical id space per tenant.
const TENANT_ID_SPACE: u32 = 100;
/// Virtual id of the implicit tenant default slice.
const DEFAULT_VID: u32 = 99;

/// Configuration of one tenant.
#[derive(Debug, Clone)]
pub struct TenantConf {
    /// Display name.
    pub name: String,
    /// The tenant's PLMN: its UEs are identified by it.
    pub plmn: (u16, u16),
    /// SLA: share of physical resources in milli-units (500 = 50 %).
    pub sla_milli: u32,
    /// The tenant controller's E2 listen address.
    pub ctrl_addr: TransportAddr,
}

/// Maps a tenant's virtual slice id to the physical id.
pub fn phys_slice_id(tenant: usize, vid: u32) -> u32 {
    tenant as u32 * TENANT_ID_SPACE + vid
}

/// Maps a physical slice id back to `(tenant, virtual id)`.
pub fn virt_slice_id(pid: u32) -> (usize, u32) {
    ((pid / TENANT_ID_SPACE) as usize, pid % TENANT_ID_SPACE)
}

/// Translates a tenant's virtual slice parameters into physical ones
/// according to the tenant's SLA `q` (Appendix B).
pub fn virt_to_phys_params(params: &SliceParams, sla_milli: u32) -> SliceParams {
    scale(params, sla_milli, 1000)
}

/// Translates physical parameters back into the tenant's virtual view.
pub fn phys_to_virt_params(params: &SliceParams, sla_milli: u32) -> SliceParams {
    scale(params, 1000, sla_milli)
}

/// `params` with shares and static ranges (coarse, PRB-granular) scaled by
/// `num / den`, and a rate's reference by `den / num`.
fn scale(params: &SliceParams, num: u32, den: u32) -> SliceParams {
    let by = |x: u64, num: u32, den: u32| x * num as u64 / den.max(1) as u64;
    match *params {
        SliceParams::NvsCapacity { share_milli } => {
            SliceParams::NvsCapacity { share_milli: by(share_milli.into(), num, den) as u32 }
        }
        SliceParams::NvsRate { rate_kbps, ref_kbps } => {
            SliceParams::NvsRate { rate_kbps, ref_kbps: by(ref_kbps.into(), den, num) as u32 }
        }
        SliceParams::StaticRb { lo, hi } => SliceParams::StaticRb {
            lo: by(lo.into(), num, den) as u16,
            hi: by(hi.into(), num, den) as u16,
        },
    }
}

/// The south node's latest statistics, which the north functions serve
/// per tenant.  Shared with them on the bridge's one loop thread.
#[derive(Default)]
struct Latest {
    mac: Option<MacStatsInd>,
    slice: Option<SliceStatsInd>,
}

// ---------------------------------------------------------------------------
// The virtualizer: the bridge's transform
// ---------------------------------------------------------------------------

/// Keeps the tenants' virtual networks, terminates the south node (the
/// first to set up: single-infrastructure virtualization) and takes the
/// tenants' slice controls.
struct Virtualizer {
    sm_codec: SmCodec,
    stats_period_ms: u32,
    tenants: Vec<TenantConf>,
    /// Virtual slice configurations per tenant, by virtual id.
    virt_slices: Vec<BTreeMap<u32, SliceConf>>,
    /// Every tenant UE seen: its tenant and the physical slice it is in.
    ues: BTreeMap<u16, (usize, u32)>,
    latest: Arc<Mutex<Latest>>,
    target: Option<AgentId>,
    /// What the target's subscriptions report, by request id.
    kinds: HashMap<RicRequestId, u16>,
    /// The UEs whose slice the target has been sent.
    placed: HashSet<u16>,
}

impl Virtualizer {
    fn new(tenants: Vec<TenantConf>, sm_codec: SmCodec, stats_period_ms: u32) -> Self {
        Virtualizer {
            sm_codec,
            stats_period_ms,
            virt_slices: vec![BTreeMap::new(); tenants.len()],
            tenants,
            ues: BTreeMap::new(),
            latest: Arc::default(),
            target: None,
            kinds: HashMap::new(),
            placed: HashSet::new(),
        }
    }

    /// Validates one tenant command and translates it into the southbound
    /// commands that carry it out.
    fn translate(&mut self, tenant: usize, ctrl: &SliceCtrl) -> Result<Vec<SliceCtrl>, Cause> {
        if tenant >= self.tenants.len() {
            return Err(Cause::Ric(RicCause::RequestIdUnknown));
        }
        match ctrl {
            SliceCtrl::SetAlgo { algo } => {
                // The virtual network is always NVS; accept a tenant's NVS
                // request as a no-op and reject anything else.
                if matches!(algo, SliceAlgo::Nvs | SliceAlgo::NvsNoSharing) {
                    Ok(vec![])
                } else {
                    Err(Cause::Ric(RicCause::ActionNotSupported))
                }
            }
            SliceCtrl::AddModSlices { slices } => {
                if slices.iter().any(|s| s.id > MAX_VIRT_SLICE_ID) {
                    return Err(Cause::Ric(RicCause::ControlMessageInvalid));
                }
                // Admission on the *virtual* representation: Σ ≤ 100 %.
                let mut budget: HashMap<u32, f64> =
                    self.virt_slices[tenant].values().map(|s| (s.id, s.params.share(0))).collect();
                budget.extend(slices.iter().map(|s| (s.id, s.params.share(0))));
                if budget.values().sum::<f64>() > 1.0 + 1e-9 {
                    return Err(Cause::Ric(RicCause::FunctionResourceLimit));
                }
                self.virt_slices[tenant].extend(slices.iter().map(|s| (s.id, s.clone())));
                // Re-emit the tenant's full physical batch (sub-slices +
                // shrunken default) so south admission stays balanced.
                Ok(vec![SliceCtrl::AddModSlices { slices: self.batch(tenant) }])
            }
            SliceCtrl::DelSlices { ids } => {
                if ids.iter().any(|vid| !self.virt_slices[tenant].contains_key(vid)) {
                    return Err(Cause::Ric(RicCause::RequestIdUnknown));
                }
                let pids: Vec<u32> = ids.iter().map(|v| phys_slice_id(tenant, *v)).collect();
                for vid in ids {
                    self.virt_slices[tenant].remove(vid);
                }
                // A UE of a deleted slice is replayed into the default.
                for (_, pid) in self.ues.values_mut().filter(|(_, pid)| pids.contains(pid)) {
                    *pid = phys_slice_id(tenant, DEFAULT_VID);
                }
                Ok(vec![
                    SliceCtrl::DelSlices { ids: pids },
                    // Return the freed budget to the tenant default.
                    SliceCtrl::AddModSlices { slices: self.batch(tenant) },
                ])
            }
            SliceCtrl::AssocUeSlice { assoc } => {
                // Verify the UEs belong to the tenant; remap ids.
                let mut phys = Vec::new();
                for (rnti, vid) in assoc {
                    if self.ues.get(rnti).map(|ue| ue.0) != Some(tenant) {
                        return Err(Cause::Ric(RicCause::RequestIdUnknown));
                    }
                    if *vid != DEFAULT_VID && !self.virt_slices[tenant].contains_key(vid) {
                        return Err(Cause::Ric(RicCause::ControlMessageInvalid));
                    }
                    phys.push((*rnti, phys_slice_id(tenant, *vid)));
                }
                for (rnti, pid) in &phys {
                    self.ues.insert(*rnti, (tenant, *pid));
                }
                Ok(vec![SliceCtrl::AssocUeSlice { assoc: phys }])
            }
        }
    }

    /// The full southbound slice batch of one tenant: every sub-slice
    /// translated per Appendix B, plus the tenant default slice holding the
    /// *remaining* SLA budget, so physical admission always balances.
    fn batch(&self, tenant: usize) -> Vec<SliceConf> {
        let conf = &self.tenants[tenant];
        let slices = self.virt_slices[tenant].values();
        let mut out: Vec<SliceConf> = slices
            .clone()
            .map(|s| SliceConf {
                id: phys_slice_id(tenant, s.id),
                label: format!("{}:{}", conf.name, s.label),
                params: virt_to_phys_params(&s.params, conf.sla_milli),
                ue_sched: s.ue_sched,
            })
            .collect();
        let used: f64 = slices.map(|s| s.params.share(0)).sum();
        let remaining_milli = ((1.0 - used).max(0.0) * conf.sla_milli as f64).round() as u32;
        out.push(SliceConf {
            id: phys_slice_id(tenant, DEFAULT_VID),
            label: format!("{}-default", conf.name),
            params: SliceParams::NvsCapacity { share_milli: remaining_milli },
            ue_sched: UeSchedAlgo::PropFair,
        });
        out
    }

    /// Sends `ctrl` to the target's slice function, asking for no
    /// acknowledgement.
    fn apply(&self, api: &mut ServerApi, ctrl: &SliceCtrl) {
        let f = |a| Some((a, api.randb().agent(a)?.function_by_oid(oid::SLICE_CTRL)?.id));
        let Some((agent, rf_id)) = self.target.and_then(f) else { return };
        let msg = Bytes::from(ctrl.encode(self.sm_codec));
        api.control(agent, rf_id, Bytes::new(), msg, Some(ControlAckRequest::NAck));
    }
}

impl IApp for Virtualizer {
    /// The target subscribes to MAC and slice statistics, runs NVS, and
    /// gets every tenant's slices.
    fn on_agent_connected(&mut self, api: &mut ServerApi, node: &AgentInfo) {
        if self.target.is_some() {
            return;
        }
        self.target = Some(node.id);
        let trigger =
            Bytes::from(ReportTrigger::every_ms(self.stats_period_ms).encode(self.sm_codec));
        for (oid, kind) in [(oid::MAC_STATS, rf::MAC_STATS), (oid::SLICE_CTRL, rf::SLICE_CTRL)] {
            if let Some(f) = node.function_by_oid(oid) {
                self.kinds.insert(api.subscribe_report(node.id, f.id, trigger.clone()), kind);
            }
        }
        let slices = (0..self.tenants.len()).flat_map(|t| self.batch(t)).collect();
        self.apply(api, &SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs });
        self.apply(api, &SliceCtrl::AddModSlices { slices });
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        if self.target == Some(agent) {
            self.target = None;
            self.kinds.clear();
            self.placed.clear();
        }
    }

    fn on_indication(&mut self, api: &mut ServerApi, _agent: AgentId, ind: &IndicationRef) {
        let Ok((_, msg)) = ind.sm_payload() else { return };
        let mut latest = self.latest.lock().expect("lock poisoned");
        match self.kinds.get(&ind.req_id()) {
            Some(&rf::MAC_STATS) => {
                let Ok(stats) = MacStatsInd::decode(self.sm_codec, msg) else { return };
                // A tenant UE the node has not been told of goes to its
                // slice: the tenant default, unless the tenant chose one.
                let mut assoc = Vec::new();
                for ue in &stats.ues {
                    let plmn = (ue.plmn_mcc, ue.plmn_mnc);
                    let Some(t) = self.tenants.iter().position(|t| t.plmn == plmn) else {
                        continue;
                    };
                    if self.placed.insert(ue.rnti) {
                        let default = (t, phys_slice_id(t, DEFAULT_VID));
                        assoc.push((ue.rnti, self.ues.entry(ue.rnti).or_insert(default).1));
                    }
                }
                latest.mac = Some(stats);
                drop(latest);
                if !assoc.is_empty() {
                    self.apply(api, &SliceCtrl::AssocUeSlice { assoc });
                }
            }
            Some(&rf::SLICE_CTRL) => {
                if let Ok(stats) = SliceStatsInd::decode(self.sm_codec, msg) {
                    latest.slice = Some(stats);
                }
            }
            _ => {}
        }
    }
}

impl Transform for Virtualizer {
    /// Takes the slice controls of tenant `from.1` — admitted on its virtual
    /// network, translated, applied south; the rest is the north agent's.
    fn north(&mut self, api: &mut ServerApi, from: (NorthId, CtrlId), pdu: &E2apPdu) -> Verdict {
        let E2apPdu::RicControlRequest(req) = pdu else { return Verdict::Pass };
        if req.ran_function != RanFunctionId::new(rf::SLICE_CTRL) {
            return Verdict::Pass;
        }
        let cmd = SliceCtrl::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid));
        let outcome = cmd.and_then(|cmd| self.translate(from.1, &cmd)).map(|south| {
            south.iter().for_each(|c| self.apply(api, c));
            Some(Bytes::from_static(if south.is_empty() { b"noop" } else { b"ok" }))
        });
        Verdict::Taken(control_answer(req, outcome))
    }
}

// ---------------------------------------------------------------------------
// North side: virtual RAN functions exposed through the agent library
// ---------------------------------------------------------------------------

/// One of the north agent's virtual functions: MAC statistics partitioned
/// per tenant, or slice statistics scaled to each tenant's 100 % (whose
/// controls are the virtualizer's, [`Transform::north`]).
struct VirtFn {
    sm_codec: SmCodec,
    tenants: Vec<TenantConf>,
    latest: Arc<Mutex<Latest>>,
    identity: RanFunctionItem,
}

impl VirtFn {
    /// Tenant `tenant`'s MAC view: its own PLMN's UEs, under virtual slice
    /// ids.
    fn mac(&self, stats: &MacStatsInd, tenant: usize) -> MacStatsInd {
        let plmn = self.tenants[tenant].plmn;
        let ues = stats.ues.iter().filter(|u| (u.plmn_mcc, u.plmn_mnc) == plmn).map(|u| {
            let (t, vid) = virt_slice_id(u.slice_id);
            MacUeStats { slice_id: if t == tenant { vid } else { u32::MAX }, ..*u }
        });
        MacStatsInd { tstamp_ms: stats.tstamp_ms, cell_prbs: stats.cell_prbs, ues: ues.collect() }
    }

    /// Tenant `tenant`'s slice view: its own slices, shares scaled to its
    /// 100 % virtual resource.
    fn slices(&self, south: &SliceStatsInd, tenant: usize) -> SliceStatsInd {
        let sla_milli = self.tenants[tenant].sla_milli;
        let mine = |pid| Some(virt_slice_id(pid)).filter(|(t, _)| *t == tenant).map(|(_, v)| v);
        let slices = south.slices.iter().filter_map(|s| {
            let params = phys_to_virt_params(&s.conf.params, sla_milli);
            let conf = SliceConf { id: mine(s.conf.id)?, params, ..s.conf.clone() };
            Some(SliceStatus { conf, ..s.clone() })
        });
        let ue_assoc = south.ue_assoc.iter().filter_map(|&(rnti, pid)| Some((rnti, mine(pid)?)));
        let (slices, ue_assoc) = (slices.collect(), ue_assoc.collect());
        SliceStatsInd { tstamp_ms: south.tstamp_ms, algo: SliceAlgo::Nvs, slices, ue_assoc }
    }
}

impl RanFunction for VirtFn {
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
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let latest = self.latest.lock().expect("lock poisoned");
        // Controller i is tenant i.
        for sub in due.iter().map(|s| s.info()).filter(|s| s.ctrl < self.tenants.len()) {
            let msg = if self.identity.id == RanFunctionId::new(rf::MAC_STATS) {
                latest.mac.as_ref().map(|m| self.mac(m, sub.ctrl).encode(self.sm_codec))
            } else {
                latest.slice.as_ref().map(|s| self.slices(s, sub.ctrl).encode(self.sm_codec))
            };
            if let Some(msg) = msg {
                ctx.send_indication(sub, None, Bytes::new(), Bytes::from(msg));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

/// Whether `tenants` can share one cell: there are some, each with an SLA
/// share, together at most 100 %, no two under one PLMN.
fn sharable(tenants: &[TenantConf]) -> bool {
    let plmns: HashSet<(u16, u16)> = tenants.iter().map(|t| t.plmn).collect();
    let total: u64 = tenants.iter().map(|t| t.sla_milli as u64).sum();
    let shares = tenants.iter().all(|t| t.sla_milli > 0) && total <= 1000;
    !tenants.is_empty() && shares && plmns.len() == tenants.len()
}

/// The virtualization controller: a bridge whose own north agent dials
/// every tenant controller, run by one [`BridgeHandle`].
pub struct VirtController;

impl VirtController {
    /// The virtualization controller as a machine, for a driver of one's
    /// own; [`spawn`](Self::spawn) runs it.  Refuses (`InvalidInput`) no
    /// tenants, a tenant with no SLA share, SLA shares summing to over
    /// 100 %, and two tenants with one PLMN.
    ///
    /// * `south_cfg` — where the real agents connect;
    /// * `node` — the E2 node identity exposed to tenants (the abstracted
    ///   topology of Fig. 14b: the whole deployment appears as one node);
    /// * `tenants` — the tenant controllers, in the order the north agent
    ///   is to add them (tenant *i* becomes its controller *i*).
    pub fn bridge(
        south_cfg: &ServerConfig,
        node: GlobalE2NodeId,
        tenants: Vec<TenantConf>,
        sm_codec: SmCodec,
        stats_period_ms: u32,
    ) -> io::Result<Bridge> {
        if !sharable(&tenants) {
            let why = "tenants need an SLA share each, 100 % at most in all, and a PLMN each";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let mut acfg = AgentConfig::new(node, tenants[0].ctrl_addr.clone());
        acfg.controllers = tenants.iter().map(|t| t.ctrl_addr.clone()).collect();
        acfg.codec = south_cfg.codec;
        let virtualizer = Virtualizer::new(tenants, sm_codec, stats_period_ms);
        // A virtual function is advertised under a bundled SM's id and OID
        // with a definition of the virtualization layer's own.
        let identity = |id: u16, oid: &str, def: RanFuncDef| {
            RanFunctionItem::new(id, oid, Bytes::from(def.encode(sm_codec)))
        };
        let mac = RanFuncDef::simple("V-MAC-STATS", "tenant-partitioned MAC statistics");
        let slice = RanFuncDef::simple("V-SLICE-CTRL", "virtualized slice control (Appendix B)");
        let function = |identity| {
            let (tenants, latest) = (virtualizer.tenants.clone(), virtualizer.latest.clone());
            Box::new(VirtFn { sm_codec, tenants, latest, identity }) as Box<dyn RanFunction>
        };
        let functions = vec![
            function(identity(rf::MAC_STATS, oid::MAC_STATS, mac)),
            function(identity(rf::SLICE_CTRL, oid::SLICE_CTRL, slice)),
        ];
        Ok(Bridge::new(south_cfg, virtualizer, Some(Agent::new(acfg, functions))))
    }

    /// Spawns the virtualization controller on one loop, on
    /// `south_cfg.tick_ms`'s clock: binds `south_cfg`'s listeners, then
    /// sets up with every tenant controller in turn.  Fails as
    /// [`bridge`](Self::bridge) refuses, or if a tenant controller cannot
    /// be set up.
    pub fn spawn(
        south_cfg: ServerConfig,
        node: GlobalE2NodeId,
        tenants: Vec<TenantConf>,
        sm_codec: SmCodec,
        stats_period_ms: u32,
    ) -> io::Result<BridgeHandle> {
        Self::bridge(&south_cfg, node, tenants, sm_codec, stats_period_ms)?.spawn(&south_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, mcc: u16, sla: u32) -> TenantConf {
        TenantConf {
            name: name.into(),
            plmn: (mcc, 1),
            sla_milli: sla,
            ctrl_addr: TransportAddr::Mem("unused".into()),
        }
    }

    fn virtualizer(tenants: Vec<TenantConf>) -> Virtualizer {
        Virtualizer::new(tenants, SmCodec::Flatb, 10)
    }

    #[test]
    fn id_mapping_is_bijective_per_tenant() {
        for t in 0..4usize {
            for vid in 0..=MAX_VIRT_SLICE_ID {
                let pid = phys_slice_id(t, vid);
                assert_eq!(virt_slice_id(pid), (t, vid));
            }
        }
        // Disjoint ranges.
        assert_ne!(phys_slice_id(0, 9), phys_slice_id(1, 9));
    }

    #[test]
    fn appendix_b_capacity_scaling() {
        // 66 % virtual of a 50 % SLA = 33 % physical.
        let p = virt_to_phys_params(&SliceParams::NvsCapacity { share_milli: 660 }, 500);
        assert_eq!(p, SliceParams::NvsCapacity { share_milli: 330 });
        // Round trip back to virtual.
        assert_eq!(phys_to_virt_params(&p, 500), SliceParams::NvsCapacity { share_milli: 660 });
    }

    #[test]
    fn appendix_b_rate_scaling_matches_paper_example() {
        // Paper Appendix B: 100 Mbps BS shared 50/50; a tenant's 5 Mbps
        // slice over reference 50 Mbps (10 %) maps to 5 Mbps over
        // reference 100 Mbps (5 % physical).
        let virt = SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 50_000 };
        let phys = virt_to_phys_params(&virt, 500);
        assert_eq!(phys, SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 100_000 });
        assert!((phys.share(0) - 0.05).abs() < 1e-9);
        assert_eq!(phys_to_virt_params(&phys, 500), virt);
    }

    #[test]
    fn admission_on_virtual_representation() {
        let mut virt = virtualizer(vec![tenant("a", 1, 500)]);
        let ok = SliceCtrl::AddModSlices {
            slices: vec![
                SliceConf {
                    id: 0,
                    label: "x".into(),
                    params: SliceParams::NvsCapacity { share_milli: 660 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
                SliceConf {
                    id: 1,
                    label: "y".into(),
                    params: SliceParams::NvsCapacity { share_milli: 340 },
                    ue_sched: UeSchedAlgo::PropFair,
                },
            ],
        };
        let south = virt.translate(0, &ok).unwrap();
        assert_eq!(south.len(), 1);
        match &south[0] {
            SliceCtrl::AddModSlices { slices } => {
                // Two sub-slices plus the (now empty) tenant default.
                assert_eq!(slices.len(), 3);
                assert_eq!(slices[0].id, phys_slice_id(0, 0));
                // Physical shares: 33 % and 17 % of the cell.
                assert_eq!(slices[0].params, SliceParams::NvsCapacity { share_milli: 330 });
                assert_eq!(slices[1].params, SliceParams::NvsCapacity { share_milli: 170 });
                // Default absorbed the remaining 0 % of the 50 % SLA.
                assert_eq!(slices[2].id, phys_slice_id(0, DEFAULT_VID));
                assert_eq!(slices[2].params, SliceParams::NvsCapacity { share_milli: 0 });
            }
            _ => panic!("wrong translation"),
        }
        // Tenant cannot exceed its virtual 100 %.
        let over = SliceCtrl::AddModSlices {
            slices: vec![SliceConf {
                id: 2,
                label: "z".into(),
                params: SliceParams::NvsCapacity { share_milli: 100 },
                ue_sched: UeSchedAlgo::PropFair,
            }],
        };
        assert_eq!(virt.translate(0, &over), Err(Cause::Ric(RicCause::FunctionResourceLimit)));
    }

    #[test]
    fn virtual_id_range_enforced() {
        let mut virt = virtualizer(vec![tenant("a", 1, 500)]);
        let bad = SliceCtrl::AddModSlices {
            slices: vec![SliceConf {
                id: 10,
                label: "out of range".into(),
                params: SliceParams::NvsCapacity { share_milli: 100 },
                ue_sched: UeSchedAlgo::PropFair,
            }],
        };
        assert_eq!(virt.translate(0, &bad), Err(Cause::Ric(RicCause::ControlMessageInvalid)));
    }

    #[test]
    fn assoc_requires_tenant_ownership() {
        let mut virt = virtualizer(vec![tenant("a", 1, 500), tenant("b", 2, 500)]);
        // The south node has shown a UE of each tenant.
        virt.ues.insert(0x10, (0, phys_slice_id(0, DEFAULT_VID)));
        virt.ues.insert(0x20, (1, phys_slice_id(1, DEFAULT_VID)));
        // Tenant 0 may move its own UE to its default slice…
        let ok = SliceCtrl::AssocUeSlice { assoc: vec![(0x10, DEFAULT_VID)] };
        let south = virt.translate(0, &ok).unwrap();
        assert_eq!(
            south,
            vec![SliceCtrl::AssocUeSlice { assoc: vec![(0x10, phys_slice_id(0, DEFAULT_VID))] }]
        );
        // …but not tenant 1's UE.
        let bad = SliceCtrl::AssocUeSlice { assoc: vec![(0x20, DEFAULT_VID)] };
        assert!(virt.translate(0, &bad).is_err());
        // Nor an association to a slice it never created.
        let bad2 = SliceCtrl::AssocUeSlice { assoc: vec![(0x10, 3)] };
        assert!(virt.translate(0, &bad2).is_err());
    }

    #[test]
    fn set_algo_is_noop_or_rejected() {
        let mut virt = virtualizer(vec![tenant("a", 1, 500)]);
        assert_eq!(virt.translate(0, &SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }), Ok(vec![]));
        assert!(virt.translate(0, &SliceCtrl::SetAlgo { algo: SliceAlgo::Static }).is_err());
    }

    #[test]
    fn delete_unknown_slice_rejected() {
        let mut virt = virtualizer(vec![tenant("a", 1, 500)]);
        assert!(virt.translate(0, &SliceCtrl::DelSlices { ids: vec![0] }).is_err());
    }

    /// `spawn` refuses a tenant set that cannot share one cell before it
    /// binds or dials anything.
    fn refused(tenants: Vec<TenantConf>) -> bool {
        let at = TransportAddr::Mem("virt-refused".into());
        let cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 20), at);
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99);
        let spawned = VirtController::spawn(cfg, node, tenants, SmCodec::Flatb, 10);
        matches!(spawned, Err(e) if e.kind() == io::ErrorKind::InvalidInput)
    }

    #[test]
    fn no_tenants_are_refused() {
        assert!(refused(vec![]));
    }

    #[test]
    fn a_tenant_without_an_sla_share_is_refused() {
        assert!(refused(vec![tenant("a", 1, 500), tenant("b", 2, 0)]));
    }

    #[test]
    fn sla_shares_over_the_whole_cell_are_refused() {
        assert!(refused(vec![tenant("a", 1, 600), tenant("b", 2, 500)]));
        assert!(sharable(&[tenant("a", 1, 500), tenant("b", 2, 500)]), "100 % is fine");
    }

    #[test]
    fn two_tenants_with_one_plmn_are_refused() {
        assert!(refused(vec![tenant("a", 1, 300), tenant("b", 1, 300)]));
    }

    /// A sharable tenant set whose controller is not there: the spawn
    /// binds, dials, and fails on the setup.
    #[test]
    fn a_tenant_controller_that_cannot_be_set_up_fails_the_spawn() {
        let at = TransportAddr::Mem("virt-no-tenant".into());
        let cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 20), at.clone());
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99);
        let spawned =
            VirtController::spawn(cfg, node, vec![tenant("a", 1, 500)], SmCodec::Flatb, 10);
        assert!(matches!(spawned, Err(e) if e.kind() != io::ErrorKind::InvalidInput));
        // The failed spawn stopped its loop and freed its south address.
        assert!(flexric_transport::listen(&at).is_ok());
    }

    // -- Over mem: a south node that comes back -----------------------------

    use std::time::Duration;

    use flexric::agent::AgentHandle;
    use flexric::server::Server;

    use crate::ranfun::identity_of;
    use crate::slicing::{self, SliceApp};
    use crate::test_util::wait_until;

    /// A south node's MAC function: every report lists the same four UEs,
    /// two of each tenant.
    struct StubMac(RanFunctionItem);

    impl RanFunction for StubMac {
        fn identity(&self) -> &RanFunctionItem {
            &self.0
        }
        fn on_subscription(
            &mut self,
            _ctx: &mut AgentCtx,
            _sub: &SubscriptionInfo,
            req: &RicSubscriptionRequest,
        ) -> Result<Admission, Cause> {
            Admission::report(req, SmCodec::Flatb)
        }
        fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
            let ue =
                |rnti, plmn_mcc| MacUeStats { rnti, plmn_mcc, plmn_mnc: 1, ..Default::default() };
            let ues = vec![ue(0x11, 1), ue(0x12, 1), ue(0x21, 2), ue(0x22, 2)];
            let ind = MacStatsInd { tstamp_ms: ctx.now_ms, cell_prbs: 50, ues };
            let msg = Bytes::from(ind.encode(SmCodec::Flatb));
            for sub in due.iter() {
                ctx.send_indication(sub.info(), None, Bytes::new(), msg.clone());
            }
        }
    }

    /// A south node's slice function: records every command it is sent.
    struct StubSlice(RanFunctionItem, Arc<Mutex<Vec<SliceCtrl>>>);

    impl RanFunction for StubSlice {
        fn identity(&self) -> &RanFunctionItem {
            &self.0
        }
        fn on_subscription(
            &mut self,
            _ctx: &mut AgentCtx,
            _sub: &SubscriptionInfo,
            req: &RicSubscriptionRequest,
        ) -> Result<Admission, Cause> {
            Admission::report(req, SmCodec::Flatb)
        }
        fn on_control(
            &mut self,
            _ctx: &mut AgentCtx,
            _ctrl: CtrlId,
            req: &RicControlRequest,
        ) -> Result<Option<Bytes>, Cause> {
            let cmd = SliceCtrl::decode(SmCodec::Flatb, &req.message)
                .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
            self.1.lock().unwrap().push(cmd);
            Ok(None)
        }
    }

    /// A south node with stub functions, below `south`; what its slice
    /// function is sent.
    fn stub_node(south: &TransportAddr) -> (AgentHandle, Arc<Mutex<Vec<SliceCtrl>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 1);
        let mut cfg = AgentConfig::new(node, south.clone());
        cfg.reconnect = None;
        let functions: Vec<Box<dyn RanFunction>> = vec![
            Box::new(StubMac(identity_of(oid::MAC_STATS, SmCodec::Flatb))),
            Box::new(StubSlice(identity_of(oid::SLICE_CTRL, SmCodec::Flatb), seen.clone())),
        ];
        (Agent::spawn(cfg, functions).unwrap(), seen)
    }

    /// What the commands `seen` leave installed: shares by physical slice
    /// id, and the slice of each associated UE.
    fn installed(seen: &Mutex<Vec<SliceCtrl>>) -> (HashMap<u32, SliceParams>, HashMap<u16, u32>) {
        let (mut slices, mut assoc) = (HashMap::new(), HashMap::new());
        for cmd in seen.lock().unwrap().iter() {
            match cmd {
                SliceCtrl::AddModSlices { slices: s } => {
                    slices.extend(s.iter().map(|s| (s.id, s.params)))
                }
                SliceCtrl::AssocUeSlice { assoc: a } => assoc.extend(a.iter().copied()),
                _ => {}
            }
        }
        (slices, assoc)
    }

    /// Tenant A sub-slices and moves a UE there; then the south node is
    /// replaced — after the grace window, by one whose cell knows no slice.
    /// The replacement is sent every tenant's whole batch (A's sub-slice,
    /// A's shrunk default, B's default) and every tenant UE's association,
    /// A's UE on its sub-slice included.
    #[test]
    fn a_south_node_that_returns_after_the_grace_window_gets_its_tenants_back() {
        let tenant = |name: &str, mcc: u16| {
            let addr = TransportAddr::Mem(format!("virt-return-{name}"));
            let (app, _) = SliceApp::new(SmCodec::Flatb, 100);
            let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 7), addr.clone());
            cfg.tick_ms = Some(1);
            let server = Server::spawn(cfg, vec![Box::new(app)]).unwrap();
            let conf =
                TenantConf { name: name.into(), plmn: (mcc, 1), sla_milli: 500, ctrl_addr: addr };
            (server, conf)
        };
        let (ctrl_a, a) = tenant("a", 1);
        let (ctrl_b, b) = tenant("b", 2);
        let south = TransportAddr::Mem("virt-return-south".into());
        let mut south_cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 20), south.clone());
        (south_cfg.tick_ms, south_cfg.reconnect_grace_ms) = (Some(1), 0);
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99);
        let virt = VirtController::spawn(south_cfg, node, vec![a, b], SmCodec::Flatb, 10).unwrap();

        let (first, seen) = stub_node(&south);
        let placed = |seen: &Mutex<Vec<SliceCtrl>>| installed(seen).1.len() == 4;
        assert!(wait_until(Duration::from_secs(5), || placed(&seen)), "{:?}", seen.lock().unwrap());
        let sub = SliceConf {
            id: 0,
            label: "sub".into(),
            params: SliceParams::NvsCapacity { share_milli: 660 },
            ue_sched: UeSchedAlgo::PropFair,
        };
        let apply = |ctrl| slicing::apply(&ctrl_a, 0, ctrl).is_some_and(|r| r.ok);
        assert!(apply(SliceCtrl::AddModSlices { slices: vec![sub] }));
        assert!(apply(SliceCtrl::AssocUeSlice { assoc: vec![(0x11, 0)] }));
        let moved = |seen: &Mutex<Vec<SliceCtrl>>| installed(seen).1.get(&0x11) == Some(&0);
        assert!(wait_until(Duration::from_secs(5), || moved(&seen)));

        first.stop();
        let (second, seen) = stub_node(&south);
        let want_slices = HashMap::from([
            (phys_slice_id(0, 0), SliceParams::NvsCapacity { share_milli: 330 }),
            (phys_slice_id(0, DEFAULT_VID), SliceParams::NvsCapacity { share_milli: 170 }),
            (phys_slice_id(1, DEFAULT_VID), SliceParams::NvsCapacity { share_milli: 500 }),
        ]);
        let want_assoc = HashMap::from([
            (0x11, phys_slice_id(0, 0)),
            (0x12, phys_slice_id(0, DEFAULT_VID)),
            (0x21, phys_slice_id(1, DEFAULT_VID)),
            (0x22, phys_slice_id(1, DEFAULT_VID)),
        ]);
        let back = || installed(&seen) == (want_slices.clone(), want_assoc.clone());
        let returned = wait_until(Duration::from_secs(2), back);
        let got = installed(&seen);
        second.stop();
        virt.stop();
        ctrl_a.stop();
        ctrl_b.stop();
        assert!(returned, "the replacement node holds {got:?}");
    }
}
