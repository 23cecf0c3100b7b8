//! The recursive network-virtualization controller (paper §6.2, Fig. 14a,
//! Appendix B).
//!
//! Multiplexes the virtual RANs of multiple tenants (operators) onto a
//! shared infrastructure: southbound it is a normal FlexRIC controller
//! terminating the real agents; northbound it *reuses the agent library*
//! to expose an E2 interface to each tenant's own controller — the
//! "recursive" property.  A virtualization layer of iApps/RAN functions
//! sits in between:
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

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::agent::{
    Admission, Agent, AgentConfig, AgentCtx, AgentHandle, CtrlId, Due, RanFunction,
    SubscriptionInfo,
};
use flexric::server::{
    AgentId, AgentInfo, IApp, IndicationRef, Server, ServerApi, ServerConfig, ServerHandle,
};
use flexric_e2ap::*;
use flexric_sm::mac::MacStatsInd;
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
    match params {
        SliceParams::NvsCapacity { share_milli } => SliceParams::NvsCapacity {
            share_milli: (*share_milli as u64 * sla_milli as u64 / 1000) as u32,
        },
        SliceParams::NvsRate { rate_kbps, ref_kbps } => SliceParams::NvsRate {
            rate_kbps: *rate_kbps,
            ref_kbps: (*ref_kbps as u64 * 1000 / sla_milli.max(1) as u64) as u32,
        },
        // Static ranges scale by the SLA fraction (coarse, PRB-granular).
        SliceParams::StaticRb { lo, hi } => SliceParams::StaticRb {
            lo: (*lo as u64 * sla_milli as u64 / 1000) as u16,
            hi: (*hi as u64 * sla_milli as u64 / 1000) as u16,
        },
    }
}

/// Translates physical parameters back into the tenant's virtual view.
pub fn phys_to_virt_params(params: &SliceParams, sla_milli: u32) -> SliceParams {
    match params {
        SliceParams::NvsCapacity { share_milli } => SliceParams::NvsCapacity {
            share_milli: (*share_milli as u64 * 1000 / sla_milli.max(1) as u64) as u32,
        },
        SliceParams::NvsRate { rate_kbps, ref_kbps } => SliceParams::NvsRate {
            rate_kbps: *rate_kbps,
            ref_kbps: (*ref_kbps as u64 * sla_milli as u64 / 1000) as u32,
        },
        SliceParams::StaticRb { lo, hi } => SliceParams::StaticRb {
            lo: (*lo as u64 * 1000 / sla_milli.max(1) as u64) as u16,
            hi: (*hi as u64 * 1000 / sla_milli.max(1) as u64) as u16,
        },
    }
}

/// Shared state between the south iApp and the north RAN functions.
struct VirtShared {
    tenants: Vec<TenantConf>,
    /// Latest MAC snapshot from the (single) south agent.
    latest_mac: Option<MacStatsInd>,
    /// Latest slice stats from the south agent.
    latest_slice: Option<SliceStatsInd>,
    /// Virtual slice configurations per tenant.
    virt_slices: Vec<HashMap<u32, SliceConf>>,
    /// UEs already auto-associated.
    auto_assoc: std::collections::HashSet<u16>,
}

impl VirtShared {
    fn tenant_of_plmn(&self, mcc: u16, mnc: u16) -> Option<usize> {
        self.tenants.iter().position(|t| t.plmn == (mcc, mnc))
    }
}

/// Commands flowing from the virtualization layer to the south iApp.
enum SouthCmd {
    Apply(SliceCtrl),
}

/// Builds the full southbound slice batch of one tenant: every sub-slice
/// translated per Appendix B, plus the tenant default slice holding the
/// *remaining* SLA budget, so physical admission always balances.
fn tenant_south_batch(shared: &VirtShared, tenant: usize) -> Vec<SliceConf> {
    let conf = &shared.tenants[tenant];
    let mut out: Vec<SliceConf> = shared.virt_slices[tenant]
        .values()
        .map(|s| SliceConf {
            id: phys_slice_id(tenant, s.id),
            label: format!("{}:{}", conf.name, s.label),
            params: virt_to_phys_params(&s.params, conf.sla_milli),
            ue_sched: s.ue_sched,
        })
        .collect();
    out.sort_by_key(|s| s.id);
    let used: f64 = shared.virt_slices[tenant].values().map(|s| s.params.share(0)).sum();
    let remaining_milli = ((1.0 - used).max(0.0) * conf.sla_milli as f64).round() as u32;
    out.push(SliceConf {
        id: phys_slice_id(tenant, DEFAULT_VID),
        label: format!("{}-default", conf.name),
        params: SliceParams::NvsCapacity { share_milli: remaining_milli },
        ue_sched: UeSchedAlgo::PropFair,
    });
    out
}

// ---------------------------------------------------------------------------
// South side: iApp terminating the real agent
// ---------------------------------------------------------------------------

struct VirtSouthApp {
    sm_codec: SmCodec,
    stats_period_ms: u32,
    shared: Arc<Mutex<VirtShared>>,
    target: Option<AgentId>,
    kinds: HashMap<(AgentId, RicRequestId), u16>,
}

impl VirtSouthApp {
    fn apply(&self, api: &mut ServerApi, ctrl: &SliceCtrl) {
        let Some(agent) = self.target else { return };
        let Some(rf_id) =
            api.randb().agent(agent).and_then(|a| a.function_by_oid(oid::SLICE_CTRL)).map(|f| f.id)
        else {
            return;
        };
        let msg = Bytes::from(ctrl.encode(self.sm_codec));
        api.control(agent, rf_id, Bytes::new(), msg, Some(ControlAckRequest::NAck));
    }
}

impl IApp for VirtSouthApp {
    fn name(&self) -> &str {
        "virt-south"
    }

    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        if self.target.is_some() {
            return; // single-infrastructure virtualization
        }
        self.target = Some(agent.id);
        // Subscriptions: MAC stats + slice stats.
        let trigger =
            Bytes::from(ReportTrigger::every_ms(self.stats_period_ms).encode(self.sm_codec));
        if let Some(f) = agent.function_by_oid(oid::MAC_STATS) {
            let req = api.subscribe_report(agent.id, f.id, trigger.clone());
            self.kinds.insert((agent.id, req), rf::MAC_STATS);
        }
        if let Some(f) = agent.function_by_oid(oid::SLICE_CTRL) {
            let req = api.subscribe_report(agent.id, f.id, trigger);
            self.kinds.insert((agent.id, req), rf::SLICE_CTRL);
        }
        // Install NVS with one default slice per tenant at its SLA share.
        let defaults: Vec<SliceConf> = {
            let shared = self.shared.lock().expect("lock poisoned");
            shared
                .tenants
                .iter()
                .enumerate()
                .map(|(t, conf)| SliceConf {
                    id: phys_slice_id(t, DEFAULT_VID),
                    label: format!("{}-default", conf.name),
                    params: SliceParams::NvsCapacity { share_milli: conf.sla_milli },
                    ue_sched: UeSchedAlgo::PropFair,
                })
                .collect()
        };
        self.apply(api, &SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs });
        self.apply(api, &SliceCtrl::AddModSlices { slices: defaults });
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        if self.target == Some(agent) {
            self.target = None;
        }
    }

    fn on_indication(&mut self, api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        let Ok((_, msg)) = ind.sm_payload() else { return };
        let kind = self.kinds.get(&(agent, ind.req_id())).copied();
        match kind {
            Some(k) if k == rf::MAC_STATS => {
                let Ok(stats) = MacStatsInd::decode(self.sm_codec, msg) else { return };
                // Auto-associate newly seen tenant UEs to the tenant
                // default slice (the virtualization layer's counterpart of
                // the Fig. 4 UE-to-controller configuration).
                let mut assoc = Vec::new();
                {
                    let mut shared = self.shared.lock().expect("lock poisoned");
                    for ue in &stats.ues {
                        if shared.auto_assoc.contains(&ue.rnti) {
                            continue;
                        }
                        if let Some(t) = shared.tenant_of_plmn(ue.plmn_mcc, ue.plmn_mnc) {
                            shared.auto_assoc.insert(ue.rnti);
                            assoc.push((ue.rnti, phys_slice_id(t, DEFAULT_VID)));
                        }
                    }
                    shared.latest_mac = Some(stats);
                }
                if !assoc.is_empty() {
                    self.apply(api, &SliceCtrl::AssocUeSlice { assoc });
                }
            }
            Some(k) if k == rf::SLICE_CTRL => {
                if let Ok(stats) = SliceStatsInd::decode(self.sm_codec, msg) {
                    self.shared.lock().expect("lock poisoned").latest_slice = Some(stats);
                }
            }
            _ => {}
        }
    }

    fn on_custom(&mut self, api: &mut ServerApi, msg: Box<dyn std::any::Any + Send>) {
        if let Ok(cmd) = msg.downcast::<SouthCmd>() {
            let SouthCmd::Apply(ctrl) = *cmd;
            self.apply(api, &ctrl);
        }
    }
}

// ---------------------------------------------------------------------------
// North side: virtual RAN functions exposed through the agent library
// ---------------------------------------------------------------------------

/// Virtual MAC statistics: partitioned per tenant.
struct VirtMacFn {
    sm_codec: SmCodec,
    shared: Arc<Mutex<VirtShared>>,
    identity: RanFunctionItem,
}

impl RanFunction for VirtMacFn {
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
        let shared = self.shared.lock().expect("lock poisoned");
        let Some(stats) = shared.latest_mac.clone() else { return };
        for sub in due.iter().map(|s| s.info()) {
            let tenant = sub.ctrl; // controller i is tenant i
            let Some(tconf) = shared.tenants.get(tenant) else { continue };
            let filtered = MacStatsInd {
                tstamp_ms: stats.tstamp_ms,
                cell_prbs: stats.cell_prbs,
                ues: stats
                    .ues
                    .iter()
                    .filter(|u| (u.plmn_mcc, u.plmn_mnc) == tconf.plmn)
                    .map(|u| {
                        let mut v = *u;
                        let (t, vid) = virt_slice_id(u.slice_id);
                        v.slice_id = if t == tenant { vid } else { u32::MAX };
                        v
                    })
                    .collect(),
            };
            let msg = Bytes::from(filtered.encode(self.sm_codec));
            ctx.send_indication(sub, None, Bytes::new(), msg);
        }
    }
}

/// Virtual slice control: Appendix-B translation + admission control.
struct VirtSliceFn {
    sm_codec: SmCodec,
    shared: Arc<Mutex<VirtShared>>,
    /// The south server, whose `virt-south` iApp applies what this
    /// function translates.
    south: ServerHandle,
    identity: RanFunctionItem,
}

impl VirtSliceFn {
    /// Validates and translates one tenant command into the southbound
    /// commands to apply.  Kept free-standing for unit testing.
    fn translate(
        shared: &mut VirtShared,
        tenant: usize,
        ctrl: &SliceCtrl,
    ) -> Result<Vec<SliceCtrl>, Cause> {
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
                // Admission on the *virtual* representation: Σ ≤ 100 %.
                let mut budget: HashMap<u32, f64> = shared.virt_slices[tenant]
                    .values()
                    .map(|s| (s.id, s.params.share(0)))
                    .collect();
                for s in slices {
                    if s.id > MAX_VIRT_SLICE_ID {
                        return Err(Cause::Ric(RicCause::ControlMessageInvalid));
                    }
                    budget.insert(s.id, s.params.share(0));
                }
                let total: f64 = budget.values().sum();
                if total > 1.0 + 1e-9 {
                    return Err(Cause::Ric(RicCause::FunctionResourceLimit));
                }
                for s in slices {
                    shared.virt_slices[tenant].insert(s.id, s.clone());
                }
                // Re-emit the tenant's full physical batch (sub-slices +
                // shrunken default) so south admission stays balanced.
                Ok(vec![SliceCtrl::AddModSlices { slices: tenant_south_batch(shared, tenant) }])
            }
            SliceCtrl::DelSlices { ids } => {
                for vid in ids {
                    if shared.virt_slices[tenant].remove(vid).is_none() {
                        return Err(Cause::Ric(RicCause::RequestIdUnknown));
                    }
                }
                Ok(vec![
                    SliceCtrl::DelSlices {
                        ids: ids.iter().map(|v| phys_slice_id(tenant, *v)).collect(),
                    },
                    // Return the freed budget to the tenant default.
                    SliceCtrl::AddModSlices { slices: tenant_south_batch(shared, tenant) },
                ])
            }
            SliceCtrl::AssocUeSlice { assoc } => {
                // Verify the UEs belong to the tenant; remap ids.
                let tplmn = shared.tenants[tenant].plmn;
                let mut phys = Vec::new();
                for (rnti, vid) in assoc {
                    let owned = shared.latest_mac.as_ref().is_some_and(|m| {
                        m.ues.iter().any(|u| u.rnti == *rnti && (u.plmn_mcc, u.plmn_mnc) == tplmn)
                    });
                    if !owned {
                        return Err(Cause::Ric(RicCause::RequestIdUnknown));
                    }
                    let pid = if *vid == DEFAULT_VID || shared.virt_slices[tenant].contains_key(vid)
                    {
                        phys_slice_id(tenant, *vid)
                    } else {
                        return Err(Cause::Ric(RicCause::ControlMessageInvalid));
                    };
                    phys.push((*rnti, pid));
                }
                Ok(vec![SliceCtrl::AssocUeSlice { assoc: phys }])
            }
        }
    }
}

impl RanFunction for VirtSliceFn {
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
        ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        let cmd = SliceCtrl::decode(self.sm_codec, &req.message)
            .map_err(|_| Cause::Ric(RicCause::ControlMessageInvalid))?;
        let mut shared = self.shared.lock().expect("lock poisoned");
        if ctrl >= shared.tenants.len() {
            return Err(Cause::Ric(RicCause::RequestIdUnknown));
        }
        let south_cmds = Self::translate(&mut shared, ctrl, &cmd)?;
        drop(shared);
        if south_cmds.is_empty() {
            return Ok(Some(Bytes::from_static(b"noop")));
        }
        for c in south_cmds {
            self.south.to_iapp("virt-south", Box::new(SouthCmd::Apply(c)));
        }
        Ok(Some(Bytes::from_static(b"ok")))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let shared = self.shared.lock().expect("lock poisoned");
        let Some(south) = shared.latest_slice.clone() else { return };
        for sub in due.iter().map(|s| s.info()) {
            let tenant = sub.ctrl;
            let Some(tconf) = shared.tenants.get(tenant) else { continue };
            // Virtualized view: only the tenant's slices, shares scaled to
            // the tenant's 100 % virtual resource.
            let slices: Vec<SliceStatus> = south
                .slices
                .iter()
                .filter(|s| virt_slice_id(s.conf.id).0 == tenant)
                .map(|s| {
                    let (_, vid) = virt_slice_id(s.conf.id);
                    SliceStatus {
                        conf: SliceConf {
                            id: vid,
                            label: s.conf.label.clone(),
                            params: phys_to_virt_params(&s.conf.params, tconf.sla_milli),
                            ue_sched: s.conf.ue_sched,
                        },
                        alloc_prbs: s.alloc_prbs,
                        thr_kbps: s.thr_kbps,
                        num_ues: s.num_ues,
                    }
                })
                .collect();
            let ue_assoc: Vec<(u16, u32)> = south
                .ue_assoc
                .iter()
                .filter(|(_, pid)| virt_slice_id(*pid).0 == tenant)
                .map(|(rnti, pid)| (*rnti, virt_slice_id(*pid).1))
                .collect();
            let ind = SliceStatsInd {
                tstamp_ms: south.tstamp_ms,
                algo: SliceAlgo::Nvs,
                slices,
                ue_assoc,
            };
            let msg = Bytes::from(ind.encode(self.sm_codec));
            ctx.send_indication(sub, None, Bytes::new(), msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

/// A running virtualization controller.
pub struct VirtController {
    /// South server handle (terminates the real agents).
    pub south: ServerHandle,
    /// North agent handle (connected to the tenant controllers).
    pub north: AgentHandle,
}

impl VirtController {
    /// Spawns the virtualization controller.
    ///
    /// * `south_cfg` — where the real agents connect;
    /// * `node` — the E2 node identity exposed to tenants (the abstracted
    ///   topology of Fig. 14b: the whole deployment appears as one node);
    /// * `tenants` — the tenant controllers to connect to, in order
    ///   (tenant *i* becomes controller *i* of the north agent);
    /// * `tick_ms` — `None` for virtual-time experiments.
    pub fn spawn(
        south_cfg: ServerConfig,
        node: GlobalE2NodeId,
        tenants: Vec<TenantConf>,
        sm_codec: SmCodec,
        stats_period_ms: u32,
        tick_ms: Option<u64>,
    ) -> io::Result<VirtController> {
        let shared = Arc::new(Mutex::new(VirtShared {
            virt_slices: vec![HashMap::new(); tenants.len()],
            tenants,
            latest_mac: None,
            latest_slice: None,
            auto_assoc: std::collections::HashSet::new(),
        }));
        let south_app = VirtSouthApp {
            sm_codec,
            stats_period_ms,
            shared: shared.clone(),
            target: None,
            kinds: HashMap::new(),
        };
        let codec = south_cfg.codec;
        let south = Server::spawn(south_cfg, vec![Box::new(south_app)])?;

        // North agent: one connection per tenant controller.
        let ctrl_addrs: Vec<TransportAddr> = shared
            .lock()
            .expect("lock poisoned")
            .tenants
            .iter()
            .map(|t| t.ctrl_addr.clone())
            .collect();
        let mut acfg = AgentConfig::new(node, ctrl_addrs[0].clone());
        acfg.controllers = ctrl_addrs;
        acfg.codec = codec;
        acfg.tick_ms = tick_ms;
        // A virtual function is advertised under a bundled SM's id and OID
        // with a definition of the virtualization layer's own.
        let identity = |id: u16, oid: &str, def: RanFuncDef| {
            RanFunctionItem::new(id, oid, Bytes::from(def.encode(sm_codec)))
        };
        let mac = RanFuncDef::simple("V-MAC-STATS", "tenant-partitioned MAC statistics");
        let slice = RanFuncDef::simple("V-SLICE-CTRL", "virtualized slice control (Appendix B)");
        let functions: Vec<Box<dyn RanFunction>> = vec![
            Box::new(VirtMacFn {
                sm_codec,
                shared: shared.clone(),
                identity: identity(rf::MAC_STATS, oid::MAC_STATS, mac),
            }),
            Box::new(VirtSliceFn {
                sm_codec,
                shared: shared.clone(),
                south: south.clone(),
                identity: identity(rf::SLICE_CTRL, oid::SLICE_CTRL, slice),
            }),
        ];
        let north = Agent::spawn(acfg, functions)?;
        Ok(VirtController { south, north })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with(tenants: Vec<TenantConf>) -> VirtShared {
        VirtShared {
            virt_slices: vec![HashMap::new(); tenants.len()],
            tenants,
            latest_mac: None,
            latest_slice: None,
            auto_assoc: Default::default(),
        }
    }

    fn tenant(name: &str, mcc: u16, sla: u32) -> TenantConf {
        TenantConf {
            name: name.into(),
            plmn: (mcc, 1),
            sla_milli: sla,
            ctrl_addr: TransportAddr::Mem("unused".into()),
        }
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
        let mut shared = shared_with(vec![tenant("a", 1, 500)]);
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
        let south = VirtSliceFn::translate(&mut shared, 0, &ok).unwrap();
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
        assert_eq!(
            VirtSliceFn::translate(&mut shared, 0, &over),
            Err(Cause::Ric(RicCause::FunctionResourceLimit))
        );
    }

    #[test]
    fn virtual_id_range_enforced() {
        let mut shared = shared_with(vec![tenant("a", 1, 500)]);
        let bad = SliceCtrl::AddModSlices {
            slices: vec![SliceConf {
                id: 10,
                label: "out of range".into(),
                params: SliceParams::NvsCapacity { share_milli: 100 },
                ue_sched: UeSchedAlgo::PropFair,
            }],
        };
        assert_eq!(
            VirtSliceFn::translate(&mut shared, 0, &bad),
            Err(Cause::Ric(RicCause::ControlMessageInvalid))
        );
    }

    #[test]
    fn assoc_requires_tenant_ownership() {
        let mut shared = shared_with(vec![tenant("a", 1, 500), tenant("b", 2, 500)]);
        shared.latest_mac = Some(MacStatsInd {
            tstamp_ms: 0,
            cell_prbs: 50,
            ues: vec![
                flexric_sm::mac::MacUeStats {
                    rnti: 0x10,
                    plmn_mcc: 1,
                    plmn_mnc: 1,
                    ..Default::default()
                },
                flexric_sm::mac::MacUeStats {
                    rnti: 0x20,
                    plmn_mcc: 2,
                    plmn_mnc: 1,
                    ..Default::default()
                },
            ],
        });
        // Tenant 0 may move its own UE to its default slice…
        let ok = SliceCtrl::AssocUeSlice { assoc: vec![(0x10, DEFAULT_VID)] };
        let south = VirtSliceFn::translate(&mut shared, 0, &ok).unwrap();
        assert_eq!(
            south,
            vec![SliceCtrl::AssocUeSlice { assoc: vec![(0x10, phys_slice_id(0, DEFAULT_VID))] }]
        );
        // …but not tenant 1's UE.
        let bad = SliceCtrl::AssocUeSlice { assoc: vec![(0x20, DEFAULT_VID)] };
        assert!(VirtSliceFn::translate(&mut shared, 0, &bad).is_err());
        // Nor an association to a slice it never created.
        let bad2 = SliceCtrl::AssocUeSlice { assoc: vec![(0x10, 3)] };
        assert!(VirtSliceFn::translate(&mut shared, 0, &bad2).is_err());
    }

    #[test]
    fn set_algo_is_noop_or_rejected() {
        let mut shared = shared_with(vec![tenant("a", 1, 500)]);
        assert_eq!(
            VirtSliceFn::translate(&mut shared, 0, &SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }),
            Ok(vec![])
        );
        assert!(VirtSliceFn::translate(
            &mut shared,
            0,
            &SliceCtrl::SetAlgo { algo: SliceAlgo::Static }
        )
        .is_err());
    }

    #[test]
    fn delete_unknown_slice_rejected() {
        let mut shared = shared_with(vec![tenant("a", 1, 500)]);
        assert!(
            VirtSliceFn::translate(&mut shared, 0, &SliceCtrl::DelSlices { ids: vec![0] }).is_err()
        );
    }
}
