//! One simulated cell: UEs, bearers (TC + RLC), and the two-level MAC
//! scheduler (slice scheduler → per-slice UE scheduler, paper Fig. 12).

use std::cmp::Ordering::Less;

use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};
use flexric_sm::rrc::{RrcEventKind, RrcUeEvent};

/// Cumulative per-UE counters exposed for KPM-style measurements.
#[derive(Debug, Clone, Copy)]
pub struct KpmUeCounters {
    /// The UE.
    pub rnti: u16,
    /// Cumulative DL MAC bytes.
    pub dl_bytes_total: u64,
    /// Cumulative DL PRBs granted.
    pub dl_prbs_total: u64,
    /// Current-window average RLC sojourn (µs).
    pub rlc_sojourn_us_avg: u64,
    /// Cumulative DL PDCP SDU bytes.
    pub pdcp_tx_aggr: u64,
}
use flexric_sm::slice::{
    SliceAlgo, SliceCtrl, SliceParams, SliceStatsInd, SliceStatus, UeSchedAlgo,
};
use flexric_sm::tc::{TcCtrl, TcStatsInd};

use crate::nvs::SliceSched;
use crate::phy::{bytes_per_prb_tti, Rat};
use crate::rlc::{Packet, RlcBearer, Run};
use crate::tc::{FiveTuple, TcLayer};

/// Static configuration of a cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Human-readable name, for experiment output.
    pub name: String,
    /// Radio access technology.
    pub rat: Rat,
    /// PRBs per TTI (25 = 5 MHz LTE, 50 = 10 MHz LTE, 106 = 20 MHz NR).
    pub prbs: u32,
    /// RLC buffer capacity per bearer in bytes (0 = unbounded).  The
    /// paper's bufferbloat stems from these "large buffers"; the default
    /// mirrors that.
    pub rlc_cap_bytes: u64,
}

impl CellConfig {
    /// An LTE cell of the given bandwidth in PRBs.
    pub fn lte(name: &str, prbs: u32) -> Self {
        CellConfig { name: name.into(), rat: Rat::Lte, prbs, rlc_cap_bytes: 2_000_000 }
    }

    /// An NR cell of the given bandwidth in PRBs.
    pub fn nr(name: &str, prbs: u32) -> Self {
        CellConfig { name: name.into(), rat: Rat::Nr, prbs, rlc_cap_bytes: 2_000_000 }
    }
}

/// Static configuration of a UE.
#[derive(Debug, Clone, Copy)]
pub struct UeConfig {
    /// RNTI.
    pub rnti: u16,
    /// Fixed modulation-and-coding scheme.
    pub mcs: u8,
    /// Reported CQI.
    pub cqi: u8,
    /// Serving PLMN `(mcc, mnc)` — drives multi-tenant partitioning.
    pub plmn: (u16, u16),
    /// S-NSSAI from the attach, if any.
    pub snssai: Option<u32>,
}

impl UeConfig {
    /// A UE with typical defaults.
    pub fn new(rnti: u16, mcs: u8) -> Self {
        UeConfig { rnti, mcs, cqi: 15, plmn: (1, 1), snssai: None }
    }
}

/// One bearer: TC sublayer feeding an RLC buffer, with PDCP counters.
#[derive(Debug)]
pub struct Bearer {
    /// DRB id.
    pub drb_id: u8,
    /// The TC sublayer.
    pub tc: TcLayer,
    /// The RLC buffer.
    pub rlc: RlcBearer,
    pdcp_tx_pdus: u64,
    pdcp_tx_bytes: u64,
    pdcp_tx_aggr: u64,
}

/// Per-UE MAC accounting for the current statistics window.
#[derive(Debug, Default, Clone, Copy)]
struct MacWindow {
    prbs_dl: u32,
    tbs_dl_bytes: u64,
    dl_aggr_bytes: u64,
    prbs_dl_total: u64,
    avg_thr_bptti: f64,
}

/// A UE attached to the cell.
#[derive(Debug)]
pub struct Ue {
    /// Static configuration.
    pub cfg: UeConfig,
    /// Slice association (`u32::MAX` = unassociated/default).
    pub slice: u32,
    /// Bearers (DRB 1 created at attach).
    pub bearers: Vec<Bearer>,
    mac: MacWindow,
}

impl Bearer {
    /// Whether a TTI has nothing to do here: no packet waits in the TC
    /// queues and no byte in the RLC buffer.
    fn is_idle(&self) -> bool {
        self.tc.is_empty() && !self.rlc.has_backlog()
    }
}

impl Ue {
    fn backlog(&self) -> u64 {
        self.bearers.iter().map(|b| b.rlc.backlog_bytes()).sum()
    }
}

/// Per-TTI scratch of the MAC scheduler: cleared, never freed.
#[derive(Debug, Default)]
struct MacScratch {
    /// Per UE, in `ues` order: the index of the slice it is served in — its
    /// association if that slice exists, otherwise the first slice.
    slice_of: Vec<usize>,
    /// Per slice: whether any of its UEs has backlog.
    backlogged: Vec<bool>,
    /// The backlogged UEs of the slice being served, `(sort key, index)`
    /// in scheduling order.
    order: Vec<(f64, usize)>,
}

/// A simulated cell.
pub struct Cell {
    /// Static configuration.
    pub cfg: CellConfig,
    /// Attached UEs.
    pub ues: Vec<Ue>,
    /// The slice scheduler.
    pub sched: SliceSched,
    /// Cumulative handovers out of this cell (KPM surface, never reset).
    pub ho_out_total: u64,
    /// Cumulative handovers into this cell (KPM surface, never reset).
    pub ho_in_total: u64,
    rrc_events: Vec<RrcUeEvent>,
    now_ms: u64,
    window_start_ms: u64,
    mac: MacScratch,
}

impl Cell {
    /// Creates an empty cell.
    pub fn new(cfg: CellConfig) -> Self {
        Cell {
            cfg,
            ues: Vec::new(),
            sched: SliceSched::new(),
            ho_out_total: 0,
            ho_in_total: 0,
            rrc_events: Vec::new(),
            now_ms: 0,
            window_start_ms: 0,
            mac: MacScratch::default(),
        }
    }

    /// Attaches a UE with one default bearer (DRB 1); emits an RRC event.
    pub fn attach_ue(&mut self, cfg: UeConfig) {
        let bearer = Bearer {
            drb_id: 1,
            tc: TcLayer::new(),
            rlc: RlcBearer::new(self.cfg.rlc_cap_bytes),
            pdcp_tx_pdus: 0,
            pdcp_tx_bytes: 0,
            pdcp_tx_aggr: 0,
        };
        self.ues.push(Ue {
            cfg,
            slice: u32::MAX,
            bearers: vec![bearer],
            mac: MacWindow::default(),
        });
        self.rrc_events.push(RrcUeEvent {
            rnti: cfg.rnti,
            kind: RrcEventKind::Attach,
            plmn_mcc: cfg.plmn.0,
            plmn_mnc: cfg.plmn.1,
            snssai: cfg.snssai,
        });
    }

    /// Detaches a UE; emits an RRC event.
    pub fn detach_ue(&mut self, rnti: u16) {
        if let Some(pos) = self.ues.iter().position(|u| u.cfg.rnti == rnti) {
            let ue = self.ues.remove(pos);
            self.rrc_events.push(RrcUeEvent {
                rnti,
                kind: RrcEventKind::Detach,
                plmn_mcc: ue.cfg.plmn.0,
                plmn_mnc: ue.cfg.plmn.1,
                snssai: ue.cfg.snssai,
            });
        }
    }

    /// Drains pending RRC events (the RRC SM picks these up).
    pub fn take_rrc_events(&mut self) -> Vec<RrcUeEvent> {
        std::mem::take(&mut self.rrc_events)
    }

    /// Removes a UE without a detach event (handover source side),
    /// returning it with its bearers intact.
    pub(crate) fn extract_ue(&mut self, rnti: u16) -> Option<Ue> {
        let pos = self.ues.iter().position(|u| u.cfg.rnti == rnti)?;
        let ue = self.ues.remove(pos);
        self.ho_out_total += 1;
        self.rrc_events.push(RrcEventKind::HandoverOut.event(
            ue.cfg.rnti,
            ue.cfg.plmn,
            ue.cfg.snssai,
        ));
        Some(ue)
    }

    /// Inserts a handed-over UE (target side).
    pub(crate) fn insert_ue(&mut self, ue: Ue) {
        self.ho_in_total += 1;
        self.rrc_events.push(RrcEventKind::HandoverIn.event(
            ue.cfg.rnti,
            ue.cfg.plmn,
            ue.cfg.snssai,
        ));
        self.ues.push(ue);
    }

    /// Cumulative per-UE counters for KPM-style gauges (never reset, so
    /// multiple KPM subscriptions can compute independent deltas).
    pub fn kpm_counters(&self) -> Vec<KpmUeCounters> {
        self.ues
            .iter()
            .map(|u| KpmUeCounters {
                rnti: u.cfg.rnti,
                dl_bytes_total: u.mac.dl_aggr_bytes,
                dl_prbs_total: u.mac.prbs_dl_total,
                rlc_sojourn_us_avg: u
                    .bearers
                    .iter()
                    .map(|b| b.rlc.sojourn.avg_us())
                    .max()
                    .unwrap_or(0),
                pdcp_tx_aggr: u.bearers.iter().map(|b| b.pdcp_tx_aggr).sum(),
            })
            .collect()
    }

    fn ue_mut(&mut self, rnti: u16) -> Option<&mut Ue> {
        self.ues.iter_mut().find(|u| u.cfg.rnti == rnti)
    }

    /// Delivers a flow's downlink packets of this TTI, `n` packets `pkt`,
    /// into the UE's bearer (SDAP ingress → TC classifier, which matches
    /// the flow's `tuple` once for the run).  Returns how many were
    /// dropped.
    pub fn ingress(&mut self, rnti: u16, drb: u8, tuple: FiveTuple, pkt: Packet, n: u32) -> u32 {
        let now = self.now_ms;
        let bearer =
            self.ue_mut(rnti).and_then(|ue| ue.bearers.iter_mut().find(|b| b.drb_id == drb));
        let Some(bearer) = bearer else { return n };
        let bytes = pkt.bytes as u64 * n as u64;
        bearer.pdcp_tx_pdus += n as u64;
        bearer.pdcp_tx_bytes += bytes;
        bearer.pdcp_tx_aggr += bytes;
        bearer.tc.ingress(tuple, pkt, n, now)
    }

    /// Advances the cell by one TTI: pacer release, slice scheduling, UE
    /// scheduling, RLC drain.  Appends the runs of packets that left the
    /// cell this TTI (they reach the UE after the air-interface latency) to
    /// `out` and those dropped at the RLC drop-tail (the sender's loss
    /// signal) to `dropped`.  A cell whose bearers are all empty only
    /// accounts the idle slot to its slice scheduler: nothing else would
    /// move.
    pub fn tick(&mut self, now_ms: u64, out: &mut Vec<Run>, dropped: &mut Vec<Run>) {
        self.now_ms = now_ms;
        if self.ues.iter().all(|ue| ue.bearers.iter().all(Bearer::is_idle)) {
            if !matches!(self.sched.algo, SliceAlgo::Static) {
                self.sched.pick(|_| false);
            }
            return;
        }
        // 1. TC → RLC release (pacing); overflow at the RLC is loss.
        for ue in &mut self.ues {
            for b in &mut ue.bearers {
                b.tc.egress(&mut b.rlc, now_ms, dropped);
            }
        }
        // 2. One walk over the UEs: where each is served, who has backlog.
        let mac = &mut self.mac;
        mac.slice_of.clear();
        mac.backlogged.clear();
        mac.backlogged.resize(self.sched.slices.len(), false);
        for ue in &self.ues {
            let idx = self.sched.index_of(ue.slice).unwrap_or(0);
            mac.slice_of.push(idx);
            if ue.backlog() > 0 {
                if let Some(any) = mac.backlogged.get_mut(idx) {
                    *any = true;
                }
            }
        }
        // 3. MAC scheduling.
        match self.sched.algo {
            SliceAlgo::Static => {
                for idx in 0..self.sched.slices.len() {
                    match self.sched.slices[idx].conf.params {
                        SliceParams::StaticRb { lo, hi } if hi >= lo => {
                            self.serve_slice(idx, (hi - lo + 1) as u32, now_ms, out);
                        }
                        _ => {}
                    }
                }
            }
            _ => {
                let backlogged = &self.mac.backlogged;
                if let Some(idx) = self.sched.pick(|idx| backlogged[idx]) {
                    self.serve_slice(idx, self.cfg.prbs, now_ms, out);
                }
            }
        }
    }

    /// Distributes `prbs` among the backlogged UEs of slice `slice_idx`
    /// using the slice's UE scheduler, and drains their RLC buffers.
    fn serve_slice(&mut self, slice_idx: usize, prbs: u32, now_ms: u64, out: &mut Vec<Run>) {
        let algo = self.sched.slices[slice_idx].conf.ue_sched;
        let rat = self.cfg.rat;
        // The slice's backlogged UEs by descending key — proportional fair:
        // achievable rate over averaged throughput; max throughput: MCS;
        // round robin: none.  Each goes behind every UE whose key is not
        // smaller, so equal keys stay in UE order.
        let order = &mut self.mac.order;
        order.clear();
        for (i, ue) in self.ues.iter().enumerate() {
            if self.mac.slice_of[i] != slice_idx || ue.backlog() == 0 {
                continue;
            }
            let key = match algo {
                UeSchedAlgo::RoundRobin => 0.0,
                UeSchedAlgo::PropFair => {
                    bytes_per_prb_tti(rat, ue.cfg.mcs) as f64 / ue.mac.avg_thr_bptti.max(1.0)
                }
                UeSchedAlgo::MaxThroughput => ue.cfg.mcs as f64,
            };
            let behind = order.iter().rposition(|(k, _)| k.partial_cmp(&key) != Some(Less));
            order.insert(behind.map_or(0, |p| p + 1), (key, i));
        }
        if order.is_empty() {
            return;
        }
        if matches!(algo, UeSchedAlgo::RoundRobin) {
            let cursor = self.sched.slices[slice_idx].rr_cursor;
            let n = order.len();
            order.rotate_left(cursor % n);
            self.sched.slices[slice_idx].rr_cursor = cursor.wrapping_add(1);
        }
        // Water-filling: equal shares, leftover redistributed to UEs that
        // still have backlog (up to a few passes).
        let mut remaining = prbs;
        let mut slice_bytes = 0u64;
        let mut slice_prbs = 0u32;
        for pass in 0..3 {
            if remaining == 0 {
                break;
            }
            let active = order.iter().filter(|(_, i)| self.ues[*i].backlog() > 0).count();
            if active == 0 {
                break;
            }
            let per_ue = if matches!(algo, UeSchedAlgo::MaxThroughput) && pass == 0 {
                remaining // max-throughput: best UE takes what it needs
            } else {
                (remaining / active as u32).max(1)
            };
            for &(_, i) in order.iter() {
                if remaining == 0 {
                    break;
                }
                let ue = &mut self.ues[i];
                let want_bytes = ue.backlog();
                if want_bytes == 0 {
                    continue; // served dry in an earlier pass
                }
                let bprb = bytes_per_prb_tti(rat, ue.cfg.mcs) as u64;
                let want_prbs = (want_bytes.div_ceil(bprb.max(1))) as u32;
                let grant = per_ue.min(remaining).min(want_prbs.max(1));
                let budget = grant as u64 * bprb;
                let mut drained = 0u64;
                for b in &mut ue.bearers {
                    if drained >= budget {
                        break;
                    }
                    drained += b.rlc.drain(budget - drained, now_ms, out);
                }
                let used_prbs = (drained.div_ceil(bprb.max(1)) as u32).min(grant);
                ue.mac.prbs_dl += used_prbs.max(if drained > 0 { 1 } else { 0 });
                ue.mac.prbs_dl_total += used_prbs as u64;
                ue.mac.tbs_dl_bytes += drained;
                ue.mac.dl_aggr_bytes += drained;
                const A: f64 = 0.01;
                ue.mac.avg_thr_bptti = (1.0 - A) * ue.mac.avg_thr_bptti + A * drained as f64;
                remaining -= grant.min(remaining);
                slice_bytes += drained;
                slice_prbs += used_prbs;
            }
        }
        self.sched.record_service(slice_idx, slice_prbs, slice_bytes);
    }

    // -----------------------------------------------------------------
    // Service-model surface
    // -----------------------------------------------------------------

    /// Applies a slice-control message; errors carry the admission-control
    /// reason.
    pub fn apply_slice_ctrl(&mut self, ctrl: &SliceCtrl) -> Result<(), String> {
        match ctrl {
            SliceCtrl::SetAlgo { algo } => {
                self.sched.set_algo(*algo);
                Ok(())
            }
            SliceCtrl::AddModSlices { slices } => self.sched.upsert_batch(slices, self.cfg.prbs),
            SliceCtrl::DelSlices { ids } => {
                for id in ids {
                    self.sched.delete(*id)?;
                }
                Ok(())
            }
            SliceCtrl::AssocUeSlice { assoc } => {
                for (rnti, slice) in assoc {
                    match self.ue_mut(*rnti) {
                        Some(ue) => ue.slice = *slice,
                        None => return Err(format!("no UE {rnti:#x}")),
                    }
                }
                Ok(())
            }
        }
    }

    /// Applies a traffic-control message to one bearer.
    pub fn apply_tc_ctrl(&mut self, rnti: u16, drb: u8, ctrl: &TcCtrl) -> Result<(), String> {
        let Some(ue) = self.ue_mut(rnti) else { return Err(format!("no UE {rnti:#x}")) };
        let Some(bearer) = ue.bearers.iter_mut().find(|b| b.drb_id == drb) else {
            return Err(format!("no DRB {drb}"));
        };
        match ctrl {
            TcCtrl::AddQueue { id, kind } => {
                bearer.tc.add_queue(*id, *kind);
                Ok(())
            }
            TcCtrl::DelQueue { id } => bearer.tc.del_queue(*id).map_err(|e| e.to_owned()),
            TcCtrl::AddRule { rule, queue, precedence } => {
                bearer.tc.add_rule(*rule, *queue, *precedence).map_err(|e| e.to_owned())
            }
            TcCtrl::DelRule { rule_id } => bearer.tc.del_rule(*rule_id).map_err(|e| e.to_owned()),
            TcCtrl::SetSched { algo, weights } => {
                bearer.tc.set_sched(*algo, weights.clone());
                Ok(())
            }
            TcCtrl::SetPacer { pacer } => {
                bearer.tc.set_pacer(*pacer);
                Ok(())
            }
        }
    }

    /// MAC statistics snapshot; resets the window.
    pub fn mac_stats(&mut self) -> MacStatsInd {
        let ues = self
            .ues
            .iter_mut()
            .map(|u| {
                let w = u.mac;
                u.mac.prbs_dl = 0;
                u.mac.tbs_dl_bytes = 0;
                MacUeStats {
                    rnti: u.cfg.rnti,
                    cqi: u.cfg.cqi,
                    mcs: u.cfg.mcs,
                    prbs_dl: w.prbs_dl,
                    prbs_ul: 0,
                    tbs_dl_bytes: w.tbs_dl_bytes,
                    tbs_ul_bytes: 0,
                    dl_aggr_bytes: w.dl_aggr_bytes,
                    ul_aggr_bytes: 0,
                    bsr: 0,
                    dl_backlog_bytes: u.bearers.iter().map(|b| b.rlc.backlog_bytes()).sum(),
                    slice_id: u.slice,
                    plmn_mcc: u.cfg.plmn.0,
                    plmn_mnc: u.cfg.plmn.1,
                }
            })
            .collect();
        MacStatsInd { tstamp_ms: self.now_ms, cell_prbs: self.cfg.prbs, ues }
    }

    /// RLC statistics snapshot; resets the window.
    pub fn rlc_stats(&mut self) -> RlcStatsInd {
        let mut bearers = Vec::new();
        for u in &mut self.ues {
            for b in &mut u.bearers {
                bearers.push(RlcBearerStats {
                    rnti: u.cfg.rnti,
                    drb_id: b.drb_id,
                    tx_pdus: b.rlc.counters.tx_pdus,
                    tx_bytes: b.rlc.counters.tx_bytes,
                    retx_pdus: 0,
                    dropped_pdus: b.rlc.counters.dropped_pdus,
                    buffer_bytes: b.rlc.backlog_bytes(),
                    buffer_pkts: b.rlc.backlog_pkts(),
                    sojourn_us_avg: b.rlc.sojourn.avg_us(),
                    sojourn_us_max: b.rlc.sojourn.max_us(),
                });
                b.rlc.reset_window();
            }
        }
        RlcStatsInd { tstamp_ms: self.now_ms, bearers }
    }

    /// PDCP statistics snapshot; resets the window.
    pub fn pdcp_stats(&mut self) -> PdcpStatsInd {
        let mut bearers = Vec::new();
        for u in &mut self.ues {
            for b in &mut u.bearers {
                bearers.push(PdcpBearerStats {
                    rnti: u.cfg.rnti,
                    drb_id: b.drb_id,
                    tx_pdus: b.pdcp_tx_pdus,
                    tx_bytes: b.pdcp_tx_bytes,
                    rx_pdus: 0,
                    rx_bytes: 0,
                    tx_aggr_bytes: b.pdcp_tx_aggr,
                    rx_aggr_bytes: 0,
                    rx_discards: 0,
                });
                b.pdcp_tx_pdus = 0;
                b.pdcp_tx_bytes = 0;
            }
        }
        PdcpStatsInd { tstamp_ms: self.now_ms, bearers }
    }

    /// TC statistics snapshot for one bearer; resets its window.
    pub fn tc_stats(&mut self, rnti: u16, drb: u8) -> Option<TcStatsInd> {
        let now = self.now_ms;
        let ue = self.ue_mut(rnti)?;
        let bearer = ue.bearers.iter_mut().find(|b| b.drb_id == drb)?;
        let (queues, pacer_rate_kbps) = bearer.tc.stats(now);
        bearer.tc.reset_window(now);
        Some(TcStatsInd { tstamp_ms: now, rnti, drb_id: drb, queues, pacer_rate_kbps })
    }

    /// Slice statistics snapshot; resets the per-slice windows.
    pub fn slice_stats(&mut self) -> SliceStatsInd {
        let elapsed = (self.now_ms - self.window_start_ms).max(1);
        let slices = self
            .sched
            .slices
            .iter_mut()
            .map(|s| {
                let status = SliceStatus {
                    conf: s.conf.clone(),
                    alloc_prbs: s.window_prbs,
                    thr_kbps: s.window_bytes * 8 / elapsed,
                    num_ues: 0, // filled below
                };
                s.window_prbs = 0;
                s.window_bytes = 0;
                status
            })
            .collect::<Vec<_>>();
        let mut slices = slices;
        for ue in &self.ues {
            let idx = self.sched.index_of(ue.slice).unwrap_or(0);
            if let Some(st) = slices.get_mut(idx) {
                st.num_ues += 1;
            }
        }
        self.window_start_ms = self.now_ms;
        SliceStatsInd {
            tstamp_ms: self.now_ms,
            algo: self.sched.algo,
            slices,
            ue_assoc: self.ues.iter().map(|u| (u.cfg.rnti, u.slice)).collect(),
        }
    }
}
