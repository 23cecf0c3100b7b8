//! Slice scheduling: NVS (Kokku et al., IEEE/ACM ToN 2012) and static
//! partitioning.
//!
//! NVS is the algorithm the paper's slicing experiments use (§6.1.2, §6.2,
//! Appendix B).  Every TTI it grants the whole slot to one slice — the one
//! with the highest weight:
//!
//! * a **capacity slice** with share `c` has weight `c / e`, where `e` is
//!   an exponentially weighted average of the fraction of slots the slice
//!   has received;
//! * a **rate slice** with reserved rate `r_rsv` over reference rate
//!   `r_ref` has weight `r_rsv / r_avg`, where `r_avg` is the slice's
//!   exponentially averaged throughput.
//!
//! Admission control enforces `Σ c + Σ r_rsv/r_ref ≤ 1`.  With *sharing*
//! enabled (work-conserving, the paper's Fig. 13b lower plot) slices
//! without backlog are skipped; without sharing the winning slice keeps
//! its slot even when idle, wasting it (Fig. 13b upper plot).

use flexric_sm::slice::{SliceAlgo, SliceConf, SliceParams, UeSchedAlgo};

/// Runtime state of one slice at the MAC.
#[derive(Debug, Clone)]
pub struct SliceState {
    /// The configuration installed through the SC SM.
    pub conf: SliceConf,
    /// Exponential average of the fraction of slots granted.
    pub avg_slots: f64,
    /// Exponential average of the slice throughput, bytes per TTI.
    pub avg_rate_bptti: f64,
    /// PRBs granted in the current statistics window.
    pub window_prbs: u64,
    /// Bytes served in the current statistics window.
    pub window_bytes: u64,
    /// Round-robin cursor of the slice's UE scheduler.
    pub rr_cursor: usize,
}

impl SliceState {
    /// Wraps a configuration with zeroed averages.
    pub fn new(conf: SliceConf) -> Self {
        SliceState {
            conf,
            avg_slots: 0.0,
            avg_rate_bptti: 0.0,
            window_prbs: 0,
            window_bytes: 0,
            rr_cursor: 0,
        }
    }
}

/// EWMA smoothing factor for NVS averages.
const NVS_ALPHA: f64 = 0.01;

/// The slice scheduler of one cell.
#[derive(Debug)]
pub struct SliceSched {
    /// Which algorithm is active.
    pub algo: SliceAlgo,
    /// Slice states, in configuration order.
    pub slices: Vec<SliceState>,
}

impl Default for SliceSched {
    fn default() -> Self {
        Self::new()
    }
}

impl SliceSched {
    /// No slicing: one implicit slice owning all resources.
    pub fn new() -> Self {
        SliceSched { algo: SliceAlgo::None, slices: vec![SliceState::new(default_slice())] }
    }

    /// Installs a slice algorithm; keeps existing slice configs.
    pub fn set_algo(&mut self, algo: SliceAlgo) {
        self.algo = algo;
        if matches!(algo, SliceAlgo::None) {
            self.slices = vec![SliceState::new(default_slice())];
        }
    }

    /// Total reserved share of all slices except `skip_id` (for admission).
    /// The implicit default slice (`id == u32::MAX`) never counts: it is a
    /// placeholder, not a reservation.
    fn reserved_share(&self, cell_prbs: u32, skip_id: Option<u32>) -> f64 {
        self.slices
            .iter()
            .filter(|s| Some(s.conf.id) != skip_id && s.conf.id != u32::MAX)
            .map(|s| s.conf.params.share(cell_prbs))
            .sum()
    }

    /// Adds or reconfigures a slice, enforcing NVS admission control:
    /// the total reserved share must not exceed 100 %.
    pub fn upsert(&mut self, conf: SliceConf, cell_prbs: u32) -> Result<(), String> {
        let proposed = self.reserved_share(cell_prbs, Some(conf.id)) + conf.params.share(cell_prbs);
        if conf.id != u32::MAX && proposed > 1.0 + 1e-9 {
            return Err(format!("admission control: total share {:.3} exceeds 1.0", proposed));
        }
        if conf.id != u32::MAX {
            // A real slice replaces the implicit default placeholder.
            self.slices.retain(|s| s.conf.id != u32::MAX);
        }
        if let Some(s) = self.slices.iter_mut().find(|s| s.conf.id == conf.id) {
            s.conf = conf;
        } else {
            self.slices.push(SliceState::new(conf));
        }
        Ok(())
    }

    /// Adds or reconfigures a *batch* of slices atomically: admission is
    /// evaluated over the final configuration, so a reconfiguration like
    /// 50/50 → 66/34 is accepted regardless of message order.
    pub fn upsert_batch(&mut self, confs: &[SliceConf], cell_prbs: u32) -> Result<(), String> {
        use std::collections::HashMap;
        let mut shares: HashMap<u32, f64> = self
            .slices
            .iter()
            .filter(|s| s.conf.id != u32::MAX)
            .map(|s| (s.conf.id, s.conf.params.share(cell_prbs)))
            .collect();
        for c in confs {
            if c.id == u32::MAX {
                return Err("slice id reserved".to_owned());
            }
            shares.insert(c.id, c.params.share(cell_prbs));
        }
        let total: f64 = shares.values().sum();
        if total > 1.0 + 1e-9 {
            return Err(format!("admission control: total share {total:.3} exceeds 1.0"));
        }
        for c in confs {
            self.slices.retain(|s| s.conf.id != u32::MAX);
            if let Some(s) = self.slices.iter_mut().find(|s| s.conf.id == c.id) {
                s.conf = c.clone();
            } else {
                self.slices.push(SliceState::new(c.clone()));
            }
        }
        Ok(())
    }

    /// Deletes a slice.
    pub fn delete(&mut self, id: u32) -> Result<(), String> {
        let before = self.slices.len();
        self.slices.retain(|s| s.conf.id != id);
        if self.slices.len() == before {
            return Err(format!("no slice {id}"));
        }
        if self.slices.is_empty() {
            self.slices.push(SliceState::new(default_slice()));
        }
        Ok(())
    }

    /// Picks the slice for this TTI: the heaviest one, the lower index on
    /// equal weights.  `backlogged(idx)` tells whether the slice at `idx`
    /// has traffic.  With sharing (work-conserving) only backlogged slices
    /// compete; without, the heaviest slice keeps the slot even when idle,
    /// wasting it.  Returns the index into `slices`, or `None` when the
    /// slot stays idle.
    pub fn pick(&mut self, mut backlogged: impl FnMut(usize) -> bool) -> Option<usize> {
        let sharing = !matches!(self.algo, SliceAlgo::NvsNoSharing);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.slices.len() {
            if sharing && !backlogged(i) {
                continue;
            }
            let weight = self.weight_of(i);
            if best.is_none_or(|(_, w)| weight > w) {
                best = Some((i, weight));
            }
        }
        let Some((i, _)) = best else {
            self.account_idle();
            return None;
        };
        // Without sharing the averages move as if granted.
        self.account(i);
        (sharing || backlogged(i)).then_some(i)
    }

    fn weight_of(&self, i: usize) -> f64 {
        let s = &self.slices[i];
        match s.conf.params {
            SliceParams::NvsCapacity { share_milli } => {
                (share_milli as f64 / 1000.0) / s.avg_slots.max(1e-6)
            }
            SliceParams::NvsRate { rate_kbps, .. } => {
                // r_rsv in bytes per TTI over averaged rate.
                let rsv_bptti = rate_kbps as f64 * 1000.0 / 8.0 / 1000.0;
                rsv_bptti / s.avg_rate_bptti.max(1.0)
            }
            // Static slices are served by range under `SliceAlgo::Static`;
            // under a pick-based algorithm treat the range as a share.
            SliceParams::StaticRb { .. } => 1.0,
        }
    }

    /// Updates slot averages: slice `granted` received the slot.
    fn account(&mut self, granted: usize) {
        for (i, s) in self.slices.iter_mut().enumerate() {
            let x = if i == granted { 1.0 } else { 0.0 };
            s.avg_slots = (1.0 - NVS_ALPHA) * s.avg_slots + NVS_ALPHA * x;
        }
    }

    /// Updates slot averages for an idle slot.
    fn account_idle(&mut self) {
        for s in &mut self.slices {
            s.avg_slots *= 1.0 - NVS_ALPHA;
        }
    }

    /// Records served bytes for rate averaging and window statistics.
    pub fn record_service(&mut self, idx: usize, prbs: u32, bytes: u64) {
        for (i, s) in self.slices.iter_mut().enumerate() {
            let b = if i == idx { bytes as f64 } else { 0.0 };
            s.avg_rate_bptti = (1.0 - NVS_ALPHA) * s.avg_rate_bptti + NVS_ALPHA * b;
        }
        let s = &mut self.slices[idx];
        s.window_prbs += prbs as u64;
        s.window_bytes += bytes;
    }

    /// Looks up a slice index by id.
    pub fn index_of(&self, id: u32) -> Option<usize> {
        self.slices.iter().position(|s| s.conf.id == id)
    }
}

/// The implicit "everything" slice used when no slicing is configured.
pub fn default_slice() -> SliceConf {
    SliceConf {
        id: u32::MAX,
        label: "default".into(),
        params: SliceParams::NvsCapacity { share_milli: 1000 },
        ue_sched: UeSchedAlgo::PropFair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap_slice(id: u32, share_milli: u32) -> SliceConf {
        SliceConf {
            id,
            label: format!("s{id}"),
            params: SliceParams::NvsCapacity { share_milli },
            ue_sched: UeSchedAlgo::RoundRobin,
        }
    }

    #[test]
    fn admission_control_rejects_over_100pct() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        sched.upsert(cap_slice(0, 660), 106).unwrap();
        sched.upsert(cap_slice(1, 340), 106).unwrap();
        assert!(sched.upsert(cap_slice(2, 10), 106).is_err(), "sum would exceed 1.0");
        // Reconfiguring an existing slice within budget is fine.
        sched.upsert(cap_slice(0, 500), 106).unwrap();
        sched.upsert(cap_slice(2, 100), 106).unwrap();
    }

    #[test]
    fn rate_slices_count_toward_admission() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        // 5 Mbps over 50 Mbps reference = 10 %.
        sched
            .upsert(
                SliceConf {
                    id: 0,
                    label: "rate".into(),
                    params: SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 50_000 },
                    ue_sched: UeSchedAlgo::RoundRobin,
                },
                106,
            )
            .unwrap();
        sched.upsert(cap_slice(1, 900), 106).unwrap();
        assert!(sched.upsert(cap_slice(2, 10), 106).is_err());
    }

    #[test]
    fn nvs_converges_to_shares_when_backlogged() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        sched.upsert(cap_slice(0, 660), 100).unwrap();
        sched.upsert(cap_slice(1, 340), 100).unwrap();
        let mut grants = [0u64; 2];
        for _ in 0..20_000 {
            if let Some(i) = sched.pick(|_| true) {
                grants[i] += 1;
                sched.record_service(i, 100, 10_000);
            }
        }
        let frac0 = grants[0] as f64 / (grants[0] + grants[1]) as f64;
        assert!((frac0 - 0.66).abs() < 0.03, "slice 0 got {frac0:.3}, expected ≈0.66");
    }

    #[test]
    fn sharing_gives_idle_resources_away() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        sched.upsert(cap_slice(0, 660), 100).unwrap();
        sched.upsert(cap_slice(1, 340), 100).unwrap();
        // Slice 1 idle: slice 0 takes every slot.
        let mut s0 = 0u64;
        for _ in 0..5_000 {
            match sched.pick(|i| i == 0) {
                Some(i) => {
                    assert_eq!(sched.slices[i].conf.id, 0);
                    s0 += 1;
                    sched.record_service(i, 100, 10_000);
                }
                None => panic!("work-conserving NVS must not idle"),
            }
        }
        assert_eq!(s0, 5_000);
    }

    #[test]
    fn no_sharing_wastes_idle_winner_slots() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::NvsNoSharing);
        sched.upsert(cap_slice(0, 660), 100).unwrap();
        sched.upsert(cap_slice(1, 340), 100).unwrap();
        // Slice 1 idle; slice 0 backlogged: slice 0 only gets its own
        // ~66 % of slots, the rest are wasted.
        let mut granted = 0u64;
        let rounds = 20_000;
        for _ in 0..rounds {
            if let Some(i) = sched.pick(|i| i == 0) {
                granted += 1;
                sched.record_service(i, 100, 10_000);
            }
        }
        let frac = granted as f64 / rounds as f64;
        assert!(
            (frac - 0.66).abs() < 0.05,
            "without sharing slice 0 is capped at its share, got {frac:.3}"
        );
    }

    #[test]
    fn rate_slice_gets_its_rate() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        // Cell of 5000 B/TTI ≈ 40 Mbps. Rate slice: 4 Mbps ≈ 500 B/TTI.
        sched
            .upsert(
                SliceConf {
                    id: 0,
                    label: "rate".into(),
                    params: SliceParams::NvsRate { rate_kbps: 4_000, ref_kbps: 40_000 },
                    ue_sched: UeSchedAlgo::RoundRobin,
                },
                100,
            )
            .unwrap();
        sched.upsert(cap_slice(1, 900), 100).unwrap();
        let mut bytes = [0u64; 2];
        for _ in 0..50_000 {
            if let Some(i) = sched.pick(|_| true) {
                bytes[i] += 5_000;
                sched.record_service(i, 100, 5_000);
            }
        }
        let frac0 = bytes[0] as f64 / (bytes[0] + bytes[1]) as f64;
        assert!((frac0 - 0.10).abs() < 0.03, "rate slice got {frac0:.3} of ~0.10");
    }

    #[test]
    fn delete_and_default_restore() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        sched.upsert(cap_slice(0, 500), 100).unwrap();
        assert!(sched.delete(1).is_err());
        sched.delete(0).unwrap();
        assert_eq!(sched.slices.len(), 1, "default slice restored");
        assert_eq!(sched.slices[0].conf.id, u32::MAX);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use flexric_sm::slice::SliceAlgo;

    fn cap(id: u32, milli: u32) -> SliceConf {
        SliceConf {
            id,
            label: format!("s{id}"),
            params: SliceParams::NvsCapacity { share_milli: milli },
            ue_sched: UeSchedAlgo::PropFair,
        }
    }

    #[test]
    fn batch_reconfiguration_is_atomic() {
        let mut sched = SliceSched::new();
        sched.set_algo(SliceAlgo::Nvs);
        sched.upsert_batch(&[cap(0, 500), cap(1, 500)], 106).unwrap();
        // 50/50 → 66/34 in one batch must pass even though the interim
        // state (66 + 50) would not.
        sched.upsert_batch(&[cap(0, 660), cap(1, 340)], 106).unwrap();
        assert_eq!(sched.slices.len(), 2);
        // But a batch that really over-commits is rejected whole.
        assert!(sched.upsert_batch(&[cap(0, 800), cap(2, 300)], 106).is_err());
        assert_eq!(sched.slices.len(), 2, "rejected batch left state unchanged");
        assert!(sched.index_of(2).is_none());
        // Reserved sentinel id rejected.
        assert!(sched.upsert_batch(&[cap(u32::MAX, 100)], 106).is_err());
    }
}
