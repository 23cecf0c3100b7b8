//! Time-varying KPI workload generator for the adaptive-monitoring
//! experiments (Fig. 7b).
//!
//! Real cells are bursty: most report periods change only a handful of
//! counters, long stretches change nothing at all, and occasionally a
//! traffic burst moves everything at once.  [`KpiGen`] reproduces that
//! shape deterministically — one generator per simulated agent, seeded by
//! agent index — so the full/delta/adaptive A/B measures a workload with
//! realistic temporal structure instead of white noise (which would make
//! delta encoding look uselessly bad) or a frozen snapshot (uselessly
//! good).
//!
//! Like the rest of this crate it needs only std, `flexric-sm` and
//! `flexric-obs`, so the offline harnesses compile it with bare `rustc`
//! alongside the delta codec it exercises.

use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::pdcp::{PdcpBearerStats, PdcpStatsInd};
use flexric_sm::rlc::{RlcBearerStats, RlcStatsInd};

/// xorshift64* — deterministic, seed-stable across platforms.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Traffic phase of a simulated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Nothing moves: every KPI frozen.  Delta mode suppresses the report
    /// entirely; adaptive mode backs the period off.
    Quiet,
    /// Normal traffic: a few UEs' counters move each period.
    Active,
    /// Overload: every row changes and the anomaly KPIs
    /// (`dl_backlog_bytes`, `sojourn_us_avg`) exceed the adaptive
    /// thresholds, so the controller tightens the period.
    Burst,
}

/// Phase schedule: a fixed cycle with a per-agent offset so a fleet of
/// generators desynchronizes instead of bursting in lockstep.
const CYCLE: u64 = 100;
const QUIET_LEN: u64 = 45;
const ACTIVE_LEN: u64 = 45;
// Burst fills the remaining CYCLE - QUIET_LEN - ACTIVE_LEN = 10 ticks.

/// Backlog bytes emitted during a burst — above the monitoring iApp's
/// anomaly threshold `flexric_ctrl::monitoring::BACKLOG_BYTES_THR`.
pub const BURST_BACKLOG_BYTES: u64 = 800_000;
/// Sojourn time emitted during a burst — above
/// `flexric_ctrl::monitoring::SOJOURN_US_THR`.
pub const BURST_SOJOURN_US: u64 = 450_000;

/// Deterministic per-agent KPI generator.
#[derive(Debug, Clone)]
pub struct KpiGen {
    rng: Rng,
    /// Phase offset of this agent within the cycle.
    offset: u64,
    tick: u64,
    mac: MacStatsInd,
    rlc: RlcStatsInd,
    pdcp: PdcpStatsInd,
}

impl KpiGen {
    /// A generator with `ues` UEs (one bearer each), seeded by `seed`
    /// (pass the agent index for a desynchronized fleet).
    pub fn new(seed: u64, ues: usize) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let offset = rng.below(CYCLE);
        let mut mac = MacStatsInd { tstamp_ms: 0, cell_prbs: 106, ues: Vec::with_capacity(ues) };
        let mut rlc = RlcStatsInd::default();
        let mut pdcp = PdcpStatsInd::default();
        for i in 0..ues {
            let rnti = 0x4601 + i as u16;
            mac.ues.push(MacUeStats {
                rnti,
                cqi: (rng.below(16)) as u8,
                mcs: (rng.below(29)) as u8,
                slice_id: (i % 4) as u32,
                plmn_mcc: 208,
                plmn_mnc: 95,
                ..Default::default()
            });
            rlc.bearers.push(RlcBearerStats { rnti, drb_id: 1, ..Default::default() });
            pdcp.bearers.push(PdcpBearerStats { rnti, drb_id: 1, ..Default::default() });
        }
        KpiGen { rng, offset, tick: 0, mac, rlc, pdcp }
    }

    /// The phase the generator is currently in.
    pub fn phase(&self) -> Phase {
        match (self.tick + self.offset) % CYCLE {
            t if t < QUIET_LEN => Phase::Quiet,
            t if t < QUIET_LEN + ACTIVE_LEN => Phase::Active,
            _ => Phase::Burst,
        }
    }

    /// Advances one report period to `now_ms` and updates the snapshots.
    ///
    /// Timestamps always move (they are excluded from the delta content
    /// hash, matching the wire format); the KPI content moves per phase.
    pub fn step(&mut self, now_ms: u64) {
        self.tick += 1;
        let phase = self.phase();
        self.mac.tstamp_ms = now_ms;
        self.rlc.tstamp_ms = now_ms;
        self.pdcp.tstamp_ms = now_ms;
        match phase {
            Phase::Quiet => {}
            Phase::Active => {
                // A sparse update: each UE has a ~1-in-4 chance of traffic
                // this period, and a moving UE touches only a few fields.
                for i in 0..self.mac.ues.len() {
                    if !self.rng.chance(1, 4) {
                        continue;
                    }
                    let bytes = 1_000 + self.rng.below(20_000);
                    let u = &mut self.mac.ues[i];
                    u.prbs_dl = (bytes / 400) as u32;
                    u.tbs_dl_bytes = bytes;
                    u.dl_aggr_bytes = u.dl_aggr_bytes.wrapping_add(bytes);
                    u.dl_backlog_bytes = self.rng.below(40_000);
                    if self.rng.chance(1, 8) {
                        u.cqi = self.rng.below(16) as u8;
                        u.mcs = self.rng.below(29) as u8;
                    }
                    let b = &mut self.rlc.bearers[i];
                    b.tx_pdus += 1 + bytes / 1_400;
                    b.tx_bytes += bytes;
                    b.buffer_bytes = self.rng.below(30_000);
                    b.sojourn_us_avg = 500 + self.rng.below(5_000);
                    let p = &mut self.pdcp.bearers[i];
                    p.tx_pdus += 1 + bytes / 1_400;
                    p.tx_bytes += bytes;
                    p.tx_aggr_bytes = p.tx_aggr_bytes.wrapping_add(bytes);
                }
            }
            Phase::Burst => {
                // Everything moves, and the anomaly KPIs pierce the
                // adaptive thresholds.
                for i in 0..self.mac.ues.len() {
                    let bytes = 50_000 + self.rng.below(100_000);
                    let u = &mut self.mac.ues[i];
                    u.prbs_dl = 100;
                    u.prbs_ul = 50;
                    u.tbs_dl_bytes = bytes;
                    u.tbs_ul_bytes = bytes / 4;
                    u.dl_aggr_bytes = u.dl_aggr_bytes.wrapping_add(bytes);
                    u.ul_aggr_bytes = u.ul_aggr_bytes.wrapping_add(bytes / 4);
                    u.bsr = self.rng.below(1 << 20) as u32;
                    u.dl_backlog_bytes = BURST_BACKLOG_BYTES + self.rng.below(200_000);
                    let b = &mut self.rlc.bearers[i];
                    b.tx_pdus += bytes / 1_400;
                    b.tx_bytes += bytes;
                    b.retx_pdus += self.rng.below(10);
                    b.dropped_pdus += self.rng.below(3);
                    b.buffer_bytes = 200_000 + self.rng.below(100_000);
                    b.buffer_pkts = (b.buffer_bytes / 1_400) as u32;
                    b.sojourn_us_avg = BURST_SOJOURN_US + self.rng.below(100_000);
                    b.sojourn_us_max = b.sojourn_us_avg * 2;
                    let p = &mut self.pdcp.bearers[i];
                    p.tx_pdus += bytes / 1_400;
                    p.tx_bytes += bytes;
                    p.rx_pdus += bytes / 5_600;
                    p.rx_bytes += bytes / 4;
                    p.tx_aggr_bytes = p.tx_aggr_bytes.wrapping_add(bytes);
                    p.rx_aggr_bytes = p.rx_aggr_bytes.wrapping_add(bytes / 4);
                }
            }
        }
    }

    /// The current MAC snapshot.
    pub fn mac(&self) -> &MacStatsInd {
        &self.mac
    }

    /// The current RLC snapshot.
    pub fn rlc(&self) -> &RlcStatsInd {
        &self.rlc
    }

    /// The current PDCP snapshot.
    pub fn pdcp(&self) -> &PdcpStatsInd {
        &self.pdcp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_sm::delta::content_hash;

    #[test]
    fn deterministic_across_instances() {
        let mut a = KpiGen::new(7, 8);
        let mut b = KpiGen::new(7, 8);
        for t in 0..300 {
            a.step(t);
            b.step(t);
        }
        assert_eq!(a.mac(), b.mac());
        assert_eq!(a.rlc(), b.rlc());
        assert_eq!(a.pdcp(), b.pdcp());
    }

    #[test]
    fn quiet_phase_freezes_content() {
        let mut g = KpiGen::new(3, 4);
        let mut seen_frozen = false;
        let mut prev = content_hash(g.mac());
        for t in 1..400u64 {
            g.step(t);
            let h = content_hash(g.mac());
            if g.phase() == Phase::Quiet && h == prev {
                seen_frozen = true;
            }
            // Timestamps still advance even when content is frozen.
            assert_eq!(g.mac().tstamp_ms, t);
            prev = h;
        }
        assert!(seen_frozen, "quiet phase never froze the MAC content hash");
    }

    #[test]
    fn burst_phase_crosses_anomaly_thresholds() {
        let mut g = KpiGen::new(11, 4);
        let mut seen_burst = false;
        for t in 0..300u64 {
            g.step(t);
            if g.phase() == Phase::Burst {
                seen_burst = true;
                assert!(g.mac().ues.iter().all(|u| u.dl_backlog_bytes >= BURST_BACKLOG_BYTES));
                assert!(g.rlc().bearers.iter().all(|b| b.sojourn_us_avg >= BURST_SOJOURN_US));
            }
        }
        assert!(seen_burst, "schedule never reached a burst phase");
    }

    #[test]
    fn phases_all_occur_and_fleet_desyncs() {
        let mut quiet = 0u32;
        let mut active = 0u32;
        let mut burst = 0u32;
        let mut g = KpiGen::new(1, 2);
        for t in 0..(3 * CYCLE) {
            g.step(t);
            match g.phase() {
                Phase::Quiet => quiet += 1,
                Phase::Active => active += 1,
                Phase::Burst => burst += 1,
            }
        }
        assert!(quiet > 0 && active > 0 && burst > 0);
        // Different seeds land on different offsets (desynchronized fleet).
        let offs: std::collections::HashSet<u64> =
            (0..32).map(|s| KpiGen::new(s, 1).offset).collect();
        assert!(offs.len() > 8, "fleet offsets collapsed: {}", offs.len());
    }
}
