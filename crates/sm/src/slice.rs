//! Slice control service model (SC SM, paper §6.1.2).
//!
//! Abstracts the configuration of radio-resource slices in a RAT-agnostic
//! way: a *slice scheduler* distributes resources among slices, and a
//! per-slice *UE scheduler* distributes them among the slice's UEs
//! (Fig. 12).  The SM lets a controller select the slice algorithm,
//! add/modify/delete slices with algorithm-specific parameters, and
//! associate UEs to slices.  The NVS parameters mirror the paper's
//! Appendix B: capacity slices carry a resource share, rate slices carry a
//! reserved rate over a reference rate.

use flexric_codec::schema::{Ahead, U16In32};
use flexric_codec::{wire_choice, wire_enum, wire_table};

/// Shares are expressed in milli-units (1000 = 100 %), keeping the wire
/// format integer-only.
pub const SHARE_SCALE: u32 = 1000;

/// The slice-scheduling algorithm installed at the MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum SliceAlgo {
    /// No slicing: a single implicit slice over all resources.
    #[default]
    None = 0,
    /// Static PRB partitioning.
    Static = 1,
    /// NVS (Kokku et al.), with work-conserving sharing.
    Nvs = 2,
    /// NVS without sharing: idle slices waste their slots (Fig. 13b upper).
    NvsNoSharing = 3,
}

impl SliceAlgo {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SliceAlgo::None),
            1 => Some(SliceAlgo::Static),
            2 => Some(SliceAlgo::Nvs),
            3 => Some(SliceAlgo::NvsNoSharing),
            _ => None,
        }
    }
}

/// The per-slice UE scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum UeSchedAlgo {
    /// Round-robin over backlogged UEs.
    #[default]
    RoundRobin = 0,
    /// Proportional fair.
    PropFair = 1,
    /// Maximum throughput (highest MCS first).
    MaxThroughput = 2,
}

impl UeSchedAlgo {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(UeSchedAlgo::RoundRobin),
            1 => Some(UeSchedAlgo::PropFair),
            2 => Some(UeSchedAlgo::MaxThroughput),
            _ => None,
        }
    }
}

/// Algorithm-specific slice parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceParams {
    /// NVS capacity slice: a share of cell resources, in milli-units.
    NvsCapacity {
        /// Resource share (`0..=1000`).
        share_milli: u32,
    },
    /// NVS rate slice: reserved rate over a reference rate.
    NvsRate {
        /// Reserved rate in kbit/s.
        rate_kbps: u32,
        /// Reference rate in kbit/s.
        ref_kbps: u32,
    },
    /// Static PRB range (inclusive).
    StaticRb {
        /// First PRB of the partition.
        lo: u16,
        /// Last PRB of the partition.
        hi: u16,
    },
}

impl SliceParams {
    /// The share of cell resources this parameterization reserves, as a
    /// fraction, given the cell's reference rate for rate slices.
    pub fn share(&self, cell_prbs: u32) -> f64 {
        match self {
            SliceParams::NvsCapacity { share_milli } => *share_milli as f64 / SHARE_SCALE as f64,
            SliceParams::NvsRate { rate_kbps, ref_kbps } => {
                if *ref_kbps == 0 {
                    0.0
                } else {
                    *rate_kbps as f64 / *ref_kbps as f64
                }
            }
            SliceParams::StaticRb { lo, hi } => {
                if hi < lo || cell_prbs == 0 {
                    0.0
                } else {
                    (*hi - *lo + 1) as f64 / cell_prbs as f64
                }
            }
        }
    }
}

/// Configuration of one slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceConf {
    /// Slice id, unique within the cell.
    pub id: u32,
    /// Free-text label ("operator A sub-slice 1").
    pub label: String,
    /// Algorithm-specific parameters.
    pub params: SliceParams,
    /// UE scheduler used inside this slice.
    pub ue_sched: UeSchedAlgo,
}

/// Control messages of the SC SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceCtrl {
    /// Select the slice algorithm.
    SetAlgo {
        /// The algorithm to install.
        algo: SliceAlgo,
    },
    /// Add or reconfigure slices (upsert by id).
    AddModSlices {
        /// The slice configurations.
        slices: Vec<SliceConf>,
    },
    /// Delete slices by id.
    DelSlices {
        /// Ids to remove.
        ids: Vec<u32>,
    },
    /// Associate UEs with slices.
    AssocUeSlice {
        /// `(rnti, slice id)` pairs.
        assoc: Vec<(u16, u32)>,
    },
}

/// Per-slice status in a statistics indication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceStatus {
    /// The slice's configuration.
    pub conf: SliceConf,
    /// PRBs allocated to the slice in the reporting period.
    pub alloc_prbs: u64,
    /// MAC throughput of the slice in the period, kbit/s.
    pub thr_kbps: u64,
    /// Number of UEs associated.
    pub num_ues: u32,
}

/// A slice statistics indication: current algorithm, slices, associations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SliceStatsInd {
    /// Snapshot time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// The active slice algorithm.
    pub algo: SliceAlgo,
    /// Per-slice status.
    pub slices: Vec<SliceStatus>,
    /// UE-to-slice association, `(rnti, slice id)`.
    pub ue_assoc: Vec<(u16, u32)>,
}

wire_enum!(SliceAlgo = 3, UeSchedAlgo = 2);

// The PRB bounds are `u16`s that FB has always kept in `u32` slots.
wire_choice!(SliceParams {
    0 => NvsCapacity { share_milli: u32 => 1 },
    1 => NvsRate { rate_kbps: u32 => 1, ref_kbps: u32 => 2 },
    2 => StaticRb { lo: U16In32 = bits(16) => 1, hi: U16In32 = bits(16) => 2 },
});
wire_table!(SliceConf {
    id: u32 => 0,
    label: String => 1,
    params: SliceParams => 3,
    ue_sched: UeSchedAlgo => 2,
});
wire_choice!(SliceCtrl {
    0 => SetAlgo { algo: SliceAlgo => 1 },
    1 => AddModSlices { slices: Ahead<SliceConf> => 2 },
    2 => DelSlices { ids: Vec<u32> => 2 },
    3 => AssocUeSlice { assoc: Vec<(u16, u32)> => 2 },
});
wire_table!(SliceStatus {
    conf: SliceConf => 0,
    alloc_prbs: u64 => 1,
    thr_kbps: u64 => 2,
    num_ues: u32 => 3,
});
wire_table!(SliceStatsInd {
    tstamp_ms: u64 => 0,
    algo: SliceAlgo => 1,
    slices: Ahead<SliceStatus> => 2,
    ue_assoc: Vec<(u16, u32)> => 3,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    fn confs() -> Vec<SliceConf> {
        vec![
            SliceConf {
                id: 0,
                label: "op-a".into(),
                params: SliceParams::NvsCapacity { share_milli: 660 },
                ue_sched: UeSchedAlgo::PropFair,
            },
            SliceConf {
                id: 1,
                label: "op-b".into(),
                params: SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 50_000 },
                ue_sched: UeSchedAlgo::RoundRobin,
            },
            SliceConf {
                id: 2,
                label: "static".into(),
                params: SliceParams::StaticRb { lo: 0, hi: 24 },
                ue_sched: UeSchedAlgo::MaxThroughput,
            },
        ]
    }

    #[test]
    fn ctrl_roundtrip() {
        roundtrip_both(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs });
        roundtrip_both(&SliceCtrl::SetAlgo { algo: SliceAlgo::NvsNoSharing });
        roundtrip_both(&SliceCtrl::AddModSlices { slices: confs() });
        roundtrip_both(&SliceCtrl::AddModSlices { slices: vec![] });
        roundtrip_both(&SliceCtrl::DelSlices { ids: vec![0, 7, u32::MAX] });
        roundtrip_both(&SliceCtrl::AssocUeSlice {
            assoc: vec![(0x4601, 0), (0x4602, 1), (u16::MAX, u32::MAX)],
        });
        garbage_rejected::<SliceCtrl>();
    }

    #[test]
    fn stats_roundtrip() {
        roundtrip_both(&SliceStatsInd::default());
        roundtrip_both(&SliceStatsInd {
            tstamp_ms: 42,
            algo: SliceAlgo::Nvs,
            slices: confs()
                .into_iter()
                .map(|conf| SliceStatus { conf, alloc_prbs: 999, thr_kbps: 30_000, num_ues: 2 })
                .collect(),
            ue_assoc: vec![(0x4601, 0), (0x4602, 1)],
        });
        garbage_rejected::<SliceStatsInd>();
    }

    #[test]
    fn share_computation() {
        assert!((SliceParams::NvsCapacity { share_milli: 500 }.share(100) - 0.5).abs() < 1e-9);
        assert!(
            (SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 50_000 }.share(100) - 0.1).abs()
                < 1e-9
        );
        assert!((SliceParams::StaticRb { lo: 0, hi: 24 }.share(50) - 0.5).abs() < 1e-9);
        // Degenerate cases do not divide by zero.
        assert_eq!(SliceParams::NvsRate { rate_kbps: 1, ref_kbps: 0 }.share(100), 0.0);
        assert_eq!(SliceParams::StaticRb { lo: 10, hi: 5 }.share(100), 0.0);
        assert_eq!(SliceParams::StaticRb { lo: 0, hi: 5 }.share(0), 0.0);
    }

    #[test]
    fn algo_discriminants() {
        for a in [SliceAlgo::None, SliceAlgo::Static, SliceAlgo::Nvs, SliceAlgo::NvsNoSharing] {
            assert_eq!(SliceAlgo::from_u8(a as u8), Some(a));
        }
        assert_eq!(SliceAlgo::from_u8(4), None);
        for s in [UeSchedAlgo::RoundRobin, UeSchedAlgo::PropFair, UeSchedAlgo::MaxThroughput] {
            assert_eq!(UeSchedAlgo::from_u8(s as u8), Some(s));
        }
        assert_eq!(UeSchedAlgo::from_u8(3), None);
    }
}
