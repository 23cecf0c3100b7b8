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

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::SmPayload;

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

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

fn put_params<B: ByteSink>(w: &mut BitWriter<B>, p: &SliceParams) {
    match p {
        SliceParams::NvsCapacity { share_milli } => {
            w.put_constrained(0, 0, 2);
            w.put_uint(*share_milli as u64);
        }
        SliceParams::NvsRate { rate_kbps, ref_kbps } => {
            w.put_constrained(1, 0, 2);
            w.put_uint(*rate_kbps as u64);
            w.put_uint(*ref_kbps as u64);
        }
        SliceParams::StaticRb { lo, hi } => {
            w.put_constrained(2, 0, 2);
            w.put_bits(*lo as u64, 16);
            w.put_bits(*hi as u64, 16);
        }
    }
}

fn get_params(r: &mut BitReader) -> Result<SliceParams> {
    match r.get_constrained(0, 2)? {
        0 => Ok(SliceParams::NvsCapacity { share_milli: r.get_uint()? as u32 }),
        1 => Ok(SliceParams::NvsRate {
            rate_kbps: r.get_uint()? as u32,
            ref_kbps: r.get_uint()? as u32,
        }),
        2 => Ok(SliceParams::StaticRb { lo: r.get_bits(16)? as u16, hi: r.get_bits(16)? as u16 }),
        v => Err(CodecError::BadDiscriminant { what: "slice params", value: v }),
    }
}

fn put_conf<B: ByteSink>(w: &mut BitWriter<B>, c: &SliceConf) {
    w.put_uint(c.id as u64);
    w.put_utf8(&c.label);
    put_params(w, &c.params);
    w.put_constrained(c.ue_sched as u64, 0, 2);
}

fn get_conf(r: &mut BitReader) -> Result<SliceConf> {
    let id = r.get_uint()? as u32;
    let label = r.get_utf8()?;
    let params = get_params(r)?;
    let s = r.get_constrained(0, 2)? as u8;
    let ue_sched = UeSchedAlgo::from_u8(s)
        .ok_or(CodecError::BadDiscriminant { what: "ue sched", value: s as u64 })?;
    Ok(SliceConf { id, label, params, ue_sched })
}

fn enc_params_fb(t: &mut TableBuilder, base: u16, p: &SliceParams) {
    match p {
        SliceParams::NvsCapacity { share_milli } => {
            t.u8(base, 0).u32(base + 1, *share_milli);
        }
        SliceParams::NvsRate { rate_kbps, ref_kbps } => {
            t.u8(base, 1).u32(base + 1, *rate_kbps).u32(base + 2, *ref_kbps);
        }
        SliceParams::StaticRb { lo, hi } => {
            t.u8(base, 2).u32(base + 1, *lo as u32).u32(base + 2, *hi as u32);
        }
    }
}

fn dec_params_fb(t: &FbTable, base: u16) -> Result<SliceParams> {
    match t.req_u8(base, "params kind")? {
        0 => Ok(SliceParams::NvsCapacity { share_milli: t.req_u32(base + 1, "share")? }),
        1 => Ok(SliceParams::NvsRate {
            rate_kbps: t.req_u32(base + 1, "rate")?,
            ref_kbps: t.req_u32(base + 2, "ref rate")?,
        }),
        2 => Ok(SliceParams::StaticRb {
            lo: t.req_u32(base + 1, "rb lo")? as u16,
            hi: t.req_u32(base + 2, "rb hi")? as u16,
        }),
        v => Err(CodecError::BadDiscriminant { what: "slice params", value: v as u64 }),
    }
}

fn enc_conf_fb<B: ByteSink>(b: &mut FbBuilder<B>, c: &SliceConf) -> u32 {
    let label = b.string(&c.label);
    let mut t = TableBuilder::new();
    t.u32(0, c.id).off(1, label).u8(2, c.ue_sched as u8);
    enc_params_fb(&mut t, 3, &c.params);
    t.end(b)
}

fn dec_conf_fb(t: &FbTable) -> Result<SliceConf> {
    let s = t.req_u8(2, "ue sched")?;
    Ok(SliceConf {
        id: t.req_u32(0, "slice id")?,
        label: t.string(1)?.ok_or(CodecError::Malformed { what: "slice label" })?.to_owned(),
        params: dec_params_fb(t, 3)?,
        ue_sched: UeSchedAlgo::from_u8(s)
            .ok_or(CodecError::BadDiscriminant { what: "ue sched", value: s as u64 })?,
    })
}

fn put_assoc<B: ByteSink>(w: &mut BitWriter<B>, assoc: &[(u16, u32)]) {
    w.put_length(assoc.len());
    for (rnti, slice) in assoc {
        w.put_bits(*rnti as u64, 16);
        w.put_uint(*slice as u64);
    }
}

fn get_assoc(r: &mut BitReader) -> Result<Vec<(u16, u32)>> {
    let n = r.get_length()?;
    if n > 65536 {
        return Err(CodecError::Malformed { what: "too many associations" });
    }
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((r.get_bits(16)? as u16, r.get_uint()? as u32));
    }
    Ok(out)
}

fn enc_assoc_fb<B: ByteSink>(b: &mut FbBuilder<B>, assoc: &[(u16, u32)]) -> u32 {
    // Encoded as a flat u64 vector: (rnti << 32) | slice.
    let packed: Vec<u64> = assoc.iter().map(|(r, s)| ((*r as u64) << 32) | *s as u64).collect();
    b.vec_u64(&packed)
}

fn dec_assoc_fb(v: &flexric_codec::fb::FbVector) -> Result<Vec<(u16, u32)>> {
    let mut out = Vec::with_capacity(v.len());
    for i in 0..v.len() {
        let p = v.u64_at(i)?;
        out.push(((p >> 32) as u16, p as u32));
    }
    Ok(out)
}

impl SmPayload for SliceCtrl {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        match self {
            SliceCtrl::SetAlgo { algo } => {
                w.put_constrained(0, 0, 3);
                w.put_constrained(*algo as u64, 0, 3);
            }
            SliceCtrl::AddModSlices { slices } => {
                w.put_constrained(1, 0, 3);
                w.put_length(slices.len());
                for s in slices {
                    put_conf(w, s);
                }
            }
            SliceCtrl::DelSlices { ids } => {
                w.put_constrained(2, 0, 3);
                w.put_length(ids.len());
                for id in ids {
                    w.put_uint(*id as u64);
                }
            }
            SliceCtrl::AssocUeSlice { assoc } => {
                w.put_constrained(3, 0, 3);
                put_assoc(w, assoc);
            }
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        match r.get_constrained(0, 3)? {
            0 => {
                let a = r.get_constrained(0, 3)? as u8;
                Ok(SliceCtrl::SetAlgo {
                    algo: SliceAlgo::from_u8(a)
                        .ok_or(CodecError::BadDiscriminant { what: "algo", value: a as u64 })?,
                })
            }
            1 => {
                let n = r.get_length()?;
                if n > 4096 {
                    return Err(CodecError::Malformed { what: "too many slices" });
                }
                let mut slices = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    slices.push(get_conf(r)?);
                }
                Ok(SliceCtrl::AddModSlices { slices })
            }
            2 => {
                let n = r.get_length()?;
                if n > 4096 {
                    return Err(CodecError::Malformed { what: "too many ids" });
                }
                let mut ids = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    ids.push(r.get_uint()? as u32);
                }
                Ok(SliceCtrl::DelSlices { ids })
            }
            3 => Ok(SliceCtrl::AssocUeSlice { assoc: get_assoc(r)? }),
            v => Err(CodecError::BadDiscriminant { what: "slice ctrl", value: v }),
        }
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        match self {
            SliceCtrl::SetAlgo { algo } => {
                let mut t = TableBuilder::new();
                t.u8(0, 0).u8(1, *algo as u8);
                t.end(b)
            }
            SliceCtrl::AddModSlices { slices } => {
                let v = b.vec_off_with(slices, enc_conf_fb);
                let mut t = TableBuilder::new();
                t.u8(0, 1).off(2, v);
                t.end(b)
            }
            SliceCtrl::DelSlices { ids } => {
                let v = b.vec_u32(ids);
                let mut t = TableBuilder::new();
                t.u8(0, 2).off(2, v);
                t.end(b)
            }
            SliceCtrl::AssocUeSlice { assoc } => {
                let v = enc_assoc_fb(b, assoc);
                let mut t = TableBuilder::new();
                t.u8(0, 3).off(2, v);
                t.end(b)
            }
        }
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        match t.req_u8(0, "slice ctrl kind")? {
            0 => {
                let a = t.req_u8(1, "algo")?;
                Ok(SliceCtrl::SetAlgo {
                    algo: SliceAlgo::from_u8(a)
                        .ok_or(CodecError::BadDiscriminant { what: "algo", value: a as u64 })?,
                })
            }
            1 => {
                let v = t.vector_or_empty(2)?;
                let mut slices = Vec::with_capacity(v.len());
                for i in 0..v.len() {
                    slices.push(dec_conf_fb(&v.table_at(i)?)?);
                }
                Ok(SliceCtrl::AddModSlices { slices })
            }
            2 => {
                let v = t.vector_or_empty(2)?;
                let mut ids = Vec::with_capacity(v.len());
                for i in 0..v.len() {
                    ids.push(v.u32_at(i)?);
                }
                Ok(SliceCtrl::DelSlices { ids })
            }
            3 => Ok(SliceCtrl::AssocUeSlice { assoc: dec_assoc_fb(&t.vector_or_empty(2)?)? }),
            v => Err(CodecError::BadDiscriminant { what: "slice ctrl", value: v as u64 }),
        }
    }
}

impl SmPayload for SliceStatsInd {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_constrained(self.algo as u64, 0, 3);
        w.put_length(self.slices.len());
        for s in &self.slices {
            put_conf(w, &s.conf);
            w.put_uint(s.alloc_prbs);
            w.put_uint(s.thr_kbps);
            w.put_uint(s.num_ues as u64);
        }
        put_assoc(w, &self.ue_assoc);
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let a = r.get_constrained(0, 3)? as u8;
        let algo = SliceAlgo::from_u8(a)
            .ok_or(CodecError::BadDiscriminant { what: "algo", value: a as u64 })?;
        let n = r.get_length()?;
        if n > 4096 {
            return Err(CodecError::Malformed { what: "too many slices" });
        }
        let mut slices = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            slices.push(SliceStatus {
                conf: get_conf(r)?,
                alloc_prbs: r.get_uint()?,
                thr_kbps: r.get_uint()?,
                num_ues: r.get_uint()? as u32,
            });
        }
        let ue_assoc = get_assoc(r)?;
        Ok(SliceStatsInd { tstamp_ms, algo, slices, ue_assoc })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let slices = b.vec_off_with(&self.slices, |b, s| {
            let conf = enc_conf_fb(b, &s.conf);
            let mut t = TableBuilder::new();
            t.off(0, conf).u64(1, s.alloc_prbs).u64(2, s.thr_kbps).u32(3, s.num_ues);
            t.end(b)
        });
        let assoc = enc_assoc_fb(b, &self.ue_assoc);
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms).u8(1, self.algo as u8).off(2, slices).off(3, assoc);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let a = t.req_u8(1, "algo")?;
        let v = t.vector_or_empty(2)?;
        let mut slices = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            let st = v.table_at(i)?;
            slices.push(SliceStatus {
                conf: dec_conf_fb(&st.req_table(0, "conf")?)?,
                alloc_prbs: st.req_u64(1, "alloc prbs")?,
                thr_kbps: st.req_u64(2, "thr")?,
                num_ues: st.req_u32(3, "num ues")?,
            });
        }
        Ok(SliceStatsInd {
            tstamp_ms: t.req_u64(0, "tstamp")?,
            algo: SliceAlgo::from_u8(a)
                .ok_or(CodecError::BadDiscriminant { what: "algo", value: a as u64 })?,
            slices,
            ue_assoc: dec_assoc_fb(&t.vector_or_empty(3)?)?,
        })
    }
}

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
