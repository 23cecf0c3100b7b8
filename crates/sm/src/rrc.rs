//! RRC UE-event service model.
//!
//! Notifies controllers of UE arrivals/departures with the information the
//! paper's slicing xApp needs for UE-to-service discovery: "through RRC UE
//! notifications, the xApp discovers the UE-to-service association through
//! the selected PLMN identification or slice information (S-NSSAI)
//! provided in the attach procedure" (§6.1.2).  The same events drive the
//! UE-to-controller association of disaggregated deployments (Fig. 4).

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::SmPayload;

/// Kind of RRC event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RrcEventKind {
    /// UE completed attach.
    Attach = 0,
    /// UE detached / connection released.
    Detach = 1,
    /// UE handed over into this cell.
    HandoverIn = 2,
    /// UE handed over out of this cell.
    HandoverOut = 3,
}

impl RrcEventKind {
    /// Builds an event of this kind for a UE described by `(rnti, plmn,
    /// snssai)` — helper for substrates emitting handover events.
    pub fn event(self, rnti: u16, plmn: (u16, u16), snssai: Option<u32>) -> RrcUeEvent {
        RrcUeEvent { rnti, kind: self, plmn_mcc: plmn.0, plmn_mnc: plmn.1, snssai }
    }

    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RrcEventKind::Attach),
            1 => Some(RrcEventKind::Detach),
            2 => Some(RrcEventKind::HandoverIn),
            3 => Some(RrcEventKind::HandoverOut),
            _ => None,
        }
    }
}

/// One UE event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrcUeEvent {
    /// The UE.
    pub rnti: u16,
    /// What happened.
    pub kind: RrcEventKind,
    /// Selected PLMN MCC.
    pub plmn_mcc: u16,
    /// Selected PLMN MNC.
    pub plmn_mnc: u16,
    /// Single network slice selection assistance info (24-bit SST+SD),
    /// `None` when not provided in the attach.
    pub snssai: Option<u32>,
}

/// An RRC event indication.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RrcEventInd {
    /// Event time in milliseconds since cell start.
    pub tstamp_ms: u64,
    /// The events (usually one per indication).
    pub events: Vec<RrcUeEvent>,
}

impl SmPayload for RrcEventInd {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.tstamp_ms);
        w.put_length(self.events.len());
        for e in &self.events {
            w.put_bits(e.rnti as u64, 16);
            w.put_constrained(e.kind as u64, 0, 3);
            w.put_constrained(e.plmn_mcc as u64, 0, 999);
            w.put_constrained(e.plmn_mnc as u64, 0, 999);
            w.put_bit(e.snssai.is_some());
            if let Some(s) = e.snssai {
                w.put_uint(s as u64);
            }
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let tstamp_ms = r.get_uint()?;
        let n = r.get_length()?;
        if n > 65536 {
            return Err(CodecError::Malformed { what: "too many events" });
        }
        let mut events = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let rnti = r.get_bits(16)? as u16;
            let k = r.get_constrained(0, 3)? as u8;
            let kind = RrcEventKind::from_u8(k)
                .ok_or(CodecError::BadDiscriminant { what: "rrc event", value: k as u64 })?;
            let plmn_mcc = r.get_constrained(0, 999)? as u16;
            let plmn_mnc = r.get_constrained(0, 999)? as u16;
            let snssai = if r.get_bit()? { Some(r.get_uint()? as u32) } else { None };
            events.push(RrcUeEvent { rnti, kind, plmn_mcc, plmn_mnc, snssai });
        }
        Ok(RrcEventInd { tstamp_ms, events })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let events = b.vec_off_with(&self.events, |b, e| {
            let mut t = TableBuilder::new();
            t.u16(0, e.rnti).u8(1, e.kind as u8).u16(2, e.plmn_mcc).u16(3, e.plmn_mnc);
            if let Some(s) = e.snssai {
                t.u32(4, s);
            }
            t.end(b)
        });
        let mut t = TableBuilder::new();
        t.u64(0, self.tstamp_ms).off(1, events);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let v = t.vector_or_empty(1)?;
        let mut events = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            let et = v.table_at(i)?;
            let k = et.req_u8(1, "rrc event kind")?;
            events.push(RrcUeEvent {
                rnti: et.req_u16(0, "rnti")?,
                kind: RrcEventKind::from_u8(k)
                    .ok_or(CodecError::BadDiscriminant { what: "rrc event", value: k as u64 })?,
                plmn_mcc: et.req_u16(2, "mcc")?,
                plmn_mnc: et.req_u16(3, "mnc")?,
                snssai: et.u32(4)?,
            });
        }
        Ok(RrcEventInd { tstamp_ms: t.req_u64(0, "tstamp")?, events })
    }
}

/// Control messages of the RRC SM: connection-management actions an xApp
/// can trigger ("user associations and handovers can be controlled" —
/// paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrcCtrl {
    /// Hand a UE over to another cell (mobility load balancing).
    Handover {
        /// The UE to move.
        rnti: u16,
        /// Target cell id (deployment-global index).
        target_cell: u32,
    },
    /// Release a UE's connection.
    Release {
        /// The UE to release.
        rnti: u16,
    },
}

impl SmPayload for RrcCtrl {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        match self {
            RrcCtrl::Handover { rnti, target_cell } => {
                w.put_constrained(0, 0, 1);
                w.put_bits(*rnti as u64, 16);
                w.put_uint(*target_cell as u64);
            }
            RrcCtrl::Release { rnti } => {
                w.put_constrained(1, 0, 1);
                w.put_bits(*rnti as u64, 16);
            }
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        match r.get_constrained(0, 1)? {
            0 => Ok(RrcCtrl::Handover {
                rnti: r.get_bits(16)? as u16,
                target_cell: r.get_uint()? as u32,
            }),
            1 => Ok(RrcCtrl::Release { rnti: r.get_bits(16)? as u16 }),
            v => Err(CodecError::BadDiscriminant { what: "rrc ctrl", value: v }),
        }
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let mut t = TableBuilder::new();
        match self {
            RrcCtrl::Handover { rnti, target_cell } => {
                t.u8(0, 0).u16(1, *rnti).u32(2, *target_cell);
            }
            RrcCtrl::Release { rnti } => {
                t.u8(0, 1).u16(1, *rnti);
            }
        }
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        match t.req_u8(0, "rrc ctrl kind")? {
            0 => Ok(RrcCtrl::Handover {
                rnti: t.req_u16(1, "rnti")?,
                target_cell: t.req_u32(2, "target cell")?,
            }),
            1 => Ok(RrcCtrl::Release { rnti: t.req_u16(1, "rnti")? }),
            v => Err(CodecError::BadDiscriminant { what: "rrc ctrl", value: v as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn ctrl_roundtrip() {
        roundtrip_both(&RrcCtrl::Handover { rnti: 0x4601, target_cell: 2 });
        roundtrip_both(&RrcCtrl::Release { rnti: u16::MAX });
        garbage_rejected::<RrcCtrl>();
    }

    #[test]
    fn roundtrip() {
        roundtrip_both(&RrcEventInd::default());
        roundtrip_both(&RrcEventInd {
            tstamp_ms: 1234,
            events: vec![
                RrcUeEvent {
                    rnti: 0x4601,
                    kind: RrcEventKind::Attach,
                    plmn_mcc: 208,
                    plmn_mnc: 95,
                    snssai: Some(0x01_0000AA),
                },
                RrcUeEvent {
                    rnti: 0x4602,
                    kind: RrcEventKind::Detach,
                    plmn_mcc: 1,
                    plmn_mnc: 1,
                    snssai: None,
                },
                RrcUeEvent {
                    rnti: 1,
                    kind: RrcEventKind::HandoverIn,
                    plmn_mcc: 999,
                    plmn_mnc: 999,
                    snssai: Some(u32::MAX),
                },
            ],
        });
        garbage_rejected::<RrcEventInd>();
    }

    #[test]
    fn kind_discriminants() {
        for k in [
            RrcEventKind::Attach,
            RrcEventKind::Detach,
            RrcEventKind::HandoverIn,
            RrcEventKind::HandoverOut,
        ] {
            assert_eq!(RrcEventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(RrcEventKind::from_u8(4), None);
    }
}
