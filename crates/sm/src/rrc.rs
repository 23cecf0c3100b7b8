//! RRC UE-event service model.
//!
//! Notifies controllers of UE arrivals/departures with the information the
//! paper's slicing xApp needs for UE-to-service discovery: "through RRC UE
//! notifications, the xApp discovers the UE-to-service association through
//! the selected PLMN identification or slice information (S-NSSAI)
//! provided in the attach procedure" (§6.1.2).  The same events drive the
//! UE-to-controller association of disaggregated deployments (Fig. 4).

use flexric_codec::schema::Ahead;
use flexric_codec::{wire_choice, wire_enum, wire_table};

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

wire_enum!(RrcEventKind = 3);
wire_table!(RrcUeEvent {
    rnti: u16 = bits(16) => 0,
    kind: RrcEventKind => 1,
    plmn_mcc: u16 = range(0, 999) => 2,
    plmn_mnc: u16 = range(0, 999) => 3,
    snssai: Option<u32> => 4,
});
wire_table!(RrcEventInd { tstamp_ms: u64 => 0, events: Ahead<RrcUeEvent> => 1 });

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

wire_choice!(RrcCtrl {
    0 => Handover { rnti: u16 = bits(16) => 1, target_cell: u32 => 2 },
    1 => Release { rnti: u16 = bits(16) => 1 },
});

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
