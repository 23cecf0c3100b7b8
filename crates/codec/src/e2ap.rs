//! E2AP in both encodings, from one declaration per message.
//!
//! Every message of [`flexric_e2ap::E2apPdu`] and every structure inside one
//! is listed once below with [`wire_table!`] — each field with its PER form
//! and its FB slot — and the aligned-PER-style and the FlatBuffers-style
//! codec are both derived from that list ([`crate::schema`] has the grammar,
//! the two orders a list is walked in, and the one set of constraints both
//! decoders enforce).
//!
//! **PER** is the message type and then the message's fields in the order
//! of its struct, bit-packed: no field can be located without decoding
//! everything before it, so even `peek` is a full decode — the defining cost
//! of PER that the paper's Figs. 7/8b measure.
//!
//! **FB** is a root table over a body table.  The root carries the routing
//! header in fixed slots, so `peek` extracts it in O(1) directly from
//! the raw bytes — "FB's design avoids an explicit decoding step, reading
//! directly from raw bytes, \[so\] the subscription management can look up
//! the corresponding subscription much faster" (paper §5.3) — and
//! [`indication_payload`] slices the SM payload out of an indication's body
//! the same way; both read the slots of `slot`, as the declarations do.
//!
//! | root slot | content |
//! |-----------|---------|
//! | 0         | message type (u8) |
//! | 1, 2      | RIC request id: requestor, instance (u16, functional procedures) |
//! | 3         | RAN function id (u16, functional procedures) |
//! | 4         | body table offset |
//!
//! **Written by hand** are the types whose two encodings share no shape,
//! each its four operations and no more: [`Plmn`] (three slots from a
//! base), [`Cause`] (group and value in PER, one `u16` in FB), [`FnVersion`]
//! (absent at 1.0), the request id and the subsequent action (two slots
//! each), the two id newtypes (an integer of their own width as a field, a
//! `u16` in a list), and [`ErrorIndication`], whose optional routing ids
//! live in the root under presence flags in the body.

use bytes::Bytes;
use flexric_e2ap::*;

use crate::error::{CodecError, Result};
use crate::fb::{FbBuilder, FbTable, FbVector, FbView, TableBuilder};
use crate::per::{BitReader, BitWriter};
use crate::schema::{named, required, Field, Kind, Src, Table, Wire};
use crate::sink::ByteSink;
use crate::{wire_enum, wire_table};

/// The FB slots the fast path reads without the decoder: of the root, and
/// of an indication's body.
mod slot {
    pub const MSG_TYPE: u16 = 0;
    /// The requestor; the instance is in the next.
    pub const REQ_ID: u16 = 1;
    pub const RAN_FUNCTION: u16 = 3;
    pub const BODY: u16 = 4;
    pub const IND_HEADER: u16 = 2;
    pub const IND_MESSAGE: u16 = 3;
}

const MSG_TYPE: Field = named("msg_type");
const REQ_ID: Field = named("req_id");
const RAN_FUNCTION: Field = named("ran_function");
const CAUSE: Field = named("cause");

// ---------------------------------------------------------------------------
// Types written by hand
// ---------------------------------------------------------------------------

wire_enum!(
    MsgType = 25,
    E2NodeType = 6,
    InterfaceType = 6,
    TnlUsage = 2,
    RicActionType = 2,
    SubsequentActionType = 1,
    RicIndicationType = 1,
    ControlAckRequest = 2,
);

const MCC: Field = Field::new("mcc", Kind::range(0, 999), u16::MAX as u64);
const MNC: Field = Field::new("mnc", Kind::range(0, 999), u16::MAX as u64);

/// MCC, MNC and the MNC's digits (2 or 3: one PER bit), in FB three slots
/// of the table that holds the PLMN.
impl Wire for Plmn {
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        self.mcc.put_per(&MCC, w);
        self.mnc.put_per(&MNC, w);
        w.put_constrained(self.mnc_digits as u64, 2, 3);
    }
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        let (mcc, mnc) = (Wire::get_per(&MCC, r)?, Wire::get_per(&MNC, r)?);
        Ok(Plmn { mcc, mnc, mnc_digits: r.get_constrained(2, 3)? as u8 })
    }
    fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, base: u16) {
        t.u16(base, self.mcc).u16(base + 1, self.mnc).u8(base + 2, self.mnc_digits);
    }
    fn get_fb(_: &Field, t: &FbTable<'_>, base: u16, _: Src<'_>) -> Result<Option<Self>> {
        let Some(mcc) = Wire::get_fb(&MCC, t, base, None)? else { return Ok(None) };
        let mnc = required(&MNC, Wire::get_fb(&MNC, t, base + 1, None)?)?;
        let mnc_digits = t.req_u8(base + 2, "mnc_digits")?;
        if !(2..=3).contains(&mnc_digits) {
            return Err(CodecError::OutOfRange { what: "mnc_digits", value: mnc_digits as u64 });
        }
        Ok(Some(Plmn { mcc, mnc, mnc_digits }))
    }
}

/// The cause `v` holds as group and value, high byte and low.
fn cause(f: &Field, v: u64) -> Result<Cause> {
    let known = Cause::from_parts((v >> 8) as u8, v as u8);
    known.ok_or(CodecError::BadDiscriminant { what: f.name, value: v })
}

/// PER its group and its value, FB both in one `u16`.
impl Wire for Cause {
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_constrained(self.group() as u64, 0, 4);
        w.put_constrained(self.value() as u64, 0, 15);
    }
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        let (group, value) = (r.get_constrained(0, 4)?, r.get_constrained(0, 15)?);
        cause(f, group << 8 | value)
    }
    fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        t.u16(slot, (self.group() as u16) << 8 | self.value() as u16);
    }
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        t.u16(slot)?.map(|v| cause(f, v as u64)).transpose()
    }
}

/// Major and minor, absent at 1.0 — a PER presence bit, two FB slots not
/// written — so that peers and captures from before versions still read.
impl Wire for FnVersion {
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        let versioned = *self != FnVersion::V1;
        w.put_bit(versioned);
        if versioned {
            w.put_bits(self.major as u64, 16);
            w.put_bits(self.minor as u64, 16);
        }
    }
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        if !r.get_bit()? {
            return Ok(FnVersion::V1);
        }
        Ok(FnVersion::new(r.get_bits(16)? as u16, r.get_bits(16)? as u16))
    }
    fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, base: u16) {
        if *self != FnVersion::V1 {
            t.u16(base, self.major).u16(base + 1, self.minor);
        }
    }
    fn get_fb(_: &Field, t: &FbTable<'_>, base: u16, _: Src<'_>) -> Result<Option<Self>> {
        Ok(Some(FnVersion::new(t.u16(base)?.unwrap_or(1), t.u16(base + 1)?.unwrap_or(0))))
    }
}

/// Requestor and instance: sixteen bits each, two slots of the FB root.
impl Wire for RicRequestId {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_bits(self.requestor as u64, 16);
        w.put_bits(self.instance as u64, 16);
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        Ok(RicRequestId::new(r.get_bits(16)? as u16, r.get_bits(16)? as u16))
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, base: u16) {
        t.u16(base, self.requestor).u16(base + 1, self.instance);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, base: u16, _: Src<'_>) -> Result<Option<Self>> {
        Ok(match (t.u16(base)?, t.u16(base + 1)?) {
            (Some(requestor), Some(instance)) => Some(RicRequestId::new(requestor, instance)),
            _ => None,
        })
    }
}

const WAIT_MS: Field = Field::new("wait_ms", Kind::uint, u32::MAX as u64);

/// Kind and wait, in FB two slots of the action's table, there if the
/// first is.
impl Wire for RicSubsequentAction {
    fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>) {
        self.kind.put_per(f, w);
        self.wait_ms.put_per(&WAIT_MS, w);
    }
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        Ok(RicSubsequentAction { kind: Wire::get_per(f, r)?, wait_ms: Wire::get_per(&WAIT_MS, r)? })
    }
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, base: u16) {
        self.kind.put_fb(b, t, base);
        self.wait_ms.put_fb(b, t, base + 1);
    }
    fn get_fb(f: &Field, t: &FbTable<'_>, base: u16, _: Src<'_>) -> Result<Option<Self>> {
        let Some(kind) = Wire::get_fb(f, t, base, None)? else { return Ok(None) };
        let wait_ms = required(&WAIT_MS, Wire::get_fb(&WAIT_MS, t, base + 1, None)?)?;
        Ok(Some(RicSubsequentAction { kind, wait_ms }))
    }
}

/// An id newtype.  As a field it is the integer it wraps; listed, it is a
/// `u16` whatever it wraps — an element of a scalar vector, or slot 0 of a
/// table that a cause shares — and is checked against the same maximum.
macro_rules! wire_id {
    ($Id:ident($raw:ident) = $($kind:tt)+) => {
        const _: () = {
            const ID: Field = Field::new(stringify!($Id), Kind::$($kind)+, $raw::MAX as u64);

            fn listed(v: u16) -> Result<$Id> {
                Ok($Id(ID.check(v as u64)? as $raw))
            }

            impl Wire for $Id {
                #[inline]
                fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
                    self.0.put_per(&ID, w);
                }
                #[inline]
                fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                    Wire::get_per(&ID, r).map($Id)
                }
                #[inline]
                fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
                    self.0.put_fb(b, t, slot);
                }
                #[inline]
                fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
                    Ok(Wire::get_fb(&ID, t, slot, None)?.map($Id))
                }
            }

            impl Table for $Id {
                const SLOTS: u16 = 1;
                fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                    self.put_per(&ID, w);
                }
                fn get_fields(r: &mut BitReader<'_>) -> Result<Self> {
                    Wire::get_per(&ID, r)
                }
                fn fill<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder) {
                    t.u16(0, u16::from(self.0));
                }
                fn from_table(t: &FbTable<'_>, _: Src<'_>) -> Result<Self> {
                    listed(t.req_u16(0, ID.name)?)
                }
                fn to_vector<B: ByteSink>(items: &[Self], b: &mut FbBuilder<B>) -> u32 {
                    let ids: Vec<u16> = items.iter().map(|id| u16::from(id.0)).collect();
                    b.vec_u16(&ids)
                }
                fn from_vector(v: &FbVector<'_>, _: Src<'_>) -> Result<Vec<Self>> {
                    (0..v.len()).map(|i| listed(v.u16_at(i)?)).collect()
                }
            }
        };
    };
}
wire_id!(RanFunctionId(u16) = range(0, 4095));
wire_id!(RicActionId(u8) = bits(8));

/// An element of a list and why it failed: the element's own table, the
/// cause in the slot after its last.
impl<T: Table> Table for (T, Cause) {
    const SLOTS: u16 = T::SLOTS + 1;
    fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        self.0.put_fields(w);
        self.1.put_per(&CAUSE, w);
    }
    fn get_fields(r: &mut BitReader<'_>) -> Result<Self> {
        Ok((T::get_fields(r)?, Wire::get_per(&CAUSE, r)?))
    }
    fn fill<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder) {
        self.0.fill(b, t);
        self.1.put_fb(b, t, T::SLOTS);
    }
    fn from_table(t: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
        Ok((T::from_table(t, src)?, required(&CAUSE, Wire::get_fb(&CAUSE, t, T::SLOTS, None)?)?))
    }
}

// ---------------------------------------------------------------------------
// The structures inside messages
// ---------------------------------------------------------------------------

wire_table!(GlobalE2NodeId {
    plmn: Plmn => 0,
    node_type: E2NodeType => 3,
    node_id: u64 = range(0, (1 << 36) - 1) => 4,
});
wire_table!(GlobalRicId { plmn: Plmn => 0, ric_id: u32 = range(0, 0xF_FFFF) => 3 });
wire_table!(RanFunctionItem {
    id: RanFunctionId => 0,
    definition: Bytes => 1,
    revision: u16 = bits(16) => 2,
    oid: String => 3,
    version: FnVersion => 4,
});
wire_table!(E2NodeComponentConfig {
    interface: InterfaceType => 0,
    component_id: String => 1,
    request_part: Bytes => 2,
    response_part: Bytes => 3,
});
wire_table!(TnlInfo { address: String => 0, port: u16 = bits(16) => 1, usage: TnlUsage => 2 });
wire_table!(RicActionToBeSetup {
    id: RicActionId => 0,
    action_type: RicActionType => 1,
    definition: Option<Bytes> => 2,
    subsequent: Option<RicSubsequentAction> => 3,
});
// An interface and its component id; rejected, with the cause in the same
// table (a borrowed `(T, Cause)` of the pair would have to clone the id).
wire_table!(tuple (InterfaceType, String) { 0: InterfaceType => 0, 1: String => 1 });
wire_table!(tuple (InterfaceType, String, Cause) {
    0: InterfaceType => 0,
    1: String => 1,
    2: Cause => 2,
});

// ---------------------------------------------------------------------------
// The messages
// ---------------------------------------------------------------------------

/// A PDU's message: in PER what follows the message type, in FB the body
/// table under the root.
trait Message: Sized {
    fn put_per<B: ByteSink>(&self, w: &mut BitWriter<B>);
    fn get_per(r: &mut BitReader<'_>) -> Result<Self>;
    fn to_body<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32;
    /// `hdr` is what the root holds.
    fn from_body(hdr: &PduHeader, body: &FbTable<'_>, src: Src<'_>) -> Result<Self>;
}

/// Derives [`Message`] for every PDU from its fields and the four
/// dispatches over [`E2apPdu`] from the list of them.  A `global` message
/// is its fields.  A `functional` one starts with the request id and the
/// RAN function, which PER writes ahead of its fields and FB hoists into
/// the root: its declaration leaves them out.  A `custom` one has its
/// [`Message`] written by hand.
macro_rules! e2ap_pdus {
    (@message custom $M:ident $fields:tt) => {};
    (@message global $M:ident $fields:tt) => {
        impl Message for $M {
            #[inline]
            fn put_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                wire_table!(@put_per (&self.) w; $fields);
            }
            #[inline]
            fn get_per(r: &mut BitReader<'_>) -> Result<Self> {
                Ok(wire_table!(@get_per r; {} $fields))
            }
            e2ap_pdus!(@to_body $fields);
            #[inline]
            fn from_body(_: &PduHeader, body: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
                Ok(wire_table!(@get_fb body, src; {} $fields))
            }
        }
    };
    (@message functional $M:ident $fields:tt) => {
        impl Message for $M {
            #[inline]
            fn put_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                self.req_id.put_per(&REQ_ID, w);
                self.ran_function.put_per(&RAN_FUNCTION, w);
                wire_table!(@put_per (&self.) w; $fields);
            }
            #[inline]
            fn get_per(r: &mut BitReader<'_>) -> Result<Self> {
                Ok(wire_table!(@get_per r; {
                    req_id: Wire::get_per(&REQ_ID, r)?,
                    ran_function: Wire::get_per(&RAN_FUNCTION, r)?,
                } $fields))
            }
            e2ap_pdus!(@to_body $fields);
            #[allow(unused_variables)] // a body without fields
            #[inline]
            fn from_body(hdr: &PduHeader, body: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
                Ok(wire_table!(@get_fb body, src; {
                    req_id: required(&REQ_ID, hdr.req_id)?,
                    ran_function: required(&RAN_FUNCTION, hdr.ran_function)?,
                } $fields))
            }
        }
    };
    (@to_body $fields:tt) => {
        #[allow(unused_mut)] // a body without fields
        #[inline]
        fn to_body<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
            let mut t = TableBuilder::new();
            wire_table!(@put_fb [] (&self.) () b, &mut t; $fields);
            t.end(b)
        }
    };
    ($($class:ident $M:ident $fields:tt)+) => {
        $(e2ap_pdus!(@message $class $M $fields);)+

        fn put_message<B: ByteSink>(pdu: &E2apPdu, w: &mut BitWriter<B>) {
            match pdu {
                $(E2apPdu::$M(m) => m.put_per(w),)+
            }
        }
        fn get_message(msg_type: MsgType, r: &mut BitReader<'_>) -> Result<E2apPdu> {
            Ok(match msg_type {
                $(MsgType::$M => E2apPdu::$M(Message::get_per(r)?),)+
            })
        }
        fn to_body<B: ByteSink>(pdu: &E2apPdu, b: &mut FbBuilder<B>) -> u32 {
            match pdu {
                $(E2apPdu::$M(m) => m.to_body(b),)+
            }
        }
        fn from_body(hdr: &PduHeader, body: &FbTable<'_>, src: Src<'_>) -> Result<E2apPdu> {
            Ok(match hdr.msg_type {
                $(MsgType::$M => E2apPdu::$M(Message::from_body(hdr, body, src)?),)+
            })
        }
    };
}

e2ap_pdus! {
    global E2SetupRequest {
        transaction_id: u8 = bits(8) => 0,
        global_node: GlobalE2NodeId => 1,
        ran_functions: Vec<RanFunctionItem> => 2,
        component_configs: Vec<E2NodeComponentConfig> => 3,
    }
    global E2SetupResponse {
        transaction_id: u8 = bits(8) => 0,
        global_ric: GlobalRicId => 1,
        accepted: Vec<RanFunctionId> => 2,
        rejected: Vec<(RanFunctionId, Cause)> => 3,
    }
    global E2SetupFailure {
        transaction_id: u8 = bits(8) => 0,
        cause: Cause => 1,
        time_to_wait_ms: Option<u32> = uint => 2,
    }
    global ResetRequest { transaction_id: u8 = bits(8) => 0, cause: Cause => 1 }
    global ResetResponse { transaction_id: u8 = bits(8) => 0 }
    custom ErrorIndication {}
    global E2NodeConfigUpdate {
        transaction_id: u8 = bits(8) => 0,
        additions: Vec<E2NodeComponentConfig> => 1,
        updates: Vec<E2NodeComponentConfig> => 2,
        removals: Vec<(InterfaceType, String)> => 3,
    }
    global E2NodeConfigUpdateAck {
        transaction_id: u8 = bits(8) => 0,
        accepted: Vec<(InterfaceType, String)> => 1,
        rejected: Vec<(InterfaceType, String, Cause)> => 2,
    }
    global E2NodeConfigUpdateFailure {
        transaction_id: u8 = bits(8) => 0,
        cause: Cause => 1,
        time_to_wait_ms: Option<u32> = uint => 2,
    }
    global E2ConnectionUpdate {
        transaction_id: u8 = bits(8) => 0,
        add: Vec<TnlInfo> => 1,
        remove: Vec<TnlInfo> => 2,
        modify: Vec<TnlInfo> => 3,
    }
    global E2ConnectionUpdateAck {
        transaction_id: u8 = bits(8) => 0,
        setup: Vec<TnlInfo> => 1,
        failed: Vec<(TnlInfo, Cause)> => 2,
    }
    global E2ConnectionUpdateFailure {
        transaction_id: u8 = bits(8) => 0,
        cause: Cause => 1,
        time_to_wait_ms: Option<u32> = uint => 2,
    }
    global RicServiceUpdate {
        transaction_id: u8 = bits(8) => 0,
        added: Vec<RanFunctionItem> => 1,
        modified: Vec<RanFunctionItem> => 2,
        removed: Vec<RanFunctionId> => 3,
    }
    global RicServiceUpdateAck {
        transaction_id: u8 = bits(8) => 0,
        accepted: Vec<RanFunctionId> => 1,
        rejected: Vec<(RanFunctionId, Cause)> => 2,
    }
    global RicServiceUpdateFailure {
        transaction_id: u8 = bits(8) => 0,
        cause: Cause => 1,
        time_to_wait_ms: Option<u32> = uint => 2,
    }
    global RicServiceQuery { transaction_id: u8 = bits(8) => 0, accepted: Vec<RanFunctionId> => 1 }
    functional RicSubscriptionRequest {
        event_trigger: Bytes => 0,
        actions: Vec<RicActionToBeSetup> => 1,
    }
    functional RicSubscriptionResponse {
        admitted: Vec<RicActionId> => 0,
        not_admitted: Vec<(RicActionId, Cause)> => 1,
    }
    functional RicSubscriptionFailure { cause: Cause => 0 }
    functional RicSubscriptionDeleteRequest {}
    functional RicSubscriptionDeleteResponse {}
    functional RicSubscriptionDeleteFailure { cause: Cause => 0 }
    // Slot order is not struct order here (`sn`) nor in the two after.
    functional RicIndication {
        action: RicActionId => 0,
        sn: Option<u32> = uint => 5,
        ind_type: RicIndicationType => 1,
        header: Bytes => slot::IND_HEADER,
        message: Bytes => slot::IND_MESSAGE,
        call_process_id: Option<Bytes> => 4,
    }
    functional RicControlRequest {
        call_process_id: Option<Bytes> => 2,
        header: Bytes => 0,
        message: Bytes => 1,
        ack_request: Option<ControlAckRequest> => 3,
    }
    functional RicControlAcknowledge {
        call_process_id: Option<Bytes> => 0,
        outcome: Option<Bytes> => 1,
    }
    functional RicControlFailure {
        call_process_id: Option<Bytes> => 1,
        cause: Cause => 0,
        outcome: Option<Bytes> => 2,
    }
}

/// Each of its three fields is optional.  PER says so with a bit ahead of
/// each.  In FB the two routing ids sit in the root, where `peek` finds
/// them, and the body holds the cause (slot 0) and, since decode must tell
/// an id that is absent from one that is 0, which of them are there (slot
/// 1: bit 0 the request id, bit 1 the RAN function) — written cause first.
impl Message for ErrorIndication {
    #[inline]
    fn put_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        self.req_id.put_per(&REQ_ID, w);
        self.ran_function.put_per(&RAN_FUNCTION, w);
        self.cause.put_per(&CAUSE, w);
    }
    #[inline]
    fn get_per(r: &mut BitReader<'_>) -> Result<Self> {
        Ok(ErrorIndication {
            req_id: Wire::get_per(&REQ_ID, r)?,
            ran_function: Wire::get_per(&RAN_FUNCTION, r)?,
            cause: Wire::get_per(&CAUSE, r)?,
        })
    }
    #[inline]
    fn to_body<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let mut t = TableBuilder::new();
        self.cause.put_fb(b, &mut t, 0);
        t.u8(1, u8::from(self.req_id.is_some()) | u8::from(self.ran_function.is_some()) << 1);
        t.end(b)
    }
    #[inline]
    fn from_body(hdr: &PduHeader, body: &FbTable<'_>, _: Src<'_>) -> Result<Self> {
        let present = body.u8(1)?.unwrap_or(0);
        Ok(ErrorIndication {
            req_id: hdr.req_id.filter(|_| present & 1 != 0),
            ran_function: hdr.ran_function.filter(|_| present & 2 != 0),
            cause: Wire::get_fb(&CAUSE, body, 0, None)?,
        })
    }
}

// ---------------------------------------------------------------------------
// PDUs
// ---------------------------------------------------------------------------

/// Appends `pdu` to `sink` in PER.
pub(crate) fn encode_per<B: ByteSink>(pdu: &E2apPdu, sink: B) -> B {
    let mut w = BitWriter::over(sink);
    pdu.msg_type().put_per(&MSG_TYPE, &mut w);
    put_message(pdu, &mut w);
    w.into_buf()
}

/// Decodes the PER PDU `r` is at the start of: always a full sequential
/// pass, also when only the header is wanted.
pub(crate) fn decode_per(mut r: BitReader<'_>) -> Result<E2apPdu> {
    let msg_type = Wire::get_per(&MSG_TYPE, &mut r)?;
    get_message(msg_type, &mut r)
}

/// Appends `pdu` to `sink` in FB: the body, then the root over it.  All
/// offsets are relative to the message's start, so the appended region is
/// self-contained.
pub(crate) fn encode_fb<B: ByteSink>(pdu: &E2apPdu, sink: B) -> B {
    let mut b = FbBuilder::over(sink);
    let body = to_body(pdu, &mut b);
    let hdr = pdu.header();
    let mut root = TableBuilder::new();
    hdr.msg_type.put_fb(&mut b, &mut root, slot::MSG_TYPE);
    hdr.req_id.put_fb(&mut b, &mut root, slot::REQ_ID);
    hdr.ran_function.put_fb(&mut b, &mut root, slot::RAN_FUNCTION);
    root.off(slot::BODY, body);
    let root = root.end(&mut b);
    b.finish_buf(root)
}

/// What the root holds: the routing header, each id checked as the decoder
/// of the whole message checks it.
fn routing(root: &FbTable<'_>) -> Result<PduHeader> {
    Ok(PduHeader {
        msg_type: required(&MSG_TYPE, Wire::get_fb(&MSG_TYPE, root, slot::MSG_TYPE, None)?)?,
        req_id: Wire::get_fb(&REQ_ID, root, slot::REQ_ID, None)?,
        ran_function: Wire::get_fb(&RAN_FUNCTION, root, slot::RAN_FUNCTION, None)?,
    })
}

/// Decodes the FB PDU `buf` into the IR; its byte strings are views of
/// `src`, if that is the frame `buf` is, and copies without one.
pub(crate) fn decode_fb(buf: &[u8], src: Src<'_>) -> Result<E2apPdu> {
    let root = FbView::parse(buf)?.root()?;
    from_body(&routing(&root)?, &root.req_table(slot::BODY, "body")?, src)
}

/// Extracts the routing header of an FB PDU in O(1), without decoding the
/// message.
pub(crate) fn peek_fb(buf: &[u8]) -> Result<PduHeader> {
    routing(&FbView::parse(buf)?.root()?)
}

/// Zero-copy access to the indication payload of an FB-encoded
/// `RicIndication` — retrieves the SM header and message bytes without
/// building the IR.
///
/// This is what a monitoring iApp on the FB hot path uses: header peek plus
/// payload slice, zero allocation.
pub fn indication_payload(buf: &[u8]) -> Result<(&[u8], &[u8])> {
    let root = FbView::parse(buf)?.root()?;
    if root.req_u8(slot::MSG_TYPE, "msg type")? != MsgType::RicIndication as u8 {
        return Err(CodecError::Malformed { what: "not an indication" });
    }
    let body = root.req_table(slot::BODY, "body")?;
    Ok((
        body.req_bytes(slot::IND_HEADER, "ind header")?,
        body.req_bytes(slot::IND_MESSAGE, "ind message")?,
    ))
}

/// Like [`indication_payload`], but returns refcounted views of `buf` —
/// the receive path hands these to apps that retain the payload beyond the
/// current dispatch without copying it out of the read slab.
pub fn indication_payload_borrowed(buf: &Bytes) -> Result<(Bytes, Bytes)> {
    let (hdr, msg) = indication_payload(buf)?;
    Ok((buf.slice_ref(hdr), buf.slice_ref(msg)))
}
