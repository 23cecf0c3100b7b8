//! FlatBuffers-style codec for the full E2AP message set.
//!
//! The root table of every message carries the routing header (message
//! type, RIC request id, RAN function id) in fixed slots, so [`peek`] can
//! extract it in O(1) directly from the raw bytes — "FB's design avoids an
//! explicit decoding step, reading directly from raw bytes, \[so\] the
//! subscription management can look up the corresponding subscription much
//! faster" (paper §5.3).
//!
//! ## Root table slots
//!
//! | slot | content |
//! |------|---------|
//! | 0    | message type (u8) |
//! | 1    | RIC requestor id (u16, functional procedures) |
//! | 2    | RIC request instance (u16, functional procedures) |
//! | 3    | RAN function id (u16, functional procedures) |
//! | 4    | body table offset |

use bytes::{Bytes, BytesMut};
use flexric_e2ap::*;

use crate::error::{CodecError, Result};
use crate::fb::{FbBuilder, FbTable, FbVector, FbView, TableBuilder};
use crate::sink::ByteSink;

// ---------------------------------------------------------------------------
// Sub-structure helpers (encode)
// ---------------------------------------------------------------------------

fn enc_plmn(t: &mut TableBuilder, base: u16, p: &Plmn) {
    t.u16(base, p.mcc).u16(base + 1, p.mnc).u8(base + 2, p.mnc_digits);
}

fn enc_node_id<B: ByteSink>(b: &mut FbBuilder<B>, id: &GlobalE2NodeId) -> u32 {
    let mut t = TableBuilder::new();
    enc_plmn(&mut t, 0, &id.plmn);
    t.u8(3, id.node_type as u8).u64(4, id.node_id);
    t.end(b)
}

fn enc_ric_id<B: ByteSink>(b: &mut FbBuilder<B>, id: &GlobalRicId) -> u32 {
    let mut t = TableBuilder::new();
    enc_plmn(&mut t, 0, &id.plmn);
    t.u32(3, id.ric_id);
    t.end(b)
}

fn cause_u16(c: &Cause) -> u16 {
    ((c.group() as u16) << 8) | c.value() as u16
}

fn enc_fn_item<B: ByteSink>(b: &mut FbBuilder<B>, f: &RanFunctionItem) -> u32 {
    let def = b.blob(&f.definition);
    let oid = b.string(&f.oid);
    let mut t = TableBuilder::new();
    t.u16(0, f.id.0).off(1, def).u16(2, f.revision).off(3, oid);
    // New slots default-elide at 1.0, keeping pre-versioning peers readable.
    if f.version != FnVersion::V1 {
        t.u16(4, f.version.major).u16(5, f.version.minor);
    }
    t.end(b)
}

fn enc_component<B: ByteSink>(b: &mut FbBuilder<B>, c: &E2NodeComponentConfig) -> u32 {
    let id = b.string(&c.component_id);
    let req = b.blob(&c.request_part);
    let resp = b.blob(&c.response_part);
    let mut t = TableBuilder::new();
    t.u8(0, c.interface as u8).off(1, id).off(2, req).off(3, resp);
    t.end(b)
}

fn enc_interface_id<B: ByteSink>(
    b: &mut FbBuilder<B>,
    (i, id): &(InterfaceType, String),
    cause: Option<&Cause>,
) -> u32 {
    let s = b.string(id);
    let mut t = TableBuilder::new();
    t.u8(0, *i as u8).off(1, s);
    if let Some(c) = cause {
        t.u16(2, cause_u16(c));
    }
    t.end(b)
}

fn enc_tnl<B: ByteSink>(b: &mut FbBuilder<B>, tnl: &TnlInfo, cause: Option<&Cause>) -> u32 {
    let addr = b.string(&tnl.address);
    let mut t = TableBuilder::new();
    t.off(0, addr).u16(1, tnl.port).u8(2, tnl.usage as u8);
    if let Some(c) = cause {
        t.u16(3, cause_u16(c));
    }
    t.end(b)
}

fn enc_action<B: ByteSink>(b: &mut FbBuilder<B>, a: &RicActionToBeSetup) -> u32 {
    let def = a.definition.as_ref().map(|d| b.blob(d));
    let mut t = TableBuilder::new();
    t.u8(0, a.id.0).u8(1, a.action_type as u8).opt_off(2, def);
    if let Some(sub) = &a.subsequent {
        t.u8(3, sub.kind as u8).u32(4, sub.wait_ms);
    }
    t.end(b)
}

fn enc_id_cause<B: ByteSink>(b: &mut FbBuilder<B>, id: u16, c: &Cause) -> u32 {
    let mut t = TableBuilder::new();
    t.u16(0, id).u16(1, cause_u16(c));
    t.end(b)
}

fn enc_fn_vec<B: ByteSink>(b: &mut FbBuilder<B>, items: &[RanFunctionItem]) -> u32 {
    let offs: Vec<u32> = items.iter().map(|f| enc_fn_item(b, f)).collect();
    b.vec_off(&offs)
}

fn enc_component_vec<B: ByteSink>(b: &mut FbBuilder<B>, items: &[E2NodeComponentConfig]) -> u32 {
    let offs: Vec<u32> = items.iter().map(|c| enc_component(b, c)).collect();
    b.vec_off(&offs)
}

fn enc_tnl_vec<B: ByteSink>(b: &mut FbBuilder<B>, items: &[TnlInfo]) -> u32 {
    let offs: Vec<u32> = items.iter().map(|t| enc_tnl(b, t, None)).collect();
    b.vec_off(&offs)
}

fn fnid_vec(items: &[RanFunctionId]) -> Vec<u16> {
    items.iter().map(|f| f.0).collect()
}

// ---------------------------------------------------------------------------
// Sub-structure helpers (decode)
// ---------------------------------------------------------------------------

fn dec_plmn(t: &FbTable, base: u16) -> Result<Plmn> {
    Ok(Plmn::new(
        t.req_u16(base, "plmn mcc")?,
        t.req_u16(base + 1, "plmn mnc")?,
        t.req_u8(base + 2, "plmn digits")?,
    ))
}

fn dec_node_id(t: &FbTable) -> Result<GlobalE2NodeId> {
    let plmn = dec_plmn(t, 0)?;
    let nt = t.req_u8(3, "node type")?;
    let node_type = E2NodeType::from_u8(nt)
        .ok_or(CodecError::BadDiscriminant { what: "node type", value: nt as u64 })?;
    Ok(GlobalE2NodeId::new(plmn, node_type, t.req_u64(4, "node id")?))
}

fn dec_ric_id(t: &FbTable) -> Result<GlobalRicId> {
    Ok(GlobalRicId::new(dec_plmn(t, 0)?, t.req_u32(3, "ric id")?))
}

fn dec_cause(v: u16) -> Result<Cause> {
    Cause::from_parts((v >> 8) as u8, v as u8)
        .ok_or(CodecError::BadDiscriminant { what: "cause", value: v as u64 })
}

fn dec_fn_item(t: &FbTable) -> Result<RanFunctionItem> {
    Ok(RanFunctionItem {
        id: RanFunctionId::new(t.req_u16(0, "fn id")?),
        definition: crate::borrow::mk_bytes(t.req_bytes(1, "fn def")?),
        revision: t.req_u16(2, "fn revision")?,
        oid: t.string(3)?.ok_or(CodecError::Malformed { what: "fn oid" })?.to_owned(),
        version: FnVersion::new(t.u16(4)?.unwrap_or(1), t.u16(5)?.unwrap_or(0)),
    })
}

fn dec_component(t: &FbTable) -> Result<E2NodeComponentConfig> {
    let i = t.req_u8(0, "component interface")?;
    Ok(E2NodeComponentConfig {
        interface: InterfaceType::from_u8(i)
            .ok_or(CodecError::BadDiscriminant { what: "interface", value: i as u64 })?,
        component_id: t
            .string(1)?
            .ok_or(CodecError::Malformed { what: "component id" })?
            .to_owned(),
        request_part: crate::borrow::mk_bytes(t.req_bytes(2, "component req")?),
        response_part: crate::borrow::mk_bytes(t.req_bytes(3, "component resp")?),
    })
}

fn dec_interface_id(t: &FbTable) -> Result<(InterfaceType, String)> {
    let i = t.req_u8(0, "interface")?;
    Ok((
        InterfaceType::from_u8(i)
            .ok_or(CodecError::BadDiscriminant { what: "interface", value: i as u64 })?,
        t.string(1)?.ok_or(CodecError::Malformed { what: "interface id" })?.to_owned(),
    ))
}

fn dec_tnl(t: &FbTable) -> Result<TnlInfo> {
    let u = t.req_u8(2, "tnl usage")?;
    Ok(TnlInfo {
        address: t.string(0)?.ok_or(CodecError::Malformed { what: "tnl addr" })?.to_owned(),
        port: t.req_u16(1, "tnl port")?,
        usage: TnlUsage::from_u8(u)
            .ok_or(CodecError::BadDiscriminant { what: "tnl usage", value: u as u64 })?,
    })
}

fn dec_action(t: &FbTable) -> Result<RicActionToBeSetup> {
    let at = t.req_u8(1, "action type")?;
    let subsequent = match t.u8(3)? {
        Some(k) => Some(RicSubsequentAction {
            kind: SubsequentActionType::from_u8(k)
                .ok_or(CodecError::BadDiscriminant { what: "subsequent", value: k as u64 })?,
            wait_ms: t.req_u32(4, "wait ms")?,
        }),
        None => None,
    };
    Ok(RicActionToBeSetup {
        id: RicActionId(t.req_u8(0, "action id")?),
        action_type: RicActionType::from_u8(at)
            .ok_or(CodecError::BadDiscriminant { what: "action type", value: at as u64 })?,
        definition: t.bytes(2)?.map(crate::borrow::mk_bytes),
        subsequent,
    })
}

fn dec_tables<T>(v: &FbVector, f: impl Fn(&FbTable) -> Result<T>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(v.len());
    for i in 0..v.len() {
        out.push(f(&v.table_at(i)?)?);
    }
    Ok(out)
}

fn dec_fnids(v: &FbVector) -> Result<Vec<RanFunctionId>> {
    let mut out = Vec::with_capacity(v.len());
    for i in 0..v.len() {
        out.push(RanFunctionId::new(v.u16_at(i)?));
    }
    Ok(out)
}

fn dec_id_causes(v: &FbVector) -> Result<Vec<(RanFunctionId, Cause)>> {
    dec_tables(v, |t| {
        Ok((RanFunctionId::new(t.req_u16(0, "fn id")?), dec_cause(t.req_u16(1, "cause")?)?))
    })
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encodes a PDU into FB-style bytes.
pub fn encode(pdu: &E2apPdu) -> Vec<u8> {
    encode_root(pdu, FbBuilder::with_capacity(128))
}

/// Encodes a PDU into a reusable scratch buffer, appending after any
/// existing content.  Byte-for-byte identical to [`encode`]; both
/// delegate to the same generic body, and all FB offsets are relative to
/// the message start so the appended region is self-contained.
pub fn encode_into(pdu: &E2apPdu, out: &mut BytesMut) {
    let b = FbBuilder::over(std::mem::take(out));
    *out = encode_root(pdu, b);
}

fn encode_root<B: ByteSink>(pdu: &E2apPdu, mut b: FbBuilder<B>) -> B {
    let body = encode_body(&mut b, pdu);
    let mut root = TableBuilder::new();
    root.u8(0, pdu.msg_type() as u8);
    if let Some(req) = pdu.ric_request_id() {
        root.u16(1, req.requestor).u16(2, req.instance);
    }
    if let Some(f) = pdu.ran_function_id() {
        root.u16(3, f.0);
    }
    root.off(4, body);
    let root = root.end(&mut b);
    b.finish_buf(root)
}

fn encode_body<B: ByteSink>(b: &mut FbBuilder<B>, pdu: &E2apPdu) -> u32 {
    match pdu {
        E2apPdu::E2SetupRequest(m) => {
            let node = enc_node_id(b, &m.global_node);
            let fns = enc_fn_vec(b, &m.ran_functions);
            let comps = enc_component_vec(b, &m.component_configs);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, node).off(2, fns).off(3, comps);
            t.end(b)
        }
        E2apPdu::E2SetupResponse(m) => {
            let ric = enc_ric_id(b, &m.global_ric);
            let acc = b.vec_u16(&fnid_vec(&m.accepted));
            let rej: Vec<u32> = m.rejected.iter().map(|(id, c)| enc_id_cause(b, id.0, c)).collect();
            let rej = b.vec_off(&rej);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, ric).off(2, acc).off(3, rej);
            t.end(b)
        }
        E2apPdu::E2SetupFailure(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).u16(1, cause_u16(&m.cause));
            if let Some(w) = m.time_to_wait_ms {
                t.u32(2, w);
            }
            t.end(b)
        }
        E2apPdu::ResetRequest(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).u16(1, cause_u16(&m.cause));
            t.end(b)
        }
        E2apPdu::ResetResponse(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id);
            t.end(b)
        }
        E2apPdu::ErrorIndication(m) => {
            let mut t = TableBuilder::new();
            if let Some(c) = &m.cause {
                t.u16(0, cause_u16(c));
            }
            // req_id / ran_function live in the root header slots; a marker
            // records their presence so decode can distinguish None from 0.
            let mut flags = 0u8;
            if m.req_id.is_some() {
                flags |= 1;
            }
            if m.ran_function.is_some() {
                flags |= 2;
            }
            t.u8(1, flags);
            t.end(b)
        }
        E2apPdu::E2NodeConfigUpdate(m) => {
            let add = enc_component_vec(b, &m.additions);
            let upd = enc_component_vec(b, &m.updates);
            let rem: Vec<u32> = m.removals.iter().map(|x| enc_interface_id(b, x, None)).collect();
            let rem = b.vec_off(&rem);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, add).off(2, upd).off(3, rem);
            t.end(b)
        }
        E2apPdu::E2NodeConfigUpdateAck(m) => {
            let acc: Vec<u32> = m.accepted.iter().map(|x| enc_interface_id(b, x, None)).collect();
            let acc = b.vec_off(&acc);
            let rej: Vec<u32> = m
                .rejected
                .iter()
                .map(|(i, id, c)| enc_interface_id(b, &(*i, id.clone()), Some(c)))
                .collect();
            let rej = b.vec_off(&rej);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, acc).off(2, rej);
            t.end(b)
        }
        E2apPdu::E2NodeConfigUpdateFailure(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).u16(1, cause_u16(&m.cause));
            if let Some(w) = m.time_to_wait_ms {
                t.u32(2, w);
            }
            t.end(b)
        }
        E2apPdu::E2ConnectionUpdate(m) => {
            let add = enc_tnl_vec(b, &m.add);
            let rem = enc_tnl_vec(b, &m.remove);
            let modi = enc_tnl_vec(b, &m.modify);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, add).off(2, rem).off(3, modi);
            t.end(b)
        }
        E2apPdu::E2ConnectionUpdateAck(m) => {
            let setup = enc_tnl_vec(b, &m.setup);
            let failed: Vec<u32> = m.failed.iter().map(|(t, c)| enc_tnl(b, t, Some(c))).collect();
            let failed = b.vec_off(&failed);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, setup).off(2, failed);
            t.end(b)
        }
        E2apPdu::E2ConnectionUpdateFailure(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).u16(1, cause_u16(&m.cause));
            if let Some(w) = m.time_to_wait_ms {
                t.u32(2, w);
            }
            t.end(b)
        }
        E2apPdu::RicServiceUpdate(m) => {
            let added = enc_fn_vec(b, &m.added);
            let modified = enc_fn_vec(b, &m.modified);
            let removed = b.vec_u16(&fnid_vec(&m.removed));
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, added).off(2, modified).off(3, removed);
            t.end(b)
        }
        E2apPdu::RicServiceUpdateAck(m) => {
            let acc = b.vec_u16(&fnid_vec(&m.accepted));
            let rej: Vec<u32> = m.rejected.iter().map(|(id, c)| enc_id_cause(b, id.0, c)).collect();
            let rej = b.vec_off(&rej);
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, acc).off(2, rej);
            t.end(b)
        }
        E2apPdu::RicServiceUpdateFailure(m) => {
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).u16(1, cause_u16(&m.cause));
            if let Some(w) = m.time_to_wait_ms {
                t.u32(2, w);
            }
            t.end(b)
        }
        E2apPdu::RicServiceQuery(m) => {
            let acc = b.vec_u16(&fnid_vec(&m.accepted));
            let mut t = TableBuilder::new();
            t.u8(0, m.transaction_id).off(1, acc);
            t.end(b)
        }
        E2apPdu::RicSubscriptionRequest(m) => {
            let trigger = b.blob(&m.event_trigger);
            let actions: Vec<u32> = m.actions.iter().map(|a| enc_action(b, a)).collect();
            let actions = b.vec_off(&actions);
            let mut t = TableBuilder::new();
            t.off(0, trigger).off(1, actions);
            t.end(b)
        }
        E2apPdu::RicSubscriptionResponse(m) => {
            let admitted: Vec<u16> = m.admitted.iter().map(|a| a.0 as u16).collect();
            let admitted = b.vec_u16(&admitted);
            let not_adm: Vec<u32> =
                m.not_admitted.iter().map(|(id, c)| enc_id_cause(b, id.0 as u16, c)).collect();
            let not_adm = b.vec_off(&not_adm);
            let mut t = TableBuilder::new();
            t.off(0, admitted).off(1, not_adm);
            t.end(b)
        }
        E2apPdu::RicSubscriptionFailure(m) => {
            let mut t = TableBuilder::new();
            t.u16(0, cause_u16(&m.cause));
            t.end(b)
        }
        E2apPdu::RicSubscriptionDeleteRequest(_) | E2apPdu::RicSubscriptionDeleteResponse(_) => {
            TableBuilder::new().end(b)
        }
        E2apPdu::RicSubscriptionDeleteFailure(m) => {
            let mut t = TableBuilder::new();
            t.u16(0, cause_u16(&m.cause));
            t.end(b)
        }
        E2apPdu::RicIndication(m) => {
            let hdr = b.blob(&m.header);
            let msg = b.blob(&m.message);
            let cpid = m.call_process_id.as_ref().map(|c| b.blob(c));
            let mut t = TableBuilder::new();
            t.u8(0, m.action.0).u8(1, m.ind_type as u8).off(2, hdr).off(3, msg).opt_off(4, cpid);
            if let Some(sn) = m.sn {
                t.u32(5, sn);
            }
            t.end(b)
        }
        E2apPdu::RicControlRequest(m) => {
            let hdr = b.blob(&m.header);
            let msg = b.blob(&m.message);
            let cpid = m.call_process_id.as_ref().map(|c| b.blob(c));
            let mut t = TableBuilder::new();
            t.off(0, hdr).off(1, msg).opt_off(2, cpid);
            if let Some(a) = m.ack_request {
                t.u8(3, a as u8);
            }
            t.end(b)
        }
        E2apPdu::RicControlAcknowledge(m) => {
            let cpid = m.call_process_id.as_ref().map(|c| b.blob(c));
            let outcome = m.outcome.as_ref().map(|o| b.blob(o));
            let mut t = TableBuilder::new();
            t.opt_off(0, cpid).opt_off(1, outcome);
            t.end(b)
        }
        E2apPdu::RicControlFailure(m) => {
            let cpid = m.call_process_id.as_ref().map(|c| b.blob(c));
            let outcome = m.outcome.as_ref().map(|o| b.blob(o));
            let mut t = TableBuilder::new();
            t.u16(0, cause_u16(&m.cause)).opt_off(1, cpid).opt_off(2, outcome);
            t.end(b)
        }
    }
}

// ---------------------------------------------------------------------------
// Decode / peek
// ---------------------------------------------------------------------------

fn root_header(root: &FbTable) -> Result<(MsgType, Option<RicRequestId>, Option<RanFunctionId>)> {
    let t = root.req_u8(0, "msg type")?;
    let msg_type = MsgType::from_u8(t)
        .ok_or(CodecError::BadDiscriminant { what: "msg type", value: t as u64 })?;
    let req_id = match (root.u16(1)?, root.u16(2)?) {
        (Some(r), Some(i)) => Some(RicRequestId::new(r, i)),
        _ => None,
    };
    let ran_function = root.u16(3)?.map(RanFunctionId::new);
    Ok((msg_type, req_id, ran_function))
}

/// Extracts the routing header in O(1) without decoding the message.
pub fn peek(buf: &[u8]) -> Result<PduHeader> {
    let root = FbView::parse(buf)?.root()?;
    let (msg_type, req_id, ran_function) = root_header(&root)?;
    Ok(PduHeader { msg_type, req_id, ran_function })
}

/// Decodes an FB-style E2AP PDU into the owned IR.
pub fn decode(buf: &[u8]) -> Result<E2apPdu> {
    let root = FbView::parse(buf)?.root()?;
    let (msg_type, req_id, ran_function) = root_header(&root)?;
    let body = root.req_table(4, "body")?;
    let req = || req_id.ok_or(CodecError::Malformed { what: "missing req id" });
    let rf = || ran_function.ok_or(CodecError::Malformed { what: "missing ran function" });

    Ok(match msg_type {
        MsgType::E2SetupRequest => E2apPdu::E2SetupRequest(E2SetupRequest {
            transaction_id: body.req_u8(0, "txid")?,
            global_node: dec_node_id(&body.req_table(1, "node id")?)?,
            ran_functions: dec_tables(&body.vector_or_empty(2)?, dec_fn_item)?,
            component_configs: dec_tables(&body.vector_or_empty(3)?, dec_component)?,
        }),
        MsgType::E2SetupResponse => E2apPdu::E2SetupResponse(E2SetupResponse {
            transaction_id: body.req_u8(0, "txid")?,
            global_ric: dec_ric_id(&body.req_table(1, "ric id")?)?,
            accepted: dec_fnids(&body.vector_or_empty(2)?)?,
            rejected: dec_id_causes(&body.vector_or_empty(3)?)?,
        }),
        MsgType::E2SetupFailure => E2apPdu::E2SetupFailure(E2SetupFailure {
            transaction_id: body.req_u8(0, "txid")?,
            cause: dec_cause(body.req_u16(1, "cause")?)?,
            time_to_wait_ms: body.u32(2)?,
        }),
        MsgType::ResetRequest => E2apPdu::ResetRequest(ResetRequest {
            transaction_id: body.req_u8(0, "txid")?,
            cause: dec_cause(body.req_u16(1, "cause")?)?,
        }),
        MsgType::ResetResponse => {
            E2apPdu::ResetResponse(ResetResponse { transaction_id: body.req_u8(0, "txid")? })
        }
        MsgType::ErrorIndication => {
            let flags = body.u8(1)?.unwrap_or(0);
            E2apPdu::ErrorIndication(ErrorIndication {
                req_id: if flags & 1 != 0 { req_id } else { None },
                ran_function: if flags & 2 != 0 { ran_function } else { None },
                cause: body.u16(0)?.map(dec_cause).transpose()?,
            })
        }
        MsgType::E2NodeConfigUpdate => E2apPdu::E2NodeConfigUpdate(E2NodeConfigUpdate {
            transaction_id: body.req_u8(0, "txid")?,
            additions: dec_tables(&body.vector_or_empty(1)?, dec_component)?,
            updates: dec_tables(&body.vector_or_empty(2)?, dec_component)?,
            removals: dec_tables(&body.vector_or_empty(3)?, dec_interface_id)?,
        }),
        MsgType::E2NodeConfigUpdateAck => E2apPdu::E2NodeConfigUpdateAck(E2NodeConfigUpdateAck {
            transaction_id: body.req_u8(0, "txid")?,
            accepted: dec_tables(&body.vector_or_empty(1)?, dec_interface_id)?,
            rejected: dec_tables(&body.vector_or_empty(2)?, |t| {
                let (i, id) = dec_interface_id(t)?;
                Ok((i, id, dec_cause(t.req_u16(2, "cause")?)?))
            })?,
        }),
        MsgType::E2NodeConfigUpdateFailure => {
            E2apPdu::E2NodeConfigUpdateFailure(E2NodeConfigUpdateFailure {
                transaction_id: body.req_u8(0, "txid")?,
                cause: dec_cause(body.req_u16(1, "cause")?)?,
                time_to_wait_ms: body.u32(2)?,
            })
        }
        MsgType::E2ConnectionUpdate => E2apPdu::E2ConnectionUpdate(E2ConnectionUpdate {
            transaction_id: body.req_u8(0, "txid")?,
            add: dec_tables(&body.vector_or_empty(1)?, dec_tnl)?,
            remove: dec_tables(&body.vector_or_empty(2)?, dec_tnl)?,
            modify: dec_tables(&body.vector_or_empty(3)?, dec_tnl)?,
        }),
        MsgType::E2ConnectionUpdateAck => E2apPdu::E2ConnectionUpdateAck(E2ConnectionUpdateAck {
            transaction_id: body.req_u8(0, "txid")?,
            setup: dec_tables(&body.vector_or_empty(1)?, dec_tnl)?,
            failed: dec_tables(&body.vector_or_empty(2)?, |t| {
                Ok((dec_tnl(t)?, dec_cause(t.req_u16(3, "cause")?)?))
            })?,
        }),
        MsgType::E2ConnectionUpdateFailure => {
            E2apPdu::E2ConnectionUpdateFailure(E2ConnectionUpdateFailure {
                transaction_id: body.req_u8(0, "txid")?,
                cause: dec_cause(body.req_u16(1, "cause")?)?,
                time_to_wait_ms: body.u32(2)?,
            })
        }
        MsgType::RicServiceUpdate => E2apPdu::RicServiceUpdate(RicServiceUpdate {
            transaction_id: body.req_u8(0, "txid")?,
            added: dec_tables(&body.vector_or_empty(1)?, dec_fn_item)?,
            modified: dec_tables(&body.vector_or_empty(2)?, dec_fn_item)?,
            removed: dec_fnids(&body.vector_or_empty(3)?)?,
        }),
        MsgType::RicServiceUpdateAck => E2apPdu::RicServiceUpdateAck(RicServiceUpdateAck {
            transaction_id: body.req_u8(0, "txid")?,
            accepted: dec_fnids(&body.vector_or_empty(1)?)?,
            rejected: dec_id_causes(&body.vector_or_empty(2)?)?,
        }),
        MsgType::RicServiceUpdateFailure => {
            E2apPdu::RicServiceUpdateFailure(RicServiceUpdateFailure {
                transaction_id: body.req_u8(0, "txid")?,
                cause: dec_cause(body.req_u16(1, "cause")?)?,
                time_to_wait_ms: body.u32(2)?,
            })
        }
        MsgType::RicServiceQuery => E2apPdu::RicServiceQuery(RicServiceQuery {
            transaction_id: body.req_u8(0, "txid")?,
            accepted: dec_fnids(&body.vector_or_empty(1)?)?,
        }),
        MsgType::RicSubscriptionRequest => {
            E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
                req_id: req()?,
                ran_function: rf()?,
                event_trigger: crate::borrow::mk_bytes(body.req_bytes(0, "trigger")?),
                actions: dec_tables(&body.vector_or_empty(1)?, dec_action)?,
            })
        }
        MsgType::RicSubscriptionResponse => {
            let adm = body.vector_or_empty(0)?;
            let mut admitted = Vec::with_capacity(adm.len());
            for i in 0..adm.len() {
                admitted.push(RicActionId(adm.u16_at(i)? as u8));
            }
            E2apPdu::RicSubscriptionResponse(RicSubscriptionResponse {
                req_id: req()?,
                ran_function: rf()?,
                admitted,
                not_admitted: dec_tables(&body.vector_or_empty(1)?, |t| {
                    Ok((
                        RicActionId(t.req_u16(0, "action id")? as u8),
                        dec_cause(t.req_u16(1, "cause")?)?,
                    ))
                })?,
            })
        }
        MsgType::RicSubscriptionFailure => {
            E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                req_id: req()?,
                ran_function: rf()?,
                cause: dec_cause(body.req_u16(0, "cause")?)?,
            })
        }
        MsgType::RicSubscriptionDeleteRequest => {
            E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
                req_id: req()?,
                ran_function: rf()?,
            })
        }
        MsgType::RicSubscriptionDeleteResponse => {
            E2apPdu::RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse {
                req_id: req()?,
                ran_function: rf()?,
            })
        }
        MsgType::RicSubscriptionDeleteFailure => {
            E2apPdu::RicSubscriptionDeleteFailure(RicSubscriptionDeleteFailure {
                req_id: req()?,
                ran_function: rf()?,
                cause: dec_cause(body.req_u16(0, "cause")?)?,
            })
        }
        MsgType::RicIndication => {
            let it = body.req_u8(1, "ind type")?;
            E2apPdu::RicIndication(RicIndication {
                req_id: req()?,
                ran_function: rf()?,
                action: RicActionId(body.req_u8(0, "action")?),
                sn: body.u32(5)?,
                ind_type: RicIndicationType::from_u8(it)
                    .ok_or(CodecError::BadDiscriminant { what: "ind type", value: it as u64 })?,
                header: crate::borrow::mk_bytes(body.req_bytes(2, "ind header")?),
                message: crate::borrow::mk_bytes(body.req_bytes(3, "ind message")?),
                call_process_id: body.bytes(4)?.map(crate::borrow::mk_bytes),
            })
        }
        MsgType::RicControlRequest => {
            let ack_request = match body.u8(3)? {
                Some(a) => {
                    Some(ControlAckRequest::from_u8(a).ok_or(CodecError::BadDiscriminant {
                        what: "ack request",
                        value: a as u64,
                    })?)
                }
                None => None,
            };
            E2apPdu::RicControlRequest(RicControlRequest {
                req_id: req()?,
                ran_function: rf()?,
                call_process_id: body.bytes(2)?.map(crate::borrow::mk_bytes),
                header: crate::borrow::mk_bytes(body.req_bytes(0, "ctrl header")?),
                message: crate::borrow::mk_bytes(body.req_bytes(1, "ctrl message")?),
                ack_request,
            })
        }
        MsgType::RicControlAcknowledge => E2apPdu::RicControlAcknowledge(RicControlAcknowledge {
            req_id: req()?,
            ran_function: rf()?,
            call_process_id: body.bytes(0)?.map(crate::borrow::mk_bytes),
            outcome: body.bytes(1)?.map(crate::borrow::mk_bytes),
        }),
        MsgType::RicControlFailure => E2apPdu::RicControlFailure(RicControlFailure {
            req_id: req()?,
            ran_function: rf()?,
            call_process_id: body.bytes(1)?.map(crate::borrow::mk_bytes),
            cause: dec_cause(body.req_u16(0, "cause")?)?,
            outcome: body.bytes(2)?.map(crate::borrow::mk_bytes),
        }),
    })
}

/// Zero-copy access to the indication payload of an FB-encoded
/// `RicIndication` — retrieves the SM message bytes without building the IR.
///
/// This is what a monitoring iApp on the FB hot path uses: header peek plus
/// payload slice, zero allocation.
pub fn indication_payload(buf: &[u8]) -> Result<(&[u8], &[u8])> {
    let root = FbView::parse(buf)?.root()?;
    if root.req_u8(0, "msg type")? != MsgType::RicIndication as u8 {
        return Err(CodecError::Malformed { what: "not an indication" });
    }
    let body = root.req_table(4, "body")?;
    Ok((body.req_bytes(2, "ind header")?, body.req_bytes(3, "ind message")?))
}

/// Like [`indication_payload`], but returns refcounted views of `buf` —
/// the receive path hands these to apps that retain the payload beyond the
/// current dispatch without copying it out of the read slab.
pub fn indication_payload_borrowed(buf: &Bytes) -> Result<(Bytes, Bytes)> {
    let (hdr, msg) = indication_payload(buf)?;
    Ok((buf.slice_ref(hdr), buf.slice_ref(msg)))
}
