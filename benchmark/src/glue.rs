//! The glue between layers, mirrored.
//!
//! The code that joins the layers in production — `Agent::flush`,
//! `AgentCtx::send_indication`, `ReportSender::send`,
//! `Agent::handle_control`, `SliceCtrlFn::on_control`,
//! `shard::handle_inbound`, `ServerApi::control`,
//! `MonitorApp::on_indication` and `StatsDb::store` — lives in files that
//! need tokio, which does not build offline.  Until those become pure state
//! machines this file repeats, statement for statement, the part of each
//! that runs per message, and calls the real layers from it.  Every call
//! into a layer is wrapped in a span; what is left over is reported as
//! `harness.*`.  Not mirrored: the event loops, channels and tasks, the
//! per-message obs counters of agent/shard/monitor, `PeriodicSubs::for_due`,
//! the UE-exposure filter copy of the statistics functions, and the
//! simulator mutex.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::{Bytes, BytesMut};
use flexric::endpoint::{E2apEndpoint, ProcedureClass, ProcedureKey, RetryPolicy};
use flexric::scratch::{flush_outbox, EncodeScratch, Targets};
use flexric_codec::{CodecError, E2apCodec};
use flexric_e2ap::{
    ControlAckRequest, E2apPdu, MsgType, PduHeader, RanFunctionId, RicActionId,
    RicControlAcknowledge, RicControlFailure, RicControlRequest, RicIndication, RicIndicationType,
    RicRequestId,
};
use flexric_ransim::Cell;
use flexric_sm::registry::{AnyDeltaDecoder, AnyDeltaEvent};
use flexric_sm::slice::SliceCtrl;
use flexric_sm::{
    mac::MacStatsInd, rlc::RlcStatsInd, DeltaRows, DeltaStreams, ReportMode, ReportOut, SmCodec,
    SmDescriptor, SmPayload,
};
use flexric_transport::frame::{encode_frame_into, HEADER_LEN};
use flexric_transport::rx::{FrameAssembler, FrameError};
use flexric_transport::WireMsg;

use crate::trace::{span, Tracer, L};

pub type AgentId = usize;
pub type CtrlId = usize;

/// Everything a block counts.  Equal seeds must give equal counts, block
/// after block and run after run; `main` checks the first and
/// `check.sh` the second.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Report opportunities (a due subscription met a snapshot).
    pub opportunities: u64,
    /// Indications queued by agents, written to the wire, sliced out of
    /// the assemblers, and stored.  All four must be equal.
    pub sent: u64,
    pub framed: u64,
    pub reassembled: u64,
    pub stored: u64,
    pub suppressed: u64,
    pub keyframes: u64,
    pub deltas: u64,
    /// Keyframes the schedule did not call for (oversized diff, structure
    /// change).
    pub fallbacks: u64,
    pub payload_bytes: u64,
    /// E2AP PDU bytes and frame bytes (header included) of indications.
    pub ind_pdu_bytes: u64,
    pub wire_bytes: u64,
    /// PDUs the controller received, and those dispatched on peek alone.
    pub pdus_in: u64,
    pub fast_path: u64,
    pub feeds: u64,
    pub frames: u64,
    pub buffered_max: u64,
    pub controls: u64,
    pub acked: u64,
    pub proc_outstanding_max: u64,
    pub proc_retransmits: u64,
    pub proc_timed_out: u64,
    pub solves: u64,
    pub solve_noops: u64,
    pub violation_ms: u64,
    /// Operations attempted and failed (the correctness gate).
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        // The first few say what went wrong; a broken run fails thousands.
        if self.failed <= 5 {
            eprintln!("FAILED op: {what}");
        }
    }
}

fn pack(r: RicRequestId) -> u32 {
    (r.requestor as u32) << 16 | r.instance as u32
}

/// An admitted subscription (`flexric::agent::SubscriptionInfo` without
/// the trigger bytes, plus the SM it belongs to).
#[derive(Clone, Debug)]
pub struct SubInfo {
    pub ctrl: CtrlId,
    pub req_id: RicRequestId,
    pub ran_function: RanFunctionId,
    pub action: RicActionId,
    pub desc: Arc<SmDescriptor>,
}

// ---------------------------------------------------------------------------
// Agent side
// ---------------------------------------------------------------------------

/// Outbound half of an agent: `Agent::{outbox, scratch}` and the socket.
pub struct AgentTx {
    codec: E2apCodec,
    outbox: Vec<(Targets<CtrlId>, E2apPdu)>,
    scratch: EncodeScratch,
    /// The wire toward the controller: frames written since it last read.
    pub up: BytesMut,
    probe_pdus: Vec<E2apPdu>,
    probe_buf: BytesMut,
}

impl AgentTx {
    pub fn new(codec: E2apCodec) -> Self {
        AgentTx {
            codec,
            outbox: Vec::new(),
            scratch: EncodeScratch::new(),
            up: BytesMut::new(),
            probe_pdus: Vec::new(),
            probe_buf: BytesMut::new(),
        }
    }

    fn push(&mut self, ctrl: CtrlId, pdu: E2apPdu, tr: &mut Tracer) {
        keep_for_probe(tr, &mut self.probe_pdus, &pdu);
        self.outbox.push((Targets::One(ctrl), pdu));
    }

    /// `AgentCtx::send_indication`.
    fn send_indication(&mut self, sub: &SubInfo, message: Bytes, tr: &mut Tracer) {
        let s = tr.begin(L::PduBuild);
        let pdu = E2apPdu::RicIndication(RicIndication {
            req_id: sub.req_id,
            ran_function: sub.ran_function,
            action: sub.action,
            sn: None,
            ind_type: RicIndicationType::Report,
            header: Bytes::new(),
            message,
            call_process_id: None,
        });
        tr.end(s);
        self.push(sub.ctrl, pdu, tr);
    }

    /// `Agent::flush`: every queued PDU is encoded once and written, framed,
    /// to the wire.
    pub fn flush(&mut self, tr: &mut Tracer, c: &mut Counts) {
        let AgentTx { codec, outbox, scratch, up, probe_pdus, probe_buf } = self;
        let fl = tr.begin(L::OutboxFlush);
        flush_outbox(scratch, *codec, outbox, |_ctrl, msg: WireMsg| {
            let s = tr.begin(L::FrameEncode);
            encode_frame_into(msg.stream, msg.ppid, &msg.payload, up);
            tr.end(s);
            if msg.stream == WireMsg::STREAM_BULK {
                c.framed += 1;
                c.ind_pdu_bytes += msg.payload.len() as u64;
                c.wire_bytes += (HEADER_LEN + msg.payload.len()) as u64;
            }
        });
        tr.end(fl);
        probe_encodes(tr, fl, *codec, probe_pdus, probe_buf);
    }
}

/// On a sampled slab, keeps a copy of a queued PDU for `probe_encodes`.
fn keep_for_probe(tr: &mut Tracer, kept: &mut Vec<E2apPdu>, pdu: &E2apPdu) {
    if tr.on {
        let t0 = tr.pause();
        kept.push(pdu.clone());
        tr.resume(t0);
    }
}

/// The E2AP encode happens inside `flush_outbox`, out of reach; repeat it
/// on the same PDUs right after, as probes charged to the flush span.
fn probe_encodes(
    tr: &mut Tracer,
    flush: u32,
    codec: E2apCodec,
    pdus: &mut Vec<E2apPdu>,
    buf: &mut BytesMut,
) {
    if pdus.is_empty() {
        return; // nothing was cloned: this slab is not a sampled one
    }
    let t0 = tr.pause();
    for pdu in pdus.drain(..) {
        let what = match pdu {
            E2apPdu::RicIndication(_) => L::IndEncode,
            _ => L::CtrlEncode,
        };
        tr.probe(what, flush, || {
            buf.clear();
            codec.encode_into(&pdu, buf);
        });
    }
    tr.resume(t0);
}

/// Tells scheduled keyframes from fallbacks, from outside the encoder.
#[derive(Clone, Copy, Default)]
pub struct KeySched {
    since_key: u32,
    started: bool,
}

/// `ReportSender::send` for one due subscription: the report mode decides
/// between a full snapshot, a delta frame, and nothing.  Returns whether an
/// indication was queued.
#[allow(clippy::too_many_arguments)]
pub fn report<T: DeltaRows>(
    streams: &mut DeltaStreams<(CtrlId, RicRequestId), T>,
    sched: &mut KeySched,
    sub: &SubInfo,
    mode: ReportMode,
    snap: &T,
    sm_codec: SmCodec,
    tx: &mut AgentTx,
    tr: &mut Tracer,
    c: &mut Counts,
) -> bool {
    c.opportunities += 1;
    c.attempted += 1;
    tr.id.req = pack(sub.req_id);
    let what = if mode == ReportMode::Full { L::SmEncode } else { L::SmDeltaEncode };
    let out = span!(tr, what, streams.report((sub.ctrl, sub.req_id), mode, snap, sm_codec));
    sched.since_key += 1;
    match out {
        ReportOut::Send(buf) => {
            if let ReportMode::Delta { keyframe_every } = mode {
                // Frame header: epoch (32) | seq (32) | is_delta (1).
                if buf.get(8).is_some_and(|b| b & 0x80 != 0) {
                    c.deltas += 1;
                } else {
                    c.keyframes += 1;
                    if sched.started && sched.since_key < keyframe_every {
                        c.fallbacks += 1;
                    }
                    sched.since_key = 0;
                }
                sched.started = true;
            }
            c.sent += 1;
            c.payload_bytes += buf.len() as u64;
            tx.send_indication(sub, buf, tr);
            true
        }
        ReportOut::Suppressed => {
            c.suppressed += 1;
            false
        }
    }
}

/// The slice-status report of `SliceCtrlFn::on_tick`: an allocating
/// encode, no delta stream.
pub fn report_plain<T: SmPayload>(
    sub: &SubInfo,
    snap: &T,
    sm_codec: SmCodec,
    tx: &mut AgentTx,
    tr: &mut Tracer,
    c: &mut Counts,
) {
    c.opportunities += 1;
    c.attempted += 1;
    tr.id.req = pack(sub.req_id);
    let msg = span!(tr, L::SmEncode, Bytes::from(snap.encode(sm_codec)));
    c.sent += 1;
    c.payload_bytes += msg.len() as u64;
    tx.send_indication(sub, msg, tr);
}

/// One slab read: the socket's bytes land in the assembler's slab.  Its
/// time is spread over the frames it carried (0 units of its own).
fn feed(asm: &mut FrameAssembler, wire: &[u8], tr: &mut Tracer) {
    let s = tr.begin(L::Reassembly);
    asm.feed(wire);
    tr.end(s);
    tr.set_units(s, 0);
}

fn next_frame(asm: &mut FrameAssembler, tr: &mut Tracer) -> Result<Option<WireMsg>, FrameError> {
    let s = tr.begin(L::Reassembly);
    let next = asm.next_frame();
    tr.end(s);
    tr.set_units(s, matches!(next, Ok(Some(_))) as u32);
    next
}

/// `Agent::handle_inbound` + `handle_control` + `SliceCtrlFn::on_control`
/// for everything the controller wrote to this agent, then the flush that
/// ends the agent's loop turn.
pub fn agent_handle_down(
    cell: &mut Cell,
    rx: &mut FrameAssembler,
    down: &[u8],
    sm_codec: SmCodec,
    tx: &mut AgentTx,
    tr: &mut Tracer,
    c: &mut Counts,
) {
    feed(rx, down, tr);
    loop {
        let msg = match next_frame(rx, tr) {
            Ok(Some(m)) => m,
            Ok(None) => break,
            Err(_) => {
                c.fail("agent: oversized frame");
                break;
            }
        };
        let pdu = match span!(tr, L::CtrlDecode, tx.codec.decode_borrowed(&msg.payload)) {
            Ok(p) => p,
            Err(_) => {
                c.fail("agent: undecodable PDU");
                continue;
            }
        };
        let E2apPdu::RicControlRequest(req) = pdu else { continue };
        tr.id.req = pack(req.req_id);
        let applied = match span!(tr, L::SmCtrlDecode, SliceCtrl::decode(sm_codec, &req.message)) {
            Ok(msg) => {
                let ok = span!(tr, L::ApplyCtrl, cell.apply_slice_ctrl(&msg)).is_ok();
                // `on_control` frees the decoded message when it returns.
                span!(tr, L::Teardown, drop(msg));
                ok
            }
            Err(_) => false,
        };
        let s = tr.begin(L::PduBuild);
        let reply = if applied {
            E2apPdu::RicControlAcknowledge(RicControlAcknowledge {
                req_id: req.req_id,
                ran_function: req.ran_function,
                call_process_id: req.call_process_id,
                outcome: Some(Bytes::from_static(b"ok")),
            })
        } else {
            E2apPdu::RicControlFailure(RicControlFailure {
                req_id: req.req_id,
                ran_function: req.ran_function,
                call_process_id: req.call_process_id,
                cause: flexric_e2ap::Cause::Ric(flexric_e2ap::RicCause::ControlMessageInvalid),
                outcome: None,
            })
        };
        tr.end(s);
        tx.push(0, reply, tr);
    }
    tx.flush(tr, c);
}

// ---------------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------------

/// `server::IndicationRef`.
enum IndRef<'a> {
    Raw { raw: &'a Bytes, hdr: PduHeader },
    Decoded(&'a RicIndication),
}

impl IndRef<'_> {
    fn req_id(&self) -> RicRequestId {
        match self {
            IndRef::Raw { hdr, .. } => hdr.req_id.unwrap_or_default(),
            IndRef::Decoded(ind) => ind.req_id,
        }
    }

    fn sm_payload(&self) -> Result<(&[u8], &[u8]), CodecError> {
        match self {
            IndRef::Raw { raw, .. } => flexric_codec::e2ap_fb::indication_payload(raw),
            IndRef::Decoded(ind) => Ok((&ind.header, &ind.message)),
        }
    }
}

struct DbEntry {
    raw: Bytes,
    #[allow(dead_code)] // written as in StatsDb; nothing here evicts
    updated_ms: u64,
}

/// `ctrl::monitoring::StatsDb`: the latest raw payload per SM OID per
/// agent.
#[derive(Default)]
pub struct Store {
    raw: HashMap<String, HashMap<AgentId, DbEntry>>,
}

impl Store {
    pub fn raw(&self, agent: AgentId, oid: &str) -> Option<&Bytes> {
        self.raw.get(oid)?.get(&agent).map(|e| &e.raw)
    }

    fn store(&mut self, agent: AgentId, oid: &str, raw: Bytes, now_ms: u64) {
        let entry = DbEntry { raw, updated_ms: now_ms };
        match self.raw.get_mut(oid) {
            Some(m) => {
                m.insert(agent, entry);
            }
            None => {
                self.raw.entry(oid.to_owned()).or_default().insert(agent, entry);
            }
        }
    }
}

/// `MonitorApp::is_anomalous` with the default thresholds: the monitor
/// evaluates it on every reconstruction, adaptive or not.
fn is_anomalous(snap: &(dyn std::any::Any + Send)) -> bool {
    if let Some(m) = snap.downcast_ref::<MacStatsInd>() {
        return m.ues.iter().any(|u| u.dl_backlog_bytes > 500_000);
    }
    if let Some(r) = snap.downcast_ref::<RlcStatsInd>() {
        return r.bearers.iter().any(|b| b.sojourn_us_avg > 300_000);
    }
    false
}

/// One shard with one monitoring iApp and one controlling iApp on it.
pub struct Controller {
    pub codec: E2apCodec,
    pub sm_codec: SmCodec,
    delta: bool,
    conns: Vec<FrameAssembler>,
    /// The wire toward each agent.
    pub down: Vec<BytesMut>,
    /// `ServerCore::subs`: owning iApp per subscription.
    subs: HashMap<(AgentId, RicRequestId), usize>,
    /// `MonitorApp::{subs, decoders, db}`.
    mon_subs: HashMap<(AgentId, RicRequestId), Arc<SmDescriptor>>,
    decoders: HashMap<(AgentId, RicRequestId), Box<dyn AnyDeltaDecoder>>,
    pub db: Arc<Mutex<Store>>,
    pub endpoint: E2apEndpoint<AgentId, usize>,
    outbox: Vec<(Targets<AgentId>, E2apPdu)>,
    scratch: EncodeScratch,
    probe_pdus: Vec<E2apPdu>,
    probe_buf: BytesMut,
    pub now_ms: u64,
    /// `on_control_outcome` deliveries not yet taken: acknowledges and
    /// failures.
    outcomes: (u32, u32),
}

/// iApp indices, as `Server::spawn` would number them.
const MONITOR: usize = 0;
const CONTROL: usize = 1;

impl Controller {
    pub fn new(codec: E2apCodec, sm_codec: SmCodec, delta: bool, agents: usize) -> Self {
        Controller {
            codec,
            sm_codec,
            delta,
            conns: (0..agents).map(|_| FrameAssembler::new()).collect(),
            down: (0..agents).map(|_| BytesMut::new()).collect(),
            subs: HashMap::new(),
            mon_subs: HashMap::new(),
            decoders: HashMap::new(),
            db: Arc::new(Mutex::new(Store::default())),
            endpoint: E2apEndpoint::new(RetryPolicy::default()),
            outbox: Vec::new(),
            scratch: EncodeScratch::new(),
            probe_pdus: Vec::new(),
            probe_buf: BytesMut::new(),
            now_ms: 0,
            outcomes: (0, 0),
        }
    }

    /// `ServerCore::next_req_id`.
    fn next_req_id(&mut self, iapp: usize) -> RicRequestId {
        let requestor = iapp as u16 + 1;
        let Controller { endpoint, subs, .. } = self;
        endpoint.alloc_request_id(requestor, |inst| {
            subs.keys().any(|(_, r)| r.requestor == requestor && r.instance == inst)
        })
    }

    /// What `MonitorApp::on_agent_connected` + `ServerApi::subscribe_report`
    /// leave behind once the agent has admitted the subscription; the
    /// subscription procedure itself is not part of the measured pipeline.
    pub fn subscribe(&mut self, agent: AgentId, desc: Arc<SmDescriptor>) -> SubInfo {
        let req_id = self.next_req_id(MONITOR);
        self.subs.insert((agent, req_id), MONITOR);
        self.mon_subs.insert((agent, req_id), desc.clone());
        SubInfo {
            ctrl: 0,
            req_id,
            ran_function: RanFunctionId::new(desc.ran_function_id),
            action: RicActionId(0),
            desc,
        }
    }

    /// One timed window of the controller: samples the slab, reads it
    /// inside a `stage` span, empties the wire, returns the busy time.
    pub fn ingest_timed(
        &mut self,
        stage: L,
        agent: AgentId,
        round: u64,
        wire: &mut BytesMut,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> u64 {
        tr.sample(agent, round);
        let t0 = tr.now();
        let st = tr.begin(stage);
        self.ingest(agent, wire, tr, c);
        tr.end(st);
        let busy = tr.now() - t0;
        wire.clear();
        busy
    }

    /// Reads everything `agent` wrote: one slab read, then every complete
    /// frame through `handle_inbound`.
    fn ingest(&mut self, agent: AgentId, wire: &[u8], tr: &mut Tracer, c: &mut Counts) {
        let asm = &mut self.conns[agent];
        feed(asm, wire, tr);
        c.feeds += 1;
        c.buffered_max = c.buffered_max.max(asm.buffered() as u64);
        loop {
            let msg = match next_frame(&mut self.conns[agent], tr) {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(_) => {
                    c.fail("controller: oversized frame");
                    break;
                }
            };
            c.frames += 1;
            c.pdus_in += 1;
            if msg.stream == WireMsg::STREAM_BULK {
                c.reassembled += 1;
            }
            if self.handle_inbound(agent, &msg.payload, tr, c).is_err() {
                c.fail("controller: undecodable PDU");
            }
        }
    }

    /// `ShardRuntime::handle_inbound`.
    fn handle_inbound(
        &mut self,
        agent: AgentId,
        raw: &Bytes,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> Result<(), CodecError> {
        if self.codec == E2apCodec::Flatb {
            let hdr = span!(tr, L::Peek, self.codec.peek(raw))?;
            if hdr.msg_type == MsgType::RicIndication {
                c.fast_path += 1;
                let req_id = hdr.req_id.unwrap_or_default();
                tr.id.req = pack(req_id);
                if span!(tr, L::Lookup, self.subs.get(&(agent, req_id)).copied()) == Some(MONITOR) {
                    self.on_indication(agent, &IndRef::Raw { raw, hdr }, tr, c);
                }
                return Ok(());
            }
        }
        let (what, ind) = match self.codec {
            E2apCodec::Asn1Per => (L::IndDecode, true),
            E2apCodec::Flatb => (L::CtrlDecode, false),
        };
        // Under PER the type is unknown until decoded; indications are
        // nearly all of the traffic, so the span is named after them and
        // renamed below if it was a control PDU.
        let s = tr.begin(what);
        let pdu = self.codec.decode_borrowed(raw);
        tr.end(s);
        match pdu? {
            E2apPdu::RicIndication(ind) => {
                tr.id.req = pack(ind.req_id);
                if span!(tr, L::Lookup, self.subs.get(&(agent, ind.req_id)).copied())
                    == Some(MONITOR)
                {
                    self.on_indication(agent, &IndRef::Decoded(&ind), tr, c);
                }
            }
            E2apPdu::RicControlAcknowledge(ack) => {
                if ind {
                    tr.rename(s, L::CtrlDecode);
                }
                self.complete(agent, ack.req_id, true, tr);
            }
            E2apPdu::RicControlFailure(fail) => {
                if ind {
                    tr.rename(s, L::CtrlDecode);
                }
                self.complete(agent, fail.req_id, false, tr);
            }
            _ => {}
        }
        Ok(())
    }

    fn complete(&mut self, agent: AgentId, req_id: RicRequestId, acked: bool, tr: &mut Tracer) {
        tr.id.req = pack(req_id);
        let done = span!(
            tr,
            L::ProcComplete,
            self.endpoint.table.complete(agent, ProcedureKey::Ric(req_id))
        );
        match (done.is_some(), acked) {
            (true, true) => self.outcomes.0 += 1,
            (true, false) => self.outcomes.1 += 1,
            (false, _) => {}
        }
    }

    /// Takes the control outcomes delivered since the last call; true if
    /// the agent whose slab was just read acknowledged a control.
    pub fn take_acked(&mut self, c: &mut Counts) -> bool {
        let (acked, failed) = std::mem::take(&mut self.outcomes);
        c.acked += acked as u64;
        for _ in 0..failed {
            c.fail("control answered with a failure");
        }
        acked > 0
    }

    /// `MonitorApp::on_indication`, store enabled, mode full or delta.
    fn on_indication(&mut self, agent: AgentId, ind: &IndRef, tr: &mut Tracer, c: &mut Counts) {
        let Ok((_, msg)) = span!(tr, L::PayloadSlice, ind.sm_payload()) else {
            c.fail("controller: no SM payload");
            return;
        };
        let req_id = ind.req_id();
        let Some(desc) = span!(tr, L::Lookup, self.mon_subs.get(&(agent, req_id)).cloned()) else {
            return;
        };
        if !self.delta || desc.vtable.new_delta_decoder.is_none() {
            span!(tr, L::Store, {
                let raw = Bytes::copy_from_slice(msg);
                self.db.lock().expect("single thread").store(agent, &desc.oid, raw, self.now_ms);
            });
            c.stored += 1;
            return;
        }
        let s = tr.begin(L::Lookup);
        let dec = self
            .decoders
            .entry((agent, req_id))
            .or_insert_with(|| desc.delta_decoder().expect("checked above"));
        tr.end(s);
        match span!(tr, L::SmDeltaApply, dec.apply(msg, self.sm_codec)) {
            Ok(AnyDeltaEvent::Snapshot { snap, .. }) => {
                let s = tr.begin(L::Store);
                std::hint::black_box(is_anomalous(&*snap));
                tr.end(s);
                // `MonitorApp::store_reconstruction`.
                let raw = span!(tr, L::SmReencode, desc.encode_indication(&*snap, self.sm_codec));
                let Some(raw) = raw else {
                    c.fail("controller: reconstruction does not re-encode");
                    return;
                };
                span!(tr, L::Store, {
                    let mut db = self.db.lock().expect("single thread");
                    db.store(agent, &desc.oid, Bytes::from(raw), self.now_ms);
                });
                c.stored += 1;
            }
            Ok(AnyDeltaEvent::NeedKeyframe) => c.fail("controller: delta stream lost sync"),
            Err(_) => c.fail("controller: malformed delta frame"),
        }
    }

    /// `ServerApi::control` with an acknowledge requested.
    pub fn control(
        &mut self,
        agent: AgentId,
        ran_function: RanFunctionId,
        message: Bytes,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> RicRequestId {
        let req_id = span!(tr, L::ReqIdAlloc, self.next_req_id(CONTROL));
        tr.id.req = pack(req_id);
        let s = tr.begin(L::PduBuild);
        let pdu = E2apPdu::RicControlRequest(RicControlRequest {
            req_id,
            ran_function,
            call_process_id: None,
            header: Bytes::new(),
            message,
            ack_request: Some(ControlAckRequest::Ack),
        });
        tr.end(s);
        span!(
            tr,
            L::ProcBegin,
            self.endpoint.table.begin(
                agent,
                ProcedureKey::Ric(req_id),
                ProcedureClass::Control,
                Some(pdu.clone()),
                CONTROL,
                self.now_ms,
            )
        );
        c.controls += 1;
        c.attempted += 1;
        c.proc_outstanding_max = c.proc_outstanding_max.max(self.endpoint.table.len() as u64);
        keep_for_probe(tr, &mut self.probe_pdus, &pdu);
        self.outbox.push((agent.into(), pdu));
        req_id
    }

    /// `ShardRuntime::tick_procedures` on the virtual clock.
    pub fn tick_procedures(&mut self, tr: &mut Tracer, c: &mut Counts) {
        let Controller { endpoint, outbox, now_ms, .. } = self;
        let s = tr.begin(L::ProcPoll);
        let timed_out = endpoint.table.poll(*now_ms, |agent, pdu| {
            c.proc_retransmits += 1;
            outbox.push((Targets::One(agent), pdu.clone()));
        });
        tr.end(s);
        c.proc_timed_out += timed_out.len() as u64;
        for _ in &timed_out {
            c.fail("controller: procedure timed out");
        }
    }

    /// `ShardRuntime::flush`.
    pub fn flush(&mut self, tr: &mut Tracer) {
        let Controller { codec, outbox, scratch, down, probe_pdus, probe_buf, .. } = self;
        let fl = tr.begin(L::OutboxFlush);
        flush_outbox(scratch, *codec, outbox, |agent, msg: WireMsg| {
            let s = tr.begin(L::FrameEncode);
            encode_frame_into(msg.stream, msg.ppid, &msg.payload, &mut down[agent]);
            tr.end(s);
        });
        tr.end(fl);
        probe_encodes(tr, fl, *codec, probe_pdus, probe_buf);
    }
}
