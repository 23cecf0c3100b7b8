//! The FlexRIC agent library (paper §4.1).
//!
//! Extends a base station with E2 agent functionality.  The agent owns the
//! connections to one or several controllers, performs the E2 setup
//! handshake, and dispatches functional procedures to registered
//! [`RanFunction`]s through the generic RAN-function API: callbacks for
//! subscription requests, subscription deletes, and control messages
//! (paper §4.1.1), plus a tick callback that drives periodic report
//! subscriptions.
//!
//! ## Multi-controller support (§4.1.2)
//!
//! The agent can be connected to additional controllers at runtime (via
//! [`AgentHandle::add_controller`] or an inbound E2 Connection Update).
//! RAN functions see the *controller origin* of every message, and the
//! UE-to-controller association decides which UEs a RAN function may expose
//! to which controller: every UE is associated with the first controller;
//! additional controllers see only explicitly associated UEs.
//!
//! ## A state machine, not a task
//!
//! [`Agent`] is a [`Machine`]: it is fed [`Event`]s ([`AgentIn`] its own)
//! and answers with [`Action`]s ([`AgentOut`] its own), and owns no socket,
//! task, channel or clock.  The crate's driver (behind [`Agent::spawn`])
//! dials, reads, writes and keeps time; `tests/protocol.rs` drives the same
//! struct from a queue and a counter.  DESIGN.md ("The machine/driver
//! split") tabulates every event and action.
//!
//! ## Connection robustness
//!
//! Agent-initiated procedures — **E2 Setup** and RIC Service Update — are
//! tracked in the shared procedure-endpoint layer ([`crate::endpoint`])
//! with deadlines and retransmission, and transaction ids come from its
//! wraparound-safe allocator.  Setup is a procedure like any other: begun
//! on `Connected`, retransmitted while the controller stays silent,
//! completed by `E2SetupResponse` / `E2SetupFailure` in the inbound
//! dispatcher.  Every way a link can fail — the dial, a rejected or
//! timed-out setup, a closed connection — ends in one place, *link down*:
//! hang up, drop the controller's subscriptions, terminate what was in
//! flight, and, for a controller that had been up, ask for a redial after
//! [`AgentConfig::reconnect`]'s capped exponential backoff.  The next setup
//! re-announces all RAN functions, so the controller can re-issue its
//! subscriptions without the embedder doing anything.  A controller that
//! was never up is not redialled: its first failure is the answer to
//! whoever added it ([`AgentOut::SetupDone`]).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;

use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::{ReportTrigger, SmCodec, SmPayload};
use flexric_transport::fault::FaultHandle;
use flexric_transport::TransportAddr;

use crate::endpoint::{self, Backoff, E2apEndpoint, ProcedureClass, ProcedureKey, RetryPolicy};
use crate::machine::{poll_in_order, Action, Event, Machine, PeerId};
use crate::scratch::{self, EncodeScratch, Targets};

pub use crate::driver::AgentHandle;

/// Index of a controller connection at this agent (0 = first controller).
pub type CtrlId = usize;

/// Configuration of an agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Identity advertised in E2 setup.
    pub node: GlobalE2NodeId,
    /// E2AP encoding used on all connections.
    pub codec: E2apCodec,
    /// Controllers to connect to at startup; the first is the default
    /// controller that sees all UEs.
    pub controllers: Vec<TransportAddr>,
    /// Internal tick period in milliseconds; `None` means the embedder
    /// drives time explicitly through [`AgentHandle::tick`] (virtual-time
    /// simulations) — procedure deadlines, E2 Setup's included, then only
    /// advance with those ticks.
    pub tick_ms: Option<u64>,
    /// Deadlines and retransmission budget for tracked procedures.
    pub retry: RetryPolicy,
    /// Backoff for redialing a lost controller link; `None` disables
    /// automatic reconnection.  A controller that was never up is not
    /// redialled: the initial connections at [`Agent::spawn`] and
    /// [`AgentHandle::add_controller`] fail fast.
    pub reconnect: Option<Backoff>,
    /// Fault injector applied to every outbound frame (robustness tests).
    pub fault: Option<FaultHandle>,
}

impl AgentConfig {
    /// A single-controller agent with 1 ms internal ticks and automatic
    /// reconnection under the default backoff.
    pub fn new(node: GlobalE2NodeId, controller: TransportAddr) -> Self {
        AgentConfig {
            node,
            codec: E2apCodec::default(),
            controllers: vec![controller],
            tick_ms: Some(1),
            retry: RetryPolicy::default(),
            reconnect: Some(Backoff::default()),
            fault: None,
        }
    }
}

/// An admitted subscription, as tracked by the agent and handed to RAN
/// functions for indication sending.
#[derive(Debug, Clone)]
pub struct SubscriptionInfo {
    /// Which controller requested it.
    pub ctrl: CtrlId,
    /// The subscription's request id.
    pub req_id: RicRequestId,
    /// The RAN function it addresses.
    pub ran_function: RanFunctionId,
    /// The admitted action id.
    pub action: RicActionId,
    /// The raw event trigger definition.
    pub trigger: Bytes,
}

/// Context handed to every [`RanFunction`] callback.
pub struct AgentCtx<'a> {
    /// Current time in milliseconds.
    pub now_ms: u64,
    outbox: &'a mut Vec<(Targets<CtrlId>, E2apPdu)>,
    assoc: &'a UeAssoc,
}

impl AgentCtx<'_> {
    /// Queues an arbitrary PDU toward a controller.
    pub fn send(&mut self, ctrl: CtrlId, pdu: E2apPdu) {
        self.outbox.push((Targets::One(ctrl), pdu));
    }

    /// Queues one PDU toward several controllers.  The PDU is encoded once
    /// at flush and the frame is shared across all targets.
    pub fn send_multi(&mut self, ctrls: Vec<CtrlId>, pdu: E2apPdu) {
        if ctrls.is_empty() {
            return;
        }
        self.outbox.push((Targets::from_vec(ctrls), pdu));
    }

    /// Queues a report indication for a subscription.
    pub fn send_indication(
        &mut self,
        sub: &SubscriptionInfo,
        sn: Option<u32>,
        header: Bytes,
        message: Bytes,
    ) {
        self.send(
            sub.ctrl,
            E2apPdu::RicIndication(RicIndication {
                req_id: sub.req_id,
                ran_function: sub.ran_function,
                action: sub.action,
                sn,
                ind_type: RicIndicationType::Report,
                header,
                message,
                call_process_id: None,
            }),
        );
    }

    /// Queues one report payload for several subscriptions at once.
    ///
    /// Subscriptions whose indication PDU would be identical (same request
    /// id, RAN function and action — common when controllers issue the
    /// same subscription) are grouped and encoded once at flush, sharing
    /// the frozen frame across their controllers.  Distinct groups are
    /// queued separately, so this is always safe to call.
    pub fn send_indication_multi<'s>(
        &mut self,
        subs: impl IntoIterator<Item = &'s SubscriptionInfo>,
        sn: Option<u32>,
        header: Bytes,
        message: Bytes,
    ) {
        let mut groups: Vec<(RicRequestId, RanFunctionId, RicActionId, Vec<CtrlId>)> = Vec::new();
        for sub in subs {
            match groups
                .iter_mut()
                .find(|(r, f, a, _)| *r == sub.req_id && *f == sub.ran_function && *a == sub.action)
            {
                Some((_, _, _, ctrls)) => ctrls.push(sub.ctrl),
                None => groups.push((sub.req_id, sub.ran_function, sub.action, vec![sub.ctrl])),
            }
        }
        for (req_id, ran_function, action, ctrls) in groups {
            let pdu = E2apPdu::RicIndication(RicIndication {
                req_id,
                ran_function,
                action,
                sn,
                ind_type: RicIndicationType::Report,
                header: header.clone(),
                message: message.clone(),
                call_process_id: None,
            });
            self.outbox.push((Targets::from_vec(ctrls), pdu));
        }
    }

    /// Whether `rnti` is exposed to `ctrl` under the current
    /// UE-to-controller association.
    pub fn ue_exposed(&self, ctrl: CtrlId, rnti: u16) -> bool {
        self.assoc.exposed(ctrl, rnti)
    }
}

/// The generic RAN-function API: custom SM-specific logic implements this
/// trait and registers with the agent.
pub trait RanFunction: Send {
    /// The function id advertised at E2 setup.
    fn id(&self) -> RanFunctionId;
    /// The service model OID advertised at E2 setup.
    fn oid(&self) -> String;
    /// The SM-encoded RAN function definition.
    fn definition(&self) -> Bytes;
    /// Definition revision.
    fn revision(&self) -> u16 {
        1
    }
    /// Service-model version advertised behind the OID (`major.minor`).
    /// Registry-backed functions report their descriptor's version; the
    /// default matches pre-versioning peers.
    fn version(&self) -> FnVersion {
        FnVersion::V1
    }

    /// A controller requests a subscription.  Return the admitted actions
    /// (commonly all of them) or a cause for rejection.  The function is
    /// responsible for SLA admission control (paper §4.1.2).
    fn on_subscription(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<(), Cause>;

    /// A controller re-issues an existing subscription with a new event
    /// trigger — the server-driven *retune* path (report-period backoff on
    /// quiescence, tightening on anomaly).  The subscription identity
    /// (controller, request id) is unchanged; only the trigger differs.
    ///
    /// The default implementation tears the subscription down and
    /// re-admits it, which is always correct; functions with per-stream
    /// state (delta encoders) override this to retune in place.
    fn on_subscription_update(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        self.on_subscription_delete(ctx, sub.ctrl, sub.req_id);
        self.on_subscription(ctx, sub, req)
    }

    /// A controller deletes a subscription.
    fn on_subscription_delete(&mut self, ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId);

    /// A controller sends a control message.  Return the control outcome
    /// bytes (if any) or a cause for failure.
    fn on_control(
        &mut self,
        ctx: &mut AgentCtx,
        ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause>;

    /// Called on every agent tick; periodic report functions emit their
    /// indications here.
    fn on_tick(&mut self, _ctx: &mut AgentCtx) {}
}

/// Helper managing the periodic report subscriptions of a RAN function:
/// decodes [`ReportTrigger`]s, tracks due times, answers deletes.
#[derive(Debug, Default)]
pub struct PeriodicSubs {
    subs: Vec<(SubscriptionInfo, ReportTrigger, u64)>,
}

impl PeriodicSubs {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether no subscription is active.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Admits a subscription whose event trigger is a [`ReportTrigger`]
    /// encoded with `sm_codec`.
    pub fn admit(
        &mut self,
        sub: &SubscriptionInfo,
        sm_codec: SmCodec,
        now_ms: u64,
    ) -> Result<(), Cause> {
        let trigger = ReportTrigger::decode(sm_codec, &sub.trigger)
            .map_err(|_| Cause::Ric(RicCause::UnsupportedEventTrigger))?;
        if self.subs.iter().any(|(s, _, _)| s.ctrl == sub.ctrl && s.req_id == sub.req_id) {
            return Err(Cause::Ric(RicCause::DuplicateAction));
        }
        self.subs.push((sub.clone(), trigger, now_ms));
        Ok(())
    }

    /// Retunes an existing subscription to the trigger carried by `sub`
    /// (same controller + request id, new event trigger) without tearing
    /// it down: the new period takes effect at the next due time.  Returns
    /// the decoded new trigger so callers can reset per-stream state
    /// (delta encoders force a keyframe on retune).
    pub fn retune(
        &mut self,
        sub: &SubscriptionInfo,
        sm_codec: SmCodec,
        now_ms: u64,
    ) -> Result<ReportTrigger, Cause> {
        let trigger = ReportTrigger::decode(sm_codec, &sub.trigger)
            .map_err(|_| Cause::Ric(RicCause::UnsupportedEventTrigger))?;
        let entry = self
            .subs
            .iter_mut()
            .find(|(s, _, _)| s.ctrl == sub.ctrl && s.req_id == sub.req_id)
            .ok_or(Cause::Ric(RicCause::RequestIdUnknown))?;
        entry.0 = sub.clone();
        entry.1 = trigger;
        entry.2 = now_ms + trigger.period_ms.max(1) as u64;
        Ok(trigger)
    }

    /// Removes a subscription; returns whether it existed.
    pub fn remove(&mut self, ctrl: CtrlId, req_id: RicRequestId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|(s, _, _)| !(s.ctrl == ctrl && s.req_id == req_id));
        self.subs.len() != before
    }

    /// Removes all subscriptions of a controller (reset / disconnect).
    pub fn remove_ctrl(&mut self, ctrl: CtrlId) {
        self.subs.retain(|(s, _, _)| s.ctrl != ctrl);
    }

    /// Calls `f` for every subscription due at `now_ms` and re-arms it.
    pub fn for_due(&mut self, now_ms: u64, mut f: impl FnMut(&SubscriptionInfo, &ReportTrigger)) {
        for (sub, trigger, next_due) in &mut self.subs {
            if now_ms >= *next_due {
                f(sub, trigger);
                let period = trigger.period_ms.max(1) as u64;
                *next_due = now_ms + period;
            }
        }
    }
}

/// UE-to-controller association table (paper §4.1.2).
#[derive(Debug, Default)]
pub struct UeAssoc {
    extra: HashMap<u16, HashSet<CtrlId>>,
}

impl UeAssoc {
    /// Whether `rnti` is exposed to `ctrl`: the first controller sees all
    /// UEs; additional controllers only explicitly associated ones.
    pub fn exposed(&self, ctrl: CtrlId, rnti: u16) -> bool {
        ctrl == 0 || self.extra.get(&rnti).is_some_and(|s| s.contains(&ctrl))
    }

    /// Associates a UE with a controller.
    pub fn associate(&mut self, rnti: u16, ctrl: CtrlId) {
        self.extra.entry(rnti).or_default().insert(ctrl);
    }

    /// Removes an association.
    pub fn disassociate(&mut self, rnti: u16, ctrl: CtrlId) {
        if let Some(s) = self.extra.get_mut(&rnti) {
            s.remove(&ctrl);
            if s.is_empty() {
                self.extra.remove(&rnti);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// What an agent is told beside frames, closes and ticks.
#[derive(Debug)]
pub enum AgentIn {
    /// Connect to one more controller.  It gets the next [`CtrlId`]; the
    /// outcome of its first setup comes back as [`AgentOut::SetupDone`].
    AddController(TransportAddr),
    /// The connection an [`AgentOut::Dial`] asked for is open.
    Connected {
        /// The controller that was dialled.
        ctrl: CtrlId,
        /// The new connection.
        peer: PeerId,
    },
    /// An [`AgentOut::Dial`] could not connect.
    DialFailed {
        /// The controller that was dialled.
        ctrl: CtrlId,
        /// Why, for whoever is waiting on the controller.
        error: String,
    },
    /// Expose `rnti` to an additional controller.
    AssociateUe(u16, CtrlId),
    /// Stop exposing `rnti` to a controller.
    DisassociateUe(u16, CtrlId),
}

/// What an agent asks for beside sends and hangups.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentOut {
    /// Open a connection to `addr` no sooner than `after_ms` from now and
    /// answer with [`AgentIn::Connected`] or [`AgentIn::DialFailed`].
    Dial {
        /// The controller the connection is for.
        ctrl: CtrlId,
        /// Where to connect.
        addr: TransportAddr,
        /// The backoff to wait out first (0 for a first dial).
        after_ms: u64,
    },
    /// The *first* E2 Setup toward `ctrl` ended: the controller is up, or
    /// it is given up on (a controller that was never up is not
    /// redialled).  Emitted once per controller.
    SetupDone {
        /// The controller concerned.
        ctrl: CtrlId,
        /// `Err` carries the dial error, the setup failure cause, or the
        /// timeout.
        result: Result<(), String>,
    },
}

/// Counters exposed by [`AgentHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Messages received from controllers.
    pub rx_msgs: u64,
    /// Messages sent to controllers.
    pub tx_msgs: u64,
    /// Bytes sent to controllers (encoded E2AP).
    pub tx_bytes: u64,
    /// Active subscriptions across all functions.
    pub active_subs: u64,
    /// Connected controllers (E2 Setup completed).
    pub controllers: u64,
    /// Procedure retransmissions sent.
    pub retries: u64,
    /// Procedures that expired terminally.
    pub timeouts: u64,
    /// Controller links re-established after a loss.
    pub reconnects: u64,
    /// Inbound PDUs that failed to decode.
    pub decode_errors: u64,
}

/// Agent-layer registry metrics, mirroring the per-instance [`AgentStats`]
/// into the process-wide registry (summed across agents in one process).
/// Registered as a block on first touch so the layer is always listed.
struct AgentObs {
    rx_msgs: flexric_obs::Counter,
    tx_msgs: flexric_obs::Counter,
    tx_bytes: flexric_obs::Counter,
    indications_sent: flexric_obs::Counter,
    decode_errors: flexric_obs::Counter,
    reconnects: flexric_obs::Counter,
    active_subs: flexric_obs::Gauge,
    controllers: flexric_obs::Gauge,
    dispatch_ns: flexric_obs::Histogram,
}

fn obs() -> &'static AgentObs {
    static M: std::sync::OnceLock<AgentObs> = std::sync::OnceLock::new();
    M.get_or_init(|| AgentObs {
        rx_msgs: flexric_obs::counter("flexric_agent_rx_msgs_total", "messages from controllers"),
        tx_msgs: flexric_obs::counter("flexric_agent_tx_msgs_total", "messages to controllers"),
        tx_bytes: flexric_obs::counter("flexric_agent_tx_bytes_total", "encoded bytes sent"),
        indications_sent: flexric_obs::counter(
            "flexric_agent_indications_sent_total",
            "RIC indications fanned out to controllers",
        ),
        decode_errors: flexric_obs::counter(
            "flexric_agent_decode_errors_total",
            "inbound PDUs that failed to decode",
        ),
        reconnects: flexric_obs::counter(
            "flexric_agent_reconnects_total",
            "controller connections re-established",
        ),
        active_subs: flexric_obs::gauge(
            "flexric_agent_subscriptions_live",
            "active subscriptions across all functions",
        ),
        controllers: flexric_obs::gauge("flexric_agent_controllers", "connected controllers"),
        dispatch_ns: flexric_obs::histogram(
            "flexric_agent_dispatch_ns",
            "inbound PDU decode + handler dispatch latency",
        ),
    })
}

/// One controller, from the moment it is added: where to dial it, the
/// connection bound to it right now, and how its link is doing.
struct CtrlConn {
    addr: TransportAddr,
    /// The connection bound to this controller.  It is the epoch filter:
    /// a frame or a close from any other peer belongs to a connection that
    /// has been replaced.
    peer: Option<PeerId>,
    /// E2 Setup has completed on `peer`.
    up: bool,
    /// Setup has completed at least once, so a lost link is redialled.
    ever_up: bool,
    /// Failed (re)dials since the link was last up; indexes the backoff.
    attempt: u32,
}

/// The E2 Setup request an E2 node opens a connection with.  The agent
/// sends it on every `Connected`; `flexric-ctrl`'s relay builds its north
/// side's with it too.
pub fn setup_request(
    transaction_id: u8,
    global_node: GlobalE2NodeId,
    ran_functions: Vec<RanFunctionItem>,
) -> E2apPdu {
    E2apPdu::E2SetupRequest(E2SetupRequest {
        transaction_id,
        global_node,
        ran_functions,
        component_configs: vec![],
    })
}

/// The agent: owns the RAN functions and the state of every controller
/// link; one logical thread of control, like the paper's single-threaded
/// implementation.  See the module docs for its events and actions.
pub struct Agent {
    cfg: AgentConfig,
    functions: Vec<Box<dyn RanFunction>>,
    sub_index: HashMap<(CtrlId, RicRequestId), usize>,
    conns: Vec<CtrlConn>,
    assoc: UeAssoc,
    outbox: Vec<(Targets<CtrlId>, E2apPdu)>,
    stats: AgentStats,
    scratch: EncodeScratch,
    now_ms: u64,
    /// The shared procedure endpoint: outstanding agent-initiated
    /// procedures (E2 Setup included) plus the wraparound-safe
    /// transaction-id allocator.
    endpoint: E2apEndpoint<CtrlId, ()>,
}

impl Machine for Agent {
    type In = AgentIn;
    type Out = AgentOut;

    fn handle(&mut self, event: Event<AgentIn>, now_ms: u64, out: &mut Vec<Action<AgentOut>>) {
        self.now_ms = now_ms;
        match event {
            Event::Frame(peer, raw) => {
                let Some(ctrl) = self.ctrl_of(peer) else { return };
                self.stats.rx_msgs += 1;
                obs().rx_msgs.inc();
                let _t = obs().dispatch_ns.timer();
                self.handle_inbound(ctrl, &raw, out);
            }
            Event::Closed(peer) => {
                let Some(ctrl) = self.ctrl_of(peer) else { return };
                self.link_down(ctrl, "connection closed", out);
            }
            Event::Tick => self.tick(out),
            Event::App(AgentIn::AddController(addr)) => self.add_controller(addr, out),
            Event::App(AgentIn::Connected { ctrl, peer }) => self.begin_setup(ctrl, peer, out),
            Event::App(AgentIn::DialFailed { ctrl, error }) => self.link_down(ctrl, &error, out),
            Event::App(AgentIn::AssociateUe(rnti, ctrl)) => self.assoc.associate(rnti, ctrl),
            Event::App(AgentIn::DisassociateUe(rnti, ctrl)) => self.assoc.disassociate(rnti, ctrl),
        }
        self.flush(out);
    }
}

impl Agent {
    /// An agent with no controller yet: feed it [`AgentIn::AddController`]
    /// per controller ([`Agent::spawn`] does, for `cfg.controllers`).
    pub fn new(cfg: AgentConfig, functions: Vec<Box<dyn RanFunction>>) -> Self {
        Agent {
            endpoint: E2apEndpoint::new(cfg.retry),
            cfg,
            functions,
            sub_index: HashMap::new(),
            conns: Vec::new(),
            assoc: UeAssoc::default(),
            outbox: Vec::new(),
            stats: AgentStats::default(),
            scratch: EncodeScratch::with_capacity(4096),
            now_ms: 0,
        }
    }

    /// Snapshot of the agent's counters.
    pub fn stats(&self) -> AgentStats {
        AgentStats { active_subs: self.sub_index.len() as u64, ..self.stats }
    }

    /// Controllers added so far, which is also the [`CtrlId`] the next
    /// [`AgentIn::AddController`] gets.
    pub fn ctrl_count(&self) -> usize {
        self.conns.len()
    }

    /// Procedures in flight toward controllers (setups, service updates).
    pub fn outstanding(&self) -> usize {
        self.endpoint.table.len()
    }

    /// The controller `peer` is bound to.  This is the one place a stale
    /// `Frame` or `Closed` — from a connection that was hung up on or
    /// replaced — is told from a live one: it maps to no controller.
    fn ctrl_of(&self, peer: PeerId) -> Option<CtrlId> {
        self.conns.iter().position(|c| c.peer == Some(peer))
    }

    fn fn_items(&self) -> Vec<RanFunctionItem> {
        self.functions
            .iter()
            .map(|f| RanFunctionItem {
                id: f.id(),
                definition: f.definition(),
                revision: f.revision(),
                oid: f.oid(),
                version: f.version(),
            })
            .collect()
    }

    fn add_controller(&mut self, addr: TransportAddr, out: &mut Vec<Action<AgentOut>>) {
        let ctrl = self.conns.len();
        self.conns.push(CtrlConn {
            addr: addr.clone(),
            peer: None,
            up: false,
            ever_up: false,
            attempt: 0,
        });
        out.push(Action::App(AgentOut::Dial { ctrl, addr, after_ms: 0 }));
    }

    /// Binds the freshly dialled `peer` to `ctrl` and begins E2 Setup on
    /// it: a tracked procedure with the setup deadline, retransmitted on
    /// ticks like any other until the controller answers or the attempt
    /// budget runs out.
    fn begin_setup(&mut self, ctrl: CtrlId, peer: PeerId, out: &mut Vec<Action<AgentOut>>) {
        match self.conns.get_mut(ctrl) {
            Some(conn) if conn.peer.is_none() => conn.peer = Some(peer),
            // No dial was outstanding for this controller.
            _ => return out.push(Action::Hangup(peer)),
        }
        let txid = self.endpoint.alloc_tx_id();
        let pdu = setup_request(txid, self.cfg.node, self.fn_items());
        self.endpoint.table.begin(
            ctrl,
            ProcedureKey::Tx(txid),
            ProcedureClass::Setup,
            Some(pdu.clone()),
            (),
            self.now_ms,
        );
        self.outbox.push((ctrl.into(), pdu));
    }

    /// E2 Setup toward `ctrl` completed.
    fn link_up(&mut self, ctrl: CtrlId, out: &mut Vec<Action<AgentOut>>) {
        let conn = &mut self.conns[ctrl];
        conn.up = true;
        conn.attempt = 0;
        self.stats.controllers += 1;
        if conn.ever_up {
            self.stats.reconnects += 1;
            obs().reconnects.inc();
        } else {
            conn.ever_up = true;
            out.push(Action::App(AgentOut::SetupDone { ctrl, result: Ok(()) }));
        }
    }

    /// The link toward `ctrl` is unusable — the dial failed, setup was
    /// rejected or timed out, or the connection closed.  Hang up, forget
    /// what depended on the connection, and either redial under the
    /// backoff (a controller that had been up) or report the failure (one
    /// that never was).
    fn link_down(&mut self, ctrl: CtrlId, why: &str, out: &mut Vec<Action<AgentOut>>) {
        let Some(conn) = self.conns.get_mut(ctrl) else { return };
        if let Some(peer) = conn.peer.take() {
            out.push(Action::Hangup(peer));
        }
        let was_up = std::mem::take(&mut conn.up);
        if !conn.ever_up {
            let result = Err(why.to_owned());
            out.push(Action::App(AgentOut::SetupDone { ctrl, result }));
        } else if let Some(backoff) = self.cfg.reconnect {
            let after_ms = backoff.delay_ms(conn.attempt);
            conn.attempt = conn.attempt.saturating_add(1);
            out.push(Action::App(AgentOut::Dial { ctrl, addr: conn.addr.clone(), after_ms }));
        }
        if was_up {
            self.stats.controllers = self.stats.controllers.saturating_sub(1);
            self.drop_ctrl_subs(ctrl);
        }
        // Procedures in flight toward this controller terminate now; the
        // next setup re-announces everything anyway.
        let _ = self.endpoint.table.connection_lost(ctrl);
    }

    fn drop_ctrl_subs(&mut self, ctrl: CtrlId) {
        let mut dropped: Vec<(CtrlId, RicRequestId)> =
            self.sub_index.keys().filter(|(c, _)| *c == ctrl).copied().collect();
        dropped.sort_unstable();
        for key in dropped {
            if let Some(fidx) = self.sub_index.remove(&key) {
                let mut ctx =
                    AgentCtx { now_ms: self.now_ms, outbox: &mut self.outbox, assoc: &self.assoc };
                self.functions[fidx].on_subscription_delete(&mut ctx, key.0, key.1);
            }
        }
        // Messages queued toward a dead controller are discarded at flush.
    }

    fn tick(&mut self, out: &mut Vec<Action<AgentOut>>) {
        // Retransmit due procedures and count terminal timeouts.
        let (again, timed_out) = poll_in_order(&mut self.endpoint.table, self.now_ms);
        self.stats.retries += again.len() as u64;
        self.outbox.extend(again.into_iter().map(|(ctrl, pdu)| (Targets::One(ctrl), pdu)));
        self.stats.timeouts += timed_out.len() as u64;
        for proc in timed_out {
            if proc.class == ProcedureClass::Setup {
                self.link_down(proc.peer, "E2 setup timed out", out);
            }
        }
        let mut ctx =
            AgentCtx { now_ms: self.now_ms, outbox: &mut self.outbox, assoc: &self.assoc };
        for f in &mut self.functions {
            f.on_tick(&mut ctx);
        }
    }

    fn find_fn(&self, id: RanFunctionId) -> Option<usize> {
        self.functions.iter().position(|f| f.id() == id)
    }

    fn handle_inbound(&mut self, ctrl: CtrlId, raw: &Bytes, out: &mut Vec<Action<AgentOut>>) {
        // Borrowed decode: byte-valued fields (control headers, action
        // definitions …) stay refcounted views of the transport read slab.
        let pdu = match self.cfg.codec.decode_borrowed(raw) {
            Ok(p) => p,
            Err(_) => {
                self.stats.decode_errors += 1;
                obs().decode_errors.inc();
                self.outbox.push((
                    ctrl.into(),
                    E2apPdu::ErrorIndication(ErrorIndication {
                        req_id: None,
                        ran_function: None,
                        cause: Some(Cause::Protocol(ProtocolCause::TransferSyntaxError)),
                    }),
                ));
                return;
            }
        };
        match pdu {
            E2apPdu::RicSubscriptionRequest(req) => self.handle_subscription(ctrl, req),
            E2apPdu::RicSubscriptionDeleteRequest(req) => {
                self.handle_subscription_delete(ctrl, req)
            }
            E2apPdu::RicControlRequest(req) => self.handle_control(ctrl, req),
            E2apPdu::E2ConnectionUpdate(upd) => {
                // The update is acknowledged at once; each added address
                // becomes a controller of its own, dialled and set up like
                // one added through AgentHandle::add_controller.
                let ack = E2apPdu::E2ConnectionUpdateAck(E2ConnectionUpdateAck {
                    transaction_id: upd.transaction_id,
                    setup: upd.add.clone(),
                    failed: vec![],
                });
                self.outbox.push((ctrl.into(), ack));
                for tnl in upd.add {
                    let addr = if let Some(name) = tnl.address.strip_prefix("mem:") {
                        TransportAddr::Mem(name.to_owned())
                    } else {
                        match format!("{}:{}", tnl.address, tnl.port).parse() {
                            Ok(a) => TransportAddr::Tcp(a),
                            Err(_) => continue,
                        }
                    };
                    self.add_controller(addr, out);
                }
            }
            E2apPdu::ResetRequest(req) => {
                self.drop_ctrl_subs(ctrl);
                self.outbox.push((
                    ctrl.into(),
                    E2apPdu::ResetResponse(ResetResponse { transaction_id: req.transaction_id }),
                ));
            }
            E2apPdu::RicServiceQuery(q) => {
                let known: HashSet<RanFunctionId> = q.accepted.iter().copied().collect();
                let missing: Vec<RanFunctionItem> =
                    self.fn_items().into_iter().filter(|f| !known.contains(&f.id)).collect();
                if !missing.is_empty() {
                    // The update is an agent-initiated procedure: tracked
                    // with a deadline and retransmitted until acked.
                    let txid = self.endpoint.alloc_tx_id();
                    let pdu = E2apPdu::RicServiceUpdate(RicServiceUpdate {
                        transaction_id: txid,
                        added: missing,
                        modified: vec![],
                        removed: vec![],
                    });
                    self.endpoint.table.begin(
                        ctrl,
                        ProcedureKey::Tx(txid),
                        ProcedureClass::ServiceUpdate,
                        Some(pdu.clone()),
                        (),
                        self.now_ms,
                    );
                    self.outbox.push((ctrl.into(), pdu));
                }
            }
            E2apPdu::RicServiceUpdateAck(ack) => {
                if self
                    .endpoint
                    .table
                    .complete(ctrl, ProcedureKey::Tx(ack.transaction_id))
                    .is_some()
                {
                    endpoint::note_completed(true);
                }
            }
            E2apPdu::E2SetupResponse(resp) => {
                if self.complete_setup(ctrl, resp.transaction_id) {
                    endpoint::note_completed(true);
                    self.link_up(ctrl, out);
                }
            }
            E2apPdu::E2SetupFailure(fail) => {
                if self.complete_setup(ctrl, fail.transaction_id) {
                    endpoint::note_completed(false);
                    self.link_down(ctrl, &format!("E2 setup rejected: {:?}", fail.cause), out);
                }
            }
            E2apPdu::ErrorIndication(_)
            | E2apPdu::E2ConnectionUpdateAck(_)
            | E2apPdu::ResetResponse(_) => {}
            other => {
                self.outbox.push((
                    ctrl.into(),
                    E2apPdu::ErrorIndication(ErrorIndication {
                        req_id: other.ric_request_id(),
                        ran_function: other.ran_function_id(),
                        cause: Some(Cause::Protocol(
                            ProtocolCause::MessageNotCompatibleWithReceiverState,
                        )),
                    }),
                ));
            }
        }
    }

    /// Completes the E2 Setup procedure `txid` names, if that is what is
    /// outstanding under it (a duplicate answer to a retransmitted request
    /// finds nothing).
    fn complete_setup(&mut self, ctrl: CtrlId, txid: u8) -> bool {
        let key = ProcedureKey::Tx(txid);
        let table = &mut self.endpoint.table;
        table.get(ctrl, key).is_some_and(|p| p.class == ProcedureClass::Setup)
            && table.complete(ctrl, key).is_some()
    }

    fn handle_subscription(&mut self, ctrl: CtrlId, req: RicSubscriptionRequest) {
        // An existing (controller, request id) is either the at-least-once
        // retransmit of a request we already answered, or a server-driven
        // *retune* carrying a new event trigger.  Both flow through
        // on_subscription_update — a retransmit retunes to the same
        // trigger, which is idempotent — and are re-acknowledged so the
        // server's procedure entry completes.
        let key = (ctrl, req.req_id);
        let existing = self.sub_index.get(&key).copied();
        let result = match existing.or_else(|| self.find_fn(req.ran_function)) {
            None => Err(Cause::Ric(RicCause::RanFunctionIdInvalid)),
            Some(fidx) => {
                let sub = SubscriptionInfo {
                    ctrl,
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                    action: req.actions.first().map(|a| a.id).unwrap_or_default(),
                    trigger: req.event_trigger.clone(),
                };
                let mut ctx =
                    AgentCtx { now_ms: self.now_ms, outbox: &mut self.outbox, assoc: &self.assoc };
                let f = &mut self.functions[fidx];
                let result = match existing {
                    Some(_) => f.on_subscription_update(&mut ctx, &sub, &req),
                    None => f.on_subscription(&mut ctx, &sub, &req),
                };
                result.map(|()| fidx)
            }
        };
        let pdu = match result {
            Ok(fidx) => {
                self.sub_index.insert(key, fidx);
                E2apPdu::RicSubscriptionResponse(RicSubscriptionResponse {
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                    admitted: req.actions.iter().map(|a| a.id).collect(),
                    not_admitted: vec![],
                })
            }
            Err(cause) => {
                self.sub_index.remove(&key);
                E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                    cause,
                })
            }
        };
        self.outbox.push((ctrl.into(), pdu));
    }

    fn handle_subscription_delete(&mut self, ctrl: CtrlId, req: RicSubscriptionDeleteRequest) {
        match self.sub_index.remove(&(ctrl, req.req_id)) {
            Some(fidx) => {
                let mut ctx =
                    AgentCtx { now_ms: self.now_ms, outbox: &mut self.outbox, assoc: &self.assoc };
                self.functions[fidx].on_subscription_delete(&mut ctx, ctrl, req.req_id);
                self.outbox.push((
                    ctrl.into(),
                    E2apPdu::RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse {
                        req_id: req.req_id,
                        ran_function: req.ran_function,
                    }),
                ));
            }
            None => {
                self.outbox.push((
                    ctrl.into(),
                    E2apPdu::RicSubscriptionDeleteFailure(RicSubscriptionDeleteFailure {
                        req_id: req.req_id,
                        ran_function: req.ran_function,
                        cause: Cause::Ric(RicCause::RequestIdUnknown),
                    }),
                ));
            }
        }
    }

    fn handle_control(&mut self, ctrl: CtrlId, req: RicControlRequest) {
        let Some(fidx) = self.find_fn(req.ran_function) else {
            self.outbox.push((
                ctrl.into(),
                E2apPdu::RicControlFailure(RicControlFailure {
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                    call_process_id: req.call_process_id.clone(),
                    cause: Cause::Ric(RicCause::RanFunctionIdInvalid),
                    outcome: None,
                }),
            ));
            return;
        };
        let mut ctx =
            AgentCtx { now_ms: self.now_ms, outbox: &mut self.outbox, assoc: &self.assoc };
        let result = self.functions[fidx].on_control(&mut ctx, ctrl, &req);
        match result {
            Ok(outcome) => {
                if matches!(req.ack_request, Some(ControlAckRequest::Ack)) || outcome.is_some() {
                    self.outbox.push((
                        ctrl.into(),
                        E2apPdu::RicControlAcknowledge(RicControlAcknowledge {
                            req_id: req.req_id,
                            ran_function: req.ran_function,
                            call_process_id: req.call_process_id,
                            outcome,
                        }),
                    ));
                }
            }
            Err(cause) => {
                if !matches!(req.ack_request, Some(ControlAckRequest::NoAck)) {
                    self.outbox.push((
                        ctrl.into(),
                        E2apPdu::RicControlFailure(RicControlFailure {
                            req_id: req.req_id,
                            ran_function: req.ran_function,
                            call_process_id: req.call_process_id,
                            cause,
                            outcome: None,
                        }),
                    ));
                }
            }
        }
    }

    fn flush(&mut self, out: &mut Vec<Action<AgentOut>>) {
        let m = obs();
        let Agent { conns, stats, outbox, scratch, cfg, .. } = self;
        let bound = |c: CtrlId| conns.get(c).and_then(|conn| conn.peer);
        let indications: u64 = outbox
            .iter()
            .filter(|(_, pdu)| matches!(pdu, E2apPdu::RicIndication(_)))
            .map(|(targets, _)| {
                targets.as_slice().iter().filter(|&&c| bound(c).is_some()).count() as u64
            })
            .sum();
        m.indications_sent.add(indications);
        // Encode each queued PDU exactly once into the reusable scratch
        // buffer and share the frozen frame across its targets.  What is
        // queued toward a controller with no connection is discarded.
        scratch::flush_outbox(scratch, cfg.codec, outbox, |ctrl, msg| {
            let Some(peer) = bound(ctrl) else { return };
            stats.tx_msgs += 1;
            stats.tx_bytes += msg.payload.len() as u64;
            m.tx_msgs.inc();
            m.tx_bytes.add(msg.payload.len() as u64);
            out.push(Action::Send(peer, msg));
        });
        m.active_subs.set(self.sub_index.len() as i64);
        m.controllers.set(self.stats.controllers as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_assoc_defaults_to_first_controller() {
        let mut assoc = UeAssoc::default();
        assert!(assoc.exposed(0, 0x4601));
        assert!(!assoc.exposed(1, 0x4601));
        assoc.associate(0x4601, 1);
        assert!(assoc.exposed(1, 0x4601));
        assert!(!assoc.exposed(2, 0x4601));
        assoc.disassociate(0x4601, 1);
        assert!(!assoc.exposed(1, 0x4601));
        assert!(assoc.exposed(0, 0x4601), "first controller always sees UEs");
    }

    #[test]
    fn periodic_subs_admit_and_fire() {
        let mut subs = PeriodicSubs::new();
        let trigger = ReportTrigger::every_ms(10).encode(SmCodec::Flatb);
        let sub = SubscriptionInfo {
            ctrl: 0,
            req_id: RicRequestId::new(1, 1),
            ran_function: RanFunctionId::new(142),
            action: RicActionId(0),
            trigger: Bytes::from(trigger),
        };
        subs.admit(&sub, SmCodec::Flatb, 0).unwrap();
        assert_eq!(subs.len(), 1);
        // Duplicate rejected.
        assert_eq!(subs.admit(&sub, SmCodec::Flatb, 0), Err(Cause::Ric(RicCause::DuplicateAction)));
        // Fires at 0, re-arms for 10.
        let mut fired = 0;
        subs.for_due(0, |_, _| fired += 1);
        assert_eq!(fired, 1);
        subs.for_due(5, |_, _| fired += 1);
        assert_eq!(fired, 1, "not due yet");
        subs.for_due(10, |_, _| fired += 1);
        assert_eq!(fired, 2);
        assert!(subs.remove(0, RicRequestId::new(1, 1)));
        assert!(!subs.remove(0, RicRequestId::new(1, 1)));
        assert!(subs.is_empty());
    }

    #[test]
    fn periodic_subs_reject_bad_trigger() {
        let mut subs = PeriodicSubs::new();
        let sub = SubscriptionInfo {
            ctrl: 0,
            req_id: RicRequestId::new(1, 2),
            ran_function: RanFunctionId::new(142),
            action: RicActionId(0),
            trigger: Bytes::from_static(b"\xFF\xFF"),
        };
        assert_eq!(
            subs.admit(&sub, SmCodec::Flatb, 0),
            Err(Cause::Ric(RicCause::UnsupportedEventTrigger))
        );
    }

    #[test]
    fn periodic_subs_remove_ctrl() {
        let mut subs = PeriodicSubs::new();
        let trigger = Bytes::from(ReportTrigger::every_ms(1).encode(SmCodec::Asn1Per));
        for ctrl in 0..3 {
            let sub = SubscriptionInfo {
                ctrl,
                req_id: RicRequestId::new(1, ctrl as u16),
                ran_function: RanFunctionId::new(142),
                action: RicActionId(0),
                trigger: trigger.clone(),
            };
            subs.admit(&sub, SmCodec::Asn1Per, 0).unwrap();
        }
        subs.remove_ctrl(1);
        assert_eq!(subs.len(), 2);
    }
}
