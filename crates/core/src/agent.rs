//! The FlexRIC agent library (paper §4.1).
//!
//! Extends a base station with E2 agent functionality.  The agent owns the
//! connections to one or several controllers, performs the E2 setup
//! handshake, and dispatches functional procedures to registered
//! [`RanFunction`]s through the generic RAN-function API: callbacks for
//! subscription requests, subscription deletes, and control messages
//! (paper §4.1.1).  It also keeps the subscription books — every admitted
//! [`Subscription`] with its trigger, its due time and the state its
//! function attached — so a function is told *when* a report is due and
//! contains only what it reports (§4.1.2's "custom SM-specific logic").
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
//! on a dial's `Dialled`, retransmitted while the controller stays silent,
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

use std::any::Any;
use std::collections::{HashMap, HashSet};

use bytes::Bytes;

use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::{ReportMode, ReportTrigger, SmCodec, SmPayload};
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
    /// drives time explicitly through [`Handle::tick`](crate::Handle::tick)
    /// (virtual-time simulations) — procedure deadlines, E2 Setup's
    /// included, then only advance with those ticks.
    pub tick_ms: Option<u64>,
    /// Deadlines and retransmission budget for tracked procedures.
    pub retry: RetryPolicy,
    /// Backoff for redialing a lost controller link; `None` disables
    /// automatic reconnection.  A controller that was never up is not
    /// redialled: the initial connections at [`Agent::spawn`] and
    /// [`AgentHandle::add_controller`] fail fast.
    pub reconnect: Option<Backoff>,
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
        }
    }
}

/// The identity of an admitted subscription: who asked, under which
/// request id, of which function.  It is what an indication is addressed
/// with ([`AgentCtx::send_indication`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionInfo {
    /// Which controller requested it.
    pub ctrl: CtrlId,
    /// The subscription's request id.
    pub req_id: RicRequestId,
    /// The RAN function it addresses.
    pub ran_function: RanFunctionId,
    /// The admitted action id.
    pub action: RicActionId,
}

/// What a RAN function answers an admitted subscription with: whether the
/// agent is to schedule it, and whatever the function wants kept with it.
pub struct Admission {
    pub(crate) trigger: Option<ReportTrigger>,
    pub(crate) state: Box<dyn Any + Send>,
}

impl Admission {
    /// A subscription the agent never finds due: the function reports on
    /// it when something happens, to whoever [`AgentCtx::subscribers`]
    /// lists then.
    pub fn on_event() -> Self {
        Admission { trigger: None, state: Box::new(()) }
    }

    /// A subscription the agent finds due every `trigger.period_ms` (see
    /// [`RanFunction::on_report`] for the schedule).
    pub fn periodic(trigger: ReportTrigger) -> Self {
        Admission { trigger: Some(trigger), state: Box::new(()) }
    }

    /// [`Admission::periodic`] under the request's event trigger, a
    /// [`ReportTrigger`] encoded with `sm_codec`; any other trigger is
    /// refused.
    pub fn report(req: &RicSubscriptionRequest, sm_codec: SmCodec) -> Result<Self, Cause> {
        ReportTrigger::decode(sm_codec, &req.event_trigger)
            .map(Self::periodic)
            .map_err(|_| Cause::Ric(RicCause::UnsupportedEventTrigger))
    }

    /// Keeps `state` with the subscription ([`Subscription::parts`]): a
    /// measurement baseline, the bearer it watches, a delta stream.
    pub fn with_state(self, state: impl Any + Send) -> Self {
        Admission { state: Box::new(state), ..self }
    }
}

/// An admitted subscription, as the agent keeps it from admission to
/// delete, retune or the loss of its controller.
pub struct Subscription {
    info: SubscriptionInfo,
    /// The trigger it reports under; `None` for [`Admission::on_event`].
    pub(crate) trigger: Option<ReportTrigger>,
    /// What the function attached at admission (`()` if nothing).
    pub(crate) state: Box<dyn Any + Send>,
    /// When the next report is due.
    due_ms: u64,
    /// Whether it is among the [`Due`] of the tick being handled.
    due: bool,
}

impl Subscription {
    fn new(info: SubscriptionInfo, admission: Admission, now_ms: u64) -> Self {
        let Admission { trigger, state } = admission;
        Subscription { info, trigger, state, due_ms: now_ms, due: false }
    }

    /// Whom its indications go to.
    pub fn info(&self) -> &SubscriptionInfo {
        &self.info
    }

    /// The report mode asked for (full for an event-driven subscription).
    pub fn mode(&self) -> ReportMode {
        self.trigger.map_or(ReportMode::Full, |t| t.mode)
    }

    /// The identity together with the attached state as the `S` it was
    /// admitted with.
    ///
    /// # Panics
    /// If the function attached a state of another type.
    pub fn parts<S: Any>(&mut self) -> (&SubscriptionInfo, &mut S) {
        (&self.info, self.state.downcast_mut().expect("the state attached at admission"))
    }

    /// The one re-arm rule.  Due times lie on a grid of whole periods from
    /// `anchor`; the next one is the first point of it after `now_ms`.
    /// Anchored at the due time that just fired, a late tick delays one
    /// report and moves no later one, and a stall of many periods gives one
    /// report, not a burst; anchored at `now_ms` (a retune), the new period
    /// takes effect one period from now.
    fn rearm(&mut self, anchor: u64, now_ms: u64) {
        let period = self.trigger.map_or(1, |t| t.period_ms.max(1)) as u64;
        self.due_ms = anchor + (now_ms.saturating_sub(anchor) / period + 1) * period;
    }

    /// Marks the subscription due or not on the tick at `now_ms`, and
    /// re-arms one that is.
    fn take_due(&mut self, now_ms: u64) -> bool {
        self.due = self.trigger.is_some() && now_ms >= self.due_ms;
        if self.due {
            self.rearm(self.due_ms, now_ms);
        }
        self.due
    }
}

/// The subscriptions of one function that are due on this tick, in the
/// order they were admitted.
pub struct Due<'a>(&'a mut [Subscription]);

impl<'a> Due<'a> {
    /// The due subscriptions.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.0.iter().filter(|s| s.due)
    }

    /// The due subscriptions, with their state open to change.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Subscription> {
        self.0.iter_mut().filter(|s| s.due)
    }
}

/// Context handed to every [`RanFunction`] callback.
pub struct AgentCtx<'a> {
    /// Current time in milliseconds.
    pub now_ms: u64,
    outbox: &'a mut Vec<(Targets<CtrlId>, E2apPdu)>,
    assoc: &'a UeAssoc,
    subs: &'a [Subscription],
}

impl<'a> AgentCtx<'a> {
    /// The subscriptions the function being called holds right now, in
    /// the order they were admitted — whom an event-driven function
    /// reports to.  (Empty inside [`RanFunction::on_report`], which is
    /// handed the ones that matter there.)
    pub fn subscribers(&self) -> &'a [Subscription] {
        self.subs
    }

    /// Queues an arbitrary PDU toward a controller.
    pub fn send(&mut self, ctrl: CtrlId, pdu: E2apPdu) {
        self.outbox.push((Targets::One(ctrl), pdu));
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
///
/// The agent keeps the subscription books — who subscribed, under which
/// trigger, when each report is due, and the per-subscription state the
/// function attached — and routes requests, retunes, deletes and the loss
/// of a controller by `(controller, request id)`.  A function is its
/// identity, an admission decision, and what it does when a report is due
/// or a control message arrives.
pub trait RanFunction: Send {
    /// What the function is advertised as at E2 Setup: id, OID, version,
    /// definition and revision in one value
    /// ([`flexric_sm::SmDescriptor::advertisement`] builds it from a
    /// registered descriptor).
    fn identity(&self) -> &RanFunctionItem;

    /// A controller requests a subscription.  Return how it is to be kept
    /// ([`Admission`]) or a cause for rejection.  The function is
    /// responsible for SLA admission control (paper §4.1.2).
    fn on_subscription(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause>;

    /// A controller re-issues an existing subscription, usually with a new
    /// event trigger — the server-driven *retune* path (report-period
    /// backoff on quiescence, tightening on anomaly).  `old` is the
    /// subscription as it was; the answer replaces it, in its place in the
    /// admission order, due one new period from now.  A refusal ends the
    /// subscription: the controller is sent the failure and nothing is kept.
    ///
    /// The default tears the subscription down and re-admits it, which is
    /// always correct; functions with per-stream state (delta encoders)
    /// override this to carry the state over.
    fn on_subscription_update(
        &mut self,
        ctx: &mut AgentCtx,
        old: Subscription,
        sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        self.on_subscription_delete(ctx, old);
        self.on_subscription(ctx, sub, req)
    }

    /// A subscription ended — deleted, reset, or its controller was lost.
    /// The agent has already forgotten it; `sub` hands its state back.
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, _sub: Subscription) {}

    /// A controller sends a control message.  Return the control outcome
    /// bytes (if any) or a cause for failure.
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        _req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        Err(Cause::Ric(RicCause::ActionNotSupported))
    }

    /// Called once on a tick on which periodic subscriptions of this
    /// function are due, with all of them, so one snapshot can serve them.
    ///
    /// A subscription is first due on the first tick at or after its
    /// admission and then every period on a grid anchored there: a tick
    /// that comes late delays that one report and moves no later one, and
    /// after a stall of many periods there is one report, not a burst.
    fn on_report(&mut self, _ctx: &mut AgentCtx, _due: Due<'_>) {}

    /// Called on every agent tick, after [`on_report`](Self::on_report):
    /// where an event-driven function polls its source and reports to
    /// [`AgentCtx::subscribers`].
    fn on_tick(&mut self, _ctx: &mut AgentCtx) {}
}

/// What answers control `req`, which ended in `result` (a
/// [`RanFunction::on_control`]'s answer): an acknowledgement when one was
/// asked for or there is an outcome to carry, a failure unless none was
/// wanted.
pub fn control_answer(
    req: &RicControlRequest,
    result: Result<Option<Bytes>, Cause>,
) -> Option<E2apPdu> {
    let (req_id, ran_function, call_process_id) =
        (req.req_id, req.ran_function, req.call_process_id.clone());
    match result {
        Ok(outcome) if req.ack_request == Some(ControlAckRequest::Ack) || outcome.is_some() => {
            let ack = RicControlAcknowledge { req_id, ran_function, call_process_id, outcome };
            Some(E2apPdu::RicControlAcknowledge(ack))
        }
        Err(cause) if req.ack_request != Some(ControlAckRequest::NoAck) => {
            Some(E2apPdu::RicControlFailure(RicControlFailure {
                req_id,
                ran_function,
                call_process_id,
                cause,
                outcome: None,
            }))
        }
        _ => None,
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

/// What an agent is told beside frames, closes, dial answers and ticks.
#[derive(Debug)]
pub enum AgentIn {
    /// Connect to one more controller.  It gets the next [`CtrlId`]; the
    /// outcome of its first setup comes back as [`AgentOut::SetupDone`].
    AddController(TransportAddr),
    /// Expose `rnti` to an additional controller.
    AssociateUe(u16, CtrlId),
    /// Stop exposing `rnti` to a controller.
    DisassociateUe(u16, CtrlId),
}

/// What an agent asks for beside sends, hangups and dials (each tagged
/// with the [`CtrlId`] it is for).
#[derive(Debug, Clone, PartialEq)]
pub enum AgentOut {
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
            "inbound PDU decode + handler dispatch latency; sampled: 1 call in 16 timed",
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

/// The E2 Setup request an E2 node opens a connection with, sent on every
/// connection a dial opened.
fn setup_request(
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

/// One registered RAN function and the books the agent keeps for it.
struct Slot {
    f: Box<dyn RanFunction>,
    subs: Vec<Subscription>,
}

/// The agent: owns the RAN functions and the state of every controller
/// link; one logical thread of control, like the paper's single-threaded
/// implementation.  See the module docs for its events and actions.
pub struct Agent {
    cfg: AgentConfig,
    /// The RAN functions in registration order, each with its admitted
    /// subscriptions in admission order: the order of indications within a
    /// tick.
    slots: Vec<Slot>,
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
            // A dial's tag is the controller it is for.
            Event::Dialled(ctrl, Ok(peer)) => self.begin_setup(ctrl, peer, out),
            Event::Dialled(ctrl, Err(error)) => self.link_down(ctrl, &error, out),
            // An agent listens nowhere.
            Event::Accepted(peer, _) => out.push(Action::Hangup(peer)),
            Event::App(AgentIn::AddController(addr)) => self.add_controller(addr, out),
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
            slots: functions.into_iter().map(|f| Slot { f, subs: Vec::new() }).collect(),
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
        AgentStats { active_subs: self.active_subs(), ..self.stats }
    }

    fn active_subs(&self) -> u64 {
        self.slots.iter().map(|s| s.subs.len() as u64).sum()
    }

    /// Controllers added so far, which is also the [`CtrlId`] the next
    /// [`AgentIn::AddController`] gets.
    pub fn ctrl_count(&self) -> usize {
        self.conns.len()
    }

    /// The controllers its configuration lists, for a spawn to add.
    pub(crate) fn controllers(&self) -> &[TransportAddr] {
        &self.cfg.controllers
    }

    /// Procedures in flight toward controllers (setups, service updates).
    pub fn outstanding(&self) -> usize {
        self.endpoint.table.len()
    }

    /// The connection to `ctrl`, once E2 Setup has completed on it.
    pub(crate) fn link(&self, ctrl: CtrlId) -> Option<PeerId> {
        self.conns.get(ctrl).filter(|c| c.up).and_then(|c| c.peer)
    }

    /// The controller `peer` is bound to.  This is the one place a stale
    /// `Frame` or `Closed` — from a connection that was hung up on or
    /// replaced — is told from a live one: it maps to no controller.
    pub(crate) fn ctrl_of(&self, peer: PeerId) -> Option<CtrlId> {
        self.conns.iter().position(|c| c.peer == Some(peer))
    }

    fn fn_items(&self) -> Vec<RanFunctionItem> {
        self.slots.iter().map(|s| s.f.identity().clone()).collect()
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
        out.push(Action::Dial { tag: ctrl, addr, after_ms: 0 });
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
            out.push(Action::Dial { tag: ctrl, addr: conn.addr.clone(), after_ms });
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
        let Agent { slots, outbox, assoc, now_ms, .. } = self;
        for Slot { f, subs } in slots {
            while let Some(pos) = subs.iter().position(|s| s.info.ctrl == ctrl) {
                let sub = subs.remove(pos);
                f.on_subscription_delete(
                    &mut AgentCtx { now_ms: *now_ms, outbox, assoc, subs },
                    sub,
                );
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
        // The agent decides what is due; each function is called once
        // with its due subscriptions, then for its own polling.
        let Agent { slots, outbox, assoc, now_ms, .. } = self;
        let now_ms = *now_ms;
        for Slot { f, subs } in slots {
            let due = subs.iter_mut().fold(false, |any, sub| sub.take_due(now_ms) | any);
            if due {
                f.on_report(&mut AgentCtx { now_ms, outbox, assoc, subs: &[] }, Due(subs));
            }
            f.on_tick(&mut AgentCtx { now_ms, outbox, assoc, subs });
        }
    }

    fn find_fn(&self, id: RanFunctionId) -> Option<usize> {
        self.slots.iter().position(|s| s.f.identity().id == id)
    }

    /// Where the subscription `(ctrl, req_id)` is kept: its function's
    /// slot and its place in that slot's admission order.
    fn find_sub(&self, ctrl: CtrlId, req_id: RicRequestId) -> Option<(usize, usize)> {
        self.slots.iter().enumerate().find_map(|(fidx, slot)| {
            let pos = slot.subs.iter().position(|s| (s.info.ctrl, s.info.req_id) == (ctrl, req_id));
            pos.map(|pos| (fidx, pos))
        })
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
        // trigger — and are re-acknowledged so the server's procedure
        // entry completes.
        let existing = self.find_sub(ctrl, req.req_id);
        let fidx = existing.map(|(fidx, _)| fidx).or_else(|| self.find_fn(req.ran_function));
        let result = match fidx {
            None => Err(Cause::Ric(RicCause::RanFunctionIdInvalid)),
            Some(fidx) => {
                let info = SubscriptionInfo {
                    ctrl,
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                    action: req.actions.first().map(|a| a.id).unwrap_or_default(),
                };
                let now_ms = self.now_ms;
                let Slot { f, subs } = &mut self.slots[fidx];
                let (pos, old) = existing.map(|(_, pos)| (pos, subs.remove(pos))).unzip();
                let mut ctx =
                    AgentCtx { now_ms, outbox: &mut self.outbox, assoc: &self.assoc, subs };
                let admission = match old {
                    None => f.on_subscription(&mut ctx, &info, &req),
                    Some(old) => f.on_subscription_update(&mut ctx, old, &info, &req),
                };
                admission.map(|admission| {
                    let mut sub = Subscription::new(info, admission, now_ms);
                    match pos {
                        None => subs.push(sub),
                        // A retune keeps its place and is due a period on.
                        Some(pos) => {
                            sub.rearm(now_ms, now_ms);
                            subs.insert(pos, sub);
                        }
                    }
                })
            }
        };
        let pdu = match result {
            Ok(()) => E2apPdu::RicSubscriptionResponse(RicSubscriptionResponse {
                req_id: req.req_id,
                ran_function: req.ran_function,
                admitted: req.actions.iter().map(|a| a.id).collect(),
                not_admitted: vec![],
            }),
            Err(cause) => E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                req_id: req.req_id,
                ran_function: req.ran_function,
                cause,
            }),
        };
        self.outbox.push((ctrl.into(), pdu));
    }

    fn handle_subscription_delete(&mut self, ctrl: CtrlId, req: RicSubscriptionDeleteRequest) {
        let pdu = match self.find_sub(ctrl, req.req_id) {
            Some((fidx, pos)) => {
                let Slot { f, subs } = &mut self.slots[fidx];
                let sub = subs.remove(pos);
                let mut ctx = AgentCtx {
                    now_ms: self.now_ms,
                    outbox: &mut self.outbox,
                    assoc: &self.assoc,
                    subs,
                };
                f.on_subscription_delete(&mut ctx, sub);
                E2apPdu::RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse {
                    req_id: req.req_id,
                    ran_function: req.ran_function,
                })
            }
            None => E2apPdu::RicSubscriptionDeleteFailure(RicSubscriptionDeleteFailure {
                req_id: req.req_id,
                ran_function: req.ran_function,
                cause: Cause::Ric(RicCause::RequestIdUnknown),
            }),
        };
        self.outbox.push((ctrl.into(), pdu));
    }

    fn handle_control(&mut self, ctrl: CtrlId, req: RicControlRequest) {
        let result = match self.find_fn(req.ran_function) {
            None => Err(Cause::Ric(RicCause::RanFunctionIdInvalid)),
            Some(fidx) => {
                let Slot { f, subs } = &mut self.slots[fidx];
                let (outbox, assoc) = (&mut self.outbox, &self.assoc);
                f.on_control(&mut AgentCtx { now_ms: self.now_ms, outbox, assoc, subs }, ctrl, &req)
            }
        };
        if let Some(answer) = control_answer(&req, result) {
            self.outbox.push((ctrl.into(), answer));
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
        m.active_subs.set(self.active_subs() as i64);
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
}
