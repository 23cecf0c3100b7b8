//! One shard of the controller: the state machine owning a disjoint set of
//! agents — their connections, RAN database slice, subscription routing,
//! and procedure endpoint.
//!
//! The indication hot path (header peek → subscription lookup → iApp
//! dispatch) runs entirely inside one shard, with no cross-shard lock, and
//! a shard sends only to the agents it holds: a frame for any other agent
//! is dropped at flush, as one for an offline agent is.
//!
//! [`Shard`] is a [`Machine`]: it is fed [`Event`]s ([`ShardIn`] its own)
//! and answers with [`Action`]s ([`ServerEvent`]s its output), and owns no socket,
//! task, channel or clock.  Beside its events, [`Shard::call`] runs a
//! closure on one of its iApps — the northbound's way in.  DESIGN.md ("The
//! machine/driver split") tabulates every event and action.
//!
//! The E2 accept rule is the shard's too.  A connection a listener accepted
//! ([`Event::Accepted`]) must open with an E2 Setup request within
//! `RetryPolicy::setup_deadline_ms` of the shard's clock, or it is hung up;
//! the request admits it on the shard the [`ShardRouter`] assigns its RAN
//! entity to — this one, or another one, by an [`Action::Handoff`] to that
//! shard, which routes the replayed request again and, the router's pin
//! being sticky, admits it.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;

use flexric_codec::{CodecError, E2apCodec};
use flexric_e2ap::*;
use flexric_transport::{TransportAddr, WireMsg};

use crate::agent::Agent;
use crate::endpoint::{self, E2apEndpoint, Procedure, ProcedureClass, ProcedureKey};
use crate::machine::{in_order, poll_in_order, Action, Event, Machine, PeerId};
use crate::scratch::{self, EncodeScratch, Targets};

use super::router::ShardRouter;
use super::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, RanDb, ServerConfig, ServerEvent,
    ServerStats, SubOutcome, MAX_CONSECUTIVE_DECODE_ERRORS,
};

/// What a shard is told beside frames, closes, accepted connections and
/// ticks.
pub enum ShardIn {
    /// The controller is starting: run the iApps' `on_start`.
    Start,
    /// Drop this agent for good — connection, identity, subscriptions —
    /// as an expired grace window does.
    Disconnect(AgentId),
}

/// The connection an agent is bound to right now.
struct PeerState {
    agent: AgentId,
    /// Consecutive undecodable inbound PDUs; reset on any good PDU.
    decode_errors: u32,
}

/// One subscription the server knows about: the routing entry plus the
/// intent needed to replay it after a reconnect.
struct SubState {
    iapp: usize,
    ran_function: RanFunctionId,
    event_trigger: Bytes,
    actions: Vec<RicActionToBeSetup>,
    /// Whether the agent has acknowledged it (on the current connection).
    established: bool,
}

/// Shared shard state handed to iApps through [`ServerApi`].
struct ServerCore {
    codec: E2apCodec,
    ric_id: GlobalRicId,
    shard: usize,
    randb: RanDb,
    /// Every subscription, by request id first: the agents holding one
    /// instance are one `range` of the map.
    subs: BTreeMap<(RicRequestId, AgentId), SubState>,
    /// The shared procedure endpoint: one outstanding-transaction table
    /// for every server-initiated procedure, plus the id allocators.
    endpoint: E2apEndpoint<AgentId, usize>,
    /// The connection each online agent is bound to.
    conns: HashMap<AgentId, PeerId>,
    outbox: Vec<(Targets<AgentId>, E2apPdu)>,
    scratch: EncodeScratch,
    /// Events published since the last flush.
    published: Vec<ServerEvent>,
    /// Frames for the E2 hop above, by the agent they answer for, and the
    /// north agents to stand for agents there: what a bridge's iApp hands
    /// up ([`Shard::drain_north`], [`Shard::take_stood`]).
    north: Vec<(AgentId, WireMsg)>,
    stood: Vec<(AgentId, Agent, TransportAddr)>,
    now_ms: u64,
    rx_msgs: u64,
    tx_msgs: u64,
    rx_bytes: u64,
    tx_bytes: u64,
    retries: u64,
    timeouts: u64,
    reconnects: u64,
    decode_errors: u64,
    unrouted: u64,
}

impl ServerCore {
    fn next_req_id(&mut self, iapp: usize) -> RicRequestId {
        let requestor = iapp as u16 + 1;
        let ServerCore { endpoint, subs, .. } = self;
        // An instance is busy while its procedure is in flight *or* its
        // subscription is live at any agent — established subscriptions
        // outlive their table entry.
        endpoint.alloc_request_id(requestor, |inst| {
            let req_id = RicRequestId::new(requestor, inst);
            subs.range((req_id, AgentId::MIN)..=(req_id, AgentId::MAX)).next().is_some()
        })
    }

    /// Sends `pdu`, the request of a procedure of `class` keyed by
    /// `req_id`, to `agent` and tracks it — deadline, retransmission where
    /// the class allows, terminal outcome — on behalf of `iapp`.  Whatever
    /// was still outstanding under the same key is superseded.
    fn issue(
        &mut self,
        agent: AgentId,
        req_id: RicRequestId,
        class: ProcedureClass,
        pdu: E2apPdu,
        iapp: usize,
    ) {
        let key = ProcedureKey::Ric(req_id);
        self.endpoint.table.complete(agent, key);
        self.endpoint.table.begin(agent, key, class, Some(pdu.clone()), iapp, self.now_ms);
        self.outbox.push((agent.into(), pdu));
    }

    /// The iApp an indication from `agent` under `req_id` is for: the
    /// subscription's, or that of a control still outstanding under the
    /// id — a control answered by a report, as the HW ping is.
    fn route(&self, agent: AgentId, req_id: RicRequestId) -> Option<usize> {
        match self.subs.get(&(req_id, agent)) {
            Some(sub) => Some(sub.iapp),
            None => {
                let proc = self.endpoint.table.get(agent, ProcedureKey::Ric(req_id))?;
                (proc.class == ProcedureClass::Control).then_some(proc.user)
            }
        }
    }
}

/// API surface iApps use to act on the network.
///
/// On a sharded controller each iApp instance sees the slice of the
/// network its shard owns: `randb()` lists only local agents, and every
/// request addresses a local agent (connection callbacks only ever hand
/// out local ids); one for an agent another shard owns is dropped.
pub struct ServerApi<'a> {
    core: &'a mut ServerCore,
    iapp: usize,
}

impl ServerApi<'_> {
    /// Current time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.core.now_ms
    }

    /// The RAN database (this shard's slice on a sharded controller).
    pub fn randb(&self) -> &RanDb {
        &self.core.randb
    }

    /// The E2AP codec of this controller.
    pub fn codec(&self) -> E2apCodec {
        self.core.codec
    }

    /// The shard this iApp instance runs on (`0` on an unsharded server).
    pub fn shard(&self) -> usize {
        self.core.shard
    }

    /// Requests a subscription at `agent` for `ran_function`; indications
    /// will be delivered to this iApp.  Returns the assigned request id.
    ///
    /// The request is tracked in the procedure endpoint: it is
    /// retransmitted per [`crate::endpoint::RetryPolicy`] if the response
    /// is lost, and the iApp sees a terminal [`SubOutcome`] in every case.
    pub fn subscribe(
        &mut self,
        agent: AgentId,
        ran_function: RanFunctionId,
        event_trigger: Bytes,
        actions: Vec<RicActionToBeSetup>,
    ) -> RicRequestId {
        let req_id = self.core.next_req_id(self.iapp);
        self.track(agent, RicSubscriptionRequest { req_id, ran_function, event_trigger, actions });
        req_id
    }

    /// Keeps `req` as this iApp's intent at `agent` and issues it: what
    /// is retransmitted, and replayed to an agent returning within grace.
    fn track(&mut self, agent: AgentId, req: RicSubscriptionRequest) {
        let RicSubscriptionRequest { req_id, ran_function, .. } = req;
        let (event_trigger, actions) = (req.event_trigger.clone(), req.actions.clone());
        let sub =
            SubState { iapp: self.iapp, ran_function, event_trigger, actions, established: false };
        self.core.subs.insert((req_id, agent), sub);
        let pdu = E2apPdu::RicSubscriptionRequest(req);
        self.core.issue(agent, req_id, ProcedureClass::Subscription, pdu, self.iapp);
    }

    /// Requests a report subscription with a single report action.
    pub fn subscribe_report(
        &mut self,
        agent: AgentId,
        ran_function: RanFunctionId,
        event_trigger: Bytes,
    ) -> RicRequestId {
        self.subscribe(
            agent,
            ran_function,
            event_trigger,
            vec![RicActionToBeSetup {
                id: RicActionId(0),
                action_type: RicActionType::Report,
                definition: None,
                subsequent: None,
            }],
        )
    }

    /// Deletes a subscription.
    pub fn unsubscribe(&mut self, agent: AgentId, req_id: RicRequestId) {
        let ran_function = match self.core.subs.get(&(req_id, agent)) {
            Some(sub) if sub.iapp != self.iapp => return, // not this iApp's subscription
            Some(sub) => sub.ran_function,
            None => RanFunctionId::new(0),
        };
        self.core.subs.remove(&(req_id, agent));
        // A still-pending subscription procedure under the same key is
        // cancelled; the delete takes over the id.
        let pdu = E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
            req_id,
            ran_function,
        });
        self.core.issue(agent, req_id, ProcedureClass::SubscriptionDelete, pdu, self.iapp);
    }

    /// Re-issues an existing subscription with a new event trigger — the
    /// server-driven *retune* (report-period backoff / tightening, or
    /// forcing a delta-stream keyframe).  The request keeps its id, so
    /// the agent updates the live subscription in place instead of
    /// creating a new one, and the re-issued request gets the same
    /// deadline/retransmit treatment as the original.  Returns `false`
    /// if the subscription is unknown or owned by another iApp.
    pub fn retune_subscription(
        &mut self,
        agent: AgentId,
        req_id: RicRequestId,
        event_trigger: Bytes,
    ) -> bool {
        let (ran_function, actions) = match self.core.subs.get_mut(&(req_id, agent)) {
            Some(sub) if sub.iapp != self.iapp => return false,
            Some(sub) => {
                sub.event_trigger = event_trigger.clone();
                // Not established again until the retune is acked; a
                // reconnect replay meanwhile re-issues the new trigger.
                sub.established = false;
                (sub.ran_function, sub.actions.clone())
            }
            None => return false,
        };
        let pdu = E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
            req_id,
            ran_function,
            event_trigger,
            actions,
        });
        // A still-pending procedure under the same key (the original
        // subscribe, or an earlier retune) is superseded.
        self.core.issue(agent, req_id, ProcedureClass::Subscription, pdu, self.iapp);
        true
    }

    /// Sends a control request; the outcome is delivered to this iApp.
    ///
    /// Every control is outstanding until its answer or its deadline
    /// ([`crate::endpoint::RetryPolicy::control_deadline_ms`]) and is never
    /// retransmitted; meanwhile indications under its request id come to
    /// this iApp.  With `ack = Some(Ack)` the iApp is guaranteed a terminal
    /// [`CtrlOutcome`]; otherwise it sees whatever response the agent
    /// chooses to send, and the control ends silently at its deadline.
    pub fn control(
        &mut self,
        agent: AgentId,
        ran_function: RanFunctionId,
        header: Bytes,
        message: Bytes,
        ack: Option<ControlAckRequest>,
    ) -> RicRequestId {
        let req_id = self.core.next_req_id(self.iapp);
        let pdu = E2apPdu::RicControlRequest(RicControlRequest {
            req_id,
            ran_function,
            call_process_id: None,
            header,
            message,
            ack_request: ack,
        });
        self.core.issue(agent, req_id, ProcedureClass::Control, pdu, self.iapp);
        req_id
    }

    /// Forwards a functional request that arrived from elsewhere (another
    /// E2 hop) to `agent` under the request id it carries, and treats it
    /// as this iApp's own: a subscription request as
    /// [`subscribe`](Self::subscribe) does (tracked, retransmitted,
    /// replayed within grace), a delete as [`unsubscribe`](Self::unsubscribe),
    /// a control as [`control`](Self::control) — outcomes and indications
    /// under the id come back to this iApp.  Anything else is sent as is.
    pub fn forward_request(&mut self, agent: AgentId, pdu: E2apPdu) {
        match pdu {
            E2apPdu::RicSubscriptionRequest(req) => self.track(agent, req),
            E2apPdu::RicSubscriptionDeleteRequest(req) => self.unsubscribe(agent, req.req_id),
            E2apPdu::RicControlRequest(ref req) => {
                let req_id = req.req_id;
                self.core.issue(agent, req_id, ProcedureClass::Control, pdu, self.iapp);
            }
            pdu => self.core.outbox.push((agent.into(), pdu)),
        }
    }

    /// Deletes every subscription this iApp holds at `agent`.
    pub(crate) fn unsubscribe_all(&mut self, agent: AgentId) {
        let mine: Vec<RicRequestId> = (self.core.subs.iter())
            .filter(|((_, a), sub)| *a == agent && sub.iapp == self.iapp)
            .map(|((req_id, _), _)| *req_id)
            .collect();
        mine.into_iter().for_each(|req_id| self.unsubscribe(agent, req_id));
    }

    /// Hands `msg` to the E2 hop above, for `agent`.
    pub(crate) fn send_north(&mut self, agent: AgentId, msg: WireMsg) {
        self.core.north.push((agent, msg));
    }

    /// Has `north`, dialling `upstream`, stand for `agent` in the E2 hop
    /// above.
    pub(crate) fn stand_for(&mut self, agent: AgentId, north: Agent, upstream: TransportAddr) {
        self.core.stood.push((agent, north, upstream));
    }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Server-layer registry metrics, mirroring the per-instance
/// [`ServerStats`] into the process-wide registry (summed across servers
/// and shards in one process; gauges are maintained as per-shard deltas so
/// the sum stays correct).  Registered as a block on first touch so the
/// layer is always listed in `/metrics`.
struct ServerObs {
    rx_msgs: flexric_obs::Counter,
    rx_bytes: flexric_obs::Counter,
    tx_msgs: flexric_obs::Counter,
    tx_bytes: flexric_obs::Counter,
    indications_rx: flexric_obs::Counter,
    decode_errors: flexric_obs::Counter,
    reconnects: flexric_obs::Counter,
    agents: flexric_obs::Gauge,
    subs_live: flexric_obs::Gauge,
    dispatch_ns: flexric_obs::Histogram,
}

fn obs() -> &'static ServerObs {
    static M: std::sync::OnceLock<ServerObs> = std::sync::OnceLock::new();
    M.get_or_init(|| ServerObs {
        rx_msgs: flexric_obs::counter("flexric_server_rx_msgs_total", "messages from agents"),
        rx_bytes: flexric_obs::counter("flexric_server_rx_bytes_total", "encoded bytes received"),
        tx_msgs: flexric_obs::counter("flexric_server_tx_msgs_total", "messages to agents"),
        tx_bytes: flexric_obs::counter("flexric_server_tx_bytes_total", "encoded bytes sent"),
        indications_rx: flexric_obs::counter(
            "flexric_server_indications_rx_total",
            "RIC indications received from agents",
        ),
        decode_errors: flexric_obs::counter(
            "flexric_server_decode_errors_total",
            "inbound PDUs that failed to decode",
        ),
        reconnects: flexric_obs::counter(
            "flexric_server_reconnects_total",
            "agents rebound to their old id after a reconnect",
        ),
        agents: flexric_obs::gauge("flexric_server_agents", "connected agents"),
        subs_live: flexric_obs::gauge("flexric_server_subscriptions_live", "active subscriptions"),
        dispatch_ns: flexric_obs::histogram(
            "flexric_server_dispatch_ns",
            "indication dispatch latency (subscription lookup + iApp handler); sampled: 1 call in 16 timed",
        ),
    })
}

/// Per-shard load series, labeled `shard="<idx>"` — the view that shows
/// whether entity assignment actually spreads work across the shards.
struct ShardObs {
    rx: flexric_obs::Counter,
    agents: flexric_obs::Gauge,
}

impl ShardObs {
    fn new(idx: usize) -> Self {
        let s = idx.to_string();
        ShardObs {
            rx: flexric_obs::counter_with(
                "flexric_server_shard_rx_total",
                &[("shard", s.as_str())],
                "messages received by this shard",
            ),
            agents: flexric_obs::gauge_with(
                "flexric_server_shard_agents",
                &[("shard", s.as_str())],
                "agents owned by this shard",
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// One shard of a controller.  See the module docs for its events and
/// actions; [`super::Server::spawn_sharded`] runs one per
/// [`ServerConfig::resolved_shards`] behind the crate's driver.
pub struct Shard {
    core: ServerCore,
    iapps: Vec<Box<dyn IApp>>,
    router: Arc<ShardRouter>,
    /// Bound connections.  It is the epoch filter: a frame or a close from
    /// a peer that is not in here belongs to a connection that was hung up
    /// on or replaced.
    peers: HashMap<PeerId, PeerState>,
    /// Disconnected agents kept for a rebind: grace deadline per agent.
    offline: HashMap<AgentId, u64>,
    grace_ms: u64,
    /// Accepted connections yet to send their setup request: the deadline
    /// and the far end's description.
    accepting: BTreeMap<PeerId, (u64, String)>,
    setup_deadline_ms: u64,
    shard_obs: ShardObs,
    /// Last values this shard contributed to the global gauges, so the
    /// process-wide gauge can be maintained as a sum of per-shard deltas.
    gauge_agents: i64,
    gauge_subs: i64,
}

impl Machine for Shard {
    type In = ShardIn;
    type Out = ServerEvent;

    fn handle(&mut self, event: Event<ShardIn>, now_ms: u64, out: &mut Vec<Action<ServerEvent>>) {
        self.core.now_ms = now_ms;
        match event {
            Event::Frame(peer, raw) if self.accepting.contains_key(&peer) => {
                self.first_frame(peer, raw, out)
            }
            Event::Frame(peer, raw) => {
                let Some(agent) = self.agent_of(peer) else { return };
                self.core.rx_msgs += 1;
                self.core.rx_bytes += raw.len() as u64;
                obs().rx_msgs.inc();
                obs().rx_bytes.add(raw.len() as u64);
                self.shard_obs.rx.inc();
                match self.handle_inbound(agent, &raw) {
                    Ok(()) => {
                        if let Some(p) = self.peers.get_mut(&peer) {
                            p.decode_errors = 0;
                        }
                    }
                    Err(_) => self.on_decode_error(agent, peer, out),
                }
            }
            Event::Closed(peer) => match self.agent_of(peer) {
                Some(agent) => self.handle_closed(agent, out),
                None if self.accepting.remove(&peer).is_some() => out.push(Action::Hangup(peer)),
                None => return,
            },
            Event::Tick => {
                // Silent past the setup deadline: hung up, in peer order.
                self.accepting.retain(|&peer, (until, _)| {
                    let waits = *until > now_ms;
                    if !waits {
                        out.push(Action::Hangup(peer));
                    }
                    waits
                });
                self.tick_procedures(now_ms, out);
                self.for_all(|iapp, api| iapp.on_tick(api, now_ms));
            }
            // Its first frame must be an E2 Setup request, within the
            // setup deadline.
            Event::Accepted(peer, desc) => {
                let until = now_ms.saturating_add(self.setup_deadline_ms);
                self.accepting.insert(peer, (until, desc));
            }
            // A shard dials nowhere.
            Event::Dialled(..) => {}
            Event::App(ShardIn::Start) => self.for_all(|iapp, api| iapp.on_start(api)),
            Event::App(ShardIn::Disconnect(agent)) => {
                self.handle_closed(agent, out);
                self.finalize_disconnect(agent, out);
            }
        }
        self.flush(out);
    }
}

/// Capability negotiation of an E2 Setup request against the SM registry:
/// each advertised function resolves by OID + semver-compatible version
/// (major must match; the registry serves the highest compatible minor).
/// Returns the accepted functions and the rejected ids with an explicit
/// E2AP cause each — unknown OIDs and major-incompatible versions are told
/// so, not silently dropped.
fn negotiate(req: &E2SetupRequest) -> (Vec<RanFunctionItem>, Vec<(RanFunctionId, Cause)>) {
    let registry = flexric_sm::registry::global();
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for f in &req.ran_functions {
        let offered = flexric_sm::SmVersion::new(f.version.major, f.version.minor);
        match registry.negotiate(&f.oid, offered) {
            Ok(_) => accepted.push(f.clone()),
            Err(e) => {
                let cause = match e {
                    flexric_sm::registry::NegotiationError::UnknownOid { .. } => {
                        Cause::RicService(RicServiceCause::FunctionNotSupported)
                    }
                    flexric_sm::registry::NegotiationError::MajorMismatch { .. } => {
                        Cause::RicService(RicServiceCause::FunctionVersionMismatch)
                    }
                };
                rejected.push((f.id, cause));
            }
        }
    }
    (accepted, rejected)
}

impl Shard {
    /// Shard `idx` of a controller configured by `cfg`, running `iapps`,
    /// sharing `router` with its sibling shards.
    pub fn new(
        idx: usize,
        cfg: &ServerConfig,
        iapps: Vec<Box<dyn IApp>>,
        router: Arc<ShardRouter>,
    ) -> Self {
        let core = ServerCore {
            codec: cfg.codec,
            ric_id: cfg.ric_id,
            shard: idx,
            randb: RanDb::new(),
            subs: BTreeMap::new(),
            endpoint: E2apEndpoint::new(cfg.retry),
            conns: HashMap::new(),
            outbox: Vec::new(),
            scratch: EncodeScratch::with_capacity(4096),
            published: Vec::new(),
            north: Vec::new(),
            stood: Vec::new(),
            now_ms: 0,
            rx_msgs: 0,
            tx_msgs: 0,
            rx_bytes: 0,
            tx_bytes: 0,
            retries: 0,
            timeouts: 0,
            reconnects: 0,
            decode_errors: 0,
            unrouted: 0,
        };
        Shard {
            core,
            iapps,
            router,
            peers: HashMap::new(),
            offline: HashMap::new(),
            grace_ms: cfg.reconnect_grace_ms,
            accepting: BTreeMap::new(),
            setup_deadline_ms: cfg.retry.setup_deadline_ms,
            shard_obs: ShardObs::new(idx),
            gauge_agents: 0,
            gauge_subs: 0,
        }
    }

    /// Snapshot of this shard's agents (those in a grace window included).
    pub fn agents(&self) -> Vec<AgentInfo> {
        self.core.randb.agents().cloned().collect()
    }

    /// Snapshot of this shard's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            rx_msgs: self.core.rx_msgs,
            tx_msgs: self.core.tx_msgs,
            agents: self.core.randb.agent_count() as u64,
            subs: self.core.subs.len() as u64,
            tx_bytes: self.core.tx_bytes,
            rx_bytes: self.core.rx_bytes,
            retries: self.core.retries,
            timeouts: self.core.timeouts,
            reconnects: self.core.reconnects,
            decode_errors: self.core.decode_errors,
            unrouted_indications: self.core.unrouted,
        }
    }

    /// Procedures in flight toward agents.
    pub fn outstanding(&self) -> usize {
        self.core.endpoint.table.len()
    }

    /// What the iApps handed to the E2 hop above since the last drain.
    pub(crate) fn drain_north(&mut self) -> std::vec::Drain<'_, (AgentId, WireMsg)> {
        self.core.north.drain(..)
    }

    /// The north agents the iApps asked for since the last take.
    pub(crate) fn take_stood(&mut self) -> Vec<(AgentId, Agent, TransportAddr)> {
        std::mem::take(&mut self.core.stood)
    }

    /// Runs `f` at `now_ms` with the first iApp of type `A` and its API,
    /// and answers what it asked for: how the northbound reaches an iApp
    /// outside the shard's events.  `None`, and nothing run, when the
    /// shard runs no `A`.
    pub fn call<A: IApp, R>(
        &mut self,
        now_ms: u64,
        out: &mut Vec<Action<ServerEvent>>,
        f: impl FnOnce(&mut A, &mut ServerApi) -> R,
    ) -> Option<R> {
        let idx = self.iapps.iter().position(|app| (app.as_ref() as &dyn Any).is::<A>())?;
        self.act(idx, now_ms, out, |app, api| Some(f((app as &mut dyn Any).downcast_mut()?, api)))
    }

    /// Runs `f` as iApp `idx`'s callback at `now_ms`, and answers what it
    /// asked for.
    pub(crate) fn act<R>(
        &mut self,
        idx: usize,
        now_ms: u64,
        out: &mut Vec<Action<ServerEvent>>,
        f: impl FnOnce(&mut dyn IApp, &mut ServerApi) -> R,
    ) -> R {
        self.core.now_ms = now_ms;
        let r = self.for_one(idx, f);
        self.flush(out);
        r
    }

    /// The agent `peer` is bound to.  This is the one place a stale
    /// `Frame` or `Closed` — from a connection that was hung up on or
    /// replaced — is told from a live one: it maps to no agent.
    fn agent_of(&self, peer: PeerId) -> Option<AgentId> {
        self.peers.get(&peer).map(|p| p.agent)
    }

    /// Runs a callback over all iApps with a fresh API view each.
    fn for_all(&mut self, mut f: impl FnMut(&mut dyn IApp, &mut ServerApi)) {
        (0..self.iapps.len()).for_each(|idx| self.for_one(idx, &mut f));
    }

    /// Runs a callback on iApp `idx` (an index this shard handed out).
    fn for_one<R>(&mut self, idx: usize, f: impl FnOnce(&mut dyn IApp, &mut ServerApi) -> R) -> R {
        f(self.iapps[idx].as_mut(), &mut ServerApi { core: &mut self.core, iapp: idx })
    }

    /// Unbinds and hangs up on the connection of `agent`, if it has one.
    fn hang_up(&mut self, agent: AgentId, out: &mut Vec<Action<ServerEvent>>) {
        if let Some(peer) = self.core.conns.remove(&agent) {
            self.peers.remove(&peer);
            out.push(Action::Hangup(peer));
        }
    }

    /// The first frame of an accepted connection: an E2 Setup request
    /// admits it here or hands it, frame and all, to the shard the router
    /// assigns its RAN entity to; anything else is hung up.
    fn first_frame(&mut self, peer: PeerId, raw: Bytes, out: &mut Vec<Action<ServerEvent>>) {
        let Some((_, desc)) = self.accepting.remove(&peer) else { return };
        let Ok(E2apPdu::E2SetupRequest(req)) = self.core.codec.decode(&raw) else {
            return out.push(Action::Hangup(peer));
        };
        match self.router.assign(req.global_node.ran_entity_key()) {
            to if to == self.core.shard => self.handle_new_agent(req, peer, desc, out),
            to => out.push(Action::Handoff { peer, to, desc, first: raw }),
        }
    }

    fn handle_new_agent(
        &mut self,
        req: E2SetupRequest,
        peer: PeerId,
        desc: String,
        out: &mut Vec<Action<ServerEvent>>,
    ) {
        // Capability negotiation comes before any identity is allocated.
        let (accepted, rejected) = negotiate(&req);
        if accepted.is_empty() && !req.ran_functions.is_empty() {
            // Nothing this RIC can serve: fail the setup on the bare
            // connection and never register the node.
            let cause = rejected[0].1;
            let pdu = E2apPdu::E2SetupFailure(E2SetupFailure {
                transaction_id: req.transaction_id,
                cause,
                time_to_wait_ms: None,
            });
            let buf = Bytes::from(self.core.codec.encode(&pdu));
            out.push(Action::Send(peer, WireMsg::e2ap(buf)));
            out.push(Action::Hangup(peer));
            return;
        }
        // An agent presenting a known global E2 node id is rebound to its
        // previous AgentId: a reconnect, not a new node.  Entity-key shard
        // affinity guarantees the previous identity lives on this shard.
        let known = self.core.randb.agents().find(|i| i.node == req.global_node).map(|i| i.id);
        let (agent_id, reconnect) = match known {
            Some(id) => {
                if self.offline.remove(&id).is_none() {
                    // Reconnect raced ahead of the close of the previous
                    // connection: replace it.
                    self.hang_up(id, out);
                    let lost = in_order(self.core.endpoint.table.connection_lost(id));
                    self.deliver_terminals(lost, false);
                }
                (id, true)
            }
            None => (self.router.alloc_agent(), false),
        };
        self.core.conns.insert(agent_id, peer);
        self.peers.insert(peer, PeerState { agent: agent_id, decode_errors: 0 });

        // Only negotiated functions enter the RAN database: iApps never
        // see (and cannot subscribe to) a function the RIC rejected.
        self.core.outbox.push((
            agent_id.into(),
            E2apPdu::E2SetupResponse(E2SetupResponse {
                transaction_id: req.transaction_id,
                global_ric: self.core.ric_id,
                accepted: accepted.iter().map(|f| f.id).collect(),
                rejected,
            }),
        ));
        let info =
            AgentInfo { id: agent_id, node: req.global_node, functions: accepted, peer: desc };
        let formed = self.core.randb.add_agent(info.clone());
        if reconnect {
            self.core.reconnects += 1;
            obs().reconnects.inc();
            self.core.published.push(ServerEvent::AgentReconnected(info.clone()));
            self.for_all(|iapp, api| iapp.on_agent_reconnected(api, &info));
            self.replay_subscriptions(agent_id);
        } else {
            self.core.published.push(ServerEvent::AgentConnected(info.clone()));
            self.for_all(|iapp, api| iapp.on_agent_connected(api, &info));
        }
        if let Some(entity) = formed {
            self.core.published.push(ServerEvent::RanFormed(entity.clone()));
            self.for_all(|iapp, api| iapp.on_ran_formed(api, &entity));
        }
    }

    /// Re-issues every subscription intent toward a rebound agent under
    /// its original request id.
    fn replay_subscriptions(&mut self, agent: AgentId) {
        let replayed: Vec<RicRequestId> =
            self.core.subs.keys().filter(|(_, a)| *a == agent).map(|(req_id, _)| *req_id).collect();
        for req_id in replayed {
            let Some(sub) = self.core.subs.get_mut(&(req_id, agent)) else { continue };
            sub.established = false;
            let iapp = sub.iapp;
            let pdu = E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
                req_id,
                ran_function: sub.ran_function,
                event_trigger: sub.event_trigger.clone(),
                actions: sub.actions.clone(),
            });
            self.core.issue(agent, req_id, ProcedureClass::Subscription, pdu, iapp);
        }
    }

    /// The connection of `agent` is gone (closed, or degraded for sending
    /// garbage).
    fn handle_closed(&mut self, agent: AgentId, out: &mut Vec<Action<ServerEvent>>) {
        self.hang_up(agent, out);
        // Every procedure in flight toward the agent terminates now.
        let lost = in_order(self.core.endpoint.table.connection_lost(agent));
        self.deliver_terminals(lost, false);
        if self.core.randb.agent(agent).is_none() {
            return;
        }
        if self.grace_ms > 0 {
            // Keep the identity and the subscription intents for a rebind;
            // the grace deadline is enforced on ticks.  The router keeps
            // the agent bound here, so the entity's shard pin holds.
            for ((_, a), sub) in self.core.subs.iter_mut() {
                if *a == agent {
                    sub.established = false;
                }
            }
            self.offline.insert(agent, self.core.now_ms.saturating_add(self.grace_ms));
        } else {
            self.finalize_disconnect(agent, out);
        }
    }

    /// The agent is gone for good: drop its subscriptions and identity and
    /// tell the world.
    fn finalize_disconnect(&mut self, agent: AgentId, out: &mut Vec<Action<ServerEvent>>) {
        self.offline.remove(&agent);
        self.core.subs.retain(|(_, a), _| *a != agent);
        self.hang_up(agent, out);
        if let Some(info) = self.core.randb.remove_agent(agent) {
            // Release the entity→shard pin once no agent of the entity
            // remains (all agents of an entity live on this shard).
            let key = info.node.ran_entity_key();
            if !self.core.randb.agents().any(|a| a.node.ran_entity_key() == key) {
                self.router.release(&key);
            }
            self.core.published.push(ServerEvent::AgentDisconnected(agent));
            self.for_all(|iapp, api| iapp.on_agent_disconnected(api, agent));
        }
    }

    /// Drives the procedure table: retransmits due requests, delivers
    /// terminal timeouts, and expires reconnect grace windows.
    fn tick_procedures(&mut self, now: u64, out: &mut Vec<Action<ServerEvent>>) {
        let (again, timed_out) = poll_in_order(&mut self.core.endpoint.table, now);
        self.core.retries += again.len() as u64;
        self.core.outbox.extend(again.into_iter().map(|(agent, pdu)| (Targets::One(agent), pdu)));
        self.deliver_terminals(timed_out, true);
        let mut expired: Vec<AgentId> =
            self.offline.iter().filter(|(_, dl)| now >= **dl).map(|(a, _)| *a).collect();
        expired.sort_unstable();
        for agent in expired {
            self.finalize_disconnect(agent, out);
        }
    }

    /// Delivers terminal outcomes for procedures that died without a
    /// response — timed out (`timed_out`) or severed with the connection.
    fn deliver_terminals(&mut self, procs: Vec<Procedure<AgentId, usize>>, timed_out: bool) {
        for proc in procs {
            // A control that asked no acknowledgement ends at its deadline
            // without an outcome: none was promised.
            let asked_ack = matches!(&proc.pdu, Some(E2apPdu::RicControlRequest(r))
                if r.ack_request == Some(ControlAckRequest::Ack));
            if timed_out && proc.class == ProcedureClass::Control && !asked_ack {
                continue;
            }
            if timed_out {
                self.core.timeouts += 1;
            }
            let agent = proc.peer;
            let ProcedureKey::Ric(req_id) = proc.key else { continue };
            let ran_function = proc.ran_function().unwrap_or(RanFunctionId::new(0));
            match proc.class {
                ProcedureClass::Subscription => {
                    let out = if timed_out {
                        // The agent is reachable but unresponsive for this
                        // request: the intent dies with it.
                        self.core.subs.remove(&(req_id, agent));
                        SubOutcome::TimedOut { req_id, ran_function, attempts: proc.attempts }
                    } else {
                        SubOutcome::ConnectionLost { req_id, ran_function }
                    };
                    self.for_one(proc.user, |iapp, api| {
                        iapp.on_subscription_outcome(api, agent, &out)
                    });
                }
                ProcedureClass::Control => {
                    let out = if timed_out {
                        CtrlOutcome::TimedOut { req_id, ran_function }
                    } else {
                        CtrlOutcome::ConnectionLost { req_id, ran_function }
                    };
                    self.for_one(proc.user, |iapp, api| iapp.on_control_outcome(api, agent, &out));
                }
                // Subscription deletes and global procedures have no
                // iApp-visible outcome; the counter above records them.
                _ => {}
            }
        }
    }

    /// An inbound PDU failed to decode: count it, report it to the peer,
    /// and degrade the connection if the peer keeps sending garbage.
    fn on_decode_error(
        &mut self,
        agent: AgentId,
        peer: PeerId,
        out: &mut Vec<Action<ServerEvent>>,
    ) {
        self.core.decode_errors += 1;
        obs().decode_errors.inc();
        self.core.outbox.push((
            agent.into(),
            E2apPdu::ErrorIndication(ErrorIndication {
                req_id: None,
                ran_function: None,
                cause: Some(Cause::Protocol(ProtocolCause::TransferSyntaxError)),
            }),
        ));
        let Some(conn) = self.peers.get_mut(&peer) else { return };
        conn.decode_errors += 1;
        if conn.decode_errors >= MAX_CONSECUTIVE_DECODE_ERRORS {
            self.handle_closed(agent, out);
        }
    }

    /// Completes the procedure a response from `agent` answers, if it is
    /// still outstanding, and records how it ended.
    fn complete(
        &mut self,
        agent: AgentId,
        req_id: RicRequestId,
        acked: bool,
    ) -> Option<Procedure<AgentId, usize>> {
        let proc = self.core.endpoint.table.complete(agent, ProcedureKey::Ric(req_id));
        if proc.is_some() {
            endpoint::note_completed(acked);
        }
        proc
    }

    fn handle_inbound(&mut self, agent: AgentId, raw: &Bytes) -> Result<(), CodecError> {
        // FB fast path: peek is O(1); only indications stay undecoded.
        // `raw` is the frame sliced off the transport read slab, so the
        // dispatch below hands apps refcounted views of the receive buffer
        // — the paper's "no explicit decode" hot path with zero copies.
        // Subscription lookup and dispatch are shard-local by construction:
        // the subscription was created on this shard when the agent (owned
        // here) connected.
        if self.core.codec == E2apCodec::Flatb {
            let hdr = self.core.codec.peek(raw)?;
            if hdr.msg_type == MsgType::RicIndication {
                obs().indications_rx.inc();
                let req_id = hdr.req_id.unwrap_or_default();
                if let Some(idx) = self.core.route(agent, req_id) {
                    let ind = IndicationRef::Raw { raw, hdr };
                    let _t = obs().dispatch_ns.timer();
                    self.for_one(idx, |iapp, api| iapp.on_indication(api, agent, &ind));
                } else {
                    self.core.unrouted += 1;
                }
                return Ok(());
            }
        }
        // Borrowed decode: byte-valued fields stay views of the read slab.
        let pdu = self.core.codec.decode_borrowed(raw)?;
        match pdu {
            E2apPdu::RicIndication(ind) => {
                obs().indications_rx.inc();
                if let Some(idx) = self.core.route(agent, ind.req_id) {
                    let ind_ref = IndicationRef::Decoded(&ind);
                    let _t = obs().dispatch_ns.timer();
                    self.for_one(idx, |iapp, api| iapp.on_indication(api, agent, &ind_ref));
                } else {
                    self.core.unrouted += 1;
                }
            }
            E2apPdu::RicSubscriptionResponse(resp) => {
                let proc = self.complete(agent, resp.req_id, true);
                if let Some(sub) = self.core.subs.get_mut(&(resp.req_id, agent)) {
                    // A retransmitted request may be acknowledged more than
                    // once; only the first response is delivered.
                    sub.established = true;
                    let idx = sub.iapp;
                    if proc.is_some() {
                        let out = SubOutcome::Admitted(resp);
                        self.for_one(idx, |iapp, api| {
                            iapp.on_subscription_outcome(api, agent, &out)
                        });
                    }
                }
            }
            E2apPdu::RicSubscriptionFailure(fail) => {
                self.complete(agent, fail.req_id, false);
                if let Some(sub) = self.core.subs.remove(&(fail.req_id, agent)) {
                    let out = SubOutcome::Failed(fail);
                    self.for_one(sub.iapp, |iapp, api| {
                        iapp.on_subscription_outcome(api, agent, &out)
                    });
                }
            }
            E2apPdu::RicSubscriptionDeleteResponse(resp) => {
                self.complete(agent, resp.req_id, true);
                self.core.subs.remove(&(resp.req_id, agent));
            }
            E2apPdu::RicSubscriptionDeleteFailure(fail) => {
                self.complete(agent, fail.req_id, false);
                self.core.subs.remove(&(fail.req_id, agent));
            }
            E2apPdu::RicControlAcknowledge(ack) => {
                if let Some(proc) = self.complete(agent, ack.req_id, true) {
                    let out = CtrlOutcome::Ack(ack);
                    self.for_one(proc.user, |iapp, api| iapp.on_control_outcome(api, agent, &out));
                }
            }
            E2apPdu::RicControlFailure(fail) => {
                if let Some(proc) = self.complete(agent, fail.req_id, false) {
                    let out = CtrlOutcome::Failed(fail);
                    self.for_one(proc.user, |iapp, api| iapp.on_control_outcome(api, agent, &out));
                }
            }
            E2apPdu::RicServiceUpdate(upd) => {
                // Update the RANDB view of the agent's functions and ack.
                let accepted: Vec<RanFunctionId> = upd.added.iter().map(|f| f.id).collect();
                if let Some(info) = self.core.randb.agent(agent).cloned() {
                    let mut info = info;
                    for f in upd.added {
                        if !info.functions.iter().any(|x| x.id == f.id) {
                            info.functions.push(f);
                        }
                    }
                    for f in upd.modified {
                        if let Some(x) = info.functions.iter_mut().find(|x| x.id == f.id) {
                            *x = f;
                        }
                    }
                    info.functions.retain(|x| !upd.removed.contains(&x.id));
                    self.core.randb.add_agent(info);
                }
                self.core.outbox.push((
                    agent.into(),
                    E2apPdu::RicServiceUpdateAck(RicServiceUpdateAck {
                        transaction_id: upd.transaction_id,
                        accepted,
                        rejected: vec![],
                    }),
                ));
            }
            E2apPdu::E2SetupRequest(req) => {
                // The agent retransmitted its setup request on the
                // connection it is already bound through: the response was
                // lost.  Answer again; identity and subscriptions stand.
                let (accepted, rejected) = negotiate(&req);
                self.core.outbox.push((
                    agent.into(),
                    E2apPdu::E2SetupResponse(E2SetupResponse {
                        transaction_id: req.transaction_id,
                        global_ric: self.core.ric_id,
                        accepted: accepted.iter().map(|f| f.id).collect(),
                        rejected,
                    }),
                ));
            }
            E2apPdu::ErrorIndication(_) | E2apPdu::ResetResponse(_) => {}
            E2apPdu::ResetRequest(req) => {
                // The agent wiped its subscription state: drop intents and
                // terminate everything in flight toward it.
                self.core.subs.retain(|(_, a), _| *a != agent);
                let lost = in_order(self.core.endpoint.table.connection_lost(agent));
                self.deliver_terminals(lost, false);
                self.core.outbox.push((
                    agent.into(),
                    E2apPdu::ResetResponse(ResetResponse { transaction_id: req.transaction_id }),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    fn flush(&mut self, out: &mut Vec<Action<ServerEvent>>) {
        // Encode each queued PDU exactly once into the reusable scratch
        // buffer and share the frozen frame across its targets.  A frame
        // for an agent not connected here — offline, unknown, or another
        // shard's — is dropped.
        let m = obs();
        let core = &mut self.core;
        let (conns, tx_msgs, tx_bytes) = (&core.conns, &mut core.tx_msgs, &mut core.tx_bytes);
        scratch::flush_outbox(&mut core.scratch, core.codec, &mut core.outbox, |agent, msg| {
            if let Some(&peer) = conns.get(&agent) {
                *tx_msgs += 1;
                *tx_bytes += msg.payload.len() as u64;
                m.tx_msgs.inc();
                m.tx_bytes.add(msg.payload.len() as u64);
                out.push(Action::Send(peer, msg));
            }
        });
        out.extend(core.published.drain(..).map(Action::App));
        let agents_now = self.core.randb.agent_count() as i64;
        let subs_now = self.core.subs.len() as i64;
        m.agents.add(agents_now - self.gauge_agents);
        m.subs_live.add(subs_now - self.gauge_subs);
        self.gauge_agents = agents_now;
        self.gauge_subs = subs_now;
        self.shard_obs.agents.set(agents_now);
    }
}

impl Drop for Shard {
    /// Retracts this shard's contribution to the summed gauges.
    fn drop(&mut self) {
        obs().agents.add(-self.gauge_agents);
        obs().subs_live.add(-self.gauge_subs);
        self.shard_obs.agents.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::RetryPolicy;

    fn shard() -> Shard {
        let cfg = ServerConfig::new(
            GlobalRicId::new(Plmn::TEST, 1),
            TransportAddr::Mem("shard-unit".into()),
        );
        Shard::new(0, &cfg, Vec::new(), Arc::new(ShardRouter::new(1)))
    }

    fn live(iapp: usize) -> SubState {
        SubState {
            iapp,
            ran_function: RanFunctionId::new(142),
            event_trigger: Bytes::new(),
            actions: Vec::new(),
            established: true,
        }
    }

    #[test]
    fn allocation_skips_an_instance_another_agents_subscription_holds() {
        let mut shard = shard();
        // iApp 0 asks as requestor 1.  Agent 7 holds instances 0 and 2 of
        // it, agent 3 instance 1 of requestor 2 (another iApp's).
        for (inst, agent, requestor) in [(0, 7, 1), (2, 7, 1), (1, 3, 2)] {
            shard.core.subs.insert((RicRequestId::new(requestor, inst), agent), live(0));
        }
        let got: Vec<u16> = (0..3).map(|_| shard.core.next_req_id(0).instance).collect();
        assert_eq!(got, [1, 3, 4], "agent 7's instances are skipped, requestor 2's are not");
        // Once the agent lets go of an instance, it is free again.
        shard.core.subs.remove(&(RicRequestId::new(1, 0), 7));
        shard.core.endpoint = E2apEndpoint::new(RetryPolicy::default());
        assert_eq!(shard.core.next_req_id(0), RicRequestId::new(1, 0));
    }
}
