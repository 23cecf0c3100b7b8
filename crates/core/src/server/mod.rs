//! The FlexRIC server library (paper §4.2.2).
//!
//! "The FlexRIC server library's objective is to multiplex agent
//! connections and dispatch E2AP messages. […] The server library is
//! designed as an event-driven/callback-driven system, following the
//! ultra-lean design principle to impose minimal overhead.  Thus, it
//! invokes iApps only when there are new messages, unlike systems like
//! FlexRAN that use polling."
//!
//! The server library itself implements no service model and never
//! requests information by itself; iApps trigger all SM-related
//! communication and the server multiplexes messages between agents and
//! iApps.
//!
//! ## Shards
//!
//! The controller is [`ServerConfig::shards`] independent [`Shard`]s (the
//! `shard` module), each owning a disjoint set of agents: connection
//! state, the RAN database slice, subscription routing, and the procedure
//! endpoint of an agent all live on exactly one shard.  A shard is a state
//! machine ([`crate::machine`]): it is fed events and answers with
//! actions, and owns no socket, task, channel or clock;
//! [`Server::spawn_sharded`] puts one event loop of the crate's driver
//! under each, all behind one [`ServerHandle`] (`Handle<Shard>`).  Shard 0
//! accepts every connection; its E2 Setup request assigns it to a shard by
//! its RAN-entity key (least-loaded shard wins; CU/DU agents of one base
//! station land together so entity merging stays shard-local), and shard
//! 0 hands it, request and all, to that shard ([`Action::Handoff`]), whose
//! sticky pick admits it.  The assignment is sticky across the reconnect
//! grace window too, so a returning agent rebinds on its original shard.
//! The indication hot path — header peek, subscription lookup, iApp
//! dispatch — never crosses a shard boundary and takes no cross-shard
//! lock.  Only three things span shards: the assignment (the
//! [`ShardRouter`]), the handoff of a new connection, and the aggregating
//! [`ServerHandle`], into whose one event stream every shard publishes its
//! [`ServerEvent`]s.  A shard sends only to the agents it holds; a frame
//! for any other is dropped.
//!
//! [`Action::Handoff`]: crate::machine::Action::Handoff
//!
//! ## The northbound
//!
//! An embedder reaches an iApp in one way: [`ServerHandle::call`] runs a
//! closure with shard 0's first iApp of a given type and its
//! [`ServerApi`], on that shard's loop, and returns what the closure
//! returns.  [`Shard::call`] is the same call for whoever drives a shard
//! by hand.
//!
//! ## Procedure robustness
//!
//! Every server-initiated E2AP procedure (subscription, subscription
//! delete, control) is tracked in the shared procedure-endpoint layer
//! ([`crate::endpoint`]): requests carry per-class deadlines, subscription
//! requests are retransmitted under [`RetryPolicy`], and terminal failures
//! surface to the owning iApp as [`SubOutcome::TimedOut`] /
//! [`CtrlOutcome::TimedOut`] or the `ConnectionLost` variants instead of
//! leaking state.  When an agent's connection drops, its identity and
//! subscription intents are kept for [`ServerConfig::reconnect_grace_ms`];
//! an agent presenting the same global E2 node id within the window is
//! rebound to its old [`AgentId`] and every subscription is re-issued —
//! iApps keep their request ids and indications simply resume.
//!
//! ## The FB fast path
//!
//! When the connection codec is FlatBuffers-style, inbound indications are
//! dispatched to iApps as raw bytes plus a peeked header
//! ([`IndicationRef::Raw`]): the subscription lookup needs only the O(1)
//! header peek, and a monitoring iApp can slice the SM payload out of the
//! raw bytes without ever building the IR.  With the ASN.1-PER-style codec
//! the lookup already requires a full decode ([`IndicationRef::Decoded`]).
//! This asymmetry is the mechanism behind the ~4× controller CPU difference
//! of the paper's Fig. 8b.

mod randb;
mod router;
mod shard;

pub use crate::driver::ServerHandle;
pub use randb::{AgentId, AgentInfo, RanDb, RanEntity};
pub use router::ShardRouter;
pub use shard::{ServerApi, Shard, ShardIn};

use std::any::Any;

use flexric_codec::{CodecError, E2apCodec};
use flexric_e2ap::*;
use flexric_transport::TransportAddr;

use crate::endpoint::RetryPolicy;

/// Consecutive undecodable PDUs from one agent before the server degrades
/// the connection instead of continuing to parse garbage.
pub(crate) const MAX_CONSECUTIVE_DECODE_ERRORS: u32 = 8;

/// The controller: [`Server::spawn`] / [`Server::spawn_sharded`] bind the
/// listeners and put the crate's driver under one [`Shard`] per
/// [`ServerConfig::resolved_shards`].
///
/// Procedure tracking, retransmission, and reconnect handling live in the
/// shared endpoint layer — see [`crate::endpoint`] and the module docs.
pub struct Server;

/// Configuration of a controller built on the server library.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Identity advertised in E2 setup responses.
    pub ric_id: GlobalRicId,
    /// Addresses to accept agents on.
    pub listen: Vec<TransportAddr>,
    /// E2AP encoding used on all connections.
    pub codec: E2apCodec,
    /// Internal tick period in milliseconds; `None` means the embedder
    /// drives time explicitly through [`Handle::tick`](crate::Handle::tick).
    pub tick_ms: Option<u64>,
    /// Deadlines and retransmission budget for tracked procedures.
    pub retry: RetryPolicy,
    /// How long a disconnected agent's identity and subscription intents
    /// are kept for a reconnect-with-resubscribe; `0` disconnects
    /// immediately.
    pub reconnect_grace_ms: u64,
    /// Number of shard event loops; `0` means one per available core.
    /// With more than one shard each shard needs its own iApp instances —
    /// use [`Server::spawn_sharded`].
    pub shards: usize,
}

impl ServerConfig {
    /// A controller listening on one address, 100 ms internal ticks, a
    /// one-second reconnect grace window, a single shard.
    pub fn new(ric_id: GlobalRicId, listen_addr: TransportAddr) -> Self {
        ServerConfig {
            ric_id,
            listen: vec![listen_addr],
            codec: E2apCodec::default(),
            tick_ms: Some(100),
            retry: RetryPolicy::default(),
            reconnect_grace_ms: 1_000,
            shards: 1,
        }
    }

    /// The shard count this configuration resolves to: `shards`, or the
    /// machine's available parallelism when `shards == 0`.
    pub fn resolved_shards(&self) -> usize {
        match self.shards {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// A received indication, decoded lazily depending on the codec.
#[derive(Debug)]
pub enum IndicationRef<'a> {
    /// FB path: the raw frame (a refcounted view of the transport read
    /// slab) + peeked header, no decode performed.
    Raw {
        /// The encoded E2AP PDU, as sliced off the receive buffer.
        raw: &'a bytes::Bytes,
        /// The peeked routing header.
        hdr: PduHeader,
    },
    /// PER path: the decode already happened during dispatch.
    Decoded(&'a RicIndication),
}

impl IndicationRef<'_> {
    /// The routing header.
    pub fn header(&self) -> PduHeader {
        match self {
            IndicationRef::Raw { hdr, .. } => *hdr,
            IndicationRef::Decoded(ind) => PduHeader {
                msg_type: MsgType::RicIndication,
                req_id: Some(ind.req_id),
                ran_function: Some(ind.ran_function),
            },
        }
    }

    /// The subscription's request id.
    pub fn req_id(&self) -> RicRequestId {
        self.header().req_id.unwrap_or_default()
    }

    /// The SM payload `(indication header, indication message)` as borrowed
    /// slices — on the FB path this is a zero-copy slice into the raw
    /// bytes; on the PER path it borrows the decoded PDU.
    pub fn sm_payload(&self) -> Result<(&[u8], &[u8]), CodecError> {
        match self {
            IndicationRef::Raw { raw, .. } => flexric_codec::e2ap_fb::indication_payload(raw),
            IndicationRef::Decoded(ind) => Ok((&ind.header, &ind.message)),
        }
    }
}

/// Outcome of a subscription request, delivered to the requesting iApp.
#[derive(Debug, Clone)]
pub enum SubOutcome {
    /// The agent admitted the subscription.
    Admitted(RicSubscriptionResponse),
    /// The agent rejected it.
    Failed(RicSubscriptionFailure),
    /// No response within the deadline, after all retransmissions.
    TimedOut {
        /// The request that expired.
        req_id: RicRequestId,
        /// The RAN function it addressed.
        ran_function: RanFunctionId,
        /// How many times the request was sent.
        attempts: u32,
    },
    /// The agent's connection dropped while the request was outstanding.
    /// If the agent reconnects within the grace window the subscription is
    /// re-issued automatically under the same request id.
    ConnectionLost {
        /// The request that was in flight.
        req_id: RicRequestId,
        /// The RAN function it addressed.
        ran_function: RanFunctionId,
    },
}

impl SubOutcome {
    /// The outcome as the E2AP PDU a requester further up expects — what a
    /// controller forwarding someone else's subscription sends back.
    /// `TimedOut` and `ConnectionLost` have no PDU of their own on the wire
    /// and become a `RicSubscriptionFailure` with a transport cause, so
    /// the requester gets an answer either way.
    pub fn to_pdu(&self) -> E2apPdu {
        match self {
            SubOutcome::Admitted(r) => E2apPdu::RicSubscriptionResponse(r.clone()),
            SubOutcome::Failed(f) => E2apPdu::RicSubscriptionFailure(f.clone()),
            SubOutcome::TimedOut { req_id, ran_function, .. }
            | SubOutcome::ConnectionLost { req_id, ran_function } => {
                E2apPdu::RicSubscriptionFailure(RicSubscriptionFailure {
                    req_id: *req_id,
                    ran_function: *ran_function,
                    cause: Cause::Transport(TransportCause::Unspecified),
                })
            }
        }
    }
}

/// Outcome of a control request, delivered to the requesting iApp.
#[derive(Debug, Clone)]
pub enum CtrlOutcome {
    /// Acknowledged (possibly with an SM outcome payload).
    Ack(RicControlAcknowledge),
    /// Failed.
    Failed(RicControlFailure),
    /// No acknowledgement within the deadline.  Controls are never
    /// retransmitted (they are not idempotent), so this only bounds the
    /// wait.
    TimedOut {
        /// The request that expired.
        req_id: RicRequestId,
        /// The RAN function it addressed.
        ran_function: RanFunctionId,
    },
    /// The agent's connection dropped while the request was outstanding.
    ConnectionLost {
        /// The request that was in flight.
        req_id: RicRequestId,
        /// The RAN function it addressed.
        ran_function: RanFunctionId,
    },
}

impl CtrlOutcome {
    /// The outcome as the E2AP PDU a requester further up expects (see
    /// [`SubOutcome::to_pdu`]): `TimedOut` and `ConnectionLost` become a
    /// `RicControlFailure` with a transport cause.
    pub fn to_pdu(&self) -> E2apPdu {
        match self {
            CtrlOutcome::Ack(a) => E2apPdu::RicControlAcknowledge(a.clone()),
            CtrlOutcome::Failed(f) => E2apPdu::RicControlFailure(f.clone()),
            CtrlOutcome::TimedOut { req_id, ran_function }
            | CtrlOutcome::ConnectionLost { req_id, ran_function } => {
                E2apPdu::RicControlFailure(RicControlFailure {
                    req_id: *req_id,
                    ran_function: *ran_function,
                    call_process_id: None,
                    cause: Cause::Transport(TransportCause::Unspecified),
                    outcome: None,
                })
            }
        }
    }
}

/// A controller-internal application: the unit of controller
/// specialization (paper §4.2.1).
///
/// On a sharded controller one instance of each iApp runs per shard and
/// sees only the agents owned by that shard; instances share state through
/// whatever the iApp's constructor puts behind an `Arc` (see
/// `MonitorApp::replica` in `flexric-ctrl` for the pattern).  Every
/// callback has a default; the northbound reaches an iApp by its type
/// ([`ServerHandle::call`]).
pub trait IApp: Send + Any {
    /// Called once when the server starts.
    fn on_start(&mut self, _api: &mut ServerApi) {}
    /// A new agent completed E2 setup.
    fn on_agent_connected(&mut self, _api: &mut ServerApi, _agent: &AgentInfo) {}
    /// An agent disconnected.
    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, _agent: AgentId) {}
    /// An agent reconnected within the grace window and was rebound to its
    /// previous [`AgentId`]; its subscriptions are being re-issued under
    /// their original request ids.
    fn on_agent_reconnected(&mut self, _api: &mut ServerApi, _agent: &AgentInfo) {}
    /// A RAN entity became complete (monolithic node, or CU+DU merged).
    fn on_ran_formed(&mut self, _api: &mut ServerApi, _ran: &RanEntity) {}
    /// Outcome of a subscription this iApp requested.
    fn on_subscription_outcome(
        &mut self,
        _api: &mut ServerApi,
        _agent: AgentId,
        _out: &SubOutcome,
    ) {
    }
    /// An indication for a subscription this iApp owns.
    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, _ind: &IndicationRef) {}
    /// Outcome of a control request this iApp sent.
    fn on_control_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, _out: &CtrlOutcome) {}
    /// Periodic tick.
    fn on_tick(&mut self, _api: &mut ServerApi, _now_ms: u64) {}
}

/// Events published to external observers (examples, tests, northbound).
/// All shards publish into the one stream [`ServerHandle::events`] taps.
#[derive(Debug, Clone)]
pub enum ServerEvent {
    /// An agent completed E2 setup.
    AgentConnected(AgentInfo),
    /// An agent disconnected.
    AgentDisconnected(AgentId),
    /// An agent reconnected within the grace window and kept its id.
    AgentReconnected(AgentInfo),
    /// A RAN entity became complete.
    RanFormed(RanEntity),
}

/// Counters exposed by [`ServerHandle::stats`], summed over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Messages received from agents.
    pub rx_msgs: u64,
    /// Messages sent to agents.
    pub tx_msgs: u64,
    /// Connected agents (including agents in the reconnect grace window).
    pub agents: u64,
    /// Active subscriptions.
    pub subs: u64,
    /// Bytes sent to agents (encoded E2AP).
    pub tx_bytes: u64,
    /// Bytes received from agents.
    pub rx_bytes: u64,
    /// Procedure retransmissions sent.
    pub retries: u64,
    /// Procedures that expired terminally.
    pub timeouts: u64,
    /// Agents rebound to their old id after a reconnect.
    pub reconnects: u64,
    /// Inbound PDUs that failed to decode.
    pub decode_errors: u64,
    /// Indications that arrived for no live subscription and were
    /// discarded (the agent still reports on a subscription the server
    /// has given up on).
    pub unrouted_indications: u64,
}

impl std::ops::AddAssign for ServerStats {
    fn add_assign(&mut self, s: ServerStats) {
        self.rx_msgs += s.rx_msgs;
        self.tx_msgs += s.tx_msgs;
        self.agents += s.agents;
        self.subs += s.subs;
        self.tx_bytes += s.tx_bytes;
        self.rx_bytes += s.rx_bytes;
        self.retries += s.retries;
        self.timeouts += s.timeouts;
        self.reconnects += s.reconnects;
        self.decode_errors += s.decode_errors;
        self.unrouted_indications += s.unrouted_indications;
    }
}
