//! The relay: a controller hop made of the two libraries, one [`Shard`]
//! south and one mirror [`Agent`] per south E2 node north, as one
//! [`Machine`] — the paper's relaying controller "to emulate two hops"
//! (§5.4, Fig. 9a), and in ASN.1 PER `flexric-ctrl`'s O-RAN E2 termination.
//!
//! * A south agent that completes E2 Setup gets a mirror under its node id,
//!   advertising the functions the south accepted, which dials the
//!   upstream with the agent library's setup retransmit, deadline and
//!   redial.  The mirror lasts through the agent's grace window; if its
//!   first setup fails, the relay hangs up on the agent, whose redial is
//!   the retry.
//! * A subscription, delete or control from mirror *k*'s upstream goes
//!   unchanged to south agent *k* ([`ServerApi::forward_request`]; a delete
//!   is answered at once); anything else is the mirror's.  What comes back
//!   goes up: an FB indication as the frame it arrived in
//!   ([`IndicationRef::Raw`], no decode, no copy), a PER one re-encoded, an
//!   outcome as [`SubOutcome::to_pdu`] / [`CtrlOutcome::to_pdu`].
//! * When mirror *k*'s link goes down, what was subscribed through it is
//!   deleted at south agent *k*.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;

use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_transport::{TransportAddr, WireMsg};

use crate::agent::{Admission, Agent, AgentConfig, AgentCtx, AgentIn, AgentOut};
use crate::agent::{RanFunction, SubscriptionInfo};
use crate::endpoint::RetryPolicy;
use crate::machine::{Action, Event, Machine, PeerId};
use crate::scratch::stream_for;
use crate::server::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi, ServerConfig, ServerEvent,
    ServerStats, Shard, ShardIn, ShardOut, ShardRouter, SubOutcome,
};

pub use crate::driver::RelayHandle;

/// What a relay is told beside frames, closes and ticks.
pub enum RelayIn {
    /// For the south shard: the accept path's [`ShardIn::NewAgent`].
    South(ShardIn),
    /// For the mirror of south agent `.0`: the answer to its dial.
    North(AgentId, AgentIn),
}

/// What a relay asks for beside sends and hangups: the [`AgentOut::Dial`]
/// of the mirror of south agent `.0`, answered with [`RelayIn::North`].
pub type RelayOut = (AgentId, AgentOut);

type Out = Vec<Action<RelayOut>>;

/// The relay.  See the module docs.
pub struct Relay {
    south: Shard,
    /// Where the mirrors dial, with the south side's codec and retry policy.
    upstream: TransportAddr,
    codec: E2apCodec,
    retry: RetryPolicy,
    /// One per south agent that has set up, by its id at the south shard.
    mirrors: BTreeMap<AgentId, Agent>,
    /// The mirrors' connections.  A peer not in here is the south shard's.
    north: HashMap<PeerId, AgentId>,
}

impl Machine for Relay {
    type In = RelayIn;
    type Out = RelayOut;

    fn handle(&mut self, event: Event<RelayIn>, now_ms: u64, out: &mut Out) {
        match event {
            Event::Frame(peer, raw) => match self.north.get(&peer) {
                Some(&k) => self.north_frame(k, peer, raw, now_ms, out),
                None => self.south(Event::Frame(peer, raw), now_ms, out),
            },
            Event::Closed(peer) => match self.north.get(&peer) {
                Some(&k) => self.mirror(k, Event::Closed(peer), now_ms, out),
                None => self.south(Event::Closed(peer), now_ms, out),
            },
            Event::Tick => {
                self.south(Event::Tick, now_ms, out);
                let ks: Vec<AgentId> = self.mirrors.keys().copied().collect();
                ks.into_iter().for_each(|k| self.mirror(k, Event::Tick, now_ms, out));
            }
            Event::App(RelayIn::South(event)) => self.south(Event::App(event), now_ms, out),
            Event::App(RelayIn::North(k, event)) => {
                if let AgentIn::Connected { peer, .. } = event {
                    if !self.mirrors.contains_key(&k) {
                        return out.push(Action::Hangup(peer));
                    }
                    self.north.insert(peer, k);
                }
                self.mirror(k, Event::App(event), now_ms, out)
            }
        }
    }
}

impl Relay {
    /// A relay whose south side `cfg` configures (one shard, whatever
    /// `cfg.shards` says) and whose mirrors dial `upstream` with its codec
    /// and retry policy.
    pub fn new(cfg: &ServerConfig, upstream: TransportAddr) -> Self {
        let south = Shard::new(0, cfg, vec![Box::new(South)], Arc::new(ShardRouter::new(1)));
        let (codec, retry) = (cfg.codec, cfg.retry);
        Relay { south, upstream, codec, retry, mirrors: BTreeMap::new(), north: HashMap::new() }
    }

    /// The south shard's counters: its agents, the subscriptions forwarded
    /// to them, …
    pub fn stats(&self) -> ServerStats {
        self.south.stats()
    }

    /// Procedures in flight: those forwarded to south agents, and the
    /// mirrors' own toward the upstream.
    pub fn outstanding(&self) -> usize {
        self.south.outstanding() + self.mirrors.values().map(Agent::outstanding).sum::<usize>()
    }

    /// A frame from mirror `k`'s upstream.
    fn north_frame(&mut self, k: AgentId, peer: PeerId, raw: Bytes, now: u64, out: &mut Out) {
        match self.codec.decode_borrowed(&raw) {
            Ok(
                pdu @ (E2apPdu::RicSubscriptionRequest(_)
                | E2apPdu::RicSubscriptionDeleteRequest(_)
                | E2apPdu::RicControlRequest(_)),
            ) => self.tell_south(Down::Request(k, pdu), now, out),
            _ => self.mirror(k, Event::Frame(peer, raw), now, out),
        }
    }

    fn tell_south(&mut self, down: Down, now: u64, out: &mut Out) {
        let event = ShardIn::ToIApp(SOUTH.to_owned(), Box::new(down));
        self.south(Event::App(event), now, out)
    }

    /// Hands `event` to the south shard and carries out what it answers.
    fn south(&mut self, event: Event<ShardIn>, now: u64, out: &mut Out) {
        let mut actions = Vec::new();
        self.south.handle(event, now, &mut actions);
        for (k, msg) in self.south.drain_north() {
            if let Some(peer) = self.mirrors.get(&k).and_then(|m| m.link(0)) {
                out.push(Action::Send(peer, msg));
            }
        }
        for action in actions {
            match action {
                Action::Send(peer, msg) => out.push(Action::Send(peer, msg)),
                Action::Hangup(peer) => out.push(Action::Hangup(peer)),
                Action::App(ShardOut::Publish(ServerEvent::AgentConnected(info))) => {
                    self.add_mirror(info, now, out)
                }
                Action::App(ShardOut::Publish(ServerEvent::AgentDisconnected(k))) => {
                    self.mirrors.remove(&k);
                    let gone = self.north.iter().filter(|(_, m)| **m == k).map(|(p, _)| *p);
                    out.extend(gone.map(Action::Hangup));
                    self.north.retain(|_, m| *m != k);
                }
                // One shard forwards nothing, and nobody taps its events.
                Action::App(_) => {}
            }
        }
    }

    fn add_mirror(&mut self, info: AgentInfo, now: u64, out: &mut Out) {
        let mut cfg = AgentConfig::new(info.node, self.upstream.clone());
        (cfg.codec, cfg.retry) = (self.codec, self.retry);
        let add = AgentIn::AddController(self.upstream.clone());
        let identities = info.functions.into_iter().map(|f| Box::new(Mirrored(f)) as _);
        self.mirrors.insert(info.id, Agent::new(cfg, identities.collect()));
        self.mirror(info.id, Event::App(add), now, out);
    }

    /// Hands `event` to mirror `k` and carries out what it answers.
    fn mirror(&mut self, k: AgentId, event: Event<AgentIn>, now: u64, out: &mut Out) {
        let Some(m) = self.mirrors.get_mut(&k) else { return };
        let (link, mut actions) = (m.link(0), Vec::new());
        m.handle(event, now, &mut actions);
        for action in actions {
            match action {
                Action::Send(peer, msg) => out.push(Action::Send(peer, msg)),
                Action::Hangup(peer) => {
                    self.north.remove(&peer);
                    out.push(Action::Hangup(peer));
                    if link == Some(peer) {
                        self.tell_south(Down::LinkLost(k), now, out);
                    }
                }
                Action::App(AgentOut::SetupDone { result: Err(_), .. }) => {
                    self.mirrors.remove(&k);
                    self.south(Event::App(ShardIn::Disconnect(k)), now, out);
                }
                Action::App(AgentOut::SetupDone { result: Ok(()), .. }) => {}
                Action::App(dial) => out.push(Action::App((k, dial))),
            }
        }
    }
}

/// The name of the relay's one iApp.
const SOUTH: &str = "relay";

/// What the relay hands its south iApp.
enum Down {
    /// A functional request from the upstream of south agent `.0`.
    Request(AgentId, E2apPdu),
    /// The mirror of south agent `.0` lost its upstream.
    LinkLost(AgentId),
}

/// The relay's one iApp: it forwards what comes down and hands up
/// ([`ServerApi::send_north`]) what the south agents answer.
struct South;

fn up(api: &mut ServerApi, agent: AgentId, pdu: &E2apPdu) {
    let frame = Bytes::from(api.codec().encode(pdu));
    api.send_north(agent, WireMsg::e2ap_on(stream_for(pdu), frame));
}

impl IApp for South {
    fn name(&self) -> &str {
        SOUTH
    }

    fn on_indication(&mut self, api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        match ind {
            // The frame as it arrived: a refcount bump on the south read slab.
            IndicationRef::Raw { raw, .. } => {
                api.send_north(agent, WireMsg::e2ap_on(WireMsg::STREAM_BULK, (*raw).clone()))
            }
            IndicationRef::Decoded(ind) => up(api, agent, &E2apPdu::RicIndication((*ind).clone())),
        }
    }

    fn on_subscription_outcome(&mut self, api: &mut ServerApi, agent: AgentId, out: &SubOutcome) {
        up(api, agent, &out.to_pdu());
    }

    fn on_control_outcome(&mut self, api: &mut ServerApi, agent: AgentId, out: &CtrlOutcome) {
        up(api, agent, &out.to_pdu());
    }

    fn on_custom(&mut self, api: &mut ServerApi, msg: Box<dyn Any + Send>) {
        let Ok(down) = msg.downcast::<Down>() else { return };
        match *down {
            Down::Request(agent, pdu) => {
                // Once taken, a delete is the shard's to see through.
                if let E2apPdu::RicSubscriptionDeleteRequest(req) = &pdu {
                    let resp = RicSubscriptionDeleteResponse {
                        req_id: req.req_id,
                        ran_function: req.ran_function,
                    };
                    up(api, agent, &E2apPdu::RicSubscriptionDeleteResponse(resp));
                }
                api.forward_request(agent, pdu);
            }
            Down::LinkLost(agent) => api.unsubscribe_all(agent),
        }
    }
}

/// A south agent's function as its mirror advertises it: an identity.
/// The relay takes every request for it before the mirror would.
struct Mirrored(RanFunctionItem);

impl RanFunction for Mirrored {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }

    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Err(Cause::Ric(RicCause::ActionNotSupported))
    }
}
