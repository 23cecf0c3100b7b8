//! Bridges: a controller hop made of the two libraries, one [`Shard`]
//! south and [`Agent`]s north, as one [`Machine`] on one loop.  What tells
//! one bridge from another is its [`Transform`], the shard's one iApp:
//!
//! * **the relay** ([`Bridge::relay`], paper §5.4, Fig. 9a; in ASN.1 PER
//!   `flexric-ctrl`'s O-RAN E2 termination) gives each south node that sets
//!   up a *mirror*, a north agent under its node id advertising the
//!   functions the south accepted.  A request from a mirror's upstream goes
//!   unchanged to its node ([`ServerApi::forward_request`]; a delete is
//!   answered at once); what comes back goes up, an FB indication as the
//!   frame it arrived in ([`IndicationRef::Raw`]: no decode, no copy).
//! * **the recursive virtualization controller** (`flexric-ctrl`'s
//!   `recursive`, §6.2) exposes one virtual E2 node to every tenant
//!   controller through the bridge's own north agent.
//!
//! A north agent is the bridge's own (`None`) or *stands for* south node
//! *k* (`Some(k)`): it lives as long as *k*; if its first setup fails the
//! bridge hangs up on *k*, whose redial is the retry; when its live link
//! goes down, what the bridge holds at *k* is deleted.  A PDU from a
//! north link goes to the transform first; what it passes is the agent's.
//! What the bridge's listeners accept is the shard's; the north agents'
//! dials leave under tags of the bridge's own, so that each answer finds
//! the agent that dialled.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;

use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_transport::{TransportAddr, WireMsg};

use crate::agent::{Admission, Agent, AgentConfig, AgentCtx, AgentIn, AgentOut, CtrlId};
use crate::agent::{RanFunction, SubscriptionInfo};
use crate::endpoint::RetryPolicy;
use crate::machine::{Action, DialTag, Event, Machine, PeerId};
use crate::scratch::stream_for;
use crate::server::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi, ServerConfig, ServerEvent,
    ServerStats, Shard, ShardIn, ShardRouter, SubOutcome,
};

pub use crate::driver::BridgeHandle;

/// A north agent: the one standing for south node `Some(k)`, or the
/// bridge's own (`None`).
pub type NorthId = Option<AgentId>;

type Out = Vec<Action<AgentOut>>;

/// What tells one bridge from another: the south shard's one iApp, which
/// also sees what comes from the north before the north agents do.
pub trait Transform: IApp {
    /// A PDU from controller `from.1` of north agent `from.0`.
    fn north(&mut self, api: &mut ServerApi, from: (NorthId, CtrlId), pdu: &E2apPdu) -> Verdict;
}

/// What a transform does with a PDU from the north.
pub enum Verdict {
    /// Nothing: the PDU is the north agent's.
    Pass,
    /// Taken, and answered with this PDU if with anything yet.
    Taken(Option<E2apPdu>),
}

/// A bridge.  See the module docs.
pub struct Bridge {
    south: Shard,
    codec: E2apCodec,
    /// [`Transform::north`] of the transform the shard's `dyn IApp` is.
    north_of: fn(&mut dyn Any, &mut ServerApi, (NorthId, CtrlId), &E2apPdu) -> Verdict,
    north: BTreeMap<NorthId, Agent>,
    /// The north agents' connections.  A peer not in here is the shard's.
    links: HashMap<PeerId, NorthId>,
    /// The north agents' dials in flight, by the tag the bridge gave each:
    /// who dialled, under its own tag.
    dialling: HashMap<DialTag, (NorthId, DialTag)>,
    last_tag: DialTag,
}

impl Machine for Bridge {
    /// What the bridge's own north agent is told: a controller to add.
    type In = AgentIn;
    /// What the bridge's own north agent asks for: the outcome of a setup.
    type Out = AgentOut;

    fn handle(&mut self, event: Event<AgentIn>, now_ms: u64, out: &mut Out) {
        match event {
            Event::Frame(peer, raw) => match self.links.get(&peer) {
                Some(&k) => self.north_frame(k, peer, raw, now_ms, out),
                None => self.south(Event::Frame(peer, raw), now_ms, out),
            },
            Event::Closed(peer) => match self.links.get(&peer) {
                Some(&k) => self.agent(k, Event::Closed(peer), now_ms, out),
                None => self.south(Event::Closed(peer), now_ms, out),
            },
            Event::Tick => {
                self.south(Event::Tick, now_ms, out);
                let ks: Vec<NorthId> = self.north.keys().copied().collect();
                ks.into_iter().for_each(|k| self.agent(k, Event::Tick, now_ms, out));
            }
            Event::Accepted(peer, desc) => self.south(Event::Accepted(peer, desc), now_ms, out),
            Event::Dialled(tag, result) => match self.dialling.remove(&tag) {
                Some((k, tag)) if self.north.contains_key(&k) => {
                    if let Ok(peer) = result {
                        self.links.insert(peer, k);
                    }
                    self.agent(k, Event::Dialled(tag, result), now_ms, out)
                }
                // The agent that dialled is gone.
                _ => out.extend(result.map(Action::Hangup)),
            },
            Event::App(event) => self.agent(None, Event::App(event), now_ms, out),
        }
    }
}

impl Bridge {
    /// A bridge whose south side `cfg` configures (one shard, whatever
    /// `cfg.shards` says), with `transform` for its iApp and `own` for its
    /// own north agent if it has one.
    pub fn new<T: Transform>(cfg: &ServerConfig, transform: T, own: Option<Agent>) -> Self {
        let south = Shard::new(0, cfg, vec![Box::new(transform)], Arc::new(ShardRouter::new(1)));
        let north = own.map(|agent| (None, agent)).into_iter().collect();
        let north_of = |t: &mut dyn Any, api: &mut ServerApi, from, pdu: &E2apPdu| {
            t.downcast_mut::<T>().expect("the bridge's transform").north(api, from, pdu)
        };
        let (links, dialling) = (HashMap::new(), HashMap::new());
        Bridge { south, codec: cfg.codec, north_of, north, links, dialling, last_tag: 0 }
    }

    /// The relay: its mirrors dial `upstream` with `cfg`'s codec and retry
    /// policy.
    pub fn relay(cfg: &ServerConfig, upstream: TransportAddr) -> Self {
        Self::new(cfg, Mirror { upstream, codec: cfg.codec, retry: cfg.retry }, None)
    }

    /// The south shard's counters: its nodes, the subscriptions held at
    /// them, …
    pub fn stats(&self) -> ServerStats {
        self.south.stats()
    }

    /// Procedures in flight: toward south nodes, and the north agents' own.
    pub fn outstanding(&self) -> usize {
        self.south.outstanding() + self.north.values().map(Agent::outstanding).sum::<usize>()
    }

    /// The bridge's own north agent.
    pub(crate) fn own(&self) -> Option<&Agent> {
        self.north.get(&None)
    }

    /// A frame from a link of north agent `k`.
    fn north_frame(&mut self, k: NorthId, peer: PeerId, raw: Bytes, now: u64, out: &mut Out) {
        let north_of = self.north_of;
        let ctrl = self.north.get(&k).and_then(|a| a.ctrl_of(peer));
        let verdict = match (ctrl, self.codec.decode_borrowed(&raw)) {
            (Some(ctrl), Ok(pdu)) => self.act(now, out, |t, api| north_of(t, api, (k, ctrl), &pdu)),
            _ => Verdict::Pass,
        };
        match verdict {
            Verdict::Pass => self.agent(k, Event::Frame(peer, raw), now, out),
            Verdict::Taken(Some(pdu)) => {
                let frame = Bytes::from(self.codec.encode(&pdu));
                out.push(Action::Send(peer, WireMsg::e2ap_on(stream_for(&pdu), frame)));
            }
            Verdict::Taken(None) => {}
        }
    }

    /// Runs `f` with the transform and its API, and carries out what it
    /// asked for.
    fn act<R>(
        &mut self,
        now: u64,
        out: &mut Out,
        f: impl FnOnce(&mut dyn IApp, &mut ServerApi) -> R,
    ) -> R {
        let mut actions = Vec::new();
        let r = self.south.act(0, now, &mut actions, f);
        self.carry(actions, now, out);
        r
    }

    /// Hands `event` to the south shard and carries out what it answers.
    fn south(&mut self, event: Event<ShardIn>, now: u64, out: &mut Out) {
        let mut actions = Vec::new();
        self.south.handle(event, now, &mut actions);
        self.carry(actions, now, out);
    }

    /// Carries out what the shard asked for and what its iApp handed up.
    fn carry(&mut self, actions: Vec<Action<ServerEvent>>, now: u64, out: &mut Out) {
        for (k, msg) in self.south.drain_north() {
            if let Some(peer) = self.north.get(&Some(k)).and_then(|a| a.link(0)) {
                out.push(Action::Send(peer, msg));
            }
        }
        for action in actions {
            match action {
                Action::Send(peer, msg) => out.push(Action::Send(peer, msg)),
                Action::Hangup(peer) => out.push(Action::Hangup(peer)),
                Action::App(ServerEvent::AgentDisconnected(k)) => {
                    self.north.remove(&Some(k));
                    let gone = self.links.extract_if(|_, m| *m == Some(k)).map(|(p, _)| p);
                    out.extend(gone.collect::<BTreeSet<_>>().into_iter().map(Action::Hangup));
                }
                // Nobody taps the events of a bridge's shard, its one-shard
                // router hands nothing off, and a shard dials nowhere.
                Action::App(_) | Action::Handoff { .. } | Action::Dial { .. } => {}
            }
        }
        for (node, agent, upstream) in self.south.take_stood() {
            self.north.insert(Some(node), agent);
            self.agent(Some(node), Event::App(AgentIn::AddController(upstream)), now, out);
        }
    }

    /// Hands `event` to north agent `k` and carries out what it answers.
    fn agent(&mut self, k: NorthId, event: Event<AgentIn>, now: u64, out: &mut Out) {
        let Some(a) = self.north.get_mut(&k) else { return };
        let (link, mut actions) = (a.link(0), Vec::new());
        a.handle(event, now, &mut actions);
        for action in actions {
            match (k, action) {
                (_, Action::Send(peer, msg)) => out.push(Action::Send(peer, msg)),
                (_, Action::Hangup(peer)) => {
                    self.links.remove(&peer);
                    out.push(Action::Hangup(peer));
                    if let (Some(node), true) = (k, link == Some(peer)) {
                        self.act(now, out, |_, api| api.unsubscribe_all(node));
                    }
                }
                // Re-tagged, so that the answer finds the agent that dialled.
                (_, Action::Dial { tag, addr, after_ms }) => {
                    self.last_tag += 1;
                    self.dialling.insert(self.last_tag, (k, tag));
                    out.push(Action::Dial { tag: self.last_tag, addr, after_ms });
                }
                (Some(node), Action::App(AgentOut::SetupDone { result, .. })) => {
                    if result.is_err() {
                        self.north.remove(&k);
                        self.south(Event::App(ShardIn::Disconnect(node)), now, out);
                    }
                }
                (None, Action::App(done)) => out.push(Action::App(done)),
                // An agent has no sibling to hand a peer to.
                (_, Action::Handoff { .. }) => {}
            }
        }
    }
}

/// The relay's transform: a mirror per south node, requests forwarded
/// down, answers handed up ([`ServerApi::send_north`]).
struct Mirror {
    /// Where the mirrors dial, with the south side's codec and retry policy.
    upstream: TransportAddr,
    codec: E2apCodec,
    retry: RetryPolicy,
}

fn up(api: &mut ServerApi, agent: AgentId, pdu: &E2apPdu) {
    let frame = Bytes::from(api.codec().encode(pdu));
    api.send_north(agent, WireMsg::e2ap_on(stream_for(pdu), frame));
}

impl IApp for Mirror {
    fn on_agent_connected(&mut self, api: &mut ServerApi, info: &AgentInfo) {
        let mut cfg = AgentConfig::new(info.node, self.upstream.clone());
        (cfg.codec, cfg.retry) = (self.codec, self.retry);
        let identities = info.functions.iter().map(|f| Box::new(Mirrored(f.clone())) as _);
        api.stand_for(info.id, Agent::new(cfg, identities.collect()), self.upstream.clone());
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
}

impl Transform for Mirror {
    fn north(&mut self, api: &mut ServerApi, from: (NorthId, CtrlId), pdu: &E2apPdu) -> Verdict {
        let Some(node) = from.0 else { return Verdict::Pass };
        let answer = match pdu {
            E2apPdu::RicSubscriptionRequest(_) | E2apPdu::RicControlRequest(_) => None,
            // Once taken, a delete is the shard's to see through.
            E2apPdu::RicSubscriptionDeleteRequest(del) => {
                Some(E2apPdu::RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse {
                    req_id: del.req_id,
                    ran_function: del.ran_function,
                }))
            }
            _ => return Verdict::Pass,
        };
        api.forward_request(node, pdu.clone());
        Verdict::Taken(answer)
    }
}

/// A south node's function as its mirror advertises it: an identity.
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
