//! One agent machine with its controllers played by the test: shared by
//! `schedule.rs` and `tick_alloc.rs`.
#![allow(dead_code)]

use bytes::Bytes;

use flexric::agent::{Agent, AgentConfig, AgentIn, AgentOut, CtrlId, RanFunction};
use flexric::machine::{Action, Event, Machine, PeerId};
use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::{ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

pub const CODEC: E2apCodec = E2apCodec::Flatb;
pub const SM: SmCodec = SmCodec::Flatb;

pub struct Rig {
    pub agent: Agent,
    /// The connection of each controller, by [`CtrlId`].
    pub peers: Vec<PeerId>,
}

impl Rig {
    /// An agent with `ctrls` controllers, all past E2 Setup at time 0.
    pub fn new(functions: Vec<Box<dyn RanFunction>>, ctrls: usize) -> Rig {
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1);
        let mut cfg = AgentConfig::new(node, TransportAddr::Mem("unused".into()));
        cfg.codec = CODEC;
        let mut rig = Rig { agent: Agent::new(cfg, functions), peers: Vec::new() };
        for _ in 0..ctrls {
            rig.connect(0);
        }
        rig
    }

    pub fn handle(&mut self, event: Event<AgentIn>, now: u64) -> Vec<Action<AgentOut>> {
        let mut out = Vec::new();
        self.agent.handle(event, now, &mut out);
        out
    }

    /// Adds one controller and takes it through dial and E2 Setup.
    pub fn connect(&mut self, now: u64) -> CtrlId {
        let addr = TransportAddr::Mem("unused".into());
        let out = self.handle(Event::App(AgentIn::AddController(addr)), now);
        let [Action::Dial { tag: ctrl, .. }] = out[..] else { panic!("{out:?}") };
        self.peers.push(0);
        self.reconnect(ctrl, now);
        ctrl
    }

    /// Answers the dial for `ctrl` with a new connection and the setup
    /// request on it with a response.
    pub fn reconnect(&mut self, ctrl: CtrlId, now: u64) {
        let peer = self.peers.iter().max().unwrap() + 1;
        self.peers[ctrl] = peer;
        let out = self.handle(Event::Dialled(ctrl, Ok(peer)), now);
        let [E2apPdu::E2SetupRequest(req)] = &sent_to(&out, peer)[..] else { panic!("{out:?}") };
        let resp = E2apPdu::E2SetupResponse(E2SetupResponse {
            transaction_id: req.transaction_id,
            global_ric: GlobalRicId::new(Plmn::TEST, 1),
            accepted: req.ran_functions.iter().map(|f| f.id).collect(),
            rejected: vec![],
        });
        self.frame(ctrl, &resp, now);
    }

    /// One PDU from `ctrl`; what the agent answered it with.
    pub fn frame(&mut self, ctrl: CtrlId, pdu: &E2apPdu, now: u64) -> Vec<E2apPdu> {
        let peer = self.peers[ctrl];
        let out = self.handle(Event::Frame(peer, Bytes::from(CODEC.encode(pdu))), now);
        sent_to(&out, peer)
    }

    /// A report subscription from `ctrl` (or the retune of one), admitted.
    pub fn subscribe(&mut self, ctrl: CtrlId, f: u16, req: u16, trigger: ReportTrigger, now: u64) {
        let pdu = subscription_request(f, req, Bytes::from(trigger.encode(SM)));
        let answer = self.frame(ctrl, &pdu, now);
        assert!(matches!(answer[..], [E2apPdu::RicSubscriptionResponse(_)]), "{answer:?}");
    }

    /// The delete of subscription `req` from `ctrl`; the agent's answer.
    pub fn delete(&mut self, ctrl: CtrlId, f: u16, req: u16, now: u64) -> E2apPdu {
        let pdu = E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
            req_id: RicRequestId::new(1, req),
            ran_function: RanFunctionId::new(f),
        });
        let [answer] = <[E2apPdu; 1]>::try_from(self.frame(ctrl, &pdu, now)).expect("one answer");
        answer
    }

    /// One tick at `now`; the indications it produced, in the order the
    /// agent sent them, each with the controller it went to.
    pub fn tick(&mut self, now: u64) -> Vec<(CtrlId, RicIndication)> {
        let out = self.handle(Event::Tick, now);
        let mut inds = Vec::new();
        for action in &out {
            let Action::Send(peer, msg) = action else { continue };
            let ctrl = self.peers.iter().position(|p| p == peer).expect("a bound connection");
            if let E2apPdu::RicIndication(ind) = CODEC.decode(&msg.payload).expect("decodes") {
                inds.push((ctrl, ind));
            }
        }
        inds
    }
}

pub fn subscription_request(f: u16, req: u16, event_trigger: Bytes) -> E2apPdu {
    E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
        req_id: RicRequestId::new(1, req),
        ran_function: RanFunctionId::new(f),
        event_trigger,
        actions: vec![RicActionToBeSetup {
            id: RicActionId(0),
            action_type: RicActionType::Report,
            definition: None,
            subsequent: None,
        }],
    })
}

pub fn identity(id: u16, oid: &str) -> RanFunctionItem {
    RanFunctionItem::new(id, oid, Bytes::from_static(b"test-def"))
}

/// The PDUs among `out` that were sent to `peer`.
pub fn sent_to(out: &[Action<AgentOut>], peer: PeerId) -> Vec<E2apPdu> {
    out.iter()
        .filter_map(|a| match a {
            Action::Send(p, msg) if *p == peer => Some(CODEC.decode(&msg.payload).expect("pdu")),
            _ => None,
        })
        .collect()
}
