//! The agent's report schedule, driven through [`Machine::handle`] with no
//! thread, socket or clock: the test plays the driver and the controllers,
//! feeds frames and ticks at chosen times, and reads the indications out
//! of the `Send` actions.

use bytes::Bytes;

use flexric::agent::{
    Agent, AgentConfig, AgentCtx, AgentIn, AgentOut, CtrlId, PeriodicSubs, RanFunction,
    SubscriptionInfo,
};
use flexric::machine::{Action, Event, Machine, PeerId};
use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::{ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

const CODEC: E2apCodec = E2apCodec::Flatb;
const SM: SmCodec = SmCodec::Flatb;

// ---------------------------------------------------------------------------
// The rig: one agent machine, its controllers played by the test
// ---------------------------------------------------------------------------

struct Rig {
    agent: Agent,
    /// The connection of each controller, by [`CtrlId`].
    peers: Vec<PeerId>,
}

impl Rig {
    /// An agent with `ctrls` controllers, all past E2 Setup at time 0.
    fn new(functions: Vec<Box<dyn RanFunction>>, ctrls: usize) -> Rig {
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1);
        let mut cfg = AgentConfig::new(node, TransportAddr::Mem("unused".into()));
        cfg.codec = CODEC;
        let mut rig = Rig { agent: Agent::new(cfg, functions), peers: Vec::new() };
        for _ in 0..ctrls {
            rig.connect(0);
        }
        rig
    }

    fn handle(&mut self, event: Event<AgentIn>, now: u64) -> Vec<Action<AgentOut>> {
        let mut out = Vec::new();
        self.agent.handle(event, now, &mut out);
        out
    }

    /// Adds one controller and takes it through dial and E2 Setup.
    fn connect(&mut self, now: u64) -> CtrlId {
        let addr = TransportAddr::Mem("unused".into());
        let out = self.handle(Event::App(AgentIn::AddController(addr)), now);
        let [Action::App(AgentOut::Dial { ctrl, .. })] = out[..] else { panic!("{out:?}") };
        self.peers.push(0);
        self.reconnect(ctrl, now);
        ctrl
    }

    /// Answers the dial for `ctrl` with a new connection and the setup
    /// request on it with a response.
    fn reconnect(&mut self, ctrl: CtrlId, now: u64) {
        let peer = self.peers.iter().max().unwrap() + 1;
        self.peers[ctrl] = peer;
        let out = self.handle(Event::App(AgentIn::Connected { ctrl, peer }), now);
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
    fn frame(&mut self, ctrl: CtrlId, pdu: &E2apPdu, now: u64) -> Vec<E2apPdu> {
        let peer = self.peers[ctrl];
        let out = self.handle(Event::Frame(peer, Bytes::from(CODEC.encode(pdu))), now);
        sent_to(&out, peer)
    }

    /// A report subscription from `ctrl`, admitted.
    fn subscribe(&mut self, ctrl: CtrlId, f: u16, req: u16, trigger: ReportTrigger, now: u64) {
        let pdu = E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
            req_id: RicRequestId::new(1, req),
            ran_function: RanFunctionId::new(f),
            event_trigger: Bytes::from(trigger.encode(SM)),
            actions: vec![RicActionToBeSetup {
                id: RicActionId(0),
                action_type: RicActionType::Report,
                definition: None,
                subsequent: None,
            }],
        });
        let answer = self.frame(ctrl, &pdu, now);
        assert!(matches!(answer[..], [E2apPdu::RicSubscriptionResponse(_)]), "{answer:?}");
    }

    /// One tick at `now`; the indications it produced, in the order the
    /// agent sent them, each with the controller it went to.
    fn tick(&mut self, now: u64) -> Vec<(CtrlId, RicIndication)> {
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

/// The PDUs among `out` that were sent to `peer`.
fn sent_to(out: &[Action<AgentOut>], peer: PeerId) -> Vec<E2apPdu> {
    out.iter()
        .filter_map(|a| match a {
            Action::Send(p, msg) if *p == peer => Some(CODEC.decode(&msg.payload).expect("pdu")),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A periodic function that reports the time it was asked at
// ---------------------------------------------------------------------------

struct ClockFn {
    id: u16,
    subs: PeriodicSubs,
}

impl ClockFn {
    fn boxed(id: u16) -> Box<dyn RanFunction> {
        Box::new(ClockFn { id, subs: PeriodicSubs::new() })
    }
}

impl RanFunction for ClockFn {
    fn id(&self) -> RanFunctionId {
        RanFunctionId::new(self.id)
    }
    fn oid(&self) -> String {
        format!("test.clock.{}", self.id)
    }
    fn definition(&self) -> Bytes {
        Bytes::from_static(b"clock-def")
    }
    fn on_subscription(
        &mut self,
        ctx: &mut AgentCtx,
        sub: &SubscriptionInfo,
        _req: &RicSubscriptionRequest,
    ) -> Result<(), Cause> {
        self.subs.admit(sub, SM, ctx.now_ms)
    }
    fn on_subscription_delete(&mut self, _ctx: &mut AgentCtx, ctrl: CtrlId, req_id: RicRequestId) {
        self.subs.remove(ctrl, req_id);
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        _req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        Err(Cause::Ric(RicCause::ActionNotSupported))
    }
    fn on_tick(&mut self, ctx: &mut AgentCtx) {
        let now = ctx.now_ms;
        let mut due: Vec<SubscriptionInfo> = Vec::new();
        self.subs.for_due(now, |sub, _| due.push(sub.clone()));
        for sub in due {
            ctx.send_indication(&sub, Some(now as u32), Bytes::new(), Bytes::from_static(b"t"));
        }
    }
}

/// The times (the indications' sequence numbers) `rig` reports at when
/// ticked at each of `ticks`.
fn report_times(rig: &mut Rig, ticks: &[u64]) -> Vec<u32> {
    ticks.iter().flat_map(|&t| rig.tick(t)).map(|(_, ind)| ind.sn.expect("the time")).collect()
}

// ---------------------------------------------------------------------------
// The re-arm rule
// ---------------------------------------------------------------------------

/// A tick that comes 1 ms late delays one report and moves no later one:
/// the due times stay on the subscription's own 10 ms grid.  (Re-arming at
/// `now + period` moved the grid to 31, 41, … — the tick at 30 was then
/// "early" and a whole period went unreported.)
#[test]
fn a_late_tick_delays_one_report_and_loses_none() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 0);
    assert_eq!(report_times(&mut rig, &[0, 10, 21, 30, 40]), [0, 10, 21, 30, 40]);
}

/// A stall of several periods produces one report, not a burst, and the
/// next one is due at the next point of the grid.
#[test]
fn a_stall_produces_one_report_and_the_grid_holds() {
    let mut rig = Rig::new(vec![ClockFn::boxed(7)], 1);
    rig.subscribe(0, 7, 1, ReportTrigger::every_ms(10), 0);
    let ticks = [0, 57, 58, 59, 60, 61, 69, 70];
    assert_eq!(report_times(&mut rig, &ticks), [0, 57, 60, 70]);
}
