//! The protocol suite: the agent and the controller as state machines on
//! the in-test [`Wire`] (`wire/mod.rs`), with a stub RAN function that
//! reports pings and an iApp that counts what it sees.
//!
//! The scenarios: four of the wait-and-poll suite this file replaces
//! (lost subscription request, controller restart, reconnect within the
//! grace window, sharded rebind), the accept rule (a setup request first,
//! within its deadline, admitted on the routed shard) and the hangup
//! contract, the regressions that
//! fall out of E2 Setup being a tracked procedure, the relay against the
//! direct path, the virtualizer between two tenants and one node, and a
//! sweep of 1 000 generated fault schedules with four invariants checked
//! after every step.

mod wire;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;

use flexric::agent::{Admission, AgentCtx, AgentIn, CtrlId, Due, RanFunction, SubscriptionInfo};
use flexric::endpoint::Backoff;
use flexric::machine::Event;
use flexric::relay::Bridge;
use flexric::server::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi, ServerEvent, Shard, ShardIn,
    SubOutcome,
};
use flexric_codec::E2apCodec;
use flexric_ctrl::recursive::{phys_slice_id, TenantConf, VirtController};
use flexric_e2ap::*;
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::slice::{SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::{hw::HwPing, oid, rf, ReportTrigger, SmCodec, SmPayload};
use flexric_transport::{TransportAddr, WireMsg};
use wire::*;

// ---------------------------------------------------------------------------
// Fixtures: a periodic-report RAN function (id 7) and a recording iApp
// ---------------------------------------------------------------------------

struct PingFn {
    identity: RanFunctionItem,
    seq: u32,
}

impl PingFn {
    fn new() -> Self {
        // Register the test SM so the controller's setup negotiation
        // accepts it (idempotent across tests in this binary).
        let _ = flexric_sm::registry::global().register(
            flexric_sm::SmDescriptor::new(
                7,
                "test.ping",
                flexric_sm::SmVersion::V1,
                flexric_sm::RanFuncDef::simple("PING", "protocol test ping SM"),
            )
            .trigger::<ReportTrigger>()
            .indication::<HwPing>(),
        );
        let identity = RanFunctionItem::new(7, "test.ping", Bytes::from_static(b"ping-def"));
        PingFn { identity, seq: 0 }
    }
}

impl RanFunction for PingFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SmCodec::Flatb)
    }
    /// Answers a control with an indication under its request id, as
    /// `HwFn` answers a ping with a pong.
    fn on_control(
        &mut self,
        ctx: &mut AgentCtx,
        ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        let (req_id, ran_function) = (req.req_id, req.ran_function);
        let sub = SubscriptionInfo { ctrl, req_id, ran_function, action: RicActionId(0) };
        ctx.send_indication(&sub, None, Bytes::new(), req.message.clone());
        Ok(None)
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let now = ctx.now_ms;
        for sub in due.iter() {
            self.seq += 1;
            let ping = HwPing { seq: self.seq, tstamp_ns: now * 1_000_000, payload: Bytes::new() };
            let msg = Bytes::from(ping.encode(SmCodec::Flatb));
            ctx.send_indication(sub.info(), Some(self.seq), Bytes::new(), msg);
        }
    }
}

/// What the recording iApp instances of one controller saw, together.
#[derive(Default)]
struct Seen {
    connected: u64,
    reconnected: u64,
    disconnected: u64,
    admitted: u64,
    failed: u64,
    timed_out: u64,
    lost: u64,
    inds: u64,
    ctrl_outcomes: u64,
    last_agent: Option<AgentId>,
    /// Which shard each agent's callbacks ran on.
    shard_of: HashMap<AgentId, usize>,
    /// The request ids admitted per agent — its subscription set.
    subs: HashMap<AgentId, HashSet<RicRequestId>>,
    /// Agents connected and outcomes delivered, in order.
    calls: Vec<Call>,
    /// Indications delivered, by request id.
    inds_by: HashMap<RicRequestId, u64>,
}

/// One callback of [`Seen::calls`].
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Connected(GlobalE2NodeId),
    Sub(RicRequestId, &'static str),
    Ctrl(RicRequestId, &'static str),
}

struct RobApp {
    auto_subscribe: bool,
    seen: Arc<Mutex<Seen>>,
}

enum RobCmd {
    Subscribe(AgentId),
    /// This many controls that ask no acknowledgement, as `PingApp` sends.
    Ping(AgentId, usize),
    /// A subscription request that arrived from elsewhere under its own
    /// request id, handed on with `forward_request` as a relay does.
    Forward(AgentId, RicRequestId),
    /// A control that asks for an acknowledgement.
    Ack(AgentId),
    Unsubscribe(AgentId, RicRequestId),
}

/// The request id a forwarded subscription carries: another requestor's
/// than the one the controller allocates from.
fn forwarded(instance: u16) -> RicRequestId {
    RicRequestId::new(900, instance)
}

impl RobCmd {
    fn agent(&self) -> AgentId {
        match *self {
            RobCmd::Subscribe(agent)
            | RobCmd::Ping(agent, _)
            | RobCmd::Forward(agent, _)
            | RobCmd::Ack(agent)
            | RobCmd::Unsubscribe(agent, _) => agent,
        }
    }
}

impl RobApp {
    fn subscribe(&self, api: &mut ServerApi, agent: AgentId) {
        api.subscribe_report(agent, RanFunctionId::new(7), every_ms_1());
    }

    fn run(&mut self, api: &mut ServerApi, cmd: RobCmd) {
        match cmd {
            RobCmd::Subscribe(agent) => self.subscribe(api, agent),
            RobCmd::Ping(agent, n) => {
                for _ in 0..n {
                    let rf = RanFunctionId::new(7);
                    api.control(agent, rf, Bytes::new(), Bytes::new(), None);
                }
            }
            RobCmd::Ack(agent) => {
                let (rf, ack) = (RanFunctionId::new(7), Some(ControlAckRequest::Ack));
                api.control(agent, rf, Bytes::new(), Bytes::new(), ack);
            }
            RobCmd::Unsubscribe(agent, req_id) => api.unsubscribe(agent, req_id),
            RobCmd::Forward(agent, req_id) => api.forward_request(
                agent,
                E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
                    req_id,
                    ran_function: RanFunctionId::new(7),
                    event_trigger: every_ms_1(),
                    actions: vec![RicActionToBeSetup {
                        id: RicActionId(0),
                        action_type: RicActionType::Report,
                        definition: None,
                        subsequent: None,
                    }],
                }),
            ),
        }
    }

    fn saw_agent(&self, api: &ServerApi, agent: &AgentInfo) {
        let mut seen = self.seen.lock().unwrap();
        seen.last_agent = Some(agent.id);
        seen.shard_of.insert(agent.id, api.shard());
    }
}

impl IApp for RobApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        let mut seen = self.seen.lock().unwrap();
        seen.connected += 1;
        seen.calls.push(Call::Connected(agent.node));
        drop(seen);
        self.saw_agent(api, agent);
        if self.auto_subscribe {
            self.subscribe(api, agent.id);
        }
    }
    fn on_agent_reconnected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        self.seen.lock().unwrap().reconnected += 1;
        self.saw_agent(api, agent);
    }
    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        let mut seen = self.seen.lock().unwrap();
        seen.disconnected += 1;
        seen.subs.remove(&agent);
    }
    fn on_subscription_outcome(&mut self, _api: &mut ServerApi, agent: AgentId, out: &SubOutcome) {
        let mut seen = self.seen.lock().unwrap();
        let kind = match out {
            SubOutcome::Admitted(resp) => {
                seen.admitted += 1;
                seen.subs.entry(agent).or_default().insert(resp.req_id);
                "admitted"
            }
            SubOutcome::Failed(_) => {
                seen.failed += 1;
                "failed"
            }
            SubOutcome::TimedOut { .. } => {
                seen.timed_out += 1;
                "timed out"
            }
            SubOutcome::ConnectionLost { .. } => {
                seen.lost += 1;
                "lost"
            }
        };
        let req_id = out.to_pdu().ric_request_id().unwrap_or_default();
        seen.calls.push(Call::Sub(req_id, kind));
    }
    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, ind: &IndicationRef) {
        let mut seen = self.seen.lock().unwrap();
        seen.inds += 1;
        *seen.inds_by.entry(ind.req_id()).or_default() += 1;
    }
    fn on_control_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &CtrlOutcome) {
        let mut seen = self.seen.lock().unwrap();
        seen.ctrl_outcomes += 1;
        let kind = match out {
            CtrlOutcome::Ack(_) => "ack",
            CtrlOutcome::Failed(_) => "failed",
            CtrlOutcome::TimedOut { .. } => "timed out",
            CtrlOutcome::ConnectionLost { .. } => "lost",
        };
        let req_id = out.to_pdu().ric_request_id().unwrap_or_default();
        seen.calls.push(Call::Ctrl(req_id, kind));
    }
}

/// The event trigger every fixture subscription reports under.
fn every_ms_1() -> Bytes {
    Bytes::from(ReportTrigger::every_ms(1).encode(SmCodec::Flatb))
}

/// The fixtures on the wire.
trait Rob {
    /// Starts (or restarts, at `at`) a controller of `shards` shards with
    /// one [`RobApp`] per shard reporting into the returned [`Seen`].
    fn start_ctrl(&mut self, at: usize, shards: usize, auto_subscribe: bool) -> Arc<Mutex<Seen>>;
    /// Adds a [`PingFn`] agent for E2 node `node` and has it add `ctrls`.
    fn start_agent(&mut self, node: u64, reconnect: Option<Backoff>, ctrls: &[usize]) -> usize;
    /// The same with the controllers (or bridges) at `at`.
    fn start_agent_at(&mut self, node: u64, re: Option<Backoff>, at: &[TransportAddr]) -> usize;
    /// Has the `RobApp` of the shard of controller `c` that holds `cmd`'s
    /// agent carry it out.
    fn tell_iapp(&mut self, c: usize, cmd: RobCmd);
}

impl Rob for Wire {
    fn start_ctrl(&mut self, at: usize, shards: usize, auto_subscribe: bool) -> Arc<Mutex<Seen>> {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let app = || Box::new(RobApp { auto_subscribe, seen: seen.clone() }) as Box<dyn IApp>;
        self.start_ctrl_of(at, &ctrl_cfg(at), (0..shards).map(|_| vec![app()]).collect());
        seen
    }

    fn start_agent(&mut self, node: u64, reconnect: Option<Backoff>, ctrls: &[usize]) -> usize {
        let addrs: Vec<TransportAddr> = ctrls.iter().map(|&c| addr(c)).collect();
        self.start_agent_at(node, reconnect, &addrs)
    }

    fn start_agent_at(&mut self, node: u64, re: Option<Backoff>, at: &[TransportAddr]) -> usize {
        self.start_agent_of(agent_cfg(node, re, at), vec![Box::new(PingFn::new())])
    }

    fn tell_iapp(&mut self, c: usize, cmd: RobCmd) {
        let holds = |s: &Shard| s.agents().iter().any(|a| a.id == cmd.agent());
        let k = self.ctrls[c].shards.iter().position(holds).expect("a shard holds the agent");
        self.call(c, k, |app: &mut RobApp, api| app.run(api, cmd));
    }
}

fn seen<R>(seen: &Arc<Mutex<Seen>>, f: impl FnOnce(&Seen) -> R) -> R {
    f(&seen.lock().unwrap())
}

// ---------------------------------------------------------------------------
// 1. A lost RIC Subscription Request is retransmitted until admitted.
// ---------------------------------------------------------------------------

#[test]
fn lost_subscription_request_is_retransmitted() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, false);
    w.start_agent(1, Some(BACKOFF), &[0]);
    assert_eq!(seen(&app, |s| s.connected), 1);
    let agent_id = seen(&app, |s| s.last_agent).unwrap();

    // Swallow the controller's next frame — the subscription request.
    w.faults[DOWN].push_back(Fault::Drop);
    w.tell_iapp(0, RobCmd::Subscribe(agent_id));
    w.advance(RETRY.subscription_deadline_ms - 1);
    assert_eq!(seen(&app, |s| s.admitted), 0, "nothing before the deadline");

    // The endpoint layer retransmits at the deadline and the retry goes through.
    w.advance(5);
    assert_eq!(seen(&app, |s| s.admitted), 1, "admitted after one retransmission");
    assert_eq!(w.ctrl_stats(0).retries, 1);
    assert!(seen(&app, |s| s.inds) >= 3, "indications flowing");
    assert_eq!(seen(&app, |s| (s.timed_out, s.failed)), (0, 0));
}

/// The same loss when the request is one the controller forwards under the
/// id it arrived with: it is tracked as the controller's own are.
#[test]
fn lost_forwarded_subscription_is_retransmitted() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, false);
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    let agent_id = seen(&app, |s| s.last_agent).unwrap();

    w.faults[DOWN].push_back(Fault::Drop);
    w.tell_iapp(0, RobCmd::Forward(agent_id, forwarded(1)));
    w.advance(RETRY.subscription_deadline_ms + 5);
    assert_eq!(w.ctrl_stats(0).retries, 1, "the forward is sent again at its deadline");
    assert_eq!(seen(&app, |s| s.admitted), 1, "and admitted");
    assert_eq!(seen(&app, |s| s.subs[&agent_id].clone()), HashSet::from([forwarded(1)]));
    assert_eq!(w.agents[a].stats().active_subs, 1);
    assert!(seen(&app, |s| s.inds) >= 3, "indications flowing under the forwarded id");
}

// ---------------------------------------------------------------------------
// 2. Controller restart: the agent redials, sets up again, and the
//    restarted controller's iApps resubscribe — indications resume.
// ---------------------------------------------------------------------------

#[test]
fn controller_restart_agent_sets_up_again_and_is_resubscribed() {
    let mut w = Wire::default();
    let app_a = w.start_ctrl(0, 1, true);
    let a = w.start_agent(2, Some(BACKOFF), &[0]);
    w.advance(10);
    assert_eq!(seen(&app_a, |s| s.admitted), 1);
    assert!(seen(&app_a, |s| s.inds) >= 5);

    // The controller dies; the agent's dials are refused for a while.
    w.stop_ctrl(0);
    w.advance(100);
    assert_eq!(w.agents[a].stats().controllers, 0);
    let redials: Vec<u64> = w.dial_log.iter().skip(1).map(|d| d.2).collect();
    assert_eq!(redials, [10, 20, 40, 80], "capped exponential backoff between refused dials");

    // A new controller comes up on the same address.
    let app_b = w.start_ctrl(0, 1, true);
    w.advance(100);
    assert_eq!(
        seen(&app_b, |s| (s.connected, s.admitted)),
        (1, 1),
        "a new agent to B, resubscribed"
    );
    assert!(seen(&app_b, |s| s.inds) >= 5, "indications after the restart");
    let stats = w.agents[a].stats();
    assert_eq!((stats.reconnects, stats.controllers, stats.active_subs), (1, 1, 1));
    assert!(
        w.setup_done.iter().all(|d| d.2.is_ok()),
        "only the first setup is reported: {:?}",
        w.setup_done
    );
}

// ---------------------------------------------------------------------------
// 3. An agent that drops and returns within the grace window keeps its
//    AgentId, and the server replays every subscription intent.
// ---------------------------------------------------------------------------

#[test]
fn reconnect_within_grace_replays_every_subscription() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let first = w.start_agent(42, None, &[0]);
    let first_id = seen(&app, |s| s.last_agent).unwrap();
    w.tell_iapp(0, RobCmd::Subscribe(first_id)); // a second subscription
    w.tell_iapp(0, RobCmd::Forward(first_id, forwarded(1))); // and a forwarded one
    w.advance(5);
    assert_eq!(seen(&app, |s| s.admitted), 3);
    let before = seen(&app, |s| s.subs[&first_id].clone());
    assert_eq!(before.len(), 3);

    // The agent process dies (no redial) and the same E2 node comes back.
    w.cut(first, 0);
    w.advance(50);
    assert_eq!(w.ctrl_stats(0).agents, 1, "kept through the grace window");
    let second = w.start_agent(42, Some(BACKOFF), &[0]);
    assert_eq!(
        seen(&app, |s| (s.connected, s.reconnected)),
        (1, 1),
        "a reconnect, not a new agent"
    );
    assert_eq!(seen(&app, |s| s.last_agent), Some(first_id), "agent kept its id");

    // Every subscription is re-admitted under its old request id.
    w.advance(5);
    assert_eq!(seen(&app, |s| s.admitted), 6);
    assert_eq!(seen(&app, |s| s.subs[&first_id].clone()), before, "subscription set unchanged");
    assert_eq!(w.agents[second].stats().active_subs, 3);
    let inds = seen(&app, |s| s.inds);
    w.advance(5);
    assert!(seen(&app, |s| s.inds) >= inds + 12, "all three subscriptions report again");
    let stats = w.ctrl_stats(0);
    assert_eq!((stats.reconnects, stats.agents, stats.subs), (1, 1, 3));
    let reconnected =
        |e: &ServerEvent| matches!(e, ServerEvent::AgentReconnected(i) if i.id == first_id);
    assert!(w.published.iter().any(reconnected), "AgentReconnected published");
}

// ---------------------------------------------------------------------------
// 4. Sharded: the returning agent rebinds on its original shard.
// ---------------------------------------------------------------------------

#[test]
fn sharded_reconnect_within_grace_rebinds_to_original_shard() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 4, true);
    // Fill several shards so the rebind target is not trivially shard 0.
    for node in [50, 51, 52] {
        w.start_agent(node, Some(BACKOFF), &[0]);
    }
    let first = w.start_agent(42, None, &[0]);
    let (first_id, first_shard) = seen(&app, |s| {
        let id = s.last_agent.unwrap();
        (id, s.shard_of[&id])
    });
    assert_ne!(first_shard, 0, "three entities before it: least-loaded is not shard 0");
    w.advance(5);
    assert_eq!(seen(&app, |s| (s.connected, s.admitted)), (4, 4));

    w.cut(first, 0);
    w.advance(50);
    w.start_agent(42, Some(BACKOFF), &[0]);
    w.advance(5);
    seen(&app, |s| {
        assert_eq!(s.reconnected, 1);
        assert_eq!(s.last_agent, Some(first_id), "agent kept its id across shards");
        assert_eq!(s.shard_of[&first_id], first_shard, "entity-key affinity: same shard");
        assert_eq!(s.connected, 4, "no spurious on_agent_connected");
        assert_eq!(s.admitted, 5, "the replayed subscription is admitted there");
    });
    let stats = w.ctrl_stats(0);
    assert_eq!((stats.reconnects, stats.agents, stats.subs), (1, 4, 4), "summed over shards");
}

// ---------------------------------------------------------------------------
// 5. A control that asks no acknowledgement: its answer comes home, then
//    it leaves nothing behind.
// ---------------------------------------------------------------------------

/// 1 000 no-ack controls, each answered by an indication under its request
/// id (the HW ping): every indication reaches the iApp, no outcome is
/// delivered — none was promised — and one control deadline after the last
/// the controller holds what it held before the first.
#[test]
fn a_control_without_ack_leaves_nothing_behind() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, false);
    w.start_agent(1, Some(BACKOFF), &[0]);
    let agent = seen(&app, |s| s.last_agent).unwrap();
    let held = |w: &Wire| (w.ctrls[0].shards[0].outstanding(), w.ctrl_stats(0).subs);
    let before = held(&w);

    for _ in 0..100 {
        w.tell_iapp(0, RobCmd::Ping(agent, 10));
        w.advance(1);
    }
    assert_eq!(seen(&app, |s| s.inds), 1_000, "every answer reached the iApp");
    w.advance(RETRY.control_deadline_ms);
    assert_eq!(held(&w), before, "(procedures outstanding, subscriptions) as before");
    assert_eq!(seen(&app, |s| s.ctrl_outcomes), 0, "no outcome, none was promised");
}

// ---------------------------------------------------------------------------
// 6. Undecodable frames are answered; eight in a row from one agent cost it
//    its link, and the grace window gives it back.
// ---------------------------------------------------------------------------

/// How many `ErrorIndication{TransferSyntaxError}` the controller's
/// ends (`by_ctrl`) or the agents' have sent.
fn syntax_errors(w: &Wire, by_ctrl: bool) -> usize {
    let answer = |m: &WireMsg| match CODEC.decode(&m.payload) {
        Ok(E2apPdu::ErrorIndication(e)) => {
            e.cause == Some(Cause::Protocol(ProtocolCause::TransferSyntaxError))
        }
        _ => false,
    };
    w.trace
        .iter()
        .filter(|(_, end, _)| matches!(end, End::C(..)) == by_ctrl)
        .filter(|(_, _, msg)| msg.as_ref().is_some_and(answer))
        .count()
}

#[test]
fn undecodable_frames_are_answered_and_eight_in_a_row_drop_the_agent() {
    for codec in [E2apCodec::Flatb, E2apCodec::Asn1Per] {
        assert!(codec.decode(GARBLED).is_err(), "{codec:?} must refuse the garbage");
    }
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    let agent_id = seen(&app, |s| s.last_agent).unwrap();
    w.advance(5); // subscribed: one indication up per millisecond

    // Seven garbled in a row, then a good frame: each is answered, and the
    // good one resets the count.
    w.faults[UP].extend([Fault::Garble; 7]);
    w.advance(8);
    assert_eq!(w.ctrl_stats(0).decode_errors, 7);
    assert_eq!(syntax_errors(&w, true), 7, "each garbled frame is answered");
    let inds = seen(&app, |s| s.inds);
    w.advance(5);
    assert_eq!(seen(&app, |s| s.inds), inds + 5, "the link stays and carries on");
    assert!(w.hung.is_empty());

    // Eight in a row: the controller hangs up after answering seven.
    w.faults[UP].extend([Fault::Garble; 8]);
    w.advance(8);
    assert_eq!(w.ctrl_stats(0).decode_errors, 15);
    assert_eq!(syntax_errors(&w, true), 14, "the eighth is answered by the hangup");
    assert!(w.end_of(a).is_none(), "the link is down");
    assert_eq!(w.ctrl_stats(0).agents, 1, "kept through the grace window");

    // The agent redials under its backoff and is rebound and resubscribed.
    w.advance(BACKOFF.initial_ms + 5);
    assert_eq!(w.dial_log.last().map(|d| d.2), Some(BACKOFF.initial_ms));
    seen(&app, |s| {
        assert_eq!((s.connected, s.reconnected, s.disconnected), (1, 1, 0));
        assert_eq!(s.admitted, 2, "the replayed subscription is admitted");
        assert_eq!(s.last_agent, Some(agent_id), "under its old id");
    });
    let stats = w.agents[a].stats();
    assert_eq!((stats.reconnects, stats.controllers, stats.active_subs), (1, 1, 1));

    // A garbled frame toward the agent is answered the same way; the link
    // stays.
    w.faults[DOWN].push_back(Fault::Garble);
    w.tell_iapp(0, RobCmd::Ping(agent_id, 1));
    assert_eq!(w.agents[a].stats().decode_errors, 1);
    assert_eq!(syntax_errors(&w, false), 1, "the agent answers it");
    let inds = seen(&app, |s| s.inds);
    w.advance(5);
    assert_eq!(seen(&app, |s| s.inds), inds + 5);
    assert_eq!(w.agents[a].stats().reconnects, 1, "no new link");
}

// ---------------------------------------------------------------------------
// 7. The relay: one hop more, the same outcomes.
// ---------------------------------------------------------------------------

/// What the controller's iApp saw of one script, run with the agent below
/// the controller or below a relay: the calls, the indications by request
/// id, and how many reconnects it was told of.
fn relay_script(relayed: bool) -> (Wire, Vec<Call>, HashMap<RicRequestId, u64>, u64) {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, false);
    let at = if relayed { bridge_addr(start_relay(&mut w, 0)) } else { addr(0) };
    let a = w.start_agent_at(1, Some(BACKOFF), &[at]);
    let agent = seen(&app, |s| s.last_agent).expect("the node reached the controller");

    w.tell_iapp(0, RobCmd::Subscribe(agent));
    w.advance(10);
    w.tell_iapp(0, RobCmd::Ack(agent));
    w.tell_iapp(0, RobCmd::Ping(agent, 1));
    w.advance(RETRY.control_deadline_ms + 1); // the ping ends at its deadline
    let sub = seen(&app, |s| *s.subs[&agent].iter().next().unwrap());
    w.tell_iapp(0, RobCmd::Unsubscribe(agent, sub));
    w.advance(5);
    // The agent's link drops and comes back within the grace window.
    w.cut(a, 0);
    w.advance(BACKOFF.initial_ms + 5);
    w.tell_iapp(0, RobCmd::Ack(agent));
    w.advance(RETRY.control_deadline_ms + 1);
    let (calls, inds_by, reconnected) =
        seen(&app, |s| (s.calls.clone(), s.inds_by.clone(), s.reconnected));
    (w, calls, inds_by, reconnected)
}

/// Subscribe, indications, an `Ack` control, a no-ack ping, delete, and a
/// cut the agent recovers from within grace: the controller's iApp sees the
/// same node, the same outcomes and the same indications under the same
/// request ids through the relay as without it — all but the cut, which
/// the relay's grace window keeps from the controller — and the relay ends
/// holding nothing.
#[test]
fn relayed_outcomes_equal_direct_outcomes() {
    let (_, calls, inds_by, reconnected) = relay_script(false);
    let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1);
    assert!(
        matches!(&calls[..], [Call::Connected(n), Call::Sub(_, "admitted"), Call::Ctrl(_, "ack"), Call::Ctrl(_, "ack")] if *n == node),
        "{calls:?}"
    );
    assert_eq!(inds_by.len(), 4, "the subscription, the two acked controls and the ping");
    assert!(inds_by.values().sum::<u64>() >= 12, "{inds_by:?}");
    assert_eq!(reconnected, 1, "without a relay the controller sees the cut");

    let (w, relayed_calls, relayed_inds_by, relayed_reconnected) = relay_script(true);
    assert_eq!(relayed_calls, calls, "node and outcomes, under the same request ids");
    assert_eq!(relayed_inds_by, inds_by, "indications, under the same request ids");
    assert_eq!(relayed_reconnected, 0, "the relay keeps the south cut to itself");
    let relay = &w.bridges[0];
    assert_eq!((relay.stats().subs, relay.outstanding()), (0, 0), "nothing forwarded is left");
    assert_eq!(relay.stats().reconnects, 1, "the relay rebound the agent");
}

/// Node 1 sets up, its link toward the controller drops, and node 2 sets
/// up while the redial waits out its backoff: on the relay the upstream
/// answers the two mirrors' dials in the other order than they were asked.
/// Returns the wire, what the controller's iApp saw when node 2 had set up
/// and at the end, and the nodes behind the controller's live links then.
fn crossed_dials(relayed: bool) -> (Wire, Seen, Seen, Vec<GlobalE2NodeId>) {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let at = if relayed { bridge_addr(start_relay(&mut w, 0)) } else { addr(0) };
    let a = w.start_agent_at(1, Some(BACKOFF), std::slice::from_ref(&at));
    w.advance(5);
    if relayed {
        w.cut_at(w.north_end_of(0), 0)
    } else {
        w.cut(a, 0)
    }
    w.advance(1);
    w.start_agent_at(2, Some(BACKOFF), &[at]);
    w.advance(2);
    let early = std::mem::take(&mut *app.lock().unwrap());
    w.advance(Backoff::default().initial_ms.max(BACKOFF.initial_ms) + 5);
    let late = std::mem::take(&mut *app.lock().unwrap());
    let live: Vec<String> = (w.links.keys())
        .filter_map(|e| match e {
            End::C(_, p) => Some(format!("wire:{p}")),
            _ => None,
        })
        .collect();
    let agents = w.ctrls[0].shards[0].agents().into_iter();
    let mut nodes: Vec<_> = agents.filter(|a| live.contains(&a.peer)).map(|a| a.node).collect();
    nodes.sort_by_key(|n| n.node_id);
    (w, early, late, nodes)
}

/// Each answer to a mirror's dial binds the mirror that dialled, although
/// the upstream answers them in another order than they were asked: node
/// 2's mirror is up while node 1's still waits, node 1's comes back on its
/// own redial, and the controller ends with the links, calls and
/// subscriptions of the same script run without the relay.
#[test]
fn each_dial_answer_binds_the_mirror_that_dialled() {
    let node = |id| GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, id);
    let (_, early, late, nodes) = crossed_dials(false);
    assert_eq!(nodes, [node(1), node(2)], "both nodes linked to the controller");
    let (w, relayed_early, relayed_late, relayed_nodes) = crossed_dials(true);
    assert_eq!(relayed_early.calls, early.calls, "node 2's mirror up before node 1's is back");
    assert_eq!(relayed_early.reconnected, 0, "node 1's mirror is not back yet");
    assert_eq!(relayed_late.reconnected, 1, "node 1's mirror is back, on its own redial");
    assert_eq!(relayed_late.calls, late.calls, "its replayed subscription admitted");
    assert_eq!(relayed_nodes, nodes, "the same links as without the relay");
    let mirrors = w.dial_log.iter().filter(|d| d.0 == Host::B(0));
    let tags: HashSet<usize> = mirrors.map(|d| d.1).collect();
    assert_eq!(tags.len(), 3, "every dial of the bridge's went out under a tag of its own");
}

/// A bridge's accept path decodes a setup request with the bridge's own
/// codec: a PER node below a PER relay sets up, and so does its mirror.
#[test]
fn a_per_relay_sets_up_its_per_node() {
    let mut w = Wire::default();
    let (mut cfg, seen) = (ctrl_cfg(0), Arc::new(Mutex::new(Seen::default())));
    cfg.codec = E2apCodec::Asn1Per;
    w.start_ctrl_of(0, &cfg, vec![vec![Box::new(RobApp { auto_subscribe: false, seen })]]);
    let mut south = bridge_cfg(&w, GRACE_MS);
    south.codec = E2apCodec::Asn1Per;
    let b = w.add_bridge(Bridge::relay(&south, addr(0)));
    let mut node = agent_cfg(1, None, &[bridge_addr(b)]);
    node.codec = E2apCodec::Asn1Per;
    w.start_agent_of(node, vec![Box::new(PingFn::new())]);
    assert_eq!(w.setup_done, [(0, 0, Ok(()))], "the node set up with the relay");
    assert_eq!(w.ctrl_stats(0).agents, 1, "its mirror set up with the controller");
}

/// The relay's upstream link drops: the mirror redials under its backoff,
/// the subscription made through the lost link is deleted at the south
/// agent meanwhile, and the controller, rebinding the mirror within its
/// grace window, subscribes again.
#[test]
fn a_relay_that_loses_its_upstream_redials_and_drops_what_it_forwarded() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let r = start_relay(&mut w, 0);
    let a = w.start_agent_at(1, Some(BACKOFF), &[bridge_addr(r)]);
    w.advance(5);
    assert_eq!(seen(&app, |s| s.admitted), 1);
    assert_eq!((w.agents[a].stats().active_subs, w.bridges[r].stats().subs), (1, 1));

    let north = w.north_end_of(r);
    w.cut_at(north, 0);
    w.advance(1);
    assert_eq!(w.agents[a].stats().active_subs, 0, "the lost link's subscription is deleted below");
    assert_eq!(w.bridges[r].stats().subs, 0);
    let redial = Backoff::default().initial_ms;
    let mirror = w.dial_log.iter().filter(|d| d.0 == Host::B(r));
    let dials: Vec<u64> = mirror.map(|d| d.2).collect();
    assert_eq!(dials, [0, redial], "the mirror redials under its backoff");

    w.advance(redial + 5);
    seen(&app, |s| {
        assert_eq!((s.connected, s.reconnected, s.disconnected), (1, 1, 0));
        assert_eq!(s.admitted, 2, "the controller's replay is admitted below");
    });
    assert_eq!(w.agents[a].stats().active_subs, 1, "the replayed subscription, and only it");
    let inds = seen(&app, |s| s.inds);
    w.advance(5);
    assert_eq!(seen(&app, |s| s.inds), inds + 5, "indications flow again");
}

// ---------------------------------------------------------------------------
// 8. The virtualizer: two tenants on one node, through one bridge.
// ---------------------------------------------------------------------------

/// What a tenant controller's iApp saw.
#[derive(Default)]
struct TenantSeen {
    /// The latest MAC statistics of the (virtual) node.
    mac: Option<MacStatsInd>,
    /// How each control ended: acknowledged or not.
    ctrls: Vec<bool>,
}

/// A tenant's controller: subscribes to the MAC statistics of the node it
/// sees, and sends that node the slice commands it is handed.
struct TenantApp(Arc<Mutex<TenantSeen>>);

impl TenantApp {
    fn send(&mut self, api: &mut ServerApi, cmd: SliceCtrl) {
        let node = api.randb().agents().next().expect("the virtual node").id;
        let (rf, msg) =
            (RanFunctionId::new(rf::SLICE_CTRL), Bytes::from(cmd.encode(SmCodec::Flatb)));
        api.control(node, rf, Bytes::new(), msg, Some(ControlAckRequest::Ack));
    }
}

impl IApp for TenantApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        api.subscribe_report(agent.id, RanFunctionId::new(rf::MAC_STATS), every_ms_1());
    }
    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, ind: &IndicationRef) {
        let (_, msg) = ind.sm_payload().unwrap();
        self.0.lock().unwrap().mac = Some(MacStatsInd::decode(SmCodec::Flatb, msg).unwrap());
    }
    fn on_control_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &CtrlOutcome) {
        self.0.lock().unwrap().ctrls.push(matches!(out, CtrlOutcome::Ack(_)));
    }
}

/// A south node's cell, as far as the virtualizer can tell: two UEs per
/// tenant, and the slice commands it was sent.
#[derive(Default)]
struct StubCell {
    cmds: Vec<SliceCtrl>,
}

impl StubCell {
    /// What the commands leave installed: shares by slice id, and the
    /// slice of each UE.
    fn installed(&self) -> (BTreeMap<u32, SliceParams>, BTreeMap<u16, u32>) {
        let (mut slices, mut assoc) = (BTreeMap::new(), BTreeMap::new());
        for cmd in &self.cmds {
            match cmd {
                SliceCtrl::AddModSlices { slices: s } => {
                    slices.extend(s.iter().map(|s| (s.id, s.params)))
                }
                SliceCtrl::AssocUeSlice { assoc: a } => assoc.extend(a.iter().copied()),
                _ => {}
            }
        }
        (slices, assoc)
    }
}

fn identity_of(oid: &str) -> RanFunctionItem {
    flexric_sm::registry::global().latest(oid).unwrap().advertisement(SmCodec::Flatb)
}

/// The stub cell's MAC statistics: its UEs, each in the slice the commands
/// left it in.
struct StubMac(RanFunctionItem, Arc<Mutex<StubCell>>);

impl RanFunction for StubMac {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SmCodec::Flatb)
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let (_, slice_of) = self.1.lock().unwrap().installed();
        let ue = |rnti, plmn_mcc| {
            let slice_id = slice_of.get(&rnti).copied().unwrap_or(u32::MAX);
            MacUeStats { rnti, plmn_mcc, plmn_mnc: 1, slice_id, ..Default::default() }
        };
        let ues = vec![ue(0x11, 1), ue(0x12, 1), ue(0x21, 2), ue(0x22, 2)];
        let msg = Bytes::from(
            MacStatsInd { tstamp_ms: ctx.now_ms, cell_prbs: 50, ues }.encode(SmCodec::Flatb),
        );
        for sub in due.iter() {
            ctx.send_indication(sub.info(), None, Bytes::new(), msg.clone());
        }
    }
}

/// The stub cell's slice control: keeps every command.
struct StubSlice(RanFunctionItem, Arc<Mutex<StubCell>>);

impl RanFunction for StubSlice {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SmCodec::Flatb)
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        _ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        self.1.lock().unwrap().cmds.push(SliceCtrl::decode(SmCodec::Flatb, &req.message).unwrap());
        Ok(None)
    }
}

trait Virt {
    /// Starts tenant controller `at`.
    fn start_tenant(&mut self, at: usize) -> Arc<Mutex<TenantSeen>>;
    /// Starts the virtualizer at `mem:b<index>` (south grace window
    /// `grace_ms`, statistics every millisecond) between tenant
    /// controllers 0 (PLMN 1/1) and 1 (PLMN 2/1), 50 % of the cell each.
    fn start_virt(&mut self, grace_ms: u64) -> usize;
    /// Starts E2 node `node_id` with a stub cell below bridge `b`.
    fn start_stub_node(&mut self, node_id: u64, b: usize) -> (usize, Arc<Mutex<StubCell>>);
    /// Tenant controller `c` sends its node `cmd`.
    fn tenant_sends(&mut self, c: usize, cmd: SliceCtrl);
}

impl Virt for Wire {
    fn start_tenant(&mut self, at: usize) -> Arc<Mutex<TenantSeen>> {
        let seen = Arc::new(Mutex::new(TenantSeen::default()));
        self.start_ctrl_of(at, &ctrl_cfg(at), vec![vec![Box::new(TenantApp(seen.clone()))]]);
        seen
    }

    fn start_virt(&mut self, grace_ms: u64) -> usize {
        let tenant = |c: usize| TenantConf {
            name: format!("t{c}"),
            plmn: (c as u16 + 1, 1),
            sla_milli: 500,
            ctrl_addr: addr(c),
        };
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Enb, 99);
        let cfg = bridge_cfg(self, grace_ms);
        let virt =
            VirtController::bridge(&cfg, node, vec![tenant(0), tenant(1)], SmCodec::Flatb, 1);
        self.add_bridge(virt.unwrap())
    }

    fn start_stub_node(&mut self, node_id: u64, b: usize) -> (usize, Arc<Mutex<StubCell>>) {
        let cell = Arc::new(Mutex::new(StubCell::default()));
        let functions: Vec<Box<dyn RanFunction>> = vec![
            Box::new(StubMac(identity_of(oid::MAC_STATS), cell.clone())),
            Box::new(StubSlice(identity_of(oid::SLICE_CTRL), cell.clone())),
        ];
        (self.start_agent_of(agent_cfg(node_id, None, &[bridge_addr(b)]), functions), cell)
    }

    fn tenant_sends(&mut self, c: usize, cmd: SliceCtrl) {
        self.call(c, 0, |app: &mut TenantApp, api| app.send(api, cmd));
    }
}

type Tenant = Arc<Mutex<TenantSeen>>;
type Cell = Arc<Mutex<StubCell>>;

/// Two tenant controllers, the virtualizer between them and one node with
/// a stub cell below it, 10 ms in.
fn virt_wire(grace_ms: u64) -> (Wire, [Tenant; 2], usize, Cell) {
    let mut w = Wire::default();
    let tenants = [w.start_tenant(0), w.start_tenant(1)];
    let v = w.start_virt(grace_ms);
    let (node, cell) = w.start_stub_node(1, v);
    w.advance(10);
    (w, tenants, node, cell)
}

fn nvs(id: u32, share_milli: u32) -> SliceConf {
    let params = SliceParams::NvsCapacity { share_milli };
    SliceConf { id, label: format!("s{id}"), params, ue_sched: UeSchedAlgo::PropFair }
}

fn cap(share_milli: u32) -> SliceParams {
    SliceParams::NvsCapacity { share_milli }
}

/// The node is set up with every tenant's default at its SLA share and
/// every UE in its tenant's default.  Tenant A's virtual sub-slice then
/// arrives south as A's physical batch: its id moved into A's range, its
/// share scaled by A's 50 %, A's default shrunk by what the sub-slice
/// takes.  An over-commit of A's virtual 100 %, and A's claim on B's UE,
/// are refused and send nothing south.
#[test]
fn virtual_slices_arrive_south_as_the_tenants_physical_batch() {
    let (mut w, [a, _], _, cell) = virt_wire(GRACE_MS);
    let (slices, assoc) = cell.lock().unwrap().installed();
    assert_eq!(slices, BTreeMap::from([(99, cap(500)), (199, cap(500))]));
    assert_eq!(assoc, BTreeMap::from([(0x11, 99), (0x12, 99), (0x21, 199), (0x22, 199)]));

    w.tenant_sends(0, SliceCtrl::AddModSlices { slices: vec![nvs(0, 660)] });
    let last = cell.lock().unwrap().cmds.last().cloned();
    let Some(SliceCtrl::AddModSlices { slices }) = last else { panic!("{last:?}") };
    let batch: Vec<(u32, SliceParams)> = slices.into_iter().map(|s| (s.id, s.params)).collect();
    assert_eq!(batch, [(phys_slice_id(0, 0), cap(330)), (phys_slice_id(0, 99), cap(170))]);

    let sent = cell.lock().unwrap().cmds.len();
    w.tenant_sends(0, SliceCtrl::AddModSlices { slices: vec![nvs(1, 500)] });
    w.tenant_sends(0, SliceCtrl::AssocUeSlice { assoc: vec![(0x21, 99)] });
    w.advance(2);
    assert_eq!(a.lock().unwrap().ctrls, [true, false, false], "the sub-slice only");
    assert_eq!(cell.lock().unwrap().cmds.len(), sent, "nothing refused went south");
}

/// Each tenant's MAC view holds its own PLMN's UEs only, under virtual
/// slice ids: A's UE on A's sub-slice as 0, the others in their tenant's
/// default as 99.
#[test]
fn each_tenant_sees_only_its_own_ues_under_virtual_slice_ids() {
    let (mut w, [a, b], _, _) = virt_wire(GRACE_MS);
    w.tenant_sends(0, SliceCtrl::AddModSlices { slices: vec![nvs(0, 660)] });
    w.tenant_sends(0, SliceCtrl::AssocUeSlice { assoc: vec![(0x11, 0)] });
    w.advance(5);
    let view = |t: &Arc<Mutex<TenantSeen>>| -> Vec<(u16, u32)> {
        let mac = t.lock().unwrap().mac.clone().expect("a MAC view");
        mac.ues.iter().map(|u| (u.rnti, u.slice_id)).collect()
    };
    assert_eq!(view(&a), [(0x11, 0), (0x12, 99)]);
    assert_eq!(view(&b), [(0x21, 99), (0x22, 99)]);
}

/// After a sub-slice and an association the south node goes, and after
/// the grace window another takes its place — one whose cell knows no
/// slice.  It is sent every tenant's whole batch and every tenant UE's
/// slice, A's UE on A's sub-slice included.
#[test]
fn a_replacement_south_node_is_sent_every_tenants_slices_and_ues() {
    let (mut w, _, first, _) = virt_wire(0);
    w.tenant_sends(0, SliceCtrl::AddModSlices { slices: vec![nvs(0, 660)] });
    w.tenant_sends(0, SliceCtrl::AssocUeSlice { assoc: vec![(0x11, 0)] });
    w.cut(first, 0);
    w.advance(2);
    assert_eq!(w.bridges[0].stats().agents, 0, "gone for good");

    let (_, cell) = w.start_stub_node(2, 0);
    w.advance(5);
    let (slices, assoc) = cell.lock().unwrap().installed();
    assert_eq!(slices, BTreeMap::from([(0, cap(330)), (99, cap(170)), (199, cap(500))]));
    assert_eq!(assoc, BTreeMap::from([(0x11, 0), (0x12, 99), (0x21, 199), (0x22, 199)]));
}

// ---------------------------------------------------------------------------
// The accept rule is the shard's, as under the driver: a setup request
// first, within the setup deadline, admitted on the shard the router picks.
// And an end that hung up hears nothing more.
// ---------------------------------------------------------------------------

/// Where controller 0 hung up, and when.
fn ctrl_hangups(w: &Wire) -> Vec<(u64, End)> {
    let hangup = |(t, end, what): &(u64, End, Option<WireMsg>)| {
        (what.is_none() && matches!(end, End::C(0, _))).then_some((*t, *end))
    };
    w.trace.iter().filter_map(hangup).collect()
}

/// A connection that says nothing — every setup request the agent sends is
/// lost on the way — is hung up on at the setup deadline, to the virtual
/// millisecond, and nothing is admitted.
#[test]
fn a_silent_connection_is_hung_up_at_the_setup_deadline() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, false);
    w.faults[UP].extend([Fault::Drop; 4]);
    let at = w.now;
    let a = w.start_agent(1, None, &[0]);
    let (_, far) = w.ends_of(a);
    w.advance(RETRY.setup_deadline_ms + 10);
    assert_eq!(ctrl_hangups(&w), [(at + RETRY.setup_deadline_ms, far)]);
    assert_eq!((w.ctrl_stats(0).agents, seen(&app, |s| s.connected)), (0, 0));
}

/// A connection whose first frame is not a setup request — one that does
/// not decode, or a PDU of another procedure — is hung up on at once, and
/// nothing is admitted.
#[test]
fn a_first_frame_that_is_not_a_setup_request_is_hung_up_on() {
    let reset = E2apPdu::ResetRequest(ResetRequest {
        transaction_id: 7,
        cause: Cause::Misc(MiscCause::OmIntervention),
    });
    let reset = WireMsg::e2ap(Bytes::from(CODEC.encode(&reset)));
    for first in [None, Some(reset)] {
        let mut w = Wire::default();
        let app = w.start_ctrl(0, 1, false);
        // The setup request is garbled, or lost behind the reset.
        w.faults[UP].push_back(if first.is_some() { Fault::Drop } else { Fault::Garble });
        let at = w.now;
        let a = w.start_agent(1, None, &[0]);
        if let Some(reset) = first.clone() {
            w.fly(w.now, w.ends_of(a).1, Some(reset));
            w.settle();
        }
        w.advance(5);
        let hangups = ctrl_hangups(&w);
        assert!(matches!(hangups[..], [(t, End::C(..))] if t == at), "{first:?}: {hangups:?}");
        assert_eq!((w.ctrl_stats(0).agents, seen(&app, |s| s.connected)), (0, 0));
    }
}

/// On a two-shard controller shard 0 accepts; an agent the router assigns
/// to shard 1 is handed there, admitted there, and what it sends next —
/// its subscription response, its indications — reaches shard 1.  The
/// twin of `e2e.rs`'s test of the same name over TCP.
#[test]
fn what_follows_the_setup_request_reaches_the_routed_shard() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 2, true);
    w.start_agent(61, None, &[0]);
    w.start_agent(62, None, &[0]);
    let placed = |w: &Wire| w.ctrls[0].shards.iter().map(|s| s.stats().agents).collect::<Vec<_>>();
    assert_eq!(placed(&w), [1, 1], "one agent on each shard");
    let agent = seen(&app, |s| s.last_agent).unwrap();
    assert_eq!(seen(&app, |s| s.shard_of[&agent]), 1, "the second went to shard 1");
    let on_1 = |w: &Wire| w.ctrls[0].shards[1].stats();
    let rx = on_1(&w).rx_msgs;
    w.advance(10);
    assert_eq!(on_1(&w).subs, 1, "its subscription was admitted on shard 1");
    assert!(on_1(&w).rx_msgs >= rx + 10, "its reports reach shard 1: {}", on_1(&w).rx_msgs);
}

/// A frame on its way toward an end that hung up is lost, not handed to
/// the machine: an indication delayed past the controller's hangup counts
/// in `ind_lost` and reaches neither the shard nor its iApp.
#[test]
fn a_frame_in_flight_toward_a_hung_up_end_is_lost() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let a = w.start_agent(1, None, &[0]);
    w.advance(5);
    let (agent, (_, far)) = (seen(&app, |s| s.last_agent).unwrap(), w.ends_of(a));
    w.faults[UP].push_back(Fault::Delay(5));
    w.advance(1);
    let before = (seen(&app, |s| s.inds), w.ctrl_stats(0).rx_msgs, w.ind_lost);
    w.shard(0, 0, Event::App(ShardIn::Disconnect(agent)));
    assert!(w.hung.contains(&far), "the controller hung up");
    w.advance(10);
    let after = (seen(&app, |s| s.inds), w.ctrl_stats(0).rx_msgs, w.ind_lost);
    assert_eq!(after, (before.0, before.1, before.2 + 1), "(inds, rx_msgs, ind_lost)");
}

/// A stopped controller is gone, as its loop is on the driver: it ticks no
/// more, and an indication still on its way there when it stopped counts in
/// `ind_lost` instead of reaching a shard.
#[test]
fn a_stopped_controller_hears_and_does_nothing_more() {
    let mut w = Wire::default();
    w.start_ctrl(0, 1, true);
    w.start_agent(1, None, &[0]);
    w.advance(5);
    w.faults[UP].push_back(Fault::Delay(5));
    w.advance(1);
    let (before, lost) = (w.ctrl_stats(0), w.ind_lost);
    w.stop_ctrl(0);
    w.advance(10);
    assert_eq!(w.ctrl_stats(0), before, "the stopped controller read or ticked");
    assert_eq!(w.ind_lost, lost + 1, "the indication in flight at the stop is lost");
}

// ---------------------------------------------------------------------------
// E2 Setup is a tracked procedure: deadline, retransmission, terminal
// outcome — and nothing waits for it but itself.  (EXPERIMENTS.md, "PR 15",
// shows from the code before it that each of these failed there.)
// ---------------------------------------------------------------------------

/// A controller that accepts the connection and never answers: the first
/// setup times out after its retransmissions, and that is the reply to
/// whoever added the controller.
#[test]
fn silent_controller_fails_the_first_setup_with_a_timeout() {
    let mut w = Wire::default();
    w.start_ctrl(0, 1, false);
    w.ctrls[0].silent = true;
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    let (near, _) = w.ends_of(a);

    w.advance(SETUP_TERMINAL_MS - 1);
    assert!(w.setup_done.is_empty(), "still retransmitting");
    assert_eq!(w.agents[a].outstanding(), 1, "setup is in the procedure table");
    w.advance(2);
    let [(agent, ctrl, Err(why))] = &w.setup_done[..] else { panic!("{:?}", w.setup_done) };
    assert_eq!((*agent, *ctrl), (a, 0));
    assert!(why.contains("timed out"), "add_controller's reply carries the error: {why}");
    let stats = w.agents[a].stats();
    assert_eq!((stats.retries, stats.timeouts, stats.controllers), (3, 1, 0));
    assert_eq!(w.agents[a].outstanding(), 0);
    assert!(w.hung.contains(&near), "the mute connection is hung up on");
    // A controller that was never up is not redialled.
    w.advance(500);
    assert_eq!(w.dial_log, [(Host::A(a), 0, 0)]);
}

/// The same controller met on a *re*dial: every timed-out setup hangs up
/// and dials again, further apart.
#[test]
fn silent_controller_after_a_loss_is_redialled_under_backoff() {
    let mut w = Wire::default();
    w.start_ctrl(0, 1, false);
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    assert_eq!(w.setup_done, [(a, 0, Ok(()))]);

    w.ctrls[0].silent = true;
    w.cut(a, 0);
    w.advance(10 + SETUP_TERMINAL_MS + 20 + SETUP_TERMINAL_MS + 40 + SETUP_TERMINAL_MS + 5);
    let delays: Vec<u64> = w.dial_log.iter().map(|d| d.2).collect();
    assert_eq!(delays, [0, 10, 20, 40, 80], "each timed-out setup redials, further apart");
    let stats = w.agents[a].stats();
    assert_eq!((stats.timeouts, stats.reconnects, stats.controllers), (3, 0, 0));
    assert_eq!(w.setup_done.len(), 1, "a controller that had been up is not reported again");

    // When the controller answers again the link comes back by itself.
    w.ctrls[0].silent = false;
    w.advance(80 + 5);
    let stats = w.agents[a].stats();
    assert_eq!((stats.reconnects, stats.controllers), (1, 1));
}

/// While controller 1's setup is outstanding, ticks and indications toward
/// controller 0 keep flowing.
#[test]
fn setup_toward_a_second_controller_does_not_stall_the_first() {
    let mut w = Wire::default();
    let app0 = w.start_ctrl(0, 1, true);
    w.start_ctrl(1, 1, false);
    w.ctrls[1].silent = true;
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    w.advance(10);

    w.agent(a, Event::App(AgentIn::AddController(addr(1))));
    w.settle();
    let inds = seen(&app0, |s| s.inds);
    w.advance(100);
    assert_eq!(w.agents[a].outstanding(), 1, "controller 1's setup is still outstanding");
    assert_eq!(seen(&app0, |s| s.inds), inds + 100, "one report per tick toward controller 0");
    assert_eq!(w.agents[a].stats().controllers, 1);

    w.advance(SETUP_TERMINAL_MS);
    assert!(matches!(&w.setup_done[..], [(_, 0, Ok(())), (_, 1, Err(_))]), "{:?}", w.setup_done);
    assert_eq!(w.agents[a].stats().controllers, 1, "controller 0 untouched");
}

/// A lost E2 Setup Response: the agent retransmits the request and the
/// controller answers again without taking the agent for a new one.
#[test]
fn lost_setup_response_is_answered_again() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    w.faults[DOWN].push_back(Fault::Drop);
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    w.advance(RETRY.setup_deadline_ms - 1);
    assert!(w.setup_done.is_empty());
    w.advance(2);
    assert_eq!(w.setup_done, [(a, 0, Ok(()))]);
    assert_eq!(w.agents[a].stats().retries, 1);
    assert_eq!(seen(&app, |s| (s.connected, s.reconnected)), (1, 0));
    let stats = w.ctrl_stats(0);
    assert_eq!((stats.agents, stats.reconnects), (1, 0));
    w.advance(SUB_TERMINAL_MS);
    assert_eq!(w.agents[a].stats().active_subs, 1, "the subscription survived the lost response");
}

/// A `Frame` or `Closed` from a connection that has been replaced is
/// ignored — by `Agent::ctrl_of` and `Shard::agent_of`, the one place in
/// each machine that maps a peer to what it is bound to.
#[test]
fn stale_frames_and_closes_from_a_replaced_connection_are_ignored() {
    let mut w = Wire::default();
    let app = w.start_ctrl(0, 1, true);
    let a = w.start_agent(1, Some(BACKOFF), &[0]);
    w.advance(5);
    let (End::A(_, old_near), End::C(_, old_far)) = w.ends_of(a) else { unreachable!() };
    w.cut(a, 0);
    w.advance(20);
    assert_eq!(w.agents[a].stats().reconnects, 1, "on a new connection now");

    let sub = CODEC.encode(&E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
        req_id: seen(&app, |s| s.subs.values().next().unwrap().iter().next().copied().unwrap()),
        ran_function: RanFunctionId::new(7),
    }));
    let (agent_before, ctrl_before) = (w.agents[a].stats(), w.ctrl_stats(0));
    let (flights, hung) = (w.flights.len(), w.hung.len());
    w.agent(a, Event::Frame(old_near, Bytes::from(sub.clone())));
    w.agent(a, Event::Closed(old_near));
    w.shard(0, 0, Event::Frame(old_far, Bytes::from(sub)));
    w.shard(0, 0, Event::Closed(old_far));
    assert_eq!(w.agents[a].stats(), agent_before, "not received, not dispatched, link untouched");
    assert_eq!(w.ctrl_stats(0), ctrl_before);
    assert_eq!((w.flights.len(), w.hung.len()), (flights, hung), "and nothing was asked for");

    // In particular the stale close started no grace window.
    w.advance(GRACE_MS + 10);
    assert_eq!(seen(&app, |s| s.disconnected), 0);
    assert_eq!(w.agents[a].stats().active_subs, 1);
}

/// Equal scripts give equal runs, action for action — although every hash
/// map inside the machines iterates in a different order each time.
#[test]
fn equal_scripts_give_equal_action_sequences() {
    let run = || {
        let mut w = Wire::default();
        w.start_ctrl(0, 2, true);
        for node in 0..4 {
            w.start_agent(200 + node, Some(BACKOFF), &[0]);
        }
        // Three subscriptions per agent, so that replays, retransmissions
        // and connection-lost terminals come several at a time.
        for agent in 0..4 {
            w.tell_iapp(0, RobCmd::Subscribe(agent));
            w.tell_iapp(0, RobCmd::Subscribe(agent));
        }
        w.advance(5);
        w.faults[DOWN].extend([Fault::Pass, Fault::Drop, Fault::Drop, Fault::Hold]);
        for agent in 0..4 {
            w.cut(agent, 15 * agent as u64);
        }
        w.advance(150);
        assert_eq!(w.ctrl_stats(0).subs, 12);
        (w.trace, w.dial_log)
    };
    let (first, second) = (run(), run());
    assert!(first.0.len() > 1_000);
    assert!(first == second, "the same script must replay to the same actions");
}

// ---------------------------------------------------------------------------
// The sweep: generated fault schedules, invariants after every step.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Advance(u64),
    /// Applies to the next frame in direction `.0` (at most three per
    /// schedule take effect: a fourth could exhaust a retry budget, and a
    /// terminal timeout legitimately shrinks the subscription set).
    Fault(usize, Fault),
    /// The network drops agent `.0`'s connection; the controller hears of
    /// it `.1` ms later — possibly after the agent is back.
    Cut(usize, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..12).prop_map(Op::Advance),
        (1u64..12).prop_map(Op::Advance),
        (0usize..2, 0usize..3, 1u64..30).prop_map(|(dir, kind, ms)| {
            Op::Fault(dir, [Fault::Drop, Fault::Delay(ms), Fault::Hold][kind])
        }),
        (0usize..SWEEP_AGENTS, 0u64..25).prop_map(|(agent, lag)| Op::Cut(agent, lag)),
    ]
}

const SWEEP_AGENTS: usize = 3;

fn check_invariants(w: &Wire, app: &Arc<Mutex<Seen>>) {
    // 1. Indications sent = received + explicitly dropped (+ in flight).
    let bulk = |m: &WireMsg| u64::from(m.stream == WireMsg::STREAM_BULK);
    let in_flight: u64 = w.flights.iter().filter_map(|f| f.3.as_ref()).map(bulk).sum::<u64>()
        + w.held.iter().flatten().map(|h| bulk(&h.1)).sum::<u64>();
    let stats = w.ctrl_stats(0);
    let accounted = seen(app, |s| s.inds) + stats.unrouted_indications + w.ind_lost + in_flight;
    assert_eq!(w.ind_sent, accounted, "indication ledger at t={}", w.now);
    // 2. No procedure outstanding past its terminal deadline: setups
    //    begin when an agent connects, subscriptions (first or
    //    replayed) when the controller accepts one.
    for (i, agent) in w.agents.iter().enumerate() {
        let age = w.now - w.connected_at[&i];
        assert!(agent.outstanding() == 0 || age <= SETUP_TERMINAL_MS + 1, "agent {i}: {age} ms");
    }
    let outstanding: usize = w.ctrls[0].shards.iter().map(Shard::outstanding).sum();
    let age = w.now - w.accepted_at[&0];
    assert!(outstanding == 0 || age <= SUB_TERMINAL_MS + 1, "controller: {age} ms");
    // 4. (No Send after Hangup, one Hangup per peer: asserted in `send`
    //    and `hangup` as they happen.)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn fault_schedules_keep_the_invariants(ops in prop::collection::vec(op(), 8..32)) {
        let mut w = Wire::default();
        let app = w.start_ctrl(0, 2, true);
        for node in 0..SWEEP_AGENTS {
            w.start_agent(100 + node as u64, Some(BACKOFF), &[0]);
        }
        w.advance(3);
        let before = seen(&app, |s| s.subs.clone());
        prop_assert_eq!(before.len(), SWEEP_AGENTS);

        let mut faults = 0;
        for op in ops {
            match op {
                Op::Advance(ms) => w.advance(ms),
                Op::Fault(dir, fault) if faults < 3 => {
                    faults += 1;
                    w.faults[dir].push_back(fault);
                }
                Op::Fault(..) => {}
                Op::Cut(agent, lag) => {
                    w.cut(agent, lag);
                    w.settle();
                }
            }
            check_invariants(&w, &app);
        }

        // Quiet wire: release what the script still holds and wait out the
        // longest anything can still be waiting for — a redial, then one
        // retransmission.
        for dir in [UP, DOWN] {
            w.faults[dir].clear();
            if let Some((to, msg)) = w.held[dir].take() {
                w.fly(w.now, to, Some(msg));
            }
        }
        w.advance(BACKOFF.max_ms + RETRY.max_deadline_ms + 20);
        check_invariants(&w, &app);
        // 3. The subscription set after the reconnects is the set before:
        //    same agents, same request ids, live on both sides.
        let (after, bad) = seen(&app, |s| (s.subs.clone(), (s.timed_out, s.failed, s.disconnected)));
        prop_assert_eq!(after, before);
        prop_assert_eq!(bad, (0, 0, 0));
        let stats = w.ctrl_stats(0);
        prop_assert_eq!((stats.agents, stats.subs), (SWEEP_AGENTS as u64, SWEEP_AGENTS as u64));
        for agent in &w.agents {
            let stats = agent.stats();
            prop_assert_eq!((stats.controllers, stats.active_subs), (1, 1));
            prop_assert_eq!(agent.outstanding(), 0);
        }
        let outstanding: usize = w.ctrls[0].shards.iter().map(Shard::outstanding).sum();
        prop_assert_eq!(outstanding, 0);
    }
}
