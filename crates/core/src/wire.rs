//! The SDK's second driver: agents, K-shard controllers and bridges as
//! what they are — state machines ([`crate::machine`]) — on one thread and
//! one virtual clock, where `driver.rs` runs each on threads and sockets.
//!
//! [`Wire`] carries out every machine's `Send`, `Hangup`, `Dial` and
//! `Handoff` in one place (`Wire::carry`): a `Send` reaches the far end as
//! `Frame`, a `Hangup` as `Closed` (and as silence at the near end: what is
//! still on its way there is lost), a `Dial` is connected once its wait is
//! over ([`Wire::settle`]), the listener told `Accepted` — a controller on
//! its shard 0 — and the dialler `Dialled` under its tag, and a `Handoff`
//! moves the connection to the sibling shard it names, which is told
//! `Accepted` and the first frame.  Time moves a millisecond
//! ([`Wire::advance`]) or a stride ([`Wire::stride`]) at a time, one tick
//! per running machine per step.  No rule of E2 lives here.
//! A script
//! can drop, delay, hold back (reorder) or garble the next frames in either
//! direction ([`Wire::faults`]), cut connections, stop and restart agents
//! and controllers, and reach an iApp as the northbound does
//! ([`Wire::call`]).  No runtime, no socket, no waiting: every run is a
//! function of its script.  The Wire has no simulator hook: a scenario
//! steps its RAN itself, then [`Wire::advance`]s.  Controller `i` listens
//! at [`addr`]`(i)`, bridge `b` at [`bridge_addr`]`(b)`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use flexric_transport::{TransportAddr, WireMsg};

use crate::agent::{Agent, AgentConfig, AgentIn, AgentOut, CtrlId, RanFunction};
use crate::machine::{Action, DialTag, Event, Machine, PeerId};
use crate::relay::Bridge;
use crate::server::{
    IApp, ServerApi, ServerConfig, ServerEvent, ServerStats, Shard, ShardIn, ShardRouter,
};

/// One end of a connection: the agent, controller or bridge it belongs
/// to, and the id that side knows the connection by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum End {
    A(usize, PeerId),
    C(usize, PeerId),
    B(usize, PeerId),
}

/// A machine on the wire: agent, controller or bridge `.0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Host {
    A(usize),
    C(usize),
    B(usize),
}

impl Host {
    /// Its end of the connection it knows as `peer`.
    fn end(self, peer: PeerId) -> End {
        match self {
            Host::A(i) => End::A(i, peer),
            Host::C(c) => End::C(c, peer),
            Host::B(b) => End::B(b, peer),
        }
    }
}

/// What the script does to the next frame crossing in one direction.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    Pass,
    Drop,
    /// Delivered this many ms late.
    Delay(u64),
    /// Held back until the next frame in the same direction has gone.
    Hold,
    /// Its payload replaced by [`GARBLED`], which no decoder accepts.
    Garble,
}

/// What a garbled frame carries: neither E2AP codec decodes it.
pub const GARBLED: &[u8] = &[0xFF; 8];

/// Directions, the indices into [`Wire::faults`]: toward the controllers
/// (agent → controller, agent → bridge, bridge → controller) and back.
pub const UP: usize = 0;
pub const DOWN: usize = 1;

/// A controller on the wire: its shards and where its connections are.
pub struct Ctrl {
    pub shards: Vec<Shard>,
    /// A controller that is not listening has stopped: it refuses dials.
    listening: bool,
    /// Accepts and reads, never answers: its shards are told nothing of
    /// the connections it accepts.
    pub silent: bool,
    /// The shard each accepted connection is on: shard 0, until a handoff.
    shard_of: HashMap<PeerId, usize>,
}

/// The machines, the connections between them and what is in flight.
#[derive(Default)]
pub struct Wire {
    /// Virtual milliseconds since the start.
    pub now: u64,
    pub agents: Vec<Agent>,
    /// What each agent slot was started with, for [`Wire::restart_agent`].
    agent_cfgs: Vec<AgentConfig>,
    pub ctrls: Vec<Ctrl>,
    pub bridges: Vec<Bridge>,
    /// Live connections, both ways round.
    pub links: HashMap<End, End>,
    /// In flight: (due, order, to, a frame or the close).
    pub flights: Vec<(u64, u64, End, Option<WireMsg>)>,
    /// Dials waiting to connect: (due, who, its tag, address).
    dials: Vec<(u64, Host, DialTag, TransportAddr)>,
    /// What happens to the next frames, per direction, and the frame
    /// [`Fault::Hold`] holds back.
    pub faults: [VecDeque<Fault>; 2],
    pub held: [Option<(End, WireMsg)>; 2],
    order: u64,
    /// Ends whose machine has hung up.
    pub hung: HashSet<End>,
    /// When each agent last connected / each controller last admitted an
    /// agent.
    pub connected_at: HashMap<usize, u64>,
    pub accepted_at: HashMap<usize, u64>,
    // What the machines asked for beside frames, for a script to read.
    /// Every dial: (who, its tag, backoff).
    pub dial_log: Vec<(Host, DialTag, u64)>,
    pub setup_done: Vec<(usize, CtrlId, Result<(), String>)>,
    pub published: Vec<ServerEvent>,
    /// Indications agents sent, and those lost to the script, to a closed
    /// link or to an end that no longer listens.
    pub ind_sent: u64,
    pub ind_lost: u64,
    /// Every send (with its frame) and hangup (without), in order.
    pub trace: Vec<(u64, End, Option<WireMsg>)>,
}

impl Wire {
    /// Hands agent `i` `event` and carries out what it asks for.
    pub fn agent(&mut self, i: usize, event: Event<AgentIn>) {
        let mut out = Vec::new();
        self.agents[i].handle(event, self.now, &mut out);
        self.carry(Host::A(i), out, |w, AgentOut::SetupDone { ctrl, result }| {
            w.setup_done.push((i, ctrl, result))
        });
    }

    /// Hands shard `k` of controller `c` `event` and carries out what it
    /// asks for.
    pub fn shard(&mut self, c: usize, k: usize, event: Event<ShardIn>) {
        let mut out = Vec::new();
        self.ctrls[c].shards[k].handle(event, self.now, &mut out);
        self.carry(Host::C(c), out, |w, event| w.publish(c, event));
    }

    /// Runs `f` with the `A` of controller `c`'s shard `k`, as the
    /// northbound's `call` does, delivers what it sent and returns what
    /// `f` returned.  Panics if that shard runs no `A`.
    pub fn call<A: IApp, R>(
        &mut self,
        c: usize,
        k: usize,
        f: impl FnOnce(&mut A, &mut ServerApi) -> R,
    ) -> R {
        let mut out = Vec::new();
        let r = self.ctrls[c].shards[k].call(self.now, &mut out, f).expect("the shard runs an A");
        self.carry(Host::C(c), out, |w, event| w.publish(c, event));
        self.settle();
        r
    }

    /// Carries out what machine `at` asked for, in order: sends, hangups,
    /// dials and handoffs here; its output goes to `own`.
    fn carry<Y>(&mut self, at: Host, out: Vec<Action<Y>>, mut own: impl FnMut(&mut Self, Y)) {
        for action in out {
            match action {
                Action::Send(p, msg) => {
                    let end = at.end(p);
                    // Toward the controllers: an agent's, and a bridge's north.
                    let up = matches!(at, Host::A(_))
                        || matches!(self.links.get(&end), Some(End::C(..)));
                    self.send(if up { UP } else { DOWN }, end, msg)
                }
                Action::Hangup(p) => self.hangup(at.end(p)),
                Action::Dial { tag, addr, after_ms } => {
                    self.dial_log.push((at, tag, after_ms));
                    self.dials.push((self.now + after_ms, at, tag, addr));
                }
                // Only a controller hosts siblings: its shards.
                Action::Handoff { peer, to, desc, first } => {
                    let Host::C(c) = at else { panic!("{at:?} has no sibling to hand off to") };
                    self.ctrls[c].shard_of.insert(peer, to);
                    self.shard(c, to, Event::Accepted(peer, desc));
                    self.shard(c, to, Event::Frame(peer, first));
                }
                Action::App(output) => own(self, output),
            }
        }
    }

    /// Keeps what a shard of controller `c` published.
    fn publish(&mut self, c: usize, event: ServerEvent) {
        if matches!(event, ServerEvent::AgentConnected(_) | ServerEvent::AgentReconnected(_)) {
            self.accepted_at.insert(c, self.now);
        }
        self.published.push(event)
    }

    /// Hands bridge `b` `event` and carries out what it asks for.  What its
    /// own north agent asks for beside that is not logged.
    pub fn bridge(&mut self, b: usize, event: Event<AgentIn>) {
        let mut out = Vec::new();
        self.bridges[b].handle(event, self.now, &mut out);
        self.carry(Host::B(b), out, |_, _| {});
    }

    fn lose(&mut self, msg: &WireMsg) {
        self.ind_lost += u64::from(msg.stream == WireMsg::STREAM_BULK);
    }

    /// Puts a frame (or, `None`, the close) on its way to `to`, due at `due`.
    pub fn fly(&mut self, due: u64, to: End, what: Option<WireMsg>) {
        self.order += 1;
        self.flights.push((due, self.order, to, what));
    }

    fn send(&mut self, dir: usize, from: End, msg: WireMsg) {
        assert!(!self.hung.contains(&from), "Send to {from:?} after its Hangup");
        self.trace.push((self.now, from, Some(msg.clone())));
        self.ind_sent += u64::from(dir == UP && msg.stream == WireMsg::STREAM_BULK);
        let Some(&to) = self.links.get(&from) else { return self.lose(&msg) };
        match self.faults[dir].pop_front().unwrap_or(Fault::Pass) {
            Fault::Drop => self.lose(&msg),
            Fault::Hold if self.held[dir].is_none() => self.held[dir] = Some((to, msg)),
            fault => {
                let (delay, msg) = match fault {
                    Fault::Delay(ms) => (ms, msg),
                    Fault::Garble => (0, WireMsg { payload: Bytes::from_static(GARBLED), ..msg }),
                    _ => (0, msg),
                };
                self.fly(self.now + delay, to, Some(msg));
                if let Some((to, msg)) = self.held[dir].take() {
                    self.fly(self.now, to, Some(msg));
                }
            }
        }
    }

    /// `end` hears its connection close, no sooner than `at` and after
    /// every frame already on its way there.
    fn close(&mut self, end: End, at: u64) {
        let last = self.flights.iter().filter(|f| f.2 == end).map(|f| f.0).max();
        self.fly(at.max(last.unwrap_or(0)), end, None);
    }

    /// Takes the connection `end` belongs to off the wire; returns its far end.
    fn unlink(&mut self, end: End) -> Option<End> {
        let far = self.links.remove(&end)?;
        self.links.remove(&far);
        Some(far)
    }

    fn hangup(&mut self, end: End) {
        assert!(self.hung.insert(end), "{end:?} hung up on twice");
        self.trace.push((self.now, end, None));
        if let Some(far) = self.unlink(end) {
            self.close(far, self.now);
        }
    }

    /// Agent `i`'s end of its (one) live connection.
    pub fn end_of(&self, i: usize) -> Option<End> {
        self.links.keys().copied().find(|e| matches!(e, End::A(a, _) if *a == i))
    }

    /// Both ends of agent `i`'s connection.
    pub fn ends_of(&self, i: usize) -> (End, End) {
        let near = self.end_of(i).expect("agent is connected");
        (near, self.links[&near])
    }

    /// Bridge `b`'s end of its connection to a controller.
    pub fn north_end_of(&self, b: usize) -> End {
        let north = |(near, far): (&End, &End)| {
            matches!((near, far), (End::B(x, _), End::C(..)) if *x == b).then_some(*near)
        };
        self.links.iter().find_map(north).expect("bridge is connected upstream")
    }

    /// The network drops agent `i`'s connection; the controller's side
    /// hears of it `far_lag_ms` later.
    pub fn cut(&mut self, i: usize, far_lag_ms: u64) {
        if let Some(near) = self.end_of(i) {
            self.cut_at(near, far_lag_ms);
        }
    }

    /// The network drops the connection `near` belongs to; the far side
    /// hears of it `far_lag_ms` later.
    pub fn cut_at(&mut self, near: End, far_lag_ms: u64) {
        if let Some(far) = self.unlink(near) {
            self.close(near, self.now);
            self.close(far, self.now + far_lag_ms);
        }
    }

    /// Hands `to` what reached it.  A machine hears nothing more of an end
    /// it hung up on, and a silent or stopped controller hears nothing: a
    /// frame for either is lost.
    fn deliver(&mut self, to: End, what: Option<WireMsg>) {
        let shard = match to {
            End::C(c, p) if self.ctrls[c].listening && !self.ctrls[c].silent => {
                self.ctrls[c].shard_of.get(&p).copied()
            }
            _ => None,
        };
        match (to, shard) {
            _ if self.hung.contains(&to) => {}
            (End::A(i, p), _) => return self.agent(i, frame_or_closed(p, what)),
            (End::B(b, p), _) => return self.bridge(b, frame_or_closed(p, what)),
            (End::C(c, p), Some(k)) => return self.shard(c, k, frame_or_closed(p, what)),
            (End::C(..), None) => {}
        }
        if let Some(msg) = &what {
            self.lose(msg);
        }
    }

    /// Carries out the dial `tag` of `from`: a controller at `mem:<c>` or a
    /// bridge at `mem:b<b>` is told `Accepted` (a controller on its shard
    /// 0), then `from` is told `Dialled`.
    fn connect(&mut self, from: Host, tag: DialTag, addr: &TransportAddr) {
        let TransportAddr::Mem(name) = addr else { panic!("the wire dials mem:<index>") };
        let to = match name.strip_prefix('b') {
            Some(b) => Host::B(b.parse().expect("bridge index")),
            None => Host::C(name.parse().expect("controller index")),
        };
        let refused = matches!(to, Host::C(c) if !self.ctrls.get(c).is_some_and(|c| c.listening));
        let result = if refused {
            Err("connection refused".to_owned())
        } else {
            self.order += 2;
            let (peer, p) = (self.order - 1, self.order);
            self.links.insert(from.end(peer), to.end(p));
            self.links.insert(to.end(p), from.end(peer));
            // The listener's side is told first, as a driver's listener tells it.
            match to {
                Host::C(c) if !self.ctrls[c].silent => {
                    self.ctrls[c].shard_of.insert(p, 0);
                    self.shard(c, 0, Event::Accepted(p, format!("wire:{p}")));
                }
                Host::B(b) => self.bridge(b, Event::Accepted(p, format!("wire:{p}"))),
                _ => {}
            }
            Ok(peer)
        };
        match from {
            Host::A(i) => {
                if result.is_ok() {
                    self.connected_at.insert(i, self.now);
                }
                self.agent(i, Event::Dialled(tag, result))
            }
            Host::B(b) => self.bridge(b, Event::Dialled(tag, result)),
            Host::C(_) => unreachable!("a controller dials nowhere"),
        }
    }

    /// Delivers what is due, in order, and connects the dials that are due.
    pub fn settle(&mut self) {
        loop {
            let due = self.flights.iter().enumerate().filter(|(_, f)| f.0 <= self.now);
            if let Some(at) = due.min_by_key(|(_, f)| (f.0, f.1)).map(|(at, _)| at) {
                let (_, _, to, what) = self.flights.remove(at);
                self.deliver(to, what);
            } else if let Some(at) = self.dials.iter().position(|d| d.0 <= self.now) {
                let (_, from, tag, addr) = self.dials.remove(at);
                self.connect(from, tag, &addr);
            } else {
                return;
            }
        }
    }

    /// Moves the clock `ms` forward in one step: what is due by then is
    /// delivered, then every running machine ticks once.
    pub fn stride(&mut self, ms: u64) {
        self.now += ms;
        self.settle();
        (0..self.agents.len()).for_each(|i| self.agent(i, Event::Tick));
        (0..self.bridges.len()).for_each(|b| self.bridge(b, Event::Tick));
        for c in 0..self.ctrls.len() {
            let shards = if self.ctrls[c].listening { self.ctrls[c].shards.len() } else { 0 };
            (0..shards).for_each(|k| self.shard(c, k, Event::Tick));
        }
        self.settle();
    }

    /// Moves the clock `ms` forward, a millisecond and a tick at a time.
    pub fn advance(&mut self, ms: u64) {
        (0..ms).for_each(|_| self.stride(1));
    }

    /// Starts (or restarts, at `at`) a controller with `cfg`, of one shard
    /// per entry of `apps`, which holds that shard's iApps.
    pub fn start_ctrl_of(&mut self, at: usize, cfg: &ServerConfig, apps: Vec<Vec<Box<dyn IApp>>>) {
        let router = Arc::new(ShardRouter::new(apps.len()));
        let shards: Vec<Shard> = (apps.into_iter().enumerate())
            .map(|(k, apps)| Shard::new(k, cfg, apps, router.clone()))
            .collect();
        let ctrl = Ctrl { shards, listening: true, silent: false, shard_of: HashMap::new() };
        if at == self.ctrls.len() {
            self.ctrls.push(ctrl);
        } else {
            self.ctrls[at] = ctrl;
        }
        (0..self.ctrls[at].shards.len())
            .for_each(|k| self.shard(at, k, Event::App(ShardIn::Start)));
    }

    /// Stops controller `c`: it refuses dials, its connections close, and
    /// until [`Wire::start_ctrl_of`] replaces it, it ticks no more and what
    /// still reaches it is lost.
    pub fn stop_ctrl(&mut self, c: usize) {
        self.ctrls[c].listening = false;
        let ends: Vec<End> =
            self.links.keys().copied().filter(|e| matches!(e, End::C(x, _) if *x == c)).collect();
        for end in ends {
            if let Some(far) = self.unlink(end) {
                self.close(far, self.now);
            }
        }
    }

    /// The counters of controller `c`, summed over its shards.
    pub fn ctrl_stats(&self, c: usize) -> ServerStats {
        let mut sum = ServerStats::default();
        self.ctrls[c].shards.iter().for_each(|s| sum += s.stats());
        sum
    }

    /// Adds an agent with `cfg` and RAN functions `fns`; it adds
    /// `cfg.controllers`.  Returns its index.
    pub fn start_agent_of(&mut self, cfg: AgentConfig, fns: Vec<Box<dyn RanFunction>>) -> usize {
        self.agents.push(Agent::new(cfg.clone(), Vec::new()));
        self.agent_cfgs.push(cfg);
        self.restart_agent(self.agents.len() - 1, fns);
        self.agents.len() - 1
    }

    /// Stops agent `i`, as its process dies: it hangs up every link it
    /// holds and dials no more.  Until [`Wire::restart_agent`] its slot
    /// holds an agent with no controller and no function.
    pub fn stop_agent(&mut self, i: usize) {
        while let Some(end) = self.end_of(i) {
            self.hangup(end);
        }
        self.dials.retain(|d| d.1 != Host::A(i));
        self.agents[i] = Agent::new(self.agent_cfgs[i].clone(), Vec::new());
    }

    /// Starts a fresh agent with `functions` in stopped slot `i`, for the
    /// same E2 node: it adds the controllers of its config.
    pub fn restart_agent(&mut self, i: usize, functions: Vec<Box<dyn RanFunction>>) {
        let cfg = self.agent_cfgs[i].clone();
        self.agents[i] = Agent::new(cfg.clone(), functions);
        for a in cfg.controllers {
            self.agent(i, Event::App(AgentIn::AddController(a)));
        }
        self.settle();
    }

    /// Adds `bridge` at `mem:b<index>`; its own north agent, if it has
    /// one, adds the controllers its config lists, as
    /// [`Bridge::spawn`] has it do.  Returns its index.
    pub fn add_bridge(&mut self, bridge: Bridge) -> usize {
        let north = bridge.own().map(|a| a.controllers().to_vec()).unwrap_or_default();
        self.bridges.push(bridge);
        let b = self.bridges.len() - 1;
        for addr in north {
            self.bridge(b, Event::App(AgentIn::AddController(addr)));
        }
        self.settle();
        b
    }
}

fn frame_or_closed<X>(peer: PeerId, what: Option<WireMsg>) -> Event<X> {
    match what {
        Some(msg) => Event::Frame(peer, msg.payload),
        None => Event::Closed(peer),
    }
}

/// Where controller `ctrl` listens: `mem:<ctrl>`.
pub fn addr(ctrl: usize) -> TransportAddr {
    TransportAddr::Mem(ctrl.to_string())
}

/// Where bridge `bridge`'s south side listens: `mem:b<bridge>`.
pub fn bridge_addr(bridge: usize) -> TransportAddr {
    TransportAddr::Mem(format!("b{bridge}"))
}
