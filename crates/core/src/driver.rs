//! The driver: the one file of this crate that names the async runtime.
//!
//! [`Agent`] and [`Shard`] are state machines ([`crate::machine`]): they
//! decide everything and touch nothing.  This file does the touching, once,
//! for both.  One [`Loop`] per machine owns
//!
//! * the machine's input queue (events from its connections' reader
//!   tasks, ticks, and work sent by the public handle);
//! * the connections: per [`PeerId`], a batching writer task and a reader
//!   task.  Peer ids are allotted here, one per connection, never reused —
//!   a reader tags what it reads with its id and the *machine* ignores ids
//!   it no longer binds, so there is no epoch filter here to keep in step;
//! * the clock: `now_ms` only moves on a tick — the interval timer's in
//!   real time, [`AgentHandle::tick`] / [`ServerHandle::tick`]'s in virtual
//!   time — and every event is handed over with it;
//! * the machine's own actions ([`Drive::act`]): dialling for the agent,
//!   cross-shard handover and event publication for a shard.
//!
//! The driver decides nothing about the protocol: not whether to redial or
//! when, not which connection is current, not what to answer.  It may only
//! fail — a dial that errors, a read that ends — and says so in an event.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use tokio::sync::{broadcast, mpsc, oneshot};
use tokio::task::JoinHandle;

use flexric_e2ap::E2apPdu;
use flexric_transport::fault::{FaultHandle, FaultySender};
use flexric_transport::{connect, listen, SendHalf, Transport, TransportAddr, WireMsg};

use crate::agent::{Agent, AgentConfig, AgentIn, AgentOut, AgentStats, CtrlId, RanFunction};
use crate::machine::{Action, Event, Machine, PeerId};
use crate::server::{
    AgentInfo, IApp, Server, ServerConfig, ServerEvent, ServerStats, Shard, ShardIn, ShardOut,
    ShardRouter,
};

// ---------------------------------------------------------------------------
// The writer task
// ---------------------------------------------------------------------------
//
// The writer queues `WireMsg`s (not bare frames), so the stream id — stream
// 0 for global/control procedures, nonzero for bulk indications — survives
// to the wire, and a drained batch is re-ordered so control frames overtake
// queued bulk traffic: a subscription or control procedure is never stuck
// behind thousands of coalesced indications.  The reorder is a stable
// partition, so per-stream ordering (the SCTP guarantee E2AP relies on) is
// preserved within each class.

/// A send half, optionally wrapped in a shared fault injector.
enum WireSender {
    Plain(SendHalf),
    Faulty(FaultySender),
}

impl WireSender {
    fn new(half: SendHalf, fault: Option<FaultHandle>) -> Self {
        match fault {
            Some(h) => WireSender::Faulty(FaultySender::with_handle(half, h)),
            None => WireSender::Plain(half),
        }
    }

    async fn send_batch(&mut self, batch: Vec<WireMsg>) -> io::Result<()> {
        match self {
            WireSender::Plain(s) => s.send_batch(batch).await,
            WireSender::Faulty(s) => s.send_batch(batch).await,
        }
    }
}

/// Control frames that jumped ahead of queued bulk frames in a writer
/// batch — visibility into the priority mechanism under load.
fn promotions() -> &'static flexric_obs::Counter {
    static C: std::sync::OnceLock<flexric_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        flexric_obs::counter(
            "flexric_conn_control_promotions_total",
            "control frames reordered ahead of queued bulk frames",
        )
    })
}

/// Moves control-stream frames ahead of bulk frames, preserving relative
/// order within each class.  Returns how many control frames actually
/// overtook at least one bulk frame.
fn prioritize(batch: &mut [WireMsg]) -> u64 {
    let mut bulk_seen = 0u64;
    let mut promoted = 0u64;
    for m in batch.iter() {
        if m.is_control() {
            if bulk_seen > 0 {
                promoted += 1;
            }
        } else {
            bulk_seen += 1;
        }
    }
    if promoted > 0 {
        batch.sort_by_key(|m| !m.is_control());
    }
    promoted
}

/// Spawns the writer task for one connection: messages queued on the
/// returned channel are coalesced (up to 64 per flush), control frames are
/// promoted ahead of bulk, and the batch goes out as one vectored write.
/// The task ends when the channel closes — having written what was queued,
/// which is what a hangup relies on — or the transport errors.
fn spawn_writer(half: SendHalf, fault: Option<FaultHandle>) -> mpsc::UnboundedSender<WireMsg> {
    let (out_tx, mut out_rx) = mpsc::unbounded_channel::<WireMsg>();
    tokio::spawn(async move {
        let mut sender = WireSender::new(half, fault);
        let mut batch = Vec::with_capacity(8);
        while let Some(msg) = out_rx.recv().await {
            batch.push(msg);
            // Coalesce everything already queued into one flush.
            while batch.len() < 64 {
                match out_rx.try_recv() {
                    Ok(msg) => batch.push(msg),
                    Err(_) => break,
                }
            }
            let promoted = prioritize(&mut batch);
            if promoted > 0 {
                promotions().add(promoted);
            }
            if sender.send_batch(std::mem::take(&mut batch)).await.is_err() {
                break;
            }
        }
    });
    out_tx
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// A machine this file can run: [`Machine::handle`] plus how its own
/// actions are carried out.
trait Drive: Machine<In: Send + 'static> + Send + Sized + 'static {
    /// Driver-side state those actions need.
    type Port: Send + 'static;

    /// Carries out one [`Action::App`].
    fn act(lp: &mut Loop<Self>, action: Self::Out);
}

/// What arrives on a loop's queue.
enum In<M: Drive> {
    Event(Event<M::In>),
    /// The clock reads this many milliseconds.
    Tick(u64),
    /// Work that needs the loop itself: binding a fresh connection,
    /// answering a query.
    With(Box<dyn FnOnce(&mut Loop<M>) + Send>),
    Stop,
}

type Tx<M> = mpsc::UnboundedSender<In<M>>;

struct Conn {
    writer: mpsc::UnboundedSender<WireMsg>,
    reader: JoinHandle<()>,
}

/// One machine, its connections and its clock.
struct Loop<M: Drive> {
    machine: M,
    port: M::Port,
    /// This loop's own queue, for the tasks it spawns.
    tx: Tx<M>,
    conns: HashMap<PeerId, Conn>,
    last_peer: PeerId,
    fault: Option<FaultHandle>,
    now_ms: u64,
    actions: Vec<Action<M::Out>>,
}

async fn next_tick(ticker: &mut Option<tokio::time::Interval>) {
    match ticker {
        Some(iv) => {
            iv.tick().await;
        }
        None => std::future::pending().await,
    }
}

impl<M: Drive> Loop<M> {
    fn new(machine: M, port: M::Port, tx: Tx<M>, fault: Option<FaultHandle>) -> Self {
        Loop {
            machine,
            port,
            tx,
            conns: HashMap::new(),
            last_peer: 0,
            fault,
            now_ms: 0,
            actions: Vec::new(),
        }
    }

    /// Takes over a connected transport: allots its [`PeerId`], spawns its
    /// writer, and spawns the reader that turns what arrives into
    /// `Frame` / `Closed` events for this loop.
    fn attach(&mut self, transport: Transport) -> PeerId {
        self.last_peer += 1;
        let peer = self.last_peer;
        let (send_half, mut recv_half) = transport.split();
        let writer = spawn_writer(send_half, self.fault.clone());
        let tx = self.tx.clone();
        let reader = tokio::spawn(async move {
            loop {
                match recv_half.recv().await {
                    Ok(Some(msg)) => {
                        if tx.send(In::Event(Event::Frame(peer, msg.payload))).is_err() {
                            break;
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = tx.send(In::Event(Event::Closed(peer)));
                        break;
                    }
                }
            }
        });
        self.conns.insert(peer, Conn { writer, reader });
        peer
    }

    /// Hands one event to the machine and carries out what it answers.
    fn feed(&mut self, event: Event<M::In>) {
        let mut actions = std::mem::take(&mut self.actions);
        self.machine.handle(event, self.now_ms, &mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Send(peer, msg) => {
                    if let Some(conn) = self.conns.get(&peer) {
                        let _ = conn.writer.send(msg);
                    }
                }
                // Dropping the writer's queue lets the writer task finish
                // what is queued and close; the reader has nothing more to
                // say that the machine would listen to.
                Action::Hangup(peer) => {
                    if let Some(conn) = self.conns.remove(&peer) {
                        conn.reader.abort();
                    }
                }
                Action::App(action) => M::act(self, action),
            }
        }
        self.actions = actions;
    }

    async fn run(mut self, mut rx: mpsc::UnboundedReceiver<In<M>>, tick_ms: Option<u64>) {
        let mut ticker = tick_ms.map(|ms| {
            let mut iv = tokio::time::interval(Duration::from_millis(ms.max(1)));
            iv.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Skip);
            iv
        });
        loop {
            let input = tokio::select! {
                biased;
                input = rx.recv() => match input {
                    Some(input) => input,
                    None => break,
                },
                _ = next_tick(&mut ticker) => In::Tick(crate::mono_ms()),
            };
            match input {
                In::Event(event) => self.feed(event),
                In::Tick(now_ms) => {
                    self.now_ms = now_ms;
                    self.feed(Event::Tick);
                }
                In::With(f) => f(&mut self),
                In::Stop => break,
            }
        }
        // Dropping `rx` tells the accept tasks to free the listen
        // addresses; dropping the connections closes them.
        for (_, conn) in self.conns.drain() {
            conn.reader.abort();
        }
    }
}

fn stopped() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "event loop stopped")
}

/// Asks the loop behind `tx` to run `f` and send back what it returns.
fn ask<M: Drive, R: Send + 'static>(
    tx: &Tx<M>,
    f: impl FnOnce(&mut Loop<M>) -> R + Send + 'static,
) -> io::Result<oneshot::Receiver<R>> {
    let (reply, rx) = oneshot::channel();
    let work = move |lp: &mut Loop<M>| {
        let _ = reply.send(f(lp));
    };
    tx.send(In::With(Box::new(work))).map_err(|_| stopped())?;
    Ok(rx)
}

// ---------------------------------------------------------------------------
// The agent behind a handle
// ---------------------------------------------------------------------------

impl Drive for Agent {
    /// Callers of [`AgentHandle::add_controller`] waiting for the first
    /// setup of the controller they added.
    type Port = HashMap<CtrlId, oneshot::Sender<io::Result<CtrlId>>>;

    fn act(lp: &mut Loop<Self>, action: AgentOut) {
        match action {
            AgentOut::Dial { ctrl, addr, after_ms } => {
                let tx = lp.tx.clone();
                tokio::spawn(async move {
                    tokio::time::sleep(Duration::from_millis(after_ms)).await;
                    let _ = match connect(&addr).await {
                        Ok(transport) => tx.send(In::With(Box::new(move |lp| {
                            let peer = lp.attach(transport);
                            lp.feed(Event::App(AgentIn::Connected { ctrl, peer }));
                        }))),
                        Err(e) => {
                            let error = e.to_string();
                            tx.send(In::Event(Event::App(AgentIn::DialFailed { ctrl, error })))
                        }
                    };
                });
            }
            AgentOut::SetupDone { ctrl, result } => {
                if let Some(reply) = lp.port.remove(&ctrl) {
                    let _ = reply.send(result.map(|()| ctrl).map_err(io::Error::other));
                }
            }
        }
    }
}

impl Agent {
    /// Spawns the agent's event loop, connects to all configured
    /// controllers and performs E2 Setup with each, in order.  The first
    /// controller that cannot be reached or rejects the setup fails the
    /// spawn.
    pub async fn spawn(
        cfg: AgentConfig,
        functions: Vec<Box<dyn RanFunction>>,
    ) -> io::Result<AgentHandle> {
        let (tx, rx) = mpsc::unbounded_channel();
        let (tick_ms, fault, controllers) =
            (cfg.tick_ms, cfg.fault.clone(), cfg.controllers.clone());
        let lp = Loop::new(Agent::new(cfg, functions), HashMap::new(), tx.clone(), fault);
        tokio::spawn(lp.run(rx, tick_ms));
        let handle = AgentHandle { tx };
        for addr in controllers {
            if let Err(e) = handle.add_controller(addr).await {
                handle.stop();
                return Err(e);
            }
        }
        Ok(handle)
    }
}

/// Handle to a running agent.
#[derive(Debug, Clone)]
pub struct AgentHandle {
    tx: Tx<Agent>,
}

impl AgentHandle {
    /// Advances agent time (virtual-time mode, or extra ticks).
    pub fn tick(&self, now_ms: u64) {
        let _ = self.tx.send(In::Tick(now_ms));
    }

    /// Exposes `rnti` to an additional controller.
    pub fn associate_ue(&self, rnti: u16, ctrl: CtrlId) {
        let _ = self.tx.send(In::Event(Event::App(AgentIn::AssociateUe(rnti, ctrl))));
    }

    /// Stops exposing `rnti` to a controller.
    pub fn disassociate_ue(&self, rnti: u16, ctrl: CtrlId) {
        let _ = self.tx.send(In::Event(Event::App(AgentIn::DisassociateUe(rnti, ctrl))));
    }

    /// Connects to an additional controller and performs E2 Setup with it,
    /// returning its [`CtrlId`] — or why it could not be set up: the dial
    /// error, the controller's failure cause, or the setup timeout.
    /// Neither this call nor a slow controller holds up the agent's other
    /// controllers meanwhile.
    pub async fn add_controller(&self, addr: TransportAddr) -> io::Result<CtrlId> {
        let (reply, rx) = oneshot::channel();
        let work = move |lp: &mut Loop<Agent>| {
            // `ctrl_count` is the id the machine gives the next controller.
            lp.port.insert(lp.machine.ctrl_count(), reply);
            lp.feed(Event::App(AgentIn::AddController(addr)));
        };
        self.tx.send(In::With(Box::new(work))).map_err(|_| stopped())?;
        rx.await.map_err(|_| stopped())?
    }

    /// Snapshot of the agent's counters.
    pub async fn stats(&self) -> io::Result<AgentStats> {
        ask(&self.tx, |lp| lp.machine.stats())?.await.map_err(|_| stopped())
    }

    /// Stops the agent.
    pub fn stop(&self) {
        let _ = self.tx.send(In::Stop);
    }
}

// ---------------------------------------------------------------------------
// The controller behind a handle
// ---------------------------------------------------------------------------

/// What a shard's loop needs to reach beyond itself.
struct ShardPort {
    /// Every shard's queue, indexed by shard.
    shards: Vec<Tx<Shard>>,
    events: broadcast::Sender<ServerEvent>,
}

impl Drive for Shard {
    type Port = ShardPort;

    fn act(lp: &mut Loop<Self>, action: ShardOut) {
        match action {
            ShardOut::Forward { shard, agent, msg } => {
                let event = Event::App(ShardIn::Forwarded(agent, msg));
                let _ = lp.port.shards[shard].send(In::Event(event));
            }
            ShardOut::Publish(event) => {
                let _ = lp.port.events.send(event);
            }
        }
    }
}

/// Handle to a running controller.
///
/// On a sharded controller the handle is the aggregation point: `tick` and
/// `stop` reach every shard, `agents`/`stats` gather and merge per-shard
/// snapshots, and `events` taps the single broadcast channel all shards
/// publish into.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shards: Vec<Tx<Shard>>,
    events_tx: broadcast::Sender<ServerEvent>,
    /// Addresses the controller is listening on (ephemeral ports resolved).
    pub addrs: Vec<TransportAddr>,
}

impl ServerHandle {
    /// Number of shard event loops behind this handle.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Advances controller time on every shard (virtual-time mode, or
    /// extra ticks).
    pub fn tick(&self, now_ms: u64) {
        for s in &self.shards {
            let _ = s.send(In::Tick(now_ms));
        }
    }

    /// Sends a message to a named iApp (northbound ingress).
    ///
    /// The message is delivered on shard 0 (`Box<dyn Any>` is not
    /// cloneable, so it cannot be fanned out); on a sharded controller the
    /// shard-0 iApp instance is the northbound entry point and forwards
    /// shard-spanning requests through
    /// [`crate::server::ServerApi::send_pdu_multi`], which routes across
    /// shards.
    pub fn to_iapp(&self, name: &str, msg: Box<dyn Any + Send>) {
        let event = Event::App(ShardIn::ToIApp(name.to_owned(), msg));
        let _ = self.shards[0].send(In::Event(event));
    }

    /// Subscribes to server events (published by all shards).
    pub fn events(&self) -> broadcast::Receiver<ServerEvent> {
        self.events_tx.subscribe()
    }

    /// Asks every shard at once, then gathers the answers in shard order.
    async fn gather<R: Send + 'static>(
        &self,
        f: impl Fn(&Shard) -> R + Clone + Send + 'static,
    ) -> io::Result<Vec<R>> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            let f = f.clone();
            pending.push(ask(s, move |lp| f(&lp.machine))?);
        }
        let mut parts = Vec::with_capacity(pending.len());
        for rx in pending {
            parts.push(rx.await.map_err(|_| stopped())?);
        }
        Ok(parts)
    }

    /// Snapshot of connected agents, merged over all shards.
    pub async fn agents(&self) -> io::Result<Vec<AgentInfo>> {
        let mut all: Vec<AgentInfo> =
            self.gather(Shard::agents).await?.into_iter().flatten().collect();
        all.sort_by_key(|a| a.id);
        Ok(all)
    }

    /// Snapshot of the controller's counters, summed over all shards.
    pub async fn stats(&self) -> io::Result<ServerStats> {
        let mut sum = ServerStats::default();
        for part in self.gather(Shard::stats).await? {
            sum += part;
        }
        Ok(sum)
    }

    /// Stops the controller.  The listeners shut down with the shard-0
    /// event loop, so the addresses can be re-bound by a restarted
    /// controller.
    pub fn stop(&self) {
        for s in &self.shards {
            let _ = s.send(In::Stop);
        }
    }
}

impl Server {
    /// Binds the listeners and spawns the controller event loop with the
    /// given iApps.
    ///
    /// This entry point runs a single shard: one set of iApp instances,
    /// one event loop — the classic layout.  A config asking for more than
    /// one shard is rejected here, because one `Vec` of iApps cannot serve
    /// N independent loops; use [`Server::spawn_sharded`] with a factory.
    pub async fn spawn(cfg: ServerConfig, iapps: Vec<Box<dyn IApp>>) -> io::Result<ServerHandle> {
        if cfg.resolved_shards() > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ServerConfig.shards > 1 needs per-shard iApp instances; use Server::spawn_sharded",
            ));
        }
        let mut iapps = Some(iapps);
        Self::spawn_sharded(cfg, move |_| iapps.take().unwrap_or_default()).await
    }

    /// Binds the listeners and spawns one shard event loop per
    /// [`ServerConfig::resolved_shards`], calling `iapps(shard)` once per
    /// shard for that shard's iApp instances.
    ///
    /// Connections are assigned to shards at accept time by RAN-entity key
    /// (sticky least-loaded), so agents of one base station — and an agent
    /// reconnecting within the grace window — always land on the same
    /// shard.  Per-shard instances that need a combined view share state
    /// via `Arc` internally (see `MonitorApp::replica`).
    pub async fn spawn_sharded(
        cfg: ServerConfig,
        mut iapps: impl FnMut(usize) -> Vec<Box<dyn IApp>>,
    ) -> io::Result<ServerHandle> {
        let shards = cfg.resolved_shards().max(1);
        let (events_tx, _) = broadcast::channel(1024);
        let (txs, rxs): (Vec<Tx<Shard>>, Vec<_>) =
            (0..shards).map(|_| mpsc::unbounded_channel()).unzip();
        let router = Arc::new(ShardRouter::new(shards));

        let mut bound = Vec::new();
        let mut listeners = Vec::new();
        for addr in &cfg.listen {
            let l = listen(addr).await?;
            bound.push(l.local_addr()?);
            listeners.push(l);
        }
        // Accept tasks: read the setup request off the event loops, then
        // hand the transport plus the parsed request to the shard the
        // router assigns the entity to.  They end — freeing the listen
        // addresses — when the shard-0 loop does.
        for mut l in listeners {
            let (router, txs, codec) = (router.clone(), txs.clone(), cfg.codec);
            tokio::spawn(async move {
                loop {
                    let mut transport = tokio::select! {
                        _ = txs[0].closed() => break,
                        accepted = l.accept() => match accepted {
                            Ok(transport) => transport,
                            Err(_) => break,
                        },
                    };
                    let (router, txs) = (router.clone(), txs.clone());
                    tokio::spawn(async move {
                        let Ok(Some(first)) = transport.recv().await else { return };
                        // Anything but a setup request first is a protocol
                        // violation: the connection is dropped.
                        let Ok(E2apPdu::E2SetupRequest(req)) = codec.decode(&first.payload) else {
                            return;
                        };
                        let shard = router.assign(req.global_node.ran_entity_key());
                        let _ = txs[shard].send(In::With(Box::new(move |lp| {
                            let desc = transport.peer();
                            let peer = lp.attach(transport);
                            lp.feed(Event::App(ShardIn::NewAgent { req, peer, desc }));
                        })));
                    });
                }
            });
        }

        for (idx, rx) in rxs.into_iter().enumerate() {
            let machine = Shard::new(idx, &cfg, iapps(idx), router.clone());
            let port = ShardPort { shards: txs.clone(), events: events_tx.clone() };
            let mut lp = Loop::new(machine, port, txs[idx].clone(), cfg.fault.clone());
            lp.feed(Event::App(ShardIn::Start));
            tokio::spawn(lp.run(rx, cfg.tick_ms));
        }
        Ok(ServerHandle { shards: txs, events_tx, addrs: bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(stream: u16, tag: u8) -> WireMsg {
        WireMsg::e2ap_on(stream, Bytes::from(vec![tag]))
    }

    #[test]
    fn control_overtakes_bulk_but_order_within_class_holds() {
        let mut batch = vec![msg(1, 0), msg(1, 1), msg(0, 2), msg(1, 3), msg(0, 4), msg(1, 5)];
        let promoted = prioritize(&mut batch);
        assert_eq!(promoted, 2, "both control frames had bulk queued ahead");
        let streams: Vec<u16> = batch.iter().map(|m| m.stream).collect();
        assert_eq!(streams, [0, 0, 1, 1, 1, 1]);
        let tags: Vec<u8> = batch.iter().map(|m| m.payload[0]).collect();
        assert_eq!(tags, [2, 4, 0, 1, 3, 5], "stable within each class");
    }

    #[test]
    fn all_control_or_all_bulk_is_untouched() {
        let mut ctl = vec![msg(0, 0), msg(0, 1)];
        assert_eq!(prioritize(&mut ctl), 0);
        assert_eq!(ctl.iter().map(|m| m.payload[0]).collect::<Vec<_>>(), [0, 1]);

        let mut bulk = vec![msg(1, 0), msg(2, 1), msg(1, 2)];
        assert_eq!(prioritize(&mut bulk), 0);
        assert_eq!(bulk.iter().map(|m| m.payload[0]).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn control_already_first_needs_no_promotion() {
        let mut batch = vec![msg(0, 0), msg(1, 1), msg(1, 2)];
        assert_eq!(prioritize(&mut batch), 0);
        assert_eq!(batch.iter().map(|m| m.payload[0]).collect::<Vec<_>>(), [0, 1, 2]);
    }
}
