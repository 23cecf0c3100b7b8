//! The driver: the one file of this crate that names threads, sockets and
//! the wall clock.
//!
//! [`Agent`], [`Shard`] and [`Bridge`] are state machines
//! ([`crate::machine`]): they decide everything and touch nothing.  This
//! file does the touching, once, for all three — and, through
//! [`spawn_machine`], for any machine that asks for nothing but sends,
//! hangups and dials (outside this crate: FlexRAN's controller and agent,
//! the pub/sub broker).  One [`Loop`] per machine runs on a thread of its own,
//! blocks in one place — an `epoll` wait ([`flexric_transport::poll`])
//! until the next tick — and owns
//!
//! * the machine's input queue (a `std::sync::mpsc` channel plus the
//!   poller's waker: ticks and work sent by the public handle, readiness of
//!   its mem connections, connects that finished, connections another loop
//!   handed over);
//! * its connections, read one way: per [`PeerId`] a non-blocking TCP
//!   socket the poller reports ready, or a mem connection its arrival
//!   callback reports ready ([`MemRecvHalf::on_arrival`]); either is read
//!   frame by frame, each frame handled before the next is read, until the
//!   read would block.  A TCP connection is written in batches, a mem send
//!   cannot block.  Peer ids are allotted here, one per connection, never
//!   reused; once the machine hangs up on a peer it hears nothing more of
//!   it;
//! * the connection lifecycle, the same for every machine: what its
//!   listeners accept is attached and told as `Accepted`
//!   ([`Loop::accepted`]); an `Action::Dial` connects once the clock has
//!   moved its wait on and is answered as `Dialled` under the machine's
//!   tag ([`Loop::step`], [`Loop::tick`]);
//! * the clock: `now_ms` only moves on a tick — the wait running out in
//!   real time, [`AgentHandle::tick`] / [`ServerHandle::tick`]'s in virtual
//!   time — and every event is handed over with it;
//! * the machine's own actions ([`Drive::act`]): the first setup's outcome
//!   for whoever added a controller to an agent or a bridge; event
//!   publication and handoffs for a shard — a handoff moves a connection,
//!   with what was read of it, to the loop of the shard that admits it,
//!   which reads on at once.
//!
//! The only other thread is a dial's: std has no non-blocking `connect`,
//! so the connect alone runs on a short-lived thread of its own.
//!
//! The driver decides nothing about the protocol and knows no E2AP: not
//! whether to redial or when, not which connection is current, not what a
//! connection must send first or by when, not what to answer.  It may only
//! fail — a dial that errors, a read that ends — and says so in an event.
//! DESIGN.md ("The machine/driver split") lists the queues and the order
//! things shut down in.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::io;
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, SendError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use flexric_transport::mem::{MemRecvHalf, MemSendHalf};
use flexric_transport::poll::{self, Poller, Waker};
use flexric_transport::tcp::TcpConn;
use flexric_transport::{connect, listen, Listener, Transport, TransportAddr, WireMsg};

use crate::agent::{Agent, AgentConfig, AgentIn, AgentOut, AgentStats, CtrlId, RanFunction};
use crate::machine::{Action, DialTag, Event, Machine, PeerId};
use crate::relay::Bridge;
use crate::server::{
    AgentInfo, IApp, Server, ServerApi, ServerConfig, ServerEvent, ServerStats, Shard, ShardIn,
    ShardOut, ShardRouter,
};

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------
//
// A TCP connection queues `WireMsg`s (not bare frames), so the stream id —
// stream 0 for global/control procedures, nonzero for bulk indications —
// survives to the wire, and a batch taken off the queue is re-ordered so
// control frames overtake queued bulk traffic: a subscription or control
// procedure is never stuck behind thousands of coalesced indications.  The
// reorder is a stable partition, so per-stream ordering (the SCTP
// guarantee E2AP relies on) is preserved within each class.

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

/// A TCP connection and what is to be written to it.
struct Outbox {
    conn: TcpConn,
    /// Sent by the machine, not yet in a batch.
    queue: VecDeque<WireMsg>,
    /// The batch being written, `written` bytes of it out.  While there is
    /// one the socket is watched for writability: it took less than it
    /// was given.
    batch: Vec<WireMsg>,
    written: usize,
    /// Hung up: closed once the queue is written.
    hung_up: bool,
}

impl Outbox {
    /// Writes until the queue is empty (`true`) or the socket would block:
    /// up to 64 frames at a time, control promoted over bulk, as one
    /// vectored write.
    fn flush(&mut self) -> io::Result<bool> {
        loop {
            if self.batch.is_empty() {
                let n = self.queue.len().min(64);
                if n == 0 {
                    return Ok(true);
                }
                self.batch.extend(self.queue.drain(..n));
                let promoted = prioritize(&mut self.batch);
                if promoted > 0 {
                    promotions().add(promoted);
                }
            }
            if !self.conn.write(&self.batch, &mut self.written)? {
                return Ok(false);
            }
            self.batch.clear();
            self.written = 0;
        }
    }
}

/// One connection.  Dropping it closes it.
enum Conn {
    /// The loop reads and writes the socket.
    Tcp(Box<Outbox>),
    /// Read as a socket is; a send cannot block.  Dropping the receive half
    /// fails the peer's sends.
    Mem(MemSendHalf, MemRecvHalf),
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// A machine this file can run: [`Machine::handle`] plus how its own
/// actions are carried out.
trait Drive: Machine<In: Send + 'static, Out: Send + 'static> + Send + Sized + 'static {
    /// Driver-side state those actions need.
    type Port: Send + 'static;

    /// Carries out one [`Action::App`].
    fn act(lp: &mut Loop<Self>, action: Self::Out);
}

/// Work for the loop thread itself.
type Work<M> = Box<dyn FnOnce(&mut Loop<M>) + Send>;

/// What arrives on a loop's queue.
enum In<M: Drive> {
    Event(Event<M::In>),
    /// The clock reads this many milliseconds.
    Tick(u64),
    /// Work that needs the loop itself: binding a fresh connection,
    /// answering a query.
    With(Work<M>),
    Stop,
}

/// A loop's queue, and the waker that interrupts the loop's wait.
struct Tx<M: Drive> {
    queue: mpsc::Sender<In<M>>,
    waker: Arc<Waker>,
}

impl<M: Drive> Clone for Tx<M> {
    fn clone(&self) -> Self {
        Tx { queue: self.queue.clone(), waker: self.waker.clone() }
    }
}

impl<M: Drive> Tx<M> {
    fn send(&self, input: In<M>) -> Result<(), SendError<In<M>>> {
        self.queue.send(input)?;
        self.waker.wake();
        Ok(())
    }
}

/// Most inputs a loop takes off its queue between two looks at its
/// sockets and its clock.
const INPUTS_PER_ROUND: usize = 256;

/// Stack of a dial's thread: it only connects.
const DIAL_STACK: usize = 128 * 1024;

/// One machine, its sockets and its clock.
struct Loop<M: Drive> {
    machine: M,
    port: M::Port,
    /// This loop's own queue, for what its sockets and threads hand in.
    tx: Tx<M>,
    poller: Poller,
    conns: HashMap<PeerId, Conn>,
    /// TCP connections sent to since their last write.
    unwritten: Vec<PeerId>,
    listeners: Vec<(u64, Listener)>,
    /// Dials that wait for the clock to read their first number.
    dials: Vec<(u64, DialTag, TransportAddr)>,
    /// The last peer id or token given out.
    last_token: u64,
    now_ms: u64,
    actions: Vec<Action<M::Out>>,
}

impl<M: Drive> Loop<M> {
    fn new(machine: M, port: M::Port) -> io::Result<(Self, mpsc::Receiver<In<M>>)> {
        let poller = Poller::new()?;
        let (queue, rx) = mpsc::channel();
        let tx = Tx { queue, waker: poller.waker() };
        let lp = Loop {
            machine,
            port,
            tx,
            poller,
            conns: HashMap::new(),
            unwritten: Vec::new(),
            listeners: Vec::new(),
            dials: Vec::new(),
            last_token: 0,
            now_ms: 0,
            actions: Vec::new(),
        };
        Ok((lp, rx))
    }

    /// A fresh peer id, also the poller token of what it names.
    fn token(&mut self) -> u64 {
        self.last_token += 1;
        self.last_token
    }

    /// Takes over a connected transport ([`Loop::adopt`]).
    fn attach(&mut self, transport: Transport) -> io::Result<PeerId> {
        self.adopt(match transport {
            Transport::Tcp(conn) => {
                let (queue, batch, written, hung_up) = (VecDeque::new(), Vec::new(), 0, false);
                Conn::Tcp(Box::new(Outbox { conn, queue, batch, written, hung_up }))
            }
            Transport::Mem(conn) => {
                let (send, recv) = conn.split();
                Conn::Mem(send, recv)
            }
        })
    }

    /// Takes over a connection: allots its [`PeerId`] and has it read on
    /// readiness, what arrives handed to the machine as `Frame` / `Closed`.
    fn adopt(&mut self, mut conn: Conn) -> io::Result<PeerId> {
        let peer = self.token();
        match &mut conn {
            Conn::Tcp(out) => {
                out.conn.socket().set_nonblocking(true)?;
                self.poller.add(out.conn.socket().as_raw_fd(), peer, poll::READ)?;
            }
            Conn::Mem(_, recv) => {
                let tx = self.tx.clone();
                recv.on_arrival(Box::new(move || {
                    let _ = tx.send(In::With(Box::new(move |lp| lp.receive(peer))));
                }));
            }
        }
        self.conns.insert(peer, conn);
        Ok(peer)
    }

    /// Writes `msg` to `peer`: at once over mem, at the end of the round
    /// over TCP.
    fn send(&mut self, peer: PeerId, msg: WireMsg) {
        match self.conns.get_mut(&peer) {
            Some(Conn::Tcp(out)) if !out.hung_up => {
                if out.queue.is_empty() && out.batch.is_empty() {
                    self.unwritten.push(peer);
                }
                out.queue.push_back(msg);
            }
            Some(Conn::Mem(send, _)) => {
                let _ = send.send(msg);
            }
            _ => {}
        }
    }

    /// Closes `peer` once what was sent to it is written.  Nothing more is
    /// read of it, and the machine hears nothing more of it.
    fn hangup(&mut self, peer: PeerId) {
        match self.conns.get_mut(&peer) {
            Some(Conn::Tcp(out)) => {
                out.hung_up = true;
                let _ = self.poller.modify(out.conn.socket().as_raw_fd(), peer, poll::WRITE);
                self.unwritten.push(peer);
            }
            Some(Conn::Mem(..)) => drop(self.conns.remove(&peer)),
            None => {}
        }
    }

    /// Hands what `peer` sent to the machine, frame by frame, until the
    /// next read would block; a connection that ended is closed and
    /// reported.  Each frame is handled before the next read, so a read
    /// finds the slab free of what the machine let go of.
    fn receive(&mut self, peer: PeerId) {
        loop {
            let next = match self.conns.get_mut(&peer) {
                Some(Conn::Tcp(out)) if !out.hung_up => out.conn.recv(),
                Some(Conn::Mem(_, recv)) => recv.try_recv(),
                _ => return,
            };
            match next {
                Ok(Some(msg)) => self.feed(Event::Frame(peer, msg.payload)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Ok(None) | Err(_) => return self.close(peer),
            }
        }
    }

    /// Drops `peer`'s connection and, unless the machine hung it up, tells
    /// the machine.
    fn close(&mut self, peer: PeerId) {
        match self.conns.remove(&peer) {
            Some(Conn::Tcp(out)) if out.hung_up => {}
            Some(_) => self.feed(Event::Closed(peer)),
            None => {}
        }
    }

    /// Writes what is queued for `peer` until it is out or the socket
    /// would block, watching for writability in between; a hung-up
    /// connection is closed once it is out.
    fn write(&mut self, peer: PeerId) {
        let Some(Conn::Tcp(out)) = self.conns.get_mut(&peer) else { return };
        let stalled = !out.batch.is_empty();
        match out.flush() {
            Ok(true) if out.hung_up => {
                let _ = out.conn.socket().shutdown(Shutdown::Write);
                self.conns.remove(&peer);
            }
            Ok(done) if stalled == done && !out.hung_up => {
                // Level-triggered: watch for writability only while needed.
                let interest = if done { poll::READ } else { poll::READ | poll::WRITE };
                let _ = self.poller.modify(out.conn.socket().as_raw_fd(), peer, interest);
            }
            Ok(_) => {}
            Err(_) => self.close(peer),
        }
    }

    /// A listener or a socket is ready: to be read, written or both.
    fn ready(&mut self, token: u64) {
        if self.conns.contains_key(&token) {
            self.receive(token);
            self.write(token);
        } else if let Some(at) = self.listeners.iter().position(|l| l.0 == token) {
            while let Listener::Tcp(l) = &self.listeners[at].1 {
                match l.accept() {
                    Ok((stream, _)) => {
                        if let Ok(conn) = TcpConn::new(stream) {
                            self.accepted(Transport::Tcp(conn));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
    }

    /// Attaches a connection a listener of this loop accepted and tells
    /// the machine `Accepted`.
    fn accepted(&mut self, transport: Transport) {
        let desc = transport.peer();
        if let Ok(peer) = self.attach(transport) {
            self.feed(Event::Accepted(peer, desc));
        }
    }

    /// Connects to `addr` on a short-lived thread of its own and tells the
    /// machine the outcome ([`Loop::dialled`]).  Not joined: a stop does
    /// not wait for a connect, whose outcome then finds the queue gone and
    /// is dropped with it.
    fn dial(&mut self, tag: DialTag, addr: TransportAddr) {
        let tx = self.tx.clone();
        let dial = thread::Builder::new().name("flexric-dial".into()).stack_size(DIAL_STACK);
        let dial = dial.spawn(move || {
            let connected = connect(&addr);
            let _ = tx.send(In::With(Box::new(move |lp| lp.dialled(tag, connected))));
        });
        if let Err(e) = dial {
            self.dialled(tag, Err(e));
        }
    }

    /// Attaches what the dial tagged `tag` connected, and tells the
    /// machine `Dialled`.
    fn dialled(&mut self, tag: DialTag, connected: io::Result<Transport>) {
        let result = connected.and_then(|t| self.attach(t)).map_err(|e| e.to_string());
        self.feed(Event::Dialled(tag, result));
    }

    /// Hands one event to the machine and carries out what it answers.
    fn feed(&mut self, event: Event<M::In>) {
        self.step(|machine, now_ms, actions| machine.handle(event, now_ms, actions))
    }

    /// Runs `f` on the machine at the clock's reading and carries out the
    /// actions it answers.
    fn step<R>(&mut self, f: impl FnOnce(&mut M, u64, &mut Vec<Action<M::Out>>) -> R) -> R {
        let mut actions = std::mem::take(&mut self.actions);
        let r = f(&mut self.machine, self.now_ms, &mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Send(peer, msg) => self.send(peer, msg),
                Action::Hangup(peer) => self.hangup(peer),
                Action::Dial { tag, addr, after_ms: 0 } => self.dial(tag, addr),
                Action::Dial { tag, addr, after_ms } => {
                    self.dials.push((self.now_ms + after_ms, tag, addr))
                }
                Action::App(action) => M::act(self, action),
            }
        }
        self.actions = actions;
        r
    }

    /// The clock reads `now_ms`: the machine is told, and the dials whose
    /// wait is over connect.  One still waiting when the loop stops is
    /// forgotten.
    fn tick(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
        self.feed(Event::Tick);
        while let Some(at) = self.dials.iter().position(|d| d.0 <= now_ms) {
            let (_, tag, addr) = self.dials.remove(at);
            self.dial(tag, addr);
        }
    }

    fn run(mut self, rx: mpsc::Receiver<In<M>>, tick_ms: Option<u64>) {
        let period = tick_ms.map(|ms| Duration::from_millis(ms.max(1)));
        let mut next_tick = period.map(|p| Instant::now() + p);
        // On the wall clock, what happens before the first tick happens at
        // the clock's reading, not at 0: a deadline set then is not due at
        // once.
        if period.is_some() {
            self.now_ms = crate::mono_ms();
        }
        let mut ready = Vec::new();
        loop {
            // A tick that is due goes first: input that never pauses must
            // not stop the clock.  A late tick is not made up for: the next
            // one is a whole period from now.
            if next_tick.is_some_and(|at| at <= Instant::now()) {
                next_tick = period.map(|p| Instant::now() + p);
                self.tick(crate::mono_ms());
            }
            // Armed before the queue is looked at: what is queued after the
            // look interrupts the wait.
            self.poller.arm();
            let mut inputs = 0;
            for input in rx.try_iter().take(INPUTS_PER_ROUND) {
                inputs += 1;
                match input {
                    In::Event(event) => self.feed(event),
                    In::Tick(now_ms) => self.tick(now_ms),
                    In::With(f) => f(&mut self),
                    In::Stop => return,
                }
            }
            while let Some(peer) = self.unwritten.pop() {
                self.write(peer);
            }
            let timeout = match next_tick {
                _ if inputs == INPUTS_PER_ROUND => Some(Duration::ZERO),
                Some(at) => Some(at.saturating_duration_since(Instant::now())),
                None => None,
            };
            let _ = self.poller.wait(timeout, &mut ready);
            for r in ready.drain(..) {
                self.ready(r);
            }
        }
        // Dropping `self` closes the listeners and the connections.
    }
}

/// Locks one of the driver's lists.  Each is only ever pushed to, drained
/// or retained under its lock, so it is valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn stopped() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "event loop stopped")
}

/// Asks the loop behind `tx` to run `f` and send back what it returns.
fn ask<M: Drive, R: Send + 'static>(
    tx: &Tx<M>,
    f: impl FnOnce(&mut Loop<M>) -> R + Send + 'static,
) -> io::Result<mpsc::Receiver<R>> {
    let (reply, rx) = mpsc::sync_channel(1);
    let work = move |lp: &mut Loop<M>| {
        let _ = reply.send(f(lp));
    };
    tx.send(In::With(Box::new(work))).map_err(|_| stopped())?;
    Ok(rx)
}

/// The loops behind a handle and all its clones.  They are stopped by
/// `stop()`, or when the last clone of the handle goes: a loop nobody can
/// reach any more would tick for ever.
struct Running<M: Drive> {
    loops: Vec<Tx<M>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Drive> Running<M> {
    /// Starts one thread per `(loop, queue)` pair.
    fn start(
        name: &str,
        loops: Vec<(Loop<M>, mpsc::Receiver<In<M>>)>,
        tick_ms: Option<u64>,
    ) -> io::Result<Running<M>> {
        let running = Running {
            loops: loops.iter().map(|(lp, _)| lp.tx.clone()).collect(),
            threads: Mutex::new(Vec::new()),
        };
        for (lp, rx) in loops {
            // An error here drops `running`, which stops what was started.
            let thread =
                thread::Builder::new().name(name.to_owned()).spawn(move || lp.run(rx, tick_ms))?;
            lock(&running.threads).push(thread);
        }
        Ok(running)
    }

    /// Stops every loop and waits for its thread, so its listeners and
    /// connections are closed — the addresses can be bound again — when
    /// this returns.  Idempotent.
    fn stop(&self) {
        for tx in &self.loops {
            let _ = tx.send(In::Stop);
        }
        let threads = std::mem::take(&mut *lock(&self.threads));
        for t in threads {
            // A loop stopping itself (an iApp holding the handle) cannot
            // wait for itself.
            if t.thread().id() != thread::current().id() {
                let _ = t.join();
            }
        }
    }
}

impl<M: Drive> Drop for Running<M> {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Listening, for every machine that does
// ---------------------------------------------------------------------------

/// Binds `addrs` on `lp`, which tells its machine what they accept;
/// returns the addresses bound (ephemeral ports resolved).
fn listen_on<M: Drive>(
    lp: &mut Loop<M>,
    addrs: &[TransportAddr],
) -> io::Result<Vec<TransportAddr>> {
    let mut bound = Vec::new();
    for addr in addrs {
        let mut l = listen(addr)?;
        bound.push(l.local_addr()?);
        // Counted down from below the waker's, so the first link is peer 1.
        let token = u64::MAX - 1 - lp.listeners.len() as u64;
        match &mut l {
            Listener::Tcp(l) => {
                l.set_nonblocking(true)?;
                lp.poller.add(l.as_raw_fd(), token, poll::READ)?;
            }
            Listener::Mem(l) => {
                let tx = lp.tx.clone();
                l.serve(Box::new(move |conn| {
                    let _ = tx.send(In::With(Box::new(|lp| lp.accepted(Transport::Mem(conn)))));
                }));
            }
        }
        lp.listeners.push((token, l));
    }
    Ok(bound)
}

// ---------------------------------------------------------------------------
// The agent behind a handle
// ---------------------------------------------------------------------------

/// Callers waiting for the first setup of the controller they added, by
/// the [`CtrlId`] it got.
type Waiting = HashMap<CtrlId, SyncSender<io::Result<CtrlId>>>;

/// Answers whoever waits for the first setup of `ctrl`.
fn setup_done(port: &mut Waiting, ctrl: CtrlId, result: Result<(), String>) {
    if let Some(reply) = port.remove(&ctrl) {
        let _ = reply.send(result.map(|()| ctrl).map_err(io::Error::other));
    }
}

/// Has the machine behind `tx` add controller `addr` — to the agent whose
/// controller count `ctrls` reads — and waits for its first setup.
fn add_controller<M: Drive<In = AgentIn, Port = Waiting>>(
    tx: &Tx<M>,
    addr: TransportAddr,
    ctrls: fn(&M) -> CtrlId,
) -> io::Result<CtrlId> {
    let (reply, rx) = mpsc::sync_channel(1);
    let work = move |lp: &mut Loop<M>| {
        // The count is the id the machine gives the next controller.
        lp.port.insert(ctrls(&lp.machine), reply);
        lp.feed(Event::App(AgentIn::AddController(addr)));
    };
    tx.send(In::With(Box::new(work))).map_err(|_| stopped())?;
    rx.recv().map_err(|_| stopped())?
}

impl Drive for Agent {
    /// Callers of [`AgentHandle::add_controller`].
    type Port = Waiting;

    fn act(lp: &mut Loop<Self>, AgentOut::SetupDone { ctrl, result }: AgentOut) {
        setup_done(&mut lp.port, ctrl, result)
    }
}

impl Agent {
    /// Spawns the agent's event loop, connects to all configured
    /// controllers and performs E2 Setup with each, in order.  The first
    /// controller that cannot be reached or rejects the setup fails the
    /// spawn.  Blocks until then.
    pub fn spawn(
        cfg: AgentConfig,
        functions: Vec<Box<dyn RanFunction>>,
    ) -> io::Result<AgentHandle> {
        let (tick_ms, controllers) = (cfg.tick_ms, cfg.controllers.clone());
        let lp = Loop::new(Agent::new(cfg, functions), HashMap::new())?;
        let running = Arc::new(Running::start("flexric-agent", vec![lp], tick_ms)?);
        let handle = AgentHandle { running };
        for addr in controllers {
            // On an error the handle is dropped, which stops the loop.
            handle.add_controller(addr)?;
        }
        Ok(handle)
    }
}

/// Handle to a running agent.  The agent stops when [`stop`](Self::stop)
/// is called or the last clone of its handle is dropped.
#[derive(Clone)]
pub struct AgentHandle {
    running: Arc<Running<Agent>>,
}

impl fmt::Debug for AgentHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentHandle").finish_non_exhaustive()
    }
}

impl AgentHandle {
    /// The agent's one loop.
    fn tx(&self) -> &Tx<Agent> {
        &self.running.loops[0]
    }

    /// Advances agent time (virtual-time mode, or extra ticks).
    pub fn tick(&self, now_ms: u64) {
        let _ = self.tx().send(In::Tick(now_ms));
    }

    /// Exposes `rnti` to an additional controller.
    pub fn associate_ue(&self, rnti: u16, ctrl: CtrlId) {
        let _ = self.tx().send(In::Event(Event::App(AgentIn::AssociateUe(rnti, ctrl))));
    }

    /// Stops exposing `rnti` to a controller.
    pub fn disassociate_ue(&self, rnti: u16, ctrl: CtrlId) {
        let _ = self.tx().send(In::Event(Event::App(AgentIn::DisassociateUe(rnti, ctrl))));
    }

    /// Connects to an additional controller and performs E2 Setup with it,
    /// returning its [`CtrlId`] — or why it could not be set up: the dial
    /// error, the controller's failure cause, or the setup timeout.
    /// Blocks the caller until then; neither this call nor a slow
    /// controller holds up the agent's other controllers meanwhile.
    pub fn add_controller(&self, addr: TransportAddr) -> io::Result<CtrlId> {
        add_controller(self.tx(), addr, Agent::ctrl_count)
    }

    /// Snapshot of the agent's counters.
    pub fn stats(&self) -> io::Result<AgentStats> {
        ask(self.tx(), |lp| lp.machine.stats())?.recv().map_err(|_| stopped())
    }

    /// Stops the agent: when this returns its loop has ended and its
    /// connections are closed.
    pub fn stop(&self) {
        self.running.stop();
    }
}

// ---------------------------------------------------------------------------
// The controller behind a handle
// ---------------------------------------------------------------------------

/// Most events a subscriber of [`ServerHandle::events`] can be behind.
const EVENT_LAG: usize = 1024;

/// The subscribers of a controller's event stream.
type Subscribers = Arc<Mutex<Vec<SyncSender<ServerEvent>>>>;

impl Drive for Shard {
    /// Where the shard's events go, and every shard's loop, by shard.
    type Port = (Subscribers, Vec<Tx<Shard>>);

    fn act(lp: &mut Loop<Self>, action: ShardOut) {
        let (peer, shard, req, desc) = match action {
            ShardOut::Publish(event) => return publish(&lp.port.0, &event),
            ShardOut::Handoff { peer, shard, req, desc } => (peer, shard, req, desc),
        };
        let Some(conn) = lp.conns.remove(&peer) else { return };
        if let Conn::Tcp(out) = &conn {
            lp.poller.remove(out.conn.socket().as_raw_fd());
        }
        let _ = lp.port.1[shard].send(In::With(Box::new(move |lp| {
            if let Ok(peer) = lp.adopt(conn) {
                lp.feed(Event::App(ShardIn::NewAgent { req, peer, desc }));
                lp.receive(peer);
            }
        })));
    }
}

/// Offers `event` to every subscriber.  One that is `EVENT_LAG` behind
/// misses it; one that is gone is forgotten.
fn publish(subs: &Subscribers, event: &ServerEvent) {
    lock(subs)
        .retain(|sub| !matches!(sub.try_send(event.clone()), Err(TrySendError::Disconnected(_))));
}

/// Handle to a running controller.  The controller stops when
/// [`stop`](Self::stop) is called or the last clone of its handle is
/// dropped.
///
/// On a sharded controller the handle is the aggregation point: `tick` and
/// `stop` reach every shard, `agents`/`stats` gather and merge per-shard
/// snapshots, `events` taps the single stream all shards publish into, and
/// `call` enters on shard 0.
#[derive(Clone)]
pub struct ServerHandle {
    events: Subscribers,
    running: Arc<Running<Shard>>,
    /// Addresses the controller is listening on (ephemeral ports resolved).
    pub addrs: Vec<TransportAddr>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle").field("addrs", &self.addrs).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Every shard's queue, indexed by shard.
    fn shards(&self) -> &[Tx<Shard>] {
        &self.running.loops
    }

    /// Advances controller time on every shard (virtual-time mode, or
    /// extra ticks).
    pub fn tick(&self, now_ms: u64) {
        for s in self.shards() {
            let _ = s.send(In::Tick(now_ms));
        }
    }

    /// Runs `f` with the first iApp of type `A` on shard 0 and its
    /// [`ServerApi`], on that shard's loop, and returns what `f` returns
    /// once what it asked for is sent: the northbound's one way into an
    /// iApp.  Blocks until then, so an iApp of shard 0 must not call it.
    ///
    /// `NotFound` when the controller runs no `A` (nothing is run);
    /// `BrokenPipe` once it has stopped.
    pub fn call<A: IApp, R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut A, &mut ServerApi) -> R + Send + 'static,
    ) -> io::Result<R> {
        let rx = ask(&self.shards()[0], |lp| lp.step(|shard, now, out| shard.call(now, out, f)))?;
        rx.recv().map_err(|_| stopped())?.ok_or_else(|| {
            let why = format!("this controller runs no {}", std::any::type_name::<A>());
            io::Error::new(io::ErrorKind::NotFound, why)
        })
    }

    /// Subscribes to server events (published by all shards) from now on.
    /// The stream holds at most 1 024 undelivered events: a subscriber
    /// that falls further behind misses the newer ones, and the controller
    /// neither blocks nor grows for it.
    pub fn events(&self) -> mpsc::Receiver<ServerEvent> {
        let (tx, rx) = mpsc::sync_channel(EVENT_LAG);
        lock(&self.events).push(tx);
        rx
    }

    /// Asks every shard at once, then gathers the answers in shard order.
    fn gather<R: Send + 'static>(
        &self,
        f: impl Fn(&Shard) -> R + Clone + Send + 'static,
    ) -> io::Result<Vec<R>> {
        let mut pending = Vec::with_capacity(self.shards().len());
        for s in self.shards() {
            let f = f.clone();
            pending.push(ask(s, move |lp| f(&lp.machine))?);
        }
        pending.into_iter().map(|rx| rx.recv().map_err(|_| stopped())).collect()
    }

    /// Snapshot of connected agents, merged over all shards.
    pub fn agents(&self) -> io::Result<Vec<AgentInfo>> {
        let mut all: Vec<AgentInfo> = self.gather(Shard::agents)?.into_iter().flatten().collect();
        all.sort_by_key(|a| a.id);
        Ok(all)
    }

    /// Snapshot of the controller's counters, summed over all shards.
    pub fn stats(&self) -> io::Result<ServerStats> {
        let mut sum = ServerStats::default();
        for part in self.gather(Shard::stats)? {
            sum += part;
        }
        Ok(sum)
    }

    /// Stops the controller.  When this returns the listeners are closed —
    /// a restarted controller can bind the same addresses at once — every
    /// shard's loop has ended and its connections are closed.
    pub fn stop(&self) {
        self.running.stop();
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
    pub fn spawn(cfg: ServerConfig, iapps: Vec<Box<dyn IApp>>) -> io::Result<ServerHandle> {
        if cfg.resolved_shards() > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ServerConfig.shards > 1 needs per-shard iApp instances; use Server::spawn_sharded",
            ));
        }
        let mut iapps = Some(iapps);
        Self::spawn_sharded(cfg, move |_| iapps.take().unwrap_or_default())
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
    pub fn spawn_sharded(
        cfg: ServerConfig,
        mut iapps: impl FnMut(usize) -> Vec<Box<dyn IApp>>,
    ) -> io::Result<ServerHandle> {
        let shards = cfg.resolved_shards().max(1);
        let events = Subscribers::default();
        let router = Arc::new(ShardRouter::new(shards));

        let mut loops = Vec::with_capacity(shards);
        for idx in 0..shards {
            let machine = Shard::new(idx, &cfg, iapps(idx), router.clone());
            let (mut lp, rx) = Loop::new(machine, (events.clone(), Vec::new()))?;
            lp.feed(Event::App(ShardIn::Start));
            loops.push((lp, rx));
        }
        let all: Vec<Tx<Shard>> = loops.iter().map(|(lp, _)| lp.tx.clone()).collect();
        loops.iter_mut().for_each(|(lp, _)| lp.port.1 = all.clone());
        // Shard 0 accepts; each connection's setup request routes it.
        let addrs = listen_on(&mut loops[0].0, &cfg.listen)?;
        let running = Arc::new(Running::start("flexric-shard", loops, cfg.tick_ms)?);
        Ok(ServerHandle { events, running, addrs })
    }
}

// ---------------------------------------------------------------------------
// The bridge behind a handle
// ---------------------------------------------------------------------------

impl Drive for Bridge {
    /// The spawn, waiting for the bridge's own north agent to set up.
    type Port = Waiting;

    fn act(lp: &mut Loop<Self>, AgentOut::SetupDone { ctrl, result }: AgentOut) {
        setup_done(&mut lp.port, ctrl, result)
    }
}

impl Bridge {
    /// Binds the south listeners of `cfg` and runs the bridge on one loop,
    /// on `cfg.tick_ms`'s clock; then its own north agent, if it has one,
    /// adds the controllers its config lists, in order.  The first that
    /// cannot be set up fails the spawn, which blocks until then.  Nothing
    /// else is dialled before a south node has set up.  A config asking for
    /// more than one shard is rejected, as [`Server::spawn`] rejects it.
    pub fn spawn(self, cfg: &ServerConfig) -> io::Result<BridgeHandle> {
        if cfg.resolved_shards() > 1 {
            let why = "a bridge runs one shard: ServerConfig.shards must be 1";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let north = self.own().map(|a| a.controllers().to_vec()).unwrap_or_default();
        let mut loops = vec![Loop::new(self, HashMap::new())?];
        let addrs = listen_on(&mut loops[0].0, &cfg.listen)?;
        let running = Arc::new(Running::start("flexric-bridge", loops, cfg.tick_ms)?);
        let handle = BridgeHandle { running, addrs };
        let own = |b: &Bridge| b.own().map_or(0, Agent::ctrl_count);
        for addr in north {
            // On an error the handle is dropped, which stops the loop.
            add_controller(&handle.running.loops[0], addr, own)?;
        }
        Ok(handle)
    }
}

/// Handle to a running bridge.  The bridge stops when [`stop`](Self::stop)
/// is called or the last clone of its handle is dropped.
#[derive(Clone)]
pub struct BridgeHandle {
    running: Arc<Running<Bridge>>,
    /// Addresses the bridge's south side is listening on.
    pub addrs: Vec<TransportAddr>,
}

impl BridgeHandle {
    /// Advances the bridge's time (virtual-time mode, or extra ticks).
    pub fn tick(&self, now_ms: u64) {
        let _ = self.running.loops[0].send(In::Tick(now_ms));
    }

    /// Stops the bridge: when this returns its listeners are closed, its
    /// loop has ended and its connections, north and south, are closed.
    pub fn stop(&self) {
        self.running.stop();
    }
}

// ---------------------------------------------------------------------------
// Any other framed protocol: a machine with no actions of its own
// ---------------------------------------------------------------------------

/// Where [`spawn_machine`] gets a machine's first links.
#[derive(Debug, Clone)]
pub enum Links {
    /// Every connection accepted at this address, told as `Accepted`.
    Listen(TransportAddr),
    /// One connection, dialled before the spawn returns and told as
    /// `Dialled(0, Ok(peer))`.
    Dial(TransportAddr),
}

/// A machine [`spawn_machine`] can run: one that asks its driver for
/// sends, hangups and dials only.
pub trait PlainMachine: Machine<In: Send + 'static, Out = Infallible> + Send + 'static {}

impl<M: Machine<In: Send + 'static, Out = Infallible> + Send + 'static> PlainMachine for M {}

/// The [`Drive`] of a [`PlainMachine`].
struct Plain<M>(M);

impl<M: PlainMachine> Machine for Plain<M> {
    type In = M::In;
    type Out = Infallible;
    fn handle(&mut self, event: Event<M::In>, now_ms: u64, out: &mut Vec<Action<Infallible>>) {
        self.0.handle(event, now_ms, out)
    }
}

impl<M: PlainMachine> Drive for Plain<M> {
    type Port = ();
    fn act(_lp: &mut Loop<Self>, never: Infallible) {
        match never {}
    }
}

/// Runs `machine` on a loop of its own, on `tick_ms`'s clock (`None`: only
/// [`MachineHandle::tick`] moves it), with the links `links` gives.  A
/// dial that fails, or a listener that cannot be bound, fails the spawn.
pub fn spawn_machine<M: PlainMachine>(
    machine: M,
    links: Links,
    tick_ms: Option<u64>,
) -> io::Result<MachineHandle<M>> {
    let (mut lp, rx) = Loop::new(Plain(machine), ())?;
    let addr = match links {
        Links::Dial(addr) => {
            let transport = connect(&addr)?;
            lp.dialled(0, Ok(transport));
            addr
        }
        Links::Listen(addr) => listen_on(&mut lp, &[addr])?.remove(0),
    };
    let running = Arc::new(Running::start("flexric-loop", vec![(lp, rx)], tick_ms)?);
    Ok(MachineHandle { running, addr })
}

/// Handle to a machine run by [`spawn_machine`].  The machine stops when
/// [`stop`](Self::stop) is called or the last clone of its handle is
/// dropped.
pub struct MachineHandle<M: PlainMachine> {
    running: Arc<Running<Plain<M>>>,
    /// The address listened on (ephemeral port resolved), or dialled.
    pub addr: TransportAddr,
}

impl<M: PlainMachine> Clone for MachineHandle<M> {
    fn clone(&self) -> Self {
        MachineHandle { running: self.running.clone(), addr: self.addr.clone() }
    }
}

impl<M: PlainMachine> MachineHandle<M> {
    /// Hands the machine `Event::App(event)`.
    pub fn send(&self, event: M::In) {
        let _ = self.running.loops[0].send(In::Event(Event::App(event)));
    }

    /// Advances the machine's time (virtual-time mode, or extra ticks).
    pub fn tick(&self, now_ms: u64) {
        let _ = self.running.loops[0].send(In::Tick(now_ms));
    }

    /// Stops the machine: when this returns its listener is closed, its
    /// loop has ended and its connections are closed.
    pub fn stop(&self) {
        self.running.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use flexric_transport::rx::FrameAssembler;
    use std::io::{Read, Write};
    use std::net::TcpStream;

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

    // -- The loop itself, under a machine that does as it is told ----------

    /// No protocol: it turns the actions it is handed into actions, and
    /// reports every frame and close it is shown.
    struct Puppet(mpsc::Sender<Event<Vec<Action<()>>>>);

    impl Machine for Puppet {
        type In = Vec<Action<()>>;
        type Out = ();
        fn handle(&mut self, event: Event<Self::In>, _now_ms: u64, out: &mut Vec<Action<()>>) {
            match event {
                Event::App(actions) => out.extend(actions),
                Event::Tick => {}
                seen => self.0.send(seen).expect("the test outlives its loop"),
            }
        }
    }

    impl Drive for Puppet {
        type Port = ();
        fn act(_lp: &mut Loop<Self>, _action: ()) {}
    }

    /// A puppet's loop on virtual time, what it saw, and its handle.
    struct Rig {
        tx: Tx<Puppet>,
        seen: mpsc::Receiver<Event<Vec<Action<()>>>>,
        running: Running<Puppet>,
    }

    impl Rig {
        fn start() -> Rig {
            let (seen_tx, seen) = mpsc::channel();
            let (lp, rx) = Loop::new(Puppet(seen_tx), ()).unwrap();
            let tx = lp.tx.clone();
            let running = Running::start("puppet", vec![(lp, rx)], None).unwrap();
            Rig { tx, seen, running }
        }

        /// Hands the loop one end of a fresh loopback TCP connection and
        /// returns the other end, raw.
        fn attach_tcp(&self) -> (PeerId, TcpStream) {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let far = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let near = Transport::Tcp(TcpConn::new(l.accept().unwrap().0).unwrap());
            let peer = ask(&self.tx, |lp| lp.attach(near).unwrap()).unwrap().recv().unwrap();
            (peer, far)
        }

        fn act(&self, actions: Vec<Action<()>>) {
            self.tx.send(In::Event(Event::App(actions))).unwrap();
        }
    }

    /// Reads frames off a raw socket until `n` have arrived or it ends.
    fn read_frames(sock: &mut TcpStream, n: usize) -> Vec<WireMsg> {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        while got.len() < n {
            while let Some(m) = asm.next_frame().unwrap() {
                got.push(m);
            }
            if got.len() >= n || asm.read_from(sock).unwrap() == 0 {
                break;
            }
        }
        got
    }

    #[test]
    fn hangup_delivers_what_was_queued_before_it() {
        let rig = Rig::start();
        let (peer, mut far) = rig.attach_tcp();
        let mut actions: Vec<Action<()>> =
            (0..500u32).map(|i| Action::Send(peer, msg(1, i as u8))).collect();
        actions.push(Action::Hangup(peer));
        rig.act(actions);
        let got = read_frames(&mut far, usize::MAX);
        assert_eq!(got.len(), 500, "every frame sent before the hangup arrived, then EOF");
        assert!(got.iter().enumerate().all(|(i, m)| m.payload[0] == i as u8), "in order");
        // The loop goes on, and the machine hears nothing more of the peer
        // it hung up on — no `Closed`: the next it sees is a live peer's frame.
        let (live, mut far2) = rig.attach_tcp();
        far2.write_all(&flexric_transport::frame::encode_frame(0, 70, &Bytes::from_static(b"x")))
            .unwrap();
        let next = rig.seen.recv().unwrap();
        assert!(matches!(&next, Event::Frame(p, x) if *p == live && x[..] == *b"x"), "{next:?}");
        rig.running.stop();
    }

    /// A peer that stops reading stalls its own connection and nothing
    /// else: the loop keeps serving other peers, control queued behind bulk
    /// for the stalled peer still overtakes it, and stopping does not wait.
    #[test]
    fn a_stalled_peer_stalls_only_its_own_writer() {
        let rig = Rig::start();
        let (slow, mut slow_far) = rig.attach_tcp();
        let (other, mut other_far) = rig.attach_tcp();
        // One frame far larger than the socket buffers: the loop takes it
        // off the connection's queue and writes what the socket takes.
        let big = Bytes::from(vec![7u8; 48 * 1024 * 1024]);
        rig.act(vec![Action::Send(slow, WireMsg::e2ap_on(1, big.clone()))]);
        // Seeing its first bytes proves the loop has dequeued it.
        let mut head = [0u8; 1024];
        slow_far.read_exact(&mut head).unwrap();
        // Queued while the write is stalled: ten bulk frames, then control.
        let mut queued: Vec<Action<()>> = (0..10).map(|i| Action::Send(slow, msg(1, i))).collect();
        queued.push(Action::Send(slow, msg(0, 99)));
        rig.act(queued);
        // The loop is not blocked: another peer is served meanwhile.
        rig.act((0..100).map(|i| Action::Send(other, msg(1, i))).collect());
        assert_eq!(read_frames(&mut other_far, 100).len(), 100);
        // The slow peer resumes: the big frame, then control first.
        let mut rest = vec![0u8; big.len() + flexric_transport::frame::HEADER_LEN - head.len()];
        slow_far.read_exact(&mut rest).unwrap();
        let tags: Vec<u8> = read_frames(&mut slow_far, 11).iter().map(|m| m.payload[0]).collect();
        assert_eq!(tags, [99, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "control overtook the queued bulk");
        // Stall it again and stop: `stop` does not wait for the peer.
        rig.act(vec![Action::Send(slow, WireMsg::e2ap_on(1, big))]);
        slow_far.read_exact(&mut head).unwrap();
        rig.running.stop();
    }

    /// Dialling is the driver's for any machine: each answer comes back
    /// under the tag the machine gave — the connection, whose listener's
    /// machine is told `Accepted`, or why there is none — and a dial that
    /// waits connects only once the loop's clock has moved its wait on.
    #[test]
    fn a_dial_is_answered_under_its_tag_once_its_wait_is_over() {
        let (dialler, listener) = (Rig::start(), Rig::start());
        let at = TransportAddr::Mem("driver-dial".into());
        let bound = ask(&listener.tx, move |lp| listen_on(lp, &[at]).unwrap());
        let at = bound.unwrap().recv().unwrap().remove(0);
        let nobody = TransportAddr::Mem("driver-dial-nobody".into());
        dialler.act(vec![
            Action::Dial { tag: 1, addr: at.clone(), after_ms: 0 },
            Action::Dial { tag: 2, addr: nobody, after_ms: 0 },
        ]);
        // Each connects on a thread of its own: either may answer first.
        let mut answers = [dialler.seen.recv().unwrap(), dialler.seen.recv().unwrap()];
        answers.sort_by_key(|e| matches!(e, Event::Dialled(2, _)));
        let [Event::Dialled(1, Ok(near)), Event::Dialled(2, Err(_))] = answers else {
            panic!("{answers:?}")
        };
        let Event::Accepted(far, _) = listener.seen.recv().unwrap() else { panic!("no Accepted") };
        dialler.act(vec![Action::Send(near, msg(0, 7))]);
        let next = listener.seen.recv().unwrap();
        assert!(matches!(&next, Event::Frame(p, x) if *p == far && x[..] == [7]), "{next:?}");

        // On virtual time, at 0: a dial that waits 10 ms.
        dialler.act(vec![Action::Dial { tag: 3, addr: at, after_ms: 10 }]);
        dialler.tx.send(In::Tick(9)).unwrap();
        let quiet = Duration::from_millis(100);
        assert!(dialler.seen.recv_timeout(quiet).is_err(), "answered before its wait was over");
        assert!(listener.seen.try_recv().is_err(), "connected before its wait was over");
        dialler.tx.send(In::Tick(10)).unwrap();
        let next = dialler.seen.recv().unwrap();
        assert!(matches!(next, Event::Dialled(3, Ok(p)) if p != near), "{next:?}");
        assert!(matches!(listener.seen.recv().unwrap(), Event::Accepted(p, _) if p != far));
        dialler.running.stop();
        listener.running.stop();
    }

    #[test]
    fn a_subscriber_that_never_drains_loses_events_beyond_the_bound() {
        let subs = Subscribers::default();
        let (tx, idle) = mpsc::sync_channel(EVENT_LAG);
        let (tx2, gone) = mpsc::sync_channel(EVENT_LAG);
        subs.lock().unwrap().extend([tx, tx2]);
        drop(gone);
        for id in 0..(2 * EVENT_LAG as u64 + 7) {
            publish(&subs, &ServerEvent::AgentDisconnected(id as _));
        }
        assert_eq!(subs.lock().unwrap().len(), 1, "the dropped subscriber is forgotten");
        let kept: Vec<ServerEvent> = idle.try_iter().collect();
        assert_eq!(kept.len(), EVENT_LAG, "no more than the bound is ever held for it");
        assert!(
            kept.iter()
                .enumerate()
                .all(|(i, e)| matches!(e, ServerEvent::AgentDisconnected(id) if *id == i)),
            "it kept the oldest and missed the rest"
        );
        publish(&subs, &ServerEvent::AgentDisconnected(0));
        assert_eq!(idle.try_iter().count(), 1, "drained, it receives again");
    }
}
