//! The driver: the one file of this crate that names threads, sockets and
//! the wall clock.
//!
//! Machines ([`crate::machine`]) decide everything and touch nothing.  This
//! file does the touching, once, for any of them — [`Agent`], [`Shard`],
//! [`Bridge`] and, outside this crate, FlexRAN's controller and agent and
//! the pub/sub broker.  [`spawn_machine`] runs N machines of one kind
//! behind one [`Handle`]; [`AgentHandle`], [`ServerHandle`] (a loop per
//! shard) and [`BridgeHandle`] are its names for the SDK's own.  Each
//! machine gets a [`Loop`] on a thread of its own, which blocks in one
//! place — an `epoll` wait ([`flexric_transport::poll`]) until the next
//! tick — and owns
//!
//! * the machine's input queue (a `std::sync::mpsc` channel plus the
//!   poller's waker: ticks and work sent by the handle, readiness of its
//!   mem connections, connects that finished, connections a sibling loop
//!   handed over), which holds at most one tick: ticks coalesce
//!   ([`Handle::tick`]);
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
//!   tag ([`Loop::step`], [`Loop::tick`]); an `Action::Handoff` moves a
//!   connection, with what was not yet read of it, to the sibling loop it
//!   names, which tells its machine `Accepted` and the first frame and
//!   reads on at once ([`Loop::hand_off`]);
//! * the clock: `now_ms` only moves on a tick — the wait running out in
//!   real time, [`Handle::tick`]'s in virtual time — and every event is
//!   handed over with it.
//!
//! Every other action is the machine's output, which the loop publishes to
//! the handle's subscribers ([`Handle::events`]) and does not read: a
//! shard's [`ServerEvent`](crate::server::ServerEvent)s, an agent's setup outcomes, which
//! [`AgentHandle::add_controller`] subscribes to and waits on.
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
use std::fmt;
use std::io;
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{self, SendError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use flexric_transport::mem::{MemRecvHalf, MemSendHalf};
use flexric_transport::poll::{self, Poller, Waker};
use flexric_transport::tcp::TcpConn;
use flexric_transport::{connect, listen, Listener, Transport, TransportAddr, WireMsg};

use crate::agent::{Agent, AgentConfig, AgentIn, AgentOut, AgentStats, CtrlId, RanFunction};
use crate::machine::{Action, DialTag, Event, Machine, PeerId};
use crate::relay::Bridge;
use crate::server::{
    AgentInfo, IApp, Server, ServerApi, ServerConfig, ServerStats, Shard, ShardIn, ShardRouter,
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

/// Work for the loop thread itself.
type Work<M> = Box<dyn FnOnce(&mut Loop<M>) + Send>;

/// What arrives on a loop's queue.
enum In<M: Machine> {
    Event(Event<M::In>),
    /// The clock reads what its [`Clock`] holds now.
    Tick,
    /// Work that needs the loop itself: binding a fresh connection,
    /// answering a query.
    With(Work<M>),
    Stop,
}

/// The virtual clock [`Handle::tick`] sets: its newest reading, and
/// whether an `In::Tick` that will read it is queued.  A tick says "the
/// clock reads t", so one queued tick stands for every reading that came
/// after it: a loop slower than its ticks handles the newest of them, and
/// its queue holds at most one.
#[derive(Default)]
struct Clock {
    now_ms: AtomicU64,
    queued: AtomicBool,
}

/// A loop's queue, its clock, and the waker that interrupts the loop's
/// wait.
struct Tx<M: Machine> {
    queue: mpsc::Sender<In<M>>,
    clock: Arc<Clock>,
    waker: Arc<Waker>,
}

impl<M: Machine> Clone for Tx<M> {
    fn clone(&self) -> Self {
        Tx { queue: self.queue.clone(), clock: self.clock.clone(), waker: self.waker.clone() }
    }
}

impl<M: Machine> Tx<M> {
    fn send(&self, input: In<M>) -> Result<(), SendError<In<M>>> {
        self.queue.send(input)?;
        self.waker.wake();
        Ok(())
    }

    /// Moves the clock on to `now_ms` (never back), and queues a tick
    /// unless one is queued already, which will read it.
    fn tick(&self, now_ms: u64) {
        self.clock.now_ms.fetch_max(now_ms, SeqCst);
        if !self.clock.queued.swap(true, SeqCst) {
            let _ = self.send(In::Tick);
        }
    }
}

/// Most inputs a loop takes off its queue between two looks at its
/// sockets and its clock.
const INPUTS_PER_ROUND: usize = 256;

/// Stack of a dial's thread: it only connects.
const DIAL_STACK: usize = 128 * 1024;

/// Most outputs a subscriber of [`Handle::events`] can be behind.
const EVENT_LAG: usize = 1024;

/// The subscribers of a handle's output.
type Subscribers<Y> = Arc<Mutex<Vec<SyncSender<Y>>>>;

/// One machine, its sockets and its clock.
struct Loop<M: Machine> {
    machine: M,
    /// This loop's own queue, for what its sockets and threads hand in.
    tx: Tx<M>,
    /// Every loop of the handle, by index: where a handoff goes.
    siblings: Vec<Tx<M>>,
    /// Where the machine's output goes.
    subs: Subscribers<M::Out>,
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

impl<M: Machine<In: Send, Out: Send> + 'static> Loop<M> {
    fn new(machine: M, subs: Subscribers<M::Out>) -> io::Result<(Self, mpsc::Receiver<In<M>>)> {
        let poller = Poller::new()?;
        let (queue, rx) = mpsc::channel();
        let tx = Tx { queue, clock: Arc::default(), waker: poller.waker() };
        let lp = Loop {
            machine,
            tx,
            siblings: Vec::new(),
            subs,
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

    /// Moves `peer`'s connection, with what is still unread or unwritten
    /// of it, to sibling loop `to`, whose machine is told `Accepted` and
    /// then `Frame(first)` and which reads on at once.  This machine hears
    /// nothing more of `peer`.
    fn hand_off(&mut self, peer: PeerId, to: usize, desc: String, first: Bytes) {
        let Some(conn) = self.conns.remove(&peer) else { return };
        if let Conn::Tcp(out) = &conn {
            self.poller.remove(out.conn.socket().as_raw_fd());
        }
        let Some(sibling) = self.siblings.get(to) else { return };
        let _ = sibling.send(In::With(Box::new(move |lp| {
            if let Ok(peer) = lp.adopt(conn) {
                lp.unwritten.push(peer);
                lp.feed(Event::Accepted(peer, desc));
                lp.feed(Event::Frame(peer, first));
                lp.receive(peer);
            }
        })));
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

    /// Binds `addr`, whose connections this loop attaches and tells its
    /// machine as `Accepted`; returns the address bound (an ephemeral port
    /// resolved).
    fn listen(&mut self, addr: &TransportAddr) -> io::Result<TransportAddr> {
        let mut l = listen(addr)?;
        let bound = l.local_addr()?;
        // Counted down from below the waker's, so the first link is peer 1.
        let token = u64::MAX - 1 - self.listeners.len() as u64;
        match &mut l {
            Listener::Tcp(l) => {
                l.set_nonblocking(true)?;
                self.poller.add(l.as_raw_fd(), token, poll::READ)?;
            }
            Listener::Mem(l) => {
                let tx = self.tx.clone();
                l.serve(Box::new(move |conn| {
                    let _ = tx.send(In::With(Box::new(|lp| lp.accepted(Transport::Mem(conn)))));
                }));
            }
        }
        self.listeners.push((token, l));
        Ok(bound)
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
    /// actions it answers; its output is published.
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
                Action::Handoff { peer, to, desc, first } => self.hand_off(peer, to, desc, first),
                Action::App(output) => publish(&self.subs, &output),
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
                    In::Tick => {
                        // Cleared first: a tick set after the read below
                        // queues one of its own.
                        self.tx.clock.queued.store(false, SeqCst);
                        self.tick(self.tx.clock.now_ms.load(SeqCst));
                    }
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
        // Dropping `self` closes the listeners and the connections, and
        // with the last loop the subscribers' streams end.
    }
}

/// Offers `output` to every subscriber.  One that is `EVENT_LAG` behind
/// misses it; one that is gone is forgotten.
fn publish<Y: Clone>(subs: &Subscribers<Y>, output: &Y) {
    lock(subs)
        .retain(|sub| !matches!(sub.try_send(output.clone()), Err(TrySendError::Disconnected(_))));
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
fn ask<M: Machine, R: Send + 'static>(
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
struct Running<M: Machine> {
    loops: Vec<Tx<M>>,
    /// The loops' subscribers, while a loop lives.
    subs: Weak<Mutex<Vec<SyncSender<M::Out>>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Machine> Running<M> {
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

impl<M: Machine> Drop for Running<M> {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

/// Where [`spawn_machine`] gets a handle's first links, all on its first
/// loop.
#[derive(Debug, Clone)]
pub enum Links {
    /// Every connection accepted at this address, told as `Accepted`.
    Listen(TransportAddr),
    /// One connection, dialled before the spawn returns and told as
    /// `Dialled(0, Ok(peer))`.
    Dial(TransportAddr),
}

/// Runs each of `machines` (at least one) on a loop and a thread of its
/// own, on `tick_ms`'s clock (`None`: only [`Handle::tick`] moves it),
/// siblings that can hand connections to each other by their index in
/// `machines`.  The first loop gets `links`.  A dial that fails, or a
/// listener that cannot be bound, fails the spawn.
pub fn spawn_machine<M: Machine<In: Send, Out: Send> + Send + 'static>(
    machines: Vec<M>,
    links: Vec<Links>,
    tick_ms: Option<u64>,
) -> io::Result<Handle<M>> {
    let subs = Subscribers::default();
    let mut loops = Vec::with_capacity(machines.len());
    for machine in machines {
        loops.push(Loop::new(machine, subs.clone())?);
    }
    let siblings: Vec<Tx<M>> = loops.iter().map(|(lp, _)| lp.tx.clone()).collect();
    loops.iter_mut().for_each(|(lp, _)| lp.siblings = siblings.clone());
    let mut addrs = Vec::with_capacity(links.len());
    for link in links {
        addrs.push(match link {
            Links::Listen(addr) => loops[0].0.listen(&addr)?,
            Links::Dial(addr) => {
                let transport = connect(&addr)?;
                loops[0].0.dialled(0, Ok(transport));
                addr
            }
        });
    }
    let running =
        Running { loops: siblings, subs: Arc::downgrade(&subs), threads: Mutex::new(Vec::new()) };
    // "flexric-agent", "flexric-shard", …: one name per kind of machine.
    let kind = std::any::type_name::<M>().rsplit("::").next().unwrap_or("loop");
    let name = format!("flexric-{}", kind.to_lowercase());
    for (lp, rx) in loops {
        // An error here drops `running`, which stops what was started.
        let thread =
            thread::Builder::new().name(name.clone()).spawn(move || lp.run(rx, tick_ms))?;
        lock(&running.threads).push(thread);
    }
    Ok(Handle { running: Arc::new(running), addrs })
}

/// Handle to machines run by [`spawn_machine`].  They stop when
/// [`stop`](Self::stop) is called or the last clone of the handle is
/// dropped.
pub struct Handle<M: Machine> {
    running: Arc<Running<M>>,
    /// The first loop's links: each address listened on (an ephemeral port
    /// resolved) or dialled, in the order given.
    pub addrs: Vec<TransportAddr>,
}

impl<M: Machine> Clone for Handle<M> {
    fn clone(&self) -> Self {
        Handle { running: self.running.clone(), addrs: self.addrs.clone() }
    }
}

impl<M: Machine> fmt::Debug for Handle<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle").field("addrs", &self.addrs).finish_non_exhaustive()
    }
}

impl<M: Machine<In: Send, Out: Send> + 'static> Handle<M> {
    /// Hands the first loop's machine `Event::App(event)`.
    pub fn send(&self, event: M::In) {
        let _ = self.running.loops[0].send(In::Event(Event::App(event)));
    }

    /// Runs `f` on the first loop's machine at its clock's reading, carries
    /// out the actions `f` appends, and returns what `f` returns.  Blocks
    /// until then, so the machine must not call it.
    pub fn with<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut M, u64, &mut Vec<Action<M::Out>>) -> R + Send + 'static,
    ) -> io::Result<R> {
        ask(&self.running.loops[0], |lp| lp.step(f))?.recv().map_err(|_| stopped())
    }

    /// Asks every loop's machine at once, then gathers the answers in loop
    /// order.
    pub fn gather<R: Send + 'static>(
        &self,
        f: impl Fn(&M) -> R + Clone + Send + 'static,
    ) -> io::Result<Vec<R>> {
        let mut pending = Vec::with_capacity(self.running.loops.len());
        for tx in &self.running.loops {
            let f = f.clone();
            pending.push(ask(tx, move |lp| f(&lp.machine))?);
        }
        pending.into_iter().map(|rx| rx.recv().map_err(|_| stopped())).collect()
    }

    /// Advances every loop's clock (virtual-time mode, or extra ticks).
    /// Ticks coalesce: a loop that has not yet handled an earlier tick
    /// handles one, at the newest reading.  What was queued behind that
    /// earlier tick is then handled at the newer reading, as it would be
    /// had the loop been late; to the agent's report grid a late tick
    /// delays one report, and a stall of many periods gives one report.
    pub fn tick(&self, now_ms: u64) {
        for tx in &self.running.loops {
            tx.tick(now_ms);
        }
    }

    /// Subscribes to what every loop's machine outputs (its `Action::App`s)
    /// from now on.  The stream holds at most 1 024 undelivered outputs: a
    /// subscriber that falls further behind misses the newer ones, and no
    /// machine blocks or grows for it.  It ends once the loops have.
    pub fn events(&self) -> mpsc::Receiver<M::Out> {
        let (tx, rx) = mpsc::sync_channel(EVENT_LAG);
        if let Some(subs) = self.running.subs.upgrade() {
            lock(&subs).push(tx);
        }
        rx
    }

    /// Stops every loop.  When this returns the listeners are closed — a
    /// restarted machine can bind the same addresses at once — every loop
    /// has ended and its connections are closed.
    pub fn stop(&self) {
        self.running.stop();
    }
}

/// Handle to machines of any kind run by [`spawn_machine`].
pub type MachineHandle<M> = Handle<M>;

// ---------------------------------------------------------------------------
// The agent, the controller and the bridge behind a handle
// ---------------------------------------------------------------------------

/// Has the agent behind `h` — or a bridge's own north agent, whose
/// controller count `count` reads — add controller `addr`, and waits for
/// the outcome of its first setup.
fn add_controller<M: Machine<In = AgentIn, Out = AgentOut> + 'static>(
    h: &Handle<M>,
    addr: TransportAddr,
    count: fn(&M) -> CtrlId,
) -> io::Result<CtrlId> {
    // Subscribed before the controller is added: its outcome comes after.
    let outcomes = h.events();
    let ctrl = h.with(move |m, now, out| {
        // The count is the id the machine gives the next controller.
        let ctrl = count(m);
        m.handle(Event::App(AgentIn::AddController(addr)), now, out);
        ctrl
    })?;
    for AgentOut::SetupDone { ctrl: done, result } in outcomes {
        if done == ctrl {
            return result.map(|()| ctrl).map_err(io::Error::other);
        }
    }
    Err(stopped())
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
        let handle = spawn_machine(vec![Agent::new(cfg, functions)], Vec::new(), tick_ms)?;
        for addr in controllers {
            // On an error the handle is dropped, which stops the loop.
            handle.add_controller(addr)?;
        }
        Ok(handle)
    }
}

/// Handle to a running agent.  The agent stops when
/// [`stop`](Handle::stop) is called or the last clone of its handle is
/// dropped.
pub type AgentHandle = Handle<Agent>;

impl Handle<Agent> {
    /// Connects to an additional controller and performs E2 Setup with it,
    /// returning its [`CtrlId`] — or why it could not be set up: the dial
    /// error, the controller's failure cause, or the setup timeout.
    /// Blocks the caller until then; neither this call nor a slow
    /// controller holds up the agent's other controllers meanwhile.
    pub fn add_controller(&self, addr: TransportAddr) -> io::Result<CtrlId> {
        add_controller(self, addr, Agent::ctrl_count)
    }

    /// Snapshot of the agent's counters.
    pub fn stats(&self) -> io::Result<AgentStats> {
        self.with(|agent, _, _| agent.stats())
    }
}

/// Handle to a running controller, one loop per shard.  The controller
/// stops when [`stop`](Handle::stop) is called or the last clone of its
/// handle is dropped.
///
/// On a sharded controller the handle is the aggregation point: `tick` and
/// `stop` reach every shard, `agents`/`stats` gather and merge per-shard
/// snapshots, `events` taps the single stream all shards publish into, and
/// `call` enters on shard 0.
pub type ServerHandle = Handle<Shard>;

impl Handle<Shard> {
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
        self.with(|shard, now, out| shard.call(now, out, f))?.ok_or_else(|| {
            let why = format!("this controller runs no {}", std::any::type_name::<A>());
            io::Error::new(io::ErrorKind::NotFound, why)
        })
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
    /// Connections are assigned to shards by RAN-entity key (sticky
    /// least-loaded) when their setup request arrives, so agents of one
    /// base station — and an agent reconnecting within the grace window —
    /// always land on the same shard.  Per-shard instances that need a
    /// combined view share state via `Arc` internally (see
    /// `MonitorApp::replica`).
    pub fn spawn_sharded(
        cfg: ServerConfig,
        mut iapps: impl FnMut(usize) -> Vec<Box<dyn IApp>>,
    ) -> io::Result<ServerHandle> {
        let count = cfg.resolved_shards().max(1);
        let router = Arc::new(ShardRouter::new(count));
        let shards = (0..count).map(|idx| {
            let mut shard = Shard::new(idx, &cfg, iapps(idx), router.clone());
            // Started before it holds a peer or anyone subscribes: nothing
            // it answers could be carried out.
            shard.handle(Event::App(ShardIn::Start), 0, &mut Vec::new());
            shard
        });
        // Shard 0 accepts; each connection's setup request routes it.
        let links = cfg.listen.iter().cloned().map(Links::Listen).collect();
        spawn_machine(shards.collect(), links, cfg.tick_ms)
    }
}

/// Handle to a running bridge.  The bridge stops when
/// [`stop`](Handle::stop) is called or the last clone of its handle is
/// dropped.
pub type BridgeHandle = Handle<Bridge>;

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
        let links = cfg.listen.iter().cloned().map(Links::Listen).collect();
        let handle = spawn_machine(vec![self], links, cfg.tick_ms)?;
        let own = |b: &Bridge| b.own().map_or(0, Agent::ctrl_count);
        for addr in north {
            // On an error the handle is dropped, which stops the loop.
            add_controller(&handle, addr, own)?;
        }
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerEvent;
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

    /// A puppet's loop on virtual time, what it saw, and its handle.
    struct Rig {
        seen: mpsc::Receiver<Event<Vec<Action<()>>>>,
        handle: Handle<Puppet>,
    }

    impl Rig {
        fn start() -> Rig {
            Rig::with_links(Vec::new())
        }

        fn with_links(links: Vec<Links>) -> Rig {
            let (seen_tx, seen) = mpsc::channel();
            Rig { seen, handle: spawn_machine(vec![Puppet(seen_tx)], links, None).unwrap() }
        }

        /// Hands the loop one end of a fresh loopback TCP connection and
        /// returns the other end, raw.
        fn attach_tcp(&self) -> (PeerId, TcpStream) {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let far = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let near = Transport::Tcp(TcpConn::new(l.accept().unwrap().0).unwrap());
            let attach = ask(&self.handle.running.loops[0], |lp| lp.attach(near).unwrap());
            (attach.unwrap().recv().unwrap(), far)
        }

        fn act(&self, actions: Vec<Action<()>>) {
            self.handle.send(actions);
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
        rig.handle.stop();
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
        rig.handle.stop();
    }

    /// Dialling is the driver's for any machine: each answer comes back
    /// under the tag the machine gave — the connection, whose listener's
    /// machine is told `Accepted`, or why there is none — and a dial that
    /// waits connects only once the loop's clock has moved its wait on.
    #[test]
    fn a_dial_is_answered_under_its_tag_once_its_wait_is_over() {
        let at = TransportAddr::Mem("driver-dial".into());
        let (dialler, listener) = (Rig::start(), Rig::with_links(vec![Links::Listen(at)]));
        let at = listener.handle.addrs[0].clone();
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
        dialler.handle.tick(9);
        let quiet = Duration::from_millis(100);
        assert!(dialler.seen.recv_timeout(quiet).is_err(), "answered before its wait was over");
        assert!(listener.seen.try_recv().is_err(), "connected before its wait was over");
        dialler.handle.tick(10);
        let next = dialler.seen.recv().unwrap();
        assert!(matches!(next, Event::Dialled(3, Ok(p)) if p != near), "{next:?}");
        assert!(matches!(listener.seen.recv().unwrap(), Event::Accepted(p, _) if p != far));
        dialler.handle.stop();
        listener.handle.stop();
    }

    /// Counts the ticks it is told.
    struct Ticks(Arc<AtomicU64>);

    impl Machine for Ticks {
        type In = ();
        type Out = ();
        fn handle(&mut self, event: Event<()>, _now_ms: u64, _out: &mut Vec<Action<()>>) {
            if matches!(event, Event::Tick) {
                self.0.fetch_add(1, SeqCst);
            }
        }
    }

    /// Ticks coalesce: a loop busy while its handle ticks a thousand times
    /// handles one tick, at the newest reading, and the next tick after
    /// that is handled on its own.
    #[test]
    fn ticks_that_find_one_queued_are_read_by_it() {
        let told = Arc::new(AtomicU64::new(0));
        let handle = spawn_machine(vec![Ticks(told.clone())], Vec::new(), None).unwrap();
        let (release, held) = mpsc::channel::<()>();
        let (busy_tx, busy) = mpsc::channel();
        let _answer = ask(&handle.running.loops[0], move |_| {
            busy_tx.send(()).unwrap();
            held.recv().unwrap();
        })
        .unwrap();
        busy.recv().unwrap();
        for t in 1..=1_000 {
            handle.tick(t);
        }
        handle.tick(7);
        release.send(()).unwrap();
        assert_eq!(handle.with(|_, now, _| now).unwrap(), 1_000, "the newest reading, never back");
        assert_eq!(told.load(SeqCst), 1);
        handle.tick(1_001);
        assert_eq!(handle.with(|_, now, _| now).unwrap(), 1_001);
        assert_eq!(told.load(SeqCst), 2);
        handle.stop();
    }

    /// A handoff is the driver's for any machine: the sibling it names is
    /// told `Accepted` and then the first frame, the far end's next frame
    /// reaches the sibling, which can answer on it, and the machine that
    /// handed the peer on hears nothing more of it — not even its close.
    #[test]
    fn a_handoff_moves_the_peer_to_its_sibling() {
        for at in ["127.0.0.1:0", "mem:driver-handoff"] {
            let ((origin_tx, origin), (sibling_tx, sibling)) = (mpsc::channel(), mpsc::channel());
            let puppets = vec![Puppet(origin_tx), Puppet(sibling_tx)];
            let links = vec![Links::Listen(TransportAddr::parse(at).unwrap())];
            let handle = spawn_machine(puppets, links, None).unwrap();
            let mut far = connect(&handle.addrs[0]).unwrap();
            far.send(msg(0, 1)).unwrap();
            let Event::Accepted(peer, desc) = origin.recv().unwrap() else { panic!("no Accepted") };
            let first = match origin.recv().unwrap() {
                Event::Frame(p, first) if p == peer => first,
                other => panic!("{at}: {other:?}"),
            };
            let to = 1;
            handle.send(vec![Action::Handoff { peer, to, desc: desc.clone(), first }]);

            let Event::Accepted(moved, told) = sibling.recv().unwrap() else { panic!("{at}") };
            assert_eq!(told, desc, "{at}: the far end described as the origin's listener did");
            let next = sibling.recv().unwrap();
            assert!(matches!(&next, Event::Frame(p, x) if *p == moved && x[..] == [1]), "{next:?}");
            far.send(msg(0, 2)).unwrap();
            let next = sibling.recv().unwrap();
            assert!(matches!(&next, Event::Frame(p, x) if *p == moved && x[..] == [2]), "{next:?}");
            // The sibling's loop writes to it: ask it through a `With`.
            let answer = ask(&handle.running.loops[to], move |lp| lp.send(moved, msg(0, 3)));
            answer.unwrap().recv().unwrap();
            let back = far.recv_timeout(Duration::from_secs(5)).unwrap().expect("an answer");
            assert_eq!(back.payload[..], [3], "{at}");

            drop(far);
            assert!(matches!(sibling.recv().unwrap(), Event::Closed(p) if p == moved), "{at}");
            let quiet = Duration::from_millis(100);
            assert!(origin.recv_timeout(quiet).is_err(), "{at}: the origin heard of the peer");
            handle.stop();
        }
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
