//! In-process transport: same interface as the TCP transport, but over
//! unbounded queues through a global name registry.
//!
//! Used for deterministic tests and for single-process experiments where
//! network jitter would obscure the quantity being measured.
//!
//! A direction of a connection is one `Mutex<VecDeque>` + `Condvar`.  A
//! blocking [`MemRecvHalf::recv`] waits on the condvar; a half that was
//! handed a sink ([`MemRecvHalf::pump`]) is delivered to by the *sender*,
//! on the sender's thread — so an event loop reading a thousand mem
//! connections spends no thread on any of them.  A listener works the same
//! way: its callback ([`MemListener::serve`]) is called by whoever connects.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::WireMsg;

/// Where a pumped receive half puts what arrives: each message in order,
/// then `None` once, when the sender goes.  It is called on the sender's
/// thread and must not block.
pub type Sink = Box<dyn FnMut(Option<WireMsg>) + Send>;

/// Counts a message as received: when it is popped, or handed to a sink.
fn note_rx(msg: &WireMsg) {
    let m = crate::obs();
    m.rx_frames.inc();
    m.rx_bytes.add(msg.payload.len() as u64);
}

/// Locks a mutex of this module.  Every critical section here leaves the
/// queue and flags valid at each step (a push, a pop, a flag set), so a
/// panic in a sink that ran under the lock spoils nothing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One direction of a connection.
#[derive(Default)]
struct Chan {
    state: Mutex<ChanState>,
    ready: Condvar,
}

#[derive(Default)]
struct ChanState {
    queue: VecDeque<WireMsg>,
    /// Set by `pump`: messages go here instead of the queue.
    sink: Option<Sink>,
    /// Set by `on_arrival`: told of each message queued, and of the end.
    arrival: Option<Box<dyn Fn() + Send>>,
    tx_gone: bool,
    rx_gone: bool,
}

impl std::fmt::Debug for Chan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Chan")
    }
}

static CONN_IDS: AtomicU64 = AtomicU64::new(0);

/// A connected in-process transport.
#[derive(Debug)]
pub struct MemConn {
    tx: MemSendHalf,
    rx: MemRecvHalf,
    peer: String,
}

impl MemConn {
    fn pair(name: &str) -> (MemConn, MemConn) {
        let id = CONN_IDS.fetch_add(1, Ordering::Relaxed);
        let (up, down) = (Arc::new(Chan::default()), Arc::new(Chan::default()));
        let a = MemConn {
            tx: MemSendHalf { chan: down.clone() },
            rx: MemRecvHalf { chan: up.clone() },
            peer: format!("mem:{name}#{id}"),
        };
        let b = MemConn {
            tx: MemSendHalf { chan: up },
            rx: MemRecvHalf { chan: down },
            peer: format!("mem:{name}#{id}-client"),
        };
        (a, b)
    }

    /// Sends one message.
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        self.tx.send(msg)
    }

    /// Receives the next message; `None` once the peer is gone.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.rx.recv()
    }

    /// Splits into owned halves.
    pub fn split(self) -> (MemSendHalf, MemRecvHalf) {
        (self.tx, self.rx)
    }

    /// Peer description, for logs.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }

    /// [`MemRecvHalf::on_arrival`].
    pub fn on_arrival(&mut self, arrived: Box<dyn Fn() + Send>) {
        self.rx.on_arrival(arrived)
    }

    /// [`MemRecvHalf::recv_timeout`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        self.rx.recv_timeout(timeout)
    }
}

/// Owned send half.  Never blocks.
#[derive(Debug)]
pub struct MemSendHalf {
    chan: Arc<Chan>,
}

impl MemSendHalf {
    /// Sends one message.
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        let mut st = lock(&self.chan.state);
        if st.rx_gone {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        let m = crate::obs();
        m.tx_frames.inc();
        m.tx_bytes.add(msg.payload.len() as u64);
        let _t = m.write_ns.timer();
        match &mut st.sink {
            Some(sink) => {
                note_rx(&msg);
                sink(Some(msg))
            }
            None => {
                st.queue.push_back(msg);
                self.chan.ready.notify_one();
                st.arrival.iter().for_each(|arrived| arrived());
            }
        }
        Ok(())
    }
}

impl Drop for MemSendHalf {
    fn drop(&mut self) {
        let mut st = lock(&self.chan.state);
        st.tx_gone = true;
        let sink = st.sink.take();
        self.chan.ready.notify_all();
        st.arrival.iter().for_each(|arrived| arrived());
        // Outside the lock: what the sink owns may hold other connections.
        drop(st);
        if let Some(mut sink) = sink {
            sink(None);
        }
    }
}

/// Owned receive half.
#[derive(Debug)]
pub struct MemRecvHalf {
    chan: Arc<Chan>,
}

impl MemRecvHalf {
    /// Receives the next message; `None` once the peer is gone.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.recv_until(None)
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Option<WireMsg>> {
        let mut st = lock(&self.chan.state);
        loop {
            if let Some(msg) = st.queue.pop_front() {
                note_rx(&msg);
                return Ok(Some(msg));
            }
            if st.tx_gone {
                return Ok(None);
            }
            st = match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                None => self.chan.ready.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(Duration::ZERO) => return Err(io::ErrorKind::TimedOut.into()),
                Some(left) => {
                    self.chan.ready.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// Has `arrived` called, on the sender's thread, whenever a message is
    /// queued and when the sender goes — and at once if either has
    /// happened.  The messages stay queued for [`recv`](Self::recv).
    pub fn on_arrival(&mut self, arrived: Box<dyn Fn() + Send>) {
        let mut st = lock(&self.chan.state);
        if !st.queue.is_empty() || st.tx_gone {
            arrived();
        }
        st.arrival = Some(arrived);
    }

    /// Hands what is queued to `sink`, in order, and leaves `sink` with the
    /// sender for everything after it (`None` once, when the sender goes).
    /// Dropping the half ends the delivery: the peer's sends fail from
    /// then on.
    pub fn pump(&mut self, mut sink: Sink) {
        let mut st = lock(&self.chan.state);
        st.arrival = None;
        while let Some(msg) = st.queue.pop_front() {
            note_rx(&msg);
            sink(Some(msg));
        }
        if st.tx_gone {
            sink(None);
        } else {
            st.sink = Some(sink);
        }
    }
}

impl Drop for MemRecvHalf {
    fn drop(&mut self) {
        let mut st = lock(&self.chan.state);
        st.rx_gone = true;
        let unread = (st.sink.take(), st.arrival.take(), std::mem::take(&mut st.queue));
        // Outside the lock: what the sink owns may hold other connections.
        drop(st);
        drop(unread);
    }
}

/// Called with each inbound connection of a served listener, on the
/// dialer's thread; it must not block.
pub type OnConn = Box<dyn FnMut(MemConn) + Send>;

/// What a bound name maps to: the callback that takes its connections,
/// once the listener is served and until it is dropped.
type Endpoint = Mutex<Option<OnConn>>;

type Registry = Mutex<HashMap<String, Arc<Endpoint>>>;

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A named in-process listener.  Dropping it frees the name.
pub struct MemListener {
    name: String,
    endpoint: Arc<Endpoint>,
}

impl std::fmt::Debug for MemListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemListener").field("name", &self.name).finish()
    }
}

impl MemListener {
    /// Registers `name` in the global registry.  Dials are refused until
    /// the listener is [served](Self::serve).
    pub fn bind(name: &str) -> io::Result<Self> {
        let mut reg = lock(registry());
        if reg.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("mem endpoint {name} already bound"),
            ));
        }
        let endpoint = Arc::new(Mutex::new(None));
        reg.insert(name.to_owned(), endpoint.clone());
        Ok(MemListener { name: name.to_owned(), endpoint })
    }

    /// Leaves `on_conn` with the dialers for every connection from now
    /// on, until the listener is dropped.
    pub fn serve(&mut self, on_conn: OnConn) {
        *lock(&self.endpoint) = Some(on_conn);
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        lock(registry()).remove(&self.name);
        // Dropped outside the lock: what the callback owns may hold other
        // connections.
        let on_conn = lock(&self.endpoint).take();
        drop(on_conn);
    }
}

/// Connects to the listener registered under `name`.
pub fn connect(name: &str) -> io::Result<MemConn> {
    let endpoint = lock(registry()).get(name).cloned().ok_or_else(|| {
        io::Error::new(io::ErrorKind::ConnectionRefused, format!("no mem endpoint {name}"))
    })?;
    let (server_side, client_side) = MemConn::pair(name);
    match &mut *lock(&endpoint) {
        Some(on_conn) => on_conn(server_side),
        None => return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "not accepting")),
    }
    Ok(client_side)
}
