//! In-process transport: same interface as the TCP transport, but over
//! unbounded queues through a global name registry.
//!
//! Used for deterministic tests and for single-process experiments where
//! network jitter would obscure the quantity being measured.
//!
//! A direction of a connection is one `Mutex<VecDeque>` + `Condvar`.  A
//! blocking [`MemRecvHalf::recv`] waits on the condvar.  An event loop reads
//! a mem connection as it reads a socket: told of readiness
//! ([`MemRecvHalf::on_arrival`], edge-triggered), it takes message after
//! message ([`MemRecvHalf::try_recv`]) until none is left — so a thousand
//! mem connections cost it no thread.  A listener hands its connections to
//! a callback ([`MemListener::serve`]), which whoever connects calls.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::WireMsg;

/// Locks a mutex of this module.  Every critical section here leaves the
/// queue and flags valid at each step (a push, a pop, a flag set), so a
/// panic in an arrival callback that ran under the lock spoils nothing.
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
    /// Set by `on_arrival`: told when the queue stops being empty, and of
    /// the end.
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
        st.queue.push_back(msg);
        self.chan.ready.notify_one();
        if st.queue.len() == 1 {
            st.arrival.iter().for_each(|arrived| arrived());
        }
        Ok(())
    }
}

impl Drop for MemSendHalf {
    fn drop(&mut self) {
        let mut st = lock(&self.chan.state);
        st.tx_gone = true;
        self.chan.ready.notify_all();
        st.arrival.iter().for_each(|arrived| arrived());
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

    /// The next message if one is queued, `WouldBlock` if none is; `None`
    /// once the peer is gone and every message is taken.
    pub fn try_recv(&mut self) -> io::Result<Option<WireMsg>> {
        self.recv_timeout(Duration::ZERO).map_err(|_| io::ErrorKind::WouldBlock.into())
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Option<WireMsg>> {
        let mut st = lock(&self.chan.state);
        loop {
            if let Some(msg) = st.queue.pop_front() {
                let m = crate::obs();
                m.rx_frames.inc();
                m.rx_bytes.add(msg.payload.len() as u64);
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

    /// Has `arrived` called, on the sender's thread and under the queue's
    /// lock (it must not block), whenever a message finds the queue empty
    /// and when the sender goes — and at once if the queue holds messages
    /// or the sender is gone.  Edge-triggered: a reader told of an arrival
    /// takes messages until it would block, and is told again only once
    /// it has emptied the queue.  The messages stay queued for the reader.
    pub fn on_arrival(&mut self, arrived: Box<dyn Fn() + Send>) {
        let mut st = lock(&self.chan.state);
        if !st.queue.is_empty() || st.tx_gone {
            arrived();
        }
        st.arrival = Some(arrived);
    }
}

impl Drop for MemRecvHalf {
    fn drop(&mut self) {
        let mut st = lock(&self.chan.state);
        st.rx_gone = true;
        let unread = (st.arrival.take(), std::mem::take(&mut st.queue));
        // Outside the lock: what the callback owns may hold other
        // connections.
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
