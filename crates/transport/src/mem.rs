//! In-process transport: same interface as the TCP transport, but over
//! unbounded queues through a global name registry.
//!
//! Used for deterministic tests and for single-process experiments where
//! network jitter would obscure the quantity being measured.
//!
//! A direction of a connection is one `Mutex<VecDeque>` + `Condvar`.  A
//! blocking [`MemRecvHalf::recv`] waits on the condvar; a half that was
//! handed a sink ([`crate::RecvHalf::pump`]) is delivered to by the
//! *sender*, on the sender's thread — so an event loop reading a thousand
//! mem connections spends no thread on any of them.  A listener works the
//! same way: [`MemListener::accept`] blocks, a listener that is served is
//! called by whoever connects.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::{Sink, WireMsg};

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

    pub(crate) fn recv_half(&mut self) -> &mut MemRecvHalf {
        &mut self.rx
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
        match &mut st.sink {
            Some(sink) => sink(Some(msg)),
            None => {
                st.queue.push_back(msg);
                self.chan.ready.notify_one();
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
                return Ok(Some(msg));
            }
            if st.tx_gone {
                return Ok(None);
            }
            st = match deadline {
                None => self.chan.ready.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    let (st, _) = self
                        .chan
                        .ready
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    st
                }
            };
        }
    }

    /// Hands what is queued to `sink`, in order, and leaves `sink` with the
    /// sender for everything after it (`None` once, when the sender goes).
    pub(crate) fn pump(&mut self, mut sink: Sink) {
        let mut st = lock(&self.chan.state);
        while let Some(msg) = st.queue.pop_front() {
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
        let unread = (st.sink.take(), std::mem::take(&mut st.queue));
        // Outside the lock: what the sink owns may hold other connections.
        drop(st);
        drop(unread);
    }
}

/// Called with each inbound connection of a served listener.
pub(crate) type OnConn = Box<dyn FnMut(MemConn) + Send>;

/// What a bound name maps to: connections waiting to be accepted, or the
/// callback that takes them.
#[derive(Default)]
struct Endpoint {
    state: Mutex<EndpointState>,
    ready: Condvar,
}

#[derive(Default)]
struct EndpointState {
    backlog: VecDeque<MemConn>,
    on_conn: Option<OnConn>,
    closed: bool,
}

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
    /// Registers `name` in the global registry.
    pub fn bind(name: &str) -> io::Result<Self> {
        let mut reg = lock(registry());
        if reg.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("mem endpoint {name} already bound"),
            ));
        }
        let endpoint = Arc::new(Endpoint::default());
        reg.insert(name.to_owned(), endpoint.clone());
        Ok(MemListener { name: name.to_owned(), endpoint })
    }

    /// Accepts the next inbound connection.
    pub fn accept(&mut self) -> io::Result<MemConn> {
        let mut st = lock(&self.endpoint.state);
        loop {
            if let Some(conn) = st.backlog.pop_front() {
                return Ok(conn);
            }
            st = self.endpoint.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands the backlog to `on_conn` and leaves `on_conn` with the
    /// dialers for every connection after it.
    pub(crate) fn serve(&mut self, mut on_conn: OnConn) {
        let mut st = lock(&self.endpoint.state);
        while let Some(conn) = st.backlog.pop_front() {
            on_conn(conn);
        }
        st.on_conn = Some(on_conn);
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        lock(registry()).remove(&self.name);
        let mut st = lock(&self.endpoint.state);
        st.closed = true;
        let unserved = (st.on_conn.take(), std::mem::take(&mut st.backlog));
        drop(st);
        drop(unserved);
    }
}

/// Connects to the listener registered under `name`.
pub fn connect(name: &str) -> io::Result<MemConn> {
    let endpoint = lock(registry()).get(name).cloned().ok_or_else(|| {
        io::Error::new(io::ErrorKind::ConnectionRefused, format!("no mem endpoint {name}"))
    })?;
    let (server_side, client_side) = MemConn::pair(name);
    let mut st = lock(&endpoint.state);
    if st.closed {
        return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "listener gone"));
    }
    match &mut st.on_conn {
        Some(on_conn) => on_conn(server_side),
        None => {
            st.backlog.push_back(server_side);
            endpoint.ready.notify_one();
        }
    }
    Ok(client_side)
}
