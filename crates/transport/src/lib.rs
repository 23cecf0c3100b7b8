//! Message-oriented transport abstraction for the E2 interface.
//!
//! O-RAN mandates SCTP as the E2 transport, but the FlexRIC paper abstracts
//! it away: "a wrapper is created to abstract the communication interface
//! allowing to easily switch between different transport protocols" (§4.3).
//! This crate is that wrapper.  Two transports are provided:
//!
//! * [`tcp`] — an SCTP-like framed transport over TCP: message boundaries,
//!   a stream id and a payload protocol id (PPID) per message, preserving
//!   the properties E2 actually relies on (reliable, ordered, message
//!   oriented).  Native SCTP is not practical in pure Rust; this is the
//!   substitution documented in DESIGN.md.
//! * [`mem`] — an in-process channel transport with the same interface, for
//!   deterministic tests and single-process experiments.
//!
//! Every call blocks the calling thread: [`Transport::send`] until the
//! message is with the kernel (or in the peer's queue), [`Transport::recv`]
//! until one arrives.  An event loop that must do neither hands the receive
//! half a sink ([`RecvHalf::pump`]) and a listener a callback
//! ([`Listener::serve`]): over TCP that costs one small-stack thread each,
//! over [`mem`] none — the sender and the dialer do the calling.
//!
//! There is no fault injection here: faults are scripted on the
//! deterministic wire of `tests/protocol.rs`, not in the I/O path.

pub mod frame;
pub mod mem;
pub mod rx;
pub mod tcp;

use bytes::Bytes;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire-level counters and the write-latency span, shared by all transport
/// instances.  Registered as a block on first use so the transport layer is
/// always present in `/metrics`.
pub(crate) struct TransportMetrics {
    pub tx_frames: flexric_obs::Counter,
    pub tx_bytes: flexric_obs::Counter,
    pub rx_frames: flexric_obs::Counter,
    pub rx_bytes: flexric_obs::Counter,
    pub write_ns: flexric_obs::Histogram,
    /// Complete frames delivered by each socket read — the coalescing win
    /// of the zero-copy receive path (N frames per wakeup vs 1).
    pub read_frames_per_wakeup: flexric_obs::Histogram,
}

pub(crate) fn obs() -> &'static TransportMetrics {
    static M: std::sync::OnceLock<TransportMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| TransportMetrics {
        tx_frames: flexric_obs::counter("flexric_transport_tx_frames_total", "frames sent"),
        tx_bytes: flexric_obs::counter("flexric_transport_tx_bytes_total", "payload bytes sent"),
        rx_frames: flexric_obs::counter("flexric_transport_rx_frames_total", "frames received"),
        rx_bytes: flexric_obs::counter(
            "flexric_transport_rx_bytes_total",
            "payload bytes received",
        ),
        write_ns: flexric_obs::histogram(
            "flexric_transport_write_ns",
            "transport write latency (frame + flush, including backpressure); sampled: 1 call in 16 timed",
        ),
        read_frames_per_wakeup: flexric_obs::histogram(
            "flexric_transport_read_frames_per_wakeup",
            "complete frames delivered by one socket read",
        ),
    })
}

/// One transport-level message (the unit SCTP would deliver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// Stream id (SCTP stream); E2AP uses stream 0 for global procedures
    /// and nonzero streams for functional traffic.
    pub stream: u16,
    /// Payload protocol id; E2AP is PPID 70 per IANA.
    pub ppid: u32,
    /// The encoded E2AP PDU.
    pub payload: Bytes,
}

impl WireMsg {
    /// PPID assigned to E2AP.
    pub const PPID_E2AP: u32 = 70;

    /// Stream carrying global/control procedures (setup, subscription,
    /// control) — prioritized by the conn writer under load.
    pub const STREAM_CONTROL: u16 = 0;

    /// Stream carrying bulk functional traffic (RIC indications).
    pub const STREAM_BULK: u16 = 1;

    /// Convenience constructor for E2AP traffic on stream 0.
    pub fn e2ap(payload: Bytes) -> Self {
        WireMsg { stream: Self::STREAM_CONTROL, ppid: Self::PPID_E2AP, payload }
    }

    /// E2AP traffic on an explicit stream.
    pub fn e2ap_on(stream: u16, payload: Bytes) -> Self {
        WireMsg { stream, ppid: Self::PPID_E2AP, payload }
    }

    /// True for control-procedure traffic (stream 0), which overtakes
    /// queued bulk indications in the writer task.
    pub fn is_control(&self) -> bool {
        self.stream == Self::STREAM_CONTROL
    }
}

/// Address of a transport endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransportAddr {
    /// TCP socket address (SCTP-like framing on top).
    Tcp(std::net::SocketAddr),
    /// Named in-process endpoint.
    Mem(String),
}

impl TransportAddr {
    /// Parses `"mem:name"` or `"host:port"`.
    pub fn parse(s: &str) -> io::Result<Self> {
        if let Some(name) = s.strip_prefix("mem:") {
            Ok(TransportAddr::Mem(name.to_owned()))
        } else {
            s.parse()
                .map(TransportAddr::Tcp)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
        }
    }
}

impl fmt::Display for TransportAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportAddr::Tcp(a) => write!(f, "{a}"),
            TransportAddr::Mem(n) => write!(f, "mem:{n}"),
        }
    }
}

/// Stack of the threads this crate (and an event loop on top of it) parks
/// in a blocking read, write or accept: they call a few frames deep and
/// there may be thousands of them.
const IO_THREAD_STACK: usize = 128 * 1024;

/// Spawns a thread for blocking socket work, on a small fixed stack.
pub fn spawn_io_thread(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.to_owned()).stack_size(IO_THREAD_STACK).spawn(f)
}

fn note_rx(msg: &WireMsg) {
    let m = obs();
    m.rx_frames.inc();
    m.rx_bytes.add(msg.payload.len() as u64);
}

/// A connected, bidirectional, message-oriented transport.
#[derive(Debug)]
pub enum Transport {
    /// SCTP-like framing over TCP.
    Tcp(tcp::TcpConn),
    /// In-process channels.
    Mem(mem::MemConn),
}

impl Transport {
    /// Sends one message.
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        let m = obs();
        m.tx_frames.inc();
        m.tx_bytes.add(msg.payload.len() as u64);
        let _t = m.write_ns.timer();
        match self {
            Transport::Tcp(c) => c.send(msg),
            Transport::Mem(c) => c.send(msg),
        }
    }

    /// Receives the next message; `None` on orderly shutdown.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let res = match self {
            Transport::Tcp(c) => c.recv(),
            Transport::Mem(c) => c.recv(),
        };
        if let Ok(Some(msg)) = &res {
            note_rx(msg);
        }
        res
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut` once
    /// `timeout` has passed without a complete message.  The transport
    /// stays usable: nothing that did arrive is lost.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        let res = match self {
            Transport::Tcp(c) => c.recv_half().recv_timeout(timeout),
            Transport::Mem(c) => c.recv_half().recv_timeout(timeout),
        };
        if let Ok(Some(msg)) = &res {
            note_rx(msg);
        }
        res
    }

    /// Splits into independently owned send and receive halves.
    pub fn split(self) -> (SendHalf, RecvHalf) {
        match self {
            Transport::Tcp(c) => {
                let (tx, rx) = c.split();
                (SendHalf::Tcp(tx), RecvHalf::Tcp(rx))
            }
            Transport::Mem(c) => {
                let (tx, rx) = c.split();
                (SendHalf::Mem(tx), RecvHalf::Mem(rx))
            }
        }
    }

    /// Description of the peer, for logs.
    pub fn peer(&self) -> String {
        match self {
            Transport::Tcp(c) => c.peer(),
            Transport::Mem(c) => c.peer(),
        }
    }
}

/// Owned send half of a [`Transport`].
#[derive(Debug)]
pub enum SendHalf {
    /// TCP half: a send blocks while the peer's window is closed.
    Tcp(tcp::TcpSendHalf),
    /// Mem half: a send never blocks.
    Mem(mem::MemSendHalf),
}

impl SendHalf {
    /// Sends one message.
    pub fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        let m = obs();
        m.tx_frames.inc();
        m.tx_bytes.add(msg.payload.len() as u64);
        let _t = m.write_ns.timer();
        match self {
            SendHalf::Tcp(c) => c.send(msg),
            SendHalf::Mem(c) => c.send(msg),
        }
    }

    /// Sends a batch of messages; over TCP this issues a single flush.
    pub fn send_batch(&mut self, msgs: Vec<WireMsg>) -> io::Result<()> {
        let m = obs();
        m.tx_frames.add(msgs.len() as u64);
        m.tx_bytes.add(msgs.iter().map(|w| w.payload.len() as u64).sum());
        let _t = m.write_ns.timer();
        match self {
            SendHalf::Tcp(c) => c.send_batch(&msgs),
            SendHalf::Mem(c) => msgs.into_iter().try_for_each(|w| c.send(w)),
        }
    }
}

/// Where a pumped receive half puts what arrives: each message in order,
/// then `None` once, when the connection ends (orderly or not).  It is
/// called from another thread and must not block.
pub type Sink = Box<dyn FnMut(Option<WireMsg>) + Send>;

/// Owned receive half of a [`Transport`].
#[derive(Debug)]
pub enum RecvHalf {
    /// TCP half.
    Tcp(tcp::TcpRecvHalf),
    /// Mem half.
    Mem(mem::MemRecvHalf),
}

impl RecvHalf {
    /// Receives the next message; `None` on orderly shutdown.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let res = match self {
            RecvHalf::Tcp(c) => c.recv(),
            RecvHalf::Mem(c) => c.recv(),
        };
        if let Ok(Some(msg)) = &res {
            note_rx(msg);
        }
        res
    }

    /// Turns the half around: instead of the caller blocking in `recv`,
    /// `sink` is called with every message.  Over TCP a small-stack thread
    /// does the reading; over mem the peer's `send` calls `sink` itself.
    /// Delivery stops when the returned [`Pump`] is dropped.
    pub fn pump(self, mut sink: Sink) -> io::Result<Pump> {
        let mut counted: Sink = Box::new(move |msg| {
            if let Some(msg) = &msg {
                note_rx(msg);
            }
            sink(msg)
        });
        match self {
            RecvHalf::Tcp(mut half) => {
                let sock = half.socket();
                let reader = spawn_io_thread("flexric-rx", move || loop {
                    match half.recv() {
                        Ok(Some(msg)) => counted(Some(msg)),
                        Ok(None) | Err(_) => break counted(None),
                    }
                })?;
                Ok(Pump(PumpKind::Tcp { sock, reader: Some(reader) }))
            }
            RecvHalf::Mem(mut half) => {
                half.pump(counted);
                Ok(Pump(PumpKind::Mem(half)))
            }
        }
    }
}

/// A receive half that is delivering to a [`Sink`].  Dropping it ends the
/// delivery — over TCP by shutting the socket's read direction down, which
/// wakes the reader thread, and waiting for that thread — and with it the
/// receive half: the peer's sends fail from then on.
#[derive(Debug)]
pub struct Pump(PumpKind);

#[derive(Debug)]
enum PumpKind {
    Tcp { sock: tcp::Sock, reader: Option<JoinHandle<()>> },
    Mem(#[allow(dead_code)] mem::MemRecvHalf),
}

impl Drop for Pump {
    fn drop(&mut self) {
        if let PumpKind::Tcp { sock, reader } = &mut self.0 {
            sock.shutdown_read();
            // The reader only reads and calls the sink, which must not
            // block: it is on its way out.  Its panic, if any, was the
            // sink's and is the sink owner's to report.
            let _ = reader.take().map(JoinHandle::join);
        }
    }
}

/// Called with each inbound connection of a served [`Listener`], from
/// another thread; it must not block.
pub type OnConn = Box<dyn FnMut(Transport) + Send>;

/// A listener accepting transport connections.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// In-process listener.
    Mem(mem::MemListener),
}

/// Frames a connected socket.
fn framed(stream: TcpStream) -> io::Result<Transport> {
    Ok(Transport::Tcp(tcp::TcpConn::new(stream)?))
}

impl Listener {
    /// Accepts the next inbound connection.
    pub fn accept(&mut self) -> io::Result<Transport> {
        match self {
            Listener::Tcp(l) => framed(l.accept()?.0),
            Listener::Mem(l) => Ok(Transport::Mem(l.accept()?)),
        }
    }

    /// The address this listener is bound to (with the ephemeral port
    /// resolved for TCP).
    pub fn local_addr(&self) -> io::Result<TransportAddr> {
        match self {
            Listener::Tcp(l) => Ok(TransportAddr::Tcp(l.local_addr()?)),
            Listener::Mem(l) => Ok(TransportAddr::Mem(l.name().to_owned())),
        }
    }

    /// Turns the listener around: `on_conn` is called with every inbound
    /// connection.  Over TCP a small-stack thread does the accepting; over
    /// mem the dialer's `connect` calls `on_conn` itself.  The address is
    /// free again when dropping the returned [`Serving`] returns.
    pub fn serve(self, mut on_conn: OnConn) -> io::Result<Serving> {
        match self {
            Listener::Tcp(l) => {
                let mut wake = l.local_addr()?;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake {
                        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let stop = Arc::new(AtomicBool::new(false));
                let stopped = stop.clone();
                let thread = spawn_io_thread("flexric-accept", move || loop {
                    let stream = match l.accept() {
                        Ok((stream, _)) => stream,
                        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    };
                    // `SeqCst`: the flag is all the waker and this thread
                    // share; the connection that woke us is the waker's.
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(transport) = framed(stream) {
                        on_conn(transport);
                    }
                })?;
                Ok(Serving(ServingKind::Tcp { stop, wake, thread: Some(thread) }))
            }
            Listener::Mem(mut l) => {
                l.serve(Box::new(move |conn| on_conn(Transport::Mem(conn))));
                Ok(Serving(ServingKind::Mem(l)))
            }
        }
    }
}

/// A listener that is calling an [`OnConn`].  Dropping it stops that and
/// closes the listener: when `drop` returns the address can be bound again.
#[derive(Debug)]
pub struct Serving(ServingKind);

#[derive(Debug)]
enum ServingKind {
    Tcp { stop: Arc<AtomicBool>, wake: SocketAddr, thread: Option<JoinHandle<()>> },
    Mem(#[allow(dead_code)] mem::MemListener),
}

impl Drop for Serving {
    fn drop(&mut self) {
        if let ServingKind::Tcp { stop, wake, thread } = &mut self.0 {
            stop.store(true, Ordering::SeqCst);
            // std has no way to interrupt `accept`: a connection to
            // ourselves does.  The thread owns the listener, so the socket
            // is closed once it is joined; if we cannot even connect, it
            // is left to end with the process.
            if TcpStream::connect_timeout(wake, Duration::from_secs(1)).is_ok() {
                let _ = thread.take().map(JoinHandle::join);
            }
        }
    }
}

/// Binds a listener at `addr`.
pub fn listen(addr: &TransportAddr) -> io::Result<Listener> {
    match addr {
        TransportAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
        TransportAddr::Mem(name) => Ok(Listener::Mem(mem::MemListener::bind(name)?)),
    }
}

/// Connects to a listener at `addr`.
pub fn connect(addr: &TransportAddr) -> io::Result<Transport> {
    match addr {
        TransportAddr::Tcp(a) => framed(TcpStream::connect(a)?),
        TransportAddr::Mem(name) => Ok(Transport::Mem(mem::connect(name)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn mem(name: &str) -> TransportAddr {
        TransportAddr::Mem(name.into())
    }

    fn loopback() -> (Listener, TransportAddr) {
        let l = listen(&TransportAddr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = l.local_addr().unwrap();
        (l, addr)
    }

    #[test]
    fn addr_parse_and_display() {
        let a = TransportAddr::parse("mem:agent0").unwrap();
        assert_eq!(a, TransportAddr::Mem("agent0".into()));
        assert_eq!(a.to_string(), "mem:agent0");
        let t = TransportAddr::parse("127.0.0.1:36421").unwrap();
        assert!(matches!(t, TransportAddr::Tcp(_)));
        assert_eq!(t.to_string(), "127.0.0.1:36421");
        assert!(TransportAddr::parse("not an addr").is_err());
    }

    #[test]
    fn mem_roundtrip() {
        let mut l = listen(&mem("t-mem-rt")).unwrap();
        let client = thread::spawn(move || {
            let mut c = connect(&mem("t-mem-rt")).unwrap();
            c.send(WireMsg::e2ap(Bytes::from_static(b"ping"))).unwrap();
            c.recv().unwrap().unwrap()
        });
        let mut server_side = l.accept().unwrap();
        let got = server_side.recv().unwrap().unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"ping"));
        assert_eq!(got.ppid, WireMsg::PPID_E2AP);
        server_side.send(WireMsg::e2ap(Bytes::from_static(b"pong"))).unwrap();
        let reply = client.join().unwrap();
        assert_eq!(reply.payload, Bytes::from_static(b"pong"));
    }

    #[test]
    fn tcp_roundtrip_with_streams() {
        let (mut l, addr) = loopback();
        let client = thread::spawn(move || {
            let mut c = connect(&addr).unwrap();
            for i in 0..10u16 {
                c.send(WireMsg { stream: i, ppid: 70, payload: Bytes::from(vec![i as u8; 100]) })
                    .unwrap();
            }
            let mut last = None;
            for _ in 0..10 {
                last = c.recv().unwrap();
            }
            last
        });
        let mut conn = l.accept().unwrap();
        for i in 0..10u16 {
            let m = conn.recv().unwrap().unwrap();
            assert_eq!(m.stream, i, "ordering preserved");
            assert_eq!(m.payload.len(), 100);
            conn.send(m).unwrap();
        }
        let last = client.join().unwrap().unwrap();
        assert_eq!(last.stream, 9);
    }

    #[test]
    fn recv_returns_none_on_close() {
        let mut l = listen(&mem("t-close")).unwrap();
        drop(connect(&mem("t-close")).unwrap());
        let mut conn = l.accept().unwrap();
        assert!(conn.recv().unwrap().is_none());
    }

    #[test]
    fn tcp_recv_none_on_close() {
        let (mut l, addr) = loopback();
        drop(connect(&addr).unwrap());
        let mut conn = l.accept().unwrap();
        assert!(conn.recv().unwrap().is_none());
    }

    #[test]
    fn split_halves_work_concurrently() {
        let mut l = listen(&mem("t-split")).unwrap();
        let echo = thread::spawn(move || {
            let conn = l.accept().unwrap();
            let (mut tx, mut rx) = conn.split();
            while let Some(m) = rx.recv().unwrap() {
                tx.send(m).unwrap();
            }
        });
        let conn = connect(&mem("t-split")).unwrap();
        let (mut tx, mut rx) = conn.split();
        for i in 0..100u32 {
            tx.send(WireMsg { stream: 0, ppid: i, payload: Bytes::new() }).unwrap();
        }
        for i in 0..100u32 {
            let m = rx.recv().unwrap().unwrap();
            assert_eq!(m.ppid, i);
        }
        drop(tx);
        drop(rx);
        echo.join().unwrap();
    }

    #[test]
    fn connect_to_missing_mem_endpoint_fails() {
        assert!(connect(&mem("nobody-here")).is_err());
    }

    #[test]
    fn double_bind_mem_fails() {
        let _l = listen(&mem("t-dup")).unwrap();
        assert!(listen(&mem("t-dup")).is_err());
    }

    #[test]
    fn mem_name_freed_on_drop() {
        {
            let _l = listen(&mem("t-free")).unwrap();
        }
        // Listener dropped: the name can be reused.
        let _l2 = listen(&mem("t-free")).unwrap();
    }

    #[test]
    fn large_message_over_tcp() {
        let (mut l, addr) = loopback();
        let payload = Bytes::from(vec![0x5Au8; 4 * 1024 * 1024]);
        let p2 = payload.clone();
        let client = thread::spawn(move || {
            let mut c = connect(&addr).unwrap();
            c.send(WireMsg::e2ap(p2)).unwrap();
        });
        let mut conn = l.accept().unwrap();
        let m = conn.recv().unwrap().unwrap();
        assert_eq!(m.payload, payload);
        client.join().unwrap();
    }

    #[test]
    fn recv_timeout_gives_up_and_loses_nothing() {
        for (mut l, addr) in [loopback(), (listen(&mem("t-timeout")).unwrap(), mem("t-timeout"))] {
            let mut c = connect(&addr).unwrap();
            let mut conn = l.accept().unwrap();
            let err = conn.recv_timeout(Duration::from_millis(20)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{addr}");
            c.send(WireMsg::e2ap(Bytes::from_static(b"late"))).unwrap();
            let m = conn.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(m.payload, Bytes::from_static(b"late"), "{addr}");
        }
    }

    /// What a pumped half delivers, as a channel a test can wait on.
    fn sink() -> (Sink, mpsc::Receiver<Option<WireMsg>>) {
        let (tx, rx) = mpsc::channel();
        (
            Box::new(move |m| {
                let _ = tx.send(m);
            }),
            rx,
        )
    }

    #[test]
    fn pump_delivers_in_order_then_the_close() {
        for (mut l, addr) in [loopback(), (listen(&mem("t-pump")).unwrap(), mem("t-pump"))] {
            let mut c = connect(&addr).unwrap();
            let conn = l.accept().unwrap();
            // One message before the sink is in place, the rest after.
            c.send(WireMsg::e2ap_on(0, Bytes::from_static(b"m"))).unwrap();
            let (_tx, rx) = conn.split();
            let (sink, got) = sink();
            let _pump = rx.pump(sink).unwrap();
            for i in 1..50u16 {
                c.send(WireMsg::e2ap_on(i, Bytes::from_static(b"m"))).unwrap();
            }
            drop(c);
            for i in 0..50u16 {
                assert_eq!(got.recv().unwrap().unwrap().stream, i, "{addr}");
            }
            assert!(got.recv().unwrap().is_none(), "{addr}: close is delivered once");
            assert!(got.recv().is_err(), "{addr}: and the sink is dropped after it");
        }
    }

    #[test]
    fn dropping_a_pump_ends_the_receive_half() {
        let (mut l, addr) = loopback();
        let mut c = connect(&addr).unwrap();
        let (_tx, rx) = l.accept().unwrap().split();
        let (sink, got) = sink();
        drop(rx.pump(sink).unwrap()); // joins the reader: no sleep needed
        assert!(got.recv().unwrap().is_none(), "the reader saw end-of-stream");
        assert!(got.recv().is_err(), "and is gone");

        let mut l = listen(&mem("t-pump-drop")).unwrap();
        let mut c2 = connect(&mem("t-pump-drop")).unwrap();
        let (_tx, rx) = l.accept().unwrap().split();
        let (sink, got) = self::sink();
        drop(rx.pump(sink).unwrap());
        assert!(c2.send(WireMsg::e2ap(Bytes::new())).is_err(), "peer's sends fail");
        assert!(got.recv().is_err(), "nothing was delivered");
        let _ = c.send(WireMsg::e2ap(Bytes::new()));
    }

    #[test]
    fn serving_calls_back_and_frees_the_address_on_drop() {
        for (l, addr) in [loopback(), (listen(&mem("t-serve")).unwrap(), mem("t-serve"))] {
            let (tx, conns) = mpsc::channel();
            let serving = l
                .serve(Box::new(move |t| {
                    let _ = tx.send(t);
                }))
                .unwrap();
            let mut c = connect(&addr).unwrap();
            c.send(WireMsg::e2ap(Bytes::from_static(b"hi"))).unwrap();
            let mut conn = conns.recv().unwrap();
            assert_eq!(conn.recv().unwrap().unwrap().payload, Bytes::from_static(b"hi"));
            drop(serving);
            // No sleep: the drop closed the listener.
            let _again = listen(&addr).unwrap_or_else(|e| panic!("{addr} re-binds at once: {e}"));
            assert!(conns.recv().is_err(), "{addr}: the callback is gone");
        }
    }
}
