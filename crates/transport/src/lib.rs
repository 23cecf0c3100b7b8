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
//! A [`Transport`] blocks its caller: [`Transport::send`] until the message
//! is with the kernel (or in the peer's queue), [`Transport::recv`] until
//! one arrives.  An event loop blocks in one place instead, [`poll`]'s
//! `epoll` wait, and reads every connection one way: told that it is ready
//! — by the poller for a non-blocking [`tcp::TcpConn`], by
//! [`mem::MemRecvHalf::on_arrival`] for a mem one — it takes message after
//! message until the next would block.  A mem listener hands what it
//! accepts to a callback ([`mem::MemListener::serve`]), which the dialer's
//! `connect` calls.
//!
//! There is no fault injection here: faults are scripted on the
//! deterministic wire of `flexric::wire`, not in the I/O path.

pub mod frame;
pub mod mem;
pub mod poll;
pub mod rx;
pub mod tcp;

use bytes::Bytes;
use std::fmt;
use std::io;
use std::net::{TcpListener, TcpStream};
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
        match self {
            Transport::Tcp(c) => c.send(msg),
            Transport::Mem(c) => c.send(msg),
        }
    }

    /// Receives the next message; `None` on orderly shutdown.
    pub fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        match self {
            Transport::Tcp(c) => c.recv(),
            Transport::Mem(c) => c.recv(),
        }
    }

    /// [`recv`](Self::recv) that gives up with `ErrorKind::TimedOut` once
    /// `timeout` has passed without a complete message.  The transport
    /// stays usable: nothing that did arrive is lost.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<WireMsg>> {
        match self {
            Transport::Tcp(c) => c.recv_timeout(timeout),
            Transport::Mem(c) => c.recv_timeout(timeout),
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

/// A bound listener: an event loop takes its connections, by readiness
/// (TCP) or by callback ([`mem::MemListener::serve`]).
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// In-process listener.
    Mem(mem::MemListener),
}

impl Listener {
    /// The address this listener is bound to (with the ephemeral port
    /// resolved for TCP).
    pub fn local_addr(&self) -> io::Result<TransportAddr> {
        match self {
            Listener::Tcp(l) => Ok(TransportAddr::Tcp(l.local_addr()?)),
            Listener::Mem(l) => Ok(TransportAddr::Mem(l.name().to_owned())),
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
        TransportAddr::Tcp(a) => Ok(Transport::Tcp(tcp::TcpConn::new(TcpStream::connect(a)?)?)),
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

    fn loopback() -> (TcpListener, TransportAddr) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = TransportAddr::Tcp(l.local_addr().unwrap());
        (l, addr)
    }

    fn accept(l: &TcpListener) -> Transport {
        Transport::Tcp(tcp::TcpConn::new(l.accept().unwrap().0).unwrap())
    }

    /// A served mem listener and the connections it is handed.
    fn mem_listener(name: &str) -> (mem::MemListener, mpsc::Receiver<mem::MemConn>) {
        let mut l = mem::MemListener::bind(name).unwrap();
        let (tx, conns) = mpsc::channel();
        l.serve(Box::new(move |conn| drop(tx.send(conn))));
        (l, conns)
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
        let (_l, conns) = mem_listener("t-mem-rt");
        let client = thread::spawn(move || {
            let mut c = connect(&mem("t-mem-rt")).unwrap();
            c.send(WireMsg::e2ap(Bytes::from_static(b"ping"))).unwrap();
            c.recv().unwrap().unwrap()
        });
        let mut server_side = conns.recv().unwrap();
        let got = server_side.recv().unwrap().unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"ping"));
        assert_eq!(got.ppid, WireMsg::PPID_E2AP);
        server_side.send(WireMsg::e2ap(Bytes::from_static(b"pong"))).unwrap();
        let reply = client.join().unwrap();
        assert_eq!(reply.payload, Bytes::from_static(b"pong"));
    }

    #[test]
    fn tcp_roundtrip_with_streams() {
        let (l, addr) = loopback();
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
        let mut conn = accept(&l);
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
        let (_l, conns) = mem_listener("t-close");
        drop(connect(&mem("t-close")).unwrap());
        let mut conn = conns.recv().unwrap();
        assert!(conn.recv().unwrap().is_none());
    }

    #[test]
    fn tcp_recv_none_on_close() {
        let (l, addr) = loopback();
        drop(connect(&addr).unwrap());
        let mut conn = accept(&l);
        assert!(conn.recv().unwrap().is_none());
    }

    #[test]
    fn split_halves_work_concurrently() {
        let (_l, conns) = mem_listener("t-split");
        let echo = thread::spawn(move || {
            let (mut tx, mut rx) = conns.recv().unwrap().split();
            while let Some(m) = rx.recv().unwrap() {
                tx.send(m).unwrap();
            }
        });
        let (mut tx, mut rx) = mem::connect("t-split").unwrap().split();
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
        let (l, addr) = loopback();
        let payload = Bytes::from(vec![0x5Au8; 4 * 1024 * 1024]);
        let p2 = payload.clone();
        let client = thread::spawn(move || {
            let mut c = connect(&addr).unwrap();
            c.send(WireMsg::e2ap(p2)).unwrap();
        });
        let mut conn = accept(&l);
        let m = conn.recv().unwrap().unwrap();
        assert_eq!(m.payload, payload);
        client.join().unwrap();
    }

    #[test]
    fn recv_timeout_gives_up_and_loses_nothing() {
        let (l, tcp) = loopback();
        let over_tcp = (tcp.clone(), connect(&tcp).unwrap(), accept(&l));
        let (_l, conns) = mem_listener("t-timeout");
        let c = connect(&mem("t-timeout")).unwrap();
        let over_mem = (mem("t-timeout"), c, Transport::Mem(conns.recv().unwrap()));
        for (addr, mut c, mut conn) in [over_tcp, over_mem] {
            let err = conn.recv_timeout(Duration::from_millis(20)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{addr}");
            c.send(WireMsg::e2ap(Bytes::from_static(b"late"))).unwrap();
            let m = conn.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(m.payload, Bytes::from_static(b"late"), "{addr}");
        }
    }

    /// A receive half whose arrivals are counted on the returned channel.
    fn told(name: &str) -> (mem::MemConn, mem::MemRecvHalf, mpsc::Receiver<()>) {
        let (_l, conns) = mem_listener(name);
        let c = mem::connect(name).unwrap();
        let (_tx, mut rx) = conns.recv().unwrap().split();
        let (tx, told) = mpsc::channel();
        rx.on_arrival(Box::new(move || tx.send(()).unwrap()));
        (c, rx, told)
    }

    #[test]
    fn the_close_is_seen_once_after_every_queued_message() {
        let (mut c, mut rx, told) = told("t-close-last");
        for i in 0..50u16 {
            c.send(WireMsg::e2ap_on(i, Bytes::from_static(b"m"))).unwrap();
        }
        drop(c);
        assert_eq!(told.try_iter().count(), 2, "told of the first message and of the end");
        for i in 0..50u16 {
            assert_eq!(rx.try_recv().unwrap().unwrap().stream, i, "in order");
        }
        assert!(rx.try_recv().unwrap().is_none(), "then the close");
        assert_eq!(told.try_iter().count(), 0, "and nothing more is told");
    }

    #[test]
    fn dropping_the_receive_half_fails_the_peers_sends() {
        let (mut c, rx, told) = told("t-recv-drop");
        c.send(WireMsg::e2ap(Bytes::new())).unwrap();
        drop(rx);
        assert!(c.send(WireMsg::e2ap(Bytes::new())).is_err(), "peer's sends fail");
        assert_eq!(told.try_iter().count(), 1, "the callback went with the half");
    }

    #[test]
    fn serving_calls_back_and_frees_the_address_on_drop() {
        let (l, conns) = mem_listener("t-serve");
        let mut c = connect(&mem("t-serve")).unwrap();
        c.send(WireMsg::e2ap(Bytes::from_static(b"hi"))).unwrap();
        let mut conn = conns.recv().unwrap();
        assert_eq!(conn.recv().unwrap().unwrap().payload, Bytes::from_static(b"hi"));
        drop(l);
        let _again = listen(&mem("t-serve")).expect("the name is free at once");
        assert!(conns.recv().is_err(), "the callback is gone");
    }

    #[test]
    fn arrival_is_told_and_the_messages_stay_queued() {
        let (_l, conns) = mem_listener("t-arrival");
        let mut c = mem::connect("t-arrival").unwrap();
        let (_tx, mut rx) = conns.recv().unwrap().split();
        c.send(WireMsg::e2ap_on(0, Bytes::new())).unwrap();
        let (tx, told) = mpsc::channel();
        rx.on_arrival(Box::new(move || tx.send(()).unwrap()));
        assert_eq!(told.try_iter().count(), 1, "told at once of what is queued");
        c.send(WireMsg::e2ap_on(1, Bytes::new())).unwrap();
        assert_eq!(told.try_iter().count(), 0, "not again while the queue holds messages");
        assert_eq!(rx.try_recv().unwrap().unwrap().stream, 0);
        assert_eq!(rx.try_recv().unwrap().unwrap().stream, 1, "both stayed queued");
        let e = rx.try_recv().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "emptied");
        c.send(WireMsg::e2ap_on(2, Bytes::new())).unwrap();
        assert_eq!(told.try_iter().count(), 1, "told again once the queue was empty");
        drop(c);
        assert_eq!(told.try_iter().count(), 1, "and of the end");
        assert_eq!(rx.try_recv().unwrap().unwrap().stream, 2);
        assert!(rx.try_recv().unwrap().is_none());
    }
}
