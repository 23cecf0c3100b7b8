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
//! [`fault`] adds smoltcp-style fault injection (drop/corrupt) on top of
//! either, for robustness tests.

pub mod fault;
pub mod frame;
pub mod mem;
pub mod rx;
pub mod tcp;

use bytes::Bytes;
use std::fmt;
use std::io;

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
    M.get_or_init(|| {
        // Register the fault-injector series alongside ours: a no-fault
        // deployment still lists them (at zero) in /metrics.
        fault::fault_obs();
        TransportMetrics {
            tx_frames: flexric_obs::counter("flexric_transport_tx_frames_total", "frames sent"),
            tx_bytes: flexric_obs::counter(
                "flexric_transport_tx_bytes_total",
                "payload bytes sent",
            ),
            rx_frames: flexric_obs::counter("flexric_transport_rx_frames_total", "frames received"),
            rx_bytes: flexric_obs::counter(
                "flexric_transport_rx_bytes_total",
                "payload bytes received",
            ),
            write_ns: flexric_obs::histogram(
                "flexric_transport_write_ns",
                "transport write latency (frame + flush, including backpressure)",
            ),
            read_frames_per_wakeup: flexric_obs::histogram(
                "flexric_transport_read_frames_per_wakeup",
                "complete frames delivered by one socket read",
            ),
        }
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
    pub async fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        let m = obs();
        m.tx_frames.inc();
        m.tx_bytes.add(msg.payload.len() as u64);
        let _t = m.write_ns.timer();
        match self {
            Transport::Tcp(c) => c.send(msg).await,
            Transport::Mem(c) => c.send(msg),
        }
    }

    /// Receives the next message; `None` on orderly shutdown.
    pub async fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let res = match self {
            Transport::Tcp(c) => c.recv().await,
            Transport::Mem(c) => c.recv().await,
        };
        if let Ok(Some(msg)) = &res {
            let m = obs();
            m.rx_frames.inc();
            m.rx_bytes.add(msg.payload.len() as u64);
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
    /// TCP half.
    Tcp(tcp::TcpSendHalf),
    /// Mem half.
    Mem(mem::MemSendHalf),
}

impl SendHalf {
    /// Sends one message.
    pub async fn send(&mut self, msg: WireMsg) -> io::Result<()> {
        let m = obs();
        m.tx_frames.inc();
        m.tx_bytes.add(msg.payload.len() as u64);
        let _t = m.write_ns.timer();
        match self {
            SendHalf::Tcp(c) => c.send(msg).await,
            SendHalf::Mem(c) => c.send(msg),
        }
    }

    /// Sends a batch of messages; over TCP this issues a single flush.
    pub async fn send_batch(&mut self, msgs: Vec<WireMsg>) -> io::Result<()> {
        let m = obs();
        m.tx_frames.add(msgs.len() as u64);
        m.tx_bytes.add(msgs.iter().map(|w| w.payload.len() as u64).sum());
        let _t = m.write_ns.timer();
        match self {
            SendHalf::Tcp(c) => c.send_batch(&msgs).await,
            SendHalf::Mem(c) => {
                for w in msgs {
                    c.send(w)?;
                }
                Ok(())
            }
        }
    }
}

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
    pub async fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let res = match self {
            RecvHalf::Tcp(c) => c.recv().await,
            RecvHalf::Mem(c) => c.recv().await,
        };
        if let Ok(Some(msg)) = &res {
            let m = obs();
            m.rx_frames.inc();
            m.rx_bytes.add(msg.payload.len() as u64);
        }
        res
    }
}

/// A listener accepting transport connections.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(tokio::net::TcpListener),
    /// In-process listener.
    Mem(mem::MemListener),
}

impl Listener {
    /// Accepts the next inbound connection.
    pub async fn accept(&mut self) -> io::Result<Transport> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept().await?;
                stream.set_nodelay(true)?;
                Ok(Transport::Tcp(tcp::TcpConn::new(stream)))
            }
            Listener::Mem(l) => Ok(Transport::Mem(l.accept().await?)),
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
}

/// Binds a listener at `addr`.
pub async fn listen(addr: &TransportAddr) -> io::Result<Listener> {
    match addr {
        TransportAddr::Tcp(a) => Ok(Listener::Tcp(tokio::net::TcpListener::bind(a).await?)),
        TransportAddr::Mem(name) => Ok(Listener::Mem(mem::MemListener::bind(name)?)),
    }
}

/// Connects to a listener at `addr`.
pub async fn connect(addr: &TransportAddr) -> io::Result<Transport> {
    match addr {
        TransportAddr::Tcp(a) => {
            let stream = tokio::net::TcpStream::connect(a).await?;
            stream.set_nodelay(true)?;
            Ok(Transport::Tcp(tcp::TcpConn::new(stream)))
        }
        TransportAddr::Mem(name) => Ok(Transport::Mem(mem::connect(name).await?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[tokio::test]
    async fn mem_roundtrip() {
        let mut l = listen(&TransportAddr::Mem("t-mem-rt".into())).await.unwrap();
        let client = tokio::spawn(async move {
            let mut c = connect(&TransportAddr::Mem("t-mem-rt".into())).await.unwrap();
            c.send(WireMsg::e2ap(Bytes::from_static(b"ping"))).await.unwrap();
            c.recv().await.unwrap().unwrap()
        });
        let mut server_side = l.accept().await.unwrap();
        let got = server_side.recv().await.unwrap().unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"ping"));
        assert_eq!(got.ppid, WireMsg::PPID_E2AP);
        server_side.send(WireMsg::e2ap(Bytes::from_static(b"pong"))).await.unwrap();
        let reply = client.await.unwrap();
        assert_eq!(reply.payload, Bytes::from_static(b"pong"));
    }

    #[tokio::test]
    async fn tcp_roundtrip_with_streams() {
        let mut l = listen(&TransportAddr::parse("127.0.0.1:0").unwrap()).await.unwrap();
        let addr = l.local_addr().unwrap();
        let client = tokio::spawn(async move {
            let mut c = connect(&addr).await.unwrap();
            for i in 0..10u16 {
                c.send(WireMsg { stream: i, ppid: 70, payload: Bytes::from(vec![i as u8; 100]) })
                    .await
                    .unwrap();
            }
            let mut last = None;
            for _ in 0..10 {
                last = c.recv().await.unwrap();
            }
            last
        });
        let mut conn = l.accept().await.unwrap();
        for i in 0..10u16 {
            let m = conn.recv().await.unwrap().unwrap();
            assert_eq!(m.stream, i, "ordering preserved");
            assert_eq!(m.payload.len(), 100);
            conn.send(m).await.unwrap();
        }
        let last = client.await.unwrap().unwrap();
        assert_eq!(last.stream, 9);
    }

    #[tokio::test]
    async fn recv_returns_none_on_close() {
        let mut l = listen(&TransportAddr::Mem("t-close".into())).await.unwrap();
        let client = tokio::spawn(async move {
            let c = connect(&TransportAddr::Mem("t-close".into())).await.unwrap();
            drop(c);
        });
        let mut conn = l.accept().await.unwrap();
        client.await.unwrap();
        assert!(conn.recv().await.unwrap().is_none());
    }

    #[tokio::test]
    async fn tcp_recv_none_on_close() {
        let mut l = listen(&TransportAddr::parse("127.0.0.1:0").unwrap()).await.unwrap();
        let addr = l.local_addr().unwrap();
        let client = tokio::spawn(async move {
            let c = connect(&addr).await.unwrap();
            drop(c);
        });
        let mut conn = l.accept().await.unwrap();
        client.await.unwrap();
        assert!(conn.recv().await.unwrap().is_none());
    }

    #[tokio::test]
    async fn split_halves_work_concurrently() {
        let mut l = listen(&TransportAddr::Mem("t-split".into())).await.unwrap();
        let echo = tokio::spawn(async move {
            let conn = l.accept().await.unwrap();
            let (mut tx, mut rx) = conn.split();
            while let Some(m) = rx.recv().await.unwrap() {
                tx.send(m).await.unwrap();
            }
        });
        let conn = connect(&TransportAddr::Mem("t-split".into())).await.unwrap();
        let (mut tx, mut rx) = conn.split();
        for i in 0..100u32 {
            tx.send(WireMsg { stream: 0, ppid: i, payload: Bytes::new() }).await.unwrap();
        }
        for i in 0..100u32 {
            let m = rx.recv().await.unwrap().unwrap();
            assert_eq!(m.ppid, i);
        }
        drop(tx);
        drop(rx);
        echo.await.unwrap();
    }

    #[tokio::test]
    async fn connect_to_missing_mem_endpoint_fails() {
        assert!(connect(&TransportAddr::Mem("nobody-here".into())).await.is_err());
    }

    #[tokio::test]
    async fn double_bind_mem_fails() {
        let _l = listen(&TransportAddr::Mem("t-dup".into())).await.unwrap();
        assert!(listen(&TransportAddr::Mem("t-dup".into())).await.is_err());
    }

    #[tokio::test]
    async fn mem_name_freed_on_drop() {
        {
            let _l = listen(&TransportAddr::Mem("t-free".into())).await.unwrap();
        }
        // Listener dropped: the name can be reused.
        let _l2 = listen(&TransportAddr::Mem("t-free".into())).await.unwrap();
    }

    #[tokio::test]
    async fn large_message_over_tcp() {
        let mut l = listen(&TransportAddr::parse("127.0.0.1:0").unwrap()).await.unwrap();
        let addr = l.local_addr().unwrap();
        let payload = Bytes::from(vec![0x5Au8; 4 * 1024 * 1024]);
        let p2 = payload.clone();
        let client = tokio::spawn(async move {
            let mut c = connect(&addr).await.unwrap();
            c.send(WireMsg::e2ap(p2)).await.unwrap();
        });
        let mut conn = l.accept().await.unwrap();
        let m = conn.recv().await.unwrap().unwrap();
        assert_eq!(m.payload, payload);
        client.await.unwrap();
    }
}
