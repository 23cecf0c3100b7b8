//! Redis-style pub/sub message broker.
//!
//! The paper's TC controller "used Redis as a message broker used by an
//! iApp to forward messages to the xApp" (§6.1.1, Table 3).  This is a
//! from-scratch substitute with the same interaction pattern: clients
//! subscribe to channels; publishers fan messages out to all subscribers
//! of a channel.
//!
//! ## Wire protocol (length-framed over TCP)
//!
//! ```text
//! frame   := len:u32BE kind:u8 payload
//! kind 1  := SUBSCRIBE   payload = channel (utf-8)
//! kind 2  := PUBLISH     payload = chan_len:u16BE channel message-bytes
//! kind 3  := MESSAGE     payload = chan_len:u16BE channel message-bytes
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

const KIND_SUBSCRIBE: u8 = 1;
const KIND_PUBLISH: u8 = 2;
const KIND_MESSAGE: u8 = 3;
const MAX_FRAME: usize = 16 * 1024 * 1024;

fn write_frame(wr: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32 + 1;
    wr.write_all(&len.to_be_bytes())?;
    wr.write_all(&[kind])?;
    wr.write_all(payload)?;
    wr.flush()
}

fn read_frame(rd: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    if rd.read(&mut len_buf[..1])? == 0 {
        return Ok(None);
    }
    rd.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
    }
    let mut payload = vec![0u8; len];
    rd.read_exact(&mut payload)?;
    let kind = payload.remove(0);
    Ok(Some((kind, payload)))
}

fn chan_msg(payload: &[u8]) -> io::Result<(String, Bytes)> {
    if payload.len() < 2 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short publish"));
    }
    let chan_len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
    if payload.len() < 2 + chan_len {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad channel length"));
    }
    let channel = String::from_utf8(payload[2..2 + chan_len].to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad channel utf8"))?;
    Ok((channel, Bytes::copy_from_slice(&payload[2 + chan_len..])))
}

fn encode_chan_msg(channel: &str, msg: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(2 + channel.len() + msg.len());
    payload.extend_from_slice(&(channel.len() as u16).to_be_bytes());
    payload.extend_from_slice(channel.as_bytes());
    payload.extend_from_slice(msg);
    payload
}

/// Locks one of the broker's tables.  Each is only ever pushed to, drained
/// or retained under the lock, so it is valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per channel: the subscribed clients, by client id, and the queue of
/// each one's writer thread.
type Subscribers = Arc<Mutex<HashMap<String, Vec<(u64, mpsc::Sender<(String, Bytes)>)>>>>;

/// A running broker.
pub struct Broker {
    /// The bound address.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    /// A handle on every client socket accepted so far.
    clients: Arc<Mutex<Vec<TcpStream>>>,
}

impl Broker {
    /// Binds and serves; runs until the process exits or [`shutdown`] is
    /// called.  One thread accepts; each client costs a reading and a
    /// writing thread, which end with its connection.
    ///
    /// [`shutdown`]: Broker::shutdown
    pub fn spawn(addr: &str) -> io::Result<Broker> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let subs = Subscribers::default();
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let (stopped, accepted) = (stop.clone(), clients.clone());
        let accept =
            std::thread::Builder::new().name("flexric-broker".into()).spawn(move || {
                let next_id = AtomicU64::new(0);
                for stream in listener.incoming() {
                    // `SeqCst`: the flag is all `shutdown` and this thread share.
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Ok(handle) = stream.try_clone() {
                        let mut list = lock(&accepted);
                        list.retain(|c| c.peer_addr().is_ok());
                        list.push(handle);
                    }
                    let (subs, id) = (subs.clone(), next_id.fetch_add(1, Ordering::Relaxed));
                    // A client that cannot get a thread is dropped.
                    let _ = std::thread::Builder::new().name("flexric-broker-rx".into()).spawn(
                        move || {
                            let _ = serve_client(stream, id, &subs);
                            // Forgetting the client's queue everywhere ends its
                            // writer thread.
                            lock(&subs).values_mut().for_each(|l| l.retain(|(c, _)| *c != id));
                        },
                    );
                }
            })?;
        Ok(Broker { addr, stop, accept: Mutex::new(Some(accept)), clients })
    }

    /// Stops accepting and drops every live client connection; the listen
    /// address is free when this returns.  Used by tests to simulate a
    /// broker crash; connected [`BrokerClient`]s see the connection drop
    /// and reconnect.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nothing in std interrupts `accept`; a connection to ourselves
        // does.  The thread owns the listener, so joining it closes it.
        if TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok() {
            if let Some(accept) = lock(&self.accept).take() {
                let _ = accept.join();
            }
        }
        for client in lock(&self.clients).drain(..) {
            let _ = client.shutdown(Shutdown::Both);
        }
    }
}

/// Reads one client's SUBSCRIBE/PUBLISH frames until it goes away.
fn serve_client(mut stream: TcpStream, id: u64, subs: &Subscribers) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut wr = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<(String, Bytes)>();
    // Writer side: forward matched messages to this client.  It ends when
    // every sender of its queue is gone or the client stops taking bytes.
    std::thread::Builder::new().name("flexric-broker-tx".into()).spawn(move || {
        while let Ok((channel, msg)) = rx.recv() {
            if write_frame(&mut wr, KIND_MESSAGE, &encode_chan_msg(&channel, &msg)).is_err() {
                break;
            }
        }
    })?;
    while let Some((kind, payload)) = read_frame(&mut stream)? {
        match kind {
            KIND_SUBSCRIBE => {
                let channel = String::from_utf8(payload)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad channel"))?;
                lock(subs).entry(channel).or_default().push((id, tx.clone()));
            }
            KIND_PUBLISH => {
                let (channel, msg) = chan_msg(&payload)?;
                if let Some(list) = lock(subs).get_mut(&channel) {
                    list.retain(|(_, s)| s.send((channel.clone(), msg.clone())).is_ok());
                }
            }
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "unknown frame kind")),
        }
    }
    Ok(())
}

/// Reconnect schedule: capped exponential backoff.
const RECONNECT_INITIAL_MS: u64 = 50;
const RECONNECT_MAX_MS: u64 = 5_000;
const RECONNECT_ATTEMPTS: u32 = 8;

/// One connection to the broker: the socket to write to and what its
/// reader thread has received.  Dropping it closes the socket, which ends
/// the reader thread.
struct Link {
    wr: TcpStream,
    rx: mpsc::Receiver<(String, Bytes)>,
}

impl Drop for Link {
    fn drop(&mut self) {
        let _ = self.wr.shutdown(Shutdown::Both);
    }
}

fn dial(addr: &str) -> io::Result<Link> {
    let wr = TcpStream::connect(addr)?;
    wr.set_nodelay(true)?;
    let mut rd = wr.try_clone()?;
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new().name("flexric-broker-client".into()).spawn(move || {
        while let Ok(Some((kind, payload))) = read_frame(&mut rd) {
            if kind == KIND_MESSAGE {
                if let Ok((channel, msg)) = chan_msg(&payload) {
                    if tx.send((channel, msg)).is_err() {
                        break;
                    }
                }
            }
        }
    })?;
    Ok(Link { wr, rx })
}

/// A broker client: publish and/or subscribe.
///
/// The client remembers every channel it subscribed to.  When the broker
/// connection drops — detected on a failed write or when the inbound
/// stream ends — it redials with capped exponential backoff and replays
/// all subscriptions, so a broker restart is invisible to the caller
/// beyond the messages published while it was down.
pub struct BrokerClient {
    addr: String,
    link: Link,
    channels: Vec<String>,
}

impl BrokerClient {
    /// Connects to a broker.
    pub fn connect(addr: &str) -> io::Result<BrokerClient> {
        Ok(BrokerClient { addr: addr.to_string(), link: dial(addr)?, channels: Vec::new() })
    }

    /// Redials and replays all subscriptions.  Retries with backoff before
    /// giving up.
    fn reconnect(&mut self) -> io::Result<()> {
        let mut delay = RECONNECT_INITIAL_MS;
        for _ in 0..RECONNECT_ATTEMPTS {
            std::thread::sleep(Duration::from_millis(delay));
            delay = delay.saturating_mul(2).min(RECONNECT_MAX_MS);
            let Ok(mut link) = dial(&self.addr) else { continue };
            let replayed = self
                .channels
                .iter()
                .all(|chan| write_frame(&mut link.wr, KIND_SUBSCRIBE, chan.as_bytes()).is_ok());
            if replayed {
                self.link = link;
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::ConnectionRefused, "broker unreachable"))
    }

    /// Subscribes to a channel.  The subscription is replayed automatically
    /// after a reconnect.
    pub fn subscribe(&mut self, channel: &str) -> io::Result<()> {
        if !self.channels.iter().any(|c| c == channel) {
            self.channels.push(channel.to_string());
        }
        match write_frame(&mut self.link.wr, KIND_SUBSCRIBE, channel.as_bytes()) {
            Ok(()) => Ok(()),
            // reconnect() replays the channel list, which now includes
            // this channel.
            Err(_) => self.reconnect(),
        }
    }

    /// Publishes a message to a channel, reconnecting once on a dead
    /// connection.
    pub fn publish(&mut self, channel: &str, msg: &[u8]) -> io::Result<()> {
        let payload = encode_chan_msg(channel, msg);
        match write_frame(&mut self.link.wr, KIND_PUBLISH, &payload) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.reconnect()?;
                write_frame(&mut self.link.wr, KIND_PUBLISH, &payload)
            }
        }
    }

    /// Receives the next message on any subscribed channel.  If the broker
    /// connection drops, reconnects (replaying subscriptions) and keeps
    /// waiting; returns `None` only when the broker stays unreachable or
    /// nothing was ever subscribed.
    pub fn recv(&mut self) -> Option<(String, Bytes)> {
        loop {
            if let Ok(m) = self.link.rx.recv() {
                return Some(m);
            }
            if self.channels.is_empty() || self.reconnect().is_err() {
                return None;
            }
        }
    }

    /// [`recv`](Self::recv) that also returns `None` when nothing arrived
    /// within `timeout` (a reconnect in between may overrun it).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(String, Bytes)> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.link.rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(m) => return Some(m),
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => {
                    if self.channels.is_empty() || self.reconnect().is_err() {
                        return None;
                    }
                }
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<(String, Bytes)> {
        self.link.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(broker: &Broker) -> BrokerClient {
        BrokerClient::connect(&broker.addr.to_string()).unwrap()
    }

    /// Subscribes `sub` to `chan` and returns once the broker has the
    /// subscription.  The protocol has no acknowledgement, so `publ` probes
    /// the channel until `sub` hears one; [`next`] skips what is left of
    /// the probing.
    fn subscribed(sub: &mut BrokerClient, publ: &mut BrokerClient, chan: &str) {
        sub.subscribe(chan).unwrap();
        for _ in 0..1_000 {
            publ.publish(chan, b"probe").unwrap();
            if sub.recv_timeout(Duration::from_millis(5)).is_some() {
                return;
            }
        }
        panic!("subscription to {chan} never took");
    }

    /// The next message that is not a probe of [`subscribed`].
    fn next(sub: &mut BrokerClient) -> (String, Bytes) {
        loop {
            let m = sub.recv_timeout(Duration::from_secs(5)).expect("a message within 5 s");
            if &m.1[..] != b"probe" {
                return m;
            }
        }
    }

    #[test]
    fn pubsub_roundtrip() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let (mut sub, mut publ) = (client(&broker), client(&broker));
        subscribed(&mut sub, &mut publ, "rlc-stats");
        publ.publish("rlc-stats", b"{\"sojourn\": 42}").unwrap();
        let (chan, msg) = next(&mut sub);
        assert_eq!(chan, "rlc-stats");
        assert_eq!(&msg[..], b"{\"sojourn\": 42}");
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let mut publ = client(&broker);
        let mut subs: Vec<BrokerClient> = (0..5).map(|_| client(&broker)).collect();
        for c in &mut subs {
            subscribed(c, &mut publ, "chan");
        }
        publ.publish("chan", b"x").unwrap();
        for c in &mut subs {
            assert_eq!(&next(c).1[..], b"x");
        }
    }

    #[test]
    fn channel_isolation() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let (mut a, mut publ) = (client(&broker), client(&broker));
        subscribed(&mut a, &mut publ, "a");
        publ.publish("b", b"not for a").unwrap();
        publ.publish("a", b"for a").unwrap();
        publ.publish("a", b"and again").unwrap();
        // One publisher's frames are handled in order: had "not for a" been
        // delivered, it would sit between these two.
        assert_eq!(next(&mut a), ("a".to_owned(), Bytes::from_static(b"for a")));
        assert_eq!(next(&mut a), ("a".to_owned(), Bytes::from_static(b"and again")));
    }

    #[test]
    fn publish_without_subscribers_is_fine() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let mut publ = client(&broker);
        publ.publish("void", b"shout").unwrap();
        // Broker still alive.
        let mut sub = client(&broker);
        subscribed(&mut sub, &mut publ, "void");
        publ.publish("void", b"heard").unwrap();
        assert_eq!(&next(&mut sub).1[..], b"heard", "and the shout is not kept for latecomers");
    }

    #[test]
    fn broker_restart_resubscribes() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let addr = broker.addr.to_string();
        let (mut sub, mut publ) = (client(&broker), client(&broker));
        subscribed(&mut sub, &mut publ, "chan");

        // Crash the broker and bring a new one up on the same address.
        broker.shutdown();
        let _broker2 = Broker::spawn(&addr).unwrap();

        // The subscriber reconnects and replays its subscription while it
        // waits; publish until the message gets through.
        let mut publ = BrokerClient::connect(&addr).unwrap();
        let got = (0..100).find_map(|_| {
            publ.publish("chan", b"after restart").unwrap();
            std::iter::from_fn(|| sub.recv_timeout(Duration::from_millis(100)))
                .find(|m| &m.1[..] != b"probe")
        });
        let (chan, msg) = got.expect("subscription survived the broker restart");
        assert_eq!(chan, "chan");
        assert_eq!(&msg[..], b"after restart");
    }

    #[test]
    fn dead_subscriber_pruned() {
        let broker = Broker::spawn("127.0.0.1:0").unwrap();
        let mut publ = client(&broker);
        {
            let mut dead = client(&broker);
            subscribed(&mut dead, &mut publ, "chan");
        } // dropped
        let mut sub = client(&broker);
        subscribed(&mut sub, &mut publ, "chan");
        publ.publish("chan", b"still works").unwrap();
        assert_eq!(&next(&mut sub).1[..], b"still works");
    }
}
