//! Redis-style pub/sub message broker.
//!
//! The paper's TC controller "used Redis as a message broker used by an
//! iApp to forward messages to the xApp" (§6.1.1, Table 3).  This is a
//! from-scratch substitute with the same interaction pattern: clients
//! subscribe to channels; publishers fan messages out to all subscribers
//! of a channel.
//!
//! The broker is a machine ([`Broker`]) on the SDK's driver
//! ([`flexric::spawn_machine`]), as the E2 and FlexRAN ends are: one loop
//! thread owns the subscriptions and the connections.  A [`BrokerClient`]
//! is one blocking connection: it reads and writes on its caller's thread.
//!
//! ## Wire protocol (one `flexric_transport` frame per message)
//!
//! ```text
//! payload := kind:u8 body
//! kind 1  := SUBSCRIBE   body = channel (utf-8)
//! kind 2  := PUBLISH     body = chan_len:u16BE channel message-bytes
//! kind 3  := MESSAGE     body = chan_len:u16BE channel message-bytes
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::convert::Infallible;
use std::io;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flexric::{spawn_machine, Action, Event, Links, Machine, MachineHandle, PeerId};
use flexric_transport::{connect, Transport, TransportAddr, WireMsg};

const KIND_SUBSCRIBE: u8 = 1;
const KIND_PUBLISH: u8 = 2;
const KIND_MESSAGE: u8 = 3;

/// One broker message.  Its kind byte says what it is, so the frame's PPID
/// says nothing.
fn wire(payload: Bytes) -> WireMsg {
    WireMsg { stream: 0, ppid: 0, payload }
}

/// A SUBSCRIBE to `channel` (`msg` is empty), or a PUBLISH of `msg` to it.
fn request(kind: u8, channel: &str, msg: &[u8]) -> WireMsg {
    let len =
        if kind == KIND_PUBLISH { (channel.len() as u16).to_be_bytes().to_vec() } else { vec![] };
    wire([&[kind][..], &len, channel.as_bytes(), msg].concat().into())
}

/// The channel and message of a PUBLISH or MESSAGE; `None` if malformed.
fn chan_msg(payload: &Bytes) -> Option<(String, Bytes)> {
    let len = payload.get(1..3)?;
    let rest = &payload[3..];
    let (channel, msg) = rest.split_at_checked(u16::from_be_bytes([len[0], len[1]]) as usize)?;
    Some((std::str::from_utf8(channel).ok()?.to_owned(), payload.slice_ref(msg)))
}

/// The broker: who is connected, and who is subscribed to what.  Each
/// client link it accepts is told as `Event::Accepted`.
#[derive(Debug, Default)]
pub struct Broker {
    clients: HashSet<PeerId>,
    /// Per channel, its subscribers.
    subs: HashMap<String, BTreeSet<PeerId>>,
}

impl Broker {
    /// Binds `addr` (`"host:port"` or `"mem:name"`) and runs a broker
    /// there, on the driver.  Dropping the handle, or its `stop()`, stops
    /// it and drops every client connection, as a broker crash would;
    /// connected [`BrokerClient`]s see the connection drop and reconnect.
    pub fn spawn(addr: &str) -> io::Result<MachineHandle<Broker>> {
        let addr = Links::Listen(TransportAddr::parse(addr)?);
        spawn_machine(vec![Broker::default()], vec![addr], None)
    }

    /// Forgets `peer` and hangs up on it, once.
    fn forget(&mut self, peer: PeerId, out: &mut Vec<Action<Infallible>>) {
        if self.clients.remove(&peer) {
            self.subs.values_mut().for_each(|list| _ = list.remove(&peer));
            out.push(Action::Hangup(peer));
        }
    }

    /// Handles one frame of a live client.  A frame that breaks the
    /// protocol drops the client, as the broker always has.
    fn frame(&mut self, peer: PeerId, payload: Bytes, out: &mut Vec<Action<Infallible>>) {
        match payload[..] {
            [KIND_SUBSCRIBE, ref channel @ ..] => {
                let Ok(channel) = std::str::from_utf8(channel) else {
                    return self.forget(peer, out);
                };
                self.subs.entry(channel.to_owned()).or_default().insert(peer);
            }
            [KIND_PUBLISH, ..] => match chan_msg(&payload) {
                Some((channel, _)) => {
                    let Some(list) = self.subs.get(&channel) else { return };
                    // Encoded once; every subscriber is sent the same bytes.
                    let message = Bytes::from([&[KIND_MESSAGE][..], &payload[1..]].concat());
                    out.extend(list.iter().map(|&p| Action::Send(p, wire(message.clone()))));
                }
                None => self.forget(peer, out),
            },
            _ => self.forget(peer, out),
        }
    }
}

impl Machine for Broker {
    type In = Infallible;
    type Out = Infallible;

    fn handle(&mut self, event: Event<Self::In>, _now_ms: u64, out: &mut Vec<Action<Self::Out>>) {
        match event {
            Event::Accepted(peer, _) => _ = self.clients.insert(peer),
            Event::Frame(peer, payload) if self.clients.contains(&peer) => {
                self.frame(peer, payload, out)
            }
            Event::Closed(peer) => self.forget(peer, out),
            Event::Frame(..) | Event::Dialled(..) | Event::Tick => {}
            Event::App(never) => match never {},
        }
    }
}

/// Reconnect schedule: capped exponential backoff.
const RECONNECT_INITIAL_MS: u64 = 50;
const RECONNECT_MAX_MS: u64 = 5_000;
const RECONNECT_ATTEMPTS: u32 = 8;

/// A broker client: publish and/or subscribe.
///
/// The client remembers every channel it subscribed to.  When the broker
/// connection drops — detected on a failed write or when the inbound
/// stream ends — it redials with capped exponential backoff and replays
/// all subscriptions, so a broker restart is invisible to the caller
/// beyond the messages published while it was down.
pub struct BrokerClient {
    addr: TransportAddr,
    link: Transport,
    channels: Vec<String>,
}

impl BrokerClient {
    /// Connects to a broker at `"host:port"` or `"mem:name"`.
    pub fn connect(addr: &str) -> io::Result<BrokerClient> {
        let addr = TransportAddr::parse(addr)?;
        Ok(BrokerClient { link: connect(&addr)?, addr, channels: Vec::new() })
    }

    /// Redials and replays all subscriptions.  Retries with backoff before
    /// giving up.
    fn reconnect(&mut self) -> io::Result<()> {
        let mut delay = RECONNECT_INITIAL_MS;
        for _ in 0..RECONNECT_ATTEMPTS {
            std::thread::sleep(Duration::from_millis(delay));
            delay = delay.saturating_mul(2).min(RECONNECT_MAX_MS);
            let Ok(mut link) = connect(&self.addr) else { continue };
            if self.channels.iter().all(|c| link.send(request(KIND_SUBSCRIBE, c, &[])).is_ok()) {
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
        // reconnect() replays the channel list, which now includes this
        // channel.
        self.link.send(request(KIND_SUBSCRIBE, channel, &[])).or_else(|_| self.reconnect())
    }

    /// Publishes a message to a channel, reconnecting once on a dead
    /// connection.
    pub fn publish(&mut self, channel: &str, msg: &[u8]) -> io::Result<()> {
        let publish = request(KIND_PUBLISH, channel, msg);
        self.link.send(publish.clone()).or_else(|_| {
            self.reconnect()?;
            self.link.send(publish)
        })
    }

    /// Receives the next message on any subscribed channel.  If the broker
    /// connection drops, reconnects (replaying subscriptions) and keeps
    /// waiting; returns `None` only when the broker stays unreachable or
    /// nothing was ever subscribed.
    pub fn recv(&mut self) -> Option<(String, Bytes)> {
        self.next(None)
    }

    /// [`recv`](Self::recv) that also returns `None` when nothing arrived
    /// within `timeout` (a reconnect in between may overrun it).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(String, Bytes)> {
        self.next(Some(Instant::now() + timeout))
    }

    fn next(&mut self, deadline: Option<Instant>) -> Option<(String, Bytes)> {
        loop {
            let got = match deadline {
                None => self.link.recv(),
                Some(at) => self.link.recv_timeout(at.saturating_duration_since(Instant::now())),
            };
            match got {
                Ok(Some(m)) if m.payload.first() == Some(&KIND_MESSAGE) => {
                    if let Some(message) = chan_msg(&m.payload) {
                        return Some(message);
                    }
                }
                Ok(Some(_)) => {}
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return None,
                Ok(None) | Err(_) => {
                    if self.channels.is_empty() || self.reconnect().is_err() {
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- The machine, fed events -------------------------------------------

    /// Hands the broker one event and returns what it answers.
    fn feed(broker: &mut Broker, event: Event<Infallible>) -> Vec<Action<Infallible>> {
        let mut out = Vec::new();
        broker.handle(event, 0, &mut out);
        out
    }

    /// A broker with clients 1..=n.
    fn broker_of(n: PeerId) -> Broker {
        let mut broker = Broker::default();
        for peer in 1..=n {
            assert!(feed(&mut broker, Event::Accepted(peer, format!("mem:{peer}"))).is_empty());
        }
        broker
    }

    fn subscribe(broker: &mut Broker, peer: PeerId, channel: &str) {
        assert!(feed(broker, Event::Frame(peer, request(KIND_SUBSCRIBE, channel, &[]).payload))
            .is_empty());
    }

    /// Whom a publish on `channel` reaches, and what each is sent.
    fn publish(broker: &mut Broker, from: PeerId, channel: &str) -> Vec<(PeerId, Bytes)> {
        let publish = request(KIND_PUBLISH, channel, b"hello").payload;
        let sent = feed(broker, Event::Frame(from, publish));
        sent.into_iter()
            .map(|action| match action {
                Action::Send(peer, msg) => (peer, msg.payload),
                other => panic!("a publish sends, not {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_publish_reaches_every_subscriber_of_its_channel_and_no_other() {
        let mut broker = broker_of(4);
        for peer in [1, 2, 3] {
            subscribe(&mut broker, peer, "a");
        }
        subscribe(&mut broker, 1, "a");
        subscribe(&mut broker, 4, "b");
        let sent = publish(&mut broker, 4, "a");
        assert_eq!(sent.iter().map(|(peer, _)| *peer).collect::<Vec<_>>(), [1, 2, 3], "once each");
        let message = &sent[0].1;
        assert_eq!(message[0], KIND_MESSAGE);
        assert_eq!(chan_msg(message), Some(("a".to_owned(), Bytes::from_static(b"hello"))));
        assert!(sent.iter().all(|(_, m)| m.as_ptr() == message.as_ptr()), "encoded once");
        assert!(publish(&mut broker, 1, "c").is_empty(), "no subscriber, no send");
    }

    #[test]
    fn a_closed_subscriber_is_forgotten() {
        let mut broker = broker_of(2);
        subscribe(&mut broker, 1, "a");
        subscribe(&mut broker, 2, "a");
        assert!(matches!(feed(&mut broker, Event::Closed(1))[..], [Action::Hangup(1)]));
        assert!(feed(&mut broker, Event::Closed(1)).is_empty(), "hung up once");
        assert_eq!(publish(&mut broker, 2, "a").len(), 1);
    }

    #[test]
    fn an_unknown_kind_is_hung_up_on() {
        let mut broker = broker_of(2);
        subscribe(&mut broker, 1, "a");
        let garbage = Bytes::from_static(&[9, 0, 1, b'a']);
        assert!(matches!(feed(&mut broker, Event::Frame(1, garbage))[..], [Action::Hangup(1)]));
        let short = Bytes::from_static(&[KIND_PUBLISH, 0, 9, b'a']);
        assert!(matches!(feed(&mut broker, Event::Frame(2, short))[..], [Action::Hangup(2)]));
        assert!(publish(&mut broker, 1, "a").is_empty(), "and forgotten");
    }

    // -- On the driver -------------------------------------------------------

    fn client(broker: &MachineHandle<Broker>) -> BrokerClient {
        BrokerClient::connect(&broker.addrs[0].to_string()).unwrap()
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
        let broker = Broker::spawn("mem:broker-roundtrip").unwrap();
        let (mut sub, mut publ) = (client(&broker), client(&broker));
        subscribed(&mut sub, &mut publ, "rlc-stats");
        publ.publish("rlc-stats", b"{\"sojourn\": 42}").unwrap();
        let (chan, msg) = next(&mut sub);
        assert_eq!(chan, "rlc-stats");
        assert_eq!(&msg[..], b"{\"sojourn\": 42}");
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let broker = Broker::spawn("mem:broker-fanout").unwrap();
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
        let broker = Broker::spawn("mem:broker-isolation").unwrap();
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
        let broker = Broker::spawn("mem:broker-void").unwrap();
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
        for addr in ["127.0.0.1:0", "mem:broker-restart"] {
            let broker = Broker::spawn(addr).unwrap();
            let addr = broker.addrs[0].to_string();
            let (mut sub, mut publ) = (client(&broker), client(&broker));
            subscribed(&mut sub, &mut publ, "chan");

            // Crash the broker and bring a new one up on the same address.
            broker.stop();
            let _broker2 = Broker::spawn(&addr).unwrap();

            // The subscriber reconnects and replays its subscription while
            // it waits; publish until the message gets through.
            let mut publ = BrokerClient::connect(&addr).unwrap();
            let got = (0..100).find_map(|_| {
                publ.publish("chan", b"after restart").unwrap();
                std::iter::from_fn(|| sub.recv_timeout(Duration::from_millis(100)))
                    .find(|m| &m.1[..] != b"probe")
            });
            let (chan, msg) = got.expect("subscription survived the broker restart");
            assert_eq!(chan, "chan", "over {addr}");
            assert_eq!(&msg[..], b"after restart", "over {addr}");
        }
    }

    #[test]
    fn dead_subscriber_pruned() {
        let broker = Broker::spawn("mem:broker-pruned").unwrap();
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
