//! FlexRAN baseline emulation (paper §2, §5).
//!
//! FlexRAN (Foukas et al., CoNEXT'16) was the first real-time SD-RAN
//! platform.  Architecturally it differs from FlexRIC in the three ways the
//! paper measures:
//!
//! 1. **Protobuf encoding** — a single-layer custom protocol (no double
//!    E2AP/E2SM encapsulation), placing its wire size below and its
//!    decode cost between the FB and ASN.1 variants (Fig. 7);
//! 2. **Polling** — "FlexRAN adds overhead by requiring applications to
//!    poll for new messages": applications scan the RIB every millisecond
//!    instead of being invoked on arrival (Fig. 8a CPU);
//! 3. **RIB organization** — statistics are retained as decoded protobuf
//!    object trees per UE (string-keyed maps, per-message allocations),
//!    the "less efficiently organized internal data structure" behind the
//!    ~3× memory footprint of Fig. 8a.
//!
//! The emulation implements that architecture from scratch with the
//! [`flexric_codec::pb`] wire format; the statistics messages are the
//! `encode_pb` / `decode_pb` pair every statistics SM derives from its field
//! table ([`flexric_sm::schema`]).
//!
//! Everything else is FlexRIC's: the controller ([`FlexranCtrl`]) and the
//! agent ([`FlexranNode`]) are machines ([`flexric::Machine`]) run by the
//! SDK's driver ([`flexric::spawn_machine`]) — the loop thread, readers,
//! writers and clock the E2 agent and controller run on — so Fig. 8a's two
//! arms differ in the three ways above and not in their plumbing.  The
//! controller's 1 ms poll is its tick.  A message is a protobuf envelope
//! of one field: the field number is the message type ([`msg_type`]) and
//! the value is the body, as in FlexRAN's own `FlexranMessage` oneof.

use std::collections::{HashMap, HashSet, VecDeque};
use std::convert::Infallible;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::{spawn_machine, Action, Event, Links, Machine, MachineHandle, PeerId};
use flexric_codec::pb::{PbReader, PbWriter};
use flexric_sm::mac::MacStatsInd;
use flexric_sm::pdcp::PdcpStatsInd;
use flexric_sm::rlc::RlcStatsInd;
use flexric_transport::{TransportAddr, WireMsg};

/// FlexRAN-protocol message types: the field numbers of the envelope.
pub mod msg_type {
    /// Agent hello (BS id).
    pub const HELLO: u32 = 1;
    /// Controller enables statistics at a given period.
    pub const STATS_REQUEST: u32 = 2;
    /// Full statistics report.
    pub const STATS_REPORT: u32 = 3;
    /// Echo request (RTT measurement).
    pub const ECHO_REQUEST: u32 = 4;
    /// Echo reply.
    pub const ECHO_REPLY: u32 = 5;
    /// RLC statistics report.
    pub const STATS_REPORT_RLC: u32 = 6;
    /// PDCP statistics report.
    pub const STATS_REPORT_PDCP: u32 = 7;
}

/// One message: `body` as field `kind` of the envelope.  The envelope says
/// what the message is, so the frame's PPID says nothing.
fn wrap(kind: u32, body: &[u8]) -> WireMsg {
    let mut envelope = PbWriter::new();
    envelope.bytes(kind, body);
    WireMsg { stream: 0, ppid: 0, payload: envelope.finish().into() }
}

/// The type and body of one message; `None` if it is no envelope.
fn open(payload: &Bytes) -> Option<(u32, Bytes)> {
    let (kind, body) = PbReader::new(payload).next_field().ok()??;
    Some((kind, payload.slice_ref(body.as_bytes().ok()?)))
}

/// The body of a hello or a statistics request: the one field `1 = value`.
fn field1(value: u64) -> Vec<u8> {
    let mut body = PbWriter::new();
    body.uint(1, value);
    body.finish()
}

/// The FlexRAN-style RIB: decoded protobuf object trees retained per base
/// station and UE, with string-keyed attribute maps — deliberately the
/// allocation-heavy organization the paper measures.
#[derive(Debug, Default)]
pub struct Rib {
    /// Per-BS, per-UE attribute maps.
    pub bs: HashMap<u64, HashMap<u16, HashMap<String, u64>>>,
    /// History ring of raw reports (FlexRAN keeps recent reports for its
    /// northbound).
    pub history: VecDeque<Vec<u8>>,
    /// Updates applied.
    pub updates: u64,
}

impl Rib {
    /// History ring depth.
    pub const HISTORY: usize = 8192;

    /// Ingests one decoded report of base station `bs_id`: under each row's
    /// RNTI, the attributes `attrs` reads off it; and its raw bytes, into
    /// the history.
    pub fn ingest<R, const N: usize>(
        &mut self,
        bs_id: u64,
        raw: &[u8],
        rows: &[R],
        attrs: impl Fn(&R) -> (u16, [(&str, u64); N]),
    ) {
        let bs = self.bs.entry(bs_id).or_default();
        for row in rows {
            let (rnti, values) = attrs(row);
            let ue = bs.entry(rnti).or_default();
            for (name, value) in values {
                ue.insert(name.to_owned(), value);
            }
        }
        self.history.push_back(raw.to_vec());
        if self.history.len() > Self::HISTORY {
            self.history.pop_front();
        }
        self.updates += 1;
    }
}

/// Counters of a running FlexRAN-style controller.
#[derive(Debug, Default)]
pub struct FlexranCounters {
    /// Reports received.
    pub reports: AtomicU64,
    /// Polls performed by the application task.
    pub polls: AtomicU64,
}

/// The FlexRAN controller: asks every agent that connects for statistics,
/// ingests what it reports into the [`Rib`], answers echoes, and polls the
/// RIB on every tick.  Each agent link it accepts is told as
/// `Event::Accepted`.
#[derive(Debug, Default)]
pub struct FlexranCtrl {
    stats_period_ms: u32,
    /// The agents' links.  A link's id is its BS id in the RIB: the
    /// driver allots them in order of arrival and never reuses one.
    agents: HashSet<PeerId>,
    last_update: u64,
    /// The RIB, shared with whoever reads it.
    pub rib: Arc<Mutex<Rib>>,
    /// Counters, shared likewise.
    pub counters: Arc<FlexranCounters>,
}

impl FlexranCtrl {
    /// A controller asking for statistics every `stats_period_ms`.
    pub fn new(stats_period_ms: u32) -> Self {
        FlexranCtrl { stats_period_ms, ..Default::default() }
    }

    /// Binds the south-bound listener at `addr` and runs the controller on
    /// the driver, polling every millisecond.
    pub fn spawn(self, addr: &TransportAddr) -> io::Result<MachineHandle<Self>> {
        spawn_machine(vec![self], vec![Links::Listen(addr.clone())], Some(1))
    }

    /// The polling application: walks every UE of every BS looking for
    /// news — FlexRAN's documented overhead pattern.
    fn poll(&mut self) {
        let rib = self.rib.lock().expect("lock poisoned");
        let ues = rib.bs.values().flat_map(HashMap::values);
        let sum = ues.fold(0u64, |sum, ue| sum.wrapping_add(*ue.get("tbs_dl_bytes").unwrap_or(&0)));
        std::hint::black_box((sum, rib.updates != self.last_update));
        self.last_update = rib.updates;
        self.counters.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Decodes one statistics report of `bs` into the RIB; ignores any
    /// other message.  A report counts whether it decodes or not.
    fn ingest(&self, bs: u64, kind: u32, body: &[u8]) {
        let mut rib = self.rib.lock().expect("lock poisoned");
        let _ = match kind {
            msg_type::STATS_REPORT => MacStatsInd::decode_pb(body).map(|ind| {
                rib.ingest(bs, body, &ind.ues, |ue| {
                    (
                        ue.rnti,
                        [
                            ("cqi", ue.cqi as u64),
                            ("mcs", ue.mcs as u64),
                            ("prbs_dl", ue.prbs_dl as u64),
                            ("tbs_dl_bytes", ue.tbs_dl_bytes),
                            ("dl_aggr_bytes", ue.dl_aggr_bytes),
                            ("bsr", ue.bsr as u64),
                            ("backlog", ue.dl_backlog_bytes),
                            ("slice", ue.slice_id as u64),
                        ],
                    )
                })
            }),
            msg_type::STATS_REPORT_RLC => RlcStatsInd::decode_pb(body).map(|ind| {
                rib.ingest(bs, body, &ind.bearers, |b| {
                    (
                        b.rnti,
                        [
                            ("rlc_buffer", b.buffer_bytes),
                            ("rlc_sojourn", b.sojourn_us_avg),
                            ("rlc_tx_bytes", b.tx_bytes),
                        ],
                    )
                })
            }),
            msg_type::STATS_REPORT_PDCP => PdcpStatsInd::decode_pb(body).map(|ind| {
                rib.ingest(bs, body, &ind.bearers, |b| {
                    (b.rnti, [("pdcp_tx_bytes", b.tx_bytes), ("pdcp_tx_aggr", b.tx_aggr_bytes)])
                })
            }),
            _ => return,
        };
        self.counters.reports.fetch_add(1, Ordering::Relaxed);
    }
}

impl Machine for FlexranCtrl {
    type In = Infallible;
    type Out = Infallible;

    fn handle(&mut self, event: Event<Self::In>, _now_ms: u64, out: &mut Vec<Action<Self::Out>>) {
        match event {
            Event::Accepted(peer, _) => {
                self.agents.insert(peer);
                // Ask for statistics at once (FlexRAN's stats request config).
                let period = field1(self.stats_period_ms as u64);
                out.push(Action::Send(peer, wrap(msg_type::STATS_REQUEST, &period)));
            }
            Event::Frame(peer, payload) if self.agents.contains(&peer) => match open(&payload) {
                Some((msg_type::ECHO_REQUEST, body)) => {
                    out.push(Action::Send(peer, wrap(msg_type::ECHO_REPLY, &body)))
                }
                Some((kind, body)) => self.ingest(peer, kind, &body),
                None => {}
            },
            Event::Closed(peer) => {
                if self.agents.remove(&peer) {
                    out.push(Action::Hangup(peer));
                }
            }
            Event::Tick => self.poll(),
            Event::Frame(..) | Event::Dialled(..) => {}
            Event::App(never) => match never {},
        }
    }
}

/// One full statistics snapshot pushed by the agent.
#[derive(Debug, Default, Clone)]
pub struct FlexranSnapshot {
    /// MAC statistics.
    pub mac: MacStatsInd,
    /// RLC statistics (empty = not sent).
    pub rlc: RlcStatsInd,
    /// PDCP statistics (empty = not sent).
    pub pdcp: PdcpStatsInd,
}

/// What a [`FlexranNode`] is told beside its frames and its link.
#[derive(Debug)]
pub enum NodeIn {
    /// Send an echo request with this payload.
    Echo(Bytes),
}

/// A snapshot source: called with the time of each due report.
type Snapshots = Box<dyn FnMut(u64) -> FlexranSnapshot + Send>;

/// The FlexRAN agent: says hello, and once the controller has asked for
/// statistics reports a snapshot on the E2 agent's re-arm grid — MAC
/// always, RLC and PDCP when they are not empty.
pub struct FlexranNode {
    snapshot: Snapshots,
    link: Option<PeerId>,
    /// The reporting period and the next due time, once asked.
    report: Option<(u64, u64)>,
    /// Echo replies observed `(payload, receive mono ns)`.
    pub echo_rx: Arc<Mutex<Vec<(Bytes, u64)>>>,
    /// Bytes sent on the wire.
    pub tx_bytes: Arc<AtomicU64>,
}

impl FlexranNode {
    /// An agent whose statistics come from `snapshot`.
    pub fn new(snapshot: impl FnMut(u64) -> FlexranSnapshot + Send + 'static) -> Self {
        FlexranNode {
            snapshot: Box::new(snapshot),
            link: None,
            report: None,
            echo_rx: Arc::default(),
            tx_bytes: Arc::default(),
        }
    }

    /// Connects to the controller at `ctrl` and runs the agent on the
    /// driver, on `tick_ms`'s clock (`None`: only the handle's `tick`
    /// moves it).
    pub fn spawn(
        self,
        ctrl: &TransportAddr,
        tick_ms: Option<u64>,
    ) -> io::Result<MachineHandle<Self>> {
        spawn_machine(vec![self], vec![Links::Dial(ctrl.clone())], tick_ms)
    }

    fn send(&self, kind: u32, body: &[u8], out: &mut Vec<Action<Infallible>>) {
        let Some(peer) = self.link else { return };
        let msg = wrap(kind, body);
        self.tx_bytes.fetch_add(msg.payload.len() as u64, Ordering::Relaxed);
        out.push(Action::Send(peer, msg));
    }

    fn tick(&mut self, now_ms: u64, out: &mut Vec<Action<Infallible>>) {
        let Some((period, due)) = self.report.filter(|&(_, due)| now_ms >= due) else { return };
        // The E2 agent's re-arm rule: the first point after now of a grid
        // of whole periods from the due time that fired.
        self.report = Some((period, due + ((now_ms - due) / period + 1) * period));
        let snap = (self.snapshot)(now_ms);
        self.send(msg_type::STATS_REPORT, &snap.mac.encode_pb(), out);
        if !snap.rlc.bearers.is_empty() {
            self.send(msg_type::STATS_REPORT_RLC, &snap.rlc.encode_pb(), out);
        }
        if !snap.pdcp.bearers.is_empty() {
            self.send(msg_type::STATS_REPORT_PDCP, &snap.pdcp.encode_pb(), out);
        }
    }
}

impl Machine for FlexranNode {
    type In = NodeIn;
    type Out = Infallible;

    fn handle(&mut self, event: Event<NodeIn>, now_ms: u64, out: &mut Vec<Action<Infallible>>) {
        match event {
            Event::Dialled(_, Ok(peer)) => {
                self.link = Some(peer);
                self.send(msg_type::HELLO, &field1(1), out);
            }
            Event::App(NodeIn::Echo(payload)) => self.send(msg_type::ECHO_REQUEST, &payload, out),
            Event::Frame(peer, payload) if self.link == Some(peer) => match open(&payload) {
                Some((msg_type::STATS_REQUEST, body)) => {
                    let period = PbReader::new(&body).next_field().ok().flatten();
                    if let Some(Ok(period)) = period.map(|(_, v)| v.as_uint()) {
                        self.report = Some((period.max(1), now_ms));
                    }
                }
                // The receive time is the application's measurement, as
                // the E2 pinger's is.
                Some((msg_type::ECHO_REPLY, body)) => {
                    self.echo_rx.lock().expect("lock poisoned").push((body, flexric::mono_ns()))
                }
                _ => {}
            },
            Event::Closed(peer) if self.link == Some(peer) => {
                self.link = None;
                out.push(Action::Hangup(peer));
            }
            Event::Tick => self.tick(now_ms, out),
            Event::Frame(..) | Event::Closed(_) | Event::Accepted(..) | Event::Dialled(..) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_sm::mac::MacUeStats;
    use flexric_sm::rlc::RlcBearerStats;
    use std::time::Duration;

    use crate::test_util::wait_until;

    fn sample(ues: u16) -> MacStatsInd {
        MacStatsInd {
            tstamp_ms: 42,
            cell_prbs: 25,
            ues: (0..ues)
                .map(|i| MacUeStats {
                    rnti: 0x4601 + i,
                    cqi: 15,
                    mcs: 28,
                    tbs_dl_bytes: 2_000,
                    ..Default::default()
                })
                .collect(),
        }
    }

    fn mac_only(now: u64) -> FlexranSnapshot {
        let mut mac = sample(4);
        mac.tstamp_ms = now;
        FlexranSnapshot { mac, ..Default::default() }
    }

    #[test]
    fn pb_stats_roundtrip() {
        let ind = sample(32);
        assert_eq!(MacStatsInd::decode_pb(&ind.encode_pb()), Ok(ind));
    }

    #[test]
    fn pb_is_compact() {
        // FlexRAN's single-layer protobuf is the smallest wire format in
        // the paper's Fig. 7b.
        let ind = sample(32);
        let pb = ind.encode_pb();
        let fb = flexric_sm::SmPayload::encode(&ind, flexric_sm::SmCodec::Flatb);
        assert!(pb.len() < fb.len(), "pb={} fb={}", pb.len(), fb.len());
    }

    // -- The machines, fed events ------------------------------------------

    /// Hands `machine` one event and returns what it sends, opened, by peer.
    fn feed<M: Machine<Out = Infallible>>(
        machine: &mut M,
        event: Event<M::In>,
        now_ms: u64,
    ) -> Vec<(PeerId, u32, Bytes)> {
        let mut out = Vec::new();
        machine.handle(event, now_ms, &mut out);
        out.into_iter()
            .map(|action| match action {
                Action::Send(peer, msg) => {
                    let (kind, body) = open(&msg.payload).expect("an envelope");
                    (peer, kind, body)
                }
                other => panic!("sent no {other:?}"),
            })
            .collect()
    }

    fn kinds(sent: Vec<(PeerId, u32, Bytes)>) -> Vec<u32> {
        sent.into_iter().map(|(_, kind, _)| kind).collect()
    }

    #[test]
    fn a_node_reports_on_the_agents_grid_once_asked() {
        use msg_type::*;
        let mut reports = 0u64;
        // RLC on every second report, PDCP never.
        let mut node = FlexranNode::new(move |now| {
            reports += 1;
            let bearers = vec![RlcBearerStats::default(); (reports % 2) as usize];
            FlexranSnapshot { rlc: RlcStatsInd { tstamp_ms: now, bearers }, ..mac_only(now) }
        });
        assert_eq!(kinds(feed(&mut node, Event::Dialled(0, Ok(7)), 0)), [HELLO]);
        assert!((0..20).all(|t| feed(&mut node, Event::Tick, t).is_empty()), "unasked");
        let ask = wrap(STATS_REQUEST, &field1(10)).payload;
        assert!(feed(&mut node, Event::Frame(7, ask), 23).is_empty());
        // Due at 23, 33, 43, …; the tick at 45 is late, which delays that
        // report and moves no later one.
        let sent: Vec<(u64, Vec<u32>)> = [23, 24, 32, 33, 45, 52, 53, 63]
            .into_iter()
            .map(|t| (t, kinds(feed(&mut node, Event::Tick, t))))
            .filter(|(_, k)| !k.is_empty())
            .collect();
        let rlc = vec![STATS_REPORT, STATS_REPORT_RLC];
        let mac = vec![STATS_REPORT];
        assert_eq!(
            sent,
            [(23, rlc.clone()), (33, mac.clone()), (45, rlc.clone()), (53, mac), (63, rlc)]
        );
    }

    #[test]
    fn the_controller_asks_answers_echoes_and_polls_once_per_tick() {
        use msg_type::*;
        let mut ctrl = FlexranCtrl::new(5);
        let sent = feed(&mut ctrl, Event::Accepted(3, "mem:3".into()), 0);
        assert_eq!(sent, [(3, STATS_REQUEST, Bytes::from(field1(5)))]);
        let echo = wrap(ECHO_REQUEST, b"ping").payload;
        assert_eq!(
            feed(&mut ctrl, Event::Frame(3, echo), 0),
            [(3, ECHO_REPLY, Bytes::from_static(b"ping"))]
        );
        for t in 1..=4 {
            assert!(feed(&mut ctrl, Event::Tick, t).is_empty());
        }
        assert_eq!(ctrl.counters.polls.load(Ordering::Relaxed), 4);
        let report = wrap(STATS_REPORT, &sample(4).encode_pb()).payload;
        assert!(feed(&mut ctrl, Event::Frame(3, report.clone()), 5).is_empty());
        assert!(feed(&mut ctrl, Event::Frame(9, report), 5).is_empty(), "an unknown peer");
        assert_eq!(ctrl.counters.reports.load(Ordering::Relaxed), 1);
        assert_eq!(ctrl.rib.lock().unwrap().bs[&3].len(), 4, "four UEs of BS 3, the link's id");
        let mut out = Vec::new();
        ctrl.handle(Event::Closed(3), 6, &mut out);
        ctrl.handle(Event::Closed(3), 6, &mut out);
        assert!(matches!(out[..], [Action::Hangup(3)]), "hung up once: {out:?}");
    }

    // -- On the driver -------------------------------------------------------

    /// A controller at `mem:<name>` asking for statistics every 1 ms, and
    /// its counters.
    fn controller(name: &str) -> (MachineHandle<FlexranCtrl>, Arc<FlexranCounters>) {
        let ctrl = FlexranCtrl::new(1);
        let counters = ctrl.counters.clone();
        (ctrl.spawn(&TransportAddr::Mem(name.into())).unwrap(), counters)
    }

    /// Dropping the handle stops the 1 ms poller, as every SDK handle
    /// stops with its last clone.
    #[test]
    fn a_dropped_controller_stops_polling() {
        let (ctrl, counters) = controller("fxr-drop");
        drop(ctrl);
        std::thread::sleep(Duration::from_millis(20));
        let polls = counters.polls.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(counters.polls.load(Ordering::Relaxed), polls, "still polling after drop");
    }

    /// `stop()` closes the listener and every agent connection, as every
    /// SDK handle's `stop()` does: a dial is refused, and a report sent
    /// anyway is not ingested.
    #[test]
    fn a_stopped_controller_serves_no_one() {
        let (ctrl, counters) = controller("fxr-stop");
        ctrl.stop();
        let dialled = FlexranNode::new(mac_only).spawn(&ctrl.addrs[0], None);
        if let Ok(agent) = &dialled {
            for t in 0..30 {
                agent.tick(t);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(counters.reports.load(Ordering::Relaxed), 0, "reports ingested after stop");
        assert!(dialled.is_err(), "a stopped controller took a dial");
    }

    #[test]
    fn controller_ingests_reports_and_echo() {
        let ctrl = FlexranCtrl::new(1);
        let (rib, counters) = (ctrl.rib.clone(), ctrl.counters.clone());
        let ctrl = ctrl.spawn(&TransportAddr::Mem("fxr-test".into())).unwrap();
        let node = FlexranNode::new(mac_only);
        let echo_rx = node.echo_rx.clone();
        let agent = node.spawn(&ctrl.addrs[0], None).unwrap();
        // Drive ticks until reports land.
        let mut t = 0;
        assert!(wait_until(Duration::from_secs(5), || {
            t += 1;
            agent.tick(t);
            counters.reports.load(Ordering::Relaxed) >= 10
        }));
        {
            let rib = rib.lock().unwrap();
            let bs = rib.bs.get(&1).expect("the first link's BS present");
            assert_eq!(bs.len(), 4, "four UEs in RIB");
            assert!(rib.updates >= 10);
        }
        // Echo round-trip.
        agent.send(NodeIn::Echo(Bytes::from(vec![0u8; 100])));
        assert!(wait_until(Duration::from_secs(1), || !echo_rx.lock().unwrap().is_empty()));
        assert_eq!(echo_rx.lock().unwrap().len(), 1);
        assert_eq!(echo_rx.lock().unwrap()[0].0.len(), 100);
        ctrl.stop();
        agent.stop();
    }
}
