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

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use bytes::Bytes;

use flexric_codec::pb::{PbReader, PbWriter};
use flexric_sm::mac::MacStatsInd;
use flexric_sm::pdcp::PdcpStatsInd;
use flexric_sm::rlc::RlcStatsInd;
use flexric_transport::{connect, listen, Serving, Transport, TransportAddr, WireMsg};

/// FlexRAN-protocol message types (the `ppid` of the framing layer).
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

/// The FlexRAN-style RIB: decoded protobuf object trees retained per base
/// station and UE, with string-keyed attribute maps — deliberately the
/// allocation-heavy organization the paper measures.
#[derive(Debug, Default)]
pub struct Rib {
    /// Per-BS, per-UE attribute maps.
    pub bs: HashMap<u64, HashMap<u16, HashMap<String, u64>>>,
    /// History ring of raw reports (FlexRAN keeps recent reports for its
    /// northbound).
    pub history: std::collections::VecDeque<Vec<u8>>,
    /// Updates applied.
    pub updates: u64,
}

impl Rib {
    /// History ring depth.
    pub const HISTORY: usize = 8192;

    /// Ingests one decoded report (plus its raw bytes for the history).
    pub fn ingest(&mut self, bs_id: u64, raw: &[u8], ind: &MacStatsInd) {
        let bs = self.bs.entry(bs_id).or_default();
        for ue in &ind.ues {
            let attrs = bs.entry(ue.rnti).or_default();
            attrs.insert("cqi".to_owned(), ue.cqi as u64);
            attrs.insert("mcs".to_owned(), ue.mcs as u64);
            attrs.insert("prbs_dl".to_owned(), ue.prbs_dl as u64);
            attrs.insert("tbs_dl_bytes".to_owned(), ue.tbs_dl_bytes);
            attrs.insert("dl_aggr_bytes".to_owned(), ue.dl_aggr_bytes);
            attrs.insert("bsr".to_owned(), ue.bsr as u64);
            attrs.insert("backlog".to_owned(), ue.dl_backlog_bytes);
            attrs.insert("slice".to_owned(), ue.slice_id as u64);
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
    /// Wire bytes received.
    pub rx_bytes: AtomicU64,
}

/// Handle to a running FlexRAN-style controller.  Its polling application
/// stops when [`stop`](Self::stop) is called or the handle is dropped.
pub struct FlexranController {
    /// Address agents connect to.
    pub addr: TransportAddr,
    /// The RIB.
    pub rib: Arc<Mutex<Rib>>,
    /// Counters.
    pub counters: Arc<FlexranCounters>,
    stop: Arc<AtomicBool>,
    /// The south-bound listener; closed when the controller is dropped.
    _serving: Serving,
}

impl FlexranController {
    /// Binds the south-bound listener and starts the controller: a
    /// connection handler per agent plus the 1 ms polling application.
    pub fn spawn(addr: &TransportAddr, stats_period_ms: u32) -> io::Result<Self> {
        let listener = listen(addr)?;
        let bound = listener.local_addr()?;
        let rib = Arc::new(Mutex::new(Rib::default()));
        let counters = Arc::new(FlexranCounters::default());
        let stop = Arc::new(AtomicBool::new(false));

        // One thread per agent connection, for as long as it lasts.
        let serving = {
            let rib = rib.clone();
            let counters = counters.clone();
            let mut next_bs = 0u64;
            listener.serve(Box::new(move |conn| {
                let bs_id = next_bs;
                next_bs += 1;
                let rib = rib.clone();
                let counters = counters.clone();
                // An agent that cannot get a thread is dropped.
                let _ = std::thread::Builder::new().name("flexran-agent-conn".into()).spawn(
                    move || {
                        let _ = serve_agent(conn, bs_id, stats_period_ms, rib, counters);
                    },
                );
            }))?
        };

        // The polling application: scans the RIB every millisecond —
        // FlexRAN's documented overhead pattern.
        {
            let rib = rib.clone();
            let counters = counters.clone();
            let stop = stop.clone();
            std::thread::Builder::new().name("flexran-poll".into()).spawn(move || {
                let mut last_update = 0u64;
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let table = rib.lock().expect("lock poisoned");
                    // Poll: walk every UE of every BS looking for news.
                    let mut sum = 0u64;
                    for bs in table.bs.values() {
                        for attrs in bs.values() {
                            sum = sum.wrapping_add(*attrs.get("tbs_dl_bytes").unwrap_or(&0));
                        }
                    }
                    std::hint::black_box(sum);
                    let _changed = table.updates != last_update;
                    last_update = table.updates;
                    counters.polls.fetch_add(1, Ordering::Relaxed);
                }
            })?;
        }

        Ok(FlexranController { addr: bound, rib, counters, stop, _serving: serving })
    }

    /// Stops the polling application.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for FlexranController {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_agent(
    conn: Transport,
    bs_id: u64,
    stats_period_ms: u32,
    rib: Arc<Mutex<Rib>>,
    counters: Arc<FlexranCounters>,
) -> io::Result<()> {
    let (mut tx, mut rx) = conn.split();
    // Ask for statistics immediately (FlexRAN's stats request config).
    let mut req = PbWriter::new();
    req.uint(1, stats_period_ms as u64);
    tx.send(WireMsg { stream: 0, ppid: msg_type::STATS_REQUEST, payload: req.finish().into() })?;
    while let Some(msg) = rx.recv()? {
        counters.rx_bytes.fetch_add(msg.payload.len() as u64, Ordering::Relaxed);
        match msg.ppid {
            msg_type::STATS_REPORT => {
                counters.reports.fetch_add(1, Ordering::Relaxed);
                if let Ok(ind) = MacStatsInd::decode_pb(&msg.payload) {
                    rib.lock().expect("lock poisoned").ingest(bs_id, &msg.payload, &ind);
                }
            }
            msg_type::STATS_REPORT_RLC => {
                counters.reports.fetch_add(1, Ordering::Relaxed);
                if let Ok(ind) = RlcStatsInd::decode_pb(&msg.payload) {
                    let mut table = rib.lock().expect("lock poisoned");
                    let bs = table.bs.entry(bs_id).or_default();
                    for b in &ind.bearers {
                        let attrs = bs.entry(b.rnti).or_default();
                        attrs.insert("rlc_buffer".to_owned(), b.buffer_bytes);
                        attrs.insert("rlc_sojourn".to_owned(), b.sojourn_us_avg);
                        attrs.insert("rlc_tx_bytes".to_owned(), b.tx_bytes);
                    }
                    table.history.push_back(msg.payload.to_vec());
                    if table.history.len() > Rib::HISTORY {
                        table.history.pop_front();
                    }
                    table.updates += 1;
                }
            }
            msg_type::STATS_REPORT_PDCP => {
                counters.reports.fetch_add(1, Ordering::Relaxed);
                if let Ok(ind) = PdcpStatsInd::decode_pb(&msg.payload) {
                    let mut table = rib.lock().expect("lock poisoned");
                    let bs = table.bs.entry(bs_id).or_default();
                    for b in &ind.bearers {
                        let attrs = bs.entry(b.rnti).or_default();
                        attrs.insert("pdcp_tx_bytes".to_owned(), b.tx_bytes);
                        attrs.insert("pdcp_tx_aggr".to_owned(), b.tx_aggr_bytes);
                    }
                    table.history.push_back(msg.payload.to_vec());
                    if table.history.len() > Rib::HISTORY {
                        table.history.pop_front();
                    }
                    table.updates += 1;
                }
            }
            msg_type::ECHO_REQUEST => {
                tx.send(WireMsg {
                    stream: msg.stream,
                    ppid: msg_type::ECHO_REPLY,
                    payload: msg.payload,
                })?;
            }
            msg_type::HELLO => {}
            _ => {}
        }
    }
    Ok(())
}

/// Commands accepted by a running FlexRAN-style agent.
pub enum FlexranAgentCmd {
    /// Advance time; due statistics are pushed.
    Tick(u64),
    /// Send an echo request with the given payload.
    Echo(Bytes),
    /// Stop.
    Stop,
}

/// What the agent's thread waits for: a command, or what its connection
/// delivered (`None` once it ended).
enum AgentInput {
    Cmd(FlexranAgentCmd),
    Wire(Option<WireMsg>),
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

/// Handle to a running FlexRAN-style agent.  The agent stops, and closes
/// its connection, when [`stop`](Self::stop) is called or the handle is
/// dropped.
pub struct FlexranAgent {
    cmd: mpsc::Sender<AgentInput>,
    /// Echo replies observed `(payload, receive mono ns)`.
    pub echo_rx: Arc<Mutex<Vec<(Bytes, u64)>>>,
    /// Bytes sent on the wire.
    pub tx_bytes: Arc<AtomicU64>,
}

impl FlexranAgent {
    /// Connects to the controller; statistics snapshots come from
    /// `snapshot` on each due tick.
    pub fn spawn(
        addr: &TransportAddr,
        mut snapshot: impl FnMut(u64) -> FlexranSnapshot + Send + 'static,
    ) -> io::Result<Self> {
        let conn = connect(addr)?;
        let (mut tx, rx_half) = conn.split();
        let (cmd_tx, inputs) = mpsc::channel();
        let echo_rx = Arc::new(Mutex::new(Vec::new()));
        let tx_bytes = Arc::new(AtomicU64::new(0));
        let echo_rx2 = echo_rx.clone();
        let tx_bytes2 = tx_bytes.clone();
        // What arrives joins the commands on the one queue the thread reads.
        let wire_tx = cmd_tx.clone();
        let reader = rx_half.pump(Box::new(move |msg| {
            let _ = wire_tx.send(AgentInput::Wire(msg));
        }))?;
        std::thread::Builder::new().name("flexran-agent".into()).spawn(move || {
            let _reader = reader;
            let mut hello = PbWriter::new();
            hello.uint(1, 1);
            let _ = tx.send(WireMsg {
                stream: 0,
                ppid: msg_type::HELLO,
                payload: hello.finish().into(),
            });
            let mut period_ms: Option<u64> = None;
            let mut due_ms = 0u64;
            let mut send = |ppid: u32, payload: Bytes| {
                tx_bytes2.fetch_add(payload.len() as u64, Ordering::Relaxed);
                tx.send(WireMsg { stream: 0, ppid, payload })
            };
            while let Ok(input) = inputs.recv() {
                let sent = match input {
                    AgentInput::Cmd(FlexranAgentCmd::Tick(now)) => match period_ms {
                        Some(p) if now >= due_ms => {
                            // The E2 agent's re-arm rule: whole periods
                            // from the due time to the first one after now.
                            due_ms += ((now - due_ms) / p + 1) * p;
                            let snap = snapshot(now);
                            let mut parts: Vec<(u32, Bytes)> =
                                vec![(msg_type::STATS_REPORT, snap.mac.encode_pb().into())];
                            if !snap.rlc.bearers.is_empty() {
                                parts.push((
                                    msg_type::STATS_REPORT_RLC,
                                    snap.rlc.encode_pb().into(),
                                ));
                            }
                            if !snap.pdcp.bearers.is_empty() {
                                parts.push((
                                    msg_type::STATS_REPORT_PDCP,
                                    snap.pdcp.encode_pb().into(),
                                ));
                            }
                            parts.into_iter().try_for_each(|(ppid, payload)| send(ppid, payload))
                        }
                        _ => Ok(()),
                    },
                    AgentInput::Cmd(FlexranAgentCmd::Echo(payload)) => {
                        send(msg_type::ECHO_REQUEST, payload)
                    }
                    AgentInput::Cmd(FlexranAgentCmd::Stop) | AgentInput::Wire(None) => break,
                    AgentInput::Wire(Some(msg)) => {
                        match msg.ppid {
                            msg_type::STATS_REQUEST => {
                                let mut r = PbReader::new(&msg.payload);
                                if let Ok(Some((1, v))) = r.next_field() {
                                    if let Ok(p) = v.as_uint() {
                                        period_ms = Some(p.max(1));
                                    }
                                }
                            }
                            msg_type::ECHO_REPLY => {
                                echo_rx2
                                    .lock()
                                    .expect("lock poisoned")
                                    .push((msg.payload, now_ns()));
                            }
                            _ => {}
                        }
                        Ok(())
                    }
                };
                if sent.is_err() {
                    break;
                }
            }
        })?;
        Ok(FlexranAgent { cmd: cmd_tx, echo_rx, tx_bytes })
    }

    /// Advances agent time.
    pub fn tick(&self, now_ms: u64) {
        let _ = self.cmd.send(AgentInput::Cmd(FlexranAgentCmd::Tick(now_ms)));
    }

    /// Sends an echo request.
    pub fn echo(&self, payload: Bytes) {
        let _ = self.cmd.send(AgentInput::Cmd(FlexranAgentCmd::Echo(payload)));
    }

    /// Stops the agent.
    pub fn stop(&self) {
        let _ = self.cmd.send(AgentInput::Cmd(FlexranAgentCmd::Stop));
    }
}

impl Drop for FlexranAgent {
    fn drop(&mut self) {
        self.stop();
    }
}

fn now_ns() -> u64 {
    flexric::mono_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_sm::mac::MacUeStats;
    use std::time::Duration;

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

    /// Dropping the handle stops the 1 ms poller, as every SDK handle
    /// stops with its last clone.
    #[test]
    fn a_dropped_controller_stops_polling() {
        let ctrl = FlexranController::spawn(&TransportAddr::Mem("fxr-drop".into()), 1).unwrap();
        let counters = ctrl.counters.clone();
        drop(ctrl);
        std::thread::sleep(Duration::from_millis(20));
        let polls = counters.polls.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(counters.polls.load(Ordering::Relaxed), polls, "still polling after drop");
    }

    #[test]
    fn controller_ingests_reports_and_echo() {
        let ctrl = FlexranController::spawn(&TransportAddr::Mem("fxr-test".into()), 1).unwrap();
        let agent = FlexranAgent::spawn(&ctrl.addr, |now| {
            let mut s = sample(4);
            s.tstamp_ms = now;
            FlexranSnapshot { mac: s, ..Default::default() }
        })
        .unwrap();
        // Drive ticks until reports land.
        for t in 0..50u64 {
            agent.tick(t);
            std::thread::sleep(Duration::from_millis(1));
            if ctrl.counters.reports.load(Ordering::Relaxed) >= 10 {
                break;
            }
        }
        assert!(ctrl.counters.reports.load(Ordering::Relaxed) >= 10);
        {
            let rib = ctrl.rib.lock().unwrap();
            let bs = rib.bs.get(&0).expect("bs 0 present");
            assert_eq!(bs.len(), 4, "four UEs in RIB");
            assert!(rib.updates >= 10);
        }
        // Echo round-trip.
        agent.echo(Bytes::from(vec![0u8; 100]));
        for _ in 0..100 {
            if !agent.echo_rx.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(agent.echo_rx.lock().unwrap().len(), 1);
        assert_eq!(agent.echo_rx.lock().unwrap()[0].0.len(), 100);
        ctrl.stop();
        agent.stop();
    }
}
