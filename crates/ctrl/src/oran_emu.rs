//! O-RAN RIC baseline emulation (paper §5.4).
//!
//! The reference O-RAN RIC is a micro-service platform: agents terminate
//! at an "E2 termination" component, which routes messages over the RMR
//! library to xApps running in separate containers.  The paper attributes
//! its costs to structural decisions, which this emulation reproduces
//! *mechanically* rather than with constants:
//!
//! * **two hops** — every message crosses E2 termination and an RMR/TCP
//!   hop before reaching the xApp (Fig. 9a RTT);
//! * **double decode** — "indication messages are decoded twice, once in
//!   the E2 termination, and the xApp" (Fig. 9b CPU): the E2T decodes the
//!   full ASN.1 PDU, re-encodes it for RMR, and the xApp decodes it again;
//! * **platform footprint** — ~15 always-on platform components
//!   (databases, monitors, managers) holding resident memory and doing
//!   periodic work (Fig. 9b memory / Table 2 size); modelled by
//!   [`spawn_platform`] with configurable per-component residency —
//!   a synthetic substitute documented in DESIGN.md;
//! * **discovery by polling** — xApps poll the platform to discover
//!   agents instead of being notified ([`OranXapp`] polls E2T).
//!
//! The E2AP encoding is ASN.1 PER throughout, as mandated by O-RAN.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use flexric::server::{
    AgentId, CtrlOutcome, IApp, IndicationRef, Server, ServerApi, ServerConfig, SubOutcome,
};
use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_transport::{connect, listen, TransportAddr, WireMsg};

/// RMR message types (a subset of the real RMR ids).
pub mod rmr {
    /// RIC indication.
    pub const INDICATION: u32 = 12050;
    /// Subscription request.
    pub const SUB_REQ: u32 = 12010;
    /// Subscription response.
    pub const SUB_RESP: u32 = 12011;
    /// Subscription failure.
    pub const SUB_FAIL: u32 = 12012;
    /// Control request.
    pub const CTRL_REQ: u32 = 12040;
    /// Control acknowledge.
    pub const CTRL_ACK: u32 = 12041;
    /// Control failure.
    pub const CTRL_FAIL: u32 = 12042;
    /// xApp asks E2T for connected agents (discovery polling).
    pub const AGENT_QUERY: u32 = 30000;
    /// E2T answers with an agent list (one agent id per u16-BE pair).
    pub const AGENT_LIST: u32 = 30001;
}

/// Messages from the RMR reader into the E2T iApp.
enum FromXapp {
    Pdu(AgentId, E2apPdu),
    Query,
}

/// The E2 termination iApp.
struct E2tApp {
    codec: E2apCodec,
    rmr_tx: mpsc::Sender<WireMsg>,
    agents: Vec<AgentId>,
}

impl E2tApp {
    fn send_north(&self, ppid: u32, agent: AgentId, pdu: &E2apPdu) {
        // The E2T re-encodes the PDU for the RMR leg — the first half of
        // the double-encode the paper measures.
        let buf = Bytes::from(self.codec.encode(pdu));
        let _ = self.rmr_tx.send(WireMsg { stream: agent as u16, ppid, payload: buf });
    }
}

impl IApp for E2tApp {
    fn name(&self) -> &str {
        "e2t"
    }

    fn on_agent_connected(&mut self, _api: &mut ServerApi, agent: &flexric::server::AgentInfo) {
        self.agents.push(agent.id);
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        self.agents.retain(|a| *a != agent);
    }

    fn on_indication(&mut self, _api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        // ASN.1 path: the dispatch already decoded the PDU (decode #1).
        if let Ok(owned) = ind.to_owned_indication() {
            self.send_north(rmr::INDICATION, agent, &E2apPdu::RicIndication(owned));
        }
    }

    fn on_subscription_outcome(&mut self, _api: &mut ServerApi, agent: AgentId, out: &SubOutcome) {
        let ppid = match out {
            SubOutcome::Admitted(_) => rmr::SUB_RESP,
            _ => rmr::SUB_FAIL,
        };
        self.send_north(ppid, agent, &out.to_pdu());
    }

    fn on_control_outcome(&mut self, _api: &mut ServerApi, agent: AgentId, out: &CtrlOutcome) {
        let ppid = match out {
            CtrlOutcome::Ack(_) => rmr::CTRL_ACK,
            _ => rmr::CTRL_FAIL,
        };
        self.send_north(ppid, agent, &out.to_pdu());
    }

    fn on_custom(&mut self, api: &mut ServerApi, msg: Box<dyn std::any::Any + Send>) {
        let Ok(from) = msg.downcast::<FromXapp>() else { return };
        match *from {
            FromXapp::Query => {
                let mut payload = Vec::with_capacity(self.agents.len() * 2);
                for a in &self.agents {
                    payload.extend_from_slice(&(*a as u16).to_be_bytes());
                }
                let _ = self.rmr_tx.send(WireMsg {
                    stream: 0,
                    ppid: rmr::AGENT_LIST,
                    payload: payload.into(),
                });
            }
            FromXapp::Pdu(agent, pdu) => api.forward_request(agent, pdu),
        }
    }
}

/// Spawns the E2 termination: a south E2 server plus an RMR connection to
/// the xApp at `rmr_xapp_addr`.  Returns the south listen address.
pub fn run_e2term(
    south_listen: TransportAddr,
    rmr_xapp_addr: TransportAddr,
) -> io::Result<TransportAddr> {
    let codec = E2apCodec::Asn1Per; // O-RAN mandates ASN.1 PER.
    let (rmr_tx, rmr_out) = mpsc::channel::<WireMsg>();
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 0xE2), south_listen);
    cfg.codec = codec;
    cfg.tick_ms = None;
    let app = E2tApp { codec, rmr_tx, agents: Vec::new() };
    let handle = Server::spawn(cfg, vec![Box::new(app)])?;
    let south_addr = handle.addrs[0].clone();

    let rmr_conn = connect(&rmr_xapp_addr)?;
    let (mut tx_half, mut rx_half) = rmr_conn.split();
    std::thread::spawn(move || {
        while let Ok(msg) = rmr_out.recv() {
            if tx_half.send(msg).is_err() {
                break;
            }
        }
    });
    let h = handle.clone();
    std::thread::spawn(move || {
        while let Ok(Some(msg)) = rx_half.recv() {
            if msg.ppid == rmr::AGENT_QUERY {
                h.to_iapp("e2t", Box::new(FromXapp::Query));
                continue;
            }
            // Decode the xApp's ASN.1 PDU at the E2T (validation cost),
            // then the server re-encodes it toward the agent.
            let agent = msg.stream as AgentId;
            if let Ok(pdu) = codec.decode(&msg.payload) {
                h.to_iapp("e2t", Box::new(FromXapp::Pdu(agent, pdu)));
            }
        }
    });
    Ok(south_addr)
}

/// Counters of a running O-RAN-style xApp.
#[derive(Debug, Default)]
pub struct OranXappCounters {
    /// Indications fully decoded (the second decode).
    pub indications: AtomicU64,
    /// Wire bytes received over RMR.
    pub rx_bytes: AtomicU64,
    /// Discovery polls issued.
    pub polls: AtomicU64,
}

/// A monitoring xApp in the O-RAN style: discovers agents by polling,
/// subscribes through the E2T, decodes every indication (decode #2).
pub struct OranXapp {
    /// RMR listen address (E2T connects here).
    pub rmr_addr: TransportAddr,
    /// Counters.
    pub counters: Arc<OranXappCounters>,
    /// RTT samples (ns) of HW pings sent with [`OranXapp::ping`].
    pub rtts: Arc<Mutex<Vec<u64>>>,
    /// Agents discovered through polling.
    pub discovered: Arc<Mutex<Vec<AgentId>>>,
    cmd: mpsc::Sender<XappIn>,
}

enum XappCmd {
    Ping { agent: AgentId, payload_size: usize },
    Subscribe { agent: AgentId, ran_function: RanFunctionId, period_ms: u32 },
}

/// What the xApp's thread waits for: a command, or what the RMR connection
/// delivered (`None` once it ended).
enum XappIn {
    Cmd(XappCmd),
    Wire(Option<WireMsg>),
}

impl OranXapp {
    /// Binds the RMR listener and starts the xApp loop.  `sm_codec` is the
    /// service-model encoding used on payloads.
    pub fn spawn(rmr_listen: TransportAddr, sm_codec: flexric_sm::SmCodec) -> io::Result<OranXapp> {
        use flexric_sm::SmPayload;
        let codec = E2apCodec::Asn1Per;
        let mut listener = listen(&rmr_listen)?;
        let rmr_addr = listener.local_addr()?;
        let counters = Arc::new(OranXappCounters::default());
        let rtts = Arc::new(Mutex::new(Vec::new()));
        let discovered = Arc::new(Mutex::new(Vec::new()));
        let (cmd_tx, inputs) = mpsc::channel::<XappIn>();

        let c = counters.clone();
        let r = rtts.clone();
        let d = discovered.clone();
        let wire_tx = cmd_tx.clone();
        std::thread::Builder::new().name("oran-xapp".into()).spawn(move || {
            let Ok(conn) = listener.accept() else { return };
            let (mut tx, rx) = conn.split();
            // What arrives joins the commands on the one queue read below.
            let Ok(_reader) = rx.pump(Box::new(move |msg| {
                let _ = wire_tx.send(XappIn::Wire(msg));
            })) else {
                return;
            };
            // Discovery by polling: ask for agents every 100 ms.
            let poll_every = Duration::from_millis(100);
            let mut next_poll = Instant::now();
            let mut next_instance = 0u16;
            let mut outstanding_ping: HashMap<RicRequestId, u64> = HashMap::new();
            let mut seq = 0u32;
            loop {
                let input = match inputs
                    .recv_timeout(next_poll.saturating_duration_since(Instant::now()))
                {
                    Ok(input) => input,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        next_poll = Instant::now() + poll_every;
                        c.polls.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(WireMsg {
                            stream: 0,
                            ppid: rmr::AGENT_QUERY,
                            payload: Bytes::new(),
                        });
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                match input {
                    XappIn::Cmd(XappCmd::Subscribe { agent, ran_function, period_ms }) => {
                        next_instance += 1;
                        let req_id = RicRequestId::new(1000, next_instance);
                        let trigger = Bytes::from(
                            flexric_sm::ReportTrigger::every_ms(period_ms).encode(sm_codec),
                        );
                        let pdu = E2apPdu::RicSubscriptionRequest(RicSubscriptionRequest {
                            req_id,
                            ran_function,
                            event_trigger: trigger,
                            actions: vec![RicActionToBeSetup {
                                id: RicActionId(0),
                                action_type: RicActionType::Report,
                                definition: None,
                                subsequent: None,
                            }],
                        });
                        // Encode at the xApp (encode #1 of the double encode).
                        let buf = Bytes::from(codec.encode(&pdu));
                        let _ = tx.send(WireMsg {
                            stream: agent as u16,
                            ppid: rmr::SUB_REQ,
                            payload: buf,
                        });
                    }
                    XappIn::Cmd(XappCmd::Ping { agent, payload_size }) => {
                        next_instance += 1;
                        seq += 1;
                        let req_id = RicRequestId::new(1000, next_instance);
                        let t0 = flexric::mono_ns();
                        let ping = flexric_sm::hw::HwPing::sized(seq, t0, payload_size);
                        let pdu = E2apPdu::RicControlRequest(RicControlRequest {
                            req_id,
                            ran_function: RanFunctionId::new(flexric_sm::rf::HW),
                            call_process_id: None,
                            header: Bytes::new(),
                            message: Bytes::from(ping.encode(sm_codec)),
                            ack_request: None,
                        });
                        let buf = Bytes::from(codec.encode(&pdu));
                        outstanding_ping.insert(req_id, t0);
                        let _ = tx.send(WireMsg {
                            stream: agent as u16,
                            ppid: rmr::CTRL_REQ,
                            payload: buf,
                        });
                    }
                    XappIn::Wire(None) => break,
                    XappIn::Wire(Some(msg)) => {
                        c.rx_bytes.fetch_add(msg.payload.len() as u64, Ordering::Relaxed);
                        match msg.ppid {
                            rmr::INDICATION => {
                                // The second full decode of the pipeline.
                                if let Ok(E2apPdu::RicIndication(ind)) = codec.decode(&msg.payload)
                                {
                                    c.indications.fetch_add(1, Ordering::Relaxed);
                                    if let Some(t0) = outstanding_ping.remove(&ind.req_id) {
                                        r.lock()
                                            .expect("lock poisoned")
                                            .push(flexric::mono_ns() - t0);
                                    } else {
                                        // Monitoring: decode the SM payload too.
                                        let _ = flexric_sm::mac::MacStatsInd::decode(
                                            sm_codec,
                                            &ind.message,
                                        );
                                    }
                                }
                            }
                            rmr::AGENT_LIST => {
                                let mut list = d.lock().expect("lock poisoned");
                                list.clear();
                                for pair in msg.payload.chunks_exact(2) {
                                    list.push(u16::from_be_bytes([pair[0], pair[1]]) as AgentId);
                                }
                            }
                            rmr::SUB_RESP | rmr::SUB_FAIL | rmr::CTRL_ACK | rmr::CTRL_FAIL => {
                                let _ = codec.decode(&msg.payload); // validate
                            }
                            _ => {}
                        }
                    }
                }
            }
        })?;

        Ok(OranXapp { rmr_addr, counters, rtts, discovered, cmd: cmd_tx })
    }

    /// Sends an HW ping through the full pipeline.
    pub fn ping(&self, agent: AgentId, payload_size: usize) {
        let _ = self.cmd.send(XappIn::Cmd(XappCmd::Ping { agent, payload_size }));
    }

    /// Subscribes to a RAN function through the E2T.
    pub fn subscribe(&self, agent: AgentId, ran_function: RanFunctionId, period_ms: u32) {
        let _ = self.cmd.send(XappIn::Cmd(XappCmd::Subscribe { agent, ran_function, period_ms }));
    }
}

/// Spawns `components` platform-component tasks, each holding
/// `resident_mb` MiB of touched memory and serializing a metrics snapshot
/// every 100 ms — the synthetic stand-in for the RIC platform's 15
/// containers (databases, managers, monitors).  Returns a guard; dropping
/// it stops the components.
pub fn spawn_platform(components: usize, resident_mb: usize) -> PlatformGuard {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    for i in 0..components {
        let stop = stop.clone();
        std::thread::spawn(move || {
            // Resident state, touched so it is actually committed.
            let mut state = vec![0u8; resident_mb * 1024 * 1024];
            for (j, b) in state.iter_mut().enumerate() {
                *b = (i + j) as u8;
            }
            let mut epoch = 0u64;
            loop {
                std::thread::sleep(Duration::from_millis(100));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                epoch += 1;
                // Prometheus-style metrics serialization.
                let metrics = flexric_xapp::json!({
                    "component": i,
                    "epoch": epoch,
                    "heap_bytes": state.len(),
                    "checksum": state[(epoch as usize * 4096) % state.len()],
                });
                std::hint::black_box(metrics.to_string().into_bytes());
            }
        });
    }
    PlatformGuard { stop }
}

/// Stops the platform components when dropped.
pub struct PlatformGuard {
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl Drop for PlatformGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric::agent::{Agent, AgentConfig};
    use flexric_sm::SmCodec;
    use std::time::Duration;

    #[test]
    fn full_pipeline_ping_and_monitoring() {
        let sm_codec = SmCodec::Asn1Per;
        // xApp listens for RMR.
        let xapp = OranXapp::spawn(TransportAddr::Mem("oran-rmr".into()), sm_codec).unwrap();
        // E2T connects xApp and listens south.
        let south =
            run_e2term(TransportAddr::Mem("oran-south".into()), xapp.rmr_addr.clone()).unwrap();
        // Agent with HW + dummy MAC stats.
        let mut acfg = AgentConfig::new(GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 5), south);
        acfg.codec = E2apCodec::Asn1Per;
        acfg.tick_ms = Some(1);
        let mut fns = crate::dummy::dummy_mac_only(32, sm_codec);
        fns.push(Box::new(crate::ranfun::HwFn::new(sm_codec)));
        let _agent = Agent::spawn(acfg, fns).unwrap();

        std::thread::sleep(Duration::from_millis(200));
        // Subscribe to MAC stats and ping.
        xapp.subscribe(0, RanFunctionId::new(flexric_sm::rf::MAC_STATS), 1);
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..5 {
            xapp.ping(0, 100);
            std::thread::sleep(Duration::from_millis(20));
        }
        for _ in 0..100 {
            if xapp.rtts.lock().unwrap().len() >= 5
                && xapp.counters.indications.load(Ordering::Relaxed) > 50
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            xapp.rtts.lock().unwrap().len() >= 5,
            "pings answered: {}",
            xapp.rtts.lock().unwrap().len()
        );
        assert!(
            xapp.counters.indications.load(Ordering::Relaxed) > 50,
            "monitoring indications flowed: {}",
            xapp.counters.indications.load(Ordering::Relaxed)
        );
        assert!(xapp.counters.polls.load(Ordering::Relaxed) >= 1, "discovery polling happened");
    }

    #[test]
    fn platform_components_start_and_stop() {
        let guard = spawn_platform(3, 1);
        std::thread::sleep(Duration::from_millis(250));
        drop(guard);
        // Nothing to assert beyond "does not wedge": components exit on drop.
    }
}
