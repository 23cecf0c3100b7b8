//! A relaying controller: terminates agents southbound and exposes itself
//! as an E2 node northbound, forwarding functional procedures verbatim.
//!
//! Used by the Fig. 9a experiment: "In FlexRIC, we use a relaying
//! controller to emulate two hops, which, unlike O-RAN RIC, is not imposed
//! by FlexRIC but added to carry out a fair comparison."  Procedure
//! traffic (subscriptions, controls, their outcomes) pays one decode + one
//! encode per hop — the honest cost of a controller hop.  FB-path
//! indications are forwarded verbatim: the relay peeks the header,
//! looks up the subscription, and ships the received frame (a refcounted
//! view of its south read slab) north unchanged — no decode, no re-encode,
//! no copy — in contrast to the O-RAN pipeline, which adds an RMR hop and
//! a second full decode at the xApp.

use std::io;
use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;

use flexric::endpoint::RetryPolicy;
use flexric::server::{
    AgentId, CtrlOutcome, IApp, IndicationRef, Server, ServerApi, ServerConfig, SubOutcome,
};
use flexric_e2ap::*;
use flexric_transport::{connect, TransportAddr, WireMsg};

/// Messages from the northbound task into the relay iApp.
enum NorthMsg {
    Pdu(E2apPdu),
}

/// What the relay queues toward the northbound writer.
enum NorthBound {
    /// A PDU the writer encodes (procedure traffic).
    Pdu(E2apPdu),
    /// An already-encoded indication frame forwarded verbatim — valid
    /// because the relay's north connection speaks the same codec as its
    /// south server.
    Frame(Bytes),
}

/// The relay iApp: forwards north→south requests and south→north
/// responses/indications.
struct RelayApp {
    north_tx: mpsc::Sender<NorthBound>,
    /// The south agent everything is relayed to (single-agent relay, as in
    /// the RTT experiment).
    target: Option<AgentId>,
}

impl IApp for RelayApp {
    fn name(&self) -> &str {
        "relay"
    }

    fn on_agent_connected(&mut self, _api: &mut ServerApi, agent: &flexric::server::AgentInfo) {
        if self.target.is_none() {
            self.target = Some(agent.id);
        }
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        if self.target == Some(agent) {
            self.target = None;
        }
    }

    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, ind: &IndicationRef) {
        // FB hot path: the frame arrived undecoded; ship it north verbatim
        // (a refcount bump on the south read-slab slice).  The PER path
        // was decoded during dispatch and is re-encoded by the writer.
        if let Some(frame) = ind.frame() {
            let _ = self.north_tx.send(NorthBound::Frame(frame));
        } else if let Ok(owned) = ind.to_owned_indication() {
            let _ = self.north_tx.send(NorthBound::Pdu(E2apPdu::RicIndication(owned)));
        }
    }

    // Endpoint-layer terminals (timed out, connection lost) have no wire
    // PDU of their own; `to_pdu` turns them into failures so the upstream
    // controller gets an answer either way.
    fn on_subscription_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &SubOutcome) {
        let _ = self.north_tx.send(NorthBound::Pdu(out.to_pdu()));
    }

    fn on_control_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &CtrlOutcome) {
        let _ = self.north_tx.send(NorthBound::Pdu(out.to_pdu()));
    }

    fn on_custom(&mut self, api: &mut ServerApi, msg: Box<dyn std::any::Any + Send>) {
        let Ok(north) = msg.downcast::<NorthMsg>() else { return };
        let NorthMsg::Pdu(pdu) = *north;
        if let Some(target) = self.target {
            api.forward_request(target, pdu);
        }
    }
}

/// Spawns a relaying controller: a south server at `south.listen` plus a
/// northbound E2 connection to `north_addr`, advertising the functions in
/// `advertised`.
pub fn spawn_relay(
    south: ServerConfig,
    north_addr: TransportAddr,
    node: GlobalE2NodeId,
    advertised: Vec<RanFunctionItem>,
) -> io::Result<flexric::server::ServerHandle> {
    let codec = south.codec;
    let (north_tx, north_rx) = mpsc::channel::<NorthBound>();
    let app = RelayApp { north_tx, target: None };
    let handle = Server::spawn(south, vec![Box::new(app)])?;

    // Northbound: behave as an E2 node toward the upstream controller.
    let mut transport = connect(&north_addr)?;
    let setup = flexric::agent::setup_request(0, node, advertised);
    transport.send(WireMsg::e2ap(Bytes::from(codec.encode(&setup))))?;
    // An upstream that accepts and stays silent is given the setup
    // deadline, then this returns `TimedOut`.
    let deadline = Duration::from_millis(RetryPolicy::default().setup_deadline_ms);
    match transport.recv_timeout(deadline)? {
        Some(msg) => match codec.decode(&msg.payload) {
            Ok(E2apPdu::E2SetupResponse(_)) => {}
            other => {
                return Err(io::Error::other(format!("relay north setup failed: {other:?}")));
            }
        },
        None => return Err(io::Error::new(io::ErrorKind::ConnectionReset, "north closed")),
    }
    let (mut tx_half, mut rx_half) = transport.split();
    // North writer: procedures are encoded here; forwarded indication
    // frames go out as-is on the bulk stream.
    std::thread::spawn(move || {
        while let Ok(nb) = north_rx.recv() {
            let msg = match nb {
                NorthBound::Pdu(pdu) => {
                    WireMsg::e2ap_on(flexric::stream_for(&pdu), Bytes::from(codec.encode(&pdu)))
                }
                NorthBound::Frame(frame) => WireMsg::e2ap_on(WireMsg::STREAM_BULK, frame),
            };
            if tx_half.send(msg).is_err() {
                break;
            }
        }
    });
    // North reader → relay iApp.
    let h = handle.clone();
    std::thread::spawn(move || {
        while let Ok(Some(msg)) = rx_half.recv() {
            if let Ok(pdu) = codec.decode(&msg.payload) {
                h.to_iapp("relay", Box::new(NorthMsg::Pdu(pdu)));
            }
        }
    });
    Ok(handle)
}

/// Builds the advertisement for a relay fronting an HW-SM agent, from the
/// registry's HW descriptor.
pub fn hw_advertisement(sm_codec: flexric_sm::SmCodec) -> Vec<RanFunctionItem> {
    let desc = flexric_sm::registry::global()
        .latest(flexric_sm::oid::HW)
        .expect("HW SM is a builtin descriptor");
    vec![desc.advertisement(sm_codec)]
}

/// Pinger utility: an upstream controller iApp that pings through
/// control requests and records RTTs; used by the Fig. 7a and 9a
/// experiments.
pub struct PingApp {
    sm_codec: flexric_sm::SmCodec,
    payload_size: usize,
    /// RTT samples in nanoseconds.
    pub rtts: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    /// Ping interval in ms.
    interval_ms: u64,
    next_ping: u64,
    seq: u32,
    outstanding: Option<(AgentId, u64)>,
    outstanding_since_ms: u64,
    target: Option<(AgentId, RanFunctionId)>,
}

impl PingApp {
    /// Creates a pinger sending `payload_size`-byte pings every
    /// `interval_ms`.
    pub fn new(
        sm_codec: flexric_sm::SmCodec,
        payload_size: usize,
        interval_ms: u64,
    ) -> (Self, std::sync::Arc<std::sync::Mutex<Vec<u64>>>) {
        let rtts = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        (
            PingApp {
                sm_codec,
                payload_size,
                rtts: rtts.clone(),
                interval_ms,
                next_ping: 0,
                seq: 0,
                outstanding: None,
                outstanding_since_ms: 0,
                target: None,
            },
            rtts,
        )
    }

    fn send_ping(&mut self, api: &mut ServerApi) {
        use flexric_sm::SmPayload;
        let Some((agent, rf_id)) = self.target else { return };
        self.seq += 1;
        let t0 = flexric::mono_ns();
        let ping = flexric_sm::hw::HwPing::sized(self.seq, t0, self.payload_size);
        let msg = Bytes::from(ping.encode(self.sm_codec));
        // The pong comes back as an indication under the control's id.
        api.control(agent, rf_id, Bytes::new(), msg, None);
        self.outstanding = Some((agent, t0));
    }

    /// Drops a ping that was lost in flight (e.g. the relay had no south
    /// agent yet) so the pinger does not wedge; the sample is discarded.
    fn expire_outstanding(&mut self, now_ms: u64) {
        if self.outstanding.is_some() && now_ms.saturating_sub(self.outstanding_since_ms) > 200 {
            self.outstanding = None;
        }
    }
}

impl IApp for PingApp {
    fn name(&self) -> &str {
        "ping"
    }

    fn on_agent_connected(&mut self, _api: &mut ServerApi, agent: &flexric::server::AgentInfo) {
        if let Some(f) = agent.function_by_oid(flexric_sm::oid::HW) {
            self.target = Some((agent.id, f.id));
        }
    }

    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, _ind: &IndicationRef) {
        if let Some((_, t0)) = self.outstanding.take() {
            self.rtts.lock().expect("lock poisoned").push(flexric::mono_ns() - t0);
        }
    }

    fn on_tick(&mut self, api: &mut ServerApi, now_ms: u64) {
        self.expire_outstanding(now_ms);
        if self.target.is_some() && now_ms >= self.next_ping {
            self.next_ping = now_ms + self.interval_ms;
            if self.outstanding.is_none() {
                self.outstanding_since_ms = now_ms;
                self.send_ping(api);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric::agent::{Agent, AgentConfig};
    use flexric_sm::SmCodec;

    #[test]
    fn two_hop_ping_through_relay() {
        let codec = flexric_codec::E2apCodec::Flatb;
        let sm_codec = SmCodec::Flatb;
        // Upstream controller with the pinger.
        let (ping_app, rtts) = PingApp::new(sm_codec, 100, 1);
        let mut up_cfg = ServerConfig::new(
            GlobalRicId::new(Plmn::TEST, 1),
            TransportAddr::Mem("relay-up".into()),
        );
        up_cfg.codec = codec;
        up_cfg.tick_ms = Some(1);
        let _up = Server::spawn(up_cfg, vec![Box::new(ping_app)]).unwrap();

        // The relay in the middle.
        let mut south_cfg = ServerConfig::new(
            GlobalRicId::new(Plmn::TEST, 2),
            TransportAddr::Mem("relay-south".into()),
        );
        south_cfg.codec = codec;
        south_cfg.tick_ms = None;
        let _relay = spawn_relay(
            south_cfg,
            TransportAddr::Mem("relay-up".into()),
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 99),
            hw_advertisement(sm_codec),
        )
        .unwrap();

        // The agent at the bottom.
        let mut acfg = AgentConfig::new(
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
            TransportAddr::Mem("relay-south".into()),
        );
        acfg.codec = codec;
        acfg.tick_ms = None;
        let _agent =
            Agent::spawn(acfg, vec![Box::new(crate::ranfun::HwFn::new(sm_codec))]).unwrap();

        for _ in 0..300 {
            if rtts.lock().unwrap().len() >= 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let samples = rtts.lock().unwrap();
        assert!(samples.len() >= 5, "pings flowed through two hops: {}", samples.len());
        for rtt in samples.iter() {
            assert!(*rtt < 1_000_000_000, "sane RTT: {rtt} ns");
        }
    }

    /// An upstream controller that accepts the connection and never
    /// answers the setup request does not hang the relay's spawn.
    #[test]
    fn a_silent_upstream_times_the_relay_out() {
        let up = TransportAddr::Mem("relay-silent-up".into());
        let mut listener = flexric_transport::listen(&up).unwrap();
        let held = std::thread::spawn(move || listener.accept());
        let mut south_cfg = ServerConfig::new(
            GlobalRicId::new(Plmn::TEST, 2),
            TransportAddr::Mem("relay-silent-south".into()),
        );
        south_cfg.tick_ms = None;
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 99);
        let started = std::time::Instant::now();
        let Err(err) = spawn_relay(south_cfg, up, node, hw_advertisement(SmCodec::Flatb)) else {
            panic!("no setup response, no relay");
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "bounded by the setup deadline");
        drop(held.join().unwrap());
    }
}
