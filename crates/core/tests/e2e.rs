//! End-to-end tests of the SDK: agent ↔ server over the in-memory and TCP
//! transports, covering setup, subscription, indication, control,
//! multi-controller operation, and CU/DU merging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use flexric::agent::{
    Admission, Agent, AgentConfig, AgentCtx, CtrlId, Due, RanFunction, SubscriptionInfo,
};
use flexric::endpoint::Backoff;
use flexric::server::{
    AgentId, AgentInfo, IApp, IndicationRef, Server, ServerApi, ServerConfig, ServerEvent,
    SubOutcome,
};
use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::{hw::HwPing, ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

fn node(node_type: E2NodeType, id: u64) -> GlobalE2NodeId {
    GlobalE2NodeId::new(Plmn::TEST, node_type, id)
}

fn ric() -> GlobalRicId {
    GlobalRicId::new(Plmn::TEST, 1)
}

// ---------------------------------------------------------------------------
// Test RAN function: periodic counter reports + echo control
// ---------------------------------------------------------------------------

/// Control messages a [`CounterFn`] executed, with who sent them.
type CtrlLog = Arc<Mutex<Vec<(CtrlId, Vec<u8>)>>>;

struct CounterFn {
    identity: RanFunctionItem,
    sm_codec: SmCodec,
    counter: u32,
    ctrl_log: CtrlLog,
}

impl CounterFn {
    fn new(sm_codec: SmCodec) -> Self {
        // The server negotiates advertised SMs against the global registry,
        // so the test SM registers like any third-party plugin (idempotent;
        // duplicate registrations across tests are ignored).
        let _ = flexric_sm::registry::global().register(
            flexric_sm::SmDescriptor::new(
                7,
                "test.counter",
                flexric_sm::SmVersion::V1,
                flexric_sm::RanFuncDef::simple("COUNTER", "e2e test counter SM"),
            )
            .trigger::<ReportTrigger>()
            .indication::<HwPing>(),
        );
        CounterFn {
            identity: RanFunctionItem::new(7, "test.counter", Bytes::from_static(b"counter-def")),
            sm_codec,
            counter: 0,
            ctrl_log: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl RanFunction for CounterFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, self.sm_codec)
    }
    fn on_control(
        &mut self,
        _ctx: &mut AgentCtx,
        ctrl: CtrlId,
        req: &RicControlRequest,
    ) -> Result<Option<Bytes>, Cause> {
        if req.message.as_ref() == b"fail" {
            return Err(Cause::Ric(RicCause::ControlMessageInvalid));
        }
        self.ctrl_log.lock().unwrap().push((ctrl, req.message.to_vec()));
        Ok(Some(Bytes::from(format!("echo:{}", String::from_utf8_lossy(&req.message)))))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        let now = ctx.now_ms;
        for sub in due.iter() {
            self.counter += 1;
            let seq = self.counter;
            let ping = HwPing { seq, tstamp_ns: now * 1_000_000, payload: Bytes::new() };
            let msg = Bytes::from(ping.encode(self.sm_codec));
            ctx.send_indication(sub.info(), Some(seq), Bytes::new(), msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Test iApp: subscribes on connect, records everything
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Recorded {
    connected: Vec<GlobalE2NodeId>,
    formed: Vec<(Plmn, u64)>,
    admitted: u64,
    failed: u64,
    indications: Vec<(AgentId, u32)>,
    ctrl_acks: Vec<String>,
    ctrl_fails: u64,
    disconnects: u64,
}

struct TestApp {
    sm_codec: SmCodec,
    period_ms: u32,
    state: Arc<Mutex<Recorded>>,
    ind_count: Arc<AtomicU64>,
}

impl TestApp {
    fn send_control(&mut self, api: &mut ServerApi, agent: AgentId, payload: &'static [u8]) {
        let (rf, ack) = (RanFunctionId::new(7), Some(ControlAckRequest::Ack));
        api.control(agent, rf, Bytes::new(), Bytes::from_static(payload), ack);
    }
}

impl IApp for TestApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        self.state.lock().unwrap().connected.push(agent.node);
        if agent.function_by_oid("test.counter").is_some() {
            let trigger =
                Bytes::from(ReportTrigger::every_ms(self.period_ms).encode(self.sm_codec));
            api.subscribe_report(agent.id, RanFunctionId::new(7), trigger);
        }
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, _agent: AgentId) {
        self.state.lock().unwrap().disconnects += 1;
    }

    fn on_ran_formed(&mut self, _api: &mut ServerApi, ran: &flexric::server::RanEntity) {
        self.state.lock().unwrap().formed.push(ran.key);
    }

    fn on_subscription_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &SubOutcome) {
        match out {
            SubOutcome::Admitted(_) => self.state.lock().unwrap().admitted += 1,
            SubOutcome::Failed(_)
            | SubOutcome::TimedOut { .. }
            | SubOutcome::ConnectionLost { .. } => self.state.lock().unwrap().failed += 1,
        }
    }

    fn on_indication(&mut self, _api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        let (_, msg) = ind.sm_payload().expect("payload");
        let ping = HwPing::decode(self.sm_codec, msg).expect("hw decode");
        self.state.lock().unwrap().indications.push((agent, ping.seq));
        self.ind_count.fetch_add(1, Ordering::Relaxed);
    }

    fn on_control_outcome(
        &mut self,
        _api: &mut ServerApi,
        _agent: AgentId,
        out: &flexric::server::CtrlOutcome,
    ) {
        match out {
            flexric::server::CtrlOutcome::Ack(ack) => {
                let s = ack.outcome.as_ref().map(|o| String::from_utf8_lossy(o).to_string());
                self.state.lock().unwrap().ctrl_acks.push(s.unwrap_or_default());
            }
            flexric::server::CtrlOutcome::Failed(_)
            | flexric::server::CtrlOutcome::TimedOut { .. }
            | flexric::server::CtrlOutcome::ConnectionLost { .. } => {
                self.state.lock().unwrap().ctrl_fails += 1
            }
        }
    }
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timeout waiting for {what}");
}

fn run_full_flow(codec: E2apCodec, sm_codec: SmCodec, addr: TransportAddr) {
    let state = Arc::new(Mutex::new(Recorded::default()));
    let ind_count = Arc::new(AtomicU64::new(0));
    let app =
        TestApp { sm_codec, period_ms: 1, state: state.clone(), ind_count: ind_count.clone() };

    let mut cfg = ServerConfig::new(ric(), addr);
    cfg.codec = codec;
    cfg.tick_ms = Some(5);
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("server");
    let server_addr = server.addrs[0].clone();

    let counter = CounterFn::new(sm_codec);
    let ctrl_log = counter.ctrl_log.clone();
    let mut acfg = AgentConfig::new(node(E2NodeType::Gnb, 1), server_addr);
    acfg.codec = codec;
    acfg.tick_ms = Some(1);
    let agent = Agent::spawn(acfg, vec![Box::new(counter)]).expect("agent");

    // Subscription admitted and indications flowing.
    wait_until(|| state.lock().unwrap().admitted == 1, "subscription admitted");
    wait_until(|| ind_count.load(Ordering::Relaxed) >= 20, "20 indications");
    {
        let st = state.lock().unwrap();
        assert_eq!(st.connected, vec![node(E2NodeType::Gnb, 1)]);
        assert_eq!(st.formed, vec![(Plmn::TEST, 1)]);
        assert_eq!(st.failed, 0);
        // Sequence numbers are monotonically increasing per agent.
        let seqs: Vec<u32> = st.indications.iter().map(|(_, s)| *s).collect();
        assert!(seqs.windows(2).all(|w| w[1] > w[0]), "monotonic seqs: {seqs:?}");
    }

    // Control round-trip through the iApp.
    server.call(|app: &mut TestApp, api| app.send_control(api, 0, b"hello")).unwrap();
    wait_until(|| state.lock().unwrap().ctrl_acks.len() == 1, "control ack");
    assert_eq!(state.lock().unwrap().ctrl_acks[0], "echo:hello");
    assert_eq!(ctrl_log.lock().unwrap().len(), 1);

    // Failing control produces a failure outcome.
    server.call(|app: &mut TestApp, api| app.send_control(api, 0, b"fail")).unwrap();
    wait_until(|| state.lock().unwrap().ctrl_fails == 1, "control failure");

    // Agent stats are sane.
    let astats = agent.stats().unwrap();
    assert!(astats.tx_msgs > 20);
    assert_eq!(astats.active_subs, 1);
    assert_eq!(astats.controllers, 1);

    // Server stats are sane.
    let sstats = server.stats().unwrap();
    assert!(sstats.rx_msgs > 20);
    assert_eq!(sstats.agents, 1);
    assert_eq!(sstats.subs, 1);

    // Teardown: stopping the agent disconnects it at the server.
    agent.stop();
    wait_until(|| state.lock().unwrap().disconnects == 1, "disconnect");
    server.stop();
}

#[test]
fn full_flow_mem_fb() {
    run_full_flow(E2apCodec::Flatb, SmCodec::Flatb, TransportAddr::Mem("e2e-fb".into()));
}

#[test]
fn full_flow_mem_asn() {
    run_full_flow(E2apCodec::Asn1Per, SmCodec::Asn1Per, TransportAddr::Mem("e2e-asn".into()));
}

#[test]
fn full_flow_tcp_mixed_encodings() {
    // E2AP in FB, SM in ASN.1 — one of the paper's "mixed" combinations.
    run_full_flow(E2apCodec::Flatb, SmCodec::Asn1Per, TransportAddr::parse("127.0.0.1:0").unwrap());
}

#[test]
fn cu_du_merge_forms_ran() {
    let state = Arc::new(Mutex::new(Recorded::default()));
    let app = TestApp {
        sm_codec: SmCodec::Flatb,
        period_ms: 1000,
        state: state.clone(),
        ind_count: Arc::new(AtomicU64::new(0)),
    };
    let mut cfg = ServerConfig::new(ric(), TransportAddr::Mem("e2e-cudu".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(app)]).unwrap();
    let addr = server.addrs[0].clone();

    let events = server.events();

    let mut acfg = AgentConfig::new(node(E2NodeType::GnbCu, 9), addr.clone());
    acfg.tick_ms = None;
    let _cu = Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).unwrap();
    wait_until(|| state.lock().unwrap().connected.len() == 1, "CU connected");
    assert!(state.lock().unwrap().formed.is_empty(), "CU alone does not form a RAN");

    let mut acfg = AgentConfig::new(node(E2NodeType::GnbDu, 9), addr);
    acfg.tick_ms = None;
    let _du = Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).unwrap();
    wait_until(|| state.lock().unwrap().formed.len() == 1, "RAN formed");
    assert_eq!(state.lock().unwrap().formed[0], (Plmn::TEST, 9));

    // The event stream tells the same story (the shard publishes after the
    // iApp callback returns, so wait for it rather than poll once).
    let saw_formed = std::iter::from_fn(|| events.recv_timeout(Duration::from_secs(5)).ok())
        .any(|ev| matches!(ev, ServerEvent::RanFormed(_)));
    assert!(saw_formed, "RanFormed published on event stream");
    server.stop();
}

#[test]
fn multi_controller_agent_serves_both() {
    // Two controllers; the agent connects to both and serves independent
    // subscriptions (paper §4.1.2).
    let mk_server = |name: &str| {
        let state = Arc::new(Mutex::new(Recorded::default()));
        let ind_count = Arc::new(AtomicU64::new(0));
        let app = TestApp {
            sm_codec: SmCodec::Flatb,
            period_ms: 1,
            state: state.clone(),
            ind_count: ind_count.clone(),
        };
        let mut cfg = ServerConfig::new(ric(), TransportAddr::Mem(name.into()));
        cfg.tick_ms = Some(5);
        (cfg, app, state, ind_count)
    };
    let (cfg1, app1, _state1, count1) = mk_server("e2e-mc-1");
    let (cfg2, app2, _state2, count2) = mk_server("e2e-mc-2");
    let s1 = Server::spawn(cfg1, vec![Box::new(app1)]).unwrap();
    let s2 = Server::spawn(cfg2, vec![Box::new(app2)]).unwrap();

    let mut acfg = AgentConfig::new(node(E2NodeType::Gnb, 3), s1.addrs[0].clone());
    acfg.tick_ms = Some(1);
    let agent = Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).unwrap();

    let ctrl2 = agent.add_controller(s2.addrs[0].clone()).unwrap();
    assert_eq!(ctrl2, 1);

    wait_until(|| count1.load(Ordering::Relaxed) >= 10, "ctrl 1 indications");
    wait_until(|| count2.load(Ordering::Relaxed) >= 10, "ctrl 2 indications");

    let stats = agent.stats().unwrap();
    assert_eq!(stats.controllers, 2);
    assert_eq!(stats.active_subs, 2);

    agent.stop();
    s1.stop();
    s2.stop();
}

/// Two callers add a controller to one agent at once, one that sets up and
/// one nobody listens at: each gets an id of its own and its own outcome,
/// whichever reaches the agent's loop first.
#[test]
fn concurrent_add_controller_calls_each_get_their_own_outcome() {
    let cfg = |name: &str| ServerConfig::new(ric(), TransportAddr::Mem(name.into()));
    let first = Server::spawn(cfg("e2e-cc-1"), vec![]).unwrap();
    let second = Server::spawn(cfg("e2e-cc-2"), vec![]).unwrap();
    for id in 0..10 {
        let acfg = AgentConfig::new(node(E2NodeType::Gnb, 60 + id), first.addrs[0].clone());
        let agent = Agent::spawn(acfg, vec![]).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let add = |addr: TransportAddr| {
            let (agent, barrier) = (agent.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                agent.add_controller(addr)
            })
        };
        let live = add(second.addrs[0].clone());
        let refused = add(TransportAddr::Mem("e2e-cc-nobody".into()));
        let live = live.join().unwrap().expect("the live controller sets up");
        let why = refused.join().unwrap().expect_err("nobody listens there");
        assert!(live == 1 || live == 2, "ids 1 and 2 are the two calls': {live}");
        assert!(!why.to_string().is_empty());
        assert_eq!(agent.with(|a, _, _| a.ctrl_count()).unwrap(), 3, "three controllers added");
        assert_eq!(agent.stats().unwrap().controllers, 2, "the first and the live one are up");
        agent.stop();
    }
    first.stop();
    second.stop();
}

#[test]
fn subscription_to_unknown_function_fails() {
    struct FailApp {
        state: Arc<Mutex<Recorded>>,
    }
    impl IApp for FailApp {
        fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
            self.state.lock().unwrap().connected.push(agent.node);
            // Function 999 does not exist at the agent.
            api.subscribe_report(agent.id, RanFunctionId::new(999), Bytes::new());
        }
        fn on_subscription_outcome(
            &mut self,
            _api: &mut ServerApi,
            _agent: AgentId,
            out: &SubOutcome,
        ) {
            match out {
                SubOutcome::Admitted(_) => self.state.lock().unwrap().admitted += 1,
                SubOutcome::Failed(f) => {
                    assert_eq!(
                        f.cause,
                        Cause::Ric(RicCause::RanFunctionIdInvalid),
                        "expected invalid function cause"
                    );
                    self.state.lock().unwrap().failed += 1;
                }
                SubOutcome::TimedOut { .. } | SubOutcome::ConnectionLost { .. } => {
                    panic!("unexpected endpoint terminal for rejected subscription")
                }
            }
        }
    }
    let state = Arc::new(Mutex::new(Recorded::default()));
    let mut cfg = ServerConfig::new(ric(), TransportAddr::Mem("e2e-subfail".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(FailApp { state: state.clone() })]).unwrap();
    let mut acfg = AgentConfig::new(node(E2NodeType::Gnb, 4), server.addrs[0].clone());
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).unwrap();
    wait_until(|| state.lock().unwrap().failed == 1, "subscription failure");
    assert_eq!(state.lock().unwrap().admitted, 0);
    agent.stop();
    server.stop();
}

#[test]
fn agent_rejects_connect_to_dead_controller() {
    let acfg = AgentConfig::new(
        node(E2NodeType::Gnb, 5),
        TransportAddr::Mem("nobody-listening-here".into()),
    );
    assert!(Agent::spawn(acfg, vec![]).is_err());
}

fn tcp_server() -> ServerConfig {
    let mut cfg = ServerConfig::new(ric(), TransportAddr::parse("127.0.0.1:0").unwrap());
    cfg.tick_ms = Some(5);
    cfg
}

#[test]
fn stop_frees_the_tcp_address_at_once() {
    let state = Arc::new(Mutex::new(Recorded::default()));
    let ind_count = Arc::new(AtomicU64::new(0));
    let app = |state: &Arc<Mutex<Recorded>>| TestApp {
        sm_codec: SmCodec::Flatb,
        period_ms: 1,
        state: state.clone(),
        ind_count: ind_count.clone(),
    };
    let server = Server::spawn(tcp_server(), vec![Box::new(app(&state))]).unwrap();
    let addr = server.addrs[0].clone();
    let mut acfg = AgentConfig::new(node(E2NodeType::Gnb, 40), addr.clone());
    acfg.reconnect = None;
    let agent = Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).unwrap();
    wait_until(|| ind_count.load(Ordering::Relaxed) >= 3, "indications over TCP");

    // No sleep between the two lines: `stop` returns with the listener
    // closed, so the restarted controller binds the very same address.
    server.stop();
    let mut cfg = tcp_server();
    cfg.listen = vec![addr.clone()];
    let again = Server::spawn(cfg, vec![Box::new(app(&state))]).expect("address is free");
    assert_eq!(again.addrs[0], addr);
    agent.stop();
    again.stop();
}

/// An agent stopped while its redial waits out the backoff dials no more:
/// a listener bound at the controller's address afterwards hears nothing.
#[test]
fn a_stopped_agent_dials_no_more() {
    const BACKOFF_MS: u64 = 300;
    let server = Server::spawn(tcp_server(), vec![]).unwrap();
    let TransportAddr::Tcp(at) = server.addrs[0] else { unreachable!() };
    let mut acfg = AgentConfig::new(node(E2NodeType::Gnb, 41), server.addrs[0].clone());
    acfg.reconnect = Some(Backoff { initial_ms: BACKOFF_MS, max_ms: BACKOFF_MS });
    let agent = Agent::spawn(acfg, vec![]).unwrap();
    server.stop();
    wait_until(|| agent.stats().unwrap().controllers == 0, "the agent saw its link go");
    agent.stop();
    let raw = std::net::TcpListener::bind(at).expect("the address is free");
    raw.set_nonblocking(true).unwrap();
    let until = Instant::now() + Duration::from_millis(BACKOFF_MS + 200);
    while Instant::now() < until {
        if let Ok((_, from)) = raw.accept() {
            panic!("a stopped agent dialled from {from}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whatever a new connection sent after its setup request reaches the
/// shard it is routed to, behind the request: two peers each write a setup
/// request and a reset request in one `write` to a two-shard controller,
/// and each is answered the setup, then the reset.
#[test]
fn what_follows_the_setup_request_reaches_the_routed_shard() {
    use flexric_transport::frame::encode_frame_into;
    use flexric_transport::tcp::TcpConn;
    use std::io::Write;

    /// Notes which shard each agent connected on.
    struct ShardOf(usize, Arc<Mutex<Vec<usize>>>);
    impl IApp for ShardOf {
        fn on_agent_connected(&mut self, _api: &mut ServerApi, _agent: &AgentInfo) {
            self.1.lock().unwrap().push(self.0);
        }
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = tcp_server();
    cfg.shards = 2;
    let codec = cfg.codec;
    let server =
        Server::spawn_sharded(cfg, |k| vec![Box::new(ShardOf(k, seen.clone())) as Box<dyn IApp>])
            .unwrap();
    let TransportAddr::Tcp(at) = server.addrs[0] else { unreachable!() };
    for id in [61, 62] {
        let setup = E2apPdu::E2SetupRequest(E2SetupRequest {
            transaction_id: 3,
            global_node: node(E2NodeType::Gnb, id),
            ran_functions: vec![],
            component_configs: vec![],
        });
        let reset = E2apPdu::ResetRequest(ResetRequest {
            transaction_id: 7,
            cause: Cause::Misc(MiscCause::OmIntervention),
        });
        let mut wire = bytes::BytesMut::new();
        for pdu in [setup, reset] {
            encode_frame_into(0, 70, &codec.encode(&pdu), &mut wire);
        }
        let mut sock = std::net::TcpStream::connect(at).unwrap();
        sock.write_all(&wire).unwrap();
        let mut conn = TcpConn::new(sock).unwrap();
        let mut answer = || codec.decode(&conn.recv().unwrap().expect("an answer").payload);
        assert!(matches!(answer(), Ok(E2apPdu::E2SetupResponse(r)) if r.transaction_id == 3));
        assert!(matches!(answer(), Ok(E2apPdu::ResetResponse(r)) if r.transaction_id == 7));
    }
    let mut shards = seen.lock().unwrap().clone();
    shards.sort();
    assert_eq!(shards, [0, 1], "one peer was handed to the other shard");
    server.stop();
}

#[test]
fn two_hundred_agents_over_loopback_tcp_set_up_and_report() {
    const AGENTS: u64 = 200;
    let state = Arc::new(Mutex::new(Recorded::default()));
    let ind_count = Arc::new(AtomicU64::new(0));
    let app = TestApp {
        sm_codec: SmCodec::Flatb,
        period_ms: 10,
        state: state.clone(),
        ind_count: ind_count.clone(),
    };
    let server = Server::spawn(tcp_server(), vec![Box::new(app)]).unwrap();
    let agents: Vec<_> = (0..AGENTS)
        .map(|i| {
            let mut acfg =
                AgentConfig::new(node(E2NodeType::Gnb, 1_000 + i), server.addrs[0].clone());
            acfg.tick_ms = Some(10);
            Agent::spawn(acfg, vec![Box::new(CounterFn::new(SmCodec::Flatb))]).expect("setup")
        })
        .collect();
    wait_until(|| state.lock().unwrap().admitted == AGENTS, "every subscription admitted");
    wait_until(
        || {
            let st = state.lock().unwrap();
            let reporting: std::collections::HashSet<AgentId> =
                st.indications.iter().map(|(a, _)| *a).collect();
            reporting.len() as u64 == AGENTS
        },
        "every agent reported",
    );
    assert_eq!(server.stats().unwrap().agents, AGENTS);
    for a in &agents {
        a.stop();
    }
    wait_until(|| state.lock().unwrap().disconnects == AGENTS, "every disconnect seen");
    server.stop();
}
