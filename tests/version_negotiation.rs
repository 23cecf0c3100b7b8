//! E2 Setup version negotiation: the server matches every advertised RAN
//! function against the SM registry by OID and semver rules.  Unknown
//! OIDs and major-version mismatches are rejected with explicit E2AP
//! causes (never silently dropped); minor-version skew interoperates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use flexric::agent::{Admission, Agent, AgentConfig, AgentCtx, Due, RanFunction, SubscriptionInfo};
use flexric::server::{AgentId, AgentInfo, IApp, Server, ServerApi, ServerConfig, ServerHandle};
use flexric_e2ap::*;
use flexric_sm::{RanFuncDef, ReportTrigger, SmCodec, SmDescriptor, SmPayload, SmVersion};
use flexric_transport::TransportAddr;

const ALPHA_OID: &str = "vn.sm.alpha";
const ALPHA_RF: u16 = 400;

/// Registers `vn.sm.alpha@1.3` once per process (idempotent across tests).
fn register_alpha() {
    let _ = flexric_sm::registry::global().register(
        SmDescriptor::new(
            ALPHA_RF,
            ALPHA_OID,
            SmVersion::new(1, 3),
            RanFuncDef::simple("ALPHA", "version-negotiation test SM"),
        )
        .trigger::<ReportTrigger>(),
    );
}

/// A RAN function whose advertised identity (id, oid, version) is fully
/// parameterized, so tests can fabricate arbitrary setup offers.
struct VersionedFn(RanFunctionItem);

impl VersionedFn {
    fn new(id: u16, oid: &'static str, version: FnVersion) -> Self {
        let definition = Bytes::from_static(b"versioned-def");
        VersionedFn(RanFunctionItem { version, ..RanFunctionItem::new(id, oid, definition) })
    }
}

impl RanFunction for VersionedFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.0
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        Admission::report(req, SmCodec::Flatb)
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, due: Due<'_>) {
        for (i, sub) in due.iter().enumerate() {
            let (sn, msg) = (Some(i as u32), Bytes::from_static(b"tick"));
            ctx.send_indication(sub.info(), sn, Bytes::new(), msg);
        }
    }
}

/// Records what the server saw: negotiated function lists and indications.
#[derive(Default)]
struct Seen {
    functions: Vec<Vec<(String, u16, u16)>>,
}

struct WatchApp {
    seen: Arc<Mutex<Seen>>,
    inds: Arc<AtomicU64>,
    subscribe: bool,
}

impl IApp for WatchApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        self.seen.lock().unwrap().functions.push(
            agent
                .functions
                .iter()
                .map(|f| (f.oid.clone(), f.version.major, f.version.minor))
                .collect(),
        );
        if !self.subscribe {
            return;
        }
        // Version-aware lookup: want 1.3, the agent may advertise any 1.x.
        if let Some(f) = agent.function_by_oid_compat(ALPHA_OID, FnVersion { major: 1, minor: 3 }) {
            let trigger = Bytes::from(ReportTrigger::every_ms(1).encode(SmCodec::Flatb));
            api.subscribe_report(agent.id, f.id, trigger);
        }
    }
    fn on_indication(
        &mut self,
        _api: &mut ServerApi,
        _agent: AgentId,
        _ind: &flexric::server::IndicationRef,
    ) {
        self.inds.fetch_add(1, Ordering::Relaxed);
    }
}

fn spawn_server(name: &str, subscribe: bool) -> (ServerHandle, Arc<Mutex<Seen>>, Arc<AtomicU64>) {
    register_alpha();
    let seen = Arc::new(Mutex::new(Seen::default()));
    let inds = Arc::new(AtomicU64::new(0));
    let app = WatchApp { seen: seen.clone(), inds: inds.clone(), subscribe };
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem(name.into()));
    cfg.tick_ms = Some(5);
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("server");
    (server, seen, inds)
}

fn agent_cfg(server: &ServerHandle, node_id: u64) -> AgentConfig {
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, node_id),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = Some(1);
    acfg
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

/// An OID the registry has never seen fails setup with
/// `FunctionNotSupported`, surfaced as an error at the agent and no
/// registration at the server.
#[test]
fn unknown_oid_rejected_with_explicit_cause() {
    let (server, seen, _) = spawn_server("vn-unknown", false);
    let f = VersionedFn::new(401, "vn.sm.never.registered", FnVersion::V1);
    let err =
        Agent::spawn(agent_cfg(&server, 1), vec![Box::new(f)]).expect_err("setup must be rejected");
    assert!(
        err.to_string().contains("FunctionNotSupported"),
        "agent sees the explicit cause, got: {err}"
    );
    assert!(seen.lock().unwrap().functions.is_empty(), "rejected agent never reaches iApps");
    let stats = server.stats().unwrap();
    assert_eq!(stats.agents, 0, "rejected agent not registered");
    server.stop();
}

/// A major-version mismatch (agent offers 2.0, registry holds 1.x) fails
/// setup with `FunctionVersionMismatch`.
#[test]
fn major_version_mismatch_rejected_with_explicit_cause() {
    let (server, seen, _) = spawn_server("vn-major", false);
    let f = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 2, minor: 0 });
    let err =
        Agent::spawn(agent_cfg(&server, 2), vec![Box::new(f)]).expect_err("setup must be rejected");
    assert!(
        err.to_string().contains("FunctionVersionMismatch"),
        "agent sees the explicit cause, got: {err}"
    );
    assert!(seen.lock().unwrap().functions.is_empty());
    server.stop();
}

/// Minor-version skew still interoperates: the agent offers 1.0 while the
/// registry holds 1.3; setup succeeds and indications flow end-to-end.
#[test]
fn minor_version_skew_interoperates() {
    let (server, seen, inds) = spawn_server("vn-minor", true);
    let f = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 1, minor: 0 });
    let agent = Agent::spawn(agent_cfg(&server, 3), vec![Box::new(f)]).expect("setup ok");
    wait_until(|| inds.load(Ordering::Relaxed) >= 5, "indications over skewed versions");
    assert_eq!(seen.lock().unwrap().functions[0], vec![(ALPHA_OID.to_string(), 1, 0)]);
    agent.stop();
    server.stop();
}

/// Mixed offers negotiate partially: the unknown function is filtered out
/// of the server's RAN database, the known one is kept and served.
#[test]
fn partial_rejection_filters_unknown_function() {
    let (server, seen, inds) = spawn_server("vn-partial", true);
    let good = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 1, minor: 3 });
    let bad = VersionedFn::new(402, "vn.sm.never.registered", FnVersion::V1);
    let agent = Agent::spawn(agent_cfg(&server, 4), vec![Box::new(good), Box::new(bad)])
        .expect("partial setup succeeds");
    wait_until(|| inds.load(Ordering::Relaxed) >= 5, "indications on the accepted fn");
    {
        let seen = seen.lock().unwrap();
        assert_eq!(seen.functions.len(), 1);
        assert_eq!(
            seen.functions[0],
            vec![(ALPHA_OID.to_string(), 1, 3)],
            "only the negotiated function enters the RAN database"
        );
    }
    server.stats().unwrap();
    agent.stop();
    server.stop();
}
