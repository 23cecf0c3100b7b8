//! E2 Setup version negotiation: the server matches every advertised RAN
//! function against the SM registry by OID and semver rules.  Unknown
//! OIDs and major-version mismatches are rejected with explicit E2AP
//! causes (never silently dropped); minor-version skew interoperates; the
//! outcome does not depend on the order agents arrive in.  The agents and
//! the controller run on the [`Wire`].

mod wire;

use std::collections::BTreeMap;

use bytes::Bytes;

use flexric::agent::{Admission, AgentCtx, Due, RanFunction, SubscriptionInfo};
use flexric::server::{AgentId, AgentInfo, IApp, IndicationRef, ServerApi};
use flexric_e2ap::*;
use flexric_sm::{RanFuncDef, ReportTrigger, SmCodec, SmDescriptor, SmPayload, SmVersion};
use flexric_transport::WireMsg;
use wire::*;

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

/// A node's functions as the server took them: (OID, major, minor).
type Versions = Vec<(String, u16, u16)>;

/// Records what the server saw: the negotiated functions by E2 node, and
/// the indications.
#[derive(Default)]
struct WatchApp {
    subscribe: bool,
    functions: BTreeMap<u64, Versions>,
    inds: u64,
}

impl IApp for WatchApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        let functions =
            agent.functions.iter().map(|f| (f.oid.clone(), f.version.major, f.version.minor));
        self.functions.insert(agent.node.node_id, functions.collect());
        if !self.subscribe {
            return;
        }
        // Version-aware lookup: want 1.3, the agent may advertise any 1.x.
        if let Some(f) = agent.function_by_oid_compat(ALPHA_OID, FnVersion { major: 1, minor: 3 }) {
            let trigger = Bytes::from(ReportTrigger::every_ms(1).encode(SmCodec::Flatb));
            api.subscribe_report(agent.id, f.id, trigger);
        }
    }
    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, _ind: &IndicationRef) {
        self.inds += 1;
    }
}

/// A wire with controller 0 running a [`WatchApp`].
fn watch(subscribe: bool) -> Wire {
    register_alpha();
    let mut w = Wire::default();
    let app = Box::new(WatchApp { subscribe, ..WatchApp::default() });
    w.start_ctrl_of(0, &ctrl_cfg(0), vec![vec![app]]);
    w
}

/// What controller 0's [`WatchApp`] saw: the functions by node, and how
/// many indications.
fn seen(w: &mut Wire) -> (BTreeMap<u64, Versions>, u64) {
    w.call(0, 0, |app: &mut WatchApp, _| (app.functions.clone(), app.inds))
}

/// Starts an agent for E2 node `node` offering `fns` to controller 0;
/// how its setup ended.
fn set_up(w: &mut Wire, node: u64, fns: Vec<VersionedFn>) -> Result<(), String> {
    let fns = fns.into_iter().map(|f| Box::new(f) as Box<dyn RanFunction>).collect();
    let i = w.start_agent_of(agent_cfg(node, None, &[addr(0)]), fns);
    w.setup_done.iter().find(|d| d.0 == i).expect("setup ended").2.clone()
}

/// An OID the registry has never seen fails setup with
/// `FunctionNotSupported`, surfaced as an error at the agent and no
/// registration at the server.
#[test]
fn unknown_oid_rejected_with_explicit_cause() {
    let mut w = watch(false);
    let f = VersionedFn::new(401, "vn.sm.never.registered", FnVersion::V1);
    let err = set_up(&mut w, 1, vec![f]).expect_err("setup must be rejected");
    assert!(err.contains("FunctionNotSupported"), "agent sees the explicit cause, got: {err}");
    assert!(seen(&mut w).0.is_empty(), "rejected agent never reaches iApps");
    assert_eq!(w.ctrl_stats(0).agents, 0, "rejected agent not registered");
}

/// A major-version mismatch (agent offers 2.0, registry holds 1.x) fails
/// setup with `FunctionVersionMismatch`.
#[test]
fn major_version_mismatch_rejected_with_explicit_cause() {
    let mut w = watch(false);
    let f = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 2, minor: 0 });
    let err = set_up(&mut w, 2, vec![f]).expect_err("setup must be rejected");
    assert!(err.contains("FunctionVersionMismatch"), "agent sees the explicit cause, got: {err}");
    assert!(seen(&mut w).0.is_empty());
}

/// Minor-version skew still interoperates: the agent offers 1.0 while the
/// registry holds 1.3; setup succeeds and indications flow end-to-end.
#[test]
fn minor_version_skew_interoperates() {
    let mut w = watch(true);
    let f = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 1, minor: 0 });
    set_up(&mut w, 3, vec![f]).expect("setup ok");
    w.advance(10);
    let (functions, inds) = seen(&mut w);
    assert!(inds >= 5, "indications over skewed versions: {inds}");
    assert_eq!(functions[&3], vec![(ALPHA_OID.to_string(), 1, 0)]);
}

/// Mixed offers negotiate partially: the unknown function is filtered out
/// of the server's RAN database, the known one is kept and served.
#[test]
fn partial_rejection_filters_unknown_function() {
    let mut w = watch(true);
    let good = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 1, minor: 3 });
    let bad = VersionedFn::new(402, "vn.sm.never.registered", FnVersion::V1);
    set_up(&mut w, 4, vec![good, bad]).expect("partial setup succeeds");
    w.advance(10);
    let (functions, inds) = seen(&mut w);
    assert!(inds >= 5, "indications on the accepted fn: {inds}");
    assert_eq!(functions.len(), 1);
    assert_eq!(
        functions[&4],
        vec![(ALPHA_OID.to_string(), 1, 3)],
        "only the negotiated function enters the RAN database"
    );
}

/// By E2 node: the functions its setup response accepted and rejected, and
/// the versions the iApp was told of.
type Outcomes = BTreeMap<u64, (Vec<RanFunctionId>, Vec<(RanFunctionId, Cause)>, Versions)>;

/// Sets up, in order, one agent per `(node, minor)` offering alpha 1.minor
/// and an unknown function.
fn negotiate(offers: [(u64, u16); 2]) -> Outcomes {
    let mut w = watch(false);
    for (node, minor) in offers {
        let alpha = VersionedFn::new(ALPHA_RF, ALPHA_OID, FnVersion { major: 1, minor });
        let unknown = VersionedFn::new(402, "vn.sm.never.registered", FnVersion::V1);
        set_up(&mut w, node, vec![alpha, unknown]).expect("partial setup succeeds");
    }
    let functions = seen(&mut w).0;
    let response = |(_, from, msg): &(u64, End, Option<WireMsg>)| {
        let Some(End::A(i, _)) = w.links.get(from) else { return None };
        let Ok(E2apPdu::E2SetupResponse(r)) = CODEC.decode(&msg.as_ref()?.payload) else {
            return None;
        };
        let node = offers[*i].0;
        Some((node, (r.accepted, r.rejected, functions[&node].clone())))
    };
    w.trace.iter().filter_map(response).collect()
}

/// Two agents advertising different minors of one SM get the same
/// accepted and rejected sets and the same negotiated versions whichever
/// sets up first.
#[test]
fn negotiation_does_not_depend_on_arrival_order() {
    let first = negotiate([(5, 1), (6, 3)]);
    assert_eq!(first, negotiate([(6, 3), (5, 1)]));
    assert_eq!(first.len(), 2, "both nodes answered: {first:?}");
    for (node, minor) in [(5, 1), (6, 3)] {
        let (accepted, rejected, versions) = &first[&node];
        assert_eq!(accepted, &[RanFunctionId::new(ALPHA_RF)]);
        let unsupported = Cause::RicService(RicServiceCause::FunctionNotSupported);
        assert_eq!(rejected, &[(RanFunctionId::new(402), unsupported)]);
        assert_eq!(versions, &[(ALPHA_OID.to_string(), 1, minor)]);
    }
}
