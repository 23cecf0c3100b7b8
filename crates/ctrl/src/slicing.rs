//! The RAT-unaware slicing controller (paper §6.1.2, Table 4).
//!
//! Components, mirroring the paper's Table 4: the xApp is any HTTP client
//! (`curl` in the paper); the communication interface is REST (GET/POST);
//! the iApps are an internal DB for RAN statistics and an SC SM manager
//! relaying REST commands; the support is the server library.
//!
//! The xApp is oblivious of the RAT: the same REST calls drive 4G and 5G
//! cells, which is what lets the recursive experiment (§6.2) reuse this
//! controller over an LTE deployment.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::server::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi, ServerHandle,
};
use flexric_e2ap::{ControlAckRequest, RicRequestId};
use flexric_sm::registry::SmDescriptor;
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, SliceStatsInd, UeSchedAlgo};
use flexric_sm::{oid, ReportTrigger, SmCodec, SmPayload};
use flexric_xapp::http::{HttpServer, Request, Response, Router};
use flexric_xapp::{introspect, json, json_enum, json_struct};

// ---------------------------------------------------------------------------
// REST DTOs
// ---------------------------------------------------------------------------

/// JSON form of slice parameters.
#[derive(Debug, Clone)]
pub enum SliceParamsDto {
    /// NVS capacity slice.
    NvsCapacity {
        /// Share in percent (0–100).
        share_pct: f64,
    },
    /// NVS rate slice.
    NvsRate {
        /// Reserved rate, Mbit/s.
        rate_mbps: f64,
        /// Reference rate, Mbit/s.
        ref_mbps: f64,
    },
    /// Static PRB range.
    StaticRb {
        /// First PRB.
        lo: u16,
        /// Last PRB.
        hi: u16,
    },
}

json_enum!(SliceParamsDto tag "type" {
    NvsCapacity = "nvs_capacity" { share_pct },
    NvsRate = "nvs_rate" { rate_mbps, ref_mbps },
    StaticRb = "static_rb" { lo, hi },
});

impl SliceParamsDto {
    /// Converts to the SM representation.
    pub fn to_sm(&self) -> SliceParams {
        match self {
            SliceParamsDto::NvsCapacity { share_pct } => SliceParams::NvsCapacity {
                share_milli: (share_pct * 10.0).round().clamp(0.0, 1000.0) as u32,
            },
            SliceParamsDto::NvsRate { rate_mbps, ref_mbps } => SliceParams::NvsRate {
                rate_kbps: (rate_mbps * 1000.0).round().max(0.0) as u32,
                ref_kbps: (ref_mbps * 1000.0).round().max(0.0) as u32,
            },
            SliceParamsDto::StaticRb { lo, hi } => SliceParams::StaticRb { lo: *lo, hi: *hi },
        }
    }

    /// Converts from the SM representation.
    pub fn from_sm(p: &SliceParams) -> Self {
        match p {
            SliceParams::NvsCapacity { share_milli } => {
                SliceParamsDto::NvsCapacity { share_pct: *share_milli as f64 / 10.0 }
            }
            SliceParams::NvsRate { rate_kbps, ref_kbps } => SliceParamsDto::NvsRate {
                rate_mbps: *rate_kbps as f64 / 1000.0,
                ref_mbps: *ref_kbps as f64 / 1000.0,
            },
            SliceParams::StaticRb { lo, hi } => SliceParamsDto::StaticRb { lo: *lo, hi: *hi },
        }
    }
}

/// JSON form of one slice.
#[derive(Debug, Clone)]
pub struct SliceDto {
    /// Slice id.
    pub id: u32,
    /// Label (optional in a request: empty).
    pub label: String,
    /// Parameters.
    pub params: SliceParamsDto,
    /// UE scheduler (`"rr"`, `"pf"`, `"mt"`; optional in a request: `"pf"`;
    /// a request naming any other is refused).
    pub sched: String,
}

impl json::ToJson for SliceDto {
    fn to_json(&self) -> json::Value {
        json!({"id": self.id, "label": self.label, "params": self.params, "sched": self.sched})
    }
}

impl json::FromJson for SliceDto {
    fn from_json(v: &json::Value) -> Result<Self, json::Error> {
        let sched: String = json::field(v, "sched", Some("pf".to_owned()))?;
        if ue_sched(&sched).is_none() {
            return Err(json::Error::new(format!("unknown UE scheduler `{sched}`")));
        }
        let (id, params) = (json::field(v, "id", None)?, json::field(v, "params", None)?);
        Ok(SliceDto { id, label: json::field(v, "label", Some(String::new()))?, params, sched })
    }
}

/// The UE scheduler `name` names.
fn ue_sched(name: &str) -> Option<UeSchedAlgo> {
    match name {
        "rr" => Some(UeSchedAlgo::RoundRobin),
        "pf" => Some(UeSchedAlgo::PropFair),
        "mt" => Some(UeSchedAlgo::MaxThroughput),
        _ => None,
    }
}

impl SliceDto {
    /// Converts to the SM representation (a `sched` that names no
    /// scheduler, which no request can carry, as `"pf"`).
    pub fn to_sm(&self) -> SliceConf {
        SliceConf {
            id: self.id,
            label: self.label.clone(),
            params: self.params.to_sm(),
            ue_sched: ue_sched(&self.sched).unwrap_or(UeSchedAlgo::PropFair),
        }
    }
}

/// POST /slice/algo body.
#[derive(Debug)]
pub struct AlgoReq {
    /// Target agent.
    pub agent: AgentId,
    /// `"none"`, `"static"`, `"nvs"` or `"nvs_nosharing"`.
    pub algo: String,
}

json_struct!(AlgoReq { agent, algo });

/// POST /slice/conf body.
#[derive(Debug)]
pub struct ConfReq {
    /// Target agent.
    pub agent: AgentId,
    /// Slices to add/modify.
    pub slices: Vec<SliceDto>,
}

json_struct!(ConfReq { agent, slices });

/// POST /slice/assoc body.
#[derive(Debug)]
pub struct AssocReq {
    /// Target agent.
    pub agent: AgentId,
    /// `(rnti, slice id)` pairs.
    pub assoc: Vec<(u16, u32)>,
}

json_struct!(AssocReq { agent, assoc });

/// POST /slice/del body.
#[derive(Debug)]
pub struct DelReq {
    /// Target agent.
    pub agent: AgentId,
    /// Slice ids to delete.
    pub ids: Vec<u32>,
}

json_struct!(DelReq { agent, ids });

/// Outcome of a relayed control command.
#[derive(Debug)]
pub struct CtrlReply {
    /// Whether the agent acknowledged.
    pub ok: bool,
    /// Failure detail, if any.
    pub detail: String,
}

json_struct!(CtrlReply { ok, detail = String::new() });

// ---------------------------------------------------------------------------
// The SC SM manager iApp
// ---------------------------------------------------------------------------

/// Controls relayed from the northbound to one SM, and the channel each
/// caller waits on until the agent answers, by agent and request id.
pub(crate) struct Relayed {
    sm_codec: SmCodec,
    /// The SM's registry descriptor: an agent's function is looked up
    /// through it.
    desc: Arc<SmDescriptor>,
    waiting: HashMap<(AgentId, RicRequestId), SyncSender<CtrlReply>>,
}

impl Relayed {
    /// Relays to the bundled SM `oid`, encoding with `sm_codec`.
    pub(crate) fn new(oid: &str, sm_codec: SmCodec) -> Self {
        let desc = flexric_sm::registry::global().latest(oid).expect("bundled SM descriptor");
        Relayed { sm_codec, desc, waiting: HashMap::new() }
    }

    /// Sends `ctrl` under `header` to `agent`'s function of the SM, asking
    /// for an acknowledgement, and returns the channel the agent's answer
    /// comes on — the answer comes at once when `agent` has no such
    /// function.
    pub(crate) fn send(
        &mut self,
        api: &mut ServerApi,
        agent: AgentId,
        header: Bytes,
        ctrl: &impl SmPayload,
    ) -> Receiver<CtrlReply> {
        let (tx, rx) = mpsc::sync_channel(1);
        let (oid, want) = (&self.desc.oid, self.desc.version.into());
        match api.randb().agent(agent).and_then(|a| a.function_by_oid_compat(oid, want)) {
            Some(f) => {
                let (rf, msg) = (f.id, Bytes::from(ctrl.encode(self.sm_codec)));
                let req_id = api.control(agent, rf, header, msg, Some(ControlAckRequest::Ack));
                self.waiting.insert((agent, req_id), tx);
            }
            None => {
                let _ =
                    tx.send(CtrlReply { ok: false, detail: format!("agent {agent} has no {oid}") });
            }
        }
        rx
    }

    /// Tells whoever waits for the control `out` ends what the agent said.
    pub(crate) fn answer(&mut self, agent: AgentId, out: &CtrlOutcome) {
        let failed = |detail: String| CtrlReply { ok: false, detail };
        let (req_id, reply) = match out {
            CtrlOutcome::Ack(ack) => (ack.req_id, CtrlReply { ok: true, detail: String::new() }),
            CtrlOutcome::Failed(f) => (f.req_id, failed(format!("{:?}", f.cause))),
            CtrlOutcome::TimedOut { req_id, .. } => (*req_id, failed("control timed out".into())),
            CtrlOutcome::ConnectionLost { req_id, .. } => {
                (*req_id, failed("agent connection lost".into()))
            }
        };
        if let Some(tx) = self.waiting.remove(&(agent, req_id)) {
            let _ = tx.send(reply);
        }
    }
}

/// The SC SM manager iApp: subscribes to slice statistics on every agent
/// exposing the SC SM and relays commands from the REST northbound.
pub struct SliceApp {
    sm_codec: SmCodec,
    stats_period_ms: u32,
    /// The SC SM's registry descriptor: version-aware function lookup and
    /// indication decoding go through it.
    desc: Arc<SmDescriptor>,
    latest: Arc<Mutex<HashMap<AgentId, SliceStatsInd>>>,
    relayed: Relayed,
}

impl SliceApp {
    /// Creates the iApp; the returned handle reads the latest stats.
    pub fn new(
        sm_codec: SmCodec,
        stats_period_ms: u32,
    ) -> (Self, Arc<Mutex<HashMap<AgentId, SliceStatsInd>>>) {
        let latest = Arc::new(Mutex::new(HashMap::new()));
        let desc =
            flexric_sm::registry::global().latest(oid::SLICE_CTRL).expect("bundled SM descriptor");
        (
            SliceApp {
                sm_codec,
                stats_period_ms,
                desc,
                latest: latest.clone(),
                relayed: Relayed::new(oid::SLICE_CTRL, sm_codec),
            },
            latest,
        )
    }

    /// Sends `ctrl` to `agent`'s SC SM, asking for an acknowledgement; the
    /// returned channel gets how the agent answered.
    pub fn apply(
        &mut self,
        api: &mut ServerApi,
        agent: AgentId,
        ctrl: &SliceCtrl,
    ) -> Receiver<CtrlReply> {
        self.relayed.send(api, agent, Bytes::new(), ctrl)
    }
}

impl IApp for SliceApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        if let Some(f) = agent.function_by_oid_compat(&self.desc.oid, self.desc.version.into()) {
            let trigger =
                Bytes::from(ReportTrigger::every_ms(self.stats_period_ms).encode(self.sm_codec));
            api.subscribe_report(agent.id, f.id, trigger);
        }
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        self.latest.lock().expect("lock poisoned").remove(&agent);
    }

    fn on_indication(&mut self, _api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        let Ok((_, msg)) = ind.sm_payload() else { return };
        // Decode through the registry vtable and downcast to the stats
        // type this iApp renders.
        let Ok(any) = self.desc.decode_indication(self.sm_codec, msg) else { return };
        if let Ok(stats) = any.downcast::<SliceStatsInd>() {
            self.latest.lock().expect("lock poisoned").insert(agent, *stats);
        }
    }

    fn on_control_outcome(&mut self, _api: &mut ServerApi, agent: AgentId, out: &CtrlOutcome) {
        self.relayed.answer(agent, out);
    }
}

// ---------------------------------------------------------------------------
// REST northbound
// ---------------------------------------------------------------------------

/// Has the [`SliceApp`] of `server` send `ctrl` to `agent` and waits (up
/// to 5 s) for how the agent answered; `None` when nothing came back.
pub fn apply(server: &ServerHandle, agent: AgentId, ctrl: SliceCtrl) -> Option<CtrlReply> {
    relay(server, move |app: &mut SliceApp, api| app.apply(api, agent, &ctrl))
}

/// Runs `send` with the `A` of `server` and waits (up to 5 s) for the
/// answer on the channel it returns; `None` when nothing came back in
/// time.  A controller that runs no `A`, or has stopped, is an answer at
/// once, which says so.
pub(crate) fn relay<A: IApp>(
    server: &ServerHandle,
    send: impl FnOnce(&mut A, &mut ServerApi) -> Receiver<CtrlReply> + Send + 'static,
) -> Option<CtrlReply> {
    match server.call(send) {
        Ok(rx) => rx.recv_timeout(std::time::Duration::from_secs(5)).ok(),
        Err(e) => Some(CtrlReply { ok: false, detail: e.to_string() }),
    }
}

/// Answers a POST whose body reads as a `T` with what `relay` makes of
/// the body: the 400 it returns, or the agent's answer to the command it
/// relayed — 200 when the agent acknowledged, 400 with the detail when it
/// refused, 500 when nothing came back in time.
pub(crate) fn command<T: json::FromJson>(
    req: &Request,
    relay: impl FnOnce(T) -> Result<Option<CtrlReply>, Response>,
) -> Response {
    let body = req.json().map_err(|e| Response::error(400, format!("bad body: {e}")));
    match body.and_then(relay) {
        Ok(Some(reply)) if reply.ok => Response::json(&reply),
        Ok(Some(reply)) => Response { status: 400, ..Response::json(&reply) },
        Ok(None) => Response::error(500, "control relay timed out"),
        Err(bad) => bad,
    }
}

/// Builds the REST router of the slicing controller and binds it.
///
/// Routes:
/// * `GET  /slices` — latest slice statistics per agent,
/// * `GET  /agents` — connected agents,
/// * `POST /slice/algo` — select the slice algorithm ([`AlgoReq`]),
/// * `POST /slice/conf` — add/modify slices ([`ConfReq`]),
/// * `POST /slice/assoc` — associate UEs ([`AssocReq`]),
/// * `POST /slice/del` — delete slices ([`DelReq`]),
/// * `GET  /sm/registry` — registered service models
///   ([`flexric_xapp::introspect`]).
pub fn spawn_rest(
    listen: &str,
    server: ServerHandle,
    latest: Arc<Mutex<HashMap<AgentId, SliceStatsInd>>>,
) -> std::io::Result<HttpServer> {
    let (s1, s2, s3, s4, s5) =
        (server.clone(), server.clone(), server.clone(), server.clone(), server);
    let router = Router::new()
        .route("GET", "/slices", move |_req| {
            let table = latest.lock().expect("lock poisoned");
            let entries: Vec<json::Value> = table
                .iter()
                .map(|(agent, st)| {
                    let slices: Vec<json::Value> = st
                        .slices
                        .iter()
                        .map(|s| {
                            json!({
                                "id": s.conf.id,
                                "label": s.conf.label,
                                "params": SliceParamsDto::from_sm(&s.conf.params),
                                "alloc_prbs": s.alloc_prbs,
                                "thr_kbps": s.thr_kbps,
                                "num_ues": s.num_ues,
                            })
                        })
                        .collect();
                    json!({
                        "agent": agent,
                        "algo": format!("{:?}", st.algo),
                        "slices": slices,
                        "ue_assoc": st.ue_assoc,
                    })
                })
                .collect();
            Response::json(&entries)
        })
        .route("GET", "/agents", move |_req| match s5.agents() {
            Ok(agents) => {
                let list: Vec<json::Value> = agents
                    .iter()
                    .map(|a| {
                        json!({
                            "id": a.id,
                            "node": a.node.to_string(),
                            "functions": a.functions.iter()
                                .map(|f| f.oid.clone()).collect::<Vec<_>>(),
                        })
                    })
                    .collect();
                Response::json(&list)
            }
            Err(_) => Response::error(500, "server gone"),
        })
        .route("POST", "/slice/algo", move |req| {
            command(&req, |body: AlgoReq| {
                let algo = match body.algo.as_str() {
                    "none" => SliceAlgo::None,
                    "static" => SliceAlgo::Static,
                    "nvs" => SliceAlgo::Nvs,
                    "nvs_nosharing" => SliceAlgo::NvsNoSharing,
                    other => return Err(Response::error(400, format!("unknown algo {other}"))),
                };
                Ok(apply(&s1, body.agent, SliceCtrl::SetAlgo { algo }))
            })
        })
        .route("POST", "/slice/conf", move |req| {
            command(&req, |body: ConfReq| {
                let slices = body.slices.iter().map(SliceDto::to_sm).collect();
                Ok(apply(&s2, body.agent, SliceCtrl::AddModSlices { slices }))
            })
        })
        .route("POST", "/slice/assoc", move |req| {
            command(&req, |b: AssocReq| {
                Ok(apply(&s3, b.agent, SliceCtrl::AssocUeSlice { assoc: b.assoc }))
            })
        })
        .route("POST", "/slice/del", move |req| {
            command(&req, |b: DelReq| Ok(apply(&s4, b.agent, SliceCtrl::DelSlices { ids: b.ids })))
        });
    HttpServer::spawn(listen, introspect::mount(router))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dto_conversion_roundtrip() {
        let dto = SliceDto {
            id: 3,
            label: "op-a".into(),
            params: SliceParamsDto::NvsCapacity { share_pct: 66.0 },
            sched: "rr".into(),
        };
        let sm = dto.to_sm();
        assert_eq!(sm.id, 3);
        assert_eq!(sm.params, SliceParams::NvsCapacity { share_milli: 660 });
        assert_eq!(sm.ue_sched, UeSchedAlgo::RoundRobin);

        let back = SliceParamsDto::from_sm(&sm.params);
        match back {
            SliceParamsDto::NvsCapacity { share_pct } => assert!((share_pct - 66.0).abs() < 1e-9),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn rate_dto_conversion() {
        let dto = SliceParamsDto::NvsRate { rate_mbps: 5.0, ref_mbps: 50.0 };
        assert_eq!(dto.to_sm(), SliceParams::NvsRate { rate_kbps: 5_000, ref_kbps: 50_000 });
        let stat = SliceParamsDto::StaticRb { lo: 0, hi: 24 };
        assert_eq!(stat.to_sm(), SliceParams::StaticRb { lo: 0, hi: 24 });
    }

    #[test]
    fn share_clamped() {
        let dto = SliceParamsDto::NvsCapacity { share_pct: 250.0 };
        assert_eq!(dto.to_sm(), SliceParams::NvsCapacity { share_milli: 1000 });
    }

    /// A controller that runs no `SliceApp` answers a slicing command at
    /// once, with a refusal that names the missing iApp.
    #[test]
    fn a_controller_without_the_slice_iapp_answers_at_once() {
        use flexric::server::{Server, ServerConfig};
        use flexric_e2ap::{GlobalRicId, Plmn};
        use flexric_transport::TransportAddr;
        use std::time::{Duration, Instant};

        let (monitor, _, _) = crate::monitoring::MonitorApp::new(Default::default());
        let at = TransportAddr::Mem("slicing-without-slice-app".into());
        let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), at);
        cfg.tick_ms = None;
        let server = Server::spawn(cfg, vec![Box::new(monitor)]).unwrap();
        let asked = Instant::now();
        let reply = apply(&server, 0, SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs });
        let took = asked.elapsed();
        server.stop();
        assert!(took < Duration::from_secs(1), "answered after {took:?}");
        let reply = reply.expect("an answer");
        assert!(!reply.ok && reply.detail.contains("SliceApp"), "{reply:?}");
    }
}
