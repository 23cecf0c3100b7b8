//! The flow-based traffic controller (paper §6.1.1, Table 3).
//!
//! Components, mirroring the paper's Table 3: the xApp is a custom program
//! speaking the broker protocol (libhiredis in the paper) and REST
//! (libcurl); the communication interface is the message broker for
//! statistics push plus REST POST for commands; the iApps are an RLC/TC
//! statistics forwarder and a TC SM manager relaying commands.
//!
//! [`run_bloat_guard`] is the paper's example xApp: it watches the sojourn
//! time of the low-latency flow's bearer and, once it exceeds a limit,
//! performs the three actions of §6.1.1 — create a second FIFO queue,
//! install a 5-tuple filter segregating the low-latency flow, and load the
//! 5G-BDP pacer (the scheduler stays round-robin).

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use bytes::Bytes;

use flexric::server::{
    AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi, ServerHandle,
};
use flexric_e2ap::RicRequestId;
use flexric_sm::registry::SmDescriptor;
use flexric_sm::tc::{FiveTupleRule, PacerConf, QueueKind, TcCtrl, TcStatsInd};
use flexric_sm::{oid, rlc::RlcStatsInd, ReportTrigger, SmCodec, SmPayload};
use flexric_xapp::broker::BrokerClient;
use flexric_xapp::http::{HttpClient, HttpServer, Router};
use flexric_xapp::json::{self, ToJson};
use flexric_xapp::{json_enum, json_struct};

use crate::ranfun::BearerAddr;
use crate::slicing::{command, relay, CtrlReply, Relayed};

/// Broker channel carrying RLC statistics (JSON).
pub const CHAN_RLC: &str = "stats.rlc";
/// Broker channel carrying TC statistics (JSON).
pub const CHAN_TC: &str = "stats.tc";

/// JSON form of an RLC bearer snapshot pushed on the broker.
#[derive(Debug, Clone)]
pub struct RlcStatsDto {
    /// Source agent.
    pub agent: AgentId,
    /// Snapshot time (ms).
    pub tstamp_ms: u64,
    /// UE.
    pub rnti: u16,
    /// Bearer.
    pub drb: u8,
    /// Buffer occupancy in bytes.
    pub buffer_bytes: u64,
    /// Average sojourn (µs).
    pub sojourn_us_avg: u64,
    /// Maximum sojourn (µs).
    pub sojourn_us_max: u64,
    /// Drops in the window.
    pub dropped_pdus: u64,
}

json_struct!(RlcStatsDto {
    agent,
    tstamp_ms,
    rnti,
    drb,
    buffer_bytes,
    sojourn_us_avg,
    sojourn_us_max,
    dropped_pdus,
});

/// JSON form of a TC snapshot pushed on the broker.
#[derive(Debug, Clone)]
pub struct TcStatsDto {
    /// Source agent.
    pub agent: AgentId,
    /// Snapshot time (ms).
    pub tstamp_ms: u64,
    /// UE.
    pub rnti: u16,
    /// Bearer.
    pub drb: u8,
    /// Per-queue `(id, backlog bytes, avg sojourn µs, drops)`.
    pub queues: Vec<(u32, u64, u64, u64)>,
    /// Pacer release rate (kbit/s).
    pub pacer_rate_kbps: u64,
}

json_struct!(TcStatsDto { agent, tstamp_ms, rnti, drb, queues, pacer_rate_kbps });

// ---------------------------------------------------------------------------
// iApp 1: statistics forwarder (RLC + TC → broker)
// ---------------------------------------------------------------------------

/// Forwards RLC and TC statistics to the message broker, as the paper's
/// "RLC, TC stats forwarder (Redis)" iApp.
pub struct StatsForwarderApp {
    sm_codec: SmCodec,
    period_ms: u32,
    broker_addr: String,
    /// Queue of the thread that publishes, started with the first message.
    publisher: Option<mpsc::Sender<(&'static str, Vec<u8>)>>,
    /// The SM descriptor behind each of our request ids.
    subs: HashMap<(AgentId, RicRequestId), Arc<SmDescriptor>>,
    /// Bearers to watch with the TC SM, configured by the experiment.
    tc_watch: Vec<BearerAddr>,
}

impl StatsForwarderApp {
    /// Creates the forwarder; `tc_watch` lists bearers whose TC stats to
    /// subscribe to.
    pub fn new(
        sm_codec: SmCodec,
        period_ms: u32,
        broker_addr: String,
        tc_watch: Vec<BearerAddr>,
    ) -> Self {
        StatsForwarderApp {
            sm_codec,
            period_ms,
            broker_addr,
            publisher: None,
            subs: HashMap::new(),
            tc_watch,
        }
    }

    /// Queues `payload` for the broker.  One thread does the publishing
    /// (a publish blocks on the broker's socket), connects when needed and
    /// ends when this iApp is dropped; what it cannot deliver is lost, as
    /// statistics on a message broker are.
    fn publish(&mut self, channel: &'static str, payload: Vec<u8>) {
        let publisher = self.publisher.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<(&'static str, Vec<u8>)>();
            let addr = self.broker_addr.clone();
            // If the thread cannot start the queue is closed and sends fail.
            let _ = std::thread::Builder::new().name("flexric-stats-fwd".into()).spawn(move || {
                let mut client = None;
                while let Ok((channel, payload)) = rx.recv() {
                    if client.is_none() {
                        client = BrokerClient::connect(&addr).ok();
                    }
                    if let Some(c) = client.as_mut() {
                        if c.publish(channel, &payload).is_err() {
                            client = None; // reconnect next time
                        }
                    }
                }
            });
            tx
        });
        let _ = publisher.send((channel, payload));
    }
}

impl IApp for StatsForwarderApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        let registry = flexric_sm::registry::global();
        let trigger = Bytes::from(ReportTrigger::every_ms(self.period_ms).encode(self.sm_codec));
        if let Some(desc) = registry.latest(oid::RLC_STATS) {
            if let Some(f) = agent.function_by_oid_compat(&desc.oid, desc.version.into()) {
                let req = api.subscribe_report(agent.id, f.id, trigger.clone());
                self.subs.insert((agent.id, req), desc);
            }
        }
        if let Some(desc) = registry.latest(oid::TC_CTRL) {
            if let Some(f) = agent.function_by_oid_compat(&desc.oid, desc.version.into()) {
                for bearer in &self.tc_watch {
                    let req = api.subscribe(
                        agent.id,
                        f.id,
                        trigger.clone(),
                        vec![flexric_e2ap::RicActionToBeSetup {
                            id: flexric_e2ap::RicActionId(0),
                            action_type: flexric_e2ap::RicActionType::Report,
                            definition: Some(bearer.encode()),
                            subsequent: None,
                        }],
                    );
                    self.subs.insert((agent.id, req), desc.clone());
                }
            }
        }
    }

    fn on_indication(&mut self, _api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        let Ok((_, msg)) = ind.sm_payload() else { return };
        let Some(desc) = self.subs.get(&(agent, ind.req_id())) else { return };
        // Decode through the subscription's registry vtable; the concrete
        // type picks the broker channel.
        let Ok(any) = desc.decode_indication(self.sm_codec, msg) else { return };
        if let Some(stats) = any.downcast_ref::<RlcStatsInd>() {
            for b in &stats.bearers {
                let dto = RlcStatsDto {
                    agent,
                    tstamp_ms: stats.tstamp_ms,
                    rnti: b.rnti,
                    drb: b.drb_id,
                    buffer_bytes: b.buffer_bytes,
                    sojourn_us_avg: b.sojourn_us_avg,
                    sojourn_us_max: b.sojourn_us_max,
                    dropped_pdus: b.dropped_pdus,
                };
                self.publish(CHAN_RLC, dto.to_json().to_string().into_bytes());
            }
        } else if let Some(stats) = any.downcast_ref::<TcStatsInd>() {
            let dto = TcStatsDto {
                agent,
                tstamp_ms: stats.tstamp_ms,
                rnti: stats.rnti,
                drb: stats.drb_id,
                queues: stats
                    .queues
                    .iter()
                    .map(|q| (q.id, q.backlog_bytes, q.sojourn_us_avg, q.drops))
                    .collect(),
                pacer_rate_kbps: stats.pacer_rate_kbps,
            };
            self.publish(CHAN_TC, dto.to_json().to_string().into_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// iApp 2: TC SM manager (REST command relay)
// ---------------------------------------------------------------------------

/// Relays TC SM commands arriving over REST into control requests.
pub struct TcManagerApp(Relayed);

impl TcManagerApp {
    /// Creates the manager.
    pub fn new(sm_codec: SmCodec) -> Self {
        TcManagerApp(Relayed::new(oid::TC_CTRL, sm_codec))
    }

    /// Sends `ctrl` for `bearer` to `agent`'s TC SM, asking for an
    /// acknowledgement; the returned channel gets how the agent answered.
    pub(crate) fn apply(
        &mut self,
        api: &mut ServerApi,
        agent: AgentId,
        bearer: BearerAddr,
        ctrl: &TcCtrl,
    ) -> Receiver<CtrlReply> {
        self.0.send(api, agent, bearer.encode(), ctrl)
    }
}

impl IApp for TcManagerApp {
    fn on_control_outcome(&mut self, _api: &mut ServerApi, agent: AgentId, out: &CtrlOutcome) {
        self.0.answer(agent, out);
    }
}

// ---------------------------------------------------------------------------
// REST northbound
// ---------------------------------------------------------------------------

/// POST /tc/cmd body.
#[derive(Debug)]
pub struct TcCmdReq {
    /// Target agent.
    pub agent: AgentId,
    /// Target UE.
    pub rnti: u16,
    /// Target bearer.
    pub drb: u8,
    /// The command.
    pub cmd: TcCmdDto,
}

json_struct!(TcCmdReq { agent, rnti, drb, cmd });

/// JSON form of TC commands.
#[derive(Debug, Clone)]
pub enum TcCmdDto {
    /// Add a FIFO queue.
    AddQueue {
        /// Queue id.
        id: u32,
        /// Capacity in bytes (0 = unbounded; optional in a request: 0).
        cap_bytes: u32,
    },
    /// Delete a queue.
    DelQueue {
        /// Queue id.
        id: u32,
    },
    /// Add a 5-tuple rule.
    AddRule {
        /// Rule id.
        id: u32,
        /// Target queue.
        queue: u32,
        /// Destination port match.
        dst_port: Option<u16>,
        /// Protocol match.
        proto: Option<u8>,
        /// Source IP match.
        src_ip: Option<u32>,
        /// Destination IP match.
        dst_ip: Option<u32>,
        /// Source port match.
        src_port: Option<u16>,
    },
    /// Delete a rule.
    DelRule {
        /// Rule id.
        id: u32,
    },
    /// Load the 5G-BDP pacer.
    SetBdpPacer {
        /// Target RLC sojourn (µs).
        target_delay_us: u32,
    },
    /// Remove the pacer (transparent mode).
    ClearPacer,
}

json_enum!(TcCmdDto tag "op" {
    AddQueue = "add_queue" { id, cap_bytes = 0 },
    DelQueue = "del_queue" { id },
    AddRule = "add_rule" { id, queue, dst_port, proto, src_ip, dst_ip, src_port },
    DelRule = "del_rule" { id },
    SetBdpPacer = "set_bdp_pacer" { target_delay_us },
    ClearPacer = "clear_pacer" {},
});

impl TcCmdDto {
    /// Converts to the SM representation.
    pub fn to_sm(&self) -> TcCtrl {
        match self {
            TcCmdDto::AddQueue { id, cap_bytes } => {
                TcCtrl::AddQueue { id: *id, kind: QueueKind::Fifo { cap_bytes: *cap_bytes } }
            }
            TcCmdDto::DelQueue { id } => TcCtrl::DelQueue { id: *id },
            TcCmdDto::AddRule { id, queue, dst_port, proto, src_ip, dst_ip, src_port } => {
                TcCtrl::AddRule {
                    rule: FiveTupleRule {
                        id: *id,
                        src_ip: *src_ip,
                        dst_ip: *dst_ip,
                        src_port: *src_port,
                        dst_port: *dst_port,
                        proto: *proto,
                    },
                    queue: *queue,
                    precedence: *id,
                }
            }
            TcCmdDto::DelRule { id } => TcCtrl::DelRule { rule_id: *id },
            TcCmdDto::SetBdpPacer { target_delay_us } => {
                TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us: *target_delay_us } }
            }
            TcCmdDto::ClearPacer => TcCtrl::SetPacer { pacer: PacerConf::None },
        }
    }
}

/// Binds the TC controller's REST northbound (`POST /tc/cmd`, plus
/// `GET /sm/registry` from [`flexric_xapp::introspect`]).
pub fn spawn_rest(listen: &str, server: ServerHandle) -> std::io::Result<HttpServer> {
    let router = Router::new().route("POST", "/tc/cmd", move |req| {
        command(&req, |body: TcCmdReq| {
            let (bearer, ctrl) = (BearerAddr { rnti: body.rnti, drb: body.drb }, body.cmd.to_sm());
            Ok(relay(&server, move |app: &mut TcManagerApp, api| {
                app.apply(api, body.agent, bearer, &ctrl)
            }))
        })
    });
    HttpServer::spawn(listen, flexric_xapp::introspect::mount(router))
}

// ---------------------------------------------------------------------------
// The example xApp
// ---------------------------------------------------------------------------

/// Configuration of the bufferbloat-guard xApp.
#[derive(Debug, Clone)]
pub struct BloatGuardConfig {
    /// Broker address to subscribe to.
    pub broker_addr: String,
    /// REST address of the TC controller.
    pub rest_addr: String,
    /// Sojourn limit (µs) above which the xApp intervenes.
    pub sojourn_limit_us: u64,
    /// The low-latency flow to protect: destination port.
    pub protect_dst_port: u16,
    /// The low-latency flow's protocol.
    pub protect_proto: u8,
    /// BDP pacer target (µs).
    pub pacer_target_us: u32,
}

/// Runs the xApp until it has intervened once; returns the bearer it
/// reconfigured.  The logic is exactly the paper's: on sustained sojourn
/// above the limit, create queue 1, install the 5-tuple filter for the
/// low-latency flow, and load the 5G-BDP pacer.
pub fn run_bloat_guard(cfg: BloatGuardConfig) -> std::io::Result<(AgentId, u16, u8)> {
    let mut sub = BrokerClient::connect(&cfg.broker_addr)?;
    sub.subscribe(CHAN_RLC)?;
    loop {
        let Some((_chan, msg)) = sub.recv() else {
            return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "broker closed"));
        };
        let Ok(dto) = json::from_slice::<RlcStatsDto>(&msg) else { continue };
        if dto.sojourn_us_avg < cfg.sojourn_limit_us {
            continue;
        }
        // Intervene: the three actions of §6.1.1.
        let cmds = [
            TcCmdDto::AddQueue { id: 1, cap_bytes: 0 },
            TcCmdDto::AddRule {
                id: 1,
                queue: 1,
                dst_port: Some(cfg.protect_dst_port),
                proto: Some(cfg.protect_proto),
                src_ip: None,
                dst_ip: None,
                src_port: None,
            },
            TcCmdDto::SetBdpPacer { target_delay_us: cfg.pacer_target_us },
        ];
        for cmd in cmds {
            let body = TcCmdReq { agent: dto.agent, rnti: dto.rnti, drb: dto.drb, cmd };
            let (status, resp) = HttpClient::post_json(&cfg.rest_addr, "/tc/cmd", &body)?;
            if status != 200 {
                return Err(std::io::Error::other(format!(
                    "tc command rejected: {status} {}",
                    String::from_utf8_lossy(&resp)
                )));
            }
        }
        return Ok((dto.agent, dto.rnti, dto.drb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc_cmd_dto_conversion() {
        assert_eq!(
            TcCmdDto::AddQueue { id: 1, cap_bytes: 0 }.to_sm(),
            TcCtrl::AddQueue { id: 1, kind: QueueKind::Fifo { cap_bytes: 0 } }
        );
        assert_eq!(
            TcCmdDto::SetBdpPacer { target_delay_us: 10_000 }.to_sm(),
            TcCtrl::SetPacer { pacer: PacerConf::Bdp { target_delay_us: 10_000 } }
        );
        assert_eq!(TcCmdDto::ClearPacer.to_sm(), TcCtrl::SetPacer { pacer: PacerConf::None });
        let rule = TcCmdDto::AddRule {
            id: 7,
            queue: 1,
            dst_port: Some(5004),
            proto: Some(17),
            src_ip: None,
            dst_ip: None,
            src_port: None,
        }
        .to_sm();
        match rule {
            TcCtrl::AddRule { rule, queue, .. } => {
                assert_eq!(queue, 1);
                assert_eq!(rule.dst_port, Some(5004));
                assert_eq!(rule.proto, Some(17));
                assert_eq!(rule.src_ip, None);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn dto_json_shapes() {
        let req: TcCmdReq = json::from_slice(
            br#"{"agent":0,"rnti":17921,"drb":1,
                "cmd":{"op":"add_rule","id":1,"queue":1,"dst_port":5004,"proto":17}}"#,
        )
        .unwrap();
        assert_eq!(req.rnti, 17921);
        match req.cmd {
            TcCmdDto::AddRule { queue, .. } => assert_eq!(queue, 1),
            _ => panic!("wrong op"),
        }
    }
}
