//! The pinger of the Fig. 9a experiment, which measures through a relaying
//! controller: "In FlexRIC, we use a relaying controller to emulate two
//! hops, which, unlike O-RAN RIC, is not imposed by FlexRIC but added to
//! carry out a fair comparison."  The relay is the SDK's
//! ([`flexric::relay::Bridge::relay`]); in ASN.1 PER it is the O-RAN E2
//! termination ([`crate::oran_emu`]).

use bytes::Bytes;

use flexric::server::{AgentId, IApp, IndicationRef, ServerApi};
use flexric_e2ap::*;

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
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use flexric::agent::{Agent, AgentConfig};
    use flexric::endpoint::{Backoff, RetryPolicy};
    use flexric::relay::Bridge;
    use flexric::server::{Server, ServerConfig};
    use flexric_sm::SmCodec;
    use flexric_transport::TransportAddr;

    use crate::ranfun::HwFn;
    use crate::test_util::{mute_controller, wait_until};

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
        let up = TransportAddr::Mem("relay-up".into());
        let _relay = Bridge::relay(&south_cfg, up).spawn(&south_cfg).unwrap();

        // The agent at the bottom.
        let mut acfg = AgentConfig::new(
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
            TransportAddr::Mem("relay-south".into()),
        );
        acfg.codec = codec;
        acfg.tick_ms = None;
        let _agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm_codec))]).unwrap();

        wait_until(Duration::from_secs(3), || rtts.lock().unwrap().len() >= 5);
        let samples = rtts.lock().unwrap();
        assert!(samples.len() >= 5, "pings flowed through two hops: {}", samples.len());
        for rtt in samples.iter() {
            assert!(*rtt < 1_000_000_000, "sane RTT: {rtt} ns");
        }
    }

    /// The upstream controller stops and a new one starts at the same
    /// address: the relay's north side comes back by itself, and the new
    /// upstream sees the E2 node below the relay.
    #[test]
    fn relay_redials_a_restarted_upstream() {
        let (codec, sm_codec) = (flexric_codec::E2apCodec::Flatb, SmCodec::Flatb);
        let up_addr = TransportAddr::Mem("relay-redial-up".into());
        let upstream = || {
            let (ping_app, rtts) = PingApp::new(sm_codec, 100, 1);
            let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), up_addr.clone());
            (cfg.codec, cfg.tick_ms) = (codec, Some(1));
            (Server::spawn(cfg, vec![Box::new(ping_app)]).unwrap(), rtts)
        };
        let pongs = |rtts: &Arc<Mutex<Vec<u64>>>| rtts.lock().unwrap().len();
        let (up, rtts) = upstream();
        let south = TransportAddr::Mem("relay-redial-south".into());
        let mut south_cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 2), south.clone());
        south_cfg.codec = codec;
        let relay = Bridge::relay(&south_cfg, up_addr.clone()).spawn(&south_cfg).unwrap();
        let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1);
        let mut acfg = AgentConfig::new(node, south);
        (acfg.codec, acfg.tick_ms) = (codec, None);
        let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm_codec))]).unwrap();
        let before = wait_until(Duration::from_secs(10), || pongs(&rtts) >= 20);
        assert!(before, "pongs before the restart: {}", pongs(&rtts));

        up.stop();
        let (up, rtts) = upstream();
        let resumed = wait_until(Duration::from_secs(2), || pongs(&rtts) >= 1);
        let nodes: Vec<GlobalE2NodeId> = up.agents().unwrap().iter().map(|a| a.node).collect();
        agent.stop();
        relay.stop();
        up.stop();
        assert!(resumed, "pongs resume within 2 s of the restart: {}", pongs(&rtts));
        assert_eq!(nodes, [node], "the restarted upstream lists the node below the relay");
    }

    /// An upstream controller that accepts connections and never answers:
    /// the relay starts without it, a south agent's mirror gives up at its
    /// setup deadline, the relay then hangs up on that agent — whose own
    /// redial is the retry — and stopping does not wait for the upstream.
    #[test]
    fn a_silent_upstream_costs_one_setup_deadline() {
        let (_mute, held) = mute_controller("relay-silent-up");
        let up = TransportAddr::Mem("relay-silent-up".into());
        let south = TransportAddr::Mem("relay-silent-south".into());
        let mut south_cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 2), south.clone());
        let deadline = Duration::from_millis(200);
        south_cfg.tick_ms = Some(5);
        south_cfg.retry = RetryPolicy {
            setup_deadline_ms: deadline.as_millis() as u64,
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let started = Instant::now();
        let relay = Bridge::relay(&south_cfg, up).spawn(&south_cfg).unwrap();
        assert!(started.elapsed() < deadline / 4, "spawning the relay dials nothing itself");

        let mut acfg = AgentConfig::new(GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1), south);
        acfg.reconnect = Some(Backoff { initial_ms: 10, max_ms: 10 });
        let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(SmCodec::Flatb))]).unwrap();
        let set_up = Instant::now();
        wait_until(Duration::from_secs(5), || agent.stats().unwrap().reconnects > 0);
        let back = set_up.elapsed();
        assert!(
            back >= deadline - Duration::from_millis(10) && back < deadline * 2,
            "hung up at the mirror's setup deadline, back after the agent's backoff: {back:?}"
        );
        assert!(!held.lock().unwrap().is_empty(), "the mirror dialled the upstream");
        let stopping = Instant::now();
        relay.stop();
        assert!(stopping.elapsed() < Duration::from_secs(1), "stopped in {:?}", stopping.elapsed());
        agent.stop();
    }
}
