//! O-RAN RIC baseline emulation (paper §5.4).
//!
//! The reference O-RAN RIC is a micro-service platform: agents terminate
//! at an "E2 termination" component, which routes messages to xApps
//! running in separate containers.  The paper attributes its costs to
//! structural decisions, which this emulation reproduces *mechanically*
//! rather than with constants:
//!
//! * **two hops** — the E2 termination is the SDK's relay in ASN.1 PER
//!   ([`spawn_e2t`]), so every message crosses it before it reaches the
//!   controller the xApp runs on (Fig. 9a RTT: the O-RAN row is the
//!   ASN/ASN relay row);
//! * **double decode** — "indication messages are decoded twice, once in
//!   the E2 termination, and the xApp" (Fig. 9b CPU): the E2 termination
//!   decodes the full PDU and re-encodes it north, the xApp's controller
//!   decodes it again and [`OranXapp`] decodes every MAC payload;
//! * **platform footprint** — ~15 always-on platform components
//!   (databases, monitors, managers) holding resident memory and doing
//!   periodic work (Fig. 9b memory / Table 2 size); modelled by
//!   [`spawn_platform`] with configurable per-component residency —
//!   a synthetic substitute documented in DESIGN.md;
//! * **discovery by polling** — [`OranXapp`] polls the RAN database for
//!   nodes every 100 ms instead of being told of them.
//!
//! The E2AP encoding is ASN.1 PER throughout, as mandated by O-RAN.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use flexric::relay::{Bridge, BridgeHandle};
use flexric::server::{
    AgentId, IApp, IndicationRef, Server, ServerApi, ServerConfig, ServerHandle,
};
use flexric_codec::E2apCodec;
use flexric_e2ap::{GlobalRicId, Plmn};
use flexric_sm::{mac::MacStatsInd, ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

/// How often [`OranXapp`] polls for nodes.
const POLL_MS: u64 = 100;

/// Spawns the E2 termination: E2 nodes connect at `listen` and are
/// mirrored, in ASN.1 PER, to the xApps' controller at `xapp_host`.
pub fn spawn_e2t(listen: TransportAddr, xapp_host: TransportAddr) -> io::Result<BridgeHandle> {
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 0xE2), listen);
    cfg.codec = E2apCodec::Asn1Per;
    Bridge::relay(&cfg, xapp_host).spawn(&cfg)
}

/// Spawns the controller xApps run on, in ASN.1 PER, at `listen`.
pub fn spawn_xapp_host(
    listen: TransportAddr,
    xapps: Vec<Box<dyn IApp>>,
) -> io::Result<ServerHandle> {
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), listen);
    cfg.codec = E2apCodec::Asn1Per;
    Server::spawn(cfg, xapps)
}

/// Counters of a running [`OranXapp`].
#[derive(Debug, Default)]
pub struct OranXappCounters {
    /// Discovery polls made.
    pub polls: AtomicU64,
    /// MAC payloads decoded, per node, from the poll that found it.
    pub indications: Mutex<HashMap<AgentId, u64>>,
}

/// A monitoring xApp in the O-RAN style: it finds nodes by polling, not by
/// being told, subscribes MAC statistics at each, and decodes every MAC
/// payload (decode #2).
pub struct OranXapp {
    sm_codec: SmCodec,
    period_ms: u32,
    next_poll_ms: u64,
    counters: Arc<OranXappCounters>,
}

impl OranXapp {
    /// An xApp subscribing every `period_ms`, and the counters it keeps.
    pub fn new(sm_codec: SmCodec, period_ms: u32) -> (Self, Arc<OranXappCounters>) {
        let counters = Arc::new(OranXappCounters::default());
        (OranXapp { sm_codec, period_ms, next_poll_ms: 0, counters: counters.clone() }, counters)
    }
}

impl IApp for OranXapp {
    fn on_tick(&mut self, api: &mut ServerApi, now_ms: u64) {
        if now_ms < self.next_poll_ms {
            return;
        }
        self.next_poll_ms = now_ms + POLL_MS;
        self.counters.polls.fetch_add(1, Ordering::Relaxed);
        let mut known = self.counters.indications.lock().expect("lock poisoned");
        let mac = flexric_sm::oid::MAC_STATS;
        let mut found: Vec<_> = (api.randb().agents_with_oid(mac))
            .filter(|a| !known.contains_key(&a.id))
            .filter_map(|a| Some((a.id, a.function_by_oid(mac)?.id)))
            .collect();
        found.sort_unstable();
        for (agent, ran_function) in found {
            known.insert(agent, 0);
            let trigger = ReportTrigger::every_ms(self.period_ms).encode(self.sm_codec);
            api.subscribe_report(agent, ran_function, Bytes::from(trigger));
        }
    }

    fn on_indication(&mut self, _api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        let Ok((_, message)) = ind.sm_payload() else { return };
        if MacStatsInd::decode(self.sm_codec, message).is_ok() {
            *self.counters.indications.lock().expect("lock poisoned").entry(agent).or_default() +=
                1;
        }
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
    use flexric_e2ap::{E2NodeType, GlobalE2NodeId};

    /// Three PER agents below the E2 termination: the xApp finds all three
    /// by polling and decodes MAC reports from each, and a pinger on the
    /// same controller is answered through the two hops.
    #[test]
    fn full_pipeline_ping_and_monitoring() {
        let sm_codec = SmCodec::Asn1Per;
        let (xapp, counters) = OranXapp::new(sm_codec, 1);
        let (ping, rtts) = crate::relay::PingApp::new(sm_codec, 100, 1);
        let host_addr = TransportAddr::Mem("oran-xapps".into());
        let host = spawn_xapp_host(host_addr, vec![Box::new(xapp), Box::new(ping)]).unwrap();
        let e2t =
            spawn_e2t(TransportAddr::Mem("oran-south".into()), host.addrs[0].clone()).unwrap();
        let agents: Vec<_> = (0..3)
            .map(|i| {
                let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 5 + i);
                let mut acfg = AgentConfig::new(node, e2t.addrs[0].clone());
                acfg.codec = E2apCodec::Asn1Per;
                let mut fns = crate::dummy::dummy_mac_only(32, sm_codec);
                fns.push(Box::new(crate::ranfun::HwFn::new(sm_codec)));
                Agent::spawn(acfg, fns).unwrap()
            })
            .collect();

        let reported = || {
            let seen = counters.indications.lock().unwrap();
            seen.len() == 3 && seen.values().all(|n| *n > 10)
        };
        crate::test_util::wait_until(Duration::from_secs(10), || {
            reported() && rtts.lock().unwrap().len() >= 5
        });
        let per_node = counters.indications.lock().unwrap().clone();
        let pongs = rtts.lock().unwrap().len();
        agents.iter().for_each(|a| a.stop());
        e2t.stop();
        host.stop();
        assert_eq!(per_node.len(), 3, "every node found by polling: {per_node:?}");
        assert!(per_node.values().all(|n| *n > 10), "MAC reports from each: {per_node:?}");
        assert!(counters.polls.load(Ordering::Relaxed) >= 1, "discovery polling happened");
        assert!(pongs >= 5, "pings answered: {pongs}");
    }

    #[test]
    fn platform_components_start_and_stop() {
        let guard = spawn_platform(3, 1);
        std::thread::sleep(Duration::from_millis(250));
        drop(guard);
        // Nothing to assert beyond "does not wedge": components exit on drop.
    }
}
