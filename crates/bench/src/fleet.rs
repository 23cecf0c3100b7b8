//! The in-process fleet of Figs. 7b and 8b: dummy agents over the mem
//! transport feeding a sharded monitoring controller, all in one process,
//! measured over one wall-clock window of the shared obs registry.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flexric::agent::{Agent, AgentConfig, RanFunction};
use flexric::server::{IApp, Server, ServerConfig, ServerHandle};
use flexric_codec::E2apCodec;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::Snapshot;
use flexric_transport::TransportAddr;

use crate::counter_sum;

/// A monitoring controller on `cfg`: one `MonitorApp` per shard, every
/// replica sharing the first one's store and counters.
pub(crate) fn monitor_server(cfg: ServerConfig, mcfg: MonitorConfig) -> io::Result<ServerHandle> {
    let (app, db, counters) = MonitorApp::new(mcfg);
    let mut first = Some(app);
    Server::spawn_sharded(cfg, move |_shard| {
        let app =
            first.take().unwrap_or_else(|| MonitorApp::replica(mcfg, db.clone(), counters.clone()));
        vec![Box::new(app) as Box<dyn IApp>]
    })
}

/// Waits until `server` holds `want_subs` subscriptions; panics after 60 s.
pub fn await_subs(server: &ServerHandle, want_subs: u64) {
    let t0 = Instant::now();
    while server.stats().expect("stats").subs < want_subs {
        assert!(t0.elapsed() < Duration::from_secs(60), "not {want_subs} subscriptions in 60 s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The obs registry at both ends of a measured window.
pub struct Window {
    /// Registry at the window's start.
    pub before: Snapshot,
    /// Registry at the window's end.
    pub after: Snapshot,
    /// Wall-clock length of the window.
    pub ms: u64,
}

impl Window {
    /// How much counter `name` grew in the window, summed over its series.
    pub fn delta(&self, name: &str) -> u64 {
        counter_sum(&self.after, name) - counter_sum(&self.before, name)
    }
}

/// Runs `agents` agents — agent `i` exports the functions `bundle(i)` —
/// against a `shards`-shard controller monitoring with `mcfg` (`0` = one
/// shard per core), FB E2AP over the mem transport.  Once every agent is
/// subscribed to each SM `mcfg` monitors, eight driver threads tick the
/// fleet at the export period; after a warm-up of four periods the registry
/// is read at both ends of a `duration` window, and the fleet is torn down.
pub fn run(
    mcfg: MonitorConfig,
    shards: usize,
    agents: usize,
    duration: Duration,
    bundle: impl Fn(usize) -> Vec<Box<dyn RanFunction>> + Sync,
) -> Window {
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let addr = TransportAddr::Mem(format!("fleet-{}", FLEETS.fetch_add(1, Ordering::Relaxed)));
    let mut cfg = ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), addr.clone());
    cfg.codec = E2apCodec::Flatb;
    cfg.tick_ms = Some(50);
    cfg.shards = shards;
    let server = monitor_server(cfg, mcfg).expect("server");

    // Spawn the fleet concurrently; each agent is externally ticked.
    let handles: Vec<_> = std::thread::scope(|s| {
        let spawns: Vec<_> = (0..agents)
            .map(|i| {
                let (addr, bundle) = (addr.clone(), &bundle);
                s.spawn(move || {
                    let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 100 + i as u64);
                    let mut acfg = AgentConfig::new(node, addr);
                    acfg.codec = E2apCodec::Flatb;
                    acfg.tick_ms = None;
                    Agent::spawn(acfg, bundle(i)).expect("agent")
                })
            })
            .collect();
        spawns.into_iter().map(|h| h.join().expect("agent spawn thread")).collect()
    });

    let sms = [mcfg.mac, mcfg.rlc, mcfg.pdcp, mcfg.slice].iter().filter(|&&on| on).count();
    await_subs(&server, (agents * sms) as u64);

    let stop = AtomicBool::new(false);
    let period = mcfg.period_ms.max(1) as u64;
    let window = std::thread::scope(|s| {
        let drivers = 8.min(agents.max(1));
        for d in 0..drivers {
            let (slice, stop) = (handles.iter().skip(d).step_by(drivers), &stop);
            s.spawn(move || {
                // The agents' clock advances one period per tick, whenever
                // the tick comes, so the offered load is one report per
                // tick the pacing managed: ticks it gives up on are reports
                // not offered, which is what an unsustainable point looks
                // like.  (A late tick costs no period on either clock: the
                // agent re-arms on the subscription's own grid.)
                let mut iv = flexric::Ticker::every(Duration::from_millis(period));
                let mut now = 0;
                while !stop.load(Ordering::Relaxed) {
                    iv.tick();
                    now += period;
                    slice.clone().for_each(|a| a.tick(now));
                }
            });
        }
        std::thread::sleep(Duration::from_millis(4 * period));
        let before = flexric_obs::snapshot();
        let w0 = Instant::now();
        std::thread::sleep(duration);
        let after = flexric_obs::snapshot();
        let ms = w0.elapsed().as_millis() as u64;
        stop.store(true, Ordering::Relaxed);
        Window { before, after, ms }
    });

    for a in &handles {
        a.stop();
    }
    server.stop();
    // Let the teardown drain before the next point shares the process.
    std::thread::sleep(Duration::from_millis(200));
    window
}
