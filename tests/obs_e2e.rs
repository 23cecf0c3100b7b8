//! Observability end-to-end: message-conservation invariants read straight
//! from the obs registry, plus property tests of the histogram math.
//!
//! The conservation test must be the ONLY full-stack test in this binary:
//! the obs registry is process-global, and `cargo test` runs every test of
//! one binary in one process, so a second stack here would pollute the
//! counters the invariants are written against.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_ctrl::ranfun::{stats_bundle, SimBs};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_obs::{HistSnapshot, Histogram, SnapValue, Snapshot};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter_value(name).unwrap_or_else(|| panic!("{name} not in registry"))
}

/// Total over every counter series named `name` (summing over label sets,
/// e.g. the per-site `site="…"` series of `rx_copies_total`).
fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    let series: Vec<u64> = snap
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            SnapValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .collect();
    assert!(!series.is_empty(), "{name} not in registry");
    series.iter().sum()
}

/// Total record count across every histogram series named `name`
/// (summing over label sets, e.g. the per-codec `codec="…"` series).
fn hist_count(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            SnapValue::Hist(h) => h.count,
            _ => panic!("{name} is not a histogram"),
        })
        .sum()
}

/// No faults, TCP loopback: every indication the agents send must arrive
/// at the server, and nothing on the path may fail to decode.
///
/// Runs the server with two shards and one agent per shard (two distinct
/// RAN entities spread by least-loaded assignment), so the conservation
/// invariant also covers the sharded dispatch path and the per-shard
/// `flexric_server_shard_*` series are populated.  Running over real
/// sockets (not the mem transport) also exercises the buffered receive
/// path, whose zero-copy steady-state invariant is asserted below.
#[test]
fn indication_conservation_over_tcp_loopback() {
    if cfg!(feature = "obs-off") {
        return; // counters are compiled out; nothing to conserve
    }
    let mcfg = MonitorConfig::default();
    let (monitor, db, counters) = MonitorApp::new(mcfg);
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::Tcp("127.0.0.1:0".parse().unwrap()),
    );
    cfg.tick_ms = None;
    cfg.shards = 2;
    let mut first = Some(monitor);
    let server = Server::spawn_sharded(cfg, move |_shard| {
        let app =
            first.take().unwrap_or_else(|| MonitorApp::replica(mcfg, db.clone(), counters.clone()));
        vec![Box::new(app) as Box<dyn flexric::server::IApp>]
    })
    .unwrap();

    let listen_addr = server.addrs[0].clone();

    let mut agents = Vec::new();
    let mut sims = Vec::new();
    for n in 0..2u64 {
        let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
        for i in 0..2u16 {
            sim.attach_ue(0, UeConfig::new(0x4601 + i, 20));
            sim.add_flow(FlowConfig {
                cell: 0,
                rnti: 0x4601 + i,
                drb: 1,
                kind: FlowKind::GreedyTcp { mss: 1500 },
                tuple: (0x0A00_0001, 0x0A00_0100 + i as u32, 1000, 80, 6),
                start_ms: 0,
                stop_ms: None,
            });
        }
        let sim = Arc::new(Mutex::new(sim));
        let bs = SimBs::new(sim.clone(), 0);
        let mut acfg = AgentConfig::new(
            GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1 + n),
            listen_addr.clone(),
        );
        acfg.tick_ms = None;
        agents.push(Agent::spawn(acfg, stats_bundle(&bs, SmCodec::Flatb)).unwrap());
        sims.push(sim);
    }

    // Zero-copy baseline: both agents are connected and set up, so any
    // receive-path copy from here on would be per-frame steady-state work.
    let rx_copies_before =
        counter_sum(&flexric_obs::snapshot(), "flexric_transport_rx_copies_total");

    // Drive 1 s of virtual time (subscription round-trip + a steady stream
    // of 1 ms-period indications from 3 SMs per agent).
    for _ in 0..1_000 {
        for (sim, agent) in sims.iter().zip(&agents) {
            let now = {
                let mut s = sim.lock().unwrap();
                s.tick();
                s.now_ms()
            };
            agent.tick(now);
        }
        // A round trip through each agent's queue: each tick is handled on
        // its own, not coalesced into the next, so every millisecond's
        // reports are sent.
        for agent in &agents {
            let _ = agent.stats();
        }
    }

    // Settle: poll until the last in-flight indications have landed.
    let mut snap = flexric_obs::snapshot();
    for _ in 0..100 {
        let sent = counter(&snap, "flexric_agent_indications_sent_total");
        let rx = counter(&snap, "flexric_server_indications_rx_total");
        if sent > 0 && sent == rx {
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        snap = flexric_obs::snapshot();
    }

    // The conservation invariant.
    let sent = counter(&snap, "flexric_agent_indications_sent_total");
    let rx = counter(&snap, "flexric_server_indications_rx_total");
    assert!(sent > 1_000, "2 agents × 3 SMs × ~1000 ticks should send thousands, got {sent}");
    assert_eq!(sent, rx, "every indication sent must be received");

    // Per-shard conservation: two entities on a two-shard server spread
    // one per shard (least-loaded assignment), each shard's rx series is
    // live, and the shard series sum to the totals they decompose.
    let shard_rx: Vec<u64> = snap
        .metrics
        .iter()
        .filter(|m| m.name == "flexric_server_shard_rx_total")
        .map(|m| match m.value {
            SnapValue::Counter(v) => v,
            _ => panic!("shard rx is a counter"),
        })
        .collect();
    assert_eq!(shard_rx.len(), 2, "one series per shard");
    assert!(shard_rx.iter().all(|&v| v > 0), "both shards received messages: {shard_rx:?}");
    assert_eq!(
        shard_rx.iter().sum::<u64>(),
        counter(&snap, "flexric_server_rx_msgs_total"),
        "shard rx series decompose the server total"
    );
    let shard_agents: Vec<i64> = snap
        .metrics
        .iter()
        .filter(|m| m.name == "flexric_server_shard_agents")
        .map(|m| match m.value {
            SnapValue::Gauge(v) => v,
            _ => panic!("shard agents is a gauge"),
        })
        .collect();
    assert_eq!(shard_agents, vec![1, 1], "one agent owned by each shard");
    assert_eq!(counter(&snap, "flexric_agent_decode_errors_total"), 0);
    assert_eq!(counter(&snap, "flexric_server_decode_errors_total"), 0);

    // Zero-copy receive: thousands of indications crossed the sockets and
    // not one of them took a payload copy — neither at recv (frames are
    // refcounted views into the read slab) nor at decode (borrowed decode
    // slices the receive buffer).  A flat counter across the burst is the
    // "zero per-frame allocations in steady state" acceptance criterion.
    let rx_copies_after = counter_sum(&snap, "flexric_transport_rx_copies_total");
    assert_eq!(
        rx_copies_after, rx_copies_before,
        "receive path took per-frame copies during the indication burst"
    );
    // Batched reads happened: the frames-per-wakeup histogram is fed by
    // the TCP receive loop, so running over loopback must populate it.
    assert!(
        hist_count(&snap, "flexric_transport_read_frames_per_wakeup") > 0,
        "TCP receive loop should account frames per socket wakeup"
    );

    // Every layer of the acceptance criterion reports: transport, codec,
    // endpoint, server (checked above), ransim.
    assert!(counter(&snap, "flexric_transport_tx_frames_total") > 0);
    assert!(counter(&snap, "flexric_transport_rx_frames_total") > 0);
    assert!(hist_count(&snap, "flexric_codec_encode_ns") > 0);
    assert!(hist_count(&snap, "flexric_codec_decode_ns") > 0);
    assert!(counter(&snap, "flexric_endpoint_begun_total") > 0, "subscription procedures ran");
    assert!(hist_count(&snap, "flexric_ransim_tti_ns") > 0, "sim ticks timed");
    assert!(counter(&snap, "flexric_ctrl_indications_total") > 0, "iApp saw indications");

    // And the whole thing renders to Prometheus text, per-shard series
    // included.
    let text = snap.render_prom();
    assert!(text.contains("# TYPE flexric_server_indications_rx_total counter"));
    assert!(text.contains("flexric_server_dispatch_ns_bucket"));
    assert!(text.contains("flexric_server_shard_rx_total{shard=\"0\"}"));
    assert!(text.contains("flexric_server_shard_rx_total{shard=\"1\"}"));

    for agent in &agents {
        agent.stop();
    }
    server.stop();
}

fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

proptest! {
    /// Shard-per-thread recording then merging must be exactly the same
    /// as recording everything into one histogram.
    #[test]
    fn hist_merge_of_shards_equals_whole(
        values in prop::collection::vec((any::<u64>(), 0usize..4), 0..800)
    ) {
        let whole = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for &(v, s) in &values {
            whole.record(v);
            shards[s].record(v);
        }
        let mut merged = HistSnapshot::default();
        for s in &shards {
            merged.merge(&s.snapshot());
        }
        prop_assert_eq!(merged, whole.snapshot());
    }

    /// Log-bucketed percentiles stay within the bucket's relative error
    /// (1/16 ≈ 6.25%) of the exact nearest-rank percentile.
    #[test]
    fn hist_percentile_within_bucket_error(
        mut values in prop::collection::vec(any::<u64>(), 1..800),
        p in 1.0f64..100.0
    ) {
        if cfg!(feature = "obs-off") {
            return Ok(()); // record() is compiled out
        }
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let exact = exact_percentile(&values, p);
        let approx = h.snapshot().percentile(p);
        prop_assert!(approx >= exact, "bucket upper bound is inclusive: {approx} < {exact}");
        prop_assert!(
            approx - exact <= exact / 16 + 1,
            "relative error too large: approx {approx}, exact {exact}"
        );
    }

    /// Merging in any split is associative-equivalent: percentiles of the
    /// merged snapshot match the unsplit histogram's.
    #[test]
    fn hist_merge_preserves_percentiles(
        values in prop::collection::vec(any::<u64>(), 1..400),
        split in 0usize..400
    ) {
        let split = split.min(values.len());
        let whole = Histogram::new();
        let a = Histogram::new();
        let b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < split { a.record(v) } else { b.record(v) }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), whole.snapshot().percentile(p));
        }
    }
}
