//! Fig. 9a — Two-hop round-trip times: FlexRIC (relaying controller) vs
//! the O-RAN RIC pipeline (paper §5.4).
//!
//! FlexRIC side: upstream controller → relaying controller → agent, all
//! over localhost TCP, in FB/FB and ASN/ASN.  The relay is "not imposed by
//! FlexRIC but added to carry out a fair comparison".
//!
//! O-RAN side: the E2 termination is the same relay in ASN.1 PER
//! (`flexric_ctrl::oran_emu::spawn_e2t`), decoding and re-encoding every
//! message, and the controller above it decodes again — so the O-RAN path
//! *is* the ASN/ASN relay path, measured once and labelled as both.  The
//! native FlexRIC deployment, one hop, is the row O-RAN precludes.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig9a_two_hop_rtt \
//!     [--pings 1000] [--out BENCH_fig9a.json]
//! ```
//!
//! Besides the table, a machine-readable snapshot is written to `--out`
//! (default `BENCH_fig9a.json`, `--out -` to skip) by
//! [`flexric_bench::snapshot`], whose header `bench_schema_lint` checks,
//! so re-anchors can track the two-hop RTT over time.

use flexric::agent::{Agent, AgentConfig};
use flexric::relay::Bridge;
use flexric::server::{Server, ServerConfig};
use flexric_bench::{snapshot, summarize, table, write_snapshot, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::ranfun::HwFn;
use flexric_ctrl::relay::PingApp;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn flexric_one_hop(codec: E2apCodec, sm: SmCodec, payload: usize, pings: usize) -> (f64, f64, f64) {
    // FlexRIC's native deployment: the application is an iApp, one hop to
    // the agent — the architecture O-RAN precludes.
    let (ping_app, rtts) = PingApp::new(sm, payload, 1);
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    cfg.codec = codec;
    cfg.tick_ms = Some(1);
    let server = Server::spawn(cfg, vec![Box::new(ping_app)]).unwrap();
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.codec = codec;
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm))]).unwrap();
    let t0 = std::time::Instant::now();
    while rtts.lock().unwrap().len() < pings && t0.elapsed().as_secs() < 60 {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut samples = rtts.lock().unwrap().clone();
    let s = summarize(&mut samples);
    agent.stop();
    server.stop();
    (s.mean / 1000.0, s.p50 as f64 / 1000.0, s.p99 as f64 / 1000.0)
}

fn flexric_two_hop(codec: E2apCodec, sm: SmCodec, payload: usize, pings: usize) -> (f64, f64, f64) {
    let (ping_app, rtts) = PingApp::new(sm, payload, 1);
    let mut up_cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    up_cfg.codec = codec;
    up_cfg.tick_ms = Some(1);
    let up = Server::spawn(up_cfg, vec![Box::new(ping_app)]).unwrap();

    let mut south_cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 2),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    south_cfg.codec = codec;
    let relay = Bridge::relay(&south_cfg, up.addrs[0].clone()).spawn(&south_cfg).unwrap();

    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        relay.addrs[0].clone(),
    );
    acfg.codec = codec;
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm))]).unwrap();

    let t0 = std::time::Instant::now();
    while rtts.lock().unwrap().len() < pings && t0.elapsed().as_secs() < 60 {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut samples = rtts.lock().unwrap().clone();
    let s = summarize(&mut samples);
    agent.stop();
    relay.stop();
    up.stop();
    (s.mean / 1000.0, s.p50 as f64 / 1000.0, s.p99 as f64 / 1000.0)
}

fn main() {
    let args = Args::parse();
    let pings: usize = args.get_or("pings", 1000);
    let out = args.get("out").unwrap_or("BENCH_fig9a.json").to_owned();

    table::experiment(
        "Fig. 9a",
        "Two-hop RTT: FlexRIC relay vs O-RAN RIC pipeline (localhost TCP)",
    );
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for payload in [100usize, 1500] {
        for (label, codec, sm, relayed) in [
            ("FB/FB 1-hop", E2apCodec::Flatb, SmCodec::Flatb, false),
            ("FB/FB relay", E2apCodec::Flatb, SmCodec::Flatb, true),
            ("ASN/ASN relay = O-RAN", E2apCodec::Asn1Per, SmCodec::Asn1Per, true),
        ] {
            let (mean, p50, p99) = if relayed {
                flexric_two_hop(codec, sm, payload, pings)
            } else {
                flexric_one_hop(codec, sm, payload, pings)
            };
            eprintln!("  {payload} B {label}: mean {mean:.1} µs");
            rows.push(vec![
                format!("{payload} B"),
                label.to_string(),
                table::f(mean),
                table::f(p50),
                table::f(p99),
            ]);
            points.push(flexric_xapp::json!({
                "payload_bytes": payload,
                "path": label,
                "rtt_mean_us": mean,
                "rtt_p50_us": p50,
                "rtt_p99_us": p99,
            }));
        }
    }
    table::table(&["payload", "path", "rtt_mean_us", "rtt_p50_us", "rtt_p99_us"], &rows);

    let doc = snapshot(
        "fig9a",
        "fig9a_two_hop_rtt",
        "Live HW pings over localhost TCP, one at a time, RTT taken at the pinging iApp; the \
         O-RAN path is the ASN/ASN relay path (the E2 termination is the relay in ASN.1 PER), \
         so one row stands for both.",
        flexric_xapp::json!({ "pings_per_point": pings }),
        points,
    );
    write_snapshot(&out, &doc);
    println!();
    println!("Paper shape check: O-RAN imposes the second hop that FlexRIC does not");
    println!("(1-hop row ≈ half the RTT).  At equal hop counts the O-RAN path is the");
    println!("ASN/ASN relay path: the paper's residual 2-3x there comes from RMR +");
    println!("container networking, which this emulation does not add (see EXPERIMENTS.md).");
}
