//! Fig. 9a — Two-hop round-trip times: FlexRIC (relaying controller) vs
//! the O-RAN RIC pipeline (paper §5.4).
//!
//! FlexRIC side: upstream controller → relaying controller → agent, all
//! over localhost TCP, in FB/FB and ASN/ASN.  The relay is "not imposed by
//! FlexRIC but added to carry out a fair comparison".
//!
//! O-RAN side: xApp → RMR hop → E2 termination → agent, ASN.1 throughout,
//! with the E2T decoding/re-encoding and the xApp decoding again — the
//! architecture that makes a localhost RTT approach 1 ms in the paper.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig9a_two_hop_rtt \
//!     [--pings 1000] [--out BENCH_fig9a.json]
//! ```
//!
//! Besides the table, a machine-readable snapshot is written to `--out`
//! (default `BENCH_fig9a.json`, `--out -` to skip) so re-anchors can track
//! the two-hop RTT over time.

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_bench::{summarize, table, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::oran_emu::{run_e2term, OranXapp};
use flexric_ctrl::ranfun::HwFn;
use flexric_ctrl::relay::{hw_advertisement, spawn_relay, PingApp};
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
    south_cfg.tick_ms = None;
    let relay = spawn_relay(
        south_cfg,
        up.addrs[0].clone(),
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 99),
        hw_advertisement(sm),
    )
    .unwrap();

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

fn oran_two_hop(payload: usize, pings: usize) -> (f64, f64, f64) {
    let sm = SmCodec::Asn1Per;
    let xapp = OranXapp::spawn(TransportAddr::parse("127.0.0.1:0").unwrap(), sm).unwrap();
    let south =
        run_e2term(TransportAddr::parse("127.0.0.1:0").unwrap(), xapp.rmr_addr.clone()).unwrap();
    let mut acfg = AgentConfig::new(GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1), south);
    acfg.codec = E2apCodec::Asn1Per;
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm))]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Serialized pinging: send the next once the previous returned.
    let t0 = std::time::Instant::now();
    let mut sent = 0usize;
    while sent < pings && t0.elapsed().as_secs() < 60 {
        let have = xapp.rtts.lock().unwrap().len();
        if have == sent {
            xapp.ping(0, payload);
            sent += 1;
        }
        // Wait for the pong before the next ping.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while xapp.rtts.lock().unwrap().len() < sent && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let mut samples = xapp.rtts.lock().unwrap().clone();
    let s = summarize(&mut samples);
    agent.stop();
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
        for (label, codec, sm) in [
            ("FB/FB 1-hop", Some((E2apCodec::Flatb, false)), SmCodec::Flatb),
            ("FB/FB relay", Some((E2apCodec::Flatb, true)), SmCodec::Flatb),
            ("ASN/ASN relay", Some((E2apCodec::Asn1Per, true)), SmCodec::Asn1Per),
            ("O-RAN", None, SmCodec::Asn1Per),
        ] {
            let (mean, p50, p99) = match codec {
                Some((c, true)) => flexric_two_hop(c, sm, payload, pings),
                Some((c, false)) => flexric_one_hop(c, sm, payload, pings),
                None => oran_two_hop(payload, pings),
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

    if out != "-" {
        let doc = flexric_xapp::json!({
            "bench": "fig9a",
            "source": "fig9a_two_hop_rtt",
            "status": "measured",
            "pings_per_point": pings,
            "points": points,
        });
        match std::fs::write(&out, doc.to_string_pretty() + "\n") {
            Ok(()) => eprintln!("  snapshot written to {out}"),
            Err(e) => eprintln!("  snapshot NOT written ({out}: {e})"),
        }
    }
    println!();
    println!("Paper shape check: O-RAN imposes the second hop that FlexRIC does not");
    println!("(1-hop row ≈ half the RTT).  At equal hop counts our substrate shows");
    println!("parity: the paper's residual 2-3x there comes from RMR + container");
    println!("networking, which this emulation does not add (see EXPERIMENTS.md).");
}
