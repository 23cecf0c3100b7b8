//! Fig. 7 — Impact of E2AP/E2SM encoding on round-trip time and signaling
//! overhead (paper §5.2).
//!
//! An iApp pings an HW-SM agent over localhost TCP for every E2AP×E2SM
//! encoding combination (ASN/ASN, ASN/FB, FB/ASN, FB/FB) plus the FlexRAN
//! baseline, at two payload sizes (100 B, 1500 B):
//!
//! * **Fig. 7a** — RTT at a relaxed ping rate,
//! * **Fig. 7b** — signaling rate (Mbit/s) at a 1 ms ping interval.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig7_encoding [--pings 2000]
//! ```

use bytes::Bytes;
use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_bench::{summarize, table, Args};
use flexric_codec::E2apCodec;
use flexric_ctrl::flexran_emu::{FlexranCtrl, FlexranNode, NodeIn};
use flexric_ctrl::ranfun::HwFn;
use flexric_ctrl::relay::PingApp;
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn flexric_combo(
    e2ap: E2apCodec,
    sm: SmCodec,
    payload: usize,
    pings: usize,
) -> (f64, f64, f64, f64) {
    let (ping_app, rtts) = PingApp::new(sm, payload, 1);
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    cfg.codec = e2ap;
    cfg.tick_ms = Some(1);
    let server = Server::spawn(cfg, vec![Box::new(ping_app)]).unwrap();

    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.codec = e2ap;
    acfg.tick_ms = None;
    let agent = Agent::spawn(acfg, vec![Box::new(HwFn::new(sm))]).unwrap();

    let t0 = std::time::Instant::now();
    let a0 = agent.stats().unwrap();
    let s0 = server.stats().unwrap();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if rtts.lock().unwrap().len() >= pings {
            break;
        }
        if t0.elapsed().as_secs() > 120 {
            eprintln!("warning: only {} pings collected", rtts.lock().unwrap().len());
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let a1 = agent.stats().unwrap();
    let s1 = server.stats().unwrap();
    let mut samples: Vec<u64> = rtts.lock().unwrap().clone();
    let sum = summarize(&mut samples);
    // Signaling rate, agent→controller direction (the paper's Fig. 7b
    // convention: ~12-13 Mbit/s for 1500 B at 1 kHz is one direction).
    let _ = (s0, s1);
    let bytes = a1.tx_bytes - a0.tx_bytes;
    let mbps = bytes as f64 * 8.0 / wall / 1e6;
    agent.stop();
    server.stop();
    (sum.mean / 1000.0, sum.p50 as f64 / 1000.0, sum.p99 as f64 / 1000.0, mbps)
}

fn flexran_combo(payload: usize, pings: usize) -> (f64, f64, f64, f64) {
    let ctrl = FlexranCtrl::new(1000).spawn(&TransportAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let node = FlexranNode::new(|_| Default::default());
    let (echo_rx, tx_bytes) = (node.echo_rx.clone(), node.tx_bytes.clone());
    let agent = node.spawn(&ctrl.addrs[0], None).unwrap();
    // Payload carries the send timestamp in its first 8 bytes.
    let t0 = std::time::Instant::now();
    let mut sent = 0usize;
    let mut iv = flexric::Ticker::every(std::time::Duration::from_millis(1));
    while sent < pings {
        iv.tick();
        let mut buf = vec![0u8; payload.max(8)];
        buf[..8].copy_from_slice(&flexric::mono_ns().to_be_bytes());
        agent.send(NodeIn::Echo(Bytes::from(buf)));
        sent += 1;
    }
    // Drain replies.
    for _ in 0..200 {
        if echo_rx.lock().unwrap().len() >= pings {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut samples: Vec<u64> = echo_rx
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(payload, rx_ns)| {
            let t0 = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
            Some(rx_ns.saturating_sub(t0))
        })
        .collect();
    let sum = summarize(&mut samples);
    let bytes = tx_bytes.load(std::sync::atomic::Ordering::Relaxed);
    let mbps = bytes as f64 * 8.0 / wall / 1e6;
    ctrl.stop();
    agent.stop();
    (sum.mean / 1000.0, sum.p50 as f64 / 1000.0, sum.p99 as f64 / 1000.0, mbps)
}

fn main() {
    let args = Args::parse();
    let pings: usize = args.get_or("pings", 2000);

    table::experiment("Fig. 7", "Impact of E2AP/E2SM encoding (HW-SM ping over localhost TCP)");
    let combos: [(&str, Option<(E2apCodec, SmCodec)>); 5] = [
        ("ASN/ASN", Some((E2apCodec::Asn1Per, SmCodec::Asn1Per))),
        ("ASN/FB", Some((E2apCodec::Asn1Per, SmCodec::Flatb))),
        ("FB/ASN", Some((E2apCodec::Flatb, SmCodec::Asn1Per))),
        ("FB/FB", Some((E2apCodec::Flatb, SmCodec::Flatb))),
        ("FlexRAN", None),
    ];
    let mut rows = Vec::new();
    for payload in [100usize, 1500] {
        for (label, combo) in &combos {
            let (mean, p50, p99, mbps) = match combo {
                Some((e2ap, sm)) => flexric_combo(*e2ap, *sm, payload, pings),
                None => flexran_combo(payload, pings),
            };
            rows.push(vec![
                format!("{payload} B"),
                label.to_string(),
                table::f(mean),
                table::f(p50),
                table::f(p99),
                table::f(mbps),
            ]);
            eprintln!("  done: {payload} B {label}");
        }
    }
    println!("\nFig. 7a (RTT, µs) + Fig. 7b (signaling at 1 kHz, Mbit/s):");
    table::table(
        &["payload", "E2AP/E2SM", "rtt_mean_us", "rtt_p50_us", "rtt_p99_us", "signaling_mbps"],
        &rows,
    );
    println!();
    println!("Paper shape check: FB/FB fastest RTT; ASN/ASN smallest signaling;");
    println!("ASN/FB slower than ASN/ASN (double-encoding a larger inner payload);");
    println!("FlexRAN between FB and ASN on RTT, smallest signaling (single layer).");
}
