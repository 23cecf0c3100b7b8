//! Fig. 9b — Monitoring CPU and memory: FlexRIC vs the O-RAN RIC pipeline
//! (paper §5.4).
//!
//! "10 dummy agents export MAC statistics (excluding HARQ) for 32 UEs
//! using E2AP indication messages every ms."  The FlexRIC side is the
//! monitoring controller in one process; the O-RAN side is the E2
//! termination (decode + re-encode), a TCP hop, the xApp's controller
//! (second decode) and the platform components, in a separate process
//! whose total CPU/RSS is attributed to the RIC — the paper sums its
//! components' `docker stats` the same way.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig9b_oran_monitoring \
//!     [--agents 10] [--duration 10] [--platform-components 13] [--platform-mb 12]
//! ```

use flexric_bench::{metrics, roles, spawn_role, table, Args};
use flexric_transport::TransportAddr;

/// Role: the whole O-RAN RIC in one process — the E2 termination, the
/// xApp's controller one TCP hop above it, and the platform.  The xApp
/// subscribes MAC statistics at every node its discovery poll finds.
fn role_oran_ric(args: &Args) {
    use flexric_ctrl::oran_emu::{spawn_e2t, spawn_platform, spawn_xapp_host, OranXapp};
    let listen = TransportAddr::parse(args.get("listen").expect("--listen")).expect("addr");
    let components: usize = args.get_or("platform-components", 13);
    let mb: usize = args.get_or("platform-mb", 12);
    let period: u32 = args.get_or("period", 1);
    let (xapp, _counters) = OranXapp::new(flexric_sm::SmCodec::Asn1Per, period);
    let any_port = TransportAddr::parse("127.0.0.1:0").unwrap();
    let host = spawn_xapp_host(any_port, vec![Box::new(xapp)]).expect("xapp host");
    let _e2t = spawn_e2t(listen, host.addrs[0].clone()).expect("e2t");
    let _platform = spawn_platform(components, mb);
    roles::park_forever();
}

fn measure(
    ric_args: Vec<String>,
    agents_args: Vec<String>,
    duration: u64,
    ric_pid_label: &str,
) -> (f64, u64) {
    let mut ric = spawn_role(&ric_args).expect("spawn ric");
    std::thread::sleep(std::time::Duration::from_millis(500));
    let mut ag = spawn_role(&agents_args).expect("spawn agents");
    std::thread::sleep(std::time::Duration::from_millis(2500));
    let a = metrics::sample(Some(ric.id())).expect("sample");
    std::thread::sleep(std::time::Duration::from_secs(duration));
    let b = metrics::sample(Some(ric.id())).expect("sample");
    let cpu = metrics::cpu_pct(&a, &b);
    eprintln!("  {ric_pid_label}: {cpu:.1} % cpu, {} MB rss", b.rss_kb / 1024);
    let _ = ag.kill();
    let _ = ag.wait();
    let _ = ric.kill();
    let _ = ric.wait();
    (cpu, b.rss_kb)
}

fn main() {
    let args = Args::parse();
    if args.get("role") == Some("oran-ric") {
        role_oran_ric(&args);
        return;
    }
    if roles::dispatch(&args) {
        return;
    }
    let agents: usize = args.get_or("agents", 10);
    let duration: u64 = args.get_or("duration", 10);
    let components: usize = args.get_or("platform-components", 13);
    let platform_mb: usize = args.get_or("platform-mb", 12);

    table::experiment(
        "Fig. 9b",
        "Monitoring CPU/memory: FlexRIC vs O-RAN RIC (10 agents × 32 UEs, MAC @1 ms)",
    );

    // FlexRIC side: monitoring controller, FB, MAC only.
    let (ric_cpu, ric_rss) = measure(
        vec![
            "--role".into(),
            "monitor".into(),
            "--listen".into(),
            "127.0.0.1:39501".into(),
            "--period".into(),
            "1".into(),
            "--codec".into(),
            "fb".into(),
        ],
        vec![
            "--role".into(),
            "dummy-agents".into(),
            "--ctrl".into(),
            "127.0.0.1:39501".into(),
            "--agents".into(),
            agents.to_string(),
            "--ues".into(),
            "32".into(),
            "--codec".into(),
            "fb".into(),
            "--mac-only".into(),
            "x".into(),
        ],
        duration,
        "FlexRIC",
    );

    // O-RAN side: E2T + a hop + xApp + platform, ASN.1.
    let (oran_cpu, oran_rss) = measure(
        vec![
            "--role".into(),
            "oran-ric".into(),
            "--listen".into(),
            "127.0.0.1:39502".into(),
            "--agents".into(),
            agents.to_string(),
            "--period".into(),
            "1".into(),
            "--platform-components".into(),
            components.to_string(),
            "--platform-mb".into(),
            platform_mb.to_string(),
        ],
        vec![
            "--role".into(),
            "dummy-agents".into(),
            "--ctrl".into(),
            "127.0.0.1:39502".into(),
            "--agents".into(),
            agents.to_string(),
            "--ues".into(),
            "32".into(),
            "--codec".into(),
            "asn".into(),
            "--mac-only".into(),
            "x".into(),
        ],
        duration,
        "O-RAN RIC",
    );

    table::table(
        &["platform", "cpu_%", "rss_MB"],
        &[
            vec!["FlexRIC".into(), table::f(ric_cpu), table::f(ric_rss as f64 / 1024.0)],
            vec!["O-RAN RIC".into(), table::f(oran_cpu), table::f(oran_rss as f64 / 1024.0)],
        ],
    );
    println!();
    println!(
        "ratios: O-RAN/FlexRIC cpu = {:.1}x, memory = {:.0}x",
        oran_cpu / ric_cpu.max(0.01),
        oran_rss as f64 / ric_rss.max(1) as f64
    );
    println!("Paper shape check: FlexRIC CPU ≈83 % lower than O-RAN (double decode +");
    println!("extra hop), O-RAN memory dominated by always-on platform components.");
}
