//! Fig. 8a — Controller CPU and memory: FlexRIC vs FlexRAN (paper §5.3).
//!
//! A statistics controller (FlexRIC: server library + stats iApp saving
//! to an in-memory store; FlexRAN: RIB + 1 ms polling application)
//! receives MAC+RLC+PDCP statistics from `--agents` dummy agents with 32
//! UEs each at 1 ms, in the agent-to-controller direction only.  Each
//! controller runs in its own process; CPU and RSS come from `/proc`.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig8a_controller_cmp \
//!     [--agents 10] [--duration 10]
//! ```

use flexric_bench::{metrics, roles, spawn_role, table, Args};

fn run_side(flexran: bool, agents: usize, duration: u64, port: u16) -> (f64, u64, u64) {
    let ctrl_role = if flexran { "flexran-ctrl" } else { "monitor" };
    let agents_role = if flexran { "flexran-dummy-agents" } else { "dummy-agents" };
    let mut ctrl = spawn_role(&[
        "--role".into(),
        ctrl_role.into(),
        "--listen".into(),
        format!("127.0.0.1:{port}"),
        "--period".into(),
        "1".into(),
        "--codec".into(),
        "fb".into(),
    ])
    .expect("spawn controller");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut ag = spawn_role(&[
        "--role".into(),
        agents_role.into(),
        "--ctrl".into(),
        format!("127.0.0.1:{port}"),
        "--agents".into(),
        agents.to_string(),
        "--ues".into(),
        "32".into(),
        "--codec".into(),
        "fb".into(),
    ])
    .expect("spawn agents");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let a = metrics::sample(Some(ctrl.id())).expect("sample");
    std::thread::sleep(std::time::Duration::from_secs(duration));
    let b = metrics::sample(Some(ctrl.id())).expect("sample");
    let cpu = metrics::cpu_pct(&a, &b);
    let _ = ag.kill();
    let _ = ag.wait();
    let _ = ctrl.kill();
    let _ = ctrl.wait();
    (cpu, b.rss_kb, b.hwm_kb)
}

fn main() {
    let args = Args::parse();
    if roles::dispatch(&args) {
        return;
    }
    let agents: usize = args.get_or("agents", 10);
    let duration: u64 = args.get_or("duration", 10);

    table::experiment(
        "Fig. 8a",
        "Controller CPU and memory, FlexRIC vs FlexRAN (dummy agents, 32 UEs, 1 ms)",
    );
    let (ric_cpu, ric_rss, ric_hwm) = run_side(false, agents, duration, 39301);
    eprintln!("  FlexRIC: {ric_cpu:.2} % cpu, {} MB rss", ric_rss / 1024);
    let (ran_cpu, ran_rss, ran_hwm) = run_side(true, agents, duration, 39302);
    eprintln!("  FlexRAN: {ran_cpu:.2} % cpu, {} MB rss", ran_rss / 1024);

    table::table(
        &["controller", "cpu_%", "rss_MB", "peak_MB"],
        &[
            vec![
                "FlexRIC".into(),
                table::f(ric_cpu),
                table::f(ric_rss as f64 / 1024.0),
                table::f(ric_hwm as f64 / 1024.0),
            ],
            vec![
                "FlexRAN".into(),
                table::f(ran_cpu),
                table::f(ran_rss as f64 / 1024.0),
                table::f(ran_hwm as f64 / 1024.0),
            ],
        ],
    );
    println!();
    println!(
        "ratios: FlexRAN/FlexRIC cpu = {:.1}x, memory = {:.1}x",
        ran_cpu / ric_cpu.max(0.01),
        ran_rss as f64 / ric_rss.max(1) as f64
    );
    println!("Paper shape check: FlexRIC ≈1/10 of FlexRAN CPU (FB vs protobuf +");
    println!("event-driven vs polling) and ≈1/3 of its memory (store organization).");
}
