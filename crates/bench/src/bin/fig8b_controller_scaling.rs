//! Fig. 8b — Controller CPU vs. number of agents, ASN.1 vs FB E2AP
//! encoding (paper §5.3).
//!
//! Dummy test agents (32 UEs each, MAC+RLC+PDCP at `--period` ms) feed a
//! FlexRIC monitoring controller.  With FB, the controller's subscription
//! lookup peeks the header straight from the raw bytes; with ASN.1 every
//! message must be fully decoded first — the paper measures ~4× more CPU
//! for ASN.1.  `--period 10` reproduces the §5.3 side-note that ~100
//! agents are sustainable at a 10 ms export period.
//!
//! `--shards N` runs the controller role sharded (`0` = one per core);
//! see `fig8b_sharded_sweep` for the mem-transport sweep toward 10k
//! agents.  This bin is the one writer of `BENCH_fig8b.json`: results go
//! to `--out` (default `BENCH_fig8b.json`, `--out -` to skip).
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig8b_controller_scaling \
//!     [--duration 8] [--max-agents 18] [--step 4] [--period 1] [--shards 1] \
//!     [--out BENCH_fig8b.json]
//! ```

use flexric_bench::{metrics, roles, snapshot, spawn_role, table, write_snapshot, Args};
use flexric_xapp::json;

fn run_point(
    codec: &str,
    agents: usize,
    period: u32,
    duration: u64,
    port: u16,
    shards: usize,
) -> f64 {
    let mut ctrl = spawn_role(&[
        "--role".into(),
        "monitor".into(),
        "--listen".into(),
        format!("127.0.0.1:{port}"),
        "--period".into(),
        period.to_string(),
        "--codec".into(),
        codec.into(),
        "--sm".into(),
        "fb".into(),
        "--shards".into(),
        shards.to_string(),
        // Scaling run: measure the dispatch path, not the store.
        "--no-store".into(),
        "x".into(),
    ])
    .expect("spawn controller");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut ag = spawn_role(&[
        "--role".into(),
        "dummy-agents".into(),
        "--ctrl".into(),
        format!("127.0.0.1:{port}"),
        "--agents".into(),
        agents.to_string(),
        "--ues".into(),
        "32".into(),
        "--codec".into(),
        codec.into(),
        "--sm".into(),
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
    cpu
}

fn main() {
    let args = Args::parse();
    if roles::dispatch(&args) {
        return;
    }
    let duration: u64 = args.get_or("duration", 8);
    let max_agents: usize = args.get_or("max-agents", 18);
    let step: usize = args.get_or("step", 4);
    let period: u32 = args.get_or("period", 1);
    let shards: usize = args.get_or("shards", 1);
    let out = args.get("out").unwrap_or("BENCH_fig8b.json").to_owned();

    table::experiment(
        "Fig. 8b",
        "Controller CPU vs #agents, FB vs ASN.1 E2AP (32 UEs/agent, stats every period)",
    );
    println!("period = {period} ms, shards = {shards}");
    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    let mut port = 39400u16;
    let mut last_cpu = [0.0; 2];
    let mut points: Vec<usize> = (1..=max_agents).step_by(step.max(1)).collect();
    if *points.last().unwrap_or(&0) != max_agents {
        points.push(max_agents);
    }
    for agents in points {
        let mut row = vec![agents.to_string()];
        let mut point = vec![("agents".to_owned(), json!(agents))];
        for (k, codec) in ["asn", "fb"].into_iter().enumerate() {
            port += 1;
            let cpu = run_point(codec, agents, period, duration, port, shards);
            last_cpu[k] = cpu;
            eprintln!("  agents={agents} {codec}: {cpu:.1} %");
            row.push(table::f(cpu));
            point.push((format!("{codec}_cpu_pct"), json!((cpu * 10.0).round() / 10.0)));
        }
        rows.push(row);
        json_points.push(json::Value::Obj(point));
    }
    table::table(&["agents", "asn1_cpu_%", "fb_cpu_%"], &rows);
    let [asn, fb] = last_cpu;
    let doc = snapshot(
        "fig8b",
        "fig8b_controller_scaling",
        &format!(
            "Controller CPU (utime + stime of the controller process, /proc) against the number \
             of dummy agents (MAC + RLC + PDCP, FB SMs), each agent and controller a separate \
             process over loopback TCP, once with ASN.1 PER E2AP and once with FB E2AP.  At \
             {max_agents} agents ASN.1 takes {asn:.1} % and FB {fb:.1} % ({:.2}x); the paper \
             reads about 4x.",
            asn / fb.max(1e-9)
        ),
        json!({
            "transport": "tcp-loopback",
            "sm_codec": "fb",
            "period_ms": period,
            "ues_per_agent": 32,
            "shards": shards,
            "duration_s": duration,
        }),
        json_points,
    );
    write_snapshot(&out, &doc);
    println!();
    println!("Paper shape check: ASN.1 ≈4x the CPU of FB at equal agent counts —");
    println!("the FB path peeks the routing header from raw bytes, the ASN.1 path");
    println!("must fully decode every indication before dispatch.");
}
