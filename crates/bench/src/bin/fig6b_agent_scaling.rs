//! Fig. 6b — Agent CPU vs. number of connected UEs on the L2 simulator
//! (paper §5.1).
//!
//! The paper uses OAI's "L2 simulator" (no physical layer) to scale the
//! UE count; our RAN simulator *is* an L2 simulator, so this sweep runs it
//! directly: for 0–32 UEs, measure the base-station process CPU with the
//! FlexRAN agent, the FlexRIC agent, and no agent, all exporting
//! MAC+RLC+PDCP statistics at 1 ms.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig6b_agent_scaling \
//!     [--duration 6] [--step 8]
//! ```

use flexric_bench::{metrics, roles, spawn_role, table, Args};

fn run_point(variant: &str, ues: u16, duration: u64, port: u16) -> f64 {
    let mut ctrl_child = None;
    let ctrl_role = match variant {
        "flexric" => Some("monitor"),
        "flexran" => Some("flexran-ctrl"),
        _ => None,
    };
    if let Some(role) = ctrl_role {
        let child = spawn_role(&[
            "--role".into(),
            role.into(),
            "--listen".into(),
            format!("127.0.0.1:{port}"),
            "--period".into(),
            "1".into(),
        ])
        .expect("spawn controller");
        ctrl_child = Some(child);
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    let mut bs_args: Vec<String> = vec![
        "--role".into(),
        "bs".into(),
        "--variant".into(),
        variant.into(),
        "--cell".into(),
        "lte25".into(),
        "--mcs".into(),
        "28".into(),
        "--ues".into(),
        ues.to_string(),
        "--duration".into(),
        duration.to_string(),
    ];
    if ctrl_role.is_some() {
        bs_args.push("--ctrl".into());
        bs_args.push(format!("127.0.0.1:{port}"));
    }
    let mut bs = spawn_role(&bs_args).expect("spawn bs");
    std::thread::sleep(std::time::Duration::from_millis(800));
    let a = metrics::sample(Some(bs.id())).expect("sample");
    std::thread::sleep(std::time::Duration::from_secs(duration.saturating_sub(2).max(3)));
    let b = metrics::sample(Some(bs.id())).expect("sample");
    // Normalized to the paper's 8-core LTE machine.
    let pct = metrics::cpu_pct_normalized(&a, &b, 8);
    let _ = bs.wait();
    if let Some(mut c) = ctrl_child {
        let _ = c.kill();
        let _ = c.wait();
    }
    pct
}

fn main() {
    let args = Args::parse();
    if roles::dispatch(&args) {
        return;
    }
    let duration: u64 = args.get_or("duration", 6);
    let step: u16 = args.get_or("step", 8);

    table::experiment("Fig. 6b", "Agent CPU vs #UEs, L2 simulator (normalized, 8 cores)");
    let mut rows = Vec::new();
    let mut port = 39200u16;
    let mut ue_points: Vec<u16> = (0..=32).step_by(step.max(1) as usize).collect();
    if *ue_points.last().unwrap_or(&0) != 32 {
        ue_points.push(32);
    }
    for ues in ue_points {
        let mut row = vec![ues.to_string()];
        for variant in ["none", "flexric", "flexran"] {
            port += 1;
            let pct = run_point(variant, ues, duration, port);
            eprintln!("  ues={ues} {variant}: {pct:.3} %");
            row.push(table::f(pct));
        }
        rows.push(row);
    }
    table::table(&["ues", "no_agent_%", "flexric_%", "flexran_%"], &rows);
    println!();
    println!("Paper shape check: FlexRIC ≤ FlexRAN, gap growing with UE count");
    println!("(more efficient FB encoding of indication messages).");
}
