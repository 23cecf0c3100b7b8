//! Fig. 7b extension — monitoring cost under adaptive reporting: signaling
//! bytes/s at the controller for full-snapshot vs delta-encoded vs
//! adaptive (delta + server-driven retuning) subscriptions, in both SM
//! encodings (FB and ASN.1 PER).
//!
//! Everything runs in ONE process over the in-memory transport
//! ([`flexric_bench::fleet`]): dummy agents over the time-varying KPI
//! workload (quiet/active/burst phases, `flexric_ransim::kpi`) feed a
//! monitoring controller that subscribes in the mode under test.  The
//! store stays ON so the delta modes pay their reconstruction cost in the
//! measurement, and the adaptive mode's retunes (backoff on quiescence,
//! tighten on anomaly, resync on loss) ride the regular subscription
//! procedure.  Each point records the indications the agents sent beside
//! those the controller took in, so a point the host cannot sustain shows
//! as one and is not read as a saving.
//!
//! ```text
//! cargo run --release -p flexric-bench --bin fig7b_monitoring_cost -- \
//!     [--agents 100,500,1000] [--ues 32] [--period 10] [--duration 5] \
//!     [--out BENCH_fig7b.json] [--require-savings 3.0]
//! ```
//!
//! `--require-savings X` exits non-zero unless delta AND adaptive cut the
//! monitoring bytes/s by ≥ X× vs full at the largest agent count, in each
//! SM encoding.

use std::time::Duration;

use flexric_xapp::json;

use flexric_bench::{fleet, snapshot, table, write_snapshot, Args};
use flexric_ctrl::dummy::dummy_bundle_time_varying;
use flexric_ctrl::monitoring::{MonitorConfig, MonitorMode};
use flexric_sm::SmCodec;

/// MAC + RLC + PDCP.
const SMS_PER_AGENT: u64 = 3;

struct Point {
    agents: usize,
    sm: &'static str,
    mode: &'static str,
    window_ms: u64,
    sent: u64,
    indications: u64,
    sm_bytes: u64,
    bytes_per_s: f64,
    decode_errors: u64,
    resyncs: u64,
    retunes: u64,
}

fn mode_name(mode: MonitorMode) -> &'static str {
    match mode {
        MonitorMode::Full => "full",
        MonitorMode::Delta => "delta",
        MonitorMode::Adaptive => "adaptive",
    }
}

fn sm_name(sm: SmCodec) -> &'static str {
    match sm {
        SmCodec::Flatb => "fb",
        SmCodec::Asn1Per => "per",
    }
}

fn run_point(
    agents: usize,
    ues: u16,
    period: u32,
    duration_s: u64,
    sm: SmCodec,
    mode: MonitorMode,
) -> Point {
    let mcfg = MonitorConfig { period_ms: period, sm_codec: sm, mode, ..Default::default() };
    let w = fleet::run(mcfg, 0, agents, Duration::from_secs(duration_s), |i| {
        dummy_bundle_time_varying(ues, sm, i as u64)
    });
    let sm_bytes = w.delta("flexric_ctrl_indication_bytes_total");
    Point {
        agents,
        sm: sm_name(sm),
        mode: mode_name(mode),
        window_ms: w.ms,
        sent: w.delta("flexric_agent_indications_sent_total"),
        indications: w.delta("flexric_ctrl_indications_total"),
        sm_bytes,
        bytes_per_s: sm_bytes as f64 * 1_000.0 / w.ms.max(1) as f64,
        decode_errors: w.delta("flexric_sm_delta_decode_errors_total"),
        resyncs: w.delta("flexric_sm_delta_resyncs_total"),
        retunes: w.delta("flexric_ctrl_retunes_total"),
    }
}

fn main() {
    let args = Args::parse();
    let ues: u16 = args.get_or("ues", 32);
    let period: u32 = args.get_or("period", 10);
    let duration_s: u64 = args.get_or("duration", 5);
    let out = args.get("out").unwrap_or("BENCH_fig7b.json").to_owned();
    let require: f64 = args.get_or("require-savings", 0.0);
    let agent_points: Vec<usize> = args
        .get("agents")
        .unwrap_or("100,500,1000")
        .split(',')
        .map(|s| s.trim().parse().expect("--agents takes a comma-separated list"))
        .collect();

    table::experiment(
        "Fig. 7b (monitoring cost)",
        "Controller monitoring bytes/s: full vs delta vs adaptive, mem transport, FB and PER SMs",
    );
    println!("period = {period} ms, ues/agent = {ues}, window = {duration_s} s");

    let sms = [SmCodec::Flatb, SmCodec::Asn1Per];
    let modes = [MonitorMode::Full, MonitorMode::Delta, MonitorMode::Adaptive];
    let mut rows = Vec::new();
    let mut results: Vec<Point> = Vec::new();
    for &agents in &agent_points {
        for sm in sms {
            for mode in modes {
                let p = run_point(agents, ues, period, duration_s, sm, mode);
                eprintln!(
                    "  agents={agents} sm={} mode={}: {}/{} ind, {:.0} bytes/s, {} retunes",
                    p.sm, p.mode, p.indications, p.sent, p.bytes_per_s, p.retunes
                );
                rows.push(vec![
                    p.agents.to_string(),
                    p.sm.to_owned(),
                    p.mode.to_owned(),
                    p.sent.to_string(),
                    p.indications.to_string(),
                    format!("{:.0}", p.bytes_per_s),
                    p.decode_errors.to_string(),
                    p.resyncs.to_string(),
                    p.retunes.to_string(),
                ]);
                results.push(p);
            }
        }
    }
    table::table(
        &[
            "agents",
            "sm",
            "mode",
            "sent",
            "indications",
            "bytes_per_s",
            "decode_err",
            "resyncs",
            "retunes",
        ],
        &rows,
    );

    // Savings at the largest agent count, per SM encoding.
    let last = *agent_points.last().expect("at least one agent count");
    let mut savings = Vec::new();
    let mut short = false;
    for sm in sms.map(sm_name) {
        let bytes_of = |mode: &str| {
            results
                .iter()
                .find(|p| p.agents == last && p.sm == sm && p.mode == mode)
                .map_or(0.0, |p| p.bytes_per_s)
        };
        let ratio =
            |mode: &str| if bytes_of(mode) > 0.0 { bytes_of("full") / bytes_of(mode) } else { 0.0 };
        let (delta, adaptive) = (ratio("delta"), ratio("adaptive"));
        println!("savings at {last} agents, {sm}: delta {delta:.2}x, adaptive {adaptive:.2}x");
        short |= delta < require || adaptive < require;
        savings.push(json!({"sm_codec": sm, "delta_savings": delta, "adaptive_savings": adaptive}));
    }

    let doc = snapshot(
        "fig7b",
        "fig7b_monitoring_cost",
        "Full-stack A/B over the mem transport: dummy agents on the time-varying \
         quiet/active/burst KPI workload, monitoring iApp subscribed in each mode, FB E2AP, \
         SM in FB and in ASN.1 PER; bytes/s is SM payload bytes at the controller, \
         sent_indications what the agents sent in the same window.",
        json!({
            "transport": "mem",
            "e2ap_codec": "fb",
            "period_ms": period,
            "ues_per_agent": ues,
            "sms_per_agent": SMS_PER_AGENT,
            "window_s": duration_s,
            "savings_at_max_agents": savings,
        }),
        results
            .iter()
            .map(|p| {
                json!({
                    "agents": p.agents,
                    "sm_codec": p.sm,
                    "mode": p.mode,
                    "window_ms": p.window_ms,
                    "sent_indications": p.sent,
                    "indications": p.indications,
                    "sm_bytes": p.sm_bytes,
                    "bytes_per_s": p.bytes_per_s,
                    "decode_errors": p.decode_errors,
                    "resyncs": p.resyncs,
                    "retunes": p.retunes,
                })
            })
            .collect(),
    );
    write_snapshot(&out, &doc);
    if require > 0.0 && short {
        eprintln!("FAIL: required ≥ {require:.1}x savings of delta and adaptive in each SM codec");
        std::process::exit(1);
    }
}
