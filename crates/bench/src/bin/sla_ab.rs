//! Component SLA closed-loop A/B: the scenario engine, the simulator and
//! the solver with no transport or server in between (`fig_sla_scenario`
//! is the full-stack run).
//!
//! Per preset the same seeded scenario runs twice — open loop (static
//! NVS shares) and closed loop (sla_solver re-solving every eval
//! period, applied through the same `SliceCtrl::AddModSlices` path the
//! SC SM control plane uses).  The scenario trace is hash-checked
//! identical across arms, making the violation-seconds comparison
//! paired.  Emits BENCH_sla.json-schema JSON on stdout and exits
//! non-zero if the closed loop fails to reduce violation time on any
//! preset.

use std::collections::{BTreeMap, HashMap};

use flexric_ctrl::sla_solver::{resolve, violated, SlaTarget, SliceObs, SolverCfg};
use flexric_ransim::{ScenarioEngine, ScenarioSpec, Sim};
use flexric_sm::slice::{SliceCtrl, SliceParams, SliceStatsInd};

const DUR_MS: u64 = 30_000;
const EVAL_MS: u64 = 100;
const SEED: u64 = 7;

/// Same SLOs as the full-stack bench: voip bounded delay, web bounded
/// delay + throughput floor, mbb objective-free (the donor).
fn targets() -> Vec<SlaTarget> {
    vec![
        SlaTarget { slice: 0, thr_kbps_min: 0.0, delay_ms_max: 8.0, floor_milli: 100 },
        SlaTarget { slice: 1, thr_kbps_min: 2_000.0, delay_ms_max: 40.0, floor_milli: 100 },
        SlaTarget { slice: 2, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 100 },
    ]
}

/// Builds solver observations from one cell's windowed slice + RLC
/// statistics (the in-process equivalent of `ctrl::sla::observations`,
/// which joins the same rows out of the monitoring store).
fn observe(stats: &SliceStatsInd, rlc: &flexric_sm::rlc::RlcStatsInd) -> Vec<SliceObs> {
    let slice_of: HashMap<u16, u32> = stats.ue_assoc.iter().copied().collect();
    let mut delay: HashMap<u32, (u64, u64)> = HashMap::new();
    for b in &rlc.bearers {
        if let Some(&sl) = slice_of.get(&b.rnti) {
            let e = delay.entry(sl).or_insert((0, 0));
            e.0 += b.sojourn_us_avg;
            e.1 += 1;
        }
    }
    stats
        .slices
        .iter()
        .filter_map(|s| {
            let SliceParams::NvsCapacity { share_milli } = s.conf.params else { return None };
            let d = delay
                .get(&s.conf.id)
                .map(|&(us, n)| us as f64 / if n == 0 { 1.0 } else { n as f64 } / 1000.0)
                .unwrap_or(0.0);
            Some(SliceObs {
                slice: s.conf.id,
                share_milli,
                thr_kbps: s.thr_kbps as f64,
                delay_ms: d,
                num_ues: s.num_ues,
            })
        })
        .collect()
}

struct Arm {
    violation_ms: BTreeMap<u32, u64>,
    pushes: u64,
    trace_hash: u64,
    handovers: u64,
    arrivals: u64,
    departures: u64,
    outages: u64,
}

fn run_arm(preset: &str, closed: bool) -> Arm {
    let spec = ScenarioSpec::preset(preset, SEED).expect("preset");
    let mut eng = ScenarioEngine::new(spec);
    let mut sim: Sim = eng.build_sim();
    eng.prime(&mut sim);
    let targets = targets();
    let solver = SolverCfg::default();
    let mut violation_ms: BTreeMap<u32, u64> = BTreeMap::new();
    let mut pushes = 0u64;

    for t in 1..=DUR_MS {
        sim.tick();
        eng.advance(&mut sim);
        if t % EVAL_MS != 0 {
            continue;
        }
        for ci in 0..sim.cells.len() {
            if eng.cell_down(ci) {
                continue; // dark cell: no monitoring rows, no control
            }
            let stats = sim.cells[ci].slice_stats();
            let rlc = sim.cells[ci].rlc_stats();
            let obs = observe(&stats, &rlc);
            for tg in &targets {
                if let Some(o) = obs.iter().find(|o| o.slice == tg.slice) {
                    if violated(tg, o) {
                        *violation_ms.entry(tg.slice).or_insert(0) += EVAL_MS;
                    }
                }
            }
            if !closed {
                continue;
            }
            if let Some(shares) = resolve(&targets, &obs, &solver) {
                let slices = stats
                    .slices
                    .iter()
                    .filter_map(|s| {
                        let (_, share) = shares.iter().find(|&&(id, _)| id == s.conf.id)?;
                        let mut conf = s.conf.clone();
                        conf.params = SliceParams::NvsCapacity { share_milli: *share };
                        Some(conf)
                    })
                    .collect::<Vec<_>>();
                sim.cells[ci]
                    .apply_slice_ctrl(&SliceCtrl::AddModSlices { slices })
                    .expect("solver respects the NVS budget");
                pushes += 1;
            }
        }
    }
    Arm {
        violation_ms,
        pushes,
        trace_hash: eng.trace_hash(),
        handovers: eng.stats.handovers,
        arrivals: eng.stats.arrivals,
        departures: eng.stats.departures,
        outages: eng.stats.outages,
    }
}

fn total(m: &BTreeMap<u32, u64>) -> u64 {
    m.values().sum()
}

fn by_slice_json(m: &BTreeMap<u32, u64>) -> String {
    let inner: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", inner.join(", "))
}

fn main() {
    let mut points = Vec::new();
    let mut ok = true;
    for preset in ["commuter-rush", "flash-crowd"] {
        let open = run_arm(preset, false);
        let closed = run_arm(preset, true);
        assert_eq!(
            open.trace_hash, closed.trace_hash,
            "scenario trace must be control-independent (paired A/B)"
        );
        let (o_s, c_s) =
            (total(&open.violation_ms) as f64 / 1e3, total(&closed.violation_ms) as f64 / 1e3);
        eprintln!(
            "{preset}: open {o_s:.1} viol-s, closed {c_s:.1} viol-s ({} pushes, {} handovers, {} outages)",
            closed.pushes, open.handovers, open.outages
        );
        ok &= c_s < o_s;
        for (name, arm) in [("open", &open), ("closed", &closed)] {
            points.push(format!(
                "    {{\"preset\": \"{preset}\", \"loop\": \"{name}\", \"virtual_ms\": {DUR_MS}, \
                 \"violation_s\": {:.3}, \"violation_ms_by_slice\": {}, \"pushes\": {}, \
                 \"handovers\": {}, \"arrivals\": {}, \"departures\": {}, \"outages\": {}, \
                 \"trace_hash\": \"{:016x}\"}}",
                total(&arm.violation_ms) as f64 / 1e3,
                by_slice_json(&arm.violation_ms),
                arm.pushes,
                arm.handovers,
                arm.arrivals,
                arm.departures,
                arm.outages,
                arm.trace_hash,
            ));
        }
    }
    println!("{{");
    println!("  \"bench\": \"sla_scenario\",");
    println!(
        "  \"source\": \"cargo run --release -p flexric-bench --bin sla_ab (scenario engine + simulator + solver, no transport)\","
    );
    println!("  \"status\": \"measured-offline-components\",");
    println!(
        "  \"note\": \"Component run, no transport or server (fig_sla_scenario is the full-stack mem-transport A/B): paired runs of the scenario engine (mobility + churn + outages, seed {SEED}, trace hash-checked identical across arms) over the NVS-scheduled simulator, with sla_solver re-solving shares every {EVAL_MS} virtual ms in the closed arm through the same SliceCtrl::AddModSlices path the SC SM uses. Only the E2 transport/server hop is elided. `cargo run --release -p flexric-bench --bin fig_sla_scenario` overwrites this file with end-to-end points (same --out flag and schema).\","
    );
    println!("  \"points\": [");
    println!("{}", points.join(",\n"));
    println!("  ]");
    println!("}}");
    if !ok {
        eprintln!("FAIL: closed loop did not reduce SLA-violation time on every preset");
        std::process::exit(1);
    }
}
