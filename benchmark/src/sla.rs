//! `sla-loop`: the closed SLA loop over scenario-driven cells.
//!
//! Per episode a `ScenarioEngine` drives a real `Sim`; every cell's agent
//! reports MAC, RLC and slice status every `report_ms`; every `eval_ms`
//! the controller reads the stored rows back, evaluates the SLA targets,
//! re-solves the NVS shares with `sla_solver::resolve` and pushes them
//! through the `ctrl-storm` control path.  The engine-only open arm runs at
//! set-up and gives the reference `trace_hash` the closed arm must match.

use std::collections::HashMap;

use flexric_codec::E2apCodec;
use flexric_ctrl::sla_solver::{resolve, violated, SlaTarget, SliceObs, SolverCfg};
use flexric_e2ap::RicRequestId;
use flexric_ransim::{ScenarioEngine, ScenarioSpec, Sim};
use flexric_sm::slice::{SliceConf, SliceParams, SliceStatsInd};
use flexric_sm::{
    mac::MacStatsInd, oid, rlc::RlcStatsInd, DeltaStreams, ReportMode, SmCodec, SmPayload,
};

use crate::block::{mix, BlockOut, Round, Serial};
use crate::glue::{report, report_plain, Controller, Counts, CtrlId, KeySched, SubInfo};
use crate::storm::{check_conservation, push_slices, CellAgent, Pushed};
use crate::trace::{span, Tracer, L};

#[derive(Clone, Copy, Debug)]
pub struct SlaCfg {
    /// Episodes per block: `seeds` seeds derived from `--seed`, each run
    /// on every preset.
    pub seeds: u64,
    pub presets: &'static [&'static str],
    pub virtual_ms: u64,
    pub report_ms: u64,
    pub eval_ms: u64,
    pub e2ap: E2apCodec,
    pub sm: SmCodec,
}

/// The SLOs of `fig_sla_scenario`: voip bounded delay, web bounded delay
/// and a throughput floor, mbb objective-free (the donor).
fn targets() -> Vec<SlaTarget> {
    vec![
        SlaTarget { slice: 0, thr_kbps_min: 0.0, delay_ms_max: 8.0, floor_milli: 100 },
        SlaTarget { slice: 1, thr_kbps_min: 2_000.0, delay_ms_max: 40.0, floor_milli: 100 },
        SlaTarget { slice: 2, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 100 },
    ]
}

/// `ctrl::sla::observations`: throughput and share from the slice row,
/// delay from the RLC bearers through the UE association.
fn observations(stats: &SliceStatsInd, rlc: Option<&RlcStatsInd>) -> Vec<SliceObs> {
    let slice_of: HashMap<u16, u32> = stats.ue_assoc.iter().copied().collect();
    let mut delay_sum: HashMap<u32, (u64, u64)> = HashMap::new();
    if let Some(r) = rlc {
        for b in &r.bearers {
            if let Some(&sl) = slice_of.get(&b.rnti) {
                let e = delay_sum.entry(sl).or_default();
                e.0 += b.sojourn_us_avg;
                e.1 += 1;
            }
        }
    }
    stats
        .slices
        .iter()
        .filter_map(|s| {
            let SliceParams::NvsCapacity { share_milli } = s.conf.params else { return None };
            let delay_ms = delay_sum
                .get(&s.conf.id)
                .map(|&(us, n)| us as f64 / n.max(1) as f64 / 1000.0)
                .unwrap_or(0.0);
            Some(SliceObs {
                slice: s.conf.id,
                share_milli,
                thr_kbps: s.thr_kbps as f64,
                delay_ms,
                num_ues: s.num_ues,
            })
        })
        .collect()
}

/// The preset without on/off ("bursty") UEs.  `ScenarioEngine::step_traffic`
/// walks its UE `HashMap` and draws the next toggle time from the engine's
/// RNG as it goes, so when two bursty UEs toggle in the same millisecond
/// the trace depends on the map's per-instance hash seed: two engines on
/// one seed diverge, usually within 30 virtual s.  This benchmark's
/// block-repeat check found it; until it is fixed the bursty weight goes to
/// the greedy profile, and the slice list is reordered so that greedy UEs
/// land in `web` — the slice with a throughput floor and a delay bound —
/// and `mbb` is the empty donor.  Arrivals, mobility, handover and outages
/// are the preset's.
fn deterministic(mut spec: ScenarioSpec) -> ScenarioSpec {
    let w = &mut spec.churn.profile_weights;
    *w = [w[0], 0, w[1] + w[2]];
    spec.slices.swap(1, 2);
    spec
}

type Streams<T> = DeltaStreams<(CtrlId, RicRequestId), T>;

/// The agent of one scenario cell: the three statistics functions.
struct Node {
    agent: CellAgent,
    mac: Streams<MacStatsInd>,
    rlc: Streams<RlcStatsInd>,
    sched: [KeySched; 2],
    mac_sub: SubInfo,
    rlc_sub: SubInfo,
    mac_snap: Option<MacStatsInd>,
    rlc_snap: Option<RlcStatsInd>,
}

struct Episode {
    spec: ScenarioSpec,
    ref_hash: u64,
}

pub struct Sla {
    cfg: SlaCfg,
    episodes: Vec<Episode>,
}

impl Sla {
    /// Runs the open arm of every episode: engine and simulator only.
    pub fn new(cfg: SlaCfg, seed: u64, _tr: &mut Tracer) -> Self {
        let episodes = (0..cfg.seeds)
            .flat_map(|k| cfg.presets.iter().map(move |preset| (k, preset)))
            .map(|(k, preset)| {
                let spec = ScenarioSpec::preset(preset, mix(seed, k)).expect("known preset");
                let spec = deterministic(spec);
                let mut eng = ScenarioEngine::new(spec.clone());
                let mut sim = eng.build_sim();
                eng.prime(&mut sim);
                for _ in 0..cfg.virtual_ms {
                    sim.tick();
                    eng.advance(&mut sim);
                }
                Episode { spec, ref_hash: eng.trace_hash() }
            })
            .collect();
        Sla { cfg, episodes }
    }

    fn closed_arm(&self, ep: &Episode, tr: &mut Tracer, out: &mut BlockOut) {
        let cfg = self.cfg;
        let reg = flexric_sm::registry::global();
        let mut eng = ScenarioEngine::new(ep.spec.clone());
        let mut sim: Sim = eng.build_sim();
        eng.prime(&mut sim);
        let cells = sim.cells.len();
        let mut ctrl = Controller::new(cfg.e2ap, cfg.sm, false, cells);
        let mut nodes: Vec<Node> = (0..cells)
            .map(|i| Node {
                agent: CellAgent::new(i, cfg.e2ap, &mut ctrl),
                mac: DeltaStreams::new(),
                rlc: DeltaStreams::new(),
                sched: Default::default(),
                mac_sub: ctrl.subscribe(i, reg.latest(oid::MAC_STATS).expect("bundled SM")),
                rlc_sub: ctrl.subscribe(i, reg.latest(oid::RLC_STATS).expect("bundled SM")),
                mac_snap: None,
                rlc_snap: None,
            })
            .collect();
        let (targets, solver) = (targets(), SolverCfg::default());
        let c = &mut out.counts;
        let mut ts = Round::default();

        for t in 1..=cfg.virtual_ms {
            tr.sample(0, t);
            let t0 = tr.now();
            let st = tr.begin(L::StageSim);
            let s = tr.begin(L::SimTick);
            sim.tick();
            tr.end(s);
            tr.set_units(s, cells as u32);
            span!(tr, L::ScenarioAdvance, eng.advance(&mut sim));
            tr.end(st);
            ts.wall_ns += tr.now() - t0;
            if t % cfg.report_ms != 0 {
                continue;
            }
            let round = t / cfg.report_ms;
            let (opp0, stored0, busy0) =
                (c.opportunities, c.stored, ts.agent_busy_ns + ts.ctrl_busy_ns);

            for (i, n) in nodes.iter_mut().enumerate() {
                if eng.cell_down(i) {
                    continue; // dark cell: no rows, no control
                }
                tr.sample(i, round);
                let cell = &mut sim.cells[i];
                let a = &mut n.agent;
                let t0 = tr.now();
                let st = tr.begin(L::StageAgent);
                let s = tr.begin(L::StatsRead);
                let (mac, rlc, slice) = (cell.mac_stats(), cell.rlc_stats(), cell.slice_stats());
                tr.end(s);
                tr.set_units(s, 3);
                let full = ReportMode::Full;
                report(
                    &mut n.mac,
                    &mut n.sched[0],
                    &n.mac_sub,
                    full,
                    &mac,
                    cfg.sm,
                    &mut a.tx,
                    tr,
                    c,
                );
                report(
                    &mut n.rlc,
                    &mut n.sched[1],
                    &n.rlc_sub,
                    full,
                    &rlc,
                    cfg.sm,
                    &mut a.tx,
                    tr,
                    c,
                );
                report_plain(&a.slice_sub, &slice, cfg.sm, &mut a.tx, tr, c);
                a.tx.flush(tr, c);
                tr.end(st);
                a.busy_ns = tr.now() - t0;
                ts.agent_busy_ns += a.busy_ns;
                (n.mac_snap, n.rlc_snap, a.slice_snap) = (Some(mac), Some(rlc), Some(slice));
            }
            ts.opportunities += c.opportunities - opp0;

            ctrl.now_ms = t;
            let mut q = Serial::default();
            for (i, n) in nodes.iter_mut().enumerate() {
                let a = &mut n.agent;
                if a.tx.up.is_empty() {
                    continue;
                }
                let before = c.stored;
                let busy = ctrl.ingest_timed(L::StageCtrl, i, round, &mut a.tx.up, tr, c);
                ts.ctrl_busy_ns += busy;
                a.age_ns = q.serve(a.busy_ns, busy);
                for _ in before..c.stored {
                    out.age_ns.push(a.age_ns as u32);
                }
            }
            ts.stored += c.stored - stored0;
            ts.wall_ns += ts.agent_busy_ns + ts.ctrl_busy_ns - busy0;
            for (i, n) in nodes.iter_mut().enumerate() {
                check_row(&ctrl, i, oid::MAC_STATS, n.mac_snap.take(), c);
                check_row(&ctrl, i, oid::RLC_STATS, n.rlc_snap.take(), c);
                if let Some(l) = n.agent.check_slice_report(i, &ctrl, c) {
                    out.loop_ns.push(l as u32);
                }
            }
            if t % cfg.eval_ms != 0 {
                continue;
            }

            // `SlaApp::evaluate` per live cell, then the control round trip.
            let t0 = tr.now();
            ctrl.tick_procedures(tr, c);
            let poll = tr.now() - t0;
            q.serve(0, poll);
            ts.wall_ns += poll;
            let mut left_at = vec![0u64; cells];
            for (i, n) in nodes.iter_mut().enumerate() {
                if eng.cell_down(i) {
                    continue;
                }
                tr.sample(i, round);
                let decided_at = q.free_at;
                let t0 = tr.now();
                let st = tr.begin(L::StageDecide);
                let pushed = evaluate(&mut ctrl, i, &targets, &solver, cfg.eval_ms, tr, c);
                tr.end(st);
                let busy = tr.now() - t0;
                ts.wall_ns += busy;
                left_at[i] = q.serve(0, busy);
                if let Some(slices) = pushed {
                    n.agent.pushed = Some(Pushed { slices, decided_at, acked_at: None });
                }
            }
            for (i, n) in nodes.iter_mut().enumerate() {
                if !ctrl.down[i].is_empty() {
                    ts.wall_ns +=
                        n.agent.apply_controls(i, round, &mut sim.cells[i], &mut ctrl, tr, c);
                }
            }
            for (i, n) in nodes.iter_mut().enumerate() {
                if !n.agent.tx.up.is_empty() {
                    ts.wall_ns +=
                        n.agent.return_ack(i, round, left_at[i], &mut q, &mut ctrl, tr, c);
                }
            }
            out.rounds.push(std::mem::take(&mut ts));
        }

        c.attempted += 1;
        if eng.trace_hash() != ep.ref_hash {
            c.fail("scenario trace differs between the open and the closed arm");
        }
        if !ctrl.endpoint.table.is_empty() {
            c.fail("procedures still outstanding at the end of the episode");
        }
    }

    /// Runs the block's timed work; `out` comes in empty.
    pub fn run(&mut self, tr: &mut Tracer, out: &mut BlockOut) {
        for ep in &self.episodes {
            self.closed_arm(ep, tr, out);
        }
        check_conservation(&mut out.counts);
    }
}

fn check_row<T: SmPayload>(
    ctrl: &Controller,
    agent: usize,
    oid: &str,
    snap: Option<T>,
    c: &mut Counts,
) {
    let Some(snap) = snap else { return };
    let db = ctrl.db.lock().expect("single thread");
    if db.raw(agent, oid).map(|b| &b[..]) != Some(&snap.encode(ctrl.sm_codec)[..]) {
        c.fail("store differs from the re-encoded cell snapshot");
    }
}

/// `SlaApp::evaluate`: rows out of the store, violations into the ledger,
/// a push if the solver moves a share.
fn evaluate(
    ctrl: &mut Controller,
    agent: usize,
    targets: &[SlaTarget],
    solver: &SolverCfg,
    covered_ms: u64,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Option<Vec<SliceConf>> {
    let (stats, rlc) = {
        let db = ctrl.db.lock().expect("single thread");
        let desc = flexric_sm::registry::global().latest(oid::SLICE_CTRL)?;
        let raw = db.raw(agent, oid::SLICE_CTRL)?;
        let any = span!(tr, L::SmDecode, desc.decode_indication(ctrl.sm_codec, raw)).ok()?;
        let stats = any.downcast::<SliceStatsInd>().ok()?;
        let rlc = db
            .raw(agent, oid::RLC_STATS)
            .and_then(|raw| span!(tr, L::SmDecode, RlcStatsInd::decode(ctrl.sm_codec, raw)).ok());
        (*stats, rlc)
    };
    let observed = span!(tr, L::Observe, observations(&stats, rlc.as_ref()));
    let s = tr.begin(L::Solve);
    for t in targets {
        if let Some(o) = observed.iter().find(|o| o.slice == t.slice) {
            if violated(t, o) {
                c.violation_ms += covered_ms;
            }
        }
    }
    let solved = resolve(targets, &observed, solver);
    tr.end(s);
    c.solves += 1;
    let Some(shares) = solved else {
        c.solve_noops += 1;
        return None;
    };
    let slices: Vec<SliceConf> = stats
        .slices
        .iter()
        .filter_map(|s| {
            let (_, share) = shares.iter().find(|&&(id, _)| id == s.conf.id)?;
            let mut conf = s.conf.clone();
            conf.params = SliceParams::NvsCapacity { share_milli: *share };
            Some(conf)
        })
        .collect();
    if slices.is_empty() {
        return None;
    }
    Some(push_slices(ctrl, agent, slices, tr, c))
}
