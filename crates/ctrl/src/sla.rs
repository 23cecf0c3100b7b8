//! Closed-loop SLA enforcement: an xApp that keeps per-slice service
//! levels by continuously re-solving NVS capacity shares.
//!
//! The loop closes through existing machinery only — it reads per-slice
//! throughput from the monitoring store's `SliceStatsInd` rows and
//! per-bearer delay from the RLC rows ([`crate::monitoring::StatsDb`]),
//! re-solves the share vector with [`crate::sla_solver`], and pushes
//! `SliceCtrl::AddModSlices` through the same SC SM control path the
//! REST slicing controller uses (§6.1.2).  The SM is resolved through
//! the plugin registry, so the iApp touches zero core code and keeps
//! working across SC SM versions.
//!
//! Indications are dispatched to the iApp that owns the subscription —
//! the monitor — so this iApp never sees them directly: it samples the
//! shared store from the server tick (and on [`poll`], which benches
//! call at a fixed virtual cadence).  Evaluation cadence is keyed on
//! the *virtual* `tstamp_ms` carried by the slice indication, not the
//! wall clock: under the scenario engine a 60 s run executes in
//! milliseconds, and violation-seconds accounting must follow simulated
//! time for open-loop vs closed-loop comparisons to be fair.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::server::{AgentId, AgentInfo, CtrlOutcome, IApp, ServerApi, ServerHandle};
use flexric_e2ap::ControlAckRequest;
use flexric_sm::registry::SmDescriptor;
use flexric_sm::rlc::RlcStatsInd;
use flexric_sm::slice::{SliceCtrl, SliceParams, SliceStatsInd};
use flexric_sm::{oid, SmCodec, SmPayload};

use crate::monitoring::StatsDb;
use crate::sla_solver::{self, SlaTarget, SliceObs, SolverCfg};

/// Configuration of the SLA enforcement iApp.
pub struct SlaConfig {
    /// SM codec for control encoding.
    pub sm_codec: SmCodec,
    /// The service-level objectives to enforce.
    pub targets: Vec<SlaTarget>,
    /// Minimum virtual-time distance between evaluations per agent, ms.
    pub eval_every_ms: u64,
    /// Solver knobs.
    pub solver: SolverCfg,
    /// `true` closes the loop (re-solve + push); `false` runs open-loop:
    /// violations are accounted but shares are left alone — the A/B
    /// baseline of the `fig_sla_scenario` experiment.
    pub enabled: bool,
    /// The monitoring store to read KPIs from (share it with a
    /// [`crate::monitoring::MonitorApp`] configured with `slice: true`).
    pub store: Arc<Mutex<StatsDb>>,
}

impl SlaConfig {
    /// Open-/closed-loop config over `store` with the given targets.
    pub fn new(store: Arc<Mutex<StatsDb>>, targets: Vec<SlaTarget>, enabled: bool) -> Self {
        SlaConfig {
            sm_codec: SmCodec::Flatb,
            targets,
            eval_every_ms: 100,
            solver: SolverCfg::default(),
            enabled,
            store,
        }
    }
}

/// Running totals of the SLA loop, kept by the [`SlaApp`] and read with
/// [`poll`].
#[derive(Debug, Default, Clone)]
pub struct SlaLedger {
    /// Violation time per slice id, *virtual* milliseconds.
    pub violation_ms: BTreeMap<u32, u64>,
    /// Evaluations performed.
    pub evals: u64,
    /// Share vectors pushed (closed loop only).
    pub pushes: u64,
    /// Control acknowledgements received.
    pub acks: u64,
    /// Control failures (nack / timeout / connection lost).
    pub failures: u64,
}

impl SlaLedger {
    /// Total violation time across slices, virtual milliseconds.
    pub fn total_violation_ms(&self) -> u64 {
        self.violation_ms.values().sum()
    }
}

/// Has the [`SlaApp`] of `server` evaluate every tracked agent now and
/// returns its ledger: benches flush accounting at a deterministic point
/// with it instead of waiting for the next tick.
pub fn poll(server: &ServerHandle) -> io::Result<SlaLedger> {
    server.call(|sla: &mut SlaApp, api| sla.poll(api))
}

/// Obs series of the SLA loop.
struct SlaObs {
    resolve_ns: flexric_obs::Histogram,
    violations: Mutex<HashMap<u32, flexric_obs::Counter>>,
}

fn obs() -> &'static SlaObs {
    static OBS: std::sync::OnceLock<SlaObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SlaObs {
        resolve_ns: flexric_obs::histogram(
            "flexric_sla_resolve_ns",
            "Wall time of one SLA share re-solve; sampled: 1 call in 16 timed",
        ),
        violations: Mutex::new(HashMap::new()),
    })
}

fn violation_counter(slice: u32) -> flexric_obs::Counter {
    let mut map = obs().violations.lock().expect("lock poisoned");
    map.entry(slice)
        .or_insert_with(|| {
            let label: &'static str = Box::leak(slice.to_string().into_boxed_str());
            flexric_obs::counter_with(
                "flexric_sla_violations_total",
                &[("slice", label)],
                "Virtual milliseconds a slice spent violating its SLA",
            )
        })
        .clone()
}

/// Builds solver observations from the monitoring rows of one agent:
/// throughput and share from the slice indication, delay from the RLC
/// bearers mapped through the UE association table.  Pure — unit-tested
/// without a server.
pub fn observations(stats: &SliceStatsInd, rlc: Option<&RlcStatsInd>) -> Vec<SliceObs> {
    let slice_of: HashMap<u16, u32> = stats.ue_assoc.iter().copied().collect();
    let mut delay_sum: HashMap<u32, (u64, u64)> = HashMap::new(); // slice -> (Σus, n)
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

/// The SLA enforcement iApp.
pub struct SlaApp {
    cfg: SlaConfig,
    desc: Arc<SmDescriptor>,
    /// Per tracked agent, the virtual timestamp of its last evaluated
    /// slice indication.  Kept across an outage: the agent resumes with
    /// the same virtual clock, and replayed subscriptions refill the store
    /// — accounting continues where it stopped.  In id order: runs repeat.
    last_eval_ms: BTreeMap<AgentId, u64>,
    ledger: SlaLedger,
}

impl SlaApp {
    /// Creates the iApp.
    pub fn new(cfg: SlaConfig) -> Self {
        let desc =
            flexric_sm::registry::global().latest(oid::SLICE_CTRL).expect("bundled SM descriptor");
        SlaApp { cfg, desc, last_eval_ms: BTreeMap::new(), ledger: SlaLedger::default() }
    }

    /// Forces an evaluation pass over every tracked agent and returns the
    /// ledger.
    pub fn poll(&mut self, api: &mut ServerApi) -> SlaLedger {
        self.evaluate_all(api);
        self.ledger.clone()
    }

    fn evaluate_all(&mut self, api: &mut ServerApi) {
        let ids: Vec<AgentId> = self.last_eval_ms.keys().copied().collect();
        for id in ids {
            self.evaluate(api, id);
        }
    }

    /// One evaluation pass for `agent` if its slice row advanced far
    /// enough in virtual time.
    fn evaluate(&mut self, api: &mut ServerApi, agent: AgentId) {
        let (stats, rlc) = {
            let db = self.cfg.store.lock().expect("lock poisoned");
            let Some(any) = db.snapshot_any(agent, oid::SLICE_CTRL) else { return };
            let Ok(stats) = any.downcast::<SliceStatsInd>() else { return };
            (*stats, db.rlc(agent))
        };
        let last = self.last_eval_ms.entry(agent).or_default();
        if stats.tstamp_ms < *last + self.cfg.eval_every_ms {
            return;
        }
        let covered_ms = if *last == 0 { self.cfg.eval_every_ms } else { stats.tstamp_ms - *last };
        *last = stats.tstamp_ms;

        let observed = observations(&stats, rlc.as_ref());
        self.ledger.evals += 1;
        for t in &self.cfg.targets {
            if let Some(o) = observed.iter().find(|o| o.slice == t.slice) {
                if sla_solver::violated(t, o) {
                    *self.ledger.violation_ms.entry(t.slice).or_default() += covered_ms;
                    violation_counter(t.slice).add(covered_ms);
                }
            }
        }
        if !self.cfg.enabled {
            return;
        }

        let solved = {
            let _t = obs().resolve_ns.timer();
            sla_solver::resolve(&self.cfg.targets, &observed, &self.cfg.solver)
        };
        let Some(shares) = solved else { return };

        // Re-issue the observed configs with the new shares through the
        // registry-resolved SC SM.
        let Some(rf_id) = api
            .randb()
            .agent(agent)
            .and_then(|a| a.function_by_oid_compat(&self.desc.oid, self.desc.version.into()))
            .map(|f| f.id)
        else {
            return;
        };
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
        if slices.is_empty() {
            return;
        }
        let msg = Bytes::from(SliceCtrl::AddModSlices { slices }.encode(self.cfg.sm_codec));
        api.control(agent, rf_id, Bytes::new(), msg, Some(ControlAckRequest::Ack));
        self.ledger.pushes += 1;
    }
}

impl IApp for SlaApp {
    fn on_agent_connected(&mut self, _api: &mut ServerApi, agent: &AgentInfo) {
        // Monitoring owns the subscriptions; we only track loop state.
        self.last_eval_ms.entry(agent.id).or_default();
    }

    fn on_tick(&mut self, api: &mut ServerApi, _now_ms: u64) {
        // Indications route to the subscription's owner (the monitor),
        // so the loop samples the shared store here; the virtual-time
        // cadence check in `evaluate` sets the effective rate.
        self.evaluate_all(api);
    }

    fn on_control_outcome(&mut self, _api: &mut ServerApi, _agent: AgentId, out: &CtrlOutcome) {
        if matches!(out, CtrlOutcome::Ack(_)) {
            self.ledger.acks += 1;
        } else {
            self.ledger.failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_sm::rlc::RlcBearerStats;
    use flexric_sm::slice::{SliceAlgo, SliceConf, SliceStatus, UeSchedAlgo};

    fn stats() -> SliceStatsInd {
        let mk = |id: u32, share: u32, thr: u64, ues: u32| SliceStatus {
            conf: SliceConf {
                id,
                label: format!("s{id}"),
                params: SliceParams::NvsCapacity { share_milli: share },
                ue_sched: UeSchedAlgo::PropFair,
            },
            alloc_prbs: 50,
            thr_kbps: thr,
            num_ues: ues,
        };
        SliceStatsInd {
            tstamp_ms: 5_000,
            algo: SliceAlgo::Nvs,
            slices: vec![mk(0, 150, 400, 2), mk(1, 850, 30_000, 1)],
            ue_assoc: vec![(1, 0), (2, 0), (3, 1)],
        }
    }

    #[test]
    fn observations_join_slice_and_rlc_rows() {
        let rlc = RlcStatsInd {
            tstamp_ms: 5_000,
            bearers: vec![
                RlcBearerStats { rnti: 1, drb_id: 1, sojourn_us_avg: 30_000, ..Default::default() },
                RlcBearerStats { rnti: 2, drb_id: 1, sojourn_us_avg: 10_000, ..Default::default() },
                RlcBearerStats { rnti: 3, drb_id: 1, sojourn_us_avg: 2_000, ..Default::default() },
            ],
        };
        let obs = observations(&stats(), Some(&rlc));
        assert_eq!(obs.len(), 2);
        let s0 = obs.iter().find(|o| o.slice == 0).unwrap();
        assert_eq!(s0.share_milli, 150);
        assert!((s0.delay_ms - 20.0).abs() < 1e-9, "avg of 30ms and 10ms");
        assert_eq!(s0.num_ues, 2);
        let s1 = obs.iter().find(|o| o.slice == 1).unwrap();
        assert!((s1.delay_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn observations_without_rlc_default_delay_zero() {
        let obs = observations(&stats(), None);
        assert!(obs.iter().all(|o| o.delay_ms == 0.0));
    }

    #[test]
    fn solver_reallocates_from_observed_rows() {
        // Slice 1 is the objective-free donor: the solver only shrinks a
        // slice whose floor it was told.
        let targets = vec![
            SlaTarget { slice: 0, thr_kbps_min: 2_000.0, delay_ms_max: 0.0, floor_milli: 50 },
            SlaTarget { slice: 1, thr_kbps_min: 0.0, delay_ms_max: 0.0, floor_milli: 50 },
        ];
        let obs = observations(&stats(), None);
        let next = sla_solver::resolve(&targets, &obs, &SolverCfg::default())
            .expect("slice 0 misses its floor");
        assert!(next.iter().find(|&&(id, _)| id == 0).unwrap().1 > 150);
    }
}
