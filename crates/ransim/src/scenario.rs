//! Deterministic event-driven scenario engine over [`crate::sim::Sim`].
//!
//! The paper's experiments (and every robustness PR since) exercise a
//! *static* UE population; a RIC earns its keep reacting to a *moving*
//! one.  This module layers the three dynamics that matter on top of the
//! TTI simulator, all driven from one seedable xorshift64* PRNG and the
//! simulation's virtual clock — no wall-clock anywhere, so the same seed
//! reproduces the same event trace bit-for-bit:
//!
//! * **mobility** — a random-waypoint model over a linear cell layout
//!   with a log-distance path-loss proxy; an A3-style measurement rule
//!   (neighbor RSRP above serving by a hysteresis for a time-to-trigger)
//!   hands UEs over via [`Sim::handover`], which moves RLC queues and
//!   slice binding and emits RRC HandoverOut/In into the SM event path;
//!   link adaptation follows distance, so cell-edge UEs drag down slice
//!   throughput exactly the way an SLA controller must notice;
//! * **churn** — Poisson UE arrival/departure with a diurnal rate curve
//!   and per-UE traffic profiles (VoIP CBR, bursty on/off, greedy TCP)
//!   composed onto [`crate::traffic`] flows;
//! * **cell outage/recovery** — scheduled events that force the victims
//!   onto neighbor cells and tell the embedding layer (via the drained
//!   event stream) to drop the owning agent's transport, so the
//!   reconnect-grace + resubscribe-replay machinery gets a live workout.
//!
//! Like `kpi.rs`, this module avoids every dependency outside `std`,
//! `flexric-sm` and `flexric-obs`, so the offline harness compiles and
//! runs the whole crate (engine included) under bare `rustc`.

use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use crate::cell::{CellConfig, UeConfig};
use crate::phy::Rat;
use crate::sim::{PathConfig, Sim};
use crate::traffic::{FlowConfig, FlowKind};
use flexric_sm::slice::{SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};

// ---------------------------------------------------------------------------
// PRNG (xorshift64*, same recipe as kpi.rs — deliberately duplicated so
// both modules stay standalone-compilable)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer below `n`.
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// Exponential inter-event time with the given mean, in whole
    /// milliseconds, clamped to `[1, 50 * mean]` so one unlucky draw
    /// cannot stall a scenario.
    fn exp_ms(&mut self, mean_ms: u64) -> u64 {
        let mean = mean_ms.max(1) as f64;
        let u = self.unit().clamp(1e-12, 1.0 - 1e-12);
        ((-(1.0 - u).ln() * mean) as u64).clamp(1, mean_ms.max(1) * 50)
    }

    /// Weighted choice over `weights`; returns the index.
    fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|w| *w as u64).sum();
        if total == 0 {
            return 0;
        }
        let mut pick = self.below(total);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w as u64 {
                return i;
            }
            pick -= *w as u64;
        }
        weights.len() - 1
    }
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One scheduled cell outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageSpec {
    /// Virtual time the cell goes dark.
    pub at_ms: u64,
    /// Victim cell index.
    pub cell: usize,
    /// Outage duration; recovery is emitted at `at_ms + dur_ms`.
    pub dur_ms: u64,
}

/// One NVS capacity slice the scenario installs on every cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceSpec {
    /// Slice id.
    pub id: u32,
    /// Initial NVS capacity share, milli-units.
    pub share_milli: u32,
    /// Human label (also used by the SLA xApp's reports).
    pub label: String,
}

/// Random-waypoint mobility parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityCfg {
    /// Position/measurement update cadence (virtual ms).
    pub step_ms: u64,
    /// Minimum UE speed, m/s.
    pub speed_min_mps: f64,
    /// Maximum UE speed, m/s.
    pub speed_max_mps: f64,
    /// A3 hysteresis: neighbor must beat serving by this many dB.
    pub a3_hyst_db: f64,
    /// A3 time-to-trigger: the offset must hold this long.
    pub a3_ttt_ms: u64,
}

impl Default for MobilityCfg {
    fn default() -> Self {
        MobilityCfg {
            step_ms: 100,
            speed_min_mps: 1.0,
            speed_max_mps: 8.0,
            a3_hyst_db: 3.0,
            a3_ttt_ms: 300,
        }
    }
}

/// Poisson churn parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnCfg {
    /// Mean inter-arrival time at the base rate (virtual ms); 0 disables
    /// arrivals.
    pub arrival_mean_ms: u64,
    /// Mean UE lifetime (virtual ms).
    pub stay_mean_ms: u64,
    /// Attached-UE cap; arrivals beyond it are rejected (and counted).
    pub max_ues: usize,
    /// Relative weights of the [`TrafficProfile`]s (voip, bursty, greedy).
    pub profile_weights: [u32; 3],
    /// Diurnal curve: `(from_ms, permille)` steps scaling the arrival
    /// *rate* (2000 = twice the base rate).  Empty = flat.
    pub diurnal: Vec<(u64, u32)>,
}

impl Default for ChurnCfg {
    fn default() -> Self {
        ChurnCfg {
            arrival_mean_ms: 2_000,
            stay_mean_ms: 15_000,
            max_ues: 48,
            profile_weights: [2, 1, 1],
            diurnal: Vec::new(),
        }
    }
}

/// A declarative scenario description; build one from a preset or with
/// the struct-update syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (shows up in benches and traces).
    pub name: String,
    /// PRNG seed; same seed ⇒ identical event trace.
    pub seed: u64,
    /// Number of cells, laid out on a line.
    pub cells: usize,
    /// PRBs per cell (NR numerology).
    pub prbs: u32,
    /// Inter-site distance in meters.
    pub isd_m: f64,
    /// UEs attached at t = 0.
    pub initial_ues: usize,
    /// Slices installed on every cell (empty = no slicing).
    pub slices: Vec<SliceSpec>,
    /// Mobility model.
    pub mobility: MobilityCfg,
    /// Churn model.
    pub churn: ChurnCfg,
    /// Scheduled outages.
    pub outages: Vec<OutageSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "custom".to_owned(),
            seed: 1,
            cells: 2,
            prbs: 106,
            isd_m: 500.0,
            initial_ues: 6,
            slices: Vec::new(),
            mobility: MobilityCfg::default(),
            churn: ChurnCfg::default(),
            outages: Vec::new(),
        }
    }
}

/// The default three-slice layout used by the presets: VoIP, bursty web,
/// and best-effort greedy, with intentionally skewed initial shares so
/// an SLA loop has something to fix.
pub fn default_slices() -> Vec<SliceSpec> {
    vec![
        SliceSpec { id: 0, share_milli: 150, label: "voip".to_owned() },
        SliceSpec { id: 1, share_milli: 250, label: "web".to_owned() },
        SliceSpec { id: 2, share_milli: 600, label: "mbb".to_owned() },
    ]
}

impl ScenarioSpec {
    /// Quiet suburb: slow walkers, light churn, no outages.
    pub fn calm(seed: u64) -> Self {
        ScenarioSpec {
            name: "calm".to_owned(),
            seed,
            cells: 2,
            initial_ues: 8,
            slices: default_slices(),
            mobility: MobilityCfg { speed_min_mps: 0.5, speed_max_mps: 3.0, ..Default::default() },
            churn: ChurnCfg { arrival_mean_ms: 4_000, stay_mean_ms: 20_000, ..Default::default() },
            ..Default::default()
        }
    }

    /// Commuter rush: fast UEs streaming between cells while the arrival
    /// rate ramps up and back down — the load keeps shifting between
    /// cells and slices.
    pub fn commuter_rush(seed: u64) -> Self {
        ScenarioSpec {
            name: "commuter-rush".to_owned(),
            seed,
            cells: 3,
            initial_ues: 9,
            slices: default_slices(),
            mobility: MobilityCfg {
                speed_min_mps: 12.0,
                speed_max_mps: 28.0,
                a3_ttt_ms: 200,
                ..Default::default()
            },
            churn: ChurnCfg {
                arrival_mean_ms: 1_500,
                stay_mean_ms: 12_000,
                max_ues: 60,
                profile_weights: [3, 2, 2],
                diurnal: vec![(0, 400), (5_000, 1_200), (10_000, 2_500), (20_000, 1_000)],
            },
            ..Default::default()
        }
    }

    /// Flash crowd: a sudden arrival burst plus a mid-run cell outage
    /// that dumps one cell's UEs onto its neighbors.
    pub fn flash_crowd(seed: u64) -> Self {
        ScenarioSpec {
            name: "flash-crowd".to_owned(),
            seed,
            cells: 3,
            initial_ues: 6,
            slices: default_slices(),
            mobility: MobilityCfg { speed_min_mps: 1.0, speed_max_mps: 6.0, ..Default::default() },
            churn: ChurnCfg {
                arrival_mean_ms: 2_500,
                stay_mean_ms: 10_000,
                max_ues: 60,
                profile_weights: [1, 2, 3],
                diurnal: vec![(0, 500), (8_000, 4_000), (16_000, 900)],
            },
            outages: vec![OutageSpec { at_ms: 12_000, cell: 1, dur_ms: 4_000 }],
            ..Default::default()
        }
    }

    /// Resolves a preset by name.
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        match name {
            "calm" => Some(Self::calm(seed)),
            "commuter-rush" => Some(Self::commuter_rush(seed)),
            "flash-crowd" => Some(Self::flash_crowd(seed)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Events + traffic profiles
// ---------------------------------------------------------------------------

/// Per-UE traffic profile attached at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficProfile {
    /// G.711-like CBR VoIP (~69 kbit/s).
    Voip,
    /// On/off bursty CBR (~4.8 Mbit/s while on).
    Bursty,
    /// Greedy TCP (Cubic), takes whatever the slice gives it.
    Greedy,
}

impl TrafficProfile {
    fn of(idx: usize) -> TrafficProfile {
        match idx {
            0 => TrafficProfile::Voip,
            1 => TrafficProfile::Bursty,
            _ => TrafficProfile::Greedy,
        }
    }

    fn flow_kind(self) -> FlowKind {
        match self {
            TrafficProfile::Voip => FlowKind::Cbr { bytes: 172, interval_ms: 20 },
            TrafficProfile::Bursty => FlowKind::Cbr { bytes: 6_000, interval_ms: 10 },
            TrafficProfile::Greedy => FlowKind::GreedyTcp { mss: 1_500 },
        }
    }
}

/// One entry of the scenario's event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// A UE arrived and attached to `cell`.
    UeArrive {
        /// The UE.
        rnti: u16,
        /// Attach cell.
        cell: usize,
        /// Traffic profile it brings.
        profile: TrafficProfile,
    },
    /// A UE departed from `cell`.
    UeDepart {
        /// The UE.
        rnti: u16,
        /// Cell it left from.
        cell: usize,
    },
    /// An A3 (or outage-forced) handover moved a UE.
    Handover {
        /// The UE.
        rnti: u16,
        /// Source cell.
        from: usize,
        /// Target cell.
        to: usize,
        /// `true` when forced by an outage rather than A3.
        forced: bool,
    },
    /// A cell went dark; the embedding layer should drop the owning
    /// agent's transport (e.g. by stopping the agent).
    CellOutage {
        /// The victim.
        cell: usize,
    },
    /// An outaged cell came back; the owning agent should reconnect.
    CellRecover {
        /// The survivor.
        cell: usize,
    },
}

/// Counters the engine keeps alongside the trace (also mirrored into the
/// global obs registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Handover count (A3 + forced).
    pub handovers: u64,
    /// Arrivals admitted.
    pub arrivals: u64,
    /// Arrivals rejected by the `max_ues` cap.
    pub rejected: u64,
    /// Departures.
    pub departures: u64,
    /// Outages started.
    pub outages: u64,
}

struct ScenarioObs {
    handovers: flexric_obs::Counter,
    arrivals: flexric_obs::Counter,
    departures: flexric_obs::Counter,
    outages: flexric_obs::Counter,
}

fn obs() -> &'static ScenarioObs {
    static OBS: std::sync::OnceLock<ScenarioObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ScenarioObs {
        handovers: flexric_obs::counter(
            "flexric_scenario_handovers_total",
            "Handovers executed by the scenario engine (A3 + outage-forced)",
        ),
        arrivals: flexric_obs::counter_with(
            "flexric_scenario_churn_total",
            &[("dir", "arrive")],
            "Scenario churn events by direction",
        ),
        departures: flexric_obs::counter_with(
            "flexric_scenario_churn_total",
            &[("dir", "depart")],
            "Scenario churn events by direction",
        ),
        outages: flexric_obs::counter(
            "flexric_scenario_outages_total",
            "Cell outages injected by the scenario engine",
        ),
    })
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Reference transmit power for the RSRP proxy (dBm).
const TX_POWER_DBM: f64 = 30.0;

/// Log-distance path loss (3GPP urban-macro flavored):
/// `128.1 + 37.6 log10(d_km)`.
fn rsrp_dbm(dist_m: f64) -> f64 {
    let d_km = (dist_m.max(10.0)) / 1000.0;
    TX_POWER_DBM - (128.1 + 37.6 * d_km.log10())
}

/// Link adaptation: RSRP proxy → MCS (and a CQI to match).
fn mcs_of(rsrp: f64, rat: Rat) -> (u8, u8) {
    let mcs: u8 = if rsrp >= -78.0 {
        27
    } else if rsrp >= -84.0 {
        24
    } else if rsrp >= -90.0 {
        20
    } else if rsrp >= -96.0 {
        16
    } else if rsrp >= -102.0 {
        11
    } else if rsrp >= -108.0 {
        7
    } else {
        3
    };
    let mcs = match rat {
        Rat::Lte => mcs.min(28),
        Rat::Nr => mcs.min(27),
    };
    (mcs, (mcs / 2 + 1).min(15))
}

/// Per-UE mobility + bookkeeping state.
#[derive(Debug)]
struct UeState {
    x: f64,
    y: f64,
    wp_x: f64,
    wp_y: f64,
    speed_mps: f64,
    serving: usize,
    /// A3 condition start (per current best neighbor), if ongoing.
    a3_since: Option<(usize, u64)>,
    flow: usize,
    /// Bursty on/off toggle time (virtual ms), if the profile toggles.
    next_toggle_ms: Option<u64>,
    flow_on: bool,
}

/// The scenario engine.  Create it from a spec, [`ScenarioEngine::build_sim`]
/// the matching simulation, [`ScenarioEngine::prime`] the initial
/// population, then interleave `sim.tick()` with
/// [`ScenarioEngine::advance`].
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    rng: Rng,
    now_ms: u64,
    /// Ordered by RNTI: every walk over the population draws from `rng`
    /// or emits events, so its order is part of the trace.
    ues: BTreeMap<u16, UeState>,
    next_rnti: u16,
    next_arrival_ms: u64,
    /// `(depart_at, rnti)`, min-heap.
    departures: BinaryHeap<std::cmp::Reverse<(u64, u16)>>,
    /// Outage schedule, sorted by time; `next_outage` indexes into it.
    outages: Vec<OutageSpec>,
    next_outage: usize,
    /// `(recover_at, cell)`, min-heap.
    recoveries: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    down: Vec<bool>,
    trace: Vec<(u64, ScenarioEvent)>,
    drained: usize,
    /// Aggregate counters (also mirrored to obs).
    pub stats: ScenarioStats,
}

impl ScenarioEngine {
    /// Creates an engine (and registers its obs series).
    pub fn new(spec: ScenarioSpec) -> Self {
        let _ = obs();
        let mut outages = spec.outages.clone();
        outages.sort_by_key(|o| o.at_ms);
        let seed = spec.seed;
        let cells = spec.cells;
        let mut eng = ScenarioEngine {
            spec,
            rng: Rng::new(seed),
            now_ms: 0,
            ues: BTreeMap::new(),
            next_rnti: 0x4601,
            next_arrival_ms: 0,
            departures: BinaryHeap::new(),
            outages,
            next_outage: 0,
            recoveries: BinaryHeap::new(),
            down: vec![false; cells],
            trace: Vec::new(),
            drained: 0,
            stats: ScenarioStats::default(),
        };
        eng.next_arrival_ms = eng.sample_arrival(0);
        eng
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Builds the simulation matching the spec (cells on a line).
    pub fn build_sim(&self) -> Sim {
        let cfgs = (0..self.spec.cells)
            .map(|i| CellConfig::nr(&format!("cell{i}"), self.spec.prbs))
            .collect();
        Sim::new(cfgs, PathConfig::default())
    }

    /// Cell site x-coordinate (linear layout, y = 0).
    fn site_x(&self, cell: usize) -> f64 {
        self.spec.isd_m * (cell as f64 + 0.5)
    }

    fn rsrp_to(&self, cell: usize, x: f64, y: f64) -> f64 {
        let dx = x - self.site_x(cell);
        rsrp_dbm((dx * dx + y * y).sqrt())
    }

    /// Picks the next waypoint: the vicinity of a random site, so
    /// trajectories run along the cell line and cross A3 contours —
    /// uniform waypoints over the whole field would leave most UEs
    /// dithering mid-cell, never handing over within realistic stays.
    fn pick_waypoint(&mut self) -> (f64, f64) {
        let cell = self.rng.below(self.spec.cells as u64) as usize;
        let jitter = self.spec.isd_m / 4.0;
        let w = self.spec.isd_m * self.spec.cells as f64;
        let x = (self.site_x(cell) + self.rng.range(-jitter, jitter)).clamp(0.0, w);
        let y = self.rng.range(-self.spec.isd_m / 8.0, self.spec.isd_m / 8.0);
        (x, y)
    }

    /// Strongest *active* cell at a position, with its RSRP.
    fn best_cell(&self, x: f64, y: f64, exclude: Option<usize>) -> Option<(usize, f64)> {
        (0..self.spec.cells)
            .filter(|c| !self.down[*c] && Some(*c) != exclude)
            .map(|c| (c, self.rsrp_to(c, x, y)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Installs the spec's slices on every cell and attaches the initial
    /// UE population.  Call once, before the first tick.
    pub fn prime(&mut self, sim: &mut Sim) {
        if !self.spec.slices.is_empty() {
            let slices: Vec<SliceConf> = self
                .spec
                .slices
                .iter()
                .map(|s| SliceConf {
                    id: s.id,
                    label: s.label.clone(),
                    params: SliceParams::NvsCapacity { share_milli: s.share_milli },
                    ue_sched: UeSchedAlgo::PropFair,
                })
                .collect();
            for cell in &mut sim.cells {
                cell.apply_slice_ctrl(&SliceCtrl::SetAlgo {
                    algo: flexric_sm::slice::SliceAlgo::Nvs,
                })
                .expect("set NVS");
                cell.apply_slice_ctrl(&SliceCtrl::AddModSlices { slices: slices.clone() })
                    .expect("spec slices within budget");
            }
        }
        for _ in 0..self.spec.initial_ues {
            self.spawn_ue(sim, 0);
        }
    }

    /// Processes every scenario event due up to (and including) the
    /// simulation's current time.  Call after each `sim.tick()` (or a
    /// batch of ticks — the engine catches up).
    pub fn advance(&mut self, sim: &mut Sim) {
        let target = sim.now_ms();
        while self.now_ms < target {
            let t = self.now_ms;
            self.step_outages(sim, t);
            self.step_churn(sim, t);
            self.step_traffic(sim, t);
            if self.spec.mobility.step_ms > 0 && t.is_multiple_of(self.spec.mobility.step_ms) {
                self.step_mobility(sim, t);
            }
            self.now_ms += 1;
        }
    }

    /// Whether a cell is currently in outage.
    pub fn cell_down(&self, cell: usize) -> bool {
        self.down.get(cell).copied().unwrap_or(false)
    }

    /// Currently attached UE count.
    pub fn ue_count(&self) -> usize {
        self.ues.len()
    }

    /// Events emitted since the last drain (for the embedding layer —
    /// e.g. mapping outages onto agent transports).
    pub fn drain_events(&mut self) -> Vec<(u64, ScenarioEvent)> {
        let out = self.trace[self.drained..].to_vec();
        self.drained = self.trace.len();
        out
    }

    /// The full trace since engine creation.
    pub fn trace(&self) -> &[(u64, ScenarioEvent)] {
        &self.trace
    }

    /// FNV-1a hash over the full event trace; equal seeds must yield
    /// equal hashes (the determinism contract).
    pub fn trace_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (t, ev) in &self.trace {
            for b in format!("{t}:{ev:?};").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
        h
    }

    fn emit(&mut self, t: u64, ev: ScenarioEvent) {
        self.trace.push((t, ev));
    }

    // -- churn ----------------------------------------------------------

    /// Current diurnal rate multiplier in permille.
    fn rate_permille(&self, t: u64) -> u32 {
        let mut permille = 1_000;
        for (from, p) in &self.spec.churn.diurnal {
            if t >= *from {
                permille = *p;
            }
        }
        permille.max(1)
    }

    fn sample_arrival(&mut self, t: u64) -> u64 {
        if self.spec.churn.arrival_mean_ms == 0 {
            return u64::MAX;
        }
        let scaled = (self.spec.churn.arrival_mean_ms as u128 * 1_000
            / self.rate_permille(t) as u128)
            .max(1) as u64;
        t + self.rng.exp_ms(scaled)
    }

    fn spawn_ue(&mut self, sim: &mut Sim, t: u64) {
        if self.ues.len() >= self.spec.churn.max_ues {
            self.stats.rejected += 1;
            return;
        }
        let (w, h) = (self.spec.isd_m * self.spec.cells as f64, self.spec.isd_m / 2.0);
        let (x, y) = (self.rng.range(0.0, w), self.rng.range(-h, h));
        let Some((cell, rsrp)) = self.best_cell(x, y, None) else {
            self.stats.rejected += 1;
            return;
        };
        let rnti = self.next_rnti;
        self.next_rnti = self.next_rnti.wrapping_add(1).max(0x4601);
        let profile_idx = self.rng.weighted(&self.spec.churn.profile_weights);
        let profile = TrafficProfile::of(profile_idx);
        let (mcs, cqi) = mcs_of(rsrp, Rat::Nr);
        let slice = if self.spec.slices.is_empty() {
            None
        } else {
            Some(self.spec.slices[profile_idx % self.spec.slices.len()].id)
        };
        let mut cfg = UeConfig::new(rnti, mcs);
        cfg.cqi = cqi;
        cfg.snssai = slice;
        sim.attach_ue(cell, cfg);
        if let Some(slice) = slice {
            sim.cells[cell]
                .apply_slice_ctrl(&SliceCtrl::AssocUeSlice { assoc: vec![(rnti, slice)] })
                .expect("slice installed at prime");
        }
        let flow = sim.add_flow(FlowConfig {
            cell,
            rnti,
            drb: 1,
            kind: profile.flow_kind(),
            tuple: (0x0A00_0001, 0x0A01_0000 + rnti as u32, 1_000, 5_000 + profile_idx as u16, 17),
            start_ms: t,
            stop_ms: None,
        });
        let speed =
            self.rng.range(self.spec.mobility.speed_min_mps, self.spec.mobility.speed_max_mps);
        let (wp_x, wp_y) = self.pick_waypoint();
        let next_toggle =
            matches!(profile, TrafficProfile::Bursty).then(|| t + self.rng.exp_ms(800));
        self.ues.insert(
            rnti,
            UeState {
                x,
                y,
                wp_x,
                wp_y,
                speed_mps: speed.max(0.1),
                serving: cell,
                a3_since: None,
                flow,
                next_toggle_ms: next_toggle,
                flow_on: true,
            },
        );
        let depart_at = t + self.rng.exp_ms(self.spec.churn.stay_mean_ms);
        self.departures.push(std::cmp::Reverse((depart_at, rnti)));
        self.stats.arrivals += 1;
        obs().arrivals.inc();
        self.emit(t, ScenarioEvent::UeArrive { rnti, cell, profile });
    }

    fn step_churn(&mut self, sim: &mut Sim, t: u64) {
        while self.next_arrival_ms <= t {
            self.spawn_ue(sim, t);
            self.next_arrival_ms = self.sample_arrival(t);
        }
        while let Some(std::cmp::Reverse((at, rnti))) = self.departures.peek().copied() {
            if at > t {
                break;
            }
            self.departures.pop();
            let Some(st) = self.ues.remove(&rnti) else { continue };
            sim.set_flow_active(st.flow, false);
            sim.detach_ue(st.serving, rnti);
            self.stats.departures += 1;
            obs().departures.inc();
            self.emit(t, ScenarioEvent::UeDepart { rnti, cell: st.serving });
        }
    }

    // -- traffic --------------------------------------------------------

    fn step_traffic(&mut self, sim: &mut Sim, t: u64) {
        for st in self.ues.values_mut() {
            let Some(toggle_at) = st.next_toggle_ms else { continue };
            if toggle_at > t {
                continue;
            }
            st.flow_on = !st.flow_on;
            sim.set_flow_active(st.flow, st.flow_on);
            // On ~40 % duty cycle: 800 ms bursts, 1200 ms gaps.
            let mean = if st.flow_on { 800 } else { 1_200 };
            st.next_toggle_ms = Some(t + self.rng.exp_ms(mean));
        }
    }

    // -- mobility -------------------------------------------------------

    fn step_mobility(&mut self, sim: &mut Sim, t: u64) {
        let dt_s = self.spec.mobility.step_ms as f64 / 1_000.0;
        // The walk needs the rest of `self` (RNG, geometry, trace) beside
        // each UE: lend the population out for its duration.
        let mut ues = std::mem::take(&mut self.ues);
        for (&rnti, st) in ues.iter_mut() {
            // Move toward the waypoint; arrived UEs pick a new one.
            let (dx, dy) = (st.wp_x - st.x, st.wp_y - st.y);
            let dist = (dx * dx + dy * dy).sqrt();
            let step = st.speed_mps * dt_s;
            if dist <= step {
                st.x = st.wp_x;
                st.y = st.wp_y;
            } else {
                st.x += dx / dist * step;
                st.y += dy / dist * step;
            }
            if st.x == st.wp_x && st.y == st.wp_y {
                (st.wp_x, st.wp_y) = self.pick_waypoint();
            }
            let (x, y, serving) = (st.x, st.y, st.serving);
            // Link adaptation toward the serving cell.
            let serving_rsrp = self.rsrp_to(serving, x, y);
            let (mcs, cqi) = mcs_of(serving_rsrp, sim.cells[serving].cfg.rat);
            if let Some(ue) = sim.cells[serving].ues.iter_mut().find(|u| u.cfg.rnti == rnti) {
                ue.cfg.mcs = mcs;
                ue.cfg.cqi = cqi;
            }
            // A3 measurement rule against the best active neighbor.
            let Some((best, best_rsrp)) = self.best_cell(x, y, Some(serving)) else {
                continue;
            };
            let over = best_rsrp > serving_rsrp + self.spec.mobility.a3_hyst_db;
            if !over || self.down[serving] {
                st.a3_since = None;
                continue;
            }
            match st.a3_since {
                Some((cand, since)) if cand == best => {
                    if t.saturating_sub(since) >= self.spec.mobility.a3_ttt_ms {
                        st.a3_since = None;
                        st.serving = best;
                        sim.handover(rnti, serving, best).expect("UE tracked in serving cell");
                        self.stats.handovers += 1;
                        obs().handovers.inc();
                        self.emit(
                            t,
                            ScenarioEvent::Handover {
                                rnti,
                                from: serving,
                                to: best,
                                forced: false,
                            },
                        );
                    }
                }
                _ => st.a3_since = Some((best, t)),
            }
        }
        self.ues = ues;
    }

    // -- outages --------------------------------------------------------

    fn step_outages(&mut self, sim: &mut Sim, t: u64) {
        while let Some(std::cmp::Reverse((at, cell))) = self.recoveries.peek().copied() {
            if at > t {
                break;
            }
            self.recoveries.pop();
            self.down[cell] = false;
            self.emit(t, ScenarioEvent::CellRecover { cell });
        }
        while self.next_outage < self.outages.len() && self.outages[self.next_outage].at_ms <= t {
            let o = self.outages[self.next_outage];
            self.next_outage += 1;
            if o.cell >= self.spec.cells
                || self.down[o.cell]
                || self.down.iter().filter(|d| !**d).count() <= 1
            {
                // Never darken the last active cell (or a dead index).
                continue;
            }
            self.down[o.cell] = true;
            self.stats.outages += 1;
            obs().outages.inc();
            self.emit(t, ScenarioEvent::CellOutage { cell: o.cell });
            self.recoveries.push(std::cmp::Reverse((o.at_ms + o.dur_ms.max(1), o.cell)));
            // Coverage-triggered handover: victims flee to the strongest
            // surviving cell.
            let victims: Vec<u16> = self
                .ues
                .iter()
                .filter(|(_, st)| st.serving == o.cell)
                .map(|(rnti, _)| *rnti)
                .collect();
            for rnti in victims {
                let (x, y) = {
                    let st = &self.ues[&rnti];
                    (st.x, st.y)
                };
                let Some((target, _)) = self.best_cell(x, y, Some(o.cell)) else { continue };
                let st = self.ues.get_mut(&rnti).expect("present");
                st.serving = target;
                st.a3_since = None;
                sim.handover(rnti, o.cell, target).expect("UE tracked in outaged cell");
                self.stats.handovers += 1;
                obs().handovers.inc();
                self.emit(
                    t,
                    ScenarioEvent::Handover { rnti, from: o.cell, to: target, forced: true },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: ScenarioSpec, ms: u64) -> (ScenarioEngine, Sim) {
        let mut eng = ScenarioEngine::new(spec);
        let mut sim = eng.build_sim();
        eng.prime(&mut sim);
        for _ in 0..ms {
            sim.tick();
            eng.advance(&mut sim);
        }
        (eng, sim)
    }

    #[test]
    fn same_seed_same_trace() {
        let (a, _) = run(ScenarioSpec::commuter_rush(42), 8_000);
        let (b, _) = run(ScenarioSpec::commuter_rush(42), 8_000);
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace_hash(), b.trace_hash());
        assert!(!a.trace().is_empty(), "a rush scenario generates events");
    }

    #[test]
    fn different_seed_different_trace() {
        let (a, _) = run(ScenarioSpec::commuter_rush(1), 8_000);
        let (b, _) = run(ScenarioSpec::commuter_rush(2), 8_000);
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn ue_conservation_across_handovers() {
        let (eng, sim) = run(ScenarioSpec::commuter_rush(7), 10_000);
        let attached: usize = sim.cells.iter().map(|c| c.ues.len()).sum();
        assert_eq!(attached, eng.ue_count(), "engine and sim agree on the population");
        assert_eq!(
            attached as u64 + eng.stats.departures,
            eng.stats.arrivals,
            "arrivals = attached + departed (initial UEs count as arrivals)"
        );
        assert!(eng.stats.handovers > 0, "fast commuters hand over");
        // Every tracked UE is attached exactly where the engine thinks.
        for (rnti, st) in &eng.ues {
            assert!(
                sim.cells[st.serving].ues.iter().any(|u| u.cfg.rnti == *rnti),
                "UE {rnti:#x} tracked in cell {}",
                st.serving
            );
        }
    }

    #[test]
    fn poisson_interarrival_sanity() {
        let mut rng = Rng::new(99);
        let mean = 2_000u64;
        let n = 4_000;
        let total: u64 = (0..n).map(|_| rng.exp_ms(mean)).sum();
        let avg = total as f64 / n as f64;
        assert!((avg - mean as f64).abs() < mean as f64 * 0.1, "sample mean {avg:.0} vs {mean}");
    }

    #[test]
    fn outage_forces_handover_and_recovery() {
        let mut spec = ScenarioSpec::calm(5);
        spec.cells = 2;
        spec.initial_ues = 6;
        spec.churn.arrival_mean_ms = 0; // isolate the outage behavior
        spec.churn.stay_mean_ms = u64::MAX / 128; // nobody leaves
        spec.outages = vec![OutageSpec { at_ms: 1_000, cell: 0, dur_ms: 2_000 }];
        let (eng, sim) = run(spec, 4_000);
        assert_eq!(eng.stats.outages, 1);
        let outs: Vec<_> = eng
            .trace()
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::CellOutage { .. }))
            .collect();
        assert_eq!(outs.len(), 1);
        assert!(
            eng.trace()
                .iter()
                .any(|(t, e)| *t == 3_000 && matches!(e, ScenarioEvent::CellRecover { cell: 0 })),
            "recovery emitted at outage end"
        );
        // During the outage every UE fled cell 0; afterwards mobility may
        // bring some back, but conservation must hold throughout.
        let attached: usize = sim.cells.iter().map(|c| c.ues.len()).sum();
        assert_eq!(attached, 6);
        assert!(!eng.cell_down(0), "cell recovered by the end");
    }

    #[test]
    fn never_darkens_the_last_cell() {
        let mut spec = ScenarioSpec::calm(5);
        spec.cells = 2;
        spec.outages = vec![
            OutageSpec { at_ms: 100, cell: 0, dur_ms: 5_000 },
            OutageSpec { at_ms: 200, cell: 1, dur_ms: 5_000 },
        ];
        let (eng, _) = run(spec, 1_000);
        assert_eq!(eng.stats.outages, 1, "second outage would darken the last active cell");
    }

    #[test]
    fn slices_installed_and_ues_associated() {
        let (eng, mut sim) = run(ScenarioSpec::flash_crowd(3), 3_000);
        assert!(!eng.spec().slices.is_empty());
        for cell in &mut sim.cells {
            let st = cell.slice_stats();
            assert_eq!(st.slices.len(), 3, "spec slices installed on every cell");
        }
        let assoc: Vec<u32> =
            sim.cells.iter().flat_map(|c| c.ues.iter().map(|u| u.slice)).collect();
        assert!(assoc.iter().all(|s| *s != u32::MAX), "every scenario UE is slice-bound");
    }

    #[test]
    fn traffic_flows_and_moves_bytes() {
        let (eng, sim) = run(ScenarioSpec::commuter_rush(11), 6_000);
        let delivered: u64 = (0..sim.flow_count()).map(|f| sim.flow(f).delivered_bytes).sum();
        assert!(delivered > 1_000_000, "scenario traffic moves data, got {delivered}");
        assert!(eng.stats.arrivals >= eng.spec().initial_ues as u64);
    }

    #[test]
    fn diurnal_curve_shifts_arrival_rate() {
        let mut quiet = ScenarioSpec::calm(17);
        quiet.initial_ues = 0; // prime() counts initial UEs as arrivals
        quiet.churn.arrival_mean_ms = 1_000;
        quiet.churn.diurnal = vec![(0, 200)]; // 0.2× base rate
        quiet.churn.max_ues = 1_000;
        quiet.churn.stay_mean_ms = u64::MAX / 128;
        let mut busy = quiet.clone();
        busy.churn.diurnal = vec![(0, 3_000)]; // 3× base rate
        let (q, _) = run(quiet, 10_000);
        let (b, _) = run(busy, 10_000);
        assert!(
            b.stats.arrivals > q.stats.arrivals * 4,
            "3× vs 0.2× rate must differ sharply: {} vs {}",
            b.stats.arrivals,
            q.stats.arrivals
        );
    }

    #[test]
    fn drain_events_is_incremental() {
        let mut eng = ScenarioEngine::new(ScenarioSpec::commuter_rush(9));
        let mut sim = eng.build_sim();
        eng.prime(&mut sim);
        for _ in 0..2_000 {
            sim.tick();
            eng.advance(&mut sim);
        }
        let first = eng.drain_events();
        assert!(!first.is_empty());
        assert!(eng.drain_events().is_empty(), "drained");
        for _ in 0..2_000 {
            sim.tick();
            eng.advance(&mut sim);
        }
        let second = eng.drain_events();
        assert_eq!(first.len() + second.len(), eng.trace().len());
    }

    #[test]
    fn handovers_reach_kpm_and_rrc_surfaces() {
        let (_, mut sim) = run(ScenarioSpec::commuter_rush(21), 10_000);
        let ho_total: u64 = sim.cells.iter().map(|c| c.ho_out_total + c.ho_in_total).sum();
        assert!(ho_total > 0, "cells count handovers for the KPM surface");
        let events: usize = sim.cells.iter_mut().map(|c| c.take_rrc_events().len()).sum();
        assert!(events > 0, "RRC events pending for the RRC SM");
    }
}
