//! `ctrl-storm`: writes beside reads.
//!
//! N single-cell agents step a real `Sim` 1 ms at a time and report slice
//! status every step.  Every step the controller pushes an `AddModSlices`
//! to every agent through the whole control path, and the loop closes when
//! the agent's next stored report shows the pushed shares.

use flexric_codec::E2apCodec;
use flexric_e2ap::RanFunctionId;
use flexric_ransim::{Cell, CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{
    SliceAlgo, SliceConf, SliceCtrl, SliceParams, SliceStatsInd, UeSchedAlgo, SHARE_SCALE,
};
use flexric_sm::{oid, SmCodec, SmPayload};
use flexric_transport::rx::FrameAssembler;

use crate::block::{mix, BlockOut, Round, Serial};
use crate::glue::{agent_handle_down, report_plain, AgentTx, Controller, Counts, SubInfo};
use crate::trace::{span, Tracer, L};

#[derive(Clone, Copy, Debug)]
pub struct StormCfg {
    pub agents: usize,
    pub ues: usize,
    pub steps: u64,
    pub warmup_steps: u64,
    pub e2ap: E2apCodec,
    pub sm: SmCodec,
}

/// The two feasible share sets the controller alternates between.
const SHARES: [[u32; 3]; 2] = [[150, 250, 600], [200, 300, 500]];
const LABELS: [&str; 3] = ["voip", "web", "mbb"];

pub fn slice_confs(shares: &[u32]) -> Vec<SliceConf> {
    shares
        .iter()
        .enumerate()
        .map(|(id, &share_milli)| SliceConf {
            id: id as u32,
            label: LABELS[id % 3].to_owned(),
            params: SliceParams::NvsCapacity { share_milli },
            ue_sched: UeSchedAlgo::PropFair,
        })
        .collect()
}

/// A control the controller pushed and is waiting to see take effect.
pub struct Pushed {
    pub slices: Vec<SliceConf>,
    /// Virtual time (within the pushing tick) of the decision and of the
    /// completed acknowledge.
    pub decided_at: u64,
    pub acked_at: Option<u64>,
}

/// The agent in front of one simulated cell: what `Agent` +
/// `SliceCtrlFn` hold per cell.
pub struct CellAgent {
    pub tx: AgentTx,
    pub rx: FrameAssembler,
    pub slice_sub: SubInfo,
    /// The slice-status snapshot reported this tick, kept until checked.
    pub slice_snap: Option<SliceStatsInd>,
    pub pushed: Option<Pushed>,
    pub busy_ns: u64,
    /// TTI stamp → store insert of the report just stored.
    pub age_ns: u64,
}

impl CellAgent {
    pub fn new(id: usize, e2ap: E2apCodec, ctrl: &mut Controller) -> Self {
        let desc = flexric_sm::registry::global().latest(oid::SLICE_CTRL).expect("bundled SM");
        CellAgent {
            tx: AgentTx::new(e2ap),
            rx: FrameAssembler::new(),
            slice_sub: ctrl.subscribe(id, desc),
            slice_snap: None,
            pushed: None,
            busy_ns: 0,
            age_ns: 0,
        }
    }

    /// Stage `agent_ctl`: the agent reads what the controller wrote,
    /// applies it to `cell` and acknowledges.  Returns its busy time.
    pub fn apply_controls(
        &mut self,
        id: usize,
        round: u64,
        cell: &mut Cell,
        ctrl: &mut Controller,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> u64 {
        tr.sample(id, round);
        let t0 = tr.now();
        let st = tr.begin(L::StageAgentCtl);
        agent_handle_down(cell, &mut self.rx, &ctrl.down[id], ctrl.sm_codec, &mut self.tx, tr, c);
        tr.end(st);
        self.busy_ns = tr.now() - t0;
        ctrl.down[id].clear();
        self.busy_ns
    }

    /// Stage `ctrl_ack`: the controller reads this agent's acknowledge,
    /// which left the agent `busy_ns` after the request left the
    /// controller at `left_at`.  Returns the controller's busy time.
    #[allow(clippy::too_many_arguments)]
    pub fn return_ack(
        &mut self,
        id: usize,
        round: u64,
        left_at: u64,
        q: &mut Serial,
        ctrl: &mut Controller,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> u64 {
        let busy = ctrl.ingest_timed(L::StageCtrlAck, id, round, &mut self.tx.up, tr, c);
        let at = q.serve(left_at + self.busy_ns, busy);
        if let (true, Some(p)) = (ctrl.take_acked(c), self.pushed.as_mut()) {
            p.acked_at = Some(at);
        }
        busy
    }

    /// Checks the agent's stored slice report against its snapshot and,
    /// if a push is waiting, that the report shows it; returns the closed
    /// loop's length.
    pub fn check_slice_report(
        &mut self,
        id: usize,
        ctrl: &Controller,
        c: &mut Counts,
    ) -> Option<u64> {
        let snap = self.slice_snap.take()?;
        let db = ctrl.db.lock().expect("single thread");
        if db.raw(id, oid::SLICE_CTRL).map(|b| &b[..]) != Some(&snap.encode(ctrl.sm_codec)[..]) {
            c.fail("store differs from the re-encoded slice snapshot");
        }
        let p = self.pushed.take()?;
        let shown = p.slices.iter().all(|want| snap.slices.iter().any(|s| s.conf == *want));
        let total: u32 = snap
            .slices
            .iter()
            .map(|s| match s.conf.params {
                SliceParams::NvsCapacity { share_milli } => share_milli,
                _ => 0,
            })
            .sum();
        match p.acked_at {
            Some(acked_at) if shown && total <= SHARE_SCALE => {
                Some(acked_at - p.decided_at + self.age_ns)
            }
            Some(_) => {
                c.fail("pushed slice configuration not visible in the next report");
                None
            }
            None => {
                c.fail("control was never acknowledged");
                None
            }
        }
    }
}

/// Pushes `slices` to `agent` through the control path: SM encode →
/// `ServerApi::control` → flush.
pub fn push_slices(
    ctrl: &mut Controller,
    agent: usize,
    slices: Vec<SliceConf>,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Vec<SliceConf> {
    let msg = SliceCtrl::AddModSlices { slices };
    let bytes = span!(tr, L::SmCtrlEncode, bytes::Bytes::from(msg.encode(ctrl.sm_codec)));
    let rf = RanFunctionId::new(flexric_sm::rf::SLICE_CTRL);
    ctrl.control(agent, rf, bytes, tr, c);
    ctrl.flush(tr);
    let SliceCtrl::AddModSlices { slices } = msg else { unreachable!() };
    slices
}

pub struct Storm {
    cfg: StormCfg,
    /// One single-cell simulation per agent, same index.
    sims: Vec<Sim>,
    agents: Vec<CellAgent>,
    ctrl: Controller,
    step: u64,
}

fn build_sim(seed: u64, ues: usize) -> Sim {
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    let cell = &mut sim.cells[0];
    cell.apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).expect("set NVS");
    cell.apply_slice_ctrl(&SliceCtrl::AddModSlices { slices: slice_confs(&SHARES[0]) })
        .expect("initial shares are feasible");
    for u in 0..ues {
        let rnti = 0x4601 + u as u16;
        let r = mix(seed, u as u64);
        sim.attach_ue(0, UeConfig::new(rnti, 10 + (r % 18) as u8));
        let slice = (u % 3) as u32;
        sim.cells[0]
            .apply_slice_ctrl(&SliceCtrl::AssocUeSlice { assoc: vec![(rnti, slice)] })
            .expect("slice exists");
        let kind = match slice {
            0 => FlowKind::Cbr { bytes: 172, interval_ms: 20 },
            1 => FlowKind::Cbr { bytes: 1_500 + (r >> 8) as u32 % 4_500, interval_ms: 10 },
            _ => FlowKind::GreedyTcp { mss: 1_500 },
        };
        sim.add_flow(FlowConfig {
            cell: 0,
            rnti,
            drb: 1,
            kind,
            tuple: (0x0A00_0001, 0x0A01_0000 + rnti as u32, 1_000, 5_000 + slice as u16, 17),
            start_ms: 0,
            stop_ms: None,
        });
    }
    sim
}

impl Storm {
    pub fn new(cfg: StormCfg, seed: u64, tr: &mut Tracer) -> Self {
        let mut ctrl = Controller::new(cfg.e2ap, cfg.sm, false, cfg.agents);
        let sims = (0..cfg.agents).map(|i| build_sim(mix(seed, i as u64), cfg.ues)).collect();
        let agents = (0..cfg.agents).map(|i| CellAgent::new(i, cfg.e2ap, &mut ctrl)).collect();
        let mut w = Storm { cfg, sims, agents, ctrl, step: 0 };
        let mut warm = BlockOut::default();
        for _ in 0..cfg.warmup_steps {
            w.one_step(tr, &mut warm);
        }
        assert_eq!(warm.counts.failed, 0, "warm-up failed its checks");
        w
    }

    fn one_step(&mut self, tr: &mut Tracer, out: &mut BlockOut) {
        self.step += 1;
        let (step, cfg) = (self.step, self.cfg);
        let Storm { sims, agents, ctrl, .. } = self;
        let c = &mut out.counts;
        let mut ts = Round::default();
        let stored0 = c.stored;
        let mut wall = 0u64;

        for (i, sim) in sims.iter_mut().enumerate() {
            tr.sample(i, step);
            let t0 = tr.now();
            let st = tr.begin(L::StageSim);
            span!(tr, L::SimTick, sim.tick());
            tr.end(st);
            wall += tr.now() - t0;
        }

        let opp0 = c.opportunities;
        for (i, (a, sim)) in agents.iter_mut().zip(sims.iter_mut()).enumerate() {
            tr.sample(i, step);
            let t0 = tr.now();
            let st = tr.begin(L::StageAgent);
            let snap = span!(tr, L::StatsRead, sim.cells[0].slice_stats());
            report_plain(&a.slice_sub, &snap, cfg.sm, &mut a.tx, tr, c);
            a.tx.flush(tr, c);
            tr.end(st);
            a.busy_ns = tr.now() - t0;
            a.slice_snap = Some(snap);
            ts.agent_busy_ns += a.busy_ns;
        }
        ts.opportunities = c.opportunities - opp0;

        ctrl.now_ms = step;
        let mut q = Serial::default();
        for (i, a) in agents.iter_mut().enumerate() {
            let busy = ctrl.ingest_timed(L::StageCtrl, i, step, &mut a.tx.up, tr, c);
            ts.ctrl_busy_ns += busy;
            a.age_ns = q.serve(a.busy_ns, busy);
            out.age_ns.push(a.age_ns as u32);
        }
        for (i, a) in agents.iter_mut().enumerate() {
            if let Some(l) = a.check_slice_report(i, ctrl, c) {
                out.loop_ns.push(l as u32);
            }
        }
        ts.stored = c.stored - stored0;
        wall += ts.agent_busy_ns + ts.ctrl_busy_ns;

        // Decisions: one push per agent, alternating the share set.
        let t0 = tr.now();
        ctrl.tick_procedures(tr, c);
        let poll = tr.now() - t0;
        q.serve(0, poll);
        wall += poll;
        let shares = &SHARES[(step % 2) as usize];
        let mut left_at = vec![0u64; agents.len()];
        for (i, a) in agents.iter_mut().enumerate() {
            tr.sample(i, step);
            let decided_at = q.free_at;
            let decision = slice_confs(shares); // the workload's input, not the system's work
            let t0 = tr.now();
            let st = tr.begin(L::StageDecide);
            let slices = push_slices(ctrl, i, decision, tr, c);
            tr.end(st);
            let busy = tr.now() - t0;
            wall += busy;
            left_at[i] = q.serve(0, busy);
            a.pushed = Some(Pushed { slices, decided_at, acked_at: None });
        }

        // Agents apply and acknowledge, each on its own machine; then the
        // controller completes the procedures.
        for (i, (a, sim)) in agents.iter_mut().zip(sims.iter_mut()).enumerate() {
            wall += a.apply_controls(i, step, &mut sim.cells[0], ctrl, tr, c);
            let want = &a.pushed.as_ref().expect("just pushed").slices;
            let have = &sim.cells[0].sched.slices;
            if !want.iter().all(|w| have.iter().any(|s| s.conf == *w)) {
                c.fail("cell does not run the pushed slice configuration");
            }
        }
        for (i, a) in agents.iter_mut().enumerate() {
            wall += a.return_ack(i, step, left_at[i], &mut q, ctrl, tr, c);
        }
        if !ctrl.endpoint.table.is_empty() {
            c.fail("procedures still outstanding at the end of the step");
        }
        ts.wall_ns = wall;
        out.rounds.push(ts);
    }

    /// Runs the block's timed work; `out` comes in empty.
    pub fn run(&mut self, tr: &mut Tracer, out: &mut BlockOut) {
        for _ in 0..self.cfg.steps {
            self.one_step(tr, out);
        }
        check_conservation(&mut out.counts);
    }
}

/// Indications are conserved from agent to store, and every control got
/// its acknowledge.
pub fn check_conservation(c: &mut Counts) {
    if !(c.sent == c.framed && c.framed == c.reassembled && c.reassembled == c.stored) {
        c.fail("sent, framed, reassembled and stored indications differ");
    }
    if c.acked != c.controls {
        c.fail("controls and acknowledges differ");
    }
}
