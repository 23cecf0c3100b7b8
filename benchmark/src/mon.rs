//! The monitoring workloads: `mon-full-fb`, `mon-full-per`, `mon-delta-fb`.
//!
//! N agents, each fed by a `ransim::kpi::KpiGen`, report MAC, RLC and PDCP
//! statistics every tick; the controller stores every indication.

use flexric_codec::E2apCodec;
use flexric_e2ap::RicRequestId;
use flexric_ransim::KpiGen;
use flexric_sm::{
    mac::MacStatsInd, oid, pdcp::PdcpStatsInd, rlc::RlcStatsInd, DeltaStreams, ReportMode, SmCodec,
    SmPayload,
};

use crate::block::{mix, BlockOut, Round, Serial};
use crate::glue::{report, AgentTx, Controller, CtrlId, KeySched, SubInfo};
use crate::trace::{span, Tracer, L};

#[derive(Clone, Copy, Debug)]
pub struct MonCfg {
    pub agents: usize,
    pub ues: usize,
    pub ticks: u64,
    pub warmup_ticks: u64,
    pub e2ap: E2apCodec,
    pub sm: SmCodec,
    pub mode: ReportMode,
}

type Streams<T> = DeltaStreams<(CtrlId, RicRequestId), T>;

struct Agent {
    gen: KpiGen,
    mac: Streams<MacStatsInd>,
    rlc: Streams<RlcStatsInd>,
    pdcp: Streams<PdcpStatsInd>,
    sched: [KeySched; 3],
    subs: [SubInfo; 3],
    tx: AgentTx,
    /// Which of the three reports went out this tick.
    sent: [bool; 3],
    busy_ns: u64,
}

pub struct Mon {
    cfg: MonCfg,
    agents: Vec<Agent>,
    ctrl: Controller,
    tick: u64,
}

impl Mon {
    /// Builds the world and runs the warm-up ticks.
    pub fn new(cfg: MonCfg, seed: u64, tr: &mut Tracer) -> Self {
        let reg = flexric_sm::registry::global();
        let descs = [oid::MAC_STATS, oid::RLC_STATS, oid::PDCP_STATS]
            .map(|o| reg.latest(o).expect("bundled SM descriptor"));
        let delta = cfg.mode != ReportMode::Full;
        let mut ctrl = Controller::new(cfg.e2ap, cfg.sm, delta, cfg.agents);
        let agents = (0..cfg.agents)
            .map(|i| Agent {
                gen: KpiGen::new(mix(seed, i as u64), cfg.ues),
                mac: DeltaStreams::new(),
                rlc: DeltaStreams::new(),
                pdcp: DeltaStreams::new(),
                sched: Default::default(),
                subs: [0, 1, 2].map(|k| ctrl.subscribe(i, descs[k].clone())),
                tx: AgentTx::new(cfg.e2ap),
                sent: [false; 3],
                busy_ns: 0,
            })
            .collect();
        let mut w = Mon { cfg, agents, ctrl, tick: 0 };
        let mut warm = BlockOut::default();
        for _ in 0..cfg.warmup_ticks {
            w.one_tick(tr, &mut warm);
        }
        assert_eq!(warm.counts.failed, 0, "warm-up failed its checks");
        w
    }

    fn one_tick(&mut self, tr: &mut Tracer, out: &mut BlockOut) {
        self.tick += 1;
        let (tick, cfg) = (self.tick, self.cfg);
        let c = &mut out.counts;
        let mut ts = Round::default();
        let stored_before = c.stored;

        // Simulator: every cell advances one report period.
        for (i, a) in self.agents.iter_mut().enumerate() {
            tr.sample(i, tick);
            let t0 = tr.now();
            let st = tr.begin(L::StageSim);
            span!(tr, L::KpiStep, a.gen.step(tick));
            tr.end(st);
            ts.wall_ns += tr.now() - t0;
        }

        // Agents: snapshot → SM encode / delta → indication → E2AP encode
        // → frame, each on its own machine.
        let opp0 = c.opportunities;
        for (i, a) in self.agents.iter_mut().enumerate() {
            tr.sample(i, tick);
            let t0 = tr.now();
            let st = tr.begin(L::StageAgent);
            let Agent { gen, mac, rlc, pdcp, sched, subs, tx, sent, .. } = a;
            sent[0] = report(mac, &mut sched[0], &subs[0], cfg.mode, gen.mac(), cfg.sm, tx, tr, c);
            sent[1] = report(rlc, &mut sched[1], &subs[1], cfg.mode, gen.rlc(), cfg.sm, tx, tr, c);
            sent[2] =
                report(pdcp, &mut sched[2], &subs[2], cfg.mode, gen.pdcp(), cfg.sm, tx, tr, c);
            tx.flush(tr, c);
            tr.end(st);
            a.busy_ns = tr.now() - t0;
            ts.agent_busy_ns += a.busy_ns;
        }
        ts.opportunities = c.opportunities - opp0;

        // Controller: one slab read per agent, then reassembly, dispatch
        // and store of every frame in it.
        self.ctrl.now_ms = tick;
        let mut q = Serial::default();
        for (i, a) in self.agents.iter_mut().enumerate() {
            if a.tx.up.is_empty() {
                continue;
            }
            let stored0 = c.stored;
            let busy = self.ctrl.ingest_timed(L::StageCtrl, i, tick, &mut a.tx.up, tr, c);
            ts.ctrl_busy_ns += busy;
            let done = q.serve(a.busy_ns, busy);
            for _ in stored0..c.stored {
                out.age_ns.push(done as u32);
            }
        }
        ts.stored = c.stored - stored_before;
        ts.wall_ns += ts.agent_busy_ns + ts.ctrl_busy_ns;
        out.rounds.push(ts);

        // Ground truth, after the stage so the checks do not run between
        // two timed windows: what the store holds for an agent is what its
        // generator's snapshot encodes to, byte for byte.
        let db = self.ctrl.db.lock().expect("single thread");
        for (i, a) in self.agents.iter().enumerate() {
            let truth = [
                a.sent[0].then(|| a.gen.mac().encode(cfg.sm)),
                a.sent[1].then(|| a.gen.rlc().encode(cfg.sm)),
                a.sent[2].then(|| a.gen.pdcp().encode(cfg.sm)),
            ];
            for (k, want) in truth.iter().enumerate() {
                let Some(want) = want else { continue };
                if db.raw(i, &a.subs[k].desc.oid).map(|b| &b[..]) != Some(&want[..]) {
                    c.fail("store differs from the re-encoded generator snapshot");
                }
            }
        }
    }

    /// Runs the block's timed work; `out` comes in empty.
    pub fn run(&mut self, tr: &mut Tracer, out: &mut BlockOut) {
        for _ in 0..self.cfg.ticks {
            self.one_tick(tr, out);
        }
        crate::storm::check_conservation(&mut out.counts);
    }
}
