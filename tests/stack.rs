//! The stack on the [`Wire`] (`wire/mod.rs`): the simulator's RAN
//! functions below real agents, the shipped iApps in real controllers, one
//! virtual clock.  A scenario steps the simulator itself — `sim.tick()`
//! (and the scenario engine), then `Wire::advance(1)` — or moves the clock
//! in strides.  Every check reads the machines, the iApp or the wire, never
//! a process-global counter, so the scenarios share one binary.
//!
//! The scenarios: a cell outage inside and past the grace window
//! (subscription replay, delta re-key, ground truth), adaptive retuning over
//! delta streams (byte-identical reconstruction), the keyframe phases of
//! one monitor's agents, KPM with a handover through the RRC SM, and the
//! UE-to-controller association of the paper's §4.1.2.  The plain
//! monitoring pipeline is in `integration.rs`.

mod wire;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::agent::AgentIn;
use flexric::machine::Event;
use flexric::server::{AgentId, AgentInfo, CtrlOutcome, IApp, IndicationRef, ServerApi};
use flexric::server::{ServerConfig, SubOutcome};
use flexric_ctrl::dummy::dummy_bundle_time_varying;
use flexric_ctrl::monitoring::MIN_PERIOD_MS;
use flexric_ctrl::monitoring::{MonitorConfig, MonitorCounters, MonitorMode};
use flexric_ctrl::ranfun::{full_bundle, stats_bundle, SimBs};
use flexric_e2ap::*;
use flexric_ransim::kpi::KpiGen;
use flexric_ransim::scenario::{OutageSpec, ScenarioEvent, ScenarioSpec};
use flexric_ransim::ScenarioEngine;
use flexric_sm::delta::content_hash;
use flexric_sm::kpm::{self, KpmActionDef, KpmReport};
use flexric_sm::rrc::RrcCtrl;
use flexric_sm::{oid, ReportTrigger, SmCodec, SmPayload};
use wire::*;

/// The PDUs agents (`up`) or controllers sent, with when.
fn pdus(w: &Wire, up: bool) -> impl Iterator<Item = (u64, E2apPdu)> + '_ {
    let codec = CODEC;
    let sent = w.trace.iter().filter(move |(_, end, _)| matches!(end, End::A(..)) == up);
    sent.filter_map(move |(t, _, msg)| Some((*t, codec.decode(&msg.as_ref()?.payload).ok()?)))
}

/// Each delta frame agents sent: when, and whether it is a keyframe (the
/// frame starts `epoch:32 seq:32 is_delta:1`).
fn delta_frames(w: &Wire) -> Vec<(u64, bool)> {
    let frame = |(t, pdu)| match pdu {
        E2apPdu::RicIndication(ind) => Some((t, ind.message[8] & 0x80 == 0)),
        _ => None,
    };
    pdus(w, true).filter_map(frame).collect()
}

/// What any PDU of the run failed to decode anywhere: the machines' and
/// the monitor's decode errors, the monitor's delta resyncs, and the
/// `ErrorIndication`s that answer a frame that did not decode.
fn errors(w: &Wire, counters: &MonitorCounters) -> [u64; 5] {
    let agents = w.agents.iter().map(|a| a.stats().decode_errors).sum();
    let answered = pdus(w, true).chain(pdus(w, false));
    let answered = answered.filter(|(_, p)| matches!(p, E2apPdu::ErrorIndication(_))).count();
    let monitor = [counters.decode_errors.load(Relaxed), counters.resyncs.load(Relaxed)];
    [agents, w.ctrl_stats(0).decode_errors, monitor[0], monitor[1], answered as u64]
}

// ---------------------------------------------------------------------------
// A cell outage: the agent goes with it and returns with it.
// ---------------------------------------------------------------------------

const DUR_MS: u64 = 4_000;
const OUTAGE_AT_MS: u64 = 1_000;
const OUTAGE_DUR_MS: u64 = 600;
/// MAC + RLC for each of the two cells' agents.
const WANT_SUBS: u64 = 4;

/// Each agent's id at controller 0, by node id.
fn agent_ids(w: &Wire) -> BTreeMap<u64, AgentId> {
    w.ctrls[0].shards[0].agents().iter().map(|a| (a.node.node_id, a.id)).collect()
}

/// Two cells of a frozen-population world (no churn, no mobility), one
/// agent each, under a delta-mode [`MonitorApp`] whose keyframe cadence is
/// beyond the run, so the only keyframes are stream starts.  Cell 0 goes
/// dark at 1 000 ms for 600 ms: its agent stops, and a fresh one for the
/// same node starts when the cell recovers, `grace_ms` being the
/// controller's grace window.  The only dynamics are the outage, its
/// forced handovers and the recovery, so the ground truth is exact.
///
/// Checks what holds whether the agent returns within grace or not, and
/// returns the wire, the store and node id → AgentId before the outage
/// and at the end.
fn outage(grace_ms: u64) -> (Wire, Db, [BTreeMap<u64, AgentId>; 2]) {
    let mut spec = ScenarioSpec::calm(42);
    (spec.cells, spec.initial_ues, spec.mobility.step_ms) = (2, 8, 0);
    (spec.churn.arrival_mean_ms, spec.churn.stay_mean_ms) = (0, u64::MAX / 128);
    spec.outages = vec![OutageSpec { at_ms: OUTAGE_AT_MS, cell: 0, dur_ms: OUTAGE_DUR_MS }];
    let mut engine = ScenarioEngine::new(spec);
    let mut sim = engine.build_sim();
    engine.prime(&mut sim);
    let sim = Arc::new(Mutex::new(sim));

    let mut w = Wire::default();
    let cfg = ServerConfig { reconnect_grace_ms: grace_ms, ..ctrl_cfg(0) };
    // MAC + RLC every 10 ms.
    let (mode, keyframe_every, period_ms) = (MonitorMode::Delta, 100_000, 10);
    let m = MonitorConfig { period_ms, pdcp: false, mode, keyframe_every, ..Default::default() };
    let (db, counters) = start_monitor(&mut w, &cfg, m);
    let bundle = |cell| full_bundle(&SimBs::new(sim.clone(), cell), SmCodec::Flatb);
    for cell in 0..2 {
        w.start_agent_of(agent_cfg(1 + cell as u64, Some(BACKOFF), &[addr(0)]), bundle(cell));
    }
    assert_eq!(w.ctrl_stats(0).subs, WANT_SUBS, "subscriptions established");
    let before = agent_ids(&w);

    for _ in 0..DUR_MS {
        let mut s = sim.lock().unwrap();
        s.tick();
        engine.advance(&mut s);
        drop(s);
        for (_, event) in engine.drain_events() {
            match event {
                ScenarioEvent::CellOutage { cell } => w.stop_agent(cell),
                ScenarioEvent::CellRecover { cell } => w.restart_agent(cell, bundle(cell)),
                _ => {}
            }
        }
        w.advance(1);
    }
    assert_eq!(engine.stats.outages, 1, "the scheduled outage fired");
    assert!(w.end_of(0).is_some(), "the outaged cell recovered inside the run");
    let ids = [before, agent_ids(&w)];
    let went_dark = |(t, end, msg): &(u64, End, Option<_>)| {
        (msg.is_none() && matches!(end, End::A(0, _))).then_some(*t)
    };
    let dark_at = w.trace.iter().find_map(went_dark).expect("cell 0's agent hung up");

    // Zero silent loss: everything sent arrived and decoded, and no delta
    // stream lost sync — the restart shows as fresh keyframes.
    assert!(w.ind_sent > 100, "expected a steady indication stream, got {}", w.ind_sent);
    assert_eq!(w.ind_sent, counters.indications.load(Relaxed), "every one received");
    assert_eq!(w.ind_lost, 0);
    assert_eq!(errors(&w, &counters), [0; 5], "decode errors, resyncs, answers");
    assert_eq!(w.ctrl_stats(0).subs, WANT_SUBS, "every subscription is live again");
    // One keyframe per stream start before the outage, exactly one more
    // per stream of the returned agent after it.
    let keyframes = delta_frames(&w).into_iter().filter(|f| f.1);
    let (before, after): (Vec<_>, _) = keyframes.partition(|f| f.0 < dark_at);
    assert_eq!(before.len() as u64, WANT_SUBS, "one keyframe per stream start");
    assert_eq!(after.len(), 2, "the returned MAC + RLC streams re-key");

    // Ground truth: each agent's reconstructed MAC content equals its
    // cell's cumulative per-UE counters (`kpm_counters` never resets),
    // what happened while the cell was dark included.
    let sim = sim.lock().unwrap();
    let truth = |c: &flexric_ransim::Cell| -> BTreeMap<u16, u64> {
        c.kpm_counters().iter().map(|k| (k.rnti, k.dl_bytes_total)).collect()
    };
    let truths: Vec<_> = sim.cells.iter().map(truth).collect();
    assert!(truths.iter().any(|t| !t.is_empty()), "handovers left every UE on the other cell");
    let store = db.lock().unwrap();
    let live: BTreeSet<AgentId> = ids[1].values().copied().collect();
    assert_eq!(BTreeSet::from_iter(store.agents()), live, "rows of the agents there are, only");
    for (node, &agent) in &ids[1] {
        let mac = store.mac(agent).expect("MAC snapshot decodes");
        let stored: BTreeMap<u16, u64> =
            mac.ues.iter().map(|u| (u.rnti, u.dl_aggr_bytes)).collect();
        assert_eq!(stored, truths[*node as usize - 1], "node {node}: MAC content is its cell's");
    }
    drop(store);
    (w, db, ids)
}

/// Back within the grace window, the agent is rebound to its old id and
/// its subscriptions are replayed; twice the script, twice the trace.
#[test]
fn outage_within_grace_rebinds_replays_and_rekeys() {
    let (w, _, ids) = outage(GRACE_MS);
    assert_eq!(w.ctrl_stats(0).reconnects, 1, "rebound within the grace window");
    assert_eq!(ids[1], ids[0], "under the old AgentId");
    assert!(outage(GRACE_MS).0.trace == w.trace, "the same script replays to the same trace");
}

/// Back after the grace window, the agent is a new one: the monitor
/// dropped the old id's rows when the controller let it go.
#[test]
fn outage_past_grace_returns_a_new_agent_and_drops_the_old_rows() {
    let (w, db, ids) = outage(OUTAGE_DUR_MS / 2);
    assert_eq!(w.ctrl_stats(0).reconnects, 0);
    let (old, new) = (ids[0][&1], ids[1][&1]);
    assert_ne!(new, old, "the returning cell's agent has a new AgentId");
    assert_eq!(ids[1][&2], ids[0][&2], "the other cell's is untouched");
    assert!(db.lock().unwrap().mac(old).is_none(), "no row under the old id");
}

// ---------------------------------------------------------------------------
// Adaptive monitoring: retunes against live delta streams.
// ---------------------------------------------------------------------------

const AGENTS: u64 = 2;
const UES: u16 = 8;
const TICKS: u64 = 300;
/// Ticks this far apart are due under any period the monitor may retune
/// to, so each dummy function steps its KPI generator once per tick, and
/// a generator of the same seed stepped as often is the ground truth.
const STRIDE_MS: u64 = 1_000;

#[test]
fn adaptive_retunes_live_subscriptions_and_reconstructs_byte_identically() {
    let mut w = Wire::default();
    // 4 ms: above the minimum, so an anomaly has room to tighten.
    let m = MonitorConfig { period_ms: 4, mode: MonitorMode::Adaptive, ..Default::default() };
    let (db, counters) = start_monitor(&mut w, &ctrl_cfg(0), m);
    for i in 0..AGENTS {
        let functions = dummy_bundle_time_varying(UES, SmCodec::Flatb, i);
        w.start_agent_of(agent_cfg(1 + i, Some(BACKOFF), &[addr(0)]), functions);
    }
    assert_eq!(w.ctrl_stats(0).subs, AGENTS * 3, "MAC + RLC + PDCP per agent");
    (0..TICKS).for_each(|_| w.stride(STRIDE_MS));

    // Conservation: every indication sent arrived, nothing failed to
    // decode anywhere and no delta stream lost sync.
    assert!(w.ind_sent > 100, "expected a steady indication stream, got {}", w.ind_sent);
    assert_eq!(w.ind_sent, counters.indications.load(Relaxed), "every one received");
    assert_eq!(w.ind_lost, 0);
    assert_eq!(errors(&w, &counters), [0; 5], "decode errors, resyncs, answers");

    // The delta machinery engaged: keyframes at the cadence, deltas in
    // between, and suppression in the quiet phases — every tick is an
    // opportunity of every stream, and fewer were sent.
    let frames = delta_frames(&w);
    assert!(frames.iter().any(|f| f.1), "keyframes emitted");
    assert!(frames.iter().any(|f| !f.1), "delta frames emitted");
    assert!(w.ind_sent < AGENTS * 3 * TICKS, "quiet phases suppress");

    // The burst phase tightens the 4 ms period to the minimum through the
    // live subscription: the same request id, a new trigger.
    let subs: Vec<(RicRequestId, u32)> = pdus(&w, false)
        .filter_map(|(_, pdu)| match pdu {
            E2apPdu::RicSubscriptionRequest(r) => {
                let trigger = ReportTrigger::decode(SmCodec::Flatb, &r.event_trigger).unwrap();
                Some((r.req_id, trigger.period_ms))
            }
            _ => None,
        })
        .collect();
    let tighten = |(n, &(id, period)): (usize, &(RicRequestId, u32))| {
        period == MIN_PERIOD_MS && subs[..n].contains(&(id, 4))
    };
    assert!(subs.iter().enumerate().any(tighten), "a burst must tighten the period: {subs:?}");
    assert!(counters.retunes.load(Relaxed) > 0);

    // Byte-identity: each agent's stored content equals, on all three SMs,
    // a generator of its seed stepped once per tick.  Timestamps are
    // excluded (a suppressed tail leaves the store a few frozen-content
    // ticks behind), which is the delta-stream contract.
    let db = db.lock().unwrap();
    assert_eq!(db.agents().len(), AGENTS as usize, "stats stored for every agent");
    for (node, agent) in agent_ids(&w) {
        let mut g = KpiGen::new(node - 1, UES as usize);
        (1..=TICKS).for_each(|t| g.step(t * STRIDE_MS));
        let (mac, rlc, pdcp) =
            (db.mac(agent).unwrap(), db.rlc(agent).unwrap(), db.pdcp(agent).unwrap());
        assert_eq!(mac.ues.len(), UES as usize);
        assert_eq!(content_hash(&mac), content_hash(g.mac()), "node {node}: MAC");
        assert_eq!(content_hash(&rlc), content_hash(g.rlc()), "node {node}: RLC");
        assert_eq!(content_hash(&pdcp), content_hash(g.pdcp()), "node {node}: PDCP");
    }
}

// ---------------------------------------------------------------------------
// Keyframe phases: the agents of one monitor do not key in lockstep.
// ---------------------------------------------------------------------------

/// Eight agents under one delta-mode monitor, MAC + RLC + PDCP each, all
/// reporting on one 10 ms grid: 24 streams that start together.  Past each
/// stream's first keyframe, no tick carries more than twice the 24 streams'
/// share of one in 16 — each stream keys at the phase of its subscription,
/// `(controller, request id)`, where streams that all keyed by the same
/// count would put all 24 keyframes on one tick every 16 reports.
#[test]
fn delta_agents_under_one_monitor_key_at_phases_of_their_own() {
    const AGENTS: u64 = 8;
    const KEYFRAME_EVERY: u32 = 16;
    let mut w = Wire::default();
    let (mode, period_ms) = (MonitorMode::Delta, 10);
    let m = MonitorConfig { period_ms, mode, keyframe_every: KEYFRAME_EVERY, ..Default::default() };
    let (_, counters) = start_monitor(&mut w, &ctrl_cfg(0), m);
    for i in 0..AGENTS {
        let functions = dummy_bundle_time_varying(UES, SmCodec::Flatb, i);
        w.start_agent_of(agent_cfg(1 + i, Some(BACKOFF), &[addr(0)]), functions);
    }
    assert_eq!(w.ctrl_stats(0).subs, AGENTS * 3, "MAC + RLC + PDCP per agent");
    w.advance(4 * u64::from(KEYFRAME_EVERY * period_ms));
    assert_eq!(errors(&w, &counters), [0; 5], "decode errors, resyncs, answers");

    // Keyframes per tick, each stream's first left out: (agent, request).
    let mut started = BTreeSet::new();
    let mut per_tick: BTreeMap<u64, usize> = BTreeMap::new();
    for (t, end, msg) in &w.trace {
        let (End::A(agent, _), Some(msg)) = (end, msg) else { continue };
        let Ok(E2apPdu::RicIndication(ind)) = CODEC.decode(&msg.payload) else { continue };
        if ind.message[8] & 0x80 == 0 && !started.insert((*agent, ind.req_id)) {
            *per_tick.entry(*t).or_default() += 1;
        }
    }
    assert_eq!(started.len() as u64, AGENTS * 3, "every stream started");
    let total: usize = per_tick.values().sum();
    assert!(total >= 2 * started.len(), "periodic keyframes: {per_tick:?}");
    let bound = 2 * started.len().div_ceil(KEYFRAME_EVERY as usize);
    let most = per_tick.values().copied().max().unwrap_or(0);
    assert!(most <= bound, "{most} keyframes in one tick, at most {bound}: {per_tick:?}");
}

// ---------------------------------------------------------------------------
// KPM and a handover, UE association.
// ---------------------------------------------------------------------------

/// Subscribes to cell KPM on connect, hands a UE over through the RRC SM
/// when called, and keeps what it sees.
#[derive(Default)]
struct KpmApp {
    reports: Vec<KpmReport>,
    admitted: bool,
    ho_acked: bool,
}

impl KpmApp {
    fn handover(&mut self, api: &mut ServerApi, rnti: u16, target_cell: u32) {
        let agent = api.randb().agents().next().expect("an agent");
        let rf = agent.function_by_oid(oid::RRC_EVENT).expect("rrc fn").id;
        let msg = Bytes::from(RrcCtrl::Handover { rnti, target_cell }.encode(SmCodec::Flatb));
        api.control(agent.id, rf, Bytes::new(), msg, Some(ControlAckRequest::Ack));
    }
}

impl IApp for KpmApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        let f = agent.function_by_oid(oid::KPM).expect("kpm advertised");
        let trigger = Bytes::from(ReportTrigger::every_ms(100).encode(SmCodec::Flatb));
        let meas = [kpm::meas::DRB_UE_THP_DL, kpm::meas::RRU_PRB_TOT_DL, kpm::meas::RRC_CONN_MEAN];
        let action = RicActionToBeSetup {
            id: RicActionId(0),
            action_type: RicActionType::Report,
            definition: Some(Bytes::from(KpmActionDef::cell(100, &meas).encode(SmCodec::Flatb))),
            subsequent: None,
        };
        api.subscribe(agent.id, f.id, trigger, vec![action]);
    }
    fn on_subscription_outcome(&mut self, _: &mut ServerApi, _: AgentId, out: &SubOutcome) {
        self.admitted |= matches!(out, SubOutcome::Admitted(_));
    }
    fn on_indication(&mut self, _: &mut ServerApi, _: AgentId, ind: &IndicationRef) {
        let (_, msg) = ind.sm_payload().unwrap();
        self.reports.extend(KpmReport::decode(SmCodec::Flatb, msg));
    }
    fn on_control_outcome(&mut self, _: &mut ServerApi, _: AgentId, out: &CtrlOutcome) {
        self.ho_acked |= matches!(out, CtrlOutcome::Ack(_));
    }
}

/// Cell KPM every 100 ms from an agent fronting cell 0 of two; then the
/// UE is handed over to cell 1 through the RRC SM.
#[test]
fn kpm_reports_flow_and_a_handover_moves_the_ue() {
    let sim = greedy_sim(2, 1);
    let mut w = Wire::default();
    w.start_ctrl_of(0, &ctrl_cfg(0), vec![vec![Box::new(KpmApp::default())]]);
    let functions = full_bundle(&SimBs::new(sim.clone(), 0), SmCodec::Flatb);
    w.start_agent_of(agent_cfg(1, Some(BACKOFF), &[addr(0)]), functions);
    run(&mut w, &sim, 1_000);
    w.call(0, 0, |app: &mut KpmApp, _| {
        assert!(app.admitted, "KPM subscription admitted");
        assert!(app.reports.len() >= 5, "KPM reports flowed: {}", app.reports.len());
        let last = app.reports.last().unwrap();
        assert_eq!(last.granularity_ms, 100);
        let record = |name, rnti| last.records.iter().find(|r| r.name == name && r.rnti == rnti);
        let thp = record(kpm::meas::DRB_UE_THP_DL, Some(0x4601)).expect("per-UE throughput");
        assert!(thp.value > 10_000, "UE throughput ≈ cell rate: {} kbps", thp.value);
        assert_eq!(record(kpm::meas::RRC_CONN_MEAN, None).unwrap().value, 1);
        assert!(last.records.iter().any(|r| r.name == kpm::meas::RRU_PRB_TOT_DL));
    });

    w.call(0, 0, |app: &mut KpmApp, api| app.handover(api, 0x4601, 1));
    run(&mut w, &sim, 500);
    assert!(w.call(0, 0, |app: &mut KpmApp, _| app.ho_acked), "handover control acknowledged");
    let s = sim.lock().unwrap();
    assert!(s.cells[0].ues.is_empty(), "UE left cell 0");
    assert_eq!(s.cells[1].ues.len(), 1, "UE arrived in cell 1");
}

/// The RNTIs of agent 0's latest MAC rows in `db`, which its latest RLC
/// and PDCP rows repeat.
fn ues(db: &Db) -> Vec<u16> {
    let db = db.lock().unwrap();
    let mac: Vec<u16> = db.mac(0).expect("MAC stored").ues.iter().map(|u| u.rnti).collect();
    let rlc = db.rlc(0).expect("RLC stored").bearers.iter().map(|b| b.rnti).collect::<Vec<_>>();
    let pdcp = db.pdcp(0).expect("PDCP stored").bearers.iter().map(|b| b.rnti).collect::<Vec<_>>();
    assert_eq!([&rlc, &pdcp], [&mac, &mac], "RLC and PDCP rows hold the MAC rows' UEs");
    mac
}

/// One cell of three UEs, reported to two monitors: the first controller
/// sees every UE, the second only the UEs associated with it, from the
/// next report on (paper §4.1.2).
#[test]
fn ue_association_decides_what_the_second_controller_sees() {
    let sim = greedy_sim(1, 3);
    let mut w = Wire::default();
    let dbs = [0, 1].map(|c| start_monitor(&mut w, &ctrl_cfg(c), MonitorConfig::default()).0);
    let functions = stats_bundle(&SimBs::new(sim.clone(), 0), SmCodec::Flatb);
    let a = w.start_agent_of(agent_cfg(1, Some(BACKOFF), &[addr(0), addr(1)]), functions);
    run(&mut w, &sim, 5);
    assert_eq!(ues(&dbs[0]), [0x4601, 0x4602, 0x4603]);
    assert_eq!(ues(&dbs[1]), []);

    w.agent(a, Event::App(AgentIn::AssociateUe(0x4602, 1)));
    run(&mut w, &sim, 1);
    assert_eq!(ues(&dbs[1]), [0x4602]);
    w.agent(a, Event::App(AgentIn::DisassociateUe(0x4602, 1)));
    run(&mut w, &sim, 1);
    assert_eq!(ues(&dbs[1]), []);
    assert_eq!(ues(&dbs[0]), [0x4601, 0x4602, 0x4603]);
}
