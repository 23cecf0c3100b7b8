//! The monitoring controller specialization: a statistics iApp "that saves
//! incoming messages to an in-memory data structure, similar to FlexRAN"
//! (paper §5.3).  This is the controller measured in Figs. 8 and 9b.
//!
//! Beyond the paper's full-snapshot baseline, the iApp speaks the adaptive
//! monitoring pipeline: delta-encoded indications (reconstructed here from
//! keyframe + deltas, [`flexric_sm::delta`]), and — in
//! [`MonitorMode::Adaptive`] — server-driven report retuning that backs
//! off quiescent cells and tightens the period when a reconstructed KPI
//! crosses an anomaly threshold.  Retunes ride the regular subscription
//! procedure ([`ServerApi::retune_subscription`]), so they inherit
//! deadlines and retransmits from the endpoint layer.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flexric::server::{AgentId, AgentInfo, IApp, IndicationRef, ServerApi};
use flexric_e2ap::{RanFunctionId, RicRequestId};
use flexric_sm::registry::{AnyDeltaDecoder, AnyDeltaEvent, AnyPayload, SmDescriptor};
use flexric_sm::{
    mac::MacStatsInd, oid, pdcp::PdcpStatsInd, rlc::RlcStatsInd, ReportTrigger, SmCodec, SmPayload,
};

/// The in-memory statistics store.
///
/// Unlike FlexRAN's RIB (decoded object trees), the FlexRIC store keeps
/// the *encoded* SM payloads and decodes on access — with the FB encoding
/// the write path is a reference-counted byte copy and reads are lazy,
/// which is the "more efficiently organized internal data structure" of
/// the paper's §5.3.  Under delta monitoring the stored payload is the
/// re-encoded reconstruction, so readers are oblivious to the wire mode.
///
/// Payloads are keyed by SM OID, not by a hard-coded per-layer slot, so
/// the store holds any registered SM — including third-party ones — and
/// [`StatsDb::snapshot_any`] decodes them through the registry vtable.
#[derive(Debug, Default)]
pub struct StatsDb {
    sm_codec: SmCodec,
    /// Latest raw payload per SM OID per agent, with its store time.
    raw: std::collections::HashMap<String, std::collections::HashMap<AgentId, DbEntry>>,
}

/// One stored payload plus the time it was last refreshed — the TTL
/// eviction of [`StatsDb::evict_stale`] keys off `updated_ms`.
#[derive(Debug)]
struct DbEntry {
    raw: bytes::Bytes,
    updated_ms: u64,
}

impl StatsDb {
    /// The latest raw payload `agent` reported for the SM `oid`.
    pub fn raw(&self, agent: AgentId, oid: &str) -> Option<&bytes::Bytes> {
        self.raw.get(oid)?.get(&agent).map(|e| &e.raw)
    }

    /// Decodes the latest snapshot of `agent` for `oid` through the
    /// registry vtable; downcast the result when the concrete type is
    /// known, or hand it to generic consumers.
    pub fn snapshot_any(&self, agent: AgentId, oid: &str) -> Option<AnyPayload> {
        let desc = flexric_sm::registry::global().latest(oid)?;
        desc.decode_indication(self.sm_codec, self.raw(agent, oid)?).ok()
    }

    fn decode_as<T: SmPayload>(&self, agent: AgentId, oid: &str) -> Option<T> {
        T::decode(self.sm_codec, self.raw(agent, oid)?).ok()
    }

    /// Decodes the latest MAC snapshot of an agent.
    pub fn mac(&self, agent: AgentId) -> Option<MacStatsInd> {
        self.decode_as(agent, oid::MAC_STATS)
    }

    /// Decodes the latest RLC snapshot of an agent.
    pub fn rlc(&self, agent: AgentId) -> Option<RlcStatsInd> {
        self.decode_as(agent, oid::RLC_STATS)
    }

    /// Decodes the latest PDCP snapshot of an agent.
    pub fn pdcp(&self, agent: AgentId) -> Option<PdcpStatsInd> {
        self.decode_as(agent, oid::PDCP_STATS)
    }

    /// Agents with any stored statistics.
    pub fn agents(&self) -> Vec<AgentId> {
        let mut ids: Vec<AgentId> = self.raw.values().flat_map(|m| m.keys().copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn store(&mut self, agent: AgentId, oid: &str, raw: bytes::Bytes, now_ms: u64) {
        let entry = DbEntry { raw, updated_ms: now_ms };
        match self.raw.get_mut(oid) {
            Some(m) => {
                m.insert(agent, entry);
            }
            None => {
                self.raw.entry(oid.to_owned()).or_default().insert(agent, entry);
            }
        }
    }

    fn remove_agent(&mut self, agent: AgentId) {
        for m in self.raw.values_mut() {
            m.remove(&agent);
        }
    }

    /// Evicts entries not refreshed within `ttl_ms` of `now_ms` and
    /// returns how many were dropped.  Before this existed, rows of
    /// departed reporters (agents whose subscription died without a
    /// disconnect, churned-out dummy UE agents, cells in a long outage)
    /// accumulated forever; churn scenarios made the leak structural.
    pub fn evict_stale(&mut self, now_ms: u64, ttl_ms: u64) -> u64 {
        let mut evicted = 0;
        for m in self.raw.values_mut() {
            let before = m.len();
            m.retain(|_, e| now_ms.saturating_sub(e.updated_ms) <= ttl_ms);
            evicted += (before - m.len()) as u64;
        }
        self.raw.retain(|_, m| !m.is_empty());
        if evicted > 0 {
            obs().evicted.add(evicted);
        }
        evicted
    }
}

/// Global obs counters mirroring [`MonitorCounters`], registered once.
struct MonitorObs {
    indications: flexric_obs::Counter,
    bytes: flexric_obs::Counter,
    retunes_backoff: flexric_obs::Counter,
    retunes_tighten: flexric_obs::Counter,
    retunes_resync: flexric_obs::Counter,
    evicted: flexric_obs::Counter,
}

fn obs() -> &'static MonitorObs {
    static OBS: std::sync::OnceLock<MonitorObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let retunes = "Server-driven report retunes issued by the monitoring iApp, by reason";
        MonitorObs {
            indications: flexric_obs::counter(
                "flexric_ctrl_indications_total",
                "Indications processed by the monitoring iApp",
            ),
            bytes: flexric_obs::counter(
                "flexric_ctrl_indication_bytes_total",
                "SM payload bytes of indications processed by the monitoring iApp",
            ),
            retunes_backoff: flexric_obs::counter_with(
                "flexric_ctrl_retunes_total",
                &[("dir", "backoff")],
                retunes,
            ),
            retunes_tighten: flexric_obs::counter_with(
                "flexric_ctrl_retunes_total",
                &[("dir", "tighten")],
                retunes,
            ),
            retunes_resync: flexric_obs::counter_with(
                "flexric_ctrl_retunes_total",
                &[("dir", "resync")],
                retunes,
            ),
            evicted: flexric_obs::counter(
                "flexric_ctrl_statsdb_evicted_total",
                "StatsDb entries dropped by TTL eviction (stale reporters)",
            ),
        }
    })
}

/// Counters for throughput accounting in the scaling experiments.
#[derive(Debug, Default)]
pub struct MonitorCounters {
    /// Indications processed.
    pub indications: AtomicU64,
    /// Wire bytes of processed indications.
    pub bytes: AtomicU64,
    /// Delta frames that failed to decode (wire-level).
    pub decode_errors: AtomicU64,
    /// Delta-stream resyncs (keyframe requested via retune).
    pub resyncs: AtomicU64,
    /// Retunes issued (all reasons).
    pub retunes: AtomicU64,
}

/// How the iApp subscribes to reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorMode {
    /// Full snapshot every period (the paper's baseline).
    #[default]
    Full,
    /// Delta-encoded indications at a fixed period.
    Delta,
    /// Delta-encoded indications plus server-driven period retuning:
    /// back off quiescent agents, tighten on anomaly.
    Adaptive,
}

// The bounds and thresholds of `MonitorMode::Adaptive`'s retune state machine.

/// The tightest period, snapped to under an anomaly; the subscription
/// starts at [`MonitorConfig::period_ms`].
pub const MIN_PERIOD_MS: u32 = 1;
/// The loosest period the backoff may reach.
pub const MAX_PERIOD_MS: u32 = 1_000;
/// Back off after this many periods without a content change.
pub const QUIET_PERIODS: u32 = 8;
/// MAC anomaly: any UE's `dl_backlog_bytes` above this.
pub const BACKLOG_BYTES_THR: u64 = 500_000;
/// RLC anomaly: any bearer's `sojourn_us_avg` above this.
pub const SOJOURN_US_THR: u64 = 300_000;

/// Configuration of the monitoring iApp.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Reporting period requested from agents.
    pub period_ms: u32,
    /// SM encoding used by the agents.
    pub sm_codec: SmCodec,
    /// Subscribe to MAC statistics.
    pub mac: bool,
    /// Subscribe to RLC statistics.
    pub rlc: bool,
    /// Subscribe to PDCP statistics.
    pub pdcp: bool,
    /// Subscribe to SC SM slice statistics (per-slice throughput — the
    /// feed of the SLA xApp).
    pub slice: bool,
    /// Decode payloads into the store.  Disabled for pure-throughput
    /// scaling runs where only the dispatch cost is being measured.
    pub store: bool,
    /// TTL for stored entries: rows a reporter stops refreshing for this
    /// long are evicted on the iApp tick (`None` disables eviction).
    pub stale_ttl_ms: Option<u64>,
    /// Full, delta, or adaptive reporting.
    pub mode: MonitorMode,
    /// Keyframe cadence of delta subscriptions (report opportunities
    /// per full keyframe).
    pub keyframe_every: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            period_ms: 1,
            sm_codec: SmCodec::Flatb,
            mac: true,
            rlc: true,
            pdcp: true,
            slice: false,
            store: true,
            stale_ttl_ms: Some(60_000),
            mode: MonitorMode::Full,
            keyframe_every: 16,
        }
    }
}

impl MonitorConfig {
    fn trigger_bytes(&self, period_ms: u32) -> Bytes {
        let trigger = match self.mode {
            MonitorMode::Full => ReportTrigger::every_ms(period_ms),
            MonitorMode::Delta | MonitorMode::Adaptive => {
                ReportTrigger::delta_every_ms(period_ms, self.keyframe_every)
            }
        };
        Bytes::from(trigger.encode(self.sm_codec))
    }
}

/// Per-subscription delta reconstruction state.  The decoder comes from
/// the SM's registry vtable ([`SmDescriptor::delta_decoder`]), so the
/// iApp reconstructs any delta-capable SM without naming its types.
struct DecEntry {
    dec: Box<dyn AnyDeltaDecoder>,
    /// Storm guard: last time this stream asked the agent for a keyframe.
    last_resync_ms: u64,
}

/// Per-agent adaptive retune state.
struct AdaptState {
    /// Currently requested period.
    period_ms: u32,
    /// Last time any subscription of this agent reported changed content
    /// (or was (re)tuned — retunes reset the quiet clock).
    last_change_ms: u64,
}

/// Minimum spacing of keyframe-resync retunes per subscription.
const RESYNC_GUARD_MS: u64 = 1_000;

/// The statistics iApp.
pub struct MonitorApp {
    cfg: MonitorConfig,
    db: Arc<Mutex<StatsDb>>,
    counters: Arc<MonitorCounters>,
    /// The SM descriptor behind each of our request ids.
    subs: std::collections::HashMap<(AgentId, RicRequestId), Arc<SmDescriptor>>,
    /// Delta reconstruction per subscription (delta/adaptive modes).
    decoders: std::collections::HashMap<(AgentId, RicRequestId), DecEntry>,
    /// Adaptive period state per agent.
    adapt: std::collections::HashMap<AgentId, AdaptState>,
    /// Per-shard reconstruct-time histogram, bound in `on_start`.
    reconstruct_ns: Option<flexric_obs::Histogram>,
}

impl MonitorApp {
    /// Creates the iApp; the returned handles read the store and counters.
    pub fn new(cfg: MonitorConfig) -> (Self, Arc<Mutex<StatsDb>>, Arc<MonitorCounters>) {
        let db = Arc::new(Mutex::new(StatsDb { sm_codec: cfg.sm_codec, ..Default::default() }));
        let counters = Arc::new(MonitorCounters::default());
        (Self::replica(cfg, db.clone(), counters.clone()), db, counters)
    }

    /// Creates another instance feeding the same store and counters — one
    /// per shard on a sharded controller ([`flexric::server::Server::spawn_sharded`]):
    /// each replica subscribes to the agents its shard owns, and the shared
    /// `Arc`s aggregate the combined view.
    pub fn replica(
        cfg: MonitorConfig,
        db: Arc<Mutex<StatsDb>>,
        counters: Arc<MonitorCounters>,
    ) -> Self {
        MonitorApp {
            cfg,
            db,
            counters,
            subs: std::collections::HashMap::new(),
            decoders: std::collections::HashMap::new(),
            adapt: std::collections::HashMap::new(),
            reconstruct_ns: None,
        }
    }

    fn delta_mode(&self) -> bool {
        self.cfg.mode != MonitorMode::Full
    }

    /// Issues a retune of every subscription of `agent` to `period_ms`.
    fn retune_agent(&mut self, api: &mut ServerApi, agent: AgentId, period_ms: u32) {
        let trigger = self.cfg.trigger_bytes(period_ms);
        for (&(a, req_id), _) in self.subs.iter() {
            if a == agent {
                api.retune_subscription(a, req_id, trigger.clone());
            }
        }
        self.counters.retunes.fetch_add(1, Ordering::Relaxed);
    }

    /// Anomaly predicates on reconstructed KPIs — iApp policy, applied to
    /// the SMs this iApp understands via downcast.  SMs without a rule
    /// (including third-party ones) are simply never anomalous.
    fn is_anomalous(snap: &(dyn Any + Send)) -> bool {
        if let Some(m) = snap.downcast_ref::<MacStatsInd>() {
            return m.ues.iter().any(|u| u.dl_backlog_bytes > BACKLOG_BYTES_THR);
        }
        if let Some(r) = snap.downcast_ref::<RlcStatsInd>() {
            return r.bearers.iter().any(|b| b.sojourn_us_avg > SOJOURN_US_THR);
        }
        false
    }

    /// Re-encodes one reconstructed snapshot through the SM's vtable and
    /// stores it.
    fn store_reconstruction(
        db: &Mutex<StatsDb>,
        codec: SmCodec,
        agent: AgentId,
        desc: &SmDescriptor,
        snap: &(dyn Any + Send),
        now_ms: u64,
    ) {
        let Some(raw) = desc.encode_indication(snap, codec) else { return };
        db.lock().expect("lock poisoned").store(agent, &desc.oid, bytes::Bytes::from(raw), now_ms);
    }
}

/// One frame of a delta stream: `dec` applies it and `store` is handed the
/// reconstruction, if there is one.  `hist` times both, from before the
/// apply: what a delta-mode indication costs the controller over a
/// full-mode one.  Frames that lose sync or fail to decode are timed too.
fn timed_reconstruction(
    hist: Option<&flexric_obs::Histogram>,
    dec: &mut dyn AnyDeltaDecoder,
    frame: &[u8],
    codec: SmCodec,
    store: impl FnOnce(&(dyn Any + Send)),
) -> flexric_codec::error::Result<AnyDeltaEvent> {
    let _t = hist.map(flexric_obs::Histogram::timer);
    let event = dec.apply(frame, codec)?;
    if let AnyDeltaEvent::Snapshot { snap, .. } = &event {
        store(&**snap);
    }
    Ok(event)
}

impl IApp for MonitorApp {
    fn on_start(&mut self, api: &mut ServerApi) {
        // PR 5 convention: every series this iApp can emit is registered
        // at zero from startup, idle or not — including the SM delta
        // series owned by flexric-sm.
        flexric_sm::delta::register_metrics();
        let _ = obs();
        let shard = api.shard().to_string();
        self.reconstruct_ns = Some(flexric_obs::histogram_with(
            "flexric_sm_reconstruct_ns",
            &[("shard", &shard)],
            "Time to apply one delta frame, re-encode the reconstruction and store it; \
             frames that lose sync or fail to decode count too; sampled: 1 call in 16 timed",
        ));
    }

    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        let trigger = self.cfg.trigger_bytes(self.cfg.period_ms);
        let registry = flexric_sm::registry::global();
        let mut want = Vec::new();
        if self.cfg.mac {
            want.push(oid::MAC_STATS);
        }
        if self.cfg.rlc {
            want.push(oid::RLC_STATS);
        }
        if self.cfg.pdcp {
            want.push(oid::PDCP_STATS);
        }
        if self.cfg.slice {
            want.push(oid::SLICE_CTRL);
        }
        for oid in want {
            let Some(desc) = registry.latest(oid) else { continue };
            // Prefer the advertised, version-compatible function id; fall
            // back to the descriptor's well-known id for agents with terse
            // definitions.
            let rf_id = agent
                .function_by_oid_compat(&desc.oid, desc.version.into())
                .map(|f| f.id)
                .unwrap_or(RanFunctionId::new(desc.ran_function_id));
            if agent.function(rf_id).is_none() {
                continue;
            }
            let req = api.subscribe_report(agent.id, rf_id, trigger.clone());
            self.subs.insert((agent.id, req), desc.clone());
        }
        if self.cfg.mode == MonitorMode::Adaptive {
            self.adapt.insert(
                agent.id,
                AdaptState { period_ms: self.cfg.period_ms, last_change_ms: api.now_ms() },
            );
        }
    }

    fn on_agent_disconnected(&mut self, _api: &mut ServerApi, agent: AgentId) {
        self.subs.retain(|(a, _), _| *a != agent);
        self.decoders.retain(|(a, _), _| *a != agent);
        self.adapt.remove(&agent);
        self.db.lock().expect("lock poisoned").remove_agent(agent);
    }

    fn on_indication(&mut self, api: &mut ServerApi, agent: AgentId, ind: &IndicationRef) {
        self.counters.indications.fetch_add(1, Ordering::Relaxed);
        obs().indications.inc();
        let Ok((_, msg)) = ind.sm_payload() else { return };
        self.counters.bytes.fetch_add(msg.len() as u64, Ordering::Relaxed);
        obs().bytes.add(msg.len() as u64);
        let req_id = ind.req_id();
        let Some(desc) = self.subs.get(&(agent, req_id)).cloned() else { return };

        if !self.delta_mode() {
            if !self.cfg.store {
                return;
            }
            // Write path: store the encoded payload under the SM's OID;
            // decoding happens lazily on read.  `Bytes::copy_from_slice`
            // is the only copy.
            let raw = bytes::Bytes::copy_from_slice(msg);
            self.db.lock().expect("lock poisoned").store(agent, &desc.oid, raw, api.now_ms());
            return;
        }

        // Delta path: reconstruct the snapshot from the frame with the
        // SM's own delta decoder, obtained from its registry vtable.
        let codec = self.cfg.sm_codec;
        let entry = match self.decoders.entry((agent, req_id)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => match desc.delta_decoder() {
                Some(dec) => v.insert(DecEntry { dec, last_resync_ms: 0 }),
                None => {
                    // The SM has no delta hooks, so its agent side can only
                    // have sent full snapshots: store them as-is.
                    if self.cfg.store {
                        let raw = bytes::Bytes::copy_from_slice(msg);
                        self.db.lock().expect("lock poisoned").store(
                            agent,
                            &desc.oid,
                            raw,
                            api.now_ms(),
                        );
                    }
                    return;
                }
            },
        };
        let mut changed = false;
        let mut anomaly = false;
        let mut need_keyframe = false;
        let last_resync_ms = entry.last_resync_ms;
        let now = api.now_ms();
        let (store, db) = (self.cfg.store, &self.db);
        let hist = self.reconstruct_ns.as_ref();
        match timed_reconstruction(hist, &mut *entry.dec, msg, codec, |snap| {
            if store {
                Self::store_reconstruction(db, codec, agent, &desc, snap, now);
            }
        }) {
            Ok(AnyDeltaEvent::Snapshot { snap, changed: ch }) => {
                changed = ch;
                anomaly = Self::is_anomalous(&*snap);
            }
            Ok(AnyDeltaEvent::NeedKeyframe) => need_keyframe = true,
            Err(_) => {
                self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if need_keyframe {
            // The stream lost sync (restart, loss, divergence): re-issue
            // the subscription so the agent bumps the epoch and keyframes.
            // Rate-limited per subscription to survive pathological peers.
            self.counters.resyncs.fetch_add(1, Ordering::Relaxed);
            let guard_ok = now.saturating_sub(last_resync_ms) >= RESYNC_GUARD_MS;
            if guard_ok {
                if let Some(e) = self.decoders.get_mut(&(agent, req_id)) {
                    e.last_resync_ms = now;
                }
                let period =
                    self.adapt.get(&agent).map(|s| s.period_ms).unwrap_or(self.cfg.period_ms);
                let trigger = self.cfg.trigger_bytes(period);
                api.retune_subscription(agent, req_id, trigger);
                self.counters.retunes.fetch_add(1, Ordering::Relaxed);
                obs().retunes_resync.inc();
            }
            return;
        }
        if self.cfg.mode != MonitorMode::Adaptive {
            return;
        }
        // Adaptive state machine, tighten half: an anomaly on the
        // reconstructed KPIs snaps the period to the minimum.
        let Some(state) = self.adapt.get_mut(&agent) else { return };
        if changed || anomaly {
            state.last_change_ms = now;
        }
        if anomaly && state.period_ms > MIN_PERIOD_MS {
            state.period_ms = MIN_PERIOD_MS;
            state.last_change_ms = now;
            obs().retunes_tighten.inc();
            self.retune_agent(api, agent, MIN_PERIOD_MS);
        }
    }

    fn on_tick(&mut self, api: &mut ServerApi, now_ms: u64) {
        if let Some(ttl) = self.cfg.stale_ttl_ms {
            self.db.lock().expect("lock poisoned").evict_stale(now_ms, ttl);
        }
        if self.cfg.mode != MonitorMode::Adaptive {
            return;
        }
        // Backoff half: agents whose content has not changed for
        // `QUIET_PERIODS` report periods get their period doubled (up to
        // the cap); any change or anomaly resets the quiet clock, and the
        // tighten half snaps them back to the minimum immediately.
        let mut backoffs = Vec::new();
        for (&agent, state) in self.adapt.iter_mut() {
            if state.period_ms >= MAX_PERIOD_MS {
                continue;
            }
            let quiet_ms = QUIET_PERIODS as u64 * state.period_ms.max(1) as u64;
            if now_ms.saturating_sub(state.last_change_ms) >= quiet_ms {
                state.period_ms = (state.period_ms.saturating_mul(2)).min(MAX_PERIOD_MS);
                // Space successive backoffs by a fresh quiet interval.
                state.last_change_ms = now_ms;
                backoffs.push((agent, state.period_ms));
            }
        }
        for (agent, period) in backoffs {
            obs().retunes_backoff.inc();
            self.retune_agent(api, agent, period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: departed reporters' rows used to live forever — only a
    /// clean agent disconnect pruned them.  TTL eviction must drop rows
    /// that stop being refreshed while keeping live ones untouched.
    #[test]
    fn statsdb_ttl_evicts_stale_rows() {
        let mut db = StatsDb::default();
        db.store(1, oid::MAC_STATS, bytes::Bytes::from_static(b"a"), 1_000);
        db.store(2, oid::MAC_STATS, bytes::Bytes::from_static(b"b"), 1_000);
        db.store(2, oid::RLC_STATS, bytes::Bytes::from_static(b"c"), 1_000);
        // Agent 2 keeps reporting; agent 1 churns out silently.
        db.store(2, oid::MAC_STATS, bytes::Bytes::from_static(b"b2"), 30_000);
        db.store(2, oid::RLC_STATS, bytes::Bytes::from_static(b"c2"), 30_000);
        assert_eq!(db.evict_stale(31_000, 60_000), 0, "nothing stale yet");
        let evicted = db.evict_stale(62_000, 60_000);
        assert_eq!(evicted, 1, "agent 1's abandoned row evicted");
        assert!(db.raw(1, oid::MAC_STATS).is_none());
        assert_eq!(db.raw(2, oid::MAC_STATS).unwrap().as_ref(), b"b2");
        assert_eq!(db.agents(), vec![2]);
        // A refresh resurrects the TTL clock.
        db.store(2, oid::MAC_STATS, bytes::Bytes::from_static(b"b3"), 100_000);
        assert_eq!(db.evict_stale(120_000, 60_000), 1, "only the RLC row aged out");
        assert!(db.raw(2, oid::MAC_STATS).is_some());
    }

    /// The reconstruct histogram used to start its clock after the apply:
    /// it must cover the decoder and the store.  A frame that reconstructs
    /// no snapshot is timed too, as the series' help says.  The timer
    /// samples its calls, so each case repeats until one call is timed.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn reconstruct_histogram_covers_apply_and_store() {
        use std::time::Duration;

        /// Takes a while over every frame; an empty one loses sync.
        struct Slow;
        impl AnyDeltaDecoder for Slow {
            fn apply(
                &mut self,
                frame: &[u8],
                _: SmCodec,
            ) -> flexric_codec::error::Result<AnyDeltaEvent> {
                std::thread::sleep(Duration::from_micros(300));
                Ok(match frame {
                    [] => AnyDeltaEvent::NeedKeyframe,
                    _ => AnyDeltaEvent::Snapshot { snap: Box::new(7u8), changed: true },
                })
            }
        }

        let hist = flexric_obs::Histogram::new();
        for calls in 0.. {
            if hist.snapshot().count == 1 {
                break;
            }
            assert!(calls < 1_000, "no call timed");
            let mut stored = None;
            let event =
                timed_reconstruction(Some(&hist), &mut Slow, b"frame", SmCodec::Flatb, |snap| {
                    std::thread::sleep(Duration::from_micros(200));
                    stored = snap.downcast_ref::<u8>().copied();
                });
            assert!(matches!(event, Ok(AnyDeltaEvent::Snapshot { changed: true, .. })));
            assert_eq!(stored, Some(7));
        }
        let seen = hist.snapshot();
        assert!(seen.min >= 500_000, "apply (300 µs) + store (200 µs), not {} ns", seen.min);

        for calls in 0.. {
            if hist.snapshot().count == 2 {
                break;
            }
            assert!(calls < 1_000, "no lost frame timed");
            let event = timed_reconstruction(Some(&hist), &mut Slow, b"", SmCodec::Flatb, |_| {
                panic!("nothing to store")
            });
            assert!(matches!(event, Ok(AnyDeltaEvent::NeedKeyframe)));
        }
    }

    #[test]
    fn statsdb_eviction_disabled_with_long_ttl() {
        let mut db = StatsDb::default();
        db.store(7, oid::PDCP_STATS, bytes::Bytes::from_static(b"x"), 0);
        assert_eq!(db.evict_stale(u64::MAX / 2, u64::MAX / 2), 0);
        assert!(db.raw(7, oid::PDCP_STATS).is_some());
    }
}
