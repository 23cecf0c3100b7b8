//! A third-party service model, end to end, with zero core edits.
//!
//! Everything specific to the SM lives in this file: the field table its
//! payload, codecs and delta hooks are derived from, the versioned
//! descriptor, the agent-side RAN function, and the consuming iApp.
//! Nothing under `crates/sm` or `crates/ctrl` knows it exists — the
//! descriptor registers in the process-wide [`flexric_sm::registry`], the
//! agent advertises `oid@version` from it at E2 Setup, the server
//! negotiates it like any bundled SM, and the iApp reconstructs the delta
//! stream through the registry vtable.
//!
//! ```text
//! cargo run --release --example custom_sm
//! ```
//!
//! Exits 0 once indications flow and decode; panics otherwise (the CI
//! smoke job relies on that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use flexric::agent::{Admission, Agent, AgentConfig, AgentCtx, Due, SubscriptionInfo};
use flexric::report::ReportStream;
use flexric::server::{AgentId, AgentInfo, IApp, IndicationRef, Server, ServerApi, ServerConfig};
use flexric_e2ap::*;
use flexric_sm::registry::{self, AnyDeltaDecoder, AnyDeltaEvent, SmDescriptor, SmVersion};
use flexric_sm::{RanFuncDef, ReportTrigger, SmCodec, SmPayload};
use flexric_transport::TransportAddr;

/// The custom SM's identity.
const GEO_RF: u16 = 200;
const GEO_OID: &str = "example.sm.geoloc";
const GEO_VERSION: SmVersion = SmVersion::new(1, 1);

// ---------------------------------------------------------------------------
// 1. The payload: one field table.  PER, FB and PB codecs, `SmPayload` and
//    the delta-stream hooks (`DeltaRows`) are derived from it.
// ---------------------------------------------------------------------------

flexric_sm::sm_rows! {
    /// One UE's geolocation fix.
    pub struct GeoFix {
        key {
            /// The UE.
            rnti: u16 = bits(16),
        }
        /// Latitude + 90°, in microdegrees.
        lat_udeg: u32 = range(0, 180_000_000),
        /// Longitude + 180°, in microdegrees.
        lon_udeg: u32 = range(0, 360_000_000),
        /// Altitude in centimetres.
        alt_cm: u32 = uint,
    }
}

flexric_sm::sm_snapshot! {
    /// The fixes of a cell's UEs, the indication message of the custom SM.
    pub struct GeoLocInd: "geoloc" {
        /// Snapshot time in milliseconds.
        tstamp_ms: u64;
        /// Per-UE fixes.
        fixes: Vec<GeoFix>,
    }
}

// ---------------------------------------------------------------------------
// 2. The descriptor — registered like any plugin, never baked in.
// ---------------------------------------------------------------------------

fn register_geo_sm() -> Arc<SmDescriptor> {
    registry::global()
        .register(
            SmDescriptor::new(
                GEO_RF,
                GEO_OID,
                GEO_VERSION,
                RanFuncDef::simple("GEOLOC", "example UE geolocation SM"),
            )
            .trigger::<ReportTrigger>()
            .indication::<GeoLocInd>()
            .delta::<GeoLocInd>(),
        )
        .expect("geo SM registers once")
}

// ---------------------------------------------------------------------------
// 3. Agent side: a RAN function whose identity comes from the descriptor.
// ---------------------------------------------------------------------------

struct GeoFn {
    /// Id, OID, version and definition, as the descriptor advertises them.
    identity: RanFunctionItem,
    sm_codec: SmCodec,
    steps: u64,
}

impl flexric::agent::RanFunction for GeoFn {
    fn identity(&self) -> &RanFunctionItem {
        &self.identity
    }
    fn on_subscription(
        &mut self,
        _ctx: &mut AgentCtx,
        _sub: &SubscriptionInfo,
        req: &RicSubscriptionRequest,
    ) -> Result<Admission, Cause> {
        // Periodic under the request's ReportTrigger; the agent keeps the
        // stream — full snapshots or keyframe/delta frames, as the trigger
        // asks — with the subscription and says when a report is due.
        let stream = ReportStream::<GeoLocInd>::new(self.sm_codec);
        Ok(Admission::report(req, self.sm_codec)?.with_state(stream))
    }
    fn on_report(&mut self, ctx: &mut AgentCtx, mut due: Due<'_>) {
        for sub in due.iter_mut() {
            self.steps += 1;
            // One UE walks north-east, one step per report; the other is
            // parked, so a delta frame carries the walker's row alone.
            let walker = GeoFix {
                rnti: 0x4601,
                lat_udeg: 133_615_000 + self.steps as u32,
                lon_udeg: 187_071_000 + self.steps as u32,
                alt_cm: 12_000,
            };
            let parked =
                GeoFix { rnti: 0x4602, lat_udeg: 133_620_000, lon_udeg: 187_080_000, alt_cm: 900 };
            let ind = GeoLocInd { tstamp_ms: ctx.now_ms, fixes: vec![walker, parked] };
            sub.report(ctx, &ind, Some(self.steps as u32), Bytes::new());
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Server side: an iApp that discovers the SM and reconstructs its delta
//    stream via the registry.
// ---------------------------------------------------------------------------

struct GeoApp {
    sm_codec: SmCodec,
    /// The stream's decoder, from the descriptor's delta hooks.
    dec: Box<dyn AnyDeltaDecoder>,
    reports: Arc<AtomicU64>,
    last: Arc<std::sync::Mutex<Option<GeoLocInd>>>,
}

impl IApp for GeoApp {
    fn on_agent_connected(&mut self, api: &mut ServerApi, agent: &AgentInfo) {
        // The setup negotiation already filtered the function list against
        // the registry; a version-compatible match means we can subscribe.
        let desc = registry::global().latest(GEO_OID).expect("geo SM registered");
        let Some(f) = agent.function_by_oid_compat(GEO_OID, desc.version.into()) else { return };
        println!(
            "geo iApp: agent {} advertises {}@{}.{}",
            agent.id, f.oid, f.version.major, f.version.minor
        );
        let trigger = Bytes::from(ReportTrigger::delta_every_ms(1, 16).encode(self.sm_codec));
        api.subscribe_report(agent.id, f.id, trigger);
    }

    fn on_indication(&mut self, _api: &mut ServerApi, _agent: AgentId, ind: &IndicationRef) {
        let Ok((_, msg)) = ind.sm_payload() else { return };
        // Keyframes and deltas alike go through the vtable's decoder — the
        // iApp never names the codec fns.
        match self.dec.apply(msg, self.sm_codec).expect("geo frame") {
            AnyDeltaEvent::Snapshot { snap, .. } => {
                let geo = snap.downcast::<GeoLocInd>().expect("geo concrete type");
                *self.last.lock().expect("lock poisoned") = Some(*geo);
                self.reports.fetch_add(1, Ordering::Relaxed);
            }
            AnyDeltaEvent::NeedKeyframe => panic!("the ordered mem transport lost a frame"),
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Wire it together over the in-memory transport.
// ---------------------------------------------------------------------------

fn main() {
    let desc = register_geo_sm();
    println!("registered {}", desc.label());
    assert_eq!(
        registry::global().negotiate(GEO_OID, SmVersion::new(1, 0)).unwrap().version,
        GEO_VERSION,
        "minor-version skew negotiates to the highest registered minor"
    );

    let sm_codec = SmCodec::Flatb;
    let reports = Arc::new(AtomicU64::new(0));
    let last = Arc::new(std::sync::Mutex::new(None));
    let dec = desc.delta_decoder().expect("the table derives delta hooks");
    let app = GeoApp { sm_codec, dec, reports: reports.clone(), last: last.clone() };

    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem("custom-sm".into()));
    cfg.tick_ms = Some(5);
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("server");

    let geo = GeoFn { identity: desc.advertisement(sm_codec), sm_codec, steps: 0 };
    let mut acfg = AgentConfig::new(
        GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 1),
        server.addrs[0].clone(),
    );
    acfg.tick_ms = Some(1);
    let agent = Agent::spawn(acfg, vec![Box::new(geo)]).expect("agent");

    // Wait until reports flow and reconstruct (one keyframe in 16, the
    // rest deltas).
    for _ in 0..500 {
        if reports.load(Ordering::Relaxed) >= 20 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let n = reports.load(Ordering::Relaxed);
    assert!(n >= 20, "expected at least 20 geolocation reports, got {n}");
    let ind = last.lock().expect("lock poisoned").clone().expect("a reconstructed report");
    let (walker, parked) = (ind.fixes[0], ind.fixes[1]);
    assert_eq!((walker.rnti, parked.rnti), (0x4601, 0x4602));
    assert!(walker.lat_udeg > 133_615_000 && walker.lon_udeg > 187_071_000);
    assert_eq!(parked.alt_cm, 900);
    println!(
        "custom SM end-to-end: {n} reports reconstructed via the registry vtable; \
         walker at ({:.6}°, {:.6}°)",
        walker.lat_udeg as f64 / 1e6 - 90.0,
        walker.lon_udeg as f64 / 1e6 - 180.0,
    );

    agent.stop();
    server.stop();
}
