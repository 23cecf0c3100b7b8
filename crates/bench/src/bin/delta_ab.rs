//! Component A/B of the adaptive-monitoring pipeline: signaling bytes of
//! full vs delta vs adaptive reporting over the time-varying KPI workload,
//! with byte-identical reconstruction asserted on every applied frame.
//!
//! This drives the `flexric_sm::delta` codec and the `ransim::kpi`
//! workload generator for 1000 simulated agents × 3 SMs in-process, with
//! no transport or server in between, so the measured bytes are exactly
//! the SM payload bytes the mem-transport A/B (`fig7b_monitoring_cost`)
//! carries per indication.  The adaptive mode simulates the server's retune state
//! machine (backoff on quiescence, tighten on anomaly) and charges each
//! retune a conservative E2AP subscription-PDU cost against the savings.
//!
//! Prints the BENCH_fig7b.json document on stdout; exits non-zero if
//! delta or adaptive fail the ≥3x savings bar or any reconstruction
//! diverges.

use std::time::Instant;

use flexric_ransim::kpi::KpiGen;
use flexric_sm::delta::{
    content_hash, DeltaDecoder, DeltaEncoder, DeltaEvent, DeltaOut, DeltaRows,
};
use flexric_sm::{SmCodec, SmPayload};

const AGENTS: usize = 1000;
const UES: usize = 32;
const TICKS: u64 = 400; // 4 full quiet/active/burst cycles per agent
const KEYFRAME_EVERY: u32 = 16;
/// Adaptive retune state machine: the monitoring iApp's anomaly threshold
/// (`flexric_ctrl::monitoring::BACKLOG_BYTES_THR`), with a lower cap and a
/// shorter quiet spell than its `MAX_PERIOD_MS` / `QUIET_PERIODS`.
const MAX_PERIOD: u64 = 64;
const QUIET_PERIODS: u64 = 4;
const BACKLOG_THR: u64 = 500_000;
/// Conservative wire cost charged per retune (RIC Subscription Request +
/// Response with the re-encoded trigger, FB E2AP framing included).
const RETUNE_PDU_BYTES: u64 = 96;

#[derive(Default, Clone, Copy)]
struct Tally {
    bytes: u64,
    reports: u64,
    suppressed: u64,
    keyframes: u64,
    deltas: u64,
    retunes: u64,
    reconstruct_ns: u64,
    reconstructed: u64,
}

/// One delta stream under test: encoder, mirror decoder, identity checks.
struct Stream<T: DeltaRows + SmPayload + Clone + PartialEq> {
    enc: DeltaEncoder<T>,
    dec: DeltaDecoder<T>,
    /// Byte-compare the re-encoded reconstruction on sampled agents (the
    /// content hash is checked on every frame for every agent).
    byte_check: bool,
}

impl<T: DeltaRows + SmPayload + Clone + PartialEq> Stream<T> {
    fn new(byte_check: bool) -> Self {
        Stream { enc: DeltaEncoder::new(KEYFRAME_EVERY), dec: DeltaDecoder::new(), byte_check }
    }

    fn report(&mut self, src: &T, codec: SmCodec, t: &mut Tally) {
        t.reports += 1;
        let frame = match self.enc.encode(src, codec) {
            DeltaOut::Suppressed => {
                t.suppressed += 1;
                return;
            }
            DeltaOut::Keyframe(f) => {
                t.keyframes += 1;
                f
            }
            DeltaOut::Delta(f) => {
                t.deltas += 1;
                f
            }
        };
        t.bytes += frame.len() as u64;
        let t0 = Instant::now();
        let ev = self.dec.apply(&frame, codec).expect("frame decodes");
        t.reconstruct_ns += t0.elapsed().as_nanos() as u64;
        t.reconstructed += 1;
        match ev {
            DeltaEvent::Snapshot { snap, .. } => {
                assert_eq!(
                    content_hash(&snap),
                    content_hash(src),
                    "reconstructed content diverged from source"
                );
                if self.byte_check {
                    assert_eq!(
                        snap.encode(codec),
                        src.encode(codec),
                        "reconstruction is not byte-identical after re-encode"
                    );
                }
            }
            DeltaEvent::NeedKeyframe { reason } => {
                panic!("lossless in-process stream lost sync: {reason}")
            }
        }
    }
}

/// Per-agent adaptive period state (mirrors the monitoring iApp).
struct Adapt {
    period: u64,
    quiet: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct ModeRun {
    codec: &'static str,
    mode: &'static str,
    tally: Tally,
    window_ms: u64,
}

fn run_mode(codec: SmCodec, mode: &'static str) -> ModeRun {
    let codec_name = match codec {
        SmCodec::Asn1Per => "per",
        SmCodec::Flatb => "fb",
    };
    let mut gens: Vec<KpiGen> = (0..AGENTS).map(|i| KpiGen::new(i as u64, UES)).collect();
    let mut macs = Vec::new();
    let mut rlcs = Vec::new();
    let mut pdcps = Vec::new();
    let mut adapts = Vec::new();
    for i in 0..AGENTS {
        let byte_check = i % 97 == 0;
        macs.push(Stream::new(byte_check));
        rlcs.push(Stream::new(byte_check));
        pdcps.push(Stream::new(byte_check));
        adapts.push(Adapt { period: 1, quiet: 0 });
    }
    let mut t = Tally::default();
    for tick in 1..=TICKS {
        for i in 0..AGENTS {
            gens[i].step(tick);
            match mode {
                "full" => {
                    t.reports += 3;
                    t.bytes += gens[i].mac().encode(codec).len() as u64;
                    t.bytes += gens[i].rlc().encode(codec).len() as u64;
                    t.bytes += gens[i].pdcp().encode(codec).len() as u64;
                }
                "delta" => {
                    macs[i].report(gens[i].mac(), codec, &mut t);
                    rlcs[i].report(gens[i].rlc(), codec, &mut t);
                    pdcps[i].report(gens[i].pdcp(), codec, &mut t);
                }
                "adaptive" => {
                    let a = &mut adapts[i];
                    if tick % a.period != 0 {
                        continue;
                    }
                    let before = t.suppressed;
                    macs[i].report(gens[i].mac(), codec, &mut t);
                    rlcs[i].report(gens[i].rlc(), codec, &mut t);
                    pdcps[i].report(gens[i].pdcp(), codec, &mut t);
                    let all_suppressed = t.suppressed == before + 3;
                    let anomaly =
                        gens[i].mac().ues.iter().any(|u| u.dl_backlog_bytes > BACKLOG_THR);
                    // Period-only retunes are *soft* (the ordered
                    // transport preserves sequence continuity, so the
                    // delta base survives); only the E2AP PDU is charged.
                    if anomaly && a.period > 1 {
                        a.period = 1;
                        a.quiet = 0;
                        t.retunes += 1;
                        t.bytes += RETUNE_PDU_BYTES;
                    } else if all_suppressed {
                        a.quiet += 1;
                        if a.quiet >= QUIET_PERIODS && a.period < MAX_PERIOD {
                            a.period = (a.period * 2).min(MAX_PERIOD);
                            a.quiet = 0;
                            t.retunes += 1;
                            t.bytes += RETUNE_PDU_BYTES;
                        }
                    } else {
                        a.quiet = 0;
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    ModeRun { codec: codec_name, mode, tally: t, window_ms: TICKS }
}

fn main() {
    let mut runs = Vec::new();
    for codec in [SmCodec::Flatb, SmCodec::Asn1Per] {
        for mode in ["full", "delta", "adaptive"] {
            runs.push(run_mode(codec, mode));
        }
    }

    let bytes_of = |codec: &str, mode: &str| {
        runs.iter().find(|r| r.codec == codec && r.mode == mode).map(|r| r.tally.bytes).unwrap()
    };
    let mut ok = true;
    let mut savings = Vec::new();
    for codec in ["fb", "per"] {
        let full = bytes_of(codec, "full") as f64;
        let d = full / bytes_of(codec, "delta") as f64;
        let a = full / bytes_of(codec, "adaptive") as f64;
        if d < 3.0 || a < 3.0 {
            ok = false;
        }
        savings.push((codec, d, a));
    }

    let note = format!(
        "Component run, no transport or server (fig7b_monitoring_cost is the full-stack \
         mem-transport sweep): measured SM payload bytes from \
         the delta codec (flexric_sm::delta) over the time-varying workload \
         (ransim::kpi) for {AGENTS} agents x 3 SMs x {TICKS} report periods, with \
         reconstruction content-hash-verified on every frame and byte-identity-verified on \
         every ~100th agent; adaptive retunes are charged {RETUNE_PDU_BYTES} B each. Since \
         FB tables of one layout share a vtable (PR 13) a full FB report is 2300 B, not 3044 B, \
         and the FB saving ratios fell with it (delta 8.81x -> 7.69x, adaptive 9.24x -> 8.02x): \
         the baseline shrank, the delta streams did not grow (their bytes fell too, by the \
         smaller keyframes; suppressed/keyframe/delta counts are unchanged, as is PER). \
         `cargo run --release -p flexric-bench --bin fig7b_monitoring_cost` overwrites this \
         file with end-to-end points (same --out flag and schema)."
    );

    let mut points = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            points.push_str(",\n");
        }
        let t = &r.tally;
        let bps = t.bytes as f64 * 1_000.0 / r.window_ms as f64;
        let rec_ns = t.reconstruct_ns.checked_div(t.reconstructed).unwrap_or(0);
        points.push_str(&format!(
            "    {{\"agents\": {AGENTS}, \"sm_codec\": \"{}\", \"mode\": \"{}\", \
             \"window_ms\": {}, \"reports\": {}, \"sm_bytes\": {}, \
             \"bytes_per_simulated_s\": {:.0}, \"suppressed\": {}, \"keyframes\": {}, \
             \"deltas\": {}, \"retunes\": {}, \"reconstruct_ns_avg\": {}}}",
            r.codec,
            r.mode,
            r.window_ms,
            t.reports,
            t.bytes,
            bps,
            t.suppressed,
            t.keyframes,
            t.deltas,
            t.retunes,
            rec_ns,
        ));
    }
    let mut savings_json = String::new();
    for (i, (codec, d, a)) in savings.iter().enumerate() {
        if i > 0 {
            savings_json.push_str(", ");
        }
        savings_json.push_str(&format!(
            "{{\"sm_codec\": \"{codec}\", \"delta_savings\": {d:.2}, \
             \"adaptive_savings\": {a:.2}}}"
        ));
    }
    println!(
        "{{\n  \"bench\": \"fig7b\",\n  \"source\": \"cargo run --release -p flexric-bench --bin \
         delta_ab (delta codec + kpi workload, no transport)\",\n  \"status\": \
         \"measured-offline-components\",\n  \"note\": \"{}\",\n  \"ues_per_agent\": {UES},\n  \
         \"sms_per_agent\": 3,\n  \"keyframe_every\": {KEYFRAME_EVERY},\n  \
         \"savings_at_{AGENTS}_agents\": [{savings_json}],\n  \"points\": [\n{points}\n  ]\n}}",
        json_escape(&note),
    );
    for (codec, d, a) in &savings {
        eprintln!("{codec}: delta {d:.2}x, adaptive {a:.2}x vs full");
    }
    if !ok {
        eprintln!("FAIL: savings below the 3x acceptance bar");
        std::process::exit(1);
    }
}
