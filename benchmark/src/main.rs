//! The benchmark harness: one indication from simulator TTI to the store,
//! one control decision back down until its effect shows in the next
//! report, single-threaded, every layer called from outside.
//!
//!   bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!   bench --list
//!
//! A run repeats the workload's fixed work ("a block": build the world from
//! the seed, warm up, run the timed ticks) until `--seconds` have passed.
//! Every block does the same work on the same inputs, so its counts must
//! repeat exactly — that is checked — and a timing is, position by
//! position, that of the fastest block (`stats::fastest` says why not the
//! median); `setup_s` is the median over blocks.  With `--trace 1` every
//! other block records spans; the per-layer metrics come from those, and the
//! tracing overhead from the difference to the untraced ones.  The last line
//! of stdout is the result as one JSON object; the exit code is non-zero if
//! any output was wrong.

mod alloc;
mod block;
mod glue;
mod mon;
mod sla;
mod stats;
mod storm;
mod trace;

use std::time::Instant;

use flexric_codec::E2apCodec;
use flexric_sm::{ReportMode, SmCodec};

use block::BlockOut;
use glue::Counts;
use trace::{Analysis, Tracer, L};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

enum Work {
    Mon(mon::MonCfg),
    Storm(storm::StormCfg),
    Sla(sla::SlaCfg),
}

const WORKLOADS: [&str; 5] =
    ["mon-full-fb", "mon-full-per", "mon-delta-fb", "ctrl-storm", "sla-loop"];

/// The fixed work of one block, per workload.  `smoke` shrinks it so that
/// all five finish in seconds; smoke numbers mean nothing.
fn workload(name: &str, smoke: bool) -> Option<Work> {
    // Warm-up is sized so that a block's set-up takes at least 0.5 s here.
    let (agents, ticks, warmup) = if smoke { (32, 16, 4) } else { (256, 100, 100) };
    let mon = |e2ap, sm, mode| {
        Work::Mon(mon::MonCfg { agents, ues: 32, ticks, warmup_ticks: warmup, e2ap, sm, mode })
    };
    Some(match name {
        "mon-full-fb" => mon(E2apCodec::Flatb, SmCodec::Flatb, ReportMode::Full),
        "mon-full-per" => mon(E2apCodec::Asn1Per, SmCodec::Asn1Per, ReportMode::Full),
        "mon-delta-fb" => {
            mon(E2apCodec::Flatb, SmCodec::Flatb, ReportMode::Delta { keyframe_every: 16 })
        }
        "ctrl-storm" => Work::Storm(storm::StormCfg {
            agents,
            ues: 8,
            steps: if smoke { 20 } else { 250 },
            warmup_steps: if smoke { 5 } else { 250 },
            e2ap: E2apCodec::Flatb,
            sm: SmCodec::Flatb,
        }),
        "sla-loop" => Work::Sla(sla::SlaCfg {
            seeds: if smoke { 1 } else { 8 },
            presets: &["commuter-rush", "flash-crowd"],
            virtual_ms: if smoke { 5_000 } else { 17_000 },
            report_ms: 10,
            eval_ms: 100,
            e2ap: E2apCodec::Asn1Per,
            sm: SmCodec::Flatb,
        }),
        _ => return None,
    })
}

impl Work {
    fn describe(&self) -> String {
        match self {
            Work::Mon(c) => format!(
                "agents={} ues={} ticks={} warmup_ticks={} e2ap={} sm={} mode={:?}",
                c.agents,
                c.ues,
                c.ticks,
                c.warmup_ticks,
                c.e2ap.label(),
                c.sm.label(),
                c.mode
            ),
            Work::Storm(c) => format!(
                "agents={} ues={} steps={} warmup_steps={} e2ap={} sm={}",
                c.agents,
                c.ues,
                c.steps,
                c.warmup_steps,
                c.e2ap.label(),
                c.sm.label()
            ),
            Work::Sla(c) => format!(
                "episodes={} seeds x {:?} MODIFIED (no bursty UEs: their weight to greedy, slices web and mbb swapped) virtual_ms={} report_ms={} eval_ms={} e2ap={} sm={}",
                c.seeds,
                c.presets,
                c.virtual_ms,
                c.report_ms,
                c.eval_ms,
                c.e2ap.label(),
                c.sm.label()
            ),
        }
    }

    /// Every k-th slab is traced.
    fn trace_k(&self) -> usize {
        match self {
            Work::Mon(_) | Work::Storm(_) => 16,
            Work::Sla(_) => 64,
        }
    }

    /// One block: builds the world from `seed` and warms it up, then runs
    /// the timed rounds into the empty `out`, recording spans if `traced`.
    /// Returns the set-up time.
    fn block(&self, seed: u64, tr: &mut Tracer, traced: bool, out: &mut BlockOut) -> f64 {
        fn go<W>(
            tr: &mut Tracer,
            traced: bool,
            out: &mut BlockOut,
            new: impl FnOnce(&mut Tracer) -> W,
            run: impl FnOnce(&mut W, &mut Tracer, &mut BlockOut),
        ) -> f64 {
            let t0 = Instant::now();
            tr.start_block(false);
            let mut world = new(tr);
            let setup_s = t0.elapsed().as_secs_f64();
            tr.start_block(traced);
            run(&mut world, tr, out);
            tr.end_block();
            setup_s
        }
        match self {
            Work::Mon(c) => go(tr, traced, out, |tr| mon::Mon::new(*c, seed, tr), mon::Mon::run),
            Work::Storm(c) => {
                go(tr, traced, out, |tr| storm::Storm::new(*c, seed, tr), storm::Storm::run)
            }
            Work::Sla(c) => go(tr, traced, out, |tr| sla::Sla::new(*c, seed, tr), sla::Sla::run),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                println!("{}", WORKLOADS.join("\n"));
                std::process::exit(0);
            }
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required (see --list)".into());
    }
    Ok(a)
}

/// What is kept of the blocks of a run.  A block's samples are folded into
/// `plain` or `traced`, so memory does not grow with the number of blocks
/// that fit into `--seconds`.
#[derive(Default)]
struct Blocks {
    setup_s: Vec<f64>,
    /// Position by position the fastest untraced block, with their count,
    /// and the same of the traced ones.
    plain: (BlockOut, usize),
    traced: (BlockOut, usize),
    analyses: Vec<Analysis>,
    attempted: u64,
    failed: u64,
}

impl Blocks {
    fn push(&mut self, setup_s: f64, out: &mut BlockOut, analysis: Option<Analysis>) {
        self.setup_s.push(setup_s);
        self.attempted += out.counts.attempted;
        self.failed += out.counts.failed;
        let (best, n) = if analysis.is_some() { &mut self.traced } else { &mut self.plain };
        if *n == 0 {
            std::mem::swap(best, out);
        } else {
            best.keep_fastest(out);
        }
        *n += 1;
        self.analyses.extend(analysis);
    }

    /// The counts every block repeated (the first block's).
    fn counts(&self) -> &Counts {
        &self.plain.0.counts
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit, note: String::new() }
}

/// p50, p99 (µs) and a note with the highest percentile the sample
/// supports.
fn latency(ns: &[u32]) -> (f64, f64, String) {
    let mut ns: Vec<u64> = ns.iter().map(|&x| x as u64).collect();
    ns.sort_unstable();
    let us = |p| flexric_obs::percentile(&ns, p) as f64 / 1e3;
    let note = match stats::high_percentile(&ns) {
        Some((p, v)) => format!("p{p} = {:.1} us over {} samples", v as f64 / 1e3, ns.len()),
        None => format!("{} samples", ns.len()),
    };
    (us(50.0), us(99.0), note)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn rounds_sum(out: &BlockOut, f: fn(&block::Round) -> u64) -> f64 {
    out.rounds.iter().map(|r| f(r) as f64).sum()
}

fn end_to_end(blocks: &Blocks, init_s: f64) -> Vec<Metric> {
    let (plain, n) = &blocks.plain;
    let (opportunities, stored) =
        plain.rounds.iter().fold((0, 0), |(o, s), r| (o + r.opportunities, s + r.stored));
    let how = format!("sum over {} rounds of the fastest of {n} blocks", plain.rounds.len());
    let (age_p50, age_p99, age_note) = latency(&plain.age_ns);
    vec![
        Metric {
            note: format!(
                "process init {init_s:.4} s + median of {} block set-ups",
                blocks.setup_s.len()
            ),
            ..m("setup_s", init_s + stats::median(&mut blocks.setup_s.clone()), "s")
        },
        Metric { note: how.clone(), ..m("wall_s", rounds_sum(plain, |r| r.wall_ns) / 1e9, "s") },
        Metric {
            note: format!("{stored} indications over controller-busy time, {how}"),
            ..m(
                "ctrl_ind_per_s",
                stored as f64 / rounds_sum(plain, |r| r.ctrl_busy_ns) * 1e9,
                "1/s",
            )
        },
        Metric {
            note: format!("agent-busy time over {opportunities} opportunities"),
            ..m(
                "agent_us_per_report",
                rounds_sum(plain, |r| r.agent_busy_ns) / opportunities as f64 / 1e3,
                "us",
            )
        },
        Metric { note: age_note, ..m("ind_age_p50_us", age_p50, "us") },
        m("ind_age_p99_us", age_p99, "us"),
        m(
            "wire_bytes_per_report",
            ratio(plain.counts.wire_bytes, plain.counts.opportunities),
            "count",
        ),
        m("peak_rss_mib", alloc::peak_rss_mib().unwrap_or(0.0), "MiB"),
    ]
}

/// End-to-end metrics that only some workloads have.  BENCHMARK.json must
/// list them under `per_layer`, because an `end_to_end` metric has to be
/// non-zero on every workload; they are measured on the untraced blocks all
/// the same.
fn end_to_end_some(blocks: &Blocks) -> Vec<Metric> {
    let (p50, p99, note) = latency(&blocks.plain.0.loop_ns);
    vec![
        Metric { note, ..m("ctrl_loop_p50_us", p50, "us") },
        m("ctrl_loop_p99_us", p99, "us"),
        m("sla_violation_s", blocks.counts().violation_ms as f64 / 1e3, "s"),
        m("failed_ops_share", ratio(blocks.failed, blocks.attempted), "count"),
    ]
}

fn per_layer(blocks: &Blocks, obs_record_ns: f64, build_s: f64) -> Vec<Metric> {
    let c = blocks.counts();
    // `f` of the fastest traced block.
    let fastest = |f: &dyn Fn(&Analysis) -> f64| stats::fastest(blocks.analyses.iter().map(f));
    let tot = |a: &Analysis, l: L| a.layers[l as usize].clone();
    // Self time per unit of work of one layer: the fastest traced block,
    // like the end-to-end timings.
    let ns = |l: L| {
        fastest(&|a| {
            let t = tot(a, l);
            if t.units == 0 {
                0.0
            } else {
                t.self_ns / t.units as f64
            }
        })
    };
    // Allocator calls made in the spans of `ls`, per call of `per`.
    let allocs = |ls: &'static [L], per: &'static [L]| {
        fastest(&|a| {
            let sum = |ls: &[L], f: fn(&trace::LayerTotals) -> u64| {
                ls.iter().map(|&l| f(&tot(a, l))).sum()
            };
            ratio(sum(ls, |t| t.allocs), sum(per, |t| t.calls))
        })
    };
    // Every layer call has its `<name>_ns`, in the order `L` lists them.
    let mut out: Vec<Metric> = L::ALL
        .iter()
        .filter(|l| !l.is_stage())
        .map(|&l| Metric { name: format!("{}_ns", l.name()), ..m("", ns(l), "ns") })
        .collect();
    out.extend([
        m("sm.suppressed_share", ratio(c.suppressed, c.opportunities), "count"),
        m("sm.keyframe_share", ratio(c.keyframes, c.opportunities), "count"),
        m("sm.fallback_count", c.fallbacks as f64, "count"),
        m("sm.payload_bytes_per_report", ratio(c.payload_bytes, c.opportunities), "count"),
        m(
            "sm.allocs_per_report",
            allocs(&[L::SmEncode, L::SmDeltaEncode], &[L::SmEncode, L::SmDeltaEncode]),
            "count",
        ),
        m("codec.fast_path_share", ratio(c.fast_path, c.pdus_in), "count"),
        m(
            "codec.e2ap_overhead_bytes_per_ind",
            ratio(c.ind_pdu_bytes - c.payload_bytes, c.sent),
            "count",
        ),
        m(
            "codec.allocs_per_ind",
            allocs(
                &[L::PduBuild, L::IndEncode, L::Peek, L::PayloadSlice, L::IndDecode],
                &[L::PayloadSlice],
            ),
            "count",
        ),
        m("transport.frames_per_feed", ratio(c.frames, c.feeds), "count"),
        m("transport.buffered_bytes_max", c.buffered_max as f64, "count"),
        m(
            "transport.allocs_per_frame",
            allocs(&[L::FrameEncode, L::Reassembly], &[L::FrameEncode]),
            "count",
        ),
        m("core.proc_outstanding_max", c.proc_outstanding_max as f64, "count"),
        m("core.proc_retransmits", c.proc_retransmits as f64, "count"),
        m("core.proc_timed_out", c.proc_timed_out as f64, "count"),
        m("ctrl.solve_noop_share", ratio(c.solve_noops, c.solves), "count"),
        m("ctrl.pushes", c.controls as f64, "count"),
        m("obs.record_ns", obs_record_ns, "ns"),
        m("obs.series_count", flexric_obs::snapshot().metrics.len() as f64, "count"),
        // What the mirrored controller glue costs per indication: its own
        // spans plus whatever of the controller stage no span covers.
        m(
            "harness.self_ns_per_ind",
            fastest(&|a| {
                let glue: f64 =
                    [L::Lookup, L::Store, L::StageCtrl].iter().map(|&l| tot(a, l).self_ns).sum();
                let inds = tot(a, L::PayloadSlice).calls;
                if inds == 0 {
                    0.0
                } else {
                    glue / inds as f64
                }
            }),
            "ns",
        ),
        m(
            "harness.unattributed_share",
            fastest(&|a| {
                if a.stage_ns == 0.0 {
                    0.0
                } else {
                    a.unattributed_ns / a.stage_ns
                }
            }),
            "ratio",
        ),
        m(
            "harness.trace_overhead_share",
            rounds_sum(&blocks.traced.0, |r| r.wall_ns)
                / rounds_sum(&blocks.plain.0, |r| r.wall_ns)
                - 1.0,
            "ratio",
        ),
        m("harness.build_s", build_s, "s"),
    ]);
    out
}

/// Times `Histogram::record` + `Counter::inc` on a series of the harness's
/// own: the price every instrumented call in every layer pays.
fn obs_micro() -> f64 {
    let h = flexric_obs::histogram("flexric_bench_probe_ns", "benchmark harness probe");
    let c = flexric_obs::counter("flexric_bench_probe_total", "benchmark harness probe");
    const N: u64 = 200_000;
    let t0 = Instant::now();
    for i in 0..N {
        h.record(std::hint::black_box(i & 0xfff));
        c.inc();
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// What build.sh left beside the executable.
fn build_info() -> (String, f64) {
    let dir = std::env::current_exe().ok().and_then(|p| p.parent().map(|d| d.to_owned()));
    let read = |f: &str| dir.as_ref().and_then(|d| std::fs::read_to_string(d.join(f)).ok());
    let info = read("build_info.txt").unwrap_or_else(|| "bytes_impl=shim\n".into());
    let build_s = read("build_s").and_then(|s| s.trim().parse().ok()).unwrap_or(0.0);
    (info.trim().replace('\n', "; "), build_s)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }
    };
    let Some(work) = workload(&args.workload, args.smoke) else {
        eprintln!("bench: unknown workload {} (see --list)", args.workload);
        std::process::exit(2);
    };

    // Process-wide set-up: the SM registry, the obs series, the tracer.
    flexric_sm::registry::global();
    flexric_sm::delta::register_metrics();
    let obs_record_ns = obs_micro();
    let mut tr = Tracer::new(start, if args.trace { 1 << 19 } else { 0 }, work.trace_k());
    let init_s = start.elapsed().as_secs_f64();

    let mut blocks = Blocks::default();
    let mut first_trace: Vec<trace::Span> = Vec::new();
    let mut first_cal = tr.cal;
    let mut wrong = Vec::new();
    let mut out = BlockOut::default();
    loop {
        let done = blocks.setup_s.len();
        let traced = args.trace && done % 2 == 1;
        out.clear();
        let setup_s = work.block(args.seed, &mut tr, traced, &mut out);
        let analysis = traced.then(|| trace::analyze(&tr.spans, tr.cal));
        if traced && first_trace.is_empty() {
            first_trace = tr.spans.clone();
            first_cal = tr.cal;
            if tr.dropped > 0 {
                eprintln!("bench: trace buffer full, {} sampled slabs not recorded", tr.dropped);
            }
        }
        if done > 0 && *blocks.counts() != out.counts {
            wrong.push(format!("block {done} counted differently from block 0"));
        }
        blocks.push(setup_s, &mut out, analysis);
        // Stop once the next block would end later past `--seconds` than
        // this one ended before it.
        let (elapsed, n) = (start.elapsed().as_secs_f64(), (done + 1) as f64);
        let enough = done + 1 >= if args.trace { 2 } else { 1 };
        if enough && elapsed + 0.5 * (elapsed - init_s) / n >= args.seconds {
            break;
        }
    }

    let (attempted, failed) = (blocks.attempted, blocks.failed);
    let c: &Counts = blocks.counts();
    let (info, build_s) = build_info();
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { " SMOKE (numbers mean nothing)" } else { "" }
    );
    println!("work per block: {}", work.describe());
    println!("build: {info}");
    println!("blocks: {}, {:.2} s in all", blocks.setup_s.len(), start.elapsed().as_secs_f64());
    if args.trace {
        println!(
            "traced: {} blocks, every {}th slab; span cost last calibrated at {:.1} ns inside + {:.1} ns outside",
            blocks.traced.1,
            tr.k,
            tr.cal.inner_ns,
            tr.cal.outer_ns,
        );
    }
    println!(
        "counts per block: opportunities {} sent {} framed {} reassembled {} stored {} suppressed {} keyframes {} deltas {} controls {} acked {} solves {}",
        c.opportunities, c.sent, c.framed, c.reassembled, c.stored, c.suppressed, c.keyframes, c.deltas, c.controls, c.acked, c.solves
    );

    let e2e = end_to_end(&blocks, init_s);
    let some = end_to_end_some(&blocks);
    let show = |title: &str, ms: &[Metric]| {
        println!("-- {title}");
        for x in ms {
            println!("{:<36} {:>16.4} {:<6} {}", x.name, x.value, x.unit, x.note);
        }
    };
    show("end to end", &e2e);
    show("end to end, on the workloads that have it", &some);
    let result = if args.trace {
        let mut layers = per_layer(&blocks, obs_record_ns, build_s);
        show("per layer", &layers);
        let un =
            layers.iter().find(|x| x.name == "harness.unattributed_share").expect("listed").value;
        if un > 0.10 && !args.smoke {
            wrong.push(format!(
                "harness.unattributed_share {un:.3} > 0.10: the spans miss stage time"
            ));
        }
        let dir = std::path::Path::new("benchmark/out");
        let file = dir.join(format!("{}.trace.json", args.workload));
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"every_kth_slab\": {}, \"span_cost_inner_ns\": {}, \"span_cost_outer_ns\": {}, \"spans\": {}}}\n",
            args.workload, args.seed, tr.k, first_cal.inner_ns, first_cal.outer_ns, trace::to_json(&first_trace)
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, doc)) {
            Ok(()) => println!(
                "trace: {} spans of the first traced block in {}",
                first_trace.len(),
                file.display()
            ),
            Err(e) => wrong.push(format!("cannot write {}: {e}", file.display())),
        }
        layers.extend(some);
        layers
    } else {
        e2e
    };
    if failed > 0 {
        wrong.push(format!("{failed} of {attempted} operations failed"));
    }
    for w in &wrong {
        eprintln!("WRONG: {w}");
    }
    println!("{}", json(wrong.is_empty(), attempted.max(1), failed, &result));
    if !wrong.is_empty() {
        std::process::exit(1);
    }
}
