//! Span recorder for traced blocks.
//!
//! A span is one call into a layer, timed from outside: name, start, end,
//! parent, and the id shared by everything done for one message — (agent,
//! RIC request id, SN).  Spans go into a preallocated buffer; nothing is
//! written until the run ends.  Self time is a span's duration minus its
//! children, minus the calibrated cost of recording them.
//!
//! Only every k-th agent slab is recorded (`Tracer::sample`); on the others
//! `begin` is one predictable branch.  Counts are kept for all.

use std::time::Instant;

use crate::{alloc, stats};

macro_rules! layers {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A stage of the pipeline or a call into a layer.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum L { $($variant),* }
        impl L {
            pub const ALL: &'static [L] = &[$(L::$variant),*];
            pub fn name(self) -> &'static str {
                match self { $(L::$variant => $name),* }
            }
        }
    };
}

layers! {
    // Stages: what one machine does for one slab, between two clock reads
    // of the untraced run.
    StageSim => "stage.sim",
    StageAgent => "stage.agent",
    StageCtrl => "stage.ctrl",
    StageDecide => "stage.decide",
    StageAgentCtl => "stage.agent_ctl",
    StageCtrlAck => "stage.ctrl_ack",
    // Calls into layers.
    KpiStep => "ransim.kpi_step",
    SimTick => "ransim.tick",
    ScenarioAdvance => "ransim.scenario_advance",
    StatsRead => "ransim.stats_read",
    ApplyCtrl => "ransim.apply_ctrl",
    SmEncode => "sm.encode",
    SmDeltaEncode => "sm.delta_encode",
    SmDeltaApply => "sm.delta_apply",
    SmReencode => "sm.reencode",
    SmDecode => "sm.decode",
    SmCtrlEncode => "sm.ctrl_encode",
    SmCtrlDecode => "sm.ctrl_decode",
    PduBuild => "e2ap.pdu_build",
    IndEncode => "codec.ind_encode",
    Peek => "codec.peek",
    PayloadSlice => "codec.payload_slice",
    IndDecode => "codec.ind_decode",
    CtrlEncode => "codec.ctrl_encode",
    CtrlDecode => "codec.ctrl_decode",
    FrameEncode => "transport.frame_encode",
    Reassembly => "transport.reassembly",
    ReqIdAlloc => "core.req_id_alloc",
    ProcBegin => "core.proc_begin",
    ProcComplete => "core.proc_complete",
    ProcPoll => "core.proc_poll",
    OutboxFlush => "core.outbox_flush",
    Solve => "ctrl.solve",
    // The harness's own mirror of shard / iApp glue.
    Lookup => "harness.lookup",
    Store => "harness.store",
    Observe => "harness.observe",
    Teardown => "harness.teardown",
}

impl L {
    pub fn is_stage(self) -> bool {
        self.name().starts_with("stage.")
    }
}

pub const NONE: u32 = u32::MAX;

/// What every span of one message shares.
#[derive(Clone, Copy, Default, Debug)]
pub struct MsgId {
    pub agent: u32,
    /// `requestor << 16 | instance` of the RIC request id.
    pub req: u32,
    pub sn: u32,
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub what: L,
    /// A repeat of a call that happens inside a callee the harness cannot
    /// reach (the codec encode inside `flush_outbox`), made right after
    /// it on the same input.  Its time is taken out of the enclosing stage
    /// and charged to `parent` as a child.
    pub probe: bool,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// Time inside `[start, end]` that is not the span's: probes, and the
    /// recorder's own time for the spans nested in it.
    pub excluded: u64,
    pub allocs: u32,
    /// Units of work the call did (frames sliced, cells ticked); the
    /// per-call metric divides by this.  1 unless set.
    pub units: u32,
    pub id: MsgId,
}

impl Span {
    pub fn dur(&self) -> u64 {
        (self.end - self.start).saturating_sub(self.excluded)
    }
}

/// What recording leaves in the numbers, measured at set-up on empty spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calib {
    /// What an empty span reads as: clock latency inside every span.
    pub inner_ns: f64,
    /// Parent time per child that is neither in the child's interval nor
    /// in the recorder's measured time: the outer halves of two clock
    /// reads.
    pub outer_ns: f64,
}

pub struct Tracer {
    base: Instant,
    /// This block records spans at all.
    pub enabled: bool,
    /// The slab being processed is a sampled one.
    pub on: bool,
    /// Every k-th slab is sampled.
    pub k: usize,
    pub spans: Vec<Span>,
    top: u32,
    excluded: u64,
    pub id: MsgId,
    /// Sampled slabs skipped because the buffer was full.
    pub dropped: u64,
    /// The recording cost as measured just before the last traced block.
    pub cal: Calib,
}

impl Tracer {
    pub fn new(base: Instant, capacity: usize, k: usize) -> Self {
        Tracer {
            base,
            enabled: false,
            on: false,
            k: k.max(1),
            spans: Vec::with_capacity(capacity),
            top: NONE,
            excluded: 0,
            id: MsgId::default(),
            dropped: 0,
            cal: Calib::default(),
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Starts a traced or an untraced block.  The recording cost moves
    /// with the machine's state, so it is measured next to the block it
    /// will be subtracted from.
    pub fn start_block(&mut self, traced: bool) {
        if traced {
            self.cal = self.calibrate();
        }
        self.enabled = traced;
        self.on = false;
        self.spans.clear();
        self.top = NONE;
        self.excluded = 0;
        self.dropped = 0;
        alloc::arm(traced);
    }

    pub fn end_block(&mut self) {
        alloc::arm(false);
        self.on = false;
    }

    /// Decides whether the slab of `agent` at `tick` is recorded, and
    /// names the message the next spans belong to.
    #[inline]
    pub fn sample(&mut self, agent: usize, tick: u64) {
        self.on = false;
        if !self.enabled || (agent as u64 + tick) % self.k as u64 != 0 {
            return;
        }
        // Room for one slab's worth of spans, so a slab is never cut.
        if self.spans.capacity() - self.spans.len() < 256 {
            self.dropped += 1;
            return;
        }
        self.on = true;
        self.id = MsgId { agent: agent as u32, req: 0, sn: tick as u32 };
    }

    /// Opens a span.  The recorder's own time, from entry to the span's
    /// start stamp, is measured and taken out of every enclosing span, so
    /// a cold recorder does not show up as unattributed stage time.
    #[inline]
    pub fn begin(&mut self, what: L) -> u32 {
        if !self.on {
            return NONE;
        }
        let entered = self.now();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            what,
            probe: false,
            parent: self.top,
            start: 0,
            end: 0,
            excluded: 0,
            allocs: alloc::count() as u32,
            units: 1,
            id: self.id,
        });
        self.top = idx;
        let start = self.now();
        self.excluded += start - entered;
        let s = &mut self.spans[idx as usize];
        s.start = start;
        s.excluded = self.excluded;
        idx
    }

    /// Closes a span; the recorder's time after the end stamp is taken out
    /// of the enclosing spans like `begin`'s.
    #[inline]
    pub fn end(&mut self, idx: u32) {
        if idx == NONE {
            return;
        }
        let end = self.now();
        let excluded = self.excluded;
        let s = &mut self.spans[idx as usize];
        s.end = end;
        s.excluded = excluded - s.excluded;
        s.allocs = (alloc::count() as u32).wrapping_sub(s.allocs);
        self.top = s.parent;
        self.excluded += self.now() - end;
    }

    pub fn set_units(&mut self, idx: u32, units: u32) {
        if idx != NONE {
            self.spans[idx as usize].units = units;
        }
    }

    /// Renames a recorded span, for a call whose kind is only known once
    /// it returned.
    pub fn rename(&mut self, idx: u32, what: L) {
        if idx != NONE {
            self.spans[idx as usize].what = what;
        }
    }

    /// Starts a stretch of harness-only work (verification, probe set-up)
    /// that no enclosing span should be charged for.
    #[inline]
    pub fn pause(&self) -> u64 {
        self.now()
    }

    #[inline]
    pub fn resume(&mut self, paused_at: u64) {
        self.excluded += self.now() - paused_at;
    }

    /// Records `f` as a probe charged to span `parent`.  The caller has
    /// paused the tracer around it.
    pub fn probe(&mut self, what: L, parent: u32, f: impl FnOnce()) {
        let a0 = alloc::count();
        let start = self.now();
        f();
        let end = self.now();
        self.spans.push(Span {
            what,
            probe: true,
            parent,
            start,
            end,
            excluded: 0,
            allocs: (alloc::count() - a0) as u32,
            units: 1,
            id: self.id,
        });
    }

    /// Measures what recording leaves in the numbers, on empty spans: the
    /// part of the clock reads that falls inside a span, and the part that
    /// falls in its parent outside the recorder's measured time.
    fn calibrate(&mut self) -> Calib {
        const N: usize = 2000;
        let saved = (self.enabled, self.on);
        let (mut inner, mut outer) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            self.spans.clear();
            self.top = NONE;
            self.on = true;
            let p = self.begin(L::StageAgent);
            for _ in 0..N {
                let c = self.begin(L::Peek);
                self.end(c);
            }
            self.end(p);
            let mut d: Vec<f64> = self.spans[1..].iter().map(|s| s.dur() as f64).collect();
            let sum: f64 = d.iter().sum();
            let i = stats::median(&mut d);
            inner.push(i);
            outer.push((self.spans[0].dur() as f64 - i - sum) / N as f64);
        }
        self.spans.clear();
        self.top = NONE;
        (self.enabled, self.on) = saved;
        Calib { inner_ns: stats::median(&mut inner), outer_ns: stats::median(&mut outer).max(0.0) }
    }
}

macro_rules! span {
    ($tr:expr, $what:expr, $body:expr) => {{
        let __s = $tr.begin($what);
        let __r = $body;
        $tr.end(__s);
        __r
    }};
}
pub(crate) use span;

/// Per-layer totals of one traced block.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub units: u64,
    /// Σ (duration − children − recording cost).
    pub self_ns: f64,
    /// Allocator calls made by the layer itself.
    pub allocs: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Indexed by `L as usize`.
    pub layers: Vec<LayerTotals>,
    /// Σ stage work and Σ stage self time (what no layer span covers).
    pub stage_ns: f64,
    pub unattributed_ns: f64,
}

pub fn analyze(spans: &[Span], cal: Calib) -> Analysis {
    let n = spans.len();
    let mut child_ns = vec![0u64; n];
    let mut child_n = vec![0u32; n];
    let mut child_allocs = vec![0u32; n];
    for s in spans {
        if s.parent == NONE {
            continue;
        }
        let p = s.parent as usize;
        child_ns[p] += s.dur();
        child_allocs[p] += s.allocs;
        // A probe ran outside its parent, so recording it cost the parent
        // nothing; its time and allocations stand for the callee's.
        if !s.probe {
            child_n[p] += 1;
        }
    }
    let mut out =
        Analysis { layers: vec![LayerTotals::default(); L::ALL.len()], ..Default::default() };
    for (i, s) in spans.iter().enumerate() {
        let work = (s.dur() as f64 - cal.inner_ns).max(0.0);
        let this = (work - child_ns[i] as f64 - child_n[i] as f64 * cal.outer_ns).max(0.0);
        let t = &mut out.layers[s.what as usize];
        t.calls += 1;
        t.units += s.units as u64;
        t.self_ns += this;
        t.allocs += s.allocs.saturating_sub(child_allocs[i]) as u64;
        if s.what.is_stage() {
            out.stage_ns += work;
            out.unattributed_ns += this;
        }
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 120 + 2);
    s.push_str("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = if sp.parent == NONE { -1 } else { sp.parent as i64 };
        s.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"excluded_ns\":{},\"parent\":{parent},\"probe\":{},\"allocs\":{},\"units\":{},\"agent\":{},\"req\":\"{}:{}\",\"sn\":{}}}{}\n",
            sp.what.name(),
            sp.start,
            sp.end,
            sp.excluded,
            sp.probe,
            sp.allocs,
            sp.units,
            sp.id.agent,
            sp.id.req >> 16,
            sp.id.req & 0xffff,
            sp.id.sn,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    s.push(']');
    s
}
