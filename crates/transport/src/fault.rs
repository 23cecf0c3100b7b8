//! Fault injection wrapper, in the spirit of smoltcp's `--drop-chance` /
//! `--corrupt-chance` example options: deterministic, seedable packet loss,
//! corruption, delay and reordering on the send path, used by robustness
//! tests.
//!
//! [`FaultHandle`] is a cloneable, shared injector that decides the fate of
//! one message at a time and touches no socket or clock: the agent's and
//! the server's event loop consult it per frame and carry the verdict out
//! (a delay is kept on the loop's own clock, so it is exact in virtual
//! time), while a test keeps a clone and steers faults (e.g.
//! [`FaultHandle::drop_next`]).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::WireMsg;

/// Configuration for the fault injector.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability (0..=1) of silently dropping a message.
    pub drop_chance: f64,
    /// Probability (0..=1) of flipping one byte of the payload.
    pub corrupt_chance: f64,
    /// Probability (0..=1) of delaying a message by [`delay_ms`](Self::delay_ms).
    pub delay_chance: f64,
    /// How long a delayed message is held back, in milliseconds.
    pub delay_ms: u64,
    /// Probability (0..=1) of holding a message back so it is delivered
    /// after the next one (pairwise reorder).  A held message is released
    /// together with (and after) the next message that passes the injector.
    pub reorder_chance: f64,
    /// Drop messages whose payload exceeds this size (None = no limit).
    pub size_limit: Option<usize>,
    /// PRNG seed, for reproducibility.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            delay_chance: 0.0,
            delay_ms: 0,
            reorder_chance: 0.0,
            size_limit: None,
            seed: 0x5EED,
        }
    }
}

/// Statistics of what the injector did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages passed through unmodified.
    pub passed: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages corrupted.
    pub corrupted: u64,
    /// Messages delayed.
    pub delayed: u64,
    /// Messages delivered out of order.
    pub reordered: u64,
}

/// Live atomic counters behind a [`FaultHandle`]: [`FaultHandle::stats`]
/// reads them without touching the injector's mutex, so observers never
/// contend with (or need exclusive access to) the fault layer.
#[derive(Debug, Default)]
struct FaultCounters {
    passed: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
}

/// Global registry mirrors of the fault counters, aggregated across every
/// injector in the process — what `/metrics` reports.
pub(crate) struct FaultObs {
    passed: flexric_obs::Counter,
    dropped: flexric_obs::Counter,
    corrupted: flexric_obs::Counter,
    delayed: flexric_obs::Counter,
    reordered: flexric_obs::Counter,
}

pub(crate) fn fault_obs() -> &'static FaultObs {
    static M: std::sync::OnceLock<FaultObs> = std::sync::OnceLock::new();
    M.get_or_init(|| FaultObs {
        passed: flexric_obs::counter(
            "flexric_transport_fault_passed_total",
            "messages passed through the fault injector unmodified",
        ),
        dropped: flexric_obs::counter(
            "flexric_transport_fault_dropped_total",
            "messages dropped by the fault injector",
        ),
        corrupted: flexric_obs::counter(
            "flexric_transport_fault_corrupted_total",
            "messages corrupted by the fault injector",
        ),
        delayed: flexric_obs::counter(
            "flexric_transport_fault_delayed_total",
            "messages delayed by the fault injector",
        ),
        reordered: flexric_obs::counter(
            "flexric_transport_fault_reordered_total",
            "messages reordered by the fault injector",
        ),
    })
}

/// What to do with one message, as decided by [`FaultHandle::process`].
#[derive(Debug)]
pub struct FaultVerdict {
    /// Hold `deliver`, and whatever follows it to the same peer, back this
    /// long before sending (0 = send immediately).
    pub delay_ms: u64,
    /// The messages to put on the wire now, in order.  Empty when the
    /// message was dropped or held back for reordering.
    pub deliver: Vec<WireMsg>,
}

#[derive(Debug)]
struct FaultState {
    cfg: FaultConfig,
    rng_state: u64,
    drop_next: u64,
    held: Option<WireMsg>,
}

impl FaultState {
    /// xorshift64* — deterministic, seedable, dependency-free.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A cloneable, shared fault injector.  All clones act on the same PRNG,
/// statistics, and targeted-drop counter, so a test can hold one clone
/// while the stack's writer tasks consult another.  Statistics live in
/// atomics outside the mutex: [`FaultHandle::stats`] is lock-free, and
/// every event is mirrored into the global metrics registry
/// (`flexric_transport_fault_*_total`).
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
    counters: Arc<FaultCounters>,
}

impl Default for FaultHandle {
    fn default() -> Self {
        FaultHandle::new(FaultConfig::default())
    }
}

impl FaultHandle {
    /// The injector's state.  `process` finishes every update it starts
    /// before anything in it can panic, so a poisoned lock is still valid.
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a handle with the given configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultHandle {
            state: Arc::new(Mutex::new(FaultState {
                cfg,
                rng_state: cfg.seed.max(1),
                drop_next: 0,
                held: None,
            })),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// Replaces the configuration (the PRNG state is kept).
    pub fn set_config(&self, cfg: FaultConfig) {
        self.state().cfg = cfg;
    }

    /// Unconditionally drops the next `n` messages, regardless of the
    /// probabilistic knobs.  Counters accumulate across calls.
    pub fn drop_next(&self, n: u64) {
        self.state().drop_next += n;
    }

    /// Snapshot of what the injector has done so far.  Reads the atomic
    /// counters directly — never blocks on, or is blocked by, `process`.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            passed: self.counters.passed.load(Relaxed),
            dropped: self.counters.dropped.load(Relaxed),
            corrupted: self.counters.corrupted.load(Relaxed),
            delayed: self.counters.delayed.load(Relaxed),
            reordered: self.counters.reordered.load(Relaxed),
        }
    }

    fn note_dropped(&self) {
        self.counters.dropped.fetch_add(1, Relaxed);
        fault_obs().dropped.inc();
    }

    /// Decides the fate of one message.  Pure bookkeeping — the caller is
    /// responsible for honoring the returned delay and sending the
    /// delivered messages in order.
    pub fn process(&self, mut msg: WireMsg) -> FaultVerdict {
        let mut st = self.state();
        if st.drop_next > 0 {
            st.drop_next -= 1;
            self.note_dropped();
            return FaultVerdict { delay_ms: 0, deliver: vec![] };
        }
        if let Some(limit) = st.cfg.size_limit {
            if msg.payload.len() > limit {
                self.note_dropped();
                return FaultVerdict { delay_ms: 0, deliver: vec![] };
            }
        }
        if st.next_f64() < st.cfg.drop_chance {
            self.note_dropped();
            return FaultVerdict { delay_ms: 0, deliver: vec![] };
        }
        if !msg.payload.is_empty() && st.next_f64() < st.cfg.corrupt_chance {
            let idx = (st.next_u64() as usize) % msg.payload.len();
            let mut owned = msg.payload.to_vec();
            owned[idx] ^= 0xFF;
            msg.payload = owned.into();
            self.counters.corrupted.fetch_add(1, Relaxed);
            fault_obs().corrupted.inc();
        } else {
            self.counters.passed.fetch_add(1, Relaxed);
            fault_obs().passed.inc();
        }
        // Reorder: hold this message back until the next one passes.
        if st.cfg.reorder_chance > 0.0 && st.held.is_none() && st.next_f64() < st.cfg.reorder_chance
        {
            st.held = Some(msg);
            return FaultVerdict { delay_ms: 0, deliver: vec![] };
        }
        let mut deliver = vec![msg];
        if let Some(held) = st.held.take() {
            self.counters.reordered.fetch_add(1, Relaxed);
            fault_obs().reordered.inc();
            deliver.push(held);
        }
        let delay_ms = if st.cfg.delay_chance > 0.0 && st.next_f64() < st.cfg.delay_chance {
            self.counters.delayed.fetch_add(1, Relaxed);
            fault_obs().delayed.inc();
            st.cfg.delay_ms
        } else {
            0
        };
        FaultVerdict { delay_ms, deliver }
    }

    /// Releases a message held back for reordering, if any (end-of-stream
    /// flush).
    pub fn take_held(&self) -> Option<WireMsg> {
        self.state().held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(ppid: u32) -> WireMsg {
        WireMsg { stream: 0, ppid, payload: Bytes::from_static(b"abc") }
    }

    #[test]
    fn drop_all_delivers_nothing() {
        let h = FaultHandle::new(FaultConfig { drop_chance: 1.0, ..FaultConfig::default() });
        for i in 0..50 {
            assert!(h.process(msg(i)).deliver.is_empty());
        }
        assert_eq!(h.stats().dropped, 50);
        assert_eq!(h.stats().passed, 0);
    }

    #[test]
    fn corrupt_always_flips_a_byte() {
        let h = FaultHandle::new(FaultConfig { corrupt_chance: 1.0, ..FaultConfig::default() });
        let orig = Bytes::from_static(b"payload-bytes");
        let verdict = h.process(WireMsg::e2ap(orig.clone()));
        assert_eq!(h.stats().corrupted, 1);
        let [got] = &verdict.deliver[..] else { panic!("one message out: {verdict:?}") };
        assert_eq!(got.payload.len(), orig.len());
        // Exactly one byte differs.
        let diffs = got.payload.iter().zip(orig.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        fn run(seed: u64) -> FaultStats {
            let h = FaultHandle::new(FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.2,
                seed,
                ..Default::default()
            });
            for i in 0..200 {
                h.process(msg(i));
            }
            h.stats()
        }
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert!(a.dropped > 30 && a.dropped < 90, "drop rate plausible: {a:?}");
    }

    #[test]
    fn size_limit_drops_large() {
        let h = FaultHandle::new(FaultConfig { size_limit: Some(100), ..FaultConfig::default() });
        assert!(h.process(WireMsg::e2ap(Bytes::from(vec![0; 101]))).deliver.is_empty());
        assert_eq!(h.process(WireMsg::e2ap(Bytes::from(vec![0; 100]))).deliver.len(), 1);
        assert_eq!(h.stats().dropped, 1);
        assert_eq!(h.stats().passed, 1);
    }

    #[test]
    fn drop_next_is_targeted_and_exact() {
        let h = FaultHandle::default();
        h.clone().drop_next(2); // a clone steers the same injector
        let out: Vec<u32> =
            (0..5).flat_map(|i| h.process(msg(i)).deliver).map(|m| m.ppid).collect();
        assert_eq!(out, [2, 3, 4], "the first two messages were eaten");
        assert_eq!(h.stats().dropped, 2);
        assert_eq!(h.stats().passed, 3);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let h = FaultHandle::new(FaultConfig { reorder_chance: 1.0, ..FaultConfig::default() });
        let out: Vec<u32> =
            (0..4).flat_map(|i| h.process(msg(i)).deliver).map(|m| m.ppid).collect();
        assert_eq!(out, [1, 0, 3, 2], "each held message follows the next one");
        assert_eq!(h.stats().reordered, 2);
        assert!(h.take_held().is_none());
    }

    #[test]
    fn delay_is_the_callers_to_honour() {
        let h = FaultHandle::new(FaultConfig {
            delay_chance: 1.0,
            delay_ms: 30,
            ..FaultConfig::default()
        });
        let verdict = h.process(msg(7));
        assert_eq!(verdict.delay_ms, 30);
        assert_eq!(verdict.deliver.len(), 1, "delayed, not dropped");
        assert_eq!(h.stats().delayed, 1);
    }
}
