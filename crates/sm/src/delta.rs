//! Delta-encoded indication streams: dirty-field bitmaps, keyframes, and
//! suppression for the periodic monitoring service models.
//!
//! A full KPI snapshot every report period for every agent makes
//! monitoring traffic the dominant byte stream at scale ("Power-Efficient
//! RAN Intelligent Controllers Through Optimized KPI Monitoring",
//! PAPERS.md).  This module lets a report subscription opt into a *delta
//! stream* ([`crate::trigger::ReportMode::Delta`]):
//!
//! * each indication carries only the fields that changed since the last
//!   emitted report, as a per-row dirty bitmap ([`DeltaRows::FIELD_COUNT`]
//!   bits) plus the changed values;
//! * every `keyframe_every`-th report opportunity emits a *keyframe* — the
//!   full snapshot in the subscription's [`SmCodec`] — bounding the resync
//!   window and doubling as liveness for quiescent cells; each stream keys
//!   at a phase of its own ([`phase_of`] its key), so that streams started
//!   together do not all key in the same opportunity;
//! * a report that differs from the previous one by nothing but its
//!   timestamp (an empty diff) is *suppressed* entirely (nothing is sent;
//!   the server's last reconstruction stays valid);
//! * frames are tagged with a stream *epoch* that bumps on every
//!   (re)subscription, mode change, and resync request, so the
//!   reconnect/replay machinery of the procedure layer forces a keyframe
//!   instead of letting stale deltas apply to a stale base.  Period-only
//!   retunes deliberately do *not* bump the epoch: sequence continuity
//!   over the ordered transport keeps the receiver's base valid, so
//!   backing off a quiescent cell costs no keyframe.
//!
//! The decoder reconstructs the full snapshot from the last keyframe plus
//! deltas and verifies a 64-bit post-hash ([`content_hash`]) carried in
//! every delta frame: any divergence (reordering, lost frame, codec bug)
//! surfaces as [`DeltaEvent::NeedKeyframe`] rather than silently wrong
//! statistics, and the controller answers it by retuning the subscription
//! (which forces a keyframe).  Reconstruction is exact: re-encoding the
//! reconstructed snapshot is byte-identical to encoding the sender's
//! snapshot.
//!
//! The delta frame itself uses a codec-independent bit-packed wire format
//! (like `BearerAddr`) — dirty bitmaps are inherently bit-oriented — while
//! embedded keyframes use the subscription's negotiated [`SmCodec`].
//!
//! Cost: a delta stream must not buy its bytes with CPU.  In the steady
//! state — same rows, same order — the encoder diffs two snapshots row by
//! row into a reusable table and writes the frame straight into a reusable
//! buffer.  The decoder pays per changed field: in one pass over the frame
//! it patches the one copy of its base that it hands to the caller anyway,
//! reading each changed row's key and bitmap in one load and each value as
//! its length byte and one load; it then rehashes only the rows it patched,
//! and the post-hash is those row hashes folded with the cached ones of the
//! rows the frame left alone.  Hash tables appear only when rows were
//! added, removed or reordered (and then every row is rehashed once, as a
//! keyframe's are), and the whole-snapshot encode that guards the
//! oversized-delta fallback runs only when a frame outgrows a cached lower
//! bound of the keyframe's size.  A keyframe is encoded straight into its
//! frame, and at both ends the base it leaves takes the snapshot into the
//! storage the last base had.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use bytes::{Bytes, BytesMut};
use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::FbBuilder;
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::schema::MAX_ROWS;
use crate::trigger::ReportMode;
use crate::{SmCodec, SmPayload, SNAPSHOT_CAPACITY};

/// Rows-of-scalars view of a snapshot payload, the shape all periodic
/// monitoring SMs share: a timestamp, at most one auxiliary header scalar,
/// and a list of keyed rows whose fields all widen to `u64`.
///
/// The statistics SMs get their impl from [`sm_snapshot!`](crate::sm_snapshot).
///
/// Implementations must be *exact*: `field`/`set_field` round-trip every
/// legal value, and two snapshots with equal keys, fields, aux and
/// [`DeltaRows::structure_sig`] encode byte-identically (timestamps are
/// carried explicitly by delta frames).  `set_field` and `set_aux` are
/// decoders: they refuse what the payload's other decoders refuse, so that
/// every reconstruction can be re-encoded.
///
/// They should also encode *monotonically*: no snapshot encodes shorter
/// than one of as many rows that are all [`DeltaRows::new_row`]`(0)`, with
/// zero timestamp and aux.  The encoder takes that length as a floor of the
/// keyframe's size when it decides whether a delta frame could be the
/// larger of the two; an encoding that breaks the rule keeps an oversized
/// delta now and then, never a wrong reconstruction.
pub trait DeltaRows: SmPayload + Clone + PartialEq {
    /// The row type.
    type Row: Clone + PartialEq;
    /// Diffable fields per row, excluding the key (≤ 32).
    const FIELD_COUNT: u32;
    /// Label for metrics and debugging.
    const NAME: &'static str;

    /// Snapshot timestamp (always changes; carried explicitly, excluded
    /// from the content hash so pure timestamp advances suppress).
    fn tstamp_ms(&self) -> u64;
    /// Sets the snapshot timestamp.
    fn set_tstamp_ms(&mut self, t: u64);
    /// Auxiliary header scalar (e.g. the MAC cell PRB capacity); `0` if
    /// the payload has none.
    fn aux(&self) -> u64 {
        0
    }
    /// Sets the auxiliary header scalar; `false`, and the payload as it
    /// was, if `v` is beyond what the scalar may hold.  A payload without
    /// one ignores it.
    fn set_aux(&mut self, _v: u64) -> bool {
        true
    }
    /// The rows.
    fn rows(&self) -> &[Self::Row];
    /// Mutable row storage, for reconstruction.
    fn rows_mut(&mut self) -> &mut Vec<Self::Row>;
    /// Stable identity of a row within the stream (e.g. RNTI, or
    /// RNTI|DRB).  Rows are diffed against the previous row of the same
    /// key; keys that disappear are encoded as removals.
    fn row_key(row: &Self::Row) -> u32;
    /// Reads field `i` (0-based, `< FIELD_COUNT`) widened to `u64`.
    fn field(row: &Self::Row, i: u32) -> u64;
    /// Writes field `i`; `false`, and the row as it was, if `v` is beyond
    /// what the field may hold.
    fn set_field(row: &mut Self::Row, i: u32, v: u64) -> bool;
    /// Calls `f(i, field(row, i))` for every `i < FIELD_COUNT` in turn.
    /// The hash and the diff of every report go through here, so it should
    /// be straight-line code — one call per field, each `i` a constant —
    /// and not a loop around `field`, whose `match` costs a jump table per
    /// turn wherever the compiler does not unroll the loop.
    fn each_field(row: &Self::Row, f: impl FnMut(u32, u64));
    /// A fresh row for `key` with all fields at their default; new keys
    /// are encoded as a full-bitmap diff against this.
    fn new_row(key: u32) -> Self::Row;
    /// Signature of row identity not captured by keys and fields (e.g.
    /// the KPM measurement-name sequence).  A change forces a keyframe.
    /// It must not depend on field values or aux: the decoder keeps it
    /// across the frames that only patch fields.
    fn structure_sig(&self) -> u64 {
        0
    }
}

/// Hashes a string into a 64-bit FNV-1a state (for `structure_sig` and
/// `row_key` impls; KPM row keys are on the wire, so this function is
/// pinned).
pub fn hash_str(h: u64, s: &str) -> u64 {
    let len = (s.len() as u64).to_le_bytes();
    len.iter().chain(s.as_bytes()).fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Multiplier of the content hash: 2^64 / φ, odd.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the content hash: one word in, one multiply.  For a fixed
/// state it is a bijection of `v` (and for a fixed `v`, of the state), so a
/// difference in a single word always survives to the end of a chain.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(23) ^ v).wrapping_mul(HASH_K)
}

/// Content hash of a snapshot: aux, structure signature, row count, and
/// every row's key and fields, in row order.  The timestamp is deliberately
/// excluded — a report that differs only by timestamp is suppressible.
///
/// Each row is a `mix` chain of its own, over its key and then its
/// fields in index order; the row hashes are then chained in row order
/// after aux, signature and count, and the result is folded once more so
/// the high bits reach the low ones.  One multiply per field, and rows do
/// not wait for each other.  The value travels in every delta frame: both
/// ends of a stream must compute it the same way, and a peer that does not
/// fails the post-hash check and is asked for keyframes.
pub fn content_hash<T: DeltaRows>(snap: &T) -> u64 {
    hash_with_sig(snap, snap.structure_sig())
}

/// [`content_hash`] with the structure signature already in hand.
fn hash_with_sig<T: DeltaRows>(snap: &T, sig: u64) -> u64 {
    let rows = snap.rows();
    fold_rows(snap.aux(), sig, rows.len(), rows.iter().map(row_hash::<T>))
}

/// One row's chain of [`content_hash`]: its key, then its fields in index
/// order.
#[inline]
fn row_hash<T: DeltaRows>(row: &T::Row) -> u64 {
    let mut r = mix(HASH_K, T::row_key(row) as u64);
    T::each_field(row, |_, v| r = mix(r, v));
    r
}

/// The rest of [`content_hash`]: aux, signature and row count, the `n` row
/// hashes in row order, and the final fold.
#[inline]
fn fold_rows(aux: u64, sig: u64, n: usize, rows: impl Iterator<Item = u64>) -> u64 {
    let h = rows.fold(mix(mix(mix(HASH_K, aux), sig), n as u64), mix);
    (h ^ (h >> 32)).wrapping_mul(HASH_K)
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Global SM-report series (PR 5 convention: registered at zero on first
/// touch of the layer, so every series is visible even while idle — call
/// [`register_metrics`] at startup from any component on the report path).
pub struct DeltaObs {
    /// `flexric_sm_report_bytes_total{mode="full"}`.
    pub bytes_full: flexric_obs::Counter,
    /// `flexric_sm_report_bytes_total{mode="delta"}`.
    pub bytes_delta: flexric_obs::Counter,
    /// `flexric_sm_report_bytes_total{mode="keyframe"}`.
    pub bytes_keyframe: flexric_obs::Counter,
    /// Reports suppressed because nothing but the timestamp had changed.
    pub suppressed: flexric_obs::Counter,
    /// Keyframes emitted.
    pub keyframes: flexric_obs::Counter,
    /// Decoder resyncs requested (epoch/sequence/hash divergence).
    pub resyncs: flexric_obs::Counter,
    /// Malformed delta frames (wire-level decode failures).
    pub decode_errors: flexric_obs::Counter,
}

/// The registered series (see [`DeltaObs`]).
pub fn obs() -> &'static DeltaObs {
    static OBS: std::sync::OnceLock<DeltaObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let bytes = "SM report payload bytes emitted, by report mode";
        DeltaObs {
            bytes_full: flexric_obs::counter_with(
                "flexric_sm_report_bytes_total",
                &[("mode", "full")],
                bytes,
            ),
            bytes_delta: flexric_obs::counter_with(
                "flexric_sm_report_bytes_total",
                &[("mode", "delta")],
                bytes,
            ),
            bytes_keyframe: flexric_obs::counter_with(
                "flexric_sm_report_bytes_total",
                &[("mode", "keyframe")],
                bytes,
            ),
            suppressed: flexric_obs::counter(
                "flexric_sm_reports_suppressed_total",
                "Reports suppressed because the snapshot content was unchanged",
            ),
            keyframes: flexric_obs::counter(
                "flexric_sm_keyframes_total",
                "Full-snapshot keyframes emitted on delta streams",
            ),
            resyncs: flexric_obs::counter(
                "flexric_sm_delta_resyncs_total",
                "Delta decoder resyncs (epoch/sequence/hash divergence)",
            ),
            decode_errors: flexric_obs::counter(
                "flexric_sm_delta_decode_errors_total",
                "Malformed delta frames rejected by the decoder",
            ),
        }
    })
}

/// Registers every SM-report series at zero (idempotent).
pub fn register_metrics() {
    let _ = obs();
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------
//
// frame    := epoch:32 seq:32 is_delta:1 (keyframe | delta)
// keyframe := octets(snapshot in the stream's SmCodec)
// delta    := uint(tstamp) has_aux:1 [uint(aux)]
//             length(n_changed) (key:32 bitmap:FIELD_COUNT uint(value)*)*
//             length(n_removed) key:32*
//             has_order:1 [length(n) key:32*]
//             post_hash:64
//
// `uint`, `length` and `octets` are the byte-aligned forms of
// `flexric_codec::per`, so the three lists start on byte boundaries and
// their 32-bit keys are plain big-endian words.

/// Bytes a keyframe adds around its snapshot blob: the 65-bit header and
/// (generously) a 4-byte length determinant.
const KEYFRAME_OVERHEAD: usize = 9 + 4;

fn encode_frame_header<B: ByteSink>(w: &mut BitWriter<B>, epoch: u32, seq: u32, is_delta: bool) {
    w.put_bits(epoch as u64, 32);
    w.put_bits(seq as u64, 32);
    w.put_bit(is_delta);
}

/// Working memory of the encode path: the delta frame under construction
/// and the tables of one diff.  Nothing in it outlives one report
/// opportunity, so there is one per thread ([`SCRATCH`]), not one per
/// stream: a process that reports on thousands of streams keeps one warm
/// kilobyte, not thousands of cold ones.
#[derive(Debug, Default)]
struct Scratch {
    /// The delta frame being written; an emitted one is copied out, at its
    /// exact size.
    frame: Vec<u8>,
    /// Per row of the current snapshot: its dirty-field bitmap, plus
    /// [`NEW_ROW`] for a key the base lacks.  Non-zero ⇒ the row is sent.
    dirty: Vec<u64>,
    /// Keys of base rows the current snapshot dropped, in base order.
    removed: Vec<u32>,
    /// Key → base row position, or [`NEW_KEY`] for a key first met in the
    /// current snapshot.  Filled only when the key sequences differ.
    index: HashMap<u32, u32>,
    /// Base rows a current row was matched to.
    matched: Vec<bool>,
    /// Sort buffer of [`unique_keys`].
    keys: Vec<u32>,
}

thread_local! {
    /// Borrowed for the length of one report opportunity — across the
    /// snapshot's own accessors and encoders, which therefore must not
    /// report on a delta stream themselves.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Marks a [`Scratch::dirty`] entry whose row must be sent even with an
/// empty bitmap (an all-default row under a new key), or the decoder would
/// never materialize it.
const NEW_ROW: u64 = 1 << 32;
/// [`Scratch::index`] value of a key that is not in the base.
const NEW_KEY: u32 = u32::MAX;

/// What [`diff`] found, beside the tables it left in the [`Scratch`].
struct Diff {
    /// Rows to send (non-zero `dirty` entries).
    n_changed: usize,
    /// Whether appending new rows after the surviving ones — what the
    /// decoder does by default — would give the wrong row order.
    reordered: bool,
}

impl Diff {
    fn is_empty(&self, s: &Scratch) -> bool {
        self.n_changed == 0 && s.removed.is_empty() && !self.reordered
    }
}

/// Bitmap of the fields in which `row` differs from `base`.
#[inline]
fn dirty_fields<T: DeltaRows>(base: &T::Row, row: &T::Row) -> u32 {
    let mut bits = 0;
    T::each_field(row, |i, v| bits |= u32::from(v != T::field(base, i)) << i);
    bits
}

/// Diffs `cur` against `prev`, whose keys must be unique, into `s`.
/// `None` if `cur`'s keys are not unique.
fn diff<T: DeltaRows>(prev: &T, cur: &T, s: &mut Scratch) -> Option<Diff> {
    let (prev, cur) = (prev.rows(), cur.rows());
    s.dirty.clear();
    s.removed.clear();
    let mut reordered = false;
    if same_keys::<T>(prev, cur) {
        // The steady state: rows pair up by position, and `cur`'s keys are
        // unique because `prev`'s are.
        s.dirty.extend(prev.iter().zip(cur).map(|(p, c)| dirty_fields::<T>(p, c) as u64));
    } else {
        s.index.clear();
        s.index.extend(prev.iter().enumerate().map(|(i, p)| (T::row_key(p), i as u32)));
        s.matched.clear();
        s.matched.resize(prev.len(), false);
        // The decoder keeps surviving rows in base order and appends new
        // ones: any other order has to be spelled out.
        let (mut next_pos, mut seen_new) = (0, false);
        for row in cur {
            let key = T::row_key(row);
            match s.index.entry(key) {
                Entry::Occupied(e) => {
                    let pos = *e.get();
                    if pos == NEW_KEY || s.matched[pos as usize] {
                        return None;
                    }
                    s.matched[pos as usize] = true;
                    reordered |= seen_new || pos < next_pos;
                    next_pos = pos + 1;
                    s.dirty.push(dirty_fields::<T>(&prev[pos as usize], row) as u64);
                }
                Entry::Vacant(e) => {
                    e.insert(NEW_KEY);
                    seen_new = true;
                    s.dirty.push(dirty_fields::<T>(&T::new_row(key), row) as u64 | NEW_ROW);
                }
            }
        }
        let gone = prev.iter().zip(&s.matched).filter(|(_, m)| !**m);
        s.removed.extend(gone.map(|(p, _)| T::row_key(p)));
    }
    Some(Diff { n_changed: s.dirty.iter().filter(|d| **d != 0).count(), reordered })
}

/// Writes the body of a delta frame from the tables [`diff`] left.
fn write_delta_body<T: DeltaRows, B: ByteSink>(
    w: &mut BitWriter<B>,
    cur: &T,
    aux: Option<u64>,
    d: &Diff,
    dirty: &[u64],
    removed: &[u32],
    post_hash: u64,
) {
    w.put_uint(cur.tstamp_ms());
    w.put_bit(aux.is_some());
    if let Some(aux) = aux {
        w.put_uint(aux);
    }
    w.put_length(d.n_changed);
    // A row is one window: key and bitmap from whatever bit the row before
    // ended on, then nine bytes a field at most.
    let row_max = (7 + 32 + T::FIELD_COUNT as usize).div_ceil(8) + 9 * T::FIELD_COUNT as usize;
    for (row, dirty) in cur.rows().iter().zip(dirty).filter(|(_, d)| **d != 0) {
        let mut bits = *dirty as u32;
        w.window(row_max, |c| {
            c.put_bits(T::row_key(row) as u64, 32);
            c.put_bits(bits as u64, T::FIELD_COUNT);
            while bits != 0 {
                c.put_uint(T::field(row, bits.trailing_zeros()));
                bits &= bits - 1;
            }
        });
    }
    w.put_length(removed.len());
    for key in removed {
        w.put_bits(*key as u64, 32);
    }
    w.put_bit(d.reordered);
    if d.reordered {
        w.put_length(cur.rows().len());
        for row in cur.rows() {
            w.put_bits(T::row_key(row) as u64, 32);
        }
    }
    w.put_bits(post_hash, 64);
}

/// Makes `dst` equal to `src` in everything a delta can express —
/// timestamp, aux and rows — reusing `dst`'s row storage.  The two must
/// already agree on the rest (one structure signature).
fn copy_view<T: DeltaRows>(dst: &mut T, src: &T) {
    dst.set_tstamp_ms(src.tstamp_ms());
    dst.set_aux(src.aux());
    src.rows().clone_into(dst.rows_mut());
}

/// Whether `a` and `b` hold the same keys in the same order.
fn same_keys<T: DeltaRows>(a: &[T::Row], b: &[T::Row]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| T::row_key(a) == T::row_key(b))
}

/// Whether every row key is unique (delta diffing requires it; duplicate
/// keys — possible for degenerate KPM reports — force keyframes instead).
fn unique_keys<T: DeltaRows>(rows: &[T::Row], keys: &mut Vec<u32>) -> bool {
    keys.clear();
    keys.extend(rows.iter().map(T::row_key));
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// What one report opportunity produced on a delta stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOut {
    /// A full-snapshot keyframe frame.
    Keyframe(Vec<u8>),
    /// A dirty-field delta frame.
    Delta(Vec<u8>),
    /// Nothing: the snapshot content was unchanged.
    Suppressed,
}

/// [`DeltaOut`] as the encoder's inside sees it.
enum Emitted {
    /// A keyframe, in a buffer of its own, handed on as it is: building it
    /// in the scratch would grow that to the size of a full report and add
    /// a copy of as much.
    Keyframe(Vec<u8>),
    /// A delta frame, left in [`Scratch::frame`].
    Delta,
    Suppressed,
}

/// The base of a delta stream's sender: the last emitted snapshot and
/// what the encoder needs to know about it without looking again.
#[derive(Debug)]
struct Base<T> {
    snap: T,
    /// `snap.structure_sig()`.
    sig: u64,
    /// Whether `snap`'s row keys are unique; a delta needs both ends of the
    /// diff to have unique keys.
    unique: bool,
}

/// Per-subscription delta encoder: diffs each snapshot against the last
/// emitted one, schedules keyframes, and suppresses unchanged reports.
///
/// **Phase.**  A stream's periodic keyframes keep to a grid of its own:
/// counting report opportunities from the stream's start, or from its last
/// [`DeltaEncoder::force_keyframe`], opportunity `n` is due a keyframe when
/// `(n + phase) % keyframe_every == 0` — as long as nothing else keyed the
/// stream meanwhile (see [`DeltaEncoder::with_phase`]).  Opportunity 0
/// keys anyway: it has no base.  Streams that start in one opportunity —
/// a fleet subscribed at once, a controller that replays every
/// subscription after a restart — would otherwise all key in the same
/// opportunity, every `keyframe_every`, and that opportunity would carry
/// every full snapshot of the fleet and no suppressed report.
/// [`DeltaStreams`] gives each stream the phase [`phase_of`] its key.
#[derive(Debug)]
pub struct DeltaEncoder<T: DeltaRows> {
    /// Stream incarnation; bumped by [`DeltaEncoder::force_keyframe`]
    /// (resubscribe, retune, reconnect replay).
    epoch: u32,
    /// Sequence of the last *emitted* frame (suppressed reports do not
    /// advance it, so the decoder never sees a gap from suppression).
    seq: u32,
    /// Report opportunities since the last keyframe, plus `phase` when
    /// that keyframe (re)started the stream.
    since_key: u32,
    keyframe_every: u32,
    /// Where the stream sits on the keyframe grid: `< keyframe_every`.
    phase: u32,
    last: Option<Base<T>>,
    /// `(rows, codec, bytes)`: the shortest keyframe blob a snapshot of
    /// `rows` rows can have in `codec` (see [`DeltaRows`] on monotonic
    /// encodings), kept for as long as the row count stays.
    floor: Option<(usize, SmCodec, usize)>,
    /// Bytes of the last keyframe frame: the room the next one is given,
    /// so that it is written without growing.
    key_len: usize,
}

impl<T: DeltaRows> DeltaEncoder<T> {
    /// A fresh stream at phase 0: the first report is a keyframe, and so
    /// is every `keyframe_every`-th opportunity after a keyframe.
    pub fn new(keyframe_every: u32) -> Self {
        Self::with_phase(keyframe_every, 0)
    }

    /// A fresh stream whose periodic keyframes come `phase` (modulo
    /// `keyframe_every`) opportunities early: its first report is a
    /// keyframe, the next comes `keyframe_every - phase` opportunities
    /// later, and every `keyframe_every` after that.  The first report after
    /// a [`DeltaEncoder::force_keyframe`] restarts the grid the same way.
    /// A keyframe the encoder chose for another reason (a structural
    /// change, an oversized delta) restarts the count at phase 0, so that
    /// keyframes are never more than `keyframe_every` opportunities apart.
    pub fn with_phase(keyframe_every: u32, phase: u32) -> Self {
        register_metrics();
        let keyframe_every = keyframe_every.max(1);
        DeltaEncoder {
            epoch: 1,
            seq: 0,
            since_key: 0,
            keyframe_every,
            phase: phase % keyframe_every,
            last: None,
            floor: None,
            key_len: 0,
        }
    }

    /// Current stream epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Starts a new stream incarnation: the next report is a keyframe
    /// under a fresh epoch.  Called on resubscription, retune, and
    /// reconnect replay so the receiver never applies deltas across a
    /// discontinuity.
    pub fn force_keyframe(&mut self) {
        self.epoch = self.epoch.wrapping_add(1).max(1);
        self.last = None;
        self.since_key = 0;
    }

    /// Encodes one report opportunity.  Exactly one of: a keyframe (first
    /// report, periodic refresh, or structural change), a delta frame, or
    /// suppression.
    pub fn encode(&mut self, snap: &T, codec: SmCodec) -> DeltaOut {
        SCRATCH.with_borrow_mut(|s| match self.encode_into(snap, codec, s) {
            Emitted::Keyframe(frame) => DeltaOut::Keyframe(frame),
            Emitted::Delta => DeltaOut::Delta(s.frame.clone()),
            Emitted::Suppressed => DeltaOut::Suppressed,
        })
    }

    /// [`DeltaEncoder::encode`] with an emitted delta left in `s.frame`.
    fn encode_into(&mut self, snap: &T, codec: SmCodec, s: &mut Scratch) -> Emitted {
        self.since_key += 1;
        let sig = snap.structure_sig();
        if self.since_key < self.keyframe_every {
            if let Some(out) = self.try_delta(snap, sig, codec, s) {
                return out;
            }
        }
        let (frame, _) = self.put_keyframe(snap, codec);
        Emitted::Keyframe(self.keyed(snap, sig, frame, s))
    }

    /// The report as a delta against the base, or suppressed; `None` when
    /// only a keyframe will do (no base, a structural change, or row keys
    /// that repeat at either end of the diff).
    fn try_delta(
        &mut self,
        snap: &T,
        sig: u64,
        codec: SmCodec,
        s: &mut Scratch,
    ) -> Option<Emitted> {
        let base = self.last.as_ref().filter(|b| b.unique && b.sig == sig)?;
        let d = diff(&base.snap, snap, s)?;
        let aux = (snap.aux() != base.snap.aux()).then(|| snap.aux());
        if d.is_empty(s) && aux.is_none() {
            obs().suppressed.inc();
            return Some(Emitted::Suppressed);
        }
        s.frame.clear();
        let mut w = BitWriter::over(&mut s.frame);
        encode_frame_header(&mut w, self.epoch, self.seq.wrapping_add(1), true);
        write_delta_body(&mut w, snap, aux, &d, &s.dirty, &s.removed, hash_with_sig(snap, sig));
        // A pathological diff can exceed the keyframe (every field of every
        // row dirty, plus bitmaps); fall back to a keyframe so the stream
        // never costs more than full reporting plus the header.  Only a
        // frame above the floor can, and only then is the keyframe written
        // to compare.
        let len = s.frame.len();
        if len > KEYFRAME_OVERHEAD + self.keyframe_floor(snap, codec) {
            let (frame, blob) = self.put_keyframe(snap, codec);
            if len > KEYFRAME_OVERHEAD + blob {
                return Some(Emitted::Keyframe(self.keyed(snap, sig, frame, s)));
            }
        }
        let base = self.last.as_mut().expect("diffed against it");
        self.seq = self.seq.wrapping_add(1);
        copy_view(&mut base.snap, snap);
        obs().bytes_delta.add(len as u64);
        Some(Emitted::Delta)
    }

    /// `snap` as the stream's next frame, a keyframe, and the length of its
    /// blob.  The snapshot is encoded straight into the frame, behind the
    /// header and the length, in room the last keyframe says it needs.  The
    /// stream does not change until [`Self::keyed`].
    fn put_keyframe(&self, snap: &T, codec: SmCodec) -> (Vec<u8>, usize) {
        let room = match self.key_len {
            0 => SNAPSHOT_CAPACITY + KEYFRAME_OVERHEAD,
            n => n + n / 8,
        };
        let mut w = BitWriter::over(Vec::with_capacity(room));
        encode_frame_header(&mut w, self.epoch, self.seq.wrapping_add(1), false);
        let mut blob = 0;
        w.put_octets_with(|frame| {
            let at = frame.len();
            match codec {
                SmCodec::Asn1Per => snap.encode_per(&mut BitWriter::over(&mut *frame)),
                SmCodec::Flatb => {
                    let mut b = FbBuilder::over(&mut *frame);
                    let root = snap.encode_fb(&mut b);
                    b.finish_buf(root);
                }
            }
            blob = frame.len() - at;
        });
        (w.into_buf(), blob)
    }

    /// Makes `frame`, written by [`Self::put_keyframe`], the stream's next
    /// frame and `snap` its base.  The base keeps its storage, and its keys
    /// are sorted for repeats only when they are not the base's.
    fn keyed(&mut self, snap: &T, sig: u64, frame: Vec<u8>, s: &mut Scratch) -> Vec<u8> {
        self.seq = self.seq.wrapping_add(1);
        self.key_len = frame.len();
        // A keyframe with no base (re)starts the stream: on its grid.
        self.since_key = if self.last.is_none() { self.phase } else { 0 };
        match &mut self.last {
            Some(base) if base.sig == sig => {
                if !same_keys::<T>(base.snap.rows(), snap.rows()) {
                    base.unique = unique_keys::<T>(snap.rows(), &mut s.keys);
                }
                copy_view(&mut base.snap, snap);
            }
            last => {
                let unique = unique_keys::<T>(snap.rows(), &mut s.keys);
                *last = Some(Base { snap: snap.clone(), sig, unique });
            }
        }
        obs().keyframes.inc();
        obs().bytes_keyframe.add(frame.len() as u64);
        frame
    }

    /// A lower bound of `snap.encode(codec).len()` that costs nothing while
    /// the row count stays: the length of as many default rows.
    fn keyframe_floor(&mut self, snap: &T, codec: SmCodec) -> usize {
        let rows = snap.rows().len();
        match self.floor {
            Some((r, c, len)) if r == rows && c == codec => len,
            _ => {
                let mut zero = snap.clone();
                zero.set_tstamp_ms(0);
                zero.set_aux(0);
                zero.rows_mut().iter_mut().for_each(|r| *r = T::new_row(0));
                let len = zero.encode(codec).len();
                self.floor = Some((rows, codec, len));
                len
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Outcome of feeding one frame to the decoder.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaEvent<T> {
    /// The stream's current full snapshot, reconstructed.
    Snapshot {
        /// The reconstruction (byte-identical to the sender's snapshot).
        snap: T,
        /// Whether any content changed relative to the previous
        /// reconstruction (keyframes of unchanged content report `false`).
        changed: bool,
        /// Whether this frame was a keyframe.
        keyframe: bool,
    },
    /// The frame could not be applied (stale epoch, sequence gap, or hash
    /// divergence); the sender must be asked for a keyframe — e.g. by
    /// retuning the subscription.
    NeedKeyframe {
        /// Why the stream lost sync.
        reason: &'static str,
    },
}

/// What walking a delta body to its end found.
struct DeltaBody {
    /// Whether the frame changes content (it always changes the timestamp).
    changed: bool,
    /// Whether the body fits the snapshot it was applied to: `false` when
    /// it carries a value the field (or the aux scalar) may not hold, its
    /// explicit row order names a row the snapshot does not have, or it
    /// grows the snapshot past [`MAX_ROWS`], which no decoder takes.
    consistent: bool,
    /// Whether the body may have added, removed or reordered rows: the
    /// positions of the rows it patched no longer say which rows changed.
    reshaped: bool,
    post_hash: u64,
}

/// The 32-bit keys of a byte-aligned key list.
fn keys_of(list: &[u8]) -> impl Iterator<Item = u32> + '_ {
    list.chunks_exact(4).map(|k| u32::from_be_bytes([k[0], k[1], k[2], k[3]]))
}

/// Position of every row by key (the last one, should keys repeat).
fn index_rows<T: DeltaRows>(rows: &[T::Row]) -> HashMap<u32, usize> {
    rows.iter().enumerate().map(|(i, r)| (T::row_key(r), i)).collect()
}

/// Parses a delta body to its end — every malformation is an `Err` here,
/// whatever `snap` is — and, given a snapshot, patches it on the way:
/// changed and new rows as they are read, then removals, then the explicit
/// order.  Each row it patches goes into `patched` as its position, until
/// the frame adds a row: from then on positions no longer say which rows
/// changed, and the body is `reshaped`.
///
/// A changed row's key and bitmap are one [`BitReader::get_bits`] read;
/// its values are read by the byte cursor of [`BitReader::get_row_uints`],
/// each as its length byte and one load.
///
/// The sender lists changed and removed rows in base order, so a cursor
/// that only moves forward finds them; a hash index is built once, and only
/// when the cursor misses (a new key, or a frame that is not in base
/// order), which keeps any frame at O(rows + changed).  A frame no encoder
/// sends — one key both changed and removed, keys that repeat — may patch
/// differently from what its sender meant; the post-hash is there for that.
fn walk_delta_body<T: DeltaRows>(
    r: &mut BitReader,
    mut snap: Option<&mut T>,
    patched: &mut Vec<u32>,
) -> Result<DeltaBody> {
    let tstamp_ms = r.get_uint()?;
    let aux = if r.get_bit()? { Some(r.get_uint()?) } else { None };
    let mut consistent = true;
    if let Some(snap) = snap.as_deref_mut() {
        snap.set_tstamp_ms(tstamp_ms);
        if let Some(aux) = aux {
            consistent &= snap.set_aux(aux);
        }
    }

    let n_changed = r.get_length()?;
    if n_changed > MAX_ROWS {
        return Err(CodecError::Malformed { what: "too many changed rows" });
    }
    let mut rows = snap.map(T::rows_mut);
    let mut cursor = 0;
    let mut index: Option<HashMap<u32, usize>> = None;
    let mut reshaped = false;
    for _ in 0..n_changed {
        let head = r.get_bits(32 + T::FIELD_COUNT)?;
        let key = (head >> T::FIELD_COUNT) as u32;
        let mut bits = (head & !(u64::MAX << T::FIELD_COUNT)) as u32;
        let mut row = rows.as_deref_mut().map(|rows| {
            let mut pos = None;
            if index.is_none() {
                cursor += rows[cursor..].iter().take_while(|r| T::row_key(r) != key).count();
                if cursor < rows.len() {
                    pos = Some(cursor);
                    cursor += 1;
                }
            }
            let pos = pos.unwrap_or_else(|| {
                let index = index.get_or_insert_with(|| index_rows::<T>(rows));
                *index.entry(key).or_insert_with(|| {
                    rows.push(T::new_row(key));
                    reshaped = true;
                    rows.len() - 1
                })
            });
            if !reshaped {
                patched.push(pos as u32);
            }
            &mut rows[pos]
        });
        r.get_row_uints(bits.count_ones(), |v| {
            if let Some(row) = row.as_deref_mut() {
                consistent &= T::set_field(row, bits.trailing_zeros(), v);
            }
            bits &= bits - 1;
        })?;
    }

    let n_removed = r.get_length()?;
    if n_removed > MAX_ROWS {
        return Err(CodecError::Malformed { what: "too many removed rows" });
    }
    let removed = r.get_raw(4 * n_removed)?;
    let order = if r.get_bit()? {
        let n = r.get_length()?;
        if n > MAX_ROWS {
            return Err(CodecError::Malformed { what: "order too long" });
        }
        Some(r.get_raw(4 * n)?)
    } else {
        None
    };
    let post_hash = r.get_bits(64)?;

    if let Some(rows) = rows {
        let mut removed = keys_of(removed);
        let mut next = removed.next();
        if next.is_some() {
            rows.retain(|r| {
                let hit = next == Some(T::row_key(r));
                if hit {
                    next = removed.next();
                }
                !hit
            });
            // Keys the pass did not meet in base order, or at all.
            if let Some(key) = next {
                let rest: HashSet<u32> = std::iter::once(key).chain(removed).collect();
                rows.retain(|r| !rest.contains(&T::row_key(r)));
            }
        }
        if let Some(order) = order {
            let index = index_rows::<T>(rows);
            let mut old: Vec<Option<T::Row>> = rows.drain(..).map(Some).collect();
            rows.extend(keys_of(order).map_while(|k| old[*index.get(&k)?].take()));
            consistent &= rows.len() == old.len() && 4 * old.len() == order.len();
        }
        consistent &= rows.len() <= MAX_ROWS;
        reshaped |= n_removed > 0 || order.is_some();
    }
    let changed = n_changed > 0 || n_removed > 0 || aux.is_some();
    Ok(DeltaBody { changed, consistent, reshaped, post_hash })
}

/// The [`content_hash`] of a decoder's base, kept in parts: its structure
/// signature and one hash per row, so that a delta rehashes only the rows
/// it patched and folds the rest as they were.
#[derive(Debug, Default)]
struct RowHashes {
    sig: u64,
    rows: Vec<u64>,
}

impl RowHashes {
    /// Hashes every row of `snap`, and its signature.
    fn rebuild<T: DeltaRows>(&mut self, snap: &T) {
        self.sig = snap.structure_sig();
        self.rows.clear();
        self.rows.extend(snap.rows().iter().map(row_hash::<T>));
    }

    /// Rehashes the rows of `snap` that [`walk_delta_body`] patched, at
    /// positions `snap` shares with the snapshot last hashed.
    fn patch<T: DeltaRows>(&mut self, snap: &T, patched: &[u32]) {
        for &pos in patched {
            self.rows[pos as usize] = row_hash::<T>(&snap.rows()[pos as usize]);
        }
    }

    /// The content hash of the snapshot hashed, whose aux scalar is `aux`.
    fn fold(&self, aux: u64) -> u64 {
        fold_rows(aux, self.sig, self.rows.len(), self.rows.iter().copied())
    }
}

thread_local! {
    /// The decode path's working memory: the base positions of the rows
    /// one delta patched.  Per thread, like the encoder's [`SCRATCH`], and
    /// borrowed for one frame — across the snapshot's own accessors, which
    /// therefore must not apply a delta frame themselves.
    static PATCHED: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Per-subscription delta decoder: holds the last reconstruction and
/// applies keyframes and deltas, verifying the post-hash of every delta.
#[derive(Debug, Default)]
pub struct DeltaDecoder<T: DeltaRows> {
    epoch: u32,
    seq: u32,
    last: Option<T>,
    /// The parts of `last`'s content hash, whenever there is a `last`.
    hashes: RowHashes,
    /// `content_hash` of `last`, so a keyframe tells at once whether the
    /// content changed.
    last_hash: u64,
    /// Keyframes applied.
    pub keyframes: u64,
    /// Delta frames applied.
    pub deltas: u64,
    /// Resyncs requested ([`DeltaEvent::NeedKeyframe`] outcomes).
    pub resyncs: u64,
}

impl<T: DeltaRows> DeltaDecoder<T> {
    /// A decoder with no base snapshot; the first useful frame is a
    /// keyframe.
    pub fn new() -> Self {
        register_metrics();
        DeltaDecoder {
            epoch: 0,
            seq: 0,
            last: None,
            hashes: RowHashes::default(),
            last_hash: 0,
            keyframes: 0,
            deltas: 0,
            resyncs: 0,
        }
    }

    /// The current reconstruction, if the stream is in sync.
    pub fn current(&self) -> Option<&T> {
        self.last.as_ref()
    }

    /// Applies one frame.  `Err` means the frame was malformed at the
    /// wire level; [`DeltaEvent::NeedKeyframe`] means it was well-formed
    /// but unusable without a fresh keyframe.  Either leaves the current
    /// reconstruction as it was, unless the frame passed the epoch and
    /// sequence checks and then turned out inconsistent with the base or
    /// its own post-hash: that drops the base until the next keyframe.
    pub fn apply(&mut self, frame: &[u8], codec: SmCodec) -> Result<DeltaEvent<T>> {
        let res = self.apply_inner(frame, codec);
        match &res {
            Err(_) => obs().decode_errors.inc(),
            Ok(DeltaEvent::NeedKeyframe { .. }) => {
                self.resyncs += 1;
                obs().resyncs.inc();
            }
            Ok(DeltaEvent::Snapshot { .. }) => {}
        }
        res
    }

    fn apply_inner(&mut self, frame: &[u8], codec: SmCodec) -> Result<DeltaEvent<T>> {
        let mut r = BitReader::new(frame);
        let epoch = r.get_bits(32)? as u32;
        let seq = r.get_bits(32)? as u32;
        let is_delta = r.get_bit()?;
        if !is_delta {
            let blob = r.get_octets()?;
            let snap = T::decode(codec, blob)?;
            let base_sig = self.hashes.sig;
            self.hashes.rebuild(&snap);
            let hash = self.hashes.fold(snap.aux());
            debug_assert_eq!(hash, content_hash(&snap), "row hashes out of step with the rows");
            let changed = self.last.is_none() || hash != self.last_hash;
            self.epoch = epoch;
            self.seq = seq;
            // The base keeps its storage where it has the keyframe's shape.
            match &mut self.last {
                Some(base) if base_sig == self.hashes.sig => copy_view(base, &snap),
                last => *last = Some(snap.clone()),
            }
            self.last_hash = hash;
            self.keyframes += 1;
            return Ok(DeltaEvent::Snapshot { snap, changed, keyframe: true });
        }
        let in_sequence = epoch == self.epoch && seq == self.seq.wrapping_add(1);
        let Some(base) = self.last.as_mut().filter(|_| in_sequence) else {
            // A frame that is both out of place and malformed is malformed.
            walk_delta_body::<T>(&mut r, None, &mut Vec::new())?;
            let reason = match &self.last {
                None => "no keyframe yet",
                Some(_) if epoch != self.epoch => "epoch changed",
                Some(_) => "sequence gap",
            };
            return Ok(DeltaEvent::NeedKeyframe { reason });
        };
        // The frame patches the copy the caller will get; the row hashes
        // follow once the walk has finished and the base once the hash
        // holds, so a frame that stops parsing half-way leaves no trace.
        let mut snap = base.clone();
        let body = PATCHED.with_borrow_mut(|patched| {
            patched.clear();
            let body = walk_delta_body(&mut r, Some(&mut snap), patched)?;
            if body.reshaped {
                self.hashes.rebuild(&snap);
            } else {
                self.hashes.patch(&snap, patched);
            }
            Result::Ok(body)
        })?;
        let hash = self.hashes.fold(snap.aux());
        debug_assert_eq!(hash, content_hash(&snap), "row hashes out of step with the rows");
        let reason = if !body.consistent {
            "inconsistent delta"
        } else if hash != body.post_hash {
            "hash mismatch"
        } else {
            copy_view(base, &snap);
            self.seq = seq;
            self.last_hash = hash;
            self.deltas += 1;
            return Ok(DeltaEvent::Snapshot { snap, changed: body.changed, keyframe: false });
        };
        // Divergence is terminal for this epoch: drop the base (its row
        // hashes with it) so no further delta applies until a keyframe
        // restores it.
        self.last = None;
        Ok(DeltaEvent::NeedKeyframe { reason })
    }
}

// ---------------------------------------------------------------------------
// Per-subscription stream sets
// ---------------------------------------------------------------------------

/// What a report opportunity produced, across both report modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportOut {
    /// Send these payload bytes (full snapshot, keyframe, or delta).
    Send(Bytes),
    /// Send nothing (suppressed).
    Suppressed,
}

/// The keyframe phase of the stream keyed `key` (see [`DeltaEncoder`]): a
/// hash of the key, modulo `keyframe_every`.  The hash is the step of
/// [`content_hash`] over the words the key's `Hash` impl writes, from 0,
/// not `DefaultHasher`, whose output may change from one toolchain to the
/// next: a stream's phase is a function of its key alone, and a key of
/// zeros is at phase 0.
pub fn phase_of<K: Hash>(key: &K, keyframe_every: u32) -> u32 {
    let mut h = KeyHasher(0);
    key.hash(&mut h);
    (h.finish() % u64::from(keyframe_every.max(1))) as u32
}

/// A fresh stream keyed `key`, at its phase.
fn stream_of<K: Hash, T: DeltaRows>(key: &K, keyframe_every: u32) -> DeltaEncoder<T> {
    DeltaEncoder::with_phase(keyframe_every, phase_of(key, keyframe_every))
}

/// The pinned hasher of [`phase_of`]: one [`mix`] per integer the key
/// writes, one per byte of anything else.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, b| mix(h, u64::from(*b)));
    }
    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, u64::from(v));
    }
    fn write_u16(&mut self, v: u16) {
        self.0 = mix(self.0, u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }
    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
    }
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(HASH_K)
    }
}

/// Encoder streams keyed by subscription, with the full/delta mode switch
/// folded in — the agent-side integration point for RAN functions.  Each
/// stream keyframes on the grid of its key's [`phase_of`], worked out once,
/// when the stream is created.
#[derive(Debug, Default)]
pub struct DeltaStreams<K: Eq + Hash, T: DeltaRows> {
    streams: HashMap<K, DeltaEncoder<T>>,
    /// Scratch for full-mode encodes ([`SmPayload::encode_into`]); delta
    /// frames are built in the thread's [`Scratch`].
    scratch: BytesMut,
}

impl<K: Eq + Hash, T: DeltaRows> DeltaStreams<K, T> {
    /// An empty stream set.
    pub fn new() -> Self {
        register_metrics();
        DeltaStreams { streams: HashMap::new(), scratch: BytesMut::new() }
    }

    /// (Re)starts the stream of a subscription: an existing stream bumps
    /// its epoch (next report is a keyframe), a new one starts fresh.
    /// Call on subscription admit and on a retune that asks for a resync;
    /// a period-only retune over an ordered transport keeps the sequence,
    /// hence the receiver's base, so it leaves the stream alone.
    pub fn reset(&mut self, key: K, keyframe_every: u32) {
        self.streams
            .entry(key)
            .and_modify(|e| e.force_keyframe())
            .or_insert_with_key(|key| stream_of(key, keyframe_every));
    }

    /// Drops the stream of a deleted subscription.
    pub fn remove(&mut self, key: &K) {
        self.streams.remove(key);
    }

    /// Encodes one report opportunity under the subscription's mode.
    /// Full mode bypasses the stream; delta mode diffs/suppresses.  All
    /// `flexric_sm_report_*` series are counted here.
    pub fn report(&mut self, key: K, mode: ReportMode, snap: &T, codec: SmCodec) -> ReportOut {
        match mode {
            ReportMode::Full => {
                // A mode flip back to full invalidates the delta base.
                if let Some(enc) = self.streams.get_mut(&key) {
                    enc.force_keyframe();
                }
                let buf = snap.encode_into(codec, &mut self.scratch);
                obs().bytes_full.add(buf.len() as u64);
                ReportOut::Send(buf)
            }
            ReportMode::Delta { keyframe_every } => {
                let enc = self
                    .streams
                    .entry(key)
                    .or_insert_with_key(|key| stream_of(key, keyframe_every));
                SCRATCH.with_borrow_mut(|s| match enc.encode_into(snap, codec, s) {
                    Emitted::Keyframe(frame) => ReportOut::Send(Bytes::from(frame)),
                    // Copied out at its exact size; the scratch stays.
                    Emitted::Delta => ReportOut::Send(Bytes::copy_from_slice(&s.frame)),
                    Emitted::Suppressed => ReportOut::Suppressed,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacStatsInd, MacUeStats};
    use crate::rlc::{RlcBearerStats, RlcStatsInd};

    fn mac(tstamp: u64, ues: &[(u16, u64)]) -> MacStatsInd {
        MacStatsInd {
            tstamp_ms: tstamp,
            cell_prbs: 106,
            ues: ues
                .iter()
                .map(|(rnti, c)| MacUeStats {
                    rnti: *rnti,
                    cqi: 12,
                    mcs: 20,
                    prbs_dl: (*c % 50) as u32,
                    tbs_dl_bytes: c * 1500,
                    dl_aggr_bytes: c * 3000,
                    ..Default::default()
                })
                .collect(),
        }
    }

    fn roundtrip(frames: &[DeltaOut], codec: SmCodec) -> Vec<DeltaEvent<MacStatsInd>> {
        let mut dec = DeltaDecoder::new();
        frames
            .iter()
            .filter_map(|f| match f {
                DeltaOut::Keyframe(b) | DeltaOut::Delta(b) => {
                    Some(dec.apply(b, codec).expect("well-formed frame"))
                }
                DeltaOut::Suppressed => None,
            })
            .collect()
    }

    #[test]
    fn keyframe_then_deltas_reconstruct_exactly() {
        for codec in SmCodec::ALL {
            let mut enc = DeltaEncoder::new(16);
            let snaps = [
                mac(0, &[(1, 10), (2, 20)]),
                mac(10, &[(1, 11), (2, 20)]),
                mac(20, &[(1, 11), (2, 20), (3, 5)]),
                mac(30, &[(2, 21), (3, 5)]),
            ];
            let frames: Vec<DeltaOut> = snaps.iter().map(|s| enc.encode(s, codec)).collect();
            assert!(matches!(frames[0], DeltaOut::Keyframe(_)), "first is keyframe");
            assert!(frames[1..].iter().all(|f| matches!(f, DeltaOut::Delta(_))));
            let events = roundtrip(&frames, codec);
            assert_eq!(events.len(), snaps.len());
            for (ev, snap) in events.iter().zip(snaps.iter()) {
                match ev {
                    DeltaEvent::Snapshot { snap: got, changed, .. } => {
                        assert_eq!(got, snap, "{codec:?} reconstruction");
                        assert_eq!(got.encode(codec), snap.encode(codec), "byte-identical");
                        assert!(*changed);
                    }
                    other => panic!("{codec:?}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn content_hash_sees_every_field_key_aux_and_the_row_order() {
        let base = mac(0, &[(1, 10), (2, 20), (3, 30)]);
        let h = content_hash(&base);
        let mut later = base.clone();
        later.tstamp_ms = 99;
        assert_eq!(content_hash(&later), h, "the timestamp is outside the hash");
        for ue in 0..base.ues.len() {
            for i in 0..MacStatsInd::FIELD_COUNT {
                for bit in [0, 7, 15] {
                    let mut s = base.clone();
                    let v = MacStatsInd::field(&s.ues[ue], i) ^ (1 << bit);
                    MacStatsInd::set_field(&mut s.ues[ue], i, v);
                    if s != base {
                        assert_ne!(content_hash(&s), h, "ue {ue} field {i} bit {bit}");
                    }
                }
            }
            let mut s = base.clone();
            s.ues[ue].rnti ^= 0x100;
            assert_ne!(content_hash(&s), h, "ue {ue} key");
        }
        let mut s = base.clone();
        s.ues.swap(0, 2);
        assert_ne!(content_hash(&s), h, "row order");
        s = base.clone();
        s.ues.pop();
        assert_ne!(content_hash(&s), h, "row count");
        s = base.clone();
        s.cell_prbs += 1;
        assert_ne!(content_hash(&s), h, "aux");
        // One value in a neighbouring field, or a neighbouring row, is
        // another snapshot.
        s = base.clone();
        (s.ues[0].tbs_dl_bytes, s.ues[0].tbs_ul_bytes) =
            (s.ues[0].tbs_ul_bytes, s.ues[0].tbs_dl_bytes);
        assert_ne!(content_hash(&s), h, "value moved between fields");
        s = base.clone();
        (s.ues[0].bsr, s.ues[1].bsr) = (7, 0);
        let mut t = base.clone();
        (t.ues[0].bsr, t.ues[1].bsr) = (0, 7);
        assert_ne!(content_hash(&s), content_hash(&t), "value moved between rows");
    }

    #[test]
    fn unchanged_snapshot_suppressed_timestamp_ignored() {
        let mut enc = DeltaEncoder::new(1000);
        let a = mac(0, &[(1, 10)]);
        let mut b = a.clone();
        b.tstamp_ms = 50;
        assert!(matches!(enc.encode(&a, SmCodec::Asn1Per), DeltaOut::Keyframe(_)));
        assert_eq!(enc.encode(&b, SmCodec::Asn1Per), DeltaOut::Suppressed);
        // Any content change un-suppresses.
        let mut c = b.clone();
        c.ues[0].bsr = 777;
        assert!(matches!(enc.encode(&c, SmCodec::Asn1Per), DeltaOut::Delta(_)));
    }

    #[test]
    fn periodic_keyframe_even_when_quiescent() {
        let mut enc = DeltaEncoder::new(4);
        let snap = mac(0, &[(1, 10)]);
        let kinds: Vec<u8> = (0..9)
            .map(|i| {
                let mut s = snap.clone();
                s.tstamp_ms = i * 10;
                match enc.encode(&s, SmCodec::Flatb) {
                    DeltaOut::Keyframe(_) => b'k',
                    DeltaOut::Delta(_) => b'd',
                    DeltaOut::Suppressed => b's',
                }
            })
            .collect();
        // Opportunity 1 keys; 2-3 suppress; 4th opportunity re-keys.
        assert_eq!(kinds, b"ksssksssk".to_vec());
    }

    #[test]
    fn lost_delta_detected_and_keyframe_resyncs() {
        let codec = SmCodec::Flatb;
        let mut enc = DeltaEncoder::new(100);
        let mut dec = DeltaDecoder::<MacStatsInd>::new();
        let s1 = mac(0, &[(1, 1)]);
        let s2 = mac(10, &[(1, 2)]);
        let s3 = mac(20, &[(1, 3)]);
        let DeltaOut::Keyframe(f1) = enc.encode(&s1, codec) else { panic!() };
        let DeltaOut::Delta(_lost) = enc.encode(&s2, codec) else { panic!() };
        let DeltaOut::Delta(f3) = enc.encode(&s3, codec) else { panic!() };
        assert!(matches!(dec.apply(&f1, codec).unwrap(), DeltaEvent::Snapshot { .. }));
        // The f2 delta is lost: f3 has a sequence gap.
        assert!(matches!(
            dec.apply(&f3, codec).unwrap(),
            DeltaEvent::NeedKeyframe { reason: "sequence gap" }
        ));
        // The resync path: force a keyframe (as a retune would).
        enc.force_keyframe();
        let s4 = mac(30, &[(1, 4)]);
        let DeltaOut::Keyframe(f4) = enc.encode(&s4, codec) else { panic!() };
        match dec.apply(&f4, codec).unwrap() {
            DeltaEvent::Snapshot { snap, keyframe: true, .. } => assert_eq!(snap, s4),
            other => panic!("unexpected {other:?}"),
        }
        // And the stream continues with deltas.
        let s5 = mac(40, &[(1, 5)]);
        let DeltaOut::Delta(f5) = enc.encode(&s5, codec) else { panic!() };
        match dec.apply(&f5, codec).unwrap() {
            DeltaEvent::Snapshot { snap, keyframe: false, .. } => assert_eq!(snap, s5),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(dec.resyncs, 1);
    }

    #[test]
    fn epoch_change_requires_keyframe() {
        let codec = SmCodec::Asn1Per;
        let mut enc = DeltaEncoder::new(100);
        let mut dec = DeltaDecoder::<MacStatsInd>::new();
        let DeltaOut::Keyframe(f1) = enc.encode(&mac(0, &[(1, 1)]), codec) else { panic!() };
        dec.apply(&f1, codec).unwrap();
        // A new incarnation (reconnect replay) under a bumped epoch.
        enc.force_keyframe();
        let DeltaOut::Keyframe(f2) = enc.encode(&mac(10, &[(1, 2)]), codec) else { panic!() };
        // Deltas of the new epoch apply only after its keyframe.
        let DeltaOut::Delta(f3) = enc.encode(&mac(20, &[(1, 3)]), codec) else { panic!() };
        let mut stale = DeltaDecoder::<MacStatsInd>::new();
        stale.apply(&f1, codec).unwrap();
        assert!(matches!(
            stale.apply(&f3, codec).unwrap(),
            DeltaEvent::NeedKeyframe { reason: "epoch changed" }
        ));
        dec.apply(&f2, codec).unwrap();
        assert!(matches!(dec.apply(&f3, codec).unwrap(), DeltaEvent::Snapshot { .. }));
    }

    #[test]
    fn row_reordering_reconstructs_in_order() {
        let codec = SmCodec::Flatb;
        let mut enc = DeltaEncoder::new(100);
        let mut dec = DeltaDecoder::<MacStatsInd>::new();
        let s1 = mac(0, &[(1, 1), (2, 2), (3, 3)]);
        let s2 = mac(10, &[(3, 3), (1, 1), (2, 9)]); // reordered + one change
        let DeltaOut::Keyframe(f1) = enc.encode(&s1, codec) else { panic!() };
        let f2 = match enc.encode(&s2, codec) {
            DeltaOut::Delta(f) => f,
            DeltaOut::Keyframe(f) => f, // acceptable fallback, still exact
            DeltaOut::Suppressed => panic!("content changed"),
        };
        dec.apply(&f1, codec).unwrap();
        match dec.apply(&f2, codec).unwrap() {
            DeltaEvent::Snapshot { snap, .. } => {
                assert_eq!(snap, s2);
                assert_eq!(snap.encode(codec), s2.encode(codec));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_frames_rejected_not_panicking() {
        let mut dec = DeltaDecoder::<RlcStatsInd>::new();
        assert!(dec.apply(&[], SmCodec::Asn1Per).is_err());
        let _ = dec.apply(&[0xFF; 11], SmCodec::Asn1Per);
        let _ = dec.apply(&[0x00; 32], SmCodec::Flatb);
    }

    #[test]
    fn rlc_stream_roundtrip() {
        let codec = SmCodec::Asn1Per;
        let mk = |t: u64, soj: u64| RlcStatsInd {
            tstamp_ms: t,
            bearers: vec![RlcBearerStats {
                rnti: 0x4601,
                drb_id: 1,
                tx_pdus: t,
                sojourn_us_avg: soj,
                ..Default::default()
            }],
        };
        let mut enc = DeltaEncoder::new(8);
        let mut dec = DeltaDecoder::<RlcStatsInd>::new();
        for i in 0..20u64 {
            let snap = mk(i * 10, 100 + i * 7);
            match enc.encode(&snap, codec) {
                DeltaOut::Keyframe(f) | DeltaOut::Delta(f) => match dec.apply(&f, codec).unwrap() {
                    DeltaEvent::Snapshot { snap: got, .. } => {
                        assert_eq!(got, snap);
                    }
                    other => panic!("unexpected {other:?}"),
                },
                DeltaOut::Suppressed => panic!("every report changes"),
            }
        }
        assert_eq!(dec.resyncs, 0);
    }

    #[test]
    fn a_delta_that_grows_the_snapshot_past_max_rows_needs_a_keyframe() {
        for codec in SmCodec::ALL {
            let rows = (0..MAX_ROWS as u32).map(RlcStatsInd::new_row).collect();
            let full = RlcStatsInd { tstamp_ms: 0, bearers: rows };
            let mut grown = full.clone();
            grown.tstamp_ms = 10;
            grown.bearers.push(RlcStatsInd::new_row(MAX_ROWS as u32));
            // No decoder takes the grown snapshot, as a keyframe or at all.
            assert!(RlcStatsInd::decode(codec, &grown.encode(codec)).is_err());

            let mut enc = DeltaEncoder::new(100);
            let mut dec = DeltaDecoder::<RlcStatsInd>::new();
            let DeltaOut::Keyframe(key) = enc.encode(&full, codec) else { panic!() };
            assert!(matches!(dec.apply(&key, codec).unwrap(), DeltaEvent::Snapshot { .. }));
            let DeltaOut::Delta(delta) = enc.encode(&grown, codec) else { panic!() };
            assert_eq!(
                dec.apply(&delta, codec).unwrap(),
                DeltaEvent::NeedKeyframe { reason: "inconsistent delta" },
                "{codec:?}"
            );
            assert!(dec.current().is_none());
        }
    }

    #[test]
    fn delta_frames_smaller_than_full_snapshots() {
        let codec = SmCodec::Flatb;
        let base: Vec<(u16, u64)> = (0..32).map(|i| (0x4601 + i as u16, 100)).collect();
        let mut enc = DeltaEncoder::new(1000);
        let s1 = mac(0, &base);
        enc.encode(&s1, codec);
        // One UE's counters move.
        let mut bumped = base.clone();
        bumped[3].1 = 101;
        let s2 = mac(10, &bumped);
        let DeltaOut::Delta(f) = enc.encode(&s2, codec) else { panic!("expected delta") };
        let full = s2.encode(codec).len();
        assert!(
            f.len() * 4 < full,
            "delta {} B should be ≪ full {} B for a 1-of-32-UE change",
            f.len(),
            full
        );
    }

    #[test]
    fn streams_full_mode_counts_and_mode_flip_rekeys() {
        let codec = SmCodec::Flatb;
        let mut streams: DeltaStreams<u32, MacStatsInd> = DeltaStreams::new();
        let snap = mac(0, &[(1, 1)]);
        let ReportOut::Send(full) = streams.report(7, ReportMode::Full, &snap, codec) else {
            panic!()
        };
        assert_eq!(full, snap.encode(codec));
        // Delta mode: fresh stream keys first.
        let ReportOut::Send(kf) =
            streams.report(7, ReportMode::Delta { keyframe_every: 8 }, &snap, codec)
        else {
            panic!()
        };
        assert_ne!(kf, full, "keyframe frame is wrapped, not the bare snapshot");
        // Unchanged content suppresses on the delta stream.
        let mut s2 = snap.clone();
        s2.tstamp_ms = 99;
        assert_eq!(
            streams.report(7, ReportMode::Delta { keyframe_every: 8 }, &s2, codec),
            ReportOut::Suppressed
        );
    }
}
