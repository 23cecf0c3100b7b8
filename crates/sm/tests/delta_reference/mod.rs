//! The delta stream as it was first written (PR 8): hash tables and a
//! `Vec` per changed row on the way out, `prev.clone()` + tables +
//! `snap.clone()` on the way in, and a whole-snapshot encode after every
//! delta just to compare lengths.  Slow and plain — kept, test-only, as the
//! reference the production encoder and decoder are held to: same outcome
//! on every report opportunity, the same frame bytes, the same
//! reconstruction from any bytes.
//!
//! Only the content hash is the crate's own ([`flexric_sm::content_hash`]):
//! its value travels in the frames, so two definitions could never produce
//! equal bytes.  Everything here needs nothing but the public
//! [`DeltaRows`] trait and the PER bit reader / writer.

use std::collections::{HashMap, HashSet};

use flexric_codec::error::{CodecError, Result};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_sm::delta::{content_hash, DeltaEvent, DeltaOut, DeltaRows};
use flexric_sm::SmCodec;

const MAX_ROWS: usize = 65_536;

/// A decoded delta frame, before application.
struct DeltaBody {
    tstamp_ms: u64,
    aux: Option<u64>,
    /// `(key, bitmap, values-in-ascending-bit-order)`.
    changed: Vec<(u32, u32, Vec<u64>)>,
    removed: Vec<u32>,
    /// Explicit final key order, when append-order reconstruction would
    /// be wrong (row reordering between snapshots).
    order: Option<Vec<u32>>,
    post_hash: u64,
}

fn encode_frame_header(w: &mut BitWriter, epoch: u32, seq: u32, is_delta: bool) {
    w.put_bits(epoch as u64, 32);
    w.put_bits(seq as u64, 32);
    w.put_bit(is_delta);
}

fn encode_delta_body<T: DeltaRows>(w: &mut BitWriter, body: &DeltaBody) {
    w.put_uint(body.tstamp_ms);
    w.put_bit(body.aux.is_some());
    if let Some(aux) = body.aux {
        w.put_uint(aux);
    }
    w.put_length(body.changed.len());
    for (key, bitmap, values) in &body.changed {
        w.put_bits(*key as u64, 32);
        w.put_bits(*bitmap as u64, T::FIELD_COUNT);
        for v in values {
            w.put_uint(*v);
        }
    }
    w.put_length(body.removed.len());
    for key in &body.removed {
        w.put_bits(*key as u64, 32);
    }
    w.put_bit(body.order.is_some());
    if let Some(order) = &body.order {
        w.put_length(order.len());
        for key in order {
            w.put_bits(*key as u64, 32);
        }
    }
    w.put_bits(body.post_hash, 64);
}

fn decode_delta_body<T: DeltaRows>(r: &mut BitReader) -> Result<DeltaBody> {
    let tstamp_ms = r.get_uint()?;
    let aux = if r.get_bit()? { Some(r.get_uint()?) } else { None };
    let n_changed = r.get_length()?;
    if n_changed > MAX_ROWS {
        return Err(CodecError::Malformed { what: "too many changed rows" });
    }
    let mut changed = Vec::with_capacity(n_changed.min(1024));
    for _ in 0..n_changed {
        let key = r.get_bits(32)? as u32;
        let bitmap = r.get_bits(T::FIELD_COUNT)? as u32;
        let mut values = Vec::with_capacity(bitmap.count_ones() as usize);
        for _ in 0..bitmap.count_ones() {
            values.push(r.get_uint()?);
        }
        changed.push((key, bitmap, values));
    }
    let n_removed = r.get_length()?;
    if n_removed > MAX_ROWS {
        return Err(CodecError::Malformed { what: "too many removed rows" });
    }
    let mut removed = Vec::with_capacity(n_removed.min(1024));
    for _ in 0..n_removed {
        removed.push(r.get_bits(32)? as u32);
    }
    let order = if r.get_bit()? {
        let n = r.get_length()?;
        if n > MAX_ROWS {
            return Err(CodecError::Malformed { what: "order too long" });
        }
        let mut order = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            order.push(r.get_bits(32)? as u32);
        }
        Some(order)
    } else {
        None
    };
    let post_hash = r.get_bits(64)?;
    Ok(DeltaBody { tstamp_ms, aux, changed, removed, order, post_hash })
}

/// Whether every row key is unique.
pub fn unique_keys<T: DeltaRows>(rows: &[T::Row]) -> bool {
    let mut seen = HashSet::with_capacity(rows.len());
    rows.iter().all(|r| seen.insert(T::row_key(r)))
}

fn diff<T: DeltaRows>(prev: &T, cur: &T, post_hash: u64) -> DeltaBody {
    let prev_idx: HashMap<u32, &T::Row> = prev.rows().iter().map(|r| (T::row_key(r), r)).collect();
    let cur_keys: HashSet<u32> = cur.rows().iter().map(|r| T::row_key(r)).collect();
    let mut changed = Vec::new();
    let mut new_keys = Vec::new();
    for row in cur.rows() {
        let key = T::row_key(row);
        let base_row;
        let is_new = !prev_idx.contains_key(&key);
        let base = match prev_idx.get(&key) {
            Some(p) => *p,
            None => {
                new_keys.push(key);
                base_row = T::new_row(key);
                &base_row
            }
        };
        let mut bitmap = 0u32;
        let mut values = Vec::new();
        for i in 0..T::FIELD_COUNT {
            let v = T::field(row, i);
            if v != T::field(base, i) {
                bitmap |= 1 << i;
                values.push(v);
            }
        }
        // New keys must appear even with an empty bitmap (an all-default
        // row), or the decoder would never materialize them.
        if bitmap != 0 || is_new {
            changed.push((key, bitmap, values));
        }
    }
    let removed: Vec<u32> =
        prev.rows().iter().map(|r| T::row_key(r)).filter(|k| !cur_keys.contains(k)).collect();
    // Expected reconstruction order: surviving previous rows in place,
    // new rows appended in snapshot order.  Carry an explicit order only
    // when the snapshot deviates (reordering).
    let mut expected: Vec<u32> =
        prev.rows().iter().map(|r| T::row_key(r)).filter(|k| cur_keys.contains(k)).collect();
    expected.extend(new_keys.iter().copied());
    let actual: Vec<u32> = cur.rows().iter().map(|r| T::row_key(r)).collect();
    let order = (expected != actual).then_some(actual);
    DeltaBody {
        tstamp_ms: cur.tstamp_ms(),
        aux: (cur.aux() != prev.aux()).then(|| cur.aux()),
        changed,
        removed,
        order,
        post_hash,
    }
}

/// Applies a delta body to the previous reconstruction; `None` if the
/// body references state the base does not have, or grows it past
/// `MAX_ROWS` rows, a snapshot no decoder takes.
fn apply_body<T: DeltaRows>(prev: &T, body: &DeltaBody) -> Option<T> {
    let mut snap = prev.clone();
    snap.set_tstamp_ms(body.tstamp_ms);
    if let Some(aux) = body.aux {
        snap.set_aux(aux);
    }
    let removed: HashSet<u32> = body.removed.iter().copied().collect();
    let rows = snap.rows_mut();
    rows.retain(|r| !removed.contains(&T::row_key(r)));
    let mut index: HashMap<u32, usize> =
        rows.iter().enumerate().map(|(i, r)| (T::row_key(r), i)).collect();
    for (key, bitmap, values) in &body.changed {
        let idx = match index.get(key) {
            Some(i) => *i,
            None => {
                rows.push(T::new_row(*key));
                index.insert(*key, rows.len() - 1);
                rows.len() - 1
            }
        };
        let row = &mut rows[idx];
        let mut vi = 0;
        for i in 0..T::FIELD_COUNT {
            if bitmap & (1 << i) != 0 {
                T::set_field(row, i, *values.get(vi)?);
                vi += 1;
            }
        }
    }
    if let Some(order) = &body.order {
        if order.len() != rows.len() {
            return None;
        }
        let mut by_key: HashMap<u32, T::Row> =
            rows.drain(..).map(|r| (T::row_key(&r), r)).collect();
        for key in order {
            rows.push(by_key.remove(key)?);
        }
    }
    if rows.len() > MAX_ROWS {
        return None;
    }
    Some(snap)
}

/// The sender as it was: a hash of every snapshot, a diff through hash
/// tables, and the snapshot encoded after every delta to compare lengths.
pub struct RefEncoder<T: DeltaRows> {
    epoch: u32,
    seq: u32,
    since_key: u32,
    keyframe_every: u32,
    last: Option<T>,
    last_hash: u64,
}

impl<T: DeltaRows> RefEncoder<T> {
    pub fn new(keyframe_every: u32) -> Self {
        RefEncoder {
            epoch: 1,
            seq: 0,
            since_key: 0,
            keyframe_every: keyframe_every.max(1),
            last: None,
            last_hash: 0,
        }
    }

    pub fn encode(&mut self, snap: &T, codec: SmCodec) -> DeltaOut {
        self.since_key += 1;
        let hash = content_hash(snap);
        let keyframe_due = self.since_key >= self.keyframe_every;
        let base_ok = match &self.last {
            None => false,
            Some(last) => {
                last.structure_sig() == snap.structure_sig() && unique_keys::<T>(snap.rows())
            }
        };
        if base_ok && !keyframe_due && hash == self.last_hash {
            return DeltaOut::Suppressed;
        }
        if !base_ok || keyframe_due {
            return DeltaOut::Keyframe(self.emit_keyframe(snap, hash, codec));
        }
        let last = self.last.as_ref().expect("base_ok implies last");
        let body = diff(last, snap, hash);
        let mut w = BitWriter::with_capacity(256);
        self.seq = self.seq.wrapping_add(1);
        encode_frame_header(&mut w, self.epoch, self.seq, true);
        encode_delta_body::<T>(&mut w, &body);
        let frame = w.finish();
        // Header (9 B) + length determinant + blob.
        let key_len = 9 + 4 + snap.encode(codec).len();
        if frame.len() > key_len {
            self.seq = self.seq.wrapping_sub(1);
            return DeltaOut::Keyframe(self.emit_keyframe(snap, hash, codec));
        }
        self.last = Some(snap.clone());
        self.last_hash = hash;
        DeltaOut::Delta(frame)
    }

    fn emit_keyframe(&mut self, snap: &T, hash: u64, codec: SmCodec) -> Vec<u8> {
        let blob = snap.encode(codec);
        let mut w = BitWriter::with_capacity(blob.len() + 16);
        self.seq = self.seq.wrapping_add(1);
        encode_frame_header(&mut w, self.epoch, self.seq, false);
        w.put_octets(&blob);
        self.since_key = 0;
        self.last = Some(snap.clone());
        self.last_hash = hash;
        w.finish()
    }
}

/// The receiver as it was: every delta body decoded into vectors, applied
/// to a clone of the base through hash tables, and cloned again to keep.
#[derive(Default)]
pub struct RefDecoder<T: DeltaRows> {
    epoch: u32,
    seq: u32,
    last: Option<T>,
}

impl<T: DeltaRows> RefDecoder<T> {
    pub fn new() -> Self {
        RefDecoder { epoch: 0, seq: 0, last: None }
    }

    pub fn current(&self) -> Option<&T> {
        self.last.as_ref()
    }

    pub fn apply(&mut self, frame: &[u8], codec: SmCodec) -> Result<DeltaEvent<T>> {
        let mut r = BitReader::new(frame);
        let epoch = r.get_bits(32)? as u32;
        let seq = r.get_bits(32)? as u32;
        let is_delta = r.get_bit()?;
        if !is_delta {
            let blob = r.get_octets()?;
            let snap = T::decode(codec, blob)?;
            let changed = match &self.last {
                Some(prev) => content_hash(prev) != content_hash(&snap),
                None => true,
            };
            self.epoch = epoch;
            self.seq = seq;
            self.last = Some(snap.clone());
            return Ok(DeltaEvent::Snapshot { snap, changed, keyframe: true });
        }
        let body = decode_delta_body::<T>(&mut r)?;
        if self.last.is_none() {
            return Ok(DeltaEvent::NeedKeyframe { reason: "no keyframe yet" });
        }
        if epoch != self.epoch {
            return Ok(DeltaEvent::NeedKeyframe { reason: "epoch changed" });
        }
        if seq != self.seq.wrapping_add(1) {
            return Ok(DeltaEvent::NeedKeyframe { reason: "sequence gap" });
        }
        let prev = self.last.as_ref().expect("checked above");
        let Some(snap) = apply_body(prev, &body) else {
            self.last = None;
            return Ok(DeltaEvent::NeedKeyframe { reason: "inconsistent delta" });
        };
        if content_hash(&snap) != body.post_hash {
            self.last = None;
            return Ok(DeltaEvent::NeedKeyframe { reason: "hash mismatch" });
        }
        let changed = !body.changed.is_empty() || !body.removed.is_empty() || body.aux.is_some();
        self.seq = seq;
        self.last = Some(snap.clone());
        Ok(DeltaEvent::Snapshot { snap, changed, keyframe: false })
    }
}
