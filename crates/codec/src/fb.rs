//! FlatBuffers-style zero-copy encoding primitives.
//!
//! A from-scratch implementation of the scheme that gives Google FlatBuffers
//! its performance profile: messages are graphs of *tables* whose fields are
//! located through a *vtable*, so any field of a received message can be
//! read directly from the raw bytes in O(depth) pointer chasing — no decode
//! pass, no allocation.  This is the property behind the paper's Fig. 8b
//! (the controller's subscription lookup over FB-encoded E2AP uses ~4× less
//! CPU than over ASN.1) and behind the 30–40 B per-message overhead noted in
//! §5.2.
//!
//! ## Wire layout (little-endian throughout)
//!
//! ```text
//! message  := magic:u16 (0x5246 "FR") version:u16 root:u32   table*
//! table    := vtable_pos:u32  field-data…       ; vtable_pos is absolute
//! vtable   := nslots:u16  (rel_off:u16)*        ; rel_off from table start,
//!                                               ; 0 = field absent
//! blob     := len:u32 data…                     ; strings and byte arrays
//! vector   := len:u32 elem…                     ; scalars or u32 offsets
//! ```
//!
//! A vtable describes a *layout*, not a table: it may sit anywhere in the
//! message, before or after the tables that point at it, and any number of
//! tables may share one.  The builder writes a vtable right after the first
//! table that needs it and points every later table of the same layout at
//! that copy (as real FlatBuffers does), so the 32 rows of a statistics
//! snapshot carry one vtable, not 32.  Unlike real FlatBuffers we build
//! front-to-back; readers follow absolute offsets and care about neither.
//!
//! The builder writes a unit at a time — a table, a vector, a blob, a
//! vector of tables of one layout — in one pass.  A unit whose bytes exist
//! already (a blob, a table staged in its [`TableBuilder`]) is copied into
//! the sink; one that is computed in place (an offset vector, the rows of
//! [`FbBuilder::vec_of_tables`]) is sized first, the sink grown once and
//! the fields stored into the new tail at known offsets.

use crate::error::{CodecError, Result};
use crate::sink::ByteSink;

/// Magic value identifying an FB-encoded message.
pub const FB_MAGIC: u16 = 0x5246;
/// Format version.
pub const FB_VERSION: u16 = 1;
/// Size of the message header (magic + version + root offset).
pub const FB_HEADER_LEN: usize = 8;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Slot numbers a table may use (`0..MAX_SLOTS`).
const MAX_SLOTS: usize = 64;

/// Vtables a builder remembers for sharing.  A message with more distinct
/// table layouts than this forgets the oldest (and would then write that
/// layout's vtable again).
const VTABLE_MEMO: usize = 8;

/// Builder for an FB-style message.
///
/// Out-of-line children (blobs, vectors, subtables) must be written before
/// the table that references them, as with real FlatBuffers; the
/// exceptions are [`Self::vec_off_with`] and [`Self::vec_of_tables`], which
/// write a vector ahead of its elements.
#[derive(Debug)]
pub struct FbBuilder<B: ByteSink = Vec<u8>> {
    buf: B,
    /// Buffer length at construction: offsets are relative to this point,
    /// so a message appended after existing content (e.g. into a reused
    /// scratch buffer) is self-contained once split off.
    base: usize,
    /// Message-relative positions of the vtables this message holds, a
    /// ring of the last [`VTABLE_MEMO`] written.
    vtables: [u32; VTABLE_MEMO],
    vtables_written: usize,
}

impl Default for FbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FbBuilder {
    /// Creates a builder with the message header reserved.
    pub fn new() -> Self {
        Self::with_capacity(128)
    }

    /// Creates a builder with a payload capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Self::over(Vec::with_capacity(FB_HEADER_LEN + cap))
    }

    /// Sets the root table and returns the finished message bytes.
    pub fn finish(self, root: u32) -> Vec<u8> {
        self.finish_buf(root)
    }
}

impl<B: ByteSink> FbBuilder<B> {
    /// Wraps an existing buffer, appending the message header after its
    /// current contents.  Recover the buffer with [`Self::finish_buf`].
    pub fn over(mut buf: B) -> Self {
        let base = buf.len();
        let header = buf.grow(FB_HEADER_LEN); // root stays 0 until finish
        header[..2].copy_from_slice(&FB_MAGIC.to_le_bytes());
        header[2..4].copy_from_slice(&FB_VERSION.to_le_bytes());
        FbBuilder { buf, base, vtables: [0; VTABLE_MEMO], vtables_written: 0 }
    }

    /// Current write position, relative to the message start.
    fn pos(&self) -> u32 {
        (self.buf.len() - self.base) as u32
    }

    /// Writes a vector of `W`-byte little-endian scalars, count and elements
    /// in one reservation.
    #[inline]
    fn vec_le<I, const W: usize>(&mut self, vals: I, le: impl Fn(I::Item) -> [u8; W]) -> u32
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let vals = vals.into_iter();
        let (pos, len) = (self.pos(), vals.len());
        let (count, elems) = self.buf.grow(4 + W * len).split_at_mut(4);
        count.copy_from_slice(&(len as u32).to_le_bytes());
        // `zip`: an iterator that yields more than it announced must not
        // write past the reservation.
        for (v, elem) in vals.zip(elems.chunks_exact_mut(W)) {
            elem.copy_from_slice(&le(v));
        }
        pos
    }

    /// Writes a blob (byte string), returning its message-relative offset.
    pub fn blob(&mut self, data: &[u8]) -> u32 {
        let pos = self.pos();
        self.buf.put_slice(&(data.len() as u32).to_le_bytes());
        self.buf.put_slice(data);
        pos
    }

    /// Writes a UTF-8 string blob, returning its message-relative offset.
    pub fn string(&mut self, s: &str) -> u32 {
        self.blob(s.as_bytes())
    }

    /// Writes a vector of message-relative offsets (tables / blobs).
    pub fn vec_off(&mut self, offs: &[u32]) -> u32 {
        self.vec_u32(offs)
    }

    /// Writes a vector of offsets *ahead of* the children it points at:
    /// reserves one slot per item, then has `child` write each item's table
    /// or blob and fills the slot in with the offset it returns.  A message
    /// with one row per UE needs no list of row offsets on the side.
    pub fn vec_off_with<I, F>(&mut self, items: I, mut child: F) -> u32
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        F: FnMut(&mut Self, I::Item) -> u32,
    {
        let items = items.into_iter();
        let len = items.len();
        let pos = self.pos();
        // The slots stay zero until each child ends and its offset is known.
        self.buf.grow(4 + 4 * len)[..4].copy_from_slice(&(len as u32).to_le_bytes());
        let mut slot = self.base + pos as usize + 4;
        // `take`: an iterator that yields more than it announced must not
        // write past the slots.
        for item in items.take(len) {
            let off = child(self, item);
            self.buf.as_mut_slice()[slot..slot + 4].copy_from_slice(&off.to_le_bytes());
            slot += 4;
        }
        pos
    }

    /// Writes a vector of tables that all have one layout — `size` bytes
    /// each, the vtable pointer leading, described by `vtable` — ahead of
    /// the tables themselves: the offset vector, one table per item and, if
    /// the message holds no equal vtable yet, the vtable after the first
    /// table, all in one reservation.  `fill` is handed each item and its
    /// table, pointer already in place, and stores the fields where
    /// `vtable` says they are.  The bytes are those of [`Self::vec_off_with`]
    /// over a [`TableBuilder`] per item: with every slot of every table
    /// written, they sit at offsets that depend on the item count alone.
    #[inline]
    pub fn vec_of_tables<I, F>(&mut self, size: usize, vtable: &[u8], items: I, mut fill: F) -> u32
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        F: FnMut(I::Item, &mut [u8]),
    {
        assert!(size >= 4, "a table starts with its vtable pointer");
        let items = items.into_iter();
        let len = items.len();
        let pos = self.pos();
        let first = pos + 4 + 4 * len as u32;
        let shared = self.shared_vtable(vtable);
        // Bytes of the vtable this vector writes itself.
        let own = if len == 0 || shared.is_some() { 0 } else { vtable.len() };
        let vt_pos = shared.unwrap_or(first + size as u32);

        let unit = self.buf.grow(4 + len * (4 + size) + own);
        let (count, unit) = unit.split_at_mut(4);
        count.copy_from_slice(&(len as u32).to_le_bytes());
        let (slots, tables) = unit.split_at_mut(4 * len);
        // `zip`: an iterator that yields more than it announced must not
        // write past the slots.
        for (i, (item, slot)) in items.zip(slots.chunks_exact_mut(4)).enumerate() {
            // The vtable this vector writes follows its first table.
            let at = i * size + if i == 0 { 0 } else { own };
            slot.copy_from_slice(&(first + at as u32).to_le_bytes());
            let table = &mut tables[at..at + size];
            table[..4].copy_from_slice(&vt_pos.to_le_bytes());
            fill(item, table);
        }
        if own != 0 {
            tables[size..size + own].copy_from_slice(vtable);
            self.remember_vtable(vt_pos);
        }
        pos
    }

    /// Writes a vector of u16 scalars.
    pub fn vec_u16(&mut self, vals: &[u16]) -> u32 {
        self.vec_le(vals.iter().copied(), u16::to_le_bytes)
    }

    /// Writes a vector of u32 scalars.
    pub fn vec_u32(&mut self, vals: &[u32]) -> u32 {
        self.vec_le(vals.iter().copied(), u32::to_le_bytes)
    }

    /// Writes a vector of u64 scalars.
    pub fn vec_u64(&mut self, vals: &[u64]) -> u32 {
        self.vec_u64_of(vals.iter().copied())
    }

    /// Writes a vector of u64 scalars as `vals` yields them, in place: a
    /// list that is packed into scalars needs no packed copy on the side.
    pub fn vec_u64_of<I>(&mut self, vals: I) -> u32
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        self.vec_le(vals, u64::to_le_bytes)
    }

    /// Position of a vtable already in this message whose bytes equal `vt`.
    #[inline]
    fn shared_vtable(&self, vt: &[u8]) -> Option<u32> {
        let msg = &self.buf.as_slice()[self.base..];
        let remembered = &self.vtables[..self.vtables_written.min(VTABLE_MEMO)];
        remembered.iter().copied().find(|&pos| msg[pos as usize..].starts_with(vt))
    }

    /// Enters the vtable just written at `pos` into the memo.
    #[inline]
    fn remember_vtable(&mut self, pos: u32) {
        self.vtables[self.vtables_written % VTABLE_MEMO] = pos;
        self.vtables_written += 1;
    }

    /// Appends a table staged by [`TableBuilder`] — `table`, its first four
    /// bytes room for the vtable pointer — and its vtable unless an equal
    /// one is already in the message, returning the table's offset.
    #[inline]
    fn end_table(&mut self, table: &mut [u8], vt: &[u8]) -> u32 {
        let table_pos = self.pos();
        let shared = self.shared_vtable(vt);
        let vt_pos = shared.unwrap_or(table_pos + table.len() as u32);
        table[..4].copy_from_slice(&vt_pos.to_le_bytes());
        self.buf.put_slice(table);
        if shared.is_none() {
            self.buf.put_slice(vt);
            self.remember_vtable(vt_pos);
        }
        table_pos
    }

    /// Sets the root table and returns the underlying buffer, with the
    /// message appended after whatever the buffer held at construction.
    pub fn finish_buf(mut self, root: u32) -> B {
        let rp = self.base + 4;
        self.buf.as_mut_slice()[rp..rp + 4].copy_from_slice(&root.to_le_bytes());
        self.buf
    }
}

/// Layout of a table that holds every slot `0..N` in slot order: what
/// [`FbBuilder::vec_of_tables`] needs of a row type, computed from the
/// field widths in const context.  `VT` is the vtable's length,
/// `2 + 2 * N`.
#[derive(Debug, Clone, Copy)]
pub struct RowLayout<const N: usize, const VT: usize> {
    /// Offset of each slot's field from the table's start.
    pub offsets: [usize; N],
    /// Bytes of the table: the vtable pointer, then the fields.
    pub size: usize,
    /// The vtable: the slot count, then each offset.
    pub vtable: [u8; VT],
}

impl<const N: usize, const VT: usize> RowLayout<N, VT> {
    /// The layout of fields `widths[k]` bytes wide in slot `k`.
    pub const fn new(widths: [usize; N]) -> Self {
        assert!(N <= MAX_SLOTS && VT == 2 + 2 * N);
        let (mut offsets, mut vtable) = ([0; N], [0; VT]);
        let nslots = (N as u16).to_le_bytes();
        (vtable[0], vtable[1]) = (nslots[0], nslots[1]);
        let (mut size, mut k) = (4, 0); // the vtable pointer leads
        while k < N {
            offsets[k] = size;
            let off = (size as u16).to_le_bytes();
            (vtable[2 + 2 * k], vtable[3 + 2 * k]) = (off[0], off[1]);
            size += widths[k];
            k += 1;
        }
        RowLayout { offsets, size, vtable }
    }
}

/// Room a [`TableBuilder`] has for its table: the vtable pointer and every
/// slot at the widest scalar.
const MAX_TABLE: usize = 4 + 8 * MAX_SLOTS;

/// Stages one table before writing it.
///
/// Slots may be pushed in any order; absent optional fields are simply not
/// pushed.  The builder holds the table's bytes as they will be written —
/// room for the vtable pointer, then the fields in push order — and its
/// vtable beside them, both inline: no table allocates, whatever its width.
///
/// Everything is `#[inline]`: where a table's slots are spelled out in one
/// place, the compiler knows every offset, and builder and
/// [`TableBuilder::end`] become straight-line stores and one copy into the
/// sink.
#[derive(Debug)]
pub struct TableBuilder {
    table: [u8; MAX_TABLE],
    /// Bytes of `table` in use.
    size: usize,
    /// `nslots:u16` (filled in at the end), then each slot's offset.
    vtable: [u8; 2 + 2 * MAX_SLOTS],
    nslots: usize,
}

impl Default for TableBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TableBuilder {
    /// Creates an empty table builder.
    #[inline]
    pub fn new() -> Self {
        TableBuilder { table: [0; MAX_TABLE], size: 4, vtable: [0; 2 + 2 * MAX_SLOTS], nslots: 0 }
    }

    #[inline]
    fn push<const W: usize>(&mut self, slot: u16, le: [u8; W]) -> &mut Self {
        let slot = slot as usize;
        assert!(slot < MAX_SLOTS, "table slot {slot} out of range");
        self.vtable[2 + 2 * slot..4 + 2 * slot].copy_from_slice(&(self.size as u16).to_le_bytes());
        self.nslots = self.nslots.max(slot + 1);
        self.table[self.size..self.size + W].copy_from_slice(&le);
        self.size += W;
        self
    }

    /// Sets a u8 scalar slot.
    #[inline]
    pub fn u8(&mut self, slot: u16, v: u8) -> &mut Self {
        self.push(slot, [v])
    }

    /// Sets a u16 scalar slot.
    #[inline]
    pub fn u16(&mut self, slot: u16, v: u16) -> &mut Self {
        self.push(slot, v.to_le_bytes())
    }

    /// Sets a u32 scalar slot.
    #[inline]
    pub fn u32(&mut self, slot: u16, v: u32) -> &mut Self {
        self.push(slot, v.to_le_bytes())
    }

    /// Sets a u64 scalar slot.
    #[inline]
    pub fn u64(&mut self, slot: u16, v: u64) -> &mut Self {
        self.push(slot, v.to_le_bytes())
    }

    /// Sets an offset slot (blob / vector / subtable).
    #[inline]
    pub fn off(&mut self, slot: u16, off: u32) -> &mut Self {
        self.u32(slot, off)
    }

    /// Sets an offset slot if present.
    #[inline]
    pub fn opt_off(&mut self, slot: u16, off: Option<u32>) -> &mut Self {
        if let Some(o) = off {
            self.off(slot, o);
        }
        self
    }

    /// Writes the table into `b`, returning its message-relative offset.
    #[inline]
    pub fn end<B: ByteSink>(mut self, b: &mut FbBuilder<B>) -> u32 {
        self.vtable[..2].copy_from_slice(&(self.nslots as u16).to_le_bytes());
        b.end_table(&mut self.table[..self.size], &self.vtable[..2 + 2 * self.nslots])
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[inline]
fn read_u16(buf: &[u8], pos: usize) -> Result<u16> {
    let sl = buf.get(pos..pos + 2).ok_or(CodecError::Truncated { what: "fb u16" })?;
    Ok(u16::from_le_bytes([sl[0], sl[1]]))
}

#[inline]
fn read_u32(buf: &[u8], pos: usize) -> Result<u32> {
    let sl = buf.get(pos..pos + 4).ok_or(CodecError::Truncated { what: "fb u32" })?;
    Ok(u32::from_le_bytes([sl[0], sl[1], sl[2], sl[3]]))
}

#[inline]
fn read_u64(buf: &[u8], pos: usize) -> Result<u64> {
    let sl = buf.get(pos..pos + 8).ok_or(CodecError::Truncated { what: "fb u64" })?;
    let mut a = [0u8; 8];
    a.copy_from_slice(sl);
    Ok(u64::from_le_bytes(a))
}

/// A parsed (but not decoded!) FB message: a view over raw bytes.
#[derive(Debug, Clone, Copy)]
pub struct FbView<'a> {
    buf: &'a [u8],
}

impl<'a> FbView<'a> {
    /// Validates the header and wraps `buf`.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < FB_HEADER_LEN {
            return Err(CodecError::Truncated { what: "fb header" });
        }
        if read_u16(buf, 0)? != FB_MAGIC {
            return Err(CodecError::Malformed { what: "fb magic" });
        }
        if read_u16(buf, 2)? != FB_VERSION {
            return Err(CodecError::Malformed { what: "fb version" });
        }
        Ok(FbView { buf })
    }

    /// Returns the root table.
    pub fn root(&self) -> Result<FbTable<'a>> {
        let root = read_u32(self.buf, 4)? as usize;
        FbTable::at(self.buf, root)
    }
}

/// Zero-copy accessor for one table.
///
/// The scalar and table accessors are `#[inline]`: a derived decoder
/// (`schema`) makes one such call per field from another crate, and as
/// calls they cost a decoder of small tables half its time again.
#[derive(Debug, Clone, Copy)]
pub struct FbTable<'a> {
    buf: &'a [u8],
    pos: usize,
    vt_pos: usize,
    nslots: u16,
}

impl<'a> FbTable<'a> {
    #[inline]
    fn at(buf: &'a [u8], pos: usize) -> Result<Self> {
        let vt_pos = read_u32(buf, pos)? as usize;
        let nslots = read_u16(buf, vt_pos)?;
        Ok(FbTable { buf, pos, vt_pos, nslots })
    }

    /// Byte position of a slot's field data, or `None` if absent.
    #[inline]
    fn field_pos(&self, slot: u16) -> Result<Option<usize>> {
        if slot >= self.nslots {
            return Ok(None);
        }
        let rel = read_u16(self.buf, self.vt_pos + 2 + 2 * slot as usize)?;
        if rel == 0 {
            return Ok(None);
        }
        Ok(Some(self.pos + rel as usize))
    }

    /// The table's `size` bytes, if its vtable is `vtable` byte for byte and
    /// they are all in the message: then every slot `vtable` names is where
    /// it says, inside them, and reads as the slot accessors read it.
    /// `None` otherwise, and the slot accessors are the way to read it.
    ///
    /// `known` is the position of a vtable this found equal to `vtable`
    /// before, which it updates: the tables of a vector that share one
    /// vtable compare it once, and then cost one bounds check each.
    #[inline]
    pub fn fixed(&self, vtable: &[u8], size: usize, known: &mut Option<usize>) -> Option<&'a [u8]> {
        if *known != Some(self.vt_pos) {
            if !self.buf.get(self.vt_pos..)?.starts_with(vtable) {
                return None;
            }
            *known = Some(self.vt_pos);
        }
        self.buf.get(self.pos..self.pos.checked_add(size)?)
    }

    /// Reads an optional u8 slot.
    #[inline]
    pub fn u8(&self, slot: u16) -> Result<Option<u8>> {
        Ok(match self.field_pos(slot)? {
            None => None,
            Some(p) => Some(*self.buf.get(p).ok_or(CodecError::Truncated { what: "fb u8 field" })?),
        })
    }

    /// Reads an optional u16 slot.
    #[inline]
    pub fn u16(&self, slot: u16) -> Result<Option<u16>> {
        self.field_pos(slot)?.map(|p| read_u16(self.buf, p)).transpose()
    }

    /// Reads an optional u32 slot.
    #[inline]
    pub fn u32(&self, slot: u16) -> Result<Option<u32>> {
        self.field_pos(slot)?.map(|p| read_u32(self.buf, p)).transpose()
    }

    /// Reads an optional u64 slot.
    #[inline]
    pub fn u64(&self, slot: u16) -> Result<Option<u64>> {
        self.field_pos(slot)?.map(|p| read_u64(self.buf, p)).transpose()
    }

    /// Reads a required u8 slot.
    pub fn req_u8(&self, slot: u16, what: &'static str) -> Result<u8> {
        self.u8(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads a required u16 slot.
    pub fn req_u16(&self, slot: u16, what: &'static str) -> Result<u16> {
        self.u16(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads a required u32 slot.
    pub fn req_u32(&self, slot: u16, what: &'static str) -> Result<u32> {
        self.u32(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads a required u64 slot.
    pub fn req_u64(&self, slot: u16, what: &'static str) -> Result<u64> {
        self.u64(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads an optional blob slot without copying.
    pub fn bytes(&self, slot: u16) -> Result<Option<&'a [u8]>> {
        let Some(p) = self.field_pos(slot)? else { return Ok(None) };
        let off = read_u32(self.buf, p)? as usize;
        let len = read_u32(self.buf, off)? as usize;
        self.buf
            .get(off + 4..off + 4 + len)
            .map(Some)
            .ok_or(CodecError::Truncated { what: "fb blob" })
    }

    /// Reads a required blob slot.
    pub fn req_bytes(&self, slot: u16, what: &'static str) -> Result<&'a [u8]> {
        self.bytes(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads an optional UTF-8 string slot.
    pub fn string(&self, slot: u16) -> Result<Option<&'a str>> {
        match self.bytes(slot)? {
            None => Ok(None),
            Some(raw) => std::str::from_utf8(raw).map(Some).map_err(|_| CodecError::BadUtf8),
        }
    }

    /// Reads an optional subtable slot.
    #[inline]
    pub fn table(&self, slot: u16) -> Result<Option<FbTable<'a>>> {
        let Some(p) = self.field_pos(slot)? else { return Ok(None) };
        let off = read_u32(self.buf, p)? as usize;
        FbTable::at(self.buf, off).map(Some)
    }

    /// Reads a required subtable slot.
    pub fn req_table(&self, slot: u16, what: &'static str) -> Result<FbTable<'a>> {
        self.table(slot)?.ok_or(CodecError::Malformed { what })
    }

    /// Reads an optional vector slot.
    pub fn vector(&self, slot: u16) -> Result<Option<FbVector<'a>>> {
        let Some(p) = self.field_pos(slot)? else { return Ok(None) };
        let off = read_u32(self.buf, p)? as usize;
        let len = read_u32(self.buf, off)? as usize;
        // Callers size their output by `len` before they read an element:
        // refuse a count the bytes after it cannot hold (the narrowest
        // element is a u16).
        if len > (self.buf.len() - (off + 4)) / 2 {
            return Err(CodecError::Truncated { what: "fb vector" });
        }
        Ok(Some(FbVector { buf: self.buf, pos: off + 4, len }))
    }

    /// Reads a vector slot, treating absence as an empty vector.
    pub fn vector_or_empty(&self, slot: u16) -> Result<FbVector<'a>> {
        Ok(self.vector(slot)?.unwrap_or(FbVector { buf: self.buf, pos: 0, len: 0 }))
    }
}

/// Zero-copy accessor for a vector.
#[derive(Debug, Clone, Copy)]
pub struct FbVector<'a> {
    buf: &'a [u8],
    pos: usize,
    len: usize,
}

impl<'a> FbVector<'a> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: usize) -> Result<()> {
        if i >= self.len {
            Err(CodecError::Malformed { what: "fb vector index" })
        } else {
            Ok(())
        }
    }

    /// Element `i` of a u16 vector.
    #[inline]
    pub fn u16_at(&self, i: usize) -> Result<u16> {
        self.check(i)?;
        read_u16(self.buf, self.pos + 2 * i)
    }

    /// Element `i` of a u32 vector.
    #[inline]
    pub fn u32_at(&self, i: usize) -> Result<u32> {
        self.check(i)?;
        read_u32(self.buf, self.pos + 4 * i)
    }

    /// Element `i` of a u64 vector.
    #[inline]
    pub fn u64_at(&self, i: usize) -> Result<u64> {
        self.check(i)?;
        read_u64(self.buf, self.pos + 8 * i)
    }

    /// Element `i` of an offset vector, resolved as a table.
    #[inline]
    pub fn table_at(&self, i: usize) -> Result<FbTable<'a>> {
        self.check(i)?;
        let off = read_u32(self.buf, self.pos + 4 * i)? as usize;
        FbTable::at(self.buf, off)
    }

    /// Element `i` of an offset vector, resolved as a blob.
    pub fn bytes_at(&self, i: usize) -> Result<&'a [u8]> {
        self.check(i)?;
        let off = read_u32(self.buf, self.pos + 4 * i)? as usize;
        let len = read_u32(self.buf, off)? as usize;
        self.buf.get(off + 4..off + 4 + len).ok_or(CodecError::Truncated { what: "fb blob elem" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut b = FbBuilder::new();
        let mut t = TableBuilder::new();
        t.u8(0, 7).u16(1, 300).u32(2, 70_000).u64(3, u64::MAX - 1);
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let v = FbView::parse(&msg).unwrap();
        let root = v.root().unwrap();
        assert_eq!(root.u8(0).unwrap(), Some(7));
        assert_eq!(root.u16(1).unwrap(), Some(300));
        assert_eq!(root.u32(2).unwrap(), Some(70_000));
        assert_eq!(root.u64(3).unwrap(), Some(u64::MAX - 1));
        assert_eq!(root.u8(4).unwrap(), None); // beyond vtable
    }

    #[test]
    fn absent_slots_are_none() {
        let mut b = FbBuilder::new();
        let mut t = TableBuilder::new();
        t.u8(0, 1).u8(5, 2); // slots 1..=4 absent
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        assert_eq!(root.u8(0).unwrap(), Some(1));
        for s in 1..5 {
            assert_eq!(root.u8(s).unwrap(), None);
        }
        assert_eq!(root.u8(5).unwrap(), Some(2));
        assert!(root.req_u8(3, "missing").is_err());
    }

    #[test]
    fn wide_tables_read_back_at_every_width() {
        // A few slots, many, and every slot there is, with every third slot
        // absent: all read back from either sink, at the size the layout
        // promises (vtable pointer, fields, slot count, one offset per slot
        // up to the last one present).
        fn build<B: ByteSink>(mut b: FbBuilder<B>, n: usize) -> B {
            let mut t = TableBuilder::new();
            for slot in (0..n as u16).filter(|slot| slot % 3 != 1) {
                t.u32(slot, 1000 + slot as u32);
            }
            let root = t.end(&mut b);
            b.finish_buf(root)
        }
        for n in [3, 24, 25, MAX_SLOTS] {
            let msg = build(FbBuilder::new(), n);
            let present = (0..n).filter(|slot| slot % 3 != 1).count();
            let last = (0..n).rfind(|slot| slot % 3 != 1).unwrap();
            assert_eq!(msg.len(), FB_HEADER_LEN + 4 + 4 * present + 2 + 2 * (last + 1), "{n}");
            assert_eq!(build(FbBuilder::over(bytes::BytesMut::new()), n)[..], msg[..], "{n}");
            let root = FbView::parse(&msg).unwrap().root().unwrap();
            for slot in 0..n as u16 {
                let want = (slot % 3 != 1).then_some(1000 + slot as u32);
                assert_eq!(root.u32(slot).unwrap(), want, "{n} slots");
            }
            assert_eq!(root.u32(n as u16).unwrap(), None);
        }
        // The widest table there can be: every slot at eight bytes.
        let mut b = FbBuilder::new();
        let mut t = TableBuilder::new();
        for slot in 0..MAX_SLOTS as u16 {
            t.u64(slot, u64::MAX - slot as u64);
        }
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        for slot in 0..MAX_SLOTS as u16 {
            assert_eq!(root.u64(slot).unwrap(), Some(u64::MAX - slot as u64));
        }
    }

    /// The fields of a row of [`ROW`]'s layout.
    type RowVals = (u16, u8, u64, u32);
    const ROW: RowLayout<4, 10> = RowLayout::new([2, 1, 8, 4]);

    fn row(i: u64) -> RowVals {
        let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (v as u16, (v >> 16) as u8, v.rotate_left(24), (v >> 32) as u32)
    }

    fn fill_row((a, b, c, d): RowVals, table: &mut [u8]) {
        table[ROW.offsets[0]..][..2].copy_from_slice(&a.to_le_bytes());
        table[ROW.offsets[1]] = b;
        table[ROW.offsets[2]..][..8].copy_from_slice(&c.to_le_bytes());
        table[ROW.offsets[3]..][..4].copy_from_slice(&d.to_le_bytes());
    }

    fn table_of_row<B: ByteSink>(b: &mut FbBuilder<B>, (r0, r1, r2, r3): RowVals) -> u32 {
        let mut t = TableBuilder::new();
        t.u16(0, r0).u8(1, r1).u64(2, r2).u32(3, r3);
        t.end(b)
    }

    /// What [`FbBuilder::vec_of_tables`] replaced, kept as its reference:
    /// an offset vector ahead of one [`TableBuilder`] per row.
    fn vec_of_tables_reference<B: ByteSink>(b: &mut FbBuilder<B>, rows: &[RowVals]) -> u32 {
        b.vec_off_with(rows, |b, row| table_of_row(b, *row))
    }

    /// What a message holds before its rows.
    #[derive(Debug, Clone, Copy)]
    enum Before {
        Nothing,
        /// A table of the rows' layout: its vtable is the one to share.
        OneOfTheirs,
        /// The same, then tables of nine other layouts: the memo has
        /// forgotten the first.
        OneOfTheirsForgotten,
    }

    /// `before`, then `n` rows under a root; the rows by
    /// [`FbBuilder::vec_of_tables`] or by its reference.
    fn rows_message<B: ByteSink>(sink: B, before: Before, n: u64, reference: bool) -> B {
        let mut b = FbBuilder::over(sink);
        if !matches!(before, Before::Nothing) {
            table_of_row(&mut b, row(u64::MAX));
        }
        if matches!(before, Before::OneOfTheirsForgotten) {
            for other in 0..=VTABLE_MEMO as u16 {
                let mut t = TableBuilder::new();
                t.u8(0, 1).u16(10 + other, other);
                t.end(&mut b);
            }
        }
        let rows: Vec<RowVals> = (0..n).map(row).collect();
        let v = if reference {
            vec_of_tables_reference(&mut b, &rows)
        } else {
            b.vec_of_tables(ROW.size, &ROW.vtable, rows.iter().copied(), fill_row)
        };
        let mut t = TableBuilder::new();
        t.u64(0, n).off(1, v);
        let root = t.end(&mut b);
        b.finish_buf(root)
    }

    /// The message both writers make of `n` rows after `before`, in an
    /// empty `Vec` and after earlier content in a `BytesMut`.
    fn rows_either_way(before: Before, n: u64) -> Vec<u8> {
        let want = rows_message(Vec::new(), before, n, true);
        assert_eq!(rows_message(Vec::new(), before, n, false), want, "{before:?}, {n} rows");
        for reference in [true, false] {
            let scratch =
                rows_message(bytes::BytesMut::from(&b"earlier"[..]), before, n, reference);
            assert_eq!(&scratch[..7], b"earlier");
            assert_eq!(&scratch[7..], &want[..], "{before:?}, {n} rows, appended");
        }
        let rows = FbView::parse(&want).unwrap().root().unwrap().vector_or_empty(1).unwrap();
        assert_eq!(rows.len() as u64, n);
        for i in 0..n {
            let (t, want) = (rows.table_at(i as usize).unwrap(), row(i));
            let got = (t.u16(0).unwrap(), t.u8(1).unwrap(), t.u64(2).unwrap(), t.u32(3).unwrap());
            assert_eq!(got, (Some(want.0), Some(want.1), Some(want.2), Some(want.3)), "row {i}");
        }
        want
    }

    #[test]
    fn vector_of_same_layout_tables_matches_a_table_builder_per_row() {
        let overhead = rows_either_way(Before::Nothing, 0).len();
        for n in [1, 2, 33, 1_000] {
            let msg = rows_either_way(Before::Nothing, n);
            let rows = n as usize * (4 + ROW.size);
            assert_eq!(msg.len(), overhead + rows + ROW.vtable.len(), "one vtable for {n} rows");
        }
    }

    #[test]
    fn vector_of_tables_shares_an_equal_vtable_the_message_holds() {
        let overhead = rows_either_way(Before::OneOfTheirs, 0).len();
        for n in [1, 2, 33] {
            let msg = rows_either_way(Before::OneOfTheirs, n);
            assert_eq!(msg.len(), overhead + n as usize * (4 + ROW.size), "no vtable of its own");
        }
    }

    #[test]
    fn vector_of_tables_writes_a_vtable_the_memo_has_forgotten_again() {
        let overhead = rows_either_way(Before::OneOfTheirsForgotten, 0).len();
        for n in [1, 2, 33] {
            let msg = rows_either_way(Before::OneOfTheirsForgotten, n);
            let rows = n as usize * (4 + ROW.size);
            assert_eq!(msg.len(), overhead + rows + ROW.vtable.len(), "written once more");
        }
        // And a later table of the layout shares the vector's copy.
        let mut b = FbBuilder::new();
        let v = b.vec_of_tables(ROW.size, &ROW.vtable, [row(1), row(2)], fill_row);
        let before = b.pos();
        table_of_row(&mut b, row(3));
        assert_eq!((b.pos() - before) as usize, ROW.size);
        assert_eq!(v, FB_HEADER_LEN as u32);
    }

    #[test]
    fn vector_of_tables_trusts_the_announced_length_not_the_iterator() {
        /// Announces `len` items and yields `yields`.
        struct Lying(std::ops::Range<u64>, usize);
        impl Iterator for Lying {
            type Item = RowVals;
            fn next(&mut self) -> Option<RowVals> {
                self.0.next().map(row)
            }
        }
        impl ExactSizeIterator for Lying {
            fn len(&self) -> usize {
                self.1
            }
        }
        for yields in [1, 5] {
            let mut b = FbBuilder::new();
            let v = b.vec_of_tables(ROW.size, &ROW.vtable, Lying(0..yields, 3), fill_row);
            let mut t = TableBuilder::new();
            t.off(0, v);
            let root = t.end(&mut b);
            let msg = b.finish(root);
            let rows = FbView::parse(&msg).unwrap().root().unwrap().vector(0).unwrap().unwrap();
            assert_eq!(rows.len(), 3);
            assert_eq!(rows.table_at(0).unwrap().u64(2).unwrap(), Some(row(0).2));
        }
    }

    #[test]
    fn row_layout_is_what_a_table_builder_lays_out() {
        assert_eq!(ROW.offsets, [4, 6, 7, 15]);
        assert_eq!(ROW.size, 19);
        let mut b = FbBuilder::new();
        let at = table_of_row(&mut b, row(1)) as usize;
        let msg = b.finish(at as u32);
        assert_eq!(msg[at + ROW.size..], ROW.vtable, "the vtable follows the table");
    }

    /// Rows of `layouts` distinct layouts, dealt round-robin, under a root
    /// that lists them.
    fn interleaved(rows: usize, layouts: usize) -> Vec<u8> {
        let mut b = FbBuilder::new();
        let v = b.vec_off_with(0..rows, |b, i| {
            // Layout `k` has slot 0 and slot `k + 1`.
            let mut t = TableBuilder::new();
            t.u32(0, i as u32).u16(1 + (i % layouts) as u16, 7);
            t.end(b)
        });
        let mut t = TableBuilder::new();
        t.off(0, v);
        let root = t.end(&mut b);
        b.finish(root)
    }

    #[test]
    fn tables_of_one_layout_share_its_vtable_even_when_interleaved() {
        let msg = interleaved(32, 2);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        let rows = root.vector(0).unwrap().unwrap();
        let mut vtables = std::collections::BTreeSet::from([root.vt_pos]);
        for i in 0..rows.len() {
            let row = rows.table_at(i).unwrap();
            assert_eq!(row.u32(0).unwrap(), Some(i as u32));
            assert_eq!(row.u16(1 + (i % 2) as u16).unwrap(), Some(7));
            assert_eq!(row.u16(2 - (i % 2) as u16).unwrap(), None, "the other layout's slot");
            // The first row of each layout is followed by its vtable, every
            // later one points back at that.
            assert_eq!(row.vt_pos, rows.table_at(i % 2).unwrap().vt_pos);
            vtables.insert(row.vt_pos);
        }
        assert_eq!(vtables.len(), 3, "one per row layout and the root's");
        assert!(msg.len() < interleaved(32, 32).len());
    }

    #[test]
    fn more_layouts_than_the_memo_holds_still_read_back() {
        // The ninth layout pushes the first out of the memo, whose next row
        // writes its vtable again: more bytes, same values.
        let layouts = VTABLE_MEMO + 2;
        let msg = interleaved(3 * layouts, layouts);
        let rows = FbView::parse(&msg).unwrap().root().unwrap().vector(0).unwrap().unwrap();
        assert_eq!(rows.len(), 3 * layouts);
        for i in 0..rows.len() {
            let row = rows.table_at(i).unwrap();
            assert_eq!(row.u32(0).unwrap(), Some(i as u32));
            assert_eq!(row.u16(1 + (i % layouts) as u16).unwrap(), Some(7));
        }
    }

    #[test]
    fn vector_written_ahead_of_its_children() {
        let mut b = FbBuilder::new();
        let names = ["a", "", "ccc"];
        let v = b.vec_off_with(names, |b, s| b.string(s));
        assert_eq!(v, FB_HEADER_LEN as u32, "the vector leads");
        let none = b.vec_off_with(std::iter::empty::<&str>(), |b, s| b.string(s));
        let mut t = TableBuilder::new();
        t.off(0, v).off(1, none);
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        let v = root.vector(0).unwrap().unwrap();
        assert_eq!(v.len(), 3);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(v.bytes_at(i).unwrap(), name.as_bytes());
        }
        assert!(root.vector(1).unwrap().unwrap().is_empty());
    }

    #[test]
    fn blob_and_string_roundtrip() {
        let mut b = FbBuilder::new();
        let blob = b.blob(b"\x00\x01\x02payload");
        let s = b.string("h\u{e9}llo");
        let mut t = TableBuilder::new();
        t.off(0, blob).off(1, s);
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        assert_eq!(root.bytes(0).unwrap(), Some(&b"\x00\x01\x02payload"[..]));
        assert_eq!(root.string(1).unwrap(), Some("h\u{e9}llo"));
        assert_eq!(root.bytes(2).unwrap(), None);
    }

    #[test]
    fn nested_tables_and_vectors() {
        let mut b = FbBuilder::new();
        let mut children = Vec::new();
        for i in 0..5u16 {
            let mut t = TableBuilder::new();
            t.u16(0, i * 10);
            children.push(t.end(&mut b));
        }
        let vec_off = b.vec_off(&children);
        let nums = b.vec_u64(&[1, 2, 3]);
        let mut root_t = TableBuilder::new();
        root_t.off(0, vec_off).off(1, nums);
        let root = root_t.end(&mut b);
        let msg = b.finish(root);

        let root = FbView::parse(&msg).unwrap().root().unwrap();
        let v = root.vector(0).unwrap().unwrap();
        assert_eq!(v.len(), 5);
        for i in 0..5 {
            assert_eq!(v.table_at(i).unwrap().u16(0).unwrap(), Some(i as u16 * 10));
        }
        let nums = root.vector(1).unwrap().unwrap();
        assert_eq!(nums.len(), 3);
        assert_eq!(nums.u64_at(2).unwrap(), 3);
        assert!(nums.u64_at(3).is_err());
    }

    #[test]
    fn vector_or_empty_on_absent() {
        let mut b = FbBuilder::new();
        let root = TableBuilder::new().end(&mut b);
        let msg = b.finish(root);
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        let v = root.vector_or_empty(0).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn vector_longer_than_the_message_rejected() {
        let mut b = FbBuilder::new();
        let v = b.vec_u16(&[1, 2, 3]);
        let mut t = TableBuilder::new();
        t.off(0, v);
        let root = t.end(&mut b);
        let mut msg = b.finish(root);
        let at = FB_HEADER_LEN; // the vector is the first thing written
        assert_eq!(msg[at..at + 4], 3u32.to_le_bytes());
        msg[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let root = FbView::parse(&msg).unwrap().root().unwrap();
        assert!(matches!(root.vector(0), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = FbBuilder::new();
        let root = TableBuilder::new().end(&mut b);
        let mut msg = b.finish(root);
        msg[0] = 0xAA;
        assert!(matches!(FbView::parse(&msg), Err(CodecError::Malformed { .. })));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(FbView::parse(&[0x46]), Err(CodecError::Truncated { .. })));
        let mut b = FbBuilder::new();
        let root = TableBuilder::new().end(&mut b);
        let msg = b.finish(root);
        // Chop the vtable off.
        let v = FbView::parse(&msg[..FB_HEADER_LEN + 2]);
        // Parsing the header may succeed, but resolving the root must fail.
        if let Ok(v) = v {
            assert!(v.root().is_err());
        }
    }

    #[test]
    fn corrupted_offset_rejected_not_panicking() {
        let mut b = FbBuilder::new();
        let blob = b.blob(b"x");
        let mut t = TableBuilder::new();
        t.off(0, blob);
        let root = t.end(&mut b);
        let mut msg = b.finish(root);
        // Scribble over everything after the header with 0xFF.
        let n = msg.len();
        for byte in &mut msg[FB_HEADER_LEN..n] {
            *byte = 0xFF;
        }
        let view = FbView::parse(&msg);
        if let Ok(view) = view {
            if let Ok(root) = view.root() {
                let _ = root.bytes(0); // must not panic
            }
        }
    }

    #[test]
    fn builder_over_bytesmut_appends_self_contained_message() {
        // Build the same message owned and appended after existing bytes;
        // the appended region must be byte-identical and parse standalone.
        fn build<B: ByteSink>(mut b: FbBuilder<B>) -> B {
            let blob = b.blob(b"payload");
            let mut t = TableBuilder::new();
            t.u8(0, 7).u16(1, 300).off(2, blob);
            let root = t.end(&mut b);
            b.finish_buf(root)
        }
        let owned: Vec<u8> = build(FbBuilder::new());

        let mut scratch = bytes::BytesMut::new();
        scratch.extend_from_slice(b"prefix");
        let scratch = build(FbBuilder::over(scratch));
        assert_eq!(&scratch[..6], b"prefix");
        assert_eq!(&scratch[6..], &owned[..]);

        let root = FbView::parse(&scratch[6..]).unwrap().root().unwrap();
        assert_eq!(root.u16(1).unwrap(), Some(300));
        assert_eq!(root.bytes(2).unwrap(), Some(&b"payload"[..]));
    }

    #[test]
    fn second_message_in_a_scratch_shares_nothing_with_the_first() {
        // The first message's vtables sit before the second's base and
        // equal the second's byte for byte: the second must write its own.
        fn build<B: ByteSink>(mut b: FbBuilder<B>) -> B {
            let v = b.vec_off_with(0..4u16, |b, i| {
                let mut t = TableBuilder::new();
                t.u16(0, i).u64(1, 99);
                t.end(b)
            });
            let mut t = TableBuilder::new();
            t.off(0, v);
            let root = t.end(&mut b);
            b.finish_buf(root)
        }
        let alone = build(FbBuilder::new());
        let mut scratch = Vec::new();
        build(FbBuilder::over(&mut scratch));
        build(FbBuilder::over(&mut scratch));
        assert_eq!(scratch, [&alone[..], &alone[..]].concat());
    }

    #[test]
    fn per_message_overhead_is_tens_of_bytes() {
        // The paper observes 30-40 B FB overhead per message; our header +
        // vtable + offsets land in the same band for a small table.
        let mut b = FbBuilder::new();
        let payload = b.blob(&[0u8; 100]);
        let mut t = TableBuilder::new();
        t.u8(0, 1).u16(1, 2).u16(2, 3).u16(3, 4).off(4, payload);
        let root = t.end(&mut b);
        let msg = b.finish(root);
        let overhead = msg.len() - 100;
        assert!((20..=60).contains(&overhead), "overhead {overhead} outside expected FB band");
    }
}
