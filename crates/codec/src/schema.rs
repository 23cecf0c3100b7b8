//! One declaration per message, both codecs from it.
//!
//! [`wire_table!`](crate::wire_table) lists a struct's fields once, in the
//! order the struct has them — `name: type [= kind] => slot` — and derives
//! its [`Table`] impl: PER encode and decode, FB encode and decode, each
//! straight-line code over the fields.  [`wire_choice!`](crate::wire_choice)
//! does the same for an enum whose variants hold fields, a CHOICE: PER its
//! index and the variant's fields, FB a `u8` discriminant and the fields in
//! slots of the *same* table, counted from the discriminant's — the root of
//! a message, or some slots of the table that holds the choice.
//!
//! What a field's type does in either encoding is its [`Wire`] impl:
//! integers (constrained by the [`Kind`] after the `=`, `uint` without one;
//! an `i32` as its bit pattern), `Bytes`, `String`, `Option` of any of them,
//! `Vec` of any [`Table`], of `u32`, of `String` and of `(u16, u32)` pairs,
//! a table as a sub-table, a choice inline, an enum through
//! [`wire_enum!`](crate::wire_enum); a type whose two encodings share no
//! shape implements the four operations by hand (`e2ap` has those of E2AP).
//! The type a declaration gives a field is the type it travels *as*
//! ([`WireAs`]): its own, or an adapter over it — [`Ahead`] for a list of
//! tables whose vector is written ahead of them, [`U16In32`] for a `u16` in
//! a `u32` slot.  `tests/declared_pdu.rs` and `crates/sm/tests/schema.rs`
//! declare messages of their own this way.
//!
//! **Two orders.**  PER is the fields in the order declared.  An FB table
//! is laid out by [`TableBuilder`] in the order of the *calls*, and the
//! bytes every golden file pins have fields, and the blobs, vectors and
//! sub-tables they point at, in **slot** order: so the FB encoder walks the
//! slots, not the declaration.  Where the pinned bytes have a third order,
//! the declaration states it once, `[slot slot …]` after the name.
//!
//! **One constraint set.**  A [`Field`] has one maximum; PER cannot write a
//! larger value and every FB read goes through [`Field::check`], so what one
//! decoder accepts every encoder can write again.  A list has one maximum
//! length in both.

use std::marker::PhantomData;

use bytes::Bytes;

use crate::error::{CodecError, Result};
use crate::fb::{FbBuilder, FbTable, FbVector, TableBuilder};
use crate::per::{uint_octets, BitReader, BitWriter, Cursor};
use crate::sink::ByteSink;

/// How an integer field travels in PER, and with its type what it may hold.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bit field of this width.
    bits(u32),
    /// A constrained whole number `lo..=hi`; `lo` must be 0.
    range(u64, u64),
    /// An unconstrained whole number, up to the field's type.
    uint,
}

/// One line of a field table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The field's name, for errors.
    pub name: &'static str,
    /// Its PER form, if it is an integer.
    pub kind: Kind,
    /// The largest value it may hold.
    pub max: u64,
}

impl Field {
    /// A field of `kind` in a type that holds up to `type_max`; tables are
    /// constants, so a kind wider than its type does not compile.
    pub const fn new(name: &'static str, kind: Kind, type_max: u64) -> Field {
        let max = match kind {
            Kind::bits(n) => u64::MAX >> (64 - n),
            Kind::range(lo, hi) => {
                assert!(lo == 0, "ranges start at 0: the all-zero row must be legal");
                hi
            }
            Kind::uint => type_max,
        };
        assert!(max <= type_max, "the field's kind is wider than its type");
        Field { name, kind, max }
    }

    /// `v`, if the field may hold it.
    #[inline(always)]
    pub fn check(&self, v: u64) -> Result<u64> {
        if v <= self.max {
            Ok(v)
        } else {
            Err(CodecError::OutOfRange { what: self.name, value: v })
        }
    }

    /// Width of the field's PER bit field; `None` if it travels aligned, as
    /// a length and that many octets.
    pub const fn per_width(&self) -> Option<u32> {
        match self.kind {
            Kind::bits(n) => Some(n),
            Kind::range(_, hi) if hi < 65536 => Some(64 - hi.leading_zeros()),
            Kind::range(..) | Kind::uint => None,
        }
    }

    /// Writes `v` in the field's PER form.
    #[inline(always)]
    pub fn put_per(&self, c: &mut Cursor<'_>, v: u64) {
        debug_assert!(v <= self.max, "{} = {v} above {}", self.name, self.max);
        match self.per_width() {
            Some(n) => c.put_bits(v, n),
            None => c.put_uint(v),
        }
    }

    /// [`Field::put_per`] through a window of its own, for a field that is
    /// not one of a row.
    #[inline]
    pub fn put<B: ByteSink>(&self, w: &mut BitWriter<B>, v: u64) {
        w.window(1 + 9, |c| self.put_per(c, v));
    }

    /// Reads what [`Field::put_per`] wrote; the two constrained forms
    /// cannot yield more than the field may hold.
    #[inline(always)]
    pub fn get_per(&self, r: &mut BitReader) -> Result<u64> {
        match self.kind {
            Kind::bits(n) => r.get_bits(n),
            Kind::range(lo, hi) => r.get_constrained(lo, hi),
            Kind::uint => self.check(r.get_uint()?),
        }
    }
}

/// The most bytes a row of `fields` takes in PER, counted from the byte it
/// starts in: a bit field its width, an octet field its length byte, the
/// octets of its maximum and the padding before them.
pub const fn per_max(fields: &[Field]) -> usize {
    // Seven bits of the first byte taken: no start makes a row longer.
    let (mut bits, mut i) = (7, 0);
    while i < fields.len() {
        bits = match fields[i].per_width() {
            Some(n) => bits + n as usize,
            None => bits.div_ceil(8) * 8 + 8 * (1 + uint_octets(fields[i].max)),
        };
        i += 1;
    }
    bits.div_ceil(8)
}

/// What a field's type does in either encoding.  `f` names the field in
/// errors and constrains it if it is an integer; `slot` is where the field
/// sits in its FB table (the first slot, for a type that takes several).
pub trait Wire: Sized {
    /// The most an integer of this type holds.
    const MAX: u64 = u64::MAX;
    /// Writes the field in PER.
    fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>);
    /// Reads what [`Wire::put_per`] wrote.
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self>;
    /// Writes into `b` what the field keeps out of line, if anything, and
    /// stages the field in its table.
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16);
    /// Reads the field from its table; `None` if the slot is absent.
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>>;
}

/// What a field travels as: the type its declaration names.  Every [`Wire`]
/// type travels as itself; an adapter ([`Ahead`], [`U16In32`]) gives a field
/// of type [`WireAs::Value`] a form that is not its type's own.  The four
/// operations are [`Wire`]'s.
pub trait WireAs {
    /// The field's type.
    type Value;
    /// The most an integer field holds.
    const MAX: u64 = u64::MAX;
    /// [`Wire::put_per`] of `v`.
    fn put_per<B: ByteSink>(v: &Self::Value, f: &Field, w: &mut BitWriter<B>);
    /// [`Wire::get_per`].
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self::Value>;
    /// [`Wire::put_fb`] of `v`.
    fn put_fb<B: ByteSink>(v: &Self::Value, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16);
    /// [`Wire::get_fb`].
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self::Value>>;
}

impl<T: Wire> WireAs for T {
    type Value = T;
    const MAX: u64 = T::MAX;
    #[inline]
    fn put_per<B: ByteSink>(v: &T, f: &Field, w: &mut BitWriter<B>) {
        v.put_per(f, w);
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<T> {
        <T as Wire>::get_per(f, r)
    }
    #[inline]
    fn put_fb<B: ByteSink>(v: &T, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        v.put_fb(b, t, slot);
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<T>> {
        <T as Wire>::get_fb(f, t, slot, src)
    }
}

/// The frame an FB decoder reads, if byte strings are to be refcounted
/// views of it and not copies.  PER carries it in its reader
/// ([`BitReader::borrowing`]); an `FbTable` is built per table and copied
/// about, and a field more in it is paid on every `peek`, so FB hands it
/// along beside the table.
pub type Src<'a> = Option<&'a Bytes>;

/// The value of a field that must be there.
#[inline]
pub fn required<T>(f: &Field, v: Option<T>) -> Result<T> {
    v.ok_or(CodecError::Malformed { what: f.name })
}

macro_rules! wire_uint {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            const MAX: u64 = $ty::MAX as u64;
            #[inline]
            fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>) {
                f.put(w, *self as u64);
            }
            #[inline]
            fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                Ok(f.get_per(r)? as $ty)
            }
            #[inline]
            fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
                t.$ty(slot, *self);
            }
            #[inline]
            fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
                t.$ty(slot)?.map(|v| Ok(f.check(v as u64)? as $ty)).transpose()
            }
        }
    )+};
}
wire_uint!(u8, u16, u32, u64);

/// A signed number travels as the `u32` of its bit pattern.
impl Wire for i32 {
    const MAX: u64 = u32::MAX as u64;
    #[inline]
    fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>) {
        (*self as u32).put_per(f, w);
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        Ok(<u32 as Wire>::get_per(f, r)? as i32)
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        (*self as u32).put_fb(b, t, slot);
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
        Ok(<u32 as Wire>::get_fb(f, t, slot, src)?.map(|v| v as i32))
    }
}

/// A `u16` that FB keeps in a `u32` slot; in PER it is what its kind says.
#[derive(Debug)]
pub struct U16In32;

impl WireAs for U16In32 {
    type Value = u16;
    const MAX: u64 = u16::MAX as u64;
    #[inline]
    fn put_per<B: ByteSink>(v: &u16, f: &Field, w: &mut BitWriter<B>) {
        v.put_per(f, w);
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<u16> {
        <u16 as Wire>::get_per(f, r)
    }
    #[inline]
    fn put_fb<B: ByteSink>(v: &u16, _: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        t.u32(slot, u32::from(*v));
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<u16>> {
        t.u32(slot)?.map(|v| Ok(f.check(v as u64)? as u16)).transpose()
    }
}

/// PER a presence bit and the value, FB an absent slot.
impl<T: Wire> Wire for Option<T> {
    const MAX: u64 = T::MAX;
    #[inline]
    fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>) {
        w.put_bit(self.is_some());
        if let Some(v) = self {
            v.put_per(f, w);
        }
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        r.get_bit()?.then(|| T::get_per(f, r)).transpose()
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        if let Some(v) = self {
            v.put_fb(b, t, slot);
        }
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
        T::get_fb(f, t, slot, src).map(Some)
    }
}

/// An octet string; decoded from a borrowing reader, a view of the frame.
impl Wire for Bytes {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_octets(self);
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        r.get_bytes()
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let blob = b.blob(self);
        t.off(slot, blob);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
        Ok(t.bytes(slot)?.map(|blob| crate::borrow::mk_bytes(src, blob)))
    }
}

impl Wire for String {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_utf8(self);
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        r.get_utf8()
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let blob = b.string(self);
        t.off(slot, blob);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        Ok(t.string(slot)?.map(str::to_owned))
    }
}

/// A sequence of fields: in PER one after the other, in FB a table.
/// [`wire_table!`](crate::wire_table) derives it, and with it the table's
/// [`Wire`] as a field of another (PER inline, FB a sub-table).
pub trait Table: Sized {
    /// One more than the table's last slot: where a list that gives each
    /// element one more field puts it.  A field that takes several slots
    /// counts as its first.
    const SLOTS: u16;
    /// Writes the fields in PER, in the order declared.
    fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>);
    /// Reads what [`Table::put_fields`] wrote.
    fn get_fields(r: &mut BitReader<'_>) -> Result<Self>;
    /// Stages the fields in `t`, in slot order, and writes into `b` what
    /// they keep out of line.
    fn fill<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder);
    /// Reads the table [`Table::fill`] staged.
    fn from_table(t: &FbTable<'_>, src: Src<'_>) -> Result<Self>;

    /// Writes the table and returns its offset.  Not `#[inline]`: a table
    /// staged inside the loop of a list costs the list a fifth more.
    fn to_table<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let mut t = TableBuilder::new();
        self.fill(b, &mut t);
        t.end(b)
    }
    /// Writes a list of these: the tables, *then* the vector of their
    /// offsets — not the vector-ahead `vec_off_with` of the SM payloads.
    fn to_vector<B: ByteSink>(items: &[Self], b: &mut FbBuilder<B>) -> u32 {
        let tables: Vec<u32> = items.iter().map(|item| item.to_table(b)).collect();
        b.vec_off(&tables)
    }
    /// Reads the list [`Table::to_vector`] wrote.
    fn from_vector(v: &FbVector<'_>, src: Src<'_>) -> Result<Vec<Self>> {
        let mut out = Vec::with_capacity(v.len());
        for i in 0..v.len() {
            out.push(Self::from_table(&v.table_at(i)?, src)?);
        }
        Ok(out)
    }
}

/// Most elements a list may hold, in either encoding: no message is anywhere
/// near, and a corrupted length must not size an allocation.
const MAX_LIST: usize = 1 << 20;

/// `n`, if a list may be that long.
fn list_len(n: usize) -> Result<usize> {
    if n > MAX_LIST {
        return Err(CodecError::Malformed { what: "sequence too long" });
    }
    Ok(n)
}

/// PER: a length and the elements.
#[inline]
fn put_list<T, B: ByteSink>(
    items: &[T],
    w: &mut BitWriter<B>,
    mut put: impl FnMut(&T, &mut BitWriter<B>),
) {
    w.put_length(items.len());
    for item in items {
        put(item, w);
    }
}

/// Reads what [`put_list`] wrote.
#[inline]
fn get_list<T>(
    r: &mut BitReader<'_>,
    mut get: impl FnMut(&mut BitReader<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = list_len(r.get_length()?)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

/// FB: the elements of the vector in `slot`, an absent one empty.
#[inline]
fn get_vector<T>(
    t: &FbTable<'_>,
    slot: u16,
    mut get: impl FnMut(&FbVector<'_>, usize) -> Result<T>,
) -> Result<Option<Vec<T>>> {
    let Some(v) = t.vector(slot)? else { return Ok(Some(Vec::new())) };
    let mut out = Vec::with_capacity(list_len(v.len())?);
    for i in 0..v.len() {
        out.push(get(&v, i)?);
    }
    Ok(Some(out))
}

/// PER a length and the elements; FB a vector, an absent one empty.
impl<T: Table> Wire for Vec<T> {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        put_list(self, w, T::put_fields);
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        get_list(r, T::get_fields)
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = T::to_vector(self, b);
        t.off(slot, vector);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
        let Some(v) = t.vector(slot)? else { return Ok(Some(Vec::new())) };
        list_len(v.len())?;
        T::from_vector(&v, src).map(Some)
    }
}

/// A list of tables with the vector *ahead* of them — one slot an element,
/// reserved, then each table — where `Vec<T>` by itself writes the tables and
/// then the vector.
#[derive(Debug)]
pub struct Ahead<T>(PhantomData<T>);

impl<T: Table> WireAs for Ahead<T> {
    type Value = Vec<T>;
    #[inline]
    fn put_per<B: ByteSink>(v: &Vec<T>, f: &Field, w: &mut BitWriter<B>) {
        v.put_per(f, w);
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Vec<T>> {
        <Vec<T> as Wire>::get_per(f, r)
    }
    #[inline]
    fn put_fb<B: ByteSink>(v: &Vec<T>, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = b.vec_off_with(v, |b, item| item.to_table(b));
        t.off(slot, vector);
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Vec<T>>> {
        <Vec<T> as Wire>::get_fb(f, t, slot, src)
    }
}

/// A list of whole numbers, each what the field's kind says; FB a vector of
/// scalars.
impl Wire for Vec<u32> {
    const MAX: u64 = u32::MAX as u64;
    #[inline]
    fn put_per<B: ByteSink>(&self, f: &Field, w: &mut BitWriter<B>) {
        put_list(self, w, |v, w| v.put_per(f, w));
    }
    #[inline]
    fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        get_list(r, |r| <u32 as Wire>::get_per(f, r))
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = b.vec_u32(self);
        t.off(slot, vector);
    }
    #[inline]
    fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        get_vector(t, slot, |v, i| Ok(f.check(v.u32_at(i)? as u64)? as u32))
    }
}

/// A list of strings; FB a vector, ahead of them, of their offsets.
impl Wire for Vec<String> {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        put_list(self, w, |s, w| w.put_utf8(s));
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        get_list(r, |r| r.get_utf8())
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = b.vec_off_with(self, |b, s| b.string(s));
        t.off(slot, vector);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        get_vector(t, slot, |v, i| {
            std::str::from_utf8(v.bytes_at(i)?).map(str::to_owned).map_err(|_| CodecError::BadUtf8)
        })
    }
}

const FIRST: Field = Field::new("pair.0", Kind::bits(16), u16::MAX as u64);
const SECOND: Field = Field::new("pair.1", Kind::uint, u32::MAX as u64);

/// A list of pairs: PER sixteen bits and a whole number each; FB one `u64`
/// each, `first << 32 | second`, stored as the list is walked.
impl Wire for Vec<(u16, u32)> {
    #[inline]
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        put_list(self, w, |(first, second), w| {
            first.put_per(&FIRST, w);
            second.put_per(&SECOND, w);
        });
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        get_list(r, |r| Ok((Wire::get_per(&FIRST, r)?, Wire::get_per(&SECOND, r)?)))
    }
    #[inline]
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let packed = self.iter().map(|&(first, second)| u64::from(first) << 32 | u64::from(second));
        let vector = b.vec_u64_of(packed);
        t.off(slot, vector);
    }
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        get_vector(t, slot, |v, i| {
            let packed = v.u64_at(i)?;
            // The second is the low half, whatever it holds.
            Ok((FIRST.check(packed >> 32)? as u16, packed as u32))
        })
    }
}

/// [`Table::SLOTS`] of a table that pushes its fields, in `slots`, in
/// `order` — every slot the encoder walks if `order` is empty.  A field the
/// order leaves out would never be written: that does not compile.
pub const fn slots(order: &[u16], slots: &[u16]) -> u16 {
    let (mut n, mut i) = (0, 0);
    while i < slots.len() {
        let mut walked = order.is_empty() && slots[i] < 8;
        let mut k = 0;
        while k < order.len() {
            walked |= order[k] == slots[i];
            k += 1;
        }
        assert!(walked, "the encoder walks slots 0..8, or the order the declaration states");
        if slots[i] >= n {
            n = slots[i] + 1;
        }
        i += 1;
    }
    n
}

/// The index of a choice's last alternative; they count up from 0.
pub const fn last_index(indices: &[u64]) -> u64 {
    let mut i = 0;
    while i < indices.len() {
        assert!(indices[i] == i as u64, "a choice's alternatives are numbered 0, 1, 2, …");
        i += 1;
    }
    indices.len() as u64 - 1
}

/// The line of a field that is not an integer, or of a choice at the root
/// of a message: its name.
pub const fn named(name: &'static str) -> Field {
    Field::new(name, Kind::uint, u64::MAX)
}

/// The enum `v` is the discriminant of, by its `from_u8`.
#[inline]
pub fn discriminant<T>(f: &Field, v: u64, from_u8: impl Fn(u8) -> Option<T>) -> Result<T> {
    let known = u8::try_from(v).ok().and_then(from_u8);
    known.ok_or(CodecError::BadDiscriminant { what: f.name, value: v })
}

/// What the macros' expansions name, so that a crate using them needs no
/// imports of its own.
#[doc(hidden)]
pub mod rt {
    pub use super::{
        discriminant, last_index, named, required, slots, Field, Src, Table, Wire, WireAs,
    };
    pub use crate::error::{CodecError, Result};
    pub use crate::fb::{FbBuilder, FbTable, TableBuilder};
    pub use crate::per::{BitReader, BitWriter};
    pub use crate::sink::ByteSink;
}

/// Derives [`Wire`] for fieldless enums with discriminants `0..=max` and a
/// `from_u8`: PER the constrained number, FB a `u8`.
#[macro_export]
macro_rules! wire_enum {
    ($($E:ty = $max:literal),+ $(,)?) => {$(
        const _: () = {
            use $crate::schema::rt::*;

            impl Wire for $E {
                #[inline]
                fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
                    w.put_constrained(*self as u64, 0, $max);
                }
                #[inline]
                fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                    discriminant(f, r.get_constrained(0, $max)?, <$E>::from_u8)
                }
                #[inline]
                fn put_fb<B: ByteSink>(&self, _: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
                    t.u8(slot, *self as u8);
                }
                #[inline]
                fn get_fb(f: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
                    t.u8(slot)?.map(|v| discriminant(f, v as u64, <$E>::from_u8)).transpose()
                }
            }
        };
    )+};
}

/// Derives [`Table`] (and [`Wire`], as a sub-table) for a struct from its
/// fields, `name: type [= kind] => slot` in the struct's order; `tuple`
/// before the type for a tuple, its fields `0`, `1`, …; `[slot slot …]`
/// after it for an FB push order that is not slot order.  Grammar, orders
/// and constraints: [module docs](crate::schema).
#[macro_export]
macro_rules! wire_table {
    (@impl $T:ty, $shape:tt, $order:tt; $fields:tt) => {
        const _: () = {
            use $crate::schema::rt::*;

            impl Table for $T {
                const SLOTS: u16 = $crate::wire_table!(@slots $order $fields);
                #[inline]
                fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                    $crate::wire_table!(@put_per (&self.) w; $fields);
                }
                #[inline]
                fn get_fields(r: &mut BitReader<'_>) -> Result<Self> {
                    Ok($crate::wire_table!(@get_per r; $shape $fields))
                }
                #[inline]
                fn fill<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder) {
                    $crate::wire_table!(@put_fb $order (&self.) () b, t; $fields);
                }
                #[inline]
                fn from_table(t: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
                    Ok($crate::wire_table!(@get_fb t, src; $shape $fields))
                }
            }

            impl Wire for $T {
                #[inline]
                fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
                    self.put_fields(w);
                }
                #[inline]
                fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                    Self::get_fields(r)
                }
                #[inline]
                fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
                    let table = self.to_table(b);
                    t.off(slot, table);
                }
                #[inline]
                fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
                    t.table(slot)?.map(|t| Self::from_table(&t, src)).transpose()
                }
            }
        };
    };
    // The field's line of the table: its name, its kind (`uint` if the
    // declaration has none) and what the type it travels as holds.
    (@field $f:tt, $ty:ty) => { $crate::wire_table!(@field $f, $ty, uint) };
    (@field $f:tt, $ty:ty, $kind:expr) => {
        &const {
            use $crate::schema::{Field, Kind::*, WireAs};
            Field::new(stringify!($f), $kind, <$ty as WireAs>::MAX)
        }
    };
    (@slots [$($s:literal)*] { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $crate::schema::slots(&[$($s),*], &[$($slot),*])
    };
    // Tokens side by side: `(&self.) name` is the field of a struct, `()
    // name` a variant's field bound by a pattern, `(base +) 3` a slot
    // counted from a choice's first.
    (@join ($($p:tt)*) $x:tt) => { $($p)* $x };
    // PER: the fields, each at `$at`, in the order declared.
    (@put_per $at:tt $w:expr; { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $(<$ty as $crate::schema::WireAs>::put_per(
            $crate::wire_table!(@join $at $f),
            $crate::wire_table!(@field $f, $ty $(, $kind)?),
            $w,
        );)*
    };
    // A struct literal evaluates its fields in the order written: the one
    // declared.  `$pre` is what the caller has of the struct already.
    (@get_per $r:expr; { $($pre:tt)* }
     { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        Self {
            $($pre)*
            $($f: $crate::wire_table!(@per $r, $f, $ty $(, $kind)?),)*
        }
    };
    (@get_per $r:expr; tuple { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        ($($crate::wire_table!(@per $r, $f, $ty $(, $kind)?),)*)
    };
    (@per $r:expr, $f:tt, $ty:ty $(, $kind:expr)?) => {
        <$ty as $crate::schema::WireAs>::get_per($crate::wire_table!(@field $f, $ty $(, $kind)?), $r)?
    };
    // FB: `TableBuilder` lays fields down in the order of the calls, and the
    // pinned bytes have them — and what they point at — in slot order,
    // which is not always the declared one: so, slot by slot, or in the
    // order the declaration states.  Every `if` is between two constants.
    (@put_fb [] $($rest:tt)*) => {
        $crate::wire_table!(@put_fb [0 1 2 3 4 5 6 7] $($rest)*);
    };
    (@put_fb [$($s:literal)+] $at:tt $base:tt $b:expr, $t:expr; $fields:tt) => {
        $($crate::wire_table!(@at $s, $at $base $b, $t; $fields);)+
    };
    (@at $s:literal, $at:tt $base:tt $b:expr, $t:expr;
     { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $(if $slot == $s {
            <$ty as $crate::schema::WireAs>::put_fb(
                $crate::wire_table!(@join $at $f),
                $b,
                $t,
                $crate::wire_table!(@join $base $s),
            );
        })*
    };
    (@get_fb $t:expr, $src:expr; { $($pre:tt)* }
     { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        Self {
            $($pre)*
            $($f: $crate::wire_table!(@fb $t, $src, $slot, $f, $ty $(, $kind)?),)*
        }
    };
    (@get_fb $t:expr, $src:expr; tuple { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        ($($crate::wire_table!(@fb $t, $src, $slot, $f, $ty $(, $kind)?),)*)
    };
    (@fb $t:expr, $src:expr, $slot:expr, $f:tt, $ty:ty $(, $kind:expr)?) => {{
        let f = $crate::wire_table!(@field $f, $ty $(, $kind)?);
        $crate::schema::required(f, <$ty as $crate::schema::WireAs>::get_fb(f, $t, $slot, $src)?)?
    }};
    (tuple $T:ty { $($fields:tt)* }) => { $crate::wire_table!(@impl $T, tuple, []; { $($fields)* }); };
    ($T:ty $([$($s:literal)+])? { $($fields:tt)* }) => {
        $crate::wire_table!(@impl $T, {}, [$($($s)+)?]; { $($fields)* });
    };
}

/// Derives [`Wire`] — inline, from the slot it is given — and [`Table`] —
/// as the root of a message — for an enum whose variants hold fields:
/// `index => Variant { name: type [= kind] => slot, … }`, a unit variant
/// `{}`, slots counted from the discriminant's; `[slot slot …]` after a
/// variant's name for an FB push order that is not slot order.  Grammar,
/// orders and constraints: [module docs](crate::schema).
#[macro_export]
macro_rules! wire_choice {
    ($T:ty { $($idx:literal => $V:ident $([$($s:literal)+])? {
        $($f:ident: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)?
    }),+ $(,)? }) => {
        const _: () = {
            use $crate::schema::rt::*;

            const LAST: u64 = last_index(&[$($idx),+]);
            const ROOT: Field = named(stringify!($T));

            #[allow(unused_variables)] // a choice of unit variants
            impl Wire for $T {
                #[inline]
                fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
                    match self {$(
                        Self::$V { $($f),* } => {
                            w.put_constrained($idx, 0, LAST);
                            $crate::wire_table!(@put_per () w; { $($f: $ty $(= $kind)? => $slot),* });
                        }
                    )+}
                }
                #[inline]
                fn get_per(f: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                    Ok(match r.get_constrained(0, LAST)? {
                        $($idx => Self::$V {
                            $($f: $crate::wire_table!(@per r, $f, $ty $(, $kind)?),)*
                        },)+
                        v => return Err(CodecError::BadDiscriminant { what: f.name, value: v }),
                    })
                }
                #[inline]
                fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, base: u16) {
                    match self {$(
                        Self::$V { $($f),* } => {
                            t.u8(base, $idx);
                            $crate::wire_table!(@put_fb [$($($s)+)?] () (base +) b, t;
                                { $($f: $ty $(= $kind)? => $slot),* });
                        }
                    )+}
                }
                #[inline]
                fn get_fb(f: &Field, t: &FbTable<'_>, base: u16, src: Src<'_>) -> Result<Option<Self>> {
                    let Some(index) = t.u8(base)? else { return Ok(None) };
                    Ok(Some(match index {
                        $($idx => Self::$V {
                            $($f: $crate::wire_table!(@fb t, src, base + $slot, $f, $ty $(, $kind)?),)*
                        },)+
                        v => return Err(CodecError::BadDiscriminant { what: f.name, value: v as u64 }),
                    }))
                }
            }

            impl Table for $T {
                const SLOTS: u16 = {
                    let mut n = 1;
                    $(let of_variant = slots(&[$($($s),+)?], &[$($slot),*]);
                    if of_variant > n {
                        n = of_variant;
                    })+
                    n
                };
                #[inline]
                fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                    self.put_per(&ROOT, w);
                }
                #[inline]
                fn get_fields(r: &mut BitReader<'_>) -> Result<Self> {
                    Wire::get_per(&ROOT, r)
                }
                #[inline]
                fn fill<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder) {
                    self.put_fb(b, t, 0);
                }
                #[inline]
                fn from_table(t: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
                    required(&ROOT, Wire::get_fb(&ROOT, t, 0, src)?)
                }
            }
        };
    };
}
