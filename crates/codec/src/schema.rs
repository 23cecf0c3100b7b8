//! One declaration per message, both codecs from it.
//!
//! [`wire_table!`](crate::wire_table) lists a struct's fields once, in the
//! order the struct has them — `name: type [= kind] => slot` — and derives
//! its [`Table`] impl: PER encode and decode, FB encode and decode, each
//! straight-line code over the fields.  What a field's type does in either
//! encoding is its [`Wire`] impl: integers (constrained by the [`Kind`]
//! after the `=`, `uint` without one), `Bytes`, `String`, `Option` of any
//! of them, `Vec` of any [`Table`], a table as a sub-table, an enum through
//! [`wire_enum!`](crate::wire_enum); a type whose two encodings share no
//! shape implements the four operations by hand (`e2ap` has those of E2AP).
//! `tests/declared_pdu.rs` declares a message of its own this way.
//!
//! **Two orders.**  PER is the fields in the order declared.  An FB table
//! is laid out by [`TableBuilder`] in the order of the *calls*, and the
//! bytes every golden file pins have fields, and the blobs, vectors and
//! sub-tables they point at, in **slot** order: so the FB encoder walks the
//! slots, not the declaration.
//!
//! **One constraint set.**  A [`Field`] has one maximum; PER cannot write a
//! larger value and every FB read goes through [`Field::check`], so what one
//! decoder accepts every encoder can write again.

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
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_utf8(self);
    }
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        r.get_utf8()
    }
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let blob = b.string(self);
        t.off(slot, blob);
    }
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Self>> {
        Ok(t.string(slot)?.map(str::to_owned))
    }
}

/// A sequence of fields: in PER one after the other, in FB a table.
/// [`wire_table!`](crate::wire_table) derives it, and with it the table's
/// [`Wire`] as a field of another (PER inline, FB a sub-table).
pub trait Table: Sized {
    /// One more than the table's last slot: where a list that gives each
    /// element one more field puts it.
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

    /// Writes the table and returns its offset.
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

/// Most elements a PER list may announce: no message is anywhere near, and
/// a corrupted length must not size an allocation.
const MAX_LIST: usize = 1 << 20;

/// PER a length and the elements; FB a vector, an absent one empty.
impl<T: Table> Wire for Vec<T> {
    fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
        w.put_length(self.len());
        for item in self {
            item.put_fields(w);
        }
    }
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
        let n = r.get_length()?;
        if n > MAX_LIST {
            return Err(CodecError::Malformed { what: "sequence too long" });
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get_fields(r)?);
        }
        Ok(out)
    }
    fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = T::to_vector(self, b);
        t.off(slot, vector);
    }
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
        Ok(Some(match t.vector(slot)? {
            Some(v) => T::from_vector(&v, src)?,
            None => Vec::new(),
        }))
    }
}

/// [`Table::SLOTS`] of a table with fields in `slots`, each below the 8 the
/// encoder walks.
pub const fn slots(slots: &[u16]) -> u16 {
    let (mut n, mut i) = (0, 0);
    while i < slots.len() {
        assert!(slots[i] < 8, "wire_table! walks slots 0..8");
        if slots[i] >= n {
            n = slots[i] + 1;
        }
        i += 1;
    }
    n
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
    pub use super::{discriminant, Field, Src, Table, Wire};
    pub use crate::error::Result;
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
/// before the type for a tuple, its fields `0`, `1`, ….  Grammar, orders
/// and constraints: [module docs](crate::schema).
#[macro_export]
macro_rules! wire_table {
    (@impl $T:ty, $shape:tt; $fields:tt) => {
        const _: () = {
            use $crate::schema::rt::*;

            impl Table for $T {
                const SLOTS: u16 = $crate::wire_table!(@slots $fields);
                fn put_fields<B: ByteSink>(&self, w: &mut BitWriter<B>) {
                    $crate::wire_table!(@put_per self, w; $fields);
                }
                fn get_fields(r: &mut BitReader<'_>) -> Result<Self> {
                    Ok($crate::wire_table!(@get_per r; $shape $fields))
                }
                fn fill<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder) {
                    $crate::wire_table!(@put_fb self, b, t; $fields);
                }
                fn from_table(t: &FbTable<'_>, src: Src<'_>) -> Result<Self> {
                    Ok($crate::wire_table!(@get_fb t, src; $shape $fields))
                }
            }

            impl Wire for $T {
                fn put_per<B: ByteSink>(&self, _: &Field, w: &mut BitWriter<B>) {
                    self.put_fields(w);
                }
                fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Self> {
                    Self::get_fields(r)
                }
                fn put_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
                    let table = self.to_table(b);
                    t.off(slot, table);
                }
                fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, src: Src<'_>) -> Result<Option<Self>> {
                    t.table(slot)?.map(|t| Self::from_table(&t, src)).transpose()
                }
            }
        };
    };
    // The field's line of the table: its name, its kind (`uint` if the
    // declaration has none) and what its type holds.
    (@field $f:tt, $ty:ty) => { $crate::wire_table!(@field $f, $ty, uint) };
    (@field $f:tt, $ty:ty, $kind:expr) => {
        &const {
            use $crate::schema::{Field, Kind::*, Wire};
            Field::new(stringify!($f), $kind, <$ty as Wire>::MAX)
        }
    };
    (@slots { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $crate::schema::slots(&[$($slot),*])
    };
    // PER: the fields of `$m` in the order declared.
    (@put_per $m:expr, $w:expr; { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $($crate::schema::Wire::put_per(
            &$m.$f,
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
    (@per $r:expr, $($field:tt)+) => {
        $crate::schema::Wire::get_per($crate::wire_table!(@field $($field)+), $r)?
    };
    // FB: `TableBuilder` lays fields down in the order of the calls, and the
    // pinned bytes have them — and what they point at — in slot order,
    // which is not always the declared one: so, slot by slot.  Every `if`
    // is between two constants.
    (@put_fb $m:expr, $b:expr, $t:expr; $fields:tt) => {
        $crate::wire_table!(@slot [0 1 2 3 4 5 6 7] $m, $b, $t; $fields);
    };
    (@slot [$($s:literal)*] $m:expr, $b:expr, $t:expr; $fields:tt) => {
        $($crate::wire_table!(@at $s, $m, $b, $t; $fields);)*
    };
    (@at $s:literal, $m:expr, $b:expr, $t:expr;
     { $($f:tt: $ty:ty $(= $kind:expr)? => $slot:expr),* $(,)? }) => {
        $(if $slot == $s {
            $crate::schema::Wire::put_fb(&$m.$f, $b, $t, $s);
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
    (@fb $t:expr, $src:expr, $slot:expr, $($field:tt)+) => {{
        let f = $crate::wire_table!(@field $($field)+);
        $crate::schema::required(f, $crate::schema::Wire::get_fb(f, $t, $slot, $src)?)?
    }};
    (tuple $T:ty { $($fields:tt)* }) => { $crate::wire_table!(@impl $T, tuple; { $($fields)* }); };
    ($T:ty { $($fields:tt)* }) => { $crate::wire_table!(@impl $T, {}; { $($fields)* }); };
}
