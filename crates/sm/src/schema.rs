//! One field table per statistics service model.
//!
//! A statistics SM is rows of unsigned scalars under a timestamped header.
//! [`sm_rows!`](crate::sm_rows) declares a row once — each field as
//! `name: type = bits(n) | range(0, hi) | uint` ([`Kind`]), the fields that
//! identify the row in a `key { … }` block — and derives the struct and its
//! [`Row`] impl: PER, FB and PB codecs, the key, and the indexed and visiting
//! field access the [`delta`](crate::delta) stream diffs and hashes with.
//! [`sm_snapshot!`](crate::sm_snapshot) declares the payload around the rows
//! — `timestamp: u64 [, aux: type]; rows: Vec<Row>` — and derives
//! [`SmPayload`](crate::SmPayload), [`DeltaRows`](crate::DeltaRows) and the
//! pair `encode_pb` / `decode_pb`.  `crates/sm/tests/schema.rs` declares a
//! whole SM this way in 25 lines.
//!
//! **Wire.**  Fields travel in table order, keys first: PER as their
//! [`Kind`] says, FB field *k* in slot *k* at the width of its type, PB
//! field *k* as varint number *k* + 1.  A snapshot is its timestamp, the aux
//! scalar if it has one, then the rows.  Every FB slot of every row is
//! written, so a row's table has a constant size and a constant vtable
//! ([`Row::FB_SIZE`], [`Row::FB_VTABLE`], worked out from the field types
//! when the table is compiled) and the rows of a snapshot are one
//! [`vec_of_tables`](flexric_codec::fb::FbBuilder::vec_of_tables).  A PER
//! row has no constant size, but a constant bound ([`Row::PER_MAX`], from
//! the same table): it is written through one
//! [window](flexric_codec::per::BitWriter::window) of that many bytes, as
//! straight-line stores.  In a delta frame a row goes by its
//! key — the key fields, each filling its type, packed from bit 0 into at
//! most 32 bits — and its other fields by index.
//!
//! **One constraint set.**  A field's [`Field::max`] is 2ⁿ − 1, `hi`, or its
//! type's maximum.  Every decoder — PER, FB, PB, and delta apply through
//! [`Row::set_field`] — refuses a value above it, so whatever one decoder
//! accepted every encoder can write again.  Ranges start at 0 because a row
//! new to a delta stream is diffed against the all-zero row of its key.
//!
//! [`Field`], [`Kind`] and [`Field::check`] are `flexric_codec::schema`'s,
//! re-exported here: the E2AP messages one layer down are declared with the
//! same vocabulary (`wire_table!`), so there is one such type in the
//! workspace and a field has one maximum in every layer.
//!
//! Union-, string-, option- and list-shaped payloads (slice and TC control,
//! RRC events, KPM, the ping, function definitions) are declared with that
//! grammar itself — [`wire_table!`], [`wire_choice!`], re-exported here with
//! the adapters [`Ahead`] and [`U16In32`] — and [`Rows`] lets such a payload
//! hold rows (`TcStatsInd`).  [`SmPayload`](crate::SmPayload) is implemented
//! for every [`Table`](flexric_codec::schema::Table).

use std::fmt::Debug;
use std::marker::PhantomData;

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::pb::PbWriter;
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::schema::{Src, WireAs};
use flexric_codec::ByteSink;

pub use flexric_codec::schema::{per_max, Ahead, Field, Kind, U16In32};
pub use flexric_codec::{wire_choice, wire_enum, wire_table};

/// What the macros' expansions name, so that a crate using them needs no
/// imports of its own.
#[doc(hidden)]
pub mod rt {
    pub use super::{per_max, Field, Kind, Row, Rows};
    pub use crate::{DeltaRows, SmPayload};
    pub use flexric_codec::error::{CodecError, Result};
    pub use flexric_codec::fb::{FbBuilder, FbTable, RowLayout, TableBuilder};
    pub use flexric_codec::pb::{PbReader, PbWriter};
    pub use flexric_codec::per::{BitReader, BitWriter};
    pub use flexric_codec::schema::{named, WireAs};
    pub use flexric_codec::ByteSink;
}

/// Upper bound on the rows of a snapshot in any decoder.
pub const MAX_ROWS: usize = 65_536;

/// A row of unsigned scalars declared with [`sm_rows!`](crate::sm_rows).
pub trait Row: Copy + Default + PartialEq + Debug {
    /// The non-key fields, by index (32 at most).
    const FIELDS: &'static [Field];
    /// The most bytes [`Row::put_per`] writes, counted from the byte the
    /// writer is in: the window it opens.
    const PER_MAX: usize;
    /// Bytes of the row's FB table: the vtable pointer, then field *k* at
    /// the width of its type.
    const FB_SIZE: usize;
    /// The table's vtable: field *k* in slot *k*, every slot present.
    const FB_VTABLE: &'static [u8];

    /// Writes every field in table order, through one
    /// [window](BitWriter::window).
    fn put_per<B: ByteSink>(&self, w: &mut BitWriter<B>);
    /// Reads what [`Row::put_per`] wrote.
    fn get_per(r: &mut BitReader) -> Result<Self>;
    /// Stores every field into `table`, the [`Row::FB_SIZE`] bytes of the
    /// row's table, where [`Row::FB_VTABLE`] says it is: the `fill` of
    /// [`vec_of_tables`](flexric_codec::fb::FbBuilder::vec_of_tables).
    fn fill_fb(&self, table: &mut [u8]);
    /// Reads a table [`Row::fill_fb`] filled; every slot is required.
    fn get_fb(t: &FbTable) -> Result<Self>;
    /// Reads the [`Row::FB_SIZE`] bytes of a table whose vtable is
    /// [`Row::FB_VTABLE`] ([`FbTable::fixed`]): [`Row::get_fb`], each field
    /// read at its fixed offset with no bounds check of its own, and
    /// checked against its maximum in the same order.
    fn get_fb_fixed(table: &[u8]) -> Result<Self>;
    /// Writes field *k* as varint field *k* + 1.
    fn put_pb<B: ByteSink>(&self, w: &mut PbWriter<B>);
    /// Reads a protobuf-style row; absent fields stay 0, unknown ones are
    /// skipped.
    fn get_pb(buf: &[u8]) -> Result<Self>;
    /// The key fields packed from bit 0 in table order.
    fn key(&self) -> u32;
    /// The all-zero row of `key`.
    fn with_key(key: u32) -> Self;
    /// Non-key field `i` widened to `u64`.
    fn field(&self, i: u32) -> u64;
    /// Sets non-key field `i`; `false`, and the row as it was, if the field
    /// may not hold `v` or `i` is not a field.
    fn set_field(&mut self, i: u32, v: u64) -> bool;
    /// Calls `f(i, value)` for every non-key field in index order, as
    /// straight-line code: every `i` is a constant where `f` is inlined.
    fn each_field(&self, f: impl FnMut(u32, u64));
}

/// The rows of a statistics SM as a field: what
/// [`sm_snapshot!`](crate::sm_snapshot) writes after the scalars, and what a
/// payload declared with `wire_table!` names to hold rows (`queues:
/// Rows<TcQueueStats> => 3`).  PER a length and each row's
/// [window](Row::put_per); FB one
/// [`vec_of_tables`](FbBuilder::vec_of_tables), an absent vector empty;
/// [`MAX_ROWS`] at most in either.
#[derive(Debug)]
pub struct Rows<R>(PhantomData<R>);

/// `n`, if a snapshot may hold that many rows.
fn row_count(n: usize) -> Result<usize> {
    if n > MAX_ROWS {
        return Err(CodecError::Malformed { what: "too many rows" });
    }
    Ok(n)
}

impl<R: Row> WireAs for Rows<R> {
    type Value = Vec<R>;
    #[inline]
    fn put_per<B: ByteSink>(rows: &Vec<R>, _: &Field, w: &mut BitWriter<B>) {
        w.put_length(rows.len());
        for row in rows {
            row.put_per(w);
        }
    }
    #[inline]
    fn get_per(_: &Field, r: &mut BitReader<'_>) -> Result<Vec<R>> {
        let n = row_count(r.get_length()?)?;
        let mut rows = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rows.push(R::get_per(r)?);
        }
        Ok(rows)
    }
    #[inline]
    fn put_fb<B: ByteSink>(rows: &Vec<R>, b: &mut FbBuilder<B>, t: &mut TableBuilder, slot: u16) {
        let vector = b.vec_of_tables(R::FB_SIZE, R::FB_VTABLE, rows, R::fill_fb);
        t.off(slot, vector);
    }
    /// A row whose table has the row type's layout — what every encoder
    /// writes — is read at fixed offsets; any other goes slot by slot.
    #[inline]
    fn get_fb(_: &Field, t: &FbTable<'_>, slot: u16, _: Src<'_>) -> Result<Option<Vec<R>>> {
        let v = t.vector_or_empty(slot)?;
        let mut rows = Vec::with_capacity(row_count(v.len())?);
        let mut known = None;
        for i in 0..v.len() {
            let t = v.table_at(i)?;
            rows.push(match t.fixed(R::FB_VTABLE, R::FB_SIZE, &mut known) {
                Some(table) => R::get_fb_fixed(table)?,
                None => R::get_fb(&t)?,
            });
        }
        Ok(Some(rows))
    }
}

/// Declares a row struct from its field table and derives its [`Row`] impl
/// (grammar and wire: [module docs](crate::schema)).
#[macro_export]
macro_rules! sm_rows {
    (
        $(#[$meta:meta])*
        pub struct $Row:ident {
            key { $($(#[$kmeta:meta])* $k:ident: $kty:ident = $kkind:ident $(($($karg:literal),+))?),+ $(,)? }
            $($(#[$fmeta:meta])* $f:ident: $fty:ident = $fkind:ident $(($($farg:literal),+))?),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Row {
            $($(#[$kmeta])* pub $k: $kty,)+
            $($(#[$fmeta])* pub $f: $fty,)+
        }

        const _: () = {
            use $crate::schema::rt::{self, Field, Kind};

            /// Position of every field in the table: its FB slot.
            #[allow(non_camel_case_types, dead_code)]
            enum Slot { $($k,)+ $($f,)+ }
            const TABLE: &[Field] = &[
                $(Field::new(stringify!($k), Kind::$kkind $(($($karg),+))?, <$kty>::MAX as u64),)+
                $(Field::new(stringify!($f), Kind::$fkind $(($($farg),+))?, <$fty>::MAX as u64),)+
            ];
            const KEYS: usize = [$(stringify!($k)),+].len();
            assert!(0 $(+ <$kty>::BITS)+ <= 32, "a row key packs into 32 bits");
            $(assert!(
                TABLE[Slot::$k as usize].max == <$kty>::MAX as u64,
                "a key field fills its type: any 32-bit key must name a legal row"
            );)+
            assert!(TABLE.len() - KEYS <= 32, "a dirty bitmap has 32 bits");
            /// The row's FB table, from the width of each field's type.
            const FB: rt::RowLayout<{ TABLE.len() }, { 2 + 2 * TABLE.len() }> =
                rt::RowLayout::new([$(<$kty>::BITS as usize / 8,)+ $(<$fty>::BITS as usize / 8,)+]);

            impl rt::Row for $Row {
                const FIELDS: &'static [Field] = TABLE.split_at(KEYS).1;
                const PER_MAX: usize = rt::per_max(TABLE);
                const FB_SIZE: usize = FB.size;
                const FB_VTABLE: &'static [u8] = &FB.vtable;

                $crate::sm_rows!(@codecs $($k: $kty,)+ $($f: $fty,)+);

                #[allow(unused_assignments)]
                fn key(&self) -> u32 {
                    let (mut key, mut shift) = (0, 0);
                    $(key |= (self.$k as u32) << shift;
                    shift += <$kty>::BITS;)+
                    key
                }
                #[allow(unused_assignments)]
                fn with_key(key: u32) -> Self {
                    let mut shift = 0;
                    $(let $k = (key >> shift) as $kty;
                    shift += <$kty>::BITS;)+
                    Self { $($k,)+ ..Default::default() }
                }
                fn field(&self, i: u32) -> u64 {
                    match i as usize + KEYS {
                        $(s if s == Slot::$f as usize => self.$f as u64,)+
                        _ => 0,
                    }
                }
                fn set_field(&mut self, i: u32, v: u64) -> bool {
                    match i as usize + KEYS {
                        $(s if s == Slot::$f as usize => {
                            if v > TABLE[s].max {
                                return false;
                            }
                            self.$f = v as $fty;
                        })+
                        _ => return false,
                    }
                    true
                }
                #[inline(always)]
                fn each_field(&self, mut f: impl FnMut(u32, u64)) {
                    $(f((Slot::$f as usize - KEYS) as u32, self.$f as u64);)+
                }
            }
        };
    };
    // The three encodings, over every field of the table, keys included.
    (@codecs $($a:ident: $aty:ident,)+) => {
        fn put_per<B: rt::ByteSink>(&self, w: &mut rt::BitWriter<B>) {
            w.window(<Self as rt::Row>::PER_MAX, |c| {
                $(TABLE[Slot::$a as usize].put_per(c, self.$a as u64);)+
            });
        }
        // The decoders are not generic, so without the hint they stay calls
        // from the snapshot's row loop; inlined there, the table's vtable
        // and bounds work hoists out of it (a 32-row FB decode halves).
        #[inline]
        fn get_per(r: &mut rt::BitReader) -> rt::Result<Self> {
            Ok(Self { $($a: TABLE[Slot::$a as usize].get_per(r)? as $aty,)+ })
        }
        #[inline]
        fn fill_fb(&self, table: &mut [u8]) {
            let table: &mut [u8; FB.size] = table.try_into().expect("a table of FB_SIZE bytes");
            $(table[FB.offsets[Slot::$a as usize]..][..<$aty>::BITS as usize / 8]
                .copy_from_slice(&self.$a.to_le_bytes());)+
        }
        #[inline]
        fn get_fb(t: &rt::FbTable) -> rt::Result<Self> {
            Ok(Self { $($a: {
                let f = &TABLE[Slot::$a as usize];
                let v = t.$aty(Slot::$a as u16)?.ok_or(rt::CodecError::Malformed { what: f.name })?;
                f.check(v as u64)? as $aty
            },)+ })
        }
        #[inline]
        fn get_fb_fixed(table: &[u8]) -> rt::Result<Self> {
            let table: &[u8; FB.size] =
                table.try_into().map_err(|_| rt::CodecError::Truncated { what: "fb row" })?;
            Ok(Self { $($a: {
                let at = FB.offsets[Slot::$a as usize];
                let bytes = table[at..][..<$aty>::BITS as usize / 8].try_into().expect("the field's width");
                TABLE[Slot::$a as usize].check(<$aty>::from_le_bytes(bytes) as u64)? as $aty
            },)+ })
        }
        fn put_pb<B: rt::ByteSink>(&self, w: &mut rt::PbWriter<B>) {
            $(w.uint(Slot::$a as u32 + 1, self.$a as u64);)+
        }
        fn get_pb(buf: &[u8]) -> rt::Result<Self> {
            let (mut row, mut r) = (Self::default(), rt::PbReader::new(buf));
            while let Some((n, v)) = r.next_field()? {
                let v = v.as_uint()?;
                match (n as usize).wrapping_sub(1) {
                    $(s if s == Slot::$a as usize => row.$a = TABLE[s].check(v)? as $aty,)+
                    _ => {}
                }
            }
            Ok(row)
        }
    };
}

/// Declares a `timestamp [, aux]; rows` snapshot and derives
/// [`SmPayload`](crate::SmPayload), [`DeltaRows`](crate::DeltaRows) (under
/// the label after the name) and `encode_pb` / `decode_pb` (grammar and
/// wire: [module docs](crate::schema)).
#[macro_export]
macro_rules! sm_snapshot {
    (
        $(#[$meta:meta])*
        pub struct $Snap:ident: $label:literal {
            $(#[$tmeta:meta])* $ts:ident: u64
            $(, $(#[$xmeta:meta])* $aux:ident: $xty:ident)?;
            $(#[$rmeta:meta])* $rows:ident: Vec<$Row:ident> $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct $Snap {
            $(#[$tmeta])* pub $ts: u64,
            $($(#[$xmeta])* pub $aux: $xty,)?
            $(#[$rmeta])* pub $rows: Vec<$Row>,
        }

        const _: () = {
            use $crate::schema::rt;

            /// FB slot of the rows, after the timestamp and the aux scalar.
            const ROWS: u16 = 1 + <[&str]>::len(&[$(stringify!($aux))?]) as u16;
            $(const AUX: rt::Field =
                rt::Field::new(stringify!($aux), rt::Kind::uint, <$xty>::MAX as u64);)?

            /// The rows' line: their name.
            const LIST: rt::Field = rt::named(stringify!($rows));
            type Rows = rt::Rows<$Row>;

            impl rt::SmPayload for $Snap {
                fn encode_per<B: rt::ByteSink>(&self, w: &mut rt::BitWriter<B>) {
                    w.put_uint(self.$ts);
                    $(w.put_uint(self.$aux as u64);)?
                    <Rows as rt::WireAs>::put_per(&self.$rows, &LIST, w);
                }
                fn decode_per(r: &mut rt::BitReader) -> rt::Result<Self> {
                    let $ts = r.get_uint()?;
                    $(let $aux = AUX.get_per(r)? as $xty;)?
                    let $rows = <Rows as rt::WireAs>::get_per(&LIST, r)?;
                    Ok($Snap { $ts, $($aux,)? $rows })
                }
                fn encode_fb<B: rt::ByteSink>(&self, b: &mut rt::FbBuilder<B>) -> u32 {
                    let mut t = rt::TableBuilder::new();
                    t.u64(0, self.$ts) $(.$xty(1, self.$aux))?;
                    <Rows as rt::WireAs>::put_fb(&self.$rows, b, &mut t, ROWS);
                    t.end(b)
                }
                fn decode_fb(t: &rt::FbTable) -> rt::Result<Self> {
                    let $rows = <Rows as rt::WireAs>::get_fb(&LIST, t, ROWS, None)?.unwrap_or_default();
                    let $ts = t.req_u64(0, stringify!($ts))?;
                    $(let $aux = t.$xty(1)?.ok_or(rt::CodecError::Malformed { what: AUX.name })?;)?
                    Ok($Snap { $ts, $($aux,)? $rows })
                }
            }

            #[allow(dead_code)]
            impl $Snap {
                /// Encodes in the single-layer protobuf style of the FlexRAN
                /// baseline (paper Fig. 7): the timestamp, the aux scalar,
                /// then one embedded message per row.
                pub fn encode_pb(&self) -> Vec<u8> {
                    let mut w = rt::PbWriter::new();
                    w.uint(1, self.$ts);
                    $(w.uint(2, self.$aux as u64);)?
                    for row in &self.$rows {
                        let mut rw = rt::PbWriter::new();
                        rt::Row::put_pb(row, &mut rw);
                        w.message(ROWS as u32 + 1, &rw);
                    }
                    w.finish()
                }

                /// Decodes what [`Self::encode_pb`] wrote.
                pub fn decode_pb(buf: &[u8]) -> rt::Result<Self> {
                    let (mut snap, mut r) = (Self::default(), rt::PbReader::new(buf));
                    while let Some((n, v)) = r.next_field()? {
                        match n {
                            1 => snap.$ts = v.as_uint()?,
                            $(2 => snap.$aux = AUX.check(v.as_uint()?)? as $xty,)?
                            n if n == ROWS as u32 + 1 => {
                                snap.$rows.push(rt::Row::get_pb(v.as_bytes()?)?);
                            }
                            _ => {}
                        }
                    }
                    Ok(snap)
                }
            }

            impl rt::DeltaRows for $Snap {
                type Row = $Row;
                const FIELD_COUNT: u32 = <$Row as rt::Row>::FIELDS.len() as u32;
                const NAME: &'static str = $label;

                fn tstamp_ms(&self) -> u64 { self.$ts }
                fn set_tstamp_ms(&mut self, t: u64) { self.$ts = t; }
                $(fn aux(&self) -> u64 { self.$aux as u64 }
                fn set_aux(&mut self, v: u64) -> bool {
                    AUX.check(v).map(|v| self.$aux = v as $xty).is_ok()
                })?
                fn rows(&self) -> &[$Row] { &self.$rows }
                fn rows_mut(&mut self) -> &mut Vec<$Row> { &mut self.$rows }
                // The row's own functions, under the snapshot's name.
                fn row_key(row: &$Row) -> u32 { rt::Row::key(row) }
                fn new_row(key: u32) -> $Row { rt::Row::with_key(key) }
                fn field(row: &$Row, i: u32) -> u64 { rt::Row::field(row, i) }
                fn set_field(row: &mut $Row, i: u32, v: u64) -> bool { rt::Row::set_field(row, i, v) }
                #[inline(always)]
                fn each_field(row: &$Row, f: impl FnMut(u32, u64)) { rt::Row::each_field(row, f) }
            }
        };
    };
}
