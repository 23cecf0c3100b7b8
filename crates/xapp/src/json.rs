//! JSON for the REST northbound and the experiment snapshots: one
//! [`Value`], a parser, a writer, and the two traits ([`ToJson`],
//! [`FromJson`]) the REST types implement by hand (or through
//! [`json_struct!`](crate::json_struct) / [`json_enum!`](crate::json_enum)).
//!
//! The parser takes bytes from outside the process, so it is bounded and
//! total: input longer than [`MAX_INPUT`] or nested deeper than
//! [`MAX_DEPTH`] is an [`Error`], as is anything RFC 8259 does not allow
//! (and two things it leaves open: a number too large for an `f64` and a
//! key that occurs twice in one object).  It never panics and never
//! recurses beyond `MAX_DEPTH` frames.

use std::fmt::{self, Write as _};

/// Longest input [`parse`] looks at (the HTTP server's body limit).
pub const MAX_INPUT: usize = 16 * 1024 * 1024;

/// Deepest nesting of arrays and objects [`parse`] follows.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.  Objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// A negative integer that fits `i64`, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

/// Why a document did not parse, or a value did not fit a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What was wrong.
    pub msg: String,
    /// Byte offset into the input, for parse errors.
    pub at: Option<usize>,
}

impl Error {
    /// A type error (no position).
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into(), at: None }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} at byte {at}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Reading a value
// ---------------------------------------------------------------------------

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::UInt(n) => i64::try_from(n).ok(),
            Value::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members of an object, in order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Indented rendering (two spaces), for files people read.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0));
        out
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Compact rendering: no whitespace.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None);
        f.write_str(&out)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `indent` is the current depth when pretty-printing, `None` for compact.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        // `{:?}` keeps a float a float (`50.0`, `1e21`); JSON has no NaN or
        // infinity, which become `null`.
        Value::Float(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    newline(out, depth + 1);
                }
                write_value(out, item, indent.map(|d| d + 1));
            }
            if let (Some(depth), false) = (indent, items.is_empty()) {
                newline(out, depth);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    newline(out, depth + 1);
                }
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, value, indent.map(|d| d + 1));
            }
            if let (Some(depth), false) = (indent, members.is_empty()) {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses one JSON document: a value, optionally surrounded by whitespace,
/// and nothing else.
pub fn parse(input: &[u8]) -> Result<Value, Error> {
    if input.len() > MAX_INPUT {
        return Err(Error { msg: format!("input longer than {MAX_INPUT} bytes"), at: None });
    }
    let text = std::str::from_utf8(input)
        .map_err(|e| Error { msg: "invalid UTF-8".into(), at: Some(e.valid_up_to()) })?;
    let mut p = Parser { src: text.as_bytes(), text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    /// `src` as the string it was checked to be.
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error { msg: msg.to_owned(), at: Some(self.pos) }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members: Vec<(String, Value)> = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(self.err("duplicate key"));
                    }
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected `:`"));
                    }
                    self.skip_ws();
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat("-");
        // Integer part: `0`, or digits not starting with `0`.
        if !self.eat("0") && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        let mut integral = true;
        if self.eat(".") {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let (false, Ok(n)) = (negative, text.parse::<u64>()) {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(Error { msg: "number out of range".into(), at: Some(start) }),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.src.get(self.pos..self.pos + 4).ok_or_else(|| self.err("short \\u"))?;
        let mut n = 0u32;
        for &d in digits {
            n = n * 16 + (d as char).to_digit(16).ok_or_else(|| self.err("bad \\u digit"))?;
        }
        self.pos += 4;
        Ok(n)
    }

    /// Parses a string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Both ends of the run are at ASCII bytes or the end of input:
            // character boundaries of `text`.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("unknown escape"));
                        }
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (a surrogate pair takes two);
    /// `pos` is behind the `u`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.eat("\\u") {
                    return Err(self.err("lone surrogate"));
                }
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("lone surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }
}

// ---------------------------------------------------------------------------
// Typed conversion
// ---------------------------------------------------------------------------

/// A type with a JSON form.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// A type that can be read back from its JSON form.
pub trait FromJson: Sized {
    /// Reads `Self` out of `v`, or says what does not fit.
    fn from_json(v: &Value) -> Result<Self, Error>;

    /// What a missing object member reads as: an error, except for
    /// `Option`, where it is `None`.
    fn from_missing(field: &str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

/// Parses `input` and reads a `T` out of it.
pub fn from_slice<T: FromJson>(input: &[u8]) -> Result<T, Error> {
    T::from_json(&parse(input)?)
}

/// The member `field` of object `v` as a `T`; a member that is absent
/// reads as `default`, or as [`FromJson::from_missing`] says without one.
pub fn field<T: FromJson>(v: &Value, field: &str, default: Option<T>) -> Result<T, Error> {
    match (v.get(field), default) {
        (Some(member), _) => {
            T::from_json(member).map_err(|e| Error::new(format!("field `{field}`: {}", e.msg)))
        }
        (None, Some(default)) => Ok(default),
        (None, None) => T::from_missing(field),
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::new("expected a boolean"))
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::new(concat!("expected an integer that fits ", stringify!($t))))
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                match u64::try_from(*self) {
                    Ok(n) => Value::UInt(n),
                    Err(_) => Value::Int(*self as i64),
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::new(concat!("expected an integer that fits ", stringify!($t))))
            }
        }
    )*};
}
signed!(i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::new("expected a number"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned).ok_or_else(|| Error::new("expected a string"))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self[..].to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| Error::new("expected an array"))?;
        items.iter().map(T::from_json).collect()
    }
}

/// A map is an object; keys are written as they display.
impl<K: fmt::Display, V: ToJson> ToJson for std::collections::BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

/// `None` is `null`, and a missing member.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn from_missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

/// A tuple is an array of its length.
macro_rules! tuple {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Arr(vec![$(self.$i.to_json()),+])
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v.as_array() {
                    Some(items) if items.len() == $n => Ok(($($t::from_json(&items[$i])?,)+)),
                    _ => Err(Error::new(concat!("expected an array of ", $n))),
                }
            }
        }
    };
}
tuple!(2: A 0, B 1);
tuple!(4: A 0, B 1, C 2, D 3);

/// Builds a [`Value`] from a JSON-shaped literal; any Rust expression whose
/// type is [`ToJson`] can stand where a value can.
///
/// ```
/// use flexric_xapp::json;
/// let share = 66.0;
/// let body = json!({"agent": 0, "slices": [{"id": 0, "params": {"share_pct": share}}]});
/// assert_eq!(body.to_string(), r#"{"agent":0,"slices":[{"id":0,"params":{"share_pct":66.0}}]}"#);
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([ $($items:tt)* ]) => { $crate::json::Value::Arr($crate::__json_items!([] $($items)*)) };
    ({ $($members:tt)* }) => {
        $crate::json::Value::Obj($crate::__json_members!([] $($members)*))
    };
    ($value:expr) => { $crate::json::ToJson::to_json(&$value) };
}

/// The elements of a `json!` array: nested literals first, then
/// expressions, each up to the next top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_items {
    ([$($done:expr,)*]) => { vec![$($done,)*] };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!(null),] $($($rest)*)?)
    };
    ([$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!($next),] $($($rest)*)?)
    };
}

/// The members of a `json!` object, as the elements of a `json!` array.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_members {
    ([$($done:expr,)*]) => { vec![$($done,)*] };
    ([$($done:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done,)* ($key.to_string(), $crate::json!(null)),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $key:literal : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_members!(
            [$($done,)* ($key.to_string(), $crate::json!([$($inner)*])),] $($($rest)*)?
        )
    };
    ([$($done:expr,)*] $key:literal : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_members!(
            [$($done,)* ($key.to_string(), $crate::json!({$($inner)*})),] $($($rest)*)?
        )
    };
    ([$($done:expr,)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done,)* ($key.to_string(), $crate::json!($value)),] $($($rest)*)?)
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a struct as an object with
/// one member per listed field.  `field = expr` makes the member optional
/// on input: absent, it reads as `expr`.  Unknown members are ignored.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident $(= $default:expr)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                if v.as_object().is_none() {
                    return Err($crate::json::Error::new("expected an object"));
                }
                Ok($ty {
                    $($field: $crate::json::field(
                        v, stringify!($field), $crate::json_struct!(@default $($default)?))?,)*
                })
            }
        }
    };
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
}

/// Implements [`ToJson`] and [`FromJson`] for an enum of struct-like (or
/// empty) variants as an object whose member `$tag` names the variant —
/// `Variant = "wire_name" { fields }`, fields as in
/// [`json_struct!`](crate::json_struct).
#[macro_export]
macro_rules! json_enum {
    ($ty:ident tag $tag:literal {
        $($variant:ident = $name:literal { $($field:ident $(= $default:expr)?),* $(,)? }),* $(,)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $($ty::$variant { $($field),* } => $crate::json::Value::Obj(vec![
                        ($tag.to_owned(), $crate::json::Value::Str($name.to_owned())),
                        $((stringify!($field).to_owned(), $crate::json::ToJson::to_json($field)),)*
                    ]),)*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                let tag: String = $crate::json::field(v, $tag, None)?;
                match tag.as_str() {
                    $($name => Ok($ty::$variant {
                        $($field: $crate::json::field(
                            v, stringify!($field), $crate::json_struct!(@default $($default)?))?,)*
                    }),)*
                    other => Err($crate::json::Error::new(format!(
                        "unknown {} `{other}`", $tag
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_of_value_round_trips() {
        let text = r#"{"n":null,"t":true,"f":false,"u":18446744073709551615,"i":-9223372036854775808,"x":-1.5e-7,"big":1e21,"s":"a\"b\\c\n\u0001é😀","a":[1,[2,[]],{}],"o":{"k":"v"}}"#;
        let v = parse(text.as_bytes()).unwrap();
        assert_eq!(v.get("u"), Some(&Value::UInt(u64::MAX)));
        assert_eq!(v.get("i"), Some(&Value::Int(i64::MIN)));
        assert_eq!(v.get("x"), Some(&Value::Float(-1.5e-7)));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\n\u{1}é😀"));
        assert_eq!(v.get("a").and_then(Value::as_array).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.to_string(), text, "compact writer is the parser's inverse");
        assert_eq!(parse(v.to_string_pretty().as_bytes()).unwrap(), v);
    }

    #[test]
    fn escapes_and_surrogate_pairs_decode() {
        let v = parse(r#""\/\b\f\r\t\u00e9\ud83d\ude00é""#.as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("/\u{8}\u{c}\r\té😀é"));
    }

    #[test]
    fn pretty_printing_indents_by_two() {
        let v = json!({"a": [1, 2], "b": {}, "c": []});
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
    }

    #[test]
    fn floats_stay_floats_and_non_finite_is_null() {
        assert_eq!(json!(50.0).to_string(), "50.0");
        assert_eq!(json!(0.1f64 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(json!(f64::NAN).to_string(), "null");
        assert_eq!(json!(-3i64).to_string(), "-3");
    }

    /// Malformed input is an error — never a panic, never unbounded
    /// recursion.
    #[test]
    fn malformed_input_is_an_error() {
        let deep_arrays = "[".repeat(10_000);
        let deep_objects = "{\"a\":".repeat(10_000);
        let cases: &[&str] = &[
            "",
            " ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "\"abc",
            "\"tab\tin string\"",
            r#""\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\udc00""#,
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1e999",
            "-1e999",
            "nul",
            "truee",
            "NaN",
            r#"{"a":1,"a":2}"#,
            "1 2",
            "{} x",
            "[]]",
            &deep_arrays,
            &deep_objects,
        ];
        for case in cases {
            let shown = &case[..case.len().min(24)];
            assert!(parse(case.as_bytes()).is_err(), "accepted {shown:?}");
        }
        assert!(parse(b"\"\xff\"").is_err(), "invalid UTF-8");
        assert!(parse(&vec![b' '; MAX_INPUT + 1]).is_err(), "oversized input");
        // Every truncation of a valid document is rejected, not indexed past.
        let doc = r#"{"k":[1,-2.5e3,"sé\n",true,null,{"z":[]}]}"#.as_bytes();
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            assert!(parse(&doc[..cut]).is_err(), "accepted a document cut at {cut}");
        }
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(ok.as_bytes()).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(over.as_bytes()).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u16,
        label: String,
        tags: Vec<(u16, u32)>,
        note: Option<String>,
    }
    json_struct!(Point { x, label = "origin".to_owned(), tags, note });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Circle { r: f64 },
        Rect { w: u32, h: u32 },
        Nothing {},
    }
    json_enum!(Shape tag "kind" {
        Circle = "circle" { r },
        Rect = "rect" { w, h = 1 },
        Nothing = "nothing" {},
    });

    #[test]
    fn struct_and_enum_macros_follow_the_attributes_they_replace() {
        let p: Point = from_slice(br#"{"x":3,"tags":[[1,2]],"extra":true}"#).unwrap();
        assert_eq!(
            p,
            Point { x: 3, label: "origin".into(), tags: vec![(1, 2)], note: None },
            "default filled in, Option absent is None, unknown member ignored"
        );
        assert_eq!(
            p.to_json().to_string(),
            r#"{"x":3,"label":"origin","tags":[[1,2]],"note":null}"#
        );
        assert_eq!(Point::from_json(&p.to_json()).unwrap(), p);
        assert!(from_slice::<Point>(br#"{"tags":[]}"#).is_err(), "x is required");
        assert!(from_slice::<Point>(br#"{"x":70000,"tags":[]}"#).is_err(), "x must fit u16");
        assert!(from_slice::<Point>(br#"{"x":1,"tags":[[1]]}"#).is_err(), "pair of two");
        assert!(from_slice::<Point>(b"[]").is_err());

        let s: Shape = from_slice(br#"{"kind":"rect","w":4}"#).unwrap();
        assert_eq!(s, Shape::Rect { w: 4, h: 1 });
        assert_eq!(s.to_json().to_string(), r#"{"kind":"rect","w":4,"h":1}"#);
        assert_eq!(Shape::Nothing {}.to_json().to_string(), r#"{"kind":"nothing"}"#);
        assert_eq!(
            from_slice::<Shape>(br#"{"kind":"circle","r":2}"#).unwrap(),
            Shape::Circle { r: 2.0 }
        );
        assert!(from_slice::<Shape>(br#"{"kind":"blob"}"#).is_err());
        assert!(from_slice::<Shape>(br#"{"r":1.0}"#).is_err(), "tag is required");
    }

    #[test]
    fn json_macro_takes_literals_and_expressions() {
        let sharing = false;
        let ids = [1u32, 2];
        let v = json!({
            "agent": 0,
            "algo": if sharing { "nvs" } else { "nvs_nosharing" },
            "assoc": [[0x4601, 0], [0x4602, 1]],
            "ids": ids.iter().map(|i| i * 2).collect::<Vec<_>>(),
            "nothing": null,
            "nested": {"deep": [{"x": 1.5}, null]},
        });
        assert_eq!(
            v.to_string(),
            r#"{"agent":0,"algo":"nvs_nosharing","assoc":[[17921,0],[17922,1]],"ids":[2,4],"nothing":null,"nested":{"deep":[{"x":1.5},null]}}"#
        );
        assert_eq!(json!([]).to_string(), "[]");
        assert_eq!(json!({}).to_string(), "{}");
    }
}
