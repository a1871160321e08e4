//! The JSON side of the stand-in: the `Value` tree, the text parser, and
//! the two deserializers. `serde_json` re-exports this module's items.

use crate::de::{self, Deserialize, Deserializer, FlattenSink, MapAccess, SeqAccess, Token};
use crate::ser::{JsonOut, Serialize, SerializeFields};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn msg(msg: String) -> Error {
        Error { msg }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error { msg: msg.to_string() }
    }
}

pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(x) => x,
        })
    }
}

/// An object: keys in sorted order, as serde_json's default `Map`.
pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

/// What `Value::get` accepts: an object key or an array position.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}
impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}
impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}
impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        static NULL: Value = Value::Null;
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = to_vec(self, f.alternate()).map_err(|_| fmt::Error)?;
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}
value_from! {
    bool => |v| Value::Bool(v),
    u8 => |v| Value::Number(Number::PosInt(v.into())),
    u32 => |v| Value::Number(Number::PosInt(v.into())),
    u64 => |v| Value::Number(Number::PosInt(v)),
    usize => |v| Value::Number(Number::PosInt(v as u64)),
    i32 => |v| Value::from(i64::from(v)),
    i64 => |v| Value::Number(if v < 0 { Number::NegInt(v) } else { Number::PosInt(v as u64) }),
    f64 => |v| if v.is_finite() { Value::Number(Number::Float(v)) } else { Value::Null },
    &str => |v| Value::String(v.to_string()),
    String => |v| Value::String(v),
    Vec<Value> => |v| Value::Array(v),
    Map<String, Value> => |v| Value::Object(v),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

// ── serialization ────────────────────────────────────────────────────────

impl Serialize for Number {
    fn json(&self, out: &mut JsonOut) {
        match *self {
            Number::PosInt(n) => n.json(out),
            Number::NegInt(n) => n.json(out),
            Number::Float(x) => x.json(out),
        }
    }
}

impl Serialize for Value {
    fn json(&self, out: &mut JsonOut) {
        match self {
            Value::Null => out.raw("null"),
            Value::Bool(b) => b.json(out),
            Value::Number(n) => n.json(out),
            Value::String(s) => s.json(out),
            Value::Array(a) => a.json(out),
            Value::Object(m) => m.json(out),
        }
    }
}

impl SerializeFields for Value {
    fn json_fields(&self, out: &mut JsonOut) {
        if let Value::Object(m) = self {
            m.json_fields(out);
        }
    }
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<Vec<u8>> {
    let mut out = JsonOut::new(pretty);
    value.json(&mut out);
    out.finish()
}

// ── deserialization: the text parser ─────────────────────────────────────

pub struct Parser<'de> {
    src: &'de str,
    pos: usize,
}

impl<'de> Parser<'de> {
    pub fn new(src: &'de str) -> Parser<'de> {
        Parser { src, pos: 0 }
    }

    fn error<T>(&self, what: &str) -> Result<T> {
        let upto = &self.src.as_bytes()[..self.pos.min(self.src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Err(Error { msg: format!("{what} at line {line} column {column}") })
    }

    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\n' | b'\t' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.src.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Fails unless only white space is left.
    pub fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.error("trailing characters"),
        }
    }

    fn number<S, M>(&mut self) -> Result<Token<'de, S, M>> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut integer = true;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' => {}
                b'.' | b'e' | b'E' | b'+' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let digits = text.strip_prefix('-').unwrap_or(text);
        if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0') && integer) {
            return self.error("invalid number");
        }
        if integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Token::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Token::I64(n));
            }
        }
        // `str::parse` rounds correctly, which with the `{:?}` printer makes
        // every finite f64 survive a round trip bit for bit.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Token::F64(x)),
            _ => self.error("invalid number"),
        }
    }

    /// Reads a string whose opening quote is at `pos`.
    fn string(&mut self) -> Result<Cow<'de, str>> {
        let bytes = self.src.as_bytes();
        self.pos += 1;
        let start = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return self.error("EOF while parsing a string"),
                Some(b'"') => {
                    let s = &self.src[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(0..=0x1f) => return self.error("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            let run = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = bytes.get(self.pos).copied();
                    self.pos += 1;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return self.error("invalid escape"),
                    });
                }
                Some(_) => return self.error("control character in string"),
                None => return self.error("EOF while parsing a string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self.src.as_bytes().get(self.pos..self.pos + 4);
        let code = digits
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.error("invalid unicode escape"),
        }
    }

    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat("\\u") {
                return self.error("lone surrogate in string");
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return self.error("lone surrogate in string");
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.error("lone surrogate in string"),
        }
    }
}

pub struct SeqReader<'a, 'de> {
    p: &'a mut Parser<'de>,
    first: bool,
}

pub struct MapReader<'a, 'de> {
    p: &'a mut Parser<'de>,
    first: bool,
}

impl<'a, 'de> Deserializer<'de> for &'a mut Parser<'de> {
    type Error = Error;
    type Seq = SeqReader<'a, 'de>;
    type Map = MapReader<'a, 'de>;

    fn next(self) -> Result<Token<'de, Self::Seq, Self::Map>> {
        match self.peek() {
            None => self.error("EOF while parsing a value"),
            Some(b'"') => self.string().map(Token::Str),
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Map(MapReader { p: self, first: true }))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Seq(SeqReader { p: self, first: true }))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat("null") => Ok(Token::Null),
            Some(_) if self.eat("true") => Ok(Token::Bool(true)),
            Some(_) if self.eat("false") => Ok(Token::Bool(false)),
            Some(_) => self.error("expected value"),
        }
    }

    fn option(self) -> Result<Option<Self>> {
        if self.peek() == Some(b'n') && self.eat("null") {
            Ok(None)
        } else {
            Ok(Some(self))
        }
    }
}

/// Steps over the comma between items; true when `close` ended the list.
fn at_end(p: &mut Parser<'_>, first: &mut bool, close: u8) -> Result<bool> {
    match p.peek() {
        Some(b) if b == close => {
            p.pos += 1;
            return Ok(true);
        }
        Some(b',') if !*first => {
            p.pos += 1;
            if p.peek() == Some(close) {
                return p.error("trailing comma");
            }
        }
        Some(_) if *first => {}
        Some(_) => return p.error("expected `,` or the end of the list"),
        None => return p.error("EOF while parsing a list"),
    }
    *first = false;
    Ok(false)
}

impl<'de> SeqAccess<'de> for SeqReader<'_, 'de> {
    type Error = Error;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        if at_end(self.p, &mut self.first, b']')? {
            return Ok(None);
        }
        T::deserialize(&mut *self.p).map(Some)
    }
}

impl<'de> MapAccess<'de> for MapReader<'_, 'de> {
    type Error = Error;
    type ValueDe<'b>
        = &'b mut Parser<'de>
    where
        Self: 'b;

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>> {
        if at_end(self.p, &mut self.first, b'}')? {
            return Ok(None);
        }
        if self.p.peek() != Some(b'"') {
            return self.p.error("key must be a string");
        }
        let key = self.p.string()?;
        if self.p.peek() != Some(b':') {
            return self.p.error("expected `:`");
        }
        self.p.pos += 1;
        Ok(Some(key))
    }

    fn value(&mut self) -> &mut Parser<'de> {
        self.p
    }
}

// ── deserialization: an owned Value ──────────────────────────────────────

pub struct ValueSeq(std::vec::IntoIter<Value>);

pub struct ValueMap {
    entries: std::collections::btree_map::IntoIter<String, Value>,
    pending: Value,
}

impl<'de> Deserializer<'de> for Value {
    type Error = Error;
    type Seq = ValueSeq;
    type Map = ValueMap;

    fn next(self) -> Result<Token<'de, ValueSeq, ValueMap>> {
        Ok(match self {
            Value::Null => Token::Null,
            Value::Bool(b) => Token::Bool(b),
            Value::Number(Number::PosInt(n)) => Token::U64(n),
            Value::Number(Number::NegInt(n)) => Token::I64(n),
            Value::Number(Number::Float(x)) => Token::F64(x),
            Value::String(s) => Token::Str(Cow::Owned(s)),
            Value::Array(a) => Token::Seq(ValueSeq(a.into_iter())),
            Value::Object(m) => {
                Token::Map(ValueMap { entries: m.into_iter(), pending: Value::Null })
            }
        })
    }

    fn option(self) -> Result<Option<Value>> {
        Ok(if self.is_null() { None } else { Some(self) })
    }

    fn buffer(self) -> Result<Value> {
        Ok(self)
    }
}

impl<'de> SeqAccess<'de> for ValueSeq {
    type Error = Error;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        self.0.next().map(T::deserialize).transpose()
    }
}

impl<'de> MapAccess<'de> for ValueMap {
    type Error = Error;
    type ValueDe<'b> = Value;

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>> {
        Ok(self.entries.next().map(|(k, v)| {
            self.pending = v;
            Cow::Owned(k)
        }))
    }

    fn value(&mut self) -> Value {
        std::mem::take(&mut self.pending)
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> std::result::Result<Value, D::Error> {
        Ok(match d.next()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::U64(n) => Value::Number(Number::PosInt(n)),
            Token::I64(n) => Value::from(n),
            Token::F64(x) => Value::Number(Number::Float(x)),
            Token::Str(s) | Token::Key(s) => Value::String(s.into_owned()),
            Token::Seq(mut seq) => {
                let mut items = Vec::new();
                while let Some(v) = seq.next_element()? {
                    items.push(v);
                }
                Value::Array(items)
            }
            Token::Map(mut map) => {
                let mut entries = Map::new();
                while let Some(key) = map.next_key()? {
                    entries.insert(key.into_owned(), map.next_value()?);
                }
                Value::Object(entries)
            }
        })
    }
}

impl FlattenSink for Map<String, Value> {
    fn put<'de, D: Deserializer<'de>>(
        &mut self,
        key: String,
        d: D,
    ) -> std::result::Result<(), D::Error> {
        self.insert(key, Value::deserialize(d)?);
        Ok(())
    }
}

pub fn from_str<'de, T: Deserialize<'de>>(text: &'de str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = T::deserialize(&mut parser)?;
    parser.end()?;
    Ok(value)
}

pub fn from_slice<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> Result<T> {
    match std::str::from_utf8(bytes) {
        Ok(text) => from_str(text),
        Err(e) => Err(Error { msg: format!("invalid unicode code point: {e}") }),
    }
}
