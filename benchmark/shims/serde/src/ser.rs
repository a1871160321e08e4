//! Serialization: every type writes itself into a [`JsonOut`].

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A JSON text under construction, compact or pretty (two-space indent, the
/// layout `serde_json::to_string_pretty` produces).
pub struct JsonOut {
    pub(crate) buf: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// True while a map key is being written: integers quote themselves,
    /// anything but a string or an integer is an error.
    in_key: bool,
    pub(crate) error: Option<String>,
}

impl JsonOut {
    pub fn new(pretty: bool) -> JsonOut {
        JsonOut { buf: Vec::with_capacity(128), pretty, depth: 0, in_key: false, error: None }
    }

    pub fn finish(self) -> Result<Vec<u8>, crate::Error> {
        match self.error {
            Some(msg) => Err(crate::Error::msg(msg)),
            None => Ok(self.buf),
        }
    }

    fn fail(&mut self, msg: &str) {
        if self.error.is_none() {
            self.error = Some(msg.to_string());
        }
    }

    fn newline(&mut self) {
        self.buf.push(b'\n');
        for _ in 0..self.depth {
            self.buf.extend_from_slice(b"  ");
        }
    }

    /// Separator before an object entry or array element: a comma unless
    /// this is the first one, then the pretty layout's line break.
    fn separate(&mut self) {
        if !matches!(self.buf.last(), Some(b'{') | Some(b'[')) {
            self.buf.push(b',');
        }
        if self.pretty {
            self.newline();
        }
    }

    fn open(&mut self, c: u8) {
        if self.in_key {
            self.fail("key must be a string");
        }
        self.buf.push(c);
        self.depth += 1;
    }

    fn close(&mut self, open: u8, close: u8) {
        self.depth -= 1;
        if self.pretty && self.buf.last() != Some(&open) {
            self.newline();
        }
        self.buf.push(close);
    }

    pub fn begin_object(&mut self) {
        self.open(b'{');
    }
    pub fn end_object(&mut self) {
        self.close(b'{', b'}');
    }
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }
    pub fn end_array(&mut self) {
        self.close(b'[', b']');
    }

    /// Starts the next array element.
    pub fn element(&mut self) {
        self.separate();
    }

    fn colon(&mut self) {
        self.buf.push(b':');
        if self.pretty {
            self.buf.push(b' ');
        }
    }

    /// Starts the next object entry under a fixed key.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.string(key);
        self.colon();
    }

    /// Writes one object entry whose key is any serializable map key.
    pub fn entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(&mut self, key: &K, value: &V) {
        self.separate();
        self.in_key = true;
        key.json(self);
        self.in_key = false;
        self.colon();
        value.json(self);
    }

    pub fn raw(&mut self, text: &str) {
        if self.in_key {
            self.fail("key must be a string");
        }
        self.buf.extend_from_slice(text.as_bytes());
    }

    pub fn string(&mut self, s: &str) {
        self.buf.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let esc: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => b"",
                _ => continue,
            };
            self.buf.extend_from_slice(&bytes[start..i]);
            if esc.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.buf.extend_from_slice(b"\\u00");
                self.buf.push(HEX[(b >> 4) as usize]);
                self.buf.push(HEX[(b & 15) as usize]);
            } else {
                self.buf.extend_from_slice(esc);
            }
            start = i + 1;
        }
        self.buf.extend_from_slice(&bytes[start..]);
        self.buf.push(b'"');
    }

    fn unsigned(&mut self, mut n: u64) {
        if self.in_key {
            self.buf.push(b'"');
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[at..]);
        if self.in_key {
            self.buf.push(b'"');
        }
    }

    fn signed(&mut self, n: i64) {
        if n >= 0 {
            return self.unsigned(n as u64);
        }
        if self.in_key {
            self.buf.push(b'"');
        }
        self.buf.push(b'-');
        let quoted = std::mem::replace(&mut self.in_key, false);
        self.unsigned(n.unsigned_abs());
        self.in_key = quoted;
        if self.in_key {
            self.buf.push(b'"');
        }
    }

    /// Finite floats print in the shortest form that parses back to the same
    /// bits (`{:?}`); like serde_json, a non-finite float prints as `null`.
    fn float(&mut self, x: f64) {
        use std::io::Write;
        if self.in_key {
            return self.fail("float key is not supported");
        }
        if x.is_finite() {
            write!(self.buf, "{x:?}").expect("write to a Vec");
        } else {
            self.buf.extend_from_slice(b"null");
        }
    }
}

pub trait Serialize {
    fn json(&self, out: &mut JsonOut);
}

/// A value that can be spliced into its parent object (`#[serde(flatten)]`).
pub trait SerializeFields {
    fn json_fields(&self, out: &mut JsonOut);
}

macro_rules! ser_int {
    ($m:ident as $w:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn json(&self, out: &mut JsonOut) {
                out.$m(*self as $w);
            }
        }
    )*};
}
ser_int!(unsigned as u64: u8, u16, u32, u64, usize);
ser_int!(signed as i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn json(&self, out: &mut JsonOut) {
        out.float(*self);
    }
}
impl Serialize for f32 {
    fn json(&self, out: &mut JsonOut) {
        out.float(f64::from(*self));
    }
}
impl Serialize for bool {
    fn json(&self, out: &mut JsonOut) {
        out.raw(if *self { "true" } else { "false" });
    }
}
impl Serialize for () {
    fn json(&self, out: &mut JsonOut) {
        out.raw("null");
    }
}
impl Serialize for str {
    fn json(&self, out: &mut JsonOut) {
        out.string(self);
    }
}
impl Serialize for String {
    fn json(&self, out: &mut JsonOut) {
        out.string(self);
    }
}
impl Serialize for Path {
    fn json(&self, out: &mut JsonOut) {
        match self.to_str() {
            Some(s) => out.string(s),
            None => out.fail("path contains invalid UTF-8 characters"),
        }
    }
}
impl Serialize for PathBuf {
    fn json(&self, out: &mut JsonOut) {
        self.as_path().json(out);
    }
}

macro_rules! ser_deref {
    ($($p:ty),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p {
            fn json(&self, out: &mut JsonOut) {
                (**self).json(out);
            }
        }
    )*};
}
ser_deref!(&T, Box<T>, Arc<T>);

impl<T: Serialize> Serialize for Option<T> {
    fn json(&self, out: &mut JsonOut) {
        match self {
            Some(v) => v.json(out),
            None => out.raw("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn json(&self, out: &mut JsonOut) {
        out.begin_array();
        for v in self {
            out.element();
            v.json(out);
        }
        out.end_array();
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn json(&self, out: &mut JsonOut) {
        self.as_slice().json(out);
    }
}
impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn json(&self, out: &mut JsonOut) {
        self.as_slice().json(out);
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn json(&self, out: &mut JsonOut) {
                out.begin_array();
                $(out.element(); self.$n.json(out);)+
                out.end_array();
            }
        }
    )*};
}
ser_tuple!((0 A) (0 A, 1 B) (0 A, 1 B, 2 C) (0 A, 1 B, 2 C, 3 D));

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn json(&self, out: &mut JsonOut) {
        out.begin_object();
        self.json_fields(out);
        out.end_object();
    }
}
impl<K: Serialize, V: Serialize> SerializeFields for BTreeMap<K, V> {
    fn json_fields(&self, out: &mut JsonOut) {
        for (k, v) in self {
            out.entry(k, v);
        }
    }
}
impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn json(&self, out: &mut JsonOut) {
        out.begin_object();
        for (k, v) in self {
            out.entry(k, v);
        }
        out.end_object();
    }
}
