//! The dynamic value and record model shared by harvesters, transforms and
//! the catalog.
//!
//! Scientific files carry loosely typed cells; the wrangling pipeline needs a
//! single representation that preserves what was read while allowing numeric
//! summarization. [`Value`] is deliberately small: the catalog stores
//! *summaries*, not data, so values mostly flow through harvesting and
//! transformation.

use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A dynamically typed cell value as harvested from an archive file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Missing / blank cell.
    Null,
    /// Boolean flag (QA columns frequently use these).
    Bool(bool),
    /// Integer measurement or count.
    Int(i64),
    /// Floating point measurement.
    Float(f64),
    /// Free text.
    Text(String),
    /// A parsed instant in time.
    Time(Timestamp),
}

impl Value {
    /// Parses a raw textual cell into the most specific [`Value`].
    ///
    /// Follows the conventions of the archive formats: empty strings and the
    /// sentinel spellings `NA`, `NaN`, `null`, `-9999`, `-999.9` become
    /// [`Value::Null`]; ISO-8601-ish timestamps become [`Value::Time`];
    /// integers and floats parse numerically; everything else stays text.
    pub fn sniff(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match t {
            "NA" | "N/A" | "na" | "NaN" | "nan" | "null" | "NULL" | "-9999" | "-999.9"
            | "-9999.0" => return Value::Null,
            "true" | "TRUE" | "True" => return Value::Bool(true),
            "false" | "FALSE" | "False" => return Value::Bool(false),
            _ => {}
        }
        if let Some(v) = sniff_decimal(t) {
            return v;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
            return Value::Null;
        }
        // a timestamp opens with its year (`+` is a year's sign); checking
        // first spares text the parse error
        if t.starts_with(|c: char| c.is_ascii_digit() || c == '+') {
            if let Ok(ts) = Timestamp::parse(t) {
                return Value::Time(ts);
            }
        }
        Value::Text(t.to_string())
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers and floats as `f64`, everything else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, without lossy float conversion.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view; numbers are not stringified.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Timestamp view.
    pub fn as_time(&self) -> Option<Timestamp> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Renders the value the way archive writers serialize it.
    ///
    /// `Null` renders as the empty string so that round-tripping a blank cell
    /// is lossless.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Text(s) => Cow::Borrowed(s),
            Value::Int(_) | Value::Float(_) | Value::Time(_) => {
                let mut out = String::new();
                self.render_into(&mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Appends what [`Value::render`] returns to `out`: archive writers
    /// format cells straight into their output, digit by digit.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                push_digits(out, i.unsigned_abs(), 1);
            }
            // Keep a trailing ".0" on integral floats so they re-sniff as
            // floats; otherwise the shortest representation that round-trips.
            Value::Float(x) if *x == x.trunc() && x.abs() < 1e15 => {
                if x.is_sign_negative() {
                    out.push('-');
                }
                push_digits(out, x.abs() as u64, 1);
                out.push_str(".0");
            }
            Value::Float(x) => match short_decimal(*x) {
                Some((int, frac, width)) => {
                    if *x < 0.0 {
                        out.push('-');
                    }
                    push_digits(out, int, 1);
                    out.push('.');
                    push_digits(out, frac, width);
                }
                None => {
                    let _ = write!(out, "{x}");
                }
            },
            Value::Text(s) => out.push_str(s),
            Value::Time(t) => match t.to_civil() {
                (y @ 0..=9999, mo, d, h, mi, s) => {
                    push_digits(out, y as u64, 4);
                    for (sep, n) in [('-', mo), ('-', d), ('T', h), (':', mi), (':', s)] {
                        out.push(sep);
                        push_digits(out, n.into(), 2);
                    }
                    out.push('Z');
                }
                _ => {
                    let _ = write!(out, "{t}");
                }
            },
        }
    }

    /// Name of the value's type, for diagnostics and validation messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Time(_) => "time",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends `n` in decimal, zero-padded to `width` digits.
fn push_digits(out: &mut String, mut n: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n > 0 || buf.len() - at < width {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        if f.is_finite() {
            Value::Float(f)
        } else {
            Value::Null
        }
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Time(t)
    }
}

/// A non-integral `x` below 1e6 in magnitude that is the double nearest a
/// decimal with at most six fractional digits, as that decimal's integer
/// part, fractional digits and their count. Neighbouring doubles that small
/// lie far closer than 1e-6, so no other decimal that short reads back as
/// `x`: the decimal is the shortest round-trip form `{x}` prints, found with
/// one multiplication and one (correctly rounded) division.
fn short_decimal(x: f64) -> Option<(u64, u64, usize)> {
    let scaled = (x * 1e6).round();
    if !(x.abs() < 1e6 && scaled / 1e6 == x) {
        return None;
    }
    let k = scaled.abs() as u64;
    let (mut frac, mut width) = (k % 1_000_000, 6);
    while frac != 0 && frac % 10 == 0 {
        frac /= 10;
        width -= 1;
    }
    Some((k / 1_000_000, frac, width))
}

/// The common cell shapes `-?D+` and `-?D+.D+` with at most 15 digits, read
/// without the general parsers: what `str::parse` makes of them, exactly.
/// A mantissa below 10^15 and a power of ten up to 10^15 are both exact in
/// an `f64`, so one division rounds the quotient correctly, as the parse
/// does. Anything else is `None`.
fn sniff_decimal(t: &str) -> Option<Value> {
    const POW10: [f64; 16] =
        [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];
    let (neg, digits) = match t.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        all => (false, all),
    };
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let (mut mantissa, mut point) = (0u64, None);
    for (i, &b) in digits.iter().enumerate() {
        match b {
            b'0'..=b'9' => mantissa = mantissa * 10 + u64::from(b - b'0'),
            b'.' if point.is_none() && i > 0 && i + 1 < digits.len() => point = Some(i),
            _ => return None,
        }
    }
    Some(match point {
        None if digits.len() <= 15 => {
            Value::Int(if neg { -(mantissa as i64) } else { mantissa as i64 })
        }
        None => return None,
        Some(at) => {
            let x = mantissa as f64 / POW10[digits.len() - at - 1];
            Value::Float(if neg { -x } else { x })
        }
    })
}

/// A named row of values, as produced by file parsers and consumed by the
/// transformation engine. Column order is preserved — curators see columns in
/// file order, exactly like the paper's Google Refine workflow.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Record {
    columns: Vec<String>,
    values: Vec<Value>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Appends a column. Replaces the value if the column already exists.
    pub fn set(&mut self, column: impl Into<String>, value: impl Into<Value>) {
        let column = column.into();
        let value = value.into();
        if let Some(ix) = self.index_of(&column) {
            self.values[ix] = value;
        } else {
            self.columns.push(column);
            self.values.push(value);
        }
    }

    /// Looks up a value by column name.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.index_of(column).map(|ix| &self.values[ix])
    }

    /// Mutable lookup by column name.
    pub fn get_mut(&mut self, column: &str) -> Option<&mut Value> {
        self.index_of(column).map(move |ix| &mut self.values[ix])
    }

    /// Removes a column, returning its value.
    pub fn remove(&mut self, column: &str) -> Option<Value> {
        let ix = self.index_of(column)?;
        self.columns.remove(ix);
        Some(self.values.remove(ix))
    }

    /// Renames a column in place; no-op when `from` is absent.
    ///
    /// Returns an error if `to` already exists (would create a duplicate).
    pub fn rename(&mut self, from: &str, to: &str) -> crate::error::Result<bool> {
        if from == to {
            return Ok(self.index_of(from).is_some());
        }
        if self.index_of(to).is_some() {
            return Err(crate::error::Error::conflict(format!(
                "cannot rename '{from}' to existing column '{to}'"
            )));
        }
        match self.index_of(from) {
            Some(ix) => {
                self.columns[ix] = to.to_string();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Column names in file order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Values in file order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the record has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterates `(column, value)` pairs in file order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.columns.iter().map(String::as_str).zip(self.values.iter())
    }

    fn index_of(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_null_sentinels() {
        for raw in ["", "  ", "NA", "NaN", "null", "-9999", "-999.9"] {
            assert!(Value::sniff(raw).is_null(), "raw {raw:?}");
        }
    }

    #[test]
    fn sniff_numbers() {
        assert_eq!(Value::sniff("42"), Value::Int(42));
        assert_eq!(Value::sniff("-7"), Value::Int(-7));
        assert_eq!(Value::sniff("3.25"), Value::Float(3.25));
        assert_eq!(Value::sniff("1e3"), Value::Float(1000.0));
    }

    #[test]
    fn decimal_fast_path_reads_what_the_parsers_read() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _ in 0..200_000 {
            let mut t = String::from(["", "-"][next(2) as usize]);
            (0..1 + next(12)).for_each(|_| t.push((b'0' + next(10) as u8) as char));
            if next(3) > 0 {
                t.push('.');
                (0..1 + next(10)).for_each(|_| t.push((b'0' + next(10) as u8) as char));
            }
            let general = match t.parse::<i64>() {
                Ok(i) => Value::Int(i),
                Err(_) => Value::Float(t.parse::<f64>().unwrap()),
            };
            match (sniff_decimal(&t), &general) {
                (None, _) => assert!(t.bytes().filter(u8::is_ascii_digit).count() > 15, "{t}"),
                (Some(Value::Float(a)), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{t}")
                }
                (Some(fast), _) => assert_eq!(fast, general, "{t}"),
            }
        }
        for t in ["", "-", ".5", "5.", "1e3", "+5", "1.2.3", "12a", "١٢"] {
            assert_eq!(sniff_decimal(t), None, "{t}");
        }
    }

    #[test]
    fn short_floats_display_as_the_shortest_round_trip() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..300_000 {
            let r = next();
            let v = match i % 3 {
                // k / 10^d, the shape the archive writes
                0 => (r % 2_000_000_000) as f64 / [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7][i % 7] - 1e5,
                // a value rounded to three decimals, as the generator does
                1 => ((f64::from_bits(r) % 1e7) * 1000.0).round() / 1000.0,
                // any double
                _ => f64::from_bits(r),
            };
            if v.is_finite() && v != v.trunc() {
                assert_eq!(Value::Float(v).to_string(), format!("{v}"), "bits {:#x}", v.to_bits());
            }
        }
        for v in [1e-6, -1e-6, 5e-7, 999_999.999_999, -0.5, 0.1, 0.1 + 0.2, 123_456.789_012_5] {
            assert_eq!(Value::Float(v).to_string(), format!("{v}"));
        }
    }

    #[test]
    fn digits_render_what_the_formatter_renders() {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..200_000 {
            let r = next() as i64 >> (i % 60);
            assert_eq!(Value::Int(r).render(), r.to_string());
            let f = (r % 1_000_000_000_000_000) as f64;
            assert_eq!(Value::Float(f).render(), format!("{f:.1}"));
            let t = Timestamp(r % 500_000_000_000);
            let (y, mo, d, h, mi, s) = t.to_civil();
            let iso = format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z");
            assert_eq!(Value::Time(t).render(), iso);
        }
        for v in [i64::MIN, i64::MAX, 0, -1] {
            assert_eq!(Value::Int(v).render(), v.to_string());
        }
        assert_eq!(Value::Float(-0.0).render(), "-0.0");
    }

    #[test]
    fn sniff_bools_and_text() {
        assert_eq!(Value::sniff("true"), Value::Bool(true));
        assert_eq!(Value::sniff("FALSE"), Value::Bool(false));
        assert_eq!(Value::sniff("water_temp"), Value::Text("water_temp".into()));
    }

    #[test]
    fn sniff_timestamp() {
        let v = Value::sniff("2010-06-15T12:00:00Z");
        assert!(matches!(v, Value::Time(_)));
    }

    #[test]
    fn sniff_infinite_float_is_null() {
        assert!(Value::sniff("inf").is_null());
    }

    #[test]
    fn render_round_trips_typical_values() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Text("chl_a".into()),
        ] {
            assert_eq!(Value::sniff(&v.render()), v, "value {v:?}");
        }
    }

    #[test]
    fn render_integral_float_keeps_type() {
        let v = Value::Float(5.0);
        assert_eq!(v.render(), "5.0");
        assert_eq!(Value::sniff(&v.render()), v);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(4).as_i64(), Some(4));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
    }

    #[test]
    fn record_set_get_replace() {
        let mut r = Record::new();
        r.set("temp", 5.5);
        r.set("site", "saturn01");
        assert_eq!(r.len(), 2);
        r.set("temp", 6.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("temp"), Some(&Value::Float(6.0)));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn record_rename() {
        let mut r = Record::new();
        r.set("temp", 1.0);
        r.set("sal", 30.0);
        assert!(r.rename("temp", "water_temperature").unwrap());
        assert!(r.get("water_temperature").is_some());
        assert!(r.get("temp").is_none());
        assert!(!r.rename("gone", "x").unwrap());
        assert!(r.rename("sal", "water_temperature").is_err());
    }

    #[test]
    fn record_rename_to_self() {
        let mut r = Record::new();
        r.set("a", 1i64);
        assert!(r.rename("a", "a").unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn record_remove_preserves_order() {
        let mut r = Record::new();
        r.set("a", 1i64);
        r.set("b", 2i64);
        r.set("c", 3i64);
        assert_eq!(r.remove("b"), Some(Value::Int(2)));
        assert_eq!(r.columns(), &["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn record_iter_order() {
        let mut r = Record::new();
        r.set("z", 1i64);
        r.set("a", 2i64);
        let cols: Vec<&str> = r.iter().map(|(c, _)| c).collect();
        assert_eq!(cols, vec!["z", "a"]);
    }
}
