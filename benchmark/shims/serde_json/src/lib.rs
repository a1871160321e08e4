//! Stand-in for the part of `serde_json` the metamess crates call. The codec
//! lives in the `serde` stand-in's `json` module; this crate is the familiar
//! front: `to_*`, `from_*`, `Value`, `Map`, `Number`, `json!`.
//!
//! Differences from the published crate that a caller can see: `Map` is a
//! `BTreeMap`, error texts differ, and `null` reads back as a NaN `f64`
//! (see `serde::de`).

pub use serde::json::{from_slice, from_str, Error, Map, Number, Result, Value};
use serde::{Deserialize, Serialize};

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    serde::json::to_vec(value, false)
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    serde::json::to_vec(value, true)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec(value).map(|b| String::from_utf8(b).expect("the writer emits UTF-8"))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec_pretty(value).map(|b| String::from_utf8(b).expect("the writer emits UTF-8"))
}

pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T> {
    T::deserialize(value)
}

/// Builds a [`Value`] from a JSON-like literal: `null`, arrays, objects with
/// string-literal keys, and any expression that converts `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => { $crate::Value::Array(vec![ $($crate::json!($item)),* ]) };
    ({ $($key:literal : $value:tt),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $(map.insert(::std::string::String::from($key), $crate::json!($value));)*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}
