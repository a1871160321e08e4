//! Stand-in for the part of `serde` the metamess crates use, with JSON as
//! the only data format. The traits keep serde's names and the signatures
//! the crates rely on (`Deserialize::deserialize(d)`, `Deserializer::Error`),
//! but the model is a pull reader instead of serde's visitors: a
//! deserializer hands out one [`de::Token`] at a time, and a serializer is
//! the concrete [`ser::JsonOut`] buffer. Both derive macros come from the
//! sibling `serde_derive` stand-in and cover the attributes listed there.

pub mod de;
pub mod json;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use json::Error;
pub use ser::Serialize;
pub use serde_derive::{Deserialize, Serialize};
