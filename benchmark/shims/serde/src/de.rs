//! Deserialization: a [`Deserializer`] yields one [`Token`] and a type
//! builds itself from it, pulling nested values out of the token's sequence
//! or map reader. Two deserializers exist: the JSON text parser and an owned
//! [`crate::json::Value`] (used where a value must be looked at twice:
//! internally tagged and untagged enums).

use crate::json::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::hash::{BuildHasher, Hash};
use std::path::PathBuf;
use std::sync::Arc;

pub trait Error: Sized + Display {
    fn custom<T: Display>(msg: T) -> Self;
}

pub enum Token<'de, S, M> {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Cow<'de, str>),
    /// A map key: integers parse themselves out of it, as in serde_json.
    Key(Cow<'de, str>),
    Seq(S),
    Map(M),
}

impl<S, M> Token<'_, S, M> {
    fn kind(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "a boolean",
            Token::U64(_) | Token::I64(_) => "an integer",
            Token::F64(_) => "a float",
            Token::Str(_) | Token::Key(_) => "a string",
            Token::Seq(_) => "a sequence",
            Token::Map(_) => "a map",
        }
    }

    pub fn unexpected<E: Error>(&self, expected: &str) -> E {
        E::custom(format_args!("invalid type: {}, expected {expected}", self.kind()))
    }
}

pub trait Deserializer<'de>: Sized {
    type Error: Error;
    type Seq: SeqAccess<'de, Error = Self::Error>;
    type Map: MapAccess<'de, Error = Self::Error>;

    fn next(self) -> Result<Token<'de, Self::Seq, Self::Map>, Self::Error>;

    /// `None` after consuming a `null`, else the untouched deserializer.
    fn option(self) -> Result<Option<Self>, Self::Error>;

    fn buffer(self) -> Result<Value, Self::Error> {
        Value::deserialize(self)
    }

    fn map(self, expected: &str) -> Result<Self::Map, Self::Error> {
        match self.next()? {
            Token::Map(m) => Ok(m),
            other => Err(other.unexpected(expected)),
        }
    }

    fn seq(self, expected: &str) -> Result<Self::Seq, Self::Error> {
        match self.next()? {
            Token::Seq(s) => Ok(s),
            other => Err(other.unexpected(expected)),
        }
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
}

pub trait MapAccess<'de> {
    type Error: Error;
    type ValueDe<'a>: Deserializer<'de, Error = Self::Error>
    where
        Self: 'a;

    /// The next key, or `None` once the map's end has been consumed.
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Self::Error>;

    /// The deserializer of the value that belongs to the key just read.
    fn value(&mut self) -> Self::ValueDe<'_>;

    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error> {
        T::deserialize(self.value())
    }

    fn skip_value(&mut self) -> Result<(), Self::Error> {
        self.next_value::<IgnoredAny>().map(|_| ())
    }

    fn finish(&mut self) -> Result<(), Self::Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(key) => Err(Self::Error::custom(format_args!("unexpected entry `{key}`"))),
        }
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error>;

    /// The value of a field that is absent from its map: an error, except
    /// that an `Option` reads as `None`.
    fn missing<E: Error>(field: &'static str) -> Result<Self, E> {
        Err(E::custom(format_args!("missing field `{field}`")))
    }
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// A sink for the entries no named field claimed (`#[serde(flatten)]`).
pub trait FlattenSink {
    fn put<'de, D: Deserializer<'de>>(&mut self, key: String, d: D) -> Result<(), D::Error>;
}

/// Deserializer of one map key.
pub struct KeyDe<'de, D> {
    key: Cow<'de, str>,
    like: std::marker::PhantomData<D>,
}

impl<'de, D> KeyDe<'de, D> {
    pub fn new(key: Cow<'de, str>) -> Self {
        KeyDe { key, like: std::marker::PhantomData }
    }
}

impl<'de, D: Deserializer<'de>> Deserializer<'de> for KeyDe<'de, D> {
    type Error = D::Error;
    type Seq = D::Seq;
    type Map = D::Map;
    fn next(self) -> Result<Token<'de, Self::Seq, Self::Map>, Self::Error> {
        Ok(Token::Key(self.key))
    }
    fn option(self) -> Result<Option<Self>, Self::Error> {
        Ok(Some(self))
    }
}

/// Consumes any one value.
pub struct IgnoredAny;

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.next()? {
            Token::Seq(mut s) => while s.next_element::<IgnoredAny>()?.is_some() {},
            Token::Map(mut m) => {
                while m.next_key()?.is_some() {
                    m.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(IgnoredAny)
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let out_of_range = |n: &dyn Display| {
                    D::Error::custom(format_args!(
                        "invalid value: integer `{n}`, expected {}", stringify!($t)))
                };
                match d.next()? {
                    Token::U64(n) => <$t>::try_from(n).map_err(|_| out_of_range(&n)),
                    Token::I64(n) => <$t>::try_from(n).map_err(|_| out_of_range(&n)),
                    Token::Key(k) => k.parse::<$t>().map_err(|_| out_of_range(&k)),
                    other => Err(other.unexpected(stringify!($t))),
                }
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.next()? {
            Token::F64(x) => Ok(x),
            Token::U64(n) => Ok(n as f64),
            Token::I64(n) => Ok(n as f64),
            // serde_json writes a non-finite float as `null` and then refuses
            // to read it back. The catalog holds such floats (the min and max
            // of a column without numbers), so this stand-in reads `null` as
            // NaN to let a published catalog load again.
            Token::Null => Ok(f64::NAN),
            other => Err(other.unexpected("f64")),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        f64::deserialize(d).map(|x| x as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.next()? {
            Token::Bool(b) => Ok(b),
            other => Err(other.unexpected("a boolean")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.next()? {
            Token::Null => Ok(()),
            other => Err(other.unexpected("unit")),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.next()? {
            Token::Str(s) | Token::Key(s) => Ok(s.into_owned()),
            other => Err(other.unexpected("a string")),
        }
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        String::deserialize(d).map(PathBuf::from)
    }
}

impl<'de> Deserialize<'de> for Arc<str> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        String::deserialize(d).map(Arc::from)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.option()? {
            Some(d) => T::deserialize(d).map(Some),
            None => Ok(None),
        }
    }
    fn missing<E: Error>(_field: &'static str) -> Result<Self, E> {
        Ok(None)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut seq = d.seq("a sequence")?;
        let mut out = Vec::new();
        while let Some(v) = seq.next_element()? {
            out.push(v);
        }
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let items = Vec::<T>::deserialize(d)?;
        let len = items.len();
        <[T; N]>::try_from(items).map_err(|_| {
            D::Error::custom(format_args!("invalid length {len}, expected an array of length {N}"))
        })
    }
}

macro_rules! de_tuple {
    ($(($len:literal $($t:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let mut seq = d.seq("a tuple")?;
                let short = || D::Error::custom(concat!("invalid length, expected a tuple of size ", $len));
                let out = ($(seq.next_element::<$t>()?.ok_or_else(short)?,)+);
                match seq.next_element::<IgnoredAny>()? {
                    None => Ok(out),
                    Some(_) => Err(short()),
                }
            }
        }
    )*};
}
de_tuple!((1 A) (2 A, B) (3 A, B, C) (4 A, B, C, E));

fn de_entries<'de, D: Deserializer<'de>, K: Deserialize<'de>, V: Deserialize<'de>>(
    d: D,
    mut put: impl FnMut(K, V),
) -> Result<(), D::Error> {
    let mut map = d.map("a map")?;
    while let Some(key) = map.next_key()? {
        let key = K::deserialize(KeyDe::<D>::new(key))?;
        put(key, map.next_value()?);
    }
    Ok(())
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut out = BTreeMap::new();
        de_entries(d, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    S: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut out = HashMap::default();
        de_entries(d, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}
