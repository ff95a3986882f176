//! Offline stand-in for the `serde` crate.
//!
//! Real serde is a zero-copy serialisation *framework*; this shim collapses
//! it to the subset the workspace uses: `#[derive(Serialize, Deserialize)]`
//! on non-generic structs/enums, round-tripped through an owned JSON-like
//! [`Value`] tree which `serde_json` prints and parses. The derive macros are
//! re-exported from `serde_derive`, so `use serde::{Serialize, Deserialize}`
//! imports the trait and the macro under one name, exactly like serde with
//! the `derive` feature.

pub use serde_derive::{Deserialize, Serialize};

/// Owned JSON-like data model all (de)serialisation passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers (the common case for ids and counters).
    UInt(u64),
    /// Negative integers.
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object; lookups are linear, which is fine for the
    /// small structs this workspace serialises.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field lookup in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error raised by deserialisation (and by `serde_json` parsing).
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    fn serialize_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize_value(value: &Value) -> Result<Self, Error>;
}

fn unexpected(expected: &str, got: &Value) -> Error {
    Error(format!("expected {expected}, got {}", got.type_name()))
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(unexpected("bool", other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    other => return Err(unexpected("unsigned integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let raw: i64 = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error(format!("integer {u} out of range for i64")))?,
                    other => return Err(unexpected("integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        f64::deserialize_value(value).map(|v| v as f32)
    }
}

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            other => Err(unexpected("number", other)),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(unexpected("string", other)),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(v) => v.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(unexpected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        T::deserialize_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        T::deserialize_value(value).map(std::sync::Arc::new)
    }
}

/// Map keys serialisable as JSON object keys (strings).
pub trait MapKey: Sized + Ord {
    fn to_key_string(&self) -> String;
    fn from_key_string(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key_string(&self) -> String {
        self.clone()
    }
    fn from_key_string(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! impl_int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key_string(&self) -> String {
                self.to_string()
            }
            fn from_key_string(key: &str) -> Result<Self, Error> {
                key.parse()
                    .map_err(|_| Error(format!("invalid map key `{key}`")))
            }
        }
    )*};
}

impl_int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize_value(&self) -> Value {
        // Sort keys so serialisation is deterministic run-to-run.
        let mut fields: Vec<(&K, &V)> = self.iter().collect();
        fields.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_key_string(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for std::collections::HashMap<K, V>
where
    K: MapKey + std::hash::Hash + Eq,
    V: Deserialize,
{
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let fields = value.as_object().ok_or_else(|| unexpected("map", value))?;
        fields
            .iter()
            .map(|(k, v)| Ok((K::from_key_string(k)?, V::deserialize_value(v)?)))
            .collect()
    }
}

impl<K: MapKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key_string(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: MapKey, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let fields = value.as_object().ok_or_else(|| unexpected("map", value))?;
        fields
            .iter()
            .map(|(k, v)| Ok((K::from_key_string(k)?, V::deserialize_value(v)?)))
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                const ARITY: usize = [$($idx),+].len();
                let items = value
                    .as_array()
                    .ok_or_else(|| unexpected("tuple array", value))?;
                if items.len() != ARITY {
                    return Err(Error(format!(
                        "expected tuple of {ARITY} elements, got {}",
                        items.len()
                    )));
                }
                Ok(($($name::deserialize_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize_value(&7u64.serialize_value()).unwrap(), 7);
        assert_eq!(
            i64::deserialize_value(&(-3i64).serialize_value()).unwrap(),
            -3
        );
        assert_eq!(
            f32::deserialize_value(&1.25f32.serialize_value()).unwrap(),
            1.25
        );
        assert!(bool::deserialize_value(&true.serialize_value()).unwrap());
        let s = "hello".to_string();
        assert_eq!(String::deserialize_value(&s.serialize_value()).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1.0f32, -2.5, 3.25];
        assert_eq!(
            Vec::<f32>::deserialize_value(&v.serialize_value()).unwrap(),
            v
        );
        let opt: Option<u64> = None;
        assert_eq!(
            Option::<u64>::deserialize_value(&opt.serialize_value()).unwrap(),
            None
        );
        let pair = (3u64, "x".to_string());
        assert_eq!(
            <(u64, String)>::deserialize_value(&pair.serialize_value()).unwrap(),
            pair
        );
        // Smart pointers are transparent: an `Arc<T>` serialises as `T`.
        let shared = std::sync::Arc::new(vec![1u64, 2]);
        assert_eq!(shared.serialize_value(), vec![1u64, 2].serialize_value());
        assert_eq!(
            std::sync::Arc::<Vec<u64>>::deserialize_value(&shared.serialize_value()).unwrap(),
            shared
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(u64::deserialize_value(&Value::Str("x".into())).is_err());
        assert!(u8::deserialize_value(&Value::UInt(300)).is_err());
        assert!(bool::deserialize_value(&Value::Null).is_err());
        let err = String::deserialize_value(&Value::UInt(1)).unwrap_err();
        assert!(err.to_string().contains("string"));
    }
}
