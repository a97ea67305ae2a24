//! In-tree offline shim for the subset of `serde` this workspace uses:
//! `#[derive(Serialize)]` on plain named-field structs plus enough impls to
//! serialize the benchmark result tables. See README "Offline builds".
//!
//! Instead of serde's visitor architecture, serialization here goes through a
//! simple JSON-shaped [`Value`] tree that `serde_json` (the sibling shim)
//! renders. The `Serialize` name works both as the trait and as the derive
//! macro, exactly like `use serde::Serialize` with the real crate.

#![expect(
    clippy::disallowed_types,
    reason = "serde's API serializes HashMap; keys are sorted before rendering"
)]

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, HashMap};

/// A JSON-shaped value tree, the intermediate form of this shim's
/// serialization pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object; insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up `key` in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace `key` in a `Map` value. Panics on non-map.
    pub fn insert(&mut self, key: &str, value: Value) {
        match self {
            Value::Map(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
            }
            _ => panic!("Value::insert on non-map"),
        }
    }
}

/// Types convertible to a [`Value`] tree (this shim's `serde::Serialize`).
pub trait Serialize {
    /// Convert to the intermediate value tree.
    fn to_json_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => { $(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )* };
}
macro_rules! ser_int {
    ($($t:ty),*) => { $(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )* };
}
ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json_value(&self) -> Value {
        // Deterministic output: sort keys.
        let mut entries: Vec<_> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => { $(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_json_value()),+])
            }
        }
    )* };
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}
