//! Minimal, offline stand-in for the `serde` crate.
//!
//! The build container has no crates.io access, so this workspace vendors
//! the slice of serde it actually uses: `#[derive(Serialize, Deserialize)]`
//! on plain structs and enums, driven through a JSON-shaped [`Value`]
//! model. The public names (`serde::Serialize`, `serde::Deserialize`, the
//! derive macros) match the real crate so application code is unchanged
//! and the real serde can be dropped in whenever a registry is available.
//!
//! Design differences from real serde, deliberately accepted:
//!
//! * the data model is an owned [`Value`] tree instead of a streaming
//!   `Serializer`. Compact JSON, the hot path, skips the tree:
//!   [`Serialize::write_json`] prints derived structs, newtypes,
//!   unit-only enums and the std types straight into a `String`, and
//!   every other type falls back to printing its [`Serialize::to_value`]
//!   tree with the one printer in [`json`]. Both paths emit the same
//!   bytes. The tree cost one allocation per node on every cache key
//!   and journal line: printing the 24 golden-corpus blocks made 12,241
//!   allocations through it and makes 241 direct (pinned in
//!   `tests/alloc_budget.rs`);
//! * deserializing from text moves the parsed tree into the target
//!   ([`Deserialize::from_owned_value`]), so a `Value` result is the
//!   parse itself rather than a deep copy of it;
//! * object keys keep insertion order, which makes serialized output
//!   deterministic — the schedule cache relies on that.

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// A JSON-shaped value tree: the interchange format between `Serialize`
/// and `Deserialize` impls and the `serde_json` printer/parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent, negative).
    Int(i64),
    /// Unsigned integer (JSON number without fraction/exponent).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// A short name of the value's JSON type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An "expected X, found Y" error.
    pub fn expected(what: &str, found: &Value) -> DeError {
        DeError(format!("expected {what}, found {}", found.kind()))
    }

    /// A missing-field error.
    pub fn missing(ty: &str, field: &str) -> DeError {
        DeError(format!("missing field `{field}` of {ty}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can turn themselves into a [`Value`].
pub trait Serialize {
    /// Serializes `self` into the value model.
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON. The default prints
    /// [`Serialize::to_value`] with [`json::write_value`]; an override
    /// writes the same bytes without building the tree.
    fn write_json(&self, out: &mut String) {
        json::write_value(&self.to_value(), out, None, 0);
    }
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Deserializes from the value model.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Deserializes from an owned tree. The default borrows it for
    /// [`Deserialize::from_value`]; [`Value`] itself takes the tree as
    /// is, with no copy.
    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }
}

/// Fetches a required object field (used by derived impls).
pub fn field<'a>(v: &'a Value, ty: &str, name: &str) -> Result<&'a Value, DeError> {
    v.get(name).ok_or_else(|| DeError::missing(ty, name))
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }

            fn write_json(&self, out: &mut String) {
                json::write_u64(*self as u64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u64 = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    ref other => return Err(DeError::expected("unsigned integer", other)),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }

            fn write_json(&self, out: &mut String) {
                json::write_i64(*self as i64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} overflows i64")))?,
                    ref other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    fn write_json(&self, out: &mut String) {
        json::write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Float(x) => Ok(x),
            Value::Int(n) => Ok(n as f64),
            Value::UInt(n) => Ok(n as f64),
            ref other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }

    fn write_json(&self, out: &mut String) {
        json::write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }

    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(DeError::expected("string", &other)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single character, found {s:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(a) => a.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(DeError::expected("2-element array", v)),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(o) => o
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        json::write_value(self, out, None, 0);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}
