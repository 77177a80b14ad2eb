//! Tuple values and field schemas.
//!
//! Storm tuples are named lists of values. The simulator carries real
//! payloads (lines, words, log entries) so that fields grouping, word
//! counting and log-rule evaluation execute genuine data paths rather than
//! synthetic stand-ins.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One value inside a tuple.
///
/// The variants cover what the paper's three applications need: strings
/// (lines, words, URIs), integers (counters, sizes, status codes), floats
/// (latencies) and booleans (rule-match results).
///
/// `Value` implements `Hash`/`Eq` (floats hash by bit pattern) because
/// fields grouping partitions streams by hashing selected values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float; hashed and compared by bit pattern.
    Float(f64),
    /// An immutable shared string.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Creates a string value.
    #[must_use]
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the contained string, if this is a string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is an integer value.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used by the network model.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Float(x) => {
                1u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// An ordered set of field names declared by a component's output stream
/// (Storm's `declareOutputFields`).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Fields {
    names: Vec<String>,
}

impl Fields {
    /// Creates a schema from field names.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name — schemas are tiny and built at
    /// topology-construction time, so this is a programming error.
    #[must_use]
    pub fn new<S: AsRef<str>>(names: &[S]) -> Self {
        let names: Vec<String> = names.iter().map(|s| s.as_ref().to_owned()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert!(a != b, "duplicate field name {a}");
            }
        }
        Self { names }
    }

    /// Returns the index of a field by name.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Returns the field names in declaration order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no fields are declared (valid for components that emit
    /// nothing downstream, like terminal sink bolts).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Display for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::str("cat")), hash_of(&Value::str("cat")));
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Int(5)));
        assert_eq!(hash_of(&Value::Float(1.5)), hash_of(&Value::Float(1.5)));
    }

    #[test]
    fn cross_type_values_differ() {
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(hash_of(&Value::Int(0)), hash_of(&Value::Bool(false)));
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn accessors_return_expected() {
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_str(), None);
    }

    #[test]
    fn payload_bytes_reflect_content() {
        assert_eq!(Value::Int(1).payload_bytes(), 8);
        assert_eq!(Value::str("hello").payload_bytes(), 5);
        assert_eq!(Value::Bool(false).payload_bytes(), 1);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from("w"), Value::str("w"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
    }

    #[test]
    fn fields_index_lookup() {
        let f = Fields::new(&["word", "count"]);
        assert_eq!(f.index_of("word"), Some(0));
        assert_eq!(f.index_of("count"), Some(1));
        assert_eq!(f.index_of("missing"), None);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.to_string(), "(word, count)");
    }

    #[test]
    fn empty_fields_allowed() {
        let f = Fields::new::<&str>(&[]);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_fields_panic() {
        let _ = Fields::new(&["a", "a"]);
    }
}
