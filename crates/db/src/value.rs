//! Dynamically typed column values.

use std::cmp::Ordering;
use std::fmt;

use crate::intern::Str;

/// A single cell value. `Null` sorts before everything; `Float` uses a
/// total order (NaN sorts last among floats) so rows can always be sorted.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(Str),
    Bool(bool),
}

// Cells live in a flat per-table arena; the packed `Str` keeps a cell at
// two words. Regressing this silently would inflate every table by 50%.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Text helper; short strings intern to a shared symbol pool.
    pub fn text(s: impl Into<Str>) -> Self {
        Value::Text(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float inside; `Int` widens losslessly for query convenience.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Type tag order used to compare values of different types; this makes
    /// [`Value::total_cmp`] a total order over all values.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics compare with each other
            Value::Text(_) => 3,
        }
    }

    /// Total ordering: Null < Bool < numeric < Text; Int and Float compare
    /// numerically with each other.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    /// A hashable key form; floats are keyed by bit pattern (with -0.0
    /// normalized to 0.0 so equal floats hash equally).
    pub fn key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f };
                ValueKey::Float(f.to_bits())
            }
            Value::Text(s) => ValueKey::Text(s.clone()),
            Value::Bool(b) => ValueKey::Bool(*b),
        }
    }
}

/// Hashable projection of a [`Value`], used as index and group-by key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ValueKey {
    Null,
    Int(i64),
    Float(u64),
    Text(Str),
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Str::new(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Str::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::text("x").as_int(), None);
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = vec![
            Value::text("b"),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::text("a"),
            Value::Int(2),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(2),
                Value::Float(2.5),
                Value::Int(5),
                Value::text("a"),
                Value::text("b"),
            ]
        );
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.5)), Ordering::Less);
        assert_eq!(
            Value::Float(4.0).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_sorts_deterministically() {
        let mut v = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-1.0),
        ];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Value::Float(-1.0));
        assert_eq!(v[1], Value::Float(1.0));
        assert!(matches!(v[2], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn keys_for_equal_floats_match() {
        assert_eq!(Value::Float(0.0).key(), Value::Float(-0.0).key());
        assert_ne!(Value::Float(1.0).key(), Value::Float(2.0).key());
        assert_ne!(Value::Int(1).key(), Value::Float(1.0).key()); // distinct types
    }

    #[test]
    fn display_round_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
