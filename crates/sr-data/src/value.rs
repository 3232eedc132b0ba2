//! Scalar values and their types.
//!
//! Values are nullable and **totally ordered**: `NULL` compares less than
//! every non-null value, numbers compare numerically (integers and floats
//! compare cross-type), and strings compare lexicographically. The total
//! order is what lets the engine's multi-key sort and the tagger's k-way
//! merge agree on one global document order (paper §3.2/§3.3).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A nullable scalar value.
///
/// Strings are reference-counted ([`Arc<str>`]) so that the join operators in
/// `sr-engine`, which replicate values across many output rows, clone in O(1)
/// without re-allocating the character data.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL`. Sorts before every non-null value.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float. Compared with [`f64::total_cmp`].
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// `true` iff the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type, or `None` for `NULL` (which inhabits every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// The integer payload, if the value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, widening integers, if the value is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate width in bytes when transferred over the simulated wire.
    ///
    /// This feeds both the engine's `data_size` cost term (paper §5:
    /// `data_size = f(|attrs(q)| * cardinality(q))`) and the wire format.
    pub fn wire_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
        }
    }

    /// SQL-style equality: `NULL = anything` is *not* equal (three-valued
    /// logic collapsed to false), numeric cross-type comparison allowed.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.cmp(other) == Ordering::Equal
    }

    /// Canonicalize a float for join-key purposes: every NaN payload
    /// collapses to one canonical NaN and `-0.0` collapses to `0.0`, so
    /// [`Value::join_hash`] and [`Value::join_eq`] always agree.
    pub fn canonical_join_float(x: f64) -> f64 {
        if x.is_nan() {
            f64::NAN
        } else if x == 0.0 {
            0.0
        } else {
            x
        }
    }

    /// Hash for hash-join keys. Identical to the [`Hash`] impl except that
    /// floats are canonicalized first, so `NaN` keys with different bit
    /// patterns and `±0.0` land in the same bucket as their
    /// [`Value::join_eq`] partners.
    pub fn join_hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        match self {
            Value::Float(x) => Value::Float(Self::canonical_join_float(*x)).hash(state),
            other => other.hash(state),
        }
    }

    /// Equality for hash-join keys. NULL never matches (SQL semantics);
    /// numeric cross-type matches are allowed (`Int(2)` joins `Float(2.0)`);
    /// floats are compared through [`Value::canonical_join_float`], so
    /// `-0.0` joins `0.0` and any NaN joins any NaN. Must agree with
    /// [`Value::join_hash`]: `join_eq(a, b)` implies equal join hashes.
    pub fn join_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => {
                Self::canonical_join_float(*a).to_bits() == Self::canonical_join_float(*b).to_bits()
            }
            (Int(a), Float(b)) => (*a as f64)
                .total_cmp(&Self::canonical_join_float(*b))
                .is_eq(),
            (Float(a), Int(b)) => Self::canonical_join_float(*a)
                .total_cmp(&(*b as f64))
                .is_eq(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for sorting and merging:
    /// `NULL < Int/Float (numeric order) < Str (lexicographic)`.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            // Hash floats through their bit pattern; equal-by-total_cmp floats
            // have equal bit patterns except 0.0/-0.0, which we normalize.
            Value::Float(x) => {
                let x = if *x == 0.0 { 0.0f64 } else { *x };
                // Integers that equal this float must hash identically because
                // `Int(2) == Float(2.0)` under our Ord. Normalize exact
                // integral floats to the Int hash.
                if x.fract() == 0.0 && x >= i64::MIN as f64 && x <= i64::MAX as f64 {
                    1u8.hash(state);
                    (x as i64).hash(state);
                } else {
                    2u8.hash(state);
                    x.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
        assert!(Value::Null < Value::Float(f64::NEG_INFINITY));
        assert_eq!(Value::Null.cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn numeric_cross_type_order() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn strings_after_numbers() {
        assert!(Value::Int(999) < Value::str("0"));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::str("a") < Value::str("ab"));
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
    }

    #[test]
    fn eq_implies_same_hash() {
        let pairs = [
            (Value::Int(2), Value::Float(2.0)),
            (Value::str("x"), Value::str("x")),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(h(&a), h(&b), "hash mismatch for {a:?} / {b:?}");
        }
    }

    #[test]
    fn wire_width_accounts_for_string_length() {
        assert_eq!(Value::Null.wire_width(), 1);
        assert_eq!(Value::Int(7).wire_width(), 9);
        assert_eq!(Value::str("abcd").wire_width(), 9);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::str("s").as_int(), None);
        assert!(Value::Null.data_type().is_none());
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
    }

    fn jh(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.join_hash(&mut s);
        s.finish()
    }

    #[test]
    fn join_eq_normalizes_zero_and_nan() {
        let pos0 = Value::Float(0.0);
        let neg0 = Value::Float(-0.0);
        assert!(pos0.join_eq(&neg0));
        assert_eq!(jh(&pos0), jh(&neg0));

        let nan_a = Value::Float(f64::NAN);
        let nan_b = Value::Float(f64::from_bits(f64::NAN.to_bits() | 1));
        assert!(nan_a.join_eq(&nan_b), "NaN payloads must join");
        assert_eq!(jh(&nan_a), jh(&nan_b));
        assert!(!nan_a.join_eq(&Value::Float(1.0)));
    }

    #[test]
    fn join_eq_cross_type_numeric() {
        assert!(Value::Int(2).join_eq(&Value::Float(2.0)));
        assert!(Value::Float(-0.0).join_eq(&Value::Int(0)));
        assert_eq!(jh(&Value::Int(2)), jh(&Value::Float(2.0)));
        assert_eq!(jh(&Value::Int(0)), jh(&Value::Float(-0.0)));
        assert!(!Value::Int(2).join_eq(&Value::Float(2.5)));
        assert!(!Value::Int(2).join_eq(&Value::Float(f64::NAN)));
    }

    #[test]
    fn join_eq_null_never_matches() {
        assert!(!Value::Null.join_eq(&Value::Null));
        assert!(!Value::Null.join_eq(&Value::Int(1)));
        assert!(!Value::str("x").join_eq(&Value::Null));
        assert!(Value::str("x").join_eq(&Value::str("x")));
        assert!(!Value::str("2").join_eq(&Value::Int(2)));
    }

    #[test]
    fn display_roundtrips_visually() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
