//! Dynamically typed scalar values exchanged between engines.

use std::cmp::Ordering;
use std::fmt;

/// The scalar type of a [`Value`] / a column in a [`crate::Schema`].
///
/// # Examples
///
/// ```
/// use pspp_common::{DataType, Value};
/// assert_eq!(Value::Int(3).data_type(), Some(DataType::Int));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// Signed 64-bit integer.
    Int,
    /// IEEE-754 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw byte array.
    Bytes,
    /// Microseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// Whether values of this type are numeric (castable to `f64`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Timestamp)
    }

    /// All supported types, in a stable order.
    pub fn all() -> [DataType; 6] {
        [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bytes,
            DataType::Timestamp,
        ]
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bytes => "bytes",
            DataType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Value` is the unit of data exchanged across engine boundaries: the CAST
/// layer of the paper's architecture maps every native representation into
/// and out of this type. A total order is defined (nulls first, then by
/// type, floats by IEEE total order) so values can be used as sort keys in
/// any engine.
///
/// # Examples
///
/// ```
/// use pspp_common::Value;
/// let v = Value::from(2.5);
/// assert_eq!(v.as_f64(), Some(2.5));
/// assert!(Value::Null < v);
/// ```
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Absent / SQL NULL.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The [`DataType`] of this value, or `None` for [`Value::Null`].
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Whether this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload (`Int` or `Timestamp`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// A numeric view: `Int`, `Float` and `Timestamp` cast to `f64`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The byte payload, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Approximate in-memory size of the payload in bytes.
    ///
    /// Used by every cost model to account for bytes moved; must therefore
    /// stay cheap and deterministic.
    #[inline]
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }

    /// Lossy cast to `target`, following SQL-ish coercion rules.
    ///
    /// Returns `None` when the cast is not meaningful (e.g. `Bytes -> Int`).
    /// `Null` casts to `Null` of any type.
    pub fn cast(&self, target: DataType) -> Option<Value> {
        if self.is_null() {
            return Some(Value::Null);
        }
        match (self, target) {
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Int(v), DataType::Float) => Some(Value::Float(*v as f64)),
            (Value::Int(v), DataType::Timestamp) => Some(Value::Timestamp(*v)),
            (Value::Int(v), DataType::Bool) => Some(Value::Bool(*v != 0)),
            (Value::Int(v), DataType::Str) => Some(Value::Str(v.to_string())),
            (Value::Float(v), DataType::Int) => Some(Value::Int(*v as i64)),
            (Value::Float(v), DataType::Str) => Some(Value::Str(v.to_string())),
            (Value::Timestamp(v), DataType::Int) => Some(Value::Int(*v)),
            (Value::Timestamp(v), DataType::Float) => Some(Value::Float(*v as f64)),
            (Value::Bool(v), DataType::Int) => Some(Value::Int(i64::from(*v))),
            (Value::Bool(v), DataType::Str) => Some(Value::Str(v.to_string())),
            (Value::Str(s), DataType::Int) => s.trim().parse().ok().map(Value::Int),
            (Value::Str(s), DataType::Float) => s.trim().parse().ok().map(Value::Float),
            (Value::Str(s), DataType::Bool) => match s.as_str() {
                "true" | "t" | "1" => Some(Value::Bool(true)),
                "false" | "f" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            (Value::Str(s), DataType::Bytes) => Some(Value::Bytes(s.clone().into_bytes())),
            (Value::Bytes(b), DataType::Str) => String::from_utf8(b.clone()).ok().map(Value::Str),
            _ => None,
        }
    }

    /// The value borrowed: what it orders, compares and hashes as.
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
            Value::Timestamp(t) => ValueRef::Timestamp(*t),
        }
    }
}

/// A [`Value`] borrowed — a cell read out of a row, or out of a column
/// image without building the value: a string or byte array by
/// reference, anything else by copy. It orders, compares and hashes as
/// the value it views; [`Value`]'s own `Ord` and `Hash` are these.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// Absent / SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Raw bytes.
    Bytes(&'a [u8]),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl ValueRef<'_> {
    /// The value viewed, owned.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
            ValueRef::Timestamp(t) => Value::Timestamp(t),
        }
    }

    /// Whether this is NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// [`Value::as_f64`].
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(v) | ValueRef::Timestamp(v) => Some(v as f64),
            ValueRef::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Rank used to order values of different types; nulls sort first.
    fn type_rank(self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) => 2,
            ValueRef::Float(_) => 2, // ints and floats compare numerically
            ValueRef::Timestamp(_) => 3,
            ValueRef::Str(_) => 4,
            ValueRef::Bytes(_) => 5,
        }
    }
}

impl PartialEq for ValueRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use ValueRef::*;
        match (*self, *other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Timestamp(a), Timestamp(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for ValueRef<'_> {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Values that compare equal hash alike. Across variants that is
        // `Int(1) == Float(1.0)`: `cmp` casts the int to `f64`, so an
        // int hashes as the whole number its cast holds, and a float
        // holding a whole number hashes as that int. (A float's bit
        // pattern would serve as well, but the floats of small ints
        // differ in a few high bits only, which a multiplicative hasher
        // folds into few buckets.) Who relies on it: `relstore::ops`'
        // join and grouping maps, which can meet both kinds under one
        // key. Every other float hashes its bit pattern, as `eq`'s
        // `total_cmp` compares it.
        let whole = match *self {
            ValueRef::Int(v) => Some((v as f64) as i64),
            ValueRef::Float(x) if (x as i64) as f64 == x => Some(x as i64),
            _ => None,
        };
        if let Some(whole) = whole {
            std::mem::discriminant(&ValueRef::Int(0)).hash(state);
            return whole.hash(state);
        }
        std::mem::discriminant(self).hash(state);
        match self {
            ValueRef::Null => {}
            ValueRef::Bool(b) => b.hash(state),
            ValueRef::Int(v) | ValueRef::Timestamp(v) => v.hash(state),
            ValueRef::Float(v) => v.to_bits().hash(state),
            ValueRef::Str(s) => s.hash(state),
            ValueRef::Bytes(b) => b.hash(state),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.view().cmp(&other.view())
    }
}

impl std::hash::Hash for Value {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_roundtrip() {
        for (v, t) in [
            (Value::Bool(true), DataType::Bool),
            (Value::Int(1), DataType::Int),
            (Value::Float(1.5), DataType::Float),
            (Value::from("x"), DataType::Str),
            (Value::Bytes(vec![1]), DataType::Bytes),
            (Value::Timestamp(7), DataType::Timestamp),
        ] {
            assert_eq!(v.data_type(), Some(t));
        }
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Int(-5)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(-5));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn equal_values_hash_alike_across_int_and_float() {
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        // Whole floats and the ints they equal, the ends of `i64` (whose
        // casts round to ±2^63) and an int the cast rounds.
        let big = (1i64 << 53) + 1;
        for v in [0, 1, -7, big, i64::MIN, i64::MAX] {
            let (i, f) = (Value::Int(v), Value::Float(v as f64));
            assert_eq!(i, f);
            assert_eq!(h(&i), h(&f), "{v}");
        }
        assert_ne!(h(&Value::Float(0.5)), h(&Value::Float(1.5)));
        assert_ne!(h(&Value::Float(f64::NAN)), h(&Value::Float(f64::INFINITY)));
        assert_ne!(h(&Value::Int(1)), h(&Value::Timestamp(1)));
    }

    #[test]
    fn strings_order_by_their_bytes() {
        // Not by length: a longer string can come first.
        assert!(Value::from("aé") < Value::from("é"));
        assert!(Value::from("aa") < Value::from("b"));
        assert!(Value::from("") < Value::from("a"));
        assert!(Value::from("a") < Value::from("ab"));
        assert_eq!(Value::from("é").view(), ValueRef::Str("é"));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let mut vs = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(f64::NEG_INFINITY),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Float(f64::NEG_INFINITY));
        assert_eq!(vs[1], Value::Float(1.0));
    }

    #[test]
    fn casts() {
        assert_eq!(Value::Int(3).cast(DataType::Float), Some(Value::Float(3.0)));
        assert_eq!(Value::from("42").cast(DataType::Int), Some(Value::Int(42)));
        assert_eq!(Value::from("x").cast(DataType::Int), None);
        assert_eq!(Value::Null.cast(DataType::Int), Some(Value::Null));
        assert_eq!(Value::Bool(true).cast(DataType::Int), Some(Value::Int(1)));
        assert_eq!(Value::Bytes(vec![0xff]).cast(DataType::Int), None);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::from("abc").byte_size(), 3);
        assert_eq!(Value::Null.byte_size(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Str(String::new()),
            Value::Bytes(vec![]),
            Value::Timestamp(0),
        ] {
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn from_option() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }
}
