//! Row-major records: the native exchange unit of the executor.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// A single record: an ordered list of [`Value`]s matching some schema.
///
/// The values live in one shared immutable allocation, so `clone` is a
/// reference-count bump: an operator that passes a row through
/// unchanged (scan, filter, sort, limit, shuffle routing) hands it on by
/// pointer. Operators that change a row's shape ([`Row::project`],
/// [`Row::concat`]) build a new one.
///
/// # Examples
///
/// ```
/// use pspp_common::{Row, Value};
/// let r = Row::from(vec![Value::Int(7), Value::from("x")]);
/// assert_eq!(r[0], Value::Int(7));
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value at `idx`, if in bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// A copy of the values.
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Whether `self` and `other` are the same allocation (one is a
    /// clone of the other), not merely equal.
    pub fn ptr_eq(&self, other: &Row) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A new row keeping only the columns at `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenates two rows (join output).
    pub fn concat(&self, right: &Row) -> Row {
        // An iterator of known length collects straight into the one
        // allocation.
        self.iter().chain(right.iter()).cloned().collect()
    }

    /// Total payload bytes (sum of [`Value::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.0.iter().map(Value::byte_size).sum()
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values.into())
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl Index<usize> for Row {
    type Output = Value;

    #[inline]
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl IntoIterator for Row {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_values().into_iter()
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

/// Convenience macro for building a [`Row`] from heterogeneous literals.
///
/// ```
/// use pspp_common::{row, Row, Value};
/// let r: Row = row![1i64, "abc", 2.5];
/// assert_eq!(r.len(), 3);
/// assert_eq!(r[1], Value::from("abc"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let r = row![1i64, "a", 2.0];
        assert_eq!(r.project(&[2, 0]), row![2.0, 1i64]);
        let s = r.concat(&row![true]);
        assert_eq!(s.len(), 4);
        assert_eq!(s[3], Value::Bool(true));
    }

    #[test]
    fn macro_in_function_scope() {
        let r = row![42i64];
        assert_eq!(r[0].as_i64(), Some(42));
    }

    #[test]
    fn byte_size_sums_values() {
        assert_eq!(row![1i64, "abc"].byte_size(), 8 + 3);
    }

    #[test]
    fn iteration() {
        let r = row![1i64, 2i64];
        let total: i64 = r.iter().filter_map(Value::as_i64).sum();
        assert_eq!(total, 3);
        let owned: Vec<Value> = r.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }
}
