//! Row-major records: the native exchange unit of the executor.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// A single record: an ordered list of [`Value`]s matching some schema.
///
/// A row is a window onto a shared immutable slab of values, so `clone`
/// is a reference-count bump: an operator that passes a row through
/// unchanged (scan, filter, sort, limit, shuffle routing) hands it on by
/// pointer. A kernel that builds many rows cuts them out of one slab,
/// one allocation for all of them: a row kernel fills the slab in place
/// a column at a time ([`Row::slab_with`]), a decoder writes it row
/// after row ([`Row::slab`]). A row built on its own
/// ([`Row::from`], `collect`, [`Row::project`], [`Row::concat`]) has a
/// slab of its own. The slab lives while any of its rows does: a prefix
/// or a filter of a kernel's output keeps the whole output's values
/// alive.
///
/// Equality, hashing, order and `Debug` are the values' — where a row's
/// slab starts and what else it holds are not part of it.
///
/// # Examples
///
/// ```
/// use pspp_common::{Row, Value};
/// let r = Row::from(vec![Value::Int(7), Value::from("x")]);
/// assert_eq!(r[0], Value::Int(7));
/// assert_eq!(r.len(), 2);
///
/// let rows = Row::slab(2, [0, 1, 2, 3].map(Value::Int));
/// assert_eq!(rows[1], Row::from(vec![Value::Int(2), Value::Int(3)]));
/// ```
#[derive(Clone, Default)]
pub struct Row {
    slab: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// `rows` rows cut from one slab holding `values`, row after row:
    /// each row takes the next `values.len() / rows` of them. The slab
    /// is written in place when `values` is a `map` over a range or a
    /// `Vec`'s `into_iter` (std's `FromIterator` for `Arc<[T]>` writes
    /// an iterator of trusted length straight into the allocation).
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not divide the number of values, if there
    /// are values but no rows, or if there are more than `u32::MAX`
    /// values or rows.
    pub fn slab<I>(rows: usize, values: I) -> Vec<Row>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let total = values.len();
        if rows == 0 {
            assert_eq!(total, 0, "values but no rows");
            return Vec::new();
        }
        let width = total / rows;
        assert_eq!(width * rows, total, "{total} values in {rows} rows");
        window(total);
        Row::cut(values.collect(), rows, width)
    }

    /// `rows` rows of `width` values cut from one slab that `fill` writes
    /// in place: the slab, row after row, is collected as NULLs straight
    /// into its allocation, handed to `fill` (a slot it leaves alone
    /// stays NULL), and only then cut into rows. A kernel fills slot `c`
    /// of every row a column at a time, staging no column anywhere.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` values or rows.
    pub fn slab_with(rows: usize, width: usize, fill: impl FnOnce(&mut [Value])) -> Vec<Row> {
        // A product that saturates is past any window too.
        let total = window(rows.saturating_mul(width));
        let mut slab: Arc<[Value]> = (0..total).map(|_| Value::Null).collect();
        // The slab has no other owner yet, so this is the slab itself,
        // not a copy.
        fill(Arc::make_mut(&mut slab));
        Row::cut(slab, rows, width)
    }

    /// `slab`, `rows × width` values checked to fit a window, cut into
    /// `rows` rows of `width` values, row after row.
    fn cut(slab: Arc<[Value]>, rows: usize, width: usize) -> Vec<Row> {
        let (rows, width) = (window(rows), window(width));
        (0..rows)
            .map(|r| Row {
                slab: Arc::clone(&slab),
                start: r * width,
                len: width,
            })
            .collect()
    }

    /// The row that is all of `slab`.
    fn whole(slab: Arc<[Value]>) -> Row {
        let len = window(slab.len());
        Row {
            slab,
            start: 0,
            len,
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.slab[self.start as usize..][..self.len as usize]
    }

    /// The value at `idx`, if in bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// A copy of the values.
    pub fn into_values(self) -> Vec<Value> {
        self.values().to_vec()
    }

    /// Whether `self` and `other` are the same window onto the same slab
    /// (one is a clone of the other), not merely equal.
    pub fn ptr_eq(&self, other: &Row) -> bool {
        Arc::ptr_eq(&self.slab, &other.slab) && (self.start, self.len) == (other.start, other.len)
    }

    /// A new row keeping only the columns at `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn project(&self, indices: &[usize]) -> Row {
        let values = self.values();
        indices.iter().map(|&i| values[i].clone()).collect()
    }

    /// Concatenates two rows (join output).
    pub fn concat(&self, right: &Row) -> Row {
        // An iterator of known length collects straight into the one
        // allocation.
        self.iter().chain(right.iter()).cloned().collect()
    }

    /// Total payload bytes (sum of [`Value::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.iter().map(Value::byte_size).sum()
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values().iter()
    }
}

/// The values `cell(r, c)` of a `rows` × `width` grid, row after row:
/// what [`Row::slab`] writes in place.
///
/// ```
/// use pspp_common::{row_major, Row, Value};
/// let rows = Row::slab(2, row_major(2, 3, |r, c| Value::Int((10 * r + c) as i64)));
/// assert_eq!(rows[1][2], Value::Int(12));
/// ```
pub fn row_major(
    rows: usize,
    width: usize,
    mut cell: impl FnMut(usize, usize) -> Value,
) -> impl ExactSizeIterator<Item = Value> {
    let (mut r, mut c) = (0, 0);
    (0..rows * width).map(move |_| {
        let value = cell(r, c);
        (r, c) = if c + 1 == width {
            (r + 1, 0)
        } else {
            (r, c + 1)
        };
        value
    })
}

/// `len` as a window's bound; panics past `u32::MAX`.
fn window(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("a window of {len} values"))
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::whole(values.into())
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::whole(iter.into_iter().collect())
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Row) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Row").field(&self.values()).finish()
    }
}

impl Index<usize> for Row {
    type Output = Value;

    #[inline]
    fn index(&self, idx: usize) -> &Value {
        &self.values()[idx]
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
        self.iter()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.iter().enumerate() {
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

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::hash::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Three rows of two values cut from one slab, and each row's values.
    fn slab_of_three() -> (Vec<Row>, Vec<Vec<Value>>) {
        let values = vec![
            vec![Value::Int(2), Value::from("b")],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::from("a")],
        ];
        let rows = Row::slab(3, values.concat());
        (rows, values)
    }

    #[test]
    fn rows_cut_from_a_slab_are_rows_of_their_values() {
        let (rows, values) = slab_of_three();
        let own: Vec<Row> = values.iter().cloned().map(Row::from).collect();
        assert_eq!(rows, own);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.values(), values[i]);
            assert_eq!(row.len(), 2);
            assert_eq!(hash_of(row), hash_of(&own[i]));
            // What the derives over the old `Row(Arc<[Value]>)` gave.
            let old: Arc<[Value]> = values[i].clone().into();
            assert_eq!(hash_of(row), hash_of(&old));
            assert_eq!(format!("{row:?}"), format!("Row({old:?})"));
            assert_eq!(format!("{row:?}"), format!("{:?}", own[i]));
            assert_eq!(format!("{row:#?}"), format!("{:#?}", own[i]));
            for (j, other) in rows.iter().enumerate() {
                assert_eq!(row.cmp(other), own[i].cmp(&own[j]));
                assert_eq!(row.cmp(other), values[i].cmp(&values[j]));
                assert_eq!(row == other, i == j);
            }
        }
        assert_eq!(format!("{:?}", rows[1]), "Row([Int(1), Null])");
        assert_eq!(rows[2].clone().into_values(), values[2]);
        assert_eq!(rows[0].project(&[1]), row!["b"]);
    }

    #[test]
    fn ptr_eq_is_the_same_window_of_the_same_slab() {
        let (rows, values) = slab_of_three();
        for (i, row) in rows.iter().enumerate() {
            assert!(row.ptr_eq(&row.clone()));
            assert!(!row.ptr_eq(&Row::from(values[i].clone())));
            for (j, other) in rows.iter().enumerate() {
                assert_eq!(row.ptr_eq(other), i == j, "{i} and {j}");
            }
        }
    }

    #[test]
    fn a_slab_of_no_rows_or_of_empty_rows() {
        assert!(Row::slab(0, Vec::new()).is_empty());
        let empty = Row::slab(3, Vec::new());
        assert_eq!(empty, vec![Row::new(); 3]);
        for row in &empty {
            assert!(row.is_empty());
            assert_eq!(hash_of(row), hash_of(&Row::new()));
            assert_eq!(format!("{row:?}"), "Row([])");
            assert_eq!(row.cmp(&Row::new()), Ordering::Equal);
        }
        let grid = Row::slab(0, row_major(0, 4, |_, _| Value::Null));
        assert!(grid.is_empty());
        let grid = Row::slab(2, row_major(2, 0, |_, _| Value::Null));
        assert_eq!(grid, vec![Row::new(); 2]);
    }

    #[test]
    fn a_filled_slab_is_one_slab_cut_into_windows() {
        // Column 0 written, column 2 written a row short, column 1 never.
        let rows = Row::slab_with(3, 3, |slab| {
            assert_eq!(slab.len(), 9);
            assert!(slab.iter().all(Value::is_null));
            for (r, slot) in slab.iter_mut().step_by(3).enumerate() {
                *slot = Value::Int(r as i64);
            }
            for (r, slot) in slab.iter_mut().skip(2).step_by(3).take(2).enumerate() {
                *slot = Value::from(format!("s{r}"));
            }
        });
        let own = vec![
            row![0i64, Value::Null, "s0"],
            row![1i64, Value::Null, "s1"],
            row![2i64, Value::Null, Value::Null],
        ];
        assert_eq!(rows, own);
        for (r, row) in rows.iter().enumerate() {
            assert!(Arc::ptr_eq(&row.slab, &rows[0].slab), "row {r}");
            assert_eq!((row.start, row.len), (3 * r as u32, 3));
            assert_eq!(hash_of(row), hash_of(&own[r]));
        }
        assert_eq!(rows[0].slab.len(), 9);
    }

    #[test]
    fn a_filled_slab_of_no_rows_or_of_empty_rows() {
        let mut seen = None;
        assert!(Row::slab_with(0, 4, |slab| seen = Some(slab.len())).is_empty());
        assert_eq!(seen, Some(0));
        let empty = Row::slab_with(3, 0, |slab| seen = Some(slab.len()));
        assert_eq!(seen, Some(0));
        assert_eq!(empty, vec![Row::new(); 3]);
        for row in &empty {
            assert!(row.is_empty());
            assert_eq!(hash_of(row), hash_of(&Row::new()));
        }
    }

    #[test]
    #[should_panic(expected = "5 values in 2 rows")]
    fn a_slab_cuts_whole_rows() {
        Row::slab(2, vec![Value::Null; 5]);
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
