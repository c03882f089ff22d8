//! Column-major batches: the data migrator's exchange unit and a
//! relational table's data.
//!
//! PipeGen-style binary pipes (§III-A.3) get their speedup from typed,
//! columnar buffers that can be memcpy-serialized. [`Batch`] is that format:
//! one typed [`Column`] per field plus a validity mask for NULLs. The
//! receiving engine keeps the decoded batch as it is: a table holds its
//! rows as one, and a migrated input is read off one.
//!
//! A table's batch also keeps, per column, a [`KeyIndex`] once a hash
//! join has built one on the whole column ([`Batch::key_index`]), and a
//! [`HashLayout`] for each width a routed scan has asked for
//! ([`Batch::hash_layout`]), so that the next join or shuffle over the
//! same snapshot reads them instead of hashing the column again; a write
//! drops them.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::value::{DataType, Value, ValueRef};
use crate::{
    ColumnSource, Error, Field, FxBuildHasher, HashLayout, HashRouter, Result, Row, Schema,
};

/// UTF-8 strings held end to end in one buffer, string `i` ending at
/// byte `ends[i]` of it and starting where string `i - 1` ends: a
/// column of strings is two allocations, however many rows it holds,
/// and a string is read out of it in place.
#[derive(Clone, Default, PartialEq)]
pub struct StrColumn {
    buf: String,
    ends: Vec<usize>,
}

impl StrColumn {
    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// String `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.buf[start..self.ends[i]]
    }

    /// Byte length of string `i`, read off the offsets alone.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn byte_len(&self, i: usize) -> usize {
        self.ends[i] - i.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    /// Appends `s`.
    #[inline]
    pub fn push(&mut self, s: &str) {
        self.buf.push_str(s);
        self.ends.push(self.buf.len());
    }

    /// The strings, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Bytes of all the strings together.
    pub fn byte_size(&self) -> usize {
        self.buf.len()
    }

    /// Appends `more`'s strings.
    fn append(&mut self, more: &StrColumn) {
        let base = self.buf.len();
        self.buf.push_str(&more.buf);
        self.ends.extend(more.ends.iter().map(|end| base + end));
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(strings: I) -> Self {
        let mut column = StrColumn::default();
        strings.into_iter().for_each(|s| column.push(s.as_ref()));
        column
    }
}

impl fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A typed column of values; [`TypedColumn`] pairs it with its validity
/// flags.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// UTF-8 strings, in one buffer.
    Str(StrColumn),
    /// Byte arrays.
    Bytes(Vec<Vec<u8>>),
    /// Timestamps (µs since epoch).
    Timestamp(Vec<i64>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(data_type: DataType) -> Column {
        match data_type {
            DataType::Bool => Column::Bool(vec![]),
            DataType::Int => Column::Int(vec![]),
            DataType::Float => Column::Float(vec![]),
            DataType::Str => Column::Str(StrColumn::default()),
            DataType::Bytes => Column::Bytes(vec![]),
            DataType::Timestamp => Column::Timestamp(vec![]),
        }
    }

    /// The column's [`DataType`].
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bytes(_) => DataType::Bytes,
            Column::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bytes(v) => v.len(),
            Column::Timestamp(v) => v.len(),
        }
    }

    /// Whether the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx` as a [`Value`]. Ignores validity; see
    /// [`Batch::value`] for the null-aware accessor.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn value(&self, idx: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[idx]),
            Column::Int(v) => Value::Int(v[idx]),
            Column::Float(v) => Value::Float(v[idx]),
            Column::Str(v) => Value::Str(v.get(idx).to_owned()),
            Column::Bytes(v) => Value::Bytes(v[idx].clone()),
            Column::Timestamp(v) => Value::Timestamp(v[idx]),
        }
    }

    /// [`Column::value`] borrowed: a string or byte array read in place.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn view(&self, idx: usize) -> ValueRef<'_> {
        match self {
            Column::Bool(v) => ValueRef::Bool(v[idx]),
            Column::Int(v) => ValueRef::Int(v[idx]),
            Column::Float(v) => ValueRef::Float(v[idx]),
            Column::Str(v) => ValueRef::Str(v.get(idx)),
            Column::Bytes(v) => ValueRef::Bytes(&v[idx]),
            Column::Timestamp(v) => ValueRef::Timestamp(v[idx]),
        }
    }

    /// The entries at `at`, in that order; panics at an index out of
    /// bounds.
    fn gather(&self, at: impl Iterator<Item = usize>) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(at.map(|p| v[p]).collect()),
            Column::Int(v) => Column::Int(at.map(|p| v[p]).collect()),
            Column::Float(v) => Column::Float(at.map(|p| v[p]).collect()),
            Column::Str(v) => Column::Str(at.map(|p| v.get(p)).collect()),
            Column::Bytes(v) => Column::Bytes(at.map(|p| v[p].clone()).collect()),
            Column::Timestamp(v) => Column::Timestamp(at.map(|p| v[p]).collect()),
        }
    }

    /// Writes the entries at `at` as values into `slots` (say
    /// `slab.iter_mut().skip(c).step_by(width)`), in that order, leaving
    /// a slot alone where `valid` is clear: the variant is matched once,
    /// and then one typed loop writes the column.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds of the column or of `valid`.
    pub fn values_into<'s>(
        &self,
        valid: &[bool],
        at: impl Iterator<Item = usize>,
        slots: impl Iterator<Item = &'s mut Value>,
    ) {
        fn write<'s>(
            valid: &[bool],
            cells: impl Iterator<Item = (usize, &'s mut Value)>,
            value: impl Fn(usize) -> Value,
        ) {
            for (p, slot) in cells {
                if valid[p] {
                    *slot = value(p);
                }
            }
        }
        let cells = at.zip(slots);
        match self {
            Column::Bool(v) => write(valid, cells, |p| Value::Bool(v[p])),
            Column::Int(v) => write(valid, cells, |p| Value::Int(v[p])),
            Column::Float(v) => write(valid, cells, |p| Value::Float(v[p])),
            Column::Str(v) => write(valid, cells, |p| Value::Str(v.get(p).to_owned())),
            Column::Bytes(v) => write(valid, cells, |p| Value::Bytes(v[p].clone())),
            Column::Timestamp(v) => write(valid, cells, |p| Value::Timestamp(v[p])),
        }
    }

    /// Adds each entry's [`Value::byte_size`] (1 where `valid` is clear:
    /// a NULL) to its row's width; returns whether a width overflowed.
    fn add_widths(&self, valid: &[bool], widths: &mut [u32]) -> bool {
        fn add(widths: &mut [u32], bytes: impl Iterator<Item = usize>) -> bool {
            let mut overflow = false;
            for (w, bytes) in widths.iter_mut().zip(bytes) {
                let (sum, over) = w.overflowing_add(bytes as u32);
                overflow |= over | (bytes > u32::MAX as usize);
                *w = sum;
            }
            overflow
        }
        let or_null = |width: usize, &v: &bool| if v { width } else { 1 };
        match self {
            Column::Bool(_) => add(widths, valid.iter().map(|_| 1)),
            Column::Int(_) | Column::Float(_) | Column::Timestamp(_) => {
                add(widths, valid.iter().map(|v| or_null(8, v)))
            }
            Column::Str(s) => add(
                widths,
                s.iter().zip(valid).map(|(s, v)| or_null(s.len(), v)),
            ),
            Column::Bytes(b) => add(
                widths,
                b.iter().zip(valid).map(|(b, v)| or_null(b.len(), v)),
            ),
        }
    }

    /// Appends `more`'s entries; returns `false` (and appends nothing)
    /// when it is of another type.
    fn append(&mut self, more: Column) -> bool {
        match (self, more) {
            (Column::Bool(v), Column::Bool(m)) => v.extend(m),
            (Column::Int(v), Column::Int(m)) | (Column::Timestamp(v), Column::Timestamp(m)) => {
                v.extend(m);
            }
            (Column::Float(v), Column::Float(m)) => v.extend(m),
            (Column::Str(v), Column::Str(m)) => v.append(&m),
            (Column::Bytes(v), Column::Bytes(m)) => v.extend(m),
            _ => return false,
        }
        true
    }

    /// Appends `value`, coercing `Null` to the type's default.
    ///
    /// Returns `false` (and appends nothing) on a type mismatch.
    pub fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (Column::Bool(v), Value::Bool(b)) => v.push(*b),
            (Column::Bool(v), Value::Null) => v.push(false),
            (Column::Int(v), Value::Int(x)) => v.push(*x),
            (Column::Int(v), Value::Null) => v.push(0),
            (Column::Float(v), Value::Float(x)) => v.push(*x),
            (Column::Float(v), Value::Null) => v.push(0.0),
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (Column::Str(v), Value::Null) => v.push(""),
            (Column::Bytes(v), Value::Bytes(b)) => v.push(b.clone()),
            (Column::Bytes(v), Value::Null) => v.push(Vec::new()),
            (Column::Timestamp(v), Value::Timestamp(t)) => v.push(*t),
            (Column::Timestamp(v), Value::Null) => v.push(0),
            _ => return false,
        }
        true
    }

    /// Payload bytes held by the column.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) | Column::Timestamp(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Str(v) => v.byte_size(),
            Column::Bytes(v) => v.iter().map(Vec::len).sum(),
        }
    }

    /// Borrow as `&[i64]` when the column is `Int`.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f64]` when the column is `Float`.
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the strings when the column is `Str`.
    pub fn as_str(&self) -> Option<&StrColumn> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// One typed column: the values (a NULL holds the type's default: `0`,
/// `false`, the empty string or byte array) and, per row, whether the
/// value is not NULL.
pub type TypedColumn = (Column, Vec<bool>);

/// Rows held column-major: a schema, one [`TypedColumn`] per field, and
/// every row's payload bytes; row `r` is entry `r` of each. The
/// migrator's frame (§III-A.3) is encoded from one and decoded into one,
/// and a relational table's data is one.
///
/// # Examples
///
/// ```
/// use pspp_common::{Batch, Schema, DataType, row};
/// let schema = Schema::new(vec![("a", DataType::Int), ("b", DataType::Float)]);
/// let batch = Batch::from_rows(&schema, vec![row![1i64, 0.5], row![2i64, 1.5]]).unwrap();
/// assert_eq!(batch.column(0).as_int().unwrap(), &[1, 2]);
/// assert_eq!(batch.widths(), &[16, 16]);
/// ```
///
/// A batch made with [`Batch::keeping_key_indexes`] — a table's data —
/// keeps, per column, the [`KeyIndex`] once one is built
/// ([`Batch::key_index`]) and the [`HashLayout`] of each width a routed
/// scan asked for ([`Batch::hash_layout`]), until the next write
/// ([`Batch::push_row`]). A clone starts with none, and `==` and `Debug`
/// read the rows alone.
pub struct Batch {
    schema: Schema,
    columns: Vec<TypedColumn>,
    /// [`Row::byte_size`] of every row, by position.
    widths: Vec<u32>,
    /// One cache per column, filled on first use and emptied by every
    /// write; `None` for a batch that keeps none. A thread that panics
    /// holding a layout lock leaves the list whole (each update is one
    /// push or one clear), so a poisoned lock is read through.
    kept: Option<Box<[ColumnCache]>>,
}

/// What a batch keeps of one column until its next write.
#[derive(Default)]
struct ColumnCache {
    /// The column's key index once built, or `None` when the column
    /// cannot have one.
    key_index: OnceLock<Option<KeyIndex>>,
    /// The column's hash layouts, at most one per width, in the order
    /// they were built.
    layouts: RwLock<Vec<Arc<HashLayout>>>,
}

fn caches(columns: usize) -> Box<[ColumnCache]> {
    (0..columns).map(|_| ColumnCache::default()).collect()
}

impl Clone for Batch {
    /// The same rows, nothing kept yet: the copy of a batch that keeps
    /// key indexes and layouts keeps them too, built on first use.
    fn clone(&self) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            widths: self.widths.clone(),
            kept: self.kept.as_ref().map(|kept| caches(kept.len())),
        }
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        self.schema == other.schema && self.columns == other.columns && self.widths == other.widths
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Batch")
            .field("schema", &self.schema)
            .field("columns", &self.columns)
            .field("widths", &self.widths)
            .finish()
    }
}

/// Past the last row of a [`KeyIndex`] chain.
const CHAIN_END: u32 = u32::MAX;

/// A hash index of one key column: the first row holding each key, and
/// for each row the next row holding its key, so that a key's rows form
/// a chain in row order ([`KeyIndex::rows`]) and no list is allocated
/// per key. Rows are `u32`s, as a selection's positions are. A hash join
/// builds one over its build side's keys for one call; a table's
/// snapshot keeps one per join column across calls
/// ([`Batch::key_index`]).
pub struct KeyIndex<K = u64> {
    first: HashMap<K, u32, FxBuildHasher>,
    next: Vec<u32>,
}

impl<K: Hash + Eq> KeyIndex<K> {
    /// The index of `keys`, row `r`'s key the `r`-th; a `None` key (a
    /// NULL) is in no chain.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for `u32::MAX` keys or more.
    pub fn build<I>(keys: I) -> KeyIndex<K>
    where
        I: IntoIterator<Item = Option<K>>,
        I::IntoIter: DoubleEndedIterator + ExactSizeIterator,
    {
        let keys = keys.into_iter();
        debug_assert!(keys.len() < CHAIN_END as usize, "a u32 row per key");
        let mut next = vec![CHAIN_END; keys.len()];
        let mut first = HashMap::with_capacity_and_hasher(keys.len(), FxBuildHasher::default());
        // Last row first: each row becomes its key's first and points at
        // the row that was, so every chain runs in row order.
        for (row, key) in keys.enumerate().rev() {
            let Some(key) = key else { continue };
            if let Some(after) = first.insert(key, row as u32) {
                next[row] = after;
            }
        }
        KeyIndex { first, next }
    }

    /// The rows holding `key`, in row order.
    pub fn rows(&self, key: &K) -> impl Iterator<Item = u32> + '_ {
        let first = self.first.get(key).copied();
        std::iter::successors(first, |&row| {
            Some(self.next[row as usize]).filter(|&row| row != CHAIN_END)
        })
    }
}

impl Batch {
    /// No rows of `schema` yet: what [`Batch::push_row`] appends to.
    pub fn empty(schema: Schema) -> Batch {
        let columns = (schema.fields().iter())
            .map(|f| (Column::empty(f.data_type), Vec::new()))
            .collect();
        Batch {
            schema,
            columns,
            widths: Vec::new(),
            kept: None,
        }
    }

    /// This batch, keeping the key index of a column once one is built
    /// ([`Batch::key_index`]) and its hash layout at each width asked for
    /// ([`Batch::hash_layout`]): a table's data, which join after join
    /// and shuffle after shuffle read. A batch that lives for one query,
    /// such as a migrated input, keeps none.
    pub fn keeping_key_indexes(mut self) -> Batch {
        self.kept = Some(caches(self.columns.len()));
        self
    }

    /// Whether the batch keeps key indexes and hash layouts
    /// ([`Batch::keeping_key_indexes`]).
    pub fn keeps_key_indexes(&self) -> bool {
        self.kept.is_some()
    }

    /// Column `c`'s key index: the one this batch keeps, or, on the first
    /// call that asks for it, the one `build` makes out of the column,
    /// then kept until the next write. `None` when the batch keeps no
    /// index, or `build` made none for the column (that is kept too, so
    /// it is not asked again). Concurrent first calls build it once.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn key_index(
        &self,
        c: usize,
        build: impl FnOnce(&TypedColumn) -> Option<KeyIndex>,
    ) -> Option<&KeyIndex> {
        let slot = &self.kept.as_ref()?[c].key_index;
        slot.get_or_init(|| build(&self.columns[c])).as_ref()
    }

    /// Whether column `c` has a key index now.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn has_key_index(&self, c: usize) -> bool {
        let slot = self.kept.as_ref().and_then(|kept| kept[c].key_index.get());
        slot.is_some_and(Option::is_some)
    }

    /// Column `c`'s hash layout over `router`'s destinations: the one
    /// this batch keeps at that width, or, on the first call that asks
    /// for it, the one [`HashLayout::of`] makes out of the column, then
    /// kept until the next write. A batch that keeps none makes one for
    /// the call alone. Concurrent first calls may each make one; the
    /// first kept is the one every later call gets.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn hash_layout(&self, c: usize, router: HashRouter) -> Arc<HashLayout> {
        let Some(cache) = self.kept.as_ref().map(|kept| &kept[c]) else {
            return Arc::new(HashLayout::of(router, &self.columns[c]));
        };
        let at_width = |layouts: &[Arc<HashLayout>]| {
            let kept = layouts.iter().find(|l| l.width() == router.width());
            kept.map(Arc::clone)
        };
        let read = cache.layouts.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(layout) = at_width(&read) {
            return layout;
        }
        drop(read);
        let layout = Arc::new(HashLayout::of(router, &self.columns[c]));
        let mut layouts = cache
            .layouts
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(first) = at_width(&layouts) {
            return first;
        }
        layouts.push(Arc::clone(&layout));
        layout
    }

    /// What `find` makes of the first of column `c`'s kept hash layouts
    /// it makes something of, in the order they were built: `None` when
    /// it makes nothing of any, or the batch keeps none.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn find_hash_layout<T>(
        &self,
        c: usize,
        find: impl FnMut(&Arc<HashLayout>) -> Option<T>,
    ) -> Option<T> {
        let layouts = &self.kept.as_ref()?[c].layouts;
        let layouts = layouts.read().unwrap_or_else(PoisonError::into_inner);
        layouts.iter().find_map(find)
    }

    /// Whether column `c` has a hash layout over `width` destinations
    /// now.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn has_hash_layout(&self, c: usize, width: usize) -> bool {
        let at_width = |layout: &Arc<HashLayout>| (layout.width() == width).then_some(());
        self.find_hash_layout(c, at_width).is_some()
    }

    /// Empties every column's cache: the rows are about to change.
    fn drop_kept(&mut self) {
        for cache in self.kept.iter_mut().flat_map(|kept| kept.iter_mut()) {
            cache.key_index.take();
            let layouts = cache.layouts.get_mut();
            layouts.unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Appends a row whose values satisfy the schema (see
    /// [`Schema::check_row`]) and its [`Row::byte_size`], `width`.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity is not the schema's or a value is of
    /// another type than its column.
    pub fn push_row(&mut self, values: &[Value], width: u32) {
        assert_eq!(values.len(), self.columns.len(), "a checked row");
        self.drop_kept();
        for ((column, valid), value) in self.columns.iter_mut().zip(values) {
            assert!(column.push(value), "a checked row holds its columns' types");
            valid.push(!value.is_null());
        }
        self.widths.push(width);
    }

    /// `num_rows` rows of `columns` under `schema`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] when the columns are not one per
    /// field, each of its field's type and `num_rows` long, and
    /// [`Error::Invalid`] for a row of more payload bytes than a `u32`
    /// counts.
    pub fn from_typed(schema: Schema, num_rows: usize, columns: Vec<TypedColumn>) -> Result<Batch> {
        let fits = |(field, (values, valid)): (&Field, &TypedColumn)| {
            values.data_type() == field.data_type
                && values.len() == num_rows
                && valid.len() == num_rows
        };
        if columns.len() != schema.arity() || !schema.fields().iter().zip(&columns).all(fits) {
            return Err(Error::SchemaMismatch(format!(
                "{} columns of {num_rows} rows under {schema:?}",
                columns.len()
            )));
        }
        let mut widths = vec![0u32; num_rows];
        let mut overflow = false;
        for (values, valid) in &columns {
            overflow |= values.add_widths(valid, &mut widths);
        }
        if overflow {
            return Err(Error::Invalid("row payload bytes exceed u32::MAX".into()));
        }
        Ok(Batch {
            schema,
            columns,
            widths,
            kept: None,
        })
    }

    /// Builds a batch from rows, validating each against `schema`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any row violates the schema.
    pub fn from_rows(schema: &Schema, rows: Vec<Row>) -> Result<Batch> {
        let every: Vec<usize> = (0..schema.arity()).collect();
        Batch::from_columns(schema, &rows, &every)
    }

    /// A batch of the columns of `rows` at positions `keep` (in that
    /// order, under `schema`'s fields there): the columns a migration
    /// ships when its consumers read only some. Every row's arity and
    /// every kept value's type and nullability are checked as
    /// [`Batch::from_rows`] checks them; a column left out is never
    /// read. [`Batch::from_source`] over every row of `rows`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if a row's arity is not
    /// `schema`'s or a kept value violates its field.
    ///
    /// # Panics
    ///
    /// Panics if a position in `keep` is out of `schema`'s bounds.
    pub fn from_columns(schema: &Schema, rows: &[Row], keep: &[usize]) -> Result<Batch> {
        Batch::from_source(schema, ColumnSource::Rows(rows), None, keep, None)
    }

    /// A batch of columns `keep` of the rows of `source` at `positions`
    /// (every row, in order, when `None`), under `schema`'s fields
    /// there: the batch [`Batch::from_columns`] makes of the rows read,
    /// and an error where it makes none. A column at a time: out of an
    /// image, a column is copied at the positions, its cleared validity
    /// flags the NULLs; out of rows, each row read is checked for
    /// `schema`'s arity and read a value at a time. With `through`, the
    /// rows read are a projection of `source`'s image — `schema`'s
    /// column `c` is the image's column `through[c]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if a row's arity is not
    /// `schema`'s or a kept value violates its field: a wrong arity
    /// before any value, then the first violation of the first kept
    /// column, in `keep` order, that has one.
    ///
    /// # Panics
    ///
    /// Panics if a position in `keep` is out of `schema`'s bounds, a
    /// position in `positions` out of `source`'s, or a column `through`
    /// names past `source`'s.
    pub fn from_source(
        schema: &Schema,
        source: ColumnSource<'_>,
        positions: Option<&[u32]>,
        keep: &[usize],
        through: Option<&[usize]>,
    ) -> Result<Batch> {
        let num_rows = positions.map_or(source.len(), <[u32]>::len);
        let at = |i: usize| positions.map_or(i, |p| p[i] as usize);
        if let ColumnSource::Rows(rows) = source {
            let arity = |i: usize| rows[at(i)].len();
            if let Some(got) = (0..num_rows).map(arity).find(|&n| n != schema.arity()) {
                return Err(Error::SchemaMismatch(format!(
                    "expected {} columns, got {got}",
                    schema.arity()
                )));
            }
        }
        let fields: Vec<Field> = keep.iter().map(|&c| schema.fields()[c].clone()).collect();
        let mut columns = Vec::with_capacity(keep.len());
        for (&c, field) in keep.iter().zip(&fields) {
            let c = through.map_or(c, |columns| columns[c]);
            let null = || Error::SchemaMismatch(format!("null in not-null column {}", field.name));
            let mismatch = |value: &Value| {
                Error::SchemaMismatch(format!(
                    "column {} expects {}, got {value:?}",
                    field.name, field.data_type
                ))
            };
            let rows = match source {
                ColumnSource::Image(image) => {
                    let (values, valid) = &image.columns[c];
                    let flags: Vec<bool> = (0..num_rows).map(|i| valid[at(i)]).collect();
                    if !field.nullable && flags.contains(&false) {
                        return Err(null());
                    }
                    if values.data_type() != field.data_type {
                        if let Some(i) = flags.iter().position(|&v| v) {
                            return Err(mismatch(&values.value(at(i))));
                        }
                    }
                    columns.push((values.gather((0..num_rows).map(at)), flags));
                    continue;
                }
                ColumnSource::Rows(rows) => rows,
            };
            let mut column = Column::empty(field.data_type);
            let mut flags = Vec::with_capacity(num_rows);
            for i in 0..num_rows {
                let value = &rows[at(i)][c];
                if value.is_null() && !field.nullable {
                    return Err(null());
                }
                if !column.push(value) {
                    return Err(mismatch(value));
                }
                flags.push(!value.is_null());
            }
            columns.push((column, flags));
        }
        Batch::from_typed(Schema::from_fields(fields), num_rows, columns)
    }

    /// The rows of `parts`, one batch after another.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for no batch, and
    /// [`Error::SchemaMismatch`] when two batches differ in schema or in
    /// a column's type.
    pub fn concat(parts: Vec<Batch>) -> Result<Batch> {
        let mut parts = parts.into_iter();
        let mut out = parts
            .next()
            .ok_or_else(|| Error::Invalid("a concatenation of no batches".into()))?;
        // A batch made of others keeps nothing.
        out.kept = None;
        for part in parts {
            let mismatch = || Error::SchemaMismatch("batches of two shapes".into());
            if part.schema != out.schema {
                return Err(mismatch());
            }
            for ((column, valid), (more, more_valid)) in out.columns.iter_mut().zip(part.columns) {
                if !column.append(more) {
                    return Err(mismatch());
                }
                valid.extend(more_valid);
            }
            out.widths.extend(part.widths);
        }
        Ok(out)
    }

    /// The rows at `order`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if an index in `order` is out of bounds.
    pub fn take(&self, order: &[usize]) -> Batch {
        let at = || order.iter().copied();
        Batch {
            schema: self.schema.clone(),
            columns: (self.columns.iter())
                .map(|(values, valid)| (values.gather(at()), at().map(|i| valid[i]).collect()))
                .collect(),
            widths: at().map(|i| self.widths[i]).collect(),
            kept: None,
        }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.widths.len()
    }

    /// Whether the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// The columns, one per field.
    #[inline]
    pub fn columns(&self) -> &[TypedColumn] {
        &self.columns
    }

    /// The values of the column at position `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c].0
    }

    /// [`Row::byte_size`] of every row, by position.
    #[inline]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Null-aware accessor for cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, row: usize, col: usize) -> Value {
        let (values, valid) = &self.columns[col];
        if valid[row] {
            values.value(row)
        } else {
            Value::Null
        }
    }

    /// Converts back to row-major form: rows of one slab, filled a
    /// column at a time.
    pub fn to_rows(&self) -> Vec<Row> {
        let (rows, width) = (self.num_rows(), self.columns.len());
        Row::slab_with(rows, width, |slab| {
            for (c, (values, valid)) in self.columns.iter().enumerate() {
                let slots = slab.iter_mut().skip(c).step_by(width);
                values.values_into(valid, 0..rows, slots);
            }
        })
    }

    /// Total payload bytes across columns (excludes validity overhead;
    /// a NULL counts its default's bytes).
    pub fn byte_size(&self) -> usize {
        self.columns
            .iter()
            .map(|(values, _)| values.byte_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("w", DataType::Float),
        ])
    }

    /// A slab of two-wide rows, every slot `sentinel`; writes
    /// `column`'s entries at `at` into slot 1 of each row and returns
    /// the slab.
    fn into_slot_one(column: &Column, valid: &[bool], at: &[usize]) -> Vec<Value> {
        let sentinel = Value::from("untouched");
        let mut slab = vec![sentinel; 2 * at.len()];
        let slots = slab.iter_mut().skip(1).step_by(2);
        column.values_into(valid, at.iter().copied(), slots);
        slab
    }

    #[test]
    fn values_into_writes_each_variant_a_stride_apart_and_skips_nulls() {
        let untouched = Value::from("untouched");
        let columns = [
            Column::Bool(vec![true, false, true]),
            Column::Int(vec![7, -1, i64::MIN]),
            Column::Float(vec![-0.0, f64::INFINITY, 2.5]),
            Column::Str(["a", "", "ccc"].into_iter().collect()),
            Column::Bytes(vec![vec![1], vec![], vec![2, 3]]),
            Column::Timestamp(vec![0, 5, -9]),
        ];
        // Entry 1 is NULL; entry 2 is read twice, out of order.
        let (valid, at) = ([true, false, true], [2, 1, 0, 2]);
        for column in &columns {
            let slab = into_slot_one(column, &valid, &at);
            for (k, &p) in at.iter().enumerate() {
                let want = if valid[p] {
                    column.value(p)
                } else {
                    untouched.clone()
                };
                assert_eq!(slab[2 * k + 1], want, "{column:?} read {k}");
                assert_eq!(slab[2 * k], untouched, "{column:?} slot 0 of row {k}");
            }
        }
        // Bits, not only equality: `-0.0` stays `-0.0`.
        let slab = into_slot_one(&columns[2], &valid, &[0]);
        assert!(matches!(slab[1], Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn values_into_stops_at_the_shorter_of_positions_and_slots() {
        let column = Column::Int(vec![10, 20, 30]);
        let mut slab = vec![Value::Null; 4];
        // Width 3, offset 2: one slot, at index 2.
        column.values_into(
            &[true; 3],
            [1, 2].into_iter(),
            slab.iter_mut().skip(2).step_by(3),
        );
        assert_eq!(
            slab,
            [Value::Null, Value::Null, Value::Int(20), Value::Null]
        );
        column.values_into(&[true; 3], std::iter::empty(), slab.iter_mut());
        assert_eq!(slab[2], Value::Int(20));
    }

    #[test]
    fn a_str_column_reads_each_string_back_out_of_its_one_buffer() {
        let strings = ["", "é", "ab", "", "abé", "a"];
        let column: StrColumn = strings.iter().collect();
        assert_eq!(column.iter().collect::<Vec<_>>(), strings);
        assert_eq!(column.byte_size(), 9);
        // Appended, the second column's strings end past the first's.
        let mut both = column.clone();
        both.append(&strings[1..3].iter().collect());
        assert_eq!(both.len(), 8);
        assert_eq!(both.get(6), "é");
        assert_eq!(both.get(7), "ab");
        assert_eq!(
            format!("{both:?}"),
            format!("{:?}", [&strings[..], &strings[1..3]].concat())
        );
    }

    #[test]
    fn roundtrip_with_nulls() {
        let rows = vec![
            row![1i64, "a", 0.5],
            Row::from(vec![Value::Int(2), Value::Null, Value::Float(1.5)]),
        ];
        let b = Batch::from_rows(&schema(), rows.clone()).unwrap();
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.value(1, 1), Value::Null);
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = Batch::from_rows(&schema(), vec![row!["x", "a", 0.5]]);
        assert!(err.is_err());
    }

    #[test]
    fn typed_accessors() {
        let b = Batch::from_rows(&schema(), vec![row![1i64, "a", 0.5]]).unwrap();
        assert_eq!(b.column(0).as_int().unwrap(), &[1]);
        assert_eq!(b.column(2).as_float().unwrap(), &[0.5]);
        assert!(b.column(0).as_float().is_none());
        assert_eq!(b.column(1).as_str().unwrap().get(0), "a");
    }

    #[test]
    fn byte_size_counts_payload() {
        let b = Batch::from_rows(&schema(), vec![row![1i64, "abc", 0.5]]).unwrap();
        assert_eq!(b.byte_size(), 8 + 3 + 8);
    }

    #[test]
    fn column_subset_checks_what_it_ships_and_every_rows_arity() {
        let rows = vec![
            row![1i64, "a", 0.5],
            Row::from(vec![Value::Int(2), Value::Null, Value::Float(1.5)]),
        ];
        let b = Batch::from_columns(&schema(), &rows, &[2, 0]).unwrap();
        assert_eq!(b.schema().names(), vec!["w", "id"]);
        assert_eq!(b.to_rows(), vec![row![0.5, 1i64], row![1.5, 2i64]]);
        assert_eq!(b.byte_size(), 32);
        // All columns, in order, is `from_rows`.
        assert_eq!(
            Batch::from_columns(&schema(), &rows, &[0, 1, 2]).unwrap(),
            Batch::from_rows(&schema(), rows.clone()).unwrap()
        );
        // A wrong type in a shipped column and a short row are refused;
        // a wrong type in a column left behind is never looked at.
        let bad = vec![row![1i64, 7i64, 0.5]];
        assert!(Batch::from_columns(&schema(), &bad, &[1]).is_err());
        assert!(Batch::from_columns(&schema(), &bad, &[0, 2]).is_ok());
        assert!(Batch::from_columns(&schema(), &[row![1i64, "a"]], &[0]).is_err());
        let strict = Schema::from_fields(vec![Field {
            nullable: false,
            ..Field::new("id", DataType::Int)
        }]);
        let null = vec![Row::from(vec![Value::Null])];
        assert!(Batch::from_columns(&strict, &null, &[0]).is_err());
        assert!(Batch::from_columns(&strict, &null, &[]).is_ok());
    }

    #[test]
    fn a_source_with_an_image_batches_as_its_rows_do() {
        let rows = vec![
            row![1i64, "a", 0.5],
            Row::from(vec![Value::Null, Value::from("b"), Value::Null]),
            row![3i64, "c", 2.5],
        ];
        let image = Batch::from_rows(&schema(), rows.clone()).unwrap();
        let source = ColumnSource::Image(&image);
        let positions = [2, 1, 2];
        let picked: Vec<Row> = positions
            .iter()
            .map(|&p| rows[p as usize].clone())
            .collect();
        for keep in [&[2, 0, 1][..], &[1], &[], &[0, 0]] {
            assert_eq!(
                Batch::from_source(&schema(), source, Some(&positions), keep, None),
                Batch::from_columns(&schema(), &picked, keep),
                "{keep:?}"
            );
        }
        // A NULL in a not-null field is read off the validity flag, and
        // the first kept column with a violation is the one reported.
        let strict = Schema::from_fields(
            schema()
                .fields()
                .iter()
                .map(|f| Field {
                    nullable: false,
                    ..f.clone()
                })
                .collect(),
        );
        let got = Batch::from_source(&strict, source, Some(&positions), &[1, 2, 0], None);
        assert_eq!(got, Batch::from_columns(&strict, &picked, &[1, 2, 0]));
        assert!(matches!(got, Err(Error::SchemaMismatch(m)) if m == "null in not-null column w"));
    }

    #[test]
    fn concatenated_and_taken_rows_are_the_rows_batched_in_that_order() {
        let rows = vec![
            row![1i64, "a", 0.5],
            Row::from(vec![Value::Null, Value::from("b"), Value::Null]),
            row![3i64, "c", 2.5],
        ];
        let batch = |rows: &[Row]| Batch::from_rows(&schema(), rows.to_vec()).unwrap();
        let joined = Batch::concat(vec![batch(&rows[..1]), batch(&rows[1..])]).unwrap();
        assert_eq!(joined, batch(&rows));
        let order = [2, 0, 2, 1];
        let taken: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
        assert_eq!(joined.take(&order), batch(&taken));
        let other = Batch::from_rows(&Schema::new(vec![("id", DataType::Int)]), vec![row![1i64]]);
        assert!(Batch::concat(vec![batch(&rows), other.unwrap()]).is_err());
        assert!(Batch::concat(vec![]).is_err());
    }

    #[test]
    fn empty_batch() {
        let b = Batch::empty(schema());
        assert!(b.is_empty());
        assert_eq!(b.to_rows(), Vec::<Row>::new());
    }

    #[test]
    fn widths_are_each_rows_byte_size_however_the_batch_was_made() {
        let rows = vec![
            row![1i64, "abc", 0.5],
            Row::from(vec![Value::Null, Value::from("é"), Value::Null]),
            Row::from(vec![Value::Int(3), Value::Null, Value::Float(-0.0)]),
        ];
        let walked: Vec<u32> = rows.iter().map(|r| r.byte_size() as u32).collect();
        let batch = Batch::from_rows(&schema(), rows.clone()).unwrap();
        assert_eq!(batch.widths(), walked);
        // Pushed a checked row at a time, it is the same batch.
        let mut pushed = Batch::empty(schema());
        for (row, &width) in rows.iter().zip(&walked) {
            pushed.push_row(row.values(), width);
        }
        assert_eq!(pushed, batch);
        // Its own columns again are the same batch too.
        let again = Batch::from_typed(schema(), 3, batch.columns().to_vec()).unwrap();
        assert_eq!(again, batch);
        // A subset's widths are the kept columns' bytes.
        let name = Batch::from_columns(&schema(), &rows, &[1]).unwrap();
        assert_eq!(name.widths(), &[3, 2, 1]);
        assert_eq!(
            Batch::from_columns(&schema(), &rows, &[]).unwrap().widths(),
            &[0; 3]
        );
        // Columns that do not fit the schema or the row count are refused.
        let mut short = batch.columns().to_vec();
        short[2].1.pop();
        assert!(Batch::from_typed(schema(), 3, short).is_err());
        assert!(Batch::from_typed(schema(), 2, batch.columns().to_vec()).is_err());
        let swapped = vec![batch.columns()[1].clone(), batch.columns()[0].clone()];
        let two = Schema::new(vec![("id", DataType::Int), ("name", DataType::Str)]);
        assert!(Batch::from_typed(two, 3, swapped).is_err());
    }

    #[test]
    fn a_key_index_chains_each_keys_rows_in_row_order() {
        let keys = [Some(3u64), None, Some(1), Some(3), Some(3), Some(1), None];
        let index = KeyIndex::build(keys);
        let rows = |key| index.rows(&key).collect::<Vec<u32>>();
        assert_eq!(rows(3), [0, 3, 4]);
        assert_eq!(rows(1), [2, 5]);
        assert!(rows(2).is_empty(), "an absent key matches nothing");
        assert!(KeyIndex::<u64>::build([]).rows(&0).next().is_none());
    }

    #[test]
    fn a_batch_keeps_a_key_index_until_a_write_and_its_copy_starts_with_none() {
        let words = |(values, _): &TypedColumn| {
            let ids = values.as_int()?;
            Some(KeyIndex::build(ids.iter().map(|&v| Some(v as u64))))
        };
        let rows = vec![row![1i64, "a", 0.5], row![2i64, "b", 1.5]];
        let plain = Batch::from_rows(&schema(), rows).unwrap();
        assert!(!plain.keeps_key_indexes());
        assert!(
            plain.key_index(0, words).is_none(),
            "a batch that keeps none"
        );

        let mut kept = plain.clone().keeping_key_indexes();
        assert!(!kept.has_key_index(0));
        let index = kept.key_index(0, words).expect("an int column");
        assert_eq!(index.rows(&2).collect::<Vec<_>>(), [1]);
        assert!(kept.has_key_index(0) && !kept.has_key_index(1));
        // A column the build makes nothing of is not asked again.
        assert!(kept.key_index(1, words).is_none());
        let built_again = kept.key_index(1, |_| panic!("asked twice"));
        assert!(built_again.is_none() && !kept.has_key_index(1));
        // `==` and `Debug` read the rows alone.
        assert_eq!(kept, plain);
        assert_eq!(format!("{kept:?}"), format!("{plain:?}"));

        // A copy keeps indexes, none built; a write drops them.
        let copy = kept.clone();
        assert!(copy.keeps_key_indexes() && !copy.has_key_index(0));
        kept.push_row(&[Value::Int(2), Value::from("c"), Value::Float(2.5)], 17);
        assert!(!kept.has_key_index(0));
        let index = kept.key_index(0, words).expect("built afresh");
        assert_eq!(index.rows(&2).collect::<Vec<_>>(), [1, 2]);
        // Batches made out of others keep none.
        assert!(!kept.take(&[1, 0]).keeps_key_indexes());
        let both = Batch::concat(vec![kept.clone(), plain]).unwrap();
        assert!(!both.keeps_key_indexes());

        // Hash layouts live in the same cache, one per width.
        let rows: Vec<Row> = (0..6).map(|i| row![i as i64 % 4, "a", 0.5]).collect();
        let plain = Batch::from_rows(&schema(), rows).unwrap();
        let (two, three) = (HashRouter::new(2).unwrap(), HashRouter::new(3).unwrap());
        // A batch that keeps none makes a layout for the call alone.
        assert_eq!(
            *plain.hash_layout(0, two),
            HashLayout::of(two, &plain.columns()[0])
        );
        assert!(!plain.has_hash_layout(0, 2));
        assert!(plain.find_hash_layout(0, |_| Some(())).is_none());

        // The first call builds it, later ones get the same one; another
        // width gets one of its own, another column none of these.
        let mut kept = plain.clone().keeping_key_indexes();
        assert!(!kept.has_hash_layout(0, 2));
        let first = kept.hash_layout(0, two);
        assert_eq!(*first, HashLayout::of(two, &kept.columns()[0]));
        assert!(kept.has_hash_layout(0, 2) && !kept.has_hash_layout(0, 3));
        assert!(Arc::ptr_eq(&first, &kept.hash_layout(0, two)));
        let other = kept.hash_layout(0, three);
        assert_eq!(other.width(), 3);
        assert!(kept.has_hash_layout(0, 2) && kept.has_hash_layout(0, 3));
        assert!(!kept.has_hash_layout(1, 2));
        let widths: Vec<usize> = (1..=2)
            .filter_map(|n| kept.find_hash_layout(0, |l| (l.width() > n).then(|| l.width())))
            .collect();
        assert_eq!(widths, [2, 3], "the first match, in build order");

        // A copy keeps layouts, none built; a write drops them, key index
        // and layouts alike, and the next call sees the new row.
        let copy = kept.clone();
        assert!(copy.keeps_key_indexes() && !copy.has_hash_layout(0, 2));
        kept.key_index(0, |_| Some(KeyIndex::build([Some(0u64)])));
        kept.push_row(&[Value::Int(3), Value::from("c"), Value::Float(2.5)], 17);
        assert!(!kept.has_hash_layout(0, 2) && !kept.has_hash_layout(0, 3));
        assert!(!kept.has_key_index(0));
        let again = kept.hash_layout(0, two);
        assert_eq!(again.dests().len(), 7);
        assert_eq!(*again, HashLayout::of(two, &kept.columns()[0]));
        // Batches made out of others keep none.
        let both = Batch::concat(vec![kept.clone(), plain]).unwrap();
        both.hash_layout(0, two);
        assert!(!both.has_hash_layout(0, 2));
        let taken = kept.take(&[1, 0]);
        taken.hash_layout(0, two);
        assert!(!taken.has_hash_layout(0, 2));
    }
}
