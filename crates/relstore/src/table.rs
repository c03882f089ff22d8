//! Tables held as a typed column image — a [`Batch`] — with secondary
//! B-tree indexes.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::Arc;

use pspp_common::{
    Batch, Column, ColumnSource, Error, Predicate, Result, Row, Schema, TypedColumn, Value,
};

use crate::ops::Selected;

/// Row positions and payload widths are `u32`s, half the bytes a scan
/// moves through its selection vector; a table refuses what would not
/// fit.
pub(crate) fn as_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| Error::Invalid(format!("{what} {n} exceeds u32::MAX")))
}

/// The low bits of a position in a selection of several snapshots: the
/// row within its snapshot. The bits above them are the snapshot's
/// index, its *part* (module docs of [`crate::ops`], "Selections").
const LOCAL_BITS: u32 = 24;

/// The row bits of a position in a selection of several snapshots.
pub(crate) const LOCAL_MASK: u32 = (1 << LOCAL_BITS) - 1;

/// The most snapshots one selection spans.
const MAX_PARTS: usize = 1 << (u32::BITS - LOCAL_BITS);

/// The part and the row within its snapshot that position `p` of a
/// selection over several snapshots names.
#[inline]
pub(crate) fn split_position(p: u32) -> (usize, usize) {
    ((p >> LOCAL_BITS) as usize, (p & LOCAL_MASK) as usize)
}

/// Positions of a selection over several snapshots as the maximal runs
/// that stay in one snapshot, each with its part.
pub(crate) fn part_runs(positions: &[u32]) -> impl Iterator<Item = (usize, &[u32])> {
    let runs = positions.chunk_by(|&a, &b| split_position(a).0 == split_position(b).0);
    runs.map(|run| (run.first().map_or(0, |&p| split_position(p).0), run))
}

/// The rows a scan kept: their positions, in scan order, in a snapshot
/// of the table — its [`Batch`] as of the scan: the table holds its
/// data behind an `Arc` and copies it before writing while anyone else
/// still holds it, so a selection keeps reading the rows it selected
/// whatever the table does next — or, past a shuffle or a gather of
/// several shards' scans, in an ordered list of snapshots, one per
/// shard; and which of the snapshots' columns they expose, in what
/// order: all of them, or those a projection kept
/// ([`Selection::project`]). A migrated input is a selection too, of
/// every row of the batch the migrator decoded ([`Selection::all`]).
/// The relational kernels read keys and values at the positions
/// ([`Selection::selected`]); [`Selection::rows`] builds the rows
/// themselves, out of the snapshots.
///
/// Over one snapshot a position is the row's index in it. Over several,
/// a position is the snapshot's index (its part) above
/// 24 bits of the row's index in that snapshot.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The snapshots, in order: at least one.
    parts: Arc<[Arc<Batch>]>,
    positions: Vec<u32>,
    /// The snapshots' columns the selection exposes, in order; `None`:
    /// every column, in the table's order.
    columns: Option<Arc<[usize]>>,
}

/// Payload bytes of column `(values, valid)` at the rows of its
/// snapshot that `positions` name (`mask` turns a position into the
/// row): the sum of what [`Value::byte_size`] gives the values the
/// snapshot holds there.
fn column_bytes(positions: &[u32], mask: u32, (values, valid): &TypedColumn) -> u64 {
    fn each(positions: &[u32], mask: u32, valid: &[bool], width: impl Fn(usize) -> u64) -> u64 {
        (positions.iter())
            .map(|&p| (p & mask) as usize)
            .map(|p| if valid[p] { width(p) } else { 1 })
            .sum()
    }
    match values {
        Column::Bool(_) => positions.len() as u64,
        Column::Int(_) | Column::Float(_) | Column::Timestamp(_) => {
            each(positions, mask, valid, |_| 8)
        }
        Column::Str(v) => each(positions, mask, valid, |p| v.byte_len(p) as u64),
        Column::Bytes(v) => each(positions, mask, valid, |p| v[p].len() as u64),
    }
}

impl Selection {
    /// Every row of `batch`, in order: a migrated input, read where the
    /// migrator decoded it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for more rows than a `u32` position
    /// counts.
    pub fn all(batch: Batch) -> Result<Selection> {
        let rows = as_u32(batch.num_rows(), "row count")?;
        Ok(Selection {
            parts: Arc::from([Arc::new(batch)]),
            positions: (0..rows).collect(),
            columns: None,
        })
    }

    /// The positions, in order, each tagged with its part when the
    /// selection spans several snapshots.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// How many snapshots the selection spans.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// The snapshots' columns the selection exposes, in order, when it
    /// projects; `None` when it exposes every column.
    pub fn columns(&self) -> Option<&[usize]> {
        self.columns.as_deref()
    }

    /// What the relational kernels read: the snapshots at the positions,
    /// through the projection's columns.
    pub fn selected(&self) -> Selected<'_> {
        let selected = match &*self.parts {
            [one] => Selected::at(ColumnSource::Image(one), &self.positions),
            parts => Selected::over(parts, &self.positions),
        };
        selected.through(self.columns())
    }

    /// The same rows exposing columns `columns` of this selection, in
    /// that order: a projection, and no row is built.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for a column the selection does not
    /// expose.
    pub fn project(&self, columns: &[usize]) -> Result<Selection> {
        let arity = self.parts[0].schema().arity();
        let exposed = self.columns().map_or(arity, <[usize]>::len);
        if let Some(&c) = columns.iter().find(|&&c| c >= exposed) {
            return Err(Error::Invalid(format!(
                "column {c} of a selection of {exposed} columns"
            )));
        }
        let composed: Vec<usize> = match self.columns() {
            Some(mine) => columns.iter().map(|&c| mine[c]).collect(),
            None => columns.to_vec(),
        };
        // Every column in order is no projection at all.
        let every = composed.len() == arity && composed.iter().enumerate().all(|(i, &c)| i == c);
        Ok(Selection {
            parts: Arc::clone(&self.parts),
            positions: self.positions.clone(),
            columns: (!every).then(|| composed.into()),
        })
    }

    /// This selection's snapshots and columns at `positions`.
    fn at(&self, positions: Vec<u32>) -> Selection {
        Selection {
            parts: Arc::clone(&self.parts),
            positions,
            columns: self.columns.clone(),
        }
    }

    /// Number of rows selected.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Payload bytes of the selected rows, from the images: each whole
    /// row's width, or the projected columns' widths summed a column at
    /// a time. The same sum as [`Row::byte_size`] over
    /// [`Selection::rows`].
    pub fn byte_size(&self) -> u64 {
        let runs: Vec<(&Batch, &[u32], u32)> = match &*self.parts {
            [one] => vec![(&**one, &self.positions[..], u32::MAX)],
            parts => part_runs(&self.positions)
                .map(|(part, run)| (&*parts[part], run, LOCAL_MASK))
                .collect(),
        };
        let run_bytes = |(image, run, mask): (&Batch, &[u32], u32)| match self.columns() {
            None => {
                let widths = image.widths();
                (run.iter())
                    .map(|&p| u64::from(widths[(p & mask) as usize]))
                    .sum::<u64>()
            }
            Some(columns) => (columns.iter())
                .map(|&c| column_bytes(run, mask, &image.columns()[c]))
                .sum(),
        };
        runs.into_iter().map(run_bytes).sum()
    }

    /// The selected rows, in order: the exposed columns filled a column
    /// at a time out of the images into rows of one slab.
    pub fn rows(&self) -> Vec<Row> {
        let every: Vec<usize>;
        let columns = match self.columns() {
            Some(columns) => columns,
            None => {
                every = (0..self.parts[0].schema().arity()).collect();
                &every
            }
        };
        let input = self.selected().through(None);
        let fill = |slab: &mut _| crate::ops::gather_all(input, columns, slab, columns.len());
        Row::slab_with(self.len(), columns.len(), fill)
    }

    /// The rows at `positions` of the same snapshots — what a kernel
    /// returned from [`Selection::selected`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for a position past its snapshot, or
    /// tagged with a part the selection does not have.
    pub fn with_positions(&self, positions: Vec<u32>) -> Result<Selection> {
        let outside = |&p: &u32| {
            let (part, row) = match *self.parts {
                [_] => (0, p as usize),
                _ => split_position(p),
            };
            (self.parts.get(part)).is_none_or(|s| row >= s.num_rows())
        };
        if let Some(&p) = positions.iter().find(|p| outside(p)) {
            let rows: Vec<usize> = self.parts.iter().map(|s| s.num_rows()).collect();
            return Err(Error::Invalid(format!(
                "position {p:#x} outside snapshots of {rows:?} rows"
            )));
        }
        Ok(self.at(positions))
    }

    /// The first `n` rows (all of them when there are fewer).
    pub fn prefix(&self, n: usize) -> Selection {
        self.at(crate::ops::limit(&self.positions, n))
    }

    /// This selection's rows, then `more`'s — the shards of one table,
    /// say, in gather order: one selection over both lists of
    /// snapshots, in order, `more`'s positions re-tagged past this one's
    /// parts. An empty side adds nothing, snapshot included.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when the two expose different columns,
    /// when they span more than 256 snapshots, or when a snapshot of
    /// several holds more rows than 24 bits address.
    pub fn concat(&self, more: &Selection) -> Result<Selection> {
        if self.columns != more.columns {
            return Err(Error::Invalid(format!(
                "a selection of columns {:?} and one of {:?}",
                self.columns(),
                more.columns()
            )));
        }
        if more.is_empty() {
            return Ok(self.clone());
        }
        if self.is_empty() {
            return Ok(more.clone());
        }
        let parts: Vec<Arc<Batch>> = self
            .parts
            .iter()
            .chain(more.parts.iter())
            .cloned()
            .collect();
        if parts.len() > MAX_PARTS {
            return Err(Error::Invalid(format!(
                "a selection over {} snapshots; a part tag counts {MAX_PARTS}",
                parts.len()
            )));
        }
        if let Some(big) = parts
            .iter()
            .find(|s| s.num_rows() > LOCAL_MASK as usize + 1)
        {
            return Err(Error::Invalid(format!(
                "a snapshot of {} rows among several; a position addresses {}",
                big.num_rows(),
                LOCAL_MASK as usize + 1
            )));
        }
        let offset = (self.parts.len() as u32) << LOCAL_BITS;
        let mut positions = Vec::with_capacity(self.len() + more.len());
        positions.extend_from_slice(&self.positions);
        positions.extend(more.positions.iter().map(|&p| p + offset));
        Ok(Selection {
            parts: parts.into(),
            positions,
            columns: self.columns.clone(),
        })
    }

    /// The rows `dests` sends to each of `width` destinations — row `i`
    /// to `dests[i]` — in order: one selection per destination, over
    /// the same snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when `dests` has another length than
    /// the selection or names a destination past `width`.
    pub fn split(&self, dests: &[u32], width: usize) -> Result<Vec<Selection>> {
        let invalid = || {
            Error::Invalid(format!(
                "{} destinations over {width} for a selection of {} rows",
                dests.len(),
                self.len()
            ))
        };
        if dests.len() != self.len() {
            return Err(invalid());
        }
        let mut split = vec![Vec::new(); width];
        for (&p, &d) in self.positions.iter().zip(dests) {
            split.get_mut(d as usize).ok_or_else(invalid)?.push(p);
        }
        Ok(split
            .into_iter()
            .map(|positions| self.at(positions))
            .collect())
    }
}

/// A table: its rows as one [`Batch`] — the one copy of the table's
/// data, which a scan reads and output rows are built out of
/// ([`crate::ops`], "Selections"); no row is stored — plus secondary
/// indexes. The batch keeps a hash index of each column a join has read
/// whole ([`Batch::key_index`]); a write drops them, in place when no
/// selection holds the snapshot, and otherwise in the copy it writes,
/// which starts with none while the held snapshot keeps its own.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// The rows, and the schema, kept current by every write with
    /// `byte_size` and `indexes`.
    data: Arc<Batch>,
    /// Payload bytes of the rows (the sum of the image's widths), so a
    /// full scan prices the heap without walking it.
    byte_size: u64,
    /// column name -> (value -> row positions)
    indexes: BTreeMap<String, BTreeMap<Value, Vec<u32>>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            data: Arc::new(Batch::empty(schema).keeping_key_indexes()),
            byte_size: 0,
            indexes: BTreeMap::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// All rows, in insertion order, built out of the image: a copy,
    /// which later writes leave as it is.
    pub fn rows(&self) -> Vec<Row> {
        // A table holds at most `u32::MAX` rows.
        self.select((0..self.len() as u32).collect()).rows()
    }

    /// The table's data.
    pub fn image(&self) -> &Batch {
        &self.data
    }

    /// What a column-wise predicate evaluation reads: the image.
    pub fn source(&self) -> ColumnSource<'_> {
        ColumnSource::Image(&self.data)
    }

    /// The rows at `positions` (each less than [`Table::len`]), as of
    /// now: later writes leave the selection as it is.
    pub(crate) fn select(&self, positions: Vec<u32>) -> Selection {
        Selection {
            parts: Arc::from([Arc::clone(&self.data)]),
            positions,
            columns: None,
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.data.num_rows()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Inserts one row, maintaining the image and all indexes.
    ///
    /// # Errors
    ///
    /// As [`Table::insert_all`].
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all(std::slice::from_ref(&row))
    }

    /// Inserts `rows`, in order, maintaining the image and all indexes:
    /// every row is checked before any is written.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::SchemaMismatch`] on invalid rows,
    /// [`pspp_common::Error::Invalid`] past `u32::MAX` rows or payload
    /// bytes in a row; the table is unchanged on error.
    pub fn insert_all(&mut self, rows: &[Row]) -> Result<()> {
        let schema = self.data.schema();
        for row in rows {
            schema.check_row(row)?;
            as_u32(row.byte_size(), "row payload bytes")?;
        }
        let first = self.len();
        as_u32(first + rows.len(), "row count")?;
        let mut indexes = (self.indexes.iter_mut())
            .map(|(col, index)| Ok((schema.require(col)?, index)))
            .collect::<Result<Vec<_>>>()?;
        for (pos, row) in (first as u32..).zip(rows) {
            for (idx, index) in &mut indexes {
                index.entry(row[*idx].clone()).or_default().push(pos);
            }
        }
        let data = Arc::make_mut(&mut self.data);
        for row in rows {
            // Checked above: the width fits.
            let width = row.byte_size() as u32;
            data.push_row(row.values(), width);
            self.byte_size += u64::from(width);
        }
        Ok(())
    }

    /// Builds (or rebuilds) a secondary index on `column`, out of its
    /// image.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::ColumnNotFound`] for unknown columns.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let idx = self.schema().require(column)?;
        let source = self.source();
        let mut index: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for p in 0..self.len() {
            // A table holds at most `u32::MAX` rows.
            let value = source.cell(p, idx).to_value();
            index.entry(value).or_default().push(p as u32);
        }
        self.indexes.insert(column.to_owned(), index);
        Ok(())
    }

    /// Whether `column` has a secondary index.
    pub fn has_index(&self, column: &str) -> bool {
        self.indexes.contains_key(column)
    }

    /// Columns carrying a secondary index, in name order.
    pub fn indexed_columns(&self) -> Vec<String> {
        self.indexes.keys().cloned().collect()
    }

    /// Replaces the table's entire row set in one step, revalidating
    /// every row and rebuilding the image and existing indexes over the
    /// new positions. This is the rebalance write path: the rebuild is
    /// wholesale, since row positions shift and indexes must be
    /// re-pointed anyway.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::SchemaMismatch`] on invalid rows
    /// (and [`pspp_common::Error::Invalid`] as [`Table::insert`] does);
    /// the table is unchanged on error.
    pub fn replace_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        let mut image = Batch::empty(self.schema().clone()).keeping_key_indexes();
        as_u32(rows.len(), "row count")?;
        for row in &rows {
            image.schema().check_row(row)?;
            image.push_row(row.values(), as_u32(row.byte_size(), "row payload bytes")?);
        }
        self.byte_size = image.widths().iter().map(|&w| u64::from(w)).sum();
        self.data = Arc::new(image);
        let columns = self.indexed_columns();
        for col in columns {
            self.create_index(&col)?;
        }
        Ok(())
    }

    /// The positions of the index-selected candidate rows for a
    /// predicate, when it has usable bounds on an indexed column, in
    /// index order; `None` means no index applies and the scan reads
    /// every row, as [`pspp_common::BoundPredicate::select`] takes
    /// `None`.
    pub fn candidates(&self, predicate: &Predicate) -> Option<Vec<u32>> {
        let (column, lo, hi) = predicate.index_bounds()?;
        let index = self.indexes.get(column)?;
        // An inverted range (`BETWEEN 10 AND 5`, or bounds of two types)
        // selects nothing; `BTreeMap::range` panics on one.
        if lo.zip(hi).is_some_and(|(lo, hi)| lo > hi) {
            return Some(Vec::new());
        }
        let (lo, hi) = (
            lo.map_or(Unbounded, Included),
            hi.map_or(Unbounded, Included),
        );
        let hits = index.range::<Value, _>((lo, hi));
        Some(hits.flat_map(|(_, positions)| positions).copied().collect())
    }

    /// Total payload bytes.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, Column, DataType};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)]),
        );
        for i in 0..100 {
            t.insert(row![i as i64, format!("v{i}")]).unwrap();
        }
        t
    }

    #[test]
    fn index_candidates_narrow_range() {
        let mut t = table();
        t.create_index("k").unwrap();
        let p = Predicate::between("k", 10i64, 19i64);
        let cands = t.candidates(&p).expect("index used");
        assert_eq!(cands.len(), 10);
    }

    #[test]
    fn no_index_means_full_scan() {
        let t = table();
        assert!(t.candidates(&Predicate::eq("k", 5i64)).is_none());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = table();
        t.create_index("k").unwrap();
        t.insert(row![100i64, "new"]).unwrap();
        let cands = t
            .candidates(&Predicate::eq("k", 100i64))
            .expect("index used");
        assert_eq!(cands, vec![100]);
        assert_eq!(t.rows()[100][1], Value::from("new"));
    }

    #[test]
    fn open_ranges() {
        let mut t = table();
        t.create_index("k").unwrap();
        let ge = t.candidates(&Predicate::ge("k", 95i64)).unwrap();
        assert_eq!(ge.len(), 5);
        let lt = t.candidates(&Predicate::lt("k", 5i64)).unwrap();
        // `Lt` bounds are inclusive at candidate level; the predicate
        // itself re-filters exactly.
        assert!(lt.len() >= 5 && lt.len() <= 6);
    }

    #[test]
    fn inverted_and_cross_type_ranges_select_nothing() {
        // `BTreeMap::range` panics when start > end.
        let mut t = table();
        t.create_index("k").unwrap();
        for p in [
            Predicate::between("k", 10i64, 5i64),
            Predicate::between("k", "a", 5i64),
            Predicate::between("k", 10i64, 5i64).and(Predicate::eq("v", "v7")),
        ] {
            assert_eq!(t.candidates(&p), Some(vec![]), "{p:?}");
        }
        assert_eq!(
            t.candidates(&Predicate::between("k", 5i64, 5i64)),
            Some(vec![5])
        );
    }

    #[test]
    fn replace_rows_rebuilds_indexes_or_leaves_table_untouched() {
        let mut t = table();
        t.create_index("k").unwrap();
        t.replace_rows(vec![row![7i64, "seven"], row![8i64, "eight"]])
            .unwrap();
        assert_eq!(t.len(), 2);
        let cands = t.candidates(&Predicate::eq("k", 8i64)).expect("index used");
        assert_eq!(cands, vec![1]);
        assert_eq!(t.rows()[1][1], Value::from("eight"));
        // A bad row leaves the previous contents in place.
        assert!(t.replace_rows(vec![row!["oops", "v"]]).is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn byte_size_tracks_every_write() {
        let walked = |t: &Table| t.rows().iter().map(|r| r.byte_size() as u64).sum::<u64>();
        let mut t = table();
        assert_eq!(t.byte_size(), walked(&t));
        t.insert(row![100i64, "a longer value"]).unwrap();
        assert_eq!(t.byte_size(), walked(&t));
        t.replace_rows(vec![row![7i64, "seven"]]).unwrap();
        assert_eq!(t.byte_size(), 8 + 5);
        assert!(t.insert(row!["oops", "v"]).is_err());
        assert!(t.replace_rows(vec![row!["oops", "v"]]).is_err());
        assert_eq!(t.byte_size(), 8 + 5);
    }

    #[test]
    fn image_tracks_every_write() {
        // Every type, NULLs in each.
        let schema = Schema::new(vec![
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("t", DataType::Timestamp),
            ("b", DataType::Bool),
            ("s", DataType::Str),
            ("y", DataType::Bytes),
        ]);
        let full = |i: i64| {
            let bytes = Value::Bytes(vec![i as u8; 2]);
            row![
                i,
                i as f64 / 2.0,
                Value::Timestamp(i),
                i % 2 == 0,
                "abc",
                bytes
            ]
        };
        let nulls = || Row::from(vec![Value::Null; 6]);
        let current = |t: &Table| {
            assert_eq!(*t.image(), Batch::from_rows(t.schema(), t.rows()).unwrap());
            let widths = t.image().widths();
            assert_eq!(widths.len(), t.len());
            assert_eq!(
                widths.iter().map(|&w| u64::from(w)).sum::<u64>(),
                t.byte_size()
            );
        };
        let mut t = Table::new("t", schema);
        t.create_index("i").unwrap();
        current(&t);
        for row in [full(1), nulls(), full(2)] {
            t.insert(row).unwrap();
            current(&t);
        }
        let (ints, valid) = &t.image().columns()[0];
        assert_eq!(ints.as_int().unwrap(), &[1, 0, 2]);
        assert_eq!(valid, &[true, false, true]);
        let (strs, valid) = &t.image().columns()[4];
        let strs: Vec<&str> = strs.as_str().unwrap().iter().collect();
        assert_eq!(strs, ["abc", "", "abc"]);
        assert_eq!(valid, &[true, false, true]);
        let (bytes, _) = &t.image().columns()[5];
        assert_eq!(bytes, &Column::Bytes(vec![vec![1, 1], vec![], vec![2, 2]]));
        assert_eq!(t.image().widths(), &[8 + 8 + 8 + 1 + 3 + 2, 6, 30]);

        let before = t.image().clone();
        assert!(t
            .insert(row!["oops", 0.5, Value::Timestamp(0), true, "s"])
            .is_err());
        assert!(t.insert(row![1i64]).is_err());
        assert!(t.replace_rows(vec![full(9), row![1i64]]).is_err());
        assert_eq!(*t.image(), before);
        current(&t);

        t.replace_rows(vec![nulls(), full(7)]).unwrap();
        current(&t);
        assert_eq!(t.image().widths(), &[6, 30]);
        t.replace_rows(vec![]).unwrap();
        current(&t);
        assert!(t.image().widths().is_empty());
    }

    #[test]
    fn a_selection_keeps_its_snapshot_across_writes() {
        let mut t = table();
        let selection = t.select(vec![5, 2]);
        let want = vec![t.rows()[5].clone(), t.rows()[2].clone()];
        t.insert(row![100i64, "new"]).unwrap();
        t.replace_rows(vec![row![1i64, "one"]]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(format!("{:?}", selection.rows()), format!("{want:?}"));
        assert_eq!(selection.byte_size(), 2 * (8 + 2));
        assert_eq!(selection.prefix(1).rows(), want[..1]);
        assert_eq!(selection.with_positions(vec![99]).unwrap().len(), 1);
        assert!(matches!(
            selection.with_positions(vec![0, 100]),
            Err(Error::Invalid(_))
        ));
    }

    /// The `k` of each row a join of `probe` with `selection` (on `k`,
    /// over [`table`]'s schema) returns, and its `v`.
    fn joined(selection: &Selection, probe: &[Row]) -> Vec<(Value, Value)> {
        let schema = Schema::new(vec![("k", DataType::Int)]);
        let (_, rows, _) = crate::ops::hash_join_with(
            &schema,
            Selected::all(probe).unwrap(),
            &table().schema().clone(),
            selection.selected(),
            "k",
            "k",
            crate::ops::JoinKind::Inner,
            None,
            |_| {},
        )
        .unwrap();
        rows.iter().map(|r| (r[0].clone(), r[2].clone())).collect()
    }

    #[test]
    fn a_whole_snapshot_keeps_its_key_index_until_a_write() {
        let mut t = table();
        let whole = |t: &Table| t.select((0..t.len() as u32).collect());
        let probe = [row![5i64], row![100i64], row![7i64]];
        let five_and_seven = vec![(Value::Int(5), "v5".into()), (Value::Int(7), "v7".into())];

        // A join that reads part of the snapshot builds no index; one
        // that reads all of it, in order, does, on its key column alone.
        assert_eq!(joined(&t.select(vec![7, 5]), &probe), five_and_seven);
        assert!(!t.image().has_key_index(0));
        assert_eq!(joined(&whole(&t), &probe), five_and_seven);
        assert!(t.image().has_key_index(0) && !t.image().has_key_index(1));
        assert_eq!(joined(&whole(&t), &probe), five_and_seven);

        // With no other holder the insert writes in place, and drops
        // the index: the next join sees the new row.
        let before = Arc::as_ptr(&t.data);
        t.insert(row![100i64, "new"]).unwrap();
        assert_eq!(Arc::as_ptr(&t.data), before, "written in place");
        assert!(!t.image().has_key_index(0));
        let with_new = joined(&whole(&t), &probe);
        assert_eq!(with_new[1], (Value::Int(100), "new".into()));
        assert_eq!(with_new.len(), 3);

        // A selection taken before a write keeps answering from its own
        // snapshot, and that snapshot keeps its index; the table's new
        // one starts with none.
        let held = whole(&t);
        assert_eq!(joined(&held, &probe), with_new);
        t.insert(row![5i64, "five again"]).unwrap();
        assert!(held.parts[0].has_key_index(0));
        assert!(!t.image().has_key_index(0));
        assert_eq!(joined(&held, &probe), with_new);
        assert_eq!(joined(&whole(&t), &probe).len(), 4);
        t.replace_rows(vec![row![7i64, "seven"]]).unwrap();
        assert_eq!(
            joined(&whole(&t), &probe),
            vec![(Value::Int(7), "seven".into())]
        );
        assert_eq!(joined(&held, &probe), with_new);

        // A migrated input — every row of a batch the codec decoded —
        // joins as the table does and never keeps an index.
        let decoded = held.selected().to_batch(t.schema(), &[0, 1]).unwrap();
        let migrated = Selection::all(decoded).unwrap();
        assert_eq!(joined(&migrated, &probe), with_new);
        assert!(!migrated.parts[0].keeps_key_indexes());
        assert!(!migrated.parts[0].has_key_index(0));

        // A routed scan keeps the hash layout of its key's column at its
        // width in the same cache: the first builds it, a later one
        // reads it, another width gets one of its own, and a write
        // drops them, in place or in the copy it makes.
        let mut db = crate::RelationalStore::new("db");
        db.create_table("t", table().schema().clone()).unwrap();
        db.insert("t", table().rows()).unwrap();
        let routed = |db: &crate::RelationalStore, width| {
            let route = Some(("k", width));
            let scan = db.scan_kept("t", &Predicate::True, Some(&["v", "k"]), route);
            scan.unwrap()
        };
        let image = |db: &crate::RelationalStore| Arc::clone(&db.table("t").unwrap().data);
        let kept = |db: &crate::RelationalStore, width| {
            let router = pspp_common::HashRouter::new(width).unwrap();
            image(db).hash_layout(0, router)
        };
        assert!(!image(&db).has_hash_layout(0, 2));
        let (first, routes) = routed(&db, 2);
        assert!(image(&db).has_hash_layout(0, 2) && !image(&db).has_hash_layout(0, 3));
        assert!(!image(&db).has_hash_layout(1, 2), "the key's column alone");
        let layout = kept(&db, 2);
        assert_eq!(routed(&db, 2).1, routes);
        assert!(Arc::ptr_eq(&layout, &kept(&db, 2)), "read, not built again");
        assert_eq!(routes.dests, layout.dests());
        routed(&db, 3);
        assert!(image(&db).has_hash_layout(0, 2) && image(&db).has_hash_layout(0, 3));
        drop((first, layout));
        let before = Arc::as_ptr(&db.table("t").unwrap().data);
        db.insert("t", vec![row![100i64, "new"]]).unwrap();
        assert_eq!(
            Arc::as_ptr(&db.table("t").unwrap().data),
            before,
            "in place"
        );
        assert!(!image(&db).has_hash_layout(0, 2) && !image(&db).has_hash_layout(0, 3));
        let (held, routes) = routed(&db, 2);
        assert_eq!(routes.dests.len(), 101);
        db.insert("t", vec![row![101i64, "newer"]]).unwrap();
        assert!(held.parts[0].has_hash_layout(0, 2));
        assert!(!image(&db).has_hash_layout(0, 2));
        assert_eq!(routed(&db, 2).1.dests.len(), 102);

        // A clone, a migrated batch and a concatenated one keep none.
        let clone = held.parts[0].as_ref().clone();
        assert!(!clone.has_hash_layout(0, 2));
        let exposed = Schema::new(vec![("v", DataType::Str), ("k", DataType::Int)]);
        let decoded = held.selected().to_batch(&exposed, &[0, 1]).unwrap();
        let migrated = Selection::all(decoded).unwrap();
        let router = pspp_common::HashRouter::new(2).unwrap();
        migrated.parts[0].hash_layout(1, router);
        assert!(!migrated.parts[0].has_hash_layout(1, 2));
        let both = Batch::concat(vec![clone.clone(), clone]).unwrap();
        both.hash_layout(0, router);
        assert!(!both.has_hash_layout(0, 2));
    }

    #[test]
    fn a_projection_composes_and_every_column_in_order_is_none() {
        let t = table();
        let selection = t.select(vec![3, 1]);
        let swapped = selection.project(&[1, 0]).unwrap();
        assert_eq!(swapped.columns(), Some(&[1, 0][..]));
        assert_eq!(swapped.rows(), vec![row!["v3", 3i64], row!["v1", 1i64]]);
        assert_eq!(swapped.byte_size(), 2 * (8 + 2));
        // Swapped back is no projection at all; one column, twice, is.
        assert_eq!(swapped.project(&[1, 0]).unwrap().columns(), None);
        let twice = swapped.project(&[1, 1]).unwrap();
        assert_eq!(twice.columns(), Some(&[0, 0][..]));
        assert_eq!(twice.prefix(1).rows(), vec![row![3i64, 3i64]]);
        assert!(matches!(swapped.project(&[2]), Err(Error::Invalid(_))));
    }

    #[test]
    fn schema_enforced() {
        let mut t = table();
        assert!(t.insert(row!["oops", "v"]).is_err());
        assert_eq!(t.len(), 100);
    }
}
