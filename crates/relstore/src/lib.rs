//! A relational data-processing engine (Postgres-like substrate).
//!
//! One of the paper's native engines: "joins in Postgres" (§I) is the
//! capability a polystore exploits by pushing relational operators here.
//! The engine owns tables, secondary B-tree indexes, and native operators
//! (sequential/index scan, filter, project, hash join, sort-merge join,
//! group-by aggregation, order-by).
//!
//! # Examples
//!
//! ```
//! use pspp_relstore::{RelationalStore, Predicate};
//! use pspp_common::{Schema, DataType, row};
//!
//! # fn main() -> pspp_common::Result<()> {
//! let mut db = RelationalStore::new("db1");
//! db.create_table("t", Schema::new(vec![("id", DataType::Int), ("v", DataType::Float)]))?;
//! db.insert("t", vec![row![1i64, 0.5], row![2i64, 1.5]])?;
//! let scanned = db.scan("t", &Predicate::gt("v", 1.0), None)?;
//! assert_eq!(scanned.rows.len(), 1);
//! assert_eq!(scanned.byte_size, 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ops;

pub mod table;

pub use ops::{Aggregate, AggregateSpec, JoinKind, Selected, SortKey};
pub use pspp_common::Predicate;
pub use table::{Selection, Table};

use std::collections::BTreeMap;

use pspp_common::{
    Batch, Column, EngineId, Error, HashLayout, HashRouter, Result, Routes, Row, Schema,
};

/// What a [`RelationalStore::scan`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Scanned {
    /// The kept rows, in scan order, built out of the table's image:
    /// copies, whole or projected.
    pub rows: Vec<Row>,
    /// Payload bytes of `rows` (the sum of [`Row::byte_size`]).
    pub byte_size: u64,
}

/// The relational engine: a named collection of [`Table`]s.
#[derive(Debug, Clone)]
pub struct RelationalStore {
    id: EngineId,
    tables: BTreeMap<String, Table>,
}

impl RelationalStore {
    /// Creates an empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        RelationalStore {
            id: id.into(),
            tables: BTreeMap::new(),
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Creates an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyExists`] if the name is taken.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("table {name}")));
        }
        self.tables.insert(name.clone(), Table::new(name, schema));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] if absent.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    /// Borrow a table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] if absent.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    /// Inserts rows, validating against the schema and maintaining
    /// indexes: all of them, or none ([`Table::insert_all`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] or [`Error::SchemaMismatch`]
    /// (and [`Error::Invalid`] as [`Table::insert_all`] does); the table
    /// is unchanged on error.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.table_mut(table)?.insert_all(&rows)?;
        Ok(rows.len())
    }

    /// Builds a secondary B-tree index on `column`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] / [`Error::ColumnNotFound`].
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_index(column)
    }

    /// Replaces `table`'s rows during a rebalance, rebuilding its image
    /// and indexes over the new positions ([`Table::replace_rows`]), and
    /// returns the new row count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] or [`Error::SchemaMismatch`].
    pub fn rebalance_table(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let total = rows.len();
        self.table_mut(table)?.replace_rows(rows)?;
        Ok(total)
    }

    /// Scans `table`, applying `predicate` and an optional projection.
    ///
    /// Uses an index scan when the predicate's leading conjunct is an
    /// equality or range on an indexed column — only the index's
    /// candidate rows are tested then — otherwise a sequential scan over
    /// every row. Either way the predicate runs column-wise over the
    /// table's image ([`pspp_common::BoundPredicate::select`]): one pass
    /// per column, a conjunction's range leaves on a column folded into
    /// one interval, and a sequential scan's first pass walks the column
    /// itself, with no positions to read. The output's payload bytes
    /// come from the image's widths, not from a walk of the output rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] / [`Error::ColumnNotFound`].
    pub fn scan(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[&str]>,
    ) -> Result<Scanned> {
        let (selection, _) = self.scan_kept(table, predicate, projection, None)?;
        Ok(Scanned {
            rows: selection.rows(),
            byte_size: selection.byte_size(),
        })
    }

    /// [`RelationalStore::scan`] handing on what it kept without
    /// building the rows — a [`Selection`] over the table's snapshot,
    /// exposing the projected columns when it projects — and, for a
    /// shuffle that re-hashes the output on its column `key` over `width`
    /// destinations (`route`), where each row goes. Each kept row's
    /// destination is read out of the snapshot's hash layout of the key's
    /// column at that width ([`pspp_common::Batch::hash_layout`]: built
    /// by the snapshot's first routed scan at that width, one
    /// [`HashRouter::route_column`] pass, and kept until the table's next
    /// write), and each destination's bytes are summed out of the image
    /// in one loop over the kept rows' widths, or, when the scan
    /// projects, an exposed column at a time: a fixed-width column's
    /// from the destination's row count (the layout's own when the scan
    /// keeps every row), a NULL weighing 1, a string or byte column's in
    /// one loop. A sequential scan hands the predicate no positions
    /// (`None`: every row), so the only positions it makes are the ones
    /// it keeps.
    ///
    /// # Errors
    ///
    /// As [`RelationalStore::scan`], plus [`Error::ColumnNotFound`] when
    /// the output has no column `key` and [`Error::EmptyShardSet`] for
    /// zero destinations.
    pub fn scan_kept(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[&str]>,
        route: Option<(&str, u32)>,
    ) -> Result<(Selection, Routes)> {
        let t = self.table(table)?;
        let kept = (predicate.bind(t.schema())).select(t.source(), t.candidates(predicate))?;
        let columns: Option<Vec<usize>> = projection
            .map(|cols| cols.iter().map(|c| t.schema().require(c)).collect())
            .transpose()?;
        // A projection keeps the selection one: no row is built.
        let mut selection = t.select(kept);
        if let Some(columns) = &columns {
            selection = selection.project(columns)?;
        }
        let mut routes = Routes::default();
        if let Some((key, width)) = route {
            let router = HashRouter::new(width)?;
            // The key names an output column; read its table column.
            let output_at = match projection {
                Some(cols) => cols.iter().position(|c| *c == key),
                None => t.schema().index_of(key),
            }
            .ok_or_else(|| Error::ColumnNotFound(key.to_owned()))?;
            let at = columns.as_ref().map_or(output_at, |idx| idx[output_at]);
            let layout = t.image().hash_layout(at, router);
            let kept = selection.positions();
            routes.dests = kept
                .iter()
                .map(|&p| layout.destination(p as usize))
                .collect();
            let read = (t.image(), kept, selection.columns());
            routes.bytes = routed_bytes(read, &routes.dests, &layout);
        }
        Ok((selection, routes))
    }

    /// The schema produced by scanning with `projection`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] / [`Error::ColumnNotFound`].
    pub fn scan_schema(&self, table: &str, projection: Option<&[&str]>) -> Result<Schema> {
        let t = self.table(table)?;
        match projection {
            Some(cols) => t.schema().project(cols),
            None => Ok(t.schema().clone()),
        }
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

/// Payload bytes of the rows at `positions` of `image` (each kept once,
/// as a scan keeps them), through its columns `columns` (every column
/// when `None`), bound for each of `layout`'s destinations, row `i` to
/// `dests[i]`: the sum [`Selection::byte_size`] gives each
/// destination's rows. Whole rows add the image's row widths in one
/// loop. A projection's rows add up a column at a time: a fixed-width
/// column its width per row bound for a destination — the layout's
/// counts when every row is kept — less the difference for each NULL,
/// which weighs 1 as in [`pspp_common::Value::byte_size`]; a `Str` or
/// `Bytes` column each row's length, in one loop.
///
/// # Panics
///
/// Panics when `dests` is shorter than `positions`, a destination is
/// past the layout's, or a position or column is past `image`'s.
fn routed_bytes(
    (image, positions, columns): (&Batch, &[u32], Option<&[usize]>),
    dests: &[u32],
    layout: &HashLayout,
) -> Vec<u64> {
    let at = || positions.iter().map(|&p| p as usize).zip(dests);
    let mut bytes = vec![0u64; layout.width()];
    let Some(columns) = columns else {
        let widths = image.widths();
        for (p, &d) in at() {
            bytes[d as usize] += u64::from(widths[p]);
        }
        return bytes;
    };
    let rows: Vec<u64> = if positions.len() == image.num_rows() {
        layout.counts().iter().map(|&n| u64::from(n)).collect()
    } else {
        let mut rows = vec![0; layout.width()];
        for &d in dests {
            rows[d as usize] += 1;
        }
        rows
    };
    for &c in columns {
        let (values, valid) = &image.columns()[c];
        let fixed: u64 = match values {
            Column::Bool(_) => 1,
            Column::Int(_) | Column::Float(_) | Column::Timestamp(_) => 8,
            Column::Str(v) => {
                for (p, &d) in at() {
                    bytes[d as usize] += if valid[p] { v.byte_len(p) as u64 } else { 1 };
                }
                continue;
            }
            Column::Bytes(v) => {
                for (p, &d) in at() {
                    bytes[d as usize] += if valid[p] { v[p].len() as u64 } else { 1 };
                }
                continue;
            }
        };
        for (total, &n) in bytes.iter_mut().zip(&rows) {
            *total += fixed * n;
        }
        if fixed > 1 && at().any(|(p, _)| !valid[p]) {
            for (p, &d) in at() {
                bytes[d as usize] -= u64::from(!valid[p]) * (fixed - 1);
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType, Value};

    fn store_with_data() -> RelationalStore {
        let mut db = RelationalStore::new("db1");
        db.create_table(
            "patients",
            Schema::new(vec![
                ("pid", DataType::Int),
                ("age", DataType::Int),
                ("name", DataType::Str),
            ]),
        )
        .unwrap();
        db.insert(
            "patients",
            vec![
                row![1i64, 70i64, "ada"],
                row![2i64, 45i64, "grace"],
                row![3i64, 81i64, "edsger"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_scan() {
        let db = store_with_data();
        let rows = db
            .scan("patients", &Predicate::gt("age", 50i64), None)
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn projection_reorders_columns() {
        let db = store_with_data();
        let rows = db
            .scan("patients", &Predicate::True, Some(&["name", "pid"]))
            .unwrap()
            .rows;
        assert_eq!(rows[0], row!["ada", 1i64]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = store_with_data();
        assert!(matches!(
            db.create_table("patients", Schema::empty()),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn index_scan_is_used_only_where_an_index_answers() {
        let mut db = RelationalStore::new("db");
        db.create_table(
            "t",
            Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
        let rows: Vec<Row> = (0..10_000)
            .map(|i| row![i as i64, (i * 2) as i64])
            .collect();
        db.insert("t", rows).unwrap();
        db.create_index("t", "k").unwrap();
        let t = db.table("t").unwrap();

        let point = Predicate::eq("k", 5i64);
        assert_eq!(t.candidates(&point), Some(vec![5]));
        let hit = db.scan("t", &point, None).unwrap();
        assert_eq!(hit.rows, vec![row![5i64, 10i64]]);

        // `v` has no index: every row is a candidate, and each is kept.
        let all = Predicate::gt("v", -1i64);
        assert_eq!(t.candidates(&all), None);
        assert_eq!(db.scan("t", &all, None).unwrap().rows, t.rows());
    }

    #[test]
    fn rebalance_table_rebuilds_the_index() {
        let mut db = store_with_data();
        db.create_index("patients", "pid").unwrap();
        let mut rows = db.table("patients").unwrap().rows();
        rows.reverse();
        let total = db.rebalance_table("patients", rows).unwrap();
        assert_eq!(total, 3);
        // Index still answers after the rebuild, at the new position.
        let pid3 = Predicate::eq("pid", 3i64);
        assert_eq!(
            db.table("patients").unwrap().candidates(&pid3),
            Some(vec![0])
        );
        let hit = db.scan("patients", &pid3, None).unwrap();
        assert_eq!(hit.rows, vec![row![3i64, 81i64, "edsger"]]);
    }

    #[test]
    fn scans_arrive_sized_and_the_image_survives_a_rebalance() {
        let mut db = store_with_data();
        db.insert(
            "patients",
            vec![Row::from(vec![Value::Int(4), Value::Null, Value::Null])],
        )
        .unwrap();
        let check = |db: &RelationalStore| {
            let t = db.table("patients").unwrap();
            assert_eq!(*t.image(), Batch::from_rows(t.schema(), t.rows()).unwrap());
            // Sequential and (once `pid` is indexed) index scans,
            // whole rows and projected ones.
            for predicate in [
                Predicate::True,
                Predicate::gt("age", 50i64),
                Predicate::ge("pid", 2i64),
                Predicate::between("pid", 3i64, 2i64),
            ] {
                for projection in [None, Some(&["name", "age"][..])] {
                    let scanned = db.scan("patients", &predicate, projection).unwrap();
                    let walked: usize = scanned.rows.iter().map(Row::byte_size).sum();
                    assert_eq!(scanned.byte_size, walked as u64, "{predicate:?}");
                    let arity = projection.map_or(3, <[&str]>::len);
                    assert!(scanned.rows.iter().all(|r| r.len() == arity));
                }
            }
        };
        check(&db);
        db.create_index("patients", "pid").unwrap();
        check(&db);
        let mut rows = db.table("patients").unwrap().rows();
        rows.swap(0, 3);
        rows.pop();
        db.rebalance_table("patients", rows).unwrap();
        check(&db);
        // A rebalance that fails leaves rows, image and size alone.
        let before = db.table("patients").unwrap().clone();
        assert!(db
            .rebalance_table("patients", vec![row!["oops", 1i64, "x"]])
            .is_err());
        let after = db.table("patients").unwrap();
        assert_eq!(after.rows(), before.rows());
        assert_eq!(after.image(), before.image());
        assert_eq!(after.byte_size(), before.byte_size());
        check(&db);
    }

    /// A batch with a bad row inserts nothing: not the rows before it,
    /// not their index entries, not their bytes.
    #[test]
    fn an_insert_is_all_or_nothing() {
        let mut db = store_with_data();
        db.create_index("patients", "pid").unwrap();
        let before = db.table("patients").unwrap().clone();
        let batch = vec![
            row![4i64, 30i64, "barbara"],
            row![5i64, 40i64, "frances"],
            row![6i64, "sixty", "kathleen"],
            row![7i64, 50i64, "radia"],
        ];
        assert!(matches!(
            db.insert("patients", batch),
            Err(Error::SchemaMismatch(_))
        ));
        let after = db.table("patients").unwrap();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.rows(), before.rows());
        assert_eq!(after.image(), before.image());
        assert_eq!(after.byte_size(), before.byte_size());
        let pid4 = Predicate::eq("pid", 4i64);
        assert_eq!(after.candidates(&pid4), Some(vec![]));
        assert!(db.scan("patients", &pid4, None).unwrap().rows.is_empty());
    }

    #[test]
    fn missing_table_errors() {
        let db = RelationalStore::new("db");
        assert!(matches!(
            db.scan("nope", &Predicate::True, None),
            Err(Error::TableNotFound(_))
        ));
    }
}
