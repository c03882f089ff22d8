//! A relational data-processing engine (Postgres-like substrate).
//!
//! One of the paper's native engines: "joins in Postgres" (§I) is the
//! capability a polystore exploits by pushing relational operators here.
//! The engine owns tables, secondary B-tree indexes, and native operators
//! (sequential/index scan, filter, project, hash join, sort-merge join,
//! group-by aggregation, order-by), and posts every operator's simulated
//! CPU cost to a [`CostLedger`].
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
pub use table::{ColumnImage, Selection, Table};

use std::collections::BTreeMap;

use pspp_accel::kernels::KernelReport;
use pspp_accel::{CostLedger, DeviceProfile, KernelClass};
use pspp_common::{EngineId, Error, HashRouter, Result, Routes, Row, Schema, Value};

/// What a [`RelationalStore::scan`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Scanned {
    /// The kept rows, in scan order: shared with the table, or
    /// projected copies.
    pub rows: Vec<Row>,
    /// Payload bytes of `rows` (the sum of [`Row::byte_size`]).
    pub byte_size: u64,
}

/// What a [`RelationalStore::scan_kept`] hands on.
#[derive(Debug, Clone)]
pub enum Kept {
    /// Whole rows: the kept positions over the table's snapshot. No row
    /// is touched until somebody builds them.
    Selection(Selection),
    /// Projected rows: copies the scan built and sized.
    Projected(Scanned),
}

/// The relational engine: a named collection of [`Table`]s.
#[derive(Debug, Clone)]
pub struct RelationalStore {
    id: EngineId,
    tables: BTreeMap<String, Table>,
    ledger: CostLedger,
    cpu: DeviceProfile,
}

impl RelationalStore {
    /// Creates an empty store with a private cost ledger.
    pub fn new(id: impl Into<EngineId>) -> Self {
        RelationalStore {
            id: id.into(),
            tables: BTreeMap::new(),
            ledger: CostLedger::new(),
            cpu: DeviceProfile::cpu(),
        }
    }

    /// Attaches a shared cost ledger (the middleware account).
    pub fn with_ledger(mut self, ledger: CostLedger) -> Self {
        self.ledger = ledger;
        self
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// The cost ledger this engine posts to.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
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

    /// Table names in this store.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
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
    /// indexes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] or [`Error::SchemaMismatch`].
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let t = self.table_mut(table)?;
        let n = rows.len();
        let mut bytes = 0u64;
        for row in rows {
            bytes += row.byte_size() as u64;
            t.insert(row)?;
        }
        // ~20 cycles/row insert bookkeeping + 1 cycle per 8 bytes copied.
        let cycles = n as u64 * 20 + bytes / 8;
        self.charge(
            "relstore.insert",
            KernelClass::FilterProject,
            n as u64,
            bytes,
            cycles,
        );
        Ok(n)
    }

    /// Builds a secondary B-tree index on `column`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] / [`Error::ColumnNotFound`].
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let t = self.table_mut(table)?;
        t.create_index(column)?;
        let rows = t.len() as u64;
        // Index build is a sort: n log n * ~6 cycles.
        let cycles = (rows as f64 * (rows.max(2) as f64).log2() * 6.0).ceil() as u64;
        self.charge(
            "relstore.create_index",
            KernelClass::Sort,
            rows,
            rows * 8,
            cycles,
        );
        Ok(())
    }

    /// Replaces `table`'s rows during an incremental rebalance,
    /// charging only for the `moved` rows that actually changed shard
    /// (row copy + per-row B-tree patch on each index) rather than
    /// the full-rebuild price [`RelationalStore::insert`] +
    /// [`RelationalStore::create_index`] would post. Physically the
    /// heap and indexes are rebuilt (positions shift either way); the
    /// ledger records the incremental work the diff saved.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] or [`Error::SchemaMismatch`].
    pub fn rebalance_table(&mut self, table: &str, rows: Vec<Row>, moved: usize) -> Result<usize> {
        // Moved rows are scattered through the set; bill them at the
        // mean row size.
        let total_bytes: u64 = rows.iter().map(|r| r.byte_size() as u64).sum();
        let moved_bytes = match rows.len() {
            0 => 0,
            len => total_bytes * moved as u64 / len as u64,
        };
        let t = self.table_mut(table)?;
        let total = rows.len();
        let indexes = t.indexed_columns().len() as u64;
        t.replace_rows(rows)?;
        // Moved rows pay the insert bookkeeping + copy price; each
        // index patches `moved` B-tree entries (log n descent each).
        let n = moved as u64;
        let log_n = (total.max(2) as f64).log2();
        let patch = (n as f64 * log_n * 6.0).ceil() as u64 * indexes;
        let cycles = n * 20 + moved_bytes / 8 + patch;
        self.charge(
            "relstore.rebalance",
            KernelClass::HashPartition,
            n,
            moved_bytes,
            cycles,
        );
        Ok(total)
    }

    /// Scans `table`, applying `predicate` and an optional projection.
    ///
    /// Uses an index scan when the predicate's leading conjunct is an
    /// equality or range on an indexed column, otherwise a sequential
    /// scan. Costs are charged accordingly (§III-A.2). Either way the
    /// predicate runs column-wise over the table's image
    /// ([`pspp_common::BoundPredicate::select`]) and the output's
    /// payload bytes come from the image's widths, not from a walk of
    /// the output rows.
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
        Ok(
            match self.scan_kept(table, predicate, projection, None)?.0 {
                Kept::Selection(selection) => Scanned {
                    rows: selection.rows(),
                    byte_size: selection.byte_size(),
                },
                Kept::Projected(scanned) => scanned,
            },
        )
    }

    /// [`RelationalStore::scan`] handing on what it kept without
    /// building the rows — a [`Selection`] over the table's snapshot,
    /// unless it projects — and, for a shuffle that re-hashes the output
    /// on its column `key` over `width` destinations (`route`), where
    /// each row goes. The destinations come from one pass over the key's
    /// column image at the kept positions ([`HashRouter::route_column`];
    /// through the rows for a `Str` or `Bytes` key), and each
    /// destination's bytes from the image's widths.
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
    ) -> Result<(Kept, Routes)> {
        let t = self.table(table)?;
        let widths = t.image().widths();
        let candidates = t.candidates(predicate);
        let index_used = candidates.is_some();
        let selection = candidates.unwrap_or_else(|| (0..t.len() as u32).collect());
        let scanned = selection.len() as u64;
        // A full scan reads the whole heap, whose size the table keeps.
        let scanned_bytes = if index_used {
            selection
                .iter()
                .map(|&p| u64::from(widths[p as usize]))
                .sum()
        } else {
            t.byte_size()
        };
        let kept = predicate.bind(t.schema()).select(t.source(), selection)?;
        let columns: Option<Vec<usize>> = projection
            .map(|cols| cols.iter().map(|c| t.schema().require(c)).collect())
            .transpose()?;
        // The destination pass reads the key column alone.
        let rows = t.rows();
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
            routes.dests = match &t.image().columns()[at] {
                Some(typed) => router.route_column(typed, &kept),
                None => kept
                    .iter()
                    .map(|&p| router.route(&rows[p as usize][at]) as u32)
                    .collect(),
            };
            routes.bytes = vec![0; router.width()];
            if columns.is_none() {
                for (&d, &p) in routes.dests.iter().zip(&kept) {
                    routes.bytes[d as usize] += u64::from(widths[p as usize]);
                }
            }
        }
        // A projected row is the scan's only copy, sized as it is built.
        let out = match &columns {
            Some(idx) => {
                let mut byte_size = 0u64;
                let rows = kept
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let row = rows[p as usize].project(idx);
                        let width = row.byte_size() as u64;
                        byte_size += width;
                        if let Some(&d) = routes.dests.get(i) {
                            routes.bytes[d as usize] += width;
                        }
                        row
                    })
                    .collect();
                Kept::Projected(Scanned { rows, byte_size })
            }
            None => Kept::Selection(t.select(kept)),
        };
        let cycles = if index_used {
            // B-tree descent + candidate fetch.
            (scanned * 40).max(60)
        } else {
            // Sequential: predicate eval (3 cyc/row/core) or memory bound.
            let compute = scanned as f64 * 3.0 / 16.0;
            let mem = scanned_bytes as f64 / self.cpu.mem_bw_bps * self.cpu.clock_hz;
            compute.max(mem).ceil() as u64
        };
        let component = if index_used {
            "relstore.index_scan"
        } else {
            "relstore.seq_scan"
        };
        self.charge(
            component,
            KernelClass::FilterProject,
            scanned,
            scanned_bytes,
            cycles,
        );
        Ok((out, routes))
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

    /// Hash join two tables on equality columns, returning joined rows and
    /// the output schema.
    ///
    /// # Errors
    ///
    /// Propagates lookup and schema errors from the underlying tables.
    pub fn join(
        &self,
        left: &str,
        right: &str,
        left_on: &str,
        right_on: &str,
    ) -> Result<(Schema, Vec<Row>)> {
        let lt = self.table(left)?;
        let rt = self.table(right)?;
        let out = ops::hash_join(
            lt.schema(),
            lt.rows(),
            rt.schema(),
            rt.rows(),
            left_on,
            right_on,
            JoinKind::Inner,
        )?;
        let n = (lt.len() + rt.len()) as u64;
        // Build + probe ≈ 24 cycles/row over 16 cores.
        let cycles = n * 24 / 16;
        self.charge(
            "relstore.hash_join",
            KernelClass::HashPartition,
            n,
            n * 16,
            cycles,
        );
        Ok(out)
    }

    /// Sorts a table's rows by `key` columns (ascending), charging the
    /// native CPU sort model. The table itself is not mutated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] / [`Error::ColumnNotFound`].
    pub fn sort(&self, table: &str, keys: &[SortKey]) -> Result<Vec<Row>> {
        let t = self.table(table)?;
        let rows = ops::sort_rows(t.schema(), t.rows().to_vec(), keys)?;
        let n = t.len() as u64;
        let cycles = pspp_accel::kernels::BitonicSorter::cycles(&self.cpu, n);
        self.charge("relstore.sort", KernelClass::Sort, n, n * 8, cycles);
        Ok(rows)
    }

    /// Group-by aggregation over a whole table.
    ///
    /// # Errors
    ///
    /// Propagates schema errors.
    pub fn group_by(
        &self,
        table: &str,
        keys: &[&str],
        aggs: &[AggregateSpec],
    ) -> Result<(Schema, Vec<Row>)> {
        let t = self.table(table)?;
        let out = ops::group_by(t.schema(), t.rows(), keys, aggs)?;
        let n = t.len() as u64;
        self.charge(
            "relstore.group_by",
            KernelClass::Aggregate,
            n,
            n * 16,
            n * 12 / 16,
        );
        Ok(out)
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    fn charge(&self, component: &str, kernel: KernelClass, elems: u64, bytes: u64, cycles: u64) {
        KernelReport::charge(
            &self.cpu,
            kernel,
            elems,
            bytes,
            cycles,
            Some(&self.ledger),
            component,
        );
    }
}

/// Convenience: the list of distinct values in a column (used by tests and
/// feature extraction).
pub fn distinct_values(schema: &Schema, rows: &[Row], column: &str) -> Result<Vec<Value>> {
    let idx = schema.require(column)?;
    let mut seen = std::collections::BTreeSet::new();
    for r in rows {
        seen.insert(r[idx].clone());
    }
    Ok(seen.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType};

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
        assert!(db.ledger().len() >= 2); // insert + scan charged
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
    fn index_scan_is_used_and_cheaper() {
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
        db.ledger().reset();

        let hit = db.scan("t", &Predicate::eq("k", 5i64), None).unwrap();
        assert_eq!(hit.rows.len(), 1);
        let events = db.ledger().events();
        assert!(events.iter().any(|e| e.component == "relstore.index_scan"));

        db.ledger().reset();
        let all = db.scan("t", &Predicate::gt("v", -1i64), None).unwrap();
        assert_eq!(all.rows.len(), 10_000);
        let events = db.ledger().events();
        assert!(events.iter().any(|e| e.component == "relstore.seq_scan"));
    }

    #[test]
    fn rebalance_table_charges_only_moved_rows() {
        let mut db = store_with_data();
        db.create_index("patients", "pid").unwrap();
        db.ledger().reset();
        let rows = db.table("patients").unwrap().rows().to_vec();
        let total = db.rebalance_table("patients", rows.clone(), 1).unwrap();
        assert_eq!(total, 3);
        let events = db.ledger().events();
        let small = events
            .iter()
            .find(|e| e.component == "relstore.rebalance")
            .expect("rebalance charged")
            .duration;
        db.ledger().reset();
        db.rebalance_table("patients", rows, 3).unwrap();
        let events = db.ledger().events();
        let big = events
            .iter()
            .find(|e| e.component == "relstore.rebalance")
            .unwrap()
            .duration;
        assert!(small < big, "1 moved row must cost less than 3");
        // Index still answers after the rebuild.
        let hit = db
            .scan("patients", &Predicate::eq("pid", 2i64), None)
            .unwrap();
        assert_eq!(hit.rows.len(), 1);
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
            assert_eq!(*t.image(), ColumnImage::of(t.schema(), t.rows()).unwrap());
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
        let mut rows = db.table("patients").unwrap().rows().to_vec();
        rows.swap(0, 3);
        rows.pop();
        db.rebalance_table("patients", rows, 2).unwrap();
        check(&db);
        // A rebalance that fails leaves rows, image and size alone.
        let before = db.table("patients").unwrap().clone();
        assert!(db
            .rebalance_table("patients", vec![row!["oops", 1i64, "x"]], 1)
            .is_err());
        let after = db.table("patients").unwrap();
        assert_eq!(after.rows(), before.rows());
        assert_eq!(after.image(), before.image());
        assert_eq!(after.byte_size(), before.byte_size());
        check(&db);
    }

    #[test]
    fn join_two_tables() {
        let mut db = store_with_data();
        db.create_table(
            "admissions",
            Schema::new(vec![("pid", DataType::Int), ("ward", DataType::Str)]),
        )
        .unwrap();
        db.insert(
            "admissions",
            vec![row![1i64, "icu"], row![1i64, "general"], row![3i64, "icu"]],
        )
        .unwrap();
        let (schema, rows) = db.join("patients", "admissions", "pid", "pid").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(schema.arity(), 5);
    }

    #[test]
    fn sort_by_key() {
        let db = store_with_data();
        let rows = db.sort("patients", &[SortKey::desc("age")]).unwrap();
        assert_eq!(rows[0][1], Value::Int(81));
        assert_eq!(rows[2][1], Value::Int(45));
    }

    #[test]
    fn group_by_aggregates() {
        let mut db = RelationalStore::new("db");
        db.create_table(
            "t",
            Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]),
        )
        .unwrap();
        db.insert(
            "t",
            vec![row!["a", 1i64], row!["a", 3i64], row!["b", 10i64]],
        )
        .unwrap();
        let (schema, rows) = db
            .group_by(
                "t",
                &["g"],
                &[AggregateSpec::new(Aggregate::Sum, "v", "total")],
            )
            .unwrap();
        assert_eq!(schema.names(), vec!["g", "total"]);
        let mut sums: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r[0].as_str().unwrap().to_owned(), r[1].as_f64().unwrap()))
            .collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(sums, vec![("a".into(), 4.0), ("b".into(), 10.0)]);
    }

    #[test]
    fn missing_table_errors() {
        let db = RelationalStore::new("db");
        assert!(matches!(
            db.scan("nope", &Predicate::True, None),
            Err(Error::TableNotFound(_))
        ));
    }

    #[test]
    fn distinct() {
        let db = store_with_data();
        let t = db.table("patients").unwrap();
        let vals = distinct_values(t.schema(), t.rows(), "age").unwrap();
        assert_eq!(vals.len(), 3);
    }
}
