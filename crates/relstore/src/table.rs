//! Heap tables with secondary B-tree indexes.

use std::collections::BTreeMap;

use pspp_common::{Result, Row, Schema, Value};

use pspp_common::Predicate;

/// A heap of rows plus secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// Payload bytes of `rows`, kept current by every write so a full
    /// scan prices the heap without walking it.
    byte_size: u64,
    /// column name -> (value -> row positions)
    indexes: BTreeMap<String, BTreeMap<Value, Vec<usize>>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
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
        &self.schema
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts one row, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::SchemaMismatch`] on invalid rows.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let pos = self.rows.len();
        for (col, index) in &mut self.indexes {
            let idx = self.schema.require(col)?;
            index.entry(row[idx].clone()).or_default().push(pos);
        }
        self.byte_size += row.byte_size() as u64;
        self.rows.push(row);
        Ok(())
    }

    /// Builds (or rebuilds) a secondary index on `column`.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::ColumnNotFound`] for unknown columns.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let idx = self.schema.require(column)?;
        let mut index: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (pos, row) in self.rows.iter().enumerate() {
            index.entry(row[idx].clone()).or_default().push(pos);
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
    /// every row and rebuilding existing indexes over the new
    /// positions. This is the rebalance write path: the *physical*
    /// rebuild is wholesale (row positions shift, so indexes must be
    /// re-pointed anyway), while the caller charges only the
    /// incremental cost of the rows that actually moved.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::SchemaMismatch`] on invalid rows;
    /// the table is unchanged on error.
    pub fn replace_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        for row in &rows {
            self.schema.check_row(row)?;
        }
        self.byte_size = rows.iter().map(|r| r.byte_size() as u64).sum();
        self.rows = rows;
        let columns = self.indexed_columns();
        for col in columns {
            self.create_index(&col)?;
        }
        Ok(())
    }

    /// The index-selected candidate rows for a predicate, when it has
    /// usable bounds on an indexed column; `None` means no index
    /// applies and the caller scans [`Table::rows`].
    pub fn candidates(&self, predicate: &Predicate) -> Option<Vec<&Row>> {
        let (column, lo, hi) = predicate.index_bounds()?;
        let index = self.indexes.get(column)?;
        let rows_at = |hits: &mut dyn Iterator<Item = (&Value, &Vec<usize>)>| {
            hits.flat_map(|(_, positions)| positions)
                .map(|&p| &self.rows[p])
                .collect()
        };
        Some(match (lo, hi) {
            (Some(lo), Some(hi)) => rows_at(&mut index.range(lo..=hi)),
            (Some(lo), None) => rows_at(&mut index.range(lo..)),
            (None, Some(hi)) => rows_at(&mut index.range(..=hi)),
            (None, None) => self.rows.iter().collect(),
        })
    }

    /// Total payload bytes.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType};

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
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0][1], Value::from("new"));
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
    fn replace_rows_rebuilds_indexes_or_leaves_table_untouched() {
        let mut t = table();
        t.create_index("k").unwrap();
        t.replace_rows(vec![row![7i64, "seven"], row![8i64, "eight"]])
            .unwrap();
        assert_eq!(t.len(), 2);
        let cands = t.candidates(&Predicate::eq("k", 8i64)).expect("index used");
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0][1], Value::from("eight"));
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
    fn schema_enforced() {
        let mut t = table();
        assert!(t.insert(row!["oops", "v"]).is_err());
        assert_eq!(t.len(), 100);
    }
}
