//! The deployment catalog: which engine holds which dataset, with what
//! schema (the EIDE "configuration parameters ... location, type, and
//! schema" of §III) — and, for partitioned tables, the
//! [`PartitionSpec`] describing how rows spread across shard replicas.

use std::collections::BTreeMap;

use pspp_common::{Error, PartitionSpec, Result, Schema, SchemaLookup, TableRef};

/// Name resolution and schema lookup for frontends and the optimizer.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, (TableRef, Schema)>,
    partitions: BTreeMap<TableRef, PartitionSpec>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a dataset under its unqualified name (and its qualified
    /// `engine.name` form).
    pub fn register(&mut self, table: TableRef, schema: Schema) {
        self.tables
            .insert(table.name.clone(), (table.clone(), schema.clone()));
        self.tables
            .insert(format!("{}.{}", table.engine, table.name), (table, schema));
    }

    /// Resolves a (possibly qualified) table name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown names.
    pub fn resolve(&self, name: &str) -> Result<&(TableRef, Schema)> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    /// The schema of a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown names.
    pub fn schema(&self, name: &str) -> Result<&Schema> {
        Ok(&self.resolve(name)?.1)
    }

    /// Declares how `table` is partitioned across shard replicas.
    /// This is a declaration, not the layout: the system builder seeds
    /// the deployment from it (redistributing rows by partition key
    /// into the sharded registry), and from then on the registry alone
    /// owns the layout — planning and execution both read the
    /// registry's specs, never this one. `Polystore::reshard` /
    /// `rebalance` keep the declaration current for readers of the
    /// catalog; a registry-level `reshard` does not.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`]/[`Error::Config`] for invalid
    /// specs.
    pub fn set_partition(&mut self, table: TableRef, spec: PartitionSpec) -> Result<()> {
        spec.validate()?;
        self.partitions.insert(table, spec);
        Ok(())
    }

    /// The partition spec of `table`, when declared.
    pub fn partition(&self, table: &TableRef) -> Option<&PartitionSpec> {
        self.partitions.get(table)
    }

    /// All declared partitions, in table order.
    pub fn partitions(&self) -> impl Iterator<Item = (&TableRef, &PartitionSpec)> {
        self.partitions.iter()
    }

    /// All registered unqualified names.
    pub fn names(&self) -> Vec<&str> {
        self.tables
            .keys()
            .filter(|k| !k.contains('.'))
            .map(String::as_str)
            .collect()
    }
}

impl SchemaLookup for Catalog {
    fn table_schema(&self, table: &TableRef) -> Option<&Schema> {
        // The qualified key: the unqualified one belongs to whichever
        // engine registered the name last.
        self.tables
            .get(&format!("{}.{}", table.engine, table.name))
            .map(|(_, schema)| schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::DataType;

    #[test]
    fn register_and_resolve_both_forms() {
        let mut c = Catalog::new();
        c.register(
            TableRef::new("db1", "t"),
            Schema::new(vec![("a", DataType::Int)]),
        );
        assert_eq!(c.resolve("t").unwrap().0.engine.as_str(), "db1");
        assert_eq!(c.resolve("db1.t").unwrap().0.name, "t");
        assert!(c.resolve("zzz").is_err());
        assert_eq!(c.names(), vec!["t"]);
    }

    #[test]
    fn schema_lookup_is_by_table_ref() {
        let mut c = Catalog::new();
        for (engine, col) in [("db1", "a"), ("db2", "b")] {
            c.register(
                TableRef::new(engine, "t"),
                Schema::new(vec![(col, DataType::Int)]),
            );
        }
        let names = |engine| {
            c.table_schema(&TableRef::new(engine, "t"))
                .map(Schema::names)
        };
        assert_eq!(names("db1"), Some(vec!["a"]));
        assert_eq!(names("db2"), Some(vec!["b"]));
        assert_eq!(names("db3"), None);
    }

    #[test]
    fn partition_specs_round_trip() {
        let mut c = Catalog::new();
        let t = TableRef::new("db1", "t");
        c.register(t.clone(), Schema::new(vec![("a", DataType::Int)]));
        assert!(c.partition(&t).is_none());
        c.set_partition(t.clone(), PartitionSpec::hash("a", 4))
            .unwrap();
        assert_eq!(c.partition(&t), Some(&PartitionSpec::hash("a", 4)));
        assert_eq!(c.partitions().count(), 1);
        assert!(c.set_partition(t, PartitionSpec::hash("a", 0)).is_err());
    }
}
