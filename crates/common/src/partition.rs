//! Sharding primitives: [`ShardId`] and [`PartitionSpec`].
//!
//! A polystore scales out by partitioning a logical table across N
//! replicas of its engine (BigDAWG's islands, the tri-store's
//! partitioned routing). The catalog carries one [`PartitionSpec`] per
//! partitioned table; the runtime's sharded registry uses it to route
//! scans to shard replicas and the executor scatter-gathers partial
//! results in shard order so sharded and unsharded deployments are
//! bit-identical.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Error, Result, Row, Schema, Value};

/// Identifies one shard replica of an engine (0-based, dense).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard every unsharded engine lives on.
    pub const ZERO: ShardId = ShardId(0);

    /// The shard index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// How a logical table's rows are distributed across shard replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PartitionSpec {
    /// Rows route by a stable hash of the key column, modulo `shards`.
    Hash {
        /// Partition key column.
        column: String,
        /// Number of shard replicas.
        shards: u32,
    },
    /// Rows route by the key column's position among sorted split
    /// points: shard `s` holds values in `[boundaries[s-1],
    /// boundaries[s])` (first shard unbounded below, last unbounded
    /// above). `boundaries.len() + 1` shards.
    Range {
        /// Partition key column.
        column: String,
        /// Ascending split points.
        boundaries: Vec<Value>,
    },
    /// Every shard holds a full copy; reads may be served by any one
    /// replica (the runtime picks shard 0 for determinism).
    Replicated {
        /// Number of shard replicas.
        shards: u32,
    },
}

impl PartitionSpec {
    /// A hash partition over `column` with `shards` replicas.
    pub fn hash(column: impl Into<String>, shards: u32) -> Self {
        PartitionSpec::Hash {
            column: column.into(),
            shards,
        }
    }

    /// A range partition over `column` with the given split points.
    pub fn range(column: impl Into<String>, boundaries: Vec<Value>) -> Self {
        PartitionSpec::Range {
            column: column.into(),
            boundaries,
        }
    }

    /// A replicated table with `shards` full copies.
    pub fn replicated(shards: u32) -> Self {
        PartitionSpec::Replicated { shards }
    }

    /// Number of shard replicas this spec distributes over.
    pub fn shard_count(&self) -> usize {
        match self {
            PartitionSpec::Hash { shards, .. } | PartitionSpec::Replicated { shards } => {
                *shards as usize
            }
            PartitionSpec::Range { boundaries, .. } => boundaries.len() + 1,
        }
    }

    /// The shard ids a scatter-gather *scan* must visit, in merge
    /// order. Replicated tables are served by a single replica — but
    /// note this is a read-path decision only: as a **join input** a
    /// replicated table is colocatable with any hashed or ranged
    /// partner (broadcast join), because every shard task can build
    /// against a full copy. Join planning therefore goes through
    /// [`crate::Distribution::join`], never through this scatter set.
    ///
    /// Delegates to [`crate::Distribution::scatter`], the single
    /// source of truth for shard fan-out.
    pub fn scatter_shards(&self) -> Vec<ShardId> {
        crate::Distribution::from_spec(self).scatter()
    }

    /// The partition key column, when the spec has one.
    pub fn partition_column(&self) -> Option<&str> {
        match self {
            PartitionSpec::Hash { column, .. } | PartitionSpec::Range { column, .. } => {
                Some(column)
            }
            PartitionSpec::Replicated { .. } => None,
        }
    }

    /// Checks internal consistency: a non-empty shard set and sorted
    /// range boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`] for zero shards and
    /// [`Error::Config`] for unsorted boundaries.
    pub fn validate(&self) -> Result<()> {
        if self.shard_count() == 0 {
            return Err(Error::EmptyShardSet(format!(
                "partition spec {self:?} yields zero shards"
            )));
        }
        if let PartitionSpec::Range { boundaries, .. } = self {
            if boundaries.windows(2).any(|w| w[0] > w[1]) {
                return Err(Error::Config(
                    "range partition boundaries must be ascending".into(),
                ));
            }
        }
        Ok(())
    }

    /// The shard a row with key `value` lives on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`] for zero shards and
    /// [`Error::Invalid`] for replicated specs (every shard holds the
    /// row; there is no single home).
    pub fn shard_for_value(&self, value: &Value) -> Result<ShardId> {
        self.validate()?;
        self.route(value)
    }

    /// [`PartitionSpec::shard_for_value`] without re-validating —
    /// bulk callers validate once up front.
    fn route(&self, value: &Value) -> Result<ShardId> {
        match self {
            PartitionSpec::Hash { shards, .. } => {
                Ok(ShardId((value_hash(value) % u64::from(*shards)) as u32))
            }
            PartitionSpec::Range { boundaries, .. } => {
                let s = boundaries.partition_point(|b| b <= value);
                Ok(ShardId(s as u32))
            }
            PartitionSpec::Replicated { .. } => Err(Error::Invalid(
                "replicated tables have no single home shard".into(),
            )),
        }
    }

    /// Distributes `rows` into per-shard buckets by partition key
    /// (replicated specs clone the full row set into every shard).
    /// Within each shard, rows keep their input order, so a
    /// shard-ordered gather of a range partition over a key the rows
    /// are sorted by reproduces the input order exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] when the key column is missing
    /// from `schema` and [`Error::EmptyShardSet`] for zero shards.
    pub fn distribute(&self, schema: &Schema, rows: &[Row]) -> Result<Vec<Vec<Row>>> {
        self.validate()?;
        let n = self.shard_count();
        if let PartitionSpec::Replicated { .. } = self {
            return Ok((0..n).map(|_| rows.to_vec()).collect());
        }
        let column = self
            .partition_column()
            .expect("hash/range specs always have a key column");
        let idx = schema.require(column)?;
        let mut buckets: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
        for row in rows {
            let shard = self.route(&row[idx])?;
            buckets[shard.index()].push(row.clone());
        }
        Ok(buckets)
    }
    /// Destination shard of every row under this spec, in input
    /// order — the diffing primitive behind incremental rebalance.
    /// The registry routes each *source* shard's rows under the new
    /// spec and moves only those whose destination differs, instead
    /// of gathering and redistributing everything.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] when the key column is
    /// missing from `schema`, [`Error::EmptyShardSet`] for zero
    /// shards and [`Error::Invalid`] for replicated specs (every
    /// shard holds every row; there is nothing to diff).
    pub fn route_rows(&self, schema: &Schema, rows: &[Row]) -> Result<Vec<ShardId>> {
        self.validate()?;
        let column = self
            .partition_column()
            .ok_or_else(|| Error::Invalid("replicated tables have no single home shard".into()))?;
        let idx = schema.require(column)?;
        rows.iter().map(|row| self.route(&row[idx])).collect()
    }
}

/// Expected moved-row fraction when a hash partition grows from
/// `from` to `to` shards with `from | to`: a row stays exactly when
/// `hash % to < from` lands it back on its old shard, so the expected
/// moved fraction over a uniform hash is `1 - from/to` (0.5 for
/// 2→4). Returns `None` for non-grow or non-divisible width pairs,
/// where no closed form holds. This is an *expectation* — guards on
/// specific datasets should allow sampling tolerance.
pub fn hash_grow_moved_fraction(from: u32, to: u32) -> Option<f64> {
    if from == 0 || to <= from || !to.is_multiple_of(from) {
        return None;
    }
    Some(1.0 - f64::from(from) / f64::from(to))
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSpec::Hash { column, shards } => write!(f, "hash({column}) x {shards}"),
            PartitionSpec::Range { column, boundaries } => {
                write!(f, "range({column}) x {}", boundaries.len() + 1)
            }
            PartitionSpec::Replicated { shards } => write!(f, "replicated x {shards}"),
        }
    }
}

/// The 64-bit FNV-1a offset basis — the seed for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a hash state. Stable across runs,
/// platforms and versions (never `std::hash`'s randomized state) —
/// shard routing and benchmark digests both depend on this exact
/// function, so there is exactly one copy of it in the workspace.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A stable FNV-1a hash over a value's canonical bytes, seeding shard
/// routing for hash partitions.
fn value_hash(value: &Value) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        h = fnv1a(bytes, h);
    };
    match value {
        Value::Null => eat(&[0]),
        Value::Bool(b) => eat(&[1, u8::from(*b)]),
        Value::Int(v) => {
            eat(&[2]);
            eat(&v.to_le_bytes());
        }
        Value::Float(v) => {
            eat(&[3]);
            eat(&v.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            eat(&[4]);
            eat(s.as_bytes());
        }
        Value::Bytes(b) => {
            eat(&[5]);
            eat(b);
        }
        Value::Timestamp(v) => {
            eat(&[6]);
            eat(&v.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, DataType};

    fn schema() -> Schema {
        Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)])
    }

    #[test]
    fn hash_distribution_is_stable_and_total() {
        let spec = PartitionSpec::hash("k", 4);
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, format!("r{i}")]).collect();
        let a = spec.distribute(&schema(), &rows).unwrap();
        let b = spec.distribute(&schema(), &rows).unwrap();
        assert_eq!(a, b, "hash routing must be deterministic");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 100);
        assert!(a.iter().all(|bucket| !bucket.is_empty()));
    }

    #[test]
    fn range_distribution_preserves_sorted_order_on_gather() {
        let spec = PartitionSpec::range("k", vec![Value::Int(33), Value::Int(66)]);
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, format!("r{i}")]).collect();
        let buckets = spec.distribute(&schema(), &rows).unwrap();
        assert_eq!(buckets.len(), 3);
        let gathered: Vec<Row> = buckets.into_iter().flatten().collect();
        assert_eq!(gathered, rows, "shard-ordered gather = original order");
    }

    #[test]
    fn range_boundary_is_exclusive_on_the_left_shard() {
        let spec = PartitionSpec::range("k", vec![Value::Int(10)]);
        assert_eq!(spec.shard_for_value(&Value::Int(10)).unwrap(), ShardId(1));
        assert_eq!(spec.shard_for_value(&Value::Int(9)).unwrap(), ShardId(0));
    }

    #[test]
    fn replicated_clones_every_shard() {
        let spec = PartitionSpec::replicated(3);
        let rows: Vec<Row> = (0..5).map(|i| row![i as i64, "x"]).collect();
        let buckets = spec.distribute(&schema(), &rows).unwrap();
        assert!(buckets.iter().all(|b| *b == rows));
        assert_eq!(spec.scatter_shards(), vec![ShardId::ZERO]);
        assert!(spec.shard_for_value(&Value::Int(0)).is_err());
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let spec = PartitionSpec::hash("k", 0);
        assert!(matches!(spec.validate(), Err(Error::EmptyShardSet(_))));
        assert!(matches!(
            spec.distribute(&schema(), &[]),
            Err(Error::EmptyShardSet(_))
        ));
    }

    #[test]
    fn unknown_key_column_is_a_typed_error() {
        let spec = PartitionSpec::hash("nope", 2);
        let rows = vec![row![1i64, "a"]];
        assert!(matches!(
            spec.distribute(&schema(), &rows),
            Err(Error::ColumnNotFound(_))
        ));
    }

    #[test]
    fn unsorted_boundaries_rejected() {
        let spec = PartitionSpec::range("k", vec![Value::Int(5), Value::Int(1)]);
        assert!(matches!(spec.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn route_rows_matches_distribute() {
        let spec = PartitionSpec::hash("k", 4);
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, format!("r{i}")]).collect();
        let routes = spec.route_rows(&schema(), &rows).unwrap();
        let buckets = spec.distribute(&schema(), &rows).unwrap();
        for (row, shard) in rows.iter().zip(&routes) {
            assert!(buckets[shard.index()].contains(row));
        }
        let spec = PartitionSpec::replicated(2);
        assert!(matches!(
            spec.route_rows(&schema(), &rows),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn hash_grow_moved_fraction_closed_form() {
        assert_eq!(hash_grow_moved_fraction(2, 4), Some(0.5));
        assert_eq!(hash_grow_moved_fraction(1, 4), Some(0.75));
        assert_eq!(hash_grow_moved_fraction(4, 2), None, "shrink has no bound");
        assert_eq!(hash_grow_moved_fraction(2, 3), None, "non-divisible");
        assert_eq!(hash_grow_moved_fraction(0, 4), None);
        // Empirical check: routing 10k ints 2 -> 4 moves about half.
        let old = PartitionSpec::hash("k", 2);
        let new = PartitionSpec::hash("k", 4);
        let rows: Vec<Row> = (0..10_000).map(|i| row![i as i64, "x"]).collect();
        let before = old.route_rows(&schema(), &rows).unwrap();
        let after = new.route_rows(&schema(), &rows).unwrap();
        let moved =
            before.iter().zip(&after).filter(|(b, a)| b != a).count() as f64 / rows.len() as f64;
        assert!(
            (moved - 0.5).abs() < 0.05,
            "moved fraction {moved} should track the 0.5 expectation"
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(PartitionSpec::hash("pid", 4).to_string(), "hash(pid) x 4");
        assert_eq!(
            PartitionSpec::range("pid", vec![Value::Int(1)]).to_string(),
            "range(pid) x 2"
        );
        assert_eq!(ShardId(2).to_string(), "shard2");
    }
}
