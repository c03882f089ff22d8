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

use crate::{Column, Error, Result, Row, Schema, TypedColumn, Value};

/// Identifies one shard replica of an engine (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
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
#[derive(Debug, Clone, PartialEq)]
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
            RoutingRule::range(boundaries)?;
        }
        Ok(())
    }

    /// The key column and the routing rule of a hash or range spec,
    /// validated once for every row routed after it.
    ///
    /// # Errors
    ///
    /// As [`PartitionSpec::validate`], and [`Error::Invalid`] for
    /// replicated specs.
    fn keyed_rule(&self) -> Result<(&str, RoutingRule<'_>)> {
        self.validate()?;
        match self {
            PartitionSpec::Hash { column, shards } => {
                Ok((column, RoutingRule::Hash(HashRouter::new(*shards)?)))
            }
            PartitionSpec::Range { column, boundaries } => {
                Ok((column, RoutingRule::Range(boundaries)))
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
        if let PartitionSpec::Replicated { .. } = self {
            self.validate()?;
            return Ok((0..self.shard_count()).map(|_| rows.to_vec()).collect());
        }
        let (column, rule) = self.keyed_rule()?;
        let idx = schema.require(column)?;
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); rule.width()];
        for row in rows {
            buckets[rule.shard(&row[idx])].push(row.clone());
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
        let (column, rule) = self.keyed_rule()?;
        let idx = schema.require(column)?;
        Ok(rows
            .iter()
            .map(|row| ShardId(rule.shard(&row[idx]) as u32))
            .collect())
    }
}

/// The row-routing rule of a hash or range layout, checked once: every
/// row routed through it afterwards pays no check and no `Result`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoutingRule<'a> {
    /// The stable hash of the key.
    Hash(HashRouter),
    /// The key's slot among ascending split points: shard `s` holds
    /// `[boundaries[s-1], boundaries[s])`.
    Range(&'a [Value]),
}

impl<'a> RoutingRule<'a> {
    /// A range rule over `boundaries`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for unsorted boundaries.
    pub fn range(boundaries: &'a [Value]) -> Result<Self> {
        if boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Config(
                "range partition boundaries must be ascending".into(),
            ));
        }
        Ok(RoutingRule::Range(boundaries))
    }

    /// Number of destinations.
    pub fn width(&self) -> usize {
        match self {
            RoutingRule::Hash(router) => router.width(),
            RoutingRule::Range(boundaries) => boundaries.len() + 1,
        }
    }

    /// The destination of a row whose key is `value`.
    #[inline]
    pub fn shard(&self, value: &Value) -> usize {
        match self {
            RoutingRule::Hash(router) => router.route(value),
            RoutingRule::Range(boundaries) => boundaries.partition_point(|b| b <= value),
        }
    }
}

/// Hash routing over a fixed number of destinations: the one rule that
/// places stored rows on hash shards and routes every shuffle, whether
/// it reads the key from a row or from a typed column.
#[derive(Debug, Clone, Copy)]
pub struct HashRouter {
    width: u64,
    /// `width - 1` when `width` is a power of two: the remainder is then
    /// the low bits, and a mask gives it without a division.
    mask: Option<u64>,
}

impl HashRouter {
    /// A router over `width` destinations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`] for zero destinations.
    pub fn new(width: u32) -> Result<Self> {
        if width == 0 {
            return Err(Error::EmptyShardSet(
                "hash routing over zero destinations".into(),
            ));
        }
        Ok(HashRouter {
            width: u64::from(width),
            mask: width.is_power_of_two().then(|| u64::from(width) - 1),
        })
    }

    /// Number of destinations.
    pub fn width(self) -> usize {
        self.width as usize
    }

    /// The destination of a key whose routing hash is `hash`:
    /// `hash % width`.
    #[inline]
    pub fn destination(self, hash: u64) -> usize {
        (match self.mask {
            Some(mask) => hash & mask,
            None => hash % self.width,
        }) as usize
    }

    /// The destination of a row whose key is `value`.
    #[inline]
    pub fn route(self, value: &Value) -> usize {
        self.destination(value_hash(value))
    }

    /// The destination of every row of a typed column (values plus
    /// validity, as a table's column image holds them), in row order:
    /// what [`HashRouter::route`] gives each row's value, read without
    /// building it. A table snapshot routes a column through it once per
    /// width and keeps the result ([`HashLayout`], [`crate::Batch::hash_layout`]).
    pub fn route_column(self, (values, valid): &TypedColumn) -> Vec<u32> {
        match values {
            Column::Int(v) => self.route_typed(valid, |p| int_hash(v[p])),
            Column::Float(v) => self.route_typed(valid, |p| float_hash(v[p])),
            Column::Timestamp(v) => self.route_typed(valid, |p| timestamp_hash(v[p])),
            Column::Bool(v) => self.route_typed(valid, |p| bool_hash(v[p])),
            Column::Str(v) => self.route_typed(valid, |p| str_hash(v.get(p))),
            Column::Bytes(v) => self.route_typed(valid, |p| bytes_hash(&v[p])),
        }
    }

    /// The destination of every row, `hash` hashing the value at a row
    /// whose validity flag is set.
    fn route_typed(self, valid: &[bool], hash: impl Fn(usize) -> u64) -> Vec<u32> {
        (valid.iter().enumerate())
            .map(|(p, &v)| {
                let h = if v { hash(p) } else { NULL_HASH };
                self.destination(h) as u32
            })
            .collect()
    }
}

/// Where every row of one column goes under a hash shuffle over a fixed
/// number of destinations ([`HashRouter`]): each row's destination, the
/// row's *rank* among its destination's rows (how many rows before it go
/// there too), and each destination's row count. A table snapshot keeps
/// one per column and width a routed scan asked for
/// ([`crate::Batch::hash_layout`]): a scan reads its kept rows'
/// destinations out of it instead of hashing them, and a join over one
/// whole destination reads each row's place in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashLayout {
    dests: Vec<u32>,
    ranks: Vec<u32>,
    counts: Vec<u32>,
}

impl HashLayout {
    /// The layout of `column` under `router`.
    pub fn of(router: HashRouter, column: &TypedColumn) -> HashLayout {
        let dests = router.route_column(column);
        let mut counts = vec![0u32; router.width()];
        let ranks = (dests.iter())
            .map(|&d| {
                let count = &mut counts[d as usize];
                *count += 1;
                *count - 1
            })
            .collect();
        HashLayout {
            dests,
            ranks,
            counts,
        }
    }

    /// Number of destinations.
    pub fn width(&self) -> usize {
        self.counts.len()
    }

    /// Every row's destination, in row order.
    pub fn dests(&self) -> &[u32] {
        &self.dests
    }

    /// Row `row`'s destination.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn destination(&self, row: usize) -> u32 {
        self.dests[row]
    }

    /// Row `row`'s rank: how many rows before it share its destination.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn rank(&self, row: usize) -> u32 {
        self.ranks[row]
    }

    /// Each destination's row count.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The destination `rows` is the whole of, in row order: `Some(d)`
    /// exactly when `rows` holds destination `d`'s count of rows, each
    /// routed to `d`, ascending — so the `i`-th of them is the row of
    /// rank `i` there. `None` for any other rows, and for none.
    pub fn whole_destination(&self, mut rows: impl ExactSizeIterator<Item = usize>) -> Option<u32> {
        let n = rows.len();
        let mut last = rows.next()?;
        let d = *self.dests.get(last)?;
        if self.counts[d as usize] as usize != n {
            return None;
        }
        for row in rows {
            if row <= last || self.dests.get(row) != Some(&d) {
                return None;
            }
            last = row;
        }
        Some(d)
    }
}

/// Where each row of one producer's output goes under a shuffle: the
/// destination of every row, in the output's own row order, and the
/// payload bytes bound for each destination.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Routes {
    /// `dests[i]` is row `i`'s destination.
    pub dests: Vec<u32>,
    /// `bytes[d]` sums [`Row::byte_size`] over the rows bound for `d`.
    pub bytes: Vec<u64>,
}

impl Routes {
    /// `rows` hash-routed on their column `key` over `width`
    /// destinations — how an output no store routed for itself finds
    /// its destinations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] when `schema` has no `key` and
    /// [`Error::EmptyShardSet`] for zero destinations.
    pub fn of_rows(schema: &Schema, rows: &[Row], key: &str, width: u32) -> Result<Routes> {
        let router = HashRouter::new(width)?;
        let idx = schema.require(key)?;
        let mut bytes = vec![0; router.width()];
        let dests = rows
            .iter()
            .map(|row| {
                let d = router.route(&row[idx]);
                bytes[d] += row.byte_size() as u64;
                d as u32
            })
            .collect();
        Ok(Routes { dests, bytes })
    }

    /// The routes a layout of `rows` stored as per-destination index
    /// lists (what [`crate::Distribution::route_indices`] returns)
    /// replays.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when the lists name a row `rows` lacks
    /// or leave one out.
    pub fn of_buckets(rows: &[Row], buckets: &[Vec<usize>]) -> Result<Routes> {
        let mut dests = vec![u32::MAX; rows.len()];
        let mut bytes = vec![0; buckets.len()];
        for ((d, list), total) in (0u32..).zip(buckets).zip(&mut bytes) {
            for &i in list {
                let slot = dests.get_mut(i).ok_or_else(|| {
                    Error::Invalid(format!("layout routes row {i} of {}", rows.len()))
                })?;
                *slot = d;
                *total += rows[i].byte_size() as u64;
            }
        }
        if dests.contains(&u32::MAX) {
            return Err(Error::Invalid("layout leaves a row unrouted".into()));
        }
        Ok(Routes { dests, bytes })
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
pub const fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(PRIME);
        i += 1;
    }
    hash
}

/// The FNV-1a state after each kind's tag byte: a value's routing hash
/// continues from its kind's seed over the value's bytes.
const NULL_HASH: u64 = fnv1a(&[0], FNV_OFFSET);
const BOOL_SEED: u64 = fnv1a(&[1], FNV_OFFSET);
const INT_SEED: u64 = fnv1a(&[2], FNV_OFFSET);
const FLOAT_SEED: u64 = fnv1a(&[3], FNV_OFFSET);
const STR_SEED: u64 = fnv1a(&[4], FNV_OFFSET);
const BYTES_SEED: u64 = fnv1a(&[5], FNV_OFFSET);
const TIMESTAMP_SEED: u64 = fnv1a(&[6], FNV_OFFSET);

/// The routing hash of a value: FNV-1a over a kind tag and the value's
/// bytes, stable across runs, platforms and versions. Values that
/// compare equal hash alike, so equal join keys meet on one shard: that
/// is `Int(1) == Float(1.0)` across kinds, where `Value`'s order casts
/// the int to `f64`. A float holding a whole number therefore hashes as
/// the int it equals, and an int as the whole number its cast holds —
/// the rule `Value`'s `Hash` follows. Every other float hashes its bit
/// pattern.
fn value_hash(value: &Value) -> u64 {
    match value {
        Value::Null => NULL_HASH,
        Value::Bool(b) => bool_hash(*b),
        Value::Int(v) => int_hash(*v),
        Value::Float(v) => float_hash(*v),
        Value::Str(s) => str_hash(s),
        Value::Bytes(b) => bytes_hash(b),
        Value::Timestamp(v) => timestamp_hash(*v),
    }
}

/// [`value_hash`] of `Value::Bool(b)`.
fn bool_hash(b: bool) -> u64 {
    fnv1a(&[u8::from(b)], BOOL_SEED)
}

/// [`value_hash`] of `Value::Str(s)`.
fn str_hash(s: &str) -> u64 {
    fnv1a(s.as_bytes(), STR_SEED)
}

/// [`value_hash`] of `Value::Bytes(b)`.
fn bytes_hash(b: &[u8]) -> u64 {
    fnv1a(b, BYTES_SEED)
}

/// [`value_hash`] of `Value::Timestamp(v)`.
#[inline]
fn timestamp_hash(v: i64) -> u64 {
    fnv1a(&v.to_le_bytes(), TIMESTAMP_SEED)
}

/// [`value_hash`] of `Value::Int(v)`.
#[inline]
fn int_hash(v: i64) -> u64 {
    // Within ±2^53 the cast is exact; past it, the whole number the
    // cast rounds to is the one every equal float hashes as.
    let whole = if v.unsigned_abs() <= 1 << 53 {
        v
    } else {
        v as f64 as i64
    };
    fnv1a(&whole.to_le_bytes(), INT_SEED)
}

/// [`value_hash`] of `Value::Float(v)`.
#[inline]
fn float_hash(v: f64) -> u64 {
    let whole = v as i64;
    if whole as f64 == v {
        int_hash(whole)
    } else {
        fnv1a(&v.to_bits().to_le_bytes(), FLOAT_SEED)
    }
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
    fn keys_that_compare_equal_route_alike_and_every_path_takes_the_remainder() {
        // Whole floats and the ints they equal, the ends of `i64` (whose
        // casts round to ±2^63) and an int the cast rounds.
        for v in [0, 1, -7, (1i64 << 53) + 1, i64::MIN, i64::MAX] {
            let (i, f) = (Value::Int(v), Value::Float(v as f64));
            assert_eq!(i, f);
            assert_eq!(value_hash(&i), value_hash(&f), "{v}");
        }
        assert_ne!(value_hash(&Value::Float(0.5)), value_hash(&Value::Int(0)));
        assert_ne!(value_hash(&Value::Int(1)), value_hash(&Value::Timestamp(1)));
        // A hash partition on a float column puts each row where the
        // equal int goes.
        let spec = PartitionSpec::hash("k", 3);
        for v in -20..20i64 {
            assert_eq!(
                home(&spec, &Value::Float(v as f64)).unwrap(),
                home(&spec, &Value::Int(v)).unwrap()
            );
        }

        // Masked or divided, the destination is the remainder.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| fnv1a(&i.to_le_bytes(), FNV_OFFSET))
            .chain([0, u64::MAX])
            .collect();
        for width in 1..=9u32 {
            let router = HashRouter::new(width).unwrap();
            for &h in &hashes {
                assert_eq!(router.destination(h) as u64, h % u64::from(width));
            }
        }
        assert!(matches!(HashRouter::new(0), Err(Error::EmptyShardSet(_))));

        // A typed column routes every row, NULLs included, as the values
        // it holds do.
        let values = [
            Value::Int(3),
            Value::Null,
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Timestamp(3),
            Value::Bool(true),
            Value::from("abc"),
            Value::Bytes(vec![1, 2]),
        ];
        for kind in DataType::all() {
            let mut column = (crate::Column::empty(kind), Vec::new());
            let kept: Vec<&Value> = values
                .iter()
                .filter(|v| v.is_null() || v.data_type() == Some(kind))
                .collect();
            for v in &kept {
                assert!(column.0.push(v));
                column.1.push(!v.is_null());
            }
            let router = HashRouter::new(3).unwrap();
            let typed = router.route_column(&column);
            let by_value: Vec<u32> = kept.iter().map(|v| router.route(v) as u32).collect();
            assert_eq!(typed, by_value, "{kind}");
            assert_eq!(HashLayout::of(router, &column).dests(), by_value, "{kind}");
        }
    }

    #[test]
    fn a_hash_layout_ranks_each_row_in_its_destination_and_knows_a_whole_one() {
        let ints: Vec<i64> = vec![5, 1, 5, 9, 2, 1, 7, 3];
        let valid = vec![true, true, true, false, true, true, true, true];
        let column = (crate::Column::Int(ints.clone()), valid.clone());
        for width in 1..=4u32 {
            let router = HashRouter::new(width).unwrap();
            let layout = HashLayout::of(router, &column);
            assert_eq!(layout.width(), width as usize);
            let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); width as usize];
            for (r, (&v, &ok)) in ints.iter().zip(&valid).enumerate() {
                let value = if ok { Value::Int(v) } else { Value::Null };
                let d = router.route(&value);
                assert_eq!(layout.destination(r), d as u32);
                assert_eq!(layout.rank(r) as usize, rows_of[d].len());
                rows_of[d].push(r);
            }
            let counts: Vec<u32> = rows_of.iter().map(|rows| rows.len() as u32).collect();
            assert_eq!(layout.counts(), counts);
            for (d, rows) in (0u32..).zip(&rows_of) {
                let whole = layout.whole_destination(rows.iter().copied());
                assert_eq!(whole, (!rows.is_empty()).then_some(d), "width {width}");
                // One row short, reversed, or with a row of another
                // destination in place of one of its own: not whole.
                if rows.len() > 1 {
                    let short = rows[1..].iter().copied();
                    assert_eq!(layout.whole_destination(short), None);
                    let reversed = rows.iter().rev().copied();
                    assert_eq!(layout.whole_destination(reversed), None);
                    if let Some(other) = (0..ints.len()).find(|&r| layout.destination(r) != d) {
                        let mut foreign = rows[1..].to_vec();
                        foreign.push(other);
                        foreign.sort_unstable();
                        assert_eq!(layout.whole_destination(foreign.into_iter()), None);
                    }
                }
            }
            assert_eq!(layout.whole_destination(std::iter::empty()), None);
            assert_eq!(layout.whole_destination([ints.len()].into_iter()), None);
        }
    }

    /// The shard a row with key `value` lives on.
    fn home(spec: &PartitionSpec, value: &Value) -> Result<usize> {
        Ok(spec.keyed_rule()?.1.shard(value))
    }

    #[test]
    fn range_boundary_is_exclusive_on_the_left_shard() {
        let spec = PartitionSpec::range("k", vec![Value::Int(10)]);
        assert_eq!(home(&spec, &Value::Int(10)).unwrap(), 1);
        assert_eq!(home(&spec, &Value::Int(9)).unwrap(), 0);
    }

    #[test]
    fn replicated_clones_every_shard() {
        let spec = PartitionSpec::replicated(3);
        let rows: Vec<Row> = (0..5).map(|i| row![i as i64, "x"]).collect();
        let buckets = spec.distribute(&schema(), &rows).unwrap();
        assert!(buckets.iter().all(|b| *b == rows));
        assert_eq!(spec.scatter_shards(), vec![ShardId::ZERO]);
        assert!(home(&spec, &Value::Int(0)).is_err());
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
