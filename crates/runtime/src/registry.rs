//! The engine registry: deployed data-processing engines (Fig. 4),
//! sharded for scale-out.
//!
//! Every logical engine id maps to an ordered list of shard replicas
//! of the same [`EngineKind`]. Unsharded deployments are the
//! single-replica special case ([`ShardedRegistry::register`]), which
//! keeps the PR-1 API intact; partitioned tables carry a
//! [`PartitionSpec`] routing scans to their shard replicas, and
//! [`ShardedRegistry::reshard`] redistributes a relational table's
//! rows across N replicas by partition key.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pspp_accel::AcceleratorFleet;
use pspp_common::{
    EngineId, EngineKind, Error, MaterializedRepartitions, PartitionSpec, Result, Row, ShardId,
    TableRef,
};
use pspp_graphstore::GraphStore;
use pspp_relstore::RelationalStore;
use pspp_textstore::TextStore;
use pspp_tsstore::TimeseriesStore;

/// One deployed engine replica.
#[derive(Debug, Clone)]
pub enum EngineInstance {
    /// Relational store.
    Relational(RelationalStore),
    /// Timeseries store.
    Timeseries(TimeseriesStore),
    /// Graph store.
    Graph(GraphStore),
    /// Text store.
    Text(TextStore),
}

impl EngineInstance {
    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        match self {
            EngineInstance::Relational(_) => EngineKind::Relational,
            EngineInstance::Timeseries(_) => EngineKind::Timeseries,
            EngineInstance::Graph(_) => EngineKind::Graph,
            EngineInstance::Text(_) => EngineKind::Text,
        }
    }
}

/// Backward-compatible name for the single-shard view of
/// [`ShardedRegistry`]: PR-1 call sites (and the unsharded default)
/// keep compiling unchanged, with every lookup served by shard 0.
pub type EngineRegistry = ShardedRegistry;

/// What one [`ShardedRegistry::rebalance`] did: how many rows the
/// spec diff actually moved versus left in place, and how many shard
/// replicas were rewritten. `moved_rows / total_rows` is the quantity
/// E22's analytic-bound guard checks (≈ `1 - w1/w2` for a hash grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Rows of the table across all shards.
    pub total_rows: usize,
    /// Rows whose shard assignment changed under the new spec.
    pub moved_rows: usize,
    /// Payload bytes of the moved rows (what actually crossed shards).
    pub moved_bytes: u64,
    /// Rows that stayed on their shard (untouched by the diff).
    pub retained_rows: usize,
    /// Shard replicas physically rewritten.
    pub rebuilt_shards: usize,
    /// Shard replicas the table now spans.
    pub total_shards: usize,
    /// Whether the diff path ran (false = full redistribute fallback).
    pub incremental: bool,
}

impl RebalanceReport {
    /// Fraction of rows moved (0 when the table is empty).
    pub fn moved_fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.moved_rows as f64 / self.total_rows as f64
        }
    }
}

/// All engines of a deployment: shard replicas keyed by engine id —
/// and the deployment's layout, held here and nowhere else: the
/// partition specs routing tables to shards, the device fleet and the
/// materialized-repartition store. The distribution pass reads it
/// through [`crate::physical::Placer::plan_distribution`], and the cost
/// model and the executor read [`ShardedRegistry::fleet`], so a layout
/// change is one write — and one epoch bump, which every plan made
/// before it answers with [`pspp_common::Error::StalePlan`].
#[derive(Debug, Clone)]
pub struct ShardedRegistry {
    engines: BTreeMap<EngineId, Vec<EngineInstance>>,
    partitions: BTreeMap<TableRef, PartitionSpec>,
    /// The deployment's device fleet: CPU-only until set.
    fleet: AcceleratorFleet,
    /// Metrics sink for reshard instrumentation (`None` runs
    /// unobserved).
    metrics: Option<pspp_telemetry::MetricsRegistry>,
    /// Materialized shuffle layouts, epoch-validated against this
    /// registry (cloning the handle shares state with the executor).
    repartitions: MaterializedRepartitions,
    /// Engine-state invalidation epoch: bumped by every mutation API
    /// (registration, `reshard`, partition/fleet changes). Result and
    /// plan caches key entries by this value, so a stale hit after any
    /// mutation is structurally impossible — the old epoch simply never
    /// matches again. Shared (atomically) with the materialized
    /// repartition store so persisted layouts die with the epoch too.
    epoch: Arc<AtomicU64>,
}

impl Default for ShardedRegistry {
    fn default() -> Self {
        let epoch = Arc::new(AtomicU64::new(0));
        ShardedRegistry {
            engines: BTreeMap::new(),
            partitions: BTreeMap::new(),
            fleet: AcceleratorFleet::cpu_only(),
            metrics: None,
            repartitions: MaterializedRepartitions::new(Arc::clone(&epoch)),
            epoch,
        }
    }
}

impl ShardedRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ShardedRegistry::default()
    }

    /// The current engine-state epoch.
    ///
    /// Every mutation API (`register`, `register_sharded`, `reshard`,
    /// `rebalance`, `set_partition`, fleet changes) increments this
    /// counter. Caches that key entries by `(digest, epoch)` — the
    /// service's plan and result caches, the materialized-repartition
    /// store — therefore self-invalidate on any change made through
    /// those APIs without scanning their contents.
    ///
    /// The mutable accessors ([`ShardedRegistry::get_mut`],
    /// [`ShardedRegistry::shard_mut`], [`ShardedRegistry::relational_mut`])
    /// do **not** increment it: they hand out an engine, not a change.
    /// A write made through one of them must be followed by
    /// [`ShardedRegistry::bump_epoch`], or every epoch-keyed cache keeps
    /// serving what the engine held before the write.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bumps the engine-state epoch without changing any engine —
    /// the hook in-band writes (INSERT/DDL through the query path)
    /// use to invalidate epoch-keyed caches.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The materialized-repartition store validated against this
    /// registry's epoch. The executor persists hot shuffle layouts
    /// here and the planner consults it; clone the handle to share.
    pub fn repartitions(&self) -> &MaterializedRepartitions {
        &self.repartitions
    }

    /// Registers a single-replica engine under its id — the
    /// backward-compatible unsharded constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyExists`] on id collisions.
    pub fn register(&mut self, id: EngineId, engine: EngineInstance) -> Result<()> {
        self.register_sharded(id, vec![engine])
    }

    /// Registers an engine as an ordered list of shard replicas.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyExists`] on id collisions,
    /// [`Error::EmptyShardSet`] for zero replicas and
    /// [`Error::Invalid`] when the replicas mix engine kinds.
    pub fn register_sharded(&mut self, id: EngineId, shards: Vec<EngineInstance>) -> Result<()> {
        if self.engines.contains_key(&id) {
            return Err(Error::AlreadyExists(format!("engine {id}")));
        }
        let first = shards
            .first()
            .ok_or_else(|| Error::EmptyShardSet(format!("engine {id} registered with 0 shards")))?;
        let kind = first.kind();
        if shards.iter().any(|s| s.kind() != kind) {
            return Err(Error::Invalid(format!(
                "engine {id} shard replicas mix engine kinds"
            )));
        }
        self.engines.insert(id, shards);
        self.bump_epoch();
        Ok(())
    }

    /// Looks up an engine's primary replica (shard 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`] for unknown ids.
    pub fn get(&self, id: &EngineId) -> Result<&EngineInstance> {
        self.shard(id, ShardId::ZERO)
    }

    /// Mutable primary-replica lookup. Does not bump the epoch: follow a
    /// write through it with [`ShardedRegistry::bump_epoch`] (see
    /// [`ShardedRegistry::epoch`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`] for unknown ids.
    pub fn get_mut(&mut self, id: &EngineId) -> Result<&mut EngineInstance> {
        self.shard_mut(id, ShardId::ZERO)
    }

    /// Looks up one shard replica of an engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`] for unknown ids and
    /// [`Error::Invalid`] for out-of-range shards.
    pub fn shard(&self, id: &EngineId, shard: ShardId) -> Result<&EngineInstance> {
        let shards = self
            .engines
            .get(id)
            .ok_or_else(|| Error::EngineNotFound(id.to_string()))?;
        shards.get(shard.index()).ok_or_else(|| {
            Error::Invalid(format!(
                "engine {id} has {} shard(s), {shard} requested",
                shards.len()
            ))
        })
    }

    /// Mutable shard-replica lookup. Does not bump the epoch: follow a
    /// write through it with [`ShardedRegistry::bump_epoch`] (see
    /// [`ShardedRegistry::epoch`]).
    ///
    /// # Errors
    ///
    /// See [`ShardedRegistry::shard`].
    pub fn shard_mut(&mut self, id: &EngineId, shard: ShardId) -> Result<&mut EngineInstance> {
        let shards = self
            .engines
            .get_mut(id)
            .ok_or_else(|| Error::EngineNotFound(id.to_string()))?;
        let n = shards.len();
        shards.get_mut(shard.index()).ok_or_else(|| {
            Error::Invalid(format!("engine {id} has {n} shard(s), {shard} requested"))
        })
    }

    /// Number of shard replicas deployed for `id` (0 when unknown).
    pub fn shard_count(&self, id: &EngineId) -> usize {
        self.engines.get(id).map_or(0, Vec::len)
    }

    /// The primary relational replica with this id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`] or [`Error::Invalid`] on kind
    /// mismatch.
    pub fn relational(&self, id: &EngineId) -> Result<&RelationalStore> {
        self.relational_shard(id, ShardId::ZERO)
    }

    /// The relational store serving one shard of engine `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`], [`Error::Invalid`] on kind
    /// mismatch or out-of-range shards.
    pub fn relational_shard(&self, id: &EngineId, shard: ShardId) -> Result<&RelationalStore> {
        match self.shard(id, shard)? {
            EngineInstance::Relational(s) => Ok(s),
            other => Err(Error::Invalid(format!(
                "engine {id} is {}, not relational",
                other.kind()
            ))),
        }
    }

    /// Mutable primary relational accessor. Does not bump the epoch:
    /// follow a write through it with [`ShardedRegistry::bump_epoch`]
    /// (see [`ShardedRegistry::epoch`]).
    ///
    /// # Errors
    ///
    /// See [`ShardedRegistry::relational`].
    pub fn relational_mut(&mut self, id: &EngineId) -> Result<&mut RelationalStore> {
        match self.get_mut(id)? {
            EngineInstance::Relational(s) => Ok(s),
            other => Err(Error::Invalid(format!(
                "engine {id} is {}, not relational",
                other.kind()
            ))),
        }
    }

    /// Engine ids with kinds and shard counts, in id order.
    pub fn list(&self) -> Vec<(&EngineId, EngineKind)> {
        self.engines
            .iter()
            .map(|(id, shards)| (id, shards[0].kind()))
            .collect()
    }

    /// Number of logical engines (not replicas).
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Sets the device fleet every shard runs on.
    pub fn set_fleet(&mut self, fleet: AcceleratorFleet) {
        self.fleet = fleet;
        self.bump_epoch();
    }

    /// The deployment's device fleet. Placement prices every task
    /// against it and the executor resolves every task's device against
    /// the same value, so planned and executed device picks agree.
    pub fn fleet(&self) -> &AcceleratorFleet {
        &self.fleet
    }

    /// The partition spec routing `table`, when it is partitioned.
    pub fn partition(&self, table: &TableRef) -> Option<&PartitionSpec> {
        self.partitions.get(table)
    }

    /// Records a partition spec without moving rows (used when shards
    /// were populated pre-distributed, e.g. by `datagen`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`]/[`Error::Config`] for invalid
    /// specs and [`Error::EngineNotFound`] for unknown engines.
    pub fn set_partition(&mut self, table: TableRef, spec: PartitionSpec) -> Result<()> {
        spec.validate()?;
        if !self.engines.contains_key(&table.engine) {
            return Err(Error::EngineNotFound(table.engine.to_string()));
        }
        self.partitions.insert(table, spec);
        self.bump_epoch();
        Ok(())
    }

    /// Re-partitions a relational table across shard replicas: expands
    /// the engine to `spec.shard_count()` replicas (cloning replica 0)
    /// if needed, redistributes the table's rows by partition key, and
    /// records the spec for shard-aware routing. Unpartitioned tables
    /// on the same engine stay whole on every replica but are only ever
    /// read from shard 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EngineNotFound`] for unknown engines,
    /// [`Error::TableNotFound`] for unknown tables, [`Error::Invalid`]
    /// for non-relational engines, [`Error::EmptyShardSet`] for
    /// zero-shard specs, and [`Error::Config`] when the engine is
    /// already sharded to a different replica count.
    pub fn reshard(&mut self, table: &TableRef, spec: PartitionSpec) -> Result<()> {
        spec.validate()?;
        let n = spec.shard_count();
        // Gather concatenates all replicas only when the table's rows
        // were genuinely distributed by a prior non-replicated spec.
        // Replicated and never-partitioned tables hold full copies per
        // replica (a prior reshard of a *different* table on this
        // engine clones whole stores when expanding), so those read
        // shard 0 only — concatenating their copies would duplicate
        // every row.
        let previously_distributed = matches!(
            self.partitions.get(table),
            Some(spec) if !matches!(spec, PartitionSpec::Replicated { .. })
        );
        let shards = self
            .engines
            .get_mut(&table.engine)
            .ok_or_else(|| Error::EngineNotFound(table.engine.to_string()))?;
        if shards.iter().any(|s| s.kind() != EngineKind::Relational) {
            return Err(Error::Invalid(format!(
                "engine {} is {}, not relational: only relational tables reshard",
                table.engine,
                shards[0].kind()
            )));
        }
        if shards.len() != 1 && shards.len() != n {
            return Err(Error::Config(format!(
                "engine {} is already deployed with {} shard(s); all partitioned \
                 tables on one engine must agree on the replica count {n}",
                table.engine,
                shards.len()
            )));
        }

        // Gather the table's full row set in shard order.
        let (schema, indexed, all_rows) = {
            let stores: Vec<&RelationalStore> = shards
                .iter()
                .map(|s| match s {
                    EngineInstance::Relational(store) => store,
                    _ => unreachable!("kind checked above"),
                })
                .collect();
            let t0 = stores[0].table(&table.name)?;
            let schema = t0.schema().clone();
            let indexed: Vec<String> = schema
                .names()
                .iter()
                .filter(|c| t0.has_index(c))
                .map(|c| (*c).to_owned())
                .collect();
            let mut rows = Vec::new();
            for store in if previously_distributed {
                &stores[..]
            } else {
                &stores[..1]
            } {
                rows.extend(store.table(&table.name)?.rows());
            }
            (schema, indexed, rows)
        };
        let buckets = spec.distribute(&schema, &all_rows)?;

        // Expand to n replicas by cloning the primary, then rebuild the
        // table on each replica with its bucket.
        if shards.len() < n {
            let template = shards[0].clone();
            shards.resize(n, template);
        }
        for (shard, bucket) in shards.iter_mut().zip(buckets) {
            let EngineInstance::Relational(store) = shard else {
                unreachable!("kind checked above");
            };
            store.drop_table(&table.name)?;
            store.create_table(table.name.clone(), schema.clone())?;
            store.insert(&table.name, bucket)?;
            for column in &indexed {
                store.create_index(&table.name, column)?;
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics
                .counter(
                    "pspp_reshard_total",
                    "Tables redistributed across shard replicas",
                    &[("table", &table.name)],
                )
                .inc();
            metrics
                .counter(
                    "pspp_reshard_rows_total",
                    "Rows redistributed by reshard operations",
                    &[("table", &table.name)],
                )
                .add(all_rows.len() as u64);
        }
        self.partitions.insert(table.clone(), spec);
        self.bump_epoch();
        Ok(())
    }

    /// Incrementally re-partitions a relational table: diffs the old
    /// and new [`PartitionSpec`] by routing every source shard's rows
    /// under the new spec (the same stable-FNV rule
    /// [`PartitionSpec::route_rows`] scans use) and rewrites only the
    /// shard replicas whose contents actually change. A hash-width
    /// grow `w1 -> w2` with `w1 | w2` moves an expected `1 - w1/w2`
    /// of the rows (see [`pspp_common::hash_grow_moved_fraction`]);
    /// [`ShardedRegistry::reshard`] by contrast gathers and rewrites
    /// everything. A table without a prior spec diffs too: its
    /// authoritative copy sits wholly on shard replica 0, which *is*
    /// a width-1 layout, so the first grow already moves only the
    /// rows that leave shard 0. Only moves to or from `Replicated`
    /// (full copies everywhere — no per-row location to diff) fall
    /// back to the full redistribute, reported as non-incremental.
    ///
    /// Byte-identity with `reshard` holds by construction: each
    /// destination's new contents are the concatenation, in ascending
    /// source-shard order, of the source rows routed to it in their
    /// stored order — exactly the bucket `spec.distribute` builds
    /// from the shard-ordered gather.
    ///
    /// Unlike `reshard`, `rebalance` accepts width changes on an
    /// already-sharded engine (the online-grow path): other tables'
    /// specs keep routing their own (unchanged) extents.
    ///
    /// # Errors
    ///
    /// As [`ShardedRegistry::reshard`], minus the replica-count
    /// restriction.
    pub fn rebalance(&mut self, table: &TableRef, spec: PartitionSpec) -> Result<RebalanceReport> {
        spec.validate()?;
        let n = spec.shard_count();
        let old_spec = self.partitions.get(table).cloned();
        // No prior spec reads as a virtual width-1 layout: the
        // authoritative copy lives on shard replica 0 (replicas
        // cloned from it are rebuilt below, clearing stale copies).
        let incremental = !matches!(old_spec, Some(PartitionSpec::Replicated { .. }))
            && !matches!(spec, PartitionSpec::Replicated { .. });
        let shards = self
            .engines
            .get_mut(&table.engine)
            .ok_or_else(|| Error::EngineNotFound(table.engine.to_string()))?;
        if shards.iter().any(|s| s.kind() != EngineKind::Relational) {
            return Err(Error::Invalid(format!(
                "engine {} is {}, not relational: only relational tables rebalance",
                table.engine,
                shards[0].kind()
            )));
        }
        let old_width = if incremental {
            old_spec
                .as_ref()
                .map_or(1, PartitionSpec::shard_count)
                .min(shards.len())
        } else {
            1
        };
        // The shard extent the table may currently occupy or will
        // occupy: every replica outside the skip rule gets rebuilt.
        // Without a prior spec the whole replica set is suspect
        // (template clones carry full stale copies), as it is on the
        // replicated fallback.
        let extent = n.max(old_width).max(if incremental && old_spec.is_some() {
            0
        } else {
            shards.len()
        });

        // Phase 1 (read-only): route each source shard's rows under
        // the new spec and assemble per-destination buckets in
        // (source, stored-position) order.
        let stores: Vec<&RelationalStore> = shards
            .iter()
            .map(|s| match s {
                EngineInstance::Relational(store) => store,
                _ => unreachable!("kind checked above"),
            })
            .collect();
        let t0 = stores[0].table(&table.name)?;
        let schema = t0.schema().clone();
        let mut buckets: Vec<Vec<Row>> = (0..extent).map(|_| Vec::new()).collect();
        // changed[d]: a row lands on d from a *different* shard, or
        // leaves d.
        let mut changed = vec![false; extent];
        let mut total_rows = 0usize;
        let mut moved_rows = 0usize;
        let mut moved_bytes = 0u64;
        if incremental {
            for (s, store) in stores.iter().enumerate().take(old_width) {
                let rows = store.table(&table.name)?.rows();
                let routes = spec.route_rows(&schema, &rows)?;
                total_rows += rows.len();
                for (row, dest) in rows.into_iter().zip(routes) {
                    let d = dest.index();
                    if d != s {
                        moved_rows += 1;
                        moved_bytes += row.byte_size() as u64;
                        changed[d] = true;
                        changed[s] = true;
                    }
                    buckets[d].push(row);
                }
            }
        } else {
            // Fallback: gather shard 0's copy (never-distributed and
            // replicated tables hold full copies there) and run the
            // plain distribute — every row counts as moved.
            let rows = t0.rows();
            total_rows = rows.len();
            moved_rows = total_rows;
            moved_bytes = rows.iter().map(|r| r.byte_size() as u64).sum();
            for (d, bucket) in spec.distribute(&schema, &rows)?.into_iter().enumerate() {
                buckets[d] = bucket;
            }
        }

        // Phase 2 (write): expand replicas if the new spec needs
        // them, then rewrite every changed shard. A shard is
        // unchanged — skipped entirely — only when it sits inside
        // both the old and new extents and no row arrived or left.
        if shards.len() < n {
            let template = shards[0].clone();
            shards.resize(n, template);
        }
        let mut rebuilt_shards = 0usize;
        for (d, bucket) in buckets.into_iter().enumerate() {
            let unchanged = incremental && d < old_width && d < n && !changed[d];
            if unchanged {
                continue;
            }
            let EngineInstance::Relational(store) = &mut shards[d] else {
                unreachable!("kind checked above");
            };
            store.rebalance_table(&table.name, bucket)?;
            rebuilt_shards += 1;
        }

        if let Some(metrics) = &self.metrics {
            metrics
                .counter(
                    "pspp_rebalance_total",
                    "Incremental rebalance operations",
                    &[("table", &table.name)],
                )
                .inc();
            metrics
                .counter(
                    "pspp_rebalance_moved_rows_total",
                    "Rows moved between shards by rebalance diffs",
                    &[("table", &table.name)],
                )
                .add(moved_rows as u64);
            metrics
                .counter(
                    "pspp_rebalance_retained_rows_total",
                    "Rows left in place by rebalance diffs",
                    &[("table", &table.name)],
                )
                .add((total_rows - moved_rows) as u64);
        }
        self.partitions.insert(table.clone(), spec);
        self.bump_epoch();
        Ok(RebalanceReport {
            total_rows,
            moved_rows,
            moved_bytes,
            retained_rows: total_rows - moved_rows,
            rebuilt_shards,
            total_shards: n,
            incremental,
        })
    }

    /// Counts reshard operations (and redistributed rows) into
    /// `metrics`.
    pub fn set_metrics(&mut self, metrics: pspp_telemetry::MetricsRegistry) {
        self.metrics = Some(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType, Schema};

    #[test]
    fn register_and_lookup() {
        let mut r = ShardedRegistry::new();
        r.register(
            EngineId::new("db1"),
            EngineInstance::Relational(RelationalStore::new("db1")),
        )
        .unwrap();
        r.register(
            EngineId::new("ts"),
            EngineInstance::Timeseries(TimeseriesStore::new("ts")),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.relational(&EngineId::new("db1")).is_ok());
        assert!(r.relational(&EngineId::new("ts")).is_err());
        assert!(r.get(&EngineId::new("nope")).is_err());
        let err = r.register(
            EngineId::new("db1"),
            EngineInstance::Relational(RelationalStore::new("db1")),
        );
        assert!(matches!(err, Err(Error::AlreadyExists(_))));
    }

    #[test]
    fn kinds_reported() {
        let mut r = ShardedRegistry::new();
        r.register(
            EngineId::new("g"),
            EngineInstance::Graph(GraphStore::new("g")),
        )
        .unwrap();
        assert_eq!(r.list()[0].1, EngineKind::Graph);
    }

    #[test]
    fn sharded_registration_and_bounds() {
        let mut r = ShardedRegistry::new();
        r.register_sharded(
            EngineId::new("db"),
            vec![
                EngineInstance::Relational(RelationalStore::new("db")),
                EngineInstance::Relational(RelationalStore::new("db")),
            ],
        )
        .unwrap();
        assert_eq!(r.shard_count(&EngineId::new("db")), 2);
        assert!(r.shard(&EngineId::new("db"), ShardId(1)).is_ok());
        assert!(matches!(
            r.shard(&EngineId::new("db"), ShardId(2)),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            r.register_sharded(EngineId::new("empty"), vec![]),
            Err(Error::EmptyShardSet(_))
        ));
        assert!(matches!(
            r.register_sharded(
                EngineId::new("mixed"),
                vec![
                    EngineInstance::Relational(RelationalStore::new("m")),
                    EngineInstance::Timeseries(TimeseriesStore::new("m")),
                ],
            ),
            Err(Error::Invalid(_))
        ));
    }

    fn table_registry(rows: i64) -> (ShardedRegistry, TableRef) {
        let mut db = RelationalStore::new("db1");
        db.create_table(
            "t",
            Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
        db.insert("t", (0..rows).map(|i| row![i, i * 2]).collect())
            .unwrap();
        db.create_index("t", "k").unwrap();
        let mut r = ShardedRegistry::new();
        r.register(EngineId::new("db1"), EngineInstance::Relational(db))
            .unwrap();
        (r, TableRef::new("db1", "t"))
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let (mut r, t) = table_registry(10);
        let e0 = r.epoch();
        assert!(e0 > 0, "registration already bumped the epoch");
        r.reshard(&t, PartitionSpec::hash("k", 2)).unwrap();
        let e1 = r.epoch();
        assert!(e1 > e0, "reshard bumps the epoch");
        r.set_partition(t.clone(), PartitionSpec::hash("k", 2))
            .unwrap();
        assert!(r.epoch() > e1, "set_partition bumps the epoch");
        assert_eq!(
            r.fleet(),
            &AcceleratorFleet::cpu_only(),
            "an unconfigured registry is CPU-only"
        );
        let before = r.epoch();
        r.set_fleet(AcceleratorFleet::cpu_only());
        assert_eq!(r.epoch(), before + 1, "a fleet change bumps the epoch");
        // Failed mutations leave the epoch untouched.
        let before = r.epoch();
        assert!(r
            .reshard(&TableRef::new("nope", "t"), PartitionSpec::hash("k", 2))
            .is_err());
        assert_eq!(r.epoch(), before);
    }

    #[test]
    fn reshard_distributes_rows_and_keeps_indexes() {
        let (mut r, t) = table_registry(100);
        r.reshard(&t, PartitionSpec::hash("k", 4)).unwrap();
        assert_eq!(r.shard_count(&t.engine), 4);
        let mut total = 0;
        for s in 0..4 {
            let store = r.relational_shard(&t.engine, ShardId(s)).unwrap();
            let tab = store.table("t").unwrap();
            assert!(tab.has_index("k"), "index survives resharding");
            total += tab.len();
        }
        assert_eq!(total, 100);
        assert_eq!(
            r.partition(&t),
            Some(&PartitionSpec::hash("k", 4)),
            "spec recorded for routing"
        );
    }

    #[test]
    fn range_reshard_gathers_back_in_order() {
        let (mut r, t) = table_registry(90);
        let spec = PartitionSpec::range("k", vec![30i64.into(), 60i64.into()]);
        r.reshard(&t, spec).unwrap();
        let mut gathered = Vec::new();
        for s in 0..3 {
            gathered.extend(
                r.relational_shard(&t.engine, ShardId(s))
                    .unwrap()
                    .table("t")
                    .unwrap()
                    .rows(),
            );
        }
        let expected: Vec<_> = (0..90i64).map(|i| row![i, i * 2]).collect();
        assert_eq!(gathered, expected);
    }

    #[test]
    fn resharding_a_second_table_on_an_expanded_engine_keeps_every_row_once() {
        // Regression: after table `a` expands the engine to 2 replicas
        // (cloning table `b` whole onto both), resharding `b` must
        // gather one copy, not concatenate the clones.
        let mut db = RelationalStore::new("db1");
        for name in ["a", "b"] {
            db.create_table(
                name,
                Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
            )
            .unwrap();
            db.insert(name, (0..40i64).map(|i| row![i, i]).collect())
                .unwrap();
        }
        let mut r = ShardedRegistry::new();
        r.register(EngineId::new("db1"), EngineInstance::Relational(db))
            .unwrap();
        r.reshard(&TableRef::new("db1", "a"), PartitionSpec::hash("k", 2))
            .unwrap();
        r.reshard(&TableRef::new("db1", "b"), PartitionSpec::hash("k", 2))
            .unwrap();
        for name in ["a", "b"] {
            let total: usize = (0..2)
                .map(|s| {
                    r.relational_shard(&EngineId::new("db1"), ShardId(s))
                        .unwrap()
                        .table(name)
                        .unwrap()
                        .len()
                })
                .sum();
            assert_eq!(total, 40, "table {name} lost or duplicated rows");
        }
        // Re-resharding an already-distributed table still gathers all
        // of it (2 -> 2 with new buckets).
        r.reshard(&TableRef::new("db1", "a"), PartitionSpec::hash("v", 2))
            .unwrap();
        let total: usize = (0..2)
            .map(|s| {
                r.relational_shard(&EngineId::new("db1"), ShardId(s))
                    .unwrap()
                    .table("a")
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(total, 40);
    }

    fn shard_rows(r: &ShardedRegistry, t: &TableRef, shards: usize) -> Vec<Vec<Row>> {
        (0..shards)
            .map(|s| {
                r.relational_shard(&t.engine, ShardId(s as u32))
                    .unwrap()
                    .table(&t.name)
                    .unwrap()
                    .rows()
            })
            .collect()
    }

    #[test]
    fn rebalance_grow_matches_reshard_byte_for_byte() {
        // Grow 1 -> 2 -> 4 incrementally and compare every shard's
        // bytes against a fresh full reshard of the gathered rows.
        let (mut live, t) = table_registry(200);
        live.reshard(&t, PartitionSpec::hash("k", 2)).unwrap();
        let report = live.rebalance(&t, PartitionSpec::hash("k", 4)).unwrap();
        assert!(report.incremental);
        assert_eq!(report.total_rows, 200);
        assert_eq!(report.moved_rows + report.retained_rows, 200);
        assert!(
            report.moved_fraction() < 0.65,
            "2->4 should move about half, moved {}",
            report.moved_fraction()
        );
        assert!(report.retained_rows > 0, "the diff must retain rows");

        // Reference: gather the 2-shard layout in shard order into a
        // fresh single-replica registry, then full-reshard it to 4.
        let (mut reference, rt) = table_registry(0);
        let gathered: Vec<Row> = {
            let (mut seed, st) = table_registry(200);
            seed.reshard(&st, PartitionSpec::hash("k", 2)).unwrap();
            shard_rows(&seed, &st, 2).into_iter().flatten().collect()
        };
        reference
            .relational_mut(&rt.engine)
            .unwrap()
            .insert("t", gathered)
            .unwrap();
        reference.reshard(&rt, PartitionSpec::hash("k", 4)).unwrap();
        assert_eq!(
            shard_rows(&live, &t, 4),
            shard_rows(&reference, &rt, 4),
            "rebalance and reshard must produce identical shard contents"
        );
        // Indexes survive the incremental patch.
        for s in 0..4 {
            assert!(live
                .relational_shard(&t.engine, ShardId(s))
                .unwrap()
                .table("t")
                .unwrap()
                .has_index("k"));
        }
    }

    #[test]
    fn identity_rebalance_touches_nothing() {
        let (mut r, t) = table_registry(100);
        r.reshard(&t, PartitionSpec::hash("k", 4)).unwrap();
        let before = shard_rows(&r, &t, 4);
        let report = r.rebalance(&t, PartitionSpec::hash("k", 4)).unwrap();
        assert_eq!(report.moved_rows, 0);
        assert_eq!(report.rebuilt_shards, 0, "no shard content changed");
        assert_eq!(report.retained_rows, 100);
        assert_eq!(shard_rows(&r, &t, 4), before);
    }

    #[test]
    fn rebalance_without_prior_spec_diffs_against_shard_zero() {
        // A never-distributed table is a width-1 layout in disguise:
        // its authoritative copy sits wholly on shard replica 0, so
        // the first grow already diffs instead of paying for every
        // row — and still matches a full reshard byte-for-byte.
        let (mut r, t) = table_registry(100);
        let reference = {
            let (mut full, ft) = table_registry(100);
            full.reshard(&ft, PartitionSpec::hash("k", 2)).unwrap();
            shard_rows(&full, &ft, 2)
        };
        let report = r.rebalance(&t, PartitionSpec::hash("k", 2)).unwrap();
        assert!(report.incremental);
        assert_eq!(report.moved_rows + report.retained_rows, 100);
        assert!(report.retained_rows > 0, "rows routed to shard 0 stay put");
        let bound = pspp_common::hash_grow_moved_fraction(1, 2).unwrap();
        assert!(
            (report.moved_fraction() - bound).abs() < 0.15,
            "1 -> 2 should move about half, moved {}",
            report.moved_fraction()
        );
        assert_eq!(shard_rows(&r, &t, 2), reference);
    }

    #[test]
    fn rebalance_shrink_clears_trailing_shards() {
        let (mut r, t) = table_registry(120);
        r.reshard(&t, PartitionSpec::hash("k", 4)).unwrap();
        let report = r.rebalance(&t, PartitionSpec::hash("k", 2)).unwrap();
        assert!(report.incremental);
        let rows = shard_rows(&r, &t, 4);
        assert_eq!(rows[0].len() + rows[1].len(), 120);
        assert!(rows[2].is_empty() && rows[3].is_empty());
        // Reference: full reshard of the gathered 4-shard order to 2.
        let (mut reference, rt) = table_registry(0);
        let gathered: Vec<Row> = {
            let (mut seed, st) = table_registry(120);
            seed.reshard(&st, PartitionSpec::hash("k", 4)).unwrap();
            shard_rows(&seed, &st, 4).into_iter().flatten().collect()
        };
        reference
            .relational_mut(&rt.engine)
            .unwrap()
            .insert("t", gathered)
            .unwrap();
        reference.reshard(&rt, PartitionSpec::hash("k", 2)).unwrap();
        assert_eq!(shard_rows(&r, &t, 2), shard_rows(&reference, &rt, 2));
    }

    #[test]
    fn rebalance_bumps_epoch_and_invalidates_repartitions() {
        let (mut r, t) = table_registry(50);
        r.reshard(&t, PartitionSpec::hash("k", 2)).unwrap();
        let store = r.repartitions().clone();
        let key = pspp_common::CopyKey {
            table: t.clone(),
            column: "k".into(),
            width: 2,
            signature: 1,
        };
        store.store(key.clone(), vec![vec![0]], 8);
        assert!(store.contains(&key));
        let before = r.epoch();
        r.rebalance(&t, PartitionSpec::hash("k", 4)).unwrap();
        assert!(r.epoch() > before);
        assert!(
            !store.contains(&key),
            "a rebalance must invalidate persisted layouts"
        );
    }

    #[test]
    fn reshard_error_paths_are_typed() {
        let (mut r, t) = table_registry(10);
        assert!(matches!(
            r.reshard(&TableRef::new("nope", "t"), PartitionSpec::hash("k", 2)),
            Err(Error::EngineNotFound(_))
        ));
        assert!(matches!(
            r.reshard(
                &TableRef::new("db1", "missing"),
                PartitionSpec::hash("k", 2)
            ),
            Err(Error::TableNotFound(_))
        ));
        assert!(matches!(
            r.reshard(&t, PartitionSpec::hash("k", 0)),
            Err(Error::EmptyShardSet(_))
        ));
        r.reshard(&t, PartitionSpec::hash("k", 2)).unwrap();
        assert!(matches!(
            r.reshard(&t, PartitionSpec::hash("k", 3)),
            Err(Error::Config(_)),
        ));
        let mut ts = ShardedRegistry::new();
        ts.register(
            EngineId::new("ts"),
            EngineInstance::Timeseries(TimeseriesStore::new("ts")),
        )
        .unwrap();
        assert!(matches!(
            ts.reshard(&TableRef::new("ts", "t"), PartitionSpec::hash("k", 2)),
            Err(Error::Invalid(_))
        ));
    }
}
