//! The placer: *where* each node executes, and what it costs to stage
//! the node's inputs there.

use std::sync::Arc;

use pspp_accel::CostLedger;
use pspp_common::{EngineId, Error, PartitionSpec, Result, ShardId};
use pspp_ir::{ColumnDemand, PlanOptions, Program, ProgramNode, ShardPlan};
use pspp_migrate::{MigrationPath, Migrator};
use pspp_relstore::Selection;
use pspp_telemetry::MetricsRegistry;

use crate::dataset::{Dataset, Payload, RowBuf};
use crate::registry::EngineRegistry;

/// What staging one node's inputs cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationBill {
    /// Simulated seconds spent migrating foreign inputs.
    pub seconds: f64,
    /// Number of inputs that crossed an engine boundary.
    pub migrated_inputs: usize,
}

/// Owns target-engine resolution and cross-engine migration accounting.
///
/// Placement policy, in priority order:
///
/// 1. the optimizer's engine annotation ([`pspp_ir::Annotations`]),
/// 2. the engine owning a source operator's table,
/// 3. data gravity — the engine already holding the first input.
///
/// When a node's input lives on a different engine than the resolved
/// target, the placer invokes the migrator exactly once for that input,
/// charging the transfer to its ledger and rehoming the dataset. Every
/// migration runs over the binary pipe ([`MigrationPath::BinaryPipe`]).
#[derive(Debug, Clone)]
pub struct Placer {
    migrator: Migrator,
    metrics: Option<MetricsRegistry>,
}

impl Placer {
    /// A placer posting migration costs to `ledger` — the executor
    /// builds one per run, over the run's ledger.
    pub fn new(ledger: CostLedger) -> Self {
        Placer {
            migrator: Migrator::new().with_ledger(ledger),
            metrics: None,
        }
    }

    /// Records per-input migration counts and simulated durations into
    /// `metrics`. Histogram observations are commutative, so recording
    /// from queries running at the same time stays deterministic.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The engine `node` executes on, given its already-resolved input
    /// datasets (a colocated task's inputs are per-shard partials).
    /// Priority: optimizer annotation, then the source table's engine,
    /// then data gravity (the engine already holding the first input,
    /// so cross-engine joins pay migration at every optimization
    /// level).
    pub fn target_engine_of(node: &ProgramNode, inputs: &[Dataset]) -> Option<EngineId> {
        if let Some(e) = &node.annotations.engine {
            return Some(e.clone());
        }
        if let Some(t) = node.op.source_table() {
            return Some(t.engine.clone());
        }
        inputs.first().map(|d| d.location.clone())
    }

    /// The distribution pass, run once per optimization by
    /// `Polystore::optimize_at`: plans every node of `program` — its
    /// output distribution, scatter set and exchange edges (see
    /// [`ShardPlan::plan`] for the propagation lattice) — from the
    /// registry's partition specs, validating each partitioned source
    /// table against the deployed replicas, and stores the plan, stamped
    /// with the registry's epoch, on the program for the cost model to
    /// price and the executor to run. `PlanOptions::gathered()` reverts
    /// every non-source node to a gather (the gathered baseline E18
    /// compares against), `exchange: false` alone only the
    /// shuffle/merge-partials exchanges (E19's baseline); with
    /// `options.materialize` on, a `ShuffleHash` edge whose
    /// [`pspp_ir::shuffle_copy_key`] has a live layout in the registry's
    /// copy store now plans as a copy-served exchange (see
    /// [`ShardPlan::plan_with_copies`]).
    ///
    /// The scatter decision follows a table's *physical* home — source
    /// reads always hit `table.engine`'s replicas, so an optimizer
    /// annotation diverting the node elsewhere changes cost attribution
    /// and output routing, never the scatter width (reading one replica
    /// of a distributed table would silently drop rows). Returns the
    /// stored plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] when a partitioned table no
    /// longer exists on its engine, [`Error::Invalid`] when its engine
    /// is not relational or under-replicated, and
    /// [`Error::EmptyShardSet`] for zero-shard specs.
    pub fn plan_distribution(
        program: &mut Program,
        registry: &EngineRegistry,
        options: PlanOptions,
    ) -> Result<Arc<ShardPlan>> {
        // Read before the specs: a plan is never stamped newer than the
        // layout it read.
        let epoch = registry.epoch();
        // Deployment validation per partitioned source: the table must
        // still exist on a relational engine with enough replicas.
        for node in program.nodes() {
            let Some(table) = node.op.source_table() else {
                continue;
            };
            let Some(spec) = registry.partition(table) else {
                continue;
            };
            registry.relational(&table.engine)?.table(&table.name)?;
            Self::scatter_for(spec, registry.shard_count(&table.engine))?;
        }
        let copies = registry.repartitions();
        let mut plan = ShardPlan::plan_with_copies(
            program,
            |t| registry.partition(t).cloned(),
            |k| copies.contains(k),
            options,
        )?;
        plan.epoch = epoch;
        program.set_shard_plan(plan);
        program.shard_plan().cloned()
    }

    /// The scatter set of `spec` against an engine deployed with
    /// `replicas` shard replicas.
    ///
    /// Replicated specs only ever *read* one replica (and broadcast
    /// joins read the gathered copy), so any deployment with at least
    /// one replica serves them — a `replicated x 8` table on a 2-replica
    /// engine is fine, where a hash/range spec needs every shard
    /// deployed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyShardSet`] for zero-shard specs and
    /// [`Error::Invalid`] when a hash/range spec needs more replicas
    /// than are deployed.
    pub fn scatter_for(spec: &PartitionSpec, replicas: usize) -> Result<Vec<ShardId>> {
        let shards = spec.scatter_shards();
        if shards.is_empty() {
            return Err(Error::EmptyShardSet(format!(
                "partition spec {spec} routes to no shards"
            )));
        }
        let needed = match spec {
            PartitionSpec::Replicated { .. } => 1,
            _ => spec.shard_count(),
        };
        if needed > replicas {
            return Err(Error::Invalid(format!(
                "partition spec {spec} needs {needed} replicas, engine has {replicas}"
            )));
        }
        Ok(shards)
    }

    /// Stages a task's resolved input datasets at `target`, migrating
    /// every input located on a different engine (exactly one migrator
    /// invocation per foreign input). The executor passes per-shard
    /// partials here for colocated tasks, so each shard's foreign
    /// partial pays exactly one migrator trip.
    ///
    /// `demands[i]` names the columns of input `i` that its consumers
    /// read (its producer's [`pspp_ir::Annotations::demand`]; `None` or
    /// a missing entry is every column). The codec ships a `Batch` of
    /// those columns alone — the others are never encoded, priced on the
    /// wire or decoded — and the input arrives as a selection of every
    /// row of the batch the codec decoded ([`Selection::all`]), under the
    /// narrowed schema: every kernel and ML adapter reads it where it
    /// lies, and its rows are built only if a consumer derefs them. A
    /// scan's selection is batched where it lies: its columns are copied
    /// out of the table's snapshot at the kept positions, and no row of
    /// it is built. An input that stays where it is, or has no rows to
    /// move, is handed on as it came, by pointer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Migration`] when the migrator fails, and
    /// [`Error::ColumnNotFound`] when a demand names a column the input
    /// does not have.
    pub fn stage_datasets(
        &self,
        inputs: Vec<Dataset>,
        demands: &[Option<&ColumnDemand>],
        target: Option<&EngineId>,
        registry: &EngineRegistry,
    ) -> Result<(Vec<Dataset>, MigrationBill)> {
        let mut staged = Vec::with_capacity(inputs.len());
        let mut bill = MigrationBill::default();
        for (idx, mut d) in inputs.into_iter().enumerate() {
            if let (Some(target), Payload::Rows { schema, rows }) = (target, &d.payload) {
                if d.location != *target && !rows.is_empty() {
                    let to_model = registry
                        .get(target)
                        .map(|e| e.kind().native_model())
                        .unwrap_or(d.model);
                    let keep: Vec<usize> = match demands.get(idx).copied().flatten() {
                        Some(demand) => demand
                            .columns
                            .iter()
                            .map(|column| schema.require(column))
                            .collect::<Result<_>>()?,
                        None => (0..schema.arity()).collect(),
                    };
                    let batch = rows
                        .selected()
                        .and_then(|selected| selected.to_batch(schema, &keep))
                        .map_err(|e| {
                            Error::Migration(format!("cannot batch rows for migration: {e}"))
                        })?;
                    let (decoded, report) = self.migrator.migrate(
                        &batch,
                        MigrationPath::BinaryPipe,
                        d.model,
                        to_model,
                    )?;
                    bill.seconds += report.total.as_secs();
                    bill.migrated_inputs += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics
                            .counter(
                                "pspp_migrations_total",
                                "Inputs migrated across engine boundaries",
                                &[],
                            )
                            .inc();
                        metrics
                            .histogram(
                                "pspp_migration_seconds",
                                "Simulated seconds per cross-engine input migration",
                                &[],
                            )
                            .observe_seconds(report.total.as_secs());
                    }
                    let schema = decoded.schema().clone();
                    let rows = RowBuf::selection(Selection::all(decoded)?);
                    d = Dataset::from_buf(schema, rows, to_model, target.clone());
                }
            }
            staged.push(d);
        }
        Ok((staged, bill))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::TableRef;
    use pspp_common::{row, DataModel, DataType, Schema};
    use pspp_ir::{Operator, Program};
    use pspp_relstore::RelationalStore;

    use crate::registry::EngineInstance;

    fn two_engine_registry() -> EngineRegistry {
        let mut r = EngineRegistry::new();
        for name in ["db1", "db2"] {
            let mut db = RelationalStore::new(name);
            db.create_table("t", Schema::new(vec![("k", DataType::Int)]))
                .unwrap();
            db.insert("t", (0..50).map(|i| row![i as i64]).collect())
                .unwrap();
            r.register(EngineId::new(name), EngineInstance::Relational(db))
                .unwrap();
        }
        r
    }

    /// A join program over two engines; returns (program, join node id).
    fn join_program() -> (Program, pspp_ir::NodeId) {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "t")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "t")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![a, b],
            "sql",
        );
        (p, j)
    }

    fn dataset_at(engine: &str, n: i64) -> Dataset {
        Dataset::rows(
            Schema::new(vec![("k", DataType::Int)]),
            (0..n).map(|i| row![i]).collect(),
            DataModel::Relational,
            EngineId::new(engine),
        )
    }

    #[test]
    fn two_engine_join_migrates_exactly_the_foreign_input() {
        let (p, j) = join_program();
        let registry = two_engine_registry();
        let ledger = CostLedger::new();
        let placer = Placer::new(ledger.clone());
        let inputs = vec![dataset_at("db1", 50), dataset_at("db2", 50)];

        // Annotated target db1: only the db2 input is foreign.
        let mut node = p.node(j).clone();
        node.annotations.engine = Some(EngineId::new("db1"));
        let target = Placer::target_engine_of(&node, &inputs);
        assert_eq!(target, Some(EngineId::new("db1")));
        let (inputs, bill) = placer
            .stage_datasets(inputs, &[], target.as_ref(), &registry)
            .unwrap();
        assert_eq!(bill.migrated_inputs, 1, "exactly one foreign input");
        assert!(bill.seconds > 0.0);
        assert!(inputs.iter().all(|d| d.location == EngineId::new("db1")));
        let transfers = ledger
            .events()
            .iter()
            .filter(|e| e.component == "migrate.transfer")
            .count();
        assert_eq!(transfers, 1, "one migrator invocation per foreign input");
    }

    #[test]
    fn a_demand_narrows_what_the_codec_ships_and_nothing_else() {
        let registry = two_engine_registry();
        let ledger = CostLedger::new();
        let placer = Placer::new(ledger.clone());
        let wide = |engine: &str| {
            Dataset::rows(
                Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
                (0..50).map(|i| row![i, 2 * i]).collect(),
                DataModel::Relational,
                EngineId::new(engine),
            )
        };
        let demand = |column: &str| ColumnDemand {
            columns: [column.to_string()].into(),
            of: 2,
        };
        let (v, target) = (demand("v"), EngineId::new("db1"));
        // The foreign input arrives as `[v]`; the local one, under the
        // same demand, is handed on as it came.
        let inputs = vec![wide("db2"), wide("db1")];
        let buffer = |d: &Dataset| match &d.payload {
            Payload::Rows { rows, .. } => rows.clone(),
            Payload::Model(_) => panic!("rows"),
        };
        let local = buffer(&inputs[1]);
        let (staged, bill) = placer
            .stage_datasets(inputs, &[Some(&v), Some(&v)], Some(&target), &registry)
            .unwrap();
        assert_eq!(bill.migrated_inputs, 1);
        assert_eq!(staged[0].schema().unwrap().names(), vec!["v"]);
        assert_eq!(staged[0].try_rows().unwrap()[3], row![6i64]);
        assert_eq!(staged[0].location, target);
        assert!(buffer(&staged[1]).ptr_eq(&local));
        let shipped: Vec<u64> = ledger
            .events()
            .iter()
            .filter(|e| e.component == "migrate.transfer")
            .map(|e| e.bytes)
            .collect();
        assert_eq!(shipped, [50 * 8]);
        // A demand the input cannot meet is a typed error, not a guess.
        let lost = demand("zzz");
        let err = placer
            .stage_datasets(vec![wide("db2")], &[Some(&lost)], Some(&target), &registry)
            .unwrap_err();
        assert!(matches!(err, Error::ColumnNotFound(c) if c == "zzz"));
    }

    #[test]
    fn data_gravity_migrates_only_the_second_input() {
        let (p, j) = join_program();
        let registry = two_engine_registry();
        let placer = Placer::new(CostLedger::new());
        let inputs = vec![dataset_at("db1", 50), dataset_at("db2", 50)];

        // No annotation: data gravity pulls the join to the first
        // input's engine, so the second input pays exactly one trip.
        let target = Placer::target_engine_of(p.node(j), &inputs);
        assert_eq!(target, Some(EngineId::new("db1")));
        let (_, bill) = placer
            .stage_datasets(inputs, &[], target.as_ref(), &registry)
            .unwrap();
        assert_eq!(bill.migrated_inputs, 1);
    }

    #[test]
    fn local_inputs_pay_no_migration() {
        let (p, j) = join_program();
        let registry = two_engine_registry();
        let ledger = CostLedger::new();
        let placer = Placer::new(ledger.clone());
        let inputs = vec![dataset_at("db1", 50), dataset_at("db1", 50)];

        let target = Placer::target_engine_of(p.node(j), &inputs);
        let (_, bill) = placer
            .stage_datasets(inputs, &[], target.as_ref(), &registry)
            .unwrap();
        assert_eq!(bill, MigrationBill::default());
        assert!(ledger.is_empty());
    }

    #[test]
    fn scatter_routes_partitioned_scans_and_defaults_to_shard_zero() {
        let mut registry = two_engine_registry();
        registry
            .reshard(
                &TableRef::new("db1", "t"),
                pspp_common::PartitionSpec::hash("k", 2),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "t")), "sql");
        // Unpartitioned table: single-shard plan.
        let s2 = p.add_source(Operator::scan(TableRef::new("db2", "t")), "sql");
        let scatter = |p: &mut Program, id| {
            Placer::plan_distribution(p, &registry, PlanOptions::default())
                .unwrap()
                .node(id)
                .scatter
                .clone()
        };
        assert_eq!(scatter(&mut p, s), vec![ShardId(0), ShardId(1)]);
        assert_eq!(scatter(&mut p, s2), vec![ShardId::ZERO]);
        // An annotation diverting the node elsewhere must NOT narrow
        // the scatter: the read still hits every replica of the
        // table's physical home (one replica holds a fraction of the
        // rows).
        p.node_mut(s).annotations.engine = Some(EngineId::new("db2"));
        assert_eq!(scatter(&mut p, s), vec![ShardId(0), ShardId(1)]);
    }

    #[test]
    fn scatter_unknown_table_is_typed() {
        let mut registry = two_engine_registry();
        registry
            .set_partition(
                TableRef::new("db1", "ghost"),
                pspp_common::PartitionSpec::hash("k", 2),
            )
            .unwrap();
        let mut p = Program::new();
        p.add_source(Operator::scan(TableRef::new("db1", "ghost")), "sql");
        let err = Placer::plan_distribution(&mut p, &registry, PlanOptions::default()).unwrap_err();
        assert!(matches!(err, Error::TableNotFound(_)), "got {err:?}");
    }

    #[test]
    fn scatter_kind_mismatch_is_typed() {
        let mut registry = two_engine_registry();
        registry
            .register(
                EngineId::new("ts"),
                crate::registry::EngineInstance::Timeseries(pspp_tsstore::TimeseriesStore::new(
                    "ts",
                )),
            )
            .unwrap();
        registry
            .set_partition(
                TableRef::new("ts", "t"),
                pspp_common::PartitionSpec::hash("k", 2),
            )
            .unwrap();
        let mut p = Program::new();
        p.add_source(Operator::scan(TableRef::new("ts", "t")), "sql");
        let err = Placer::plan_distribution(&mut p, &registry, PlanOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "got {err:?}");
    }

    #[test]
    fn scatter_empty_shard_set_is_typed() {
        let err = Placer::scatter_for(&pspp_common::PartitionSpec::hash("k", 0), 4).unwrap_err();
        assert!(matches!(err, Error::EmptyShardSet(_)), "got {err:?}");
        let err = Placer::scatter_for(&pspp_common::PartitionSpec::replicated(0), 4).unwrap_err();
        assert!(matches!(err, Error::EmptyShardSet(_)), "got {err:?}");
        // Under-replicated engine: typed, not a panic.
        let err = Placer::scatter_for(&pspp_common::PartitionSpec::hash("k", 8), 2).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "got {err:?}");
    }

    #[test]
    fn replicated_specs_scatter_from_any_deployed_replica() {
        // Regression: a replicated table only ever reads one replica
        // (and serves broadcast joins from its full copy), so a spec
        // declaring more copies than the engine deploys must not fail
        // the scatter the way an under-replicated hash spec does.
        let shards = Placer::scatter_for(&pspp_common::PartitionSpec::replicated(8), 2).unwrap();
        assert_eq!(shards, vec![ShardId::ZERO]);
        let shards = Placer::scatter_for(&pspp_common::PartitionSpec::replicated(2), 2).unwrap();
        assert_eq!(shards, vec![ShardId::ZERO]);
    }

    #[test]
    fn plan_distribution_validates_the_deployment() {
        let mut registry = two_engine_registry();
        registry
            .reshard(
                &TableRef::new("db1", "t"),
                pspp_common::PartitionSpec::hash("k", 2),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "t")), "sql");
        p.mark_output(s);
        let plan = Placer::plan_distribution(&mut p, &registry, PlanOptions::default()).unwrap();
        assert_eq!(plan.node(s).scatter_width(), 2);
        assert!(plan.node(s).distribution.is_partitioned());

        // Unknown partitioned table: typed, not a panic.
        registry
            .set_partition(
                TableRef::new("db1", "ghost"),
                pspp_common::PartitionSpec::hash("k", 2),
            )
            .unwrap();
        let mut p2 = Program::new();
        let g = p2.add_source(Operator::scan(TableRef::new("db1", "ghost")), "sql");
        p2.mark_output(g);
        let err =
            Placer::plan_distribution(&mut p2, &registry, PlanOptions::default()).unwrap_err();
        assert!(matches!(err, Error::TableNotFound(_)), "got {err:?}");
    }

    #[test]
    fn annotation_beats_source_table_and_gravity() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "t")), "sql");
        let mut node = p.node(s).clone();
        assert_eq!(
            Placer::target_engine_of(&node, &[]),
            Some(EngineId::new("db1")),
            "source table engine wins without an annotation"
        );
        node.annotations.engine = Some(EngineId::new("db2"));
        assert_eq!(
            Placer::target_engine_of(&node, &[]),
            Some(EngineId::new("db2")),
            "optimizer annotation wins"
        );
    }
}
