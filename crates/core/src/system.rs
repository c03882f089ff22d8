//! The [`Polystore`] facade: EIDE configuration, compilation,
//! optimization and execution in one object (Fig. 4).

use pspp_accel::{AcceleratorFleet, CostLedger, CostSummary};
use pspp_common::{PartitionSpec, Result, TableRef, Value};
use pspp_frontend::nlq::{self, ClinicalNames};
use pspp_frontend::{sql, Catalog, HeterogeneousProgram};
use pspp_ir::{PlanOptions, Program};
use pspp_optimizer::{optimize_l1, price, CostModel, OptLevel, PlacementPlan, RewriteReport};
use pspp_runtime::{EngineRegistry, ExecutionReport, Executor, Placer};
use pspp_telemetry::{explain_analyze, MetricsRegistry, SpanTree};

use crate::datagen::{self, Deployment};

/// Everything a run produces: results, plan info, and simulated costs.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Executor accounting and outputs.
    pub execution: ExecutionReport,
    /// L1 rules applied (empty at `OptLevel::None`).
    pub rewrites: RewriteReport,
    /// Placement summary when L2+ ran.
    pub placement: Option<PlacementPlan>,
    /// Ledger totals for the run.
    pub costs: CostSummary,
}

impl RunReport {
    /// The effective simulated makespan.
    pub fn makespan(&self) -> f64 {
        self.execution.makespan()
    }

    /// Builds this run's span tree from the executor's traces: one span
    /// per node, task and exchange edge on the simulated clock, with
    /// the critical path marked. `query` names the root span.
    pub fn span_tree(&self, query: &str) -> SpanTree {
        SpanTree::build(query, &self.execution.traces, self.makespan())
    }

    /// Renders this run as an `EXPLAIN ANALYZE` text tree: planned cost
    /// (when L2+ placement ran) side by side with executed cost, per
    /// node, with device picks, host fallbacks and exchange rows.
    pub fn explain_analyze(&self) -> String {
        let planned = self.placement.as_ref().map(PlacementPlan::planned_costs);
        explain_analyze(&self.execution.traces, planned.as_ref(), self.makespan())
    }
}

/// Builder for a [`Polystore`] system.
#[derive(Debug, Clone)]
pub struct PolystoreBuilder {
    deployment: Deployment,
    fleet: AcceleratorFleet,
    opt_level: OptLevel,
    plan_options: PlanOptions,
    shards: usize,
    partitions: Vec<(TableRef, PartitionSpec)>,
}

impl PolystoreBuilder {
    /// Attaches the accelerator fleet every shard runs on (default:
    /// CPU only).
    pub fn accelerators(mut self, fleet: AcceleratorFleet) -> Self {
        self.fleet = fleet;
        self
    }

    /// Deploys every partition-declared table across `n` shard
    /// replicas (default: 1, unsharded). Hash and replicated specs
    /// rescale their shard count; range specs re-derive balanced split
    /// points from the deployment's actual data.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Declares (or overrides) one table's partition spec, in addition
    /// to the specs the deployment's catalog already carries.
    pub fn partition(mut self, table: TableRef, spec: PartitionSpec) -> Self {
        self.partitions.push((table, spec));
        self
    }

    /// Sets the optimization level (default: `L2`) — the one level the
    /// built system plans and executes at: L1 rewrites from L1 on,
    /// cost-based placement and accelerator offload from L2 on,
    /// pipelined stages at L3 (§IV-D).
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Sets the plan switches (default: [`PlanOptions::default`]) — the
    /// value the distribution pass runs under, once per optimization.
    /// The plan keeps it, so the cost model and the executor read the
    /// switches off the plan they price and run:
    ///
    /// * `colocate` (on): compatibly-partitioned joins, partition-wise
    ///   `GroupBy`s and distribution-preserving filters/projections run
    ///   per shard. Off reverts to gather-before-join — the
    ///   bit-identical baseline E18 compares against — and takes the
    ///   exchanges with it.
    /// * `exchange` (on): shuffled joins on mismatched partition keys
    ///   and partial-aggregate + merge `GroupBy`s. Off reverts those
    ///   nodes to the gathered plan — the baseline E19 compares against.
    /// * `fusion` (on): adjacent plan nodes whose device picks land on
    ///   the same coprocessor of the same shard run back-to-back on the
    ///   device, paying the host↔device (PCIe) transfer once at the
    ///   chain head instead of per node. Off restores strictly per-node
    ///   offload pricing — the unfused baseline E23 compares against.
    /// * `materialize` (off): the executor persists shuffled layouts
    ///   whose cumulative exchange cost exceeds the one-time copy cost
    ///   into the registry's copy store, plans made after that serve
    ///   the same shuffle edges from the stored layouts (zero rows
    ///   routed), and the cost model prices copy-served edges at zero.
    ///   A program optimized before a layout was persisted runs the
    ///   shuffle it was priced with. Any epoch bump (reshard,
    ///   rebalance, DDL) invalidates every stored layout.
    pub fn plan_options(mut self, options: PlanOptions) -> Self {
        self.plan_options = options;
        self
    }

    /// Finalizes the system, materializing partition specs: every
    /// declared partition with more than one shard redistributes its
    /// table's rows across engine replicas by partition key.
    ///
    /// # Errors
    ///
    /// Returns typed errors for invalid partition specs (unknown
    /// table/engine, kind mismatch, empty shard set, conflicting
    /// replica counts).
    pub fn build(mut self) -> Result<Polystore> {
        // The metrics registry exists before the first reshard so
        // build-time redistribution is counted too.
        let metrics = MetricsRegistry::new();
        self.deployment.registry.set_metrics(metrics.clone());
        // Catalog-declared specs first (BTreeMap order), then explicit
        // builder overrides.
        let mut specs: Vec<(TableRef, PartitionSpec)> = self
            .deployment
            .catalog
            .partitions()
            .map(|(t, s)| (t.clone(), s.clone()))
            .collect();
        for (table, spec) in std::mem::take(&mut self.partitions) {
            match specs.iter_mut().find(|(t, _)| *t == table) {
                Some(existing) => existing.1 = spec,
                None => specs.push((table, spec)),
            }
        }
        for (table, mut spec) in specs {
            if self.shards > 1 {
                spec = scale_spec(spec, self.shards, &self.deployment.registry, &table)?;
            }
            if spec.shard_count() > 1 {
                self.deployment.registry.reshard(&table, spec.clone())?;
                self.deployment.catalog.set_partition(table, spec)?;
            }
        }

        // The fleet rides the registry, where the planner and the
        // executor both read it.
        self.deployment.registry.set_fleet(self.fleet);
        Ok(Polystore {
            registry: self.deployment.registry,
            catalog: self.deployment.catalog,
            clinical_names: self.deployment.clinical_names,
            cost_model: CostModel::new(self.deployment.stats),
            opt_level: self.opt_level,
            plan_options: self.plan_options,
            ledger: CostLedger::new(),
            metrics,
        })
    }
}

/// Rescales a partition spec to `n` shards: hash/replicated specs
/// change their count, range specs re-derive balanced split points
/// from the partition column's current values (sorted, then split at
/// even ranks — `datagen` distributing rows by partition key).
fn scale_spec(
    spec: PartitionSpec,
    n: usize,
    registry: &EngineRegistry,
    table: &TableRef,
) -> Result<PartitionSpec> {
    Ok(match spec {
        PartitionSpec::Hash { column, .. } => PartitionSpec::hash(column, n as u32),
        PartitionSpec::Replicated { .. } => PartitionSpec::replicated(n as u32),
        range @ PartitionSpec::Range { .. } if range.shard_count() == n => range,
        PartitionSpec::Range { column, .. } => {
            let store = registry.relational(&table.engine)?;
            let t = store.table(&table.name)?;
            let idx = t.schema().require(&column)?;
            let source = t.source();
            let mut values: Vec<Value> = (0..t.len())
                .map(|p| source.cell(p, idx).to_value())
                .collect();
            values.sort();
            PartitionSpec::range(column, datagen::range_split_points(&values, n))
        }
    })
}

/// A configured Polystore++ system.
#[derive(Debug, Clone)]
pub struct Polystore {
    registry: EngineRegistry,
    catalog: Catalog,
    clinical_names: ClinicalNames,
    cost_model: CostModel,
    opt_level: OptLevel,
    plan_options: PlanOptions,
    ledger: CostLedger,
    metrics: MetricsRegistry,
}

impl Polystore {
    /// Starts a builder from a generated [`Deployment`].
    pub fn from_deployment(deployment: Deployment) -> PolystoreBuilder {
        PolystoreBuilder {
            deployment,
            fleet: AcceleratorFleet::cpu_only(),
            opt_level: OptLevel::L2,
            plan_options: PlanOptions::default(),
            shards: 1,
            partitions: Vec::new(),
        }
    }

    /// Alias for [`Polystore::from_deployment`], reading as a builder
    /// entry point.
    pub fn builder() -> PolystoreBuilder {
        Polystore::from_deployment(Deployment {
            registry: EngineRegistry::new(),
            catalog: Catalog::new(),
            stats: std::collections::HashMap::new(),
            clinical_names: ClinicalNames::default(),
        })
    }

    /// The shared simulated-cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The system-wide metrics registry: executor, placer, kernel-charge and
    /// reshard instrumentation accumulates here (the service layer adds
    /// its own admission/cache/query series). Clones share storage.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine registry.
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }

    /// The engine-state invalidation epoch (see
    /// [`ShardedRegistry::epoch`](pspp_runtime::ShardedRegistry::epoch)).
    /// Result and plan caches key entries by this value; any engine
    /// mutation bumps it and orphans every older entry.
    pub fn epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Re-partitions a table mid-run: rows move to their new shard
    /// replicas in the registry — the one layout subsequent plans price
    /// and scatter against — the catalog's declaration follows, and the
    /// engine-state epoch bump orphans every cached plan and result
    /// derived under the old layout.
    ///
    /// Requires `&mut self`, so a shared service (`Arc<Polystore>`)
    /// cannot race this — only an exclusive owner (e.g. the session
    /// core's deterministic event loop) reshards mid-run.
    ///
    /// # Errors
    ///
    /// Propagates the registry's reshard errors (unknown table/engine,
    /// non-relational engine, empty shard set, conflicting replica
    /// counts) and catalog spec validation.
    pub fn reshard(&mut self, table: &TableRef, spec: PartitionSpec) -> Result<()> {
        self.registry.reshard(table, spec.clone())?;
        self.catalog.set_partition(table.clone(), spec)
    }

    /// Incrementally rebalances a table to a new layout (the online
    /// elasticity path): only rows whose shard assignment changes
    /// under the new spec move — a hash grow from `w1` to `w2` shards
    /// (with `w1 | w2`) moves about `1 - w1/w2` of the rows, versus
    /// [`Polystore::reshard`]'s full rewrite. The catalog's declaration
    /// follows the registry, the moved bytes are charged to the system
    /// ledger as a `registry.rebalance` transfer over the shard
    /// interconnect, and the epoch bump orphans every cached plan,
    /// result and materialized repartition from the old layout.
    ///
    /// # Errors
    ///
    /// Propagates the registry's rebalance errors (unknown
    /// table/engine, non-relational engine, invalid spec) and catalog
    /// spec validation.
    pub fn rebalance(
        &mut self,
        table: &TableRef,
        spec: PartitionSpec,
    ) -> Result<pspp_runtime::RebalanceReport> {
        let report = self.registry.rebalance(table, spec.clone())?;
        self.catalog.set_partition(table.clone(), spec)?;
        self.ledger.post_event(pspp_accel::CostEvent {
            component: "registry.rebalance".into(),
            device: pspp_common::DeviceKind::Cpu,
            kind: pspp_accel::EventKind::Transfer,
            bytes: report.moved_bytes,
            duration: price::exchange_wire().transfer_time(report.moved_bytes),
            energy_j: 0.0,
        });
        Ok(report)
    }

    /// Bumps the engine-state epoch without moving any data —
    /// invalidates every epoch-keyed cache (plans, results,
    /// materialized repartitions). The service tier calls this for
    /// write-shaped statements whose effects the epoch must cover.
    pub fn bump_epoch(&self) {
        self.registry.bump_epoch();
    }

    /// The optimization level this system was built at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Compiles a SQL query into an (unoptimized) IR program.
    ///
    /// # Errors
    ///
    /// Propagates parse and catalog errors.
    pub fn compile_sql(&self, query: &str) -> Result<Program> {
        sql::parse_to_program(query, &self.catalog)
    }

    /// Compiles a heterogeneous program into the IR.
    ///
    /// # Errors
    ///
    /// Propagates parse/semantic errors from any subprogram.
    pub fn compile(&self, program: &HeterogeneousProgram) -> Result<Program> {
        program.build(&self.catalog)
    }

    /// Compiles a natural-language question (§IV-A.e).
    ///
    /// # Errors
    ///
    /// Returns a parse error listing the supported templates.
    pub fn compile_nlq(&self, question: &str) -> Result<Program> {
        nlq::compile(question, &self.catalog, &self.clinical_names)
    }

    /// Optimizes a program in place according to the configured level.
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors.
    pub fn optimize(
        &self,
        program: &mut Program,
    ) -> Result<(RewriteReport, Option<PlacementPlan>)> {
        self.optimize_at(program, self.opt_level)
    }

    /// Optimizes a program in place at an explicit level, independent of
    /// the configured one (`execute` still runs at the configured one).
    /// At every level this runs the one distribution pass,
    /// [`Placer::plan_distribution`] over this system's registry under
    /// its [`PlanOptions`], and the program carries the plan it made —
    /// at L2+ after cardinality estimation, whose row estimates choose
    /// between gathers and shuffles. L2+ placement then prices that plan
    /// on the registry's fleet, and [`Polystore::execute`] runs it.
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors and the distribution pass's
    /// deployment validation (a partitioned table that no longer exists
    /// on its engine, an under-replicated engine).
    pub fn optimize_at(
        &self,
        program: &mut Program,
        level: OptLevel,
    ) -> Result<(RewriteReport, Option<PlacementPlan>)> {
        let rewrites = if level.rewrites() {
            optimize_l1(program, &self.catalog)
        } else {
            RewriteReport::default()
        };
        if level.placement() {
            self.cost_model.estimate_cardinalities(program)?;
        }
        Placer::plan_distribution(program, &self.registry, self.plan_options)?;
        let placement = if level.placement() {
            Some(self.cost_model.place(program, self.registry.fleet())?)
        } else {
            None
        };
        Ok((rewrites, placement))
    }

    /// Executes an already-optimized program — the distribution plan it
    /// carries — posting costs to the system-wide ledger.
    ///
    /// # Errors
    ///
    /// Propagates executor errors: among them a program never optimized
    /// here, and [`pspp_common::Error::StalePlan`] for one optimized
    /// before the registry's epoch last moved (a reshard, a rebalance,
    /// an epoch bump), which must be optimized again.
    pub fn execute(&self, program: &Program) -> Result<ExecutionReport> {
        self.execute_at(program, self.ledger.clone())
    }

    /// Executes an already-optimized program at the configured level,
    /// posting costs to `ledger`. [`Polystore::run_optimized`] passes a
    /// private per-run ledger, so simultaneous queries never interleave
    /// cost accounting.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn execute_at(&self, program: &Program, ledger: CostLedger) -> Result<ExecutionReport> {
        let executor = Executor::new(ledger)
            .level(self.opt_level)
            .with_metrics(self.metrics.clone());
        executor.execute(program, &self.registry)
    }

    /// Compile → optimize → execute a SQL query.
    ///
    /// # Errors
    ///
    /// Propagates compilation, optimization and execution errors.
    pub fn run_sql(&self, query: &str) -> Result<RunReport> {
        let program = self.compile_sql(query)?;
        self.run_program(program)
    }

    /// Compile → optimize → execute a heterogeneous program.
    ///
    /// # Errors
    ///
    /// Propagates compilation, optimization and execution errors.
    pub fn run(&self, program: &HeterogeneousProgram) -> Result<RunReport> {
        let program = self.compile(program)?;
        self.run_program(program)
    }

    /// Compile → optimize → execute a natural-language question.
    ///
    /// # Errors
    ///
    /// Propagates compilation, optimization and execution errors.
    pub fn run_nlq(&self, question: &str) -> Result<RunReport> {
        let program = self.compile_nlq(question)?;
        self.run_program(program)
    }

    /// Optimizes and executes an IR program, collecting the cost report.
    ///
    /// The run executes against a private ledger, so concurrent
    /// `run_*` calls through a shared reference account independently;
    /// the events are then published to [`Polystore::ledger`], which
    /// thus reflects the most recently completed run.
    ///
    /// # Errors
    ///
    /// Propagates optimization and execution errors.
    pub fn run_program(&self, mut program: Program) -> Result<RunReport> {
        let (rewrites, placement) = self.optimize(&mut program)?;
        let (report, run_ledger) = self.run_optimized(&program, rewrites, placement)?;
        self.ledger.replace_events(run_ledger.take_events());
        Ok(report)
    }

    /// Executes an already-optimized program on a private ledger — so
    /// concurrent callers never interleave cost accounting — and
    /// assembles the run's report around the plan summary
    /// (`rewrites`, `placement`) the program was optimized with. Returns
    /// the report and the ledger the run posted to.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn run_optimized(
        &self,
        program: &Program,
        rewrites: RewriteReport,
        placement: Option<PlacementPlan>,
    ) -> Result<(RunReport, CostLedger)> {
        let ledger = CostLedger::new();
        let execution = self.execute_at(program, ledger.clone())?;
        let report = RunReport {
            execution,
            rewrites,
            placement,
            costs: ledger.total(),
        };
        Ok((report, ledger))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{self, ClinicalConfig, RecommendationConfig};
    use pspp_frontend::Language;

    fn system(level: OptLevel) -> Polystore {
        Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 120,
            vitals_per_patient: 8,
            seed: 11,
        }))
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(level)
        .build()
        .expect("valid config")
    }

    #[test]
    fn sql_round_trip() {
        let s = system(OptLevel::L2);
        let report = s
            .run_sql("SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10")
            .unwrap();
        let out = &report.execution.outputs[0];
        assert!(out.len() <= 10);
        assert!(report.rewrites.predicate_pushdowns >= 1);
        assert!(report.costs.events > 0);
    }

    #[test]
    fn federated_join_runs() {
        let s = system(OptLevel::L2);
        let report = s
            .run_sql(
                "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
                 WHERE age >= 80",
            )
            .unwrap();
        assert!(!report.execution.outputs[0].is_empty());
        assert!(report.execution.migration_seconds > 0.0);
    }

    #[test]
    fn opt_levels_reduce_makespan() {
        let query = "SELECT pid, age FROM admissions WHERE age >= 40 ORDER BY date";
        let mut makespans = Vec::new();
        for level in OptLevel::all() {
            let s = system(level);
            let report = s.run_sql(query).unwrap();
            makespans.push(report.makespan());
        }
        // L3 <= L2 <= L1 <= None (allowing ties).
        assert!(makespans[3] <= makespans[2] + 1e-12);
        assert!(makespans[2] <= makespans[1] + 1e-12);
        assert!(makespans[1] <= makespans[0] + 1e-12);
    }

    #[test]
    fn nlq_clinical_pipeline_trains_a_model() {
        let s = system(OptLevel::L2);
        let report = s
            .run_nlq(
                "Will patients have a long stay at the hospital or short when they exit the ICU?",
            )
            .unwrap();
        // The program output is the trained model dataset.
        assert!(report.execution.outputs[0].try_model().is_ok());
        assert!(report.execution.offloaded > 0);
    }

    fn sharded_system(shards: usize) -> Polystore {
        Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 120,
            vitals_per_patient: 8,
            seed: 11,
        }))
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(OptLevel::L2)
        .shards(shards)
        .build()
        .expect("valid config")
    }

    #[test]
    fn sharded_build_distributes_rows_and_routes_scans() {
        let s = sharded_system(4);
        assert_eq!(
            s.registry().shard_count(&pspp_common::EngineId::new("db1")),
            4
        );
        let spec = s
            .registry()
            .partition(&TableRef::new("db1", "admissions"))
            .expect("partitioned");
        assert_eq!(spec.shard_count(), 4);
        // The catalog reflects the materialized spec too.
        assert_eq!(
            s.catalog().partition(&TableRef::new("db1", "admissions")),
            Some(spec)
        );
        let mut total = 0;
        for shard in 0..4u32 {
            total += s
                .registry()
                .relational_shard(
                    &pspp_common::EngineId::new("db1"),
                    pspp_common::ShardId(shard),
                )
                .unwrap()
                .table("admissions")
                .unwrap()
                .len();
        }
        assert_eq!(total, 120, "no rows lost or duplicated");
    }

    #[test]
    fn sharded_queries_are_bit_identical_and_faster() {
        let queries = [
            "SELECT pid, age FROM admissions WHERE age >= 40 ORDER BY date",
            "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
             WHERE age >= 65",
            "SELECT count(*) AS n FROM admissions",
        ];
        let flat = sharded_system(1);
        let sharded = sharded_system(4);
        let mut flat_scan_ms = 0.0;
        let mut sharded_scan_ms = 0.0;
        for q in queries {
            let a = flat.run_sql(q).unwrap();
            let b = sharded.run_sql(q).unwrap();
            assert_eq!(a.execution.outputs.len(), b.execution.outputs.len());
            assert!(!a.execution.outputs.is_empty());
            for (x, y) in a.execution.outputs.iter().zip(&b.execution.outputs) {
                assert_eq!(
                    x.try_rows().unwrap(),
                    y.try_rows().unwrap(),
                    "sharded results must be bit-identical for {q}"
                );
            }
            flat_scan_ms += a.makespan();
            sharded_scan_ms += b.makespan();
        }
        assert!(
            sharded_scan_ms < flat_scan_ms,
            "scatter-gather should cut simulated makespan \
             ({sharded_scan_ms} vs {flat_scan_ms})"
        );
    }

    #[test]
    fn resharding_two_tables_on_one_engine_duplicates_nothing() {
        // Regression: the recommendation deployment partitions both
        // rdbms tables; the second reshard must not concatenate the
        // whole-table clones the first reshard's expansion created.
        let flat =
            Polystore::from_deployment(datagen::recommendation(&RecommendationConfig::default()))
                .build()
                .unwrap();
        let sharded =
            Polystore::from_deployment(datagen::recommendation(&RecommendationConfig::default()))
                .shards(2)
                .build()
                .unwrap();
        for q in [
            "SELECT count(*) AS n FROM customers",
            "SELECT count(*) AS n FROM transactions",
        ] {
            assert_eq!(
                flat.run_sql(q).unwrap().execution.outputs[0]
                    .try_rows()
                    .unwrap(),
                sharded.run_sql(q).unwrap().execution.outputs[0]
                    .try_rows()
                    .unwrap(),
                "{q} diverged between flat and 2-shard deployments"
            );
        }
    }

    #[test]
    fn rebalance_grows_a_table_online_and_queries_agree() {
        let mut s = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 400,
            vitals_per_patient: 4,
            seed: 7,
        }))
        .partition(
            TableRef::new("db1", "admissions"),
            PartitionSpec::hash("pid", 2),
        )
        .build()
        .unwrap();
        // pid is unique, so the total order is layout-independent.
        let q = "SELECT pid, age FROM admissions WHERE age >= 40 ORDER BY pid";
        let before = s.run_sql(q).unwrap().execution.outputs[0]
            .try_rows()
            .unwrap()
            .to_vec();
        let epoch_before = s.epoch();

        let report = s
            .rebalance(
                &TableRef::new("db1", "admissions"),
                PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        assert!(report.incremental);
        assert_eq!(report.total_shards, 4);
        // Hash 2 -> 4 grow moves about half the rows (expectation).
        let bound = pspp_common::hash_grow_moved_fraction(2, 4).unwrap();
        assert!(
            (report.moved_fraction() - bound).abs() < 0.1,
            "moved fraction {} far from analytic {bound}",
            report.moved_fraction()
        );
        assert!(report.moved_bytes > 0);
        assert!(s.epoch() > epoch_before, "rebalance bumps the epoch");
        assert!(
            s.ledger()
                .events()
                .iter()
                .any(|e| e.component == "registry.rebalance" && e.bytes == report.moved_bytes),
            "moved bytes charged to the system ledger"
        );
        // Plans against the new layout scatter 4-wide and agree
        // byte-for-byte.
        let after = s.run_sql(q).unwrap();
        assert_eq!(before, after.execution.outputs[0].try_rows().unwrap());
        assert_eq!(
            s.registry()
                .partition(&TableRef::new("db1", "admissions"))
                .map(PartitionSpec::shard_count),
            Some(4)
        );
    }

    #[test]
    fn materialized_repartitions_amortize_the_mismatched_join() {
        // Enough rows that the shuffle exchange pays at width 2.
        let build = || {
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 1500,
                vitals_per_patient: 2,
                seed: 7,
            }))
            .partition(
                TableRef::new("db1", "admissions"),
                PartitionSpec::hash("pid", 2),
            )
            .partition(
                TableRef::new("db2", "patients"),
                PartitionSpec::hash("name", 2),
            )
        };
        let s = build()
            .plan_options(PlanOptions {
                materialize: true,
                ..PlanOptions::default()
            })
            .build()
            .unwrap();
        let plain = build().build().unwrap();
        // Mismatched keys: the join shuffles both sides.
        let q = "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
                 WHERE age >= 40";
        let first = s.run_sql(q).unwrap();
        assert!(s.registry().repartitions().stats().stores >= 1);
        let second = s.run_sql(q).unwrap();
        let baseline = plain.run_sql(q).unwrap();
        assert!(
            s.registry().repartitions().stats().hits >= 1,
            "second run serves the stored layout"
        );
        assert_eq!(
            first.execution.outputs[0].try_rows().unwrap(),
            second.execution.outputs[0].try_rows().unwrap()
        );
        assert_eq!(
            second.execution.outputs[0].try_rows().unwrap(),
            baseline.execution.outputs[0].try_rows().unwrap(),
            "materialize on/off must agree bit-for-bit"
        );
        assert!(
            second.makespan() < first.makespan(),
            "served exchange must beat the routed one ({} vs {})",
            second.makespan(),
            first.makespan()
        );
    }

    /// A program runs the plan it was optimized with, and only at the
    /// epoch that plan was made at: optimized before a rebalance, it is
    /// refused with both epochs named, never run against the moved
    /// layout, and optimizing it again answers as before. A program
    /// never optimized, or carrying another program's plan, is refused
    /// too.
    #[test]
    fn a_stale_missing_or_foreign_plan_is_a_typed_error() {
        let admissions = TableRef::new("db1", "admissions");
        let mut s = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 400,
            vitals_per_patient: 4,
            seed: 7,
        }))
        .partition(admissions.clone(), PartitionSpec::hash("pid", 2))
        .partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::hash("pid", 2),
        )
        .build()
        .unwrap();
        let q = "SELECT name, age FROM admissions JOIN db2.patients \
                 ON admissions.pid = patients.pid WHERE age >= 40";
        let compiled = s.compile_sql(q).unwrap();
        let mut program = compiled.clone();
        s.optimize(&mut program).unwrap();
        let digest = |report: ExecutionReport| pspp_runtime::output_digest(&report.outputs);
        let before = digest(s.execute(&program).unwrap());

        let planned = s.epoch();
        s.rebalance(&admissions, PartitionSpec::hash("pid", 4))
            .unwrap();
        let current = s.epoch();
        assert!(current > planned);
        let err = s.execute(&program).unwrap_err();
        assert_eq!(err, pspp_common::Error::StalePlan { planned, current });
        s.optimize(&mut program).unwrap();
        assert_eq!(digest(s.execute(&program).unwrap()), before);

        let err = s.execute(&compiled).unwrap_err();
        assert!(
            matches!(err, pspp_common::Error::Semantic(_)),
            "got {err:?}"
        );
        let mut other = s.compile_sql("SELECT pid FROM admissions").unwrap();
        s.optimize(&mut other).unwrap();
        let mut foreign = compiled;
        foreign.set_shard_plan(other.shard_plan().unwrap().as_ref().clone());
        let err = s.execute(&foreign).unwrap_err();
        assert!(
            matches!(err, pspp_common::Error::Semantic(_)),
            "got {err:?}"
        );
    }

    /// Planned == executed under `materialize`: E22's mismatched-key
    /// join, optimized once and executed twice, routes on its second run
    /// the shuffles its placement counted — the layout its first run
    /// persisted is neither served to a plan that never priced it nor
    /// stored and billed again. A program optimized after the copy was
    /// stored serves it.
    #[test]
    fn a_program_runs_the_shuffles_it_was_priced_with_after_its_layout_is_stored() {
        let s = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 2_000,
            vitals_per_patient: 4,
            seed: 2019,
        }))
        .accelerators(AcceleratorFleet::workstation())
        .partition(
            TableRef::new("db1", "admissions"),
            PartitionSpec::hash("date", 4),
        )
        .partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::hash("name", 4),
        )
        .plan_options(PlanOptions {
            materialize: true,
            ..PlanOptions::default()
        })
        .build()
        .unwrap();
        let q = "SELECT name, age FROM admissions JOIN db2.patients \
                 ON admissions.pid = patients.pid";
        // Rows per executed exchange kind, and the output's digest.
        let ran = |report: &ExecutionReport| {
            let mut kinds = std::collections::BTreeMap::new();
            for x in report.traces.iter().flat_map(|t| &t.exchanges) {
                *kinds.entry(x.kind).or_insert(0) += x.rows;
            }
            (kinds, pspp_runtime::output_digest(&report.outputs))
        };
        let mut program = s.compile_sql(q).unwrap();
        let (_, placement) = s.optimize(&mut program).unwrap();
        let counted = placement.expect("L2 places").exchanges;
        assert_eq!((counted.shuffles, counted.materialized), (2, 0));

        let copy_bills = || {
            let events = s.ledger().events();
            let bills = events
                .iter()
                .filter(|e| e.component == "exchange.materialize");
            bills.count()
        };
        let (first, digest) = ran(&s.execute(&program).unwrap());
        let stores = s.registry().repartitions().stats().stores;
        assert!(stores >= 1, "the first run persists the routed layout");
        assert_eq!(copy_bills(), 1);
        s.ledger().reset();
        let (second, second_digest) = ran(&s.execute(&program).unwrap());
        assert_eq!(second.keys().copied().collect::<Vec<_>>(), ["shuffle"]);
        assert!(second["shuffle"] > 0, "the priced shuffle routes rows");
        assert_eq!(second, first);
        assert_eq!(second_digest, digest);
        assert_eq!(s.registry().repartitions().stats().stores, stores);
        assert_eq!(copy_bills(), 0, "the stored copy is not billed again");

        let mut replanned = s.compile_sql(q).unwrap();
        let (_, placement) = s.optimize(&mut replanned).unwrap();
        assert_eq!(placement.expect("L2 places").exchanges.materialized, 2);
        let (served, served_digest) = ran(&s.execute(&replanned).unwrap());
        assert_eq!(
            served.get("shuffle").copied().unwrap_or(0),
            0,
            "0 routed rows"
        );
        assert!(served["materialized"] > 0);
        assert_eq!(served_digest, digest);
    }

    #[test]
    fn explicit_partition_override_wins() {
        let s = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 60,
            vitals_per_patient: 4,
            seed: 5,
        }))
        .partition(
            TableRef::new("db1", "admissions"),
            PartitionSpec::hash("pid", 3),
        )
        .build()
        .unwrap();
        assert_eq!(
            s.registry()
                .partition(&TableRef::new("db1", "admissions"))
                .map(PartitionSpec::shard_count),
            Some(3)
        );
        // Aggregates stay correct over hash shards.
        let r = s.run_sql("SELECT count(*) AS n FROM admissions").unwrap();
        assert_eq!(
            r.execution.outputs[0].try_rows().unwrap()[0][0],
            pspp_common::Value::Int(60)
        );
    }

    /// The acceptance contract of accelerator-aware planning: the
    /// executor *consumes* the plan's per-(node, shard) device picks —
    /// every executed assignment must equal the planned one, and the
    /// pipeline must actually offload somewhere for the comparison to
    /// mean anything.
    #[test]
    fn executed_device_assignments_match_the_placement_plan() {
        let s = system(OptLevel::L2);
        let report = s
            .run_nlq(
                "Will patients have a long stay at the hospital or short when they exit the ICU?",
            )
            .unwrap();
        let placement = report.placement.expect("L2 ran placement");
        let executed = &report.execution.device_assignments;
        assert!(!executed.is_empty());
        for ((node, shard), device) in executed {
            assert_eq!(
                placement.device_picks.get(&(*node, *shard)),
                Some(device),
                "node {node} at {shard} ran on {device:?}, diverging from the plan"
            );
        }
        assert!(
            executed
                .values()
                .any(|d| *d != pspp_common::DeviceKind::Cpu),
            "the clinical pipeline offloads at least its training node"
        );
    }

    #[test]
    fn hetero_program_via_builder() {
        let s = system(OptLevel::L2);
        let program = HeterogeneousProgram::builder()
            .subprogram(
                "base",
                Language::Sql,
                "SELECT pid, los, long_stay FROM admissions",
                &[],
            )
            .subprogram(
                "model",
                Language::MlDsl,
                "TRAIN MLP HIDDEN 8 EPOCHS 3 BATCH 32 LR 0.3 LABEL long_stay",
                &["base"],
            )
            .build(s.catalog())
            .unwrap();
        let report = s.run_program(program).unwrap();
        assert!(report.execution.outputs[0].try_model().is_ok());
    }

    fn two_sort_program() -> Program {
        use pspp_ir::{Operator, SortSpec};
        let mut p = Program::new();
        let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let by_age = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "age".into(),
                    ascending: true,
                }],
            },
            vec![scan],
            "sql",
        );
        let by_pid = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "pid".into(),
                    ascending: true,
                }],
            },
            vec![by_age],
            "sql",
        );
        p.mark_output(by_pid);
        p
    }

    /// The executor's host-fallback guard: a plan optimized on the
    /// workstation fleet (one fused FPGA chain over the two sorts) and
    /// executed on a CPU-only deployment of the same data runs every
    /// planned accelerator task on the host, counts one fallback per
    /// such task, offloads nothing and returns the workstation run's
    /// rows. At two shards the workstation run also executes exactly
    /// the device picks it planned.
    #[test]
    fn a_plan_naming_a_missing_device_runs_on_the_host() {
        let build = |fleet: AcceleratorFleet, shards: usize| {
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 60_000,
                vitals_per_patient: 1,
                seed: 17,
            }))
            .accelerators(fleet)
            .opt_level(OptLevel::L2)
            .shards(shards)
            .build()
            .expect("valid config")
        };
        for shards in [1, 2] {
            let workstation = build(AcceleratorFleet::workstation(), shards);
            let bare = build(AcceleratorFleet::cpu_only(), shards);
            let mut program = two_sort_program();
            let (_, placement) = workstation.optimize(&mut program).unwrap();
            let placement = placement.expect("L2 placed");
            assert_eq!(placement.fused_chains.len(), 1, "{shards} shards");
            let planned_offloads = placement
                .device_picks
                .values()
                .filter(|&&d| d != pspp_common::DeviceKind::Cpu)
                .count();
            assert_eq!(planned_offloads, 2, "{shards} shards");

            let accelerated = workstation.execute(&program).unwrap();
            let fallen_back = bare.execute(&program).unwrap();
            let fallbacks: usize = fallen_back
                .traces
                .iter()
                .map(pspp_telemetry::NodeTrace::fallbacks)
                .sum();
            assert_eq!(fallbacks, planned_offloads, "{shards} shards");
            assert_eq!(fallen_back.offloaded, 0, "{shards} shards");
            assert_eq!(
                pspp_runtime::output_digest(&fallen_back.outputs),
                pspp_runtime::output_digest(&accelerated.outputs),
                "a host fallback must not change the rows at {shards} shards"
            );
            if shards == 2 {
                for (key, device) in &accelerated.device_assignments {
                    assert_eq!(placement.device_picks.get(key), Some(device));
                }
            }
        }
    }

    /// Kernel fusion end-to-end: back-to-back big sorts fuse into one
    /// device-resident chain; the executor runs exactly the planned
    /// chains (no silent fission), the fused run beats the unfused one,
    /// results stay byte-identical, and the `pspp_fused_chains` counter
    /// survives a Prometheus render/parse round trip.
    #[test]
    fn fused_chains_execute_as_planned_and_export_metrics() {
        let build = |fusion: bool| {
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 60_000,
                vitals_per_patient: 1,
                seed: 29,
            }))
            .accelerators(AcceleratorFleet::workstation())
            .opt_level(OptLevel::L2)
            .plan_options(PlanOptions {
                fusion,
                ..PlanOptions::default()
            })
            .build()
            .expect("valid config")
        };
        let fused = build(true);
        let unfused = build(false);
        let a = fused.run_program(two_sort_program()).unwrap();
        let b = unfused.run_program(two_sort_program()).unwrap();

        let planned = a.placement.as_ref().expect("L2 placed");
        assert!(
            !planned.fused_chains.is_empty(),
            "back-to-back big sorts form a fused chain"
        );
        assert!(planned.fused_chains.iter().all(|c| c.nodes.len() >= 2));
        // Planned chains == executed chains: same membership, same
        // device, and the executor's billed transfer savings match the
        // planner's estimate.
        let executed = &a.execution.fused_chains;
        assert_eq!(executed.len(), planned.fused_chains.len());
        for (p, e) in planned.fused_chains.iter().zip(executed) {
            assert_eq!(p.nodes, e.nodes, "chain membership executed as planned");
            assert_eq!(p.shard, e.shard);
            assert_eq!(p.device, e.device);
            assert!(
                (p.saved_seconds - e.saved_seconds).abs() <= 1e-9,
                "planned savings {} vs executed {}",
                p.saved_seconds,
                e.saved_seconds
            );
        }
        assert!(
            b.placement
                .as_ref()
                .expect("L2 placed")
                .fused_chains
                .is_empty()
                && b.execution.fused_chains.is_empty(),
            "fusion off plans and executes no chains"
        );
        assert_eq!(
            a.execution.outputs[0].try_rows().unwrap(),
            b.execution.outputs[0].try_rows().unwrap(),
            "fusion must not change result bytes"
        );
        assert!(
            a.makespan() < b.makespan(),
            "device-resident chain beats per-node PCIe round trips \
             ({} vs {})",
            a.makespan(),
            b.makespan()
        );

        // Prometheus round trip: render the registry, parse it back,
        // and find the fused-chain counter.
        let text = pspp_telemetry::prom::render(&fused.metrics().snapshot());
        let samples = pspp_telemetry::prom::parse(&text).expect("well-formed exposition");
        let fused_total: f64 = samples
            .iter()
            .filter(|s| s.name == "pspp_fused_chains")
            .map(|s| s.value)
            .sum();
        assert!(fused_total >= 1.0, "fused-chain counter exported: {text}");
    }

    /// Contended-device queueing end-to-end: two same-stage training
    /// tasks target the lone TPU, the loser queues behind the winner in
    /// deterministic slot order, the executed queue wait equals the
    /// planned one, and `pspp_device_queue_seconds` survives a
    /// Prometheus render/parse round trip.
    #[test]
    fn contended_devices_queue_and_export_wait_metrics() {
        use pspp_ir::Operator;
        let s = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 5_000,
            vitals_per_patient: 1,
            seed: 7,
        }))
        .accelerators(
            AcceleratorFleet::workstation()
                .with_capacity(pspp_common::DeviceKind::Tpu, 1)
                .with_capacity(pspp_common::DeviceKind::Gpu, 1)
                .with_capacity(pspp_common::DeviceKind::Fpga, 1),
        )
        .opt_level(OptLevel::L2)
        .build()
        .expect("valid config");
        let mut p = Program::new();
        let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let train = |p: &mut Program, input| {
            p.add_node(
                Operator::TrainMlp {
                    label_column: "long_stay".into(),
                    hidden: vec![64],
                    epochs: 4,
                    batch_size: 32,
                    learning_rate: 0.3,
                },
                vec![input],
                "ml",
            )
        };
        let t1 = train(&mut p, scan);
        let t2 = train(&mut p, scan);
        p.mark_output(t1);
        p.mark_output(t2);
        let report = s.run_program(p).unwrap();
        let planned = report.placement.as_ref().expect("L2 placed");
        assert!(
            planned.queue_wait_seconds > 0.0,
            "one train queues behind the other on the lone TPU"
        );
        assert!(
            (report.execution.queue_wait_seconds - planned.queue_wait_seconds).abs() <= 1e-9,
            "executed queue wait {} matches planned {}",
            report.execution.queue_wait_seconds,
            planned.queue_wait_seconds
        );
        let text = pspp_telemetry::prom::render(&s.metrics().snapshot());
        let samples = pspp_telemetry::prom::parse(&text).expect("well-formed exposition");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "pspp_device_queue_seconds_count" && s.value >= 1.0),
            "queue-wait histogram exported: {text}"
        );
    }
}
