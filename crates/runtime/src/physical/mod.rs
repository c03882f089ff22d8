//! The physical execution layer: engines and accelerators as execution
//! substrates behind one entry point (§IV).
//!
//! The layer splits operator execution into three concerns:
//!
//! * [`run`] — *how* an operator runs. Its one exhaustive `match` hands
//!   every IR operator, with its fields, to the function that executes
//!   it in its engine's adapter module (relational, timeseries, graph,
//!   text, and the ML patterns) — BigDAWG's per-engine shims. An
//!   operator the IR gains without an arm here is a compile error.
//! * [`Placer`] — *where* an operator runs. Resolves the target engine
//!   (optimizer annotation → source table → data gravity) and stages
//!   the node's inputs there, invoking the data migrator once per
//!   foreign input and accounting the migration cost.
//! * The executor's charge — *what* an operator costs. It posts the
//!   price list's bill for the task ([`pspp_optimizer::price`], the
//!   formulas the planner estimated with) and its energy to the run's
//!   [`CostLedger`].
//!
//! One executor runs a query's tasks one after another on its caller's
//! thread, every bill posting to the run's one ledger as the task runs,
//! so outputs, makespans and the ledger repeat exactly; the query
//! service runs many such queries at once, one per worker thread, each
//! on a ledger of its own, over a shared registry.

mod adapters;
pub mod placer;

pub(crate) use adapters::relational::agg_fn;
pub use placer::Placer;

use std::sync::OnceLock;

use pspp_accel::{AcceleratorFleet, CostLedger, DeviceProfile, KernelClass};
use pspp_common::{EngineId, Error, Result, Routes, ShardId};
use pspp_ir::{ColumnDemand, Operator};

use crate::dataset::Dataset;
use crate::registry::EngineRegistry;
use adapters::{graph, ml, relational, text, timeseries};

/// Runs `op` over `inputs`, `op.arity()` datasets.
///
/// `target` is the engine the [`Placer`] resolved for the node (inputs
/// have already been migrated there); `registry` resolves engine ids to
/// live instances; `ctx` carries the fleet, the run's ledger and what
/// the executor asks of this task.
///
/// # Errors
///
/// Returns [`Error::Execution`] when `inputs` is short, and
/// [`pspp_common::Error`] when the operator cannot run: an engine,
/// table or column that is not there, an input of the wrong kind, or a
/// failure inside the engine.
pub fn run(
    op: &Operator,
    inputs: &[Dataset],
    target: Option<&EngineId>,
    registry: &EngineRegistry,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    let input = |i: usize| {
        inputs.get(i).ok_or_else(|| {
            Error::Execution(format!(
                "{} takes {} inputs, got {}",
                op.name(),
                op.arity(),
                inputs.len()
            ))
        })
    };
    match op {
        Operator::Scan {
            table,
            predicate,
            projection,
        } => relational::scan(registry, table, predicate, projection.as_deref(), ctx),
        Operator::Filter { predicate } => relational::filter(input(0)?, predicate),
        Operator::Project { columns } => relational::project(input(0)?, columns),
        Operator::Sort { keys } => relational::sort(input(0)?, keys, ctx),
        Operator::HashJoin { left_on, right_on } => {
            relational::hash_join(input(0)?, input(1)?, left_on, right_on, target, ctx)
        }
        Operator::SortMergeJoin { left_on, right_on } => {
            relational::sort_merge_join(input(0)?, input(1)?, left_on, right_on, target, ctx)
        }
        Operator::GroupBy { keys, aggs } => relational::group_by(input(0)?, keys, aggs),
        Operator::Limit { n } => relational::limit(input(0)?, *n),
        Operator::TsRange { table, lo, hi } => timeseries::range(registry, table, *lo, *hi),
        Operator::TsWindow {
            table,
            lo,
            hi,
            width,
            agg,
        } => timeseries::window(registry, table, *lo, *hi, *width, *agg),
        Operator::GraphMatch {
            table,
            start_label,
            steps,
        } => graph::match_pattern(registry, table, start_label, steps),
        Operator::TextSearch { table, terms, mode } => text::search(registry, table, terms, *mode),
        Operator::TrainMlp {
            label_column,
            hidden,
            epochs,
            batch_size,
            learning_rate,
        } => ml::train_mlp(
            input(0)?,
            label_column,
            hidden,
            *epochs,
            *batch_size,
            *learning_rate,
            ctx,
        ),
        Operator::Predict => ml::predict(input(0)?, input(1)?, ctx),
        Operator::KMeansCluster { k, max_iters } => ml::kmeans(input(0)?, *k, *max_iters, ctx),
    }
}

/// Everything an operator may consult while it runs: the
/// accelerator fleet, the run's cost ledger, whether device
/// offload is enabled for this run, which shard replica the task
/// addresses, which of the node's output columns its consumers read,
/// for a shuffled-join bucket where to leave the join's per-probe-row
/// match counts, for a task whose rows a shuffle reads next where to
/// leave each row's destination, and for a sort read only by a limit
/// how many rows the limit keeps.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    fleet: &'a AcceleratorFleet,
    ledger: &'a CostLedger,
    offload: bool,
    shard: ShardId,
    probe_counts: Option<&'a OnceLock<Vec<usize>>>,
    demand: Option<&'a ColumnDemand>,
    route: Option<RouteRequest<'a>>,
    ordered_prefix: Option<usize>,
}

/// A shuffle's request to the task producing its input: hash-route the
/// output rows on `key` over `width` destinations and leave the answer
/// in `routes`. An operator that cannot answer leaves it empty, and the
/// executor routes the rows the operator returned.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest<'a> {
    /// The output column whose value routes each row.
    pub key: &'a str,
    /// Number of destinations.
    pub width: u32,
    /// Where the answer goes: each output row's destination, in output
    /// order, and each destination's bytes.
    pub routes: &'a OnceLock<Routes>,
}

impl<'a> ExecCtx<'a> {
    /// A context over `fleet`, posting to `ledger`, addressing shard 0.
    pub fn new(fleet: &'a AcceleratorFleet, ledger: &'a CostLedger, offload: bool) -> Self {
        ExecCtx {
            fleet,
            ledger,
            offload,
            shard: ShardId::ZERO,
            probe_counts: None,
            demand: None,
            route: None,
            ordered_prefix: None,
        }
    }

    /// This context redirected at one shard replica — the executor
    /// builds one per scatter-gather task.
    pub fn at_shard(mut self, shard: ShardId) -> Self {
        self.shard = shard;
        self
    }

    /// The shard replica source operators should read from.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This context asking the hash join it runs to leave in `slot`
    /// how many output rows each probe row produced — the executor
    /// builds one per shuffled-join bucket, whose barrier splices by
    /// those counts.
    pub fn counting_probe_matches(mut self, slot: &'a OnceLock<Vec<usize>>) -> Self {
        self.probe_counts = Some(slot);
        self
    }

    /// Where a hash join leaves its per-probe-row match counts, when
    /// the task's barrier needs them.
    pub fn probe_counts(&self) -> Option<&'a OnceLock<Vec<usize>>> {
        self.probe_counts
    }

    /// This context asking the operator it runs to route its output
    /// for a shuffle — the executor builds one per task of a node whose
    /// only reader is that shuffle ([`pspp_ir::NodeShard::routed`]).
    pub fn routing(mut self, request: RouteRequest<'a>) -> Self {
        self.route = Some(request);
        self
    }

    /// The shuffle's routing request, when a shuffle reads this task's
    /// output next.
    pub fn route(&self) -> Option<RouteRequest<'a>> {
        self.route
    }

    /// This context for a sort whose one reader is a `Limit n` and
    /// which is no program output: only its first `n` rows need be in
    /// order. It still returns every row, so its length, bytes and bill
    /// are the full sort's.
    pub fn ordering_only(mut self, n: usize) -> Self {
        self.ordered_prefix = Some(n);
        self
    }

    /// How many leading rows a sort must order, when not all of them.
    pub fn ordered_prefix(&self) -> Option<usize> {
        self.ordered_prefix
    }

    /// This context for a node whose consumers read only `demand` of
    /// its output (the plan's [`pspp_ir::Annotations::demand`]; `None`
    /// is every column). A join builds those columns and no others.
    pub fn demanding(mut self, demand: Option<&'a ColumnDemand>) -> Self {
        self.demand = demand;
        self
    }

    /// The output columns the node's consumers read, named as its full
    /// output schema names them; `None` is every column.
    pub fn demand(&self) -> Option<&'a [String]> {
        self.demand.map(|d| &d.columns[..])
    }

    /// The run's ledger, which this task's costs post to.
    pub fn ledger(&self) -> &'a CostLedger {
        self.ledger
    }

    /// Whether device annotations are honored (L2+).
    pub fn offload(&self) -> bool {
        self.offload
    }

    /// The device profile ML kernels train/score on: the fleet's best
    /// matrix engine under offload, otherwise the host.
    pub fn training_profile(&self) -> &'a DeviceProfile {
        if self.offload {
            self.fleet
                .best_device(KernelClass::Gemm)
                .unwrap_or_else(|| self.fleet.host())
        } else {
            self.fleet.host()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataModel, DataType, Predicate, Schema, TableRef, Value};
    use pspp_graphstore::GraphStore;
    use pspp_ir::{AggFn, AggSpec, SortSpec, TextSearchMode, TsAgg};
    use pspp_relstore::RelationalStore;
    use pspp_textstore::TextStore;
    use pspp_tsstore::TimeseriesStore;

    use crate::dataset::Payload;
    use crate::registry::EngineInstance;

    /// One empty store of every kind an operator reads, so every source
    /// names a table its engine does not hold.
    fn empty_stores() -> EngineRegistry {
        let mut registry = EngineRegistry::new();
        for (id, instance) in [
            (
                "rel",
                EngineInstance::Relational(RelationalStore::new("rel")),
            ),
            ("ts", EngineInstance::Timeseries(TimeseriesStore::new("ts"))),
            ("graph", EngineInstance::Graph(GraphStore::new("graph"))),
            ("text", EngineInstance::Text(TextStore::new("text"))),
        ] {
            registry.register(EngineId::new(id), instance).unwrap();
        }
        registry
    }

    /// One instance of every operator variant.
    fn every_operator() -> Vec<Operator> {
        let t = |engine: &str| TableRef::new(engine, "t");
        vec![
            Operator::scan(t("rel")),
            Operator::Filter {
                predicate: Predicate::ge("a", 2i64),
            },
            Operator::Project {
                columns: vec!["a".into()],
            },
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "a".into(),
                    ascending: false,
                }],
            },
            Operator::HashJoin {
                left_on: "a".into(),
                right_on: "a".into(),
            },
            Operator::SortMergeJoin {
                left_on: "a".into(),
                right_on: "a".into(),
            },
            Operator::GroupBy {
                keys: vec!["a".into()],
                aggs: vec![AggSpec {
                    func: AggFn::Avg,
                    column: "y".into(),
                    output: "m".into(),
                }],
            },
            Operator::Limit { n: 1 },
            Operator::TsRange {
                table: t("ts"),
                lo: 0,
                hi: 10,
            },
            Operator::TsWindow {
                table: t("ts"),
                lo: 0,
                hi: 10,
                width: 2,
                agg: TsAgg::Mean,
            },
            Operator::GraphMatch {
                table: t("graph"),
                start_label: "A".into(),
                steps: vec![(None, None)],
            },
            Operator::TextSearch {
                table: t("text"),
                terms: vec!["x".into()],
                mode: TextSearchMode::Ranked(3),
            },
            Operator::TrainMlp {
                label_column: "y".into(),
                hidden: vec![4],
                epochs: 1,
                batch_size: 8,
                learning_rate: 0.1,
            },
            Operator::Predict,
            Operator::KMeansCluster { k: 2, max_iters: 5 },
        ]
    }

    /// Whether `op` runs over [`every_operator`]'s inputs: a source over
    /// a store that is not there fails, so does scoring with rows for a
    /// model. No `_` arm, so a new operator has to say.
    fn runs(op: &Operator) -> bool {
        match op {
            Operator::Scan { .. }
            | Operator::TsRange { .. }
            | Operator::TsWindow { .. }
            | Operator::Predict => false,
            Operator::Filter { .. }
            | Operator::Project { .. }
            | Operator::Sort { .. }
            | Operator::HashJoin { .. }
            | Operator::SortMergeJoin { .. }
            | Operator::GroupBy { .. }
            | Operator::Limit { .. }
            | Operator::GraphMatch { .. }
            | Operator::TextSearch { .. }
            | Operator::TrainMlp { .. }
            | Operator::KMeansCluster { .. } => true,
        }
    }

    /// Both joins read two scans' selections where they lie, and a
    /// migration batches one the same way: neither selection has built a
    /// row afterwards, and every answer — rows in order, byte sizes, the
    /// probe counts, the migration's bill — is the built rows' answer.
    #[test]
    fn joins_and_migrations_leave_scan_selections_unbuilt() {
        let schema = Schema::new(vec![
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("w", DataType::Float),
        ]);
        let mut registry = EngineRegistry::new();
        for (name, n) in [("db1", 40i64), ("db2", 30)] {
            let mut db = RelationalStore::new(name);
            db.create_table("t", schema.clone()).unwrap();
            // NULL keys, and an index that hands the scan its positions
            // in key order, not in table order.
            let rows = (0..n).map(|i| {
                let k = if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 11)
                };
                row![k, format!("{name}-{i}"), i as f64 / 2.0]
            });
            db.insert("t", rows.collect()).unwrap();
            db.create_index("t", "k").unwrap();
            let instance = EngineInstance::Relational(db);
            registry.register(EngineId::new(name), instance).unwrap();
        }
        let (fleet, ledger) = (AcceleratorFleet::workstation(), CostLedger::new());
        let ctx = ExecCtx::new(&fleet, &ledger, false);
        let scan = |engine: &str| {
            let op = Operator::Scan {
                table: TableRef::new(engine, "t"),
                predicate: Predicate::ge("k", 2i64),
                projection: None,
            };
            run(&op, &[], None, &registry, &ctx).unwrap()
        };
        let (l, r) = (scan("db1"), scan("db2"));
        let unbuilt = |d: &Dataset| d.row_buf().unwrap().is_unbuilt_selection();
        assert!(unbuilt(&l) && unbuilt(&r));
        // The same rows built, as every input but a scan's arrives.
        let built = |d: &Dataset| {
            let rows = d.row_buf().unwrap().as_selection().unwrap().rows();
            let schema = d.schema().unwrap().clone();
            Dataset::rows(schema, rows, d.model, d.location.clone())
        };
        let answer = |d: &Dataset| {
            let rows = d.try_rows().unwrap().to_vec();
            (d.schema().unwrap().clone(), rows, d.byte_size())
        };

        let demand = |columns: &[&str], of| ColumnDemand {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            of,
        };
        let narrow = demand(&["s_r", "k", "w"], 6);
        let (left_on, right_on) = ("k".to_string(), "k".to_string());
        let joins = [
            Operator::HashJoin {
                left_on: left_on.clone(),
                right_on: right_on.clone(),
            },
            Operator::SortMergeJoin { left_on, right_on },
        ];
        for op in &joins {
            for demand in [None, Some(&narrow)] {
                let (got_counts, want_counts) = (OnceLock::new(), OnceLock::new());
                let join = |inputs: &[Dataset], counts| {
                    let ctx = ctx.demanding(demand).counting_probe_matches(counts);
                    run(op, inputs, None, &registry, &ctx).unwrap()
                };
                let got = join(&[l.clone(), r.clone()], &got_counts);
                let want = join(&[built(&l), built(&r)], &want_counts);
                assert!(!got.is_empty(), "{}", op.name());
                assert_eq!(answer(&got), answer(&want), "{} {demand:?}", op.name());
                assert_eq!(got_counts, want_counts);
            }
        }

        let placer = Placer::new(CostLedger::new());
        let target = EngineId::new("db1");
        let shipped = demand(&["w", "k"], 3);
        for demand in [None, Some(&shipped)] {
            let stage = |d: Dataset| {
                let (mut staged, bill) = placer
                    .stage_datasets(vec![d], &[demand], Some(&target), &registry)
                    .unwrap();
                (answer(&staged.remove(0)), bill)
            };
            let (got, want) = (stage(r.clone()), stage(built(&r)));
            assert_eq!(got.1.migrated_inputs, 1);
            assert_eq!(got, want, "{demand:?}");
        }
        assert!(
            unbuilt(&l) && unbuilt(&r),
            "a join or the codec built a scan's rows"
        );
    }

    /// A projection of a scan is the scan's selection exposing the
    /// projected columns, and the ML operators read their features out
    /// of a selection where it lies: none of them builds the scan's
    /// rows, and each answer — rows, byte sizes, the model, the ledger —
    /// is the one the built rows give.
    #[test]
    fn projections_and_ml_operators_leave_scan_selections_unbuilt() {
        let schema = Schema::new(vec![
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("w", DataType::Float),
            ("at", DataType::Timestamp),
            ("y", DataType::Float),
        ]);
        let mut db = RelationalStore::new("db1");
        db.create_table("t", schema).unwrap();
        let rows = (0..60i64).map(|i| {
            let w = if i % 9 == 4 {
                Value::Null
            } else {
                Value::Float(i as f64 / 3.0)
            };
            let y = f64::from(i % 3 == 0);
            row![i % 13, format!("s{i}"), w, Value::Timestamp(i * 7 - 90), y]
        });
        db.insert("t", rows.collect()).unwrap();
        let mut registry = EngineRegistry::new();
        let instance = EngineInstance::Relational(db);
        registry.register(EngineId::new("db1"), instance).unwrap();
        let fleet = AcceleratorFleet::workstation();
        let scan = Operator::Scan {
            table: TableRef::new("db1", "t"),
            predicate: Predicate::ge("k", 2i64),
            projection: None,
        };
        let project = |columns: &[&str]| Operator::Project {
            columns: columns.iter().map(|c| c.to_string()).collect(),
        };
        // Each operator over `inputs`, on a ledger of its own.
        let run_on = |op: &Operator, inputs: &[&Dataset]| {
            let ledger = CostLedger::new();
            let ctx = ExecCtx::new(&fleet, &ledger, false);
            let inputs: Vec<Dataset> = inputs.iter().map(|&d| d.clone()).collect();
            let out = run(op, &inputs, None, &registry, &ctx).unwrap();
            (out, ledger.events())
        };
        let unbuilt = |d: &Dataset| d.row_buf().unwrap().is_unbuilt_selection();
        let built = |d: &Dataset| {
            let rows = d.row_buf().unwrap().as_selection().unwrap().rows();
            let schema = d.schema().unwrap().clone();
            Dataset::rows(schema, rows, d.model, d.location.clone())
        };
        // A selection's answer is read off a copy of its rows, so that
        // asking leaves it unbuilt.
        let answer = |d: &Dataset| match &d.payload {
            Payload::Rows { schema, rows } => {
                let rows = rows
                    .as_selection()
                    .map_or_else(|| rows.to_vec(), |s| s.rows());
                format!("{schema:?} {rows:?} {}", d.byte_size())
            }
            Payload::Model(model) => format!("{model:?}"),
        };

        let (scanned, _) = run_on(&scan, &[]);
        // A projection, and a projection of it: selections still.
        let (features, _) = run_on(&project(&["w", "at", "k", "y"]), &[&scanned]);
        let (again, _) = run_on(&project(&["y", "w", "w"]), &[&features]);
        assert!(unbuilt(&features) && unbuilt(&again));
        let (want, _) = run_on(&project(&["w", "at", "k", "y"]), &[&built(&scanned)]);
        assert_eq!(answer(&features), answer(&want));
        let (want, _) = run_on(&project(&["y", "w", "w"]), &[&built(&features)]);
        assert_eq!(answer(&again), answer(&want));

        let train = Operator::TrainMlp {
            label_column: "y".into(),
            hidden: vec![4],
            epochs: 3,
            batch_size: 16,
            learning_rate: 0.3,
        };
        let unlabelled = run_on(&project(&["w", "at", "k"]), &[&scanned]).0;
        for input in [&scanned, &features] {
            let (got, got_events) = run_on(&train, &[input]);
            let (want, want_events) = run_on(&train, &[&built(input)]);
            assert_eq!(answer(&got), answer(&want));
            assert_eq!(got_events, want_events);

            let kmeans = Operator::KMeansCluster { k: 3, max_iters: 6 };
            let (got, got_events) = run_on(&kmeans, &[input]);
            let (want, want_events) = run_on(&kmeans, &[&built(input)]);
            assert_eq!(answer(&got), answer(&want));
            assert_eq!(got_events, want_events);
        }
        let model = run_on(&train, &[&features]).0;
        let (got, got_events) = run_on(&Operator::Predict, &[&unlabelled, &model]);
        let (want, want_events) = run_on(&Operator::Predict, &[&built(&unlabelled), &model]);
        assert_eq!(answer(&got), answer(&want));
        assert_eq!(got_events, want_events);
        assert!(
            [&scanned, &features, &again, &unlabelled]
                .into_iter()
                .all(unbuilt),
            "a projection or an ML operator built a scan's rows"
        );
    }

    /// Training on a label that is no number is refused, naming the
    /// column and its type, instead of learning all-zero targets.
    #[test]
    fn a_label_that_is_no_number_is_refused() {
        let schema = Schema::new(vec![
            ("x", DataType::Float),
            ("name", DataType::Str),
            ("flag", DataType::Bool),
        ]);
        let rows = (0..8).map(|i| row![f64::from(i), format!("n{i}"), i % 2 == 0]);
        let input = [Dataset::rows(
            schema,
            rows.collect(),
            DataModel::Relational,
            EngineId::new("rel"),
        )];
        let (fleet, ledger) = (AcceleratorFleet::workstation(), CostLedger::new());
        let ctx = ExecCtx::new(&fleet, &ledger, false);
        for (label, data_type) in [("name", "str"), ("flag", "bool")] {
            let train = Operator::TrainMlp {
                label_column: label.into(),
                hidden: vec![2],
                epochs: 1,
                batch_size: 4,
                learning_rate: 0.1,
            };
            let got = run(&train, &input, None, &empty_stores(), &ctx);
            match got {
                Err(Error::Invalid(message)) => {
                    assert!(message.contains(label), "{message}");
                    assert!(message.contains(data_type), "{message}");
                }
                other => panic!("LABEL {label}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_operator_runs_or_fails_typed() {
        let registry = empty_stores();
        let (fleet, ledger) = (AcceleratorFleet::workstation(), CostLedger::new());
        let schema = Schema::new(vec![("a", DataType::Int), ("y", DataType::Float)]);
        let input = |rows| {
            let location = EngineId::new("rel");
            Dataset::rows(schema.clone(), rows, DataModel::Relational, location)
        };
        let three = input(vec![row![1i64, 0.0], row![2i64, 1.0], row![3i64, 1.0]]);
        for offload in [false, true] {
            let ctx = ExecCtx::new(&fleet, &ledger, offload);
            for op in every_operator() {
                let inputs = vec![three.clone(); op.arity()];
                let got = run(&op, &inputs, None, &registry, &ctx);
                assert_eq!(got.is_ok(), runs(&op), "{}: {got:?}", op.name());
                if let Some(short) = op.arity().checked_sub(1) {
                    let got = run(&op, &inputs[..short], None, &registry, &ctx);
                    assert!(matches!(got, Err(Error::Execution(_))), "{}", op.name());
                }
            }
        }
    }
}
