//! Per-layer probes of the traced run: the benchmark's own calls into
//! each layer's public functions, on the workload's own data. Every
//! `*.wall_*` and `*_per_s` per-layer metric is the quiet cost of one of
//! these calls.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pspp_accel::{DeviceProfile, EventKind};
use pspp_common::{
    Batch, DataModel, Distribution, EngineId, Error, Predicate, Result, Row, Schema,
};
use pspp_core::{Polystore, RunReport};
use pspp_ir::{PlanOptions, ShardPlan};
use pspp_migrate::{MigrationPath, Migrator};
use pspp_mlengine::{Dataset as MlDataset, Mlp, TrainConfig};
use pspp_optimizer::OptLevel;
use pspp_relstore::ops::{self, Aggregate, AggregateSpec, JoinKind, SortKey};
use pspp_runtime::EngineInstance;
use pspp_service::{AdmissionConfig, Query, QueryService, ServiceConfig};
use pspp_tsstore::WindowAgg;

use crate::oplist::{Op, OpKind};
use crate::pin::OneCpu;
use crate::stats::lower_quartile;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{compile_op, Counts, LedgerSplit};

/// Ops the service probe pipelines per batch.
const SERVICE_PROBE_OPS: usize = 16;

/// Calls each layer once for `op`, a span per call under one `probe`
/// span: frontend compile, optimizer rewrite (L1) and full optimize,
/// the distribution plan, the executor, and the telemetry renderers
/// (over `report`, the op's own run). Returns the simulated ledger of
/// the execution, split by event kind.
///
/// # Errors
///
/// Propagates any layer's error; the caller counts the op as failed.
pub fn probe_op(
    system: &Polystore,
    op: &Op,
    report: &RunReport,
    op_id: u32,
    pass: u32,
    tracer: &mut Tracer,
) -> Result<LedgerSplit> {
    let root = tracer.open("probe", NO_PARENT, op_id, pass);
    let mut program = tracer.span("frontend.compile", root, op_id, pass, || {
        compile_op(system, op)
    })?;
    let mut rewritten = program.clone();
    tracer.span("optimizer.rewrite", root, op_id, pass, || {
        system.optimize_at(&mut rewritten, OptLevel::L1)
    })?;
    tracer.span("optimizer.optimize", root, op_id, pass, || {
        system.optimize(&mut program)
    })?;
    tracer.span("ir.shard_plan", root, op_id, pass, || {
        ShardPlan::plan(
            &program,
            |table| system.registry().partition(table).cloned(),
            PlanOptions::default(),
        )
    })?;
    // `execute` posts to the system-wide ledger; start it empty so what
    // it holds afterwards is this execution alone.
    system.ledger().reset();
    let execution = tracer.span("runtime.execute", root, op_id, pass, || {
        system.execute(&program)
    })?;
    let kinds = system.ledger().by_kind();
    let seconds = |kind| kinds.get(&kind).map_or(0.0, |s| s.busy.as_secs());
    let split = LedgerSplit {
        makespan_s: execution.makespan(),
        compute_s: seconds(EventKind::Compute),
        transfer_s: seconds(EventKind::Transfer),
        transform_s: seconds(EventKind::Transform),
        energy_j: kinds.values().map(|s| s.energy_j).sum(),
    };
    tracer.span("telemetry.render", root, op_id, pass, || {
        black_box(report.span_tree(op.template));
        black_box(report.explain_analyze());
    });
    tracer.close(root);
    Ok(split)
}

/// One direct call into a store or operator, and how much data it
/// covers (the numerator of its `*_per_s` metric). `call` returns the
/// seconds the layer's function took, input preparation excluded.
struct LayerProbe<'a> {
    metric: &'static str,
    items: f64,
    call: Box<dyn FnMut() -> Result<f64> + 'a>,
}

fn timed<T>(call: impl FnOnce() -> Result<T>) -> Result<f64> {
    let start = Instant::now();
    let out = call()?;
    let seconds = start.elapsed().as_secs_f64();
    black_box(out);
    Ok(seconds)
}

fn relational_rows(system: &Polystore, engine: &str, table: &str) -> Result<(Schema, Vec<Row>)> {
    let store = system.registry().relational(&EngineId::new(engine))?;
    let table = store.table(table)?;
    Ok((table.schema().clone(), table.rows().to_vec()))
}

/// Times the stores and operators under the workload's own tables (on a
/// sharded deployment: shard 0's slice), `repeats` rounds over
/// all probes so each probe's repeats are spread in time, and returns
/// each `*_per_s` metric from the quiet cost of its call.
///
/// # Errors
///
/// Propagates the first error of any probed call.
pub fn layer_probes(system: &Polystore, repeats: usize) -> Result<Counts> {
    let (adm_schema, adm_rows) = relational_rows(system, "db1", "admissions")?;
    let (pat_schema, pat_rows) = relational_rows(system, "db2", "patients")?;
    let n = adm_rows.len() as f64;
    let predicate = Predicate::between("date", 1000i64, 1729i64);
    let sort_keys = [SortKey::asc("date")];
    let aggs = [AggregateSpec::new(Aggregate::Avg, "los", "m")];
    let hashed = Distribution::Hashed {
        column: "pid".into(),
        shards: 2,
    };
    let batch = Batch::from_rows(&adm_schema, adm_rows.clone())?;
    let migrator = Migrator::new();
    // age, los → long_stay: the features the sql_mlp ops train on.
    let examples: Vec<(Vec<f64>, f64)> = adm_rows
        .iter()
        .map(|row| {
            let f = |i: usize| row[i].as_f64().unwrap_or(0.0);
            (vec![f(1) / 100.0, f(3) / 20.0], f(4))
        })
        .collect();
    let train_set = MlDataset::from_examples(&examples)?;
    let train_config = TrainConfig {
        epochs: 1,
        batch_size: 64,
        learning_rate: 0.3,
    };
    let cpu = DeviceProfile::cpu();
    let text = match system.registry().get(&EngineId::new("textdb"))? {
        EngineInstance::Text(store) => store,
        _ => return Err(Error::Config("textdb is not a text store".into())),
    };
    let ts = match system.registry().get(&EngineId::new("tsdb"))? {
        EngineInstance::Timeseries(store) => store,
        _ => return Err(Error::Config("tsdb is not a timeseries store".into())),
    };
    let points = ts.range("vitals", i64::MIN, i64::MAX)?;
    // One window per patient (the series is laid out as pid * 100 + k).
    let ts_end = points.last().map_or(1, |p| p.0 + 1);
    let points = points.len();

    let mut probes = vec![
        LayerProbe {
            metric: "relstore.filter.rows_per_s",
            items: n,
            call: Box::new(|| {
                let rows = adm_rows.clone();
                timed(|| ops::filter_rows(&adm_schema, rows, &predicate))
            }),
        },
        LayerProbe {
            metric: "relstore.sort.rows_per_s",
            items: n,
            call: Box::new(|| {
                let rows = adm_rows.clone();
                timed(|| ops::sort_rows(&adm_schema, rows, &sort_keys))
            }),
        },
        LayerProbe {
            metric: "relstore.hash_join.rows_per_s",
            items: n,
            call: Box::new(|| {
                timed(|| {
                    ops::hash_join(
                        &adm_schema,
                        &adm_rows,
                        &pat_schema,
                        &pat_rows,
                        "pid",
                        "pid",
                        JoinKind::Inner,
                    )
                })
            }),
        },
        LayerProbe {
            metric: "relstore.group_by.rows_per_s",
            items: n,
            call: Box::new(|| timed(|| ops::group_by(&adm_schema, &adm_rows, &["age"], &aggs))),
        },
        LayerProbe {
            metric: "common.route_indices.rows_per_s",
            items: n,
            call: Box::new(|| timed(|| hashed.route_indices(&adm_schema, &adm_rows))),
        },
        LayerProbe {
            metric: "migrate.migrate.rows_per_s",
            items: n,
            call: Box::new(|| {
                timed(|| {
                    migrator.migrate(
                        &batch,
                        MigrationPath::BinaryPipe,
                        DataModel::Relational,
                        DataModel::Relational,
                    )
                })
            }),
        },
        LayerProbe {
            metric: "mlengine.mlp_train.rows_per_s",
            items: n,
            call: Box::new(|| {
                let mut model = Mlp::new(&[2, 16, 1], 7)?;
                timed(|| model.train(&cpu, &train_set, &train_config, None))
            }),
        },
        LayerProbe {
            metric: "textstore.search.docs_per_s",
            items: text.len() as f64,
            call: Box::new(|| {
                timed(|| {
                    black_box(text.search_any(&["icu", "sepsis", "ventilator"]));
                    Ok(text.search_ranked("icu sepsis ventilator", 100))
                })
            }),
        },
        LayerProbe {
            metric: "tsstore.window.points_per_s",
            items: points as f64,
            call: Box::new(|| {
                timed(|| ts.window_aggregate("vitals", 0, ts_end, 100, WindowAgg::Mean))
            }),
        },
    ];

    let mut samples = vec![Vec::with_capacity(repeats); probes.len()];
    for _ in 0..repeats {
        for (probe, timings) in probes.iter_mut().zip(&mut samples) {
            timings.push((probe.call)()?);
        }
    }
    Ok(probes
        .iter()
        .zip(&samples)
        .map(|(probe, timings)| (probe.metric, probe.items / lower_quartile(timings)))
        .collect())
}

/// The service query that asks for `op`.
pub fn query_of(op: &Op) -> Query {
    match &op.kind {
        OpKind::Sql(text) => Query::sql(text.clone()),
        OpKind::Nlq(text) => Query::nlq(text.clone()),
        OpKind::Hetero(program) => Query::Hetero(program.clone()),
    }
}

/// The served workloads' service: one worker (with the client, the two
/// runnable threads this machine has cores for), queue 64, plan cache
/// 256, result cache 256 and on.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionConfig {
            workers: 1,
            ..Default::default()
        },
        result_cache: Some(true),
        ..Default::default()
    }
}

/// Prices the service's three paths on the workload's own queries: a
/// fresh service over `system`, `SERVICE_PROBE_OPS` (16) ops spread over
/// `ops`, pipelined as one batch — cold (plan miss + execution),
/// after clearing the result cache (plan hit + execution), warm (both
/// hit) — and the warm ops again one synchronous `execute` at a time.
/// Microseconds per op, quiet cost over `repeats` rounds.
///
/// # Errors
///
/// Propagates service construction and query errors.
pub fn service_probe(system: &Arc<Polystore>, ops: &[Op], repeats: usize) -> Result<Counts> {
    // One op out of every `stride`, a different place in each stretch,
    // so that a list that interleaves its query classes is sampled
    // across classes. The texts are distinct because the ops are.
    let picked = SERVICE_PROBE_OPS.min(ops.len());
    let stride = ops.len() / picked;
    let queries: Vec<Query> = (0..picked)
        .map(|i| query_of(&ops[i * stride + i % stride]))
        .collect();
    let _one_cpu = OneCpu::pin();
    let service = QueryService::new(Arc::clone(system), service_config())?;
    let session = service.open_session();
    let batch = |expect_plan_hit: bool, expect_result_hit: bool| -> Result<f64> {
        let start = Instant::now();
        let tickets = queries
            .iter()
            .map(|q| session.submit(q))
            .collect::<Result<Vec<_>>>()?;
        let responses = tickets
            .iter()
            .map(|t| t.wait())
            .collect::<Result<Vec<_>>>()?;
        let seconds = start.elapsed().as_secs_f64();
        if responses
            .iter()
            .any(|r| r.cache_hit != expect_plan_hit || r.result_cache_hit != expect_result_hit)
        {
            return Err(Error::Execution(
                "service probe: a response took another path than the one being priced".into(),
            ));
        }
        Ok(seconds)
    };
    let mut samples = [const { Vec::new() }; 4];
    for _ in 0..repeats {
        service.clear_plan_cache();
        service.clear_result_cache();
        samples[0].push(batch(false, false)?);
        service.clear_result_cache();
        samples[1].push(batch(true, false)?);
        samples[2].push(batch(true, true)?);
        let start = Instant::now();
        for query in &queries {
            black_box(session.execute(query)?);
        }
        samples[3].push(start.elapsed().as_secs_f64());
    }
    let per_op_us = |timings: &[f64]| lower_quartile(timings) / queries.len() as f64 * 1e6;
    Ok(vec![
        ("service.miss.wall_us", per_op_us(&samples[0])),
        ("service.planhit.wall_us", per_op_us(&samples[1])),
        ("service.hit.wall_us", per_op_us(&samples[2])),
        ("service.sync_execute.wall_us", per_op_us(&samples[3])),
    ])
}
