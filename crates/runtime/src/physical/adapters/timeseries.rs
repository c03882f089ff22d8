//! Adapter for timeseries stores.

use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_ir::{Operator, TsAgg};

use crate::dataset::Dataset;
use crate::physical::adapters::relational::unsupported;
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::{EngineInstance, EngineRegistry};

/// Executes range reads and tumbling-window aggregates against a
/// timeseries store.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeseriesAdapter;

impl EngineAdapter for TimeseriesAdapter {
    fn name(&self) -> &'static str {
        "timeseries"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(op, Operator::TsRange { .. } | Operator::TsWindow { .. })
    }

    fn run(
        &self,
        op: &Operator,
        _inputs: &[Dataset],
        _target: Option<&EngineId>,
        registry: &EngineRegistry,
        _ctx: &ExecCtx<'_>,
    ) -> Result<Dataset> {
        match op {
            Operator::TsRange { table, lo, hi } => {
                let EngineInstance::Timeseries(ts) = registry.get(&table.engine)? else {
                    return Err(Error::Invalid(format!(
                        "{} is not a ts store",
                        table.engine
                    )));
                };
                let pts = ts.range(&table.name, *lo, *hi)?;
                let schema = Schema::new(vec![
                    ("ts", DataType::Timestamp),
                    ("value", DataType::Float),
                ]);
                let rows = pts
                    .iter()
                    .map(|&(t, v)| Row::from(vec![Value::Timestamp(t), Value::Float(v)]))
                    .collect();
                Ok(Dataset::rows(
                    schema,
                    rows,
                    DataModel::Timeseries,
                    table.engine.clone(),
                ))
            }
            Operator::TsWindow {
                table,
                lo,
                hi,
                width,
                agg,
            } => {
                let EngineInstance::Timeseries(ts) = registry.get(&table.engine)? else {
                    return Err(Error::Invalid(format!(
                        "{} is not a ts store",
                        table.engine
                    )));
                };
                let windows = ts.window_aggregate(&table.name, *lo, *hi, *width, ts_agg(*agg))?;
                // `window_idx` (ordinal window number) is the join-friendly
                // key: deployments that lay series out as
                // `entity_id × width + offset` can join entities to their
                // window aggregates directly. The floor, not truncation:
                // `[-width, 0)` is window -1, not a second window 0.
                let schema = Schema::new(vec![
                    ("window_idx", DataType::Int),
                    ("window_start", DataType::Int),
                    ("value", DataType::Float),
                ]);
                let rows = windows
                    .into_iter()
                    .map(|(t, v)| {
                        Row::from(vec![
                            Value::Int(t.div_euclid(*width.max(&1))),
                            Value::Int(t),
                            Value::Float(v),
                        ])
                    })
                    .collect();
                Ok(Dataset::rows(
                    schema,
                    rows,
                    DataModel::Timeseries,
                    table.engine.clone(),
                ))
            }
            other => unsupported(self, other),
        }
    }
}

/// Maps IR window aggregates to the timeseries store's natives.
fn ts_agg(a: TsAgg) -> pspp_tsstore::WindowAgg {
    match a {
        TsAgg::Mean => pspp_tsstore::WindowAgg::Mean,
        TsAgg::Min => pspp_tsstore::WindowAgg::Min,
        TsAgg::Max => pspp_tsstore::WindowAgg::Max,
        TsAgg::Sum => pspp_tsstore::WindowAgg::Sum,
        TsAgg::Count => pspp_tsstore::WindowAgg::Count,
        TsAgg::Last => pspp_tsstore::WindowAgg::Last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_accel::{AcceleratorFleet, CostLedger};
    use pspp_common::TableRef;
    use pspp_tsstore::TimeseriesStore;

    #[test]
    fn windows_either_side_of_zero_get_distinct_indices() {
        let mut ts = TimeseriesStore::new("tsdb");
        ts.append_many(
            "s",
            [(-150, 1.0), (-100, 2.0), (-1, 3.0), (0, 4.0), (99, 5.0)],
        );
        let mut registry = EngineRegistry::new();
        registry
            .register(EngineId::new("tsdb"), EngineInstance::Timeseries(ts))
            .unwrap();
        let (fleet, ledger) = (AcceleratorFleet::cpu_only(), CostLedger::new());
        let op = Operator::TsWindow {
            table: TableRef::new("tsdb", "s"),
            lo: -200,
            hi: 200,
            width: 100,
            agg: TsAgg::Count,
        };
        let out = TimeseriesAdapter
            .run(
                &op,
                &[],
                None,
                &registry,
                &ExecCtx::new(&fleet, &ledger, false),
            )
            .unwrap();
        let rows: Vec<Vec<Value>> = out
            .try_rows()
            .unwrap()
            .iter()
            .map(|r| r.iter().cloned().collect())
            .collect();
        let row = |idx, start, n| vec![Value::Int(idx), Value::Int(start), Value::Float(n)];
        assert_eq!(
            rows,
            vec![row(-2, -200, 1.0), row(-1, -100, 2.0), row(0, 0, 2.0)]
        );
    }
}
