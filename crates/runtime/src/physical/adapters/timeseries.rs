//! Timeseries stores.

use pspp_common::{DataModel, DataType, Error, Result, Row, Schema, TableRef, Value};
use pspp_ir::TsAgg;
use pspp_tsstore::TimeseriesStore;

use crate::dataset::Dataset;
use crate::registry::{EngineInstance, EngineRegistry};

/// The timeseries store `table` names.
fn store<'r>(registry: &'r EngineRegistry, table: &TableRef) -> Result<&'r TimeseriesStore> {
    match registry.get(&table.engine)? {
        EngineInstance::Timeseries(ts) => Ok(ts),
        _ => Err(Error::Invalid(format!(
            "{} is not a ts store",
            table.engine
        ))),
    }
}

/// Reads the points of series `table` in `[lo, hi)`.
pub(crate) fn range(
    registry: &EngineRegistry,
    table: &TableRef,
    lo: i64,
    hi: i64,
) -> Result<Dataset> {
    let pts = store(registry, table)?.range(&table.name, lo, hi)?;
    let schema = Schema::new(vec![
        ("ts", DataType::Timestamp),
        ("value", DataType::Float),
    ]);
    let rows = Row::slab_with(pts.len(), 2, |slab| {
        for (row, &(t, v)) in slab.chunks_exact_mut(2).zip(pts) {
            row[0] = Value::Timestamp(t);
            row[1] = Value::Float(v);
        }
    });
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::Timeseries,
        table.engine.clone(),
    ))
}

/// Aggregates series `table` over tumbling windows of `width` in
/// `[lo, hi)`.
pub(crate) fn window(
    registry: &EngineRegistry,
    table: &TableRef,
    lo: i64,
    hi: i64,
    width: i64,
    agg: TsAgg,
) -> Result<Dataset> {
    let windows =
        store(registry, table)?.window_aggregate(&table.name, lo, hi, width, ts_agg(agg))?;
    // `window_idx` (ordinal window number) is the join-friendly key:
    // deployments that lay series out as `entity_id × width + offset`
    // can join entities to their window aggregates directly. The floor,
    // not truncation: `[-width, 0)` is window -1, not a second window 0.
    let schema = Schema::new(vec![
        ("window_idx", DataType::Int),
        ("window_start", DataType::Int),
        ("value", DataType::Float),
    ]);
    let rows = Row::slab_with(windows.len(), 3, |slab| {
        for (row, (t, v)) in slab.chunks_exact_mut(3).zip(windows) {
            row[0] = Value::Int(t.div_euclid(width.max(1)));
            row[1] = Value::Int(t);
            row[2] = Value::Float(v);
        }
    });
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::Timeseries,
        table.engine.clone(),
    ))
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

    #[test]
    fn windows_either_side_of_zero_get_distinct_indices() {
        let mut ts = TimeseriesStore::new("tsdb");
        for (t, v) in [(-150, 1.0), (-100, 2.0), (-1, 3.0), (0, 4.0), (99, 5.0)] {
            ts.append("s", t, v);
        }
        let mut registry = EngineRegistry::new();
        registry
            .register(
                pspp_common::EngineId::new("tsdb"),
                EngineInstance::Timeseries(ts),
            )
            .unwrap();
        let out = window(
            &registry,
            &TableRef::new("tsdb", "s"),
            -200,
            200,
            100,
            TsAgg::Count,
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
