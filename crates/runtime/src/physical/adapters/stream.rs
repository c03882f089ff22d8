//! Event-stream stores.

use pspp_common::{DataModel, DataType, Error, Result, Row, Schema, TableRef, Value};
use pspp_ir::TsAgg;

use crate::dataset::Dataset;
use crate::registry::{EngineInstance, EngineRegistry};

/// Aggregates payload `column` of the stream `table` names over
/// tumbling windows of `width` in `[lo, hi)`.
pub(crate) fn window(
    registry: &EngineRegistry,
    table: &TableRef,
    lo: i64,
    hi: i64,
    width: i64,
    column: usize,
    agg: TsAgg,
) -> Result<Dataset> {
    let EngineInstance::Stream(s) = registry.get(&table.engine)? else {
        return Err(Error::Invalid(format!(
            "{} is not a stream store",
            table.engine
        )));
    };
    let windows = s.window_aggregate(
        &table.name,
        lo,
        hi,
        pspp_streamstore::WindowSpec::Tumbling { width },
        column,
        stream_agg(agg),
    )?;
    let schema = Schema::new(vec![
        ("window_start", DataType::Int),
        ("value", DataType::Float),
    ]);
    let rows = windows
        .into_iter()
        .map(|(t, v)| Row::from(vec![Value::Int(t), Value::Float(v)]))
        .collect();
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::Stream,
        table.engine.clone(),
    ))
}

/// Maps IR window aggregates to fold functions over window payloads.
/// The store folds only windows that hold a value; over none, `Last`
/// is NaN, as `Mean` is.
fn stream_agg(a: TsAgg) -> fn(&[f64]) -> f64 {
    match a {
        TsAgg::Mean => |v| v.iter().sum::<f64>() / v.len() as f64,
        TsAgg::Min => |v| v.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        TsAgg::Max => |v| v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
        TsAgg::Sum => |v| v.iter().sum(),
        TsAgg::Count => |v| v.len() as f64,
        TsAgg::Last => |v| v.last().copied().unwrap_or(f64::NAN),
    }
}
