//! Adapter for event-stream stores.

use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_ir::{Operator, TsAgg};

use crate::dataset::Dataset;
use crate::physical::adapters::relational::unsupported;
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::{EngineInstance, EngineRegistry};

/// Executes tumbling-window aggregates against a stream store.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamAdapter;

impl EngineAdapter for StreamAdapter {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(op, Operator::StreamWindow { .. })
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
            Operator::StreamWindow {
                table,
                lo,
                hi,
                width,
                column,
                agg,
            } => {
                let EngineInstance::Stream(s) = registry.get(&table.engine)? else {
                    return Err(Error::Invalid(format!(
                        "{} is not a stream store",
                        table.engine
                    )));
                };
                let windows = s.window_aggregate(
                    &table.name,
                    *lo,
                    *hi,
                    pspp_streamstore::WindowSpec::Tumbling { width: *width },
                    *column,
                    stream_agg(*agg),
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
            other => unsupported(self, other),
        }
    }
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
