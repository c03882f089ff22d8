//! Key/value stores.

use pspp_common::{DataModel, DataType, Error, Result, Row, Schema, TableRef, Value};

use crate::dataset::Dataset;
use crate::registry::{EngineInstance, EngineRegistry};

/// Scans the keys under `prefix` of the key/value store `table` names,
/// materializing the hits as `(key, value)` rows.
pub(crate) fn prefix_scan(
    registry: &EngineRegistry,
    table: &TableRef,
    prefix: &str,
) -> Result<Dataset> {
    let EngineInstance::KeyValue(kv) = registry.get(&table.engine)? else {
        return Err(Error::Invalid(format!(
            "{} is not a kv store",
            table.engine
        )));
    };
    let pairs = kv.scan_prefix(prefix);
    let value_type = pairs
        .iter()
        .find_map(|(_, v)| v.data_type())
        .unwrap_or(DataType::Str);
    let schema = Schema::new(vec![("key", DataType::Str), ("value", value_type)]);
    let rows = pairs
        .into_iter()
        .map(|(k, v)| Row::from(vec![Value::from(k.to_owned()), v.clone()]))
        .collect();
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::KeyValue,
        table.engine.clone(),
    ))
}
