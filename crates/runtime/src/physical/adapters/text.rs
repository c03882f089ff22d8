//! Inverted-index text stores.

use pspp_common::{DataModel, DataType, Error, Result, Row, Schema, TableRef, Value};
use pspp_ir::TextSearchMode;

use crate::dataset::Dataset;
use crate::registry::{EngineInstance, EngineRegistry};

/// Runs a boolean or ranked search for `terms` against the text store
/// `table` names.
pub(crate) fn search(
    registry: &EngineRegistry,
    table: &TableRef,
    terms: &[String],
    mode: TextSearchMode,
) -> Result<Dataset> {
    let EngineInstance::Text(t) = registry.get(&table.engine)? else {
        return Err(Error::Invalid(format!(
            "{} is not a text store",
            table.engine
        )));
    };
    let term_refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    let (schema, rows) = match mode {
        TextSearchMode::All => {
            let ids = t.search_all(&term_refs);
            (
                Schema::new(vec![("doc_id", DataType::Int)]),
                ids.into_iter()
                    .map(|d| Row::from(vec![Value::Int(d as i64)]))
                    .collect::<Vec<Row>>(),
            )
        }
        TextSearchMode::Any => {
            let ids = t.search_any(&term_refs);
            (
                Schema::new(vec![("doc_id", DataType::Int)]),
                ids.into_iter()
                    .map(|d| Row::from(vec![Value::Int(d as i64)]))
                    .collect::<Vec<Row>>(),
            )
        }
        TextSearchMode::Ranked(k) => {
            let hits = t.search_ranked(&terms.join(" "), k);
            (
                Schema::new(vec![("doc_id", DataType::Int), ("score", DataType::Float)]),
                hits.into_iter()
                    .map(|(d, s)| Row::from(vec![Value::Int(d as i64), Value::Float(s)]))
                    .collect::<Vec<Row>>(),
            )
        }
    };
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::Text,
        table.engine.clone(),
    ))
}
