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
    // Each answer is one slab of rows, filled in place.
    let (schema, rows) = match mode {
        TextSearchMode::All | TextSearchMode::Any => {
            let ids = if mode == TextSearchMode::All {
                t.search_all(&term_refs)
            } else {
                t.search_any(&term_refs)
            };
            let rows = Row::slab_with(ids.len(), 1, |slab| {
                for (slot, d) in slab.iter_mut().zip(ids) {
                    *slot = Value::Int(d as i64);
                }
            });
            (Schema::new(vec![("doc_id", DataType::Int)]), rows)
        }
        TextSearchMode::Ranked(k) => {
            let hits = t.search_ranked(&terms.join(" "), k);
            let rows = Row::slab_with(hits.len(), 2, |slab| {
                for (row, (d, s)) in slab.chunks_exact_mut(2).zip(hits) {
                    row[0] = Value::Int(d as i64);
                    row[1] = Value::Float(s);
                }
            });
            (
                Schema::new(vec![("doc_id", DataType::Int), ("score", DataType::Float)]),
                rows,
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
