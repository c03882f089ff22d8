//! Property-graph stores.

use pspp_common::{DataModel, DataType, Error, Result, Schema, TableRef, Value};

use crate::dataset::Dataset;
use crate::registry::{EngineInstance, EngineRegistry};

/// Runs a Cypher-style pattern match against the graph store `table`
/// names, materializing one row per matched path.
pub(crate) fn match_pattern(
    registry: &EngineRegistry,
    table: &TableRef,
    start_label: &str,
    steps: &[(Option<String>, Option<String>)],
) -> Result<Dataset> {
    let EngineInstance::Graph(g) = registry.get(&table.engine)? else {
        return Err(Error::Invalid(format!(
            "{} is not a graph store",
            table.engine
        )));
    };
    let pattern: Vec<pspp_graphstore::PatternStep> = steps
        .iter()
        .map(|(rel, label)| pspp_graphstore::PatternStep {
            rel: rel.clone(),
            node_label: label.clone(),
        })
        .collect();
    let paths = g.match_pattern(start_label, &pattern);
    let arity = steps.len() + 1;
    let schema = Schema::new(
        (0..arity)
            .map(|i| (format!("node_{i}"), DataType::Int))
            .collect::<Vec<_>>(),
    );
    let rows = paths
        .into_iter()
        .map(|p| p.into_iter().map(|n| Value::Int(n as i64)).collect())
        .collect();
    Ok(Dataset::rows(
        schema,
        rows,
        DataModel::Graph,
        table.engine.clone(),
    ))
}
