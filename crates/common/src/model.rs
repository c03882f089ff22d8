//! Data-model and engine-kind tags used for placement and migration.

use std::fmt;

/// The logical data model a dataset is expressed in (§II-A of the paper).
///
/// The data migrator's CAST layer converts between these models; the
/// optimizer charges a remodeling cost whenever an edge of the program
/// graph crosses models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataModel {
    /// Tables of rows with a fixed schema.
    Relational,
    /// Timestamped points grouped into series.
    Timeseries,
    /// Property graph of vertices and edges.
    Graph,
    /// Free-text documents.
    Text,
    /// Dense numeric tensors (ML features / weights).
    Tensor,
}

impl DataModel {
    /// All models, in a stable order.
    pub fn all() -> [DataModel; 5] {
        [
            DataModel::Relational,
            DataModel::Timeseries,
            DataModel::Graph,
            DataModel::Text,
            DataModel::Tensor,
        ]
    }

    /// Relative cost factor of remodeling *into* this model from
    /// `from`, on top of byte movement (1.0 = plain copy).
    ///
    /// These factors encode the paper's observation that "overheads
    /// incurred by data movement and transformation across domains can
    /// quickly exceed benefits of acceleration" (§IV-A.b).
    pub fn remodel_factor(from: DataModel, to: DataModel) -> f64 {
        if from == to {
            return 1.0;
        }
        use DataModel::*;
        match (from, to) {
            // Tabular shapes convert cheaply among themselves.
            (Relational, Timeseries) | (Timeseries, Relational) => 1.3,
            // Feature extraction into tensors is a compute-heavy remodel.
            (Relational, Tensor) | (Timeseries, Tensor) => 2.0,
            (Tensor, Relational) => 1.6,
            // Text must be tokenized / vectorized.
            (Text, Tensor) => 3.0,
            (Text, Relational) => 2.2,
            // Graphs flatten into edge tables and back.
            (Graph, Relational) | (Relational, Graph) => 1.8,
            _ => 2.5,
        }
    }
}

impl fmt::Display for DataModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataModel::Relational => "relational",
            DataModel::Timeseries => "timeseries",
            DataModel::Graph => "graph",
            DataModel::Text => "text",
            DataModel::Tensor => "tensor",
        };
        f.write_str(s)
    }
}

/// The kind of data-processing engine hosting a dataset (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Relational store (Postgres-like).
    Relational,
    /// Timeseries store (TimescaleDB-like).
    Timeseries,
    /// Graph store (Neo4j-like).
    Graph,
    /// Text store (inverted-index search engine).
    Text,
    /// ML/DL engine (Tensorflow-like).
    Ml,
}

impl EngineKind {
    /// The native [`DataModel`] of this engine kind.
    pub fn native_model(self) -> DataModel {
        match self {
            EngineKind::Relational => DataModel::Relational,
            EngineKind::Timeseries => DataModel::Timeseries,
            EngineKind::Graph => DataModel::Graph,
            EngineKind::Text => DataModel::Text,
            EngineKind::Ml => DataModel::Tensor,
        }
    }

    /// All engine kinds, in a stable order.
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::Relational,
            EngineKind::Timeseries,
            EngineKind::Graph,
            EngineKind::Text,
            EngineKind::Ml,
        ]
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Relational => "relational",
            EngineKind::Timeseries => "timeseries",
            EngineKind::Graph => "graph",
            EngineKind::Text => "text",
            EngineKind::Ml => "ml",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_remodel_is_free() {
        for m in DataModel::all() {
            assert_eq!(DataModel::remodel_factor(m, m), 1.0);
        }
    }

    #[test]
    fn cross_model_remodel_costs_more() {
        for a in DataModel::all() {
            for b in DataModel::all() {
                if a != b {
                    assert!(
                        DataModel::remodel_factor(a, b) > 1.0,
                        "{a} -> {b} should cost more than a copy"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_native_models_are_distinct() {
        let models: std::collections::HashSet<_> = EngineKind::all()
            .into_iter()
            .map(EngineKind::native_model)
            .collect();
        assert_eq!(models.len(), EngineKind::all().len());
    }
}
