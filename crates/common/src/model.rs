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
    /// Opaque values addressed by key.
    KeyValue,
    /// Timestamped points grouped into series.
    Timeseries,
    /// Property graph of vertices and edges.
    Graph,
    /// Dense n-dimensional arrays.
    Array,
    /// Free-text documents.
    Text,
    /// Append-only event streams.
    Stream,
    /// Dense numeric tensors (ML features / weights).
    Tensor,
}

impl DataModel {
    /// All models, in a stable order.
    pub fn all() -> [DataModel; 8] {
        [
            DataModel::Relational,
            DataModel::KeyValue,
            DataModel::Timeseries,
            DataModel::Graph,
            DataModel::Array,
            DataModel::Text,
            DataModel::Stream,
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
            (Relational, KeyValue) | (KeyValue, Relational) => 1.4,
            (Timeseries, KeyValue) | (KeyValue, Timeseries) => 1.5,
            // Feature extraction into tensors is a compute-heavy remodel.
            (Relational, Tensor) | (Timeseries, Tensor) => 2.0,
            (Tensor, Relational) => 1.6,
            (Array, Tensor) | (Tensor, Array) => 1.1,
            // Text must be tokenized / vectorized.
            (Text, Tensor) => 3.0,
            (Text, Relational) => 2.2,
            // Graphs flatten into edge tables and back.
            (Graph, Relational) | (Relational, Graph) => 1.8,
            // Streams materialize into tables or series.
            (Stream, Relational) | (Stream, Timeseries) => 1.2,
            _ => 2.5,
        }
    }
}

impl fmt::Display for DataModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataModel::Relational => "relational",
            DataModel::KeyValue => "keyvalue",
            DataModel::Timeseries => "timeseries",
            DataModel::Graph => "graph",
            DataModel::Array => "array",
            DataModel::Text => "text",
            DataModel::Stream => "stream",
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
    /// Key/value store (Accumulo-like).
    KeyValue,
    /// Timeseries store (TimescaleDB-like).
    Timeseries,
    /// Graph store (Neo4j-like).
    Graph,
    /// Array store (SciDB-like).
    Array,
    /// Text store (inverted-index search engine).
    Text,
    /// Stream store (Kafka/Saber-like).
    Stream,
    /// ML/DL engine (Tensorflow-like).
    Ml,
}

impl EngineKind {
    /// The native [`DataModel`] of this engine kind.
    pub fn native_model(self) -> DataModel {
        match self {
            EngineKind::Relational => DataModel::Relational,
            EngineKind::KeyValue => DataModel::KeyValue,
            EngineKind::Timeseries => DataModel::Timeseries,
            EngineKind::Graph => DataModel::Graph,
            EngineKind::Array => DataModel::Array,
            EngineKind::Text => DataModel::Text,
            EngineKind::Stream => DataModel::Stream,
            EngineKind::Ml => DataModel::Tensor,
        }
    }

    /// All engine kinds, in a stable order.
    pub fn all() -> [EngineKind; 8] {
        [
            EngineKind::Relational,
            EngineKind::KeyValue,
            EngineKind::Timeseries,
            EngineKind::Graph,
            EngineKind::Array,
            EngineKind::Text,
            EngineKind::Stream,
            EngineKind::Ml,
        ]
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Relational => "relational",
            EngineKind::KeyValue => "keyvalue",
            EngineKind::Timeseries => "timeseries",
            EngineKind::Graph => "graph",
            EngineKind::Array => "array",
            EngineKind::Text => "text",
            EngineKind::Stream => "stream",
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
