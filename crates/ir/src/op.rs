//! Typed data-flow operators: the vocabulary every frontend lowers into
//! (§III-A.1 lists the operator families per engine).

use pspp_common::{Predicate, TableRef};

/// Aggregate functions at the IR level (mapped to engine-native
/// aggregates by the adapters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of non-null values in the column (the partial state a
    /// distributed `Avg` ships to its merge stage; no frontend surfaces
    /// it directly).
    CountNonNull,
}

/// One aggregate column specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Function.
    pub func: AggFn,
    /// Input column (`*` for Count).
    pub column: String,
    /// Output column name.
    pub output: String,
}

/// The per-shard *partial* aggregate list a distributed `GroupBy`
/// executes before its merge stage: each original aggregate maps to the
/// partial state that merges losslessly in shard order — `Count` and
/// `Sum` ship themselves, `Min`/`Max` ship their extremum, and `Avg`
/// splits into a sum plus a non-null count so the merge can divide
/// once at the end. Partial columns are named `__p{index}_{state}`;
/// the merge side walks the same layout (one column per aggregate, two
/// for `Avg`), so the mapping lives in exactly one place.
pub fn partial_agg_specs(aggs: &[AggSpec]) -> Vec<AggSpec> {
    let mut out = Vec::new();
    for (j, a) in aggs.iter().enumerate() {
        match a.func {
            AggFn::Count => out.push(AggSpec {
                func: AggFn::Count,
                column: "*".into(),
                output: format!("__p{j}_count"),
            }),
            AggFn::Sum => out.push(AggSpec {
                func: AggFn::Sum,
                column: a.column.clone(),
                output: format!("__p{j}_sum"),
            }),
            AggFn::Avg => {
                out.push(AggSpec {
                    func: AggFn::Sum,
                    column: a.column.clone(),
                    output: format!("__p{j}_sum"),
                });
                out.push(AggSpec {
                    func: AggFn::CountNonNull,
                    column: a.column.clone(),
                    output: format!("__p{j}_n"),
                });
            }
            AggFn::Min => out.push(AggSpec {
                func: AggFn::Min,
                column: a.column.clone(),
                output: format!("__p{j}_min"),
            }),
            AggFn::Max => out.push(AggSpec {
                func: AggFn::Max,
                column: a.column.clone(),
                output: format!("__p{j}_max"),
            }),
            AggFn::CountNonNull => out.push(AggSpec {
                func: AggFn::CountNonNull,
                column: a.column.clone(),
                output: format!("__p{j}_n"),
            }),
        }
    }
    out
}

/// A sort key at the IR level.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Column name.
    pub column: String,
    /// Ascending?
    pub ascending: bool,
}

/// Timeseries window aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsAgg {
    /// Mean of points in the window.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Count.
    Count,
    /// Last point in the window.
    Last,
}

/// Text search modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextSearchMode {
    /// Documents containing all terms.
    All,
    /// Documents containing any term.
    Any,
    /// TF-IDF top-k.
    Ranked(usize),
}

/// A typed IR operator.
///
/// The variants cover the operator families of every native engine plus
/// the ML patterns of Figs. 3 and 7. Arity convention: sources take no
/// inputs, transforms take one, joins take two.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    // ---- relational ----
    /// Table scan with pushed-down predicate and projection.
    Scan {
        /// Which engine/table to read.
        table: TableRef,
        /// Pushed-down filter ([`Predicate::True`] = scan all).
        predicate: Predicate,
        /// Pushed-down projection (None = all columns).
        projection: Option<Vec<String>>,
    },
    /// Row filter.
    Filter {
        /// Keep rows matching this.
        predicate: Predicate,
    },
    /// Column projection.
    Project {
        /// Output columns, in order.
        columns: Vec<String>,
    },
    /// Multi-key sort.
    Sort {
        /// Sort keys, most significant first.
        keys: Vec<SortSpec>,
    },
    /// Equality hash join (inputs: left, right).
    HashJoin {
        /// Left join column.
        left_on: String,
        /// Right join column.
        right_on: String,
    },
    /// Equality sort-merge join (inputs: left, right) — the §III example.
    SortMergeJoin {
        /// Left join column.
        left_on: String,
        /// Right join column.
        right_on: String,
    },
    /// Group-by aggregation.
    GroupBy {
        /// Grouping keys.
        keys: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Row limit.
    Limit {
        /// Maximum rows.
        n: usize,
    },

    // ---- timeseries ----
    /// Raw range read of a series.
    TsRange {
        /// Which engine/series.
        table: TableRef,
        /// Inclusive lower time bound.
        lo: i64,
        /// Exclusive upper time bound.
        hi: i64,
    },
    /// Tumbling-window aggregate of a series.
    TsWindow {
        /// Which engine/series.
        table: TableRef,
        /// Inclusive lower time bound.
        lo: i64,
        /// Exclusive upper time bound.
        hi: i64,
        /// Window width.
        width: i64,
        /// Aggregate function.
        agg: TsAgg,
    },

    // ---- graph ----
    /// Cypher-style pattern match producing one row per matched path.
    GraphMatch {
        /// Which graph engine.
        table: TableRef,
        /// Start label.
        start_label: String,
        /// Steps: (relationship type, target label); None = wildcard.
        steps: Vec<(Option<String>, Option<String>)>,
    },

    // ---- text ----
    /// Inverted-index search producing (doc_id [, score]) rows.
    TextSearch {
        /// Which text engine.
        table: TableRef,
        /// Search terms.
        terms: Vec<String>,
        /// Boolean or ranked mode.
        mode: TextSearchMode,
    },

    // ---- ML (Figs. 2, 3, 7) ----
    /// Train an MLP on the input rows: all columns except `label_column`
    /// are features.
    TrainMlp {
        /// Label column name.
        label_column: String,
        /// Hidden layer sizes.
        hidden: Vec<usize>,
        /// Training epochs.
        epochs: usize,
        /// Mini-batch size.
        batch_size: usize,
        /// Learning rate.
        learning_rate: f64,
    },
    /// Score input rows with the model produced by the second input:
    /// every numeric column is a feature, so the rows must hold the
    /// training features without the label.
    Predict,
    /// K-means clustering of the numeric input columns.
    KMeansCluster {
        /// Number of clusters.
        k: usize,
        /// Maximum iterations.
        max_iters: usize,
    },
}

impl Operator {
    /// A full scan of a table.
    pub fn scan(table: TableRef) -> Operator {
        Operator::Scan {
            table,
            predicate: Predicate::True,
            projection: None,
        }
    }

    /// Number of data inputs the operator expects.
    pub fn arity(&self) -> usize {
        match self {
            Operator::Scan { .. }
            | Operator::TsRange { .. }
            | Operator::TsWindow { .. }
            | Operator::GraphMatch { .. }
            | Operator::TextSearch { .. } => 0,
            Operator::HashJoin { .. } | Operator::SortMergeJoin { .. } | Operator::Predict => 2,
            _ => 1,
        }
    }

    /// The table/engine a source reads from, if any.
    pub fn source_table(&self) -> Option<&TableRef> {
        match self {
            Operator::Scan { table, .. }
            | Operator::TsRange { table, .. }
            | Operator::TsWindow { table, .. }
            | Operator::GraphMatch { table, .. }
            | Operator::TextSearch { table, .. } => Some(table),
            _ => None,
        }
    }

    /// A short lowercase name for display / DOT labels.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Scan { .. } => "scan",
            Operator::Filter { .. } => "filter",
            Operator::Project { .. } => "project",
            Operator::Sort { .. } => "sort",
            Operator::HashJoin { .. } => "hash_join",
            Operator::SortMergeJoin { .. } => "sort_merge_join",
            Operator::GroupBy { .. } => "group_by",
            Operator::Limit { .. } => "limit",
            Operator::TsRange { .. } => "ts_range",
            Operator::TsWindow { .. } => "ts_window",
            Operator::GraphMatch { .. } => "graph_match",
            Operator::TextSearch { .. } => "text_search",
            Operator::TrainMlp { .. } => "train_mlp",
            Operator::Predict => "predict",
            Operator::KMeansCluster { .. } => "kmeans",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_convention() {
        assert_eq!(Operator::scan(TableRef::new("e", "t")).arity(), 0);
        assert_eq!(
            Operator::Filter {
                predicate: Predicate::True
            }
            .arity(),
            1
        );
        assert_eq!(
            Operator::HashJoin {
                left_on: "a".into(),
                right_on: "b".into()
            }
            .arity(),
            2
        );
        assert_eq!(Operator::Predict.arity(), 2);
    }

    #[test]
    fn source_table_only_for_sources() {
        let scan = Operator::scan(TableRef::new("db1", "t"));
        assert_eq!(scan.source_table().unwrap().name, "t");
        assert!(Operator::Predict.source_table().is_none());
    }

    #[test]
    fn names_are_nonempty() {
        assert_eq!(Operator::Predict.name(), "predict");
    }
}
