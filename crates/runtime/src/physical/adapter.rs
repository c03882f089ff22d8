//! The engine-adapter boundary: BigDAWG-style "shims" between the IR's
//! operator vocabulary and each engine's native execution surface.

use std::fmt;
use std::sync::Arc;

use pspp_common::{EngineId, Error, Result};
use pspp_ir::Operator;

use crate::dataset::Dataset;
use crate::physical::ExecCtx;
use crate::registry::EngineRegistry;

/// Executes the slice of the IR operator vocabulary one engine kind
/// understands.
///
/// Implementations must be stateless or internally synchronized
/// (`Send + Sync`): one adapter serves every query the service's
/// workers run at the same time, each on its own thread.
pub trait EngineAdapter: Send + Sync + fmt::Debug {
    /// Short adapter name for diagnostics (e.g. `"relational"`).
    fn name(&self) -> &'static str;

    /// Whether this adapter executes `op`.
    fn supports(&self, op: &Operator) -> bool;

    /// Runs `op` over `inputs`.
    ///
    /// `target` is the engine the [`crate::physical::Placer`] resolved
    /// for the node (inputs have already been migrated there);
    /// `registry` resolves engine ids to live instances; `ctx` carries
    /// the fleet and the node-scoped cost ledger.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] (or engine-specific errors) when the
    /// operator cannot run.
    fn run(
        &self,
        op: &Operator,
        inputs: &[Dataset],
        target: Option<&EngineId>,
        registry: &EngineRegistry,
        ctx: &ExecCtx<'_>,
    ) -> Result<Dataset>;
}

/// The set of installed adapters; dispatches operators to the first
/// adapter that claims them.
///
/// Cloning shares the installed adapters (they are `Arc`ed), so a
/// configured registry is cheap to hand to every executor.
#[derive(Debug, Clone)]
pub struct AdapterRegistry {
    adapters: Vec<Arc<dyn EngineAdapter>>,
}

impl AdapterRegistry {
    /// An empty registry (no operator will execute).
    pub fn empty() -> Self {
        AdapterRegistry {
            adapters: Vec::new(),
        }
    }

    /// The standard install: one adapter per engine kind plus the ML
    /// adapter.
    pub fn standard() -> Self {
        use crate::physical::adapters::{
            ArrayAdapter, GraphAdapter, KvAdapter, MlAdapter, RelationalAdapter, StreamAdapter,
            TextAdapter, TimeseriesAdapter,
        };
        let mut r = AdapterRegistry::empty();
        r.install(Arc::new(RelationalAdapter));
        r.install(Arc::new(KvAdapter));
        r.install(Arc::new(TimeseriesAdapter));
        r.install(Arc::new(GraphAdapter));
        r.install(Arc::new(ArrayAdapter));
        r.install(Arc::new(TextAdapter));
        r.install(Arc::new(StreamAdapter));
        r.install(Arc::new(MlAdapter));
        r
    }

    /// Installs an adapter with higher precedence than the existing
    /// ones, so extensions can override the standard set.
    pub fn install(&mut self, adapter: Arc<dyn EngineAdapter>) {
        self.adapters.insert(0, adapter);
    }

    /// The installed adapters, in dispatch order.
    pub fn adapters(&self) -> &[Arc<dyn EngineAdapter>] {
        &self.adapters
    }

    /// The adapter that executes `op`, if any claims it.
    pub fn adapter_for(&self, op: &Operator) -> Option<&dyn EngineAdapter> {
        self.adapters
            .iter()
            .find(|a| a.supports(op))
            .map(Arc::as_ref)
    }

    /// Dispatches one operator through its adapter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] when no installed adapter claims the
    /// operator, and propagates adapter errors.
    pub fn dispatch(
        &self,
        op: &Operator,
        inputs: &[Dataset],
        target: Option<&EngineId>,
        registry: &EngineRegistry,
        ctx: &ExecCtx<'_>,
    ) -> Result<Dataset> {
        match self.adapter_for(op) {
            Some(adapter) => adapter.run(op, inputs, target, registry, ctx),
            None => Err(Error::Execution(match op {
                Operator::Custom { name } => format!("no adapter for custom op {name}"),
                other => format!("no adapter for op {}", other.name()),
            })),
        }
    }
}

impl Default for AdapterRegistry {
    fn default() -> Self {
        AdapterRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::TableRef;
    use pspp_ir::{AggFn, AggSpec, SortSpec, TextSearchMode, TsAgg};

    /// One instance of every IR operator variant.
    fn all_operators() -> Vec<Operator> {
        let t = || TableRef::new("e", "t");
        vec![
            Operator::scan(t()),
            Operator::Filter {
                predicate: pspp_common::Predicate::True,
            },
            Operator::Project {
                columns: vec!["a".into()],
            },
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "a".into(),
                    ascending: true,
                }],
            },
            Operator::HashJoin {
                left_on: "a".into(),
                right_on: "b".into(),
            },
            Operator::SortMergeJoin {
                left_on: "a".into(),
                right_on: "b".into(),
            },
            Operator::GroupBy {
                keys: vec!["a".into()],
                aggs: vec![AggSpec {
                    func: AggFn::Count,
                    column: "*".into(),
                    output: "n".into(),
                }],
            },
            Operator::Limit { n: 1 },
            Operator::KvPrefixScan {
                table: t(),
                prefix: "k".into(),
            },
            Operator::TsRange {
                table: t(),
                lo: 0,
                hi: 10,
            },
            Operator::TsWindow {
                table: t(),
                lo: 0,
                hi: 10,
                width: 2,
                agg: TsAgg::Mean,
            },
            Operator::GraphMatch {
                table: t(),
                start_label: "A".into(),
                steps: vec![(None, None)],
            },
            Operator::TextSearch {
                table: t(),
                terms: vec!["x".into()],
                mode: TextSearchMode::Any,
            },
            Operator::StreamWindow {
                table: t(),
                lo: 0,
                hi: 10,
                width: 2,
                column: 0,
                agg: TsAgg::Sum,
            },
            Operator::TrainMlp {
                label_column: "y".into(),
                hidden: vec![4],
                epochs: 1,
                batch_size: 8,
                learning_rate: 0.1,
            },
            Operator::Predict,
            Operator::KMeansCluster { k: 2, max_iters: 5 },
            Operator::Custom { name: "x".into() },
        ]
    }

    #[test]
    fn dispatch_covers_every_operator_variant() {
        let registry = AdapterRegistry::standard();
        for op in all_operators() {
            match &op {
                // The escape hatch stays unclaimed until an extension
                // installs an adapter for it.
                Operator::Custom { .. } => {
                    assert!(registry.adapter_for(&op).is_none(), "{}", op.name());
                }
                _ => {
                    let adapter = registry
                        .adapter_for(&op)
                        .unwrap_or_else(|| panic!("no adapter claims {}", op.name()));
                    assert!(adapter.supports(&op));
                }
            }
        }
    }

    #[test]
    fn dispatch_routes_operators_to_their_engine_family() {
        let registry = AdapterRegistry::standard();
        let expect = |op: &Operator, name: &str| {
            assert_eq!(
                registry.adapter_for(op).unwrap().name(),
                name,
                "{}",
                op.name()
            );
        };
        for op in all_operators() {
            match &op {
                Operator::Scan { .. }
                | Operator::Filter { .. }
                | Operator::Project { .. }
                | Operator::Sort { .. }
                | Operator::HashJoin { .. }
                | Operator::SortMergeJoin { .. }
                | Operator::GroupBy { .. }
                | Operator::Limit { .. } => expect(&op, "relational"),
                Operator::KvPrefixScan { .. } => expect(&op, "kv"),
                Operator::TsRange { .. } | Operator::TsWindow { .. } => expect(&op, "timeseries"),
                Operator::GraphMatch { .. } => expect(&op, "graph"),
                Operator::TextSearch { .. } => expect(&op, "text"),
                Operator::StreamWindow { .. } => expect(&op, "stream"),
                Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. } => {
                    expect(&op, "ml")
                }
                Operator::Custom { .. } => {}
            }
        }
    }

    #[test]
    fn exactly_one_standard_adapter_claims_each_operator() {
        let registry = AdapterRegistry::standard();
        for op in all_operators() {
            let claimants: Vec<&str> = registry
                .adapters()
                .iter()
                .filter(|a| a.supports(&op))
                .map(|a| a.name())
                .collect();
            assert!(
                claimants.len() <= 1,
                "{} claimed by {claimants:?}",
                op.name()
            );
        }
    }

    #[test]
    fn installed_adapters_take_precedence() {
        #[derive(Debug)]
        struct ClaimAll;
        impl EngineAdapter for ClaimAll {
            fn name(&self) -> &'static str {
                "claim-all"
            }
            fn supports(&self, _op: &Operator) -> bool {
                true
            }
            fn run(
                &self,
                _op: &Operator,
                inputs: &[Dataset],
                _target: Option<&EngineId>,
                _registry: &EngineRegistry,
                _ctx: &ExecCtx<'_>,
            ) -> Result<Dataset> {
                Ok(inputs[0].clone())
            }
        }
        let mut registry = AdapterRegistry::standard();
        registry.install(Arc::new(ClaimAll));
        let scan = Operator::scan(TableRef::new("e", "t"));
        assert_eq!(registry.adapter_for(&scan).unwrap().name(), "claim-all");
    }
}
