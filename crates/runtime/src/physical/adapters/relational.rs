//! Adapter for relational stores and engine-agnostic row transforms.

use pspp_common::{DataModel, EngineId, Result};
use pspp_ir::{AggFn, Operator};
use pspp_relstore::{ops, Aggregate, AggregateSpec, JoinKind, Kept, SortKey};

use crate::dataset::{Dataset, RowBuf};
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::EngineRegistry;

/// Executes relational scans against their store, and the generic row
/// transforms (filter, project, sort, joins, group-by, limit) wherever
/// the data currently lives — transforms run at the middleware over any
/// data model's row form, matching the paper's "operators migrate to
/// data" default.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationalAdapter;

impl EngineAdapter for RelationalAdapter {
    fn name(&self) -> &'static str {
        "relational"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(
            op,
            Operator::Scan { .. }
                | Operator::Filter { .. }
                | Operator::Project { .. }
                | Operator::Sort { .. }
                | Operator::HashJoin { .. }
                | Operator::SortMergeJoin { .. }
                | Operator::GroupBy { .. }
                | Operator::Limit { .. }
        )
    }

    fn run(
        &self,
        op: &Operator,
        inputs: &[Dataset],
        target: Option<&EngineId>,
        registry: &EngineRegistry,
        ctx: &ExecCtx<'_>,
    ) -> Result<Dataset> {
        let loc = |d: &Dataset| d.location.clone();
        match op {
            Operator::Scan {
                table,
                predicate,
                projection,
            } => {
                // Scatter-gather scans read the shard replica the
                // executor routed this task to (shard 0 when unsharded).
                let store = registry.relational_shard(&table.engine, ctx.shard())?;
                let cols: Option<Vec<&str>> = projection
                    .as_ref()
                    .map(|p| p.iter().map(String::as_str).collect());
                let (name, cols) = (&table.name, cols.as_deref());
                // A shuffle reads this task next: the scan hashes the
                // key out of the table's column image as it scans.
                let route = ctx.route();
                let (kept, routes) =
                    store.scan_kept(name, predicate, cols, route.map(|r| (r.key, r.width)))?;
                if let Some(request) = route {
                    request.routes.set(routes).map_err(|_| {
                        pspp_common::Error::Execution("a task's routes were set twice".into())
                    })?;
                }
                let rows = match kept {
                    Kept::Selection(selection) => RowBuf::selection(selection),
                    Kept::Projected(scanned) => RowBuf::pre_sized(scanned.rows, scanned.byte_size),
                };
                Ok(Dataset::from_buf(
                    store.scan_schema(name, cols)?,
                    rows,
                    DataModel::Relational,
                    table.engine.clone(),
                ))
            }
            Operator::Filter { predicate } => {
                let d = &inputs[0];
                let rows = d.row_buf()?;
                let kept = ops::filter_at(d.schema()?, rows.selected()?, predicate)?;
                let schema = d.schema()?.clone();
                Ok(Dataset::from_buf(
                    schema,
                    rows.pick(kept, None)?,
                    d.model,
                    loc(d),
                ))
            }
            Operator::Project { columns } => {
                let d = &inputs[0];
                let schema = d.schema()?;
                // The input's own columns in its own order (a join that
                // built only what this projection reads): the same rows.
                let identity = columns.len() == schema.arity()
                    && columns
                        .iter()
                        .enumerate()
                        .all(|(at, column)| schema.index_of(column) == Some(at));
                if identity {
                    return Ok(d.clone());
                }
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                let (schema, rows, byte_size) =
                    ops::project_at(schema, d.row_buf()?.selected()?, &cols)?;
                Ok(Dataset::sized_rows(
                    schema,
                    rows,
                    byte_size,
                    d.model,
                    loc(d),
                ))
            }
            Operator::Sort { keys } => {
                let d = &inputs[0];
                let sort_keys: Vec<SortKey> = keys
                    .iter()
                    .map(|k| SortKey {
                        column: k.column.clone(),
                        ascending: k.ascending,
                    })
                    .collect();
                // The same rows reordered, so the same bytes; read by a
                // limit alone, only the rows it keeps are put in order.
                let rows = d.row_buf()?;
                let top = ctx.ordered_prefix();
                let order = ops::sort_at(d.schema()?, rows.selected()?, &sort_keys, top)?;
                let sorted = rows.pick(order, Some(d.byte_size()))?;
                Ok(Dataset::from_buf(
                    d.schema()?.clone(),
                    sorted,
                    d.model,
                    loc(d),
                ))
            }
            Operator::HashJoin { left_on, right_on } => {
                let (l, r) = (&inputs[0], &inputs[1]);
                // A shuffled-join bucket's barrier takes its splice
                // chunk sizes out of the join itself.
                let mut counts = ctx.probe_counts().map(|_| Vec::with_capacity(l.len()));
                let (schema, rows, byte_size) = ops::hash_join_with(
                    l.schema()?,
                    l.try_rows()?,
                    r.schema()?,
                    r.try_rows()?,
                    left_on,
                    right_on,
                    JoinKind::Inner,
                    ctx.demand(),
                    |n| {
                        if let Some(counts) = &mut counts {
                            counts.push(n);
                        }
                    },
                )?;
                if let (Some(slot), Some(counts)) = (ctx.probe_counts(), counts) {
                    slot.set(counts).map_err(|_| {
                        pspp_common::Error::Execution(
                            "a task's match counts were reported twice".into(),
                        )
                    })?;
                }
                let location = target.cloned().unwrap_or_else(|| loc(l));
                Ok(Dataset::sized_rows(
                    schema, rows, byte_size, l.model, location,
                ))
            }
            Operator::SortMergeJoin { left_on, right_on } => {
                let (l, r) = (&inputs[0], &inputs[1]);
                let (schema, rows, byte_size) = ops::sort_merge_join_with(
                    l.schema()?,
                    l.try_rows()?.to_vec(),
                    r.schema()?,
                    r.try_rows()?.to_vec(),
                    left_on,
                    right_on,
                    ctx.demand(),
                )?;
                let location = target.cloned().unwrap_or_else(|| loc(l));
                Ok(Dataset::sized_rows(
                    schema, rows, byte_size, l.model, location,
                ))
            }
            Operator::GroupBy { keys, aggs } => {
                let d = &inputs[0];
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let specs: Vec<AggregateSpec> = aggs
                    .iter()
                    .map(|a| AggregateSpec::new(agg_fn(a.func), a.column.clone(), a.output.clone()))
                    .collect();
                let (schema, rows, byte_size) =
                    ops::group_by_at(d.schema()?, d.row_buf()?.selected()?, &key_refs, &specs)?;
                Ok(Dataset::sized_rows(
                    schema,
                    rows,
                    byte_size,
                    d.model,
                    loc(d),
                ))
            }
            Operator::Limit { n } => {
                let d = &inputs[0];
                Ok(if *n >= d.len() {
                    d.clone()
                } else {
                    let rows = d.row_buf()?.prefix(*n);
                    Dataset::from_buf(d.schema()?.clone(), rows, d.model, loc(d))
                })
            }
            other => unsupported(self, other),
        }
    }
}

/// Maps IR aggregate functions to the relational store's natives.
pub(crate) fn agg_fn(f: AggFn) -> Aggregate {
    match f {
        AggFn::Count => Aggregate::Count,
        AggFn::Sum => Aggregate::Sum,
        AggFn::Avg => Aggregate::Avg,
        AggFn::Min => Aggregate::Min,
        AggFn::Max => Aggregate::Max,
        AggFn::CountNonNull => Aggregate::CountNonNull,
    }
}

/// Shared "wrong adapter" error used by every adapter's fallthrough arm.
pub(crate) fn unsupported(adapter: &dyn EngineAdapter, op: &Operator) -> Result<Dataset> {
    Err(pspp_common::Error::Execution(format!(
        "{} adapter cannot execute {}",
        adapter.name(),
        op.name()
    )))
}
