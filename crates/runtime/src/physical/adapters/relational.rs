//! Relational scans, and the engine-agnostic row transforms (filter,
//! project, sort, joins, group-by, limit) that run wherever the data
//! currently lives — transforms run at the middleware over any data
//! model's row form, matching the paper's "operators migrate to data"
//! default.

use pspp_common::{DataModel, EngineId, Error, Predicate, Result, TableRef};
use pspp_ir::{AggFn, AggSpec, SortSpec};
use pspp_relstore::{ops, Aggregate, AggregateSpec, JoinKind, SortKey};

use crate::dataset::{Dataset, RowBuf};
use crate::physical::ExecCtx;
use crate::registry::EngineRegistry;

/// Scans `table` on the shard replica the executor routed this task to
/// (shard 0 when unsharded), hashing the rows for the shuffle that
/// reads them next when the context asks.
pub(crate) fn scan(
    registry: &EngineRegistry,
    table: &TableRef,
    predicate: &Predicate,
    projection: Option<&[String]>,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    let store = registry.relational_shard(&table.engine, ctx.shard())?;
    let cols: Option<Vec<&str>> = projection.map(|p| p.iter().map(String::as_str).collect());
    let (name, cols) = (&table.name, cols.as_deref());
    // A shuffle reads this task next: the scan hashes the key out of
    // the table's column image as it scans.
    let route = ctx.route();
    let (selection, routes) =
        store.scan_kept(name, predicate, cols, route.map(|r| (r.key, r.width)))?;
    let mut rows = RowBuf::selection(selection);
    if let Some(request) = route {
        // The destinations' bytes add up to the scan's.
        rows = rows.sized(routes.bytes.iter().sum());
        request
            .routes
            .set(routes)
            .map_err(|_| Error::Execution("a task's routes were set twice".into()))?;
    }
    Ok(Dataset::from_buf(
        store.scan_schema(name, cols)?,
        rows,
        DataModel::Relational,
        table.engine.clone(),
    ))
}

/// Keeps the rows of `d` matching `predicate`.
pub(crate) fn filter(d: &Dataset, predicate: &Predicate) -> Result<Dataset> {
    let rows = d.row_buf()?;
    let kept = ops::filter_at(d.schema()?, rows.selected()?, predicate)?;
    let schema = d.schema()?.clone();
    Ok(Dataset::from_buf(
        schema,
        rows.pick(kept, None)?,
        d.model,
        d.location.clone(),
    ))
}

/// Projects `d` onto `columns`, in their order: a scan's selection stays
/// one, exposing those columns, and no row is built.
pub(crate) fn project(d: &Dataset, columns: &[String]) -> Result<Dataset> {
    let schema = d.schema()?;
    // The input's own columns in its own order (a join that built only
    // what this projection reads): the same rows.
    let identity = columns.len() == schema.arity()
        && columns
            .iter()
            .enumerate()
            .all(|(at, column)| schema.index_of(column) == Some(at));
    if identity {
        return Ok(d.clone());
    }
    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    if let Some(selection) = d.row_buf()?.as_selection() {
        let at: Vec<usize> = (cols.iter())
            .map(|c| schema.require(c))
            .collect::<Result<_>>()?;
        let projected = RowBuf::selection(selection.project(&at)?);
        let schema = schema.project(&cols)?;
        return Ok(Dataset::from_buf(
            schema,
            projected,
            d.model,
            d.location.clone(),
        ));
    }
    let (schema, rows, byte_size) = ops::project_at(schema, d.row_buf()?.selected()?, &cols)?;
    Ok(Dataset::sized_rows(
        schema,
        rows,
        byte_size,
        d.model,
        d.location.clone(),
    ))
}

/// Sorts `d` on `keys`, most significant first.
pub(crate) fn sort(d: &Dataset, keys: &[SortSpec], ctx: &ExecCtx<'_>) -> Result<Dataset> {
    let sort_keys: Vec<SortKey> = keys
        .iter()
        .map(|k| SortKey {
            column: k.column.clone(),
            ascending: k.ascending,
        })
        .collect();
    // The same rows reordered, so the same bytes; read by a limit alone,
    // only the rows it keeps are put in order.
    let rows = d.row_buf()?;
    let top = ctx.ordered_prefix();
    let order = ops::sort_at(d.schema()?, rows.selected()?, &sort_keys, top)?;
    let sorted = rows.pick(order, Some(d.byte_size()))?;
    Ok(Dataset::from_buf(
        d.schema()?.clone(),
        sorted,
        d.model,
        d.location.clone(),
    ))
}

/// Hash-joins `l` (probe) with `r` on `left_on = right_on`, reading a
/// scan's selection where it lies and building the demanded columns of
/// the matched pairs only.
pub(crate) fn hash_join(
    l: &Dataset,
    r: &Dataset,
    left_on: &str,
    right_on: &str,
    target: Option<&EngineId>,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    // A shuffled-join bucket's barrier takes its splice chunk sizes out
    // of the join itself.
    let mut counts = ctx.probe_counts().map(|_| Vec::with_capacity(l.len()));
    let (schema, rows, byte_size) = ops::hash_join_with(
        l.schema()?,
        l.row_buf()?.selected()?,
        r.schema()?,
        r.row_buf()?.selected()?,
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
        slot.set(counts)
            .map_err(|_| Error::Execution("a task's match counts were reported twice".into()))?;
    }
    let location = target.cloned().unwrap_or_else(|| l.location.clone());
    Ok(Dataset::sized_rows(
        schema, rows, byte_size, l.model, location,
    ))
}

/// Sort-merge-joins `l` with `r` on `left_on = right_on`, reading a
/// scan's selection where it lies and building the demanded columns
/// only.
pub(crate) fn sort_merge_join(
    l: &Dataset,
    r: &Dataset,
    left_on: &str,
    right_on: &str,
    target: Option<&EngineId>,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    let (schema, rows, byte_size) = ops::sort_merge_join_with(
        l.schema()?,
        l.row_buf()?.selected()?,
        r.schema()?,
        r.row_buf()?.selected()?,
        left_on,
        right_on,
        ctx.demand(),
    )?;
    let location = target.cloned().unwrap_or_else(|| l.location.clone());
    Ok(Dataset::sized_rows(
        schema, rows, byte_size, l.model, location,
    ))
}

/// Groups `d` on `keys` and computes `aggs` per group.
pub(crate) fn group_by(d: &Dataset, keys: &[String], aggs: &[AggSpec]) -> Result<Dataset> {
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
        d.location.clone(),
    ))
}

/// The first `n` rows of `d`.
pub(crate) fn limit(d: &Dataset, n: usize) -> Result<Dataset> {
    Ok(if n >= d.len() {
        d.clone()
    } else {
        let rows = d.row_buf()?.prefix(n);
        Dataset::from_buf(d.schema()?.clone(), rows, d.model, d.location.clone())
    })
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
