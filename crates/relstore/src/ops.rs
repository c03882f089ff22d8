//! Pure relational-algebra operators over row sets.
//!
//! These are the operators the paper's IR lowers SQL into (§III-A.1:
//! "SQL queries get mapped to projection, hash, sort, group-by, and join
//! operators"). They are pure functions over `(Schema, rows)` so the
//! runtime adapter can execute IR fragments on intermediate data, not
//! just on stored tables.

use std::cmp::Ordering;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pspp_common::{Error, FxBuildHasher, FxHasher, Result, Row, Schema, Value};

use pspp_common::Predicate;

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    /// Keep only matching pairs.
    Inner,
    /// Keep all left rows, padding right columns with NULL.
    LeftOuter,
}

/// A sort key: column plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortKey {
    /// Column name.
    pub column: String,
    /// Ascending?
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            ascending: true,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            ascending: false,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// Row count (column ignored).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Count of non-null values in the column — the partial state a
    /// distributed `Avg` ships to its merge stage.
    CountNonNull,
}

/// An aggregate over one column with an output name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Function.
    pub agg: Aggregate,
    /// Input column (ignored by `Count`).
    pub column: String,
    /// Output column name.
    pub output: String,
}

impl AggregateSpec {
    /// Creates a spec.
    pub fn new(agg: Aggregate, column: impl Into<String>, output: impl Into<String>) -> Self {
        AggregateSpec {
            agg,
            column: column.into(),
            output: output.into(),
        }
    }

    /// `COUNT(*) AS output`.
    pub fn count(output: impl Into<String>) -> Self {
        AggregateSpec::new(Aggregate::Count, "*", output)
    }
}

/// Filters rows by a predicate, bound to the schema once. Takes the
/// rows owned or borrowed; a kept row is shared with the input, not
/// copied.
///
/// # Errors
///
/// Propagates predicate evaluation errors (unknown columns).
pub fn filter_rows(
    schema: &Schema,
    rows: impl AsRef<[Row]>,
    predicate: &Predicate,
) -> Result<Vec<Row>> {
    let bound = predicate.bind(schema);
    let mut out = Vec::new();
    for row in rows.as_ref() {
        if bound.eval(row)? {
            out.push(row.clone());
        }
    }
    Ok(out)
}

/// Projects rows onto named columns, returning the new schema.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns.
pub fn project(schema: &Schema, rows: &[Row], columns: &[&str]) -> Result<(Schema, Vec<Row>)> {
    let out_schema = schema.project(columns)?;
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| schema.require(c))
        .collect::<Result<_>>()?;
    let out = rows.iter().map(|r| r.project(&idx)).collect();
    Ok((out_schema, out))
}

/// Stable multi-key sort.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown key columns.
pub fn sort_rows(schema: &Schema, mut rows: Vec<Row>, keys: &[SortKey]) -> Result<Vec<Row>> {
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| Ok((schema.require(&k.column)?, k.ascending)))
        .collect::<Result<_>>()?;
    rows.sort_by(|a, b| {
        for &(idx, asc) in &resolved {
            let ord = a[idx].cmp(&b[idx]);
            let ord = if asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(rows)
}

/// Hash join on single-column equality.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left_schema: &Schema,
    left: &[Row],
    right_schema: &Schema,
    right: &[Row],
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<(Schema, Vec<Row>)> {
    hash_join_with(
        left_schema,
        left,
        right_schema,
        right,
        left_on,
        right_on,
        kind,
        |_| {},
    )
}

/// [`hash_join`], also returning how many output rows each `left`
/// (probe) row produced, in probe order: the output rows of probe row
/// `i` are the contiguous chunk of length `counts[i]` after those of
/// the rows before it. A shuffled join's barrier splices its
/// per-destination outputs back into the gathered probe order by these
/// chunks, and takes them from the join it ran rather than from a
/// second build of the same table.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_counted(
    left_schema: &Schema,
    left: &[Row],
    right_schema: &Schema,
    right: &[Row],
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<(Schema, Vec<Row>, Vec<usize>)> {
    let mut counts = Vec::with_capacity(left.len());
    let (schema, rows) = hash_join_with(
        left_schema,
        left,
        right_schema,
        right,
        left_on,
        right_on,
        kind,
        |n| counts.push(n),
    )?;
    Ok((schema, rows, counts))
}

/// The one join body: builds on `right`, probes with `left`, and tells
/// `produced` after each probe row how many output rows it added.
#[allow(clippy::too_many_arguments)]
fn hash_join_with(
    left_schema: &Schema,
    left: &[Row],
    right_schema: &Schema,
    right: &[Row],
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
    mut produced: impl FnMut(usize),
) -> Result<(Schema, Vec<Row>)> {
    let li = left_schema.require(left_on)?;
    let ri = right_schema.require(right_on)?;
    let out_schema = left_schema.join(right_schema);

    // Build on the right side. Rows sharing a key form a chain through
    // `next` in build order, so a probe walks its matches in the order
    // they were inserted without a list allocated per key.
    const END: usize = usize::MAX;
    let mut next = vec![END; right.len()];
    let mut chains: HashMap<&Value, (usize, usize), FxBuildHasher> =
        HashMap::with_capacity_and_hasher(right.len(), FxBuildHasher::default());
    for (pos, r) in right.iter().enumerate() {
        if !r[ri].is_null() {
            chains
                .entry(&r[ri])
                .and_modify(|(_, last)| {
                    next[*last] = pos;
                    *last = pos;
                })
                .or_insert((pos, pos));
        }
    }
    let mut out = Vec::new();
    let null_right = Row::from(vec![Value::Null; right_schema.arity()]);
    for l in left {
        let before = out.len();
        match chains.get(&l[li]) {
            Some(&(first, _)) if !l[li].is_null() => {
                let mut pos = first;
                while pos != END {
                    out.push(l.concat(&right[pos]));
                    pos = next[pos];
                }
            }
            _ => {
                if kind == JoinKind::LeftOuter {
                    out.push(l.concat(&null_right));
                }
            }
        }
        produced(out.len() - before);
    }
    Ok((out_schema, out))
}

/// The key columns of one row, compared in place, beside their hash:
/// grouping looks a row up by this view and builds nothing per row, and
/// a growing map re-buckets its keys by the stored hash instead of
/// reading every first row again.
#[derive(Clone, Copy)]
struct GroupKey<'a> {
    hash: u64,
    row: &'a Row,
    columns: &'a [usize],
}

impl GroupKey<'_> {
    fn values(&self) -> impl Iterator<Item = &Value> {
        self.columns.iter().map(|&c| &self.row[c])
    }
}

impl std::hash::Hash for GroupKey<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.values().eq(other.values())
    }
}

impl Eq for GroupKey<'_> {}

/// Rows grouped by key columns, groups numbered in first-seen order.
struct Groups<'a> {
    columns: &'a [usize],
    index: HashMap<GroupKey<'a>, usize, FxBuildHasher>,
    /// The first row seen of each group: its key columns are the
    /// group's key.
    firsts: Vec<&'a Row>,
}

impl<'a> Groups<'a> {
    fn new(columns: &'a [usize]) -> Self {
        Groups {
            columns,
            index: HashMap::default(),
            firsts: Vec::new(),
        }
    }

    /// The group `row` belongs to; a group not seen before gets the
    /// next number (`firsts.len()` before the call).
    fn group_of(&mut self, row: &'a Row) -> usize {
        let key = GroupKey {
            hash: FxHasher::hash_all(self.columns.iter().map(|&c| &row[c])),
            row,
            columns: self.columns,
        };
        *self.index.entry(key).or_insert_with(|| {
            self.firsts.push(row);
            self.firsts.len() - 1
        })
    }
}

/// Merges per-shard partial-aggregation states back into the final
/// group-by result: `partial_rows` are the per-shard outputs of a
/// [`group_by`] over the *partial* aggregate list (see
/// `pspp_ir::partial_agg_specs` — one column per original aggregate,
/// two for `Avg`), concatenated in shard order; `aggs` are the
/// original aggregates. Groups finalize in first-seen order over the
/// concatenated partials, which equals the first-seen order over the
/// gathered input rows — so for exactly-representable sums (integer
/// columns) the merge is byte-identical to a single-site [`group_by`].
///
/// # Errors
///
/// Returns [`Error::SchemaMismatch`] when the partial schema's arity
/// does not match the aggregate layout or a partial state has the
/// wrong type.
pub fn merge_group_partials(
    partial_schema: &Schema,
    partial_rows: &[Row],
    key_count: usize,
    aggs: &[AggregateSpec],
) -> Result<(Schema, Vec<Row>)> {
    use pspp_common::{DataType, Field};

    let state_width = |a: &AggregateSpec| if a.agg == Aggregate::Avg { 2 } else { 1 };
    let expected = key_count + aggs.iter().map(state_width).sum::<usize>();
    if partial_schema.arity() != expected {
        return Err(Error::SchemaMismatch(format!(
            "partial schema has {} columns, aggregate layout needs {expected}",
            partial_schema.arity()
        )));
    }
    let mut out_fields: Vec<Field> = partial_schema.fields()[..key_count].to_vec();
    for a in aggs {
        let dt = match a.agg {
            Aggregate::Count | Aggregate::CountNonNull => DataType::Int,
            _ => DataType::Float,
        };
        out_fields.push(Field::new(a.output.clone(), dt));
    }
    let out_schema = Schema::from_fields(out_fields);

    /// One aggregate's merge state.
    #[derive(Clone)]
    enum MergeAcc {
        /// Count / CountNonNull: running integer total.
        Ints(i64),
        /// Sum: running float total.
        Floats(f64),
        /// Avg: (sum of partial sums, total non-null count).
        Ratio(f64, i64),
        /// Min/Max: current extremum (None until a non-null partial).
        Extremum(Option<Value>),
    }
    let fresh = |a: &AggregateSpec| match a.agg {
        Aggregate::Count | Aggregate::CountNonNull => MergeAcc::Ints(0),
        Aggregate::Sum => MergeAcc::Floats(0.0),
        Aggregate::Avg => MergeAcc::Ratio(0.0, 0),
        Aggregate::Min | Aggregate::Max => MergeAcc::Extremum(None),
    };
    let int_state = |v: &Value| {
        v.as_i64()
            .ok_or_else(|| Error::SchemaMismatch(format!("expected integer partial, got {v:?}")))
    };
    let float_state = |v: &Value| {
        v.as_f64()
            .ok_or_else(|| Error::SchemaMismatch(format!("expected numeric partial, got {v:?}")))
    };

    let key_columns: Vec<usize> = (0..key_count).collect();
    let mut groups = Groups::new(&key_columns);
    // One state per (group, aggregate), group-major.
    let mut accs: Vec<MergeAcc> = Vec::new();
    for row in partial_rows {
        let g = groups.group_of(row);
        if g * aggs.len() == accs.len() {
            accs.extend(aggs.iter().map(fresh));
        }
        let mut col = key_count;
        for (acc, spec) in accs[g * aggs.len()..].iter_mut().zip(aggs) {
            match acc {
                MergeAcc::Ints(n) => *n += int_state(&row[col])?,
                MergeAcc::Floats(s) => *s += float_state(&row[col])?,
                MergeAcc::Ratio(s, n) => {
                    *s += float_state(&row[col])?;
                    *n += int_state(&row[col + 1])?;
                }
                MergeAcc::Extremum(m) => {
                    let v = &row[col];
                    if !v.is_null() {
                        let better = match (m.as_ref(), spec.agg) {
                            (None, _) => true,
                            (Some(cur), Aggregate::Min) => v < cur,
                            (Some(cur), _) => v > cur,
                        };
                        if better {
                            *m = Some(v.clone());
                        }
                    }
                }
            }
            col += state_width(spec);
        }
    }

    let mut accs = accs.into_iter();
    let out = groups
        .firsts
        .iter()
        .map(|first| {
            let keys = first.values()[..key_count].iter().cloned();
            let finals = accs.by_ref().take(aggs.len()).map(|acc| match acc {
                MergeAcc::Ints(n) => Value::Int(n),
                MergeAcc::Floats(s) => Value::Float(s),
                MergeAcc::Ratio(_, 0) => Value::Null,
                MergeAcc::Ratio(s, n) => Value::Float(s / n as f64),
                MergeAcc::Extremum(m) => m.unwrap_or(Value::Null),
            });
            keys.chain(finals).collect()
        })
        .collect();
    Ok((out_schema, out))
}

/// Sort-merge join on single-column equality: sorts both inputs by the
/// join key, then merges. This is the §III worked example's operator
/// ("DB1 performs a sort-merge on 'Date'").
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
pub fn sort_merge_join(
    left_schema: &Schema,
    left: Vec<Row>,
    right_schema: &Schema,
    right: Vec<Row>,
    left_on: &str,
    right_on: &str,
) -> Result<(Schema, Vec<Row>)> {
    let li = left_schema.require(left_on)?;
    let ri = right_schema.require(right_on)?;
    let left = sort_rows(left_schema, left, &[SortKey::asc(left_on)])?;
    let right = sort_rows(right_schema, right, &[SortKey::asc(right_on)])?;
    let out_schema = left_schema.join(right_schema);

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lv = &left[i][li];
        let rv = &right[j][ri];
        if lv.is_null() {
            i += 1;
            continue;
        }
        if rv.is_null() {
            j += 1;
            continue;
        }
        match lv.cmp(rv) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Emit the cross product of the equal runs.
                let run_start = j;
                while i < left.len() && left[i][li] == *rv {
                    let mut jj = run_start;
                    while jj < right.len() && right[jj][ri] == *rv {
                        out.push(left[i].concat(&right[jj]));
                        jj += 1;
                    }
                    i += 1;
                }
                j = run_start;
                while j < right.len() && right[j][ri] == *rv {
                    j += 1;
                }
            }
        }
    }
    Ok((out_schema, out))
}

/// Group-by aggregation.
///
/// Output schema is `keys ++ aggregate outputs`; `Count` yields `Int`,
/// the numeric aggregates yield `Float`.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns, or
/// [`Error::SchemaMismatch`] when aggregating a non-numeric column.
pub fn group_by(
    schema: &Schema,
    rows: &[Row],
    keys: &[&str],
    aggs: &[AggregateSpec],
) -> Result<(Schema, Vec<Row>)> {
    use pspp_common::{DataType, Field};

    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| schema.require(k))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| {
            if a.agg == Aggregate::Count {
                Ok(None)
            } else {
                schema.require(&a.column).map(Some)
            }
        })
        .collect::<Result<_>>()?;

    let mut out_fields: Vec<Field> = key_idx
        .iter()
        .map(|&i| schema.fields()[i].clone())
        .collect();
    for a in aggs {
        let dt = match a.agg {
            Aggregate::Count | Aggregate::CountNonNull => DataType::Int,
            _ => DataType::Float,
        };
        out_fields.push(Field::new(a.output.clone(), dt));
    }
    let out_schema = Schema::from_fields(out_fields);

    /// One aggregate's running state within one group.
    #[derive(Clone, Default)]
    struct Acc {
        /// Sum of the non-null numeric values (`Sum`, `Avg`).
        sum: f64,
        /// Non-null values seen (`Avg`, `CountNonNull`).
        count: i64,
        /// Current minimum or maximum (`Min`, `Max`).
        extremum: Option<Value>,
    }
    let mut groups = Groups::new(&key_idx);
    let mut group_rows_seen: Vec<i64> = Vec::new();
    // One state per (group, aggregate), group-major.
    let mut accs: Vec<Acc> = Vec::new();

    for row in rows {
        let g = groups.group_of(row);
        if g == group_rows_seen.len() {
            group_rows_seen.push(0);
            accs.resize(accs.len() + aggs.len(), Acc::default());
        }
        group_rows_seen[g] += 1;
        let group_accs = &mut accs[g * aggs.len()..];
        for ((acc, spec), idx) in group_accs.iter_mut().zip(aggs).zip(&agg_idx) {
            let Some(idx) = idx else { continue };
            let v = &row[*idx];
            if v.is_null() {
                continue;
            }
            match spec.agg {
                Aggregate::Sum | Aggregate::Avg => {
                    let x = v.as_f64().ok_or_else(|| {
                        Error::SchemaMismatch(format!("cannot aggregate {v:?} numerically"))
                    })?;
                    acc.sum += x;
                    acc.count += 1;
                }
                Aggregate::Min => {
                    if acc.extremum.as_ref().is_none_or(|m| v < m) {
                        acc.extremum = Some(v.clone());
                    }
                }
                Aggregate::Max => {
                    if acc.extremum.as_ref().is_none_or(|m| v > m) {
                        acc.extremum = Some(v.clone());
                    }
                }
                Aggregate::CountNonNull => acc.count += 1,
                Aggregate::Count => {}
            }
        }
    }

    let mut accs = accs.into_iter();
    let out = groups
        .firsts
        .iter()
        .zip(group_rows_seen)
        .map(|(first, seen)| {
            let keys = key_idx.iter().map(|&i| first[i].clone());
            let finals =
                accs.by_ref()
                    .take(aggs.len())
                    .zip(aggs)
                    .map(|(acc, spec)| match spec.agg {
                        Aggregate::Count => Value::Int(seen),
                        Aggregate::Sum => Value::Float(acc.sum),
                        Aggregate::Avg if acc.count == 0 => Value::Null,
                        Aggregate::Avg => Value::Float(acc.sum / acc.count as f64),
                        Aggregate::Min | Aggregate::Max => acc.extremum.unwrap_or(Value::Null),
                        Aggregate::CountNonNull => Value::Int(acc.count),
                    });
            keys.chain(finals).collect()
        })
        .collect();
    Ok((out_schema, out))
}

/// The first `n` rows (all of them when there are fewer).
pub fn limit(rows: &[Row], n: usize) -> Vec<Row> {
    rows[..n.min(rows.len())].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType};

    fn lr() -> (Schema, Vec<Row>, Schema, Vec<Row>) {
        let ls = Schema::new(vec![("id", DataType::Int), ("x", DataType::Str)]);
        let rs = Schema::new(vec![("id", DataType::Int), ("y", DataType::Float)]);
        let left = vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]];
        let right = vec![
            row![2i64, 0.2],
            row![3i64, 0.3],
            row![3i64, 0.33],
            row![4i64, 0.4],
        ];
        (ls, left, rs, right)
    }

    #[test]
    fn hash_and_merge_joins_agree() {
        let (ls, l, rs, r) = lr();
        let (_, mut h) = hash_join(&ls, &l, &rs, &r, "id", "id", JoinKind::Inner).unwrap();
        let (_, mut m) = sort_merge_join(&ls, l, &rs, r, "id", "id").unwrap();
        h.sort();
        m.sort();
        assert_eq!(h, m);
        assert_eq!(h.len(), 3); // 2->1 match, 3->2 matches
    }

    #[test]
    fn left_outer_pads_nulls() {
        let (ls, l, rs, r) = lr();
        let (schema, rows) = hash_join(&ls, &l, &rs, &r, "id", "id", JoinKind::LeftOuter).unwrap();
        assert_eq!(rows.len(), 4); // id=1 survives with NULLs
        let unmatched = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(unmatched[2].is_null() && unmatched[3].is_null());
        assert_eq!(schema.arity(), 4);
        assert_eq!(schema.names(), vec!["id", "x", "id_r", "y"]);
    }

    #[test]
    fn join_skips_null_keys() {
        let ls = Schema::new(vec![("id", DataType::Int)]);
        let l = vec![Row::from(vec![Value::Null]), row![1i64]];
        let r = vec![Row::from(vec![Value::Null]), row![1i64]];
        let (_, rows) = hash_join(&ls, &l, &ls, &r, "id", "id", JoinKind::Inner).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn multi_key_sort_with_direction() {
        let s = Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]);
        let rows = vec![row![1i64, 2i64], row![1i64, 1i64], row![0i64, 9i64]];
        let sorted = sort_rows(&s, rows, &[SortKey::asc("a"), SortKey::desc("b")]).unwrap();
        assert_eq!(
            sorted,
            vec![row![0i64, 9i64], row![1i64, 2i64], row![1i64, 1i64]]
        );
    }

    #[test]
    fn group_by_all_aggregates() {
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![row!["a", 1i64], row!["a", 5i64], row!["b", 2i64]];
        let (schema, out) = group_by(
            &s,
            &rows,
            &["g"],
            &[
                AggregateSpec::count("n"),
                AggregateSpec::new(Aggregate::Sum, "v", "sum"),
                AggregateSpec::new(Aggregate::Avg, "v", "avg"),
                AggregateSpec::new(Aggregate::Min, "v", "min"),
                AggregateSpec::new(Aggregate::Max, "v", "max"),
            ],
        )
        .unwrap();
        assert_eq!(schema.arity(), 6);
        let a = out.iter().find(|r| r[0] == Value::from("a")).unwrap();
        assert_eq!(a[1], Value::Int(2));
        assert_eq!(a[2], Value::Float(6.0));
        assert_eq!(a[3], Value::Float(3.0));
        assert_eq!(a[4], Value::Int(1));
        assert_eq!(a[5], Value::Int(5));
    }

    #[test]
    fn counted_join_is_the_join_plus_per_probe_chunk_sizes() {
        let ls = Schema::new(vec![("k", DataType::Int)]);
        let rs = Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)]);
        let left = vec![row![1i64], row![Value::Null], row![2i64], row![3i64]];
        let right = vec![
            row![2i64, "a"],
            row![Value::Null, "n"],
            row![2i64, "b"],
            row![1i64, "c"],
        ];
        for (kind, expect) in [
            (JoinKind::Inner, vec![1, 0, 2, 0]),
            // An unmatched probe row still produces its padded row.
            (JoinKind::LeftOuter, vec![1, 1, 2, 1]),
        ] {
            let (schema, rows, counts) =
                hash_join_counted(&ls, &left, &rs, &right, "k", "k", kind).unwrap();
            assert_eq!(counts, expect);
            // Same body: the plain form returns the same schema and rows.
            let (plain_schema, plain) = hash_join(&ls, &left, &rs, &right, "k", "k", kind).unwrap();
            assert_eq!((schema, &rows), (plain_schema, &plain));
            // The counts cut the output into per-probe-row chunks.
            let mut chunks = rows.as_slice();
            for (l, &n) in left.iter().zip(&counts) {
                let (chunk, rest) = chunks.split_at(n);
                assert!(chunk.iter().all(|r| r[0] == l[0]));
                chunks = rest;
            }
            assert!(chunks.is_empty());
        }
        assert!(matches!(
            hash_join_counted(&ls, &left, &rs, &right, "nope", "k", JoinKind::Inner),
            Err(Error::ColumnNotFound(_))
        ));
    }

    #[test]
    fn merged_partials_equal_single_site_group_by() {
        // Integer columns: float sums are exact, so the merge must be
        // byte-identical to aggregating the gathered rows directly.
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![
            row!["b", 4i64],
            row!["a", 1i64],
            row!["a", 5i64],
            row!["b", 2i64],
            row!["c", Value::Null],
        ];
        let aggs = [
            AggregateSpec::count("n"),
            AggregateSpec::new(Aggregate::Sum, "v", "sum"),
            AggregateSpec::new(Aggregate::Avg, "v", "avg"),
            AggregateSpec::new(Aggregate::Min, "v", "min"),
            AggregateSpec::new(Aggregate::Max, "v", "max"),
        ];
        // The partial layout `pspp_ir::partial_agg_specs` produces:
        // count, sum, (sum, non-null count), min, max.
        let partial = [
            AggregateSpec::count("__p0_count"),
            AggregateSpec::new(Aggregate::Sum, "v", "__p1_sum"),
            AggregateSpec::new(Aggregate::Sum, "v", "__p2_sum"),
            AggregateSpec::new(Aggregate::CountNonNull, "v", "__p2_n"),
            AggregateSpec::new(Aggregate::Min, "v", "__p3_min"),
            AggregateSpec::new(Aggregate::Max, "v", "__p4_max"),
        ];
        let (expect_schema, expect) = group_by(&s, &rows, &["g"], &aggs).unwrap();
        // Split rows across two "shards" and aggregate each partially.
        let (shard0, shard1) = rows.split_at(2);
        let (ps, mut partial_rows) = group_by(&s, shard0, &["g"], &partial).unwrap();
        let (_, more) = group_by(&s, shard1, &["g"], &partial).unwrap();
        partial_rows.extend(more);
        let (schema, merged) = merge_group_partials(&ps, &partial_rows, 1, &aggs).unwrap();
        assert_eq!(schema, expect_schema);
        assert_eq!(merged, expect, "merge must reproduce the gathered answer");
    }

    #[test]
    fn merge_partials_arity_mismatch_is_typed() {
        let s = Schema::new(vec![("g", DataType::Str), ("x", DataType::Int)]);
        let err = merge_group_partials(&s, &[], 1, &[AggregateSpec::count("n")]);
        assert!(err.is_ok(), "count layout is one column");
        let err = merge_group_partials(&s, &[], 1, &[AggregateSpec::new(Aggregate::Avg, "x", "a")])
            .unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch(_)), "got {err:?}");
    }

    #[test]
    fn count_non_null_counts_only_values() {
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![row!["a", 1i64], row!["a", Value::Null], row!["a", 3i64]];
        let (schema, out) = group_by(
            &s,
            &rows,
            &["g"],
            &[
                AggregateSpec::count("rows"),
                AggregateSpec::new(Aggregate::CountNonNull, "v", "vals"),
            ],
        )
        .unwrap();
        assert_eq!(schema.names(), vec!["g", "rows", "vals"]);
        assert_eq!(out[0][1], Value::Int(3));
        assert_eq!(out[0][2], Value::Int(2));
    }

    #[test]
    fn group_by_preserves_first_seen_order() {
        let s = Schema::new(vec![("g", DataType::Str)]);
        let rows = vec![row!["z"], row!["a"], row!["z"], row!["m"]];
        let (_, out) = group_by(&s, &rows, &["g"], &[AggregateSpec::count("n")]).unwrap();
        let order: Vec<&str> = out.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(order, vec!["z", "a", "m"]);
    }

    #[test]
    fn filter_project_limit() {
        let s = Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]);
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64, (i * i) as i64]).collect();
        let f = filter_rows(&s, rows, &Predicate::ge("a", 5i64)).unwrap();
        assert_eq!(f.len(), 5);
        let (ps, p) = project(&s, &f, &["b"]).unwrap();
        assert_eq!(ps.arity(), 1);
        assert_eq!(p[0], row![25i64]);
        assert_eq!(limit(&p, 2).len(), 2);
    }

    #[test]
    fn aggregate_non_numeric_errors() {
        let s = Schema::new(vec![("g", DataType::Str)]);
        let rows = vec![row!["a"]];
        assert!(group_by(
            &s,
            &rows,
            &[],
            &[AggregateSpec::new(Aggregate::Sum, "g", "s")]
        )
        .is_err());
    }
}
