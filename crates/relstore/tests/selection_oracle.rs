//! The relational kernels over a scan's selection — positions into the
//! table's snapshot, whose typed column image has every column — against
//! the rows the selection builds: the same kernels over those rows, and
//! the specifications written here over `Value`'s own order (a stable
//! `sort_by`, `Predicate::eval` a row at a time, a slice prefix). Two
//! selections are joined (hash and sort-merge, inner and left outer, any
//! demanded columns) as their rows join, and so are a selection and
//! plain rows, which have no image, on either side; a selection batches
//! for a migration as its rows do. The selections come from sequential
//! and index scans and are reordered at random, so their positions are
//! rarely ascending.
//!
//! The same checks hold a selection over several snapshots — two to
//! four tables of one schema scanned and appended in turn, as a gather
//! or a shuffle of shards' scans appends them — whose positions are then
//! interleaved across the parts, and the split a shuffle routes it by.
//!
//! A projected selection — one exposing some of its snapshots' columns,
//! in any order, repeats included, and perhaps projected again — is held
//! to the same kernels over rows projected one at a time out of the rows
//! the unprojected selection builds, its byte size included, over tables
//! of every type (a `Bytes` column beside the others).
//!
//! A join with a side that reads every row of a table's snapshot, in
//! order, probes that snapshot's key index (module docs of `ops`, "Key
//! words") instead of building a table of its own: each join also runs
//! with either side, and both, read whole off a table of their own that
//! holds the rows they read as — through a projection, the table's
//! columns stored in reverse order — and must answer as the plain rows
//! do.
//!
//! A shuffle's bucket — each of one to four tables, a shard each,
//! scanned and routed on the join key, split by destination and appended
//! in turn — reads one whole destination of each table's hash layout, in
//! order, and a join with it probes each table's kept key index instead
//! of building a table; it must answer as the join over the bucket's
//! built rows does, and so must every bucket that falls back.
//!
//! Every row stored carries a `rid` of its own in its last column, so
//! that rows compared by value are told apart: two equal rows swapped
//! (a lost tie-break) fail as any other wrong row does.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicI64, Ordering as Atomic};

use proptest::prelude::*;
use pspp_common::{
    Batch, DataType, Error, Field, HashRouter, Predicate, Result, Row, Schema, Value,
};
use pspp_relstore::ops::{self, Aggregate, AggregateSpec, JoinKind, Selected, SortKey};
use pspp_relstore::{RelationalStore, Selection};

mod predicate_gen;
mod row_gen;
use predicate_gen::{arb_predicate_program, predicate_from, PredicateStep};
use row_gen::{arb_any, arb_bool, arb_float, arb_int, arb_str, arb_timestamp};

const COLUMNS: [&str; 5] = ["i", "f", "t", "b", "s"];
/// A filter's leaves: real columns, and now and then two the schema
/// lacks, whose errors must surface as a row at a time raises them.
const FILTER_COLUMNS: [&str; 12] = [
    "i", "f", "t", "b", "s", "i", "f", "t", "b", "s", "yyy", "zzz",
];

/// Up to `max - 1` rows of [`schema`] over small domains (duplicate
/// keys). Per table, each column either holds no NULL — a typed key, read
/// as words out of the image — or a NULL a quarter of the time. The
/// string column (`""` among its values) is imaged too: projections and
/// joins copy it out of the image, while its keys and predicate leaves
/// are read through the rows.
fn arb_table(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let cells = (
        arb_int(),
        arb_float(),
        arb_timestamp(),
        arb_bool(),
        arb_str(),
    );
    table_of(cells, max)
}

/// Up to `max - 1` rows of [`schema`] whose cells `cells` draws, each
/// column holding NULLs a quarter of the time or never, per table.
fn table_of(
    cells: impl Strategy<Value = (Value, Value, Value, Value, Value)>,
    max: usize,
) -> impl Strategy<Value = Vec<Row>> {
    let cells = (cells, prop::collection::vec(0u8..4, 5..6));
    (
        prop::collection::vec(any::<bool>(), 5..6),
        prop::collection::vec(cells, 0..max),
    )
        .prop_map(|(nullable, rows)| {
            rows.into_iter()
                .map(|((i, f, t, b, s), draws)| {
                    [i, f, t, b, s]
                        .into_iter()
                        .enumerate()
                        .map(|(c, v)| {
                            if nullable[c] && draws[c] == 0 {
                                Value::Null
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect()
        })
}

/// `fields` and then the row's `rid`.
fn with_rid(mut fields: Vec<Field>) -> Schema {
    fields.push(Field::new("rid", DataType::Int));
    Schema::from_fields(fields)
}

/// The generators' five columns, and the row's `rid`.
fn schema() -> Schema {
    with_rid(row_gen::schema().fields().to_vec())
}

/// The generators' five columns, a `Bytes` column `y` — every type —
/// and the row's `rid`.
fn wide_schema() -> Schema {
    let mut fields = row_gen::schema().fields().to_vec();
    fields.push(Field::new("y", DataType::Bytes));
    with_rid(fields)
}

/// `rows`, each with a `rid` no other row stored in this test binary
/// has.
fn with_rids(rows: &[Row]) -> Vec<Row> {
    static NEXT: AtomicI64 = AtomicI64::new(0);
    let rid = || Value::Int(NEXT.fetch_add(1, Atomic::Relaxed));
    (rows.iter())
        .map(|row| row.iter().cloned().chain([rid()]).collect())
        .collect()
}

/// Up to `max - 1` rows of [`wide_schema`]: [`arb_table`]'s, each with
/// a byte array of up to two bytes (the empty one among them) or, a
/// quarter of the time, NULL.
fn arb_wide_table(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let bytes = (0u8..4, prop::collection::vec(0u8..3, 0..3)).prop_map(|(n, y)| {
        if n == 0 {
            Value::Null
        } else {
            Value::Bytes(y)
        }
    });
    let column = prop::collection::vec(bytes, max..max + 1);
    (arb_table(max), column).prop_map(|(rows, column)| {
        (rows.into_iter().zip(column))
            .map(|(row, y)| row.iter().cloned().chain([y]).collect())
            .collect()
    })
}

/// The selection a scan of `rows`, each given its `rid`, keeps under
/// `predicate` (through an index on `i` when `indexed`), its positions
/// then ordered by `shuffle` unless `keep_order`.
fn selection(
    rows: &[Row],
    predicate: &Predicate,
    indexed: bool,
    keep_order: bool,
    shuffle: &[u32],
) -> Selection {
    selection_of(&schema(), rows, predicate, indexed, keep_order, shuffle)
}

/// [`selection`] over a table of `schema`.
fn selection_of(
    schema: &Schema,
    rows: &[Row],
    predicate: &Predicate,
    indexed: bool,
    keep_order: bool,
    shuffle: &[u32],
) -> Selection {
    let mut db = RelationalStore::new("db");
    db.create_table("t", schema.clone()).expect("fresh store");
    db.insert("t", with_rids(rows)).expect("rows match schema");
    if indexed {
        db.create_index("t", "i").expect("known column");
    }
    let (kept, _) = db
        .scan_kept("t", predicate, None, None)
        .expect("a scan over known columns");
    if keep_order {
        return kept;
    }
    let mut positions = kept.positions().to_vec();
    positions.sort_by_key(|&p| shuffle[p as usize % shuffle.len()] ^ p);
    kept.with_positions(positions)
        .expect("the scan's own positions")
}

/// What one table contributes to a selection over several: its rows,
/// the scan's predicate program (over `i`, with int literals, so an
/// index applies), and whether an index on `i` answers the scan.
type Scan = (Vec<Row>, Vec<PredicateStep>, bool);

/// Two to four tables' scans.
fn arb_scans() -> impl Strategy<Value = Vec<Scan>> {
    let scan = (
        arb_table(24),
        arb_predicate_program(0..3, arb_int),
        any::<bool>(),
    );
    prop::collection::vec(scan, 2..5)
}

/// Cells whose sums depend on the order they are added in: beside
/// [`arb_table`]'s small domains, integers and timestamps past 2⁵³ (an
/// `f64` rounds them) and floats that round when added (`0.1`, `1/3`,
/// `±1e16`).
fn arb_fold_table(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let int = prop_oneof![
        arb_int(),
        Just(Value::Int(1 << 53)),
        Just(Value::Int(-(1 << 53) - 1)),
        Just(Value::Int(i64::MAX)),
    ];
    let float = prop_oneof![
        arb_float(),
        Just(Value::Float(0.1)),
        Just(Value::Float(1.0 / 3.0)),
        Just(Value::Float(1e16)),
        Just(Value::Float(-1e16)),
    ];
    let timestamp = prop_oneof![
        arb_timestamp(),
        Just(Value::Timestamp(1 << 53)),
        Just(Value::Timestamp(i64::MIN)),
    ];
    table_of((int, float, timestamp, arb_bool(), arb_str()), max)
}

const AGGREGATES: [Aggregate; 6] = [
    Aggregate::Count,
    Aggregate::Sum,
    Aggregate::Avg,
    Aggregate::Min,
    Aggregate::Max,
    Aggregate::CountNonNull,
];

/// Group-by, a row at a time: groups on `keys` in first-seen order
/// (keys equal as `Value`s; no key, one group even over no rows), each
/// row's non-null values folded into its group's slots in row order —
/// a running `f64` sum from `0.0`, a count, a strictly better extremum.
/// What the row-major fold cannot see, it takes from the kernel's
/// contract: the error is the first aggregate's, in aggregate order,
/// at its first non-number summed.
fn grouped_a_row_at_a_time(
    rows: &[Row],
    keys: &[usize],
    aggs: &[(Aggregate, usize)],
) -> Result<Vec<Row>> {
    #[derive(Clone, Default)]
    struct Slot {
        sum: f64,
        values: i64,
        best: Option<Value>,
    }
    let fresh = || vec![Slot::default(); aggs.len()];
    let mut groups: Vec<(Vec<Value>, i64, Vec<Slot>)> = Vec::new();
    if keys.is_empty() {
        groups.push((Vec::new(), 0, fresh()));
    }
    let mut errors: Vec<Option<Error>> = vec![None; aggs.len()];
    for row in rows {
        let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
        let g = match groups.iter().position(|(k, _, _)| *k == key) {
            Some(g) => g,
            None => {
                groups.push((key, 0, fresh()));
                groups.len() - 1
            }
        };
        let (_, count, slots) = &mut groups[g];
        *count += 1;
        for (a, (slot, &(agg, c))) in slots.iter_mut().zip(aggs).enumerate() {
            let v = &row[c];
            if v.is_null() {
                continue;
            }
            slot.values += 1;
            let better = match agg {
                Aggregate::Sum | Aggregate::Avg => {
                    match v.as_f64() {
                        Some(x) => slot.sum += x,
                        None => {
                            let e = || {
                                Error::SchemaMismatch(format!("cannot aggregate {v:?} numerically"))
                            };
                            errors[a].get_or_insert_with(e);
                        }
                    }
                    continue;
                }
                Aggregate::Min => Ordering::Less,
                Aggregate::Max => Ordering::Greater,
                Aggregate::Count | Aggregate::CountNonNull => continue,
            };
            if slot.best.as_ref().is_none_or(|b| v.cmp(b) == better) {
                slot.best = Some(v.clone());
            }
        }
    }
    if let Some(e) = errors.into_iter().flatten().next() {
        return Err(e);
    }
    let finish = |(slot, &(agg, _)): (Slot, &(Aggregate, usize)), count: i64| match agg {
        Aggregate::Count => Value::Int(count),
        Aggregate::CountNonNull => Value::Int(slot.values),
        Aggregate::Sum | Aggregate::Avg if slot.values == 0 => Value::Null,
        Aggregate::Sum => Value::Float(slot.sum),
        Aggregate::Avg => Value::Float(slot.sum / slot.values as f64),
        Aggregate::Min | Aggregate::Max => slot.best.unwrap_or(Value::Null),
    };
    Ok(groups
        .into_iter()
        .map(|(key, count, slots)| {
            let finals = slots.into_iter().zip(aggs).map(|s| finish(s, count));
            key.into_iter().chain(finals).collect()
        })
        .collect())
}

/// One selection over every scan's snapshot, in order: each scan's
/// selection (its positions reordered unless `keep_order`) appended in
/// turn, and then, unless `keep_order`, its positions reordered across
/// the parts. Checked on the way: the appended selection's rows are the
/// parts' rows in order, and an empty part takes up no part.
fn spanning(
    scans: &[Scan],
    keep_order: bool,
    shuffle: &[u32],
) -> std::result::Result<Selection, TestCaseError> {
    spanning_of(&schema(), scans, keep_order, shuffle)
}

/// [`spanning`] over tables of `schema`.
fn spanning_of(
    schema: &Schema,
    scans: &[Scan],
    keep_order: bool,
    shuffle: &[u32],
) -> std::result::Result<Selection, TestCaseError> {
    let parts: Vec<Selection> = scans
        .iter()
        .map(|(rows, scan, indexed)| {
            let predicate = predicate_from(&["i"], scan.clone());
            selection_of(schema, rows, &predicate, *indexed, keep_order, shuffle)
        })
        .collect();
    let mut joined = parts[0].clone();
    for part in &parts[1..] {
        joined = joined.concat(part).expect("small snapshots of one table");
    }
    let want: Vec<Row> = parts.iter().flat_map(Selection::rows).collect();
    prop_assert!(same_rows(&joined.rows(), &want));
    let filled = parts.iter().filter(|p| !p.is_empty()).count();
    prop_assert_eq!(joined.part_count(), filled.max(1));
    if keep_order {
        return Ok(joined);
    }
    let mut positions = joined.positions().to_vec();
    positions.sort_by_key(|&p| shuffle[p as usize % shuffle.len()] ^ p.rotate_left(7));
    Ok(joined
        .with_positions(positions)
        .expect("the selection's own positions"))
}

/// `base` projected onto `projection` (columns of [`wide_schema`]) and,
/// when `again` is drawn, that projected onto `again`'s columns (taken
/// modulo its arity): the selection, its schema, and the rows it must
/// read as — `base`'s rows projected one at a time. Checked on the way:
/// the columns it exposes, composed, and `None` for every column in
/// order.
fn projected(
    base: &Selection,
    projection: &[usize],
    again: (bool, &[usize]),
) -> std::result::Result<(Selection, Schema, Vec<Row>), TestCaseError> {
    let wide = wide_schema();
    let mut sel = base.project(projection).expect("columns of the table");
    let mut columns = projection.to_vec();
    if again.0 {
        let again: Vec<usize> = again.1.iter().map(|&c| c % columns.len()).collect();
        sel = sel.project(&again).expect("columns of the projection");
        columns = again.iter().map(|&c| columns[c]).collect();
    }
    let every = columns.iter().copied().eq(0..wide.arity());
    prop_assert_eq!(sel.columns(), (!every).then_some(&columns[..]));
    let names: Vec<&str> = columns
        .iter()
        .map(|&c| wide.fields()[c].name.as_str())
        .collect();
    let schema = wide.project(&names).expect("columns of the table");
    let rows = (base.rows().iter())
        .map(|row| columns.iter().map(|&c| row[c].clone()).collect())
        .collect();
    Ok((sel, schema, rows))
}

/// Equal as `Value`s *and* of one variant; floats compare by bits. Rows
/// a selection builds carry their `rid`: these are the very rows.
fn same_rows(got: &[Row], want: &[Row]) -> bool {
    let same = |a: &Value, b: &Value| a == b && a.data_type() == b.data_type();
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w.iter()).all(|(a, b)| same(a, b)))
}

fn walked(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.byte_size() as u64).sum()
}

/// Both errors, or both answers and `same` of them.
fn agree<T: std::fmt::Debug>(
    got: &Result<T>,
    want: &Result<T>,
    same: impl Fn(&T, &T) -> bool,
) -> bool {
    match (got, want) {
        (Ok(got), Ok(want)) => same(got, want),
        (Err(got), Err(want)) => got == want,
        _ => false,
    }
}

/// What the kernels over a selection are held to: the selection's
/// schema, and the rows it must read as — the rows it builds, or rows
/// projected one at a time.
#[derive(Clone, Copy)]
struct Reads<'a> {
    schema: &'a Schema,
    rows: &'a [Row],
}

impl<'a> Reads<'a> {
    /// The name of column `c`, drawn from any range, of the schema.
    fn name(&self, c: usize) -> &'a str {
        &self.schema.fields()[c % self.schema.arity()].name
    }
}

/// Sort (whole and top-n), limit, filter, group-by (keyless count
/// included), projection and the byte size over `sel`, against the
/// specifications and the row kernels over the rows `sel` reads as.
/// Drawn columns are taken modulo the schema's arity.
fn kernels_agree(
    sel: &Selection,
    reads: Reads<'_>,
    keys: &[(usize, bool)],
    top: (bool, usize),
    filter: Vec<PredicateStep>,
    columns: &[usize],
) -> std::result::Result<(), TestCaseError> {
    let (s, built) = (reads.schema, reads.rows.to_vec());
    let arity = s.arity();
    let keys: Vec<(usize, bool)> = keys.iter().map(|&(c, asc)| (c % arity, asc)).collect();
    let columns: Vec<usize> = columns.iter().map(|&c| c % arity).collect();
    let n = top.1;

    // Sort, whole and top-n, against the stable sort_by of the built
    // rows.
    let sort_keys: Vec<SortKey> = keys
        .iter()
        .map(|&(c, asc)| {
            if asc {
                SortKey::asc(reads.name(c))
            } else {
                SortKey::desc(reads.name(c))
            }
        })
        .collect();
    let mut want = built.clone();
    want.sort_by(|a, b| {
        keys.iter()
            .map(|&(c, asc)| {
                if asc {
                    a[c].cmp(&b[c])
                } else {
                    b[c].cmp(&a[c])
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let sorted = |top| -> (Vec<u32>, Vec<Row>) {
        let order = ops::sort_at(s, sel.selected(), &sort_keys, top).expect("known columns");
        let rows = sel
            .with_positions(order.clone())
            .expect("its own positions");
        (order, rows.rows())
    };
    let (_, full) = sorted(None);
    prop_assert!(
        same_rows(&full, &want),
        "{keys:?} over {built:?}: got {full:?}"
    );
    let by_rows = ops::sort_rows(s, built.clone(), &sort_keys).expect("known columns");
    prop_assert!(same_rows(&by_rows, &want));
    if top.0 {
        let (mut order, got) = sorted(Some(n));
        let kept = n.min(want.len());
        prop_assert!(
            same_rows(&got[..kept], &want[..kept]),
            "top {n} of {keys:?} over {built:?}: got {got:?}"
        );
        // Every position is still there, once.
        let mut all = sel.positions().to_vec();
        order.sort();
        all.sort();
        prop_assert_eq!(order, all);
    }

    // Limit: a prefix of the positions is a prefix of the rows.
    prop_assert!(same_rows(&sel.prefix(n).rows(), &ops::limit(&built, n)));
    prop_assert_eq!(ops::limit(&built, n).len(), n.min(built.len()));

    // Filter: the built rows `Predicate::eval` keeps, or its first
    // error, a row at a time.
    let filter = predicate_from(&FILTER_COLUMNS, filter);
    let got = ops::filter_at(s, sel.selected(), &filter)
        .map(|kept| sel.with_positions(kept).expect("its own positions").rows());
    let want: Result<Vec<Row>> = built
        .iter()
        .filter_map(|row| match filter.eval(s, row) {
            Ok(true) => Some(Ok(row.clone())),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        })
        .collect();
    prop_assert!(
        agree(&got, &want, |g, w| same_rows(g, w)),
        "{filter:?} over {built:?}: got {got:?}, want {want:?}"
    );
    let by_rows = ops::filter_rows(s, &built, &filter);
    prop_assert!(agree(&by_rows, &want, |g, w| same_rows(g, w)));

    // Group-by, keyless count among its draws, and projection: the row
    // kernels over the built rows, with the bytes of what was built.
    let aggs: Vec<AggregateSpec> = [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::CountNonNull,
    ]
    .into_iter()
    .zip(&columns)
    .enumerate()
    .map(|(k, (agg, &c))| AggregateSpec::new(agg, reads.name(c), format!("a{k}")))
    .collect();
    let group_keys: Vec<&str> = keys.iter().map(|&(c, _)| reads.name(c)).collect();
    let got = ops::group_by_at(s, sel.selected(), &group_keys, &aggs);
    let want = ops::group_by(s, &built, &group_keys, &aggs).map(|(schema, rows)| {
        let bytes = walked(&rows);
        (schema, rows, bytes)
    });
    prop_assert!(
        agree(&got, &want, |g, w| g.0 == w.0
            && same_rows(&g.1, &w.1)
            && g.2 == w.2),
        "{group_keys:?} {aggs:?} over {built:?}: got {got:?}"
    );
    let count = ops::group_by_at(s, sel.selected(), &[], &[AggregateSpec::count("n")])
        .expect("a count reads no column");
    prop_assert_eq!(
        count.1,
        vec![Row::from(vec![Value::Int(built.len() as i64)])]
    );

    let projected: Vec<&str> = columns.iter().map(|&c| reads.name(c)).collect();
    let (got_schema, got, bytes) =
        ops::project_at(s, sel.selected(), &projected).expect("known columns");
    let (want_schema, want) = ops::project(s, &built, &projected).expect("known columns");
    prop_assert_eq!(got_schema, want_schema);
    prop_assert!(same_rows(&got, &want));
    prop_assert_eq!(bytes, walked(&want));
    prop_assert_eq!(sel.byte_size(), walked(&built));

    // An ML operator's output: each row read, then its answer.
    let answers: Vec<Value> = (0..built.len() as i64).map(Value::Int).collect();
    let (got, bytes) =
        ops::append_column(sel.selected(), arity, answers.clone()).expect("an answer a row");
    let want: Vec<Row> = (built.iter().zip(answers))
        .map(|(row, answer)| row.iter().cloned().chain([answer]).collect())
        .collect();
    prop_assert!(same_rows(&got, &want), "appended to {built:?}: got {got:?}");
    prop_assert_eq!(bytes, walked(&want));
    Ok(())
}

/// How two selections are joined: the key columns (`on.2`: the same
/// column on both sides), a left outer join or an inner one, and the
/// join's columns a demand names, if any.
type JoinDraw = ((usize, usize, bool), (bool, bool), Vec<usize>);

/// The rows `reads` reads as, stored in a table of their own — one more
/// column first, then theirs in reverse order — scanned whole and
/// projected back to their order: a selection of every row of one table
/// snapshot, in order, through a projection, which a hash join keeps a
/// key index of.
fn stored_whole(reads: Reads<'_>) -> Selection {
    let arity = reads.schema.arity();
    let fields = (reads.schema.fields().iter().rev().enumerate()).map(|(c, field)| Field {
        name: format!("c{c}"),
        ..field.clone()
    });
    let schema = Schema::from_fields(
        std::iter::once(Field::new("first", DataType::Int))
            .chain(fields)
            .collect(),
    );
    let rows = (reads.rows.iter())
        .map(|row| {
            std::iter::once(Value::Int(0))
                .chain(row.iter().rev().cloned())
                .collect()
        })
        .collect();
    let mut db = RelationalStore::new("db");
    db.create_table("t", schema).expect("fresh store");
    db.insert("t", rows)
        .expect("rows a table of this schema held");
    let (whole, _) = (db.scan_kept("t", &Predicate::True, None, None)).expect("known table");
    let back: Vec<usize> = (1..=arity).rev().collect();
    whole.project(&back).expect("columns of the table")
}

/// Both joins of `left` and `right`, and of either one against the
/// other's rows, and each side's migration batch of columns `keep`,
/// against the same kernels over the rows they read as. Drawn columns
/// are taken modulo the arities.
fn joins_agree(
    (left, lreads): (&Selection, Reads<'_>),
    (right, rreads): (&Selection, Reads<'_>),
    (on, (outer, demanded), emit): JoinDraw,
    keep: &[usize],
) -> std::result::Result<(), TestCaseError> {
    let (lbuilt, rbuilt) = (lreads.rows.to_vec(), rreads.rows.to_vec());
    let (ls, rs) = (lreads.schema, rreads.schema);
    let (li, ri) = if on.2 { (on.0, on.0) } else { (on.0, on.1) };
    let (lon, ron) = (lreads.name(li), rreads.name(ri));
    let kind = if outer {
        JoinKind::LeftOuter
    } else {
        JoinKind::Inner
    };
    let names: Vec<String> = {
        let joined = ls.join(rs);
        emit.iter()
            .map(|&c| joined.fields()[c % joined.arity()].name.clone())
            .collect()
    };
    let demand = demanded.then_some(names.as_slice());
    let all = |rows| Selected::all(rows).expect("few rows");

    // The hash join: the same rows in the same order, the same count
    // per probe row, the bytes of what was built.
    let hash = |l, r| {
        let mut counts = Vec::new();
        let out = ops::hash_join_with(ls, l, rs, r, lon, ron, kind, demand, |n| counts.push(n));
        out.map(|(schema, rows, bytes)| (schema, rows, bytes, counts))
    };
    // Each side read as a selection, or as the plain rows it built, or
    // whole off a table of its own: a key index on the right, on the
    // left, on both — built by the first join that reads the side whole
    // and probed by the next ones.
    let (lwhole, rwhole) = (stored_whole(lreads), stored_whole(rreads));
    let sides = [
        (left.selected(), right.selected()),
        (left.selected(), all(&rbuilt)),
        (all(&lbuilt), right.selected()),
        (all(&lbuilt), rwhole.selected()),
        (lwhole.selected(), all(&rbuilt)),
        (lwhole.selected(), rwhole.selected()),
        (left.selected(), rwhole.selected()),
        (lwhole.selected(), right.selected()),
    ];
    let want = hash(all(&lbuilt), all(&rbuilt)).expect("known columns");
    for (l, r) in sides {
        let got = hash(l, r).expect("known columns");
        prop_assert_eq!(&got.0, &want.0);
        prop_assert!(
            same_rows(&got.1, &want.1),
            "{lon} = {ron} {kind:?} emitting {demand:?}, {lbuilt:?} with {rbuilt:?}: got {:?}, want {:?}",
            got.1,
            want.1
        );
        prop_assert_eq!(got.2, want.2);
        prop_assert_eq!(got.2, walked(&got.1));
        prop_assert_eq!(&got.3, &want.3);
    }

    // The sort-merge join likewise.
    let merge = |l, r| ops::sort_merge_join_with(ls, l, rs, r, lon, ron, demand);
    let want = merge(all(&lbuilt), all(&rbuilt)).expect("known columns");
    for (l, r) in sides {
        let got = merge(l, r).expect("known columns");
        prop_assert_eq!(&got.0, &want.0);
        prop_assert!(
            same_rows(&got.1, &want.1),
            "merge {lon} = {ron} emitting {demand:?}, {lbuilt:?} with {rbuilt:?}: got {:?}, want {:?}",
            got.1,
            want.1
        );
        prop_assert_eq!(got.2, want.2);
    }

    // The migration batch: the one the built rows make, or its error
    // under a schema that forbids the NULLs the image flags. Debug text
    // tells `-0.0` from `0.0`.
    let strict = Schema::from_fields(
        rs.fields()
            .iter()
            .map(|f| Field {
                nullable: false,
                ..f.clone()
            })
            .collect(),
    );
    for (schema, sel, built) in [(ls, left, &lbuilt), (&strict, right, &rbuilt)] {
        let keep: Vec<usize> = keep.iter().map(|&c| c % schema.arity()).collect();
        let got = format!("{:?}", sel.selected().to_batch(schema, &keep));
        let want = format!("{:?}", Batch::from_columns(schema, built, &keep));
        prop_assert!(got == want, "{keep:?} of {built:?}: got {got}, want {want}");
    }
    Ok(())
}

/// How a shuffle's bucket is read: as routed; or, so that it reads no
/// whole destination any more, through a build scan filtered by a drawn
/// predicate, with its positions reversed, or with one row left out.
#[derive(Debug, Clone, Copy)]
enum Bucket {
    Routed,
    Filtered,
    Reversed,
    LessOne,
}

/// `tables`, each stored as a table `t` of its own — a shard each —
/// scanned under `predicate`, projected onto `names` and routed on
/// `key` over `width` destinations, and each scan split by its routes:
/// the stores, and each destination's bucket, the tables' splits
/// appended in order. Checked on the way: each row's destination is
/// the one [`HashRouter`] routes its key to, and each destination's
/// bytes are its rows'.
fn routed_buckets(
    tables: &[Vec<Row>],
    predicate: &Predicate,
    names: &[&str],
    (key, width): (&str, u32),
) -> std::result::Result<(Vec<RelationalStore>, Vec<Selection>), TestCaseError> {
    let router = HashRouter::new(width).expect("a destination or more");
    let at = names
        .iter()
        .position(|&n| n == key)
        .expect("the key is projected");
    let mut stores = Vec::with_capacity(tables.len());
    let mut buckets: Vec<Option<Selection>> = vec![None; width as usize];
    for rows in tables {
        let mut db = RelationalStore::new("db");
        db.create_table("t", schema()).expect("fresh store");
        db.insert("t", with_rids(rows)).expect("rows match schema");
        let (sel, routes) =
            (db.scan_kept("t", predicate, Some(names), Some((key, width)))).expect("known columns");
        let built = sel.rows();
        let dests: Vec<u32> = built.iter().map(|r| router.route(&r[at]) as u32).collect();
        prop_assert_eq!(&routes.dests, &dests);
        let mut bytes = vec![0u64; width as usize];
        for (row, &d) in built.iter().zip(&dests) {
            bytes[d as usize] += row.byte_size() as u64;
        }
        prop_assert_eq!(&routes.bytes, &bytes);
        let split = sel
            .split(&routes.dests, width as usize)
            .expect("its own routes");
        for (bucket, part) in buckets.iter_mut().zip(split) {
            *bucket = Some(match bucket.take() {
                None => part,
                Some(before) => before.concat(&part).expect("few small snapshots"),
            });
        }
        stores.push(db);
    }
    Ok((stores, buckets.into_iter().flatten().collect()))
}

/// Half the time the same column on both sides (`Str` keys among them),
/// otherwise any pair (`Int` against `Float` among them); inner or left
/// outer; a demand of up to five of the join's ten columns, or none.
fn arb_join() -> impl Strategy<Value = JoinDraw> {
    (
        (0usize..5, 0usize..5, any::<bool>()),
        (any::<bool>(), any::<bool>()),
        prop::collection::vec(0usize..10, 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn kernels_over_a_selection_are_the_kernels_over_its_rows(
        // Long enough that an unstable sort leaves its insertion sort
        // (stable by accident, up to 20 elements): only then does a lost
        // tie-break show.
        rows in arb_table(64),
        scan in arb_predicate_program(0..3, arb_int),
        (indexed, keep_order) in (any::<bool>(), any::<bool>()),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        keys in prop::collection::vec((0usize..5, any::<bool>()), 0..4),
        top in (any::<bool>(), 0usize..70),
        filter in arb_predicate_program(1..6, arb_any),
        columns in prop::collection::vec(0usize..5, 6..7),
    ) {
        // The scan bounds `i` (so an index applies) with an int literal.
        let predicate = predicate_from(&["i"], scan);
        let sel = selection(&rows, &predicate, indexed, keep_order, &shuffle);
        let (s, built) = (schema(), sel.rows());
        kernels_agree(&sel, Reads { schema: &s, rows: &built }, &keys, top, filter, &columns)?;
    }

    #[test]
    fn kernels_over_a_selection_of_several_snapshots_are_the_kernels_over_its_rows(
        scans in arb_scans(),
        keep_order in any::<bool>(),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        keys in prop::collection::vec((0usize..5, any::<bool>()), 0..4),
        top in (any::<bool>(), 0usize..100),
        filter in arb_predicate_program(1..6, arb_any),
        columns in prop::collection::vec(0usize..5, 6..7),
        route in prop::collection::vec(0u32..3, 1..9),
    ) {
        let sel = spanning(&scans, keep_order, &shuffle)?;
        let (s, built) = (schema(), sel.rows());
        kernels_agree(&sel, Reads { schema: &s, rows: &built }, &keys, top, filter, &columns)?;
        // A shuffle's split: destination `d` gets the rows routed to it,
        // in order, over the same snapshots.
        let dests: Vec<u32> = (0..sel.len()).map(|i| route[i % route.len()]).collect();
        let split = sel.split(&dests, 3).expect("destinations below the width");
        for (d, part) in (0u32..).zip(&split) {
            let want: Vec<Row> = (built.iter().zip(&dests))
                .filter(|&(_, &to)| to == d)
                .map(|(row, _)| row.clone())
                .collect();
            prop_assert!(same_rows(&part.rows(), &want));
            prop_assert_eq!(part.byte_size(), walked(&want));
        }
    }

    /// `group_by_at` over a selection of one to four snapshots, its
    /// positions interleaved across them unless `keep_order`, against
    /// the fold a row at a time over the rows it builds: output types
    /// (an extremum's is its column's), rows by variant and bit, and
    /// bytes. A sum over `b` or `s` is drawn now and then (`errors`):
    /// it must fail as the fold does.
    #[test]
    fn group_by_over_selections_is_the_fold_a_row_at_a_time(
        scans in prop::collection::vec(
            (arb_fold_table(24), arb_predicate_program(0..3, arb_int), any::<bool>()),
            1..5,
        ),
        keep_order in any::<bool>(),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        keys in prop::collection::vec(0usize..5, 0..3),
        drawn in prop::collection::vec((0usize..6, 0usize..5), 1..7),
        errors in 0u8..8,
    ) {
        let sel = spanning(&scans, keep_order, &shuffle)?;
        let aggs: Vec<(Aggregate, usize)> = (drawn.iter())
            .map(|&(a, c)| match AGGREGATES[a] {
                sum @ (Aggregate::Sum | Aggregate::Avg) if c >= 3 && errors != 0 => (sum, c - 3),
                agg => (agg, c),
            })
            .collect();
        let specs: Vec<AggregateSpec> = (aggs.iter().enumerate())
            .map(|(k, &(agg, c))| AggregateSpec::new(agg, COLUMNS[c], format!("a{k}")))
            .collect();
        let key_names: Vec<&str> = keys.iter().map(|&c| COLUMNS[c]).collect();
        let s = schema();
        let built = sel.rows();
        let got = ops::group_by_at(&s, sel.selected(), &key_names, &specs);
        let want = grouped_a_row_at_a_time(&built, &keys, &aggs);
        let (schema, rows, bytes) = match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert!(same_rows(&got.1, &want), "{key_names:?} {specs:?} over {built:?}: got {:?}, want {want:?}", got.1);
                got
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(got, want);
                return Ok(());
            }
            (got, want) => {
                return Err(TestCaseError::fail(format!("got {got:?}, want {want:?}")));
            }
        };
        let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
        let want_types: Vec<DataType> = keys
            .iter()
            .map(|&c| s.fields()[c].data_type)
            .chain(aggs.iter().map(|&(agg, c)| match agg {
                Aggregate::Count | Aggregate::CountNonNull => DataType::Int,
                Aggregate::Sum | Aggregate::Avg => DataType::Float,
                Aggregate::Min | Aggregate::Max => s.fields()[c].data_type,
            }))
            .collect();
        prop_assert_eq!(types, want_types);
        for row in &rows {
            prop_assert!(schema.check_row(row).is_ok(), "{row:?} under {schema:?}");
        }
        prop_assert_eq!(bytes, walked(&rows));
    }

    #[test]
    fn joins_and_batches_over_selections_are_those_over_their_rows(
        tables in (arb_table(48), arb_table(48)),
        scans in (arb_predicate_program(0..3, arb_int), arb_predicate_program(0..3, arb_int)),
        (indexed, keep_order) in ((any::<bool>(), any::<bool>()), (any::<bool>(), any::<bool>())),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        join in arb_join(),
        keep in prop::collection::vec(0usize..5, 0..6),
    ) {
        let left = selection(&tables.0, &predicate_from(&["i"], scans.0), indexed.0, keep_order.0, &shuffle);
        let right = selection(&tables.1, &predicate_from(&["i"], scans.1), indexed.1, keep_order.1, &shuffle);
        let (s, lbuilt, rbuilt) = (schema(), left.rows(), right.rows());
        let sides = ((&left, Reads { schema: &s, rows: &lbuilt }), (&right, Reads { schema: &s, rows: &rbuilt }));
        joins_agree(sides.0, sides.1, join, &keep)?;
    }

    #[test]
    fn joins_and_batches_over_selections_of_several_snapshots_are_those_over_their_rows(
        scans in (arb_scans(), arb_scans()),
        keep_order in (any::<bool>(), any::<bool>()),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        join in arb_join(),
        keep in prop::collection::vec(0usize..5, 0..6),
    ) {
        let left = spanning(&scans.0, keep_order.0, &shuffle)?;
        let right = spanning(&scans.1, keep_order.1, &shuffle)?;
        let (s, lbuilt, rbuilt) = (schema(), left.rows(), right.rows());
        let sides = ((&left, Reads { schema: &s, rows: &lbuilt }), (&right, Reads { schema: &s, rows: &rbuilt }));
        joins_agree(sides.0, sides.1, join, &keep)?;
    }

    /// A projection of a selection of one to four snapshots — tables of
    /// every type, NULLs in each — and now and then a projection of
    /// that, against rows projected one at a time out of the rows the
    /// unprojected selection builds: its rows and byte size, every
    /// kernel, a shuffle's split, and the selection appended to a prefix
    /// of itself; appended to one exposing other columns, it is refused.
    #[test]
    fn kernels_over_a_projected_selection_are_the_kernels_over_its_projected_rows(
        scans in prop::collection::vec(
            (arb_wide_table(24), arb_predicate_program(0..3, arb_int), any::<bool>()),
            1..5,
        ),
        keep_order in any::<bool>(),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        projection in prop::collection::vec(0usize..6, 1..8),
        again in (any::<bool>(), prop::collection::vec(0usize..8, 1..5)),
        keys in prop::collection::vec((0usize..6, any::<bool>()), 0..4),
        top in (any::<bool>(), 0usize..100),
        filter in arb_predicate_program(1..6, arb_any),
        columns in prop::collection::vec(0usize..6, 6..7),
        route in prop::collection::vec(0u32..3, 1..9),
    ) {
        let base = spanning_of(&wide_schema(), &scans, keep_order, &shuffle)?;
        let (sel, s, want) = projected(&base, &projection, (again.0, &again.1))?;
        prop_assert!(same_rows(&sel.rows(), &want), "{:?}: {want:?}", sel.columns());
        prop_assert_eq!(sel.byte_size(), walked(&want));
        kernels_agree(&sel, Reads { schema: &s, rows: &want }, &keys, top, filter, &columns)?;

        let dests: Vec<u32> = (0..sel.len()).map(|i| route[i % route.len()]).collect();
        let split = sel.split(&dests, 3).expect("destinations below the width");
        for (d, part) in (0u32..).zip(&split) {
            let routed: Vec<Row> = (want.iter().zip(&dests))
                .filter(|&(_, &to)| to == d)
                .map(|(row, _)| row.clone())
                .collect();
            prop_assert!(same_rows(&part.rows(), &routed));
            prop_assert_eq!(part.byte_size(), walked(&routed));
        }
        let n = top.1 % (sel.len() + 1);
        let twice = sel.concat(&sel.prefix(n)).expect("few snapshots");
        let both: Vec<Row> = want.iter().chain(&want[..n]).cloned().collect();
        prop_assert!(same_rows(&twice.rows(), &both));
        prop_assert_eq!(twice.byte_size(), walked(&both));
        if sel.columns().is_some() {
            prop_assert!(matches!(base.concat(&sel), Err(Error::Invalid(_))));
            prop_assert!(matches!(sel.concat(&base), Err(Error::Invalid(_))));
        }
    }

    /// Joins and migration batches of two selections, each projected or
    /// not, against the same kernels over their projected rows.
    #[test]
    fn joins_and_batches_over_projected_selections_are_those_over_their_projected_rows(
        scans in (
            prop::collection::vec(
                (arb_wide_table(24), arb_predicate_program(0..3, arb_int), any::<bool>()),
                1..4,
            ),
            prop::collection::vec(
                (arb_wide_table(24), arb_predicate_program(0..3, arb_int), any::<bool>()),
                1..4,
            ),
        ),
        keep_order in (any::<bool>(), any::<bool>()),
        shuffle in prop::collection::vec(any::<u32>(), 1..17),
        projections in (
            prop::collection::vec(0usize..6, 1..8),
            prop::collection::vec(0usize..6, 1..8),
        ),
        again in (any::<bool>(), any::<bool>(), prop::collection::vec(0usize..8, 1..5)),
        join in arb_join(),
        keep in prop::collection::vec(0usize..6, 0..6),
    ) {
        let wide = wide_schema();
        let left = spanning_of(&wide, &scans.0, keep_order.0, &shuffle)?;
        let right = spanning_of(&wide, &scans.1, keep_order.1, &shuffle)?;
        let (left, ls, lwant) = projected(&left, &projections.0, (again.0, &again.2))?;
        let (right, rs, rwant) = projected(&right, &projections.1, (again.1, &again.2))?;
        let sides = (
            (&left, Reads { schema: &ls, rows: &lwant }),
            (&right, Reads { schema: &rs, rows: &rwant }),
        );
        joins_agree(sides.0, sides.1, join, &keep)?;
    }

    /// A scan that projects keeps a selection exposing the projected
    /// columns, whose rows are the scan's rows projected; routed on a
    /// projected column, each destination gets the rows the unprojected
    /// scan sends there — each row where [`HashRouter`] routes its key,
    /// a NULL included — and their projected bytes, a NULL cell weighing
    /// 1. Each scan runs as drawn and filtered to the rows of even `rid`,
    /// twice: the first routed scan of the snapshot builds its layout,
    /// the next ones read it.
    #[test]
    fn a_projecting_scan_keeps_a_projected_selection_and_routes_its_widths(
        rows in arb_wide_table(48),
        scan in arb_predicate_program(0..3, arb_int),
        projection in prop::collection::vec(0usize..6, 1..8),
        (key, width) in (0usize..8, 1u32..4),
    ) {
        let wide = wide_schema();
        let mut db = RelationalStore::new("db");
        db.create_table("t", wide.clone()).expect("fresh store");
        let stored = with_rids(&rows);
        db.insert("t", stored.clone()).expect("rows match schema");
        let rid = wide.arity() - 1;
        let even: Vec<Value> = (stored.iter())
            .map(|row| row[rid].clone())
            .filter(|v| matches!(v, Value::Int(r) if r % 2 == 0))
            .collect();
        let drawn = predicate_from(&["i"], scan);
        let filtered = drawn.clone().and(Predicate::In("rid".into(), even));
        let names: Vec<&str> = projection.iter().map(|&c| wide.fields()[c].name.as_str()).collect();
        let key = names[key % names.len()];
        let router = HashRouter::new(width).expect("a destination or more");
        let bytes_of = |rows: &[Row], dests: &[u32]| {
            let mut bytes = vec![0u64; width as usize];
            for (row, &d) in rows.iter().zip(dests) {
                bytes[d as usize] += row.byte_size() as u64;
            }
            bytes
        };
        for predicate in [&drawn, &filtered, &drawn, &filtered] {
            let (all, whole) = db
                .scan_kept("t", predicate, None, Some((key, width)))
                .expect("known columns");
            let every = all.rows();
            let at = wide.index_of(key).expect("a column of the table");
            let dests: Vec<u32> = every.iter().map(|r| router.route(&r[at]) as u32).collect();
            prop_assert_eq!(&whole.dests, &dests);
            prop_assert_eq!(&whole.bytes, &bytes_of(&every, &dests));
            let (sel, routes) = db
                .scan_kept("t", predicate, Some(&names), Some((key, width)))
                .expect("known columns");
            let (want_sel, _, want) = projected(&all, &projection, (false, &[]))?;
            prop_assert_eq!(sel.columns(), want_sel.columns());
            prop_assert!(same_rows(&sel.rows(), &want));
            prop_assert_eq!(&routes.dests, &dests);
            prop_assert_eq!(routes.bytes, bytes_of(&want, &dests));
            let scanned = db.scan("t", predicate, Some(&names)).expect("known columns");
            prop_assert!(same_rows(&scanned.rows, &want));
            prop_assert_eq!(scanned.byte_size, walked(&want));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Buckets of one to four tables routed on `k` over one to four
    /// destinations, their scans projected (the key kept), joined inner
    /// or left outer with plain rows (keys on the same column or another:
    /// `Int` against `Float` among them) on either side, against the same
    /// join over the bucket's built rows: rows in order, bytes and
    /// per-probe counts — twice, the second join probing the indexes
    /// the first built. The keys hold duplicates and, half the time,
    /// NULLs (a table with a NULL key has no index); a bucket filtered,
    /// reversed or one row short reads no whole destination.
    #[test]
    fn a_join_over_whole_routed_destinations_is_the_join_built_on_its_own(
        tables in prop::collection::vec(arb_table(24), 1..5),
        probe in arb_table(24),
        (key, probe_key, same_key) in (0usize..5, 0usize..5, any::<bool>()),
        (width, projection) in (1u32..5, prop::collection::vec(0usize..6, 0..6)),
        (nulls, outer, bucket_left) in (any::<bool>(), any::<bool>(), any::<bool>()),
        (mode, drop_at, scan) in (0u8..4, any::<usize>(), arb_predicate_program(1..3, arb_any)),
    ) {
        let s = schema();
        let name = |c: usize| s.fields()[c].name.as_str();
        let (key, probe_key) = (COLUMNS[key], if same_key { COLUMNS[key] } else { COLUMNS[probe_key] });
        // Without NULLs drawn, no key is NULL: every typed key column
        // has an index.
        let no_null = |rows: &[Row], c: &str| -> Vec<Row> {
            let at = s.index_of(c).expect("a column of the schema");
            rows.iter().filter(|r| nulls || !r[at].is_null()).cloned().collect()
        };
        let tables: Vec<Vec<Row>> = tables.iter().map(|rows| no_null(rows, key)).collect();
        let probe = with_rids(&no_null(&probe, probe_key));
        let mut names: Vec<&str> = projection.iter().map(|&c| name(c)).collect();
        if !names.contains(&key) {
            names.insert(drop_at % (names.len() + 1), key);
        }
        let mode = [Bucket::Routed, Bucket::Filtered, Bucket::Reversed, Bucket::LessOne][mode as usize];
        let predicate = match mode {
            Bucket::Filtered => predicate_from(&COLUMNS, scan),
            _ => Predicate::True,
        };
        let (_stores, buckets) = routed_buckets(&tables, &predicate, &names, (key, width))?;
        let bucket_schema = s.project(&names).expect("columns of the schema");
        let kind = if outer { JoinKind::LeftOuter } else { JoinKind::Inner };
        for bucket in &buckets {
            let bucket = match mode {
                Bucket::Reversed => {
                    let reversed = bucket.positions().iter().rev().copied().collect();
                    bucket.with_positions(reversed).expect("its own positions")
                }
                Bucket::LessOne if !bucket.is_empty() => {
                    let mut fewer = bucket.positions().to_vec();
                    fewer.remove(drop_at % fewer.len());
                    bucket.with_positions(fewer).expect("its own positions")
                }
                _ => bucket.clone(),
            };
            let built = bucket.rows();
            let all = |rows| Selected::all(rows).expect("few rows");
            let join = |l, r| {
                let mut counts = Vec::new();
                let (ls, lon, rs, ron) = if bucket_left {
                    (&bucket_schema, key, &s, probe_key)
                } else {
                    (&s, probe_key, &bucket_schema, key)
                };
                let out = ops::hash_join_with(ls, l, rs, r, lon, ron, kind, None, |n| counts.push(n));
                out.map(|(schema, rows, bytes)| (schema, rows, bytes, counts)).expect("known columns")
            };
            let sides = |bucket_side| {
                if bucket_left { (bucket_side, all(&probe)) } else { (all(&probe), bucket_side) }
            };
            let want = {
                let (l, r) = sides(all(&built));
                join(l, r)
            };
            for _ in 0..2 {
                let (l, r) = sides(bucket.selected());
                let got = join(l, r);
                prop_assert_eq!(&got.0, &want.0);
                prop_assert!(
                    same_rows(&got.1, &want.1),
                    "{mode:?} {key} = {probe_key} at width {width}, bucket {:?}: got {:?}, want {:?}",
                    bucket.positions(),
                    got.1,
                    want.1
                );
                prop_assert_eq!(got.2, want.2);
                prop_assert_eq!(&got.3, &want.3);
            }
        }
    }
}

/// A NULL in a typed column is a cleared validity flag over a default
/// value: it must group, sort and aggregate as NULL, not as that value.
#[test]
fn a_null_in_the_image_is_no_default() {
    let row = |i: Option<i64>| {
        let i = i.map_or(Value::Null, Value::Int);
        let (f, t, b, s) = (1.0.into(), Value::Timestamp(0), false.into(), "x".into());
        Row::from(vec![i, f, t, b, s])
    };
    let rows: Vec<Row> = [Some(0), None, Some(0), None, Some(2)].map(row).into();
    let sel = selection(&rows, &Predicate::True, false, true, &[0]);
    let s: Schema = schema();
    let (_, groups, _) = ops::group_by_at(
        &s,
        sel.selected(),
        &["i"],
        &[
            AggregateSpec::count("n"),
            AggregateSpec::new(Aggregate::Min, "i", "m"),
        ],
    )
    .expect("known columns");
    assert_eq!(
        groups,
        vec![
            Row::from(vec![Value::Int(0), Value::Int(2), Value::Int(0)]),
            Row::from(vec![Value::Null, Value::Int(2), Value::Null]),
            Row::from(vec![Value::Int(2), Value::Int(1), Value::Int(2)]),
        ]
    );
    let order = ops::sort_at(&s, sel.selected(), &[SortKey::asc("i")], None).expect("known");
    assert_eq!(order, [1, 3, 0, 2, 4], "NULL sorts first");
    assert!(matches!(
        ops::group_by_at(
            &s,
            sel.selected(),
            &[],
            &[AggregateSpec::new(Aggregate::Sum, "s", "x")]
        ),
        Err(Error::SchemaMismatch(_))
    ));

    // A NULL string or byte array holds the empty value in the image,
    // beside a real `""` and a real empty array: projected and joined,
    // each must come back as what it is, a pad NULL included.
    let tagged = Schema::new(vec![
        ("k", DataType::Int),
        ("s", DataType::Str),
        ("y", DataType::Bytes),
    ]);
    let int = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
    let text = |s: Option<&str>| s.map_or(Value::Null, Value::from);
    let bytes = |y: Option<&[u8]>| y.map_or(Value::Null, |y| Value::Bytes(y.to_vec()));
    let rows = vec![
        Row::from(vec![int(Some(0)), text(Some("")), bytes(Some(&[]))]),
        Row::from(vec![int(Some(1)), text(None), bytes(None)]),
        Row::from(vec![int(Some(2)), text(Some("x")), bytes(Some(&[7]))]),
        Row::from(vec![int(None), text(Some("")), bytes(None)]),
        Row::from(vec![int(Some(3)), text(None), bytes(Some(&[]))]),
    ];
    let mut db = RelationalStore::new("db");
    db.create_table("t", tagged.clone()).expect("fresh store");
    db.insert("t", rows.clone()).expect("rows match schema");
    let scan = |predicate: &Predicate| {
        let (kept, _) = (db.scan_kept("t", predicate, None, None)).expect("known columns");
        kept
    };
    let all = scan(&Predicate::True);
    let reversed = all
        .with_positions(vec![4, 3, 2, 1, 0])
        .expect("its own positions");
    let (_, projected, size) =
        ops::project_at(&tagged, reversed.selected(), &["y", "s"]).expect("known columns");
    let want: Vec<Row> = rows
        .iter()
        .rev()
        .map(|row| Row::from(vec![row[2].clone(), row[1].clone()]))
        .collect();
    assert!(same_rows(&projected, &want), "{projected:?}");
    assert_eq!(size, walked(&want));

    // `k` in 1..=3 on the right: the left's 0 and NULL are padded.
    let right = scan(&Predicate::between("k", 1i64, 3i64));
    let demand = ["s".to_owned(), "y_r".to_owned(), "s_r".to_owned()];
    let (_, joined, _) = ops::hash_join_with(
        &tagged,
        reversed.selected(),
        &tagged,
        right.selected(),
        "k",
        "k",
        JoinKind::LeftOuter,
        Some(&demand),
        |_| {},
    )
    .expect("known columns");
    let want = vec![
        Row::from(vec![text(None), bytes(Some(&[])), text(None)]),
        Row::from(vec![text(Some("")), bytes(None), text(None)]),
        Row::from(vec![text(Some("x")), bytes(Some(&[7])), text(Some("x"))]),
        Row::from(vec![text(None), bytes(None), text(None)]),
        Row::from(vec![text(Some("")), bytes(None), text(None)]),
    ];
    assert!(same_rows(&joined, &want), "{joined:?}");

    // Keyed on `s`: each `""` meets both `""`s, `"x"` meets `"x"`, and
    // NULL meets nothing.
    let demand = ["k".to_owned(), "k_r".to_owned(), "y_r".to_owned()];
    let mut want = vec![
        Row::from(vec![int(None), int(Some(0)), bytes(Some(&[]))]),
        Row::from(vec![int(None), int(None), bytes(None)]),
        Row::from(vec![int(Some(0)), int(Some(0)), bytes(Some(&[]))]),
        Row::from(vec![int(Some(0)), int(None), bytes(None)]),
        Row::from(vec![int(Some(2)), int(Some(2)), bytes(Some(&[7]))]),
    ];
    want.sort();
    for merge in [false, true] {
        let (l, r) = (reversed.selected(), all.selected());
        let (_, mut joined, _) = if merge {
            ops::sort_merge_join_with(&tagged, l, &tagged, r, "s", "s", Some(&demand))
        } else {
            let kind = JoinKind::Inner;
            ops::hash_join_with(
                &tagged,
                l,
                &tagged,
                r,
                "s",
                "s",
                kind,
                Some(&demand),
                |_| {},
            )
        }
        .expect("known columns");
        joined.sort();
        assert!(same_rows(&joined, &want), "merge {merge}: {joined:?}");
    }
}

/// A filter over several snapshots runs part by part, but its error is
/// the one a row at a time raises first in input order: here the row of
/// the second snapshot, read first, reaches `zzz` before the first
/// snapshot's row reaches `yyy`.
#[test]
fn a_filter_over_several_snapshots_fails_in_input_order() {
    let row = |i: i64| {
        Row::from(vec![
            Value::Int(i),
            0.5.into(),
            Value::Timestamp(i),
            true.into(),
            "x".into(),
        ])
    };
    let first = selection(&[row(1)], &Predicate::True, false, true, &[0]);
    let second = selection(&[row(2)], &Predicate::True, false, true, &[0]);
    let both = first.concat(&second).expect("one table's shape");
    let reordered = both
        .with_positions(vec![1 << 24, 0])
        .expect("both rows, second first");
    let unknown = |c: &str| Predicate::Eq(c.into(), Value::Int(0));
    let filter = Predicate::eq("i", 1i64)
        .and(unknown("yyy"))
        .or(unknown("zzz"));
    let s = schema();
    let want = |sel: &Selection| {
        let rows = sel.rows();
        rows.iter()
            .map(|r| filter.eval(&s, r))
            .find_map(Result::err)
            .expect("both rows fail")
    };
    for sel in [&both, &reordered] {
        let got = ops::filter_at(&s, sel.selected(), &filter);
        assert_eq!(got, Err(want(sel)), "{:?}", sel.positions());
    }
    assert_eq!(want(&reordered), Error::ColumnNotFound("zzz".into()));
}

/// A position of a selection over several snapshots is its part above
/// 24 bits of its row: one naming a part the selection lacks, or a row
/// past its part's snapshot, is refused, as is a split to a destination
/// past the width. A single snapshot's positions stay plain rows.
#[test]
fn tagged_positions_outside_the_parts_are_refused() {
    let row = |i: i64| {
        Row::from(vec![
            Value::Int(i),
            0.5.into(),
            Value::Timestamp(i),
            true.into(),
            "x".into(),
        ])
    };
    let three = selection(
        &[row(0), row(1), row(2)],
        &Predicate::True,
        false,
        true,
        &[0],
    );
    let two = selection(&[row(3), row(4)], &Predicate::True, false, true, &[0]);
    assert_eq!(three.positions(), [0, 1, 2]);
    let both = three.concat(&two).expect("one table's shape");
    assert_eq!(both.positions(), [0, 1, 2, 1 << 24, (1 << 24) + 1]);
    assert_eq!(both.concat(&three).unwrap().part_count(), 3);
    let refused =
        |positions: Vec<u32>| matches!(both.with_positions(positions), Err(Error::Invalid(_)));
    assert!(!refused(vec![(1 << 24) + 1, 2]));
    assert!(refused(vec![1 << 24 | 2]), "past the second snapshot");
    assert!(refused(vec![2 << 24]), "a third part");
    assert!(refused(vec![3]));

    assert!(matches!(three.split(&[0, 1], 2), Err(Error::Invalid(_))));
    assert!(matches!(three.split(&[0, 1, 2], 2), Err(Error::Invalid(_))));
}
