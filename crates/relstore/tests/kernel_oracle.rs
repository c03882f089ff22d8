//! `ops::sort_rows`, `ops::group_by` and `ops::hash_join` (whole rows, and
//! `hash_join_with` building a drawn subset of the columns, and reading
//! either side whole off a table's snapshot, which keeps a key index of
//! its join column) against their
//! specifications, written here over `Value`'s own order and equality:
//! a stable `sort_by`, a first-seen grouping by linear search, a nested
//! loop. The kernels read typed key columns as flat words and fall back
//! to `&Value` for the rest; the specifications know nothing of words,
//! hash tables or build sides, and the tables are drawn so that every
//! case mixes columns from both sides of that choice.

use proptest::prelude::*;
use pspp_common::{Error, Predicate, Result, Row, Value};
use pspp_relstore::ops::{self, Aggregate, AggregateSpec, JoinKind, Selected, SortKey};
use pspp_relstore::{RelationalStore, Selection};

mod row_gen;
use row_gen::{arb_any, arb_bool, arb_float, arb_int, arb_str, arb_timestamp, schema};

const COLUMNS: [&str; 5] = ["i", "f", "t", "b", "s"];

/// The edges of each kind's order: the ends of `i64`, both zeros, the
/// infinities, NaNs of either sign, the smallest steps away from zero.
fn arb_extreme_row() -> impl Strategy<Value = Vec<Value>> {
    const INTS: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
    const FLOATS: [f64; 10] = [
        f64::NEG_INFINITY,
        f64::MIN,
        -1.0,
        -f64::MIN_POSITIVE,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        1.0,
        f64::INFINITY,
        f64::NAN,
    ];
    (0usize..5, 0usize..11, 0usize..5, any::<bool>(), arb_str()).prop_map(|(i, f, t, b, s)| {
        let float = FLOATS.get(f).copied().unwrap_or(-f64::NAN);
        vec![
            Value::Int(INTS[i]),
            Value::Float(float),
            Value::Timestamp(INTS[t]),
            Value::Bool(b),
            s,
        ]
    })
}

fn arb_small_row() -> impl Strategy<Value = Vec<Value>> {
    (
        arb_int(),
        arb_float(),
        arb_timestamp(),
        arb_bool(),
        arb_str(),
    )
        .prop_map(|(i, f, t, b, s)| vec![i, f, t, b, s])
}

/// Up to `max - 1` rows of [`schema`]. Each column of a table is of one
/// make, drawn per table: small domains without NULLs (heavy
/// duplicates; a typed key), extremes without NULLs (a typed key), the
/// two with a NULL a quarter of the time, or values of any kind.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let cell_makes = (
        arb_small_row(),
        arb_extreme_row(),
        prop::collection::vec(0u8..4, 5..6),
        prop::collection::vec(arb_any(), 5..6),
        prop::collection::vec(any::<bool>(), 5..6),
    );
    (
        prop::collection::vec(0u8..4, 5..6),
        prop::collection::vec(cell_makes, 0..max),
    )
        .prop_map(|(makes, rows)| {
            rows.into_iter()
                .map(|(small, extreme, nulls, any, pick_extreme)| {
                    (0..5)
                        .map(|c| match makes[c] {
                            0 => small[c].clone(),
                            1 => extreme[c].clone(),
                            2 if nulls[c] == 0 => Value::Null,
                            2 if pick_extreme[c] => extreme[c].clone(),
                            2 => small[c].clone(),
                            _ => any[c].clone(),
                        })
                        .collect()
                })
                .collect()
        })
}

/// Equal as `Value`s *and* of one variant: `Int(1)` is not `Float(1.0)`
/// in an output row. (`Value`'s equality on floats is bit equality.)
fn same_value(a: &Value, b: &Value) -> bool {
    a == b && a.data_type() == b.data_type()
}

fn same_values(got: &[Value], want: &[Value]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| same_value(a, b))
}

fn same_rows(got: &[Row], want: &[Row]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| same_values(g.values(), w.values()))
}

/// [`same_rows`] for `group_by` outputs: the `keys` leading columns are
/// copied values and compare exactly; among the aggregates a NaN is any
/// NaN. A sum that meets `inf - inf` and then a NaN input adds two NaNs,
/// and whose payload and sign the result carries is the compiler's
/// choice of operand order — debug and release builds differ.
fn same_groups(got: &[Row], want: &[Row], keys: usize) -> bool {
    let is_nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
    let same_row = |g: &[Value], w: &[Value]| {
        g.len() == w.len()
            && same_values(&g[..keys], &w[..keys])
            && g[keys..]
                .iter()
                .zip(&w[keys..])
                .all(|(a, b)| same_value(a, b) || (is_nan(a) && is_nan(b)))
    };
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| same_row(g.values(), w.values()))
}

/// Groups in first-seen order, a group being the rows whose key columns
/// are pairwise equal `Value`s; each aggregate folds the group's rows in
/// row order. Without keys there is one group, rows or none, and a sum
/// over no rows is NULL.
fn specified_group_by(
    rows: &[Row],
    keys: &[usize],
    aggs: &[(Aggregate, usize)],
) -> Result<Vec<Row>> {
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    if keys.is_empty() {
        groups.push(Vec::new());
    }
    for row in rows {
        let found = groups
            .iter_mut()
            .find(|members| keys.iter().all(|&k| members[0][k] == row[k]));
        match found {
            Some(members) => members.push(row),
            None => groups.push(vec![row]),
        }
    }
    let mut out = Vec::new();
    for members in groups {
        let mut values: Vec<Value> = keys.iter().map(|&k| members[0][k].clone()).collect();
        for &(agg, column) in aggs {
            let present = || members.iter().map(|r| &r[column]).filter(|v| !v.is_null());
            let numbers = || {
                present()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| Error::SchemaMismatch(format!("{v:?}")))
                    })
                    .collect::<Result<Vec<f64>>>()
            };
            // `fold` from 0.0, not `sum()`: the additions the kernel makes.
            let total = |xs: &[f64]| xs.iter().fold(0.0, |s, x| s + x);
            let pick = |better: fn(&Value, &Value) -> bool| {
                present()
                    .fold(None, |best: Option<&Value>, v| match best {
                        Some(b) if !better(v, b) => Some(b),
                        _ => Some(v),
                    })
                    .cloned()
                    .unwrap_or(Value::Null)
            };
            values.push(match agg {
                Aggregate::Count => Value::Int(members.len() as i64),
                Aggregate::CountNonNull => Value::Int(present().count() as i64),
                // No value to add: NULL, as SQL has it.
                Aggregate::Sum | Aggregate::Avg => match numbers()? {
                    xs if xs.is_empty() => Value::Null,
                    xs if agg == Aggregate::Sum => Value::Float(total(&xs)),
                    xs => Value::Float(total(&xs) / xs.len() as f64),
                },
                Aggregate::Min => pick(|v, best| v < best),
                Aggregate::Max => pick(|v, best| v > best),
            });
        }
        out.push(Row::from(values));
    }
    Ok(out)
}

/// The nested loop: left-major, a left row's matches in right order,
/// NULL equal to nothing; with it, each left row's output count.
fn specified_join(
    left: &[Row],
    right: &[Row],
    li: usize,
    ri: usize,
    kind: JoinKind,
) -> (Vec<Row>, Vec<usize>) {
    let null_right = Row::from(vec![Value::Null; schema().arity()]);
    let mut out = Vec::new();
    let mut counts = Vec::new();
    for l in left {
        let before = out.len();
        for r in right {
            if !l[li].is_null() && !r[ri].is_null() && l[li] == r[ri] {
                out.push(l.concat(r));
            }
        }
        if out.len() == before && kind == JoinKind::LeftOuter {
            out.push(l.concat(&null_right));
        }
        counts.push(out.len() - before);
    }
    (out, counts)
}

/// `rows` stored in a table of [`schema`] and scanned whole: a selection
/// of every row of the table's snapshot, in order, which a hash join
/// keeps a key index of. `None` when a row does not fit the schema (a
/// column of values of any kind).
fn stored(rows: &[Row]) -> Option<Selection> {
    let mut db = RelationalStore::new("db");
    db.create_table("t", schema()).expect("fresh store");
    db.insert("t", rows.to_vec()).ok()?;
    let (whole, _) = db
        .scan_kept("t", &Predicate::True, None, None)
        .expect("known table");
    Some(whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn sort_rows_is_the_stable_sort_by_value_order(
        // Long enough that the standard library's unstable sort leaves
        // its insertion sort (stable by accident, up to 20 elements)
        // and partitions: only then does a lost tie-break show.
        rows in arb_rows(96),
        keys in prop::collection::vec((0usize..5, any::<bool>()), 1..4),
    ) {
        let mut want = rows.clone();
        want.sort_by(|a, b| {
            keys.iter()
                .map(|&(c, asc)| if asc { a[c].cmp(&b[c]) } else { b[c].cmp(&a[c]) })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let sort_keys: Vec<SortKey> = keys
            .iter()
            .map(|&(c, asc)| if asc { SortKey::asc(COLUMNS[c]) } else { SortKey::desc(COLUMNS[c]) })
            .collect();
        let got = ops::sort_rows(&schema(), rows.clone(), &sort_keys).expect("known columns");
        // The very rows, not equal ones: a clone shares its allocation,
        // so this sees two equal rows swapped.
        prop_assert!(
            got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| g.ptr_eq(w)),
            "{keys:?} over {rows:?}: got {got:?}, want {want:?}"
        );
    }

    #[test]
    fn group_by_is_first_seen_grouping_with_row_order_folds(
        rows in arb_rows(24),
        keys in prop::collection::vec(0usize..5, 0..3),
        columns in prop::collection::vec(0usize..5, 6..7),
    ) {
        // Every aggregate, each over a column of its own draw — string
        // and boolean columns too, which `Sum` and `Avg` must refuse.
        let aggs: Vec<(Aggregate, usize)> = [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::CountNonNull,
        ]
        .into_iter()
        .zip(columns)
        .collect();
        let specs: Vec<AggregateSpec> = aggs
            .iter()
            .enumerate()
            .map(|(n, &(agg, c))| AggregateSpec::new(agg, COLUMNS[c], format!("a{n}")))
            .collect();
        let key_names: Vec<&str> = keys.iter().map(|&k| COLUMNS[k]).collect();
        let got = ops::group_by(&schema(), &rows, &key_names, &specs).map(|(_, rows)| rows);
        let want = specified_group_by(&rows, &keys, &aggs);
        match (&got, &want) {
            (Ok(got), Ok(want)) => prop_assert!(
                same_groups(got, want, keys.len()),
                "{keys:?} {aggs:?} over {rows:?}: got {got:?}, want {want:?}"
            ),
            (Err(Error::SchemaMismatch(_)), Err(_)) => {}
            _ => prop_assert!(
                false,
                "{keys:?} {aggs:?} over {rows:?}: got {got:?}, want {want:?}"
            ),
        }
    }

    #[test]
    fn hash_join_is_the_nested_loop_in_left_major_order(
        left in arb_rows(24),
        right in arb_rows(24),
        on in (0usize..5, 0usize..5, any::<bool>()),
        outer in any::<bool>(),
        emit in prop::collection::vec(0usize..10, 0..6),
    ) {
        // Half the time the same column on both sides, otherwise any
        // pair: `Int` against `Float` among them, and pairs of kinds
        // that never compare equal.
        let (li, ri) = if on.2 { (on.0, on.0) } else { (on.0, on.1) };
        let kind = if outer { JoinKind::LeftOuter } else { JoinKind::Inner };
        let (want, want_counts) = specified_join(&left, &right, li, ri, kind);
        let s = schema();
        let (_, plain) = ops::hash_join(&s, &left, &s, &right, COLUMNS[li], COLUMNS[ri], kind)
            .expect("known columns");
        let (_, counted, counts) =
            ops::hash_join_counted(&s, &left, &s, &right, COLUMNS[li], COLUMNS[ri], kind)
                .expect("known columns");
        for got in [&plain, &counted] {
            prop_assert!(
                same_rows(got, &want),
                "{li} = {ri} {kind:?}, {left:?} with {right:?}: got {got:?}, want {want:?}"
            );
        }
        // `counts` cuts the output into each left row's chunk.
        prop_assert_eq!(&counts, &want_counts);
        prop_assert_eq!(counts.iter().sum::<usize>(), counted.len());
        let mut chunks = counted.as_slice();
        for (l, &n) in left.iter().zip(&counts) {
            let (chunk, rest) = chunks.split_at(n);
            prop_assert!(chunk
                .iter()
                .all(|row| same_values(&row.values()[..l.len()], l.values())));
            chunks = rest;
        }
        // Building some of the ten output columns (any order, repeats
        // too, none at all) is the nested loop and then a projection:
        // the same pairs in the same order, so the same counts, under
        // the full join's names, with the bytes of what was built.
        let joined = s.join(&s);
        let names: Vec<String> = emit.iter().map(|&c| joined.fields()[c].name.clone()).collect();
        let projected: Vec<Row> = want.iter().map(|row| row.project(&emit)).collect();
        let mut narrow_counts = Vec::new();
        let (l, r) = (Selected::all(&left).expect("few rows"), Selected::all(&right).expect("few rows"));
        let (narrow_schema, narrow, bytes) = ops::hash_join_with(
            &s, l, &s, r, COLUMNS[li], COLUMNS[ri], kind, Some(&names),
            |n| narrow_counts.push(n),
        )
        .expect("known columns");
        prop_assert!(
            same_rows(&narrow, &projected),
            "{li} = {ri} {kind:?} emitting {names:?}, {left:?} with {right:?}: got {narrow:?}, want {projected:?}"
        );
        prop_assert_eq!(narrow_schema.names(), names.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(&narrow_counts, &want_counts);
        prop_assert_eq!(bytes, narrow.iter().map(|row| row.byte_size() as u64).sum::<u64>());

        // Either side, or both, read whole off a table: the first join
        // that reads a side whole builds its key index, the next probe
        // it; every one answers as the nested loop does.
        let (lstored, rstored) = (stored(&left), stored(&right));
        let (lrows, rrows) = (Selected::all(&left).expect("few rows"), Selected::all(&right).expect("few rows"));
        let lwhole = lstored.as_ref().map(Selection::selected);
        let rwhole = rstored.as_ref().map(Selection::selected);
        let sides = [
            (Some(lrows), rwhole),
            (lwhole, Some(rrows)),
            (lwhole, rwhole),
            (Some(lrows), rwhole),
            (lwhole, Some(rrows)),
        ];
        for (l, r) in sides {
            let (Some(l), Some(r)) = (l, r) else { continue };
            let mut got_counts = Vec::new();
            let (_, got, bytes) = ops::hash_join_with(
                &s, l, &s, r, COLUMNS[li], COLUMNS[ri], kind, None,
                |n| got_counts.push(n),
            )
            .expect("known columns");
            prop_assert!(
                same_rows(&got, &want),
                "{li} = {ri} {kind:?} read whole, {left:?} with {right:?}: got {got:?}, want {want:?}"
            );
            prop_assert_eq!(&got_counts, &want_counts);
            prop_assert_eq!(bytes, got.iter().map(|row| row.byte_size() as u64).sum::<u64>());
        }
    }
}
