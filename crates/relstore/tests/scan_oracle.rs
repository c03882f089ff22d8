//! `RelationalStore::scan` against its specification: the candidate
//! rows, in candidate order, that `Predicate::eval` keeps — or the
//! first error it raises. The scan evaluates a column at a time over
//! the table's typed image; the specification evaluates a row at a
//! time and knows nothing of images, selections or indexes. A
//! conjunction of range leaves on one column, which the scan folds into
//! one interval, is held to it as well through `ops::filter_at` over a
//! partial selection.

use proptest::prelude::*;
use pspp_common::{DataType, Predicate, Result, Row, Value};
use pspp_relstore::ops::{filter_at, Selected};
use pspp_relstore::RelationalStore;

mod predicate_gen;
mod row_gen;
use predicate_gen::{arb_predicate_program, predicate_from};
use row_gen::{arb_any, arb_bool, arb_float, arb_int, arb_row, arb_str, arb_timestamp, schema};

/// The ends of the kinds' domains, which the rows never hold: the `Int`
/// and `Timestamp` extremes, a NaN and both infinities. Against them a
/// bound has nothing beyond it (`Lt(i, i64::MIN)`, `Gt(i, i64::MAX)`),
/// or orders past every number (`NaN` under `total_cmp`).
fn arb_edge() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Timestamp(i64::MIN)),
        Just(Value::Timestamp(i64::MAX)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
    ]
}

/// A literal is a value of any variant, whichever column it ends up
/// against; one in four is an edge of a domain.
fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![arb_any(), arb_any(), arb_any(), arb_edge()]
}

/// A literal of each column's own variant, in schema order, the ends of
/// each numeric domain among them.
fn arb_own() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            arb_int(),
            arb_int(),
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX))
        ],
        prop_oneof![
            arb_float(),
            arb_float(),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
        ],
        prop_oneof![
            arb_timestamp(),
            arb_timestamp(),
            Just(Value::Timestamp(i64::MIN)),
            Just(Value::Timestamp(i64::MAX)),
        ],
        arb_bool(),
        arb_str(),
    )
        .prop_map(|(i, f, t, b, s)| vec![i, f, t, b, s])
}

/// Leaves mostly over real columns; one in eight names a column the
/// schema lacks. Two such names: with one, every error reads alike and
/// *which* leaf a row reached first would go unchecked.
const COLUMNS: [&str; 16] = [
    "i", "f", "t", "b", "s", "i", "f", "t", "b", "s", "i", "f", "t", "b", "yyy", "zzz",
];

/// `predicate` with the literals of some leaves cast to their column's
/// type (where the cast exists): one flag of `align` per leaf, in
/// evaluation order. Literals are drawn without regard to the column
/// they meet, so unaligned a `BETWEEN` has both bounds of its column's
/// variant — the typed loop's condition — one time in 36.
fn aligned(predicate: Predicate, align: &mut dyn Iterator<Item = bool>) -> Predicate {
    use Predicate::*;
    let schema = schema();
    let mut target = |column: &str| {
        let flag = align.next().expect("flags cycle");
        let idx = schema.index_of(column).filter(|_| flag)?;
        Some(schema.fields()[idx].data_type)
    };
    let to = |target: Option<DataType>, v: Value| target.and_then(|t| v.cast(t)).unwrap_or(v);
    let mut cmp = |leaf: fn(String, Value) -> Predicate, c: String, v: Value| {
        let t = target(&c);
        leaf(c, to(t, v))
    };
    match predicate {
        True | IsNull(_) => predicate,
        Eq(c, v) => cmp(Eq, c, v),
        Ne(c, v) => cmp(Ne, c, v),
        Lt(c, v) => cmp(Lt, c, v),
        Le(c, v) => cmp(Le, c, v),
        Gt(c, v) => cmp(Gt, c, v),
        Ge(c, v) => cmp(Ge, c, v),
        Between(c, lo, hi) => {
            let t = target(&c);
            Between(c, to(t, lo), to(t, hi))
        }
        In(c, vs) => {
            let t = target(&c);
            In(c, vs.into_iter().map(|v| to(t, v)).collect())
        }
        And(a, b) => And(Box::new(aligned(*a, align)), Box::new(aligned(*b, align))),
        Or(a, b) => Or(Box::new(aligned(*a, align)), Box::new(aligned(*b, align))),
        Not(p) => Not(Box::new(aligned(*p, align))),
    }
}

fn store(rows: &[Row], index: Option<&str>) -> RelationalStore {
    let mut db = RelationalStore::new("db");
    db.create_table("t", schema()).expect("fresh store");
    db.insert("t", rows.to_vec()).expect("rows match schema");
    if let Some(column) = index {
        db.create_index("t", column).expect("known column");
    }
    db
}

/// The specification. `index` is the indexed column, when the
/// predicate's leading conjunct bounds it: the candidates are then the
/// rows inside the (inclusive) bounds in key order, ties in insertion
/// order; otherwise every row in insertion order.
fn specified(rows: &[Row], predicate: &Predicate, index: Option<&str>) -> Result<Vec<Row>> {
    let schema = schema();
    let mut candidates: Vec<&Row> = rows.iter().collect();
    if let (Some(column), Some((_, lo, hi))) = (index, predicate.index_bounds()) {
        let key = |r: &Row| r[schema.index_of(column).expect("known column")].clone();
        candidates
            .retain(|r| lo.is_none_or(|lo| key(r) >= *lo) && hi.is_none_or(|hi| key(r) <= *hi));
        candidates.sort_by_key(|r| key(r));
    }
    let mut kept = Vec::new();
    for row in candidates {
        if predicate.eval(&schema, row)? {
            kept.push(row.clone());
        }
    }
    Ok(kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn scan_keeps_what_eval_keeps_in_candidate_order(
        rows in prop::collection::vec(arb_row(), 0..24),
        program in arb_predicate_program(1..8, arb_literal),
        align in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let predicate = aligned(
            predicate_from(&COLUMNS, program),
            &mut align.iter().copied().cycle(),
        );
        // Sequentially, and through an index on the column the leading
        // conjunct bounds.
        let indexed = predicate
            .index_bounds()
            .map(|(column, ..)| column)
            .filter(|column| schema().index_of(column).is_some());
        for index in [None, indexed] {
            let db = store(&rows, index);
            let got = db.scan("t", &predicate, None);
            let want = specified(&rows, &predicate, index);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    prop_assert!(
                        got.rows == *want,
                        "index {index:?}, {predicate:?} over {rows:?}: got {:?}, want {want:?}",
                        got.rows
                    );
                    let walked: usize = want.iter().map(Row::byte_size).sum();
                    prop_assert_eq!(got.byte_size, walked as u64);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                _ => prop_assert!(
                    false,
                    "index {index:?}, {predicate:?} over {rows:?}: got {got:?}, want {want:?}"
                ),
            }
        }
    }
}

/// The range conjunct `kind` (`Eq`, `Lt`, `Le`, `Gt`, `Ge` or
/// `Between`) over column `c`; only `Between` reads `hi`.
fn range_leaf(kind: u8, c: &str, lo: Value, hi: Value) -> Predicate {
    match kind {
        0 => Predicate::eq(c, lo),
        1 => Predicate::lt(c, lo),
        2 => Predicate::le(c, lo),
        3 => Predicate::gt(c, lo),
        4 => Predicate::ge(c, lo),
        _ => Predicate::between(c, lo, hi),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Two or three range conjuncts on one column, which the scan folds
    /// into one interval when their literals are the column's own
    /// variant, and at times an `Ne`, `In` or `IsNull` leaf among them:
    /// what `Predicate::eval` keeps, on the full scan (no positions), on
    /// an index's candidates and on a partial selection (explicit
    /// positions).
    #[test]
    fn a_range_conjunction_keeps_what_eval_keeps(
        rows in prop::collection::vec(arb_row(), 0..24),
        column in 0usize..5,
        ranges in prop::collection::vec(
            (0u8..6, any::<bool>(), (arb_own(), arb_own()), (arb_literal(), arb_literal())),
            2..4,
        ),
        other in (
            0u8..6,
            any::<bool>(),
            arb_own(),
            arb_literal(),
            prop::collection::vec(arb_literal(), 0..3),
        ),
        shape in (0usize..4, any::<bool>(), prop::collection::vec(any::<bool>(), 24..25)),
    ) {
        let schema = schema();
        let field = &schema.fields()[column];
        let c = field.name.as_str();
        // Each conjunct's literals of the column's own variant half the
        // time, of any variant otherwise.
        let mut conjuncts: Vec<Predicate> = (ranges.into_iter())
            .map(|(kind, aligned, (own_lo, own_hi), (lo, hi))| {
                if aligned {
                    range_leaf(kind, c, own_lo[column].clone(), own_hi[column].clone())
                } else {
                    range_leaf(kind, c, lo, hi)
                }
            })
            .collect();
        // Half the time one leaf that does not fold, anywhere in line.
        let (kind, aligned, own, any, set) = other;
        let leaf = match kind {
            3 if aligned => Some(Predicate::Ne(c.to_owned(), own[column].clone())),
            3 => Some(Predicate::Ne(c.to_owned(), any)),
            4 => {
                let cast = |v: Value| v.cast(field.data_type).filter(|_| aligned).unwrap_or(v);
                Some(Predicate::In(c.to_owned(), set.into_iter().map(cast).collect()))
            }
            5 => Some(Predicate::IsNull(c.to_owned())),
            _ => None,
        };
        let (at, right_nested, picked) = shape;
        if let Some(leaf) = leaf {
            conjuncts.insert(at % (conjuncts.len() + 1), leaf);
        }
        let predicate = if right_nested {
            conjuncts.into_iter().rev().reduce(|b, a| a.and(b)).expect("two or more")
        } else {
            Predicate::all(conjuncts)
        };
        let eval = |r: u32| predicate.eval(&schema, &rows[r as usize]).expect("known column");
        // The full scan, and the scan of an index on the column, whose
        // candidates the leading conjunct picks when it is a range.
        for index in [None, Some(c)] {
            let db = store(&rows, index);
            let got = db.scan("t", &predicate, None).expect("known column").rows;
            let want = specified(&rows, &predicate, index).expect("known column");
            prop_assert!(
                got == want,
                "index {index:?}, {predicate:?} over {rows:?}: got {got:?}, want {want:?}"
            );
        }
        // A partial selection, in descending order.
        let db = store(&rows, None);
        let table = db.table("t").expect("created");
        let positions: Vec<u32> =
            (0..rows.len() as u32).rev().filter(|&r| picked[r as usize]).collect();
        let got = filter_at(&schema, Selected::at(table.source(), &positions), &predicate);
        let want: Vec<u32> = positions.iter().copied().filter(|&r| eval(r)).collect();
        prop_assert!(
            got.as_ref() == Ok(&want),
            "{predicate:?} over {rows:?} at {positions:?}: got {got:?}, want {want:?}"
        );
    }
}
