//! `RelationalStore::scan` against its specification: the candidate
//! rows, in candidate order, that `Predicate::eval` keeps — or the
//! first error it raises. The scan evaluates a column at a time over
//! the table's typed image; the specification evaluates a row at a
//! time and knows nothing of images, selections or indexes.

use proptest::prelude::*;
use pspp_common::{DataType, Predicate, Result, Row, Value};
use pspp_relstore::RelationalStore;

mod predicate_gen;
mod row_gen;
use predicate_gen::{arb_predicate_program, predicate_from};
// A literal is a value of any variant, whichever column it ends up
// against.
use row_gen::{arb_any as arb_literal, arb_row, schema};

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
