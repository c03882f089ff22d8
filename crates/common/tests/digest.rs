//! `OutputDigest` against its contract: what a result *is* — column
//! names and types, and the multiset of rows — decides the digest;
//! where the rows came from does not. Row order and the shard layout
//! they were gathered from leave it alone. A value's variant, the
//! boundary between two strings, a column's name or type, and a row's
//! multiplicity each move it.
//!
//! The values are drawn so that dropping any one part of the encoding
//! makes two of them collide: ints beside timestamps and beside floats
//! holding the same bits (the variant tag), strings and byte arrays over
//! an alphabet holding the string tag byte (the length prefix), and
//! schemas of no columns, whose rows all hash alike (the row count).

use proptest::prelude::*;
use pspp_common::{DataType, OutputDigest, PartitionSpec, Row, Schema, Value};

/// The byte the digest tags a string with: a string holding it, beside
/// another, reads the same as two strings split elsewhere unless each
/// carries its length.
const STR_TAG: char = '\u{5}';

fn digest(schema: &Schema, rows: &[Row]) -> u64 {
    let mut digest = OutputDigest::new();
    digest.rows(schema, rows);
    digest.finish()
}

/// The raw material of one cell; the column's type picks what it
/// becomes.
#[derive(Debug, Clone)]
struct Cell {
    null: bool,
    int: i64,
    text: String,
    flag: bool,
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    (0u8..5, -2i64..3, "[a\u{5}]{0,3}", any::<bool>()).prop_map(|(null, int, text, flag)| Cell {
        null: null == 0,
        int,
        text,
        flag,
    })
}

fn value_of(kind: DataType, cell: &Cell) -> Value {
    if cell.null {
        return Value::Null;
    }
    match kind {
        DataType::Bool => Value::Bool(cell.flag),
        DataType::Int => Value::Int(cell.int),
        // Whole numbers, so `Float(1.0)` meets `Int(1)`.
        DataType::Float => Value::Float(cell.int as f64),
        DataType::Str => Value::from(cell.text.as_str()),
        DataType::Bytes => Value::Bytes(cell.text.clone().into_bytes()),
        DataType::Timestamp => Value::Timestamp(cell.int),
    }
}

/// A value of another variant holding the same payload bytes where
/// one exists: the pair only the variant tag tells apart.
fn sibling(value: &Value) -> Value {
    match value {
        Value::Null => Value::from(""),
        Value::Bool(b) => Value::Int(i64::from(*b)),
        Value::Int(v) => Value::Timestamp(*v),
        Value::Float(v) => Value::Int(v.to_bits() as i64),
        Value::Str(s) => Value::Bytes(s.clone().into_bytes()),
        Value::Bytes(b) => Value::from(String::from_utf8_lossy(b).as_ref()),
        Value::Timestamp(v) => Value::Int(*v),
    }
}

/// Up to four columns (none a quarter of the time) and up to nine rows,
/// duplicates likely.
#[allow(clippy::type_complexity)]
fn arb_output() -> impl Strategy<Value = ((Vec<(usize, String)>, Vec<Vec<Cell>>), usize)> {
    (
        (
            prop::collection::vec((0usize..6, "[ab]{1,2}"), 0..5),
            prop::collection::vec(prop::collection::vec(arb_cell(), 4..5), 0..10),
        ),
        0usize..64,
    )
}

fn build(columns: &[(usize, String)], cells: &[Vec<Cell>]) -> (Schema, Vec<Row>) {
    let kinds: Vec<DataType> = columns.iter().map(|(k, _)| DataType::all()[*k]).collect();
    let schema = Schema::new(
        columns
            .iter()
            .zip(&kinds)
            .map(|((_, name), kind)| (name.clone(), *kind))
            .collect(),
    );
    let rows = cells
        .iter()
        .map(|row| {
            kinds
                .iter()
                .zip(row)
                .map(|(kind, cell)| value_of(*kind, cell))
                .collect()
        })
        .collect();
    (schema, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn order_and_layout_leave_the_digest_and_contents_move_it(
        ((columns, cells), pick) in arb_output()
    ) {
        let (schema, rows) = build(&columns, &cells);
        let want = digest(&schema, &rows);

        // Any order: reversed, and rotated.
        let mut reordered = rows.clone();
        reordered.reverse();
        if !rows.is_empty() {
            reordered.rotate_left(pick % rows.len());
        }
        prop_assert_eq!(digest(&schema, &reordered), want);

        // Any shard count: hashed on the first column, gathered back in
        // shard order.
        if let Some(first) = schema.fields().first() {
            for shards in 1..=4 {
                let buckets = PartitionSpec::hash(first.name.clone(), shards)
                    .distribute(&schema, &rows)
                    .expect("the column exists");
                let gathered: Vec<Row> = buckets.into_iter().flatten().collect();
                prop_assert_eq!(digest(&schema, &gathered), want);
            }
        }

        // One more copy of a row: with no columns only the count sees it.
        if !rows.is_empty() {
            let mut more = rows.clone();
            more.push(rows[pick % rows.len()].clone());
            prop_assert!(digest(&schema, &more) != want);
        }

        // A renamed column, and a retyped one over the same rows.
        if !columns.is_empty() {
            let at = pick % columns.len();
            let mut renamed = columns.clone();
            renamed[at].1.push('x');
            prop_assert!(digest(&build(&renamed, &cells).0, &rows) != want);
            let mut retyped = columns.clone();
            retyped[at].0 = (retyped[at].0 + 1) % 6;
            prop_assert!(digest(&build(&retyped, &cells).0, &rows) != want);
        }

        // One value swapped for its sibling: the variant tag.
        if !rows.is_empty() && !columns.is_empty() {
            let (r, c) = (pick % rows.len(), pick % columns.len());
            let mut values = rows[r].values().to_vec();
            values[c] = sibling(&values[c]);
            let mut changed = rows.clone();
            changed[r] = Row::from(values);
            prop_assert!(digest(&schema, &changed) != want);
        }

        // Two adjacent strings split elsewhere: the length prefix.
        for (r, row) in rows.iter().enumerate() {
            for c in 1..row.len() {
                if let (Value::Str(a), Value::Str(b)) = (&row[c - 1], &row[c]) {
                    if let Some(last) = a.chars().last() {
                        let mut values = row.values().to_vec();
                        values[c - 1] = Value::from(&a[..a.len() - last.len_utf8()]);
                        values[c] = Value::from(format!("{last}{b}"));
                        let mut changed = rows.clone();
                        changed[r] = Row::from(values);
                        prop_assert!(digest(&schema, &changed) != want);
                    }
                }
            }
        }
    }
}

/// The pairs that must not collide, named.
#[test]
fn values_that_compare_or_print_alike_are_told_apart() {
    let one = |kind: DataType, value: Value| {
        digest(&Schema::new(vec![("v", kind)]), &[Row::from(vec![value])])
    };
    // `Int(1) == Float(1.0)` and they route alike; a result holding one
    // is not a result holding the other.
    assert_eq!(Value::Int(1), Value::Float(1.0));
    assert_ne!(
        one(DataType::Int, Value::Int(1)),
        one(DataType::Int, Value::Float(1.0))
    );
    let bits = 1.0f64.to_bits() as i64;
    assert_ne!(
        one(DataType::Int, Value::Int(bits)),
        one(DataType::Int, Value::Float(1.0))
    );
    assert_ne!(
        one(DataType::Int, Value::Int(1)),
        one(DataType::Int, Value::Timestamp(1))
    );
    assert_ne!(
        one(DataType::Str, Value::Null),
        one(DataType::Str, Value::from(""))
    );

    let pair = |a: &str, b: &str| {
        let schema = Schema::new(vec![("a", DataType::Str), ("b", DataType::Str)]);
        digest(&schema, &[Row::from(vec![Value::from(a), Value::from(b)])])
    };
    assert_ne!(pair("ab", "c"), pair("a", "bc"));
    let tag = STR_TAG.to_string();
    assert_ne!(pair(&format!("a{tag}"), "b"), pair("a", &format!("{tag}b")));

    // Renaming a column of an empty output; two names split elsewhere
    // (a name holding the int tag byte reads on into the next column
    // unless names carry their lengths); a count of rows of no columns.
    let empty = |names: [&str; 2]| {
        let schema = Schema::new(names.map(|n| (n, DataType::Int)).to_vec());
        digest(&schema, &[])
    };
    assert_ne!(empty(["n", "m"]), empty(["n", "k"]));
    assert_ne!(empty(["a\u{3}", "b"]), empty(["a", "\u{3}b"]));
    let none = |n: usize| digest(&Schema::empty(), &vec![Row::new(); n]);
    assert_ne!(none(3), none(5));
    assert_ne!(none(0), none(1));
}
