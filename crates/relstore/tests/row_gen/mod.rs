//! Random rows over one five-column schema for the relational store's
//! oracles. Shared source: the scan oracle and the kernel oracle both
//! draw their tables from here.

// Each oracle is a crate of its own and uses its own subset.
#![allow(dead_code)]

use proptest::prelude::*;
use pspp_common::{DataType, Row, Schema, Value};

/// One column of each fixed-width kind, and a string.
pub fn schema() -> Schema {
    Schema::new(vec![
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("t", DataType::Timestamp),
        ("b", DataType::Bool),
        ("s", DataType::Str),
    ])
}

/// NULL a quarter of the time, otherwise what `value` draws.
pub fn nullable(value: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
    (0u8..4, value).prop_map(|(n, v)| if n == 0 { Value::Null } else { v })
}

/// Small domains, so literals hit cells often: ints, halves (so
/// `Int(1)` meets `Float(1.0)`), a `-0.0` beside `0.0`, short strings —
/// `""`, strings that share a prefix, and a two-byte character, so that
/// byte order is not length order (`"aé" < "é"`).
pub fn arb_int() -> impl Strategy<Value = Value> {
    (-2i64..3).prop_map(Value::Int)
}
pub fn arb_float() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..5).prop_map(|h| Value::Float(h as f64 / 2.0)),
        Just(Value::Float(-0.0)),
    ]
}
pub fn arb_timestamp() -> impl Strategy<Value = Value> {
    (0i64..4).prop_map(Value::Timestamp)
}
pub fn arb_bool() -> impl Strategy<Value = Value> {
    any::<bool>().prop_map(Value::Bool)
}
pub fn arb_str() -> impl Strategy<Value = Value> {
    "[aé]{0,2}".prop_map(Value::from)
}

/// A value of any variant, whichever column it ends up in.
pub fn arb_any() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        arb_int(),
        arb_float(),
        arb_timestamp(),
        arb_bool(),
        arb_str(),
    ]
}

/// A row of [`schema`], NULLs in every column.
pub fn arb_row() -> impl Strategy<Value = Row> {
    (
        nullable(arb_int()),
        nullable(arb_float()),
        nullable(arb_timestamp()),
        nullable(arb_bool()),
        nullable(arb_str()),
    )
        .prop_map(|(i, f, t, b, s)| Row::from(vec![i, f, t, b, s]))
}
