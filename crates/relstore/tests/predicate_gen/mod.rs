//! Random predicate trees for property tests. Shared source: the
//! relational store's scan oracle uses it, and the workspace-level
//! properties in the repository's `tests/properties.rs` include this
//! file by path.

use proptest::prelude::*;
use pspp_common::{Predicate, Value};

/// One step of a postfix predicate program (see [`predicate_from`]):
/// kind, column pick, two literals and an `IN` set.
pub type PredicateStep = (u8, usize, Value, Value, Vec<Value>);

/// Postfix programs of `steps` steps for [`predicate_from`], their
/// literals drawn from `literal()`.
pub fn arb_predicate_program<L: Strategy<Value = Value>>(
    steps: std::ops::Range<usize>,
    literal: fn() -> L,
) -> impl Strategy<Value = Vec<PredicateStep>> {
    prop::collection::vec(
        (
            0u8..13,
            0usize..1000,
            literal(),
            literal(),
            prop::collection::vec(literal(), 0..3),
        ),
        steps,
    )
}

/// A predicate tree from a postfix program: kinds 0–9 push a leaf over
/// one of `columns` (picked modulo their number); 10–12 combine what is
/// on the stack with `And`, `Or`, `Not`. Whatever is left is `And`ed.
pub fn predicate_from(columns: &[&str], program: Vec<PredicateStep>) -> Predicate {
    let mut stack: Vec<Predicate> = Vec::new();
    for (kind, column, v, w, set) in program {
        let c = || columns[column % columns.len()].to_owned();
        let leaf = match kind {
            10 | 11 if stack.len() >= 2 => {
                let (right, left) = (stack.pop().unwrap(), stack.pop().unwrap());
                if kind == 10 {
                    left.and(right)
                } else {
                    left.or(right)
                }
            }
            12 if !stack.is_empty() => stack.pop().unwrap().not(),
            0 => Predicate::True,
            1 => Predicate::Eq(c(), v),
            2 => Predicate::Ne(c(), v),
            3 => Predicate::Lt(c(), v),
            4 => Predicate::Le(c(), v),
            5 => Predicate::Gt(c(), v),
            6 => Predicate::Ge(c(), v),
            7 => Predicate::Between(c(), v, w),
            8 => Predicate::In(c(), set),
            _ => Predicate::IsNull(c()),
        };
        stack.push(leaf);
    }
    stack.into_iter().reduce(Predicate::and).unwrap_or_default()
}
