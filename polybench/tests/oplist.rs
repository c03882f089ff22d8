//! The seed → op-list generator.

use std::collections::{BTreeMap, BTreeSet};

use polybench::oplist::{
    hetero_ops, olap_ops, serve_churn_sequence, serve_churn_texts, serve_hot_ops, Op, BATCH,
    CHURN_OPS, CHURN_TEXTS, HOT_TEXTS, OLAP_DRAWS,
};

fn texts(ops: &[Op]) -> Vec<String> {
    ops.iter().map(Op::text).collect()
}

fn templates(ops: &[Op]) -> Vec<&'static str> {
    ops.iter().map(|op| op.template).collect()
}

fn template_counts(ops: &[Op]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for op in ops {
        *counts.entry(op.template).or_default() += 1;
    }
    counts
}

type Generator = fn(u64) -> Vec<Op>;

fn generators() -> Vec<(&'static str, Generator)> {
    vec![
        ("olap", olap_ops),
        ("serve_hot", |seed| serve_hot_ops(seed, 500)),
        ("serve_churn", |seed| serve_churn_texts(seed, 500)),
        ("hetero", hetero_ops),
    ]
}

#[test]
fn the_same_seed_gives_the_same_list() {
    for (name, generate) in generators() {
        assert_eq!(texts(&generate(2019)), texts(&generate(2019)), "{name}");
    }
}

#[test]
fn another_seed_changes_parameters_but_not_template_counts() {
    for (name, generate) in generators() {
        let (a, b) = (generate(2019), generate(7));
        assert_ne!(
            texts(&a),
            texts(&b),
            "{name}: seed 7 draws other parameters"
        );
        assert_eq!(template_counts(&a), template_counts(&b), "{name}");
        assert_eq!(
            templates(&a),
            templates(&b),
            "{name}: same order of templates"
        );
    }
}

#[test]
fn list_sizes_are_the_documented_constants() {
    let olap = olap_ops(2019);
    assert_eq!(olap.len(), 6 * OLAP_DRAWS);
    assert!(template_counts(&olap).values().all(|&n| n == OLAP_DRAWS));
    assert_eq!(serve_hot_ops(2019, 500).len(), HOT_TEXTS);
    assert_eq!(serve_churn_texts(2019, 500).len(), CHURN_TEXTS);
    assert_eq!(hetero_ops(2019).len(), 16);
    assert_eq!(HOT_TEXTS % BATCH, 0);
    assert_eq!(CHURN_OPS % BATCH, 0);
}

#[test]
fn no_two_ops_of_a_list_share_a_text() {
    for (name, generate) in generators() {
        for seed in [2019, 7] {
            let all = texts(&generate(seed));
            let distinct: BTreeSet<&String> = all.iter().collect();
            assert_eq!(distinct.len(), all.len(), "{name} seed {seed}");
        }
    }
}

#[test]
fn serve_hot_batches_are_one_query_class_each() {
    let ops = serve_hot_ops(2019, 500);
    for batch in ops.chunks(BATCH) {
        assert!(batch.iter().all(|op| op.template == batch[0].template));
    }
}

#[test]
fn churn_texts_interleave_the_classes_and_the_pattern_ignores_the_seed() {
    let ops = serve_churn_texts(7, 500);
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(op.template, ops[i % 4].template);
    }
    let sequence = serve_churn_sequence();
    assert_eq!(sequence, serve_churn_sequence());
    assert_eq!(sequence.len(), CHURN_OPS);
    assert!(sequence.iter().all(|&i| (i as usize) < CHURN_TEXTS));
    // About half of the accesses go to the hot prefix.
    let hot = sequence
        .iter()
        .filter(|&&i| (i as usize) < HOT_TEXTS)
        .count();
    assert!(
        (CHURN_OPS * 4 / 10..=CHURN_OPS * 6 / 10).contains(&hot),
        "{hot}"
    );
}
