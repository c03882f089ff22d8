//! A run must be indistinguishable from any other run of the same
//! program on the same deployment: byte-identical outputs and identical
//! ledger event streams across fresh systems (whose hash maps iterate
//! in different orders), across threads running at the same time, and —
//! for the rows — across shard counts.

use polystorepp::accel::CostEvent;
use polystorepp::prelude::*;

fn clinical_system() -> Polystore {
    sharded_clinical_system(1)
}

fn sharded_clinical_system(shards: usize) -> Polystore {
    Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 150,
        vitals_per_patient: 8,
        seed: 99,
    }))
    .accelerators(AcceleratorFleet::workstation())
    .opt_level(OptLevel::L3)
    .shards(shards)
    .build()
    .expect("valid config")
}

/// The clinical NLQ pipeline (Fig. 2): scans, a cross-engine join, and
/// an MLP train — a program whose stages hold several nodes.
const CLINICAL_NLQ: &str = "Will patients have a long stay at the hospital?";

const FEDERATED_JOIN: &str =
    "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
     WHERE age >= 70";

#[test]
fn clinical_nlq_repeats_bit_for_bit_on_fresh_systems() {
    let first = clinical_system();
    let second = clinical_system();
    let a = first.run_nlq(CLINICAL_NLQ).expect("first run");
    let b = second.run_nlq(CLINICAL_NLQ).expect("second run");

    // Byte-identical outputs (covers model payloads too).
    assert_eq!(
        format!("{:?}", a.execution.outputs),
        format!("{:?}", b.execution.outputs),
    );
    // Identical simulated accounting.
    assert_eq!(a.execution.node_seconds, b.execution.node_seconds);
    assert_eq!(a.execution.migration_seconds, b.execution.migration_seconds);
    assert_eq!(
        a.execution.makespan_sequential,
        b.execution.makespan_sequential
    );
    assert_eq!(
        a.execution.makespan_pipelined,
        b.execution.makespan_pipelined
    );
    // Identical ledger totals — and in fact identical event streams.
    assert_eq!(a.costs, b.costs);
    assert_eq!(first.ledger().events(), second.ledger().events());
}

#[test]
fn federated_join_repeats_bit_for_bit_and_answers_alike_on_two_shards() {
    let flat = clinical_system();
    let first = sharded_clinical_system(2);
    let second = sharded_clinical_system(2);
    let a = flat.run_sql(FEDERATED_JOIN).expect("one-shard run");
    let b = first.run_sql(FEDERATED_JOIN).expect("two-shard run");
    let c = second
        .run_sql(FEDERATED_JOIN)
        .expect("two-shard run, again");
    assert!(!a.execution.outputs[0].is_empty());
    // One shard or two: the same rows in the same order.
    assert_eq!(
        a.execution.outputs[0].try_rows().expect("rows"),
        b.execution.outputs[0].try_rows().expect("rows"),
    );
    // The two-shard stages (two tasks a node) repeat to the event.
    assert_eq!(
        format!("{:?}", b.execution.outputs),
        format!("{:?}", c.execution.outputs),
    );
    assert_eq!(b.costs, c.costs);
    assert_eq!(first.ledger().events(), second.ledger().events());
}

#[test]
fn sharded_scatter_gather_matches_flat_and_repeats_bit_for_bit() {
    let flat = clinical_system();
    let sharded = sharded_clinical_system(4);
    let sharded_again = sharded_clinical_system(4);

    let a = flat.run_sql(FEDERATED_JOIN).expect("flat run");
    let b = sharded.run_sql(FEDERATED_JOIN).expect("sharded run");
    let c = sharded_again
        .run_sql(FEDERATED_JOIN)
        .expect("sharded run, again");

    // A 4-shard deployment returns the same bytes as the flat one…
    assert_eq!(
        a.execution.outputs[0].try_rows().expect("rows"),
        b.execution.outputs[0].try_rows().expect("rows"),
    );
    // …and its scatter-gather repeats bit for bit, down to the
    // accounting.
    assert_eq!(
        format!("{:?}", b.execution.outputs),
        format!("{:?}", c.execution.outputs),
    );
    assert_eq!(b.execution.node_seconds, c.execution.node_seconds);
    assert_eq!(b.costs, c.costs);
    assert_eq!(sharded.ledger().events(), sharded_again.ledger().events());
    // Scatter-gather over 4 replicas must not cost more simulated time
    // than the flat scan path.
    assert!(b.makespan() <= a.makespan() + 1e-12);
}

#[test]
fn repeated_parallel_runs_are_self_consistent() {
    // The executor runs a query on its caller's thread; concurrency is
    // one query per thread. Three queries running at the same time, each
    // on its own system, must not see each other: the barrier makes them
    // start together.
    let start = std::sync::Barrier::new(3);
    let runs: Vec<(String, Vec<CostEvent>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let s = clinical_system();
                    start.wait();
                    let r = s.run_nlq(CLINICAL_NLQ).expect("runs");
                    (format!("{:?}", r.execution.outputs), s.ledger().events())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run thread panicked"))
            .collect()
    });
    for run in &runs[1..] {
        assert_eq!(run.0, runs[0].0);
        assert_eq!(run.1, runs[0].1);
    }
}
