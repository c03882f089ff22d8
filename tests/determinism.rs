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

/// The registry is the layout: however a deployment arrives at
/// `admissions` hashed on `pid` and `patients` on `name`, four shards
/// each — declared to the builder, resharded on the deployment's
/// registry before the builder saw it, or moved after `build` — the
/// plan `optimize` prices is the plan `execute` runs.
#[test]
fn planned_layout_is_the_executed_layout_however_it_was_arrived_at() {
    use polystorepp::common::{DeviceKind, PartitionSpec, ShardId};
    use polystorepp::ir::NodeId;
    use std::collections::{BTreeMap, BTreeSet};

    let admissions = || TableRef::new("db1", "admissions");
    let patients = || TableRef::new("db2", "patients");
    let by_pid = || PartitionSpec::hash("pid", 4);
    let by_name = || PartitionSpec::hash("name", 4);
    let deployment = || {
        datagen::clinical(&ClinicalConfig {
            patients: 2_000,
            vitals_per_patient: 2,
            seed: 99,
        })
    };
    let accelerated = |builder: PolystoreBuilder| {
        builder
            .accelerators(AcceleratorFleet::workstation())
            .opt_level(OptLevel::L3)
    };

    let through_the_builder = accelerated(Polystore::from_deployment(deployment()))
        .shards(4)
        .partition(admissions(), by_pid())
        .partition(patients(), by_name())
        .build()
        .expect("valid config");
    let resharded_before_the_builder = {
        let mut deployment = deployment();
        deployment
            .registry
            .reshard(&admissions(), by_pid())
            .expect("reshards");
        deployment
            .registry
            .reshard(&patients(), by_name())
            .expect("reshards");
        accelerated(Polystore::from_deployment(deployment))
            .build()
            .expect("valid config")
    };
    let moved_after_build = {
        let mut system = accelerated(Polystore::from_deployment(deployment()))
            .build()
            .expect("valid config");
        system.reshard(&admissions(), by_pid()).expect("reshards");
        system
            .rebalance(&patients(), by_name())
            .expect("rebalances");
        system
    };

    // A gathered sort over a scattered scan, and polybench's
    // mismatched-key join (both sides shuffle), with the shuffle edges
    // each must plan.
    let queries = [
        ("SELECT pid, los FROM admissions ORDER BY los DESC, pid", 0),
        (
            "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
             WHERE age BETWEEN 40 AND 55",
            2,
        ),
    ];
    type Picks = BTreeMap<(NodeId, ShardId), DeviceKind>;
    for (query, shuffle_edges) in queries {
        let mut agreed = None;
        for (how, system) in [
            ("declared to the builder", &through_the_builder),
            (
                "resharded before the builder",
                &resharded_before_the_builder,
            ),
            ("moved after build", &moved_after_build),
        ] {
            let mut program = system.compile_sql(query).expect("compiles");
            let (rewrites, placement) = system.optimize(&mut program).expect("optimizes");
            let (report, _) = (system.run_optimized(&program, rewrites, placement)).expect("runs");
            let placement = report.placement.as_ref().expect("L3 places");
            let execution = &report.execution;

            // Each node's width is the plan the program carries.
            let plan = program.shard_plan().expect("planned");
            let planned_widths: BTreeMap<NodeId, usize> = (program.nodes().iter())
                .filter(|n| !n.annotations.fused_into_consumer)
                .map(|n| (n.id, plan.scatter_width(n.id)))
                .collect();
            let executed_widths: BTreeMap<NodeId, usize> = execution
                .traces
                .iter()
                .map(|t| (t.id, t.tasks.len()))
                .collect();
            assert_eq!(planned_widths, executed_widths, "{how}: {query}");
            assert!(
                planned_widths.values().any(|&w| w == 4),
                "{how}: the layout must scatter something 4 ways"
            );

            let planned_picks: Picks = placement
                .device_picks
                .iter()
                .map(|(&k, &d)| (k, d))
                .collect();
            let executed_picks: Picks = execution
                .device_assignments
                .iter()
                .map(|(&k, &d)| (k, d))
                .collect();
            assert_eq!(planned_picks, executed_picks, "{how}: {query}");

            assert_eq!(
                placement.exchanges.shuffles, shuffle_edges,
                "{how}: {query}"
            );
            let mut planned_kinds = BTreeSet::new();
            for (kind, edges) in [
                ("shuffle", placement.exchanges.shuffles),
                ("merge", placement.exchanges.merge_partials),
                ("materialized", placement.exchanges.materialized),
            ] {
                if edges > 0 {
                    planned_kinds.insert(kind);
                }
            }
            let executed_kinds: BTreeSet<&str> = execution
                .traces
                .iter()
                .flat_map(|t| t.exchanges.iter().map(|e| e.kind))
                .collect();
            assert_eq!(planned_kinds, executed_kinds, "{how}: {query}");

            let this = (
                planned_widths,
                planned_picks,
                placement.exchanges,
                placement.total_seconds.to_bits(),
                execution.makespan().to_bits(),
                execution.outputs[0].try_rows().expect("rows").to_vec(),
            );
            match &agreed {
                None => agreed = Some(this),
                Some(first) => assert!(*first == this, "{how} disagrees on {query}"),
            }
        }
    }
}
