//! Workspace-wide property-based tests on core invariants.

use polystorepp::accel::kernels::{Gemm, HashPartitioner, Matrix};
use polystorepp::accel::{AcceleratorFleet, CostLedger, DeviceProfile, LogCa};
use polystorepp::common::{DeviceKind, PartitionSpec, ShardId, SplitMix64};
use polystorepp::ir::{AggFn, AggSpec, Operator, Program, ShardPlan, SortSpec};
use polystorepp::migrate::csv;
use polystorepp::optimizer::dse::ParetoFront;
use polystorepp::optimizer::{CostModel, TableStats};
use polystorepp::prelude::*;
use polystorepp::relstore::ops;
use polystorepp::relstore::{JoinKind, RelationalStore, SortKey};
use polystorepp::runtime::{EngineInstance, EngineRegistry, Executor, Placer};
use proptest::prelude::*;

/// The predicate-tree generator lives with the relational store's scan
/// oracle, its other user.
#[path = "../crates/relstore/tests/predicate_gen/mod.rs"]
mod predicate_gen;
use predicate_gen::{arb_predicate_program, predicate_from};

/// A two-engine registry over integer-keyed tables `db1.left` /
/// `db2.right` (columns `k`, `v`), partitioned per the given specs, on
/// the workstation fleet — the fixture of the exchange properties
/// below. The registry is the whole layout: placement and execution
/// both read it.
fn exchange_registry(
    left: &[(i64, i64)],
    right: &[(i64, i64)],
    left_spec: Option<PartitionSpec>,
    right_spec: Option<PartitionSpec>,
) -> EngineRegistry {
    let schema = || Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = EngineRegistry::new();
    for (engine, table, rows) in [("db1", "left", left), ("db2", "right", right)] {
        let mut db = RelationalStore::new(engine);
        db.create_table(table, schema()).expect("valid schema");
        db.insert(table, rows.iter().map(|&(k, v)| row![k, v]).collect())
            .expect("rows match schema");
        r.register(EngineId::new(engine), EngineInstance::Relational(db))
            .expect("fresh engine id");
    }
    if let Some(spec) = left_spec {
        r.reshard(&TableRef::new("db1", "left"), spec)
            .expect("reshards");
    }
    if let Some(spec) = right_spec {
        r.reshard(&TableRef::new("db2", "right"), spec)
            .expect("reshards");
    }
    r.set_fleet(AcceleratorFleet::workstation());
    r
}

fn executor() -> Executor {
    Executor::new(CostLedger::new())
}

/// `program` carrying the distribution plan `Polystore::optimize_at`
/// makes over `registry` under `options` — the plan the executor runs.
fn planned(program: &Program, registry: &EngineRegistry, options: PlanOptions) -> Program {
    let mut program = program.clone();
    Placer::plan_distribution(&mut program, registry, options).expect("plans");
    program
}

/// Prices `program` against `registry`'s layout, the way
/// `Polystore::optimize_at` does: cardinalities, then the distribution
/// pass over the registry's specs under `options`, priced on the
/// registry's fleet.
fn place_on(
    model: &CostModel,
    program: &mut Program,
    registry: &EngineRegistry,
    options: PlanOptions,
) -> polystorepp::optimizer::PlacementPlan {
    model.estimate_cardinalities(program).expect("acyclic");
    Placer::plan_distribution(program, registry, options).expect("plans");
    model.place(program, registry.fleet()).expect("placement")
}

/// One of the mismatched layouts the shuffle property sweeps: hash or
/// range on the join key or the other column, at 1/2/4 shards.
fn arb_layout() -> impl Strategy<Value = Option<PartitionSpec>> {
    prop_oneof![
        Just(None),
        (0usize..2, 1u32..5)
            .prop_map(|(col, shards)| { Some(PartitionSpec::hash(["k", "v"][col], shards)) }),
        (0usize..2, -20i64..20, 0i64..20).prop_map(|(col, lo, span)| {
            Some(PartitionSpec::range(
                ["k", "v"][col],
                vec![Value::Int(lo), Value::Int(lo + span)],
            ))
        }),
    ]
}

/// A random heterogeneous fleet for the fusion property: any subset of
/// GPU/FPGA/TPU attached to the CPU host, the FPGA either a PCIe
/// coprocessor or bump-in-the-wire, with optional per-kind capacity
/// limits (the contended-device case).
fn arb_fleet() -> impl Strategy<Value = AcceleratorFleet> {
    use polystorepp::accel::fleet::AttachedDevice;
    use polystorepp::accel::{DeploymentMode, Interconnect};
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..3,
    )
        .prop_map(|(gpu, fpga, fpga_bitw, tpu, cap)| {
            let mut devices = Vec::new();
            if gpu {
                devices.push(AttachedDevice {
                    profile: DeviceProfile::gpu(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                });
            }
            if fpga {
                devices.push(AttachedDevice {
                    profile: DeviceProfile::fpga(),
                    mode: if fpga_bitw {
                        DeploymentMode::BumpInTheWire
                    } else {
                        DeploymentMode::Coprocessor
                    },
                    link: Interconnect::pcie(),
                });
            }
            if tpu {
                devices.push(AttachedDevice {
                    profile: DeviceProfile::tpu(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                });
            }
            let mut fleet = AcceleratorFleet::new(DeviceProfile::cpu(), devices).expect("cpu host");
            if cap > 0 {
                for kind in [DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Tpu] {
                    fleet = fleet.with_capacity(kind, cap);
                }
            }
            fleet
        })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        "[a-z ]{0,12}".prop_map(Value::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash join and sort-merge join agree on arbitrary key multisets.
    #[test]
    fn joins_agree(lk in prop::collection::vec(0i64..20, 0..40),
                   rk in prop::collection::vec(0i64..20, 0..40)) {
        let schema = Schema::new(vec![("k", DataType::Int)]);
        let left: Vec<Row> = lk.iter().map(|&k| row![k]).collect();
        let right: Vec<Row> = rk.iter().map(|&k| row![k]).collect();
        let (_, mut h) = ops::hash_join(&schema, &left, &schema, &right, "k", "k", JoinKind::Inner)
            .expect("hash join");
        let (_, mut m) = ops::sort_merge_join(&schema, left, &schema, right, "k", "k")
            .expect("merge join");
        h.sort();
        m.sort();
        prop_assert_eq!(h, m);
    }

    /// Sorting is idempotent and a permutation.
    #[test]
    fn sort_rows_permutation(keys in prop::collection::vec(any::<i64>(), 0..60)) {
        let schema = Schema::new(vec![("k", DataType::Int)]);
        let rows: Vec<Row> = keys.iter().map(|&k| row![k]).collect();
        let sorted = ops::sort_rows(&schema, rows.clone(), &[SortKey::asc("k")]).expect("sorts");
        let twice = ops::sort_rows(&schema, sorted.clone(), &[SortKey::asc("k")]).expect("sorts");
        prop_assert_eq!(&sorted, &twice);
        let mut a: Vec<i64> = rows.iter().map(|r| r[0].as_i64().expect("int")).collect();
        let b: Vec<i64> = sorted.iter().map(|r| r[0].as_i64().expect("int")).collect();
        a.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// CSV round-trips arbitrary typed rows (including NULLs, commas,
    /// quotes and line breaks in strings).
    #[test]
    fn csv_roundtrip(cells in prop::collection::vec((any::<i64>(), "[a-z,\"\r\n]{0,10}", any::<bool>()), 0..30)) {
        let schema = Schema::new(vec![
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("b", DataType::Bool),
        ]);
        let rows: Vec<Row> = cells
            .iter()
            .map(|(i, s, b)| row![*i, s.clone(), *b])
            .collect();
        let batch = Batch::from_rows(&schema, rows.clone()).expect("valid batch");
        let decoded = csv::decode(&schema, &csv::encode(&batch)).expect("decodes");
        prop_assert_eq!(decoded.to_rows(), rows);
    }

    /// GEMM distributes over addition: A(B+C) = AB + AC.
    #[test]
    fn gemm_distributive(seed in 0u64..500) {
        let mut rng = SplitMix64::new(seed);
        let dim = 6;
        let mk = |rng: &mut SplitMix64| {
            Matrix::from_vec(dim, dim, (0..dim * dim).map(|_| rng.next_range(-2.0, 2.0)).collect())
                .expect("square matrix")
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let c = mk(&mut rng);
        let mut b_plus_c = b.clone();
        for r in 0..dim {
            for k in 0..dim {
                let v = b_plus_c.get(r, k) + c.get(r, k);
                b_plus_c.set(r, k, v);
            }
        }
        let lhs = Gemm::multiply_host(&a, &b_plus_c).expect("gemm");
        let ab = Gemm::multiply_host(&a, &b).expect("gemm");
        let ac = Gemm::multiply_host(&a, &c).expect("gemm");
        for r in 0..dim {
            for k in 0..dim {
                prop_assert!((lhs.get(r, k) - (ab.get(r, k) + ac.get(r, k))).abs() < 1e-9);
            }
        }
    }

    /// LogCA speedup is monotone non-decreasing in granularity for β≥1.
    #[test]
    fn logca_monotone(o in 1e-7f64..1e-3, c in 1e-11f64..1e-8, a in 1.1f64..100.0) {
        let m = LogCa::new(8.3e-11, o, c, 1.0, a);
        let mut last = 0.0;
        for g in [1u64 << 6, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26] {
            let s = m.speedup(g);
            prop_assert!(s >= last - 1e-12);
            last = s;
        }
        prop_assert!(last <= m.asymptotic_speedup() * 1.001);
    }

    /// Hash partitioning is a deterministic partition of the input.
    #[test]
    fn partition_is_partition(keys in prop::collection::vec(any::<u64>(), 0..200),
                              parts in 1usize..16) {
        let cpu = DeviceProfile::cpu();
        let (out, _) = HashPartitioner::run(&cpu, keys.clone(), parts, |k| *k, None, "prop");
        prop_assert_eq!(out.len(), parts);
        let mut flat: Vec<u64> = out.into_iter().flatten().collect();
        let mut orig = keys;
        flat.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(flat, orig);
    }

    /// The Pareto front never contains a dominated pair.
    #[test]
    fn pareto_front_invariant(points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..60)) {
        let mut front = ParetoFront::new();
        for (i, (x, y)) in points.iter().enumerate() {
            front.insert(vec![i], vec![*x, *y]);
        }
        for (_, a) in front.entries() {
            for (_, b) in front.entries() {
                prop_assert!(!(ParetoFront::dominates(a, b)), "{a:?} dominates {b:?}");
            }
        }
    }

    /// Value casts to Str and back preserve numeric payloads.
    #[test]
    fn value_str_cast_roundtrip(v in any::<i64>()) {
        let original = Value::Int(v);
        let text = original.cast(DataType::Str).expect("casts to str");
        let back = text.cast(DataType::Int).expect("casts back");
        prop_assert_eq!(back, original);
    }

    /// A join on `k` over arbitrary (possibly mismatched) hash/range
    /// layouts: the shuffle-exchange plan must reproduce the gathered
    /// plan's bytes exactly — the barrier splices per-destination
    /// outputs back into the gathered probe order.
    #[test]
    fn shuffled_joins_match_gathered_byte_for_byte(
        lk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        rk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        left_spec in arb_layout(),
        right_spec in arb_layout(),
    ) {
        let registry = exchange_registry(&lk, &rk, left_spec, right_spec);
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "right")), "sql");
        let j = p.add_node(
            Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        let exchanged = executor()
            .execute(&planned(&p, &registry, PlanOptions::default()), &registry)
            .expect("exchange run");
        let no_exchange = PlanOptions {
            exchange: false,
            ..PlanOptions::default()
        };
        let gathered = executor()
            .execute(&planned(&p, &registry, no_exchange), &registry)
            .expect("gathered run");
        prop_assert_eq!(
            format!("{:?}", exchanged.outputs),
            format!("{:?}", gathered.outputs)
        );
    }

    /// Incremental `rebalance` lands byte-for-byte where a fresh full
    /// `reshard` of the gathered rows would, across arbitrary starting
    /// layouts (including never-partitioned) and random sequences of
    /// hash/range targets — the online-grow path never invents a
    /// layout of its own.
    #[test]
    fn rebalance_matches_reshard_byte_for_byte(
        rows in prop::collection::vec((0i64..32, -50i64..50), 0..80),
        start in arb_layout(),
        targets in prop::collection::vec(
            arb_layout().prop_map(|s| s.unwrap_or_else(|| PartitionSpec::hash("k", 2))),
            1..4,
        ),
    ) {
        let t = TableRef::new("db1", "left");
        let engine = EngineId::new("db1");
        let mut live = exchange_registry(&rows, &[], start, None);
        for spec in targets {
            // Reference: gather the live layout in shard order into a
            // fresh registry and full-reshard it to the same target.
            let width = live.partition(&t).map_or(1, PartitionSpec::shard_count);
            let gathered: Vec<_> = (0..width)
                .flat_map(|s| {
                    live.relational_shard(&engine, ShardId(s as u32))
                        .expect("shard exists")
                        .table("left")
                        .expect("table exists")
                        .rows()
                        .to_vec()
                })
                .collect();
            let mut reference = exchange_registry(&[], &[], None, None);
            reference
                .relational_mut(&engine)
                .expect("engine exists")
                .insert("left", gathered)
                .expect("rows match schema");
            reference.reshard(&t, spec.clone()).expect("reshards");

            let report = live.rebalance(&t, spec.clone()).expect("rebalances");
            prop_assert_eq!(report.total_rows, rows.len());
            prop_assert_eq!(report.moved_rows + report.retained_rows, report.total_rows);
            prop_assert!(report.incremental, "hash/range layouts always diff");
            for s in 0..spec.shard_count() {
                prop_assert_eq!(
                    live.relational_shard(&engine, ShardId(s as u32))
                        .expect("live shard")
                        .table("left")
                        .expect("table exists")
                        .rows(),
                    reference
                        .relational_shard(&engine, ShardId(s as u32))
                        .expect("reference shard")
                        .table("left")
                        .expect("table exists")
                        .rows()
                );
            }
        }
    }

    /// Materialized repartitions are invisible in bytes: with the
    /// store enabled the first run persists any shuffled layouts and
    /// the second serves them, and both agree byte-for-byte with the
    /// plain executor over arbitrary mismatched layouts.
    #[test]
    fn materialized_repartitions_never_change_bytes(
        lk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        rk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        left_spec in arb_layout(),
        right_spec in arb_layout(),
    ) {
        let registry = exchange_registry(&lk, &rk, left_spec, right_spec);
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "right")), "sql");
        let j = p.add_node(
            Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        let materialize = PlanOptions {
            materialize: true,
            ..PlanOptions::default()
        };
        // Each run is planned after the one before it, so the second
        // plan sees what the first persisted.
        let exec = executor();
        let first = exec
            .execute(&planned(&p, &registry, materialize), &registry)
            .expect("first materialized run");
        let second = exec
            .execute(&planned(&p, &registry, materialize), &registry)
            .expect("second materialized run");
        let plain = executor()
            .execute(&planned(&p, &registry, PlanOptions::default()), &registry)
            .expect("plain run");
        prop_assert_eq!(
            format!("{:?}", first.outputs),
            format!("{:?}", plain.outputs)
        );
        prop_assert_eq!(
            format!("{:?}", second.outputs),
            format!("{:?}", plain.outputs)
        );
    }

    /// `GroupBy` over arbitrary layouts — partition-wise when grouped
    /// on the partition key, partial + merge otherwise — must match the
    /// single-shard (gathered) aggregation byte-for-byte on integer
    /// columns, where partial sums are exact.
    #[test]
    fn split_group_by_matches_single_shard(
        rows in prop::collection::vec((0i64..8, -100i64..100), 0..80),
        spec in arb_layout(),
    ) {
        let registry = exchange_registry(&rows, &[], spec, None);
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
        let agg = |func, output: &str| AggSpec { func, column: "k".into(), output: output.into() };
        let g = p.add_node(
            Operator::GroupBy {
                keys: vec!["v".into()],
                aggs: vec![
                    AggSpec { func: AggFn::Count, column: "*".into(), output: "n".into() },
                    agg(AggFn::Sum, "sum"),
                    agg(AggFn::Avg, "avg"),
                    agg(AggFn::Min, "min"),
                    agg(AggFn::Max, "max"),
                ],
            },
            vec![s],
            "sql",
        );
        p.mark_output(g);
        let split = executor()
            .execute(&planned(&p, &registry, PlanOptions::default()), &registry)
            .expect("exchange run");
        // `PlanOptions::gathered()` is the fully gathered plan — a true
        // single-site aggregation (`exchange: false` alone would keep a
        // partition-wise grouping when the layout matches the key).
        let single = executor()
            .execute(&planned(&p, &registry, PlanOptions::gathered()), &registry)
            .expect("gathered run");
        prop_assert_eq!(
            format!("{:?}", split.outputs),
            format!("{:?}", single.outputs)
        );
        // And the group multiset matches a fully unsharded deployment
        // (gather order may differ between layouts; values must not).
        let flat_registry = exchange_registry(&rows, &[], None, None);
        let flat = executor()
            .execute(&planned(&p, &flat_registry, PlanOptions::default()), &flat_registry)
            .expect("flat run");
        let canon = |r: &polystorepp::runtime::Dataset| {
            let mut rows: Vec<String> =
                r.try_rows().expect("rows").iter().map(|x| format!("{x:?}")).collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(canon(&split.outputs[0]), canon(&flat.outputs[0]));
    }

    /// Accelerator offload is a *cost* decision, not a data-plane one:
    /// kernels compute on the host regardless of the planned device,
    /// so toggling `offload` must never change a byte of output —
    /// across arbitrary hash/range layouts at 1–4 shards, with the
    /// placement pass forcing real (non-CPU) device picks into the
    /// annotations the executor consumes.
    #[test]
    fn offload_toggle_never_changes_bytes(
        lk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        rk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        left_spec in arb_layout(),
        right_spec in arb_layout(),
    ) {
        let registry = exchange_registry(&lk, &rk, left_spec, right_spec);
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "right")), "sql");
        let j = p.add_node(
            Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
            vec![a, b],
            "sql",
        );
        let s = p.add_node(
            Operator::Sort { keys: vec![SortSpec { column: "v".into(), ascending: true }] },
            vec![j],
            "sql",
        );
        p.mark_output(s);
        // Placement over inflated statistics (the executor itself only
        // consumes annotations, never row counts) so the sort lands on
        // an accelerator and the per-slot picks are exercised.
        let mut stats = std::collections::HashMap::new();
        for t in [TableRef::new("db1", "left"), TableRef::new("db2", "right")] {
            stats.insert(t, TableStats { rows: 500_000.0, row_bytes: 64.0 });
        }
        place_on(&CostModel::new(stats), &mut p, &registry, PlanOptions::default());
        prop_assert!(
            p.nodes().iter().any(|n| n.annotations.device.is_some_and(|d| d != DeviceKind::Cpu)),
            "inflated stats must offload something for the property to bite"
        );
        let on = executor().execute(&p, &registry).expect("offload run");
        let off = executor().level(OptLevel::L1).execute(&p, &registry).expect("host run");
        prop_assert_eq!(format!("{:?}", on.outputs), format!("{:?}", off.outputs));
    }

    /// Kernel fusion and contended-device queueing are cost-only:
    /// fusion-on, fusion-off and offload-off runs must produce
    /// byte-identical outputs across arbitrary hash/range layouts at
    /// 1–4 shards, random heterogeneous device fleets, and declared
    /// (contended) capacities — and every chain the fused plan promises
    /// must execute with exactly its planned membership.
    #[test]
    fn fusion_toggle_never_changes_bytes(
        lk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        rk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        left_spec in arb_layout(),
        right_spec in arb_layout(),
        fleet in arb_fleet(),
    ) {
        let mut registry = exchange_registry(&lk, &rk, left_spec, right_spec);
        registry.set_fleet(fleet);
        let program = || {
            let mut p = Program::new();
            let a = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
            let b = p.add_source(Operator::scan(TableRef::new("db2", "right")), "sql");
            let j = p.add_node(
                Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
                vec![a, b],
                "sql",
            );
            let s1 = p.add_node(
                Operator::Sort { keys: vec![SortSpec { column: "v".into(), ascending: true }] },
                vec![j],
                "sql",
            );
            let s2 = p.add_node(
                Operator::Sort { keys: vec![SortSpec { column: "k".into(), ascending: true }] },
                vec![s1],
                "sql",
            );
            p.mark_output(s2);
            p
        };
        // Inflated statistics so the back-to-back sorts offload (and
        // fuse, where the fleet allows a device-resident chain); the
        // executor itself only consumes annotations.
        let mut stats = std::collections::HashMap::new();
        for t in [TableRef::new("db1", "left"), TableRef::new("db2", "right")] {
            stats.insert(t, TableStats { rows: 500_000.0, row_bytes: 64.0 });
        }
        let model = CostModel::new(stats);
        let fusion = |fusion: bool| PlanOptions {
            fusion,
            ..PlanOptions::default()
        };
        let mut fused = program();
        let plan = place_on(&model, &mut fused, &registry, fusion(true));
        let mut unfused = program();
        place_on(&model, &mut unfused, &registry, fusion(false));
        let on = executor().execute(&fused, &registry).expect("fused run");
        let off = executor().execute(&unfused, &registry).expect("unfused run");
        let host = executor().level(OptLevel::L1).execute(&fused, &registry).expect("host run");
        prop_assert_eq!(format!("{:?}", on.outputs), format!("{:?}", off.outputs));
        prop_assert_eq!(format!("{:?}", on.outputs), format!("{:?}", host.outputs));
        // Planned chains execute exactly as planned: no silent fission.
        let planned: Vec<_> = plan
            .fused_chains
            .iter()
            .map(|c| (c.shard, c.device, c.nodes.clone()))
            .collect();
        let executed: Vec<_> = on
            .fused_chains
            .iter()
            .map(|c| (c.shard, c.device, c.nodes.clone()))
            .collect();
        prop_assert_eq!(planned, executed);
    }

    /// Observability is read-only: attaching a metrics registry and
    /// consuming every tracing artifact (span tree, text render, JSON
    /// dump, Prometheus export) must not change a byte of output or a
    /// bit of the simulated clock — across random shard widths (1–4)
    /// with the exchange and offload passes toggled independently. The
    /// root span's duration must equal the reported makespan exactly
    /// and the critical path must be marked.
    #[test]
    fn tracing_never_changes_execution(
        lk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        rk in prop::collection::vec((0i64..16, -50i64..50), 0..60),
        shards in 1u32..5,
        exchange in any::<bool>(),
        offload in any::<bool>(),
    ) {
        // Mismatched layouts (left on the join key, right off it) so
        // the exchange toggle actually changes the plan at width > 1.
        let registry = exchange_registry(
            &lk,
            &rk,
            Some(PartitionSpec::hash("k", shards)),
            Some(PartitionSpec::hash("v", shards)),
        );
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "left")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "right")), "sql");
        let j = p.add_node(
            Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        let options = PlanOptions {
            exchange,
            ..PlanOptions::default()
        };
        let level = if offload { OptLevel::L2 } else { OptLevel::L1 };
        let p = planned(&p, &registry, options);
        let plain = executor()
            .level(level)
            .execute(&p, &registry)
            .expect("plain run");
        let metrics = polystorepp::telemetry::MetricsRegistry::new();
        let traced = executor()
            .level(level)
            .with_metrics(metrics.clone())
            .execute(&p, &registry)
            .expect("traced run");
        let tree = polystorepp::telemetry::SpanTree::build("prop", &traced.traces, traced.makespan());
        let _ = tree.render_text();
        let _ = tree.to_json().render();
        let _ = metrics.snapshot().to_prometheus();
        prop_assert_eq!(
            format!("{:?}", traced.outputs),
            format!("{:?}", plain.outputs)
        );
        prop_assert_eq!(traced.makespan().to_bits(), plain.makespan().to_bits());
        prop_assert_eq!(tree.root.duration.to_bits(), traced.makespan().to_bits());
        prop_assert!(tree.root.critical);
        prop_assert!(!tree.critical_path().is_empty());
    }

    /// Predicate evaluation never errors on schema-valid rows.
    #[test]
    fn predicate_total_on_valid_rows(v in arb_value(), threshold in any::<i64>()) {
        let schema = Schema::new(vec![("x", DataType::Int)]);
        let row = Row::from(vec![v.cast(DataType::Int).unwrap_or(Value::Null)]);
        for p in [
            Predicate::eq("x", threshold),
            Predicate::lt("x", threshold),
            Predicate::IsNull("x".into()),
            Predicate::ge("x", threshold).not(),
        ] {
            prop_assert!(p.eval(&schema, &row).is_ok());
        }
    }
}

/// Small values that collide often and mix types within a column: NULL,
/// ints, halves (so `Int(1) == Float(1.0)` comes up) and short strings.
fn arb_small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..3).prop_map(Value::Int),
        (-4i64..5).prop_map(|h| Value::Float(h as f64 / 2.0)),
        "[ab]{0,1}".prop_map(Value::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A bound predicate is `Predicate::eval` with the name lookups
    /// hoisted: same answer on every row, and the same
    /// `ColumnNotFound` exactly when a row reaches a leaf naming an
    /// unknown column (a short-circuited branch never does).
    #[test]
    fn bound_predicate_agrees_with_eval(
        program in arb_predicate_program(1..10, arb_small_value),
        rows in prop::collection::vec(
            (arb_small_value(), arb_small_value(), arb_small_value()),
            1..6,
        ),
    ) {
        let schema = Schema::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ]);
        let predicate = predicate_from(&["a", "b", "c", "zzz"], program);
        let bound = predicate.bind(&schema);
        for (a, b, c) in rows {
            let row = Row::from(vec![a, b, c]);
            prop_assert_eq!(bound.eval(&row), predicate.eval(&schema, &row));
        }
    }
}

/// How the two tables of [`two_table_system`] are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// One shard each.
    Single,
    /// Two shards each, both hashed on the join key: the join runs per
    /// shard.
    Colocated,
    /// Two shards each, `l` hashed on `k` and `r` on `c`: the join
    /// shuffles.
    Shuffled,
    /// [`Layout::Shuffled`] with `materialize` on: repeated runs persist
    /// the routed layout and then serve it.
    CopyServed,
}

/// `db1.l(k, a, b)` and `db2.r(k, c, b)`, unindexed, built at `level`
/// over `layout`. Joined on `k` the output is `k, a, b, k_r, c, b_r`.
fn two_table_system(
    left: &[[Option<i64>; 3]],
    right: &[[Option<i64>; 3]],
    level: OptLevel,
    layout: Layout,
) -> Polystore {
    let mut registry = EngineRegistry::new();
    let mut catalog = Catalog::new();
    for (engine, table, third, rows) in [("db1", "l", "a", left), ("db2", "r", "c", right)] {
        let schema = Schema::new(vec![
            ("k", DataType::Int),
            (third, DataType::Int),
            ("b", DataType::Int),
        ]);
        let mut db = RelationalStore::new(engine);
        db.create_table(table, schema.clone()).expect("fresh store");
        let cell = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        db.insert(
            table,
            rows.iter()
                .map(|r| Row::from(r.map(cell).to_vec()))
                .collect(),
        )
        .expect("rows match schema");
        registry
            .register(EngineId::new(engine), EngineInstance::Relational(db))
            .expect("fresh engine id");
        catalog.register(TableRef::new(engine, table), schema);
    }
    let mut builder = Polystore::from_deployment(Deployment {
        registry,
        catalog,
        stats: std::collections::HashMap::new(),
        clinical_names: Default::default(),
    })
    .opt_level(level);
    if layout != Layout::Single {
        let right_key = if layout == Layout::Colocated {
            "k"
        } else {
            "c"
        };
        builder = builder
            .shards(2)
            .partition(TableRef::new("db1", "l"), PartitionSpec::hash("k", 2))
            .partition(TableRef::new("db2", "r"), PartitionSpec::hash(right_key, 2))
            .plan_options(PlanOptions {
                materialize: layout == Layout::CopyServed,
                ..PlanOptions::default()
            });
    }
    builder.build().expect("valid config")
}

/// What sits between the filtered join and the program's output.
#[derive(Debug, Clone)]
enum Top {
    /// Nothing: the filter's rows are the result.
    Rows,
    /// `SELECT columns`.
    Project(Vec<&'static str>),
    /// `SELECT key, count(*), sum(of) .. GROUP BY key`.
    GroupBy(&'static str, &'static str),
    /// `ORDER BY column [DESC] LIMIT n`.
    SortLimit(&'static str, bool, usize),
}

/// The joined columns, and one nobody has.
const JOINED: [&str; 7] = ["k", "a", "b", "k_r", "c", "b_r", "zzz"];

fn arb_top() -> impl Strategy<Value = Top> {
    let column = || (0usize..JOINED.len()).prop_map(|c| JOINED[c]);
    prop_oneof![
        Just(Top::Rows),
        // The hazards by name: the key alone, right columns alone, an
        // `x_r` whose left twin is not kept, every column, a repeat.
        Just(Top::Project(vec!["k"])),
        Just(Top::Project(vec!["c"])),
        Just(Top::Project(vec!["k_r"])),
        Just(Top::Project(vec!["b_r", "a"])),
        Just(Top::Project(JOINED[..6].to_vec())),
        Just(Top::Project(vec!["a", "a"])),
        prop::collection::vec(column(), 1..5).prop_map(Top::Project),
        prop::collection::vec(column(), 1..5).prop_map(Top::Project),
        (column(), column()).prop_map(|(key, of)| Top::GroupBy(key, of)),
        (column(), any::<bool>(), 0usize..6).prop_map(|(c, asc, n)| Top::SortLimit(c, asc, n)),
    ]
}

fn arb_join_layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Single),
        Just(Layout::Colocated),
        Just(Layout::Shuffled),
        Just(Layout::CopyServed),
    ]
}

/// `l JOIN r ON k = k WHERE predicate`, as the SQL frontend lowers it,
/// with `top` above the filter.
fn filtered_join_program(predicate: Predicate, top: &Top) -> Program {
    let mut p = Program::new();
    let l = p.add_source(Operator::scan(TableRef::new("db1", "l")), "sql");
    let r = p.add_source(Operator::scan(TableRef::new("db2", "r")), "sql");
    let join = p.add_node(
        Operator::HashJoin {
            left_on: "k".into(),
            right_on: "k".into(),
        },
        vec![l, r],
        "sql",
    );
    let mut out = p.add_node(Operator::Filter { predicate }, vec![join], "sql");
    match top {
        Top::Rows => {}
        Top::Project(columns) => {
            let columns = columns.iter().map(|c| c.to_string()).collect();
            out = p.add_node(Operator::Project { columns }, vec![out], "sql");
        }
        Top::GroupBy(key, of) => {
            let agg = |func, column: &str, output: &str| AggSpec {
                func,
                column: column.into(),
                output: output.into(),
            };
            let op = Operator::GroupBy {
                keys: vec![key.to_string()],
                aggs: vec![agg(AggFn::Count, "*", "n"), agg(AggFn::Sum, of, "s")],
            };
            out = p.add_node(op, vec![out], "sql");
        }
        Top::SortLimit(column, ascending, n) => {
            let keys = vec![SortSpec {
                column: column.to_string(),
                ascending: *ascending,
            }];
            out = p.add_node(Operator::Sort { keys }, vec![out], "sql");
            out = p.add_node(Operator::Limit { n: *n }, vec![out], "sql");
        }
    }
    p.mark_output(out);
    p
}

/// A nullable small int: join keys collide often, a quarter are NULL.
fn arb_cell() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        Just(None),
        (-1i64..2).prop_map(Some),
        (-1i64..2).prop_map(Some),
        (-1i64..2).prop_map(Some),
    ]
}

/// A literal that table cells often equal: mostly the cells' own
/// domain, now and then NULL.
fn arb_cell_literal() -> impl Strategy<Value = Value> {
    arb_cell().prop_map(|v| v.map_or(Value::Null, Value::Int))
}

fn arb_table() -> impl Strategy<Value = Vec<[Option<i64>; 3]>> {
    prop::collection::vec(
        (arb_cell(), arb_cell(), arb_cell()).prop_map(|(k, x, b)| [k, x, b]),
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Predicate::selectivity` keeps to its documented range however
    /// the tree is built — `NOT TRUE` and an empty `IN` included — so
    /// no byte estimate downstream of a filter is ever zeroed.
    #[test]
    fn selectivity_is_finite_and_in_unit_range(
        program in arb_predicate_program(1..24, arb_small_value),
    ) {
        let predicate = predicate_from(&["a", "b"], program);
        for p in [predicate.clone(), predicate.not(), Predicate::True.not()] {
            let s = p.selectivity();
            prop_assert!(s.is_finite() && s > 0.0 && s <= 1.0, "{s} for {p:?}");
        }
    }

    /// Pushing a filter's conjuncts below the join, shipping and
    /// building only the columns somebody above it reads (L1) and then
    /// choosing the join site by the bytes to ship (L3) never shows in
    /// the result: the same rows in the same order under the same
    /// schema as the literal plan, or the same error — over NULL keys,
    /// either side's columns, the join's `_r` names, cross-side `OR`s
    /// and a column nobody has; under a projection (the key alone,
    /// right columns alone, an `x_r` whose left twin stays behind, every
    /// column, a repeat), a group-by or a sort and limit; on one shard,
    /// on two colocated, shuffled, and served from a materialized copy.
    #[test]
    fn pushed_join_filters_match_the_literal_plan(
        left in arb_table(),
        right in arb_table(),
        program in arb_predicate_program(1..6, arb_cell_literal),
        top in arb_top(),
        layout in arb_join_layout(),
        unfiltered in any::<bool>(),
    ) {
        let columns = ["a", "c", "k", "k_r", "b", "b_r", "a", "c", "zzz"];
        // A drawn filter keeps few rows; every other case keeps them all,
        // so what sits above the join has rows to get wrong.
        let predicate = if unfiltered {
            Predicate::True
        } else {
            predicate_from(&columns, program)
        };
        let answer = |system: &Polystore| {
            system
                .run_program(filtered_join_program(predicate.clone(), &top))
                .map(|report| {
                    let out = &report.execution.outputs[0];
                    let schema = out.schema().expect("rows").clone();
                    (schema, out.try_rows().expect("rows").to_vec())
                })
        };
        let literal = answer(&two_table_system(&left, &right, OptLevel::None, layout));
        for level in [OptLevel::L1, OptLevel::L3] {
            let system = two_table_system(&left, &right, level, layout);
            // A copy-served shuffle persists its layout on a later run
            // and serves it on the next: all of them answer alike.
            let runs = if layout == Layout::CopyServed { 3 } else { 1 };
            for run in 0..runs {
                prop_assert!(
                    answer(&system) == literal,
                    "{level} run {run} diverged on {predicate:?} under {top:?} over {layout:?}"
                );
            }
        }
    }

    /// The join site never costs more migration than running the join
    /// at its first input would on the same estimates, and a tie stays
    /// at the first input.
    #[test]
    fn join_site_never_prices_more_migration_than_first_input_gravity(
        left_rows in 1.0f64..1e6,
        right_rows in 1.0f64..1e6,
        left_width in 8.0f64..256.0,
        right_width in 8.0f64..256.0,
        program in arb_predicate_program(1..6, arb_small_value),
        tie in any::<bool>(),
    ) {
        let (l, r) = (TableRef::new("db1", "l"), TableRef::new("db2", "r"));
        let left_stats = TableStats { rows: left_rows, row_bytes: left_width };
        let right_stats = if tie {
            left_stats
        } else {
            TableStats { rows: right_rows, row_bytes: right_width }
        };
        let model = CostModel::new([(l.clone(), left_stats), (r.clone(), right_stats)].into());
        let scan = |table: &TableRef, predicate| Operator::Scan {
            table: table.clone(),
            predicate,
            projection: None,
        };
        // The filter sits on the left scan only, unless the sides tie.
        let filter = if tie { Predicate::True } else { predicate_from(&["a"], program) };
        let mut p = Program::new();
        let a = p.add_source(scan(&l, filter), "sql");
        let b = p.add_source(scan(&r, Predicate::True), "sql");
        let join = p.add_node(
            Operator::HashJoin { left_on: "k".into(), right_on: "k".into() },
            vec![a, b],
            "sql",
        );
        p.mark_output(join);
        // An unsharded, CPU-only layout.
        model.estimate_cardinalities(&mut p).expect("acyclic");
        p.set_shard_plan(ShardPlan::plan(&p, |_| None, PlanOptions::default()).expect("acyclic"));
        let plan = model.place(&mut p, &AcceleratorFleet::cpu_only()).expect("acyclic");
        let bytes = |id| p.node(id).annotations.est_bytes.expect("estimated");
        let bill = |bytes| {
            model
                .migration_cost(bytes, DataModel::Relational, DataModel::Relational)
                .as_secs()
        };
        prop_assert!(plan.migration_seconds <= bill(bytes(b)));
        prop_assert_eq!(plan.migration_seconds, bill(bytes(a).min(bytes(b))));
        if tie {
            prop_assert_eq!(&p.node(join).annotations.engine, &Some(EngineId::new("db1")));
        }
    }
}

/// The Fig. 2 program joins a relational scan to connector outputs
/// (text search, timeseries windows): no join has two relational
/// sides, so every transform still sits where its first input is.
#[test]
fn fig2_engine_annotations_keep_first_input_gravity() {
    let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 60,
        vitals_per_patient: 4,
        seed: 3,
    }))
    .accelerators(AcceleratorFleet::workstation())
    .opt_level(OptLevel::L3)
    .build()
    .expect("valid config");
    let mut program = system
        .compile_nlq("Will patients have a long stay at the hospital or short?")
        .expect("the Fig. 2 template");
    let (_, placement) = system.optimize(&mut program).expect("plans");
    let engine_of = |id: polystorepp::ir::NodeId| {
        let mut id = id;
        while program.node(id).annotations.fused_into_consumer {
            id = program.node(id).inputs[0];
        }
        program.node(id).annotations.engine.clone()
    };
    let mut joins = 0;
    for node in program.nodes() {
        if node.annotations.fused_into_consumer {
            continue;
        }
        if let Some(&first) = node.inputs.first() {
            assert_eq!(node.annotations.engine, engine_of(first), "{}", node.id);
        }
        joins += usize::from(node.op.name() == "hash_join");
    }
    assert_eq!(joins, 2, "P ⋈ N ⋈ S");
    // Both joins cross engines; both stay on the relational side.
    let sites = &placement.expect("L3 places").join_sites;
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().all(|s| s.site == EngineId::new("db1")));
}

/// One operator of every kind the price list maps.
fn every_operator() -> Vec<Operator> {
    let table = || TableRef::new("db1", "t");
    vec![
        Operator::scan(table()),
        Operator::Filter {
            predicate: Predicate::True,
        },
        Operator::Project {
            columns: vec!["a".into()],
        },
        Operator::Sort { keys: vec![] },
        Operator::HashJoin {
            left_on: "k".into(),
            right_on: "k".into(),
        },
        Operator::SortMergeJoin {
            left_on: "k".into(),
            right_on: "k".into(),
        },
        Operator::GroupBy {
            keys: vec!["k".into()],
            aggs: vec![],
        },
        Operator::Limit { n: 10 },
        Operator::TsRange {
            table: table(),
            lo: 0,
            hi: 10,
        },
        Operator::TsWindow {
            table: table(),
            lo: 0,
            hi: 10,
            width: 2,
            agg: polystorepp::ir::TsAgg::Mean,
        },
        Operator::GraphMatch {
            table: table(),
            start_label: "n".into(),
            steps: vec![],
        },
        Operator::TextSearch {
            table: table(),
            terms: vec!["x".into()],
            mode: polystorepp::ir::TextSearchMode::Any,
        },
        Operator::TrainMlp {
            label_column: "y".into(),
            hidden: vec![16, 8],
            epochs: 3,
            batch_size: 32,
            learning_rate: 0.1,
        },
        Operator::Predict,
        Operator::KMeansCluster {
            k: 4,
            max_iters: 10,
        },
    ]
}

/// The frontend whose texts emit `op`. No `_` arm: a new operator has to
/// name the language that reaches it, and
/// `every_operator_is_emitted_by_its_frontend` then has to compile a
/// text of that language that emits it.
fn frontend_of(op: &Operator) -> &'static str {
    match op {
        Operator::Scan { .. }
        | Operator::Filter { .. }
        | Operator::Project { .. }
        | Operator::Sort { .. }
        | Operator::HashJoin { .. }
        | Operator::GroupBy { .. }
        | Operator::Limit { .. } => "sql",
        Operator::GraphMatch { .. } => "cypher",
        Operator::TsRange { .. } | Operator::TsWindow { .. } => "tsdsl",
        Operator::TextSearch { .. } | Operator::SortMergeJoin { .. } => "hetero",
        Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. } => "mldsl",
    }
}

/// Every operator of [`every_operator`] is emitted from a text by the
/// frontend [`frontend_of`] names, and the frontends — SQL, Cypher, NLQ,
/// heterogeneous programs, the ML and timeseries DSLs — emit no other:
/// the IR holds no operator a query cannot reach.
#[test]
fn every_operator_is_emitted_by_its_frontend() {
    use polystorepp::frontend::{cypher, nlq, sql};
    use std::collections::{BTreeMap, BTreeSet};
    let d = datagen::clinical(&ClinicalConfig {
        patients: 8,
        vitals_per_patient: 2,
        seed: 1,
    });
    let (catalog, names) = (&d.catalog, &d.clinical_names);
    // Subprograms as (name, language, text, inputs), wired in order.
    let hetero = |subprograms: &[(&str, Language, &str, &[&str])]| {
        let mut program = HeterogeneousProgram::builder();
        for (name, language, text, inputs) in subprograms {
            program = program.subprogram(*name, language.clone(), *text, inputs);
        }
        program.build(catalog)
    };
    let features = (
        "x",
        Language::Sql,
        "SELECT age, los FROM admissions",
        &[][..],
    );
    let labelled = "SELECT age, los, long_stay FROM admissions";
    let train = "TRAIN MLP HIDDEN 4 EPOCHS 1 BATCH 8 LR 0.1 LABEL long_stay";
    let search = Language::TextSearch {
        dataset: "notes".into(),
    };
    let joined = "SELECT name FROM admissions JOIN db2.patients \
                  ON admissions.pid = patients.pid WHERE age >= 65 ORDER BY name LIMIT 5";
    let grouped = "SELECT gender, count(*) AS n FROM patients GROUP BY gender";
    let paths = "MATCH (p:Patient)-[:HAS_ADMISSION]->(a:Admission) RETURN PATHS LIMIT 3";
    let stay = "Will patients have a long stay at the hospital?";
    let programs = [
        ("sql", sql::parse_to_program(joined, catalog)),
        ("sql", sql::parse_to_program(grouped, catalog)),
        (
            "cypher",
            cypher::parse_to_program(paths, "clinical", catalog),
        ),
        (
            "tsdsl",
            hetero(&[
                ("r", Language::TsDsl, "RANGE vitals FROM 0 TO 500", &[]),
                (
                    "w",
                    Language::TsDsl,
                    "WINDOW vitals FROM 0 TO 500 WIDTH 100 AGG max",
                    &[],
                ),
            ]),
        ),
        (
            "hetero",
            hetero(&[
                ("p", Language::Sql, "SELECT pid, age FROM admissions", &[]),
                ("n", search, "SEARCH sepsis MODE any", &[]),
                (
                    "pn",
                    Language::Connector,
                    "MERGEJOIN pid = doc_id",
                    &["p", "n"],
                ),
            ]),
        ),
        (
            "mldsl",
            hetero(&[
                features.clone(),
                ("k", Language::MlDsl, "KMEANS K 3 ITERS 4", &["x"]),
            ]),
        ),
        (
            "mldsl",
            hetero(&[
                ("xy", Language::Sql, labelled, &[]),
                ("model", Language::MlDsl, train, &["xy"]),
                features,
                ("scores", Language::MlDsl, "PREDICT", &["x", "model"]),
            ]),
        ),
        ("nlq", nlq::compile(stay, catalog, names)),
        (
            "nlq",
            nlq::compile("average age by gender in patients", catalog, names),
        ),
    ];
    let mut emitted: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (frontend, program) in programs {
        let program = program.unwrap_or_else(|e| panic!("{frontend}: {e}"));
        let ops = program.nodes().iter().map(|node| node.op.name());
        emitted.entry(frontend).or_default().extend(ops);
    }
    for op in every_operator() {
        let frontend = frontend_of(&op);
        let reached = emitted.get(frontend);
        assert!(
            reached.is_some_and(|ops| ops.contains(op.name())),
            "no {frontend} text emits {}",
            op.name()
        );
    }
    let every: BTreeSet<&str> = every_operator().iter().map(Operator::name).collect();
    let reached: BTreeSet<&str> = emitted.into_values().flatten().collect();
    assert_eq!(reached, every);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The price list's stated invariants, over every operator kind ×
    /// every device kind of a fleet with accelerators and one without:
    /// every price finite and non-negative and non-decreasing in rows
    /// and in bytes; a device-resident input never bills more than the
    /// attachment link; a (device, operator) pair the planner skips is
    /// billed on execution at exactly the host's own price; a shuffle
    /// barrier is the data plane's bill plus one task overhead per
    /// destination.
    #[test]
    fn price_list_is_finite_monotone_and_falls_back_to_the_host(
        rows in (0u64..2_000_000, 0u64..2_000_000),
        bytes in (0u64..(1 << 28), 0u64..(1 << 28)),
        width in 1usize..9,
        resident in any::<bool>(),
    ) {
        use polystorepp::accel::exchange::shuffle_bill;
        use polystorepp::optimizer::price;
        let (rows, more_rows) = (rows.0.min(rows.1), rows.0.max(rows.1));
        let (bytes, more_bytes) = (bytes.0.min(bytes.1), bytes.0.max(bytes.1));
        let sound = |secs: f64| secs.is_finite() && secs >= 0.0;
        for fleet in [AcceleratorFleet::workstation(), AcceleratorFleet::cpu_only()] {
            for device in DeviceKind::all() {
                let attached = price::transfer(&fleet, device, bytes, false);
                let local = price::transfer(&fleet, device, bytes, true);
                prop_assert!(sound(local.as_secs()) && local <= attached);
                prop_assert!(attached <= price::transfer(&fleet, device, more_bytes, false));
                for op in every_operator() {
                    let bill = |rows, bytes| price::task(&fleet, &op, device, rows, bytes, resident);
                    let base = bill(rows, bytes);
                    prop_assert!(
                        sound(base.duration.as_secs()) && sound(base.resident_saving),
                        "{} on {device:?}: {base:?}", op.name()
                    );
                    prop_assert!(
                        base.duration <= bill(more_rows, bytes).duration
                            && base.duration <= bill(rows, more_bytes).duration,
                        "{} on {device:?} is not monotone", op.name()
                    );
                    match price::planned_profile(&fleet, &op, device) {
                        Some(profile) => {
                            prop_assert_eq!(profile.kind(), device);
                            prop_assert_eq!(base.profile.kind(), device);
                        }
                        // The planner skips the pair; executed anyway
                        // (a shard fleet without the planned device), it
                        // bills the host's price to the bit.
                        None => {
                            let host = price::task(&fleet, &op, DeviceKind::Cpu, rows, bytes, resident);
                            prop_assert_eq!(base.profile.kind(), DeviceKind::Cpu);
                            prop_assert_eq!(
                                base.duration.as_secs().to_bits(),
                                host.duration.as_secs().to_bits()
                            );
                            prop_assert_eq!(base.resident_saving, 0.0);
                        }
                    }
                    let profile = price::serving_profile(&fleet, &op, device);
                    let planned = |rows: u64, bytes: u64| {
                        price::training(profile, &op, rows as f64, bytes as f64)
                    };
                    prop_assert_eq!(
                        planned(rows, bytes).is_some(),
                        matches!(op, Operator::TrainMlp { .. } | Operator::KMeansCluster { .. })
                    );
                    if let Some(t) = planned(rows, bytes) {
                        prop_assert!(sound(t.as_secs()));
                        prop_assert!(t <= planned(more_rows, bytes).expect("same op"));
                        prop_assert!(t <= planned(rows, more_bytes).expect("same op"));
                    }
                }
            }
            for accelerate in [false, true] {
                let barrier = |rows, bytes| price::shuffle_barrier(&fleet, accelerate, rows, bytes, width);
                let (bill, seconds) = barrier(rows, bytes);
                let data_plane =
                    shuffle_bill(&fleet, accelerate, rows, bytes, width, &price::exchange_wire());
                prop_assert_eq!(bill, data_plane);
                prop_assert_eq!(
                    seconds.to_bits(),
                    (data_plane.seconds + width as f64 * price::TASK_OVERHEAD_S).to_bits()
                );
                prop_assert!(sound(seconds));
                prop_assert!(seconds <= barrier(more_rows, bytes).1);
                prop_assert!(seconds <= barrier(rows, more_bytes).1);
            }
            let splice = price::splice(&fleet, width, rows as f64);
            prop_assert!(sound(splice) && splice <= price::splice(&fleet, width, more_rows as f64));
            prop_assert!(splice >= width as f64 * price::TASK_OVERHEAD_S);
        }
        let moved = price::migration_estimate(bytes, DataModel::Relational, DataModel::Tensor);
        prop_assert!(sound(moved.as_secs()));
        prop_assert!(moved <= price::migration_estimate(more_bytes, DataModel::Relational, DataModel::Tensor));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session core's result cache is invisible in bytes: the same
    /// scripts over identically-built systems produce byte-identical
    /// run digests with the cache on and off — across random session
    /// interleavings and tenants, shard widths 1–4, shed-inducing tiny
    /// queues, and an optional mid-run reshard that bumps the
    /// engine-state epoch. No execution memoization: every billed miss
    /// really runs the data plane.
    #[test]
    fn session_result_cache_is_invisible_in_digests(
        seed in 0u64..1000,
        sessions in 1usize..12,
        width in 1u32..5,
        reshard_at in 0.0f64..2e-3,
        with_reshard in any::<bool>(),

    ) {
        use polystorepp::service::{
            Query, ReshardEvent, SessionCore, SessionCoreConfig, SessionScript, SessionStep,
        };

        let pool = [
            Query::sql(
                "SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10",
            ),
            Query::sql("SELECT count(*) AS n FROM admissions"),
            Query::sql("SELECT pid FROM admissions WHERE age < 40"),
            Query::sql(
                "SELECT name, age FROM admissions JOIN db2.patients \
                 ON admissions.pid = patients.pid",
            ),
        ];
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let scripts: Vec<SessionScript> = (0..sessions)
            .map(|_| SessionScript {
                tenant: rng.next_bounded(3) as u32,
                steps: (0..1 + rng.next_index(3))
                    .map(|_| SessionStep {
                        at: rng.next_range(0.0, 2e-3),
                        query: rng.next_index(pool.len()) as u32,
                    })
                    .collect(),
            })
            .collect();
        // Re-key the hash layout mid-run: same shard count (all
        // partitioned tables on an engine must agree on the replica
        // count) but a different distribution — rows move between
        // shards and the engine-state epoch bumps.
        let events: Vec<ReshardEvent> = with_reshard
            .then(|| ReshardEvent {
                at: reshard_at,
                table: TableRef::new("db1", "admissions"),
                spec: PartitionSpec::hash("age", width),
            })
            .into_iter()
            .collect();

        let system = || {
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 40,
                vitals_per_patient: 4,
                seed: 7,
            }))
            .partition(
                TableRef::new("db1", "admissions"),
                PartitionSpec::hash("pid", width),
            )
            .build()
            .expect("valid config")
        };
        let run = |cache: bool| {
            let mut core = SessionCore::new(
                system(),
                SessionCoreConfig {
                    workers: 2,
                    queue_depth: 2,
                    result_cache: cache,
                    memoize_execution: false,
                    ..Default::default()
                },
            )
            .expect("valid core config");
            core.run_with_events(&pool, &scripts, &events)
                .expect("run succeeds")
        };
        let off = run(false);
        let on = run(true);
        prop_assert_eq!(off.offered, on.offered);
        prop_assert_eq!(off.digest, on.digest);
    }
}
