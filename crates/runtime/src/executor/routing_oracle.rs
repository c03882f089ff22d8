//! The routing oracle: shuffled joins over random two-table layouts
//! (hash or range, one to four shards) whose keys are `Int`, `Float`,
//! `Timestamp`, `Bool` or `Str` with NULLs and duplicates, or an `Int`
//! probe key against a `Float` build key. The probe side is unfiltered,
//! filtered by its scan under a fused filter node, or filtered by a
//! filter that runs (so an operator's output rows are what gets routed);
//! the build side's scan projects or not. Everything is held to a
//! reference computed here from the gathered rows: `route_indices` picks
//! each destination's rows (and is itself held to the routing hash
//! spelled out below), and a nested loop joins the gathered sides.
//! Checked: each destination's input rows in order and their bytes, the
//! probe origins, the exchange's rows and bytes, the output rows in
//! order, and the makespan bits against the same join routed from
//! gathered copies. Each case runs twice on one registry — the second
//! run's scans read the hash layouts the first one's left on the tables'
//! snapshots, and its joins the key indexes — and twice more after a
//! row is inserted into the build table, whose shard's snapshot drops
//! what it kept.

use pspp_common::{
    DataType, Distribution, EngineId, PartitionSpec, Predicate, Row, Schema, TableRef, Value,
};
use pspp_ir::PlanOptions;
use pspp_relstore::RelationalStore;

use super::*;
use crate::registry::EngineInstance;

/// The (probe, build) key types a case joins on.
const KINDS: [(DataType, DataType); 6] = [
    (DataType::Int, DataType::Int),
    (DataType::Float, DataType::Float),
    (DataType::Timestamp, DataType::Timestamp),
    (DataType::Bool, DataType::Bool),
    (DataType::Str, DataType::Str),
    (DataType::Int, DataType::Float),
];

/// The key a draw stands for: −1 is NULL, and the draws collide often
/// enough for duplicates; floats take halves, `-0.0` and NaN too.
fn key(kind: DataType, draw: i64) -> Value {
    match (kind, draw) {
        (_, d) if d < 0 => Value::Null,
        (DataType::Int, d) => Value::Int(d),
        (DataType::Float, 6) => Value::Float(-0.0),
        (DataType::Float, 7) => Value::Float(f64::NAN),
        (DataType::Float, d) => Value::Float(d as f64 / 2.0),
        (DataType::Timestamp, d) => Value::Timestamp(d),
        (DataType::Bool, d) => Value::Bool(d % 2 == 0),
        (_, d) => Value::from(format!("k{d}")),
    }
}

/// The routing hash as the partitioning rule states it: FNV-1a over a
/// kind tag and the value's bytes, a whole-number float as the int it
/// equals.
fn reference_hash(value: &Value) -> u64 {
    let fnv = |tag: u8, bytes: &[u8]| {
        std::iter::once(&tag)
            .chain(bytes)
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    };
    match value {
        Value::Null => fnv(0, &[]),
        Value::Bool(b) => fnv(1, &[u8::from(*b)]),
        Value::Int(v) => fnv(2, &v.to_le_bytes()),
        Value::Float(v) if v.fract() == 0.0 => fnv(2, &(*v as i64).to_le_bytes()),
        Value::Float(v) => fnv(3, &v.to_bits().to_le_bytes()),
        Value::Str(s) => fnv(4, s.as_bytes()),
        Value::Bytes(b) => fnv(5, b),
        Value::Timestamp(v) => fnv(6, &v.to_le_bytes()),
    }
}

/// How one table is laid out: hash on the key, hash on its `Int`
/// column, or a range of that column, over `width` shards.
fn layout((mode, width): (u8, u32), key: &str, column: &str) -> PartitionSpec {
    match mode {
        0 => PartitionSpec::hash(key, width),
        1 => PartitionSpec::hash(column, width),
        _ => PartitionSpec::range(
            column,
            (1..width)
                .map(|s| Value::Int(i64::from(20 * s / width)))
                .collect(),
        ),
    }
}

/// A row of `db2.r` of key type `rk`.
fn build_row(rk: DataType, (k, x, n): (i64, i64, usize)) -> Row {
    Row::from(vec![key(rk, k), Value::Int(x), Value::from("w".repeat(n))])
}

/// `db1.l(k, v Int)` and `db2.r(k, x Int, w Str)` laid out as drawn.
fn registry(
    (lk, rk): (DataType, DataType),
    left: &[(i64, i64)],
    right: &[(i64, i64, usize)],
    layouts: [(u8, u32); 2],
) -> EngineRegistry {
    let mut registry = EngineRegistry::new();
    let mut db1 = RelationalStore::new("db1");
    db1.create_table("l", Schema::new(vec![("k", lk), ("v", DataType::Int)]))
        .unwrap();
    let rows = left
        .iter()
        .map(|&(k, v)| Row::from(vec![key(lk, k), Value::Int(v)]));
    db1.insert("l", rows.collect()).unwrap();
    let mut db2 = RelationalStore::new("db2");
    let schema = Schema::new(vec![("k", rk), ("x", DataType::Int), ("w", DataType::Str)]);
    db2.create_table("r", schema).unwrap();
    db2.insert("r", right.iter().map(|&r| build_row(rk, r)).collect())
        .unwrap();
    for (engine, store) in [("db1", db1), ("db2", db2)] {
        registry
            .register(EngineId::new(engine), EngineInstance::Relational(store))
            .unwrap();
    }
    registry.set_fleet(pspp_accel::AcceleratorFleet::workstation());
    let [l, r] = layouts;
    registry
        .reshard(&TableRef::new("db1", "l"), layout(l, "k", "v"))
        .unwrap();
    registry
        .reshard(&TableRef::new("db2", "r"), layout(r, "k", "x"))
        .unwrap();
    registry
}

/// The nodes whose plan entries and outputs the case checks.
struct Nodes {
    /// The node that produces the probe side's rows: the scan, or an
    /// unfused filter over it.
    left: NodeId,
    right: NodeId,
    join: NodeId,
}

/// How the probe side is filtered on `v >= t`.
#[derive(Debug, Clone, Copy)]
enum Filter {
    None,
    /// By its scan, with a fused filter node aliasing the scan.
    Fused(i64),
    /// By a filter node that runs, over an unfiltered scan.
    Run(i64),
}

/// `l ⋈ r ON l.k = r.k` with the probe side filtered as drawn and the
/// build side's scan projecting to `(w, k)` when `project` is; with
/// `sides_read` both sides' producers are outputs too, so nothing routes
/// them where they are produced and the shuffle routes their gathered
/// copies.
fn program(filter: Filter, project: bool, sides_read: bool) -> (Program, Nodes) {
    let mut p = Program::new();
    let scan_predicate = match filter {
        Filter::Fused(t) => Predicate::ge("v", t),
        Filter::None | Filter::Run(_) => Predicate::True,
    };
    let scan = p.add_source(
        Operator::Scan {
            table: TableRef::new("db1", "l"),
            predicate: scan_predicate,
            projection: None,
        },
        "sql",
    );
    let (left, probe) = match filter {
        Filter::None => (scan, scan),
        Filter::Fused(t) | Filter::Run(t) => {
            let predicate = Predicate::ge("v", t);
            let f = p.add_node(Operator::Filter { predicate }, vec![scan], "sql");
            let fused = matches!(filter, Filter::Fused(_));
            p.node_mut(f).annotations.fused_into_consumer = fused;
            (if fused { scan } else { f }, f)
        }
    };
    let right = p.add_source(
        Operator::Scan {
            table: TableRef::new("db2", "r"),
            predicate: Predicate::True,
            projection: project.then(|| vec!["w".into(), "k".into()]),
        },
        "sql",
    );
    let join = p.add_node(
        Operator::HashJoin {
            left_on: "k".into(),
            right_on: "k".into(),
        },
        vec![probe, right],
        "sql",
    );
    p.mark_output(join);
    if sides_read {
        p.mark_output(left);
        p.mark_output(right);
    }
    (p, Nodes { left, right, join })
}

/// What the join's destination tasks are handed, and its barrier: the
/// executor's own stage step up to the join, then its task boundary.
fn shuffle_of(
    exec: &Executor,
    p: &Program,
    plan: &ShardPlan,
    registry: &EngineRegistry,
    join: NodeId,
) -> (Vec<Vec<Dataset>>, ShuffleBarrier) {
    let mut outputs = HashMap::new();
    for stage in p.execution_stages().unwrap() {
        if stage.compute.contains(&join) {
            let (tasks, merge) = exec
                .node_tasks(p, join, plan, registry, &mut outputs)
                .unwrap();
            let Merge::Splice(barrier) = merge else {
                panic!("a shuffled join merges by splicing, not by {merge:?}");
            };
            return (tasks.into_iter().map(|t| t.inputs).collect(), barrier);
        }
        exec.run_stage(p, &stage.compute, plan, registry, &mut outputs)
            .unwrap();
    }
    unreachable!("the join runs in some stage")
}

fn walked(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.byte_size() as u64).sum()
}

/// The answer of `l ⋈ r` as drawn: the same join with both sides read
/// by outputs too, so nothing routes them where they are produced and
/// the shuffle routes their gathered copies — the sides whose
/// nested-loop join, in probe order, is the answer — run, checked
/// against that nested loop, and returned with its report.
fn reference(
    filter: Filter,
    project: bool,
    registry: &EngineRegistry,
) -> std::result::Result<(ExecutionReport, Vec<Row>), proptest::test_runner::TestCaseError> {
    let (mut copies, nodes) = program(filter, project, true);
    let plan = Placer::plan_distribution(&mut copies, registry, PlanOptions::default()).unwrap();
    proptest::prop_assert!(plan.node(nodes.left).routed.is_none());
    let from_copies = Executor::new(CostLedger::new())
        .execute(&copies, registry)
        .unwrap();
    let sides = &from_copies.outputs[1..];
    let keys = [0, usize::from(project)];
    let (l, r) = (sides[0].try_rows().unwrap(), sides[1].try_rows().unwrap());
    let expect: Vec<Row> = l
        .iter()
        .flat_map(|a| {
            let (ka, kb) = (&a[keys[0]], keys[1]);
            r.iter()
                .filter(move |b| !ka.is_null() && *ka == b[kb])
                .map(|b| a.concat(b))
        })
        .collect();
    proptest::prop_assert_eq!(from_copies.outputs[0].try_rows().unwrap(), &expect[..]);
    Ok((from_copies, expect))
}

/// Inserts `row` into `db2.r` on the shard its layout homes it on, and
/// moves the registry's epoch as an in-band write does.
fn insert_build_row(registry: &mut EngineRegistry, row: Row) {
    let table = TableRef::new("db2", "r");
    let spec = registry.partition(&table).unwrap().clone();
    let store = registry.relational(&table.engine).unwrap();
    let schema = store.scan_schema("r", None).unwrap();
    let shard = spec
        .route_rows(&schema, std::slice::from_ref(&row))
        .unwrap()[0];
    match registry.shard_mut(&table.engine, shard).unwrap() {
        EngineInstance::Relational(store) => store.insert("r", vec![row]).unwrap(),
        other => panic!("db2 is relational, not {}", other.kind()),
    };
    registry.bump_epoch();
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

    #[test]
    fn routed_shuffles_match_the_gathered_reference(
        kinds in 0usize..KINDS.len(),
        left in proptest::prop::collection::vec((-1i64..8, 0i64..20), 0..40),
        right in proptest::prop::collection::vec((-1i64..8, 0i64..20, 0usize..4), 0..40),
        layouts in ((0u8..3, 1u32..5), (0u8..3, 1u32..5)),
        sides in (0u8..3, 0i64..20, proptest::strategy::any::<bool>()),
        inserted in (-1i64..8, 0i64..20, 0usize..4),
    ) {
        use proptest::{prop_assert, prop_assert_eq};
        let mut registry = registry(KINDS[kinds], &left, &right, [layouts.0, layouts.1]);
        let filter = [Filter::None, Filter::Fused(sides.1), Filter::Run(sides.1)][sides.0 as usize];
        let project = sides.2;
        let (mut p, nodes) = program(filter, project, false);
        let exec = Executor::new(CostLedger::new());
        // Each program carries the plan `Polystore::optimize_at` makes.
        let planned = |p: &mut Program, options, registry: &EngineRegistry| {
            Placer::plan_distribution(p, registry, options)
        };

        // The reference, whose sides' routing also picks each
        // destination's rows below.
        let (from_copies, expect) = reference(filter, project, &registry)?;
        let sides = &from_copies.outputs[1..];
        let keys = [0, usize::from(project)];

        let mut gathered = p.clone();
        planned(&mut gathered, PlanOptions::gathered(), &registry).unwrap();
        let literal = Executor::new(CostLedger::new()).execute(&gathered, &registry).unwrap();
        prop_assert_eq!(literal.outputs[0].try_rows().unwrap(), &expect[..]);

        let plan = planned(&mut p, PlanOptions::default(), &registry).unwrap();
        let report = exec.execute(&p, &registry).unwrap();
        prop_assert_eq!(report.outputs[0].try_rows().unwrap(), &expect[..]);
        // Again, over what the first run left on the snapshots.
        let again = exec.execute(&p, &registry).unwrap();
        prop_assert_eq!(again.outputs[0].try_rows().unwrap(), &expect[..]);
        prop_assert_eq!(again.makespan().to_bits(), report.makespan().to_bits());
        let join = plan.node(nodes.join);
        // A shuffled join's inputs, exchange and bill.
        if join.shuffles() {
            let width = join.scatter_width();
            let (inputs, barrier) = shuffle_of(&exec, &p, &plan, &registry, nodes.join);
            let (mut rows, mut bytes) = (0, 0);
            for (idx, (scan, side)) in [nodes.left, nodes.right].into_iter().zip(sides).enumerate() {
                if !matches!(join.exchange(idx), ExchangeKind::ShuffleHash { .. }) {
                    prop_assert!(plan.node(scan).routed.is_none());
                    continue;
                }
                prop_assert_eq!(&plan.node(scan).routed, &Some(("k".to_string(), width as u32)));
                let gathered = side.try_rows().unwrap();
                let target = Distribution::repartition("k", width as u32);
                let picks = target.route_indices(side.schema().unwrap(), gathered).unwrap();
                for (d, pick) in picks.iter().enumerate() {
                    for &i in pick {
                        let hash = reference_hash(&gathered[i][keys[idx]]);
                        prop_assert!(hash % width as u64 == d as u64, "{} to {d}", gathered[i]);
                    }
                    let want: Vec<Row> = pick.iter().map(|&i| gathered[i].clone()).collect();
                    let got = &inputs[d][idx];
                    prop_assert_eq!(got.try_rows().unwrap(), &want[..]);
                    prop_assert_eq!(got.byte_size(), walked(&want));
                }
                if idx == 0 {
                    prop_assert_eq!(&barrier.probe_origins, &picks);
                }
                rows += gathered.len() as u64;
                bytes += walked(gathered);
            }
            prop_assert_eq!((barrier.routed_rows, barrier.bytes), (rows, bytes));
            let shuffled: Vec<(usize, usize)> = report
                .traces
                .iter()
                .flat_map(|t| &t.exchanges)
                .filter(|e| e.kind == "shuffle")
                .map(|e| (e.rows, e.bytes))
                .collect();
            prop_assert_eq!(shuffled, vec![(rows as usize, bytes as usize)]);

            // Routing the gathered copies instead bills the same bits.
            prop_assert_eq!(from_copies.makespan().to_bits(), report.makespan().to_bits());
        }

        // A row inserted into the build table drops what its shard's
        // snapshot kept: the next runs answer as the reference over the
        // new rows.
        insert_build_row(&mut registry, build_row(KINDS[kinds].1, inserted));
        let (_, expect) = reference(filter, project, &registry)?;
        planned(&mut p, PlanOptions::default(), &registry).unwrap();
        for _ in 0..2 {
            let report = exec.execute(&p, &registry).unwrap();
            prop_assert_eq!(report.outputs[0].try_rows().unwrap(), &expect[..]);
        }
    }
}
