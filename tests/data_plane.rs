//! The relational data plane shares rows instead of copying them. These
//! tests hold the two things sharing must never change: what a reader
//! sees (copy-on-write is observable, aliasing is not) and what a query
//! answers on any shard layout.

use polystorepp::accel::CostLedger;
use polystorepp::common::PartitionSpec;
use polystorepp::ir::{NodeId, Operator, Program};
use polystorepp::prelude::*;
use polystorepp::relstore::{ops, RelationalStore};
use polystorepp::runtime::{
    Dataset, EngineInstance, EngineRegistry, Executor, Payload, Placer, RowBuf,
};

fn row_buf(d: &Dataset) -> &RowBuf {
    match &d.payload {
        Payload::Rows { rows, .. } => rows,
        Payload::Model(_) => panic!("a rows dataset"),
    }
}

fn walked_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.byte_size() as u64).sum()
}

fn sorted_rows(d: &Dataset) -> Vec<Row> {
    let mut rows = d.try_rows().expect("a rows dataset").to_vec();
    rows.sort();
    rows
}

#[test]
fn cloned_dataset_shares_its_buffer_until_one_side_writes() {
    let schema = Schema::new(vec![("k", DataType::Int), ("s", DataType::Str)]);
    let rows: Vec<Row> = (0..8i64).map(|i| row![i, format!("r{i}")]).collect();
    let original = Dataset::rows(
        schema.clone(),
        rows.clone(),
        DataModel::Relational,
        EngineId::new("db1"),
    );
    let mut copy = original.clone();
    assert!(row_buf(&original).ptr_eq(row_buf(&copy)));
    let bytes = original.byte_size();
    assert_eq!(copy.byte_size(), bytes);

    // Operators that keep a row hand it on by pointer.
    let kept = ops::filter_rows(
        &schema,
        original.try_rows().unwrap(),
        &Predicate::ge("k", 6i64),
    )
    .unwrap();
    assert_eq!(kept.len(), 2);
    assert!(kept[0].ptr_eq(&original.try_rows().unwrap()[6]));

    // A write copies the buffer first: the other holder sees nothing.
    let Payload::Rows { rows: buf, .. } = &mut copy.payload else {
        unreachable!("a rows dataset");
    };
    buf.make_mut().push(row![8i64, "r8"]);
    assert!(!row_buf(&original).ptr_eq(row_buf(&copy)));
    assert_eq!(original.try_rows().unwrap(), rows.as_slice());
    assert_eq!(original.byte_size(), bytes);
    assert_eq!(copy.len(), 9);
    assert_eq!(copy.byte_size(), bytes + 8 + 2);
    // The rows themselves are still shared.
    assert!(copy.try_rows().unwrap()[0].ptr_eq(&original.try_rows().unwrap()[0]));
}

/// `db1.admissions(pid, age)` and `db2.patients(pid, name)`, 200 rows
/// each.
fn two_engine_registry() -> EngineRegistry {
    let mut r = EngineRegistry::new();
    let mut db1 = RelationalStore::new("db1");
    db1.create_table(
        "admissions",
        Schema::new(vec![("pid", DataType::Int), ("age", DataType::Int)]),
    )
    .unwrap();
    db1.insert(
        "admissions",
        (0..200i64).map(|i| row![i, 20 + i % 60]).collect(),
    )
    .unwrap();
    let mut db2 = RelationalStore::new("db2");
    db2.create_table(
        "patients",
        Schema::new(vec![("pid", DataType::Int), ("name", DataType::Str)]),
    )
    .unwrap();
    db2.insert(
        "patients",
        (0..200i64).map(|i| row![i, format!("p{i}")]).collect(),
    )
    .unwrap();
    r.register(EngineId::new("db1"), EngineInstance::Relational(db1))
        .unwrap();
    r.register(EngineId::new("db2"), EngineInstance::Relational(db2))
        .unwrap();
    r.set_fleet(AcceleratorFleet::workstation());
    r
}

/// Both scans and their join, all three marked as outputs: the scans'
/// gathered copies have a second reader besides the join.
fn scans_and_join() -> (Program, [NodeId; 3]) {
    let mut p = Program::new();
    let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
    let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
    let j = p.add_node(
        Operator::HashJoin {
            left_on: "pid".into(),
            right_on: "pid".into(),
        },
        vec![a, b],
        "sql",
    );
    for id in [a, b, j] {
        p.mark_output(id);
    }
    (p, [a, b, j])
}

/// Plans `program` over `registry` — the distribution pass
/// `Polystore::optimize_at` runs — and executes it.
fn run(program: &Program, registry: &EngineRegistry) -> Vec<Dataset> {
    let mut program = program.clone();
    Placer::plan_distribution(&mut program, registry, PlanOptions::default()).expect("plans");
    let outputs = Executor::new(CostLedger::new())
        .execute(&program, registry)
        .expect("program runs")
        .outputs;
    assert_built(&outputs);
    outputs
}

/// No output of a report is still a scan's selection: each holds its
/// rows, and none holds a table's snapshot.
fn assert_built(outputs: &[Dataset]) {
    for output in outputs {
        if let Payload::Rows { rows, .. } = &output.payload {
            assert!(
                rows.as_selection().is_none(),
                "an output is still a selection"
            );
        }
    }
}

#[test]
fn gather_and_splice_leave_partials_and_other_readers_untouched() {
    let (program, [a, b, j]) = scans_and_join();
    let flat = run(&program, &two_engine_registry());

    // Colocated: both tables hashed on the join key. The join's tasks
    // read the scans' retained per-shard partials while the gather
    // folds those same partials into the scans' full copies. Had the
    // gather appended in place, shard 0's partial would hold every row
    // and the join would answer with duplicates.
    let mut colocated = two_engine_registry();
    for (engine, table) in [("db1", "admissions"), ("db2", "patients")] {
        colocated
            .reshard(&TableRef::new(engine, table), PartitionSpec::hash("pid", 2))
            .unwrap();
    }
    let plan = Placer::plan_distribution(&mut program.clone(), &colocated, PlanOptions::default())
        .unwrap();
    assert!(plan.node(a).partials_needed && plan.node(b).partials_needed);
    assert!(plan.node(j).colocated);

    // Shuffled: patients hashed on `name`, so both sides are routed by
    // pointer into destination buckets and the barrier splices the
    // per-destination outputs into a new buffer. (The planner gathers a
    // shuffled join's output, so no consumer reads *its* partials; its
    // inputs are the shared buffers here.)
    let mut shuffled = two_engine_registry();
    shuffled
        .reshard(
            &TableRef::new("db1", "admissions"),
            PartitionSpec::hash("pid", 2),
        )
        .unwrap();
    shuffled
        .reshard(
            &TableRef::new("db2", "patients"),
            PartitionSpec::hash("name", 2),
        )
        .unwrap();
    let plan =
        Placer::plan_distribution(&mut program.clone(), &shuffled, PlanOptions::default()).unwrap();
    assert!(plan.node(j).shuffles());

    for (layout, registry) in [("colocated", &colocated), ("shuffled", &shuffled)] {
        let sharded = run(&program, registry);
        assert_eq!(sharded.len(), flat.len());
        for (node, (got, want)) in sharded.iter().zip(&flat).enumerate() {
            assert_eq!(got.schema().unwrap(), want.schema().unwrap());
            assert_eq!(
                sorted_rows(got),
                sorted_rows(want),
                "{layout}: output {node}"
            );
            // Gathered and spliced buffers carry their size; it is the
            // walked one.
            assert_eq!(got.byte_size(), walked_bytes(got.try_rows().unwrap()));
        }
    }

    // The gather's step by hand: appending to a partial another reader
    // still holds copies the buffer first, and the reader keeps its rows
    // and its size.
    let rows = flat[0].try_rows().unwrap();
    let (head, tail) = rows.split_at(rows.len() / 2);
    let sized = |rows: &[Row]| RowBuf::pre_sized(rows.to_vec(), walked_bytes(rows));
    let partial = sized(head);
    let mut gathered = partial.clone();
    gathered.append(&sized(tail));
    assert!(!gathered.ptr_eq(&partial));
    assert_eq!(&partial[..], head);
    assert_eq!(partial.byte_size(), walked_bytes(head));
    assert_eq!(&gathered[..], rows);
    assert_eq!(gathered.byte_size(), walked_bytes(rows));
}

/// A scan that is the program's output — `SELECT *` under a pushed
/// filter, and a bare scan — comes back as built rows: the table's
/// rows a row-at-a-time filter keeps, value for value and in order.
#[test]
fn a_scan_that_is_the_output_returns_built_rows() {
    for sharded in [false, true] {
        let system = clinical(sharded);
        let report = system
            .run_sql("SELECT * FROM admissions WHERE date >= 100")
            .expect("runs");
        assert_built(&report.execution.outputs);
        let got = report.execution.outputs[0].try_rows().expect("rows");
        let date = Predicate::ge("date", 100i64);
        let mut want = Vec::new();
        for s in 0..if sharded { 2 } else { 1 } {
            let db1 = system
                .registry()
                .relational_shard(&EngineId::new("db1"), polystorepp::common::ShardId(s))
                .expect("db1 shard");
            let table = db1.table("admissions").expect("table");
            for row in table.rows() {
                if date.eval(table.schema(), &row).expect("known column") {
                    want.push(row);
                }
            }
        }
        assert!(!want.is_empty());
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "sharded = {sharded}"
        );
    }
}

/// A report's rows are its own: an insert into the table it scanned, or
/// a rebalance that rebuilds that table, leaves them as they were.
#[test]
fn a_report_keeps_its_rows_across_an_insert_and_a_rebalance() {
    let mut registry = two_engine_registry();
    let mut program = Program::new();
    let scan = program.add_source(
        Operator::Scan {
            table: TableRef::new("db1", "admissions"),
            predicate: Predicate::ge("age", 60i64),
            projection: None,
        },
        "sql",
    );
    let sort = program.add_node(
        Operator::Sort {
            keys: vec![polystorepp::ir::SortSpec {
                column: "pid".into(),
                ascending: false,
            }],
        },
        vec![scan],
        "sql",
    );
    program.mark_output(scan);
    program.mark_output(sort);
    Placer::plan_distribution(&mut program, &registry, PlanOptions::default()).expect("plans");
    let report = Executor::new(CostLedger::new())
        .execute(&program, &registry)
        .expect("runs");
    let before: Vec<Vec<Row>> = report
        .outputs
        .iter()
        .map(|d| d.try_rows().expect("rows").to_vec())
        .collect();
    let ages = |rows: &[Row]| rows.iter().map(|r| r[1].clone()).collect::<Vec<_>>();

    let table = TableRef::new("db1", "admissions");
    registry
        .relational_mut(&EngineId::new("db1"))
        .expect("db1")
        .insert("admissions", vec![row![500i64, 99i64], row![501i64, 98i64]])
        .expect("valid rows");
    registry
        .rebalance(&table, PartitionSpec::hash("pid", 2))
        .expect("rebalances");
    for (output, rows) in report.outputs.iter().zip(&before) {
        assert_eq!(output.try_rows().expect("rows"), rows.as_slice());
        assert_eq!(output.byte_size(), walked_bytes(rows));
        assert!(ages(rows)
            .iter()
            .all(|a| *a >= Value::Int(60) && *a < Value::Int(80)));
    }
    // The same program now sees the inserted rows.
    let again = run(&program, &registry);
    assert_eq!(again[0].len(), before[0].len() + 2);
}

/// A sort with a second reader, and a sort that is itself an output,
/// come back fully ordered — the literal plan's stable sort of what the
/// scan returned — beside a limit reading them, at one shard and two.
/// (Only a sort whose one reader is a limit orders just its prefix.)
#[test]
fn sorts_read_beyond_a_limit_come_back_fully_ordered() {
    let by_age = || Operator::Sort {
        keys: vec![polystorepp::ir::SortSpec {
            column: "age".into(),
            ascending: false,
        }],
    };
    // scan → sort → {limit, projection}, and scan → sort (output) → limit.
    let mut shared = Program::new();
    let scan = shared.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
    let sort = shared.add_node(by_age(), vec![scan], "sql");
    let first = shared.add_node(Operator::Limit { n: 5 }, vec![sort], "sql");
    let all = shared.add_node(
        Operator::Project {
            columns: vec!["age".into(), "pid".into()],
        },
        vec![sort],
        "sql",
    );
    for id in [scan, first, all] {
        shared.mark_output(id);
    }
    let mut shown = Program::new();
    let scan = shown.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
    let sort = shown.add_node(by_age(), vec![scan], "sql");
    let first = shown.add_node(Operator::Limit { n: 5 }, vec![sort], "sql");
    for id in [scan, sort, first] {
        shown.mark_output(id);
    }

    let mut two = two_engine_registry();
    two.reshard(
        &TableRef::new("db1", "admissions"),
        PartitionSpec::hash("pid", 2),
    )
    .unwrap();
    for (shards, registry) in [(1, two_engine_registry()), (2, two)] {
        let stable_sort = |scanned: &Dataset| {
            let schema = scanned.schema().unwrap();
            let rows = scanned.try_rows().unwrap().to_vec();
            ops::sort_rows(schema, rows, &[ops::SortKey::desc("age")]).unwrap()
        };
        let [scanned, limited, projected] = &run(&shared, &registry)[..] else {
            panic!("three outputs");
        };
        let sorted = stable_sort(scanned);
        let (_, want) = ops::project(scanned.schema().unwrap(), &sorted, &["age", "pid"]).unwrap();
        assert_eq!(projected.try_rows().unwrap(), want, "{shards} shards");
        assert_eq!(limited.try_rows().unwrap(), &sorted[..5], "{shards} shards");

        let [scanned, sort, limited] = &run(&shown, &registry)[..] else {
            panic!("three outputs");
        };
        let sorted = stable_sort(scanned);
        assert_eq!(sort.try_rows().unwrap(), sorted, "{shards} shards");
        assert_eq!(limited.try_rows().unwrap(), &sorted[..5], "{shards} shards");
    }
}

/// The clinical deployment at 2 000 patients: enough rows that a
/// 2-shard group-by over all of them plans as partial aggregates +
/// merge instead of a gather.
fn clinical(sharded: bool) -> Polystore {
    let mut builder = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 2_000,
        vitals_per_patient: 1,
        seed: 2019,
    }));
    if sharded {
        builder = builder.shards(2).partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::hash("name", 2),
        );
    }
    builder.build().expect("valid config")
}

/// `admissions.los` is a `Float` holding whole days, `patients.pid` an
/// `Int`, and `Value` calls `Float(3.0)` and `Int(3)` equal: a shuffle
/// must send both kinds of an equal key to one shard, or the shuffled
/// join loses the matches the gathered one finds.
#[test]
fn int_and_float_join_keys_that_compare_equal_meet_on_one_shard() {
    let sql = "SELECT los, name FROM admissions JOIN db2.patients \
               ON admissions.los = patients.pid";
    for shards in [2, 4] {
        let system = |options: PlanOptions| {
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 2_000,
                vitals_per_patient: 4,
                seed: 2019,
            }))
            .shards(shards)
            .partition(
                TableRef::new("db2", "patients"),
                PartitionSpec::hash("name", shards as u32),
            )
            .plan_options(options)
            .build()
            .expect("valid config")
        };
        let exchanged = system(PlanOptions::default()).run_sql(sql).expect("runs");
        let gathered = system(PlanOptions::gathered()).run_sql(sql).expect("runs");
        let shuffles = |report: &RunReport| {
            report
                .execution
                .traces
                .iter()
                .flat_map(|t| &t.exchanges)
                .any(|e| e.kind == "shuffle")
        };
        assert!(shuffles(&exchanged) && !shuffles(&gathered), "{shards}");
        let (want, got) = (
            gathered.execution.outputs[0].try_rows().unwrap(),
            exchanged.execution.outputs[0].try_rows().unwrap(),
        );
        assert_eq!(want.len(), 207, "{shards}");
        assert_eq!(got, want, "{shards} shards");
    }
}

/// An aggregate without `GROUP BY` over no rows returns one row, as SQL
/// has it — counts `0`, every other aggregate NULL — on one shard and
/// through the partial-aggregate + merge path at two and four, where
/// every shard's partial is empty (20 000 patients: enough estimated
/// rows that the merge pays).
#[test]
fn a_keyless_aggregate_over_no_rows_returns_one_row() {
    let count = "SELECT count(*) AS n FROM admissions WHERE date >= 99999";
    let all = "SELECT count(*) AS n, sum(age) AS s, avg(age) AS a, min(age) AS lo, \
               max(age) AS hi FROM admissions WHERE date >= 99999";
    for shards in [1, 2, 4] {
        let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 20_000,
            vitals_per_patient: 1,
            seed: 2019,
        }))
        .shards(shards)
        .build()
        .expect("valid config");
        for (sql, want) in [
            (count, row![0i64]),
            (
                all,
                Row::from(vec![
                    Value::Int(0),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]),
            ),
        ] {
            let report = system.run_sql(sql).expect("runs");
            let merges = report
                .execution
                .traces
                .iter()
                .flat_map(|t| &t.exchanges)
                .any(|e| e.kind == "merge");
            assert_eq!(merges, shards > 1, "{sql} at {shards} shards");
            let rows = report.execution.outputs[0].try_rows().expect("rows");
            assert_eq!(rows, [want], "{sql} at {shards} shards");
        }
    }
}

/// polybench's six OLAP templates, one draw each, and a seventh query:
/// `avg` over the float column `los` demotes the sharded group-by-age to
/// a gathered aggregate (float sums must not reassociate), so an
/// unfiltered `count` by age is what crosses the partial-aggregate merge.
const OLAP_TEMPLATES: [&str; 7] = [
    "SELECT pid, age, date FROM admissions WHERE date BETWEEN 1000 AND 1729 ORDER BY date",
    "SELECT pid, los FROM admissions WHERE age BETWEEN 40 AND 70 ORDER BY los DESC, pid LIMIT 10",
    "SELECT count(*) AS n FROM admissions WHERE date >= 1000 AND date < 1730",
    "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
     WHERE age BETWEEN 40 AND 55",
    "SELECT pid, count(*) AS n FROM admissions WHERE date >= 500 AND date < 2325 GROUP BY pid",
    "SELECT age, avg(los) AS m FROM admissions WHERE date >= 50 GROUP BY age",
    "SELECT age, count(*) AS n FROM admissions GROUP BY age",
];

#[test]
fn olap_templates_answer_alike_on_one_and_two_shards() {
    let single = clinical(false);
    let sharded = clinical(true);
    for sql in OLAP_TEMPLATES {
        let one = single.run_sql(sql).expect("1-shard run");
        let two = sharded.run_sql(sql).expect("2-shard run");
        // The join shuffles (mismatched keys) and the count by age
        // merges partial aggregates; nothing else exchanges.
        let exchanges: Vec<&str> = two
            .execution
            .traces
            .iter()
            .flat_map(|t| t.exchanges.iter().map(|e| e.kind))
            .collect();
        let expected: &[&str] = match sql {
            s if s.contains("JOIN") => &["shuffle"],
            s if s.contains("count(*) AS n") && s.contains("GROUP BY age") => &["merge"],
            _ => &[],
        };
        assert_eq!(exchanges, expected, "{sql}");
        assert_eq!(one.execution.outputs.len(), 1, "{sql}");
        assert_built(&one.execution.outputs);
        assert_built(&two.execution.outputs);
        let (a, b) = (&one.execution.outputs[0], &two.execution.outputs[0]);
        assert!(!a.is_empty(), "{sql}");
        assert_eq!(a.schema().unwrap(), b.schema().unwrap(), "{sql}");
        assert_eq!(sorted_rows(a), sorted_rows(b), "{sql}");

        // The simulated clock repeats bit for bit on either layout.
        for (system, first) in [(&single, &one), (&sharded, &two)] {
            let again = system.run_sql(sql).expect("second run");
            assert_eq!(
                again.makespan().to_bits(),
                first.makespan().to_bits(),
                "{sql}"
            );
        }
    }
}

/// polybench's `olap_single` (`sharded = false`: 1 shard, L3,
/// workstation fleet) and `olap_sharded` (2 shards, `patients` hashed
/// on `name`, builder defaults) deployments: 10 000 patients.
fn olap_deployment(sharded: bool) -> Polystore {
    let builder = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 10_000,
        vitals_per_patient: 4,
        seed: 2019,
    }));
    if sharded {
        builder.shards(2).partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::hash("name", 2),
        )
    } else {
        builder
            .accelerators(AcceleratorFleet::workstation())
            .opt_level(OptLevel::L3)
    }
    .build()
    .expect("valid config")
}

/// `(FNV of the output rows' Debug, makespan bits, energy_j bits)` of
/// the six OLAP templates, in [`OLAP_TEMPLATES`] order, captured at the
/// commit before scans went column-wise (PR 17's parent). polybench's
/// warm pass only holds a run to itself; these pin every op's rows, in
/// order, and both simulated figures across commits. The federated
/// join's two simulated figures (fourth record of either array) were
/// re-captured at PR 24, which ships `admissions` as `[pid]` and builds
/// `name` alone: makespan 1.566 → 0.355 ms at one shard and 1.258 →
/// 0.644 ms at two, energy 7.25 → 2.01 mJ; its rows' digest is PR 17's
/// parent's.
const OLAP_GOLDEN_ONE_SHARD: [(u64, u64, u64); 6] = [
    (0x085369d1f93a38fb, 0x3ec8727bb1904470, 0x3f403dc91ca25b6e),
    (0x944467b49aa2f15e, 0x3edac14f430c1c1b, 0x3f5132d67a58efea),
    (0x9aee0f6d21b56805, 0x3eb6f10286675d01, 0x3f25822ba22897b2),
    (0xed323e43a041ab1e, 0x3f374bcc0653563f, 0x3f607041ce1d4b86),
    (0xe37b33c8e3ce4707, 0x3eccfa925d95e307, 0x3f3b2af788c670f6),
    (0xadbed23db4bd70aa, 0x3edcaa43c9ed5d7a, 0x3f4adfca806c4c03),
];
const OLAP_GOLDEN_TWO_SHARDS: [(u64, u64, u64); 6] = [
    (0x085369d1f93a38fb, 0x3ed3282306e84eb1, 0x3f403dc91ca25b6e),
    (0x944467b49aa2f15e, 0x3ee4653fa2b01b94, 0x3f5132b479e15f1d),
    (0x9aee0f6d21b56805, 0x3eb2131c86e8dc6c, 0x3f25822ba22897b2),
    (0xed323e43a041ab1e, 0x3f4516e4f1c6821c, 0x3f607041ce1d4b87),
    (0xe37b33c8e3ce4707, 0x3ec26902c2719e9e, 0x3f3b2b7f8aa4b42b),
    (0xadbed23db4bd70aa, 0x3ed66e036b9d34dc, 0x3f4adfca806c4c03),
];

#[test]
fn olap_templates_keep_their_rows_and_simulated_bills() {
    use polystorepp::common::partition::{fnv1a, FNV_OFFSET};
    for (sharded, want) in [
        (false, OLAP_GOLDEN_ONE_SHARD),
        (true, OLAP_GOLDEN_TWO_SHARDS),
    ] {
        let system = olap_deployment(sharded);
        let got: Vec<(u64, u64, u64)> = OLAP_TEMPLATES[..6]
            .iter()
            .map(|sql| {
                let report = system.run_sql(sql).expect("template runs");
                let rows = report.execution.outputs[0].try_rows().expect("rows");
                (
                    fnv1a(format!("{rows:?}").as_bytes(), FNV_OFFSET),
                    report.makespan().to_bits(),
                    report.costs.energy_j.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "sharded = {sharded}: got {got:#x?}");

        // A scan that keeps whole rows hands on the table's rows it
        // keeps, value for value and in order.
        let mut program = Program::new();
        let scan = program.add_source(
            Operator::Scan {
                table: TableRef::new("db1", "admissions"),
                predicate: Predicate::between("date", 1000i64, 1729i64),
                projection: None,
            },
            "sql",
        );
        program.mark_output(scan);
        let report = system.run_program(program).expect("scan runs");
        let kept = report.execution.outputs[0].try_rows().expect("rows");
        assert!(!kept.is_empty());
        let shards = if sharded { 2 } else { 1 };
        let date = Predicate::between("date", 1000i64, 1729i64);
        let stored: Vec<Row> = (0..shards)
            .flat_map(|s| {
                let db1 = system
                    .registry()
                    .relational_shard(&EngineId::new("db1"), polystorepp::common::ShardId(s))
                    .expect("db1 shard");
                let table = db1.table("admissions").expect("table");
                let rows = table.rows();
                let keep = |row: &Row| date.eval(table.schema(), row).expect("known column");
                rows.into_iter().filter(keep).collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(format!("{kept:?}"), format!("{stored:?}"));
    }
}

/// An inverted or cross-type `BETWEEN` on the indexed `pid` used to
/// hand `BTreeMap::range` a start above its end and abort `run_sql`
/// (inside the shard thread on a sharded deployment). It selects
/// nothing.
#[test]
fn inverted_between_on_an_indexed_column_selects_nothing() {
    for sharded in [false, true] {
        let system = clinical(sharded);
        for sql in [
            "SELECT pid FROM admissions WHERE pid BETWEEN 10 AND 5",
            "SELECT pid FROM admissions WHERE pid BETWEEN 'a' AND 5",
            "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
             WHERE pid BETWEEN 10 AND 5",
        ] {
            let report = system
                .run_sql(sql)
                .unwrap_or_else(|e| panic!("{sql} ({sharded}): {e}"));
            assert_eq!(report.execution.outputs[0].len(), 0, "{sql}");
        }
        // The well-formed range next to it still answers.
        let report = system
            .run_sql("SELECT pid FROM admissions WHERE pid BETWEEN 5 AND 10")
            .expect("runs");
        assert_eq!(report.execution.outputs[0].len(), 6);
    }
}

/// `db1.items(k, s, b)` and `db1.tags(k, t)`, and `db2.others(k, s, b)`:
/// `Str` and `Bytes` columns holding NULL, the empty value and
/// duplicates, and `Int` keys with NULLs and duplicates.
fn string_deployment() -> (EngineRegistry, Catalog) {
    let text = |i: i64| match i % 5 {
        0 => Value::Null,
        1 => Value::from(""),
        _ => Value::from(format!("s{}", i % 6)),
    };
    let bytes = |i: i64| match i % 4 {
        0 => Value::Null,
        1 => Value::Bytes(Vec::new()),
        _ => Value::Bytes(vec![i as u8; (i % 3) as usize + 1]),
    };
    let key = |i: i64, of: i64| {
        if i % 11 == 3 {
            Value::Null
        } else {
            Value::Int(i % of)
        }
    };
    let wide = Schema::new(vec![
        ("k", DataType::Int),
        ("s", DataType::Str),
        ("b", DataType::Bytes),
    ]);
    let tags = Schema::new(vec![("k", DataType::Int), ("t", DataType::Str)]);
    let mut registry = EngineRegistry::new();
    let mut catalog = Catalog::new();
    let mut db1 = RelationalStore::new("db1");
    db1.create_table("items", wide.clone()).unwrap();
    db1.insert(
        "items",
        (0..40i64)
            .map(|i| Row::from(vec![key(i, 7), text(i), bytes(i)]))
            .collect(),
    )
    .unwrap();
    db1.create_table("tags", tags.clone()).unwrap();
    db1.insert(
        "tags",
        (0..12i64)
            .map(|i| Row::from(vec![key(i + 1, 5), text(i + 2)]))
            .collect(),
    )
    .unwrap();
    let mut db2 = RelationalStore::new("db2");
    db2.create_table("others", wide.clone()).unwrap();
    db2.insert(
        "others",
        (0..30i64)
            .map(|i| Row::from(vec![key(i, 9), text(i + 3), bytes(i + 1)]))
            .collect(),
    )
    .unwrap();
    for (engine, store, tables) in [
        ("db1", db1, vec![("items", &wide), ("tags", &tags)]),
        ("db2", db2, vec![("others", &wide)]),
    ] {
        for (table, schema) in tables {
            catalog.register(TableRef::new(engine, table), schema.clone());
        }
        registry
            .register(EngineId::new(engine), EngineInstance::Relational(store))
            .unwrap();
    }
    registry.set_fleet(AcceleratorFleet::workstation());
    (registry, catalog)
}

/// The programs of [`strings_join_and_project_as_they_did`]: both joins
/// within one engine and across two, keyed on `Int` and on `Str`, a
/// projection over a scan, and a scan that projects.
fn string_programs() -> Vec<Program> {
    let scan = |p: &mut Program, engine: &str, table: &str| {
        p.add_source(Operator::scan(TableRef::new(engine, table)), "sql")
    };
    let join = |right: (&str, &str), on: &str, merge: bool, top: Option<&[&str]>| {
        let mut p = Program::new();
        let l = scan(&mut p, "db1", "items");
        let r = scan(&mut p, right.0, right.1);
        let (left_on, right_on) = (on.to_owned(), on.to_owned());
        let op = if merge {
            Operator::SortMergeJoin { left_on, right_on }
        } else {
            Operator::HashJoin { left_on, right_on }
        };
        let mut out = p.add_node(op, vec![l, r], "sql");
        if let Some(columns) = top {
            let columns = columns.iter().map(|c| c.to_string()).collect();
            out = p.add_node(Operator::Project { columns }, vec![out], "sql");
        }
        p.mark_output(out);
        p
    };
    let mut project = Program::new();
    let items = scan(&mut project, "db1", "items");
    let columns = vec!["b".to_owned(), "s".to_owned()];
    let out = project.add_node(Operator::Project { columns }, vec![items], "sql");
    project.mark_output(out);
    let mut projecting = Program::new();
    let out = projecting.add_source(
        Operator::Scan {
            table: TableRef::new("db1", "items"),
            predicate: Predicate::True,
            projection: Some(vec!["s".to_owned(), "b".to_owned()]),
        },
        "sql",
    );
    projecting.mark_output(out);
    vec![
        join(("db1", "tags"), "k", false, None),
        join(("db1", "tags"), "k", false, Some(&["t", "b", "s"])),
        join(("db2", "others"), "k", false, None),
        join(("db2", "others"), "k", true, Some(&["s_r", "b"])),
        join(("db2", "others"), "s", false, None),
        join(("db2", "others"), "s", true, None),
        join(("db1", "items"), "b", true, Some(&["k", "b_r"])),
        project,
        projecting,
    ]
}

/// FNV of the schema names, the rows' `Debug` (in order) and the
/// carried byte size of every program of [`string_programs`], run by
/// the bare executor and then by the optimizer (L3: the demand pass
/// narrows the joins' emit and the migrations), captured at the commit
/// before `Str` and `Bytes` columns had a column image and output rows
/// were built a column at a time out of it.
const STRING_GOLDEN: [u64; 18] = [
    0xdd991427a37cbc42,
    0xc3a7a5e469bb5f13,
    0x35400e8d8f863ddf,
    0xa3aa51be23b9cf09,
    0x2b9bea23ce430675,
    0x0eda12ee943770a5,
    0xebf97a13f31b9d1b,
    0xb828631578c6876c,
    0xa384130495c9c944,
    0xdd991427a37cbc42,
    0xc3a7a5e469bb5f13,
    0x35400e8d8f863ddf,
    0x84392808a1ccf8df,
    0x2b9bea23ce430675,
    0x2b9bea23ce430675,
    0x7141a15ccbe73f9b,
    0xb828631578c6876c,
    0xa384130495c9c944,
];

#[test]
fn strings_join_and_project_as_they_did() {
    use polystorepp::common::partition::{fnv1a, FNV_OFFSET};
    let digest = |d: &Dataset| {
        let rows = d.try_rows().expect("rows");
        assert!(!rows.is_empty());
        assert_eq!(d.byte_size(), walked_bytes(rows));
        let seen = format!(
            "{:?} {rows:?} {}",
            d.schema().unwrap().names(),
            d.byte_size()
        );
        fnv1a(seen.as_bytes(), FNV_OFFSET)
    };
    let (registry, catalog) = string_deployment();
    let system = Polystore::from_deployment(Deployment {
        registry: registry.clone(),
        catalog,
        stats: std::collections::HashMap::new(),
        clinical_names: Default::default(),
    })
    .opt_level(OptLevel::L3)
    .build()
    .expect("valid config");
    let mut got = Vec::new();
    for program in string_programs() {
        got.push(digest(&run(&program, &registry)[0]));
    }
    for program in string_programs() {
        let report = system.run_program(program).expect("program runs");
        assert_built(&report.execution.outputs);
        got.push(digest(&report.execution.outputs[0]));
    }
    assert_eq!(got, STRING_GOLDEN, "got {got:#x?}");
}
