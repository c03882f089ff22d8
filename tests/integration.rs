//! Cross-crate integration tests: frontends → optimizer → runtime →
//! engines, plus property-based invariants on the core data paths.

use polystorepp::accel::kernels::BitonicSorter;
use polystorepp::migrate::{binary_decode, binary_encode, MigrationPath, Migrator};
use polystorepp::prelude::*;
use proptest::prelude::*;

fn clinical_system(level: OptLevel) -> Polystore {
    Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 150,
        vitals_per_patient: 8,
        seed: 99,
    }))
    .accelerators(AcceleratorFleet::workstation())
    .opt_level(level)
    .build()
    .expect("valid config")
}

#[test]
fn federated_sql_matches_manual_join() {
    let s = clinical_system(OptLevel::L2);
    let report = s
        .run_sql(
            "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
             WHERE age >= 90",
        )
        .expect("query runs");
    // Manual: count admissions with age >= 90 directly.
    let db1 = s
        .registry()
        .relational(&EngineId::new("db1"))
        .expect("exists");
    let expected = db1
        .scan("admissions", &Predicate::ge("age", 90i64), None)
        .expect("scan runs")
        .rows
        .len();
    assert_eq!(report.execution.outputs[0].len(), expected);
}

/// The federated join ships the small side: the age filter runs in the
/// `admissions` scan (L1), the join runs on db2 next to the unfiltered
/// `patients` table (L2 site rule), and what crosses engines is the
/// filtered `admissions` rows — the literal plan's rows, in its order,
/// for less migration.
#[test]
fn federated_join_ships_the_filtered_side() {
    let query = "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
                 WHERE age BETWEEN 40 AND 55";
    let literal = clinical_system(OptLevel::None)
        .run_sql(query)
        .expect("runs unoptimized");
    let shipped = clinical_system(OptLevel::L3)
        .run_sql(query)
        .expect("runs optimized");
    let rows = shipped.execution.outputs[0].try_rows().expect("rows");
    assert!(!rows.is_empty());
    assert_eq!(rows, literal.execution.outputs[0].try_rows().expect("rows"));
    assert_eq!(shipped.rewrites.join_pushdowns, 1);
    let placement = shipped.placement.as_ref().expect("L3 places");
    let [site] = &placement.join_sites[..] else {
        panic!("one cross-engine join: {:?}", placement.join_sites);
    };
    assert_eq!(site.site, EngineId::new("db2"));
    assert!(
        site.left.1 < site.right.1,
        "filtered admissions are the small side"
    );
    assert!(
        shipped.execution.migration_seconds < literal.execution.migration_seconds,
        "{} vs {}",
        shipped.execution.migration_seconds,
        literal.execution.migration_seconds
    );
    // The decision is legible in the plan, and beside the executed
    // migration once it ran.
    for explain in [placement.explain(), shipped.explain_analyze()] {
        assert!(explain.contains("site=db2 (left db1 "), "{explain}");
    }
}

#[test]
fn optimization_preserves_results() {
    let query = "SELECT pid, age FROM admissions WHERE age >= 40 AND age < 70 ORDER BY age, pid";
    let none = clinical_system(OptLevel::None);
    let l3 = clinical_system(OptLevel::L3);
    let a = none.run_sql(query).expect("runs unoptimized");
    let b = l3.run_sql(query).expect("runs optimized");
    assert_eq!(
        a.execution.outputs[0].try_rows().expect("rows"),
        b.execution.outputs[0].try_rows().expect("rows"),
    );
    // And the optimized plan is no slower.
    assert!(b.makespan() <= a.makespan() + 1e-12);
}

#[test]
fn clinical_nlq_end_to_end_model_quality() {
    let s = clinical_system(OptLevel::L3);
    let report = s
        .run_nlq("Will patients have a long stay at the hospital?")
        .expect("nlq compiles and runs");
    let model = report.execution.outputs[0]
        .try_model()
        .expect("model output");
    assert!(model.parameter_count() > 0);
    assert!(report.execution.offloaded > 0, "accelerators unused");
}

#[test]
fn migration_paths_agree_on_content() {
    let (schema, rows) = datagen::pipegen_rows(500, 3).expect("generated");
    let batch = Batch::from_rows(&schema, rows.clone()).expect("valid batch");
    let migrator = Migrator::new();
    for path in [
        MigrationPath::CsvFile,
        MigrationPath::BinaryPipe,
        MigrationPath::Rdma,
    ] {
        let (out, report) = migrator
            .migrate(&batch, path, DataModel::Relational, DataModel::Relational)
            .expect("migration runs");
        assert_eq!(out.to_rows(), rows, "{path:?} corrupted data");
        assert!(report.total.as_secs() > 0.0);
    }
}

#[test]
fn graph_and_text_engines_reachable_through_programs() {
    let s = clinical_system(OptLevel::L2);
    let program = HeterogeneousProgram::builder()
        .subprogram(
            "paths",
            Language::Cypher {
                graph: "clinical".into(),
            },
            "MATCH (p:Patient)-[:HAS_ADMISSION]->(a:Admission)-[:IN_WARD]->(w:Ward) RETURN PATHS",
            &[],
        )
        .build(s.catalog())
        .expect("compiles");
    let report = s.run_program(program).expect("executes");
    assert!(!report.execution.outputs[0].is_empty());

    let program = HeterogeneousProgram::builder()
        .subprogram(
            "hits",
            Language::TextSearch {
                dataset: "notes".into(),
            },
            "SEARCH sepsis MODE any",
            &[],
        )
        .build(s.catalog())
        .expect("compiles");
    let report = s.run_program(program).expect("executes");
    assert!(!report.execution.outputs[0].is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitonic_sort_matches_std(mut xs in prop::collection::vec(any::<i32>(), 0..300)) {
        let mut expect = xs.clone();
        expect.sort_unstable();
        BitonicSorter::sort_host(&mut xs);
        prop_assert_eq!(xs, expect);
    }

    #[test]
    fn binary_codec_roundtrips(n in 1usize..200, seed in 0u64..1000) {
        let (schema, rows) = datagen::pipegen_rows(n, seed).expect("generated");
        let batch = Batch::from_rows(&schema, rows.clone()).expect("valid batch");
        let decoded = binary_decode(&schema, &binary_encode(&batch)).expect("decodes");
        prop_assert_eq!(decoded.to_rows(), rows);
    }

    #[test]
    fn predicate_selectivity_in_unit_interval(v in -1000i64..1000) {
        let p = Predicate::gt("x", v).and(Predicate::le("x", v + 10)).or(Predicate::IsNull("x".into()));
        let s = p.selectivity();
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn value_ordering_total(a in any::<i64>(), b in any::<f64>()) {
        // Mixed numeric comparisons never panic and are antisymmetric.
        let va = Value::Int(a);
        let vb = Value::Float(b);
        let ord1 = va.cmp(&vb);
        let ord2 = vb.cmp(&va);
        prop_assert_eq!(ord1, ord2.reverse());
    }
}
