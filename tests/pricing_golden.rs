//! The planned side of the simulated clock, pinned across commits the
//! way `data_plane.rs` pins the executed side: every figure
//! `CostModel::place` hands out and every bill the executor posts, on
//! polybench's OLAP deployment under each plan switch, E23's fused and
//! queued pipelines, and the paper's Fig. 2 question. Beside it, one
//! invariant of the queue pass is checked on that deployment.
//!
//! [`GOLDEN`] was captured at PR 19's parent (`1828cad`), where the
//! switches were still four builder setters: this file, with
//! [`with_switch`] written over `exchange(false)` / `colocated_joins(false)`
//! / `kernel_fusion(false)` / `materialize_repartitions(true)` and the
//! test printing [`lines`] instead of comparing them, was run there in
//! the debug and the release profile (identical output). A change to
//! the price list (`pspp_optimizer::price`), the cost model, the
//! charger or an exchange barrier must keep it green **without editing
//! the constants**.
//!
//! The ten `q3` records (the federated join, five switches × two shard
//! counts) were re-captured at PR 24, which ships and builds only the
//! columns somebody reads: `admissions` crosses engines as `[pid]`, one
//! column of five, so the planned migration, the executed makespan and
//! energy and the ledger's byte counts all fell (CHANGES.md lists each
//! old → new pair); picks, chains and exchange seconds did not move.
//! The other 57 records are PR 19's parent's.

use polystorepp::common::partition::{fnv1a, FNV_OFFSET};
use polystorepp::common::PartitionSpec;
use polystorepp::core::Deployment;
use polystorepp::prelude::*;

const OLAP_TEMPLATES: [&str; 6] = [
    "SELECT pid, age, date FROM admissions WHERE date BETWEEN 1000 AND 1729 ORDER BY date",
    "SELECT pid, los FROM admissions WHERE age BETWEEN 40 AND 70 ORDER BY los DESC, pid LIMIT 10",
    "SELECT count(*) AS n FROM admissions WHERE date >= 1000 AND date < 1730",
    "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
     WHERE age BETWEEN 40 AND 55",
    "SELECT pid, count(*) AS n FROM admissions WHERE date >= 500 AND date < 2325 GROUP BY pid",
    "SELECT age, avg(los) AS m FROM admissions WHERE date >= 50 GROUP BY age",
];

const VARIANTS: [&str; 5] = [
    "defaults",
    "exchange_off",
    "colocate_off",
    "fusion_off",
    "materialize_on",
];

fn with_switch(variant: &str) -> PlanOptions {
    let defaults = PlanOptions::default();
    match variant {
        "defaults" => defaults,
        "exchange_off" => PlanOptions {
            exchange: false,
            ..defaults
        },
        "colocate_off" => PlanOptions {
            colocate: false,
            ..defaults
        },
        "fusion_off" => PlanOptions {
            fusion: false,
            ..defaults
        },
        "materialize_on" => PlanOptions {
            materialize: true,
            ..defaults
        },
        other => panic!("unknown variant {other}"),
    }
}

/// polybench's OLAP deployment: L3 over the workstation fleet, at one
/// shard or at `shards` with `patients` hashed on `name`.
fn system(deployment: &Deployment, shards: usize, variant: &str) -> Polystore {
    let mut builder = Polystore::from_deployment(deployment.clone())
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(OptLevel::L3);
    if shards > 1 {
        builder = builder.shards(shards).partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::hash("name", shards as u32),
        );
    }
    builder
        .plan_options(with_switch(variant))
        .build()
        .expect("valid config")
}

fn fnv(text: &str) -> u64 {
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

/// One run as text: the plan's four totals (bits), its sorted device
/// picks and its fused chains (FNV of their `Debug`), then the executed
/// makespan and energy (bits) and the ledger's `(component, device,
/// kind, bytes, duration bits)` list (length and FNV).
fn record(system: &Polystore, report: &RunReport) -> String {
    let plan = report.placement.as_ref().expect("L3 places");
    let mut picks: Vec<_> = plan.device_picks.iter().map(|(k, d)| (*k, *d)).collect();
    picks.sort();
    let chains: Vec<_> = plan
        .fused_chains
        .iter()
        .map(|c| {
            (
                c.shard,
                c.device,
                c.nodes.clone(),
                c.saved_seconds.to_bits(),
            )
        })
        .collect();
    let events: Vec<_> = system
        .ledger()
        .events()
        .into_iter()
        .map(|e| {
            (
                e.component,
                e.device,
                e.kind,
                e.bytes,
                e.duration.as_secs().to_bits(),
            )
        })
        .collect();
    format!(
        "plan {:016x} {:016x} {:016x} {:016x} picks {:016x} chains {}:{:016x} exec {:016x} {:016x} ledger {}:{:016x}",
        plan.total_seconds.to_bits(),
        plan.migration_seconds.to_bits(),
        plan.exchange_seconds.to_bits(),
        plan.queue_wait_seconds.to_bits(),
        fnv(&format!("{picks:?}")),
        chains.len(),
        fnv(&format!("{chains:?}")),
        report.makespan().to_bits(),
        report.costs.energy_j.to_bits(),
        events.len(),
        fnv(&format!("{events:?}")),
    )
}

fn two_sort_program() -> Program {
    let mut p = Program::new();
    let mut tail = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
    for column in ["age", "pid"] {
        tail = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: column.into(),
                    ascending: true,
                }],
            },
            vec![tail],
            "sql",
        );
    }
    p.mark_output(tail);
    p
}

fn twin_train_program() -> Program {
    let mut p = Program::new();
    let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
    for _ in 0..2 {
        let t = p.add_node(
            Operator::TrainMlp {
                label_column: "long_stay".into(),
                hidden: vec![32],
                epochs: 2,
                batch_size: 32,
                learning_rate: 0.3,
            },
            vec![scan],
            "ml",
        );
        p.mark_output(t);
    }
    p
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let deployment = datagen::clinical(&ClinicalConfig {
        patients: 10_000,
        vitals_per_patient: 4,
        seed: 2019,
    });
    for shards in [1usize, 2] {
        for variant in VARIANTS {
            let system = system(&deployment, shards, variant);
            for (idx, sql) in OLAP_TEMPLATES.iter().enumerate() {
                let mut report = system.run_sql(sql).expect("template runs");
                if variant == "materialize_on" {
                    report = system.run_sql(sql).expect("template runs again");
                }
                out.push(format!(
                    "{shards} {variant} q{idx} {}",
                    record(&system, &report)
                ));
            }
        }
    }
    // E23's two IR pipelines (back-to-back sorts: the fusion candidate;
    // twin trainings: two same-stage tasks on one TPU) at E23's size, on
    // a fleet declaring one instance of each device.
    let big = datagen::clinical(&ClinicalConfig {
        patients: 60_000,
        vitals_per_patient: 1,
        seed: 2019,
    });
    for shards in [1usize, 2] {
        for fusion in [true, false] {
            let mut fleet = AcceleratorFleet::workstation();
            for kind in [DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Tpu] {
                fleet = fleet.with_capacity(kind, 1);
            }
            let system = Polystore::from_deployment(big.clone())
                .accelerators(fleet)
                .opt_level(OptLevel::L2)
                .plan_options(PlanOptions {
                    fusion,
                    ..PlanOptions::default()
                })
                .shards(shards)
                .build()
                .expect("valid config");
            let variant = if fusion { "cap1" } else { "cap1_fusion_off" };
            let mut pipelines = vec![("two_sort", two_sort_program())];
            if fusion {
                // Nothing fuses in the twin trainings; one run pins them.
                pipelines.push(("twin_train", twin_train_program()));
            }
            for (name, program) in pipelines {
                let report = system.run_program(program).expect("pipeline runs");
                out.push(format!(
                    "{shards} {variant} {name} {}",
                    record(&system, &report)
                ));
            }
        }
    }
    let fig2 = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 2_000,
        vitals_per_patient: 16,
        seed: 2019,
    }))
    .accelerators(AcceleratorFleet::workstation())
    .opt_level(OptLevel::L3)
    .build()
    .expect("valid config");
    let report = fig2
        .run_nlq("Will patients have a long stay at the hospital or short when they exit the ICU?")
        .expect("nlq compiles and runs");
    out.push(format!("1 defaults fig2 {}", record(&fig2, &report)));
    out
}

#[test]
fn planned_and_executed_figures_are_the_parents() {
    let got = lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "got:\n{}", got.join("\n"));
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

/// The queue pass's invariant: planned queue wait is zero in every
/// stage where no device has more planned tasks than its capacity —
/// over the six OLAP templates and E23's two pipelines at 1, 2 and 4
/// shards, with every accelerator's capacity 1 to 4. Only plans are
/// made, over the OLAP deployment's statistics scaled 100-fold, so that
/// tasks offload; the twin trainings put two tasks on one TPU.
#[test]
fn no_stage_waits_where_no_device_is_over_capacity() {
    let mut deployment = datagen::clinical(&ClinicalConfig {
        patients: 10_000,
        vitals_per_patient: 4,
        seed: 2019,
    });
    for stats in deployment.stats.values_mut() {
        stats.rows *= 100.0;
    }
    let devices = [DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Tpu];
    let (mut within, mut over) = (0, 0);
    for shards in [1usize, 2, 4] {
        for capacity in 1..=4 {
            let fleet = (devices.iter()).fold(AcceleratorFleet::workstation(), |fleet, &kind| {
                fleet.with_capacity(kind, capacity)
            });
            let system = Polystore::from_deployment(deployment.clone())
                .accelerators(fleet)
                .opt_level(OptLevel::L3)
                .shards(shards)
                .partition(
                    TableRef::new("db2", "patients"),
                    PartitionSpec::hash("name", shards as u32),
                )
                .build()
                .expect("valid config");
            let compiled = OLAP_TEMPLATES.map(|sql| system.compile_sql(sql).expect("compiles"));
            let programs = compiled
                .into_iter()
                .chain([two_sort_program(), twin_train_program()]);
            for (idx, mut program) in programs.enumerate() {
                let (_, placement) = system.optimize(&mut program).expect("optimizes");
                let picks = placement.expect("L3 places").device_picks;
                for stage in program.execution_stages().expect("acyclic") {
                    let mut tasks = std::collections::HashMap::<DeviceKind, usize>::new();
                    for (&(id, _), &device) in &picks {
                        if device != DeviceKind::Cpu && stage.compute.contains(&id) {
                            *tasks.entry(device).or_default() += 1;
                        }
                    }
                    if tasks.values().any(|&n| n > capacity) {
                        over += 1;
                        continue;
                    }
                    within += usize::from(!tasks.is_empty());
                    let waits = (stage.compute.iter())
                        .flat_map(|&id| program.node(id).annotations.shard_queue_waits.clone())
                        .flatten();
                    assert_eq!(
                        waits.sum::<f64>(),
                        0.0,
                        "{shards} shards, capacity {capacity}, program {idx}"
                    );
                }
            }
        }
    }
    assert!(
        within > 0 && over > 0,
        "stages on devices within and over capacity"
    );
}

const GOLDEN: &str = "\
1 defaults q0 plan 3ed62c83de3820ca 0000000000000000 0000000000000000 0000000000000000 picks a987bc0a162d6662 chains 0:09612b07b5ecb5a5 exec 3ec8727bb1904470 3f403dc91ca25b6e ledger 3:d404316562b44160\n\
1 defaults q1 plan 3ed633ac632e30f9 0000000000000000 0000000000000000 0000000000000000 picks b44823792e97e340 chains 0:09612b07b5ecb5a5 exec 3edac14f430c1c1b 3f5132d67a58efea ledger 4:1a8754d1299a9149\n\
1 defaults q2 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eb6f10286675d01 3f25822ba22897b2 ledger 2:fb93d850a4a463de\n\
1 defaults q3 plan 3f0f3afdfd15ba21 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks 6c65909312761c3e chains 0:09612b07b5ecb5a5 exec 3f374bcc0653563f 3f607041ce1d4b86 ledger 7:3be9545c084c19a0\n\
1 defaults q4 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eccfa925d95e307 3f3b2af788c670f6 ledger 2:cf220f08f31e8fe7\n\
1 defaults q5 plan 3ec8393789dfc2fa 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3edcaa43c9ed5d7a 3f4adfca806c4c03 ledger 2:7be3bea19d2453a2\n\
1 exchange_off q0 plan 3ed62c83de3820ca 0000000000000000 0000000000000000 0000000000000000 picks a987bc0a162d6662 chains 0:09612b07b5ecb5a5 exec 3ec8727bb1904470 3f403dc91ca25b6e ledger 3:d404316562b44160\n\
1 exchange_off q1 plan 3ed633ac632e30f9 0000000000000000 0000000000000000 0000000000000000 picks b44823792e97e340 chains 0:09612b07b5ecb5a5 exec 3edac14f430c1c1b 3f5132d67a58efea ledger 4:1a8754d1299a9149\n\
1 exchange_off q2 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eb6f10286675d01 3f25822ba22897b2 ledger 2:fb93d850a4a463de\n\
1 exchange_off q3 plan 3f0f3afdfd15ba21 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks 6c65909312761c3e chains 0:09612b07b5ecb5a5 exec 3f374bcc0653563f 3f607041ce1d4b86 ledger 7:3be9545c084c19a0\n\
1 exchange_off q4 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eccfa925d95e307 3f3b2af788c670f6 ledger 2:cf220f08f31e8fe7\n\
1 exchange_off q5 plan 3ec8393789dfc2fa 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3edcaa43c9ed5d7a 3f4adfca806c4c03 ledger 2:7be3bea19d2453a2\n\
1 colocate_off q0 plan 3ed62c83de3820ca 0000000000000000 0000000000000000 0000000000000000 picks a987bc0a162d6662 chains 0:09612b07b5ecb5a5 exec 3ec8727bb1904470 3f403dc91ca25b6e ledger 3:d404316562b44160\n\
1 colocate_off q1 plan 3ed633ac632e30f9 0000000000000000 0000000000000000 0000000000000000 picks b44823792e97e340 chains 0:09612b07b5ecb5a5 exec 3edac14f430c1c1b 3f5132d67a58efea ledger 4:1a8754d1299a9149\n\
1 colocate_off q2 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eb6f10286675d01 3f25822ba22897b2 ledger 2:fb93d850a4a463de\n\
1 colocate_off q3 plan 3f0f3afdfd15ba21 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks 6c65909312761c3e chains 0:09612b07b5ecb5a5 exec 3f374bcc0653563f 3f607041ce1d4b86 ledger 7:3be9545c084c19a0\n\
1 colocate_off q4 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eccfa925d95e307 3f3b2af788c670f6 ledger 2:cf220f08f31e8fe7\n\
1 colocate_off q5 plan 3ec8393789dfc2fa 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3edcaa43c9ed5d7a 3f4adfca806c4c03 ledger 2:7be3bea19d2453a2\n\
1 fusion_off q0 plan 3ed62c83de3820ca 0000000000000000 0000000000000000 0000000000000000 picks a987bc0a162d6662 chains 0:09612b07b5ecb5a5 exec 3ec8727bb1904470 3f403dc91ca25b6e ledger 3:d404316562b44160\n\
1 fusion_off q1 plan 3ed633ac632e30f9 0000000000000000 0000000000000000 0000000000000000 picks b44823792e97e340 chains 0:09612b07b5ecb5a5 exec 3edac14f430c1c1b 3f5132d67a58efea ledger 4:1a8754d1299a9149\n\
1 fusion_off q2 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eb6f10286675d01 3f25822ba22897b2 ledger 2:fb93d850a4a463de\n\
1 fusion_off q3 plan 3f0f3afdfd15ba21 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks 6c65909312761c3e chains 0:09612b07b5ecb5a5 exec 3f374bcc0653563f 3f607041ce1d4b86 ledger 7:3be9545c084c19a0\n\
1 fusion_off q4 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eccfa925d95e307 3f3b2af788c670f6 ledger 2:cf220f08f31e8fe7\n\
1 fusion_off q5 plan 3ec8393789dfc2fa 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3edcaa43c9ed5d7a 3f4adfca806c4c03 ledger 2:7be3bea19d2453a2\n\
1 materialize_on q0 plan 3ed62c83de3820ca 0000000000000000 0000000000000000 0000000000000000 picks a987bc0a162d6662 chains 0:09612b07b5ecb5a5 exec 3ec8727bb1904470 3f403dc91ca25b6e ledger 3:d404316562b44160\n\
1 materialize_on q1 plan 3ed633ac632e30f9 0000000000000000 0000000000000000 0000000000000000 picks b44823792e97e340 chains 0:09612b07b5ecb5a5 exec 3edac14f430c1c1b 3f5132d67a58efea ledger 4:1a8754d1299a9149\n\
1 materialize_on q2 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eb6f10286675d01 3f25822ba22897b2 ledger 2:fb93d850a4a463de\n\
1 materialize_on q3 plan 3f0f3afdfd15ba21 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks 6c65909312761c3e chains 0:09612b07b5ecb5a5 exec 3f374bcc0653563f 3f607041ce1d4b86 ledger 7:3be9545c084c19a0\n\
1 materialize_on q4 plan 3eaffa35299c4a68 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3eccfa925d95e307 3f3b2af788c670f6 ledger 2:cf220f08f31e8fe7\n\
1 materialize_on q5 plan 3ec8393789dfc2fa 0000000000000000 0000000000000000 0000000000000000 picks 95fe030635311973 chains 0:09612b07b5ecb5a5 exec 3edcaa43c9ed5d7a 3f4adfca806c4c03 ledger 2:7be3bea19d2453a2\n\
2 defaults q0 plan 3ee2196b6f481aaf 0000000000000000 0000000000000000 0000000000000000 picks cde97fd22bce957d chains 0:09612b07b5ecb5a5 exec 3ec7c40008a279fc 3f403dc91ca25b6e ledger 4:c742b0dbdad43f38\n\
2 defaults q1 plan 3ee21cffb1c322c6 0000000000000000 0000000000000000 0000000000000000 picks 32cfef21b48830ab chains 0:09612b07b5ecb5a5 exec 3eda0f8f83dada45 3f5132b479e15f1d ledger 5:603908a8a5d9a0e6\n\
2 defaults q2 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ea8128fef156b96 3f25822ba22897b2 ledger 3:6ca6214eb0e58366\n\
2 defaults q3 plan 3f4536a2f98ef1f0 3f02dfd694ccab3f 3f4303af7ea4e849 0000000000000000 picks a2fc93333064c0da chains 0:09612b07b5ecb5a5 exec 3f43faa5d1a5d605 3f607041ce1d4b87 ledger 14:74b3ee0be600bdce\n\
2 defaults q4 plan 3ee1ca0bdf720959 0000000000000000 0000000000000000 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ebd25ca3389e4bb 3f3b2b7f8aa4b42b ledger 4:cdda8f962055df2d\n\
2 defaults q5 plan 3eec3db0312d1604 0000000000000000 3ed0caa88544cde5 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ecdc5547a1c6d66 3f4adfca806c4c03 ledger 3:ecea7b8ddff801e5\n\
2 exchange_off q0 plan 3ee2196b6f481aaf 0000000000000000 0000000000000000 0000000000000000 picks cde97fd22bce957d chains 0:09612b07b5ecb5a5 exec 3ec7c40008a279fc 3f403dc91ca25b6e ledger 4:c742b0dbdad43f38\n\
2 exchange_off q1 plan 3ee21cffb1c322c6 0000000000000000 0000000000000000 0000000000000000 picks 32cfef21b48830ab chains 0:09612b07b5ecb5a5 exec 3eda0f8f83dada45 3f5132b479e15f1d ledger 5:603908a8a5d9a0e6\n\
2 exchange_off q2 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ea8128fef156b96 3f25822ba22897b2 ledger 3:6ca6214eb0e58366\n\
2 exchange_off q3 plan 3f10dadd75804e88 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks e371c1b47ad7e1db chains 0:09612b07b5ecb5a5 exec 3f37482582eba77e 3f607041ce1d4b86 ledger 9:a27050983a9db280\n\
2 exchange_off q4 plan 3ee1ca0bdf720959 0000000000000000 0000000000000000 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ebd25ca3389e4bb 3f3b2b7f8aa4b42b ledger 4:cdda8f962055df2d\n\
2 exchange_off q5 plan 3ed858ea29d7c2a2 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ecdc5547a1c6d66 3f4adfca806c4c03 ledger 3:ecea7b8ddff801e5\n\
2 colocate_off q0 plan 3ee2196b6f481aaf 0000000000000000 0000000000000000 0000000000000000 picks cde97fd22bce957d chains 0:09612b07b5ecb5a5 exec 3ec7c40008a279fc 3f403dc91ca25b6e ledger 4:c742b0dbdad43f38\n\
2 colocate_off q1 plan 3ee21cffb1c322c6 0000000000000000 0000000000000000 0000000000000000 picks 32cfef21b48830ab chains 0:09612b07b5ecb5a5 exec 3eda0f8f83dada45 3f5132b479e15f1d ledger 5:603908a8a5d9a0e6\n\
2 colocate_off q2 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ea8128fef156b96 3f25822ba22897b2 ledger 3:6ca6214eb0e58366\n\
2 colocate_off q3 plan 3f10dadd75804e88 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks e371c1b47ad7e1db chains 0:09612b07b5ecb5a5 exec 3f37482582eba77e 3f607041ce1d4b86 ledger 9:a27050983a9db280\n\
2 colocate_off q4 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ebe3afe83a91766 3f3b2af788c670f7 ledger 3:acd9c886504d4698\n\
2 colocate_off q5 plan 3ed858ea29d7c2a2 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ecdc5547a1c6d66 3f4adfca806c4c03 ledger 3:ecea7b8ddff801e5\n\
2 fusion_off q0 plan 3ee2196b6f481aaf 0000000000000000 0000000000000000 0000000000000000 picks cde97fd22bce957d chains 0:09612b07b5ecb5a5 exec 3ec7c40008a279fc 3f403dc91ca25b6e ledger 4:c742b0dbdad43f38\n\
2 fusion_off q1 plan 3ee21cffb1c322c6 0000000000000000 0000000000000000 0000000000000000 picks 32cfef21b48830ab chains 0:09612b07b5ecb5a5 exec 3eda0f8f83dada45 3f5132b479e15f1d ledger 5:603908a8a5d9a0e6\n\
2 fusion_off q2 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ea8128fef156b96 3f25822ba22897b2 ledger 3:6ca6214eb0e58366\n\
2 fusion_off q3 plan 3f4536a2f98ef1f0 3f02dfd694ccab3f 3f4303af7ea4e849 0000000000000000 picks a2fc93333064c0da chains 0:09612b07b5ecb5a5 exec 3f43faa5d1a5d605 3f607041ce1d4b87 ledger 14:74b3ee0be600bdce\n\
2 fusion_off q4 plan 3ee1ca0bdf720959 0000000000000000 0000000000000000 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ebd25ca3389e4bb 3f3b2b7f8aa4b42b ledger 4:cdda8f962055df2d\n\
2 fusion_off q5 plan 3eec3db0312d1604 0000000000000000 3ed0caa88544cde5 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ecdc5547a1c6d66 3f4adfca806c4c03 ledger 3:ecea7b8ddff801e5\n\
2 materialize_on q0 plan 3ee2196b6f481aaf 0000000000000000 0000000000000000 0000000000000000 picks cde97fd22bce957d chains 0:09612b07b5ecb5a5 exec 3ec7c40008a279fc 3f403dc91ca25b6e ledger 4:c742b0dbdad43f38\n\
2 materialize_on q1 plan 3ee21cffb1c322c6 0000000000000000 0000000000000000 0000000000000000 picks 32cfef21b48830ab chains 0:09612b07b5ecb5a5 exec 3eda0f8f83dada45 3f5132b479e15f1d ledger 5:603908a8a5d9a0e6\n\
2 materialize_on q2 plan 3ed34690aa7f117a 0000000000000000 0000000000000000 0000000000000000 picks 2451a27c9b793070 chains 0:09612b07b5ecb5a5 exec 3ea8128fef156b96 3f25822ba22897b2 ledger 3:6ca6214eb0e58366\n\
2 materialize_on q3 plan 3f11979bd7504d39 3f02dfd694ccab3f 0000000000000000 0000000000000000 picks a2fc93333064c0da chains 0:09612b07b5ecb5a5 exec 3f2dfa8a281b106b 3f607041ce1d4b87 ledger 14:fc88fb65796da7f2\n\
2 materialize_on q4 plan 3ee1ca0bdf720959 0000000000000000 0000000000000000 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ebd25ca3389e4bb 3f3b2b7f8aa4b42b ledger 4:cdda8f962055df2d\n\
2 materialize_on q5 plan 3eec3db0312d1604 0000000000000000 3ed0caa88544cde5 0000000000000000 picks ee8ee0e4fe093a11 chains 0:09612b07b5ecb5a5 exec 3ecdc5547a1c6d66 3f4adfca806c4c03 ledger 3:ecea7b8ddff801e5\n\
1 cap1 two_sort plan 3f23f90918b052f2 0000000000000000 0000000000000000 0000000000000000 picks 95428a06ce22448c chains 1:ab0b314c106f8fe2 exec 3f23f90918b052f2 3f7b1298a59a757f ledger 3:b107a32b2420543c\n\
1 cap1 twin_train plan 3f470cb7a9db66a4 0000000000000000 0000000000000000 3f2cfc3a22bb96c5 picks 4a38346d81de4d30 chains 0:09612b07b5ecb5a5 exec 3faacdaccf9cc3ac 400f48b25e3ec782 ledger 37504:704e0472660f080e\n\
1 cap1_fusion_off two_sort plan 3f2e24dc0551d15d 0000000000000000 0000000000000000 0000000000000000 picks 95428a06ce22448c chains 0:09612b07b5ecb5a5 exec 3f2e24dc0551d15d 3f81826ab73c5021 ledger 3:6bdc6a2b63d05964\n\
2 cap1 two_sort plan 3f21eaa67f5e06f5 0000000000000000 0000000000000000 0000000000000000 picks df7a4ee07587e2f7 chains 1:ab0b314c106f8fe2 exec 3f2159f26793e5d4 3f7b12a125b859b1 ledger 4:3ca9187f393d9f8e\n\
2 cap1 twin_train plan 3f46891f0386d3a5 0000000000000000 0000000000000000 3f2cfc3a22bb96c5 picks 91381167fcef7f47 chains 0:09612b07b5ecb5a5 exec 3faacb0db8eba73e 400f48b2627ed674 ledger 37505:60f6b260c574257c\n\
2 cap1_fusion_off two_sort plan 3f2c16796bff8560 0000000000000000 0000000000000000 0000000000000000 picks df7a4ee07587e2f7 chains 0:09612b07b5ecb5a5 exec 3f2b85c55435643e 3f81826ef74b423a ledger 4:a2b5c3436054378a\n\
1 defaults fig2 plan 3f9c0276f44fddda 3f90752da98676a7 0000000000000000 0000000000000000 picks 81f3ba92b37c233b chains 0:09612b07b5ecb5a5 exec 3f64048b2b336027 3fc6e660b3a52110 ledger 1773:424500ccf2521539";
