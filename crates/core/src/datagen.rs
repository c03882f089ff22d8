//! Deterministic synthetic deployments.
//!
//! MIMIC-III is credentialed-access, so the clinical deployment
//! reproduces its *shape* instead (see README's "What stands in for
//! what" table): relational admissions, free-text notes, vital-sign
//! timeseries and a patient/admission/ward graph — everything Fig. 2's
//! heterogeneous program touches.

// The builders return a `Deployment`, not a `Result` — the signature
// polybench, the examples and the tests call — so a fixture that does
// not fit its own fixed schema panics with what it was building.
#![allow(clippy::expect_used)]

use std::collections::HashMap;

use pspp_common::{
    row, DataType, EngineId, PartitionSpec, Result, Row, Schema, SplitMix64, TableRef, Value,
};
use pspp_frontend::nlq::ClinicalNames;
use pspp_frontend::Catalog;
use pspp_graphstore::GraphStore;
use pspp_optimizer::TableStats;
use pspp_relstore::RelationalStore;
use pspp_runtime::{EngineInstance, EngineRegistry};
use pspp_textstore::TextStore;
use pspp_tsstore::TimeseriesStore;

/// A ready-to-run deployment: engines + catalog + statistics.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The engines.
    pub registry: EngineRegistry,
    /// Name resolution for the frontends.
    pub catalog: Catalog,
    /// Cardinality statistics for the optimizer.
    pub stats: HashMap<TableRef, TableStats>,
    /// Clinical naming convention (meaningful for clinical deployments).
    pub clinical_names: ClinicalNames,
}

/// Size knobs for the clinical deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClinicalConfig {
    /// Number of patients.
    pub patients: usize,
    /// Vital-sign observations per patient.
    pub vitals_per_patient: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClinicalConfig {
    fn default() -> Self {
        ClinicalConfig {
            patients: 500,
            vitals_per_patient: 48,
            seed: 2019,
        }
    }
}

/// Builds the MIMIC-shaped clinical deployment (Fig. 2).
///
/// Ground truth: `long_stay = 1` when the (synthetic) length of stay
/// exceeds 5 days; age, ICU note keywords and mean heart rate all
/// correlate with it, so the Fig. 2 classifier has signal to learn.
pub fn clinical(config: &ClinicalConfig) -> Deployment {
    let mut rng = SplitMix64::new(config.seed);
    let n = config.patients;

    // ---- relational: admissions (DB1) + patients (DB2, §III example) ----
    let mut db1 = RelationalStore::new("db1");
    db1.create_table(
        "admissions",
        Schema::new(vec![
            ("pid", DataType::Int),
            ("age", DataType::Int),
            ("date", DataType::Int),
            ("los", DataType::Float),
            ("long_stay", DataType::Float),
        ]),
    )
    .expect("fresh store");
    let mut db2 = RelationalStore::new("db2");
    db2.create_table(
        "patients",
        Schema::new(vec![
            ("pid", DataType::Int),
            ("name", DataType::Str),
            ("gender", DataType::Str),
        ]),
    )
    .expect("fresh store");

    let mut notes = TextStore::new("textdb");
    let mut vitals = TimeseriesStore::new("tsdb");
    let mut graph = GraphStore::new("graphdb");

    let ward_icu = graph.add_node("Ward", vec![("name".into(), Value::from("icu"))]);
    let ward_gen = graph.add_node("Ward", vec![("name".into(), Value::from("general"))]);

    for pid in 0..n {
        let age = rng.next_i64(18, 95);
        let severity = rng.next_f64() + (age as f64 - 18.0) / 150.0;
        let los = 1.0 + severity * 9.0 + rng.next_gaussian().abs();
        let long_stay = f64::from(los > 5.0);
        let date = rng.next_i64(0, 3650);
        // Each row goes into its table as it is drawn: no table's rows
        // are ever all held beside its image.
        let admission = row![
            pid as i64,
            age,
            date,
            (los * 10.0).round() / 10.0,
            long_stay
        ];
        db1.insert("admissions", vec![admission])
            .expect("valid rows");
        let patient = row![
            pid as i64,
            format!("patient_{pid}"),
            if rng.next_bool(0.5) { "f" } else { "m" }
        ];
        db2.insert("patients", vec![patient]).expect("valid rows");

        // Notes mention severity-correlated keywords.
        let mut text = format!("patient {pid} admitted. ");
        if severity > 0.9 {
            text.push_str("icu transfer, sepsis suspected, ventilator support. ");
        } else if severity > 0.6 {
            text.push_str("icu observation, vitals unstable. ");
        } else {
            text.push_str("stable, routine monitoring. ");
        }
        notes.add_document(pid as u64, text);

        // Heart-rate series: higher and noisier for severe cases. The
        // series is laid out as `pid*100 + offset`, so a width-100
        // tumbling window aggregates per patient (window_idx == pid).
        let base = 70.0 + severity * 30.0;
        for k in 0..config.vitals_per_patient.min(100) {
            let t = pid as i64 * 100 + k as i64;
            let v = base + rng.next_gaussian() * 5.0;
            vitals.append("vitals", t, v);
        }

        // Graph: Patient -> Admission -> Ward.
        let p = graph.add_node("Patient", vec![("pid".into(), Value::Int(pid as i64))]);
        let a = graph.add_node("Admission", vec![("los".into(), Value::Float(los))]);
        graph
            .add_edge(p, a, "HAS_ADMISSION", 1.0)
            .expect("nodes exist");
        let ward = if severity > 0.6 { ward_icu } else { ward_gen };
        graph
            .add_edge(a, ward, "IN_WARD", 1.0)
            .expect("nodes exist");
    }
    db1.create_index("admissions", "pid")
        .expect("column exists");
    db2.create_index("patients", "pid").expect("column exists");

    // ---- catalog + stats ----
    let mut catalog = Catalog::new();
    let mut stats = HashMap::new();
    let adm_ref = TableRef::new("db1", "admissions");
    catalog.register(
        adm_ref.clone(),
        db1.table("admissions").expect("exists").schema().clone(),
    );
    stats.insert(
        adm_ref,
        TableStats {
            rows: n as f64,
            row_bytes: 40.0,
        },
    );
    let pat_ref = TableRef::new("db2", "patients");
    catalog.register(
        pat_ref.clone(),
        db2.table("patients").expect("exists").schema().clone(),
    );
    stats.insert(
        pat_ref,
        TableStats {
            rows: n as f64,
            row_bytes: 32.0,
        },
    );
    let notes_ref = TableRef::new("textdb", "notes");
    catalog.register(notes_ref.clone(), Schema::empty());
    stats.insert(
        notes_ref,
        TableStats {
            rows: n as f64,
            row_bytes: 80.0,
        },
    );
    let vitals_ref = TableRef::new("tsdb", "vitals");
    catalog.register(vitals_ref.clone(), Schema::empty());
    stats.insert(
        vitals_ref,
        TableStats {
            rows: (n * config.vitals_per_patient) as f64,
            row_bytes: 16.0,
        },
    );
    let graph_ref = TableRef::new("graphdb", "clinical");
    catalog.register(graph_ref.clone(), Schema::empty());
    stats.insert(
        graph_ref,
        TableStats {
            rows: graph.node_count() as f64,
            row_bytes: 24.0,
        },
    );

    // Partition declarations: both relational tables key on `pid`.
    // Rows are generated in ascending pid order, so a range partition's
    // shard-ordered gather reproduces the unsharded row order exactly —
    // the spec stays a single shard until `PolystoreBuilder::shards(n)`
    // scales it out and redistributes the rows.
    catalog
        .set_partition(
            TableRef::new("db1", "admissions"),
            PartitionSpec::range("pid", Vec::new()),
        )
        .expect("valid spec");
    catalog
        .set_partition(
            TableRef::new("db2", "patients"),
            PartitionSpec::range("pid", Vec::new()),
        )
        .expect("valid spec");

    // ---- registry ----
    let mut registry = EngineRegistry::new();
    registry
        .register(EngineId::new("db1"), EngineInstance::Relational(db1))
        .expect("unique id");
    registry
        .register(EngineId::new("db2"), EngineInstance::Relational(db2))
        .expect("unique id");
    registry
        .register(EngineId::new("textdb"), EngineInstance::Text(notes))
        .expect("unique id");
    registry
        .register(EngineId::new("tsdb"), EngineInstance::Timeseries(vitals))
        .expect("unique id");
    registry
        .register(EngineId::new("graphdb"), EngineInstance::Graph(graph))
        .expect("unique id");

    Deployment {
        registry,
        catalog,
        stats,
        clinical_names: ClinicalNames::default(),
    }
}

/// Size knobs for the recommendation deployment (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendationConfig {
    /// Number of customers.
    pub customers: usize,
    /// Clickstream events per customer.
    pub clicks_per_customer: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RecommendationConfig {
    fn default() -> Self {
        RecommendationConfig {
            customers: 1_000,
            clicks_per_customer: 20,
            seed: 7,
        }
    }
}

/// Builds the Fig. 1 enterprise deployment: customers + transactions in
/// an RDBMS, clickstreams in a timeseries store.
pub fn recommendation(config: &RecommendationConfig) -> Deployment {
    let mut rng = SplitMix64::new(config.seed);
    let n = config.customers;

    let mut rdbms = RelationalStore::new("rdbms");
    rdbms
        .create_table(
            "customers",
            Schema::new(vec![
                ("cid", DataType::Int),
                ("segment", DataType::Str),
                ("spend", DataType::Float),
            ]),
        )
        .expect("fresh store");
    rdbms
        .create_table(
            "transactions",
            Schema::new(vec![
                ("cid", DataType::Int),
                ("amount", DataType::Float),
                ("day", DataType::Int),
            ]),
        )
        .expect("fresh store");

    let mut clicks = TimeseriesStore::new("clicks");

    for cid in 0..n {
        let spend = rng.next_range(10.0, 5_000.0);
        let segment = if spend > 2_500.0 {
            "premium"
        } else {
            "standard"
        };
        let customer = row![cid as i64, segment, (spend * 100.0).round() / 100.0];
        rdbms
            .insert("customers", vec![customer])
            .expect("valid rows");
        for _ in 0..rng.next_index(5) + 1 {
            let transaction = row![
                cid as i64,
                (rng.next_range(1.0, 500.0) * 100.0).round() / 100.0,
                rng.next_i64(0, 365)
            ];
            rdbms
                .insert("transactions", vec![transaction])
                .expect("valid rows");
        }
        // A draw no table keeps: without it every later customer,
        // transaction and click moves (`recommendation_rows_are_pinned`).
        rng.next_f64();
        for k in 0..config.clicks_per_customer {
            let t = (cid * config.clicks_per_customer + k) as i64;
            clicks.append("clickstream", t, rng.next_f64());
        }
    }
    let tx_count = rdbms.table("transactions").expect("exists").len();
    rdbms
        .create_index("customers", "cid")
        .expect("column exists");

    let mut catalog = Catalog::new();
    let mut stats = HashMap::new();
    for (name, rows, width) in [
        ("customers", n as f64, 32.0),
        ("transactions", tx_count as f64, 24.0),
    ] {
        let r = TableRef::new("rdbms", name);
        catalog.register(
            r.clone(),
            rdbms.table(name).expect("exists").schema().clone(),
        );
        stats.insert(
            r,
            TableStats {
                rows,
                row_bytes: width,
            },
        );
    }
    let clicks_ref = TableRef::new("clicks", "clickstream");
    catalog.register(clicks_ref.clone(), Schema::empty());
    stats.insert(
        clicks_ref,
        TableStats {
            rows: (n * config.clicks_per_customer) as f64,
            row_bytes: 16.0,
        },
    );

    // Partition declarations: customers range on cid (generated in
    // ascending cid order), transactions colocated by hash on cid.
    catalog
        .set_partition(
            TableRef::new("rdbms", "customers"),
            PartitionSpec::range("cid", Vec::new()),
        )
        .expect("valid spec");
    catalog
        .set_partition(
            TableRef::new("rdbms", "transactions"),
            PartitionSpec::hash("cid", 1),
        )
        .expect("valid spec");

    let mut registry = EngineRegistry::new();
    registry
        .register(EngineId::new("rdbms"), EngineInstance::Relational(rdbms))
        .expect("unique id");
    registry
        .register(EngineId::new("clicks"), EngineInstance::Timeseries(clicks))
        .expect("unique id");

    Deployment {
        registry,
        catalog,
        stats,
        clinical_names: ClinicalNames::default(),
    }
}

/// Balanced range-partition split points for `shards` shards over a
/// *sorted* value list: the values at even ranks, so each shard holds
/// roughly `len / shards` rows. Fewer than `shards - 1` distinct split
/// points (duplicates, tiny tables) leave some shards empty but never
/// lose rows.
pub fn range_split_points(sorted: &[Value], shards: usize) -> Vec<Value> {
    if shards <= 1 || sorted.is_empty() {
        return Vec::new();
    }
    (1..shards)
        .map(|i| sorted[i * sorted.len() / shards].clone())
        .collect()
}

/// Generates the PipeGen row shape — 4 ints + 3 doubles per row
/// (§III-A.3) — as `(schema, rows)` for migration experiments.
pub fn pipegen_rows(n: usize, seed: u64) -> Result<(Schema, Vec<Row>)> {
    let mut rng = SplitMix64::new(seed);
    let schema = Schema::new(vec![
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("z", DataType::Float),
    ]);
    let rows = (0..n)
        .map(|_| {
            row![
                rng.next_i64(i64::MIN / 2, i64::MAX / 2),
                rng.next_i64(-1_000_000, 1_000_000),
                rng.next_i64(0, 100),
                rng.next_i64(0, 2),
                rng.next_gaussian(),
                rng.next_range(-1e6, 1e6),
                rng.next_f64()
            ]
        })
        .collect();
    Ok((schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::OutputDigest;

    #[test]
    fn clinical_deployment_is_complete_and_deterministic() {
        let cfg = ClinicalConfig {
            patients: 40,
            vitals_per_patient: 8,
            seed: 1,
        };
        let a = clinical(&cfg);
        let b = clinical(&cfg);
        assert_eq!(a.registry.len(), 5);
        assert!(a.catalog.resolve("admissions").is_ok());
        assert!(a.catalog.resolve("vitals").is_ok());
        let ra = a.registry.relational(&EngineId::new("db1")).unwrap();
        let rb = b.registry.relational(&EngineId::new("db1")).unwrap();
        assert_eq!(
            ra.table("admissions").unwrap().rows(),
            rb.table("admissions").unwrap().rows()
        );
        assert_eq!(ra.table("admissions").unwrap().len(), 40);
    }

    #[test]
    fn clinical_labels_have_both_classes() {
        let d = clinical(&ClinicalConfig {
            patients: 200,
            vitals_per_patient: 4,
            seed: 3,
        });
        let db1 = d.registry.relational(&EngineId::new("db1")).unwrap();
        let rows = db1.table("admissions").unwrap().rows();
        let positives = rows.iter().filter(|r| r[4].as_f64() == Some(1.0)).count();
        assert!(positives > 20 && positives < 180, "positives {positives}");
    }

    #[test]
    fn recommendation_deployment_spans_two_engines() {
        let d = recommendation(&RecommendationConfig {
            customers: 50,
            clicks_per_customer: 5,
            seed: 2,
        });
        assert_eq!(d.registry.len(), 2);
        assert!(d.catalog.resolve("customers").is_ok());
        assert!(d.catalog.resolve("clickstream").is_ok());
        assert!(d.stats.len() >= 3);
    }

    /// The recommendation deployment's customers, transactions and
    /// clicks, pinned: a change to what the generator draws, or in what
    /// order, moves every row after it.
    #[test]
    fn recommendation_rows_are_pinned() {
        let d = recommendation(&RecommendationConfig::default());
        let digest = |schema: &Schema, rows: &[Row]| {
            let mut digest = OutputDigest::new();
            digest.rows(schema, rows);
            digest.finish()
        };
        let rdbms = d.registry.relational(&EngineId::new("rdbms")).unwrap();
        let table = |name| {
            let table = rdbms.table(name).unwrap();
            digest(table.schema(), &table.rows())
        };
        let Ok(EngineInstance::Timeseries(clicks)) = d.registry.get(&EngineId::new("clicks"))
        else {
            panic!("clicks is a timeseries store");
        };
        let series = Schema::new(vec![("t", DataType::Timestamp), ("v", DataType::Float)]);
        let clickstream = digest(&series, &clicks.to_rows("clickstream").unwrap());
        assert_eq!(
            [table("customers"), table("transactions"), clickstream],
            [
                2_289_840_654_195_943_275,
                12_215_980_474_447_349_290,
                4_608_984_028_342_889_580
            ]
        );
    }

    /// The clinical deployment's two relational tables, pinned at the
    /// default size and at polybench's (10 000 patients × 4 vitals,
    /// seed 2019): a change to what the generator draws, or in what
    /// order, moves the rows after it.
    #[test]
    fn clinical_rows_are_pinned() {
        let digests = |config: &ClinicalConfig| {
            let d = clinical(config);
            let table = |db: &str, name: &str| {
                let store = d.registry.relational(&EngineId::new(db)).unwrap();
                let table = store.table(name).unwrap();
                let mut digest = OutputDigest::new();
                digest.rows(table.schema(), &table.rows());
                digest.finish()
            };
            [table("db1", "admissions"), table("db2", "patients")]
        };
        let polybench = ClinicalConfig {
            patients: 10_000,
            vitals_per_patient: 4,
            seed: 2019,
        };
        assert_eq!(
            [digests(&ClinicalConfig::default()), digests(&polybench)],
            [
                [15_456_357_859_864_711_918, 18_314_491_088_711_422_931],
                [13_704_906_475_861_439_607, 12_854_422_009_724_103_013]
            ]
        );
    }

    #[test]
    fn pipegen_shape() {
        let (schema, rows) = pipegen_rows(10, 5).unwrap();
        assert_eq!(schema.arity(), 7);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].byte_size(), 56);
    }
}
