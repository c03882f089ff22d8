//! `compare`: ok / REGRESSED / UNRESOLVED against the bounds, and the
//! exit code PR gating reads.

use std::collections::BTreeMap;

use polybench::compare::{compare, exit_code, load_results, ResultSet, Row, Status};
use polybench::metrics::{EndToEndDef, MetricDef};

const fn metric(name: &'static str, better: &'static str, bound: f64) -> EndToEndDef {
    EndToEndDef {
        def: MetricDef {
            name,
            unit: "ms",
            better,
        },
        bound,
        driver: true,
    }
}

const METRICS: &[EndToEndDef] = &[
    metric("latency", "lower", 0.10),
    metric("rate", "higher", 0.10),
];

fn set(latency: &[f64], rate: &[f64]) -> ResultSet {
    BTreeMap::from([
        (("w".to_owned(), "latency".to_owned()), latency.to_vec()),
        (("w".to_owned(), "rate".to_owned()), rate.to_vec()),
    ])
}

fn run(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    compare(METRICS, &["w", "never_run"], a, b)
}

fn statuses(rows: &[Row]) -> Vec<Status> {
    rows.iter().map(|r| r.status).collect()
}

#[test]
fn within_the_bound_is_ok() {
    let a = set(&[10.0, 10.1, 9.9, 10.0], &[100.0, 101.0, 99.0, 100.0]);
    let b = set(&[10.5, 10.6, 10.4, 10.5], &[97.0, 98.0, 96.0, 97.0]);
    let rows = run(&a, &b);
    assert_eq!(statuses(&rows), [Status::Ok, Status::Ok]);
    assert!((rows[0].worse - 0.05).abs() < 1e-9);
    assert!((rows[1].worse - 0.03).abs() < 1e-9, "a lower rate is worse");
    assert_eq!(exit_code(&rows), 0);
}

#[test]
fn worse_by_more_than_the_bound_is_regressed_in_either_direction() {
    let a = set(&[10.0, 10.0, 10.0], &[100.0, 100.0, 100.0]);
    let b = set(&[11.5, 11.5, 11.5], &[85.0, 85.0, 85.0]);
    let rows = run(&a, &b);
    assert_eq!(statuses(&rows), [Status::Regressed, Status::Regressed]);
    assert_eq!(exit_code(&rows), 1);
    // Better by any amount is not a regression.
    let rows = run(&b, &a);
    assert_eq!(statuses(&rows), [Status::Ok, Status::Ok]);
}

#[test]
fn a_set_wider_than_the_bound_or_missing_is_unresolved() {
    let a = set(&[8.0, 10.0, 12.0, 9.0, 11.0], &[100.0, 100.0, 100.0]);
    let b = set(&[10.0, 10.0, 10.0, 10.0, 10.0], &[100.0, 100.0, 100.0]);
    let rows = run(&a, &b);
    assert_eq!(statuses(&rows), [Status::Unresolved, Status::Ok]);
    assert_eq!(exit_code(&rows), 2);

    let mut only_latency = b.clone();
    only_latency.remove(&("w".to_owned(), "rate".to_owned()));
    let rows = run(&b, &only_latency);
    assert_eq!(statuses(&rows), [Status::Ok, Status::Unresolved]);
    assert!(rows[1].b.is_none());
}

#[test]
fn regressed_outranks_unresolved() {
    let a = set(&[10.0, 10.0, 10.0], &[80.0, 100.0, 120.0, 90.0, 110.0]);
    let b = set(&[12.0, 12.0, 12.0], &[100.0, 100.0, 100.0, 100.0, 100.0]);
    let rows = run(&a, &b);
    assert_eq!(statuses(&rows), [Status::Regressed, Status::Unresolved]);
    assert_eq!(exit_code(&rows), 1);
}

#[test]
fn an_exact_metric_regresses_on_any_move_of_any_run() {
    const EXACT: &[EndToEndDef] = &[metric("sim", "lower", 0.0), metric("errors", "lower", 0.0)];
    let set = |sim: &[f64], errors: &[f64]| -> ResultSet {
        BTreeMap::from([
            (("w".to_owned(), "sim".to_owned()), sim.to_vec()),
            (("w".to_owned(), "errors".to_owned()), errors.to_vec()),
        ])
    };
    // Seeds differ widely and the error rate is 0: neither leaves
    // anything unresolved.
    let a = set(&[1.0, 2.0, 4.0, 8.0, 16.0], &[0.0; 5]);
    let same = compare(EXACT, &["w"], &a, &a);
    assert_eq!(statuses(&same), [Status::Ok, Status::Ok]);
    assert_eq!(exit_code(&same), 0);
    // One run of five moved, so the medians still agree.
    let b = set(&[1.0, 2.0, 4.0, 8.0, 16.5], &[0.0, 0.0, 0.0, 0.0, 0.01]);
    let moved = compare(EXACT, &["w"], &a, &b);
    assert_eq!(statuses(&moved), [Status::Regressed, Status::Regressed]);
    assert!(
        (moved[1].worse - 0.002).abs() < 1e-12,
        "absolute where A is 0"
    );
    // Cheaper on the simulated clock is not a regression.
    let better = compare(EXACT, &["w"], &b, &a);
    assert_eq!(statuses(&better), [Status::Ok, Status::Ok]);
}

#[test]
fn only_full_untraced_runs_are_loaded_from_a_results_log() {
    let record = |trace: u8, quick: bool, failed: u8, value: f64| {
        format!(
            "{{\"workload\": \"w\", \"seed\": 1, \"trace\": {trace}, \"quick\": {quick}, \
             \"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
             {{\"latency\": {{\"value\": {value}, \"unit\": \"ms\"}}, \
             \"error_rate\": {{\"value\": {}, \"unit\": \"ratio\"}}}}}}\n",
            failed == 0,
            f64::from(failed) / 10.0
        )
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_log");
    std::fs::create_dir_all(&dir).unwrap();
    let log = [
        record(0, false, 0, 10.0),
        record(1, false, 0, 99.0),
        record(0, true, 0, 98.0),
        record(0, false, 1, 11.0),
    ]
    .concat();
    std::fs::write(dir.join("results.jsonl"), log).unwrap();
    let loaded = load_results(&dir).unwrap();
    let of = |metric: &str| loaded[&("w".to_owned(), metric.to_owned())].clone();
    // The traced and the quick run are left out; the failed one stays
    // and shows in the error rate.
    assert_eq!(of("latency"), [10.0, 11.0]);
    assert_eq!(of("error_rate"), [0.0, 0.1]);
}
