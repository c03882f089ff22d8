//! `BENCHMARK.json` at the repository root repeats the tables in
//! `polybench::metrics`; this holds the two together.

use std::path::Path;

use polybench::json::{as_f64, as_str, get, parse, Json};
use polybench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn document() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match get(doc, key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: {other:?}"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    get(item, key).and_then(as_str).unwrap_or_default()
}

#[test]
fn workloads_and_metrics_are_the_ones_the_program_reports() {
    let doc = document();
    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (item, def) in workloads.iter().zip(WORKLOADS) {
        assert_eq!((text(item, "name"), text(item, "why")), (def.name, def.why));
        assert!(def.why.len() <= 200 && !def.why.contains('\n'));
    }
    let listed: Vec<_> = END_TO_END.iter().filter(|e| e.driver).collect();
    let end_to_end = items(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), listed.len());
    for (item, e) in end_to_end.iter().zip(listed) {
        assert_eq!(
            (text(item, "name"), text(item, "unit"), text(item, "better")),
            (e.def.name, e.def.unit, e.def.better)
        );
        assert_eq!(get(item, "bound").and_then(as_f64), Some(e.bound));
    }
    let per_layer = items(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, def) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(
            (text(item, "name"), text(item, "unit"), text(item, "better")),
            (def.name, def.unit, def.better)
        );
    }
}

#[test]
fn every_metric_has_one_place_in_the_contract() {
    // An end-to-end metric the contract cannot list under end_to_end is
    // exact, and a traced run reports it among the per-layer ones.
    for e in END_TO_END {
        let per_layer = PER_LAYER.contains(&e.def);
        assert_eq!(per_layer, !e.driver, "{}", e.def.name);
        assert_eq!(e.bound == 0.0, !e.driver, "{}", e.def.name);
    }
}

#[test]
fn bounds_are_within_the_contract_and_set_up_has_the_largest() {
    let listed = || END_TO_END.iter().filter(|e| e.driver);
    let setup = listed()
        .find(|e| e.def.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.def.unit, setup.def.better), ("s", "lower"));
    for e in listed() {
        assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.def.name);
        assert!(e.bound <= setup.bound, "{}", e.def.name);
    }
}
