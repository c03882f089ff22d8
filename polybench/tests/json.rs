//! The one-line JSON writer (result line, results log, trace file) and
//! the parser that reads them back.

use polybench::json::{as_f64, as_str, compact, get, parse, Json};
use polybench::metrics::{END_TO_END, PER_LAYER};
use polybench::run::RunResult;

#[test]
fn whole_numbers_have_no_fraction_and_measured_ones_keep_every_digit() {
    assert_eq!(compact(&Json::Num(1920.0)), "1920");
    assert_eq!(compact(&Json::Num(-3.0)), "-3");
    assert_eq!(compact(&Json::Num(0.1 + 0.2)), "0.30000000000000004");
    assert_eq!(compact(&Json::Num(1.2034)), "1.2034");
    assert_eq!(compact(&Json::Num(f64::NAN)), "null");
    assert_eq!(compact(&Json::Num(f64::INFINITY)), "null");
}

#[test]
fn strings_are_escaped() {
    let rendered = compact(&Json::str("a \"q\" \\ \n\t\u{1}"));
    assert_eq!(rendered, "\"a \\\"q\\\" \\\\ \\n\\t\\u0001\"");
}

#[test]
fn objects_keep_insertion_order_on_one_line() {
    let doc = Json::obj(vec![
        ("b", Json::Num(1.0)),
        ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ("empty", Json::Obj(Vec::new())),
    ]);
    assert_eq!(compact(&doc), r#"{"b": 1, "a": [true, null], "empty": {}}"#);
}

#[test]
fn what_is_written_parses_back() {
    let doc = Json::obj(vec![
        ("name", Json::str("olap \"single\"\n\u{1}")),
        (
            "values",
            Json::Arr(vec![Json::Num(0.5), Json::Num(-2e-7), Json::Num(3.0)]),
        ),
        (
            "nested",
            Json::obj(vec![("ok", Json::Bool(false)), ("none", Json::Null)]),
        ),
    ]);
    assert_eq!(parse(&compact(&doc)), Ok(doc.clone()));
    // The workspace's own pretty-printed rendering reads back too.
    assert_eq!(parse(&doc.render()), Ok(doc));
}

#[test]
fn the_parser_reads_escapes_and_rejects_garbage() {
    let doc = parse("{\n  \"paths\": [\"polybench\"],\n  \"run_seconds\": 10\n}\n").unwrap();
    assert_eq!(get(&doc, "run_seconds").and_then(as_f64), Some(10.0));
    assert_eq!(
        get(&doc, "paths"),
        Some(&Json::Arr(vec![Json::str("polybench")]))
    );
    assert_eq!(parse("\"\\u00e9\""), Ok(Json::str("\u{e9}")));
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}

fn keys(object: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = object else {
        panic!("not an object: {object:?}");
    };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn the_result_line_has_the_four_keys_and_the_metrics_the_driver_reads() {
    let untraced = RunResult {
        correct: true,
        attempted: 1920,
        failed: 0,
        metrics: END_TO_END.iter().map(|e| (e.def, 1.5)).collect(),
        speed_scale: 1.0,
    };
    let line = compact(&untraced.driver_json(false));
    assert!(!line.contains('\n'));
    let doc = parse(&line).unwrap();
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&doc, "attempted"), Some(&Json::Num(1920.0)));
    let metrics = get(&doc, "metrics").unwrap();
    // Only what BENCHMARK.json lists under end_to_end; the log keeps all.
    let listed: Vec<_> = END_TO_END.iter().filter(|e| e.driver).collect();
    assert_eq!(
        keys(metrics),
        listed.iter().map(|e| e.def.name).collect::<Vec<_>>()
    );
    for e in listed {
        let metric = get(metrics, e.def.name).unwrap();
        assert_eq!(get(metric, "unit").and_then(as_str), Some(e.def.unit));
        assert_eq!(get(metric, "value").and_then(as_f64), Some(1.5));
    }
    assert_eq!(
        keys(get(&untraced.to_json(), "metrics").unwrap()).len(),
        END_TO_END.len()
    );

    // A traced run reports every per-layer metric, the exact three too.
    let traced = RunResult {
        metrics: PER_LAYER.iter().map(|def| (*def, 0.0)).collect(),
        ..untraced
    };
    assert_eq!(
        keys(get(&traced.driver_json(true), "metrics").unwrap()),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
}
