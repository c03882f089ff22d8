//! Reproduces every experiment table (E1–E23); `EXPERIMENTS` in the
//! library is the index, and README's "From the paper to the code"
//! table maps each experiment to its paper section and crate.
//!
//! ```text
//! cargo run -p pspp-bench --bin repro --release            # all
//! cargo run -p pspp-bench --bin repro --release -- --list  # index
//! cargo run -p pspp-bench --bin repro --release -- e8 e10  # subset
//! cargo run -p pspp-bench --bin repro --release -- e16 --json bench.json
//! cargo run -p pspp-bench --bin repro --release -- --open-loop
//! cargo run -p pspp-bench --bin repro --release -- --trace trace.json
//! ```
//!
//! `--list` prints every experiment name with a one-line description
//! and exits. `--json <path>` additionally writes machine-readable
//! per-experiment results (name, pass/fail, wall milliseconds, and the
//! experiment's recorded `metrics` bag), the record CI keeps as the
//! benchmark trajectory. `--open-loop` runs the arrival-rate
//! (open-loop) workload driver sweep, exercising `Reject` admission
//! shedding under overload. `--trace <path>` runs one traced query
//! through the query service, writes its span-tree JSON to `path` and
//! prints the span tree, `EXPLAIN ANALYZE` and Prometheus export. Both
//! ride along any experiment selection (and suppress the default
//! run-everything when passed alone).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Instant;

use pspp_common::Result;
use pspp_telemetry::Json;

type Metrics = Vec<(String, f64)>;

struct Outcome {
    name: String,
    pass: bool,
    wall_ms: f64,
    metrics: Metrics,
}

/// One trial: time it, print its table or its error, return the record.
fn trial(name: &str, run: impl FnOnce() -> Result<(String, Metrics)>) -> Outcome {
    println!("==================================================================");
    let start = Instant::now();
    let result = run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (pass, metrics) = match result {
        Ok((table, metrics)) => {
            println!("{table}");
            (true, metrics)
        }
        Err(e) => {
            eprintln!("{name} failed: {e}");
            (false, Vec::new())
        }
    };
    Outcome {
        name: name.to_owned(),
        pass,
        wall_ms,
        metrics,
    }
}

fn to_json(outcomes: &[Outcome]) -> Json {
    let experiments = outcomes.iter().map(|o| {
        let metrics = o.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::obj(vec![
            ("name", Json::str(&o.name)),
            ("pass", Json::Bool(o.pass)),
            ("wall_ms", Json::Num((o.wall_ms * 1e3).round() / 1e3)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    });
    let failures = outcomes.iter().filter(|o| !o.pass).count();
    Json::obj(vec![
        ("suite", Json::str("pspp-bench repro")),
        ("experiments", Json::Arr(experiments.collect())),
        ("failures", Json::Num(failures as f64)),
    ])
}

/// The traced query's stdout; its span-tree JSON goes to `path`.
fn traced_query_to(path: &str) -> Result<String> {
    let traced = pspp_bench::traced_query()?;
    std::fs::write(path, &traced.trace_json)
        .map_err(|e| pspp_common::Error::Execution(format!("writing {path}: {e}")))?;
    Ok(format!("{}\nwrote span-tree trace to {path}", traced.text))
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut open_loop = false;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" | "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("{arg} requires a path argument");
                    std::process::exit(2);
                };
                if arg == "--json" {
                    json_path = Some(path);
                } else {
                    trace_path = Some(path);
                }
            }
            "--open-loop" => open_loop = true,
            "--list" => {
                print!("{}", pspp_bench::list_table());
                return;
            }
            _ => names.push(arg),
        }
    }
    let run_all = names.iter().any(|a| a == "all")
        || (names.is_empty() && !open_loop && trace_path.is_none());
    if run_all {
        names = pspp_bench::EXPERIMENTS.map(|e| e.name.to_owned()).into();
    }

    let mut outcomes: Vec<Outcome> = names
        .iter()
        .map(|name| trial(name, || pspp_bench::run_with_metrics(name)))
        .collect();
    if open_loop {
        outcomes.push(trial("open-loop", || {
            Ok((pspp_bench::open_loop_table()?, Vec::new()))
        }));
    }
    if let Some(path) = &trace_path {
        outcomes.push(trial("traced-query", || {
            Ok((traced_query_to(path)?, Vec::new()))
        }));
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&outcomes).render()) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if outcomes.iter().any(|o| !o.pass) {
        std::process::exit(1);
    }
}
