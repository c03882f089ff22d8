//! Reproduces every experiment table (E1–E23); `EXPERIMENTS` in the
//! library is the index, and README's "From the paper to the code"
//! table maps each experiment to its paper section and crate.
//!
//! ```text
//! cargo run -p pspp-bench --bin repro --release            # all
//! cargo run -p pspp-bench --bin repro --release -- --list  # index
//! cargo run -p pspp-bench --bin repro --release -- e8 e10  # subset
//! cargo run -p pspp-bench --bin repro --release -- --open-loop
//! cargo run -p pspp-bench --bin repro --release -- --trace trace.json
//! ```
//!
//! `--list` prints every experiment name with a one-line description
//! and exits. `--open-loop` runs the arrival-rate (open-loop) workload
//! driver sweep, exercising `Reject` admission shedding under overload.
//! `--trace <path>` runs one traced query through the query service,
//! writes its span-tree JSON to `path` and prints the span tree,
//! `EXPLAIN ANALYZE` and Prometheus export. Both ride along any
//! experiment selection (and suppress the default run-everything when
//! passed alone). The exit code is the verdict: 1 if any experiment's
//! check failed.
//!
//! stdout and the trace JSON are deterministic, and the committed
//! record of every figure: `crates/bench/golden/repro.txt` and
//! `crates/bench/golden/trace.json`. A change that moves a figure
//! regenerates both from the repository root,
//!
//! ```text
//! cargo run -p pspp-bench --bin repro --release -- all --open-loop \
//!     --trace crates/bench/golden/trace.json > crates/bench/golden/repro.txt
//! ```
//!
//! and commits them; CI diffs a fresh run against them.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pspp_common::Result;

/// One trial: print its table, or its error on stderr; returns whether
/// it passed.
fn trial(name: &str, run: impl FnOnce() -> Result<String>) -> bool {
    println!("==================================================================");
    match run() {
        Ok(table) => {
            println!("{table}");
            true
        }
        Err(e) => {
            eprintln!("{name} failed: {e}");
            false
        }
    }
}

/// The traced query's stdout; its span-tree JSON goes to `path`.
fn traced_query_to(path: &str) -> Result<String> {
    let traced = pspp_bench::traced_query()?;
    std::fs::write(path, &traced.trace_json)
        .map_err(|e| pspp_common::Error::Execution(format!("writing {path}: {e}")))?;
    eprintln!("wrote span-tree trace to {path}");
    Ok(traced.text)
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut open_loop = false;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace requires a path argument");
                    std::process::exit(2);
                };
                trace_path = Some(path);
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

    let mut pass = true;
    for name in &names {
        pass &= trial(name, || pspp_bench::run(name));
    }
    if open_loop {
        pass &= trial("open-loop", pspp_bench::open_loop_table);
    }
    if let Some(path) = &trace_path {
        pass &= trial("traced-query", || traced_query_to(path));
    }
    if !pass {
        std::process::exit(1);
    }
}
