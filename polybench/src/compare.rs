//! `polybench compare A B` and `polybench aa`: hold two sets of runs
//! against the bounds of the end-to-end metrics.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{as_f64, as_str, get, parse, Json};
use crate::metrics::{EndToEndDef, END_TO_END, WORKLOADS};
use crate::stats::{quartiles_exclusive, spread};

/// `(workload, metric)` → that metric's value in every run of a set.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    get(value, key).ok_or_else(|| format!("missing key {key:?}"))
}

/// The full untraced runs of a results log: traced and `--quick` runs
/// measure something else and are left out. A run that failed stays in
/// and shows as its `error_rate`. `path` is a `results.jsonl` or the
/// directory that holds one.
///
/// # Errors
///
/// Returns a message naming the unreadable file or the malformed line.
pub fn load_results(path: &Path) -> Result<ResultSet, String> {
    let file = if path.is_dir() {
        path.join("results.jsonl")
    } else {
        path.to_owned()
    };
    let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut values = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("{} line {}: {e}", file.display(), i + 1);
        let record = parse(line).map_err(at)?;
        if as_f64(field(&record, "trace").map_err(at)?) != Some(0.0)
            || field(&record, "quick").map_err(at)? != &Json::Bool(false)
        {
            continue;
        }
        let workload = as_str(field(&record, "workload").map_err(at)?).unwrap_or_default();
        let Json::Obj(metrics) = field(&record, "metrics").map_err(at)? else {
            return Err(at("\"metrics\" is not an object".into()));
        };
        for (name, metric) in metrics {
            if let Some(value) = get(metric, "value").and_then(as_f64) {
                values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B is no worse than A by more than the bound, and both sets are
    /// tighter than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A set is missing, or its own spread is wider than the bound, so
    /// "unchanged" cannot be told from "changed".
    Unresolved,
}

impl Status {
    /// The word `compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "UNRESOLVED",
        }
    }
}

/// One set's runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs in the set.
    pub runs: usize,
    /// The mean: what an exact metric (bound 0) is compared on, so that
    /// a single run that moved shows.
    pub mean: f64,
    /// First quartile, median, third quartile (Python's
    /// `statistics.quantiles(values, n=4)`).
    pub quartiles: [f64; 3],
    /// `(q3 - q1) / median`.
    pub spread: f64,
    /// Largest distance of a single run from the median, as a share of it.
    pub max_deviation: f64,
}

impl Summary {
    /// Summarises a non-empty set.
    pub fn of(values: &[f64]) -> Summary {
        let quartiles = quartiles_exclusive(values);
        let median = quartiles[1];
        let max_deviation = if median == 0.0 {
            0.0
        } else {
            values
                .iter()
                .map(|v| ((v - median) / median).abs())
                .fold(0.0, f64::max)
        };
        Summary {
            runs: values.len(),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            quartiles,
            spread: spread(values),
            max_deviation,
        }
    }
}

/// One `(workload, metric)` pairing of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric and its bound.
    pub metric: EndToEndDef,
    /// The first set, if it has runs.
    pub a: Option<Summary>,
    /// The second set, if it has runs.
    pub b: Option<Summary>,
    /// How much worse B is than A, as a share of A (negative = better):
    /// on the medians, or for an exact metric on the means (where A's is
    /// 0, the difference itself).
    pub worse: f64,
    /// The verdict.
    pub status: Status,
}

/// Compares set B against set A on each of `metrics` for each of
/// `workloads` that either set ran. An exact metric (bound 0) is the
/// same in every run of a seed: B regressed if its mean is worse than
/// A's at all, and its spread, which only says that the seeds differ,
/// leaves nothing unresolved.
pub fn compare(
    metrics: &[EndToEndDef],
    workloads: &[&str],
    a: &ResultSet,
    b: &ResultSet,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workloads {
        for metric in metrics {
            let key = ((*workload).to_owned(), metric.def.name.to_owned());
            let (sa, sb) = (
                a.get(&key).map(|v| Summary::of(v)),
                b.get(&key).map(|v| Summary::of(v)),
            );
            let exact = metric.bound == 0.0;
            let (worse, status) = match (&sa, &sb) {
                (None, None) => continue,
                (Some(sa), Some(sb)) if exact || sa.quartiles[1] != 0.0 => {
                    let (base, changed) = if exact {
                        (sa.mean, sb.mean)
                    } else {
                        (sa.quartiles[1], sb.quartiles[1])
                    };
                    let mut worse = changed - base;
                    if base != 0.0 {
                        worse /= base;
                    }
                    if metric.def.better != "lower" {
                        worse = -worse;
                    }
                    let status = if worse > metric.bound {
                        Status::Regressed
                    } else if !exact && sa.spread.max(sb.spread) > metric.bound {
                        Status::Unresolved
                    } else {
                        Status::Ok
                    };
                    (worse, status)
                }
                _ => (0.0, Status::Unresolved),
            };
            rows.push(Row {
                workload: (*workload).to_owned(),
                metric: *metric,
                a: sa,
                b: sb,
                worse,
                status,
            });
        }
    }
    rows
}

/// Prints one line per row: per set the median, quartiles, spread and
/// the furthest single run; then the set-to-set difference beside the
/// bound, and the verdict.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<13} {:<20} {:>3} {:>11} {:>11} {:>11} {:>7} {:>7} | {:>3} {:>11} {:>11} {:>11} {:>7} {:>7} | {:>8} {:>6}  status",
        "workload", "metric", "nA", "A.q1", "A.median", "A.q3", "A.iqr%", "A.far%",
        "nB", "B.q1", "B.median", "B.q3", "B.iqr%", "B.far%", "B-A%", "bound%"
    );
    let set = |s: &Option<Summary>| match s {
        Some(s) => format!(
            "{:>3} {:>11.5} {:>11.5} {:>11.5} {:>7.2} {:>7.2}",
            s.runs,
            s.quartiles[0],
            s.quartiles[1],
            s.quartiles[2],
            s.spread * 100.0,
            s.max_deviation * 100.0
        ),
        None => format!(
            "{:>3} {:>11} {:>11} {:>11} {:>7} {:>7}",
            0, "-", "-", "-", "-", "-"
        ),
    };
    for row in rows {
        println!(
            "{:<13} {:<20} {} | {} | {:>+8.2} {:>6.1}  {}",
            row.workload,
            row.metric.def.name,
            set(&row.a),
            set(&row.b),
            row.worse * 100.0,
            row.metric.bound * 100.0,
            row.status.label()
        );
    }
}

/// The exit code PR gating needs: 1 if any row regressed, else 2 if any
/// is unresolved, else 0.
pub fn exit_code(rows: &[Row]) -> i32 {
    if rows.iter().any(|r| r.status == Status::Regressed) {
        1
    } else if rows.iter().any(|r| r.status == Status::Unresolved) {
        2
    } else {
        0
    }
}

/// What `polybench aa` was asked to do.
#[derive(Debug, Clone)]
pub struct AaArgs {
    /// Runs per set and workload; run `i` of both sets uses seed
    /// `seed + i`.
    pub runs: u64,
    /// First seed.
    pub seed: u64,
    /// Workloads to run (default: all five).
    pub workloads: Vec<String>,
    /// The sets' logs go to `<out>/aa_A` and `<out>/aa_B`.
    pub out: PathBuf,
}

/// Runs the same build as two interleaved sets (A then B, next seed B
/// then A, …), each run a child process of `exe`, then compares the
/// sets as [`compare`] would two builds.
///
/// # Errors
///
/// Returns a message when a child cannot be started or fails.
pub fn aa(exe: &Path, args: &AaArgs) -> Result<Vec<Row>, String> {
    let dirs = [args.out.join("aa_A"), args.out.join("aa_B")];
    for dir in &dirs {
        // Start each set's log empty.
        match fs::remove_file(dir.join("results.jsonl")) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", dir.display()))
            }
            _ => {}
        }
    }
    let workloads: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    for workload in &workloads {
        for i in 0..args.runs {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let mut child = Command::new(exe);
                child
                    .args(["run", "--workload", workload, "--trace", "0", "--seed"])
                    .arg((args.seed + i).to_string())
                    .arg("--out")
                    .arg(&dirs[side])
                    .stdout(Stdio::null());
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{workload} seed {} failed: {status}",
                        args.seed + i
                    ));
                }
            }
            eprintln!("aa: {workload} run {}/{} done", i + 1, args.runs);
        }
    }
    Ok(compare(
        END_TO_END,
        &workloads,
        &load_results(&dirs[0])?,
        &load_results(&dirs[1])?,
    ))
}
