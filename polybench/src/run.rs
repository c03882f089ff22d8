//! `polybench run`: set a workload up, measure it, turn the timings
//! into metrics, print and record them.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pspp_common::{Error, Result};

use crate::direct::{reference_digests, Deploy, Direct};
use crate::json::{compact, Json};
use crate::metrics::{workload, MetricDef, WorkloadDef, END_TO_END, PER_LAYER};
use crate::oplist::{
    hetero_ops, olap_ops, serve_churn_sequence, serve_churn_texts, serve_hot_ops, CHURN_EPOCH_OPS,
    HOT_TEXTS,
};
use crate::pin::OneCpu;
use crate::probes::{layer_probes, service_probe};
use crate::procstat;
use crate::served::Served;
use crate::stats::{lower_quartile, percentile};
use crate::trace::{quiet_costs, quiet_total, self_times_ns, Span, Tracer};
use crate::workload::{measure, Measurement, Workload};

/// Floor on repeats of anything timed in a full run.
const MIN_REPEATS: usize = 30;
/// Traced passes whose spans go into the trace file (all of them feed
/// the metrics).
const TRACE_FILE_PASSES: u32 = 2;

/// What `polybench run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Draws the op parameters.
    pub seed: u64,
    /// The workload to run.
    pub workload: String,
    /// Where the results log and the trace file go.
    pub out: PathBuf,
    /// Untraced run (end-to-end metrics) or traced run (per-layer).
    pub trace: bool,
    /// A twentieth of the passes and one set-up.
    pub quick: bool,
}

/// The metrics of one run, in table order, and its correctness verdict.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No op failed and every pass reproduced the first.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused or digest-mismatched, plus passes whose
    /// simulated totals or counters moved.
    pub failed: u64,
    /// `(definition, value)`: all eight end-to-end metrics of an
    /// untraced run, or every per-layer metric of a traced one.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The factor the end-to-end wall figures were multiplied by to
    /// bring them to the reference machine speed.
    pub speed_scale: f64,
}

impl RunResult {
    /// `correct`, `attempted`, `failed` and `metrics` (name → value and
    /// unit) as one object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(def, value)| {
                            (
                                def.name.to_owned(),
                                Json::obj(vec![
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The acceptance driver's result object: as [`RunResult::to_json`],
    /// but of an untraced run only the end-to-end metrics that
    /// `BENCHMARK.json` lists as such (a traced run reports the others
    /// among its per-layer metrics).
    pub fn driver_json(&self, traced: bool) -> Json {
        if traced {
            return self.to_json();
        }
        let mut result = self.clone();
        result.metrics.retain(|(def, _)| {
            END_TO_END
                .iter()
                .all(|e| e.def.name != def.name || e.driver)
        });
        result.to_json()
    }
}

fn deploy_of(name: &str) -> Deploy {
    match name {
        "olap_single" => Deploy {
            patients: 10_000,
            vitals: 4,
            sharded: false,
            accelerated: true,
        },
        "olap_sharded" => Deploy {
            patients: 10_000,
            vitals: 4,
            sharded: true,
            accelerated: false,
        },
        "hetero_ml" => Deploy {
            patients: 2_000,
            vitals: 16,
            sharded: false,
            accelerated: true,
        },
        _ => Deploy {
            patients: 500,
            vitals: 4,
            sharded: false,
            accelerated: false,
        },
    }
}

/// One complete set-up of `name`: datagen → build → (service + session)
/// → one warm pass of the op list.
fn set_up(name: &str, seed: u64, reference: Option<&[u64]>) -> Result<Box<dyn Workload>> {
    let deploy = deploy_of(name);
    Ok(match name {
        "olap_single" | "olap_sharded" => {
            Box::new(Direct::set_up(deploy, olap_ops(seed), reference)?)
        }
        "hetero_ml" => Box::new(Direct::set_up(deploy, hetero_ops(seed), None)?),
        "serve_hot" => {
            let ops = serve_hot_ops(seed, deploy.patients);
            let sequence = (0..HOT_TEXTS as u32).collect();
            Box::new(Served::set_up(deploy, ops, sequence, 0)?)
        }
        "serve_churn" => Box::new(Served::set_up(
            deploy,
            serve_churn_texts(seed, deploy.patients),
            serve_churn_sequence(),
            CHURN_EPOCH_OPS,
        )?),
        other => return Err(Error::Config(format!("unknown workload {other:?}"))),
    })
}

/// Passes of an untraced run, and pairs of an untraced and a traced
/// pass of a traced run. Constants of the workload, scaled only by
/// `--quick`: op counts, simulated totals and every counter repeat
/// exactly and do not depend on how fast the machine happened to be.
fn pass_counts(def: &WorkloadDef, quick: bool) -> (usize, usize) {
    if quick {
        ((def.passes / 20).max(2), (def.passes / 80).max(2))
    } else {
        (
            def.passes.max(MIN_REPEATS),
            (def.passes / 4).max(MIN_REPEATS),
        )
    }
}

fn end_to_end(
    setup_s: f64,
    scale: f64,
    w: &dyn Workload,
    m: &Measurement,
) -> Vec<(MetricDef, f64)> {
    let per_unit: Vec<f64> = m.plain.iter().map(|t| lower_quartile(t) * scale).collect();
    let per_op_ms: Vec<f64> = per_unit
        .iter()
        .map(|s| s / w.ops_per_unit() as f64 * 1e3)
        .collect();
    let ops = (w.units() * w.ops_per_unit()) as f64;
    let values = [
        setup_s * scale,
        per_unit.iter().sum::<f64>() / ops * 1e3,
        percentile(&per_op_ms, 0.5),
        percentile(&per_op_ms, 0.9),
        m.sim_seconds / ops * 1e3,
        m.energy_j / ops * 1e3,
        m.failed as f64 / m.attempted.max(1) as f64,
        procstat::peak_rss_mb().unwrap_or(0.0),
    ];
    END_TO_END.iter().map(|e| e.def).zip(values).collect()
}

/// Mean over the probed ops of the quiet cost of span `name`, seconds.
fn mean_quiet(quiet: &BTreeMap<(&'static str, u32), f64>, name: &str) -> f64 {
    let n = quiet.keys().filter(|(n, _)| *n == name).count();
    if n == 0 {
        0.0
    } else {
        quiet_total(quiet, name) / n as f64
    }
}

fn per_layer(
    w: &dyn Workload,
    m: &Measurement,
    tracer: &Tracer,
    probe_repeats: usize,
) -> Result<Vec<(MetricDef, f64)>> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.extend(m.counts.iter().copied());
    values.extend(w.loose_counts());
    values.extend(layer_probes(w.system(), probe_repeats)?);
    values.extend(service_probe(w.system(), w.ops(), probe_repeats)?);

    let ops = (w.units() * w.ops_per_unit()) as f64;
    let count = |name: &str| {
        m.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |c| c.1)
    };
    let quiet = quiet_costs(tracer.spans());
    let compile = mean_quiet(&quiet, "frontend.compile");
    let rewrite = mean_quiet(&quiet, "optimizer.rewrite");
    let optimize = mean_quiet(&quiet, "optimizer.optimize");
    let execute = mean_quiet(&quiet, "runtime.execute");
    // One pass of the workload at quiet cost: what the shares are of.
    let pass_wall: f64 = m.plain.iter().map(|t| lower_quartile(t)).sum();
    let traced_wall: f64 = m.traced.iter().map(|t| lower_quartile(t)).sum();
    let share = |calls: f64, seconds: f64| calls * seconds / pass_wall;
    let (split, probe_passes) = w.ledger_split();
    let per_probe_pass = |total: f64| total / f64::from(probe_passes.max(1));
    let executed_sim = per_probe_pass(split.makespan_s);

    values.extend([
        ("sim_ms_per_op", m.sim_seconds / ops * 1e3),
        ("sim_energy_mj_per_op", m.energy_j / ops * 1e3),
        ("error_rate", m.failed as f64 / m.attempted.max(1) as f64),
        ("frontend.compile.wall_us", compile * 1e6),
        (
            "frontend.compile.share",
            share(count("frontend.compile.calls"), compile),
        ),
        ("optimizer.rewrite.wall_us", rewrite * 1e6),
        ("optimizer.place.wall_us", (optimize - rewrite) * 1e6),
        (
            "optimizer.optimize.share",
            share(count("optimizer.optimize.calls"), optimize),
        ),
        (
            "ir.shard_plan.wall_us",
            mean_quiet(&quiet, "ir.shard_plan") * 1e6,
        ),
        (
            "core.run.self_us",
            (mean_quiet(&quiet, "core.run") - compile - optimize - execute) * 1e6,
        ),
        ("runtime.execute.wall_ms", execute * 1e3),
        (
            "runtime.execute.share",
            share(count("runtime.execute.calls"), execute),
        ),
        (
            "runtime.wall_per_sim_x",
            if executed_sim > 0.0 {
                count("runtime.execute.calls") * execute / executed_sim
            } else {
                0.0
            },
        ),
        (
            "accel.sim_compute_ms",
            per_probe_pass(split.compute_s) * 1e3,
        ),
        (
            "accel.sim_transfer_ms",
            per_probe_pass(split.transfer_s) * 1e3,
        ),
        (
            "accel.sim_transform_ms",
            per_probe_pass(split.transform_s) * 1e3,
        ),
        ("accel.sim_energy_mj", per_probe_pass(split.energy_j) * 1e3),
        (
            "telemetry.render.wall_us",
            mean_quiet(&quiet, "telemetry.render") * 1e6,
        ),
        (
            "bench.trace.overhead_pct",
            (traced_wall - pass_wall) / pass_wall * 100.0,
        ),
        (
            "bench.canary.quiet_us",
            lower_quartile(&m.canary.timings) * 1e6,
        ),
        ("bench.canary.spread_x", canary_drift(&m.canary.timings)),
        ("bench.cpu_s_per_wall_s", m.cpu_seconds / m.wall_seconds),
    ]);
    PER_LAYER
        .iter()
        .map(|def| {
            values
                .get(def.name)
                .map(|value| (*def, *value))
                .ok_or_else(|| Error::Execution(format!("metric {} was not measured", def.name)))
        })
        .collect()
}

/// How far the machine drifted while the run measured: the canary's
/// quiet cost over the first, the middle and the last third of its
/// timings, largest over smallest.
fn canary_drift(canary: &[f64]) -> f64 {
    let third = (canary.len() / 3).max(1);
    let thirds: Vec<f64> = canary.chunks(third).take(3).map(lower_quartile).collect();
    thirds.iter().copied().fold(0.0, f64::max)
        / thirds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn span_json(id: usize, span: &Span, self_ns: u64) -> Json {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("name", Json::str(span.name)),
        (
            "parent",
            if span.parent == crate::trace::NO_PARENT {
                Json::Null
            } else {
                Json::Num(f64::from(span.parent))
            },
        ),
        ("op", Json::Num(f64::from(span.op))),
        ("pass", Json::Num(f64::from(span.pass))),
        ("start_us", Json::Num(span.start_ns as f64 / 1e3)),
        ("end_us", Json::Num(span.end_ns as f64 / 1e3)),
        ("self_us", Json::Num(self_ns as f64 / 1e3)),
    ])
}

/// Writes `trace_<workload>.json`: per span name the call count and the
/// total and self time over every traced pass, then the spans of the
/// first [`TRACE_FILE_PASSES`] traced passes, one per line.
fn write_trace(path: &Path, args: &RunArgs, tracer: &Tracer) -> std::io::Result<()> {
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut layers: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&self_ns) {
        let entry = layers.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    let layers = Json::Arr(
        layers
            .into_iter()
            .map(|(name, (calls, total, own))| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("calls", Json::Num(calls as f64)),
                    ("total_us", Json::Num(total as f64 / 1e3)),
                    ("self_us", Json::Num(own as f64 / 1e3)),
                ])
            })
            .collect(),
    );
    let mut file = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(
        file,
        "{{\"workload\": {}, \"seed\": {}, \"spans_recorded\": {}, \"passes_written\": {}, \"layers\": {},",
        compact(&Json::str(&args.workload)),
        args.seed,
        spans.len(),
        TRACE_FILE_PASSES,
        compact(&layers)
    )?;
    writeln!(file, "\"spans\": [")?;
    let mut first = true;
    for (id, (span, own)) in spans.iter().zip(&self_ns).enumerate() {
        if span.pass >= TRACE_FILE_PASSES {
            continue;
        }
        if !first {
            writeln!(file, ",")?;
        }
        first = false;
        write!(file, "{}", compact(&span_json(id, span, *own)))?;
    }
    writeln!(file, "\n]}}")?;
    file.flush()
}

/// Appends the run's result (every metric it measured), tagged with
/// what was run, to `results.jsonl` in the output directory: what
/// `compare` reads.
fn log_result(args: &RunArgs, result: &RunResult) -> std::io::Result<()> {
    fs::create_dir_all(&args.out)?;
    let Json::Obj(mut pairs) = result.to_json() else {
        unreachable!("the result is an object");
    };
    let tags = vec![
        ("workload".to_owned(), Json::str(&args.workload)),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        (
            "trace".to_owned(),
            Json::Num(f64::from(u8::from(args.trace))),
        ),
        ("quick".to_owned(), Json::Bool(args.quick)),
        // Divide an end-to-end wall figure by this to get it as measured.
        ("speed_scale".to_owned(), Json::Num(result.speed_scale)),
    ];
    pairs.splice(0..0, tags);
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("results.jsonl"))?;
    writeln!(file, "{}", compact(&Json::Obj(pairs)))
}

/// Runs one workload as `args` says and returns its metrics.
///
/// # Errors
///
/// Returns the system's error when set-up or a probe fails, and I/O
/// errors as [`Error::Execution`].
pub fn run(args: &RunArgs) -> Result<RunResult> {
    let def = workload(&args.workload)
        .ok_or_else(|| Error::Config(format!("unknown workload {:?}", args.workload)))?;
    // What olap_sharded's outputs are held to: the same ops on
    // olap_single's layout. Not part of any set-up that is timed.
    let reference = if def.name == "olap_sharded" {
        Some(reference_digests(
            deploy_of("olap_single"),
            &olap_ops(args.seed),
        )?)
    } else {
        None
    };

    // A served workload's client and worker share one CPU: pinned before
    // the worker exists, so that it inherits the pin.
    let _one_cpu = matches!(def.name, "serve_hot" | "serve_churn").then(OneCpu::pin);
    let (untraced, traced) = pass_counts(def, args.quick);
    let mut tracer = args.trace.then(Tracer::new);
    let passes = if args.trace { traced } else { untraced };
    let probe_repeats = if args.quick { 3 } else { MIN_REPEATS };
    let probe_stride = passes / probe_repeats;
    // An untraced run measures an equal share of its passes on each of
    // several complete set-ups, each dropped before the next starts, so
    // the set-ups too are spread over the whole run and no unit's cost
    // hangs on where one set-up happened to put things in memory. A
    // traced run reports no set-up time and makes one.
    let setups = if args.quick || args.trace {
        1
    } else {
        def.setups
    };
    let mut setup_seconds = Vec::with_capacity(setups);
    let mut m = Measurement::default();
    let mut built = None;
    for k in 0..setups {
        drop(built.take());
        let start = Instant::now();
        let w = built.insert(set_up(def.name, args.seed, reference.as_deref())?);
        setup_seconds.push(start.elapsed().as_secs_f64());
        let share = k * passes / setups..(k + 1) * passes / setups;
        measure(w.as_mut(), &mut m, share, tracer.as_mut(), probe_stride);
    }
    let w = built.expect("at least one set-up");

    let speed_scale = m.canary.speed_scale();
    let metrics = match &tracer {
        Some(tracer) => per_layer(w.as_ref(), &m, tracer, probe_repeats)?,
        None => end_to_end(lower_quartile(&setup_seconds), speed_scale, w.as_ref(), &m),
    };
    let result = RunResult {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        speed_scale,
    };
    let io =
        |e: std::io::Error| Error::Execution(format!("writing to {}: {e}", args.out.display()));
    log_result(args, &result).map_err(io)?;
    if let Some(tracer) = &tracer {
        let path = args.out.join(format!("trace_{}.json", def.name));
        write_trace(&path, args, tracer).map_err(io)?;
    }
    Ok(result)
}

/// Prints every metric by name with its unit, then the acceptance
/// driver's result object as the last line.
pub fn print(args: &RunArgs, result: &RunResult) {
    println!(
        "workload {} seed {} trace {} ({} ops attempted, {} failed)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        result.attempted,
        result.failed
    );
    for (def, value) in &result.metrics {
        println!("  {:<38} {:>16.6} {}", def.name, value, def.unit);
    }
    if args.trace {
        println!("  wall figures are as measured; bench.canary.quiet_us is the machine's speed");
    } else {
        println!(
            "  wall figures and setup_s are at the reference machine speed: measured x {:.4}",
            result.speed_scale
        );
    }
    println!("{}", compact(&result.driver_json(args.trace)));
}
