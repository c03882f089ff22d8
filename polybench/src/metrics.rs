//! The benchmark's metrics and workloads by name: the table that
//! `BENCHMARK.json` at the repository root repeats (a test holds the two
//! together).

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name printed and written everywhere.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// An end-to-end metric and the share of the parent's median by which
/// it may get worse before `compare` calls it REGRESSED.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Name, unit and direction.
    pub def: MetricDef,
    /// 0 = exact: the metric repeats bit for bit for a given seed, so
    /// any move is a change of behaviour.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it under `end_to_end`. The
    /// acceptance contract admits no metric there that can be 0, reads
    /// the same on every run, or differs from seed to seed by more than
    /// its bound; the three exact metrics are therefore listed under
    /// `per_layer` and gated by `polybench compare` alone.
    pub driver: bool,
}

const fn e(name: &'static str, unit: &'static str, bound: f64, driver: bool) -> EndToEndDef {
    EndToEndDef {
        def: m(name, unit, "lower"),
        bound,
        driver,
    }
}

/// What a user of the system sees; every workload reports all of them
/// from an untraced run. `BENCHMARK.json` repeats the bounds of those
/// it lists.
pub const END_TO_END: &[EndToEndDef] = &[
    e("setup_s", "s", 0.25, true),
    e("wall_ms_per_op", "ms", 0.25, true),
    e("wall_p50_ms", "ms", 0.25, true),
    e("wall_p90_ms", "ms", 0.25, true),
    e("sim_ms_per_op", "sim_ms", 0.0, false),
    e("sim_energy_mj_per_op", "mJ", 0.0, false),
    e("error_rate", "ratio", 0.0, false),
    e("peak_rss_mb", "MB", 0.25, true),
];

/// Single layers (layer = crate), from a traced run. Simulated-clock
/// figures carry the units `sim_ms` and `mJ`: they are the cost model's
/// output, repeat bit for bit, and are not times this machine took.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim_ms_per_op", "sim_ms", "lower"),
    m("sim_energy_mj_per_op", "mJ", "lower"),
    m("error_rate", "ratio", "lower"),
    m("frontend.compile.calls", "count", "lower"),
    m("frontend.compile.wall_us", "us", "lower"),
    m("frontend.compile.share", "ratio", "lower"),
    m("optimizer.optimize.calls", "count", "lower"),
    m("optimizer.rewrite.wall_us", "us", "lower"),
    m("optimizer.place.wall_us", "us", "lower"),
    m("optimizer.optimize.share", "ratio", "lower"),
    m("optimizer.plan_exec_abs_err_ms", "sim_ms", "lower"),
    m("ir.shard_plan.wall_us", "us", "lower"),
    m("ir.exchange_edges", "count", "lower"),
    m("core.run.self_us", "us", "lower"),
    m("runtime.execute.calls", "count", "lower"),
    m("runtime.execute.wall_ms", "ms", "lower"),
    m("runtime.execute.share", "ratio", "lower"),
    m("runtime.tasks", "count", "lower"),
    m("runtime.exchange_rows", "count", "lower"),
    m("runtime.offloaded_tasks", "count", "higher"),
    m("runtime.host_fallbacks", "count", "lower"),
    m("runtime.fused_chains", "count", "higher"),
    m("runtime.sim_migration_ms", "sim_ms", "lower"),
    m("runtime.sim_queue_wait_ms", "sim_ms", "lower"),
    m("runtime.wall_per_sim_x", "x", "lower"),
    m("relstore.filter.rows_per_s", "rows/s", "higher"),
    m("relstore.sort.rows_per_s", "rows/s", "higher"),
    m("relstore.hash_join.rows_per_s", "rows/s", "higher"),
    m("relstore.group_by.rows_per_s", "rows/s", "higher"),
    m("common.route_indices.rows_per_s", "rows/s", "higher"),
    m("migrate.migrate.rows_per_s", "rows/s", "higher"),
    m("mlengine.mlp_train.rows_per_s", "rows/s", "higher"),
    m("textstore.search.docs_per_s", "docs/s", "higher"),
    m("tsstore.window.points_per_s", "points/s", "higher"),
    m("accel.sim_compute_ms", "sim_ms", "lower"),
    m("accel.sim_transfer_ms", "sim_ms", "lower"),
    m("accel.sim_transform_ms", "sim_ms", "lower"),
    m("accel.sim_energy_mj", "mJ", "lower"),
    m("service.hit.wall_us", "us", "lower"),
    m("service.planhit.wall_us", "us", "lower"),
    m("service.miss.wall_us", "us", "lower"),
    m("service.sync_execute.wall_us", "us", "lower"),
    m("service.plan_cache.hit_rate", "ratio", "higher"),
    m("service.plan_cache.evictions", "count", "lower"),
    m("service.result_cache.hit_rate", "ratio", "higher"),
    m("service.result_cache.evictions", "count", "lower"),
    m("service.result_cache.invalidations", "count", "lower"),
    m("service.admission.admitted", "count", "higher"),
    m("service.admission.blocked", "count", "lower"),
    m("service.admission.peak_queue", "count", "lower"),
    m("telemetry.render.wall_us", "us", "lower"),
    m("bench.trace.overhead_pct", "%", "lower"),
    m("bench.canary.quiet_us", "us", "lower"),
    m("bench.canary.spread_x", "x", "lower"),
    m("bench.cpu_s_per_wall_s", "ratio", "lower"),
];

/// One workload: its name, why it exists, and its fixed sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// One line: which layers do the work.
    pub why: &'static str,
    /// Passes over the op list in a full untraced run (`R`): about ten
    /// seconds of measuring on the machine the benchmark was written on.
    pub passes: usize,
    /// Complete set-ups in a full untraced run, `passes / setups` passes
    /// measured on each; `setup_s` is their lower quartile. More where
    /// one set-up is short.
    pub setups: usize,
}

/// The five workloads, in the order `run` without `--workload` runs
/// them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "olap_single",
        why: "36 analytic SQL ops on one shard: execute is over 99% of run_sql, so the runtime stage loop, relstore row ops and the migrator do the work",
        passes: 40,
        setups: 5,
    },
    WorkloadDef {
        name: "olap_sharded",
        why: "the same ops over 2 hash shards with a mismatched-key join: ShardPlan, route_indices, shuffle and gather splice, partial-aggregate merge, per-shard threads; the two clocks disagree here",
        passes: 30,
        setups: 5,
    },
    WorkloadDef {
        name: "serve_hot",
        why: "128 short texts that all hit both service caches: fixed per-query cost only (key, digest, lookups, report clone, admission hand-off)",
        passes: 16000,
        setups: 25,
    },
    WorkloadDef {
        name: "serve_churn",
        why: "1024 texts over 256-entry caches with epoch bumps: plan misses, result inserts, LRU eviction and invalidation, the writes beside serve_hot's reads",
        passes: 50,
        setups: 5,
    },
    WorkloadDef {
        name: "hetero_ml",
        why: "the paper's Fig. 2 mix: text search, timeseries windows, connector joins, MLP and k-means with accelerator charging and offload",
        passes: 150,
        setups: 10,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
