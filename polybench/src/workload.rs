//! What a workload is to the measuring loop, and the loop itself:
//! pass-major repeats of fixed units, timed one at a time, checked
//! after the clock stops.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::{Result, Value};
use pspp_core::{Polystore, RunReport};
use pspp_ir::Program;
use pspp_runtime::{Dataset, Payload};

use crate::oplist::{Op, OpKind};
use crate::procstat;
use crate::stats::lower_quartile;
use crate::trace::Tracer;

/// Named numbers a workload reports for one pass. The gated ones must
/// repeat bit for bit in every pass.
pub type Counts = Vec<(&'static str, f64)>;

/// The outcome of running one timed unit once.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitRun {
    /// Wall seconds between the first call into the system and the last
    /// return; checking happens after.
    pub seconds: f64,
    /// Ops of the unit that failed, were refused, or returned a digest
    /// other than the expected one.
    pub failed: u64,
    /// Simulated seconds of the unit's ops (makespan, or service time).
    pub sim_seconds: f64,
    /// Simulated joules of the unit's ops.
    pub energy_j: f64,
    /// Wrapping sum of the output digests of the unit's ops.
    pub digest: u64,
}

/// Simulated accelerator ledger of the executions on a workload's path,
/// split by event kind, and their simulated makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerSplit {
    /// Simulated makespan seconds of the executions.
    pub makespan_s: f64,
    /// Simulated seconds of compute events.
    pub compute_s: f64,
    /// Simulated seconds of transfer events.
    pub transfer_s: f64,
    /// Simulated seconds of transform (serialize, remodel) events.
    pub transform_s: f64,
    /// Simulated joules of all events.
    pub energy_j: f64,
}

impl LedgerSplit {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &LedgerSplit) {
        self.makespan_s += other.makespan_s;
        self.compute_s += other.compute_s;
        self.transfer_s += other.transfer_s;
        self.transform_s += other.transform_s;
        self.energy_j += other.energy_j;
    }
}

/// Counters of the executions on a workload's path during one pass,
/// summed from the reports the system returned.
#[derive(Debug, Default)]
pub struct ExecSums {
    executed: u64,
    tasks: u64,
    exchange_rows: u64,
    exchange_edges: u64,
    offloaded: u64,
    fallbacks: u64,
    fused_chains: u64,
    migration_s: f64,
    queue_wait_s: f64,
    plan_error_s: f64,
}

impl ExecSums {
    /// Folds in one execution's report.
    pub fn absorb(&mut self, report: &RunReport) {
        let execution = &report.execution;
        self.executed += 1;
        for node in &execution.traces {
            self.tasks += node.tasks.len() as u64;
            self.exchange_rows += node.exchange_rows() as u64;
            self.fallbacks += node.fallbacks() as u64;
        }
        self.offloaded += execution.offloaded as u64;
        self.fused_chains += execution.fused_chains.len() as u64;
        self.migration_s += execution.migration_seconds;
        self.queue_wait_s += execution.queue_wait_seconds;
        if let Some(plan) = &report.placement {
            self.exchange_edges += plan.exchanges.total() as u64;
            self.plan_error_s += (plan.total_seconds - execution.makespan_sequential).abs();
        }
    }

    /// Executions folded in so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The sums as per-layer metrics.
    pub fn counts(&self) -> Counts {
        let executed = self.executed as f64;
        vec![
            ("runtime.execute.calls", executed),
            (
                "optimizer.plan_exec_abs_err_ms",
                self.plan_error_s * 1e3 / executed.max(1.0),
            ),
            ("ir.exchange_edges", self.exchange_edges as f64),
            ("runtime.tasks", self.tasks as f64),
            ("runtime.exchange_rows", self.exchange_rows as f64),
            ("runtime.offloaded_tasks", self.offloaded as f64),
            ("runtime.host_fallbacks", self.fallbacks as f64),
            ("runtime.fused_chains", self.fused_chains as f64),
            ("runtime.sim_migration_ms", self.migration_s * 1e3),
            ("runtime.sim_queue_wait_ms", self.queue_wait_s * 1e3),
        ]
    }
}

/// A set-up workload: a fixed list of timed units over a built system.
pub trait Workload {
    /// Timed units in one pass.
    fn units(&self) -> usize;

    /// Ops in each unit (1, or the batch size of a served workload).
    fn ops_per_unit(&self) -> usize;

    /// Runs unit `unit` once: times the calls into the system, then
    /// checks every output against the digest recorded at set-up.
    fn run_unit(&mut self, unit: usize) -> UnitRun;

    /// As [`Workload::run_unit`], recording a span around each call;
    /// with `probe`, additionally calls each layer's public function
    /// for every op of the unit, one span per call.
    fn run_unit_traced(
        &mut self,
        unit: usize,
        pass: u32,
        probe: bool,
        tracer: &mut Tracer,
    ) -> UnitRun;

    /// The gated counters of the pass that just ended; resets them.
    fn take_counts(&mut self) -> Counts;

    /// Counters that depend on thread timing (reported, never gated).
    fn loose_counts(&self) -> Counts;

    /// Ledger split summed over the probe passes so far, and how many
    /// probe passes that was.
    fn ledger_split(&self) -> (LedgerSplit, u32);

    /// The system under test, for the per-layer probes.
    fn system(&self) -> &Arc<Polystore>;

    /// The distinct ops of the workload, for the per-layer probes.
    fn ops(&self) -> &[Op];
}

/// Runs `op` through the facade's `run_*` entry point for its kind.
pub fn run_op(system: &Polystore, op: &Op) -> Result<RunReport> {
    match &op.kind {
        OpKind::Sql(text) => system.run_sql(text),
        OpKind::Nlq(text) => system.run_nlq(text),
        OpKind::Hetero(program) => system.run(program),
    }
}

/// Compiles `op` with the frontend for its kind.
pub fn compile_op(system: &Polystore, op: &Op) -> Result<Program> {
    match &op.kind {
        OpKind::Sql(text) => system.compile_sql(text),
        OpKind::Nlq(text) => system.compile_nlq(text),
        OpKind::Hetero(program) => system.compile(program),
    }
}

fn value_digest(value: &Value, hash: u64) -> u64 {
    match value {
        Value::Null => fnv1a(&[0], hash),
        Value::Bool(b) => fnv1a(&[1, u8::from(*b)], hash),
        Value::Int(v) => fnv1a(&v.to_le_bytes(), fnv1a(&[2], hash)),
        Value::Float(v) => fnv1a(&v.to_bits().to_le_bytes(), fnv1a(&[3], hash)),
        Value::Str(s) => fnv1a(s.as_bytes(), fnv1a(&[4], hash)),
        Value::Bytes(b) => fnv1a(b, fnv1a(&[5], hash)),
        Value::Timestamp(v) => fnv1a(&v.to_le_bytes(), fnv1a(&[6], hash)),
    }
}

/// Row-multiset digest of a run's outputs: per output, the column names
/// and row count in order plus a commutative fold of per-row hashes, so
/// a shard layout that permutes rows leaves it unchanged. A model
/// output hashes its debug rendering (every weight).
pub fn output_digest(outputs: &[Dataset]) -> u64 {
    let mut digest = FNV_OFFSET;
    for output in outputs {
        match &output.payload {
            Payload::Rows { schema, rows } => {
                for name in schema.names() {
                    digest = fnv1a(name.as_bytes(), digest);
                }
                let mut fold = 0u64;
                for row in rows {
                    let mut h = FNV_OFFSET;
                    for value in row.iter() {
                        h = value_digest(value, h);
                    }
                    fold = fold.wrapping_add(h);
                }
                digest = fnv1a(&fold.to_le_bytes(), digest);
                digest = fnv1a(&(rows.len() as u64).to_le_bytes(), digest);
            }
            Payload::Model(model) => {
                digest = fnv1a(format!("{model:?}").as_bytes(), digest);
            }
        }
    }
    digest
}

/// What the canary costs on the machine the benchmark was written on,
/// in a quiet minute: wall figures are reported at this machine speed.
pub const CANARY_REFERENCE_SECONDS: f64 = 225e-6;
/// Consecutive canary runs averaged into one timing: 2 ms of work, the
/// length of a typical op. The host takes the CPU away in bursts; a
/// 0.2 ms canary often falls between two bursts where an op cannot.
const CANARY_BLOCK: usize = 8;
/// The canary is timed between two units whenever this long has passed
/// since its last timing, which keeps it at a twentieth of the run.
const CANARY_PERIOD: Duration = Duration::from_millis(50);
const CANARY_WORDS: usize = 16_384;

/// The canary: a fixed piece of work that calls no repository code and
/// allocates nothing (copy 16 384 words, sort them, gather through
/// them), timed in the measuring thread between units all through a
/// run. The host slows this machine by 10-40 % for minutes at a time,
/// longer than a run, so no statistic over a run's own repeats can
/// remove it; the canary slows with the workload, and a wall figure
/// multiplied by [`CANARY_REFERENCE_SECONDS`] over the canary's quiet
/// cost in the same run repeats where the figure as measured does not.
#[derive(Debug)]
pub struct Canary {
    source: Vec<u64>,
    sorted: Vec<u64>,
    last: Option<Instant>,
    /// One entry per timing, seconds.
    pub timings: Vec<f64>,
}

impl Default for Canary {
    fn default() -> Self {
        Canary {
            source: (0..CANARY_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20)
                .collect(),
            sorted: vec![0; CANARY_WORDS],
            last: None,
            timings: Vec::new(),
        }
    }
}

impl Canary {
    fn once(&mut self) -> f64 {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.source);
        self.sorted.sort_unstable();
        let mut fold = 0u64;
        for (i, word) in self.sorted.iter().enumerate() {
            fold = fold.wrapping_add(word ^ self.source[(*word as usize ^ i) % CANARY_WORDS]);
        }
        black_box(fold);
        start.elapsed().as_secs_f64()
    }

    /// Times the canary if it is due: once to bring its memory back
    /// into cache, then the mean of [`CANARY_BLOCK`] runs.
    fn tick(&mut self) {
        if self.last.is_some_and(|last| last.elapsed() < CANARY_PERIOD) {
            return;
        }
        self.once();
        let total: f64 = (0..CANARY_BLOCK).map(|_| self.once()).sum();
        self.timings.push(total / CANARY_BLOCK as f64);
        self.last = Some(Instant::now());
    }

    /// The factor that brings a wall time measured in this run to the
    /// reference machine speed.
    pub fn speed_scale(&self) -> f64 {
        CANARY_REFERENCE_SECONDS / lower_quartile(&self.timings)
    }
}

/// Everything the measuring loop saw, over every set-up it ran on.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Untraced timings in seconds, `[unit][repeat]`.
    pub plain: Vec<Vec<f64>>,
    /// Traced timings in seconds, `[unit][repeat]` (traced runs only).
    pub traced: Vec<Vec<f64>>,
    /// Ops attempted, over all passes.
    pub attempted: u64,
    /// Ops failed, plus one per pass whose gated totals differ from the
    /// first pass's.
    pub failed: u64,
    /// Simulated seconds of one pass.
    pub sim_seconds: f64,
    /// Simulated joules of one pass.
    pub energy_j: f64,
    /// Gated counters of one pass.
    pub counts: Counts,
    /// Wall seconds the loop took.
    pub wall_seconds: f64,
    /// CPU seconds the process used meanwhile.
    pub cpu_seconds: f64,
    /// The canary and its timings, taken between units all through.
    pub canary: Canary,
    /// What every pass must reproduce: the first pass's totals.
    reference: Option<PassTotals>,
}

/// Output digests, simulated totals and gated counters of one pass,
/// compared bit for bit: across passes and across set-ups.
#[derive(Debug, PartialEq)]
struct PassTotals {
    digest: u64,
    sim_bits: u64,
    energy_bits: u64,
    counts: Vec<(&'static str, u64)>,
}

fn one_pass(
    w: &mut dyn Workload,
    mut traced: Option<(&mut Tracer, u32, bool)>,
    m: &mut Measurement,
) {
    let mut sim = 0.0;
    let mut energy = 0.0;
    let mut digest = 0u64;
    for unit in 0..w.units() {
        let run = match traced.as_mut() {
            Some((tracer, pass, probe)) => {
                let run = w.run_unit_traced(unit, *pass, *probe, tracer);
                m.traced[unit].push(run.seconds);
                run
            }
            None => {
                let run = w.run_unit(unit);
                m.plain[unit].push(run.seconds);
                run
            }
        };
        m.canary.tick();
        m.attempted += w.ops_per_unit() as u64;
        m.failed += run.failed;
        sim += run.sim_seconds;
        energy += run.energy_j;
        digest = digest.wrapping_add(run.digest);
    }
    let counts = w.take_counts();
    let totals = PassTotals {
        digest,
        sim_bits: sim.to_bits(),
        energy_bits: energy.to_bits(),
        counts: counts.iter().map(|(k, v)| (*k, v.to_bits())).collect(),
    };
    match &m.reference {
        Some(first) => {
            if *first != totals {
                m.failed += 1;
            }
        }
        None => {
            m.sim_seconds = sim;
            m.energy_j = energy;
            m.counts = counts;
            m.reference = Some(totals);
        }
    }
}

/// Runs passes `passes` (numbered over the whole run) over the
/// workload's units, pass-major, so a unit's repeats are spread over
/// the whole run, and adds what it sees to `m`. With a tracer, every
/// untraced pass is followed by a traced one, and every
/// `probe_stride`-th traced pass also probes the layers op by op.
pub fn measure(
    w: &mut dyn Workload,
    m: &mut Measurement,
    passes: std::ops::Range<usize>,
    mut tracer: Option<&mut Tracer>,
    probe_stride: usize,
) {
    m.plain.resize(w.units(), Vec::new());
    m.traced.resize(w.units(), Vec::new());
    let cpu_before = procstat::cpu_seconds().unwrap_or(0.0);
    let started = Instant::now();
    for pass in passes {
        one_pass(w, None, m);
        if let Some(tracer) = tracer.as_deref_mut() {
            let probe = pass % probe_stride.max(1) == 0;
            one_pass(w, Some((tracer, pass as u32, probe)), m);
        }
    }
    m.wall_seconds += started.elapsed().as_secs_f64();
    m.cpu_seconds += procstat::cpu_seconds().unwrap_or(0.0) - cpu_before;
}
