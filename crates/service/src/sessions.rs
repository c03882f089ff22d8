//! [`SessionCore`]: the deterministic event loop that decouples
//! session count from worker count.
//!
//! The thread-per-query [`QueryService`](crate::QueryService) caps
//! concurrent sessions at its worker count — fine for tens of clients,
//! useless for the 100k+ mostly-idle sessions a real serving tier
//! holds. `SessionCore` rebuilds the admission path as a discrete-event
//! simulation on the simulated clock: every session is a tiny state
//! machine
//!
//! ```text
//!            wake                   dispatch              finish
//! Parked ──────────────▶ Queued ──────────────▶ Running ─────────▶ Done
//!    ▲                     │ queue full                              │
//!    │                     ▼                                         │
//!    │                   Shed (step dropped, session lives on)       │
//!    └────────────────── next scripted step ◀────────────────────────┘
//! ```
//!
//! and the only real threads are the data plane's own: the event loop
//! is single-threaded, so 10k–1M sessions coexist with a fixed worker
//! pool (default 8) in a few bytes of state each. Shed rate is a
//! function of *offered load* (arrival rate vs. drain rate), not of
//! session count — the property E21 sweeps.
//!
//! Fairness across tenants is stride scheduling (a deterministic
//! weighted-fair-queueing realization): each tenant owns a FIFO
//! subqueue and a virtual-time pass; dispatch always picks the
//! smallest pass (ties by tenant id) and advances it by
//! `STRIDE / weight`, so long-run dispatch shares converge to the
//! weights and no tenant starves. Plan and result caches are
//! partitioned per tenant: one tenant's repeats never warm another's
//! billing, while the *physical* work is shared through a global
//! execution memo (execution is bit-deterministic, so replaying a
//! recorded run is exact — [`SessionCoreConfig::memoize_execution`]).
//!
//! Following the repo-wide methodology (real data plane, simulated
//! clock): queries really execute (or replay a real execution bit-for-
//! bit), all latencies/shed decisions are simulated seconds, and the
//! report's digest folds every offered step's output digest in
//! (session, step) order — independent of worker count, queue
//! interleaving and cache configuration, which is what makes
//! "result-cache on == off, byte-identical" a checkable claim.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::{Error, PartitionSpec, Result, TableRef};
use pspp_core::Polystore;
use pspp_optimizer::OptLevel;
use pspp_runtime::{ExecutionReport, Payload, RebalanceReport};

use crate::cache::{
    CacheStats, CachedPlan, CachedResult, PlanCache, PlanKey, ResultCache, ResultCacheStats,
    ResultKey,
};
use crate::service::{Query, CACHE_HIT_SECONDS, RESULT_HIT_SECONDS};
use crate::stats::LatencyHistogram;

/// Stride-scheduler scale: pass advances by `STRIDE / weight` per
/// dispatched job.
const STRIDE: u64 = 1 << 20;

/// Floor on the retry back-off, in simulated seconds: early in a run
/// the service-time EWMA is still zero, and a zero back-off would
/// re-offer the step at the same instant it was refused.
const MIN_RETRY_BACKOFF_S: f64 = 1e-3;

/// One session's lifecycle position in the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionState {
    /// Idle between scripted steps; costs nothing but its table row.
    #[default]
    Parked,
    /// Woken and waiting in its tenant's submission subqueue.
    Queued,
    /// Occupying a worker slot.
    Running,
    /// Script exhausted.
    Done,
}

/// One scripted query submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStep {
    /// Earliest simulated second this step may wake (it also waits for
    /// the previous step to finish).
    pub at: f64,
    /// Index into the run's shared query pool.
    pub query: u32,
}

/// One session's script: who it belongs to and what it submits.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScript {
    /// Tenant id (indexes [`SessionCoreConfig::tenant_weights`];
    /// unknown tenants get weight 1).
    pub tenant: u32,
    /// Steps, submitted in order.
    pub steps: Vec<SessionStep>,
}

/// A scripted mid-run engine mutation: at simulated second `at`, the
/// core incrementally rebalances `table` to `spec`
/// ([`Polystore::rebalance`] — only rows whose shard assignment
/// changes move), bumping the engine-state epoch and thereby orphaning
/// every cached plan and result. The per-event
/// [`RebalanceReport`]s land in [`SessionCoreReport::rebalances`].
#[derive(Debug, Clone)]
pub struct ReshardEvent {
    /// Simulated second the mutation lands.
    pub at: f64,
    /// Table to redistribute.
    pub table: TableRef,
    /// New partition spec.
    pub spec: PartitionSpec,
}

/// Session-core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCoreConfig {
    /// Worker slots draining the submission queue (>= 1).
    pub workers: usize,
    /// Sessions that may wait queued beyond the running ones (>= 1);
    /// a wake finding the queue full is shed.
    pub queue_depth: usize,
    /// Result-cache toggle: `None` inherits the system's
    /// [`PolystoreBuilder::result_cache`](pspp_core::PolystoreBuilder::result_cache)
    /// setting, `Some` overrides per core.
    pub result_cache: Option<bool>,
    /// Per-tenant result-cache capacity, in memoized executions.
    pub result_cache_capacity: usize,
    /// Per-tenant plan-cache capacity, in plans.
    pub plan_cache_capacity: usize,
    /// Replay recorded executions instead of re-running the data plane
    /// for repeated `(plan digest, epoch)` keys. Exact by construction
    /// (execution is bit-deterministic — see the memo test in this
    /// module), and what makes million-session sweeps feasible in
    /// wall-clock time. Off = every billed miss really executes.
    pub memoize_execution: bool,
    /// Dispatch weight per tenant id (missing/zero entries read as 1).
    pub tenant_weights: Vec<u32>,
    /// How many times a step refused at a full queue re-offers itself
    /// before it is shed for good. Each refusal backs the session off
    /// by the current retry-after hint (the same EWMA-derived figure
    /// [`SessionCoreReport::retry_after_seconds`] reports, floored at
    /// 1ms). `0` (the default) sheds immediately —
    /// the pre-retry behavior.
    pub retry_max: u32,
    /// Per-tenant result-cache byte budget (estimated payload bytes);
    /// `None` bounds each partition by entry count only.
    pub result_cache_budget_bytes: Option<u64>,
}

impl Default for SessionCoreConfig {
    fn default() -> Self {
        SessionCoreConfig {
            workers: 8,
            queue_depth: 64,
            result_cache: None,
            result_cache_capacity: 256,
            plan_cache_capacity: 256,
            memoize_execution: false,
            tenant_weights: Vec::new(),
            retry_max: 0,
            result_cache_budget_bytes: None,
        }
    }
}

/// One tenant's accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Dispatch weight.
    pub weight: u32,
    /// Steps that woke (completed + shed).
    pub offered: u64,
    /// Steps that ran to completion.
    pub completed: u64,
    /// Steps dropped because the submission queue was full.
    pub shed: u64,
    /// Back-off retries taken after full-queue refusals (a step may
    /// retry several times before completing or shedding).
    pub retries: u64,
    /// Result-cache hits among completed steps.
    pub result_hits: u64,
    /// Result-cache misses among completed steps.
    pub result_misses: u64,
    /// Sum of simulated service seconds (plan + execution or lookup).
    pub sim_seconds: f64,
    /// Simulated wake-to-finish latency histogram.
    pub latency: LatencyHistogram,
}

impl TenantReport {
    /// Shed fraction of offered steps in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Everything one [`SessionCore::run`] produces.
#[derive(Debug, Clone)]
pub struct SessionCoreReport {
    /// Sessions in the table.
    pub sessions: usize,
    /// Worker slots.
    pub workers: usize,
    /// Steps that woke.
    pub offered: u64,
    /// Steps that completed.
    pub completed: u64,
    /// Steps shed at a full queue (after exhausting any retries).
    pub shed: u64,
    /// Back-off retries taken across all tenants.
    pub retries: u64,
    /// Simulated second of the last event.
    pub makespan_seconds: f64,
    /// Order-sensitive FNV fold of every offered step's output digest
    /// in (session, step) order — shed steps contribute the digest
    /// their query produces when executed once out-of-band, so the
    /// value is independent of worker count, queue interleaving and
    /// cache configuration.
    pub digest: u64,
    /// Largest number of simultaneously parked sessions.
    pub peak_parked: usize,
    /// Largest submission-queue length observed.
    pub peak_queue: usize,
    /// Times the data plane actually ran (everything else was a
    /// result-cache hit or an execution-memo replay).
    pub real_executions: u64,
    /// The back-off hint a shed session would receive at the end of
    /// the run, in simulated seconds.
    pub retry_after_seconds: f64,
    /// All tenants' latency histograms merged.
    pub latency: LatencyHistogram,
    /// Per-tenant plan-cache partitions folded together.
    pub plan_cache: CacheStats,
    /// Per-tenant result-cache partitions folded together.
    pub result_cache: ResultCacheStats,
    /// Per-tenant rows, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// One report per scripted [`ReshardEvent`], in firing order: the
    /// incremental-rebalance diffs (moved/retained rows, moved bytes)
    /// the online-grow path produced mid-run.
    pub rebalances: Vec<RebalanceReport>,
}

impl SessionCoreReport {
    /// Shed fraction of offered steps in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Mean simulated wake-to-finish seconds per completed step.
    pub fn mean_latency_seconds(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.tenants.iter().map(|t| t.sim_seconds).sum::<f64>() / self.completed as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A session's step becomes eligible.
    Wake { session: u32, step: u32 },
    /// A worker's current job completes.
    Finish { worker: u32 },
    /// A step refused at a full queue re-offers itself after backing
    /// off (`attempt` counts prior refusals; it never exceeds
    /// [`SessionCoreConfig::retry_max`]).
    Retry {
        session: u32,
        step: u32,
        attempt: u32,
    },
    /// A scripted engine mutation lands.
    Reshard { index: u32 },
}

/// Heap node ordered by (time, seq): `seq` is the deterministic
/// insertion tie-break, so same-instant events process in the exact
/// order the single-threaded loop created them.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time.to_bits() == other.time.to_bits() && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A dispatched job occupying a worker slot.
#[derive(Debug, Clone, Copy)]
struct RunningJob {
    session: u32,
    step: u32,
    woke: f64,
    service_seconds: f64,
    digest: u64,
    result_hit: bool,
}

/// One tenant's runtime state: its WFQ subqueue and cache partitions.
struct TenantRt {
    queue: VecDeque<(u32, u32, f64)>, // (session, step, wake time)
    pass: u64,
    stride: u64,
    plans: PlanCache,
    results: Option<ResultCache>,
    report: TenantReport,
}

/// What dispatching one step costs and yields.
struct StepMeasure {
    service_seconds: f64,
    digest: u64,
    result_hit: bool,
}

/// The deterministic session event loop (see the module docs).
#[derive(Debug)]
pub struct SessionCore {
    system: Polystore,
    config: SessionCoreConfig,
}

impl SessionCore {
    /// Builds a core over an *owned* system. Exclusive ownership is
    /// what makes mid-run [`ReshardEvent`]s sound: nothing else can
    /// observe the engines between events, so a mutation lands at an
    /// exact simulated instant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for zero workers or queue depth.
    pub fn new(system: Polystore, config: SessionCoreConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(Error::Config("session core needs >= 1 worker".into()));
        }
        if config.queue_depth == 0 {
            return Err(Error::Config(
                "session core queue depth must be >= 1".into(),
            ));
        }
        Ok(SessionCore { system, config })
    }

    /// The underlying system.
    pub fn system(&self) -> &Polystore {
        &self.system
    }

    /// Runs every script to completion. See
    /// [`SessionCore::run_with_events`].
    ///
    /// # Errors
    ///
    /// Propagates compile/optimize/execute errors and script
    /// validation.
    pub fn run(
        &mut self,
        queries: &[Query],
        scripts: &[SessionScript],
    ) -> Result<SessionCoreReport> {
        self.run_with_events(queries, scripts, &[])
    }

    /// Runs every script to completion with scripted mid-run engine
    /// mutations. Caches start cold each run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for out-of-range query indices or
    /// non-finite/negative wake times, and propagates
    /// compile/optimize/execute/reshard errors.
    pub fn run_with_events(
        &mut self,
        queries: &[Query],
        scripts: &[SessionScript],
        reshards: &[ReshardEvent],
    ) -> Result<SessionCoreReport> {
        for script in scripts {
            for step in &script.steps {
                if step.query as usize >= queries.len() {
                    return Err(Error::Config(format!(
                        "script step references query {} of a pool of {}",
                        step.query,
                        queries.len()
                    )));
                }
                if !step.at.is_finite() || step.at < 0.0 {
                    return Err(Error::Config(format!(
                        "script wake time {} is not a finite non-negative second",
                        step.at
                    )));
                }
            }
        }

        let tenant_count = scripts
            .iter()
            .map(|s| s.tenant as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.config.tenant_weights.len());
        let result_cache_on = self
            .config
            .result_cache
            .unwrap_or_else(|| self.system.result_cache());
        let metrics = self.system.metrics().clone();
        let mut tenants: Vec<TenantRt> = (0..tenant_count)
            .map(|t| {
                let weight = self
                    .config
                    .tenant_weights
                    .get(t)
                    .copied()
                    .unwrap_or(1)
                    .max(1);
                TenantRt {
                    queue: VecDeque::new(),
                    pass: 0,
                    stride: STRIDE / u64::from(weight),
                    plans: PlanCache::new(self.config.plan_cache_capacity),
                    results: result_cache_on.then(|| {
                        let cache = ResultCache::new(self.config.result_cache_capacity)
                            .with_metrics(&metrics);
                        match self.config.result_cache_budget_bytes {
                            Some(budget) => cache.with_byte_budget(budget),
                            None => cache,
                        }
                    }),
                    report: TenantReport {
                        tenant: t as u32,
                        weight,
                        ..TenantReport::default()
                    },
                }
            })
            .collect();

        // Shared physical layer: compile and execute each (plan
        // digest, epoch) once, whatever tenant asks. Tenants bill
        // against their own cache partitions above.
        let mut plan_memo: HashMap<(u64, u64), Arc<CachedPlan>> = HashMap::new();
        let mut exec_memo: HashMap<(u64, u64), Arc<CachedResult>> = HashMap::new();
        let mut real_executions: u64 = 0;

        // Per-step output-digest slots in (session, step) order.
        let step_offset: Vec<usize> = scripts
            .iter()
            .scan(0usize, |acc, s| {
                let here = *acc;
                *acc += s.steps.len();
                Some(here)
            })
            .collect();
        let total_steps: usize = scripts.iter().map(|s| s.steps.len()).sum();
        let mut slots: Vec<Option<u64>> = vec![None; total_steps];
        let mut shed_steps: Vec<(u32, u32)> = Vec::new();

        // Event heap, seeded with every session's first wake and the
        // scripted mutations.
        let mut heap: BinaryHeap<Reverse<Event>> =
            BinaryHeap::with_capacity(scripts.len() + self.config.workers + reshards.len() + 1);
        let mut seq: u64 = 0;
        for (i, script) in scripts.iter().enumerate() {
            if !script.steps.is_empty() {
                push_event(
                    &mut heap,
                    &mut seq,
                    script.steps[0].at,
                    EventKind::Wake {
                        session: i as u32,
                        step: 0,
                    },
                );
            }
        }
        for (i, reshard) in reshards.iter().enumerate() {
            if !reshard.at.is_finite() || reshard.at < 0.0 {
                return Err(Error::Config(format!(
                    "reshard time {} is not a finite non-negative second",
                    reshard.at
                )));
            }
            push_event(
                &mut heap,
                &mut seq,
                reshard.at,
                EventKind::Reshard { index: i as u32 },
            );
        }

        let mut states: Vec<SessionState> = vec![SessionState::Parked; scripts.len()];
        let mut free_workers: BinaryHeap<Reverse<u32>> =
            (0..self.config.workers as u32).map(Reverse).collect();
        let mut running: Vec<Option<RunningJob>> = vec![None; self.config.workers];
        let mut parked = scripts.iter().filter(|s| !s.steps.is_empty()).count();
        let mut peak_parked = parked;
        let mut queued_total: usize = 0;
        let mut peak_queue: usize = 0;
        let mut ewma_service_micros: u64 = 0;
        let mut clock: f64 = 0.0;
        let mut rebalances: Vec<RebalanceReport> = Vec::with_capacity(reshards.len());
        let rounds = (self.config.queue_depth as u64 + 1).div_ceil(self.config.workers as u64);

        while let Some(Reverse(event)) = heap.pop() {
            clock = event.time;
            // Wake and Retry share the admission path below; Reshard
            // and Finish handle themselves and continue.
            let (session, step, attempt) = match event.kind {
                EventKind::Reshard { index } => {
                    let r = &reshards[index as usize];
                    rebalances.push(self.system.rebalance(&r.table, r.spec.clone())?);
                    continue;
                }
                EventKind::Wake { session, step } => (session, step, 0u32),
                EventKind::Retry {
                    session,
                    step,
                    attempt,
                } => (session, step, attempt),
                EventKind::Finish { worker } => {
                    let job = running[worker as usize]
                        .take()
                        .expect("finish event for an idle worker");
                    let script = &scripts[job.session as usize];
                    let tenant = &mut tenants[script.tenant as usize];
                    tenant.report.completed += 1;
                    if job.result_hit {
                        tenant.report.result_hits += 1;
                    } else {
                        tenant.report.result_misses += 1;
                    }
                    tenant.report.sim_seconds += job.service_seconds;
                    tenant.report.latency.record(clock - job.woke);
                    slots[step_offset[job.session as usize] + job.step as usize] = Some(job.digest);
                    advance_session(
                        &mut heap,
                        &mut seq,
                        scripts,
                        job.session,
                        job.step,
                        clock,
                        &mut states,
                        &mut parked,
                    );
                    peak_parked = peak_parked.max(parked);

                    // The freed worker pulls the WFQ pick, if any.
                    let pick = tenants
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| !t.queue.is_empty())
                        .min_by_key(|(id, t)| (t.pass, *id))
                        .map(|(id, _)| id);
                    match pick {
                        Some(tid) => {
                            let (session, step, woke) =
                                tenants[tid].queue.pop_front().expect("non-empty pick");
                            queued_total -= 1;
                            tenants[tid].pass += tenants[tid].stride;
                            states[session as usize] = SessionState::Running;
                            let script = &scripts[session as usize];
                            let measure = measure_step(
                                &self.system,
                                &mut tenants[tid],
                                &mut plan_memo,
                                &mut exec_memo,
                                &mut real_executions,
                                self.config.memoize_execution,
                                &queries[script.steps[step as usize].query as usize],
                            )?;
                            ewma_service_micros =
                                fold_ewma(ewma_service_micros, measure.service_seconds);
                            running[worker as usize] = Some(RunningJob {
                                session,
                                step,
                                woke,
                                service_seconds: measure.service_seconds,
                                digest: measure.digest,
                                result_hit: measure.result_hit,
                            });
                            push_event(
                                &mut heap,
                                &mut seq,
                                clock + measure.service_seconds,
                                EventKind::Finish { worker },
                            );
                        }
                        None => free_workers.push(Reverse(worker)),
                    }
                    continue;
                }
            };

            // Admission (fresh wakes and retries alike): a free worker
            // dispatches immediately, a queue slot waits, and a full
            // queue backs off — or sheds once retries run out. Only a
            // fresh wake counts as offered; its retries are the same
            // step still waiting to be admitted.
            let script = &scripts[session as usize];
            let tenant = script.tenant as usize;
            parked -= 1;
            if attempt == 0 {
                tenants[tenant].report.offered += 1;
            }
            if let Some(Reverse(worker)) = free_workers.pop() {
                // Straight to a worker: Parked → Queued → Running at
                // one instant.
                states[session as usize] = SessionState::Running;
                let measure = measure_step(
                    &self.system,
                    &mut tenants[tenant],
                    &mut plan_memo,
                    &mut exec_memo,
                    &mut real_executions,
                    self.config.memoize_execution,
                    &queries[script.steps[step as usize].query as usize],
                )?;
                ewma_service_micros = fold_ewma(ewma_service_micros, measure.service_seconds);
                running[worker as usize] = Some(RunningJob {
                    session,
                    step,
                    woke: clock,
                    service_seconds: measure.service_seconds,
                    digest: measure.digest,
                    result_hit: measure.result_hit,
                });
                push_event(
                    &mut heap,
                    &mut seq,
                    clock + measure.service_seconds,
                    EventKind::Finish { worker },
                );
            } else if queued_total < self.config.queue_depth {
                states[session as usize] = SessionState::Queued;
                tenants[tenant].queue.push_back((session, step, clock));
                queued_total += 1;
                peak_queue = peak_queue.max(queued_total);
            } else if attempt < self.config.retry_max {
                // Admission-aware retry: park again and re-offer after
                // the back-off hint a shed client would receive now.
                tenants[tenant].report.retries += 1;
                states[session as usize] = SessionState::Parked;
                parked += 1;
                let backoff = ((ewma_service_micros.saturating_mul(rounds)) as f64 * 1e-6)
                    .max(MIN_RETRY_BACKOFF_S);
                push_event(
                    &mut heap,
                    &mut seq,
                    clock + backoff,
                    EventKind::Retry {
                        session,
                        step,
                        attempt: attempt + 1,
                    },
                );
            } else {
                // Shed: the step is dropped, the session moves on to
                // its next step (or retires).
                tenants[tenant].report.shed += 1;
                shed_steps.push((session, step));
                advance_session(
                    &mut heap,
                    &mut seq,
                    scripts,
                    session,
                    step,
                    clock,
                    &mut states,
                    &mut parked,
                );
            }
            peak_parked = peak_parked.max(parked);
        }

        debug_assert!(
            states
                .iter()
                .zip(scripts)
                .all(|(s, sc)| *s == SessionState::Done || sc.steps.is_empty()),
            "event loop drained with undone sessions"
        );

        // Out-of-band backfill: every shed step's query executes once
        // against the final engine state so the digest covers ALL
        // offered work. Step digests hash row *multisets* (see
        // [`output_digest`]), which resharding preserves, so
        // backfilling after any reshard yields the same digest the
        // step would have produced live —
        // and the digest becomes comparable across runs that shed
        // differently (cache on vs. off).
        for &(session, step) in &shed_steps {
            let script = &scripts[session as usize];
            let query = &queries[script.steps[step as usize].query as usize];
            let digest = backfill_digest(
                &self.system,
                &mut plan_memo,
                &mut exec_memo,
                &mut real_executions,
                self.config.memoize_execution,
                query,
            )?;
            slots[step_offset[session as usize] + step as usize] = Some(digest);
        }

        let mut digest = FNV_OFFSET;
        for slot in &slots {
            let d = slot.expect("every offered step has a digest");
            digest = fnv1a(&d.to_le_bytes(), digest);
        }

        metrics
            .gauge(
                "pspp_sessions_parked",
                "Peak simultaneously parked sessions in the session core.",
                &[],
            )
            .record_max(peak_parked as i64);
        metrics
            .gauge(
                "pspp_sessions_queue_peak",
                "Peak submission-queue length in the session core.",
                &[],
            )
            .record_max(peak_queue as i64);

        let mut latency = LatencyHistogram::new();
        let mut plan_cache = CacheStats::default();
        let mut result_cache = ResultCacheStats::default();
        let mut tenant_reports = Vec::with_capacity(tenants.len());
        let mut offered = 0;
        let mut completed = 0;
        let mut shed = 0;
        let mut retries = 0;
        for t in tenants {
            latency.merge(&t.report.latency);
            let p = t.plans.stats();
            plan_cache.hits += p.hits;
            plan_cache.misses += p.misses;
            plan_cache.insertions += p.insertions;
            plan_cache.evictions += p.evictions;
            plan_cache.len += p.len;
            if let Some(r) = &t.results {
                result_cache.absorb(&r.stats());
            }
            offered += t.report.offered;
            completed += t.report.completed;
            shed += t.report.shed;
            retries += t.report.retries;
            tenant_reports.push(t.report);
        }
        Ok(SessionCoreReport {
            sessions: scripts.len(),
            workers: self.config.workers,
            offered,
            completed,
            shed,
            retries,
            makespan_seconds: clock,
            digest,
            peak_parked,
            peak_queue,
            real_executions,
            retry_after_seconds: (ewma_service_micros.saturating_mul(rounds)) as f64 * 1e-6,
            latency,
            plan_cache,
            result_cache,
            tenants: tenant_reports,
            rebalances,
        })
    }
}

/// Folds one service time into the retry-after EWMA (same rule as the
/// worker pool's: `new = (7 * old + sample) / 8`).
fn fold_ewma(old: u64, service_seconds: f64) -> u64 {
    let sample = (service_seconds * 1e6) as u64;
    if old == 0 {
        sample
    } else {
        (old.saturating_mul(7) + sample) / 8
    }
}

/// Pushes one event with the next deterministic sequence number.
fn push_event(heap: &mut BinaryHeap<Reverse<Event>>, seq: &mut u64, time: f64, kind: EventKind) {
    *seq += 1;
    heap.push(Reverse(Event {
        time,
        seq: *seq,
        kind,
    }));
}

/// Schedules a session's next step (or retires it): the next wake is
/// `max(step.at, now)` — a step can't start before its scripted time
/// nor before its predecessor finished.
#[allow(clippy::too_many_arguments)]
fn advance_session(
    heap: &mut BinaryHeap<Reverse<Event>>,
    seq: &mut u64,
    scripts: &[SessionScript],
    session: u32,
    step: u32,
    now: f64,
    states: &mut [SessionState],
    parked: &mut usize,
) {
    let script = &scripts[session as usize];
    let next = step as usize + 1;
    if next < script.steps.len() {
        states[session as usize] = SessionState::Parked;
        *parked += 1;
        push_event(
            heap,
            seq,
            script.steps[next].at.max(now),
            EventKind::Wake {
                session,
                step: next as u32,
            },
        );
    } else {
        states[session as usize] = SessionState::Done;
    }
}

/// Canonical, layout-invariant digest of an execution's outputs: each
/// output contributes its schema and row count order-sensitively plus
/// a *commutative* fold over per-row digests, so resharding — which
/// may permute a scan's output order but never its row multiset —
/// leaves the digest unchanged. Model payloads hash their debug
/// rendering. This is what lets cache-on and cache-off runs that
/// straddle a mid-run reshard at different simulated instants still
/// agree byte-for-byte.
fn output_digest(execution: &ExecutionReport) -> u64 {
    let mut digest = FNV_OFFSET;
    for output in &execution.outputs {
        match &output.payload {
            Payload::Rows { schema, rows } => {
                digest = fnv1a(format!("{schema:?}").as_bytes(), digest);
                let mut fold: u64 = 0;
                for row in rows {
                    fold = fold.wrapping_add(fnv1a(format!("{row:?}").as_bytes(), FNV_OFFSET));
                }
                digest = fnv1a(&fold.to_le_bytes(), digest);
                digest = fnv1a(&(rows.len() as u64).to_le_bytes(), digest);
            }
            Payload::Model(_) => {
                digest = fnv1a(format!("{:?}", output.payload).as_bytes(), digest);
            }
        }
    }
    digest
}

/// Resolves a plan through the global compile memo (compile once per
/// (digest, epoch), whoever asks).
fn resolve_plan(
    system: &Polystore,
    plan_memo: &mut HashMap<(u64, u64), Arc<CachedPlan>>,
    query: &Query,
    key: &PlanKey,
) -> Result<Arc<CachedPlan>> {
    let memo_key = (key.digest(), key.epoch);
    if let Some(plan) = plan_memo.get(&memo_key) {
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(CachedPlan::build(system, query, key)?);
    plan_memo.insert(memo_key, Arc::clone(&plan));
    Ok(plan)
}

/// Executes a plan through the global execution memo: a recorded
/// `(exec_seconds, digest, report)` replays bit-for-bit when
/// memoization is on; otherwise the data plane runs for real.
fn execute_plan(
    system: &Polystore,
    exec_memo: &mut HashMap<(u64, u64), Arc<CachedResult>>,
    real_executions: &mut u64,
    memoize: bool,
    memo_key: (u64, u64),
    level: OptLevel,
    plan: &CachedPlan,
) -> Result<Arc<CachedResult>> {
    if memoize {
        if let Some(cached) = exec_memo.get(&memo_key) {
            return Ok(Arc::clone(cached));
        }
    }
    *real_executions += 1;
    let (report, _) = system.run_optimized(
        &plan.program,
        level,
        plan.rewrites.clone(),
        plan.placement.clone(),
    )?;
    let digest = output_digest(&report.execution);
    let cached = Arc::new(CachedResult {
        digest,
        exec_seconds: report.makespan(),
        report,
    });
    if memoize {
        exec_memo.insert(memo_key, Arc::clone(&cached));
    }
    Ok(cached)
}

/// Prices one step for one tenant: plan cost against the tenant's plan
/// cache partition, then either a result-cache hit (lookup cost, no
/// execution) or a full execution billed at its makespan.
fn measure_step(
    system: &Polystore,
    tenant: &mut TenantRt,
    plan_memo: &mut HashMap<(u64, u64), Arc<CachedPlan>>,
    exec_memo: &mut HashMap<(u64, u64), Arc<CachedResult>>,
    real_executions: &mut u64,
    memoize: bool,
    query: &Query,
) -> Result<StepMeasure> {
    let level = system.opt_level();
    let key = PlanKey {
        dialect: query.dialect(),
        text: query.key_text(),
        opt_level: level,
        epoch: system.epoch(),
    };
    let (plan, plan_hit) = match tenant.plans.get(&key) {
        Some(plan) => (plan, true),
        None => {
            let plan = resolve_plan(system, plan_memo, query, &key)?;
            tenant.plans.insert(key.clone(), Arc::clone(&plan));
            (plan, false)
        }
    };
    let plan_seconds = if plan_hit {
        CACHE_HIT_SECONDS
    } else {
        plan.plan_seconds
    };
    let memo_key = (key.digest(), key.epoch);
    let result_key = ResultKey {
        plan_digest: memo_key.0,
        epoch: memo_key.1,
    };
    if let Some(results) = &tenant.results {
        if let Some(cached) = results.get(&result_key) {
            return Ok(StepMeasure {
                service_seconds: plan_seconds + RESULT_HIT_SECONDS,
                digest: cached.digest,
                result_hit: true,
            });
        }
    }
    let cached = execute_plan(
        system,
        exec_memo,
        real_executions,
        memoize,
        memo_key,
        level,
        &plan,
    )?;
    if let Some(results) = &tenant.results {
        results.insert(result_key, Arc::clone(&cached));
    }
    Ok(StepMeasure {
        service_seconds: plan_seconds + cached.exec_seconds,
        digest: cached.digest,
        result_hit: false,
    })
}

/// Resolves a shed step's output digest against the physical layer
/// only — no tenant cache is touched and nothing is billed, because
/// the step never ran; it exists so the run digest covers all offered
/// work.
fn backfill_digest(
    system: &Polystore,
    plan_memo: &mut HashMap<(u64, u64), Arc<CachedPlan>>,
    exec_memo: &mut HashMap<(u64, u64), Arc<CachedResult>>,
    real_executions: &mut u64,
    memoize: bool,
    query: &Query,
) -> Result<u64> {
    let level = system.opt_level();
    let key = PlanKey {
        dialect: query.dialect(),
        text: query.key_text(),
        opt_level: level,
        epoch: system.epoch(),
    };
    let plan = resolve_plan(system, plan_memo, query, &key)?;
    let memo_key = (key.digest(), key.epoch);
    let cached = execute_plan(
        system,
        exec_memo,
        real_executions,
        memoize,
        memo_key,
        level,
        &plan,
    )?;
    Ok(cached.digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_core::prelude::*;

    const POOL: [&str; 4] = [
        "SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10",
        "SELECT count(*) AS n FROM admissions",
        "SELECT pid FROM admissions WHERE age < 40",
        "SELECT name, age FROM admissions JOIN db2.patients ON admissions.pid = patients.pid",
    ];

    fn queries() -> Vec<Query> {
        POOL.iter().map(|q| Query::sql(*q)).collect()
    }

    fn small_system(result_cache: bool) -> Polystore {
        Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 400,
            vitals_per_patient: 4,
            seed: 7,
        }))
        .result_cache(result_cache)
        .build()
        .expect("valid config")
    }

    /// `n` single-tenant sessions, `steps` steps each, staggered wakes.
    fn scripts(n: usize, steps: usize) -> Vec<SessionScript> {
        (0..n)
            .map(|i| SessionScript {
                tenant: 0,
                steps: (0..steps)
                    .map(|k| SessionStep {
                        at: (i % 5) as f64 * 1e-3,
                        query: ((i + k) % POOL.len()) as u32,
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn validates_configuration_and_scripts() {
        let bad = SessionCoreConfig {
            workers: 0,
            ..SessionCoreConfig::default()
        };
        assert!(SessionCore::new(small_system(false), bad).is_err());
        let bad = SessionCoreConfig {
            queue_depth: 0,
            ..SessionCoreConfig::default()
        };
        assert!(SessionCore::new(small_system(false), bad).is_err());

        let mut core = SessionCore::new(small_system(false), SessionCoreConfig::default()).unwrap();
        let oob = vec![SessionScript {
            tenant: 0,
            steps: vec![SessionStep { at: 0.0, query: 99 }],
        }];
        assert!(core.run(&queries(), &oob).is_err());
        let bad_time = vec![SessionScript {
            tenant: 0,
            steps: vec![SessionStep { at: -1.0, query: 0 }],
        }];
        assert!(core.run(&queries(), &bad_time).is_err());
    }

    #[test]
    fn digest_is_independent_of_worker_count() {
        let scripts = scripts(24, 2);
        let queries = queries();
        let mut narrow = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 64,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let mut wide = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                workers: 8,
                queue_depth: 64,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let a = narrow.run(&queries, &scripts).unwrap();
        let b = wide.run(&queries, &scripts).unwrap();
        assert_eq!(a.offered, 48);
        assert_eq!(a.completed, 48);
        assert_eq!(a.shed, 0);
        assert_eq!(a.digest, b.digest, "digest must not depend on workers");
        assert!(b.makespan_seconds <= a.makespan_seconds);
        // The parked-session gauge saw the fleet.
        assert!(
            narrow
                .system()
                .metrics()
                .snapshot()
                .gauge_value("pspp_sessions_parked", &[])
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn result_cache_cuts_latency_without_changing_the_digest() {
        let scripts = scripts(32, 3);
        let queries = queries();
        let config = SessionCoreConfig {
            workers: 4,
            queue_depth: 128,
            memoize_execution: true,
            ..SessionCoreConfig::default()
        };
        let mut off = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                result_cache: Some(false),
                ..config.clone()
            },
        )
        .unwrap();
        // `None` inherits the system toggle — build the system with it on.
        let mut on = SessionCore::new(small_system(true), config).unwrap();
        let cold = off.run(&queries, &scripts).unwrap();
        let warm = on.run(&queries, &scripts).unwrap();
        assert_eq!(cold.digest, warm.digest, "cache must be invisible in bytes");
        assert_eq!(cold.result_cache.hits, 0);
        assert!(warm.result_cache.hits > 0, "repeats should hit");
        assert!(
            warm.mean_latency_seconds() < cold.mean_latency_seconds(),
            "hits bill at lookup cost: {} !< {}",
            warm.mean_latency_seconds(),
            cold.mean_latency_seconds()
        );
        // Memoized physical layer: far fewer real runs than offered steps.
        assert!(warm.real_executions <= POOL.len() as u64);
    }

    #[test]
    fn full_queue_sheds_but_the_digest_still_covers_all_offered_steps() {
        let scripts: Vec<SessionScript> = (0..16)
            .map(|i| SessionScript {
                tenant: 0,
                steps: vec![SessionStep {
                    at: 0.0,
                    query: (i % POOL.len()) as u32,
                }],
            })
            .collect();
        let queries = queries();
        let mut tight = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 1,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let mut roomy = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 64,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let shed = tight.run(&queries, &scripts).unwrap();
        let kept = roomy.run(&queries, &scripts).unwrap();
        assert!(shed.shed > 0, "depth-1 queue under a 16-way burst sheds");
        assert_eq!(shed.offered, shed.completed + shed.shed);
        assert!(shed.retry_after_seconds > 0.0);
        assert_eq!(kept.shed, 0);
        assert_eq!(
            shed.digest, kept.digest,
            "shed steps backfill, so the digest covers all offered work"
        );
    }

    #[test]
    fn stride_wfq_favors_the_heavier_tenant() {
        // 20 sessions per tenant, everyone wakes at t=0 on one worker:
        // the weight-1000 tenant drains ~all its queue before tenant 0's
        // second job, so its median latency is far (> 2x, hence a lower
        // log2 bucket) below tenant 0's.
        let scripts: Vec<SessionScript> = (0..40)
            .map(|i| SessionScript {
                tenant: (i % 2) as u32,
                steps: vec![SessionStep { at: 0.0, query: 3 }],
            })
            .collect();
        let mut core = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 64,
                memoize_execution: true,
                tenant_weights: vec![1, 1000],
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let report = core.run(&queries(), &scripts).unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].weight, 1);
        assert_eq!(report.tenants[1].weight, 1000);
        let p50_light = report.tenants[0].latency.quantile(0.5).unwrap();
        let p50_heavy = report.tenants[1].latency.quantile(0.5).unwrap();
        assert!(
            p50_heavy < p50_light,
            "weight 1000 should wait less: {p50_heavy} !< {p50_light}"
        );
    }

    #[test]
    fn mid_run_reshard_bumps_the_epoch_and_keeps_the_digest() {
        let scripts = scripts(16, 2);
        let queries = queries();
        let config = SessionCoreConfig {
            workers: 2,
            queue_depth: 64,
            result_cache: Some(true),
            memoize_execution: true,
            ..SessionCoreConfig::default()
        };
        let mut plain = SessionCore::new(small_system(false), config.clone()).unwrap();
        let mut resharded = SessionCore::new(small_system(false), config).unwrap();
        let baseline = plain.run(&queries, &scripts).unwrap();
        let epoch_before = resharded.system().epoch();
        let events = [ReshardEvent {
            at: 1e-3,
            table: TableRef::new("db1", "admissions"),
            spec: PartitionSpec::hash("pid", 3),
        }];
        let report = resharded
            .run_with_events(&queries, &scripts, &events)
            .unwrap();
        assert!(resharded.system().epoch() > epoch_before);
        assert_eq!(
            baseline.digest, report.digest,
            "resharding never changes query results"
        );
        // The epoch bump forces replanning: more plan-cache misses than
        // distinct queries alone would explain.
        assert!(report.plan_cache.misses > baseline.plan_cache.misses);
        // The mutation ran as an incremental rebalance and reported
        // its diff.
        assert_eq!(report.rebalances.len(), 1);
        let diff = &report.rebalances[0];
        assert!(diff.total_rows > 0);
        assert_eq!(diff.total_rows, diff.moved_rows + diff.retained_rows);
        assert_eq!(diff.total_shards, 3);

        assert_eq!(baseline.rebalances.len(), 0);
    }

    #[test]
    fn retries_absorb_a_burst_the_bare_queue_would_shed() {
        // 16 one-step sessions against one worker and a depth-1 queue:
        // without retries most of the burst sheds; with a generous
        // retry allowance every refused step re-offers itself after the
        // back-off hint until the queue drains, and nothing sheds. The
        // digest covers all offered work either way.
        let scripts: Vec<SessionScript> = (0..16)
            .map(|i| SessionScript {
                tenant: 0,
                steps: vec![SessionStep {
                    at: 0.0,
                    query: (i % POOL.len()) as u32,
                }],
            })
            .collect();
        let queries = queries();
        let config = SessionCoreConfig {
            workers: 1,
            queue_depth: 1,
            memoize_execution: true,
            ..SessionCoreConfig::default()
        };
        let mut bare = SessionCore::new(small_system(false), config.clone()).unwrap();
        let mut patient = SessionCore::new(
            small_system(false),
            SessionCoreConfig {
                retry_max: 64,
                ..config
            },
        )
        .unwrap();
        let shed = bare.run(&queries, &scripts).unwrap();
        let retried = patient.run(&queries, &scripts).unwrap();
        assert!(shed.shed > 0, "bare depth-1 queue sheds the burst");
        assert_eq!(shed.retries, 0);
        assert_eq!(retried.shed, 0, "retries absorb the whole burst");
        assert!(retried.retries > 0, "refusals were retried, not dropped");
        assert_eq!(retried.offered, 16, "retries never recount offers");
        assert_eq!(retried.completed, 16);
        assert_eq!(retried.tenants[0].retries, retried.retries);
        assert_eq!(
            shed.digest, retried.digest,
            "retrying changes when steps run, never what they produce"
        );
        // Backing off costs simulated time: the patient run finishes
        // later than the shedding one.
        assert!(retried.makespan_seconds > shed.makespan_seconds);
    }
}
