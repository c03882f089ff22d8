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
//! weights and no tenant starves. Every dispatch prices its step down
//! the one serving path [`QueryService`](crate::QueryService) uses
//! too (the crate-private `serve` module). Plan and result caches are
//! partitioned per tenant: one tenant's repeats never warm another's
//! billing, while the *physical* work is shared through global compile
//! and execution memos (execution is bit-deterministic, so replaying a
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
use std::collections::{BinaryHeap, VecDeque};

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::{Error, PartitionSpec, Result, TableRef};
use pspp_core::Polystore;
use pspp_runtime::RebalanceReport;
use pspp_telemetry::HistogramData;

use crate::admission::RetryAfter;
use crate::cache::{CacheStats, Caches, ResultCacheStats};
use crate::serve::{serve, Memos, Served};
use crate::service::Query;

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

/// Session-core configuration. Cache capacities are not here: every
/// tenant's plan and result partition holds a fixed 256 entries (see
/// [`crate::cache`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCoreConfig {
    /// Worker slots draining the submission queue (>= 1).
    pub workers: usize,
    /// Sessions that may wait queued beyond the running ones (>= 1);
    /// a wake finding the queue full is shed.
    pub queue_depth: usize,
    /// Whether tenants get a result-cache partition (default off). The
    /// result cache is a service setting — the system underneath does
    /// not know it exists.
    pub result_cache: bool,
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
}

impl Default for SessionCoreConfig {
    fn default() -> Self {
        SessionCoreConfig {
            workers: 8,
            queue_depth: 64,
            result_cache: false,
            memoize_execution: false,
            tenant_weights: Vec::new(),
            retry_max: 0,
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
    pub latency: HistogramData,
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
    pub latency: HistogramData,
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

/// An admitted step: in its tenant's subqueue, or on a worker.
#[derive(Debug, Clone, Copy)]
struct Job {
    session: u32,
    step: u32,
    /// Simulated second the step woke.
    woke: f64,
}

/// A dispatched job occupying a worker slot.
#[derive(Debug, Clone, Copy)]
struct RunningJob {
    job: Job,
    service_seconds: f64,
    digest: u64,
    result_hit: bool,
}

/// One tenant's runtime state: its WFQ subqueue and cache partitions.
struct TenantRt {
    queue: VecDeque<Job>,
    pass: u64,
    stride: u64,
    caches: Caches,
    report: TenantReport,
}

/// Everything one run's event loop reads and mutates, so its steps are
/// methods instead of functions threading a dozen `&mut` locals.
struct EventLoop<'a> {
    config: &'a SessionCoreConfig,
    queries: &'a [Query],
    scripts: &'a [SessionScript],
    tenants: Vec<TenantRt>,
    /// The physical layer every tenant shares.
    memos: Memos,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    clock: f64,
    states: Vec<SessionState>,
    parked: usize,
    peak_parked: usize,
    free_workers: BinaryHeap<Reverse<u32>>,
    running: Vec<Option<RunningJob>>,
    queued: usize,
    peak_queue: usize,
    retry: RetryAfter,
    /// Where each session's steps start in `digests`.
    step_offset: Vec<usize>,
    /// Per-step output digests in (session, step) order.
    digests: Vec<Option<u64>>,
    shed_steps: Vec<(u32, u32)>,
}

impl<'a> EventLoop<'a> {
    /// Cold caches, every session parked ahead of its first wake.
    fn new(
        system: &Polystore,
        config: &'a SessionCoreConfig,
        queries: &'a [Query],
        scripts: &'a [SessionScript],
    ) -> Self {
        let tenant_count = scripts
            .iter()
            .map(|s| s.tenant as usize + 1)
            .max()
            .unwrap_or(0)
            .max(config.tenant_weights.len());
        let tenants = (0..tenant_count)
            .map(|t| {
                let weight = config.tenant_weights.get(t).copied().unwrap_or(1).max(1);
                TenantRt {
                    queue: VecDeque::new(),
                    pass: 0,
                    stride: STRIDE / u64::from(weight),
                    caches: Caches::new(system.metrics(), false, config.result_cache),
                    report: TenantReport {
                        tenant: t as u32,
                        weight,
                        ..TenantReport::default()
                    },
                }
            })
            .collect();
        let step_offset: Vec<usize> = scripts
            .iter()
            .scan(0usize, |acc, s| {
                let here = *acc;
                *acc += s.steps.len();
                Some(here)
            })
            .collect();
        let total_steps = scripts.iter().map(|s| s.steps.len()).sum();
        let parked = scripts.iter().filter(|s| !s.steps.is_empty()).count();
        let mut this = EventLoop {
            config,
            queries,
            scripts,
            tenants,
            memos: Memos::new(config.memoize_execution),
            heap: BinaryHeap::with_capacity(scripts.len() + config.workers + 1),
            seq: 0,
            clock: 0.0,
            states: vec![SessionState::Parked; scripts.len()],
            parked,
            peak_parked: parked,
            free_workers: (0..config.workers as u32).map(Reverse).collect(),
            running: vec![None; config.workers],
            queued: 0,
            peak_queue: 0,
            retry: RetryAfter::default(),
            step_offset,
            digests: vec![None; total_steps],
            shed_steps: Vec::new(),
        };
        for (i, script) in scripts.iter().enumerate() {
            if let Some(first) = script.steps.first() {
                let (session, step) = (i as u32, 0);
                this.push(first.at, EventKind::Wake { session, step });
            }
        }
        this
    }

    /// Pushes one event with the next deterministic sequence number.
    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    fn park(&mut self, session: u32) {
        self.states[session as usize] = SessionState::Parked;
        self.parked += 1;
        self.peak_parked = self.peak_parked.max(self.parked);
    }

    /// Schedules a session's next step (or retires it): the next wake
    /// is `max(step.at, now)` — a step can't start before its scripted
    /// time nor before its predecessor finished.
    fn advance_session(&mut self, session: u32, step: u32) {
        let step = step + 1;
        match self.scripts[session as usize].steps.get(step as usize) {
            Some(next) => {
                self.park(session);
                self.push(next.at.max(self.clock), EventKind::Wake { session, step });
            }
            None => self.states[session as usize] = SessionState::Done,
        }
    }

    fn tenant_of(&self, session: u32) -> usize {
        self.scripts[session as usize].tenant as usize
    }

    fn query_of(&self, session: u32, step: u32) -> &'a Query {
        let step = self.scripts[session as usize].steps[step as usize];
        &self.queries[step.query as usize]
    }

    /// Prices one query for one tenant down the serving path: plan
    /// cost against the tenant's plan partition, then a result-cache
    /// hit (lookup cost, no execution) or an execution through the
    /// shared physical layer, billed at its makespan.
    fn measure(&mut self, system: &Polystore, tenant: usize, query: &Query) -> Result<Served> {
        let caches = &self.tenants[tenant].caches;
        let memos = Some(&mut self.memos);
        serve(system, Some(caches), memos, query)
    }

    /// Seats `job` on `worker`: measure it, fold its service time into
    /// the retry-after estimate, schedule the worker's finish. The one
    /// dispatch, whether the job came straight from a wake or off its
    /// tenant's subqueue — only the latter advances the tenant's stride
    /// pass, which the caller does.
    fn dispatch(&mut self, system: &Polystore, worker: u32, job: Job) -> Result<()> {
        self.states[job.session as usize] = SessionState::Running;
        let query = self.query_of(job.session, job.step);
        let served = self.measure(system, self.tenant_of(job.session), query)?;
        let service_seconds = served.service_seconds();
        self.retry.record((service_seconds * 1e6) as u64);
        self.running[worker as usize] = Some(RunningJob {
            job,
            service_seconds,
            digest: served.result.digest(),
            result_hit: served.result_hit,
        });
        self.push(self.clock + service_seconds, EventKind::Finish { worker });
        Ok(())
    }

    /// A worker's job completes: account it, move its session on, and
    /// let the freed worker pull the WFQ pick, if any.
    fn finish(&mut self, system: &Polystore, worker: u32) -> Result<()> {
        let done = self.running[worker as usize].take().ok_or_else(|| {
            Error::Execution(format!(
                "session core: finish event for idle worker {worker}"
            ))
        })?;
        let Job {
            session,
            step,
            woke,
        } = done.job;
        let tenant = self.tenant_of(session);
        let report = &mut self.tenants[tenant].report;
        report.completed += 1;
        if done.result_hit {
            report.result_hits += 1;
        } else {
            report.result_misses += 1;
        }
        report.sim_seconds += done.service_seconds;
        report.latency.observe_seconds(self.clock - woke);
        self.digests[self.step_offset[session as usize] + step as usize] = Some(done.digest);
        self.advance_session(session, step);

        let pick = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.queue.is_empty())
            .min_by_key(|(id, t)| (t.pass, *id))
            .map(|(id, _)| id);
        let Some(pick) = pick else {
            self.free_workers.push(Reverse(worker));
            return Ok(());
        };
        let tenant = &mut self.tenants[pick];
        let job = tenant.queue.pop_front().ok_or_else(|| {
            Error::Execution(format!(
                "session core: tenant {pick} was picked with an empty subqueue"
            ))
        })?;
        tenant.pass += tenant.stride;
        self.queued -= 1;
        self.dispatch(system, worker, job)
    }

    /// Admission (fresh wakes and retries alike): a free worker
    /// dispatches immediately, a queue slot waits, and a full queue
    /// backs off — or sheds once retries run out. Only a fresh wake
    /// counts as offered; its retries are the same step still waiting
    /// to be admitted.
    fn admit(&mut self, system: &Polystore, session: u32, step: u32, attempt: u32) -> Result<()> {
        let tenant = self.tenant_of(session);
        let woke = self.clock;
        let job = Job {
            session,
            step,
            woke,
        };
        self.parked -= 1;
        if attempt == 0 {
            self.tenants[tenant].report.offered += 1;
        }
        if let Some(Reverse(worker)) = self.free_workers.pop() {
            // Straight to a worker: Parked → Queued → Running at one
            // instant.
            self.dispatch(system, worker, job)?;
        } else if self.queued < self.config.queue_depth {
            self.states[session as usize] = SessionState::Queued;
            self.tenants[tenant].queue.push_back(job);
            self.queued += 1;
            self.peak_queue = self.peak_queue.max(self.queued);
        } else if attempt < self.config.retry_max {
            // Admission-aware retry: park again and re-offer after the
            // back-off hint a shed client would receive now.
            self.tenants[tenant].report.retries += 1;
            self.park(session);
            let backoff = self.retry_after_seconds().max(MIN_RETRY_BACKOFF_S);
            let attempt = attempt + 1;
            self.push(
                self.clock + backoff,
                EventKind::Retry {
                    session,
                    step,
                    attempt,
                },
            );
        } else {
            // Shed: the step is dropped, the session moves on to its
            // next step (or retires).
            self.tenants[tenant].report.shed += 1;
            self.shed_steps.push((session, step));
            self.advance_session(session, step);
        }
        Ok(())
    }

    /// The back-off hint a step refused at the full queue receives now.
    fn retry_after_seconds(&self) -> f64 {
        let (depth, workers) = (self.config.queue_depth, self.config.workers);
        self.retry.hint(depth, workers) as f64 * 1e-6
    }

    /// Out-of-band backfill: every shed step's query executes once
    /// against the final engine state — through the physical layer
    /// only, no tenant cache touched and nothing billed, because the
    /// step never ran — so the digest covers ALL offered work. Step
    /// digests hash row *multisets* (see
    /// [`CachedResult::digest`](crate::CachedResult::digest)), which
    /// resharding preserves, so backfilling after any reshard yields
    /// the same digest the step would have produced live — and the
    /// digest becomes comparable across runs that shed differently
    /// (cache on vs. off). Then the fold, in (session, step) order.
    fn digest(&mut self, system: &Polystore) -> Result<u64> {
        for (session, step) in std::mem::take(&mut self.shed_steps) {
            let query = self.query_of(session, step);
            let memos = Some(&mut self.memos);
            let served = serve(system, None, memos, query)?;
            let slot = self.step_offset[session as usize] + step as usize;
            self.digests[slot] = Some(served.result.digest());
        }
        let mut digest = FNV_OFFSET;
        let mut slots = self.digests.iter();
        for (session, script) in self.scripts.iter().enumerate() {
            for (step, slot) in (0..script.steps.len()).zip(&mut slots) {
                let d = slot.ok_or_else(|| {
                    Error::Execution(format!(
                        "session core: step {step} of session {session} ended without a digest"
                    ))
                })?;
                digest = fnv1a(&d.to_le_bytes(), digest);
            }
        }
        Ok(digest)
    }
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

        // Every session's first wake, then the scripted mutations.
        let mut run = EventLoop::new(&self.system, &self.config, queries, scripts);
        for (i, reshard) in reshards.iter().enumerate() {
            if !reshard.at.is_finite() || reshard.at < 0.0 {
                return Err(Error::Config(format!(
                    "reshard time {} is not a finite non-negative second",
                    reshard.at
                )));
            }
            run.push(reshard.at, EventKind::Reshard { index: i as u32 });
        }

        let mut rebalances: Vec<RebalanceReport> = Vec::with_capacity(reshards.len());
        while let Some(Reverse(event)) = run.heap.pop() {
            run.clock = event.time;
            match event.kind {
                EventKind::Reshard { index } => {
                    let r = &reshards[index as usize];
                    rebalances.push(self.system.rebalance(&r.table, r.spec.clone())?);
                }
                EventKind::Wake { session, step } => run.admit(&self.system, session, step, 0)?,
                EventKind::Retry {
                    session,
                    step,
                    attempt,
                } => run.admit(&self.system, session, step, attempt)?,
                EventKind::Finish { worker } => run.finish(&self.system, worker)?,
            }
        }

        debug_assert!(
            run.states
                .iter()
                .zip(scripts)
                .all(|(s, sc)| *s == SessionState::Done || sc.steps.is_empty()),
            "event loop drained with undone sessions"
        );

        let digest = run.digest(&self.system)?;

        let metrics = self.system.metrics();
        metrics
            .gauge(
                "pspp_sessions_parked",
                "Peak simultaneously parked sessions in the session core.",
                &[],
            )
            .record_max(run.peak_parked as i64);
        metrics
            .gauge(
                "pspp_sessions_queue_peak",
                "Peak submission-queue length in the session core.",
                &[],
            )
            .record_max(run.peak_queue as i64);

        let mut report = SessionCoreReport {
            sessions: scripts.len(),
            workers: self.config.workers,
            offered: 0,
            completed: 0,
            shed: 0,
            retries: 0,
            makespan_seconds: run.clock,
            digest,
            peak_parked: run.peak_parked,
            peak_queue: run.peak_queue,
            real_executions: run.memos.real_executions,
            retry_after_seconds: run.retry_after_seconds(),
            latency: HistogramData::default(),
            plan_cache: CacheStats::default(),
            result_cache: ResultCacheStats::default(),
            tenants: Vec::with_capacity(run.tenants.len()),
            rebalances,
        };
        for t in run.tenants {
            report.latency.merge(&t.report.latency);
            report.plan_cache.absorb(&t.caches.plans.stats());
            if let Some(results) = &t.caches.results {
                report.result_cache.absorb(&results.stats());
            }
            report.offered += t.report.offered;
            report.completed += t.report.completed;
            report.shed += t.report.shed;
            report.retries += t.report.retries;
            report.tenants.push(t.report);
        }
        Ok(report)
    }
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

    fn small_system() -> Polystore {
        Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 400,
            vitals_per_patient: 4,
            seed: 7,
        }))
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
        assert!(SessionCore::new(small_system(), bad).is_err());
        let bad = SessionCoreConfig {
            queue_depth: 0,
            ..SessionCoreConfig::default()
        };
        assert!(SessionCore::new(small_system(), bad).is_err());

        let mut core = SessionCore::new(small_system(), SessionCoreConfig::default()).unwrap();
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

    /// The claim the one serving path exists for: a query sequence
    /// costs the same simulated seconds, and hits and misses the same
    /// caches, whichever tier serves it — a one-worker `QueryService`,
    /// or a one-worker, one-tenant session core behind its memos.
    /// `SessionCore`'s scripted API can neither clear a cache nor bump
    /// the epoch without moving rows, so its side is driven through
    /// the step its event loop prices every dispatch with.
    #[test]
    fn both_tiers_bill_the_same_sequence_alike() {
        use crate::{AdmissionConfig, QueryService, ServiceConfig};
        use std::sync::Arc;

        let queries = queries();
        let query = &queries[3];
        // Cold, repeat, repeat after the result cache is cleared, after
        // an epoch bump: (service seconds, plan hit, result hit) each.
        for cache in [false, true] {
            let system = Arc::new(small_system());
            let config = ServiceConfig {
                admission: AdmissionConfig {
                    workers: 1,
                    ..Default::default()
                },
                result_cache: Some(cache),
            };
            let service = QueryService::new(Arc::clone(&system), config).unwrap();
            let session = service.open_session();
            let mut through_service = Vec::new();
            for step in 0..4 {
                match step {
                    2 => service.clear_result_cache(),
                    3 => system.bump_epoch(),
                    _ => {}
                }
                let r = session.execute(query).unwrap();
                through_service.push((
                    r.service_seconds.to_bits(),
                    r.cache_hit,
                    r.result_cache_hit,
                ));
            }

            let system = small_system();
            let config = SessionCoreConfig {
                workers: 1,
                result_cache: cache,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            };
            let one_tenant = [SessionScript {
                tenant: 0,
                steps: Vec::new(),
            }];
            let mut run = EventLoop::new(&system, &config, &queries, &one_tenant);
            let mut through_core = Vec::new();
            for step in 0..4 {
                match (step, &run.tenants[0].caches.results) {
                    (2, Some(results)) => results.clear(),
                    (3, _) => system.bump_epoch(),
                    _ => {}
                }
                let s = run.measure(&system, 0, query).unwrap();
                through_core.push((s.service_seconds().to_bits(), s.plan_hit, s.result_hit));
            }

            assert_eq!(through_service, through_core, "result cache {cache}");
            let flags: Vec<(bool, bool)> = through_core.iter().map(|s| (s.1, s.2)).collect();
            let repeat = (true, cache);
            let expected = [(false, false), repeat, (true, false), (false, false)];
            assert_eq!(flags, expected, "result cache {cache}");
            // The memos under the core changed nothing in the bill, only
            // how often the data plane ran: once per epoch.
            assert_eq!(run.memos.real_executions, 2);
        }
    }

    #[test]
    fn digest_is_independent_of_worker_count() {
        let scripts = scripts(24, 2);
        let queries = queries();
        let mut narrow = SessionCore::new(
            small_system(),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 64,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let mut wide = SessionCore::new(
            small_system(),
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
        let mut off = SessionCore::new(small_system(), config.clone()).unwrap();
        // The cache is switched where the core is built.
        let mut on = SessionCore::new(
            small_system(),
            SessionCoreConfig {
                result_cache: true,
                ..config
            },
        )
        .unwrap();
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
            small_system(),
            SessionCoreConfig {
                workers: 1,
                queue_depth: 1,
                memoize_execution: true,
                ..SessionCoreConfig::default()
            },
        )
        .unwrap();
        let mut roomy = SessionCore::new(
            small_system(),
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
            small_system(),
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
            result_cache: true,
            memoize_execution: true,
            ..SessionCoreConfig::default()
        };
        let mut plain = SessionCore::new(small_system(), config.clone()).unwrap();
        let mut resharded = SessionCore::new(small_system(), config).unwrap();
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
        let mut bare = SessionCore::new(small_system(), config.clone()).unwrap();
        let mut patient = SessionCore::new(
            small_system(),
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
