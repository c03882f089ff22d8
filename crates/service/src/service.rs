//! [`QueryService`] and [`Session`]: admission-controlled concurrent
//! query execution over one shared [`Polystore`].
//!
//! Every query runs against a private per-run cost ledger
//! ([`Polystore::run_optimized`]), so simultaneous queries never
//! interleave their simulated accounting — per-query results and cost
//! totals are bit-identical at any worker count. Planning cost is
//! charged in simulated time on cache misses only, which is what makes
//! the plan cache visible in the latency numbers while keeping the
//! execution ledger deterministic even when concurrent sessions race
//! to plan the same query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pspp_accel::{CostSummary, SimDuration};
use pspp_common::{Error, Result};
use pspp_core::{Polystore, RunReport};
use pspp_frontend::HeterogeneousProgram;
use pspp_telemetry::MetricsRegistry;

use crate::admission::{AdmissionConfig, PoolHandle, Ticket, WorkerPool};
use crate::cache::{CacheStats, Caches, Dialect, ResultCache, ResultCacheStats};
use crate::lock;
use crate::serve::{self, RESULT_HIT_SECONDS};
use crate::stats::{ServiceReport, SessionReport};

/// A query a session can submit.
#[derive(Debug, Clone)]
pub enum Query {
    /// Mini-SQL text.
    Sql(String),
    /// Natural-language question.
    Nlq(String),
    /// Heterogeneous multi-language program.
    Hetero(HeterogeneousProgram),
}

impl Query {
    /// A SQL query.
    pub fn sql(text: impl Into<String>) -> Self {
        Query::Sql(text.into())
    }

    /// A natural-language question.
    pub fn nlq(text: impl Into<String>) -> Self {
        Query::Nlq(text.into())
    }

    /// The frontend dialect, for cache keying.
    pub fn dialect(&self) -> Dialect {
        match self {
            Query::Sql(_) => Dialect::Sql,
            Query::Nlq(_) => Dialect::Nlq,
            Query::Hetero(_) => Dialect::Hetero,
        }
    }

    /// Canonical cache-key text. Heterogeneous programs key on their
    /// full spec (names, languages, code, wiring), so two structurally
    /// identical programs share a plan.
    pub fn key_text(&self) -> String {
        match self {
            Query::Sql(text) | Query::Nlq(text) => text.clone(),
            Query::Hetero(program) => format!("{:?}", program.specs()),
        }
    }

    /// Whether this query is write/DDL-shaped: its leading keyword
    /// mutates engine state. The service bumps the engine-state epoch
    /// *before* planning such a query, so every plan and result cached
    /// under the pre-write state stops matching — a stale read is
    /// structurally impossible, not merely unlikely.
    pub fn mutates_state(&self) -> bool {
        match self {
            Query::Sql(text) => {
                let first = text.split_whitespace().next().unwrap_or("");
                ["INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER"]
                    .iter()
                    .any(|kw| first.eq_ignore_ascii_case(kw))
            }
            Query::Nlq(_) | Query::Hetero(_) => false,
        }
    }
}

/// Everything the service returns for one query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The underlying run report (outputs, rewrites, placement, costs).
    pub report: RunReport,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the whole result came from the result cache (the
    /// executor was bypassed and the run was billed at lookup cost).
    pub result_cache_hit: bool,
    /// Simulated seconds spent planning (cache-hit lookups are ~free).
    pub plan_seconds: f64,
    /// Simulated end-to-end service latency: planning + execution
    /// makespan. Deterministic at any concurrency level.
    pub service_seconds: f64,
    /// Wall-clock microseconds from admission to completion
    /// (informational; varies with machine load).
    pub wall_micros: u64,
}

/// Query-service configuration. Cache capacities are not here: both
/// caches hold a fixed 256 entries (see [`crate::cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker pool + queueing policy.
    pub admission: AdmissionConfig,
    /// Result-cache switch: `Some(true)` turns this service's result
    /// cache on; `None` (the default) and `Some(false)` leave it off.
    /// The result cache is a service setting — the system underneath
    /// does not know it exists.
    pub result_cache: Option<bool>,
}

#[derive(Debug)]
struct SessionShared {
    id: u64,
    /// This session's row, as [`Session::stats`] returns it.
    report: Mutex<SessionReport>,
}

impl SessionShared {
    fn guard(&self) -> MutexGuard<'_, SessionReport> {
        lock(&self.report)
    }
}

#[derive(Debug)]
struct ServiceInner {
    system: Arc<Polystore>,
    /// The system's registry (shared storage): service-side series
    /// land next to the executor/placer/kernel-charge ones.
    metrics: MetricsRegistry,
    /// The plan cache and — when it is on for this service — the
    /// epoch-keyed result cache.
    caches: Caches,
    sessions: Mutex<Vec<Arc<SessionShared>>>,
    /// Folded statistics of closed sessions, so the session list does
    /// not grow forever on a long-lived service and closed sessions
    /// still count in the merged report.
    closed: Mutex<SessionReport>,
    next_session: AtomicU64,
}

impl ServiceInner {
    /// Serves one query down [`serve::serve`] — plan through the
    /// cache, execute on a private per-run ledger. With the result
    /// cache on, a `(plan digest, epoch)` hit bypasses the executor
    /// entirely: the memoized report is returned with its cost summary
    /// replaced by one lookup's (a single event of `RESULT_HIT_SECONDS`
    /// busy time), so the summary reflects what actually ran.
    fn run_query(&self, query: &Query) -> Result<QueryResponse> {
        // Write/DDL-shaped queries advance the engine-state epoch
        // before planning: the epoch is part of every plan- and
        // result-cache key, so nothing recorded under the pre-write
        // state can ever be served again. The bump lands even when the
        // mutation itself later fails — invalidating too eagerly is
        // merely a cold cache; invalidating too late is a stale read.
        if query.mutates_state() {
            self.system.bump_epoch();
        }
        let served = serve::serve(&self.system, Some(&self.caches), None, query)?;
        let service_seconds = served.service_seconds();
        // The Arc is the cache's too when one holds it (a clone, as a
        // hit always was), and this query's alone otherwise (a move).
        let mut report = Arc::unwrap_or_clone(served.result).report;
        if served.result_hit {
            report.costs = CostSummary {
                events: 1,
                bytes: 0,
                busy: SimDuration::from_secs(RESULT_HIT_SECONDS),
                energy_j: 0.0,
            };
        }
        self.count_query(query, served.plan_hit, service_seconds);
        Ok(QueryResponse {
            report,
            cache_hit: served.plan_hit,
            result_cache_hit: served.result_hit,
            plan_seconds: served.plan_seconds,
            service_seconds,
            wall_micros: 0, // stamped by the session wrapper
        })
    }

    fn count_query(&self, query: &Query, cache_hit: bool, service_seconds: f64) {
        self.metrics
            .counter(
                "pspp_service_queries_total",
                "Queries served, by dialect and plan-cache outcome.",
                &[
                    ("dialect", &query.dialect().to_string()),
                    ("cache", if cache_hit { "hit" } else { "miss" }),
                ],
            )
            .inc();
        self.metrics
            .histogram(
                "pspp_service_sim_seconds",
                "Simulated end-to-end service latency (plan + makespan).",
                &[],
            )
            .observe_seconds(service_seconds);
    }
}

/// The concurrent query service (see the crate docs).
#[derive(Debug)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
    pool: WorkerPool,
}

impl QueryService {
    /// Builds a service over a shared system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an invalid admission config.
    pub fn new(system: Arc<Polystore>, config: ServiceConfig) -> Result<Self> {
        let metrics = system.metrics().clone();
        let pool = WorkerPool::new(config.admission)?;
        pool.set_metrics(&metrics);
        Ok(QueryService {
            inner: Arc::new(ServiceInner {
                system,
                caches: Caches::new(&metrics, true, config.result_cache.unwrap_or(false)),
                metrics,
                sessions: Mutex::new(Vec::new()),
                closed: Mutex::new(SessionReport {
                    session: u64::MAX,
                    ..Default::default()
                }),
                next_session: AtomicU64::new(0),
            }),
            pool,
        })
    }

    /// Opens a new client session.
    pub fn open_session(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(SessionShared {
            id,
            report: Mutex::new(SessionReport {
                session: id,
                ..Default::default()
            }),
        });
        lock(&self.inner.sessions).push(Arc::clone(&shared));
        Session {
            close: Arc::new(SessionCloseGuard {
                shared,
                service: Arc::clone(&self.inner),
            }),
            pool: self.pool.handle(),
        }
    }

    /// The shared underlying system.
    pub fn system(&self) -> &Arc<Polystore> {
        &self.inner.system
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.caches.plans.stats()
    }

    /// Result-cache counters (all zero when the result cache is off).
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        let results = self.inner.caches.results.as_ref();
        results.map(ResultCache::stats).unwrap_or_default()
    }

    /// Drops every cached plan.
    pub fn clear_plan_cache(&self) {
        self.inner.caches.plans.clear();
    }

    /// Drops every memoized result (a no-op with the result cache
    /// off). Epoch bumps make this unnecessary for correctness; it
    /// exists for memory pressure and benchmarking cold starts.
    pub fn clear_result_cache(&self) {
        if let Some(results) = &self.inner.caches.results {
            results.clear();
        }
    }

    /// Plans a query into the cache without executing it (cache
    /// warming). Returns `true` when the query was newly planned.
    ///
    /// # Errors
    ///
    /// Propagates compile and optimize errors.
    pub fn warm(&self, query: &Query) -> Result<bool> {
        let inner = &self.inner;
        let planned = serve::plan(&inner.system, Some(&inner.caches), None, query)?;
        Ok(!planned.hit)
    }

    /// Number of worker threads executing queries.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The merged service-wide report. `sessions` lists the rows of
    /// currently open sessions; `merged` additionally folds in every
    /// session closed since startup.
    pub fn report(&self) -> ServiceReport {
        // Hold the sessions lock while reading the closed aggregate
        // (the same sessions → closed order SessionCloseGuard uses), so
        // a session closing mid-report cannot appear in both.
        let live = lock(&self.inner.sessions);
        let mut sessions: Vec<SessionReport> = live.iter().map(|s| s.guard().clone()).collect();
        let mut merged = lock(&self.inner.closed).clone();
        drop(live);
        sessions.sort_by_key(|s| s.session);
        for s in &sessions {
            merged.absorb(s);
        }
        let admission = self.pool.handle().stats();
        ServiceReport {
            sessions,
            merged,
            cache: self.cache_stats(),
            results: self.result_cache_stats(),
            retry_after_seconds: admission.retry_after_micros as f64 * 1e-6,
            admission,
            metrics: self.inner.metrics.snapshot(),
        }
    }

    /// The shared metrics registry (system + service series). Snapshot
    /// or scrape it directly, or take the copy embedded in
    /// [`QueryService::report`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }
}

/// Retires a session when its last [`Session`] clone drops: the row
/// leaves the live list and its counters fold into the service's
/// closed-session aggregate, so a long-lived service does not
/// accumulate dead session state. Queries still in flight via
/// [`Session::submit`] when the last clone drops may record their
/// completion after the fold and thus miss the report.
#[derive(Debug)]
struct SessionCloseGuard {
    shared: Arc<SessionShared>,
    service: Arc<ServiceInner>,
}

impl Drop for SessionCloseGuard {
    fn drop(&mut self) {
        let report = self.shared.guard().clone();
        // Hold the sessions lock across the fold (sessions → closed,
        // mirroring report()), so the row atomically moves from the
        // live list to the closed aggregate — a concurrent report()
        // sees it in exactly one of the two.
        let mut sessions = lock(&self.service.sessions);
        sessions.retain(|s| s.id != self.shared.id);
        lock(&self.service.closed).absorb(&report);
        drop(sessions);
    }
}

/// One client's handle onto the service. Cheap to clone; sessions can
/// be driven from any thread. The session closes (retiring its stats
/// row into the service's closed aggregate) when the last clone drops.
#[derive(Debug, Clone)]
pub struct Session {
    /// Owns the session state and the service handle; dropping the
    /// last clone runs the close guard.
    close: Arc<SessionCloseGuard>,
    pool: PoolHandle,
}

impl Session {
    fn shared(&self) -> &Arc<SessionShared> {
        &self.close.shared
    }

    /// This session's id.
    pub fn id(&self) -> u64 {
        self.shared().id
    }

    /// Submits a query through admission control without waiting:
    /// returns a ticket the caller later blocks on. Statistics are
    /// recorded when the worker completes the query.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] when admission sheds the query.
    pub fn submit(&self, query: &Query) -> Result<Ticket<Result<QueryResponse>>> {
        self.shared().guard().issued += 1;
        let ticket: Ticket<Result<QueryResponse>> = Ticket::new();
        let t = ticket.clone();
        let service = Arc::clone(&self.close.service);
        let session = Arc::clone(self.shared());
        let query = query.clone();
        let admitted_at = Instant::now();
        let pool = self.pool.clone();
        let submitted = self.pool.submit(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| service.run_query(&query)))
                .unwrap_or_else(|_| Err(Error::Execution("query worker panicked".into())));
            let wall_micros = u64::try_from(admitted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut counters = session.guard();
            match &outcome {
                Ok(resp) => {
                    counters.completed += 1;
                    if resp.cache_hit {
                        counters.cache_hits += 1;
                    } else {
                        counters.cache_misses += 1;
                    }
                    if resp.result_cache_hit {
                        counters.result_hits += 1;
                    }
                    counters.sim_seconds += resp.service_seconds;
                    counters.latency.observe_seconds(resp.service_seconds);
                    // Feed the retry-after EWMA: simulated service
                    // time is the deterministic drain-rate estimate.
                    pool.record_service_micros((resp.service_seconds * 1e6) as u64);
                }
                Err(_) => counters.failed += 1,
            }
            counters.wall_micros += wall_micros;
            drop(counters);
            t.fill(outcome.map(|mut resp| {
                resp.wall_micros = wall_micros;
                resp
            }));
        });
        match submitted {
            Ok(()) => Ok(ticket),
            Err(err) => {
                self.shared().guard().rejected += 1;
                Err(err)
            }
        }
    }

    /// Submits a query and blocks for its response.
    ///
    /// # Errors
    ///
    /// Propagates admission rejection and compile/optimize/execute
    /// errors.
    pub fn execute(&self, query: &Query) -> Result<QueryResponse> {
        self.submit(query)?.wait()
    }

    /// This session's statistics snapshot.
    pub fn stats(&self) -> SessionReport {
        self.shared().guard().clone()
    }
}
