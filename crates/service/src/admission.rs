//! Admission control: a bounded worker pool with a backpressure policy.
//!
//! Submissions enter a bounded FIFO queue drained by a fixed set of
//! worker threads. When the queue is full the configured
//! [`AdmissionPolicy`] decides between blocking the submitter
//! (backpressure) and rejecting the job (load shedding,
//! [`pspp_common::Error::Overloaded`]). This is the only place in the
//! workspace that creates long-lived threads; everything submitted
//! through it is a plain `FnOnce` closure, so the pool is reusable for
//! any service-side work.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use pspp_common::{Error, Result};
use pspp_telemetry::{Counter, Gauge, MetricsRegistry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What to do with a submission when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until queue space frees up.
    #[default]
    Block,
    /// Reject immediately with [`Error::Overloaded`].
    Reject,
}

/// Admission controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Worker threads executing admitted queries (>= 1).
    pub workers: usize,
    /// Jobs that may wait in the queue beyond the ones being executed.
    pub queue_depth: usize,
    /// Full-queue behavior.
    pub policy: AdmissionPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            workers: 4,
            queue_depth: 64,
            policy: AdmissionPolicy::Block,
        }
    }
}

/// Counters describing admission behavior since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs rejected by the `Reject` policy (or after shutdown).
    pub rejected: u64,
    /// Jobs that found the queue full and blocked for space.
    pub blocked: u64,
    /// Jobs handed to a worker.
    pub executed: u64,
    /// Largest queue length observed.
    pub peak_queue: usize,
    /// The back-off hint a rejected submission would receive right now
    /// (simulated microseconds): current queue length divided by the
    /// worker count, scaled by the recent mean job service time. `0`
    /// until the first completed job reports its service time.
    pub retry_after_micros: u64,
}

/// Registry mirrors of the admission counters, updated under the same
/// state lock as the plain fields so scrapes and [`AdmissionStats`]
/// never disagree.
#[derive(Clone)]
struct PoolMetrics {
    admitted: Counter,
    rejected: Counter,
    blocked: Counter,
    executed: Counter,
    peak_queue: Gauge,
}

impl PoolMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |outcome: &str| {
            registry.counter(
                "pspp_admission_jobs_total",
                "Admission-controller decisions by outcome.",
                &[("outcome", outcome)],
            )
        };
        PoolMetrics {
            admitted: counter("admitted"),
            rejected: counter("rejected"),
            blocked: counter("blocked"),
            executed: counter("executed"),
            peak_queue: registry.gauge(
                "pspp_admission_peak_queue",
                "Largest admission-queue length observed.",
                &[],
            ),
        }
    }
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
    admitted: u64,
    rejected: u64,
    blocked: u64,
    executed: u64,
    peak_queue: usize,
    retry: RetryAfter,
    metrics: Option<PoolMetrics>,
}

/// The one retry-after rule, for the worker pool and the session core
/// alike: an EWMA of reported service times in simulated microseconds
/// (`0` until the first report) and the back-off hint derived from it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RetryAfter {
    mean_service_micros: u64,
}

impl RetryAfter {
    /// Folds one completed job's service time into the EWMA
    /// (`new = (7 * old + sample) / 8`).
    pub(crate) fn record(&mut self, micros: u64) {
        self.mean_service_micros = if self.mean_service_micros == 0 {
            micros
        } else {
            (self.mean_service_micros.saturating_mul(7) + micros) / 8
        };
    }

    /// The deterministic back-off hint, in simulated microseconds, for
    /// a queue holding `queued` jobs: the time `workers` need to drain
    /// one slot, `ceil((queued + 1) / workers)` service rounds at the
    /// recent mean service time. `0` (no estimate) until a service time
    /// is known.
    pub(crate) fn hint(&self, queued: usize, workers: usize) -> u64 {
        let rounds = (queued as u64 + 1).div_ceil(workers.max(1) as u64);
        self.mean_service_micros.saturating_mul(rounds)
    }
}

struct Shared {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_depth: usize,
    workers: usize,
    policy: AdmissionPolicy,
}

impl Shared {
    fn guard(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cloneable submission endpoint for a [`WorkerPool`].
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolHandle").finish_non_exhaustive()
    }
}

impl PoolHandle {
    /// Submits a job under the pool's admission policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] when the queue is full under
    /// [`AdmissionPolicy::Reject`], or when the pool has shut down.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<()> {
        let mut state = self.shared.guard();
        let mut counted_blocked = false;
        loop {
            if state.shutdown {
                state.rejected += 1;
                if let Some(m) = &state.metrics {
                    m.rejected.inc();
                }
                return Err(Error::overloaded("worker pool is shut down", 0));
            }
            if state.queue.len() < self.shared.queue_depth {
                state.queue.push_back(Box::new(job));
                state.peak_queue = state.peak_queue.max(state.queue.len());
                state.admitted += 1;
                if let Some(m) = &state.metrics {
                    m.admitted.inc();
                    m.peak_queue.record_max(state.peak_queue as i64);
                }
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            match self.shared.policy {
                AdmissionPolicy::Reject => {
                    state.rejected += 1;
                    if let Some(m) = &state.metrics {
                        m.rejected.inc();
                    }
                    return Err(Error::overloaded(
                        format!("admission queue full ({} waiting)", self.shared.queue_depth),
                        state
                            .retry
                            .hint(self.shared.queue_depth, self.shared.workers),
                    ));
                }
                AdmissionPolicy::Block => {
                    // Count the job once, not once per condvar wakeup.
                    if !counted_blocked {
                        state.blocked += 1;
                        if let Some(m) = &state.metrics {
                            m.blocked.inc();
                        }
                        counted_blocked = true;
                    }
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Reports one completed job's service time (simulated
    /// microseconds); the pool folds it into the EWMA behind the
    /// retry-after hint.
    pub fn record_service_micros(&self, micros: u64) {
        self.shared.guard().retry.record(micros);
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> AdmissionStats {
        let state = self.shared.guard();
        AdmissionStats {
            admitted: state.admitted,
            rejected: state.rejected,
            blocked: state.blocked,
            executed: state.executed,
            peak_queue: state.peak_queue,
            retry_after_micros: state.retry.hint(state.queue.len(), self.shared.workers),
        }
    }
}

/// A fixed-size worker pool over a bounded job queue.
///
/// Dropping the pool closes the queue to new submissions, then joins
/// the workers — which first drain every already-admitted job, so no
/// admitted ticket is left unfilled. Drop therefore blocks until the
/// backlog completes.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.shared.queue_depth)
            .field("policy", &self.shared.policy)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for zero workers or queue depth.
    pub fn new(config: AdmissionConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(Error::Config("worker pool needs >= 1 worker".into()));
        }
        if config.queue_depth == 0 {
            return Err(Error::Config("admission queue depth must be >= 1".into()));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_depth: config.queue_depth,
            workers: config.workers,
            policy: config.policy,
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("pspp-service-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Shut down and join the workers spawned so far —
                    // they must not park on not_empty forever.
                    shared.guard().shutdown = true;
                    shared.not_empty.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(Error::Config(format!("spawning worker {i}: {e}")));
                }
            }
        }
        Ok(WorkerPool { shared, workers })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Mirrors the admission counters into `registry` (series
    /// `pspp_admission_*`). Only decisions made after this call are
    /// counted there.
    pub fn set_metrics(&self, registry: &MetricsRegistry) {
        self.shared.guard().metrics = Some(PoolMetrics::new(registry));
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.guard().shutdown = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.guard();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.executed += 1;
                    if let Some(m) = &state.metrics {
                        m.executed.inc();
                    }
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.not_full.notify_one();
        job();
    }
}

/// A one-shot completion slot for a submitted job: the worker fills it,
/// the submitter waits on it.
#[derive(Debug)]
pub struct Ticket<T> {
    slot: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        Ticket {
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<T> Default for Ticket<T> {
    fn default() -> Self {
        Ticket::new()
    }
}

impl<T> Ticket<T> {
    /// An unfilled ticket.
    pub fn new() -> Self {
        Ticket {
            slot: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    /// Fills the ticket and wakes the waiters.
    pub fn fill(&self, value: T) {
        let (lock, cvar) = &*self.slot;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        cvar.notify_all();
    }

    /// Blocks until the ticket is filled. The value stays in the slot
    /// (waiters receive clones), so every clone of the ticket can wait
    /// — a second waiter must not hang.
    pub fn wait(&self) -> T
    where
        T: Clone,
    {
        let (lock, cvar) = &*self.slot;
        let mut guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = guard.as_ref() {
                return value.clone();
            }
            guard = cvar.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(AdmissionConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<Ticket<usize>> = (0..16)
            .map(|i| {
                let ticket = Ticket::new();
                let t = ticket.clone();
                let c = Arc::clone(&counter);
                pool.handle()
                    .submit(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                        t.fill(i);
                    })
                    .unwrap();
                ticket
            })
            .collect();
        let sum: usize = tickets.iter().map(Ticket::wait).sum();
        assert_eq!(sum, (0..16).sum());
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        let stats = pool.handle().stats();
        assert_eq!(stats.admitted, 16);
        assert_eq!(stats.executed, 16);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn reject_policy_sheds_load() {
        // One worker wedged on a slow job, queue depth 1: the third
        // submission must be rejected.
        let pool = WorkerPool::new(AdmissionConfig {
            workers: 1,
            queue_depth: 1,
            policy: AdmissionPolicy::Reject,
        })
        .unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let started = Ticket::new();
        let s = started.clone();
        pool.handle()
            .submit(move || {
                s.fill(());
                let (lock, cvar) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
            })
            .unwrap();
        started.wait(); // worker is now busy; the queue is empty
        pool.handle().submit(|| {}).unwrap(); // fills the queue
        let err = pool.handle().submit(|| {}).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }), "got {err:?}");
        assert_eq!(pool.handle().stats().rejected, 1);
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    #[test]
    fn reject_carries_retry_after_hint() {
        let pool = WorkerPool::new(AdmissionConfig {
            workers: 2,
            queue_depth: 4,
            policy: AdmissionPolicy::Reject,
        })
        .unwrap();
        let handle = pool.handle();
        // No service time observed yet: no estimate.
        assert_eq!(handle.stats().retry_after_micros, 0);
        handle.record_service_micros(1_000);
        // Empty queue: one service round at the mean.
        assert_eq!(handle.stats().retry_after_micros, 1_000);
        // A full queue of 4 plus the reject itself is 5 jobs over 2
        // workers = 3 rounds; the rejection error carries the hint.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut started = Vec::new();
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            let s = Ticket::new();
            let t = s.clone();
            handle
                .submit(move || {
                    t.fill(());
                    let (lock, cvar) = &*g;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cvar.wait(open).unwrap();
                    }
                })
                .unwrap();
            started.push(s);
        }
        for s in &started {
            s.wait(); // both workers busy; queue empty
        }
        for _ in 0..4 {
            handle.submit(|| {}).unwrap(); // fill the queue
        }
        let err = handle.submit(|| {}).unwrap_err();
        assert_eq!(
            err,
            Error::overloaded("admission queue full (4 waiting)", 3_000),
            "got {err:?}"
        );
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    #[test]
    fn block_policy_applies_backpressure() {
        let pool = WorkerPool::new(AdmissionConfig {
            workers: 1,
            queue_depth: 1,
            policy: AdmissionPolicy::Block,
        })
        .unwrap();
        let tickets: Vec<Ticket<()>> = (0..8)
            .map(|_| {
                let ticket = Ticket::new();
                let t = ticket.clone();
                pool.handle()
                    .submit(move || {
                        std::thread::sleep(Duration::from_millis(1));
                        t.fill(());
                    })
                    .unwrap();
                ticket
            })
            .collect();
        for t in &tickets {
            t.wait();
        }
        let stats = pool.handle().stats();
        assert_eq!(stats.admitted, 8);
        assert!(stats.blocked > 0, "queue never filled: {stats:?}");
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let pool = WorkerPool::new(AdmissionConfig::default()).unwrap();
        let handle = pool.handle();
        drop(pool);
        assert!(matches!(
            handle.submit(|| {}),
            Err(Error::Overloaded { .. })
        ));
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let err = WorkerPool::new(AdmissionConfig {
            workers: 0,
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
