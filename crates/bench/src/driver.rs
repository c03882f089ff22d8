//! Workload drivers for the query service: closed-loop (E16) and
//! open-loop (arrival-rate, `repro --open-loop`).
//!
//! The closed-loop driver replays a deterministic mixed
//! SQL/NLQ/heterogeneous workload through
//! [`pspp_service::QueryService`] at a given worker count. Per
//! the repo-wide methodology (real data plane, simulated clock), every
//! query really executes — on the service's worker threads, against
//! the shared engines — and the *reported* throughput and latency come
//! from a deterministic closed-loop queueing simulation over the
//! recorded per-query simulated service times. That keeps the numbers
//! bit-reproducible on any machine and at any worker count, while the
//! digest column proves the results themselves are byte-identical
//! across concurrency levels.
//!
//! The open-loop driver ([`run_open_loop`]) models an arrival *rate*
//! instead of a fixed client population: queries arrive every
//! `1 / arrival_qps` simulated seconds whether or not earlier ones
//! finished, so overload does not self-throttle. It really exercises
//! the [`AdmissionPolicy::Reject`] path (a burst submission phase
//! counts genuine `Error::Overloaded` rejections) and *reports* a
//! deterministic shed rate from an arrival-time replay against the
//! recorded simulated service times with a bounded queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pspp_common::{Error, Result, SplitMix64};
use pspp_core::prelude::*;
use pspp_frontend::Language;
use pspp_service::{AdmissionConfig, AdmissionPolicy, Query, QueryService, ServiceConfig};

/// Queries in one closed-loop batch; the admission queue holds them all.
const DRIVER_QUERIES: usize = 64;

/// The closed-loop workload's mix seed.
const DRIVER_SEED: u64 = 2019;

/// What one driver run produced.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Plan-cache hit rate over the timed batch.
    pub cache_hit_rate: f64,
    /// Simulated batch makespan under the closed-loop schedule.
    pub sim_makespan_seconds: f64,
    /// Queries per simulated second.
    pub throughput_qps: f64,
    /// Exact p50 of per-query simulated service time.
    pub p50_seconds: f64,
    /// Exact p99 of per-query simulated service time.
    pub p99_seconds: f64,
    /// Mean simulated seconds a query waited for a free worker.
    pub mean_queue_seconds: f64,
    /// Every query's output digest, folded in batch order — identical
    /// across runs and concurrency levels.
    pub digest: u64,
    /// Ledger events summed over per-query private ledgers, in batch
    /// order.
    pub cost_events: usize,
    /// Ledger busy seconds summed in batch order (bit-identical across
    /// concurrency levels).
    pub cost_busy_seconds: f64,
}

pub(crate) use pspp_common::partition::FNV_OFFSET;

/// Chains one query's output digest onto the digests before it: a
/// batch's digest is order-sensitive across queries, each query's a
/// row multiset.
pub(crate) fn fold_digest(batch: u64, query: u64) -> u64 {
    pspp_common::partition::fnv1a(&query.to_le_bytes(), batch)
}

/// The deterministic mixed workload: repeated SQL templates (so the
/// plan cache has something to hit), one NLQ ML pipeline, and one
/// heterogeneous SQL→MLP program, shuffled by `seed`.
pub fn mixed_workload(n: usize, seed: u64) -> Vec<Query> {
    let sql_templates = [
        "SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10",
        "SELECT pid, age FROM admissions WHERE age >= 40 ORDER BY date",
        "SELECT count(*) AS n FROM admissions",
        "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
         WHERE age >= 80",
        "SELECT pid, los FROM admissions WHERE los >= 5.0 ORDER BY los DESC LIMIT 20",
        "SELECT pid FROM admissions WHERE age >= 30 AND age < 50",
    ];
    let hetero = HeterogeneousProgram::builder()
        .subprogram(
            "base",
            Language::Sql,
            "SELECT pid, los, long_stay FROM admissions",
            &[],
        )
        .subprogram(
            "model",
            Language::MlDsl,
            "TRAIN MLP HIDDEN 8 EPOCHS 2 BATCH 32 LR 0.3 LABEL long_stay",
            &["base"],
        );
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            // Weight plain SQL heavily; ML pipelines are the heavy tail.
            match rng.next_i64(0, 16) {
                14 => Query::nlq("Will patients have a long stay at the hospital?"),
                15 => Query::Hetero(hetero.clone()),
                k => Query::sql(sql_templates[(k as usize) % sql_templates.len()]),
            }
        })
        .collect()
}

/// Deterministic closed-loop schedule: `clients` issue the batch in
/// order against `workers` servers, each client re-issuing as soon as
/// its previous query completes. Returns (makespan, mean queue wait).
fn closed_loop_schedule(service_seconds: &[f64], clients: usize, workers: usize) -> (f64, f64) {
    let mut client_ready = vec![0.0f64; clients.max(1)];
    let mut worker_free = vec![0.0f64; workers.max(1)];
    let mut makespan = 0.0f64;
    let mut total_wait = 0.0f64;
    for &service in service_seconds {
        // Lowest-id tie-breaks keep the schedule deterministic.
        let c = min_index(&client_ready);
        let w = min_index(&worker_free);
        let start = client_ready[c].max(worker_free[w]);
        total_wait += start - client_ready[c];
        let finish = start + service;
        client_ready[c] = finish;
        worker_free[w] = finish;
        makespan = makespan.max(finish);
    }
    let n = service_seconds.len().max(1) as f64;
    (makespan, total_wait / n)
}

fn min_index(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

/// Exact empirical quantile (sorted-copy nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Runs the mixed workload against a service over `system` with
/// `workers` worker threads, one closed-loop client per worker, every
/// plan warmed before the batch.
///
/// # Errors
///
/// Propagates the first query failure, in batch order.
pub fn run_driver(system: &Arc<Polystore>, workers: usize) -> Result<DriverReport> {
    let service = QueryService::new(
        Arc::clone(system),
        ServiceConfig {
            admission: AdmissionConfig {
                workers,
                queue_depth: DRIVER_QUERIES,
                policy: AdmissionPolicy::Block,
            },
            ..Default::default()
        },
    )?;
    let queries = mixed_workload(DRIVER_QUERIES, DRIVER_SEED);
    for q in &queries {
        service.warm(q)?;
    }

    struct PerQuery {
        service_seconds: f64,
        digest: u64,
        cost_events: usize,
        cost_busy_seconds: f64,
    }
    let next = AtomicUsize::new(0);
    let (queries, next) = (&queries, &next);

    // Each client returns what it ran, by batch index.
    let clients = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let session = service.open_session();
                scope.spawn(move || {
                    let mut ran = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = queries.get(i) else {
                            return ran;
                        };
                        let run = session.execute(query).map(|resp| PerQuery {
                            service_seconds: resp.service_seconds,
                            digest: output_digest(&resp.report.execution.outputs),
                            cost_events: resp.report.costs.events,
                            cost_busy_seconds: resp.report.costs.busy.as_secs(),
                        });
                        ran.push((i, run));
                    }
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join()).collect::<Vec<_>>()
    });

    let mut ran = Vec::with_capacity(queries.len());
    for client in clients {
        ran.extend(client.map_err(|_| Error::Execution("a driver client panicked".into()))?);
    }
    // Every index was handed out once; the first failure in batch
    // order is the one reported.
    ran.sort_by_key(|(i, _)| *i);
    let per_query = ran
        .into_iter()
        .map(|(i, run)| run.map_err(|e| Error::Execution(format!("driver query {i} failed: {e}"))))
        .collect::<Result<Vec<PerQuery>>>()?;

    // Fold per-query numbers in batch order: the digest and cost sums
    // must not depend on completion order.
    let mut digest = FNV_OFFSET;
    let mut cost_events = 0usize;
    let mut cost_busy_seconds = 0.0f64;
    let mut service_seconds = Vec::with_capacity(per_query.len());
    for pq in &per_query {
        digest = fold_digest(digest, pq.digest);
        cost_events += pq.cost_events;
        cost_busy_seconds += pq.cost_busy_seconds;
        service_seconds.push(pq.service_seconds);
    }

    let (sim_makespan_seconds, mean_queue_seconds) =
        closed_loop_schedule(&service_seconds, workers, workers);
    let mut sorted = service_seconds.clone();
    sorted.sort_by(f64::total_cmp);
    let report = service.report();
    Ok(DriverReport {
        cache_hit_rate: report.merged.cache_hit_rate(),
        sim_makespan_seconds,
        throughput_qps: per_query.len() as f64 / sim_makespan_seconds.max(f64::MIN_POSITIVE),
        p50_seconds: quantile(&sorted, 0.50),
        p99_seconds: quantile(&sorted, 0.99),
        mean_queue_seconds,
        digest,
        cost_events,
        cost_busy_seconds,
    })
}

/// Open-loop (arrival-rate) driver configuration.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total queries offered.
    pub queries: usize,
    /// Arrival rate in queries per simulated second.
    pub arrival_qps: f64,
    /// Service worker threads.
    pub workers: usize,
    /// Admission queue depth (jobs waiting beyond the ones executing).
    pub queue_depth: usize,
    /// Workload-mix seed.
    pub seed: u64,
}

/// What one open-loop run produced.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Queries offered at the arrival rate.
    pub offered: usize,
    /// Queries admitted by the deterministic open-loop replay.
    pub admitted: usize,
    /// Queries shed by the replay's bounded queue (`Reject` policy).
    pub shed: usize,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Simulated completion time of the last admitted query.
    pub sim_makespan_seconds: f64,
    /// Mean simulated seconds an admitted query waited for a worker.
    pub mean_wait_seconds: f64,
    /// Admitted queries per simulated second.
    pub goodput_qps: f64,
    /// `Error::Overloaded` rejections observed while really bursting
    /// the batch through a `Reject`-policy service (informational —
    /// depends on machine speed, unlike the replay's shed count).
    pub real_rejections: usize,
    /// Every offered query's output digest, folded in arrival order
    /// (every offered query executes exactly once for the digest,
    /// whether or not the replay sheds it).
    pub digest: u64,
    /// Recorded per-offered-query simulated service seconds, in
    /// arrival order — the input for further [`replay_arrivals`] runs
    /// (E21's retry storm).
    pub service_seconds: Vec<f64>,
}

/// Runs the mixed workload open-loop against a `Reject`-policy service
/// built over `system`. See the module docs for the two-phase design:
/// a real burst phase exercises admission shedding, then every query
/// (including really-shed ones) executes once to record deterministic
/// service times and the output digest, and the reported shed rate
/// comes from the arrival-time replay.
///
/// # Errors
///
/// Propagates the first non-`Overloaded` query failure, in batch order.
pub fn run_open_loop(system: &Arc<Polystore>, cfg: &OpenLoopConfig) -> Result<OpenLoopReport> {
    let service = QueryService::new(
        Arc::clone(system),
        ServiceConfig {
            admission: AdmissionConfig {
                workers: cfg.workers,
                queue_depth: cfg.queue_depth,
                policy: AdmissionPolicy::Reject,
            },
            ..Default::default()
        },
    )?;
    let queries = mixed_workload(cfg.queries, cfg.seed);
    // Warm every plan so service times never depend on which query
    // races to plan first.
    for q in &queries {
        service.warm(q)?;
    }

    let session = service.open_session();
    let mut slots: Vec<Option<(f64, u64)>> = vec![None; queries.len()];
    let mut real_rejections = 0usize;
    let mut shed_indexes = Vec::new();
    // Burst phase: submit the whole batch without pacing. The bounded
    // Reject queue genuinely sheds most of it on any real machine.
    let mut tickets = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        match session.submit(q) {
            Ok(ticket) => tickets.push((i, ticket)),
            Err(Error::Overloaded { .. }) => {
                real_rejections += 1;
                shed_indexes.push(i);
            }
            Err(e) => return Err(e),
        }
    }
    for (i, ticket) in tickets {
        let resp = ticket
            .wait()
            .map_err(|e| Error::Execution(format!("open-loop query {i} failed: {e}")))?;
        slots[i] = Some(per_query_record(&resp));
    }
    // Backfill phase: execute the really-shed queries one at a time
    // (the queue is idle now), so every offered query has a
    // deterministic service time and contributes to the digest.
    for i in shed_indexes {
        let resp = session
            .execute(&queries[i])
            .map_err(|e| Error::Execution(format!("open-loop backfill {i} failed: {e}")))?;
        slots[i] = Some(per_query_record(&resp));
    }

    let mut digest = FNV_OFFSET;
    let mut service_seconds = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let (seconds, d) =
            slot.ok_or_else(|| Error::Execution(format!("open-loop query {i} never ran")))?;
        digest = fold_digest(digest, d);
        service_seconds.push(seconds);
    }

    // No retries: a rejected arrival is shed, `Reject` semantics.
    let replay = replay_arrivals(
        &service_seconds,
        cfg.arrival_qps,
        cfg.workers,
        cfg.queue_depth,
        0,
        0.0,
    );
    Ok(OpenLoopReport {
        offered: replay.offered,
        admitted: replay.completed,
        shed: replay.lost,
        shed_rate: replay.lost as f64 / replay.offered.max(1) as f64,
        sim_makespan_seconds: replay.sim_makespan_seconds,
        mean_wait_seconds: replay.mean_wait_seconds,
        goodput_qps: replay.goodput_qps,
        real_rejections,
        digest,
        service_seconds,
    })
}

/// What one arrival replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalReplay {
    /// Retry budget per query (0 = shed permanently on first reject).
    pub retry_max: usize,
    /// Primary arrivals offered.
    pub offered: usize,
    /// Queries that eventually completed (first admission counts).
    pub completed: usize,
    /// Queries lost after exhausting their retry budget.
    pub lost: usize,
    /// Total admission attempts, primaries plus retries — the storm's
    /// amplification of offered load.
    pub attempts: usize,
    /// Simulated completion time of the last admitted query.
    pub sim_makespan_seconds: f64,
    /// Mean simulated seconds a completed query waited for a worker,
    /// counted from the arrival that was admitted.
    pub mean_wait_seconds: f64,
    /// Completed queries per simulated second.
    pub goodput_qps: f64,
}

/// Deterministic open-loop replay over recorded service times: primary
/// arrivals at `i / arrival_qps`, `workers` FIFO servers, at most
/// `workers + queue_depth` queries in the system. An arrival that finds
/// the system full is rejected, exactly like
/// [`AdmissionPolicy::Reject`]; it re-arrives `backoff_s` later, up to
/// `retry_max` times, before it is lost (`retry_max = 0` sheds on the
/// first reject — the `repro --open-loop` table). Arrivals (primary and
/// retry) are processed in time order with ties broken by query index
/// then attempt number, so the replay is bit-reproducible. Under
/// sustained overload retries amplify attempts without creating
/// capacity — goodput stays pinned at the service rate — which is
/// exactly the regression E21's retry-storm rows watch for.
pub fn replay_arrivals(
    service_seconds: &[f64],
    arrival_qps: f64,
    workers: usize,
    queue_depth: usize,
    retry_max: usize,
    backoff_s: f64,
) -> ArrivalReplay {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let spacing = 1.0 / arrival_qps.max(f64::MIN_POSITIVE);
    let backoff = backoff_s.max(f64::MIN_POSITIVE);
    let capacity = workers.max(1) + queue_depth;
    let mut worker_free = vec![0.0f64; workers.max(1)];
    let mut in_system: Vec<f64> = Vec::new();
    // Non-negative f64 bit patterns order like the floats themselves,
    // so (time bits, index, attempt) is a total order.
    let mut arrivals: BinaryHeap<Reverse<(u64, usize, usize)>> = (0..service_seconds.len())
        .map(|i| Reverse(((i as f64 * spacing).to_bits(), i, 0)))
        .collect();
    let mut completed = 0usize;
    let mut lost = 0usize;
    let mut attempts = 0usize;
    let mut makespan = 0.0f64;
    let mut total_wait = 0.0f64;
    while let Some(Reverse((bits, i, attempt))) = arrivals.pop() {
        let t = f64::from_bits(bits);
        attempts += 1;
        in_system.retain(|&finish| finish > t);
        if in_system.len() >= capacity {
            if attempt < retry_max {
                arrivals.push(Reverse(((t + backoff).to_bits(), i, attempt + 1)));
            } else {
                lost += 1;
            }
            continue;
        }
        let w = min_index(&worker_free);
        let start = worker_free[w].max(t);
        let finish = start + service_seconds[i];
        total_wait += start - t;
        worker_free[w] = finish;
        in_system.push(finish);
        completed += 1;
        makespan = makespan.max(finish);
    }
    ArrivalReplay {
        retry_max,
        offered: service_seconds.len(),
        completed,
        lost,
        attempts,
        sim_makespan_seconds: makespan,
        mean_wait_seconds: total_wait / completed.max(1) as f64,
        goodput_qps: completed as f64 / makespan.max(f64::MIN_POSITIVE),
    }
}

/// (simulated service seconds, output digest) for one response.
fn per_query_record(resp: &pspp_service::QueryResponse) -> (f64, u64) {
    (
        resp.service_seconds,
        output_digest(&resp.report.execution.outputs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = mixed_workload(64, 7);
        let b = mixed_workload(64, 7);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let sql = a.iter().filter(|q| matches!(q, Query::Sql(_))).count();
        assert!(sql > 32, "SQL should dominate the mix, got {sql}");
        assert!(sql < 64, "mix should include ML pipelines");
    }

    #[test]
    fn closed_loop_schedule_scales_with_workers() {
        let times = vec![1.0; 16];
        let (m1, _) = closed_loop_schedule(&times, 1, 1);
        let (m8, _) = closed_loop_schedule(&times, 8, 8);
        assert!((m1 - 16.0).abs() < 1e-12);
        assert!((m8 - 2.0).abs() < 1e-12);
        // More clients than workers: queueing appears.
        let (m, wait) = closed_loop_schedule(&times, 8, 4);
        assert!((m - 4.0).abs() < 1e-12);
        assert!(wait > 0.0);
    }

    #[test]
    fn quantiles_are_exact() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&xs, 0.50) - 50.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.99) - 99.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn replay_without_retries_sheds_only_under_overload() {
        // Service 1s, arrivals every 0.1s, one worker, queue depth 1:
        // capacity 2, so most arrivals find the system full. Arrivals
        // 0 and 1 are admitted at once; the next admission waits for
        // the first finish at t=1.0 — 3 before the last arrival at 1.9.
        let times = vec![1.0; 20];
        let r = replay_arrivals(&times, 10.0, 1, 1, 0, 0.0);
        assert_eq!((r.completed, r.lost, r.attempts), (3, 17, 20));
        assert!((r.sim_makespan_seconds - 3.0).abs() < 1e-12);
        // Waits: 0, 0.9 (arrived 0.1, starts 1.0), 1.0 (arrived 1.0, starts 2.0).
        assert!((r.mean_wait_seconds - 1.9 / 3.0).abs() < 1e-12);
        assert!((r.goodput_qps - 1.0).abs() < 1e-12);

        // Arrivals every 2s against 1s service: nothing sheds.
        let r = replay_arrivals(&times, 0.5, 1, 1, 0, 0.0);
        assert_eq!((r.completed, r.lost), (20, 0));
        assert!(
            r.mean_wait_seconds.abs() < 1e-12,
            "no queueing at light load"
        );
    }

    #[test]
    fn retry_storm_amplifies_attempts_without_creating_capacity() {
        // Service 1s, arrivals every 0.1s, one worker, queue depth 1:
        // sustained overload, most primaries are rejected.
        let times = vec![1.0; 20];
        let base = replay_arrivals(&times, 10.0, 1, 1, 0, 0.05);
        assert_eq!(base.offered, 20);
        assert_eq!(base.completed + base.lost, 20);
        assert_eq!(base.attempts, 20, "no retries at retry_max=0");
        let stormy = replay_arrivals(&times, 10.0, 1, 1, 8, 0.05);
        assert!(
            stormy.attempts > base.attempts,
            "retries must amplify offered load ({} vs {})",
            stormy.attempts,
            base.attempts
        );
        // Retries only mop up the post-arrival drain; they cannot push
        // goodput past the service rate (1 query/s on this shape).
        assert!(stormy.goodput_qps <= 1.0 + 1e-9);
        assert!(base.goodput_qps <= 1.0 + 1e-9);
        // Deterministic: same inputs, same replay.
        assert_eq!(stormy, replay_arrivals(&times, 10.0, 1, 1, 8, 0.05));

        // Light load: every query completes on its first attempt and
        // the retry budget is irrelevant.
        let light = replay_arrivals(&times, 0.5, 1, 1, 8, 0.05);
        assert_eq!(light.completed, 20);
        assert_eq!(light.lost, 0);
        assert_eq!(light.attempts, 20);
    }

    #[test]
    fn open_loop_driver_sheds_and_stays_deterministic() {
        let system = Arc::new(
            Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
                patients: 60,
                vitals_per_patient: 4,
                seed: 9,
            }))
            .opt_level(OptLevel::L2)
            .build()
            .unwrap(),
        );
        let cfg = OpenLoopConfig {
            queries: 24,
            arrival_qps: 1e6, // pathological overload
            workers: 1,
            queue_depth: 1,
            seed: 7,
        };
        let a = run_open_loop(&system, &cfg).unwrap();
        assert_eq!(a.offered, 24);
        assert_eq!(a.admitted + a.shed, 24);
        assert!(
            a.shed_rate > 0.5,
            "pathological overload must shed most arrivals, got {}",
            a.shed_rate
        );
        assert!(
            a.real_rejections > 0,
            "the real Reject admission path never fired"
        );
        let b = run_open_loop(&system, &cfg).unwrap();
        assert_eq!(a.digest, b.digest, "digest is schedule-independent");
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.sim_makespan_seconds, b.sim_makespan_seconds);

        // Light load against the same system: the replay sheds nothing.
        let light = run_open_loop(
            &system,
            &OpenLoopConfig {
                arrival_qps: 0.5,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(light.shed, 0);
        assert_eq!(light.digest, a.digest);
    }
}
