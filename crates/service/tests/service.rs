//! Service-level integration tests: plan-cache semantics, admission
//! behavior, and the headline guarantee — a query batch produces
//! byte-identical results and identical ledger totals at 1 worker and
//! at 8 workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pspp_accel::{AcceleratorFleet, DeviceKind};
use pspp_core::prelude::*;
use pspp_optimizer::OptLevel;
use pspp_service::{AdmissionConfig, AdmissionPolicy, Query, QueryService, ServiceConfig, Session};

fn shared_system(level: OptLevel) -> Arc<Polystore> {
    Arc::new(
        Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 150,
            vitals_per_patient: 8,
            seed: 99,
        }))
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(level)
        .build()
        .expect("valid config"),
    )
}

fn service_with_workers(system: &Arc<Polystore>, workers: usize) -> QueryService {
    QueryService::new(
        Arc::clone(system),
        ServiceConfig {
            admission: AdmissionConfig {
                workers,
                queue_depth: 64,
                policy: AdmissionPolicy::Block,
            },
            ..Default::default()
        },
    )
    .expect("valid service config")
}

const SQL: &str = "SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10";

#[test]
fn repeat_queries_hit_the_plan_cache() {
    let service = service_with_workers(&shared_system(OptLevel::L2), 2);
    let session = service.open_session();
    let cold = session.execute(&Query::sql(SQL)).expect("cold run");
    let warm = session.execute(&Query::sql(SQL)).expect("warm run");
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit);
    // Identical results and execution costs; cheaper service latency.
    assert_eq!(
        format!("{:?}", cold.report.execution.outputs),
        format!("{:?}", warm.report.execution.outputs),
    );
    assert_eq!(cold.report.costs, warm.report.costs);
    assert!(warm.plan_seconds < cold.plan_seconds);
    assert!(warm.service_seconds < cold.service_seconds);

    let stats = session.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    let cache = service.cache_stats();
    assert_eq!(cache.hits, 1);
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.len, 1);
}

/// A service plans and executes at the level its system was built at —
/// the one level there is: below L2 nothing is placed and every task
/// runs on the host though accelerators are attached; at L3 the plan is
/// placed and the stages pipeline. The warm repeat hits the plan cache
/// either way.
#[test]
fn service_serves_at_its_systems_level() {
    for level in [OptLevel::L1, OptLevel::L3] {
        let service = service_with_workers(&shared_system(level), 2);
        let session = service.open_session();
        let cold = session.execute(&Query::sql(SQL)).expect("cold run");
        let warm = session.execute(&Query::sql(SQL)).expect("warm run");
        assert!(!cold.cache_hit && warm.cache_hit, "{level:?}");
        for response in [&cold, &warm] {
            let (report, execution) = (&response.report, &response.report.execution);
            if level == OptLevel::L1 {
                assert!(report.placement.is_none() && !execution.pipelined);
                assert_eq!(execution.offloaded, 0);
                assert!(!execution.device_assignments.is_empty());
                assert!(execution
                    .device_assignments
                    .values()
                    .all(|&d| d == DeviceKind::Cpu));
            } else {
                assert!(report.placement.is_some());
                assert!(execution.pipelined);
            }
        }
    }
}

#[test]
fn dialects_do_not_share_cache_entries() {
    let service = service_with_workers(&shared_system(OptLevel::L2), 2);
    let session = service.open_session();
    let text = "Will patients have a long stay at the hospital?";
    session.execute(&Query::nlq(text)).expect("nlq runs");
    // Same text through the SQL frontend must not hit the NLQ plan
    // (it fails to parse instead of silently reusing it).
    assert!(session.execute(&Query::sql(text)).is_err());
    assert_eq!(service.cache_stats().hits, 0);
}

#[test]
fn service_matches_direct_library_execution() {
    let system = shared_system(OptLevel::L2);
    let direct = system.run_sql(SQL).expect("direct run");
    let service = service_with_workers(&system, 4);
    let served = service
        .open_session()
        .execute(&Query::sql(SQL))
        .expect("served run");
    assert_eq!(
        format!("{:?}", direct.execution.outputs),
        format!("{:?}", served.report.execution.outputs),
    );
    assert_eq!(direct.costs, served.report.costs);
}

/// The headline guarantee: the same batch at 1 worker and at 8 workers
/// produces byte-identical per-query results and identical ledger
/// totals, summed in batch order.
#[test]
fn worker_count_never_changes_results_or_ledger_totals() {
    let system = shared_system(OptLevel::L2);
    let batch: Vec<Query> = vec![
        Query::sql(SQL),
        Query::sql("SELECT count(*) AS n FROM admissions"),
        Query::nlq("Will patients have a long stay at the hospital?"),
        Query::sql(
            "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
             WHERE age >= 80",
        ),
        Query::sql(SQL),
        Query::sql("SELECT pid FROM admissions WHERE age >= 30 AND age < 50"),
        Query::sql("SELECT count(*) AS n FROM admissions"),
        Query::nlq("Will patients have a long stay at the hospital?"),
    ];

    // (outputs debug rendering, ledger events, busy seconds, bytes)
    type PerQuery = (String, usize, f64, u64);
    let run_batch = |workers: usize, clients: usize| -> Vec<PerQuery> {
        let service = service_with_workers(&system, workers);
        for q in &batch {
            service.warm(q).expect("warms");
        }
        let slots: Mutex<Vec<Option<PerQuery>>> = Mutex::new(vec![None; batch.len()]);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let session: Session = service.open_session();
                let slots = &slots;
                let next = &next;
                let batch = &batch;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        return;
                    }
                    let resp = session.execute(&batch[i]).expect("query runs");
                    slots.lock().unwrap()[i] = Some((
                        format!("{:?}", resp.report.execution.outputs),
                        resp.report.costs.events,
                        resp.report.costs.busy.as_secs(),
                        resp.report.costs.bytes,
                    ));
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|s| s.expect("filled"))
            .collect()
    };

    let sequential = run_batch(1, 1);
    let concurrent = run_batch(8, 8);
    for (i, (a, b)) in sequential.iter().zip(&concurrent).enumerate() {
        assert_eq!(a.0, b.0, "query {i} outputs diverged");
        assert_eq!(a.1, b.1, "query {i} ledger event counts diverged");
        assert_eq!(
            a.2.to_bits(),
            b.2.to_bits(),
            "query {i} busy seconds diverged"
        );
        assert_eq!(a.3, b.3, "query {i} ledger bytes diverged");
    }
    // And the batch-order sums (what a service-wide report aggregates).
    let sum = |rs: &[(String, usize, f64, u64)]| {
        rs.iter()
            .fold((0usize, 0.0f64), |(e, b), r| (e + r.1, b + r.2))
    };
    let (ev_a, busy_a) = sum(&sequential);
    let (ev_b, busy_b) = sum(&concurrent);
    assert_eq!(ev_a, ev_b);
    assert_eq!(busy_a.to_bits(), busy_b.to_bits());
}

#[test]
fn reject_policy_sheds_excess_load() {
    let system = shared_system(OptLevel::L2);
    let service = QueryService::new(
        Arc::clone(&system),
        ServiceConfig {
            admission: AdmissionConfig {
                workers: 1,
                queue_depth: 1,
                policy: AdmissionPolicy::Reject,
            },
            ..Default::default()
        },
    )
    .expect("valid config");
    let session = service.open_session();
    // ML training keeps the single worker busy while the submission
    // loop floods the depth-1 queue.
    let heavy = Query::nlq("Will patients have a long stay at the hospital?");
    let tickets: Vec<_> = (0..20).map(|_| session.submit(&heavy)).collect();
    let mut completed = 0;
    let mut rejected = 0;
    for t in tickets {
        match t {
            Ok(ticket) => {
                ticket.wait().expect("admitted queries succeed");
                completed += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, pspp_common::Error::Overloaded { .. }),
                    "got {e:?}"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(completed + rejected, 20);
    assert!(rejected > 0, "queue of depth 1 never overflowed");
    let stats = session.stats();
    assert_eq!(stats.issued, 20);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, completed);
    assert_eq!(service.report().admission.rejected, rejected);
}

#[test]
fn per_session_stats_merge_into_service_report() {
    let service = service_with_workers(&shared_system(OptLevel::L2), 2);
    let alice = service.open_session();
    let bob = service.open_session();
    alice.execute(&Query::sql(SQL)).expect("runs");
    alice.execute(&Query::sql(SQL)).expect("runs");
    bob.execute(&Query::sql("SELECT count(*) AS n FROM admissions"))
        .expect("runs");

    let report = service.report();
    assert_eq!(report.sessions.len(), 2);
    assert_eq!(report.merged.completed, 3);
    assert_eq!(report.merged.cache_hits, 1);
    assert_eq!(report.merged.cache_misses, 2);
    assert_eq!(report.merged.latency.count, 3);
    assert!(report.merged.sim_seconds > 0.0);
    let text = report.to_string();
    assert!(text.contains("plan cache"), "report display: {text}");

    let a = report.sessions.iter().find(|s| s.session == alice.id());
    assert_eq!(a.expect("alice row").completed, 2);
    assert_eq!(bob.stats().completed, 1);
}

#[test]
fn closed_sessions_leave_the_list_but_stay_in_the_merge() {
    let service = service_with_workers(&shared_system(OptLevel::L2), 2);
    {
        let ephemeral = service.open_session();
        ephemeral.execute(&Query::sql(SQL)).expect("runs");
    } // last clone dropped: the session closes
    let survivor = service.open_session();
    survivor.execute(&Query::sql(SQL)).expect("runs");

    let report = service.report();
    assert_eq!(report.sessions.len(), 1, "closed session still listed");
    assert_eq!(report.sessions[0].session, survivor.id());
    assert_eq!(report.merged.completed, 2, "closed session lost from merge");
    assert_eq!(report.merged.cache_hits, 1);
    assert_eq!(report.merged.latency.count, 2);
}

#[test]
fn cloned_tickets_can_all_wait() {
    let service = service_with_workers(&shared_system(OptLevel::L2), 2);
    let session = service.open_session();
    let ticket = session.submit(&Query::sql(SQL)).expect("admitted");
    let clone = ticket.clone();
    let a = ticket.wait().expect("first waiter");
    let b = clone.wait().expect("second waiter must not hang");
    assert_eq!(
        format!("{:?}", a.report.execution.outputs),
        format!("{:?}", b.report.execution.outputs),
    );
}

#[test]
fn sessions_survive_heavy_interleaving() {
    // Smoke test for the shared engine state: 4 sessions x 8 mixed
    // queries with 4 workers, all through one Arc'd system.
    let system = shared_system(OptLevel::L3);
    let service = service_with_workers(&system, 4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = service.open_session();
            scope.spawn(move || {
                for i in 0..8 {
                    let q = if i % 3 == 0 {
                        Query::sql("SELECT count(*) AS n FROM admissions")
                    } else {
                        Query::sql(SQL)
                    };
                    session.execute(&q).expect("query runs");
                }
            });
        }
    });
    let report = service.report();
    assert_eq!(report.merged.completed, 32);
    assert_eq!(report.merged.failed, 0);
    assert!(report.cache.hit_rate() > 0.5);
}

#[test]
fn result_cache_hits_bypass_the_executor_and_bill_lookup_cost() {
    let system = shared_system(OptLevel::L2);
    let service = QueryService::new(
        Arc::clone(&system),
        ServiceConfig {
            result_cache: Some(true),
            ..Default::default()
        },
    )
    .expect("valid service config");
    let session = service.open_session();
    let cold = session.execute(&Query::sql(SQL)).expect("cold run");
    let warm = session.execute(&Query::sql(SQL)).expect("warm run");
    assert!(!cold.result_cache_hit);
    assert!(warm.result_cache_hit, "repeat should hit the result cache");
    // Byte-identical outputs; the hit is billed at lookup cost.
    assert_eq!(
        format!("{:?}", cold.report.execution.outputs),
        format!("{:?}", warm.report.execution.outputs),
    );
    assert!(warm.service_seconds < cold.service_seconds);
    assert_eq!(warm.report.costs.events, 1, "one lookup event, no executor");
    // Billed at the flat 2 µs lookup cost, not the execution's ledger.
    assert!((warm.report.costs.busy.as_secs() - 2e-6).abs() < 1e-12);
    assert_ne!(warm.report.costs, cold.report.costs);

    let report = service.report();
    assert_eq!(report.results.hits, 1);
    assert_eq!(report.results.misses, 1);
    assert_eq!(report.merged.result_hits, 1);
    // The hint EWMA saw both completions.
    assert!(report.retry_after_seconds > 0.0);
    // Metrics flow through the Prometheus path.
    let prom = report.prometheus();
    assert!(
        prom.contains("pspp_result_cache_lookups_total"),
        "missing result-cache series in:\n{prom}"
    );
}

#[test]
fn write_shaped_queries_bump_the_epoch_and_orphan_cached_results() {
    let system = shared_system(OptLevel::L2);
    let epoch_before = system.epoch();
    let service = QueryService::new(
        Arc::clone(&system),
        ServiceConfig {
            result_cache: Some(true),
            ..Default::default()
        },
    )
    .expect("valid service config");
    let session = service.open_session();
    session.execute(&Query::sql(SQL)).expect("cold run");
    assert!(
        session
            .execute(&Query::sql(SQL))
            .expect("warm")
            .result_cache_hit
    );

    assert!(Query::sql("INSERT INTO admissions VALUES (1)").mutates_state());
    assert!(Query::sql("  drop table admissions").mutates_state());
    assert!(!Query::sql(SQL).mutates_state());

    // The mini-SQL frontend may reject the DML text — irrelevant: the
    // epoch bump lands before planning, so the cached entries are
    // orphaned whether or not the mutation itself succeeds.
    let _ = session.execute(&Query::sql("INSERT INTO admissions VALUES (1, 2)"));
    assert!(system.epoch() > epoch_before, "write-shaped query bumps");

    let after = session.execute(&Query::sql(SQL)).expect("post-write run");
    assert!(
        !after.result_cache_hit,
        "pre-write results can never serve a post-write read"
    );
    assert!(!after.cache_hit, "plans replan under the new epoch too");
    assert!(
        service.result_cache_stats().invalidations >= 1,
        "the stale entry is garbage-collected and counted"
    );
}

#[test]
fn reshard_epoch_invalidates_cached_results() {
    let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 150,
        vitals_per_patient: 8,
        seed: 99,
    }))
    .build()
    .expect("valid config");
    // Warm through a service, then mutate the engine state and verify
    // the old entry can never match again.
    let cached = ServiceConfig {
        result_cache: Some(true),
        ..Default::default()
    };
    let epoch_before = system.epoch();
    let arc = Arc::new(system);
    let service = QueryService::new(Arc::clone(&arc), cached).expect("valid service config");
    let session = service.open_session();
    session.execute(&Query::sql(SQL)).expect("cold run");
    assert!(
        session
            .execute(&Query::sql(SQL))
            .expect("warm")
            .result_cache_hit
    );
    drop(session);
    drop(service);

    let mut system = Arc::try_unwrap(arc).expect("sole owner");
    system
        .reshard(
            &TableRef::new("db1", "admissions"),
            PartitionSpec::hash("pid", 3),
        )
        .expect("reshard");
    assert!(system.epoch() > epoch_before, "mutation bumps the epoch");

    let service = QueryService::new(Arc::new(system), cached).expect("valid service config");
    let session = service.open_session();
    let after = session.execute(&Query::sql(SQL)).expect("post-reshard run");
    assert!(
        !after.result_cache_hit,
        "new epoch keys can never match pre-reshard entries"
    );
}
