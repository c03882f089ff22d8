//! The one serving path both tiers run a query down: key → plan cache →
//! plan on a miss → result cache → execute on a miss → memoize; a plan
//! that an epoch bump left stale before it ran is planned again, once.
//!
//! [`QueryService`](crate::QueryService) and
//! [`SessionCore`](crate::SessionCore) differ in what sits *around*
//! this path (worker threads and tickets; a simulated event loop and
//! per-tenant partitions) and in what sits *under* it — a miss
//! compiles and executes directly, or behind the session core's
//! [`Memos`] — but the sequence, the keys and the bill are written
//! here once.

use std::collections::HashMap;
use std::sync::Arc;

use pspp_common::{Error, Result};
use pspp_core::Polystore;

use crate::cache::{CachedPlan, CachedResult, Caches, PlanKey, ResultKey};
use crate::service::Query;

/// Simulated cost of a plan-cache hit: one hash lookup.
const CACHE_HIT_SECONDS: f64 = 2e-6;
/// Simulated cost of a result-cache hit: one hash lookup plus cloning
/// the memoized outputs (the executor is bypassed entirely).
pub(crate) const RESULT_HIT_SECONDS: f64 = 2e-6;

/// The session core's physical layer, shared by every tenant: compile
/// each `(plan digest, epoch)` once whoever asks, and — with
/// `memoize_execution` — execute it once too, replaying the recorded
/// run bit for bit (execution is deterministic). Tenants bill against
/// their own cache partitions above it. The query service has none:
/// each of its misses compiles, each executes.
#[derive(Default)]
pub(crate) struct Memos {
    plans: HashMap<ResultKey, Arc<CachedPlan>>,
    executions: HashMap<ResultKey, Arc<CachedResult>>,
    memoize_execution: bool,
    /// Times the data plane actually ran.
    pub(crate) real_executions: u64,
}

impl Memos {
    pub(crate) fn new(memoize_execution: bool) -> Self {
        Memos {
            memoize_execution,
            ..Memos::default()
        }
    }
}

/// The compile a plan-cache miss falls through to, behind `memos`
/// when the caller has them. `id` is the work's `(plan digest, epoch)`.
fn compile(
    system: &Polystore,
    memos: Option<&mut Memos>,
    query: &Query,
    key: &PlanKey,
    id: ResultKey,
) -> Result<Arc<CachedPlan>> {
    if let Some(plan) = memos.as_ref().and_then(|m| m.plans.get(&id)) {
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(CachedPlan::build(system, query, key)?);
    if let Some(m) = memos {
        m.plans.insert(id, Arc::clone(&plan));
    }
    Ok(plan)
}

/// The execution a result-cache miss falls through to, likewise.
fn execute(
    system: &Polystore,
    memos: Option<&mut Memos>,
    plan: &CachedPlan,
    id: ResultKey,
) -> Result<Arc<CachedResult>> {
    if let Some(cached) = memos.as_ref().and_then(|m| m.executions.get(&id)) {
        return Ok(Arc::clone(cached));
    }
    let (report, _) =
        system.run_optimized(&plan.program, plan.rewrites.clone(), plan.placement.clone())?;
    let cached = Arc::new(CachedResult::new(report));
    if let Some(m) = memos {
        m.real_executions += 1;
        if m.memoize_execution {
            m.executions.insert(id, Arc::clone(&cached));
        }
    }
    Ok(cached)
}

/// The first half of the path: a plan, and whether a cache had it.
pub(crate) struct Planned {
    id: ResultKey,
    plan: Arc<CachedPlan>,
    pub(crate) hit: bool,
}

/// Resolves `query` to a plan under the current epoch:
/// `caches`' plan cache first, [`compile`] (then the insert) on a miss.
/// `caches = None` goes straight to the physical layer.
pub(crate) fn plan(
    system: &Polystore,
    caches: Option<&Caches>,
    memos: Option<&mut Memos>,
    query: &Query,
) -> Result<Planned> {
    let key = PlanKey {
        dialect: query.dialect(),
        text: query.key_text(),
        epoch: system.epoch(),
    };
    let id = ResultKey {
        plan_digest: key.digest(),
        epoch: key.epoch,
    };
    let cached = caches.and_then(|c| c.plans.get(&key));
    let hit = cached.is_some();
    let plan = match cached {
        Some(plan) => plan,
        None => {
            let plan = compile(system, memos, query, &key, id)?;
            if let Some(c) = caches {
                c.plans.insert(key, Arc::clone(&plan));
            }
            plan
        }
    };
    Ok(Planned { id, plan, hit })
}

/// What one trip down the whole path yields.
pub(crate) struct Served {
    /// Whether the plan came from the plan cache.
    pub(crate) plan_hit: bool,
    /// Simulated planning seconds: the lookup on a hit, the frontend +
    /// optimizer bill on a miss.
    pub(crate) plan_seconds: f64,
    /// Whether `result` came from the result cache (nothing executed).
    pub(crate) result_hit: bool,
    /// The memoized execution, from the cache or the physical layer.
    pub(crate) result: Arc<CachedResult>,
}

impl Served {
    /// Simulated end-to-end service latency: planning plus the lookup
    /// on a result hit, planning plus the execution's makespan
    /// otherwise.
    pub(crate) fn service_seconds(&self) -> f64 {
        if self.result_hit {
            self.plan_seconds + RESULT_HIT_SECONDS
        } else {
            self.plan_seconds + self.result.report.makespan()
        }
    }
}

/// Serves `query`: [`plan`], then [`serve_planned`].
pub(crate) fn serve(
    system: &Polystore,
    caches: Option<&Caches>,
    mut memos: Option<&mut Memos>,
    query: &Query,
) -> Result<Served> {
    let planned = plan(system, caches, memos.as_deref_mut(), query)?;
    serve_planned(system, caches, memos, query, planned)
}

/// Serves `query` with `planned`, its plan: `caches`' result cache
/// (when it has one), then [`execute`] and the insert on a miss. A plan
/// that another worker's epoch bump left stale between the two halves
/// ([`Error::StalePlan`]) is planned again under the new epoch — a
/// plan-cache miss — and served once more: the result goes in under the
/// new key, never the stale one, and the trip bills both plans. A
/// second stale plan is the caller's error.
fn serve_planned(
    system: &Polystore,
    caches: Option<&Caches>,
    mut memos: Option<&mut Memos>,
    query: &Query,
    planned: Planned,
) -> Result<Served> {
    match result_of(system, caches, memos.as_deref_mut(), &planned) {
        Err(Error::StalePlan { .. }) => {
            let fresh = plan(system, caches, memos.as_deref_mut(), query)?;
            let mut served = result_of(system, caches, memos, &fresh)?;
            served.plan_seconds += plan_seconds(&planned);
            Ok(served)
        }
        served => served,
    }
}

/// Simulated planning seconds of `planned`: the lookup on a hit, the
/// frontend + optimizer bill on a miss.
fn plan_seconds(planned: &Planned) -> f64 {
    if planned.hit {
        CACHE_HIT_SECONDS
    } else {
        planned.plan.plan_seconds
    }
}

/// The result of `planned`: `caches`' result cache (when it has one),
/// then [`execute`] and the insert on a miss.
fn result_of(
    system: &Polystore,
    caches: Option<&Caches>,
    memos: Option<&mut Memos>,
    planned: &Planned,
) -> Result<Served> {
    let results = caches.and_then(|c| c.results.as_ref());
    let cached = results.and_then(|r| r.get(&planned.id));
    let result_hit = cached.is_some();
    let result = match cached {
        Some(result) => result,
        None => {
            let result = execute(system, memos, &planned.plan, planned.id)?;
            if let Some(r) = results {
                r.insert(planned.id, Arc::clone(&result));
            }
            result
        }
    };
    Ok(Served {
        plan_hit: planned.hit,
        plan_seconds: plan_seconds(planned),
        result_hit,
        result,
    })
}

#[cfg(test)]
mod tests {
    use pspp_core::datagen::{self, ClinicalConfig};
    use pspp_telemetry::MetricsRegistry;

    use super::*;

    #[test]
    fn a_plan_left_stale_by_an_epoch_bump_is_planned_again_once() {
        let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: 200,
            vitals_per_patient: 2,
            seed: 7,
        }))
        .build()
        .expect("valid config");
        let query = Query::sql(
            "SELECT name, age FROM admissions JOIN db2.patients ON admissions.pid = patients.pid",
        );
        let caches = Caches::new(&MetricsRegistry::new(), true, true);
        // Planned under one epoch, served under the next: what a worker
        // sees when another bumps the epoch between its two halves.
        let stale = plan(&system, Some(&caches), None, &query).unwrap();
        let stale_id = stale.id;
        system.bump_epoch();
        let served = serve_planned(&system, Some(&caches), None, &query, stale).unwrap();
        assert!(!served.plan_hit, "the retry plans under the new epoch");
        assert!(!served.result_hit);

        // The fresh plan is cached now, and the result is under its key.
        let fresh = plan(&system, Some(&caches), None, &query).unwrap();
        assert!(fresh.hit);
        assert_ne!(fresh.id, stale_id);
        let results = caches.results.as_ref().unwrap();
        let cached = results
            .get(&fresh.id)
            .expect("the result under the fresh key");
        assert!(Arc::ptr_eq(&cached, &served.result));
        assert_eq!(cached.digest(), served.result.digest());
        assert!(
            results.get(&stale_id).is_none(),
            "nothing under the stale key"
        );

        // The same answer a query served from scratch gets, and the
        // same retry with no cache at all.
        let cold = serve(&system, None, None, &query).unwrap();
        assert_eq!(served.result.digest(), cold.result.digest());
        let stale = plan(&system, None, None, &query).unwrap();
        system.bump_epoch();
        let uncached = serve_planned(&system, None, None, &query, stale).unwrap();
        assert_eq!(uncached.result.digest(), cold.result.digest());
    }
}
